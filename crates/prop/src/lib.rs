//! Seeded property-test case driver for the workspace's test suites.
//!
//! [`check`] runs a property over a fixed number of generated cases. Each
//! case gets its own [`Gen`], a SplitMix64 stream from
//! [`qtenon_sim_engine::rng`] whose seed is a fixed function of the
//! property's name and the case index, so every run of a test draws the
//! same cases on every machine. Property bodies use plain `assert!` and
//! `assert_eq!`. When a case fails, the driver panics again with the
//! property name, the case index and the case seed in front of the
//! original message. There is no shrinking.
//!
//! # Examples
//!
//! ```
//! use qtenon_prop::check;
//!
//! check("addition_commutes", 256, |g| {
//!     let a = g.draw(0u64..1_000);
//!     let b = g.draw(0u64..=1_000);
//!     assert_eq!(a + b, b + a);
//! });
//! ```

#![deny(unsafe_code)]
#![deny(dead_code)]

use std::ops::{Range, RangeInclusive};
use std::panic::{self, AssertUnwindSafe};

use qtenon_sim_engine::rng::{splitmix64, stream_seed, unit};

/// Runs `property` on `cases` generated cases.
///
/// # Panics
///
/// Panics on the first failing case, with a message naming the property,
/// the case index and the case seed, followed by the case's own panic
/// message.
pub fn check(name: &str, cases: u32, mut property: impl FnMut(&mut Gen)) {
    let seed = name_seed(name);
    for case in 0..cases {
        let case_seed = stream_seed(seed, u64::from(case));
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| property(&mut Gen::new(case_seed))));
        if let Err(payload) = outcome {
            let message = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("(non-string panic payload)");
            panic!(
                "property {name} failed on case {case} of {cases} \
                 (case seed {case_seed:#018x}): {message}"
            );
        }
    }
}

/// The base seed of the property called `name`.
fn name_seed(name: &str) -> u64 {
    name.bytes().fold(0, |s, b| stream_seed(s, u64::from(b)))
}

/// The random source of one case.
#[derive(Debug)]
pub struct Gen {
    state: u64,
}

impl Gen {
    fn new(seed: u64) -> Self {
        Gen { state: seed }
    }

    /// Any `u64`.
    pub fn u64(&mut self) -> u64 {
        splitmix64(&mut self.state)
    }

    /// Any `u32`.
    pub fn u32(&mut self) -> u32 {
        (self.u64() >> 32) as u32
    }

    /// Any `bool`.
    pub fn bool(&mut self) -> bool {
        self.u64() >> 63 == 1
    }

    /// A uniform draw from `range`.
    pub fn draw<R: Draw>(&mut self, range: R) -> R::Value {
        range.draw(self)
    }

    /// A vector of `len` elements, each drawn by `element`.
    pub fn vec<T>(&mut self, len: impl Length, mut element: impl FnMut(&mut Gen) -> T) -> Vec<T> {
        let n = len.length(self);
        (0..n).map(|_| element(self)).collect()
    }

    /// One of `items`, uniformly.
    pub fn select<T: Clone>(&mut self, items: &[T]) -> T {
        assert!(!items.is_empty(), "select from an empty slice");
        items[self.below(items.len() as u64) as usize].clone()
    }

    /// A uniform draw in `[0, n)`; `n` must be non-zero.
    fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.u64()) * u128::from(n)) >> 64) as u64
    }

    /// A uniform draw in `[0, max]`.
    fn up_to(&mut self, max: u64) -> u64 {
        match max.checked_add(1) {
            Some(n) => self.below(n),
            None => self.u64(),
        }
    }
}

/// A range that [`Gen::draw`] samples uniformly.
pub trait Draw {
    /// The type of the drawn values.
    type Value;
    /// Draws one value from the range.
    fn draw(self, g: &mut Gen) -> Self::Value;
}

macro_rules! int_ranges {
    ($($t:ty),*) => {$(
        impl Draw for Range<$t> {
            type Value = $t;
            fn draw(self, g: &mut Gen) -> $t {
                assert!(self.start < self.end, "empty range {self:?}");
                self.start + g.below((self.end - self.start) as u64) as $t
            }
        }

        impl Draw for RangeInclusive<$t> {
            type Value = $t;
            fn draw(self, g: &mut Gen) -> $t {
                let (lo, hi) = self.into_inner();
                assert!(lo <= hi, "empty range {lo}..={hi}");
                lo + g.up_to((hi - lo) as u64) as $t
            }
        }
    )*};
}

int_ranges!(u8, u32, u64, usize);

impl Draw for Range<f64> {
    type Value = f64;
    fn draw(self, g: &mut Gen) -> f64 {
        assert!(self.start < self.end, "empty range {self:?}");
        let v = self.start + (self.end - self.start) * unit(&mut g.state);
        // Rounding may land on the excluded end; keep it excluded.
        v.min(self.end.next_down())
    }
}

/// The length argument of [`Gen::vec`]: a fixed `usize` or a half-open
/// range of them.
pub trait Length {
    /// The length of one generated vector.
    fn length(self, g: &mut Gen) -> usize;
}

impl Length for usize {
    fn length(self, _: &mut Gen) -> usize {
        self
    }
}

impl Length for Range<usize> {
    fn length(self, g: &mut Gen) -> usize {
        g.draw(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every value a run of `check(name, cases, ..)` draws, in order.
    fn draws(name: &str, cases: u32) -> Vec<u64> {
        let mut seen = Vec::new();
        check(name, cases, |g| {
            seen.push(g.draw(0u64..1_000_000));
            seen.push(g.u64());
        });
        seen
    }

    #[test]
    fn runs_of_the_same_property_draw_identical_cases() {
        let first = draws("same_cases", 64);
        assert_eq!(first.len(), 128);
        assert_eq!(first, draws("same_cases", 64));
        // The seed follows the name, so another property draws others.
        assert_ne!(first, draws("other_cases", 64));
        // A shorter run draws a prefix of the longer one.
        assert_eq!(draws("same_cases", 8), first[..16]);
    }

    #[test]
    fn every_case_runs_on_its_own_seed() {
        let mut firsts: Vec<u64> = Vec::new();
        check("distinct_seeds", 256, |g| firsts.push(g.u64()));
        firsts.sort_unstable();
        firsts.dedup();
        assert_eq!(firsts.len(), 256);
    }

    #[test]
    fn integer_ranges_stay_inside_their_bounds() {
        let mut g = Gen::new(1);
        let (mut half_open, mut inclusive) = ([false; 4], [false; 4]);
        for _ in 0..1_000 {
            half_open[usize::from(g.draw(0u8..4))] = true;
            inclusive[g.draw(0u64..=3) as usize] = true;
            assert!((10u32..13).contains(&g.draw(10u32..13)));
            assert_eq!(g.draw(7usize..8), 7);
            assert_eq!(g.draw(u64::MAX - 1..u64::MAX), u64::MAX - 1);
            assert_eq!(g.draw(9u32..=9), 9);
            assert!(g.draw(250u8..=u8::MAX) >= 250);
        }
        // Every value is drawn: the exclusive end never, the inclusive one too.
        assert_eq!((half_open, inclusive), ([true; 4], [true; 4]));
        // The full domain has no representable span; it must still draw.
        g.draw(0u64..=u64::MAX);
    }

    #[test]
    fn float_ranges_stay_inside_their_bounds() {
        let mut g = Gen::new(3);
        for _ in 0..10_000 {
            let v = g.draw(-7.0f64..7.0);
            assert!((-7.0..7.0).contains(&v), "{v} escaped -7..7");
        }
        // A one-ulp range can only yield its start.
        assert_eq!(g.draw(1.0f64..1.0f64.next_up()), 1.0);
    }

    #[test]
    fn vec_lengths_and_selections_stay_inside_their_bounds() {
        let mut g = Gen::new(4);
        let (mut lengths, mut picks) = ([false; 4], [false; 3]);
        for _ in 0..1_000 {
            assert_eq!(g.vec(5, Gen::u64).len(), 5);
            assert!(g.vec(0..1, Gen::bool).is_empty());
            let v = g.vec(1..4, |g| g.draw(0u32..3));
            assert!(v.iter().all(|&x| x < 3));
            lengths[v.len()] = true;
            picks[g.select(&[0, 1, 2])] = true;
        }
        assert_eq!((lengths, picks), ([false, true, true, true], [true; 3]));
    }

    #[test]
    fn failing_property_names_its_case_seed() {
        let name = "deliberately_failing";
        let fails = |g: &mut Gen| assert!(g.draw(0u32..10) < 5, "drew too high");
        // The first failing case, found independently of the driver.
        let (case, seed) = (0u64..)
            .map(|case| (case, stream_seed(name_seed(name), case)))
            .find(|&(_, seed)| Gen::new(seed).draw(0u32..10) >= 5)
            .expect("some case fails");
        let payload = panic::catch_unwind(|| check(name, 256, fails)).expect_err("must fail");
        assert_eq!(
            payload
                .downcast_ref::<String>()
                .expect("a formatted message"),
            &format!(
                "property {name} failed on case {case} of 256 \
                 (case seed {seed:#018x}): drew too high"
            )
        );
    }
}
