//! Deterministic, seeded fault injection for the component models.
//!
//! Real control stacks must tolerate transient link errors, readout
//! timeouts, and control-store corruption. This module supplies the
//! *injection* half of that story: a [`FaultPlan`] names per-site fault
//! rates plus the resilience-policy knobs (retry budget, backoff, watchdog
//! timeout), and a [`FaultInjector`] turns the plan into reproducible
//! per-site Bernoulli/geometric draws. The *response* half — retries,
//! watchdogs, parity fallbacks — lives with the components themselves.
//!
//! # Determinism
//!
//! Every site owns an independent SplitMix64 stream derived from the plan
//! seed, and every injection decision consumes **exactly one** draw from
//! its site's stream regardless of the outcome. Retry counts come from a
//! single uniform draw inverted through the geometric CDF
//! (`k = max k with u < rate^k`), so for a fixed seed the streams stay
//! aligned across different rates and every per-event failure count is
//! pointwise monotone in the rate. That is what makes "retry counts are
//! monotone in the fault rate" a testable property rather than a
//! statistical tendency.
//!
//! # Examples
//!
//! ```
//! use qtenon_sim_engine::faults::{FaultInjector, FaultPlan, FaultSite};
//!
//! let plan = FaultPlan::parse("bus_drop=0.5,readout_timeout=0.1").unwrap();
//! let mut a = FaultInjector::new(plan.with_seed(7));
//! let mut b = FaultInjector::new(plan.with_seed(7));
//! for _ in 0..100 {
//!     assert_eq!(
//!         a.geometric_failures(FaultSite::BusDrop),
//!         b.geometric_failures(FaultSite::BusDrop),
//!     );
//! }
//! assert_eq!(a.injected_total(), b.injected_total());
//! ```

use crate::metrics::MetricsRegistry;
use crate::rng::{splitmix64, stream_seed, unit};
use crate::time::SimDuration;

/// A malformed fault spec, carrying the exact offending token so callers
/// can point at the bad entry instead of echoing the whole spec back.
///
/// Every variant names the token it tripped over; [`std::fmt::Display`]
/// renders the same one-line messages the old stringly-typed parser
/// produced, so `map_err(|e| format!(...))` call sites keep working.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultSpecError {
    /// The spec contained no `key=value` pairs at all (empty string,
    /// only separators, or only comments).
    Empty,
    /// An entry without an `=`, e.g. `bus_drop` or `0.1`.
    NotKeyValue {
        /// The entry as written.
        token: String,
    },
    /// A key naming neither an injection site nor a policy knob.
    UnknownKey {
        /// The unrecognised key.
        token: String,
    },
    /// A policy-knob value that is not an unsigned integer, or is too
    /// large for its knob (`max_attempts` is a `u32`).
    BadInt {
        /// The knob name.
        key: String,
        /// The value as written.
        token: String,
    },
    /// A rate value that is not a number at all.
    BadRate {
        /// The site (or `all`) name.
        key: String,
        /// The value as written.
        token: String,
    },
    /// A numeric rate outside `[0, 1)` — negative, `>= 1`, or NaN.
    RateOutOfRange {
        /// The site name the rate was destined for.
        site: &'static str,
        /// The offending rate.
        rate: f64,
    },
}

impl std::fmt::Display for FaultSpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultSpecError::Empty => {
                write!(f, "fault spec is empty: expected key=value pairs")
            }
            FaultSpecError::NotKeyValue { token } => {
                write!(f, "fault spec entry {token:?} is not key=value")
            }
            FaultSpecError::UnknownKey { token } => {
                write!(f, "unknown fault spec key {token:?}")
            }
            FaultSpecError::BadInt { key, token } => {
                write!(
                    f,
                    "bad {key} in fault spec: {token:?} is not an unsigned integer in range"
                )
            }
            FaultSpecError::BadRate { key, token } => {
                write!(
                    f,
                    "bad rate for {key} in fault spec: {token:?} is not a number"
                )
            }
            FaultSpecError::RateOutOfRange { site, rate } => {
                write!(f, "fault rate for {site} must be in [0, 1): got {rate}")
            }
        }
    }
}

impl std::error::Error for FaultSpecError {}

/// A component boundary where faults can be injected.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// A TileLink transaction is dropped in flight (needs retransmission).
    BusDrop,
    /// A TileLink transaction arrives corrupted (CRC fails, retransmit).
    BusCorrupt,
    /// A PGU holds its result for extra cycles (transient stall).
    PguStall,
    /// A PGU produces a detectably bad pulse (must re-dispatch).
    PguFail,
    /// A parity-detectable bit flip in a resident SLT entry.
    SltBitFlip,
    /// A correctable (SECDED) bit flip in a QCC `.measure` word.
    QccBitFlip,
    /// An RBQ tag whose completion never arrives (stuck / leaked).
    RbqStuck,
    /// The readout chain misses its deadline and must be re-armed.
    ReadoutTimeout,
}

impl FaultSite {
    /// Every injection site, in declaration order.
    pub const ALL: [FaultSite; 8] = [
        FaultSite::BusDrop,
        FaultSite::BusCorrupt,
        FaultSite::PguStall,
        FaultSite::PguFail,
        FaultSite::SltBitFlip,
        FaultSite::QccBitFlip,
        FaultSite::RbqStuck,
        FaultSite::ReadoutTimeout,
    ];

    /// The stable spec/metric name of the site.
    pub(crate) fn name(self) -> &'static str {
        match self {
            FaultSite::BusDrop => "bus_drop",
            FaultSite::BusCorrupt => "bus_corrupt",
            FaultSite::PguStall => "pgu_stall",
            FaultSite::PguFail => "pgu_fail",
            FaultSite::SltBitFlip => "slt_bitflip",
            FaultSite::QccBitFlip => "qcc_bitflip",
            FaultSite::RbqStuck => "rbq_stuck",
            FaultSite::ReadoutTimeout => "readout_timeout",
        }
    }

    fn index(self) -> usize {
        FaultSite::ALL
            .iter()
            .position(|&s| s == self)
            .expect("site is in ALL")
    }
}

/// A reproducible fault schedule: per-site rates, the RNG seed that makes
/// them deterministic, and the resilience-policy knobs the components
/// consult when reacting to injected faults.
///
/// The all-zero default plan is inert: [`FaultPlan::is_active`] is false
/// and a system configured with it behaves byte-identically to one with
/// no fault support at all.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct FaultPlan {
    /// Seed for the per-site SplitMix64 streams.
    pub seed: u64,
    /// Probability a bus transaction is dropped (per transfer).
    pub bus_drop: f64,
    /// Probability a bus transaction is corrupted (per transfer).
    pub bus_corrupt: f64,
    /// Probability a PGU dispatch stalls (per dispatch).
    pub pgu_stall: f64,
    /// Probability a PGU dispatch produces a bad pulse (per dispatch).
    pub pgu_fail: f64,
    /// Probability an SLT lookup observes a parity error (per lookup).
    pub slt_bitflip: f64,
    /// Probability a QCC `.measure` write takes a correctable flip (per
    /// deposited word).
    pub qcc_bitflip: f64,
    /// Probability an issued RBQ tag gets stuck (per flow).
    pub rbq_stuck: f64,
    /// Probability a readout misses its deadline (per `q_acquire`).
    pub readout_timeout: f64,
    /// Retry budget per operation; exceeding it surfaces a typed error.
    pub max_attempts: u32,
    /// Base retry backoff in nanoseconds (doubles per attempt).
    pub backoff_ns: u64,
    /// RBQ watchdog: tags stuck longer than this are reclaimed (ns).
    pub watchdog_timeout_ns: u64,
    /// Extra controller-SRAM cycles a stalled PGU dispatch costs.
    pub pgu_stall_cycles: u64,
    /// Modelled cost of one readout re-arm, in nanoseconds.
    pub readout_penalty_ns: u64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0xFA17,
            bus_drop: 0.0,
            bus_corrupt: 0.0,
            pgu_stall: 0.0,
            pgu_fail: 0.0,
            slt_bitflip: 0.0,
            qcc_bitflip: 0.0,
            rbq_stuck: 0.0,
            readout_timeout: 0.0,
            max_attempts: 4,
            backoff_ns: 50,
            watchdog_timeout_ns: 10_000,
            pgu_stall_cycles: 500,
            readout_penalty_ns: 300,
        }
    }
}

impl FaultPlan {
    /// A plan with every site at `rate` (policy knobs at defaults).
    ///
    /// # Panics
    ///
    /// Panics if `rate` is outside `[0, 1)`.
    pub fn all(rate: f64) -> Self {
        let mut plan = FaultPlan::default();
        for site in FaultSite::ALL {
            plan.set_rate(site, rate).expect("rate in [0, 1)");
        }
        plan
    }

    /// The injection rate configured for `site`.
    pub(crate) fn rate(&self, site: FaultSite) -> f64 {
        match site {
            FaultSite::BusDrop => self.bus_drop,
            FaultSite::BusCorrupt => self.bus_corrupt,
            FaultSite::PguStall => self.pgu_stall,
            FaultSite::PguFail => self.pgu_fail,
            FaultSite::SltBitFlip => self.slt_bitflip,
            FaultSite::QccBitFlip => self.qcc_bitflip,
            FaultSite::RbqStuck => self.rbq_stuck,
            FaultSite::ReadoutTimeout => self.readout_timeout,
        }
    }

    /// Sets the injection rate for `site`.
    ///
    /// # Errors
    ///
    /// Returns [`FaultSpecError::RateOutOfRange`] if `rate` is not a
    /// finite probability in `[0, 1)` (1.0 is excluded: a certain fault
    /// would make geometric retry counts unbounded; NaN fails both
    /// bounds checks).
    pub fn set_rate(&mut self, site: FaultSite, rate: f64) -> Result<(), FaultSpecError> {
        if !rate.is_finite() || !(0.0..1.0).contains(&rate) {
            return Err(FaultSpecError::RateOutOfRange {
                site: site.name(),
                rate,
            });
        }
        let slot = match site {
            FaultSite::BusDrop => &mut self.bus_drop,
            FaultSite::BusCorrupt => &mut self.bus_corrupt,
            FaultSite::PguStall => &mut self.pgu_stall,
            FaultSite::PguFail => &mut self.pgu_fail,
            FaultSite::SltBitFlip => &mut self.slt_bitflip,
            FaultSite::QccBitFlip => &mut self.qcc_bitflip,
            FaultSite::RbqStuck => &mut self.rbq_stuck,
            FaultSite::ReadoutTimeout => &mut self.readout_timeout,
        };
        *slot = rate;
        Ok(())
    }

    /// Builder-style rate update (see [`FaultPlan::set_rate`] for limits).
    ///
    /// # Panics
    ///
    /// Panics if `rate` is outside `[0, 1)`.
    pub fn with_rate(mut self, site: FaultSite, rate: f64) -> Self {
        self.set_rate(site, rate).expect("rate in [0, 1)");
        self
    }

    /// Builder-style seed update.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// True when any site has a non-zero rate. An inactive plan must be
    /// behaviourally invisible.
    pub fn is_active(&self) -> bool {
        FaultSite::ALL.iter().any(|&s| self.rate(s) > 0.0)
    }

    /// The exponential backoff charged before retry number `attempt`
    /// (1-based): `backoff_ns << (attempt - 1)`, saturating.
    pub fn backoff(&self, attempt: u32) -> SimDuration {
        let shift = attempt.saturating_sub(1).min(20);
        SimDuration::from_ns(self.backoff_ns.saturating_mul(1u64 << shift))
    }

    /// The RBQ watchdog timeout as a duration.
    pub fn watchdog_timeout(&self) -> SimDuration {
        SimDuration::from_ns(self.watchdog_timeout_ns)
    }

    /// The modelled cost of one readout re-arm.
    pub fn readout_penalty(&self) -> SimDuration {
        SimDuration::from_ns(self.readout_penalty_ns)
    }

    /// Parses a fault spec: comma- or newline-separated `key=value` pairs
    /// with `#`-to-end-of-line comments, so the same grammar serves both
    /// `--faults bus_drop=0.01,readout_timeout=0.05` on a command line and
    /// a small plan file. Keys are the eight site names, the shorthand
    /// `all` (sets every site), and the policy knobs `seed`,
    /// `max_attempts`, `backoff_ns`, `watchdog_timeout_ns`,
    /// `pgu_stall_cycles`, and `readout_penalty_ns`.
    ///
    /// # Errors
    ///
    /// Returns a [`FaultSpecError`] naming the offending token on unknown
    /// keys, malformed numbers, or out-of-range rates, and
    /// [`FaultSpecError::Empty`] when the spec contains no pairs at all —
    /// an empty `--faults` argument or plan file is always a mistake, not
    /// a request for the default plan.
    pub fn parse(spec: &str) -> Result<Self, FaultSpecError> {
        let mut plan = FaultPlan::default();
        let mut pairs = 0usize;
        for raw_line in spec.lines() {
            let line = raw_line.split('#').next().unwrap_or("");
            for pair in line.split(',') {
                let pair = pair.trim();
                if pair.is_empty() {
                    continue;
                }
                pairs += 1;
                let (key, value) =
                    pair.split_once('=')
                        .ok_or_else(|| FaultSpecError::NotKeyValue {
                            token: pair.to_string(),
                        })?;
                let (key, value) = (key.trim(), value.trim());
                let bad_int = |what: &str| FaultSpecError::BadInt {
                    key: what.to_string(),
                    token: value.to_string(),
                };
                let int = |what: &str| value.parse::<u64>().map_err(|_| bad_int(what));
                let rate = || -> Result<f64, FaultSpecError> {
                    value.parse::<f64>().map_err(|_| FaultSpecError::BadRate {
                        key: key.to_string(),
                        token: value.to_string(),
                    })
                };
                match key {
                    "seed" => plan.seed = int("seed")?,
                    "max_attempts" => {
                        plan.max_attempts = value.parse().map_err(|_| bad_int("max_attempts"))?;
                    }
                    "backoff_ns" => plan.backoff_ns = int("backoff_ns")?,
                    "watchdog_timeout_ns" => plan.watchdog_timeout_ns = int("watchdog_timeout_ns")?,
                    "pgu_stall_cycles" => plan.pgu_stall_cycles = int("pgu_stall_cycles")?,
                    "readout_penalty_ns" => plan.readout_penalty_ns = int("readout_penalty_ns")?,
                    "all" => {
                        let r = rate()?;
                        for site in FaultSite::ALL {
                            plan.set_rate(site, r)?;
                        }
                    }
                    _ => {
                        let site = FaultSite::ALL
                            .into_iter()
                            .find(|s| s.name() == key)
                            .ok_or_else(|| FaultSpecError::UnknownKey {
                                token: key.to_string(),
                            })?;
                        plan.set_rate(site, rate()?)?;
                    }
                }
            }
        }
        if pairs == 0 {
            return Err(FaultSpecError::Empty);
        }
        Ok(plan)
    }
}

/// The runtime half of a [`FaultPlan`]: per-site RNG streams plus
/// checked/injected counters for the `faults.*` metrics namespace.
///
/// Every fault site calls the injector unconditionally; the injector
/// alone decides "no faults". On an inert plan [`bernoulli`] answers
/// `false` and [`geometric_failures`] answers `0` without touching a
/// stream or a counter. On an active plan every decision spends exactly
/// one draw and counts one check, including at sites whose rate is zero.
///
/// [`bernoulli`]: FaultInjector::bernoulli
/// [`geometric_failures`]: FaultInjector::geometric_failures
#[derive(Clone, Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    /// `plan.is_active()`, computed once at construction.
    active: bool,
    streams: [u64; FaultSite::ALL.len()],
    checked: [u64; FaultSite::ALL.len()],
    injected: [u64; FaultSite::ALL.len()],
}

impl FaultInjector {
    /// Builds an injector; each site's stream is seeded independently so
    /// draws at one site never perturb another.
    pub fn new(plan: FaultPlan) -> Self {
        let streams = std::array::from_fn(|i| {
            let mut s = plan.seed ^ (i as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F);
            // Burn one round so nearby seeds decorrelate immediately.
            splitmix64(&mut s);
            s
        });
        FaultInjector {
            plan,
            active: plan.is_active(),
            streams,
            checked: [0; FaultSite::ALL.len()],
            injected: [0; FaultSite::ALL.len()],
        }
    }

    /// The plan this injector executes.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// True when any site can fire (see [`FaultPlan::is_active`]).
    #[inline]
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// One Bernoulli trial at `site`: exactly one draw on an active plan,
    /// none on an inert one.
    #[inline]
    pub fn bernoulli(&mut self, site: FaultSite) -> bool {
        if !self.active {
            return false;
        }
        let i = site.index();
        self.checked[i] += 1;
        let hit = unit(&mut self.streams[i]) < self.plan.rate(site);
        if hit {
            self.injected[i] += 1;
        }
        hit
    }

    /// The number of consecutive failures before the first success at
    /// `site`, from exactly one draw: `k = max k with u < rate^k`. A zero
    /// rate always returns 0; the count is capped at 64 so a pathological
    /// draw cannot spin. An inert plan returns 0 without drawing.
    #[inline]
    pub fn geometric_failures(&mut self, site: FaultSite) -> u32 {
        if !self.active {
            return 0;
        }
        let i = site.index();
        self.checked[i] += 1;
        let rate = self.plan.rate(site);
        let u = unit(&mut self.streams[i]);
        let mut k = 0u32;
        let mut threshold = rate;
        while u < threshold && k < 64 {
            k += 1;
            threshold *= rate;
        }
        self.injected[i] += u64::from(k);
        k
    }

    /// Decisions evaluated at `site` so far.
    pub(crate) fn checked(&self, site: FaultSite) -> u64 {
        self.checked[site.index()]
    }

    /// Faults actually injected at `site` so far.
    pub(crate) fn injected(&self, site: FaultSite) -> u64 {
        self.injected[site.index()]
    }

    /// Faults injected across every site.
    pub fn injected_total(&self) -> u64 {
        self.injected.iter().sum()
    }

    /// Derives the injector for one simulation shot: the same plan with
    /// its seed replaced by the `(seed, shot)` sub-stream seed and fresh
    /// counters.
    ///
    /// The derived injector's draws depend only on the parent plan's seed
    /// and the global shot index — never on how many draws the parent has
    /// already consumed or which thread evaluates the shot — so shot
    /// execution can be sharded across workers and still reproduce the
    /// serial fault schedule bit for bit. Fold the counters back with
    /// [`FaultInjector::absorb`] in canonical shot order.
    pub fn for_shot(&self, shot: u64) -> FaultInjector {
        FaultInjector::new(self.plan.with_seed(stream_seed(self.plan.seed, shot)))
    }

    /// Adds `other`'s checked/injected counters into this injector's,
    /// without touching the RNG streams. Counter addition is commutative,
    /// but callers absorb shards in canonical shot order anyway so the
    /// whole merge pipeline follows one ordering rule.
    pub fn absorb(&mut self, other: &FaultInjector) {
        for i in 0..FaultSite::ALL.len() {
            self.checked[i] += other.checked[i];
            self.injected[i] += other.injected[i];
        }
    }

    /// Registers `<prefix>.checked.<site>`, `<prefix>.injected.<site>`,
    /// and `<prefix>.injected.total` counters.
    pub fn export_metrics(&self, m: &mut MetricsRegistry, prefix: &str) {
        for site in FaultSite::ALL {
            m.counter(
                &format!("{prefix}.checked.{}", site.name()),
                self.checked(site),
            );
            m.counter(
                &format!("{prefix}.injected.{}", site.name()),
                self.injected(site),
            );
        }
        m.counter(&format!("{prefix}.injected.total"), self.injected_total());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_inert() {
        let plan = FaultPlan::default();
        assert!(!plan.is_active());
        let mut inj = FaultInjector::new(plan);
        for site in FaultSite::ALL {
            assert!(!inj.bernoulli(site));
            assert_eq!(inj.geometric_failures(site), 0);
        }
        assert_eq!(inj.injected_total(), 0);
    }

    #[test]
    fn inert_injector_draws_nothing_and_counts_nothing() {
        // Rates all zero but every other knob non-default: only the rates
        // decide inertness.
        let plan = FaultPlan {
            max_attempts: 1,
            ..FaultPlan::default()
        }
        .with_seed(0xDEAD);
        let mut inj = FaultInjector::new(plan);
        assert!(!inj.is_active());
        let streams = inj.streams;
        for _ in 0..3 {
            for site in FaultSite::ALL {
                assert!(!inj.bernoulli(site));
                assert_eq!(inj.geometric_failures(site), 0);
            }
        }
        assert_eq!(inj.streams, streams, "an inert plan touched a stream");
        for site in FaultSite::ALL {
            assert_eq!(inj.checked(site), 0, "{}", site.name());
        }
        assert_eq!(inj.for_shot(5).checked(FaultSite::QccBitFlip), 0);
    }

    #[test]
    fn active_plan_checks_zero_rate_sites_once_per_decision() {
        let plan = FaultPlan::default()
            .with_rate(FaultSite::BusDrop, 0.3)
            .with_seed(5);
        let mut inj = FaultInjector::new(plan);
        assert!(inj.is_active());
        let before = inj.streams;
        for _ in 0..4 {
            assert!(!inj.bernoulli(FaultSite::RbqStuck));
            assert_eq!(inj.geometric_failures(FaultSite::PguFail), 0);
        }
        assert_eq!(inj.checked(FaultSite::RbqStuck), 4);
        assert_eq!(inj.checked(FaultSite::PguFail), 4);
        assert_eq!(inj.injected_total(), 0);
        // The zero-rate sites' streams advanced; the untouched one did not.
        let moved = |s: FaultSite| inj.streams[s.index()] != before[s.index()];
        assert!(moved(FaultSite::RbqStuck) && moved(FaultSite::PguFail));
        assert!(!moved(FaultSite::BusDrop));
    }

    #[test]
    fn same_seed_same_draws() {
        let plan = FaultPlan::all(0.3).with_seed(99);
        let mut a = FaultInjector::new(plan);
        let mut b = FaultInjector::new(plan);
        for _ in 0..500 {
            for site in FaultSite::ALL {
                assert_eq!(a.bernoulli(site), b.bernoulli(site));
                assert_eq!(a.geometric_failures(site), b.geometric_failures(site));
            }
        }
        for site in FaultSite::ALL {
            assert_eq!(a.injected(site), b.injected(site));
            assert_eq!(a.checked(site), b.checked(site));
        }
    }

    #[test]
    fn geometric_counts_are_pointwise_monotone_in_rate() {
        let low = FaultPlan::all(0.05).with_seed(7);
        let high = FaultPlan::all(0.4).with_seed(7);
        let mut a = FaultInjector::new(low);
        let mut b = FaultInjector::new(high);
        for _ in 0..2_000 {
            let ka = a.geometric_failures(FaultSite::BusDrop);
            let kb = b.geometric_failures(FaultSite::BusDrop);
            assert!(ka <= kb, "geometric count fell as rate rose");
        }
        assert!(b.injected(FaultSite::BusDrop) > a.injected(FaultSite::BusDrop));
    }

    #[test]
    fn rates_are_roughly_honoured() {
        let plan = FaultPlan::default()
            .with_rate(FaultSite::ReadoutTimeout, 0.25)
            .with_seed(1);
        let mut inj = FaultInjector::new(plan);
        let n = 10_000;
        let mut hits = 0;
        for _ in 0..n {
            if inj.bernoulli(FaultSite::ReadoutTimeout) {
                hits += 1;
            }
        }
        let observed = hits as f64 / n as f64;
        assert!((observed - 0.25).abs() < 0.02, "observed {observed}");
        // Other sites untouched.
        assert_eq!(inj.checked(FaultSite::BusDrop), 0);
    }

    #[test]
    fn sites_have_independent_streams() {
        let plan = FaultPlan::all(0.5).with_seed(3);
        // Interleaving draws at other sites must not change this site's
        // sequence.
        let mut solo = FaultInjector::new(plan);
        let solo_seq: Vec<bool> = (0..100)
            .map(|_| solo.bernoulli(FaultSite::PguStall))
            .collect();
        let mut mixed = FaultInjector::new(plan);
        let mixed_seq: Vec<bool> = (0..100)
            .map(|_| {
                mixed.bernoulli(FaultSite::BusDrop);
                mixed.geometric_failures(FaultSite::QccBitFlip);
                mixed.bernoulli(FaultSite::PguStall)
            })
            .collect();
        assert_eq!(solo_seq, mixed_seq);
    }

    #[test]
    fn parse_round_trips_sites_and_knobs() {
        let plan = FaultPlan::parse(
            "bus_drop=0.01, readout_timeout=0.05\n# comment\nseed=77,max_attempts=6,backoff_ns=25",
        )
        .unwrap();
        assert_eq!(plan.rate(FaultSite::BusDrop), 0.01);
        assert_eq!(plan.rate(FaultSite::ReadoutTimeout), 0.05);
        assert_eq!(plan.rate(FaultSite::PguFail), 0.0);
        assert_eq!(plan.seed, 77);
        assert_eq!(plan.max_attempts, 6);
        assert_eq!(plan.backoff_ns, 25);

        let all = FaultPlan::parse("all=0.02").unwrap();
        for site in FaultSite::ALL {
            assert_eq!(all.rate(site), 0.02);
        }
        assert!(all.is_active());
    }

    #[test]
    fn parse_rejects_bad_specs_with_typed_errors() {
        assert_eq!(
            FaultPlan::parse("bus_drop"),
            Err(FaultSpecError::NotKeyValue {
                token: "bus_drop".into()
            })
        );
        assert_eq!(
            FaultPlan::parse("no_such_site=0.1"),
            Err(FaultSpecError::UnknownKey {
                token: "no_such_site".into()
            })
        );
        assert_eq!(
            FaultPlan::parse("bus_drop=1.5"),
            Err(FaultSpecError::RateOutOfRange {
                site: "bus_drop",
                rate: 1.5
            })
        );
        assert_eq!(
            FaultPlan::parse("bus_drop=-0.1"),
            Err(FaultSpecError::RateOutOfRange {
                site: "bus_drop",
                rate: -0.1
            })
        );
        assert_eq!(
            FaultPlan::parse("bus_drop=1.0"),
            Err(FaultSpecError::RateOutOfRange {
                site: "bus_drop",
                rate: 1.0
            })
        );
        assert_eq!(
            FaultPlan::parse("seed=abc"),
            Err(FaultSpecError::BadInt {
                key: "seed".into(),
                token: "abc".into()
            })
        );
        assert_eq!(
            FaultPlan::parse("bus_drop=zero"),
            Err(FaultSpecError::BadRate {
                key: "bus_drop".into(),
                token: "zero".into()
            })
        );
        // max_attempts is a u32: past u32::MAX it is an error, never a
        // value truncated to 0 or 1.
        for token in ["4294967296", "4294967297"] {
            assert_eq!(
                FaultPlan::parse(&format!("max_attempts={token}")),
                Err(FaultSpecError::BadInt {
                    key: "max_attempts".into(),
                    token: token.into()
                })
            );
        }
        assert_eq!(
            FaultPlan::parse("max_attempts=4294967295").map(|p| p.max_attempts),
            Ok(u32::MAX)
        );
    }

    #[test]
    fn parse_rejects_nan_rates() {
        // NaN parses as a valid f64, so it must be caught by the range
        // check — and the error must carry the site it was destined for.
        match FaultPlan::parse("readout_timeout=NaN") {
            Err(FaultSpecError::RateOutOfRange { site, rate }) => {
                assert_eq!(site, "readout_timeout");
                assert!(rate.is_nan());
            }
            other => panic!("expected RateOutOfRange, got {other:?}"),
        }
        assert!(matches!(
            FaultPlan::parse("all=nan"),
            Err(FaultSpecError::RateOutOfRange { .. })
        ));
    }

    #[test]
    fn parse_rejects_empty_specs() {
        assert_eq!(FaultPlan::parse(""), Err(FaultSpecError::Empty));
        assert_eq!(FaultPlan::parse("  , ,\n"), Err(FaultSpecError::Empty));
        assert_eq!(
            FaultPlan::parse("# just a comment\n"),
            Err(FaultSpecError::Empty)
        );
        // The offending token survives into the rendered message so CLI
        // users see which entry to fix.
        let msg = FaultPlan::parse("bus_drop = 0.1, oops")
            .unwrap_err()
            .to_string();
        assert!(msg.contains("oops"), "message must name the token: {msg}");
    }

    #[test]
    fn per_shot_injectors_are_order_independent() {
        let plan = FaultPlan::all(0.2).with_seed(0xFA17);
        let parent = FaultInjector::new(plan);
        // Shot 5's draws are identical whether derived before or after
        // shot 3's, and regardless of draws made in between.
        let mut early = parent.for_shot(5);
        let mut sibling = parent.for_shot(3);
        for _ in 0..50 {
            sibling.bernoulli(FaultSite::BusDrop);
        }
        let mut late = parent.for_shot(5);
        for _ in 0..50 {
            assert_eq!(
                early.bernoulli(FaultSite::QccBitFlip),
                late.bernoulli(FaultSite::QccBitFlip),
            );
        }
        // Distinct shots get distinct streams.
        let seq5: Vec<bool> = (0..64)
            .map(|_| early.bernoulli(FaultSite::BusDrop))
            .collect();
        let mut three = parent.for_shot(3);
        let seq3: Vec<bool> = (0..64)
            .map(|_| three.bernoulli(FaultSite::BusDrop))
            .collect();
        assert_ne!(seq5, seq3);
    }

    #[test]
    fn absorb_sums_counters_without_touching_streams() {
        let plan = FaultPlan::all(0.3).with_seed(11);
        let mut merged = FaultInjector::new(plan);
        let mut reference = FaultInjector::new(plan);
        let mut shard = FaultInjector::new(plan.with_seed(99));
        for _ in 0..100 {
            shard.bernoulli(FaultSite::BusDrop);
            shard.geometric_failures(FaultSite::ReadoutTimeout);
        }
        merged.absorb(&shard);
        assert_eq!(merged.checked(FaultSite::BusDrop), 100);
        assert_eq!(
            merged.injected(FaultSite::BusDrop),
            shard.injected(FaultSite::BusDrop)
        );
        assert_eq!(merged.injected_total(), shard.injected_total());
        // The absorbing injector's own streams are unperturbed.
        for _ in 0..50 {
            assert_eq!(
                merged.bernoulli(FaultSite::PguStall),
                reference.bernoulli(FaultSite::PguStall),
            );
        }
    }

    #[test]
    fn backoff_doubles_and_saturates() {
        let plan = FaultPlan::default();
        assert_eq!(plan.backoff(1), SimDuration::from_ns(50));
        assert_eq!(plan.backoff(2), SimDuration::from_ns(100));
        assert_eq!(plan.backoff(3), SimDuration::from_ns(200));
        assert!(plan.backoff(100) > SimDuration::ZERO);
    }
}
