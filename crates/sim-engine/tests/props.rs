//! Property-based tests for the simulation kernel's data structures.

use qtenon_prop::check;

use qtenon_sim_engine::{ClockDomain, Histogram, OpClass, OpCounter, SimDuration};

#[test]
fn duration_arithmetic_is_consistent() {
    check("duration_arithmetic_is_consistent", 256, |g| {
        let a = g.draw(0u64..u32::MAX as u64);
        let b = g.draw(0u64..u32::MAX as u64);
        let da = SimDuration::from_ps(a);
        let db = SimDuration::from_ps(b);
        assert_eq!((da + db).as_ps(), a + b);
        assert_eq!(da.saturating_sub(db).as_ps(), a.saturating_sub(b));
        assert_eq!(da.max(db).as_ps(), a.max(b));
        assert_eq!(da.min(db).as_ps(), a.min(b));
    });
}

#[test]
fn clock_cycles_round_trip() {
    check("clock_cycles_round_trip", 256, |g| {
        let freq_mhz = g.draw(1.0f64..4_000.0);
        let cycles = g.draw(1u64..1_000_000);
        let clock = ClockDomain::from_mhz(freq_mhz);
        let d = clock.cycles(cycles);
        // cycles_in rounds up, so the round trip is exact on multiples.
        assert_eq!(clock.cycles_in(d), cycles);
        // One picosecond more needs one more cycle.
        assert_eq!(clock.cycles_in(d + SimDuration::from_ps(1)), cycles + 1);
    });
}

#[test]
fn op_counter_addition_is_commutative() {
    check("op_counter_addition_is_commutative", 256, |g| {
        let a = g.vec(5, |g| g.draw(0u64..1_000));
        let b = g.vec(5, |g| g.draw(0u64..1_000));
        let mut ca = OpCounter::new();
        let mut cb = OpCounter::new();
        for (i, class) in OpClass::ALL.iter().enumerate() {
            ca.record(*class, a[i]);
            cb.record(*class, b[i]);
        }
        assert_eq!(ca + cb, cb + ca);
        assert_eq!((ca + cb).total(), ca.total() + cb.total());
        assert_eq!(ca.scaled(3).total(), 3 * ca.total());
    });
}

#[test]
fn histogram_count_equals_bucket_sum() {
    check("histogram_count_equals_bucket_sum", 256, |g| {
        let samples = g.vec(0..200, |g| g.draw(0u64..u64::MAX));
        let mut h = Histogram::new();
        for &s in &samples {
            h.record(s);
        }
        assert_eq!(h.count() as usize, samples.len());
        assert_eq!(h.buckets().iter().sum::<u64>(), h.count());
    });
}

#[test]
fn histogram_percentiles_are_monotone() {
    check("histogram_percentiles_are_monotone", 256, |g| {
        let samples = g.vec(1..200, |g| g.draw(0u64..1_000_000_000));
        let mut h = Histogram::new();
        for &s in &samples {
            h.record(s);
        }
        let p50 = h.p50().unwrap();
        let p90 = h.p90().unwrap();
        let p99 = h.p99().unwrap();
        let max = h.max().unwrap();
        assert!(p50 <= p90, "p50={p50} p90={p90}");
        assert!(p90 <= p99, "p90={p90} p99={p99}");
        assert!(p99 <= max, "p99={p99} max={max}");
        assert!(h.min().unwrap() <= p50);
    });
}

#[test]
fn histogram_merge_equals_union() {
    check("histogram_merge_equals_union", 256, |g| {
        let a = g.vec(0..100, |g| g.draw(0u64..u64::MAX));
        let b = g.vec(0..100, |g| g.draw(0u64..u64::MAX));
        let mut ha = Histogram::new();
        let mut hb = Histogram::new();
        let mut union = Histogram::new();
        for &s in &a {
            ha.record(s);
            union.record(s);
        }
        for &s in &b {
            hb.record(s);
            union.record(s);
        }
        ha.merge(&hb);
        // Merging equals recording the union, bucket for bucket.
        assert_eq!(ha, union);
    });
}
