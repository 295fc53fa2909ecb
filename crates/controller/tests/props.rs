//! Property-based tests for the controller's hardware structures.

use qtenon_prop::check;

use qtenon_controller::pgu::{PguConfig, PguPool};
use qtenon_controller::{ReorderBufferQueue, SltController};
use qtenon_isa::{GateType, QccLayout, QubitId};
use qtenon_sim_engine::{FaultInjector, FaultPlan, MetricValue, MetricsRegistry, SimTime};

#[test]
fn rbq_realigns_any_completion_order() {
    check("rbq_realigns_any_completion_order", 256, |g| {
        let order = g.vec(16, |g| g.draw(0usize..16));
        // Build a permutation from the raw vector (stable dedup).
        let mut perm: Vec<usize> = (0..16).collect();
        for (i, &o) in order.iter().enumerate() {
            perm.swap(i, o % 16);
        }
        let mut rbq = ReorderBufferQueue::new();
        let tags: Vec<_> = (0..16).map(|_| rbq.issue().unwrap()).collect();
        for &i in &perm {
            rbq.complete(tags[i]).unwrap();
        }
        for &expected in &tags {
            assert_eq!(rbq.pop_in_order(), Some(expected));
        }
    });
}

#[test]
fn pgu_pool_never_overlaps_a_unit() {
    check("pgu_pool_never_overlaps_a_unit", 256, |g| {
        let jobs = g.draw(1usize..64);
        let units = g.draw(1usize..12);
        let mut pool = PguPool::new(PguConfig {
            units,
            ..PguConfig::default()
        })
        .unwrap();
        let mut no_faults = FaultInjector::new(FaultPlan::default());
        let mut per_unit: Vec<Vec<(SimTime, SimTime)>> = vec![Vec::new(); units];
        for _ in 0..jobs {
            let d = pool.dispatch(SimTime::ZERO, &mut no_faults).unwrap();
            per_unit[d.unit].push((d.start, d.done));
        }
        for intervals in &per_unit {
            for w in intervals.windows(2) {
                assert!(w[0].1 <= w[1].0, "unit double-booked");
            }
        }
        // Every dispatch records one wait sample.
        let mut m = MetricsRegistry::new();
        pool.export_metrics(&mut m, "pgu");
        match m.get("pgu.wait_ns") {
            Some(MetricValue::Histogram(h)) => assert_eq!(h.count(), jobs as u64),
            other => panic!("pgu.wait_ns is {other:?}"),
        }
    });
}

#[test]
fn slt_same_key_same_address_forever() {
    check("slt_same_key_same_address_forever", 256, |g| {
        let codes = g.vec(1..64, |g| g.draw(0u32..(1 << 27)));
        let layout = QccLayout::for_qubits(4).unwrap();
        let mut slt = SltController::new(layout).unwrap();
        let mut no_faults = FaultInjector::new(FaultPlan::default());
        let mut book = std::collections::HashMap::new();
        for &code in &codes {
            let r = slt
                .resolve(QubitId::new(0), GateType::Rx, code, &mut no_faults)
                .unwrap();
            // Key = the tag the hardware uses (top 20 bits of the code).
            let key = code >> 7;
            let addr = r.qaddr();
            if let Some(&prev) = book.get(&key) {
                assert_eq!(addr, prev, "tag {key:x} moved");
            } else {
                book.insert(key, addr);
            }
        }
        // Accounting identity.
        let s = slt.stats();
        assert_eq!(s.lookups, codes.len() as u64);
        assert_eq!(s.hits + s.qspace_hits + s.allocations, s.lookups);
    });
}
