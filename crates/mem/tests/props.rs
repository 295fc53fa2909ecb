//! Property-based tests for the memory models.

use qtenon_prop::check;

use qtenon_isa::{EncodedAngle, GateType, ProgramEntry, QccLayout, QubitId};
use qtenon_mem::qcc::{AccessPort, QuantumControllerCache};
use qtenon_mem::{Cache, CacheConfig, HierarchyConfig, MemoryHierarchy, QSpace};

#[test]
fn cache_never_exceeds_capacity_and_repeats_hit() {
    check("cache_never_exceeds_capacity_and_repeats_hit", 256, |g| {
        let addrs = g.vec(1..200, |g| g.draw(0u64..4096));
        let config = CacheConfig {
            size_bytes: 512,
            ways: 2,
            line_bytes: 64,
            hit_latency_cycles: 1,
        };
        let mut cache = Cache::new(config).unwrap();
        for &a in &addrs {
            cache.access(a, false);
        }
        // Immediately repeating the most recent access always hits.
        let last = *addrs.last().unwrap();
        assert!(cache.access(last, false).hit);
        // Accounting: accesses = hits + misses.
        assert_eq!(cache.hits() + cache.misses(), addrs.len() as u64 + 1);
    });
}

#[test]
fn working_set_within_capacity_always_hits_after_warmup() {
    check(
        "working_set_within_capacity_always_hits_after_warmup",
        256,
        |g| {
            let base = g.draw(0u64..10_000);
            // 8 lines in a 2-way × 8-set cache (16-line capacity): after one
            // warm pass, every access hits forever.
            let config = CacheConfig {
                size_bytes: 1024,
                ways: 2,
                line_bytes: 64,
                hit_latency_cycles: 1,
            };
            let mut cache = Cache::new(config).unwrap();
            let lines: Vec<u64> = (0..8).map(|i| base + i * 64).collect();
            for &l in &lines {
                cache.access(l, false);
            }
            for _ in 0..3 {
                for &l in &lines {
                    assert!(cache.access(l, false).hit);
                }
            }
        },
    );
}

#[test]
fn hierarchy_latency_is_monotone_in_depth() {
    check("hierarchy_latency_is_monotone_in_depth", 256, |g| {
        let addr = g.draw(0u64..1_000_000);
        let mut mem = MemoryHierarchy::new(HierarchyConfig::default()).unwrap();
        let cold = mem.access(addr, false);
        let warm = mem.access(addr, false);
        assert!(warm < cold);
        // Re-access is an L1 hit: exactly the L1 latency.
        assert_eq!(warm, qtenon_sim_engine::SimDuration::from_ns(2));
    });
}

#[test]
fn qcc_program_roundtrip_random_entries() {
    check("qcc_program_roundtrip_random_entries", 256, |g| {
        let qubit = g.draw(0u32..8);
        let entry_idx = g.draw(0u64..1024);
        let code = g.draw(0u32..(1 << 27));
        let layout = QccLayout::for_qubits(8).unwrap();
        let mut qcc = QuantumControllerCache::new(layout);
        let addr = layout
            .program_entry(QubitId::new(qubit), entry_idx)
            .unwrap();
        // Every qubit's chunk accepts a host write at every slot.
        qcc.write_program(AccessPort::HostPublic, addr).unwrap();
        // Pack/unpack through the 65-bit format is lossless.
        let entry = ProgramEntry::rotation(GateType::Rz, EncodedAngle::from_code(code));
        assert_eq!(ProgramEntry::unpack(entry.pack()).unwrap(), entry);
    });
}

#[test]
fn qspace_is_a_faithful_map() {
    check("qspace_is_a_faithful_map", 256, |g| {
        let ops = g.vec(0..100, |g| {
            (g.draw(0u32..4), g.draw(0u32..1024), g.draw(0u64..(1 << 20)))
        });
        let mut qs = QSpace::new(4);
        let mut model = std::collections::HashMap::new();
        for (qubit, tag, addr) in ops {
            let qaddr = qtenon_isa::QAddress::new(addr).unwrap();
            qs.store(qubit, tag, qaddr);
            model.insert((qubit, tag), qaddr);
        }
        for ((qubit, tag), expected) in model {
            assert_eq!(qs.lookup(qubit, tag).unwrap().qaddr, expected);
        }
    });
}
