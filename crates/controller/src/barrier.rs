//! The soft memory barrier (Sections 5.2 and 6.2).
//!
//! Fine-grained synchronisation replaces FENCE: the controller tracks
//! which host addresses its PUT requests have already reached the system
//! bus for, and the CPU queries that state through the RoCC interface in a
//! single non-blocking cycle before touching a synchronised address.

use std::collections::BTreeMap;

use qtenon_sim_engine::{MetricsRegistry, SimTime};

/// The memory barrier: an interval map from host-address ranges to the
/// simulation time their write requests were issued on the bus.
///
/// # Examples
///
/// ```
/// use qtenon_controller::MemoryBarrier;
/// use qtenon_sim_engine::{SimDuration, SimTime};
///
/// let mut barrier = MemoryBarrier::new();
/// let t = SimTime::ZERO + SimDuration::from_ns(40);
/// barrier.mark_synced(0x1000, 64, t);
/// assert!(barrier.is_synced(0x1020));
/// assert!(!barrier.is_synced(0x2000));
/// ```
#[derive(Debug, Clone, Default)]
pub struct MemoryBarrier {
    /// start → (end, time synced). Ranges are kept non-overlapping.
    ranges: BTreeMap<u64, (u64, SimTime)>,
    queries: u64,
}

impl MemoryBarrier {
    /// Creates an empty barrier (nothing synchronised).
    pub fn new() -> Self {
        MemoryBarrier::default()
    }

    /// Records that the write covering `[addr, addr + bytes)` was issued
    /// on the system bus at time `when`.
    pub fn mark_synced(&mut self, addr: u64, bytes: u64, when: SimTime) {
        if bytes == 0 {
            return;
        }
        let (lo, hi) = (addr, addr + bytes);
        let (mut start, mut end, mut when) = (lo, hi, when);
        // Merge with any overlapping or adjacent existing ranges,
        // keeping the *latest* sync time for the merged region. Ranges
        // never touch, so they are sorted by end as well as by start:
        // walk down from the last one starting at or before `hi` until
        // one ends before `lo`.
        while let Some((&s, &(e, t))) = self.ranges.range(..=hi).next_back() {
            if e < lo {
                break;
            }
            self.ranges.remove(&s);
            start = start.min(s);
            end = end.max(e);
            when = when.max(t);
        }
        self.ranges.insert(start, (end, when));
    }

    /// Non-blocking query: the time `addr` became synchronised, or `None`
    /// if its write has not yet been issued. Costs one host cycle via the
    /// RoCC interface.
    pub(crate) fn synced_at(&mut self, addr: u64) -> Option<SimTime> {
        self.queries += 1;
        self.ranges
            .range(..=addr)
            .next_back()
            .filter(|(_, &(end, _))| addr < end)
            .map(|(_, &(_, t))| t)
    }

    /// Whether `addr` is synchronised (ignoring when).
    pub fn is_synced(&mut self, addr: u64) -> bool {
        self.synced_at(addr).is_some()
    }

    /// Registers barrier statistics under `prefix`
    /// (e.g. `controller.barrier`).
    pub fn export_metrics(&self, m: &mut MetricsRegistry, prefix: &str) {
        m.counter(&format!("{prefix}.queries"), self.queries);
        m.gauge(&format!("{prefix}.ranges"), self.ranges.len() as f64);
    }

    /// Clears all synchronisation state (new iteration/region reuse).
    pub fn reset(&mut self) {
        self.ranges.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qtenon_sim_engine::SimDuration;

    impl MemoryBarrier {
        /// Number of barrier queries performed (each costs one cycle).
        fn queries(&self) -> u64 {
            self.queries
        }
    }

    fn at(ns: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_ns(ns)
    }

    #[test]
    fn unsynced_by_default() {
        let mut b = MemoryBarrier::new();
        assert!(!b.is_synced(0));
        assert_eq!(b.queries(), 1);
    }

    #[test]
    fn range_boundaries_half_open() {
        let mut b = MemoryBarrier::new();
        b.mark_synced(0x100, 0x40, at(5));
        assert!(!b.is_synced(0xff));
        assert!(b.is_synced(0x100));
        assert!(b.is_synced(0x13f));
        assert!(!b.is_synced(0x140));
    }

    #[test]
    fn merges_adjacent_ranges() {
        let mut b = MemoryBarrier::new();
        b.mark_synced(0x0, 0x20, at(1));
        b.mark_synced(0x20, 0x20, at(2));
        assert_eq!(b.synced_at(0x10), Some(at(2))); // merged, latest time
        assert_eq!(b.synced_at(0x3f), Some(at(2)));
    }

    #[test]
    fn overlapping_ranges_keep_latest_time() {
        let mut b = MemoryBarrier::new();
        b.mark_synced(0x0, 0x100, at(10));
        b.mark_synced(0x80, 0x100, at(3));
        // Overlap merged; the merged region reports the later of the two
        // issue times (conservative for consumers).
        assert_eq!(b.synced_at(0x0), Some(at(10)));
        assert_eq!(b.synced_at(0x170), Some(at(10)));
    }

    #[test]
    fn zero_length_is_noop() {
        let mut b = MemoryBarrier::new();
        b.mark_synced(0x100, 0, at(1));
        assert!(!b.is_synced(0x100));
    }

    #[test]
    fn reset_clears() {
        let mut b = MemoryBarrier::new();
        b.mark_synced(0, 64, at(1));
        b.reset();
        assert!(!b.is_synced(0));
    }

    #[test]
    fn many_disjoint_ranges() {
        let mut b = MemoryBarrier::new();
        for i in 0..100u64 {
            b.mark_synced(i * 128, 64, at(i));
        }
        assert_eq!(b.synced_at(50 * 128 + 10), Some(at(50)));
        assert!(!b.is_synced(50 * 128 + 64));
    }
}
