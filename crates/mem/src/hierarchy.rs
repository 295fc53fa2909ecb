//! L1 → L2 → DRAM latency composition.

use qtenon_sim_engine::{ClockDomain, MetricsRegistry, SimDuration};

use crate::cache::{Cache, CacheConfig};
use crate::MemError;

/// Configuration of the host memory hierarchy (Table 4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HierarchyConfig {
    /// L1 data cache geometry.
    pub l1: CacheConfig,
    /// L2 cache geometry.
    pub l2: CacheConfig,
    /// DRAM access latency.
    pub dram_latency: SimDuration,
    /// Clock domain whose cycles the cache latencies are counted in.
    pub clock: ClockDomain,
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        HierarchyConfig {
            l1: CacheConfig::l1_16k(),
            l2: CacheConfig::l2_512k(),
            // DDR3 class access latency.
            dram_latency: SimDuration::from_ns(80),
            clock: ClockDomain::from_ghz(1.0),
        }
    }
}

/// The host's L1/L2/DRAM hierarchy as a latency model.
///
/// # Examples
///
/// ```
/// use qtenon_mem::{HierarchyConfig, MemoryHierarchy};
///
/// let mut mem = MemoryHierarchy::new(HierarchyConfig::default())?;
/// let cold = mem.access(0x1000, false);
/// let warm = mem.access(0x1000, false);
/// assert!(warm < cold);
/// # Ok::<(), qtenon_mem::MemError>(())
/// ```
#[derive(Debug, Clone)]
pub struct MemoryHierarchy {
    config: HierarchyConfig,
    l1: Cache,
    l2: Cache,
    dram_accesses: u64,
}

impl MemoryHierarchy {
    /// Creates an empty hierarchy.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::BadConfig`] for invalid cache geometry.
    pub fn new(config: HierarchyConfig) -> Result<Self, MemError> {
        Ok(MemoryHierarchy {
            config,
            l1: Cache::new(config.l1)?,
            l2: Cache::new(config.l2)?,
            dram_accesses: 0,
        })
    }

    /// Performs one access and returns its latency.
    pub fn access(&mut self, addr: u64, write: bool) -> SimDuration {
        let clk = self.config.clock;
        let mut latency = clk.cycles(self.config.l1.hit_latency_cycles);
        if self.l1.access(addr, write).hit {
            return latency;
        }
        latency += clk.cycles(self.config.l2.hit_latency_cycles);
        if self.l2.access(addr, write).hit {
            return latency;
        }
        self.dram_accesses += 1;
        latency + self.config.dram_latency
    }

    /// Latency to read `bytes` starting at `addr`, touching each cache
    /// line once (the streaming pattern of `q_set`/`q_acquire` buffers).
    pub fn access_range(&mut self, addr: u64, bytes: u64, write: bool) -> SimDuration {
        let line = self.config.l1.line_bytes as u64;
        let first = addr / line;
        let last = (addr + bytes.max(1) - 1) / line;
        (first..=last).map(|l| self.access(l * line, write)).sum()
    }

    /// Registers the hierarchy's statistics under `prefix` (e.g. `mem`),
    /// yielding `mem.l1.*`, `mem.l2.*`, and `mem.dram.accesses`.
    pub fn export_metrics(&self, m: &mut MetricsRegistry, prefix: &str) {
        self.l1.export_metrics(m, &format!("{prefix}.l1"));
        self.l2.export_metrics(m, &format!("{prefix}.l2"));
        m.counter(&format!("{prefix}.dram.accesses"), self.dram_accesses);
    }

    /// Forgets all cached state and statistics.
    pub fn reset(&mut self) {
        self.l1.reset();
        self.l2.reset();
        self.dram_accesses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl MemoryHierarchy {
        /// Number of DRAM accesses so far.
        fn dram_accesses(&self) -> u64 {
            self.dram_accesses
        }
    }

    fn mem() -> MemoryHierarchy {
        MemoryHierarchy::new(HierarchyConfig::default()).unwrap()
    }

    #[test]
    fn latency_ordering_l1_l2_dram() {
        let mut m = mem();
        let cold = m.access(0, false); // L1 miss, L2 miss, DRAM
        let l1_hit = m.access(0, false);
        assert_eq!(l1_hit, SimDuration::from_ns(2));
        assert_eq!(cold, SimDuration::from_ns(2 + 20 + 80));
        assert_eq!(m.dram_accesses(), 1);
    }

    #[test]
    fn l2_hit_after_l1_eviction() {
        let mut m = mem();
        m.access(0, false);
        // Blow L1 (16 KB) with a 32 KB sweep; L2 (512 KB) keeps everything.
        for a in (0..32 * 1024u64).step_by(64) {
            m.access(0x10_0000 + a, false);
        }
        let lat = m.access(0, false);
        assert_eq!(lat, SimDuration::from_ns(22)); // L1 miss + L2 hit
    }

    #[test]
    fn range_access_touches_each_line_once() {
        let mut m = mem();
        let lat = m.access_range(0, 256, false); // 4 lines, all cold
        assert_eq!(lat, SimDuration::from_ns(4 * 102));
        let lat2 = m.access_range(0, 256, false); // all L1 hits
        assert_eq!(lat2, SimDuration::from_ns(4 * 2));
    }

    #[test]
    fn range_of_zero_bytes_touches_one_line() {
        let mut m = mem();
        assert_eq!(m.access_range(64, 0, false), SimDuration::from_ns(102));
    }

    #[test]
    fn unaligned_range_spans_extra_line() {
        let mut m = mem();
        // 64 bytes starting at offset 32 touch two lines.
        assert_eq!(m.access_range(32, 64, false), SimDuration::from_ns(2 * 102));
    }

    #[test]
    fn reset_clears_state() {
        let mut m = mem();
        m.access(0, false);
        m.reset();
        assert_eq!(m.dram_accesses(), 0);
        // Cold again.
        assert_eq!(m.access(0, false), SimDuration::from_ns(102));
    }
}
