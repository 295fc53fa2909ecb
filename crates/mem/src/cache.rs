//! Set-associative cache timing model with LRU replacement.

use qtenon_sim_engine::MetricsRegistry;

use crate::MemError;

/// Geometry and latency of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity.
    pub ways: u32,
    /// Line size in bytes.
    pub line_bytes: u32,
    /// Hit latency in cycles of the owning clock domain.
    pub hit_latency_cycles: u64,
}

impl CacheConfig {
    /// The paper's L1: 16 KB, 4-way (Table 4), 64 B lines, 2-cycle hits.
    pub(crate) fn l1_16k() -> Self {
        CacheConfig {
            size_bytes: 16 * 1024,
            ways: 4,
            line_bytes: 64,
            hit_latency_cycles: 2,
        }
    }

    /// The paper's L2: 512 KB, 4-way, 8 banks (Table 4); 20-cycle hits.
    pub(crate) fn l2_512k() -> Self {
        CacheConfig {
            size_bytes: 512 * 1024,
            ways: 4,
            line_bytes: 64,
            hit_latency_cycles: 20,
        }
    }

    /// Number of sets implied by the geometry.
    pub(crate) fn n_sets(&self) -> u64 {
        self.size_bytes / (self.ways as u64 * self.line_bytes as u64)
    }
}

/// Result of one cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Whether the line was present.
    pub hit: bool,
    /// Whether a dirty line was evicted to make room.
    pub writeback: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Line {
    tag: u64,
    dirty: bool,
    /// Monotonic use stamp for LRU.
    last_use: u64,
}

/// A set-associative cache with LRU replacement and write-back policy.
///
/// This is a *timing/occupancy* model — it tracks which lines are present,
/// not their data (data lives in the functional models).
///
/// # Examples
///
/// ```
/// use qtenon_mem::{Cache, HierarchyConfig};
///
/// let mut l1 = Cache::new(HierarchyConfig::default().l1)?;
/// assert!(!l1.access(0x1000, false).hit); // cold miss
/// assert!(l1.access(0x1000, false).hit);  // now resident
/// # Ok::<(), qtenon_mem::MemError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    sets: Vec<Vec<Line>>,
    clock: u64,
    hits: u64,
    misses: u64,
    writebacks: u64,
}

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::BadConfig`] for non-power-of-two or zero
    /// geometry.
    pub fn new(config: CacheConfig) -> Result<Self, MemError> {
        let bad = |message: String| MemError::BadConfig { message };
        if config.line_bytes == 0 || !config.line_bytes.is_power_of_two() {
            return Err(bad(format!(
                "line size {} must be a power of two",
                config.line_bytes
            )));
        }
        if config.ways == 0 {
            return Err(bad("associativity must be non-zero".into()));
        }
        let n_sets = config.n_sets();
        if n_sets == 0 || !n_sets.is_power_of_two() {
            return Err(bad(format!("set count {n_sets} must be a power of two")));
        }
        Ok(Cache {
            config,
            sets: vec![Vec::new(); n_sets as usize],
            clock: 0,
            hits: 0,
            misses: 0,
            writebacks: 0,
        })
    }

    /// Performs one access at byte address `addr`, allocating on miss.
    pub fn access(&mut self, addr: u64, write: bool) -> AccessOutcome {
        self.clock += 1;
        let line_addr = addr / self.config.line_bytes as u64;
        let set_idx = (line_addr % self.config.n_sets()) as usize;
        let tag = line_addr / self.config.n_sets();
        let set = &mut self.sets[set_idx];

        if let Some(line) = set.iter_mut().find(|l| l.tag == tag) {
            line.last_use = self.clock;
            line.dirty |= write;
            self.hits += 1;
            return AccessOutcome {
                hit: true,
                writeback: false,
            };
        }

        self.misses += 1;
        let mut writeback = false;
        if set.len() as u32 >= self.config.ways {
            let victim = set
                .iter()
                .enumerate()
                .min_by_key(|(_, l)| l.last_use)
                .map(|(i, _)| i)
                .expect("non-empty set");
            let evicted = set.swap_remove(victim);
            if evicted.dirty {
                writeback = true;
                self.writebacks += 1;
            }
        }
        set.push(Line {
            tag,
            dirty: write,
            last_use: self.clock,
        });
        AccessOutcome {
            hit: false,
            writeback,
        }
    }

    /// Number of hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Number of misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Number of dirty evictions so far.
    pub(crate) fn writebacks(&self) -> u64 {
        self.writebacks
    }

    /// Hit rate over all accesses (0 if none).
    pub(crate) fn hit_rate(&self) -> f64 {
        let total = self.hits() + self.misses();
        if total == 0 {
            0.0
        } else {
            self.hits() as f64 / total as f64
        }
    }

    /// Registers this cache's statistics under `prefix` (e.g. `mem.l1`).
    pub(crate) fn export_metrics(&self, m: &mut MetricsRegistry, prefix: &str) {
        m.counter(&format!("{prefix}.hits"), self.hits());
        m.counter(&format!("{prefix}.misses"), self.misses());
        m.counter(&format!("{prefix}.writebacks"), self.writebacks());
        m.gauge(&format!("{prefix}.hit_rate"), self.hit_rate());
    }

    /// Forgets all cached lines and statistics.
    pub(crate) fn reset(&mut self) {
        for set in &mut self.sets {
            set.clear();
        }
        self.clock = 0;
        self.hits = 0;
        self.misses = 0;
        self.writebacks = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 2 sets × 2 ways × 64 B lines = 256 B.
        Cache::new(CacheConfig {
            size_bytes: 256,
            ways: 2,
            line_bytes: 64,
            hit_latency_cycles: 1,
        })
        .unwrap()
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(0, false).hit);
        assert!(c.access(0, false).hit);
        assert!(c.access(63, false).hit); // same line
        assert!(!c.access(64, false).hit); // next line
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 2);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Three lines mapping to set 0 (stride = 2 sets × 64 B = 128 B).
        c.access(0, false);
        c.access(128, false);
        c.access(0, false); // refresh line 0
        c.access(256, false); // evicts line at 128
        assert!(c.access(0, false).hit);
        assert!(!c.access(128, false).hit);
    }

    #[test]
    fn dirty_eviction_counts_writeback() {
        let mut c = tiny();
        c.access(0, true); // dirty
        c.access(128, false);
        let out = c.access(256, false); // set full: evicts LRU = line 0 (dirty)
        assert!(out.writeback);
        assert_eq!(c.writebacks(), 1);
    }

    #[test]
    fn clean_eviction_has_no_writeback() {
        let mut c = tiny();
        c.access(0, false);
        c.access(128, false);
        let out = c.access(256, false);
        assert!(!out.writeback);
    }

    #[test]
    fn hit_rate_and_reset() {
        let mut c = tiny();
        assert_eq!(c.hit_rate(), 0.0);
        c.access(0, false);
        c.access(0, false);
        assert!((c.hit_rate() - 0.5).abs() < 1e-12);
        c.reset();
        assert_eq!(c.hits() + c.misses(), 0);
        assert!(!c.access(0, false).hit);
    }

    #[test]
    fn paper_geometries_are_valid() {
        assert!(Cache::new(CacheConfig::l1_16k()).is_ok());
        assert!(Cache::new(CacheConfig::l2_512k()).is_ok());
        assert_eq!(CacheConfig::l1_16k().n_sets(), 64);
    }

    #[test]
    fn bad_geometry_rejected() {
        assert!(Cache::new(CacheConfig {
            size_bytes: 100,
            ways: 3,
            line_bytes: 60,
            hit_latency_cycles: 1
        })
        .is_err());
        assert!(Cache::new(CacheConfig {
            size_bytes: 256,
            ways: 0,
            line_bytes: 64,
            hit_latency_cycles: 1
        })
        .is_err());
    }
}
