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

/// A set-associative cache with LRU replacement and write-back policy.
///
/// This is a *timing/occupancy* model — it tracks which lines are present,
/// not their data (data lives in the functional models). The lines' tags
/// and dirty bits live in one `n_sets × ways` array each, allocated at
/// construction: set `s` owns slots `s * ways ..`, holds its `fill[s]`
/// valid lines first, and keeps them in recency order, most recently used
/// first, so the victim of a full set is its last line and no use stamps
/// are stored. The power-of-two geometry turns the set index and tag into
/// a mask and a shift.
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
    /// Each slot's line tag.
    tags: Vec<u64>,
    /// Whether each slot's line was written since it was filled.
    dirty: Vec<bool>,
    /// Valid lines per set.
    fill: Vec<u32>,
    ways: usize,
    /// `log2(line_bytes)`: byte address → line address.
    line_shift: u32,
    /// `n_sets - 1`: line address → set index.
    set_mask: u64,
    /// `log2(n_sets)`: line address → tag.
    tag_shift: u32,
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
        let ways = config.ways as usize;
        let slots = n_sets as usize * ways;
        Ok(Cache {
            tags: vec![0; slots],
            dirty: vec![false; slots],
            fill: vec![0; n_sets as usize],
            ways,
            line_shift: config.line_bytes.trailing_zeros(),
            set_mask: n_sets - 1,
            tag_shift: n_sets.trailing_zeros(),
            hits: 0,
            misses: 0,
            writebacks: 0,
        })
    }

    /// Performs one access at byte address `addr`, allocating on miss.
    pub fn access(&mut self, addr: u64, write: bool) -> AccessOutcome {
        let line_addr = addr >> self.line_shift;
        let set = (line_addr & self.set_mask) as usize;
        let tag = line_addr >> self.tag_shift;
        let fill = self.fill[set] as usize;
        let tags = &mut self.tags[set * self.ways..][..self.ways];
        let dirty = &mut self.dirty[set * self.ways..][..self.ways];

        if let Some(i) = tags[..fill].iter().position(|&t| t == tag) {
            // Now the most recently used: move it to the front.
            tags[..=i].rotate_right(1);
            dirty[..=i].rotate_right(1);
            dirty[0] |= write;
            self.hits += 1;
            return AccessOutcome {
                hit: true,
                writeback: false,
            };
        }

        self.misses += 1;
        // A full set evicts its last, least recently used line; otherwise
        // the first free slot takes the shift.
        let full = fill == self.ways;
        let writeback = full && dirty[fill - 1];
        let last = if full { fill - 1 } else { fill };
        tags[..=last].rotate_right(1);
        dirty[..=last].rotate_right(1);
        tags[0] = tag;
        dirty[0] = write;
        if writeback {
            self.writebacks += 1;
        }
        if !full {
            self.fill[set] += 1;
        }
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
        self.fill.fill(0);
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

    #[derive(Clone, Copy)]
    struct Line {
        tag: u64,
        dirty: bool,
        /// Monotonic use stamp for LRU.
        last_use: u64,
    }

    /// The `Vec`-per-set LRU the flat layout replaced: sets grow on first
    /// touch, victims are found by the smallest use stamp and leave by
    /// `swap_remove`, and the set index and tag come from a division by
    /// the set count.
    struct ReferenceCache {
        config: CacheConfig,
        sets: Vec<Vec<Line>>,
        clock: u64,
        hits: u64,
        misses: u64,
        writebacks: u64,
    }

    impl ReferenceCache {
        fn new(config: CacheConfig) -> Self {
            ReferenceCache {
                config,
                sets: vec![Vec::new(); config.n_sets() as usize],
                clock: 0,
                hits: 0,
                misses: 0,
                writebacks: 0,
            }
        }

        fn access(&mut self, addr: u64, write: bool) -> AccessOutcome {
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
                if set.swap_remove(victim).dirty {
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

        fn reset(&mut self) {
            self.sets.iter_mut().for_each(Vec::clear);
            self.clock = 0;
            self.hits = 0;
            self.misses = 0;
            self.writebacks = 0;
        }
    }

    #[test]
    fn flat_layout_matches_the_vec_per_set_reference() {
        use qtenon_sim_engine::rng::splitmix64;
        for config in [CacheConfig::l1_16k(), CacheConfig::l2_512k()] {
            let mut flat = Cache::new(config).unwrap();
            let mut reference = ReferenceCache::new(config);
            // A working set of twice the capacity, so every set fills,
            // evicts clean and dirty lines, and rehits survivors.
            let span = 2 * config.size_bytes;
            let mut state = 0xcac4e ^ config.size_bytes;
            for step in 0..200_000u64 {
                let r = splitmix64(&mut state);
                let addr = match r % 4 {
                    // Streaming runs like the q_set/q_acquire buffers.
                    0 => (step * u64::from(config.line_bytes)) % span,
                    // A hot region that mostly hits.
                    1 => (r >> 8) % (config.size_bytes / 8),
                    // Anywhere, including far above the working set.
                    2 => r >> 20,
                    _ => (r >> 8) % span,
                };
                let write = (r >> 3).is_multiple_of(3);
                assert_eq!(
                    flat.access(addr, write),
                    reference.access(addr, write),
                    "{config:?}: step {step}, address {addr:#x}"
                );
                if step == 150_000 {
                    flat.reset();
                    reference.reset();
                }
            }
            assert_eq!(
                (flat.hits(), flat.misses(), flat.writebacks()),
                (reference.hits, reference.misses, reference.writebacks),
                "{config:?}"
            );
            assert!(flat.hits() > 0 && flat.misses() > 0 && flat.writebacks() > 0);
        }
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
