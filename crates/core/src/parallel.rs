//! Shot-shard planning and scoped fan-out for the parallel execution
//! engine.
//!
//! A run of `shots` measurement shots is cut into contiguous
//! [`Shard`]s, one per worker thread. Because every shot owns an RNG
//! stream derived purely from `(seed, global shot index)` (see
//! [`qtenon_sim_engine::rng::stream_seed`]), a worker needs nothing from
//! its neighbours: shard results concatenated in canonical shard order
//! are bitwise identical to the serial run, at any thread count. The
//! merge rules live with the data being merged — counters sum and
//! histograms bucket-merge — and DESIGN.md §"Parallel execution model"
//! spells out why the order must stay canonical.
//!
//! # Examples
//!
//! ```
//! use qtenon_core::parallel::{run_sharded, ShardPlan};
//!
//! let plan = ShardPlan::new(1000, 4);
//! let partials = run_sharded(&plan, |shard| {
//!     (shard.first_shot..shard.first_shot + shard.shots).sum::<u64>()
//! });
//! // Canonical order: partials[i] came from plan.shards()[i].
//! assert_eq!(partials.iter().sum::<u64>(), (0..1000).sum());
//! ```

/// One worker's contiguous slice of a run's shot range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard {
    /// Position in the canonical merge order.
    pub index: usize,
    /// First run-relative shot index owned by this shard.
    pub first_shot: u64,
    /// Number of shots in this shard.
    pub shots: u64,
}

/// Fewest shots worth handing to an extra worker thread: below this the
/// spawn/join overhead dwarfs the sampling work, so the planner degrades
/// toward fewer shards. Purely a performance knob — determinism never
/// depends on the shard count.
///
/// Derivation: a shard should sample for about twice what one scoped
/// spawn+join costs. Measured on a 2-vCPU Intel Xeon VM (release build,
/// best of 5 × 200k shots; median of 5 × 2000 spawns), one
/// `std::thread::scope` spawn+join took 20–39 µs and one
/// `PreparedCircuit::sample_shot` took 95 ns (exact, 12 qubits) to
/// 160–180 ns (mean-field, 16 qubits). Twice a spawn was therefore worth
/// 245–820 shots, and 512 sat in the middle of that band. The 100-shot
/// evaluations of the variational workloads stay serial at any width.
///
/// Since shots stopped allocating, the same VM measures
/// `sample_shot` at 74–86 ns (exact, 12 qubits) and 69–115 ns
/// (mean-field, 16 qubits), and a spawn+join at 40–51 µs. That band,
/// ~700–1,500 shots, no longer contains 512. The floor is kept until it
/// is re-derived together with the runs sized as multiples of it (the
/// 1024-shot jobs of `examples/kernels.json` cut exactly two shards).
pub const MIN_SHOTS_PER_SHARD: u64 = 512;

/// A contiguous partition of `0..shots` into at most `threads` shards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    shards: Vec<Shard>,
}

impl ShardPlan {
    /// Plans at most `threads` contiguous shards over `shots` shots.
    ///
    /// Shard sizes differ by at most one (earlier shards take the
    /// remainder), every shot is covered exactly once, and runs too
    /// small to amortise thread spawns collapse to fewer shards —
    /// ultimately one, which [`run_sharded`] executes inline.
    pub fn new(shots: u64, threads: usize) -> Self {
        let workers = (threads.max(1) as u64)
            .min(shots / MIN_SHOTS_PER_SHARD)
            .max(1);
        let base = shots / workers;
        let remainder = shots % workers;
        let mut shards = Vec::with_capacity(workers as usize);
        let mut first_shot = 0u64;
        for index in 0..workers {
            let size = base + u64::from(index < remainder);
            shards.push(Shard {
                index: index as usize,
                first_shot,
                shots: size,
            });
            first_shot += size;
        }
        ShardPlan { shards }
    }

    /// The shards in canonical (shot-range) order.
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// Number of shards.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// Total shots covered by the plan.
    pub(crate) fn total_shots(&self) -> u64 {
        self.shards.iter().map(|s| s.shots).sum()
    }

    /// Whether the plan covers zero shots. A plan always holds at least
    /// one shard (so the serial path has something to run inline), but a
    /// zero-shot plan does no sampling work and callers may skip it.
    pub fn is_empty(&self) -> bool {
        self.total_shots() == 0
    }

    /// Whether the plan degenerates to inline serial execution.
    pub(crate) fn is_serial(&self) -> bool {
        self.shards.len() == 1
    }
}

/// Runs `worker` over every shard of `plan` and returns the results in
/// canonical shard order.
///
/// A one-shard plan runs inline on the calling thread — the serial path
/// is literally the parallel path with one shard, not separate code.
/// Multi-shard plans fan out across [`std::thread::scope`] workers; the
/// scope joins every worker before returning, and results are collected
/// by shard index, so callers can fold them left-to-right and rely on
/// the canonical merge order.
///
/// # Panics
///
/// Re-raises a panic from any worker — with its original payload, via
/// [`std::panic::resume_unwind`] — after all workers have stopped, so a
/// failing shard reports the real message and location instead of a
/// generic join error.
pub fn run_sharded<T, F>(plan: &ShardPlan, worker: F) -> Vec<T>
where
    T: Send,
    F: Fn(&Shard) -> T + Sync,
{
    if plan.is_serial() {
        return vec![worker(&plan.shards[0])];
    }
    let worker = &worker;
    std::thread::scope(|scope| {
        let handles: Vec<_> = plan
            .shards
            .iter()
            .map(|shard| scope.spawn(move || worker(shard)))
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(value) => value,
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_covers_exactly_once(plan: &ShardPlan, shots: u64) {
        let mut next = 0u64;
        for (i, shard) in plan.shards().iter().enumerate() {
            assert_eq!(shard.index, i);
            assert_eq!(shard.first_shot, next, "gap or overlap at shard {i}");
            next += shard.shots;
        }
        assert_eq!(next, shots, "plan does not cover the shot range");
    }

    #[test]
    fn plans_cover_the_range_for_many_shapes() {
        for shots in [0u64, 1, 15, 16, 17, 63, 64, 100, 500, 2000, 2001] {
            for threads in [1usize, 2, 3, 4, 7, 8, 64] {
                let plan = ShardPlan::new(shots, threads);
                assert!(plan.len() <= threads.max(1));
                assert_covers_exactly_once(&plan, shots);
            }
        }
    }

    #[test]
    fn tiny_runs_stay_serial() {
        assert!(ShardPlan::new(0, 8).is_serial());
        assert!(ShardPlan::new(MIN_SHOTS_PER_SHARD - 1, 8).is_serial());
        assert!(!ShardPlan::new(MIN_SHOTS_PER_SHARD * 4, 4).is_serial());
        // The variational workloads sample 100 shots per evaluation; one
        // scoped spawn+join costs more than a shard of them saves.
        for threads in [1usize, 2, 4, 8, 64, usize::MAX] {
            assert!(
                ShardPlan::new(100, threads).is_serial(),
                "{threads} threads"
            );
        }
    }

    #[test]
    fn shard_sizes_differ_by_at_most_one() {
        let shots = 4 * MIN_SHOTS_PER_SHARD + 3;
        let plan = ShardPlan::new(shots, 4);
        assert_eq!(plan.len(), 4);
        let sizes: Vec<u64> = plan.shards().iter().map(|s| s.shots).collect();
        let max = *sizes.iter().max().unwrap();
        let min = *sizes.iter().min().unwrap();
        assert!(max - min <= 1, "sizes {sizes:?}");
        assert_eq!(sizes.iter().sum::<u64>(), shots);
    }

    #[test]
    fn run_sharded_preserves_canonical_order() {
        let plan = ShardPlan::new(4 * MIN_SHOTS_PER_SHARD, 4);
        assert_eq!(plan.len(), 4);
        let results = run_sharded(&plan, |shard| shard.first_shot);
        let expected: Vec<u64> = plan.shards().iter().map(|s| s.first_shot).collect();
        assert_eq!(results, expected);
    }

    #[test]
    fn run_sharded_inline_for_one_shard() {
        let plan = ShardPlan::new(5, 8);
        let caller = std::thread::current().id();
        let results = run_sharded(&plan, |_| std::thread::current().id());
        assert_eq!(results, vec![caller]);
    }

    #[test]
    fn zero_shot_plan_reports_empty() {
        for threads in [1usize, 2, 8, 64] {
            let plan = ShardPlan::new(0, threads);
            assert!(plan.is_empty(), "0-shot plan at {threads} threads");
            assert_eq!(plan.total_shots(), 0);
            // The len/is_empty contract: a non-empty plan is never empty.
            assert!(!ShardPlan::new(100, threads).is_empty());
            assert_eq!(ShardPlan::new(100, threads).total_shots(), 100);
        }
    }

    #[test]
    #[should_panic(expected = "shard 2 exploded")]
    fn run_sharded_surfaces_original_panic_payload() {
        // 4 real shards; shard 2 panics with a distinctive payload that
        // must survive the join instead of being replaced by a generic
        // "shard worker panicked" message.
        let plan = ShardPlan::new(MIN_SHOTS_PER_SHARD * 4, 4);
        assert_eq!(plan.len(), 4);
        run_sharded(&plan, |shard| {
            if shard.index == 2 {
                panic!("shard {} exploded", shard.index);
            }
            shard.shots
        });
    }
}
