//! Differential determinism tests for the shot-sharded parallel
//! execution engine: a multi-threaded run must be byte-identical to the
//! serial run — same `RunReport`, same metrics-JSON export — for every
//! seed, with and without fault injection. The CI determinism matrix
//! re-runs these with `QTENON_THREADS=1` and `QTENON_THREADS=4`.

use qtenon_core::config::{CoreModel, QtenonConfig};
use qtenon_core::parallel::{ShardPlan, MIN_SHOTS_PER_SHARD};
use qtenon_core::report::RunReport;
use qtenon_core::system::QtenonSystem;
use qtenon_core::vqa::VqaRunner;
use qtenon_prop::check;
use qtenon_quantum::sim::Simulator;
use qtenon_quantum::{BitString, Circuit};
use qtenon_sim_engine::{FaultPlan, MetricValue, MetricsRegistry, SimTime};
use qtenon_workloads::{SpsaOptimizer, Workload, WorkloadKind};

/// Thread count for the sharded side: `QTENON_THREADS` when set (the CI
/// matrix pins 1 and 4), otherwise 4.
fn sharded_threads() -> usize {
    std::env::var("QTENON_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4)
}

/// Runs a small VQA at `threads` workers and returns the report plus the
/// metrics-JSON artefact (`--metrics` writes exactly this string, so
/// byte-equality here is byte-equality on disk). The shot count is
/// derived from the shard floor so a sharded run always cuts four real
/// shards, whatever the floor is tuned to.
fn run_at(threads: usize, seed: u64, faults: FaultPlan) -> (RunReport, String) {
    let config = QtenonConfig::table4(8, CoreModel::Rocket)
        .expect("valid config")
        .with_seed(seed)
        .with_faults(faults)
        .with_threads(threads);
    let workload = Workload::benchmark(WorkloadKind::Vqe, 8, seed).expect("workload");
    let mut runner = VqaRunner::new(config, workload).expect("runner");
    let report = runner
        .run(&mut SpsaOptimizer::new(seed), 2, 4 * MIN_SHOTS_PER_SHARD)
        .expect("run succeeds");
    let mut m = MetricsRegistry::new();
    runner.export_metrics(&mut m);
    (report, m.snapshot().to_json())
}

#[test]
fn sharded_run_is_byte_identical_to_serial_across_seeds() {
    for seed in [1u64, 42, 0xDEAD] {
        let (serial_report, serial_json) = run_at(1, seed, FaultPlan::default());
        let (sharded_report, sharded_json) = run_at(sharded_threads(), seed, FaultPlan::default());
        assert_eq!(
            serial_report, sharded_report,
            "report diverged at seed {seed}"
        );
        assert_eq!(
            serial_json, sharded_json,
            "metrics JSON diverged at seed {seed}"
        );
    }
}

#[test]
fn sharded_run_is_byte_identical_under_fault_injection() {
    let mut total_injected = 0u64;
    for seed in [1u64, 42, 0xDEAD] {
        let plan = FaultPlan::all(0.02).with_seed(seed ^ 0xFA17);
        let (serial_report, serial_json) = run_at(1, seed, plan);
        let (sharded_report, sharded_json) = run_at(sharded_threads(), seed, plan);
        assert_eq!(
            serial_report, sharded_report,
            "faulty report diverged at seed {seed}"
        );
        assert_eq!(
            serial_json, sharded_json,
            "faulty metrics JSON diverged at seed {seed}"
        );
        total_injected += sharded_report.resilience.faults_injected;
    }
    // The fault check must not be vacuous: the plan really fired.
    assert!(total_injected > 0, "no faults injected across any seed");
}

/// Shard plans partition any shot range exactly once, in order, with
/// near-equal sizes, and never hand a worker less than the amortisation
/// floor.
#[test]
fn shard_plans_partition_any_range() {
    check("shard_plans_partition_any_range", 256, |g| {
        let shots = g.draw(0u64..10_000);
        let threads = g.draw(1usize..32);
        let plan = ShardPlan::new(shots, threads);
        assert!(plan.len() <= threads);
        let mut next = 0u64;
        for (i, shard) in plan.shards().iter().enumerate() {
            assert_eq!(shard.index, i);
            assert_eq!(shard.first_shot, next, "gap or overlap at shard {i}");
            next += shard.shots;
        }
        assert_eq!(next, shots, "plan does not cover the range");
        let min = plan.shards().iter().map(|s| s.shots).min().unwrap();
        let max = plan.shards().iter().map(|s| s.shots).max().unwrap();
        assert!(max - min <= 1, "unbalanced shards: {min} vs {max}");
        if plan.len() > 1 {
            assert!(min >= MIN_SHOTS_PER_SHARD);
        }
    });
}

/// `q_run`'s shards sample in blocks; whatever the shard cut, they must
/// draw exactly what one `sample_shot` per shot draws, and `.measure`
/// must count one write per packed word of those shots.
#[test]
fn q_run_shards_draw_what_per_shot_sampling_draws() {
    check("q_run_shards_draw_what_per_shot_sampling_draws", 12, |g| {
        let n = g.select(&[8u32, 16, 65, 130]);
        let seed = g.u64();
        let shots = 2 * MIN_SHOTS_PER_SHARD + g.draw(0u64..8);
        let mut circuit = Circuit::new(n);
        for q in 0..n {
            circuit.ry(q, g.draw(-7.0f64..7.0));
        }
        for q in 1..n {
            circuit.cz(q - 1, q).rx(q, g.draw(-7.0f64..7.0));
        }
        circuit.measure_all();
        let sim = Simulator::fast(n, seed);
        let prepared = sim.prepare(&circuit).unwrap();
        let expected: Vec<BitString> = (0..shots)
            .map(|s| prepared.sample_shot(&mut sim.shot_rng(s)))
            .collect();
        for threads in [1usize, 2] {
            assert_eq!(ShardPlan::new(shots, threads).len(), threads);
            let config = QtenonConfig::table4(n, CoreModel::Rocket)
                .unwrap()
                .with_seed(seed)
                .with_threads(threads);
            let mut system = QtenonSystem::new(config).unwrap();
            let outcome = system.q_run(SimTime::ZERO, &circuit, shots).unwrap();
            assert_eq!(outcome.shots, expected, "{n} qubits, {threads} threads");
            let words: usize = expected.iter().map(|b| b.words().len()).sum();
            let mut m = MetricsRegistry::new();
            system.export_metrics(&mut m);
            assert_eq!(
                m.get("mem.qcc.writes"),
                Some(&MetricValue::Counter(words as u64)),
                "{n} qubits, {threads} threads"
            );
        }
    });
}
