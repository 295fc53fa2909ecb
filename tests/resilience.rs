//! Acceptance test for the fault-injection and resilience layer: a
//! 64-qubit VQE run under non-zero fault rates must complete, report its
//! recovery work in the exported metrics, and reproduce exactly under the
//! same seed. The `qtenon run` CLI must do the same for a fixed fault
//! schedule, and keep fault namespaces out of a fault-free export; and
//! `qtenon batch` must contain the chaos fleet's failures.

use std::path::{Path, PathBuf};
use std::process::Command;

use qtenon::core::config::{CoreModel, QtenonConfig};
use qtenon::core::vqa::VqaRunner;
use qtenon::sim_engine::json::{self, JsonValue};
use qtenon::sim_engine::{FaultPlan, MetricsRegistry};
use qtenon::workloads::{SpsaOptimizer, Workload, WorkloadKind};

fn vqe_64_under_faults(plan: FaultPlan) -> (qtenon::core::report::RunReport, String) {
    let config = QtenonConfig::table4(64, CoreModel::Rocket)
        .unwrap()
        .with_seed(42)
        .with_faults(plan);
    let workload = Workload::benchmark(WorkloadKind::Vqe, 64, 42).unwrap();
    let mut runner = VqaRunner::new(config, workload).unwrap();
    let report = runner.run(&mut SpsaOptimizer::new(42), 1, 50).unwrap();
    let mut m = MetricsRegistry::new();
    runner.export_metrics(&mut m);
    (report, m.snapshot().to_json())
}

#[test]
fn faulty_64q_vqe_completes_reports_and_reproduces() {
    let plan = FaultPlan::all(0.01).with_seed(0xFA17);
    let (report, metrics) = vqe_64_under_faults(plan);

    // Graceful degradation: the run completed and absorbed real faults.
    assert!(report.final_cost.is_finite());
    assert!(
        report.resilience.faults_injected > 0,
        "{:?}",
        report.resilience
    );
    assert!(
        report.resilience.total_retries() > 0,
        "{:?}",
        report.resilience
    );

    // The recovery work is visible in the exported metric tree.
    assert!(metrics.contains("faults.injected.total"), "{metrics}");
    assert!(metrics.contains("resilience.retries"), "{metrics}");

    // Same plan, same seed: bit-identical report and metric tree.
    let (report2, metrics2) = vqe_64_under_faults(plan);
    assert_eq!(report, report2);
    assert_eq!(metrics, metrics2);

    // A different fault seed produces a different fault schedule (the
    // counters are seed-dependent, not rate-schedule artefacts).
    let (report3, _) = vqe_64_under_faults(plan.with_seed(0xBEEF));
    assert!(report3.final_cost.is_finite());
    assert_ne!(report.resilience, report3.resilience);
}

#[test]
fn inert_plan_leaves_64q_metrics_free_of_fault_namespaces() {
    let (report, metrics) = vqe_64_under_faults(FaultPlan::default());
    assert!(report.resilience.is_zero());
    assert!(!metrics.contains("faults."), "{metrics}");
    assert!(!metrics.contains("resilience."), "{metrics}");
}

/// Runs `qtenon run examples/qasm/bell.qasm --shots 500 <extra>
/// --metrics <tmp>/<name>` and returns the parsed `metrics` object.
fn cli_metrics(name: &str, extra: &[&str]) -> Vec<(String, JsonValue)> {
    let bell = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/qasm/bell.qasm");
    let out: PathBuf = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let run = Command::new(env!("CARGO_BIN_EXE_qtenon"))
        .arg("run")
        .arg(&bell)
        .args(["--shots", "500"])
        .args(extra)
        .arg("--metrics")
        .arg(&out)
        .output()
        .expect("qtenon binary runs");
    assert!(run.status.success(), "{run:?}");
    let text = std::fs::read_to_string(&out).expect("metrics written");
    let doc = json::parse(&text).expect("metrics JSON parses");
    doc.get("metrics")
        .and_then(JsonValue::as_object)
        .expect("a metrics object")
        .to_vec()
}

fn value(metrics: &[(String, JsonValue)], path: &str) -> f64 {
    metrics
        .iter()
        .find(|(k, _)| k == path)
        .and_then(|(_, v)| v.get("value"))
        .and_then(JsonValue::as_f64)
        .unwrap_or_else(|| panic!("{path} missing"))
}

#[test]
fn cli_fault_schedule_reports_injections_and_recoveries() {
    let faulty = cli_metrics(
        "cli-faults.json",
        &["--faults", "all=0.25,max_attempts=8", "--fault-seed", "7"],
    );
    assert!(
        value(&faulty, "faults.injected.total") > 0.0,
        "fixed-seed fault schedule injected nothing"
    );
    assert!(
        value(&faulty, "resilience.retries") > 0.0,
        "no recovery activity despite injected faults"
    );

    let clean = cli_metrics("cli-clean.json", &[]);
    let leaked: Vec<&str> = clean
        .iter()
        .map(|(k, _)| k.as_str())
        .filter(|k| k.starts_with("faults.") || k.starts_with("resilience."))
        .collect();
    assert!(leaked.is_empty(), "fault-free run exported {leaked:?}");
}

/// Runs `qtenon batch --jobs examples/chaos.json --ledger <tmp>/<name>
/// <extra>` with `RUST_BACKTRACE=1` and returns the exit status, stderr
/// and ledger.
fn cli_chaos_batch(name: &str, extra: &[&str]) -> (Option<i32>, String, String) {
    let fleet = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/chaos.json");
    let ledger: PathBuf = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let run = Command::new(env!("CARGO_BIN_EXE_qtenon"))
        .args(["batch", "--jobs"])
        .arg(&fleet)
        .arg("--ledger")
        .arg(&ledger)
        .args(extra)
        .env("RUST_BACKTRACE", "1")
        .output()
        .expect("qtenon binary runs");
    let ledger = std::fs::read_to_string(&ledger).expect("ledger written");
    (
        run.status.code(),
        String::from_utf8_lossy(&run.stderr).into_owned(),
        ledger,
    )
}

#[test]
fn cli_chaos_fleet_attributes_failures_with_width_invariant_ledgers() {
    let tmp = Path::new(env!("CARGO_TARGET_TMPDIR"));
    let metrics = tmp.join("chaos-fleet.json");
    let metrics = metrics.to_str().expect("UTF-8 path");
    let (w1_status, w1_stderr, w1_ledger) = cli_chaos_batch(
        "chaos-ledger-w1.txt",
        &["--threads", "1", "--metrics", metrics],
    );
    let (w8_status, _, w8_ledger) = cli_chaos_batch("chaos-ledger-w8.txt", &["--threads", "8"]);
    // The fleet holds a panicking and a deadline-exceeding job: the batch
    // fails with exit code 1, both attributed on stderr, not an abort.
    assert_eq!(w1_status, Some(1), "width 1");
    assert_eq!(w8_status, Some(1), "width 8");
    assert!(w1_stderr.contains("quarantined"), "{w1_stderr}");
    assert!(w1_stderr.contains("timed-out"), "{w1_stderr}");
    assert_eq!(w1_ledger, w8_ledger, "ledger depends on the pool width");
    // The file's top-level `"retries": 3`, which no job overrides, set by
    // the flag instead: the same field, so the same ledger.
    let (r3_status, _, r3_ledger) =
        cli_chaos_batch("chaos-ledger-r3.txt", &["--threads", "1", "--retries", "3"]);
    assert_eq!(r3_status, Some(1), "--retries 3");
    assert_eq!(
        w1_ledger, r3_ledger,
        "--retries 3 diverged from the file key"
    );
    let exported = std::fs::read_to_string(tmp.join("chaos-fleet.json.prom"))
        .expect("Prometheus export written");
    assert!(exported.contains("resilience_jobs_"), "{exported}");
}

#[test]
fn cli_deliberate_panic_is_quarantined_without_panic_hook_output() {
    let (status, stderr, _) = cli_chaos_batch("chaos-ledger-panic.txt", &["--threads", "2"]);
    assert_eq!(status, Some(1));
    assert!(!stderr.contains("panicked at"), "{stderr}");
    assert!(!stderr.contains("stack backtrace"), "{stderr}");
    assert!(
        stderr
            .lines()
            .any(|l| l.starts_with("3\tpanic-vqe\tquarantined\t")),
        "{stderr}"
    );
}
