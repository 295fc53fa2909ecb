//! The `qtenon` command-line tool: run OpenQASM programs on the simulated
//! tightly coupled system, disassemble compiled programs, and export
//! execution traces.
//!
//! ```text
//! qtenon run <file.qasm> [--shots N] [--seed S]             # execute on the system
//!             [--threads T]                                 # shot-sharded sampling
//!             [--metrics out.json] [--trace out.json]       # telemetry export
//!             [--faults SPEC|FILE] [--fault-seed S]         # fault injection
//!             [--profile]                                   # phase attribution table
//!             [--critpath]                                  # who-blocks-whom table
//!             [--no-fuse]                                   # disable gate fusion
//! qtenon disasm <file.qasm>                                 # compiled chunk listing
//! qtenon trace <file.qasm> [--shots N]                      # Chrome trace JSON to stdout
//! qtenon batch --jobs <spec.json> [--threads T]             # multi-job fleet
//!             [--metrics out.json] [--job-metrics DIR]      # fleet + per-job artefacts
//!             [--only NAME] [--profile] [--critpath]        # run one job standalone
//!             [--retries N] [--deadline NS]                 # containment overrides
//!             [--ledger PATH] [--no-fuse]                   # ledger + fusion toggle
//!             [--no-cache]                                  # fleet compilation cache
//! ```
//!
//! `--profile` prints the per-phase latency-attribution table after the
//! run. The table derives purely from simulated time, so it is
//! byte-identical at any `--threads` value and whether or not the flag
//! was passed (the flag only controls printing plus an extra wall-clock
//! section that is explicitly unstable).
//!
//! `--critpath` prints the causal critical-path table: per-edge
//! blocking-time attribution (who blocks whom) plus each component's
//! share of the end-to-end on-path time. Like the phase table it is pure
//! sim time — byte-identical at any `--threads` value and across
//! batch-vs-standalone execution. With `--trace`, the path is also
//! painted into the Chrome trace as a highlighted `critpath` flow lane.
//!
//! `--metrics PATH` writes the full metric tree as JSON to `PATH`, a
//! Prometheus text rendering to `PATH.prom`, and prints a human-readable
//! report to stdout. `--trace PATH` records the flow-annotated Chrome
//! trace to `PATH` (open with Perfetto / `chrome://tracing`).
//!
//! `--faults` takes either an inline spec (`all=0.01,max_attempts=5` or
//! per-site rates like `bus_drop=0.02,slt_bitflip=0.001`) or a path to a
//! file holding the same format, one pair per line with `#` comments.
//! `--fault-seed` overrides the plan's deterministic seed: the same spec,
//! seed, and program reproduce the exact same faults and recoveries.
//!
//! `--threads T` fans shot sampling out across `T` worker threads. The
//! shard merge is bitwise deterministic: any `T` produces results (and
//! metrics, and fault accounting) identical to `--threads 1`.
//!
//! `--no-fuse` disables gate fusion in the exact statevector backend.
//! Fusion is a performance optimisation — fused and unfused execution
//! produce identical shots and artefacts (only the `quantum.fuse.*`
//! accounting counters differ; amplitudes differ within a rounding bound,
//! DESIGN.md §13) — so the flag exists for differential verification and
//! benchmarking, not correctness.
//!
//! The fleet compilation cache (DESIGN.md §14) is on for `batch` —
//! near-identical jobs share whole compiles and pulse streams — and
//! `--no-cache` disables it; a single run compiles once, uncached. Like
//! fusion it is purely a wall-clock knob: a hit returns byte-identical
//! artefacts to a cold compile, so no per-job report, metric file, or
//! ledger ever depends on the flag. Fleet-level `cache.fleet.*`
//! counters land in the `--metrics` export only.
//!
//! `batch` admits every job in a JSON spec into the deterministic batch
//! scheduler and runs them over one shared pool of `--threads` threads.
//! `--job-metrics DIR` writes each job's metrics JSON to
//! `DIR/<name>.json`; those files are byte-identical at any thread
//! count, and identical to running the same job alone (e.g. via
//! `--only NAME --threads 1`). `--metrics` writes the fleet-level
//! `jobs.*` and `resilience.jobs.*` telemetry to `PATH` (JSON) and
//! `PATH.prom` (Prometheus text format).
//!
//! Jobs are fault-contained: a panicking job is quarantined, a job past
//! its sim-time deadline is cut at the next iteration boundary, and
//! transient failures retry deterministically within the spec's budget.
//! `--retries N` / `--deadline NS` override the budget and deadline for
//! every job in the fleet: they set the job keys `retries` and
//! `deadline_ns` through the batch file's own codec, so a bad value
//! fails with the same message either way. `--ledger PATH` writes the
//! outcome ledger — one tab-separated row per job with outcome,
//! attempts, and failure attribution — which is byte-identical at any
//! `--threads` value. An empty fleet (empty `jobs` array, or `--only`
//! matching nothing) renders a fixed placeholder ledger and exits 0;
//! any failed, timed-out, or quarantined job makes the exit code
//! nonzero after a per-job failure table.

use std::collections::BTreeMap;
use std::fmt::Display;
use std::process::ExitCode;
use std::str::FromStr;

use qtenon::compiler::QtenonCompiler;
use qtenon::core::config::{CoreModel, QtenonConfig};
use qtenon::core::jobs::{BatchReport, BatchSpec, JobSpec};
use qtenon::core::system::QtenonSystem;
use qtenon::isa::{disasm, QubitId};
use qtenon::quantum::{qasm, transpile, Circuit};
use qtenon::sim_engine::json::{self, JsonValue};
use qtenon::sim_engine::{FaultPlan, MetricsRegistry, MetricsSnapshot, SimTime};
use qtenon::workloads::WorkloadKind;

/// The parsed command line: the subcommand plus every flag, each taken
/// only by the subcommand(s) it belongs to.
#[derive(Debug, Default)]
struct Args {
    command: String,
    // `run`, `disasm` and `trace`.
    file: Option<String>,
    shots: u64,
    seed: u64,
    trace_out: Option<String>,
    faults: Option<String>,
    fault_seed: Option<u64>,
    // `batch`.
    jobs: Option<String>,
    job_metrics: Option<String>,
    only: Option<String>,
    /// Job keys set on every job (`--retries`, `--deadline`).
    job_keys: Vec<(&'static str, JsonValue)>,
    ledger: Option<String>,
    no_cache: bool,
    // Both.
    threads: usize,
    metrics: Option<String>,
    profile: bool,
    critpath: bool,
    no_fuse: bool,
}

/// The value after `flag`, parsed as a `T`.
fn value<T: FromStr>(argv: &mut impl Iterator<Item = String>, flag: &str) -> Result<T, String>
where
    T::Err: Display,
{
    let text = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
    text.parse().map_err(|e| format!("bad {flag}: {e}"))
}

/// The value after a `batch` flag that sets job `key` on every job. The
/// text is read as JSON (a bare word as a string) and checked here by
/// [`JobSpec::set`], the batch file's own codec.
fn job_key(
    argv: &mut impl Iterator<Item = String>,
    flag: &str,
    key: &'static str,
) -> Result<(&'static str, JsonValue), String> {
    let text: String = value(argv, flag)?;
    let parsed = json::parse(&text).unwrap_or(JsonValue::String(text));
    JobSpec::new("", WorkloadKind::Qaoa, 8)
        .set(key, &parsed)
        .map_err(|e| format!("{flag}: {e}"))?;
    Ok((key, parsed))
}

/// Parses `qtenon <command> [args]` (argv without the program name).
fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let command = argv.next().ok_or_else(usage)?;
    let batch = match command.as_str() {
        "batch" => true,
        "run" | "disasm" | "trace" => false,
        other => return Err(format!("unknown command {other:?}\n{}", usage())),
    };
    let mut a = Args {
        command,
        shots: 1000,
        seed: 42,
        threads: 1,
        ..Args::default()
    };
    while let Some(arg) = argv.next() {
        let flag = arg.as_str();
        match (flag, batch) {
            ("--threads", _) => a.threads = value(&mut argv, flag)?,
            ("--metrics", _) => a.metrics = Some(value(&mut argv, flag)?),
            ("--profile", _) => a.profile = true,
            ("--critpath", _) => a.critpath = true,
            ("--no-fuse", _) => a.no_fuse = true,
            ("--shots", false) => a.shots = value(&mut argv, flag)?,
            ("--seed", false) => a.seed = value(&mut argv, flag)?,
            ("--trace", false) => a.trace_out = Some(value(&mut argv, flag)?),
            ("--faults", false) => a.faults = Some(value(&mut argv, flag)?),
            ("--fault-seed", false) => a.fault_seed = Some(value(&mut argv, flag)?),
            ("--jobs", true) => a.jobs = Some(value(&mut argv, flag)?),
            ("--job-metrics", true) => a.job_metrics = Some(value(&mut argv, flag)?),
            ("--only", true) => a.only = Some(value(&mut argv, flag)?),
            ("--retries", true) => a.job_keys.push(job_key(&mut argv, flag, "retries")?),
            ("--deadline", true) => a.job_keys.push(job_key(&mut argv, flag, "deadline_ns")?),
            ("--ledger", true) => a.ledger = Some(value(&mut argv, flag)?),
            ("--no-cache", true) => a.no_cache = true,
            (other, false) if a.file.is_none() && !other.starts_with("--") => {
                a.file = Some(arg);
            }
            (other, _) => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }
    if batch && a.jobs.is_none() {
        return Err(format!("batch needs --jobs <spec.json>\n{}", usage()));
    }
    if !batch && a.file.is_none() {
        return Err(usage());
    }
    Ok(a)
}

fn usage() -> String {
    "usage: qtenon <run|disasm|trace> <file.qasm> [--shots N] [--seed S] [--threads T] \
     [--metrics out.json] [--trace out.json] [--faults SPEC|FILE] [--fault-seed S] \
     [--profile] [--critpath] [--no-fuse]\n\
     \u{20}      qtenon batch --jobs <spec.json> [--threads T] [--metrics out.json] \
     [--job-metrics DIR] [--only NAME] [--profile] [--critpath] \
     [--retries N] [--deadline NS] [--ledger PATH] [--no-fuse] [--no-cache]"
        .into()
}

/// `qtenon batch`: run a JSON-specified fleet of VQA jobs over one
/// shared worker pool and report per-job plus fleet-level results.
fn run_batch(args: &Args) -> Result<(), String> {
    let jobs_path = args.jobs.as_deref().expect("parse_args requires it");
    let text =
        std::fs::read_to_string(jobs_path).map_err(|e| format!("cannot read {jobs_path}: {e}"))?;
    let mut spec = BatchSpec::from_json(&text).map_err(|e| e.to_string())?;
    if let Some(name) = &args.only {
        // Seeds were materialised at parse time by array position, so
        // filtering cannot change what the surviving job runs with.
        spec.jobs.retain(|j| j.name == *name);
    }
    for job in &mut spec.jobs {
        for (key, value) in &args.job_keys {
            job.set(key, value).map_err(|e| e.to_string())?;
        }
        job.fuse = !args.no_fuse;
    }
    if spec.jobs.is_empty() {
        // An empty fleet (empty `jobs` array, or `--only` that matched
        // nothing) is a healthy no-op: fixed placeholder ledger, exit 0.
        print!("{}", BatchReport::empty_ledger());
        if let Some(path) = &args.ledger {
            std::fs::write(path, BatchReport::empty_ledger())
                .map_err(|e| format!("cannot write {path}: {e}"))?;
        }
        return Ok(());
    }
    let scheduler = spec
        .into_scheduler()
        .map_err(|e| e.to_string())?
        .with_cache(!args.no_cache);
    let batch = scheduler.run(args.threads).map_err(|e| e.to_string())?;

    println!(
        "fleet: {} jobs over {} job workers x {} shard threads, wall {:.3}s",
        batch.results.len(),
        batch.pool.job_workers,
        batch.pool.shard_threads,
        batch.wall.as_secs_f64(),
    );
    for r in &batch.results {
        println!(
            "  [{:>2}] {:<16} seed {:#018x} prio {} {}: {} (attempts {}), \
             wait {:.3}s, turnaround {:.3}s",
            r.id.index(),
            r.name,
            r.seed,
            r.priority,
            r.outcome.label(),
            r.outcome.detail(),
            r.outcome.attempts(),
            r.wait.as_secs_f64(),
            r.turnaround.as_secs_f64(),
        );
    }
    println!(
        "throughput: {:.2} jobs/s, {:.0} shots/s ({} completed, {} timed-out, \
         {} quarantined, {} failed, {} retries, {} rejected)",
        batch.jobs_per_second(),
        batch.shots_per_second(),
        batch.completed(),
        batch.timed_out(),
        batch.quarantined(),
        batch.failed() - batch.timed_out() - batch.quarantined(),
        batch.total_retries(),
        batch.rejected,
    );
    if let Some(stats) = &batch.cache_stats {
        println!("{}", stats.describe());
    }

    if args.profile {
        for r in &batch.results {
            if let Some(a) = r.outcome.artifacts() {
                println!(
                    "\nphase attribution for {} (sim time, deterministic):",
                    r.name
                );
                print!("{}", a.report.phases.render("phase"));
            }
        }
    }
    if args.critpath {
        for r in &batch.results {
            if let Some(a) = r.outcome.artifacts() {
                println!("\ncritical path for {} (sim time, deterministic):", r.name);
                print!("{}", a.report.critpath.render_critpath());
            }
        }
    }
    if let Some(dir) = &args.job_metrics {
        std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir}: {e}"))?;
        for r in &batch.results {
            if let Some(a) = r.outcome.artifacts() {
                let path = format!("{dir}/{}.json", r.name);
                std::fs::write(&path, &a.metrics_json)
                    .map_err(|e| format!("cannot write {path}: {e}"))?;
            }
        }
        println!("per-job metrics written to {dir}/<name>.json");
    }
    if let Some(path) = &args.ledger {
        std::fs::write(path, batch.ledger()).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("job ledger written to {path}");
    }
    if let Some(path) = &args.metrics {
        write_metrics_pair(path, |registry| batch.export_metrics(registry))?;
        println!("fleet metrics written to {path} (JSON) and {path}.prom (Prometheus)");
    }
    if batch.failed() > 0 {
        // Per-job failure table with attribution, then a nonzero exit.
        eprintln!("failed jobs:");
        eprintln!("idx\tname\toutcome\tattempts\tdetail");
        for r in batch.results.iter().filter(|r| !r.outcome.is_completed()) {
            eprintln!(
                "{}\t{}\t{}\t{}\t{}",
                r.id.index(),
                r.name,
                r.outcome.label(),
                r.outcome.attempts(),
                r.outcome.detail(),
            );
        }
        return Err(format!(
            "{} of {} job(s) did not complete ({} timed-out, {} quarantined, {} failed)",
            batch.failed(),
            batch.results.len(),
            batch.timed_out(),
            batch.quarantined(),
            batch.failed() - batch.timed_out() - batch.quarantined(),
        ));
    }
    Ok(())
}

/// Exports a metric tree to `PATH` (JSON) and `PATH.prom` (Prometheus),
/// returning the snapshot written.
fn write_metrics_pair(
    path: &str,
    export: impl FnOnce(&mut MetricsRegistry),
) -> Result<MetricsSnapshot, String> {
    let mut registry = MetricsRegistry::new();
    export(&mut registry);
    let snapshot = registry.snapshot();
    std::fs::write(path, snapshot.to_json()).map_err(|e| format!("cannot write {path}: {e}"))?;
    let prom_path = format!("{path}.prom");
    std::fs::write(&prom_path, snapshot.to_prometheus())
        .map_err(|e| format!("cannot write {prom_path}: {e}"))?;
    Ok(snapshot)
}

/// Builds the fault plan from `--faults`/`--fault-seed`: the argument is
/// read as a file when one exists at that path, otherwise parsed as an
/// inline spec.
fn fault_plan(args: &Args) -> Result<FaultPlan, String> {
    let mut plan = match &args.faults {
        Some(spec_or_file) => {
            let spec = match std::fs::read_to_string(spec_or_file) {
                Ok(contents) => contents,
                Err(_) => spec_or_file.clone(),
            };
            FaultPlan::parse(&spec).map_err(|e| format!("bad --faults: {e}"))?
        }
        None => FaultPlan::default(),
    };
    if let Some(seed) = args.fault_seed {
        plan.seed = seed;
    }
    Ok(plan)
}

fn load_circuit(path: &str) -> Result<Circuit, String> {
    let source = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let parsed = qasm::parse(&source).map_err(|e| e.to_string())?;
    transpile::to_native(&parsed).map_err(|e| e.to_string())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let args = parse_args(std::env::args().skip(1))?;
    if args.command == "batch" {
        return run_batch(&args);
    }
    let file = args.file.as_deref().expect("parse_args requires it");
    let circuit = load_circuit(file)?;
    let n = circuit.n_qubits();
    let plan = fault_plan(&args)?;
    let config = QtenonConfig::table4(n, CoreModel::Rocket)
        .map_err(|e| e.to_string())?
        .with_seed(args.seed)
        .with_threads(args.threads)
        .with_faults(plan)
        .with_profile(args.profile)
        .with_fuse(!args.no_fuse);
    let program = QtenonCompiler::new(config.layout)
        .compile(&circuit)
        .map_err(|e| e.to_string())?;

    match args.command.as_str() {
        "disasm" => {
            for (q, chunk) in program.chunks().iter().enumerate() {
                if chunk.is_empty() {
                    continue;
                }
                println!("qubit #{q}:");
                let rows = disasm::disassemble_chunk(&config.layout, QubitId::new(q as u32), chunk)
                    .map_err(|e| e.to_string())?;
                print!("{}", disasm::format_listing(&rows));
                println!();
            }
            println!(
                "{} entries across {} chunks, {} register slots",
                program.total_entries(),
                program.chunks().iter().filter(|c| !c.is_empty()).count(),
                program.slots().len()
            );
            Ok(())
        }
        // `run` or `trace`: the only other commands `parse_args` admits.
        _ => {
            let tracing = args.command == "trace" || args.trace_out.is_some();
            let mut system = QtenonSystem::new(config).map_err(|e| e.to_string())?;
            system.set_tracing(tracing);
            // Root the causal chain at t=0 so the first q_set edge is
            // charged from program start rather than auto-rooted at its
            // own completion time.
            system.critpath_mut().open_at(SimTime::ZERO);

            let mut now = SimTime::ZERO;
            for instr in program.load_instructions(0x8000_0000) {
                if let qtenon::isa::Instruction::QSet {
                    classical_addr,
                    qaddr,
                    ..
                } = instr
                {
                    let q = config
                        .layout
                        .decode(qaddr)
                        .map_err(|e| e.to_string())?
                        .qubit
                        .expect("program chunk");
                    now = system
                        .q_set_program(
                            now,
                            classical_addr,
                            qaddr,
                            &program.chunks()[q.index() as usize],
                        )
                        .map_err(|e| e.to_string())?;
                }
            }
            let items = program.work_items(&[]).map_err(|e| e.to_string())?;
            let (gen, t) = system.q_gen(now, &items).map_err(|e| e.to_string())?;
            let outcome = system
                .q_run(t, &circuit, args.shots)
                .map_err(|e| e.to_string())?;

            if let Some(path) = &args.metrics {
                let snapshot =
                    write_metrics_pair(path, |registry| system.export_metrics(registry))?;
                print!("{}", snapshot.to_text());
                println!("metrics written to {path} (JSON) and {path}.prom (Prometheus)");
            }

            if tracing {
                system.trace_critpath();
                let trace = system.take_trace().expect("tracing enabled");
                let json = trace.to_chrome_json();
                if let Some(path) = &args.trace_out {
                    std::fs::write(path, &json).map_err(|e| format!("cannot write {path}: {e}"))?;
                    println!("trace written to {path}");
                }
                if args.command == "trace" {
                    println!("{json}");
                    return Ok(());
                }
            }

            if args.profile {
                println!("phase attribution (sim time, deterministic):");
                print!("{}", system.phase_table().render("phase"));
                let wall = system.profiler().render_wall_unstable();
                if !wall.is_empty() {
                    println!();
                    print!("{wall}");
                }
            }

            if args.critpath {
                println!("critical path (who blocks whom, sim time, deterministic):");
                print!("{}", system.critpath_report().render_critpath());
            }

            if plan.is_active() {
                let r = system.resilience();
                println!(
                    "fault injection (seed {:#x}): {} injected; recovered via {} bus retries, \
                     {} PGU stalls, {} PGU redispatches, {} SLT invalidations, \
                     {} RBQ reclaims, {} ECC corrections",
                    plan.seed,
                    r.faults_injected,
                    r.bus_retries,
                    r.pgu_stalls,
                    r.pgu_redispatches,
                    r.slt_invalidations,
                    r.rbq_reclaims,
                    r.ecc_corrections,
                );
            }

            // Histogram of outcomes (top 16).
            let mut counts: BTreeMap<String, u64> = BTreeMap::new();
            for s in &outcome.shots {
                *counts.entry(s.to_string()).or_insert(0) += 1;
            }
            let mut sorted: Vec<_> = counts.into_iter().collect();
            sorted.sort_by_key(|&(_, count)| std::cmp::Reverse(count));
            println!(
                "{} qubits, {} shots, {} pulses generated, simulated time {}",
                n,
                args.shots,
                gen.generated,
                outcome.complete.elapsed()
            );
            for (bits, count) in sorted.iter().take(16) {
                let bar = "#".repeat((count * 40 / args.shots.max(1)) as usize);
                println!("  {bits}  {count:>6}  {bar}");
            }
            if sorted.len() > 16 {
                println!("  … {} more outcomes", sorted.len() - 16);
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qtenon::sim_engine::SimDuration;

    fn parse(args: &str) -> Result<Args, String> {
        parse_args(args.split_whitespace().map(String::from))
    }

    fn rejects(args: &str, needle: &str) {
        let err = parse(args).expect_err(args);
        assert!(err.contains(needle), "{args}: {err}");
    }

    #[test]
    fn run_takes_its_flags() {
        let a = parse(
            "run bell.qasm --shots 7 --seed 9 --threads 3 --metrics m.json \
             --trace t.json --faults all=0.1 --fault-seed 5 --profile --critpath --no-fuse",
        )
        .unwrap();
        assert_eq!(a.command, "run");
        assert_eq!(a.file.as_deref(), Some("bell.qasm"));
        assert_eq!((a.shots, a.seed, a.threads), (7, 9, 3));
        assert!(a.profile && a.critpath && a.no_fuse);
        assert_eq!(a.metrics.as_deref(), Some("m.json"));
        assert_eq!(a.trace_out.as_deref(), Some("t.json"));
        assert_eq!(a.faults.as_deref(), Some("all=0.1"));
        assert_eq!(a.fault_seed, Some(5));
        let d = parse("disasm bell.qasm").unwrap();
        assert_eq!((d.shots, d.seed, d.threads), (1000, 42, 1));
        assert!(!d.profile && !d.no_fuse && d.metrics.is_none());
        assert_eq!(parse("trace bell.qasm --shots 3").unwrap().shots, 3);
    }

    #[test]
    fn batch_takes_its_flags() {
        let a = parse(
            "batch --jobs f.json --threads 4 --metrics m.json --job-metrics dir --only a \
             --profile --critpath --retries 3 --deadline 9000 --ledger l.txt --no-fuse --no-cache",
        )
        .unwrap();
        assert_eq!(a.command, "batch");
        assert_eq!(a.jobs.as_deref(), Some("f.json"));
        assert_eq!(a.threads, 4);
        assert_eq!(a.metrics.as_deref(), Some("m.json"));
        assert_eq!(a.job_metrics.as_deref(), Some("dir"));
        assert_eq!(a.only.as_deref(), Some("a"));
        assert_eq!(a.ledger.as_deref(), Some("l.txt"));
        assert!(a.profile && a.critpath && a.no_fuse && a.no_cache);
        assert_eq!(
            a.job_keys,
            [
                ("retries", JsonValue::Number(3.0)),
                ("deadline_ns", JsonValue::Number(9000.0)),
            ]
        );
        rejects("batch --threads 2", "batch needs --jobs");
    }

    #[test]
    fn job_key_flags_set_the_file_keys_fields() {
        let a = parse("batch --jobs f.json --retries 3 --deadline 9000").unwrap();
        let mut job = JobSpec::new("a", WorkloadKind::Vqe, 8);
        for (key, value) in &a.job_keys {
            job.set(key, value).unwrap();
        }
        assert_eq!(job.retry_budget, 3);
        assert_eq!(job.deadline, Some(SimDuration::from_ns(9000)));
    }

    #[test]
    fn flags_of_the_other_subcommand_are_unknown() {
        for flag in [
            "--shots 5",
            "--seed 1",
            "--trace t.json",
            "--faults all=0.1",
        ] {
            rejects(&format!("batch --jobs f.json {flag}"), "unknown argument");
        }
        rejects("batch --jobs f.json --fault-seed 1", "unknown argument");
        rejects("batch --jobs f.json extra.qasm", "unknown argument");
        for flag in [
            "--jobs f.json",
            "--job-metrics d",
            "--only a",
            "--retries 1",
        ] {
            rejects(&format!("run bell.qasm {flag}"), "unknown argument");
        }
        for flag in ["--deadline 5", "--ledger l", "--no-cache"] {
            rejects(&format!("run bell.qasm {flag}"), "unknown argument");
        }
        rejects("run a.qasm b.qasm", "unknown argument");
    }

    #[test]
    fn removed_cache_flags_are_unknown() {
        rejects("run bell.qasm --cache", "unknown argument \"--cache\"");
        rejects(
            "run bell.qasm --cache-capacity 8",
            "unknown argument \"--cache-capacity\"",
        );
        rejects(
            "batch --jobs f.json --cache-capacity 8",
            "unknown argument \"--cache-capacity\"",
        );
    }

    #[test]
    fn removed_noise_flag_is_unknown() {
        rejects("run bell.qasm --noise", "unknown argument \"--noise\"");
        rejects(
            "batch --jobs f.json --noise",
            "unknown argument \"--noise\"",
        );
    }

    #[test]
    fn removed_chaos_flag_is_unknown() {
        rejects("batch --chaos", "unknown argument \"--chaos\"");
        rejects("batch --chaos --threads 2", "unknown argument \"--chaos\"");
        rejects(
            "batch --jobs f.json --chaos",
            "unknown argument \"--chaos\"",
        );
        rejects("run bell.qasm --chaos", "unknown argument \"--chaos\"");
    }

    #[test]
    fn missing_values_and_bad_numbers_are_errors() {
        rejects("run bell.qasm --shots", "--shots needs a value");
        rejects("batch --jobs", "--jobs needs a value");
        rejects("batch --jobs f.json --retries", "--retries needs a value");
        rejects("run bell.qasm --shots many", "bad --shots");
        rejects("run bell.qasm --threads -1", "bad --threads");
        rejects("batch --jobs f.json --threads x", "bad --threads");
        rejects(
            "batch --jobs f.json --deadline soon",
            "\"deadline_ns\" must be",
        );
        rejects("bogus bell.qasm", "unknown command \"bogus\"");
        rejects("run", "usage");
        assert!(parse("").is_err());
    }

    #[test]
    fn retries_past_u32_fail_like_the_file_key() {
        rejects(
            "batch --jobs f.json --retries 4294967296",
            "retries 4294967296 exceeds u32",
        );
    }
}
