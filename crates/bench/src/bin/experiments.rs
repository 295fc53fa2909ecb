//! Regenerates every table and figure of the paper as text tables.
//!
//! Usage:
//!
//! ```text
//! experiments [--full] [--threads N] [--metrics out.json] [ids...]
//! ```
//!
//! With no ids, all experiments run. `--full` uses the paper-scale setup
//! (500 shots × 10 iterations, 8–64 qubit sweeps); the default quick
//! scale preserves every ratio's shape at a fraction of the runtime.
//! `--threads N` shards shot sampling over `N` worker threads — wall
//! clock drops, every table stays bitwise identical. `--metrics PATH`
//! additionally runs the representative 64-qubit VQE and dumps its full
//! metric tree to `PATH` (JSON) and `PATH.prom` (Prometheus text format).
//! Valid ids: `fig1 table1 table2 table4 fig11 fig12 fig13 fig14 table5
//! fig15 fig16a fig16b fig17 ablation resilience breakdown
//! critpath`; an unknown id exits 2. Every study measures sim time; host
//! wall time is `perfbench`'s. Every table is also mirrored to
//! `target/experiments/<file id>.txt` (gitignored), with the path
//! printed after each table.

use qtenon_bench::experiments::{self, ExperimentScale};
use qtenon_bench::TextTable;
use qtenon_core::jobs::JobOptimizer;

type Study = fn(&ExperimentScale) -> TextTable;

/// Every table the harness prints, in print order: (selector on the
/// command line, file id, title, study). One selector may print several
/// tables (`fig14` prints one per optimizer).
const STUDIES: &[(&str, &str, &str, Study)] = &[
    (
        "fig1",
        "fig1",
        "Fig. 1 — baseline time shares (quantum execution is a minor fraction)",
        experiments::fig1,
    ),
    (
        "table1",
        "table1",
        "Table 1 — decoupled vs tightly coupled systems",
        experiments::table1,
    ),
    (
        "table2",
        "table2",
        "Table 2 — quantum controller cache design for 64 qubits",
        |_| experiments::table2(),
    ),
    (
        "table4",
        "table4",
        "Table 4 — hardware configuration",
        |_| experiments::table4(),
    ),
    (
        "fig11",
        "fig11",
        "Fig. 11 — speedups under Gradient Descent",
        |s| experiments::fig11_12(s, JobOptimizer::Gd),
    ),
    ("fig12", "fig12", "Fig. 12 — speedups under SPSA", |s| {
        experiments::fig11_12(s, JobOptimizer::Spsa)
    }),
    (
        "fig13",
        "fig13",
        "Fig. 13 — 64-qubit VQE (SPSA) end-to-end breakdown",
        experiments::fig13,
    ),
    (
        "fig14",
        "fig14_gd",
        "Fig. 14 — quantum-host communication (GD)",
        |s| experiments::fig14(s, JobOptimizer::Gd),
    ),
    (
        "fig14",
        "fig14_spsa",
        "Fig. 14 — quantum-host communication (SPSA)",
        |s| experiments::fig14(s, JobOptimizer::Spsa),
    ),
    (
        "table5",
        "table5",
        "Table 5 — pulse generation speedup and computation reduction",
        experiments::table5,
    ),
    (
        "fig15",
        "fig15",
        "Fig. 15 — host execution time",
        experiments::fig15,
    ),
    (
        "fig16a",
        "fig16a",
        "Fig. 16a — FENCE vs fine-grained synchronisation",
        experiments::fig16a,
    ),
    (
        "fig16b",
        "fig16b",
        "Fig. 16b — transmission scheduling (Algorithm 1)",
        experiments::fig16b,
    ),
    (
        "fig17",
        "fig17",
        "Fig. 17 — scalability",
        experiments::fig17,
    ),
    (
        "ablation",
        "ablation",
        "Ablation (beyond the paper) — PGU pool width × SLT reuse",
        experiments::ablation,
    ),
    (
        "resilience",
        "resilience",
        "Resilience (beyond the paper) — 64-qubit VQE under fault injection",
        experiments::resilience,
    ),
    (
        "breakdown",
        "breakdown",
        "Breakdown (beyond the paper) — phase-level latency attribution \
         (deterministic sim time, same rows as `qtenon run --profile`)",
        experiments::breakdown,
    ),
    (
        "critpath",
        "critpath",
        "Critical path (beyond the paper) — who-blocks-whom causal attribution, \
         Qtenon vs decoupled baseline (same rows as `qtenon run --critpath`)",
        experiments::critpath,
    ),
];

fn main() {
    let mut full = false;
    let mut threads = 1usize;
    let mut metrics_path: Option<String> = None;
    let mut ids: Vec<&str> = Vec::new();
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--full" => full = true,
            "--threads" => match argv.next().map(|v| v.parse::<usize>()) {
                Some(Ok(n)) => threads = n,
                _ => {
                    eprintln!("error: --threads needs a number");
                    std::process::exit(2);
                }
            },
            "--metrics" => match argv.next() {
                Some(path) => metrics_path = Some(path),
                None => {
                    eprintln!("error: --metrics needs a path");
                    std::process::exit(2);
                }
            },
            other if other.starts_with("--") => {
                eprintln!("error: unknown flag {other:?}");
                std::process::exit(2);
            }
            other => match STUDIES.iter().find(|&&(selector, ..)| selector == other) {
                Some(&(selector, ..)) => ids.push(selector),
                None => {
                    let mut valid: Vec<&str> =
                        STUDIES.iter().map(|&(selector, ..)| selector).collect();
                    valid.dedup();
                    eprintln!(
                        "error: unknown experiment id {other:?}; valid ids: {}",
                        valid.join(" ")
                    );
                    std::process::exit(2);
                }
            },
        }
    }
    let scale = if full {
        ExperimentScale::paper()
    } else {
        ExperimentScale::quick()
    }
    .with_threads(threads);
    let all = ids.is_empty();
    let want = |id: &str| all || ids.contains(&id);
    println!(
        "# Qtenon experiment harness ({} scale: {} iterations, {} shots, {} thread{})\n",
        if full { "paper" } else { "quick" },
        scale.iterations,
        scale.shots,
        scale.threads,
        if scale.threads == 1 { "" } else { "s" }
    );

    for &(selector, id, title, study) in STUDIES {
        if want(selector) {
            section(id, title, study(&scale).to_string());
        }
    }

    if let Some(path) = metrics_path {
        let snapshot = experiments::telemetry_snapshot(&scale);
        let prom_path = format!("{path}.prom");
        if let Err(e) = std::fs::write(&path, snapshot.to_json())
            .and_then(|()| std::fs::write(&prom_path, snapshot.to_prometheus()))
        {
            eprintln!("error: cannot write telemetry: {e}");
            std::process::exit(1);
        }
        println!(
            "## Telemetry — {} metrics from the 64-qubit VQE written to {path} and {prom_path}\n",
            snapshot.len()
        );
    }
}

/// Prints a study and mirrors it to `target/experiments/<id>.txt`
/// (gitignored), announcing the path so runs leave no stray artefacts
/// in the repo root.
fn section(id: &str, title: &str, body: String) {
    println!("## {title}\n");
    println!("{body}");
    let dir = std::path::Path::new("target").join("experiments");
    let path = dir.join(format!("{id}.txt"));
    let contents = format!("## {title}\n\n{body}");
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, contents)) {
        Ok(()) => println!("[wrote {}]\n", path.display()),
        Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
    }
}
