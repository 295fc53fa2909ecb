//! Perf-trajectory tool: distils a pinned sim-time suite into a
//! `BENCH_<name>.json` snapshot.
//!
//! Usage:
//!
//! ```text
//! qtenon-bench distill --sim <suite> [--out PATH]
//! ```
//!
//! `distill --sim` runs a pinned deterministic suite (`end_to_end` or
//! `profile_vqe`) and records sim-time medians, reproducible bit-for-bit
//! on any machine. `--out` defaults to `BENCH_<name>.json` in the
//! current directory. A committed snapshot is checked by re-distilling
//! it and `cmp`-ing the two files.

use std::path::Path;
use std::process::exit;

use qtenon_bench::distill::{self, distill_sim};

fn main() {
    let mut argv = std::env::args().skip(1);
    match argv.next().as_deref() {
        Some("distill") => run_distill(argv.collect()),
        Some("--help" | "-h" | "help") | None => {
            eprintln!(
                "usage: qtenon-bench distill --sim <{}>",
                distill::SIM_SUITES.join("|")
            );
            eprintln!("          [--out PATH]   (default BENCH_<name>.json)");
            exit(if std::env::args().len() > 1 { 0 } else { 2 });
        }
        Some(other) => die(&format!("unknown command {other:?}")),
    }
}

fn die(message: &str) -> ! {
    eprintln!("error: {message}");
    exit(2);
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .map(|i| match args.get(i + 1) {
            Some(v) => v.clone(),
            None => die(&format!("{flag} needs a value")),
        })
}

/// Rejects anything but `--sim VALUE` and `--out VALUE` pairs.
fn check_known_flags(args: &[String]) {
    for pair in args.chunks(2) {
        let a = &pair[0];
        if !a.starts_with("--") {
            die(&format!("unexpected argument {a:?}"));
        }
        if a != "--sim" && a != "--out" {
            die(&format!("unknown flag {a:?}"));
        }
    }
}

fn run_distill(args: Vec<String>) {
    check_known_flags(&args);
    let suite = flag_value(&args, "--sim").unwrap_or_else(|| die("distill needs --sim"));
    let snapshot = distill_sim(&suite).unwrap_or_else(|| {
        die(&format!(
            "unknown sim suite {suite:?} (known: {})",
            distill::SIM_SUITES.join(", ")
        ))
    });
    let out = flag_value(&args, "--out").unwrap_or_else(|| format!("BENCH_{}.json", snapshot.name));
    if let Some(parent) = Path::new(&out)
        .parent()
        .filter(|p| !p.as_os_str().is_empty())
    {
        let _ = std::fs::create_dir_all(parent);
    }
    std::fs::write(&out, snapshot.to_json())
        .unwrap_or_else(|e| die(&format!("cannot write {out}: {e}")));
    println!(
        "wrote {out}: {} entries ({} {})",
        snapshot.entries.len(),
        snapshot.kind,
        snapshot.name
    );
}
