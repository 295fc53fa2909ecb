//! Perf-trajectory snapshots: the `BENCH_<name>.json` schema and its
//! distiller.
//!
//! A snapshot is a small stable JSON document recording the tracked
//! medians of one benchmark family:
//!
//! ```json
//! {
//!   "schema": 1,
//!   "name": "end_to_end",
//!   "kind": "sim",
//!   "unit": "ns",
//!   "entries": {
//!     "vqe_8_spsa": {"median_ns": 123456, "mean_ns": 123456}
//!   }
//! }
//! ```
//!
//! [`distill_sim`] runs a pinned workload suite and records **sim-time**
//! totals. They are bitwise deterministic, so committed snapshots are
//! reproducible on any machine and a drift is a real modelling change,
//! not noise. The gate is a byte comparison of a re-distilled snapshot
//! with the committed file.

use std::collections::BTreeMap;

use qtenon_core::config::{CoreModel, QtenonConfig};
use qtenon_core::jobs::JobOptimizer;
use qtenon_core::vqa::VqaRunner;
use qtenon_sim_engine::json;
use qtenon_workloads::{Workload, WorkloadKind};

/// Schema version stamped into every snapshot.
pub(crate) const SCHEMA_VERSION: u64 = 1;

/// One tracked measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BenchEntry {
    /// Median latency in nanoseconds.
    pub median_ns: f64,
    /// Mean latency in nanoseconds.
    pub mean_ns: f64,
}

/// A `BENCH_<name>.json` document.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchSnapshot {
    /// Snapshot family name (`end_to_end`, `profile_vqe`, ...).
    pub name: String,
    /// Measurement source: `sim` or `profile`.
    pub kind: String,
    /// Entry id → measurement, sorted by id.
    pub entries: BTreeMap<String, BenchEntry>,
}

impl BenchSnapshot {
    /// An empty snapshot of the given family and source.
    pub(crate) fn new(name: &str, kind: &str) -> Self {
        BenchSnapshot {
            name: name.to_string(),
            kind: kind.to_string(),
            entries: BTreeMap::new(),
        }
    }

    /// Records one entry.
    pub(crate) fn record(&mut self, id: &str, median_ns: f64, mean_ns: f64) {
        self.entries
            .insert(id.to_string(), BenchEntry { median_ns, mean_ns });
    }

    /// Serialises the snapshot. Entries are id-sorted and number
    /// formatting is fixed, so equal snapshots are byte-equal files.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"schema\": {SCHEMA_VERSION},\n"));
        out.push_str(&format!("  \"name\": \"{}\",\n", json::escape(&self.name)));
        out.push_str(&format!("  \"kind\": \"{}\",\n", json::escape(&self.kind)));
        out.push_str("  \"unit\": \"ns\",\n");
        out.push_str("  \"entries\": {\n");
        for (i, (id, e)) in self.entries.iter().enumerate() {
            out.push_str(&format!(
                "    \"{}\": {{\"median_ns\": {}, \"mean_ns\": {}}}{}\n",
                json::escape(id),
                format_ns(e.median_ns),
                format_ns(e.mean_ns),
                if i + 1 < self.entries.len() { "," } else { "" }
            ));
        }
        out.push_str("  }\n}\n");
        out
    }
}

/// The pinned deterministic suites [`distill_sim`] knows how to run.
pub const SIM_SUITES: &[&str] = &["end_to_end", "profile_vqe"];

// The suites pin their own scale instead of borrowing
// `ExperimentScale::quick()`: retuning the quick experiments must never
// silently shift the committed perf trajectory.
const PIN_ITERATIONS: usize = 2;
const PIN_SHOTS: u64 = 100;
const PIN_SEED: u64 = 42;

fn pinned_run(kind: WorkloadKind, n: u32, opt: JobOptimizer) -> qtenon_core::report::RunReport {
    let config = QtenonConfig::table4(n, CoreModel::Rocket)
        .expect("valid config")
        .with_seed(PIN_SEED);
    let workload = Workload::benchmark(kind, n, PIN_SEED).expect("valid workload");
    let mut runner = VqaRunner::new(config, workload).expect("runner builds");
    let mut optimizer = opt.build(PIN_SEED);
    runner
        .run(optimizer.as_mut(), PIN_ITERATIONS, PIN_SHOTS)
        .expect("pinned run succeeds")
}

/// Runs a pinned simulation suite and distils its deterministic
/// sim-time measurements. Returns `None` for an unknown suite name
/// (see [`SIM_SUITES`]).
pub fn distill_sim(suite: &str) -> Option<BenchSnapshot> {
    match suite {
        "end_to_end" => {
            // Hybrid-loop total latency across the workload mix. A single
            // deterministic run has no distribution: median == mean.
            let mut snap = BenchSnapshot::new("end_to_end", "sim");
            for (id, kind, n, opt) in [
                ("vqe_8_spsa", WorkloadKind::Vqe, 8, JobOptimizer::Spsa),
                ("qaoa_8_spsa", WorkloadKind::Qaoa, 8, JobOptimizer::Spsa),
                ("qnn_8_spsa", WorkloadKind::Qnn, 8, JobOptimizer::Spsa),
                ("vqe_16_gd", WorkloadKind::Vqe, 16, JobOptimizer::Gd),
            ] {
                let report = pinned_run(kind, n, opt);
                let total_ns = (report.total.as_ps() / 1_000) as f64;
                snap.record(id, total_ns, total_ns);
            }
            Some(snap)
        }
        "profile_vqe" => {
            // Per-phase attribution of the representative VQE: median is
            // the phase histogram's p50, mean is total/count.
            let report = pinned_run(WorkloadKind::Vqe, 8, JobOptimizer::Spsa);
            let mut snap = BenchSnapshot::new("profile_vqe", "profile");
            for row in &report.phases.rows {
                if row.count == 0 {
                    continue;
                }
                let median = row.hist.p50().unwrap_or(0) as f64;
                let mean = row.total_ns as f64 / row.count as f64;
                snap.record(&row.name, median, mean);
            }
            Some(snap)
        }
        _ => None,
    }
}

/// Formats a non-negative nanosecond quantity for a snapshot file:
/// integers stay integers, fractional values keep three decimals. The
/// fixed rule makes re-distilled snapshots byte-stable.
fn format_ns(value: f64) -> String {
    if value.fract() == 0.0 && value.abs() < 9_007_199_254_740_992.0 {
        format!("{}", value as i64)
    } else {
        format!("{value:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_ns_is_stable() {
        assert_eq!(format_ns(1500.0), "1500");
        assert_eq!(format_ns(0.0), "0");
        assert_eq!(format_ns(1234.5), "1234.500");
        assert_eq!(format_ns(0.03125), "0.031");
    }

    #[test]
    fn snapshot_json_is_id_sorted_and_byte_stable() {
        let mut s = BenchSnapshot::new("end_to_end", "sim");
        s.record("b", 1234.5, 1300.25);
        s.record("a", 10.0, 10.0);
        let text = s.to_json();
        let expected = r#"{
  "schema": 1,
  "name": "end_to_end",
  "kind": "sim",
  "unit": "ns",
  "entries": {
    "a": {"median_ns": 10, "mean_ns": 10},
    "b": {"median_ns": 1234.500, "mean_ns": 1300.250}
  }
}
"#;
        assert_eq!(text, expected);
        // id-sorted output regardless of insertion order
        assert!(text.find("\"a\"").unwrap() < text.find("\"b\"").unwrap());
    }

    #[test]
    fn sim_suites_are_deterministic_and_known() {
        assert!(distill_sim("no_such_suite").is_none());
        let a = distill_sim("profile_vqe").unwrap();
        let b = distill_sim("profile_vqe").unwrap();
        assert_eq!(a.to_json(), b.to_json());
        // The committed trajectory re-distils bit for bit: a drift is a
        // modelling change, and the snapshot must be re-committed with it.
        assert_eq!(a.to_json(), include_str!("../../../BENCH_profile_vqe.json"));
        assert!(a.entries.contains_key("vqa.quantum_execute"));
        assert!(a.entries.contains_key("chip.execute"));
    }

    #[test]
    fn end_to_end_suite_covers_workload_mix() {
        let snap = distill_sim("end_to_end").unwrap();
        assert_eq!(
            snap.entries.keys().collect::<Vec<_>>(),
            vec!["qaoa_8_spsa", "qnn_8_spsa", "vqe_16_gd", "vqe_8_spsa"]
        );
        for e in snap.entries.values() {
            assert!(e.median_ns > 0.0);
        }
        assert_eq!(
            snap.to_json(),
            include_str!("../../../BENCH_end_to_end.json")
        );
    }
}
