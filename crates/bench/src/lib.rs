//! Experiment harness regenerating every table and figure of the paper.
//!
//! Each `fig*`/`table*` function runs the relevant systems and returns a
//! structured result; the `experiments` binary formats them as text
//! tables. [`ExperimentScale`] controls cost: [`ExperimentScale::quick`]
//! shrinks iterations/shots/sweeps for CI-class machines while keeping
//! every speedup ratio meaningful (both systems scale together);
//! [`ExperimentScale::paper`] reproduces the full Section 7.1 setup
//! (500 shots × 10 iterations, 8–64 qubits).

#![deny(unsafe_code)]
#![deny(dead_code)]

//!
//! The crate also carries the perf-trajectory tooling: [`distill`]
//! produces the stable `BENCH_<name>.json` snapshots (driven by the
//! `qtenon-bench` binary), which CI re-distils and `cmp`s against the
//! committed files.

pub mod distill;
pub mod experiments;
pub mod table;

pub use distill::BenchSnapshot;
pub use experiments::ExperimentScale;
pub use table::TextTable;
