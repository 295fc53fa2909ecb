//! The decoupled baseline system (Section 7.1's comparison target).
//!
//! The baseline reproduces the classic architecture of Fig. 2: a
//! workstation-class host (i9-14900K + 64 GB DDR5 running a
//! Python/Qiskit-class software stack), an FPGA controller reached over a
//! 100-gigabit Ethernet/UDP link, and the quantum chip behind a 100 ns
//! Analog-Digital Interface. Execution is strictly sequential: compile →
//! upload → pulse generation (1000 ns per pulse, no reuse) → quantum run
//! (per-shot result packets) → host post-processing — then recompile from
//! scratch for the next evaluation.
//!
//! - [`network`]: the Ethernet/UDP link model;
//! - [`host_model`]: the i9-plus-software-stack host cost model;
//! - [`runner`]: [`BaselineRunner`], timing the [`qtenon_core::Trajectory`]
//!   of a Qtenon run into the same [`qtenon_core::RunReport`], so
//!   experiments compare two timing models of one physics.

#![deny(unsafe_code)]
#![deny(dead_code)]

pub mod host_model;
pub mod network;
pub mod runner;

pub use host_model::BaselineHostModel;
pub use network::NetworkModel;
pub use runner::{BaselineConfig, BaselineRunner};
