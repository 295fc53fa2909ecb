//! Hybrid quantum-classical workloads: the three benchmark VQAs and their
//! classical optimizers (Section 7.1).
//!
//! - [`graph`]: deterministic problem graphs for MAX-CUT;
//! - [`workload`]: QAOA (standard alternating ansatz, five layers), VQE
//!   (hardware-efficient ansatz over a molecular-stand-in Hamiltonian),
//!   and QNN (alternating RY(θ)/CZ, two layers) builders producing
//!   native, symbolic circuits plus their cost Hamiltonians;
//! - [`optimizer`]: Gradient Descent via the parameter-shift rule (one
//!   parameter per evaluation — many communication rounds, light
//!   post-processing) and SPSA (two evaluations per iteration regardless
//!   of parameter count), both instrumented with
//!   [`OpCounter`](qtenon_sim_engine::OpCounter) so host core models can
//!   convert their real arithmetic to cycles;
//! - [`cost`]: shot-based cost evaluation with op counting.
//!
//! # Examples
//!
//! ```
//! use qtenon_workloads::{Optimizer, SpsaOptimizer, Workload};
//!
//! let w = Workload::qaoa(8, 5, 42)?;
//! assert_eq!(w.num_params(), 10); // 2 × layers
//! let mut opt = SpsaOptimizer::new(42);
//! let plan = opt.iteration_plan(&w.initial_params);
//! assert_eq!(plan.len(), 2); // SPSA: two evaluations per iteration
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(unsafe_code)]
#![deny(dead_code)]

pub mod cost;
pub mod graph;
pub mod optimizer;
pub mod workload;

pub use cost::CostEvaluator;
pub use graph::Graph;
pub use optimizer::{GradientDescentOptimizer, Optimizer, SpsaOptimizer};
pub use workload::{Workload, WorkloadKind};

/// Convenience alias used throughout: a parameter vector.
pub(crate) type Params = Vec<f64>;
