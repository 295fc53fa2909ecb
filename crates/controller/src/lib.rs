//! The Qtenon quantum controller (Section 5.2–5.3).
//!
//! The controller sits between the host memory hierarchy and the quantum
//! chip, owning the quantum controller cache and the pulse compute units.
//! This crate models the hardware structures from Figs. 5–7 (the Write
//! Buffer Queue has no model of its own: `q_set` bytes are charged as
//! 256-bit beats on the [`bus`]):
//!
//! - [`rbq`]: the Reorder Buffer Queue — 32 tagged outstanding TileLink
//!   transactions realigned to issue order;
//! - [`bus`]: the TileLink system-bus timing model with tag-limited
//!   pipelining;
//! - [`slt`]: the per-qubit Skip Lookup Table with Least-Count replacement
//!   and QSpace write-back (Fig. 7);
//! - [`pgu`]: the pulse-generation-unit pool (8 units × 1000-cycle
//!   black-box latency, priority-encoder dispatch);
//! - [`pipeline`]: the four-stage pulse pipeline tying it together
//!   (Fig. 6);
//! - [`adi`]: the Analog-Digital-Interface latency model (100 ns per
//!   direction).

#![deny(unsafe_code)]
#![deny(dead_code)]

pub mod adi;
pub mod bus;
pub mod error;
pub mod pgu;
pub mod pipeline;
pub mod rbq;
pub mod readout;
pub mod slt;

pub use adi::AdiModel;
pub use bus::{BusConfig, TileLinkBus};
pub use error::ControllerError;
pub use pgu::PguPool;
pub use pipeline::{PipelineConfig, PipelineReport, PulsePipeline};
pub use rbq::ReorderBufferQueue;
pub use readout::ReadoutProcessor;
pub use slt::{PulseResolution, SltController, SltStats};
