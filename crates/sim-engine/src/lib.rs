//! Discrete-event simulation kernel for the Qtenon reproduction.
//!
//! This crate is the timing substrate every other Qtenon crate builds on. It
//! provides:
//!
//! - [`SimTime`] and [`SimDuration`]: picosecond-resolution simulation time,
//!   so that a 2 GHz DAC (0.5 ns period) and a 1 GHz host core can coexist
//!   without rounding error;
//! - [`ClockDomain`]: frequency-aware cycle/time conversion for the paper's
//!   three clock domains (1 GHz host, 200 MHz controller SRAM, 2 GHz DAC);
//! - [`EventQueue`]: a deterministic priority queue of timestamped events
//!   with stable FIFO ordering among simultaneous events;
//! - [`json`]: the workspace's one JSON reader and string escaper;
//! - [`metrics`]: the unified telemetry layer — a hierarchical registry
//!   of counters, gauges, and log-bucketed latency histograms with JSON
//!   and Prometheus exporters;
//! - [`opcount`]: the abstract-operation counter that drives the host core
//!   cost models;
//! - [`profile`]: span-based latency attribution — deterministic
//!   sim-time phase spans plus explicitly unstable wall-clock scopes,
//!   distilled into the `profile.*` metrics namespace and per-run
//!   [`PhaseTable`]s;
//! - [`critpath`]: causal critical-path analysis — a provenance arena of
//!   who-enabled-whom events walked backwards into per-edge blocking-time
//!   attribution (the `critpath.edge.*` namespace and per-run
//!   [`CritPathReport`]s);
//! - [`faults`]: deterministic, seeded fault injection ([`FaultPlan`] /
//!   [`FaultInjector`]) used by the component models to exercise their
//!   retry/degradation paths reproducibly;
//! - [`rng`]: the engine's splittable SplitMix64 generator and the
//!   [`stream_seed`] derivation that gives every shot (and every fault
//!   site) an independent, thread-count-invariant random stream.
//!
//! # Examples
//!
//! ```
//! use qtenon_sim_engine::{ClockDomain, EventQueue, SimTime};
//!
//! let host = ClockDomain::from_ghz(1.0);
//! let mut queue = EventQueue::new();
//! queue.push(SimTime::ZERO + host.cycles(3), "pulse ready");
//! queue.push(SimTime::ZERO + host.cycles(1), "request issued");
//! assert_eq!(queue.pop().unwrap().1, "request issued");
//! ```

#![deny(unsafe_code)]

pub mod clock;
pub mod critpath;
pub mod event;
pub mod faults;
pub mod json;
pub mod metrics;
pub mod opcount;
pub mod profile;
pub mod rng;
pub mod time;

pub use clock::ClockDomain;
pub use critpath::{CritKind, CritPathReport, CritPathRow, CritPathTracker, EdgeId};
pub use event::EventQueue;
pub use faults::{FaultInjector, FaultPlan, FaultSite, FaultSpecError};
pub use metrics::{Histogram, MetricValue, MetricsRegistry, MetricsSnapshot};
pub use opcount::{OpClass, OpCounter};
pub use profile::{PhaseId, PhaseRow, PhaseTable, Profiler};
pub use rng::{splitmix64, stream_seed, unit};
pub use time::{SimDuration, SimTime};
