//! Simulation-time kernel for the Qtenon reproduction.
//!
//! This crate is the timing substrate every other Qtenon crate builds on.
//! There is no event queue: each simulated op threads a [`SimTime`]
//! through the components it visits. The crate provides:
//!
//! - [`SimTime`] and [`SimDuration`]: picosecond-resolution simulation time,
//!   so that a 2 GHz DAC (0.5 ns period) and a 1 GHz host core can coexist
//!   without rounding error;
//! - [`ClockDomain`]: frequency-aware cycle/time conversion for the paper's
//!   three clock domains (1 GHz host, 200 MHz controller SRAM, 2 GHz DAC);
//! - [`json`]: the workspace's one JSON reader and string escaper;
//! - [`metrics`]: the unified telemetry layer — a hierarchical registry
//!   of counters, gauges, and log-bucketed latency histograms with JSON
//!   and Prometheus exporters;
//! - [`opcount`]: the abstract-operation counter that drives the host core
//!   cost models;
//! - [`profile`]: span-based latency attribution — one span accumulator
//!   ([`SpanStats`]) and one name-sorted table of them ([`SpanTable`]),
//!   fed by deterministic sim-time phase spans, plus explicitly unstable
//!   wall-clock scopes; the table renders as text and exports the
//!   `profile.*` metrics namespace;
//! - [`critpath`]: causal critical-path analysis — a provenance arena of
//!   who-enabled-whom events walked backwards into per-edge blocking-time
//!   attribution, frozen into the same [`SpanTable`] (the
//!   `critpath.edge.*` namespace);
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
//! use qtenon_sim_engine::{ClockDomain, SimDuration, SimTime};
//!
//! // An op threads its time through each component it visits.
//! let host = ClockDomain::from_ghz(1.0);
//! let sram = ClockDomain::from_mhz(200.0);
//! let issued = SimTime::ZERO + host.cycles(3);
//! let ready = issued + sram.cycles(2);
//! assert_eq!(ready.elapsed(), SimDuration::from_ns(13));
//! ```

#![deny(unsafe_code)]
#![deny(dead_code)]

pub mod clock;
pub mod critpath;
pub mod faults;
pub mod json;
pub mod metrics;
pub mod opcount;
pub mod profile;
pub mod rng;
pub mod time;

pub use clock::ClockDomain;
pub use critpath::{CritPathTracker, EdgeId};
pub use faults::{FaultInjector, FaultPlan, FaultSite, FaultSpecError};
pub use metrics::{Histogram, MetricValue, MetricsRegistry, MetricsSnapshot};
pub use opcount::{OpClass, OpCounter};
pub use profile::{PhaseId, Profiler, SpanRow, SpanStats, SpanTable};
pub use rng::{splitmix64, stream_seed, unit};
pub use time::{SimDuration, SimTime};
