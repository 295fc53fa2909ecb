//! Causal critical-path analysis.
//!
//! The `profile` module answers *where time was spent*; this module
//! answers *which component was on the blocking chain*. A phase can be
//! long yet fully overlapped with other work and therefore irrelevant to
//! end-to-end latency — only the chain of events where each one causally
//! enabled the next (a bus grant, a PGU dispatch, an RBQ pop, a readout
//! drain, a host ACK) explains the finish time.
//!
//! A [`CritPathTracker`] maintains a compact arena of provenance nodes
//! `(cause, edge, sim_time)` with interned edge labels (mirroring
//! [`crate::profile::PhaseId`] interning). Components call
//! [`CritPathTracker::advance`] as their work completes; each call links
//! a new node to the current chain head. After a run,
//! [`CritPathTracker::report`] walks backwards from the final event and
//! aggregates the path into per-edge blocking-time attribution — the
//! same [`SpanTable`] the profiler's phases freeze into, rendered with
//! a per-component section by [`SpanTable::render_critpath`].
//!
//! # Determinism contract
//!
//! Node times derive exclusively from [`SimTime`] arithmetic and
//! recording is unconditional, so the arena — and everything distilled
//! from it (the report, the `critpath.edge.*` metrics namespace, the
//! rendered table) — is byte-identical across thread counts, across
//! batch-vs-standalone execution, and under inert fault plans.
//!
//! # Monotone-chain invariant
//!
//! [`CritPathTracker::advance`] clamps each node's time to be no earlier
//! than its cause's. When downstream work overlaps the chain (e.g. a
//! result batch streamed to the host *before* the chip finished its last
//! shot), only the *exposed* portion — the time past the previous chain
//! node — is charged to the edge. Overlapped time is attributed to
//! nothing, which is exactly the point: it was not blocking.
//!
//! # Examples
//!
//! ```
//! use qtenon_sim_engine::critpath::CritPathTracker;
//! use qtenon_sim_engine::{SimDuration, SimTime};
//!
//! let mut t = CritPathTracker::new();
//! let upload = t.edge("host->bus");
//! let execute = t.edge("pipeline->chip");
//! let t0 = SimTime::ZERO;
//! t.open_at(t0);
//! t.advance(upload, t0 + SimDuration::from_ns(40));
//! t.advance(execute, t0 + SimDuration::from_ns(140));
//! let report = t.report();
//! assert_eq!(report.row("pipeline->chip").unwrap().total_ns, 100);
//! ```

use crate::profile::{permille, SpanStats, SpanTable};
use crate::time::{SimDuration, SimTime};

/// An interned causal-edge name: a cheap copyable handle into a
/// [`CritPathTracker`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeId(u16);

/// Sentinel cause for root nodes.
const NO_CAUSE: u32 = u32::MAX;
/// Sentinel label for root nodes (they have no incoming edge).
const NO_EDGE: u16 = u16::MAX;

/// One provenance record: the event's cause, the interned edge it
/// arrived over, and its (clamped) sim time.
#[derive(Debug, Clone, Copy)]
struct CritNode {
    cause: u32,
    edge: u16,
    at: SimTime,
}

/// The causal critical-path tracker: interned edge labels, a compact
/// provenance arena, and the current chain head.
///
/// The tracker is append-only during a run; [`CritPathTracker::reset`]
/// clears the arena but keeps interned labels so previously returned
/// [`EdgeId`]s stay valid (mirroring `Profiler::reset`).
#[derive(Debug, Clone)]
pub struct CritPathTracker {
    labels: Vec<&'static str>,
    nodes: Vec<CritNode>,
    head: u32,
}

impl Default for CritPathTracker {
    fn default() -> Self {
        // Not derivable: an empty tracker's head must be the NO_CAUSE
        // sentinel, not node index 0.
        CritPathTracker::new()
    }
}

impl CritPathTracker {
    /// Creates a tracker with no edges and an empty arena.
    pub fn new() -> Self {
        CritPathTracker {
            labels: Vec::new(),
            nodes: Vec::new(),
            head: NO_CAUSE,
        }
    }

    /// Interns `name`, returning its [`EdgeId`]. Repeated calls with the
    /// same name return the same id.
    ///
    /// # Panics
    ///
    /// Panics if more than `u16::MAX - 1` distinct edges are interned.
    pub fn edge(&mut self, name: &'static str) -> EdgeId {
        if let Some(i) = self.labels.iter().position(|&l| l == name) {
            return EdgeId(i as u16);
        }
        let id = u16::try_from(self.labels.len()).expect("too many edges");
        assert!(id != NO_EDGE, "too many edges");
        self.labels.push(name);
        EdgeId(id)
    }

    /// Opens a new causal chain rooted at `at`, abandoning any previous
    /// head. The root carries no incoming edge and contributes no
    /// attributed time.
    pub fn open_at(&mut self, at: SimTime) {
        self.push(NO_CAUSE, NO_EDGE, at);
    }

    /// Appends a node at `at` whose cause is the current chain head and
    /// advances the head to it. The stored time is clamped to the
    /// cause's time (the monotone-chain invariant: overlapped work
    /// charges only its exposed portion). If no chain is open, the node
    /// auto-roots at `at` first.
    pub fn advance(&mut self, edge: EdgeId, at: SimTime) {
        if self.head == NO_CAUSE {
            self.open_at(at);
        }
        let cause = self.head;
        let clamped = at.max(self.nodes[cause as usize].at);
        self.push(cause, edge.0, clamped);
    }

    /// Appends a node and makes it the chain head.
    fn push(&mut self, cause: u32, edge: u16, at: SimTime) {
        let id = u32::try_from(self.nodes.len()).expect("provenance arena overflow");
        assert!(id != NO_CAUSE, "provenance arena overflow");
        self.nodes.push(CritNode { cause, edge, at });
        self.head = id;
    }

    /// Walks backwards from the chain head to its root, calling `step`
    /// with each node that arrived over an edge and its cause's time.
    fn walk(&self, mut step: impl FnMut(&CritNode, SimTime)) {
        let mut cursor = self.head;
        while cursor != NO_CAUSE {
            let node = &self.nodes[cursor as usize];
            if node.edge != NO_EDGE {
                step(node, self.nodes[node.cause as usize].at);
            }
            cursor = node.cause;
        }
    }

    /// The path in causal (root-first) order as `(edge_name, at)` steps.
    /// The root itself is omitted (it has no incoming edge).
    pub fn path(&self) -> Vec<(&'static str, SimTime)> {
        let mut steps = Vec::new();
        self.walk(|node, _| steps.push((self.labels[node.edge as usize], node.at)));
        steps.reverse();
        steps
    }

    /// Extracts the critical path and aggregates it into per-edge
    /// blocking-time attribution. Each step charges `node.at -
    /// cause.at` (never negative, by the monotone-chain invariant) to
    /// its edge, truncated to whole nanoseconds before it is summed.
    pub fn report(&self) -> SpanTable {
        let mut spans = vec![SpanStats::default(); self.labels.len()];
        self.walk(|node, cause_at| {
            let ns = node.at.saturating_since(cause_at).as_ps() / 1_000;
            spans[node.edge as usize].record(SimDuration::from_ns(ns));
        });
        SpanTable::from_spans(self.labels.iter().copied().zip(&spans))
    }

    /// Forgets the arena and chain head but keeps interned edges, so
    /// previously returned [`EdgeId`]s stay valid.
    pub fn reset(&mut self) {
        self.nodes.clear();
        self.head = NO_CAUSE;
    }
}

/// The critical-path view of a [`SpanTable`] whose rows are causal
/// edges (`host->bus`, `pipeline->chip`, ...).
impl SpanTable {
    /// Total blocking time attributed to `component` — the sum over
    /// edges whose destination (the part after `->`) is `component`.
    pub fn component_ns(&self, component: &str) -> u64 {
        self.rows
            .iter()
            .filter(|r| edge_component(&r.name) == component)
            .map(|r| r.total_ns)
            .sum()
    }

    /// Renders the who-blocks-whom table (see [`SpanTable::render`])
    /// followed by a per-component summary (% of end-to-end on-path per
    /// blocking component, the destination side of each edge). Every
    /// column derives from sim time, so the rendering is byte-stable
    /// across thread counts.
    pub fn render_critpath(&self) -> String {
        if self.rows.is_empty() {
            return String::from("no critical path recorded\n");
        }
        let mut out = self.render("edge");
        let grand = self.total_ns();
        // Per-component section: who holds the chain, summed over every
        // edge that hands off *to* that component.
        let mut components: Vec<(&str, u64)> = Vec::new();
        for r in &self.rows {
            let c = edge_component(&r.name);
            match components.iter_mut().find(|(name, _)| *name == c) {
                Some((_, ns)) => *ns += r.total_ns,
                None => components.push((c, r.total_ns)),
            }
        }
        components.sort_by(|a, b| a.0.cmp(b.0));
        let cwidth = components
            .iter()
            .map(|(name, _)| name.len())
            .max()
            .unwrap_or(0)
            .max(9);
        out.push('\n');
        out.push_str(&format!(
            "{:<cwidth$}  {:>14}  {:>6}\n",
            "component", "sim_total_ns", "share"
        ));
        for (name, ns) in components {
            let share = permille(ns, grand);
            out.push_str(&format!(
                "{:<cwidth$}  {:>14}  {:>5}.{}%\n",
                name,
                ns,
                share / 10,
                share % 10,
            ));
        }
        out
    }
}

/// The component an edge hands off *to*: the substring after `->`, or
/// the whole name for labels without one.
fn edge_component(name: &str) -> &str {
    match name.split_once("->") {
        Some((_, dst)) => dst,
        None => name,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;

    fn at(ns: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_ns(ns)
    }

    #[test]
    fn interning_is_stable() {
        let mut t = CritPathTracker::new();
        let a = t.edge("host->bus");
        let b = t.edge("bus->slt");
        assert_ne!(a, b);
        assert_eq!(t.edge("host->bus"), a);
        assert_eq!(t.edge("bus->slt"), b);
    }

    #[test]
    fn chain_accumulates_edge_durations() {
        let mut t = CritPathTracker::new();
        let up = t.edge("host->bus");
        let run = t.edge("pipeline->chip");
        t.open_at(at(0));
        t.advance(up, at(40));
        t.advance(run, at(140));
        t.advance(up, at(150));
        let r = t.report();
        assert_eq!(r.rows.len(), 2);
        assert_eq!(r.row("host->bus").unwrap().count, 2);
        assert_eq!(r.row("host->bus").unwrap().total_ns, 50);
        assert_eq!(r.row("pipeline->chip").unwrap().total_ns, 100);
        assert_eq!(r.total_ns(), 150);
    }

    #[test]
    fn advance_auto_roots_without_open() {
        let mut t = CritPathTracker::new();
        let e = t.edge("chip->readout");
        assert!(t.path().is_empty());
        t.advance(e, at(25));
        // Auto-root at the same instant: edge fires with zero duration.
        let r = t.report();
        assert_eq!(r.row("chip->readout").unwrap().count, 1);
        assert_eq!(r.row("chip->readout").unwrap().total_ns, 0);
        assert_eq!(t.path(), [("chip->readout", at(25))]);
    }

    #[test]
    fn overlapped_events_clamp_to_monotone_chain() {
        let mut t = CritPathTracker::new();
        let run = t.edge("pipeline->chip");
        let drain = t.edge("chip->readout");
        t.open_at(at(0));
        t.advance(run, at(100));
        // A result batch that completed *before* the chip node: fully
        // overlapped, so the edge charges zero, not negative time.
        t.advance(drain, at(60));
        // The next batch lands after the chain: only the exposed 20 ns
        // past the clamped node is charged.
        t.advance(drain, at(120));
        let r = t.report();
        assert_eq!(r.row("chip->readout").unwrap().count, 2);
        assert_eq!(r.row("chip->readout").unwrap().total_ns, 20);
        assert_eq!(r.total_ns(), 120);
    }

    #[test]
    fn path_walks_root_first() {
        let mut t = CritPathTracker::new();
        let a = t.edge("host->bus");
        let b = t.edge("bus->slt");
        t.open_at(at(0));
        t.advance(a, at(10));
        t.advance(b, at(30));
        let path = t.path();
        assert_eq!(path.len(), 2);
        assert_eq!(path[0], ("host->bus", at(10)));
        assert_eq!(path[1], ("bus->slt", at(30)));
    }

    #[test]
    fn reset_keeps_ids_valid() {
        let mut t = CritPathTracker::new();
        let e = t.edge("readout->host");
        t.open_at(at(0));
        t.advance(e, at(5));
        t.reset();
        assert!(t.path().is_empty());
        assert!(t.report().is_empty());
        t.open_at(at(0));
        t.advance(e, at(7));
        assert_eq!(t.report().row("readout->host").unwrap().total_ns, 7);
    }

    #[test]
    fn render_is_stable_and_shares_sum() {
        let mut t = CritPathTracker::new();
        let a = t.edge("pipeline->chip");
        let b = t.edge("readout->host");
        t.open_at(at(0));
        t.advance(a, at(750));
        t.advance(b, at(1000));
        let r = t.report();
        let r1 = r.render_critpath();
        let r2 = r.render_critpath();
        assert_eq!(r1, r2);
        assert!(r1.contains("75.0%"));
        assert!(r1.contains("25.0%"));
        assert!(r1.starts_with("edge  "));
        assert!(r1.contains("component"));
        assert!(r1.contains("chip"));
        assert!(r1.contains("host"));
    }

    #[test]
    fn empty_report_renders_placeholder() {
        assert_eq!(
            SpanTable::default().render_critpath(),
            "no critical path recorded\n"
        );
    }

    #[test]
    fn component_attribution_sums_inbound_edges() {
        let mut t = CritPathTracker::new();
        let a = t.edge("chip->readout");
        let b = t.edge("readout->host");
        let c = t.edge("host->bus");
        t.open_at(at(0));
        t.advance(a, at(10));
        t.advance(b, at(30));
        t.advance(c, at(60));
        t.advance(b, at(100));
        let r = t.report();
        assert_eq!(r.component_ns("readout"), 10);
        assert_eq!(r.component_ns("host"), 60);
        assert_eq!(r.component_ns("bus"), 30);
        assert_eq!(r.component_ns("absent"), 0);
    }

    #[test]
    fn export_metrics_mirrors_profiler_shape() {
        let mut t = CritPathTracker::new();
        let e = t.edge("host->bus");
        t.open_at(at(0));
        t.advance(e, at(40));
        let mut m = MetricsRegistry::new();
        t.report().export_metrics(&mut m, "critpath.edge");
        assert_eq!(
            m.paths(),
            vec![
                "critpath.edge.host->bus.sim_ns",
                "critpath.edge.host->bus.sim_total_ns",
            ]
        );
        // The arrow survives JSON and sanitises in Prometheus.
        let snap = m.snapshot();
        assert!(snap.to_json().contains("critpath.edge.host->bus.sim_ns"));
        assert!(snap
            .to_prometheus()
            .contains("critpath_edge_host__bus_sim_total_ns 40"));
    }

    #[test]
    fn open_at_restarts_the_chain() {
        let mut t = CritPathTracker::new();
        let e = t.edge("host->bus");
        t.open_at(at(0));
        t.advance(e, at(10));
        t.open_at(at(100));
        t.advance(e, at(130));
        // Only the chain opened last is walked: the first chain's edge
        // and the gap between the chains charge nothing.
        let r = t.report();
        assert_eq!(r.row("host->bus").unwrap().count, 1);
        assert_eq!(r.row("host->bus").unwrap().total_ns, 30);
    }
}
