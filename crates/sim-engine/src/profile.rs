//! Span-based latency attribution.
//!
//! The Qtenon argument is a latency breakdown: which integration layer
//! (compile, pulse generation, communication, execution, readout,
//! classical optimise) eats each nanosecond of a hybrid iteration. This
//! module is the measurement substrate behind that breakdown: one span
//! accumulator, [`SpanStats`] (a count, a picosecond-exact total and a
//! nanosecond [`Histogram`]), and one frozen, name-sorted table of them,
//! [`SpanTable`]. The [`Profiler`] keeps one accumulator per interned
//! phase, fed by deterministic sim-time spans, plus optional wall-clock
//! timers; the critical path (`crate::critpath`) freezes its per-edge
//! attribution into the same table.
//!
//! # Determinism contract
//!
//! Sim-time spans are *always* collected and derive exclusively from
//! [`SimTime`]/[`SimDuration`] arithmetic, so the phase accumulators —
//! and everything rendered from them ([`SpanTable`], the `profile.*`
//! metrics namespace) — are byte-identical across thread counts and
//! across profile-on/off runs. Wall-clock timers are the explicitly
//! unstable section: they are only collected when
//! [`Profiler::set_wall_enabled`] is on, never enter the metrics
//! registry, and are rendered separately by
//! [`Profiler::render_wall_unstable`].
//!
//! # Examples
//!
//! ```
//! use qtenon_sim_engine::profile::Profiler;
//! use qtenon_sim_engine::{SimDuration, SimTime};
//!
//! let mut p = Profiler::new();
//! let compile = p.phase("vqa.compile_patch");
//! let t0 = SimTime::ZERO;
//! p.span(compile, t0, t0 + SimDuration::from_ns(120));
//! let table = p.table();
//! assert_eq!(table.rows.len(), 1);
//! assert_eq!(table.rows[0].total_ns, 120);
//! ```

use std::time::Instant;

use crate::metrics::{Histogram, MetricsRegistry};
use crate::time::{SimDuration, SimTime};

/// An interned phase name: a cheap copyable handle into a [`Profiler`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseId(u16);

/// A span accumulator: how many spans were recorded, their total at
/// picosecond precision, and a histogram of their lengths in whole
/// nanoseconds. Constant memory, whatever the number of spans.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanStats {
    total: SimDuration,
    hist: Histogram,
}

impl SpanStats {
    /// Records one span of duration `d`.
    pub fn record(&mut self, d: SimDuration) {
        self.total += d;
        self.hist.record(d.as_ps() / 1_000);
    }

    /// Spans recorded.
    pub fn count(&self) -> u64 {
        self.hist.count()
    }

    /// Total recorded time, at picosecond precision.
    pub fn total(&self) -> SimDuration {
        self.total
    }

    /// Span-length distribution (nanosecond samples).
    pub fn hist(&self) -> &Histogram {
        &self.hist
    }
}

/// Per-phase accumulators: the sim-time spans, plus the wall-clock
/// timers that only run when enabled.
#[derive(Debug, Clone)]
struct PhaseSlot {
    name: &'static str,
    sim: SpanStats,
    wall_count: u64,
    wall_total_ns: u128,
}

impl PhaseSlot {
    fn new(name: &'static str) -> Self {
        PhaseSlot {
            name,
            sim: SpanStats::default(),
            wall_count: 0,
            wall_total_ns: 0,
        }
    }
}

/// The latency-attribution profiler: interned phases and per-phase
/// [`Histogram`] accumulators of sim-time spans.
///
/// Sim-time recording is unconditional (it is pure `u64` arithmetic and
/// must stay identical whether or not the user asked for a profile);
/// wall-clock recording is gated on [`Profiler::set_wall_enabled`].
#[derive(Debug, Clone, Default)]
pub struct Profiler {
    slots: Vec<PhaseSlot>,
    wall_enabled: bool,
}

impl Profiler {
    /// Creates a profiler with no phases and wall-clock timing off.
    pub fn new() -> Self {
        Profiler::default()
    }

    /// Enables or disables wall-clock span collection. Sim-time spans
    /// are unaffected: they are always recorded.
    pub fn set_wall_enabled(&mut self, enabled: bool) {
        self.wall_enabled = enabled;
    }

    /// Interns `name`, returning its [`PhaseId`]. Repeated calls with
    /// the same name return the same id.
    ///
    /// # Panics
    ///
    /// Panics if more than `u16::MAX` distinct phases are interned.
    pub fn phase(&mut self, name: &'static str) -> PhaseId {
        if let Some(i) = self.slots.iter().position(|s| s.name == name) {
            return PhaseId(i as u16);
        }
        let id = u16::try_from(self.slots.len()).expect("too many phases");
        self.slots.push(PhaseSlot::new(name));
        PhaseId(id)
    }

    /// Records one completed sim-time span of duration `d` against `id`.
    pub fn record(&mut self, id: PhaseId, d: SimDuration) {
        self.slots[id.0 as usize].sim.record(d);
    }

    /// Total sim time recorded against `id`, at picosecond precision
    /// (a [`SpanTable`] row truncates it to nanoseconds).
    pub fn total(&self, id: PhaseId) -> SimDuration {
        self.slots[id.0 as usize].sim.total()
    }

    /// Records the sim-time span from `start` to `end` (clamped at zero)
    /// against `id`.
    pub fn span(&mut self, id: PhaseId, start: SimTime, end: SimTime) {
        self.record(id, end.saturating_since(start));
    }

    /// Starts a wall-clock measurement, or returns `None` when wall
    /// timing is disabled (so the disabled path costs one branch).
    pub fn wall_start(&self) -> Option<Instant> {
        self.wall_enabled.then(Instant::now)
    }

    /// Completes a wall-clock measurement begun by
    /// [`Profiler::wall_start`]. A `None` start is a no-op.
    pub fn wall_end(&mut self, id: PhaseId, start: Option<Instant>) {
        if let Some(start) = start {
            self.record_wall_ns(id, start.elapsed().as_nanos());
        }
    }

    /// Records `ns` nanoseconds of wall time against `id`.
    fn record_wall_ns(&mut self, id: PhaseId, ns: u128) {
        let slot = &mut self.slots[id.0 as usize];
        slot.wall_count += 1;
        slot.wall_total_ns += ns;
    }

    /// Forgets all recorded spans but keeps interned phases, so
    /// previously returned [`PhaseId`]s stay valid.
    pub fn reset(&mut self) {
        for slot in &mut self.slots {
            let name = slot.name;
            *slot = PhaseSlot::new(name);
        }
    }

    /// Freezes the deterministic accumulators into a [`SpanTable`]
    /// (rows sorted by phase name; phases that never fired are omitted).
    /// Wall-clock values never enter it: they would break the
    /// byte-identical contract of everything rendered from the table.
    pub fn table(&self) -> SpanTable {
        SpanTable::from_spans(self.slots.iter().map(|s| (s.name, &s.sim)))
    }

    /// Renders the wall-clock section. Wall times vary run to run and
    /// machine to machine: this output is explicitly unstable and must
    /// never be diffed or committed.
    pub fn render_wall_unstable(&self) -> String {
        let mut rows: Vec<&PhaseSlot> = self.slots.iter().filter(|s| s.wall_count > 0).collect();
        if rows.is_empty() {
            return String::new();
        }
        rows.sort_by(|a, b| a.name.cmp(b.name));
        let width = rows.iter().map(|s| s.name.len()).max().unwrap_or(0).max(5);
        let mut out = String::from("wall-clock (unstable; varies per run/machine)\n");
        out.push_str(&format!(
            "{:<width$}  {:>10}  {:>14}  {:>12}\n",
            "phase", "count", "wall_total_us", "wall_mean_us"
        ));
        for s in rows {
            let total_us = s.wall_total_ns as f64 / 1e3;
            let mean_us = total_us / s.wall_count as f64;
            out.push_str(&format!(
                "{:<width$}  {:>10}  {:>14.1}  {:>12.3}\n",
                s.name, s.wall_count, total_us, mean_us
            ));
        }
        out
    }
}

/// One row of a [`SpanTable`]: a named accumulator, frozen. The full
/// [`Histogram`] is embedded, and percentiles are derived from it on
/// render.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRow {
    /// Phase or edge name (`vqa.pulse_gen`, `host->bus`, ...).
    pub name: String,
    /// Recorded spans.
    pub count: u64,
    /// Total attributed sim time, truncated to nanoseconds.
    pub total_ns: u64,
    /// Span-length distribution (nanosecond samples).
    pub hist: Histogram,
}

/// A per-run attribution table: the profiler's phases
/// ([`Profiler::table`]) or the critical path's edges
/// (`CritPathTracker::report`), as carried in `RunReport`.
///
/// Rows are sorted by name; sim-time-only, so two runs that simulate
/// the same timeline produce byte-identical tables regardless of thread
/// count, batch-vs-standalone execution, or whether profiling output
/// was requested.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanTable {
    /// Rows sorted by name.
    pub rows: Vec<SpanRow>,
}

impl SpanTable {
    /// Freezes named accumulators into a table: accumulators that never
    /// recorded a span are omitted, and rows are sorted by name.
    pub(crate) fn from_spans<'a>(
        spans: impl IntoIterator<Item = (&'a str, &'a SpanStats)>,
    ) -> Self {
        let mut rows: Vec<SpanRow> = spans
            .into_iter()
            .filter(|(_, s)| s.count() > 0)
            .map(|(name, s)| SpanRow {
                name: name.to_string(),
                count: s.count(),
                total_ns: s.total.as_ps() / 1_000,
                hist: s.hist.clone(),
            })
            .collect();
        rows.sort_by(|a, b| a.name.cmp(&b.name));
        SpanTable { rows }
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Sum of all attributed sim time in nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.rows.iter().map(|r| r.total_ns).sum()
    }

    /// The row for `name`, if present.
    pub fn row(&self, name: &str) -> Option<&SpanRow> {
        self.rows.iter().find(|r| r.name == name)
    }

    /// Exports each row under `<prefix>.<name>` paths: a `.sim_total_ns`
    /// counter and a `.sim_ns` histogram, whose count is the row's.
    pub fn export_metrics(&self, m: &mut MetricsRegistry, prefix: &str) {
        for row in &self.rows {
            m.counter(&format!("{prefix}.{}.sim_total_ns", row.name), row.total_ns);
            m.histogram(&format!("{prefix}.{}.sim_ns", row.name), &row.hist);
        }
    }

    /// Renders the table as aligned text under a first-column `header`
    /// (`phase`, `edge`): one row per name with count, total, percentile
    /// estimates (all integer nanoseconds), and the row's share of the
    /// attributed total, then a `total` row. An empty table renders as
    /// `no <header>s recorded`. Every column derives from sim time, so
    /// the rendering is byte-stable across thread counts.
    pub fn render(&self, header: &str) -> String {
        if self.rows.is_empty() {
            return format!("no {header}s recorded\n");
        }
        let width = self
            .rows
            .iter()
            .map(|r| r.name.len())
            .max()
            .unwrap_or(0)
            .max(header.len());
        let grand = self.total_ns();
        let mut out = format!(
            "{:<width$}  {:>10}  {:>14}  {:>10}  {:>10}  {:>10}  {:>10}  {:>6}\n",
            header, "count", "sim_total_ns", "p50_ns", "p90_ns", "p99_ns", "max_ns", "share"
        );
        for r in &self.rows {
            let share = permille(r.total_ns, grand);
            out.push_str(&format!(
                "{:<width$}  {:>10}  {:>14}  {:>10}  {:>10}  {:>10}  {:>10}  {:>5}.{}%\n",
                r.name,
                r.count,
                r.total_ns,
                r.hist.p50().unwrap_or(0),
                r.hist.p90().unwrap_or(0),
                r.hist.p99().unwrap_or(0),
                r.hist.max().unwrap_or(0),
                share / 10,
                share % 10,
            ));
        }
        out.push_str(&format!(
            "{:<width$}  {:>10}  {:>14}\n",
            "total",
            self.rows.iter().map(|r| r.count).sum::<u64>(),
            grand
        ));
        out
    }
}

/// Integer permille of `part` in `whole` — exact arithmetic, so
/// byte-stable when rendered as a percentage with one decimal.
pub(crate) fn permille(part: u64, whole: u64) -> u64 {
    part.saturating_mul(1000).checked_div(whole).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(ns: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_ns(ns)
    }

    #[test]
    fn interning_is_stable() {
        let mut p = Profiler::new();
        let a = p.phase("alpha");
        let b = p.phase("beta");
        assert_ne!(a, b);
        assert_eq!(p.phase("alpha"), a);
        assert_eq!(p.phase("beta"), b);
    }

    #[test]
    fn spans_accumulate_into_table() {
        let mut p = Profiler::new();
        let a = p.phase("a");
        let b = p.phase("b");
        p.span(a, at(0), at(100));
        p.span(b, at(10), at(30));
        // A span that ends before it starts clamps to zero.
        p.span(b, at(30), at(10));
        p.record(a, SimDuration::from_ns(50));
        let t = p.table();
        assert_eq!(t.rows.len(), 2);
        assert_eq!(t.row("a").unwrap().count, 2);
        assert_eq!(t.row("a").unwrap().total_ns, 150);
        assert_eq!(t.row("b").unwrap().count, 2);
        assert_eq!(t.row("b").unwrap().total_ns, 20);
        assert_eq!(t.total_ns(), 170);
    }

    #[test]
    fn table_omits_silent_phases_and_sorts() {
        let mut p = Profiler::new();
        let z = p.phase("zz");
        let _silent = p.phase("mm");
        let a = p.phase("aa");
        p.record(z, SimDuration::from_ns(1));
        p.record(a, SimDuration::from_ns(2));
        let table = p.table();
        let names: Vec<&str> = table.rows.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, ["aa", "zz"]);
    }

    #[test]
    fn reset_keeps_ids_valid() {
        let mut p = Profiler::new();
        let a = p.phase("a");
        p.record(a, SimDuration::from_ns(5));
        p.reset();
        assert!(p.table().is_empty());
        p.record(a, SimDuration::from_ns(7));
        assert_eq!(p.table().row("a").unwrap().total_ns, 7);
    }

    #[test]
    fn wall_disabled_records_nothing() {
        let mut p = Profiler::new();
        let a = p.phase("a");
        let start = p.wall_start();
        assert_eq!(start, None);
        p.wall_end(a, start);
        assert!(p.render_wall_unstable().is_empty());
        // And no sim-time rows either: wall timers never touch sim time.
        assert!(p.table().is_empty());
    }

    #[test]
    fn wall_enabled_records_scopes() {
        let mut p = Profiler::new();
        p.set_wall_enabled(true);
        let a = p.phase("a");
        for _ in 0..2 {
            let start = p.wall_start();
            assert!(start.is_some());
            p.wall_end(a, start);
        }
        let text = p.render_wall_unstable();
        assert!(text.contains("unstable"));
        let row = text
            .lines()
            .find(|l| l.starts_with("a "))
            .expect("row for a");
        assert_eq!(row.split_whitespace().nth(1), Some("2"));
        // Wall spans never leak into the deterministic table or metrics.
        assert!(p.table().is_empty());
        let mut m = MetricsRegistry::new();
        p.table().export_metrics(&mut m, "profile");
        assert!(m.is_empty());
    }

    #[test]
    fn export_metrics_is_sim_only() {
        let mut p = Profiler::new();
        p.set_wall_enabled(true);
        let a = p.phase("vqa.pulse_gen");
        p.record(a, SimDuration::from_ns(40));
        p.record_wall_ns(a, 9_999);
        let mut m = MetricsRegistry::new();
        p.table().export_metrics(&mut m, "profile");
        assert_eq!(
            m.paths(),
            vec![
                "profile.vqa.pulse_gen.sim_ns",
                "profile.vqa.pulse_gen.sim_total_ns",
            ]
        );
        let json = m.snapshot().to_json();
        assert!(!json.contains("wall"), "wall time leaked into metrics");
    }

    #[test]
    fn render_is_stable_and_shares_sum() {
        let mut p = Profiler::new();
        let a = p.phase("long.phase.name");
        let b = p.phase("b");
        p.record(a, SimDuration::from_ns(750));
        p.record(b, SimDuration::from_ns(250));
        let t = p.table();
        let r1 = t.render("phase");
        let r2 = t.render("phase");
        assert_eq!(r1, r2);
        assert!(r1.contains("75.0%"));
        assert!(r1.contains("25.0%"));
        assert!(r1.starts_with("phase  "));
        assert!(r1.lines().last().unwrap().starts_with("total"));
    }

    #[test]
    fn empty_table_renders_placeholder() {
        assert_eq!(SpanTable::default().render("phase"), "no phases recorded\n");
    }

    #[test]
    fn sub_nanosecond_spans_truncate_consistently() {
        let mut p = Profiler::new();
        let a = p.phase("a");
        p.record(a, SimDuration::from_ps(1_500));
        let t = p.table();
        // ps→ns truncation: both the total and the histogram sample see 1.
        assert_eq!(t.row("a").unwrap().total_ns, 1);
        assert_eq!(t.row("a").unwrap().hist.max(), Some(1));
    }
}
