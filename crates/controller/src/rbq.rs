//! The Reorder Buffer Queue (Fig. 5).
//!
//! The system bus returns responses out of order. Each request carries a
//! unique 5-bit tag; the RBQ holds 32 entries (one per tag) and realigns
//! responses: a FIFO of issued tags decides which completed tag to pop
//! next, so consumers always observe issue order. The model carries no
//! response data: the timing model reads only which tags have completed,
//! so a completion marks its tag and a pop retires it.
//!
//! Tags can get *stuck* — a response lost to a fault never arrives, and
//! the tag would leak forever. A watchdog ([`ReorderBufferQueue::
//! reclaim_stuck`]) sweeps tags whose responses are overdue back into the
//! free pool; a late completion for a reclaimed tag then surfaces as a
//! typed [`ControllerError`] instead of silently completing a recycled
//! tag.

use std::collections::VecDeque;

use qtenon_sim_engine::{MetricsRegistry, SimDuration, SimTime};

use crate::error::ControllerError;

/// Number of unique tags (5-bit tag space).
pub(crate) const TAG_COUNT: usize = 32;

/// A tag naming one outstanding bus transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Tag(u8);

impl Tag {
    /// The raw 5-bit tag value.
    pub fn value(self) -> u8 {
        self.0
    }
}

/// The reorder buffer realigning out-of-order bus responses.
///
/// # Examples
///
/// ```
/// use qtenon_controller::ReorderBufferQueue;
///
/// let mut rbq = ReorderBufferQueue::new();
/// let t1 = rbq.issue().unwrap();
/// let t2 = rbq.issue().unwrap();
/// rbq.complete(t2).unwrap(); // arrives first…
/// assert_eq!(rbq.pop_in_order(), None); // …but waits for t1
/// rbq.complete(t1).unwrap();
/// assert_eq!(rbq.pop_in_order(), Some(t1)); // pops in issue order
/// assert_eq!(rbq.pop_in_order(), Some(t2));
/// ```
#[derive(Debug)]
pub struct ReorderBufferQueue {
    /// Whether each allocated tag's response has arrived.
    completed: [bool; TAG_COUNT],
    /// Whether each tag is currently allocated.
    allocated: [bool; TAG_COUNT],
    /// When each allocated tag was issued (for the watchdog).
    issued_at: [Option<SimTime>; TAG_COUNT],
    /// Tags in issue order, waiting to be popped.
    order: VecDeque<Tag>,
    /// Free tags.
    free: VecDeque<Tag>,
    /// Total tags ever issued.
    issued: u64,
    /// High-water mark of outstanding transactions.
    peak_outstanding: usize,
    /// Tags reclaimed by the watchdog.
    reclaimed: u64,
}

impl ReorderBufferQueue {
    /// Creates an empty RBQ with all 32 tags free.
    pub fn new() -> Self {
        ReorderBufferQueue {
            completed: [false; TAG_COUNT],
            allocated: [false; TAG_COUNT],
            issued_at: [None; TAG_COUNT],
            order: VecDeque::new(),
            free: (0..TAG_COUNT as u8).map(Tag).collect(),
            issued: 0,
            peak_outstanding: 0,
            reclaimed: 0,
        }
    }

    /// Allocates a tag for a new request, or `None` if all 32 tags are
    /// outstanding (the bus must stall until one frees).
    pub fn issue(&mut self) -> Option<Tag> {
        self.issue_at(SimTime::ZERO)
    }

    /// Like [`ReorderBufferQueue::issue`], recording the issue time so
    /// the watchdog can spot overdue responses.
    pub fn issue_at(&mut self, now: SimTime) -> Option<Tag> {
        let tag = self.free.pop_front()?;
        self.allocated[tag.0 as usize] = true;
        self.issued_at[tag.0 as usize] = Some(now);
        self.order.push_back(tag);
        self.issued += 1;
        self.peak_outstanding = self.peak_outstanding.max(self.order.len());
        Some(tag)
    }

    /// Marks the response for `tag` as arrived (out-of-order arrival).
    ///
    /// # Errors
    ///
    /// Returns [`ControllerError::UnissuedTag`] when `tag` is not
    /// outstanding (typically a late completion for a watchdog-reclaimed
    /// tag) and [`ControllerError::DoubleCompletion`] when the tag already
    /// has its response.
    pub fn complete(&mut self, tag: Tag) -> Result<(), ControllerError> {
        let i = tag.0 as usize;
        if !self.allocated[i] {
            return Err(ControllerError::UnissuedTag { tag: tag.0 });
        }
        if self.completed[i] {
            return Err(ControllerError::DoubleCompletion { tag: tag.0 });
        }
        self.completed[i] = true;
        Ok(())
    }

    /// Retires the oldest outstanding tag *in issue order*, if its
    /// response has arrived, and returns it.
    pub fn pop_in_order(&mut self) -> Option<Tag> {
        let &tag = self.order.front()?;
        let i = tag.0 as usize;
        if !self.completed[i] {
            return None;
        }
        self.order.pop_front();
        self.completed[i] = false;
        self.allocated[i] = false;
        self.issued_at[i] = None;
        self.free.push_back(tag);
        Some(tag)
    }

    /// Watchdog sweep: frees every tag that was issued at least `timeout`
    /// before `now` and never received its response, returning how many
    /// were reclaimed. Reclaimed tags leave the issue-order FIFO, so a
    /// stuck head no longer blocks completed younger responses forever.
    pub fn reclaim_stuck(&mut self, now: SimTime, timeout: SimDuration) -> usize {
        let mut reclaimed = 0;
        let mut kept = VecDeque::with_capacity(self.order.len());
        while let Some(tag) = self.order.pop_front() {
            let i = tag.0 as usize;
            let overdue = !self.completed[i]
                && self.issued_at[i].is_some_and(|t| now.saturating_since(t) >= timeout);
            if overdue {
                self.allocated[i] = false;
                self.issued_at[i] = None;
                self.free.push_back(tag);
                reclaimed += 1;
            } else {
                kept.push_back(tag);
            }
        }
        self.order = kept;
        self.reclaimed += reclaimed as u64;
        reclaimed
    }

    /// Total tags reclaimed by the watchdog.
    pub fn reclaimed(&self) -> u64 {
        self.reclaimed
    }

    /// Registers RBQ statistics under `prefix` (e.g. `controller.rbq`).
    pub fn export_metrics(&self, m: &mut MetricsRegistry, prefix: &str) {
        m.counter(&format!("{prefix}.issued"), self.issued);
        m.gauge(
            &format!("{prefix}.peak_outstanding"),
            self.peak_outstanding as f64,
        );
    }
}

impl Default for ReorderBufferQueue {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl ReorderBufferQueue {
        /// Number of outstanding (issued, unpopped) transactions.
        fn outstanding(&self) -> usize {
            self.order.len()
        }
    }

    #[test]
    fn realigns_reversed_completions() {
        let mut rbq = ReorderBufferQueue::new();
        let tags: Vec<_> = (0..8).map(|_| rbq.issue().unwrap()).collect();
        for &tag in tags.iter().rev() {
            rbq.complete(tag).unwrap();
        }
        for &tag in &tags {
            assert_eq!(rbq.pop_in_order(), Some(tag));
        }
        assert_eq!(rbq.pop_in_order(), None);
    }

    #[test]
    fn head_of_line_blocks_until_arrival() {
        let mut rbq = ReorderBufferQueue::new();
        let t1 = rbq.issue().unwrap();
        let t2 = rbq.issue().unwrap();
        rbq.complete(t2).unwrap();
        // t1 hasn't arrived: nothing pops even though t2 is ready.
        assert_eq!(rbq.pop_in_order(), None);
        rbq.complete(t1).unwrap();
        assert_eq!(rbq.pop_in_order(), Some(t1));
        assert_eq!(rbq.pop_in_order(), Some(t2));
    }

    #[test]
    fn tags_exhaust_at_32_and_recycle() {
        let mut rbq = ReorderBufferQueue::new();
        let tags: Vec<_> = (0..TAG_COUNT).map(|_| rbq.issue().unwrap()).collect();
        assert!(rbq.issue().is_none());
        rbq.complete(tags[0]).unwrap();
        assert_eq!(rbq.pop_in_order(), Some(tags[0]));
        // A tag freed by popping becomes issuable again.
        assert_eq!(rbq.issue(), Some(tags[0]));
    }

    #[test]
    fn outstanding_tracks_lifecycle() {
        let mut rbq = ReorderBufferQueue::new();
        assert_eq!(rbq.outstanding(), 0);
        let t = rbq.issue().unwrap();
        assert_eq!(rbq.outstanding(), 1);
        rbq.complete(t).unwrap();
        assert_eq!(rbq.outstanding(), 1); // completed but not popped
        rbq.pop_in_order();
        assert_eq!(rbq.outstanding(), 0);
    }

    #[test]
    fn double_completion_is_a_typed_error() {
        let mut rbq = ReorderBufferQueue::new();
        let t = rbq.issue().unwrap();
        rbq.complete(t).unwrap();
        assert_eq!(
            rbq.complete(t),
            Err(ControllerError::DoubleCompletion { tag: t.value() })
        );
    }

    #[test]
    fn watchdog_reclaims_overdue_tags_only() {
        let t0 = SimTime::ZERO;
        let mut rbq = ReorderBufferQueue::new();
        let old = rbq.issue_at(t0).unwrap();
        let young = rbq.issue_at(t0 + SimDuration::from_us(9)).unwrap();
        let n = rbq.reclaim_stuck(t0 + SimDuration::from_us(10), SimDuration::from_us(10));
        assert_eq!(n, 1);
        assert_eq!(rbq.reclaimed(), 1);
        assert_eq!(rbq.outstanding(), 1);
        // The reclaimed tag is free again; a late completion errors.
        assert_eq!(
            rbq.complete(old),
            Err(ControllerError::UnissuedTag { tag: old.value() })
        );
        // The young tag still works normally.
        rbq.complete(young).unwrap();
        assert_eq!(rbq.pop_in_order(), Some(young));
    }

    #[test]
    fn watchdog_unblocks_completed_younger_responses() {
        let t0 = SimTime::ZERO;
        let mut rbq = ReorderBufferQueue::new();
        let _stuck = rbq.issue_at(t0).unwrap();
        let ok = rbq.issue_at(t0).unwrap();
        rbq.complete(ok).unwrap();
        // Head-of-line: the stuck elder blocks the completed younger.
        assert_eq!(rbq.pop_in_order(), None);
        rbq.reclaim_stuck(t0 + SimDuration::from_us(20), SimDuration::from_us(10));
        // reclaim frees BOTH if the young one is also overdue — but the
        // young one has completed, so it is not overdue and now pops.
        assert_eq!(rbq.pop_in_order(), Some(ok));
    }

    #[test]
    fn randomised_order_realigns() {
        // Deterministic pseudo-shuffle of completion order.
        let mut rbq = ReorderBufferQueue::new();
        let tags: Vec<_> = (0..TAG_COUNT).map(|_| rbq.issue().unwrap()).collect();
        let mut order: Vec<usize> = (0..TAG_COUNT).collect();
        // Simple LCG-driven Fisher-Yates.
        let mut state = 12345u64;
        for i in (1..order.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let j = (state >> 33) as usize % (i + 1);
            order.swap(i, j);
        }
        for &i in &order {
            rbq.complete(tags[i]).unwrap();
        }
        for &tag in &tags {
            assert_eq!(rbq.pop_in_order(), Some(tag));
        }
    }
}
