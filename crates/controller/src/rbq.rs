//! The Reorder Buffer Queue (Fig. 5).
//!
//! The system bus returns responses out of order. Each request carries a
//! unique 5-bit tag; the RBQ holds 32 entries (one per tag) and realigns
//! responses: a FIFO of issued tags decides which response queue to pop
//! next, so consumers always observe issue order.
//!
//! Tags can get *stuck* — a response lost to a fault never arrives, and
//! the tag would leak forever. A watchdog ([`ReorderBufferQueue::
//! reclaim_stuck`]) sweeps tags whose responses are overdue back into the
//! free pool; a late completion for a reclaimed tag then surfaces as a
//! typed [`ControllerError`] instead of silently corrupting a recycled
//! tag's slot.

use std::collections::VecDeque;

use qtenon_sim_engine::{MetricsRegistry, SimDuration, SimTime};

use crate::error::ControllerError;

/// Number of unique tags (5-bit tag space).
pub const TAG_COUNT: usize = 32;

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
/// Generic over the response payload so both read data and write
/// acknowledgements can flow through it.
///
/// # Examples
///
/// ```
/// use qtenon_controller::ReorderBufferQueue;
///
/// let mut rbq = ReorderBufferQueue::<&str>::new();
/// let t1 = rbq.issue().unwrap();
/// let t2 = rbq.issue().unwrap();
/// rbq.complete(t2, "second").unwrap(); // arrives first…
/// rbq.complete(t1, "first").unwrap();
/// assert_eq!(rbq.pop_in_order(), Some("first")); // …but pops in issue order
/// assert_eq!(rbq.pop_in_order(), Some("second"));
/// ```
#[derive(Debug)]
pub struct ReorderBufferQueue<T> {
    /// Response slot per tag (`None` while the response is outstanding).
    slots: Vec<Option<T>>,
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

impl<T> ReorderBufferQueue<T> {
    /// Creates an empty RBQ with all 32 tags free.
    pub fn new() -> Self {
        ReorderBufferQueue {
            slots: (0..TAG_COUNT).map(|_| None).collect(),
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

    /// Delivers the response for `tag` (out-of-order arrival).
    ///
    /// # Errors
    ///
    /// Returns [`ControllerError::UnissuedTag`] when `tag` is not
    /// outstanding (typically a late completion for a watchdog-reclaimed
    /// tag) and [`ControllerError::DoubleCompletion`] when the tag already
    /// has its response.
    pub fn complete(&mut self, tag: Tag, payload: T) -> Result<(), ControllerError> {
        if !self.allocated[tag.0 as usize] {
            return Err(ControllerError::UnissuedTag { tag: tag.0 });
        }
        let slot = &mut self.slots[tag.0 as usize];
        if slot.is_some() {
            return Err(ControllerError::DoubleCompletion { tag: tag.0 });
        }
        *slot = Some(payload);
        Ok(())
    }

    /// Pops the next response *in issue order*, if it has arrived.
    pub fn pop_in_order(&mut self) -> Option<T> {
        let &tag = self.order.front()?;
        let payload = self.slots[tag.0 as usize].take()?;
        self.order.pop_front();
        self.allocated[tag.0 as usize] = false;
        self.issued_at[tag.0 as usize] = None;
        self.free.push_back(tag);
        Some(payload)
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
            let overdue = self.slots[i].is_none()
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

    /// Number of outstanding (issued, unpopped) transactions.
    pub fn outstanding(&self) -> usize {
        self.order.len()
    }

    /// Total tags ever issued.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// High-water mark of outstanding transactions.
    pub fn peak_outstanding(&self) -> usize {
        self.peak_outstanding
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

impl<T> Default for ReorderBufferQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn realigns_reversed_completions() {
        let mut rbq = ReorderBufferQueue::new();
        let tags: Vec<_> = (0..8).map(|_| rbq.issue().unwrap()).collect();
        for (i, &tag) in tags.iter().enumerate().rev() {
            rbq.complete(tag, i).unwrap();
        }
        for i in 0..8 {
            assert_eq!(rbq.pop_in_order(), Some(i));
        }
        assert_eq!(rbq.pop_in_order(), None);
    }

    #[test]
    fn head_of_line_blocks_until_arrival() {
        let mut rbq = ReorderBufferQueue::new();
        let t1 = rbq.issue().unwrap();
        let t2 = rbq.issue().unwrap();
        rbq.complete(t2, "b").unwrap();
        // t1 hasn't arrived: nothing pops even though t2 is ready.
        assert_eq!(rbq.pop_in_order(), None);
        rbq.complete(t1, "a").unwrap();
        assert_eq!(rbq.pop_in_order(), Some("a"));
        assert_eq!(rbq.pop_in_order(), Some("b"));
    }

    #[test]
    fn tags_exhaust_at_32_and_recycle() {
        let mut rbq = ReorderBufferQueue::new();
        let tags: Vec<_> = (0..TAG_COUNT).map(|_| rbq.issue().unwrap()).collect();
        assert!(rbq.issue().is_none());
        rbq.complete(tags[0], 0u32).unwrap();
        assert!(rbq.pop_in_order().is_some());
        // A tag freed by popping becomes issuable again.
        assert!(rbq.issue().is_some());
    }

    #[test]
    fn outstanding_tracks_lifecycle() {
        let mut rbq = ReorderBufferQueue::new();
        assert_eq!(rbq.outstanding(), 0);
        let t = rbq.issue().unwrap();
        assert_eq!(rbq.outstanding(), 1);
        rbq.complete(t, ()).unwrap();
        assert_eq!(rbq.outstanding(), 1); // completed but not popped
        rbq.pop_in_order();
        assert_eq!(rbq.outstanding(), 0);
    }

    #[test]
    fn double_completion_is_a_typed_error() {
        let mut rbq = ReorderBufferQueue::new();
        let t = rbq.issue().unwrap();
        rbq.complete(t, 1).unwrap();
        assert_eq!(
            rbq.complete(t, 2),
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
            rbq.complete(old, 1u32),
            Err(ControllerError::UnissuedTag { tag: old.value() })
        );
        // The young tag still works normally.
        rbq.complete(young, 2).unwrap();
        assert_eq!(rbq.pop_in_order(), Some(2));
    }

    #[test]
    fn watchdog_unblocks_completed_younger_responses() {
        let t0 = SimTime::ZERO;
        let mut rbq = ReorderBufferQueue::new();
        let _stuck = rbq.issue_at(t0).unwrap();
        let ok = rbq.issue_at(t0).unwrap();
        rbq.complete(ok, "data").unwrap();
        // Head-of-line: the stuck elder blocks the completed younger.
        assert_eq!(rbq.pop_in_order(), None);
        rbq.reclaim_stuck(t0 + SimDuration::from_us(20), SimDuration::from_us(10));
        // reclaim frees BOTH if the young one is also overdue — but the
        // young one has its payload, so it is not overdue and now pops.
        assert_eq!(rbq.pop_in_order(), Some("data"));
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
            rbq.complete(tags[i], i).unwrap();
        }
        for i in 0..TAG_COUNT {
            assert_eq!(rbq.pop_in_order(), Some(i));
        }
    }
}
