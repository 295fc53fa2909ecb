//! The batched transmission policy — Algorithm 1 (Section 6.3).
//!
//! Transmitting each shot's measurement immediately issues one bus PUT per
//! shot and under-utilises the 256-bit bus (a 64-qubit result is only 64
//! bits). Algorithm 1 batches `K = ⌊B/N⌋` shots per PUT so each transfer
//! fills the bus width, quartering bus demand at the paper's design point.

use crate::config::TransmissionPolicy;

/// One scheduled PUT: which shots it carries and how many bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransmissionBatch {
    /// Index of the first shot in the batch.
    pub first_shot: u64,
    /// Number of shots carried.
    pub shots: u64,
    /// Payload bytes (`shots × ⌈N/8⌉`).
    pub bytes: u64,
}

/// The full transmission plan for one `q_run`.
///
/// # Examples
///
/// ```
/// use qtenon_core::config::TransmissionPolicy;
/// use qtenon_core::schedule::TransmissionPlan;
///
/// // Paper's design point: 64 qubits on a 256-bit bus → 4 shots per PUT.
/// let plan = TransmissionPlan::new(TransmissionPolicy::Batched, 64, 256, 500);
/// assert_eq!(plan.batch_interval(), 4);
/// assert_eq!(plan.batches().len(), 125);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransmissionPlan {
    interval: u64,
    batches: Vec<TransmissionBatch>,
}

impl TransmissionPlan {
    /// Plans the PUTs for `total_shots` shots of an `n_qubits` circuit on
    /// a `bus_width_bits`-wide bus (Algorithm 1; `Immediate` forces
    /// `K = 1`).
    ///
    /// # Panics
    ///
    /// Panics if `n_qubits` or `bus_width_bits` is zero.
    pub fn new(
        policy: TransmissionPolicy,
        n_qubits: u32,
        bus_width_bits: u32,
        total_shots: u64,
    ) -> Self {
        assert!(n_qubits > 0 && bus_width_bits > 0, "zero-size plan");
        // Line 1: K ← ⌊B/N⌋ (at least one shot per transmission).
        let interval = match policy {
            TransmissionPolicy::Immediate => 1,
            TransmissionPolicy::Batched => (bus_width_bits as u64 / n_qubits as u64).max(1),
        };
        let bytes_per_shot = (n_qubits as u64).div_ceil(8);
        let mut batches = Vec::with_capacity(total_shots.div_ceil(interval) as usize);
        let mut first = 0;
        // Lines 5–13: accumulate and flush every K shots…
        while first + interval <= total_shots {
            batches.push(TransmissionBatch {
                first_shot: first,
                shots: interval,
                bytes: interval * bytes_per_shot,
            });
            first += interval;
        }
        // Lines 14–16: …then flush the remainder.
        if first < total_shots {
            let rest = total_shots - first;
            batches.push(TransmissionBatch {
                first_shot: first,
                shots: rest,
                bytes: rest * bytes_per_shot,
            });
        }
        TransmissionPlan { interval, batches }
    }

    /// The transmission interval `K`.
    pub fn batch_interval(&self) -> u64 {
        self.interval
    }

    /// The scheduled PUTs in shot order.
    pub fn batches(&self) -> &[TransmissionBatch] {
        &self.batches
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl TransmissionPlan {
        /// Total payload bytes across all PUTs.
        fn total_bytes(&self) -> u64 {
            self.batches.iter().map(|b| b.bytes).sum()
        }
    }

    #[test]
    fn paper_design_point_k4() {
        // 64 qubits, 256-bit bus: transmission every 4 shots.
        let plan = TransmissionPlan::new(TransmissionPolicy::Batched, 64, 256, 500);
        assert_eq!(plan.batch_interval(), 4);
        assert_eq!(plan.batches().len(), 125);
        assert!(plan.batches().iter().all(|b| b.shots == 4 && b.bytes == 32));
    }

    #[test]
    fn immediate_is_one_per_shot() {
        let plan = TransmissionPlan::new(TransmissionPolicy::Immediate, 64, 256, 500);
        assert_eq!(plan.batch_interval(), 1);
        assert_eq!(plan.batches().len(), 500);
        assert_eq!(plan.batches()[0].bytes, 8);
    }

    #[test]
    fn remainder_batch_flushed() {
        let plan = TransmissionPlan::new(TransmissionPolicy::Batched, 64, 256, 10);
        // 2 full batches of 4 + remainder of 2.
        assert_eq!(plan.batches().len(), 3);
        assert_eq!(plan.batches()[2].shots, 2);
        assert_eq!(plan.batches()[2].first_shot, 8);
    }

    #[test]
    fn wide_circuits_never_batch_below_one() {
        // 320 qubits > 256-bit bus: K clamps to 1.
        let plan = TransmissionPlan::new(TransmissionPolicy::Batched, 320, 256, 10);
        assert_eq!(plan.batch_interval(), 1);
        assert_eq!(plan.batches()[0].bytes, 40);
    }

    #[test]
    fn total_bytes_is_shots_times_record() {
        for (n, shots) in [(8u32, 100u64), (64, 500), (96, 7)] {
            let plan = TransmissionPlan::new(TransmissionPolicy::Batched, n, 256, shots);
            assert_eq!(plan.total_bytes(), shots * (n as u64).div_ceil(8));
        }
    }

    #[test]
    fn batches_cover_all_shots_in_order() {
        let plan = TransmissionPlan::new(TransmissionPolicy::Batched, 48, 256, 501);
        let mut next = 0;
        for b in plan.batches() {
            assert_eq!(b.first_shot, next);
            next += b.shots;
        }
        assert_eq!(next, 501);
    }

    #[test]
    fn zero_shots_empty_plan() {
        let plan = TransmissionPlan::new(TransmissionPolicy::Batched, 64, 256, 0);
        assert!(plan.batches().is_empty());
        assert_eq!(plan.total_bytes(), 0);
    }
}
