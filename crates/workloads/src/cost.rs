//! Shot-based cost evaluation with host-operation counting.
//!
//! After a `q_run`, the host turns measured bitstrings into a cost value.
//! A performance-conscious host implementation (what the paper's RISC-V
//! firmware would run) evaluates diagonal Hamiltonians **bit-sliced**:
//! shots are transposed into qubit-major bitplanes (64 shots per machine
//! word), and each Z-product term reduces to XORing its qubits' planes
//! and popcounting — O(terms + qubits) word operations per 64-shot block
//! instead of O(terms × shots) scalar ones. This is what keeps host
//! computation a minor, near-linearly-scaling share in Figs. 13 and 17.
//!
//! The evaluation here performs exactly that computation and records the
//! corresponding abstract operations into an [`OpCounter`] so the host
//! core models charge a realistic cycle count.

use qtenon_quantum::{BitString, Hamiltonian};
use qtenon_sim_engine::{OpClass, OpCounter};

/// Shots per bit-sliced block (one machine word).
pub const BLOCK_SHOTS: usize = 64;

/// Precomputed term structure for fast repeated evaluation.
#[derive(Debug, Clone)]
pub struct CostEvaluator {
    coeffs: Vec<f64>,
    /// Qubits per term (diagonal Z products involve very few).
    term_qubits: Vec<Vec<u32>>,
    /// The ops of one XOR/popcount reduction per term, for each block.
    term_ops: OpCounter,
    constant: f64,
    n_qubits: u32,
}

impl CostEvaluator {
    /// Builds the evaluator for a Hamiltonian.
    pub fn new(h: &Hamiltonian) -> Self {
        let mut term_ops = OpCounter::new();
        for t in h.terms() {
            term_ops.record(OpClass::IntAlu, t.qubits.len() as u64 + 2);
            term_ops.record(OpClass::Mem, t.qubits.len() as u64 + 1);
            term_ops.record(OpClass::FpAlu, 2);
        }
        CostEvaluator {
            coeffs: h.terms().iter().map(|t| t.coeff).collect(),
            term_qubits: h.terms().iter().map(|t| t.qubits.clone()).collect(),
            term_ops,
            constant: h.constant(),
            n_qubits: h.n_qubits(),
        }
    }

    /// The Hamiltonian's identity offset.
    pub fn constant(&self) -> f64 {
        self.constant
    }

    /// Sum of the Hamiltonian's values over up to [`BLOCK_SHOTS`] shots,
    /// evaluated bit-sliced, recording ops. `planes` is scratch space for
    /// the qubit-major bit planes; pass the same buffer to every block of
    /// an evaluation so only the first call allocates.
    ///
    /// # Panics
    ///
    /// Panics if `shots` exceeds one block.
    pub fn block_value_sum(
        &self,
        shots: &[BitString],
        planes: &mut Vec<u64>,
        ops: &mut OpCounter,
    ) -> f64 {
        assert!(shots.len() <= BLOCK_SHOTS, "block too large");
        if shots.is_empty() {
            return 0.0;
        }
        self.record_block_ops(shots.len() as u64, ops);
        self.block_sum(shots, planes)
    }

    /// The block sum of [`block_value_sum`](Self::block_value_sum),
    /// recording nothing.
    fn block_sum(&self, shots: &[BitString], planes: &mut Vec<u64>) -> f64 {
        let k = shots.len();
        // Transpose to qubit-major bitplanes: plane[q] bit s = shot s's
        // qubit q. A firmware implementation does this with the standard
        // 64×64 word transpose (~6 word ops per output word).
        planes.clear();
        planes.resize(self.n_qubits as usize, 0);
        for (s, shot) in shots.iter().enumerate() {
            for (w, &word) in shot.words().iter().enumerate() {
                let mut rest = word;
                while rest != 0 {
                    let q = w * 64 + rest.trailing_zeros() as usize;
                    if let Some(plane) = planes.get_mut(q) {
                        *plane |= 1u64 << s;
                    }
                    rest &= rest - 1;
                }
            }
        }
        let mut acc = 0.0;
        for (coeff, qubits) in self.coeffs.iter().zip(&self.term_qubits) {
            // Parity plane of the term: XOR of its qubits' planes.
            let parity = qubits.iter().fold(0u64, |p, &q| p ^ planes[q as usize]);
            // Shots with odd parity contribute −coeff, the rest +coeff.
            let odd = (parity & low_mask(k)).count_ones() as f64;
            acc += coeff * (k as f64 - 2.0 * odd);
        }
        acc
    }

    /// Sample-mean cost over any number of shots, processed in 64-shot
    /// blocks, recording ops.
    pub fn mean_over(&self, shots: &[BitString], ops: &mut OpCounter) -> f64 {
        self.record_ops(shots.len() as u64, ops);
        if shots.is_empty() {
            return self.constant;
        }
        let mut acc = 0.0;
        let mut planes = Vec::new();
        for block in shots.chunks(BLOCK_SHOTS) {
            acc += self.block_sum(block, &mut planes);
        }
        self.constant + acc / shots.len() as f64
    }

    /// Records the ops [`mean_over`](Self::mean_over) spends on `k`
    /// shots: each 64-shot block's transpose and term reductions plus
    /// its loop control, then the final mean. The count depends on `k`,
    /// the qubit count and the term table only, never on the bits.
    pub fn record_ops(&self, k: u64, ops: &mut OpCounter) {
        if k == 0 {
            return;
        }
        for first in (0..k).step_by(BLOCK_SHOTS) {
            self.record_block_ops((k - first).min(BLOCK_SHOTS as u64), ops);
            ops.record(OpClass::Branch, 2);
        }
        ops.record(OpClass::FpComplex, 1);
        ops.record(OpClass::FpAlu, 1);
    }

    /// Records one bit-sliced block of `k` shots: the transpose's ~6 word
    /// ops per qubit, a load per shot word and plane, each term's popcount.
    fn record_block_ops(&self, k: u64, ops: &mut OpCounter) {
        let words_per_shot = (self.n_qubits as u64).div_ceil(64);
        ops.record(OpClass::IntAlu, 6 * self.n_qubits as u64);
        ops.record(OpClass::Mem, k * words_per_shot + self.n_qubits as u64);
        *ops += self.term_ops;
    }
}

fn low_mask(k: usize) -> u64 {
    if k >= 64 {
        u64::MAX
    } else {
        (1u64 << k) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qtenon_quantum::PauliTerm;

    #[test]
    fn matches_hamiltonian_expectation() {
        let h = Hamiltonian::new(
            2,
            vec![PauliTerm::z(0, 0.5), PauliTerm::zz(0, 1, -1.0)],
            0.25,
        );
        let shots: Vec<BitString> = [0b00u64, 0b01, 0b10, 0b11]
            .iter()
            .map(|&v| BitString::from_u64(v, 2))
            .collect();
        let mut ops = OpCounter::new();
        let via_counter = CostEvaluator::new(&h).mean_over(&shots, &mut ops);
        let direct = h.expectation_from_shots(&shots);
        assert!((via_counter - direct).abs() < 1e-12);
    }

    #[test]
    fn matches_across_block_boundaries() {
        // > 64 shots exercises multi-block accumulation.
        let h = Hamiltonian::molecular(10, 7);
        let shots: Vec<BitString> = (0..200u64)
            .map(|i| BitString::from_u64(i.wrapping_mul(0x9E37_79B9), 10))
            .collect();
        let mut ops = OpCounter::new();
        let fast = CostEvaluator::new(&h).mean_over(&shots, &mut ops);
        let direct = h.expectation_from_shots(&shots);
        assert!((fast - direct).abs() < 1e-9, "fast {fast} direct {direct}");
    }

    #[test]
    fn matches_across_word_boundaries() {
        // 70-qubit Hamiltonian exercises multi-word shots.
        let h = Hamiltonian::new(
            70,
            vec![PauliTerm::zz(63, 64, 1.0), PauliTerm::z(69, -0.5)],
            0.0,
        );
        let mut shot = BitString::zeros(70);
        shot.set(63, true);
        shot.set(69, true);
        let mut ops = OpCounter::new();
        let v = CostEvaluator::new(&h).mean_over(&[shot.clone()], &mut ops);
        assert!((v - h.value_on(&shot)).abs() < 1e-12);
    }

    #[test]
    fn bit_sliced_cost_is_sublinear_in_shots() {
        // The op count for 64 shots is far less than 64× one shot's.
        let h = Hamiltonian::molecular(16, 0);
        let one = vec![BitString::zeros(16)];
        let many = vec![BitString::zeros(16); 64];
        let eval = CostEvaluator::new(&h);
        let mut ops_one = OpCounter::new();
        eval.mean_over(&one, &mut ops_one);
        let mut ops_many = OpCounter::new();
        eval.mean_over(&many, &mut ops_many);
        assert!(
            ops_many.total() < 4 * ops_one.total(),
            "64 shots cost {} vs 1 shot {}",
            ops_many.total(),
            ops_one.total()
        );
    }

    #[test]
    fn empty_shots_cost_constant_only() {
        let h = Hamiltonian::new(1, vec![PauliTerm::z(0, 1.0)], 0.75);
        let mut ops = OpCounter::new();
        assert_eq!(CostEvaluator::new(&h).mean_over(&[], &mut ops), 0.75);
        assert_eq!(ops.total(), 0);
    }

    #[test]
    fn block_sum_rejects_oversize() {
        let h = Hamiltonian::molecular(4, 0);
        let eval = CostEvaluator::new(&h);
        let shots = vec![BitString::zeros(4); 65];
        let result = std::panic::catch_unwind(|| {
            let mut ops = OpCounter::new();
            eval.block_value_sum(&shots, &mut Vec::new(), &mut ops)
        });
        assert!(result.is_err());
    }

    #[test]
    fn record_ops_counts_what_evaluation_records() {
        // An evaluation of up to one block records what `block_value_sum`
        // records plus the mean's loop control; an empty one, nothing.
        let h = Hamiltonian::molecular(16, 3);
        let eval = CostEvaluator::new(&h);
        let mut none = OpCounter::new();
        eval.record_ops(0, &mut none);
        assert!(none.is_empty());
        for k in [1, 5, 63, 64] {
            let mut expected = OpCounter::new();
            eval.record_ops(k as u64, &mut expected);
            let shots = vec![BitString::from_u64(0xDEAD, 16); k];
            let mut ops = OpCounter::new();
            eval.block_value_sum(&shots, &mut Vec::new(), &mut ops);
            ops.record(OpClass::Branch, 2);
            ops.record(OpClass::FpComplex, 1);
            ops.record(OpClass::FpAlu, 1);
            assert_eq!(ops, expected, "{k} shots");
        }
    }
}
