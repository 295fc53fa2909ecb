//! Dynamic incremental compilation: minimal update streams between
//! iterations (Section 6.1).
//!
//! Between consecutive VQA iterations only some parameters move. The
//! [`ParameterDiff`] engine compares the *encoded* register values under
//! the old and new parameter vectors and emits one `q_update` per slot
//! whose hardware value actually changed — parameters that moved by less
//! than the 27-bit angle resolution generate no traffic at all. This is
//! what drops recompile overhead from the baseline's 1–100 ms to
//! effectively the cost of a handful of register writes (Table 1).

use qtenon_isa::Instruction;

use crate::program::CompiledProgram;
use crate::CompileError;

/// The incremental-compilation diff between two parameter vectors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParameterDiff {
    /// `(regfile index, new encoded value)` per changed slot.
    changed: Vec<(u32, u32)>,
    total_slots: usize,
}

impl ParameterDiff {
    /// Computes the diff for `program` between `old` and `new` parameter
    /// vectors: [`ParameterDiff::from_codes`] over their
    /// [`CompiledProgram::slot_codes`].
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::ParameterCountMismatch`] if either vector
    /// differs in length from what the program requires. Excess
    /// parameters are rejected too: they would be silently ignored here
    /// but still feed content-addressed cache keys, so a longer vector
    /// must never alias a shorter one.
    pub fn between(
        program: &CompiledProgram,
        old: &[f64],
        new: &[f64],
    ) -> Result<Self, CompileError> {
        let old: Vec<u32> = program.slot_codes(old)?.collect();
        let new: Vec<u32> = program.slot_codes(new)?.collect();
        Ok(Self::from_codes(&old, &new))
    }

    /// The diff between two slot-code vectors of one program (as
    /// [`CompiledProgram::slot_codes`] encodes them): one update per slot
    /// whose code differs.
    ///
    /// # Panics
    ///
    /// Panics if the vectors differ in length.
    pub fn from_codes(old: &[u32], new: &[u32]) -> Self {
        assert_eq!(old.len(), new.len(), "slot-code vectors differ in length");
        let changed = old
            .iter()
            .zip(new)
            .enumerate()
            .filter(|(_, (before, after))| before != after)
            .map(|(i, (_, &after))| (i as u32, after))
            .collect();
        ParameterDiff {
            changed,
            total_slots: new.len(),
        }
    }

    /// Number of slots whose hardware value changed.
    pub fn changed_slots(&self) -> usize {
        self.changed.len()
    }

    /// Total slots in the program.
    pub fn total_slots(&self) -> usize {
        self.total_slots
    }

    /// The minimal `q_update` stream applying this diff.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::SlotOutOfRange`] if a diffed slot does not
    /// fit the program's register file — possible when the diff was
    /// computed against a different (larger) program than the one it is
    /// applied to.
    pub fn update_instructions(
        &self,
        program: &CompiledProgram,
    ) -> Result<Vec<Instruction>, CompileError> {
        let capacity = program.layout().regfile_entries();
        self.changed
            .iter()
            .map(|&(idx, value)| {
                let qaddr = program.layout().regfile_entry(idx as u64).map_err(|_| {
                    CompileError::SlotOutOfRange {
                        slot: idx as usize,
                        capacity,
                    }
                })?;
                Ok(Instruction::QUpdate { qaddr, value })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::QtenonCompiler;
    use qtenon_isa::QccLayout;
    use qtenon_quantum::{Circuit, ParamId};

    impl ParameterDiff {
        /// Fraction of the program's parameter state left untouched — the
        /// "quantum locality" the paper exploits.
        fn reuse_fraction(&self) -> f64 {
            if self.total_slots == 0 {
                1.0
            } else {
                1.0 - self.changed.len() as f64 / self.total_slots as f64
            }
        }
    }

    fn two_param_program() -> CompiledProgram {
        let layout = QccLayout::for_qubits(4).unwrap();
        let mut c = Circuit::new(4);
        c.rx_param(0, ParamId::new(0))
            .rx_param(1, ParamId::new(0)) // shares slot 0
            .ry_param(2, ParamId::new(1));
        QtenonCompiler::new(layout).compile(&c).unwrap()
    }

    #[test]
    fn only_changed_parameters_update() {
        let p = two_param_program();
        let diff = ParameterDiff::between(&p, &[1.0, 2.0], &[1.0, 2.5]).unwrap();
        assert_eq!(diff.changed_slots(), 1);
        assert_eq!(diff.total_slots(), 2);
        assert!((diff.reuse_fraction() - 0.5).abs() < 1e-12);
        let updates = diff.update_instructions(&p).unwrap();
        assert_eq!(updates.len(), 1);
    }

    #[test]
    fn identical_vectors_produce_no_traffic() {
        let p = two_param_program();
        let diff = ParameterDiff::between(&p, &[1.0, 2.0], &[1.0, 2.0]).unwrap();
        assert_eq!(diff.changed_slots(), 0);
        assert_eq!(diff.reuse_fraction(), 1.0);
        assert!(diff.update_instructions(&p).unwrap().is_empty());
    }

    #[test]
    fn sub_resolution_changes_are_free() {
        // A change below the 27-bit angle resolution encodes identically.
        let p = two_param_program();
        let diff = ParameterDiff::between(&p, &[1.0, 2.0], &[1.0 + 1e-12, 2.0]).unwrap();
        assert_eq!(diff.changed_slots(), 0);
    }

    #[test]
    fn all_parameters_changing_updates_all_slots() {
        let p = two_param_program();
        let diff = ParameterDiff::between(&p, &[1.0, 2.0], &[1.5, 2.5]).unwrap();
        assert_eq!(diff.changed_slots(), 2);
        assert_eq!(diff.reuse_fraction(), 0.0);
    }

    #[test]
    fn update_targets_the_right_regfile_entries() {
        let p = two_param_program();
        let diff = ParameterDiff::between(&p, &[1.0, 2.0], &[9.0, 2.0]).unwrap();
        let updates = diff.update_instructions(&p).unwrap();
        match updates[0] {
            Instruction::QUpdate { qaddr, .. } => {
                assert_eq!(qaddr, p.layout().regfile_entry(0).unwrap());
            }
            ref other => panic!("expected q_update, got {other}"),
        }
    }

    #[test]
    fn short_vectors_rejected() {
        let p = two_param_program();
        assert!(ParameterDiff::between(&p, &[1.0], &[1.0, 2.0]).is_err());
        assert!(ParameterDiff::between(&p, &[1.0, 2.0], &[1.0]).is_err());
    }

    #[test]
    fn long_vectors_rejected_exactly() {
        // Regression: excess parameters used to be silently ignored,
        // which would let [1.0, 2.0] and [1.0, 2.0, 9.0] alias the same
        // compiled state (and the same cache key).
        let p = two_param_program();
        let err = ParameterDiff::between(&p, &[1.0, 2.0, 3.0], &[1.0, 2.0]).unwrap_err();
        assert_eq!(
            err,
            CompileError::ParameterCountMismatch {
                expected: 2,
                got: 3
            }
        );
        let err = ParameterDiff::between(&p, &[1.0, 2.0], &[1.0, 2.0, 3.0]).unwrap_err();
        assert_eq!(
            err,
            CompileError::ParameterCountMismatch {
                expected: 2,
                got: 3
            }
        );
    }

    #[test]
    fn parameterless_program_has_full_reuse() {
        let layout = QccLayout::for_qubits(2).unwrap();
        let mut c = Circuit::new(2);
        c.rx(0, 1.0).measure_all();
        let p = QtenonCompiler::new(layout).compile(&c).unwrap();
        let diff = ParameterDiff::between(&p, &[], &[]).unwrap();
        assert_eq!(diff.reuse_fraction(), 1.0);
    }
}
