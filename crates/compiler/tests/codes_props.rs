//! Property tests for the slot-code path of incremental compilation.
//!
//! A parameter vector's slot codes are encoded once
//! (`CompiledProgram::slot_codes`), and the diff and the pulse work
//! items are built from them. The oracle is the per-entry path: every
//! slot, and every `reg_flag` entry, encodes its angle from the
//! parameters itself.

use qtenon_compiler::{CompileError, CompiledProgram, ParameterDiff, QtenonCompiler};
use qtenon_isa::{Instruction, QccLayout};
use qtenon_prop::{check, Gen};
use qtenon_quantum::{Circuit, ParamId};

/// A random native program over `n_params` parameters: parameterised
/// rotations (some scaled, so slots outnumber parameters), literal
/// rotations and CZs.
fn random_program(g: &mut Gen) -> (CompiledProgram, usize) {
    let n = g.draw(2u32..9);
    let n_params = g.draw(1u32..6);
    let mut c = Circuit::new(n);
    for _ in 0..g.draw(1usize..40) {
        let q = g.draw(0..n);
        let p = ParamId::new(g.draw(0..n_params));
        match g.draw(0u8..6) {
            0 => c.rx_param(q, p),
            1 => c.ry_param(q, p),
            2 => c.rz_scaled_param(q, p, g.select(&[0.5, -1.0, 2.0])),
            3 => c.rx_scaled_param(q, p, g.draw(-3.0f64..3.0)),
            4 => c.rz(q, g.draw(-7.0f64..7.0)),
            _ => c.cz(q, (q + 1) % n),
        };
    }
    // Every parameter appears at least once, so the program takes all.
    for p in 0..n_params {
        c.ry_param(p % n, ParamId::new(p));
    }
    c.measure_all();
    let program = QtenonCompiler::new(QccLayout::for_qubits(n).unwrap())
        .compile(&c)
        .unwrap();
    let n_params = program.num_params();
    (program, n_params)
}

/// A parameter vector near `base`: some entries kept, some moved below
/// the angle resolution, some moved far, a few non-finite.
fn nearby(g: &mut Gen, base: &[f64]) -> Vec<f64> {
    base.iter()
        .map(|&v| match g.draw(0u8..5) {
            0 | 1 => v,
            2 => v + 1e-12,
            3 => g.draw(-10.0f64..10.0),
            _ => g.select(&[f64::NAN, f64::INFINITY, 0.0]),
        })
        .collect()
}

/// The per-slot oracle: `(regfile index, new code)` per slot whose
/// encoded value differs.
fn oracle_changes(program: &CompiledProgram, old: &[f64], new: &[f64]) -> Vec<(u64, u32)> {
    program
        .slots()
        .iter()
        .enumerate()
        .filter(|(_, s)| s.encoded_value(old) != s.encoded_value(new))
        .map(|(i, s)| (i as u64, s.encoded_value(new).code()))
        .collect()
}

#[test]
fn diff_from_codes_equals_the_per_slot_diff() {
    check("diff_from_codes_equals_the_per_slot_diff", 256, |g| {
        let (program, n_params) = random_program(g);
        let old = g.vec(n_params, |g| g.draw(-10.0f64..10.0));
        let new = nearby(g, &old);
        let diff = ParameterDiff::between(&program, &old, &new).unwrap();
        let codes = |params| program.slot_codes(params).unwrap().collect::<Vec<u32>>();
        let from_codes = ParameterDiff::from_codes(&codes(&old), &codes(&new));
        assert_eq!(diff, from_codes);
        let expected = oracle_changes(&program, &old, &new);
        assert_eq!(diff.changed_slots(), expected.len());
        assert_eq!(diff.total_slots(), program.slots().len());
        let updates: Vec<(u64, u32)> = diff
            .update_instructions(&program)
            .unwrap()
            .into_iter()
            .map(|instr| match instr {
                Instruction::QUpdate { qaddr, value } => {
                    let base = program.layout().regfile_entry(0).unwrap().raw();
                    (qaddr.raw() - base, value)
                }
                other => panic!("expected q_update, got {other}"),
            })
            .collect();
        assert_eq!(updates, expected);
    });
}

#[test]
fn work_items_equal_the_per_entry_encoding() {
    check("work_items_equal_the_per_entry_encoding", 256, |g| {
        let (program, n_params) = random_program(g);
        let base = g.vec(n_params, |g| g.draw(-10.0f64..10.0));
        let params = nearby(g, &base);
        let mut expected = Vec::new();
        for (q, chunk) in program.chunks().iter().enumerate() {
            for entry in chunk {
                let data = if entry.reg_flag {
                    program.slots()[entry.data as usize]
                        .encoded_value(&params)
                        .code()
                } else {
                    entry.data
                };
                expected.push((qtenon_isa::QubitId::new(q as u32), entry.gate, data));
            }
        }
        assert_eq!(program.work_items(&params).unwrap(), expected);
        let codes: Vec<u32> = program.slot_codes(&params).unwrap().collect();
        assert_eq!(program.work_items_for_codes(&codes).unwrap(), expected);
    });
}

#[test]
fn mismatched_lengths_are_parameter_count_errors() {
    check("mismatched_lengths_are_parameter_count_errors", 128, |g| {
        let (program, n_params) = random_program(g);
        let good = vec![0.25; n_params];
        let len = if g.bool() {
            g.draw(0..n_params)
        } else {
            g.draw(n_params + 1..n_params + 4)
        };
        let bad = vec![0.5; len];
        let mismatch = CompileError::ParameterCountMismatch {
            expected: n_params,
            got: len,
        };
        assert_eq!(
            ParameterDiff::between(&program, &bad, &good),
            Err(mismatch.clone())
        );
        assert_eq!(
            ParameterDiff::between(&program, &good, &bad),
            Err(mismatch.clone())
        );
        assert_eq!(program.slot_codes(&bad).err(), Some(mismatch.clone()));
        assert_eq!(program.work_items(&bad), Err(mismatch));
    });
}
