//! OpenQASM 2.0 subset: parsing.
//!
//! The paper's baseline flow generates circuits with Qiskit and compiles
//! them through OpenQASM (Section 7.1); eQASM is likewise "translated
//! from OpenQASM". This module implements the subset those flows need:
//! one quantum register, the gates this crate models (`h`, `x`, `y`, `z`,
//! `s`, `t`, `rx`, `ry`, `rz`, `cx`, `cz`), and `measure`.
//!
//! # Examples
//!
//! ```
//! use qtenon_quantum::qasm;
//!
//! let src = r#"
//!     OPENQASM 2.0;
//!     include "qelib1.inc";
//!     qreg q[2];
//!     creg c[2];
//!     h q[0];
//!     cx q[0], q[1];
//!     measure q[0] -> c[0];
//!     measure q[1] -> c[1];
//! "#;
//! let circuit = qasm::parse(src)?;
//! assert_eq!(circuit.n_qubits(), 2);
//! # Ok::<(), qtenon_quantum::qasm::QasmError>(())
//! ```

use std::fmt;

use crate::circuit::{Circuit, Operation};
use crate::gate::{Angle, Gate};

/// Errors from QASM parsing.
#[derive(Debug, Clone, PartialEq)]
pub struct QasmError {
    /// 1-based line of the failure (0 when global).
    pub line: usize,
    /// Description of the failure.
    pub message: String,
}

impl fmt::Display for QasmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "qasm error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for QasmError {}

fn err(line: usize, message: impl Into<String>) -> QasmError {
    QasmError {
        line,
        message: message.into(),
    }
}

/// Parses an OpenQASM 2.0 subset program into a [`Circuit`].
///
/// Supported statements: the `OPENQASM` header, `include`, one `qreg`,
/// any number of `creg`s (sizes ignored), the gate set listed in the
/// module docs, `measure q[i] -> c[j]`, and `barrier` (a scheduling
/// no-op here). Comments (`//`) are stripped.
///
/// # Errors
///
/// Returns [`QasmError`] with the offending line for anything else.
pub fn parse(source: &str) -> Result<Circuit, QasmError> {
    let mut circuit: Option<Circuit> = None;
    let mut pending: Vec<(usize, String)> = Vec::new();

    // Split into ';'-terminated statements, tracking line numbers.
    for (lineno, raw) in source.lines().enumerate() {
        let line = raw.split("//").next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        for stmt in line.split(';') {
            let stmt = stmt.trim();
            if !stmt.is_empty() {
                pending.push((lineno + 1, stmt.to_string()));
            }
        }
    }

    for (lineno, stmt) in pending {
        let (head, rest) = stmt
            .split_once(char::is_whitespace)
            .map(|(h, r)| (h, r.trim()))
            .unwrap_or((stmt.as_str(), ""));
        let head_name = head.split('(').next().unwrap_or(head);
        match head_name {
            "OPENQASM" | "include" | "creg" | "barrier" => {}
            "qreg" => {
                if circuit.is_some() {
                    return Err(err(lineno, "multiple qreg declarations are not supported"));
                }
                let size = parse_index(rest, lineno)?;
                circuit = Some(Circuit::new(size));
            }
            "measure" => {
                let c = circuit
                    .as_mut()
                    .ok_or_else(|| err(lineno, "measure before qreg"))?;
                let src = rest.split("->").next().unwrap_or(rest).trim();
                let q = parse_index(src, lineno)?;
                c.push(Operation {
                    gate: Gate::Measure,
                    qubit: q,
                    qubit2: None,
                })
                .map_err(|e| err(lineno, e.to_string()))?;
            }
            name => {
                let c = circuit
                    .as_mut()
                    .ok_or_else(|| err(lineno, "gate before qreg"))?;
                let (gate, operands) = parse_gate(name, head, rest, lineno)?;
                let qubit2 = operands.get(1).copied();
                c.push(Operation {
                    gate,
                    qubit: operands[0],
                    qubit2,
                })
                .map_err(|e| err(lineno, e.to_string()))?;
            }
        }
    }

    circuit.ok_or_else(|| err(0, "no qreg declaration found"))
}

fn parse_gate(
    name: &str,
    head: &str,
    rest: &str,
    lineno: usize,
) -> Result<(Gate, Vec<u32>), QasmError> {
    // Rotation parameters may be attached to the head (`rz(0.5)`) since we
    // split on whitespace.
    let full = format!("{head} {rest}");
    let angle = || -> Result<Angle, QasmError> {
        let open = full
            .find('(')
            .ok_or_else(|| err(lineno, format!("{name} requires an angle")))?;
        let close = full[open..]
            .find(')')
            .map(|i| open + i)
            .ok_or_else(|| err(lineno, "unterminated angle"))?;
        let text = &full[open + 1..close];
        Ok(Angle::Value(parse_angle_expr(text, lineno)?))
    };
    let gate = match name {
        "h" => Gate::H,
        "x" => Gate::X,
        "y" => Gate::Y,
        "z" => Gate::Z,
        "s" => Gate::S,
        "t" => Gate::T,
        "rx" => Gate::Rx(angle()?),
        "ry" => Gate::Ry(angle()?),
        "rz" | "u1" => Gate::Rz(angle()?),
        "cx" | "CX" => Gate::Cx,
        "cz" => Gate::Cz,
        other => return Err(err(lineno, format!("unsupported gate {other:?}"))),
    };
    // Operands are everything after the closing paren (if any).
    let operand_text = match full.find(')') {
        Some(i) => &full[i + 1..],
        None => rest,
    };
    let operands: Vec<u32> = operand_text
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|s| parse_index(s, lineno))
        .collect::<Result<_, _>>()?;
    if operands.len() != gate.arity() {
        return Err(err(
            lineno,
            format!(
                "{name} expects {} operand(s), got {}",
                gate.arity(),
                operands.len()
            ),
        ));
    }
    Ok((gate, operands))
}

/// Parses `pi`-aware angle expressions: `0.5`, `pi`, `-pi/2`, `3*pi/4`,
/// `2pi`. Expressions that are not finite (`0/0`, `1/0`, `nan`, `inf`,
/// `1e999`) are rejected: a NaN state samples as all-zeros, which would
/// look like a valid result.
fn parse_angle_expr(text: &str, lineno: usize) -> Result<f64, QasmError> {
    let t: String = text.chars().filter(|c| !c.is_whitespace()).collect();
    let (num_text, denom) = match t.split_once('/') {
        Some((n, d)) => (
            n.to_string(),
            d.parse::<f64>()
                .map_err(|_| err(lineno, format!("bad denominator {d:?}")))?,
        ),
        None => (t.clone(), 1.0),
    };
    let parse_pi_factor = |s: &str| -> Result<f64, QasmError> {
        if let Some(stripped) = s.strip_suffix("pi") {
            let stripped = stripped.strip_suffix('*').unwrap_or(stripped);
            let factor = match stripped {
                "" => 1.0,
                "-" => -1.0,
                other => other
                    .parse::<f64>()
                    .map_err(|_| err(lineno, format!("bad angle {s:?}")))?,
            };
            Ok(factor * std::f64::consts::PI)
        } else {
            s.parse::<f64>()
                .map_err(|_| err(lineno, format!("bad angle {s:?}")))
        }
    };
    let angle = parse_pi_factor(&num_text)? / denom;
    if !angle.is_finite() {
        return Err(err(lineno, format!("angle {text:?} is not finite")));
    }
    Ok(angle)
}

fn parse_index(text: &str, lineno: usize) -> Result<u32, QasmError> {
    let open = text
        .find('[')
        .ok_or_else(|| err(lineno, format!("expected register index in {text:?}")))?;
    let close = text[open..]
        .find(']')
        .map(|i| open + i)
        .ok_or_else(|| err(lineno, "unterminated index"))?;
    text[open + 1..close]
        .trim()
        .parse()
        .map_err(|_| err(lineno, format!("bad index in {text:?}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    /// Emits a circuit as OpenQASM 2.0 text.
    ///
    /// Symbolic (unbound) angles are emitted as `rz(theta<N>)` placeholders,
    /// which [`parse`] does not accept — bind the circuit first for a
    /// round-trippable artifact.
    fn emit(circuit: &Circuit) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "OPENQASM 2.0;");
        let _ = writeln!(out, "include \"qelib1.inc\";");
        let _ = writeln!(out, "qreg q[{}];", circuit.n_qubits());
        let _ = writeln!(out, "creg c[{}];", circuit.n_qubits());
        for op in circuit.operations() {
            let line = match op.gate {
                Gate::H => format!("h q[{}];", op.qubit),
                Gate::X => format!("x q[{}];", op.qubit),
                Gate::Y => format!("y q[{}];", op.qubit),
                Gate::Z => format!("z q[{}];", op.qubit),
                Gate::S => format!("s q[{}];", op.qubit),
                Gate::T => format!("t q[{}];", op.qubit),
                Gate::Rx(a) => format!("rx({}) q[{}];", emit_angle(a), op.qubit),
                Gate::Ry(a) => format!("ry({}) q[{}];", emit_angle(a), op.qubit),
                Gate::Rz(a) => format!("rz({}) q[{}];", emit_angle(a), op.qubit),
                Gate::Cx => format!(
                    "cx q[{}], q[{}];",
                    op.qubit,
                    op.qubit2.expect("cx has two operands")
                ),
                Gate::Cz => format!(
                    "cz q[{}], q[{}];",
                    op.qubit,
                    op.qubit2.expect("cz has two operands")
                ),
                Gate::Measure => format!("measure q[{0}] -> c[{0}];", op.qubit),
            };
            let _ = writeln!(out, "{line}");
        }
        out
    }

    fn emit_angle(a: Angle) -> String {
        match a {
            Angle::Value(v) => format!("{v:.12}"),
            Angle::Param { param, scale } => {
                if scale == 1.0 {
                    format!("theta{}", param.index())
                } else {
                    format!("{scale:.6}*theta{}", param.index())
                }
            }
        }
    }

    #[test]
    fn parses_bell_program() {
        let src = r#"
            OPENQASM 2.0;
            include "qelib1.inc";
            qreg q[2];
            creg c[2];
            h q[0];
            cx q[0], q[1];
            measure q[0] -> c[0];
            measure q[1] -> c[1];
        "#;
        let c = parse(src).unwrap();
        assert_eq!(c.n_qubits(), 2);
        assert_eq!(c.operations().len(), 4);
        assert_eq!(c.operations()[0].gate, Gate::H);
        assert_eq!(c.operations()[1].gate, Gate::Cx);
    }

    #[test]
    fn parses_pi_expressions() {
        let src = "qreg q[1]; rz(pi/2) q[0]; rx(-pi/4) q[0]; ry(3*pi/4) q[0]; rz(2pi) q[0];";
        let c = parse(src).unwrap();
        let angles: Vec<f64> = c
            .operations()
            .iter()
            .map(|op| match op.gate.angle().unwrap() {
                Angle::Value(v) => v,
                _ => unreachable!(),
            })
            .collect();
        assert!((angles[0] - PI / 2.0).abs() < 1e-12);
        assert!((angles[1] + PI / 4.0).abs() < 1e-12);
        assert!((angles[2] - 3.0 * PI / 4.0).abs() < 1e-12);
        assert!((angles[3] - 2.0 * PI).abs() < 1e-12);
    }

    #[test]
    fn comments_and_semicolon_packing() {
        let src = "qreg q[1]; // register\nh q[0]; t q[0]; // two gates one line";
        let c = parse(src).unwrap();
        assert_eq!(c.operations().len(), 2);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let src = "qreg q[2];\nfoo q[0];";
        let e = parse(src).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("unsupported gate"));
    }

    #[test]
    fn rejects_structural_mistakes() {
        assert!(parse("h q[0];").is_err()); // gate before qreg
        assert!(parse("qreg q[1]; qreg r[1];").is_err());
        assert!(parse("qreg q[2]; cx q[0];").is_err()); // missing operand
        assert!(parse("qreg q[1]; rx q[0];").is_err()); // missing angle
        assert!(parse("qreg q[1]; h q[5];").is_err()); // out of range
        assert!(parse("").is_err());
    }

    #[test]
    fn emit_parse_round_trip() {
        let mut c = Circuit::new(3);
        c.h(0)
            .cx(0, 1)
            .cz(1, 2)
            .rx(2, 0.25)
            .ry(0, -1.5)
            .rz(1, PI)
            .measure_all();
        let text = emit(&c);
        let parsed = parse(&text).unwrap();
        assert_eq!(parsed.n_qubits(), c.n_qubits());
        assert_eq!(parsed.operations().len(), c.operations().len());
        for (a, b) in parsed.operations().iter().zip(c.operations()) {
            assert_eq!(a.qubit, b.qubit);
            assert_eq!(a.qubit2, b.qubit2);
            match (a.gate.angle(), b.gate.angle()) {
                (Some(Angle::Value(x)), Some(Angle::Value(y))) => {
                    assert!((x - y).abs() < 1e-9)
                }
                _ => assert_eq!(a.gate.name(), b.gate.name()),
            }
        }
    }

    /// Parses `src` and expects an "unterminated index" error on `line`
    /// rather than a slice panic: a `]` before the `[` closes nothing.
    fn assert_unterminated_index(src: &str, line: usize) {
        let e = parse(src).expect_err("reversed brackets must not parse");
        assert_eq!(e.line, line, "{src:?}: {e}");
        assert!(e.message.contains("unterminated index"), "{src:?}: {e}");
    }

    #[test]
    fn rejects_reversed_brackets_in_gate_operand() {
        assert_unterminated_index("qreg q[2];\nh q]0[;", 2);
    }

    #[test]
    fn rejects_reversed_brackets_in_qreg() {
        assert_unterminated_index("OPENQASM 2.0;\nqreg q]4[;", 2);
    }

    #[test]
    fn rejects_reversed_brackets_in_measure() {
        assert_unterminated_index("qreg q[2];\nh q[0];\nmeasure q]0[ -> c[0];", 3);
    }

    /// Parses `gate` as line 3 of a two-qubit program: the error must
    /// name that line and say the angle is not finite.
    fn assert_non_finite_rejected(gate: &str) {
        let src = format!("OPENQASM 2.0;\nqreg q[2];\n{gate}\nmeasure q[0] -> c[0];\n");
        let e = parse(&src).expect_err("non-finite angle must not parse");
        assert_eq!(e.line, 3, "{gate}: {e}");
        assert!(e.message.contains("not finite"), "{gate}: {e}");
    }

    #[test]
    fn rejects_zero_over_zero_angle() {
        assert_non_finite_rejected("rx(0/0) q[0];");
    }

    #[test]
    fn rejects_division_by_zero_angle() {
        assert_non_finite_rejected("rz(1/0) q[0];");
    }

    #[test]
    fn rejects_nan_angle() {
        assert_non_finite_rejected("rx(nan) q[0];");
    }

    #[test]
    fn rejects_inf_angle() {
        assert_non_finite_rejected("ry(inf) q[1];");
    }

    #[test]
    fn rejects_overflowing_angle() {
        assert_non_finite_rejected("rx(1e999) q[0];");
    }

    #[test]
    fn parsed_circuit_simulates_correctly() {
        use crate::statevector::StateVector;
        use crate::transpile;
        let src = "qreg q[2]; h q[0]; cx q[0], q[1];";
        let c = parse(src).unwrap();
        let native = transpile::to_native(&c).unwrap();
        let mut sv = StateVector::new(2).unwrap();
        sv.apply_circuit(&native).unwrap();
        assert!((sv.expectation_z_product(&[0, 1]) - 1.0).abs() < 1e-10);
    }
}
