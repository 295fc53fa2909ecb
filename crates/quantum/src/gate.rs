//! Gates and (possibly symbolic) rotation angles.

use std::fmt;

/// Identifier of a variational parameter within a circuit.
///
/// # Examples
///
/// ```
/// use qtenon_quantum::ParamId;
///
/// let theta = ParamId::new(0);
/// assert_eq!(theta.index(), 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ParamId(u32);

impl ParamId {
    /// Creates a parameter id.
    pub const fn new(index: u32) -> Self {
        ParamId(index)
    }

    /// The raw parameter index.
    pub const fn index(self) -> u32 {
        self.0
    }
}

impl fmt::Display for ParamId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "θ{}", self.0)
    }
}

/// A rotation angle: a literal value or a reference to a variational
/// parameter (optionally scaled, so QAOA can share one parameter across a
/// whole layer with per-gate weights).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Angle {
    /// A concrete angle in radians.
    Value(f64),
    /// `scale × θ[param]`: resolved when the circuit is bound.
    Param {
        /// The referenced parameter.
        param: ParamId,
        /// Multiplier applied at bind time.
        scale: f64,
    },
}

impl Angle {
    /// A plain reference to `param` with unit scale.
    pub(crate) fn param(param: ParamId) -> Self {
        Angle::Param { param, scale: 1.0 }
    }

    /// A scaled reference to `param`.
    pub(crate) fn scaled_param(param: ParamId, scale: f64) -> Self {
        Angle::Param { param, scale }
    }

    /// The parameter this angle references, if symbolic.
    pub(crate) fn param_id(&self) -> Option<ParamId> {
        match self {
            Angle::Value(_) => None,
            Angle::Param { param, .. } => Some(*param),
        }
    }

    /// Resolves the angle against a parameter vector.
    ///
    /// Returns `None` if the referenced parameter is out of range.
    pub(crate) fn resolve(&self, params: &[f64]) -> Option<f64> {
        match *self {
            Angle::Value(v) => Some(v),
            Angle::Param { param, scale } => params.get(param.index() as usize).map(|&p| p * scale),
        }
    }
}

impl From<f64> for Angle {
    fn from(v: f64) -> Self {
        Angle::Value(v)
    }
}

impl From<ParamId> for Angle {
    fn from(p: ParamId) -> Self {
        Angle::param(p)
    }
}

impl fmt::Display for Angle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Angle::Value(v) => write!(f, "{v:.4}"),
            Angle::Param { param, scale } if *scale == 1.0 => write!(f, "{param}"),
            Angle::Param { param, scale } => write!(f, "{scale:.4}·{param}"),
        }
    }
}

/// A logical gate. Everything here lowers to the chip-native set
/// `{RX, RY, RZ, CZ}` plus measurement via [`crate::transpile`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Gate {
    /// Hadamard.
    H,
    /// Pauli-X.
    X,
    /// Pauli-Y.
    Y,
    /// Pauli-Z.
    Z,
    /// Phase gate (√Z).
    S,
    /// T gate (⁴√Z).
    T,
    /// X rotation.
    Rx(Angle),
    /// Y rotation.
    Ry(Angle),
    /// Z rotation.
    Rz(Angle),
    /// Controlled-X (CNOT).
    Cx,
    /// Controlled-Z (chip native two-qubit gate).
    Cz,
    /// Z-basis measurement.
    Measure,
}

impl Gate {
    /// The gate's display name.
    pub fn name(&self) -> &'static str {
        match self {
            Gate::H => "H",
            Gate::X => "X",
            Gate::Y => "Y",
            Gate::Z => "Z",
            Gate::S => "S",
            Gate::T => "T",
            Gate::Rx(_) => "RX",
            Gate::Ry(_) => "RY",
            Gate::Rz(_) => "RZ",
            Gate::Cx => "CX",
            Gate::Cz => "CZ",
            Gate::Measure => "MEASURE",
        }
    }

    /// Number of qubit operands.
    pub fn arity(&self) -> usize {
        match self {
            Gate::Cx | Gate::Cz => 2,
            _ => 1,
        }
    }

    /// Whether the gate is in the chip-native set.
    pub(crate) fn is_native(&self) -> bool {
        matches!(
            self,
            Gate::Rx(_) | Gate::Ry(_) | Gate::Rz(_) | Gate::Cz | Gate::Measure
        )
    }

    /// The gate's angle, if it is a rotation.
    pub(crate) fn angle(&self) -> Option<Angle> {
        match self {
            Gate::Rx(a) | Gate::Ry(a) | Gate::Rz(a) => Some(*a),
            _ => None,
        }
    }
}

impl fmt::Display for Gate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.angle() {
            Some(a) => write!(f, "{}({a})", self.name()),
            None => f.write_str(self.name()),
        }
    }
}

/// Slots of a [`SinCosMemo`].
const SIN_COS_SLOTS: usize = 64;

/// A direct-mapped memo of `f64::sin_cos`, keyed on the argument's bits,
/// for one lowering pass. A hit returns the bits a fresh call would, so
/// results never depend on it. QAOA repeats a few angles thousands of
/// times per circuit (12 distinct among QAOA-128's 9,536 rotations); VQE
/// and QNN angles are all distinct and pay one compare per rotation.
pub(crate) struct SinCosMemo {
    slots: [(u64, (f64, f64)); SIN_COS_SLOTS],
}

impl SinCosMemo {
    /// An empty memo: every slot holds the argument `+0.0`.
    pub(crate) fn new() -> Self {
        SinCosMemo {
            slots: [(0, 0.0f64.sin_cos()); SIN_COS_SLOTS],
        }
    }

    /// `x.sin_cos()`, computed at most once per slot occupancy.
    #[inline]
    pub(crate) fn sin_cos(&mut self, x: f64) -> (f64, f64) {
        let bits = x.to_bits();
        // Fibonacci hashing: the top 6 bits of a multiplicative hash.
        let slot = &mut self.slots[(bits.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 58) as usize];
        if slot.0 != bits {
            *slot = (bits, x.sin_cos());
        }
        slot.1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn angle_resolution() {
        let a = Angle::Value(1.5);
        assert_eq!(a.resolve(&[]), Some(1.5));
        let b = Angle::param(ParamId::new(1));
        assert_eq!(b.resolve(&[0.0, 2.5]), Some(2.5));
        assert_eq!(b.resolve(&[0.0]), None);
        let c = Angle::scaled_param(ParamId::new(0), 2.0);
        assert_eq!(c.resolve(&[0.7]), Some(1.4));
    }

    #[test]
    fn angle_param_id() {
        assert_eq!(Angle::Value(0.1).param_id(), None);
        assert_eq!(
            Angle::param(ParamId::new(3)).param_id(),
            Some(ParamId::new(3))
        );
    }

    #[test]
    fn native_set_membership() {
        assert!(Gate::Rx(Angle::Value(0.1)).is_native());
        assert!(Gate::Cz.is_native());
        assert!(Gate::Measure.is_native());
        assert!(!Gate::H.is_native());
        assert!(!Gate::Cx.is_native());
        assert!(!Gate::T.is_native());
    }

    #[test]
    fn arity() {
        assert_eq!(Gate::H.arity(), 1);
        assert_eq!(Gate::Cx.arity(), 2);
        assert_eq!(Gate::Cz.arity(), 2);
        assert_eq!(Gate::Measure.arity(), 1);
    }

    #[test]
    fn display_forms() {
        assert_eq!(
            Gate::Ry(Angle::param(ParamId::new(2))).to_string(),
            "RY(θ2)"
        );
        assert_eq!(Gate::Cz.to_string(), "CZ");
    }

    #[test]
    fn sin_cos_memo_returns_the_bits_of_a_fresh_call() {
        let mut memo = SinCosMemo::new();
        let angles = [
            0.0,
            -0.0,
            0.3,
            -1.2,
            0.3,
            1e-300,
            std::f64::consts::PI,
            0.3,
            -0.0,
        ];
        for _ in 0..2 {
            for (i, &x) in angles.iter().enumerate() {
                let (s, c) = memo.sin_cos(x);
                let (fs, fc) = x.sin_cos();
                assert_eq!(
                    (s.to_bits(), c.to_bits()),
                    (fs.to_bits(), fc.to_bits()),
                    "{i}: {x:e}"
                );
            }
        }
        // Colliding keys evict each other and still answer exactly.
        for k in 0..1000 {
            let x = f64::from(k) * 0.01;
            assert_eq!(memo.sin_cos(x).0.to_bits(), x.sin().to_bits());
        }
    }
}
