//! Fixed-point rotation-angle encoding.
//!
//! Program entries carry gate parameters in a 27-bit `data` field and the
//! register file stores them in 32-bit entries; the skip lookup table keys
//! its cache on a 20-bit quantized tag plus a 7-bit index derived from the
//! parameter (Fig. 7). [`EncodedAngle`] is the shared fixed-point format:
//! an angle is reduced modulo 2π and scaled to 27 bits, so one code step is
//! 2π/2²⁷ ≈ 4.7×10⁻⁸ rad — far below any physically meaningful pulse
//! distinction.

use std::f64::consts::TAU;
use std::fmt;

/// Bit width of the encoded angle (the `.program` entry `data` field).
pub(crate) const ANGLE_BITS: u32 = 27;

/// Number of representable angle codes.
pub(crate) const ANGLE_CODES: u64 = 1 << ANGLE_BITS;

/// A rotation angle in the 27-bit fixed-point hardware format.
///
/// # Examples
///
/// ```
/// use std::f64::consts::PI;
/// use qtenon_isa::EncodedAngle;
///
/// let a = EncodedAngle::from_radians(PI / 2.0);
/// assert!((a.to_radians() - PI / 2.0).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct EncodedAngle(u32);

impl EncodedAngle {
    /// Encodes an angle in radians, reducing modulo 2π.
    ///
    /// NaN and infinite inputs are encoded as zero: the hardware has no
    /// representation for them and a zero rotation is the identity.
    pub fn from_radians(theta: f64) -> Self {
        if !theta.is_finite() {
            return EncodedAngle(0);
        }
        let frac = (theta / TAU).rem_euclid(1.0);
        let code = (frac * ANGLE_CODES as f64).round() as u64 % ANGLE_CODES;
        EncodedAngle(code as u32)
    }

    /// Reconstructs the angle in radians, in `[0, 2π)`.
    pub fn to_radians(self) -> f64 {
        self.0 as f64 / ANGLE_CODES as f64 * TAU
    }

    /// The raw 27-bit code.
    pub const fn code(self) -> u32 {
        self.0
    }

    /// Creates an angle directly from a 27-bit code.
    ///
    /// # Panics
    ///
    /// Panics if `code` does not fit in 27 bits.
    pub fn from_code(code: u32) -> Self {
        assert!(
            (code as u64) < ANGLE_CODES,
            "angle code {code:#x} exceeds {ANGLE_BITS} bits"
        );
        EncodedAngle(code)
    }
}

impl fmt::Display for EncodedAngle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}rad", self.to_radians())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, PI};

    #[test]
    fn round_trip_precision() {
        for theta in [0.0, 0.1, FRAC_PI_2, PI, 4.9, TAU - 1e-6] {
            let enc = EncodedAngle::from_radians(theta);
            assert!(
                (enc.to_radians() - theta).abs() < 1e-6,
                "theta={theta} decoded={}",
                enc.to_radians()
            );
        }
    }

    #[test]
    fn reduces_modulo_tau() {
        let a = EncodedAngle::from_radians(0.5);
        let b = EncodedAngle::from_radians(0.5 + TAU);
        let c = EncodedAngle::from_radians(0.5 - 3.0 * TAU);
        assert_eq!(a, b);
        assert_eq!(a, c);
    }

    #[test]
    fn negative_angles_wrap() {
        let a = EncodedAngle::from_radians(-FRAC_PI_2);
        assert!((a.to_radians() - (TAU - FRAC_PI_2)).abs() < 1e-6);
    }

    #[test]
    fn non_finite_encodes_to_zero() {
        assert_eq!(
            EncodedAngle::from_radians(f64::NAN),
            EncodedAngle::from_code(0)
        );
        assert_eq!(
            EncodedAngle::from_radians(f64::INFINITY),
            EncodedAngle::from_code(0)
        );
    }

    #[test]
    fn tag_and_code_fit_their_widths() {
        let full = EncodedAngle::from_radians(TAU - 1e-9);
        assert!(full.code() < ANGLE_CODES as u32);
    }

    #[test]
    #[should_panic(expected = "exceeds 27 bits")]
    fn oversized_code_panics() {
        let _ = EncodedAngle::from_code(1 << 27);
    }
}
