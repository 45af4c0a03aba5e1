//! Generic signed fixed-point numbers with a const-generic fractional width.
//!
//! The Eventor datapath replaces the baseline's double-precision arithmetic
//! with short fixed-point formats (Table 1 of the paper). [`Fix`] is the
//! storage- and width-parameterised building block: `Fix<i16, 7>` is the
//! Q9.7 format used for event coordinates, `Fix<i32, 21>` the Q11.21 format
//! used for the homography and the proportional coefficients φ.
//!
//! A `Fix` only stores a value and converts it to and from `f64`. The
//! arithmetic between storage points exists once, on raw words, in
//! [`crate::kernel`].

use std::fmt;

/// Backing integer storage for a fixed-point value.
///
/// Implemented for `i16` and `i32`. The trait is sealed: the quantization
/// strategy of the accelerator only ever uses these widths.
pub trait FixedStorage: Copy + Clone + fmt::Debug + PartialEq + Eq + private::Sealed {
    /// Total bit width of the storage type.
    const BITS: u32;
    /// Converts to `i64` without loss.
    fn to_i64(self) -> i64;
    /// Saturating conversion from `i64`.
    fn from_i64_saturating(v: i64) -> Self;
    /// Minimum representable raw value.
    fn min_raw() -> i64;
    /// Maximum representable raw value.
    fn max_raw() -> i64;
}

mod private {
    pub trait Sealed {}
    impl Sealed for i16 {}
    impl Sealed for i32 {}
}

macro_rules! impl_storage {
    ($ty:ty) => {
        impl FixedStorage for $ty {
            const BITS: u32 = <$ty>::BITS;
            #[inline]
            fn to_i64(self) -> i64 {
                self as i64
            }
            #[inline]
            fn from_i64_saturating(v: i64) -> Self {
                if v > <$ty>::MAX as i64 {
                    <$ty>::MAX
                } else if v < <$ty>::MIN as i64 {
                    <$ty>::MIN
                } else {
                    v as $ty
                }
            }
            #[inline]
            fn min_raw() -> i64 {
                <$ty>::MIN as i64
            }
            #[inline]
            fn max_raw() -> i64 {
                <$ty>::MAX as i64
            }
        }
    };
}

impl_storage!(i16);
impl_storage!(i32);

/// A signed fixed-point number with `FRAC` fractional bits stored in `S`.
///
/// Conversions from `f64` saturate at the representable range (the behaviour
/// of the RTL datapath, which clamps rather than wraps), and round to
/// nearest with ties away from zero, the rule of [`crate::kernel`].
///
/// # Examples
///
/// ```
/// use eventor_fixed::Fix;
/// // Q9.7: 16-bit storage, 7 fractional bits — the paper's event-coordinate format.
/// let x: Fix<i16, 7> = Fix::from_f64(123.4375);
/// assert_eq!(x.to_f64(), 123.4375);
/// assert_eq!(Fix::<i16, 7>::RESOLUTION, 1.0 / 128.0);
/// ```
/// `repr(transparent)` pins the layout to the raw storage word so
/// aggregates of fixed-point values (e.g. `PackedCoord`) have the exact
/// in-memory shape of their bus words — the batched SIMD kernel tier
/// relies on this for vector loads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(transparent)]
pub struct Fix<S: FixedStorage, const FRAC: u32> {
    raw: S,
}

impl<S: FixedStorage, const FRAC: u32> Fix<S, FRAC> {
    /// Smallest representable increment (`2⁻ᶠʳᵃᶜ`).
    pub const RESOLUTION: f64 = 1.0 / (1u64 << FRAC) as f64;

    /// Zero.
    pub fn zero() -> Self {
        Self {
            raw: S::from_i64_saturating(0),
        }
    }

    /// One.
    pub fn one() -> Self {
        Self {
            raw: S::from_i64_saturating(1i64 << FRAC),
        }
    }

    /// Creates a value from its raw (already shifted) representation.
    pub fn from_raw(raw: S) -> Self {
        Self { raw }
    }

    /// The raw (shifted) representation.
    pub fn raw(self) -> S {
        self.raw
    }

    /// Number of fractional bits.
    pub const fn frac_bits() -> u32 {
        FRAC
    }

    /// Number of integer bits (including the sign bit).
    pub const fn int_bits() -> u32 {
        S::BITS - FRAC
    }

    /// Largest representable value.
    pub fn max_value() -> Self {
        Self {
            raw: S::from_i64_saturating(S::max_raw()),
        }
    }

    /// Smallest (most negative) representable value.
    pub fn min_value() -> Self {
        Self {
            raw: S::from_i64_saturating(S::min_raw()),
        }
    }

    /// Converts from `f64`, rounding to nearest (ties away from zero) and
    /// saturating at the range bounds. Non-finite inputs saturate (NaN maps
    /// to zero).
    pub fn from_f64(v: f64) -> Self {
        if v.is_nan() {
            return Self::zero();
        }
        let scaled = v * (1u64 << FRAC) as f64;
        let rounded = scaled.round();
        let clamped = if rounded >= S::max_raw() as f64 {
            S::max_raw()
        } else if rounded <= S::min_raw() as f64 {
            S::min_raw()
        } else {
            rounded as i64
        };
        Self {
            raw: S::from_i64_saturating(clamped),
        }
    }

    /// Converts to `f64` exactly.
    pub fn to_f64(self) -> f64 {
        self.raw.to_i64() as f64 * Self::RESOLUTION
    }

    /// Whether this value sits at either saturation bound.
    pub fn is_saturated(self) -> bool {
        let r = self.raw.to_i64();
        r == S::max_raw() || r == S::min_raw()
    }
}

impl<S: FixedStorage, const FRAC: u32> Default for Fix<S, FRAC> {
    fn default() -> Self {
        Self::zero()
    }
}

impl<S: FixedStorage, const FRAC: u32> fmt::Display for Fix<S, FRAC> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}", self.to_f64())
    }
}

impl<S: FixedStorage, const FRAC: u32> From<Fix<S, FRAC>> for f64 {
    fn from(v: Fix<S, FRAC>) -> f64 {
        v.to_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Q9_7 = Fix<i16, 7>;
    type Q11_21 = Fix<i32, 21>;

    #[test]
    fn resolution_and_bit_budget() {
        assert_eq!(Q9_7::RESOLUTION, 1.0 / 128.0);
        assert_eq!(Q9_7::frac_bits(), 7);
        assert_eq!(Q9_7::int_bits(), 9);
        assert_eq!(Q11_21::frac_bits(), 21);
        assert_eq!(Q11_21::int_bits(), 11);
    }

    #[test]
    fn exact_values_round_trip() {
        for v in [0.0, 1.0, -1.0, 0.5, 100.25, -200.125, 255.9921875] {
            let q = Q9_7::from_f64(v);
            assert_eq!(q.to_f64(), v, "value {v}");
        }
    }

    #[test]
    fn rounding_to_nearest() {
        // 0.004 is closest to 0.0078125 (1/128) ? No: 0.004 < 0.00390625 is false,
        // 0.004*128 = 0.512 -> rounds to 1 -> 0.0078125.
        let q = Q9_7::from_f64(0.004);
        assert_eq!(q.to_f64(), 1.0 / 128.0);
        let q = Q9_7::from_f64(0.003);
        assert_eq!(q.to_f64(), 0.0);
    }

    #[test]
    fn saturation_at_bounds() {
        let max = Q9_7::from_f64(1e9);
        assert!(max.is_saturated());
        assert_eq!(max, Q9_7::max_value());
        let min = Q9_7::from_f64(-1e9);
        assert!(min.is_saturated());
        assert_eq!(min, Q9_7::min_value());
        // Q9.7 max is 255.9921875
        assert!((Q9_7::max_value().to_f64() - 255.9921875).abs() < 1e-12);
    }

    #[test]
    fn nan_maps_to_zero() {
        assert_eq!(Q9_7::from_f64(f64::NAN), Q9_7::zero());
        assert_eq!(Q9_7::from_f64(f64::INFINITY), Q9_7::max_value());
        assert_eq!(Q9_7::from_f64(f64::NEG_INFINITY), Q9_7::min_value());
    }

    #[test]
    fn quantization_error_bounded_by_half_lsb() {
        for i in 0..1000 {
            let v = (i as f64) * 0.123456 - 60.0;
            assert!((Q9_7::from_f64(v).to_f64() - v).abs() <= Q9_7::RESOLUTION / 2.0 + 1e-12);
            assert!((Q11_21::from_f64(v).to_f64() - v).abs() <= Q11_21::RESOLUTION / 2.0 + 1e-15);
        }
    }

    #[test]
    fn exact_ties_round_away_from_zero_and_saturate_past_the_range() {
        // Half-LSB ties: Q9.7 ±2⁻⁸ → ±2⁻⁷, ±3·2⁻⁸ → ±2⁻⁶; Q11.21 ±2⁻²² → raw ±1.
        for sign in [1.0, -1.0] {
            assert_eq!(Q9_7::from_f64(sign / 256.0).to_f64(), sign / 128.0);
            assert_eq!(Q9_7::from_f64(sign * 3.0 / 256.0).to_f64(), sign / 64.0);
            assert_eq!(
                Q11_21::from_f64(sign / (1u64 << 22) as f64).raw(),
                sign as i32
            );
        }
        // The same rule as the kernel's Nearest Voxel Finder: a tie at k/2
        // of an LSB rounds as `kernel::round_acc` rounds k/2 of a pixel.
        for k in -9i64..=9 {
            let tie = Q9_7::from_f64(k as f64 / 256.0).raw();
            let acc = k << (crate::kernel::ACC_FRAC - 1);
            assert_eq!(tie as i64, crate::kernel::round_acc(acc), "k = {k}");
        }
        // Just past ±MAX_MAGNITUDE the conversion saturates instead of
        // wrapping; i16::MIN (−256.0) is the negative bound.
        let max = crate::Q9p7::MAX_MAGNITUDE;
        assert_eq!(Q9_7::from_f64(max + 1.0 / 256.0), Q9_7::max_value());
        assert_eq!(Q9_7::from_f64(max + Q9_7::RESOLUTION), Q9_7::max_value());
        assert_eq!(Q9_7::from_f64(-max - 1.0 / 256.0).raw(), i16::MIN);
        assert_eq!(Q9_7::from_f64(-256.0 - 1.0 / 256.0), Q9_7::min_value());
        let max = Q11_21::max_value().to_f64();
        assert_eq!(
            Q11_21::from_f64(max + Q11_21::RESOLUTION / 2.0),
            Q11_21::max_value()
        );
        assert_eq!(
            Q11_21::from_f64(-max - 2.0 * Q11_21::RESOLUTION),
            Q11_21::min_value()
        );
    }

    #[test]
    fn display_nonempty() {
        assert!(!format!("{}", Q9_7::from_f64(1.5)).is_empty());
    }
}
