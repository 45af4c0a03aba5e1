//! The **bit-true integer datapath kernel**: the one implementation of the
//! Table 1 arithmetic that every Eventor datapath runs.
//!
//! The reproduction used to model the quantized arithmetic twice — once in
//! `eventor-core::quantized` (the golden model) and once in
//! `eventor-hwsim` (the device model) — and both copies carried the
//! intermediate MACs in `f64`, which merely *upper-bounded* the precision of
//! the RTL's wide accumulators. This module is the replacement: the
//! matrix-vector MAC of `PE_Z0`, the normalization divider, the Q9.7
//! saturation (projection-missing) judgement, the per-plane proportional
//! scalar MAC of the `PE_Zi` array and the Nearest Voxel Finder, all in
//! plain integer arithmetic on the raw fixed-point words. There is no `f64`
//! anywhere between quantization points; golden-model ↔ device agreement is
//! a property of construction, not of two implementations happening to
//! round alike.
//!
//! ## Bit widths
//!
//! A Q11.21 parameter word times a Q9.7 coordinate word is a product at
//! scale 2⁻²⁸ ([`ACC_FRAC`]) with at most 46 significant bits; three-term
//! rows therefore fit an `i64` wide accumulator with > 15 bits of headroom —
//! exactly the full-width partial products the RTL keeps. Normalization
//! divides two wide accumulators and rounds the exact rational to Q9.7, so
//! the kernel is at least as precise as the old `f64` datapath (whose
//! division rounded to 53 bits *before* the Q9.7 rounding).
//!
//! ## Rounding convention
//!
//! All roundings are **to nearest, ties away from zero** — the behaviour of
//! `f64::round()`, which both pre-kernel datapaths used — so voxel addresses
//! are unchanged from the previous implementation wherever the old `f64`
//! arithmetic was exact (the per-plane transfer always was).
//!
//! ## Example
//!
//! ```
//! use eventor_fixed::{kernel, PackedCoord, Q11p21};
//!
//! // Identity homography in raw Q11.21 words.
//! let one = Q11p21::one().raw();
//! let h = [one, 0, 0, 0, one, 0, 0, 0, one];
//! let coord = PackedCoord::from_f64(120.5, 89.25);
//! assert_eq!(kernel::project_z0(&h, coord), Some(coord));
//!
//! // Identity transfer: scale 1, zero offsets.
//! let phi = kernel::PhiWords::from_f64(1.0, 0.0, 0.0);
//! let voxel = kernel::transfer_nearest(&phi, coord, 240, 180);
//! assert_eq!(voxel.address(), Some((121, 89)));
//! ```

pub mod batch;

use crate::formats::{PackedCoord, PlaneCoord, Q11p21, Q9p7};

/// Fractional bits of the wide MAC accumulator: a Q11.21 parameter times a
/// Q9.7 coordinate yields scale `2⁻²⁸` (Q?.28 in an `i64`).
pub const ACC_FRAC: u32 = Q11p21::frac_bits() + Q9p7::frac_bits();

/// Half an accumulator LSB, the rounding increment of the Nearest Voxel
/// Finder.
const ACC_HALF: i64 = 1 << (ACC_FRAC - 1);

/// One `Buf_P` entry in raw Q11.21 bus words: the proportional
/// back-projection coefficients `φ` of a single depth plane.
///
/// This is the storage format of the parameter BRAM and the DMA payload; the
/// host quantizes `f64` coefficients once per frame
/// ([`PhiWords::from_f64`]) and the per-event hot loop consumes the raw
/// words directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct PhiWords {
    /// Homothety ratio `r_i`, raw Q11.21.
    pub scale: i32,
    /// Epipole term for the x axis, `(1 - r_i)·e_x`, raw Q11.21.
    pub offset_x: i32,
    /// Epipole term for the y axis, `(1 - r_i)·e_y`, raw Q11.21.
    pub offset_y: i32,
}

impl PhiWords {
    /// Quantizes floating-point coefficients into raw Q11.21 words (the
    /// conversion the host driver performs before the DMA transfer).
    pub fn from_f64(scale: f64, offset_x: f64, offset_y: f64) -> Self {
        Self {
            scale: Q11p21::from_f64(scale).raw(),
            offset_x: Q11p21::from_f64(offset_x).raw(),
            offset_y: Q11p21::from_f64(offset_y).raw(),
        }
    }

    /// Decodes the entry to `f64` triples `(scale, offset_x, offset_y)` —
    /// an inspection/debug exit point, never used by the hot loop.
    pub fn to_f64(&self) -> (f64, f64, f64) {
        (
            Q11p21::from_raw(self.scale).to_f64(),
            Q11p21::from_raw(self.offset_x).to_f64(),
            Q11p21::from_raw(self.offset_y).to_f64(),
        )
    }
}

/// Quantizes a row-major `f64` homography into the nine raw Q11.21 words of
/// the `Buf_H` register bank.
pub fn quantize_homography(m: &[[f64; 3]; 3]) -> [i32; 9] {
    let mut words = [0i32; 9];
    for (k, w) in words.iter_mut().enumerate() {
        *w = Q11p21::from_f64(m[k / 3][k % 3]).raw();
    }
    words
}

/// The matrix-vector MAC of `PE_Z0`: `H · (x, y, 1)ᵀ` on raw words, with
/// explicit `i64` wide accumulators at scale `2⁻²⁸`.
///
/// `h` is the nine raw Q11.21 words of `H_{Z0}` in row-major order; the
/// constant column is re-scaled by `<< 7` so all three terms share
/// [`ACC_FRAC`]. Returns the three row accumulators `(num_x, num_y, w)`.
/// Magnitudes are bounded by `3·2⁴⁶ < 2⁴⁸`, so the accumulation is exact.
#[inline]
pub fn mat_vec_mac(h: &[i32; 9], coord: PackedCoord) -> [i64; 3] {
    let x = coord.x.raw() as i64;
    let y = coord.y.raw() as i64;
    let row = |r: usize| -> i64 {
        h[3 * r] as i64 * x + h[3 * r + 1] as i64 * y + ((h[3 * r + 2] as i64) << Q9p7::frac_bits())
    };
    [row(0), row(1), row(2)]
}

/// Division of two same-scale wide accumulators, rounded to nearest with
/// ties away from zero (the exact-rational analogue of `f64::round()`).
#[inline]
fn div_round_half_away(num: i64, den: i64) -> i64 {
    debug_assert!(den != 0);
    let quot = num / den;
    let rem = num % den;
    if 2 * rem.abs() >= den.abs() {
        quot + if (num < 0) == (den < 0) { 1 } else { -1 }
    } else {
        quot
    }
}

/// The normalization divider of `PE_Z0` with the Q9.7 saturation judgement:
/// `num / den` rounded to a raw Q9.7 word.
///
/// Returns `None` — the projection-missing judgement — when:
///
/// * `den == 0`: the point maps to infinity. At accumulator granularity the
///   smallest non-zero `|w|` is `2⁻²⁸ ≈ 3.7e-9`, so this is exactly the old
///   golden model's `|w| < 1e-9` test;
/// * the exact quotient exceeds [`Q9p7::MAX_MAGNITUDE`]
///   (`|num / den| > i16::MAX / 128`, tested on the exact rational *before*
///   rounding — the same pre-rounding bound the pre-kernel `f64` datapath
///   applied, ARCHITECTURE.md contract 3.1). Dropping rather than
///   saturating is normative: a saturated canonical coordinate would
///   corrupt every subsequent plane transfer.
///
/// Within the judgement the quotient is at most `i16::MAX / 128` in
/// magnitude, so the rounded result always fits `i16` and the unreachable
/// raw word `i16::MIN` (`-256.0`) is never produced.
///
/// The accumulator domain is `|num| < 2⁵⁶` and `|den| < 2⁶²`
/// (debug-asserted): enough headroom for `num << 7` and the rounding
/// arithmetic to stay exact in `i64`. [`mat_vec_mac`] accumulators are
/// bounded by `3·2⁴⁶`, far inside it.
#[inline]
pub fn normalize_q9p7(num: i64, den: i64) -> Option<i16> {
    debug_assert!(
        num.unsigned_abs() < 1 << 56 && den.unsigned_abs() < 1 << 62,
        "accumulator outside the kernel's exact domain"
    );
    if den == 0 {
        return None;
    }
    // Pre-rounding saturation judgement, exact in integers:
    // |num/den| > i16::MAX / 2^7  ⟺  |num| << 7 > i16::MAX · |den|.
    // (u128: the right-hand product exceeds u64 for large denominators.)
    if (num.unsigned_abs() as u128) << Q9p7::frac_bits()
        > i16::MAX as u128 * den.unsigned_abs() as u128
    {
        return None;
    }
    Some(div_round_half_away(num << Q9p7::frac_bits(), den) as i16)
}

/// The complete `PE_Z0` operation `𝒫{Z0}` on raw words: wide matrix-vector
/// MAC, normalization and re-quantization to the Q9.7 transport format.
///
/// Returns `None` when the projection-missing judgement drops the event
/// (see [`normalize_q9p7`]).
#[inline]
pub fn project_z0(h: &[i32; 9], coord: PackedCoord) -> Option<PackedCoord> {
    let [num_x, num_y, w] = mat_vec_mac(h, coord);
    let px = normalize_q9p7(num_x, w)?;
    let py = normalize_q9p7(num_y, w)?;
    Some(PackedCoord {
        x: Q9p7::from_raw(px),
        y: Q9p7::from_raw(py),
    })
}

/// The scalar MAC of one `PE_Zi` axis: `scale · c + offset` on raw words,
/// returning the `i64` wide accumulator at scale `2⁻²⁸`.
///
/// `scale` and `offset` are raw Q11.21, `c` a raw Q9.7 canonical
/// coordinate. The product has at most 46 significant bits and the re-scaled
/// offset at most 38, so the sum is exact in `i64`.
#[inline]
pub fn plane_mac(scale: i32, offset: i32, c: i16) -> i64 {
    scale as i64 * c as i64 + ((offset as i64) << Q9p7::frac_bits())
}

/// Rounds a wide accumulator to the nearest integer pixel (ties away from
/// zero) — the rounding of the Nearest Voxel Finder.
#[inline]
pub fn round_acc(acc: i64) -> i64 {
    if acc >= 0 {
        (acc + ACC_HALF) >> ACC_FRAC
    } else {
        -((-acc + ACC_HALF) >> ACC_FRAC)
    }
}

/// The Nearest Voxel Finder: rounds a pair of wide accumulators to the
/// nearest integer pixel and performs the in-sensor judgement, producing the
/// 8-bit plane coordinate of Table 1 row 3 (or [`PlaneCoord::Missing`]).
#[inline]
pub fn nearest_voxel(acc_x: i64, acc_y: i64, width: u32, height: u32) -> PlaneCoord {
    let xi = round_acc(acc_x);
    let yi = round_acc(acc_y);
    if xi < 0 || yi < 0 || xi >= width as i64 || yi >= height as i64 {
        PlaneCoord::Missing
    } else {
        PlaneCoord::Inside {
            x: xi as u8,
            y: yi as u8,
        }
    }
}

/// The complete `PE_Zi` operation for one depth plane: scalar MACs on both
/// axes followed by the Nearest Voxel Finder.
#[inline]
pub fn transfer_nearest(
    phi: &PhiWords,
    canonical: PackedCoord,
    width: u32,
    height: u32,
) -> PlaneCoord {
    nearest_voxel(
        plane_mac(phi.scale, phi.offset_x, canonical.x.raw()),
        plane_mac(phi.scale, phi.offset_y, canonical.y.raw()),
        width,
        height,
    )
}

/// Decodes a wide accumulator to `f64` — **exact** (accumulators carry at
/// most 48 significant bits, within `f64`'s 53), so this is a quantization
/// *exit point*, not an arithmetic step.
#[inline]
pub fn acc_to_f64(acc: i64) -> f64 {
    acc as f64 / (1i64 << ACC_FRAC) as f64
}

/// The `PE_Zi` transfer at sub-pixel precision: the integer scalar MACs
/// decoded exactly to `f64`.
///
/// Used only by the bilinear-voting ablation, whose fractional vote weights
/// leave the fixed-point domain by definition; the value is bit-identical
/// to the old `f64` datapath because that arithmetic was exact.
#[inline]
pub fn transfer_subpixel(phi: &PhiWords, canonical: PackedCoord) -> (f64, f64) {
    (
        acc_to_f64(plane_mac(phi.scale, phi.offset_x, canonical.x.raw())),
        acc_to_f64(plane_mac(phi.scale, phi.offset_y, canonical.y.raw())),
    )
}

/// The pre-kernel golden model, kept under `#[cfg(test)]` as the **single**
/// frozen `f64` reference both test modules compare against: the arithmetic
/// of the deleted `QuantizedHomography::project_hoisted`, verbatim. (The
/// `quantized_kernel` bench carries its own standalone transcription — it
/// is the measurement baseline and cannot see test-only items.)
#[cfg(test)]
mod f64_reference {
    use super::*;

    /// The old `f64` canonical projection. `apply_judgement` toggles the
    /// saturation drop: the unit tests compare full old-vs-new behaviour,
    /// the proptests want the unrounded quotients to reason about the
    /// boundary themselves.
    pub fn project(h: &[i32; 9], coord: PackedCoord, apply_judgement: bool) -> Option<(f64, f64)> {
        let e = |k: usize| Q11p21::from_raw(h[k]).to_f64();
        let x = coord.x_f64();
        let y = coord.y_f64();
        let w = e(6) * x + e(7) * y + e(8);
        if w.abs() < 1e-9 {
            return None;
        }
        let px = (e(0) * x + e(1) * y + e(2)) / w;
        let py = (e(3) * x + e(4) * y + e(5)) / w;
        if !px.is_finite() || !py.is_finite() {
            return None;
        }
        if apply_judgement && (px.abs() > Q9p7::MAX_MAGNITUDE || py.abs() > Q9p7::MAX_MAGNITUDE) {
            return None;
        }
        Some((px, py))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn identity_words() -> [i32; 9] {
        let one = Q11p21::one().raw();
        [one, 0, 0, 0, one, 0, 0, 0, one]
    }

    #[test]
    fn identity_projection_is_lossless() {
        let h = identity_words();
        for &(x, y) in &[(0.0, 0.0), (120.5, 89.25), (-1.5, 255.9921875)] {
            let c = PackedCoord::from_f64(x, y);
            assert_eq!(project_z0(&h, c), Some(c), "({x}, {y})");
        }
    }

    #[test]
    fn zero_denominator_is_dropped() {
        // Third row annihilates every input: w accumulator is exactly 0.
        let one = Q11p21::one().raw();
        let h = [one, 0, 0, 0, one, 0, 0, 0, 0];
        assert_eq!(project_z0(&h, PackedCoord::from_f64(10.0, 10.0)), None);
    }

    #[test]
    fn near_zero_denominator_is_a_huge_quotient_not_a_crash() {
        // The smallest representable non-zero w (one accumulator LSB) makes
        // the quotient astronomically large; the saturation judgement drops
        // it instead of wrapping.
        let one = Q11p21::one().raw();
        // Row 2 = [0, 0, tiny]: w = tiny << 7 = 128 accumulator LSBs.
        let h = [one, 0, 0, 0, one, 0, 0, 0, 1];
        assert_eq!(project_z0(&h, PackedCoord::from_f64(100.0, 50.0)), None);
    }

    #[test]
    fn out_of_transport_range_is_dropped_not_saturated() {
        // Scaling by 8 pushes a 100-pixel coordinate beyond Q9.7.
        let s8 = Q11p21::from_f64(8.0).raw();
        let one = Q11p21::one().raw();
        let h = [s8, 0, 0, 0, s8, 0, 0, 0, one];
        assert_eq!(project_z0(&h, PackedCoord::from_f64(100.0, 10.0)), None);
        // The largest input whose scaled projection still fits survives:
        // 8 × 31.9921875 (raw 4095) = 255.9375 ≤ Q9p7::MAX_MAGNITUDE.
        let c = PackedCoord {
            x: Q9p7::from_raw(4095),
            y: Q9p7::from_f64(10.0),
        };
        let out = project_z0(&h, c).unwrap();
        assert_eq!(out.x_f64(), 255.9375);
        // One raw LSB further projects to exactly 256.0, which does not fit
        // the transport format and is dropped, not saturated.
        let c = PackedCoord {
            x: Q9p7::from_raw(4096),
            y: c.y,
        };
        assert_eq!(project_z0(&h, c), None);
    }

    #[test]
    fn negative_denominator_rounds_like_f64() {
        let neg = Q11p21::from_f64(-1.0).raw();
        let one = Q11p21::one().raw();
        let h = [one, 0, 0, 0, one, 0, 0, 0, neg];
        let c = PackedCoord::from_f64(33.375, 21.125);
        let out = project_z0(&h, c).unwrap();
        let (rx, ry) = f64_reference::project(&h, c, true).unwrap();
        assert_eq!(out.x_f64(), Q9p7::from_f64(rx).to_f64());
        assert_eq!(out.y_f64(), Q9p7::from_f64(ry).to_f64());
    }

    #[test]
    fn transfer_matches_old_f64_arithmetic_exactly() {
        // The old per-plane transfer was exact in f64; the integer MAC must
        // reproduce it bit for bit, including slightly negative results.
        let phi = PhiWords::from_f64(0.8371, -3.25, 17.0625);
        for &(x, y) in &[(0.0, 0.0), (120.5, 89.25), (-1.5, 3.875), (239.0, 0.5)] {
            let c = PackedCoord::from_f64(x, y);
            let (ix, iy) = transfer_subpixel(&phi, c);
            let (s, ox, oy) = phi.to_f64();
            assert_eq!(ix, s * c.x_f64() + ox);
            assert_eq!(iy, s * c.y_f64() + oy);
            assert_eq!(
                transfer_nearest(&phi, c, 240, 180),
                PlaneCoord::from_projection(ix, iy, 240, 180)
            );
        }
    }

    #[test]
    fn nearest_voxel_ties_round_away_from_zero() {
        // acc = -0.5 pixels exactly: rounds to -1, i.e. Missing — matching
        // f64::round(), not the add-half-and-shift idiom that would round
        // toward +∞ and call it pixel 0.
        assert_eq!(nearest_voxel(-ACC_HALF, 0, 240, 180), PlaneCoord::Missing);
        // acc = +0.5 rounds to 1.
        assert_eq!(
            nearest_voxel(ACC_HALF, ACC_HALF, 240, 180),
            PlaneCoord::Inside { x: 1, y: 1 }
        );
        // acc just below +0.5 rounds to 0.
        assert_eq!(
            nearest_voxel(ACC_HALF - 1, 0, 240, 180),
            PlaneCoord::Inside { x: 0, y: 0 }
        );
        // Bottom-right sensor bound is exclusive.
        let edge = (239i64) << ACC_FRAC;
        assert_eq!(
            nearest_voxel(edge, 0, 240, 180),
            PlaneCoord::Inside { x: 239, y: 0 }
        );
        assert_eq!(
            nearest_voxel(edge + ACC_HALF, 0, 240, 180),
            PlaneCoord::Missing
        );
    }

    #[test]
    fn phi_words_round_trip() {
        let phi = PhiWords::from_f64(0.75, 12.5, -3.25);
        assert_eq!(
            [phi.scale, phi.offset_x, phi.offset_y],
            [3 << 19, 25 << 20, -13 << 19]
        );
        assert_eq!(phi.to_f64(), (0.75, 12.5, -3.25));
    }

    #[test]
    fn quantize_homography_matches_per_entry_quantization() {
        let m = [[1.25, -0.5, 3.0], [0.0, 0.875, -2.5], [0.001, 0.002, 1.0]];
        let words = quantize_homography(&m);
        for (k, &w) in words.iter().enumerate() {
            assert_eq!(w, Q11p21::from_f64(m[k / 3][k % 3]).raw());
        }
    }

    #[test]
    fn acc_headroom_covers_the_extreme_words() {
        // Worst case magnitudes: all words at the raw extreme, coordinates
        // saturated. The accumulation must not overflow i64.
        let h = [i32::MIN; 9];
        let c = PackedCoord {
            x: Q9p7::from_raw(i16::MIN),
            y: Q9p7::from_raw(i16::MIN),
        };
        let [nx, ny, w] = mat_vec_mac(&h, c);
        for acc in [nx, ny, w] {
            assert!(acc.abs() < 1i64 << 48);
        }
        let acc = plane_mac(i32::MIN, i32::MIN, i16::MIN);
        assert!(acc.abs() < 1i64 << 48);
        // And the normalization shift stays in range too.
        let _ = normalize_q9p7(nx, w.max(1));
    }
}

#[cfg(test)]
mod proptests {
    use super::f64_reference;
    use super::*;
    use proptest::prelude::*;

    /// Any raw Q9.7 word pair as a transport coordinate.
    fn coord_from_raw(x: i32, y: i32) -> PackedCoord {
        PackedCoord {
            x: Q9p7::from_raw(x as i16),
            y: Q9p7::from_raw(y as i16),
        }
    }

    /// Full raw range of a Q9.7 word (the shim has no `any::<i16>()`).
    const RAW16: std::ops::Range<i32> = i16::MIN as i32..i16::MAX as i32 + 1;

    proptest! {
        /// The integer kernel agrees with the `f64` reference within one
        /// Q9.7 ULP: the reference commits up to half an LSB of rounding
        /// plus its 53-bit division error, the kernel exactly half an LSB.
        #[test]
        fn projection_matches_f64_reference_within_one_ulp(
            h_vec in collection::vec(-(1i32 << 24)..(1i32 << 24), 9..10),
            cx in RAW16,
            cy in RAW16,
        ) {
            let h: [i32; 9] = h_vec.try_into().expect("nine entries");
            let coord = coord_from_raw(cx, cy);
            let kernel = project_z0(&h, coord);
            match f64_reference::project(&h, coord, false) {
                // The bounded entry range keeps the reference's w exact, so
                // its |w| < 1e-9 test fires iff the kernel's accumulator is
                // exactly zero (the smallest non-zero |w| is 2⁻²⁸).
                None => prop_assert!(kernel.is_none()),
                Some((rx, ry)) => match kernel {
                    Some(k) => {
                        // Both in range: raw results differ by at most 1 LSB
                        // (half an LSB of exact rounding each side, plus the
                        // reference's 53-bit division error).
                        let scale = (1u32 << Q9p7::frac_bits()) as f64;
                        prop_assert!((k.x.raw() as f64 - rx * scale).abs() <= 1.0 + 1e-6);
                        prop_assert!((k.y.raw() as f64 - ry * scale).abs() <= 1.0 + 1e-6);
                    }
                    None => {
                        // Dropped by the saturation judgement: the true
                        // quotient must hug the Q9.7 bound on some axis.
                        let bound = Q9p7::MAX_MAGNITUDE - Q9p7::RESOLUTION;
                        prop_assert!(
                            rx.abs() >= bound || ry.abs() >= bound,
                            "kernel dropped a comfortably in-range point ({rx}, {ry})"
                        );
                    }
                },
            }
        }

        /// The per-plane transfer is *exactly* the old `f64` arithmetic
        /// (which was exact), for any raw words including negative
        /// coordinates and saturated parameters.
        #[test]
        fn transfer_is_bit_identical_to_f64(
            scale in i32::MIN..i32::MAX,
            offset_x in i32::MIN..i32::MAX,
            offset_y in i32::MIN..i32::MAX,
            cx in RAW16,
            cy in RAW16,
        ) {
            let coord = coord_from_raw(cx, cy);
            let phi = PhiWords { scale, offset_x, offset_y };
            let (s, ox, oy) = phi.to_f64();
            let (ix, iy) = transfer_subpixel(&phi, coord);
            prop_assert_eq!(ix, s * coord.x_f64() + ox);
            prop_assert_eq!(iy, s * coord.y_f64() + oy);
            prop_assert_eq!(
                transfer_nearest(&phi, coord, 240, 180),
                PlaneCoord::from_projection(ix, iy, 240, 180)
            );
        }

        /// Normalization is an exactly-rounded rational: reconstructing the
        /// quotient from the result never errs by more than half an LSB.
        #[test]
        fn normalization_rounding_is_exact(
            num in -(1i64 << 47)..(1i64 << 47),
            den_mag in 1i64..(1i64 << 47),
            den_neg in 0u8..2,
        ) {
            let den = if den_neg == 1 { -den_mag } else { den_mag };
            if let Some(q) = normalize_q9p7(num, den) {
                let exact = num as f64 / den as f64;
                let scale = (1u32 << Q9p7::frac_bits()) as f64;
                prop_assert!((q as f64 - exact * scale).abs() <= 0.5 + 1e-6);
            }
        }

        /// The saturation judgement is symmetric and never produces a raw
        /// value outside ±i16::MAX (so -256.0, the unreachable Q9.7 word,
        /// never appears on the transport bus).
        #[test]
        fn saturation_judgement_brackets_the_bound(
            num in -(1i64 << 55)..(1i64 << 55),
            den_mag in 1i64..(1i64 << 40),
            den_neg in 0u8..2,
        ) {
            let den = if den_neg == 1 { -den_mag } else { den_mag };
            match normalize_q9p7(num, den) {
                // i16::MIN (-256.0) is unreachable by construction: the
                // judgement brackets results at ±i16::MAX.
                Some(q) => prop_assert!(q != i16::MIN),
                None => {
                    let exact = (num as f64 / den as f64).abs();
                    prop_assert!(
                        exact >= Q9p7::MAX_MAGNITUDE - Q9p7::RESOLUTION,
                        "dropped an in-range quotient {exact}"
                    );
                }
            }
        }

        /// Round-to-nearest on the accumulator matches `f64::round()` of the
        /// exactly decoded value (ties away from zero).
        #[test]
        fn round_acc_matches_f64_round(acc in -(1i64 << 47)..(1i64 << 47)) {
            prop_assert_eq!(round_acc(acc) as f64, acc_to_f64(acc).round());
        }
    }
}
