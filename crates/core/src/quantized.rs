//! The quantized back-projection datapath: the golden software model of the
//! arithmetic the Eventor FPGA performs, expressed with the fixed-point
//! formats of Table 1.
//!
//! Quantization is modelled faithfully at the *data* level: every value is
//! snapped to its fixed-point grid (Q9.7 event/canonical coordinates, Q11.21
//! homography and coefficients, integer plane coordinates and DSI scores)
//! exactly where the hardware would store or transfer it — and, since the
//! bit-true kernel refactor, the arithmetic *between* those storage points
//! is integer too: [`QuantizedHomography`] and [`QuantizedCoefficients`]
//! store raw fixed-point words and delegate every MAC, normalization,
//! saturation judgement and nearest-voxel rounding to
//! [`eventor_fixed::kernel`] — the same functions the `eventor-hwsim`
//! device model executes, so golden-model ↔ device agreement holds by
//! construction (ARCHITECTURE.md contract 4.1).

use eventor_fixed::kernel::{self, PhiWords};
use eventor_fixed::{PackedCoord, PlaneCoord, Q11p21};
use eventor_geom::{CanonicalHomography, ProportionalCoefficients, Vec2};

/// The homography `H_{Z0}` quantized to Q11.21, stored as the nine raw bus
/// words of the `Buf_H` register bank (row-major).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuantizedHomography {
    words: [i32; 9],
}

impl QuantizedHomography {
    /// Quantizes a full-precision canonical homography.
    pub fn from_homography(h: &CanonicalHomography) -> Self {
        Self {
            words: kernel::quantize_homography(&h.h.m),
        }
    }

    /// The quantized entry at `(row, col)` as `f64` (inspection exit point).
    pub fn entry(&self, row: usize, col: usize) -> f64 {
        Q11p21::from_raw(self.words[row * 3 + col]).to_f64()
    }

    /// The nine raw Q11.21 words in row-major order — the hoisted per-frame
    /// parameter block the hot loops consume directly.
    #[inline]
    pub fn raw_words(&self) -> [i32; 9] {
        self.words
    }

    /// Applies the quantized homography to a quantized event coordinate — the
    /// operation `PE_Z0` performs (wide-MAC plus normalization) — and
    /// re-quantizes the result to Q9.7, entirely in integer arithmetic
    /// ([`kernel::project_z0`]).
    ///
    /// Returns `None` when the projection-missing judgement drops the event:
    /// a zero normalization denominator, or a canonical coordinate that does
    /// not fit the Q9.7 transport format (saturating it would corrupt every
    /// subsequent plane transfer).
    #[inline]
    pub fn project(&self, coord: PackedCoord) -> Option<PackedCoord> {
        kernel::project_z0(&self.words, coord)
    }
}

/// The proportional back-projection coefficients `φ` quantized to Q11.21,
/// stored as raw `Buf_P` words per depth plane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuantizedCoefficients {
    phi: Vec<PhiWords>,
}

impl QuantizedCoefficients {
    /// Quantizes full-precision proportional coefficients.
    pub fn from_coefficients(phi: &ProportionalCoefficients) -> Self {
        Self {
            phi: (0..phi.len())
                .map(|i| PhiWords::from_f64(phi.scale[i], phi.offset_x[i], phi.offset_y[i]))
                .collect(),
        }
    }

    /// Number of depth planes covered.
    pub fn len(&self) -> usize {
        self.phi.len()
    }

    /// Whether there are no planes.
    pub fn is_empty(&self) -> bool {
        self.phi.is_empty()
    }

    /// The per-plane raw Q11.21 word triples — the hoisted per-frame
    /// parameter table the hot loops consume directly.
    #[inline]
    pub fn words(&self) -> &[PhiWords] {
        &self.phi
    }

    /// Transfers a quantized canonical point to depth plane `i` and rounds it
    /// to the nearest voxel — the scalar-MAC plus Nearest Voxel Finder path
    /// of `PE_Zi`, entirely in integer arithmetic
    /// ([`kernel::transfer_nearest`]).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn transfer_nearest(
        &self,
        canonical: PackedCoord,
        i: usize,
        width: u32,
        height: u32,
    ) -> PlaneCoord {
        kernel::transfer_nearest(&self.phi[i], canonical, width, height)
    }

    /// Transfers a quantized canonical point to depth plane `i`, returning the
    /// sub-pixel position (used by the bilinear-voting ablation). The integer
    /// MAC result is decoded exactly to `f64` — a quantization exit point,
    /// not an arithmetic step ([`kernel::transfer_subpixel`]).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn transfer_subpixel(&self, canonical: PackedCoord, i: usize) -> Vec2 {
        let (x, y) = kernel::transfer_subpixel(&self.phi[i], canonical);
        Vec2::new(x, y)
    }
}

/// Quantizes a raw (already undistorted) event pixel to the Q9.7 transport
/// format used on the AXI bus.
pub fn quantize_event_pixel(pixel: Vec2) -> PackedCoord {
    PackedCoord::from_f64(pixel.x, pixel.y)
}

/// Maximum absolute error introduced when representing a pixel coordinate in
/// Q9.7 (half an LSB in each axis).
pub const COORD_QUANTIZATION_ERROR: f64 = 0.5 / 128.0;

#[cfg(test)]
mod tests {
    use super::*;
    use eventor_fixed::Q9p7;
    use eventor_geom::{CameraIntrinsics, Pose, Vec3};

    fn setup() -> (CanonicalHomography, ProportionalCoefficients, Vec<f64>) {
        let k = CameraIntrinsics::davis240_default();
        let reference = Pose::identity();
        let camera = Pose::from_translation(Vec3::new(0.07, -0.02, 0.03));
        let depths: Vec<f64> = (0..50)
            .map(|i| {
                let t = i as f64 / 49.0;
                1.0 / ((1.0 - t) / 1.0 + t / 4.0)
            })
            .collect();
        let h = CanonicalHomography::compute(&reference, &camera, &k, depths[0]).unwrap();
        let phi =
            ProportionalCoefficients::compute(&reference, &camera, &k, &depths, depths[0]).unwrap();
        (h, phi, depths)
    }

    #[test]
    fn quantized_homography_is_close_to_float() {
        let (h, _, _) = setup();
        let qh = QuantizedHomography::from_homography(&h);
        for i in 0..3 {
            for j in 0..3 {
                assert!((qh.entry(i, j) - h.h.m[i][j]).abs() < 1e-5);
            }
        }
        // The raw words are exactly the per-entry Q11.21 quantization.
        let words = qh.raw_words();
        for (k, &w) in words.iter().enumerate() {
            assert_eq!(w, Q11p21::from_f64(h.h.m[k / 3][k % 3]).raw());
        }
    }

    #[test]
    fn quantized_projection_stays_within_a_fraction_of_a_pixel() {
        let (h, _, _) = setup();
        let qh = QuantizedHomography::from_homography(&h);
        for &(x, y) in &[(10.0, 10.0), (120.0, 90.0), (230.0, 170.0), (57.0, 133.0)] {
            let exact = h.project(Vec2::new(x, y)).unwrap();
            let quant = qh.project(PackedCoord::from_f64(x, y)).unwrap();
            let err =
                ((quant.x_f64() - exact.x).powi(2) + (quant.y_f64() - exact.y).powi(2)).sqrt();
            assert!(err < 0.05, "pixel ({x},{y}): quantized error {err}");
        }
    }

    #[test]
    fn quantized_transfer_matches_float_transfer_within_rounding() {
        let (h, phi, _) = setup();
        let qh = QuantizedHomography::from_homography(&h);
        let qphi = QuantizedCoefficients::from_coefficients(&phi);
        assert_eq!(qphi.len(), phi.len());
        assert!(!qphi.is_empty());
        let px = Vec2::new(140.0, 70.0);
        let exact_canonical = h.project(px).unwrap();
        let quant_canonical = qh.project(quantize_event_pixel(px)).unwrap();
        for i in 0..qphi.len() {
            let exact = phi.transfer(exact_canonical, i);
            let sub = qphi.transfer_subpixel(quant_canonical, i);
            assert!((sub - exact).norm() < 0.1, "plane {i}: {sub} vs {exact}");
            // Nearest voxel agrees with rounding the float transfer except in
            // rare half-pixel ties.
            let nearest = qphi.transfer_nearest(quant_canonical, i, 240, 180);
            if let Some((nx, ny)) = nearest.address() {
                assert!((nx as f64 - exact.x.round()).abs() <= 1.0);
                assert!((ny as f64 - exact.y.round()).abs() <= 1.0);
            }
        }
    }

    #[test]
    fn out_of_sensor_transfers_are_missing() {
        let (h, phi, _) = setup();
        let qh = QuantizedHomography::from_homography(&h);
        let qphi = QuantizedCoefficients::from_coefficients(&phi);
        // A pixel far outside the sensor maps outside every plane.
        let coord = qh.project(PackedCoord::from_f64(5000.0, 5000.0));
        if let Some(c) = coord {
            // Saturated Q9.7 coordinates land outside the 240x180 sensor.
            assert_eq!(qphi.transfer_nearest(c, 0, 240, 180), PlaneCoord::Missing);
        }
        // In-range pixels project; canonical projections outside the Q9.7
        // range are dropped (projection-missing judgement) rather than
        // saturated.
        assert!(qh.project(PackedCoord::from_f64(120.0, 90.0)).is_some());
        let far_out = qh.project(PackedCoord::from_f64(255.9, 179.0));
        if let Some(c) = far_out {
            assert!(c.x_f64().abs() <= Q9p7::MAX_MAGNITUDE);
        }
    }

    #[test]
    fn event_pixel_quantization_error_bound() {
        let p = Vec2::new(123.456, 78.901);
        let q = quantize_event_pixel(p);
        assert!((q.x_f64() - p.x).abs() <= COORD_QUANTIZATION_ERROR);
        assert!((q.y_f64() - p.y).abs() <= COORD_QUANTIZATION_ERROR);
    }

    #[test]
    fn hoisted_params_match_golden_model() {
        use crate::QuantizedFrameParams;
        use eventor_dsi::DepthPlanes;
        use eventor_emvs::FrameGeometry;

        let intrinsics = CameraIntrinsics::davis240_default();
        let planes = DepthPlanes::uniform_inverse_depth(1.0, 5.0, 30).unwrap();
        let geometry = FrameGeometry::compute(
            &Pose::identity(),
            &Pose::from_translation(Vec3::new(0.06, -0.03, 0.01)),
            &intrinsics,
            &planes,
        )
        .unwrap();
        let params = QuantizedFrameParams::from_geometry(&geometry);
        let qh = QuantizedHomography::from_homography(&geometry.homography);
        let qphi = QuantizedCoefficients::from_coefficients(&geometry.coefficients);
        assert_eq!(params.num_planes(), qphi.len());
        // The hoisted block is the golden model's raw words, verbatim — the
        // hoist copies storage, it no longer re-derives arithmetic.
        assert_eq!(params.coefficients(), qphi.words());
        for &(x, y) in &[(10.0, 10.0), (120.5, 90.25), (230.0, 170.0)] {
            let coord = PackedCoord::from_f64(x, y);
            let via_params = params.project(coord);
            let via_golden = qh.project(coord);
            assert_eq!(via_params, via_golden);
            if let Some(c) = via_golden {
                for (i, phi) in params.coefficients().iter().enumerate() {
                    let golden = qphi.transfer_nearest(c, i, 240, 180);
                    assert_eq!(kernel::transfer_nearest(phi, c, 240, 180), golden);
                }
            }
        }
    }
}
