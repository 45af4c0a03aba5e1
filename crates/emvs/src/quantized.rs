//! The host-side words of the quantized datapath, each encoded once: every
//! sensor pixel's Q9.7 transport word ([`TransportTable`]), and one frame's
//! `H_{Z0}` and `φ` as the raw Q11.21 words of Table 1.
//!
//! The host writes the parameter words once per frame —
//! [`QuantizedHomography`] is the `Buf_H` register bank,
//! [`QuantizedCoefficients`] the `Buf_P` parameter BRAM — and `PE_Z0` /
//! `PE_Zi` do every step between storage points. Those steps exist once, in
//! [`eventor_fixed::kernel`]: the voting engine, the golden-model tests and
//! the `eventor-hwsim` device all call the kernel on these words, so
//! golden-model ↔ device agreement holds by construction (ARCHITECTURE.md
//! contract 4.1).

use std::sync::{Arc, Mutex, PoisonError};

use eventor_events::{Event, UndistortionLut};
use eventor_fixed::kernel::{self, PhiWords};
use eventor_fixed::{PackedCoord, Q11p21};
use eventor_geom::{CameraModel, CanonicalHomography, ProportionalCoefficients, Vec2};

/// Every sensor pixel's distortion-corrected coordinate, encoded once as
/// its Q9.7 transport word: the ingest table of the quantized datapaths.
///
/// Entry `(x, y)` is `quantize_event_pixel(lut.lookup(x, y))` for the
/// camera's [`UndistortionLut`], so [`encode`](Self::encode) returns, bit
/// for bit, the correction-then-encoding it replaces, for one 4-byte read
/// where that path reads a 16-byte `f64` pair and rounds it twice. An
/// address outside the sensor, which the wire and EVTR files allow, takes
/// that path itself: the camera's exact solve, then the encoding.
///
/// The sessions of a process share one table per camera
/// ([`shared`](Self::shared)): the solve for every pixel takes about 6 ms
/// at 240×180, more than a DAVIS-scale session's whole set-up besides.
#[derive(Debug, Clone)]
pub struct TransportTable {
    camera: CameraModel,
    width: usize,
    height: usize,
    /// Transport words, row-major.
    words: Vec<PackedCoord>,
}

impl TransportTable {
    /// The camera's table, shared: the last camera's table is kept in a
    /// one-entry memo for the process, keyed on the camera's exact bits, so
    /// sessions built one after another on one camera solve its pixels
    /// once. Another camera's table replaces it. The memo's lock is held
    /// while a table is built, so concurrent sessions on one camera build
    /// it once too.
    pub fn shared(camera: &CameraModel) -> Arc<Self> {
        static MEMO: Mutex<Option<([u64; 11], Arc<TransportTable>)>> = Mutex::new(None);
        let (i, d) = (&camera.intrinsics, &camera.distortion);
        let key = [
            i.fx.to_bits(),
            i.fy.to_bits(),
            i.cx.to_bits(),
            i.cy.to_bits(),
            u64::from(i.width),
            u64::from(i.height),
            d.k1.to_bits(),
            d.k2.to_bits(),
            d.p1.to_bits(),
            d.p2.to_bits(),
            d.k3.to_bits(),
        ];
        // A build that panics leaves the memo as it was, so a poisoned lock
        // still guards a valid memo.
        let mut memo = MEMO.lock().unwrap_or_else(PoisonError::into_inner);
        match &*memo {
            Some((held, table)) if *held == key => Arc::clone(table),
            _ => {
                let table = Arc::new(Self::build(camera));
                *memo = Some((key, Arc::clone(&table)));
                table
            }
        }
    }

    /// Encodes every addressable pixel of the camera's sensor, for this
    /// caller alone; sessions take [`shared`](Self::shared).
    pub fn build(camera: &CameraModel) -> Self {
        let lut = UndistortionLut::build(camera);
        let (width, height) = (lut.width(), lut.height());
        let words = (0..height)
            .flat_map(|y| (0..width).map(move |x| (x as u16, y as u16)))
            .map(|(x, y)| quantize_event_pixel(lut.lookup(x, y)))
            .collect();
        Self {
            camera: *camera,
            width,
            height,
            words,
        }
    }

    /// The Q9.7 transport word of an event's corrected pixel: a table read
    /// inside the sensor, the exact solve outside it.
    #[inline]
    pub fn encode(&self, event: &Event) -> PackedCoord {
        let (x, y) = (usize::from(event.x), usize::from(event.y));
        if x < self.width && y < self.height {
            self.words[y * self.width + x]
        } else {
            quantize_event_pixel(self.camera.undistort_pixel(Vec2::new(x as f64, y as f64)))
        }
    }
}

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

    /// The nine raw Q11.21 words in row-major order, the operand of
    /// [`kernel::project_z0`].
    #[inline]
    pub fn raw_words(&self) -> [i32; 9] {
        self.words
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
        let mut words = Vec::with_capacity(phi.len());
        Self::append_words(phi, &mut words);
        Self { phi: words }
    }

    /// Appends the block's words for `phi`, one per depth plane, to `out`:
    /// the same words as [`from_coefficients`](Self::from_coefficients),
    /// for a caller that keeps many frames' words in one reused buffer.
    pub fn append_words(phi: &ProportionalCoefficients, out: &mut Vec<PhiWords>) {
        out.extend(
            (0..phi.len())
                .map(|i| PhiWords::from_f64(phi.scale[i], phi.offset_x[i], phi.offset_y[i])),
        );
    }

    /// Number of depth planes covered.
    pub fn len(&self) -> usize {
        self.phi.len()
    }

    /// Whether there are no planes.
    pub fn is_empty(&self) -> bool {
        self.phi.is_empty()
    }

    /// The per-plane raw Q11.21 word triples, the operands of
    /// [`kernel::transfer_nearest`] and [`kernel::transfer_subpixel`].
    #[inline]
    pub fn words(&self) -> &[PhiWords] {
        &self.phi
    }
}

/// Quantizes a raw (already undistorted) event pixel to the Q9.7 transport
/// format used on the AXI bus.
#[inline]
pub fn quantize_event_pixel(pixel: Vec2) -> PackedCoord {
    PackedCoord::from_f64(pixel.x, pixel.y)
}

/// Maximum absolute error introduced when representing a pixel coordinate in
/// Q9.7 (half an LSB in each axis).
pub const COORD_QUANTIZATION_ERROR: f64 = 0.5 / 128.0;

#[cfg(test)]
mod tests {
    use super::*;
    use eventor_fixed::{PlaneCoord, Q9p7};
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
        let qh = QuantizedHomography::from_homography(&h).raw_words();
        for &(x, y) in &[(10.0, 10.0), (120.0, 90.0), (230.0, 170.0), (57.0, 133.0)] {
            let exact = h.project(Vec2::new(x, y)).unwrap();
            let quant = kernel::project_z0(&qh, PackedCoord::from_f64(x, y)).unwrap();
            let err =
                ((quant.x_f64() - exact.x).powi(2) + (quant.y_f64() - exact.y).powi(2)).sqrt();
            assert!(err < 0.05, "pixel ({x},{y}): quantized error {err}");
        }
    }

    #[test]
    fn quantized_transfer_matches_float_transfer_within_rounding() {
        let (h, phi, _) = setup();
        let qh = QuantizedHomography::from_homography(&h).raw_words();
        let qphi = QuantizedCoefficients::from_coefficients(&phi);
        assert_eq!(qphi.len(), phi.len());
        assert!(!qphi.is_empty());
        let px = Vec2::new(140.0, 70.0);
        let exact_canonical = h.project(px).unwrap();
        let quant_canonical = kernel::project_z0(&qh, quantize_event_pixel(px)).unwrap();
        for (i, words) in qphi.words().iter().enumerate() {
            let exact = phi.transfer(exact_canonical, i);
            let (x, y) = kernel::transfer_subpixel(words, quant_canonical);
            let sub = Vec2::new(x, y);
            assert!((sub - exact).norm() < 0.1, "plane {i}: {sub} vs {exact}");
            // Nearest voxel agrees with rounding the float transfer except in
            // rare half-pixel ties.
            let nearest = kernel::transfer_nearest(words, quant_canonical, 240, 180);
            if let Some((nx, ny)) = nearest.address() {
                assert!((nx as f64 - exact.x.round()).abs() <= 1.0);
                assert!((ny as f64 - exact.y.round()).abs() <= 1.0);
            }
        }
    }

    #[test]
    fn out_of_sensor_transfers_are_missing() {
        let (h, phi, _) = setup();
        let qh = QuantizedHomography::from_homography(&h).raw_words();
        let qphi = QuantizedCoefficients::from_coefficients(&phi);
        let project = |x, y| kernel::project_z0(&qh, PackedCoord::from_f64(x, y));
        // A pixel far outside the sensor maps outside every plane.
        if let Some(c) = project(5000.0, 5000.0) {
            // Saturated Q9.7 coordinates land outside the 240x180 sensor.
            assert_eq!(
                kernel::transfer_nearest(&qphi.words()[0], c, 240, 180),
                PlaneCoord::Missing
            );
        }
        // In-range pixels project; canonical projections outside the Q9.7
        // range are dropped (projection-missing judgement) rather than
        // saturated.
        assert!(project(120.0, 90.0).is_some());
        if let Some(c) = project(255.9, 179.0) {
            assert!(c.x_f64().abs() <= Q9p7::MAX_MAGNITUDE);
        }
    }

    #[test]
    fn transport_table_matches_correction_then_encoding_at_every_address() {
        use eventor_events::Polarity;
        use eventor_geom::DistortionModel;
        let davis = CameraModel::davis240_distorted();
        let cameras = [
            davis,
            CameraModel::davis240_ideal(),
            CameraModel::new(davis.intrinsics, DistortionModel::radial(-0.15, 0.04, 0.0)),
        ];
        let far = [240, 241, 500, 1000, u16::MAX];
        for camera in cameras {
            let lut = UndistortionLut::build(&camera);
            let table = TransportTable::build(&camera);
            let inside = (0..180).flat_map(|y| (0..240).map(move |x| (x, y)));
            let outside = far
                .iter()
                .flat_map(|&f| [(f, 90), (120, f), (f, f), (0, f), (f, 0)]);
            for (x, y) in inside.chain(outside) {
                let event = Event::new(0.0, x, y, Polarity::Positive);
                let exact = quantize_event_pixel(lut.correct_event(&event));
                assert_eq!(table.encode(&event), exact, "({x}, {y}) on {camera:?}");
            }
        }
    }

    #[test]
    fn append_words_matches_the_block_and_keeps_earlier_words() {
        let (_, phi, _) = setup();
        let block = QuantizedCoefficients::from_coefficients(&phi);
        let mut out = vec![PhiWords::from_f64(1.0, 2.0, 3.0)];
        QuantizedCoefficients::append_words(&phi, &mut out);
        QuantizedCoefficients::append_words(&phi, &mut out);
        assert_eq!(out.len(), 1 + 2 * phi.len());
        assert_eq!(out[0], PhiWords::from_f64(1.0, 2.0, 3.0));
        assert_eq!(&out[1..=phi.len()], block.words());
        assert_eq!(&out[1 + phi.len()..], block.words());
    }

    #[test]
    fn event_pixel_quantization_error_bound() {
        let p = Vec2::new(123.456, 78.901);
        let q = quantize_event_pixel(p);
        assert!((q.x_f64() - p.x).abs() <= COORD_QUANTIZATION_ERROR);
        assert!((q.y_f64() - p.y).abs() <= COORD_QUANTIZATION_ERROR);
    }
}
