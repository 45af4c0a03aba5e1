//! Streaming event-distortion correction via a precomputed per-pixel lookup
//! table.
//!
//! The reformulated Eventor dataflow moves distortion correction *before*
//! aggregation so it can run per event in a streaming fashion. On the
//! embedded platform the natural implementation is a lookup table indexed by
//! the raw integer pixel address (events carry integer coordinates), holding
//! the undistorted sub-pixel coordinate — one BRAM/DRAM read per event
//! instead of an iterative undistortion solve. [`UndistortionLut`] is that
//! table. It stores the exact `f64` solve of every pixel, so a lookup is
//! bit-identical to [`CameraModel::undistort_pixel`], and it is the one
//! place the pipeline corrects repeated pixels: the voting engine, the
//! co-simulation backend and the event simulator each build it once.

use crate::event::Event;
use crate::stream::EventStream;
use eventor_geom::{CameraModel, Vec2};

/// Number of distinct `u16` pixel addresses per axis.
const ADDRESSES: u32 = 1 << 16;

/// A per-pixel undistortion lookup table, exact to the bit.
///
/// Entry `(x, y)` holds `camera.undistort_pixel(Vec2::new(x as f64, y as
/// f64))` as `f64` for every pixel of the addressable sensor,
/// `min(width, 65 536) × min(height, 65 536)`. Any other address — past the
/// sensor's edge, as the wire and EVTR files allow — falls back to the solve
/// itself, so [`lookup`](Self::lookup) equals `undistort_pixel` at every
/// `u16` address. A camera with no distortion builds no table: the solve
/// returns the raw coordinate unchanged.
///
/// # Examples
///
/// ```
/// use eventor_events::UndistortionLut;
/// use eventor_geom::{CameraModel, Vec2};
///
/// let camera = CameraModel::davis240_distorted();
/// let lut = UndistortionLut::build(&camera);
/// for (x, y) in [(120, 90), (0, 0), (500, 400), (u16::MAX, u16::MAX)] {
///     let exact = camera.undistort_pixel(Vec2::new(x as f64, y as f64));
///     let table = lut.lookup(x, y);
///     assert_eq!(table.x.to_bits(), exact.x.to_bits());
///     assert_eq!(table.y.to_bits(), exact.y.to_bits());
/// }
/// ```
#[derive(Debug, Clone)]
pub struct UndistortionLut {
    camera: CameraModel,
    width: usize,
    height: usize,
    /// Undistorted coordinates, row-major; empty for a camera with no
    /// distortion.
    table: Vec<Vec2>,
}

impl UndistortionLut {
    /// Solves the undistortion of every addressable pixel of the sensor.
    pub fn build(camera: &CameraModel) -> Self {
        let width = camera.intrinsics.width.min(ADDRESSES) as usize;
        let height = camera.intrinsics.height.min(ADDRESSES) as usize;
        let table = if camera.distortion.is_zero() {
            Vec::new()
        } else {
            (0..height)
                .flat_map(|y| {
                    (0..width).map(move |x| camera.undistort_pixel(Vec2::new(x as f64, y as f64)))
                })
                .collect()
        };
        Self {
            camera: *camera,
            width,
            height,
            table,
        }
    }

    /// The camera the table was built for.
    pub(crate) fn camera(&self) -> &CameraModel {
        &self.camera
    }

    /// Sensor columns covered by the table, `min(width, 65 536)`.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Sensor rows covered by the table, `min(height, 65 536)`.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Whether the camera has no distortion (no table is built).
    pub fn is_identity(&self) -> bool {
        self.camera.distortion.is_zero()
    }

    /// Storage footprint of the table in bytes (two `f64` per pixel).
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of_val(self.table.as_slice())
    }

    /// Looks up the undistorted coordinate of an integer pixel address.
    #[inline]
    pub fn lookup(&self, x: u16, y: u16) -> Vec2 {
        self.pixel(usize::from(x), usize::from(y))
    }

    /// [`lookup`](Self::lookup) on any pixel index: a table read inside the
    /// table, the exact solve outside it.
    #[inline]
    pub(crate) fn pixel(&self, x: usize, y: usize) -> Vec2 {
        if x < self.width && y < self.height {
            if let Some(&p) = self.table.get(y * self.width + x) {
                return p;
            }
        }
        self.camera.undistort_pixel(Vec2::new(x as f64, y as f64))
    }

    /// Corrects one event (streaming path).
    #[inline]
    pub fn correct_event(&self, event: &Event) -> Vec2 {
        self.lookup(event.x, event.y)
    }

    /// Corrects a whole stream, returning the undistorted coordinates in
    /// stream order.
    pub fn correct_stream(&self, stream: &EventStream) -> Vec<Vec2> {
        stream.iter().map(|e| self.correct_event(e)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Polarity;
    use eventor_geom::{CameraIntrinsics, DistortionModel};

    /// Asserts that the table equals the exact solve at `(x, y)` bit for
    /// bit (NaN included).
    fn assert_exact(lut: &UndistortionLut, camera: &CameraModel, x: u16, y: u16) {
        let exact = camera.undistort_pixel(Vec2::new(x as f64, y as f64));
        let table = lut.lookup(x, y);
        assert_eq!(
            (table.x.to_bits(), table.y.to_bits()),
            (exact.x.to_bits(), exact.y.to_bits()),
            "pixel ({x}, {y}): table {table:?} vs exact {exact:?}"
        );
    }

    /// The DAVIS lens and the `shake_hotpixel` scenario's radial lens.
    fn distorted_cameras() -> [CameraModel; 2] {
        let davis = CameraModel::davis240_distorted();
        [
            davis,
            CameraModel::new(davis.intrinsics, DistortionModel::radial(-0.15, 0.04, 0.0)),
        ]
    }

    #[test]
    fn identity_camera_yields_identity_table() {
        let camera = CameraModel::davis240_ideal();
        let lut = UndistortionLut::build(&camera);
        assert!(lut.is_identity());
        assert_eq!(lut.width(), 240);
        assert_eq!(lut.height(), 180);
        for &(x, y) in &[(0u16, 0u16), (120, 90), (239, 179)] {
            let p = lut.lookup(x, y);
            assert!((p.x - x as f64).abs() < 1e-6);
            assert!((p.y - y as f64).abs() < 1e-6);
        }
    }

    #[test]
    fn distorted_camera_table_matches_exact_undistortion() {
        let outside = [240, 241, 500, 1000, u16::MAX];
        for camera in distorted_cameras() {
            let lut = UndistortionLut::build(&camera);
            assert!(!lut.is_identity());
            for y in 0..180 {
                for x in 0..240 {
                    assert_exact(&lut, &camera, x, y);
                }
            }
            for &far in &outside {
                assert_exact(&lut, &camera, far, 90);
                assert_exact(&lut, &camera, 120, far);
                assert_exact(&lut, &camera, far, far);
            }
        }
    }

    #[test]
    fn correction_moves_corner_pixels_more_than_the_center() {
        let camera = CameraModel::davis240_distorted();
        let lut = UndistortionLut::build(&camera);
        let center_shift = (lut.lookup(120, 90) - Vec2::new(120.0, 90.0)).norm();
        let corner_shift = (lut.lookup(2, 2) - Vec2::new(2.0, 2.0)).norm();
        assert!(
            corner_shift > center_shift,
            "corner {corner_shift} vs center {center_shift}"
        );
    }

    #[test]
    fn out_of_sensor_lookups_fall_back_to_the_solve() {
        let camera = CameraModel::davis240_distorted();
        let lut = UndistortionLut::build(&camera);
        // Just past the edge the solve still converges, off the raw address.
        let edge = lut.lookup(240, 90);
        assert!(edge.x.is_finite() && edge.x > 240.0, "{edge:?}");
        // Far away it diverges, and the table reports the same NaN.
        assert!(lut.lookup(1000, 1000).x.is_nan());
        assert_exact(&lut, &camera, 240, 90);
        assert_exact(&lut, &camera, 1000, 1000);
    }

    #[test]
    fn stream_correction_preserves_order_and_length() {
        let camera = CameraModel::davis240_distorted();
        let lut = UndistortionLut::build(&camera);
        let stream: EventStream = (0..100)
            .map(|i| {
                Event::new(
                    i as f64 * 1e-4,
                    (i * 7 % 260) as u16,
                    (i * 3 % 200) as u16,
                    Polarity::Positive,
                )
            })
            .collect();
        let corrected = lut.correct_stream(&stream);
        assert_eq!(corrected.len(), 100);
        for (e, c) in stream.iter().zip(&corrected) {
            let exact = camera.undistort_pixel(Vec2::new(e.x as f64, e.y as f64));
            assert_eq!(
                (c.x.to_bits(), c.y.to_bits()),
                (exact.x.to_bits(), exact.y.to_bits())
            );
        }
    }

    #[test]
    fn memory_footprint_is_reported() {
        // 240*180 pixels * 16 bytes = 675 KiB; no table without distortion.
        let lut = UndistortionLut::build(&CameraModel::davis240_distorted());
        assert_eq!(lut.memory_bytes(), 240 * 180 * 16);
        assert_eq!(
            UndistortionLut::build(&CameraModel::davis240_ideal()).memory_bytes(),
            0
        );
    }

    #[test]
    fn sensors_wider_than_the_address_space_cover_every_address() {
        let intrinsics = CameraIntrinsics::new(200.0, 200.0, 32_768.0, 1.0, 65_537, 2).unwrap();
        let camera = CameraModel::new(intrinsics, DistortionModel::radial(-0.15, 0.04, 0.0));
        let lut = UndistortionLut::build(&camera);
        assert_eq!((lut.width(), lut.height()), (65_536, 2));
        assert_eq!(lut.memory_bytes(), 65_536 * 2 * 16);
        for (x, y) in [(0, 0), (32_768, 1), (u16::MAX, 0), (u16::MAX, 1), (7, 2)] {
            assert_exact(&lut, &camera, x, y);
        }
        // The simulator's pixel index reaches the column past the table.
        let exact = camera.undistort_pixel(Vec2::new(65_536.0, 1.0));
        assert_eq!(lut.pixel(65_536, 1).x.to_bits(), exact.x.to_bits());
    }
}
