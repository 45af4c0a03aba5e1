//! The concrete quantization formats of Table 1 and helpers to apply them to
//! the EMVS data types.
//!
//! | Quantized data                | Total bits | Integer | Decimal |
//! |-------------------------------|-----------|---------|---------|
//! | `(x_k, y_k)` raw event coords | 16        | 9       | 7       |
//! | `(x_k(Z0), y_k(Z0))`          | 16        | 9       | 7       |
//! | `(x_k(Zi), y_k(Zi))`          | 8         | 8       | 0       |
//! | Homography `H_{Z0}`           | 32        | 11      | 21      |
//! | Proportional coefficients φ   | 32        | 11      | 21      |
//! | DSI scores                    | 16        | 16      | 0       |

use crate::fix::Fix;
use std::fmt;

/// Q9.7 — 16-bit fixed point with 7 fractional bits.
///
/// Used for the raw event coordinates `(x_k, y_k)` and for the canonical
/// back-projections `(x_k(Z0), y_k(Z0))`.
pub type Q9p7 = Fix<i16, 7>;

impl Q9p7 {
    /// Largest representable Q9.7 magnitude (`i16::MAX / 128 =
    /// 255.9921875`) — the bound of the **projection-missing judgement**:
    /// canonical projections beyond it would saturate the transport format
    /// and corrupt every subsequent plane transfer, so the datapath drops
    /// the event instead (ARCHITECTURE.md contract 3.1).
    ///
    /// Note the asymmetry: the raw word `i16::MIN` (`-256.0`) is
    /// representable but never produced — the judgement brackets results at
    /// `±i16::MAX` so the bound is symmetric.
    pub const MAX_MAGNITUDE: f64 = i16::MAX as f64 * Self::RESOLUTION;
}

/// Q11.21 — 32-bit fixed point with 21 fractional bits.
///
/// Used for the homography `H_{Z0}` and the proportional back-projection
/// coefficients `φ`.
pub type Q11p21 = Fix<i32, 21>;

/// DSI score storage: 16-bit unsigned integer counts (nearest voting adds
/// integer votes, so no fractional part is needed).
pub type DsiScore = u16;

/// A pair of Q9.7 coordinates packed the way the DMA engine ships them: two
/// 16-bit values concatenated into one 32-bit word on the AXI bus.
///
/// # Examples
///
/// ```
/// use eventor_fixed::PackedCoord;
/// let p = PackedCoord::from_f64(123.5, 67.25);
/// let w = p.to_word();
/// let q = PackedCoord::from_word(w);
/// assert_eq!(q.x_f64(), 123.5);
/// assert_eq!(q.y_f64(), 67.25);
/// ```
/// The `repr(C)` layout is load-bearing: on little-endian targets a
/// `PackedCoord` in memory *is* its [`to_word`](Self::to_word) bus word
/// (x in the low half, y in the high half), which lets the batched SIMD
/// kernel tier load eight packed coordinates with a single vector load.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[repr(C)]
pub struct PackedCoord {
    /// Quantized x coordinate.
    pub x: Q9p7,
    /// Quantized y coordinate.
    pub y: Q9p7,
}

impl PackedCoord {
    /// Quantizes a floating-point pixel coordinate.
    pub fn from_f64(x: f64, y: f64) -> Self {
        Self {
            x: Q9p7::from_f64(x),
            y: Q9p7::from_f64(y),
        }
    }

    /// The x coordinate as `f64`.
    pub fn x_f64(&self) -> f64 {
        self.x.to_f64()
    }

    /// The y coordinate as `f64`.
    pub fn y_f64(&self) -> f64 {
        self.y.to_f64()
    }

    /// Packs into a 32-bit bus word (x in the low half, y in the high half).
    pub fn to_word(self) -> u32 {
        (self.x.raw() as u16 as u32) | ((self.y.raw() as u16 as u32) << 16)
    }

    /// Unpacks from a 32-bit bus word.
    pub fn from_word(w: u32) -> Self {
        Self {
            x: Q9p7::from_raw((w & 0xFFFF) as u16 as i16),
            y: Q9p7::from_raw((w >> 16) as u16 as i16),
        }
    }
}

impl fmt::Display for PackedCoord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

/// 8-bit integer pixel coordinate on a depth plane `(x_k(Zi), y_k(Zi))`.
///
/// Nearest voting only needs the rounded integer pixel, so the projections on
/// the non-canonical planes are stored as plain bytes. Values outside the
/// sensor (including the 240-wide x axis, which does not fit a `u8`) are
/// represented as [`PlaneCoord::Missing`] — the "projection missing
/// judgement" performed by the Nearest Voxel Finder.
///
/// The DAVIS x axis spans 0..239 which exceeds `u8::MAX`? No: 239 < 255, so an
/// unsigned byte suffices exactly as the paper states (8-bit integer part).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PlaneCoord {
    /// The projection falls inside the sensor at this integer pixel.
    Inside {
        /// Column index.
        x: u8,
        /// Row index.
        y: u8,
    },
    /// The projection falls outside the sensor; no vote is generated.
    #[default]
    Missing,
}

impl PlaneCoord {
    /// The widest and tallest sensor, in pixels, the quantized datapaths
    /// address: a plane coordinate is 8 bits (pixels 0–255), and the Q9.7
    /// transport tops out at [`Q9p7::MAX_MAGNITUDE`] (255.99 px), so an
    /// event past pixel 255 would be dropped or clamped instead of voted.
    pub const MAX_SENSOR_SIDE: u32 = 256;

    /// Rounds a floating-point plane projection to the nearest voxel, mapping
    /// out-of-sensor projections to [`PlaneCoord::Missing`].
    #[inline]
    pub fn from_projection(x: f64, y: f64, width: u32, height: u32) -> Self {
        let xi = x.round();
        let yi = y.round();
        if xi < 0.0
            || yi < 0.0
            || xi >= width as f64
            || yi >= height as f64
            || !xi.is_finite()
            || !yi.is_finite()
        {
            Self::Missing
        } else {
            Self::Inside {
                x: xi as u8,
                y: yi as u8,
            }
        }
    }

    /// The vote address `(x, y)` when inside the sensor.
    #[inline]
    pub fn address(self) -> Option<(u16, u16)> {
        match self {
            Self::Inside { x, y } => Some((x as u16, y as u16)),
            Self::Missing => None,
        }
    }

    /// Whether the projection generates a vote.
    pub fn is_inside(self) -> bool {
        matches!(self, Self::Inside { .. })
    }
}

/// One row of Table 1: how a datum class is quantized.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuantizationSpec {
    /// Human-readable name of the quantized data type.
    pub name: &'static str,
    /// Total storage bits.
    pub total_bits: u32,
    /// Integer bits (including sign where applicable).
    pub integer_bits: u32,
    /// Fractional bits.
    pub decimal_bits: u32,
}

/// The full Table 1 quantization strategy.
pub const TABLE1_STRATEGY: [QuantizationSpec; 6] = [
    QuantizationSpec {
        name: "(x_k, y_k)",
        total_bits: 16,
        integer_bits: 9,
        decimal_bits: 7,
    },
    QuantizationSpec {
        name: "(x_k(Z0), y_k(Z0))",
        total_bits: 16,
        integer_bits: 9,
        decimal_bits: 7,
    },
    QuantizationSpec {
        name: "(x_k(Zi), y_k(Zi))",
        total_bits: 8,
        integer_bits: 8,
        decimal_bits: 0,
    },
    QuantizationSpec {
        name: "H_Z0",
        total_bits: 32,
        integer_bits: 11,
        decimal_bits: 21,
    },
    QuantizationSpec {
        name: "phi",
        total_bits: 32,
        integer_bits: 11,
        decimal_bits: 21,
    },
    QuantizationSpec {
        name: "DSI scores",
        total_bits: 16,
        integer_bits: 16,
        decimal_bits: 0,
    },
];

/// Memory footprint comparison between the float baseline and the quantized
/// datapath, per event frame.
///
/// Returns `(float_bytes, quantized_bytes)` for `events_per_frame` events and
/// `n_planes` depth planes plus the DSI of `w*h*n_planes` voxels.
pub fn frame_memory_footprint(
    events_per_frame: usize,
    n_planes: usize,
    width: usize,
    height: usize,
) -> (usize, usize) {
    // Baseline: coordinates and parameters in f32 (the EMVS reference uses
    // single-precision on the CPU), DSI scores in f32.
    let float_events = events_per_frame * 2 * 4; // (x, y) f32
    let float_canonical = events_per_frame * 2 * 4;
    let float_params = (9 + 3 * n_planes) * 4; // H (3x3) + phi (3 per plane)
    let float_dsi = width * height * n_planes * 4;
    let float_total = float_events + float_canonical + float_params + float_dsi;

    let q_events = events_per_frame * 2 * 2; // Q9.7 pairs
    let q_canonical = events_per_frame * 2 * 2;
    let q_params = (9 + 3 * n_planes) * 4; // Q11.21 is still 32-bit
    let q_dsi = width * height * n_planes * 2; // u16 scores
    let q_total = q_events + q_canonical + q_params + q_dsi;

    (float_total, q_total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packed_coord_round_trip_through_bus_word() {
        for &(x, y) in &[
            (0.0, 0.0),
            (239.5, 179.25),
            (120.0078125, 90.9921875),
            (1.0, 255.0),
        ] {
            let p = PackedCoord::from_f64(x, y);
            let q = PackedCoord::from_word(p.to_word());
            assert_eq!(p, q);
        }
    }

    #[test]
    fn packed_coord_negative_values_survive_packing() {
        // Undistortion can push coordinates slightly negative.
        let p = PackedCoord::from_f64(-1.5, -0.25);
        let q = PackedCoord::from_word(p.to_word());
        assert_eq!(q.x_f64(), -1.5);
        assert_eq!(q.y_f64(), -0.25);
    }

    #[test]
    fn davis_coordinates_fit_q9_7_exactly_at_half_pixel() {
        // 9 integer bits cover ±255; DAVIS is 240x180 so all pixels fit.
        let p = PackedCoord::from_f64(239.0, 179.0);
        assert_eq!(p.x_f64(), 239.0);
        assert_eq!(p.y_f64(), 179.0);
    }

    #[test]
    fn plane_coord_rounding_and_bounds() {
        assert_eq!(
            PlaneCoord::from_projection(10.4, 20.6, 240, 180),
            PlaneCoord::Inside { x: 10, y: 21 }
        );
        assert_eq!(
            PlaneCoord::from_projection(-0.6, 5.0, 240, 180),
            PlaneCoord::Missing
        );
        assert_eq!(
            PlaneCoord::from_projection(239.6, 5.0, 240, 180),
            PlaneCoord::Missing
        );
        assert_eq!(
            PlaneCoord::from_projection(5.0, 180.0, 240, 180),
            PlaneCoord::Missing
        );
        assert_eq!(
            PlaneCoord::from_projection(f64::NAN, 5.0, 240, 180),
            PlaneCoord::Missing
        );
        // Boundary: -0.4 rounds to 0 which is inside.
        assert_eq!(
            PlaneCoord::from_projection(-0.4, 0.0, 240, 180),
            PlaneCoord::Inside { x: 0, y: 0 }
        );
    }

    #[test]
    fn plane_coord_address() {
        assert_eq!(PlaneCoord::Inside { x: 3, y: 7 }.address(), Some((3, 7)));
        assert_eq!(PlaneCoord::Missing.address(), None);
        assert!(PlaneCoord::Inside { x: 0, y: 0 }.is_inside());
        assert!(!PlaneCoord::Missing.is_inside());
    }

    #[test]
    fn table1_matches_paper() {
        assert_eq!(TABLE1_STRATEGY.len(), 6);
        let h = TABLE1_STRATEGY.iter().find(|s| s.name == "H_Z0").unwrap();
        assert_eq!((h.total_bits, h.integer_bits, h.decimal_bits), (32, 11, 21));
        for s in &TABLE1_STRATEGY {
            assert_eq!(s.total_bits, s.integer_bits + s.decimal_bits, "{}", s.name);
        }
    }

    #[test]
    fn quantization_saves_close_to_half_the_memory() {
        let (float_bytes, q_bytes) = frame_memory_footprint(1024, 100, 240, 180);
        let ratio = q_bytes as f64 / float_bytes as f64;
        // The paper claims "up to 50%" savings; the DSI dominates so the ratio
        // is essentially 1/2.
        assert!(ratio < 0.55, "ratio {ratio}");
        assert!(ratio > 0.45, "ratio {ratio}");
    }

    #[test]
    fn q_formats_match_table1_widths() {
        assert_eq!(Q9p7::frac_bits() + Q9p7::int_bits(), 16);
        assert_eq!(Q11p21::frac_bits() + Q11p21::int_bits(), 32);
        assert_eq!(Q9p7::int_bits(), 9);
        assert_eq!(Q11p21::int_bits(), 11);
    }
}
