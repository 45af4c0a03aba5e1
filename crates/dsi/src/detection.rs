//! Scene structure detection (`𝒟` in the paper): extracting a semi-dense
//! depth map from the ray-density DSI.
//!
//! Following the EMVS reference algorithm, the detector
//!
//! 1. collapses the DSI to a per-pixel *confidence map* (maximum ray count
//!    along depth) and the corresponding best depth plane,
//! 2. keeps only pixels whose confidence exceeds an *adaptive threshold*
//!    (a Gaussian-blurred copy of the confidence map plus a constant offset) —
//!    the regions where many back-projected rays nearly intersect,
//! 3. median-filters the resulting semi-dense depth map to remove isolated
//!    outliers.

use crate::depthmap::DepthMap;
use crate::volume::{DsiVolume, VoxelScore};
use eventor_fixed::kernel::batch::{self, Dispatch};

/// Pixels a tile of the `f64` depth collapse reduces at once: the tile's
/// accumulators (24 KiB) stay in L1 while every plane's run of the tile
/// streams through them.
const TILE: usize = 1024;

/// Parameters of the scene-structure detector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectionConfig {
    /// Standard deviation (in pixels) of the Gaussian blur applied to the
    /// confidence map when building the adaptive threshold surface: finite
    /// and non-negative, with a blur radius `⌈3σ⌉` of at most
    /// [`Self::MAX_BLUR_RADIUS`]; 0 disables the blur.
    pub adaptive_sigma: f64,
    /// Constant added to the blurred confidence before thresholding
    /// (suppresses low-evidence regions).
    pub adaptive_offset: f64,
    /// Absolute minimum confidence for a pixel to be considered at all.
    pub min_confidence: f64,
    /// Minimum ratio between the per-pixel peak score and the per-pixel mean
    /// score along depth. Disabled at the default of 1.0: the adaptive offset
    /// is the primary filter, but the knob is kept for ablations (a high
    /// ratio keeps only isolated spikes, which favours sparse noise).
    pub min_peak_ratio: f64,
    /// Refine the detected depth below the plane spacing by fitting a
    /// parabola (in inverse depth) through the peak plane and its two
    /// neighbours.
    pub subplane_refinement: bool,
    /// Size of the square median filter applied to the depth map: odd, with
    /// a half-width `size / 2` of at most [`Self::MAX_MEDIAN_HALF_WIDTH`];
    /// 0 or 1 disables filtering.
    pub median_filter_size: usize,
}

impl DetectionConfig {
    /// The largest Gaussian blur radius `⌈3σ⌉`, in pixels, a configuration
    /// may ask for (`EmvsConfig::validate` refuses a wider one).
    pub const MAX_BLUR_RADIUS: usize = 255;
    /// The largest median-filter half-width, in pixels, a configuration may
    /// ask for (`EmvsConfig::validate` refuses a wider one).
    pub const MAX_MEDIAN_HALF_WIDTH: usize = 255;
}

impl Default for DetectionConfig {
    fn default() -> Self {
        Self {
            adaptive_sigma: 4.0,
            adaptive_offset: 8.0,
            min_confidence: 5.0,
            min_peak_ratio: 1.0,
            subplane_refinement: true,
            median_filter_size: 5,
        }
    }
}

/// A 1-D Gaussian kernel of the given sigma, truncated at three sigmas.
fn gaussian_kernel(sigma: f64) -> Vec<f64> {
    let radius = (3.0 * sigma).ceil().max(1.0) as usize;
    let mut kernel = Vec::with_capacity(2 * radius + 1);
    let denom = 2.0 * sigma * sigma;
    for i in 0..=(2 * radius) {
        let d = i as f64 - radius as f64;
        kernel.push((-d * d / denom).exp());
    }
    let sum: f64 = kernel.iter().sum();
    for k in &mut kernel {
        *k /= sum;
    }
    kernel
}

/// Separable Gaussian blur of a row-major image with clamped borders.
///
/// Both passes run row-wise: for each tap `k` in order, every output row
/// adds `w_k ×` a source row, which is a border-clamped copy of the input
/// row shifted by `k − radius` in the horizontal pass and row
/// `clamp(y + k − radius)` of the horizontal result in the vertical pass.
/// Each pixel's sum still starts at 0 and adds its taps in order, so the
/// result is the per-pixel clamped-tap loop's bit for bit, and the inner
/// loops run over whole rows.
fn gaussian_blur(data: &[f64], width: usize, height: usize, sigma: f64) -> Vec<f64> {
    if sigma <= 0.0 {
        return data.to_vec();
    }
    let kernel = gaussian_kernel(sigma);
    let radius = kernel.len() / 2;
    let mut tmp = vec![0.0; data.len()];
    let mut padded = vec![0.0; width + 2 * radius];
    for (src, dst) in data.chunks_exact(width).zip(tmp.chunks_exact_mut(width)) {
        for (j, p) in padded.iter_mut().enumerate() {
            *p = src[j.saturating_sub(radius).min(width - 1)];
        }
        for (k, &w) in kernel.iter().enumerate() {
            for (d, &v) in dst.iter_mut().zip(&padded[k..k + width]) {
                *d += w * v;
            }
        }
    }
    let mut out = vec![0.0; data.len()];
    for (y, dst) in out.chunks_exact_mut(width).enumerate() {
        for (k, &w) in kernel.iter().enumerate() {
            let row = (y + k).saturating_sub(radius).min(height - 1);
            for (d, &v) in dst.iter_mut().zip(&tmp[row * width..(row + 1) * width]) {
                *d += w * v;
            }
        }
    }
    out
}

/// The per-pixel maximum-score projection of a DSI: confidence map plus the
/// index of the best depth plane.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfidenceMap {
    /// Image width.
    pub width: usize,
    /// Image height.
    pub height: usize,
    /// Row-major maximum score per pixel.
    pub confidence: Vec<f64>,
    /// Row-major mean score along depth per pixel.
    pub mean_score: Vec<f64>,
    /// Row-major index of the best depth plane per pixel.
    pub best_plane: Vec<usize>,
}

/// Collapses a DSI along the depth axis into a [`ConfidenceMap`].
///
/// One plane-major pass over the score array, in tiles of pixels. `u16`
/// scores go through the kernel's batched depth collapse
/// ([`batch::depth_collapse_u16`]) on the session's dispatch tier: its
/// peaks, first maximal planes and exact integer sums are the values the
/// per-pixel `f64` walk finds, since a sum of `u16` scores is an integer
/// far below 2⁵³. `f32` scores, and `u16` volumes of more planes than a
/// `u32` sum holds, take the same tiled pass in `f64`, adding each pixel's
/// planes in plane order. Either way the result is bit-identical to
/// walking each pixel's planes in order.
pub fn confidence_map<S: VoxelScore>(dsi: &DsiVolume<S>) -> ConfidenceMap {
    S::confidence_map(dsi)
}

/// The `u16` depth collapse on the kernel's `tier`.
pub(crate) fn collapse_u16(dsi: &DsiVolume<u16>, tier: Dispatch) -> ConfidenceMap {
    let planes = dsi.num_planes();
    if planes > batch::DEPTH_COLLAPSE_MAX_PLANES {
        return collapse_ordered(dsi);
    }
    let mut peaks = Vec::new();
    batch::depth_collapse_u16_with(
        tier,
        dsi.raw_scores(),
        dsi.width() * dsi.height(),
        &mut peaks,
    );
    let n_planes = planes as f64;
    ConfidenceMap {
        width: dsi.width(),
        height: dsi.height(),
        confidence: peaks.iter().map(|p| f64::from(p.peak)).collect(),
        mean_score: peaks.iter().map(|p| f64::from(p.sum) / n_planes).collect(),
        best_plane: peaks.iter().map(|p| p.plane as usize).collect(),
    }
}

/// The depth collapse in `f64`: tiled and plane-major, every pixel's
/// planes in plane order.
pub(crate) fn collapse_ordered<S: VoxelScore>(dsi: &DsiVolume<S>) -> ConfidenceMap {
    let pixels = dsi.width() * dsi.height();
    let mut confidence = vec![f64::NEG_INFINITY; pixels];
    let mut best_plane = vec![0usize; pixels];
    let mut mean_score = vec![0.0; pixels];
    for start in (0..pixels).step_by(TILE) {
        let tile = start..pixels.min(start + TILE);
        for plane in 0..dsi.num_planes() {
            let row = &dsi.plane_scores(plane)[tile.clone()];
            let acc = confidence[tile.clone()]
                .iter_mut()
                .zip(&mut best_plane[tile.clone()])
                .zip(&mut mean_score[tile.clone()]);
            for (((peak, best), sum), &score) in acc.zip(row) {
                let score = score.as_f64();
                if score > *peak {
                    *peak = score;
                    *best = plane;
                }
                *sum += score;
            }
        }
    }
    let n_planes = dsi.num_planes() as f64;
    for sum in &mut mean_score {
        *sum /= n_planes;
    }
    ConfidenceMap {
        width: dsi.width(),
        height: dsi.height(),
        confidence,
        mean_score,
        best_plane,
    }
}

/// Parabolic sub-plane refinement of the peak position, performed in inverse
/// depth (the domain in which the planes are uniformly spaced).
fn refine_depth<S: VoxelScore>(dsi: &DsiVolume<S>, x: usize, y: usize, plane: usize) -> f64 {
    let n = dsi.num_planes();
    if plane == 0 || plane + 1 >= n {
        return dsi.planes().depth(plane);
    }
    let s_prev = dsi.score(x, y, plane - 1);
    let s_peak = dsi.score(x, y, plane);
    let s_next = dsi.score(x, y, plane + 1);
    let denom = s_prev - 2.0 * s_peak + s_next;
    if denom.abs() < 1e-9 {
        return dsi.planes().depth(plane);
    }
    // Vertex offset of the parabola through the three samples, in plane units.
    let delta = (0.5 * (s_prev - s_next) / denom).clamp(-0.5, 0.5);
    let inv_here = 1.0 / dsi.planes().depth(plane);
    let inv_other = if delta >= 0.0 {
        1.0 / dsi.planes().depth(plane + 1)
    } else {
        1.0 / dsi.planes().depth(plane - 1)
    };
    let inv = inv_here + delta.abs() * (inv_other - inv_here);
    1.0 / inv
}

/// Runs the full scene-structure detection on a DSI, producing a semi-dense
/// depth map at the virtual camera.
pub fn detect_structure<S: VoxelScore>(dsi: &DsiVolume<S>, config: &DetectionConfig) -> DepthMap {
    let cmap = confidence_map(dsi);
    let blurred = gaussian_blur(
        &cmap.confidence,
        cmap.width,
        cmap.height,
        config.adaptive_sigma,
    );

    let mut depth_map = DepthMap::new(cmap.width, cmap.height).expect("dsi dimensions are nonzero");
    for y in 0..cmap.height {
        for x in 0..cmap.width {
            let idx = y * cmap.width + x;
            let c = cmap.confidence[idx];
            let threshold = blurred[idx] + config.adaptive_offset;
            let peak_ratio = if cmap.mean_score[idx] > 0.0 {
                c / cmap.mean_score[idx]
            } else {
                f64::INFINITY
            };
            if c >= config.min_confidence && c > threshold && peak_ratio >= config.min_peak_ratio {
                let plane = cmap.best_plane[idx];
                let depth = if config.subplane_refinement {
                    refine_depth(dsi, x, y, plane)
                } else {
                    dsi.planes().depth(plane)
                };
                depth_map.set(x, y, depth, c);
            }
        }
    }
    if config.median_filter_size > 1 {
        depth_map.median_filtered(config.median_filter_size)
    } else {
        depth_map
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planes::DepthPlanes;

    fn planes() -> DepthPlanes {
        DepthPlanes::uniform_inverse_depth(1.0, 4.0, 10).unwrap()
    }

    /// The per-pixel clamped-tap blur the row-wise one must equal bit for
    /// bit: every tap of every pixel clamped and bounds-checked, rows then
    /// columns.
    pub(super) fn gaussian_blur_reference(
        data: &[f64],
        width: usize,
        height: usize,
        sigma: f64,
    ) -> Vec<f64> {
        if sigma <= 0.0 {
            return data.to_vec();
        }
        let kernel = gaussian_kernel(sigma);
        let radius = kernel.len() / 2;
        let mut tmp = vec![0.0; data.len()];
        let mut out = vec![0.0; data.len()];
        for y in 0..height {
            for x in 0..width {
                let mut acc = 0.0;
                for (k, &w) in kernel.iter().enumerate() {
                    let xi = (x as isize + k as isize - radius as isize)
                        .clamp(0, width as isize - 1) as usize;
                    acc += w * data[y * width + xi];
                }
                tmp[y * width + x] = acc;
            }
        }
        for y in 0..height {
            for x in 0..width {
                let mut acc = 0.0;
                for (k, &w) in kernel.iter().enumerate() {
                    let yi = (y as isize + k as isize - radius as isize)
                        .clamp(0, height as isize - 1) as usize;
                    acc += w * tmp[yi * width + x];
                }
                out[y * width + x] = acc;
            }
        }
        out
    }

    /// The per-pixel depth walk the collapse must equal bit for bit: each
    /// pixel's best plane, then its planes summed in order in `f64`.
    pub(super) fn confidence_map_reference<S: VoxelScore>(dsi: &DsiVolume<S>) -> ConfidenceMap {
        let width = dsi.width();
        let height = dsi.height();
        let n_planes = dsi.num_planes() as f64;
        let mut confidence = vec![0.0; width * height];
        let mut mean_score = vec![0.0; width * height];
        let mut best_plane = vec![0usize; width * height];
        for y in 0..height {
            for x in 0..width {
                let (plane, score) = dsi.best_plane(x, y);
                let mut sum = 0.0;
                for p in 0..dsi.num_planes() {
                    sum += dsi.score(x, y, p);
                }
                confidence[y * width + x] = score;
                mean_score[y * width + x] = sum / n_planes;
                best_plane[y * width + x] = plane;
            }
        }
        ConfidenceMap {
            width,
            height,
            confidence,
            mean_score,
            best_plane,
        }
    }

    /// Asserts two confidence maps equal bit for bit.
    pub(super) fn assert_same_bits(got: &ConfidenceMap, want: &ConfidenceMap, what: &str) {
        assert_eq!((got.width, got.height), (want.width, want.height), "{what}");
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&got.confidence),
            bits(&want.confidence),
            "{what}: confidence"
        );
        assert_eq!(
            bits(&got.mean_score),
            bits(&want.mean_score),
            "{what}: mean score"
        );
        assert_eq!(got.best_plane, want.best_plane, "{what}: best plane");
    }

    pub(super) fn supported_tiers() -> Vec<Dispatch> {
        Dispatch::ALL
            .into_iter()
            .filter(|t| t.is_supported())
            .collect()
    }

    #[test]
    fn blur_matches_the_clamped_tap_reference() {
        // Images narrower and shorter than the radius (12 px at σ = 4), so
        // every tap clamps, and wider ones with interior pixels.
        let shapes = [(1, 1), (1, 40), (40, 1), (7, 5), (80, 60), (33, 2)];
        for (width, height) in shapes {
            let data: Vec<f64> = (0..width * height)
                .map(|i| ((i * 7919) % 101) as f64 * 0.37 - 3.0)
                .collect();
            for sigma in [4.0, 1.3, 0.2, 85.0] {
                let got = gaussian_blur(&data, width, height, sigma);
                let want = gaussian_blur_reference(&data, width, height, sigma);
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&want), "{width}x{height} sigma {sigma}");
            }
        }
    }

    #[test]
    fn blur_with_zero_sigma_is_identity() {
        // Any σ ≤ 0 returns the input unchanged.
        let data: Vec<f64> = (0..35).map(|i| i as f64 - 7.5).collect();
        for sigma in [0.0, -0.0, -1.0] {
            assert_eq!(gaussian_blur(&data, 7, 5, sigma), data);
        }
    }

    #[test]
    fn confidence_map_breaks_ties_at_the_first_plane() {
        // Pixel 0 peaks twice at 5 (planes 2 and 7), pixel 1 is all zero,
        // pixel 2 holds u16::MAX on every plane.
        let n = 10;
        let mut scores = vec![0u16; 3 * n];
        for (plane, column) in scores.chunks_exact_mut(3).enumerate() {
            column[0] = if plane == 2 || plane == 7 { 5 } else { 1 };
            column[2] = u16::MAX;
        }
        let dsi = DsiVolume::from_scores(3, 1, planes(), scores, 0).unwrap();
        let want = confidence_map_reference(&dsi);
        assert_eq!(want.best_plane, vec![2, 0, 0]);
        for tier in supported_tiers() {
            assert_same_bits(&collapse_u16(&dsi, tier), &want, tier.name());
        }
        assert_same_bits(&confidence_map(&dsi), &want, "default tier");
        let float = DsiVolume::from_scores(
            3,
            1,
            planes(),
            dsi.raw_scores().iter().map(|&s| f32::from(s)).collect(),
            0,
        )
        .unwrap();
        assert_same_bits(
            &confidence_map(&float),
            &confidence_map_reference(&float),
            "f32",
        );
    }

    #[test]
    fn confidence_map_past_the_u32_sum_bound_stays_exact() {
        // 70 000 planes of u16::MAX sum to 4 587 450 000 > u32::MAX: the
        // volume takes the f64 pass, which must still equal the walk.
        let n = 70_000;
        let planes = DepthPlanes::uniform_inverse_depth(1.0, 4.0, n).unwrap();
        let dsi = DsiVolume::from_scores(1, 2, planes, vec![u16::MAX; 2 * n], 0).unwrap();
        let want = confidence_map_reference(&dsi);
        assert_eq!(want.confidence, vec![65_535.0; 2]);
        assert_eq!(want.mean_score, vec![65_535.0; 2]);
        for tier in supported_tiers() {
            assert_same_bits(&collapse_u16(&dsi, tier), &want, tier.name());
        }
    }

    /// Builds a DSI where a thin horizontal line of pixels has strong votes at
    /// one plane (the shape a textured edge produces) and the rest of the
    /// volume holds weak uniform noise.
    fn synthetic_dsi(signal_plane: usize, signal_votes: u32) -> DsiVolume<f32> {
        let mut dsi = DsiVolume::<f32>::new(40, 30, planes()).unwrap();
        // Weak background: one vote per pixel spread over random-ish planes.
        for y in 0..30 {
            for x in 0..40 {
                dsi.vote_nearest(x as f64, y as f64, (x + y) % 10, 1.0);
            }
        }
        // Strong signal line at y = 15.
        for x in 10..30 {
            for _ in 0..signal_votes {
                dsi.vote_nearest(x as f64, 15.0, signal_plane, 1.0);
            }
        }
        dsi
    }

    #[test]
    fn gaussian_kernel_normalised_and_symmetric() {
        let k = gaussian_kernel(2.0);
        let sum: f64 = k.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert_eq!(k.len() % 2, 1);
        for i in 0..k.len() / 2 {
            assert!((k[i] - k[k.len() - 1 - i]).abs() < 1e-12);
        }
    }

    #[test]
    fn blur_preserves_constant_images() {
        let data = vec![3.0; 20 * 10];
        let out = gaussian_blur(&data, 20, 10, 2.5);
        for v in out {
            assert!((v - 3.0).abs() < 1e-9);
        }
    }

    #[test]
    fn confidence_map_finds_signal_plane() {
        let dsi = synthetic_dsi(3, 8);
        let cmap = confidence_map(&dsi);
        let idx = 15 * 40 + 20; // on the signal line
        assert_eq!(cmap.best_plane[idx], 3);
        assert!(cmap.confidence[idx] >= 8.0);
    }

    #[test]
    fn detection_recovers_signal_region_depth() {
        let dsi = synthetic_dsi(4, 30);
        let depth_map = detect_structure(&dsi, &DetectionConfig::default());
        // The detected pixels should predominantly carry the depth of plane 4.
        let expected_depth = dsi.planes().depth(4);
        let mut on_line = 0;
        let mut correct = 0;
        for x in 11..29 {
            if depth_map.is_valid(x, 15) {
                on_line += 1;
                if (depth_map.depth(x, 15) - expected_depth).abs() / expected_depth < 0.05 {
                    correct += 1;
                }
            }
        }
        assert!(
            on_line > 10,
            "too few detections on the signal line: {on_line}"
        );
        assert!(correct as f64 >= 0.9 * on_line as f64);
        // Background (far from the signal) should be mostly rejected.
        let mut false_positives = 0;
        for y in 0..8 {
            for x in 0..10 {
                if depth_map.is_valid(x, y) {
                    false_positives += 1;
                }
            }
        }
        assert!(
            false_positives < 10,
            "too many background detections: {false_positives}"
        );
    }

    #[test]
    fn empty_dsi_detects_nothing() {
        let dsi = DsiVolume::<u16>::new(20, 20, planes()).unwrap();
        let depth_map = detect_structure(&dsi, &DetectionConfig::default());
        assert_eq!(depth_map.valid_count(), 0);
    }

    #[test]
    fn min_confidence_suppresses_weak_evidence() {
        let mut dsi = DsiVolume::<u16>::new(20, 20, planes()).unwrap();
        dsi.vote_nearest(10.0, 10.0, 2, 1.0);
        let config = DetectionConfig {
            min_confidence: 3.0,
            ..Default::default()
        };
        let depth_map = detect_structure(&dsi, &config);
        assert_eq!(depth_map.valid_count(), 0);
        // With the threshold lowered the single vote becomes a detection.
        let config = DetectionConfig {
            min_confidence: 0.5,
            adaptive_offset: 0.0,
            median_filter_size: 1,
            ..Default::default()
        };
        let depth_map = detect_structure(&dsi, &config);
        assert!(depth_map.is_valid(10, 10));
    }

    #[test]
    fn detection_works_on_quantized_scores() {
        // Same scenario as the f32 test but with u16 scores.
        let mut dsi = DsiVolume::<u16>::new(40, 30, planes()).unwrap();
        for x in 10..30 {
            for _ in 0..30 {
                dsi.vote_nearest(x as f64, 15.0, 6, 1.0);
            }
        }
        let depth_map = detect_structure(&dsi, &DetectionConfig::default());
        assert!(depth_map.valid_count() > 10);
        let d = depth_map.depth(20, 15);
        let expected = dsi.planes().depth(6);
        assert!((d - expected).abs() / expected < 0.05, "{d} vs {expected}");
    }
}

#[cfg(test)]
mod proptests {
    use super::tests::{assert_same_bits, confidence_map_reference, supported_tiers};
    use super::*;
    use crate::planes::DepthPlanes;
    use proptest::prelude::*;

    /// Deterministic scores from `seed`: `alphabet` 0 draws from 0–3 (ties
    /// everywhere), 1 from {0, 65 534, 65 535}, 2 from the whole `u16` range.
    fn scores(len: usize, seed: u64, alphabet: u8) -> Vec<u16> {
        let mut state = seed | 1;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let r = (state >> 16) as u16;
                match alphabet {
                    0 => r % 4,
                    1 => [0, u16::MAX - 1, u16::MAX][usize::from(r % 3)],
                    _ => r,
                }
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The collapse equals the per-pixel walk bit for bit on `u16`
        /// volumes on every tier, and on `f32` volumes with fractional
        /// scores, for widths that are no multiple of the lane count or of
        /// the 1024-pixel tile.
        #[test]
        fn confidence_map_is_bit_identical_to_the_pixel_walk(
            width in 1usize..45,
            height in 1usize..31,
            n_planes in 2usize..61,
            seed in 0u64..u64::MAX,
            alphabet in 0u8..3,
        ) {
            let planes = DepthPlanes::uniform_inverse_depth(1.0, 4.0, n_planes).unwrap();
            let raw = scores(width * height * n_planes, seed, alphabet);
            let dsi = DsiVolume::from_scores(width, height, planes.clone(), raw.clone(), 0).unwrap();
            let want = confidence_map_reference(&dsi);
            for tier in supported_tiers() {
                assert_same_bits(&collapse_u16(&dsi, tier), &want, tier.name());
            }
            assert_same_bits(&confidence_map(&dsi), &want, "u16, default tier");

            let float: Vec<f32> = raw.iter().map(|&s| f32::from(s) * 0.37).collect();
            let dsi = DsiVolume::from_scores(width, height, planes, float, 0).unwrap();
            assert_same_bits(&confidence_map(&dsi), &confidence_map_reference(&dsi), "f32");
        }
    }
}
