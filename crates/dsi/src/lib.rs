//! # eventor-dsi
//!
//! The disparity space image (DSI) substrate of the EMVS space-sweep:
//!
//! * [`DepthPlanes`] — inverse-depth sampling of the viewing volume,
//! * [`DsiVolume`] — the `w × h × N_z` ray-count grid, generic over the voxel
//!   score type (`f32` for the float baseline, `u16` for the quantized
//!   accelerator datapath), with both **bilinear** and **nearest** voting,
//! * [`detect_structure`] — scene-structure detection (confidence map,
//!   adaptive Gaussian threshold, median filtering) producing a semi-dense
//!   [`DepthMap`],
//! * [`DepthMap::compare_to_ground_truth`] — the AbsRel metric reported in
//!   Fig. 4 and Fig. 7a,
//! * [`PointCloud`] — conversion to a world-frame map and PLY export
//!   (Fig. 7b).
//!
//! ## Example
//!
//! ```
//! use eventor_dsi::{DepthPlanes, DsiVolume, DetectionConfig, detect_structure};
//!
//! # fn main() -> Result<(), eventor_dsi::DsiError> {
//! let planes = DepthPlanes::uniform_inverse_depth(1.0, 5.0, 50)?;
//! let mut dsi: DsiVolume<u16> = DsiVolume::new(240, 180, planes)?;
//! for _ in 0..20 {
//!     dsi.vote_nearest(120.0, 90.0, 25, 1.0);
//! }
//! let depth_map = detect_structure(&dsi, &DetectionConfig::default());
//! assert!(depth_map.is_valid(120, 90));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

mod depthmap;
mod detection;
mod error;
mod planes;
mod pointcloud;
mod volume;

pub use depthmap::{DepthMap, DepthMetrics};
pub use detection::{confidence_map, detect_structure, ConfidenceMap, DetectionConfig};
pub use error::DsiError;
pub use planes::DepthPlanes;
pub use pointcloud::{MapPoint, PointCloud};
pub use volume::{DsiVolume, PlaneRange, VoteArena, VoxelScore};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn depth_planes_are_sorted_and_within_range(
            z_min in 0.1..5.0f64,
            span in 0.5..10.0f64,
            count in 2usize..200,
        ) {
            let z_max = z_min + span;
            let planes = DepthPlanes::uniform_inverse_depth(z_min, z_max, count).unwrap();
            prop_assert_eq!(planes.len(), count);
            prop_assert!((planes.z0() - z_min).abs() < 1e-9);
            prop_assert!((planes.depth(count - 1) - z_max).abs() < 1e-9);
            for w in planes.as_slice().windows(2) {
                prop_assert!(w[1] > w[0]);
            }
        }

        #[test]
        fn bilinear_votes_conserve_weight_in_interior(
            x in 1.0..30.0f64,
            y in 1.0..20.0f64,
            plane in 0usize..5,
        ) {
            let planes = DepthPlanes::uniform_inverse_depth(1.0, 4.0, 5).unwrap();
            let mut dsi = DsiVolume::<f32>::new(32, 22, planes).unwrap();
            dsi.vote_bilinear(x, y, plane, 1.0);
            prop_assert!((dsi.total_score() - 1.0).abs() < 1e-5);
        }

        #[test]
        fn nearest_votes_always_deposit_exactly_one(
            x in 0.0..31.4f64,
            y in 0.0..21.4f64,
            plane in 0usize..5,
        ) {
            let planes = DepthPlanes::uniform_inverse_depth(1.0, 4.0, 5).unwrap();
            let mut dsi = DsiVolume::<u16>::new(32, 22, planes).unwrap();
            dsi.vote_nearest(x, y, plane, 1.0);
            prop_assert_eq!(dsi.total_score(), 1.0);
            prop_assert_eq!(dsi.votes_cast(), 1);
        }

        #[test]
        fn nearest_and_bilinear_peak_voxels_agree(
            x in 2.0..28.0f64,
            y in 2.0..18.0f64,
        ) {
            // The voxel receiving the largest bilinear weight is the voxel the
            // nearest-voting scheme selects — the geometric argument behind
            // the paper's approximate-computing substitution.
            let planes = DepthPlanes::uniform_inverse_depth(1.0, 4.0, 3).unwrap();
            let mut nearest = DsiVolume::<f32>::new(32, 22, planes.clone()).unwrap();
            let mut bilinear = DsiVolume::<f32>::new(32, 22, planes).unwrap();
            nearest.vote_nearest(x, y, 1, 1.0);
            bilinear.vote_bilinear(x, y, 1, 1.0);
            // Find argmax voxel of each.
            let find_max = |dsi: &DsiVolume<f32>| {
                let mut best = (0usize, 0usize, f64::NEG_INFINITY);
                for yy in 0..22 {
                    for xx in 0..32 {
                        let s = dsi.score(xx, yy, 1);
                        if s > best.2 {
                            best = (xx, yy, s);
                        }
                    }
                }
                (best.0, best.1)
            };
            // Skip exact ties (point equidistant from several voxels).
            let fx = (x - x.floor() - 0.5).abs();
            let fy = (y - y.floor() - 0.5).abs();
            prop_assume!(fx > 1e-6 && fy > 1e-6);
            prop_assert_eq!(find_max(&nearest), find_max(&bilinear));
        }

        #[test]
        fn abs_rel_is_scale_consistent(
            depth in 0.5..10.0f64,
            error_fraction in 0.0..0.5f64,
        ) {
            let mut dm = DepthMap::new(2, 2).unwrap();
            for y in 0..2 {
                for x in 0..2 {
                    dm.set(x, y, depth * (1.0 + error_fraction), 1.0);
                }
            }
            let gt = vec![depth; 4];
            let m = dm.compare_to_ground_truth(&gt).unwrap();
            prop_assert!((m.abs_rel - error_fraction).abs() < 1e-9);
        }
    }
}

#[cfg(test)]
mod readback_proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn from_scores_round_trips_every_voxel(
            width in 2usize..24,
            height in 2usize..20,
            n_planes in 2usize..8,
            seed in 0u64..1000,
        ) {
            let planes = DepthPlanes::uniform_inverse_depth(1.0, 4.0, n_planes).unwrap();
            let len = width * height * n_planes;
            // Deterministic pseudo-random scores (no RNG dependency needed).
            let scores: Vec<u16> = (0..len)
                .map(|i| ((i as u64).wrapping_mul(2654435761).wrapping_add(seed) % 97) as u16)
                .collect();
            let dsi = DsiVolume::<u16>::from_scores(width, height, planes, scores.clone(), 1234).unwrap();
            prop_assert_eq!(dsi.votes_cast(), 1234);
            prop_assert_eq!(dsi.voxel_count(), len);
            for plane in 0..n_planes {
                let stride = width * height;
                prop_assert_eq!(dsi.plane_scores(plane), &scores[plane * stride..(plane + 1) * stride]);
            }
            // Spot-check the (x, y, plane) addressing convention.
            let x = width / 2;
            let y = height / 2;
            let p = n_planes / 2;
            let expected = scores[(p * height + y) * width + x] as f64;
            prop_assert!((dsi.score(x, y, p) - expected).abs() < 1e-12);
        }

        #[test]
        fn from_scores_matches_incremental_nearest_voting(
            votes in prop::collection::vec((0usize..16, 0usize..12, 0usize..4), 1..200),
        ) {
            // Accumulating votes incrementally and reconstructing the volume
            // from the final score array must describe the same DSI — the
            // readback path used by the accelerator co-simulation.
            let planes = DepthPlanes::uniform_inverse_depth(1.0, 4.0, 4).unwrap();
            let mut incremental = DsiVolume::<u16>::new(16, 12, planes.clone()).unwrap();
            for &(x, y, p) in &votes {
                incremental.vote_nearest(x as f64, y as f64, p, 1.0);
            }
            let mut scores = Vec::with_capacity(incremental.voxel_count());
            for p in 0..4 {
                scores.extend_from_slice(incremental.plane_scores(p));
            }
            let rebuilt =
                DsiVolume::<u16>::from_scores(16, 12, planes, scores, incremental.votes_cast()).unwrap();
            prop_assert_eq!(rebuilt.votes_cast(), incremental.votes_cast());
            prop_assert_eq!(rebuilt.total_score(), incremental.total_score());
            let config = DetectionConfig::default();
            let a = detect_structure(&incremental, &config);
            let b = detect_structure(&rebuilt, &config);
            prop_assert_eq!(a.depth_data(), b.depth_data());
        }

        #[test]
        fn from_scores_rejects_wrong_lengths(extra in 1usize..50) {
            let planes = DepthPlanes::uniform_inverse_depth(1.0, 4.0, 3).unwrap();
            let wrong = vec![0u16; 8 * 6 * 3 + extra];
            prop_assert!(DsiVolume::<u16>::from_scores(8, 6, planes, wrong, 0).is_err());
        }
    }
}
