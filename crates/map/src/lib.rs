//! # eventor-map
//!
//! Global semi-dense mapping substrate for the Eventor reproduction: the
//! "Merging Depth Information" stage of the EMVS pipeline (reset DSI → point
//! cloud conversion → map updating) grown into a reusable component set.
//!
//! * [`VoxelGrid`] — sparse voxel-grid downsampling with confidence-weighted
//!   centroids, occupancy queries and support-based pruning,
//! * [`DepthFusion`] — confidence-weighted inverse-depth fusion of several
//!   semi-dense depth maps at a common reference view,
//! * [`GlobalMap`] — the accumulated world-frame map with per-key-frame
//!   book-keeping, statistics and PLY export.
//!
//! ## Example
//!
//! ```
//! use eventor_dsi::DepthMap;
//! use eventor_geom::{CameraIntrinsics, Pose, Vec3};
//! use eventor_map::{GlobalMap, GlobalMapConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut map = GlobalMap::new(GlobalMapConfig::default())?;
//! let mut depth = DepthMap::new(240, 180)?;
//! depth.set(100, 90, 1.5, 6.0);
//! depth.set(101, 90, 1.5, 7.0);
//! map.insert_depth_map(&depth, &CameraIntrinsics::davis240_default(), &Pose::identity());
//! let stats = map.statistics();
//! assert_eq!(stats.keyframes, 1);
//! assert!(map.is_occupied(Vec3::new(0.0, 0.0, 1.5)) || stats.map_points > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

mod error;
mod fusion;
mod map;
mod voxelgrid;

pub use error::MapError;
pub use fusion::{DepthFusion, FusionConfig};
pub use map::{FusionDelta, GlobalMap, GlobalMapConfig, KeyframeEntry, MapStatistics};
pub use voxelgrid::{VoxelGrid, VoxelKey};

#[cfg(test)]
mod proptests {
    use super::*;
    use eventor_dsi::{MapPoint, PointCloud};
    use eventor_geom::Vec3;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn voxel_grid_never_produces_more_points_than_inserted(
            points in prop::collection::vec((-5.0f64..5.0, -5.0f64..5.0, 0.1f64..5.0), 1..200),
            resolution in 0.01f64..1.0,
        ) {
            let mut grid = VoxelGrid::new(resolution).unwrap();
            for (x, y, z) in &points {
                grid.insert(MapPoint { position: Vec3::new(*x, *y, *z), confidence: 1.0 });
            }
            let cloud = grid.to_point_cloud();
            prop_assert!(cloud.len() <= points.len());
            prop_assert_eq!(grid.points_inserted(), points.len() as u64);
            prop_assert_eq!(grid.occupied_voxels(), cloud.len());
        }

        #[test]
        fn voxel_centroids_stay_inside_their_voxel(
            points in prop::collection::vec((-2.0f64..2.0, -2.0f64..2.0, 0.1f64..2.0), 1..100),
            resolution in 0.05f64..0.5,
        ) {
            let mut grid = VoxelGrid::new(resolution).unwrap();
            for (x, y, z) in &points {
                grid.insert(MapPoint { position: Vec3::new(*x, *y, *z), confidence: 1.0 });
            }
            for p in grid.to_point_cloud().points() {
                let key = VoxelKey::from_position(p.position, resolution);
                let center = key.center(resolution);
                prop_assert!((p.position.x - center.x).abs() <= resolution / 2.0 + 1e-9);
                prop_assert!((p.position.y - center.y).abs() <= resolution / 2.0 + 1e-9);
                prop_assert!((p.position.z - center.z).abs() <= resolution / 2.0 + 1e-9);
            }
        }

        #[test]
        fn global_map_statistics_are_consistent(
            n_frames in 1usize..6,
            points_per_frame in 1usize..40,
        ) {
            let mut map = GlobalMap::new(GlobalMapConfig::default()).unwrap();
            for f in 0..n_frames {
                let mut cloud = PointCloud::new();
                for i in 0..points_per_frame {
                    cloud.push(MapPoint {
                        position: Vec3::new(i as f64 * 0.1, f as f64 * 0.1, 1.0),
                        confidence: 1.0 + i as f64,
                    });
                }
                map.insert_cloud(&cloud, &eventor_geom::Pose::identity());
            }
            let stats = map.statistics();
            prop_assert_eq!(stats.keyframes, n_frames);
            prop_assert_eq!(stats.raw_points, (n_frames * points_per_frame) as u64);
            prop_assert!(stats.map_points <= n_frames * points_per_frame);
            prop_assert!(stats.map_points > 0);
            prop_assert!(stats.extent.x >= 0.0 && stats.extent.y >= 0.0 && stats.extent.z >= 0.0);
        }
    }
}
