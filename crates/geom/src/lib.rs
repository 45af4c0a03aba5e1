//! # eventor-geom
//!
//! Geometry substrate for the Eventor EMVS reproduction: small fixed-size
//! linear algebra, SE(3) poses and trajectories, pinhole camera models with
//! radial–tangential distortion, and the plane-induced homography /
//! proportional back-projection machinery that powers the event-based
//! space-sweep.
//!
//! The crate is deliberately self-contained (no external linear-algebra
//! dependency): the EMVS datapath only needs 2/3/4-vectors, 3×3 / 4×4
//! matrices, quaternions and a handful of camera-geometry routines, and
//! keeping them here makes the quantized fixed-point re-implementation in
//! `eventor-core` easy to cross-check against the exact double-precision
//! reference.
//!
//! ## Example
//!
//! ```
//! use eventor_geom::{CameraIntrinsics, CanonicalHomography, Pose, Vec2, Vec3};
//!
//! # fn main() -> Result<(), eventor_geom::GeometryError> {
//! let intrinsics = CameraIntrinsics::davis240_default();
//! let reference = Pose::identity();
//! let camera = Pose::from_translation(Vec3::new(0.05, 0.0, 0.0));
//! let homography = CanonicalHomography::compute(&reference, &camera, &intrinsics, 1.0)?;
//! let on_plane = homography.project(Vec2::new(120.0, 90.0));
//! assert!(on_plane.is_some());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

mod camera;
mod error;
mod homography;
mod mat;
mod quat;
mod se3;
mod trajectory;
mod vec;

pub use camera::{CameraIntrinsics, CameraModel, DistortionModel, DAVIS_HEIGHT, DAVIS_WIDTH};
pub use error::GeometryError;
pub use homography::{
    apply_homography, backproject_exhaustive, CanonicalHomography, ProportionalCoefficients,
};
pub use mat::{Mat3, Mat4};
pub use quat::UnitQuaternion;
pub use se3::Pose;
pub use trajectory::{PoseSample, Trajectory};
pub use vec::{Vec2, Vec3, Vec4};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn finite_angle() -> impl Strategy<Value = f64> {
        -3.0..3.0f64
    }

    fn small_translation() -> impl Strategy<Value = f64> {
        -0.5..0.5f64
    }

    proptest! {
        #[test]
        fn pose_inverse_round_trip(
            roll in finite_angle(), pitch in finite_angle(), yaw in finite_angle(),
            tx in small_translation(), ty in small_translation(), tz in small_translation(),
            px in -5.0..5.0f64, py in -5.0..5.0f64, pz in -5.0..5.0f64,
        ) {
            let pose = Pose::new(UnitQuaternion::from_euler(roll, pitch, yaw), Vec3::new(tx, ty, tz));
            let p = Vec3::new(px, py, pz);
            let back = pose.inverse().transform(pose.transform(p));
            prop_assert!((back - p).norm() < 1e-9);
        }

        #[test]
        fn rotation_preserves_norm(
            roll in finite_angle(), pitch in finite_angle(), yaw in finite_angle(),
            px in -5.0..5.0f64, py in -5.0..5.0f64, pz in -5.0..5.0f64,
        ) {
            let q = UnitQuaternion::from_euler(roll, pitch, yaw);
            let v = Vec3::new(px, py, pz);
            prop_assert!((q.rotate(v).norm() - v.norm()).abs() < 1e-9);
        }

        #[test]
        fn quaternion_matrix_round_trip(
            roll in finite_angle(), pitch in finite_angle(), yaw in finite_angle(),
        ) {
            let q = UnitQuaternion::from_euler(roll, pitch, yaw);
            let q2 = UnitQuaternion::from_rotation_matrix(&q.to_rotation_matrix());
            prop_assert!((q.dot(q2).abs() - 1.0).abs() < 1e-9);
        }

        #[test]
        fn projection_round_trip(
            px in -0.4..0.4f64, py in -0.3..0.3f64, z in 0.5..10.0f64,
        ) {
            let k = CameraIntrinsics::davis240_default();
            let p = Vec3::new(px * z, py * z, z);
            if let Some(pix) = k.project(p) {
                let ray = k.unproject(pix);
                prop_assert!((ray * z - p).norm() < 1e-8);
            }
        }

        #[test]
        fn distortion_round_trip(nx in -0.4..0.4f64, ny in -0.4..0.4f64) {
            let d = DistortionModel::davis240_default();
            let n = Vec2::new(nx, ny);
            let back = d.undistort(d.distort(n));
            prop_assert!((back - n).norm() < 1e-6);
        }

        #[test]
        fn proportional_transfer_matches_raycast(
            tx in -0.2..0.2f64, ty in -0.2..0.2f64, tz in -0.15..0.15f64,
            yaw in -0.05..0.05f64,
            ex in 10.0..230.0f64, ey in 10.0..170.0f64,
        ) {
            let k = CameraIntrinsics::davis240_default();
            let reference = Pose::identity();
            let cam = Pose::new(UnitQuaternion::from_euler(0.0, 0.0, yaw), Vec3::new(tx, ty, tz));
            let depths: Vec<f64> = (0..20)
                .map(|i| {
                    let t = i as f64 / 19.0;
                    1.0 / ((1.0 - t) / 1.0 + t / 5.0)
                })
                .collect();
            let hom = CanonicalHomography::compute(&reference, &cam, &k, depths[0]);
            let phi = ProportionalCoefficients::compute(&reference, &cam, &k, &depths, depths[0]);
            if let (Ok(hom), Ok(phi)) = (hom, phi) {
                let px = Vec2::new(ex, ey);
                if let Some(canonical) = hom.project(px) {
                    let exact = backproject_exhaustive(&reference, &cam, &k, px, &depths);
                    for (i, expect) in exact.iter().enumerate() {
                        if let Some(expect) = expect {
                            let got = phi.transfer(canonical, i);
                            prop_assert!((got - *expect).norm() < 1e-4,
                                "plane {}: {} vs {}", i, got, expect);
                        }
                    }
                }
            }
        }
    }
}
