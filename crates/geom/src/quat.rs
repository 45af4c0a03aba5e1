//! Unit quaternions for representing camera orientation along a trajectory.

use crate::mat::Mat3;
use crate::vec::Vec3;
use std::fmt;
use std::ops::Mul;

/// A unit quaternion representing a 3-D rotation.
///
/// Stored as `(w, x, y, z)` with `w` the scalar part. Constructors normalize
/// the quaternion so downstream rotation code can assume unit norm.
///
/// # Examples
///
/// ```
/// use eventor_geom::{UnitQuaternion, Vec3};
/// let q = UnitQuaternion::from_axis_angle(Vec3::Z, std::f64::consts::FRAC_PI_2);
/// let r = q.rotate(Vec3::X);
/// assert!((r - Vec3::Y).norm() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UnitQuaternion {
    /// Scalar part.
    pub w: f64,
    /// Vector part, x.
    pub x: f64,
    /// Vector part, y.
    pub y: f64,
    /// Vector part, z.
    pub z: f64,
}

impl Default for UnitQuaternion {
    fn default() -> Self {
        Self::identity()
    }
}

impl UnitQuaternion {
    /// The identity rotation.
    pub const fn identity() -> Self {
        Self {
            w: 1.0,
            x: 0.0,
            y: 0.0,
            z: 0.0,
        }
    }

    /// Creates a unit quaternion from raw components, normalizing them.
    ///
    /// # Panics
    ///
    /// Panics if all components are zero.
    pub fn new(w: f64, x: f64, y: f64, z: f64) -> Self {
        let n = (w * w + x * x + y * y + z * z).sqrt();
        assert!(n > 0.0, "cannot normalize a zero quaternion");
        Self {
            w: w / n,
            x: x / n,
            y: y / n,
            z: z / n,
        }
    }

    /// Builds a quaternion from components that are **already unit norm**,
    /// preserving their exact bit patterns (no renormalization).
    ///
    /// [`UnitQuaternion::new`] divides by the computed norm, which can
    /// perturb even an already-normalized quaternion by one ULP per
    /// component; deserializers that must round-trip poses bit-exactly (the
    /// record codec behind `eventor-evtr/1`, `CKPT` and `eventor-wire/1`)
    /// use this constructor instead. Returns `None` when the components deviate from unit norm
    /// by more than `tolerance`.
    pub fn from_normalized(w: f64, x: f64, y: f64, z: f64, tolerance: f64) -> Option<Self> {
        let norm = (w * w + x * x + y * y + z * z).sqrt();
        if !norm.is_finite() || (norm - 1.0).abs() > tolerance {
            return None;
        }
        Some(Self { w, x, y, z })
    }

    /// Creates a rotation of `angle` radians about `axis`.
    ///
    /// A zero axis yields the identity rotation.
    pub fn from_axis_angle(axis: Vec3, angle: f64) -> Self {
        match axis.normalized() {
            None => Self::identity(),
            Some(a) => {
                let half = angle * 0.5;
                let s = half.sin();
                Self {
                    w: half.cos(),
                    x: a.x * s,
                    y: a.y * s,
                    z: a.z * s,
                }
            }
        }
    }

    /// Creates a rotation from roll (about X), pitch (about Y) and yaw (about Z),
    /// applied in Z·Y·X order.
    pub fn from_euler(roll: f64, pitch: f64, yaw: f64) -> Self {
        let qx = Self::from_axis_angle(Vec3::X, roll);
        let qy = Self::from_axis_angle(Vec3::Y, pitch);
        let qz = Self::from_axis_angle(Vec3::Z, yaw);
        qz * qy * qx
    }

    /// Converts a rotation matrix (assumed orthonormal) to a quaternion.
    pub fn from_rotation_matrix(r: &Mat3) -> Self {
        let m = &r.m;
        let trace = m[0][0] + m[1][1] + m[2][2];
        if trace > 0.0 {
            let s = (trace + 1.0).sqrt() * 2.0;
            Self::new(
                0.25 * s,
                (m[2][1] - m[1][2]) / s,
                (m[0][2] - m[2][0]) / s,
                (m[1][0] - m[0][1]) / s,
            )
        } else if m[0][0] > m[1][1] && m[0][0] > m[2][2] {
            let s = (1.0 + m[0][0] - m[1][1] - m[2][2]).sqrt() * 2.0;
            Self::new(
                (m[2][1] - m[1][2]) / s,
                0.25 * s,
                (m[0][1] + m[1][0]) / s,
                (m[0][2] + m[2][0]) / s,
            )
        } else if m[1][1] > m[2][2] {
            let s = (1.0 + m[1][1] - m[0][0] - m[2][2]).sqrt() * 2.0;
            Self::new(
                (m[0][2] - m[2][0]) / s,
                (m[0][1] + m[1][0]) / s,
                0.25 * s,
                (m[1][2] + m[2][1]) / s,
            )
        } else {
            let s = (1.0 + m[2][2] - m[0][0] - m[1][1]).sqrt() * 2.0;
            Self::new(
                (m[1][0] - m[0][1]) / s,
                (m[0][2] + m[2][0]) / s,
                (m[1][2] + m[2][1]) / s,
                0.25 * s,
            )
        }
    }

    /// Converts to a rotation matrix.
    pub fn to_rotation_matrix(self) -> Mat3 {
        let (w, x, y, z) = (self.w, self.x, self.y, self.z);
        Mat3 {
            m: [
                [
                    1.0 - 2.0 * (y * y + z * z),
                    2.0 * (x * y - w * z),
                    2.0 * (x * z + w * y),
                ],
                [
                    2.0 * (x * y + w * z),
                    1.0 - 2.0 * (x * x + z * z),
                    2.0 * (y * z - w * x),
                ],
                [
                    2.0 * (x * z - w * y),
                    2.0 * (y * z + w * x),
                    1.0 - 2.0 * (x * x + y * y),
                ],
            ],
        }
    }

    /// Rotates a vector.
    pub fn rotate(self, v: Vec3) -> Vec3 {
        // v' = v + 2*q_vec x (q_vec x v + w*v)
        let qv = Vec3::new(self.x, self.y, self.z);
        let t = qv.cross(v) * 2.0;
        v + t * self.w + qv.cross(t)
    }

    /// The inverse (conjugate for unit quaternions) rotation.
    pub fn inverse(self) -> Self {
        Self {
            w: self.w,
            x: -self.x,
            y: -self.y,
            z: -self.z,
        }
    }

    /// Quaternion dot product (cosine of half the angle between rotations).
    pub fn dot(self, rhs: Self) -> f64 {
        self.w * rhs.w + self.x * rhs.x + self.y * rhs.y + self.z * rhs.z
    }

    /// Rotation angle in radians, in `[0, π]`.
    pub fn angle(self) -> f64 {
        2.0 * self.w.clamp(-1.0, 1.0).abs().acos()
    }

    /// Angular distance to another rotation, in radians.
    pub fn angle_to(self, other: Self) -> f64 {
        (self.inverse() * other).angle()
    }

    /// Spherical linear interpolation between two rotations.
    ///
    /// `t = 0` returns `self`, `t = 1` returns `other`. Takes the shortest
    /// path on the rotation manifold (handles the quaternion double cover).
    pub fn slerp(self, other: Self, t: f64) -> Self {
        let mut b = other;
        let mut cos = self.dot(other);
        if cos < 0.0 {
            cos = -cos;
            b = Self {
                w: -other.w,
                x: -other.x,
                y: -other.y,
                z: -other.z,
            };
        }
        if cos > 0.9995 {
            // Nearly parallel: fall back to normalized linear interpolation.
            return Self::new(
                self.w + t * (b.w - self.w),
                self.x + t * (b.x - self.x),
                self.y + t * (b.y - self.y),
                self.z + t * (b.z - self.z),
            );
        }
        let theta = cos.clamp(-1.0, 1.0).acos();
        let sin_theta = theta.sin();
        let wa = ((1.0 - t) * theta).sin() / sin_theta;
        let wb = (t * theta).sin() / sin_theta;
        Self::new(
            wa * self.w + wb * b.w,
            wa * self.x + wb * b.x,
            wa * self.y + wb * b.y,
            wa * self.z + wb * b.z,
        )
    }

    /// Quaternion norm (should be 1 up to floating-point error).
    pub fn norm(self) -> f64 {
        self.dot(self).sqrt()
    }
}

impl Mul for UnitQuaternion {
    type Output = Self;
    fn mul(self, rhs: Self) -> Self {
        Self::new(
            self.w * rhs.w - self.x * rhs.x - self.y * rhs.y - self.z * rhs.z,
            self.w * rhs.x + self.x * rhs.w + self.y * rhs.z - self.z * rhs.y,
            self.w * rhs.y - self.x * rhs.z + self.y * rhs.w + self.z * rhs.x,
            self.w * rhs.z + self.x * rhs.y - self.y * rhs.x + self.z * rhs.w,
        )
    }
}

impl fmt::Display for UnitQuaternion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "q(w={:.6}, x={:.6}, y={:.6}, z={:.6})",
            self.w, self.x, self.y, self.z
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, PI};

    #[test]
    fn identity_rotation_is_noop() {
        let v = Vec3::new(1.0, -2.0, 3.0);
        assert!((UnitQuaternion::identity().rotate(v) - v).norm() < 1e-15);
    }

    #[test]
    fn axis_angle_quarter_turn() {
        let q = UnitQuaternion::from_axis_angle(Vec3::Z, FRAC_PI_2);
        assert!((q.rotate(Vec3::X) - Vec3::Y).norm() < 1e-12);
        assert!((q.rotate(Vec3::Y) - (-Vec3::X)).norm() < 1e-12);
    }

    #[test]
    fn rotation_matrix_round_trip() {
        let q = UnitQuaternion::from_euler(0.3, -0.7, 1.2);
        let r = q.to_rotation_matrix();
        let q2 = UnitQuaternion::from_rotation_matrix(&r);
        // q and -q represent the same rotation.
        let same = q.dot(q2).abs();
        assert!((same - 1.0).abs() < 1e-10);
    }

    #[test]
    fn matrix_is_orthonormal() {
        let r = UnitQuaternion::from_euler(0.1, 0.2, 0.3).to_rotation_matrix();
        let should_be_id = r * r.transpose();
        assert!(should_be_id.max_abs_diff(&Mat3::identity()) < 1e-12);
        assert!((r.determinant() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn inverse_undoes_rotation() {
        let q = UnitQuaternion::from_euler(0.5, 0.2, -0.9);
        let v = Vec3::new(2.0, 0.1, -1.0);
        assert!((q.inverse().rotate(q.rotate(v)) - v).norm() < 1e-12);
    }

    #[test]
    fn composition_matches_sequential_rotation() {
        let a = UnitQuaternion::from_axis_angle(Vec3::X, 0.4);
        let b = UnitQuaternion::from_axis_angle(Vec3::Y, -0.6);
        let v = Vec3::new(1.0, 2.0, 3.0);
        let composed = (a * b).rotate(v);
        let sequential = a.rotate(b.rotate(v));
        assert!((composed - sequential).norm() < 1e-12);
    }

    #[test]
    fn slerp_endpoints_and_midpoint() {
        let a = UnitQuaternion::identity();
        let b = UnitQuaternion::from_axis_angle(Vec3::Z, FRAC_PI_2);
        assert!(a.slerp(b, 0.0).angle_to(a) < 1e-12);
        assert!(a.slerp(b, 1.0).angle_to(b) < 1e-12);
        let mid = a.slerp(b, 0.5);
        assert!((mid.angle_to(a) - FRAC_PI_2 / 2.0).abs() < 1e-9);
    }

    #[test]
    fn angle_of_half_turn() {
        let q = UnitQuaternion::from_axis_angle(Vec3::Y, PI);
        assert!((q.angle() - PI).abs() < 1e-12);
    }

    #[test]
    fn rotation_preserves_norm() {
        let q = UnitQuaternion::from_euler(1.0, -2.0, 0.5);
        let v = Vec3::new(0.3, 0.4, 0.5);
        assert!((q.rotate(v).norm() - v.norm()).abs() < 1e-12);
    }

    #[test]
    fn euler_zero_is_identity() {
        let q = UnitQuaternion::from_euler(0.0, 0.0, 0.0);
        assert!(q.angle() < 1e-12);
    }
}
