//! 3×3 and 4×4 matrices (row-major), covering the homography and rigid-motion
//! algebra needed by the EMVS space-sweep geometry.

use crate::vec::{Vec3, Vec4};
use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

/// A 3×3 matrix stored row-major.
///
/// Used for rotation matrices, camera intrinsic matrices and plane-induced
/// homographies.
///
/// # Examples
///
/// ```
/// use eventor_geom::{Mat3, Vec3};
/// let m = Mat3::identity();
/// assert_eq!(m * Vec3::new(1.0, 2.0, 3.0), Vec3::new(1.0, 2.0, 3.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mat3 {
    /// Row-major elements `[row][col]`.
    pub m: [[f64; 3]; 3],
}

/// A 4×4 matrix stored row-major (homogeneous rigid transforms).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mat4 {
    /// Row-major elements `[row][col]`.
    pub m: [[f64; 4]; 4],
}

impl Default for Mat3 {
    fn default() -> Self {
        Self::identity()
    }
}

impl Default for Mat4 {
    fn default() -> Self {
        Self::identity()
    }
}

impl Mat3 {
    /// The zero matrix.
    pub fn zeros() -> Self {
        Self { m: [[0.0; 3]; 3] }
    }

    /// The identity matrix.
    pub fn identity() -> Self {
        let mut m = [[0.0; 3]; 3];
        m[0][0] = 1.0;
        m[1][1] = 1.0;
        m[2][2] = 1.0;
        Self { m }
    }

    /// Builds a matrix from three rows.
    pub fn from_rows(r0: Vec3, r1: Vec3, r2: Vec3) -> Self {
        Self {
            m: [[r0.x, r0.y, r0.z], [r1.x, r1.y, r1.z], [r2.x, r2.y, r2.z]],
        }
    }

    /// Builds a matrix from three columns.
    pub fn from_cols(c0: Vec3, c1: Vec3, c2: Vec3) -> Self {
        Self {
            m: [[c0.x, c1.x, c2.x], [c0.y, c1.y, c2.y], [c0.z, c1.z, c2.z]],
        }
    }

    /// Builds a diagonal matrix.
    pub fn from_diagonal(d: Vec3) -> Self {
        let mut m = [[0.0; 3]; 3];
        m[0][0] = d.x;
        m[1][1] = d.y;
        m[2][2] = d.z;
        Self { m }
    }

    /// Outer product `a * bᵀ`.
    pub fn outer(a: Vec3, b: Vec3) -> Self {
        Self {
            m: [
                [a.x * b.x, a.x * b.y, a.x * b.z],
                [a.y * b.x, a.y * b.y, a.y * b.z],
                [a.z * b.x, a.z * b.y, a.z * b.z],
            ],
        }
    }

    /// Skew-symmetric (cross-product) matrix of `v`: `skew(v) * x == v.cross(x)`.
    pub fn skew(v: Vec3) -> Self {
        Self {
            m: [[0.0, -v.z, v.y], [v.z, 0.0, -v.x], [-v.y, v.x, 0.0]],
        }
    }

    /// Returns row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= 3`.
    pub fn row(&self, i: usize) -> Vec3 {
        Vec3::new(self.m[i][0], self.m[i][1], self.m[i][2])
    }

    /// Returns column `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j >= 3`.
    pub fn col(&self, j: usize) -> Vec3 {
        Vec3::new(self.m[0][j], self.m[1][j], self.m[2][j])
    }

    /// Matrix transpose.
    pub fn transpose(&self) -> Self {
        let mut t = Self::zeros();
        for i in 0..3 {
            for j in 0..3 {
                t.m[j][i] = self.m[i][j];
            }
        }
        t
    }

    /// Determinant.
    pub fn determinant(&self) -> f64 {
        let m = &self.m;
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    }

    /// Trace (sum of diagonal elements).
    pub fn trace(&self) -> f64 {
        self.m[0][0] + self.m[1][1] + self.m[2][2]
    }

    /// Matrix inverse via the adjugate.
    ///
    /// Returns `None` when the determinant magnitude is below `1e-15` (the
    /// matrix is singular or numerically so).
    pub fn inverse(&self) -> Option<Self> {
        let det = self.determinant();
        if det.abs() < 1e-15 {
            return None;
        }
        let m = &self.m;
        let inv_det = 1.0 / det;
        let adj = [
            [
                m[1][1] * m[2][2] - m[1][2] * m[2][1],
                m[0][2] * m[2][1] - m[0][1] * m[2][2],
                m[0][1] * m[1][2] - m[0][2] * m[1][1],
            ],
            [
                m[1][2] * m[2][0] - m[1][0] * m[2][2],
                m[0][0] * m[2][2] - m[0][2] * m[2][0],
                m[0][2] * m[1][0] - m[0][0] * m[1][2],
            ],
            [
                m[1][0] * m[2][1] - m[1][1] * m[2][0],
                m[0][1] * m[2][0] - m[0][0] * m[2][1],
                m[0][0] * m[1][1] - m[0][1] * m[1][0],
            ],
        ];
        let mut out = Self::zeros();
        for (row, adj_row) in out.m.iter_mut().zip(&adj) {
            for (entry, &a) in row.iter_mut().zip(adj_row) {
                *entry = a * inv_det;
            }
        }
        Some(out)
    }

    /// Scales the matrix so that the bottom-right element equals one.
    ///
    /// Homographies are defined up to scale; this canonical form makes
    /// comparisons (and fixed-point quantization of `H`) well-defined.
    ///
    /// Returns `None` when `m[2][2]` is (numerically) zero.
    pub fn normalized_homography(&self) -> Option<Self> {
        let s = self.m[2][2];
        if s.abs() < 1e-15 {
            return None;
        }
        let mut out = *self;
        for i in 0..3 {
            for j in 0..3 {
                out.m[i][j] /= s;
            }
        }
        Some(out)
    }

    /// Maximum absolute element-wise difference to another matrix.
    pub fn max_abs_diff(&self, other: &Self) -> f64 {
        let mut d: f64 = 0.0;
        for i in 0..3 {
            for j in 0..3 {
                d = d.max((self.m[i][j] - other.m[i][j]).abs());
            }
        }
        d
    }

    /// Returns true when every element is finite.
    pub fn is_finite(&self) -> bool {
        self.m.iter().flat_map(|r| r.iter()).all(|v| v.is_finite())
    }
}

impl Mul<Vec3> for Mat3 {
    type Output = Vec3;
    #[inline]
    fn mul(self, v: Vec3) -> Vec3 {
        Vec3::new(self.row(0).dot(v), self.row(1).dot(v), self.row(2).dot(v))
    }
}

impl Mul for Mat3 {
    type Output = Mat3;
    fn mul(self, rhs: Mat3) -> Mat3 {
        let mut out = Mat3::zeros();
        for i in 0..3 {
            for j in 0..3 {
                out.m[i][j] = self.row(i).dot(rhs.col(j));
            }
        }
        out
    }
}

impl Mul<f64> for Mat3 {
    type Output = Mat3;
    fn mul(self, s: f64) -> Mat3 {
        let mut out = self;
        for i in 0..3 {
            for j in 0..3 {
                out.m[i][j] *= s;
            }
        }
        out
    }
}

impl Add for Mat3 {
    type Output = Mat3;
    fn add(self, rhs: Mat3) -> Mat3 {
        let mut out = Mat3::zeros();
        for i in 0..3 {
            for j in 0..3 {
                out.m[i][j] = self.m[i][j] + rhs.m[i][j];
            }
        }
        out
    }
}

impl Sub for Mat3 {
    type Output = Mat3;
    fn sub(self, rhs: Mat3) -> Mat3 {
        let mut out = Mat3::zeros();
        for i in 0..3 {
            for j in 0..3 {
                out.m[i][j] = self.m[i][j] - rhs.m[i][j];
            }
        }
        out
    }
}

impl Index<(usize, usize)> for Mat3 {
    type Output = f64;
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.m[i][j]
    }
}

impl IndexMut<(usize, usize)> for Mat3 {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.m[i][j]
    }
}

impl fmt::Display for Mat3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..3 {
            writeln!(
                f,
                "[{:12.6} {:12.6} {:12.6}]",
                self.m[i][0], self.m[i][1], self.m[i][2]
            )?;
        }
        Ok(())
    }
}

impl Mat4 {
    /// The zero matrix.
    pub fn zeros() -> Self {
        Self { m: [[0.0; 4]; 4] }
    }

    /// The identity matrix.
    pub fn identity() -> Self {
        let mut m = [[0.0; 4]; 4];
        for (i, row) in m.iter_mut().enumerate() {
            row[i] = 1.0;
        }
        Self { m }
    }

    /// Builds a homogeneous rigid transform from a rotation and translation.
    pub fn from_rotation_translation(r: Mat3, t: Vec3) -> Self {
        let mut m = Self::identity();
        for i in 0..3 {
            for j in 0..3 {
                m.m[i][j] = r.m[i][j];
            }
        }
        m.m[0][3] = t.x;
        m.m[1][3] = t.y;
        m.m[2][3] = t.z;
        m
    }

    /// Extracts the upper-left 3×3 rotation block.
    pub fn rotation(&self) -> Mat3 {
        let mut r = Mat3::zeros();
        for i in 0..3 {
            for j in 0..3 {
                r.m[i][j] = self.m[i][j];
            }
        }
        r
    }

    /// Extracts the translation column.
    pub fn translation(&self) -> Vec3 {
        Vec3::new(self.m[0][3], self.m[1][3], self.m[2][3])
    }

    /// Transforms a 3-D point assuming the last row is `[0 0 0 1]`.
    pub fn transform_point(&self, p: Vec3) -> Vec3 {
        self.rotation() * p + self.translation()
    }
}

impl Mul<Vec4> for Mat4 {
    type Output = Vec4;
    fn mul(self, v: Vec4) -> Vec4 {
        let r = |i: usize| Vec4::new(self.m[i][0], self.m[i][1], self.m[i][2], self.m[i][3]).dot(v);
        Vec4::new(r(0), r(1), r(2), r(3))
    }
}

impl Mul for Mat4 {
    type Output = Mat4;
    fn mul(self, rhs: Mat4) -> Mat4 {
        let mut out = Mat4::zeros();
        for i in 0..4 {
            for j in 0..4 {
                out.m[i][j] = (0..4).map(|k| self.m[i][k] * rhs.m[k][j]).sum();
            }
        }
        out
    }
}

impl fmt::Display for Mat4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..4 {
            writeln!(
                f,
                "[{:12.6} {:12.6} {:12.6} {:12.6}]",
                self.m[i][0], self.m[i][1], self.m[i][2], self.m[i][3]
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-10
    }

    #[test]
    fn identity_is_multiplicative_neutral() {
        let a = Mat3::from_rows(
            Vec3::new(1.0, 2.0, 3.0),
            Vec3::new(0.0, -1.0, 4.0),
            Vec3::new(2.0, 2.0, 1.0),
        );
        assert_eq!(Mat3::identity() * a, a);
        assert_eq!(a * Mat3::identity(), a);
    }

    #[test]
    fn inverse_times_original_is_identity() {
        let a = Mat3::from_rows(
            Vec3::new(2.0, 1.0, 0.5),
            Vec3::new(-1.0, 3.0, 2.0),
            Vec3::new(0.0, 1.0, 1.5),
        );
        let inv = a.inverse().unwrap();
        let prod = a * inv;
        let id = Mat3::identity();
        assert!(prod.max_abs_diff(&id) < 1e-10, "{prod}");
    }

    #[test]
    fn singular_matrix_has_no_inverse() {
        let a = Mat3::from_rows(
            Vec3::new(1.0, 2.0, 3.0),
            Vec3::new(2.0, 4.0, 6.0),
            Vec3::new(0.0, 1.0, 1.0),
        );
        assert!(a.inverse().is_none());
    }

    #[test]
    fn determinant_of_diagonal() {
        let d = Mat3::from_diagonal(Vec3::new(2.0, 3.0, 4.0));
        assert!(approx(d.determinant(), 24.0));
        assert!(approx(d.trace(), 9.0));
    }

    #[test]
    fn skew_matches_cross_product() {
        let v = Vec3::new(0.3, -1.2, 2.0);
        let x = Vec3::new(1.0, 0.5, -0.7);
        let via_mat = Mat3::skew(v) * x;
        let via_cross = v.cross(x);
        assert!((via_mat - via_cross).norm() < 1e-12);
    }

    #[test]
    fn outer_product_rank_one() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(4.0, 5.0, 6.0);
        let o = Mat3::outer(a, b);
        assert!(approx(o.determinant(), 0.0));
        assert!(approx(o.m[1][2], 12.0));
    }

    #[test]
    fn transpose_involution() {
        let a = Mat3::from_rows(
            Vec3::new(1.0, 2.0, 3.0),
            Vec3::new(4.0, 5.0, 6.0),
            Vec3::new(7.0, 8.0, 10.0),
        );
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn homography_normalization() {
        let h = Mat3::from_rows(
            Vec3::new(2.0, 0.0, 4.0),
            Vec3::new(0.0, 2.0, 6.0),
            Vec3::new(0.0, 0.0, 2.0),
        );
        let n = h.normalized_homography().unwrap();
        assert!(approx(n.m[2][2], 1.0));
        assert!(approx(n.m[0][0], 1.0));
        assert!(approx(n.m[0][2], 2.0));
    }

    #[test]
    fn mat4_rigid_transform_round_trip() {
        let r = Mat3::identity();
        let t = Vec3::new(1.0, -2.0, 3.0);
        let m = Mat4::from_rotation_translation(r, t);
        assert_eq!(m.rotation(), r);
        assert_eq!(m.translation(), t);
        assert_eq!(m.transform_point(Vec3::ZERO), t);
    }

    #[test]
    fn mat4_composition_matches_sequential_application() {
        let a = Mat4::from_rotation_translation(Mat3::identity(), Vec3::new(1.0, 0.0, 0.0));
        let b = Mat4::from_rotation_translation(Mat3::identity(), Vec3::new(0.0, 2.0, 0.0));
        let c = a * b;
        let p = Vec3::new(0.5, 0.5, 0.5);
        let via_c = c.transform_point(p);
        let via_seq = a.transform_point(b.transform_point(p));
        assert!((via_c - via_seq).norm() < 1e-12);
    }

    #[test]
    fn rows_and_cols() {
        let a = Mat3::from_cols(
            Vec3::new(1.0, 2.0, 3.0),
            Vec3::new(4.0, 5.0, 6.0),
            Vec3::new(7.0, 8.0, 9.0),
        );
        assert_eq!(a.col(0), Vec3::new(1.0, 2.0, 3.0));
        assert_eq!(a.row(0), Vec3::new(1.0, 4.0, 7.0));
        assert_eq!(a[(2, 1)], 6.0);
    }
}
