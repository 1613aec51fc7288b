//! Dense Cholesky and LDLᵀ factorizations for symmetric positive
//! definite and quasi-definite systems.
//!
//! The solver factors its KKT matrices with the sparse kernel in
//! [`crate::ldl`]; these dense versions are the plain `O(n³)` textbook
//! algorithms it is tested against, and what small dense callers use.

use crate::dense::Matrix;

/// Error returned when a factorization cannot proceed.
#[derive(Debug, Clone, PartialEq)]
pub enum FactorError {
    /// The input matrix is not square.
    NotSquare {
        /// Row count of the offending matrix.
        rows: usize,
        /// Column count of the offending matrix.
        cols: usize,
    },
    /// A pivot was not strictly positive (Cholesky) or vanished (LDLᵀ).
    BadPivot {
        /// Index of the failing pivot.
        index: usize,
        /// Value of the failing pivot.
        value: f64,
    },
}

impl std::fmt::Display for FactorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FactorError::NotSquare { rows, cols } => {
                write!(
                    f,
                    "matrix is {rows}x{cols}, factorization requires square input"
                )
            }
            FactorError::BadPivot { index, value } => {
                write!(f, "pivot {index} has invalid value {value}")
            }
        }
    }
}

impl std::error::Error for FactorError {}

/// Cholesky factorization `A = L Lᵀ` of a symmetric positive-definite
/// matrix.
///
/// # Examples
///
/// ```
/// use domo_linalg::{Matrix, Cholesky};
///
/// let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]);
/// let chol = Cholesky::factor(&a)?;
/// let x = chol.solve(&[8.0, 7.0]);
/// // Verify A x = b.
/// let b = a.matvec(&x);
/// assert!((b[0] - 8.0).abs() < 1e-12 && (b[1] - 7.0).abs() < 1e-12);
/// # Ok::<(), domo_linalg::FactorError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Cholesky {
    /// Lower-triangular factor, stored densely.
    l: Matrix,
}

impl Cholesky {
    /// Factors a symmetric positive-definite matrix.
    ///
    /// Only the lower triangle of `a` is read; the caller is responsible
    /// for `a` being (numerically) symmetric.
    ///
    /// # Errors
    ///
    /// Returns [`FactorError::NotSquare`] for non-square input and
    /// [`FactorError::BadPivot`] when a pivot is not strictly positive
    /// (the matrix is not positive definite).
    pub fn factor(a: &Matrix) -> Result<Self, FactorError> {
        if !a.is_square() {
            return Err(FactorError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        let n = a.rows();
        let mut l = Matrix::zeros(n, n);
        for j in 0..n {
            let mut diag = a[(j, j)];
            for k in 0..j {
                diag -= l[(j, k)] * l[(j, k)];
            }
            if diag <= 0.0 || !diag.is_finite() {
                return Err(FactorError::BadPivot {
                    index: j,
                    value: diag,
                });
            }
            let ljj = diag.sqrt();
            l[(j, j)] = ljj;
            for i in (j + 1)..n {
                let mut v = a[(i, j)];
                for k in 0..j {
                    v -= l[(i, k)] * l[(j, k)];
                }
                l[(i, j)] = v / ljj;
            }
        }
        Ok(Self { l })
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.l.rows()
    }

    /// Solves `A x = b` via forward/backward substitution.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != self.dim()`.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let n = self.dim();
        assert_eq!(b.len(), n, "right-hand side has wrong length");
        // Forward: L y = b.
        let mut y = b.to_vec();
        for i in 0..n {
            for k in 0..i {
                y[i] -= self.l[(i, k)] * y[k];
            }
            y[i] /= self.l[(i, i)];
        }
        // Backward: Lᵀ x = y.
        for i in (0..n).rev() {
            for k in (i + 1)..n {
                y[i] -= self.l[(k, i)] * y[k];
            }
            y[i] /= self.l[(i, i)];
        }
        y
    }

    /// Borrows the lower-triangular factor.
    pub fn l(&self) -> &Matrix {
        &self.l
    }
}

/// LDLᵀ factorization `A = L D Lᵀ` (unit lower-triangular `L`, diagonal
/// `D`) of a symmetric quasi-definite matrix.
///
/// Unlike [`Cholesky`], this handles the indefinite KKT matrices that
/// arise in ADMM (positive block from the objective, negative block from
/// the constraint regularization) as long as no pivot vanishes.
///
/// # Examples
///
/// ```
/// use domo_linalg::{Matrix, Ldlt};
///
/// // A quasi-definite KKT-style matrix with a negative second pivot.
/// let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, -3.0]]);
/// let f = Ldlt::factor(&a)?;
/// let x = f.solve(&[1.0, 0.0]);
/// let b = a.matvec(&x);
/// assert!((b[0] - 1.0).abs() < 1e-12 && b[1].abs() < 1e-12);
/// # Ok::<(), domo_linalg::FactorError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Ldlt {
    l: Matrix,
    d: Vec<f64>,
}

impl Ldlt {
    /// Minimum absolute pivot magnitude before the factorization is
    /// declared singular (shared with the sparse kernel).
    pub(crate) const PIVOT_EPS: f64 = 1e-13;

    /// Factors a symmetric (quasi-definite) matrix.
    ///
    /// Only the lower triangle of `a` is read.
    ///
    /// # Errors
    ///
    /// Returns [`FactorError::NotSquare`] for non-square input and
    /// [`FactorError::BadPivot`] when a pivot's magnitude falls below
    /// `1e-13` (numerically singular).
    pub fn factor(a: &Matrix) -> Result<Self, FactorError> {
        if !a.is_square() {
            return Err(FactorError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        let n = a.rows();
        let mut l = Matrix::identity(n);
        let mut d = vec![0.0; n];
        for j in 0..n {
            let mut dj = a[(j, j)];
            for k in 0..j {
                dj -= l[(j, k)] * l[(j, k)] * d[k];
            }
            if dj.abs() < Self::PIVOT_EPS || !dj.is_finite() {
                return Err(FactorError::BadPivot {
                    index: j,
                    value: dj,
                });
            }
            d[j] = dj;
            for i in (j + 1)..n {
                let mut v = a[(i, j)];
                for k in 0..j {
                    v -= l[(i, k)] * l[(j, k)] * d[k];
                }
                l[(i, j)] = v / dj;
            }
        }
        Ok(Self { l, d })
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.d.len()
    }

    /// Solves `A x = b`.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != self.dim()`.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let n = self.dim();
        assert_eq!(b.len(), n, "right-hand side has wrong length");
        let mut y = b.to_vec();
        // L y = b (unit diagonal).
        for i in 0..n {
            for k in 0..i {
                y[i] -= self.l[(i, k)] * y[k];
            }
        }
        // D z = y.
        for (yi, &di) in y.iter_mut().zip(&self.d) {
            *yi /= di;
        }
        // Lᵀ x = z.
        for i in (0..n).rev() {
            for k in (i + 1)..n {
                y[i] -= self.l[(k, i)] * y[k];
            }
        }
        y
    }

    /// Borrows the diagonal of `D`.
    pub fn d(&self) -> &[f64] {
        &self.d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd_3x3() -> Matrix {
        Matrix::from_rows(&[&[4.0, 1.0, 0.5], &[1.0, 3.0, 0.2], &[0.5, 0.2, 2.0]])
    }

    #[test]
    fn cholesky_reconstructs_matrix() {
        let a = spd_3x3();
        let c = Cholesky::factor(&a).unwrap();
        let recon = c.l() * &c.l().transpose();
        assert!((&recon - &a).frobenius_norm() < 1e-12);
    }

    #[test]
    fn cholesky_solve_matches_direct_check() {
        let a = spd_3x3();
        let c = Cholesky::factor(&a).unwrap();
        let b = [1.0, -2.0, 0.5];
        let x = c.solve(&b);
        let r = a.matvec(&x);
        for (ri, bi) in r.iter().zip(&b) {
            assert!((ri - bi).abs() < 1e-12);
        }
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]); // eigenvalues 3, -1
        match Cholesky::factor(&a) {
            Err(FactorError::BadPivot { index, .. }) => assert_eq!(index, 1),
            other => panic!("expected BadPivot, got {other:?}"),
        }
    }

    #[test]
    fn cholesky_rejects_non_square() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            Cholesky::factor(&a),
            Err(FactorError::NotSquare { rows: 2, cols: 3 })
        ));
    }

    #[test]
    fn ldlt_handles_quasi_definite() {
        // KKT-style: [[P, Aᵀ], [A, -I]] with P = 2, A = 1.
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, -1.0]]);
        let f = Ldlt::factor(&a).unwrap();
        assert!(f.d()[0] > 0.0);
        assert!(f.d()[1] < 0.0);
        let b = [3.0, 0.0];
        let x = f.solve(&b);
        let r = a.matvec(&x);
        for (ri, bi) in r.iter().zip(&b) {
            assert!((ri - bi).abs() < 1e-12);
        }
    }

    #[test]
    fn ldlt_agrees_with_cholesky_on_spd() {
        let a = spd_3x3();
        let b = [0.3, 0.7, -1.1];
        let x1 = Cholesky::factor(&a).unwrap().solve(&b);
        let x2 = Ldlt::factor(&a).unwrap().solve(&b);
        for (u, v) in x1.iter().zip(&x2) {
            assert!((u - v).abs() < 1e-12);
        }
    }

    #[test]
    fn ldlt_rejects_singular() {
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]);
        assert!(matches!(
            Ldlt::factor(&a),
            Err(FactorError::BadPivot { .. })
        ));
    }

    #[test]
    fn errors_format_usefully() {
        let e = FactorError::NotSquare { rows: 2, cols: 3 };
        assert!(e.to_string().contains("2x3"));
        let e = FactorError::BadPivot {
            index: 4,
            value: -0.5,
        };
        assert!(e.to_string().contains("pivot 4"));
    }

    #[test]
    fn solve_identity_returns_rhs() {
        let c = Cholesky::factor(&Matrix::identity(4)).unwrap();
        let b = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(c.solve(&b), b.to_vec());
        assert_eq!(c.dim(), 4);
    }
}
