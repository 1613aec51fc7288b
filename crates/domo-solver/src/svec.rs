//! Symmetric vectorization (`svec`) utilities.
//!
//! The SDP machinery stores a symmetric `s × s` matrix as a length
//! `s(s+1)/2` vector with off-diagonal entries scaled by `√2`. This
//! scaling makes the Euclidean inner product of two svec vectors equal
//! the Frobenius inner product of the matrices, so projecting onto the
//! PSD cone in svec coordinates (via [`project_psd_svec`]) is an *exact*
//! Euclidean projection — the property ADMM's convergence proof needs.
//!
//! Ordering convention: entry `(i, j)` with `i ≤ j` lives at index
//! `j(j+1)/2 + i` (packed upper triangle, column by column).

use domo_linalg::{project_psd, Matrix};

/// `√2`, the off-diagonal svec scaling factor.
pub const SQRT2: f64 = std::f64::consts::SQRT_2;

/// Length of the svec of an `s × s` symmetric matrix.
///
/// # Examples
///
/// ```
/// assert_eq!(domo_solver::svec::svec_len(4), 10);
/// ```
pub const fn svec_len(s: usize) -> usize {
    s * (s + 1) / 2
}

/// Index of entry `(i, j)` (unordered) in the packed upper triangle.
///
/// # Examples
///
/// ```
/// use domo_solver::svec::svec_index;
/// assert_eq!(svec_index(0, 0), 0);
/// assert_eq!(svec_index(0, 1), 1);
/// assert_eq!(svec_index(1, 1), 2);
/// assert_eq!(svec_index(2, 1), svec_index(1, 2));
/// ```
pub const fn svec_index(i: usize, j: usize) -> usize {
    let (lo, hi) = if i <= j { (i, j) } else { (j, i) };
    hi * (hi + 1) / 2 + lo
}

/// Packs a symmetric matrix into scaled svec form.
///
/// # Panics
///
/// Panics if `m` is not square.
pub fn svec(m: &Matrix) -> Vec<f64> {
    assert!(m.is_square(), "svec requires a square matrix");
    let mut out = vec![0.0; svec_len(m.rows())];
    svec_into(m, &mut out);
    out
}

fn svec_into(m: &Matrix, out: &mut [f64]) {
    for j in 0..m.rows() {
        for i in 0..=j {
            let v = m[(i, j)];
            out[svec_index(i, j)] = if i == j { v } else { SQRT2 * v };
        }
    }
}

/// Unpacks a scaled svec vector into the symmetric matrix it encodes.
///
/// # Panics
///
/// Panics if `v.len()` is not a valid svec length.
pub fn smat(v: &[f64]) -> Matrix {
    let s = dim_from_len(v.len());
    let mut m = Matrix::zeros(s, s);
    for j in 0..s {
        for i in 0..=j {
            let raw = v[svec_index(i, j)];
            let val = if i == j { raw } else { raw / SQRT2 };
            m[(i, j)] = val;
            m[(j, i)] = val;
        }
    }
    m
}

/// Recovers the matrix dimension from an svec length.
///
/// # Panics
///
/// Panics if `len` is not of the form `s(s+1)/2`.
pub fn dim_from_len(len: usize) -> usize {
    // Solve s(s+1)/2 = len.
    let s = ((((8 * len + 1) as f64).sqrt() - 1.0) / 2.0).round() as usize;
    assert_eq!(svec_len(s), len, "length {len} is not a triangular number");
    s
}

/// Projects a scaled svec vector onto the PSD cone and returns the
/// projected vector.
///
/// # Panics
///
/// Panics if `v.len()` is not a valid svec length.
pub fn project_psd_svec(v: &[f64]) -> Vec<f64> {
    let mut out = v.to_vec();
    project_psd_svec_in_place(&mut out);
    out
}

/// [`project_psd_svec`], overwriting `v` with its projection.
///
/// # Panics
///
/// Panics if `v.len()` is not a valid svec length.
pub fn project_psd_svec_in_place(v: &mut [f64]) {
    svec_into(&project_psd(&smat(v)), v);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_layout_is_packed_upper_triangle() {
        // 3×3: (0,0)→0, (0,1)→1, (1,1)→2, (0,2)→3, (1,2)→4, (2,2)→5.
        assert_eq!(svec_index(0, 0), 0);
        assert_eq!(svec_index(0, 1), 1);
        assert_eq!(svec_index(1, 1), 2);
        assert_eq!(svec_index(0, 2), 3);
        assert_eq!(svec_index(1, 2), 4);
        assert_eq!(svec_index(2, 2), 5);
        // Symmetric in the arguments.
        assert_eq!(svec_index(2, 0), 3);
    }

    #[test]
    fn svec_smat_round_trip() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[2.0, 4.0, 5.0], &[3.0, 5.0, 6.0]]);
        let v = svec(&m);
        assert_eq!(v.len(), 6);
        let back = smat(&v);
        assert!((&back - &m).frobenius_norm() < 1e-14);
    }

    #[test]
    fn svec_preserves_inner_products() {
        let a = Matrix::from_rows(&[&[1.0, -1.0], &[-1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[0.5, 3.0], &[3.0, -1.0]]);
        let frob: f64 = (0..2)
            .flat_map(|i| (0..2).map(move |j| (i, j)))
            .map(|(i, j)| a[(i, j)] * b[(i, j)])
            .sum();
        let dot = domo_linalg::dot(&svec(&a), &svec(&b));
        assert!((frob - dot).abs() < 1e-12);
    }

    #[test]
    fn dim_from_len_accepts_triangular_numbers() {
        assert_eq!(dim_from_len(1), 1);
        assert_eq!(dim_from_len(3), 2);
        assert_eq!(dim_from_len(6), 3);
        assert_eq!(dim_from_len(10), 4);
        assert_eq!(dim_from_len(0), 0);
    }

    #[test]
    #[should_panic(expected = "triangular")]
    fn dim_from_len_rejects_non_triangular() {
        let _ = dim_from_len(7);
    }

    #[test]
    fn projection_in_svec_matches_matrix_projection() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]); // λ = 3, −1
        let projected = smat(&project_psd_svec(&svec(&m)));
        let direct = project_psd(&m);
        assert!((&projected - &direct).frobenius_norm() < 1e-12);
    }

    #[test]
    fn projection_is_euclidean_in_svec_coordinates() {
        // For any v, ‖v − Π(v)‖ ≤ ‖v − w‖ for a few PSD witnesses w.
        let m = Matrix::from_rows(&[&[0.0, 3.0], &[3.0, -1.0]]);
        let v = svec(&m);
        let p = project_psd_svec(&v);
        let dist_p = domo_linalg::norm2(&domo_linalg::sub_vec(&v, &p));
        for witness in [Matrix::identity(2), Matrix::zeros(2, 2)] {
            let w = svec(&witness);
            let dist_w = domo_linalg::norm2(&domo_linalg::sub_vec(&v, &w));
            assert!(dist_p <= dist_w + 1e-12);
        }
    }
}
