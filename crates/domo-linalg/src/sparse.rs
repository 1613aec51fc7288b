//! Compressed sparse row (CSR) matrices.
//!
//! Domo's constraint matrices are extremely sparse — each order or
//! sum-of-delays constraint touches a handful of arrival-time variables —
//! so the ADMM solver stores them in CSR and only ever needs `A x`,
//! `Aᵀ y`, and per-row/column norms.

use crate::dense::Matrix;

/// A sparse matrix in compressed sparse row format.
///
/// # Examples
///
/// ```
/// use domo_linalg::CsrMatrix;
///
/// // [[1, 0], [0, 2]] from (row, col, value) triplets.
/// let m = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (1, 1, 2.0)]);
/// assert_eq!(m.matvec(&[3.0, 4.0]), vec![3.0, 8.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Builds a CSR matrix from `(row, col, value)` triplets.
    ///
    /// Duplicate coordinates are summed; explicit zeros are kept (they
    /// are harmless and rare in this workspace).
    ///
    /// # Panics
    ///
    /// Panics if any triplet is out of bounds.
    pub fn from_triplets(rows: usize, cols: usize, triplets: &[(usize, usize, f64)]) -> Self {
        for &(r, c, _) in triplets {
            assert!(
                r < rows && c < cols,
                "triplet ({r},{c}) out of bounds for {rows}x{cols}"
            );
        }
        let mut sorted = triplets.to_vec();
        sorted.sort_by_key(|&(r, c, _)| (r, c));

        let mut row_ptr = vec![0usize; rows + 1];
        let mut col_idx = Vec::with_capacity(sorted.len());
        let mut values = Vec::with_capacity(sorted.len());
        for &(r, c, v) in &sorted {
            // Merge duplicates within the current row.
            let same_cell = row_ptr[r + 1] > 0
                && col_idx.len() > row_ptr_start(&row_ptr, r)
                && col_idx.last() == Some(&c);
            if same_cell {
                if let Some(last_v) = values.last_mut() {
                    *last_v += v;
                    continue;
                }
            }
            col_idx.push(c);
            values.push(v);
            row_ptr[r + 1] = col_idx.len();
        }
        // Fill gaps for empty rows: make row_ptr monotone.
        for r in 0..rows {
            if row_ptr[r + 1] < row_ptr[r] {
                row_ptr[r + 1] = row_ptr[r];
            }
        }
        Self {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// An empty (all-zero) matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self::from_triplets(rows, cols, &[])
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of explicitly stored entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Iterates over the stored entries of row `r` as `(col, value)`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    pub fn row_entries(&self, r: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        assert!(r < self.rows, "row {r} out of bounds");
        let lo = self.row_ptr[r];
        let hi = self.row_ptr[r + 1];
        self.col_idx[lo..hi]
            .iter()
            .zip(&self.values[lo..hi])
            .map(|(&c, &v)| (c, v))
    }

    /// Sparse matrix–vector product `A x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.rows];
        self.matvec_into(x, &mut out);
        out
    }

    /// [`CsrMatrix::matvec`] into a caller-owned buffer.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()` or `out.len() != self.rows()`.
    pub fn matvec_into(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "dimension mismatch in matvec");
        assert_eq!(out.len(), self.rows, "output length mismatch in matvec");
        for (r, o) in out.iter_mut().enumerate() {
            let (lo, hi) = (self.row_ptr[r], self.row_ptr[r + 1]);
            let mut acc = 0.0;
            for (&c, &v) in self.col_idx[lo..hi].iter().zip(&self.values[lo..hi]) {
                acc += v * x[c];
            }
            *o = acc;
        }
    }

    /// Transposed product `Aᵀ y`.
    ///
    /// # Panics
    ///
    /// Panics if `y.len() != self.rows()`.
    pub fn matvec_t(&self, y: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.cols];
        self.matvec_t_into(y, &mut out);
        out
    }

    /// [`CsrMatrix::matvec_t`] into a caller-owned buffer (overwritten,
    /// not accumulated into).
    ///
    /// # Panics
    ///
    /// Panics if `y.len() != self.rows()` or `out.len() != self.cols()`.
    pub fn matvec_t_into(&self, y: &[f64], out: &mut [f64]) {
        assert_eq!(y.len(), self.rows, "dimension mismatch in matvec_t");
        assert_eq!(out.len(), self.cols, "output length mismatch in matvec_t");
        out.fill(0.0);
        for (r, &yr) in y.iter().enumerate() {
            if yr == 0.0 {
                continue;
            }
            let (lo, hi) = (self.row_ptr[r], self.row_ptr[r + 1]);
            for (&c, &v) in self.col_idx[lo..hi].iter().zip(&self.values[lo..hi]) {
                out[c] += v * yr;
            }
        }
    }

    /// Converts to a dense matrix (test/diagnostic helper).
    pub fn to_dense(&self) -> Matrix {
        let mut m = Matrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            for (c, v) in self.row_entries(r) {
                m[(r, c)] += v;
            }
        }
        m
    }
}

fn row_ptr_start(row_ptr: &[usize], r: usize) -> usize {
    row_ptr[r]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_triplets_builds_expected_layout() {
        let m = CsrMatrix::from_triplets(3, 3, &[(0, 1, 2.0), (2, 0, -1.0), (0, 0, 1.0)]);
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 3);
        let row0: Vec<_> = m.row_entries(0).collect();
        assert_eq!(row0, vec![(0, 1.0), (1, 2.0)]);
        let row1: Vec<_> = m.row_entries(1).collect();
        assert!(row1.is_empty());
        let row2: Vec<_> = m.row_entries(2).collect();
        assert_eq!(row2, vec![(0, -1.0)]);
    }

    #[test]
    fn duplicates_are_summed() {
        let m = CsrMatrix::from_triplets(1, 1, &[(0, 0, 1.0), (0, 0, 2.5)]);
        assert_eq!(m.nnz(), 1);
        assert_eq!(m.matvec(&[2.0]), vec![7.0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn rejects_out_of_bounds_triplet() {
        let _ = CsrMatrix::from_triplets(2, 2, &[(2, 0, 1.0)]);
    }

    #[test]
    fn matvec_matches_dense() {
        let triplets = [
            (0, 0, 1.0),
            (0, 2, 3.0),
            (1, 1, -2.0),
            (2, 0, 0.5),
            (2, 2, 4.0),
        ];
        let m = CsrMatrix::from_triplets(3, 3, &triplets);
        let d = m.to_dense();
        let x = [1.0, 2.0, -1.0];
        assert_eq!(m.matvec(&x), d.matvec(&x));
        let y = [0.5, -1.0, 2.0];
        assert_eq!(m.matvec_t(&y), d.matvec_t(&y));
    }

    #[test]
    fn empty_matrix_behaves() {
        let m = CsrMatrix::zeros(2, 3);
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.matvec(&[1.0, 1.0, 1.0]), vec![0.0, 0.0]);
        assert_eq!(m.matvec_t(&[1.0, 1.0]), vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn rectangular_shapes_are_preserved() {
        let m = CsrMatrix::from_triplets(2, 4, &[(1, 3, 5.0)]);
        assert_eq!(m.matvec(&[0.0, 0.0, 0.0, 1.0]), vec![0.0, 5.0]);
        assert_eq!(m.matvec_t(&[0.0, 2.0]), vec![0.0, 0.0, 0.0, 10.0]);
    }
}
