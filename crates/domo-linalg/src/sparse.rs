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
    /// Duplicate coordinates are summed in input order; explicit zeros
    /// are kept (they are harmless and rare in this workspace).
    ///
    /// The entries are placed by a stable counting sort, by column and
    /// then by row, so the build is O(triplets + rows + cols) with no
    /// comparison sort.
    ///
    /// # Panics
    ///
    /// Panics if any triplet is out of bounds.
    pub fn from_triplets(rows: usize, cols: usize, triplets: &[(usize, usize, f64)]) -> Self {
        let mut col_start = vec![0usize; cols + 1];
        let mut row_start = vec![0usize; rows + 1];
        for &(r, c, _) in triplets {
            assert!(
                r < rows && c < cols,
                "triplet ({r},{c}) out of bounds for {rows}x{cols}"
            );
            col_start[c + 1] += 1;
            row_start[r + 1] += 1;
        }
        for c in 0..cols {
            col_start[c + 1] += col_start[c];
        }
        for r in 0..rows {
            row_start[r + 1] += row_start[r];
        }

        // Pass 1: triplet indices bucketed by column, input order kept.
        let mut by_col = vec![0usize; triplets.len()];
        for (k, &(_, c, _)) in triplets.iter().enumerate() {
            by_col[col_start[c]] = k;
            col_start[c] += 1;
        }
        // Pass 2: rebucket by row. Within a row the columns now ascend,
        // and duplicates of one cell keep their input order.
        let mut next = row_start.clone();
        let mut col_idx = vec![0usize; triplets.len()];
        let mut values = vec![0.0; triplets.len()];
        for &k in &by_col {
            let (r, c, v) = triplets[k];
            col_idx[next[r]] = c;
            values[next[r]] = v;
            next[r] += 1;
        }

        // Sum runs of one cell, compacting in place.
        let mut row_ptr = vec![0usize; rows + 1];
        let mut nz = 0;
        for r in 0..rows {
            let row_begin = nz;
            for p in row_start[r]..row_start[r + 1] {
                if nz > row_begin && col_idx[nz - 1] == col_idx[p] {
                    values[nz - 1] += values[p];
                } else {
                    col_idx[nz] = col_idx[p];
                    values[nz] = values[p];
                    nz += 1;
                }
            }
            row_ptr[r + 1] = nz;
        }
        col_idx.truncate(nz);
        values.truncate(nz);
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

    /// The comparison-sort build the counting sort replaced: a stable
    /// sort by `(row, col)`, then one pass summing each cell's run.
    fn reference_from_triplets(
        rows: usize,
        cols: usize,
        triplets: &[(usize, usize, f64)],
    ) -> CsrMatrix {
        let mut sorted = triplets.to_vec();
        sorted.sort_by_key(|&(r, c, _)| (r, c));
        let mut row_ptr = vec![0usize; rows + 1];
        let mut col_idx: Vec<usize> = Vec::new();
        let mut values: Vec<f64> = Vec::new();
        let mut last: Option<(usize, usize)> = None;
        for &(r, c, v) in &sorted {
            if last == Some((r, c)) {
                *values.last_mut().unwrap() += v;
            } else {
                col_idx.push(c);
                values.push(v);
                last = Some((r, c));
            }
            row_ptr[r + 1] = col_idx.len();
        }
        for r in 0..rows {
            row_ptr[r + 1] = row_ptr[r + 1].max(row_ptr[r]);
        }
        CsrMatrix {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    #[test]
    fn counting_sort_build_matches_a_stable_comparison_sort_bit_for_bit() {
        let mut rng = domo_util::rng::Xoshiro256pp::seed_from_u64(0xc5a);
        for case in 0..400 {
            // Every few cases one dimension is zero (0×n, n×0, 0×0).
            let rows = if case % 7 == 0 {
                0
            } else {
                rng.range_usize(1..30)
            };
            let cols = if case % 11 == 0 {
                0
            } else {
                rng.range_usize(1..30)
            };
            let mut triplets = Vec::new();
            if rows > 0 && cols > 0 {
                // Few distinct cells hit many times: duplicates, empty
                // rows, and values whose sum depends on its order.
                let cells: Vec<(usize, usize)> = (0..1 + rng.range_usize(0..12))
                    .map(|_| (rng.range_usize(0..rows), rng.range_usize(0..cols)))
                    .collect();
                for _ in 0..rng.range_usize(0..60) {
                    let (r, c) = if rng.bernoulli(0.7) {
                        cells[rng.range_usize(0..cells.len())]
                    } else {
                        (rng.range_usize(0..rows), rng.range_usize(0..cols))
                    };
                    let magnitude = 10f64.powi(rng.range_usize(0..24) as i32 - 8);
                    let v = match rng.range_usize(0..8) {
                        0 => 0.0,
                        1 => -0.0,
                        _ => rng.range_f64(-1.0..1.0) * magnitude,
                    };
                    triplets.push((r, c, v));
                }
            }
            let got = CsrMatrix::from_triplets(rows, cols, &triplets);
            let want = reference_from_triplets(rows, cols, &triplets);
            assert_eq!(
                (got.rows, got.cols, &got.row_ptr, &got.col_idx),
                (want.rows, want.cols, &want.row_ptr, &want.col_idx),
                "layout, case {case}"
            );
            let bits = |m: &CsrMatrix| m.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "values, case {case}");
        }
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
