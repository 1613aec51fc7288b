//! Sparse LDLᵀ factorization with a fill-reducing ordering.
//!
//! The KKT matrices the ADMM solver factors (`P + σI + ρ MᵀM` for the
//! x-update, the quasi-definite `[[P + δI, Aᵀ], [A, −δI]]` for the
//! polish) are a few percent dense: each constraint row couples a
//! handful of unknowns. This module factors them without ever forming
//! an `n × n` array, in the classical two steps:
//!
//! * **Symbolic** ([`LdlSymbolic::analyze`]) depends on the sparsity
//!   pattern only: a minimum-degree ordering, the permuted upper
//!   triangle, its elimination tree and the column counts of `L`. It is
//!   computed once and reused for every matrix with that pattern (every
//!   ρ re-factor of one ADMM solve).
//! * **Numeric** ([`LdlSymbolic::factor`]) is the up-looking LDLᵀ of
//!   Davis's `LDL` package: row `k` of `L` is a sparse triangular solve
//!   whose pattern is read off the elimination tree.
//!
//! No pivoting is done. That is safe for the two classes the solver
//! produces: every symmetric permutation of a positive-definite or of a
//! quasi-definite matrix has an LDLᵀ factorization (Vanderbei 1995).
//! [`Pivots`] selects which of the two the caller promises; a pivot that
//! breaks the promise is reported as [`FactorError::BadPivot`].

use crate::factor::{FactorError, Ldlt};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Marks "no parent" in the elimination tree and "never seen" in the
/// marker arrays.
const NONE: usize = usize::MAX;

/// A symmetric sparse matrix, stored as its upper triangle in
/// compressed-column form.
///
/// # Examples
///
/// ```
/// use domo_linalg::SymSparse;
///
/// // [[4, 1], [1, 3]]: the off-diagonal element is given once.
/// let a = SymSparse::from_triplets(2, &[(0, 0, 4.0), (1, 0, 1.0), (1, 1, 3.0)]);
/// assert_eq!(a.nnz(), 3);
/// assert_eq!(a.matvec(&[1.0, 1.0]), vec![5.0, 4.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SymSparse {
    n: usize,
    col_ptr: Vec<usize>,
    row_idx: Vec<usize>,
    values: Vec<f64>,
}

impl SymSparse {
    /// Builds the matrix from `(i, j, value)` triplets. `(i, j)` and
    /// `(j, i)` name the same element; contributions to one element are
    /// summed in the order given. Explicit zeros are kept, so a caller
    /// can pin a pattern that does not depend on the values.
    ///
    /// # Panics
    ///
    /// Panics if an index is `≥ n`.
    pub fn from_triplets(n: usize, triplets: &[(usize, usize, f64)]) -> Self {
        // Bucket by column (counting sort, stable), then sum duplicates
        // column by column with a "where did row i land" marker.
        let mut col_ptr = vec![0usize; n + 1];
        for &(i, j, _) in triplets {
            assert!(
                i < n && j < n,
                "triplet ({i},{j}) out of bounds for {n}x{n}"
            );
            col_ptr[i.max(j) + 1] += 1;
        }
        for j in 0..n {
            col_ptr[j + 1] += col_ptr[j];
        }
        let mut next = col_ptr.clone();
        let mut rows = vec![0usize; triplets.len()];
        let mut vals = vec![0.0; triplets.len()];
        for &(i, j, v) in triplets {
            let slot = &mut next[i.max(j)];
            rows[*slot] = i.min(j);
            vals[*slot] = v;
            *slot += 1;
        }
        let mut landed = vec![NONE; n];
        let mut out_ptr = vec![0usize; n + 1];
        let mut nz = 0;
        for j in 0..n {
            let col_start = nz;
            for p in col_ptr[j]..col_ptr[j + 1] {
                let i = rows[p];
                if landed[i] != NONE && landed[i] >= col_start {
                    vals[landed[i]] += vals[p];
                } else {
                    landed[i] = nz;
                    rows[nz] = i;
                    vals[nz] = vals[p];
                    nz += 1;
                }
            }
            out_ptr[j + 1] = nz;
        }
        rows.truncate(nz);
        vals.truncate(nz);
        Self {
            n,
            col_ptr: out_ptr,
            row_idx: rows,
            values: vals,
        }
    }

    /// Dimension of the matrix.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Stored entries (upper triangle, diagonal included).
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Symmetric matrix–vector product `A x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.dim()`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.n, "dimension mismatch in matvec");
        let mut out = vec![0.0; self.n];
        for j in 0..self.n {
            for p in self.col_ptr[j]..self.col_ptr[j + 1] {
                let (i, v) = (self.row_idx[p], self.values[p]);
                out[i] += v * x[j];
                if i != j {
                    out[j] += v * x[i];
                }
            }
        }
        out
    }
}

/// What the caller promises about the matrix, and therefore which
/// pivots are errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pivots {
    /// Positive definite: every pivot must be finite and `> 0`.
    Positive,
    /// Quasi-definite: pivots may have either sign but must be finite
    /// with magnitude at least `1e-13`.
    NonZero,
}

impl Pivots {
    fn accepts(self, d: f64) -> bool {
        d.is_finite()
            && match self {
                Pivots::Positive => d > 0.0,
                Pivots::NonZero => d.abs() >= Ldlt::PIVOT_EPS,
            }
    }
}

/// The value-independent half of a sparse LDLᵀ: ordering, permuted
/// pattern, elimination tree and the column pointers of `L`.
///
/// # Examples
///
/// ```
/// use domo_linalg::{LdlSymbolic, Pivots, SymSparse};
///
/// let a = SymSparse::from_triplets(2, &[(0, 0, 4.0), (0, 1, 2.0), (1, 1, 3.0)]);
/// let symbolic = LdlSymbolic::analyze(&a);
/// let factor = symbolic.factor(&a, Pivots::Positive)?;
/// let mut x = [8.0, 7.0];
/// factor.solve_in_place(&mut x, &mut [0.0; 2]);
/// let b = a.matvec(&x);
/// assert!((b[0] - 8.0).abs() < 1e-12 && (b[1] - 7.0).abs() < 1e-12);
/// # Ok::<(), domo_linalg::FactorError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LdlSymbolic {
    n: usize,
    /// Pattern of the analyzed matrix; `factor` insists on the same one.
    a_col_ptr: Vec<usize>,
    a_row_idx: Vec<usize>,
    /// `perm[k]` is the original index eliminated `k`-th.
    perm: Vec<usize>,
    /// Upper triangle of the permuted matrix `C = Π A Πᵀ` (pattern), and
    /// for each stored entry of `A` the slot of `C` it lands in.
    c_col_ptr: Vec<usize>,
    c_row_idx: Vec<usize>,
    a_to_c: Vec<usize>,
    /// Elimination tree of `C` (`NONE` for roots).
    parent: Vec<usize>,
    /// Column pointers of `L` (strictly lower part, unit diagonal
    /// implicit).
    l_col_ptr: Vec<usize>,
}

impl LdlSymbolic {
    /// Orders and analyzes the pattern of `a`.
    pub fn analyze(a: &SymSparse) -> Self {
        let n = a.n;
        let perm = minimum_degree_order(a);
        let mut inverse = vec![0usize; n];
        for (k, &old) in perm.iter().enumerate() {
            inverse[old] = k;
        }

        // C = upper(Π A Πᵀ), column-bucketed.
        let mut c_col_ptr = vec![0usize; n + 1];
        for j in 0..n {
            for p in a.col_ptr[j]..a.col_ptr[j + 1] {
                c_col_ptr[inverse[a.row_idx[p]].max(inverse[j]) + 1] += 1;
            }
        }
        for j in 0..n {
            c_col_ptr[j + 1] += c_col_ptr[j];
        }
        let mut next = c_col_ptr.clone();
        let mut c_row_idx = vec![0usize; a.nnz()];
        let mut a_to_c = vec![0usize; a.nnz()];
        for j in 0..n {
            for p in a.col_ptr[j]..a.col_ptr[j + 1] {
                let (ci, cj) = (inverse[a.row_idx[p]], inverse[j]);
                let slot = &mut next[ci.max(cj)];
                c_row_idx[*slot] = ci.min(cj);
                a_to_c[p] = *slot;
                *slot += 1;
            }
        }

        // Elimination tree and column counts: row k of L is the set of
        // nodes on the tree paths from the entries of C's column k up
        // to k.
        let mut parent = vec![NONE; n];
        let mut seen = vec![NONE; n];
        let mut l_count = vec![0usize; n];
        for k in 0..n {
            seen[k] = k;
            for &row in &c_row_idx[c_col_ptr[k]..c_col_ptr[k + 1]] {
                let mut i = row;
                while seen[i] != k {
                    if parent[i] == NONE {
                        parent[i] = k;
                    }
                    l_count[i] += 1;
                    seen[i] = k;
                    i = parent[i];
                }
            }
        }
        let mut l_col_ptr = vec![0usize; n + 1];
        for k in 0..n {
            l_col_ptr[k + 1] = l_col_ptr[k] + l_count[k];
        }

        Self {
            n,
            a_col_ptr: a.col_ptr.clone(),
            a_row_idx: a.row_idx.clone(),
            perm,
            c_col_ptr,
            c_row_idx,
            a_to_c,
            parent,
            l_col_ptr,
        }
    }

    /// Entries of `L` below the diagonal — the fill the ordering
    /// produced, at most `n(n−1)/2`.
    pub fn nnz_l(&self) -> usize {
        self.l_col_ptr[self.n]
    }

    /// Numeric factorization of a matrix with the analyzed pattern.
    ///
    /// # Errors
    ///
    /// [`FactorError::BadPivot`] (indexed in `a`'s own ordering) when a
    /// pivot violates `pivots`; non-finite entries always end in one.
    ///
    /// # Panics
    ///
    /// Panics if `a`'s pattern is not the one that was analyzed.
    pub fn factor(&self, a: &SymSparse, pivots: Pivots) -> Result<SparseLdlt<'_>, FactorError> {
        assert!(
            a.n == self.n && a.col_ptr == self.a_col_ptr && a.row_idx == self.a_row_idx,
            "matrix pattern differs from the analyzed one"
        );
        let n = self.n;
        let mut c_values = vec![0.0; a.nnz()];
        for (&slot, &v) in self.a_to_c.iter().zip(&a.values) {
            c_values[slot] = v;
        }

        let mut l_row_idx = vec![0usize; self.nnz_l()];
        let mut l_values = vec![0.0; self.nnz_l()];
        let mut d = vec![0.0; n];
        // `y` is the dense accumulator of the current row, `pattern`
        // its nonzero positions in topological order (filled from the
        // back), `l_len[i]` the entries column i of L holds so far.
        let mut y = vec![0.0; n];
        let mut pattern = vec![0usize; n];
        let mut seen = vec![NONE; n];
        let mut l_len = vec![0usize; n];
        for k in 0..n {
            let mut top = n;
            seen[k] = k;
            let column = self.c_col_ptr[k]..self.c_col_ptr[k + 1];
            for (&row, &value) in self.c_row_idx[column.clone()].iter().zip(&c_values[column]) {
                let mut i = row;
                y[i] += value;
                let mut len = 0;
                while seen[i] != k {
                    pattern[len] = i;
                    len += 1;
                    seen[i] = k;
                    i = self.parent[i];
                }
                while len > 0 {
                    top -= 1;
                    len -= 1;
                    pattern[top] = pattern[len];
                }
            }
            let mut dk = y[k];
            y[k] = 0.0;
            for &i in &pattern[top..] {
                let yi = y[i];
                y[i] = 0.0;
                let lo = self.l_col_ptr[i];
                let hi = lo + l_len[i];
                for (&row, &l) in l_row_idx[lo..hi].iter().zip(&l_values[lo..hi]) {
                    y[row] -= l * yi;
                }
                let l_ki = yi / d[i];
                dk -= l_ki * yi;
                l_row_idx[hi] = k;
                l_values[hi] = l_ki;
                l_len[i] += 1;
            }
            if !pivots.accepts(dk) {
                return Err(FactorError::BadPivot {
                    index: self.perm[k],
                    value: dk,
                });
            }
            d[k] = dk;
        }
        Ok(SparseLdlt {
            symbolic: self,
            l_row_idx,
            l_values,
            d,
        })
    }
}

/// A numeric sparse factorization `Π A Πᵀ = L D Lᵀ`.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseLdlt<'s> {
    symbolic: &'s LdlSymbolic,
    l_row_idx: Vec<usize>,
    l_values: Vec<f64>,
    d: Vec<f64>,
}

impl SparseLdlt<'_> {
    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.d.len()
    }

    /// The pivots, in elimination order.
    pub fn d(&self) -> &[f64] {
        &self.d
    }

    /// Solves `A x = b`, overwriting `b` with `x`. `work` is scratch of
    /// the same length; nothing is allocated.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` or `work.len()` differs from `self.dim()`.
    pub fn solve_in_place(&self, b: &mut [f64], work: &mut [f64]) {
        let n = self.dim();
        assert_eq!(b.len(), n, "right-hand side has wrong length");
        assert_eq!(work.len(), n, "scratch has wrong length");
        let sym = self.symbolic;
        for (w, &old) in work.iter_mut().zip(&sym.perm) {
            *w = b[old];
        }
        // L y = Πb (unit diagonal), column by column.
        for j in 0..n {
            let (lo, hi) = (sym.l_col_ptr[j], sym.l_col_ptr[j + 1]);
            let wj = work[j];
            for (&row, &l) in self.l_row_idx[lo..hi].iter().zip(&self.l_values[lo..hi]) {
                work[row] -= l * wj;
            }
        }
        for (w, &dj) in work.iter_mut().zip(&self.d) {
            *w /= dj;
        }
        // Lᵀ x = z.
        for j in (0..n).rev() {
            let (lo, hi) = (sym.l_col_ptr[j], sym.l_col_ptr[j + 1]);
            let mut wj = work[j];
            for (&row, &l) in self.l_row_idx[lo..hi].iter().zip(&self.l_values[lo..hi]) {
                wj -= l * work[row];
            }
            work[j] = wj;
        }
        for (&w, &old) in work.iter().zip(&sym.perm) {
            b[old] = w;
        }
    }
}

/// Minimum-degree ordering on the elimination graph of `a`: repeatedly
/// eliminate a vertex of least current degree (lowest index on ties, so
/// the order is deterministic) and join its neighbours into a clique.
/// Returns `perm` with `perm[k]` the vertex eliminated `k`-th.
///
/// The graph is an `n × n` bit matrix, so joining a clique is one
/// word-wise OR per neighbour; with adjacency lists the same step is a
/// list merge and the ordering costs several numeric factorizations.
/// The price is `n²/8` bytes (1.1 MB at `n = 3000`), far below the
/// dense `n × n` array this module replaces.
fn minimum_degree_order(a: &SymSparse) -> Vec<usize> {
    let n = a.n;
    let words = n.div_ceil(64);
    let mut adj = vec![0u64; n * words];
    for j in 0..n {
        for &i in &a.row_idx[a.col_ptr[j]..a.col_ptr[j + 1]] {
            if i != j {
                adj[i * words + j / 64] |= 1 << (j % 64);
                adj[j * words + i / 64] |= 1 << (i % 64);
            }
        }
    }
    let degree_of = |row: &[u64]| row.iter().map(|w| w.count_ones() as usize).sum::<usize>();
    let mut degree: Vec<usize> = adj.chunks_exact(words.max(1)).map(degree_of).collect();
    // Candidates as (degree, vertex), smallest first; an entry whose
    // degree is out of date is skipped when it surfaces.
    let mut queue: BinaryHeap<Reverse<(usize, usize)>> =
        (0..n).map(|v| Reverse((degree[v], v))).collect();
    let mut eliminated = vec![false; n];
    let mut clique = vec![0u64; words];
    let mut perm = Vec::with_capacity(n);
    while let Some(Reverse((d, pivot))) = queue.pop() {
        if eliminated[pivot] || d != degree[pivot] {
            continue;
        }
        eliminated[pivot] = true;
        perm.push(pivot);
        clique.copy_from_slice(&adj[pivot * words..(pivot + 1) * words]);
        let members = clique.iter().enumerate().flat_map(|(w, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    w * 64 + bit
                })
            })
        });
        if perm.len() + d == n {
            // The least degree is the largest possible: what remains is
            // one clique and every order of it fills alike.
            perm.extend(members);
            break;
        }
        for u in members {
            let row = &mut adj[u * words..(u + 1) * words];
            for (r, &c) in row.iter_mut().zip(&clique) {
                *r |= c;
            }
            row[u / 64] &= !(1 << (u % 64));
            row[pivot / 64] &= !(1 << (pivot % 64));
            degree[u] = degree_of(row);
            queue.push(Reverse((degree[u], u)));
        }
    }
    perm
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::{norm_inf, Matrix};
    use crate::factor::Cholesky;
    use domo_util::rng::Xoshiro256pp as Rng;

    type Triplets = Vec<(usize, usize, f64)>;

    fn dense_of(n: usize, triplets: &Triplets) -> Matrix {
        let mut m = Matrix::zeros(n, n);
        for &(i, j, v) in triplets {
            m[(i, j)] += v;
            if i != j {
                m[(j, i)] += v;
            }
        }
        m
    }

    /// Off-diagonal entries plus a diagonal that makes the matrix
    /// strictly diagonally dominant, hence positive definite.
    fn dominant(n: usize, mut off: Triplets) -> Triplets {
        let mut row_sum = vec![0.0; n];
        for &(i, j, v) in &off {
            row_sum[i] += v.abs();
            row_sum[j] += v.abs();
        }
        for (i, s) in row_sum.iter().enumerate() {
            off.push((i, i, s + 1.0));
        }
        off
    }

    fn random_sparse(rng: &mut Rng, n: usize, density: f64) -> Triplets {
        let mut off = Vec::new();
        for j in 0..n {
            for i in 0..j {
                if rng.f64() < density {
                    off.push((i, j, rng.f64() * 2.0 - 1.0));
                }
            }
        }
        dominant(n, off)
    }

    fn banded(rng: &mut Rng, n: usize, bandwidth: usize) -> Triplets {
        let mut off = Vec::new();
        for j in 0..n {
            for i in j.saturating_sub(bandwidth)..j {
                off.push((j, i, rng.f64() - 0.5));
            }
        }
        dominant(n, off)
    }

    /// One dense row and column on top of a diagonal: the shape a
    /// sum-of-delays constraint gives the KKT matrix.
    fn arrow(rng: &mut Rng, n: usize) -> Triplets {
        let hub = rng.range_usize(0..n);
        let off = (0..n)
            .filter(|&i| i != hub)
            .map(|i| (hub, i, rng.f64() + 0.1))
            .collect();
        dominant(n, off)
    }

    fn diagonal(rng: &mut Rng, n: usize) -> Triplets {
        (0..n).map(|i| (i, i, rng.f64() + 0.5)).collect()
    }

    fn rhs(rng: &mut Rng, n: usize) -> Vec<f64> {
        (0..n).map(|_| rng.f64() * 20.0 - 10.0).collect()
    }

    fn sparse_solve(a: &SymSparse, pivots: Pivots, b: &[f64]) -> Result<Vec<f64>, FactorError> {
        let symbolic = LdlSymbolic::analyze(a);
        assert!(symbolic.nnz_l() <= a.dim() * a.dim().saturating_sub(1) / 2);
        let factor = symbolic.factor(a, pivots)?;
        let mut x = b.to_vec();
        factor.solve_in_place(&mut x, &mut vec![0.0; b.len()]);
        Ok(x)
    }

    fn assert_agrees(a: &SymSparse, x: &[f64], reference: &[f64], b: &[f64], what: &str) {
        let scale = 1.0 + norm_inf(reference);
        for (xi, ri) in x.iter().zip(reference) {
            assert!(
                (xi - ri).abs() <= 1e-9 * scale,
                "{what}: sparse {xi} vs dense {ri}"
            );
        }
        let residual: Vec<f64> = a.matvec(x).iter().zip(b).map(|(l, r)| l - r).collect();
        assert!(
            norm_inf(&residual) <= 1e-9 * (1.0 + norm_inf(b)),
            "{what}: residual {}",
            norm_inf(&residual)
        );
    }

    #[test]
    fn matches_dense_cholesky_on_spd_shapes() {
        let mut rng = Rng::seed_from_u64(0x1d1);
        for case in 0..60 {
            let n = 1 + rng.range_usize(0..40);
            let (shape, triplets) = match case % 4 {
                0 => ("random", random_sparse(&mut rng, n, 0.15)),
                1 => ("banded", banded(&mut rng, n, 1 + case % 3)),
                2 => ("arrow", arrow(&mut rng, n)),
                _ => ("diagonal", diagonal(&mut rng, n)),
            };
            let a = SymSparse::from_triplets(n, &triplets);
            let b = rhs(&mut rng, n);
            let x = sparse_solve(&a, Pivots::Positive, &b).unwrap();
            let reference = Cholesky::factor(&dense_of(n, &triplets)).unwrap().solve(&b);
            assert_agrees(
                &a,
                &x,
                &reference,
                &b,
                &format!("{shape} n={n} case {case}"),
            );
        }
    }

    #[test]
    fn matches_dense_ldlt_on_quasi_definite_kkt() {
        // [[H, Aᵀ], [A, −δI]] with H positive definite, the polish's
        // system; the ordering interleaves positive and negative pivots.
        let mut rng = Rng::seed_from_u64(0x1d2);
        for case in 0..40 {
            let n = 2 + rng.range_usize(0..25);
            let k = 1 + rng.range_usize(0..n);
            let mut triplets = random_sparse(&mut rng, n, 0.1);
            for r in 0..k {
                triplets.push((n + r, n + r, -0.5 - rng.f64()));
                for _ in 0..1 + rng.range_usize(0..3) {
                    triplets.push((n + r, rng.range_usize(0..n), rng.f64() * 2.0 - 1.0));
                }
            }
            let dim = n + k;
            let a = SymSparse::from_triplets(dim, &triplets);
            let b = rhs(&mut rng, dim);
            let symbolic = LdlSymbolic::analyze(&a);
            let factor = symbolic.factor(&a, Pivots::NonZero).unwrap();
            assert_eq!(factor.d().iter().filter(|&&d| d < 0.0).count(), k);
            let mut x = b.clone();
            factor.solve_in_place(&mut x, &mut vec![0.0; dim]);
            let reference = Ldlt::factor(&dense_of(dim, &triplets)).unwrap().solve(&b);
            assert_agrees(
                &a,
                &x,
                &reference,
                &b,
                &format!("kkt n={n} k={k} case {case}"),
            );
            // Positive-definiteness was not promised, and is refused.
            assert!(symbolic.factor(&a, Pivots::Positive).is_err());
        }
    }

    #[test]
    fn degenerate_sizes() {
        let empty = SymSparse::from_triplets(0, &[]);
        assert_eq!(sparse_solve(&empty, Pivots::Positive, &[]).unwrap(), vec![]);
        let one = SymSparse::from_triplets(1, &[(0, 0, 4.0)]);
        assert_eq!(
            sparse_solve(&one, Pivots::Positive, &[2.0]).unwrap(),
            vec![0.5]
        );
        assert_eq!(LdlSymbolic::analyze(&one).nnz_l(), 0);
    }

    #[test]
    fn duplicates_sum_and_mirror_into_one_element() {
        let a = SymSparse::from_triplets(
            3,
            &[
                (2, 0, 1.0),
                (0, 2, 0.5),
                (1, 1, 2.0),
                (0, 0, 1.0),
                (1, 1, 1.0),
            ],
        );
        assert_eq!(a.nnz(), 3);
        assert_eq!(a.matvec(&[1.0, 1.0, 1.0]), vec![2.5, 3.0, 1.5]);
    }

    #[test]
    fn bad_data_is_an_error_never_a_panic() {
        let clean = dominant(4, vec![(0, 1, 0.5), (1, 2, -0.25), (0, 3, 0.125)]);
        for poison in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for slot in 0..clean.len() {
                let mut t = clean.clone();
                t[slot].2 = poison;
                let a = SymSparse::from_triplets(4, &t);
                for pivots in [Pivots::Positive, Pivots::NonZero] {
                    assert!(
                        matches!(
                            sparse_solve(&a, pivots, &[1.0; 4]),
                            Err(FactorError::BadPivot { .. })
                        ),
                        "{poison} in slot {slot} went unnoticed"
                    );
                }
            }
        }
        // Indefinite where positive definite was promised: eigenvalues
        // 3 and −1.
        let indefinite = SymSparse::from_triplets(2, &[(0, 0, 1.0), (0, 1, 2.0), (1, 1, 1.0)]);
        assert!(sparse_solve(&indefinite, Pivots::Positive, &[1.0, 1.0]).is_err());
        assert!(sparse_solve(&indefinite, Pivots::NonZero, &[1.0, 1.0]).is_ok());
        // Singular: refused under either promise, with the original index.
        let singular = SymSparse::from_triplets(2, &[(0, 0, 1.0), (0, 1, 1.0), (1, 1, 1.0)]);
        for pivots in [Pivots::Positive, Pivots::NonZero] {
            match sparse_solve(&singular, pivots, &[1.0, 1.0]) {
                Err(FactorError::BadPivot { index, .. }) => assert!(index < 2),
                other => panic!("expected BadPivot, got {other:?}"),
            }
        }
    }

    #[test]
    fn refactor_on_reused_symbolic_equals_fresh_factor_bit_for_bit() {
        let mut rng = Rng::seed_from_u64(0x1d3);
        for _ in 0..20 {
            let n = 2 + rng.range_usize(0..30);
            let first = random_sparse(&mut rng, n, 0.2);
            // Same positions, new values (still dominant).
            let second: Triplets = first
                .iter()
                .map(|&(i, j, v)| (i, j, if i == j { v * 3.0 } else { -v }))
                .collect();
            let (a1, a2) = (
                SymSparse::from_triplets(n, &first),
                SymSparse::from_triplets(n, &second),
            );
            let reused = LdlSymbolic::analyze(&a1);
            reused.factor(&a1, Pivots::Positive).unwrap();
            let refactored = reused.factor(&a2, Pivots::Positive).unwrap();
            let fresh_symbolic = LdlSymbolic::analyze(&a2);
            let fresh = fresh_symbolic.factor(&a2, Pivots::Positive).unwrap();
            assert_eq!(reused, fresh_symbolic);
            assert_eq!(refactored.l_row_idx, fresh.l_row_idx);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&refactored.l_values), bits(&fresh.l_values));
            assert_eq!(bits(&refactored.d), bits(&fresh.d));
        }
    }

    #[test]
    #[should_panic(expected = "pattern differs")]
    fn factor_rejects_a_different_pattern() {
        let a = SymSparse::from_triplets(2, &[(0, 0, 1.0), (1, 1, 1.0)]);
        let b = SymSparse::from_triplets(2, &[(0, 0, 1.0), (0, 1, 0.5), (1, 1, 1.0)]);
        let _ = LdlSymbolic::analyze(&a).factor(&b, Pivots::Positive);
    }

    #[test]
    fn minimum_degree_keeps_an_arrow_fill_free() {
        // Natural order with the hub first fills the whole triangle;
        // minimum degree eliminates the spokes first and adds nothing.
        let n = 30;
        let off: Triplets = (1..n).map(|i| (0, i, 1.0)).collect();
        let a = SymSparse::from_triplets(n, &dominant(n, off));
        assert_eq!(LdlSymbolic::analyze(&a).nnz_l(), n - 1);
    }
}
