//! Problem descriptions accepted by the ADMM solver.
//!
//! The solver handles *cone quadratic programs*:
//!
//! ```text
//! minimize    ½ xᵀ P x + qᵀ x
//! subject to  l ≤ A x ≤ u                 (box rows)
//!             mat(xₛ) ⪰ 0  for each PSD block  (lifted SDP rows)
//! ```
//!
//! where each [`PsdBlock`] names the subset of variables that form a
//! symmetric matrix (in packed svec order). Plain QPs and LPs are the
//! special cases with no blocks / zero `P`.

use crate::svec::svec_len;
use domo_linalg::CsrMatrix;

/// A semidefinite block: the variables listed in `vars` (packed svec
/// order, see [`crate::svec`]) must form a positive-semidefinite matrix.
///
/// # Examples
///
/// ```
/// use domo_solver::PsdBlock;
///
/// // Variables 3, 4, 5 form the 2×2 matrix [[x3, x4], [x4, x5]] ⪰ 0.
/// let block = PsdBlock::new(2, vec![3, 4, 5]).unwrap();
/// assert_eq!(block.dim(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PsdBlock {
    dim: usize,
    vars: Vec<usize>,
}

impl PsdBlock {
    /// Creates a block of matrix dimension `dim` whose packed upper
    /// triangle is the listed variables.
    ///
    /// # Errors
    ///
    /// Returns an error if `vars.len() != dim(dim+1)/2`.
    pub fn new(dim: usize, vars: Vec<usize>) -> Result<Self, ProblemError> {
        if vars.len() != svec_len(dim) {
            return Err(ProblemError::BadPsdBlock {
                dim,
                expected: svec_len(dim),
                got: vars.len(),
            });
        }
        Ok(Self { dim, vars })
    }

    /// Matrix dimension of the block.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Variable indices in packed svec order.
    pub fn vars(&self) -> &[usize] {
        &self.vars
    }
}

/// A cone quadratic program.
///
/// Use [`ConeQp::new`] for a plain box-constrained QP and
/// [`ConeQp::with_psd_blocks`] to add semidefinite blocks.
#[derive(Debug, Clone, PartialEq)]
pub struct ConeQp {
    /// Quadratic objective term (n × n, only the symmetric part is used).
    pub p: CsrMatrix,
    /// Linear objective term (length n).
    pub q: Vec<f64>,
    /// Constraint matrix (m × n).
    pub a: CsrMatrix,
    /// Row lower bounds (length m); use `f64::NEG_INFINITY` for none.
    pub l: Vec<f64>,
    /// Row upper bounds (length m); use `f64::INFINITY` for none.
    pub u: Vec<f64>,
    /// Semidefinite blocks over subsets of the variables.
    pub psd_blocks: Vec<PsdBlock>,
}

/// Validation errors for [`ConeQp`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProblemError {
    /// `P` is not n × n.
    BadObjectiveShape {
        /// Number of variables implied by `q`.
        n: usize,
        /// Rows of the offending `P`.
        rows: usize,
        /// Columns of the offending `P`.
        cols: usize,
    },
    /// `A`, `l`, `u` dimensions disagree.
    BadConstraintShape {
        /// Number of variables implied by `q`.
        n: usize,
        /// Description of the mismatch.
        detail: String,
    },
    /// Some `l[i] > u[i]`.
    EmptyBox {
        /// Offending row.
        row: usize,
    },
    /// A PSD block's variable list has the wrong length.
    BadPsdBlock {
        /// Declared matrix dimension.
        dim: usize,
        /// Expected svec length.
        expected: usize,
        /// Actual list length.
        got: usize,
    },
    /// A PSD block references a variable ≥ n.
    PsdVarOutOfRange {
        /// Offending variable index.
        var: usize,
        /// Number of variables.
        n: usize,
    },
}

impl std::fmt::Display for ProblemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProblemError::BadObjectiveShape { n, rows, cols } => {
                write!(f, "objective matrix is {rows}x{cols}, expected {n}x{n}")
            }
            ProblemError::BadConstraintShape { n, detail } => {
                write!(
                    f,
                    "constraint shapes inconsistent for {n} variables: {detail}"
                )
            }
            ProblemError::EmptyBox { row } => write!(f, "row {row} has l > u"),
            ProblemError::BadPsdBlock { dim, expected, got } => {
                write!(f, "PSD block of dim {dim} needs {expected} vars, got {got}")
            }
            ProblemError::PsdVarOutOfRange { var, n } => {
                write!(f, "PSD block references variable {var}, but only {n} exist")
            }
        }
    }
}

impl std::error::Error for ProblemError {}

impl ConeQp {
    /// Creates a box-constrained QP (no PSD blocks).
    ///
    /// # Errors
    ///
    /// Returns a [`ProblemError`] describing any dimension mismatch or an
    /// empty box row.
    pub fn new(
        p: CsrMatrix,
        q: Vec<f64>,
        a: CsrMatrix,
        l: Vec<f64>,
        u: Vec<f64>,
    ) -> Result<Self, ProblemError> {
        Self::with_psd_blocks(p, q, a, l, u, Vec::new())
    }

    /// Creates a cone QP with semidefinite blocks.
    ///
    /// # Errors
    ///
    /// Returns a [`ProblemError`] describing any dimension mismatch, an
    /// empty box row, or an out-of-range PSD variable.
    pub fn with_psd_blocks(
        p: CsrMatrix,
        q: Vec<f64>,
        a: CsrMatrix,
        l: Vec<f64>,
        u: Vec<f64>,
        psd_blocks: Vec<PsdBlock>,
    ) -> Result<Self, ProblemError> {
        let n = q.len();
        if p.rows() != n || p.cols() != n {
            return Err(ProblemError::BadObjectiveShape {
                n,
                rows: p.rows(),
                cols: p.cols(),
            });
        }
        if a.cols() != n {
            return Err(ProblemError::BadConstraintShape {
                n,
                detail: format!("A has {} columns", a.cols()),
            });
        }
        if a.rows() != l.len() || a.rows() != u.len() {
            return Err(ProblemError::BadConstraintShape {
                n,
                detail: format!(
                    "A has {} rows but l has {} and u has {}",
                    a.rows(),
                    l.len(),
                    u.len()
                ),
            });
        }
        for (i, (&lo, &hi)) in l.iter().zip(&u).enumerate() {
            if lo > hi {
                return Err(ProblemError::EmptyBox { row: i });
            }
        }
        for b in &psd_blocks {
            if let Some(&v) = b.vars().iter().find(|&&v| v >= n) {
                return Err(ProblemError::PsdVarOutOfRange { var: v, n });
            }
        }
        Ok(Self {
            p,
            q,
            a,
            l,
            u,
            psd_blocks,
        })
    }

    /// Number of decision variables.
    pub fn num_vars(&self) -> usize {
        self.q.len()
    }

    /// Number of box-constraint rows.
    pub fn num_box_rows(&self) -> usize {
        self.a.rows()
    }

    /// Evaluates the objective `½ xᵀPx + qᵀx` at `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.num_vars()`.
    pub fn objective(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.num_vars(), "objective point has wrong length");
        0.5 * domo_linalg::dot(x, &self.p.matvec(x)) + domo_linalg::dot(&self.q, x)
    }

    /// Maximum box-constraint violation at `x` (0 when feasible).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.num_vars()`.
    pub fn box_violation(&self, x: &[f64]) -> f64 {
        let ax = self.a.matvec(x);
        let mut worst = 0.0f64;
        for ((&v, &lo), &hi) in ax.iter().zip(&self.l).zip(&self.u) {
            worst = worst.max(lo - v).max(v - hi);
        }
        worst
    }
}

/// Convenience builder for assembling sparse QPs row by row.
///
/// # Examples
///
/// ```
/// use domo_solver::QpBuilder;
///
/// // minimize (x0 − 1)² + (x1 − 2)²  s.t.  x0 + x1 ≤ 2, x ≥ 0.
/// let mut b = QpBuilder::new(2);
/// b.add_quadratic(0, 0, 2.0);
/// b.add_quadratic(1, 1, 2.0);
/// b.add_linear(0, -2.0);
/// b.add_linear(1, -4.0);
/// b.add_row(&[(0, 1.0), (1, 1.0)], f64::NEG_INFINITY, 2.0);
/// b.add_row(&[(0, 1.0)], 0.0, f64::INFINITY);
/// b.add_row(&[(1, 1.0)], 0.0, f64::INFINITY);
/// let qp = b.build()?;
/// assert_eq!(qp.num_vars(), 2);
/// assert_eq!(qp.num_box_rows(), 3);
/// # Ok::<(), domo_solver::ProblemError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct QpBuilder {
    n: usize,
    p_triplets: Vec<(usize, usize, f64)>,
    q: Vec<f64>,
    a_triplets: Vec<(usize, usize, f64)>,
    l: Vec<f64>,
    u: Vec<f64>,
    psd_blocks: Vec<PsdBlock>,
}

impl QpBuilder {
    /// Starts a problem over `n` variables with zero objective.
    pub fn new(n: usize) -> Self {
        Self {
            n,
            q: vec![0.0; n],
            ..Self::default()
        }
    }

    /// Adds `coef` to `P[i, j]` **and** `P[j, i]` when `i ≠ j` (keeping
    /// `P` symmetric); adds to the diagonal once when `i == j`.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn add_quadratic(&mut self, i: usize, j: usize, coef: f64) -> &mut Self {
        assert!(i < self.n && j < self.n, "quadratic index out of range");
        if i == j {
            self.p_triplets.push((i, i, coef));
        } else {
            self.p_triplets.push((i, j, coef));
            self.p_triplets.push((j, i, coef));
        }
        self
    }

    /// Adds `coef` to the linear objective on variable `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn add_linear(&mut self, i: usize, coef: f64) -> &mut Self {
        assert!(i < self.n, "linear index out of range");
        self.q[i] += coef;
        self
    }

    /// Adds a constraint row `lo ≤ Σ coefᵢ·x_varᵢ ≤ hi` and returns its
    /// row index.
    ///
    /// # Panics
    ///
    /// Panics if any referenced variable is out of range.
    pub fn add_row(&mut self, entries: &[(usize, f64)], lo: f64, hi: f64) -> usize {
        self.add_row_from(entries.iter().copied(), lo, hi)
    }

    /// [`QpBuilder::add_row`] over an iterator of entries, for callers
    /// that map their terms on the fly rather than collect them first.
    ///
    /// # Panics
    ///
    /// Panics if any referenced variable is out of range.
    pub fn add_row_from(
        &mut self,
        entries: impl IntoIterator<Item = (usize, f64)>,
        lo: f64,
        hi: f64,
    ) -> usize {
        let row = self.l.len();
        for (var, coef) in entries {
            assert!(var < self.n, "row references variable {var} out of range");
            self.a_triplets.push((row, var, coef));
        }
        self.l.push(lo);
        self.u.push(hi);
        row
    }

    /// Pins variable `i` to the exact value `v` (an equality row).
    pub fn fix_variable(&mut self, i: usize, v: f64) -> usize {
        self.add_row(&[(i, 1.0)], v, v)
    }

    /// Adds a PSD block over existing variables.
    ///
    /// # Errors
    ///
    /// Returns [`ProblemError::BadPsdBlock`] if the list length does not
    /// match the dimension.
    pub fn add_psd_block(&mut self, dim: usize, vars: Vec<usize>) -> Result<(), ProblemError> {
        self.psd_blocks.push(PsdBlock::new(dim, vars)?);
        Ok(())
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.n
    }

    /// Number of constraint rows added so far.
    pub fn num_rows(&self) -> usize {
        self.l.len()
    }

    /// Finalizes the problem.
    ///
    /// # Errors
    ///
    /// Propagates the validation errors of [`ConeQp::with_psd_blocks`].
    pub fn build(self) -> Result<ConeQp, ProblemError> {
        let m = self.l.len();
        ConeQp::with_psd_blocks(
            CsrMatrix::from_triplets(self.n, self.n, &self.p_triplets),
            self.q,
            CsrMatrix::from_triplets(m, self.n, &self.a_triplets),
            self.l,
            self.u,
            self.psd_blocks,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn psd_block_validates_length() {
        assert!(PsdBlock::new(2, vec![0, 1, 2]).is_ok());
        assert!(matches!(
            PsdBlock::new(2, vec![0, 1]),
            Err(ProblemError::BadPsdBlock {
                expected: 3,
                got: 2,
                ..
            })
        ));
    }

    #[test]
    fn cone_qp_validates_shapes() {
        let p = CsrMatrix::zeros(2, 2);
        let a = CsrMatrix::zeros(1, 2);
        assert!(ConeQp::new(p.clone(), vec![0.0; 2], a.clone(), vec![0.0], vec![1.0]).is_ok());

        let bad_p = CsrMatrix::zeros(3, 2);
        assert!(matches!(
            ConeQp::new(bad_p, vec![0.0; 2], a.clone(), vec![0.0], vec![1.0]),
            Err(ProblemError::BadObjectiveShape { .. })
        ));

        assert!(matches!(
            ConeQp::new(
                p.clone(),
                vec![0.0; 2],
                a.clone(),
                vec![0.0, 0.0],
                vec![1.0]
            ),
            Err(ProblemError::BadConstraintShape { .. })
        ));

        assert!(matches!(
            ConeQp::new(p, vec![0.0; 2], a, vec![2.0], vec![1.0]),
            Err(ProblemError::EmptyBox { row: 0 })
        ));
    }

    #[test]
    fn cone_qp_rejects_out_of_range_block_vars() {
        let p = CsrMatrix::zeros(2, 2);
        let a = CsrMatrix::zeros(0, 2);
        let block = PsdBlock::new(1, vec![5]).unwrap();
        assert!(matches!(
            ConeQp::with_psd_blocks(p, vec![0.0; 2], a, vec![], vec![], vec![block]),
            Err(ProblemError::PsdVarOutOfRange { var: 5, n: 2 })
        ));
    }

    #[test]
    fn objective_and_violation_evaluate() {
        let mut b = QpBuilder::new(2);
        b.add_quadratic(0, 0, 2.0);
        b.add_linear(1, 1.0);
        b.add_row(&[(0, 1.0), (1, 1.0)], 0.0, 1.0);
        let qp = b.build().unwrap();
        // f(x) = x0² + x1.
        assert_eq!(qp.objective(&[2.0, 3.0]), 7.0);
        assert_eq!(qp.box_violation(&[0.5, 0.25]), 0.0);
        assert_eq!(qp.box_violation(&[2.0, 0.0]), 1.0);
        assert_eq!(qp.box_violation(&[-1.0, 0.0]), 1.0);
    }

    #[test]
    fn builder_accumulates_linear_terms() {
        let mut b = QpBuilder::new(1);
        b.add_linear(0, 1.0);
        b.add_linear(0, 2.0);
        let qp = b.build().unwrap();
        assert_eq!(qp.q, vec![3.0]);
    }

    #[test]
    fn builder_quadratic_symmetrizes_off_diagonals() {
        let mut b = QpBuilder::new(2);
        b.add_quadratic(0, 1, 3.0);
        let qp = b.build().unwrap();
        let dense = qp.p.to_dense();
        assert_eq!(dense[(0, 1)], 3.0);
        assert_eq!(dense[(1, 0)], 3.0);
    }

    #[test]
    fn fix_variable_creates_equality_row() {
        let mut b = QpBuilder::new(1);
        let row = b.fix_variable(0, 7.0);
        assert_eq!(row, 0);
        let qp = b.build().unwrap();
        assert_eq!(qp.l, vec![7.0]);
        assert_eq!(qp.u, vec![7.0]);
    }

    #[test]
    fn errors_display_meaningfully() {
        let e = ProblemError::EmptyBox { row: 3 };
        assert!(e.to_string().contains("row 3"));
        let e = ProblemError::PsdVarOutOfRange { var: 9, n: 4 };
        assert!(e.to_string().contains("variable 9"));
    }

    #[test]
    fn builder_row_indices_increment() {
        let mut b = QpBuilder::new(2);
        assert_eq!(b.add_row(&[(0, 1.0)], 0.0, 1.0), 0);
        assert_eq!(b.add_row(&[(1, 1.0)], 0.0, 1.0), 1);
        assert_eq!(b.num_rows(), 2);
        assert_eq!(b.num_vars(), 2);
    }
}
