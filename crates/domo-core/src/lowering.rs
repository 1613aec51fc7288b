//! Lowering constraint rows into solver problems.
//!
//! Arrival times live on the global millisecond axis, where a 5-minute
//! trace pushes values past 10⁵ — poison for the lifted SDP terms whose
//! entries are *products* of times. Every solver problem therefore works
//! in **window units**: seconds relative to a reference instant near the
//! packets being solved. [`LocalProblem`] owns the global→local variable
//! map and the affine change of units, and converts expressions, rows,
//! boxes, and objective terms in one place.

use crate::constraints::Row;
use crate::expr::LinExpr;
use crate::interval::Intervals;
use domo_solver::QpBuilder;

/// Milliseconds per window unit (window unit = seconds).
pub const MS_PER_UNIT: f64 = 1000.0;

/// A local (per-window / per-sub-graph) variable space.
#[derive(Debug, Clone)]
pub struct LocalProblem {
    /// `(global, local)` pairs sorted by global index: a lookup is a
    /// binary search over the space's own variables, never a table
    /// sized by the whole view.
    by_global: Vec<(usize, usize)>,
    inverse: Vec<usize>,
    t_ref_ms: f64,
}

impl LocalProblem {
    /// Creates the local space over the given global variables, with
    /// times re-expressed relative to `t_ref_ms`.
    ///
    /// # Panics
    ///
    /// Panics if `vars` contains duplicates.
    pub fn new(vars: &[usize], t_ref_ms: f64) -> Self {
        let mut by_global: Vec<(usize, usize)> = vars
            .iter()
            .enumerate()
            .map(|(local, &global)| (global, local))
            .collect();
        by_global.sort_unstable();
        if let Some(pair) = by_global.windows(2).find(|w| w[0].0 == w[1].0) {
            panic!("duplicate variable {} in local problem", pair[0].0);
        }
        Self {
            by_global,
            inverse: vars.to_vec(),
            t_ref_ms,
        }
    }

    /// Number of local variables.
    pub fn num_vars(&self) -> usize {
        self.inverse.len()
    }

    /// Local index of a global variable, if present.
    pub fn local(&self, global: usize) -> Option<usize> {
        self.by_global
            .binary_search_by_key(&global, |&(g, _)| g)
            .ok()
            .map(|at| self.by_global[at].1)
    }

    /// [`LocalProblem::local`] for a variable the caller guarantees is
    /// in the space.
    fn local_of(&self, global: usize) -> usize {
        self.local(global)
            .unwrap_or_else(|| panic!("variable {global} not in local problem"))
    }

    /// Global index of a local variable.
    ///
    /// # Panics
    ///
    /// Panics if `local` is out of range.
    pub fn global(&self, local: usize) -> usize {
        self.inverse[local]
    }

    /// Converts a solver value (window units) back to global ms.
    pub fn to_ms(&self, x: f64) -> f64 {
        x * MS_PER_UNIT + self.t_ref_ms
    }

    /// Converts a global-ms instant to window units.
    pub fn from_ms(&self, ms: f64) -> f64 {
        (ms - self.t_ref_ms) / MS_PER_UNIT
    }

    /// Lowers an affine ms-expression into `(local terms, constant)` in
    /// window units: substituting `t = MS_PER_UNIT·x + t_ref` gives
    /// `expr_ms = MS_PER_UNIT·(Σ cᵢ xᵢ) + (k + t_ref·Σ cᵢ)`, and we
    /// divide through by `MS_PER_UNIT`.
    ///
    /// # Panics
    ///
    /// Panics if the expression references a variable outside this local
    /// space — callers must build the space over every variable the
    /// expression names (restrict rows first with
    /// [`crate::constraints::restrict_row_to`]).
    pub fn lower_expr(&self, expr: &LinExpr) -> (Vec<(usize, f64)>, f64) {
        let terms = expr
            .terms()
            .iter()
            .map(|&(global, c)| (self.local_of(global), c))
            .collect();
        (terms, self.lowered_constant(expr.terms(), expr.constant()))
    }

    /// The window-unit constant of `Σ cᵢ·tᵢ + constant_ms`: the shift
    /// `t_ref·Σ cᵢ` joins the constant before the rescale.
    fn lowered_constant(&self, terms: &[(usize, f64)], constant_ms: f64) -> f64 {
        let coef_sum = terms.iter().fold(0.0, |sum, &(_, c)| sum + c);
        (constant_ms + self.t_ref_ms * coef_sum) / MS_PER_UNIT
    }

    /// Adds a constraint row (`lo ≤ expr ≤ hi`, all in ms) to a builder.
    ///
    /// # Panics
    ///
    /// Panics like [`LocalProblem::lower_expr`].
    pub fn add_row(&self, builder: &mut QpBuilder, row: &Row) {
        let terms = row.expr.terms();
        if terms.is_empty() {
            return;
        }
        let constant = self.lowered_constant(terms, row.expr.constant());
        let lo = if row.lo.is_finite() {
            row.lo / MS_PER_UNIT - constant
        } else {
            f64::NEG_INFINITY
        };
        let hi = if row.hi.is_finite() {
            row.hi / MS_PER_UNIT - constant
        } else {
            f64::INFINITY
        };
        builder.add_row_from(
            terms.iter().map(|&(global, c)| (self.local_of(global), c)),
            lo,
            hi,
        );
    }

    /// Adds interval box rows for every local variable.
    pub fn add_boxes(&self, builder: &mut QpBuilder, intervals: &Intervals) {
        for local in 0..self.num_vars() {
            let global = self.global(local);
            builder.add_row(
                &[(local, 1.0)],
                self.from_ms(intervals.lb[global]),
                self.from_ms(intervals.ub[global]),
            );
        }
    }

    /// Adds the squared ms-expression `(expr)²` to the quadratic
    /// objective (constant factor `MS_PER_UNIT²` dropped — it does not
    /// move the argmin).
    ///
    /// # Panics
    ///
    /// Panics like [`LocalProblem::lower_expr`].
    pub fn add_square(&self, builder: &mut QpBuilder, expr: &LinExpr, weight: f64) {
        self.add_square_terms(builder, expr.terms(), expr.constant(), weight);
    }

    /// Adds the anchor `weight·(t_global − target_ms)²`: the same entries
    /// [`LocalProblem::add_square`] adds for that expression, without
    /// building it.
    pub(crate) fn add_anchor(
        &self,
        builder: &mut QpBuilder,
        global: usize,
        target_ms: f64,
        weight: f64,
    ) {
        self.add_square_terms(builder, &[(global, 1.0)], -target_ms, weight);
    }

    /// `weight·(Σ cᵢ·tᵢ + constant_ms)²` over global terms.
    fn add_square_terms(
        &self,
        builder: &mut QpBuilder,
        terms: &[(usize, f64)],
        constant_ms: f64,
        weight: f64,
    ) {
        let constant = self.lowered_constant(terms, constant_ms);
        // (Σ cᵢxᵢ + k)² → P entries 2·w·cᵢcⱼ, linear 2·w·k·cᵢ.
        for (a, &(ga, ca)) in terms.iter().enumerate() {
            let va = self.local_of(ga);
            builder.add_quadratic(va, va, 2.0 * weight * ca * ca);
            for &(gb, cb) in terms.iter().skip(a + 1) {
                builder.add_quadratic(va, self.local_of(gb), 2.0 * weight * ca * cb);
            }
            builder.add_linear(va, 2.0 * weight * constant * ca);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use domo_solver::{solve, Settings};

    #[test]
    fn unit_round_trip() {
        let lp = LocalProblem::new(&[7, 3], 50_000.0);
        assert_eq!(lp.num_vars(), 2);
        assert_eq!(lp.local(7), Some(0));
        assert_eq!(lp.local(3), Some(1));
        assert_eq!(lp.global(1), 3);
        let ms = 53_250.0;
        assert!((lp.to_ms(lp.from_ms(ms)) - ms).abs() < 1e-9);
        assert_eq!(lp.from_ms(51_000.0), 1.0);
    }

    #[test]
    fn lower_expr_shifts_and_scales() {
        let lp = LocalProblem::new(&[0, 1], 10_000.0);
        // expr = t1 − t0 (a delay): shift cancels, scale divides.
        let d = LinExpr::var(1).sub(&LinExpr::var(0));
        let (terms, constant) = lp.lower_expr(&d);
        assert_eq!(terms, vec![(0, -1.0), (1, 1.0)]);
        assert_eq!(constant, 0.0);
        // expr = t0 + 500 (absolute): shift appears.
        let a = LinExpr::var(0).add(&LinExpr::constant_of(500.0));
        let (_, constant) = lp.lower_expr(&a);
        assert!((constant - 10.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "not in local problem")]
    fn lower_expr_rejects_foreign_vars() {
        let lp = LocalProblem::new(&[0], 0.0);
        let _ = lp.lower_expr(&LinExpr::var(5));
    }

    #[test]
    fn lowered_qp_solves_in_window_units() {
        // minimize (t0 − 12_000)² s.t. 11_000 ≤ t0 ≤ 11_500 (ms) with
        // reference 10_000 → solution 11_500 ms.
        let lp = LocalProblem::new(&[0], 10_000.0);
        let mut b = QpBuilder::new(1);
        let expr = LinExpr::var(0).sub(&LinExpr::constant_of(12_000.0));
        lp.add_square(&mut b, &expr, 1.0);
        lp.add_row(
            &mut b,
            &crate::constraints::Row {
                expr: LinExpr::var(0),
                lo: 11_000.0,
                hi: 11_500.0,
                kind: crate::constraints::ConstraintKind::Order,
            },
        );
        let sol = solve(&b.build().unwrap(), &Settings::default());
        assert!(sol.is_solved());
        let ms = lp.to_ms(sol.x[0]);
        assert!((ms - 11_500.0).abs() < 1.0, "got {ms}");
    }

    #[test]
    fn add_square_cross_terms_match_expansion() {
        // (x0 − x1)² at P-level: P = [[2, −2], [−2, 2]].
        let lp = LocalProblem::new(&[0, 1], 0.0);
        let mut b = QpBuilder::new(2);
        let d = LinExpr::var(0).sub(&LinExpr::var(1));
        lp.add_square(&mut b, &d, 1.0);
        let qp = b.build().unwrap();
        let p = qp.p.to_dense();
        assert_eq!(p[(0, 0)], 2.0);
        assert_eq!(p[(1, 1)], 2.0);
        assert_eq!(p[(0, 1)], -2.0);
        assert_eq!(p[(1, 0)], -2.0);
    }
}
