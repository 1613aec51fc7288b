//! Sparse affine expressions over the unknown arrival times.
//!
//! Constraint construction manipulates terms like
//! `D_n(p) = t_{i+1}(p) − t_i(p)` where each side is either a known
//! constant (generation or sink time) or an unknown variable.
//! [`LinExpr`] keeps those expressions symbolic until they are lowered
//! into solver rows or quadratic objective terms.

use std::ops::{AddAssign, SubAssign};

/// A sparse affine expression `Σ coefᵢ·xᵢ + constant` (milliseconds).
///
/// The terms are a vector sorted by variable with no zero coefficient:
/// the expressions Domo builds touch a handful of variables, so a
/// sorted insert beats a tree, and [`LinExpr::terms`] lends them out
/// without copying.
///
/// # Examples
///
/// ```
/// use domo_core::expr::LinExpr;
///
/// let d = LinExpr::var(3).sub(&LinExpr::var(2)); // t3 − t2
/// assert_eq!(d.terms(), &[(2, -1.0), (3, 1.0)]);
/// assert_eq!(d.constant(), 0.0);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LinExpr {
    terms: Vec<(usize, f64)>,
    constant: f64,
}

impl LinExpr {
    /// The zero expression.
    pub fn zero() -> Self {
        Self::default()
    }

    /// A constant expression.
    pub fn constant_of(c: f64) -> Self {
        Self {
            terms: Vec::new(),
            constant: c,
        }
    }

    /// The expression `x_var`.
    pub fn var(var: usize) -> Self {
        // Room for a second term: most expressions are time differences.
        let mut terms = Vec::with_capacity(2);
        terms.push((var, 1.0));
        Self {
            terms,
            constant: 0.0,
        }
    }

    /// Adds `coef · x_var` in place; a coefficient that sums to zero
    /// removes the term.
    pub fn add_term(&mut self, var: usize, coef: f64) -> &mut Self {
        match self.terms.binary_search_by_key(&var, |&(v, _)| v) {
            Ok(at) => {
                self.terms[at].1 += coef;
                if self.terms[at].1 == 0.0 {
                    self.terms.remove(at);
                }
            }
            Err(at) => {
                if coef != 0.0 {
                    self.terms.insert(at, (var, coef));
                }
            }
        }
        self
    }

    /// Adds a constant in place.
    pub fn add_constant(&mut self, c: f64) -> &mut Self {
        self.constant += c;
        self
    }

    /// Returns `self + other`.
    pub fn add(&self, other: &LinExpr) -> LinExpr {
        let mut out = self.clone();
        out += other;
        out
    }

    /// Returns `self − other`.
    pub fn sub(&self, other: &LinExpr) -> LinExpr {
        let mut out = self.clone();
        out -= other;
        out
    }

    /// Returns `s · self`.
    pub fn scale(&self, s: f64) -> LinExpr {
        LinExpr {
            terms: self
                .terms
                .iter()
                .filter(|&&(_, c)| c * s != 0.0)
                .map(|&(v, c)| (v, c * s))
                .collect(),
            constant: self.constant * s,
        }
    }

    /// The variable terms, sorted by variable index.
    pub fn terms(&self) -> &[(usize, f64)] {
        &self.terms
    }

    /// The constant offset.
    pub fn constant(&self) -> f64 {
        self.constant
    }

    /// Returns `true` when the expression has no variable terms.
    pub fn is_constant(&self) -> bool {
        self.terms.is_empty()
    }

    /// Number of variable terms.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// Returns `true` if there are no variable terms and no constant.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty() && self.constant == 0.0
    }

    /// Evaluates the expression at a point.
    ///
    /// # Panics
    ///
    /// Panics if a referenced variable is out of range for `x`.
    pub fn eval(&self, x: &[f64]) -> f64 {
        self.constant + self.terms.iter().map(|&(v, c)| c * x[v]).sum::<f64>()
    }

    /// Variables referenced by this expression.
    pub fn vars(&self) -> impl Iterator<Item = usize> + '_ {
        self.terms.iter().map(|&(v, _)| v)
    }
}

impl AddAssign<&LinExpr> for LinExpr {
    fn add_assign(&mut self, other: &LinExpr) {
        for &(v, c) in &other.terms {
            self.add_term(v, c);
        }
        self.constant += other.constant;
    }
}

impl SubAssign<&LinExpr> for LinExpr {
    fn sub_assign(&mut self, other: &LinExpr) {
        for &(v, c) in &other.terms {
            self.add_term(v, -c);
        }
        self.constant -= other.constant;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_arithmetic() {
        let a = LinExpr::var(0);
        let b = LinExpr::var(1);
        let e = a.sub(&b).add(&LinExpr::constant_of(2.0));
        assert_eq!(e.terms(), vec![(0, 1.0), (1, -1.0)]);
        assert_eq!(e.constant(), 2.0);
        assert_eq!(e.eval(&[5.0, 3.0]), 4.0);
    }

    #[test]
    fn cancelling_terms_disappear() {
        let a = LinExpr::var(4);
        let e = a.sub(&LinExpr::var(4));
        assert!(e.is_constant());
        assert!(e.is_empty());
        assert_eq!(e.len(), 0);
    }

    #[test]
    fn scale_handles_zero() {
        let e = LinExpr::var(1).add(&LinExpr::constant_of(3.0));
        let z = e.scale(0.0);
        assert!(z.is_empty());
        let d = e.scale(2.0);
        assert_eq!(d.terms(), vec![(1, 2.0)]);
        assert_eq!(d.constant(), 6.0);
    }

    #[test]
    fn add_term_accumulates() {
        let mut e = LinExpr::zero();
        e.add_term(2, 1.5);
        e.add_term(2, 0.5);
        e.add_constant(1.0);
        assert_eq!(e.terms(), vec![(2, 2.0)]);
        assert_eq!(e.eval(&[0.0, 0.0, 3.0]), 7.0);
        assert_eq!(e.vars().collect::<Vec<_>>(), vec![2]);
    }
}
