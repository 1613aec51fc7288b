//! Construction of the paper's three constraint families (§IV.A).
//!
//! Given a subset of packets (a time window, a sub-graph, or the whole
//! trace), [`build_constraints`] emits:
//!
//! * **Order rows** — `t_{i+1}(p) − t_i(p) ≥ ω` along every path;
//! * **FIFO rows** — for pairs of packets sharing a forwarder whose
//!   order is *decided* by the interval oracle, the two linear
//!   inequalities the bilinear constraint factors into; undecided pairs
//!   are returned separately so the caller can lift them into the
//!   semidefinite relaxation (or drop them);
//! * **Sum-of-delays rows** — the guaranteed lower-bound constraint (7)
//!   over `C*(p)` and the loss-sensitive upper-bound constraint (6)
//!   over `C(p)`, both slack-padded for the 1 ms field quantization and
//!   clock drift.

use crate::expr::LinExpr;
use crate::interval::{decided_order, Intervals};
use crate::view::TraceView;
use domo_net::NodeId;

/// Which family a row belongss to (diagnostics and ablations).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConstraintKind {
    /// Path-order row.
    Order,
    /// Decided FIFO row on the arrival hop.
    FifoArrival,
    /// Decided FIFO row on the departure hop.
    FifoDeparture,
    /// Sum-of-delays lower constraint (7) — guaranteed.
    SumLower,
    /// Sum-of-delays upper constraint (6) — may break under loss.
    SumUpper,
}

/// One linear constraint `lo ≤ expr ≤ hi` (expr includes its constant).
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// The affine expression being constrained.
    pub expr: LinExpr,
    /// Lower bound (may be `NEG_INFINITY`).
    pub lo: f64,
    /// Upper bound (may be `INFINITY`).
    pub hi: f64,
    /// Family tag.
    pub kind: ConstraintKind,
}

/// A FIFO pair whose order the interval oracle could not decide; the
/// caller may lift it into the SDP relaxation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FifoPair {
    /// The shared forwarding node.
    pub node: NodeId,
    /// `(packet, hop)` of the first pass-through.
    pub x: (usize, usize),
    /// `(packet, hop)` of the second pass-through.
    pub y: (usize, usize),
}

/// Options for constraint construction.
#[derive(Debug, Clone, PartialEq)]
pub struct ConstraintOptions {
    /// Minimum software processing delay ω (ms) — paper §IV.A.
    pub omega_ms: f64,
    /// Slack added to both sum-of-delays constraints, absorbing the
    /// 1 ms field quantization and clock drift.
    pub sum_slack_ms: f64,
    /// Emit the loss-sensitive upper constraint (6).
    pub use_upper_sum: bool,
    /// Emit FIFO rows / pairs at all.
    pub use_fifo: bool,
    /// How many successors (in arrival-lower-bound order) each
    /// pass-through is paired with at a shared node.
    pub fifo_horizon: usize,
    /// Interval-propagation rounds feeding the ordering oracle.
    pub propagation_rounds: usize,
}

impl Default for ConstraintOptions {
    fn default() -> Self {
        Self {
            omega_ms: 1.0,
            sum_slack_ms: 2.5,
            use_upper_sum: true,
            use_fifo: true,
            fifo_horizon: 8,
            propagation_rounds: 3,
        }
    }
}

/// The constraint system over a packet subset.
#[derive(Debug, Clone, Default)]
pub struct ConstraintSystem {
    /// Linear rows.
    pub rows: Vec<Row>,
    /// FIFO pairs the oracle could not order.
    pub undecided_pairs: Vec<FifoPair>,
}

impl ConstraintSystem {
    /// Count of rows of a given kind.
    pub fn count(&self, kind: ConstraintKind) -> usize {
        self.rows.iter().filter(|r| r.kind == kind).count()
    }
}

/// Builds the constraint system for `subset` (packet indices into the
/// view). Constraints are emitted only if they involve at least one
/// unknown variable.
///
/// # Panics
///
/// Panics if a subset index is out of range.
pub fn build_constraints(
    view: &TraceView,
    subset: &[usize],
    intervals: &Intervals,
    opts: &ConstraintOptions,
) -> ConstraintSystem {
    build_constraints_over(
        view,
        subset,
        &view.subset_passthroughs(subset),
        intervals,
        opts,
    )
}

/// [`build_constraints`] with the subset's pass-throughs
/// ([`TraceView::subset_passthroughs`]) already computed, so a caller
/// that needs them again (the estimator's variance objective) sorts
/// them once.
pub(crate) fn build_constraints_over(
    view: &TraceView,
    subset: &[usize],
    passes: &[(usize, usize, usize)],
    intervals: &Intervals,
    opts: &ConstraintOptions,
) -> ConstraintSystem {
    let mut system = ConstraintSystem::default();

    // ---- Order rows. ----
    for &p in subset {
        let len = view.packet(p).path.len();
        for hop in 0..len - 1 {
            let expr = view.delay_expr(p, hop);
            push_row(
                &mut system,
                Row {
                    expr,
                    lo: opts.omega_ms,
                    hi: f64::INFINITY,
                    kind: ConstraintKind::Order,
                },
            );
        }
    }

    // ---- FIFO rows and undecided pairs. ----
    if opts.use_fifo {
        for entries in passes.chunk_by(|a, b| a.0 == b.0) {
            if entries.len() < 2 {
                continue;
            }
            let node = NodeId::new(entries[0].0 as u16);
            let mut sorted: Vec<(f64, usize, usize)> = entries
                .iter()
                .map(|&(_, p, hop)| {
                    let (lo, _) = intervals.of(view.time_ref(p, hop));
                    (lo, p, hop)
                })
                .collect();
            sorted.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            for i in 0..sorted.len() {
                let horizon = sorted.len().min(i + 1 + opts.fifo_horizon);
                for j in (i + 1)..horizon {
                    let x = (sorted[i].1, sorted[i].2);
                    let y = (sorted[j].1, sorted[j].2);
                    match decided_order(view, intervals, x, y) {
                        Some(x_first) => {
                            let (first, second) = if x_first { (x, y) } else { (y, x) };
                            for (delta, kind) in [
                                (0, ConstraintKind::FifoArrival),
                                (1, ConstraintKind::FifoDeparture),
                            ] {
                                let expr = view.time_diff_expr(
                                    (second.0, second.1 + delta),
                                    (first.0, first.1 + delta),
                                );
                                push_row(
                                    &mut system,
                                    Row {
                                        expr,
                                        lo: 0.0,
                                        hi: f64::INFINITY,
                                        kind,
                                    },
                                );
                            }
                        }
                        None => system.undecided_pairs.push(FifoPair { node, x, y }),
                    }
                }
            }
        }
    }

    // ---- Sum-of-delays rows. ----
    for &p in subset {
        let Some(sets) = view.candidate_sets(p) else {
            continue;
        };
        let s = f64::from(view.packet(p).sum_of_delays_ms);
        let own = view.delay_expr(p, 0);

        // (7): D(p) + Σ_{C*} D(x) ≤ S + slack — guaranteed under loss.
        // The same provable-inconsistency guard as for (6) shields the
        // system from the rare quantization/drift corner case.
        let mut lower = own.clone();
        for &(x, hop) in &sets.certain {
            lower += &view.delay_expr(x, hop);
        }
        let (min_possible, _) = expr_interval(&lower, intervals);
        if min_possible <= s + opts.sum_slack_ms {
            push_row(
                &mut system,
                Row {
                    expr: lower,
                    lo: f64::NEG_INFINITY,
                    hi: s + opts.sum_slack_ms,
                    kind: ConstraintKind::SumLower,
                },
            );
        }

        // (6): D(p) + Σ_{C} D(x) ≥ S − slack — breaks if a contributing
        // packet was lost. A row that cannot be satisfied even at the
        // interval extremes proves a loss corrupted this S(p); drop it
        // (keeping it would make the whole system infeasible).
        if opts.use_upper_sum {
            let mut upper = own;
            for &(x, hop) in &sets.possible {
                upper += &view.delay_expr(x, hop);
            }
            let (_, max_possible) = expr_interval(&upper, intervals);
            if max_possible >= s - opts.sum_slack_ms {
                push_row(
                    &mut system,
                    Row {
                        expr: upper,
                        lo: s - opts.sum_slack_ms,
                        hi: f64::INFINITY,
                        kind: ConstraintKind::SumUpper,
                    },
                );
            }
        }
    }

    system
}

/// Outcome of restricting a row to a variable subset.
#[derive(Debug, Clone)]
pub enum RowRestriction {
    /// Every variable is inside the subset; use the row as-is.
    Inside,
    /// Outside variables were replaced by their interval bounds (a sound
    /// relaxation).
    Relaxed(Row),
    /// The relaxed row constrains nothing.
    Vacuous,
}

/// Restricts a row to the variables `in_set` accepts, replacing
/// outside variables with their interval bounds and widening the row
/// bounds accordingly. The result is a *relaxation*: every assignment
/// feasible for the original system stays feasible, so both the bound
/// LPs (at sub-graph boundaries) and the windowed estimator (at window
/// boundaries) can use it without importing foreign variables.
pub fn restrict_row_to(
    row: &Row,
    in_set: impl Fn(usize) -> bool,
    intervals: &Intervals,
) -> RowRestriction {
    let terms = row.expr.terms();
    if terms.iter().all(|&(v, _)| in_set(v)) {
        return RowRestriction::Inside;
    }
    let mut expr = row.expr.clone();
    let mut lo = row.lo;
    let mut hi = row.hi;
    for &(v, c) in terms.iter().filter(|&&(v, _)| !in_set(v)) {
        expr.add_term(v, -c);
        let (vlo, vhi) = (intervals.lb[v], intervals.ub[v]);
        let (min_c, max_c) = if c >= 0.0 {
            (c * vlo, c * vhi)
        } else {
            (c * vhi, c * vlo)
        };
        if lo.is_finite() {
            lo -= max_c;
        }
        if hi.is_finite() {
            hi -= min_c;
        }
    }
    if expr.is_empty() || (!lo.is_finite() && !hi.is_finite()) {
        return RowRestriction::Vacuous;
    }
    RowRestriction::Relaxed(Row {
        expr,
        lo,
        hi,
        kind: row.kind,
    })
}

/// HC4-style interval tightening using arbitrary linear rows.
///
/// For each row `l ≤ Σ cᵢxᵢ + k ≤ u`, each variable's interval is
/// narrowed by the row residual under the other variables' extremes.
/// Only ever tightens; a narrowing that would invert an interval is
/// skipped (it signals a row corrupted by loss, not new information).
/// Returns the number of interval endpoints moved.
pub fn tighten_intervals_with_rows(
    rows: &[Row],
    intervals: &mut Intervals,
    rounds: usize,
) -> usize {
    let mut moved = 0;
    for _ in 0..rounds {
        let mut changed = false;
        for row in rows {
            let (total_lo, total_hi) = expr_interval(&row.expr, intervals);
            for &(v, c) in row.expr.terms() {
                if c.abs() < 1e-12 {
                    continue;
                }
                let (vlo, vhi) = (intervals.lb[v], intervals.ub[v]);
                let (c_lo, c_hi) = if c >= 0.0 {
                    (c * vlo, c * vhi)
                } else {
                    (c * vhi, c * vlo)
                };
                let rest_lo = total_lo - c_lo;
                let rest_hi = total_hi - c_hi;
                // c·x ∈ [row.lo − rest_hi, row.hi − rest_lo].
                let term_lo = if row.lo.is_finite() {
                    row.lo - rest_hi
                } else {
                    f64::NEG_INFINITY
                };
                let term_hi = if row.hi.is_finite() {
                    row.hi - rest_lo
                } else {
                    f64::INFINITY
                };
                let (x_lo, x_hi) = if c >= 0.0 {
                    (term_lo / c, term_hi / c)
                } else {
                    (term_hi / c, term_lo / c)
                };
                if x_lo > intervals.lb[v] + 1e-9 && x_lo <= intervals.ub[v] {
                    intervals.lb[v] = x_lo;
                    moved += 1;
                    changed = true;
                }
                if x_hi < intervals.ub[v] - 1e-9 && x_hi >= intervals.lb[v] {
                    intervals.ub[v] = x_hi;
                    moved += 1;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    moved
}

/// Interval-arithmetic range of an affine expression under the current
/// variable intervals.
pub fn expr_interval(expr: &LinExpr, intervals: &Intervals) -> (f64, f64) {
    let mut lo = expr.constant();
    let mut hi = expr.constant();
    for &(v, c) in expr.terms() {
        let (vlo, vhi) = (intervals.lb[v], intervals.ub[v]);
        if c >= 0.0 {
            lo += c * vlo;
            hi += c * vhi;
        } else {
            lo += c * vhi;
            hi += c * vlo;
        }
    }
    (lo, hi)
}

/// Skips rows with no unknowns (their truth is already determined by
/// sink-side knowledge and, for a valid trace, holds automatically).
fn push_row(system: &mut ConstraintSystem, row: Row) {
    if !row.expr.is_empty() {
        system.rows.push(row);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interval::propagate;
    use domo_net::{run_simulation, NetworkConfig};

    fn system_for(seed: u64) -> (TraceView, Intervals, ConstraintSystem) {
        let trace = run_simulation(&NetworkConfig::small(25, seed));
        let view = TraceView::new(trace.packets.clone());
        let opts = ConstraintOptions::default();
        let intervals = propagate(&view, opts.omega_ms, opts.propagation_rounds);
        let subset: Vec<usize> = (0..view.num_packets()).collect();
        let system = build_constraints(&view, &subset, &intervals, &opts);
        (view, intervals, system)
    }

    /// Evaluate a row at the ground-truth point; every emitted row with
    /// kind ≠ SumUpper must hold (SumUpper may break under loss).
    #[test]
    fn rows_hold_at_ground_truth() {
        let trace = run_simulation(&NetworkConfig::small(25, 11));
        let view = TraceView::new(trace.packets.clone());
        let opts = ConstraintOptions::default();
        let intervals = propagate(&view, opts.omega_ms, opts.propagation_rounds);
        let subset: Vec<usize> = (0..view.num_packets()).collect();
        let system = build_constraints(&view, &subset, &intervals, &opts);

        // Assemble the ground-truth variable assignment.
        let mut x = vec![0.0; view.num_vars()];
        for (v, hr) in view.vars().iter().enumerate() {
            let pid = view.packet(hr.packet).pid;
            x[v] = trace.truth(pid).unwrap()[hr.hop].as_millis_f64();
        }

        let mut violations_upper = 0usize;
        for row in &system.rows {
            let val = row.expr.eval(&x);
            let ok = val >= row.lo - 1e-6 && val <= row.hi + 1e-6;
            match row.kind {
                ConstraintKind::SumUpper => {
                    if !ok {
                        violations_upper += 1;
                    }
                }
                _ => assert!(
                    ok,
                    "{:?} row violated at truth: {val} not in [{}, {}]",
                    row.kind, row.lo, row.hi
                ),
            }
        }
        // The loss-sensitive constraint may break occasionally, but with
        // a ~98% delivery ratio it should hold for almost all packets.
        let upper_total = system.count(ConstraintKind::SumUpper).max(1);
        assert!(
            (violations_upper as f64) < 0.10 * upper_total as f64,
            "{violations_upper}/{upper_total} SumUpper rows violated"
        );
    }

    #[test]
    fn all_families_are_emitted() {
        let (_, _, system) = system_for(12);
        assert!(system.count(ConstraintKind::Order) > 0);
        assert!(system.count(ConstraintKind::FifoArrival) > 0);
        assert!(system.count(ConstraintKind::FifoDeparture) > 0);
        assert!(system.count(ConstraintKind::SumLower) > 0);
        assert!(system.count(ConstraintKind::SumUpper) > 0);
    }

    #[test]
    fn decided_and_undecided_pairs_coexist() {
        let (_, _, system) = system_for(13);
        let decided = system.count(ConstraintKind::FifoDeparture);
        assert!(decided > 0, "some pairs must be decided");
        assert!(
            !system.undecided_pairs.is_empty(),
            "congested nodes must leave some pairs undecided"
        );
    }

    #[test]
    fn subset_restricts_rows() {
        let trace = run_simulation(&NetworkConfig::small(25, 14));
        let view = TraceView::new(trace.packets.clone());
        let opts = ConstraintOptions::default();
        let intervals = propagate(&view, opts.omega_ms, opts.propagation_rounds);
        let all: Vec<usize> = (0..view.num_packets()).collect();
        let half: Vec<usize> = (0..view.num_packets() / 2).collect();
        let sys_all = build_constraints(&view, &all, &intervals, &opts);
        let sys_half = build_constraints(&view, &half, &intervals, &opts);
        assert!(sys_half.rows.len() < sys_all.rows.len());
        assert!(sys_half.count(ConstraintKind::Order) < sys_all.count(ConstraintKind::Order));
    }

    #[test]
    fn disabling_families_works() {
        let trace = run_simulation(&NetworkConfig::small(16, 15));
        let view = TraceView::new(trace.packets.clone());
        let opts = ConstraintOptions {
            use_fifo: false,
            use_upper_sum: false,
            ..ConstraintOptions::default()
        };
        let intervals = propagate(&view, opts.omega_ms, opts.propagation_rounds);
        let subset: Vec<usize> = (0..view.num_packets()).collect();
        let system = build_constraints(&view, &subset, &intervals, &opts);
        assert_eq!(system.count(ConstraintKind::FifoArrival), 0);
        assert_eq!(system.count(ConstraintKind::SumUpper), 0);
        assert!(system.undecided_pairs.is_empty());
        assert!(system.count(ConstraintKind::SumLower) > 0);
    }
}
