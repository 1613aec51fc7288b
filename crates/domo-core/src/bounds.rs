//! Upper and lower bounds of the unknown arrival times (paper §IV.C).
//!
//! For each targeted unknown `t`, Domo solves `min t` and `max t`
//! subject to the constraint system — but over a **sub-graph** of the
//! constraint graph only: a BFS ball around the target, boundary-tuned
//! with balanced label propagation so few constraint edges are cut
//! (`domo-graph`). Constraints that still cross the boundary are not
//! discarded: outside variables are replaced by their interval bounds,
//! which *relaxes* the row, keeping the computed bounds sound while
//! retaining most of the cut constraints' information.

use crate::constraints::{build_constraints, ConstraintOptions, ConstraintSystem};
use crate::interval::{propagate, Intervals};
use crate::lowering::LocalProblem;
use crate::view::TraceView;
use domo_graph::{extract_ball, refine, BlpOptions, Graph};
use domo_obs::LazyCounter;
use domo_solver::{try_solve_warm, QpBuilder, Settings};
use std::time::Duration;

// Bound-solver telemetry, cumulative across runs.
static OBS_LP_SOLVES: LazyCounter = LazyCounter::new("domo_bounds_lp_solves_total", &[]);
static OBS_UNCONVERGED: LazyCounter = LazyCounter::new("domo_bounds_unconverged_lps_total", &[]);

/// How the per-target bounds are computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundMethod {
    /// The paper's method: sub-graph extraction plus two LPs per target.
    SubgraphLp,
    /// Interval/HC4 propagation only (fast ablation baseline; the LP
    /// refinement is skipped).
    PropagationOnly,
}

/// Configuration of the bound solver.
#[derive(Debug, Clone)]
pub struct BoundsConfig {
    /// Constraint-construction options.
    pub constraints: ConstraintOptions,
    /// Number of vertices in each extracted sub-graph (the paper's
    /// *graph cut size*).
    pub graph_cut_size: usize,
    /// Tune sub-graph boundaries with balanced label propagation.
    pub use_blp: bool,
    /// Bound computation method.
    pub method: BoundMethod,
    /// HC4 pre-tightening rounds over the full row set before any LP.
    pub pre_tighten_rounds: usize,
    /// Worker threads for the per-target LPs (they are independent;
    /// results are identical for any thread count).
    pub threads: usize,
    /// ADMM settings for the per-target LPs. Bound quality is absolute
    /// (the paper reports ms), so the defaults drive `eps_abs`.
    pub solver: Settings,
}

impl Default for BoundsConfig {
    fn default() -> Self {
        Self {
            // Constraint (6) is loss-sensitive, but the provable-
            // inconsistency pruning in `build_constraints` removes the
            // corrupted rows, so bounds keep it (as the paper does).
            constraints: ConstraintOptions::default(),
            graph_cut_size: 150,
            use_blp: true,
            method: BoundMethod::SubgraphLp,
            pre_tighten_rounds: 3,
            threads: 1,
            solver: Settings {
                max_iterations: 2500,
                eps_abs: 2e-4,
                eps_rel: 1e-6,
                ..Settings::default()
            },
        }
    }
}

/// Statistics of a bound-solver run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BoundsStats {
    /// Targets processed.
    pub targets: usize,
    /// LP solves executed (2 per target).
    pub lp_solves: usize,
    /// Total cut edges before BLP refinement.
    pub cut_before: u64,
    /// Total cut edges after BLP refinement.
    pub cut_after: u64,
    /// LP solves that failed to converge (interval fallback used).
    pub unconverged_lps: usize,
    /// Worker threads that panicked; their targets fell back to the
    /// propagated intervals instead of aborting the run.
    pub failed_workers: usize,
    /// Solver time summed over the LPs (with several threads this can
    /// exceed the wall time of the run).
    pub solve_time: Duration,
}

/// Why a bound run could not start.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BoundsError {
    /// A configuration field is out of its valid range.
    BadConfig(String),
    /// A requested target variable does not exist.
    TargetOutOfRange {
        /// The offending target.
        target: usize,
        /// Unknowns in the view.
        num_vars: usize,
    },
}

impl std::fmt::Display for BoundsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::BadConfig(msg) => write!(f, "{msg}"),
            Self::TargetOutOfRange { target, num_vars } => {
                write!(f, "target {target} out of range ({num_vars} vars)")
            }
        }
    }
}

impl std::error::Error for BoundsError {}

/// Bounds per variable (only targeted variables are `Some`).
#[derive(Debug, Clone)]
pub struct Bounds {
    /// Lower bounds (ms, global axis).
    pub lb: Vec<Option<f64>>,
    /// Upper bounds (ms, global axis).
    pub ub: Vec<Option<f64>>,
    /// Run statistics.
    pub stats: BoundsStats,
}

impl Bounds {
    /// The bound pair of a variable, if computed.
    pub fn of(&self, var: usize) -> Option<(f64, f64)> {
        match (
            self.lb.get(var).copied().flatten(),
            self.ub.get(var).copied().flatten(),
        ) {
            (Some(l), Some(u)) => Some((l, u)),
            _ => None,
        }
    }

    /// Mean bound width over the computed targets (the paper's bound
    /// accuracy metric), or `None` when nothing was computed.
    pub fn mean_width(&self) -> Option<f64> {
        let widths: Vec<f64> = self
            .lb
            .iter()
            .zip(&self.ub)
            .filter_map(|(l, u)| Some(u.as_ref()? - l.as_ref()?))
            .collect();
        domo_util::stats::mean(&widths)
    }
}

/// Computes bounds for the requested target variables.
///
/// # Panics
///
/// Panics if a target index is out of range or `graph_cut_size == 0`.
///
/// # Examples
///
/// ```
/// use domo_core::{bounds::{bounds_for, BoundsConfig}, view::TraceView};
///
/// let trace = domo_net::run_simulation(&domo_net::NetworkConfig::small(9, 1));
/// let view = TraceView::new(trace.packets.clone());
/// let targets: Vec<usize> = (0..view.num_vars().min(3)).collect();
/// let b = bounds_for(&view, &BoundsConfig::default(), &targets);
/// for &t in &targets {
///     let (lo, hi) = b.of(t).unwrap();
///     assert!(lo <= hi);
/// }
/// ```
pub fn bounds_for(view: &TraceView, cfg: &BoundsConfig, targets: &[usize]) -> Bounds {
    match try_bounds_for(view, cfg, targets) {
        Ok(b) => b,
        Err(e) => panic!("{e}"),
    }
}

/// Non-panicking variant of [`bounds_for`]: bad inputs come back as a
/// [`BoundsError`]. Per-target solver trouble (unconverged or
/// infeasible LPs, even a panicking worker thread) never fails the
/// run — affected targets degrade to their propagated intervals, with
/// counts in [`BoundsStats`].
///
/// # Errors
///
/// [`BoundsError::BadConfig`] when `graph_cut_size == 0`;
/// [`BoundsError::TargetOutOfRange`] for a target `≥` the number of
/// unknowns.
pub fn try_bounds_for(
    view: &TraceView,
    cfg: &BoundsConfig,
    targets: &[usize],
) -> Result<Bounds, BoundsError> {
    if cfg.graph_cut_size == 0 {
        return Err(BoundsError::BadConfig(
            "graph cut size must be positive".into(),
        ));
    }
    let n = view.num_vars();
    for &t in targets {
        if t >= n {
            return Err(BoundsError::TargetOutOfRange {
                target: t,
                num_vars: n,
            });
        }
    }

    let mut intervals = propagate(
        view,
        cfg.constraints.omega_ms,
        cfg.constraints.propagation_rounds,
    );
    let all: Vec<usize> = (0..view.num_packets()).collect();
    let system = build_constraints(view, &all, &intervals, &cfg.constraints);
    // HC4 pre-tightening pushes the sum-of-delays information into the
    // boxes, which both tightens the final bounds and lets the LPs
    // converge in far fewer iterations.
    crate::constraints::tighten_intervals_with_rows(
        &system.rows,
        &mut intervals,
        cfg.pre_tighten_rounds,
    );

    if cfg.method == BoundMethod::PropagationOnly {
        let mut lb = vec![None; n];
        let mut ub = vec![None; n];
        let mut stats = BoundsStats::default();
        for &t in targets {
            lb[t] = Some(intervals.lb[t]);
            ub[t] = Some(intervals.ub[t]);
            stats.targets += 1;
        }
        return Ok(Bounds { lb, ub, stats });
    }

    let graph = constraint_graph(n, &system);

    // Row index per variable for fast sub-graph row collection.
    let mut rows_of_var: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (ri, row) in system.rows.iter().enumerate() {
        for v in row.expr.vars() {
            rows_of_var[v].push(ri);
        }
    }

    let mut lb = vec![None; n];
    let mut ub = vec![None; n];
    let mut stats = BoundsStats::default();

    // Per-target solves are independent; spread them over threads when
    // configured. Results merge by target index, so the outcome is
    // bit-identical regardless of thread count.
    let threads = cfg.threads.max(1).min(targets.len().max(1));
    let chunk = targets.len().div_ceil(threads.max(1)).max(1);
    let results: Vec<TargetResult> = if threads <= 1 {
        targets
            .iter()
            .map(|&t| solve_target(view, cfg, &intervals, &system, &graph, &rows_of_var, t))
            .collect()
    } else {
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for part in targets.chunks(chunk) {
                let (intervals, system, graph, rows_of_var) =
                    (&intervals, &system, &graph, &rows_of_var);
                let handle = scope.spawn(move || {
                    part.iter()
                        .map(|&t| solve_target(view, cfg, intervals, system, graph, rows_of_var, t))
                        .collect::<Vec<_>>()
                });
                handles.push((part, handle));
            }
            let mut results = Vec::with_capacity(targets.len());
            for (part, h) in handles {
                match h.join() {
                    Ok(rs) => results.extend(rs),
                    Err(_) => {
                        // A panicking worker loses its LP results, not
                        // the run: its targets degrade to the
                        // propagated intervals.
                        stats.failed_workers += 1;
                        results.extend(part.iter().map(|&t| TargetResult {
                            target: t,
                            lb: intervals.lb[t],
                            ub: intervals.ub[t],
                            cut_before: 0,
                            cut_after: 0,
                            unconverged: 2,
                            solve_time: Duration::ZERO,
                        }));
                    }
                }
            }
            results
        })
    };

    for r in results {
        stats.cut_before += r.cut_before;
        stats.cut_after += r.cut_after;
        stats.lp_solves += 2;
        stats.targets += 1;
        stats.unconverged_lps += r.unconverged;
        stats.solve_time += r.solve_time;
        OBS_LP_SOLVES.add(2);
        OBS_UNCONVERGED.add(r.unconverged as u64);
        lb[r.target] = Some(r.lb);
        ub[r.target] = Some(r.ub);
    }

    Ok(Bounds { lb, ub, stats })
}

/// Computes bounds for every unknown (small traces / tests).
pub fn bounds_all(view: &TraceView, cfg: &BoundsConfig) -> Bounds {
    let targets: Vec<usize> = (0..view.num_vars()).collect();
    bounds_for(view, cfg, &targets)
}

/// Result of one target's sub-graph extraction and LP pair.
struct TargetResult {
    target: usize,
    lb: f64,
    ub: f64,
    cut_before: u64,
    cut_after: u64,
    unconverged: usize,
    solve_time: Duration,
}

/// Extracts the sub-graph around `target`, solves the min/max LPs, and
/// intersects with the propagated intervals.
fn solve_target(
    view: &TraceView,
    cfg: &BoundsConfig,
    intervals: &Intervals,
    system: &ConstraintSystem,
    graph: &domo_graph::Graph,
    rows_of_var: &[Vec<usize>],
    target: usize,
) -> TargetResult {
    let _span = domo_obs::span!("domo_bounds_target_seconds");
    let n = view.num_vars();
    let mut sub = extract_ball(graph, target, cfg.graph_cut_size.min(n));
    let (cut_before, cut_after) = if cfg.use_blp {
        let blp_stats = refine(graph, &mut sub, &BlpOptions::default());
        (blp_stats.cut_before, blp_stats.cut_after)
    } else {
        let cut = sub.cut_edges(graph);
        (cut, cut)
    };

    // Collect the rows touching the sub-graph, deduplicated.
    let mut row_ids: Vec<usize> = sub
        .vertices
        .iter()
        .flat_map(|&v| rows_of_var[v].iter().copied())
        .collect();
    row_ids.sort_unstable();
    row_ids.dedup();

    let local = LocalProblem::new(&sub.vertices, intervals.lb[target]);
    let (lo_val, hi_val, solve_time) = solve_pair(
        cfg,
        intervals,
        &local,
        system,
        &row_ids,
        &sub.in_set,
        target,
    );
    let unconverged =
        usize::from(lo_val == f64::NEG_INFINITY) + usize::from(hi_val == f64::INFINITY);

    // Intersect with the propagated intervals (always sound).
    let l = lo_val.max(intervals.lb[target]);
    let h = hi_val.min(intervals.ub[target]);
    let (lb, ub) = if l <= h {
        (l, h)
    } else {
        (intervals.lb[target], intervals.ub[target])
    };
    TargetResult {
        target,
        lb,
        ub,
        cut_before,
        cut_after,
        unconverged,
        solve_time,
    }
}

/// Builds the constraint graph (paper §IV.C): one vertex per unknown, an
/// edge wherever a constraint couples two unknowns. Rows with many
/// variables contribute a chain plus a star to the first variable, which
/// preserves connectivity without quadratic edge blow-up.
pub fn constraint_graph(num_vars: usize, system: &ConstraintSystem) -> Graph {
    let mut g = Graph::new(num_vars);
    for row in &system.rows {
        let vars: Vec<usize> = row.expr.vars().collect();
        if vars.len() <= 8 {
            for (i, &a) in vars.iter().enumerate() {
                for &b in vars.iter().skip(i + 1) {
                    g.add_edge(a, b);
                }
            }
        } else {
            for w in vars.windows(2) {
                g.add_edge(w[0], w[1]);
            }
            for &v in vars.iter().skip(2) {
                g.add_edge(vars[0], v);
            }
        }
    }
    g
}

/// Solves `min target` and `max target` over the sub-graph rows;
/// returns the two optima and the solver time they took.
fn solve_pair(
    cfg: &BoundsConfig,
    intervals: &Intervals,
    local: &LocalProblem,
    system: &ConstraintSystem,
    row_ids: &[usize],
    in_set: &[bool],
    target: usize,
) -> (f64, f64, Duration) {
    // Boxes, rows and warm start are the same for both directions.
    let mut rows = QpBuilder::new(local.num_vars());
    local.add_boxes(&mut rows, intervals);
    for &ri in row_ids {
        let row = &system.rows[ri];
        match crate::constraints::restrict_row_to(row, |v| in_set[v], intervals) {
            crate::constraints::RowRestriction::Inside => local.add_row(&mut rows, row),
            crate::constraints::RowRestriction::Relaxed(new_row) => {
                local.add_row(&mut rows, &new_row)
            }
            crate::constraints::RowRestriction::Vacuous => {}
        }
    }
    // Warm-starting at the HC4-tightened interval midpoints cuts the
    // iteration count by roughly 5× (the boxes already surround the
    // optimum tightly).
    let warm: Vec<f64> = (0..local.num_vars())
        .map(|lv| local.from_ms(intervals.midpoint(local.global(lv))))
        .collect();

    let mut solve_time = Duration::ZERO;
    let mut solve = |sign: f64| -> Option<f64> {
        // The target is in its own sub-graph by construction; if that
        // ever broke, fall back to the propagated interval rather than
        // aborting the run.
        let lt = local.local(target)?;
        let mut b = rows.clone();
        b.add_linear(lt, sign);
        // A whisper of curvature keeps the LP's ADMM iterates stable.
        b.add_quadratic(lt, lt, 1e-9);
        let problem = b.build().ok()?;
        let sol = try_solve_warm(&problem, &cfg.solver, Some(&warm)).ok()?;
        solve_time += sol.solve_time;
        // An unconverged iterate is not a valid bound; the caller falls
        // back to the propagated interval (1 ms acceptance matches the
        // paper's measurement resolution; window units are seconds).
        if sol.is_solved() || sol.primal_residual < 1e-3 {
            Some(local.to_ms(sol.x[lt]))
        } else {
            None
        }
    };
    let lo = solve(1.0).unwrap_or(f64::NEG_INFINITY);
    let hi = solve(-1.0).unwrap_or(f64::INFINITY);
    (lo, hi, solve_time)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraints::{ConstraintKind, Row};
    use crate::expr::LinExpr;
    use domo_net::{run_simulation, NetworkConfig};

    fn setup(seed: u64) -> (domo_net::NetworkTrace, TraceView) {
        let trace = run_simulation(&NetworkConfig::small(16, seed));
        let view = TraceView::new(trace.packets.clone());
        (trace, view)
    }

    #[test]
    fn bounds_contain_ground_truth_mostly() {
        let (trace, view) = setup(31);
        let targets: Vec<usize> = (0..view.num_vars()).step_by(7).collect();
        let cfg = BoundsConfig::default();
        let b = bounds_for(&view, &cfg, &targets);
        let mut inside = 0;
        let mut total = 0;
        for &t in &targets {
            let (lo, hi) = b.of(t).unwrap();
            assert!(lo <= hi + 1e-6);
            let hr = view.vars()[t];
            let truth = trace.truth(view.packet(hr.packet).pid).unwrap()[hr.hop].as_millis_f64();
            total += 1;
            if truth >= lo - 0.5 && truth <= hi + 0.5 {
                inside += 1;
            }
        }
        // The loss-sensitive upper sum constraint can exclude the truth
        // for the occasional packet; the overwhelming majority must hold.
        assert!(
            inside as f64 >= 0.95 * total as f64,
            "only {inside}/{total} truths inside bounds"
        );
    }

    #[test]
    fn solve_time_is_the_lps_share_of_the_run() {
        let (_, view) = setup(33);
        let targets: Vec<usize> = (0..view.num_vars()).step_by(9).collect();
        let clock = std::time::Instant::now();
        let b = bounds_for(&view, &BoundsConfig::default(), &targets);
        let wall = clock.elapsed();
        assert_eq!(b.stats.lp_solves, 2 * targets.len());
        assert!(b.stats.solve_time > Duration::ZERO);
        assert!(b.stats.solve_time <= wall, "single-threaded by default");
    }

    #[test]
    fn bounds_tighter_than_intervals() {
        let (_, view) = setup(32);
        let cfg = BoundsConfig::default();
        let targets: Vec<usize> = (0..view.num_vars()).step_by(5).collect();
        let b = bounds_for(&view, &cfg, &targets);
        let intervals = propagate(&view, cfg.constraints.omega_ms, 3);
        let mut improved = 0;
        for &t in &targets {
            let (lo, hi) = b.of(t).unwrap();
            let width = hi - lo;
            let iv_width = intervals.width(t);
            assert!(width <= iv_width + 1e-6, "bounds can never be wider");
            if width < iv_width - 0.5 {
                improved += 1;
            }
        }
        assert!(
            improved > 0,
            "the LP should tighten at least some intervals"
        );
    }

    #[test]
    fn larger_cut_size_never_hurts_on_average() {
        let (_, view) = setup(33);
        let targets: Vec<usize> = (0..view.num_vars()).step_by(11).collect();
        let small = bounds_for(
            &view,
            &BoundsConfig {
                graph_cut_size: 10,
                ..BoundsConfig::default()
            },
            &targets,
        );
        let large = bounds_for(
            &view,
            &BoundsConfig {
                graph_cut_size: 400,
                ..BoundsConfig::default()
            },
            &targets,
        );
        let w_small = small.mean_width().unwrap();
        let w_large = large.mean_width().unwrap();
        assert!(
            w_large <= w_small + 0.5,
            "bigger sub-graphs should tighten bounds: {w_large:.2} vs {w_small:.2}"
        );
    }

    #[test]
    fn threaded_bounds_match_sequential() {
        let (_, view) = setup(35);
        let targets: Vec<usize> = (0..view.num_vars()).step_by(13).collect();
        let seq = bounds_for(&view, &BoundsConfig::default(), &targets);
        let par = bounds_for(
            &view,
            &BoundsConfig {
                threads: 3,
                ..BoundsConfig::default()
            },
            &targets,
        );
        for &t in &targets {
            assert_eq!(seq.of(t), par.of(t), "thread count must not change results");
        }
        assert_eq!(seq.stats.targets, par.stats.targets);
        assert_eq!(seq.stats.cut_after, par.stats.cut_after);
    }

    #[test]
    fn blp_reduces_cut_edges() {
        let (_, view) = setup(34);
        let targets: Vec<usize> = (0..view.num_vars()).step_by(9).collect();
        let with = bounds_for(
            &view,
            &BoundsConfig {
                graph_cut_size: 30,
                use_blp: true,
                ..BoundsConfig::default()
            },
            &targets,
        );
        assert!(with.stats.cut_after <= with.stats.cut_before);
    }

    #[test]
    fn restrict_row_widens_correctly() {
        use crate::constraints::{restrict_row_to, RowRestriction};
        // Row: 1 ≤ x0 − x1 ≤ 2 with x1 outside, x1 ∈ [10, 20].
        let mut expr = LinExpr::var(0);
        expr = expr.sub(&LinExpr::var(1));
        let row = Row {
            expr,
            lo: 1.0,
            hi: 2.0,
            kind: ConstraintKind::Order,
        };
        let intervals = Intervals {
            lb: vec![0.0, 10.0],
            ub: vec![100.0, 20.0],
        };
        let in_set = [true, false];
        match restrict_row_to(&row, |v| in_set[v], &intervals) {
            RowRestriction::Relaxed(r) => {
                // x0 ∈ [1 + x1, 2 + x1] ⊆ [11, 22].
                assert_eq!(r.expr.terms(), vec![(0, 1.0)]);
                assert_eq!(r.lo, 11.0);
                assert_eq!(r.hi, 22.0);
            }
            _ => panic!("expected a relaxed row"),
        }
    }

    #[test]
    fn restrict_row_detects_inside_and_vacuous() {
        use crate::constraints::{restrict_row_to, RowRestriction};
        let row = Row {
            expr: LinExpr::var(0),
            lo: 0.0,
            hi: 1.0,
            kind: ConstraintKind::Order,
        };
        let intervals = Intervals {
            lb: vec![0.0],
            ub: vec![1.0],
        };
        assert!(matches!(
            restrict_row_to(&row, |_| true, &intervals),
            RowRestriction::Inside
        ));
        assert!(matches!(
            restrict_row_to(&row, |_| false, &intervals),
            RowRestriction::Vacuous
        ));
    }

    #[test]
    fn constraint_graph_connects_row_variables() {
        let mut expr = LinExpr::var(0);
        expr = expr.add(&LinExpr::var(1));
        let system = ConstraintSystem {
            rows: vec![Row {
                expr,
                lo: 0.0,
                hi: 1.0,
                kind: ConstraintKind::Order,
            }],
            undecided_pairs: Vec::new(),
        };
        let g = constraint_graph(3, &system);
        assert_eq!(g.edge_weight(0, 1), 1);
        assert_eq!(g.degree(2), 0);
    }

    #[test]
    fn try_bounds_rejects_bad_inputs_without_panicking() {
        let (_, view) = setup(36);
        let n = view.num_vars();
        let e = try_bounds_for(&view, &BoundsConfig::default(), &[n]).unwrap_err();
        assert_eq!(
            e,
            BoundsError::TargetOutOfRange {
                target: n,
                num_vars: n
            }
        );
        assert!(e.to_string().contains("out of range"));
        let bad = BoundsConfig {
            graph_cut_size: 0,
            ..BoundsConfig::default()
        };
        assert!(matches!(
            try_bounds_for(&view, &bad, &[0]),
            Err(BoundsError::BadConfig(_))
        ));
        // The panicking wrapper preserves the old behavior.
        let caught = std::panic::catch_unwind(|| bounds_for(&view, &BoundsConfig::default(), &[n]));
        assert!(caught.is_err());
    }

    #[test]
    fn mean_width_none_when_empty() {
        let b = Bounds {
            lb: vec![None],
            ub: vec![None],
            stats: BoundsStats::default(),
        };
        assert!(b.mean_width().is_none());
        assert!(b.of(0).is_none());
    }
}
