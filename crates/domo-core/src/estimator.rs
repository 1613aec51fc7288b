//! Estimated values of the unknown arrival times (paper §IV.B).
//!
//! Domo picks, among all assignments satisfying the constraints, the one
//! minimizing the summed variance of per-hop delays of temporally-close
//! packets at each node — a convex QP once the FIFO constraints are
//! linearized or semidefinite-relaxed. To scale to full traces the
//! solve runs over **overlapping time windows**: each window is solved
//! independently and only the estimates away from the window boundary
//! are kept (the *effective time window ratio* of §IV.B, Figure 3).
//!
//! Two FIFO treatments are provided:
//!
//! * [`FifoMode::Linearized`] — pairs whose order the interval oracle
//!   decides become linear rows; undecided pairs are dropped. Fast; the
//!   default for large traces.
//! * [`FifoMode::SdpRelaxation`] — the paper's relaxation: the window's
//!   unknowns `u` are lifted to `Z = [[U, u], [uᵀ, 1]] ⪰ 0`, the
//!   variance objective becomes linear in `(U, u)`, and every undecided
//!   FIFO product constraint becomes linear in `U`. Exact per the paper
//!   but cubically more expensive; intended for small windows.
//!
//! # Parallel window execution
//!
//! Every window is an independent solve with a disjoint commit zone, so
//! the slide schedule is partitioned into **chains** of
//! [`EstimatorConfig::chain_windows`] consecutive windows. Warm starts
//! flow only *within* a chain (each window's solution seeds its
//! overlapping successor); chains never exchange state, so they can run
//! on [`EstimatorConfig::threads`] scoped worker threads and the merged
//! result is **bit-identical for every thread count** — the chain
//! boundaries depend on the configuration alone, never on the
//! scheduling. See `DESIGN.md` §10 for the full determinism argument.
//!
//! # Committing a prefix
//!
//! [`try_estimate_prefix`] estimates only the oldest packets of a view
//! (the streaming wrapper emits the older half of its buffer). It plans
//! the same schedule and the same chains as a whole-view run, then runs
//! each chain only up to its last window whose commit zone reaches into
//! the prefix. Every window it runs sees exactly the inputs, warm seed
//! included, that it sees in the whole-view run, so the prefix's
//! estimates are bit-identical to that run's.

use crate::constraints::{
    build_constraints_over, restrict_row_to, ConstraintKind, ConstraintOptions, ConstraintSystem,
    FifoPair, RowRestriction,
};
use crate::expr::LinExpr;
use crate::interval::{propagate, Intervals};
use crate::lowering::LocalProblem;
use crate::view::TraceView;
use domo_obs::LazyCounter;
use domo_solver::svec::svec_index;
use domo_solver::{try_solve_warm, QpBuilder, Settings};
use std::collections::HashMap;
use std::time::Duration;

// Pipeline telemetry mirroring the per-run `EstimatorStats`, but
// cumulative across runs and scrapeable while a service is live.
static OBS_WINDOWS: LazyCounter = LazyCounter::new("domo_estimator_windows_total", &[]);
static OBS_CHAINS: LazyCounter = LazyCounter::new("domo_estimator_chains_total", &[]);
static OBS_WARM_HITS: LazyCounter = LazyCounter::new("domo_estimator_warm_hits_total", &[]);
static OBS_LADDER_UPPER_SUM: LazyCounter = LazyCounter::new(
    "domo_estimator_ladder_fallbacks_total",
    &[("rung", "upper_sum")],
);
static OBS_LADDER_FIFO: LazyCounter =
    LazyCounter::new("domo_estimator_ladder_fallbacks_total", &[("rung", "fifo")]);
static OBS_LADDER_MIDPOINT: LazyCounter = LazyCounter::new(
    "domo_estimator_ladder_fallbacks_total",
    &[("rung", "midpoint")],
);
static OBS_SOLVER_ERRORS: LazyCounter = LazyCounter::new("domo_estimator_solver_errors_total", &[]);
static OBS_FAILED_WORKERS: LazyCounter =
    LazyCounter::new("domo_estimator_failed_workers_total", &[]);

/// How FIFO constraints enter the optimization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FifoMode {
    /// Ignore FIFO constraints entirely (ablation).
    Off,
    /// Linear rows for decided pairs; undecided pairs dropped.
    Linearized,
    /// Decided pairs linear; undecided pairs via the paper's
    /// semidefinite lifting of the whole window.
    SdpRelaxation,
}

/// Configuration of the windowed estimator.
#[derive(Debug, Clone)]
pub struct EstimatorConfig {
    /// Constraint-construction options.
    pub constraints: ConstraintOptions,
    /// FIFO treatment.
    pub fifo_mode: FifoMode,
    /// Packets per window.
    pub window_packets: usize,
    /// Fraction of each window whose estimates are kept (§IV.B; 0.5 in
    /// the paper's implementation).
    pub effective_window_ratio: f64,
    /// Only packet pairs generated within ε of each other enter the
    /// variance objective (§IV.B).
    pub epsilon_ms: f64,
    /// Each pass-through is paired with at most this many successors in
    /// the objective (keeps the QP sparse).
    pub pairs_per_packet: usize,
    /// Tiny pull toward the interval midpoint; regularizes windows with
    /// few objective terms.
    pub anchor_weight: f64,
    /// Windows with more unknowns than this fall back to the linearized
    /// FIFO treatment even in [`FifoMode::SdpRelaxation`].
    pub max_sdp_unknowns: usize,
    /// Worker threads for the window chains. Chains are independent and
    /// merge by window index, so the estimates are bit-identical for
    /// any thread count (mirrors `BoundsConfig::threads`).
    pub threads: usize,
    /// Reuse each window's solution as the ADMM warm start of its
    /// overlapping successor (within a chain). Warm starts change the
    /// iterate path, so estimates may differ from a cold run in the
    /// last solver-tolerance digits — but never across thread counts.
    pub warm_start: bool,
    /// Consecutive windows per scheduling chain, the unit both of
    /// parallel scheduling and of warm-start flow. Larger chains reuse
    /// more warm starts but cap the usable parallelism at
    /// `ceil(windows / chain_windows)` threads.
    pub chain_windows: usize,
    /// ADMM settings.
    pub solver: Settings,
}

impl Default for EstimatorConfig {
    fn default() -> Self {
        Self {
            constraints: ConstraintOptions::default(),
            fifo_mode: FifoMode::Linearized,
            window_packets: 48,
            effective_window_ratio: 0.5,
            epsilon_ms: 30_000.0,
            pairs_per_packet: 4,
            anchor_weight: 1e-4,
            max_sdp_unknowns: 24,
            threads: 1,
            warm_start: true,
            chain_windows: 4,
            solver: Settings {
                max_iterations: 2500,
                eps_abs: 1e-4,
                eps_rel: 1e-5,
                ..Settings::default()
            },
        }
    }
}

/// Execution statistics of one estimation run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EstimatorStats {
    /// Windows solved.
    pub windows: usize,
    /// Windows solved with the semidefinite lifting.
    pub sdp_windows: usize,
    /// Windows re-solved without the loss-sensitive upper sum rows.
    pub relaxed_retries: usize,
    /// Windows re-solved with the FIFO rows *also* dropped (last rung
    /// before the midpoint fallback; corrupted `S(p)` fields that slip
    /// the sanitizer land here).
    pub fifo_relaxed_windows: usize,
    /// Windows that never reached tolerance (midpoint fallback used).
    pub unsolved_windows: usize,
    /// Solve attempts the solver refused outright (failed factorization,
    /// malformed window problem) rather than merely not converging.
    pub solver_errors: usize,
    /// Scheduling chains executed. A whole-view run executes every
    /// chain of the plan, `ceil(windows / chain_windows)`; a
    /// [`try_estimate_prefix`] run only those that commit part of the
    /// prefix.
    pub chains: usize,
    /// Windows whose solve was seeded from the previous window's
    /// solution (only possible with `warm_start` and overlapping
    /// windows inside one chain).
    pub warm_hits: usize,
    /// Worker threads that panicked; their chains' commit zones fell
    /// back to interval midpoints instead of aborting the run.
    pub failed_workers: usize,
    /// Total ADMM iterations.
    pub total_iterations: usize,
    /// Wall-clock solver time.
    pub solve_time: Duration,
}

impl EstimatorStats {
    /// Accumulates another run's counters into `self` (used when
    /// merging per-chain statistics; counters add, times add).
    fn absorb(&mut self, other: &EstimatorStats) {
        self.windows += other.windows;
        self.sdp_windows += other.sdp_windows;
        self.relaxed_retries += other.relaxed_retries;
        self.fifo_relaxed_windows += other.fifo_relaxed_windows;
        self.unsolved_windows += other.unsolved_windows;
        self.solver_errors += other.solver_errors;
        self.chains += other.chains;
        self.warm_hits += other.warm_hits;
        self.failed_workers += other.failed_workers;
        self.total_iterations += other.total_iterations;
        self.solve_time += other.solve_time;
    }
}

/// Estimated arrival times, indexed like [`TraceView::vars`].
#[derive(Debug, Clone)]
pub struct Estimates {
    /// Per-variable estimates (ms, global axis); `None` only if the
    /// variable's packet never fell in a commit zone (cannot happen for
    /// full-trace runs).
    pub times_ms: Vec<Option<f64>>,
    /// Run statistics.
    pub stats: EstimatorStats,
}

impl Estimates {
    /// The estimate for a variable, if committed.
    pub fn time_of(&self, var: usize) -> Option<f64> {
        self.times_ms.get(var).copied().flatten()
    }
}

/// Why an estimation run could not start.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EstimatorError {
    /// A configuration field is out of its valid range.
    BadConfig(String),
}

impl std::fmt::Display for EstimatorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::BadConfig(msg) => write!(f, "bad estimator config: {msg}"),
        }
    }
}

impl std::error::Error for EstimatorError {}

/// Runs the windowed estimator over the whole trace view.
///
/// # Panics
///
/// Panics if `effective_window_ratio` is outside `(0, 1]` or
/// `window_packets == 0`; [`try_estimate`] returns those as errors
/// instead.
///
/// # Examples
///
/// ```
/// use domo_core::{estimator::{estimate, EstimatorConfig}, view::TraceView};
///
/// let trace = domo_net::run_simulation(&domo_net::NetworkConfig::small(16, 1));
/// let view = TraceView::new(trace.packets.clone());
/// let est = estimate(&view, &EstimatorConfig::default());
/// assert_eq!(est.times_ms.len(), view.num_vars());
/// ```
pub fn estimate(view: &TraceView, cfg: &EstimatorConfig) -> Estimates {
    match try_estimate(view, cfg) {
        Ok(est) => est,
        Err(e) => panic!("{e}"),
    }
}

/// Non-panicking variant of [`estimate`]: configuration problems come
/// back as [`EstimatorError`]; everything downstream (solver refusals,
/// non-convergence, infeasible windows) degrades through the fallback
/// ladder and is reported in [`EstimatorStats`], never panics.
///
/// # Errors
///
/// [`EstimatorError::BadConfig`] when `effective_window_ratio` is
/// outside `(0, 1]`, `window_packets == 0`, or `chain_windows == 0`.
pub fn try_estimate(view: &TraceView, cfg: &EstimatorConfig) -> Result<Estimates, EstimatorError> {
    try_estimate_prefix(view, cfg, view.num_packets())
}

/// Estimates the unknowns of the `commit` oldest packets of the view
/// (by `(gen_time, pid)`), with every packet of the view as context;
/// [`try_estimate`] is the case `commit = view.num_packets()`.
///
/// The schedule and its chains are planned exactly as for the whole
/// view. Each chain then runs its windows up to and including the last
/// one whose commit zone holds a prefix packet, and a chain that
/// commits no prefix packet does not run; a window's solve depends only
/// on its own packets and on its chain predecessors, so every estimate
/// this returns is bit-identical to the whole-view run's, for any
/// thread count. Variables of packets beyond the prefix stay `None`
/// unless a window that ran commits them.
///
/// # Errors
///
/// Same as [`try_estimate`].
///
/// # Examples
///
/// ```
/// use domo_core::estimator::{try_estimate, try_estimate_prefix, EstimatorConfig};
/// use domo_core::view::TraceView;
///
/// let trace = domo_net::run_simulation(&domo_net::NetworkConfig::small(16, 1));
/// let mut packets = trace.packets.clone();
/// packets.sort_by_key(|p| (p.gen_time, p.pid));
/// let view = TraceView::new(packets);
/// let cfg = EstimatorConfig::default();
/// let half = view.num_packets() / 2;
/// let whole = try_estimate(&view, &cfg)?;
/// let prefix = try_estimate_prefix(&view, &cfg, half)?;
/// assert!(prefix.stats.windows <= whole.stats.windows);
/// for (v, hop) in view.vars().iter().enumerate().filter(|(_, h)| h.packet < half) {
///     assert_eq!(prefix.time_of(v).map(f64::to_bits), whole.time_of(v).map(f64::to_bits));
/// }
/// # Ok::<(), domo_core::estimator::EstimatorError>(())
/// ```
pub fn try_estimate_prefix(
    view: &TraceView,
    cfg: &EstimatorConfig,
    commit: usize,
) -> Result<Estimates, EstimatorError> {
    if !(cfg.effective_window_ratio > 0.0 && cfg.effective_window_ratio <= 1.0) {
        return Err(EstimatorError::BadConfig(
            "effective window ratio must be in (0, 1]".into(),
        ));
    }
    if cfg.window_packets == 0 {
        return Err(EstimatorError::BadConfig(
            "window must hold at least one packet".into(),
        ));
    }
    if cfg.chain_windows == 0 {
        return Err(EstimatorError::BadConfig(
            "chain must hold at least one window".into(),
        ));
    }

    let intervals = propagate(
        view,
        cfg.constraints.omega_ms,
        cfg.constraints.propagation_rounds,
    );
    let mut times_ms: Vec<Option<f64>> = vec![None; view.num_vars()];
    let mut stats = EstimatorStats::default();

    // Commit zones tile the generation order, so the windows that commit
    // a prefix packet are a prefix of the schedule; cutting the schedule
    // there cuts only the tail of the last chain it reaches.
    let mut jobs = plan_windows(view, cfg);
    let mut planned = 0;
    let needed = jobs
        .iter()
        .take_while(|job| {
            let reaches_prefix = planned < commit;
            planned += job.commit.len();
            reaches_prefix
        })
        .count();
    jobs.truncate(needed);
    if jobs.is_empty() {
        return Ok(Estimates { times_ms, stats });
    }

    // Chains: the unit of scheduling AND of warm-start flow. Their
    // boundaries depend on the config alone, so any thread count
    // produces the same per-window solves and the same merged result.
    let chains: Vec<&[WindowJob]> = jobs.chunks(cfg.chain_windows).collect();
    let threads = cfg.threads.max(1).min(chains.len());
    let results: Vec<ChainResult> = if threads <= 1 {
        chains
            .iter()
            .map(|c| run_chain(view, cfg, &intervals, c))
            .collect()
    } else {
        let per_worker = chains.len().div_ceil(threads);
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for part in chains.chunks(per_worker) {
                let intervals = &intervals;
                let handle = scope.spawn(move || {
                    part.iter()
                        .map(|c| run_chain(view, cfg, intervals, c))
                        .collect::<Vec<_>>()
                });
                handles.push((part, handle));
            }
            let mut results = Vec::with_capacity(chains.len());
            for (part, h) in handles {
                match h.join() {
                    Ok(rs) => results.extend(rs),
                    Err(_) => {
                        // A panicking worker loses its solves, not the
                        // run: its chains' commit zones degrade to the
                        // propagated interval midpoints.
                        stats.failed_workers += 1;
                        OBS_FAILED_WORKERS.inc();
                        results.extend(part.iter().map(|c| chain_fallback(view, &intervals, c)));
                    }
                }
            }
            results
        })
    };

    for r in results {
        for (v, t) in r.commits {
            times_ms[v] = Some(t);
        }
        stats.absorb(&r.stats);
    }
    stats.chains = chains.len();
    OBS_CHAINS.add(chains.len() as u64);

    Ok(Estimates { times_ms, stats })
}

/// One window's solve unit: the packets it sees and the disjoint slice
/// of the slide schedule it commits.
#[derive(Debug, Clone)]
struct WindowJob {
    window: Vec<usize>,
    commit: Vec<usize>,
}

/// Partitions the slide schedule of §IV.B into independent
/// (window, commit-zone) jobs. Commit zones are disjoint and cover
/// every packet exactly once.
fn plan_windows(view: &TraceView, cfg: &EstimatorConfig) -> Vec<WindowJob> {
    // Packets in generation order; windows slide over this order.
    let mut order: Vec<usize> = (0..view.num_packets()).collect();
    order.sort_by_key(|&i| (view.packet(i).gen_time, view.packet(i).pid));

    let n = order.len();
    if n == 0 {
        return Vec::new();
    }
    let w = cfg.window_packets.min(n);
    let keep = ((w as f64 * cfg.effective_window_ratio).round() as usize).clamp(1, w);
    let lead = (w - keep) / 2;

    let mut jobs = Vec::new();
    let mut next_commit = 0usize;
    let mut start = 0usize;
    while next_commit < n {
        let end = (start + w).min(n);
        // Commit zone: the middle `keep` of the window, stretched to the
        // trace edges for the first and last windows.
        let commit_hi = if end == n {
            n
        } else {
            (start + lead + keep).min(n)
        };
        jobs.push(WindowJob {
            window: order[start..end].to_vec(),
            commit: order[next_commit..commit_hi].to_vec(),
        });
        next_commit = commit_hi;
        start += keep;
    }
    jobs
}

/// Committed `(variable, estimate)` pairs plus statistics of one chain.
struct ChainResult {
    commits: Vec<(usize, f64)>,
    stats: EstimatorStats,
}

/// A window's solution (ms) as `(global variable, value)` pairs sorted
/// by variable: the warm seed of its chain successor.
type WarmSeed = Vec<(usize, f64)>;

/// The seed's value for `var`, if the seeding window solved it.
fn seed_value(seed: &[(usize, f64)], var: usize) -> Option<f64> {
    seed.binary_search_by_key(&var, |&(v, _)| v)
        .ok()
        .map(|at| seed[at].1)
}

/// Runs one chain sequentially, threading each window's solution into
/// its successor as a warm start (when enabled).
fn run_chain(
    view: &TraceView,
    cfg: &EstimatorConfig,
    intervals: &Intervals,
    jobs: &[WindowJob],
) -> ChainResult {
    let mut commits = Vec::new();
    let mut stats = EstimatorStats::default();
    let mut warm: Option<WarmSeed> = None;
    for job in jobs {
        let seed = if cfg.warm_start {
            warm.as_deref()
        } else {
            None
        };
        warm = solve_window(
            view,
            cfg,
            intervals,
            &job.window,
            &job.commit,
            seed,
            &mut commits,
            &mut stats,
        );
        stats.windows += 1;
        OBS_WINDOWS.inc();
    }
    ChainResult { commits, stats }
}

/// The degraded result of a chain whose worker panicked: every commit
/// variable falls back to its propagated interval midpoint.
fn chain_fallback(view: &TraceView, intervals: &Intervals, jobs: &[WindowJob]) -> ChainResult {
    let mut commits = Vec::new();
    let mut stats = EstimatorStats::default();
    for job in jobs {
        for v in commit_vars(view, &job.commit) {
            commits.push((v, intervals.midpoint(v)));
        }
        stats.windows += 1;
        stats.unsolved_windows += 1;
        OBS_WINDOWS.inc();
    }
    ChainResult { commits, stats }
}

/// The unknown variables of a commit zone's packets.
fn commit_vars(view: &TraceView, commit: &[usize]) -> Vec<usize> {
    commit
        .iter()
        .flat_map(|&p| {
            let len = view.packet(p).path.len();
            (1..len.saturating_sub(1)).filter_map(move |hop| match view.time_ref(p, hop) {
                crate::view::TimeRef::Var(v) => Some(v),
                crate::view::TimeRef::Known(_) => None,
            })
        })
        .collect()
}

/// The variance-objective terms (paper Eq. 8) among a packet subset,
/// given its pass-throughs ([`TraceView::subset_passthroughs`]): one
/// squared delay difference per close-in-time pair at each shared
/// forwarder.
pub(crate) fn variance_terms(
    view: &TraceView,
    passes: &[(usize, usize, usize)],
    epsilon_ms: f64,
    pairs_per_packet: usize,
) -> Vec<LinExpr> {
    let mut terms = Vec::new();
    let mut entries: Vec<(usize, usize)> = Vec::new();
    for node in passes.chunk_by(|a, b| a.0 == b.0) {
        if node.len() < 2 {
            continue;
        }
        entries.clear();
        entries.extend(node.iter().map(|&(_, p, hop)| (p, hop)));
        entries.sort_by_key(|&(p, _)| (view.packet(p).gen_time, view.packet(p).pid));
        for i in 0..entries.len() {
            let (pi, hi) = entries[i];
            let gen_i = TraceView::ms(view.packet(pi).gen_time);
            for &(pj, hj) in entries.iter().skip(i + 1).take(pairs_per_packet) {
                let gen_j = TraceView::ms(view.packet(pj).gen_time);
                if (gen_j - gen_i).abs() > epsilon_ms {
                    break;
                }
                let mut diff = view.delay_expr(pi, hi);
                diff -= &view.delay_expr(pj, hj);
                if !diff.is_empty() {
                    terms.push(diff);
                }
            }
        }
    }
    terms
}

/// Solves one window and appends its committed estimates. Returns the
/// full window solution for the successor's warm start, or `None` when
/// the window fell back to midpoints.
#[allow(clippy::too_many_arguments)]
fn solve_window(
    view: &TraceView,
    cfg: &EstimatorConfig,
    intervals: &Intervals,
    window: &[usize],
    commit: &[usize],
    warm_seed: Option<&[(usize, f64)]>,
    commits: &mut Vec<(usize, f64)>,
    stats: &mut EstimatorStats,
) -> Option<WarmSeed> {
    let _span = domo_obs::span!("domo_estimator_window_solve_seconds");
    // Nothing below allocates or scans per view: the window reads its
    // own packets and the nodes they cross.
    let passes = view.subset_passthroughs(window);
    let mut system = build_constraints_over(view, window, &passes, intervals, &cfg.constraints);

    // Local variable space: the window packets' own unknowns only. Rows
    // that reference foreign variables (candidate-set sums reaching
    // outside the window) are soundly relaxed against the intervals —
    // importing them verbatim would balloon the KKT system on dense
    // traces.
    let mut vars: Vec<usize> = Vec::new();
    for &p in window {
        let len = view.packet(p).path.len();
        for hop in 1..len.saturating_sub(1) {
            if let crate::view::TimeRef::Var(v) = view.time_ref(p, hop) {
                vars.push(v);
            }
        }
    }
    // Sorted, so local order is global order and the solution below is
    // a sorted warm seed.
    vars.sort_unstable();
    vars.dedup();
    let t_ref = window
        .iter()
        .map(|&p| TraceView::ms(view.packet(p).gen_time))
        .fold(f64::INFINITY, f64::min);
    let local = LocalProblem::new(&vars, t_ref);
    system.rows.retain_mut(|row| {
        match restrict_row_to(row, |v| local.local(v).is_some(), intervals) {
            RowRestriction::Inside => true,
            RowRestriction::Relaxed(relaxed) => {
                *row = relaxed;
                true
            }
            RowRestriction::Vacuous => false,
        }
    });
    let objective = variance_terms(view, &passes, cfg.epsilon_ms, cfg.pairs_per_packet);

    // A warm seed only counts when it actually covers part of this
    // window (overlapping successor windows share `w − keep` packets).
    let warm_seed = warm_seed.filter(|seed| vars.iter().any(|&v| seed_value(seed, v).is_some()));
    if warm_seed.is_some() {
        stats.warm_hits += 1;
        OBS_WARM_HITS.inc();
    }

    let use_sdp = cfg.fifo_mode == FifoMode::SdpRelaxation
        && !system.undecided_pairs.is_empty()
        && local.num_vars() <= cfg.max_sdp_unknowns;

    let solution = if use_sdp {
        stats.sdp_windows += 1;
        attempt(
            view,
            cfg,
            intervals,
            &local,
            &system,
            &objective,
            true,
            Relax::None,
            warm_seed,
            stats,
        )
    } else {
        attempt(
            view,
            cfg,
            intervals,
            &local,
            &system,
            &objective,
            false,
            Relax::None,
            warm_seed,
            stats,
        )
    };

    // Fallback ladder: drop the loss-sensitive upper sum rows, then the
    // FIFO rows too (an infeasible window whose offending constraints
    // came from bad data), then give up and use interval midpoints.
    let solution = match solution {
        Some(x) => Some(x),
        None => {
            stats.relaxed_retries += 1;
            OBS_LADDER_UPPER_SUM.inc();
            domo_obs::flight!("ladder_fallback", rung = "upper_sum");
            attempt(
                view,
                cfg,
                intervals,
                &local,
                &system,
                &objective,
                use_sdp,
                Relax::UpperSum,
                warm_seed,
                stats,
            )
        }
    };
    let solution = match solution {
        Some(x) => Some(x),
        None => {
            stats.fifo_relaxed_windows += 1;
            OBS_LADDER_FIFO.inc();
            domo_obs::flight!("ladder_fallback", rung = "fifo");
            // No lifting on the last rung: the lifted rows *are* the
            // undecided FIFO constraints being dropped.
            attempt(
                view,
                cfg,
                intervals,
                &local,
                &system,
                &objective,
                false,
                Relax::UpperSumAndFifo,
                warm_seed,
                stats,
            )
        }
    };

    let committed_vars = commit_vars(view, commit);

    match solution {
        Some(x) => {
            for v in committed_vars {
                // A commit var missing from the window's local space
                // would be a bookkeeping bug; degrade that variable to
                // its interval midpoint rather than aborting the run.
                let t = match local.local(v) {
                    Some(lv) => local.to_ms(x[lv]).clamp(intervals.lb[v], intervals.ub[v]),
                    None => intervals.midpoint(v),
                };
                commits.push((v, t));
            }
            // The full window solution seeds the successor's warm start.
            Some(
                x.iter()
                    .enumerate()
                    .map(|(lv, &xv)| {
                        let g = local.global(lv);
                        (g, local.to_ms(xv).clamp(intervals.lb[g], intervals.ub[g]))
                    })
                    .collect(),
            )
        }
        None => {
            stats.unsolved_windows += 1;
            OBS_LADDER_MIDPOINT.inc();
            domo_obs::flight!("ladder_fallback", rung = "midpoint");
            for v in committed_vars {
                commits.push((v, intervals.midpoint(v)));
            }
            None
        }
    }
}

/// Which constraint families a fallback attempt drops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Relax {
    /// Full constraint system.
    None,
    /// Drop the loss-sensitive upper sum rows (6).
    UpperSum,
    /// Drop the upper sum rows *and* every FIFO row — the widest
    /// relaxation before giving up; order and guaranteed-sum rows stay.
    UpperSumAndFifo,
}

/// One solve attempt; returns the local solution if it met quality.
#[allow(clippy::too_many_arguments)]
fn attempt(
    view: &TraceView,
    cfg: &EstimatorConfig,
    intervals: &Intervals,
    local: &LocalProblem,
    system: &ConstraintSystem,
    objective: &[LinExpr],
    use_sdp: bool,
    relax: Relax,
    warm_seed: Option<&[(usize, f64)]>,
    stats: &mut EstimatorStats,
) -> Option<Vec<f64>> {
    let m = local.num_vars();
    let (total_vars, u_base) = if use_sdp {
        (m + m * (m + 1) / 2 + 1, m)
    } else {
        (m, m)
    };
    let mut b = QpBuilder::new(total_vars);

    local.add_boxes(&mut b, intervals);
    for row in &system.rows {
        let dropped = match row.kind {
            ConstraintKind::SumUpper => relax != Relax::None,
            ConstraintKind::FifoArrival | ConstraintKind::FifoDeparture => {
                relax == Relax::UpperSumAndFifo
            }
            _ => false,
        };
        if dropped {
            continue;
        }
        local.add_row(&mut b, row);
    }

    // Anchor regularization (true quadratic in both modes).
    for lv in 0..m {
        let g = local.global(lv);
        local.add_anchor(&mut b, g, intervals.midpoint(g), cfg.anchor_weight);
    }

    if use_sdp {
        let corner = total_vars - 1;
        b.fix_variable(corner, 1.0);
        // Diagonal secant bounds on U_ii keep the lifting tight.
        for i in 0..m {
            let g = local.global(i);
            let lo = local.from_ms(intervals.lb[g]);
            let hi = local.from_ms(intervals.ub[g]);
            let d_lo = if lo <= 0.0 && hi >= 0.0 {
                0.0
            } else {
                lo.powi(2).min(hi.powi(2))
            };
            let d_hi = lo.powi(2).max(hi.powi(2));
            b.add_row(&[(u_base + svec_index(i, i), 1.0)], d_lo, d_hi);
        }
        // Lifted variance objective: linear in (U, u).
        for expr in objective {
            let (terms, k) = local.lower_expr(expr);
            for (a, &(va, ca)) in terms.iter().enumerate() {
                b.add_linear(u_base + svec_index(va, va), ca * ca);
                for &(vb, cb) in terms.iter().skip(a + 1) {
                    b.add_linear(u_base + svec_index(va, vb), 2.0 * ca * cb);
                }
                b.add_linear(va, 2.0 * k * ca);
            }
        }
        // Lifted FIFO product rows: (arr_y − arr_x)(dep_y − dep_x) ≥ 0.
        for pair in &system.undecided_pairs {
            add_lifted_fifo(view, local, &mut b, pair, u_base);
        }
        // PSD block over [[U, u], [uᵀ, 1]].
        let dim = m + 1;
        let mut block_vars = Vec::with_capacity(dim * (dim + 1) / 2);
        for j in 0..dim {
            for i in 0..=j {
                let id = if j < m {
                    u_base + svec_index(i, j)
                } else if i < m {
                    i
                } else {
                    corner
                };
                block_vars.push(id);
            }
        }
        if b.add_psd_block(dim, block_vars).is_err() {
            // Block sized by construction; if that invariant ever broke,
            // fall through the ladder instead of aborting the run.
            stats.solver_errors += 1;
            OBS_SOLVER_ERRORS.inc();
            return None;
        }
    } else {
        // Plain QP: variance objective as a true quadratic.
        for expr in objective {
            local.add_square(&mut b, expr, 1.0);
        }
    }

    let problem = match b.build() {
        Ok(p) => p,
        Err(_) => {
            stats.solver_errors += 1;
            OBS_SOLVER_ERRORS.inc();
            return None;
        }
    };
    // Warm-start the arrival-time block at the predecessor window's
    // solution where it overlaps, interval midpoints elsewhere (the
    // lifted block, when present, starts at zero).
    let mut warm = vec![0.0; total_vars];
    for (lv, w) in warm.iter_mut().take(m).enumerate() {
        let g = local.global(lv);
        let ms = warm_seed
            .and_then(|seed| seed_value(seed, g))
            .unwrap_or_else(|| intervals.midpoint(g));
        *w = local.from_ms(ms);
    }
    let sol = match try_solve_warm(&problem, &cfg.solver, Some(&warm)) {
        Ok(sol) => sol,
        Err(_) => {
            stats.solver_errors += 1;
            OBS_SOLVER_ERRORS.inc();
            return None;
        }
    };
    stats.total_iterations += sol.iterations;
    stats.solve_time += sol.solve_time;

    // Accept solutions within ~2 ms of feasibility (window units are
    // seconds) even if formal tolerances were missed.
    let acceptable = sol.is_solved() || sol.primal_residual < 2e-3;
    if acceptable {
        Some(sol.x[..m].to_vec())
    } else {
        None
    }
}

/// Adds the lifted bilinear FIFO row for one undecided pair.
fn add_lifted_fifo(
    view: &TraceView,
    local: &LocalProblem,
    b: &mut QpBuilder,
    pair: &FifoPair,
    u_base: usize,
) {
    let arr = view
        .time_expr(pair.y.0, pair.y.1)
        .sub(&view.time_expr(pair.x.0, pair.x.1));
    let dep = view
        .time_expr(pair.y.0, pair.y.1 + 1)
        .sub(&view.time_expr(pair.x.0, pair.x.1 + 1));
    let (ta, ka) = local.lower_expr(&arr);
    let (tb, kb) = local.lower_expr(&dep);

    // Product = Σᵢⱼ aᵢbⱼ·xᵢxⱼ + ka·Σbⱼxⱼ + kb·Σaᵢxᵢ + ka·kb ≥ 0, with
    // xᵢxⱼ replaced by the lifted U entry.
    let mut coeffs: HashMap<usize, f64> = HashMap::new();
    for &(i, ai) in &ta {
        for &(j, bj) in &tb {
            *coeffs.entry(u_base + svec_index(i, j)).or_insert(0.0) += ai * bj;
        }
    }
    for &(j, bj) in &tb {
        *coeffs.entry(j).or_insert(0.0) += ka * bj;
    }
    for &(i, ai) in &ta {
        *coeffs.entry(i).or_insert(0.0) += kb * ai;
    }
    let entries: Vec<(usize, f64)> = coeffs.into_iter().filter(|&(_, c)| c != 0.0).collect();
    if !entries.is_empty() {
        b.add_row(&entries, -ka * kb, f64::INFINITY);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use domo_net::{run_simulation, NetworkConfig};

    fn mean_abs_error(view: &TraceView, trace: &domo_net::NetworkTrace, est: &Estimates) -> f64 {
        let mut errors = Vec::new();
        for (v, hr) in view.vars().iter().enumerate() {
            let pid = view.packet(hr.packet).pid;
            let truth = trace.truth(pid).unwrap()[hr.hop].as_millis_f64();
            if let Some(t) = est.time_of(v) {
                errors.push((t - truth).abs());
            }
        }
        assert!(!errors.is_empty());
        errors.iter().sum::<f64>() / errors.len() as f64
    }

    #[test]
    fn estimator_commits_every_variable() {
        let trace = run_simulation(&NetworkConfig::small(25, 21));
        let view = TraceView::new(trace.packets.clone());
        let est = estimate(&view, &EstimatorConfig::default());
        let missing = est.times_ms.iter().filter(|t| t.is_none()).count();
        assert_eq!(missing, 0, "every unknown must receive an estimate");
        assert!(est.stats.windows > 1, "trace must span several windows");
    }

    #[test]
    fn estimates_beat_naive_midpoint_baseline() {
        let trace = run_simulation(&NetworkConfig::small(25, 22));
        let view = TraceView::new(trace.packets.clone());
        let cfg = EstimatorConfig::default();
        let est = estimate(&view, &cfg);
        let err = mean_abs_error(&view, &trace, &est);

        // Midpoint-of-interval baseline.
        let intervals = propagate(&view, cfg.constraints.omega_ms, 3);
        let mid = Estimates {
            times_ms: (0..view.num_vars())
                .map(|v| Some(intervals.midpoint(v)))
                .collect(),
            stats: EstimatorStats::default(),
        };
        let err_mid = mean_abs_error(&view, &trace, &mid);
        assert!(
            err < err_mid,
            "estimator ({err:.2} ms) must beat midpoints ({err_mid:.2} ms)"
        );
        // And land in the paper's accuracy regime (single-digit ms).
        assert!(err < 15.0, "error {err:.2} ms unexpectedly large");
    }

    #[test]
    fn estimates_respect_intervals() {
        let trace = run_simulation(&NetworkConfig::small(16, 23));
        let view = TraceView::new(trace.packets.clone());
        let cfg = EstimatorConfig::default();
        let est = estimate(&view, &cfg);
        let intervals = propagate(&view, cfg.constraints.omega_ms, 3);
        for v in 0..view.num_vars() {
            let t = est.time_of(v).unwrap();
            assert!(t >= intervals.lb[v] - 1e-6 && t <= intervals.ub[v] + 1e-6);
        }
    }

    #[test]
    fn sdp_mode_runs_and_is_reasonable() {
        let trace = run_simulation(&NetworkConfig::small(16, 24));
        let view = TraceView::new(trace.packets.clone());
        let cfg = EstimatorConfig {
            fifo_mode: FifoMode::SdpRelaxation,
            window_packets: 6,
            max_sdp_unknowns: 24,
            ..EstimatorConfig::default()
        };
        let est = estimate(&view, &cfg);
        assert!(
            est.stats.sdp_windows > 0,
            "SDP mode must actually lift some windows"
        );
        let err = mean_abs_error(&view, &trace, &est);
        assert!(err < 20.0, "SDP-mode error {err:.2} ms unexpectedly large");
    }

    #[test]
    fn window_ratio_extremes_are_valid() {
        let trace = run_simulation(&NetworkConfig::small(16, 25));
        let view = TraceView::new(trace.packets.clone());
        for ratio in [0.3, 0.9, 1.0] {
            let cfg = EstimatorConfig {
                effective_window_ratio: ratio,
                ..EstimatorConfig::default()
            };
            let est = estimate(&view, &cfg);
            assert!(est.times_ms.iter().all(|t| t.is_some()), "ratio {ratio}");
        }
    }

    #[test]
    #[should_panic(expected = "ratio")]
    fn zero_ratio_is_rejected() {
        let trace = run_simulation(&NetworkConfig::small(9, 26));
        let view = TraceView::new(trace.packets.clone());
        let cfg = EstimatorConfig {
            effective_window_ratio: 0.0,
            ..EstimatorConfig::default()
        };
        let _ = estimate(&view, &cfg);
    }

    #[test]
    fn empty_trace_is_handled() {
        let view = TraceView::new(Vec::new());
        let est = estimate(&view, &EstimatorConfig::default());
        assert!(est.times_ms.is_empty());
        assert_eq!(est.stats.windows, 0);
    }

    #[test]
    fn try_estimate_reports_bad_config_without_panicking() {
        let view = TraceView::new(Vec::new());
        let bad_ratio = EstimatorConfig {
            effective_window_ratio: 0.0,
            ..EstimatorConfig::default()
        };
        assert!(matches!(
            try_estimate(&view, &bad_ratio),
            Err(EstimatorError::BadConfig(msg)) if msg.contains("ratio")
        ));
        let bad_window = EstimatorConfig {
            window_packets: 0,
            ..EstimatorConfig::default()
        };
        let e = try_estimate(&view, &bad_window).unwrap_err();
        assert!(e.to_string().contains("window"));
    }

    #[test]
    fn corrupted_sums_degrade_through_the_ladder() {
        // Feed the estimator an UNSANITIZED trace whose S(p) fields are
        // heavily corrupted: the infeasible sum rows must be relaxed
        // away (or the window abandoned to midpoints), never panic, and
        // every variable must still get a finite estimate.
        let mut net = NetworkConfig::small(16, 28);
        net.faults = Some(domo_net::FaultConfig {
            corrupt_sum_rate: 0.5,
            ..domo_net::FaultConfig::default()
        });
        let trace = run_simulation(&net);
        let view = TraceView::new(trace.packets.clone());
        let est = estimate(&view, &EstimatorConfig::default());
        assert!(est.times_ms.iter().all(|t| t.is_some()));
        assert!(est.times_ms.iter().flatten().all(|t| t.is_finite()));
        // Most corrupted rows are removed by the constraint builder's
        // provable-inconsistency pruning; whatever survives is relaxed
        // by the ladder. Either way there must be no panic and no
        // outright solver refusal.
        assert_eq!(est.stats.solver_errors, 0, "{:?}", est.stats);
    }

    #[test]
    fn threaded_estimates_match_sequential_bitwise() {
        // Mirror of `threaded_bounds_match_sequential`: the chain
        // partition fixes every solve's inputs, so the thread count must
        // not change a single bit of the output.
        let trace = run_simulation(&NetworkConfig::small(25, 29));
        let view = TraceView::new(trace.packets.clone());
        let seq = estimate(&view, &EstimatorConfig::default());
        assert!(seq.stats.chains > 1, "trace must span several chains");
        for threads in [2, 3, 4, 8] {
            let par = estimate(
                &view,
                &EstimatorConfig {
                    threads,
                    ..EstimatorConfig::default()
                },
            );
            for v in 0..view.num_vars() {
                let a = seq.time_of(v).unwrap();
                let b = par.time_of(v).unwrap();
                assert!(
                    a.to_bits() == b.to_bits(),
                    "threads={threads} var {v}: {a} != {b}"
                );
            }
            assert_eq!(seq.stats.windows, par.stats.windows);
            assert_eq!(seq.stats.chains, par.stats.chains);
            assert_eq!(seq.stats.warm_hits, par.stats.warm_hits);
            assert_eq!(seq.stats.unsolved_windows, par.stats.unsolved_windows);
        }
    }

    #[test]
    fn warm_start_reuses_solutions_and_matches_cold_closely() {
        let trace = run_simulation(&NetworkConfig::small(25, 30));
        let view = TraceView::new(trace.packets.clone());
        let warm = estimate(&view, &EstimatorConfig::default());
        assert!(
            warm.stats.warm_hits > 0,
            "overlapping windows in a chain must reuse solutions: {:?}",
            warm.stats
        );
        let cold = estimate(
            &view,
            &EstimatorConfig {
                warm_start: false,
                ..EstimatorConfig::default()
            },
        );
        assert_eq!(cold.stats.warm_hits, 0);
        // Warm starts change the ADMM iterate path, not the problem:
        // both runs stop inside the same solver tolerance, so the
        // estimates agree to well below the paper's ms resolution.
        let mut max_diff = 0.0f64;
        for v in 0..view.num_vars() {
            let d = (warm.time_of(v).unwrap() - cold.time_of(v).unwrap()).abs();
            max_diff = max_diff.max(d);
        }
        assert!(
            max_diff < 0.5,
            "warm vs cold estimates diverged by {max_diff:.4} ms"
        );
        // And warm starts must not hurt accuracy.
        let err_warm = mean_abs_error(&view, &trace, &warm);
        let err_cold = mean_abs_error(&view, &trace, &cold);
        assert!(
            err_warm < err_cold + 0.5,
            "warm {err_warm:.2} ms vs cold {err_cold:.2} ms"
        );
    }

    #[test]
    fn zero_chain_windows_is_rejected() {
        let view = TraceView::new(Vec::new());
        let bad = EstimatorConfig {
            chain_windows: 0,
            ..EstimatorConfig::default()
        };
        assert!(matches!(
            try_estimate(&view, &bad),
            Err(EstimatorError::BadConfig(msg)) if msg.contains("chain")
        ));
    }

    #[test]
    fn chain_length_bounds_warm_flow() {
        // chain_windows = 1 disables warm reuse entirely (every window
        // is its own chain) without changing coverage.
        let trace = run_simulation(&NetworkConfig::small(16, 37));
        let view = TraceView::new(trace.packets.clone());
        let est = estimate(
            &view,
            &EstimatorConfig {
                chain_windows: 1,
                ..EstimatorConfig::default()
            },
        );
        assert_eq!(est.stats.warm_hits, 0);
        assert_eq!(est.stats.chains, est.stats.windows);
        assert!(est.times_ms.iter().all(|t| t.is_some()));
    }

    #[test]
    fn variance_terms_pair_close_packets_only() {
        let trace = run_simulation(&NetworkConfig::small(16, 27));
        let view = TraceView::new(trace.packets.clone());
        let subset: Vec<usize> = (0..view.num_packets()).collect();
        let passes = view.subset_passthroughs(&subset);
        let wide = variance_terms(&view, &passes, 1e12, 4);
        let narrow = variance_terms(&view, &passes, 1.0, 4);
        assert!(wide.len() > narrow.len());
    }
}
