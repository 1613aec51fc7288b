//! The ADMM solver for cone quadratic programs.
//!
//! This is an OSQP-style operator-splitting method extended with
//! semidefinite blocks. The iteration is
//!
//! ```text
//! x ← (P + σI + ρ MᵀM)⁻¹ (σ x − q + Mᵀ(ρ z − y))
//! v ← α·Mx + (1−α)·z
//! z ← Π_C(v + y/ρ)
//! y ← y + ρ (v − z)
//! ```
//!
//! where `M` stacks the box-constraint matrix `A` with one selector row
//! per svec coordinate of each PSD block, and `Π_C` clamps the box rows
//! to `[l, u]` and projects each block segment onto the PSD cone (via the
//! Jacobi eigensolver in `domo-linalg`).
//!
//! The KKT matrix `K = P + σI + ρ MᵀM` is a few percent dense (each
//! constraint row couples a handful of unknowns), so it is assembled
//! sparsely from `M`'s rows and factored with the sparse LDLᵀ of
//! `domo-linalg`. Its ordering and symbolic factor are computed once per
//! solve; an adaptive ρ step only repeats the numeric factorization. The
//! polish solves its quasi-definite system with the same kernel. The
//! iteration itself allocates nothing: every vector it needs lives in a
//! workspace sized at the start of the solve.

use crate::problem::ConeQp;
use crate::svec::{project_psd_svec_in_place, svec_index, svec_len, SQRT2};
use domo_linalg::{norm_inf, CsrMatrix, LdlSymbolic, Matrix, Pivots, SymSparse};
use domo_obs::{LazyCounter, LazyHistogram};
use std::time::{Duration, Instant};

// Per-solve telemetry; free when the global recorder is disabled.
static OBS_SOLVE_SECONDS: LazyHistogram = LazyHistogram::new("domo_solver_solve_seconds", &[]);
static OBS_ITERATIONS: LazyHistogram = LazyHistogram::new("domo_solver_iterations", &[]);
static OBS_PRIMAL_RESIDUAL: LazyHistogram = LazyHistogram::new("domo_solver_primal_residual", &[]);
static OBS_DUAL_RESIDUAL: LazyHistogram = LazyHistogram::new("domo_solver_dual_residual", &[]);
static OBS_SOLVES_SOLVED: LazyCounter =
    LazyCounter::new("domo_solver_solves_total", &[("status", "solved")]);
static OBS_SOLVES_MAXITER: LazyCounter =
    LazyCounter::new("domo_solver_solves_total", &[("status", "max_iterations")]);
static OBS_SOLVES_INFEASIBLE: LazyCounter = LazyCounter::new(
    "domo_solver_solves_total",
    &[("status", "primal_infeasible")],
);
static OBS_ERRORS: LazyCounter = LazyCounter::new("domo_solver_errors_total", &[]);
static OBS_POLISH_ACCEPTED: LazyCounter =
    LazyCounter::new("domo_solver_polish_total", &[("outcome", "accepted")]);
static OBS_POLISH_REJECTED: LazyCounter =
    LazyCounter::new("domo_solver_polish_total", &[("outcome", "rejected")]);

/// Solver configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct Settings {
    /// Penalty parameter ρ.
    pub rho: f64,
    /// Tikhonov parameter σ keeping the KKT matrix positive definite.
    pub sigma: f64,
    /// Over-relaxation α ∈ (0, 2).
    pub alpha: f64,
    /// Absolute tolerance.
    pub eps_abs: f64,
    /// Relative tolerance.
    pub eps_rel: f64,
    /// Iteration budget.
    pub max_iterations: usize,
    /// How often (in iterations) residuals are checked.
    pub check_interval: usize,
    /// Enables adaptive ρ rescaling.
    pub adaptive_rho: bool,
    /// After ADMM terminates, attempt an active-set *polish*: solve the
    /// equality-constrained KKT system on the detected active rows and
    /// keep the refined point if it is feasible and no worse. Skipped
    /// for problems with PSD blocks (their active set is not a row
    /// subset).
    pub polish: bool,
}

impl Default for Settings {
    fn default() -> Self {
        Self {
            rho: 1.0,
            sigma: 1e-6,
            alpha: 1.6,
            eps_abs: 1e-6,
            eps_rel: 1e-6,
            max_iterations: 8000,
            check_interval: 25,
            adaptive_rho: true,
            polish: true,
        }
    }
}

/// Structural failures that prevent a solve from running at all — as
/// opposed to a [`Status`], which describes how a *completed* solve
/// terminated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolverError {
    /// A setting is out of range (ρ ≤ 0, σ ≤ 0, α ∉ (0, 2), …).
    BadSettings(String),
    /// The warm-start vector has the wrong length.
    BadWarmStart {
        /// Number of variables of the problem.
        expected: usize,
        /// Length of the supplied warm start.
        got: usize,
    },
    /// The regularized KKT matrix has a non-positive or non-finite
    /// pivot. This indicates non-finite problem data (a NaN/∞
    /// coefficient) — for finite data the σ-shift keeps the matrix
    /// positive definite.
    FactorizationFailed,
}

impl std::fmt::Display for SolverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolverError::BadSettings(msg) => write!(f, "bad solver settings: {msg}"),
            SolverError::BadWarmStart { expected, got } => {
                write!(f, "warm start has length {got}, expected {expected}")
            }
            SolverError::FactorizationFailed => {
                write!(f, "KKT factorization failed (non-finite problem data?)")
            }
        }
    }
}

impl std::error::Error for SolverError {}

/// Why the solver stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Residuals met the tolerances.
    Solved,
    /// The iteration budget ran out; the returned iterate is the best
    /// effort and its residuals are reported in the solution.
    MaxIterations,
    /// A primal infeasibility certificate was found: no point satisfies
    /// the box rows (detected for problems without PSD blocks). The
    /// returned `y` contains the certificate direction.
    PrimalInfeasible,
}

/// The result of a solve.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// Primal solution.
    pub x: Vec<f64>,
    /// Dual multipliers for the stacked constraint rows.
    pub y: Vec<f64>,
    /// Termination status.
    pub status: Status,
    /// Iterations performed.
    pub iterations: usize,
    /// Final primal residual (∞-norm).
    pub primal_residual: f64,
    /// Final dual residual (∞-norm).
    pub dual_residual: f64,
    /// Objective value at `x`.
    pub objective: f64,
    /// Wall-clock time of the solve.
    pub solve_time: Duration,
}

impl Solution {
    /// Returns `true` when the solver met its tolerances.
    pub fn is_solved(&self) -> bool {
        self.status == Status::Solved
    }
}

/// Solves a [`ConeQp`] with ADMM.
///
/// # Examples
///
/// ```
/// use domo_solver::{QpBuilder, solve, Settings};
///
/// // minimize (x − 3)² subject to 0 ≤ x ≤ 2  →  x* = 2.
/// let mut b = QpBuilder::new(1);
/// b.add_quadratic(0, 0, 2.0);
/// b.add_linear(0, -6.0);
/// b.add_row(&[(0, 1.0)], 0.0, 2.0);
/// let sol = solve(&b.build()?, &Settings::default());
/// assert!(sol.is_solved());
/// assert!((sol.x[0] - 2.0).abs() < 1e-4);
/// # Ok::<(), domo_solver::ProblemError>(())
/// ```
pub fn solve(problem: &ConeQp, settings: &Settings) -> Solution {
    solve_warm(problem, settings, None)
}

/// Non-panicking variant of [`solve`].
///
/// # Errors
///
/// Returns a [`SolverError`] for out-of-range settings or a failed KKT
/// factorization (non-finite problem data).
pub fn try_solve(problem: &ConeQp, settings: &Settings) -> Result<Solution, SolverError> {
    try_solve_warm(problem, settings, None)
}

/// Solves a [`ConeQp`], optionally warm-starting from a previous primal
/// point (duals are reset).
///
/// # Panics
///
/// Panics if the warm-start vector has the wrong length, if a setting is
/// out of range (ρ ≤ 0, σ ≤ 0, α ∉ (0,2)), or if the (regularized) KKT
/// matrix cannot be factored, which cannot happen for a valid [`ConeQp`]
/// with finite data. Use [`try_solve_warm`] to get these conditions as
/// a [`SolverError`] instead.
pub fn solve_warm(problem: &ConeQp, settings: &Settings, warm_x: Option<&[f64]>) -> Solution {
    match try_solve_warm(problem, settings, warm_x) {
        Ok(sol) => sol,
        Err(e) => panic!("{e}"),
    }
}

/// Non-panicking variant of [`solve_warm`].
///
/// # Errors
///
/// Returns a [`SolverError`] for out-of-range settings, a wrong-length
/// warm start, or a failed KKT factorization (non-finite problem data).
pub fn try_solve_warm(
    problem: &ConeQp,
    settings: &Settings,
    warm_x: Option<&[f64]>,
) -> Result<Solution, SolverError> {
    let result = try_solve_warm_inner(problem, settings, warm_x);
    match &result {
        Ok(sol) => {
            OBS_SOLVE_SECONDS.observe(sol.solve_time.as_secs_f64());
            OBS_ITERATIONS.observe(sol.iterations as f64);
            if sol.primal_residual.is_finite() {
                OBS_PRIMAL_RESIDUAL.observe(sol.primal_residual);
            }
            if sol.dual_residual.is_finite() {
                OBS_DUAL_RESIDUAL.observe(sol.dual_residual);
            }
            match sol.status {
                Status::Solved => OBS_SOLVES_SOLVED.inc(),
                Status::MaxIterations => OBS_SOLVES_MAXITER.inc(),
                Status::PrimalInfeasible => OBS_SOLVES_INFEASIBLE.inc(),
            }
        }
        Err(_) => OBS_ERRORS.inc(),
    }
    result
}

fn try_solve_warm_inner(
    problem: &ConeQp,
    settings: &Settings,
    warm_x: Option<&[f64]>,
) -> Result<Solution, SolverError> {
    if settings.rho.is_nan() || settings.rho <= 0.0 {
        return Err(SolverError::BadSettings("rho must be positive".into()));
    }
    if settings.sigma.is_nan() || settings.sigma <= 0.0 {
        return Err(SolverError::BadSettings("sigma must be positive".into()));
    }
    if !(settings.alpha > 0.0 && settings.alpha < 2.0) {
        return Err(SolverError::BadSettings("alpha must lie in (0, 2)".into()));
    }

    let start = Instant::now();
    let n = problem.num_vars();
    let m_box = problem.num_box_rows();

    // ---- Stack M = [A; S] where S holds PSD selector rows. ----
    let mut m_triplets: Vec<(usize, usize, f64)> = Vec::new();
    for r in 0..m_box {
        for (c, v) in problem.a.row_entries(r) {
            m_triplets.push((r, c, v));
        }
    }
    // Each PSD block contributes svec-scaled selector rows; remember the
    // (start, dim) of each block segment in the stacked rows.
    let mut block_segments: Vec<(usize, usize)> = Vec::new();
    let mut row = m_box;
    for block in &problem.psd_blocks {
        let dim = block.dim();
        block_segments.push((row, dim));
        for j in 0..dim {
            for i in 0..=j {
                let var = block.vars()[svec_index(i, j)];
                let coef = if i == j { 1.0 } else { SQRT2 };
                m_triplets.push((row, var, coef));
                row += 1;
            }
        }
    }
    let m_total = row;
    let m = CsrMatrix::from_triplets(m_total, n, &m_triplets);

    if n == 0 {
        return Ok(Solution {
            x: Vec::new(),
            y: vec![0.0; m_total],
            status: Status::Solved,
            iterations: 0,
            primal_residual: 0.0,
            dual_residual: 0.0,
            objective: 0.0,
            solve_time: start.elapsed(),
        });
    }

    let mut rho = settings.rho;

    // ---- Factor K = P_sym + σI + ρ MᵀM (sparse LDLᵀ). ----
    let kkt_terms = KktTerms::new(problem, &m, settings.sigma);
    let mut k = kkt_terms.at(rho);
    let symbolic = LdlSymbolic::analyze(&k);
    let factor_kkt = |k: &SymSparse| {
        symbolic
            .factor(k, Pivots::Positive)
            .map_err(|_| SolverError::FactorizationFailed)
    };
    let mut kkt = factor_kkt(&k)?;

    // ---- Projection onto C = [l,u] × PSD × … ----
    let project = |v: &mut [f64]| {
        // `l`/`u` have `m_box` entries, so the zip stops at the box rows.
        for ((vi, &lo), &hi) in v.iter_mut().zip(&problem.l).zip(&problem.u) {
            *vi = vi.clamp(lo, hi);
        }
        for &(seg_start, dim) in &block_segments {
            project_psd_svec_in_place(&mut v[seg_start..seg_start + svec_len(dim)]);
        }
    };

    // ---- Iterate. ----
    let mut x = match warm_x {
        Some(w) => {
            if w.len() != n {
                return Err(SolverError::BadWarmStart {
                    expected: n,
                    got: w.len(),
                });
            }
            w.to_vec()
        }
        None => vec![0.0; n],
    };
    let mut z = {
        let mut z0 = m.matvec(&x);
        project(&mut z0);
        z0
    };
    let mut y = vec![0.0; m_total];
    let mut ws = Workspace::new(n, m_total);

    let mut status = Status::MaxIterations;
    let mut iterations = 0;
    let mut primal_residual = f64::INFINITY;
    let mut dual_residual = f64::INFINITY;
    let mut y_at_last_check = y.clone();

    for iter in 1..=settings.max_iterations {
        iterations = iter;

        // x-update: the right-hand side σx − q + Mᵀ(ρz − y) is built in
        // `x` and solved in place.
        for (xi, &qi) in x.iter_mut().zip(&problem.q) {
            *xi = settings.sigma * *xi - qi;
        }
        for ((wi, &zi), &yi) in ws.rows.iter_mut().zip(&z).zip(&y) {
            *wi = rho * zi - yi;
        }
        m.matvec_t_into(&ws.rows, &mut ws.mt);
        for (xi, &ti) in x.iter_mut().zip(&ws.mt) {
            *xi += ti;
        }
        #[cfg(debug_assertions)]
        let rhs = x.clone();
        kkt.solve_in_place(&mut x, &mut ws.solve);
        #[cfg(debug_assertions)]
        debug_assert!(
            kkt_residual(&k, &x, &rhs) <= 1e-8 * (1.0 + norm_inf(&rhs)),
            "x-update left a KKT residual of {}",
            kkt_residual(&k, &x, &rhs)
        );

        // Relaxed z/y updates; `ws.rows` now holds v.
        m.matvec_into(&x, &mut ws.mx);
        for ((vi, &mxi), &zi) in ws.rows.iter_mut().zip(&ws.mx).zip(&z) {
            *vi = settings.alpha * mxi + (1.0 - settings.alpha) * zi;
        }
        for ((zi, &vi), &yi) in z.iter_mut().zip(&ws.rows).zip(&y) {
            *zi = vi + yi / rho;
        }
        project(&mut z);
        for ((yi, &vi), &zi) in y.iter_mut().zip(&ws.rows).zip(&z) {
            *yi += rho * (vi - zi);
        }

        if iter % settings.check_interval == 0 || iter == settings.max_iterations {
            // Primal residual: ‖Mx − z‖∞.
            let mut r_prim = 0.0f64;
            for (&mxi, &zi) in ws.mx.iter().zip(&z) {
                r_prim = r_prim.max((mxi - zi).abs());
            }
            // Dual residual: ‖Px + q + Mᵀy‖∞.
            problem.p.matvec_into(&x, &mut ws.px);
            m.matvec_t_into(&y, &mut ws.mt);
            let mut r_dual = 0.0f64;
            for ((&pxi, &qi), &ti) in ws.px.iter().zip(&problem.q).zip(&ws.mt) {
                r_dual = r_dual.max((pxi + qi + ti).abs());
            }

            let eps_prim = settings.eps_abs + settings.eps_rel * norm_inf(&ws.mx).max(norm_inf(&z));
            let eps_dual = settings.eps_abs
                + settings.eps_rel
                    * norm_inf(&ws.px)
                        .max(norm_inf(&ws.mt))
                        .max(norm_inf(&problem.q));

            primal_residual = r_prim;
            dual_residual = r_dual;
            if r_prim <= eps_prim && r_dual <= eps_dual {
                status = Status::Solved;
                break;
            }

            // Primal infeasibility certificate (box-only problems):
            // a dual direction δy with Mᵀδy ≈ 0 whose support function
            // over the boxes is strictly negative proves emptiness.
            if problem.psd_blocks.is_empty() {
                let dy = &mut ws.rows;
                for ((di, &a), &b) in dy.iter_mut().zip(&y).zip(&y_at_last_check) {
                    *di = a - b;
                }
                let dy_norm = norm_inf(dy);
                if dy_norm > settings.eps_abs {
                    m.matvec_t_into(dy, &mut ws.mt);
                    if norm_inf(&ws.mt) <= 1e-6 * dy_norm {
                        let mut support = 0.0;
                        let mut certifiable = true;
                        for ((&d, &lo), &hi) in dy.iter().zip(&problem.l).zip(&problem.u) {
                            if d > 1e-9 * dy_norm {
                                if hi.is_finite() {
                                    support += hi * d;
                                } else {
                                    certifiable = false;
                                    break;
                                }
                            } else if d < -1e-9 * dy_norm {
                                if lo.is_finite() {
                                    support += lo * d;
                                } else {
                                    certifiable = false;
                                    break;
                                }
                            }
                        }
                        if certifiable && support < -settings.eps_abs * dy_norm {
                            y.copy_from_slice(dy);
                            status = Status::PrimalInfeasible;
                            break;
                        }
                    }
                }
            }
            y_at_last_check.copy_from_slice(&y);

            // Simple adaptive ρ: equalize the residual magnitudes.
            if settings.adaptive_rho && iter % (settings.check_interval * 8) == 0 {
                let ratio = ((r_prim + 1e-30) / (r_dual + 1e-30)).sqrt();
                if !(0.2..=5.0).contains(&ratio) {
                    let new_rho = (rho * ratio).clamp(1e-6, 1e6);
                    if (new_rho / rho - 1.0).abs() > 1e-9 {
                        // Rescale duals so y/ρ stays consistent.
                        for yi in y.iter_mut() {
                            *yi *= new_rho / rho;
                        }
                        rho = new_rho;
                        k = kkt_terms.at(rho);
                        kkt = factor_kkt(&k)?;
                    }
                }
            }
        }
    }

    // Active-set polish (box rows only; PSD-block problems skip it).
    if settings.polish
        && status != Status::PrimalInfeasible
        && problem.psd_blocks.is_empty()
        && m_box > 0
    {
        if let Some(xp) = polish_active_set(problem, &x, &y, &z) {
            let tol = 10.0 * settings.eps_abs;
            if problem.box_violation(&xp) <= tol
                && problem.objective(&xp) <= problem.objective(&x) + tol
            {
                x = xp;
                status = Status::Solved;
                primal_residual = problem.box_violation(&x);
                OBS_POLISH_ACCEPTED.inc();
            } else {
                OBS_POLISH_REJECTED.inc();
            }
        } else {
            OBS_POLISH_REJECTED.inc();
        }
    }

    Ok(Solution {
        objective: problem.objective(&x),
        x,
        y,
        status,
        iterations,
        primal_residual,
        dual_residual,
        solve_time: start.elapsed(),
    })
}

/// Scratch vectors of one solve, so the iteration allocates nothing.
struct Workspace {
    /// Row-space scratch: `ρz − y`, then `v`, then `δy` at a check.
    rows: Vec<f64>,
    /// `Mx`.
    mx: Vec<f64>,
    /// `Mᵀ·` of whatever row vector was last needed.
    mt: Vec<f64>,
    /// `Px`.
    px: Vec<f64>,
    /// Scratch of the permuted triangular solves.
    solve: Vec<f64>,
}

impl Workspace {
    fn new(n: usize, m_total: usize) -> Self {
        Self {
            rows: vec![0.0; m_total],
            mx: vec![0.0; m_total],
            mt: vec![0.0; n],
            px: vec![0.0; n],
            solve: vec![0.0; n],
        }
    }
}

/// Upper-triangle triplets of the symmetric part `(P + Pᵀ)/2`.
fn symmetric_part_triplets(p: &CsrMatrix) -> Vec<(usize, usize, f64)> {
    let mut triplets = Vec::with_capacity(p.nnz());
    for r in 0..p.rows() {
        for (c, v) in p.row_entries(r) {
            triplets.push((r, c, if r == c { v } else { 0.5 * v }));
        }
    }
    triplets
}

/// `K(ρ) = P_sym + σI + ρ·MᵀM` as two triplet lists over one sparsity
/// pattern: the pattern does not depend on ρ, so one symbolic
/// factorization serves every ρ of a solve.
struct KktTerms {
    n: usize,
    /// `P_sym + σI`.
    fixed: Vec<(usize, usize, f64)>,
    /// `MᵀM`, one triplet per pair of entries sharing a row of `M`.
    gram: Vec<(usize, usize, f64)>,
}

impl KktTerms {
    fn new(problem: &ConeQp, m: &CsrMatrix, sigma: f64) -> Self {
        let n = problem.num_vars();
        let mut fixed = symmetric_part_triplets(&problem.p);
        fixed.extend((0..n).map(|i| (i, i, sigma)));
        let mut gram = Vec::new();
        let mut row: Vec<(usize, f64)> = Vec::new();
        for r in 0..m.rows() {
            row.clear();
            row.extend(m.row_entries(r));
            for (i, &(ci, vi)) in row.iter().enumerate() {
                gram.extend(row[i..].iter().map(|&(ck, vk)| (ci, ck, vi * vk)));
            }
        }
        Self { n, fixed, gram }
    }

    fn at(&self, rho: f64) -> SymSparse {
        let mut triplets = Vec::with_capacity(self.fixed.len() + self.gram.len());
        triplets.extend(self.gram.iter().map(|&(i, j, v)| (i, j, rho * v)));
        triplets.extend_from_slice(&self.fixed);
        SymSparse::from_triplets(self.n, &triplets)
    }
}

/// `‖Kx − rhs‖∞`, the x-update's postcondition.
#[cfg(debug_assertions)]
fn kkt_residual(k: &SymSparse, x: &[f64], rhs: &[f64]) -> f64 {
    k.matvec(x)
        .iter()
        .zip(rhs)
        .fold(0.0f64, |worst, (kx, r)| worst.max((kx - r).abs()))
}

/// Solves the equality-constrained KKT system over the rows the ADMM
/// iterate marks active (duals pushing against a bound, or equality
/// rows). Returns `None` when the system is singular or trivially empty.
fn polish_active_set(problem: &ConeQp, x: &[f64], y: &[f64], z: &[f64]) -> Option<Vec<f64>> {
    let n = problem.num_vars();
    let m_box = problem.num_box_rows();
    const ACT_TOL: f64 = 1e-6;

    // Detect active rows and their pinned values.
    let mut active: Vec<(usize, f64)> = Vec::new();
    for i in 0..m_box {
        let (l, u) = (problem.l[i], problem.u[i]);
        if l == u || (y[i] < -ACT_TOL && l.is_finite() && (z[i] - l).abs() < 1e-3) {
            active.push((i, l));
        } else if y[i] > ACT_TOL && u.is_finite() && (z[i] - u).abs() < 1e-3 {
            active.push((i, u));
        }
    }
    if active.is_empty() {
        return None;
    }
    let k = active.len();

    // KKT: [[P + δI, Aᵀ_act], [A_act, −δI]] · [x; ν] = [−q; b_act].
    // Quasi-definite, so the sparse LDLᵀ needs no pivoting whatever
    // order it eliminates in.
    const DELTA: f64 = 1e-9;
    let mut triplets = symmetric_part_triplets(&problem.p);
    triplets.extend((0..n).map(|i| (i, i, DELTA)));
    for (row_idx, &(ri, _)) in active.iter().enumerate() {
        triplets.extend(
            problem
                .a
                .row_entries(ri)
                .map(|(col, v)| (col, n + row_idx, v)),
        );
        triplets.push((n + row_idx, n + row_idx, -DELTA));
    }
    let kkt = SymSparse::from_triplets(n + k, &triplets);
    let mut sol = vec![0.0; n + k];
    for (r, &qi) in sol.iter_mut().zip(&problem.q) {
        *r = -qi;
    }
    for (r, &(_, b)) in sol[n..].iter_mut().zip(&active) {
        *r = b;
    }

    let symbolic = LdlSymbolic::analyze(&kkt);
    let factor = symbolic.factor(&kkt, Pivots::NonZero).ok()?;
    factor.solve_in_place(&mut sol, &mut vec![0.0; n + k]);
    sol.truncate(n);
    let xp = sol;
    // Guard against a wrong active set producing a wild point.
    let drift: f64 = xp
        .iter()
        .zip(x)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max);
    if !drift.is_finite() {
        return None;
    }
    Some(xp)
}

/// Solves the pure linear program `min qᵀx  s.t.  l ≤ Ax ≤ u` by calling
/// the ADMM solver with a zero quadratic term.
///
/// # Examples
///
/// ```
/// use domo_solver::{solve_lp, Settings};
/// use domo_linalg::CsrMatrix;
///
/// // min −x  s.t.  x ≤ 4, x ≥ 0  →  x* = 4.
/// let a = CsrMatrix::from_triplets(1, 1, &[(0, 0, 1.0)]);
/// let sol = solve_lp(&[-1.0], &a, &[0.0], &[4.0], &Settings::default());
/// assert!((sol.x[0] - 4.0).abs() < 1e-3);
/// ```
///
/// # Panics
///
/// Panics if the dimensions of `q`, `a`, `l`, `u` are inconsistent.
pub fn solve_lp(q: &[f64], a: &CsrMatrix, l: &[f64], u: &[f64], settings: &Settings) -> Solution {
    let n = q.len();
    let problem = match ConeQp::new(
        CsrMatrix::zeros(n, n),
        q.to_vec(),
        a.clone(),
        l.to_vec(),
        u.to_vec(),
    ) {
        Ok(p) => p,
        Err(e) => panic!("solve_lp arguments must be dimensionally consistent: {e}"),
    };
    solve(&problem, settings)
}

/// Reports the minimum eigenvalue over all PSD blocks at `x` — a
/// diagnostic for "how far outside the cone" an iterate sits. Returns
/// `0.0` when there are no blocks.
///
/// # Panics
///
/// Panics if `x.len() != problem.num_vars()`.
pub fn psd_infeasibility(problem: &ConeQp, x: &[f64]) -> f64 {
    assert_eq!(x.len(), problem.num_vars(), "point has wrong length");
    let mut worst = 0.0f64;
    for block in &problem.psd_blocks {
        let dim = block.dim();
        let mut mat = Matrix::zeros(dim, dim);
        for j in 0..dim {
            for i in 0..=j {
                let v = x[block.vars()[svec_index(i, j)]];
                mat[(i, j)] = v;
                mat[(j, i)] = v;
            }
        }
        worst = worst.min(domo_linalg::min_eigenvalue(&mat));
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::QpBuilder;

    fn settings() -> Settings {
        Settings::default()
    }

    #[test]
    fn unconstrained_quadratic_reaches_minimum() {
        // minimize (x0 − 1)² + (x1 + 2)².
        let mut b = QpBuilder::new(2);
        b.add_quadratic(0, 0, 2.0);
        b.add_quadratic(1, 1, 2.0);
        b.add_linear(0, -2.0);
        b.add_linear(1, 4.0);
        let sol = solve(&b.build().unwrap(), &settings());
        assert!(sol.is_solved());
        assert!((sol.x[0] - 1.0).abs() < 1e-4, "x0 = {}", sol.x[0]);
        assert!((sol.x[1] + 2.0).abs() < 1e-4, "x1 = {}", sol.x[1]);
    }

    #[test]
    fn active_box_constraint_binds() {
        // minimize (x − 3)², 0 ≤ x ≤ 2 → x* = 2.
        let mut b = QpBuilder::new(1);
        b.add_quadratic(0, 0, 2.0);
        b.add_linear(0, -6.0);
        b.add_row(&[(0, 1.0)], 0.0, 2.0);
        let sol = solve(&b.build().unwrap(), &settings());
        assert!(sol.is_solved());
        assert!((sol.x[0] - 2.0).abs() < 1e-4);
    }

    #[test]
    fn equality_constraint_projection() {
        // minimize x0² + x1²  s.t.  x0 + x1 = 1 → (0.5, 0.5).
        let mut b = QpBuilder::new(2);
        b.add_quadratic(0, 0, 2.0);
        b.add_quadratic(1, 1, 2.0);
        b.add_row(&[(0, 1.0), (1, 1.0)], 1.0, 1.0);
        let sol = solve(&b.build().unwrap(), &settings());
        assert!(sol.is_solved());
        assert!((sol.x[0] - 0.5).abs() < 1e-4);
        assert!((sol.x[1] - 0.5).abs() < 1e-4);
    }

    #[test]
    fn lp_reaches_vertex() {
        // max x0 + 2 x1  s.t. x0 + x1 ≤ 4, 0 ≤ x ≤ 3 → (1, 3), value 7.
        let mut b = QpBuilder::new(2);
        b.add_linear(0, -1.0);
        b.add_linear(1, -2.0);
        b.add_row(&[(0, 1.0), (1, 1.0)], f64::NEG_INFINITY, 4.0);
        b.add_row(&[(0, 1.0)], 0.0, 3.0);
        b.add_row(&[(1, 1.0)], 0.0, 3.0);
        let sol = solve(&b.build().unwrap(), &settings());
        assert!(
            sol.is_solved(),
            "residuals {} {}",
            sol.primal_residual,
            sol.dual_residual
        );
        let value = sol.x[0] + 2.0 * sol.x[1];
        assert!((value - 7.0).abs() < 1e-3, "value {value}");
    }

    #[test]
    fn solve_lp_helper_works() {
        let a = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (1, 1, 1.0)]);
        let sol = solve_lp(&[1.0, -1.0], &a, &[-1.0, -1.0], &[1.0, 1.0], &settings());
        assert!((sol.x[0] + 1.0).abs() < 1e-3);
        assert!((sol.x[1] - 1.0).abs() < 1e-3);
    }

    #[test]
    fn psd_block_enforces_semidefiniteness() {
        // Variables form [[x0, x1], [x1, x2]] ⪰ 0; minimize (x1 + 1)²
        // with x0 = x2 = 0.25 fixed. Unconstrained optimum x1 = −1 is
        // outside the cone (needs |x1| ≤ 0.25); expect x1 → −0.25.
        let mut b = QpBuilder::new(3);
        b.add_quadratic(1, 1, 2.0);
        b.add_linear(1, 2.0);
        b.fix_variable(0, 0.25);
        b.fix_variable(2, 0.25);
        b.add_psd_block(2, vec![0, 1, 2]).unwrap();
        let sol = solve(&b.build().unwrap(), &settings());
        assert!(sol.is_solved());
        assert!((sol.x[1] + 0.25).abs() < 1e-3, "x1 = {}", sol.x[1]);
        let problem = {
            let mut b = QpBuilder::new(3);
            b.add_psd_block(2, vec![0, 1, 2]).unwrap();
            b.build().unwrap()
        };
        assert!(psd_infeasibility(&problem, &sol.x) > -1e-4);
    }

    #[test]
    fn psd_block_inactive_when_interior() {
        // Same geometry but the optimum is inside the cone: x1 → 0.1.
        let mut b = QpBuilder::new(3);
        b.add_quadratic(1, 1, 2.0);
        b.add_linear(1, -0.2);
        b.fix_variable(0, 1.0);
        b.fix_variable(2, 1.0);
        b.add_psd_block(2, vec![0, 1, 2]).unwrap();
        let sol = solve(&b.build().unwrap(), &settings());
        assert!(sol.is_solved());
        assert!((sol.x[1] - 0.1).abs() < 1e-3);
    }

    #[test]
    fn sdp_trace_minimization() {
        // minimize tr(Z) s.t. Z ⪰ 0, Z01 = 1 (2×2). Optimal Z = [[1,1],[1,1]]
        // scaled: min z00 + z11 with z01 = 1, [[z00, z01],[z01, z11]] ⪰ 0
        // → z00 = z11 = 1 (det = 0), objective 2.
        let mut b = QpBuilder::new(3);
        b.add_linear(0, 1.0);
        b.add_linear(2, 1.0);
        b.fix_variable(1, 1.0);
        b.add_psd_block(2, vec![0, 1, 2]).unwrap();
        let sol = solve(&b.build().unwrap(), &settings());
        assert!(sol.is_solved());
        let obj = sol.x[0] + sol.x[2];
        assert!((obj - 2.0).abs() < 5e-3, "objective {obj}");
    }

    #[test]
    fn warm_start_converges_fast() {
        let mut b = QpBuilder::new(2);
        b.add_quadratic(0, 0, 2.0);
        b.add_quadratic(1, 1, 2.0);
        b.add_row(&[(0, 1.0), (1, 1.0)], 1.0, 1.0);
        let problem = b.build().unwrap();
        let cold = solve(&problem, &settings());
        let warm = solve_warm(&problem, &settings(), Some(&cold.x));
        assert!(warm.is_solved());
        assert!(warm.iterations <= cold.iterations);
    }

    #[test]
    fn detects_primal_infeasibility() {
        // x ≥ 2 and x ≤ 1 simultaneously: empty.
        let mut b = QpBuilder::new(1);
        b.add_quadratic(0, 0, 2.0);
        b.add_row(&[(0, 1.0)], 2.0, f64::INFINITY);
        b.add_row(&[(0, 1.0)], f64::NEG_INFINITY, 1.0);
        let sol = solve(&b.build().unwrap(), &settings());
        assert_eq!(sol.status, Status::PrimalInfeasible);
        assert!(!sol.is_solved());
    }

    #[test]
    fn detects_infeasible_sum_system() {
        // Conflicting equality rows through two variables:
        // x0 + x1 = 0 and x0 + x1 = 10.
        let mut b = QpBuilder::new(2);
        b.add_quadratic(0, 0, 2.0);
        b.add_quadratic(1, 1, 2.0);
        b.add_row(&[(0, 1.0), (1, 1.0)], 0.0, 0.0);
        b.add_row(&[(0, 1.0), (1, 1.0)], 10.0, 10.0);
        let sol = solve(&b.build().unwrap(), &settings());
        assert_eq!(sol.status, Status::PrimalInfeasible);
    }

    #[test]
    fn feasible_problems_are_not_flagged() {
        // A tightly-constrained but feasible problem must still solve.
        let mut b = QpBuilder::new(1);
        b.add_quadratic(0, 0, 2.0);
        b.add_linear(0, -6.0);
        b.add_row(&[(0, 1.0)], 1.0, 1.0);
        let sol = solve(&b.build().unwrap(), &settings());
        assert_eq!(sol.status, Status::Solved);
        assert!((sol.x[0] - 1.0).abs() < 1e-4);
    }

    #[test]
    fn polish_sharpens_lp_vertices() {
        // max x0 + 2 x1 s.t. x0 + x1 ≤ 4, 0 ≤ x ≤ 3 → (1, 3). With loose
        // tolerances ADMM stops a fraction of a unit away; the polish
        // lands on the vertex to near machine precision.
        let build = || {
            let mut b = QpBuilder::new(2);
            b.add_linear(0, -1.0);
            b.add_linear(1, -2.0);
            b.add_row(&[(0, 1.0), (1, 1.0)], f64::NEG_INFINITY, 4.0);
            b.add_row(&[(0, 1.0)], 0.0, 3.0);
            b.add_row(&[(1, 1.0)], 0.0, 3.0);
            b.build().unwrap()
        };
        let loose = Settings {
            eps_abs: 1e-3,
            eps_rel: 1e-3,
            polish: false,
            ..settings()
        };
        let rough = solve(&build(), &loose);
        let polished = solve(
            &build(),
            &Settings {
                polish: true,
                ..loose
            },
        );
        let err = |s: &Solution| (s.x[0] - 1.0).abs() + (s.x[1] - 3.0).abs();
        assert!(err(&polished) < 1e-6, "polished error {}", err(&polished));
        assert!(err(&polished) <= err(&rough) + 1e-12);
    }

    #[test]
    fn polish_never_accepts_infeasible_points() {
        // A QP whose unconstrained optimum is outside the box; whatever
        // the active-set guess, the accepted point must stay feasible.
        let mut b = QpBuilder::new(2);
        b.add_quadratic(0, 0, 2.0);
        b.add_linear(0, -20.0);
        b.add_quadratic(1, 1, 2.0);
        b.add_row(&[(0, 1.0)], -1.0, 1.0);
        b.add_row(&[(0, 1.0), (1, 1.0)], -1.5, 1.5);
        let problem = b.build().unwrap();
        let sol = solve(&problem, &settings());
        assert!(problem.box_violation(&sol.x) < 1e-4);
        assert!((sol.x[0] - 1.0).abs() < 1e-4, "x0 should pin to its box");
    }

    #[test]
    fn max_iterations_reports_honestly() {
        let mut b = QpBuilder::new(2);
        b.add_linear(0, -1.0);
        b.add_row(&[(0, 1.0), (1, 1.0)], f64::NEG_INFINITY, 4.0);
        b.add_row(&[(0, 1.0)], 0.0, 3.0);
        b.add_row(&[(1, 1.0)], 0.0, 3.0);
        let tight = Settings {
            max_iterations: 3,
            check_interval: 1,
            ..settings()
        };
        let sol = solve(&b.build().unwrap(), &tight);
        assert_eq!(sol.status, Status::MaxIterations);
        assert_eq!(sol.iterations, 3);
    }

    #[test]
    fn empty_problem_is_solved_trivially() {
        let problem = ConeQp::new(
            CsrMatrix::zeros(0, 0),
            vec![],
            CsrMatrix::zeros(0, 0),
            vec![],
            vec![],
        )
        .unwrap();
        let sol = solve(&problem, &settings());
        assert!(sol.is_solved());
        assert!(sol.x.is_empty());
    }

    #[test]
    fn try_solve_reports_bad_settings_as_errors() {
        let problem = ConeQp::new(
            CsrMatrix::zeros(1, 1),
            vec![0.0],
            CsrMatrix::zeros(0, 1),
            vec![],
            vec![],
        )
        .unwrap();
        for bad in [
            Settings {
                alpha: 2.5,
                ..settings()
            },
            Settings {
                rho: 0.0,
                ..settings()
            },
            Settings {
                sigma: -1.0,
                ..settings()
            },
        ] {
            let e = try_solve(&problem, &bad).expect_err("settings must be rejected");
            assert!(matches!(e, SolverError::BadSettings(_)), "{e}");
            assert!(e.to_string().contains("bad solver settings"));
        }
    }

    #[test]
    fn try_solve_warm_rejects_wrong_length_warm_start() {
        let mut b = QpBuilder::new(2);
        b.add_quadratic(0, 0, 2.0);
        b.add_quadratic(1, 1, 2.0);
        let problem = b.build().unwrap();
        let e = try_solve_warm(&problem, &settings(), Some(&[1.0]));
        assert_eq!(
            e,
            Err(SolverError::BadWarmStart {
                expected: 2,
                got: 1
            })
        );
    }

    #[test]
    fn try_solve_reports_failed_factorization_on_nan_data() {
        // A NaN quadratic coefficient poisons the KKT matrix; the
        // panicking API would abort, the try API reports it.
        let mut b = QpBuilder::new(1);
        b.add_quadratic(0, 0, f64::NAN);
        b.add_row(&[(0, 1.0)], 0.0, 1.0);
        let e = try_solve(&b.build().unwrap(), &settings());
        assert_eq!(e, Err(SolverError::FactorizationFailed));
    }

    #[test]
    fn try_solve_reports_failed_factorization_on_a_non_positive_pivot() {
        // A concave objective: K = −5 + σ < 0 is finite but not
        // positive definite, which the x-update cannot use.
        let mut b = QpBuilder::new(2);
        b.add_quadratic(0, 0, 2.0);
        b.add_quadratic(1, 1, -5.0);
        b.add_row(&[(0, 1.0)], 0.0, 1.0);
        let e = try_solve(&b.build().unwrap(), &settings());
        assert_eq!(e, Err(SolverError::FactorizationFailed));
    }

    #[test]
    fn sparse_kkt_assembly_matches_its_formula() {
        // K(ρ)·eⱼ against P_sym·eⱼ + σ·eⱼ + ρ·Mᵀ(M·eⱼ), on random
        // problems with an asymmetric P, repeated entries and a dense row.
        let mut rng = domo_util::rng::Xoshiro256pp::seed_from_u64(0xadd5);
        for _ in 0..25 {
            let n = 1 + rng.range_usize(0..12);
            let rows = rng.range_usize(0..20);
            let mut p_triplets = Vec::new();
            for _ in 0..rng.range_usize(0..3 * n) {
                p_triplets.push((
                    rng.range_usize(0..n),
                    rng.range_usize(0..n),
                    rng.range_f64(-1.0..1.0),
                ));
            }
            let mut m_triplets: Vec<_> = (0..n).map(|c| (0, c, rng.range_f64(0.5..1.5))).collect();
            for r in 0..rows {
                for _ in 0..1 + rng.range_usize(0..4) {
                    m_triplets.push((r, rng.range_usize(0..n), rng.range_f64(-2.0..2.0)));
                }
            }
            let p = CsrMatrix::from_triplets(n, n, &p_triplets);
            let m = CsrMatrix::from_triplets(rows.max(1), n, &m_triplets);
            let problem = ConeQp::new(
                p.clone(),
                vec![0.0; n],
                CsrMatrix::zeros(0, n),
                vec![],
                vec![],
            )
            .unwrap();
            let (sigma, rho) = (1e-3, rng.range_f64(0.1..10.0));
            let k = KktTerms::new(&problem, &m, sigma).at(rho);
            for j in 0..n {
                let mut e = vec![0.0; n];
                e[j] = 1.0;
                let (pe, pte) = (p.matvec(&e), p.matvec_t(&e));
                let gram = m.matvec_t(&m.matvec(&e));
                for (i, got) in k.matvec(&e).into_iter().enumerate() {
                    let want = 0.5 * (pe[i] + pte[i]) + sigma * e[i] + rho * gram[i];
                    assert!(
                        (got - want).abs() <= 1e-12 * (1.0 + want.abs()),
                        "K[{i},{j}]"
                    );
                }
            }
        }
    }

    #[test]
    fn try_solve_matches_solve_on_clean_problems() {
        let mut b = QpBuilder::new(1);
        b.add_quadratic(0, 0, 2.0);
        b.add_linear(0, -6.0);
        b.add_row(&[(0, 1.0)], 0.0, 2.0);
        let problem = b.build().unwrap();
        let a = solve(&problem, &settings());
        let b2 = try_solve(&problem, &settings()).unwrap();
        assert_eq!(a.x, b2.x);
        assert_eq!(a.status, b2.status);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn rejects_bad_alpha() {
        let problem = ConeQp::new(
            CsrMatrix::zeros(1, 1),
            vec![0.0],
            CsrMatrix::zeros(0, 1),
            vec![],
            vec![],
        )
        .unwrap();
        let bad = Settings {
            alpha: 2.5,
            ..settings()
        };
        let _ = solve(&problem, &bad);
    }
}
