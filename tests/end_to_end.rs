//! End-to-end integration: simulate → reconstruct → score, across the
//! whole workspace through the public facade.

use domo::baselines::{message_tracing, mnt};
use domo::core::TimeRef;
use domo::prelude::*;
use domo::util::stats::average_displacement;

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

fn estimate_errors(trace: &NetworkTrace, domo: &Domo, est: &Estimates) -> Vec<f64> {
    let view = domo.view();
    view.vars()
        .iter()
        .enumerate()
        .map(|(var, hr)| {
            let truth = trace.truth(view.packet(hr.packet).pid).unwrap()[hr.hop].as_millis_f64();
            (est.time_of(var).unwrap() - truth).abs()
        })
        .collect()
}

#[test]
fn full_pipeline_reaches_paper_accuracy_regime() {
    let trace = run_simulation(&NetworkConfig::small(25, 1001));
    let domo = Domo::from_trace(&trace);
    let est = domo.estimate(&EstimatorConfig::default());
    let errors = estimate_errors(&trace, &domo, &est);
    let avg = mean(&errors);
    // Paper: 3.58 ms average, >70 % of errors under 4 ms. Allow slack
    // for a different substrate, but stay in the single-digit regime.
    assert!(avg < 8.0, "average error {avg:.2} ms out of regime");
    let under4 = errors.iter().filter(|&&e| e < 4.0).count() as f64 / errors.len() as f64;
    assert!(
        under4 > 0.5,
        "only {:.0}% of errors under 4 ms",
        under4 * 100.0
    );
}

#[test]
fn domo_beats_both_baselines_on_their_own_metric() {
    let trace = run_simulation(&NetworkConfig::small(25, 1002));
    let domo = Domo::from_trace(&trace);
    let view = domo.view();
    let est = domo.estimate(&EstimatorConfig::default());

    // vs MNT on estimated values.
    let mnt_res = mnt::run_mnt(&trace, view, &mnt::MntConfig::default());
    let domo_err = mean(&estimate_errors(&trace, &domo, &est));
    let mnt_err = {
        let v: Vec<f64> = view
            .vars()
            .iter()
            .enumerate()
            .map(|(var, hr)| {
                let truth =
                    trace.truth(view.packet(hr.packet).pid).unwrap()[hr.hop].as_millis_f64();
                (mnt_res.estimate[var] - truth).abs()
            })
            .collect();
        mean(&v)
    };
    assert!(domo_err < mnt_err, "Domo {domo_err:.2} vs MNT {mnt_err:.2}");

    // vs MessageTracing on event order.
    let truth_ord = message_tracing::truth_order(&trace, view);
    let domo_ord =
        message_tracing::order_by_estimates(view, |pi, hop| match view.time_ref(pi, hop) {
            TimeRef::Known(t) => Some(t),
            TimeRef::Var(v) => est.time_of(v),
        });
    let mt_ord = message_tracing::reconstruct_order(&trace, view);
    let d_domo = average_displacement(&truth_ord, &domo_ord).unwrap();
    let d_mt = average_displacement(&truth_ord, &mt_ord.order).unwrap();
    assert!(
        d_domo < d_mt,
        "Domo {d_domo:.3} vs MessageTracing {d_mt:.3}"
    );
}

#[test]
fn bounds_are_sound_and_tighter_than_mnt() {
    let trace = run_simulation(&NetworkConfig::small(16, 1003));
    let domo = Domo::from_trace(&trace);
    let view = domo.view();
    let targets: Vec<usize> = (0..view.num_vars()).step_by(4).collect();
    let bounds = domo.bounds(&BoundsConfig::default(), &targets);
    let mnt_res = mnt::run_mnt(&trace, view, &mnt::MntConfig::default());

    let mut domo_widths = Vec::new();
    let mut mnt_widths = Vec::new();
    let mut covered = 0;
    for &t in &targets {
        let (lo, hi) = bounds.of(t).unwrap();
        assert!(lo <= hi + 1e-6);
        domo_widths.push(hi - lo);
        mnt_widths.push(mnt_res.ub[t] - mnt_res.lb[t]);
        let hr = view.vars()[t];
        let truth = trace.truth(view.packet(hr.packet).pid).unwrap()[hr.hop].as_millis_f64();
        if truth >= lo - 0.5 && truth <= hi + 0.5 {
            covered += 1;
        }
    }
    assert!(
        covered as f64 >= 0.95 * targets.len() as f64,
        "bounds must contain the truth: {covered}/{}",
        targets.len()
    );
    assert!(
        mean(&domo_widths) < mean(&mnt_widths),
        "Domo bounds {:.2} ms vs MNT {:.2} ms",
        mean(&domo_widths),
        mean(&mnt_widths)
    );
}

#[test]
fn pipeline_is_deterministic() {
    let run = |seed| {
        let trace = run_simulation(&NetworkConfig::small(16, seed));
        let domo = Domo::from_trace(&trace);
        let est = domo.estimate(&EstimatorConfig::default());
        est.times_ms
    };
    assert_eq!(run(7), run(7));
    assert_ne!(run(7), run(8));
}

#[test]
fn extra_loss_degrades_gracefully() {
    let trace = run_simulation(&NetworkConfig::small(25, 1004));
    let mut rng = Xoshiro256pp::seed_from_u64(99);
    let lossy = trace.with_extra_loss(0.3, &mut rng);

    let clean_err = {
        let domo = Domo::from_trace(&trace);
        let est = domo.estimate(&EstimatorConfig::default());
        mean(&estimate_errors(&trace, &domo, &est))
    };
    let lossy_err = {
        let domo = Domo::from_trace(&lossy);
        let est = domo.estimate(&EstimatorConfig::default());
        mean(&estimate_errors(&lossy, &domo, &est))
    };
    // The paper: 3.58 ms → 3.62–4.31 ms under 10–30 % loss. Allow the
    // degradation to stay within ~2× rather than collapsing.
    assert!(
        lossy_err < clean_err * 2.5 + 2.0,
        "loss degradation too steep: {clean_err:.2} → {lossy_err:.2}"
    );
}

#[test]
fn reconstructed_delays_telescope_exactly() {
    let trace = run_simulation(&NetworkConfig::small(16, 1005));
    let domo = Domo::from_trace(&trace);
    let est = domo.estimate(&EstimatorConfig::default());
    for pi in 0..domo.view().num_packets() {
        let p = domo.view().packet(pi);
        let sum: f64 = domo.hop_delays(pi, &est).iter().sum();
        assert!(
            (sum - p.e2e_delay().as_millis_f64()).abs() < 1e-6,
            "per-hop delays of {} must sum to its end-to-end delay",
            p.pid
        );
    }
}

/// Reconstruction accuracy pinned by number. The references are what
/// the dense-Cholesky KKT path produced at the commit before the sparse
/// LDLᵀ replaced it (PR 11, `2db3f89`); the linear algebra changed, the
/// algorithm and its tolerances did not, so the error, the iteration
/// count and the convergence of every window must not have moved.
#[test]
fn estimate_accuracy_is_pinned_to_the_dense_kkt_reference() {
    let paper = {
        let mut trace = run_simulation(&NetworkConfig::paper_scale(100, 7));
        trace.packets.truncate(600);
        trace
    };
    let small = run_simulation(&NetworkConfig::small(25, 7));
    // (trace, mean |error| in ms, windows, total ADMM iterations)
    for (name, trace, ref_err, ref_windows, ref_iterations) in [
        ("small(25, 7)", &small, 3.516534332530, 11usize, 2950usize),
        (
            "paper_scale(100, 7)[..600]",
            &paper,
            4.067775973666,
            24,
            900,
        ),
    ] {
        let cfg = EstimatorConfig::default();
        let domo = Domo::from_trace(trace);
        let est = domo.estimate(&cfg);
        let err = mean(&estimate_errors(trace, &domo, &est));
        assert!(
            (err - ref_err).abs() <= 0.005 * ref_err,
            "{name}: mean |error| {err:.9} ms, reference {ref_err:.9} ms"
        );
        assert_eq!(est.stats.unsolved_windows, 0, "{name}");
        assert_eq!(est.stats.windows, ref_windows, "{name}");
        // Convergence is only tested every `check_interval` iterations,
        // so a last-digit difference can move a window by one interval.
        let slack = cfg.solver.check_interval * ref_windows;
        assert!(
            est.stats.total_iterations.abs_diff(ref_iterations) <= slack,
            "{name}: {} iterations, reference {ref_iterations} ± {slack}",
            est.stats.total_iterations
        );
    }
}
