//! Domo: passive per-packet delay tomography (reproduction of the
//! ICDCS 2014 paper).
//!
//! Given the trace a wireless collection network delivers to its sink —
//! per-packet routing path, generation time, sink arrival time, and the
//! 2-byte sum-of-delays field `S(p)` — this crate reconstructs the
//! **per-hop arrival time of every packet**, i.e. decomposes each
//! end-to-end delay into its per-node sojourn times.
//!
//! The pipeline follows the paper:
//!
//! 1. [`view::TraceView`] establishes notation: unknown variables for
//!    interior arrival times, known endpoints, candidate sets.
//! 2. [`constraints`] builds the three constraint families of §IV.A:
//!    FIFO, order, and sum-of-delays, with [`interval`] propagation
//!    acting as the ordering oracle that linearizes decidable FIFO
//!    pairs.
//! 3. [`estimator`] solves the windowed variance-minimization QP of
//!    §IV.B (optionally with the full semidefinite lifting of the
//!    undecided FIFO constraints) to produce *estimated values*.
//! 4. [`bounds`] computes per-unknown *lower/upper bounds* via the
//!    sub-graph-extraction LPs of §IV.C, with BLP boundary tuning.
//!
//! # Examples
//!
//! ```
//! use domo_core::Domo;
//!
//! let trace = domo_net::run_simulation(&domo_net::NetworkConfig::small(16, 1));
//! let domo = Domo::from_trace(&trace);
//! let estimates = domo.estimate(&Default::default());
//! // Reconstructed arrival times for the first packet:
//! let times = domo.hop_times(0, &estimates);
//! assert_eq!(times.len(), domo.view().packet(0).path.len());
//! assert!(times.windows(2).all(|w| w[0] <= w[1]));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bounds;
pub mod constraints;
pub mod diagnostics;
pub mod estimator;
pub mod expr;
pub mod interval;
pub mod lowering;
pub mod report;
pub mod sanitize;
pub mod streaming;
pub mod view;

pub use bounds::{
    bounds_all, bounds_for, try_bounds_for, BoundMethod, Bounds, BoundsConfig, BoundsError,
    BoundsStats,
};
pub use constraints::{
    build_constraints, expr_interval, restrict_row_to, tighten_intervals_with_rows, ConstraintKind,
    ConstraintOptions, ConstraintSystem, FifoPair, Row, RowRestriction,
};
pub use diagnostics::{diagnose, SystemDiagnostics};
pub use estimator::{
    estimate, try_estimate, try_estimate_prefix, Estimates, EstimatorConfig, EstimatorError,
    EstimatorStats, FifoMode,
};
pub use interval::{propagate, propagate_from_seed, Intervals};
pub use report::{build_report, compare_windows, DelayReport, NodeShift, ReportOptions};
pub use sanitize::{check_packet, sanitize_packets, QuarantinedPacket, SanitizeConfig, TraceError};
pub use streaming::{ReconstructedPacket, StreamingEstimator, StreamingSnapshot};
pub use view::{CandidateSets, HopRef, TimeRef, TraceView};

use domo_net::NetworkTrace;

/// A structured failure from the [`Domo`] facade's `try_*` methods.
#[derive(Debug, Clone, PartialEq)]
pub enum DomoError {
    /// A packet index does not exist in the view.
    PacketOutOfRange {
        /// The offending index.
        index: usize,
        /// Packets in the view.
        packets: usize,
    },
    /// An estimate was missing for an interior variable (only possible
    /// with partial [`Estimates`], e.g. from a foreign streaming run).
    MissingEstimate {
        /// The uncommitted variable.
        var: usize,
    },
    /// The estimator rejected its configuration.
    Estimator(EstimatorError),
    /// The bound solver rejected its inputs.
    Bounds(BoundsError),
}

impl std::fmt::Display for DomoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::PacketOutOfRange { index, packets } => {
                write!(f, "packet {index} out of range ({packets} packets)")
            }
            Self::MissingEstimate { var } => {
                write!(f, "estimate missing for a committed variable ({var})")
            }
            Self::Estimator(e) => write!(f, "{e}"),
            Self::Bounds(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for DomoError {}

impl From<EstimatorError> for DomoError {
    fn from(e: EstimatorError) -> Self {
        Self::Estimator(e)
    }
}

impl From<BoundsError> for DomoError {
    fn from(e: BoundsError) -> Self {
        Self::Bounds(e)
    }
}

/// High-level facade: build once from a trace, then estimate and bound.
#[derive(Debug, Clone)]
pub struct Domo {
    view: TraceView,
    quarantine: Vec<QuarantinedPacket>,
}

impl Domo {
    /// Builds the analyzer from a network trace (only the sink-side
    /// packet records are read — never the ground truth). The records
    /// are taken **as-is**: use [`Domo::sanitized_from_trace`] for
    /// traces that may contain malformed records.
    pub fn from_trace(trace: &NetworkTrace) -> Self {
        Self {
            view: TraceView::new(trace.packets.clone()),
            quarantine: Vec::new(),
        }
    }

    /// Builds the analyzer from raw collected packets, as-is.
    pub fn from_packets(packets: Vec<domo_net::CollectedPacket>) -> Self {
        Self {
            view: TraceView::new(packets),
            quarantine: Vec::new(),
        }
    }

    /// Builds the analyzer from a trace after running the sanitizer:
    /// malformed records are quarantined (see [`Domo::quarantine`])
    /// instead of corrupting the reconstruction. On an already-clean
    /// trace this is identical to [`Domo::from_trace`].
    pub fn sanitized_from_trace(trace: &NetworkTrace, cfg: &SanitizeConfig) -> Self {
        Self::sanitized_from_packets(trace.packets.clone(), cfg)
    }

    /// Builds the analyzer from raw collected packets after sanitizing.
    pub fn sanitized_from_packets(
        packets: Vec<domo_net::CollectedPacket>,
        cfg: &SanitizeConfig,
    ) -> Self {
        let (clean, quarantine) = sanitize_packets(packets, cfg);
        Self {
            view: TraceView::new(clean),
            quarantine,
        }
    }

    /// The underlying trace view.
    pub fn view(&self) -> &TraceView {
        &self.view
    }

    /// Records the sanitizer rejected (empty for the as-is
    /// constructors).
    pub fn quarantine(&self) -> &[QuarantinedPacket] {
        &self.quarantine
    }

    /// Structural diagnostics of the constraint system, including the
    /// quarantine count from construction.
    pub fn diagnostics(&self, opts: &ConstraintOptions) -> SystemDiagnostics {
        let mut d = diagnose(&self.view, opts);
        d.quarantined_packets = self.quarantine.len();
        d
    }

    /// Runs the windowed estimator (§IV.B).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid ([`Domo::try_estimate`]
    /// reports that as an error instead).
    pub fn estimate(&self, cfg: &EstimatorConfig) -> Estimates {
        estimate(&self.view, cfg)
    }

    /// Non-panicking variant of [`Domo::estimate`].
    ///
    /// # Errors
    ///
    /// Returns [`DomoError::Estimator`] when the configuration is
    /// invalid. Solver-level trouble (non-convergence, infeasible
    /// windows, failed factorizations) is *not* an error: it degrades
    /// through the estimator's fallback ladder and is reported in
    /// [`EstimatorStats`].
    pub fn try_estimate(&self, cfg: &EstimatorConfig) -> Result<Estimates, DomoError> {
        Ok(try_estimate(&self.view, cfg)?)
    }

    /// Runs the bound solver (§IV.C) for selected unknowns.
    ///
    /// # Panics
    ///
    /// Panics if a target is out of range.
    pub fn bounds(&self, cfg: &BoundsConfig, targets: &[usize]) -> Bounds {
        bounds_for(&self.view, cfg, targets)
    }

    /// Non-panicking variant of [`Domo::bounds`].
    ///
    /// # Errors
    ///
    /// Returns [`DomoError::Bounds`] when a target is out of range or
    /// the configuration is invalid. LPs that fail to converge fall
    /// back to interval-propagation bounds (see [`BoundsStats`]).
    pub fn try_bounds(&self, cfg: &BoundsConfig, targets: &[usize]) -> Result<Bounds, DomoError> {
        Ok(try_bounds_for(&self.view, cfg, targets)?)
    }

    /// The full reconstructed arrival-time sequence of a packet:
    /// known endpoints plus estimated interior times.
    ///
    /// # Panics
    ///
    /// Panics if `packet` is out of range or an interior estimate is
    /// missing (full-trace estimation always commits every variable).
    pub fn hop_times(&self, packet: usize, estimates: &Estimates) -> Vec<f64> {
        match self.try_hop_times(packet, estimates) {
            Ok(times) => times,
            Err(e) => panic!("{e}"),
        }
    }

    /// Non-panicking variant of [`Domo::hop_times`].
    ///
    /// # Errors
    ///
    /// [`DomoError::PacketOutOfRange`] for a bad index and
    /// [`DomoError::MissingEstimate`] when `estimates` never committed
    /// one of the packet's interior variables.
    pub fn try_hop_times(
        &self,
        packet: usize,
        estimates: &Estimates,
    ) -> Result<Vec<f64>, DomoError> {
        if packet >= self.view.num_packets() {
            return Err(DomoError::PacketOutOfRange {
                index: packet,
                packets: self.view.num_packets(),
            });
        }
        let len = self.view.packet(packet).path.len();
        (0..len)
            .map(|hop| match self.view.time_ref(packet, hop) {
                TimeRef::Known(t) => Ok(t),
                TimeRef::Var(v) => estimates
                    .time_of(v)
                    .ok_or(DomoError::MissingEstimate { var: v }),
            })
            .collect()
    }

    /// Per-hop node delays of a packet under an estimate
    /// (`D_i = t_{i+1} − t_i`, length `|p| − 1`).
    ///
    /// # Panics
    ///
    /// Same conditions as [`Domo::hop_times`].
    pub fn hop_delays(&self, packet: usize, estimates: &Estimates) -> Vec<f64> {
        let times = self.hop_times(packet, estimates);
        times.windows(2).map(|w| w[1] - w[0]).collect()
    }

    /// Guaranteed per-hop delay brackets of a packet, derived from
    /// arrival-time bounds: `D_i ∈ [lb_{i+1} − ub_i, ub_{i+1} − lb_i]`,
    /// floored at `omega_ms`. Hops whose endpoint bounds were not
    /// computed yield `None`.
    ///
    /// # Panics
    ///
    /// Panics if `packet` is out of range.
    pub fn hop_delay_bounds(
        &self,
        packet: usize,
        bounds: &Bounds,
        omega_ms: f64,
    ) -> Vec<Option<(f64, f64)>> {
        let p = self.view.packet(packet);
        let endpoint = |hop: usize| -> Option<(f64, f64)> {
            match self.view.time_ref(packet, hop) {
                TimeRef::Known(t) => Some((t, t)),
                TimeRef::Var(v) => bounds.of(v),
            }
        };
        (0..p.path.len() - 1)
            .map(|hop| {
                let (a_lo, a_hi) = endpoint(hop)?;
                let (b_lo, b_hi) = endpoint(hop + 1)?;
                let lo = (b_lo - a_hi).max(omega_ms);
                let hi = (b_hi - a_lo).max(lo);
                Some((lo, hi))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn facade_round_trip() {
        let trace = domo_net::run_simulation(&domo_net::NetworkConfig::small(16, 41));
        let domo = Domo::from_trace(&trace);
        let est = domo.estimate(&EstimatorConfig::default());
        for p in 0..domo.view().num_packets() {
            let times = domo.hop_times(p, &est);
            let delays = domo.hop_delays(p, &est);
            assert_eq!(times.len(), domo.view().packet(p).path.len());
            assert_eq!(delays.len(), times.len() - 1);
            let e2e: f64 = delays.iter().sum();
            let expected = domo.view().packet(p).e2e_delay().as_millis_f64();
            assert!(
                (e2e - expected).abs() < 1e-6,
                "delays must telescope to the end-to-end delay"
            );
        }
    }

    #[test]
    fn facade_bounds_bracket_estimates_loosely() {
        let trace = domo_net::run_simulation(&domo_net::NetworkConfig::small(9, 42));
        let domo = Domo::from_trace(&trace);
        let est = domo.estimate(&EstimatorConfig::default());
        let targets: Vec<usize> = (0..domo.view().num_vars()).step_by(5).collect();
        let b = domo.bounds(&BoundsConfig::default(), &targets);
        // Both outputs are approximate (the estimator relaxes rows that
        // cross window boundaries; the LP stops at ms-scale tolerance),
        // so agreement is loose: a few ms, not exact containment.
        for &t in &targets {
            let (lo, hi) = b.of(t).unwrap();
            let e = est.time_of(t).unwrap();
            assert!(
                e >= lo - 4.0 && e <= hi + 4.0,
                "estimate {e} outside [{lo}, {hi}]"
            );
        }
    }

    #[test]
    fn hop_delay_bounds_bracket_true_delays() {
        let trace = domo_net::run_simulation(&domo_net::NetworkConfig::small(9, 44));
        let domo = Domo::from_trace(&trace);
        let targets: Vec<usize> = (0..domo.view().num_vars()).collect();
        let b = domo.bounds(&BoundsConfig::default(), &targets);
        let mut checked = 0;
        let mut inside = 0;
        for pi in 0..domo.view().num_packets() {
            let p = domo.view().packet(pi);
            let truth = trace.truth(p.pid).unwrap();
            for (hop, db) in domo.hop_delay_bounds(pi, &b, 0.5).iter().enumerate() {
                let (lo, hi) = db.expect("all targets computed");
                assert!(lo <= hi + 1e-9);
                let d = (truth[hop + 1] - truth[hop]).as_millis_f64();
                checked += 1;
                if d >= lo - 0.5 && d <= hi + 0.5 {
                    inside += 1;
                }
            }
        }
        assert!(checked > 100);
        assert!(
            inside as f64 >= 0.95 * checked as f64,
            "delay brackets must contain truth: {inside}/{checked}"
        );
    }

    #[test]
    fn from_packets_matches_from_trace() {
        let trace = domo_net::run_simulation(&domo_net::NetworkConfig::small(9, 43));
        let a = Domo::from_trace(&trace);
        let b = Domo::from_packets(trace.packets.clone());
        assert_eq!(a.view().num_vars(), b.view().num_vars());
    }
}
