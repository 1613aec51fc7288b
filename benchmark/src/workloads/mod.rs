//! The five workloads. Each runs [`crate::input::ROUNDS`] rounds — a
//! fresh network against a freshly set-up system — and pools them into
//! one [`RunResult`].

pub mod offline;
pub mod query;
pub mod stream;

use crate::report::RunResult;
use crate::stats;
use crate::sys;
use std::collections::BTreeMap;

/// A workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed batch over the 400-node network: estimate, then bounds.
    OfflinePaper400,
    /// The whole input flooded at a durable sink, nothing shed.
    StreamBacklog,
    /// Open loop at 40% of capacity, result freshness on a live tail.
    StreamPaced,
    /// Open loop at four times capacity for a fixed offer window.
    IngestOverload,
    /// Closed-loop query mix over a populated sink; the solver idles.
    QueryMix,
}

impl Workload {
    /// Every workload, in the order a set runs them.
    pub const ALL: [Workload; 5] = [
        Workload::OfflinePaper400,
        Workload::StreamBacklog,
        Workload::StreamPaced,
        Workload::IngestOverload,
        Workload::QueryMix,
    ];

    /// The name `BENCHMARK.json` and `--workload` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::OfflinePaper400 => "offline_paper400",
            Workload::StreamBacklog => "stream_backlog",
            Workload::StreamPaced => "stream_paced",
            Workload::IngestOverload => "ingest_overload",
            Workload::QueryMix => "query_mix",
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Runs the workload: the timed variant with `traced` false, the
    /// traced variant (per-layer probes and spans) otherwise.
    ///
    /// # Errors
    ///
    /// A step that could not be carried out at all (socket, file or
    /// protocol failure). Outputs that are merely wrong do not error:
    /// they are recorded as violations in the result.
    pub fn run(self, seed: u64, seconds: f64, traced: bool) -> Result<RunResult, String> {
        let mut result = RunResult {
            workload: self.name().to_string(),
            seed,
            traced,
            ..RunResult::default()
        };
        if traced {
            let mut layers = BTreeMap::new();
            match self {
                Workload::OfflinePaper400 => {
                    crate::traced::offline_paper400(seed, seconds, &mut layers, &mut result)?
                }
                Workload::StreamBacklog => {
                    crate::traced::stream_backlog(seed, seconds, &mut layers, &mut result)?
                }
                Workload::StreamPaced => {
                    crate::traced::stream_paced(seed, seconds, &mut layers, &mut result)?
                }
                Workload::IngestOverload => {
                    crate::traced::ingest_overload(seed, seconds, &mut layers, &mut result)?
                }
                Workload::QueryMix => {
                    crate::traced::query_mix(seed, seconds, &mut layers, &mut result)?
                }
            }
            for (name, value) in layers {
                result.set(name, value);
            }
        } else {
            let tally = match self {
                Workload::OfflinePaper400 => offline::run(seed, seconds, &mut result)?,
                Workload::StreamBacklog => {
                    stream::run(stream::Kind::Backlog, seed, seconds, &mut result)?
                }
                Workload::StreamPaced => {
                    stream::run(stream::Kind::Paced, seed, seconds, &mut result)?
                }
                Workload::IngestOverload => {
                    stream::run(stream::Kind::Overload, seed, seconds, &mut result)?
                }
                Workload::QueryMix => query::run(seed, seconds, &mut result)?,
            };
            tally.finish(&mut result);
        }
        Ok(result)
    }
}

/// Per-layer values a traced run collects, by catalogue name.
pub type Layers = BTreeMap<&'static str, f64>;

/// What the rounds of a timed run add up to; [`Tally::finish`] turns it
/// into the end-to-end metrics.
#[derive(Debug, Default)]
pub struct Tally {
    /// Set-up time of each round, s.
    pub setup_s: Vec<f64>,
    /// Operations completed, all rounds.
    pub ops: u64,
    /// Wall time the operations took, all rounds, s.
    pub wall_s: f64,
    /// Input units the system accepted while they were offered.
    pub admitted: u64,
    /// Time they were offered for, s.
    pub admit_wall_s: f64,
    /// Per-operation latencies, ms.
    pub latencies_ms: Vec<f64>,
    /// |estimated − true| arrival time of every unknown, ms.
    pub errors_ms: Vec<f64>,
    /// Process CPU time spent inside the measured windows, s.
    pub cpu_s: f64,
    /// `VmHWM` when the first round had been measured, MB.
    pub first_round_peak_rss_mb: f64,
    /// Operations per second of each round on its own. The rounds run
    /// different networks, so these differ by design; they are printed
    /// to show how much of a run's figure each network carries.
    pub round_ops_per_s: Vec<f64>,
}

impl Tally {
    /// Adds one round's completed operations and the wall time they
    /// took.
    pub fn add_round(&mut self, ops: u64, wall_s: f64) {
        self.ops += ops;
        self.wall_s += wall_s;
        self.round_ops_per_s.push(if wall_s > 0.0 {
            ops as f64 / wall_s
        } else {
            0.0
        });
    }

    /// Called when a round's measured work is done, before its outputs
    /// are checked. Peak memory is read after the first round, which
    /// runs the same reference network in every run: a sink process
    /// serves one network, and what later rounds add on top is allocator
    /// retention across four in-process server restarts, which no
    /// deployment performs (and which swings by 15% run to run).
    pub fn end_of_measuring(&mut self, round: usize) {
        if round == 0 {
            self.first_round_peak_rss_mb = sys::peak_rss_mb();
        }
    }

    /// Derives the nine end-to-end metrics. Rates pool the rounds
    /// (total work over total time); set-up is the median round.
    pub fn finish(self, result: &mut RunResult) {
        let per = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        for (i, r) in self.round_ops_per_s.iter().enumerate() {
            result.note(&format!("round{i}_ops_per_s"), *r);
        }
        result.set("setup_s", stats::median(&self.setup_s));
        result.set("ops_per_s", per(self.ops as f64, self.wall_s));
        result.set("admit_per_s", per(self.admitted as f64, self.admit_wall_s));
        let lat = stats::summarize(self.latencies_ms, 99.0);
        result.set("latency_p50_ms", lat.p50);
        result.set("latency_tail_ms", lat.tail);
        result.note("latency_samples", lat.n as f64);
        result.note("latency_tail_pct", lat.tail_pct);
        let errs = stats::sorted(self.errors_ms);
        result.set("est_err_mean_ms", stats::mean(&errs));
        result.set("est_err_p90_ms", stats::percentile(&errs, 90.0));
        result.note("est_err_samples", errs.len() as f64);
        result.set("cpu_s_per_kop", per(self.cpu_s * 1000.0, self.ops as f64));
        result.set("peak_rss_mb", self.first_round_peak_rss_mb);
        result.note("process_peak_rss_mb", sys::peak_rss_mb());
        result.note("nproc", sys::nproc() as f64);
        for name in RunResult::expected_names(false) {
            let v = result.metrics.get(name).copied().unwrap_or(0.0);
            result.check(v.is_finite() && v > 0.0, || {
                format!("end-to-end metric {name} is {v}, not a positive number")
            });
        }
    }
}

/// Times `f`, returning its value with the wall seconds and the process
/// CPU seconds it took.
pub fn measured<T>(f: impl FnOnce() -> T) -> (T, f64, f64) {
    let cpu0 = sys::cpu_seconds();
    let t0 = std::time::Instant::now();
    let out = f();
    let wall = t0.elapsed().as_secs_f64();
    (out, wall, sys::cpu_seconds() - cpu0)
}
