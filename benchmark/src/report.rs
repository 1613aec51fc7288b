//! The metric catalogue (the same names, units and directions as
//! `BENCHMARK.json`, which a unit test holds it to), the result of one
//! run, and its rendering: the named lines a person reads and the one
//! JSON line the driver reads last.

use crate::json::Json;
use std::collections::BTreeMap;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// One metric of the catalogue.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Name, unique across the catalogue.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression (end-to-end only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

/// End-to-end metrics, reported by every workload with tracing off.
/// What an *operation* is on each workload is fixed in `README.md`.
///
/// The bounds come from measurement, not from wishes: on the 2-core
/// reference host the timing metrics of the stream workloads read 5–12%
/// apart (interquartile, ten seeds) with no change in the code — two
/// shard workers saturate both cores, so every generator wake-up and
/// every neighbour on the host shows — and a bound is of use only if it
/// sits clear of that, at about three times the spread. Accuracy
/// depends on the input alone and spreads 5% across seeds.
pub const END_TO_END: [MetricDef; 9] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("ops_per_s", "1/s", Better::Higher, 0.25),
    e2e("admit_per_s", "1/s", Better::Higher, 0.25),
    e2e("latency_p50_ms", "ms", Better::Lower, 0.25),
    e2e("latency_tail_ms", "ms", Better::Lower, 0.25),
    e2e("est_err_mean_ms", "ms", Better::Lower, 0.15),
    e2e("est_err_p90_ms", "ms", Better::Lower, 0.15),
    e2e("cpu_s_per_kop", "s", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.25),
];

/// The definition of an end-to-end or per-layer metric.
pub fn find(name: &str) -> Option<MetricDef> {
    END_TO_END
        .iter()
        .copied()
        .chain(crate::layers::PER_LAYER.iter().copied())
        .find(|m| m.name == name)
}

/// What one run measured.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunResult {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Whether the traced variant ran.
    pub traced: bool,
    /// Operations offered.
    pub attempted: u64,
    /// Operations that errored, went unaccounted or verified wrong.
    pub failed: u64,
    /// Correctness checks that did not hold (empty = correct).
    pub violations: Vec<String>,
    /// Metric values by catalogue name.
    pub metrics: BTreeMap<String, f64>,
    /// Context printed for the reader and kept in `results.json`, but
    /// not part of the gated metric set (sample counts, the percentile
    /// the tail was taken at, generator lateness, fail ratio, …).
    pub context: BTreeMap<String, f64>,
}

impl RunResult {
    /// Whether every correctness check held.
    pub fn correct(&self) -> bool {
        self.violations.is_empty() && self.failed == 0
    }

    /// Records a correctness check: `ok` false adds `what` to the
    /// violations.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }

    /// Sets a metric.
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Sets a context value.
    pub fn note(&mut self, name: &str, value: f64) {
        self.context.insert(name.to_string(), value);
    }

    /// Adds to a context value (0 when absent): totals over rounds.
    pub fn add_note(&mut self, name: &str, value: f64) {
        *self.context.entry(name.to_string()).or_insert(0.0) += value;
    }

    /// The metric names this run must report: the end-to-end set with
    /// tracing off, the per-layer set with tracing on.
    pub fn expected_names(traced: bool) -> Vec<&'static str> {
        if traced {
            crate::layers::PER_LAYER.iter().map(|m| m.name).collect()
        } else {
            END_TO_END.iter().map(|m| m.name).collect()
        }
    }

    /// The one-line JSON object the driver reads: exactly `correct`,
    /// `attempted`, `failed` and `metrics`, with every expected metric
    /// present (a per-layer metric whose layer the workload does not
    /// exercise reads 0).
    pub fn driver_line(&self) -> String {
        let metrics = Self::expected_names(self.traced).into_iter().map(|name| {
            let value = self.metrics.get(name).copied().unwrap_or(0.0);
            let unit = find(name).map_or("", |m| m.unit);
            (
                name.to_string(),
                Json::obj([
                    ("value".to_string(), Json::Num(value)),
                    ("unit".to_string(), Json::Str(unit.to_string())),
                ]),
            )
        });
        Json::obj([
            ("correct".to_string(), Json::Bool(self.correct())),
            (
                "attempted".to_string(),
                Json::Num(self.attempted.max(1) as f64),
            ),
            ("failed".to_string(), Json::Num(self.failed as f64)),
            ("metrics".to_string(), Json::obj(metrics)),
        ])
        .render()
    }

    /// Human-readable report: every metric by name with its unit, the
    /// context values, and each violated check.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "workload {} seed {} trace {}",
            self.workload,
            self.seed,
            u8::from(self.traced)
        );
        for name in Self::expected_names(self.traced) {
            let value = self.metrics.get(name).copied().unwrap_or(0.0);
            let unit = find(name).map_or("", |m| m.unit);
            let _ = writeln!(out, "  {name:<40} {value:>16.6} {unit}");
        }
        for (name, value) in &self.context {
            let _ = writeln!(out, "  ({name:<38}) {value:>16.6}");
        }
        let _ = writeln!(
            out,
            "  attempted {} failed {} correct {}",
            self.attempted,
            self.failed,
            self.correct()
        );
        for v in &self.violations {
            let _ = writeln!(out, "  VIOLATION: {v}");
        }
        out
    }

    /// Full-fidelity form for `results.json`.
    pub fn to_json(&self) -> Json {
        let nums = |m: &BTreeMap<String, f64>| {
            Json::obj(m.iter().map(|(k, v)| (k.clone(), Json::Num(*v))))
        };
        Json::obj([
            ("workload".to_string(), Json::Str(self.workload.clone())),
            ("seed".to_string(), Json::Num(self.seed as f64)),
            ("traced".to_string(), Json::Bool(self.traced)),
            ("attempted".to_string(), Json::Num(self.attempted as f64)),
            ("failed".to_string(), Json::Num(self.failed as f64)),
            (
                "violations".to_string(),
                Json::Arr(self.violations.iter().cloned().map(Json::Str).collect()),
            ),
            ("metrics".to_string(), nums(&self.metrics)),
            ("context".to_string(), nums(&self.context)),
        ])
    }

    /// Inverse of [`RunResult::to_json`].
    pub fn from_json(j: &Json) -> Option<RunResult> {
        let nums = |key: &str| -> Option<BTreeMap<String, f64>> {
            j.get(key)?
                .as_obj()?
                .iter()
                .map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                .collect()
        };
        Some(RunResult {
            workload: j.get("workload")?.as_str()?.to_string(),
            seed: j.get("seed")?.as_f64()? as u64,
            traced: j.get("traced")?.as_bool()?,
            attempted: j.get("attempted")?.as_f64()? as u64,
            failed: j.get("failed")?.as_f64()? as u64,
            violations: j
                .get("violations")?
                .as_arr()?
                .iter()
                .map(|v| v.as_str().map(str::to_string))
                .collect::<Option<_>>()?,
            metrics: nums("metrics")?,
            context: nums("context")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn sample() -> RunResult {
        let mut r = RunResult {
            workload: "stream_backlog".to_string(),
            seed: 7,
            traced: false,
            attempted: 1000,
            failed: 0,
            ..RunResult::default()
        };
        r.set("ops_per_s", 5035.123456789);
        r.set("setup_s", 0.25);
        r.note("latency_tail_pct", 99.0);
        r
    }

    #[test]
    fn results_round_trip_through_json() {
        let mut r = sample();
        r.check(false, || "dropped 3 != 0".to_string());
        let text = r.to_json().render();
        let back = RunResult::from_json(&json::parse(&text).unwrap());
        assert_eq!(back, Some(r));
    }

    #[test]
    fn driver_line_has_exactly_the_contract_keys_and_every_metric() {
        let line = sample().driver_line();
        assert!(!line.contains('\n'));
        let j = json::parse(&line).unwrap();
        let keys: Vec<_> = j.as_obj().unwrap().keys().cloned().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(j.get("correct").and_then(Json::as_bool), Some(true));
        let metrics = j.get("metrics").unwrap().as_obj().unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        let ops = &metrics["ops_per_s"];
        assert_eq!(
            ops.get("value").and_then(Json::as_f64),
            Some(5035.123456789)
        );
        assert_eq!(ops.get("unit").and_then(Json::as_str), Some("1/s"));

        let traced = RunResult {
            traced: true,
            ..sample()
        };
        let j = json::parse(&traced.driver_line()).unwrap();
        let metrics = j.get("metrics").unwrap().as_obj().unwrap();
        assert_eq!(metrics.len(), crate::layers::PER_LAYER.len());
    }

    #[test]
    fn a_violation_or_a_failure_makes_the_run_incorrect() {
        let mut r = sample();
        assert!(r.correct());
        r.failed = 1;
        assert!(!r.correct());
        r.failed = 0;
        r.check(true, || unreachable!());
        assert!(r.correct());
        r.check(false, || "x".to_string());
        assert!(!r.correct());
        assert!(r.render_text().contains("VIOLATION: x"));
    }

    /// `BENCHMARK.json` at the repository root is the driver's copy of
    /// the catalogue; this keeps the two from drifting apart.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
        assert!(text.len() <= 64 * 1024);
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let keys: Vec<_> = doc.as_obj().unwrap().keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        let listed = |key: &str| -> Vec<(String, String, String, Option<f64>)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
                    (
                        s("name"),
                        s("unit"),
                        s("better"),
                        m.get("bound").and_then(Json::as_f64),
                    )
                })
                .collect()
        };
        let expected = |defs: &[MetricDef]| -> Vec<(String, String, String, Option<f64>)> {
            defs.iter()
                .map(|m| {
                    (
                        m.name.to_string(),
                        m.unit.to_string(),
                        match m.better {
                            Better::Lower => "lower",
                            Better::Higher => "higher",
                        }
                        .to_string(),
                        m.bound,
                    )
                })
                .collect()
        };
        assert_eq!(listed("end_to_end"), expected(&END_TO_END));
        assert_eq!(listed("per_layer"), expected(&crate::layers::PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        let ours: Vec<&str> = crate::workloads::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(workloads, ours);
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    #[test]
    fn catalogue_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(crate::layers::PER_LAYER.iter())
            .map(|m| m.name)
            .collect();
        let total = names.len();
        for n in &names {
            assert!(n.len() <= 64, "{n}");
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')),
                "{n}"
            );
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        assert!(crate::layers::PER_LAYER.len() <= 128);
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b <= 0.25)));
    }
}
