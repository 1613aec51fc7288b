//! A full set: every workload in a process of its own, a table of every
//! metric by name with its unit, `out/results.json`, and — with
//! `--repeat K` — the run-to-run spread of every metric and a verdict on
//! whether the sets agree within the benchmark's own bounds.

use crate::json::{self, Json};
use crate::report::{self, Better, RunResult, END_TO_END};
use crate::stats;
use crate::sys;
use crate::workloads::Workload;
use std::collections::BTreeMap;
use std::process::{Command, Stdio};

/// Prefix of the line a single run prints its full result on, for the
/// suite to read; the driver-contract line stays the last one.
pub const FULL_RESULT_PREFIX: &str = "full-result: ";

/// Values that depend on the input alone and must repeat to the last
/// digit between two runs of one seed: accuracy wherever every packet is
/// reconstructed, and the counts of deterministic work.
fn must_repeat_exactly(workload: Workload, metric: &str) -> bool {
    let every_packet_reconstructed = workload != Workload::IngestOverload;
    match metric {
        "est_err_mean_ms" | "est_err_p90_ms" => every_packet_reconstructed,
        "core.windows"
        | "solver.iterations_total"
        | "core.unsolved_windows"
        | "core.relaxed_retries"
        | "core.bound_width_mean_ms"
        | "core.bound_coverage" => workload == Workload::OfflinePaper400,
        "sink.emitted" | "sink.ingested" | "gen.offered" => every_packet_reconstructed,
        "core.stream_flushes" | "core.stream_solved_per_emitted" => {
            workload == Workload::StreamBacklog
        }
        _ => false,
    }
}

/// Runs one workload in a child process and parses its full result.
fn run_child(
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate the benchmark binary: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {}: {e}", workload.name()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let full = stdout
        .lines()
        .rev()
        .find_map(|l| l.strip_prefix(FULL_RESULT_PREFIX))
        .ok_or_else(|| {
            format!(
                "{} (trace {}) exited with {} and printed no result",
                workload.name(),
                u8::from(traced),
                output.status
            )
        })?;
    let parsed = json::parse(full).map_err(|e| format!("{}: result line: {e}", workload.name()))?;
    RunResult::from_json(&parsed)
        .ok_or_else(|| format!("{}: result line has the wrong shape", workload.name()))
}

/// One set: every workload once, timed, and once more traced if asked.
fn run_set(seed: u64, seconds: f64, trace: bool) -> Result<Vec<RunResult>, String> {
    let mut results = Vec::new();
    for workload in Workload::ALL {
        for traced in [false, true] {
            if traced && !trace {
                continue;
            }
            eprintln!(
                "[benchmark] {} seed {seed} trace {}",
                workload.name(),
                u8::from(traced)
            );
            results.push(run_child(workload, seed, seconds, traced)?);
        }
    }
    Ok(results)
}

fn key(r: &RunResult) -> (String, bool) {
    (r.workload.clone(), r.traced)
}

/// Prints one set as a metric × workload table, a block per metric set.
fn print_set(set: &[RunResult]) {
    for traced in [false, true] {
        let runs: Vec<&RunResult> = set.iter().filter(|r| r.traced == traced).collect();
        if runs.is_empty() {
            continue;
        }
        println!(
            "\n{} metrics (tracing {})",
            if traced { "per-layer" } else { "end-to-end" },
            if traced { "on" } else { "off" }
        );
        print!("{:<42} {:<6}", "metric", "unit");
        for r in &runs {
            print!(" {:>17}", r.workload);
        }
        println!();
        for name in RunResult::expected_names(traced) {
            let unit = report::find(name).map_or("", |m| m.unit);
            print!("{name:<42} {unit:<6}");
            for r in &runs {
                let v = r.metrics.get(name).copied().unwrap_or(0.0);
                if traced && v == 0.0 {
                    print!(" {:>17}", "-");
                } else {
                    print!(" {v:>17.4}");
                }
            }
            println!();
        }
        if !traced {
            for ctx in ["fail_ratio", "latency_samples", "latency_tail_pct"] {
                print!("{:<42} {:<6}", format!("({ctx})"), "");
                for r in &runs {
                    match r.context.get(ctx) {
                        Some(v) => print!(" {v:>17.4}"),
                        None => print!(" {:>17}", "-"),
                    }
                }
                println!();
            }
        }
    }
    for r in set {
        for v in &r.violations {
            println!(
                "VIOLATION {} (trace {}): {v}",
                r.workload,
                u8::from(r.traced)
            );
        }
    }
}

/// How far apart two readings of a metric are, as the share by which
/// the worse exceeds the better.
fn disagreement(better: Better, a: f64, b: f64) -> f64 {
    let (good, bad) = match better {
        Better::Lower => (a.min(b), a.max(b)),
        Better::Higher => (a.max(b), a.min(b)),
    };
    if good == bad {
        0.0
    } else if good == 0.0 {
        f64::INFINITY
    } else {
        ((bad - good) / good).abs()
    }
}

/// Compares the sets metric by metric. Prints median, quartiles and
/// relative spread of each metric × workload and returns the findings
/// that make the sets disagree.
fn compare_sets(sets: &[Vec<RunResult>]) -> Vec<String> {
    let mut findings = Vec::new();
    let mut by_run: BTreeMap<(String, bool), Vec<&RunResult>> = BTreeMap::new();
    for set in sets {
        for r in set {
            by_run.entry(key(r)).or_default().push(r);
        }
    }
    println!("\nrun-to-run spread over {} sets", sets.len());
    println!(
        "{:<18} {:<34} {:>14} {:>14} {:>14} {:>9}",
        "workload", "metric", "q1", "median", "q3", "spread"
    );
    for ((workload, traced), runs) in &by_run {
        let Some(w) = Workload::parse(workload) else {
            continue;
        };
        for name in RunResult::expected_names(*traced) {
            let values: Vec<f64> = runs
                .iter()
                .map(|r| r.metrics.get(name).copied().unwrap_or(0.0))
                .collect();
            if *traced && values.iter().all(|v| *v == 0.0) {
                continue;
            }
            if let Some((q1, q2, q3)) = stats::quartiles(&values) {
                let spread = stats::relative_spread(&values).unwrap_or(0.0);
                println!(
                    "{workload:<18} {name:<34} {q1:>14.4} {q2:>14.4} {q3:>14.4} {:>8.2}%",
                    spread * 100.0
                );
            }
            if must_repeat_exactly(w, name) && values.windows(2).any(|p| p[0] != p[1]) {
                findings.push(format!(
                    "{workload}: {name} depends on the input alone yet read {values:?}"
                ));
            }
            let Some(def) = END_TO_END.iter().find(|m| m.name == name) else {
                continue;
            };
            let bound = def.bound.unwrap_or(0.0);
            for (i, a) in values.iter().enumerate() {
                for b in &values[i + 1..] {
                    let d = disagreement(def.better, *a, *b);
                    if d > bound {
                        findings.push(format!(
                            "{workload}: {name} read {a} and {b}, {:.1}% apart (bound {:.0}%)",
                            d * 100.0,
                            bound * 100.0
                        ));
                    }
                }
            }
        }
        if !*traced && w != Workload::IngestOverload {
            let ratios: Vec<f64> = runs
                .iter()
                .map(|r| r.context.get("fail_ratio").copied().unwrap_or(0.0))
                .collect();
            if ratios.windows(2).any(|p| p[0] != p[1]) {
                findings.push(format!(
                    "{workload}: fail_ratio differs between sets: {ratios:?}"
                ));
            }
        }
    }
    findings
}

/// `results.json`: what was run, on what, and every result of every set.
pub fn results_document(seed: u64, seconds: f64, sets: &[Vec<RunResult>]) -> Json {
    Json::obj([
        ("seed".to_string(), Json::Num(seed as f64)),
        ("run_seconds".to_string(), Json::Num(seconds)),
        ("nproc".to_string(), Json::Num(sys::nproc() as f64)),
        (
            "sets".to_string(),
            Json::Arr(
                sets.iter()
                    .map(|set| Json::Arr(set.iter().map(RunResult::to_json).collect()))
                    .collect(),
            ),
        ),
    ])
}

/// Runs `repeat` sets. `Ok(true)` when every run was correct and the
/// sets agree.
pub fn run(seed: u64, seconds: f64, trace: bool, repeat: usize) -> Result<bool, String> {
    println!(
        "domo benchmark: seed {seed}, {seconds} s per run, nproc {}, {repeat} set(s){}",
        sys::nproc(),
        if trace { ", with traced runs" } else { "" }
    );
    let mut sets = Vec::with_capacity(repeat);
    for i in 0..repeat {
        let set = run_set(seed, seconds, trace)?;
        println!("\n=== set {} of {repeat} ===", i + 1);
        print_set(&set);
        sets.push(set);
    }
    let path = sys::out_dir()
        .map_err(|e| format!("create out dir: {e}"))?
        .join("results.json");
    let text = results_document(seed, seconds, &sets).render();
    std::fs::write(&path, text + "\n").map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("\nwrote {}", path.display());

    let mut ok = sets.iter().flatten().all(RunResult::correct);
    if !ok {
        println!("FAILED: a run reported incorrect outputs (see VIOLATION lines)");
    }
    if repeat > 1 {
        let findings = compare_sets(&sets);
        for f in &findings {
            println!("DISAGREE {f}");
        }
        if findings.is_empty() {
            println!("\nthe {repeat} sets agree within every bound");
        } else {
            ok = false;
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Inverse of [`results_document`]: the sets it holds.
    fn sets_of(doc: &Json) -> Option<Vec<Vec<RunResult>>> {
        doc.get("sets")?
            .as_arr()?
            .iter()
            .map(|set| set.as_arr()?.iter().map(RunResult::from_json).collect())
            .collect()
    }

    fn result(workload: &str, ops: f64, err: f64) -> RunResult {
        let mut r = RunResult {
            workload: workload.to_string(),
            seed: 7,
            attempted: 10,
            ..RunResult::default()
        };
        for m in END_TO_END {
            r.set(m.name, 1.0);
        }
        r.set("ops_per_s", ops);
        r.set("est_err_mean_ms", err);
        r.note("fail_ratio", 0.0);
        r
    }

    #[test]
    fn results_json_round_trips() {
        let sets = vec![
            vec![
                result("stream_backlog", 4000.5, 4.25),
                result("query_mix", 12000.0, 4.5),
            ],
            vec![result("stream_backlog", 4100.25, 4.25)],
        ];
        let text = results_document(7, 10.0, &sets).render();
        let doc = json::parse(&text).unwrap();
        assert_eq!(
            doc.get("nproc").and_then(Json::as_f64),
            Some(sys::nproc() as f64)
        );
        assert_eq!(doc.get("run_seconds").and_then(Json::as_f64), Some(10.0));
        assert_eq!(sets_of(&doc), Some(sets));
    }

    #[test]
    fn disagreement_is_measured_against_the_better_reading() {
        assert_eq!(disagreement(Better::Higher, 100.0, 90.0), 0.1);
        assert_eq!(disagreement(Better::Higher, 90.0, 100.0), 0.1);
        assert_eq!(disagreement(Better::Lower, 10.0, 12.0), 0.2);
        assert_eq!(disagreement(Better::Lower, 5.0, 5.0), 0.0);
        assert_eq!(disagreement(Better::Lower, 0.0, 1.0), f64::INFINITY);
    }

    #[test]
    fn sets_disagree_beyond_a_bound_or_when_a_deterministic_value_moves() {
        let bound = END_TO_END
            .iter()
            .find(|m| m.name == "ops_per_s")
            .and_then(|m| m.bound)
            .unwrap();
        let base = 4000.0;
        let agree = vec![
            vec![result("stream_backlog", base, 4.25)],
            vec![result("stream_backlog", base * (1.0 - bound / 2.0), 4.25)],
        ];
        assert_eq!(compare_sets(&agree), Vec::<String>::new());

        let slow = vec![
            vec![result("stream_backlog", base, 4.25)],
            vec![result("stream_backlog", base * (1.0 - bound) * 0.97, 4.25)],
        ];
        let findings = compare_sets(&slow);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].contains("ops_per_s"));

        let drift = vec![
            vec![result("stream_backlog", base, 4.25)],
            vec![result("stream_backlog", base, 4.250001)],
        ];
        let findings = compare_sets(&drift);
        assert!(
            findings
                .iter()
                .any(|f| f.contains("depends on the input alone")),
            "{findings:?}"
        );

        // accuracy under overload depends on what was shed: not pinned
        let overload = vec![
            vec![result("ingest_overload", base, 4.25)],
            vec![result("ingest_overload", base, 4.26)],
        ];
        assert_eq!(compare_sets(&overload), Vec::<String>::new());
    }
}
