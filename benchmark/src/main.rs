//! The repository's benchmark. See `README.md` beside `Cargo.toml` for
//! the workloads, the metrics and what each is expected to move.
//!
//! ```text
//! domo-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one run of one workload; the last line of standard output is the
//!     JSON object `BENCHMARK.json`'s contract describes
//! domo-benchmark [--seed <n>] [--seconds <s>] [--trace] [--repeat <k>]
//!     a full set: every workload, one process each, a table of every
//!     metric, and `out/results.json`
//! ```

mod harness;
mod input;
mod json;
mod layers;
mod pace;
mod report;
mod span;
mod stats;
mod suite;
mod sys;
mod traced;
mod workloads;

use std::process::ExitCode;
use workloads::Workload;

/// Measuring time of one run when `--seconds` is not given; the value
/// `BENCHMARK.json` passes.
const DEFAULT_SECONDS: f64 = 10.0;
/// Seed of a set when `--seed` is not given (11 is the held-out one).
const DEFAULT_SEED: u64 = 7;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: usize,
}

const USAGE: &str = "usage: domo-benchmark [--workload <name>] [--seed <n>] [--seconds <s>] \
                     [--trace [0|1]] [--repeat <k>]";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        repeat: 1,
    };
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--workload" => {
                let name = value(&mut i, "--workload")?;
                out.workload = Some(Workload::parse(&name).ok_or_else(|| {
                    let known: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {name:?} (one of {})", known.join(", "))
                })?);
            }
            "--seed" => {
                out.seed = value(&mut i, "--seed")?
                    .parse()
                    .map_err(|_| format!("--seed takes a whole number\n{USAGE}"))?;
            }
            "--seconds" => {
                out.seconds = value(&mut i, "--seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 1.0 && *s <= 600.0)
                    .ok_or_else(|| format!("--seconds takes a number from 1 to 600\n{USAGE}"))?;
            }
            "--trace" => {
                // `--trace 0|1` for the driver, bare `--trace` for a person.
                out.trace = match args.get(i + 1).map(String::as_str) {
                    Some("0") => {
                        i += 1;
                        false
                    }
                    Some("1") => {
                        i += 1;
                        true
                    }
                    _ => true,
                };
            }
            "--repeat" => {
                out.repeat = value(&mut i, "--repeat")?
                    .parse()
                    .ok()
                    .filter(|k| (1..=100).contains(k))
                    .ok_or_else(|| format!("--repeat takes a count from 1 to 100\n{USAGE}"))?;
            }
            "-h" | "--help" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
        i += 1;
    }
    Ok(out)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    // The sink logs its lifecycle at `info`; a benchmark run wants
    // errors only, unless the caller asked otherwise.
    if std::env::var_os("DOMO_LOG").is_none() {
        domo::obs::set_log_filter("error");
    }
    // Every figure is measured with the program's packet trace off,
    // whatever `DOMO_TRACE_SAMPLE` says; the traced `stream_backlog` run
    // alone turns it on, around the one server run that fills `stage.*`.
    domo::obs::trace::set_sample_every(None);
    let outcome = match args.workload {
        Some(w) => w.run(args.seed, args.seconds, args.trace).map(|result| {
            print!("{}", result.render_text());
            println!("{}{}", suite::FULL_RESULT_PREFIX, result.to_json().render());
            println!("{}", result.driver_line());
            result.correct()
        }),
        None => suite::run(args.seed, args.seconds, args.trace, args.repeat),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("benchmark failed: {msg}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_driver_form_parses() {
        let a = args(&[
            "--workload",
            "stream_paced",
            "--seed",
            "3",
            "--seconds",
            "10",
            "--trace",
            "0",
        ])
        .unwrap();
        assert_eq!(a.workload, Some(Workload::StreamPaced));
        assert_eq!((a.seed, a.seconds, a.trace), (3, 10.0, false));
        let a = args(&["--trace", "1", "--workload", "query_mix"]).unwrap();
        assert!(a.trace && a.workload == Some(Workload::QueryMix));
    }

    #[test]
    fn the_set_form_parses_and_bad_input_is_refused() {
        let a = args(&["--trace", "--repeat", "2"]).unwrap();
        assert_eq!(
            (a.workload, a.trace, a.repeat, a.seed),
            (None, true, 2, DEFAULT_SEED)
        );
        assert_eq!(args(&[]).unwrap().seconds, DEFAULT_SECONDS);
        for bad in [
            &["--workload", "nope"][..],
            &["--seed", "x"],
            &["--seconds", "0"],
            &["--seconds"],
            &["--repeat", "0"],
            &["--frobnicate"],
        ] {
            assert!(args(bad).is_err(), "{bad:?}");
        }
    }
}
