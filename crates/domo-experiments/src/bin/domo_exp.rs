//! `domo-exp` — regenerate the Domo paper's tables and figures.
//!
//! ```text
//! domo-exp <experiment> [--nodes N] [--seed S] [--fast K] [--threads T]
//!          [--metrics-json PATH]
//! domo-exp bench [--nodes N] [--seed S] [--out PATH] [--baseline PATH] [--accept]
//! domo-exp obsbench [--nodes N] [--seed S] [--out PATH] [--max-delta PCT]
//! domo-exp storebench [--nodes N] [--seed S] [--out PATH] [--baseline PATH]
//! domo-exp querybench [--nodes N] [--seed S] [--out PATH] [--baseline PATH]
//! domo-exp tracebench [--nodes N] [--seed S] [--out PATH] [--baseline PATH]
//!          [--max-delta PCT]
//! domo-exp benchall [--sink-bin PATH]
//! domo-exp chaos [--quick] [--nodes N] [--seed S] [--sink-bin PATH]
//! domo-exp clustersmoke [--quick] [--nodes N] [--seed S] [--sink-bin PATH]
//! domo-exp clusterbench [--nodes N] [--seed S] [--out PATH] [--baseline PATH]
//!
//! experiments:
//!   fig1     per-node delay map at two times
//!   fig6     accuracy / bounds / displacement vs MNT & MessageTracing
//!   fig7     the packet-loss sweep (10/20/30 %)
//!   fig8     the network-scale sweep (100/225/400 nodes)
//!   fig9     the effective-time-window-ratio sweep
//!   fig10    the graph-cut-size sweep
//!   table1   overhead comparison (plus measured PC-side cost)
//!   ablation quality ablations (FIFO mode, BLP, bound method, MNT oracle)
//!   workload trace/topology characterization + constraint diagnostics
//!   robust   the fault-injection sweep (all fault classes, rising rates)
//!   online   the domo-sink online service vs the offline pipeline
//!   bench    estimator window-solve throughput across thread counts and
//!            warm-start settings; gates on --baseline (fails if
//!            single-thread throughput regressed >20%) and leaves it as
//!            it is; only --accept writes the fresh numbers to --out
//!            (default BENCH_estimator.json), the comparison then printed
//!            rather than enforced, so a baseline changes when someone
//!            means it to, never by drifting run to run
//!   obsbench estimator throughput with the metrics recorder enabled vs
//!            disabled; fails if the enabled run is more than
//!            --max-delta percent slower (default 5), then writes the
//!            numbers to --out (default BENCH_obs.json)
//!   storebench
//!            durable-store write-path throughput: WAL appends per
//!            second under each fsync policy plus result-log appends;
//!            gates on --baseline (fails if `fsync interval` WAL
//!            throughput regressed >20%), then writes the fresh
//!            numbers to --out (default BENCH_store.json)
//!   querybench
//!            live-query path: SubHub fan-out throughput at 1/8/64
//!            subscribers plus AGG latency for a sketch-served vs
//!            backfilled window; gates on --baseline (fails if the
//!            8-subscriber deliveries/s regressed >20%), then writes
//!            the numbers to --out (default BENCH_query.json)
//!   tracebench
//!            per-packet trace-sampling overhead: (1) the cost of a
//!            disabled `trace::stamp` call, scaled by the hooks a
//!            packet crosses, against the measured per-packet pipeline
//!            cost (gate: <=1%); (2) the full in-process pipeline with
//!            the sampler at 1/256 vs off, judged like obsbench on
//!            paired ratios (gate: <=--max-delta percent, default 5);
//!            (3) a fault-induced degrade must land a parseable
//!            `flight-*.jsonl` dump containing the triggering event.
//!            Gates on --baseline (fails if the tracing-off pipeline
//!            throughput regressed >20%), then splices a `"trace"`
//!            section into --out (default BENCH_obs.json), preserving
//!            the obsbench fields
//!   benchall regenerates every committed BENCH_*.json in one go
//!            (bench, obsbench, tracebench, storebench, querybench,
//!            plus `domo-sink bench` via the sibling binary) without
//!            regression gates — the refresh path after an intentional
//!            perf change — and prints a one-line summary per file
//!   chaos    the survival soak: spawns a durable `domo-sink serve`
//!            child with an injected storage fault storm AND a
//!            scheduled shard-worker panic, streams a trace at it over
//!            TCP, and gates on (1) the child never exiting on its
//!            own, (2) exact accounting — emitted + dropped ==
//!            ingested, (3) the post-heal, post-SIGKILL recovered
//!            state matching an undisturbed in-process run
//!            bit-identically. `--quick` shrinks the trace and storm
//!            for CI (`scripts/check.sh` gate 10); `--sink-bin` (or
//!            `$DOMO_SINK_BIN`) overrides the sibling-binary lookup
//!   clustersmoke
//!            the multi-sink acceptance gate (DESIGN.md §17,
//!            `scripts/check.sh` gate 14): spawns a 3-member cluster of
//!            durable `domo-sink serve` children, streams a 2-tenant
//!            workload through the consistent-hash router, SIGKILLs
//!            the busiest member mid-replay, and gates on (1) exactly
//!            one failover with zero spool drops and zero duplicate
//!            quarantines, (2) per-tenant reconstructions recovered
//!            from the survivors bit-identical to a single-process
//!            reference running the same deterministic placement,
//!            (3) intact per-member tenant accounting, (4) a
//!            scatter-gather AGG within the sketch's documented error
//!            bound of the offline exact quantiles
//!   clusterbench
//!            router fan-out throughput at 1/2/4 members against
//!            in-process sinks; gates on --baseline (fails if any
//!            member count regressed >20%), then writes the numbers
//!            to --out (default BENCH_cluster.json)
//!   all      every figure/table above, in order
//! ```
//!
//! `--threads T` sets `EstimatorConfig::threads` (parallel window
//! chains) for every experiment; results are bit-identical for any `T`.
//! `--metrics-json PATH` dumps every metric the run recorded as JSON
//! Lines after the experiment finishes (`-` for stdout).

use domo_core::estimator::{try_estimate, EstimatorConfig};
use domo_core::TraceView;
use domo_experiments::figures;
use domo_experiments::scenario::Scenario;
use domo_net::{run_simulation, NetworkConfig};
use std::time::Instant;

struct Args {
    experiment: String,
    nodes: usize,
    seed: u64,
    fast: u64,
    threads: usize,
    out: String,
    baseline: Option<String>,
    metrics_json: Option<String>,
    max_delta: f64,
    quick: bool,
    accept: bool,
    sink_bin: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        experiment: String::new(),
        nodes: 100,
        seed: 1,
        fast: 1,
        threads: 1,
        out: "BENCH_estimator.json".into(),
        baseline: None,
        metrics_json: None,
        max_delta: 5.0,
        quick: false,
        accept: false,
        sink_bin: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    let Some(exp) = it.next() else {
        return Err("missing experiment name".into());
    };
    args.experiment = exp.clone();
    // The benches work a much smaller trace than the paper scenarios.
    if args.experiment == "bench"
        || args.experiment == "obsbench"
        || args.experiment == "storebench"
        || args.experiment == "querybench"
        || args.experiment == "tracebench"
    {
        args.nodes = 25;
        args.seed = 7;
    }
    if args.experiment == "obsbench" || args.experiment == "tracebench" {
        args.out = "BENCH_obs.json".into();
    }
    if args.experiment == "storebench" {
        args.out = "BENCH_store.json".into();
    }
    if args.experiment == "querybench" {
        args.out = "BENCH_query.json".into();
    }
    if args.experiment == "chaos" || args.experiment == "clustersmoke" {
        args.nodes = 16;
        args.seed = 5;
    }
    if args.experiment == "clusterbench" {
        args.nodes = 25;
        args.seed = 7;
        args.out = "BENCH_cluster.json".into();
    }
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            args.quick = true;
            if args.experiment == "chaos" || args.experiment == "clustersmoke" {
                args.nodes = 9;
            }
            continue;
        }
        if flag == "--accept" {
            args.accept = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        match flag.as_str() {
            "--nodes" => args.nodes = value.parse().map_err(|e| format!("--nodes: {e}"))?,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--fast" => args.fast = value.parse().map_err(|e| format!("--fast: {e}"))?,
            "--threads" => args.threads = value.parse().map_err(|e| format!("--threads: {e}"))?,
            "--out" => args.out = value.clone(),
            "--baseline" => args.baseline = Some(value.clone()),
            "--metrics-json" => args.metrics_json = Some(value.clone()),
            "--max-delta" => {
                args.max_delta = value.parse().map_err(|e| format!("--max-delta: {e}"))?;
            }
            "--sink-bin" => args.sink_bin = Some(value.clone()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.fast == 0 {
        return Err("--fast must be positive".into());
    }
    if args.threads == 0 {
        return Err("--threads must be positive".into());
    }
    Ok(args)
}

fn base_scenario(args: &Args) -> Scenario {
    let mut scenario = Scenario::paper(args.nodes, args.seed).scaled_down(args.fast);
    scenario.estimator.threads = args.threads;
    scenario
}

/// Seconds of the *fastest* call of `f`, repeated until the
/// measurement is at least 200 ms long (and at least 3 iterations).
/// The minimum, not the mean, is what the regression gate compares:
/// transient load on a shared machine only ever slows iterations down,
/// so the fastest one is the most reproducible estimate of the code's
/// own cost.
fn time_per_iter(mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut iters = 0u32;
    let mut best = f64::INFINITY;
    while iters < 3 || start.elapsed().as_millis() < 200 {
        let one = Instant::now();
        f();
        best = best.min(one.elapsed().as_secs_f64());
        iters += 1;
    }
    best
}

/// Median of a non-empty sample (sorts in place; even-length samples
/// average the middle pair).
fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Pulls `"single_thread_windows_per_sec": <float>` out of a previously
/// committed bench file (the JSON is flat and machine-written, so a
/// substring scan is enough — no JSON dependency needed).
fn baseline_throughput(json: &str) -> Option<f64> {
    let key = "\"single_thread_windows_per_sec\":";
    let at = json.find(key)? + key.len();
    let rest = json[at..].trim_start();
    let end = rest
        .find(|c: char| c != '.' && c != '-' && !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Estimator window-solve throughput across thread counts and
/// warm-start settings. Gates on `--baseline`; writes `--out` only under
/// `--accept`.
fn bench(args: &Args) -> Result<(), String> {
    let trace = run_simulation(&NetworkConfig::small(args.nodes, args.seed));
    if trace.packets.is_empty() {
        return Err("simulated trace delivered nothing".into());
    }
    let view = TraceView::new(trace.packets.clone());
    let reference = try_estimate(&view, &EstimatorConfig::default()).map_err(|e| e.to_string())?;
    println!(
        "bench: {} packets, {} unknowns, {} windows ({} nodes, seed {})",
        trace.packets.len(),
        view.vars().len(),
        reference.stats.windows,
        args.nodes,
        args.seed
    );

    let mut rows = Vec::new();
    let mut single_thread_wps = None;
    for warm_start in [true, false] {
        for threads in [1usize, 2, 4, 8] {
            let cfg = EstimatorConfig {
                threads,
                warm_start,
                ..EstimatorConfig::default()
            };
            let seconds = time_per_iter(|| {
                let _ = try_estimate(&view, &cfg);
            });
            let est = try_estimate(&view, &cfg).map_err(|e| e.to_string())?;
            let wps = est.stats.windows as f64 / seconds;
            if threads == 1 && warm_start {
                single_thread_wps = Some(wps);
            }
            println!(
                "bench: threads {threads} warm {warm_start:5}: {seconds:.3} s/solve, \
                 {wps:.1} windows/s ({} warm hits)",
                est.stats.warm_hits
            );
            rows.push(format!(
                "    {{\"threads\": {threads}, \"warm_start\": {warm_start}, \
                 \"seconds_per_solve\": {seconds:.6}, \"windows_per_sec\": {wps:.1}, \
                 \"warm_hits\": {}}}",
                est.stats.warm_hits
            ));
        }
    }
    let single = single_thread_wps.ok_or("missing single-thread row")?;

    if let Some(path) = &args.baseline {
        match std::fs::read_to_string(path) {
            Ok(json) => {
                let committed = baseline_throughput(&json)
                    .ok_or_else(|| format!("{path}: no single_thread_windows_per_sec"))?;
                let floor = committed * 0.8;
                let verdict = format!(
                    "single-thread {single:.1} windows/s vs committed {committed:.1} \
                     (floor {floor:.1}) in {path}"
                );
                if single < floor && !args.accept {
                    return Err(format!("throughput regressed >20%: {verdict}"));
                }
                println!("bench: {verdict}");
            }
            Err(e) => {
                // A missing baseline is the bootstrap case, not a failure.
                println!("bench: no baseline at {path} ({e}); nothing to compare");
            }
        }
    }

    // Thread-count scaling is only meaningful relative to the cores the
    // measuring host actually had; record it so a flat curve from a
    // small box isn't misread as a scheduler regression.
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let json = format!(
        "{{\n  \"bench\": \"estimator_windows\",\n  \"nodes\": {},\n  \"seed\": {},\n  \
         \"host_cpus\": {cpus},\n  \
         \"packets\": {},\n  \"unknowns\": {},\n  \"windows\": {},\n  \
         \"single_thread_windows_per_sec\": {single:.1},\n  \"rows\": [\n{}\n  ]\n}}\n",
        args.nodes,
        args.seed,
        trace.packets.len(),
        view.vars().len(),
        reference.stats.windows,
        rows.join(",\n")
    );
    if !args.accept {
        println!(
            "bench: {} left as it is (pass --accept to rewrite it)",
            args.out
        );
        return Ok(());
    }
    std::fs::write(&args.out, json).map_err(|e| format!("write {}: {e}", args.out))?;
    println!("bench: wrote {}", args.out);
    Ok(())
}

/// Pulls `"wal_interval_appends_per_sec": <float>` out of a previously
/// committed storebench file (flat machine-written JSON, substring scan
/// — same approach as [`baseline_throughput`]).
fn store_baseline_throughput(json: &str) -> Option<f64> {
    let key = "\"wal_interval_appends_per_sec\":";
    let at = json.find(key)? + key.len();
    let rest = json[at..].trim_start();
    let end = rest
        .find(|c: char| c != '.' && c != '-' && !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Durable-store write-path throughput: how fast the sink can journal
/// wire frames into the WAL under each fsync policy, and how fast the
/// result log absorbs reconstruction records. `fsync interval` is the
/// shipping default, so that number is the regression gate.
fn store_bench(args: &Args) -> Result<(), String> {
    use domo_store::wal::WalConfig;
    use domo_store::{FsyncPolicy, ResultStore, ResultStoreConfig, Wal};

    let trace = run_simulation(&NetworkConfig::small(args.nodes, args.seed));
    if trace.packets.is_empty() {
        return Err("simulated trace delivered nothing".into());
    }
    // The journaled unit is the wire frame, exactly what SinkService
    // appends at ingest.
    let mut frames: Vec<Vec<u8>> = Vec::with_capacity(trace.packets.len());
    for p in &trace.packets {
        let mut f = Vec::new();
        domo_sink::encode_packet(p, &mut f).map_err(|e| format!("encode: {e}"))?;
        frames.push(f);
    }
    let frame_bytes: usize = frames.iter().map(Vec::len).sum();
    // Repeat the trace until a batch is big enough to time meaningfully
    // (fsync=always is gated per-append, so it gets a smaller batch).
    let target = 4096usize.max(frames.len());
    let batch: Vec<&[u8]> = frames
        .iter()
        .map(Vec::as_slice)
        .cycle()
        .take(target)
        .collect();
    let always_batch: Vec<&[u8]> = frames
        .iter()
        .map(Vec::as_slice)
        .cycle()
        .take(256.min(target))
        .collect();
    println!(
        "storebench: {} packets -> {} wire bytes/frame avg, batches of {} (always: {})",
        frames.len(),
        frame_bytes / frames.len().max(1),
        batch.len(),
        always_batch.len()
    );

    let scratch = std::env::temp_dir().join(format!("domo-storebench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    let mut rows = Vec::new();
    let mut interval_aps = None;
    for (label, policy, batch) in [
        ("never", FsyncPolicy::Never, &batch),
        ("interval:64", FsyncPolicy::Interval(64), &batch),
        ("always", FsyncPolicy::Always, &always_batch),
    ] {
        let mut round = 0u32;
        let seconds = time_per_iter(|| {
            // A fresh directory per iteration: append cost must include
            // rotation, not amortize a warm segment forever.
            let dir = scratch.join(format!("wal-{label}-{round}"));
            round += 1;
            let (mut wal, _) = Wal::open(
                &dir,
                WalConfig {
                    fsync: policy,
                    segment_bytes: 1 << 20,
                },
            )
            .expect("open bench wal");
            for frame in batch.iter() {
                wal.append(frame).expect("append");
            }
            wal.sync().expect("final sync");
        });
        let aps = batch.len() as f64 / seconds;
        let mbps = aps * (frame_bytes as f64 / frames.len() as f64) / 1e6;
        if label == "interval:64" {
            interval_aps = Some(aps);
        }
        println!(
            "storebench: wal fsync {label:>11}: {seconds:.4} s/batch, \
             {aps:.0} appends/s ({mbps:.1} MB/s)"
        );
        rows.push(format!(
            "    {{\"sink\": \"wal\", \"fsync\": \"{label}\", \"appends\": {}, \
             \"seconds_per_batch\": {seconds:.6}, \"appends_per_sec\": {aps:.1}}}",
            batch.len()
        ));
    }

    // Result-log appends: a synthetic reconstruction payload of typical
    // size (pid + 4-hop path + 4 f64 hop times ≈ what record_batch
    // persists), keyed by a monotonically increasing time.
    let payload = vec![0u8; 54];
    let mut round = 0u32;
    let seconds = time_per_iter(|| {
        let dir = scratch.join(format!("res-{round}"));
        round += 1;
        let (mut store, _) = ResultStore::open(
            &dir,
            ResultStoreConfig {
                segment_bytes: 1 << 20,
                max_sealed_segments: 0,
            },
        )
        .expect("open bench result store");
        for (i, _) in batch.iter().enumerate() {
            store.append(i as f64, &payload).expect("append");
        }
        store.sync().expect("final sync");
    });
    let res_aps = batch.len() as f64 / seconds;
    println!("storebench: result log: {seconds:.4} s/batch, {res_aps:.0} appends/s");
    rows.push(format!(
        "    {{\"sink\": \"results\", \"fsync\": \"never\", \"appends\": {}, \
         \"seconds_per_batch\": {seconds:.6}, \"appends_per_sec\": {res_aps:.1}}}",
        batch.len()
    ));
    let _ = std::fs::remove_dir_all(&scratch);

    let interval = interval_aps.ok_or("missing interval row")?;
    if let Some(path) = &args.baseline {
        match std::fs::read_to_string(path) {
            Ok(json) => {
                let committed = store_baseline_throughput(&json)
                    .ok_or_else(|| format!("{path}: no wal_interval_appends_per_sec"))?;
                let floor = committed * 0.8;
                if interval < floor {
                    return Err(format!(
                        "WAL append throughput (fsync interval) regressed >20%: \
                         {interval:.0} appends/s vs committed {committed:.0} \
                         (floor {floor:.0}) in {path}"
                    ));
                }
                println!(
                    "storebench: interval WAL {interval:.0} appends/s vs committed \
                     {committed:.0} — within the 20% regression budget"
                );
            }
            Err(e) => {
                // A missing baseline is the bootstrap case, not a failure.
                println!("storebench: no baseline at {path} ({e}); writing a fresh one");
            }
        }
    }

    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let json = format!(
        "{{\n  \"bench\": \"store_write_path\",\n  \"nodes\": {},\n  \"seed\": {},\n  \
         \"host_cpus\": {cpus},\n  \"packets\": {},\n  \
         \"wal_interval_appends_per_sec\": {interval:.1},\n  \"rows\": [\n{}\n  ]\n}}\n",
        args.nodes,
        args.seed,
        frames.len(),
        rows.join(",\n")
    );
    std::fs::write(&args.out, json).map_err(|e| format!("write {}: {e}", args.out))?;
    println!("storebench: wrote {}", args.out);
    Ok(())
}

/// Pulls `"fanout_8_deliveries_per_sec": <float>` out of a previously
/// committed querybench file (flat machine-written JSON, substring
/// scan — same approach as [`baseline_throughput`]).
fn query_baseline_throughput(json: &str) -> Option<f64> {
    let key = "\"fanout_8_deliveries_per_sec\":";
    let at = json.find(key)? + key.len();
    let rest = json[at..].trim_start();
    let end = rest
        .find(|c: char| c != '.' && c != '-' && !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Live-query path throughput and latency: (1) `SubHub` fan-out —
/// publishes per second and total deliveries per second at 1, 8, and
/// 64 subscribers; (2) `AGG` latency for a window served entirely by
/// retained sketches vs one old enough to force a result-log backfill
/// (agg retention is shrunk so the trace outlives it). The 8-subscriber
/// deliveries/s number is the regression gate.
fn query_bench(args: &Args) -> Result<(), String> {
    use domo_query::sub::{Event, SubFilter, SubHub, SubOptions};
    use domo_query::AggConfig;
    use domo_sink::service::{SinkConfig, SinkService};
    use domo_sink::StoreConfig;

    let trace = run_simulation(&NetworkConfig::small(args.nodes, args.seed));
    if trace.packets.is_empty() {
        return Err("simulated trace delivered nothing".into());
    }
    // Fan-out works on synthetic `Event`s shaped like the trace (the
    // hub never inspects hop times beyond cloning them): per-hop times
    // interpolated between generation and sink arrival.
    let events: Vec<Event> = trace
        .packets
        .iter()
        .map(|p| {
            let hops = p.path.len().max(2);
            let t0 = p.gen_time.as_millis_f64();
            let t1 = p.sink_arrival.as_millis_f64();
            Event {
                origin: p.pid.origin.index() as u16,
                seq: p.pid.seq,
                path: p.path.iter().map(|n| n.index() as u16).collect(),
                hop_times_ms: (0..hops)
                    .map(|i| t0 + (t1 - t0) * i as f64 / (hops - 1) as f64)
                    .collect(),
            }
        })
        .collect();
    let target = 2048usize.max(events.len());
    let batch: Vec<&Event> = events.iter().cycle().take(target).collect();
    println!(
        "querybench: {} packets -> fan-out batches of {}",
        events.len(),
        batch.len()
    );

    let mut rows = Vec::new();
    let mut gate_dps = None;
    for subs in [1usize, 8, 64] {
        let seconds = time_per_iter(|| {
            let hub = SubHub::new();
            // Queues sized for the whole batch with shedding off: this
            // measures fan-out cost, not drop-oldest bookkeeping.
            let open: Vec<_> = (0..subs)
                .map(|_| {
                    hub.subscribe(
                        SubFilter::All,
                        SubOptions {
                            capacity: batch.len(),
                            max_lagged: 0,
                        },
                    )
                })
                .collect();
            for ev in &batch {
                hub.publish((*ev).clone());
            }
            drop(open);
        });
        let eps = batch.len() as f64 / seconds;
        let dps = eps * subs as f64;
        if subs == 8 {
            gate_dps = Some(dps);
        }
        println!(
            "querybench: fan-out {subs:>2} subscribers: {seconds:.4} s/batch, \
             {eps:.0} publishes/s, {dps:.0} deliveries/s"
        );
        rows.push(format!(
            "    {{\"op\": \"fanout\", \"subscribers\": {subs}, \"events\": {}, \
             \"seconds_per_batch\": {seconds:.6}, \"publishes_per_sec\": {eps:.1}, \
             \"deliveries_per_sec\": {dps:.1}}}",
            batch.len()
        ));
    }

    // AGG latency against a real durable sink: retention of 16 buckets
    // x 100 ms = 1.6 s, far shorter than the simulated run, so a
    // whole-run window must backfill from the result log while a
    // trailing window is served by the retained sketches alone.
    let scratch = std::env::temp_dir().join(format!("domo-querybench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    let service = SinkService::start(SinkConfig {
        shards: 2,
        store: Some(StoreConfig::at(&scratch)),
        agg: AggConfig {
            granularity_ms: 100,
            retention_buckets: 16,
        },
        ..SinkConfig::default()
    });
    for p in &trace.packets {
        service.ingest(p.clone());
    }
    // `drain()` returns only what this drain flushed — records past a
    // window boundary were already emitted during ingest — so the
    // completeness check reads the cumulative counter. The sink dedups
    // retransmissions, so the expectation is distinct pids.
    let unique: std::collections::HashSet<_> = trace.packets.iter().map(|p| p.pid).collect();
    service.drain();
    let emitted = service.snapshot().stats.emitted;
    if emitted != unique.len() as u64 {
        service.shutdown();
        return Err(format!(
            "sink emitted {emitted} of {} distinct packets",
            unique.len()
        ));
    }
    // The busiest forwarder has the most samples, so its sketches and
    // backfill do the most work — the interesting case to time.
    let mut per_node = std::collections::HashMap::new();
    for p in &trace.packets {
        let n = p.path.len();
        for node in &p.path[..n.saturating_sub(1)] {
            *per_node.entry(node.index() as u16).or_insert(0u64) += 1;
        }
    }
    let (node, _) = per_node
        .into_iter()
        .max_by_key(|&(node, count)| (count, std::cmp::Reverse(node)))
        .ok_or("no forwarding node in the trace")?;
    let t_end = trace
        .packets
        .iter()
        .map(|p| p.sink_arrival.as_millis_f64())
        .fold(0.0f64, f64::max);
    let sketch_secs = time_per_iter(|| {
        service
            .agg_query(node, t_end - 800.0, t_end, 400)
            .expect("sketch-window AGG");
    });
    let backfill_secs = time_per_iter(|| {
        service
            .agg_query(node, 0.0, t_end, 10_000)
            .expect("backfill-window AGG");
    });
    service.shutdown();
    let _ = std::fs::remove_dir_all(&scratch);
    println!(
        "querybench: AGG node {node}: sketch window {:.1} us, \
         backfill window {:.1} us",
        sketch_secs * 1e6,
        backfill_secs * 1e6
    );
    rows.push(format!(
        "    {{\"op\": \"agg_sketch\", \"node\": {node}, \"seconds_per_query\": {sketch_secs:.9}}}"
    ));
    rows.push(format!(
        "    {{\"op\": \"agg_backfill\", \"node\": {node}, \
         \"seconds_per_query\": {backfill_secs:.9}}}"
    ));

    let gate = gate_dps.ok_or("missing 8-subscriber row")?;
    if let Some(path) = &args.baseline {
        match std::fs::read_to_string(path) {
            Ok(json) => {
                let committed = query_baseline_throughput(&json)
                    .ok_or_else(|| format!("{path}: no fanout_8_deliveries_per_sec"))?;
                let floor = committed * 0.8;
                if gate < floor {
                    return Err(format!(
                        "fan-out throughput (8 subscribers) regressed >20%: \
                         {gate:.0} deliveries/s vs committed {committed:.0} \
                         (floor {floor:.0}) in {path}"
                    ));
                }
                println!(
                    "querybench: 8-subscriber fan-out {gate:.0} deliveries/s vs committed \
                     {committed:.0} — within the 20% regression budget"
                );
            }
            Err(e) => {
                // A missing baseline is the bootstrap case, not a failure.
                println!("querybench: no baseline at {path} ({e}); writing a fresh one");
            }
        }
    }

    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let json = format!(
        "{{\n  \"bench\": \"query_path\",\n  \"nodes\": {},\n  \"seed\": {},\n  \
         \"host_cpus\": {cpus},\n  \"packets\": {},\n  \
         \"fanout_8_deliveries_per_sec\": {gate:.1},\n  \
         \"agg_sketch_seconds\": {sketch_secs:.9},\n  \
         \"agg_backfill_seconds\": {backfill_secs:.9},\n  \"rows\": [\n{}\n  ]\n}}\n",
        args.nodes,
        args.seed,
        events.len(),
        rows.join(",\n")
    );
    std::fs::write(&args.out, json).map_err(|e| format!("write {}: {e}", args.out))?;
    println!("querybench: wrote {}", args.out);
    Ok(())
}

/// Measures what the observability layer costs the estimator: the same
/// workload with the global recorder enabled vs disabled
/// (`Recorder::set_enabled`), alternated per solve and judged on the
/// median of paired enabled/disabled ratios (see the inline comment for
/// why minima and per-mode medians are too noisy on a shared host).
/// Fails when the enabled runs come out more than `--max-delta` percent
/// slower, then writes `--out`.
fn obs_bench(args: &Args) -> Result<(), String> {
    let trace = run_simulation(&NetworkConfig::small(args.nodes, args.seed));
    if trace.packets.is_empty() {
        return Err("simulated trace delivered nothing".into());
    }
    let view = TraceView::new(trace.packets.clone());
    let cfg = EstimatorConfig::default();
    let reference = try_estimate(&view, &cfg).map_err(|e| e.to_string())?;
    let windows = reference.stats.windows as f64;

    let recorder = domo_obs::Recorder::global();
    // Alternate the recorder per solve so machine noise (a previous
    // gate still draining, a scheduler hiccup) hits adjacent solves of
    // both modes equally, then judge the overhead on *paired ratios*:
    // each enabled solve against the mean of the disabled solves right
    // before and after it. Pairing cancels the slow load drift that
    // dominates a shared 1-CPU host — per-mode aggregates (min or
    // median over the whole run) still jitter by ±5% there, swamping a
    // sub-2% true effect — and the median over all pairs suppresses
    // what high-frequency noise remains. 61 solves ≈ 15 s on the
    // bench workload.
    let mut times = Vec::new();
    for k in 0..61u32 {
        recorder.set_enabled(k % 2 == 0);
        let one = Instant::now();
        let _ = try_estimate(&view, &cfg);
        times.push(one.elapsed().as_secs_f64());
    }
    recorder.set_enabled(true);
    // Even indices ran enabled, odd disabled; windows [d, e, d] pair
    // each interior enabled solve with its two disabled neighbours.
    let mut ratios: Vec<f64> = times
        .windows(3)
        .enumerate()
        .filter(|(i, _)| i % 2 == 1)
        .map(|(_, w)| w[1] / ((w[0] + w[2]) / 2.0))
        .collect();
    let mut enabled_times: Vec<f64> = times.iter().copied().step_by(2).collect();
    let mut disabled_times: Vec<f64> = times.iter().copied().skip(1).step_by(2).collect();
    let enabled_s = median(&mut enabled_times);
    let disabled_s = median(&mut disabled_times);
    let overhead_ratio = median(&mut ratios);

    let enabled_wps = windows / enabled_s;
    let disabled_wps = windows / disabled_s;
    let overhead_pct = (overhead_ratio - 1.0) * 100.0;
    println!(
        "obsbench: enabled {enabled_s:.3} s/solve ({enabled_wps:.1} windows/s), \
         disabled {disabled_s:.3} s/solve ({disabled_wps:.1} windows/s), \
         overhead {overhead_pct:+.2}%"
    );

    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut json = format!(
        "{{\n  \"bench\": \"obs_overhead\",\n  \"nodes\": {},\n  \"seed\": {},\n  \
         \"host_cpus\": {cpus},\n  \"windows\": {},\n  \
         \"enabled_seconds_per_solve\": {enabled_s:.6},\n  \
         \"disabled_seconds_per_solve\": {disabled_s:.6},\n  \
         \"enabled_windows_per_sec\": {enabled_wps:.1},\n  \
         \"disabled_windows_per_sec\": {disabled_wps:.1},\n  \
         \"overhead_pct\": {overhead_pct:.2}\n}}\n",
        args.nodes, args.seed, reference.stats.windows
    );
    // `tracebench` shares this file: carry its section forward so a
    // metrics-overhead refresh doesn't silently drop the trace numbers.
    if let Ok(old) = std::fs::read_to_string(&args.out) {
        if let Some(trace) = extract_trace_object(&old) {
            json = with_trace_section(&json, trace);
        }
    }
    std::fs::write(&args.out, json).map_err(|e| format!("write {}: {e}", args.out))?;
    println!("obsbench: wrote {}", args.out);

    if overhead_pct > args.max_delta {
        return Err(format!(
            "metrics overhead {overhead_pct:.2}% exceeds the {:.1}% budget",
            args.max_delta
        ));
    }
    Ok(())
}

/// Pulls the flat `"trace": {...}` object out of a committed
/// BENCH_obs.json, if present. The section is machine-written by
/// [`trace_bench`] and holds no nested braces, so the first `}` after
/// the key closes it.
fn extract_trace_object(json: &str) -> Option<&str> {
    let at = json.find("\"trace\":")?;
    let open = at + json[at..].find('{')?;
    let close = open + json[open..].find('}')? + 1;
    Some(&json[open..close])
}

/// Splices `"trace": <trace_obj>` into a flat machine-written bench
/// JSON object, replacing an existing section or inserting a new one
/// before the final `}`.
fn with_trace_section(json: &str, trace_obj: &str) -> String {
    let mut body = json.trim_end().to_string();
    if let Some(at) = body.find(",\n  \"trace\":") {
        if let Some(close) = body[at..].find('}') {
            body.replace_range(at..at + close + 1, "");
        }
    }
    let insert = body.rfind('}').unwrap_or(body.len());
    let head = body[..insert].trim_end();
    format!("{head},\n  \"trace\": {trace_obj}\n}}\n")
}

/// Pulls `"pipeline_pps_off": <float>` out of a previously committed
/// BENCH_obs.json trace section (flat machine-written JSON, substring
/// scan — same approach as [`baseline_throughput`]).
fn trace_baseline_throughput(json: &str) -> Option<f64> {
    let key = "\"pipeline_pps_off\":";
    let at = json.find(key)? + key.len();
    let rest = json[at..].trim_start();
    let end = rest
        .find(|c: char| c != '.' && c != '-' && !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Stage-boundary hooks a packet crosses on the full server path:
/// reactor_read, batch_submit, wal_append, shard_enqueue,
/// shard_dequeue, flush, window_solve, result_append, publish,
/// subscriber_send. The disabled-overhead projection multiplies the
/// per-call cost by this count.
const TRACE_HOOKS_PER_PACKET: f64 = 10.0;

/// What per-packet journey tracing costs the pipeline (see the module
/// docs): a disabled-stamp microbench projected onto the measured
/// per-packet pipeline cost (gate <=1%), a paired-alternation pipeline
/// comparison with the sampler at 1/256 vs off (gate <=--max-delta),
/// and a fault-induced degrade that must land a flight-recorder dump
/// containing the triggering event. Splices a `"trace"` section into
/// `--out`, preserving the obsbench fields already there.
fn trace_bench(args: &Args) -> Result<(), String> {
    use domo_sink::service::{SinkConfig, SinkService};
    use domo_sink::StoreConfig;

    let trace = run_simulation(&NetworkConfig::small(args.nodes, args.seed));
    let total = trace.packets.len();
    if total == 0 {
        return Err("simulated trace delivered nothing".into());
    }

    // Part 1: the disabled fast path — one relaxed atomic load, the
    // hash short-circuited. Measured per call, then projected onto the
    // per-packet pipeline cost via the hook count.
    domo_obs::trace::set_sample_every(None);
    const CALLS: u32 = 1_000_000;
    let secs = time_per_iter(|| {
        for i in 0..CALLS {
            domo_obs::trace::stamp(
                std::hint::black_box((i % 64) as u16),
                std::hint::black_box(i),
                domo_obs::trace::Stage::Flush,
            );
        }
    });
    let stamp_off_ns = secs / f64::from(CALLS) * 1e9;
    println!("tracebench: disabled stamp costs {stamp_off_ns:.2} ns/call");

    // Part 2: the whole in-process pipeline (fresh single-shard sink,
    // ingest the trace, drain, shutdown) with the sampler at 1/256 vs
    // off, alternated per run and judged on paired ratios exactly like
    // obsbench — pairing cancels the slow load drift of a shared host.
    let run_pipeline = || {
        let service = SinkService::start(SinkConfig {
            shards: 1,
            ..SinkConfig::default()
        });
        for p in &trace.packets {
            service.ingest(p.clone());
        }
        service.drain();
        service.shutdown();
    };
    let mut times = Vec::new();
    for k in 0..31u32 {
        domo_obs::trace::set_sample_every(Some(if k % 2 == 0 { 256 } else { 0 }));
        let one = Instant::now();
        run_pipeline();
        times.push(one.elapsed().as_secs_f64());
    }
    domo_obs::trace::set_sample_every(None);
    let mut ratios: Vec<f64> = times
        .windows(3)
        .enumerate()
        .filter(|(i, _)| i % 2 == 1)
        .map(|(_, w)| w[1] / ((w[0] + w[2]) / 2.0))
        .collect();
    let mut sampled_times: Vec<f64> = times.iter().copied().step_by(2).collect();
    let mut off_times: Vec<f64> = times.iter().copied().skip(1).step_by(2).collect();
    // Overhead comes from paired ratios (load-drift-immune); the
    // absolute throughputs use the *fastest* run of each mode — like
    // `time_per_iter` everywhere else, the minimum is what a regression
    // gate can compare across differently loaded hosts.
    off_times.sort_by(f64::total_cmp);
    sampled_times.sort_by(f64::total_cmp);
    let off_s = off_times[0];
    let pps_off = total as f64 / off_s;
    let pps_sampled = total as f64 / sampled_times[0];
    let sampled_overhead_pct = (median(&mut ratios) - 1.0) * 100.0;
    // The disabled projection against the measured tracing-off cost.
    let packet_ns_off = off_s / total as f64 * 1e9;
    let disabled_overhead_pct = stamp_off_ns * TRACE_HOOKS_PER_PACKET / packet_ns_off * 100.0;
    println!(
        "tracebench: pipeline off {pps_off:.0} pkts/s, sampled 1/256 {pps_sampled:.0} pkts/s, \
         sampled overhead {sampled_overhead_pct:+.2}%, \
         disabled projection {disabled_overhead_pct:.4}% \
         ({TRACE_HOOKS_PER_PACKET:.0} hooks x {stamp_off_ns:.2} ns / {packet_ns_off:.0} ns/pkt)"
    );

    // Part 3: a degrade must leave a post-mortem behind. The same
    // seeded storm the chaos soak uses, but in process: WAL appends
    // start failing after 30 store ops, the health machine degrades,
    // and the transition dumps the flight ring into the data dir.
    let scratch = std::env::temp_dir().join(format!("domo-tracebench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    let faults = domo_store::FaultPlan::parse("eio=1,fsync=1,after=30,for=40,seed=5")
        .map_err(|e| format!("fault spec: {e}"))?;
    let service = SinkService::start(SinkConfig {
        shards: 1,
        store: Some(StoreConfig {
            faults: Some(faults),
            probe_every: 8,
            ..StoreConfig::at(&scratch)
        }),
        ..SinkConfig::default()
    });
    for p in &trace.packets {
        service.ingest(p.clone());
    }
    service.drain();
    let deadline = Instant::now() + std::time::Duration::from_secs(30);
    while service.health_status().degraded_entries == 0 {
        // Checkpoint attempts burn faulted store ops, so the storm
        // window is guaranteed to trip even on a tiny trace.
        let _ = service.checkpoint_now();
        if Instant::now() > deadline {
            service.shutdown();
            return Err("the fault storm never degraded the sink".into());
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    service.shutdown();
    let mut dump_files = Vec::new();
    for entry in std::fs::read_dir(&scratch).map_err(|e| format!("read {scratch:?}: {e}"))? {
        let entry = entry.map_err(|e| format!("read {scratch:?}: {e}"))?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.starts_with("flight-") && name.ends_with(".jsonl") {
            dump_files.push(entry.path());
        }
    }
    if dump_files.is_empty() {
        return Err(format!(
            "degrade left no flight-*.jsonl dump in {scratch:?}"
        ));
    }
    let mut dump_records = 0usize;
    let mut saw_trigger = false;
    for path in &dump_files {
        let body = std::fs::read_to_string(path).map_err(|e| format!("read {path:?}: {e}"))?;
        for line in body.lines() {
            if !(line.starts_with("{\"seq\":") && line.ends_with('}')) {
                return Err(format!("unparseable flight record in {path:?}: {line}"));
            }
            dump_records += 1;
            if line.contains("\"kind\":\"degraded\"") {
                saw_trigger = true;
            }
        }
    }
    if !saw_trigger {
        return Err(format!(
            "no \"degraded\" trigger event in the flight dumps: {dump_files:?}"
        ));
    }
    println!(
        "tracebench: degrade dumped {} flight file(s), {dump_records} records, trigger present",
        dump_files.len()
    );
    let _ = std::fs::remove_dir_all(&scratch);

    if let Some(path) = &args.baseline {
        match std::fs::read_to_string(path) {
            Ok(json) => match trace_baseline_throughput(&json) {
                Some(committed) => {
                    let floor = committed * 0.8;
                    if pps_off < floor {
                        return Err(format!(
                            "tracing-off pipeline throughput regressed >20%: {pps_off:.0} pkts/s \
                             vs committed {committed:.0} (floor {floor:.0}) in {path}"
                        ));
                    }
                    println!(
                        "tracebench: pipeline {pps_off:.0} pkts/s vs committed \
                         {committed:.0} — within the 20% regression budget"
                    );
                }
                None => {
                    // A baseline without a trace section is the
                    // bootstrap case: this run writes the first one.
                    println!("tracebench: no trace section in {path} yet; writing a fresh one");
                }
            },
            Err(e) => {
                println!("tracebench: no baseline at {path} ({e}); writing a fresh one");
            }
        }
    }

    let trace_obj = format!(
        "{{\"hooks_per_packet\": {TRACE_HOOKS_PER_PACKET:.0}, \
         \"stamp_disabled_ns\": {stamp_off_ns:.2}, \
         \"pipeline_pps_off\": {pps_off:.1}, \
         \"pipeline_pps_sampled_256\": {pps_sampled:.1}, \
         \"disabled_overhead_pct\": {disabled_overhead_pct:.4}, \
         \"sampled_overhead_pct\": {sampled_overhead_pct:.2}, \
         \"flight_dump_files\": {}, \"flight_dump_records\": {dump_records}}}",
        dump_files.len()
    );
    let base = std::fs::read_to_string(&args.out).unwrap_or_else(|_| {
        format!(
            "{{\n  \"bench\": \"obs_overhead\",\n  \"nodes\": {},\n  \"seed\": {}\n}}\n",
            args.nodes, args.seed
        )
    });
    std::fs::write(&args.out, with_trace_section(&base, &trace_obj))
        .map_err(|e| format!("write {}: {e}", args.out))?;
    println!("tracebench: wrote the trace section of {}", args.out);

    if disabled_overhead_pct > 1.0 {
        return Err(format!(
            "disabled tracing projects to {disabled_overhead_pct:.4}% per-packet overhead, \
             over the 1% budget"
        ));
    }
    if sampled_overhead_pct > args.max_delta {
        return Err(format!(
            "1/256 sampling costs {sampled_overhead_pct:.2}%, over the {:.1}% budget",
            args.max_delta
        ));
    }
    Ok(())
}

/// Regenerates every committed `BENCH_*.json` in one go, gates off
/// (this is the refresh path after an intentional perf change), and
/// prints a one-line summary per file at the end.
fn bench_all(args: &Args) -> Result<(), String> {
    let fresh = |out: &str| Args {
        experiment: String::new(),
        nodes: 25,
        seed: 7,
        fast: 1,
        threads: 1,
        out: out.into(),
        baseline: None,
        metrics_json: None,
        max_delta: args.max_delta,
        quick: false,
        accept: true,
        sink_bin: args.sink_bin.clone(),
    };
    println!("benchall: estimator");
    bench(&fresh("BENCH_estimator.json")).map_err(|e| format!("bench: {e}"))?;
    println!("benchall: obs overhead");
    obs_bench(&fresh("BENCH_obs.json")).map_err(|e| format!("obsbench: {e}"))?;
    println!("benchall: trace overhead");
    trace_bench(&fresh("BENCH_obs.json")).map_err(|e| format!("tracebench: {e}"))?;
    println!("benchall: store write path");
    store_bench(&fresh("BENCH_store.json")).map_err(|e| format!("storebench: {e}"))?;
    println!("benchall: query path");
    query_bench(&fresh("BENCH_query.json")).map_err(|e| format!("querybench: {e}"))?;
    println!("benchall: sink ingest (sibling binary)");
    let sink = sink_binary(args)?;
    let status = std::process::Command::new(&sink)
        .args(["bench", "--out", "BENCH_sink.json"])
        .status()
        .map_err(|e| format!("spawn {}: {e}", sink.display()))?;
    if !status.success() {
        return Err(format!("domo-sink bench failed: {status}"));
    }

    // The summary pulls one headline number back out of each file so a
    // refresh ends with a table instead of five pages of scroll.
    let pick = |path: &str, key: &str| -> String {
        let Ok(json) = std::fs::read_to_string(path) else {
            return "missing".into();
        };
        let probe = format!("\"{key}\":");
        json.find(&probe)
            .map(|at| {
                let rest = json[at + probe.len()..].trim_start();
                let end = rest
                    .find(|c: char| c != '.' && c != '-' && !c.is_ascii_digit())
                    .unwrap_or(rest.len());
                rest[..end].to_string()
            })
            .unwrap_or_else(|| "missing".into())
    };
    println!("benchall: summary");
    for (file, key, unit) in [
        (
            "BENCH_estimator.json",
            "single_thread_windows_per_sec",
            "windows/s",
        ),
        ("BENCH_obs.json", "overhead_pct", "% metrics overhead"),
        (
            "BENCH_obs.json",
            "sampled_overhead_pct",
            "% trace overhead at 1/256",
        ),
        (
            "BENCH_store.json",
            "wal_interval_appends_per_sec",
            "appends/s",
        ),
        (
            "BENCH_query.json",
            "fanout_8_deliveries_per_sec",
            "deliveries/s",
        ),
        ("BENCH_sink.json", "encode_pkts_per_sec", "encodes/s"),
    ] {
        println!("benchall:   {file:<22} {key} = {} {unit}", pick(file, key));
    }
    Ok(())
}

/// Locates the `domo-sink` binary: `--sink-bin`, then `$DOMO_SINK_BIN`,
/// then a sibling of the running `domo-exp` executable (both land in
/// the same cargo target directory).
fn sink_binary(args: &Args) -> Result<std::path::PathBuf, String> {
    if let Some(p) = args.sink_bin.as_deref() {
        return Ok(p.into());
    }
    if let Ok(p) = std::env::var("DOMO_SINK_BIN") {
        return Ok(p.into());
    }
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let sibling = exe.with_file_name("domo-sink");
    if sibling.exists() {
        return Ok(sibling);
    }
    Err(format!(
        "domo-sink binary not found at {}; build it (`cargo build -p domo-sink`) \
         or pass --sink-bin / set DOMO_SINK_BIN",
        sibling.display()
    ))
}

/// Spawns a durable single-shard `domo-sink serve` child for a soak:
/// degrade-on-error with a 64-record probe cadence, plus `extra`.
fn spawn_soak_serve(
    bin: &std::path::Path,
    data_dir: &str,
    addr_file: &std::path::Path,
    extra: &[&str],
) -> Result<domo_sink::client::ServeChild, String> {
    let mut args = vec![
        "--shards",
        "1",
        "--data-dir",
        data_dir,
        "--fsync",
        "interval:8",
        "--probe-every",
        "64",
        "--on-store-error",
        "degrade",
        "--idle-timeout",
        "120",
    ];
    args.extend_from_slice(extra);
    domo_sink::client::ServeChild::spawn(bin, addr_file, &args)
        .map_err(|e| format!("spawn serve: {e}"))
}

/// The survival soak (see the module docs): a durable sink child under
/// an injected fault storm plus a shard-worker panic must keep exact
/// accounting, heal, and recover bit-identically after a SIGKILL.
fn chaos(args: &Args) -> Result<(), String> {
    use domo_sink::client::{
        await_range, parse_stats, query_request, reference_lines, replay_packets, stat,
        QueryClient, ReplayOptions,
    };
    use domo_sink::service::SinkConfig;

    let bin = sink_binary(args)?;
    let trace = run_simulation(&NetworkConfig::small(args.nodes, args.seed));
    let total = trace.packets.len();
    if total < 40 {
        return Err(format!("trace too small for a soak: {total} packets"));
    }
    // The fault storm arms after the first ~30 journal writes and, in
    // full mode, runs long enough to force several failed heal probes.
    // The shard panic lands at packet 10 — early enough that everything
    // the dying worker consumed is already journaled, so the watchdog
    // restart must lose nothing.
    let storm = if args.quick {
        "eio=1,fsync=1,after=30,for=40,seed=5"
    } else {
        "eio=1,fsync=1,torn=0.5,after=30,for=90,seed=5"
    };
    println!(
        "chaos: soak over {total} packets (storm {storm}, worker panic at 10, quick={})",
        args.quick
    );

    // The undisturbed truth: the same trace through an in-process,
    // volatile, single-shard service.
    let expected = reference_lines(
        SinkConfig {
            shards: 1,
            ..SinkConfig::default()
        },
        &trace.packets,
    )?;

    let scratch = std::env::temp_dir().join(format!("domo-chaos-{}", std::process::id()));
    let data_dir = scratch.display().to_string();
    let _ = std::fs::remove_dir_all(&scratch);
    let addr_file = std::env::temp_dir().join(format!("domo-chaos-addr-{}", std::process::id()));

    // Phase 1: the storm. Faults + panic armed; stream the full trace.
    let mut child = spawn_soak_serve(
        &bin,
        &data_dir,
        &addr_file,
        &["--store-faults", storm, "--chaos-panic", "0:10"],
    )?;
    let (ingest, query) = (child.ingest.clone(), child.query.clone());
    replay_packets(
        &ingest as &str,
        &trace.packets,
        &ReplayOptions::default(), // no reconnect budget: the sink must not die
    )
    .map_err(|e| format!("storm replay: {e}"))?;

    // Wait for the socket to be fully consumed before draining —
    // every frame lands in exactly one of ingested/quarantined.
    QueryClient::connect(&query as &str)
        .and_then(|mut q| {
            q.wait_stats(std::time::Duration::from_secs(120), |s| {
                stat(s, "ingested") + stat(s, "quarantined") >= total as u64
            })
        })
        .map_err(|e| format!("storm ingest: {e}"))?;
    // Drain and heal until every packet answers a durable RANGE scan.
    // Emission is asynchronous behind the drain barrier, and while the
    // sink is degraded the emitted records sit in the in-memory backlog
    // rather than the result log — so each round also attempts the
    // healing checkpoint. Every failed attempt burns at least one
    // faulted I/O op, so the storm window is guaranteed to pass.
    // Once it does, the post-heal state must already be bit-identical
    // to the undisturbed run, while still serving.
    await_range(
        &query,
        &["DRAIN", "CHECKPOINT"],
        &expected,
        std::time::Duration::from_secs(120),
    )
    .map_err(|e| format!("post-heal state: {e}"))?;

    // The storm is spent and the backlog is flushed: a checkpoint must
    // now succeed outright.
    let reply =
        query_request(&query as &str, "CHECKPOINT").map_err(|e| format!("checkpoint: {e}"))?;
    if !reply.first().is_some_and(|l| l.starts_with("OK lsn ")) {
        return Err(format!("post-heal checkpoint still failing: {reply:?}"));
    }

    // Gate 1: the child survived the whole storm on its own.
    if let Some(status) = child.exit_status().map_err(|e| format!("try_wait: {e}"))? {
        return Err(format!("sink exited during the storm: {status}"));
    }

    // Gate 2: exact accounting and a healed, storm-marked state.
    let stat_lines = query_request(&query as &str, "STATS").map_err(|e| format!("stats: {e}"))?;
    let stats = parse_stats(&stat_lines);
    let ingested = stat(&stats, "ingested");
    let emitted = stat(&stats, "emitted");
    let dropped = stat(&stats, "backpressure_dropped") + stat(&stats, "watchdog_dropped");
    if emitted + dropped != ingested {
        return Err(format!(
            "accounting broken: emitted {emitted} + dropped {dropped} != ingested {ingested}"
        ));
    }
    if ingested != total as u64 || dropped != 0 {
        return Err(format!(
            "lossless soak violated: ingested {ingested}/{total}, dropped {dropped}"
        ));
    }
    if !stat_lines.iter().any(|l| l == "health healthy") {
        return Err(format!("sink did not heal: {stat_lines:?}"));
    }
    for (counter, why) in [
        (
            "degraded_entries",
            "the fault storm never degraded the sink",
        ),
        ("heals", "the sink never re-armed durability"),
        (
            "watchdog_restarts",
            "the worker panic never tripped the watchdog",
        ),
    ] {
        if stat(&stats, counter) == 0 {
            return Err(format!("soak did not exercise its target: {why}"));
        }
    }
    let store = parse_stats(
        &query_request(&query as &str, "STORE STATS").map_err(|e| format!("store: {e}"))?,
    );
    if stat(&store, "result_records") != total as u64 {
        return Err(format!(
            "result log diverged: {} records for {total} packets (re-emissions must dedup)",
            stat(&store, "result_records")
        ));
    }
    if stat(&store, "checkpoints_on_disk") > 2 {
        return Err("checkpoint retention leak".into());
    }
    println!(
        "chaos: storm survived — degraded {}x, healed {}x, watchdog restarts {}, store errors {}",
        stat(&stats, "degraded_entries"),
        stat(&stats, "heals"),
        stat(&stats, "watchdog_restarts"),
        stat(&stats, "store_errors"),
    );

    // Phase 2: SIGKILL, restart with a clean store, and require the
    // recovered state to match the same truth.
    drop(child);
    let child = spawn_soak_serve(&bin, &data_dir, &addr_file, &[])?;
    let query = child.query.clone();
    await_range(&query, &[], &expected, std::time::Duration::from_secs(30))
        .map_err(|e| format!("recovered state vs the undisturbed run: {e}"))?;
    println!("chaos: recovered {total}/{total} packets bit-identically after SIGKILL");
    drop(child);
    let _ = std::fs::remove_dir_all(&scratch);
    let _ = std::fs::remove_file(&addr_file);
    println!("chaos: OK");
    Ok(())
}

/// Re-namespaces a simulated packet into `tenant`'s id space: every
/// node id maps through [`domo_cluster::namespace_node`] (the shared
/// sink stays node 0), so tenants are disjoint end to end — pids,
/// dedup, storage, and queries never collide across namespaces.
fn namespaced(
    p: &domo_net::CollectedPacket,
    tenant: u16,
) -> Result<domo_net::CollectedPacket, String> {
    use domo_net::NodeId;
    let map = |n: NodeId| -> Result<NodeId, String> {
        domo_cluster::namespace_node(tenant, n.index() as u16)
            .map(NodeId::new)
            .ok_or_else(|| format!("node {n} does not fit tenant {tenant}"))
    };
    let mut q = p.clone();
    q.pid.origin = map(q.pid.origin)?;
    for n in &mut q.path {
        *n = map(*n)?;
    }
    Ok(q)
}

/// The tenant a reconstruction line belongs to, parsed from its
/// `packet n<origin>#<seq> …` pid token.
fn line_tenant(line: &str) -> Option<u16> {
    let pid = line.split_whitespace().nth(1)?;
    let origin: u16 = pid.strip_prefix('n')?.split('#').next()?.parse().ok()?;
    Some(domo_cluster::tenant_of(origin))
}

/// The multi-sink acceptance gate (check.sh gate 14): a 3-member ×
/// 2-tenant cluster of real `domo-sink serve` processes, fed through
/// the consistent-hash router, must survive a mid-replay SIGKILL of
/// its busiest member with (1) every record landing exactly once on a
/// survivor, (2) per-tenant reconstructions bit-identical to a
/// single-process reference that runs the same deterministic
/// placement, and (3) a scatter-gather AGG within the documented
/// sketch bound of an offline exact computation.
fn clustersmoke(args: &Args) -> Result<(), String> {
    use domo_cluster::{split_node, tenant_of, Ring};
    use domo_sink::client::{parse_stats, query_request, reference_lines, stat, ServeChild};
    use domo_sink::route::{cluster_agg, cluster_range, cluster_stats, RouteOptions, Router};
    use domo_sink::service::SinkConfig;

    let bin = sink_binary(args)?;
    let trace = run_simulation(&NetworkConfig::small(args.nodes, args.seed));
    if trace.packets.len() < 40 {
        return Err(format!(
            "trace too small for a cluster smoke: {} packets",
            trace.packets.len()
        ));
    }
    // Two tenants stream the same simulated trace, interleaved — same
    // workload, disjoint namespaces, so the per-tenant truths are
    // comparable and the ring spreads 2× the subtree keys.
    let mut workload = Vec::with_capacity(trace.packets.len() * 2);
    for p in &trace.packets {
        workload.push(namespaced(p, 1)?);
        workload.push(namespaced(p, 2)?);
    }
    let total = workload.len();
    let half = total / 2;
    println!(
        "clustersmoke: {} packets x 2 tenants = {total} records across 3 members",
        trace.packets.len()
    );

    // Three durable members.
    let scratch = std::env::temp_dir().join(format!("domo-clustersmoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    let mut children: Vec<ServeChild> = Vec::new();
    for i in 0..3usize {
        let data_dir = scratch.join(format!("member-{i}")).display().to_string();
        let addr_file = scratch.join(format!("addr-{i}"));
        std::fs::create_dir_all(&scratch).map_err(|e| format!("scratch: {e}"))?;
        // A high-water mark far above the smoke workload makes the
        // estimator solve each member's whole share in one sorted
        // flush at DRAIN, so the reconstruction is a function of the
        // *set* a member owns, independent of the nondeterministic
        // interleave failover replay introduces — the bit-identity
        // gate below is exact (DESIGN.md §17.5).
        let member = ["--cluster-role", "member", "--high-water", "65536"];
        children.push(spawn_soak_serve(&bin, &data_dir, &addr_file, &member)?);
    }
    let members: Vec<String> = children.iter().map(|c| c.ingest.clone()).collect();

    // The victim: whoever owns the most of the second half, so the
    // kill is guaranteed to hit in-flight traffic (a small tree has
    // few subtree keys; killing an idle member would test nothing).
    let ring = Ring::new(members.clone());
    let owner_of = |p: &domo_net::CollectedPacket| -> Result<String, String> {
        let root = p
            .subtree_root()
            .ok_or_else(|| format!("{} has no subtree root", p.pid))?;
        let (t, r) = split_node(root.index() as u16);
        ring.owner(t, r)
            .map(String::from)
            .ok_or_else(|| "empty ring".to_string())
    };
    let mut second_half_share: std::collections::BTreeMap<String, u64> = Default::default();
    for p in &workload[half..] {
        *second_half_share.entry(owner_of(p)?).or_insert(0) += 1;
    }
    let victim = second_half_share
        .iter()
        .max_by_key(|&(_, n)| n)
        .map(|(m, _)| m.clone())
        .ok_or("no second-half owners")?;
    if second_half_share[&victim] < 2 {
        return Err("victim owns too little of the second half to force failover".into());
    }

    // Route the first half, SIGKILL the victim mid-replay, route the
    // rest. The router detects the death on a failed write, reroutes
    // the victim's keys, and replays its spool to the new owners.
    let mut router = Router::new(
        members.clone(),
        RouteOptions {
            max_reconnects: 2,
            backoff_start_ms: 5,
            backoff_cap_ms: 50,
            ..RouteOptions::default()
        },
    )
    .map_err(|e| format!("router: {e}"))?;
    for p in &workload[..half] {
        router.forward(p).map_err(|e| format!("forward: {e}"))?;
    }
    let victim_idx = members
        .iter()
        .position(|m| *m == victim)
        .ok_or("victim not a member")?;
    children[victim_idx]
        .kill()
        .map_err(|e| format!("kill victim {victim}: {e}"))?;
    println!("clustersmoke: SIGKILLed {victim} after {half}/{total} records");
    std::thread::sleep(std::time::Duration::from_millis(50));
    for p in &workload[half..] {
        router
            .forward(p)
            .map_err(|e| format!("forward after kill: {e}"))?;
    }
    let report = router.finish().map_err(|e| format!("finish: {e}"))?;
    if report.failovers != 1 || report.spool_dropped != 0 || report.forwarded != total as u64 {
        return Err(format!(
            "failover accounting off: failovers {} spool_dropped {} forwarded {}/{total}",
            report.failovers, report.spool_dropped, report.forwarded
        ));
    }
    println!(
        "clustersmoke: failover rerouted {} records ({} reconnect attempts)",
        report.rerouted, report.reconnects
    );

    // Survivors and their deterministic final shares: the ring's owner,
    // or — for the victim's keys — the owner after removal.
    let survivors: Vec<usize> = (0..members.len()).filter(|&i| i != victim_idx).collect();
    let healed = {
        let mut r = Ring::new(members.clone());
        r.remove_member(&victim);
        r
    };
    let final_owner = |p: &domo_net::CollectedPacket| -> Result<String, String> {
        let owner = owner_of(p)?;
        if owner != victim {
            return Ok(owner);
        }
        let root = p
            .subtree_root()
            .ok_or_else(|| format!("{} has no subtree root", p.pid))?;
        let (t, r) = split_node(root.index() as u16);
        healed
            .owner(t, r)
            .map(String::from)
            .ok_or_else(|| "healed ring empty".to_string())
    };

    // Every record must land exactly once across the survivors.
    let queries: Vec<String> = survivors
        .iter()
        .map(|&i| children[i].query.clone())
        .collect();
    let deadline = Instant::now() + std::time::Duration::from_secs(120);
    loop {
        let mut ingested = 0;
        let mut quarantined = 0;
        for q in &queries {
            let stats = parse_stats(
                &query_request(q.as_str(), "STATS").map_err(|e| format!("stats: {e}"))?,
            );
            ingested += stat(&stats, "ingested");
            quarantined += stat(&stats, "quarantined");
        }
        if quarantined != 0 {
            return Err(format!(
                "exactly-once violated: {quarantined} duplicate records quarantined"
            ));
        }
        if ingested == total as u64 {
            break;
        }
        if Instant::now() > deadline {
            return Err(format!("cluster ingest stalled at {ingested}/{total}"));
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }

    // The single-process reference: the same placement, run as one
    // in-process service per surviving member's share. (A lone service
    // over the whole workload is NOT the right truth: estimator
    // windows are share-local, which is exactly why the ring keys on
    // the subtree root — co-constrained packets stay together.)
    let mut expected: Vec<String> = Vec::with_capacity(total);
    for &i in &survivors {
        let share: Vec<domo_net::CollectedPacket> = workload
            .iter()
            .filter(|p| final_owner(p).as_deref() == Ok(members[i].as_str()))
            .cloned()
            .collect();
        let cfg = SinkConfig {
            shards: 1,
            high_water: Some(65_536),
            ..SinkConfig::default()
        };
        expected.extend(reference_lines(cfg, &share)?);
    }
    expected.sort();
    if expected.len() != total {
        return Err(format!(
            "reference emitted {}/{total} reconstructions",
            expected.len()
        ));
    }

    // Drain and scatter-gather until the merged RANGE holds everything,
    // then require bit-identity per tenant.
    let deadline = Instant::now() + std::time::Duration::from_secs(120);
    let got = loop {
        for q in &queries {
            query_request(q.as_str(), "DRAIN").map_err(|e| format!("drain: {e}"))?;
        }
        let (lines, gather) = cluster_range(&queries, f64::NEG_INFINITY, f64::INFINITY)
            .map_err(|e| format!("cluster range: {e}"))?;
        if !gather.missed.is_empty() {
            return Err(format!("survivor unreachable: {:?}", gather.missed));
        }
        if lines.len() == total {
            break lines;
        }
        if lines.len() > total {
            return Err(format!(
                "double-emit: {} records for {total} packets",
                lines.len()
            ));
        }
        if Instant::now() > deadline {
            return Err(format!(
                "cluster recovery stalled at {}/{total} records",
                lines.len()
            ));
        }
        std::thread::sleep(std::time::Duration::from_millis(30));
    };
    for tenant in [1u16, 2] {
        let want: Vec<&String> = expected
            .iter()
            .filter(|l| line_tenant(l) == Some(tenant))
            .collect();
        let have: Vec<&String> = got
            .iter()
            .filter(|l| line_tenant(l) == Some(tenant))
            .collect();
        if want != have {
            let diff = have
                .iter()
                .zip(&want)
                .find(|(g, e)| g != e)
                .map(|(g, e)| format!("got `{g}` want `{e}`"))
                .unwrap_or_else(|| format!("{} vs {} lines", have.len(), want.len()));
            return Err(format!(
                "tenant {tenant} diverges from the reference: {diff}"
            ));
        }
        println!(
            "clustersmoke: tenant {tenant} recovered {} reconstructions bit-identically",
            want.len()
        );
    }

    // Cluster-wide counters and tenant namespaces.
    let (stats, gather) = cluster_stats(&queries).map_err(|e| format!("cluster stats: {e}"))?;
    if gather.reached.len() != queries.len() {
        return Err(format!("cluster stats missed members: {:?}", gather.missed));
    }
    if stat(&stats, "ingested") != total as u64 || stat(&stats, "emitted") != total as u64 {
        return Err(format!(
            "cluster totals off: ingested {} emitted {} want {total}",
            stat(&stats, "ingested"),
            stat(&stats, "emitted")
        ));
    }
    let mut per_tenant: std::collections::BTreeMap<u16, u64> = Default::default();
    for q in &queries {
        let stats = query_request(q.as_str(), "STATS").map_err(|e| format!("stats: {e}"))?;
        if !stats.iter().any(|l| l == "cluster_role member") {
            return Err(format!("member at {q} does not report its cluster role"));
        }
        for line in query_request(q.as_str(), "TENANTS").map_err(|e| format!("tenants: {e}"))? {
            let fields: Vec<&str> = line.split_whitespace().collect();
            if let ["tenant", id, "accepted", n] = fields[..] {
                let id: u16 = id.parse().map_err(|e| format!("tenant id: {e}"))?;
                let n: u64 = n.parse().map_err(|e| format!("tenant count: {e}"))?;
                *per_tenant.entry(id).or_insert(0) += n;
            }
        }
    }
    let share = trace.packets.len() as u64;
    if per_tenant.get(&1) != Some(&share) || per_tenant.get(&2) != Some(&share) {
        return Err(format!(
            "tenant namespaces drifted: {per_tenant:?}, want {share} each"
        ));
    }
    println!("clustersmoke: tenant namespaces intact ({share} records each)");

    // Scatter-gather AGG for the busiest tenant-1 forwarder vs the
    // offline exact sojourns, within the documented sketch bound.
    let mut sojourns_by_node: std::collections::BTreeMap<u16, Vec<f64>> = Default::default();
    for line in &expected {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let (Some(pp), Some(tp)) = (
            fields.iter().position(|&t| t == "path"),
            fields.iter().position(|&t| t == "times"),
        ) else {
            continue;
        };
        let path: Vec<u16> = fields[pp + 1]
            .split('-')
            .filter_map(|t| t.parse().ok())
            .collect();
        let times: Vec<f64> = fields[tp + 1..]
            .iter()
            .filter_map(|t| t.parse().ok())
            .collect();
        for (i, w) in times.windows(2).enumerate() {
            if let Some(&n) = path.get(i) {
                if tenant_of(n) == 1 {
                    sojourns_by_node
                        .entry(n)
                        .or_default()
                        .push((w[1] - w[0]).max(0.0));
                }
            }
        }
    }
    let (agg_node, mut exact) = sojourns_by_node
        .into_iter()
        .max_by_key(|(_, v)| v.len())
        .ok_or("no tenant-1 sojourn samples")?;
    exact.sort_by(f64::total_cmp);
    let (buckets, gather) = cluster_agg(&queries, agg_node, 0.0, 1e9, 1_000_000_000)
        .map_err(|e| format!("cluster agg: {e}"))?;
    if gather.reached.len() != queries.len() {
        return Err(format!("cluster agg missed members: {:?}", gather.missed));
    }
    let bucket = buckets
        .first()
        .ok_or_else(|| format!("cluster AGG returned no bucket for node {agg_node}"))?;
    if bucket.count != exact.len() as u64 {
        return Err(format!(
            "cluster AGG count {} != offline {}",
            bucket.count,
            exact.len()
        ));
    }
    // DelaySketch::relative_error_bound is ≈5.93% (documented < 6.2%);
    // the offline values carry %.3f wire rounding, hence the slack.
    let bound = 0.062;
    let rank = |q: f64| -> f64 {
        let r = ((q * exact.len() as f64).ceil() as usize).clamp(1, exact.len());
        exact[r - 1]
    };
    for (name, est, q) in [
        ("p50", bucket.p50, 0.50),
        ("p95", bucket.p95, 0.95),
        ("p99", bucket.p99, 0.99),
    ] {
        let truth = rank(q);
        if (est - truth).abs() > bound * truth.abs() + 1e-2 {
            return Err(format!(
                "cluster AGG {name} {est} vs exact {truth} exceeds the {bound} bound"
            ));
        }
    }
    println!(
        "clustersmoke: cluster AGG over {} samples of node {agg_node} within the {:.1}% bound",
        bucket.count,
        bound * 100.0
    );

    drop(children);
    let _ = std::fs::remove_dir_all(&scratch);
    println!("clustersmoke: OK");
    Ok(())
}

/// Pulls `(members, pkts_per_sec)` rows out of a previously written
/// BENCH_cluster.json (flat machine-written JSON, substring scan —
/// same approach as [`baseline_throughput`]).
fn cluster_baseline_rows(text: &str) -> Vec<(usize, f64)> {
    let number_after = |hay: &str, key: &str| -> Option<(usize, f64)> {
        let at = hay.find(key)?;
        let rest = hay[at + key.len()..].trim_start();
        let end = rest
            .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
            .unwrap_or(rest.len());
        rest[..end].parse().ok().map(|v| (at, v))
    };
    let mut rows = Vec::new();
    let mut cursor = 0;
    while let Some((at, members)) = number_after(&text[cursor..], "\"members\":") {
        let from = cursor + at;
        if let Some((_, v)) = number_after(&text[from..], "\"pkts_per_sec\":") {
            rows.push((members as usize, v));
        }
        cursor = from + 1;
    }
    rows
}

/// Replicates a trace time-shifted and seq-offset until it holds at
/// least `target` packets (pids stay unique, timestamps stay monotone
/// — the same steady-state trick `domo-sink bench` uses).
fn replicate_workload(
    base: &[domo_net::CollectedPacket],
    target: usize,
) -> Vec<domo_net::CollectedPacket> {
    use domo_util::time::{SimDuration, SimTime};
    let span = base
        .iter()
        .map(|p| p.sink_arrival)
        .max()
        .unwrap_or(SimTime::ZERO)
        .saturating_sub(SimTime::ZERO)
        + SimDuration::from_millis(1);
    let seq_stride = base.iter().map(|p| p.pid.seq).max().unwrap_or(0) + 1;
    let rounds = target.div_ceil(base.len().max(1));
    let mut out = Vec::with_capacity(rounds * base.len());
    for round in 0..rounds {
        let shift = span * round as u64;
        for p in base {
            let mut q = p.clone();
            q.pid.seq += seq_stride * round as u32;
            q.gen_time += shift;
            q.sink_arrival += shift;
            out.push(q);
        }
    }
    out
}

/// Router fan-out throughput at 1, 2, and 4 members (in-process
/// sinks), gated on `--baseline` (>20% regression on any member count
/// fails), then written to `--out` (default BENCH_cluster.json).
fn cluster_bench(args: &Args) -> Result<(), String> {
    use domo_sink::route::{route_packets, RouteOptions};
    use domo_sink::server::SinkServer;
    use domo_sink::service::SinkConfig;

    const TARGET: usize = 16_384;
    const REPS: usize = 3;
    let trace = run_simulation(&NetworkConfig::small(args.nodes, args.seed));
    if trace.packets.is_empty() {
        return Err("simulated trace delivered nothing".into());
    }
    // Spread the base trace over four tenant namespaces before
    // replicating: one small tree has only a handful of subtree roots,
    // and with so few ring keys a 2- or 4-member ring can legitimately
    // leave a member idle — which would make the "fan-out at N
    // members" number a lie. Four tenants × the tree's roots gives the
    // ring enough keys to load every member.
    let mut base = Vec::with_capacity(trace.packets.len() * 4);
    for tenant in 0..4u16 {
        for p in &trace.packets {
            base.push(namespaced(p, tenant)?);
        }
    }
    let workload = replicate_workload(&base, TARGET);
    let total = workload.len();
    println!("clusterbench: fanning {total} records (4 tenants) out over 1/2/4 members");

    // Correctness leg (untimed): route the whole workload into a real
    // 4-member cluster of in-process sinks and require every record to
    // clear the wire, the decode path, and dedup with nothing lost.
    // The estimator is tuned for speed over accuracy here — tiny
    // windows, no FIFO rows, a one-iteration solver budget — because
    // this leg gates losslessness, not reconstruction quality.
    {
        let servers: Vec<SinkServer> = (0..4)
            .map(|_| {
                SinkServer::bind(
                    "127.0.0.1:0",
                    "127.0.0.1:0",
                    SinkConfig {
                        shards: 1,
                        cluster_role: "member".into(),
                        high_water: Some(64),
                        estimator: {
                            let mut est = EstimatorConfig {
                                fifo_mode: domo_core::estimator::FifoMode::Off,
                                ..EstimatorConfig::default()
                            };
                            est.solver.max_iterations = 1;
                            est.solver.polish = false;
                            est
                        },
                        ..SinkConfig::default()
                    },
                )
                .map_err(|e| format!("bind member: {e}"))
            })
            .collect::<Result<_, String>>()?;
        let addrs: Vec<String> = servers
            .iter()
            .map(|s| s.ingest_addr().to_string())
            .collect();
        let report = route_packets(addrs, &workload, RouteOptions::default())
            .map_err(|e| format!("route: {e}"))?;
        if report.forwarded != total as u64 || report.failovers != 0 {
            return Err(format!(
                "bench route drifted: forwarded {}/{total}, failovers {}",
                report.forwarded, report.failovers
            ));
        }
        let deadline = Instant::now() + std::time::Duration::from_secs(120);
        loop {
            let got: u64 = servers.iter().map(|s| s.service().stats().ingested).sum();
            if got == total as u64 {
                break;
            }
            if Instant::now() > deadline {
                return Err(format!("bench ingest stalled at {got}/{total}"));
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        for s in servers {
            s.shutdown();
        }
        println!("clusterbench: loss validation OK ({total} records, 4 live members)");
    }

    // Throughput leg (timed): the same fan-out into drain listeners
    // that accept one connection each and discard bytes. That pins the
    // measurement on the router + wire encode path — what this bench
    // gates — instead of on solver scheduling noise, which made the
    // live-sink numbers swing 2x between runs.
    let drain_member = || -> Result<_, String> {
        let listener =
            std::net::TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind drain: {e}"))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("drain addr: {e}"))?
            .to_string();
        let handle = std::thread::spawn(move || -> std::io::Result<u64> {
            let (mut stream, _) = listener.accept()?;
            std::io::copy(&mut stream, &mut std::io::sink())
        });
        Ok((addr, handle))
    };
    let mut rows = Vec::new();
    let mut measured = Vec::new();
    for members in [1usize, 2, 4] {
        let mut best = 0f64;
        for _rep in 0..REPS {
            let mut addrs = Vec::with_capacity(members);
            let mut drains = Vec::with_capacity(members);
            for _ in 0..members {
                let (addr, handle) = drain_member()?;
                addrs.push(addr);
                drains.push(handle);
            }
            // The timed window covers the full drain: finish() closes
            // the connections at a frame boundary, and the join only
            // returns once every byte left the kernel buffers.
            let start = Instant::now();
            let report = route_packets(addrs.clone(), &workload, RouteOptions::default())
                .map_err(|e| format!("route: {e}"))?;
            // Wake any drain whose member drew no keys (the router
            // connects lazily): a throwaway connection that closes
            // immediately unblocks its accept with zero bytes. Members
            // already connected just leave it in the backlog.
            for addr in &addrs {
                drop(std::net::TcpStream::connect(addr.as_str()));
            }
            let mut drained = 0u64;
            for handle in drains {
                drained += handle
                    .join()
                    .map_err(|_| "drain thread panicked".to_string())?
                    .map_err(|e| format!("drain read: {e}"))?;
            }
            let seconds = start.elapsed().as_secs_f64();
            if report.forwarded != total as u64 || report.failovers != 0 {
                return Err(format!(
                    "bench route drifted: forwarded {}/{total}, failovers {}",
                    report.forwarded, report.failovers
                ));
            }
            if drained != report.bytes {
                return Err(format!(
                    "wire loss: drained {drained} of {} routed bytes",
                    report.bytes
                ));
            }
            best = best.max(total as f64 / seconds);
        }
        println!("clusterbench: {members} member(s): {best:.0} pkts/s fan-out");
        measured.push((members, best));
        rows.push(format!(
            "    {{\"members\": {members}, \"pkts_per_sec\": {best:.1}}}"
        ));
    }

    if let Some(path) = args.baseline.as_deref() {
        let text = std::fs::read_to_string(path).map_err(|e| format!("baseline {path}: {e}"))?;
        let old = cluster_baseline_rows(&text);
        if old.is_empty() {
            return Err(format!("baseline {path} has no pkts_per_sec rows"));
        }
        for (members, old_pps) in old {
            let Some(&(_, new_pps)) = measured.iter().find(|(m, _)| *m == members) else {
                continue;
            };
            if new_pps < 0.8 * old_pps {
                return Err(format!(
                    "regression at {members} member(s): {new_pps:.0} pkts/s < 80% of \
                     baseline {old_pps:.0}"
                ));
            }
            println!(
                "clusterbench: {members} member(s) vs baseline: {new_pps:.0} / {old_pps:.0} pkts/s"
            );
        }
    }

    let json = format!(
        "{{\n  \"bench\": \"cluster_fanout\",\n  \"nodes\": {},\n  \"seed\": {},\n  \
         \"packets\": {total},\n  \"rows\": [\n{}\n  ]\n}}\n",
        args.nodes,
        args.seed,
        rows.join(",\n")
    );
    std::fs::write(&args.out, json).map_err(|e| format!("write {}: {e}", args.out))?;
    println!("clusterbench: wrote {}", args.out);
    Ok(())
}

fn run(experiment: &str, args: &Args) {
    match experiment {
        "fig1" => println!("{}", figures::delay_map(base_scenario(args))),
        "fig6" => {
            let eval = figures::evaluate(base_scenario(args));
            println!("{}", eval.render_accuracy());
            println!("{}", eval.render_bounds());
            println!("{}", eval.render_displacement());
            println!(
                "(trace: {} unknowns; estimator {:.1}s, bounds {:.1}s)\n",
                eval.num_unknowns, eval.estimate_seconds, eval.bounds_seconds
            );
        }
        "fig7" => {
            let points = figures::loss_sweep(base_scenario(args), &[0.1, 0.2, 0.3]);
            println!("{}", figures::render_loss_sweep(&points));
        }
        "fig8" => {
            let scales: Vec<usize> = [100usize, 225, 400]
                .into_iter()
                .filter(|&n| n <= args.nodes.max(400))
                .collect();
            let points: Vec<(usize, figures::Evaluation)> = scales
                .iter()
                .map(|&n| {
                    (
                        n,
                        figures::evaluate(Scenario::paper(n, args.seed).scaled_down(args.fast)),
                    )
                })
                .collect();
            println!("{}", figures::render_scale_sweep(&points));
        }
        "fig9" => {
            let points = figures::window_ratio_sweep(
                base_scenario(args),
                &[0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9],
            );
            println!("{}", figures::render_window_ratio_sweep(&points));
        }
        "fig10" => {
            let points = figures::cut_size_sweep(base_scenario(args), &[25, 50, 100, 200, 400]);
            println!("{}", figures::render_cut_size_sweep(&points));
        }
        "table1" => println!("{}", figures::table1(base_scenario(args))),
        "ablation" => println!("{}", figures::ablation_report(base_scenario(args))),
        "workload" => {
            let scenario = base_scenario(args);
            let run = domo_experiments::ScenarioRun::execute(scenario);
            if let Some(profile) = domo_net::TraceProfile::from_trace(&run.trace) {
                println!("{}", profile.render());
            }
            let diag = domo_core::diagnose(run.domo.view(), &run.scenario.estimator.constraints);
            println!("{}", diag.render());
        }
        "robust" => {
            let points = figures::fault_sweep(base_scenario(args), &[0.0, 0.05, 0.1, 0.2]);
            println!("{}", figures::render_fault_sweep(&points));
        }
        "online" => {
            let cmp = figures::online_comparison(base_scenario(args), &[1, 2, 4]);
            println!("{}", figures::render_online(&cmp));
        }
        "bench" => {
            if let Err(msg) = bench(args) {
                domo_obs::error!(target: "domo_exp", "bench failed", error = msg);
                std::process::exit(1);
            }
        }
        "obsbench" => {
            if let Err(msg) = obs_bench(args) {
                domo_obs::error!(target: "domo_exp", "obsbench failed", error = msg);
                std::process::exit(1);
            }
        }
        "storebench" => {
            if let Err(msg) = store_bench(args) {
                domo_obs::error!(target: "domo_exp", "storebench failed", error = msg);
                std::process::exit(1);
            }
        }
        "querybench" => {
            if let Err(msg) = query_bench(args) {
                domo_obs::error!(target: "domo_exp", "querybench failed", error = msg);
                std::process::exit(1);
            }
        }
        "tracebench" => {
            if let Err(msg) = trace_bench(args) {
                domo_obs::error!(target: "domo_exp", "tracebench failed", error = msg);
                std::process::exit(1);
            }
        }
        "benchall" => {
            if let Err(msg) = bench_all(args) {
                domo_obs::error!(target: "domo_exp", "benchall failed", error = msg);
                std::process::exit(1);
            }
        }
        "chaos" => {
            if let Err(msg) = chaos(args) {
                domo_obs::error!(target: "domo_exp", "chaos failed", error = msg);
                std::process::exit(1);
            }
        }
        "clustersmoke" => {
            if let Err(msg) = clustersmoke(args) {
                domo_obs::error!(target: "domo_exp", "clustersmoke failed", error = msg);
                std::process::exit(1);
            }
        }
        "clusterbench" => {
            if let Err(msg) = cluster_bench(args) {
                domo_obs::error!(target: "domo_exp", "clusterbench failed", error = msg);
                std::process::exit(1);
            }
        }
        "all" => {
            for exp in [
                "workload", "table1", "fig1", "fig6", "fig7", "fig8", "fig9", "fig10", "ablation",
                "robust", "online",
            ] {
                run(exp, args);
            }
        }
        other => {
            domo_obs::error!(
                target: "domo_exp",
                "unknown experiment — see the module docs",
                experiment = other,
            );
            std::process::exit(2);
        }
    }
}

/// Dumps every metric the process recorded as JSON Lines (`-` for
/// stdout).
fn write_metrics_dump(path: &str) {
    let body = domo_obs::Recorder::global().render_jsonl();
    if path == "-" {
        print!("{body}");
        return;
    }
    match std::fs::write(path, body) {
        Ok(()) => {
            domo_obs::info!(target: "domo_exp", "wrote metrics dump", path = path);
        }
        Err(e) => {
            domo_obs::error!(
                target: "domo_exp",
                "failed to write metrics dump",
                path = path,
                error = e.to_string(),
            );
            std::process::exit(1);
        }
    }
}

fn main() {
    match parse_args() {
        Ok(args) => {
            run(&args.experiment.clone(), &args);
            if let Some(path) = &args.metrics_json {
                write_metrics_dump(path);
            }
        }
        Err(msg) => {
            let usage = "usage: domo-exp \
                 <fig1|fig6|fig7|fig8|fig9|fig10|table1|ablation|workload|robust|online|bench|\
                 obsbench|storebench|querybench|tracebench|benchall|chaos|clustersmoke|\
                 clusterbench|all> \
                 [--nodes N] [--seed S] [--fast K] [--threads T] \
                 [--out PATH] [--baseline PATH] [--metrics-json PATH] [--max-delta PCT] \
                 [--quick] [--accept] [--sink-bin PATH]";
            domo_obs::error!(target: "domo_exp", "bad invocation", error = msg, usage = usage);
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{
        baseline_throughput, cluster_baseline_rows, extract_trace_object,
        store_baseline_throughput, trace_baseline_throughput, with_trace_section,
    };

    #[test]
    fn cluster_baseline_parser_reads_every_row() {
        let json = "{\n  \"bench\": \"cluster_fanout\",\n  \"rows\": [\n    \
                    {\"members\": 1, \"pkts_per_sec\": 1000.5},\n    \
                    {\"members\": 2, \"pkts_per_sec\": 1800.0},\n    \
                    {\"members\": 4, \"pkts_per_sec\": 2500.25}\n  ]\n}";
        assert_eq!(
            cluster_baseline_rows(json),
            vec![(1, 1000.5), (2, 1800.0), (4, 2500.25)]
        );
        assert!(cluster_baseline_rows("{}").is_empty());
        assert!(cluster_baseline_rows("{\"members\": 3}").is_empty());
    }

    #[test]
    fn baseline_parser_reads_the_committed_number() {
        let json = "{\n  \"bench\": \"estimator_windows\",\n  \
                    \"single_thread_windows_per_sec\": 123.4,\n  \"rows\": []\n}";
        assert_eq!(baseline_throughput(json), Some(123.4));
        assert_eq!(baseline_throughput("{}"), None);
        assert_eq!(
            baseline_throughput("{\"single_thread_windows_per_sec\": bad}"),
            None
        );
    }

    #[test]
    fn store_baseline_parser_reads_the_committed_number() {
        let json = "{\n  \"bench\": \"store_write_path\",\n  \
                    \"wal_interval_appends_per_sec\": 98765.4,\n  \"rows\": []\n}";
        assert_eq!(store_baseline_throughput(json), Some(98765.4));
        assert_eq!(store_baseline_throughput("{}"), None);
    }

    #[test]
    fn trace_section_splices_and_round_trips() {
        let obs = "{\n  \"bench\": \"obs_overhead\",\n  \"overhead_pct\": -0.51\n}\n";
        let spliced = with_trace_section(obs, "{\"pipeline_pps_off\": 1234.5}");
        assert!(spliced.contains("\"overhead_pct\": -0.51"));
        assert_eq!(
            extract_trace_object(&spliced),
            Some("{\"pipeline_pps_off\": 1234.5}")
        );
        assert_eq!(trace_baseline_throughput(&spliced), Some(1234.5));
        // Re-splicing replaces, never duplicates.
        let again = with_trace_section(&spliced, "{\"pipeline_pps_off\": 99.0}");
        assert_eq!(again.matches("\"trace\":").count(), 1);
        assert_eq!(trace_baseline_throughput(&again), Some(99.0));
        assert!(again.contains("\"overhead_pct\": -0.51"));
        // No section in a plain obsbench file.
        assert_eq!(extract_trace_object(obs), None);
        assert_eq!(trace_baseline_throughput(obs), None);
    }
}
