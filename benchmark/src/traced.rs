//! The traced variant of each workload (`--trace 1`). Separate from the
//! timed runs, so no end-to-end number ever pays for a span:
//!
//! * a *staged pipeline* the benchmark composes from public calls —
//!   the stream path single-threaded (`encode_packet` → `FrameSplitter`
//!   → `check_packet` → `Wal::append_batch` → `StreamingEstimator::push`
//!   → `encode_result` + `ResultStore::append` → `SubHub::publish` +
//!   `AggStore::record`), the offline job stage by stage — with an
//!   in-memory span at each boundary and counts at the same points,
//!   written to `out/trace-<workload>.jsonl` when the run ends;
//! * the workload itself once more over TCP, for the counts only the
//!   running sink has (and, on `stream_backlog`, with the program's own
//!   packet trace sampled 1/1 to fill the `stage.*` rows; the gap to an
//!   unsampled run is `obs.trace_overhead_pct`);
//! * the probes of [`crate::layers`] for the layers the workload leans
//!   on.

use crate::harness::{self, io_err, Error};
use crate::input::{self, QueryKind, QueryMix, ROUNDS};
use crate::layers;
use crate::report::RunResult;
use crate::span::{LayerTime, Tracer};
use crate::stats;
use crate::sys::{self, TempDir};
use crate::workloads::stream::{self, Kind, Plan};
use crate::workloads::{measured, offline, query, Layers, Tally};
use domo::core::{
    bounds_for, build_constraints, check_packet, estimate, propagate, BoundsConfig,
    EstimatorConfig, SanitizeConfig, StreamingEstimator, TraceView,
};
use domo::net::{NetworkTrace, NodeId, PacketId};
use domo::query::{AggConfig, AggStore, Event, SubFilter, SubHub, SubOptions};
use domo::sink::persist::encode_result;
use domo::sink::{wire, FrameSplitter, SinkConfig, SinkService, StoreConfig, StoredReconstruction};
use domo::store::{ResultStore, ResultStoreConfig, Wal, WalConfig};
use std::collections::HashMap;
use std::time::Instant;

/// Writes the tracer's spans beside the results and records how many
/// there were.
fn write_trace(workload: &str, tracer: &Tracer, layers: &mut Layers) -> Result<(), Error> {
    let path = sys::out_dir()
        .map_err(io_err("create out dir"))?
        .join(format!("trace-{workload}.jsonl"));
    tracer
        .write_jsonl(&path)
        .map_err(io_err("write trace file"))?;
    layers.insert("trace.spans", tracer.spans().len() as f64);
    Ok(())
}

fn us_per(t: Option<&LayerTime>, packets: f64) -> f64 {
    t.map_or(0.0, |t| t.self_ns as f64 / 1e3 / packets.max(1.0))
}

// ---------------------------------------------------------------------
// offline_paper400
// ---------------------------------------------------------------------

/// The offline job stage by stage on every round's network, plus the
/// solver, linalg, graph and net probes.
pub fn offline_paper400(
    seed: u64,
    seconds: f64,
    layers: &mut Layers,
    result: &mut RunResult,
) -> Result<(), Error> {
    let (sim_s, k) = offline::sizing(seconds / ROUNDS as f64);
    let est_cfg = EstimatorConfig::default();
    let bounds_cfg = BoundsConfig::default();
    let mut tracer = Tracer::new();
    let mut packets = 0u64;
    let mut unknowns = 0usize;
    let mut sim_wall = 0.0;
    let (mut solve_time, mut iterations, mut windows) = (0.0, 0usize, 0usize);
    let (mut unsolved, mut retries, mut lp_solves, mut targets_total) =
        (0usize, 0usize, 0usize, 0usize);
    let (mut coverage, mut width) = (Vec::new(), Vec::new());
    let mut first: Option<NetworkTrace> = None;

    for (round, net_seed) in input::round_seeds(seed).into_iter().enumerate() {
        let (trace, sim_s_wall, _) = measured(|| input::simulate(offline::NODES, sim_s, net_seed));
        sim_wall += sim_s_wall;
        packets += trace.packets.len() as u64;
        let batch = round as u64;
        let job = tracer.span("offline.job", batch, |t| {
            t.count("offline.packets", trace.packets.len() as u64);
            let view = t.span("core.view_build", batch, |_| {
                TraceView::new(trace.packets.clone())
            });
            let opts = &est_cfg.constraints;
            let intervals = t.span("core.propagate", batch, |_| {
                propagate(&view, opts.omega_ms, opts.propagation_rounds)
            });
            let all: Vec<usize> = (0..view.num_packets()).collect();
            let system = t.span("core.build_constraints", batch, |_| {
                build_constraints(&view, &all, &intervals, opts)
            });
            t.count("core.constraint_rows", system.rows.len() as u64);
            let estimates = t.span("core.estimate", batch, |_| estimate(&view, &est_cfg));
            t.count("core.windows", estimates.stats.windows as u64);
            t.count("solver.iterations", estimates.stats.total_iterations as u64);
            let targets = input::bound_targets(view.num_vars(), k);
            let bounds = t.span("core.bounds", batch, |_| {
                bounds_for(&view, &bounds_cfg, &targets)
            });
            t.count("core.bound_targets", targets.len() as u64);
            t.count("solver.lp_solves", bounds.stats.lp_solves as u64);
            (view, estimates, targets, bounds)
        });
        let (view, estimates, targets, bounds) = job;
        unknowns += view.num_vars();
        solve_time += estimates.stats.solve_time.as_secs_f64();
        iterations += estimates.stats.total_iterations;
        windows += estimates.stats.windows;
        unsolved += estimates.stats.unsolved_windows;
        retries += estimates.stats.relaxed_retries;
        lp_solves += bounds.stats.lp_solves;
        targets_total += targets.len();

        // The same checks the timed run makes.
        let checked = offline::check(round, &trace, &view, &estimates, &targets, &bounds, result);
        result.attempted += trace.packets.len() as u64;
        result.failed += checked.missing.min(trace.packets.len() as u64);
        coverage.push(checked.coverage);
        width.push(checked.width_ms);
        if round == 0 {
            layers::graph(&view, &targets, layers);
            first = Some(trace);
        }
    }

    let p = packets.max(1) as f64;
    let times = tracer.layer_times();
    let wall_s = |name: &str| times.get(name).map_or(0.0, |t| t.total_ns as f64 / 1e9);
    let (est_wall, bounds_wall) = (wall_s("core.estimate"), wall_s("core.bounds"));
    let view_us = us_per(times.get("core.view_build"), p);
    let prop_us = us_per(times.get("core.propagate"), p);
    let cons_us = us_per(times.get("core.build_constraints"), p);
    let est_us = us_per(times.get("core.estimate"), p);
    let bounds_us = us_per(times.get("core.bounds"), p);
    let e2e_us = times
        .get("offline.job")
        .map_or(0.0, |t| t.total_ns as f64 / 1e3 / p);
    let layer_sum = view_us + prop_us + cons_us + est_us + bounds_us;
    layers.insert("core.view_build_us_per_pkt", view_us);
    layers.insert("core.propagate_us_per_pkt", prop_us);
    layers.insert("core.constraints_us_per_pkt", cons_us);
    layers.insert("core.estimate_wall_s", est_wall);
    layers.insert("core.windows", windows as f64);
    layers.insert(
        "core.unknowns_per_window",
        unknowns as f64 / windows.max(1) as f64,
    );
    layers.insert(
        "core.nonsolve_share",
        1.0 - solve_time / est_wall.max(f64::MIN_POSITIVE),
    );
    layers.insert(
        "core.bounds_ms_per_target",
        bounds_wall * 1e3 / targets_total.max(1) as f64,
    );
    layers.insert("core.bound_width_mean_ms", stats::mean(&width));
    layers.insert(
        "core.bound_coverage",
        coverage.iter().copied().fold(f64::INFINITY, f64::min),
    );
    layers.insert("core.unsolved_windows", unsolved as f64);
    layers.insert("core.relaxed_retries", retries as f64);
    layers.insert("solver.solve_time_s", solve_time);
    layers.insert("solver.iterations_total", iterations as f64);
    layers.insert(
        "solver.iters_per_window",
        iterations as f64 / windows.max(1) as f64,
    );
    layers.insert(
        "solver.us_per_iter",
        solve_time * 1e6 / iterations.max(1) as f64,
    );
    layers.insert(
        "solver.share_of_estimate",
        solve_time / est_wall.max(f64::MIN_POSITIVE),
    );
    // `BoundsStats::solve_time` is never filled in (it reads 0), so the
    // per-LP figure is the wall time of `bounds` over the LPs it solved;
    // sub-graph extraction and refinement (`graph.*`) are inside it.
    layers.insert(
        "solver.lp_ms_per_bound",
        bounds_wall * 1e3 / lp_solves.max(1) as f64,
    );
    layers.insert("net.sim_pkts_per_s", p / sim_wall.max(f64::MIN_POSITIVE));
    layers.insert("budget.offline_view_us_per_pkt", view_us);
    layers.insert("budget.offline_propagate_us_per_pkt", prop_us);
    layers.insert("budget.offline_constraints_us_per_pkt", cons_us);
    layers.insert("budget.offline_estimate_us_per_pkt", est_us);
    layers.insert("budget.offline_bounds_us_per_pkt", bounds_us);
    layers.insert("budget.offline_layer_sum_us_per_pkt", layer_sum);
    layers.insert("budget.offline_e2e_us_per_pkt", e2e_us);
    layers.insert(
        "budget.offline_unattributed_share",
        1.0 - layer_sum / e2e_us.max(f64::MIN_POSITIVE),
    );
    layers.insert("trace.packets", p);

    // One representative window of each size through the solver alone.
    if let Some((ms, n)) = first.as_ref().and_then(|t| layers::window_qp(&t.packets)) {
        layers.insert("solver.window_qp_ms_n160", ms);
        layers.insert("solver.window_qp_unknowns_n160", n as f64);
    }
    let small = input::simulate(stream::NODES, 120, seed);
    if let Some((ms, n)) = layers::window_qp(&small.packets) {
        layers.insert("solver.window_qp_ms_n64", ms);
        layers.insert("solver.window_qp_unknowns_n64", n as f64);
    }
    layers::linalg(layers);
    write_trace("offline_paper400", &tracer, layers)
}

// ---------------------------------------------------------------------
// stream workloads
// ---------------------------------------------------------------------

/// What only the loaded sink can tell, read between the end of the
/// measured window and shutdown.
#[derive(Default)]
struct Loaded {
    /// `METRICS` as the sink rendered it.
    metrics: Vec<String>,
    /// `STORE STATS`.
    store: Vec<String>,
    /// Wall time of `checkpoint_now`, ms (0 when not probed).
    checkpoint_ms: f64,
    /// Events the fan-out hub dropped for lagging subscribers.
    lagged: u64,
}

fn read_loaded(sink: &harness::Sink, probe_checkpoint: bool) -> Result<Loaded, Error> {
    let mut q = sink.query()?;
    let mut loaded = Loaded {
        metrics: q.request("METRICS").map_err(io_err("METRICS"))?,
        store: q.request("STORE STATS").map_err(io_err("STORE STATS"))?,
        lagged: sink.service().sub_totals().lagged_dropped,
        checkpoint_ms: 0.0,
    };
    if probe_checkpoint {
        let t = Instant::now();
        sink.service()
            .checkpoint_now()
            .map_err(io_err("checkpoint_now"))?;
        loaded.checkpoint_ms = t.elapsed().as_secs_f64() * 1e3;
    }
    Ok(loaded)
}

/// One round of a stream workload over TCP on the seed's own network,
/// checked exactly as the timed run checks it, with the counts only
/// the running sink has.
struct ServerRun {
    m: stream::Measured,
    recon_per_s: f64,
    /// Checkpoints the sink took during the run (the process-wide
    /// counter after the window minus before it).
    checkpoints: f64,
    loaded: Loaded,
}

const CHECKPOINTS_TOTAL: &str = "domo_sink_checkpoints_total ";

fn server_run(
    kind: Kind,
    seed: u64,
    plan: &Plan,
    probe_checkpoint: bool,
    result: &mut RunResult,
) -> Result<ServerRun, Error> {
    let mut ready = stream::setup(seed, plan)?;
    let before = ready
        .control
        .request("METRICS")
        .map_err(io_err("METRICS"))?;
    let mut loaded = Loaded::default();
    let m = stream::measure_with(kind, ready, plan, |sink| {
        loaded = read_loaded(sink, probe_checkpoint)?;
        Ok(())
    })?;
    stream::verify(kind, 0, plan, &m, &mut Tally::default(), result);
    let counter = |lines: &[String]| harness::line_value(lines, CHECKPOINTS_TOTAL).unwrap_or(0.0);
    Ok(ServerRun {
        recon_per_s: m.ops as f64 / m.wall_s.max(f64::MIN_POSITIVE),
        checkpoints: counter(&loaded.metrics) - counter(&before),
        m,
        loaded,
    })
}

/// The `sink.*`, `gen.*` and drain figures of one server run.
fn server_counts(kind: Kind, plan: &Plan, run: &ServerRun, layers: &mut Layers) {
    let c = run.m.end;
    let offered = run.m.frames.len() as f64;
    layers.insert("sink.ingested", c.ingested as f64);
    layers.insert("sink.emitted", c.emitted as f64);
    layers.insert("sink.dropped", c.dropped as f64);
    layers.insert("sink.quarantined", c.quarantined as f64);
    layers.insert(
        "sink.goodput_ratio",
        if c.ingested > 0 {
            c.emitted as f64 / c.ingested as f64
        } else {
            0.0
        },
    );
    layers.insert("sink.fail_ratio", 1.0 - c.emitted as f64 / offered.max(1.0));
    layers.insert("service.drain_ms", run.m.drain_s * 1e3);
    layers.insert("query.sub_lagged", run.loaded.lagged as f64);
    layers.insert(
        "store.wal_bytes",
        harness::line_value(&run.loaded.store, "wal_bytes ").unwrap_or(0.0),
    );
    layers.insert(
        "store.result_bytes",
        harness::line_value(&run.loaded.store, "result_bytes ").unwrap_or(0.0),
    );
    layers.insert("service.checkpoints", run.checkpoints);
    layers.insert("gen.offered", offered);
    layers.insert("gen.sent", run.m.offer.sent_at_ns.len() as f64);
    if kind != Kind::Backlog {
        let late = stats::sorted(stream::lateness_ms(plan, &run.m.offer));
        layers.insert("gen.late_p99_ms", stats::percentile(&late, 99.0));
        layers.insert("gen.late_max_ms", late.last().copied().unwrap_or(0.0));
    }
    layers.insert("trace.packets", offered);
}

/// `stream_backlog`, traced.
pub fn stream_backlog(
    seed: u64,
    seconds: f64,
    layers: &mut Layers,
    result: &mut RunResult,
) -> Result<(), Error> {
    let plan = Plan::new(Kind::Backlog, seconds / ROUNDS as f64);
    let trace = stream::network(seed, plan.packets);

    // (a) the staged pipeline, single-threaded, every boundary a span
    let staged = staged_pipeline(&trace, layers)?;

    // (c) the workload over TCP with the program's trace sampled 1/1 …
    domo::obs::trace::set_sample_every(Some(1));
    let sampled = server_run(Kind::Backlog, seed, &plan, false, result);
    domo::obs::trace::set_sample_every(None);
    let sampled = sampled?;
    layers::stages(&sampled.loaded.metrics, layers);
    // … and once more unsampled: the gap is what tracing costs.
    let plain = server_run(Kind::Backlog, seed, &plan, true, result)?;
    layers.insert(
        "obs.trace_overhead_pct",
        (plain.recon_per_s - sampled.recon_per_s) / plain.recon_per_s.max(f64::MIN_POSITIVE)
            * 100.0,
    );
    server_counts(Kind::Backlog, &plan, &plain, layers);
    layers.insert("service.checkpoint_ms", plain.loaded.checkpoint_ms);

    // Recovery: reopen the data directory the run left behind.
    if let Some(dir) = &plain.m.data_dir {
        let cfg = SinkConfig {
            store: Some(StoreConfig::at(dir.path())),
            ..SinkConfig::default()
        };
        let t = Instant::now();
        let reopened = SinkService::open(cfg).map_err(io_err("reopen data dir"))?;
        layers.insert("service.recover_ms", t.elapsed().as_secs_f64() * 1e3);
        let recovered = reopened.recovery_report().map_or(0, |r| r.result_records);
        reopened.shutdown();
        result.check(recovered == plain.m.end.emitted, || {
            format!(
                "recovery found {recovered} stored results, the sink had emitted {}",
                plain.m.end.emitted
            )
        });
    }

    // The service's own per-packet time on the same input, against the
    // staged pipeline's layer sum: what the shard workers' wall time
    // holds beyond the layers' busy time is waiting.
    let service_us = 1e6 / plain.recon_per_s.max(f64::MIN_POSITIVE);
    let shards = SinkConfig::default().shards as f64;
    layers.insert("budget.service_us_per_pkt", service_us);
    layers.insert(
        "budget.service_wait_share",
        1.0 - staged.layer_sum_us / (service_us * shards).max(f64::MIN_POSITIVE),
    );
    layers::obs_stamp(layers);
    write_trace("stream_backlog", &staged.tracer, layers)
}

struct Staged {
    tracer: Tracer,
    layer_sum_us: f64,
}

/// The stream path composed from public calls on one thread, in the
/// reactor's batches of 1024.
fn staged_pipeline(trace: &NetworkTrace, layers: &mut Layers) -> Result<Staged, Error> {
    const BATCH: usize = 1024;
    let dir = TempDir::new().map_err(io_err("create store dir"))?;
    let (mut wal, _) =
        Wal::open(dir.path().join("wal"), WalConfig::default()).map_err(io_err("open wal"))?;
    let (mut results, _) =
        ResultStore::open(dir.path().join("results"), ResultStoreConfig::default())
            .map_err(io_err("open result log"))?;
    let hub = SubHub::new();
    let subscriber = hub.subscribe(
        SubFilter::All,
        SubOptions {
            capacity: trace.packets.len().max(1),
            max_lagged: 0,
        },
    );
    let mut agg = AggStore::new(AggConfig::default());
    let mut est = StreamingEstimator::new(EstimatorConfig::default());
    let sanitize = SanitizeConfig::default();
    let mut tracer = Tracer::new();
    let mut flush_ms = Vec::new();
    let (mut solved, mut flushed, mut emitted_total) = (0u64, 0u64, 0u64);
    let mut failure: Option<Error> = None;
    let paths: HashMap<PacketId, &Vec<NodeId>> =
        trace.packets.iter().map(|p| (p.pid, &p.path)).collect();

    tracer.span("pipeline", 0, |t| {
        let batches = trace.packets.chunks(BATCH).chain(std::iter::once(&[][..]));
        for (b, batch) in batches.enumerate() {
            let b = b as u64;
            let last = batch.is_empty();
            t.span("batch", b, |t| {
                let mut ends = Vec::with_capacity(batch.len());
                let bytes = t.span("wire.encode", b, |_| {
                    let mut bytes = Vec::with_capacity(batch.len() * 64);
                    for p in batch {
                        if let Err(e) = wire::encode_packet(p, &mut bytes) {
                            failure.get_or_insert(format!("encode: {e}"));
                        }
                        ends.push(bytes.len());
                    }
                    bytes
                });
                t.count("wire.bytes", bytes.len() as u64);
                let decoded = t.span("wire.split", b, |_| {
                    let mut splitter = FrameSplitter::new();
                    let mut out = Vec::with_capacity(batch.len());
                    for chunk in bytes.chunks(64 * 1024) {
                        splitter.extend(chunk);
                        if let Err(e) = splitter.drain_frames(&mut out) {
                            failure.get_or_insert(format!("split: {e}"));
                        }
                    }
                    out
                });
                t.count("wire.frames", decoded.len() as u64);
                let clean = t.span("core.sanitize", b, |_| {
                    decoded
                        .into_iter()
                        .filter(|p| check_packet(p, &sanitize).is_ok())
                        .collect::<Vec<_>>()
                });
                t.count("core.clean", clean.len() as u64);
                t.span("store.wal_append", b, |_| {
                    let mut from = 0;
                    let frames = ends.iter().map(|&end| {
                        let frame = &bytes[from..end];
                        from = end;
                        frame
                    });
                    if let Some(e) = wal.append_batch(frames).error {
                        failure.get_or_insert(format!("wal append: {e}"));
                    }
                });
                t.count("store.wal_records", ends.len() as u64);
                let emitted = t.span("core.stream_push", b, |_| {
                    let mut emitted = Vec::new();
                    for p in clean {
                        let buffered = est.pending() as u64 + 1;
                        let clock = Instant::now();
                        let out = est.push(p);
                        if !out.is_empty() {
                            flush_ms.push(clock.elapsed().as_secs_f64() * 1e3);
                            solved += buffered;
                            flushed += out.len() as u64;
                            emitted.extend(out);
                        }
                    }
                    if last {
                        emitted.extend(est.finish());
                    }
                    emitted
                });
                emitted_total += emitted.len() as u64;
                t.count("core.emitted", emitted.len() as u64);
                t.span("store.results_append", b, |_| {
                    for r in &emitted {
                        let Some(path) = paths.get(&r.pid) else {
                            continue;
                        };
                        let rec = StoredReconstruction {
                            path: (*path).clone(),
                            hop_times_ms: r.hop_times_ms.clone(),
                        };
                        let payload = encode_result(r.pid, &rec);
                        if let Err(e) = results.append(r.hop_times_ms[0], &payload) {
                            failure.get_or_insert(format!("result append: {e}"));
                        }
                    }
                });
                t.span("query.publish_record", b, |_| {
                    for r in &emitted {
                        let Some(path) = paths.get(&r.pid) else {
                            continue;
                        };
                        let path: Vec<u16> = path.iter().map(|n| n.index() as u16).collect();
                        for (w, &node) in r.hop_times_ms.windows(2).zip(&path) {
                            agg.record(node, w[0], (w[1] - w[0]).max(0.0));
                        }
                        hub.publish(Event {
                            origin: r.pid.origin.index() as u16,
                            seq: r.pid.seq,
                            path,
                            hop_times_ms: r.hop_times_ms.clone(),
                        });
                    }
                });
            });
        }
    });
    drop(subscriber);
    if let Some(e) = failure {
        return Err(format!("staged pipeline: {e}"));
    }
    if emitted_total != trace.packets.len() as u64 {
        return Err(format!(
            "staged pipeline emitted {emitted_total} of {} packets",
            trace.packets.len()
        ));
    }

    let p = trace.packets.len().max(1) as f64;
    let times = tracer.layer_times();
    let wire_us = us_per(times.get("wire.encode"), p) + us_per(times.get("wire.split"), p);
    let sanitize_us = us_per(times.get("core.sanitize"), p);
    let wal_us = us_per(times.get("store.wal_append"), p);
    let stream_us = us_per(times.get("core.stream_push"), p);
    let results_us = us_per(times.get("store.results_append"), p);
    let query_us = us_per(times.get("query.publish_record"), p);
    let layer_sum_us = wire_us + sanitize_us + wal_us + stream_us + results_us + query_us;
    let e2e_us = times
        .get("pipeline")
        .map_or(0.0, |t| t.total_ns as f64 / 1e3 / p);
    layers.insert("budget.wire_us_per_pkt", wire_us);
    layers.insert("budget.sanitize_us_per_pkt", sanitize_us);
    layers.insert("budget.wal_us_per_pkt", wal_us);
    layers.insert("budget.stream_us_per_pkt", stream_us);
    layers.insert("budget.results_us_per_pkt", results_us);
    layers.insert("budget.query_us_per_pkt", query_us);
    layers.insert("budget.layer_sum_us_per_pkt", layer_sum_us);
    layers.insert("budget.e2e_us_per_pkt", e2e_us);
    layers.insert(
        "budget.unattributed_share",
        1.0 - layer_sum_us / e2e_us.max(f64::MIN_POSITIVE),
    );
    let flushes = flush_ms.len();
    let s = stats::summarize(flush_ms, 99.0);
    layers.insert("core.stream_flush_ms_p50", s.p50);
    layers.insert("core.stream_flush_ms_p99", s.tail);
    layers.insert("core.stream_flushes", flushes as f64);
    // Packets entering a flush solve per packet the flush commits:
    // every flush solves the whole buffer and commits its older half.
    layers.insert(
        "core.stream_solved_per_emitted",
        solved as f64 / flushed.max(1) as f64,
    );
    Ok(Staged {
        tracer,
        layer_sum_us,
    })
}

/// `stream_paced`, traced.
pub fn stream_paced(
    seed: u64,
    seconds: f64,
    layers: &mut Layers,
    result: &mut RunResult,
) -> Result<(), Error> {
    let plan = Plan::new(Kind::Paced, seconds / ROUNDS as f64);
    let run = server_run(Kind::Paced, seed, &plan, false, result)?;
    server_counts(Kind::Paced, &plan, &run, layers);
    layers::query(&run.m.trace, layers);
    Ok(())
}

/// `ingest_overload`, traced.
pub fn ingest_overload(
    seed: u64,
    seconds: f64,
    layers: &mut Layers,
    result: &mut RunResult,
) -> Result<(), Error> {
    let plan = Plan::new(Kind::Overload, seconds / ROUNDS as f64);
    let run = server_run(Kind::Overload, seed, &plan, false, result)?;
    server_counts(Kind::Overload, &plan, &run, layers);

    // The admission path layer by layer, on a slice the probes can
    // afford to repeat.
    let trace = &run.m.trace;
    let slice = &trace.packets[..trace.packets.len().min(8192)];
    layers::wire(slice, layers)?;
    layers::sanitize(slice, layers);
    layers::service_ingest(slice, layers)?;
    layers::store_write(slice, trace, layers)?;
    reactor_flood(slice, layers)
}

/// `reactor`: frames flooded over TCP into a store-less sink whose
/// small queues shed instead of solving — the read, split and submit
/// path alone, as fast as the socket delivers.
fn reactor_flood(packets: &[domo::net::CollectedPacket], layers: &mut Layers) -> Result<(), Error> {
    let frames = input::Frames::encode(packets).map_err(|e| format!("encode frames: {e}"))?;
    let sink = harness::Sink::bind_volatile(256)?;
    let mut ingest =
        std::net::TcpStream::connect(sink.ingest_addr()).map_err(io_err("connect ingest port"))?;
    let t0 = Instant::now();
    let sampler = harness::Sampler::start(sink.query()?, t0);
    harness::offer(
        &mut ingest,
        &frames,
        crate::pace::Schedule::Flood,
        t0,
        None,
        None,
    )
    .map_err(io_err("flood"))?;
    let waited = sampler.wait_decided(frames.len() as u64, std::time::Duration::from_secs(60));
    let samples = sampler.finish()?;
    waited?;
    // The first sample at which everything had been read.
    let done_ns = samples
        .iter()
        .find(|s| s.counters.decided() >= frames.len() as u64)
        .map_or(0, |s| s.at_ns);
    drop(ingest);
    let _ = sink.shutdown();
    layers.insert(
        "reactor.flood_volatile_pkts_per_s",
        frames.len() as f64 / (done_ns as f64 / 1e9).max(f64::MIN_POSITIVE),
    );
    Ok(())
}

// ---------------------------------------------------------------------
// query_mix
// ---------------------------------------------------------------------

/// Queries of one kind asked back to back on one connection, per kind.
const QUERIES_PER_KIND: usize = 300;

/// `query_mix`, traced: each command kind on its own, closed loop on
/// one connection, every request a span.
pub fn query_mix(
    seed: u64,
    seconds: f64,
    layers: &mut Layers,
    result: &mut RunResult,
) -> Result<(), Error> {
    let round_s = seconds / ROUNDS as f64;
    let packets = (query::POPULATE_PACKETS_PER_S * round_s).ceil() as usize;
    let mut populated = query::populate(seed, packets)?;
    let mut mix = QueryMix::new(&populated.trace, query::AGG_RETENTION_BUCKETS, seed, 0);
    let mut tracer = Tracer::new();
    let mut failed = 0u64;
    let mut asked = 0u64;
    for (kind, _) in QueryKind::MIX {
        let mut micros = Vec::with_capacity(QUERIES_PER_KIND);
        let mut lines = Vec::with_capacity(QUERIES_PER_KIND);
        let mut failure = None;
        tracer.span(span_name(kind), kind as u64, |t| {
            for i in 0..QUERIES_PER_KIND {
                let line = mix.line(kind);
                let answer = t.span("server.request", i as u64, |_| {
                    query::ask(&mut populated.clients[0], kind, &line)
                });
                match answer {
                    Ok(a) => {
                        asked += 1;
                        failed += u64::from(!a.ok);
                        micros.push(a.micros);
                        lines.push(a.lines as f64);
                    }
                    Err(e) => {
                        failure = Some(e);
                        return;
                    }
                }
            }
            t.count(span_name(kind), QUERIES_PER_KIND as u64);
        });
        if let Some(e) = failure {
            return Err(e);
        }
        layers.insert(server_metric(kind), stats::median(&micros));
        if kind == QueryKind::Range30s {
            layers.insert("server.range30s_lines", stats::median(&lines));
        }
    }
    let _ = query::read_back(0, &mut populated, result)?;
    result.attempted += asked;
    result.failed += failed;
    layers.insert("trace.packets", populated.trace.packets.len() as f64);
    layers::store_read(&populated.trace, layers)?;
    let _ = populated.sink.shutdown();
    write_trace("query_mix", &tracer, layers)
}

fn span_name(kind: QueryKind) -> &'static str {
    match kind {
        QueryKind::Packet => "server.packet",
        QueryKind::Range1s => "server.range1s",
        QueryKind::Range30s => "server.range30s",
        QueryKind::AggRecent => "server.agg_recent",
        QueryKind::AggBackfill => "server.agg_backfill",
        QueryKind::Stats => "server.stats",
        QueryKind::Nodes => "server.nodes",
        QueryKind::Metrics => "server.metrics",
    }
}

fn server_metric(kind: QueryKind) -> &'static str {
    match kind {
        QueryKind::Packet => "server.packet_us",
        QueryKind::Range1s => "server.range1s_us",
        QueryKind::Range30s => "server.range30s_us",
        QueryKind::AggRecent => "server.agg_recent_us",
        QueryKind::AggBackfill => "server.agg_backfill_us",
        QueryKind::Stats => "server.stats_us",
        QueryKind::Nodes => "server.nodes_us",
        QueryKind::Metrics => "server.metrics_us",
    }
}
