//! The per-layer catalogue and the probes that fill it. Layers are the
//! repository's modules; every figure here is a span the benchmark
//! times around a public call, or a count read from a public struct —
//! measured from outside, with no instrumentation added to the program.
//!
//! `--trace 1` prints every metric of the catalogue for every workload.
//! A traced run fills the metrics of the layers its workload exercises
//! (see `README.md` for which); the rest read 0.

use crate::harness::{io_err, Error};
use crate::report::{Better, MetricDef};
use crate::stats;
use crate::sys::TempDir;
use crate::workloads::Layers;
use domo::core::{
    build_constraints, check_packet, propagate, ConstraintOptions, EstimatorConfig, SanitizeConfig,
    TraceView,
};
use domo::linalg::{Cholesky, Matrix};
use domo::net::{CollectedPacket, NetworkTrace};
use domo::query::{AggConfig, AggStore, DelaySketch, Event, SubFilter, SubHub, SubOptions};
use domo::sink::persist::encode_result;
use domo::sink::{wire, FrameSplitter, SinkConfig, SinkService, StoreConfig, StoredReconstruction};
use domo::solver::QpBuilder;
use domo::store::{CheckpointStore, ResultStore, ResultStoreConfig, Wal, WalConfig};
use domo::util::rng::Xoshiro256pp;
use std::hint::black_box;
use std::time::Instant;

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// The ten stages of the program's own packet trace, in pipeline order.
pub const STAGES: [&str; 10] = [
    "reactor_read",
    "batch_submit",
    "wal_append",
    "shard_enqueue",
    "shard_dequeue",
    "flush",
    "window_solve",
    "result_append",
    "publish",
    "subscriber_send",
];

/// Every per-layer metric. Counts have no better direction of their
/// own; they are marked `lower` where fewer means less work for the
/// same output, `higher` where more means more output.
pub const PER_LAYER: [MetricDef; 122] = [
    // wire (domo_sink::wire)
    layer("wire.encode_ns_per_pkt", "ns", Lower),
    layer("wire.decode_ns_per_pkt", "ns", Lower),
    layer("wire.split_ns_per_pkt", "ns", Lower),
    layer("wire.bytes_per_pkt", "B", Lower),
    // reactor (private; seen only over TCP) and the generator facing it
    layer("reactor.flood_volatile_pkts_per_s", "1/s", Higher),
    layer("gen.late_p99_ms", "ms", Lower),
    layer("gen.late_max_ms", "ms", Lower),
    layer("gen.offered", "count", Higher),
    layer("gen.sent", "count", Higher),
    // service (SinkService)
    layer("service.ingest_batch_volatile_ns_per_pkt", "ns", Lower),
    layer("service.ingest_batch_durable_ns_per_pkt", "ns", Lower),
    layer("service.checkpoint_ms", "ms", Lower),
    layer("service.checkpoints", "count", Lower),
    layer("service.recover_ms", "ms", Lower),
    layer("service.drain_ms", "ms", Lower),
    layer("sink.ingested", "count", Higher),
    layer("sink.emitted", "count", Higher),
    layer("sink.dropped", "count", Lower),
    layer("sink.quarantined", "count", Lower),
    layer("sink.goodput_ratio", "ratio", Higher),
    layer("sink.fail_ratio", "ratio", Lower),
    // store (domo_store)
    layer("store.wal_append_batch_ns_per_rec", "ns", Lower),
    layer("store.wal_sync_ms", "ms", Lower),
    layer("store.wal_bytes_per_rec", "B", Lower),
    layer("store.results_append_ns_per_rec", "ns", Lower),
    layer("store.results_range_us_1s", "us", Lower),
    layer("store.results_range_us_30s", "us", Lower),
    layer("store.checkpoint_save_ms", "ms", Lower),
    layer("store.wal_bytes", "B", Lower),
    layer("store.result_bytes", "B", Lower),
    // core (domo_core)
    layer("core.sanitize_ns_per_pkt", "ns", Lower),
    layer("core.view_build_us_per_pkt", "us", Lower),
    layer("core.propagate_us_per_pkt", "us", Lower),
    layer("core.constraints_us_per_pkt", "us", Lower),
    layer("core.estimate_wall_s", "s", Lower),
    layer("core.windows", "count", Lower),
    layer("core.unknowns_per_window", "count", Lower),
    layer("core.nonsolve_share", "ratio", Lower),
    layer("core.stream_flush_ms_p50", "ms", Lower),
    layer("core.stream_flush_ms_p99", "ms", Lower),
    layer("core.stream_flushes", "count", Lower),
    layer("core.stream_solved_per_emitted", "ratio", Lower),
    layer("core.bounds_ms_per_target", "ms", Lower),
    layer("core.bound_width_mean_ms", "ms", Lower),
    layer("core.bound_coverage", "ratio", Higher),
    layer("core.unsolved_windows", "count", Lower),
    layer("core.relaxed_retries", "count", Lower),
    // solver (domo_solver)
    layer("solver.solve_time_s", "s", Lower),
    layer("solver.iterations_total", "count", Lower),
    layer("solver.iters_per_window", "count", Lower),
    layer("solver.us_per_iter", "us", Lower),
    layer("solver.share_of_estimate", "ratio", Lower),
    layer("solver.window_qp_ms_n64", "ms", Lower),
    layer("solver.window_qp_ms_n160", "ms", Lower),
    layer("solver.window_qp_unknowns_n64", "count", Lower),
    layer("solver.window_qp_unknowns_n160", "count", Lower),
    layer("solver.lp_ms_per_bound", "ms", Lower),
    // linalg (domo_linalg)
    layer("linalg.cholesky_factor_us_n64", "us", Lower),
    layer("linalg.cholesky_factor_us_n160", "us", Lower),
    layer("linalg.cholesky_solve_us_n64", "us", Lower),
    layer("linalg.cholesky_solve_us_n160", "us", Lower),
    // graph (domo_graph)
    layer("graph.extract_ball_us", "us", Lower),
    layer("graph.blp_refine_us", "us", Lower),
    // query (domo_query)
    layer("query.publish_ns_per_event_1sub", "ns", Lower),
    layer("query.publish_ns_per_event_8sub", "ns", Lower),
    layer("query.agg_record_ns", "ns", Lower),
    layer("query.agg_query_us", "us", Lower),
    layer("query.sketch_merge_ns", "ns", Lower),
    layer("query.sub_lagged", "count", Lower),
    // server (domo_sink::server), per command kind over TCP
    layer("server.packet_us", "us", Lower),
    layer("server.range1s_us", "us", Lower),
    layer("server.range30s_us", "us", Lower),
    layer("server.agg_recent_us", "us", Lower),
    layer("server.agg_backfill_us", "us", Lower),
    layer("server.stats_us", "us", Lower),
    layer("server.nodes_us", "us", Lower),
    layer("server.metrics_us", "us", Lower),
    layer("server.range30s_lines", "count", Lower),
    // obs (domo_obs)
    layer("obs.stamp_disabled_ns", "ns", Lower),
    layer("obs.trace_overhead_pct", "%", Lower),
    // net (domo_net)
    layer("net.sim_pkts_per_s", "1/s", Higher),
    // stage: the program's own exported histograms, read over METRICS
    layer("stage.reactor_read_p50_us", "us", Lower),
    layer("stage.reactor_read_share", "ratio", Lower),
    layer("stage.batch_submit_p50_us", "us", Lower),
    layer("stage.batch_submit_share", "ratio", Lower),
    layer("stage.wal_append_p50_us", "us", Lower),
    layer("stage.wal_append_share", "ratio", Lower),
    layer("stage.shard_enqueue_p50_us", "us", Lower),
    layer("stage.shard_enqueue_share", "ratio", Lower),
    layer("stage.shard_dequeue_p50_us", "us", Lower),
    layer("stage.shard_dequeue_share", "ratio", Lower),
    layer("stage.flush_p50_us", "us", Lower),
    layer("stage.flush_share", "ratio", Lower),
    layer("stage.window_solve_p50_us", "us", Lower),
    layer("stage.window_solve_share", "ratio", Lower),
    layer("stage.result_append_p50_us", "us", Lower),
    layer("stage.result_append_share", "ratio", Lower),
    layer("stage.publish_p50_us", "us", Lower),
    layer("stage.publish_share", "ratio", Lower),
    layer("stage.subscriber_send_p50_us", "us", Lower),
    layer("stage.subscriber_send_share", "ratio", Lower),
    // budget: the staged pipeline's layer self times against its wall
    layer("budget.wire_us_per_pkt", "us", Lower),
    layer("budget.sanitize_us_per_pkt", "us", Lower),
    layer("budget.wal_us_per_pkt", "us", Lower),
    layer("budget.stream_us_per_pkt", "us", Lower),
    layer("budget.results_us_per_pkt", "us", Lower),
    layer("budget.query_us_per_pkt", "us", Lower),
    layer("budget.layer_sum_us_per_pkt", "us", Lower),
    layer("budget.e2e_us_per_pkt", "us", Lower),
    layer("budget.unattributed_share", "ratio", Lower),
    // budget of the offline job, same rule
    layer("budget.offline_view_us_per_pkt", "us", Lower),
    layer("budget.offline_propagate_us_per_pkt", "us", Lower),
    layer("budget.offline_constraints_us_per_pkt", "us", Lower),
    layer("budget.offline_estimate_us_per_pkt", "us", Lower),
    layer("budget.offline_bounds_us_per_pkt", "us", Lower),
    layer("budget.offline_layer_sum_us_per_pkt", "us", Lower),
    layer("budget.offline_e2e_us_per_pkt", "us", Lower),
    layer("budget.offline_unattributed_share", "ratio", Lower),
    // the service's own per-packet time on the same input, for scale
    layer("budget.service_us_per_pkt", "us", Lower),
    layer("budget.service_wait_share", "ratio", Lower),
    // traced-run bookkeeping
    layer("trace.spans", "count", Lower),
    layer("trace.packets", "count", Higher),
];

/// Repetitions of a timed batch; the median is kept.
const REPS: usize = 7;

/// Median wall nanoseconds of `reps` runs of `f`.
fn median_ns<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_nanos() as f64
        })
        .collect();
    stats::median(&samples)
}

/// `wire`: encode, one-shot decode, and the reactor's incremental
/// splitter fed 64 KiB chunks.
pub fn wire(packets: &[CollectedPacket], layers: &mut Layers) -> Result<(), Error> {
    let n = packets.len().max(1) as f64;
    let mut bytes = Vec::with_capacity(packets.len() * 64);
    let encode = median_ns(REPS, || {
        bytes.clear();
        for p in packets {
            let _ = wire::encode_packet(p, &mut bytes);
        }
        bytes.len()
    });
    let decode = median_ns(REPS, || {
        let mut at = 0;
        let mut decoded = 0usize;
        while at < bytes.len() {
            match wire::decode_packet(&bytes[at..]) {
                Ok((p, used)) => {
                    black_box(p);
                    at += used;
                    decoded += 1;
                }
                Err(_) => break,
            }
        }
        decoded
    });
    let mut out = Vec::with_capacity(packets.len());
    let mut split_ok = true;
    let split = median_ns(REPS, || {
        let mut splitter = FrameSplitter::new();
        out.clear();
        for chunk in bytes.chunks(64 * 1024) {
            splitter.extend(chunk);
            split_ok &= splitter.drain_frames(&mut out).is_ok();
        }
        out.len()
    });
    if !split_ok || out.as_slice() != packets {
        return Err("wire probe: frames did not round-trip through the splitter".to_string());
    }
    layers.insert("wire.encode_ns_per_pkt", encode / n);
    layers.insert("wire.decode_ns_per_pkt", decode / n);
    layers.insert("wire.split_ns_per_pkt", split / n);
    layers.insert("wire.bytes_per_pkt", bytes.len() as f64 / n);
    Ok(())
}

/// Queue bound of the probes that time the submit path: small, so the
/// shards shed instead of solving and the probe ends when ingest does.
const SHED_QUEUE: usize = 256;
/// Batch size of the in-process ingest probes, the reactor's own.
const INGEST_BATCH: usize = 1024;

/// `service`: `ingest_batch` in-process, volatile and durable, in
/// batches of 1024. The durable figure includes the WAL append and the
/// checkpoint barriers the appends trigger.
pub fn service_ingest(packets: &[CollectedPacket], layers: &mut Layers) -> Result<(), Error> {
    let n = packets.len().max(1) as f64;
    let time_ingest = |service: &SinkService| {
        let t = Instant::now();
        for batch in packets.chunks(INGEST_BATCH) {
            black_box(service.ingest_batch(batch));
        }
        t.elapsed().as_nanos() as f64
    };
    let cfg = SinkConfig {
        queue_capacity: SHED_QUEUE,
        ..SinkConfig::default()
    };
    let volatile = SinkService::start(cfg.clone());
    layers.insert(
        "service.ingest_batch_volatile_ns_per_pkt",
        time_ingest(&volatile) / n,
    );
    volatile.shutdown();

    let dir = TempDir::new().map_err(io_err("create data dir"))?;
    let durable = SinkService::open(SinkConfig {
        store: Some(StoreConfig::at(dir.path())),
        ..cfg
    })
    .map_err(io_err("open durable service"))?;
    layers.insert(
        "service.ingest_batch_durable_ns_per_pkt",
        time_ingest(&durable) / n,
    );
    durable.shutdown();
    Ok(())
}

/// `store`, write side: WAL append and sync at the product's
/// `interval:64`, result log append, and an atomic checkpoint save.
pub fn store_write(
    packets: &[CollectedPacket],
    trace: &NetworkTrace,
    layers: &mut Layers,
) -> Result<(), Error> {
    let n = packets.len().max(1) as f64;
    let dir = TempDir::new().map_err(io_err("create store dir"))?;

    let mut frames: Vec<Vec<u8>> = Vec::with_capacity(packets.len());
    for p in packets {
        let mut f = Vec::new();
        wire::encode_packet(p, &mut f).map_err(|e| format!("encode frame: {e}"))?;
        frames.push(f);
    }
    let (mut wal, _) =
        Wal::open(dir.path().join("wal"), WalConfig::default()).map_err(io_err("open wal"))?;
    let t = Instant::now();
    for batch in frames.chunks(INGEST_BATCH) {
        let outcome = wal.append_batch(batch.iter().map(Vec::as_slice));
        if let Some(e) = outcome.error {
            return Err(format!("wal append: {e}"));
        }
    }
    layers.insert(
        "store.wal_append_batch_ns_per_rec",
        t.elapsed().as_nanos() as f64 / n,
    );
    layers.insert("store.wal_bytes_per_rec", wal.stats().bytes as f64 / n);
    let mut syncs = Vec::with_capacity(REPS);
    for frame in frames.iter().take(REPS) {
        wal.append(frame).map_err(io_err("wal append"))?;
        let t = Instant::now();
        wal.sync().map_err(io_err("wal sync"))?;
        syncs.push(t.elapsed().as_secs_f64() * 1e3);
    }
    layers.insert("store.wal_sync_ms", stats::median(&syncs));

    let payloads = result_payloads(packets, trace);
    let (mut results, _) =
        ResultStore::open(dir.path().join("results"), ResultStoreConfig::default())
            .map_err(io_err("open result log"))?;
    let t = Instant::now();
    for (t_ms, payload) in &payloads {
        results
            .append(*t_ms, payload)
            .map_err(io_err("result append"))?;
    }
    layers.insert(
        "store.results_append_ns_per_rec",
        t.elapsed().as_nanos() as f64 / payloads.len().max(1) as f64,
    );

    let ckpt =
        CheckpointStore::open(dir.path().join("ckpt")).map_err(io_err("open checkpoints"))?;
    // About what a loaded sink's checkpoint weighs: the dedup set, two
    // shard buffers and the aggregation sketches.
    let payload = vec![0x5au8; 256 * 1024];
    let mut saves = Vec::with_capacity(REPS);
    for lsn in 0..REPS as u64 {
        let t = Instant::now();
        ckpt.save(lsn + 1, &payload)
            .map_err(io_err("checkpoint save"))?;
        saves.push(t.elapsed().as_secs_f64() * 1e3);
    }
    layers.insert("store.checkpoint_save_ms", stats::median(&saves));
    Ok(())
}

/// Result payloads as the sink writes them, keyed by generation time;
/// the true arrival times stand in for estimates (the log does not
/// care which they are).
fn result_payloads(packets: &[CollectedPacket], trace: &NetworkTrace) -> Vec<(f64, Vec<u8>)> {
    packets
        .iter()
        .filter_map(|p| {
            let truth = trace.truth(p.pid)?;
            let rec = StoredReconstruction {
                path: p.path.clone(),
                hop_times_ms: truth.iter().map(|t| t.as_millis_f64()).collect(),
            };
            Some((rec.hop_times_ms[0], encode_result(p.pid, &rec)))
        })
        .collect()
}

/// `store`, read side: time-indexed range reads of 1 s and 30 s of
/// network time over a result log holding the whole trace.
pub fn store_read(trace: &NetworkTrace, layers: &mut Layers) -> Result<(), Error> {
    let dir = TempDir::new().map_err(io_err("create store dir"))?;
    let payloads = result_payloads(&trace.packets, trace);
    let (mut results, _) =
        ResultStore::open(dir.path().join("results"), ResultStoreConfig::default())
            .map_err(io_err("open result log"))?;
    for (t_ms, payload) in &payloads {
        results
            .append(*t_ms, payload)
            .map_err(io_err("result append"))?;
    }
    results.sync().map_err(io_err("result sync"))?;
    let (lo, hi) = payloads
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), (t, _)| {
            (lo.min(*t), hi.max(*t))
        });
    let mut rng = Xoshiro256pp::seed_from_u64(trace.seed);
    for (name, width) in [
        ("store.results_range_us_1s", 1_000.0),
        ("store.results_range_us_30s", 30_000.0),
    ] {
        let mut samples = Vec::new();
        for _ in 0..40 {
            let start = if hi - width > lo {
                rng.range_f64(lo..hi - width)
            } else {
                lo
            };
            let t = Instant::now();
            black_box(
                results
                    .range(start, start + width)
                    .map_err(io_err("result range"))?,
            );
            samples.push(t.elapsed().as_secs_f64() * 1e6);
        }
        layers.insert(name, stats::median(&samples));
    }
    Ok(())
}

/// `core` on the ingest side: the sanitizer's per-record check.
pub fn sanitize(packets: &[CollectedPacket], layers: &mut Layers) {
    let cfg = SanitizeConfig::default();
    let ns = median_ns(REPS, || {
        packets
            .iter()
            .filter(|p| check_packet(p, &cfg).is_ok())
            .count()
    });
    layers.insert("core.sanitize_ns_per_pkt", ns / packets.len().max(1) as f64);
}

/// The events and sojourn samples a trace's reconstructions would
/// produce, with true arrival times standing in for estimates.
fn events_of(trace: &NetworkTrace) -> Vec<Event> {
    trace
        .packets
        .iter()
        .filter_map(|p| {
            let truth = trace.truth(p.pid)?;
            Some(Event {
                origin: p.pid.origin.index() as u16,
                seq: p.pid.seq,
                path: p.path.iter().map(|n| n.index() as u16).collect(),
                hop_times_ms: truth.iter().map(|t| t.as_millis_f64()).collect(),
            })
        })
        .collect()
}

/// `query`: fan-out to one and to eight subscribers, sketch recording,
/// bucketed sketch queries and sketch merges.
pub fn query(trace: &NetworkTrace, layers: &mut Layers) {
    let events = events_of(trace);
    let n = events.len().max(1) as f64;
    for (name, subs) in [
        ("query.publish_ns_per_event_1sub", 1usize),
        ("query.publish_ns_per_event_8sub", 8),
    ] {
        let runs: Vec<f64> = (0..3)
            .map(|_| {
                let hub = SubHub::new();
                // Deep enough that nothing lags: the probe times
                // delivery, not shedding.
                let opts = SubOptions {
                    capacity: events.len().max(1),
                    max_lagged: 0,
                };
                let held: Vec<_> = (0..subs)
                    .map(|_| hub.subscribe(SubFilter::All, opts))
                    .collect();
                let t = Instant::now();
                for ev in &events {
                    black_box(hub.publish(ev.clone()));
                }
                let ns = t.elapsed().as_nanos() as f64;
                drop(held);
                ns
            })
            .collect();
        layers.insert(name, stats::median(&runs) / n);
    }

    let samples: Vec<(u16, f64, f64)> = events
        .iter()
        .flat_map(|ev| {
            ev.hop_times_ms
                .windows(2)
                .zip(&ev.path)
                .map(|(w, &node)| (node, w[0], (w[1] - w[0]).max(0.0)))
        })
        .collect();
    let mut agg = AggStore::new(AggConfig::default());
    let t = Instant::now();
    for &(node, t_ms, delay) in &samples {
        agg.record(node, t_ms, delay);
    }
    layers.insert(
        "query.agg_record_ns",
        t.elapsed().as_nanos() as f64 / samples.len().max(1) as f64,
    );
    let newest = samples.iter().map(|s| s.1).fold(0.0, f64::max);
    let mut nodes: Vec<u16> = samples.iter().map(|s| s.0).collect();
    nodes.sort_unstable();
    nodes.dedup();
    let mut rng = Xoshiro256pp::seed_from_u64(trace.seed ^ 0xa66);
    let mut query_us = Vec::new();
    for _ in 0..200 {
        let node = nodes[rng.range_usize(0..nodes.len())];
        let start = (newest - 60_000.0).max(0.0);
        let t = Instant::now();
        black_box(
            agg.query_sketches(node, start, start + 30_000.0, 1_000)
                .ok(),
        );
        query_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    layers.insert("query.agg_query_us", stats::median(&query_us));

    let (mut a, mut b) = (DelaySketch::new(), DelaySketch::new());
    for (i, s) in samples.iter().enumerate() {
        if i % 2 == 0 {
            a.record(s.2);
        } else {
            b.record(s.2);
        }
    }
    let merge = median_ns(REPS, || {
        for _ in 0..1000 {
            let mut m = a.clone();
            m.merge(black_box(&b));
            black_box(m);
        }
    });
    layers.insert("query.sketch_merge_ns", merge / 1000.0);
}

/// `obs`: what a stage stamp costs every packet while tracing is off.
pub fn obs_stamp(layers: &mut Layers) {
    domo::obs::trace::set_sample_every(None);
    const CALLS: u32 = 1_000_000;
    let ns = median_ns(REPS, || {
        for seq in 0..CALLS {
            domo::obs::trace::stamp(black_box(7), black_box(seq), domo::obs::trace::Stage::Flush);
        }
    });
    layers.insert("obs.stamp_disabled_ns", ns / f64::from(CALLS));
}

/// `linalg`: dense Cholesky factor and solve on SPD matrices with the
/// KKT shape the window solve factors, `P + σI + ρ·AᵀA` with `A`
/// holding a few entries per row near the diagonal (order rows touch 2
/// unknowns, FIFO rows 4, sum rows a candidate set).
pub fn linalg(layers: &mut Layers) {
    for (n, factor_name, solve_name) in [
        (
            64usize,
            "linalg.cholesky_factor_us_n64",
            "linalg.cholesky_solve_us_n64",
        ),
        (
            160,
            "linalg.cholesky_factor_us_n160",
            "linalg.cholesky_solve_us_n160",
        ),
    ] {
        let k = kkt_matrix(n);
        let factor = median_ns(21, || Cholesky::factor(black_box(&k)).is_ok());
        layers.insert(factor_name, factor / 1e3);
        if let Ok(chol) = Cholesky::factor(&k) {
            let rhs: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
            let solve = median_ns(21, || chol.solve(black_box(&rhs)));
            layers.insert(solve_name, solve / 1e3);
        }
    }
}

fn kkt_matrix(n: usize) -> Matrix {
    let mut rng = Xoshiro256pp::seed_from_u64(n as u64);
    let mut k = vec![0.0; n * n];
    for i in 0..n {
        // σ + anchor weight + ρ for the unknown's own box row
        k[i * n + i] = 1e-6 + 1e-4 + 0.1;
    }
    // 3n rows of 2–4 entries within a band of 12 around the diagonal.
    for r in 0..3 * n {
        let centre = r % n;
        let width = 2 + r % 3;
        let row: Vec<(usize, f64)> = (0..width)
            .map(|_| {
                let j = (centre + rng.range_usize(0..12)).min(n - 1);
                (j, if rng.bernoulli(0.5) { 1.0 } else { -1.0 })
            })
            .collect();
        for &(a, ca) in &row {
            for &(b, cb) in &row {
                k[a * n + b] += 0.1 * ca * cb; // ρ = 0.1
            }
        }
    }
    Matrix::from_vec(n, n, k)
}

/// The variance objective of one window (paper Eq. 8): one squared
/// delay difference per close-in-time pair at each shared forwarder —
/// the estimator's own rule, restated over the public view API.
fn variance_terms(view: &TraceView, cfg: &EstimatorConfig) -> Vec<domo::core::expr::LinExpr> {
    let mut terms = Vec::new();
    for node in view.forwarding_nodes().collect::<Vec<_>>() {
        let mut entries: Vec<(usize, usize)> = view.passthroughs(node).to_vec();
        entries.sort_by_key(|&(p, _)| (view.packet(p).gen_time, view.packet(p).pid));
        for (i, &(pi, hi)) in entries.iter().enumerate() {
            let gen_i = TraceView::ms(view.packet(pi).gen_time);
            for &(pj, hj) in entries.iter().skip(i + 1).take(cfg.pairs_per_packet) {
                if (TraceView::ms(view.packet(pj).gen_time) - gen_i).abs() > cfg.epsilon_ms {
                    break;
                }
                let diff = view.delay_expr(pi, hi).sub(&view.delay_expr(pj, hj));
                if !diff.is_empty() {
                    terms.push(diff);
                }
            }
        }
    }
    terms
}

/// `solver`: one representative window — the middle `window_packets`
/// packets of `packets` — lowered to the QP the estimator builds for it
/// (boxes, constraint rows, anchors, variance objective) with the public
/// lowering API, and timed through `try_solve`. Returns `(ms, unknowns)`.
pub fn window_qp(packets: &[CollectedPacket]) -> Option<(f64, usize)> {
    let cfg = EstimatorConfig::default();
    let w = cfg.window_packets.min(packets.len());
    let start = (packets.len() - w) / 2;
    let view = TraceView::new(packets[start..start + w].to_vec());
    let opts: &ConstraintOptions = &cfg.constraints;
    let intervals = propagate(&view, opts.omega_ms, opts.propagation_rounds);
    let all: Vec<usize> = (0..view.num_packets()).collect();
    let system = build_constraints(&view, &all, &intervals, opts);
    let vars: Vec<usize> = (0..view.num_vars()).collect();
    let t_ref = view
        .packets()
        .iter()
        .map(|p| TraceView::ms(p.gen_time))
        .fold(f64::INFINITY, f64::min);
    let local = domo::core::lowering::LocalProblem::new(&vars, t_ref);
    let objective = variance_terms(&view, &cfg);
    let build = || {
        let mut b = QpBuilder::new(local.num_vars());
        local.add_boxes(&mut b, &intervals);
        for row in &system.rows {
            // The view holds the window alone, so every row lies inside it.
            local.add_row(&mut b, row);
        }
        for lv in 0..local.num_vars() {
            let g = local.global(lv);
            let anchor = domo::core::expr::LinExpr::var(g).sub(
                &domo::core::expr::LinExpr::constant_of(intervals.midpoint(g)),
            );
            local.add_square(&mut b, &anchor, cfg.anchor_weight);
        }
        for expr in &objective {
            local.add_square(&mut b, expr, 1.0);
        }
        b.build().ok()
    };
    let problem = build()?;
    let mut solved = true;
    let ns = median_ns(5, || {
        solved &= domo::solver::try_solve(black_box(&problem), &cfg.solver).is_ok();
    });
    solved.then_some((ns / 1e6, view.num_vars()))
}

/// `graph`: sub-graph extraction and balanced-label-propagation
/// refinement on the bound solver's constraint graph, at its default
/// cut size, over `targets`.
pub fn graph(view: &TraceView, targets: &[usize], layers: &mut Layers) {
    let cfg = domo::core::BoundsConfig::default();
    let opts = &cfg.constraints;
    let intervals = propagate(view, opts.omega_ms, opts.propagation_rounds);
    let all: Vec<usize> = (0..view.num_packets()).collect();
    let system = build_constraints(view, &all, &intervals, opts);
    let g = domo::core::bounds::constraint_graph(view.num_vars(), &system);
    let (mut extract_us, mut refine_us) = (Vec::new(), Vec::new());
    for &t in targets {
        let clock = Instant::now();
        let mut sub = domo::graph::extract_ball(&g, t, cfg.graph_cut_size);
        extract_us.push(clock.elapsed().as_secs_f64() * 1e6);
        let clock = Instant::now();
        black_box(domo::graph::refine(
            &g,
            &mut sub,
            &domo::graph::BlpOptions::default(),
        ));
        refine_us.push(clock.elapsed().as_secs_f64() * 1e6);
    }
    layers.insert("graph.extract_ball_us", stats::median(&extract_us));
    layers.insert("graph.blp_refine_us", stats::median(&refine_us));
}

/// One stage of the program's exported trace histogram.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StageHistogram {
    /// `(upper bound in seconds, cumulative count)`, ascending.
    pub buckets: Vec<(f64, u64)>,
    /// Sum of observations, s.
    pub sum_s: f64,
    /// Observations.
    pub count: u64,
}

impl StageHistogram {
    /// Median in seconds, interpolated inside its bucket as
    /// Prometheus' `histogram_quantile` does.
    pub fn p50_s(&self) -> f64 {
        let half = self.count as f64 / 2.0;
        let mut prev = (0.0, 0u64);
        for &(le, cum) in &self.buckets {
            if cum as f64 >= half && cum > prev.1 {
                if !le.is_finite() {
                    return prev.0;
                }
                let inside = (half - prev.1 as f64) / (cum - prev.1) as f64;
                return prev.0 + (le - prev.0) * inside;
            }
            prev = (if le.is_finite() { le } else { prev.0 }, cum);
        }
        0.0
    }
}

/// Parses the `domo_trace_stage_seconds{stage=…}` family out of a
/// `METRICS` reply (Prometheus text).
pub fn parse_stage_histograms(
    lines: &[String],
) -> std::collections::BTreeMap<String, StageHistogram> {
    let mut out: std::collections::BTreeMap<String, StageHistogram> = Default::default();
    for line in lines {
        let Some(rest) = line.strip_prefix("domo_trace_stage_seconds") else {
            continue;
        };
        let Some((series, value)) = rest.rsplit_once(' ') else {
            continue;
        };
        let label = |key: &str| -> Option<&str> {
            let at = series.find(&format!("{key}=\""))? + key.len() + 2;
            let len = series[at..].find('"')?;
            Some(&series[at..at + len])
        };
        let Some(stage) = label("stage") else {
            continue;
        };
        let h = out.entry(stage.to_string()).or_default();
        if series.starts_with("_bucket") {
            let le = match label("le") {
                Some("+Inf") => Some(f64::INFINITY),
                Some(v) => v.parse().ok(),
                None => None,
            };
            if let (Some(le), Ok(cum)) = (le, value.parse::<u64>()) {
                h.buckets.push((le, cum));
            }
        } else if series.starts_with("_sum") {
            h.sum_s = value.parse().unwrap_or(0.0);
        } else if series.starts_with("_count") {
            h.count = value.parse().unwrap_or(0);
        }
    }
    for h in out.values_mut() {
        h.buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
    }
    out
}

/// Fills `stage.<name>_p50_us` and `stage.<name>_share` (the stage's
/// share of all stage time) from a `METRICS` reply.
pub fn stages(metrics_reply: &[String], layers: &mut Layers) {
    let hist = parse_stage_histograms(metrics_reply);
    let total: f64 = STAGES
        .iter()
        .filter_map(|s| hist.get(*s))
        .map(|h| h.sum_s)
        .sum();
    for def in PER_LAYER.iter().filter(|m| m.name.starts_with("stage.")) {
        let rest = &def.name["stage.".len()..];
        let (stage, value) = if let Some(stage) = rest.strip_suffix("_p50_us") {
            (stage, hist.get(stage).map_or(0.0, |h| h.p50_s() * 1e6))
        } else if let Some(stage) = rest.strip_suffix("_share") {
            let sum = hist.get(stage).map_or(0.0, |h| h.sum_s);
            (stage, if total > 0.0 { sum / total } else { 0.0 })
        } else {
            continue;
        };
        debug_assert!(STAGES.contains(&stage));
        layers.insert(def.name, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_histograms_parse_and_interpolate() {
        let reply: Vec<String> = [
            "# TYPE domo_trace_stage_seconds histogram",
            "domo_trace_stage_seconds_bucket{stage=\"flush\",le=\"0.001\"} 0",
            "domo_trace_stage_seconds_bucket{stage=\"flush\",le=\"0.0025\"} 10",
            "domo_trace_stage_seconds_bucket{stage=\"flush\",le=\"0.005\"} 40",
            "domo_trace_stage_seconds_bucket{stage=\"flush\",le=\"+Inf\"} 40",
            "domo_trace_stage_seconds_sum{stage=\"flush\"} 0.12",
            "domo_trace_stage_seconds_count{stage=\"flush\"} 40",
            "domo_trace_stage_seconds_bucket{stage=\"publish\",le=\"0.001\"} 4",
            "domo_trace_stage_seconds_bucket{stage=\"publish\",le=\"+Inf\"} 4",
            "domo_trace_stage_seconds_sum{stage=\"publish\"} 0.04",
            "domo_trace_stage_seconds_count{stage=\"publish\"} 4",
            "domo_sink_emitted_total 40",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let h = parse_stage_histograms(&reply);
        assert_eq!(h.len(), 2);
        assert_eq!(h["flush"].count, 40);
        // rank 20 lies a third of the way through the (0.0025, 0.005] bucket
        assert!((h["flush"].p50_s() - (0.0025 + 0.0025 / 3.0)).abs() < 1e-12);
        assert!((h["publish"].p50_s() - 0.0005).abs() < 1e-12);

        let mut layers = Layers::new();
        stages(&reply, &mut layers);
        assert_eq!(layers.len(), 2 * STAGES.len());
        assert!((layers["stage.flush_share"] - 0.75).abs() < 1e-12);
        assert!((layers["stage.publish_share"] - 0.25).abs() < 1e-12);
        assert_eq!(layers["stage.window_solve_p50_us"], 0.0);
    }

    #[test]
    fn every_stage_has_its_two_metrics() {
        for stage in STAGES {
            for suffix in ["p50_us", "share"] {
                let name = format!("stage.{stage}_{suffix}");
                assert!(PER_LAYER.iter().any(|m| m.name == name), "{name}");
            }
        }
    }

    #[test]
    fn the_kkt_probe_matrix_is_positive_definite() {
        for n in [64, 160] {
            assert!(Cholesky::factor(&kkt_matrix(n)).is_ok(), "n = {n}");
        }
    }
}
