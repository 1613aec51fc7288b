//! `domo-sink` — run, feed, and probe the online sink service.
//!
//! ```text
//! domo-sink serve      [--ingest-port P] [--query-port Q] [--shards N]
//!                      [--queue-cap C] [--high-water H] [--threads T]
//!                      [--data-dir D] [--fsync always|interval[:N]|never]
//!                      [--checkpoint-every K] [--max-result-segments M]
//!                      [--addr-file PATH] [--idle-timeout SECS]
//!                      [--on-store-error fail|degrade|drop-durability]
//!                      [--probe-every N] [--store-faults SPEC]
//!                      [--chaos-panic SHARD:AFTER] [--max-conns M]
//!                      [--tenant-quota N] [--cluster-role NAME]
//! domo-sink replay     --ingest ADDR[,ADDR...] [--query HOST:PORT]
//!                      [--members A,B,C] [--nodes N] [--seed S]
//!                      [--rate PPS] [--garbage G] [--drain]
//!                      [--reconnects R]
//! domo-sink route      --members A,B,C [--ingest-port P]
//!                      [--addr-file PATH] [--reconnects R]
//! domo-sink cluster    --members Q1,Q2,Q3 [--exec "STATS"]
//!                      (--exec also takes "RANGE <lo> <hi>" and
//!                       "AGG <node> <start> <end> <bucket>")
//! domo-sink smoke      [--nodes N] [--seed S] [--shards K]
//! domo-sink crashsmoke [--nodes N] [--seed S] [--shards K] [--data-dir D]
//! domo-sink bench      [--nodes N] [--seed S] [--packets P] [--out PATH]
//!                      [--baseline PATH]
//! domo-sink tail       --query HOST:PORT [--node N | --path SRC:DST]
//!                      [--agg BUCKET_MS] [--replay] [--jsonl]
//!                      [--max-events N] [--reconnects R]
//! domo-sink subsmoke   [--nodes N] [--seed S] [--shards K]
//! domo-sink connsoak   [--conns C] [--packets P] [--shards K]
//!                      [--nodes N] [--seed S]
//! ```
//!
//! The cluster trio (DESIGN.md §17): `serve --cluster-role member`
//! labels a sink as one shard of a multi-process deployment (and
//! `--tenant-quota` caps every tenant namespace's accepted records);
//! `replay --ingest A,B,C` falls back round-robin across the listed
//! sinks when one dies, while `replay --members A,B,C` *routes* — an
//! embedded consistent-hash router sends every record to the member
//! owning its `(tenant, subtree-root)` key, with reconnect, failover,
//! and spool replay; `route` runs the same router as a standalone
//! wire-level relay (accept a v1/v2 ingest stream, fan frames out to
//! the owning members); `cluster` scatter-gathers a STATS / RANGE /
//! AGG query across every member's query port and prints the merged
//! reply (AGG merges the underlying sketches loss-free via `PARTS`).
//!
//! `serve` runs the service until killed; with `--data-dir` every
//! ingested record is journaled to a WAL and reconstructions land in a
//! durable result log, so a restart recovers exactly where the previous
//! process died (`--fsync` picks the durability/throughput trade-off;
//! `--addr-file` writes the two bound addresses to a file, one per
//! line, for scripts that bind port 0). `replay` simulates a trace and
//! streams it to a running service, surviving `--reconnects R` sink
//! restarts with capped exponential backoff. `smoke` is the
//! self-contained end-to-end check used by `scripts/check.sh`: it binds
//! loopback ports, replays a small trace (plus deliberate garbage),
//! drains, queries a snapshot, and exits nonzero unless every delivered
//! packet was reconstructed and the garbage was counted (`--max-conns`
//! caps live connections per listener; the excess is shed with
//! `domo_sink_shed_total{reason="overcap"}`). `crashsmoke`
//! is the crash-recovery gate: it spawns a durable `serve` child,
//! replays half a trace, SIGKILLs the child mid-ingest, respawns it on
//! the same data dir, replays the full trace, and exits nonzero unless
//! the recovered state matches an uninterrupted in-process run
//! packet-for-packet with no double-emitted results. `bench` measures
//! codec and steady-state batched-ingest throughput over a synthesized
//! `--packets`-sized workload (a warmup slice is ingested untimed) and
//! writes the numbers to `BENCH_sink.json` (override with `--out`);
//! with `--baseline PATH` it fails if any shard count's steady
//! throughput regresses more than 20% against the recorded numbers.
//! `connsoak` is the high-concurrency gate: it holds `--conns`
//! simultaneous ingest connections open against one in-process server,
//! requires exact `emitted + dropped == ingested` accounting, then
//! re-binds with a tiny cap and requires the overflow to be shed with
//! the typed overcap counter.
//!
//! `tail` follows a running sink's `SUBSCRIBE` push stream: raw
//! `packet` lines (or `bucket` aggregate lines with `--agg`), printed
//! as-is or as JSON Lines with `--jsonl`, surviving `--reconnects R`
//! sink restarts by re-subscribing with `REPLAY` and deduplicating
//! packet ids. `subsmoke` is the live-query acceptance gate used by
//! `scripts/check.sh`: against a durable in-process sink it checks
//! that a live subscriber sees exactly the emitted set (no gaps, no
//! duplicates) across a forced CHECKPOINT, that a NODE-filtered
//! subscriber sees exactly the matching subset, that a
//! disconnect-then-`REPLAY` reconnect stays exactly-once after
//! client-side dedup, and that AGG percentiles stay within the
//! sketch's documented relative error bound against an offline exact
//! computation.
//!
//! The chaos-injection flags exist for soak testing (`domo-exp chaos`
//! drives them): `--store-faults` arms a seeded fault window inside the
//! storage I/O layer (`key=value` pairs: `seed`, `eio`, `enospc`,
//! `torn`, `fsync`, `stall`, `stall_ms` as probabilities/millis, plus
//! `after`/`for` bounding the op window), `--chaos-panic SHARD:AFTER`
//! kills one shard worker after it consumes AFTER packets, and
//! `--on-store-error` picks the degradation policy. `--idle-timeout`
//! (default 60 s, `0` disables) sheds silent or wedged connections on
//! both listeners. `serve` exits nonzero if the service ever reaches
//! the `failed` health state.
//!
//! Operational messages are structured events on stderr (JSON lines),
//! filterable with `DOMO_LOG` (e.g. `DOMO_LOG=warn` or
//! `DOMO_LOG=off`); command *results* (smoke/bench summaries, queried
//! stats) stay on stdout. Live metrics are scrapeable from the query
//! port: `echo METRICS | nc HOST QUERY_PORT`.

use domo_net::{run_simulation, CollectedPacket, NetworkConfig};
use domo_sink::client::{
    await_range, parse_stats, query_request, reference_lines, replay_packets, replay_packets_multi,
    stat, tail_events, QueryClient, ReplayOptions, ServeChild, TailOptions,
};
use domo_sink::route::{
    cluster_agg, cluster_range, cluster_stats, route_connection, route_packets, GatherReport,
    RouteOptions, Router,
};
use domo_sink::server::SinkServer;
use domo_sink::service::{SinkConfig, SinkHealth, SinkService};
use domo_sink::wire::{decode_packets, encode_packets};
use domo_sink::{StoreConfig, StoreErrorPolicy};
use domo_store::{FaultPlan, FsyncPolicy};
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

struct Flags {
    ingest_port: u16,
    query_port: u16,
    shards: usize,
    queue_cap: usize,
    high_water: Option<usize>,
    threads: usize,
    ingest: Option<String>,
    query: Option<String>,
    nodes: usize,
    seed: u64,
    rate: f64,
    garbage: usize,
    drain: bool,
    out: String,
    data_dir: Option<String>,
    fsync: FsyncPolicy,
    checkpoint_every: u64,
    max_result_segments: usize,
    addr_file: Option<String>,
    reconnects: usize,
    on_store_error: StoreErrorPolicy,
    probe_every: u64,
    store_faults: Option<FaultPlan>,
    idle_timeout_secs: u64,
    chaos_panic: Option<(usize, u64)>,
    node: Option<u16>,
    path_filter: Option<(u16, u16)>,
    agg_bucket: Option<u64>,
    sub_replay: bool,
    jsonl: bool,
    max_events: u64,
    max_conns: usize,
    conns: usize,
    packets: usize,
    baseline: Option<String>,
    members: Option<String>,
    exec: String,
    tenant_quota: Option<u64>,
    cluster_role: Option<String>,
}

impl Default for Flags {
    fn default() -> Self {
        Self {
            ingest_port: 7401,
            query_port: 7402,
            shards: 2,
            queue_cap: 4096,
            high_water: None,
            threads: 1,
            ingest: None,
            query: None,
            nodes: 9,
            seed: 1,
            rate: 0.0,
            garbage: 0,
            drain: false,
            out: "BENCH_sink.json".into(),
            data_dir: None,
            fsync: FsyncPolicy::Interval(64),
            checkpoint_every: 4096,
            max_result_segments: 0,
            addr_file: None,
            reconnects: 0,
            on_store_error: StoreErrorPolicy::Degrade,
            probe_every: 256,
            store_faults: None,
            idle_timeout_secs: 60,
            chaos_panic: None,
            node: None,
            path_filter: None,
            agg_bucket: None,
            sub_replay: false,
            jsonl: false,
            max_events: 0,
            max_conns: 4096,
            conns: 1100,
            packets: 100_000,
            baseline: None,
            members: None,
            exec: "STATS".into(),
            tenant_quota: None,
            cluster_role: None,
        }
    }
}

/// Parses a `--store-faults` spec: comma-separated `key=value` pairs
/// over [`FaultPlan`]'s fields (`seed`, `eio`, `enospc`, `torn`,
/// `fsync`, `stall`, `stall_ms`, `after`, `for`).
fn parse_fault_plan(spec: &str) -> Result<FaultPlan, String> {
    let mut plan = FaultPlan::default();
    for pair in spec.split(',').filter(|p| !p.is_empty()) {
        let (key, value) = pair
            .split_once('=')
            .ok_or_else(|| format!("--store-faults: `{pair}` is not key=value"))?;
        let fnum = || -> Result<f64, String> {
            value
                .parse()
                .map_err(|e| format!("--store-faults {key}: {e}"))
        };
        let unum = || -> Result<u64, String> {
            value
                .parse()
                .map_err(|e| format!("--store-faults {key}: {e}"))
        };
        match key {
            "seed" => plan.seed = unum()?,
            "eio" => plan.eio = fnum()?,
            "enospc" => plan.enospc = fnum()?,
            "torn" => plan.torn = fnum()?,
            "fsync" => plan.fsync = fnum()?,
            "stall" => plan.stall = fnum()?,
            "stall_ms" => plan.stall_ms = unum()?,
            "after" => plan.after_ops = unum()?,
            "for" => plan.for_ops = unum()?,
            other => return Err(format!("--store-faults: unknown key `{other}`")),
        }
    }
    Ok(plan)
}

/// Parses `--chaos-panic SHARD:AFTER`.
fn parse_chaos_panic(spec: &str) -> Result<(usize, u64), String> {
    let (shard, after) = spec
        .split_once(':')
        .ok_or_else(|| format!("--chaos-panic: `{spec}` is not SHARD:AFTER"))?;
    Ok((
        shard
            .parse()
            .map_err(|e| format!("--chaos-panic shard: {e}"))?,
        after
            .parse()
            .map_err(|e| format!("--chaos-panic after: {e}"))?,
    ))
}

fn parse_flags(argv: &[String]) -> Result<Flags, String> {
    let mut f = Flags::default();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--drain" {
            f.drain = true;
            continue;
        }
        if flag == "--replay" {
            f.sub_replay = true;
            continue;
        }
        if flag == "--jsonl" {
            f.jsonl = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        let num = |name: &str| -> Result<u64, String> {
            value.parse().map_err(|e| format!("{name}: {e}"))
        };
        match flag.as_str() {
            "--ingest-port" => f.ingest_port = num(flag)? as u16,
            "--query-port" => f.query_port = num(flag)? as u16,
            "--shards" => f.shards = num(flag)? as usize,
            "--queue-cap" => f.queue_cap = num(flag)? as usize,
            "--high-water" => f.high_water = Some(num(flag)? as usize),
            "--threads" => f.threads = num(flag)? as usize,
            "--nodes" => f.nodes = num(flag)? as usize,
            "--seed" => f.seed = num(flag)?,
            "--garbage" => f.garbage = num(flag)? as usize,
            "--rate" => f.rate = value.parse().map_err(|e| format!("--rate: {e}"))?,
            "--ingest" => f.ingest = Some(value.clone()),
            "--query" => f.query = Some(value.clone()),
            "--out" => f.out = value.clone(),
            "--data-dir" => f.data_dir = Some(value.clone()),
            "--fsync" => {
                f.fsync = FsyncPolicy::parse(value).map_err(|e| format!("--fsync: {e}"))?
            }
            "--checkpoint-every" => f.checkpoint_every = num(flag)?,
            "--max-result-segments" => f.max_result_segments = num(flag)? as usize,
            "--addr-file" => f.addr_file = Some(value.clone()),
            "--reconnects" => f.reconnects = num(flag)? as usize,
            "--on-store-error" => {
                f.on_store_error =
                    StoreErrorPolicy::parse(value).map_err(|e| format!("--on-store-error: {e}"))?
            }
            "--probe-every" => f.probe_every = num(flag)?,
            "--store-faults" => f.store_faults = Some(parse_fault_plan(value)?),
            "--idle-timeout" => f.idle_timeout_secs = num(flag)?,
            "--chaos-panic" => f.chaos_panic = Some(parse_chaos_panic(value)?),
            "--node" => f.node = Some(num(flag)? as u16),
            "--path" => {
                let (src, dst) = value
                    .split_once(':')
                    .ok_or_else(|| format!("--path: `{value}` is not SRC:DST"))?;
                f.path_filter = Some((
                    src.parse().map_err(|e| format!("--path src: {e}"))?,
                    dst.parse().map_err(|e| format!("--path dst: {e}"))?,
                ));
            }
            "--agg" => f.agg_bucket = Some(num(flag)?),
            "--max-events" => f.max_events = num(flag)?,
            "--max-conns" => f.max_conns = num(flag)? as usize,
            "--conns" => f.conns = num(flag)? as usize,
            "--packets" => f.packets = num(flag)? as usize,
            "--baseline" => f.baseline = Some(value.clone()),
            "--members" => f.members = Some(value.clone()),
            "--exec" => f.exec = value.clone(),
            "--tenant-quota" => f.tenant_quota = Some(num(flag)?),
            "--cluster-role" => f.cluster_role = Some(value.clone()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(f)
}

fn sink_config(f: &Flags) -> SinkConfig {
    let idle = (f.idle_timeout_secs > 0).then(|| Duration::from_secs(f.idle_timeout_secs));
    let mut cfg = SinkConfig {
        shards: f.shards,
        queue_capacity: f.queue_cap,
        high_water: f.high_water,
        store: f.data_dir.as_ref().map(|dir| StoreConfig {
            data_dir: dir.into(),
            fsync: f.fsync,
            checkpoint_every: f.checkpoint_every,
            max_result_segments: f.max_result_segments,
            on_error: f.on_store_error,
            probe_every: f.probe_every,
            faults: f.store_faults,
        }),
        ingest_idle_timeout: idle,
        query_idle_timeout: idle,
        max_conns: f.max_conns,
        tenant_quota: f.tenant_quota,
        ..SinkConfig::default()
    };
    if let Some(role) = f.cluster_role.as_deref() {
        cfg.cluster_role = role.to_string();
    }
    // Solver threads *within* each shard's estimator (shards already
    // run concurrently with each other).
    cfg.estimator.threads = f.threads.max(1);
    cfg
}

fn serve(f: &Flags) -> Result<(), String> {
    let server = SinkServer::bind(
        ("0.0.0.0", f.ingest_port),
        ("0.0.0.0", f.query_port),
        sink_config(f),
    )
    .map_err(|e| format!("bind: {e}"))?;
    if let Some(path) = f.addr_file.as_deref() {
        // Written atomically (tmp + rename) so a polling script never
        // reads a half-written file.
        let tmp = format!("{path}.tmp");
        std::fs::write(
            &tmp,
            format!("{}\n{}\n", server.ingest_addr(), server.query_addr()),
        )
        .and_then(|()| std::fs::rename(&tmp, path))
        .map_err(|e| format!("addr-file {path}: {e}"))?;
    }
    if let Some((shard, after)) = f.chaos_panic {
        server.service().chaos_panic_shard(shard, after);
        domo_obs::warn!(
            target: "domo_sink",
            "chaos panic armed",
            shard = shard,
            after = after,
        );
    }
    domo_obs::info!(
        target: "domo_sink",
        "serving; ^C to stop",
        ingest = server.ingest_addr().to_string(),
        query = server.query_addr().to_string(),
        shards = f.shards,
        durable = f.data_dir.is_some(),
    );
    // Watch the health state machine: `failed` is terminal (the
    // operator chose --on-store-error fail), so exit nonzero rather
    // than serve a sink whose durability contract is void.
    loop {
        std::thread::park_timeout(Duration::from_secs(1));
        if server.service().health() == SinkHealth::Failed {
            return Err("store failed and --on-store-error is `fail`; exiting".into());
        }
    }
}

/// Splits a comma-separated address list, dropping empty entries.
fn split_list(spec: &str) -> Vec<String> {
    spec.split(',')
        .map(str::trim)
        .filter(|t| !t.is_empty())
        .map(String::from)
        .collect()
}

fn replay(f: &Flags) -> Result<(), String> {
    let trace = run_simulation(&NetworkConfig::small(f.nodes, f.seed));
    domo_obs::info!(
        target: "domo_sink",
        "replaying simulated trace",
        packets = trace.packets.len(),
        nodes = f.nodes,
        seed = f.seed,
    );
    if let Some(members) = f.members.as_deref() {
        // Cluster mode: an embedded consistent-hash router sends each
        // record to the member owning its (tenant, subtree-root) key.
        let report = route_packets(
            split_list(members),
            &trace.packets,
            RouteOptions {
                max_reconnects: f.reconnects.max(1),
                ..RouteOptions::default()
            },
        )
        .map_err(|e| format!("route: {e}"))?;
        domo_obs::info!(
            target: "domo_sink",
            "replay routed",
            forwarded = report.forwarded,
            rerouted = report.rerouted,
            bytes = report.bytes,
            reconnects = report.reconnects,
            failovers = report.failovers,
            spool_dropped = report.spool_dropped,
        );
    } else {
        // Plain mode: one sink (or a comma-separated fallback list the
        // client walks round-robin when a connection dies).
        let addrs = split_list(
            f.ingest
                .as_deref()
                .ok_or("replay needs --ingest ADDR[,ADDR...] (or --members A,B,C)")?,
        );
        let report = replay_packets_multi(
            &addrs,
            &trace.packets,
            &ReplayOptions {
                rate_pps: f.rate,
                garbage_frames: f.garbage,
                max_reconnects: f.reconnects,
                ..ReplayOptions::default()
            },
        )
        .map_err(|e| format!("replay: {e}"))?;
        domo_obs::info!(
            target: "domo_sink",
            "replay sent",
            frames = report.frames,
            bytes = report.bytes,
            seconds = report.seconds,
            pkts_per_sec = report.frames as f64 / report.seconds.max(1e-9),
        );
    }
    if let Some(query) = f.query.as_deref() {
        let mut q = QueryClient::connect(query).map_err(|e| format!("query connect: {e}"))?;
        if f.drain {
            q.request("DRAIN").map_err(|e| format!("drain: {e}"))?;
        }
        let stats = q.request("STATS").map_err(|e| format!("stats: {e}"))?;
        for line in stats {
            println!("domo-sink: {line}");
        }
    }
    Ok(())
}

/// Standalone cluster relay: accepts v1/v2 ingest streams and fans
/// every decoded frame out to the member owning its
/// `(tenant, subtree-root)` key, surviving member deaths by failover
/// and spool replay (DESIGN.md §17.3). Runs until killed.
fn route(f: &Flags) -> Result<(), String> {
    let members = split_list(
        f.members
            .as_deref()
            .ok_or("route needs --members A,B,C (ingest addresses)")?,
    );
    let listener = std::net::TcpListener::bind(("0.0.0.0", f.ingest_port))
        .map_err(|e| format!("bind: {e}"))?;
    let local = listener.local_addr().map_err(|e| format!("addr: {e}"))?;
    if let Some(path) = f.addr_file.as_deref() {
        // Same atomic write the serve path uses; one line, the relay
        // has no query port of its own.
        let tmp = format!("{path}.tmp");
        std::fs::write(&tmp, format!("{local}\n"))
            .and_then(|()| std::fs::rename(&tmp, path))
            .map_err(|e| format!("addr-file {path}: {e}"))?;
    }
    let mut router = Router::new(
        members.iter().cloned(),
        RouteOptions {
            max_reconnects: f.reconnects.max(3),
            ..RouteOptions::default()
        },
    )
    .map_err(|e| format!("router: {e}"))?;
    domo_obs::info!(
        target: "domo_sink",
        "routing; ^C to stop",
        ingest = local.to_string(),
        members = members.join(","),
    );
    loop {
        let (stream, peer) = listener.accept().map_err(|e| format!("accept: {e}"))?;
        let routed =
            route_connection(stream, &mut router).map_err(|e| format!("cluster unusable: {e}"))?;
        domo_obs::info!(
            target: "domo_sink",
            "connection drained",
            peer = peer.to_string(),
            routed = routed,
            live_members = router.live_members().len(),
        );
    }
}

/// Prints which members a scatter-gather query reached.
fn print_gather(report: &GatherReport) {
    println!(
        "cluster: reached {} member(s){}",
        report.reached.len(),
        if report.missed.is_empty() {
            String::new()
        } else {
            format!(", missed {}", report.missed.join(","))
        }
    );
}

/// Scatter-gather query mode: fans one STATS / RANGE / AGG query
/// across every member's query port and prints the merged reply
/// (DESIGN.md §17.4).
fn cluster(f: &Flags) -> Result<(), String> {
    let members = split_list(
        f.members
            .as_deref()
            .ok_or("cluster needs --members Q1,Q2,Q3 (query addresses)")?,
    );
    let fields: Vec<&str> = f.exec.split_whitespace().collect();
    let farg = |i: usize, name: &str| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("--exec {}: bad or missing {name}", f.exec))
    };
    match fields.first().copied() {
        Some("STATS") | None => {
            let (stats, report) = cluster_stats(&members).map_err(|e| format!("stats: {e}"))?;
            for (name, value) in &stats {
                println!("{name} {value}");
            }
            print_gather(&report);
        }
        Some("RANGE") => {
            let (lo, hi) = (farg(1, "lo_ms")?, farg(2, "hi_ms")?);
            let (lines, report) =
                cluster_range(&members, lo, hi).map_err(|e| format!("range: {e}"))?;
            for line in &lines {
                println!("{line}");
            }
            println!("count {}", lines.len());
            print_gather(&report);
        }
        Some("AGG") => {
            let node = farg(1, "node")? as u16;
            let (start, end) = (farg(2, "start_ms")?, farg(3, "end_ms")?);
            let bucket = farg(4, "bucket_ms")? as u64;
            let (buckets, report) =
                cluster_agg(&members, node, start, end, bucket).map_err(|e| format!("agg: {e}"))?;
            for b in &buckets {
                // Same line shape the single-sink AGG reply uses.
                println!(
                    "bucket {} count {} mean {:.3} p50 {:.3} p95 {:.3} p99 {:.3} max {:.3}",
                    b.start_ms, b.count, b.mean, b.p50, b.p95, b.p99, b.max
                );
            }
            println!("count {}", buckets.len());
            print_gather(&report);
        }
        Some(other) => {
            return Err(format!(
                "--exec: unknown query `{other}` (STATS, RANGE <lo> <hi>, \
                 AGG <node> <start> <end> <bucket>)"
            ));
        }
    }
    Ok(())
}

fn smoke(f: &Flags) -> Result<(), String> {
    // Sample every packet so the end-to-end TRACE check below always
    // has a journey to show. Must happen before the replay: the first
    // stamp (reactor_read) fires at frame-decode time.
    domo_obs::trace::set_sample_every(Some(1));
    let server = SinkServer::bind("127.0.0.1:0", "127.0.0.1:0", sink_config(f))
        .map_err(|e| format!("bind: {e}"))?;
    let trace = run_simulation(&NetworkConfig::small(f.nodes, f.seed));
    let delivered = trace.packets.len();
    if delivered == 0 {
        return Err("simulated trace delivered nothing".into());
    }
    println!(
        "smoke: serving on {} / {}, replaying {} packets + garbage",
        server.ingest_addr(),
        server.query_addr(),
        delivered
    );
    let report = replay_packets(
        server.ingest_addr(),
        &trace.packets,
        &ReplayOptions {
            rate_pps: f.rate,
            garbage_frames: 3,
            ..ReplayOptions::default()
        },
    )
    .map_err(|e| format!("replay: {e}"))?;
    if report.frames != delivered {
        return Err(format!(
            "sent {} frames, expected {delivered}",
            report.frames
        ));
    }

    // The replay connection is closed; wait for the handler to drain it.
    let mut q =
        QueryClient::connect(server.query_addr()).map_err(|e| format!("query connect: {e}"))?;
    q.wait_stats(Duration::from_secs(60), |s| {
        stat(s, "ingested") == delivered as u64 && stat(s, "malformed_frames") >= 1
    })
    .map_err(|e| format!("ingest: {e}"))?;
    q.request("DRAIN").map_err(|e| format!("drain: {e}"))?;
    let stats = parse_stats(&q.request("STATS").map_err(|e| format!("stats: {e}"))?);
    let emitted = stat(&stats, "emitted");
    println!(
        "smoke: ingested {} emitted {} malformed {} quarantined {} dropped {}",
        stat(&stats, "ingested"),
        emitted,
        stat(&stats, "malformed_frames"),
        stat(&stats, "quarantined"),
        stat(&stats, "backpressure_dropped"),
    );
    if emitted == 0 {
        return Err("no reconstructions emitted".into());
    }
    if emitted + stat(&stats, "backpressure_dropped") != delivered as u64 {
        return Err(format!(
            "accounting broken: emitted {emitted} + dropped {} != delivered {delivered}",
            stat(&stats, "backpressure_dropped")
        ));
    }
    // A concrete per-packet lookup must answer.
    let pid = trace.packets[0].pid;
    let lines = q
        .request(&format!("PACKET {} {}", pid.origin.index(), pid.seq))
        .map_err(|e| format!("packet query: {e}"))?;
    if !lines.first().is_some_and(|l| l.starts_with("packet ")) {
        return Err(format!("per-packet lookup failed: {lines:?}"));
    }
    let nodes = q.request("NODES").map_err(|e| format!("nodes: {e}"))?;
    if nodes.is_empty() {
        return Err("no per-node summaries".into());
    }
    // The acceptance bar for the observability layer: a METRICS scrape
    // after live traffic must expose telemetry from every pipeline
    // layer (solver, estimator, streaming, sink).
    let metrics = q.request("METRICS").map_err(|e| format!("metrics: {e}"))?;
    for family in [
        "# TYPE domo_solver_iterations histogram",
        "# TYPE domo_estimator_window_solve_seconds histogram",
        "# TYPE domo_streaming_flush_packets histogram",
        "# TYPE domo_sink_queue_depth gauge",
        "# TYPE domo_sink_ingested_total counter",
        "# TYPE domo_sink_malformed_frames_total counter",
        "# TYPE domo_sink_degraded gauge",
        "# TYPE domo_sink_degraded_total counter",
        "# TYPE domo_store_io_faults_total counter",
        "# TYPE domo_store_io_faults_armed gauge",
    ] {
        if !metrics.iter().any(|l| l == family) {
            return Err(format!("METRICS scrape is missing `{family}`"));
        }
    }
    println!("smoke: METRICS exposes {} lines", metrics.len());
    // Every pipeline stage must export its own latency series once the
    // trace sampler has seen traffic.
    for stage in domo_obs::trace::Stage::ALL {
        let needle = format!(
            "domo_trace_stage_seconds_count{{stage=\"{}\"}}",
            stage.name()
        );
        if !metrics.iter().any(|l| l.starts_with(&needle)) {
            return Err(format!(
                "METRICS is missing the `{}` stage series",
                stage.name()
            ));
        }
    }
    // METRICS JSON carries the histogram bucket bounds so downstream
    // consumers can rebuild the distributions without hardcoding them.
    let json = q
        .request("METRICS JSON")
        .map_err(|e| format!("metrics json: {e}"))?;
    if !json.iter().any(|l| l.contains("\"bounds\":[0.000001,")) {
        return Err("METRICS JSON is missing histogram `bounds`".into());
    }
    // A sampled packet's journey must cover the pipeline end to end, in
    // stage order (volatile smoke: no wal_append, no subscribers).
    let lines = q
        .request(&format!("TRACE {} {}", pid.origin.index(), pid.seq))
        .map_err(|e| format!("trace query: {e}"))?;
    let stage_lines: Vec<&String> = lines.iter().filter(|l| l.starts_with("stage ")).collect();
    if stage_lines.len() < 6 {
        return Err(format!(
            "TRACE shows {} stages, want >=6: {lines:?}",
            stage_lines.len()
        ));
    }
    let catalog: Vec<&str> = domo_obs::trace::Stage::ALL
        .iter()
        .map(|s| s.name())
        .collect();
    let mut last = 0usize;
    for line in &stage_lines {
        let name = line.split_whitespace().nth(1).unwrap_or("");
        let idx = catalog
            .iter()
            .position(|c| *c == name)
            .ok_or_else(|| format!("TRACE reports unknown stage `{name}`"))?;
        if idx < last {
            return Err(format!("TRACE stages out of pipeline order: {lines:?}"));
        }
        last = idx;
    }
    println!("smoke: TRACE shows {} pipeline stages", stage_lines.len());
    // A plain-HTTP scraper can pull the same metrics off the query port.
    {
        use std::io::{Read, Write};
        let mut conn = std::net::TcpStream::connect(server.query_addr())
            .map_err(|e| format!("http connect: {e}"))?;
        conn.write_all(b"GET /metrics HTTP/1.1\r\nHost: sink\r\n\r\n")
            .map_err(|e| format!("http send: {e}"))?;
        let mut resp = String::new();
        conn.read_to_string(&mut resp)
            .map_err(|e| format!("http read: {e}"))?;
        if !resp.starts_with("HTTP/1.1 200 OK\r\n") || !resp.contains("# TYPE ") {
            return Err(format!(
                "GET /metrics returned an unexpected response: {}",
                resp.lines().next().unwrap_or("<empty>")
            ));
        }
        println!("smoke: GET /metrics served {} bytes", resp.len());
    }
    server.shutdown();
    println!("smoke: OK");
    Ok(())
}

/// Spawns this binary's `serve` as a durable child (tight fsync and
/// checkpoint cadences, so a SIGKILL lands between both).
fn spawn_durable_serve(
    data_dir: &str,
    shards: usize,
    addr_file: &std::path::Path,
) -> Result<ServeChild, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let shards = shards.to_string();
    let extra = [
        "--shards",
        shards.as_str(),
        "--data-dir",
        data_dir,
        "--fsync",
        "interval:8",
        "--checkpoint-every",
        "32",
    ];
    ServeChild::spawn(&exe, addr_file, &extra).map_err(|e| format!("spawn serve: {e}"))
}

/// The crash-recovery acceptance gate: SIGKILL a durable sink
/// mid-ingest, restart it on the same data dir, and require the final
/// queryable state to match an uninterrupted in-process run exactly.
fn crashsmoke(f: &Flags) -> Result<(), String> {
    let trace = run_simulation(&NetworkConfig::small(f.nodes, f.seed));
    let total = trace.packets.len();
    if total < 4 {
        return Err("trace too small for a meaningful crash test".into());
    }
    let scratch;
    let data_dir = match f.data_dir.as_deref() {
        Some(d) => d.to_string(),
        None => {
            scratch = std::env::temp_dir().join(format!("domo-crashsmoke-{}", std::process::id()));
            scratch.display().to_string()
        }
    };
    let _ = std::fs::remove_dir_all(&data_dir);
    let addr_file =
        std::env::temp_dir().join(format!("domo-crashsmoke-addr-{}", std::process::id()));

    // Phase 1: serve, ingest half the trace, and SIGKILL the process
    // once the half is acknowledged in STATS — the WAL holds it, the
    // result log and checkpoints hold whatever the shards got to.
    let mut child = spawn_durable_serve(&data_dir, f.shards, &addr_file)?;
    let (ingest, query) = (child.ingest.clone(), child.query.clone());
    let half = total / 2;
    println!("crashsmoke: phase 1 serving at {ingest} / {query}, replaying {half}/{total} packets");
    replay_packets(
        &ingest as &str,
        &trace.packets[..half],
        &ReplayOptions {
            max_reconnects: 4,
            ..ReplayOptions::default()
        },
    )
    .map_err(|e| format!("phase-1 replay: {e}"))?;
    let mut q = QueryClient::connect(&query as &str).map_err(|e| format!("phase-1 query: {e}"))?;
    q.wait_stats(Duration::from_secs(60), |s| {
        stat(s, "ingested") >= half as u64
    })
    .map_err(|e| format!("phase-1 ingest: {e}"))?;
    child.kill().map_err(|e| format!("kill: {e}"))?;
    println!("crashsmoke: SIGKILLed the sink after {half} acknowledged packets");

    // Phase 2: restart on the same data dir. Recovery replays the WAL
    // tail; the full replay then fills in the unsent half (the already
    // durable prefix is deduplicated, never double-stored).
    let mut child = spawn_durable_serve(&data_dir, f.shards, &addr_file)?;
    let (ingest, query) = (child.ingest.clone(), child.query.clone());
    // Counter baseline before the replay: every phase-2 frame lands in
    // exactly one of ingested/quarantined, so the delta reaching the
    // trace size means the socket is fully consumed.
    let base = parse_stats(
        &query_request(&query as &str, "STATS").map_err(|e| format!("base stats: {e}"))?,
    );
    let base_seen = stat(&base, "ingested") + stat(&base, "quarantined");
    replay_packets(
        &ingest as &str,
        &trace.packets,
        &ReplayOptions {
            max_reconnects: 4,
            ..ReplayOptions::default()
        },
    )
    .map_err(|e| format!("phase-2 replay: {e}"))?;
    // Wait for ingest to finish before the first DRAIN: draining while
    // frames are still in flight would flush the estimator mid-stream,
    // legitimately changing window boundaries (and thus estimates)
    // relative to the uninterrupted reference.
    let mut q = QueryClient::connect(&query as &str).map_err(|e| format!("phase-2 query: {e}"))?;
    q.wait_stats(Duration::from_secs(60), |s| {
        stat(s, "ingested") + stat(s, "quarantined") >= base_seen + total as u64
    })
    .map_err(|e| format!("phase-2 ingest: {e}"))?;

    // Uninterrupted reference with the same shard layout: identical
    // per-shard ingest order makes the estimates bit-identical, so the
    // %.3f-formatted query lines must match verbatim.
    let expected = reference_lines(
        SinkConfig {
            shards: f.shards,
            ..SinkConfig::default()
        },
        &trace.packets,
    )?;

    // Drain and poll until every packet is durably queryable, then
    // require the recovered state to equal the clean run's.
    await_range(&query, &["DRAIN"], &expected, Duration::from_secs(60))
        .map_err(|e| format!("recovery vs clean run: {e}"))?;
    // Spot-check the PACKET command path against the same truth.
    let pid = trace.packets[total - 1].pid;
    let lines = query_request(
        &query as &str,
        &format!("PACKET {} {}", pid.origin.index(), pid.seq),
    )
    .map_err(|e| format!("packet query: {e}"))?;
    if lines.first().map(String::as_str)
        != expected.iter().find_map(|l| {
            l.starts_with(&format!("packet {pid} path "))
                .then_some(l.as_str())
        })
    {
        return Err(format!("PACKET after recovery diverges: {lines:?}"));
    }
    // The durability posture must be visible to operators.
    let stats = query_request(&query as &str, "STATS").map_err(|e| format!("stats: {e}"))?;
    if !stats.iter().any(|l| l.starts_with("data_dir ")) {
        return Err("STATS does not report data_dir".into());
    }
    let store =
        query_request(&query as &str, "STORE STATS").map_err(|e| format!("store stats: {e}"))?;
    println!("crashsmoke: recovered {total}/{total} packets bit-identically");
    for line in store.iter().filter(|l| l.starts_with("recovery_")) {
        println!("crashsmoke: {line}");
    }
    child.kill().map_err(|e| format!("kill: {e}"))?;
    let _ = std::fs::remove_dir_all(&data_dir);
    let _ = std::fs::remove_file(&addr_file);
    println!("crashsmoke: OK");
    Ok(())
}

/// Mean seconds per call of `f`, repeated until the measurement is at
/// least 200 ms long (and at least 3 iterations).
fn time_per_iter(mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut iters = 0u32;
    while iters < 3 || start.elapsed() < Duration::from_millis(200) {
        f();
        iters += 1;
    }
    start.elapsed().as_secs_f64() / f64::from(iters)
}

/// Replicates a simulated trace time-shifted until it holds at least
/// `target` packets. Each replica round advances every timestamp by
/// the base trace's full span (timestamps stay monotone, sanitize
/// passes) and offsets every sequence number past the round before it
/// (pids stay unique, dedup never fires), so the workload measures
/// steady-state ingest rather than the 176-packet setup transient the
/// old bench timed.
fn synthesize_workload(base: &[CollectedPacket], target: usize) -> Vec<CollectedPacket> {
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

/// Pulls `(shards, steady_pkts_per_sec)` rows out of a previously
/// written bench JSON (hand-rolled like the writer — no parser dep).
fn baseline_steady_rows(text: &str) -> Vec<(usize, f64)> {
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
    while let Some((at, shards)) = number_after(&text[cursor..], "\"shards\":") {
        let from = cursor + at;
        if let Some((_, v)) = number_after(&text[from..], "\"steady_pkts_per_sec\":") {
            rows.push((shards as usize, v));
        }
        cursor = from + 1;
    }
    rows
}

/// Packets handed to `ingest_batch` per call during the bench — the
/// reactor's own cap is larger; this matches a realistic sweep burst.
const BENCH_BATCH: usize = 512;

/// Full ingest passes per shard count; the fastest is reported.
const BENCH_REPS: usize = 5;

fn bench(f: &Flags) -> Result<(), String> {
    let trace = run_simulation(&NetworkConfig::small(f.nodes, f.seed));
    if trace.packets.is_empty() {
        return Err("simulated trace delivered nothing".into());
    }
    let workload = synthesize_workload(&trace.packets, f.packets.max(trace.packets.len()));
    let warmup = (workload.len() / 10).min(8_192);
    let steady = &workload[warmup..];
    let n = steady.len() as f64;
    let bytes = encode_packets(&workload).map_err(|e| format!("encode: {e}"))?;

    let encode_s = time_per_iter(|| {
        let _ = encode_packets(&workload);
    }) / workload.len() as f64;
    let decode_s = time_per_iter(|| {
        let _ = decode_packets(&bytes);
    }) / workload.len() as f64;
    println!(
        "bench: {} packets ({} warmup) / {} wire bytes; encode {:.0} pkt/s, decode {:.0} pkt/s",
        workload.len(),
        warmup,
        bytes.len(),
        1.0 / encode_s,
        1.0 / decode_s
    );

    let mut rows = Vec::new();
    let mut steady_by_shards = Vec::new();
    for shards in [1usize, 2, 4] {
        // Best of BENCH_REPS full passes: a single ~100 ms window on a
        // loaded box is dominated by scheduler interference from the
        // shard workers, so the least-preempted pass is the one that
        // measures the submit path.
        let mut best: Option<(f64, f64, u64, u64)> = None;
        for _rep in 0..BENCH_REPS {
            let service = SinkService::start(SinkConfig {
                shards,
                ..SinkConfig::default()
            });
            // Warmup fills the shard queues and faults in every lazy
            // metric so the timed window measures steady state only.
            for chunk in workload[..warmup].chunks(BENCH_BATCH) {
                service.ingest_batch(chunk);
            }
            // The reactor hands the service freshly decoded *owned*
            // batches; pre-materialize the same shape so the timed
            // window measures the submit path, not a benchmark-only
            // clone.
            let owned: Vec<Vec<CollectedPacket>> = steady
                .chunks(BENCH_BATCH)
                .map(<[CollectedPacket]>::to_vec)
                .collect();
            let start = Instant::now();
            for chunk in owned {
                service.ingest_batch_owned(chunk);
            }
            let seconds = start.elapsed().as_secs_f64();
            service.drain();
            let stats = service.stats();
            service.shutdown();
            if stats.ingested != workload.len() as u64 {
                return Err(format!(
                    "bench lost packets: ingested {} of {}",
                    stats.ingested,
                    workload.len()
                ));
            }
            if stats.emitted + stats.backpressure_dropped != stats.ingested {
                return Err(format!(
                    "accounting broken at {shards} shard(s): emitted {} + dropped {} \
                     != ingested {}",
                    stats.emitted, stats.backpressure_dropped, stats.ingested
                ));
            }
            let pps = n / seconds;
            if best.is_none_or(|(b, _, _, _)| pps > b) {
                best = Some((pps, seconds, stats.emitted, stats.backpressure_dropped));
            }
        }
        let (steady_pps, seconds, emitted, dropped) = best.ok_or("no bench repetitions ran")?;
        println!(
            "bench: {shards} shard(s): steady ingest {steady_pps:.0} pkt/s \
             ({emitted} emitted, {dropped} dropped)"
        );
        steady_by_shards.push((shards, steady_pps));
        rows.push(format!(
            "    {{\"shards\": {shards}, \"steady_packets\": {}, \"seconds\": {seconds:.6}, \
             \"steady_pkts_per_sec\": {steady_pps:.1}, \"emitted\": {emitted}, \
             \"dropped\": {dropped}}}",
            steady.len()
        ));
    }

    // The tentpole's acceptance ratio: batched ingest at the widest
    // shard count must reach at least 10% of raw decode throughput.
    let (widest, widest_pps) = *steady_by_shards.last().ok_or("no ingest rows measured")?;
    let ratio = widest_pps * decode_s;
    println!("bench: ingest/decode ratio at {widest} shards: {ratio:.3}");
    if ratio < 0.10 {
        return Err(format!(
            "steady ingest at {widest} shards is {ratio:.3} of decode throughput (< 0.10)"
        ));
    }

    if let Some(path) = f.baseline.as_deref() {
        let text = std::fs::read_to_string(path).map_err(|e| format!("baseline {path}: {e}"))?;
        let old = baseline_steady_rows(&text);
        if old.is_empty() {
            return Err(format!("baseline {path} has no steady_pkts_per_sec rows"));
        }
        for (shards, old_pps) in old {
            let Some(&(_, new_pps)) = steady_by_shards.iter().find(|(s, _)| *s == shards) else {
                continue;
            };
            if new_pps < 0.8 * old_pps {
                return Err(format!(
                    "regression at {shards} shard(s): {new_pps:.0} pkt/s < 80% of \
                     baseline {old_pps:.0}"
                ));
            }
            println!("bench: {shards} shard(s) vs baseline: {new_pps:.0} / {old_pps:.0} pkt/s");
        }
    }

    let json = format!(
        "{{\n  \"bench\": \"sink_ingest\",\n  \"nodes\": {},\n  \"seed\": {},\n  \
         \"packets\": {},\n  \"warmup\": {},\n  \"wire_bytes\": {},\n  \
         \"encode_pkts_per_sec\": {:.1},\n  \"decode_pkts_per_sec\": {:.1},\n  \
         \"ingest\": [\n{}\n  ]\n}}\n",
        f.nodes,
        f.seed,
        workload.len(),
        warmup,
        bytes.len(),
        1.0 / encode_s,
        1.0 / decode_s,
        rows.join(",\n")
    );
    std::fs::write(&f.out, json).map_err(|e| format!("write {}: {e}", f.out))?;
    println!("bench: wrote {}", f.out);
    Ok(())
}

/// Builds the SUBSCRIBE command line a `tail` run sends.
fn subscribe_command(f: &Flags) -> Result<String, String> {
    if f.node.is_some() && f.path_filter.is_some() {
        return Err("--node and --path are mutually exclusive".into());
    }
    let mut cmd = String::from("SUBSCRIBE");
    if let Some(n) = f.node {
        cmd.push_str(&format!(" NODE {n}"));
    }
    if let Some((src, dst)) = f.path_filter {
        cmd.push_str(&format!(" PATH {src} {dst}"));
    }
    if let Some(b) = f.agg_bucket {
        cmd.push_str(&format!(" AGG {b}"));
    }
    if f.sub_replay {
        cmd.push_str(" REPLAY");
    }
    Ok(cmd)
}

/// Renders one push-stream line as a JSON object for `--jsonl`.
fn stream_line_json(l: &str) -> String {
    let esc = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
    let mut it = l.split_whitespace();
    match it.next() {
        Some("packet") => {
            let pid = it.next().unwrap_or("");
            let mut path = "[]".to_string();
            let mut times = "[]".to_string();
            let rest: Vec<&str> = it.collect();
            if let Some(p) = rest.iter().position(|&t| t == "path") {
                if let Some(raw) = rest.get(p + 1) {
                    path = format!("[{}]", raw.split('-').collect::<Vec<_>>().join(","));
                }
            }
            if let Some(p) = rest.iter().position(|&t| t == "times") {
                times = format!("[{}]", rest[p + 1..].join(","));
            }
            format!(
                "{{\"type\":\"packet\",\"pid\":\"{}\",\"path\":{path},\"times\":{times}}}",
                esc(pid)
            )
        }
        Some("bucket") => {
            let fields: Vec<&str> = l.split_whitespace().collect();
            let mut body = String::new();
            // "bucket <start> count <n> mean <m> ..." → key/value pairs.
            if let Some(start) = fields.get(1) {
                body.push_str(&format!("\"start_ms\":{start}"));
            }
            for pair in fields[2..].chunks(2) {
                if let [k, v] = pair {
                    body.push_str(&format!(",\"{}\":{v}", esc(k)));
                }
            }
            format!("{{\"type\":\"bucket\",{body}}}")
        }
        Some("lagged") => format!(
            "{{\"type\":\"lagged\",\"dropped\":{}}}",
            it.next().unwrap_or("0")
        ),
        Some("SHED") => format!("{{\"type\":\"shed\",\"line\":\"{}\"}}", esc(l)),
        _ => format!("{{\"type\":\"line\",\"line\":\"{}\"}}", esc(l)),
    }
}

fn tail(f: &Flags) -> Result<(), String> {
    let query = f.query.as_deref().ok_or("tail needs --query HOST:PORT")?;
    let cmd = subscribe_command(f)?;
    domo_obs::info!(
        target: "domo_sink",
        "tailing",
        query = query,
        command = cmd.as_str(),
    );
    let jsonl = f.jsonl;
    let report = tail_events(
        query,
        &cmd,
        &TailOptions {
            max_reconnects: f.reconnects,
            max_events: f.max_events,
            ..TailOptions::default()
        },
        |l| {
            if jsonl {
                println!("{}", stream_line_json(l));
            } else {
                println!("{l}");
            }
            true
        },
    )
    .map_err(|e| format!("tail: {e}"))?;
    domo_obs::info!(
        target: "domo_sink",
        "tail finished",
        events = report.events,
        duplicates = report.duplicates,
        lagged = report.lagged,
        reconnects = report.reconnects,
        shed = report.shed,
    );
    Ok(())
}

/// Exact quantile at rank `⌈q·n⌉` of an ascending-sorted slice — the
/// same rank convention `DelaySketch::quantile` estimates.
fn exact_quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Parses the pid token out of a `packet <pid> …` line.
fn pid_of(line: &str) -> Option<&str> {
    line.split_whitespace().nth(1)
}

/// The live-query acceptance gate (check.sh gate 11); see the module
/// docs for what it asserts.
fn subsmoke(f: &Flags) -> Result<(), String> {
    let trace = run_simulation(&NetworkConfig::small(f.nodes, f.seed));
    let total = trace.packets.len();
    if total < 4 {
        return Err("trace too small for a meaningful subscription test".into());
    }
    let half = total / 2;
    // Not every ingested packet reconstructs (retransmitted pids dedup,
    // estimation can fail), so the expected emission sets come from a
    // deterministic reference run of the same trace through an
    // identical in-process sink — the same bit-identity crashsmoke
    // already relies on.
    let distinct_half = trace.packets[..half]
        .iter()
        .map(|p| p.pid)
        .collect::<std::collections::HashSet<_>>()
        .len() as u64;
    let distinct_total = trace
        .packets
        .iter()
        .map(|p| p.pid)
        .collect::<std::collections::HashSet<_>>()
        .len() as u64;
    let ref_dir = std::env::temp_dir().join(format!("domo-subsmoke-ref-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&ref_dir);
    let reference = SinkService::start(SinkConfig {
        shards: f.shards,
        store: Some(StoreConfig::at(&ref_dir)),
        ..SinkConfig::default()
    });
    for p in &trace.packets[..half] {
        reference.ingest(p.clone());
    }
    reference.drain();
    let phase1: BTreeSet<String> = reference
        .range(f64::NEG_INFINITY, f64::INFINITY)
        .map_err(|e| format!("reference range: {e}"))?
        .iter()
        .map(|(pid, _)| pid.to_string())
        .collect();
    for p in &trace.packets[half..] {
        reference.ingest(p.clone());
    }
    reference.drain();
    let recs = reference
        .range(f64::NEG_INFINITY, f64::INFINITY)
        .map_err(|e| format!("reference range: {e}"))?;
    reference.shutdown();
    let _ = std::fs::remove_dir_all(&ref_dir);
    let all_pids: BTreeSet<String> = recs.iter().map(|(pid, _)| pid.to_string()).collect();
    if phase1.is_empty() || all_pids.len() <= phase1.len() {
        return Err("reference run emitted too little to exercise both phases".into());
    }
    // The NODE filter target: the busiest forwarder (non-terminal path
    // position) of the emitted set, so the subset is nonempty.
    let mut per_node = std::collections::HashMap::new();
    for (_, rec) in &recs {
        let n = rec.path.len();
        for node in &rec.path[..n.saturating_sub(1)] {
            *per_node.entry(node.index() as u16).or_insert(0usize) += 1;
        }
    }
    let (filter_node, node_total) = per_node
        .into_iter()
        .max_by_key(|&(node, count)| (count, std::cmp::Reverse(node)))
        .ok_or("no forwarding node in the emitted set")?;
    let node_pids: BTreeSet<String> = recs
        .iter()
        .filter(|(_, rec)| {
            let n = rec.path.len();
            rec.path[..n.saturating_sub(1)]
                .iter()
                .any(|nd| nd.index() as u16 == filter_node)
        })
        .map(|(pid, _)| pid.to_string())
        .collect();

    let data_dir = std::env::temp_dir().join(format!("domo-subsmoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&data_dir);
    let server = SinkServer::bind(
        "127.0.0.1:0",
        "127.0.0.1:0",
        SinkConfig {
            shards: f.shards,
            store: Some(StoreConfig::at(&data_dir)),
            ..SinkConfig::default()
        },
    )
    .map_err(|e| format!("bind: {e}"))?;
    let query_addr = server.query_addr();
    println!(
        "subsmoke: {} packets, {} reconstructions ({} through node {filter_node}), sink at {} / {}",
        total,
        all_pids.len(),
        node_pids.len(),
        server.ingest_addr(),
        query_addr
    );

    // Three live subscribers registered before anything is emitted:
    // B (ALL, follows to the end), C (NODE-filtered, follows to the
    // end), D (ALL, deliberately disconnects after the first half).
    let spawn_tail = |cmd: &'static str, max_events: u64| {
        std::thread::spawn(move || {
            let mut pids: Vec<String> = Vec::new();
            let report = tail_events(
                query_addr,
                cmd,
                &TailOptions {
                    max_events,
                    ..TailOptions::default()
                },
                |l| {
                    if let Some(pid) = pid_of(l) {
                        pids.push(pid.to_string());
                    }
                    true
                },
            );
            (report, pids)
        })
    };
    let sub_all = spawn_tail("SUBSCRIBE", all_pids.len() as u64);
    let node_cmd: &'static str =
        Box::leak(format!("SUBSCRIBE NODE {filter_node}").into_boxed_str());
    let sub_node = spawn_tail(node_cmd, node_pids.len() as u64);
    let sub_drop = spawn_tail("SUBSCRIBE", phase1.len() as u64);

    // Wait until all three are registered, or emissions could slip
    // out before the subscriptions exist.
    let mut q = QueryClient::connect(query_addr).map_err(|e| format!("query connect: {e}"))?;
    q.wait_stats(Duration::from_secs(30), |s| stat(s, "subscribers") >= 3)
        .map_err(|e| format!("subscribers never registered: {e}"))?;

    // Phase 1: half the trace, emitted by an explicit DRAIN, then a
    // forced CHECKPOINT *while the subscribers live* — exactly-once
    // must hold across it.
    replay_packets(
        server.ingest_addr(),
        &trace.packets[..half],
        &ReplayOptions::default(),
    )
    .map_err(|e| format!("phase-1 replay: {e}"))?;
    wait_ingested(&mut q, distinct_half)?;
    let drain = q.request("DRAIN").map_err(|e| format!("drain: {e}"))?;
    if drain.first().map(|l| l.starts_with("OK emitted ")) != Some(true) {
        return Err(format!("DRAIN did not report emissions: {drain:?}"));
    }
    let ckpt = q
        .request("CHECKPOINT")
        .map_err(|e| format!("checkpoint: {e}"))?;
    if ckpt.first().map(|l| l.starts_with("OK lsn ")) != Some(true) {
        return Err(format!("CHECKPOINT failed: {ckpt:?}"));
    }
    println!(
        "subsmoke: phase 1 drained ({} reconstructions) and checkpointed",
        phase1.len()
    );

    // D saw the first phase's emissions, then hung up mid-stream.
    let (drop_report, drop_pids) = sub_drop.join().map_err(|_| "drop subscriber panicked")?;
    let drop_report = drop_report.map_err(|e| format!("drop subscriber: {e}"))?;
    if drop_report.events != phase1.len() as u64 || drop_report.duplicates != 0 {
        return Err(format!(
            "pre-disconnect subscriber saw {} events ({} dup), want {}",
            drop_report.events,
            drop_report.duplicates,
            phase1.len()
        ));
    }

    // Phase 2: the rest of the trace, another DRAIN.
    replay_packets(
        server.ingest_addr(),
        &trace.packets,
        &ReplayOptions::default(),
    )
    .map_err(|e| format!("phase-2 replay: {e}"))?;
    wait_ingested(&mut q, distinct_total)?;
    q.request("DRAIN")
        .map_err(|e| format!("phase-2 drain: {e}"))?;

    // B: exactly the emitted set, no gaps, no duplicates, across the
    // checkpoint.
    let (all_report, got_all) = sub_all.join().map_err(|_| "ALL subscriber panicked")?;
    let all_report = all_report.map_err(|e| format!("ALL subscriber: {e}"))?;
    let got_all_set: BTreeSet<String> = got_all.iter().cloned().collect();
    if all_report.duplicates != 0 || got_all_set.len() != got_all.len() {
        return Err("ALL subscriber received duplicates".into());
    }
    if got_all_set != all_pids {
        return Err(format!(
            "ALL subscriber diverges: got {} pids, want {} (missing: {:?})",
            got_all_set.len(),
            all_pids.len(),
            all_pids
                .difference(&got_all_set)
                .take(3)
                .collect::<Vec<_>>()
        ));
    }
    println!(
        "subsmoke: live subscriber saw all {} emissions exactly once across CHECKPOINT",
        all_pids.len()
    );

    // C: exactly the matching subset.
    let (node_report, got_node) = sub_node.join().map_err(|_| "NODE subscriber panicked")?;
    let node_report = node_report.map_err(|e| format!("NODE subscriber: {e}"))?;
    let got_node_set: BTreeSet<String> = got_node.iter().cloned().collect();
    if node_report.duplicates != 0 || got_node_set != node_pids {
        return Err(format!(
            "NODE {filter_node} subscriber diverges: got {}, want {}",
            got_node_set.len(),
            node_pids.len()
        ));
    }
    println!(
        "subsmoke: NODE {filter_node} subscriber saw exactly its {} matching emissions",
        node_pids.len()
    );

    // D reconnects with REPLAY: the union of the pre-disconnect stream
    // and the replayed stream, deduplicated client-side, is exactly
    // the emitted set.
    let mut rejoined: BTreeSet<String> = drop_pids.into_iter().collect();
    let before = rejoined.len();
    let replay_report = tail_events(
        query_addr,
        "SUBSCRIBE REPLAY",
        &TailOptions {
            max_events: all_pids.len() as u64,
            ..TailOptions::default()
        },
        |l| {
            if let Some(pid) = pid_of(l) {
                rejoined.insert(pid.to_string());
            }
            true
        },
    )
    .map_err(|e| format!("reconnect tail: {e}"))?;
    if replay_report.events != all_pids.len() as u64 || rejoined != all_pids {
        return Err(format!(
            "reconnect not exactly-once: {} before + replay {} → {} unique, want {}",
            before,
            replay_report.events,
            rejoined.len(),
            all_pids.len()
        ));
    }
    println!("subsmoke: disconnect + REPLAY reconnect converged to exactly-once");

    // AGG vs offline exact: every sojourn sample of the filter node,
    // one giant bucket, quantiles within the documented bound.
    let range = q
        .request("RANGE -inf inf")
        .map_err(|e| format!("range: {e}"))?;
    let mut sojourns: Vec<f64> = Vec::new();
    for line in range.iter().filter(|l| l.starts_with("packet ")) {
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
            if path.get(i) == Some(&filter_node) {
                sojourns.push((w[1] - w[0]).max(0.0));
            }
        }
    }
    sojourns.sort_by(f64::total_cmp);
    if sojourns.len() != node_total {
        return Err(format!(
            "offline sample count {} != expected {node_total}",
            sojourns.len()
        ));
    }
    let agg = q
        .request(&format!("AGG {filter_node} 0 100000000 100000000"))
        .map_err(|e| format!("agg: {e}"))?;
    let bucket = agg
        .iter()
        .find(|l| l.starts_with("bucket "))
        .ok_or_else(|| format!("AGG returned no bucket: {agg:?}"))?;
    let fields: Vec<&str> = bucket.split_whitespace().collect();
    let field = |name: &str| -> Result<f64, String> {
        fields
            .iter()
            .position(|&t| t == name)
            .and_then(|p| fields.get(p + 1))
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("AGG bucket missing `{name}`: {bucket}"))
    };
    let count = field("count")? as usize;
    if count != sojourns.len() {
        return Err(format!("AGG count {count} != offline {}", sojourns.len()));
    }
    // Documented sketch bound (DelaySketch::relative_error_bound is
    // ≈5.93%, documented < 6.2%); the offline values carry the %.3f
    // wire rounding, hence the small absolute slack.
    let bound = 0.062;
    for (name, q_frac) in [("p50", 0.50), ("p95", 0.95), ("p99", 0.99)] {
        let est = field(name)?;
        let exact = exact_quantile(&sojourns, q_frac);
        let tol = bound * exact.abs() + 1e-2;
        if (est - exact).abs() > tol {
            return Err(format!(
                "AGG {name} {est} vs exact {exact} exceeds the {bound} bound"
            ));
        }
    }
    let mean = field("mean")?;
    let offline_mean = sojourns.iter().sum::<f64>() / sojourns.len() as f64;
    if (mean - offline_mean).abs() > 1e-2 + 1e-3 * offline_mean.abs() {
        return Err(format!("AGG mean {mean} vs offline {offline_mean}"));
    }
    println!(
        "subsmoke: AGG over {} samples within the {:.1}% sketch bound (p50/p95/p99), mean exact",
        count,
        bound * 100.0
    );

    // Idle-subscriber cost: hold one quiet subscriber open, let the
    // adaptive poll back off to its ceiling, then require the wakeup
    // rate to stay flat — the old fixed 1 ms poll burned ~10 cycles a
    // second forever; the backoff settles under ~3/s.
    {
        use std::io::{BufRead, BufReader, Write as _};
        let stream = std::net::TcpStream::connect(query_addr)
            .map_err(|e| format!("idle subscriber connect: {e}"))?;
        let mut w = stream
            .try_clone()
            .map_err(|e| format!("idle subscriber clone: {e}"))?;
        writeln!(w, "SUBSCRIBE").map_err(|e| format!("idle subscribe: {e}"))?;
        let mut r = BufReader::new(&stream);
        let mut line = String::new();
        r.read_line(&mut line)
            .map_err(|e| format!("idle subscribe reply: {e}"))?;
        if !line.starts_with("OK subscribed") {
            return Err(format!("idle subscribe rejected: {line}"));
        }
        // Let the backoff ramp to its ceiling, then measure a window.
        std::thread::sleep(Duration::from_millis(1_500));
        let before = metric_value(&mut q, "domo_sink_sub_idle_wakeups_total")?;
        std::thread::sleep(Duration::from_millis(2_000));
        let after = metric_value(&mut q, "domo_sink_sub_idle_wakeups_total")?;
        let delta = after - before;
        if delta > 12.0 {
            return Err(format!(
                "idle subscriber woke {delta:.0} times in 2 s; the poll backoff is broken"
            ));
        }
        println!("subsmoke: idle subscriber cost {delta:.0} wakeups over 2 s");
    }

    server.shutdown();
    let _ = std::fs::remove_dir_all(&data_dir);
    println!("subsmoke: OK");
    Ok(())
}

/// Reads one float-valued metric out of a METRICS scrape.
fn metric_value(q: &mut QueryClient, name: &str) -> Result<f64, String> {
    let metrics = q.request("METRICS").map_err(|e| format!("metrics: {e}"))?;
    metrics
        .iter()
        .find_map(|l| l.strip_prefix(name).and_then(|r| r.trim().parse().ok()))
        .ok_or_else(|| format!("METRICS missing `{name}`"))
}

/// The high-concurrency acceptance gate (check.sh gate 12): holds
/// `--conns` simultaneous ingest connections open against one server,
/// partitions a unique-pid workload across them, and requires exact
/// `emitted + dropped == ingested` accounting with zero quarantines —
/// then re-binds with a tiny `--max-conns` cap and requires the excess
/// to be shed with the typed overcap counter, not an fd exhaustion.
fn connsoak(f: &Flags) -> Result<(), String> {
    use std::io::Write as _;

    let conns = f.conns.max(2);
    let trace = run_simulation(&NetworkConfig::small(f.nodes, f.seed));
    if trace.packets.is_empty() {
        return Err("simulated trace delivered nothing".into());
    }
    let per_conn = (f.packets / conns).clamp(8, 512);
    let workload = synthesize_workload(&trace.packets, conns * per_conn);
    let total = conns * per_conn;
    let server = SinkServer::bind(
        "127.0.0.1:0",
        "127.0.0.1:0",
        SinkConfig {
            shards: f.shards,
            max_conns: conns + 64,
            ..SinkConfig::default()
        },
    )
    .map_err(|e| format!("bind: {e}"))?;
    println!(
        "connsoak: {} connections x {per_conn} packets against {}",
        conns,
        server.ingest_addr()
    );

    // Open every connection first — the registry must hold them all
    // live at once — then write each partition and keep every socket
    // open until the server has consumed the full workload.
    let mut streams = Vec::with_capacity(conns);
    for i in 0..conns {
        let s = std::net::TcpStream::connect(server.ingest_addr())
            .map_err(|e| format!("connect #{i}: {e}"))?;
        streams.push(s);
    }
    for (i, s) in streams.iter_mut().enumerate() {
        let part = &workload[i * per_conn..(i + 1) * per_conn];
        let frame = encode_packets(part).map_err(|e| format!("encode #{i}: {e}"))?;
        s.write_all(&frame)
            .map_err(|e| format!("write #{i}: {e}"))?;
    }
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let s = server.service().stats();
        if s.ingested == total as u64 {
            break;
        }
        if Instant::now() > deadline {
            return Err(format!(
                "soak ingest stalled at {}/{total} with {conns} live connections",
                s.ingested
            ));
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    // Every connection is still open — the registry is carrying the
    // full set while the accounting below is checked.
    let mut q =
        QueryClient::connect(server.query_addr()).map_err(|e| format!("query connect: {e}"))?;
    let live = metric_value(&mut q, "domo_sink_connections{kind=\"ingest\"}")?;
    if (live as usize) < conns {
        return Err(format!(
            "only {live} ingest connections live, expected {conns}"
        ));
    }
    drop(streams);
    q.request("DRAIN").map_err(|e| format!("drain: {e}"))?;
    let stats = server.service().stats();
    if stats.quarantined != 0 {
        return Err(format!("soak quarantined {} packets", stats.quarantined));
    }
    if stats.emitted + stats.backpressure_dropped != stats.ingested
        || stats.ingested != total as u64
    {
        return Err(format!(
            "accounting drift under load: emitted {} + dropped {} != ingested {} (want {total})",
            stats.emitted, stats.backpressure_dropped, stats.ingested
        ));
    }
    println!(
        "connsoak: {} held, ingested {} = emitted {} + dropped {}",
        conns, stats.ingested, stats.emitted, stats.backpressure_dropped
    );
    server.shutdown();

    // Overcap phase: a tiny cap must shed the excess with the typed
    // counter while the capped set keeps working.
    let cap = 8usize;
    let open = 16usize;
    let server = SinkServer::bind(
        "127.0.0.1:0",
        "127.0.0.1:0",
        SinkConfig {
            shards: 1,
            max_conns: cap,
            ..SinkConfig::default()
        },
    )
    .map_err(|e| format!("bind capped: {e}"))?;
    let _held: Vec<std::net::TcpStream> = (0..open)
        .map(|i| {
            std::net::TcpStream::connect(server.ingest_addr())
                .map_err(|e| format!("capped connect #{i}: {e}"))
        })
        .collect::<Result<_, String>>()?;
    let mut q =
        QueryClient::connect(server.query_addr()).map_err(|e| format!("query connect: {e}"))?;
    let want_shed = (open - cap) as f64;
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let shed = metric_value(&mut q, "domo_sink_shed_total{reason=\"overcap\"}").unwrap_or(0.0);
        if shed >= want_shed {
            println!("connsoak: cap {cap} shed {shed:.0} of {open} connections");
            break;
        }
        if Instant::now() > deadline {
            return Err(format!(
                "overcap shed never reached {want_shed} (at {shed:.0})"
            ));
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    server.shutdown();
    println!("connsoak: OK");
    Ok(())
}

/// Polls STATS until `ingested` reaches `want`.
fn wait_ingested(q: &mut QueryClient, want: u64) -> Result<(), String> {
    q.wait_stats(Duration::from_secs(60), |s| stat(s, "ingested") >= want)
        .map(drop)
        .map_err(|e| format!("ingest stalled before {want}: {e}"))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let usage = "usage: domo-sink <serve|replay|route|cluster|smoke|crashsmoke|bench|tail|subsmoke|connsoak> [flags] (see module docs)";
    let Some(command) = argv.first() else {
        domo_obs::error!(target: "domo_sink", "missing command", usage = usage);
        std::process::exit(2);
    };
    let result = match parse_flags(&argv[1..]) {
        Err(msg) => Err(msg),
        Ok(flags) => match command.as_str() {
            "serve" => serve(&flags),
            "replay" => replay(&flags),
            "route" => route(&flags),
            "cluster" => cluster(&flags),
            "smoke" => smoke(&flags),
            "crashsmoke" => crashsmoke(&flags),
            "bench" => bench(&flags),
            "tail" => tail(&flags),
            "subsmoke" => subsmoke(&flags),
            "connsoak" => connsoak(&flags),
            other => Err(format!("unknown command {other}\n{usage}")),
        },
    };
    if let Err(msg) = result {
        domo_obs::error!(target: "domo_sink", "command failed", error = msg);
        std::process::exit(1);
    }
}
