//! TCP front-end: a binary ingestion listener and a line-delimited
//! query listener in front of one [`SinkService`].
//!
//! **Ingestion** runs on a bounded reactor (see [`crate::wire`] frames
//! and the `reactor` module): a fixed pool of sweep workers owns every
//! accepted socket, reads whatever the kernel buffered, decodes *all*
//! complete frames per read, and submits them through
//! [`SinkService::ingest_batch`] so the ingest lock and the WAL append
//! are paid once per batch. Live connections across both listeners are
//! capped at [`SinkConfig::max_conns`]; the excess is shed with
//! `domo_sink_shed_total{reason="overcap"}` instead of exhausting file
//! descriptors. A structurally invalid frame loses the stream's frame
//! alignment, so the connection is counted (`malformed_frames`) and
//! dropped — the service itself keeps running.
//!
//! **Queries** are plain text, one request per line, every response
//! terminated by a line `END`:
//!
//! ```text
//! STATS                  counters (ingested, emitted, quarantined, …)
//! NODES                  per-node sojourn summaries
//! PACKET <origin> <seq>  one packet's reconstructed hop times
//! RANGE <lo_ms> <hi_ms>  durable reconstructions whose first hop time
//!                        falls in [lo, hi] (requires --data-dir)
//! AGG <node> <start_ms> <end_ms> <bucket_ms>
//!                        bucketed delay aggregates for one node:
//!                        count/mean/p50/p95/p99/max per bucket, from
//!                        the live sketches plus a result-log backfill
//!                        for buckets older than sketch retention
//! SUBSCRIBE [NODE <id>|PATH <src> <dst>] [AGG <bucket_ms>] [REPLAY]
//!                        switch this connection to a live push stream
//!                        (see below); REPLAY prefixes the retained
//!                        matching reconstructions
//! STORE STATS            WAL / checkpoint / result-log accounting
//! CHECKPOINT             force a checkpoint now, reply with its cut
//! METRICS [JSON]         every registered metric, Prometheus text
//!                        exposition format (or JSON Lines)
//! DRAIN                  flush every shard estimator; replies
//!                        `OK emitted <n>` with the fresh emissions
//! FLUSH                  early-commit the oldest half of each shard;
//!                        replies `OK emitted <n>`
//! QUIT                   close the connection
//! ```
//!
//! Errors are lines starting `ERR`; the connection survives them, and
//! every `ERR` reply is counted in `domo_sink_query_errors_total` so a
//! misbehaving client is visible from a METRICS scrape.
//!
//! # SUBSCRIBE streams
//!
//! `SUBSCRIBE` flips the connection into push mode: the server replies
//! `OK subscribed <filter> backfill <n>` and from then on *writes*
//! events as they are emitted, reading only for `QUIT` (or EOF). Each
//! matching emission is one `packet <origin>#<seq> path a-b-c times
//! t0 t1 …` line — the same shape `RANGE` uses. The per-subscriber
//! queue is bounded ([`SinkConfig::queue_capacity`], drop-oldest):
//! when the client falls behind, dropped events surface as a
//! `lagged <n>` line at the next delivery, and a subscriber that
//! accumulates 4× the queue bound in drops is shed with a terminal
//! `SHED lagged <total>` line. Every stream ends with `END`.
//!
//! With `AGG <bucket_ms>` the stream folds matching events into
//! `bucket_ms`-wide sketch buckets instead, emitting one
//! `bucket <start_ms> count … mean … p50 … p95 … p99 … max …` line per
//! bucket as soon as a strictly newer bucket opens (NODE filters fold
//! the node's per-hop sojourns; other filters fold end-to-end delay).
//! `REPLAY` seeds the stream — raw or folded — with the retained
//! reconstructions, captured atomically with the registration so the
//! backfill plus the live stream is exactly-once even across a
//! concurrent CHECKPOINT.
//!
//! # Connection deadlines
//!
//! When the service is configured with idle timeouts (`--idle-timeout`
//! on the CLI), both listeners arm a socket read deadline per
//! connection. A connection that trips the deadline is shed with a
//! typed reason — `idle` (no bytes pending: a silent peer) or
//! `stalled` (a partial frame or line was underway: a wedged peer) —
//! counted in `domo_sink_shed_total{reason=...}`. Shedding closes only
//! that connection; the service keeps running.
//!
//! # Durability in `STATS`
//!
//! When the service runs with a [`crate::StoreConfig`] (`--data-dir`),
//! `STATS` includes two extra lines so an operator can confirm *where*
//! state lands and *when* it reaches stable storage:
//!
//! ```text
//! data_dir /var/lib/domo
//! fsync interval:64
//! ```
//!
//! Without a store the single line `store disabled` appears instead —
//! the line count differs by exactly one between the two modes, and
//! scripts can key off the `store disabled` marker.

use crate::reactor::Reactor;
use crate::service::{SinkConfig, SinkService, SinkSnapshot, StoredReconstruction};
use domo_obs::LazyCounter;
use domo_query::series::AggBucket;
use domo_query::sub::{RecvOutcome, SubFilter};
use domo_query::DelaySketch;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

static OBS_QUERY_ERRORS: LazyCounter = LazyCounter::new("domo_sink_query_errors_total", &[]);
static OBS_SHED_IDLE: LazyCounter = LazyCounter::new("domo_sink_shed_total", &[("reason", "idle")]);
static OBS_SHED_STALLED: LazyCounter =
    LazyCounter::new("domo_sink_shed_total", &[("reason", "stalled")]);
static OBS_SHED_OVERCAP: LazyCounter =
    LazyCounter::new("domo_sink_shed_total", &[("reason", "overcap")]);
static OBS_SUB_IDLE_WAKEUPS: LazyCounter =
    LazyCounter::new("domo_sink_sub_idle_wakeups_total", &[]);

/// A running sink server: the service, the ingest reactor, and the two
/// accept loops.
pub struct SinkServer {
    service: Arc<SinkService>,
    ingest_addr: SocketAddr,
    query_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_handles: Mutex<Vec<JoinHandle<()>>>,
    reactor: Arc<Reactor>,
}

impl SinkServer {
    /// Binds both listeners (use port `0` for an OS-assigned loopback
    /// port) and starts accepting.
    ///
    /// # Errors
    ///
    /// Propagates socket bind failures and, when the configuration
    /// enables a durable store, storage open/recovery failures.
    pub fn bind<A: ToSocketAddrs, B: ToSocketAddrs>(
        ingest: A,
        query: B,
        cfg: SinkConfig,
    ) -> std::io::Result<Self> {
        let ingest_listener = TcpListener::bind(ingest)?;
        let query_listener = TcpListener::bind(query)?;
        let ingest_addr = ingest_listener.local_addr()?;
        let query_addr = query_listener.local_addr()?;
        let max_conns = cfg.max_conns.max(1);
        let service = Arc::new(SinkService::open(cfg)?);
        let stop = Arc::new(AtomicBool::new(false));
        let reactor = Arc::new(Reactor::start(
            Arc::clone(&service),
            Arc::clone(&stop),
            max_conns,
        ));

        let mut handles = Vec::with_capacity(2);
        {
            let reactor = Arc::clone(&reactor);
            let stop = Arc::clone(&stop);
            handles.push(std::thread::spawn(move || {
                accept_loop(&ingest_listener, &stop, move |stream| {
                    if !reactor.register(stream) {
                        shed_overcap("ingest");
                    }
                });
            }));
        }
        {
            let service = Arc::clone(&service);
            let stop = Arc::clone(&stop);
            // Query threads share the same cap as the ingest registry
            // conceptually, but count separately: a query flood can't
            // starve ingest of its budget and vice versa.
            let live = Arc::new(AtomicUsize::new(0));
            handles.push(std::thread::spawn(move || {
                accept_loop(&query_listener, &stop, move |stream| {
                    if live.fetch_add(1, Ordering::SeqCst) >= max_conns {
                        live.fetch_sub(1, Ordering::SeqCst);
                        shed_overcap("query");
                        return;
                    }
                    let service = Arc::clone(&service);
                    let live = Arc::clone(&live);
                    std::thread::spawn(move || {
                        let _ = handle_query(stream, &service);
                        live.fetch_sub(1, Ordering::SeqCst);
                    });
                });
            }));
        }
        Ok(Self {
            service,
            ingest_addr,
            query_addr,
            stop,
            accept_handles: Mutex::new(handles),
            reactor,
        })
    }

    /// Address of the binary ingestion listener.
    pub fn ingest_addr(&self) -> SocketAddr {
        self.ingest_addr
    }

    /// Address of the text query listener.
    pub fn query_addr(&self) -> SocketAddr {
        self.query_addr
    }

    /// The service behind the listeners (for in-process inspection).
    pub fn service(&self) -> &Arc<SinkService> {
        &self.service
    }

    /// Stops accepting connections, drains the shards, and returns the
    /// final snapshot.
    pub fn shutdown(&self) -> SinkSnapshot {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the blocking accept() calls with throwaway connections.
        let _ = TcpStream::connect(self.ingest_addr);
        let _ = TcpStream::connect(self.query_addr);
        let handles: Vec<JoinHandle<()>> = self
            .accept_handles
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .drain(..)
            .collect();
        for h in handles {
            let _ = h.join();
        }
        // The reactor's sweep workers see the same stop flag; joining
        // them before the service drains guarantees no ingest batch is
        // in flight when the shards shut down.
        self.reactor.join();
        self.service.shutdown()
    }
}

fn accept_loop<F: FnMut(TcpStream)>(listener: &TcpListener, stop: &AtomicBool, mut spawn: F) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                spawn(stream);
            }
            Err(_) => {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                // Transient accept errors (EMFILE, aborted handshake):
                // keep serving.
            }
        }
    }
}

/// Decrements a live-connection gauge on scope exit, so early returns
/// and `?` exits all balance the increment.
pub(crate) struct ConnGuard(domo_obs::Gauge);

impl ConnGuard {
    pub(crate) fn enter(kind: &str) -> Self {
        let gauge = domo_obs::Recorder::global().gauge("domo_sink_connections", &[("kind", kind)]);
        gauge.add(1.0);
        ConnGuard(gauge)
    }
}

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.0.add(-1.0);
    }
}

/// True when an I/O error is a tripped socket read deadline (the two
/// kinds differ by platform).
fn is_read_deadline(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock
    )
}

/// Sheds a deadline-tripped connection with a typed reason counter and
/// a warning; `progressed` distinguishes a wedged peer from a silent
/// one.
pub(crate) fn shed_connection(kind: &str, peer: &str, progressed: bool) {
    let reason = if progressed { "stalled" } else { "idle" };
    if progressed {
        OBS_SHED_STALLED.inc();
    } else {
        OBS_SHED_IDLE.inc();
    }
    domo_obs::warn!(
        target: "domo_sink::server",
        "read deadline tripped; shedding connection",
        kind = kind,
        reason = reason,
        peer = peer,
    );
}

/// Sheds a connection refused by the `max_conns` cap: counted, warned,
/// and closed before any handler thread or registry slot is spent.
fn shed_overcap(kind: &str) {
    OBS_SHED_OVERCAP.inc();
    domo_obs::warn!(
        target: "domo_sink::server",
        "connection cap reached; shedding connection",
        kind = kind,
    );
}

/// Writes an `ERR <reason>` reply line and counts it, so protocol
/// misuse is visible in METRICS, not only to the offending client.
/// One reconstruction as its `PACKET` / `RANGE` reply line:
/// `packet <pid> path <a-b-c> times <t0 t1 …>` (ms, three decimals).
pub fn packet_line(pid: domo_net::PacketId, r: &StoredReconstruction) -> String {
    let path: Vec<String> = r.path.iter().map(|n| n.index().to_string()).collect();
    let times: Vec<String> = r.hop_times_ms.iter().map(|t| format!("{t:.3}")).collect();
    format!(
        "packet {pid} path {} times {}",
        path.join("-"),
        times.join(" ")
    )
}

fn err_reply(out: &mut impl Write, reason: &str) -> std::io::Result<()> {
    OBS_QUERY_ERRORS.inc();
    writeln!(out, "ERR {reason}")
}

/// Reads and discards HTTP request header lines up to (and including)
/// the blank line that ends them, so a scrape response never races
/// unread request bytes. Read errors just end the drain — the
/// connection closes right after the response either way.
fn drain_http_headers(reader: &mut impl BufRead) {
    let mut hdr = String::new();
    loop {
        hdr.clear();
        match reader.read_line(&mut hdr) {
            Ok(0) | Err(_) => return,
            Ok(_) if hdr == "\r\n" || hdr == "\n" => return,
            Ok(_) => {}
        }
    }
}

/// Parses a pid given as `<origin> <seq>` tokens or as a single
/// `origin#seq` / `origin:seq` token (the `#` form matches how the
/// sink prints pids).
fn parse_pid_tokens(first: Option<&str>, second: Option<&str>) -> Option<(u16, u32)> {
    let first = first?;
    let (o, s) = match second {
        Some(second) => (first, second),
        None => first.split_once(['#', ':'])?,
    };
    Some((o.parse().ok()?, s.parse().ok()?))
}

fn handle_query(stream: TcpStream, service: &SinkService) -> std::io::Result<()> {
    let _conn = ConnGuard::enter("query");
    let peer = stream
        .peer_addr()
        .map(|a| a.to_string())
        .unwrap_or_default();
    let _ = stream.set_nodelay(true);
    let deadline_armed = service.query_idle_timeout();
    if let Some(timeout) = deadline_armed {
        let _ = stream.set_read_timeout(Some(timeout));
    }
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut out = BufWriter::new(stream);
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => return Ok(()), // clean close
            Ok(_) => {}
            Err(e) => {
                if deadline_armed.is_some() && is_read_deadline(&e) {
                    // Bytes already buffered into `line` mean the peer
                    // stalled mid-request rather than going silent.
                    shed_connection("query", &peer, !line.is_empty());
                    return Ok(());
                }
                return Err(e);
            }
        }
        let mut parts = line.split_whitespace();
        let cmd = parts.next().unwrap_or("").to_ascii_uppercase();
        match cmd.as_str() {
            "" => {}
            "STATS" => {
                let s = service.stats();
                writeln!(out, "ingested {}", s.ingested)?;
                writeln!(out, "emitted {}", s.emitted)?;
                writeln!(out, "quarantined {}", s.quarantined)?;
                writeln!(out, "malformed_frames {}", s.malformed_frames)?;
                writeln!(out, "backpressure_dropped {}", s.backpressure_dropped)?;
                writeln!(out, "estimator_errors {}", s.estimator_errors)?;
                writeln!(out, "watchdog_dropped {}", s.watchdog_dropped)?;
                // Degradation posture: the health state machine plus
                // its alarm counters (see DESIGN.md §8).
                let hs = service.health_status();
                writeln!(out, "health {}", hs.health)?;
                writeln!(out, "degraded_entries {}", hs.degraded_entries)?;
                writeln!(out, "store_errors {}", hs.store_errors)?;
                writeln!(out, "heals {}", hs.heals)?;
                writeln!(out, "watchdog_restarts {}", hs.watchdog_restarts)?;
                // Effective (post-clamp) flush threshold, so operators
                // see the value the shards actually use.
                writeln!(out, "high_water {}", service.effective_high_water())?;
                writeln!(out, "subscribers {}", service.sub_totals().subscribers)?;
                // Cluster posture: how many tenant namespaces have
                // accepted records, and the role this process plays in
                // a multi-sink deployment (DESIGN.md §17).
                writeln!(out, "tenants {}", service.tenants().len())?;
                writeln!(out, "cluster_role {}", service.cluster_role())?;
                writeln!(out, "uptime_ms {}", service.uptime_ms())?;
                writeln!(out, "version {}", env!("CARGO_PKG_VERSION"))?;
                // Durability posture (see the module docs): where state
                // lands and when it is fsynced, or an explicit marker
                // that nothing is persisted.
                match service.store_status() {
                    Some(status) => {
                        writeln!(out, "data_dir {}", status.data_dir.display())?;
                        writeln!(out, "fsync {}", status.fsync)?;
                    }
                    None => writeln!(out, "store disabled")?,
                }
                writeln!(out, "END")?;
            }
            "METRICS" => {
                let body = match parts.next().map(str::to_ascii_uppercase).as_deref() {
                    Some("JSON") => domo_obs::Recorder::global().render_jsonl(),
                    _ => domo_obs::Recorder::global().render_prometheus(),
                };
                out.write_all(body.as_bytes())?;
                writeln!(out, "END")?;
            }
            "GET" => {
                // A stock Prometheus scrape: `GET /metrics HTTP/1.x`.
                // One-shot plain HTTP on the query port; respond and
                // close like any scrape endpoint would.
                let path = parts.next().unwrap_or("").to_string();
                drain_http_headers(&mut reader);
                if path == "/metrics" || path.starts_with("/metrics?") {
                    let body = domo_obs::Recorder::global().render_prometheus();
                    write!(
                        out,
                        "HTTP/1.1 200 OK\r\n\
                         Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
                         Content-Length: {}\r\n\
                         Connection: close\r\n\r\n",
                        body.len()
                    )?;
                    out.write_all(body.as_bytes())?;
                } else {
                    OBS_QUERY_ERRORS.inc();
                    let body = "not found\n";
                    write!(
                        out,
                        "HTTP/1.1 404 Not Found\r\n\
                         Content-Type: text/plain\r\n\
                         Content-Length: {}\r\n\
                         Connection: close\r\n\r\n{body}",
                        body.len()
                    )?;
                }
                out.flush()?;
                return Ok(());
            }
            "TRACE" => match parse_pid_tokens(parts.next(), parts.next()) {
                Some((origin, seq)) => {
                    match domo_obs::trace::journey(origin, seq) {
                        Some(stamps) if !stamps.is_empty() => {
                            writeln!(
                                out,
                                "pid {origin}#{seq} sample_every {} stages {}",
                                domo_obs::trace::sample_every(),
                                stamps.len()
                            )?;
                            let t0 = stamps[0].1;
                            for (stage, ns) in stamps {
                                writeln!(
                                    out,
                                    "stage {} t_ns {} dt_ns {}",
                                    stage.name(),
                                    ns,
                                    ns.saturating_sub(t0)
                                )?;
                            }
                        }
                        _ => err_reply(
                            &mut out,
                            "no journey (pid unsampled, not yet seen, or evicted)",
                        )?,
                    }
                    writeln!(out, "END")?;
                }
                None => {
                    err_reply(&mut out, "usage: TRACE <origin> <seq>")?;
                    writeln!(out, "END")?;
                }
            },
            "FLIGHT" => match parts.next().map(str::to_ascii_uppercase).as_deref() {
                None => {
                    for rec in domo_obs::flight_snapshot() {
                        writeln!(out, "{rec}")?;
                    }
                    writeln!(out, "END")?;
                }
                Some("DUMP") => {
                    match service.store_status() {
                        Some(status) => match domo_obs::flight_dump(&status.data_dir) {
                            Ok(path) => writeln!(out, "dumped {}", path.display())?,
                            Err(e) => err_reply(&mut out, &format!("flight dump failed: {e}"))?,
                        },
                        None => err_reply(
                            &mut out,
                            "flight dump needs --data-dir (volatile sink has no dump target)",
                        )?,
                    }
                    writeln!(out, "END")?;
                }
                Some(_) => {
                    err_reply(&mut out, "usage: FLIGHT [DUMP]")?;
                    writeln!(out, "END")?;
                }
            },
            "NODES" => {
                let snap = service.snapshot();
                for n in &snap.nodes {
                    writeln!(
                        out,
                        "node {} count {} mean {:.3} min {:.3} max {:.3}",
                        n.node.index(),
                        n.count,
                        n.mean_ms,
                        n.min_ms,
                        n.max_ms
                    )?;
                }
                writeln!(out, "END")?;
            }
            "PACKET" => {
                let origin = parts.next().and_then(|t| t.parse::<u16>().ok());
                let seq = parts.next().and_then(|t| t.parse::<u32>().ok());
                match (origin, seq) {
                    (Some(origin), Some(seq)) => {
                        let pid = domo_net::PacketId::new(domo_net::NodeId::new(origin), seq);
                        match service.reconstruction(pid) {
                            Some(r) => writeln!(out, "{}", packet_line(pid, &r))?,
                            None => err_reply(&mut out, &format!("no reconstruction for {pid}"))?,
                        }
                        writeln!(out, "END")?;
                    }
                    _ => {
                        err_reply(&mut out, "usage: PACKET <origin> <seq>")?;
                        writeln!(out, "END")?;
                    }
                }
            }
            "RANGE" => {
                let lo = parts.next().and_then(|t| t.parse::<f64>().ok());
                let hi = parts.next().and_then(|t| t.parse::<f64>().ok());
                match (lo, hi) {
                    // `parse::<f64>` happily accepts "NaN", and NaN
                    // bounds make every comparison false — reject them
                    // explicitly rather than hand back a surprising
                    // (and historically scan-happy) empty window.
                    (Some(lo), Some(hi)) if lo.is_nan() || hi.is_nan() => {
                        err_reply(&mut out, "RANGE bounds must not be NaN")?
                    }
                    (Some(lo), Some(hi)) => match service.range(lo, hi) {
                        Ok(records) => {
                            for (pid, r) in &records {
                                writeln!(out, "{}", packet_line(*pid, r))?;
                            }
                            writeln!(out, "count {}", records.len())?;
                        }
                        Err(e) => err_reply(&mut out, &e.to_string())?,
                    },
                    _ => err_reply(&mut out, "usage: RANGE <lo_ms> <hi_ms>")?,
                }
                writeln!(out, "END")?;
            }
            "STORE" => {
                // Only `STORE STATS` exists today; tolerate the bare
                // form too.
                match parts.next().map(str::to_ascii_uppercase).as_deref() {
                    None | Some("STATS") => match service.store_status() {
                        Some(s) => {
                            writeln!(out, "data_dir {}", s.data_dir.display())?;
                            writeln!(out, "fsync {}", s.fsync)?;
                            writeln!(out, "wal_next_lsn {}", s.wal.next_lsn)?;
                            writeln!(out, "wal_segments {}", s.wal.segments)?;
                            writeln!(out, "wal_bytes {}", s.wal.bytes)?;
                            writeln!(out, "wal_unsynced {}", s.wal.unsynced)?;
                            writeln!(out, "result_records {}", s.results.records)?;
                            writeln!(out, "result_segments {}", s.results.segments)?;
                            writeln!(out, "result_bytes {}", s.results.bytes)?;
                            writeln!(
                                out,
                                "result_retired_segments {}",
                                s.results.retired_segments
                            )?;
                            writeln!(out, "last_checkpoint_lsn {}", s.last_checkpoint_lsn)?;
                            writeln!(out, "checkpoints_on_disk {}", s.checkpoints_on_disk)?;
                            writeln!(out, "dedup_pids {}", s.dedup_pids)?;
                            writeln!(out, "recovery_checkpoint_lsn {}", s.recovery.checkpoint_lsn)?;
                            writeln!(out, "recovery_replayed {}", s.recovery.replayed)?;
                            writeln!(
                                out,
                                "recovery_wal_bytes_discarded {}",
                                s.recovery.wal_bytes_discarded
                            )?;
                            writeln!(out, "recovery_result_records {}", s.recovery.result_records)?;
                        }
                        None => err_reply(&mut out, "store disabled")?,
                    },
                    Some(other) => {
                        err_reply(&mut out, &format!("unknown STORE subcommand {other}"))?
                    }
                }
                writeln!(out, "END")?;
            }
            "CHECKPOINT" => {
                match service.checkpoint_now() {
                    Ok(lsn) => writeln!(out, "OK lsn {lsn}")?,
                    Err(e) => err_reply(&mut out, &e.to_string())?,
                }
                writeln!(out, "END")?;
            }
            "AGG" => {
                let node = parts.next().and_then(|t| t.parse::<u16>().ok());
                let start = parts.next().and_then(|t| t.parse::<f64>().ok());
                let end = parts.next().and_then(|t| t.parse::<f64>().ok());
                let bucket = parts.next().and_then(|t| t.parse::<u64>().ok());
                // `PARTS` switches the reply from rendered percentiles
                // to raw mergeable sketch parts, so a scatter-gather
                // client can combine buckets across members loss-free
                // (DESIGN.md §17.4).
                let mode = match parts.next().map(str::to_ascii_uppercase).as_deref() {
                    None => Some(false),
                    Some("PARTS") => Some(true),
                    Some(_) => None,
                };
                match (node, start, end, bucket, mode) {
                    (Some(node), Some(start), Some(end), Some(bucket), Some(true)) => {
                        match service.agg_query_parts(node, start, end, bucket) {
                            Ok(rows) => {
                                for (start_ms, p) in &rows {
                                    writeln!(out, "bucket {start_ms} parts {}", p.encode_text())?;
                                }
                                writeln!(out, "count {}", rows.len())?;
                            }
                            Err(e) => err_reply(&mut out, &e.to_string())?,
                        }
                    }
                    (Some(node), Some(start), Some(end), Some(bucket), Some(false)) => {
                        match service.agg_query(node, start, end, bucket) {
                            Ok(buckets) => {
                                for b in &buckets {
                                    write_bucket(&mut out, b)?;
                                }
                                writeln!(out, "count {}", buckets.len())?;
                            }
                            Err(e) => err_reply(&mut out, &e.to_string())?,
                        }
                    }
                    _ => err_reply(
                        &mut out,
                        "usage: AGG <node> <start_ms> <end_ms> <bucket_ms> [PARTS]",
                    )?,
                }
                writeln!(out, "END")?;
            }
            "TENANTS" => {
                match parts.next() {
                    None => {
                        for (t, n) in service.tenants() {
                            writeln!(out, "tenant {t} accepted {n}")?;
                        }
                        match service.tenant_quota() {
                            Some(q) => writeln!(out, "quota {q}")?,
                            None => writeln!(out, "quota unlimited")?,
                        }
                        writeln!(out, "quota_rejected {}", service.quota_rejected())?;
                    }
                    Some(tok) => {
                        // A tenant is "known" once it has an accepted
                        // record; asking about any other id gets the
                        // structured reply clients can match on.
                        let hit = tok
                            .parse::<u16>()
                            .ok()
                            .and_then(|t| service.tenant_accepted(t).map(|n| (t, n)));
                        match hit {
                            Some((t, n)) => writeln!(out, "tenant {t} accepted {n}")?,
                            None => err_reply(&mut out, "unknown-tenant")?,
                        }
                    }
                }
                writeln!(out, "END")?;
            }
            "SUBSCRIBE" => match parse_subscribe(&mut parts) {
                Ok(spec) => return stream_subscription(reader, out, service, spec),
                Err(reason) => {
                    err_reply(&mut out, &reason)?;
                    writeln!(out, "END")?;
                }
            },
            "DRAIN" => {
                let emitted = service.drain();
                writeln!(out, "OK emitted {emitted}")?;
                writeln!(out, "END")?;
            }
            "FLUSH" => {
                let emitted = service.flush_partial();
                writeln!(out, "OK emitted {emitted}")?;
                writeln!(out, "END")?;
            }
            "QUIT" => {
                writeln!(out, "OK")?;
                writeln!(out, "END")?;
                out.flush()?;
                return Ok(());
            }
            other => {
                err_reply(&mut out, &format!("unknown command {other}"))?;
                writeln!(out, "END")?;
            }
        }
        out.flush()?;
    }
}

/// A parsed `SUBSCRIBE` request.
struct SubscribeSpec {
    filter: SubFilter,
    /// `Some(bucket_ms)` folds the stream into AGG buckets.
    agg_bucket_ms: Option<u64>,
    /// Prefix the stream with the retained matching reconstructions.
    replay: bool,
}

/// Parses the tokens after `SUBSCRIBE`:
/// `[NODE <id> | PATH <src> <dst>] [AGG <bucket_ms>] [REPLAY]`.
fn parse_subscribe<'a>(parts: &mut impl Iterator<Item = &'a str>) -> Result<SubscribeSpec, String> {
    const USAGE: &str = "usage: SUBSCRIBE [NODE <id>|PATH <src> <dst>] [AGG <bucket_ms>] [REPLAY]";
    let mut spec = SubscribeSpec {
        filter: SubFilter::All,
        agg_bucket_ms: None,
        replay: false,
    };
    while let Some(tok) = parts.next() {
        match tok.to_ascii_uppercase().as_str() {
            "NODE" => {
                let id = parts
                    .next()
                    .and_then(|t| t.parse::<u16>().ok())
                    .ok_or_else(|| USAGE.to_string())?;
                spec.filter = SubFilter::Node(id);
            }
            "PATH" => {
                let src = parts.next().and_then(|t| t.parse::<u16>().ok());
                let dst = parts.next().and_then(|t| t.parse::<u16>().ok());
                match (src, dst) {
                    (Some(src), Some(dst)) => spec.filter = SubFilter::Path { src, dst },
                    _ => return Err(USAGE.to_string()),
                }
            }
            "AGG" => {
                let bucket = parts
                    .next()
                    .and_then(|t| t.parse::<u64>().ok())
                    .filter(|&b| b > 0)
                    .ok_or_else(|| USAGE.to_string())?;
                spec.agg_bucket_ms = Some(bucket);
            }
            "REPLAY" => spec.replay = true,
            other => return Err(format!("unknown SUBSCRIBE option {other}")),
        }
    }
    Ok(spec)
}

/// One `bucket …` reply line, shared by `AGG` and the streamed fold.
fn write_bucket(out: &mut impl Write, b: &AggBucket) -> std::io::Result<()> {
    writeln!(
        out,
        "bucket {} count {} mean {:.3} p50 {:.3} p95 {:.3} p99 {:.3} max {:.3}",
        b.start_ms, b.count, b.mean, b.p50, b.p95, b.p99, b.max
    )
}

/// One `packet …` stream line — the exact shape `RANGE` replies use,
/// so `tail` and `RANGE` output are interchangeable downstream.
fn write_event_line(
    out: &mut impl Write,
    origin: u16,
    seq: u32,
    path: &[u16],
    times: &[f64],
) -> std::io::Result<()> {
    let path_s: Vec<String> = path.iter().map(|n| n.to_string()).collect();
    let times_s: Vec<String> = times.iter().map(|t| format!("{t:.3}")).collect();
    writeln!(
        out,
        "packet n{origin}#{seq} path {} times {}",
        path_s.join("-"),
        times_s.join(" ")
    )
}

/// The (timestamp, delay) samples one event contributes to a streamed
/// AGG fold: the node's per-hop sojourns (keyed by arrival time there)
/// under a NODE filter, the end-to-end delay keyed by generation time
/// otherwise.
fn fold_samples(filter: SubFilter, path: &[u16], times: &[f64], sink: &mut Vec<(f64, f64)>) {
    match filter {
        SubFilter::Node(id) => {
            for (i, w) in times.windows(2).enumerate() {
                if path.get(i) == Some(&id) {
                    sink.push((w[0], (w[1] - w[0]).max(0.0)));
                }
            }
        }
        SubFilter::All | SubFilter::Path { .. } => {
            if let (Some(&first), Some(&last)) = (times.first(), times.last()) {
                sink.push((first, (last - first).max(0.0)));
            }
        }
    }
}

/// Streaming AGG fold: per-bucket sketches held open until a strictly
/// newer bucket appears, then flushed oldest-first. Emission order is
/// near time order; a sample older than every open bucket after a
/// flush re-opens its bucket (the client may see a bucket twice under
/// heavy reordering — each line is still a correct partial aggregate).
struct AggFold {
    bucket_ms: u64,
    open: BTreeMap<i64, DelaySketch>,
    newest: Option<i64>,
}

impl AggFold {
    fn new(bucket_ms: u64) -> Self {
        Self {
            bucket_ms,
            open: BTreeMap::new(),
            newest: None,
        }
    }

    fn add(&mut self, t: f64, v: f64, out: &mut impl Write) -> std::io::Result<()> {
        if !t.is_finite() || !v.is_finite() {
            return Ok(());
        }
        let k = (t / self.bucket_ms as f64).floor() as i64;
        self.open.entry(k).or_default().record(v);
        let newest = self.newest.map_or(k, |n| n.max(k));
        self.newest = Some(newest);
        while self
            .open
            .first_key_value()
            .is_some_and(|(&oldest, _)| oldest < newest)
        {
            if let Some((oldest, s)) = self.open.pop_first() {
                self.emit(oldest, &s, out)?;
            }
        }
        Ok(())
    }

    fn finish(&mut self, out: &mut impl Write) -> std::io::Result<()> {
        while let Some((k, s)) = self.open.pop_first() {
            self.emit(k, &s, out)?;
        }
        Ok(())
    }

    fn emit(&self, key: i64, s: &DelaySketch, out: &mut impl Write) -> std::io::Result<()> {
        let start_ms = key.saturating_mul(self.bucket_ms as i64);
        if let Some(b) = AggBucket::from_sketch(start_ms, s) {
            write_bucket(out, &b)?;
        }
        Ok(())
    }
}

/// Push-mode connection body: emits the backfill, then relays the live
/// subscription until the client goes away (`QUIT` or EOF), the
/// service closes, or the hub sheds the subscriber for lagging.
fn stream_subscription(
    mut reader: BufReader<TcpStream>,
    mut out: BufWriter<TcpStream>,
    service: &SinkService,
    spec: SubscribeSpec,
) -> std::io::Result<()> {
    let (sub, backfill) = service.subscribe(spec.filter, spec.replay);
    let desc = match spec.filter {
        SubFilter::All => "all".to_string(),
        SubFilter::Node(id) => format!("node {id}"),
        SubFilter::Path { src, dst } => format!("path {src} {dst}"),
    };
    let agg_desc = spec
        .agg_bucket_ms
        .map(|b| format!(" agg {b}"))
        .unwrap_or_default();
    writeln!(
        out,
        "OK subscribed {desc}{agg_desc} backfill {}",
        backfill.len()
    )?;

    let mut fold = spec.agg_bucket_ms.map(AggFold::new);
    let mut samples = Vec::new();
    let mut emit = |out: &mut BufWriter<TcpStream>,
                    fold: &mut Option<AggFold>,
                    origin: u16,
                    seq: u32,
                    path: &[u16],
                    times: &[f64]|
     -> std::io::Result<()> {
        match fold {
            Some(f) => {
                samples.clear();
                fold_samples(spec.filter, path, times, &mut samples);
                for &(t, v) in &samples {
                    f.add(t, v, out)?;
                }
                Ok(())
            }
            None => write_event_line(out, origin, seq, path, times),
        }
    };

    let mut path_buf: Vec<u16> = Vec::new();
    for (pid, rec) in &backfill {
        path_buf.clear();
        path_buf.extend(rec.path.iter().map(|n| n.index() as u16));
        emit(
            &mut out,
            &mut fold,
            pid.origin.index() as u16,
            pid.seq,
            &path_buf,
            &rec.hop_times_ms,
        )?;
    }
    out.flush()?;

    // Poll the inbound half between receives so QUIT and EOF are
    // honored promptly even while the stream is quiet. The poll
    // deadline adapts: 1 ms while events flow (QUIT latency stays
    // negligible on a busy stream), doubling to a 250 ms ceiling as the
    // stream idles so a parked subscriber costs a few wakeups per
    // second instead of a thousand.
    const POLL_MIN_MS: u64 = 1;
    const POLL_MAX_MS: u64 = 250;
    // Events drained per socket poll: bounds inbound-QUIT latency under
    // a flood without paying the socket deadline per event.
    const EVENT_BURST: usize = 256;
    let mut poll_ms = POLL_MIN_MS;
    let mut armed_ms = 0u64;
    let mut line = String::new();
    let mut shed = false;
    'push: loop {
        if armed_ms != poll_ms {
            reader
                .get_ref()
                .set_read_timeout(Some(Duration::from_millis(poll_ms)))?;
            armed_ms = poll_ms;
        }
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => break, // client hung up
            Ok(_) => {
                if line.trim().eq_ignore_ascii_case("QUIT") {
                    break;
                }
                // Any other inbound traffic mid-stream is ignored: the
                // connection is in push mode.
            }
            Err(e) if is_read_deadline(&e) => {}
            Err(e) => return Err(e),
        }
        let mut delivered = 0usize;
        while delivered < EVENT_BURST {
            // After the first delivery the queue is drained without
            // waiting; an empty queue comes back as an instant Timeout.
            let wait = if delivered == 0 {
                Duration::from_millis(100)
            } else {
                Duration::ZERO
            };
            match sub.recv(wait) {
                RecvOutcome::Event(ev) => {
                    emit(
                        &mut out,
                        &mut fold,
                        ev.origin,
                        ev.seq,
                        &ev.path,
                        &ev.hop_times_ms,
                    )?;
                    delivered += 1;
                }
                RecvOutcome::Timeout => break,
                RecvOutcome::Closed { shed: s } => {
                    shed = s;
                    break 'push;
                }
            }
        }
        if delivered > 0 {
            let lagged = sub.take_lagged();
            if lagged > 0 {
                writeln!(out, "lagged {lagged}")?;
            }
            out.flush()?;
            poll_ms = POLL_MIN_MS;
        } else {
            OBS_SUB_IDLE_WAKEUPS.inc();
            out.flush()?;
            poll_ms = (poll_ms * 2).min(POLL_MAX_MS);
        }
    }
    if let Some(f) = fold.as_mut() {
        f.finish(&mut out)?;
    }
    if shed {
        writeln!(out, "SHED lagged {}", sub.lagged_total())?;
    }
    writeln!(out, "END")?;
    out.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{query_request, QueryClient};
    use crate::wire::encode_packets;
    use domo_net::{run_simulation, NetworkConfig};

    fn local_server(cfg: SinkConfig) -> SinkServer {
        SinkServer::bind("127.0.0.1:0", "127.0.0.1:0", cfg).expect("loopback bind")
    }

    #[test]
    fn full_round_trip_over_tcp() {
        let trace = run_simulation(&NetworkConfig::small(9, 920));
        let server = local_server(SinkConfig {
            shards: 1,
            ..SinkConfig::default()
        });

        let bytes = encode_packets(&trace.packets).expect("encodes");
        {
            let mut conn = TcpStream::connect(server.ingest_addr()).expect("connect");
            conn.write_all(&bytes).expect("send");
        } // close → server finishes reading

        // Wait for the ingest handler to finish consuming the stream.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        loop {
            if server.service().stats().ingested == trace.packets.len() as u64 {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "ingest stalled");
            std::thread::sleep(std::time::Duration::from_millis(10));
        }

        let mut q = QueryClient::connect(server.query_addr()).expect("query connect");
        let drain = q.request("DRAIN").expect("drain");
        assert_eq!(drain.len(), 1);
        assert!(drain[0].starts_with("OK emitted "));
        let stats = q.request("STATS").expect("stats");
        assert!(stats.contains(&format!("emitted {}", trace.packets.len())));

        let pid = trace.packets[0].pid;
        let lines = q
            .request(&format!("PACKET {} {}", pid.origin.index(), pid.seq))
            .expect("packet");
        assert!(lines[0].starts_with(&format!("packet {pid} path ")));

        let nodes = q.request("NODES").expect("nodes");
        assert!(!nodes.is_empty());

        // METRICS exposes pipeline telemetry from every layer: the
        // solver and estimator ran during DRAIN, the sink counted the
        // ingest, and the shard gauges were registered at startup.
        let metrics = q.request("METRICS").expect("metrics");
        assert!(metrics.contains(&"# TYPE domo_solver_iterations histogram".to_string()));
        assert!(
            metrics.contains(&"# TYPE domo_estimator_window_solve_seconds histogram".to_string())
        );
        assert!(metrics
            .iter()
            .any(|l| l.starts_with("domo_sink_queue_depth{shard=\"0\"}")));
        assert!(metrics
            .iter()
            .any(|l| l.starts_with("domo_sink_ingested_total")));
        let json = q.request("METRICS JSON").expect("metrics json");
        assert!(!json.is_empty());
        assert!(json.iter().all(|l| l.starts_with('{') && l.ends_with('}')));

        // One-shot helper and unknown-command handling. 16 status lines
        // plus the `store disabled` durability marker.
        let oneshot = query_request(server.query_addr(), "STATS").expect("oneshot");
        assert_eq!(oneshot.len(), 19);
        assert!(oneshot.contains(&"store disabled".to_string()));
        assert!(oneshot.contains(&"subscribers 0".to_string()));
        // Every v1 sender lives in the legacy tenant-0 namespace.
        assert!(oneshot.contains(&"tenants 1".to_string()));
        assert!(oneshot.contains(&"cluster_role standalone".to_string()));
        assert!(oneshot.contains(&"health healthy".to_string()));
        assert!(oneshot.contains(&"watchdog_restarts 0".to_string()));
        assert!(oneshot.contains(&"watchdog_dropped 0".to_string()));
        assert!(oneshot.iter().any(|l| l.starts_with("uptime_ms ")));
        assert!(oneshot.contains(&format!("version {}", env!("CARGO_PKG_VERSION"))));
        // The effective flush threshold is surfaced, post-clamp.
        let default_hw = domo_core::StreamingEstimator::effective_high_water(
            &domo_core::EstimatorConfig::default(),
            None,
        );
        assert!(oneshot.contains(&format!("high_water {default_hw}")));
        let err = q.request("BOGUS").expect("err reply");
        assert!(err[0].starts_with("ERR unknown command"));

        let snap = server.shutdown();
        assert_eq!(snap.stats.emitted, trace.packets.len() as u64);
        assert_eq!(snap.stats.malformed_frames, 0);
    }

    /// Two tenants stream the same simulated trace as v2 frames into
    /// one sink with a per-tenant quota: the namespaces stay disjoint,
    /// the quota rejects the overflow per tenant (visible in `TENANTS`
    /// and the STATS `tenants` line), and `AGG … PARTS` hands back
    /// mergeable sketches that agree with the rendered reply.
    #[test]
    fn tenant_namespaces_quota_and_parts_over_tcp() {
        let trace = run_simulation(&NetworkConfig::small(9, 930));
        let quota = trace.packets.len() as u64 - 3;
        let server = local_server(SinkConfig {
            shards: 1,
            tenant_quota: Some(quota),
            ..SinkConfig::default()
        });

        for tenant in [1u16, 2] {
            let mut bytes = Vec::new();
            for p in &trace.packets {
                crate::wire::encode_packet_v2(p, tenant, &mut bytes).expect("encodes v2");
            }
            let mut conn = TcpStream::connect(server.ingest_addr()).expect("connect");
            conn.write_all(&bytes).expect("send");
        }

        // Each tenant gets `quota` accepts and 3 quota rejections;
        // per-connection ordering makes both counts exact.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        loop {
            let s = server.service().stats();
            if s.ingested == 2 * quota && server.service().quota_rejected() == 6 {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "ingest stalled");
            std::thread::sleep(std::time::Duration::from_millis(10));
        }

        let mut q = QueryClient::connect(server.query_addr()).expect("query connect");
        q.request("DRAIN").expect("drain");

        let stats = q.request("STATS").expect("stats");
        assert!(stats.contains(&"tenants 2".to_string()));
        let tenants = q.request("TENANTS").expect("tenants");
        assert_eq!(
            tenants,
            vec![
                format!("tenant 1 accepted {quota}"),
                format!("tenant 2 accepted {quota}"),
                format!("quota {quota}"),
                "quota_rejected 6".to_string(),
            ]
        );
        let one = q.request("TENANTS 2").expect("tenants 2");
        assert_eq!(one, vec![format!("tenant 2 accepted {quota}")]);
        for probe in ["TENANTS 9", "TENANTS bogus"] {
            let unknown = q.request(probe).expect("unknown tenant");
            assert_eq!(unknown, vec!["ERR unknown-tenant".to_string()]);
        }

        // Tenant 1's nodes live at stride offset 4096; query one both
        // rendered and as PARTS and check the sketches agree.
        let nodes = q.request("NODES").expect("nodes");
        let node: u16 = nodes
            .iter()
            .filter_map(|l| l.split_whitespace().nth(1)?.parse::<u16>().ok())
            .find(|&n| domo_cluster::tenant_of(n) == 1 && n != domo_cluster::SINK_NODE)
            .expect("a tenant-1 node");
        let rendered = q
            .request(&format!("AGG {node} 0 1000000000 1000000000"))
            .expect("agg");
        assert!(rendered[0].starts_with("bucket "));
        let parts_reply = q
            .request(&format!("AGG {node} 0 1000000000 1000000000 PARTS"))
            .expect("agg parts");
        assert_eq!(parts_reply.len(), rendered.len());
        let text = parts_reply[0]
            .strip_prefix("bucket ")
            .and_then(|r| r.split_once(" parts "))
            .map(|(_, t)| t)
            .expect("parts line shape");
        let parts = domo_query::SketchParts::decode_text(text).expect("parts decode");
        let count: u64 = rendered[0]
            .split_whitespace()
            .nth(3)
            .and_then(|t| t.parse().ok())
            .expect("rendered count");
        assert_eq!(parts.count, count);
        let bad = q.request("AGG 0 0 10 100 NONSENSE").expect("bad mode");
        assert!(bad[0].starts_with("ERR usage"));

        server.shutdown();
    }

    #[test]
    fn durable_server_exposes_store_commands() {
        let trace = run_simulation(&NetworkConfig::small(9, 925));
        let dir = std::env::temp_dir().join(format!("domo-server-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let server = local_server(SinkConfig {
            shards: 1,
            store: Some(crate::StoreConfig::at(&dir)),
            ..SinkConfig::default()
        });

        let bytes = encode_packets(&trace.packets).expect("encodes");
        {
            let mut conn = TcpStream::connect(server.ingest_addr()).expect("connect");
            conn.write_all(&bytes).expect("send");
        }
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        loop {
            if server.service().stats().ingested == trace.packets.len() as u64 {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "ingest stalled");
            std::thread::sleep(std::time::Duration::from_millis(10));
        }

        let mut q = QueryClient::connect(server.query_addr()).expect("query connect");
        q.request("DRAIN").expect("drain");

        // STATS advertises the durability posture.
        let stats = q.request("STATS").expect("stats");
        assert!(stats.contains(&format!("data_dir {}", dir.display())));
        assert!(stats.contains(&"fsync interval:64".to_string()));
        assert!(!stats.contains(&"store disabled".to_string()));

        // STORE STATS shows the WAL holding every ingested record and
        // the result log holding every emission.
        let store = q.request("STORE STATS").expect("store stats");
        assert!(store.contains(&format!("wal_next_lsn {}", trace.packets.len())));
        assert!(store.contains(&format!("result_records {}", trace.packets.len())));

        // CHECKPOINT returns the covered cut; RANGE then serves every
        // durable reconstruction.
        let ckpt = q.request("CHECKPOINT").expect("checkpoint");
        assert_eq!(ckpt, vec![format!("OK lsn {}", trace.packets.len())]);
        let range = q.request("RANGE -inf inf").expect("range");
        assert!(range.contains(&format!("count {}", trace.packets.len())));
        assert_eq!(range.len(), trace.packets.len() + 1);
        let none = q.request("RANGE -5 -1").expect("empty range");
        assert_eq!(none, vec!["count 0".to_string()]);
        // Degenerate windows: reversed bounds are a clean empty reply
        // (no silent full scan), NaN bounds a structured error.
        let reversed = q.request("RANGE 100 0").expect("reversed range");
        assert_eq!(reversed, vec!["count 0".to_string()]);
        let nan = q.request("RANGE NaN 5").expect("nan range");
        assert!(nan[0].starts_with("ERR "));
        let bad = q.request("RANGE a b").expect("bad args");
        assert!(bad[0].starts_with("ERR usage"));

        // AGG over the whole run: bucket lines plus a trailing count,
        // totalling every per-hop sojourn recorded for the node.
        let nodes = q.request("NODES").expect("nodes");
        let first = nodes.first().and_then(|l| {
            let mut it = l.split_whitespace();
            (it.next() == Some("node")).then(|| it.next())?
        });
        let node: u16 = first.expect("a node line").parse().expect("node id");
        let agg = q
            .request(&format!("AGG {node} 0 1000000000 1000000000"))
            .expect("agg");
        assert!(agg.len() >= 2, "expected bucket + count lines: {agg:?}");
        assert!(agg[0].starts_with("bucket "));
        assert_eq!(agg[agg.len() - 1], format!("count {}", agg.len() - 1));
        let bad_agg = q.request("AGG 0 10 0 100").expect("reversed agg");
        assert!(bad_agg[0].starts_with("ERR "));
        let bad_bucket = q.request("AGG 0 0 10 0").expect("zero bucket");
        assert!(bad_bucket[0].starts_with("ERR "));

        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_commands_err_cleanly_when_disabled() {
        let server = local_server(SinkConfig::default());
        let mut q = QueryClient::connect(server.query_addr()).expect("query connect");
        let store = q.request("STORE STATS").expect("reply");
        assert!(store[0].starts_with("ERR"));
        let range = q.request("RANGE 0 1").expect("reply");
        assert!(range[0].starts_with("ERR"));
        let ckpt = q.request("CHECKPOINT").expect("reply");
        assert!(ckpt[0].starts_with("ERR"));
        server.shutdown();
    }

    #[test]
    fn idle_ingest_connections_are_shed_and_err_replies_are_counted() {
        let server = local_server(SinkConfig {
            ingest_idle_timeout: Some(std::time::Duration::from_millis(100)),
            ..SinkConfig::default()
        });

        // A silent ingest connection must trip the deadline and land in
        // the typed shed counter; the query listener (no timeout here)
        // keeps answering throughout.
        let _silent = TcpStream::connect(server.ingest_addr()).expect("connect");
        let mut q = QueryClient::connect(server.query_addr()).expect("query connect");
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        loop {
            let metrics = q.request("METRICS").expect("metrics");
            if metrics
                .iter()
                .any(|l| l.starts_with("domo_sink_shed_total{reason=\"idle\"}"))
            {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "shed never counted");
            std::thread::sleep(std::time::Duration::from_millis(20));
        }

        // Every ERR reply increments the query-error counter (the
        // global recorder is shared across tests, so only require that
        // the family exists and is nonzero after a provoked error).
        let err = q.request("BOGUS").expect("err reply");
        assert!(err[0].starts_with("ERR unknown command"));
        let metrics = q.request("METRICS").expect("metrics");
        let errors = metrics
            .iter()
            .find_map(|l| l.strip_prefix("domo_sink_query_errors_total "))
            .and_then(|v| v.parse::<f64>().ok())
            .expect("query error counter exposed");
        assert!(errors >= 1.0);
        server.shutdown();
    }

    #[test]
    fn over_cap_ingest_connections_are_shed_and_counted() {
        let server = local_server(SinkConfig {
            shards: 1,
            max_conns: 2,
            ..SinkConfig::default()
        });

        // Hold more idle ingest connections than the cap allows; the
        // accept loop registers two and refuses the third with a typed
        // counter instead of spawning anything for it.
        let _held: Vec<TcpStream> = (0..3)
            .map(|_| TcpStream::connect(server.ingest_addr()).expect("connect"))
            .collect();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        loop {
            let metrics = query_request(server.query_addr(), "METRICS").expect("metrics");
            if metrics
                .iter()
                .any(|l| l.starts_with("domo_sink_shed_total{reason=\"overcap\"}"))
            {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "overcap never counted"
            );
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        server.shutdown();
    }

    #[test]
    fn garbage_on_the_ingest_port_is_survived_and_counted() {
        let trace = run_simulation(&NetworkConfig::small(9, 921));
        let server = local_server(SinkConfig::default());

        // Pure garbage on its own connection.
        {
            let mut conn = TcpStream::connect(server.ingest_addr()).expect("connect");
            conn.write_all(b"this is not a frame at all")
                .expect("send garbage");
        }
        // A valid stream afterwards still works.
        let bytes = encode_packets(&trace.packets).expect("encodes");
        {
            let mut conn = TcpStream::connect(server.ingest_addr()).expect("connect");
            conn.write_all(&bytes).expect("send");
        }
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        loop {
            let s = server.service().stats();
            if s.ingested == trace.packets.len() as u64 && s.malformed_frames >= 1 {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "ingest stalled");
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        let snap = server.shutdown();
        assert!(snap.stats.malformed_frames >= 1);
        assert_eq!(snap.stats.emitted, trace.packets.len() as u64);
    }

    #[test]
    fn trace_flight_and_http_metrics_commands() {
        // Sample every packet so the journey for a known pid is present.
        // Set before the ingest bytes hit the reactor: the first stamp
        // (reactor_read) fires at frame-decode time.
        domo_obs::trace::set_sample_every(Some(1));
        let trace = run_simulation(&NetworkConfig::small(9, 927));
        let dir = std::env::temp_dir().join(format!("domo-server-trace-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let server = local_server(SinkConfig {
            shards: 1,
            store: Some(crate::StoreConfig::at(&dir)),
            ..SinkConfig::default()
        });

        let bytes = encode_packets(&trace.packets).expect("encodes");
        {
            let mut conn = TcpStream::connect(server.ingest_addr()).expect("connect");
            conn.write_all(&bytes).expect("send");
        }
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        loop {
            if server.service().stats().ingested == trace.packets.len() as u64 {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "ingest stalled");
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        let mut q = QueryClient::connect(server.query_addr()).expect("query connect");
        q.request("DRAIN").expect("drain");

        // TRACE: the sampled pid shows the full pipeline in stage order
        // with monotone timestamps. With one subscriber-free durable
        // sink we expect every stage except subscriber_send.
        let pid = trace.packets[0].pid;
        let lines = q
            .request(&format!("TRACE {} {}", pid.origin.index(), pid.seq))
            .expect("trace");
        assert!(
            lines[0].starts_with(&format!(
                "pid {}#{} sample_every 1 stages ",
                pid.origin.index(),
                pid.seq
            )),
            "unexpected TRACE header: {}",
            lines[0]
        );
        let stages: Vec<(&str, u64)> = lines[1..]
            .iter()
            .map(|l| {
                let mut it = l.split_whitespace();
                assert_eq!(it.next(), Some("stage"), "bad stage line: {l}");
                let name = it.next().expect("stage name");
                assert_eq!(it.next(), Some("t_ns"));
                let t: u64 = it.next().expect("t_ns value").parse().expect("t_ns u64");
                (name, t)
            })
            .collect();
        assert!(
            stages.len() >= 6,
            "expected >=6 stages, got {}: {stages:?}",
            stages.len()
        );
        for pair in stages.windows(2) {
            assert!(pair[0].1 <= pair[1].1, "timestamps regressed: {stages:?}");
        }
        let catalog: Vec<&str> = domo_obs::trace::Stage::ALL
            .iter()
            .map(|s| s.name())
            .collect();
        let idx_of = |n: &str| catalog.iter().position(|c| *c == n).expect("known stage");
        for pair in stages.windows(2) {
            assert!(
                idx_of(pair[0].0) < idx_of(pair[1].0),
                "stages out of pipeline order: {stages:?}"
            );
        }
        for expect in [
            "reactor_read",
            "wal_append",
            "flush",
            "window_solve",
            "result_append",
        ] {
            assert!(
                stages.iter().any(|(n, _)| *n == expect),
                "missing stage {expect}: {stages:?}"
            );
        }
        // Unsampled / unknown pids get a structured error, not a hang.
        let miss = q.request("TRACE 65000 1").expect("miss");
        assert!(miss[0].starts_with("ERR no journey"));
        let bad = q.request("TRACE nope").expect("bad");
        assert!(bad[0].starts_with("ERR usage"));

        // METRICS exports one series per stage plus the end-to-end
        // histogram; METRICS JSON carries the bucket bounds.
        let metrics = q.request("METRICS").expect("metrics");
        for name in &catalog {
            let needle = format!("domo_trace_stage_seconds_count{{stage=\"{name}\"}}");
            assert!(
                metrics.iter().any(|l| l.starts_with(&needle)),
                "missing series for stage {name}"
            );
        }
        assert!(metrics
            .iter()
            .any(|l| l.starts_with("domo_trace_end_to_end_seconds_count")));
        let json = q.request("METRICS JSON").expect("metrics json");
        assert!(json.iter().any(|l| l.contains("\"bounds\":[0.000001,")));

        // FLIGHT lists recent structured events newest-last; DUMP on a
        // durable server lands a parseable JSONL file in the data dir.
        domo_obs::flight!("server_test_marker", n = 1u64);
        let flight = q.request("FLIGHT").expect("flight");
        assert!(flight
            .iter()
            .any(|l| l.contains("\"kind\":\"server_test_marker\"")));
        assert!(flight.iter().all(|l| l.starts_with("{\"seq\":")));
        let dump = q.request("FLIGHT DUMP").expect("flight dump");
        let path = dump[0]
            .strip_prefix("dumped ")
            .unwrap_or_else(|| panic!("unexpected FLIGHT DUMP reply: {}", dump[0]));
        let body = std::fs::read_to_string(path).expect("dump file readable");
        assert!(body.lines().count() >= 1);
        assert!(body.lines().all(|l| l.starts_with("{\"seq\":")));

        // GET /metrics speaks enough HTTP for a Prometheus scraper.
        let mut http = TcpStream::connect(server.query_addr()).expect("http connect");
        http.write_all(b"GET /metrics HTTP/1.1\r\nHost: sink\r\nAccept: */*\r\n\r\n")
            .expect("send request");
        let mut resp = String::new();
        use std::io::Read as _;
        http.read_to_string(&mut resp).expect("read response");
        assert!(resp.starts_with("HTTP/1.1 200 OK\r\n"), "got: {resp}");
        assert!(resp.contains("Content-Type: text/plain; version=0.0.4; charset=utf-8"));
        assert!(resp.contains("Content-Length: "));
        assert!(resp.contains("# TYPE domo_sink_ingested_total counter"));
        // Unknown paths 404 without wedging the listener.
        let mut http = TcpStream::connect(server.query_addr()).expect("http connect");
        http.write_all(b"GET /nope HTTP/1.1\r\n\r\n").expect("send");
        let mut resp = String::new();
        http.read_to_string(&mut resp).expect("read response");
        assert!(
            resp.starts_with("HTTP/1.1 404 Not Found\r\n"),
            "got: {resp}"
        );

        domo_obs::trace::set_sample_every(None);
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
