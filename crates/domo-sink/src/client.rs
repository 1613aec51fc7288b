//! Client-side pieces: a query-protocol client, the trace replay
//! driver that feeds a simulated (or recorded) trace to a running sink
//! over the wire, and the `tail` follower that consumes a `SUBSCRIBE`
//! push stream with reconnect — the whole service is testable
//! end-to-end without real hardware.

use crate::server::packet_line;
use crate::service::{SinkConfig, SinkService};
use crate::wire::{encode_packet, encoded_len};
use domo_net::CollectedPacket;
use std::collections::HashSet;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// A persistent connection to the sink's query port.
pub struct QueryClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl QueryClient {
    /// Connects to the query listener.
    ///
    /// # Errors
    ///
    /// Propagates connect failures.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Self {
            reader,
            writer: BufWriter::new(stream),
        })
    }

    /// Sends one command line and collects the response lines up to the
    /// terminating `END` (which is not included).
    ///
    /// # Errors
    ///
    /// I/O failures, or `UnexpectedEof` if the server closes mid-reply.
    pub fn request(&mut self, command: &str) -> std::io::Result<Vec<String>> {
        writeln!(self.writer, "{command}")?;
        self.writer.flush()?;
        let mut lines = Vec::new();
        loop {
            let mut line = String::new();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed mid-reply",
                ));
            }
            let line = line.trim_end().to_string();
            if line == "END" {
                return Ok(lines);
            }
            lines.push(line);
        }
    }

    /// Polls `STATS` every 20 ms until `done` accepts the parsed
    /// reply, and returns that reply.
    ///
    /// # Errors
    ///
    /// Request failures, or `TimedOut` (quoting the last reply) once
    /// `timeout` has passed.
    pub fn wait_stats(
        &mut self,
        timeout: Duration,
        done: impl Fn(&[(String, u64)]) -> bool,
    ) -> std::io::Result<Vec<(String, u64)>> {
        let deadline = Instant::now() + timeout;
        loop {
            let stats = parse_stats(&self.request("STATS")?);
            if done(&stats) {
                return Ok(stats);
            }
            if Instant::now() > deadline {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    format!("stalled at {stats:?}"),
                ));
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }
}

/// One-shot convenience: connect, send one command, return the reply.
///
/// # Errors
///
/// Same conditions as [`QueryClient::request`].
pub fn query_request<A: ToSocketAddrs>(addr: A, command: &str) -> std::io::Result<Vec<String>> {
    QueryClient::connect(addr)?.request(command)
}

/// Parses a `STATS` reply into `(name, value)` pairs, skipping
/// malformed lines.
pub fn parse_stats(lines: &[String]) -> Vec<(String, u64)> {
    lines
        .iter()
        .filter_map(|l| {
            let mut it = l.split_whitespace();
            let name = it.next()?.to_string();
            let value = it.next()?.parse().ok()?;
            Some((name, value))
        })
        .collect()
}

/// The value of counter `name` in a [`parse_stats`] result, 0 when
/// absent.
pub fn stat(stats: &[(String, u64)], name: &str) -> u64 {
    stats.iter().find(|(n, _)| n == name).map_or(0, |(_, v)| *v)
}

/// The sorted `PACKET` / `RANGE` reply lines an undisturbed in-process
/// service configured as `cfg` (volatile) produces for `packets` — the
/// truth the crash, chaos and cluster gates diff a recovered sink
/// against. Admission is partition invariant, so one whole-trace batch
/// stands for whatever batches the reactor cut on the wire.
///
/// # Errors
///
/// Names the first packet the reference failed to reconstruct.
pub fn reference_lines(
    cfg: SinkConfig,
    packets: &[CollectedPacket],
) -> Result<Vec<String>, String> {
    let reference = SinkService::start(cfg);
    reference.ingest_batch(packets);
    reference.drain();
    let lines = packets
        .iter()
        .map(|p| match reference.reconstruction(p.pid) {
            Some(r) => Ok(packet_line(p.pid, &r)),
            None => Err(format!("reference lost {}", p.pid)),
        })
        .collect::<Result<Vec<String>, String>>();
    reference.shutdown();
    let mut lines = lines?;
    lines.sort();
    Ok(lines)
}

/// Polls the sink at `query` until a durable `RANGE -inf inf` scan
/// holds exactly `expected.len()` records — sending `before` (e.g.
/// `DRAIN`, `CHECKPOINT`) ahead of every scan — then requires the
/// sorted record lines to equal `expected` (sorted, as
/// [`reference_lines`] returns them).
///
/// # Errors
///
/// Query failures, more records than expected (a double emit), the
/// timeout, or the first line where the sink diverges from `expected`.
pub fn await_range(
    query: &str,
    before: &[&str],
    expected: &[String],
    timeout: Duration,
) -> Result<(), String> {
    let total = expected.len();
    let deadline = Instant::now() + timeout;
    let mut got = loop {
        for cmd in before {
            query_request(query, cmd).map_err(|e| format!("{cmd}: {e}"))?;
        }
        let mut lines =
            query_request(query, "RANGE -inf inf").map_err(|e| format!("range: {e}"))?;
        let count_line = lines.pop().unwrap_or_default();
        if count_line == format!("count {total}") {
            break lines;
        }
        if lines.len() > total {
            return Err(format!(
                "double-emit: RANGE returned {} records for {total} packets",
                lines.len()
            ));
        }
        if Instant::now() > deadline {
            return Err(format!("stalled: {count_line} (want count {total})"));
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    got.sort();
    match got.iter().zip(expected).find(|(g, e)| g != e) {
        Some((g, e)) => Err(format!("state diverges: got `{g}` want `{e}`")),
        None => Ok(()),
    }
}

/// A `domo-sink serve` child process on OS-assigned loopback ports,
/// killed and reaped on drop — so no error path of a smoke or soak can
/// leak a background sink (a leaked child that inherited the parent's
/// stdio pipes wedges any harness waiting for them to close).
pub struct ServeChild {
    child: std::process::Child,
    /// The child's ingest listener address.
    pub ingest: String,
    /// The child's query listener address.
    pub query: String,
}

impl ServeChild {
    /// Spawns `bin serve --ingest-port 0 --query-port 0 --addr-file
    /// <addr_file> <extra…>` and polls the addr file until both bound
    /// addresses appear. Child stdio goes to null: a harness judges
    /// the child through the query protocol, not by scraping its logs.
    ///
    /// # Errors
    ///
    /// Spawn failures, or `TimedOut` if the child has not published
    /// its addresses within 30 s.
    pub fn spawn(
        bin: &std::path::Path,
        addr_file: &std::path::Path,
        extra: &[&str],
    ) -> std::io::Result<Self> {
        use std::process::{Command, Stdio};
        let _ = std::fs::remove_file(addr_file);
        let child = Command::new(bin)
            .args(["serve", "--ingest-port", "0", "--query-port", "0"])
            .arg("--addr-file")
            .arg(addr_file)
            .args(extra)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()?;
        let mut serve = Self {
            child,
            ingest: String::new(),
            query: String::new(),
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Ok(text) = std::fs::read_to_string(addr_file) {
                let mut lines = text.lines();
                if let (Some(ingest), Some(query)) = (lines.next(), lines.next()) {
                    serve.ingest = ingest.to_string();
                    serve.query = query.to_string();
                    return Ok(serve);
                }
            }
            if Instant::now() > deadline {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    "serve child never published its addresses",
                ));
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    /// SIGKILLs and reaps the child now (dropping it does the same).
    ///
    /// # Errors
    ///
    /// Propagates the kill failure.
    pub fn kill(&mut self) -> std::io::Result<()> {
        self.child.kill()?;
        self.child.wait().map(drop)
    }

    /// The child's exit status if it has already exited on its own.
    ///
    /// # Errors
    ///
    /// Propagates the wait failure.
    pub fn exit_status(&mut self) -> std::io::Result<Option<std::process::ExitStatus>> {
        self.child.try_wait()
    }
}

impl Drop for ServeChild {
    fn drop(&mut self) {
        let _ = self.kill();
    }
}

/// Knobs of [`replay_packets`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplayOptions {
    /// Target send rate in packets per second; `0.0` floods as fast as
    /// the socket accepts.
    pub rate_pps: f64,
    /// After the clean stream, open a separate connection and send this
    /// many garbage frames (exercises the server's malformed-frame
    /// path; a corrupt frame poisons its own connection, so they never
    /// share the stream with real records).
    pub garbage_frames: usize,
    /// Connection failures tolerated across the whole run before the
    /// error propagates (`0` = fail on the first, the old behavior).
    /// After each reconnect the stream restarts from the first frame:
    /// TCP gives no application-level acknowledgement, so anything sent
    /// on the dead connection is in doubt — the sink deduplicates, so a
    /// retransmitted prefix is quarantined, never double-counted.
    pub max_reconnects: usize,
    /// First retry delay; doubles per consecutive failure.
    pub backoff_start_ms: u64,
    /// Ceiling on the exponential backoff delay.
    pub backoff_cap_ms: u64,
    /// Jitter fraction applied to each backoff delay: the sleep is
    /// drawn deterministically from `[(1-jitter)·d, (1+jitter)·d]`
    /// around the exponential delay `d`, so a fleet of replayers
    /// reconnecting after the same sink restart does not stampede in
    /// lockstep. Clamped to `[0, 1]`; `0.0` restores exact exponential
    /// delays.
    pub jitter: f64,
    /// Seed for the jitter draw — the whole backoff schedule is a pure
    /// function of `(seed, consecutive_failures)`, so runs are
    /// reproducible.
    pub seed: u64,
    /// Socket write-buffer size in bytes. Flood mode (`rate_pps == 0`)
    /// pipelines whole buffers of frames per `write(2)`, so the sink's
    /// reactor decodes hundreds of frames per read instead of one;
    /// paced mode still flushes per frame. Values below one frame are
    /// rounded up to a working minimum.
    pub write_buffer: usize,
}

impl Default for ReplayOptions {
    fn default() -> Self {
        Self {
            rate_pps: 0.0,
            garbage_frames: 0,
            max_reconnects: 0,
            backoff_start_ms: 50,
            backoff_cap_ms: 2_000,
            jitter: 0.25,
            seed: 1,
            write_buffer: 256 * 1024,
        }
    }
}

/// SplitMix64: a tiny, high-quality mixer — one draw per backoff.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Capped exponential backoff with deterministic jitter, shared by the
/// replay driver, the tail follower, and the cluster router (see
/// [`ReplayOptions::jitter`] for the schedule's contract).
pub(crate) fn backoff_delay(
    start_ms: u64,
    cap_ms: u64,
    jitter: f64,
    seed: u64,
    consecutive_failures: u32,
) -> Duration {
    let start = start_ms.max(1);
    let cap = cap_ms.max(start);
    let base = start
        .saturating_mul(1u64 << consecutive_failures.min(16))
        .min(cap);
    let jitter = jitter.clamp(0.0, 1.0);
    // Uniform in [-1, 1], deterministic per (seed, attempt).
    let unit =
        splitmix64(seed.wrapping_add(u64::from(consecutive_failures))) as f64 / u64::MAX as f64;
    let factor = 1.0 + jitter * (2.0 * unit - 1.0);
    Duration::from_secs_f64(base as f64 * factor / 1_000.0)
}

impl ReplayOptions {
    fn backoff(&self, consecutive_failures: u32) -> Duration {
        backoff_delay(
            self.backoff_start_ms,
            self.backoff_cap_ms,
            self.jitter,
            self.seed,
            consecutive_failures,
        )
    }
}

/// What a replay run did.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplayReport {
    /// Valid frames written, including any resent after a reconnect.
    pub frames: usize,
    /// Bytes of valid frames written.
    pub bytes: usize,
    /// Garbage frames sent on the side connection.
    pub garbage_frames: usize,
    /// Wall-clock seconds spent sending the valid stream.
    pub seconds: f64,
    /// Connections re-established after a failure.
    pub reconnects: usize,
}

fn connect_with_backoff(
    dial: &mut impl FnMut() -> std::io::Result<TcpStream>,
    opts: &ReplayOptions,
    reconnects: &mut usize,
    consecutive: &mut u32,
) -> std::io::Result<BufWriter<TcpStream>> {
    loop {
        match dial() {
            Ok(stream) => {
                let _ = stream.set_nodelay(true);
                return Ok(BufWriter::with_capacity(
                    opts.write_buffer.max(4096),
                    stream,
                ));
            }
            Err(e) => {
                if *reconnects >= opts.max_reconnects {
                    return Err(e);
                }
                *reconnects += 1;
                std::thread::sleep(opts.backoff(*consecutive));
                *consecutive += 1;
            }
        }
    }
}

/// Streams `packets` to a sink's ingest listener as wire frames, pacing
/// to `rate_pps` when nonzero.
///
/// With a nonzero [`ReplayOptions::max_reconnects`] the driver survives
/// a sink restart mid-stream: it reconnects with capped exponential
/// backoff and restarts the frame stream from the beginning (the sink
/// deduplicates the prefix). [`ReplayReport::reconnects`] counts the
/// re-established connections.
///
/// # Errors
///
/// Propagates connect/write failures once the reconnect budget is
/// spent; records whose paths exceed the wire cap are skipped (they
/// could never have been collected — the simulator's deepest paths are
/// an order of magnitude shorter).
pub fn replay_packets<A: ToSocketAddrs + Copy>(
    addr: A,
    packets: &[CollectedPacket],
    opts: &ReplayOptions,
) -> std::io::Result<ReplayReport> {
    replay_with(&mut || TcpStream::connect(addr), packets, opts)
}

/// [`replay_packets`] over a list of sink addresses with round-robin
/// fallback: the first connection goes to `addrs[0]`, and every
/// further (re)connection attempt moves to the next address in the
/// list, wrapping — so a replayer pointed at a replicated ingest tier
/// keeps streaming as long as *any* address accepts. The sinks'
/// dedup absorbs the restarted prefix exactly as in the single-address
/// driver.
///
/// # Errors
///
/// `InvalidInput` on an empty list; otherwise the same conditions as
/// [`replay_packets`].
pub fn replay_packets_multi(
    addrs: &[String],
    packets: &[CollectedPacket],
    opts: &ReplayOptions,
) -> std::io::Result<ReplayReport> {
    if addrs.is_empty() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "replay needs at least one sink address",
        ));
    }
    let mut attempt = 0usize;
    replay_with(
        &mut || {
            let a = &addrs[attempt % addrs.len()];
            attempt += 1;
            TcpStream::connect(a.as_str())
        },
        packets,
        opts,
    )
}

fn replay_with(
    dial: &mut impl FnMut() -> std::io::Result<TcpStream>,
    packets: &[CollectedPacket],
    opts: &ReplayOptions,
) -> std::io::Result<ReplayReport> {
    let mut reconnects = 0usize;
    let mut consecutive = 0u32;
    let mut out = connect_with_backoff(dial, opts, &mut reconnects, &mut consecutive)?;
    let start = Instant::now();
    let mut frame = Vec::with_capacity(packets.first().map_or(64, encoded_len));
    let mut frames = 0usize;
    let mut bytes = 0usize;
    let mut i = 0usize;
    while i < packets.len() {
        frame.clear();
        if encode_packet(&packets[i], &mut frame).is_err() {
            i += 1;
            continue;
        }
        let wrote = out.write_all(&frame).and_then(|()| {
            if opts.rate_pps > 0.0 {
                // Paced mode flushes every frame: errors surface at the
                // frame that hit them, and the socket stays interactive.
                out.flush()
            } else {
                Ok(())
            }
        });
        match wrote {
            Ok(()) => {
                frames += 1;
                bytes += frame.len();
                consecutive = 0;
                if opts.rate_pps > 0.0 {
                    // Pace against the schedule, not the previous send,
                    // so jitter does not accumulate.
                    let due = start + Duration::from_secs_f64((i + 1) as f64 / opts.rate_pps);
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                }
                i += 1;
            }
            Err(e) => {
                if reconnects >= opts.max_reconnects {
                    return Err(e);
                }
                reconnects += 1;
                std::thread::sleep(opts.backoff(consecutive));
                consecutive += 1;
                out = connect_with_backoff(dial, opts, &mut reconnects, &mut consecutive)?;
                i = 0; // restart: delivery on the dead socket is in doubt
            }
        }
    }
    // The final flush is subject to the same reconnect budget — a crash
    // during the flood-mode tail otherwise silently drops the buffer.
    while let Err(e) = out.flush() {
        if reconnects >= opts.max_reconnects {
            return Err(e);
        }
        reconnects += 1;
        std::thread::sleep(opts.backoff(consecutive));
        consecutive += 1;
        out = connect_with_backoff(dial, opts, &mut reconnects, &mut consecutive)?;
        // Resend everything on the fresh connection, then fall through
        // to retry the flush.
        for p in packets {
            frame.clear();
            if encode_packet(p, &mut frame).is_err() {
                continue;
            }
            out.write_all(&frame)?;
            frames += 1;
            bytes += frame.len();
        }
    }
    drop(out); // close the clean stream at a frame boundary
    let seconds = start.elapsed().as_secs_f64();

    if opts.garbage_frames > 0 {
        let mut side = dial()?;
        let noise = vec![0x99u8; 16 * opts.garbage_frames];
        // The server drops the connection at the first bad frame; any
        // write error after that is the expected reset, not a failure.
        let _ = side.write_all(&noise);
    }

    Ok(ReplayReport {
        frames,
        bytes,
        garbage_frames: opts.garbage_frames,
        seconds,
        reconnects,
    })
}

/// Knobs of [`tail_events`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TailOptions {
    /// Reconnects tolerated across the whole follow (`0` = the first
    /// broken connection ends the tail cleanly).
    pub max_reconnects: usize,
    /// First retry delay; doubles per consecutive failure.
    pub backoff_start_ms: u64,
    /// Ceiling on the exponential backoff delay.
    pub backoff_cap_ms: u64,
    /// Jitter fraction (see [`ReplayOptions::jitter`]).
    pub jitter: f64,
    /// Seed for the deterministic jitter draw.
    pub seed: u64,
    /// Stop after this many unique packet events (`0` = follow until
    /// the server closes the stream or the budget is spent).
    pub max_events: u64,
}

impl Default for TailOptions {
    fn default() -> Self {
        Self {
            max_reconnects: 0,
            backoff_start_ms: 50,
            backoff_cap_ms: 2_000,
            jitter: 0.25,
            seed: 1,
            max_events: 0,
        }
    }
}

/// What a tail run saw.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TailReport {
    /// Unique packet events delivered to the callback.
    pub events: u64,
    /// Packet lines suppressed as duplicates (reconnect overlap).
    pub duplicates: u64,
    /// Server-reported dropped events, summed over `lagged` lines.
    pub lagged: u64,
    /// Connections re-established after a failure or server close.
    pub reconnects: usize,
    /// The server shed this subscriber for lagging.
    pub shed: bool,
}

/// Ensures a reconnect's SUBSCRIBE asks for the retained backfill, so
/// events emitted during the outage are re-offered (up to the server's
/// retention) and the dedup set suppresses the overlap.
fn with_replay(subscribe: &str) -> String {
    if subscribe
        .split_whitespace()
        .any(|t| t.eq_ignore_ascii_case("REPLAY"))
    {
        subscribe.to_string()
    } else {
        format!("{subscribe} REPLAY")
    }
}

/// Follows a `SUBSCRIBE` push stream, feeding each server line to
/// `on_line` (return `false` to stop). Packet lines are deduplicated
/// by packet id across the whole follow, so a reconnect — which
/// re-subscribes with `REPLAY` to cover the outage — delivers each
/// reconstruction at most once; exactly once when the outage stayed
/// within the server's retention window. Non-packet lines (`lagged`,
/// `bucket`, `SHED`) pass through undeduplicated. The dedup set grows
/// with the stream; this is a client-side tool, not a server.
///
/// # Errors
///
/// Connect/read failures once the reconnect budget is spent, or an
/// `ERR` reply to the SUBSCRIBE itself (`InvalidData` — retrying a
/// rejected command would never succeed).
pub fn tail_events<A: ToSocketAddrs + Copy>(
    addr: A,
    subscribe: &str,
    opts: &TailOptions,
    mut on_line: impl FnMut(&str) -> bool,
) -> std::io::Result<TailReport> {
    let mut report = TailReport::default();
    let mut seen: HashSet<String> = HashSet::new();
    let mut consecutive = 0u32;
    let mut first = true;
    let mut line = String::new();
    'outer: loop {
        let cmd = if first {
            subscribe.to_string()
        } else {
            with_replay(subscribe)
        };
        let connected = TcpStream::connect(addr).and_then(|stream| {
            let _ = stream.set_nodelay(true);
            let mut w = stream.try_clone()?;
            writeln!(w, "{cmd}")?;
            w.flush()?;
            Ok(BufReader::new(stream))
        });
        let mut reader = match connected {
            Ok(r) => r,
            Err(e) => {
                if report.reconnects >= opts.max_reconnects {
                    if first {
                        return Err(e);
                    }
                    break 'outer;
                }
                report.reconnects += 1;
                std::thread::sleep(backoff_delay(
                    opts.backoff_start_ms,
                    opts.backoff_cap_ms,
                    opts.jitter,
                    opts.seed,
                    consecutive,
                ));
                consecutive += 1;
                continue 'outer;
            }
        };
        loop {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(0) => break,
                Ok(_) => {}
                Err(_) => break,
            }
            let l = line.trim_end();
            if let Some(reason) = l.strip_prefix("ERR ") {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("server rejected subscription: {reason}"),
                ));
            }
            if l.starts_with("OK subscribed") {
                consecutive = 0;
                continue;
            }
            if l == "END" {
                break;
            }
            if l.starts_with("packet ") {
                let pid = l.split_whitespace().nth(1).unwrap_or("").to_string();
                if !seen.insert(pid) {
                    report.duplicates += 1;
                    continue;
                }
                report.events += 1;
                if !on_line(l) {
                    break 'outer;
                }
                if opts.max_events > 0 && report.events >= opts.max_events {
                    break 'outer;
                }
            } else if let Some(n) = l.strip_prefix("lagged ") {
                report.lagged += n.parse::<u64>().unwrap_or(0);
                if !on_line(l) {
                    break 'outer;
                }
            } else if l.starts_with("SHED") {
                report.shed = true;
                let _ = on_line(l);
                break 'outer;
            } else if !on_line(l) {
                break 'outer;
            }
        }
        // The stream ended server-side (close, shutdown, or a broken
        // socket): re-follow if the budget allows, else finish cleanly.
        if report.reconnects >= opts.max_reconnects {
            break 'outer;
        }
        report.reconnects += 1;
        std::thread::sleep(backoff_delay(
            opts.backoff_start_ms,
            opts.backoff_cap_ms,
            opts.jitter,
            opts.seed,
            consecutive,
        ));
        consecutive += 1;
        first = false;
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::SinkServer;
    use crate::service::SinkConfig;
    use domo_net::{run_simulation, NetworkConfig};

    #[test]
    fn paced_replay_respects_the_rate_and_arrives_whole() {
        let trace = run_simulation(&NetworkConfig::small(9, 930));
        let server =
            SinkServer::bind("127.0.0.1:0", "127.0.0.1:0", SinkConfig::default()).expect("bind");
        let take = 30.min(trace.packets.len());
        let report = replay_packets(
            server.ingest_addr(),
            &trace.packets[..take],
            &ReplayOptions {
                rate_pps: 600.0,
                garbage_frames: 2,
                ..ReplayOptions::default()
            },
        )
        .expect("replay");
        assert_eq!(report.frames, take);
        assert!(
            report.seconds >= (take - 1) as f64 / 600.0,
            "pacing must slow the stream: {} s",
            report.seconds
        );
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let s = server.service().stats();
            if s.ingested == take as u64 && s.malformed_frames >= 1 {
                break;
            }
            assert!(Instant::now() < deadline, "ingest stalled");
            std::thread::sleep(Duration::from_millis(10));
        }
        server.shutdown();
    }

    #[test]
    fn replay_reconnects_after_a_dropped_connection() {
        use std::io::Read;
        let trace = run_simulation(&NetworkConfig::small(9, 931));
        let take = 30.min(trace.packets.len());
        let packets = trace.packets[..take].to_vec();
        let total_bytes: usize = packets.iter().map(encoded_len).sum();

        // A hostile "sink": the first connection is dropped on accept
        // (the queued client data forces an RST), the second is read to
        // completion. Deterministic — no real server, no timing games
        // beyond the RST surfacing mid-stream, which paced mode's
        // per-frame flush guarantees long before 30 frames pass.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let sink = std::thread::spawn(move || {
            let (first, _) = listener.accept().expect("first accept");
            drop(first);
            let (mut second, _) = listener.accept().expect("second accept");
            let mut buf = Vec::new();
            second.read_to_end(&mut buf).expect("drain");
            buf.len()
        });

        let report = replay_packets(
            addr,
            &packets,
            &ReplayOptions {
                rate_pps: 400.0,
                max_reconnects: 8,
                backoff_start_ms: 1,
                backoff_cap_ms: 20,
                ..ReplayOptions::default()
            },
        )
        .expect("replay survives the drop");
        assert!(report.reconnects >= 1, "must have reconnected");
        assert!(report.frames >= take, "the full stream is resent");
        // The surviving connection received the complete stream.
        let received = sink.join().expect("sink thread");
        assert_eq!(received, total_bytes);
    }

    #[test]
    fn multi_addr_replay_falls_back_round_robin() {
        // addrs[0] is dead (bound then dropped); addrs[1] is a live
        // sink. The first dial fails, the round-robin fallback lands
        // on the live member, and the whole stream arrives.
        let dead = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
            l.local_addr().expect("addr").to_string()
        };
        let trace = run_simulation(&NetworkConfig::small(9, 934));
        let server =
            SinkServer::bind("127.0.0.1:0", "127.0.0.1:0", SinkConfig::default()).expect("bind");
        let addrs = vec![dead, server.ingest_addr().to_string()];
        let take = 20.min(trace.packets.len());
        let report = replay_packets_multi(
            &addrs,
            &trace.packets[..take],
            &ReplayOptions {
                max_reconnects: 2,
                backoff_start_ms: 1,
                backoff_cap_ms: 5,
                ..ReplayOptions::default()
            },
        )
        .expect("replay falls back");
        assert!(report.reconnects >= 1, "the dead address costs a retry");
        assert_eq!(report.frames, take);
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if server.service().stats().ingested == take as u64 {
                break;
            }
            assert!(Instant::now() < deadline, "ingest stalled");
            std::thread::sleep(Duration::from_millis(10));
        }
        server.shutdown();
        // An empty list is a usage error, not a hang.
        assert!(replay_packets_multi(&[], &trace.packets, &ReplayOptions::default()).is_err());
    }

    #[test]
    fn replay_fails_fast_with_no_reconnect_budget() {
        // Nothing listens here: bind, learn the port, drop the socket.
        let addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
            l.local_addr().expect("addr")
        };
        let trace = run_simulation(&NetworkConfig::small(9, 932));
        let err = replay_packets(
            addr,
            &trace.packets[..1],
            &ReplayOptions::default(), // max_reconnects: 0
        );
        assert!(err.is_err(), "no budget means the first failure is fatal");
    }

    #[test]
    fn backoff_jitter_stays_within_bounds() {
        let opts = ReplayOptions {
            backoff_start_ms: 50,
            backoff_cap_ms: 2_000,
            jitter: 0.25,
            seed: 7,
            ..ReplayOptions::default()
        };
        for attempt in 0..20u32 {
            let base = 50u64.saturating_mul(1 << attempt.min(16)).min(2_000) as f64;
            let ms = opts.backoff(attempt).as_secs_f64() * 1_000.0;
            assert!(
                ms >= 0.75 * base - 1e-6 && ms <= 1.25 * base + 1e-6,
                "attempt {attempt}: {ms} ms outside [{}, {}]",
                0.75 * base,
                1.25 * base
            );
        }
        // The schedule is deterministic per seed, varies across seeds,
        // and zero jitter restores exact exponential delays.
        assert_eq!(opts.backoff(5), opts.backoff(5));
        let other = ReplayOptions { seed: 8, ..opts };
        assert_ne!(opts.backoff(5), other.backoff(5));
        let exact = ReplayOptions {
            jitter: 0.0,
            ..ReplayOptions::default()
        };
        assert_eq!(exact.backoff(0), Duration::from_millis(50));
        assert_eq!(exact.backoff(2), Duration::from_millis(200));
    }

    #[test]
    fn tail_replays_the_retained_stream_exactly_once() {
        let trace = run_simulation(&NetworkConfig::small(9, 933));
        let server = SinkServer::bind(
            "127.0.0.1:0",
            "127.0.0.1:0",
            SinkConfig {
                shards: 1,
                ..SinkConfig::default()
            },
        )
        .expect("bind");
        replay_packets(
            server.ingest_addr(),
            &trace.packets,
            &ReplayOptions::default(),
        )
        .expect("replay");
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if server.service().stats().ingested == trace.packets.len() as u64 {
                break;
            }
            assert!(Instant::now() < deadline, "ingest stalled");
            std::thread::sleep(Duration::from_millis(10));
        }
        // Emit everything, then subscribe with REPLAY: the whole set
        // arrives as backfill, each packet exactly once.
        crate::client::query_request(server.query_addr(), "DRAIN").expect("drain");
        let want = server.service().stats().emitted;
        assert!(want > 0);
        let mut pids = Vec::new();
        let report = tail_events(
            server.query_addr(),
            "SUBSCRIBE REPLAY",
            &TailOptions {
                max_events: want,
                ..TailOptions::default()
            },
            |l| {
                if let Some(pid) = l.split_whitespace().nth(1) {
                    pids.push(pid.to_string());
                }
                true
            },
        )
        .expect("tail");
        assert_eq!(report.events, want);
        assert_eq!(report.duplicates, 0);
        assert!(!report.shed);
        let unique: std::collections::HashSet<&String> = pids.iter().collect();
        assert_eq!(unique.len(), pids.len(), "no duplicate pids delivered");
        server.shutdown();
    }

    #[test]
    fn stats_parsing_reads_the_reply_shape() {
        let lines = vec![
            "ingested 42".to_string(),
            "emitted 40".to_string(),
            "not-a-counter".to_string(),
        ];
        let parsed = parse_stats(&lines);
        assert_eq!(
            parsed,
            vec![("ingested".to_string(), 42), ("emitted".to_string(), 40)]
        );
    }
}
