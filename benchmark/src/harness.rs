//! The load generator's side of a stream workload: a sink server on
//! loopback with a durable store in a scratch directory, a frame sender
//! that follows a [`Schedule`], a subscriber that stamps each result
//! line as it arrives, and the text queries the workloads issue. The
//! server is the product path (`SinkServer::bind`), reached only over
//! its two TCP ports.

use crate::input::Frames;
use crate::pace::Schedule;
use crate::sys::TempDir;
use domo::sink::client::parse_stats;
use domo::sink::{QueryClient, SinkConfig, SinkServer, SinkSnapshot, StoreConfig};
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A failed run: what went wrong, for the one-line error the command
/// prints before exiting nonzero.
pub type Error = String;

/// Formats an I/O failure with the step it happened in.
pub fn io_err(step: &str) -> impl Fn(std::io::Error) -> Error + '_ {
    move |e| format!("{step}: {e}")
}

/// Bounds of the sink a workload scales to its input; everything else
/// stays at the product default.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tuning {
    /// Per-shard and per-subscriber queue bound (default 4096), raised
    /// where a workload's precondition is that nothing is shed.
    pub queue_capacity: Option<usize>,
    /// Sketch buckets retained per node (default 4096), lowered where
    /// the input is too short to push any node past the default.
    pub agg_retention_buckets: Option<usize>,
}

/// A sink server on two OS-assigned loopback ports.
pub struct Sink {
    server: SinkServer,
    /// Present for a durable sink; removed when the sink is dropped.
    dir: Option<TempDir>,
}

impl Sink {
    /// Binds a durable sink: product defaults (`SinkConfig::default()`:
    /// 2 shards, 1 estimator thread; `StoreConfig::at`: fsync
    /// `interval:64`, checkpoint every 4096 appends) with the store in a
    /// fresh scratch directory, and the two `tuning` overrides a
    /// workload may need to scale a bound to its input.
    pub fn bind_durable(tuning: Tuning) -> Result<Self, Error> {
        let dir = TempDir::new().map_err(io_err("create data dir"))?;
        let mut cfg = SinkConfig {
            store: Some(StoreConfig::at(dir.path())),
            ..SinkConfig::default()
        };
        if let Some(cap) = tuning.queue_capacity {
            cfg.queue_capacity = cap;
        }
        if let Some(buckets) = tuning.agg_retention_buckets {
            cfg.agg.retention_buckets = buckets;
        }
        let server =
            SinkServer::bind("127.0.0.1:0", "127.0.0.1:0", cfg).map_err(io_err("bind sink"))?;
        Ok(Sink {
            server,
            dir: Some(dir),
        })
    }

    /// Binds a store-less sink (per-layer probe of the reactor alone).
    pub fn bind_volatile(queue_capacity: usize) -> Result<Self, Error> {
        let cfg = SinkConfig {
            queue_capacity,
            ..SinkConfig::default()
        };
        let server =
            SinkServer::bind("127.0.0.1:0", "127.0.0.1:0", cfg).map_err(io_err("bind sink"))?;
        Ok(Sink { server, dir: None })
    }

    /// The frame ingestion port.
    pub fn ingest_addr(&self) -> SocketAddr {
        self.server.ingest_addr()
    }

    /// The text query port.
    pub fn query_addr(&self) -> SocketAddr {
        self.server.query_addr()
    }

    /// The service behind the ports, for the probes that time a public
    /// call on the loaded sink (`checkpoint_now`) from outside.
    pub fn service(&self) -> &domo::sink::SinkService {
        self.server.service()
    }

    /// A query connection.
    pub fn query(&self) -> Result<QueryClient, Error> {
        QueryClient::connect(self.query_addr()).map_err(io_err("connect query port"))
    }

    /// Stops the server and returns its final counters together with
    /// the data directory (kept alive so a recovery probe can reopen
    /// it; dropping it removes the directory).
    pub fn shutdown(self) -> (SinkSnapshot, Option<TempDir>) {
        (self.server.shutdown(), self.dir)
    }
}

/// The `STATS` counters a workload checks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Records accepted into a shard queue.
    pub ingested: u64,
    /// Reconstructions emitted.
    pub emitted: u64,
    /// Records the sanitizer rejected.
    pub quarantined: u64,
    /// Frames that failed to decode.
    pub malformed: u64,
    /// Records shed from full shard queues.
    pub dropped: u64,
    /// Records lost to worker restarts.
    pub lost: u64,
}

impl From<domo::sink::SinkStatsSnapshot> for Counters {
    fn from(s: domo::sink::SinkStatsSnapshot) -> Self {
        Counters {
            ingested: s.ingested,
            emitted: s.emitted,
            quarantined: s.quarantined,
            malformed: s.malformed_frames,
            dropped: s.backpressure_dropped,
            lost: s.watchdog_dropped,
        }
    }
}

impl Counters {
    /// Every frame the server has taken off the wire and decided on.
    pub fn decided(&self) -> u64 {
        self.ingested + self.quarantined + self.malformed
    }
}

/// The number after `key` on the first reply line that starts with it
/// (`STORE STATS` lines, unlabelled `METRICS` series).
pub fn line_value(lines: &[String], key: &str) -> Option<f64> {
    lines
        .iter()
        .find_map(|l| l.strip_prefix(key)?.trim().parse().ok())
}

/// One `STATS` round trip.
pub fn stats(q: &mut QueryClient) -> Result<Counters, Error> {
    let lines = q.request("STATS").map_err(io_err("STATS"))?;
    let mut c = Counters::default();
    for (name, value) in parse_stats(&lines) {
        match name.as_str() {
            "ingested" => c.ingested = value,
            "emitted" => c.emitted = value,
            "quarantined" => c.quarantined = value,
            "malformed_frames" => c.malformed = value,
            "backpressure_dropped" => c.dropped = value,
            "watchdog_dropped" => c.lost = value,
            _ => {}
        }
    }
    Ok(c)
}

/// `STATS` as read at one moment of a measured window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Nanoseconds from the window's start to the reply.
    pub at_ns: u64,
    /// The counters.
    pub counters: Counters,
    /// Process CPU seconds used so far.
    pub cpu_s: f64,
}

/// How often the sampler asks for `STATS`.
const SAMPLE_EVERY: Duration = Duration::from_millis(5);

/// A thread that reads `STATS` every few milliseconds over its own
/// connection while frames are on offer: the admission and goodput
/// figures come from counters the running sink exports, read from
/// outside.
pub struct Sampler {
    stop: Arc<AtomicBool>,
    decided: Arc<AtomicU64>,
    thread: JoinHandle<Result<Vec<Sample>, Error>>,
}

impl Sampler {
    /// Starts sampling over `q`; sample times count from `t0`.
    pub fn start(mut q: QueryClient, t0: Instant) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let decided = Arc::new(AtomicU64::new(0));
        let (stop_flag, decided_cell) = (Arc::clone(&stop), Arc::clone(&decided));
        let thread = std::thread::spawn(move || {
            let mut samples = Vec::new();
            loop {
                // Checked first, so the sample taken after the stop
                // request is the last one: it sees the final counters.
                let last = stop_flag.load(Ordering::SeqCst);
                let counters = stats(&mut q)?;
                samples.push(Sample {
                    at_ns: u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX),
                    counters,
                    cpu_s: crate::sys::cpu_seconds(),
                });
                decided_cell.store(counters.decided(), Ordering::SeqCst);
                if last {
                    return Ok(samples);
                }
                std::thread::sleep(SAMPLE_EVERY);
            }
        });
        Sampler {
            stop,
            decided,
            thread,
        }
    }

    /// Blocks until the server has taken `sent` frames off the wire and
    /// decided on each. Fails after `timeout`, or as soon as the
    /// sampler itself has failed.
    pub fn wait_decided(&self, sent: u64, timeout: Duration) -> Result<(), Error> {
        let deadline = Instant::now() + timeout;
        while self.decided.load(Ordering::SeqCst) < sent {
            if self.thread.is_finished() {
                return Err("STATS sampler stopped early".to_string());
            }
            if Instant::now() >= deadline {
                return Err(format!(
                    "server decided on {} of {sent} sent frames within {timeout:?}",
                    self.decided.load(Ordering::SeqCst)
                ));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(())
    }

    /// The count of frames the sink has decided on, as last sampled.
    pub fn decided_handle(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.decided)
    }

    /// Takes one last sample, stops and returns every sample.
    pub fn finish(self) -> Result<Vec<Sample>, Error> {
        self.stop.store(true, Ordering::SeqCst);
        match self.thread.join() {
            Ok(samples) => samples,
            Err(_) => Err("STATS sampler panicked".to_string()),
        }
    }
}

/// Sustained admission over a sampled window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Admission {
    /// Records admitted before the last admission event.
    pub admitted: u64,
    /// When that event was observed, seconds into the window.
    pub seconds: f64,
    /// Index of the sample that observed it, when the window held a
    /// complete cycle (`None` for a single burst).
    pub at_sample: Option<usize>,
}

/// Sustained admission: the records admitted before the last observed
/// increase of `ingested`, over the time of that increase. A durable
/// sink admits in bursts — each checkpoint barrier stalls ingest until
/// the shard queues run dry — so the count at an arbitrary instant over
/// the time to that instant jumps by a whole burst depending on where
/// the instant falls. Ending the window at an admission event counts
/// complete cycles only: every burst but the last, over the time until
/// the last began. With continuous admission the last burst is one
/// sample's worth and the figure is simply count over time. Samples
/// after `until_ns` are ignored. `None` when nothing was admitted.
pub fn sustained_admission(samples: &[Sample], until_ns: Option<u64>) -> Option<Admission> {
    let mut prev = 0u64;
    let mut last_step: Option<(u64, usize)> = None; // (admitted before it, sample)
    let mut first_seen: Option<(u64, u64)> = None;
    for (i, s) in samples.iter().enumerate() {
        if until_ns.is_some_and(|u| s.at_ns > u) {
            break;
        }
        let now = s.counters.ingested;
        if now > prev {
            if prev > 0 {
                last_step = Some((prev, i));
            } else {
                first_seen = Some((now, s.at_ns));
            }
            prev = now;
        }
    }
    if let Some((admitted, i)) = last_step {
        return Some(Admission {
            admitted,
            seconds: samples[i].at_ns as f64 / 1e9,
            at_sample: Some(i),
        });
    }
    // A single burst has no complete cycle before it: count the burst
    // itself, over the window if there is one, else over the time the
    // burst took to appear.
    let (admitted, seen_ns) = first_seen?;
    let over_ns = until_ns.unwrap_or(seen_ns);
    (over_ns > 0).then(|| Admission {
        admitted,
        seconds: over_ns as f64 / 1e9,
        at_sample: None,
    })
}

/// Sends `DRAIN` and returns the count it reports.
pub fn drain(q: &mut QueryClient) -> Result<u64, Error> {
    let lines = q.request("DRAIN").map_err(io_err("DRAIN"))?;
    lines
        .first()
        .and_then(|l| l.strip_prefix("OK emitted "))
        .and_then(|n| n.trim().parse().ok())
        .ok_or_else(|| format!("unexpected DRAIN reply {lines:?}"))
}

/// A bound on how far the generator may run ahead of the sink's
/// reading: the explicit stand-in for a finite buffer on the path to
/// the sink. Loopback sockets buffer megabytes — tens of thousands of
/// frames — and the sink reads everything buffered even while shutting
/// down, so without a bound an overload run would measure the kernel's
/// memory and last as long as the backlog it built.
pub struct InFlightCap {
    /// Frames the sink has taken off the wire, as the sampler last saw.
    pub decided: Arc<AtomicU64>,
    /// Frames allowed between the generator and that count.
    pub frames: u64,
}

impl InFlightCap {
    /// Index one past the last frame that may be sent now.
    fn room_until(&self) -> u64 {
        self.decided
            .load(Ordering::SeqCst)
            .saturating_add(self.frames)
    }
}

/// What the sender did.
#[derive(Debug, Default)]
pub struct Offer {
    /// For each frame fully written, nanoseconds from the run's start
    /// to its last byte leaving the generator. `sent_at_ns.len()` is
    /// the number of frames sent; frames beyond it were never offered.
    pub sent_at_ns: Vec<u64>,
}

/// Writes `frames` to `stream` as `schedule` makes them due, measured
/// from `t0`. With a `deadline` (ns after `t0`) sending stops there:
/// writes are bounded by the time left, a frame cut by the deadline is
/// completed so the stream stays aligned, and the rest is never sent.
/// With an `in_flight` cap a due frame also waits until the sink has
/// read to within the cap of it.
///
/// # Errors
///
/// Socket failures other than a full send buffer.
pub fn offer(
    stream: &mut TcpStream,
    frames: &Frames,
    schedule: Schedule,
    t0: Instant,
    deadline_ns: Option<u64>,
    in_flight: Option<&InFlightCap>,
) -> std::io::Result<Offer> {
    let total = frames.len() as u64;
    let mut sent_at_ns = Vec::with_capacity(frames.len());
    let mut sent_bytes = 0usize;
    let elapsed_ns = |t0: Instant| u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
    while (sent_at_ns.len() as u64) < total {
        let now = elapsed_ns(t0);
        if deadline_ns.is_some_and(|d| now >= d) {
            break;
        }
        let mut due = schedule.due_count(now, total) as usize;
        if let Some(cap) = in_flight {
            let room = cap.room_until();
            if room <= sent_at_ns.len() as u64 && due > sent_at_ns.len() {
                // Due, but the path to the sink is full: wait for the
                // sink to read, not for the schedule.
                std::thread::sleep(Duration::from_micros(500));
                continue;
            }
            due = due.min(usize::try_from(room).unwrap_or(usize::MAX));
        }
        if due <= sent_at_ns.len() {
            let next_due = schedule.due_ns(sent_at_ns.len() as u64);
            let wake = deadline_ns.map_or(next_due, |d| next_due.min(d));
            std::thread::sleep(Duration::from_nanos(wake.saturating_sub(now)));
            continue;
        }
        if let Some(d) = deadline_ns {
            // Zero would mean "no timeout" to the socket layer.
            let left = Duration::from_nanos((d - now).max(1_000));
            stream.set_write_timeout(Some(left))?;
        }
        match stream.write(&frames.bytes[sent_bytes..frames.ends[due - 1]]) {
            Ok(n) => {
                sent_bytes += n;
                let t = elapsed_ns(t0);
                while sent_at_ns.len() < frames.len() && frames.ends[sent_at_ns.len()] <= sent_bytes
                {
                    sent_at_ns.push(t);
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) => {}
            Err(e) => return Err(e),
        }
    }
    // Complete a frame the deadline cut in half.
    let boundary = sent_at_ns
        .len()
        .checked_sub(1)
        .map_or(0, |i| frames.ends[i]);
    if sent_bytes > boundary {
        stream.set_write_timeout(None)?;
        let end = frames.ends[sent_at_ns.len()];
        stream.write_all(&frames.bytes[sent_bytes..end])?;
        sent_at_ns.push(elapsed_ns(t0));
    }
    stream.flush()?;
    Ok(Offer { sent_at_ns })
}

/// One line pushed by a `SUBSCRIBE` stream and when it arrived.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stamped {
    /// When the line arrived.
    pub at: Instant,
    /// The line, without its newline.
    pub line: String,
}

/// A live `SUBSCRIBE` connection whose lines a reader thread stamps.
pub struct Subscriber {
    control: TcpStream,
    results: Arc<AtomicU64>,
    reader: JoinHandle<std::io::Result<Vec<Stamped>>>,
}

impl Subscriber {
    /// Subscribes to every emission.
    pub fn start(addr: SocketAddr) -> Result<Self, Error> {
        let stream = TcpStream::connect(addr).map_err(io_err("connect subscriber"))?;
        let _ = stream.set_nodelay(true);
        let mut control = stream.try_clone().map_err(io_err("clone subscriber"))?;
        control
            .write_all(b"SUBSCRIBE\n")
            .map_err(io_err("send SUBSCRIBE"))?;
        let mut lines = BufReader::with_capacity(1 << 16, stream);
        let mut ack = String::new();
        lines
            .read_line(&mut ack)
            .map_err(io_err("read SUBSCRIBE ack"))?;
        if !ack.starts_with("OK subscribed") {
            return Err(format!("unexpected SUBSCRIBE reply {ack:?}"));
        }
        let results = Arc::new(AtomicU64::new(0));
        let seen = Arc::clone(&results);
        let reader = std::thread::spawn(move || {
            let mut out = Vec::new();
            let mut line = String::new();
            loop {
                line.clear();
                if lines.read_line(&mut line)? == 0 {
                    return Ok(out);
                }
                let at = Instant::now();
                let text = line.trim_end();
                if text == "END" {
                    return Ok(out);
                }
                if text.starts_with("packet ") {
                    seen.fetch_add(1, Ordering::SeqCst);
                }
                out.push(Stamped {
                    at,
                    line: text.to_string(),
                });
            }
        });
        Ok(Subscriber {
            control,
            results,
            reader,
        })
    }

    /// Waits (up to `timeout`) until `expected` results have arrived —
    /// the server stops a stream at `QUIT` without flushing what is
    /// still queued for it — then ends the stream, joins the reader and
    /// returns every line it saw before `END`. A short count is not an
    /// error here: the caller compares it with the sink's own.
    pub fn finish(mut self, expected: u64, timeout: Duration) -> Result<Vec<Stamped>, Error> {
        let deadline = Instant::now() + timeout;
        while self.results.load(Ordering::SeqCst) < expected
            && !self.reader.is_finished()
            && Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(1));
        }
        self.control
            .write_all(b"QUIT\n")
            .map_err(io_err("send QUIT"))?;
        match self.reader.join() {
            Ok(lines) => lines.map_err(io_err("read subscription")),
            Err(_) => Err("subscriber thread panicked".to_string()),
        }
    }
}

/// One reconstruction parsed from a `packet n<origin>#<seq> path a-b-c
/// times t0 t1 …` line (the shape `SUBSCRIBE`, `RANGE` and `PACKET`
/// share).
#[derive(Debug, Clone, PartialEq)]
pub struct ResultLine {
    /// Packet origin.
    pub origin: u16,
    /// Packet sequence number.
    pub seq: u32,
    /// Reconstructed arrival time at each hop, ms.
    pub times_ms: Vec<f64>,
}

/// Parses a result line; `None` for anything else (`lagged`, `count`).
pub fn parse_result_line(line: &str) -> Option<ResultLine> {
    let rest = line.strip_prefix("packet n")?;
    let (pid, rest) = rest.split_once(' ')?;
    let (origin, seq) = pid.split_once('#')?;
    let (_, times) = rest.split_once(" times ")?;
    let times_ms = times
        .split_ascii_whitespace()
        .map(|t| t.parse::<f64>().ok())
        .collect::<Option<Vec<f64>>>()?;
    Some(ResultLine {
        origin: origin.parse().ok()?,
        seq: seq.parse().ok()?,
        times_ms,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(points: &[(u64, u64)]) -> Vec<Sample> {
        points
            .iter()
            .map(|&(ms, ingested)| Sample {
                at_ns: ms * 1_000_000,
                counters: Counters {
                    ingested,
                    ..Counters::default()
                },
                cpu_s: 0.0,
            })
            .collect()
    }

    #[test]
    fn admission_counts_complete_cycles_only() {
        let figure = |s: &[Sample], until| {
            sustained_admission(s, until).map(|a| (a.admitted, a.seconds, a.at_sample))
        };
        // bursts of 4096 at 0 s, 1 s and 2 s, then a short last burst
        let stair = samples(&[
            (5, 4096),
            (500, 4096),
            (1000, 8192),
            (1500, 8192),
            (2000, 12288),
            (2900, 12288),
            (3000, 13000),
        ]);
        assert_eq!(figure(&stair, None), Some((12288, 3.0, Some(6))));
        // a window closing between bursts ends at the last burst inside it
        assert_eq!(
            figure(&stair, Some(2_500_000_000)),
            Some((8192, 2.0, Some(4)))
        );
        // continuous admission is count over time
        let smooth = samples(&[(5, 10), (10, 20), (15, 30), (20, 40)]);
        assert_eq!(figure(&smooth, None), Some((30, 0.02, Some(3))));
        // one burst: over the time it took to appear, or over the window
        let burst = samples(&[(5, 0), (10, 500), (15, 500)]);
        assert_eq!(figure(&burst, None), Some((500, 0.01, None)));
        assert_eq!(figure(&burst, Some(2_000_000_000)), Some((500, 2.0, None)));
        assert_eq!(figure(&samples(&[(5, 0)]), None), None);
        assert_eq!(figure(&[], None), None);
    }

    #[test]
    fn result_lines_parse_and_everything_else_is_skipped() {
        let r = parse_result_line("packet n17#42 path 17-3-0 times 1500.000 1512.250 1534.001");
        assert_eq!(
            r,
            Some(ResultLine {
                origin: 17,
                seq: 42,
                times_ms: vec![1500.0, 1512.25, 1534.001],
            })
        );
        for other in [
            "lagged 3",
            "count 9",
            "packet n1#x path 1-0 times 1 2",
            "packet n1#2 path 1-0",
            "",
        ] {
            assert_eq!(parse_result_line(other), None, "{other:?}");
        }
    }
}
