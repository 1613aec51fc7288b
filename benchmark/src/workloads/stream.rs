//! The three stream workloads: frames over loopback TCP into a durable
//! sink, results read back from a `SUBSCRIBE` tail.
//!
//! * `stream_backlog` floods the whole input at once with queues sized
//!   so nothing is shed: reconstructions per second through every layer.
//! * `stream_paced` offers at a fixed rate well under capacity and
//!   times every result from the moment its packet was *due*.
//! * `ingest_overload` offers at four times capacity for a fixed window
//!   with default queues: what the admission path accepts, what the
//!   solve still delivers.

use super::{measured, Tally};
use crate::harness::{
    self, Counters, Error, InFlightCap, Sampler, Sink, Stamped, Subscriber, Tuning,
};
use crate::input::{self, Frames, ROUNDS};
use crate::pace::Schedule;
use crate::report::RunResult;
use crate::stats;
use crate::sys::TempDir;
use domo::net::{NetworkTrace, NodeId, PacketId};
use domo::sink::QueryClient;
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Which stream workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Everything due at once, queues as deep as the input.
    Backlog,
    /// Fixed rate under capacity.
    Paced,
    /// Fixed rate far over capacity, for a fixed offer window.
    Overload,
}

/// Nodes of the stream workloads' network (`paper_scale(100, seed)`).
pub const NODES: usize = 100;
/// Packets that network delivers per second of network time.
const PACKETS_PER_SIM_S: f64 = 4.9;
/// Backlog input size: packets per second of measuring time, about
/// what the durable sink reconstructs today, so a round lasts about its
/// share of `--seconds`.
const BACKLOG_PACKETS_PER_S: f64 = 4000.0;
/// Paced offer rate, packets per second (about 40% of capacity).
pub const PACED_RATE: u64 = 2000;
/// Overload offer rate, packets per second (about 4× capacity).
pub const OVERLOAD_RATE: u64 = 20_000;
/// Frames the overload generator may have on the way to the sink: about
/// 100 KB, a small socket buffer's worth.
const OVERLOAD_IN_FLIGHT: u64 = 2048;
/// Generator lateness above this at the 99th percentile invalidates a
/// paced run: the latencies would be the generator's, not the sink's.
const MAX_PACED_LATENESS_P99_MS: f64 = 5.0;
/// Ceiling on any wait for the server, so a wedged sink fails the run
/// instead of hanging it.
const SERVER_TIMEOUT: Duration = Duration::from_secs(60);

/// What one round offers, and how.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Packets to offer.
    pub packets: usize,
    /// When each falls due.
    pub schedule: Schedule,
    /// Stop offering this long after the first byte.
    pub deadline_ns: Option<u64>,
    /// Queue bound override (`None` keeps the product default, 4096).
    pub queue_capacity: Option<usize>,
    /// Frames the generator may run ahead of the sink's reading.
    pub in_flight: Option<u64>,
}

impl Plan {
    /// The plan of one round lasting about `round_s` seconds.
    pub fn new(kind: Kind, round_s: f64) -> Self {
        match kind {
            Kind::Backlog => {
                let packets = (BACKLOG_PACKETS_PER_S * round_s).ceil() as usize;
                Plan {
                    packets,
                    schedule: Schedule::Flood,
                    deadline_ns: None,
                    // `dropped == 0` is a precondition here, not an outcome.
                    queue_capacity: Some(packets.max(1)),
                    in_flight: None,
                }
            }
            Kind::Paced => Plan {
                packets: (PACED_RATE as f64 * round_s).ceil() as usize,
                schedule: Schedule::rate(PACED_RATE),
                deadline_ns: None,
                queue_capacity: None,
                in_flight: None,
            },
            Kind::Overload => {
                // The offer window is the whole measured window; what
                // the queues still hold when it closes is reconstructed
                // during shutdown, outside it.
                Plan {
                    packets: (OVERLOAD_RATE as f64 * round_s).ceil() as usize,
                    schedule: Schedule::rate(OVERLOAD_RATE),
                    deadline_ns: Some((round_s * 1e9) as u64),
                    queue_capacity: None,
                    in_flight: Some(OVERLOAD_IN_FLIGHT),
                }
            }
        }
    }
}

/// A network simulated long enough to deliver `packets` packets, cut to
/// exactly that many (a prefix in sink-arrival order, so ground truth
/// exists for every packet and no time is replicated).
pub fn network(seed: u64, packets: usize) -> NetworkTrace {
    let sim_s = (packets as f64 / PACKETS_PER_SIM_S * 1.05).ceil() as u64 + 20;
    let mut trace = input::simulate(NODES, sim_s, seed);
    trace.packets.truncate(packets);
    trace
}

/// Everything one round needs before the clock starts.
pub struct Ready {
    /// The input and its ground truth.
    pub trace: NetworkTrace,
    /// The input as wire frames.
    pub frames: Frames,
    /// The sink under test.
    pub sink: Sink,
    /// Ingest connection.
    pub ingest: TcpStream,
    /// Control connection (`DRAIN`).
    pub control: QueryClient,
    /// Connection the `STATS` sampler will use.
    pub sampling: QueryClient,
    /// Live tail.
    pub tail: Subscriber,
}

/// Set-up of one round: simulate, encode, bind and open the durable
/// sink, connect.
pub fn setup(seed: u64, plan: &Plan) -> Result<Ready, Error> {
    let trace = network(seed, plan.packets);
    let frames = Frames::encode(&trace.packets).map_err(|e| format!("encode frames: {e}"))?;
    let sink = Sink::bind_durable(Tuning {
        queue_capacity: plan.queue_capacity,
        ..Tuning::default()
    })?;
    let ingest =
        TcpStream::connect(sink.ingest_addr()).map_err(harness::io_err("connect ingest port"))?;
    let _ = ingest.set_nodelay(true);
    let control = sink.query()?;
    let sampling = sink.query()?;
    let tail = Subscriber::start(sink.query_addr())?;
    Ok(Ready {
        trace,
        frames,
        sink,
        ingest,
        control,
        sampling,
        tail,
    })
}

/// What one round produced, outputs included.
pub struct Measured {
    /// The input and its ground truth.
    pub trace: NetworkTrace,
    /// The input as wire frames.
    pub frames: Frames,
    /// First byte.
    pub t0: Instant,
    /// Frames fully written, with their send times.
    pub offer: harness::Offer,
    /// Sustained admission, from `STATS` sampled every few milliseconds
    /// while frames were on offer.
    pub admission: Option<harness::Admission>,
    /// Length of the measured window, s: first byte → `DRAIN`
    /// acknowledged, or first byte → last complete admission cycle of
    /// the offer window.
    pub wall_s: f64,
    /// Process CPU inside the window, s.
    pub cpu_s: f64,
    /// Reconstructions emitted inside the window.
    pub ops: u64,
    /// How long the closing `DRAIN` took, s.
    pub drain_s: f64,
    /// Emissions the closing `DRAIN` flushed out early.
    pub drained: u64,
    /// Counters after the sink shut down.
    pub end: Counters,
    /// Every line of the tail, stamped.
    pub lines: Vec<Stamped>,
    /// The sink's data directory (removed when dropped).
    pub data_dir: Option<TempDir>,
}

/// One round after set-up: the measured window, then shutdown and the
/// rest of the tail.
///
/// With every packet due to be reconstructed (`Backlog`, `Paced`) the
/// window runs from the first byte until the server has taken every
/// frame off the wire and acknowledged a `DRAIN`. Under `Overload` the
/// window is the offer window: frames the server has not read when it
/// closes are abandoned with the connection, and the sink is shut down,
/// which reconstructs what its queues still hold.
pub fn measure(kind: Kind, ready: Ready, plan: &Plan) -> Result<Measured, Error> {
    measure_with(kind, ready, plan, |_| Ok(()))
}

/// [`measure`] with a hook that sees the loaded sink after the measured
/// window has closed and before the sink shuts down.
pub fn measure_with(
    kind: Kind,
    ready: Ready,
    plan: &Plan,
    loaded: impl FnOnce(&Sink) -> Result<(), Error>,
) -> Result<Measured, Error> {
    let Ready {
        trace,
        frames,
        sink,
        mut ingest,
        mut control,
        sampling,
        tail,
    } = ready;
    let cpu_at_start = crate::sys::cpu_seconds();
    let t0 = Instant::now();
    let sampler = Sampler::start(sampling, t0);
    let (body, wall_s, cpu_s) = measured(|| -> Result<_, Error> {
        let cap = plan.in_flight.map(|frames| InFlightCap {
            decided: sampler.decided_handle(),
            frames,
        });
        let offer = harness::offer(
            &mut ingest,
            &frames,
            plan.schedule,
            t0,
            plan.deadline_ns,
            cap.as_ref(),
        )
        .map_err(harness::io_err("offer frames"))?;
        if kind == Kind::Overload {
            return Ok((offer, 0, 0.0));
        }
        sampler.wait_decided(offer.sent_at_ns.len() as u64, SERVER_TIMEOUT)?;
        let drain_t = Instant::now();
        let drained = harness::drain(&mut control)?;
        Ok((offer, drained, drain_t.elapsed().as_secs_f64()))
    });
    let samples = sampler.finish()?;
    let (offer, drained, drain_s) = body?;
    let admission = harness::sustained_admission(&samples, plan.deadline_ns);
    // Under overload the measured window ends with the last complete
    // admission cycle inside the offer window, for work and CPU alike:
    // between cycles the shards sit idle behind a checkpoint barrier, so
    // counts read at the deadline itself swing with where in a cycle it
    // happens to fall.
    let (wall_s, cpu_s, in_window) = match admission.and_then(|a| a.at_sample) {
        Some(i) if kind == Kind::Overload => (
            samples[i].at_ns as f64 / 1e9,
            samples[i].cpu_s - cpu_at_start,
            samples[i].counters.emitted,
        ),
        _ => (
            wall_s,
            cpu_s,
            samples.last().map_or(0, |s| s.counters.emitted),
        ),
    };
    loaded(&sink)?;
    drop(ingest);
    drop(control);
    let (snapshot, data_dir) = sink.shutdown();
    let end = Counters::from(snapshot.stats);
    let lines = tail.finish(end.emitted, SERVER_TIMEOUT)?;
    Ok(Measured {
        trace,
        frames,
        t0,
        offer,
        admission,
        wall_s,
        cpu_s,
        ops: in_window,
        drain_s,
        drained,
        end,
        lines,
        data_dir,
    })
}

/// Tolerance when a printed time is compared with an exact one: result
/// lines carry three decimals of a millisecond.
const PRINT_EPS_MS: f64 = 0.0011;

/// Checks one round's outputs and folds them into the tally.
pub fn verify(
    kind: Kind,
    round: usize,
    plan: &Plan,
    m: &Measured,
    tally: &mut Tally,
    result: &mut RunResult,
) {
    let (trace, frames) = (&m.trace, &m.frames);
    let offered = frames.len() as u64;
    let sent = m.offer.sent_at_ns.len() as u64;
    let c = m.end;
    let mut violations = Vec::new();
    let mut check = |ok: bool, what: String| {
        if !ok {
            violations.push(format!("round {round}: {what}"));
        }
    };

    // Exact accounting: every accepted record is either emitted or
    // counted as shed or lost, and a clean input is never quarantined.
    check(
        c.emitted + c.dropped + c.lost == c.ingested,
        format!(
            "emitted {} + dropped {} + lost {} != ingested {}",
            c.emitted, c.dropped, c.lost, c.ingested
        ),
    );
    check(
        c.quarantined + c.malformed + c.lost == 0 && c.ingested <= sent,
        format!(
            "clean input of {sent} frames yet ingested {} quarantined {} malformed {} lost {}",
            c.ingested, c.quarantined, c.malformed, c.lost
        ),
    );

    // Latency is taken over results that arrived inside the window: the
    // whole offer window where there is one (its length is fixed, and
    // under overload latency grows with time on offer), else until the
    // closing DRAIN was acknowledged.
    let window_end = m.t0
        + plan
            .deadline_ns
            .map_or(Duration::from_secs_f64(m.wall_s), Duration::from_nanos);
    let mut lagged = 0u64;
    let mut seen = vec![false; frames.len()];
    let mut results = 0u64;
    let mut bad = 0u64;
    let mut latencies = Vec::with_capacity(m.lines.len());
    for s in &m.lines {
        let Some(r) = harness::parse_result_line(&s.line) else {
            // `lagged <n>` and `SHED lagged <n>` are the only other
            // lines a raw tail carries.
            lagged += 1;
            continue;
        };
        results += 1;
        let pid = PacketId::new(NodeId::new(r.origin), r.seq);
        let (Some(i), Some(truth)) = (frames.index_of(r.origin, r.seq), trace.truth(pid)) else {
            bad += 1;
            continue;
        };
        let packet = &trace.packets[i];
        let n = r.times_ms.len();
        let ends_match = n >= 2
            && n == truth.len()
            && n == packet.path.len()
            && (r.times_ms[0] - packet.gen_time.as_millis_f64()).abs() <= PRINT_EPS_MS
            && (r.times_ms[n - 1] - packet.sink_arrival.as_millis_f64()).abs() <= PRINT_EPS_MS;
        if seen[i] || !ends_match || r.times_ms.iter().any(|t| !t.is_finite()) {
            bad += 1;
            continue;
        }
        seen[i] = true;
        for (est, t) in r.times_ms[1..n - 1].iter().zip(&truth[1..n - 1]) {
            tally.errors_ms.push((est - t.as_millis_f64()).abs());
        }
        if s.at <= window_end {
            let since_t0 = s.at.saturating_duration_since(m.t0).as_nanos() as f64;
            latencies.push((since_t0 - plan.schedule.due_ns(i as u64) as f64) / 1e6);
        }
    }
    // Results the closing DRAIN flushed out early waited less than a
    // steady-state result does; they count as work, not as latency.
    latencies.truncate(latencies.len().saturating_sub(m.drained as usize));
    tally.latencies_ms.extend(latencies);

    check(
        bad == 0,
        format!("{bad} result lines unknown, repeated or malformed"),
    );
    check(
        results == c.emitted,
        format!(
            "tail delivered {results} results, sink emitted {}",
            c.emitted
        ),
    );
    if kind != Kind::Overload {
        check(
            sent == offered
                && m.ops == offered
                && c.emitted == offered
                && c.dropped == 0
                && lagged == 0,
            format!(
                "offered {offered} sent {sent} emitted {} ({} in the window) dropped {} lagged \
                 {lagged}: all must be reconstructed and delivered",
                c.emitted, m.ops, c.dropped
            ),
        );
    }
    result.violations.extend(violations);

    tally.add_round(m.ops, m.wall_s);
    tally.cpu_s += m.cpu_s;
    if let Some(a) = m.admission {
        tally.admitted += a.admitted;
        tally.admit_wall_s += a.seconds;
    }
    result.attempted += offered;
    // An operation failed if the system lost track of it or answered
    // wrongly. Frames an overloaded sink sheds by policy, or has not
    // read when the offer window closes, are counted in `fail_ratio`
    // instead.
    result.failed += bad + c.ingested.saturating_sub(c.emitted + c.dropped);
    result.add_note("offered", offered as f64);
    result.add_note("sent", sent as f64);
    result.add_note("admitted", c.ingested as f64);
    result.add_note("reconstructed", c.emitted as f64);
    result.add_note("shed", c.dropped as f64);
    result.add_note("drain_s", m.drain_s);
}

/// Generator lateness of a paced or overload round: how long after its
/// due time each sent frame left the generator, ms.
pub fn lateness_ms(plan: &Plan, offer: &harness::Offer) -> Vec<f64> {
    offer
        .sent_at_ns
        .iter()
        .enumerate()
        .map(|(i, &at)| (at as f64 - plan.schedule.due_ns(i as u64) as f64) / 1e6)
        .collect()
}

/// The timed run of one stream workload.
pub fn run(kind: Kind, seed: u64, seconds: f64, result: &mut RunResult) -> Result<Tally, Error> {
    let plan = Plan::new(kind, seconds / ROUNDS as f64);
    let mut tally = Tally::default();
    let mut late = Vec::new();
    for (round, net_seed) in input::round_seeds(seed).into_iter().enumerate() {
        let (ready, setup_s, _) = measured(|| setup(net_seed, &plan));
        tally.setup_s.push(setup_s);
        let m = measure(kind, ready?, &plan)?;
        tally.end_of_measuring(round);
        late.extend(lateness_ms(&plan, &m.offer));
        verify(kind, round, &plan, &m, &mut tally, result);
    }
    let offered = result.context.get("offered").copied().unwrap_or(0.0);
    let reconstructed = result.context.get("reconstructed").copied().unwrap_or(0.0);
    let fail_ratio = if offered > 0.0 {
        1.0 - reconstructed / offered
    } else {
        0.0
    };
    result.note("fail_ratio", fail_ratio);
    if kind != Kind::Backlog {
        let late = stats::summarize(late, 99.0);
        result.note("gen_late_p50_ms", late.p50);
        result.note("gen_late_tail_ms", late.tail);
        if kind == Kind::Paced {
            result.check(late.tail <= MAX_PACED_LATENESS_P99_MS, || {
                format!(
                    "generator ran {:.3} ms late at p{}, above {MAX_PACED_LATENESS_P99_MS} ms: \
                     the latencies are not the sink's",
                    late.tail, late.tail_pct
                )
            });
        }
    }
    Ok(tally)
}
