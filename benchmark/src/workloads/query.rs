//! `query_mix`: the bypass workload. Set-up floods a network into a
//! durable sink, drains it and checkpoints; the measured window is two
//! closed-loop query connections reading that state back. The solver
//! does nothing while the clock runs, so a solver change must leave
//! every number here where it was, and a change to the query handlers,
//! the result log or the aggregation sketches shows here first.

use super::{measured, Tally};
use crate::harness::{self, Error, Sampler, Sink, Tuning};
use crate::input::{self, Frames, QueryKind, QueryMix, ROUNDS};
use crate::pace::Schedule;
use crate::report::RunResult;
use domo::net::{NetworkTrace, NodeId, PacketId};
use domo::sink::QueryClient;
use std::collections::BTreeMap;
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Closed-loop query connections (one thread each; `nproc` is 2).
pub const CONNECTIONS: usize = 2;
/// Packets flooded in per second of a round's measuring time (about 20
/// minutes of network time per round).
pub const POPULATE_PACKETS_PER_S: f64 = 2400.0;
/// Sketch buckets the sink retains per node. The product default, 4096,
/// is sized for days of traffic: no node of a 6000-packet input comes
/// near it, nothing would ever be pruned, and `AGG` would never rebuild
/// a bucket from the result log. Scaled to the input (as 4096 is to the
/// 29 000 packets a full-length run would hold), the busiest relays
/// outgrow it several times over, so the mix has a retained region and
/// a backfilled one to ask about.
pub const AGG_RETENTION_BUCKETS: usize = 512;
/// Ceiling on any wait for the server.
const SERVER_TIMEOUT: Duration = Duration::from_secs(60);

/// A sink holding one network's reconstructions, ready to be queried.
pub struct Populated {
    /// The network and its ground truth.
    pub trace: NetworkTrace,
    /// The sink.
    pub sink: Sink,
    /// One connection per query thread.
    pub clients: Vec<QueryClient>,
    /// Reconstructions the sink emitted while being populated.
    pub emitted: u64,
}

/// Set-up of one round: simulate, encode, bind, flood, `DRAIN`,
/// `CHECKPOINT`, connect.
pub fn populate(seed: u64, packets: usize) -> Result<Populated, Error> {
    let trace = super::stream::network(seed, packets);
    let frames = Frames::encode(&trace.packets).map_err(|e| format!("encode frames: {e}"))?;
    // Nothing may be shed while populating, whatever the admission
    // path does with a flood.
    let sink = Sink::bind_durable(Tuning {
        queue_capacity: Some(frames.len().max(1)),
        agg_retention_buckets: Some(AGG_RETENTION_BUCKETS),
    })?;
    let mut ingest =
        TcpStream::connect(sink.ingest_addr()).map_err(harness::io_err("connect ingest port"))?;
    let mut control = sink.query()?;
    let t0 = Instant::now();
    let sampler = Sampler::start(sink.query()?, t0);
    harness::offer(&mut ingest, &frames, Schedule::Flood, t0, None, None)
        .map_err(harness::io_err("populate"))?;
    let waited = sampler.wait_decided(frames.len() as u64, SERVER_TIMEOUT);
    sampler.finish()?;
    waited?;
    harness::drain(&mut control)?;
    let reply = control
        .request("CHECKPOINT")
        .map_err(harness::io_err("CHECKPOINT"))?;
    if !reply.first().is_some_and(|l| l.starts_with("OK lsn ")) {
        return Err(format!("unexpected CHECKPOINT reply {reply:?}"));
    }
    let emitted = harness::stats(&mut control)?.emitted;
    let clients = (0..CONNECTIONS)
        .map(|_| sink.query())
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Populated {
        trace,
        sink,
        clients,
        emitted,
    })
}

/// One answered query.
#[derive(Debug, Clone, Copy)]
pub struct Answer {
    /// What was asked.
    pub kind: QueryKind,
    /// Request written → `END` read, µs.
    pub micros: f64,
    /// Lines in the reply.
    pub lines: usize,
    /// Whether the reply had the shape its command promises.
    pub ok: bool,
}

/// Whether a reply has the shape its command promises: no `ERR` line,
/// and the structure each command documents.
fn well_formed(kind: QueryKind, reply: &[String]) -> bool {
    if reply.iter().any(|l| l.starts_with("ERR")) {
        return false;
    }
    let counted = |prefix: &str| {
        reply.split_last().is_some_and(|(last, body)| {
            last.strip_prefix("count ")
                .and_then(|n| n.parse::<usize>().ok())
                == Some(body.len())
                && body.iter().all(|l| l.starts_with(prefix))
        })
    };
    match kind {
        QueryKind::Packet => reply.len() == 1 && reply[0].starts_with("packet "),
        QueryKind::Range1s | QueryKind::Range30s => counted("packet "),
        QueryKind::AggRecent | QueryKind::AggBackfill => counted("bucket "),
        QueryKind::Stats => reply.iter().any(|l| l.starts_with("emitted ")),
        QueryKind::Nodes => !reply.is_empty() && reply.iter().all(|l| l.starts_with("node ")),
        QueryKind::Metrics => reply
            .iter()
            .any(|l| l.starts_with("domo_sink_emitted_total")),
    }
}

/// Asks one query and times it.
pub fn ask(client: &mut QueryClient, kind: QueryKind, line: &str) -> Result<Answer, Error> {
    let t = Instant::now();
    let reply = client
        .request(line)
        .map_err(|e| format!("query {line:?}: {e}"))?;
    let micros = t.elapsed().as_secs_f64() * 1e6;
    Ok(Answer {
        kind,
        micros,
        lines: reply.len(),
        ok: well_formed(kind, &reply),
    })
}

/// The measured window of one round: every connection asks the seeded
/// mix back to back for `round_s` seconds.
pub fn query_for(
    populated: &mut Populated,
    seed: u64,
    round_s: f64,
) -> Result<(Vec<Answer>, f64), Error> {
    let trace = &populated.trace;
    let t0 = Instant::now();
    let per_conn: Vec<Result<Vec<Answer>, Error>> = std::thread::scope(|scope| {
        let handles: Vec<_> = populated
            .clients
            .iter_mut()
            .enumerate()
            .map(|(conn, client)| {
                let mut mix = QueryMix::new(trace, AGG_RETENTION_BUCKETS, seed, conn as u64);
                scope.spawn(move || {
                    let mut answers = Vec::new();
                    while t0.elapsed().as_secs_f64() < round_s {
                        let (kind, line) = mix.next_query();
                        answers.push(ask(client, kind, &line)?);
                    }
                    Ok(answers)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("query thread panicked".to_string()))
            })
            .collect()
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let mut answers = Vec::new();
    for a in per_conn {
        answers.extend(a?);
    }
    Ok((answers, wall_s))
}

/// Reads every stored reconstruction back (`RANGE -inf inf`), checks
/// the count against what the sink emitted and each line against the
/// input, and returns the absolute errors of the stored estimates.
pub fn read_back(
    round: usize,
    populated: &mut Populated,
    result: &mut RunResult,
) -> Result<Vec<f64>, Error> {
    let reply = populated.clients[0]
        .request("RANGE -inf inf")
        .map_err(harness::io_err("RANGE -inf inf"))?;
    let trace = &populated.trace;
    let mut errors = Vec::new();
    let mut lines = 0u64;
    let mut bad = 0u64;
    for line in &reply {
        let Some(r) = harness::parse_result_line(line) else {
            continue;
        };
        lines += 1;
        let truth = trace.truth(PacketId::new(NodeId::new(r.origin), r.seq));
        match truth.filter(|t| t.len() == r.times_ms.len() && t.len() >= 2) {
            Some(truth) => {
                let n = truth.len();
                for (est, t) in r.times_ms[1..n - 1].iter().zip(&truth[1..n - 1]) {
                    errors.push((est - t.as_millis_f64()).abs());
                }
            }
            None => bad += 1,
        }
    }
    let offered = trace.packets.len() as u64;
    let emitted = populated.emitted;
    result.check(emitted == offered && lines == emitted && bad == 0, || {
        format!(
            "round {round}: populated {offered}, sink emitted {emitted}, RANGE -inf inf returned \
             {lines} lines of which {bad} match no input packet"
        )
    });
    Ok(errors)
}

/// Result-log backfills `AGG` has performed in this process so far
/// (`domo_sink_agg_backfills_total`, read over `METRICS`).
pub fn backfills_so_far(populated: &mut Populated) -> Result<u64, Error> {
    let reply = populated.clients[0]
        .request("METRICS")
        .map_err(harness::io_err("METRICS"))?;
    Ok(harness::line_value(&reply, "domo_sink_agg_backfills_total ").unwrap_or(0.0) as u64)
}

/// The timed run.
pub fn run(seed: u64, seconds: f64, result: &mut RunResult) -> Result<Tally, Error> {
    let round_s = seconds / ROUNDS as f64;
    let packets = (POPULATE_PACKETS_PER_S * round_s).ceil() as usize;
    let mut tally = Tally::default();
    let mut by_kind: BTreeMap<QueryKind, u64> = BTreeMap::new();
    let mut backfills = 0u64;
    for (round, net_seed) in input::round_seeds(seed).into_iter().enumerate() {
        let (populated, setup_s, _) = measured(|| populate(net_seed, packets));
        let mut populated = populated?;
        tally.setup_s.push(setup_s);
        let (outcome, _, cpu_s) = measured(|| query_for(&mut populated, net_seed, round_s));
        let (answers, wall_s) = outcome?;
        tally.end_of_measuring(round);
        tally
            .errors_ms
            .extend(read_back(round, &mut populated, result)?);
        backfills = backfills_so_far(&mut populated)?;
        let _ = populated.sink.shutdown();

        let failed = answers.iter().filter(|a| !a.ok).count() as u64;
        let done = answers.len() as u64 - failed;
        tally.add_round(done, wall_s);
        // A closed loop offers a query only when the last one is
        // answered: the sink admits exactly what it completes.
        tally.admitted += done;
        tally.admit_wall_s += wall_s;
        tally.cpu_s += cpu_s;
        tally
            .latencies_ms
            .extend(answers.iter().filter(|a| a.ok).map(|a| a.micros / 1e3));
        result.attempted += answers.len() as u64;
        result.failed += failed;
        for a in &answers {
            *by_kind.entry(a.kind).or_insert(0) += 1;
        }
    }
    // The mix is only what it claims to be if its below-the-floor
    // queries really made the sink rebuild buckets from the result log.
    let asked_backfill = by_kind.get(&QueryKind::AggBackfill).copied().unwrap_or(0);
    result.check(backfills >= asked_backfill, || {
        format!(
            "{asked_backfill} AGG queries below the retention floor caused only {backfills} \
             result-log backfills"
        )
    });
    result.note("agg_backfills", backfills as f64);
    for (kind, n) in by_kind {
        result.note(&format!("asked_{}", kind.name()), n as f64);
    }
    result.note(
        "fail_ratio",
        result.failed as f64 / result.attempted.max(1) as f64,
    );
    Ok(tally)
}
