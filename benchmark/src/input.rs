//! Input generation. `--seed` reaches nothing but this module: the
//! program under test only ever sees the packets, frames, bound targets
//! and query lines produced here, and the same seed produces the same
//! ones.
//!
//! Every run processes [`ROUNDS`] independent networks, each against a
//! freshly set-up system. How hard a simulated collection network is to
//! reconstruct depends on its topology (the same estimator differs by
//! ±12% in packets per second between two 100-node networks), so a run
//! over a single seed-drawn network would read 20% apart between two
//! seeds with no change in the code. A run therefore pairs the network
//! drawn from `--seed` with a fixed reference panel: the panel holds the
//! run-to-run spread down to what the regression bounds can resolve, and
//! the seed's own network keeps a held-out seed a genuinely unseen
//! topology and traffic pattern.

use domo::net::{run_simulation, CollectedPacket, NetworkConfig, NetworkTrace};
use domo::sink::wire;
use domo::util::rng::Xoshiro256pp;
use domo::util::time::SimDuration;
use std::collections::HashMap;

/// Networks per run; also how often set-up is repeated per run.
pub const ROUNDS: usize = 4;

/// Seeds of the reference panel (every round but the last).
const PANEL: [u64; ROUNDS - 1] = [101, 202, 303];

/// The network seed of each round: the panel, then `--seed`. The panel
/// runs first so that whatever is read after the first round (peak
/// memory) is read on the same input in every run.
pub fn round_seeds(seed: u64) -> [u64; ROUNDS] {
    let mut seeds = [seed; ROUNDS];
    seeds[..ROUNDS - 1].copy_from_slice(&PANEL);
    seeds
}

/// Simulates the paper's evaluation network with `nodes` nodes for
/// `duration_s` seconds of network time.
pub fn simulate(nodes: usize, duration_s: u64, seed: u64) -> NetworkTrace {
    let mut cfg = NetworkConfig::paper_scale(nodes, seed);
    cfg.duration = SimDuration::from_secs(duration_s.max(1));
    run_simulation(&cfg)
}

/// A trace pre-encoded as wire frames, ready to be written to a socket
/// without any generator-side work inside the measured window.
pub struct Frames {
    /// Concatenated frames, in trace order.
    pub bytes: Vec<u8>,
    /// End offset of each frame in `bytes`.
    pub ends: Vec<usize>,
    /// Frame index by `(origin, seq)`.
    index: HashMap<(u16, u32), u32>,
}

impl Frames {
    /// Encodes every packet of `packets`.
    ///
    /// # Errors
    ///
    /// A path longer than the wire format carries (never produced by
    /// the simulator).
    pub fn encode(packets: &[CollectedPacket]) -> Result<Self, wire::WireError> {
        let mut bytes = Vec::with_capacity(packets.len() * 48);
        let mut ends = Vec::with_capacity(packets.len());
        let mut index = HashMap::with_capacity(packets.len());
        for (i, p) in packets.iter().enumerate() {
            wire::encode_packet(p, &mut bytes)?;
            ends.push(bytes.len());
            index.insert((p.pid.origin.index() as u16, p.pid.seq), i as u32);
        }
        Ok(Frames { bytes, ends, index })
    }

    /// Number of frames.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Index of the frame carrying packet `(origin, seq)`.
    pub fn index_of(&self, origin: u16, seq: u32) -> Option<usize> {
        self.index.get(&(origin, seq)).map(|&i| i as usize)
    }
}

/// `k` evenly spaced bound targets among `num_vars` unknowns.
pub fn bound_targets(num_vars: usize, k: usize) -> Vec<usize> {
    let k = k.min(num_vars);
    (0..k).map(|i| i * num_vars / k).collect()
}

/// The kinds of query in the mix, with the share of each in percent.
/// `AggBackfill` asks for buckets below the sketch retention floor, so
/// the server rebuilds them from the result log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum QueryKind {
    /// `PACKET <origin> <seq>`
    Packet,
    /// `RANGE` over 1 s of network time
    Range1s,
    /// `RANGE` over 30 s of network time
    Range30s,
    /// `AGG` over retained sketch buckets
    AggRecent,
    /// `AGG` below the retention floor
    AggBackfill,
    /// `STATS`
    Stats,
    /// `NODES`
    Nodes,
    /// `METRICS`
    Metrics,
}

impl QueryKind {
    /// Every kind with its share of the mix (percent, sums to 100).
    pub const MIX: [(QueryKind, u32); 8] = [
        (QueryKind::Packet, 30),
        (QueryKind::Range1s, 20),
        (QueryKind::Range30s, 10),
        (QueryKind::AggRecent, 15),
        (QueryKind::AggBackfill, 10),
        (QueryKind::Stats, 10),
        (QueryKind::Nodes, 3),
        (QueryKind::Metrics, 2),
    ];

    /// Short name used in per-layer metric names (`server.<name>_us`).
    pub fn name(self) -> &'static str {
        match self {
            QueryKind::Packet => "packet",
            QueryKind::Range1s => "range1s",
            QueryKind::Range30s => "range30s",
            QueryKind::AggRecent => "agg_recent",
            QueryKind::AggBackfill => "agg_backfill",
            QueryKind::Stats => "stats",
            QueryKind::Nodes => "nodes",
            QueryKind::Metrics => "metrics",
        }
    }
}

/// An endless seeded stream of query lines over one populated sink.
pub struct QueryMix {
    rng: Xoshiro256pp,
    pids: Vec<(u16, u32)>,
    /// Every forwarding node.
    nodes: Vec<u16>,
    /// The relays whose sketch series the sink has pruned: they carry
    /// at least twice as many samples as a series retains.
    busy: Vec<u16>,
    /// Network-time span of the stored results, ms.
    span_ms: (f64, f64),
}

impl QueryMix {
    /// A mix over the packets of `trace`, all of which the sink holds
    /// and aggregates into series of `retained_buckets` sketch buckets
    /// per node. `stream` separates the connections of one run.
    pub fn new(trace: &NetworkTrace, retained_buckets: usize, seed: u64, stream: u64) -> Self {
        let pids = trace
            .packets
            .iter()
            .map(|p| (p.pid.origin.index() as u16, p.pid.seq))
            .collect();
        // A node gets one sojourn sample per packet it forwards (every
        // hop but the sink), and at most one bucket per sample.
        let mut samples: HashMap<u16, usize> = HashMap::new();
        for p in &trace.packets {
            for n in &p.path[..p.path.len().saturating_sub(1)] {
                *samples.entry(n.index() as u16).or_insert(0) += 1;
            }
        }
        let mut nodes: Vec<u16> = samples.keys().copied().collect();
        nodes.sort_unstable();
        let mut busy: Vec<u16> = nodes
            .iter()
            .copied()
            .filter(|n| samples[n] >= 2 * retained_buckets)
            .collect();
        if busy.is_empty() {
            busy.extend(nodes.iter().copied().max_by_key(|n| (samples[n], *n)));
        }
        let times = || trace.packets.iter().map(|p| p.gen_time.as_millis_f64());
        let lo = times().fold(f64::INFINITY, f64::min);
        let hi = times().fold(f64::NEG_INFINITY, f64::max);
        QueryMix {
            rng: Xoshiro256pp::seed_from_u64(seed ^ (stream.wrapping_add(1) << 32)),
            pids,
            nodes,
            busy,
            span_ms: (lo, hi),
        }
    }

    /// The next query of the mix.
    pub fn next_query(&mut self) -> (QueryKind, String) {
        let mut roll = self.rng.range_u64(0..100) as u32;
        let mut kind = QueryKind::Packet;
        for (k, share) in QueryKind::MIX {
            if roll < share {
                kind = k;
                break;
            }
            roll -= share;
        }
        (kind, self.line(kind))
    }

    /// One query line of the given kind.
    pub fn line(&mut self, kind: QueryKind) -> String {
        let (lo, hi) = self.span_ms;
        let span = (hi - lo).max(0.0);
        match kind {
            QueryKind::Packet => {
                let (o, s) = self.pids[self.rng.range_usize(0..self.pids.len())];
                format!("PACKET {o} {s}")
            }
            QueryKind::Range1s => {
                let start = self.window_start(lo, hi, 1_000.0);
                format!("RANGE {start:.0} {:.0}", start + 1_000.0)
            }
            QueryKind::Range30s => {
                let start = self.window_start(lo, hi, 30_000.0);
                format!("RANGE {start:.0} {:.0}", start + 30_000.0)
            }
            // The newest tenth of the span is retained on every node: a
            // pruned series still holds its newest buckets, at least a
            // quarter of a busy relay's samples.
            QueryKind::AggRecent => {
                let node = self.nodes[self.rng.range_usize(0..self.nodes.len())];
                let start = self.window_start(hi - 0.1 * span, hi, 30_000.0);
                format!("AGG {node} {start:.0} {:.0} 1000", start + 30_000.0)
            }
            // The oldest third of the span lies below the floor of every
            // busy relay: it keeps at most half of its samples.
            QueryKind::AggBackfill => {
                let node = self.busy[self.rng.range_usize(0..self.busy.len())];
                let start = self.window_start(lo, lo + span / 3.0, 30_000.0);
                format!("AGG {node} {start:.0} {:.0} 1000", start + 30_000.0)
            }
            QueryKind::Stats => "STATS".to_string(),
            QueryKind::Nodes => "NODES".to_string(),
            QueryKind::Metrics => "METRICS".to_string(),
        }
    }

    /// A start such that `[start, start + width]` lies in `[lo, hi]`
    /// where that is possible, else `lo`.
    fn window_start(&mut self, lo: f64, hi: f64, width: f64) -> f64 {
        let last = hi - width;
        if last > lo {
            self.rng.range_f64(lo..last).floor()
        } else {
            lo.floor()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_seed_draws_one_round_and_the_panel_fills_the_rest() {
        assert_eq!(round_seeds(7), [101, 202, 303, 7]);
        assert_eq!(round_seeds(11)[3], 11);
        assert_eq!(round_seeds(7)[..3], round_seeds(11)[..3]);
    }

    #[test]
    fn same_seed_same_input() {
        let a = simulate(16, 30, 5);
        let b = simulate(16, 30, 5);
        assert_eq!(a.packets, b.packets);
        let fa = Frames::encode(&a.packets).unwrap();
        let fb = Frames::encode(&b.packets).unwrap();
        assert_eq!(fa.bytes, fb.bytes);
        assert_eq!(fa.len(), a.packets.len());
        let p = &a.packets[3];
        assert_eq!(fa.index_of(p.pid.origin.index() as u16, p.pid.seq), Some(3));
        assert_ne!(simulate(16, 30, 6).packets, a.packets);

        let mut qa = QueryMix::new(&a, 8, 5, 0);
        let mut qb = QueryMix::new(&b, 8, 5, 0);
        let mut other = QueryMix::new(&a, 8, 5, 1);
        let la: Vec<_> = (0..50).map(|_| qa.next_query()).collect();
        let lb: Vec<_> = (0..50).map(|_| qb.next_query()).collect();
        let lo: Vec<_> = (0..50).map(|_| other.next_query()).collect();
        assert_eq!(la, lb);
        assert_ne!(la, lo);
    }

    #[test]
    fn mix_shares_sum_to_one_hundred_and_targets_are_spread() {
        assert_eq!(QueryKind::MIX.iter().map(|(_, s)| s).sum::<u32>(), 100);
        assert_eq!(bound_targets(100, 4), vec![0, 25, 50, 75]);
        assert_eq!(bound_targets(3, 10), vec![0, 1, 2]);
        assert!(bound_targets(0, 5).is_empty());
    }
}
