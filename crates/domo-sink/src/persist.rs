//! Durability wiring between the sink service and `domo-store`.
//!
//! `domo-store` speaks opaque bytes; this module owns the *meaning* of
//! every persisted record:
//!
//! * **WAL payloads** are exactly the ingest wire frames
//!   ([`crate::wire::encode_packet`]) — the journal replays through the
//!   same decoder the TCP path uses, so a WAL bug cannot diverge from a
//!   network bug.
//! * **Checkpoint payloads** serialize the mutable service state: every
//!   shard's [`StreamingSnapshot`], the service counters, the set of
//!   packet ids durably journaled below the checkpoint's WAL cut, the
//!   per-node sojourn accumulators, and the AGG sketch store.
//! * **Result records** serialize one emitted reconstruction, keyed in
//!   the result store's time index by the packet's generation time
//!   (`hop_times_ms[0]`).
//!
//! The recovery invariants these formats uphold are documented in
//! DESIGN.md §13.

use crate::service::StoredReconstruction;
use crate::wire::{self, WireError};
use domo_core::streaming::StreamingSnapshot;
use domo_net::{NodeId, PacketId};
use domo_query::series::{AggParts, NodeSeriesParts};
use domo_query::{AggStore, SketchParts};
use domo_store::FsyncPolicy;
use std::collections::HashMap;
use std::path::PathBuf;

/// What the sink does when the durable store fails at runtime (a WAL
/// append, a checkpoint, a result append — anything past `open`).
///
/// The operator spelling (`--on-store-error`) round-trips through
/// [`StoreErrorPolicy::parse`] / `Display`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StoreErrorPolicy {
    /// Stop the service: health goes `failed` and the `serve` binary
    /// exits nonzero. For deployments where silent durability loss is
    /// worse than downtime.
    Fail,
    /// Suspend durability but keep reconstructing (the default): health
    /// goes `degraded`, accepted records continue un-journaled (and are
    /// counted), emitted results are backlogged in memory, and every
    /// [`StoreConfig::probe_every`] ingests the sink re-probes the
    /// store with a full checkpoint — success flushes the backlog and
    /// re-arms durability.
    #[default]
    Degrade,
    /// Give up on durability for the rest of the process: like
    /// `Degrade` but permanent — no heal probes, no backlog.
    DropDurability,
}

impl StoreErrorPolicy {
    /// Parses the operator spelling: `fail`, `degrade`, or
    /// `drop-durability`.
    ///
    /// # Errors
    ///
    /// A human-readable message naming the accepted forms.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "fail" => Ok(Self::Fail),
            "degrade" => Ok(Self::Degrade),
            "drop-durability" => Ok(Self::DropDurability),
            other => Err(format!(
                "unknown store-error policy {other:?} (use fail | degrade | drop-durability)"
            )),
        }
    }
}

impl std::fmt::Display for StoreErrorPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Fail => write!(f, "fail"),
            Self::Degrade => write!(f, "degrade"),
            Self::DropDurability => write!(f, "drop-durability"),
        }
    }
}

/// Operator-facing durability configuration of a [`crate::SinkService`].
#[derive(Debug, Clone, PartialEq)]
pub struct StoreConfig {
    /// Directory holding the WAL (`wal/`), checkpoints (`ckpt/`) and
    /// result log (`results/`).
    pub data_dir: PathBuf,
    /// When WAL appends reach stable storage.
    pub fsync: FsyncPolicy,
    /// Checkpoint after this many WAL appends (clamped to ≥ 1).
    pub checkpoint_every: u64,
    /// Result-log retention: sealed segments beyond this many are
    /// deleted, oldest first (0 = unlimited).
    pub max_result_segments: usize,
    /// What a runtime store failure does to the service.
    pub on_error: StoreErrorPolicy,
    /// While degraded, attempt a heal (a full checkpoint through the
    /// failing store) every this many accepted records (clamped ≥ 1).
    pub probe_every: u64,
    /// Deterministic I/O fault injection (chaos testing only): when
    /// set, every filesystem operation of the WAL, checkpoint store and
    /// result log goes through a seeded [`domo_store::FaultPlan`].
    pub faults: Option<domo_store::FaultPlan>,
}

impl StoreConfig {
    /// A configuration rooted at `data_dir` with the default policy:
    /// `fsync interval:64`, checkpoint every 4096 appends, unlimited
    /// result retention, degrade on store errors (heal probe every 256
    /// records), no fault injection.
    pub fn at<P: Into<PathBuf>>(data_dir: P) -> Self {
        Self {
            data_dir: data_dir.into(),
            fsync: FsyncPolicy::Interval(64),
            checkpoint_every: 4096,
            max_result_segments: 0,
            on_error: StoreErrorPolicy::Degrade,
            probe_every: 256,
            faults: None,
        }
    }
}

/// Exact accounting of one recovery pass ([`crate::SinkService::open`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryReport {
    /// WAL cut of the checkpoint that seeded the state (0 if none).
    pub checkpoint_lsn: u64,
    /// Valid WAL records found on disk.
    pub wal_records: u64,
    /// WAL records past the checkpoint replayed through the shards.
    pub replayed: u64,
    /// Bytes truncated from torn/corrupt WAL tails.
    pub wal_bytes_discarded: u64,
    /// Whole WAL segments discarded as unrecoverable.
    pub wal_segments_discarded: usize,
    /// Reconstructions recovered from the result log.
    pub result_records: u64,
    /// Bytes truncated from torn result-log tails.
    pub result_bytes_discarded: u64,
    /// Checkpoints skipped because their checksum failed.
    pub checkpoints_skipped: u64,
}

/// Everything a checkpoint captures, as [`decode_checkpoint`] returns
/// it; [`encode_checkpoint`] writes the same fields from a
/// [`CheckpointSource`].
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointState {
    /// One snapshot per shard, in shard order.
    pub shards: Vec<StreamingSnapshot>,
    /// Service counters at the cut: ingested, emitted, quarantined,
    /// malformed_frames, backpressure_dropped, estimator_errors,
    /// watchdog_dropped.
    pub counters: [u64; 7],
    /// Ids of every packet journaled with `lsn <` the cut. Restores the
    /// dedup set for history the WAL has compacted away.
    pub seen: Vec<PacketId>,
    /// Per-node sojourn accumulators as
    /// [`domo_util::running::RunningStats::to_parts`] tuples.
    pub node_stats: Vec<(NodeId, domo_util::running::RunningParts)>,
    /// The aggregation-sketch store behind `AGG` queries
    /// ([`domo_query::AggStore::to_parts`]); restores bit-identically.
    pub agg: AggParts,
}

/// What [`encode_checkpoint`] writes: a [`CheckpointState`]'s fields,
/// borrowed, with the sketch store read straight from the live
/// [`AggStore`]. Copying the store into [`AggParts`] first would hold it
/// twice over at every checkpoint, once as parts and once as bytes.
#[derive(Debug, Clone, Copy)]
pub struct CheckpointSource<'a> {
    /// One snapshot per shard, in shard order.
    pub shards: &'a [StreamingSnapshot],
    /// Service counters at the cut (see [`CheckpointState::counters`]).
    pub counters: [u64; 7],
    /// Ids of every packet journaled with `lsn <` the cut.
    pub seen: &'a [PacketId],
    /// Per-node sojourn accumulators.
    pub node_stats: &'a [(NodeId, domo_util::running::RunningParts)],
    /// The aggregation-sketch store behind `AGG` queries.
    pub agg: &'a AggStore,
}

/// A persisted format failed to decode.
#[derive(Debug, Clone, PartialEq)]
pub enum PersistError {
    /// The buffer ended before the field at `at`.
    Truncated {
        /// Byte offset of the truncated field.
        at: usize,
    },
    /// A version/count field held an impossible value.
    Invalid(&'static str),
    /// An embedded wire frame failed to decode.
    Wire(WireError),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Truncated { at } => write!(f, "persisted record truncated at byte {at}"),
            Self::Invalid(what) => write!(f, "persisted record invalid: {what}"),
            Self::Wire(e) => write!(f, "embedded wire frame: {e}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<WireError> for PersistError {
    fn from(e: WireError) -> Self {
        Self::Wire(e)
    }
}

// v2 added the watchdog_dropped counter (6 → 7 counter slots); v3
// appended the AGG sketch store. An old-version checkpoint fails decode
// and is skipped like a corrupt one: recovery falls back to full WAL
// replay, losing no data (sketches rebuild from replay + backfill).
const CHECKPOINT_VERSION: u32 = 3;

struct Cursor<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        let end = self
            .at
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or(PersistError::Truncated { at: self.at })?;
        let out = &self.buf[self.at..end];
        self.at = end;
        Ok(out)
    }

    fn u16(&mut self) -> Result<u16, PersistError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, PersistError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, PersistError> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    fn f64(&mut self) -> Result<f64, PersistError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn i32(&mut self) -> Result<i32, PersistError> {
        Ok(self.u32()? as i32)
    }

    fn i64(&mut self) -> Result<i64, PersistError> {
        Ok(self.u64()? as i64)
    }
}

/// Bytes [`put_sketch`] writes before the bucket list, and per bucket.
const SKETCH_FIXED_LEN: usize = 8 + 8 + 3 * 8 + 4;
const SKETCH_BUCKET_LEN: usize = 4 + 8;

fn put_sketch(out: &mut Vec<u8>, s: &SketchParts) {
    out.extend_from_slice(&s.count.to_le_bytes());
    out.extend_from_slice(&s.zeros.to_le_bytes());
    for v in [s.sum, s.min, s.max] {
        out.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    out.extend_from_slice(&(s.buckets.len() as u32).to_le_bytes());
    for &(idx, n) in &s.buckets {
        out.extend_from_slice(&idx.to_le_bytes());
        out.extend_from_slice(&n.to_le_bytes());
    }
}

fn get_sketch(c: &mut Cursor<'_>) -> Result<SketchParts, PersistError> {
    let count = c.u64()?;
    let zeros = c.u64()?;
    let sum = c.f64()?;
    let min = c.f64()?;
    let max = c.f64()?;
    let bucket_count = c.u32()? as usize;
    if bucket_count > 1 << 24 {
        return Err(PersistError::Invalid("absurd sketch bucket count"));
    }
    let mut buckets = Vec::with_capacity(bucket_count.min(1 << 16));
    for _ in 0..bucket_count {
        let idx = c.i32()?;
        let n = c.u64()?;
        buckets.push((idx, n));
    }
    Ok(SketchParts {
        count,
        zeros,
        sum,
        min,
        max,
        buckets,
    })
}

/// Writes the store as [`AggStore::to_parts`] would snapshot it, one
/// bucket's parts at a time.
fn put_agg(out: &mut Vec<u8>, agg: &AggStore) {
    out.extend_from_slice(&agg.granularity_ms().to_le_bytes());
    let series = agg.series();
    out.extend_from_slice(&(series.len() as u32).to_le_bytes());
    for (node, pruned_through, buckets) in series {
        out.extend_from_slice(&node.to_le_bytes());
        match pruned_through {
            Some(p) => {
                out.push(1);
                out.extend_from_slice(&p.to_le_bytes());
            }
            None => out.push(0),
        }
        out.extend_from_slice(&(buckets.len() as u32).to_le_bytes());
        for (key, sketch) in buckets {
            out.extend_from_slice(&key.to_le_bytes());
            put_sketch(out, &sketch.to_parts());
        }
    }
}

fn get_agg(c: &mut Cursor<'_>) -> Result<AggParts, PersistError> {
    let granularity_ms = c.u64()?;
    let node_count = c.u32()? as usize;
    if node_count > 1 << 20 {
        return Err(PersistError::Invalid("absurd agg node count"));
    }
    let mut nodes = Vec::with_capacity(node_count.min(1 << 16));
    for _ in 0..node_count {
        let node = c.u16()?;
        let pruned_through = match c.take(1)?[0] {
            0 => None,
            1 => Some(c.i64()?),
            _ => return Err(PersistError::Invalid("bad pruned-through flag")),
        };
        let bucket_count = c.u32()? as usize;
        if bucket_count > 1 << 24 {
            return Err(PersistError::Invalid("absurd agg bucket count"));
        }
        let mut buckets = Vec::with_capacity(bucket_count.min(1 << 16));
        for _ in 0..bucket_count {
            let key = c.i64()?;
            buckets.push((key, get_sketch(c)?));
        }
        nodes.push(NodeSeriesParts {
            node,
            pruned_through,
            buckets,
        });
    }
    Ok(AggParts {
        granularity_ms,
        nodes,
    })
}

fn put_pid(out: &mut Vec<u8>, pid: PacketId) {
    out.extend_from_slice(&(pid.origin.index() as u16).to_le_bytes());
    out.extend_from_slice(&pid.seq.to_le_bytes());
}

fn get_pid(c: &mut Cursor<'_>) -> Result<PacketId, PersistError> {
    let origin = c.u16()?;
    let seq = c.u32()?;
    Ok(PacketId::new(NodeId::new(origin), seq))
}

/// Serializes a checkpoint (the payload handed to
/// `domo_store::CheckpointStore::save`, which adds magic + checksum);
/// [`decode_checkpoint`] reads it back as a [`CheckpointState`].
///
/// # Errors
///
/// [`PersistError::Wire`] if a buffered packet exceeds the wire format's
/// limits (it was ingested through that format, so this cannot happen
/// for real traffic).
pub fn encode_checkpoint(state: &CheckpointSource<'_>) -> Result<Vec<u8>, PersistError> {
    // Sized once: grown by doubling, a payload of tens of MB would pass
    // through every smaller power of two on its way there.
    let len = checkpoint_len(state);
    let mut out = Vec::with_capacity(len);
    out.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
    out.extend_from_slice(&(state.shards.len() as u32).to_le_bytes());
    for s in state.shards {
        out.extend_from_slice(&(s.high_water as u64).to_le_bytes());
        out.extend_from_slice(&s.emitted.to_le_bytes());
        out.extend_from_slice(&s.overflow_dropped.to_le_bytes());
        out.extend_from_slice(&(s.buffer.len() as u32).to_le_bytes());
        for p in &s.buffer {
            wire::encode_packet(p, &mut out)?;
        }
    }
    for c in state.counters {
        out.extend_from_slice(&c.to_le_bytes());
    }
    out.extend_from_slice(&(state.seen.len() as u32).to_le_bytes());
    for &pid in state.seen {
        put_pid(&mut out, pid);
    }
    out.extend_from_slice(&(state.node_stats.len() as u32).to_le_bytes());
    for &(node, (count, mean, m2, min, max)) in state.node_stats {
        out.extend_from_slice(&(node.index() as u16).to_le_bytes());
        out.extend_from_slice(&count.to_le_bytes());
        for v in [mean, m2, min, max] {
            out.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }
    put_agg(&mut out, state.agg);
    debug_assert_eq!(out.len(), len, "checkpoint_len disagrees with the encoder");
    Ok(out)
}

/// Bytes [`encode_checkpoint`] writes for `state`.
fn checkpoint_len(state: &CheckpointSource<'_>) -> usize {
    let shards: usize = state
        .shards
        .iter()
        .map(|s| 3 * 8 + 4 + s.buffer.iter().map(wire::encoded_len).sum::<usize>())
        .sum();
    let agg: usize = state
        .agg
        .series()
        .map(|(_, pruned_through, buckets)| {
            let sketches: usize = buckets
                .values()
                .map(|s| 8 + SKETCH_FIXED_LEN + SKETCH_BUCKET_LEN * s.parts_bucket_count())
                .sum();
            2 + 1 + if pruned_through.is_some() { 8 } else { 0 } + 4 + sketches
        })
        .sum();
    4 + 4
        + shards
        + 8 * state.counters.len()
        + 4
        + 6 * state.seen.len()
        + 4
        + (2 + 8 + 4 * 8) * state.node_stats.len()
        + 8
        + 4
        + agg
}

/// Deserializes [`encode_checkpoint`] output.
///
/// # Errors
///
/// [`PersistError`] on truncation, an unknown version, or a corrupt
/// embedded frame. The caller treats any error as "no usable
/// checkpoint" and falls back to WAL-only recovery.
pub fn decode_checkpoint(buf: &[u8]) -> Result<CheckpointState, PersistError> {
    let mut c = Cursor { buf, at: 0 };
    let version = c.u32()?;
    if version != CHECKPOINT_VERSION {
        return Err(PersistError::Invalid("unknown checkpoint version"));
    }
    let shard_count = c.u32()? as usize;
    if shard_count > 1 << 16 {
        return Err(PersistError::Invalid("absurd shard count"));
    }
    let mut shards = Vec::with_capacity(shard_count);
    for _ in 0..shard_count {
        let high_water = c.u64()? as usize;
        let emitted = c.u64()?;
        let overflow_dropped = c.u64()?;
        let buffered = c.u32()? as usize;
        let mut buffer = Vec::with_capacity(buffered.min(1 << 20));
        for _ in 0..buffered {
            let (p, used) = wire::decode_packet(&buf[c.at..])?;
            c.at += used;
            buffer.push(p);
        }
        shards.push(StreamingSnapshot {
            buffer,
            high_water,
            emitted,
            overflow_dropped,
        });
    }
    let mut counters = [0u64; 7];
    for slot in &mut counters {
        *slot = c.u64()?;
    }
    let seen_count = c.u32()? as usize;
    let mut seen = Vec::with_capacity(seen_count.min(1 << 24));
    for _ in 0..seen_count {
        seen.push(get_pid(&mut c)?);
    }
    let node_count = c.u32()? as usize;
    let mut node_stats = Vec::with_capacity(node_count.min(1 << 20));
    for _ in 0..node_count {
        let node = NodeId::new(c.u16()?);
        let count = c.u64()?;
        let mean = c.f64()?;
        let m2 = c.f64()?;
        let min = c.f64()?;
        let max = c.f64()?;
        node_stats.push((node, (count, mean, m2, min, max)));
    }
    let agg = get_agg(&mut c)?;
    if c.at != buf.len() {
        return Err(PersistError::Invalid("trailing bytes after checkpoint"));
    }
    Ok(CheckpointState {
        shards,
        counters,
        seen,
        node_stats,
        agg,
    })
}

/// Serializes one emitted reconstruction as a result-store payload. The
/// store's time key is the packet's generation time,
/// `hop_times_ms[0]`.
pub fn encode_result(pid: PacketId, rec: &StoredReconstruction) -> Vec<u8> {
    let mut out = Vec::with_capacity(10 + rec.path.len() * 2 + rec.hop_times_ms.len() * 8);
    put_pid(&mut out, pid);
    out.extend_from_slice(&(rec.path.len() as u32).to_le_bytes());
    for n in &rec.path {
        out.extend_from_slice(&(n.index() as u16).to_le_bytes());
    }
    for &t in &rec.hop_times_ms {
        out.extend_from_slice(&t.to_bits().to_le_bytes());
    }
    out
}

/// Deserializes [`encode_result`] output.
///
/// # Errors
///
/// [`PersistError`] on truncation or an impossible path length.
pub fn decode_result(buf: &[u8]) -> Result<(PacketId, StoredReconstruction), PersistError> {
    let mut c = Cursor { buf, at: 0 };
    let pid = get_pid(&mut c)?;
    let path_len = c.u32()? as usize;
    if path_len > wire::MAX_PATH_NODES {
        return Err(PersistError::Invalid("result path too long"));
    }
    let mut path = Vec::with_capacity(path_len);
    for _ in 0..path_len {
        path.push(NodeId::new(c.u16()?));
    }
    let mut hop_times_ms = Vec::with_capacity(path_len);
    for _ in 0..path_len {
        hop_times_ms.push(c.f64()?);
    }
    if c.at != buf.len() {
        return Err(PersistError::Invalid("trailing bytes after result"));
    }
    Ok((pid, StoredReconstruction { path, hop_times_ms }))
}

/// Convenience: rebuilds a `NodeId → RunningStats` map from checkpoint
/// tuples.
pub(crate) fn node_stats_from_parts(
    parts: &[(NodeId, domo_util::running::RunningParts)],
) -> HashMap<NodeId, domo_util::running::RunningStats> {
    parts
        .iter()
        .map(|&(node, (count, mean, m2, min, max))| {
            (
                node,
                domo_util::running::RunningStats::from_parts(count, mean, m2, min, max),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use domo_net::{run_simulation, NetworkConfig};

    #[test]
    fn checkpoint_state_round_trips_exactly() {
        let trace = run_simulation(&NetworkConfig::small(9, 501));
        let mut agg = domo_query::AggStore::new(domo_query::AggConfig {
            granularity_ms: 100,
            retention_buckets: 2,
        });
        for i in 0..8 {
            agg.record(3, i as f64 * 70.0, 0.3 * i as f64);
            agg.record(7, i as f64 * 45.0, 1.0 / (i + 1) as f64);
        }
        agg.record(9, -0.5, 0.0); // negative-time + zeros bucket
        let state = CheckpointState {
            shards: vec![
                StreamingSnapshot {
                    buffer: trace.packets.iter().take(5).cloned().collect(),
                    high_water: 32,
                    emitted: 17,
                    overflow_dropped: 0,
                },
                StreamingSnapshot {
                    buffer: Vec::new(),
                    high_water: 32,
                    emitted: 0,
                    overflow_dropped: 3,
                },
            ],
            counters: [10, 9, 1, 0, 2, 0, 1],
            seen: trace.packets.iter().take(10).map(|p| p.pid).collect(),
            node_stats: vec![
                (NodeId::new(3), (4, 2.5, 1.25, 0.5, 4.0)),
                (
                    NodeId::new(7),
                    (0, 0.0, 0.0, f64::INFINITY, f64::NEG_INFINITY),
                ),
            ],
            agg: agg.to_parts(),
        };
        let bytes = encode_checkpoint(&CheckpointSource {
            shards: &state.shards,
            counters: state.counters,
            seen: &state.seen,
            node_stats: &state.node_stats,
            agg: &agg,
        })
        .unwrap();
        let back = decode_checkpoint(&bytes).unwrap();
        assert_eq!(back, state);
        // Any truncation fails loudly instead of misparsing.
        for cut in 0..bytes.len() {
            assert!(decode_checkpoint(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        // Trailing garbage fails too.
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(decode_checkpoint(&padded).is_err());
    }

    #[test]
    fn result_records_round_trip_bit_exactly() {
        let pid = PacketId::new(NodeId::new(12), 99);
        let rec = StoredReconstruction {
            path: vec![NodeId::new(12), NodeId::new(4), NodeId::new(0)],
            hop_times_ms: vec![1.25, 6.5000001, 11.75],
        };
        let bytes = encode_result(pid, &rec);
        let (pid2, rec2) = decode_result(&bytes).unwrap();
        assert_eq!(pid2, pid);
        assert_eq!(rec2.path, rec.path);
        for (a, b) in rec.hop_times_ms.iter().zip(&rec2.hop_times_ms) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        for cut in 0..bytes.len() {
            assert!(decode_result(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn store_config_parses_the_operator_surface() {
        let cfg = StoreConfig::at("/tmp/x");
        assert_eq!(cfg.fsync, FsyncPolicy::Interval(64));
        assert_eq!(cfg.checkpoint_every, 4096);
        assert_eq!(cfg.max_result_segments, 0);
        assert_eq!(cfg.on_error, StoreErrorPolicy::Degrade);
        assert_eq!(cfg.probe_every, 256);
        assert_eq!(cfg.faults, None);
    }

    #[test]
    fn store_error_policy_round_trips_through_the_operator_spelling() {
        for (text, policy) in [
            ("fail", StoreErrorPolicy::Fail),
            ("degrade", StoreErrorPolicy::Degrade),
            ("drop-durability", StoreErrorPolicy::DropDurability),
        ] {
            assert_eq!(StoreErrorPolicy::parse(text).unwrap(), policy);
            assert_eq!(
                StoreErrorPolicy::parse(&policy.to_string()).unwrap(),
                policy
            );
        }
        assert!(StoreErrorPolicy::parse("explode").is_err());
    }
}
