//! The sharded online reconstruction service.
//!
//! [`SinkService`] owns N worker threads, each wrapping one
//! [`StreamingEstimator`]. Records are validated (via
//! `domo_core::sanitize`), deduplicated, and routed to a shard by the
//! **subtree** of the sink's routing tree that delivered them
//! ([`CollectedPacket::subtree_root`]): packets from one subtree share
//! forwarding nodes, so their FIFO/order/sum constraints couple, while
//! packets from different subtrees only share the trusted sink endpoint
//! — partitioning there costs the least constraint information.
//!
//! Each shard is fed through a **bounded** queue. When a queue is full
//! the *oldest queued* record is dropped (newest data keeps flowing, the
//! loss is visible as `backpressure_dropped` in the stats) — the service
//! sheds load the way the paper's sink sheds packets: silently for the
//! solver (which already tolerates missing records) but never silently
//! for the operator, and never with a panic.
//!
//! Two more failure domains are survived the same way (counted,
//! degraded, never fatal):
//!
//! * **Store errors.** A runtime failure of the WAL, checkpoint store
//!   or result log moves the durability state machine
//!   ([`SinkHealth`], DESIGN.md §8) per the configured
//!   [`crate::StoreErrorPolicy`] — by default the service *degrades*:
//!   records continue un-journaled (counted), emitted results are
//!   backlogged in memory, and a periodic heal probe (a full
//!   checkpoint) re-arms durability when the store recovers.
//! * **Dead shard workers.** A watchdog thread monitors per-worker
//!   heartbeats; a worker that panics is restarted from the last
//!   checkpoint snapshot, replaying the WAL suffix for its shard so the
//!   estimator sees the exact same push sequence (re-emissions are
//!   deduplicated, losses are counted as `watchdog_dropped`).

use crate::persist::{self, CheckpointSource, RecoveryReport, StoreConfig, StoreErrorPolicy};
use crate::wire;
use domo_core::sanitize::{check_packet, SanitizeConfig, TraceError};
use domo_core::streaming::{ReconstructedPacket, StreamingEstimator, StreamingSnapshot};
use domo_core::EstimatorConfig;
use domo_net::{CollectedPacket, NodeId, PacketId};
use domo_obs::trace::Stage as TraceStage;
use domo_obs::{LazyCounter, LazyGauge, LazyHistogram};
use domo_query::series::{self, AggBucket, AggConfig, AggStore};
use domo_query::sub::{Event, SubFilter, SubHub, SubOptions, Subscription};
use domo_store::results::ResultStoreStats;
use domo_store::wal::{WalConfig, WalStats};
use domo_store::{
    CheckpointStore, FaultyIo, FsyncPolicy, RealIo, ResultStore, ResultStoreConfig, StoreIo, Wal,
};
use domo_util::hash::FastHashSet;
use domo_util::running::RunningStats;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often the watchdog thread wakes to check worker liveness.
const WATCHDOG_POLL: Duration = Duration::from_millis(50);
/// A worker whose heartbeat is unchanged for this long *with work
/// queued* is reported stalled (gauge + one warning; never killed —
/// a slow solve is not a dead worker).
const STALL_AFTER: Duration = Duration::from_secs(1);
/// Poll interval for barriers that must notice a dead worker.
const BARRIER_POLL: Duration = Duration::from_millis(100);
/// Sentinel: no injected panic armed for this shard.
const CHAOS_DISARMED: u64 = u64::MAX;

/// Journey stamp for a sampled packet (no-op unless `pid` is in the
/// trace sample set; see [`domo_obs::trace`]).
fn trace_stamp(pid: PacketId, stage: TraceStage) {
    domo_obs::trace::stamp(pid.origin.index() as u16, pid.seq, stage);
}

/// Configuration of the online service.
#[derive(Debug, Clone)]
pub struct SinkConfig {
    /// Worker shards (each runs its own [`StreamingEstimator`]).
    pub shards: usize,
    /// Per-shard queue bound; beyond it the oldest queued record is
    /// dropped and counted.
    pub queue_capacity: usize,
    /// Configuration of every shard's wrapped estimator.
    pub estimator: EstimatorConfig,
    /// Flush-threshold override for the shard estimators (`None` keeps
    /// the [`StreamingEstimator::new`] default of four windows). Values
    /// below 2 are clamped exactly as
    /// [`StreamingEstimator::with_high_water`] clamps them; the value
    /// the shards actually use is
    /// [`SinkService::effective_high_water`] and is reported on the
    /// query protocol's STATS `high_water` line.
    pub high_water: Option<usize>,
    /// Record-validation knobs (the PR 1 sanitize path).
    pub sanitize: SanitizeConfig,
    /// How many finished per-packet reconstructions the snapshot store
    /// retains (oldest evicted first); per-node summaries are unbounded
    /// running statistics and never evict.
    pub max_retained_packets: usize,
    /// Durability configuration. `None` (the default) runs fully
    /// in-memory, exactly as before this field existed; `Some` journals
    /// every accepted record to a WAL, checkpoints shard state, and
    /// persists every emitted reconstruction — see
    /// [`SinkService::open`].
    pub store: Option<StoreConfig>,
    /// Ingest-connection deadline: a connection that delivers no bytes
    /// for this long is shed by the TCP server (`None` disables the
    /// deadline). Sheds are typed: `idle` when the peer sent nothing
    /// since the last frame, `stalled` mid-frame.
    pub ingest_idle_timeout: Option<Duration>,
    /// Query-connection deadline, same semantics as
    /// [`SinkConfig::ingest_idle_timeout`] (`None` disables).
    pub query_idle_timeout: Option<Duration>,
    /// Aggregation-sketch configuration behind `AGG` queries
    /// (granularity and per-node retention). Subscriber queues reuse
    /// [`SinkConfig::queue_capacity`] as their bound (drop-oldest,
    /// shed after 4× the bound in cumulative drops) — the same
    /// discipline the shard queues apply.
    pub agg: AggConfig,
    /// Live-connection cap, enforced per listener by the TCP server:
    /// the ingest reactor registry and the query thread pool each
    /// refuse connections beyond this bound, counted in
    /// `domo_sink_shed_total{reason="overcap"}`. Values below 1 are
    /// treated as 1.
    pub max_conns: usize,
    /// Per-tenant ingest quota: `Some(n)` caps the records each tenant
    /// namespace (DESIGN.md §17.2) may have accepted over the life of
    /// the dedup set; records beyond it are rejected as
    /// [`IngestOutcome::QuotaRejected`] — counted, never silent.
    /// `None` (the default) disables the cap; per-tenant accounting
    /// runs either way (the STATS `tenants` line and the `TENANTS`
    /// query command).
    pub tenant_quota: Option<u64>,
    /// Role label this process reports on the STATS `cluster_role`
    /// line: `standalone` (the default), `member` when serving as one
    /// shard of a cluster, `router` for a forwarding process.
    /// Free-form; the sink attaches no behavior to it.
    pub cluster_role: String,
}

impl Default for SinkConfig {
    fn default() -> Self {
        Self {
            shards: 2,
            queue_capacity: 4096,
            estimator: EstimatorConfig::default(),
            high_water: None,
            sanitize: SanitizeConfig::default(),
            max_retained_packets: 65_536,
            store: None,
            ingest_idle_timeout: None,
            query_idle_timeout: None,
            agg: AggConfig::default(),
            max_conns: 4096,
            tenant_quota: None,
            cluster_role: "standalone".to_string(),
        }
    }
}

/// What happened to one ingested record.
#[derive(Debug, Clone, PartialEq)]
pub enum IngestOutcome {
    /// Queued for reconstruction.
    Accepted,
    /// Queued, but the shard was saturated and its oldest pending
    /// record was dropped to make room.
    AcceptedDroppingOldest,
    /// Rejected by the sanitizer (counted, never fatal).
    Quarantined(TraceError),
    /// Rejected because the record's tenant is at its
    /// [`SinkConfig::tenant_quota`] cap. Counted (`TENANTS` command,
    /// `domo_sink_tenant_quota_rejected_total`) and stateless: the pid
    /// is *not* remembered, so the same record is accepted again if
    /// capacity ever appears.
    QuotaRejected,
    /// The service is shutting down; the record was not queued.
    Closed,
}

/// Tally of one [`SinkService::ingest_batch`] call. Every submitted
/// record lands in exactly one bucket (`saturated` is a sub-count of
/// `accepted`), so `accepted + quarantined + quota_rejected + closed`
/// equals the batch length.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BatchIngestReport {
    /// Records queued for reconstruction.
    pub accepted: u64,
    /// Of the accepted records, how many evicted the oldest queued
    /// record from a saturated shard (the evictions themselves are
    /// counted as `backpressure_dropped` in the service stats).
    pub saturated: u64,
    /// Records rejected by the sanitizer, including duplicates.
    pub quarantined: u64,
    /// Records rejected by the per-tenant ingest quota
    /// ([`SinkConfig::tenant_quota`]).
    pub quota_rejected: u64,
    /// Records refused because the service is shutting down.
    pub closed: u64,
}

/// Durability health — the degradation state machine of DESIGN.md §8.
///
/// `Healthy → Degraded ⇄ Healing → Healthy`, with two sticky terminal
/// states (`Dropped`, `Failed`) selected by
/// [`crate::StoreErrorPolicy`]. A volatile service (no data dir) is
/// always `Healthy`. The `Display` spelling (lowercase) is the STATS
/// `health` line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SinkHealth {
    /// Durability active (or nothing to degrade: volatile service).
    #[default]
    Healthy = 0,
    /// A store error suspended durability: records continue
    /// un-journaled (counted), results are backlogged, heal probes run
    /// every [`StoreConfig::probe_every`] accepted records.
    Degraded = 1,
    /// A heal probe (a full checkpoint through the failing store) is
    /// running right now; success returns to `Healthy`.
    Healing = 2,
    /// Durability permanently abandoned
    /// (`--on-store-error drop-durability`). Sticky.
    Dropped = 3,
    /// The service refused to continue without durability
    /// (`--on-store-error fail`); the serve binary exits nonzero when
    /// it observes this. Sticky.
    Failed = 4,
}

impl SinkHealth {
    fn from_u8(v: u8) -> Self {
        match v {
            1 => Self::Degraded,
            2 => Self::Healing,
            3 => Self::Dropped,
            4 => Self::Failed,
            _ => Self::Healthy,
        }
    }
}

impl std::fmt::Display for SinkHealth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Healthy => write!(f, "healthy"),
            Self::Degraded => write!(f, "degraded"),
            Self::Healing => write!(f, "healing"),
            Self::Dropped => write!(f, "dropped"),
            Self::Failed => write!(f, "failed"),
        }
    }
}

/// Point-in-time view of the degradation machinery
/// ([`SinkService::health_status`]). All zeros on a volatile service.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HealthStatus {
    /// Current state of the durability state machine.
    pub health: SinkHealth,
    /// Times the service left `Healthy` (distinct degradation events,
    /// not individual store errors).
    pub degraded_entries: u64,
    /// Successful heals (`Degraded`/`Healing` → `Healthy`).
    pub heals: u64,
    /// Store operations that failed at runtime (post-open).
    pub store_errors: u64,
    /// Records accepted while durability was suspended (they
    /// reconstruct, but only a later checkpoint makes them durable).
    pub unjournaled: u64,
    /// Emitted results currently waiting in the in-memory backlog for
    /// the store to heal.
    pub backlogged: usize,
    /// Shard workers restarted by the watchdog.
    pub watchdog_restarts: u64,
    /// In-flight records lost to worker deaths (see
    /// [`SinkStatsSnapshot::watchdog_dropped`]).
    pub watchdog_dropped: u64,
}

/// A point-in-time copy of the service counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SinkStatsSnapshot {
    /// Records accepted into a shard queue.
    pub ingested: u64,
    /// Reconstructions emitted by the shard estimators.
    pub emitted: u64,
    /// Records rejected by the sanitizer (including duplicates).
    pub quarantined: u64,
    /// Frames that failed to decode at the wire layer.
    pub malformed_frames: u64,
    /// Records dropped from saturated shard queues.
    pub backpressure_dropped: u64,
    /// `try_push`/`try_finish` errors from shard estimators (only
    /// possible with an invalid estimator configuration).
    pub estimator_errors: u64,
    /// Records lost when the watchdog restarted a dead shard worker
    /// and neither the last checkpoint, the WAL, nor the queue held a
    /// copy to replay.
    pub watchdog_dropped: u64,
}

/// Per-node sojourn-delay summary over every emitted reconstruction.
///
/// The sojourn attributed to node `path[i]` of a packet is
/// `t_{i+1} − t_i`: the time from the packet's arrival at the node to
/// its arrival at the next hop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeDelaySummary {
    /// The forwarding node.
    pub node: NodeId,
    /// Sojourn samples attributed to it.
    pub count: u64,
    /// Mean sojourn (ms).
    pub mean_ms: f64,
    /// Smallest sojourn (ms).
    pub min_ms: f64,
    /// Largest sojourn (ms).
    pub max_ms: f64,
}

/// One retained per-packet reconstruction.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredReconstruction {
    /// The packet's routing path, source first, sink last.
    pub path: Vec<NodeId>,
    /// Reconstructed arrival times aligned with `path` (ms).
    pub hop_times_ms: Vec<f64>,
}

/// Cumulative subscriber fan-out accounting for one service.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SubTotals {
    /// Events enqueued to subscriber queues.
    pub delivered: u64,
    /// Events evicted by the per-subscriber drop-oldest bound.
    pub lagged_dropped: u64,
    /// Subscribers shed for persistently lagging.
    pub shed: u64,
    /// Subscribers currently registered.
    pub subscribers: usize,
}

/// A point-in-time view of the whole service.
#[derive(Debug, Clone, PartialEq)]
pub struct SinkSnapshot {
    /// Counter values at snapshot time.
    pub stats: SinkStatsSnapshot,
    /// Per-node summaries, sorted by node id.
    pub nodes: Vec<NodeDelaySummary>,
    /// Per-packet reconstructions currently retained.
    pub retained_packets: usize,
}

// Scrapeable mirrors of the `StatsCells` counters (process-cumulative,
// where the snapshot below is per-service), plus per-shard queue
// telemetry registered in `SinkService::start`.
static OBS_INGESTED: LazyCounter = LazyCounter::new("domo_sink_ingested_total", &[]);
static OBS_EMITTED: LazyCounter = LazyCounter::new("domo_sink_emitted_total", &[]);
static OBS_QUARANTINED: LazyCounter = LazyCounter::new("domo_sink_quarantined_total", &[]);
static OBS_MALFORMED: LazyCounter = LazyCounter::new("domo_sink_malformed_frames_total", &[]);
static OBS_BACKPRESSURE: LazyCounter =
    LazyCounter::new("domo_sink_backpressure_dropped_total", &[]);
static OBS_EST_ERRORS: LazyCounter = LazyCounter::new("domo_sink_estimator_errors_total", &[]);
static OBS_RECOVERIES: LazyCounter = LazyCounter::new("domo_sink_recoveries_total", &[]);
static OBS_REPLAYED: LazyCounter = LazyCounter::new("domo_sink_wal_replayed_total", &[]);
static OBS_PERSIST_ERRORS: LazyCounter = LazyCounter::new("domo_sink_persist_errors_total", &[]);
static OBS_CHECKPOINTS: LazyCounter = LazyCounter::new("domo_sink_checkpoints_total", &[]);
// Degradation state machine + watchdog telemetry.
static OBS_STORE_ERRORS: LazyCounter = LazyCounter::new("domo_sink_store_errors_total", &[]);
static OBS_DEGRADED: LazyGauge = LazyGauge::new("domo_sink_degraded", &[]);
static OBS_DEGRADED_TOTAL: LazyCounter = LazyCounter::new("domo_sink_degraded_total", &[]);
static OBS_HEALS: LazyCounter = LazyCounter::new("domo_sink_heals_total", &[]);
static OBS_UNJOURNALED: LazyCounter = LazyCounter::new("domo_sink_unjournaled_total", &[]);
static OBS_WD_RESTARTS: LazyCounter = LazyCounter::new("domo_sink_watchdog_restarts_total", &[]);
static OBS_WD_DROPPED: LazyCounter = LazyCounter::new("domo_sink_watchdog_dropped_total", &[]);
// Live query layer (SUBSCRIBE fan-out + AGG) telemetry.
static OBS_BATCH_PACKETS: LazyHistogram = LazyHistogram::new("domo_sink_ingest_batch_packets", &[]);

static OBS_SUB_DELIVERED: LazyCounter = LazyCounter::new("domo_sink_sub_delivered_total", &[]);
static OBS_SUB_LAGGED: LazyCounter = LazyCounter::new("domo_sink_sub_lagged_dropped_total", &[]);
static OBS_SUB_SHED: LazyCounter = LazyCounter::new("domo_sink_sub_shed_total", &[]);
static OBS_SUBSCRIBERS: LazyGauge = LazyGauge::new("domo_sink_subscribers", &[]);
static OBS_AGG_QUERIES: LazyCounter = LazyCounter::new("domo_sink_agg_queries_total", &[]);
static OBS_AGG_BACKFILLS: LazyCounter = LazyCounter::new("domo_sink_agg_backfills_total", &[]);
static OBS_QUOTA_REJECTED: LazyCounter =
    LazyCounter::new("domo_sink_tenant_quota_rejected_total", &[]);

#[derive(Debug, Default)]
struct StatsCells {
    ingested: AtomicU64,
    emitted: AtomicU64,
    quarantined: AtomicU64,
    malformed_frames: AtomicU64,
    backpressure_dropped: AtomicU64,
    estimator_errors: AtomicU64,
    watchdog_dropped: AtomicU64,
}

impl StatsCells {
    /// The counters in the order a checkpoint stores them.
    fn checkpointed(&self) -> [&AtomicU64; 7] {
        [
            &self.ingested,
            &self.emitted,
            &self.quarantined,
            &self.malformed_frames,
            &self.backpressure_dropped,
            &self.estimator_errors,
            &self.watchdog_dropped,
        ]
    }

    fn snapshot(&self) -> SinkStatsSnapshot {
        SinkStatsSnapshot {
            ingested: self.ingested.load(Ordering::Relaxed),
            emitted: self.emitted.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
            malformed_frames: self.malformed_frames.load(Ordering::Relaxed),
            backpressure_dropped: self.backpressure_dropped.load(Ordering::Relaxed),
            estimator_errors: self.estimator_errors.load(Ordering::Relaxed),
            watchdog_dropped: self.watchdog_dropped.load(Ordering::Relaxed),
        }
    }
}

#[derive(Debug, Default)]
struct Store {
    node_stats: HashMap<NodeId, RunningStats>,
    /// Retained reconstructions, each as its [`persist::encode_result`]
    /// bytes: one allocation and a 24-byte map slot per packet, where a
    /// [`StoredReconstruction`] is two allocations and a 56-byte slot.
    packets: HashMap<PacketId, Box<[u8]>>,
    insertion_order: VecDeque<PacketId>,
    /// Every pid ever counted as emitted. A watchdog restart replays
    /// the full WAL suffix through a fresh estimator to keep the push
    /// sequence bit-identical, so re-emissions of already-counted
    /// packets are expected — this set makes them idempotent (node
    /// stats, the result log, and the `emitted` counter each advance
    /// exactly once per pid).
    emitted_pids: FastHashSet<PacketId>,
    /// Per-node time-bucketed delay sketches behind `AGG` queries, fed
    /// under the same `fresh` gate as `node_stats` so every sojourn is
    /// sketched exactly once.
    agg: AggStore,
}

enum ShardMsg {
    Packet(CollectedPacket),
    /// Flush everything (`try_finish`), then ack with the number of
    /// *freshly* emitted reconstructions the flush produced.
    Drain(SyncSender<u64>),
    /// Flush the oldest half early (`try_flush_now`), then ack with the
    /// fresh-emission count.
    Flush(SyncSender<u64>),
    /// Checkpoint barrier: send the estimator's snapshot, then block
    /// until the checkpointer releases the worker. While every shard is
    /// parked here the service's mutable state is frozen, so the
    /// captured snapshots, counters, and node summaries are all
    /// consistent with one WAL cut.
    Snapshot(SyncSender<StreamingSnapshot>, Receiver<()>),
}

#[derive(Default)]
struct QueueState {
    msgs: VecDeque<ShardMsg>,
    queued_packets: usize,
    closed: bool,
}

struct ShardQueue {
    state: Mutex<QueueState>,
    ready: Condvar,
    capacity: usize,
    /// Live queued-packet count, as `domo_sink_queue_depth{shard=…}`.
    depth: domo_obs::Gauge,
    /// Oldest-packet drops, as `domo_sink_queue_dropped_total{shard=…}`.
    dropped: domo_obs::Counter,
}

/// Locks a mutex, recovering the data from a poisoned lock (a panicking
/// worker must degrade the service, not wedge it).
fn lock_or_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

impl ShardQueue {
    fn new(capacity: usize, shard: usize) -> Self {
        // Registering here (not on first traffic) makes the gauges
        // visible to a `METRICS` scrape the moment the service is up.
        let recorder = domo_obs::Recorder::global();
        let shard_label = shard.to_string();
        let labels: &[(&str, &str)] = &[("shard", shard_label.as_str())];
        Self {
            state: Mutex::new(QueueState::default()),
            ready: Condvar::new(),
            capacity: capacity.max(1),
            depth: recorder.gauge("domo_sink_queue_depth", labels),
            dropped: recorder.counter("domo_sink_queue_dropped_total", labels),
        }
    }

    /// Enqueues a control message (exempt from the capacity bound).
    /// Returns `false` when the queue is closed.
    fn push_control(&self, msg: ShardMsg) -> bool {
        let mut st = lock_or_recover(&self.state);
        if st.closed {
            return false;
        }
        st.msgs.push_back(msg);
        drop(st);
        self.ready.notify_one();
        true
    }

    /// Blocks for the next message; `None` once closed *and* empty
    /// (everything queued before the close is still delivered).
    fn pop(&self) -> Option<ShardMsg> {
        let mut st = lock_or_recover(&self.state);
        loop {
            if let Some(msg) = st.msgs.pop_front() {
                if matches!(msg, ShardMsg::Packet(_)) {
                    st.queued_packets -= 1;
                    self.depth.set(st.queued_packets as f64);
                }
                return Some(msg);
            }
            if st.closed {
                return None;
            }
            st = self
                .ready
                .wait(st)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }

    /// Current queued-packet count (watchdog stall detection).
    fn queued(&self) -> usize {
        lock_or_recover(&self.state).queued_packets
    }

    /// Removes every queued *packet* (control messages keep their
    /// relative order and position at the front), returning the packets
    /// in queue order — watchdog restart only.
    fn purge_packets(&self) -> Vec<CollectedPacket> {
        let mut st = lock_or_recover(&self.state);
        let mut out = Vec::with_capacity(st.queued_packets);
        let mut rest = VecDeque::with_capacity(st.msgs.len());
        for msg in st.msgs.drain(..) {
            match msg {
                ShardMsg::Packet(p) => out.push(p),
                other => rest.push_back(other),
            }
        }
        st.msgs = rest;
        st.queued_packets = 0;
        self.depth.set(0.0);
        out
    }

    /// Requeues packets at the *front* of the queue, before any pending
    /// control message, preserving their order — watchdog restart only
    /// (a barrier queued behind the dead worker must see the replayed
    /// history first).
    fn prepend_packets(&self, packets: Vec<CollectedPacket>) {
        let mut st = lock_or_recover(&self.state);
        let n = packets.len();
        for p in packets.into_iter().rev() {
            st.msgs.push_front(ShardMsg::Packet(p));
        }
        st.queued_packets += n;
        self.depth.set(st.queued_packets as f64);
        drop(st);
        self.ready.notify_all();
    }

    fn close(&self) {
        lock_or_recover(&self.state).closed = true;
        self.ready.notify_all();
    }
}

/// Admission state guarded by one mutex: holding it serializes the
/// dedup decision, the journal append and the shard pushes of a batch,
/// so **journal order equals queue order** per shard — the invariant
/// that makes a checkpoint's WAL cut exact.
#[derive(Default)]
struct Admission {
    /// Ids of every packet admitted so far (below compacted history,
    /// restored from the checkpoint) — the set checkpoints persist. A
    /// pid enters it in the same lock window as its journal record, so
    /// recovery never remembers a packet it cannot replay.
    /// (Degraded-mode records are the one exception: accepted
    /// un-journaled, they stay visible here and are made durable by the
    /// next checkpoint instead.)
    seen: FastHashSet<PacketId>,
    /// The journal; `None` on a volatile service, where the journal
    /// step of admission is a no-op.
    wal: Option<Wal>,
    appends_since_ckpt: u64,
}

impl Admission {
    /// The journal (`Unsupported` on a volatile service).
    fn journal(&mut self) -> std::io::Result<&mut Wal> {
        self.wal.as_mut().ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::Unsupported,
                "durability is disabled (no data dir)",
            )
        })
    }
}

/// Result-log state: the store plus the ids already persisted, which
/// gates appends so recovery replay can never double-emit.
struct ResultState {
    store: ResultStore,
    persisted: FastHashSet<PacketId>,
    /// Results emitted while durability was suspended, waiting for a
    /// heal. Flushed (in emission order) at the front of every
    /// checkpoint; their pids are already in `persisted`.
    backlog: VecDeque<(PacketId, f64, Vec<u8>)>,
}

/// Everything durability adds to a running service.
struct Persistence {
    cfg: StoreConfig,
    checkpoints: CheckpointStore,
    results: Mutex<ResultState>,
    /// Serializes checkpoints (the auto-trigger try-locks and skips).
    ckpt_guard: Mutex<()>,
    last_checkpoint_lsn: AtomicU64,
    /// Finalized once, at the end of `open` (the replay count arrives
    /// after the struct is built).
    recovery: Mutex<RecoveryReport>,
    /// The durability state machine (a `SinkHealth` discriminant).
    health: AtomicU8,
    /// Accepted records since the last heal probe (degraded mode only).
    since_probe: AtomicU64,
    degraded_entries: AtomicU64,
    heals: AtomicU64,
    store_errors: AtomicU64,
    unjournaled: AtomicU64,
}

impl Persistence {
    fn health(&self) -> SinkHealth {
        SinkHealth::from_u8(self.health.load(Ordering::Relaxed))
    }

    fn durability_active(&self) -> bool {
        matches!(self.health(), SinkHealth::Healthy)
    }

    fn cas_health(&self, from: SinkHealth, to: SinkHealth) -> bool {
        self.health
            .compare_exchange(from as u8, to as u8, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
    }

    /// Moves the machine to a non-healthy state. Terminal states stick;
    /// a distinct degradation event is counted only on leaving
    /// `Healthy`.
    fn mark_unhealthy(&self, to: SinkHealth) {
        loop {
            let cur = self.health();
            if matches!(cur, SinkHealth::Failed | SinkHealth::Dropped) || cur == to {
                return;
            }
            if self.cas_health(cur, to) {
                if cur == SinkHealth::Healthy {
                    self.degraded_entries.fetch_add(1, Ordering::Relaxed);
                    OBS_DEGRADED_TOTAL.inc();
                }
                OBS_DEGRADED.set(1.0);
                domo_obs::warn!(
                    target: "domo_sink::health",
                    "durability suspended",
                    health = to.to_string(),
                );
                domo_obs::flight!("degraded", from = cur.to_string(), to = to.to_string(),);
                // Post-mortem dump at the moment of failure. The dump
                // touches only the flight ring and the *real*
                // filesystem (injected store faults live above it), so
                // this is safe and effective mid-storm. Transitions
                // fire once per entry, so dump frequency is bounded.
                let _ = domo_obs::flight_dump(&self.cfg.data_dir);
                return;
            }
        }
    }

    /// `Degraded`/`Healing` → `Healthy` (no-op from any other state).
    /// Every successfully completed checkpoint calls this: a checkpoint
    /// is exactly the proof the store works end to end.
    fn mark_healed(&self) {
        loop {
            let cur = self.health();
            if !matches!(cur, SinkHealth::Degraded | SinkHealth::Healing) {
                return;
            }
            if self.cas_health(cur, SinkHealth::Healthy) {
                self.heals.fetch_add(1, Ordering::Relaxed);
                OBS_HEALS.inc();
                OBS_DEGRADED.set(0.0);
                domo_obs::info!(
                    target: "domo_sink::health",
                    "store healed; durability re-armed",
                );
                domo_obs::flight!("healed", from = cur.to_string());
                return;
            }
        }
    }

    /// Counts a runtime store failure and applies the configured
    /// policy. Never panics, never blocks.
    fn note_store_error(&self, what: &str, e: &std::io::Error) {
        self.store_errors.fetch_add(1, Ordering::Relaxed);
        OBS_STORE_ERRORS.inc();
        OBS_PERSIST_ERRORS.inc();
        domo_obs::warn!(
            target: "domo_sink::persist",
            "store operation failed",
            op = what,
            error = e.to_string(),
            policy = self.cfg.on_error.to_string(),
        );
        domo_obs::flight!(
            "store_error",
            op = what,
            error = e.to_string(),
            policy = self.cfg.on_error.to_string(),
        );
        match self.cfg.on_error {
            StoreErrorPolicy::Fail => self.mark_unhealthy(SinkHealth::Failed),
            StoreErrorPolicy::Degrade => self.mark_unhealthy(SinkHealth::Degraded),
            StoreErrorPolicy::DropDurability => self.mark_unhealthy(SinkHealth::Dropped),
        }
    }
}

/// Routes a failed checkpoint: `Unsupported` (durability already
/// dropped) and `Interrupted` (barrier aborted — a worker died; the
/// watchdog handles it) are not store verdicts, everything else engages
/// the store-error policy.
fn note_checkpoint_failure(persist: &Persistence, e: &std::io::Error) {
    if matches!(
        e.kind(),
        std::io::ErrorKind::Unsupported | std::io::ErrorKind::Interrupted
    ) {
        OBS_PERSIST_ERRORS.inc();
        domo_obs::warn!(
            target: "domo_sink::persist",
            "checkpoint skipped",
            error = e.to_string(),
        );
    } else {
        persist.note_store_error("checkpoint", e);
    }
}

/// Operator-facing durability status (the `STORE STATS` / STATS lines).
#[derive(Debug, Clone, PartialEq)]
pub struct StoreStatus {
    /// The configured data directory.
    pub data_dir: std::path::PathBuf,
    /// The configured fsync policy.
    pub fsync: FsyncPolicy,
    /// WAL position/size summary.
    pub wal: WalStats,
    /// Result-log size summary.
    pub results: ResultStoreStats,
    /// WAL cut of the newest checkpoint written this run (0 before the
    /// first; restored from the recovery checkpoint at open).
    pub last_checkpoint_lsn: u64,
    /// Checkpoint files currently on disk (retention keeps ≤ 2).
    pub checkpoints_on_disk: usize,
    /// Size of the durable dedup set (journaled pids).
    pub dedup_pids: usize,
    /// What recovery found at open.
    pub recovery: RecoveryReport,
}

/// State [`SinkService::open`] starts the workers from: for a durable
/// service the persistence handle, the journal with the dedup set of
/// everything it (and the checkpoint below it) holds, the per-shard
/// estimator snapshots from the checkpoint, and the WAL tail awaiting
/// replay; for a volatile one, nothing.
struct Recovered {
    persistence: Option<Arc<Persistence>>,
    admission: Admission,
    covered: u64,
    shard_snapshots: Vec<Option<StreamingSnapshot>>,
    tail_records: Vec<(u64, Vec<u8>)>,
}

impl Recovered {
    fn volatile(shards: usize) -> Self {
        Self {
            persistence: None,
            admission: Admission::default(),
            covered: 0,
            shard_snapshots: (0..shards).map(|_| None).collect(),
            tail_records: Vec::new(),
        }
    }

    fn load(
        sc: &StoreConfig,
        shards: usize,
        stats: &StatsCells,
        store: &Mutex<Store>,
        cfg: &SinkConfig,
    ) -> std::io::Result<Self> {
        // Chaos only: route every filesystem call of every store
        // component through one shared seeded fault plan, so `after_ops`
        // windows count operations across the whole data directory.
        let io: Arc<dyn StoreIo> = match sc.faults {
            Some(plan) => Arc::new(FaultyIo::new(plan)),
            None => Arc::new(RealIo),
        };
        let (wal, tail) = Wal::open_with_io(
            sc.data_dir.join("wal"),
            WalConfig {
                fsync: sc.fsync,
                ..WalConfig::default()
            },
            Arc::clone(&io),
        )?;
        let checkpoints = CheckpointStore::open_with_io(sc.data_dir.join("ckpt"), Arc::clone(&io))?;
        let (rstore, result_bytes_discarded) = ResultStore::open_with_io(
            sc.data_dir.join("results"),
            ResultStoreConfig {
                max_sealed_segments: sc.max_result_segments,
                ..ResultStoreConfig::default()
            },
            io,
        )?;
        let mut report = RecoveryReport {
            wal_records: tail.records,
            wal_bytes_discarded: tail.bytes_discarded,
            wal_segments_discarded: tail.segments_discarded,
            result_bytes_discarded,
            ..RecoveryReport::default()
        };

        // Seed from the newest valid checkpoint, if any. A checkpoint
        // that passes the store's checksum but fails our decode is
        // treated like a corrupt one: skipped, counted, recovered past.
        let mut shard_snapshots: Vec<Option<StreamingSnapshot>> =
            (0..shards).map(|_| None).collect();
        let mut checkpointed_pids: Vec<PacketId> = Vec::new();
        let mut covered = 0u64;
        if let Some(loaded) = checkpoints.latest()? {
            match persist::decode_checkpoint(&loaded.payload) {
                Ok(state) => {
                    if state.shards.len() != shards {
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::InvalidData,
                            format!(
                                "checkpoint was written with {} shards but the service is \
                                 configured with {shards}; estimator state cannot be \
                                 re-partitioned — reuse the original shard count or start \
                                 a fresh data directory",
                                state.shards.len()
                            ),
                        ));
                    }
                    covered = loaded.covered;
                    for (slot, snap) in shard_snapshots.iter_mut().zip(state.shards) {
                        *slot = Some(snap);
                    }
                    for (cell, v) in stats.checkpointed().iter().zip(state.counters) {
                        cell.store(v, Ordering::Relaxed);
                    }
                    checkpointed_pids = state.seen;
                    let mut st = lock_or_recover(store);
                    st.node_stats = persist::node_stats_from_parts(&state.node_stats);
                    // Bit-identical sketch restore; a granularity
                    // change discards the snapshot (keys would not
                    // translate) and AGG backfills from the result log.
                    st.agg = AggStore::from_parts(cfg.agg, &state.agg);
                }
                Err(e) => {
                    report.checkpoints_skipped += 1;
                    OBS_PERSIST_ERRORS.inc();
                    domo_obs::warn!(
                        target: "domo_sink::recovery",
                        "checkpoint payload failed decode; recovering without it",
                        covered = loaded.covered,
                        error = e.to_string(),
                    );
                }
            }
        }
        report.checkpoint_lsn = covered;

        // Rebuild the reconstruction cache and the persisted-pid index
        // from the result log (append order == emission order). A pid
        // in the result log has, by definition, been emitted — seed the
        // emission-dedup set so replay cannot re-count it.
        let mut persisted: FastHashSet<PacketId> = FastHashSet::default();
        {
            let mut st = lock_or_recover(store);
            for (_t, bytes) in rstore.scan_all()? {
                match persist::decode_result(&bytes) {
                    Ok((pid, _)) => {
                        report.result_records += 1;
                        persisted.insert(pid);
                        if st.packets.insert(pid, bytes.into()).is_none() {
                            st.insertion_order.push_back(pid);
                        }
                        while st.packets.len() > cfg.max_retained_packets.max(1) {
                            let Some(old) = st.insertion_order.pop_front() else {
                                break;
                            };
                            st.packets.remove(&old);
                        }
                    }
                    Err(_) => OBS_PERSIST_ERRORS.inc(),
                }
            }
        }

        // The WAL tail past the checkpoint replays through the shards;
        // its pids enter the dedup set now so a client re-sending the
        // same input is quarantined, not double-processed.
        let tail_records = wal.records_from(covered)?;
        let seen: FastHashSet<PacketId> = checkpointed_pids
            .into_iter()
            .chain(
                tail_records
                    .iter()
                    .filter_map(|(_, payload)| Some(wire::decode_packet(payload).ok()?.0.pid)),
            )
            .collect();

        let persistence = Arc::new(Persistence {
            cfg: sc.clone(),
            checkpoints,
            results: Mutex::new(ResultState {
                store: rstore,
                persisted,
                backlog: VecDeque::new(),
            }),
            ckpt_guard: Mutex::new(()),
            last_checkpoint_lsn: AtomicU64::new(covered),
            recovery: Mutex::new(report),
            health: AtomicU8::new(SinkHealth::Healthy as u8),
            since_probe: AtomicU64::new(0),
            degraded_entries: AtomicU64::new(0),
            heals: AtomicU64::new(0),
            store_errors: AtomicU64::new(0),
            unjournaled: AtomicU64::new(0),
        });
        Ok(Self {
            persistence: Some(persistence),
            admission: Admission {
                seen,
                wal: Some(wal),
                appends_since_ckpt: 0,
            },
            covered,
            shard_snapshots,
            tail_records,
        })
    }
}

/// The journal step of admission, under the caller-held `admission`
/// lock: appends the batch to the WAL in order and returns
/// `(checkpoint_due, probe_due)`. While durability is suspended the
/// records are accepted un-journaled (counted) and drive the heal-probe
/// cadence instead.
fn journal_batch(
    persist: &Persistence,
    adm: &mut Admission,
    routed: &[(usize, CollectedPacket)],
) -> (bool, bool) {
    let Some(wal) = adm.wal.as_mut() else {
        return (false, false);
    };
    if routed.is_empty() {
        return (false, false); // nothing survived sanitize + dedup
    }
    let mut checkpoint_due = false;
    let mut probe_due = false;
    let unjournaled;
    // Records admitted with durability already suspended: they drive
    // the heal-probe cadence.
    let mut probe_tail = 0u64;
    if persist.durability_active() {
        let mut frames: Vec<Vec<u8>> = Vec::with_capacity(routed.len());
        // `routed` index behind each frame, and the routed indices of
        // records the wire codec refused (accepted un-journaled).
        let mut enc_pos: Vec<usize> = Vec::with_capacity(routed.len());
        let mut unencodable: Vec<usize> = Vec::new();
        for (i, (_, p)) in routed.iter().enumerate() {
            let mut frame = Vec::new();
            if wire::encode_packet(p, &mut frame).is_ok() {
                frames.push(frame);
                enc_pos.push(i);
            } else {
                unencodable.push(i);
            }
        }
        let out = wal.append_batch(frames.iter().map(Vec::as_slice));
        if out.appended > 0 {
            adm.appends_since_ckpt += out.appended as u64;
            checkpoint_due = adm.appends_since_ckpt >= persist.cfg.checkpoint_every.max(1);
        }
        match out.error {
            None => unjournaled = unencodable.len() as u64,
            Some(e) => {
                // Disk trouble degrades durability, not service: the
                // failing record and everything behind it are accepted
                // un-journaled, and the tail counts toward the probe
                // cadence one record at a time.
                persist.note_store_error("wal append", &e);
                let failed_at = enc_pos[out.appended];
                let tail = (routed.len() - failed_at - 1) as u64;
                let before = unencodable.iter().filter(|&&i| i < failed_at).count() as u64;
                unjournaled = before + 1 + tail;
                if persist.health() == SinkHealth::Degraded {
                    probe_tail = tail;
                }
            }
        }
        for &i in &enc_pos[..out.appended] {
            trace_stamp(routed[i].1.pid, TraceStage::WalAppend);
        }
    } else {
        // Degraded (or dropped/failed) before the batch: everything is
        // accepted un-journaled. The records reconstruct normally; only
        // their crash durability is suspended until the next
        // checkpoint.
        unjournaled = routed.len() as u64;
        if persist.health() == SinkHealth::Degraded {
            probe_tail = routed.len() as u64;
        }
    }
    if unjournaled > 0 {
        persist
            .unjournaled
            .fetch_add(unjournaled, Ordering::Relaxed);
        OBS_UNJOURNALED.add(unjournaled);
    }
    if probe_tail > 0 {
        let pe = persist.cfg.probe_every.max(1);
        let n = persist.since_probe.fetch_add(probe_tail, Ordering::Relaxed) + probe_tail;
        if n >= pe {
            // The counter is zeroed at every crossing; over
            // `probe_tail` unit increments that leaves exactly the
            // modulus, whatever the batch size.
            persist.since_probe.store(n % pe, Ordering::Relaxed);
            probe_due = true;
        }
    }
    (checkpoint_due, probe_due)
}

/// Shared inner state: everything the public handle, the shard workers
/// and the watchdog thread need. One `Arc<Core>` is cloned into every
/// thread; the public [`SinkService`] is a thin wrapper.
struct Core {
    shards: Vec<Arc<ShardQueue>>,
    /// One slot per shard; `None` while the watchdog is mid-restart.
    workers: Mutex<Vec<Option<JoinHandle<()>>>>,
    stats: StatsCells,
    store: Mutex<Store>,
    /// The one admission lock: dedup set plus (when durable) the
    /// journal. Lock order: `ckpt_guard` → `admission` → `inflight`.
    admission: Mutex<Admission>,
    sanitize: SanitizeConfig,
    est_cfg: EstimatorConfig,
    high_water: Option<usize>,
    max_retained: usize,
    effective_high_water: usize,
    started: Instant,
    persist: Option<Arc<Persistence>>,
    /// Monotonic per-worker liveness counters (bumped per message).
    heartbeats: Vec<AtomicU64>,
    /// Chaos hook: worker panics after dequeuing this many more
    /// packets ([`CHAOS_DISARMED`] = off).
    chaos_panics: Vec<AtomicU64>,
    /// Pids pushed to each shard and not yet through `record_batch` —
    /// the watchdog's loss ledger.
    inflight: Vec<Mutex<FastHashSet<PacketId>>>,
    /// Pids shed by drop-oldest backpressure since open (durable mode
    /// only): a watchdog WAL replay must not resurrect them, or the
    /// restarted estimator would see a different sequence than the
    /// original worker did. Never pruned (same precedent as `seen`).
    dropped_pids: Mutex<FastHashSet<PacketId>>,
    /// WAL cut + per-shard snapshots of the last completed checkpoint —
    /// the watchdog's restart baseline.
    last_ckpt: Mutex<(u64, Vec<Option<StreamingSnapshot>>)>,
    closing: AtomicBool,
    watchdog_restarts: AtomicU64,
    ingest_idle: Option<Duration>,
    query_idle: Option<Duration>,
    /// Live-subscription fan-out. Published to under the `store` lock
    /// (lock order store → hub registry), which makes a subscriber's
    /// registration-plus-backfill atomic against emissions — the basis
    /// of the exactly-once SUBSCRIBE contract.
    hub: SubHub,
    /// Queue policy applied to every subscriber.
    sub_opts: SubOptions,
    /// Per-tenant ingest quota (`None` = unlimited).
    tenant_quota: Option<u64>,
    /// Role label reported on STATS; see [`SinkConfig::cluster_role`].
    cluster_role: String,
    /// Accepted-record count per tenant namespace, charged under the
    /// same lock window as the dedup insert (so a quota rejection can
    /// un-remember its pid atomically). Seeded from the recovered
    /// dedup set on open — pids embed their tenant, so the counts
    /// survive restarts without any new on-disk state.
    tenant_counts: Mutex<BTreeMap<u16, u64>>,
    /// Records rejected by the quota since open.
    quota_rejected: AtomicU64,
}

impl Core {
    fn note_quarantined(&self, n: u64) {
        if n > 0 {
            self.stats.quarantined.fetch_add(n, Ordering::Relaxed);
            OBS_QUARANTINED.add(n);
        }
    }

    /// The one admission path: sanitize and route with no lock held;
    /// then, under one `admission` lock hold, dedup + quota-charge,
    /// journal (a no-op without a store) and push grouped by shard;
    /// then, the lock released, the checkpoint / heal-probe trigger —
    /// once per call, so the batch is the scheduling quantum for those
    /// background transitions. The partition-invariance contract is on
    /// [`SinkService::ingest_batch`]; a store error mid-batch journals
    /// exactly the prefix before the failing record, engages the error
    /// policy once, and accepts the rest un-journaled.
    ///
    /// Also returns why the last quarantined record was rejected —
    /// what [`SinkService::ingest`] reports for its batch of one.
    fn admit(&self, packets: Vec<CollectedPacket>) -> (BatchIngestReport, Option<TraceError>) {
        let mut report = BatchIngestReport::default();
        let mut rejected = None;
        if packets.is_empty() {
            return (report, rejected);
        }
        OBS_BATCH_PACKETS.observe(packets.len() as f64);
        let mut routed: Vec<(usize, CollectedPacket)> = Vec::with_capacity(packets.len());
        for p in packets {
            if let Err(e) = check_packet(&p, &self.sanitize) {
                report.quarantined += 1;
                rejected = Some(e);
                continue;
            }
            // Sanitized records always have ≥ 2 path nodes.
            let Some(root) = p.subtree_root() else {
                report.quarantined += 1;
                rejected = Some(TraceError::PathTooShort { len: p.path.len() });
                continue;
            };
            trace_stamp(p.pid, TraceStage::BatchSubmit);
            routed.push((root.index() % self.shards.len(), p));
        }
        self.note_quarantined(report.quarantined);
        let persist = self.persist.as_deref();
        let mut checkpoint_due = false;
        let mut probe_due = false;
        {
            let mut adm = lock_or_recover(&self.admission);
            let (dups, quota_hits) = self.dedup_and_charge(&mut adm.seen, &mut routed);
            if dups > 0 {
                report.quarantined += dups;
                rejected = Some(TraceError::DuplicateId);
                self.note_quarantined(dups);
            }
            if quota_hits > 0 {
                report.quota_rejected += quota_hits;
                self.quota_rejected.fetch_add(quota_hits, Ordering::Relaxed);
                OBS_QUOTA_REJECTED.add(quota_hits);
            }
            if let Some(persist) = persist {
                (checkpoint_due, probe_due) = journal_batch(persist, &mut adm, &routed);
            }
            // Pushes happen under the same lock: per shard, journal
            // order == queue order, the invariant every checkpoint cut
            // relies on.
            self.push_routed(routed, true, &mut report);
        }
        if let Some(persist) = persist {
            if checkpoint_due {
                self.maybe_checkpoint(persist);
            } else if probe_due {
                self.try_heal(persist);
            }
        }
        (report, rejected)
    }

    /// Drops from `routed`, in order, every record whose pid is already
    /// in the dedup set or whose tenant is at its quota, and charges
    /// each survivor to its tenant; returns `(duplicates, quota
    /// rejections)`. The dedup insert and the quota charge share one
    /// lock window, so a rejection un-remembers its pid and leaves no
    /// trace.
    fn dedup_and_charge(
        &self,
        seen: &mut FastHashSet<PacketId>,
        routed: &mut Vec<(usize, CollectedPacket)>,
    ) -> (u64, u64) {
        let mut dups = 0u64;
        let mut quota_hits = 0u64;
        let mut tc = lock_or_recover(&self.tenant_counts);
        routed.retain(|(_, p)| {
            if !seen.insert(p.pid) {
                dups += 1;
                return false;
            }
            let tenant = domo_cluster::tenant_of(p.pid.origin.index() as u16);
            let count = tc.entry(tenant).or_insert(0);
            if self.tenant_quota.is_some_and(|q| *count >= q) {
                seen.remove(&p.pid);
                quota_hits += 1;
                return false;
            }
            *count += 1;
            true
        });
        (dups, quota_hits)
    }

    /// Decodes journal records back into `(shard, packet)` pairs, in
    /// journal order — recovery replay and watchdog restart. A record
    /// that passed the WAL checksum but not the wire decoder is
    /// counted and skipped: recovery never gives up on later records
    /// for an earlier one.
    fn route_journal(&self, records: &[(u64, Vec<u8>)]) -> Vec<(usize, CollectedPacket)> {
        let mut routed = Vec::with_capacity(records.len());
        for (lsn, payload) in records {
            let root = wire::decode_packet(payload)
                .ok()
                .and_then(|(p, _)| Some((p.subtree_root()?, p)));
            match root {
                Some((root, p)) => routed.push((root.index() % self.shards.len(), p)),
                None => {
                    OBS_PERSIST_ERRORS.inc();
                    domo_obs::warn!(
                        target: "domo_sink::recovery",
                        "wal record failed wire decode",
                        lsn = *lsn,
                    );
                }
            }
        }
        routed
    }

    /// Groups sanitized, deduplicated records by shard and pushes each
    /// group through [`Core::push_batch_to_shard`]. Only per-shard
    /// record order is preserved — the single order a shard worker can
    /// observe — so regrouping is invisible to reconstruction.
    fn push_routed(
        &self,
        routed: Vec<(usize, CollectedPacket)>,
        bounded: bool,
        report: &mut BatchIngestReport,
    ) {
        let mut groups: Vec<Vec<CollectedPacket>> = Vec::new();
        groups.resize_with(self.shards.len(), Vec::new);
        for (shard, p) in routed {
            groups[shard].push(p);
        }
        for (shard, ps) in groups.into_iter().enumerate() {
            self.push_batch_to_shard(shard, ps, bounded, report);
        }
    }

    /// Pushes a run of same-shard records under one inflight-ledger
    /// lock and one queue lock, with a single worker wake-up at the
    /// end. A saturated queue evicts its oldest *packet* per pushed
    /// record (a batch larger than the capacity evicts its own head);
    /// control messages keep their slot — losing a drain ack would
    /// wedge the caller. `bounded: false` lifts the capacity bound for
    /// recovery replay: backpressure exists to shed *live* load, and
    /// records already acknowledged into the WAL must never be shed on
    /// the way back in. A shutdown cannot interleave mid-run: `closed`
    /// is checked once because it can only flip under the queue lock
    /// we hold.
    fn push_batch_to_shard(
        &self,
        shard: usize,
        ps: Vec<CollectedPacket>,
        bounded: bool,
        report: &mut BatchIngestReport,
    ) {
        if ps.is_empty() {
            return;
        }
        let q = &self.shards[shard];
        let capacity = if bounded { q.capacity } else { usize::MAX };
        let mut evicted: Vec<PacketId> = Vec::new();
        let accepted;
        {
            // The inflight ledger is updated under the same lock window
            // as the queue push, so a watchdog restart (which locks
            // inflight before purging the queue) always sees a
            // consistent pair.
            let mut infl = lock_or_recover(&self.inflight[shard]);
            let mut st = lock_or_recover(&q.state);
            if st.closed {
                report.closed += ps.len() as u64;
                return;
            }
            accepted = ps.len() as u64;
            for p in ps {
                let mut old_pid = None;
                if st.queued_packets >= capacity {
                    if let Some(at) = st
                        .msgs
                        .iter()
                        .position(|m| matches!(m, ShardMsg::Packet(_)))
                    {
                        if let Some(ShardMsg::Packet(old)) = st.msgs.remove(at) {
                            st.queued_packets -= 1;
                            old_pid = Some(old.pid);
                        }
                    }
                }
                infl.insert(p.pid);
                if let Some(old) = old_pid {
                    infl.remove(&old);
                    evicted.push(old);
                }
                trace_stamp(p.pid, TraceStage::ShardEnqueue);
                st.msgs.push_back(ShardMsg::Packet(p));
                st.queued_packets += 1;
            }
            q.depth.set(st.queued_packets as f64);
            if !evicted.is_empty() {
                q.dropped.add(evicted.len() as u64);
            }
        }
        q.ready.notify_one();
        self.stats.ingested.fetch_add(accepted, Ordering::Relaxed);
        OBS_INGESTED.add(accepted);
        report.accepted += accepted;
        if !evicted.is_empty() {
            let shed = evicted.len() as u64;
            self.stats
                .backpressure_dropped
                .fetch_add(shed, Ordering::Relaxed);
            OBS_BACKPRESSURE.add(shed);
            report.saturated += shed;
            domo_obs::flight!("backpressure_shed", shard = shard as u64, count = shed);
            if self.persist.is_some() {
                // Remember the shed pids forever: a watchdog WAL
                // replay must reproduce the post-shed sequence.
                lock_or_recover(&self.dropped_pids).extend(evicted);
            }
        }
    }

    fn worker_finished(&self, shard: usize) -> bool {
        lock_or_recover(&self.workers)
            .get(shard)
            .and_then(|slot| slot.as_ref())
            .is_some_and(JoinHandle::is_finished)
    }

    /// Runs a flush barrier on every shard and returns the summed
    /// fresh-emission count the flushes produced (0 contributions from
    /// shards whose worker died mid-barrier).
    fn barrier(&self, make: fn(SyncSender<u64>) -> ShardMsg) -> u64 {
        let mut acks = Vec::with_capacity(self.shards.len());
        for (shard, q) in self.shards.iter().enumerate() {
            let (tx, rx) = std::sync::mpsc::sync_channel(1);
            if q.push_control(make(tx)) {
                acks.push((shard, rx));
            }
        }
        let mut emitted = 0u64;
        for (shard, rx) in acks {
            loop {
                match rx.recv_timeout(BARRIER_POLL) {
                    Ok(n) => {
                        emitted += n;
                        break;
                    }
                    // The worker died *holding* the message (the sender
                    // is gone): nothing will ever ack it — give up. A
                    // message still queued keeps its sender alive, and
                    // the watchdog's replacement worker answers it.
                    Err(RecvTimeoutError::Disconnected) => break,
                    Err(RecvTimeoutError::Timeout) => {
                        // During shutdown no watchdog will replace a
                        // finished worker; waiting longer is hopeless.
                        if self.closing.load(Ordering::Relaxed) && self.worker_finished(shard) {
                            break;
                        }
                    }
                }
            }
        }
        emitted
    }

    /// The automatic trigger: skips (rather than queues) when another
    /// checkpoint is already running.
    fn maybe_checkpoint(&self, persist: &Persistence) {
        let Ok(_guard) = persist.ckpt_guard.try_lock() else {
            return;
        };
        if let Err(e) = self.checkpoint_locked(persist) {
            note_checkpoint_failure(persist, &e);
        }
    }

    /// A degraded-mode heal probe: one full checkpoint through the
    /// failing store. Success re-arms durability (and flushed the
    /// result backlog on the way); failure keeps the service degraded
    /// until the next probe.
    fn try_heal(&self, persist: &Persistence) {
        let Ok(_guard) = persist.ckpt_guard.try_lock() else {
            return;
        };
        if !persist.cas_health(SinkHealth::Degraded, SinkHealth::Healing) {
            return;
        }
        match self.checkpoint_locked(persist) {
            Ok(_) => {} // checkpoint_locked already marked the heal
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {
                // Barrier aborted (a worker died mid-probe) — not a
                // store verdict; stay degraded, probe again later.
                persist.mark_unhealthy(SinkHealth::Degraded);
                OBS_PERSIST_ERRORS.inc();
                domo_obs::warn!(
                    target: "domo_sink::persist",
                    "heal probe aborted",
                    error = e.to_string(),
                );
            }
            Err(e) => persist.note_store_error("heal probe", &e),
        }
    }

    /// The checkpoint protocol. Caller holds `ckpt_guard`.
    ///
    /// Phase 1 takes the admission lock, syncs, fixes the cut `C`, captures
    /// the dedup set and counters, and enqueues a snapshot barrier on
    /// every shard — all before any further append can interleave, so
    /// everything captured corresponds exactly to records with
    /// `lsn < C`. Phase 2 collects the shard snapshots; each worker
    /// parks after answering, freezing emissions. Phase 3 captures the
    /// per-node summaries (frozen, since only workers write them) and
    /// serializes. Phase 4 releases the workers. Phase 5 flushes the
    /// degraded-mode result backlog, syncs the result log, atomically
    /// persists the checkpoint, and compacts the WAL below `C`. A
    /// completed checkpoint proves the whole store works, so it also
    /// heals a degraded service.
    fn checkpoint_locked(&self, persist: &Persistence) -> std::io::Result<u64> {
        if matches!(persist.health(), SinkHealth::Dropped | SinkHealth::Failed) {
            return Err(std::io::Error::new(
                std::io::ErrorKind::Unsupported,
                "durability has been dropped for this process; checkpointing is disabled",
            ));
        }
        let (cut, seen, counters, barriers) = {
            let mut adm = lock_or_recover(&self.admission);
            let wal = adm.journal()?;
            wal.sync()?;
            let cut = wal.next_lsn();
            let seen: Vec<PacketId> = adm.seen.iter().copied().collect();
            let counters = self
                .stats
                .checkpointed()
                .map(|cell| cell.load(Ordering::Relaxed));
            let mut barriers = Vec::with_capacity(self.shards.len());
            for (shard, q) in self.shards.iter().enumerate() {
                let (snap_tx, snap_rx) = std::sync::mpsc::sync_channel(1);
                let (rel_tx, rel_rx) = std::sync::mpsc::sync_channel::<()>(1);
                if q.push_control(ShardMsg::Snapshot(snap_tx, rel_rx)) {
                    barriers.push((shard, snap_rx, rel_tx));
                }
            }
            adm.appends_since_ckpt = 0;
            (cut, seen, counters, barriers)
        };

        let mut snaps = Vec::with_capacity(barriers.len());
        let mut releases = Vec::with_capacity(barriers.len());
        let mut aborted = false;
        for (shard, snap_rx, rel_tx) in barriers {
            loop {
                match snap_rx.recv_timeout(BARRIER_POLL) {
                    Ok(s) => {
                        snaps.push(s);
                        break;
                    }
                    Err(RecvTimeoutError::Disconnected) => {
                        aborted = true;
                        break;
                    }
                    Err(RecvTimeoutError::Timeout) => {
                        if self.worker_finished(shard) || self.closing.load(Ordering::Relaxed) {
                            aborted = true;
                            break;
                        }
                    }
                }
            }
            releases.push(rel_tx);
        }
        let outcome = if !aborted && snaps.len() == self.shards.len() {
            // Workers are parked, so node summaries *and* the agg
            // sketches are frozen: both are consistent with the same WAL
            // cut (and with the subscriber streams, which are only fed
            // from the same worker emissions). The sketches are encoded
            // in place, under the store lock, rather than copied out.
            let encoded = {
                let st = lock_or_recover(&self.store);
                let node_stats: Vec<(NodeId, domo_util::running::RunningParts)> = st
                    .node_stats
                    .iter()
                    .map(|(&node, s)| (node, s.to_parts()))
                    .collect();
                persist::encode_checkpoint(&CheckpointSource {
                    shards: &snaps,
                    counters,
                    seen: &seen,
                    node_stats: &node_stats,
                    agg: &st.agg,
                })
            };
            match encoded {
                Ok(payload) => {
                    let snaps_for_restart: Vec<Option<StreamingSnapshot>> =
                        snaps.into_iter().map(Some).collect();
                    Ok((payload, snaps_for_restart))
                }
                Err(e) => Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    e.to_string(),
                )),
            }
        } else {
            Err(std::io::Error::new(
                std::io::ErrorKind::Interrupted,
                "a shard worker is gone; checkpoint aborted",
            ))
        };
        // Workers resume whatever the outcome — the barrier must never
        // outlive its reason.
        for rel in releases {
            let _ = rel.send(());
        }
        let (payload, snaps_for_restart) = outcome?;

        // Results the checkpoint claims emitted must be durable before
        // the checkpoint itself is — including everything the degraded
        // window backlogged.
        {
            let mut rs = lock_or_recover(&persist.results);
            let rsm = &mut *rs;
            while let Some((_pid, t, bytes)) = rsm.backlog.front() {
                match rsm.store.append(*t, bytes) {
                    Ok(()) => {
                        rsm.backlog.pop_front();
                    }
                    // Keep the failed entry (and everything behind it)
                    // for the next probe.
                    Err(e) => return Err(e),
                }
            }
            rs.store.sync()?;
        }
        let payload_len = payload.len();
        persist.checkpoints.save_owned(cut, payload)?;
        // Update the watchdog's restart baseline after the checkpoint
        // committed but before compaction: a restart pairs this cut
        // with `records_from(cut)`, so the cut must never run ahead of
        // the snapshots or behind the compaction floor.
        *lock_or_recover(&self.last_ckpt) = (cut, snaps_for_restart);
        lock_or_recover(&self.admission)
            .journal()?
            .compact_upto(cut)?;
        persist.last_checkpoint_lsn.store(cut, Ordering::Relaxed);
        OBS_CHECKPOINTS.inc();
        persist.mark_healed();
        domo_obs::info!(
            target: "domo_sink::persist",
            "checkpoint written",
            covered = cut,
            bytes = payload_len,
        );
        Ok(cut)
    }

    fn snapshot(&self) -> SinkSnapshot {
        let store = lock_or_recover(&self.store);
        let mut nodes: Vec<NodeDelaySummary> = store
            .node_stats
            .iter()
            .map(|(&node, s)| NodeDelaySummary {
                node,
                count: s.count(),
                mean_ms: s.mean(),
                min_ms: s.min().unwrap_or(0.0),
                max_ms: s.max().unwrap_or(0.0),
            })
            .collect();
        nodes.sort_by_key(|n| n.node);
        SinkSnapshot {
            stats: self.stats.snapshot(),
            retained_packets: store.packets.len(),
            nodes,
        }
    }

    /// Best-effort final fsync of the WAL and result log.
    fn sync_storage(&self) {
        if let Some(persist) = &self.persist {
            if persist.health() != SinkHealth::Healthy {
                return; // nothing to promise; the store is suspect
            }
            let synced = lock_or_recover(&self.admission)
                .journal()
                .and_then(Wal::sync);
            if let Err(e) = synced {
                persist.note_store_error("final wal sync", &e);
            }
            if let Err(e) = lock_or_recover(&persist.results).store.sync() {
                persist.note_store_error("final result sync", &e);
            }
        }
    }
}

/// The long-running sharded reconstruction service. Cheap to share
/// behind an [`Arc`]; every method takes `&self`.
pub struct SinkService {
    core: Arc<Core>,
    watchdog: Mutex<Option<JoinHandle<()>>>,
}

impl std::fmt::Debug for SinkService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SinkService")
            .field("shards", &self.core.shards.len())
            .field("stats", &self.core.stats.snapshot())
            .field("health", &self.health())
            .finish()
    }
}

impl SinkService {
    /// Spawns the shard workers and returns the running service.
    ///
    /// # Panics
    ///
    /// Panics if [`SinkConfig::store`] is set and the data directory
    /// cannot be initialized — the panic-free variant is
    /// [`SinkService::open`]. With `store: None` this never panics.
    pub fn start(cfg: SinkConfig) -> Self {
        match Self::open(cfg) {
            Ok(service) => service,
            Err(e) => panic!("sink storage initialization failed: {e}"),
        }
    }

    /// Opens the service, recovering durable state when
    /// [`SinkConfig::store`] is set: loads the newest valid checkpoint,
    /// restores every shard estimator, the dedup set, the counters and
    /// the per-node summaries from it, rebuilds the reconstruction
    /// cache from the result log, replays the WAL tail through the
    /// shards, and truncates torn tails — with the exact accounting
    /// available from [`SinkService::recovery_report`]. With
    /// `store: None` this is identical to [`SinkService::start`] and
    /// never fails.
    ///
    /// Also spawns the watchdog thread that restarts dead shard
    /// workers (see [`SinkStatsSnapshot::watchdog_dropped`]).
    ///
    /// # Errors
    ///
    /// Filesystem failures, or a checkpoint whose shard count differs
    /// from [`SinkConfig::shards`] (re-sharding a data directory is not
    /// supported — estimator state cannot be re-partitioned). On-disk
    /// *corruption* is never an error: torn tails are truncated,
    /// corrupt checkpoints skipped, and the report says exactly what
    /// was lost.
    pub fn open(cfg: SinkConfig) -> std::io::Result<Self> {
        // Touch the service counters so a METRICS scrape lists every
        // family at zero from the moment the service is up, not only
        // after the first matching event (same rationale as the
        // per-shard gauges in `ShardQueue::new`).
        for c in [
            &OBS_INGESTED,
            &OBS_EMITTED,
            &OBS_QUARANTINED,
            &OBS_MALFORMED,
            &OBS_BACKPRESSURE,
            &OBS_EST_ERRORS,
            &OBS_STORE_ERRORS,
            &OBS_DEGRADED_TOTAL,
            &OBS_HEALS,
            &OBS_UNJOURNALED,
            &OBS_WD_RESTARTS,
            &OBS_WD_DROPPED,
            &OBS_SUB_DELIVERED,
            &OBS_SUB_LAGGED,
            &OBS_SUB_SHED,
            &OBS_AGG_QUERIES,
            &OBS_AGG_BACKFILLS,
            &OBS_QUOTA_REJECTED,
        ] {
            c.add(0);
        }
        OBS_DEGRADED.set(0.0);
        OBS_SUBSCRIBERS.set(0.0);
        // The fault-injection families register even when no faults are
        // configured, so a METRICS scrape always lists them.
        domo_store::vfs::register_fault_metrics();
        let shards = cfg.shards.max(1);
        let stats = StatsCells::default();
        let store = Mutex::new(Store {
            agg: AggStore::new(cfg.agg),
            ..Store::default()
        });

        // Recover durable state before any worker runs.
        let Recovered {
            persistence: persist,
            admission,
            covered,
            shard_snapshots: mut initial,
            tail_records: tail,
        } = match &cfg.store {
            Some(sc) => Recovered::load(sc, shards, &stats, &store, &cfg)?,
            None => Recovered::volatile(shards),
        };

        // Seed per-tenant accounting from the recovered dedup set:
        // pids embed their tenant (DESIGN.md §17.2), so the counts —
        // and therefore quota enforcement — survive restarts without
        // any new on-disk state.
        let mut tenant_counts: BTreeMap<u16, u64> = BTreeMap::new();
        for pid in &admission.seen {
            *tenant_counts
                .entry(domo_cluster::tenant_of(pid.origin.index() as u16))
                .or_insert(0) += 1;
        }

        let queues: Vec<Arc<ShardQueue>> = (0..shards)
            .map(|shard| Arc::new(ShardQueue::new(cfg.queue_capacity, shard)))
            .collect();
        let core = Arc::new(Core {
            shards: queues,
            workers: Mutex::new((0..shards).map(|_| None).collect()),
            stats,
            store,
            admission: Mutex::new(admission),
            sanitize: cfg.sanitize,
            est_cfg: cfg.estimator.clone(),
            high_water: cfg.high_water,
            max_retained: cfg.max_retained_packets,
            effective_high_water: StreamingEstimator::effective_high_water(
                &cfg.estimator,
                cfg.high_water,
            ),
            started: Instant::now(),
            persist,
            heartbeats: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            chaos_panics: (0..shards)
                .map(|_| AtomicU64::new(CHAOS_DISARMED))
                .collect(),
            inflight: (0..shards)
                .map(|_| Mutex::new(FastHashSet::default()))
                .collect(),
            dropped_pids: Mutex::new(FastHashSet::default()),
            last_ckpt: Mutex::new((covered, initial.clone())),
            closing: AtomicBool::new(false),
            watchdog_restarts: AtomicU64::new(0),
            ingest_idle: cfg.ingest_idle_timeout,
            query_idle: cfg.query_idle_timeout,
            hub: SubHub::new(),
            sub_opts: SubOptions {
                capacity: cfg.queue_capacity.max(1),
                max_lagged: (cfg.queue_capacity.max(1) as u64).saturating_mul(4),
            },
            tenant_quota: cfg.tenant_quota,
            cluster_role: cfg.cluster_role,
            tenant_counts: Mutex::new(tenant_counts),
            quota_rejected: AtomicU64::new(0),
        });
        for (shard, slot) in initial.iter_mut().enumerate() {
            spawn_worker(&core, shard, slot.take());
        }
        let watchdog = {
            let c = Arc::clone(&core);
            std::thread::spawn(move || watchdog_loop(&c))
        };
        let service = Self {
            core,
            watchdog: Mutex::new(Some(watchdog)),
        };
        service.replay_wal_tail(tail);
        Ok(service)
    }

    /// Pushes the recovered WAL tail through the shards, in WAL order
    /// per shard, bypassing both dedup (the WAL never holds duplicate
    /// pids) and the queue capacity (acknowledged records are never
    /// shed).
    fn replay_wal_tail(&self, tail: Vec<(u64, Vec<u8>)>) {
        let core = &self.core;
        let mut pushed = BatchIngestReport::default();
        core.push_routed(core.route_journal(&tail), false, &mut pushed);
        let replayed = pushed.accepted;
        OBS_REPLAYED.add(replayed);
        if let Some(persist) = &core.persist {
            let mut report = lock_or_recover(&persist.recovery);
            report.replayed = replayed;
            domo_obs::info!(
                target: "domo_sink::recovery",
                "recovery complete",
                checkpoint_lsn = report.checkpoint_lsn,
                wal_records = report.wal_records,
                replayed = replayed,
                wal_bytes_discarded = report.wal_bytes_discarded,
                result_records = report.result_records,
            );
        }
        OBS_RECOVERIES.inc();
    }

    /// Milliseconds since this service was started (the STATS
    /// `uptime_ms` line).
    pub fn uptime_ms(&self) -> u64 {
        u64::try_from(self.core.started.elapsed().as_millis()).unwrap_or(u64::MAX)
    }

    /// Number of shard workers.
    pub fn num_shards(&self) -> usize {
        self.core.shards.len()
    }

    /// The flush threshold every shard estimator actually runs with —
    /// the configured [`SinkConfig::high_water`] after clamping, or the
    /// default derived from the estimator config. Operators should read
    /// this (it is the STATS `high_water` line), not their configured
    /// value, which may have been clamped.
    pub fn effective_high_water(&self) -> usize {
        self.core.effective_high_water
    }

    /// The role label this service reports on the STATS `cluster_role`
    /// line ([`SinkConfig::cluster_role`]).
    pub fn cluster_role(&self) -> String {
        self.core.cluster_role.clone()
    }

    /// Per-tenant accepted-record counts, sorted by tenant id — the
    /// `TENANTS` query command's body and the source of the STATS
    /// `tenants` line. A tenant appears once its first record is
    /// accepted (tenant 0 covers every legacy v1 sender).
    pub fn tenants(&self) -> Vec<(u16, u64)> {
        lock_or_recover(&self.core.tenant_counts)
            .iter()
            .map(|(&t, &n)| (t, n))
            .collect()
    }

    /// Accepted-record count of one tenant, or `None` if the tenant
    /// has never had a record accepted — the distinction behind the
    /// query protocol's structured `ERR unknown-tenant` reply.
    pub fn tenant_accepted(&self, tenant: u16) -> Option<u64> {
        lock_or_recover(&self.core.tenant_counts)
            .get(&tenant)
            .copied()
    }

    /// The configured per-tenant ingest quota (`None` = unlimited).
    pub fn tenant_quota(&self) -> Option<u64> {
        self.core.tenant_quota
    }

    /// Records rejected by the per-tenant quota since open.
    pub fn quota_rejected(&self) -> u64 {
        self.core.quota_rejected.load(Ordering::Relaxed)
    }

    /// The configured ingest-connection deadline, if any.
    pub fn ingest_idle_timeout(&self) -> Option<Duration> {
        self.core.ingest_idle
    }

    /// The configured query-connection deadline, if any.
    pub fn query_idle_timeout(&self) -> Option<Duration> {
        self.core.query_idle
    }

    /// Validates, deduplicates, journals (when durability is on), and
    /// routes one record: [`SinkService::ingest_batch`] with a batch
    /// of one, the single outcome read off the one-record report.
    /// There is no separate per-record path — the record leaves the
    /// journal bytes, counters and trace stamps it would leave as a
    /// member of any larger batch.
    pub fn ingest(&self, p: CollectedPacket) -> IngestOutcome {
        let (report, rejected) = self.core.admit(vec![p]);
        if let Some(reason) = rejected {
            IngestOutcome::Quarantined(reason)
        } else if report.quota_rejected > 0 {
            IngestOutcome::QuotaRejected
        } else if report.closed > 0 {
            IngestOutcome::Closed
        } else if report.saturated > 0 {
            IngestOutcome::AcceptedDroppingOldest
        } else {
            IngestOutcome::Accepted
        }
    }

    /// Validates, deduplicates, journals, and routes a whole batch of
    /// records with the admission lock taken **once**: dedup, a single
    /// multi-record WAL append, and every in-order shard push are
    /// amortized over the batch. This is the service's only admission
    /// path, and it is *partition invariant*: however a record
    /// sequence is cut into calls (down to the batches of one
    /// [`SinkService::ingest`] submits), record-level outcomes, journal
    /// bytes, accounting and per-shard queue order are the same; only
    /// the checkpoint and heal-probe triggers, evaluated at the batch
    /// boundary, see the cut. The TCP reactor feeds it every complete
    /// frame of each socket read.
    pub fn ingest_batch(&self, packets: &[CollectedPacket]) -> BatchIngestReport {
        self.core.admit(packets.to_vec()).0
    }

    /// [`SinkService::ingest_batch`] taking ownership of the batch —
    /// the allocation-free variant the reactor and benches use.
    pub fn ingest_batch_owned(&self, packets: Vec<CollectedPacket>) -> BatchIngestReport {
        self.core.admit(packets).0
    }

    /// Counts a frame the transport layer failed to decode (used by the
    /// TCP server, whose framing errors never construct a record).
    pub fn note_malformed_frame(&self) {
        self.core
            .stats
            .malformed_frames
            .fetch_add(1, Ordering::Relaxed);
        OBS_MALFORMED.inc();
    }

    /// Barrier: flushes every shard estimator (`try_finish`) and returns
    /// once all queued records before the barrier are reconstructed.
    /// The return value is the number of reconstructions freshly
    /// emitted *because of* this drain (the DRAIN reply's
    /// `OK emitted <n>` figure).
    pub fn drain(&self) -> u64 {
        self.core.barrier(ShardMsg::Drain)
    }

    /// Early-emission hook: asks every shard to commit the oldest half
    /// of its buffer now (`try_flush_now`) and waits for the acks.
    /// Returns the fresh-emission count the flush produced.
    pub fn flush_partial(&self) -> u64 {
        self.core.barrier(ShardMsg::Flush)
    }

    /// Current counter values.
    pub fn stats(&self) -> SinkStatsSnapshot {
        self.core.stats.snapshot()
    }

    /// Point-in-time service view: counters plus per-node summaries.
    pub fn snapshot(&self) -> SinkSnapshot {
        self.core.snapshot()
    }

    /// Current durability health (always `Healthy` on a volatile
    /// service — there is nothing to degrade).
    pub fn health(&self) -> SinkHealth {
        self.core
            .persist
            .as_deref()
            .map(Persistence::health)
            .unwrap_or_default()
    }

    /// Full degradation/watchdog accounting (see [`HealthStatus`]).
    pub fn health_status(&self) -> HealthStatus {
        let core = &self.core;
        let (health, degraded_entries, heals, store_errors, unjournaled, backlogged) =
            match core.persist.as_deref() {
                Some(p) => (
                    p.health(),
                    p.degraded_entries.load(Ordering::Relaxed),
                    p.heals.load(Ordering::Relaxed),
                    p.store_errors.load(Ordering::Relaxed),
                    p.unjournaled.load(Ordering::Relaxed),
                    lock_or_recover(&p.results).backlog.len(),
                ),
                None => (SinkHealth::Healthy, 0, 0, 0, 0, 0),
            };
        HealthStatus {
            health,
            degraded_entries,
            heals,
            store_errors,
            unjournaled,
            backlogged,
            watchdog_restarts: core.watchdog_restarts.load(Ordering::Relaxed),
            watchdog_dropped: core.stats.watchdog_dropped.load(Ordering::Relaxed),
        }
    }

    /// Chaos hook (tests and the `domo-exp chaos` soak): the next
    /// `after` packets dequeued by shard `shard`'s worker pass through,
    /// then the worker panics — exercising the watchdog restart path
    /// deterministically. Out-of-range shards are ignored.
    #[doc(hidden)]
    pub fn chaos_panic_shard(&self, shard: usize, after: u64) {
        if let Some(cell) = self.core.chaos_panics.get(shard) {
            cell.store(after.min(CHAOS_DISARMED - 1), Ordering::Relaxed);
        }
    }

    /// The retained reconstruction of one packet, if it has been emitted
    /// and not yet evicted.
    pub fn reconstruction(&self, pid: PacketId) -> Option<StoredReconstruction> {
        let st = lock_or_recover(&self.core.store);
        let (_, rec) = persist::decode_result(st.packets.get(&pid)?).ok()?;
        Some(rec)
    }

    /// Durability status, or `None` when the service runs in-memory.
    pub fn store_status(&self) -> Option<StoreStatus> {
        let p = self.core.persist.as_ref()?;
        let (wal, dedup_pids) = {
            let adm = lock_or_recover(&self.core.admission);
            (adm.wal.as_ref()?.stats(), adm.seen.len())
        };
        let results = lock_or_recover(&p.results).store.stats();
        Some(StoreStatus {
            data_dir: p.cfg.data_dir.clone(),
            fsync: p.cfg.fsync,
            wal,
            results,
            last_checkpoint_lsn: p.last_checkpoint_lsn.load(Ordering::Relaxed),
            checkpoints_on_disk: p.checkpoints.count().unwrap_or(0),
            dedup_pids,
            recovery: *lock_or_recover(&p.recovery),
        })
    }

    /// What recovery found when this service was opened, or `None` when
    /// durability is disabled.
    pub fn recovery_report(&self) -> Option<RecoveryReport> {
        self.core
            .persist
            .as_ref()
            .map(|p| *lock_or_recover(&p.recovery))
    }

    /// Every persisted reconstruction whose generation time (ms) falls
    /// in `[lo_ms, hi_ms]`, in emission order — served from the result
    /// log's sparse time index, so it includes history from before the
    /// last restart and survives cache eviction.
    ///
    /// # Errors
    ///
    /// `Unsupported` when durability is disabled; filesystem failures
    /// otherwise. Persisted records that fail decode are skipped and
    /// counted, never fatal.
    pub fn range(
        &self,
        lo_ms: f64,
        hi_ms: f64,
    ) -> std::io::Result<Vec<(PacketId, StoredReconstruction)>> {
        let Some(p) = &self.core.persist else {
            return Err(std::io::Error::new(
                std::io::ErrorKind::Unsupported,
                "durability is disabled (no data dir); RANGE needs --data-dir",
            ));
        };
        let rs = lock_or_recover(&p.results);
        let mut out = Vec::new();
        for (_t, bytes) in rs.store.range(lo_ms, hi_ms)? {
            match persist::decode_result(&bytes) {
                Ok((pid, rec)) => out.push((pid, rec)),
                Err(_) => OBS_PERSIST_ERRORS.inc(),
            }
        }
        Ok(out)
    }

    /// Registers a live subscriber on the emission stream.
    ///
    /// The returned [`Subscription`] receives every reconstruction
    /// freshly emitted *after* this call that matches `filter`, in
    /// emission order, through a bounded drop-oldest queue
    /// ([`SinkConfig::queue_capacity`] deep; cumulative drops are
    /// counted per subscriber and a subscriber that accumulates 4× the
    /// bound in drops is shed). With `replay: true` the second return
    /// value is every *retained* matching reconstruction (bounded by
    /// [`SinkConfig::max_retained_packets`], in emission order),
    /// captured atomically with the registration: an emission is in
    /// the backfill or in the live stream, never both, never neither —
    /// including emissions around a concurrent CHECKPOINT, whose
    /// barrier parks the workers and therefore cannot emit mid-capture.
    pub fn subscribe(
        &self,
        filter: SubFilter,
        replay: bool,
    ) -> (Subscription, Vec<(PacketId, StoredReconstruction)>) {
        let core = &self.core;
        let st = lock_or_recover(&core.store);
        let sub = core.hub.subscribe(filter, core.sub_opts);
        let mut backfill = Vec::new();
        if replay {
            for pid in &st.insertion_order {
                let rec = st
                    .packets
                    .get(pid)
                    .map(|bytes| persist::decode_result(bytes));
                if let Some(Ok((_, rec))) = rec {
                    if filter.matches(&rec_event(*pid, &rec)) {
                        backfill.push((*pid, rec));
                    }
                }
            }
        }
        drop(st);
        OBS_SUBSCRIBERS.set(core.hub.subscriber_count() as f64);
        (sub, backfill)
    }

    /// Live fan-out accounting (STATS `subscribers` line, querybench).
    /// Also refreshes the `domo_sink_subscribers` gauge, purging
    /// subscribers whose handles were dropped.
    pub fn sub_totals(&self) -> SubTotals {
        let hub = &self.core.hub;
        let subscribers = hub.subscriber_count();
        OBS_SUBSCRIBERS.set(subscribers as f64);
        SubTotals {
            delivered: hub.delivered_total(),
            lagged_dropped: hub.lagged_dropped_total(),
            shed: hub.shed_total(),
            subscribers,
        }
    }

    /// Aggregates node `node`'s sojourn delays over
    /// `[start_ms, end_ms)` into `bucket_ms`-wide buckets
    /// (count/mean/p50/p95/p99/max per bucket; the window is widened
    /// outward to `bucket_ms` alignment; empty buckets are omitted).
    ///
    /// Served from the incremental sketches; output buckets older than
    /// the sketch retention floor are rebuilt by scanning the result
    /// log ("cold" backfill, counted in
    /// `domo_sink_agg_backfills_total`). On a volatile service there
    /// is no log to backfill from: the reply covers only what the
    /// sketches retain. Quantiles carry the sketch's documented
    /// relative error bound
    /// ([`domo_query::DelaySketch::relative_error_bound`], ≈ 5.93%);
    /// count/mean/max are exact.
    ///
    /// # Errors
    ///
    /// `InvalidInput` for malformed windows (non-finite bounds,
    /// `start > end`, `bucket_ms` zero or not a multiple of the
    /// configured granularity); filesystem failures from the backfill
    /// scan otherwise.
    pub fn agg_query(
        &self,
        node: u16,
        start_ms: f64,
        end_ms: f64,
        bucket_ms: u64,
    ) -> std::io::Result<Vec<AggBucket>> {
        Ok(series::render_buckets(
            &self.agg_sketch_map(node, start_ms, end_ms, bucket_ms)?,
        ))
    }

    /// The raw merged sketches behind [`SinkService::agg_query`], as
    /// `(bucket_start_ms, parts)` pairs — the `AGG … PARTS` reply a
    /// scatter-gather cluster query merges loss-free
    /// ([`domo_query::DelaySketch::merge`] is associative and
    /// [`domo_query::SketchParts`] round-trips bit-identically), so a
    /// cluster-wide quantile carries exactly the single-sketch error
    /// bound, not a merge penalty.
    ///
    /// # Errors
    ///
    /// Identical to [`SinkService::agg_query`].
    pub fn agg_query_parts(
        &self,
        node: u16,
        start_ms: f64,
        end_ms: f64,
        bucket_ms: u64,
    ) -> std::io::Result<Vec<(i64, domo_query::SketchParts)>> {
        Ok(self
            .agg_sketch_map(node, start_ms, end_ms, bucket_ms)?
            .into_iter()
            .map(|(start, s)| (start, s.to_parts()))
            .collect())
    }

    /// Shared sketch assembly for the AGG paths: incremental sketches
    /// plus the cold result-log backfill below the retention floor.
    fn agg_sketch_map(
        &self,
        node: u16,
        start_ms: f64,
        end_ms: f64,
        bucket_ms: u64,
    ) -> std::io::Result<BTreeMap<i64, domo_query::DelaySketch>> {
        let invalid = |m: String| std::io::Error::new(std::io::ErrorKind::InvalidInput, m);
        let (mut map, floor) = {
            let st = lock_or_recover(&self.core.store);
            let map = st
                .agg
                .query_sketches(node, start_ms, end_ms, bucket_ms)
                .map_err(invalid)?;
            (map, st.agg.retention_floor_ms(node))
        };
        OBS_AGG_QUERIES.inc();
        if let Some(floor) = floor {
            let b = bucket_ms as f64;
            let qs = (start_ms / b).floor() * b;
            let qe = (end_ms / b).ceil() * b;
            let floor_f = floor as f64;
            if qs < floor_f && qs < qe {
                // Hop samples are keyed by the packet's arrival time at
                // the node, which is ≥ the record's generation time (the
                // log's index key) — so scanning everything generated
                // below the floor covers every pruned sample; the
                // per-hop `w[0] < floor` guard keeps retained samples
                // (already in the sketches) out of the backfill.
                match self.range(f64::NEG_INFINITY, floor_f.min(qe)) {
                    Ok(records) => {
                        let mut raw = Vec::new();
                        for (_pid, rec) in &records {
                            for (i, w) in rec.hop_times_ms.windows(2).enumerate() {
                                if rec.path[i].index() as u16 != node {
                                    continue;
                                }
                                let sojourn = (w[1] - w[0]).max(0.0);
                                if sojourn.is_finite() && w[0] < floor_f {
                                    raw.push((w[0], sojourn));
                                }
                            }
                        }
                        let cold =
                            series::bucket_raw_records(raw, qs, qe, bucket_ms).map_err(invalid)?;
                        series::merge_bucket_maps(&mut map, cold);
                        OBS_AGG_BACKFILLS.inc();
                    }
                    // Volatile service: nothing durable to rebuild
                    // from; serve the retained sketches.
                    Err(e) if e.kind() == std::io::ErrorKind::Unsupported => {}
                    Err(e) => return Err(e),
                }
            }
        }
        Ok(map)
    }

    /// Forces a checkpoint right now and returns the WAL cut it covers.
    /// Serialized against concurrent checkpoints (including the
    /// automatic every-N-appends trigger and the watchdog).
    ///
    /// # Errors
    ///
    /// `Unsupported` when durability is disabled or dropped; filesystem
    /// failures (which engage the store-error policy); `Interrupted`
    /// when the barrier aborted because a shard worker died.
    pub fn checkpoint_now(&self) -> std::io::Result<u64> {
        let Some(persist) = self.core.persist.clone() else {
            return Err(std::io::Error::new(
                std::io::ErrorKind::Unsupported,
                "durability is disabled (no data dir); CHECKPOINT needs --data-dir",
            ));
        };
        let _guard = lock_or_recover(&persist.ckpt_guard);
        let out = self.core.checkpoint_locked(&persist);
        if let Err(e) = &out {
            note_checkpoint_failure(&persist, e);
        }
        out
    }

    /// Closes the shard queues (records already queued are still
    /// reconstructed, each shard runs a final flush), stops the
    /// watchdog, and joins the workers. With durability on, a final
    /// checkpoint is written first (while the workers can still answer
    /// the barrier) and the WAL and result log are synced after the
    /// last flush, so a clean shutdown restarts with only the
    /// post-checkpoint tail to replay. Idempotent; later `ingest` calls
    /// return [`IngestOutcome::Closed`].
    pub fn shutdown(&self) -> SinkSnapshot {
        let core = &self.core;
        let have_workers = lock_or_recover(&core.workers).iter().any(Option::is_some);
        if have_workers {
            if let Some(persist) = core.persist.clone() {
                let _guard = lock_or_recover(&persist.ckpt_guard);
                if let Err(e) = core.checkpoint_locked(&persist) {
                    note_checkpoint_failure(&persist, &e);
                }
            }
        }
        self.stop_threads();
        core.sync_storage();
        core.snapshot()
    }

    /// Stops the watchdog (first, so a naturally-exiting worker is not
    /// "restarted"), closes the queues, and joins every worker.
    fn stop_threads(&self) {
        let core = &self.core;
        core.closing.store(true, Ordering::Relaxed);
        if let Some(wd) = lock_or_recover(&self.watchdog).take() {
            wd.thread().unpark();
            let _ = wd.join();
        }
        for q in &core.shards {
            q.close();
        }
        let handles: Vec<JoinHandle<()>> = lock_or_recover(&core.workers)
            .iter_mut()
            .filter_map(Option::take)
            .collect();
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for SinkService {
    fn drop(&mut self) {
        self.stop_threads();
        // No checkpoint here — the barrier needs live workers, and
        // `shutdown` is the graceful path. Recovery replays whatever a
        // drop-without-shutdown left in the WAL.
        self.core.sync_storage();
    }
}

/// A retained reconstruction in the shape subscription filters (and
/// the SUBSCRIBE backfill) understand.
fn rec_event(pid: PacketId, rec: &StoredReconstruction) -> Event {
    Event {
        origin: pid.origin.index() as u16,
        seq: pid.seq,
        path: rec.path.iter().map(|n| n.index() as u16).collect(),
        hop_times_ms: rec.hop_times_ms.clone(),
    }
}

/// Folds one emission batch into the shared state and returns the
/// fresh-emission count. Re-emissions (a watchdog replay re-solving
/// already-counted packets) are idempotent: `emitted_pids` gates the
/// node-stat attribution, the AGG sketch feed, the subscriber publish,
/// the persisted result, and the `emitted` counter; the reconstruction
/// cache is simply overwritten with the identical value.
///
/// The subscriber publish happens *inside* the store-lock window, on
/// purpose: `SinkService::subscribe` registers (and snapshots its
/// backfill) under the same lock, so no emission can fall between a
/// subscriber's backfill and its live stream — that is the whole
/// exactly-once argument, including across a checkpoint (whose barrier
/// parks the workers, so nothing emits mid-capture at all).
fn record_batch(
    core: &Core,
    shard: usize,
    batch: &[ReconstructedPacket],
    pending_paths: &mut HashMap<PacketId, Vec<NodeId>>,
) -> u64 {
    if batch.is_empty() {
        return 0;
    }
    let mut fresh_emissions = 0u64;
    let mut published = domo_query::PublishOutcome::default();
    {
        let mut st = lock_or_recover(&core.store);
        for r in batch {
            let Some(path) = pending_paths.remove(&r.pid) else {
                continue; // foreign emission; nothing to attribute
            };
            let fresh = st.emitted_pids.insert(r.pid);
            if fresh {
                // The "result recorded" boundary: cache insert plus
                // (when durable) the store append a few lines down.
                trace_stamp(r.pid, TraceStage::ResultAppend);
                for (i, w) in r.hop_times_ms.windows(2).enumerate() {
                    let sojourn = (w[1] - w[0]).max(0.0);
                    if sojourn.is_finite() {
                        st.node_stats.entry(path[i]).or_default().push(sojourn);
                        // The sketch sample is keyed by the packet's
                        // arrival time at the node.
                        st.agg.record(path[i].index() as u16, w[0], sojourn);
                    }
                }
                let out = core.hub.publish(Event {
                    origin: r.pid.origin.index() as u16,
                    seq: r.pid.seq,
                    path: path.iter().map(|n| n.index() as u16).collect(),
                    hop_times_ms: r.hop_times_ms.clone(),
                });
                published.delivered += out.delivered;
                published.lagged += out.lagged;
                published.shed += out.shed;
            }
            let rec = StoredReconstruction {
                path,
                hop_times_ms: r.hop_times_ms.clone(),
            };
            if fresh {
                if let Some(p) = core.persist.as_deref() {
                    persist_result(p, r.pid, &rec);
                }
                fresh_emissions += 1;
            }
            if st.packets.len() >= core.max_retained && !st.packets.contains_key(&r.pid) {
                if let Some(old) = st.insertion_order.pop_front() {
                    st.packets.remove(&old);
                }
            }
            let bytes = persist::encode_result(r.pid, &rec);
            if st.packets.insert(r.pid, bytes.into()).is_none() {
                st.insertion_order.push_back(r.pid);
            }
        }
    }
    // Separate lock window: the watchdog takes inflight before store,
    // so holding both here would invert the order.
    {
        let mut infl = lock_or_recover(&core.inflight[shard]);
        for r in batch {
            infl.remove(&r.pid);
        }
    }
    core.stats
        .emitted
        .fetch_add(fresh_emissions, Ordering::Relaxed);
    OBS_EMITTED.add(fresh_emissions);
    OBS_SUB_DELIVERED.add(published.delivered);
    OBS_SUB_LAGGED.add(published.lagged);
    OBS_SUB_SHED.add(published.shed);
    if published.shed > 0 {
        OBS_SUBSCRIBERS.set(core.hub.subscriber_count() as f64);
    }
    fresh_emissions
}

/// Persists one freshly emitted reconstruction, honoring the
/// durability state machine: healthy appends directly (an append
/// failure engages the policy and falls back to the backlog),
/// degraded/healing backlogs in memory, dropped/failed discards. The
/// `persisted` index gates every path so no pid is ever written twice.
fn persist_result(p: &Persistence, pid: PacketId, rec: &StoredReconstruction) {
    let t = rec.hop_times_ms.first().copied().unwrap_or(0.0);
    match p.health() {
        SinkHealth::Healthy => {
            let mut rs = lock_or_recover(&p.results);
            if rs.persisted.insert(pid) {
                let bytes = persist::encode_result(pid, rec);
                if let Err(e) = rs.store.append(t, &bytes) {
                    p.note_store_error("result append", &e);
                    if matches!(p.health(), SinkHealth::Degraded | SinkHealth::Healing) {
                        // Keep the pid reserved; the checkpoint backlog
                        // flush writes it once the store heals.
                        rs.backlog.push_back((pid, t, bytes));
                    } else {
                        rs.persisted.remove(&pid);
                    }
                }
            }
        }
        SinkHealth::Degraded | SinkHealth::Healing => {
            let mut rs = lock_or_recover(&p.results);
            if rs.persisted.insert(pid) {
                rs.backlog
                    .push_back((pid, t, persist::encode_result(pid, rec)));
            }
        }
        SinkHealth::Dropped | SinkHealth::Failed => {}
    }
}

/// Chaos hook: decrements the shard's armed countdown and panics when
/// it hits zero. Called with **no locks held**, immediately after the
/// dequeue, so an injected panic poisons nothing and models a worker
/// dying mid-record (the in-hand packet is lost with it).
fn chaos_maybe_panic(core: &Core, shard: usize) {
    let cell = &core.chaos_panics[shard];
    loop {
        let v = cell.load(Ordering::Relaxed);
        if v == CHAOS_DISARMED {
            return;
        }
        if v == 0 {
            panic!("chaos: injected shard-{shard} worker panic");
        }
        if cell
            .compare_exchange(v, v - 1, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
        {
            return;
        }
    }
}

fn spawn_worker(core: &Arc<Core>, shard: usize, initial: Option<StreamingSnapshot>) {
    let c = Arc::clone(core);
    let handle = std::thread::spawn(move || worker_loop(&c, shard, initial));
    lock_or_recover(&core.workers)[shard] = Some(handle);
}

fn worker_loop(core: &Arc<Core>, shard: usize, initial: Option<StreamingSnapshot>) {
    let queue = Arc::clone(&core.shards[shard]);
    let mut pending_paths: HashMap<PacketId, Vec<NodeId>> = HashMap::new();
    let mut est = match initial {
        Some(snap) => {
            // Buffered-but-unflushed packets need their paths back for
            // sojourn attribution when they eventually emit.
            for p in &snap.buffer {
                pending_paths.insert(p.pid, p.path.clone());
            }
            StreamingEstimator::from_snapshot(core.est_cfg.clone(), snap)
        }
        None => {
            let mut e = StreamingEstimator::new(core.est_cfg.clone());
            if let Some(hw) = core.high_water {
                e = e.with_high_water(hw);
            }
            e
        }
    };
    while let Some(msg) = queue.pop() {
        core.heartbeats[shard].fetch_add(1, Ordering::Relaxed);
        match msg {
            ShardMsg::Packet(p) => {
                chaos_maybe_panic(core, shard);
                trace_stamp(p.pid, TraceStage::ShardDequeue);
                pending_paths.insert(p.pid, p.path.clone());
                match est.try_push(p) {
                    Ok(batch) => {
                        record_batch(core, shard, &batch, &mut pending_paths);
                    }
                    Err(_) => {
                        core.stats.estimator_errors.fetch_add(1, Ordering::Relaxed);
                        OBS_EST_ERRORS.inc();
                    }
                }
            }
            ShardMsg::Drain(ack) => {
                let emitted = match est.try_finish() {
                    Ok(batch) => record_batch(core, shard, &batch, &mut pending_paths),
                    Err(_) => {
                        core.stats.estimator_errors.fetch_add(1, Ordering::Relaxed);
                        OBS_EST_ERRORS.inc();
                        0
                    }
                };
                let _ = ack.send(emitted);
            }
            ShardMsg::Flush(ack) => {
                let emitted = match est.try_flush_now() {
                    Ok(batch) => record_batch(core, shard, &batch, &mut pending_paths),
                    Err(_) => {
                        core.stats.estimator_errors.fetch_add(1, Ordering::Relaxed);
                        OBS_EST_ERRORS.inc();
                        0
                    }
                };
                let _ = ack.send(emitted);
            }
            ShardMsg::Snapshot(tx, release) => {
                // Answer the checkpoint barrier, then park until the
                // checkpointer has captured everything it needs. A
                // dropped release sender (checkpointer died) unparks.
                let _ = tx.send(est.snapshot());
                let _ = release.recv();
            }
        }
    }
    // Queue closed: flush whatever the shard still buffers.
    match est.try_finish() {
        Ok(batch) => {
            record_batch(core, shard, &batch, &mut pending_paths);
        }
        Err(_) => {
            core.stats.estimator_errors.fetch_add(1, Ordering::Relaxed);
            OBS_EST_ERRORS.inc();
        }
    }
}

/// Rebuilds a dead shard from the last checkpoint and restarts its
/// worker. The estimator must see the **exact** push sequence the dead
/// worker saw since that checkpoint — sequence determinism is what
/// makes restarted output bit-identical — so the replay is the full
/// WAL suffix for this shard (minus backpressure-shed pids), followed
/// by whatever was still queued un-journaled. Packets the dead worker
/// consumed that exist nowhere durable are counted `watchdog_dropped`.
fn restart_shard(core: &Arc<Core>, shard: usize) {
    if core.closing.load(Ordering::Relaxed) {
        return;
    }
    // Reap the dead worker before touching state (its panic already
    // happened; join cannot block).
    if let Some(h) = lock_or_recover(&core.workers)[shard].take() {
        let _ = h.join();
    }
    // Freeze checkpoints and admission while state is rebuilt; lock
    // order matches ingest: ckpt_guard → admission → inflight.
    let persist = core.persist.as_deref();
    let _ckpt_guard = persist.map(|p| lock_or_recover(&p.ckpt_guard));
    let adm = lock_or_recover(&core.admission);
    let mut infl = lock_or_recover(&core.inflight[shard]);
    if core.closing.load(Ordering::Relaxed) {
        return;
    }
    let purged = core.shards[shard].purge_packets();
    let (cut, snap) = {
        let lc = lock_or_recover(&core.last_ckpt);
        (lc.0, lc.1.get(shard).cloned().flatten())
    };
    // `covered` = pids the restart resurrects: the snapshot buffer, the
    // WAL suffix, the purged queue. Insertion order into `requeue` is
    // WAL order (== original push order), then un-journaled stragglers.
    let mut covered: FastHashSet<PacketId> = snap
        .iter()
        .flat_map(|s| s.buffer.iter().map(|p| p.pid))
        .collect();
    let mut requeue: Vec<CollectedPacket> = Vec::new();
    if let (Some(p), Some(wal)) = (persist, adm.wal.as_ref()) {
        match wal.records_from(cut) {
            Ok(records) => {
                let dropped = lock_or_recover(&core.dropped_pids);
                for (owner, pkt) in core.route_journal(&records) {
                    if owner == shard && !dropped.contains(&pkt.pid) && covered.insert(pkt.pid) {
                        requeue.push(pkt);
                    }
                }
            }
            Err(e) => p.note_store_error("watchdog wal replay", &e),
        }
    }
    for pkt in purged {
        // Journaled queued packets are already in the WAL requeue
        // above; only un-journaled (degraded-mode or volatile) queue
        // residents land here.
        if covered.insert(pkt.pid) {
            requeue.push(pkt);
        }
    }
    // Anything in flight that neither the snapshot, the WAL, nor the
    // queue can resurrect died with the worker — count it (unless it
    // already emitted, in which case nothing was lost).
    let mut lost = 0u64;
    {
        let st = lock_or_recover(&core.store);
        infl.retain(|pid| {
            if covered.contains(pid) {
                true
            } else {
                if !st.emitted_pids.contains(pid) {
                    lost += 1;
                }
                false
            }
        });
    }
    if lost > 0 {
        core.stats
            .watchdog_dropped
            .fetch_add(lost, Ordering::Relaxed);
        OBS_WD_DROPPED.add(lost);
    }
    let replay_len = requeue.len();
    core.shards[shard].prepend_packets(requeue);
    core.chaos_panics[shard].store(CHAOS_DISARMED, Ordering::Relaxed);
    core.watchdog_restarts.fetch_add(1, Ordering::Relaxed);
    OBS_WD_RESTARTS.inc();
    domo_obs::warn!(
        target: "domo_sink::watchdog",
        "shard worker died; restarted from last checkpoint",
        shard = shard,
        replayed = replay_len,
        lost = lost,
    );
    domo_obs::flight!(
        "watchdog_restart",
        shard = shard as u64,
        replayed = replay_len as u64,
        lost = lost,
    );
    if let Some(p) = persist {
        let _ = domo_obs::flight_dump(&p.cfg.data_dir);
    }
    drop(infl);
    drop(adm);
    spawn_worker(core, shard, snap);
}

/// The watchdog thread: polls worker liveness, exports heartbeat and
/// stall gauges, and restarts dead workers. Stalls (heartbeat frozen
/// with work queued) are reported, never killed — only an actually
/// finished (panicked) worker thread is replaced.
fn watchdog_loop(core: &Arc<Core>) {
    let recorder = domo_obs::Recorder::global();
    let shards = core.shards.len();
    let mut hb_gauges = Vec::with_capacity(shards);
    let mut stall_gauges = Vec::with_capacity(shards);
    for shard in 0..shards {
        let label = shard.to_string();
        let labels: &[(&str, &str)] = &[("shard", label.as_str())];
        hb_gauges.push(recorder.gauge("domo_sink_worker_heartbeat", labels));
        stall_gauges.push(recorder.gauge("domo_sink_worker_stalled", labels));
    }
    let mut last: Vec<(u64, Instant)> = (0..shards)
        .map(|i| (core.heartbeats[i].load(Ordering::Relaxed), Instant::now()))
        .collect();
    let mut was_stalled = vec![false; shards];
    loop {
        std::thread::park_timeout(WATCHDOG_POLL);
        if core.closing.load(Ordering::Relaxed) {
            return;
        }
        for shard in 0..shards {
            let hb = core.heartbeats[shard].load(Ordering::Relaxed);
            hb_gauges[shard].set(hb as f64);
            if hb != last[shard].0 {
                last[shard] = (hb, Instant::now());
            }
            let stalled = last[shard].1.elapsed() >= STALL_AFTER && core.shards[shard].queued() > 0;
            stall_gauges[shard].set(if stalled { 1.0 } else { 0.0 });
            if stalled && !was_stalled[shard] {
                domo_obs::warn!(
                    target: "domo_sink::watchdog",
                    "shard worker appears stalled",
                    shard = shard,
                    queued = core.shards[shard].queued(),
                );
            }
            was_stalled[shard] = stalled;
            if core.worker_finished(shard) {
                restart_shard(core, shard);
                last[shard] = (
                    core.heartbeats[shard].load(Ordering::Relaxed),
                    Instant::now(),
                );
                was_stalled[shard] = false;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use domo_net::{run_simulation, NetworkConfig};

    #[test]
    fn reconstructs_every_delivered_packet() {
        let trace = run_simulation(&NetworkConfig::small(9, 910));
        let service = SinkService::start(SinkConfig {
            shards: 2,
            ..SinkConfig::default()
        });
        for p in &trace.packets {
            assert!(matches!(service.ingest(p.clone()), IngestOutcome::Accepted));
        }
        service.drain();
        let snap = service.snapshot();
        assert_eq!(snap.stats.ingested, trace.packets.len() as u64);
        assert_eq!(snap.stats.emitted, trace.packets.len() as u64);
        assert_eq!(snap.stats.quarantined, 0);
        assert_eq!(snap.stats.backpressure_dropped, 0);
        assert_eq!(snap.retained_packets, trace.packets.len());
        assert!(!snap.nodes.is_empty());
        for p in &trace.packets {
            let r = service.reconstruction(p.pid).expect("emitted");
            assert_eq!(r.path, p.path);
            assert_eq!(r.hop_times_ms.len(), p.path.len());
        }
        service.shutdown();
    }

    #[test]
    fn single_shard_matches_in_process_streaming() {
        let trace = run_simulation(&NetworkConfig::small(9, 911));
        let mut reference = StreamingEstimator::new(EstimatorConfig::default());
        let mut expected = Vec::new();
        for p in &trace.packets {
            expected.extend(reference.push(p.clone()));
        }
        expected.extend(reference.finish());

        let service = SinkService::start(SinkConfig {
            shards: 1,
            ..SinkConfig::default()
        });
        for p in &trace.packets {
            service.ingest(p.clone());
        }
        service.drain();
        for e in &expected {
            let got = service.reconstruction(e.pid).expect("same emissions");
            assert_eq!(got.hop_times_ms.len(), e.hop_times_ms.len());
            for (a, b) in got.hop_times_ms.iter().zip(&e.hop_times_ms) {
                assert!(
                    (a - b).abs() < 1e-9,
                    "shard-1 service must match the in-process estimator"
                );
            }
        }
        service.shutdown();
    }

    #[test]
    fn malformed_records_are_quarantined_not_fatal() {
        let trace = run_simulation(&NetworkConfig::small(9, 912));
        let service = SinkService::start(SinkConfig::default());
        let mut broken = trace.packets[0].clone();
        broken.path.truncate(1);
        assert!(matches!(
            service.ingest(broken),
            IngestOutcome::Quarantined(TraceError::PathTooShort { .. })
        ));
        // Duplicates of an accepted record are quarantined too.
        assert!(matches!(
            service.ingest(trace.packets[1].clone()),
            IngestOutcome::Accepted
        ));
        assert!(matches!(
            service.ingest(trace.packets[1].clone()),
            IngestOutcome::Quarantined(TraceError::DuplicateId)
        ));
        let stats = service.stats();
        assert_eq!(stats.quarantined, 2);
        assert_eq!(stats.ingested, 1);
        service.shutdown();
    }

    #[test]
    fn saturation_drops_oldest_and_counts() {
        let trace = run_simulation(&NetworkConfig::small(16, 913));
        assert!(trace.packets.len() > 32);
        // One shard, a queue of 4, and a high-water mark larger than the
        // trace so the worker never drains the backlog by flushing.
        let service = SinkService::start(SinkConfig {
            shards: 1,
            queue_capacity: 4,
            high_water: Some(10 * trace.packets.len()),
            ..SinkConfig::default()
        });
        let mut dropped_seen = false;
        for p in &trace.packets {
            match service.ingest(p.clone()) {
                IngestOutcome::Accepted => {}
                IngestOutcome::AcceptedDroppingOldest => dropped_seen = true,
                other => panic!("unexpected outcome {other:?}"),
            }
        }
        service.drain();
        let stats = service.stats();
        // The worker consumes concurrently, so the exact drop count is
        // timing-dependent — but accounting must balance exactly.
        assert_eq!(stats.ingested, trace.packets.len() as u64);
        assert_eq!(stats.emitted + stats.backpressure_dropped, stats.ingested);
        if dropped_seen {
            assert!(stats.backpressure_dropped > 0);
        }
        service.shutdown();
    }

    #[test]
    fn frames_feed_the_service_and_bad_frames_are_counted() {
        let trace = run_simulation(&NetworkConfig::small(9, 914));
        let service = SinkService::start(SinkConfig::default());
        // What a transport does with a byte stream: every decoded
        // frame is ingested, a frame that fails decode is counted.
        let bytes = wire::encode_packets(&trace.packets).expect("encodes");
        let mut at = 0;
        while at < bytes.len() {
            let (p, used) = wire::decode_packet(&bytes[at..]).expect("clean frames");
            assert!(matches!(service.ingest(p), IngestOutcome::Accepted));
            at += used;
        }
        assert!(wire::decode_packet(&[0x99, 0x01, 0x00]).is_err());
        service.note_malformed_frame();
        service.drain();
        let stats = service.stats();
        assert_eq!(stats.ingested, trace.packets.len() as u64);
        assert_eq!(stats.emitted, trace.packets.len() as u64);
        assert_eq!(stats.malformed_frames, 1);
        service.shutdown();
    }

    #[test]
    fn effective_high_water_reports_the_clamp() {
        // An operator configuring 0 must be able to see the value the
        // shards actually use (with_high_water clamps to 2).
        let service = SinkService::start(SinkConfig {
            high_water: Some(0),
            ..SinkConfig::default()
        });
        assert_eq!(service.effective_high_water(), 2);
        service.shutdown();
        let default_service = SinkService::start(SinkConfig::default());
        assert_eq!(
            default_service.effective_high_water(),
            StreamingEstimator::effective_high_water(&EstimatorConfig::default(), None)
        );
        default_service.shutdown();
    }

    #[test]
    fn shutdown_flushes_and_is_idempotent() {
        let trace = run_simulation(&NetworkConfig::small(9, 915));
        let service = SinkService::start(SinkConfig::default());
        for p in &trace.packets {
            service.ingest(p.clone());
        }
        let snap = service.shutdown();
        assert_eq!(snap.stats.emitted, trace.packets.len() as u64);
        // After shutdown, a fresh record reports Closed and nothing
        // moves (a replayed duplicate still reports Quarantined — the
        // validation path runs before the queue).
        let mut fresh = trace.packets[0].clone();
        fresh.pid = PacketId::new(fresh.pid.origin, u32::MAX);
        assert!(matches!(service.ingest(fresh), IngestOutcome::Closed));
        let again = service.shutdown();
        assert_eq!(again.stats.emitted, snap.stats.emitted);
    }

    fn store_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("domo-sink-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn durable_cfg(dir: &std::path::Path, shards: usize) -> SinkConfig {
        SinkConfig {
            shards,
            store: Some(StoreConfig::at(dir)),
            ..SinkConfig::default()
        }
    }

    /// Bit-exact baseline: the same trace through a volatile service
    /// with the same shard count.
    fn baseline(trace: &domo_net::NetworkTrace, shards: usize) -> SinkService {
        let service = SinkService::start(SinkConfig {
            shards,
            ..SinkConfig::default()
        });
        for p in &trace.packets {
            service.ingest(p.clone());
        }
        service.drain();
        service
    }

    #[test]
    fn clean_shutdown_checkpoint_makes_reopen_instant() {
        let trace = run_simulation(&NetworkConfig::small(9, 920));
        let dir = store_dir("clean");
        let first = SinkService::open(durable_cfg(&dir, 2)).expect("opens");
        for p in &trace.packets {
            assert!(matches!(first.ingest(p.clone()), IngestOutcome::Accepted));
        }
        first.drain();
        first.shutdown();

        // Shutdown checkpointed, so reopening replays nothing and the
        // result cache comes straight from the result log.
        let second = SinkService::open(durable_cfg(&dir, 2)).expect("reopens");
        let report = second.recovery_report().expect("store enabled");
        assert_eq!(report.replayed, 0, "checkpoint must cover the whole WAL");
        assert!(report.checkpoint_lsn >= trace.packets.len() as u64);
        assert_eq!(report.result_records, trace.packets.len() as u64);
        assert_eq!(report.wal_bytes_discarded, 0);

        let reference = baseline(&trace, 2);
        for p in &trace.packets {
            let got = second.reconstruction(p.pid).expect("recovered from disk");
            let want = reference.reconstruction(p.pid).expect("baseline");
            assert_eq!(got.path, want.path);
            let a: Vec<u64> = got.hop_times_ms.iter().map(|v| v.to_bits()).collect();
            let b: Vec<u64> = want.hop_times_ms.iter().map(|v| v.to_bits()).collect();
            assert_eq!(a, b, "recovered estimates must be bit-identical");
        }
        // The durable counters survive the restart too.
        assert_eq!(second.stats().emitted, trace.packets.len() as u64);
        reference.shutdown();
        second.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wal_replay_resolves_without_double_emit() {
        let trace = run_simulation(&NetworkConfig::small(9, 921));
        let dir = store_dir("replay");
        // Never checkpoint: recovery must come entirely from WAL replay.
        let mut store = StoreConfig::at(&dir);
        store.checkpoint_every = u64::MAX;
        let first = SinkService::open(SinkConfig {
            shards: 2,
            store: Some(store.clone()),
            ..SinkConfig::default()
        })
        .expect("opens");
        for p in &trace.packets {
            first.ingest(p.clone());
        }
        first.drain();
        let persisted_before = first.store_status().expect("store enabled").results.records;
        assert_eq!(persisted_before, trace.packets.len() as u64);
        // Drop without shutdown(): queues close and workers flush, but
        // no checkpoint lands — the WAL is the only ingest record.
        drop(first);

        let second = SinkService::open(SinkConfig {
            shards: 2,
            store: Some(store),
            ..SinkConfig::default()
        })
        .expect("reopens");
        let report = second.recovery_report().expect("store enabled");
        assert_eq!(report.checkpoint_lsn, 0);
        assert_eq!(report.replayed, trace.packets.len() as u64);
        second.drain();

        // Replay re-solved every packet, but the result log gained no
        // duplicates: the persisted-pid index gates re-appends.
        let status = second.store_status().expect("store enabled");
        assert_eq!(status.results.records, trace.packets.len() as u64);

        let reference = baseline(&trace, 2);
        for p in &trace.packets {
            let got = second.reconstruction(p.pid).expect("replayed");
            let want = reference.reconstruction(p.pid).expect("baseline");
            let a: Vec<u64> = got.hop_times_ms.iter().map(|v| v.to_bits()).collect();
            let b: Vec<u64> = want.hop_times_ms.iter().map(|v| v.to_bits()).collect();
            assert_eq!(a, b, "replayed estimates must be bit-identical");
        }
        reference.shutdown();
        second.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn range_query_prunes_by_generation_time() {
        let trace = run_simulation(&NetworkConfig::small(9, 922));
        let dir = store_dir("range");
        let service = SinkService::open(durable_cfg(&dir, 1)).expect("opens");
        for p in &trace.packets {
            service.ingest(p.clone());
        }
        service.drain();
        let all = service
            .range(f64::NEG_INFINITY, f64::INFINITY)
            .expect("range");
        assert_eq!(all.len(), trace.packets.len());
        // A window that excludes everything.
        let none = service.range(-2.0, -1.0).expect("range");
        assert!(none.is_empty());
        // A half-window: every returned record's first hop time is in
        // range, and the count matches a manual scan.
        let times: Vec<f64> = all
            .iter()
            .map(|(_, r)| r.hop_times_ms.first().copied().unwrap_or(0.0))
            .collect();
        let mid = times.iter().copied().fold(f64::NEG_INFINITY, f64::max) / 2.0;
        let some = service.range(f64::NEG_INFINITY, mid).expect("range");
        let expected = times.iter().filter(|t| **t <= mid).count();
        assert_eq!(some.len(), expected);
        service.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopening_with_different_shard_count_is_rejected() {
        let trace = run_simulation(&NetworkConfig::small(9, 923));
        let dir = store_dir("reshard");
        let first = SinkService::open(durable_cfg(&dir, 2)).expect("opens");
        for p in &trace.packets {
            first.ingest(p.clone());
        }
        first.drain();
        first.shutdown();
        let err = match SinkService::open(durable_cfg(&dir, 3)) {
            Ok(_) => panic!("re-sharding a data dir must be rejected"),
            Err(e) => e,
        };
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn volatile_service_reports_healthy_zeros() {
        let service = SinkService::start(SinkConfig::default());
        assert_eq!(service.health(), SinkHealth::Healthy);
        assert_eq!(service.health_status(), HealthStatus::default());
        assert_eq!(service.stats().watchdog_dropped, 0);
        service.shutdown();
    }

    #[test]
    fn store_faults_degrade_then_heal_without_losing_results() {
        let trace = run_simulation(&NetworkConfig::small(9, 924));
        let dir = store_dir("degrade");
        let mut store = StoreConfig::at(&dir);
        store.checkpoint_every = u64::MAX; // only heal probes checkpoint
        store.probe_every = 1;
        // Every mutating op in the window [20, 40) fails — the service
        // must degrade, keep reconstructing, probe, and heal once the
        // window passes.
        store.faults = Some(domo_store::FaultPlan {
            eio: 1.0,
            fsync: 1.0,
            after_ops: 20,
            for_ops: 20,
            ..domo_store::FaultPlan::default()
        });
        let service = SinkService::open(SinkConfig {
            shards: 1,
            store: Some(store),
            ..SinkConfig::default()
        })
        .expect("opens clean (fault window starts later)");
        for p in &trace.packets {
            match service.ingest(p.clone()) {
                IngestOutcome::Accepted | IngestOutcome::AcceptedDroppingOldest => {}
                other => panic!("faults must never reject ingest: {other:?}"),
            }
        }
        service.drain();
        let hs = service.health_status();
        assert_eq!(hs.health, SinkHealth::Healthy, "must heal: {hs:?}");
        assert!(hs.degraded_entries >= 1, "must have degraded: {hs:?}");
        assert!(hs.heals >= 1, "must have healed: {hs:?}");
        assert!(hs.store_errors >= 1);
        assert!(hs.unjournaled >= 1, "degraded records are un-journaled");
        assert_eq!(service.stats().emitted, trace.packets.len() as u64);
        // Healing flushed the backlog: every result is on disk.
        service.checkpoint_now().expect("healthy checkpoint");
        assert_eq!(service.health_status().backlogged, 0);
        let status = service.store_status().expect("store enabled");
        assert_eq!(status.results.records, trace.packets.len() as u64);
        service.shutdown();

        // Reopen without faults: recovered state is complete (the heal
        // checkpoint covered the un-journaled hole) and bit-identical.
        let second = SinkService::open(durable_cfg(&dir, 1)).expect("reopens");
        let reference = baseline(&trace, 1);
        for p in &trace.packets {
            let got = second.reconstruction(p.pid).expect("recovered");
            let want = reference.reconstruction(p.pid).expect("baseline");
            let a: Vec<u64> = got.hop_times_ms.iter().map(|v| v.to_bits()).collect();
            let b: Vec<u64> = want.hop_times_ms.iter().map(|v| v.to_bits()).collect();
            assert_eq!(a, b, "post-heal recovery must be bit-identical");
        }
        reference.shutdown();
        second.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn watchdog_restarts_a_panicked_shard_and_accounts_for_losses() {
        let trace = run_simulation(&NetworkConfig::small(9, 925));
        // Volatile, one shard, no flushing before the panic: the 10
        // buffered packets plus the one in hand die with the worker and
        // nothing can resurrect them.
        let service = SinkService::start(SinkConfig {
            shards: 1,
            high_water: Some(10 * trace.packets.len()),
            ..SinkConfig::default()
        });
        service.chaos_panic_shard(0, 10);
        for p in &trace.packets {
            match service.ingest(p.clone()) {
                IngestOutcome::Accepted | IngestOutcome::AcceptedDroppingOldest => {}
                other => panic!("a dead worker must not reject ingest: {other:?}"),
            }
        }
        service.drain();
        let stats = service.stats();
        let hs = service.health_status();
        assert!(hs.watchdog_restarts >= 1, "watchdog must restart: {hs:?}");
        assert_eq!(stats.watchdog_dropped, 11, "10 buffered + 1 in hand");
        assert_eq!(stats.backpressure_dropped, 0);
        assert_eq!(
            stats.emitted,
            trace.packets.len() as u64 - 11,
            "everything the dead worker did not consume must emit"
        );
        service.shutdown();
    }

    #[test]
    fn durable_watchdog_restart_replays_the_wal_bit_identically() {
        let trace = run_simulation(&NetworkConfig::small(9, 926));
        let half = trace.packets.len() / 2;
        let dir = store_dir("wdreplay");
        let mut store = StoreConfig::at(&dir);
        store.checkpoint_every = u64::MAX; // checkpoints only on demand
        let service = SinkService::open(SinkConfig {
            shards: 1,
            store: Some(store),
            ..SinkConfig::default()
        })
        .expect("opens");
        for p in &trace.packets[..half] {
            service.ingest(p.clone());
        }
        service.drain();
        service.checkpoint_now().expect("mid-stream checkpoint");
        // Kill the worker 5 packets into the second half: everything it
        // consumed is journaled past the checkpoint cut, so the restart
        // replays it and loses nothing.
        service.chaos_panic_shard(0, 5);
        for p in &trace.packets[half..] {
            service.ingest(p.clone());
        }
        service.drain();
        let stats = service.stats();
        let hs = service.health_status();
        assert!(hs.watchdog_restarts >= 1, "watchdog must restart: {hs:?}");
        assert_eq!(stats.watchdog_dropped, 0, "journaled packets never die");
        assert_eq!(stats.emitted, trace.packets.len() as u64);
        let status = service.store_status().expect("store enabled");
        assert_eq!(
            status.results.records,
            trace.packets.len() as u64,
            "re-emissions must not duplicate results"
        );

        // Reference replicates the mid-stream drain (it changes the
        // estimator's window sequence).
        let reference = SinkService::start(SinkConfig {
            shards: 1,
            ..SinkConfig::default()
        });
        for p in &trace.packets[..half] {
            reference.ingest(p.clone());
        }
        reference.drain();
        for p in &trace.packets[half..] {
            reference.ingest(p.clone());
        }
        reference.drain();
        for p in &trace.packets {
            let got = service.reconstruction(p.pid).expect("emitted");
            let want = reference.reconstruction(p.pid).expect("baseline");
            let a: Vec<u64> = got.hop_times_ms.iter().map(|v| v.to_bits()).collect();
            let b: Vec<u64> = want.hop_times_ms.iter().map(|v| v.to_bits()).collect();
            assert_eq!(a, b, "watchdog replay must be bit-identical");
        }
        reference.shutdown();
        service.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_retention_and_dedup_stay_bounded_under_replay() {
        let trace = run_simulation(&NetworkConfig::small(9, 927));
        let dir = store_dir("bounded");
        let mut store = StoreConfig::at(&dir);
        store.checkpoint_every = 8; // many checkpoints per run
        let service = SinkService::open(SinkConfig {
            shards: 1,
            store: Some(store),
            ..SinkConfig::default()
        })
        .expect("opens");
        for p in &trace.packets {
            service.ingest(p.clone());
        }
        service.drain();
        service.checkpoint_now().expect("checkpoint");
        let status = service.store_status().expect("store enabled");
        assert!(
            status.checkpoints_on_disk <= 2,
            "retention must prune beyond KEEP=2, found {}",
            status.checkpoints_on_disk
        );
        assert_eq!(status.dedup_pids, trace.packets.len());

        // Sustained duplicate replay: the dedup set must not grow, and
        // checkpoint retention must hold across repeated cycles.
        for round in 0..3 {
            for p in &trace.packets {
                assert!(
                    matches!(
                        service.ingest(p.clone()),
                        IngestOutcome::Quarantined(TraceError::DuplicateId)
                    ),
                    "round {round}: replayed duplicates must be quarantined"
                );
            }
            service.checkpoint_now().expect("checkpoint");
            let status = service.store_status().expect("store enabled");
            assert_eq!(
                status.dedup_pids,
                trace.packets.len(),
                "round {round}: dedup set must not grow under replay"
            );
            assert!(status.checkpoints_on_disk <= 2, "round {round}");
        }
        service.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
