//! Online (streaming) reconstruction.
//!
//! The paper's pipeline is offline: collect the whole trace, then solve.
//! Operationally, a sink wants per-hop delays *while the network runs*.
//! [`StreamingEstimator`] wraps the windowed estimator in a rolling
//! buffer: packets are pushed as they arrive at the sink; whenever the
//! buffer reaches its high-water mark its oldest half is emitted.
//!
//! A flush plans §IV.B's overlapping windows over the whole buffer, as
//! an offline run over those packets would, but solves only the windows
//! whose commit zones cover the emitted half
//! ([`crate::estimator::try_estimate_prefix`]). At the defaults (48-packet
//! windows keeping their middle 24, a 192-packet buffer) that is four of
//! the seven planned windows, spanning buffer packets 0..120: every
//! emitted packet is solved inside a window that reaches at least 12
//! packets past it, and the rest of the buffer still shapes the solve
//! through interval propagation and the relaxed rows that reach outside
//! a window. The windows left out commit only packets that stay
//! buffered, so the emissions are bit-identical to solving all seven.
//!
//! Compared to a full offline solve, the online mode loses the
//! constraints that would have arrived *after* a packet's flush — the
//! accuracy cost is bounded and measured in this module's tests.

use crate::estimator::{try_estimate_prefix, EstimatorConfig};
use crate::view::{TimeRef, TraceView};
use crate::DomoError;
use domo_net::{CollectedPacket, PacketId};
use domo_obs::{LazyCounter, LazyHistogram};

// Streaming-layer telemetry, cumulative across every estimator in the
// process (a sharded sink runs several).
static OBS_FLUSH_PACKETS: LazyHistogram = LazyHistogram::new("domo_streaming_flush_packets", &[]);
static OBS_EMITTED: LazyCounter = LazyCounter::new("domo_streaming_emitted_total", &[]);
static OBS_OVERFLOW_DROPPED: LazyCounter =
    LazyCounter::new("domo_streaming_overflow_dropped_total", &[]);

/// One emitted reconstruction: a packet and its full arrival-time
/// sequence (generation, interior estimates, sink arrival; ms).
#[derive(Debug, Clone, PartialEq)]
pub struct ReconstructedPacket {
    /// The packet.
    pub pid: PacketId,
    /// Arrival times aligned with the packet's path.
    pub hop_times_ms: Vec<f64>,
}

/// A point-in-time capture of a [`StreamingEstimator`]'s mutable state,
/// for checkpointing. The wrapped [`EstimatorConfig`] is *not* part of
/// the snapshot — configuration belongs to whoever constructs the
/// estimator, and [`StreamingEstimator::from_snapshot`] takes it
/// explicitly so a restore can never silently resurrect a stale config.
///
/// The fields are public so callers can serialize them with their own
/// codec (the sink reuses its wire framing for the buffered packets);
/// restoring through [`StreamingEstimator::from_snapshot`] re-sorts the
/// buffer, so a serializer need not preserve order.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamingSnapshot {
    /// Packets buffered but not yet flushed.
    pub buffer: Vec<CollectedPacket>,
    /// The effective flush threshold at capture time.
    pub high_water: usize,
    /// Cumulative emission count at capture time.
    pub emitted: u64,
    /// Cumulative overflow-drop count at capture time.
    pub overflow_dropped: u64,
}

/// A rolling-buffer online estimator.
///
/// # Examples
///
/// ```
/// use domo_core::streaming::StreamingEstimator;
///
/// let trace = domo_net::run_simulation(&domo_net::NetworkConfig::small(9, 1));
/// let mut online = StreamingEstimator::new(Default::default());
/// let mut emitted = Vec::new();
/// for p in &trace.packets {
///     emitted.extend(online.push(p.clone()));
/// }
/// emitted.extend(online.finish());
/// assert_eq!(emitted.len(), trace.packets.len());
/// ```
#[derive(Debug, Clone)]
pub struct StreamingEstimator {
    cfg: EstimatorConfig,
    /// Buffered packets, kept sorted by `(gen_time, pid)` at all times
    /// (insertion keeps the order, so a flush never re-sorts).
    buffer: Vec<CollectedPacket>,
    /// Flush when the buffer reaches this many packets.
    high_water: usize,
    emitted: usize,
    overflow_dropped: u64,
}

impl StreamingEstimator {
    /// Creates an online estimator. The default flush threshold is four
    /// windows of the wrapped estimator: a flush emits the older two and
    /// solves only the windows that commit them (see the module docs),
    /// so the newer half is context, not work. Override it with
    /// [`StreamingEstimator::with_high_water`].
    pub fn new(cfg: EstimatorConfig) -> Self {
        let high_water = Self::effective_high_water(&cfg, None);
        Self {
            cfg,
            buffer: Vec::new(),
            high_water,
            emitted: 0,
            overflow_dropped: 0,
        }
    }

    /// The flush threshold an estimator built from `cfg` actually uses:
    /// the override clamped exactly as [`StreamingEstimator::with_high_water`]
    /// clamps it, or the [`StreamingEstimator::new`] default of four
    /// windows when no override is given. Services that accept an
    /// operator-supplied threshold should surface this value (not the
    /// raw configured one) in their stats, so a clamped override is
    /// never silently misleading.
    pub fn effective_high_water(cfg: &EstimatorConfig, override_hw: Option<usize>) -> usize {
        match override_hw {
            Some(hw) => hw.max(2),
            None => (cfg.window_packets * 4).max(8),
        }
    }

    /// Builder-style override of the flush threshold.
    ///
    /// The threshold trades accuracy for latency and memory: a *larger*
    /// value buffers more future packets before committing the oldest
    /// half, giving each committed packet more constraint context (the
    /// overlap of §IV.B's improved time windows) at the cost of a longer
    /// wait before its reconstruction is final and a bigger resident
    /// buffer. A *smaller* value emits sooner with less context and a
    /// measurable accuracy cost.
    ///
    /// **Clamping:** values below 2 are silently raised to 2 — a
    /// threshold of 1 would commit every packet with no context at all,
    /// and 0 would never flush. The clamped value is what
    /// [`StreamingEstimator::high_water`] (and the sink service's STATS
    /// `high_water` line) reports, so always read the effective value
    /// back rather than assuming the configured one was kept;
    /// [`StreamingEstimator::effective_high_water`] computes it without
    /// constructing an estimator.
    ///
    /// # Examples
    ///
    /// ```
    /// use domo_core::streaming::StreamingEstimator;
    ///
    /// let online = StreamingEstimator::new(Default::default()).with_high_water(64);
    /// assert_eq!(online.high_water(), 64);
    /// // Degenerate thresholds are clamped, and the getter tells you so.
    /// let clamped = StreamingEstimator::new(Default::default()).with_high_water(0);
    /// assert_eq!(clamped.high_water(), 2);
    /// ```
    #[must_use]
    pub fn with_high_water(mut self, high_water: usize) -> Self {
        self.high_water = Self::effective_high_water(&self.cfg, Some(high_water));
        self
    }

    /// The current flush threshold (packets buffered before a flush).
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Number of packets buffered but not yet emitted.
    pub fn pending(&self) -> usize {
        self.buffer.len()
    }

    /// Total packets emitted so far (cumulative across streams; see
    /// [`StreamingEstimator::reset`]).
    pub fn emitted(&self) -> usize {
        self.emitted
    }

    /// Packets discarded, unreconstructed, because a failing flush left
    /// the buffer at its bound (see [`StreamingEstimator::try_push`]).
    /// Nonzero only while the configuration is invalid; cleared by
    /// [`StreamingEstimator::reset`].
    pub fn overflow_dropped(&self) -> u64 {
        self.overflow_dropped
    }

    /// Discards any buffered packets and zeroes the emission counter,
    /// returning the estimator to its freshly-constructed state (the
    /// configured flush threshold is kept). Use this between streams
    /// when the cumulative [`StreamingEstimator::emitted`] count should
    /// restart; [`StreamingEstimator::finish`] alone already leaves the
    /// estimator reusable but keeps counting.
    pub fn reset(&mut self) {
        self.buffer.clear();
        self.emitted = 0;
        self.overflow_dropped = 0;
    }

    /// Captures the estimator's mutable state for checkpointing.
    ///
    /// The capture is exact: an estimator rebuilt from the snapshot via
    /// [`StreamingEstimator::from_snapshot`] (with the same
    /// [`EstimatorConfig`]) produces bit-identical emissions for any
    /// subsequent input — flush boundaries depend only on the buffer
    /// contents and the threshold, both of which are captured, and the
    /// solve itself is deterministic.
    pub fn snapshot(&self) -> StreamingSnapshot {
        StreamingSnapshot {
            buffer: self.buffer.clone(),
            high_water: self.high_water,
            emitted: self.emitted as u64,
            overflow_dropped: self.overflow_dropped,
        }
    }

    /// Rebuilds an estimator from a [`StreamingSnapshot`] and the
    /// configuration it should run with. The buffer is re-sorted by
    /// `(gen_time, pid)` — the invariant every other method relies on —
    /// so snapshots that crossed a serializer that reordered records
    /// restore correctly.
    pub fn from_snapshot(cfg: EstimatorConfig, snap: StreamingSnapshot) -> Self {
        let mut buffer = snap.buffer;
        buffer.sort_by_key(|a| (a.gen_time, a.pid));
        Self {
            cfg,
            buffer,
            high_water: snap.high_water.max(2),
            emitted: snap.emitted as usize,
            overflow_dropped: snap.overflow_dropped,
        }
    }

    /// Pushes one packet (in sink-arrival order); returns any packets
    /// whose reconstruction became final.
    ///
    /// # Panics
    ///
    /// Panics if the wrapped estimator's configuration is invalid
    /// ([`StreamingEstimator::try_push`] reports that as an error).
    pub fn push(&mut self, packet: CollectedPacket) -> Vec<ReconstructedPacket> {
        match self.try_push(packet) {
            Ok(out) => out,
            Err(e) => panic!("{e}"),
        }
    }

    /// Non-panicking variant of [`StreamingEstimator::push`].
    ///
    /// # Errors
    ///
    /// [`DomoError::Estimator`] when the configuration is invalid. On
    /// error the packet stays buffered, but the buffer is then trimmed
    /// to the high-water mark: the configuration is fixed at
    /// construction, so a failing flush would otherwise fail on *every*
    /// subsequent push and grow the buffer without bound. The oldest
    /// packets beyond the mark are dropped unreconstructed and counted
    /// in [`StreamingEstimator::overflow_dropped`].
    ///
    /// **Recovery:** an invalid configuration cannot heal in place —
    /// build a new `StreamingEstimator` with a valid
    /// [`EstimatorConfig`] (validate it up front with
    /// [`crate::estimator::try_estimate`] on an empty view if needed),
    /// or call [`StreamingEstimator::reset`] to discard the stream.
    /// Until then the newest `high_water` packets stay buffered, so a
    /// replacement estimator loses only the dropped prefix.
    pub fn try_push(
        &mut self,
        packet: CollectedPacket,
    ) -> Result<Vec<ReconstructedPacket>, DomoError> {
        // Keep the buffer sorted by (gen_time, pid): packets usually
        // arrive nearly in generation order, so this is an append or a
        // short shift, and flushes never have to sort.
        let key = (packet.gen_time, packet.pid);
        let at = self.buffer.partition_point(|q| (q.gen_time, q.pid) <= key);
        self.buffer.insert(at, packet);
        if self.buffer.len() < self.high_water {
            return Ok(Vec::new());
        }
        let result = self.flush(self.buffer.len() / 2);
        if result.is_err() && self.buffer.len() > self.high_water {
            let excess = self.buffer.len() - self.high_water;
            self.buffer.drain(..excess);
            self.overflow_dropped += excess as u64;
            OBS_OVERFLOW_DROPPED.add(excess as u64);
        }
        result
    }

    /// Flushes everything still buffered (end of stream).
    ///
    /// On success the estimator is left empty and immediately reusable
    /// for a new stream: later pushes buffer and flush exactly as on a
    /// fresh instance. The [`StreamingEstimator::emitted`] counter is
    /// deliberately *not* reset — it accumulates across streams so a
    /// long-running sink can report lifetime totals; call
    /// [`StreamingEstimator::reset`] to zero it.
    ///
    /// # Panics
    ///
    /// Same conditions as [`StreamingEstimator::push`].
    pub fn finish(&mut self) -> Vec<ReconstructedPacket> {
        match self.try_finish() {
            Ok(out) => out,
            Err(e) => panic!("{e}"),
        }
    }

    /// Non-panicking variant of [`StreamingEstimator::finish`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`StreamingEstimator::try_push`]. On error the
    /// buffer is left intact (nothing is emitted or lost); call
    /// [`StreamingEstimator::reset`] to abandon it.
    pub fn try_finish(&mut self) -> Result<Vec<ReconstructedPacket>, DomoError> {
        let n = self.buffer.len();
        self.flush(n)
    }

    /// Commits the oldest half of the buffer (rounded up) *now*, without
    /// waiting for the high-water mark — the emission hook a long-running
    /// sink uses to bound reconstruction latency on quiet streams (e.g.
    /// from an idle timer or an operator's flush request). Like a
    /// high-water flush it plans windows over the whole buffer and solves
    /// those whose commit zones cover the emitted half; the newer half
    /// stays buffered and informs the solve as context. An early flush
    /// simply solves with less context than waiting would have gathered.
    ///
    /// # Errors
    ///
    /// Same conditions as [`StreamingEstimator::try_push`].
    pub fn try_flush_now(&mut self) -> Result<Vec<ReconstructedPacket>, DomoError> {
        let n = self.buffer.len();
        self.flush(n.div_ceil(2))
    }

    /// Emits the `commit` oldest packets (by generation time), solving
    /// the windows that commit them with the whole buffer as the view.
    ///
    /// The buffer is moved — not cloned — into the solve: it is already
    /// sorted by `(gen_time, pid)`, so the oldest `commit` packets are
    /// exactly the prefix, and [`TraceView::into_packets`] hands the
    /// storage back afterwards. On error the buffer is restored intact.
    fn flush(&mut self, commit: usize) -> Result<Vec<ReconstructedPacket>, DomoError> {
        if commit == 0 || self.buffer.is_empty() {
            return Ok(Vec::new());
        }
        let commit = commit.min(self.buffer.len());
        // The committed prefix enters the solve now; stamp it before
        // the buffer moves.
        for p in &self.buffer[..commit] {
            domo_obs::trace::stamp(
                p.pid.origin.index() as u16,
                p.pid.seq,
                domo_obs::trace::Stage::Flush,
            );
        }
        // Solve with the full buffer as context.
        let view = TraceView::new(std::mem::take(&mut self.buffer));
        let result = Self::reconstruct_prefix(&view, &self.cfg, commit);
        let mut packets = view.into_packets();
        match result {
            Ok(out) => {
                // Drop the committed prefix in place; the tail keeps its
                // allocation and stays sorted.
                packets.drain(..commit);
                self.buffer = packets;
                self.emitted += out.len();
                OBS_FLUSH_PACKETS.observe(out.len() as f64);
                OBS_EMITTED.add(out.len() as u64);
                Ok(out)
            }
            Err(e) => {
                self.buffer = packets;
                Err(e)
            }
        }
    }

    /// Reconstructs the first `commit` packets of `view` (which holds
    /// the buffer in `(gen_time, pid)` order, so they are also the
    /// estimator's generation-order prefix).
    fn reconstruct_prefix(
        view: &TraceView,
        cfg: &EstimatorConfig,
        commit: usize,
    ) -> Result<Vec<ReconstructedPacket>, DomoError> {
        let est = try_estimate_prefix(view, cfg, commit)?;
        let mut out = Vec::with_capacity(commit);
        for pi in 0..commit {
            let p = view.packet(pi);
            let mut hop_times_ms = Vec::with_capacity(p.path.len());
            for hop in 0..p.path.len() {
                let t = match view.time_ref(pi, hop) {
                    TimeRef::Known(t) => t,
                    TimeRef::Var(v) => est
                        .time_of(v)
                        .ok_or(DomoError::MissingEstimate { var: v })?,
                };
                hop_times_ms.push(t);
            }
            domo_obs::trace::stamp(
                p.pid.origin.index() as u16,
                p.pid.seq,
                domo_obs::trace::Stage::WindowSolve,
            );
            out.push(ReconstructedPacket {
                pid: p.pid,
                hop_times_ms,
            });
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::estimate;
    use domo_net::{run_simulation, NetworkConfig, NetworkTrace};

    fn online_errors(trace: &NetworkTrace, emitted: &[ReconstructedPacket]) -> Vec<f64> {
        let mut errs = Vec::new();
        for r in emitted {
            let truth = trace.truth(r.pid).expect("delivered");
            assert_eq!(truth.len(), r.hop_times_ms.len());
            for (t, &e) in truth.iter().zip(&r.hop_times_ms) {
                errs.push((e - t.as_millis_f64()).abs());
            }
        }
        errs
    }

    #[test]
    fn every_packet_emitted_exactly_once() {
        let trace = run_simulation(&NetworkConfig::small(16, 301));
        let mut online = StreamingEstimator::new(EstimatorConfig::default());
        let mut emitted = Vec::new();
        for p in &trace.packets {
            emitted.extend(online.push(p.clone()));
        }
        assert!(online.pending() > 0, "tail should still be buffered");
        emitted.extend(online.finish());
        assert_eq!(online.pending(), 0);
        assert_eq!(emitted.len(), trace.packets.len());
        assert_eq!(online.emitted(), trace.packets.len());
        let mut pids: Vec<PacketId> = emitted.iter().map(|r| r.pid).collect();
        pids.sort();
        pids.dedup();
        assert_eq!(pids.len(), trace.packets.len(), "no duplicates");
    }

    #[test]
    fn online_accuracy_close_to_offline() {
        let trace = run_simulation(&NetworkConfig::small(16, 302));
        // Offline reference.
        let view = TraceView::new(trace.packets.clone());
        let offline = estimate(&view, &EstimatorConfig::default());
        let offline_err: f64 = {
            let mut errs = Vec::new();
            for (v, hr) in view.vars().iter().enumerate() {
                let t = trace.truth(view.packet(hr.packet).pid).unwrap()[hr.hop].as_millis_f64();
                errs.push((offline.time_of(v).unwrap() - t).abs());
            }
            errs.iter().sum::<f64>() / errs.len() as f64
        };
        // Online.
        let mut online = StreamingEstimator::new(EstimatorConfig::default());
        let mut emitted = Vec::new();
        for p in &trace.packets {
            emitted.extend(online.push(p.clone()));
        }
        emitted.extend(online.finish());
        let errs = online_errors(&trace, &emitted);
        let online_err = errs.iter().sum::<f64>() / errs.len() as f64;
        assert!(
            online_err < offline_err + 2.0,
            "online {online_err:.2} ms vs offline {offline_err:.2} ms"
        );
    }

    #[test]
    fn emissions_are_monotone_in_generation_time() {
        let trace = run_simulation(&NetworkConfig::small(9, 303));
        let mut online = StreamingEstimator::new(EstimatorConfig::default());
        let mut last_gen = f64::NEG_INFINITY;
        let mut check = |batch: Vec<ReconstructedPacket>, trace: &NetworkTrace| {
            // Batches are flushed oldest-first; across batches the
            // newest generation time of an earlier batch precedes the
            // oldest of a later one.
            if let Some(max_gen) = batch
                .iter()
                .map(|r| {
                    trace
                        .packets
                        .iter()
                        .find(|p| p.pid == r.pid)
                        .unwrap()
                        .gen_time
                        .as_millis_f64()
                })
                .reduce(f64::min)
            {
                assert!(max_gen >= last_gen - 1e-9);
            }
            if let Some(max_gen) = batch
                .iter()
                .map(|r| {
                    trace
                        .packets
                        .iter()
                        .find(|p| p.pid == r.pid)
                        .unwrap()
                        .gen_time
                        .as_millis_f64()
                })
                .reduce(f64::max)
            {
                last_gen = max_gen;
            }
        };
        for p in &trace.packets {
            check(online.push(p.clone()), &trace);
        }
        check(online.finish(), &trace);
    }

    #[test]
    fn empty_stream_is_fine() {
        let mut online = StreamingEstimator::new(EstimatorConfig::default());
        assert!(online.finish().is_empty());
        assert_eq!(online.emitted(), 0);
    }

    #[test]
    fn push_after_finish_reuses_the_estimator() {
        // Regression: `finish()` must leave the estimator in a clean,
        // reusable state — a second stream through the same instance
        // behaves exactly like a fresh one.
        let trace = run_simulation(&NetworkConfig::small(9, 305));
        let mut online = StreamingEstimator::new(EstimatorConfig::default());
        let mut first = Vec::new();
        for p in &trace.packets {
            first.extend(online.push(p.clone()));
        }
        first.extend(online.finish());
        assert_eq!(first.len(), trace.packets.len());
        assert_eq!(online.pending(), 0);

        // Second stream: same trace again (ids repeat — the estimator
        // holds no cross-stream state, so that must not matter).
        let mut second = Vec::new();
        for p in &trace.packets {
            second.extend(online.push(p.clone()));
        }
        second.extend(online.finish());
        assert_eq!(second.len(), trace.packets.len());
        assert_eq!(online.pending(), 0);
        // The counter documents cumulative totals across streams…
        assert_eq!(online.emitted(), 2 * trace.packets.len());
        // …and both streams reconstruct identically.
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a, b, "reused estimator must match a fresh run");
        }
    }

    #[test]
    fn reset_restores_the_fresh_state() {
        let trace = run_simulation(&NetworkConfig::small(9, 306));
        let mut online = StreamingEstimator::new(EstimatorConfig::default()).with_high_water(16);
        for p in trace.packets.iter().take(20) {
            let _ = online.push(p.clone());
        }
        assert!(online.emitted() > 0 || online.pending() > 0);
        online.reset();
        assert_eq!(online.pending(), 0);
        assert_eq!(online.emitted(), 0);
        assert_eq!(online.high_water(), 16, "reset keeps the configuration");
        assert!(online.finish().is_empty());
    }

    #[test]
    fn high_water_override_controls_flush_cadence() {
        let trace = run_simulation(&NetworkConfig::small(9, 307));
        assert!(trace.packets.len() > 12);
        let default_hw = StreamingEstimator::new(EstimatorConfig::default()).high_water();
        assert_eq!(
            default_hw,
            EstimatorConfig::default().window_packets * 4,
            "default threshold is documented as four windows"
        );
        let mut online = StreamingEstimator::new(EstimatorConfig::default()).with_high_water(12);
        let mut first_flush_at = None;
        for (i, p) in trace.packets.iter().enumerate() {
            if !online.push(p.clone()).is_empty() && first_flush_at.is_none() {
                first_flush_at = Some(i + 1);
            }
        }
        assert_eq!(first_flush_at, Some(12), "flush fires at the threshold");
        // Degenerate thresholds are clamped, never panic.
        assert_eq!(
            StreamingEstimator::new(EstimatorConfig::default())
                .with_high_water(0)
                .high_water(),
            2
        );
    }

    #[test]
    fn flush_now_commits_the_oldest_half_early() {
        let trace = run_simulation(&NetworkConfig::small(9, 308));
        let mut online = StreamingEstimator::new(EstimatorConfig::default());
        let take = 10.min(trace.packets.len());
        for p in trace.packets.iter().take(take) {
            assert!(online.push(p.clone()).is_empty(), "below high water");
        }
        let early = online.try_flush_now().expect("valid config");
        assert_eq!(early.len(), take.div_ceil(2));
        assert_eq!(online.pending(), take - early.len());
        // An empty estimator flushes to nothing.
        online.reset();
        assert!(online.try_flush_now().expect("valid config").is_empty());
    }

    #[test]
    fn bad_config_bounds_the_buffer() {
        // Regression: a persistently invalid config used to grow the
        // buffer without bound (try_push inserted, flush failed, repeat).
        let trace = run_simulation(&NetworkConfig::small(16, 309));
        let bad = EstimatorConfig {
            window_packets: 0,
            ..EstimatorConfig::default()
        };
        let mut online = StreamingEstimator::new(bad);
        let hw = online.high_water();
        assert!(trace.packets.len() > 2 * hw, "need enough overflow");
        for p in &trace.packets {
            let _ = online.try_push(p.clone());
            assert!(online.pending() <= hw, "buffer must stay bounded");
        }
        assert_eq!(online.pending(), hw, "newest packets are retained");
        assert_eq!(
            online.overflow_dropped() as usize,
            trace.packets.len() - hw,
            "every dropped packet is accounted for"
        );
        assert_eq!(online.emitted(), 0);
        online.reset();
        assert_eq!(online.overflow_dropped(), 0, "reset clears the counter");
    }

    #[test]
    fn arrival_order_does_not_affect_a_full_buffer_solve() {
        // The buffer is kept sorted by (gen_time, pid) on insert, so two
        // streams with the same packets in different arrival orders see
        // identical views at flush time.
        let trace = run_simulation(&NetworkConfig::small(9, 310));
        let hw = trace.packets.len() + 1;
        let mut forward = StreamingEstimator::new(EstimatorConfig::default()).with_high_water(hw);
        for p in &trace.packets {
            assert!(forward.push(p.clone()).is_empty(), "below high water");
        }
        let emitted_fwd = forward.finish();

        let mut reversed: Vec<_> = trace.packets.clone();
        reversed.reverse();
        let mut backward = StreamingEstimator::new(EstimatorConfig::default()).with_high_water(hw);
        for p in &reversed {
            assert!(backward.push(p.clone()).is_empty(), "below high water");
        }
        let emitted_bwd = backward.finish();
        assert_eq!(
            emitted_fwd, emitted_bwd,
            "sorted buffer makes emissions arrival-order independent"
        );
    }

    #[test]
    fn snapshot_restore_round_trip_is_bit_identical() {
        // Checkpoint/recovery contract: an estimator restored from a
        // mid-stream snapshot must emit *bit-identical* reconstructions
        // for the rest of the stream — compared via to_bits, not a
        // tolerance, because recovery equality is exact or it is wrong.
        let trace = run_simulation(&NetworkConfig::small(16, 311));
        let cut = trace.packets.len() / 2;
        let mut reference = StreamingEstimator::new(EstimatorConfig::default());
        for p in trace.packets.iter().take(cut) {
            let _ = reference.push(p.clone());
        }
        let snap = reference.snapshot();
        assert_eq!(snap.buffer.len(), reference.pending());
        assert_eq!(snap.emitted as usize, reference.emitted());

        // A shuffled snapshot buffer must restore identically: the
        // constructor re-sorts.
        let mut shuffled = snap.clone();
        shuffled.buffer.reverse();
        let mut restored = StreamingEstimator::from_snapshot(EstimatorConfig::default(), shuffled);
        assert_eq!(restored.pending(), reference.pending());
        assert_eq!(restored.emitted(), reference.emitted());
        assert_eq!(restored.high_water(), reference.high_water());

        let mut ref_tail = Vec::new();
        let mut res_tail = Vec::new();
        for p in trace.packets.iter().skip(cut) {
            ref_tail.extend(reference.push(p.clone()));
            res_tail.extend(restored.push(p.clone()));
        }
        ref_tail.extend(reference.finish());
        res_tail.extend(restored.finish());
        assert_eq!(ref_tail.len(), res_tail.len());
        for (a, b) in ref_tail.iter().zip(&res_tail) {
            assert_eq!(a.pid, b.pid);
            assert_eq!(a.hop_times_ms.len(), b.hop_times_ms.len());
            for (x, y) in a.hop_times_ms.iter().zip(&b.hop_times_ms) {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "restored estimate diverged for {:?}",
                    a.pid
                );
            }
        }
        assert_eq!(reference.emitted(), restored.emitted());
    }

    #[test]
    fn a_high_water_flush_solves_only_the_windows_it_emits() {
        // At the defaults the 192-packet buffer plans seven windows with
        // commit zones [0,36) [36,60) [60,84) [84,108) [108,132)
        // [132,156) [156,192); a high-water flush emits 96 packets, so
        // windows 0–3 run and 4–6, which commit only packets that stay
        // buffered, do not.
        let cfg = EstimatorConfig::default();
        let trace = run_simulation(&NetworkConfig::small(25, 312));
        let mut online = StreamingEstimator::new(cfg.clone());
        let hw = online.high_water();
        assert_eq!(hw, 192);
        assert!(trace.packets.len() > hw);
        for p in &trace.packets[..hw - 1] {
            assert!(online.push(p.clone()).is_empty(), "below high water");
        }
        // The buffer the next push flushes, as the flush sees it.
        let mut buffer = trace.packets[..hw].to_vec();
        buffer.sort_by_key(|p| (p.gen_time, p.pid));
        let view = TraceView::new(buffer);

        let flush = try_estimate_prefix(&view, &cfg, hw / 2).expect("valid config");
        assert_eq!(flush.stats.windows, 4);
        assert_eq!(flush.stats.chains, 1);
        // End of stream (`try_finish`) still solves every window.
        let finish = try_estimate_prefix(&view, &cfg, hw).expect("valid config");
        assert_eq!(finish.stats.windows, 7);
        assert_eq!(finish.stats.chains, 2);
        assert_eq!(finish.stats, {
            let mut whole = crate::estimator::try_estimate(&view, &cfg).expect("valid config");
            whole.stats.solve_time = finish.stats.solve_time;
            whole.stats
        });

        // The flush emits exactly the prefix estimate, which is the
        // whole-buffer estimate bit for bit.
        let emitted = online.push(trace.packets[hw - 1].clone());
        assert_eq!(emitted.len(), hw / 2);
        for (pi, r) in emitted.iter().enumerate() {
            assert_eq!(r.pid, view.packet(pi).pid);
            for (hop, t) in r.hop_times_ms.iter().enumerate() {
                if let TimeRef::Var(v) = view.time_ref(pi, hop) {
                    assert_eq!(flush.time_of(v).map(f64::to_bits), Some(t.to_bits()));
                    assert_eq!(finish.time_of(v).map(f64::to_bits), Some(t.to_bits()));
                }
            }
        }
    }

    #[test]
    fn prefix_estimates_match_the_whole_view_for_any_prefix_and_thread_count() {
        let trace = run_simulation(&NetworkConfig::small(16, 313));
        let mut packets = trace.packets.clone();
        packets.sort_by_key(|p| (p.gen_time, p.pid));
        let view = TraceView::new(packets);
        let n = view.num_packets();
        for threads in [1, 3] {
            let cfg = EstimatorConfig {
                threads,
                window_packets: 12,
                chain_windows: 3,
                ..EstimatorConfig::default()
            };
            let whole = crate::estimator::try_estimate(&view, &cfg).expect("valid config");
            let mut last_windows = 0;
            for commit in [0, 1, 5, n / 3, n / 2, n - 1, n, n + 10] {
                let prefix = try_estimate_prefix(&view, &cfg, commit).expect("valid config");
                assert!(
                    prefix.stats.windows >= last_windows,
                    "monotone in the prefix"
                );
                last_windows = prefix.stats.windows;
                for (v, hop) in view.vars().iter().enumerate() {
                    if hop.packet < commit {
                        assert_eq!(
                            prefix.time_of(v).map(f64::to_bits),
                            whole.time_of(v).map(f64::to_bits),
                            "threads {threads} commit {commit} var {v}"
                        );
                    }
                }
            }
            assert_eq!(last_windows, whole.stats.windows);
        }
    }

    #[test]
    fn try_push_surfaces_bad_config_instead_of_panicking() {
        let trace = run_simulation(&NetworkConfig::small(9, 304));
        let bad = EstimatorConfig {
            window_packets: 0,
            ..EstimatorConfig::default()
        };
        let mut online = StreamingEstimator::new(bad);
        let mut saw_error = false;
        for p in trace.packets.iter().take(12) {
            if online.try_push(p.clone()).is_err() {
                saw_error = true;
            }
        }
        assert!(saw_error, "the flush must report the bad config");
        assert!(online.try_finish().is_err());
        assert_eq!(online.emitted(), 0);
    }
}
