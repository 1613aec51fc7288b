//! Per-node time-bucketed sketch series behind `AGG` queries.
//!
//! [`AggStore`] keeps, for each forwarding node, a map from
//! fixed-granularity time buckets to [`DelaySketch`]es, fed
//! incrementally as results are emitted. Retention is bounded per node
//! (`retention_buckets`); pruned history stays queryable because the
//! result log retains the raw records and the sink backfills cold
//! windows from it ([`AggStore::retention_floor_ms`] tells the caller
//! where sketch coverage begins).
//!
//! Queries return *wider-granularity* buckets: `bucket_ms` must be a
//! positive multiple of the store granularity, the query window is
//! widened outward to `bucket_ms` alignment, and each output bucket is
//! the merge of the sketch buckets it covers — so a windowed quantile
//! carries exactly the per-sketch error bound, nothing more.
//!
//! All state snapshots to plain data ([`AggParts`]) and restores
//! bit-identically, which is what the sink's checkpoint layer needs.

use crate::sketch::{DelaySketch, SketchParts};
use std::collections::BTreeMap;

/// Configuration for an [`AggStore`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AggConfig {
    /// Width of one sketch bucket in milliseconds of trace time.
    pub granularity_ms: u64,
    /// Retained sketch buckets per node; older buckets are pruned
    /// oldest-first (the result log still has the raw records).
    pub retention_buckets: usize,
}

impl Default for AggConfig {
    fn default() -> Self {
        Self {
            granularity_ms: 100,
            retention_buckets: 4096,
        }
    }
}

/// One aggregated output bucket of an `AGG` query.
#[derive(Debug, Clone, PartialEq)]
pub struct AggBucket {
    /// Bucket start, ms of trace time (aligned to the query bucket
    /// width).
    pub start_ms: i64,
    /// Samples in the bucket.
    pub count: u64,
    /// Exact mean delay.
    pub mean: f64,
    /// Estimated median (see [`DelaySketch::quantile`] for the bound).
    pub p50: f64,
    /// Estimated 95th percentile.
    pub p95: f64,
    /// Estimated 99th percentile.
    pub p99: f64,
    /// Exact maximum delay.
    pub max: f64,
}

impl AggBucket {
    /// Renders a non-empty sketch into an output bucket. Returns
    /// `None` for empty sketches (empty buckets are omitted from
    /// replies).
    pub fn from_sketch(start_ms: i64, s: &DelaySketch) -> Option<Self> {
        let mean = s.mean()?;
        Some(Self {
            start_ms,
            count: s.count(),
            mean,
            p50: s.quantile(0.5)?,
            p95: s.quantile(0.95)?,
            p99: s.quantile(0.99)?,
            max: s.max()?,
        })
    }
}

/// Renders a map of per-bucket sketches (as returned by
/// [`AggStore::query_sketches`], possibly merged with a backfill map)
/// into ordered output buckets, omitting empty ones.
pub fn render_buckets(map: &BTreeMap<i64, DelaySketch>) -> Vec<AggBucket> {
    map.iter()
        .filter_map(|(&start, s)| AggBucket::from_sketch(start, s))
        .collect()
}

/// Snapshot of one node's series.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeSeriesParts {
    /// Node id.
    pub node: u16,
    /// First retained bucket key after pruning (granularity units),
    /// if any pruning has happened.
    pub pruned_through: Option<i64>,
    /// `(bucket key, sketch)` pairs in ascending key order.
    pub buckets: Vec<(i64, SketchParts)>,
}

/// Plain-data snapshot of an [`AggStore`], for checkpoint encoding.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AggParts {
    /// Granularity the snapshot was taken at. A restore under a
    /// different configured granularity discards the snapshot (the
    /// bucket keys would be meaningless) and starts fresh.
    pub granularity_ms: u64,
    /// Per-node series, ascending node id.
    pub nodes: Vec<NodeSeriesParts>,
}

#[derive(Debug, Clone, Default)]
struct NodeSeries {
    /// First bucket key (granularity units) that is still retained
    /// after pruning; records older than this are dropped on arrival
    /// (the result log covers them).
    pruned_through: Option<i64>,
    buckets: BTreeMap<i64, DelaySketch>,
}

/// Per-node time-bucketed sketches with bounded retention.
#[derive(Debug, Clone)]
pub struct AggStore {
    granularity_ms: u64,
    retention_buckets: usize,
    nodes: BTreeMap<u16, NodeSeries>,
}

impl Default for AggStore {
    fn default() -> Self {
        Self::new(AggConfig::default())
    }
}

impl AggStore {
    /// An empty store. Zero `granularity_ms` or `retention_buckets`
    /// are clamped to 1.
    pub fn new(cfg: AggConfig) -> Self {
        Self {
            granularity_ms: cfg.granularity_ms.max(1),
            retention_buckets: cfg.retention_buckets.max(1),
            nodes: BTreeMap::new(),
        }
    }

    /// The configured sketch granularity in ms.
    pub fn granularity_ms(&self) -> u64 {
        self.granularity_ms
    }

    /// Records one per-hop delay sample: node `node` forwarded a
    /// packet at trace time `t_ms` with sojourn `delay_ms`. Non-finite
    /// timestamps are ignored; records older than the node's pruned
    /// region are dropped (backfill owns that range).
    pub fn record(&mut self, node: u16, t_ms: f64, delay_ms: f64) {
        if !t_ms.is_finite() {
            return;
        }
        let key = (t_ms / self.granularity_ms as f64).floor() as i64;
        let series = self.nodes.entry(node).or_default();
        if series.pruned_through.is_some_and(|p| key < p) {
            return;
        }
        series.buckets.entry(key).or_default().record(delay_ms);
        while series.buckets.len() > self.retention_buckets {
            if let Some((&oldest, _)) = series.buckets.iter().next() {
                series.buckets.remove(&oldest);
                let floor = oldest + 1;
                series.pruned_through = Some(series.pruned_through.map_or(floor, |p| p.max(floor)));
            }
        }
    }

    /// Earliest trace time (ms) from which this node's sketches are
    /// complete. `None` means nothing has been pruned: the sketches
    /// cover all history the store ever saw.
    pub fn retention_floor_ms(&self, node: u16) -> Option<i64> {
        self.nodes
            .get(&node)?
            .pruned_through
            .map(|p| p.saturating_mul(self.granularity_ms as i64))
    }

    /// Total retained sketch buckets across all nodes.
    pub fn retained_buckets(&self) -> usize {
        self.nodes.values().map(|s| s.buckets.len()).sum()
    }

    /// Aggregates node `node` over `[start_ms, end_ms)` into
    /// `bucket_ms`-wide output buckets, returning the merged sketch
    /// per output bucket (keyed by bucket start ms). The window is
    /// widened outward to `bucket_ms` alignment. Fails unless
    /// `bucket_ms` is a positive multiple of the store granularity and
    /// the bounds are finite with `start_ms <= end_ms`.
    ///
    /// The result covers only the node's *retained* range; the caller
    /// merges a backfill map (built from the result log, see
    /// [`bucket_raw_records`]) for anything older than
    /// [`Self::retention_floor_ms`].
    pub fn query_sketches(
        &self,
        node: u16,
        start_ms: f64,
        end_ms: f64,
        bucket_ms: u64,
    ) -> Result<BTreeMap<i64, DelaySketch>, String> {
        let ratio = validate_window(self.granularity_ms, start_ms, end_ms, bucket_ms)?;
        let mut out = BTreeMap::new();
        let Some(series) = self.nodes.get(&node) else {
            return Ok(out);
        };
        let b0 = (start_ms / bucket_ms as f64).floor() as i64;
        let b1 = (end_ms / bucket_ms as f64).ceil() as i64;
        if b1 <= b0 {
            return Ok(out);
        }
        let lo = b0.saturating_mul(ratio);
        let hi = b1.saturating_mul(ratio);
        for (&key, sketch) in series.buckets.range(lo..hi) {
            let bucket_start = key.div_euclid(ratio).saturating_mul(bucket_ms as i64);
            out.entry(bucket_start)
                .or_insert_with(DelaySketch::new)
                .merge(sketch);
        }
        Ok(out)
    }

    /// Every node's series in ascending node order, as `(node,
    /// pruned_through, buckets)`: what [`AggStore::to_parts`] copies,
    /// borrowed, so a checkpoint can encode the store without first
    /// holding a second copy of it.
    pub fn series(
        &self,
    ) -> impl ExactSizeIterator<Item = (u16, Option<i64>, &BTreeMap<i64, DelaySketch>)> + '_ {
        self.nodes
            .iter()
            .map(|(&node, series)| (node, series.pruned_through, &series.buckets))
    }

    /// Snapshot for persistence, deterministic ordering throughout.
    pub fn to_parts(&self) -> AggParts {
        AggParts {
            granularity_ms: self.granularity_ms,
            nodes: self
                .series()
                .map(|(node, pruned_through, buckets)| NodeSeriesParts {
                    node,
                    pruned_through,
                    buckets: buckets.iter().map(|(&k, s)| (k, s.to_parts())).collect(),
                })
                .collect(),
        }
    }

    /// Rebuilds a store from a snapshot. If the snapshot was taken at
    /// a different granularity than `cfg` asks for, the snapshot is
    /// discarded (its bucket keys don't translate) and an empty store
    /// is returned — cold queries then backfill from the result log.
    pub fn from_parts(cfg: AggConfig, parts: &AggParts) -> Self {
        let mut store = Self::new(cfg);
        if parts.granularity_ms != store.granularity_ms {
            return store;
        }
        for np in &parts.nodes {
            let series = store.nodes.entry(np.node).or_default();
            series.pruned_through = np.pruned_through;
            for (k, sp) in &np.buckets {
                series.buckets.insert(*k, DelaySketch::from_parts(sp));
            }
        }
        store
    }
}

/// Validates an aggregation window against a granularity; returns
/// `bucket_ms / granularity_ms` on success. Shared by the store and
/// the sink's backfill path so both reject the same inputs.
pub fn validate_window(
    granularity_ms: u64,
    start_ms: f64,
    end_ms: f64,
    bucket_ms: u64,
) -> Result<i64, String> {
    if bucket_ms == 0 {
        return Err("bucket width must be positive".into());
    }
    if !bucket_ms.is_multiple_of(granularity_ms) {
        return Err(format!(
            "bucket width {bucket_ms} ms must be a multiple of the sketch granularity \
             {granularity_ms} ms"
        ));
    }
    if !start_ms.is_finite() || !end_ms.is_finite() {
        return Err("window bounds must be finite".into());
    }
    if start_ms > end_ms {
        return Err(format!("reversed window: start {start_ms} > end {end_ms}"));
    }
    Ok((bucket_ms / granularity_ms) as i64)
}

/// Buckets raw `(t_ms, delay_ms)` records (already filtered to one
/// node) into `bucket_ms`-wide sketches keyed by bucket start ms —
/// the backfill counterpart of [`AggStore::query_sketches`]. Records
/// outside the *widened* `[start_ms, end_ms)` window are skipped.
pub fn bucket_raw_records(
    records: impl IntoIterator<Item = (f64, f64)>,
    start_ms: f64,
    end_ms: f64,
    bucket_ms: u64,
) -> Result<BTreeMap<i64, DelaySketch>, String> {
    // Granularity 1: any positive bucket width is valid here.
    validate_window(1, start_ms, end_ms, bucket_ms)?;
    let b0 = (start_ms / bucket_ms as f64).floor() as i64;
    let b1 = (end_ms / bucket_ms as f64).ceil() as i64;
    let mut out: BTreeMap<i64, DelaySketch> = BTreeMap::new();
    for (t, delay) in records {
        if !t.is_finite() {
            continue;
        }
        let b = (t / bucket_ms as f64).floor() as i64;
        if b < b0 || b >= b1 {
            continue;
        }
        out.entry(b.saturating_mul(bucket_ms as i64))
            .or_default()
            .record(delay);
    }
    Ok(out)
}

/// Folds `from` into `into` bucket-by-bucket (used to combine sketch
/// coverage with result-log backfill).
pub fn merge_bucket_maps(into: &mut BTreeMap<i64, DelaySketch>, from: BTreeMap<i64, DelaySketch>) {
    for (k, s) in from {
        into.entry(k).or_default().merge(&s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(granularity_ms: u64, retention_buckets: usize) -> AggConfig {
        AggConfig {
            granularity_ms,
            retention_buckets,
        }
    }

    #[test]
    fn records_aggregate_into_aligned_buckets() {
        let mut store = AggStore::new(cfg(100, 1024));
        // Two sketch buckets inside one 200ms output bucket, one in
        // the next.
        store.record(3, 10.0, 1.0);
        store.record(3, 150.0, 3.0);
        store.record(3, 250.0, 5.0);
        let m = store.query_sketches(3, 0.0, 400.0, 200).unwrap();
        assert_eq!(m.len(), 2);
        assert_eq!(m[&0].count(), 2);
        assert_eq!(m[&200].count(), 1);
        let buckets = render_buckets(&m);
        assert_eq!(buckets[0].start_ms, 0);
        assert_eq!(buckets[0].count, 2);
        assert_eq!(buckets[0].mean, 2.0);
        assert_eq!(buckets[1].max, 5.0);
    }

    #[test]
    fn window_is_widened_to_bucket_alignment() {
        let mut store = AggStore::new(cfg(100, 1024));
        store.record(1, 10.0, 1.0);
        store.record(1, 390.0, 2.0);
        // Query [150, 250) with 200ms buckets widens to [0, 400).
        let m = store.query_sketches(1, 150.0, 250.0, 200).unwrap();
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn invalid_windows_are_rejected() {
        let store = AggStore::new(cfg(100, 1024));
        assert!(store.query_sketches(1, 0.0, 100.0, 0).is_err());
        assert!(store.query_sketches(1, 0.0, 100.0, 150).is_err());
        assert!(store.query_sketches(1, 100.0, 0.0, 200).is_err());
        assert!(store.query_sketches(1, f64::NAN, 100.0, 200).is_err());
        assert!(store.query_sketches(1, 0.0, f64::INFINITY, 200).is_err());
        // Empty-but-valid window: clean empty result.
        assert!(store.query_sketches(1, 50.0, 50.0, 100).is_ok());
    }

    #[test]
    fn retention_prunes_oldest_and_reports_floor() {
        let mut store = AggStore::new(cfg(100, 2));
        store.record(9, 50.0, 1.0); // bucket 0
        store.record(9, 150.0, 1.0); // bucket 1
        assert_eq!(store.retention_floor_ms(9), None);
        store.record(9, 250.0, 1.0); // bucket 2 → bucket 0 pruned
        assert_eq!(store.retention_floor_ms(9), Some(100));
        // A late record for the pruned region is dropped, not
        // resurrected (backfill owns that range).
        store.record(9, 10.0, 7.0);
        let m = store.query_sketches(9, 0.0, 100.0, 100).unwrap();
        assert!(m.is_empty());
    }

    #[test]
    fn snapshot_restore_is_bit_identical() {
        let mut store = AggStore::new(cfg(100, 3));
        for i in 0..20 {
            store.record(4, i as f64 * 60.0, 0.37 * i as f64);
            store.record(7, i as f64 * 90.0, 1.3 / (i + 1) as f64);
        }
        let parts = store.to_parts();
        let back = AggStore::from_parts(cfg(100, 3), &parts);
        assert_eq!(back.to_parts(), parts);
        assert_eq!(back.retention_floor_ms(4), store.retention_floor_ms(4));
        let a = store.query_sketches(4, 0.0, 2000.0, 200).unwrap();
        let b = back.query_sketches(4, 0.0, 2000.0, 200).unwrap();
        assert_eq!(render_buckets(&a), render_buckets(&b));
        for (x, y) in render_buckets(&a).iter().zip(render_buckets(&b).iter()) {
            assert_eq!(x.mean.to_bits(), y.mean.to_bits());
            assert_eq!(x.p99.to_bits(), y.p99.to_bits());
        }
    }

    #[test]
    fn granularity_mismatch_discards_snapshot() {
        let mut store = AggStore::new(cfg(100, 8));
        store.record(1, 50.0, 1.0);
        let parts = store.to_parts();
        let back = AggStore::from_parts(cfg(50, 8), &parts);
        assert_eq!(back.retained_buckets(), 0);
    }

    #[test]
    fn backfill_buckets_match_incremental_feeding() {
        let records: Vec<(f64, f64)> = (0..50)
            .map(|i| (i as f64 * 37.0, (i % 7) as f64 + 0.5))
            .collect();
        let mut store = AggStore::new(cfg(100, 4096));
        for &(t, d) in &records {
            store.record(2, t, d);
        }
        let live = store.query_sketches(2, 0.0, 2000.0, 200).unwrap();
        let cold = bucket_raw_records(records, 0.0, 2000.0, 200).unwrap();
        assert_eq!(render_buckets(&live), render_buckets(&cold));
    }

    #[test]
    fn merge_bucket_maps_combines_coverage() {
        let mut a = bucket_raw_records([(10.0, 1.0)], 0.0, 400.0, 200).unwrap();
        let b = bucket_raw_records([(20.0, 3.0), (210.0, 5.0)], 0.0, 400.0, 200).unwrap();
        merge_bucket_maps(&mut a, b);
        assert_eq!(a[&0].count(), 2);
        assert_eq!(a[&200].count(), 1);
    }
}
