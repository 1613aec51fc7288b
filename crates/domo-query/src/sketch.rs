//! Log-bucketed delay histogram with a documented quantile error bound.
//!
//! [`DelaySketch`] is the downsampled representation behind `AGG`
//! queries: positive delays land in geometric buckets with ratio
//! `γ = 10^(1/20)` (20 buckets per decade), non-positive delays share a
//! single `zeros` bucket, and exact `count`/`sum`/`min`/`max` ride
//! alongside so mean and extrema are never approximated. A quantile is
//! answered by walking the buckets to the requested rank and returning
//! the geometric midpoint of the bucket it lands in, clamped to the
//! exact `[min, max]` envelope.
//!
//! # Error bound
//!
//! A positive value `v` in bucket `i` satisfies `γ^i ≤ v < γ^(i+1)`,
//! and the bucket estimates `γ^(i+0.5)`. The worst relative error is
//! therefore `√γ − 1 = 10^(1/40) − 1 ≈ 5.93%` (at the bucket's lower
//! edge; the upper edge errs by `1 − 1/√γ ≈ 5.6%`). Because the exact
//! rank-`r` order statistic lives in the very bucket the walk stops in,
//! quantile estimates inherit the same per-value bound: they are within
//! 5.93% relative error of the exact quantile computed with the same
//! rank rule (`r = ⌈q·n⌉`). [`DelaySketch::relative_error_bound`]
//! exposes the constant so tests and docs cannot drift.

/// Buckets per decade. `γ = 10^(1/RESOLUTION)`.
const RESOLUTION: f64 = 20.0;

/// Log-bucketed histogram of delay samples (milliseconds, but the
/// sketch is unit-agnostic) with exact count/sum/min/max.
///
/// Merging two sketches gives exactly the sketch of the concatenated
/// sample streams (bucket counts and integer fields add; `sum` adds in
/// `f64`, so merge order affects `sum` only by float rounding).
///
/// Most sketches an [`AggStore`](crate::AggStore) holds see one sample,
/// so the empty and one-sample cases are stored inline (the value is 16
/// bytes) and only a sketch with more to say owns a histogram. The
/// representation is canonical — a histogram is never kept where the
/// inline forms could say the same — so equality stays semantic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DelaySketch(Repr);

#[derive(Debug, Clone, Default, PartialEq)]
enum Repr {
    #[default]
    Empty,
    /// One recorded sample: exactly what `record` leaves in an empty
    /// histogram.
    One(f64),
    /// Anything else, as the snapshot type itself: its `buckets` are the
    /// histogram, ascending by index.
    Many(Box<SketchParts>),
}

/// Plain-data snapshot of a [`DelaySketch`], for checkpoint encoding.
///
/// `from_parts(to_parts())` reproduces the sketch bit-identically
/// (floats are expected to be persisted via `to_bits`).
#[derive(Debug, Clone, PartialEq)]
pub struct SketchParts {
    /// Total recorded samples.
    pub count: u64,
    /// Samples with value ≤ 0 (kept out of the log buckets).
    pub zeros: u64,
    /// Exact sum of all samples.
    pub sum: f64,
    /// Exact minimum (`+inf` when empty).
    pub min: f64,
    /// Exact maximum (`-inf` when empty).
    pub max: f64,
    /// `(bucket index, count)` pairs in ascending index order.
    pub buckets: Vec<(i32, u64)>,
}

impl SketchParts {
    /// Renders the parts as one ASCII line for the query protocol's
    /// `AGG … PARTS` replies: space-separated
    /// `count zeros <sum> <min> <max> idx:n idx:n …`, with every float
    /// spelled as its `to_bits` hex — so
    /// `decode_text(encode_text())` round-trips bit-identically, the
    /// same contract the checkpoint encoding keeps. No float ever goes
    /// through decimal formatting.
    pub fn encode_text(&self) -> String {
        use std::fmt::Write as _;
        let mut s = format!(
            "{} {} {:016x} {:016x} {:016x}",
            self.count,
            self.zeros,
            self.sum.to_bits(),
            self.min.to_bits(),
            self.max.to_bits(),
        );
        for (idx, n) in &self.buckets {
            let _ = write!(s, " {idx}:{n}");
        }
        s
    }

    /// Parses [`SketchParts::encode_text`] output. `None` on any
    /// structural defect (wrong arity, unparsable field, unsorted or
    /// duplicate bucket indices) — a scatter-gather merger treats that
    /// as a malformed member reply, never a panic.
    pub fn decode_text(s: &str) -> Option<SketchParts> {
        let mut toks = s.split_whitespace();
        let count = toks.next()?.parse::<u64>().ok()?;
        let zeros = toks.next()?.parse::<u64>().ok()?;
        let mut float = || -> Option<f64> {
            let tok = toks.next()?;
            if tok.len() != 16 {
                return None;
            }
            Some(f64::from_bits(u64::from_str_radix(tok, 16).ok()?))
        };
        let sum = float()?;
        let min = float()?;
        let max = float()?;
        let mut buckets: Vec<(i32, u64)> = Vec::new();
        for tok in toks {
            let (idx, n) = tok.split_once(':')?;
            let idx = idx.parse::<i32>().ok()?;
            let n = n.parse::<u64>().ok()?;
            if buckets.last().is_some_and(|&(prev, _)| prev >= idx) {
                return None;
            }
            buckets.push((idx, n));
        }
        Some(SketchParts {
            count,
            zeros,
            sum,
            min,
            max,
            buckets,
        })
    }
}

impl SketchParts {
    /// The snapshot of an empty sketch.
    fn empty() -> Self {
        Self {
            count: 0,
            zeros: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            buckets: Vec::new(),
        }
    }

    /// The snapshot of a sketch holding the one sample `v`: what
    /// `record(v)` leaves in an empty one, with the bucket list sized
    /// exactly (a checkpoint builds one of these per bucket of the
    /// store, all alive at once).
    fn one(v: f64) -> Self {
        let positive = v > 0.0;
        Self {
            count: 1,
            zeros: u64::from(!positive),
            sum: 0.0 + v,
            min: f64::INFINITY.min(v),
            max: f64::NEG_INFINITY.max(v),
            buckets: if positive {
                vec![(DelaySketch::bucket_index(v), 1)]
            } else {
                Vec::new()
            },
        }
    }

    fn record(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        if v <= 0.0 {
            self.zeros += 1;
        } else {
            self.add_to_bucket(DelaySketch::bucket_index(v), 1);
        }
    }

    fn add_to_bucket(&mut self, idx: i32, n: u64) {
        match self.buckets.binary_search_by_key(&idx, |&(i, _)| i) {
            Ok(at) => self.buckets[at].1 += n,
            Err(at) => self.buckets.insert(at, (idx, n)),
        }
    }

    /// Whether the fields are bit for bit those of `other`. The derived
    /// `PartialEq` would call `0.0` and `-0.0` equal and `NaN` unequal
    /// to itself; the inline forms may stand in only for exactly what
    /// they would snapshot to.
    fn same_bits(&self, other: &Self) -> bool {
        self.count == other.count
            && self.zeros == other.zeros
            && self.sum.to_bits() == other.sum.to_bits()
            && self.min.to_bits() == other.min.to_bits()
            && self.max.to_bits() == other.max.to_bits()
            && self.buckets == other.buckets
    }
}

impl Repr {
    /// The canonical representation of `parts`.
    fn of(parts: Box<SketchParts>) -> Self {
        if parts.same_bits(&SketchParts::empty()) {
            Repr::Empty
        } else if parts.count == 1 && parts.same_bits(&SketchParts::one(parts.max)) {
            Repr::One(parts.max)
        } else {
            Repr::Many(parts)
        }
    }
}

impl DelaySketch {
    /// An empty sketch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Worst-case relative error of a quantile estimate vs the exact
    /// order statistic on positive data: `√γ − 1 ≈ 0.0593`.
    pub fn relative_error_bound() -> f64 {
        10f64.powf(0.5 / RESOLUTION) - 1.0
    }

    /// Bucket index holding a positive value: `⌊log10(v)·20⌋`.
    fn bucket_index(v: f64) -> i32 {
        (v.log10() * RESOLUTION).floor() as i32
    }

    /// Geometric midpoint of bucket `idx`: `γ^(idx+0.5)`.
    fn bucket_estimate(idx: i32) -> f64 {
        10f64.powf((idx as f64 + 0.5) / RESOLUTION)
    }

    /// Records one sample. NaN samples are ignored (they carry no
    /// ordering information and would poison min/max); values ≤ 0 go
    /// to the shared zeros bucket.
    pub fn record(&mut self, v: f64) {
        if v.is_nan() {
            return;
        }
        match &mut self.0 {
            Repr::Empty => self.0 = Repr::One(v),
            Repr::One(first) => {
                let mut parts = Box::new(SketchParts::one(*first));
                parts.record(v);
                self.0 = Repr::Many(parts);
            }
            Repr::Many(parts) => parts.record(v),
        }
    }

    /// Total recorded samples.
    pub fn count(&self) -> u64 {
        match &self.0 {
            Repr::Empty => 0,
            Repr::One(_) => 1,
            Repr::Many(parts) => parts.count,
        }
    }

    /// Exact sum of recorded samples.
    pub fn sum(&self) -> f64 {
        match &self.0 {
            Repr::Empty => 0.0,
            Repr::One(v) => 0.0 + v,
            Repr::Many(parts) => parts.sum,
        }
    }

    /// Exact mean, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        let count = self.count();
        (count > 0).then(|| self.sum() / count as f64)
    }

    /// Exact minimum, or `None` when empty.
    pub fn min(&self) -> Option<f64> {
        match &self.0 {
            Repr::Empty => None,
            Repr::One(v) => Some(*v),
            Repr::Many(parts) => (parts.count > 0).then_some(parts.min),
        }
    }

    /// Exact maximum, or `None` when empty.
    pub fn max(&self) -> Option<f64> {
        match &self.0 {
            Repr::Empty => None,
            Repr::One(v) => Some(*v),
            Repr::Many(parts) => (parts.count > 0).then_some(parts.max),
        }
    }

    /// Estimated `q`-quantile (`q` clamped to `[0, 1]`), or `None`
    /// when empty.
    ///
    /// Uses the rank rule `r = ⌈q·count⌉` (clamped to at least 1) and
    /// returns the geometric midpoint of the bucket containing the
    /// rank-`r` smallest sample, clamped to the exact `[min, max]`
    /// envelope. Ranks landing in the zeros bucket estimate `0`,
    /// clamped likewise.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let parts = match &self.0 {
            Repr::Empty => return None,
            // Every rank is the one sample, and the envelope is the
            // sample itself.
            Repr::One(v) if *v > 0.0 => return Some(*v),
            Repr::One(v) => return Some(0f64.clamp(*v, *v)),
            Repr::Many(parts) => parts,
        };
        if parts.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * parts.count as f64).ceil() as u64).clamp(1, parts.count);
        let mut seen = parts.zeros;
        if rank <= seen {
            return Some(0f64.clamp(parts.min, parts.max));
        }
        for &(idx, n) in &parts.buckets {
            seen += n;
            if rank <= seen {
                return Some(Self::bucket_estimate(idx).clamp(parts.min, parts.max));
            }
        }
        // Unreachable when the bucket counts are consistent with
        // `count`, but a plain fallback beats a panic in the sink.
        Some(parts.max)
    }

    /// Folds `other` into `self`. Bucket counts and integer fields
    /// add; `min`/`max` combine; `sum` adds in `f64`.
    pub fn merge(&mut self, other: &DelaySketch) {
        let theirs = match &other.0 {
            Repr::Empty => return,
            // A one-sample sketch adds exactly what recording it adds.
            Repr::One(v) => return self.record(*v),
            Repr::Many(theirs) => theirs,
        };
        let mut ours = match std::mem::take(&mut self.0) {
            Repr::Empty => Box::new(SketchParts::empty()),
            Repr::One(v) => Box::new(SketchParts::one(v)),
            Repr::Many(ours) => ours,
        };
        ours.count += theirs.count;
        ours.zeros += theirs.zeros;
        ours.sum += theirs.sum;
        ours.min = ours.min.min(theirs.min);
        ours.max = ours.max.max(theirs.max);
        for &(idx, n) in &theirs.buckets {
            ours.add_to_bucket(idx, n);
        }
        self.0 = Repr::of(ours);
    }

    /// Length of the bucket list [`DelaySketch::to_parts`] returns,
    /// without building it (an encoder sizing its buffer needs only
    /// this).
    pub fn parts_bucket_count(&self) -> usize {
        match &self.0 {
            Repr::Empty => 0,
            Repr::One(v) => usize::from(*v > 0.0),
            Repr::Many(parts) => parts.buckets.len(),
        }
    }

    /// Snapshot for persistence (buckets in ascending index order, so
    /// the encoding is deterministic).
    pub fn to_parts(&self) -> SketchParts {
        match &self.0 {
            Repr::Empty => SketchParts::empty(),
            Repr::One(v) => SketchParts::one(*v),
            Repr::Many(parts) => (**parts).clone(),
        }
    }

    /// Rebuilds a sketch from a snapshot, bit-identically.
    pub fn from_parts(parts: &SketchParts) -> Self {
        let mut parts = Box::new(parts.clone());
        if !parts.buckets.windows(2).all(|w| w[0].0 < w[1].0) {
            // Not a snapshot this type wrote; index it the way a map
            // would (ascending, the last count of a repeated index).
            let by_index: std::collections::BTreeMap<i32, u64> =
                parts.buckets.iter().copied().collect();
            parts.buckets = by_index.into_iter().collect();
        }
        Self(Repr::of(parts))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic xorshift-style generator (no external crates).
    struct Rng(u64);
    impl Rng {
        fn next_f64(&mut self) -> f64 {
            // splitmix64 step.
            self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z = z ^ (z >> 31);
            (z >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    fn exact_quantile(sorted: &[f64], q: f64) -> f64 {
        let n = sorted.len() as f64;
        let rank = ((q * n).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    /// The histogram the sketch replaced: every sketch, however small,
    /// as one map-backed struct. The compact representation must be
    /// indistinguishable from it through the public surface.
    #[derive(Clone)]
    struct Reference {
        count: u64,
        zeros: u64,
        sum: f64,
        min: f64,
        max: f64,
        buckets: std::collections::BTreeMap<i32, u64>,
    }

    impl Reference {
        fn new() -> Self {
            Self {
                count: 0,
                zeros: 0,
                sum: 0.0,
                min: f64::INFINITY,
                max: f64::NEG_INFINITY,
                buckets: Default::default(),
            }
        }

        fn record(&mut self, v: f64) {
            if v.is_nan() {
                return;
            }
            self.count += 1;
            self.sum += v;
            self.min = self.min.min(v);
            self.max = self.max.max(v);
            if v <= 0.0 {
                self.zeros += 1;
            } else {
                *self
                    .buckets
                    .entry(DelaySketch::bucket_index(v))
                    .or_insert(0) += 1;
            }
        }

        fn merge(&mut self, other: &Reference) {
            self.count += other.count;
            self.zeros += other.zeros;
            self.sum += other.sum;
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
            for (&idx, &n) in &other.buckets {
                *self.buckets.entry(idx).or_insert(0) += n;
            }
        }

        fn to_parts(&self) -> SketchParts {
            SketchParts {
                count: self.count,
                zeros: self.zeros,
                sum: self.sum,
                min: self.min,
                max: self.max,
                buckets: self.buckets.iter().map(|(&i, &n)| (i, n)).collect(),
            }
        }
    }

    fn assert_same(sketch: &DelaySketch, reference: &Reference, what: &str) {
        let (got, want) = (sketch.to_parts(), reference.to_parts());
        assert!(got.same_bits(&want), "{what}: {got:?} vs {want:?}");
        assert_eq!(got.encode_text(), want.encode_text(), "{what}");
        // The canonical form of those parts is the form the sketch is in
        // (compared by bits: an ∞ − ∞ sum is NaN and unequal to itself).
        let restored = DelaySketch::from_parts(&want);
        assert!(restored.to_parts().same_bits(&want), "{what}");
        assert_eq!(
            std::mem::discriminant(&restored.0),
            std::mem::discriminant(&sketch.0),
            "{what}"
        );
        match &sketch.0 {
            Repr::Empty => assert_eq!(want.count, 0, "{what}"),
            Repr::One(_) => assert_eq!(want.count, 1, "{what}"),
            Repr::Many(_) => assert!(want.count > 1, "{what}: histogram for {want:?}"),
        }
    }

    #[test]
    fn compact_forms_match_the_map_backed_histogram_bit_for_bit() {
        assert_eq!(std::mem::size_of::<DelaySketch>(), 16);
        let edge_values = [
            0.0,
            -0.0,
            -3.5,
            1.0,
            0.999_999,
            1e-300,
            1e300,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        let mut rng = Rng(2024);
        for round in 0..400 {
            // A pool of small sketches (0, 1, 2 … samples each), folded
            // together in a random order.
            let mut pool: Vec<(DelaySketch, Reference)> = Vec::new();
            for _ in 0..1 + (rng.next_f64() * 5.0) as usize {
                let (mut s, mut r) = (DelaySketch::new(), Reference::new());
                for _ in 0..(rng.next_f64() * 3.5) as usize {
                    let v = if rng.next_f64() < 0.3 {
                        edge_values[(rng.next_f64() * edge_values.len() as f64) as usize]
                    } else {
                        rng.next_f64() * 40.0 - 2.0
                    };
                    s.record(v);
                    r.record(v);
                    assert_same(&s, &r, &format!("round {round} record {v}"));
                }
                pool.push((s, r));
            }
            let (mut acc_s, mut acc_r) = (DelaySketch::new(), Reference::new());
            while !pool.is_empty() {
                let (s, r) = pool.swap_remove((rng.next_f64() * pool.len() as f64) as usize);
                acc_s.merge(&s);
                acc_r.merge(&r);
                assert_same(&acc_s, &acc_r, &format!("round {round} merge"));
                assert_eq!(acc_s.count(), acc_r.count);
                assert_eq!(acc_s.sum().to_bits(), acc_r.sum.to_bits());
                assert_eq!(acc_s.min(), (acc_r.count > 0).then_some(acc_r.min));
                assert_eq!(acc_s.max(), (acc_r.count > 0).then_some(acc_r.max));
                let via_parts = DelaySketch(Repr::Many(Box::new(acc_r.to_parts())));
                for q in [0.0, 0.3, 0.5, 0.99, 1.0] {
                    assert_eq!(
                        acc_s.quantile(q).map(f64::to_bits),
                        via_parts.quantile(q).map(f64::to_bits),
                        "round {round} q {q}"
                    );
                }
            }
        }
    }

    #[test]
    fn foreign_parts_survive_a_round_trip_untouched() {
        // What the derived `Default` of the map-backed struct used to
        // produce and older checkpoints therefore hold: extrema that
        // started at 0.0. No inline form says that, so it stays a
        // histogram and snapshots back bit for bit.
        let legacy = SketchParts {
            count: 1,
            zeros: 0,
            sum: 7.5,
            min: 0.0,
            max: 7.5,
            buckets: vec![(17, 1)],
        };
        let sketch = DelaySketch::from_parts(&legacy);
        assert!(matches!(sketch.0, Repr::Many(_)));
        assert!(sketch.to_parts().same_bits(&legacy));
        assert_ne!(sketch, {
            let mut fresh = DelaySketch::new();
            fresh.record(7.5);
            fresh
        });
        // Buckets out of order or repeated are indexed as a map would.
        let scrambled = SketchParts {
            count: 6,
            buckets: vec![(5, 1), (2, 3), (5, 2)],
            ..legacy
        };
        assert_eq!(
            DelaySketch::from_parts(&scrambled).to_parts().buckets,
            vec![(2, 3), (5, 2)]
        );
    }

    #[test]
    fn empty_sketch_has_no_stats() {
        let s = DelaySketch::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), None);
        assert_eq!(s.quantile(0.5), None);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn every_sample_lands_in_exactly_one_bucket() {
        // Records values straddling bucket boundaries (powers of
        // γ = 10^(1/20)) exactly, slightly below, and slightly above,
        // plus zeros and negatives: the invariant is that zeros +
        // Σ bucket counts == count, i.e. each record incremented
        // exactly one bucket — including values that sit exactly on a
        // boundary.
        let mut s = DelaySketch::new();
        let mut n = 0u64;
        for k in -40..40i32 {
            let edge = 10f64.powf(k as f64 / 20.0);
            for v in [edge, edge * (1.0 - 1e-12), edge * (1.0 + 1e-12)] {
                s.record(v);
                n += 1;
            }
        }
        for v in [0.0, -1.0, -0.001] {
            s.record(v);
            n += 1;
        }
        let parts = s.to_parts();
        let bucketed: u64 = parts.buckets.iter().map(|&(_, c)| c).sum();
        assert_eq!(parts.count, n);
        assert_eq!(
            parts.zeros + bucketed,
            n,
            "a sample landed in zero or two buckets"
        );
        // A boundary value must not be double-counted even against its
        // immediate neighbours: per-edge, the three samples around one
        // edge contribute exactly three bucket increments total.
        assert_eq!(parts.zeros, 3);
    }

    #[test]
    fn nan_samples_are_ignored() {
        let mut s = DelaySketch::new();
        s.record(f64::NAN);
        assert_eq!(s.count(), 0);
        s.record(2.0);
        assert_eq!(s.count(), 1);
        assert_eq!(s.max(), Some(2.0));
    }

    #[test]
    fn merge_is_associative_and_matches_concatenation() {
        // Integer-valued samples keep `sum` exactly representable, so
        // associativity holds bit-for-bit on every field.
        let mut rng = Rng(42);
        let make = |rng: &mut Rng, n: usize| -> (DelaySketch, Vec<f64>) {
            let mut s = DelaySketch::new();
            let mut vs = Vec::new();
            for _ in 0..n {
                let v = (rng.next_f64() * 1000.0).floor();
                s.record(v);
                vs.push(v);
            }
            (s, vs)
        };
        let (a, va) = make(&mut rng, 137);
        let (b, vb) = make(&mut rng, 251);
        let (c, vc) = make(&mut rng, 89);

        // (a ⊕ b) ⊕ c
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        // a ⊕ (b ⊕ c)
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(left, right, "merge must be associative");

        // ...and equal to recording the concatenated stream.
        let mut all = DelaySketch::new();
        for v in va.iter().chain(&vb).chain(&vc) {
            all.record(*v);
        }
        assert_eq!(left.to_parts().buckets, all.to_parts().buckets);
        assert_eq!(left.count(), all.count());
        assert_eq!(left.min(), all.min());
        assert_eq!(left.max(), all.max());
        assert_eq!(left.sum().to_bits(), all.sum().to_bits());
    }

    #[test]
    fn quantiles_within_documented_relative_error_on_random_data() {
        let bound = DelaySketch::relative_error_bound();
        assert!(bound < 0.062, "documented bound drifted: {bound}");
        for seed in 1..=5u64 {
            let mut rng = Rng(seed);
            let mut s = DelaySketch::new();
            let mut vs = Vec::new();
            for _ in 0..2000 {
                // Log-uniform over ~5 decades: exercises many buckets.
                let v = 10f64.powf(rng.next_f64() * 5.0 - 2.0);
                s.record(v);
                vs.push(v);
            }
            vs.sort_by(f64::total_cmp);
            for q in [0.0, 0.01, 0.25, 0.5, 0.75, 0.95, 0.99, 1.0] {
                let exact = exact_quantile(&vs, q);
                let est = s.quantile(q).unwrap();
                let rel = (est - exact).abs() / exact;
                assert!(
                    rel <= bound + 1e-12,
                    "seed {seed} q {q}: est {est} vs exact {exact} (rel {rel:.4} > {bound:.4})"
                );
            }
        }
    }

    #[test]
    fn quantile_clamps_to_exact_extrema() {
        let mut s = DelaySketch::new();
        for v in [5.0, 5.0, 5.0] {
            s.record(v);
        }
        // A single-value distribution: every quantile is exactly 5.
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(s.quantile(q), Some(5.0));
        }
    }

    #[test]
    fn zeros_bucket_quantiles() {
        let mut s = DelaySketch::new();
        for v in [0.0, 0.0, 0.0, 10.0] {
            s.record(v);
        }
        assert_eq!(s.quantile(0.5), Some(0.0));
        let p100 = s.quantile(1.0).unwrap();
        assert!((p100 - 10.0).abs() / 10.0 <= DelaySketch::relative_error_bound());
    }

    #[test]
    fn parts_round_trip_bit_identically() {
        let mut rng = Rng(7);
        let mut s = DelaySketch::new();
        for _ in 0..500 {
            s.record(rng.next_f64() * 100.0 - 1.0);
        }
        let parts = s.to_parts();
        let back = DelaySketch::from_parts(&parts);
        assert_eq!(s, back);
        assert_eq!(s.sum().to_bits(), back.sum().to_bits());
        for q in [0.1, 0.5, 0.9, 0.99] {
            assert_eq!(
                s.quantile(q).unwrap().to_bits(),
                back.quantile(q).unwrap().to_bits()
            );
        }
    }

    #[test]
    fn text_codec_round_trips_bit_identically() {
        let mut rng = Rng(11);
        let mut s = DelaySketch::new();
        for _ in 0..300 {
            s.record(rng.next_f64() * 50.0 - 0.5);
        }
        let parts = s.to_parts();
        let line = parts.encode_text();
        assert!(line.is_ascii());
        assert!(!line.contains('\n'));
        let back = SketchParts::decode_text(&line).unwrap();
        assert_eq!(back, parts);
        assert_eq!(DelaySketch::from_parts(&back), s);
        // The empty sketch (±inf min/max) survives the trip too.
        let empty = DelaySketch::new().to_parts();
        let back = SketchParts::decode_text(&empty.encode_text()).unwrap();
        assert_eq!(back, empty);
        assert_eq!(back.min.to_bits(), f64::INFINITY.to_bits());
    }

    #[test]
    fn text_codec_rejects_malformed_lines() {
        for bad in [
            "",
            "1",
            "1 2 3",
            "1 2 zzzz zzzz zzzz",
            "1 2 0000000000000000 0000000000000000",
            "1 2 0000000000000000 0000000000000000 0000000000000000 nonsense",
            "1 2 0000000000000000 0000000000000000 0000000000000000 5:1 4:2",
            "1 2 0000000000000000 0000000000000000 0000000000000000 5:1 5:2",
        ] {
            assert!(SketchParts::decode_text(bad).is_none(), "accepted {bad:?}");
        }
    }
}
