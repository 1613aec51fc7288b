//! Sample summaries: the percentile rule every timing is reported by,
//! and the quartile spread `--repeat` judges steadiness with.

/// Percentile ladder a tail is picked from, lowest first.
const LADDER: [f64; 6] = [75.0, 90.0, 95.0, 99.0, 99.9, 99.99];

/// Sorts a sample ascending (NaN-free by construction: every sample is
/// a measured duration or an absolute error).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile of an ascending sample; 0 for an empty one.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Arithmetic mean; 0 for an empty sample.
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Median of an unsorted sample.
pub fn median(v: &[f64]) -> f64 {
    percentile(&sorted(v.to_vec()), 50.0)
}

/// The highest ladder percentile with at least ten samples beyond it,
/// or `None` when the sample supports nothing above the median
/// (fewer than 40 samples: p75 of 40 leaves exactly ten beyond).
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .rev()
        .copied()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

/// Median, supported tail and sample count of one timing sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The percentile `tail` is taken at (50 when nothing higher is
    /// supported).
    pub tail_pct: f64,
    /// Value at `tail_pct`.
    pub tail: f64,
}

/// Summarises a sample by the rule above, never reporting a percentile
/// above `cap` (the gated percentile of the metric, e.g. 99).
pub fn summarize(sample: Vec<f64>, cap: f64) -> Summary {
    let s = sorted(sample);
    let tail_pct = highest_supported_percentile(s.len())
        .map(|p| p.min(cap))
        .unwrap_or(50.0);
    Summary {
        n: s.len(),
        p50: percentile(&s, 50.0),
        tail_pct,
        tail: percentile(&s, tail_pct),
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the exclusive method), so the spreads printed here are the ones the
/// acceptance check computes. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let s = sorted(values.to_vec());
    let n = s.len();
    if n < 2 {
        return None;
    }
    let q = |k: usize| {
        // position k*(n+1)/4, 1-based, linearly interpolated
        let pos = k as f64 * (n as f64 + 1.0) / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * frac
    };
    Some((q(1), q(2), q(3)))
}

/// Interquartile distance as a share of the median.
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let (q1, q2, q3) = quartiles(values)?;
    if q2 == 0.0 {
        return None;
    }
    Some((q3 - q1) / q2.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(39), None);
        assert_eq!(highest_supported_percentile(40), Some(75.0));
        assert_eq!(highest_supported_percentile(99), Some(75.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(200), Some(95.0));
        assert_eq!(highest_supported_percentile(999), Some(95.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert_eq!(highest_supported_percentile(100_000), Some(99.99));
    }

    #[test]
    fn summary_caps_the_tail_and_falls_back_to_the_median() {
        let big: Vec<f64> = (1..=20_000).map(f64::from).collect();
        let s = summarize(big, 99.0);
        assert_eq!((s.n, s.tail_pct), (20_000, 99.0));
        assert_eq!(s.p50, 10_000.0);
        assert_eq!(s.tail, 19_800.0);

        let small = summarize(vec![3.0, 1.0, 2.0], 99.0);
        assert_eq!((small.p50, small.tail_pct, small.tail), (2.0, 50.0, 2.0));

        let empty = summarize(Vec::new(), 99.0);
        assert_eq!((empty.n, empty.p50, empty.tail), (0, 0.0, 0.0));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 1.5, 2.25)));
        assert_eq!(relative_spread(&v), Some(1.0));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
