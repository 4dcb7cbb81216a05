//! Lightweight statistics used throughout the experiment harness.

/// Streaming mean/variance/extrema via Welford's algorithm.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Add one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.mean() * self.n as f64
    }

    /// Sample variance (n-1 denominator; 0 for fewer than 2 samples).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Largest observation (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }

    /// Merge another accumulator (parallel Welford).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n = self.n + other.n;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.n as f64 / n as f64;
        let m2 = self.m2 + other.m2 + delta * delta * self.n as f64 * other.n as f64 / n as f64;
        self.n = n;
        self.mean = mean;
        self.m2 = m2;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Five-number-ish summary of a sample, with percentiles.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    sorted: Vec<f64>,
    stats: OnlineStats,
}

impl Summary {
    /// Build from a sample (NaNs are rejected by assertion).
    pub fn from_samples(samples: &[f64]) -> Self {
        let mut sorted: Vec<f64> = samples.to_vec();
        assert!(
            sorted.iter().all(|x| !x.is_nan()),
            "summary cannot contain NaN"
        );
        sorted.sort_by(f64::total_cmp);
        let mut stats = OnlineStats::new();
        for &s in &sorted {
            stats.push(s);
        }
        Summary { sorted, stats }
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.sorted.len()
    }

    /// Mean value.
    pub fn mean(&self) -> f64 {
        self.stats.mean()
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.stats.std_dev()
    }

    /// Linear-interpolated percentile, `p` in [0, 100].
    pub fn percentile(&self, p: f64) -> f64 {
        assert!((0.0..=100.0).contains(&p));
        if self.sorted.is_empty() {
            return 0.0;
        }
        if self.sorted.len() == 1 {
            return self.sorted[0];
        }
        let rank = p / 100.0 * (self.sorted.len() - 1) as f64;
        let lo = rank.floor() as usize;
        let hi = rank.ceil() as usize;
        let frac = rank - lo as f64;
        self.sorted[lo] * (1.0 - frac) + self.sorted[hi] * frac
    }

    /// Median (50th percentile).
    pub fn median(&self) -> f64 {
        self.percentile(50.0)
    }

    /// Minimum sample.
    pub fn min(&self) -> f64 {
        self.sorted.first().copied().unwrap_or(0.0)
    }

    /// Maximum sample.
    pub fn max(&self) -> f64 {
        self.sorted.last().copied().unwrap_or(0.0)
    }
}

/// Fixed-bound histogram with overflow/underflow buckets.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    bounds: Vec<f64>,
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// Create a histogram with the given ascending bucket upper bounds.
    /// Bucket `i` counts samples in `(bounds[i-1], bounds[i]]`; an extra
    /// final bucket counts samples above the last bound.
    pub fn new(bounds: Vec<f64>) -> Self {
        assert!(!bounds.is_empty());
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "bounds must be strictly ascending"
        );
        let n = bounds.len() + 1;
        Histogram {
            bounds,
            counts: vec![0; n],
            total: 0,
        }
    }

    /// Logarithmically spaced bounds from `lo` to `hi` with `n` buckets.
    pub fn log_spaced(lo: f64, hi: f64, n: usize) -> Self {
        assert!(lo > 0.0 && hi > lo && n >= 1);
        let ratio = (hi / lo).powf(1.0 / n as f64);
        let mut bounds = Vec::with_capacity(n);
        let mut b = lo;
        for _ in 0..n {
            bounds.push(b);
            b *= ratio;
        }
        Histogram::new(bounds)
    }

    /// Record one observation.
    pub fn record(&mut self, x: f64) {
        let idx = self.bounds.partition_point(|&b| b < x);
        self.counts[idx] += 1;
        self.total += 1;
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Per-bucket counts (last bucket is the overflow bucket).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Bucket upper bounds.
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_match_naive() {
        let xs = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let mut s = OnlineStats::new();
        for &x in &xs {
            s.push(x);
        }
        let mean: f64 = xs.iter().sum::<f64>() / xs.len() as f64;
        let var: f64 = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (xs.len() - 1) as f64;
        assert!((s.mean() - mean).abs() < 1e-12);
        assert!((s.variance() - var).abs() < 1e-12);
        assert_eq!(s.min(), Some(1.0));
        assert_eq!(s.max(), Some(9.0));
        assert_eq!(s.count(), 8);
    }

    #[test]
    fn online_stats_empty_and_single() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), None);
        let mut s = OnlineStats::new();
        s.push(7.0);
        assert_eq!(s.mean(), 7.0);
        assert_eq!(s.variance(), 0.0);
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = OnlineStats::new();
        for &x in &xs {
            whole.push(x);
        }
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for &x in &xs[..37] {
            a.push(x);
        }
        for &x in &xs[37..] {
            b.push(x);
        }
        a.merge(&b);
        assert!((a.mean() - whole.mean()).abs() < 1e-10);
        assert!((a.variance() - whole.variance()).abs() < 1e-10);
        assert_eq!(a.count(), whole.count());
    }

    #[test]
    fn summary_percentiles() {
        let s = Summary::from_samples(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.median(), 3.0);
        assert_eq!(s.percentile(0.0), 1.0);
        assert_eq!(s.percentile(100.0), 5.0);
        assert_eq!(s.percentile(25.0), 2.0);
        assert!((s.percentile(90.0) - 4.6).abs() < 1e-12);
    }

    #[test]
    fn histogram_buckets() {
        let mut h = Histogram::new(vec![1.0, 10.0, 100.0]);
        for x in [0.5, 1.0, 5.0, 50.0, 500.0] {
            h.record(x);
        }
        assert_eq!(h.counts(), &[2, 1, 1, 1]);
        assert_eq!(h.total(), 5);
    }

    #[test]
    fn histogram_log_spaced() {
        let h = Histogram::log_spaced(1.0, 1000.0, 3);
        let b = h.bounds();
        assert_eq!(b.len(), 3);
        assert!((b[0] - 1.0).abs() < 1e-9);
        assert!((b[1] - 10.0).abs() < 1e-6);
        assert!((b[2] - 100.0).abs() < 1e-6);
    }

    #[cfg(test)]
    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn merge_matches_sequential(xs in proptest::collection::vec(-1e6f64..1e6, 0..200),
                                        split in 0usize..200) {
                let split = split.min(xs.len());
                let mut whole = OnlineStats::new();
                for &x in &xs { whole.push(x); }
                let mut a = OnlineStats::new();
                let mut b = OnlineStats::new();
                for &x in &xs[..split] { a.push(x); }
                for &x in &xs[split..] { b.push(x); }
                a.merge(&b);
                prop_assert!((a.mean() - whole.mean()).abs() < 1e-6);
                prop_assert!((a.variance() - whole.variance()).abs() / whole.variance().max(1.0) < 1e-6);
            }

            #[test]
            fn percentiles_are_monotone(xs in proptest::collection::vec(0f64..1e3, 1..100)) {
                let s = Summary::from_samples(&xs);
                let mut last = f64::NEG_INFINITY;
                for p in 0..=20 {
                    let v = s.percentile(p as f64 * 5.0);
                    prop_assert!(v >= last - 1e-9);
                    last = v;
                }
                prop_assert_eq!(s.percentile(0.0), s.min());
                prop_assert_eq!(s.percentile(100.0), s.max());
            }

            #[test]
            fn histogram_conserves_count(xs in proptest::collection::vec(0f64..1e4, 0..300)) {
                let mut h = Histogram::log_spaced(1.0, 1e3, 10);
                for &x in &xs { h.record(x); }
                prop_assert_eq!(h.total(), xs.len() as u64);
                prop_assert_eq!(h.counts().iter().sum::<u64>(), xs.len() as u64);
            }
        }
    }
}
