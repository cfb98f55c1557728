//! Streaming latency statistics and histograms.

use core::fmt;

/// Streaming mean/variance/min/max over `u64` samples (Welford's method).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: u64,
    max: u64,
}

impl OnlineStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Adds a sample.
    pub fn push(&mut self, x: u64) {
        self.n += 1;
        let xf = x as f64;
        let d = xf - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (xf - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 with fewer than two samples).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Standard deviation.
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest sample (`None` when empty).
    pub fn min(&self) -> Option<u64> {
        (self.n > 0).then_some(self.min)
    }

    /// Largest sample (`None` when empty).
    pub fn max(&self) -> Option<u64> {
        (self.n > 0).then_some(self.max)
    }
}

impl fmt::Display for OnlineStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.2} sd={:.2} min={} max={}",
            self.n,
            self.mean(),
            self.stddev(),
            self.min().unwrap_or(0),
            self.max().unwrap_or(0)
        )
    }
}

/// A fixed-width latency histogram with an overflow bucket, for latency
/// distribution reporting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    bucket_width: u64,
    buckets: Vec<u64>,
    overflow: u64,
}

impl Histogram {
    /// Creates a histogram with `buckets` buckets of `bucket_width` cycles.
    ///
    /// # Panics
    ///
    /// Panics if either argument is zero.
    pub fn new(bucket_width: u64, buckets: usize) -> Self {
        assert!(bucket_width > 0 && buckets > 0, "empty histogram shape");
        Histogram {
            bucket_width,
            buckets: vec![0; buckets],
            overflow: 0,
        }
    }

    /// Adds a sample.
    pub fn push(&mut self, x: u64) {
        let idx = (x / self.bucket_width) as usize;
        match self.buckets.get_mut(idx) {
            Some(b) => *b += 1,
            None => self.overflow += 1,
        }
    }

    /// Count in bucket `i` (samples in `[i*w, (i+1)*w)`).
    pub fn bucket(&self, i: usize) -> u64 {
        self.buckets[i]
    }

    /// Samples beyond the last bucket.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total samples.
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum::<u64>() + self.overflow
    }

    /// Latency below which `q` of the samples fall (`q` in `[0,1]`),
    /// resolved to bucket granularity. `None` when empty or when the
    /// quantile lands in the overflow bucket.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let total = self.total();
        if total == 0 {
            return None;
        }
        // At least one sample must be covered, so `q = 0` resolves to the
        // first non-empty bucket instead of always the first bucket (which
        // would wrongly return a value for all-overflow histograms).
        let target = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut acc = 0;
        for (i, &b) in self.buckets.iter().enumerate() {
            acc += b;
            if acc >= target {
                return Some((i as u64 + 1) * self.bucket_width);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_basics() {
        let mut s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), None);
        for x in [2u64, 4, 6] {
            s.push(x);
        }
        assert_eq!(s.count(), 3);
        assert!((s.mean() - 4.0).abs() < 1e-12);
        assert!((s.variance() - 8.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2));
        assert_eq!(s.max(), Some(6));
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let mut h = Histogram::new(10, 3);
        for x in [0u64, 9, 10, 29, 30, 1000] {
            h.push(x);
        }
        assert_eq!(h.bucket(0), 2);
        assert_eq!(h.bucket(1), 1);
        assert_eq!(h.bucket(2), 1);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.total(), 6);
    }

    #[test]
    fn histogram_quantiles() {
        let mut h = Histogram::new(10, 10);
        for x in 0..100u64 {
            h.push(x);
        }
        assert_eq!(h.quantile(0.5), Some(50));
        assert_eq!(h.quantile(1.0), Some(100));
        let empty = Histogram::new(10, 10);
        assert_eq!(empty.quantile(0.5), None);
    }

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let empty = Histogram::new(10, 4);
        assert_eq!(empty.total(), 0);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(empty.quantile(q), None, "q={q}");
        }
    }

    #[test]
    fn all_overflow_histogram_has_no_quantiles() {
        let mut h = Histogram::new(10, 4);
        for _ in 0..7 {
            h.push(1_000_000);
        }
        assert_eq!(h.overflow(), 7);
        assert_eq!(h.total(), 7);
        // Every sample is beyond bucket resolution, so no quantile can be
        // resolved — including the degenerate q = 0.
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(h.quantile(q), None, "q={q}");
        }
    }

    #[test]
    fn zero_quantile_resolves_to_first_nonempty_bucket() {
        let mut h = Histogram::new(10, 4);
        h.push(25); // bucket 2
        assert_eq!(h.quantile(0.0), Some(30));
    }

    #[test]
    #[should_panic(expected = "empty histogram shape")]
    fn zero_width_panics() {
        let _ = Histogram::new(0, 4);
    }
}
