//! Always-on distributions.
//!
//! [`Histogram`] is a log₂-bucketed distribution of `u64` samples with one
//! quantile estimator, [`Histogram::percentile`]. The standard set lives in
//! [`Histograms`] (message sizes, statement latencies, group-commit batch
//! sizes, re-drive chain lengths, per-category statement waits). Histograms
//! never touch the clock or the counters, so they are always on.

use crate::clock::Wait;
use std::sync::atomic::{AtomicU64, Ordering};

const BUCKETS: usize = 65; // bucket b holds values with bit-length b; 0 -> 0

/// A log₂-bucketed histogram of `u64` samples.
///
/// Bucket `b` counts values `v` with `2^(b-1) <= v < 2^b` (bucket 0 counts
/// zeros), so a bucket is exact to within a factor of two — plenty for "is
/// the p95 message 100 bytes or 4 KB?" questions. Recording is lock-free
/// and never touches the virtual clock or the metric counters.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

fn bucket_of(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// Inclusive lower bound of bucket `b` (the smallest value it can hold).
fn bucket_lo(b: usize) -> u64 {
    if b == 0 {
        0
    } else {
        1u64 << (b - 1)
    }
}

/// Inclusive upper bound of bucket `b` (the largest value it can hold).
fn bucket_hi(b: usize) -> u64 {
    if b == 0 {
        0
    } else if b >= 64 {
        u64::MAX
    } else {
        (1u64 << b) - 1
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sample. The running sum saturates at `u64::MAX` rather
    /// than wrapping, so `sum()` degrades gracefully on absurd inputs.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        let _ = self
            .sum
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| {
                Some(s.saturating_add(v))
            });
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// The `q`-quantile (`q` in `[0, 1]`, 0 when empty), interpolated
    /// linearly inside the log₂ bucket that holds it.
    ///
    /// The bucket's samples are spread uniformly over `[lo, hi]` and the
    /// rank's position read off — the estimator latency curves want.
    /// Deterministic: pure integer bucket counts in, one rounded
    /// interpolation out. The top occupied bucket is tightened to the
    /// recorded max, so `percentile(1.0) == max()`.
    pub fn percentile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        let mut last = 0usize;
        for (b, c) in self.buckets.iter().enumerate() {
            let c = c.load(Ordering::Relaxed);
            if c > 0 {
                last = b;
                if seen + c >= rank {
                    let lo = bucket_lo(b);
                    let hi = if b == bucket_of(self.max()) {
                        self.max()
                    } else {
                        bucket_hi(b)
                    };
                    // Position of the rank within this bucket, in (0, 1]; a
                    // span too wide for an f64 may round past its end.
                    let frac = (rank - seen) as f64 / c as f64;
                    let offset = (frac * (hi - lo) as f64).round() as u64;
                    return lo + offset.min(hi - lo);
                }
                seen += c;
            }
        }
        bucket_hi(last)
    }

    /// Occupied buckets as `(lo, hi, count)` ranges, ascending.
    pub fn buckets(&self) -> Vec<(u64, u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(b, c)| {
                let c = c.load(Ordering::Relaxed);
                (c > 0).then(|| (bucket_lo(b), bucket_hi(b), c))
            })
            .collect()
    }
}

/// The standard distributions every cluster records (always on).
#[derive(Debug, Default)]
pub struct Histograms {
    /// Bytes per message exchange (request + reply).
    pub msg_bytes: Histogram,
    /// Virtual microseconds per SQL statement.
    pub stmt_latency_us: Histogram,
    /// Commits made durable per audit flush (group-commit batch size).
    pub commit_group: Histogram,
    /// Messages per FS-DP continuation chain (1 = no re-drive).
    pub redrive_chain: Histogram,
    /// Per-category wait micros per SQL statement, indexed by
    /// [`Wait::index`]. Only non-zero category deltas are recorded, so each
    /// histogram's count is "statements that waited here at all".
    pub stmt_wait_us: [Histogram; Wait::COUNT],
}

impl Histograms {
    /// All-empty histograms.
    pub fn new() -> Self {
        Self::default()
    }

    /// The per-statement wait histogram for one category.
    pub fn stmt_wait(&self, w: Wait) -> &Histogram {
        &self.stmt_wait_us[w.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles() {
        let h = Histogram::new();
        assert_eq!(h.percentile(0.5), 0);
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.sum(), 5050);
        assert_eq!(h.max(), 100);
        // p50 of 1..=100 lands in bucket [32, 63]; p99 and max in [64, 127],
        // where the true max (100) is the interpolation's upper bound.
        assert!((32..=63).contains(&h.percentile(0.50)));
        assert!((64..=100).contains(&h.percentile(0.99)));
        assert_eq!(h.percentile(1.0), 100);
        assert!(h.buckets().iter().map(|(_, _, c)| c).sum::<u64>() == 100);
    }

    #[test]
    fn percentile_interpolates_within_buckets() {
        let h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        // Uniform 1..=100 fills every log2 bucket proportionally, so linear
        // interpolation lands on (nearly) the exact order statistics —
        // where a bucket's upper bound would answer 63 for the median.
        assert_eq!(h.percentile(0.50), 50);
        assert_eq!(h.percentile(0.95), 95);
        assert_eq!(h.percentile(0.99), 99);
        assert_eq!(h.percentile(0.999), 100);
        assert_eq!(h.percentile(1.0), h.max());
    }

    #[test]
    fn percentile_pinned_on_known_bucket_fill() {
        let h = Histogram::new();
        h.record(0); // bucket 0: [0, 0]
        for _ in 0..4 {
            h.record(10); // bucket 4: [8, 15]
        }
        for _ in 0..5 {
            h.record(1000); // bucket 10: [512, 1023], tightened to max 1000
        }
        assert_eq!(h.percentile(0.1), 0);
        // rank 5 is the last of bucket 4's four samples: frac 4/4 -> hi.
        assert_eq!(h.percentile(0.5), 15);
        // rank 9 sits 4/5 into [512, 1000]: 512 + 0.8 * 488 = 902.
        assert_eq!(h.percentile(0.9), 902);
        assert_eq!(h.percentile(1.0), 1000);
        // A single sample is its own every-percentile.
        let one = Histogram::new();
        one.record(37);
        assert_eq!(one.percentile(0.0), 37);
        assert_eq!(one.percentile(0.5), 37);
        assert_eq!(one.percentile(1.0), 37);
        // Empty histograms report zero.
        assert_eq!(Histogram::new().percentile(0.5), 0);
    }

    #[test]
    fn empty_histogram_quantiles_are_zero() {
        let h = Histogram::new();
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(h.percentile(q), 0, "q={q}");
        }
        assert_eq!(h.max(), 0);
        assert_eq!(h.sum(), 0);
        assert!(h.buckets().is_empty());
    }

    #[test]
    fn single_sample_histogram_reports_it_everywhere() {
        let h = Histogram::new();
        h.record(37);
        assert_eq!(h.count(), 1);
        // One sample is its own p50, p99, and max (top-bucket tightening).
        assert_eq!(h.percentile(0.50), 37);
        assert_eq!(h.percentile(0.99), 37);
        assert_eq!(h.percentile(0.0), 37);
        assert_eq!(h.max(), 37);
        assert_eq!(h.buckets(), vec![(32, 63, 1)]);
    }

    #[test]
    fn top_bucket_values_saturate_max_and_p99_consistently() {
        let h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX - 1);
        // Both land in the open-topped bucket 64; max() and every upper
        // percentile agree on the true max instead of an overflowed bound
        // (the bucket's 2^63-wide span rounds up to 2^63 as an f64).
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.percentile(0.99), u64::MAX);
        assert_eq!(h.percentile(1.0), h.max());
        assert_eq!(h.buckets(), vec![(1u64 << 63, u64::MAX, 2)]);
        // The running sum saturates instead of wrapping.
        assert_eq!(h.sum(), u64::MAX);
        h.record(100);
        assert_eq!(h.sum(), u64::MAX);
        // A lone sample in a lower bucket sits at that bucket's top.
        assert_eq!(h.percentile(0.0), 127);
    }

    #[test]
    fn histogram_zero_bucket() {
        let h = Histogram::new();
        h.record(0);
        h.record(0);
        h.record(1);
        assert_eq!(h.percentile(0.5), 0);
        assert_eq!(h.max(), 1);
        assert_eq!(h.buckets()[0], (0, 0, 2));
    }
}
