//! Log-bucketed histogram of `u64` samples (virtual nanoseconds).
//!
//! Buckets are power-of-two octaves split into 8 linear sub-buckets, so
//! the relative quantile error is bounded at 12.5% while `record` stays a
//! couple of shifts and one array increment — no allocation after
//! construction, which keeps histogram updates legal on simulation hot
//! paths.

/// Sub-bucket resolution: each octave is split into `2^SUB_BITS` buckets.
const SUB_BITS: u32 = 3;
const SUBS: usize = 1 << SUB_BITS;
/// Values `0..SUBS` get exact buckets; above that, one bucket per
/// (octave, sub-bucket) pair up to `u64::MAX`.
const NBUCKETS: usize = SUBS + (64 - SUB_BITS as usize) * SUBS;

/// Fixed-size log-bucketed histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

fn bucket_index(v: u64) -> usize {
    if v < SUBS as u64 {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros();
    let sub = ((v >> (exp - SUB_BITS)) & (SUBS as u64 - 1)) as usize;
    SUBS + (exp - SUB_BITS) as usize * SUBS + sub
}

/// Largest value that maps to bucket `idx` (saturating at `u64::MAX`).
fn bucket_upper(idx: usize) -> u64 {
    if idx < SUBS {
        return idx as u64;
    }
    let k = idx - SUBS;
    let exp = (k / SUBS) as u32 + SUB_BITS;
    let sub = (k % SUBS) as u64;
    let width = 1u64 << (exp - SUB_BITS);
    let lower = (SUBS as u64 + sub) << (exp - SUB_BITS);
    lower.saturating_add(width - 1)
}

/// Smallest value that maps to bucket `idx`.
fn bucket_lower(idx: usize) -> u64 {
    if idx < SUBS {
        return idx as u64;
    }
    let k = idx - SUBS;
    let exp = (k / SUBS) as u32 + SUB_BITS;
    let sub = (k % SUBS) as u64;
    (SUBS as u64 + sub) << (exp - SUB_BITS)
}

impl Histogram {
    /// Create an empty histogram.
    pub fn new() -> Self {
        Histogram { counts: vec![0; NBUCKETS], count: 0, sum: 0, min: u64::MAX, max: 0 }
    }

    /// Record one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded sample (`u64::MAX` when empty).
    pub fn min(&self) -> u64 {
        self.min
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate `q`-quantile (`0.0..=1.0`): the upper bound of the
    /// bucket holding the sample of that rank, clamped to the true
    /// `[min, max]` range. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = (q * (self.count - 1) as f64).round() as u64;
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen > rank {
                return bucket_upper(idx).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Median shorthand.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th percentile shorthand.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th percentile shorthand.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// 99.9th percentile shorthand (tail latency).
    pub fn p999(&self) -> u64 {
        self.quantile(0.999)
    }

    /// Number of samples in buckets entirely at or below `v` — a
    /// bucket-granularity count of "samples ≤ v". Samples in a bucket
    /// straddling `v` count as above it, so `count() - count_at_most(v)`
    /// is a deterministic, slightly conservative bad-sample count for
    /// SLO evaluation.
    ///
    /// **Boundary guarantee**: when `v` is the exact upper bound of a
    /// bucket (any value returned by [`Histogram::bucket_bounds`] or
    /// [`Histogram::quantile`]), no bucket straddles `v` and the result
    /// is the *exact* number of samples ≤ `v` — not an approximation.
    pub fn count_at_most(&self, v: u64) -> u64 {
        // The highest bucket wholly ≤ v: the bucket holding v when v is
        // its exact upper bound, its predecessor otherwise.
        let idx = bucket_index(v);
        let limit = if bucket_upper(idx) == v { idx + 1 } else { idx };
        self.counts[..limit].iter().sum()
    }

    /// Fold `other` into `self`; equivalent to having recorded the union
    /// of both sample streams.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += *b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The non-empty buckets, in value order: `(index, upper_bound,
    /// count)`. Together with `sum`/`min`/`max` this is the histogram's
    /// exact state — [`Histogram::from_buckets`] reconstructs a
    /// bit-identical histogram from it, which is what makes run records
    /// diffable at bucket granularity instead of quantile granularity.
    pub fn buckets(&self) -> impl Iterator<Item = (usize, u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(idx, &c)| (idx, bucket_upper(idx), c))
    }

    /// `[lower, upper]` value range of bucket `idx`.
    pub fn bucket_bounds(idx: usize) -> (u64, u64) {
        (bucket_lower(idx), bucket_upper(idx))
    }

    /// Reconstruct a histogram from exact per-bucket counts plus the
    /// tracked `sum`/`min`/`max` (as serialized by
    /// [`Histogram::to_json`]). Returns an error on an out-of-range
    /// bucket index; `count` is derived from the bucket counts.
    pub fn from_buckets(
        buckets: impl IntoIterator<Item = (usize, u64)>,
        sum: u64,
        min: u64,
        max: u64,
    ) -> Result<Histogram, String> {
        let mut h = Histogram::new();
        for (idx, c) in buckets {
            if idx >= NBUCKETS {
                return Err(format!("bucket index {idx} out of range (max {})", NBUCKETS - 1));
            }
            h.counts[idx] += c;
            h.count += c;
        }
        h.sum = sum;
        h.min = if h.count == 0 { u64::MAX } else { min };
        h.max = max;
        Ok(h)
    }

    /// Exact JSON export: summary statistics, derived quantiles *and*
    /// the full bucket counts (`"buckets":[[index,count],...]`), so two
    /// serialized histograms can be diffed or merged without loss.
    pub fn to_json(&self) -> String {
        let buckets: Vec<String> =
            self.buckets().map(|(idx, _, c)| format!("[{idx},{c}]")).collect();
        format!(
            "{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\
             \"p50\":{},\"p90\":{},\"p99\":{},\"p999\":{},\"buckets\":[{}]}}",
            self.count,
            self.sum,
            if self.count == 0 { 0 } else { self.min },
            self.max,
            self.p50(),
            self.p90(),
            self.p99(),
            self.p999(),
            buckets.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in 0..8 {
            h.record(v);
        }
        assert_eq!(h.count(), 8);
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(1.0), 7);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 7);
    }

    #[test]
    fn bucket_roundtrip_bounds() {
        for v in [0u64, 1, 7, 8, 9, 100, 1_000, 123_456, u64::MAX / 2, u64::MAX] {
            let idx = bucket_index(v);
            let upper = bucket_upper(idx);
            assert!(upper >= v, "upper({idx}) = {upper} < {v}");
            if idx > 0 {
                assert!(bucket_upper(idx - 1) < v, "v {v} should not fit bucket {}", idx - 1);
            }
        }
    }

    #[test]
    fn quantiles_are_ordered_and_bounded() {
        let mut h = Histogram::new();
        for v in [10u64, 20, 30, 1000, 5000, 100_000] {
            h.record(v);
        }
        let (p50, p90, p99) = (h.p50(), h.p90(), h.p99());
        assert!(p50 <= p90 && p90 <= p99);
        assert!(p50 >= h.min() && p99 <= h.max());
        assert!(h.mean() > 0.0);
    }

    #[test]
    fn merge_matches_union() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut u = Histogram::new();
        for v in [5u64, 50, 500] {
            a.record(v);
            u.record(v);
        }
        for v in [7u64, 70, 700_000] {
            b.record(v);
            u.record(v);
        }
        a.merge(&b);
        assert_eq!(a, u);
    }

    #[test]
    fn count_at_most_splits_at_bucket_bounds() {
        let mut h = Histogram::new();
        for v in [1u64, 5, 10, 100, 10_000] {
            h.record(v);
        }
        assert_eq!(h.count_at_most(0), 0);
        assert_eq!(h.count_at_most(5), 2);
        assert_eq!(h.count_at_most(10), 3);
        assert_eq!(h.count_at_most(u64::MAX), h.count());
        // Straddling-bucket samples count as above the threshold.
        assert!(h.count_at_most(9_000) <= 4);
    }

    #[test]
    fn count_at_most_is_exact_at_bucket_boundaries() {
        let mut h = Histogram::new();
        let samples = [1u64, 5, 10, 17, 100, 9_000, 10_000, 250_000];
        for &v in &samples {
            h.record(v);
        }
        // At the exact upper bound of any bucket the count is the true
        // number of samples ≤ that bound, with no conservative slack.
        for idx in 0..NBUCKETS {
            let upper = bucket_upper(idx);
            let expect = samples.iter().filter(|&&s| s <= upper).count() as u64;
            assert_eq!(h.count_at_most(upper), expect, "boundary {upper} (bucket {idx})");
        }
        // One below a bucket's lower bound is also a boundary (it is the
        // previous bucket's upper bound), so it is exact too.
        for idx in 1..NBUCKETS {
            let below = bucket_lower(idx) - 1;
            let expect = samples.iter().filter(|&&s| s <= below).count() as u64;
            assert_eq!(h.count_at_most(below), expect, "below-lower {below} (bucket {idx})");
        }
    }

    #[test]
    fn count_at_most_interior_values_are_conservative() {
        let mut h = Histogram::new();
        h.record(9_000); // interior of a wide bucket
        let idx = bucket_index(9_000);
        let (lower, upper) = Histogram::bucket_bounds(idx);
        assert!(lower < 9_000 && 9_000 < upper, "test needs an interior sample");
        // Interior thresholds exclude the straddling bucket (conservative
        // in the ≤ direction) …
        assert_eq!(h.count_at_most(9_000), 0);
        assert_eq!(h.count_at_most(upper - 1), 0);
        // … and the exact boundary includes it.
        assert_eq!(h.count_at_most(upper), 1);
        assert_eq!(h.count_at_most(lower - 1), 0);
    }

    #[test]
    fn bucket_bounds_are_contiguous() {
        for idx in 1..NBUCKETS {
            let (lower, _) = Histogram::bucket_bounds(idx);
            let (_, prev_upper) = Histogram::bucket_bounds(idx - 1);
            assert_eq!(prev_upper + 1, lower, "gap/overlap between buckets {} and {idx}", idx - 1);
        }
        assert_eq!(Histogram::bucket_bounds(0).0, 0);
        assert_eq!(Histogram::bucket_bounds(NBUCKETS - 1).1, u64::MAX);
    }

    #[test]
    fn buckets_roundtrip_through_from_buckets() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 7, 8, 9, 100, 123_456, 1 << 40, u64::MAX] {
            h.record(v);
        }
        let parts: Vec<(usize, u64)> = h.buckets().map(|(idx, _, c)| (idx, c)).collect();
        let back = Histogram::from_buckets(parts, h.sum(), h.min(), h.max()).unwrap();
        assert_eq!(back, h);
        assert!(Histogram::from_buckets([(NBUCKETS, 1)], 0, 0, 0).is_err());
        let empty = Histogram::from_buckets([], 0, 0, 0).unwrap();
        assert_eq!(empty, Histogram::new());
    }

    #[test]
    fn json_export_carries_exact_buckets() {
        let mut h = Histogram::new();
        for v in [3u64, 3, 90, 4_000] {
            h.record(v);
        }
        let json = h.to_json();
        assert!(json.contains("\"count\":4"));
        assert!(json.contains(&format!("[{},2]", bucket_index(3))));
        assert!(json.contains(&format!("[{},1]", bucket_index(90))));
        assert!(json.contains("\"buckets\":["));
        // Empty histograms serialize min as 0, not u64::MAX.
        assert!(Histogram::new().to_json().contains("\"min\":0"));
    }

    #[test]
    fn empty_histogram_is_quiet() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn quantile_boundaries_empty() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(1.0), 0);
        assert_eq!(h.p999(), 0);
    }

    #[test]
    fn quantile_boundaries_single_sample() {
        let mut h = Histogram::new();
        h.record(12_345);
        for q in [0.0, 0.5, 0.999, 1.0] {
            assert_eq!(h.quantile(q), 12_345, "q={q}");
        }
        assert_eq!(h.p999(), 12_345);
    }

    #[test]
    fn quantile_extremes_hit_min_and_max() {
        let mut h = Histogram::new();
        for v in [3u64, 90, 4_000, 250_000] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), h.min());
        assert_eq!(h.quantile(1.0), h.max());
        // Out-of-range inputs clamp rather than panic.
        assert_eq!(h.quantile(-1.0), h.quantile(0.0));
        assert_eq!(h.quantile(2.0), h.quantile(1.0));
    }

    #[test]
    fn p999_sits_between_p99_and_max() {
        let mut h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        assert!(h.p99() <= h.p999());
        assert!(h.p999() <= h.max());
        // With 10k uniform samples the 99.9th percentile lands in the
        // top octave, clearly above the median.
        assert!(h.p999() > h.p50());
    }
}
