//! Named statistic counters and simple online summaries.

use std::fmt;

use crate::keyed::Keyed;

/// A bag of named counters plus min/max/mean summaries.
///
/// Keys are `&'static str` held in [`Keyed`] dense slots, so a hot-path
/// increment neither allocates nor compares strings; every read view
/// iterates in key order, so report output is deterministically ordered.
#[derive(Debug, Default)]
pub struct Stats {
    counters: Keyed<u64>,
    summaries: Keyed<Summary>,
}

/// Online min/max/sum/count summary of a sampled quantity.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    /// Number of samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum: f64,
    /// Sum of squared samples (for variance).
    pub sum_sq: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
}

impl Default for Summary {
    fn default() -> Self {
        Summary::new()
    }
}

impl Summary {
    /// Create an empty summary.
    pub fn new() -> Self {
        Summary { count: 0, sum: 0.0, sum_sq: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }

    /// Record one sample.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        self.sum += x;
        self.sum_sq += x * x;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Arithmetic mean of the samples (0 if none).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Population variance of the samples (0 if fewer than two).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            return 0.0;
        }
        let n = self.count as f64;
        let mean = self.sum / n;
        // Clamp: catastrophic cancellation can drive the estimate slightly
        // negative when all samples are (nearly) equal.
        (self.sum_sq / n - mean * mean).max(0.0)
    }

    /// Population standard deviation of the samples.
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Fold `other` into `self`: the result summarizes the union of both
    /// sample sets.
    pub fn merge(&mut self, other: &Summary) {
        if other.count == 0 {
            return;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.sum_sq += other.sum_sq;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl Stats {
    /// Create an empty stats bag.
    pub fn new() -> Self {
        Stats::default()
    }

    /// Add `n` to the counter `key`.
    #[inline]
    pub fn add(&mut self, key: &'static str, n: u64) {
        *self.counters.slot(key) += n;
    }

    /// Increment the counter `key` by one.
    #[inline]
    pub fn bump(&mut self, key: &'static str) {
        self.add(key, 1);
    }

    /// Read a counter (0 if never touched).
    pub fn get(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// Record a sample into the summary `key`.
    pub fn sample(&mut self, key: &'static str, x: f64) {
        self.summaries.slot(key).record(x);
    }

    /// Read a summary, if any samples were recorded.
    pub fn summary(&self, key: &str) -> Option<&Summary> {
        self.summaries.get(key)
    }

    /// Iterate counters in key order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(k, v)| (k, *v))
    }

    /// Iterate summaries in key order.
    pub fn summaries(&self) -> impl Iterator<Item = (&'static str, &Summary)> + '_ {
        self.summaries.iter()
    }

    /// Remove all counters and summaries.
    pub fn clear(&mut self) {
        self.counters.clear();
        self.summaries.clear();
    }

    /// Fold `other` into `self`: counters add, summaries merge. Merging is
    /// order-independent, so bags filled on different threads combine
    /// into the same result in any order.
    pub fn merge(&mut self, other: &Stats) {
        for (k, v) in other.counters.iter() {
            *self.counters.slot(k) += v;
        }
        for (k, s) in other.summaries.iter() {
            self.summaries.slot(k).merge(s);
        }
    }
}

impl fmt::Display for Stats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (k, v) in self.counters() {
            writeln!(f, "{k:40} {v}")?;
        }
        for (k, s) in self.summaries() {
            writeln!(
                f,
                "{k:40} n={} mean={:.3} min={:.3} max={:.3}",
                s.count,
                s.mean(),
                s.min,
                s.max
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut s = Stats::new();
        s.bump("x");
        s.add("x", 4);
        assert_eq!(s.get("x"), 5);
        assert_eq!(s.get("missing"), 0);
    }

    #[test]
    fn summaries_track_min_max_mean() {
        let mut s = Stats::new();
        for x in [1.0, 2.0, 3.0] {
            s.sample("lat", x);
        }
        let sum = s.summary("lat").unwrap();
        assert_eq!(sum.count, 3);
        assert!((sum.mean() - 2.0).abs() < 1e-12);
        assert_eq!(sum.min, 1.0);
        assert_eq!(sum.max, 3.0);
    }

    #[test]
    fn summaries_expose_variance_and_iterate() {
        let mut s = Stats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.sample("lat", x);
        }
        s.sample("other", 1.0);
        let sum = s.summary("lat").unwrap();
        assert!((sum.variance() - 4.0).abs() < 1e-9);
        assert!((sum.stddev() - 2.0).abs() < 1e-9);
        let keys: Vec<_> = s.summaries().map(|(k, _)| k).collect();
        assert_eq!(keys, vec!["lat", "other"]);
        // Single sample: no spread.
        assert_eq!(s.summary("other").unwrap().stddev(), 0.0);
    }

    #[test]
    fn display_is_ordered_and_clear_resets() {
        let mut s = Stats::new();
        s.bump("b");
        s.bump("a");
        let text = s.to_string();
        assert!(text.find('a').unwrap() < text.find('b').unwrap());
        s.clear();
        assert_eq!(s.get("a"), 0);
    }
}
