//! Named statistic counters.

use std::fmt;

use crate::keyed::Keyed;

/// A bag of named counters.
///
/// Keys are `&'static str` held in [`Keyed`] dense slots, so a hot-path
/// increment neither allocates nor compares strings; every read view
/// iterates in key order, so report output is deterministically ordered.
#[derive(Debug, Default)]
pub struct Stats {
    counters: Keyed<u64>,
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

    /// Iterate counters in key order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(k, v)| (k, *v))
    }

    /// Remove all counters.
    pub fn clear(&mut self) {
        self.counters.clear();
    }

    /// Fold `other` into `self`: counters add. Merging is
    /// order-independent, so bags filled on different threads combine
    /// into the same result in any order.
    pub fn merge(&mut self, other: &Stats) {
        for (k, v) in other.counters.iter() {
            *self.counters.slot(k) += v;
        }
    }
}

impl fmt::Display for Stats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (k, v) in self.counters() {
            writeln!(f, "{k:40} {v}")?;
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
