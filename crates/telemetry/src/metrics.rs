//! The metrics registry: counters, gauges, histograms and counter-track
//! time series.
//!
//! Counters/gauges/histograms (and the contention table's rows) are
//! `&'static str`-keyed [`Keyed`] tables, the same store as
//! `simcore::Stats`: a key takes a dense slot on first touch, after which
//! an update is a thread-local id probe plus two indexed loads — no
//! allocation and no string compares. Every read view iterates in key
//! (byte) order, so the ids never show in output. Counter tracks (sampled
//! time series destined for Perfetto counter tracks) are `String`-keyed
//! `BTreeMap`s because they are only ever fed from enabled-only code.

use std::collections::BTreeMap;

use simcore::Keyed;

use crate::hist::Histogram;

/// Registry of named metrics.
#[derive(Debug, Default)]
pub struct Metrics {
    counters: Keyed<u64>,
    gauges: Keyed<i64>,
    hists: Keyed<Histogram>,
    /// Sampled `(t_ns, value)` series rendered as Perfetto counter tracks.
    tracks: BTreeMap<String, Vec<(u64, f64)>>,
}

impl Metrics {
    /// Create an empty registry.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Add `n` to counter `key`.
    #[inline]
    pub fn counter_add(&mut self, key: &'static str, n: u64) {
        *self.counters.slot(key) += n;
    }

    /// Read a counter (0 if never touched).
    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// Set gauge `key` to `v`.
    #[inline]
    pub fn gauge_set(&mut self, key: &'static str, v: i64) {
        *self.gauges.slot(key) = v;
    }

    /// Add `delta` to gauge `key`.
    #[inline]
    pub fn gauge_add(&mut self, key: &'static str, delta: i64) {
        *self.gauges.slot(key) += delta;
    }

    /// Read a gauge (0 if never touched).
    pub fn gauge(&self, key: &str) -> i64 {
        self.gauges.get(key).copied().unwrap_or(0)
    }

    /// Record `v` into histogram `key`.
    #[inline]
    pub fn hist_record(&mut self, key: &'static str, v: u64) {
        self.hists.slot(key).record(v);
    }

    /// Read a histogram.
    pub fn hist(&self, key: &str) -> Option<&Histogram> {
        self.hists.get(key)
    }

    /// Append a `(t_ns, value)` sample to counter track `name`.
    pub fn track_sample(&mut self, name: &str, t_ns: u64, v: f64) {
        if let Some(series) = self.tracks.get_mut(name) {
            series.push((t_ns, v));
        } else {
            self.tracks.insert(name.to_string(), vec![(t_ns, v)]);
        }
    }

    /// Iterate counters in key order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(k, v)| (k, *v))
    }

    /// Iterate gauges in key order.
    pub fn gauges(&self) -> impl Iterator<Item = (&'static str, i64)> + '_ {
        self.gauges.iter().map(|(k, v)| (k, *v))
    }

    /// Iterate histograms in key order.
    pub fn hists(&self) -> impl Iterator<Item = (&'static str, &Histogram)> + '_ {
        self.hists.iter()
    }

    /// Iterate counter tracks in name order.
    pub fn tracks(&self) -> impl Iterator<Item = (&str, &[(u64, f64)])> + '_ {
        self.tracks.iter().map(|(k, v)| (k.as_str(), v.as_slice()))
    }

    /// One named track's samples.
    pub fn track(&self, name: &str) -> Option<&[(u64, f64)]> {
        self.tracks.get(name).map(|v| v.as_slice())
    }

    /// Replace counter track `name` wholesale. Used by the sharded-world
    /// merge to rebuild cumulative series (e.g. `parcels.in_flight`)
    /// from per-lane running values after [`Metrics::merge`] interleaved
    /// the raw samples.
    pub fn track_replace(&mut self, name: &str, series: Vec<(u64, f64)>) {
        if series.is_empty() {
            self.tracks.remove(name);
        } else {
            self.tracks.insert(name.to_string(), series);
        }
    }

    /// Fold `other` into `self`: counters sum, gauges take `other`'s
    /// value, histograms merge, track series interleave in time order —
    /// equivalent to one registry having recorded the union of both
    /// sample streams (see the property tests in `tests/profile_props.rs`).
    pub fn merge(&mut self, other: &Metrics) {
        for (k, &v) in other.counters.iter() {
            *self.counters.slot(k) += v;
        }
        for (k, &v) in other.gauges.iter() {
            *self.gauges.slot(k) = v;
        }
        for (k, h) in other.hists.iter() {
            self.hists.slot(k).merge(h);
        }
        for (k, series) in &other.tracks {
            let dst = self.tracks.entry(k.clone()).or_default();
            dst.extend(series.iter().copied());
            dst.sort_by_key(|&(t, _)| t);
        }
    }
}

/// What kind of synchronization object a contention row describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResourceKind {
    /// Blocking lock ([`simcore::SimLock`]) — the mpi `ucp_progress` model.
    Lock,
    /// Non-blocking try-lock ([`simcore::SimTryLock`]).
    TryLock,
    /// Serialized service center ([`simcore::SimResource`]).
    Resource,
}

impl ResourceKind {
    /// Short display form.
    pub fn label(self) -> &'static str {
        match self {
            ResourceKind::Lock => "lock",
            ResourceKind::TryLock => "trylock",
            ResourceKind::Resource => "resource",
        }
    }
}

/// Accumulated wait-vs-service time for one named resource.
#[derive(Debug, Clone, Copy)]
pub struct ContentionStat {
    /// What the underlying object is.
    pub kind: ResourceKind,
    /// Total acquisitions/accesses/attempts.
    pub events: u64,
    /// Events that experienced contention (waited, queued, or failed the
    /// try).
    pub contended: u64,
    /// Total time spent waiting (spin/park/queue) before service, ns.
    pub total_wait_ns: u64,
    /// Total time spent in service / holding the object, ns.
    pub total_service_ns: u64,
}

impl ContentionStat {
    fn new(kind: ResourceKind) -> Self {
        ContentionStat { kind, events: 0, contended: 0, total_wait_ns: 0, total_service_ns: 0 }
    }

    /// Mean wait per event, ns.
    pub fn mean_wait_ns(&self) -> f64 {
        if self.events == 0 {
            0.0
        } else {
            self.total_wait_ns as f64 / self.events as f64
        }
    }
}

/// Per-resource contention attribution, fed by the `simcore::probe` hook.
#[derive(Debug, Default)]
pub struct ContentionTable {
    rows: Keyed<ContentionStat>,
}

impl ContentionTable {
    /// Create an empty table.
    pub fn new() -> Self {
        ContentionTable::default()
    }

    /// Record one event against `name`.
    #[inline]
    pub fn record(
        &mut self,
        name: &'static str,
        kind: ResourceKind,
        wait_ns: u64,
        service_ns: u64,
        contended: bool,
    ) {
        let row = self.rows.slot_with(name, || ContentionStat::new(kind));
        row.events += 1;
        row.contended += contended as u64;
        row.total_wait_ns += wait_ns;
        row.total_service_ns += service_ns;
    }

    /// Fold `other`'s rows into this table (events/wait/service sum per
    /// resource name) — the sharded-world merge. Equivalent to one table
    /// having observed both event streams.
    pub fn merge(&mut self, other: &ContentionTable) {
        for (name, s) in other.rows.iter() {
            let row = self.rows.slot_with(name, || ContentionStat::new(s.kind));
            row.events += s.events;
            row.contended += s.contended;
            row.total_wait_ns += s.total_wait_ns;
            row.total_service_ns += s.total_service_ns;
        }
    }

    /// Rows ranked by total wait time, descending (name breaks ties).
    pub fn ranking(&self) -> Vec<(&'static str, ContentionStat)> {
        let mut v: Vec<_> = self.rows.iter().map(|(k, s)| (k, *s)).collect();
        v.sort_by(|a, b| b.1.total_wait_ns.cmp(&a.1.total_wait_ns).then(a.0.cmp(b.0)));
        v
    }

    /// Look up one row.
    pub fn get(&self, name: &str) -> Option<&ContentionStat> {
        self.rows.get(name)
    }

    /// Number of distinct resources seen.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_hists() {
        let mut m = Metrics::new();
        m.counter_add("a", 2);
        m.counter_add("a", 3);
        m.gauge_set("g", 7);
        m.gauge_add("g", -2);
        m.hist_record("h", 100);
        m.hist_record("h", 200);
        assert_eq!(m.counter("a"), 5);
        assert_eq!(m.gauge("g"), 5);
        assert_eq!(m.hist("h").unwrap().count(), 2);
        assert_eq!(m.counters().count(), 1);
    }

    #[test]
    fn track_series_accumulate() {
        let mut m = Metrics::new();
        m.track_sample("q", 10, 1.0);
        m.track_sample("q", 20, 2.0);
        let (name, series) = m.tracks().next().unwrap();
        assert_eq!(name, "q");
        assert_eq!(series, &[(10, 1.0), (20, 2.0)]);
    }

    #[test]
    fn contention_ranking_orders_by_wait() {
        let mut t = ContentionTable::new();
        t.record("small", ResourceKind::TryLock, 10, 5, false);
        t.record("big", ResourceKind::Lock, 1000, 50, true);
        t.record("big", ResourceKind::Lock, 500, 50, true);
        let ranking = t.ranking();
        assert_eq!(ranking[0].0, "big");
        assert_eq!(ranking[0].1.total_wait_ns, 1500);
        assert_eq!(ranking[0].1.contended, 2);
        assert_eq!(ranking[1].0, "small");
        assert!(t.get("big").unwrap().mean_wait_ns() > 0.0);
    }
}
