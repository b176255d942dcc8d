//! The metrics store: counters, gauges, histograms, per-port windows and
//! counter tracks.
//!
//! Counters, histograms and fabric port accounting are kept **per
//! virtual-time window**, and only there: each key holds one [`Series`],
//! a cell per window that took a sample. With a timeline attached the
//! window width is the timeline's ([`Metrics::set_window_ns`]); without
//! one every sample lands in window 0, so a series is a single cell. Run
//! totals are derived: [`Metrics::counter`] sums a series and
//! [`Metrics::hist`] merges one, so windows merge to the totals by
//! construction.
//!
//! Series and gauges (and the contention table's rows) are
//! `&'static str`-keyed [`Keyed`] tables, the same store as
//! `simcore::Stats`: a key takes a dense slot on first touch, after which
//! an update in its current window is a thread-local id probe plus a few
//! indexed loads — no allocation and no string compares. Every read view
//! iterates in key (byte) order, so the ids never show in output. Counter
//! tracks (sampled time series destined for Perfetto counter tracks) are
//! `String`-keyed `BTreeMap`s because they are only ever fed from
//! enabled-only code.

use std::collections::BTreeMap;

use simcore::Keyed;

use crate::hist::Histogram;

/// What one window of one key holds: a counter delta, a sub-histogram,
/// or a port's accounting.
pub trait WindowCell: Default {
    /// Fold `other` into `self`, as if `self` had seen its samples too.
    fn absorb(&mut self, other: &Self);
}

impl WindowCell for u64 {
    fn absorb(&mut self, other: &u64) {
        *self += other;
    }
}

impl WindowCell for Histogram {
    fn absorb(&mut self, other: &Histogram) {
        self.merge(other);
    }
}

/// Per-window egress-port accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PortWindow {
    /// Queueing wait accumulated in the window, ns.
    pub wait_ns: u64,
    /// Packets transmitted in the window.
    pub pkts: u64,
    /// Bytes transmitted in the window.
    pub bytes: u64,
}

impl WindowCell for PortWindow {
    fn absorb(&mut self, other: &PortWindow) {
        self.wait_ns += other.wait_ns;
        self.pkts += other.pkts;
        self.bytes += other.bytes;
    }
}

/// One key's samples: a cell per window that took one, in window order.
/// Empty windows hold no cell.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Series<C> {
    cells: Vec<(u64, C)>,
}

impl<C> Series<C> {
    /// The cell of window `w`, if any sample landed there.
    pub fn get(&self, w: u64) -> Option<&C> {
        let i = self.cells.binary_search_by_key(&w, |&(cw, _)| cw).ok()?;
        Some(&self.cells[i].1)
    }

    /// `(window, cell)` for every window that took a sample, in order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &C)> + '_ {
        self.cells.iter().map(|(w, c)| (*w, c))
    }
}

impl<C: WindowCell> Series<C> {
    /// The cell of window `w`, opened on first touch; an update to an
    /// open cell never allocates.
    #[inline]
    fn cell(&mut self, w: u64) -> &mut C {
        let i = self.cells.binary_search_by_key(&w, |&(cw, _)| cw).unwrap_or_else(|i| {
            self.cells.insert(i, (w, C::default()));
            i
        });
        &mut self.cells[i].1
    }

    /// The run total: every cell folded into one.
    pub fn total(&self) -> C {
        let mut total = C::default();
        for (_, c) in &self.cells {
            total.absorb(c);
        }
        total
    }

    /// Fold `other` in, window by window.
    fn absorb(&mut self, other: &Series<C>) {
        for (w, c) in &other.cells {
            self.cell(*w).absorb(c);
        }
    }
}

/// The store of named metrics.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Window width, ns; 0 (no timeline) puts every sample in window 0.
    window_ns: u64,
    counters: Keyed<Series<u64>>,
    gauges: Keyed<i64>,
    hists: Keyed<Series<Histogram>>,
    ports: Keyed<Series<PortWindow>>,
    /// Sampled `(t_ns, value)` series rendered as Perfetto counter tracks.
    tracks: BTreeMap<String, Vec<(u64, f64)>>,
}

impl Metrics {
    /// Create an empty store whose samples all land in window 0.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Bucket samples into windows `window_ns` wide. Samples already
    /// stored cannot be re-bucketed, so this panics unless the store is
    /// still empty.
    pub fn set_window_ns(&mut self, window_ns: u64) {
        assert!(window_ns > 0, "window width must be positive");
        assert!(
            self.counters.is_empty() && self.hists.is_empty() && self.ports.is_empty(),
            "metrics already hold samples stored under one window width, which cannot be \
             re-bucketed: attach the timeline before recording"
        );
        self.window_ns = window_ns;
    }

    /// The window instant `t_ns` falls in.
    #[inline]
    fn window_of(&self, t_ns: u64) -> u64 {
        t_ns.checked_div(self.window_ns).unwrap_or(0)
    }

    /// Add `n` to counter `key` at instant `t_ns`.
    #[inline]
    pub fn counter_add(&mut self, key: &'static str, n: u64, t_ns: u64) {
        let w = self.window_of(t_ns);
        *self.counters.slot(key).cell(w) += n;
    }

    /// Read a counter's run total (0 if never touched).
    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).map_or(0, Series::total)
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

    /// Record `v` into histogram `key` at instant `t_ns`.
    #[inline]
    pub fn hist_record(&mut self, key: &'static str, v: u64, t_ns: u64) {
        let w = self.window_of(t_ns);
        self.hists.slot(key).cell(w).record(v);
    }

    /// A histogram's run total: the merge of its windows.
    pub fn hist(&self, key: &str) -> Option<Histogram> {
        self.hists.get(key).map(Series::total)
    }

    /// The sub-histogram of `key` in window `w`, if any sample landed.
    pub fn hist_window(&self, key: &str, w: u64) -> Option<&Histogram> {
        self.hists.get(key)?.get(w)
    }

    /// Record one egress-port access at instant `t_ns`.
    #[inline]
    pub fn port_access(&mut self, name: &'static str, t_ns: u64, wait_ns: u64, bytes: u64) {
        let w = self.window_of(t_ns);
        let cell = self.ports.slot(name).cell(w);
        cell.wait_ns += wait_ns;
        cell.pkts += 1;
        cell.bytes += bytes;
    }

    /// Append a `(t_ns, value)` sample to counter track `name`.
    pub fn track_sample(&mut self, name: &str, t_ns: u64, v: f64) {
        if let Some(series) = self.tracks.get_mut(name) {
            series.push((t_ns, v));
        } else {
            self.tracks.insert(name.to_string(), vec![(t_ns, v)]);
        }
    }

    /// Iterate counter run totals in key order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(k, s)| (k, s.total()))
    }

    /// Iterate gauges in key order.
    pub fn gauges(&self) -> impl Iterator<Item = (&'static str, i64)> + '_ {
        self.gauges.iter().map(|(k, v)| (k, *v))
    }

    /// Iterate histogram run totals in key order.
    pub fn hists(&self) -> impl Iterator<Item = (&'static str, Histogram)> + '_ {
        self.hists.iter().map(|(k, s)| (k, s.total()))
    }

    /// Every counter's windows, by key.
    pub fn counter_windows(&self) -> &Keyed<Series<u64>> {
        &self.counters
    }

    /// Every histogram's windows, by key.
    pub fn hist_windows(&self) -> &Keyed<Series<Histogram>> {
        &self.hists
    }

    /// Every port's windows, by name.
    pub fn port_windows(&self) -> &Keyed<Series<PortWindow>> {
        &self.ports
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

    /// Fold `other` into `self`: counter, histogram and port windows
    /// merge window by window, gauges take `other`'s value, track series
    /// interleave in time order — equivalent to one store having recorded
    /// the union of both sample streams (see the property tests in
    /// `tests/profile_props.rs`). Both stores must share a window width.
    pub fn merge(&mut self, other: &Metrics) {
        assert_eq!(self.window_ns, other.window_ns, "merging metrics of different window widths");
        for (k, s) in other.counters.iter() {
            self.counters.slot(k).absorb(s);
        }
        for (k, &v) in other.gauges.iter() {
            *self.gauges.slot(k) = v;
        }
        for (k, s) in other.hists.iter() {
            self.hists.slot(k).absorb(s);
        }
        for (k, s) in other.ports.iter() {
            self.ports.slot(k).absorb(s);
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
        m.counter_add("a", 2, 0);
        m.counter_add("a", 3, 500);
        m.gauge_set("g", 7);
        m.gauge_add("g", -2);
        m.hist_record("h", 100, 0);
        m.hist_record("h", 200, 0);
        assert_eq!(m.counter("a"), 5);
        assert_eq!(m.gauge("g"), 5);
        assert_eq!(m.hist("h").unwrap().count(), 2);
        assert_eq!(m.counters().count(), 1);
        assert_eq!(
            m.counter_windows().get("a").unwrap().iter().count(),
            1,
            "no timeline: one window"
        );
    }

    #[test]
    fn merge_folds_windows() {
        let (mut a, mut b) = (Metrics::new(), Metrics::new());
        a.set_window_ns(10);
        b.set_window_ns(10);
        a.port_access("p", 5, 1, 64);
        b.port_access("p", 25, 2, 64);
        b.port_access("p", 7, 3, 64);
        a.merge(&b);
        let p = a.port_windows().get("p").unwrap();
        assert_eq!(p.get(0), Some(&PortWindow { wait_ns: 4, pkts: 2, bytes: 128 }));
        assert_eq!(p.total(), PortWindow { wait_ns: 6, pkts: 3, bytes: 192 });
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
        assert_eq!(t.get("big").unwrap().events, 2);
    }
}
