//! The metrics store: counters, histograms, per-port windows and counter
//! tracks.
//!
//! Counters, histograms and fabric port accounting are kept **per
//! virtual-time window**, and only there: each key holds one [`Series`],
//! a cell per window that took a sample. With a timeline attached the
//! window width is the timeline's ([`Metrics::windowed`]); without
//! one every sample lands in window 0, so a series is a single cell. Run
//! totals are derived: [`Metrics::counter`] sums a series and
//! [`Metrics::hist`] merges one, so windows merge to the totals by
//! construction.
//!
//! Series (and the contention table's rows) are
//! `&'static str`-keyed [`Keyed`] tables, the same store as
//! `simcore::Stats`: a key takes a dense slot on first touch, after which
//! an update in its current window is a thread-local id probe plus a few
//! indexed loads — no allocation and no string compares. Every read view
//! iterates in key (byte) order, so the ids never show in output. Counter
//! tracks (sampled time series destined for Perfetto counter tracks) are
//! `Keyed` too: a name formatted at run time (`loc3.runq`) is interned
//! once with `simcore::keyed::intern` and cached by its caller. Each
//! track is a [`Track`], a stream of varint records read front to back.

use simcore::probe::{Access, AccessKind};
use simcore::{varint, Keyed};

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

// A counter track stores each `(t, v)` sample as one record of LEB128
// varints ([`simcore::varint`]): `zigzag(t - prev_t)` with a wrapping
// difference, so a sample stamped before the previous one and any `u64`
// time round-trip, then the value. An integral value `i` (its bits
// round-trip through `i64` and `|i| <= 2^53`) is `zigzag(i - prev_i) << 1`,
// a delta from the last integral value; any other (`-0.0`, NaN, ±inf, a
// fraction) is the tag `RAW` and its 64 bits little-endian. Queue depths
// and running totals take 2 to 4 bytes a sample; a busy-time fraction
// takes about 11.

/// The value tag of a sample stored as its raw bits.
const RAW: u64 = 1;

/// Bytes of the longest sample record: a 10-byte time delta, the tag
/// and 8 raw bytes (an integral delta's field is at most 8 bytes).
const MAX_SAMPLE: usize = varint::MAX + 1 + 8;

/// `v` as an integer the integral form stores exactly, if it is one.
fn integral(v: f64) -> Option<i64> {
    let i = v as i64;
    (i.unsigned_abs() <= 1 << 53 && (i as f64).to_bits() == v.to_bits()).then_some(i)
}

/// One counter track: its `(t_ns, value)` samples in append order, as a
/// stream of varint records. Every reader decodes the values it was
/// given, bit for bit.
#[derive(Debug, Clone, Default)]
pub struct Track {
    /// The records, in `bytes[..end]`; zeros after that, so a record is
    /// written in place.
    bytes: Vec<u8>,
    end: usize,
    /// Samples stored.
    len: usize,
    /// Time of the last sample.
    last_t: u64,
    /// The last integral value (0 before the first).
    last_int: i64,
}

impl Track {
    /// Append one sample.
    #[inline]
    pub fn push(&mut self, t: u64, v: f64) {
        if self.bytes.len() - self.end < MAX_SAMPLE {
            self.grow();
        }
        let (rec, mut pos) = (&mut self.bytes[self.end..self.end + MAX_SAMPLE], 0);
        varint::put(rec, &mut pos, varint::zigzag(t.wrapping_sub(self.last_t) as i64));
        match integral(v) {
            Some(i) => {
                varint::put(rec, &mut pos, varint::zigzag(i - self.last_int) << 1);
                self.last_int = i;
            }
            None => {
                varint::put(rec, &mut pos, RAW);
                rec[pos..pos + 8].copy_from_slice(&v.to_bits().to_le_bytes());
                pos += 8;
            }
        }
        self.end += pos;
        self.last_t = t;
        self.len += 1;
    }

    /// Make room for the longest record: the stream's capacity is a power
    /// of two, at least 64 B. A `Vec<(u64, f64)>` of the same samples
    /// holds 16 B times a power of two, at least 4, so a track whose
    /// records average well under 16 B (a run's average 3 to 11 B)
    /// reserves no more than that.
    #[cold]
    fn grow(&mut self) {
        let cap = (self.end + MAX_SAMPLE).next_power_of_two().max(64);
        self.bytes.reserve_exact(cap - self.bytes.len());
        self.bytes.resize(cap, 0);
    }

    /// Samples stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no sample is stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// `(stored, reserved)` bytes of the stream.
    pub fn bytes(&self) -> (usize, usize) {
        (self.end, self.bytes.capacity())
    }

    /// Every sample, in append order, decoded from the stream.
    pub fn iter(&self) -> Samples<'_> {
        Samples { bytes: &self.bytes[..self.end], pos: 0, t: 0, int: 0, left: self.len }
    }
}

impl<'a> IntoIterator for &'a Track {
    type Item = (u64, f64);
    type IntoIter = Samples<'a>;

    fn into_iter(self) -> Samples<'a> {
        self.iter()
    }
}

impl FromIterator<(u64, f64)> for Track {
    fn from_iter<I: IntoIterator<Item = (u64, f64)>>(samples: I) -> Track {
        let mut track = Track::default();
        for (t, v) in samples {
            track.push(t, v);
        }
        track
    }
}

/// Decodes a [`Track`]'s samples front to back.
#[derive(Debug, Clone)]
pub struct Samples<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Time of the sample read last.
    t: u64,
    /// The integral value read last.
    int: i64,
    /// Samples not yet read.
    left: usize,
}

impl Iterator for Samples<'_> {
    type Item = (u64, f64);

    #[inline]
    fn next(&mut self) -> Option<(u64, f64)> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        let dt = varint::unzigzag(varint::get(self.bytes, &mut self.pos));
        self.t = self.t.wrapping_add(dt as u64);
        let field = varint::get(self.bytes, &mut self.pos);
        let v = if field == RAW {
            let raw = &self.bytes[self.pos..self.pos + 8];
            self.pos += 8;
            f64::from_bits(u64::from_le_bytes(raw.try_into().expect("8 raw bytes")))
        } else {
            self.int += varint::unzigzag(field >> 1);
            self.int as f64
        };
        Some((self.t, v))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for Samples<'_> {}

/// The store of named metrics.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Window width, ns; 0 (no timeline) puts every sample in window 0.
    window_ns: u64,
    counters: Keyed<Series<u64>>,
    hists: Keyed<Series<Histogram>>,
    ports: Keyed<Series<PortWindow>>,
    /// Sampled `(t_ns, value)` series rendered as Perfetto counter tracks.
    tracks: Keyed<Track>,
}

impl Metrics {
    /// Create an empty store whose samples all land in window 0.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Create an empty store that buckets samples into windows
    /// `window_ns` wide.
    pub fn windowed(window_ns: u64) -> Self {
        assert!(window_ns > 0, "window width must be positive");
        Metrics { window_ns, ..Metrics::default() }
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
    #[inline]
    pub fn track_sample(&mut self, name: &'static str, t_ns: u64, v: f64) {
        self.tracks.slot(name).push(t_ns, v);
    }

    /// Iterate counter run totals in key order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(k, s)| (k, s.total()))
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

    /// Iterate counter tracks in name (byte) order.
    pub fn tracks(&self) -> impl Iterator<Item = (&'static str, &Track)> + '_ {
        self.tracks.iter()
    }

    /// One named track.
    pub fn track(&self, name: &str) -> Option<&Track> {
        self.tracks.get(name)
    }

    /// Replace counter track `name` wholesale. Used by the sharded-world
    /// merge to rebuild cumulative series (e.g. `parcels.in_flight`)
    /// from per-lane running values after [`Metrics::merge`] interleaved
    /// the raw samples.
    pub fn track_replace(
        &mut self,
        name: &'static str,
        series: impl IntoIterator<Item = (u64, f64)>,
    ) {
        let track: Track = series.into_iter().collect();
        debug_assert!(!track.is_empty(), "track {name}: a replacement keeps at least one sample");
        *self.tracks.slot(name) = track;
    }

    /// Fold `other` into `self`: counter, histogram and port windows
    /// merge window by window, track series
    /// interleave in time order — equivalent to one store having recorded
    /// the union of both sample streams (see the property tests in
    /// `tests/profile_props.rs`). Both stores must share a window width.
    pub fn merge(&mut self, other: &Metrics) {
        assert_eq!(self.window_ns, other.window_ns, "merging metrics of different window widths");
        for (k, s) in other.counters.iter() {
            self.counters.slot(k).absorb(s);
        }
        for (k, s) in other.hists.iter() {
            self.hists.slot(k).absorb(s);
        }
        for (k, s) in other.ports.iter() {
            self.ports.slot(k).absorb(s);
        }
        for (k, track) in other.tracks.iter() {
            let dst = self.tracks.slot(k);
            let mut series: Vec<_> = dst.iter().chain(track).collect();
            series.sort_by_key(|&(t, _)| t);
            *dst = series.into_iter().collect();
        }
    }
}

/// Accumulated wait-vs-service time for one named resource.
#[derive(Debug, Clone, Copy)]
pub struct ContentionStat {
    /// What the underlying object is.
    pub kind: AccessKind,
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
    fn new(kind: AccessKind) -> Self {
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

    /// Count one access against its label.
    #[inline]
    pub fn record(&mut self, a: Access) {
        let row = self.rows.slot_by_id(a.label.id, a.label.name, || ContentionStat::new(a.kind));
        row.events += 1;
        row.contended += a.contended as u64;
        row.total_wait_ns += a.wait_ns;
        row.total_service_ns += a.dur_ns;
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_hists() {
        let mut m = Metrics::new();
        m.counter_add("a", 2, 0);
        m.counter_add("a", 3, 500);
        m.hist_record("h", 100, 0);
        m.hist_record("h", 200, 0);
        assert_eq!(m.counter("a"), 5);
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
        let (mut a, mut b) = (Metrics::windowed(10), Metrics::windowed(10));
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
        let (name, track) = m.tracks().next().unwrap();
        assert_eq!(name, "q");
        assert_eq!(track.iter().collect::<Vec<_>>(), [(10, 1.0), (20, 2.0)]);
    }

    #[test]
    fn tracks_read_in_byte_order() {
        let mut m = Metrics::new();
        let names = ["loc2.runq", "loc10.runq", "amt.delivered", "loc2.sendq", "loc10.sendq"];
        for (i, name) in names.iter().enumerate() {
            m.track_sample(simcore::keyed::intern(name), i as u64, 1.0);
        }
        let order: Vec<_> = m.tracks().map(|(name, _)| name).collect();
        assert_eq!(
            order,
            ["amt.delivered", "loc10.runq", "loc10.sendq", "loc2.runq", "loc2.sendq"]
        );
        let track = m.track(&String::from("loc2.runq")).unwrap();
        assert_eq!(track.iter().collect::<Vec<_>>(), [(0, 1.0)]);
    }

    #[test]
    fn contention_ranking_orders_by_wait() {
        let mut t = ContentionTable::new();
        let access = |name, kind, wait_ns, contended| Access {
            label: simcore::probe::Label::new(name),
            kind,
            core: 0,
            now: simcore::SimTime::ZERO,
            wait_ns,
            dur_ns: 50,
            contended,
        };
        t.record(access("small", AccessKind::Resource, 10, false));
        t.record(access("big", AccessKind::Lock, 1000, true));
        t.record(access("big", AccessKind::Lock, 500, true));
        let ranking = t.ranking();
        assert_eq!(ranking[0].0, "big");
        assert_eq!(ranking[0].1.total_wait_ns, 1500);
        assert_eq!(ranking[0].1.contended, 2);
        assert_eq!(ranking[1].0, "small");
        assert_eq!(ranking[0].1.events, 2);
    }
}
