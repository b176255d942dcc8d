//! Chrome-trace / Perfetto JSON export: core spans, SLO alert markers,
//! parcel flow arrows, and counter tracks, in one event array.

use std::collections::{BTreeMap, HashSet};
use std::fmt::Write as _;

use simcore::{escape_json, keyed, varint, Blocks};

use crate::critpath::CritPath;
use crate::flow::{stage, FlowRec};
use crate::metrics::Metrics;
use crate::timeline::SloAlert;

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// One span of core activity: [`CoreSpan::label`] ran on `core` of its
/// locality over `[start, end]` virtual ns: the read view of a stored
/// span. The collector keeps these grouped by locality (`spans[loc]`, a
/// [`CoreSpans`] stream in recording order), so the span carries no
/// locality of its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreSpan {
    /// Core index within the locality.
    pub core: u32,
    /// Keyed id ([`simcore::keyed`]) of what ran.
    label: u32,
    /// Span start, ns.
    pub start: u64,
    /// Span end, ns.
    pub end: u64,
}

const _: () = assert!(std::mem::size_of::<CoreSpan>() <= 24);

impl CoreSpan {
    /// `label` (`task`, `background`, `progress`) ran on `core` over
    /// `[start, end]` ns.
    pub fn new(core: u32, label: &'static str, start: u64, end: u64) -> CoreSpan {
        CoreSpan { core, label: keyed::id_of(label), start, end }
    }

    /// What ran.
    pub fn label(&self) -> &'static str {
        keyed::key(self.label)
    }
}

// A core span is stored as one record of LEB128 varints
// ([`simcore::varint`]): `core, label id, zigzag(start - prev_start),
// zigzag(end - start)`, both differences wrapping, so any `u64` times
// round-trip (`end < start` included). Spans of one locality start close
// together and last a few µs, so a record takes about 7 bytes.

/// Bytes of the longest span record.
const MAX_SPAN: usize = 5 + 5 + 2 * varint::MAX;

/// Span records in 16 KiB blocks.
type SpanBytes = Blocks<u8, { 16 << 10 }>;

/// One locality's core spans, in recording order, as a stream of span
/// records in 16 KiB blocks: a locality that ran little keeps little.
#[derive(Debug, Clone, Default)]
pub struct CoreSpans {
    bytes: SpanBytes,
    /// Spans stored.
    len: usize,
    /// Start of the last span (0 before the first).
    last_start: u64,
}

impl CoreSpans {
    /// An empty list; allocates nothing.
    pub const fn new() -> Self {
        CoreSpans { bytes: Blocks::new(), len: 0, last_start: 0 }
    }

    /// Append `span`.
    #[inline]
    pub fn push(&mut self, span: CoreSpan) {
        let (dt, dur) =
            (span.start.wrapping_sub(self.last_start), span.end.wrapping_sub(span.start));
        self.bytes.append(|window: &mut [u8; MAX_SPAN]| {
            let mut pos = 0;
            for v in [
                span.core as u64,
                span.label as u64,
                varint::zigzag(dt as i64),
                varint::zigzag(dur as i64),
            ] {
                varint::put(window, &mut pos, v);
            }
            pos
        });
        self.last_start = span.start;
        self.len += 1;
    }

    /// Append every span of `other` after this list's: `other` itself
    /// when this list is empty, as a lane's list is at the merge.
    pub fn append(&mut self, other: CoreSpans) {
        if self.is_empty() {
            *self = other;
        } else {
            for span in other.iter() {
                self.push(span);
            }
        }
    }

    /// Spans stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no span is stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// `(stored, reserved)` bytes of the stream.
    pub fn bytes(&self) -> (usize, usize) {
        (self.bytes.len(), self.bytes.capacity())
    }

    /// Every span, in recording order, decoded from the stream.
    pub fn iter(&self) -> Spans<'_> {
        Spans { bytes: &self.bytes, pos: 0, start: 0, left: self.len }
    }
}

/// Decodes a [`CoreSpans`] stream front to back.
#[derive(Debug, Clone)]
pub struct Spans<'a> {
    bytes: &'a SpanBytes,
    pos: usize,
    /// Start of the span read last.
    start: u64,
    /// Spans not yet read.
    left: usize,
}

impl Iterator for Spans<'_> {
    type Item = CoreSpan;

    #[inline]
    fn next(&mut self) -> Option<CoreSpan> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        let mut scratch = [0; MAX_SPAN];
        let window = self.bytes.window(self.pos, &mut scratch);
        let mut p = 0;
        let mut field = || varint::get(window, &mut p);
        let (core, label) = (field() as u32, field() as u32);
        let start = self.start.wrapping_add(varint::unzigzag(field()) as u64);
        let end = start.wrapping_add(varint::unzigzag(field()) as u64);
        self.pos += p;
        self.start = start;
        Some(CoreSpan { core, label, start, end })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for Spans<'_> {}

/// The Chrome track of `core` on locality `loc`.
fn core_track(loc: usize, core: usize) -> String {
    format!("loc{loc}/core{core}")
}

/// Render a combined Chrome-trace JSON document.
///
/// * `spans` — core activity grouped by locality (`spans[loc]`), one
///   `tid` per `locN/coreM` track, as the collector records it.
/// * `alerts` — SLO alerts, each a zero-duration `alert` marker on its
///   `slo/<rule>` track.
/// * flows — every delivered parcel contributes a send slice on its source
///   core track, a deliver slice on its destination core track, and a
///   flow-event pair (`ph:"s"` / `ph:"f"`) so Perfetto draws an arrow from
///   the sending core to the delivering core across localities.
/// * counter tracks — sampled series (queue depths, utilization) as
///   `ph:"C"` events.
pub fn chrome_trace(
    spans: &[CoreSpans],
    alerts: &[SloAlert],
    flows: &[FlowRec],
    metrics: &Metrics,
) -> String {
    render(spans, alerts, flows, metrics, &[], None)
}

/// Append one complete-span event (`"ph":"X"`) to `out`, a JSON event
/// array opened with `[`: `name` on track `tid`, `dur_ns` long from
/// `start_ns`, with an optional category and parcel-flow id. Every span
/// the workspace exports goes through here — core spans, parcel slices,
/// critical-path segments, flight-recorder dumps.
pub(crate) fn complete_span(
    out: &mut String,
    name: &str,
    cat: Option<&str>,
    start_ns: u64,
    dur_ns: u64,
    tid: &str,
    flow: Option<u64>,
) {
    sep(out);
    let _ = write!(out, "{{\"name\":\"{}\",\"ph\":\"X\"", escape_json(name));
    if let Some(cat) = cat {
        let _ = write!(out, ",\"cat\":\"{}\"", escape_json(cat));
    }
    let _ = write!(
        out,
        ",\"ts\":{},\"dur\":{},\"pid\":0,\"tid\":\"{}\"",
        us(start_ns),
        us(dur_ns),
        escape_json(tid)
    );
    if let Some(id) = flow {
        let _ = write!(out, ",\"args\":{{\"flow\":{id}}}");
    }
    out.push('}');
}

/// Separate the next event in `out` from the previous one, if any.
fn sep(out: &mut String) {
    if !out.ends_with('[') {
        out.push(',');
    }
}

/// [`chrome_trace`], with the timeline's `window_tracks` merged into the
/// run's counter tracks by name and, given `cp`, a critical-path
/// overlay: the path's segments as spans on a dedicated `critpath`
/// track, a `critpath.total_us` counter carrying the makespan, and
/// parcels whose delivery event lies on the path renamed `parcel
/// (critical)` so on-path flow arrows stand out.
pub(crate) fn render(
    spans: &[CoreSpans],
    alerts: &[SloAlert],
    flows: &[FlowRec],
    metrics: &Metrics,
    window_tracks: &[(String, Vec<(u64, f64)>)],
    cp: Option<&CritPath>,
) -> String {
    let on_path: HashSet<u64> =
        cp.map(|cp| cp.path_nodes.iter().copied().collect()).unwrap_or_default();
    let mut out = String::from("[");

    if let Some(cp) = cp {
        for seg in &cp.segments {
            let (start, len) = (seg.start, seg.len_ns());
            complete_span(&mut out, &seg.component, Some("critpath"), start, len, "critpath", None);
        }
        sep(&mut out);
        let _ = write!(
            out,
            "{{\"name\":\"critpath.total_us\",\"ph\":\"C\",\"ts\":0,\"pid\":0,\
             \"args\":{{\"value\":{}}}}}",
            us(cp.total_ns),
        );
    }

    for (loc, spans) in spans.iter().enumerate() {
        for s in spans.iter() {
            let (tid, dur) = (core_track(loc, s.core as usize), s.end.saturating_sub(s.start));
            complete_span(&mut out, s.label(), None, s.start, dur, &tid, None);
        }
    }
    for a in alerts {
        complete_span(&mut out, "alert", None, a.end_ns, 0, &format!("slo/{}", a.rule), None);
    }

    for (i, f) in flows.iter().enumerate() {
        let id = i as u64 + 1;
        let (Some(put), Some(deliver)) = (f.at(stage::PUT), f.at(stage::DELIVER)) else {
            continue;
        };
        let name = if f.deliver_node != 0 && on_path.contains(&f.deliver_node) {
            "parcel (critical)"
        } else {
            "parcel"
        };
        // End of the send-side slice: injection if recorded, else a sliver.
        let send_end = f.at(stage::INJECT).unwrap_or(put + 1).max(put + 1);
        let recv_end = f.at(stage::SPAWN).unwrap_or(deliver + 1).max(deliver + 1);
        let src_tid = core_track(f.src as usize, f.src_core as usize);
        let dst_tid = core_track(f.dst as usize, f.dst_core as usize);
        complete_span(&mut out, name, Some("parcel"), put, send_end - put, &src_tid, Some(id));
        sep(&mut out);
        let _ = write!(
            out,
            "{{\"name\":\"{name}\",\"ph\":\"s\",\"cat\":\"parcel\",\"id\":{id},\"ts\":{},\
             \"pid\":0,\"tid\":\"{src_tid}\"}}",
            us(put),
        );
        let recv_dur = recv_end - deliver;
        complete_span(&mut out, name, Some("parcel"), deliver, recv_dur, &dst_tid, Some(id));
        sep(&mut out);
        let _ = write!(
            out,
            "{{\"name\":\"{name}\",\"ph\":\"f\",\"bp\":\"e\",\"cat\":\"parcel\",\"id\":{id},\
             \"ts\":{},\"pid\":0,\"tid\":\"{dst_tid}\"}}",
            us(deliver),
        );
    }

    // Every track name, in byte order, with the window series of that
    // name, which follow the run's own samples.
    let mut tracks: BTreeMap<&str, Vec<&[(u64, f64)]>> = BTreeMap::new();
    for (name, series) in window_tracks {
        tracks.entry(name).or_default().push(series);
    }
    for (name, _) in metrics.tracks() {
        tracks.entry(name).or_default();
    }
    for (name, window) in tracks {
        // Samples arrive in event-execution order, but some are stamped
        // with future instants (delivery times, wire-free times), so
        // each track must be re-sorted to keep its timeline monotone.
        let own = metrics.track(name).into_iter().flatten();
        let mut series: Vec<_> = own.chain(window.into_iter().flatten().copied()).collect();
        series.sort_by_key(|s| s.0);
        for &(t, v) in &series {
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"C\",\"ts\":{},\"pid\":0,\
                 \"args\":{{\"value\":{v}}}}}",
                escape_json(name),
                us(t),
            );
        }
    }

    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::FlowTracer;
    use proptest::prelude::*;
    use simcore::SimTime;

    fn spans(list: &[(u32, &'static str, u64, u64)]) -> CoreSpans {
        let mut spans = CoreSpans::new();
        for &(core, label, start, end) in list {
            spans.push(CoreSpan::new(core, label, start, end));
        }
        spans
    }

    /// `(core, label id, start, end)` of a decoded span.
    fn fields(s: CoreSpan) -> (u32, u32, u64, u64) {
        (s.core, s.label, s.start, s.end)
    }

    /// A list holding `list`, given as `(core, label id, start, end)`.
    fn stream(list: &[(u32, u32, u64, u64)]) -> CoreSpans {
        let mut spans = CoreSpans::new();
        for &(core, label, start, end) in list {
            spans.push(CoreSpan { core, label, start, end });
        }
        spans
    }

    /// A span drawn from `bits`, near `prev`'s start or anywhere, with
    /// edge cores, ids and ends mixed in.
    fn draw(bits: (u64, u64, u64), prev: u64) -> (u32, u32, u64, u64) {
        let (a, b, c) = bits;
        let core = [a as u32 % 8, u32::MAX, a as u32][(a >> 32) as usize % 3];
        let label =
            [b as u32 % 128, 127, 128, (b >> 8) as u32 % 4096, b as u32][(b >> 40) as usize % 5];
        let start = match (c >> 56) % 5 {
            0 => prev.wrapping_add(c % 5_000),
            1 => prev.wrapping_sub(c % 5_000),
            2 => 0,
            3 => u64::MAX,
            _ => c,
        };
        let end = match (a >> 56) % 4 {
            0 => start.wrapping_add(b % 10_000),
            1 => start.wrapping_sub(b % 100),
            2 => u64::MAX,
            _ => c.rotate_left(17),
        };
        (core, label, start, end)
    }

    #[test]
    fn span_edge_values_round_trip() {
        let edges = [
            (0, 0, 0, 0),
            (u32::MAX, u32::MAX, u64::MAX, u64::MAX),
            (3, 127, 10, 5),
            (3, 128, u64::MAX, 0),
            (1, 1 << 20, 0, u64::MAX),
            (0, 200, 5, 6),
            (u32::MAX, 128, u64::MAX - 1, u64::MAX),
        ];
        let spans = stream(&edges);
        assert_eq!((spans.len(), spans.iter().len()), (edges.len(), edges.len()));
        assert_eq!(spans.iter().map(fields).collect::<Vec<_>>(), edges);
    }

    proptest! {
        /// Any spans, over several 16 KiB blocks, decode to what was
        /// pushed, in order; appending a list onto an empty one or a
        /// non-empty one yields the concatenation.
        #[test]
        fn spans_round_trip_across_blocks(
            raw in collection::vec((any::<u64>(), any::<u64>(), any::<u64>()), 0..3_000),
            cut in 0usize..3_000,
        ) {
            let mut want = Vec::with_capacity(raw.len());
            for &bits in &raw {
                want.push(draw(bits, want.last().map_or(0, |s: &(u32, u32, u64, u64)| s.2)));
            }
            let spans = stream(&want);
            prop_assert_eq!(spans.iter().map(fields).collect::<Vec<_>>(), want.clone());
            let cut = cut.min(want.len());
            let mut joined = CoreSpans::new();
            joined.append(stream(&want[..cut]));
            joined.append(stream(&want[cut..]));
            prop_assert_eq!(joined.len(), want.len());
            prop_assert_eq!(joined.iter().map(fields).collect::<Vec<_>>(), want);
            prop_assert_eq!(joined.bytes().0, spans.bytes().0);
        }
    }

    #[test]
    fn a_span_reads_back_a_label_interned_at_run_time() {
        let name = format!("chrome.test.loc{}", 7);
        let label = simcore::keyed::intern(&name);
        let span = CoreSpan::new(3, label, 10, 20);
        assert_eq!((span.label(), span.core, span.start, span.end), (name.as_str(), 3, 10, 20));
        let json = chrome_trace(&[spans(&[(3, label, 10, 20)])], &[], &[], &Metrics::new());
        assert!(json.starts_with("[{\"name\":\"chrome.test.loc7\",\"ph\":\"X\""), "{json}");
    }

    #[test]
    fn full_export_parses_and_contains_flow_pair() {
        let spans = vec![spans(&[(0, "task", 0, 5_000)])];
        let mut f = FlowTracer::new();
        let id = f.begin(0, 1, 0, SimTime::from_nanos(100));
        f.mark(id, stage::INJECT, SimTime::from_nanos(400), 0);
        f.mark(id, stage::DELIVER, SimTime::from_nanos(3_000), 0);
        f.mark(id, stage::SPAWN, SimTime::from_nanos(3_200), 0);
        f.set_dst_core(&[id], 2);
        let mut m = Metrics::new();
        m.track_sample("queue_depth", 1_000, 3.0);
        let json = chrome_trace(&spans, &[], f.flows(), &m);
        let parsed = crate::json::parse(&json).expect("chrome json parses");
        let events = parsed.as_arr().unwrap();
        let phases: Vec<_> =
            events.iter().map(|e| e.get("ph").unwrap().as_str().unwrap()).collect();
        assert!(phases.contains(&"s") && phases.contains(&"f") && phases.contains(&"C"));
        let finish = events.iter().find(|e| e.get("ph").unwrap().as_str() == Some("f")).unwrap();
        assert_eq!(finish.get("tid").unwrap().as_str(), Some("loc1/core2"));
    }

    #[test]
    fn core_spans_and_alerts_render_as_complete_events() {
        let spans = vec![spans(&[(0, "task", 0, 10)]), spans(&[(2, "progress", 3_000, 5_000)])];
        let alert = SloAlert {
            rule: "rule\"with\\quotes".into(),
            window: 0,
            end_ns: 42,
            burn: 2.0,
            bad: 1,
            total: 1,
        };
        let json = chrome_trace(&spans, &[alert], &[], &Metrics::new());
        assert!(json.starts_with("[{\"name\":\"task\",\"ph\":\"X\",\"ts\":0,\"dur\":0.01,"));
        assert!(json.contains("\"ts\":3,\"dur\":2,\"pid\":0,\"tid\":\"loc1/core2\""), "{json}");
        assert!(json.contains("\"tid\":\"slo/rule\\\"with\\\\quotes\""), "json: {json}");
        assert!(json.contains("\"ts\":0.042,\"dur\":0,"), "json: {json}");
        assert_eq!(crate::json::parse(&json).unwrap().as_arr().unwrap().len(), 3);
    }

    #[test]
    fn undelivered_flows_are_skipped() {
        let mut f = FlowTracer::new();
        f.begin(0, 1, 0, SimTime::ZERO);
        let json = chrome_trace(&[], &[], f.flows(), &Metrics::new());
        assert_eq!(json, "[]");
    }
}
