//! Chrome-trace / Perfetto JSON export: core spans, SLO alert markers,
//! parcel flow arrows, and counter tracks, in one event array.

use std::collections::HashSet;
use std::fmt::Write as _;

use simcore::escape_json;

use crate::critpath::CritPath;
use crate::flow::{stage, FlowRec};
use crate::metrics::Metrics;
use crate::timeline::SloAlert;

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// One span of core activity: `label` ran on `core` of its locality over
/// `[start, end]` virtual ns. The collector keeps these grouped by
/// locality (`spans[loc]`, in recording order), so the span carries no
/// locality of its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreSpan {
    /// Core index within the locality.
    pub core: u32,
    /// What ran (`task`, `background`, `progress`).
    pub label: &'static str,
    /// Span start, ns.
    pub start: u64,
    /// Span end, ns.
    pub end: u64,
}

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
    spans: &[Vec<CoreSpan>],
    alerts: &[SloAlert],
    flows: &[FlowRec],
    metrics: &Metrics,
) -> String {
    render(spans, alerts, flows, metrics, None)
}

/// [`chrome_trace`] plus a critical-path overlay: the path's segments as
/// spans on a dedicated `critpath` track, a `critpath.total_us` counter
/// carrying the makespan, and parcels whose delivery event lies on the
/// path renamed `parcel (critical)` so on-path flow arrows stand out.
pub fn chrome_trace_with_critpath(
    spans: &[Vec<CoreSpan>],
    alerts: &[SloAlert],
    flows: &[FlowRec],
    metrics: &Metrics,
    cp: &CritPath,
) -> String {
    render(spans, alerts, flows, metrics, Some(cp))
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

fn render(
    spans: &[Vec<CoreSpan>],
    alerts: &[SloAlert],
    flows: &[FlowRec],
    metrics: &Metrics,
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
        for s in spans {
            let (tid, dur) = (core_track(loc, s.core as usize), s.end.saturating_sub(s.start));
            complete_span(&mut out, s.label, None, s.start, dur, &tid, None);
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
        let src_tid = core_track(f.src, f.src_core);
        let dst_tid = core_track(f.dst, f.dst_core);
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

    for (name, series) in metrics.tracks() {
        // Samples arrive in event-execution order, but some are stamped
        // with future instants (delivery times, wire-free times), so
        // each track must be re-sorted to keep its timeline monotone.
        let mut series = series.to_vec();
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
    use simcore::SimTime;

    fn span(core: u32, label: &'static str, start: u64, end: u64) -> CoreSpan {
        CoreSpan { core, label, start, end }
    }

    #[test]
    fn full_export_parses_and_contains_flow_pair() {
        let spans = vec![vec![span(0, "task", 0, 5_000)]];
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
        let spans = vec![vec![span(0, "task", 0, 10)], vec![span(2, "progress", 3_000, 5_000)]];
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
