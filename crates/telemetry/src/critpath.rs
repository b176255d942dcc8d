//! Critical-path extraction from the causal provenance log.
//!
//! The causal log (see [`simcore::causal`]) gives every executed event a
//! parent — the event that scheduled it — so the *makespan critical path*
//! is simply the parent chain of the last executed event: by induction,
//! each event on the chain could not have fired earlier without its parent
//! firing earlier. Walking that chain backwards and carving each
//! inter-event interval with the time marks owned by the earlier event
//! (lock wait/hold, resource service, wire transit) partitions the entire
//! run duration into labeled components with **no gaps and no double
//! counting**: the sum of per-component on-path time equals the makespan
//! exactly. Unmarked residue is attributed to `cpu` (plain event work) and
//! the span before the first on-path event to `startup`.
//!
//! Per-parcel critical paths come from the flow tracer instead: each
//! delivered parcel's stage timestamps telescope into a component
//! partition of its end-to-end latency.

use std::collections::HashMap;
use std::fmt::Write as _;

use simcore::causal::{CausalLog, MarkKind, MarkRec};
use simcore::escape_json;

use crate::flow::{stage, FlowRec, UNSET};

/// One labeled interval on a critical path. Segments are contiguous:
/// each starts where the previous one ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathSegment {
    /// Component label (`"ucp_progress"`, `"ucp_progress.wait"`,
    /// `"net.wire"`, `"cpu"`, `"startup"`, ...).
    pub component: String,
    /// Interval start, ns.
    pub start: u64,
    /// Interval end, ns.
    pub end: u64,
}

impl PathSegment {
    /// Interval length, ns.
    pub fn len_ns(&self) -> u64 {
        self.end - self.start
    }
}

/// Aggregated time one component spends on the critical path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComponentShare {
    /// Component label.
    pub component: String,
    /// Total on-path time, ns.
    pub on_path_ns: u64,
}

/// The makespan critical path of one instrumented run — the one
/// critical-path type: [`crate::RunRecord`] holds it, and the
/// `--critpath` text and JSON reports render it.
#[derive(Debug, Clone, Default)]
pub struct CritPath {
    /// Configuration name the run was made under (for reports).
    pub config: String,
    /// Makespan: virtual time of the last executed event, ns. The segment
    /// lengths sum to exactly this value.
    pub total_ns: u64,
    /// The path, as contiguous labeled intervals covering `[0, total_ns]`.
    pub segments: Vec<PathSegment>,
    /// Per-component on-path time, ranked descending (ties by name).
    pub components: Vec<ComponentShare>,
    /// Causal node ids on the path, root first. In memory only, for the
    /// Chrome overlay: records do not serialize them, and equality
    /// ignores them.
    pub path_nodes: Vec<u64>,
    /// Sum of the bandwidth-independent (pure latency) portion of on-path
    /// wire segments — what a wire-latency what-if knob scales.
    pub wire_fixed_ns: u64,
    /// Number of events on the path.
    pub events_on_path: usize,
    /// Whether the causal log hit its memory guard (path may be partial).
    pub truncated: bool,
}

impl PartialEq for CritPath {
    fn eq(&self, other: &CritPath) -> bool {
        self.config == other.config
            && self.total_ns == other.total_ns
            && self.segments == other.segments
            && self.components == other.components
            && self.wire_fixed_ns == other.wire_fixed_ns
            && self.events_on_path == other.events_on_path
            && self.truncated == other.truncated
    }
}

fn push_segment(segments: &mut Vec<PathSegment>, component: &str, start: u64, end: u64) {
    if end <= start {
        return;
    }
    // Coalesce with a contiguous predecessor of the same component.
    if let Some(last) = segments.last_mut() {
        if last.end == start && last.component == component {
            last.end = end;
            return;
        }
    }
    segments.push(PathSegment { component: component.to_string(), start, end });
}

/// Carve `[t_p, t_c]` using `marks` (owned by the earlier event, in
/// emission order), first mark wins on overlap, residue attributed to
/// `cpu`.
fn carve(
    segments: &mut Vec<PathSegment>,
    wire_fixed: &mut u64,
    marks: impl Iterator<Item = MarkRec>,
    t_p: u64,
    t_c: u64,
) {
    if t_c <= t_p {
        return;
    }
    let mut ms: Vec<MarkRec> = marks.filter(|m| m.end > t_p && m.start < t_c).collect();
    // Stable: equal starts keep emission order (e.g. a resource's wait
    // mark sorts before a later, wider serialize mark at the same start).
    ms.sort_by_key(|m| m.start);
    let mut cursor = t_p;
    for m in ms {
        let s = m.start.max(cursor);
        let e = m.end.min(t_c);
        if e <= s {
            continue;
        }
        push_segment(segments, "cpu", cursor, s);
        match m.kind {
            MarkKind::Wait => {
                push_segment(segments, &format!("{}.wait", m.label), s, e);
            }
            MarkKind::Wire => {
                push_segment(segments, m.label, s, e);
                *wire_fixed += m.fixed.min(e - s);
            }
            MarkKind::Hold | MarkKind::Work => {
                push_segment(segments, m.label, s, e);
            }
        }
        cursor = e;
    }
    push_segment(segments, "cpu", cursor, t_c);
}

impl CritPath {
    /// Extract the makespan critical path from `log`. An empty log yields
    /// a `CritPath` with `total_ns == 0`.
    pub fn from_log(config: &str, log: &CausalLog) -> CritPath {
        log.with_view(|view| {
            let (base, nodes) = (view.base(), view.nodes().len());
            let mut cp = CritPath {
                config: config.to_string(),
                total_ns: 0,
                segments: Vec::new(),
                components: Vec::new(),
                path_nodes: Vec::new(),
                wire_fixed_ns: 0,
                events_on_path: 0,
                truncated: log.truncated(),
            };
            if nodes == 0 {
                return cp;
            }
            let node = |id: u64| view.node((id - base) as usize);
            let last_id = base + nodes as u64 - 1;
            cp.total_ns = node(last_id).at;

            // Parent-chain walk; parents below `base` (recording started
            // mid-run) or non-decreasing ids (corruption guard) stop it.
            let mut path = vec![last_id];
            let mut cur = last_id;
            loop {
                let parent = node(cur).parent;
                if parent < base || parent >= cur {
                    break;
                }
                path.push(parent);
                cur = parent;
            }
            path.reverse();
            cp.events_on_path = path.len();

            let t_root = node(path[0]).at;
            push_segment(&mut cp.segments, "startup", 0, t_root);
            for w in path.windows(2) {
                let (p, c) = (w[0], w[1]);
                let (t_p, t_c) = (node(p).at, node(c).at);
                carve(&mut cp.segments, &mut cp.wire_fixed_ns, view.marks_of(p), t_p, t_c);
            }
            cp.path_nodes = path;

            debug_assert_eq!(
                cp.segments.iter().map(PathSegment::len_ns).sum::<u64>(),
                cp.total_ns,
                "critical-path segments must partition the makespan",
            );

            let mut agg: HashMap<&str, u64> = HashMap::new();
            for s in &cp.segments {
                *agg.entry(s.component.as_str()).or_default() += s.len_ns();
            }
            let mut components: Vec<ComponentShare> = agg
                .into_iter()
                .map(|(c, ns)| ComponentShare { component: c.to_string(), on_path_ns: ns })
                .collect();
            components.sort_by(|a, b| {
                b.on_path_ns.cmp(&a.on_path_ns).then_with(|| a.component.cmp(&b.component))
            });
            cp.components = components;
            cp
        })
    }

    /// On-path time of `component`, ns (0 when absent).
    pub fn component_ns(&self, component: &str) -> u64 {
        self.components.iter().find(|c| c.component == component).map(|c| c.on_path_ns).unwrap_or(0)
    }

    /// Ranked human-readable report.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "critical path [{}]: {:.3} us over {} events ({} segments{})",
            self.config,
            self.total_ns as f64 / 1e3,
            self.events_on_path,
            self.segments.len(),
            if self.truncated { ", TRUNCATED" } else { "" },
        );
        let _ = writeln!(out, "  {:<28} {:>12} {:>8}", "component", "on-path us", "share");
        for c in &self.components {
            let share =
                if self.total_ns == 0 { 0.0 } else { c.on_path_ns as f64 / self.total_ns as f64 };
            let _ = writeln!(
                out,
                "  {:<28} {:>12.3} {:>7.1}%",
                c.component,
                c.on_path_ns as f64 / 1e3,
                share * 100.0,
            );
        }
        out
    }

    /// Machine-readable JSON report.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"config\":\"{}\",\"total_ns\":{},\"events_on_path\":{},\
             \"segments\":{},\"wire_fixed_ns\":{},\"truncated\":{},\"components\":[",
            escape_json(&self.config),
            self.total_ns,
            self.events_on_path,
            self.segments.len(),
            self.wire_fixed_ns,
            self.truncated,
        );
        for (i, c) in self.components.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"component\":\"{}\",\"on_path_ns\":{}}}",
                escape_json(&c.component),
                c.on_path_ns,
            );
        }
        out.push_str("]}");
        out
    }
}

/// One delivered parcel's critical path: its stage timeline telescoped
/// into a partition of its end-to-end latency.
#[derive(Debug, Clone)]
pub struct ParcelPath {
    /// Index of the flow in the tracer's record order.
    pub flow: usize,
    /// Source locality.
    pub src: usize,
    /// Destination locality.
    pub dst: usize,
    /// End-to-end latency (deliver − put), ns. Segment lengths sum to
    /// exactly this value.
    pub total_ns: u64,
    /// Contiguous per-stage intervals covering `[put, deliver]`, each
    /// named after the stage it *enters* (`"queue"`, `"serialize"`,
    /// `"inject"`, `"wire"`, `"match"`, `"deliver"`).
    pub segments: Vec<PathSegment>,
}

/// Build per-parcel critical paths for every delivered flow.
///
/// Stage timestamps are clipped to `[put, deliver]` and made monotone, so
/// the telescoped segments always partition the end-to-end latency even
/// if a stage was stamped out of order.
pub fn parcel_paths(flows: &[FlowRec]) -> Vec<ParcelPath> {
    let mut out = Vec::new();
    for (i, f) in flows.iter().enumerate() {
        let (Some(put), Some(deliver)) = (f.at(stage::PUT), f.at(stage::DELIVER)) else {
            continue;
        };
        let mut segments = Vec::new();
        let mut prev = put;
        for s in (stage::PUT + 1)..=stage::DELIVER {
            if f.stages[s] == UNSET && s != stage::DELIVER {
                continue;
            }
            let t = f.stages[s].clamp(put, deliver).max(prev);
            push_segment(&mut segments, crate::flow::STAGE_NAMES[s], prev, t);
            prev = t;
        }
        let (src, dst) = (f.src as usize, f.dst as usize);
        out.push(ParcelPath { flow: i, src, dst, total_ns: deliver - put, segments });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::causal;
    use simcore::SimTime;

    fn ns(v: u64) -> SimTime {
        SimTime::from_nanos(v)
    }

    /// Build a small synthetic run:
    ///   node 1 @100 (root, startup before it)
    ///   node 2 @300, parent 1; node 1 owns lock wait [120,180] + hold
    ///   [180,260] in the gap
    ///   node 3 @1000, parent 2; node 2 owns a wire mark [400,900] fixed 450
    ///   node 4 @1200, parent 1 (off-path side branch)
    fn synthetic_log() -> std::rc::Rc<CausalLog> {
        let log = CausalLog::new();
        simcore::probe::install(log.clone());
        causal::on_execute(1, 100, 0);
        causal::mark("ucp", MarkKind::Wait, ns(120), ns(180), 0);
        causal::mark("ucp", MarkKind::Hold, ns(180), ns(260), 0);
        causal::on_execute(2, 300, 1);
        causal::mark("net.wire", MarkKind::Wire, ns(400), ns(900), 450);
        causal::on_execute(3, 1000, 2);
        causal::end_execute();
        simcore::probe::uninstall();
        log
    }

    #[test]
    fn segments_partition_makespan_exactly() {
        let cp = CritPath::from_log("test", &synthetic_log());
        assert_eq!(cp.total_ns, 1000);
        assert_eq!(cp.path_nodes, vec![1, 2, 3]);
        let sum: u64 = cp.segments.iter().map(PathSegment::len_ns).sum();
        assert_eq!(sum, cp.total_ns);
        // Contiguity from 0 to the makespan.
        let mut cursor = 0;
        for s in &cp.segments {
            assert_eq!(s.start, cursor);
            cursor = s.end;
        }
        assert_eq!(cursor, 1000);
        // Component attribution: startup 100, ucp.wait 60, ucp 80,
        // net.wire 500, cpu = rest (40 + 100 + 120? -> 1000-740=260).
        assert_eq!(cp.component_ns("startup"), 100);
        assert_eq!(cp.component_ns("ucp.wait"), 60);
        assert_eq!(cp.component_ns("ucp"), 80);
        assert_eq!(cp.component_ns("net.wire"), 500);
        assert_eq!(cp.component_ns("cpu"), 260);
        assert_eq!(cp.wire_fixed_ns, 450);
        // Ranked descending.
        assert_eq!(cp.components[0].component, "net.wire");
    }

    #[test]
    fn overlapping_marks_first_wins() {
        let log = CausalLog::new();
        simcore::probe::install(log.clone());
        causal::on_execute(1, 0, 0);
        // Wait emitted first at the same start, then a wider work mark:
        // the wait keeps its prefix, the work claims only the rest.
        causal::mark("q", MarkKind::Wait, ns(0), ns(40), 0);
        causal::mark("serialize", MarkKind::Work, ns(0), ns(100), 0);
        causal::on_execute(2, 100, 1);
        causal::end_execute();
        simcore::probe::uninstall();
        let cp = CritPath::from_log("t", &log);
        assert_eq!(cp.component_ns("q.wait"), 40);
        assert_eq!(cp.component_ns("serialize"), 60);
        assert_eq!(cp.total_ns, 100);
    }

    #[test]
    fn marks_are_clipped_to_the_edge_interval() {
        let log = CausalLog::new();
        simcore::probe::install(log.clone());
        causal::on_execute(1, 0, 0);
        // Hold extends past the child's start: only the on-path part counts.
        causal::mark("lock", MarkKind::Hold, ns(10), ns(500), 0);
        causal::on_execute(2, 50, 1);
        causal::end_execute();
        simcore::probe::uninstall();
        let cp = CritPath::from_log("t", &log);
        assert_eq!(cp.component_ns("lock"), 40);
        assert_eq!(cp.component_ns("cpu"), 10);
    }

    #[test]
    fn empty_log_is_zero_total() {
        let cp = CritPath::from_log("t", &CausalLog::new());
        assert_eq!(cp.total_ns, 0);
        assert!(cp.segments.is_empty());
    }

    #[test]
    fn to_json_is_valid_and_to_text_ranks() {
        let cp = CritPath::from_log("fig8", &synthetic_log());
        let parsed = crate::json::parse(&cp.to_json()).expect("valid json");
        assert_eq!(parsed.get("total_ns").unwrap().as_f64().unwrap() as u64, 1000);
        let text = cp.to_text();
        assert!(text.contains("net.wire"));
        assert!(text.contains("fig8"));
    }

    #[test]
    fn parcel_paths_telescope_exactly() {
        let mut tracer = crate::flow::FlowTracer::new();
        let id = tracer.begin(0, 1, 0, ns(100));
        tracer.mark(id, stage::SERIALIZE, ns(150), 0);
        tracer.mark(id, stage::INJECT, ns(200), 0);
        tracer.mark(id, stage::WIRE, ns(700), 0);
        tracer.mark(id, stage::DELIVER, ns(900), 0);
        // An undelivered flow is skipped.
        tracer.begin(0, 1, 0, ns(100));
        let paths = parcel_paths(tracer.flows());
        assert_eq!(paths.len(), 1);
        let p = &paths[0];
        assert_eq!(p.total_ns, 800);
        let sum: u64 = p.segments.iter().map(PathSegment::len_ns).sum();
        assert_eq!(sum, p.total_ns);
        let mut cursor = 100;
        for s in &p.segments {
            assert_eq!(s.start, cursor);
            cursor = s.end;
        }
        assert_eq!(cursor, 900);
        let names: Vec<&str> = p.segments.iter().map(|s| s.component.as_str()).collect();
        assert_eq!(names, ["serialize", "inject", "wire", "deliver"]);
    }

    #[test]
    fn out_of_order_stage_timestamps_still_partition() {
        let mut tracer = crate::flow::FlowTracer::new();
        let id = tracer.begin(0, 1, 0, ns(100));
        tracer.mark(id, stage::SERIALIZE, ns(400), 0);
        tracer.mark(id, stage::INJECT, ns(300), 0); // stamped before serialize
        tracer.mark(id, stage::DELIVER, ns(500), 0);
        let p = &parcel_paths(tracer.flows())[0];
        let sum: u64 = p.segments.iter().map(PathSegment::len_ns).sum();
        assert_eq!(sum, p.total_ns);
    }
}
