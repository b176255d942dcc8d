//! Canonical per-run artifact: the **RunRecord**.
//!
//! One self-describing JSON document per instrumented run, capturing
//! everything the cross-run differential engine ([`crate::diff`]) needs
//! to attribute a performance delta between two runs:
//!
//! * run identity — scenario, configuration, workload parameters, and
//!   any dialed cost-model knobs;
//! * every counter and histogram — histograms with their **exact
//!   bucket counts** (see [`Histogram::to_json`]), not just derived
//!   quantiles, so records stay mergeable and bucket-diffable;
//! * the exact critical-path partition (per-component on-path time plus
//!   the contiguous segment list — the PR-4 invariant that segments sum
//!   to the makespan carries over to record diffs);
//! * the per-core profile partition (five states per core);
//! * per-resource contention totals (including `fab.*` switch ports);
//! * fabric per-port totals and window digests, when the run had a
//!   windowed timeline attached.
//!
//! Everything captured is **virtual-time** data from the deterministic
//! simulation — re-running the same binary on the same inputs reproduces
//! the record byte-for-byte, which is what lets CI gate tightly on run
//! records (`perf_diff` vs `results/baselines/`). Capture happens after
//! the simulated run has finished: enabling `--record` cannot perturb the
//! event stream (pinned by the golden purity tests).
//!
//! Capture moves the collector's stores into the record ([`RunData`]),
//! beside the serialized sections, and every end-of-run report renders
//! from the record (see [`crate::report`]). Serialization and equality
//! cover the serialized sections only, so a record parsed from JSON
//! renders the critical-path, contention and core-time reports and
//! returns `None` for the reports whose data it does not carry. The
//! record writes an empty `"gauges"` object, which committed records
//! carry, and rejects a document whose `gauges` object is not empty.

use std::collections::BTreeMap;
use std::rc::Rc;

use simcore::{escape_json, CausalLog};

use crate::chrome::CoreSpans;
use crate::critpath::{ComponentShare, CritPath, PathSegment};
use crate::flow::FlowRec;
use crate::hist::Histogram;
use crate::json::{self, Value};
use crate::metrics::Metrics;
use crate::profile::{CoreProfile, CoreState, N_STATES, STATES};
use crate::timeline::Timeline;
use crate::Telemetry;

/// Schema version stamped into every record.
pub const SCHEMA_VERSION: u64 = 1;

/// Run identity, provided by the harness at capture time.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunMeta {
    /// Harness name, e.g. `fig8_latency_window_8b`.
    pub scenario: String,
    /// Configuration name, e.g. `lci_psr_cq_pin_i`.
    pub config: String,
    /// Workload parameters as ordered key/value pairs (window, steps,
    /// hosts, ...), stringified by the harness.
    pub params: Vec<(String, String)>,
    /// Cost-model knobs dialed for this run (`--knobs`), by name.
    pub knobs: Vec<String>,
    /// Engine shard count for sharded-world runs (`--shards N`); `None`
    /// for legacy single-engine runs, keeping their serialized records
    /// byte-identical to pre-sharding baselines.
    pub shards: Option<u64>,
    /// Engine run mode for sharded-world runs (`seq` / `threaded`);
    /// `None` for legacy runs.
    pub run_mode: Option<String>,
}

impl RunMeta {
    /// `scenario/config[+knob,...]` display label.
    pub fn label(&self) -> String {
        let mut s = format!("{}/{}", self.scenario, self.config);
        if !self.knobs.is_empty() {
            s.push('+');
            s.push_str(&self.knobs.join(","));
        }
        s
    }

    /// Whether two runs describe the same workload for diffing purposes:
    /// identical except possibly in engine sharding (`shards` /
    /// `run_mode`), which by the determinism contract must not change
    /// simulated results. `perf_diff` warns rather than refuses when only
    /// these differ.
    pub fn comparable_to(&self, other: &RunMeta) -> bool {
        self.scenario == other.scenario
            && self.config == other.config
            && self.params == other.params
            && self.knobs == other.knobs
    }
}

/// One core's five-state virtual-time partition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoreRecord {
    /// Locality index.
    pub loc: usize,
    /// Core index within the locality.
    pub core: usize,
    /// Attributed ns per state, in [`STATES`] order; sums to the core's
    /// elapsed time.
    pub states: [u64; N_STATES],
}

impl CoreRecord {
    /// Total attributed time of this core (the profile horizon).
    pub fn total_ns(&self) -> u64 {
        self.states.iter().sum()
    }

    /// Non-idle time.
    pub fn busy_ns(&self) -> u64 {
        self.total_ns() - self.states[CoreState::Idle as usize]
    }

    /// `state`'s share of total attributed time (0 when empty).
    pub fn share(&self, state: CoreState) -> f64 {
        let total = self.total_ns();
        if total == 0 {
            0.0
        } else {
            self.states[state as usize] as f64 / total as f64
        }
    }
}

/// One contended resource's totals (locks, resources, switch ports).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResourceRecord {
    /// Resource name (e.g. `ucp_progress`, `fab.s2.p3`).
    pub name: String,
    /// Resource kind label (`lock` / `resource`).
    pub kind: String,
    /// Acquire/use events.
    pub events: u64,
    /// Events that had to wait.
    pub contended: u64,
    /// Total queueing/spinning wait, ns.
    pub wait_ns: u64,
    /// Total hold/service time, ns.
    pub service_ns: u64,
}

impl ResourceRecord {
    /// Mean wait per event, ns (0 when no events).
    pub fn mean_wait_ns(&self) -> f64 {
        if self.events == 0 {
            0.0
        } else {
            self.wait_ns as f64 / self.events as f64
        }
    }
}

/// Per-port fabric totals (from the timeline's port accounting).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortRecord {
    /// Port name (`fab.<switch>.p<idx>`).
    pub name: String,
    /// Packets transmitted.
    pub pkts: u64,
    /// Bytes transmitted.
    pub bytes: u64,
    /// Queueing wait, ns.
    pub wait_ns: u64,
}

/// Windowed digests: per-window sample counts/sums per histogram key and
/// per-window deltas per counter key, read from the metric windows the
/// run totals are derived from. `trace_check --require-record` re-checks
/// that per-key window sums equal the totals.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WindowDigest {
    /// Window width, ns.
    pub window_ns: u64,
    /// Number of windows covering the run.
    pub num_windows: u64,
    /// Per histogram key: `(window, count, sum)` for non-empty windows.
    pub hists: BTreeMap<String, Vec<(u64, u64, u64)>>,
    /// Per counter key: `(window, delta)` for windows that took a sample.
    pub counters: BTreeMap<String, Vec<(u64, u64)>>,
}

/// The canonical cross-run artifact: one instrumented run, fully
/// described. See the module docs for the capture/diff contract.
/// Equality covers the serialized sections only, not [`RunRecord::data`].
#[derive(Debug, Clone, Default)]
pub struct RunRecord {
    /// Schema version ([`SCHEMA_VERSION`]).
    pub version: u64,
    /// Run identity.
    pub meta: RunMeta,
    /// End-to-end virtual time, ns (the critical-path makespan; falls
    /// back to the profiler horizon when no causal log was installed).
    pub end_to_end_ns: u64,
    /// Events executed (causal-log node count; wall-clock independent).
    pub events: u64,
    /// Flows started.
    pub flows_total: u64,
    /// Flows that reached delivery.
    pub flows_delivered: u64,
    /// Parcels begun after the flow tracer filled up, which have no flow
    /// (serialized only when non-zero).
    pub flows_untracked: u64,
    /// Counter totals.
    pub counters: BTreeMap<String, u64>,
    /// Full histograms with exact bucket counts.
    pub hists: BTreeMap<String, Histogram>,
    /// The critical-path partition, when a causal log was installed.
    pub critpath: Option<CritPath>,
    /// Per-core profile partitions, ordered by `(loc, core)`.
    pub profile: Vec<CoreRecord>,
    /// Per-resource contention totals, ranked by total wait.
    pub resources: Vec<ResourceRecord>,
    /// Fabric per-port totals (empty when no timeline / no ports).
    pub ports: Vec<PortRecord>,
    /// Timeline window digests, when a timeline was attached.
    pub windows: Option<WindowDigest>,
    /// The stores a capture moved out of the collector, which the other
    /// reports render from. In memory only: `None` on a parsed record.
    pub data: Option<Rc<RunData>>,
}

impl PartialEq for RunRecord {
    fn eq(&self, other: &RunRecord) -> bool {
        self.version == other.version
            && self.meta == other.meta
            && self.end_to_end_ns == other.end_to_end_ns
            && self.events == other.events
            && self.flows_total == other.flows_total
            && self.flows_delivered == other.flows_delivered
            && self.flows_untracked == other.flows_untracked
            && self.counters == other.counters
            && self.hists == other.hists
            && self.critpath == other.critpath
            && self.profile == other.profile
            && self.resources == other.resources
            && self.ports == other.ports
            && self.windows == other.windows
    }
}

/// What a run's capture moved out of its collector: the stores the
/// breakdown, folded stacks, Chrome trace, parcel paths, timeline
/// exports and sparklines render from (see the `RunRecord` methods in
/// [`crate::report`]).
#[derive(Debug, Default)]
pub struct RunData {
    /// Every parcel flow, in creation order.
    pub flows: Vec<FlowRec>,
    /// Core spans grouped by locality (`spans[loc]`).
    pub spans: Vec<CoreSpans>,
    /// The metric store, with the run's counter tracks.
    pub metrics: Metrics,
    /// The core profile, finalized to its horizon.
    pub profile: CoreProfile,
    /// The timeline, finalized; `None` when the run had none.
    pub timeline: Option<Timeline>,
    /// The causal provenance log; `None` when nothing was dispatched.
    pub causal: Option<Rc<CausalLog>>,
}

impl RunRecord {
    /// Capture a record from a finished instrumented run, with `meta`
    /// from the harness. Capture *moves* the collector's stores into the
    /// record ([`RunData`]) and leaves the collector empty: it finalizes
    /// the core profile and the timeline (its SLO alerts and flight dumps,
    /// over the final metrics, flows and causal log) once, in place, walks
    /// the causal log once for the critical path, and fills the serialized
    /// sections from the moved stores. Nothing is copied, so capture costs
    /// no more memory than the run held.
    pub fn capture(tel: &Telemetry, meta: RunMeta) -> RunRecord {
        let mut inner = tel.inner.take();
        inner.profile.finalize();
        let mut rec = RunRecord { version: SCHEMA_VERSION, meta, ..RunRecord::default() };

        if let Some(log) = &inner.causal {
            let cp = CritPath::from_log(&rec.meta.config, log);
            rec.critpath = (cp.total_ns > 0).then_some(cp);
            rec.events = log.node_count() as u64;
        }

        let m = &inner.metrics;
        for (k, v) in m.counters() {
            rec.counters.insert(k.to_string(), v);
        }
        for (k, h) in m.hists() {
            rec.hists.insert(k.to_string(), h);
        }

        let (flows, untracked) = inner.flows.into_flows();
        rec.flows_total = flows.len() as u64;
        rec.flows_delivered = flows.iter().filter(|f| f.delivered()).count() as u64;
        rec.flows_untracked = untracked;

        for ((loc, core), acct) in inner.profile.accounts() {
            rec.profile.push(CoreRecord { loc, core, states: acct.state_table() });
        }

        for (name, s) in inner.contention.ranking() {
            rec.resources.push(ResourceRecord {
                name: name.to_string(),
                kind: s.kind.label().to_string(),
                events: s.events,
                contended: s.contended,
                wait_ns: s.total_wait_ns,
                service_ns: s.total_service_ns,
            });
        }

        if let Some(tl) = &mut inner.timeline {
            tl.finalize(m, &flows, inner.causal.as_deref());
            for (name, ws) in m.port_windows().iter() {
                let p = ws.total();
                let (pkts, bytes, wait_ns) = (p.pkts, p.bytes, p.wait_ns);
                rec.ports.push(PortRecord { name: name.to_string(), pkts, bytes, wait_ns });
            }
            let (window_ns, num_windows) = (tl.window_ns(), tl.num_windows());
            let mut digest = WindowDigest { window_ns, num_windows, ..WindowDigest::default() };
            for (key, ws) in m.hist_windows().iter() {
                let rows = ws.iter().map(|(w, h)| (w, h.count(), h.sum())).collect();
                digest.hists.insert(key.to_string(), rows);
            }
            for (key, ws) in m.counter_windows().iter() {
                let rows = ws.iter().map(|(w, &d)| (w, d)).collect();
                digest.counters.insert(key.to_string(), rows);
            }
            rec.windows = Some(digest);
        }

        rec.end_to_end_ns = match &rec.critpath {
            Some(cp) => cp.total_ns,
            None => rec.profile_horizon_ns(),
        };
        rec.data = Some(Rc::new(RunData {
            flows,
            spans: inner.spans,
            metrics: inner.metrics,
            profile: inner.profile,
            timeline: inner.timeline,
            causal: inner.causal,
        }));
        rec
    }

    /// The common horizon every core's profile is finalized to, ns (0
    /// when no core recorded anything).
    pub fn profile_horizon_ns(&self) -> u64 {
        self.profile.iter().map(CoreRecord::total_ns).max().unwrap_or(0)
    }

    /// `scenario/config[+knobs]` display label.
    pub fn label(&self) -> String {
        self.meta.label()
    }

    /// Serialize to the canonical JSON document. Deterministic: all maps
    /// are ordered, all vectors preserve their (deterministic) capture
    /// order, and no wall-clock data is included — identical runs yield
    /// byte-identical documents.
    pub fn to_json(&self) -> String {
        let params: Vec<String> = self
            .meta
            .params
            .iter()
            .map(|(k, v)| format!("\"{}\":\"{}\"", escape_json(k), escape_json(v)))
            .collect();
        let knobs: Vec<String> =
            self.meta.knobs.iter().map(|k| format!("\"{}\"", escape_json(k))).collect();
        let counters: Vec<String> =
            self.counters.iter().map(|(k, v)| format!("\"{}\":{v}", escape_json(k))).collect();
        let hists: Vec<String> = self
            .hists
            .iter()
            .map(|(k, h)| format!("\"{}\":{}", escape_json(k), h.to_json()))
            .collect();

        let critpath = match &self.critpath {
            None => "null".to_string(),
            Some(cp) => {
                let comps: Vec<String> = cp
                    .components
                    .iter()
                    .map(|c| {
                        format!(
                            "{{\"component\":\"{}\",\"on_path_ns\":{}}}",
                            escape_json(&c.component),
                            c.on_path_ns
                        )
                    })
                    .collect();
                let segs: Vec<String> = cp
                    .segments
                    .iter()
                    .map(|s| format!("[\"{}\",{},{}]", escape_json(&s.component), s.start, s.end))
                    .collect();
                format!(
                    "{{\"total_ns\":{},\"wire_fixed_ns\":{},\"events_on_path\":{},\
                     \"truncated\":{},\"components\":[{}],\"segments\":[{}]}}",
                    cp.total_ns,
                    cp.wire_fixed_ns,
                    cp.events_on_path,
                    cp.truncated,
                    comps.join(","),
                    segs.join(",")
                )
            }
        };

        let profile: Vec<String> = self
            .profile
            .iter()
            .map(|c| {
                let states: Vec<String> = STATES
                    .iter()
                    .map(|&s| format!("\"{}\":{}", state_key(s), c.states[s as usize]))
                    .collect();
                format!("{{\"loc\":{},\"core\":{},{}}}", c.loc, c.core, states.join(","))
            })
            .collect();

        let resources: Vec<String> = self
            .resources
            .iter()
            .map(|r| {
                format!(
                    "{{\"name\":\"{}\",\"kind\":\"{}\",\"events\":{},\"contended\":{},\
                     \"wait_ns\":{},\"service_ns\":{}}}",
                    escape_json(&r.name),
                    escape_json(&r.kind),
                    r.events,
                    r.contended,
                    r.wait_ns,
                    r.service_ns
                )
            })
            .collect();

        let ports: Vec<String> = self
            .ports
            .iter()
            .map(|p| {
                format!(
                    "{{\"name\":\"{}\",\"pkts\":{},\"bytes\":{},\"wait_ns\":{}}}",
                    escape_json(&p.name),
                    p.pkts,
                    p.bytes,
                    p.wait_ns
                )
            })
            .collect();

        let windows = match &self.windows {
            None => "null".to_string(),
            Some(w) => {
                let hists: Vec<String> = w
                    .hists
                    .iter()
                    .map(|(k, rows)| {
                        let rs: Vec<String> =
                            rows.iter().map(|(w, c, s)| format!("[{w},{c},{s}]")).collect();
                        format!("\"{}\":[{}]", escape_json(k), rs.join(","))
                    })
                    .collect();
                let counters: Vec<String> = w
                    .counters
                    .iter()
                    .map(|(k, rows)| {
                        let rs: Vec<String> =
                            rows.iter().map(|(w, d)| format!("[{w},{d}]")).collect();
                        format!("\"{}\":[{}]", escape_json(k), rs.join(","))
                    })
                    .collect();
                format!(
                    "{{\"window_ns\":{},\"num_windows\":{},\"hists\":{{{}}},\
                     \"counters\":{{{}}}}}",
                    w.window_ns,
                    w.num_windows,
                    hists.join(","),
                    counters.join(",")
                )
            }
        };

        // A full flow tracer is reported only when it turned parcels
        // away, so records of fully traced runs keep their bytes.
        let untracked = match self.flows_untracked {
            0 => String::new(),
            n => format!(",\"untracked\":{n}"),
        };
        // Sharding fields are emitted only when set, so legacy records
        // stay byte-identical to pre-sharding baselines.
        let mut sharding = String::new();
        if let Some(s) = self.meta.shards {
            sharding.push_str(&format!(",\"shards\":{s}"));
        }
        if let Some(m) = &self.meta.run_mode {
            sharding.push_str(&format!(",\"run_mode\":\"{}\"", escape_json(m)));
        }

        format!(
            "{{\"run_record\":{{\"version\":{},\"scenario\":\"{}\",\"config\":\"{}\",\
             \"params\":{{{}}},\"knobs\":[{}]{},\"end_to_end_ns\":{},\"events\":{},\
             \"flows\":{{\"total\":{},\"delivered\":{}{}}},\"counters\":{{{}}},\
             \"gauges\":{{}},\"hists\":{{{}}},\"critpath\":{},\"profile\":[{}],\
             \"resources\":[{}],\"ports\":[{}],\"windows\":{}}}}}",
            self.version,
            escape_json(&self.meta.scenario),
            escape_json(&self.meta.config),
            params.join(","),
            knobs.join(","),
            sharding,
            self.end_to_end_ns,
            self.events,
            self.flows_total,
            self.flows_delivered,
            untracked,
            counters.join(","),
            hists.join(","),
            critpath,
            profile.join(","),
            resources.join(","),
            ports.join(","),
            windows
        )
    }

    /// Parse a serialized record. Inverse of [`RunRecord::to_json`] for
    /// every field the diff engine reads.
    pub fn from_json(src: &str) -> Result<RunRecord, String> {
        let doc = json::parse(src)?;
        let root = doc.get("run_record").ok_or("missing run_record object")?;
        let mut rec = RunRecord { version: get_u64(root, "version")?, ..RunRecord::default() };
        if rec.version != SCHEMA_VERSION {
            return Err(format!(
                "unsupported run_record version {} (expected {SCHEMA_VERSION})",
                rec.version
            ));
        }
        rec.meta.scenario = get_str(root, "scenario")?.to_string();
        rec.meta.config = get_str(root, "config")?.to_string();
        if let Some(Value::Obj(fields)) = root.get("params") {
            for (k, v) in fields {
                rec.meta
                    .params
                    .push((k.clone(), v.as_str().ok_or("param value must be a string")?.into()));
            }
        }
        if let Some(arr) = root.get("knobs").and_then(|v| v.as_arr()) {
            for k in arr {
                rec.meta.knobs.push(k.as_str().ok_or("knob must be a string")?.to_string());
            }
        }
        match root.get("shards") {
            None | Some(Value::Null) => {}
            Some(v) => rec.meta.shards = Some(as_u64(v).map_err(|e| format!("shards: {e}"))?),
        }
        match root.get("run_mode") {
            None | Some(Value::Null) => {}
            Some(v) => {
                rec.meta.run_mode =
                    Some(v.as_str().ok_or("run_mode must be a string")?.to_string());
            }
        }
        rec.end_to_end_ns = get_u64(root, "end_to_end_ns")?;
        rec.events = get_u64(root, "events")?;
        if let Some(f) = root.get("flows") {
            rec.flows_total = get_u64(f, "total")?;
            rec.flows_delivered = get_u64(f, "delivered")?;
            if f.get("untracked").is_some() {
                rec.flows_untracked = get_u64(f, "untracked")?;
            }
        }
        if let Some(Value::Obj(fields)) = root.get("counters") {
            for (k, v) in fields {
                rec.counters
                    .insert(k.clone(), as_u64(v).map_err(|e| format!("counter {k:?}: {e}"))?);
            }
        }
        if let Some(Value::Obj(fields)) = root.get("gauges") {
            if let Some((k, _)) = fields.first() {
                return Err(format!("gauges: the record keeps no gauges, found {k:?}"));
            }
        }
        if let Some(Value::Obj(fields)) = root.get("hists") {
            for (k, v) in fields {
                rec.hists
                    .insert(k.clone(), hist_from_json(v).map_err(|e| format!("hist {k:?}: {e}"))?);
            }
        }
        match root.get("critpath") {
            None | Some(Value::Null) => {}
            Some(cp) => {
                let mut out = CritPath {
                    config: rec.meta.config.clone(),
                    total_ns: get_u64(cp, "total_ns")?,
                    wire_fixed_ns: get_u64(cp, "wire_fixed_ns")?,
                    events_on_path: get_u64(cp, "events_on_path")? as usize,
                    truncated: matches!(cp.get("truncated"), Some(Value::Bool(true))),
                    ..CritPath::default()
                };
                for c in cp.get("components").and_then(|v| v.as_arr()).unwrap_or(&[]) {
                    out.components.push(ComponentShare {
                        component: get_str(c, "component")?.to_string(),
                        on_path_ns: get_u64(c, "on_path_ns")?,
                    });
                }
                for s in cp.get("segments").and_then(|v| v.as_arr()).unwrap_or(&[]) {
                    let row = s.as_arr().ok_or("segment must be an array")?;
                    if row.len() != 3 {
                        return Err("segment must be [component, start, end]".into());
                    }
                    out.segments.push(PathSegment {
                        component: row[0]
                            .as_str()
                            .ok_or("segment component must be a string")?
                            .to_string(),
                        start: as_u64(&row[1]).map_err(|e| format!("segment start: {e}"))?,
                        end: as_u64(&row[2]).map_err(|e| format!("segment end: {e}"))?,
                    });
                }
                rec.critpath = Some(out);
            }
        }
        for c in root.get("profile").and_then(|v| v.as_arr()).unwrap_or(&[]) {
            let mut states = [0u64; N_STATES];
            for &s in &STATES {
                states[s as usize] = get_u64(c, state_key(s))?;
            }
            rec.profile.push(CoreRecord {
                loc: get_u64(c, "loc")? as usize,
                core: get_u64(c, "core")? as usize,
                states,
            });
        }
        for r in root.get("resources").and_then(|v| v.as_arr()).unwrap_or(&[]) {
            rec.resources.push(ResourceRecord {
                name: get_str(r, "name")?.to_string(),
                kind: get_str(r, "kind")?.to_string(),
                events: get_u64(r, "events")?,
                contended: get_u64(r, "contended")?,
                wait_ns: get_u64(r, "wait_ns")?,
                service_ns: get_u64(r, "service_ns")?,
            });
        }
        for p in root.get("ports").and_then(|v| v.as_arr()).unwrap_or(&[]) {
            rec.ports.push(PortRecord {
                name: get_str(p, "name")?.to_string(),
                pkts: get_u64(p, "pkts")?,
                bytes: get_u64(p, "bytes")?,
                wait_ns: get_u64(p, "wait_ns")?,
            });
        }
        match root.get("windows") {
            None | Some(Value::Null) => {}
            Some(w) => {
                let mut digest = WindowDigest {
                    window_ns: get_u64(w, "window_ns")?,
                    num_windows: get_u64(w, "num_windows")?,
                    ..WindowDigest::default()
                };
                if let Some(Value::Obj(fields)) = w.get("hists") {
                    for (k, v) in fields {
                        let mut rows = Vec::new();
                        for row in v.as_arr().ok_or("window hist rows must be an array")? {
                            let r = row.as_arr().ok_or("window hist row must be an array")?;
                            if r.len() != 3 {
                                return Err("window hist row must be [w, count, sum]".into());
                            }
                            let cell = |i: usize| {
                                as_u64(&r[i]).map_err(|e| format!("window hist {k:?}: {e}"))
                            };
                            rows.push((cell(0)?, cell(1)?, cell(2)?));
                        }
                        digest.hists.insert(k.clone(), rows);
                    }
                }
                if let Some(Value::Obj(fields)) = w.get("counters") {
                    for (k, v) in fields {
                        let mut rows = Vec::new();
                        for row in v.as_arr().ok_or("window counter rows must be an array")? {
                            let r = row.as_arr().ok_or("window counter row must be an array")?;
                            if r.len() != 2 {
                                return Err("window counter row must be [w, delta]".into());
                            }
                            let cell = |i: usize| {
                                as_u64(&r[i]).map_err(|e| format!("window counter {k:?}: {e}"))
                            };
                            rows.push((cell(0)?, cell(1)?));
                        }
                        digest.counters.insert(k.clone(), rows);
                    }
                }
                rec.windows = Some(digest);
            }
        }
        Ok(rec)
    }
}

/// JSON field name of a profiler state (`lock-wait` → `lock_wait`).
fn state_key(s: CoreState) -> &'static str {
    match s {
        CoreState::Working => "working",
        CoreState::Progress => "progress",
        CoreState::LockWait => "lock_wait",
        CoreState::Serialize => "serialize",
        CoreState::Idle => "idle",
    }
}

fn get_u64(v: &Value, key: &str) -> Result<u64, String> {
    as_u64(v.get(key).ok_or_else(|| format!("missing field {key:?}"))?)
        .map_err(|e| format!("field {key:?}: {e}"))
}

/// Largest integer a JSON number (an `f64`) holds exactly.
const MAX_EXACT: f64 = (1u64 << 53) as f64;

fn as_u64(v: &Value) -> Result<u64, String> {
    let f = v.as_f64().ok_or("expected a number")?;
    if f < 0.0 {
        return Err(format!("expected a non-negative number, got {f}"));
    }
    if f.fract() != 0.0 {
        return Err(format!("expected an integer, got {f}"));
    }
    if f > MAX_EXACT {
        return Err(format!("{f} is above 2^53, so it is not exact"));
    }
    Ok(f as u64)
}

fn get_str<'a>(v: &'a Value, key: &str) -> Result<&'a str, String> {
    v.get(key).and_then(|v| v.as_str()).ok_or_else(|| format!("missing string field {key:?}"))
}

/// Rebuild a [`Histogram`] from the exact-bucket JSON emitted by
/// [`Histogram::to_json`].
fn hist_from_json(v: &Value) -> Result<Histogram, String> {
    let sum = get_u64(v, "sum")?;
    let min = get_u64(v, "min")?;
    let max = get_u64(v, "max")?;
    let mut buckets = Vec::new();
    for row in v.get("buckets").and_then(|b| b.as_arr()).ok_or("hist missing buckets")? {
        let r = row.as_arr().ok_or("hist bucket must be an array")?;
        if r.len() != 2 {
            return Err("hist bucket must be [index, count]".into());
        }
        let cell = |i: usize| as_u64(&r[i]).map_err(|e| format!("hist bucket: {e}"));
        buckets.push((cell(0)? as usize, cell(1)?));
    }
    let h = Histogram::from_buckets(buckets, sum, min, max)?;
    let declared = get_u64(v, "count")?;
    if h.count() != declared {
        return Err(format!("hist bucket counts sum to {} but count says {declared}", h.count()));
    }
    Ok(h)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_record() -> RunRecord {
        let mut h = Histogram::new();
        for v in [120u64, 450, 450, 9_800] {
            h.record(v);
        }
        let mut rec = RunRecord {
            version: SCHEMA_VERSION,
            meta: RunMeta {
                scenario: "fig8_latency_window_8b".into(),
                config: "lci_psr_cq_pin_i".into(),
                params: vec![("window".into(), "64".into()), ("steps".into(), "25".into())],
                knobs: vec!["wire_latency_x2".into()],
                ..RunMeta::default()
            },
            end_to_end_ns: 10_000,
            events: 321,
            flows_total: 40,
            flows_delivered: 40,
            ..RunRecord::default()
        };
        rec.counters.insert("parcels.sent".into(), 40);
        rec.hists.insert("parcel.latency_ns".into(), h);
        let share = |c: &str, ns| ComponentShare { component: c.into(), on_path_ns: ns };
        let seg = |c: &str, start, end| PathSegment { component: c.into(), start, end };
        rec.critpath = Some(CritPath {
            config: "lci_psr_cq_pin_i".into(),
            total_ns: 10_000,
            wire_fixed_ns: 1_000,
            events_on_path: 12,
            truncated: false,
            components: vec![share("net.wire", 6_000), share("cpu", 4_000)],
            segments: vec![seg("cpu", 0, 4_000), seg("net.wire", 4_000, 10_000)],
            path_nodes: vec![1, 5, 12],
        });
        rec.profile.push(CoreRecord { loc: 0, core: 0, states: [5_000, 2_000, 0, 1_000, 2_000] });
        rec.resources.push(ResourceRecord {
            name: "ucp_progress".into(),
            kind: "lock".into(),
            events: 10,
            contended: 3,
            wait_ns: 900,
            service_ns: 2_000,
        });
        rec.ports.push(PortRecord { name: "fab.s0.p1".into(), pkts: 8, bytes: 64, wait_ns: 30 });
        let mut digest = WindowDigest { window_ns: 100_000, num_windows: 1, ..Default::default() };
        digest.hists.insert("parcel.latency_ns".into(), vec![(0, 4, 10_820)]);
        digest.counters.insert("parcels.sent".into(), vec![(0, 40)]);
        rec.windows = Some(digest);
        rec
    }

    #[test]
    fn json_roundtrip_is_lossless() {
        let rec = sample_record();
        let json = rec.to_json();
        let back = RunRecord::from_json(&json).unwrap();
        assert_eq!(back, rec);
        // The path's causal node ids stay in memory, for the Chrome overlay.
        assert!(back.critpath.as_ref().unwrap().path_nodes.is_empty());
        // Serialization is deterministic.
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn labels_show_knobs() {
        let rec = sample_record();
        assert_eq!(rec.label(), "fig8_latency_window_8b/lci_psr_cq_pin_i+wire_latency_x2");
    }

    #[test]
    fn sharding_meta_roundtrips_and_stays_absent_for_legacy_runs() {
        let legacy = sample_record();
        assert!(
            !legacy.to_json().contains("shards") && !legacy.to_json().contains("run_mode"),
            "legacy records must not grow new fields"
        );
        let mut sharded = sample_record();
        sharded.meta.shards = Some(4);
        sharded.meta.run_mode = Some("threaded".into());
        let back = RunRecord::from_json(&sharded.to_json()).unwrap();
        assert_eq!(back, sharded);
        assert_eq!(back.meta.shards, Some(4));
        assert_eq!(back.meta.run_mode.as_deref(), Some("threaded"));
        // Differing only in sharding keeps runs comparable; differing in
        // workload does not.
        assert!(legacy.meta.comparable_to(&sharded.meta));
        let mut other = sample_record();
        other.meta.params.push(("window".into(), "128".into()));
        assert!(!legacy.meta.comparable_to(&other.meta));
    }

    #[test]
    fn parse_rejects_bad_documents() {
        assert!(RunRecord::from_json("{}").is_err());
        assert!(RunRecord::from_json("{\"run_record\":{\"version\":99}}").is_err());
        // Declared count inconsistent with bucket counts.
        let bad = sample_record().to_json().replace("\"count\":4", "\"count\":5");
        assert!(RunRecord::from_json(&bad).is_err());
        // A fraction, and an integer too large for an f64 to hold exactly:
        // each error names the field.
        let good = sample_record().to_json();
        for value in ["1.5", "1e30"] {
            let bad = good.replace("\"events\":321", &format!("\"events\":{value}"));
            assert_ne!(bad, good);
            let err = RunRecord::from_json(&bad).unwrap_err();
            assert!(err.contains("\"events\""), "{value}: {err}");
        }
        let bad = good.replacen("\"parcels.sent\":40", "\"parcels.sent\":40.5", 1);
        assert_ne!(bad, good);
        let err = RunRecord::from_json(&bad).unwrap_err();
        assert!(err.contains("\"parcels.sent\""), "{err}");
        // A record carries an empty gauges object and no other.
        assert!(good.contains("\"gauges\":{},"), "{good}");
        let bad = good.replace("\"gauges\":{}", "\"gauges\":{\"inflight.peak\":7}");
        let err = RunRecord::from_json(&bad).unwrap_err();
        assert!(err.contains("gauges") && err.contains("\"inflight.peak\""), "{err}");
    }

    /// Capture moves every store into the record and leaves the collector
    /// empty: a second capture yields a record with no flows, spans, marks
    /// or metrics. The record parsed back from JSON equals the captured
    /// one, and carries no stores for the reports that need them.
    #[test]
    fn capture_moves_the_run_and_empties_the_collector() {
        use simcore::causal::{self, MarkKind};
        let ns = simcore::SimTime::from_nanos;
        let tel = crate::enable();
        causal::on_execute(1, 10, 0);
        causal::mark("lock", MarkKind::Hold, ns(10), ns(20), 0);
        let id = tel.flow_begin(0, 1, 0, ns(10));
        tel.message_delivered(&[id], ns(40));
        tel.hist_record_at("parcel.latency_ns", 2_500, ns(40));
        tel.core_tick(0, 0, Some("task"), CoreState::Working, "task", ns(10), ns(50));
        causal::end_execute();
        crate::disable();

        let rec = RunRecord::capture(&tel, RunMeta::default());
        let data = rec.data.as_deref().expect("a captured record carries its stores");
        assert_eq!((rec.version, rec.flows_total, rec.flows_delivered, rec.events), (1, 1, 1, 1));
        assert_eq!(data.causal.as_ref().map(|log| log.mark_count()), Some(1));
        assert_eq!(
            (rec.span_count(), rec.counters.get("amt.messages_delivered")),
            (Some(1), Some(&1))
        );
        assert_eq!(rec.hists["parcel.latency_ns"].count(), 1);

        let again = RunRecord::capture(&tel, RunMeta::default());
        let data = again.data.as_deref().expect("a captured record carries its stores");
        assert_eq!((again.flows_total, again.events, again.span_count()), (0, 0, Some(0)));
        assert!(data.causal.is_none() && again.counters.is_empty() && again.hists.is_empty());
        assert!(data.metrics.tracks().next().is_none() && again.profile.is_empty());

        let back = RunRecord::from_json(&rec.to_json()).unwrap();
        assert_eq!(back, rec);
        assert!(back.data.is_none() && back.breakdown().is_none() && back.span_count().is_none());
        assert!(back.chrome_trace(false).is_none() && back.parcel_paths().is_none());
        assert!(back.timeline_json().is_none() && !back.core_time_text().is_empty());
    }

    /// A tracer that fills up counts the parcels it turns away; the
    /// record carries the count, and leaves the field out when nothing
    /// was turned away.
    #[test]
    fn a_full_flow_tracer_reports_untracked_parcels() {
        let meta =
            || RunMeta { scenario: "unit".into(), config: "cfg".into(), ..Default::default() };
        let tel = crate::Telemetry::new();
        tel.inner.borrow_mut().flows.max_flows = 1;
        for src in 0..3 {
            tel.flow_begin(src, 1, 0, simcore::SimTime::from_nanos(10));
        }
        let rec = RunRecord::capture(&tel, meta());
        assert_eq!((rec.flows_total, rec.flows_untracked), (1, 2));
        let json = rec.to_json();
        assert!(json.contains("\"flows\":{\"total\":1,\"delivered\":0,\"untracked\":2}"), "{json}");
        assert_eq!(RunRecord::from_json(&json).unwrap(), rec);

        let full = crate::Telemetry::new();
        full.flow_begin(0, 1, 0, simcore::SimTime::from_nanos(10));
        let json = RunRecord::capture(&full, meta()).to_json();
        assert!(json.contains("\"flows\":{\"total\":1,\"delivered\":0},"), "{json}");
        assert_eq!(RunRecord::from_json(&json).unwrap().flows_untracked, 0);
    }

    #[test]
    fn captured_profile_is_finalized_with_overlays_pending() {
        use simcore::SimTime;
        let ns = SimTime::from_nanos;
        let tel = Telemetry::new();
        tel.core_tick(0, 1, None, CoreState::Working, "task", ns(10), ns(200));
        tel.profile_set_loc(0);
        // Still pending at the horizon: no base record encloses them.
        tel.profile_overlay(1, CoreState::LockWait, "ucp_progress", ns(250), ns(300));
        tel.profile_overlay(1, CoreState::Serialize, "drain", ns(280), ns(520));
        tel.profile_set_loc(1);
        tel.profile_overlay(0, CoreState::LockWait, "nic", ns(40), ns(90));
        let rec = RunRecord::capture(&tel, RunMeta::default());
        let finalized: Vec<CoreRecord> = rec
            .data
            .as_ref()
            .unwrap()
            .profile
            .accounts()
            .map(|((loc, core), a)| CoreRecord { loc, core, states: a.state_table() })
            .collect();
        assert_eq!(rec.profile, finalized);
        assert_eq!(
            rec.profile,
            [
                CoreRecord { loc: 0, core: 1, states: [190, 0, 50, 220, 60] },
                CoreRecord { loc: 1, core: 0, states: [0, 0, 50, 0, 470] },
            ]
        );
        assert_eq!(rec.profile_horizon_ns(), 520);
        assert_eq!(rec.end_to_end_ns, 520, "no causal log: the profile horizon stands in");
    }
}
