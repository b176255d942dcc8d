//! # telemetry — virtual-time observability for the simulated stack
//!
//! A single subsystem every layer reports into:
//!
//! * a **metrics store** ([`Metrics`]): counters, log-bucketed
//!   histograms ([`Histogram`]) with p50/p90/p99 and fabric port
//!   accounting, all `&'static str`-keyed with no steady-state
//!   allocation. Counters, histograms and ports are stored once, per
//!   virtual-time window (one window when no timeline is attached), and
//!   run totals are derived from the windows;
//! * **parcel-lifecycle flow tracing** ([`FlowTracer`]): a per-parcel
//!   stage timeline (`put → queue → serialize → inject → wire → match →
//!   deliver → spawn`) stitched across localities via an out-of-band
//!   route registry, exported as Chrome-trace flow events
//!   ([`chrome::chrome_trace`]) and a latency-breakdown report
//!   ([`report::Breakdown`]);
//! * **core spans** ([`CoreSpan`]): what each simulated core ran
//!   (`task`, `background`, `progress`), recorded by the scheduler through
//!   [`core_tick`] and stored here only, grouped by locality; the Chrome
//!   export draws one `loc<L>/core<C>` track per core;
//! * **contention attribution** ([`ContentionTable`]): wait-vs-service
//!   time per named `SimLock`/`SimTryLock`/`SimResource`, one row per
//!   label fed with each `simcore::probe::Access`, ranked by total wait;
//! * a **virtual-time core profiler** ([`CoreProfile`]): per-core
//!   `working/progress/lock-wait/serialize/idle` accounting whose state
//!   durations partition each core's elapsed virtual time exactly, with
//!   folded-stack flamegraph output (see [`profile`]);
//! * an optional **timeline** ([`Timeline`]): the horizon, late samples
//!   and injected faults of a live run, from which capture computes the
//!   SLO alerts and flight-recorder dumps over the windowed metrics (see
//!   [`timeline`]), chosen when the collector is made ([`enable_with`]);
//! * the **run record** ([`RunRecord`]): the one end-of-run artifact.
//!   [`RunRecord::capture`] moves the collector's stores into it and
//!   every report is a view of it: the critical path, contention and
//!   core time ([`CritPath::to_text`], [`RunRecord::contention_text`],
//!   [`RunRecord::core_time_text`] and their JSON twins), the latency
//!   breakdown, folded stacks, Chrome trace and timeline exports.
//!   The collector itself keeps only its write API, plus
//!   [`Telemetry::with_metrics`] and [`Telemetry::with_timeline`] for
//!   readers in the middle of a run.
//!
//! ## Enable/disable
//!
//! A [`Telemetry`] collector is a `simcore::Probe`: [`enable`] (or
//! [`enable_with`], with a timeline) installs it in simcore's one
//! observer slot ([`simcore::probe`]), where it sees every lock and
//! resource access as one `Access` value, every event dispatch and every
//! causal mark. It files an access in one method (contention row,
//! lock-wait overlay, timeline horizon, causal record) and forwards
//! dispatches and marks to its own causal log. Call sites go
//! through the free functions in this module, which find the collector by
//! downcasting what the slot holds and no-op when it holds none: the
//! disabled cost is one thread-local `Cell<bool>` read, with zero
//! allocation. Telemetry is *pure observation* — it never schedules
//! events, charges virtual time, or alters wire traffic — so enabling it
//! does not change simulation results, and disabling it reproduces
//! byte-identical event streams (see `tests/golden_trace.rs`).

pub mod chrome;
pub mod critpath;
pub mod diff;
pub mod flow;
pub mod hist;
pub mod json;
pub mod metrics;
pub mod profile;
pub mod record;
pub mod report;
pub mod timeline;

use std::any::Any;
use std::cell::RefCell;
use std::rc::Rc;

use simcore::causal::MarkKind;
use simcore::probe::{Access, Probe};
use simcore::{CausalLog, SimTime};

pub use chrome::{CoreSpan, CoreSpans, Spans};
pub use critpath::{ComponentShare, CritPath, ParcelPath, PathSegment};
pub use diff::RecordDiff;
pub use flow::{stage, FlowRec, FlowTracer, STAGE_NAMES};
pub use hist::Histogram;
pub use metrics::{
    ContentionStat, ContentionTable, Metrics, PortWindow, Samples, Series, Track, WindowCell,
};
pub use profile::{CoreProfile, CoreState};
pub use record::{RunData, RunMeta, RunRecord};
pub use report::Breakdown;
pub use timeline::{FlightDump, SloAlert, SloRule, Timeline, TimelineConfig};

/// The collector: metrics, flows, contention, core spans, profile,
/// causal log and timeline, behind one `RefCell`, until
/// [`RunRecord::capture`] moves them into the run's record.
#[derive(Debug, Default)]
pub struct Telemetry {
    inner: RefCell<Inner>,
}

#[derive(Debug, Default)]
struct Inner {
    metrics: Metrics,
    flows: FlowTracer,
    contention: ContentionTable,
    /// Core spans grouped by locality: `spans[loc]` in recording order.
    spans: Vec<CoreSpans>,
    profile: CoreProfile,
    /// Parcels begun but not yet delivered, sampled as the
    /// `parcels.in_flight` counter track.
    in_flight: i64,
    /// HPX messages delivered so far: the run total of the
    /// `amt.messages_delivered` counter, sampled as the `amt.delivered`
    /// counter track.
    delivered: u64,
    /// The causal provenance log ([`simcore::causal`]): the collector
    /// forwards every dispatch, mark and access it observes to it. Made
    /// at the first dispatch, so a collector allocates nothing until its
    /// run does.
    causal: Option<Rc<CausalLog>>,
    /// The timeline's horizon, late samples and faults ([`timeline`]),
    /// present only when the collector was made with one
    /// ([`enable_with`], or [`Telemetry::for_lane`] of such a collector).
    timeline: Option<Timeline>,
}

impl Inner {
    /// Feed one newly delivered flow into the windowed `parcel.latency_ns`
    /// series. No-op when timelines are off, so plain instrumented runs
    /// keep their exact metric key set.
    fn flow_delivered(&mut self, id: u64, t: SimTime) {
        if self.timeline.is_none() || id == 0 {
            return;
        }
        let put = match self.flows.rec(id) {
            Some(rec) => rec.at(stage::PUT).unwrap_or(t.as_nanos()),
            // Lane mode: a foreign id's record lives on the sending
            // lane's tracer; take the published put instant instead.
            None => match self.flows.take_meta(id) {
                Some(put) => put,
                None => return,
            },
        };
        let deliver = t.as_nanos();
        self.metrics.hist_record("parcel.latency_ns", deliver.saturating_sub(put), deliver);
        self.sampled(deliver);
    }

    /// Mark `stage` on a batch of flows. Each newly delivered parcel
    /// lands in the windowed latency series; the batch moves
    /// `parcels.in_flight` by one sample.
    fn mark_flows(&mut self, ids: &[u64], stage: usize, t: SimTime) {
        let node = self.causal.as_ref().map_or(0, |log| log.current_node());
        let mut newly = 0i64;
        for &id in ids {
            if self.flows.mark(id, stage, t, node) && stage == stage::DELIVER {
                newly += 1;
                self.flow_delivered(id, t);
            }
        }
        if newly > 0 {
            self.in_flight -= newly;
            let v = self.in_flight as f64;
            self.metrics.track_sample("parcels.in_flight", t.as_nanos(), v);
        }
        self.observe(t.as_nanos());
    }

    /// Keep one core span of locality `loc`.
    fn push_span(&mut self, loc: usize, core: usize, label: &'static str, start: u64, end: u64) {
        if self.spans.len() <= loc {
            self.spans.resize_with(loc + 1, CoreSpans::new);
        }
        self.spans[loc].push(CoreSpan::new(core as u32, label, start, end));
    }

    /// Tell the timeline a counter or histogram sample was just stored
    /// at `t_ns`.
    fn sampled(&mut self, t_ns: u64) {
        if let Some(tl) = &mut self.timeline {
            tl.sampled(t_ns);
        }
    }

    /// Advance the timeline's horizon to `t_ns`.
    fn observe(&mut self, t_ns: u64) {
        if let Some(tl) = &mut self.timeline {
            tl.observe(t_ns);
        }
    }
}

impl Telemetry {
    /// Create a detached collector (not installed anywhere) without a
    /// timeline, with an empty causal log of its own. Allocates nothing:
    /// every store grows from its first record.
    pub fn new() -> Self {
        Telemetry::default()
    }

    /// [`Telemetry::new`], plus a windowed timeline under `cfg`: the
    /// metrics store their samples in windows of `cfg.window_ns`, and the
    /// profiler keeps the per-core segments the timeline slices.
    fn with_timeline_config(cfg: TimelineConfig) -> Self {
        let inner = Inner {
            metrics: Metrics::windowed(cfg.window_ns),
            profile: CoreProfile::with_segments(),
            timeline: Some(Timeline::new(cfg)),
            ..Inner::default()
        };
        Telemetry { inner: RefCell::new(inner) }
    }

    /// Add `n` to counter `key`, in the window of instant `t` (window 0
    /// when timelines are off).
    pub fn counter_add_at(&self, key: &'static str, n: u64, t: SimTime) {
        let inner = &mut *self.inner.borrow_mut();
        inner.metrics.counter_add(key, n, t.as_nanos());
        inner.sampled(t.as_nanos());
    }

    /// Record `v` into histogram `key`, in the window of instant `t`
    /// (window 0 when timelines are off).
    pub fn hist_record_at(&self, key: &'static str, v: u64, t: SimTime) {
        let inner = &mut *self.inner.borrow_mut();
        inner.metrics.hist_record(key, v, t.as_nanos());
        inner.sampled(t.as_nanos());
    }

    /// Append a counter-track sample.
    pub fn track_sample(&self, name: &'static str, t: SimTime, v: f64) {
        let inner = &mut *self.inner.borrow_mut();
        inner.metrics.track_sample(name, t.as_nanos(), v);
        inner.observe(t.as_nanos());
    }

    /// Start a parcel flow; returns its id (0 when the tracer is full).
    pub fn flow_begin(&self, src: usize, dst: usize, src_core: usize, t: SimTime) -> u64 {
        let inner = &mut *self.inner.borrow_mut();
        let id = inner.flows.begin(src, dst, src_core, t);
        if id != 0 {
            inner.in_flight += 1;
            let v = inner.in_flight as f64;
            inner.metrics.track_sample("parcels.in_flight", t.as_nanos(), v);
            // Lane mode with timelines: publish the put instant of a flow
            // bound for another locality, so the receiving lane can feed
            // its latency series at delivery. A local flow's record is
            // this lane's own.
            if inner.timeline.is_some() && inner.flows.lane_mode() && src != dst {
                inner.flows.publish_meta(id, t.as_nanos());
            }
        }
        inner.observe(t.as_nanos());
        id
    }

    /// Mark `stage` on a batch of flows. Each newly delivered parcel
    /// lands in the windowed latency series; the batch moves
    /// `parcels.in_flight` by one sample.
    pub fn flow_mark_many(&self, ids: &[u64], stage: usize, t: SimTime) {
        if !ids.is_empty() {
            self.inner.borrow_mut().mark_flows(ids, stage, t);
        }
    }

    /// One HPX message delivered at `t`, carrying the parcel flows `ids`:
    /// count it in `amt.messages_delivered`, mark its flows delivered,
    /// and, when it carries flows, sample the run's delivered count on
    /// the `amt.delivered` counter track.
    pub fn message_delivered(&self, ids: &[u64], t: SimTime) {
        let inner = &mut *self.inner.borrow_mut();
        inner.metrics.counter_add("amt.messages_delivered", 1, t.as_nanos());
        inner.delivered += 1;
        inner.sampled(t.as_nanos());
        if !ids.is_empty() {
            inner.mark_flows(ids, stage::DELIVER, t);
            let n = inner.delivered as f64;
            inner.metrics.track_sample("amt.delivered", t.as_nanos(), n);
        }
    }

    /// Record the delivering core for `ids`.
    pub fn flow_set_dst_core(&self, ids: &[u64], core: usize) {
        if !ids.is_empty() {
            self.inner.borrow_mut().flows.set_dst_core(ids, core);
        }
    }

    /// Sender side of cross-locality stitching.
    pub fn register_route(&self, src: usize, dst: usize, tag_base: u64, flows: &[u64]) {
        self.inner.borrow().flows.register_route(src, dst, tag_base, flows);
    }

    /// Receiver side of cross-locality stitching.
    pub fn take_route(&self, src: usize, dst: usize, tag_base: u64) -> Vec<u64> {
        self.inner.borrow().flows.take_route(src, dst, tag_base)
    }

    /// Read access to the metrics registry, for readers in the middle of a
    /// run (after the run, read the record's [`RunData::metrics`]).
    pub fn with_metrics<R>(&self, f: impl FnOnce(&Metrics) -> R) -> R {
        f(&self.inner.borrow().metrics)
    }

    /// Set the locality whose event handler is currently executing, so
    /// probe-driven profiler overlays attribute to the right locality.
    pub fn profile_set_loc(&self, loc: usize) {
        self.inner.borrow_mut().profile.set_loc(loc);
    }

    /// Record a probe-level (overlay) profiler interval on `core` of the
    /// current locality.
    pub fn profile_overlay(
        &self,
        core: usize,
        state: CoreState,
        label: &'static str,
        start: SimTime,
        end: SimTime,
    ) {
        self.inner.borrow_mut().profile.record_overlay_here(
            core,
            state,
            label,
            start.as_nanos(),
            end.as_nanos(),
        );
    }

    /// One scheduler tick of `core` on locality `loc` over `[start,
    /// end]`: the core span `span` on the Chrome export's
    /// `loc<L>/core<C>` track, if the tick ran something (empty spans are
    /// kept), then, if the tick took time, the scheduler-level (base)
    /// profile record of `state` under `label`.
    #[allow(clippy::too_many_arguments)]
    pub fn core_tick(
        &self,
        loc: usize,
        core: usize,
        span: Option<&'static str>,
        state: CoreState,
        label: &'static str,
        start: SimTime,
        end: SimTime,
    ) {
        let inner = &mut *self.inner.borrow_mut();
        let (start, end) = (start.as_nanos(), end.as_nanos());
        if let Some(span) = span {
            inner.push_span(loc, core, span, start, end);
        }
        if end > start {
            inner.profile.record_base(loc, core, state, label, start, end);
            inner.observe(end);
        }
    }

    /// Read access to the live timeline, for readers in the middle of a
    /// run; `None` when timelines are off.
    pub fn with_timeline<R>(&self, f: impl FnOnce(&Timeline) -> R) -> Option<R> {
        self.inner.borrow().timeline.as_ref().map(f)
    }

    /// Add an SLO rule mid-run (e.g. an objective derived from a baseline
    /// phase of the same run); it sees every window of the run, since
    /// rules are evaluated at capture. No-op when timelines are off.
    pub fn timeline_add_rule(&self, rule: SloRule) {
        if let Some(tl) = &mut self.inner.borrow_mut().timeline {
            tl.add_rule(rule);
        }
    }

    /// Record one egress-port access into the per-port windows; no-op
    /// when timelines are off. Port grants are scheduled analytically at
    /// injection time, so `t` routinely lies in the future: the access
    /// lands in its window but does not advance the horizon, which would
    /// count the deliveries still in flight as late samples.
    pub fn timeline_port(&self, name: &'static str, t: SimTime, wait_ns: u64, bytes: u64) {
        let inner = &mut *self.inner.borrow_mut();
        if inner.timeline.is_some() {
            inner.metrics.port_access(name, t.as_nanos(), wait_ns, bytes);
        }
    }

    /// Record an injected fault at instant `t`, a flight-recorder dump
    /// trigger; no-op when timelines are off.
    pub fn fault_event_at(&self, label: &'static str, t: SimTime) {
        if let Some(tl) = &mut self.inner.borrow_mut().timeline {
            tl.fault_event(label, t.as_nanos());
        }
    }

    /// [`Telemetry::fault_event_at`] at the timeline's horizon, for fault
    /// sites with no virtual clock in hand.
    pub fn fault_event(&self, label: &'static str) {
        if let Some(tl) = &mut self.inner.borrow_mut().timeline {
            tl.fault_event(label, tl.horizon_ns());
        }
    }
}

/// The collector is simcore's probe. One access is one call: under one
/// borrow it fills the contention row and the profiler's lock-wait
/// overlay, advances the timeline's horizon, then forwards the access to
/// its causal log. Dispatch and marks go straight to the log.
impl Probe for Telemetry {
    fn access(&self, a: Access) {
        let inner = &mut *self.inner.borrow_mut();
        inner.contention.record(a);
        let now = a.now.as_nanos();
        // The wait `[now, now + wait)` is spin or queueing time on `core`:
        // the profiler carves it out of whatever base interval encloses
        // it.
        if a.wait_ns > 0 {
            let (label, end) = (a.label.name, now + a.wait_ns);
            inner.profile.record_overlay_here(a.core, CoreState::LockWait, label, now, end);
        }
        inner.observe(now);
        if let Some(log) = &inner.causal {
            log.access(a);
        }
    }

    fn on_execute(&self, node: u64, at: u64, parent: u64) {
        self.inner
            .borrow_mut()
            .causal
            .get_or_insert_with(CausalLog::new)
            .on_execute(node, at, parent);
    }

    fn end_execute(&self) {
        if let Some(log) = &self.inner.borrow().causal {
            log.end_execute();
        }
    }

    fn mark(&self, label: &'static str, kind: MarkKind, start: SimTime, end: SimTime, fixed: u64) {
        if let Some(log) = &self.inner.borrow().causal {
            log.mark(label, kind, start, end, fixed);
        }
    }
}

/// Install a fresh collector without a timeline in this thread's probe
/// slot, replacing whatever it held. Returns the handle; keep it to
/// capture the run's record after [`disable`].
pub fn enable() -> Rc<Telemetry> {
    install(Telemetry::new())
}

/// [`enable`], with a windowed timeline under `cfg`: per-window
/// histograms/counters/port accounting, and the SLO alerts and
/// flight-recorder dumps computed from them at capture. The timeline is
/// pure observation like everything else — enabled runs reproduce the
/// exact event streams of disabled runs.
pub fn enable_with(cfg: TimelineConfig) -> Rc<Telemetry> {
    install(Telemetry::with_timeline_config(cfg))
}

fn install(t: Telemetry) -> Rc<Telemetry> {
    let t = Rc::new(t);
    simcore::probe::install(t.clone());
    t
}

/// Empty this thread's probe slot. Every piece of recording state, the
/// causal log's executing node included, belongs to a collector, so
/// back-to-back instrumented runs in one process cannot contaminate each
/// other. Runs on other threads are untouched: their route stores belong
/// to their own collectors. The handle returned by [`enable`] stays valid
/// for capturing the run's record.
pub fn disable() {
    simcore::probe::uninstall();
}

/// Whether this thread's probe slot holds a collector.
#[inline]
pub fn enabled() -> bool {
    let mut on = false;
    with(|_| on = true);
    on
}

/// The collector in this thread's probe slot, if it holds one.
pub fn active() -> Option<Rc<Telemetry>> {
    let probe: Rc<dyn Any> = simcore::probe::current()?;
    probe.downcast().ok()
}

/// Run `f` against the collector in this thread's probe slot; no-op when
/// the slot holds none (empty, or a probe of another type).
#[inline]
pub fn with(f: impl FnOnce(&Telemetry)) {
    simcore::probe::emit(|p| {
        if let Some(t) = (p as &dyn Any).downcast_ref::<Telemetry>() {
            f(t)
        }
    });
}

/// Start a flow (0 when disabled).
#[inline]
pub fn flow_begin(src: usize, dst: usize, src_core: usize, t: SimTime) -> u64 {
    let mut id = 0;
    with(|tel| id = tel.flow_begin(src, dst, src_core, t));
    id
}

/// Mark a stage on one flow; no-op when disabled or `id == 0`.
#[inline]
pub fn flow_mark(id: u64, stage: usize, t: SimTime) {
    if id != 0 {
        with(|tel| tel.flow_mark_many(&[id], stage, t));
    }
}

/// Mark a stage on a batch of flows; no-op when disabled or `ids` empty.
#[inline]
pub fn flow_mark_many(ids: &[u64], stage: usize, t: SimTime) {
    if !ids.is_empty() {
        with(|tel| tel.flow_mark_many(ids, stage, t));
    }
}

/// Record the delivering core; no-op when disabled or `ids` empty.
#[inline]
pub fn flow_set_dst_core(ids: &[u64], core: usize) {
    if !ids.is_empty() {
        with(|tel| tel.flow_set_dst_core(ids, core));
    }
}

/// Register a message route for cross-locality stitching.
#[inline]
pub fn register_route(src: usize, dst: usize, tag_base: u64, flows: &[u64]) {
    if !flows.is_empty() {
        with(|tel| tel.register_route(src, dst, tag_base, flows));
    }
}

/// Claim a registered route (empty when disabled or unknown).
#[inline]
pub fn take_route(src: usize, dst: usize, tag_base: u64) -> Vec<u64> {
    let mut flows = Vec::new();
    with(|tel| flows = tel.take_route(src, dst, tag_base));
    flows
}

/// Add to a counter, attributed to instant `t` in the windowed timeline.
#[inline]
pub fn counter_add_at(key: &'static str, n: u64, t: SimTime) {
    with(|tel| tel.counter_add_at(key, n, t));
}

/// Record into a histogram, attributed to instant `t` in the windowed
/// timeline.
#[inline]
pub fn hist_record_at(key: &'static str, v: u64, t: SimTime) {
    with(|tel| tel.hist_record_at(key, v, t));
}

/// Record an injected fault at instant `t` (a flight-recorder dump
/// trigger); no-op when disabled or when timelines are off.
#[inline]
pub fn fault_event_at(label: &'static str, t: SimTime) {
    with(|tel| tel.fault_event_at(label, t));
}

/// [`fault_event_at`] at the timeline horizon, for fault sites with no
/// virtual clock in hand.
#[inline]
pub fn fault_event(label: &'static str) {
    with(|tel| tel.fault_event(label));
}

/// Append a counter-track sample on the active collector.
#[inline]
pub fn track_sample(name: &'static str, t: SimTime, v: f64) {
    with(|tel| tel.track_sample(name, t, v));
}

/// Set the profiler's current-locality context; no-op when disabled.
#[inline]
pub fn profile_set_loc(loc: usize) {
    with(|tel| tel.profile_set_loc(loc));
}

/// Report one scheduler tick (see [`Telemetry::core_tick`]); no-op when
/// disabled.
#[inline]
pub fn core_tick(
    loc: usize,
    core: usize,
    span: Option<&'static str>,
    state: CoreState,
    label: &'static str,
    start: SimTime,
    end: SimTime,
) {
    with(|tel| tel.core_tick(loc, core, span, state, label, start, end));
}

/// Count a delivered HPX message and mark its flows (see
/// [`Telemetry::message_delivered`]); no-op when disabled.
#[inline]
pub fn message_delivered(ids: &[u64], t: SimTime) {
    with(|tel| tel.message_delivered(ids, t));
}

/// Record an overlay profiler interval on the current locality; no-op
/// when disabled or empty.
#[inline]
pub fn profile_overlay(
    core: usize,
    state: CoreState,
    label: &'static str,
    start: SimTime,
    end: SimTime,
) {
    if end > start {
        with(|tel| tel.profile_overlay(core, state, label, start, end));
    }
}

// ---------------------------------------------------------------------
// Sharded-world lane collectors
// ---------------------------------------------------------------------

impl Telemetry {
    /// The collector of engine `lane` in the federated run `main`
    /// collects: lane-mode flows that share `main`'s route store, its own
    /// causal log, a timeline of its own when `main` has one (so windowed
    /// series keep working per lane), and its profile's locality fixed to
    /// `lane`. The lane swaps it into the probe slot of whichever thread
    /// dispatches its events, and swaps the previous occupant back after,
    /// so worker threads never share mutable recording state. After the
    /// run, [`merge_lane_collectors`] folds every lane into `main` in
    /// lane-rank order: the merged result is a pure function of the
    /// per-lane streams, independent of shard count and run mode.
    pub fn for_lane(lane: u32, main: &Telemetry) -> Rc<Telemetry> {
        let main = main.inner.borrow();
        let mut tel = match &main.timeline {
            Some(tl) => Telemetry::with_timeline_config(tl.config()),
            None => Telemetry::new(),
        };
        let inner = tel.inner.get_mut();
        inner.flows = main.flows.for_lane(lane);
        inner.profile.set_loc(lane as usize);
        Rc::new(tel)
    }
}

/// Counter tracks whose samples are *running totals* on each lane: the
/// merged run total must be rebuilt from per-lane increments rather than
/// interleaved raw values.
const CUMULATIVE_TRACKS: [&str; 2] = ["parcels.in_flight", "amt.delivered"];

/// Fold per-lane collectors (in lane-rank order) into `main`; installs
/// nothing. Per-lane causal logs merge into one contiguous provenance log;
/// flow tracers stitch foreign-op buffers back onto the records the
/// minting lanes own; metrics (every windowed series, once), contention,
/// profiler, spans and timelines merge additively. Assumes `main` itself
/// recorded no flows during the run (the sharded world routes every event
/// through a lane collector).
pub fn merge_lane_collectors(main: &Telemetry, lanes: Vec<Rc<Telemetry>>) {
    let main_inner = &mut *main.inner.borrow_mut();
    let (mut shards, mut tracers) = (Vec::with_capacity(lanes.len()), Vec::new());
    // Per-track, per-lane snapshots of the cumulative series, taken
    // before the additive merge interleaves their raw values.
    let mut cum: Vec<Vec<Track>> = vec![Vec::new(); CUMULATIVE_TRACKS.len()];
    for lane in lanes {
        let inner = lane.inner.take();
        shards.extend(inner.causal.map(|log| log.take_data()));
        for (slot, name) in CUMULATIVE_TRACKS.iter().enumerate() {
            cum[slot].push(inner.metrics.track(name).cloned().unwrap_or_default());
        }
        main_inner.metrics.merge(&inner.metrics);
        main_inner.contention.merge(&inner.contention);
        main_inner.profile.absorb(inner.profile);
        // A lane records only its own locality's spans, so each
        // locality's list comes from one lane, in recording order.
        if main_inner.spans.len() < inner.spans.len() {
            main_inner.spans.resize_with(inner.spans.len(), CoreSpans::new);
        }
        for (loc, spans) in inner.spans.into_iter().enumerate() {
            main_inner.spans[loc].append(spans);
        }
        main_inner.in_flight += inner.in_flight;
        main_inner.delivered += inner.delivered;
        if let (Some(dst), Some(src)) = (&mut main_inner.timeline, inner.timeline) {
            dst.absorb(src);
        }
        tracers.push(inner.flows);
    }
    let (merged_log, remap) = simcore::causal::merge_sharded_with_remap(shards);
    main_inner.causal = Some(merged_log);
    main_inner.flows.absorb_lanes(tracers, &remap);
    for (slot, name) in CUMULATIVE_TRACKS.iter().enumerate() {
        let rebuilt = rebuild_cumulative(&cum[slot]);
        if !rebuilt.is_empty() {
            main_inner.metrics.track_replace(name, rebuilt);
        }
    }
}

/// Rebuild one cumulative counter track from per-lane running values:
/// reconstruct each lane's increments, interleave them in time order
/// (stable, so simultaneous samples keep lane-rank order), and re-
/// accumulate. Exact even when lanes sample at irregular instants.
fn rebuild_cumulative(per_lane: &[Track]) -> Vec<(u64, f64)> {
    let mut deltas: Vec<(u64, f64)> = Vec::new();
    for series in per_lane {
        let mut prev = 0.0;
        for (t, v) in series {
            deltas.push((t, v - prev));
            prev = v;
        }
    }
    deltas.sort_by_key(|&(t, _)| t);
    let mut running = 0.0;
    deltas
        .into_iter()
        .map(|(t, d)| {
            running += d;
            (t, running)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serialize tests touching the thread-local collector.
    fn with_clean_state(f: impl FnOnce()) {
        disable();
        f();
        disable();
    }

    /// The record of `tel`'s run.
    fn capture(tel: &Telemetry) -> RunRecord {
        RunRecord::capture(tel, RunMeta { config: "test".into(), ..RunMeta::default() })
    }

    /// Run `f` with `tel` in the probe slot, as a lane dispatch does.
    fn on_lane(tel: &Rc<Telemetry>, f: impl FnOnce()) {
        let prev = simcore::probe::swap(Some(tel.clone()));
        f();
        simcore::probe::swap(prev);
    }

    #[test]
    fn disabled_free_functions_are_noops() {
        with_clean_state(|| {
            assert!(!enabled());
            assert_eq!(flow_begin(0, 1, 0, SimTime::ZERO), 0);
            flow_mark(1, stage::PUT, SimTime::ZERO);
            counter_add_at("x", 1, SimTime::ZERO);
            assert!(take_route(0, 1, 5).is_empty());
            assert!(active().is_none());
        });
    }

    #[test]
    fn enable_collects_and_survives_disable() {
        with_clean_state(|| {
            let tel = enable();
            assert!(enabled());
            let id = flow_begin(0, 1, 2, SimTime::from_nanos(5));
            assert_eq!(id, 1);
            flow_mark(id, stage::DELIVER, SimTime::from_nanos(500));
            counter_add_at("parcels", 3, SimTime::from_nanos(500));
            register_route(0, 1, 7, &[id]);
            assert_eq!(take_route(0, 1, 7), vec![id]);
            disable();
            // The handle still reads collected data after disable.
            assert_eq!(tel.with_metrics(|m| m.counter("parcels")), 3);
            assert_eq!(capture(&tel).flows_total, 1);
            assert_eq!(flow_begin(0, 1, 0, SimTime::ZERO), 0);
        });
    }

    #[test]
    fn back_to_back_runs_do_not_cross_contaminate() {
        with_clean_state(|| {
            // First instrumented "run": flows, routes, counters, causal
            // provenance, profiler locality cursor.
            let first = enable();
            let id = flow_begin(0, 1, 0, SimTime::ZERO);
            flow_mark(id, stage::DELIVER, SimTime::from_nanos(100));
            register_route(0, 1, 99, &[id]);
            counter_add_at("parcels", 7, SimTime::from_nanos(100));
            profile_set_loc(3);
            simcore::causal::on_execute(1, 50, 0);
            simcore::causal::mark(
                "lock",
                simcore::causal::MarkKind::Hold,
                SimTime::ZERO,
                SimTime::from_nanos(10),
                0,
            );
            disable();
            assert!(!simcore::probe::installed());

            // Second run starts from a blank slate.
            let second = enable();
            assert_eq!(second.with_metrics(|m| m.counter("parcels")), 0);
            assert!(second.take_route(0, 1, 99).is_empty(), "routes must not leak");
            assert!(second.inner.borrow().causal.is_none(), "no event has dispatched");
            let id2 = flow_begin(0, 1, 0, SimTime::ZERO);
            assert_eq!(id2, 1, "flow ids restart per collector");
            disable();

            // The first handle still holds only its own data.
            assert_eq!(first.with_metrics(|m| m.counter("parcels")), 7);
            let first = capture(&first);
            assert_eq!((first.flows_total, first.events), (1, 1));
            let second = capture(&second);
            assert_eq!((second.flows_total, second.events), (1, 0));
        });
    }

    #[test]
    fn enable_while_enabled_resets_cleanly() {
        with_clean_state(|| {
            let stale = enable();
            counter_add_at("x", 1, SimTime::ZERO);
            // A run that forgot to disable: the next enable must not let
            // the stale collector keep collecting.
            let fresh = enable();
            counter_add_at("x", 1, SimTime::ZERO);
            disable();
            assert_eq!(stale.with_metrics(|m| m.counter("x")), 1);
            assert_eq!(fresh.with_metrics(|m| m.counter("x")), 1);
        });
    }

    #[test]
    fn lane_collectors_merge_to_one_run() {
        with_clean_state(|| {
            let main = enable();
            let lane0 = Telemetry::for_lane(0, &main);
            let lane1 = Telemetry::for_lane(1, &main);

            // Lane 1 sends a parcel to lane 0: begin/inject on lane 1,
            // receiver-side stages + route claim on lane 0.
            let mut id = 0;
            on_lane(&lane1, || {
                id = flow_begin(1, 0, 0, SimTime::from_nanos(10));
                flow_mark(id, stage::INJECT, SimTime::from_nanos(20));
                register_route(1, 0, 5, &[id]);
                counter_add_at("parcels", 1, SimTime::from_nanos(20));
            });

            on_lane(&lane0, || {
                let claimed = take_route(1, 0, 5);
                assert_eq!(claimed, vec![id]);
                flow_mark_many(&claimed, stage::DELIVER, SimTime::from_nanos(90));
                flow_set_dst_core(&claimed, 2);
                counter_add_at("parcels", 2, SimTime::from_nanos(90));
            });

            merge_lane_collectors(&main, vec![lane0, lane1]);
            disable();
            let rec = capture(&main);
            let data = rec.data.as_deref().unwrap();
            assert_eq!(data.flows.len(), 1);
            let flow = &data.flows[0];
            assert_eq!(flow.at(stage::PUT), Some(10));
            assert_eq!(flow.at(stage::INJECT), Some(20));
            assert_eq!(flow.at(stage::DELIVER), Some(90));
            assert_eq!(flow.dst_core, 2);
            assert_eq!(data.metrics.counter("parcels"), 3);
            // In-flight sums to zero (one begin on lane 1, one deliver on
            // lane 0) and the rebuilt track ends at 0.
            let track = data.metrics.track("parcels.in_flight").unwrap().iter().collect::<Vec<_>>();
            assert_eq!(track, [(10, 1.0), (90, 0.0)]);
        });
    }

    /// Two lane collectors with a timeline, each sending three parcels to
    /// the other lane and one to itself, every one delivered: the
    /// receiving lanes take every published flow-metadata entry, and the
    /// merged latency series counts each delivered flow once.
    #[test]
    fn delivered_flows_leave_no_published_metadata() {
        with_clean_state(|| {
            let main = enable_with(TimelineConfig::default());
            let lanes = [Telemetry::for_lane(0, &main), Telemetry::for_lane(1, &main)];
            let mut routes: [Vec<(usize, u64)>; 2] = Default::default();
            for (src, lane) in lanes.iter().enumerate() {
                on_lane(lane, || {
                    for (tag, dst) in [1 - src, 1 - src, 1 - src, src].into_iter().enumerate() {
                        let id = flow_begin(src, dst, 0, SimTime::from_nanos(10 + tag as u64));
                        register_route(src, dst, tag as u64, &[id]);
                        routes[dst].push((src, tag as u64));
                    }
                });
            }
            for (dst, lane) in lanes.iter().enumerate() {
                on_lane(lane, || {
                    for &(src, tag) in &routes[dst] {
                        let ids = take_route(src, dst, tag);
                        flow_mark_many(&ids, stage::DELIVER, SimTime::from_nanos(100));
                    }
                });
            }
            let delivered = routes.iter().map(Vec::len).sum::<usize>() as u64;
            assert_eq!(main.inner.borrow().flows.meta_len(), 0, "delivered flows left metadata");
            merge_lane_collectors(&main, lanes.into());
            disable();
            let latencies = main.with_metrics(|m| m.hist("parcel.latency_ns").map(|h| h.count()));
            assert_eq!(latencies, Some(delivered));
        });
    }

    /// Two runs on two threads whose lane collectors register the same
    /// `(src, dst, tag_base)` route: each run claims only its own flow
    /// ids, and `disable` on one thread leaves the other run's pending
    /// routes and flow metadata alone.
    #[test]
    fn concurrent_runs_keep_their_own_routes() {
        let barrier = std::sync::Barrier::new(2);
        // Run `flows` parcels through one run; run 1 claims and disables
        // while run 2's route is still pending, run 2 claims afterwards.
        let run = |flows: u64| {
            let main = enable_with(TimelineConfig::default());
            let sender = Telemetry::for_lane(1, &main);
            let receiver = Telemetry::for_lane(0, &main);
            let mut ids = Vec::new();
            on_lane(&sender, || {
                ids = (0..flows).map(|_| flow_begin(1, 0, 0, SimTime::from_nanos(10))).collect();
                register_route(1, 0, 5, &ids);
            });
            barrier.wait();
            if flows == 2 {
                barrier.wait();
            }
            let mut claimed = Vec::new();
            on_lane(&receiver, || {
                claimed = take_route(1, 0, 5);
                flow_mark_many(&claimed, stage::DELIVER, SimTime::from_nanos(50));
            });
            merge_lane_collectors(&main, vec![receiver, sender]);
            disable();
            if flows == 1 {
                barrier.wait();
            }
            let latencies = main.with_metrics(|m| m.hist("parcel.latency_ns").map(|h| h.count()));
            (ids, claimed, latencies)
        };
        let results = std::thread::scope(|s| {
            let first = s.spawn(|| run(1));
            let second = s.spawn(|| run(2));
            [first.join().expect("run 1"), second.join().expect("run 2")]
        });
        for (ids, claimed, latencies) in results {
            assert_eq!(claimed, ids, "a run claimed another run's flows");
            assert_eq!(latencies, Some(ids.len() as u64), "a run lost its flow metadata");
        }
    }

    #[test]
    fn probe_feeds_contention_table() {
        with_clean_state(|| {
            let tel = enable();
            let mut lock = simcore::SimLock::new("ucp_progress", 500, 200);
            lock.acquire(0, SimTime::ZERO, 1_000);
            lock.acquire(1, SimTime::ZERO, 1_000); // convoy: waits
            let mut tl = simcore::SimTryLock::new("lci.progress");
            let _ = tl.try_acquire(0, SimTime::ZERO, 100);
            let _ = tl.try_acquire(1, SimTime::ZERO, 100); // busy
            let mut res = simcore::SimResource::new("nic.tx_post", 50);
            res.access(SimTime::ZERO, 0, 10);
            disable();
            let ranking = capture(&tel).resources;
            assert_eq!(ranking[0].name, "ucp_progress");
            assert!(ranking[0].wait_ns > 0);
            let names: Vec<_> = ranking.iter().map(|r| r.name.as_str()).collect();
            assert!(names.contains(&"lci.progress") && names.contains(&"nic.tx_post"));
            // The try-lock never accumulates wait.
            let try_lock = ranking.iter().find(|r| r.name == "lci.progress").unwrap();
            assert_eq!(try_lock.wait_ns, 0);
        });
    }

    /// Counts what reaches it: accesses, dispatch begins and ends.
    #[derive(Default)]
    struct CountProbe {
        accesses: std::cell::Cell<u32>,
        begins: std::cell::Cell<u32>,
        ends: std::cell::Cell<u32>,
    }

    impl CountProbe {
        fn counts(&self) -> (u32, u32, u32) {
            (self.accesses.get(), self.begins.get(), self.ends.get())
        }
    }

    impl Probe for CountProbe {
        fn access(&self, _: Access) {
            self.accesses.set(self.accesses.get() + 1);
        }
        fn on_execute(&self, _: u64, _: u64, _: u64) {
            self.begins.set(self.begins.get() + 1);
        }
        fn end_execute(&self) {
            self.ends.set(self.ends.get() + 1);
        }
    }

    /// A probe in the slot that is not a collector counts as no
    /// collector, and still sees what simcore reports.
    #[test]
    fn a_probe_that_is_not_a_collector_is_no_collector() {
        with_clean_state(|| {
            let probe = Rc::new(CountProbe::default());
            simcore::probe::install(probe.clone());
            assert!(!enabled());
            assert!(active().is_none());
            assert_eq!(flow_begin(0, 1, 0, SimTime::ZERO), 0);
            counter_add_at("x", 1, SimTime::from_nanos(5));
            assert_eq!(probe.counts(), (0, 0, 0), "a telemetry call reached the probe");

            let mut lock = simcore::SimLock::new("not_a_collector", 500, 200);
            lock.acquire(0, SimTime::ZERO, 100);
            assert_eq!(probe.counts(), (1, 0, 0));

            let mut sim = simcore::Sim::new(1);
            sim.schedule_at(SimTime::from_nanos(10), |_| {});
            sim.run();
            assert_eq!(probe.counts(), (1, 1, 1));
            assert!(simcore::probe::installed(), "the probe stays in the slot");
        });
    }
}
