//! # telemetry — virtual-time observability for the simulated stack
//!
//! A single subsystem every layer reports into:
//!
//! * a **metrics store** ([`Metrics`]): counters, gauges, log-bucketed
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
//!   time per named `SimLock`/`SimTryLock`/`SimResource`, fed through
//!   `simcore::probe`, ranked by total wait;
//! * a **virtual-time core profiler** ([`CoreProfile`]): per-core
//!   `working/progress/lock-wait/serialize/idle` accounting whose state
//!   durations partition each core's elapsed virtual time exactly, with
//!   folded-stack flamegraph output (see [`profile`]);
//! * an optional **timeline** ([`Timeline`]): the window cursor, SLO
//!   monitors and the flight recorder over the windowed metrics (see
//!   [`timeline`]);
//! * the **run record** ([`RunRecord`]): the one end-of-run artifact.
//!   The critical-path, contention and core-time reports are views of
//!   it ([`CritPath::to_text`], [`RunRecord::contention_text`],
//!   [`RunRecord::core_time_text`] and their JSON twins).
//!
//! ## Enable/disable
//!
//! A [`Telemetry`] collector is a `simcore::Probe`: [`enable`] installs it
//! in simcore's one observer slot ([`simcore::probe`]), where it sees
//! every lock and resource access, every event dispatch and every causal
//! mark, and forwards the last two to its own causal log. Call sites go
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
use simcore::probe::{Label, Probe};
use simcore::{CausalLog, SimTime};

pub use chrome::CoreSpan;
pub use critpath::{ComponentShare, CritPath, ParcelPath, PathSegment};
pub use diff::RecordDiff;
pub use flow::{stage, FlowRec, FlowTracer, STAGE_NAMES};
pub use hist::Histogram;
pub use metrics::{
    ContentionStat, ContentionTable, Metrics, PortWindow, ResourceKind, Series, WindowCell,
};
pub use profile::{CoreProfile, CoreState};
pub use record::{RunMeta, RunRecord};
pub use report::Breakdown;
pub use timeline::{FlightDump, SloAlert, SloRule, Timeline, TimelineConfig};

/// The collector: metrics, flows, contention, core spans, profile and
/// timeline, behind one `RefCell`.
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
    spans: Vec<Vec<CoreSpan>>,
    profile: CoreProfile,
    /// Parcels begun but not yet delivered, sampled as the
    /// `parcels.in_flight` counter track.
    in_flight: i64,
    /// HPX messages delivered so far: the run total of the
    /// `amt.messages_delivered` counter, sampled as the `amt.delivered`
    /// counter track.
    delivered: u64,
    /// The causal provenance log ([`simcore::causal`]): the collector
    /// forwards every dispatch, mark and access it observes to it.
    causal: Rc<CausalLog>,
    /// The window cursor, SLO monitors and flight recorder
    /// ([`timeline`]), present only when timelines were requested
    /// ([`enable_with`] / [`Telemetry::enable_timeline`]).
    timeline: Option<Timeline>,
}

impl Inner {
    /// Feed one newly delivered flow into the windowed `parcel.latency_ns`
    /// series and the flight-recorder ring. No-op when timelines are
    /// off, so plain instrumented runs keep their exact metric key set.
    fn flow_delivered(&mut self, id: u64, t: SimTime) {
        if self.timeline.is_none() || id == 0 {
            return;
        }
        let (src, dst, put) = match self.flows.rec(id) {
            Some(rec) => (rec.src, rec.dst, rec.at(stage::PUT).unwrap_or(t.as_nanos())),
            // Lane mode: a foreign id's record lives on the sending
            // lane's tracer; take the published metadata instead.
            None => match self.flows.take_meta(id) {
                Some(meta) => meta,
                None => return,
            },
        };
        let deliver = t.as_nanos();
        self.metrics.hist_record("parcel.latency_ns", deliver.saturating_sub(put), deliver);
        if let Some(tl) = &mut self.timeline {
            tl.sampled(deliver, true, &self.metrics);
            tl.flow_delivered(id, src, dst, put, deliver);
        }
    }

    /// Mark `stage` on a batch of flows. Each newly delivered parcel
    /// lands in the windowed latency series and on the flight recorder;
    /// the batch moves `parcels.in_flight` by one sample.
    fn mark_flows(&mut self, ids: &[u64], stage: usize, t: SimTime) {
        let (mut newly, node) = (0i64, self.causal.current_node());
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
        self.observe(t.as_nanos(), true);
    }

    /// Keep one core span of locality `loc`.
    fn push_span(&mut self, loc: usize, core: usize, label: &'static str, start: u64, end: u64) {
        if self.spans.len() <= loc {
            self.spans.resize_with(loc + 1, Vec::new);
        }
        self.spans[loc].push(CoreSpan { core: core as u32, label, start, end });
    }

    /// The timeline cursor, where untimed samples land; 0 without a
    /// timeline, whose single window takes every sample.
    fn untimed_ns(&self) -> u64 {
        self.timeline.as_ref().map_or(0, Timeline::cursor_ns)
    }

    /// Tell the timeline a counter or (`hist`) histogram sample was just
    /// stored at `t_ns`; `poll` then takes a dump that fell due.
    fn sampled(&mut self, t_ns: u64, hist: bool, poll: bool) {
        if let Some(tl) = &mut self.timeline {
            tl.sampled(t_ns, hist, &self.metrics);
            if poll {
                self.tl_poll();
            }
        }
    }

    /// Advance the timeline cursor to `t_ns`; `poll` then takes a dump
    /// that fell due.
    fn observe(&mut self, t_ns: u64, poll: bool) {
        if let Some(tl) = &mut self.timeline {
            tl.observe(t_ns, &self.metrics);
            if poll {
                self.tl_poll();
            }
        }
    }

    /// The SLO alerts the Chrome export marks: the timeline's alert list
    /// once finalized, none before (a live list is still settling).
    fn alert_markers(&self) -> &[SloAlert] {
        match &self.timeline {
            Some(tl) if tl.finalized() => tl.alerts(),
            _ => &[],
        }
    }

    /// Take a flight-recorder dump if one is armed and its post-roll has
    /// elapsed (called after anything that advances the timeline cursor).
    fn tl_poll(&mut self) {
        let Some(tl) = &mut self.timeline else { return };
        if tl.dump_due() {
            tl.take_dump(causal_tail(&self.causal));
        }
    }
}

/// The last [`timeline::DUMP_MARKS`] causal marks, as flight-recorder
/// dump rows.
fn causal_tail(log: &CausalLog) -> Vec<timeline::DumpMark> {
    log.with_view(|view| {
        view.last_marks(timeline::DUMP_MARKS)
            .map(|m| {
                let kind = match m.kind {
                    MarkKind::Wait => "wait",
                    MarkKind::Hold => "hold",
                    MarkKind::Work => "work",
                    MarkKind::Wire => "wire",
                };
                (m.label, kind, m.start, m.end)
            })
            .collect()
    })
}

impl Telemetry {
    /// Create a detached collector (not installed anywhere), with an empty
    /// causal log of its own.
    pub fn new() -> Self {
        Telemetry::default()
    }

    /// Add `n` to counter `key`, in the timeline's current window.
    pub fn counter_add(&self, key: &'static str, n: u64) {
        let inner = &mut *self.inner.borrow_mut();
        let t = inner.untimed_ns();
        inner.metrics.counter_add(key, n, t);
        inner.sampled(t, false, false);
    }

    /// Add `n` to counter `key`, in the window of instant `t` (identical
    /// to [`Telemetry::counter_add`] when timelines are off).
    pub fn counter_add_at(&self, key: &'static str, n: u64, t: SimTime) {
        let inner = &mut *self.inner.borrow_mut();
        inner.metrics.counter_add(key, n, t.as_nanos());
        inner.sampled(t.as_nanos(), false, true);
    }

    /// Record `v` into histogram `key`, in the window of instant `t`
    /// (identical to [`Telemetry::hist_record`] when timelines are off).
    pub fn hist_record_at(&self, key: &'static str, v: u64, t: SimTime) {
        let inner = &mut *self.inner.borrow_mut();
        inner.metrics.hist_record(key, v, t.as_nanos());
        inner.sampled(t.as_nanos(), true, true);
    }

    /// Set gauge `key`.
    pub fn gauge_set(&self, key: &'static str, v: i64) {
        self.inner.borrow_mut().metrics.gauge_set(key, v);
    }

    /// Record into histogram `key`, in the timeline's current window.
    pub fn hist_record(&self, key: &'static str, v: u64) {
        let inner = &mut *self.inner.borrow_mut();
        let t = inner.untimed_ns();
        inner.metrics.hist_record(key, v, t);
        inner.sampled(t, true, false);
    }

    /// Append a counter-track sample.
    pub fn track_sample(&self, name: &'static str, t: SimTime, v: f64) {
        let inner = &mut *self.inner.borrow_mut();
        inner.metrics.track_sample(name, t.as_nanos(), v);
        inner.observe(t.as_nanos(), true);
    }

    /// Start a parcel flow; returns its id (0 when the tracer is full).
    pub fn flow_begin(&self, src: usize, dst: usize, src_core: usize, t: SimTime) -> u64 {
        let inner = &mut *self.inner.borrow_mut();
        let id = inner.flows.begin(src, dst, src_core, t);
        if id != 0 {
            inner.in_flight += 1;
            let v = inner.in_flight as f64;
            inner.metrics.track_sample("parcels.in_flight", t.as_nanos(), v);
            // Lane mode with timelines: publish (src, dst, put) of a flow
            // bound for another locality, so the receiving lane can feed
            // its latency series at delivery. A local flow's record is
            // this lane's own.
            if inner.timeline.is_some() && inner.flows.lane_mode() && src != dst {
                inner.flows.publish_meta(id, src, dst, t.as_nanos());
            }
        }
        inner.observe(t.as_nanos(), false);
        id
    }

    /// Mark `stage` on one flow.
    pub fn flow_mark(&self, id: u64, stage: usize, t: SimTime) {
        self.flow_mark_many(&[id], stage, t);
    }

    /// Mark `stage` on a batch of flows. Each newly delivered parcel
    /// lands in the windowed latency series and on the flight recorder;
    /// the batch moves `parcels.in_flight` by one sample.
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
        inner.sampled(t.as_nanos(), false, true);
        if !ids.is_empty() {
            inner.mark_flows(ids, stage::DELIVER, t);
            let n = inner.delivered as f64;
            inner.metrics.track_sample("amt.delivered", t.as_nanos(), n);
            inner.observe(t.as_nanos(), true);
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

    /// Read access to the metrics registry.
    pub fn with_metrics<R>(&self, f: impl FnOnce(&Metrics) -> R) -> R {
        f(&self.inner.borrow().metrics)
    }

    /// Read access to the recorded flows.
    pub fn with_flows<R>(&self, f: impl FnOnce(&[FlowRec]) -> R) -> R {
        f(self.inner.borrow().flows.flows())
    }

    /// Read access to the contention table.
    pub fn with_contention<R>(&self, f: impl FnOnce(&ContentionTable) -> R) -> R {
        f(&self.inner.borrow().contention)
    }

    /// Number of recorded flows.
    pub fn flow_count(&self) -> usize {
        self.inner.borrow().flows.len()
    }

    /// Build the per-stage latency breakdown for `config`.
    pub fn breakdown(&self, config: &str) -> Breakdown {
        Breakdown::from_flows(config, self.inner.borrow().flows.flows())
    }

    /// Set the locality whose event handler is currently executing, so
    /// probe-driven profiler overlays attribute to the right locality.
    pub fn profile_set_loc(&self, loc: usize) {
        self.inner.borrow_mut().profile.set_loc(loc);
    }

    /// Record a scheduler-level (base) profiler interval on `(loc, core)`.
    pub fn profile_record(
        &self,
        loc: usize,
        core: usize,
        state: CoreState,
        label: &'static str,
        start: SimTime,
        end: SimTime,
    ) {
        let inner = &mut *self.inner.borrow_mut();
        inner.profile.record_base(loc, core, state, label, start.as_nanos(), end.as_nanos());
        inner.observe(end.as_nanos(), true);
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

    /// Read access to the core profile.
    pub fn with_profile<R>(&self, f: impl FnOnce(&CoreProfile) -> R) -> R {
        f(&self.inner.borrow().profile)
    }

    /// Render folded-stack flamegraph lines for `config`.
    pub fn folded_stacks(&self, config: &str) -> String {
        self.inner.borrow().profile.folded(config)
    }

    /// Record that `label` ran on `core` of locality `loc` over
    /// `[start, end]` — one span on the Chrome export's `loc<L>/core<C>`
    /// track. Empty spans are kept, as the scheduler reports them.
    pub fn core_span(
        &self,
        loc: usize,
        core: usize,
        label: &'static str,
        start: SimTime,
        end: SimTime,
    ) {
        self.inner.borrow_mut().push_span(loc, core, label, start.as_nanos(), end.as_nanos());
    }

    /// One scheduler tick of `core` on locality `loc` over `[start,
    /// end]`: the core span `span`, if the tick ran something (empty
    /// spans are kept), then, if the tick took time, the base profile
    /// record of `state` under `label`. The same records as
    /// [`Telemetry::core_span`] then [`Telemetry::profile_record`].
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
            inner.observe(end, true);
        }
    }

    /// Read access to the core spans, grouped by locality.
    pub fn with_core_spans<R>(&self, f: impl FnOnce(&[Vec<CoreSpan>]) -> R) -> R {
        f(&self.inner.borrow().spans)
    }

    /// Number of spans the Chrome export carries: every core span, plus
    /// one marker per SLO alert once the timeline is finalized.
    pub fn span_count(&self) -> usize {
        let inner = self.inner.borrow();
        inner.spans.iter().map(Vec::len).sum::<usize>() + inner.alert_markers().len()
    }

    /// Render the combined Chrome-trace JSON: core spans, SLO alert
    /// markers, flows and counter tracks.
    pub fn chrome_trace_collected(&self) -> String {
        let inner = self.inner.borrow();
        let alerts = inner.alert_markers();
        chrome::chrome_trace(&inner.spans, alerts, inner.flows.flows(), &inner.metrics)
    }

    /// The causal provenance log this collector captured.
    pub fn causal_log(&self) -> Rc<CausalLog> {
        self.inner.borrow().causal.clone()
    }

    /// Extract the makespan critical path from the captured causal log.
    /// `None` when nothing was recorded.
    pub fn critpath(&self, config: &str) -> Option<CritPath> {
        let log = self.causal_log();
        let cp = CritPath::from_log(config, &log);
        (cp.total_ns > 0).then_some(cp)
    }

    /// Per-parcel critical paths (stage telescoping) for delivered flows.
    pub fn parcel_paths(&self) -> Vec<ParcelPath> {
        critpath::parcel_paths(self.inner.borrow().flows.flows())
    }

    /// [`Telemetry::chrome_trace_collected`] plus critical-path overlay:
    /// on-path segments as spans on a dedicated `critpath` track, a
    /// `critpath.total_us` counter, and on-path parcel flows highlighted.
    pub fn chrome_trace_with_critpath(&self, cp: &CritPath) -> String {
        let inner = self.inner.borrow();
        let (alerts, flows) = (inner.alert_markers(), inner.flows.flows());
        chrome::chrome_trace_with_critpath(&inner.spans, alerts, flows, &inner.metrics, cp)
    }

    /// Attach a windowed timeline to this collector (normally done by
    /// [`enable_with`] before the run starts). The metrics store their
    /// samples in windows of `cfg.window_ns` from here on, and the
    /// profiler keeps the per-core segments the timeline slices. Samples
    /// already stored cannot be re-bucketed, nor segments recovered, so
    /// this panics if the collector holds any counter, histogram or port
    /// sample, or any core account.
    pub fn enable_timeline(&self, cfg: TimelineConfig) {
        let inner = &mut *self.inner.borrow_mut();
        inner.metrics.set_window_ns(cfg.window_ns);
        inner.profile.keep_segments();
        inner.timeline = Some(Timeline::new(cfg));
    }

    /// Read access to the timeline; `None` when timelines are off.
    pub fn with_timeline<R>(&self, f: impl FnOnce(&Timeline) -> R) -> Option<R> {
        self.inner.borrow().timeline.as_ref().map(f)
    }

    /// Add an SLO rule mid-run (e.g. an objective derived from a baseline
    /// phase of the same run); no-op when timelines are off.
    pub fn timeline_add_rule(&self, rule: SloRule) {
        if let Some(tl) = &mut self.inner.borrow_mut().timeline {
            tl.add_rule(rule);
        }
    }

    /// Record one egress-port access into the per-port windows; no-op
    /// when timelines are off. Port grants are scheduled analytically at
    /// injection time, so `t` routinely lies in the future: the access
    /// lands in its window but does NOT advance the cursor, else congested
    /// runs would settle (and SLO-evaluate) windows whose delivery
    /// samples are still in flight.
    pub fn timeline_port(&self, name: &'static str, t: SimTime, wait_ns: u64, bytes: u64) {
        let inner = &mut *self.inner.borrow_mut();
        if inner.timeline.is_some() {
            inner.metrics.port_access(name, t.as_nanos(), wait_ns, bytes);
            inner.tl_poll();
        }
    }

    /// Record an injected fault at instant `t`, arming the flight
    /// recorder; no-op when timelines are off.
    pub fn fault_event_at(&self, label: &'static str, t: SimTime) {
        let inner = &mut *self.inner.borrow_mut();
        if let Some(tl) = &mut inner.timeline {
            tl.fault_event(label, t.as_nanos(), &inner.metrics);
            inner.tl_poll();
        }
    }

    /// [`Telemetry::fault_event_at`] at the timeline's current cursor,
    /// for fault sites with no virtual clock in hand.
    pub fn fault_event(&self, label: &'static str) {
        let inner = &mut *self.inner.borrow_mut();
        if let Some(tl) = &mut inner.timeline {
            let t = tl.cursor_ns();
            tl.fault_event(label, t, &inner.metrics);
            inner.tl_poll();
        }
    }

    /// Close out the timeline at end of run: evaluate the remaining
    /// windows, take any still-armed flight-recorder dump, and inject the
    /// per-window counter tracks into the metrics registry so the Chrome
    /// export grows timeline counter tracks. From here on the export
    /// renders each alert as a zero-duration span on its `slo/<rule>`
    /// track. Idempotent; no-op when timelines are off.
    pub fn timeline_finalize(&self) {
        let inner = &mut *self.inner.borrow_mut();
        let Some(tl) = &mut inner.timeline else { return };
        if tl.finalized() {
            return;
        }
        tl.finalize(&inner.metrics);
        inner.tl_poll();
        let Some(tl) = &inner.timeline else { return };
        for (name, series) in tl.counter_tracks(&inner.metrics) {
            let name = simcore::keyed::intern(&name);
            for (t, v) in series {
                inner.metrics.track_sample(name, t, v);
            }
        }
    }

    /// The deterministic SLO alert list (empty when timelines are off).
    pub fn timeline_alerts(&self) -> Vec<SloAlert> {
        self.with_timeline(|tl| tl.alerts().to_vec()).unwrap_or_default()
    }

    /// Flight-recorder dumps taken so far (empty when timelines are off).
    pub fn timeline_dumps(&self) -> Vec<FlightDump> {
        self.with_timeline(|tl| tl.dumps().to_vec()).unwrap_or_default()
    }

    /// The machine-readable timeline document for `config` (see
    /// [`Timeline::to_json`]), with per-window core-state occupancy and
    /// critical-path slices filled in from the profiler and causal log.
    /// `None` when timelines are off.
    pub fn timeline_json(&self, config: &str) -> Option<String> {
        self.timeline_finalize();
        let cp = self.critpath(config);
        let inner = self.inner.borrow();
        let tl = inner.timeline.as_ref()?;
        let snap = inner.profile.snapshot();
        let occ = (!snap.is_empty())
            .then(|| timeline::slice_occupancy(snap.values(), tl.window_ns(), tl.num_windows()));
        let crit = cp.map(|cp| timeline::critpath_slices(&cp, tl.window_ns(), tl.num_windows()));
        Some(tl.to_json(config, &inner.metrics, occ.as_ref(), crit.as_deref()))
    }

    /// The OpenMetrics-style text exposition for `config`; `None` when
    /// timelines are off.
    pub fn timeline_text(&self, config: &str) -> Option<String> {
        self.timeline_finalize();
        let inner = self.inner.borrow();
        Some(inner.timeline.as_ref()?.to_openmetrics(config, &inner.metrics))
    }
}

/// The collector is simcore's probe. One access is one call: under one
/// borrow it fills the contention row, the profiler's lock-wait overlay
/// and the timeline, then forwards the access to its causal log, after any
/// flight-recorder dump the access made due (which therefore ends before
/// the access's own marks). Dispatch and marks go straight to the log.
impl Probe for Telemetry {
    fn lock_wait(
        &self,
        label: Label,
        core: usize,
        now: SimTime,
        wait_ns: u64,
        hold_ns: u64,
        contended: bool,
    ) {
        let inner = &mut *self.inner.borrow_mut();
        inner.contention.record(label, ResourceKind::Lock, wait_ns, hold_ns, contended);
        // The wait interval `[now, now+wait)` is spin time on `core`; the
        // profiler carves it out of whatever base interval encloses it.
        if wait_ns > 0 {
            let (start, end) = (now.as_nanos(), now.as_nanos() + wait_ns);
            inner.profile.record_overlay_here(core, CoreState::LockWait, label.name, start, end);
        }
        if let (true, Some(tl)) = (contended, &mut inner.timeline) {
            tl.probe_event(label.name, "lock", now.as_nanos(), wait_ns, hold_ns);
        }
        inner.observe(now.as_nanos(), true);
        inner.causal.lock_wait(label, core, now, wait_ns, hold_ns, contended);
    }

    fn try_lock(&self, label: Label, now: SimTime, acquired: bool, hold_ns: u64) {
        // A failed try never waits — that is the point of the LCI design;
        // it only counts as a contended event.
        let inner = &mut *self.inner.borrow_mut();
        inner.contention.record(label, ResourceKind::TryLock, 0, hold_ns, !acquired);
        inner.observe(now.as_nanos(), false);
        inner.causal.try_lock(label, now, acquired, hold_ns);
    }

    fn resource_access(
        &self,
        label: Label,
        core: usize,
        now: SimTime,
        wait_ns: u64,
        service_ns: u64,
        transferred: bool,
    ) {
        let inner = &mut *self.inner.borrow_mut();
        let contended = wait_ns > 0 || transferred;
        inner.contention.record(label, ResourceKind::Resource, wait_ns, service_ns, contended);
        // Queueing on a serialized resource is lock-wait-like core time.
        if wait_ns > 0 {
            let (start, end) = (now.as_nanos(), now.as_nanos() + wait_ns);
            inner.profile.record_overlay_here(core, CoreState::LockWait, label.name, start, end);
            if let Some(tl) = &mut inner.timeline {
                tl.probe_event(label.name, "resource", now.as_nanos(), wait_ns, service_ns);
            }
        }
        inner.observe(now.as_nanos(), true);
        inner.causal.resource_access(label, core, now, wait_ns, service_ns, transferred);
    }

    fn on_execute(&self, node: u64, at: u64, parent: u64) {
        self.inner.borrow().causal.on_execute(node, at, parent);
    }

    fn end_execute(&self) {
        self.inner.borrow().causal.end_execute();
    }

    fn mark(&self, label: &'static str, kind: MarkKind, start: SimTime, end: SimTime, fixed: u64) {
        self.inner.borrow().causal.mark(label, kind, start, end, fixed);
    }
}

/// Install a fresh collector in this thread's probe slot, replacing
/// whatever it held. Returns the handle; keep it to read reports after
/// [`disable`].
pub fn enable() -> Rc<Telemetry> {
    let t = Rc::new(Telemetry::new());
    simcore::probe::install(t.clone());
    t
}

/// [`enable`], plus a windowed timeline under `cfg`: per-window
/// histograms/counters/port accounting, SLO monitors, and the flight
/// recorder. The timeline is pure observation like everything else —
/// enabled runs reproduce the exact event streams of disabled runs.
pub fn enable_with(cfg: TimelineConfig) -> Rc<Telemetry> {
    let t = enable();
    t.enable_timeline(cfg);
    t
}

/// Empty this thread's probe slot. Every piece of recording state, the
/// causal log's executing node included, belongs to a collector, so
/// back-to-back instrumented runs in one process cannot contaminate each
/// other. Runs on other threads are untouched: their route stores belong
/// to their own collectors. The handle returned by [`enable`] stays valid
/// for reading reports.
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
        with(|tel| tel.flow_mark(id, stage, t));
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

/// Add to a counter on the active collector.
#[inline]
pub fn counter_add(key: &'static str, n: u64) {
    with(|tel| tel.counter_add(key, n));
}

/// Record into a histogram on the active collector.
#[inline]
pub fn hist_record(key: &'static str, v: u64) {
    with(|tel| tel.hist_record(key, v));
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

/// Record an injected fault at instant `t` (arms the flight recorder);
/// no-op when disabled or when timelines are off.
#[inline]
pub fn fault_event_at(label: &'static str, t: SimTime) {
    with(|tel| tel.fault_event_at(label, t));
}

/// [`fault_event_at`] at the timeline cursor, for fault sites with no
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

/// Record a base profiler interval; no-op when disabled or empty.
#[inline]
pub fn profile_record(
    loc: usize,
    core: usize,
    state: CoreState,
    label: &'static str,
    start: SimTime,
    end: SimTime,
) {
    if end > start {
        with(|tel| tel.profile_record(loc, core, state, label, start, end));
    }
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
        let mut tel = Telemetry::new();
        let main = main.inner.borrow();
        if let Some(tl) = &main.timeline {
            tel.enable_timeline(tl.config());
        }
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
    let mut cum: Vec<Vec<Vec<(u64, f64)>>> = vec![Vec::new(); CUMULATIVE_TRACKS.len()];
    for lane in lanes {
        let inner = lane.inner.take();
        shards.push(inner.causal.take_data());
        for (slot, name) in CUMULATIVE_TRACKS.iter().enumerate() {
            cum[slot].push(inner.metrics.track(name).map(|s| s.to_vec()).unwrap_or_default());
        }
        main_inner.metrics.merge(&inner.metrics);
        main_inner.contention.merge(&inner.contention);
        main_inner.profile.absorb(inner.profile);
        // A lane records only its own locality's spans, so each
        // locality's list comes from one lane, in recording order.
        if main_inner.spans.len() < inner.spans.len() {
            main_inner.spans.resize_with(inner.spans.len(), Vec::new);
        }
        for (loc, spans) in inner.spans.into_iter().enumerate() {
            main_inner.spans[loc].extend(spans);
        }
        main_inner.in_flight += inner.in_flight;
        main_inner.delivered += inner.delivered;
        if let (Some(dst), Some(src)) = (&mut main_inner.timeline, inner.timeline) {
            dst.absorb(src);
        }
        tracers.push(inner.flows);
    }
    let (merged_log, remap) = simcore::causal::merge_sharded_with_remap(shards);
    main_inner.causal = merged_log;
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
fn rebuild_cumulative(per_lane: &[Vec<(u64, f64)>]) -> Vec<(u64, f64)> {
    let mut deltas: Vec<(u64, f64)> = Vec::new();
    for series in per_lane {
        let mut prev = 0.0;
        for &(t, v) in series {
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
            counter_add("x", 1);
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
            counter_add("parcels", 3);
            register_route(0, 1, 7, &[id]);
            assert_eq!(take_route(0, 1, 7), vec![id]);
            disable();
            // The handle still reads collected data after disable.
            assert_eq!(tel.flow_count(), 1);
            assert_eq!(tel.with_metrics(|m| m.counter("parcels")), 3);
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
            counter_add("parcels", 7);
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
            assert_eq!(second.flow_count(), 0);
            assert_eq!(second.with_metrics(|m| m.counter("parcels")), 0);
            assert!(second.take_route(0, 1, 99).is_empty(), "routes must not leak");
            let log = second.causal_log();
            assert_eq!(log.current_node(), 0, "no event is dispatching");
            assert_eq!(log.node_count(), 0);
            assert_eq!(log.mark_count(), 0);
            let id2 = flow_begin(0, 1, 0, SimTime::ZERO);
            assert_eq!(id2, 1, "flow ids restart per collector");
            disable();

            // The first handle still holds only its own data.
            assert_eq!(first.flow_count(), 1);
            assert_eq!(first.with_metrics(|m| m.counter("parcels")), 7);
            assert_eq!(first.causal_log().node_count(), 1);
            assert_eq!(second.flow_count(), 1);
        });
    }

    #[test]
    fn enable_while_enabled_resets_cleanly() {
        with_clean_state(|| {
            let stale = enable();
            counter_add("x", 1);
            // A run that forgot to disable: the next enable must not let
            // the stale collector keep collecting.
            let fresh = enable();
            counter_add("x", 1);
            disable();
            assert_eq!(stale.with_metrics(|m| m.counter("x")), 1);
            assert_eq!(fresh.with_metrics(|m| m.counter("x")), 1);
        });
    }

    #[test]
    #[should_panic(expected = "cannot be re-bucketed")]
    fn enabling_a_timeline_after_samples_panics() {
        let tel = Telemetry::new();
        tel.counter_add("x", 1);
        tel.enable_timeline(TimelineConfig::default());
    }

    #[test]
    #[should_panic(expected = "already holds core accounts")]
    fn enabling_a_timeline_after_profile_records_panics() {
        let tel = Telemetry::new();
        tel.profile_record(0, 0, CoreState::Working, "task", SimTime::ZERO, SimTime::from_nanos(9));
        tel.enable_timeline(TimelineConfig::default());
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
                counter_add("parcels", 1);
            });

            on_lane(&lane0, || {
                let claimed = take_route(1, 0, 5);
                assert_eq!(claimed, vec![id]);
                flow_mark_many(&claimed, stage::DELIVER, SimTime::from_nanos(90));
                flow_set_dst_core(&claimed, 2);
                counter_add("parcels", 2);
            });

            merge_lane_collectors(&main, vec![lane0, lane1]);
            assert_eq!(main.flow_count(), 1);
            main.with_flows(|flows| {
                let rec = &flows[0];
                assert_eq!(rec.at(stage::PUT), Some(10));
                assert_eq!(rec.at(stage::INJECT), Some(20));
                assert_eq!(rec.at(stage::DELIVER), Some(90));
                assert_eq!(rec.dst_core, 2);
            });
            assert_eq!(main.with_metrics(|m| m.counter("parcels")), 3);
            // In-flight sums to zero (one begin on lane 1, one deliver on
            // lane 0) and the rebuilt track ends at 0.
            let track = main.with_metrics(|m| m.track("parcels.in_flight").unwrap().to_vec());
            assert_eq!(track, vec![(10, 1.0), (90, 0.0)]);
            disable();
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
            let _ = tl.try_acquire(SimTime::ZERO, 100);
            let _ = tl.try_acquire(SimTime::ZERO, 100); // busy
            let mut res = simcore::SimResource::new("nic.tx_post", 50);
            res.access(SimTime::ZERO, 0, 10);
            disable();
            let meta = RunMeta { config: "test".into(), ..RunMeta::default() };
            let ranking = RunRecord::capture(&tel, meta).resources;
            assert_eq!(ranking[0].name, "ucp_progress");
            assert!(ranking[0].wait_ns > 0);
            let names: Vec<_> = ranking.iter().map(|r| r.name.as_str()).collect();
            assert!(names.contains(&"lci.progress") && names.contains(&"nic.tx_post"));
            // The try-lock never accumulates wait.
            assert_eq!(tel.with_contention(|c| c.get("lci.progress").unwrap().total_wait_ns), 0);
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
        fn lock_wait(&self, _: Label, _: usize, _: SimTime, _: u64, _: u64, _: bool) {
            self.accesses.set(self.accesses.get() + 1);
        }
        fn try_lock(&self, _: Label, _: SimTime, _: bool, _: u64) {
            self.accesses.set(self.accesses.get() + 1);
        }
        fn resource_access(&self, _: Label, _: usize, _: SimTime, _: u64, _: u64, _: bool) {
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
