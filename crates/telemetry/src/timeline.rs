//! Windowed telemetry timelines, SLO monitors, and the fault flight
//! recorder.
//!
//! Every report the collector produces elsewhere is an end-of-run
//! aggregate; timelines slice the same instrumentation by fixed-width
//! virtual-time **windows** (default 100 µs) so transient phenomena — a
//! congestion knee forming, a retry storm after a link failure, a
//! straggler phase — stay visible instead of being averaged away.
//!
//! The windowed series themselves live in [`Metrics`], which stores
//! every counter, histogram and port sample in the window it fell in
//! (sample instant / `window_ns`) and derives run totals from the
//! windows. A [`Timeline`] stores no samples; it holds what is not
//! storage:
//!
//! * the **time cursor** and window coverage;
//! * **SLO monitors** ([`SloRule`]) — latency-objective burn-rate rules
//!   evaluated per window over the metrics' windowed histograms as the
//!   run advances, emitting deterministic [`SloAlert`] events (also
//!   rendered as zero-duration spans on `slo/<rule>` tracks in the
//!   Chrome export);
//! * the **flight recorder** — a bounded ring of recent flow / probe /
//!   fault records. The first SLO alert or injected fault *arms* it; a
//!   short post-roll later (so the consequences — rerouted parcels, retry
//!   traffic — are on tape too) the ring plus the tail of the causal
//!   mark log is snapshotted into a self-contained Chrome-trace
//!   [`FlightDump`];
//! * the **exports** of the windowed series: the JSON document, the
//!   OpenMetrics text and the per-window counter tracks.
//!
//! Evaluation is **online**: the timeline keeps a monotone time cursor
//! (the high-water mark of every timed record it sees — flow marks,
//! counter-track samples, profiler intervals, probe events). A window is
//! evaluated once the cursor has moved one full window past its end;
//! samples that land in an already-evaluated window still count in their
//! window and are tallied in `late_samples`. Everything here is pure
//! observation: fed only from existing instrumentation points, it never
//! schedules events or charges virtual time, so golden traces are
//! unchanged.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt::Write as _;

use crate::critpath::CritPath;
use crate::hist::Histogram;
use crate::json::escape_json;
use crate::metrics::{Metrics, Series};
use crate::profile::{CoreAccount, CoreState, N_STATES, STATES};

/// Default window width: 100 µs of virtual time.
pub const DEFAULT_WINDOW_NS: u64 = 100_000;

/// Maximum flight-recorder dumps per run.
pub const MAX_DUMPS: usize = 4;

/// Causal marks copied from the tail of the provenance log into each
/// flight-recorder dump.
pub const DUMP_MARKS: usize = 256;

/// Timeline configuration: window width, SLO rules, recorder sizing.
#[derive(Debug, Clone)]
pub struct TimelineConfig {
    /// Window width in virtual ns (must be > 0).
    pub window_ns: u64,
    /// SLO burn-rate rules evaluated per window.
    pub slos: Vec<SloRule>,
    /// Flight-recorder ring capacity (records retained).
    pub recorder_cap: usize,
    /// Windows of post-roll between a trigger and its dump, so the
    /// consequences of the triggering event are on tape.
    pub post_roll_windows: u64,
}

impl Default for TimelineConfig {
    fn default() -> Self {
        TimelineConfig {
            window_ns: DEFAULT_WINDOW_NS,
            slos: Vec::new(),
            recorder_cap: 4096,
            post_roll_windows: 8,
        }
    }
}

/// One latency-objective burn-rate rule.
///
/// Per window: `bad` = samples of `hist` above `objective_ns`; the burn
/// rate is `(bad/total) / (1 - target)` — how many times faster than
/// budget the window consumes its error allowance. The rule fires when
/// the window holds at least `min_samples` samples and the burn rate
/// reaches `burn_threshold`.
#[derive(Debug, Clone)]
pub struct SloRule {
    /// Rule name (alert/track label).
    pub name: String,
    /// Windowed histogram key the rule watches (e.g. `parcel.latency_ns`).
    pub hist: String,
    /// Latency objective in ns: samples above it are "bad".
    pub objective_ns: u64,
    /// SLO target fraction (e.g. 0.99 ⇒ 1% error budget).
    pub target: f64,
    /// Burn-rate threshold at which the rule fires (1.0 = exactly on
    /// budget).
    pub burn_threshold: f64,
    /// Minimum samples in a window before the rule is evaluated.
    pub min_samples: u64,
}

impl SloRule {
    /// Per-window error budget fraction.
    fn budget(&self) -> f64 {
        (1.0 - self.target).max(1e-9)
    }
}

/// One deterministic SLO alert: rule × window.
#[derive(Debug, Clone, PartialEq)]
pub struct SloAlert {
    /// Which rule fired.
    pub rule: String,
    /// Window index it fired in.
    pub window: u64,
    /// Window end instant, ns.
    pub end_ns: u64,
    /// Burn rate observed in the window.
    pub burn: f64,
    /// Samples above the objective.
    pub bad: u64,
    /// Total samples in the window.
    pub total: u64,
}

/// One record on the flight-recorder ring.
#[derive(Debug, Clone)]
pub enum FlightRec {
    /// A delivered parcel flow.
    Flow {
        /// Flow id.
        id: u64,
        /// Source locality.
        src: usize,
        /// Destination locality.
        dst: usize,
        /// PUT instant, ns.
        put_ns: u64,
        /// DELIVER instant, ns.
        deliver_ns: u64,
    },
    /// A contention-probe event (lock wait / resource queueing).
    Probe {
        /// Resource name.
        name: &'static str,
        /// Probe kind label (`lock` / `trylock` / `resource`).
        kind: &'static str,
        /// Event instant, ns.
        t_ns: u64,
        /// Wait portion, ns.
        wait_ns: u64,
        /// Service/hold portion, ns.
        service_ns: u64,
    },
    /// An injected-fault event (link failure, retransmit, duplicate).
    Fault {
        /// Fault label (e.g. `link_down`, `net.retransmit`).
        label: &'static str,
        /// Event instant, ns.
        t_ns: u64,
    },
    /// An SLO alert (also listed in [`Timeline::alerts`]).
    Alert {
        /// Rule name.
        rule: String,
        /// Window index.
        window: u64,
        /// Window end, ns.
        t_ns: u64,
    },
}

impl FlightRec {
    /// The record's primary instant, ns (delivery time for flows).
    pub fn t_ns(&self) -> u64 {
        match self {
            FlightRec::Flow { deliver_ns, .. } => *deliver_ns,
            FlightRec::Probe { t_ns, .. }
            | FlightRec::Fault { t_ns, .. }
            | FlightRec::Alert { t_ns, .. } => *t_ns,
        }
    }
}

/// One causal mark copied into a dump: `(label, kind, start_ns, end_ns)`.
pub type DumpMark = (&'static str, &'static str, u64, u64);

/// A flight-recorder snapshot: the ring at `trigger + post_roll`.
#[derive(Debug, Clone)]
pub struct FlightDump {
    /// Why the recorder was armed (`slo:<rule>` or `fault:<label>`).
    pub reason: String,
    /// Trigger instant, ns.
    pub trigger_ns: u64,
    /// Window the trigger fell in.
    pub window: u64,
    /// Snapshot instant, ns (trigger + post-roll, or run end).
    pub taken_ns: u64,
    /// Ring contents, oldest first.
    pub records: Vec<FlightRec>,
    /// Tail of the causal mark log at snapshot time.
    pub marks: Vec<DumpMark>,
}

impl FlightDump {
    /// Render the dump as a self-contained Chrome-trace JSON document:
    /// the trigger as a zero-duration span, flows/probes/marks as
    /// complete spans on `flight.*` tracks — loadable standalone in
    /// Perfetto and valid under `trace_check`'s structural rules.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("[");
        let push = |out: &mut String, name: &str, tid: &str, ts: u64, dur: u64| {
            crate::chrome::complete_span(out, name, None, ts, dur, tid, None)
        };
        push(&mut out, &format!("TRIGGER {}", self.reason), "flight.trigger", self.trigger_ns, 0);
        for r in &self.records {
            match r {
                FlightRec::Flow { id, src, dst, put_ns, deliver_ns } => push(
                    &mut out,
                    &format!("parcel#{id} {src}->{dst}"),
                    "flight.flows",
                    *put_ns,
                    deliver_ns.saturating_sub(*put_ns),
                ),
                FlightRec::Probe { name, kind, t_ns, wait_ns, service_ns } => push(
                    &mut out,
                    &format!("{name} ({kind})"),
                    "flight.probes",
                    *t_ns,
                    wait_ns + service_ns,
                ),
                FlightRec::Fault { label, t_ns } => {
                    push(&mut out, &format!("FAULT {label}"), "flight.faults", *t_ns, 0)
                }
                FlightRec::Alert { rule, window, t_ns } => {
                    push(&mut out, &format!("ALERT {rule} w{window}"), "flight.alerts", *t_ns, 0)
                }
            }
        }
        for &(label, kind, start, end) in &self.marks {
            push(
                &mut out,
                &format!("{label} [{kind}]"),
                "flight.causal",
                start,
                end.saturating_sub(start),
            );
        }
        out.push(']');
        out
    }
}

/// Pending dump state: armed, waiting for the post-roll to elapse.
#[derive(Debug, Clone)]
struct ArmedDump {
    reason: String,
    trigger_ns: u64,
    window: u64,
    dump_at_ns: u64,
}

/// The cursor, SLO monitors and flight recorder over the windowed
/// [`Metrics`]. Owned by the active `Telemetry` collector when timelines
/// are enabled; fed from the same instrumentation points as the metrics.
#[derive(Debug)]
pub struct Timeline {
    cfg: TimelineConfig,
    /// High-water mark of every timed record observed, ns.
    cursor_ns: u64,
    /// Next window index awaiting SLO evaluation.
    eval_cursor: u64,
    /// Samples that landed in an already-evaluated window.
    late_samples: u64,
    /// (rule index, window) pairs that already fired — late samples
    /// re-evaluate their window, so each pair must alert at most once.
    alerted: BTreeSet<(usize, u64)>,
    alerts: Vec<SloAlert>,
    ring: VecDeque<FlightRec>,
    armed: Option<ArmedDump>,
    dumps: Vec<FlightDump>,
}

impl Timeline {
    /// A fresh timeline under `cfg`.
    pub fn new(cfg: TimelineConfig) -> Timeline {
        assert!(cfg.window_ns > 0, "window width must be positive");
        Timeline {
            cfg,
            cursor_ns: 0,
            eval_cursor: 0,
            late_samples: 0,
            alerted: BTreeSet::new(),
            alerts: Vec::new(),
            ring: VecDeque::new(),
            armed: None,
            dumps: Vec::new(),
        }
    }

    /// Window width in ns.
    pub fn window_ns(&self) -> u64 {
        self.cfg.window_ns
    }

    /// The configuration this timeline was built with (used to clone
    /// per-lane timelines in the sharded world).
    pub fn config(&self) -> TimelineConfig {
        self.cfg.clone()
    }

    /// The window index instant `t_ns` falls in (boundary instants start
    /// the next window: `t == k·W` lands in window `k`).
    pub fn window_of(&self, t_ns: u64) -> u64 {
        t_ns / self.cfg.window_ns
    }

    /// Current time cursor (high-water mark of observed instants), ns.
    pub fn cursor_ns(&self) -> u64 {
        self.cursor_ns
    }

    /// Number of windows covering `[0, cursor]`, empty windows included.
    pub fn num_windows(&self) -> u64 {
        self.window_of(self.cursor_ns) + 1
    }

    /// Add an SLO rule mid-run (monitors are hot-pluggable; the rule only
    /// sees windows evaluated after it was added).
    pub fn add_rule(&mut self, rule: SloRule) {
        self.cfg.slos.push(rule);
    }

    /// Advance the time cursor and evaluate any windows that closed over
    /// `m`'s windowed histograms. A window is evaluated once the cursor
    /// clears the *following* window (one window of slack for
    /// out-of-order instrumentation).
    pub fn observe(&mut self, t_ns: u64, m: &Metrics) {
        if t_ns > self.cursor_ns {
            self.cursor_ns = t_ns;
            let settled = self.window_of(self.cursor_ns).saturating_sub(1);
            while self.eval_cursor < settled {
                let w = self.eval_cursor;
                self.evaluate_window(w, m);
                self.eval_cursor += 1;
            }
        }
    }

    /// Account for one counter or histogram sample that `m` just stored
    /// at instant `t_ns`, then advance the cursor to it. A sample landing
    /// in an already-settled window is tallied as late. A late histogram
    /// sample (deliveries are timed analytically, so interleaved flows
    /// arrive out of order by more than the one-window slack under
    /// congestion) re-evaluates its window's rules — an alert always
    /// names the true breach window, however late its evidence arrived.
    pub fn sampled(&mut self, t_ns: u64, hist: bool, m: &Metrics) {
        let w = self.window_of(t_ns);
        if w < self.eval_cursor {
            self.late_samples += 1;
            if hist {
                self.evaluate_window(w, m);
            }
        }
        self.observe(t_ns, m);
    }

    /// Record a delivered flow on the ring (its latency sample goes
    /// through [`Timeline::sampled`] first).
    pub fn flow_delivered(
        &mut self,
        id: u64,
        src: usize,
        dst: usize,
        put_ns: u64,
        deliver_ns: u64,
    ) {
        self.push_rec(FlightRec::Flow { id, src, dst, put_ns, deliver_ns });
    }

    /// Record a contention-probe event on the ring. The caller then
    /// observes the probe's *start* instant only: the wait/service span
    /// extends into the future, and advancing the cursor past `t_ns`
    /// would settle windows whose samples have not arrived yet.
    pub fn probe_event(
        &mut self,
        name: &'static str,
        kind: &'static str,
        t_ns: u64,
        wait_ns: u64,
        service_ns: u64,
    ) {
        self.push_rec(FlightRec::Probe { name, kind, t_ns, wait_ns, service_ns });
    }

    /// Record an injected fault at `t_ns` (pass the cursor when the fault
    /// site has no virtual clock in hand) and arm the flight recorder.
    pub fn fault_event(&mut self, label: &'static str, t_ns: u64, m: &Metrics) {
        self.push_rec(FlightRec::Fault { label, t_ns });
        self.observe(t_ns, m);
        self.arm(format!("fault:{label}"), t_ns);
    }

    fn push_rec(&mut self, rec: FlightRec) {
        self.ring.push_back(rec);
        while self.ring.len() > self.cfg.recorder_cap {
            self.ring.pop_front();
        }
    }

    /// Evaluate the SLO rules over one closed window of `m`.
    fn evaluate_window(&mut self, w: u64, m: &Metrics) {
        if self.cfg.slos.is_empty() {
            return;
        }
        let end_ns = (w + 1) * self.cfg.window_ns;
        let mut fired: Vec<(usize, SloAlert)> = Vec::new();
        for (i, rule) in self.cfg.slos.iter().enumerate() {
            if self.alerted.contains(&(i, w)) {
                continue;
            }
            let Some(h) = m.hist_window(&rule.hist, w) else {
                continue;
            };
            let total = h.count();
            if total < rule.min_samples.max(1) {
                continue;
            }
            // Bad fraction via the histogram's own buckets: count samples
            // strictly above the objective. Quantile inversion would lose
            // the sub-bucket resolution; a direct scan keeps it exact at
            // bucket granularity.
            let bad = total - h.count_at_most(rule.objective_ns);
            let burn = (bad as f64 / total as f64) / rule.budget();
            if burn >= rule.burn_threshold {
                fired.push((
                    i,
                    SloAlert { rule: rule.name.clone(), window: w, end_ns, burn, bad, total },
                ));
            }
        }
        for (i, a) in fired {
            self.alerted.insert((i, w));
            self.push_rec(FlightRec::Alert {
                rule: a.rule.clone(),
                window: a.window,
                t_ns: a.end_ns,
            });
            self.arm(format!("slo:{}", a.rule), a.end_ns);
            self.alerts.push(a);
        }
    }

    /// Arm the recorder: first trigger wins until its dump is taken.
    fn arm(&mut self, reason: String, t_ns: u64) {
        if self.armed.is_none() && self.dumps.len() < MAX_DUMPS {
            self.armed = Some(ArmedDump {
                reason,
                trigger_ns: t_ns,
                window: self.window_of(t_ns),
                dump_at_ns: t_ns + self.cfg.post_roll_windows * self.cfg.window_ns,
            });
        }
    }

    /// Whether an armed dump's post-roll has elapsed.
    pub fn dump_due(&self) -> bool {
        self.armed.as_ref().is_some_and(|a| self.cursor_ns >= a.dump_at_ns)
    }

    /// Snapshot the ring into a dump (the caller supplies the causal-mark
    /// tail — the provenance log lives outside the timeline).
    pub fn take_dump(&mut self, marks: Vec<DumpMark>) {
        let Some(armed) = self.armed.take() else { return };
        self.dumps.push(FlightDump {
            reason: armed.reason,
            trigger_ns: armed.trigger_ns,
            window: armed.window,
            taken_ns: self.cursor_ns,
            records: self.ring.iter().cloned().collect(),
            marks,
        });
    }

    /// Fold another lane's timeline into this one — the sharded-world
    /// merge (the windowed series merge in [`Metrics::merge`]). The
    /// cursor takes the maximum, late samples add, per-lane alerts and
    /// dumps concatenate (re-sorted by window at finalize; dumps capped),
    /// and the flight-recorder rings interleave by instant. Windows no
    /// lane evaluated yet are SLO-evaluated over the *merged* series at
    /// finalize; windows a lane already settled keep that lane's alerts.
    pub fn absorb(&mut self, other: Timeline) {
        self.cursor_ns = self.cursor_ns.max(other.cursor_ns);
        self.eval_cursor = self.eval_cursor.max(other.eval_cursor);
        self.late_samples += other.late_samples;
        self.alerted.extend(other.alerted);
        self.alerts.extend(other.alerts);
        for d in other.dumps {
            if self.dumps.len() < MAX_DUMPS {
                self.dumps.push(d);
            }
        }
        if self.armed.is_none() {
            self.armed = other.armed;
        }
        let mut ring: Vec<FlightRec> = self.ring.drain(..).chain(other.ring).collect();
        ring.sort_by_key(|r| r.t_ns());
        self.ring = ring.into();
        while self.ring.len() > self.cfg.recorder_cap {
            self.ring.pop_front();
        }
    }

    /// Close out the run: evaluate every remaining window of `m`. An armed dump
    /// whose post-roll never elapsed is taken by the caller (which holds
    /// the causal log) via [`Timeline::dump_due`]/[`Timeline::take_dump`]
    /// — `finalize` forces `dump_due` to report true.
    pub fn finalize(&mut self, m: &Metrics) {
        let last = self.window_of(self.cursor_ns);
        while self.eval_cursor <= last {
            let w = self.eval_cursor;
            self.evaluate_window(w, m);
            self.eval_cursor += 1;
        }
        // Late samples re-evaluate settled windows, so alerts can be
        // pushed out of window order; reporting order is by window.
        self.alerts.sort_by(|a, b| (a.window, &a.rule).cmp(&(b.window, &b.rule)));
        if let Some(a) = &mut self.armed {
            a.dump_at_ns = a.dump_at_ns.min(self.cursor_ns);
        }
    }

    /// The deterministic alert list — evaluation order while the run is
    /// live, window order once finalized.
    pub fn alerts(&self) -> &[SloAlert] {
        &self.alerts
    }

    /// Flight-recorder dumps taken so far.
    pub fn dumps(&self) -> &[FlightDump] {
        &self.dumps
    }

    /// Samples that landed in already-evaluated windows.
    pub fn late_samples(&self) -> u64 {
        self.late_samples
    }

    /// Counter-track series for the Perfetto export: per-window rates for
    /// every windowed counter (`tl.<key>.per_window`), per-window p99 for
    /// every windowed histogram (`tl.<key>.p99_us`), per-window wait for
    /// every port (`tl.<port>.wait_us`), and the burn rate of every SLO
    /// rule (`slo.<rule>.burn`), read from `m`. Samples sit at window
    /// start instants. The Chrome export merges them with the run's own
    /// counter tracks by name.
    pub fn counter_tracks(&self, m: &Metrics) -> Vec<(String, Vec<(u64, f64)>)> {
        let w_ns = self.cfg.window_ns;
        let nwin = self.num_windows();
        // One sample per window, `f(cell)` where the series has one, else 0.
        let per_window = |get: &dyn Fn(u64) -> Option<f64>| -> Vec<(u64, f64)> {
            (0..nwin).map(|w| (w * w_ns, get(w).unwrap_or(0.0))).collect()
        };
        let mut out = Vec::new();
        for (key, ws) in m.counter_windows().iter() {
            let series = per_window(&|w| ws.get(w).map(|&n| n as f64));
            out.push((format!("tl.{key}.per_window"), series));
        }
        for (key, ws) in m.hist_windows().iter() {
            let series = per_window(&|w| ws.get(w).map(|h| h.p99() as f64 / 1e3));
            out.push((format!("tl.{key}.p99_us"), series));
        }
        for (name, ws) in m.port_windows().iter() {
            let series = per_window(&|w| ws.get(w).map(|p| p.wait_ns as f64 / 1e3));
            out.push((format!("tl.{name}.wait_us"), series));
        }
        for rule in &self.cfg.slos {
            let Some(ws) = m.hist_windows().get(&rule.hist) else { continue };
            let series = per_window(&|w| {
                ws.get(w).filter(|h| h.count() >= rule.min_samples.max(1)).map(|h| {
                    let bad = h.count() - h.count_at_most(rule.objective_ns);
                    (bad as f64 / h.count() as f64) / rule.budget()
                })
            });
            out.push((format!("slo.{}.burn", rule.name), series));
        }
        out
    }

    /// The machine-readable timeline document (see `trace_check
    /// --require-timeline` for the invariants it carries): gap-free
    /// window array (empty windows explicit), per-window counters /
    /// histogram summaries / port windows / optional state occupancy and
    /// critical-path slices, all read from `m`; run totals derived from
    /// the same windows for `trace_check`'s merge==total cross-check;
    /// alerts, and dump manifests.
    pub fn to_json(
        &self,
        config: &str,
        m: &Metrics,
        occupancy: Option<&WindowOccupancy>,
        crit: Option<&[BTreeMap<String, u64>]>,
    ) -> String {
        let w_ns = self.cfg.window_ns;
        let nwin = self.num_windows();
        let counter_series: Vec<_> = m.counter_windows().iter().collect();
        let hist_series: Vec<_> = m.hist_windows().iter().collect();
        let port_series: Vec<_> = m.port_windows().iter().collect();
        let mut windows = Vec::with_capacity(nwin as usize);
        for w in 0..nwin {
            let mut fields =
                format!("{{\"index\":{w},\"start_ns\":{},\"end_ns\":{}", w * w_ns, (w + 1) * w_ns);
            let counters = window_members(&counter_series, w, |n| n.to_string());
            write!(fields, ",\"counters\":{{{counters}}}").expect("write");
            let hists = window_members(&hist_series, w, hist_summary_json);
            write!(fields, ",\"hists\":{{{hists}}}").expect("write");
            let ports = window_members(&port_series, w, |p| {
                format!("{{\"wait_ns\":{},\"pkts\":{},\"bytes\":{}}}", p.wait_ns, p.pkts, p.bytes)
            });
            if !ports.is_empty() {
                write!(fields, ",\"ports\":{{{ports}}}").expect("write");
            }
            if let Some(occ) = occupancy {
                if let Some(states) = occ.per_window.get(w as usize) {
                    let body: Vec<String> = STATES
                        .iter()
                        .zip(states.iter())
                        .map(|(s, ns)| format!("\"{}\":{ns}", s.label()))
                        .collect();
                    write!(fields, ",\"occupancy\":{{{}}}", body.join(",")).expect("write");
                }
            }
            if let Some(crit) = crit {
                if let Some(comps) = crit.get(w as usize) {
                    if !comps.is_empty() {
                        let body: Vec<String> = comps
                            .iter()
                            .map(|(c, ns)| format!("\"{}\":{ns}", escape_json(c)))
                            .collect();
                        write!(fields, ",\"critpath\":{{{}}}", body.join(",")).expect("write");
                    }
                }
            }
            fields.push('}');
            windows.push(fields);
        }

        let tot_counters: Vec<String> = counter_series
            .iter()
            .map(|(k, ws)| format!("\"{}\":{}", escape_json(k), ws.total()))
            .collect();
        let tot_hists: Vec<String> = hist_series
            .iter()
            .map(|(k, ws)| format!("\"{}\":{}", escape_json(k), hist_summary_json(&ws.total())))
            .collect();
        let alerts: Vec<String> = self
            .alerts
            .iter()
            .map(|a| {
                format!(
                    "{{\"rule\":\"{}\",\"window\":{},\"end_ns\":{},\"burn\":{:.4},\
                     \"bad\":{},\"total\":{}}}",
                    escape_json(&a.rule),
                    a.window,
                    a.end_ns,
                    a.burn,
                    a.bad,
                    a.total
                )
            })
            .collect();
        let dumps: Vec<String> = self
            .dumps
            .iter()
            .map(|d| {
                format!(
                    "{{\"reason\":\"{}\",\"trigger_ns\":{},\"window\":{},\"taken_ns\":{},\
                     \"records\":{},\"marks\":{}}}",
                    escape_json(&d.reason),
                    d.trigger_ns,
                    d.window,
                    d.taken_ns,
                    d.records.len(),
                    d.marks.len()
                )
            })
            .collect();
        let occupancy_totals = occupancy
            .map(|occ| {
                let body: Vec<String> = STATES
                    .iter()
                    .zip(occ.totals.iter())
                    .map(|(s, ns)| format!("\"{}\":{ns}", s.label()))
                    .collect();
                format!(",\"occupancy_totals\":{{{}}}", body.join(","))
            })
            .unwrap_or_default();
        format!(
            "{{\"timeline\":{{\"config\":\"{}\",\"window_ns\":{w_ns},\"horizon_ns\":{},\
             \"late_samples\":{},\"windows\":[{}],\
             \"totals\":{{\"counters\":{{{}}},\"hists\":{{{}}}}}{}\
             ,\"alerts\":[{}],\"dumps\":[{}]}}}}",
            escape_json(config),
            self.cursor_ns,
            self.late_samples,
            windows.join(","),
            tot_counters.join(","),
            tot_hists.join(","),
            occupancy_totals,
            alerts.join(","),
            dumps.join(",")
        )
    }

    /// OpenMetrics-style text exposition of `m`'s windowed series: every
    /// counter as `<name>_total{window="w"}`, every histogram as a
    /// summary (quantile gauges + `_count`/`_sum`), port wait as a
    /// counter, alerts as an info-style gauge. Names are sanitized to the
    /// OpenMetrics charset; virtual-time window labels replace wall-clock
    /// scrape timestamps.
    pub fn to_openmetrics(&self, config: &str, m: &Metrics) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# Timeline exposition for {config}");
        let _ = writeln!(out, "# TYPE tl_window_ns gauge\ntl_window_ns {}", self.cfg.window_ns);
        let _ = writeln!(out, "# TYPE tl_windows gauge\ntl_windows {}", self.num_windows());
        for (key, ws) in m.counter_windows().iter() {
            let name = sanitize_metric(key);
            let _ = writeln!(out, "# TYPE {name} counter");
            for (w, n) in ws.iter() {
                let _ = writeln!(out, "{name}_total{{window=\"{w}\"}} {n}");
            }
        }
        for (key, ws) in m.hist_windows().iter() {
            let name = sanitize_metric(key);
            let _ = writeln!(out, "# TYPE {name} summary");
            for (w, h) in ws.iter() {
                for (q, v) in [(0.5, h.p50()), (0.9, h.p90()), (0.99, h.p99()), (0.999, h.p999())] {
                    let _ = writeln!(out, "{name}{{window=\"{w}\",quantile=\"{q}\"}} {v}");
                }
                let _ = writeln!(out, "{name}_count{{window=\"{w}\"}} {}", h.count());
                let _ = writeln!(out, "{name}_sum{{window=\"{w}\"}} {}", h.sum());
            }
        }
        for (port, ws) in m.port_windows().iter() {
            let name = format!("{}_wait_ns", sanitize_metric(port));
            let _ = writeln!(out, "# TYPE {name} counter");
            for (w, p) in ws.iter() {
                let _ = writeln!(out, "{name}_total{{window=\"{w}\"}} {}", p.wait_ns);
            }
        }
        if !self.alerts.is_empty() {
            let _ = writeln!(out, "# TYPE slo_alert gauge");
            for a in &self.alerts {
                let _ = writeln!(
                    out,
                    "slo_alert{{rule=\"{}\",window=\"{}\"}} {:.4}",
                    a.rule, a.window, a.burn
                );
            }
        }
        out
    }
}

/// `"key":<cell>` for every series holding a cell in window `w`, joined
/// by commas.
fn window_members<C>(series: &[(&str, &Series<C>)], w: u64, cell: impl Fn(&C) -> String) -> String {
    let members: Vec<String> = series
        .iter()
        .filter_map(|(k, ws)| ws.get(w).map(|c| format!("\"{}\":{}", escape_json(k), cell(c))))
        .collect();
    members.join(",")
}

/// Per-window histogram summary (counts + bounds + quantiles).
fn hist_summary_json(h: &Histogram) -> String {
    format!(
        "{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"p50\":{},\"p90\":{},\
         \"p99\":{},\"p999\":{}}}",
        h.count(),
        h.sum(),
        if h.count() == 0 { 0 } else { h.min() },
        h.max(),
        h.p50(),
        h.p90(),
        h.p99(),
        h.p999()
    )
}

/// OpenMetrics name charset: `[a-zA-Z0-9_]`, dots and dashes folded to
/// underscores.
fn sanitize_metric(name: &str) -> String {
    name.chars().map(|c| if c.is_ascii_alphanumeric() { c } else { '_' }).collect()
}

/// Per-window core-state occupancy, aggregated over all cores.
#[derive(Debug, Clone, Default)]
pub struct WindowOccupancy {
    /// `per_window[w][state]` = ns spent in `STATES[state]` across all
    /// cores during window `w`.
    pub per_window: Vec<[u64; N_STATES]>,
    /// Run totals per state (sum over windows — equals the profiler's own
    /// state totals by the exact-partition invariant).
    pub totals: [u64; N_STATES],
}

/// Slice finalized core accounts into per-window state occupancy. Each
/// account's segment timeline partitions `[0, cursor]` exactly, and this
/// slicing preserves that: summing a state over all windows reproduces
/// the account's `state_ns` totals (asserted in the timeline tests).
pub fn slice_occupancy<'a>(
    accounts: impl IntoIterator<Item = &'a CoreAccount>,
    window_ns: u64,
    nwin: u64,
) -> WindowOccupancy {
    let mut occ =
        WindowOccupancy { per_window: vec![[0; N_STATES]; nwin as usize], totals: [0; N_STATES] };
    for acc in accounts {
        for (start, end, state) in acc.segments() {
            spread(&mut occ, start, end, state, window_ns);
        }
    }
    occ
}

fn spread(occ: &mut WindowOccupancy, start: u64, end: u64, state: CoreState, window_ns: u64) {
    let si = state as usize;
    let mut t = start;
    while t < end {
        let w = t / window_ns;
        let wend = (w + 1) * window_ns;
        let chunk = end.min(wend) - t;
        if let Some(row) = occ.per_window.get_mut(w as usize) {
            row[si] += chunk;
        } else if let Some(last) = occ.per_window.last_mut() {
            // Segment tails past the timeline horizon fold into the last
            // window so the partition stays exact.
            last[si] += chunk;
        }
        occ.totals[si] += chunk;
        t = end.min(wend);
    }
}

/// Slice a critical path into per-window per-component shares: "what
/// dominated *this* window". Summing a component over all windows equals
/// its run-total on-path time exactly (segments partition `[0, total]`).
pub fn critpath_slices(cp: &CritPath, window_ns: u64, nwin: u64) -> Vec<BTreeMap<String, u64>> {
    let mut out: Vec<BTreeMap<String, u64>> = vec![BTreeMap::new(); nwin as usize];
    for seg in &cp.segments {
        let mut t = seg.start;
        while t < seg.end {
            let w = t / window_ns;
            let wend = (w + 1) * window_ns;
            let chunk = seg.end.min(wend) - t;
            let idx = (w as usize).min(out.len().saturating_sub(1));
            if let Some(row) = out.get_mut(idx) {
                *row.entry(seg.component.clone()).or_insert(0) += chunk;
            }
            t = seg.end.min(wend);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_is_bounded() {
        let m = Metrics::new();
        let mut tl = Timeline::new(TimelineConfig {
            window_ns: 100,
            recorder_cap: 4,
            ..TimelineConfig::default()
        });
        for i in 0..10u64 {
            tl.flow_delivered(i, 0, 1, i * 10, i * 10 + 5);
        }
        tl.fault_event("x", 200, &m);
        tl.finalize(&m);
        tl.take_dump(Vec::new());
        assert!(tl.dumps()[0].records.len() <= 4);
        // Newest records survive.
        assert!(tl.dumps()[0].records.iter().any(|r| r.t_ns() >= 95));
    }

    #[test]
    fn occupancy_slicing_preserves_partition() {
        use crate::profile::CoreProfile;
        // As a collector with a timeline attached builds its profile.
        let mut p = CoreProfile::with_segments();
        p.record_base(0, 0, CoreState::Working, "task", 0, 250);
        p.record_base(0, 0, CoreState::Progress, "poll", 250, 420);
        p.finalize();
        let occ = slice_occupancy(p.accounts().map(|(_, a)| a), 100, 5);
        let total: u64 = occ.totals.iter().sum();
        assert_eq!(total, 420, "slices partition the accounted time");
        assert_eq!(occ.per_window[0][CoreState::Working as usize], 100);
        assert_eq!(occ.per_window[2][CoreState::Working as usize], 50);
        assert_eq!(occ.per_window[2][CoreState::Progress as usize], 50);
        let per_window_sum: u64 = occ.per_window.iter().flat_map(|w| w.iter()).sum();
        assert_eq!(per_window_sum, total);
    }
}
