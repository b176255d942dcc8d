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
//! windows. A [`Timeline`] stores no samples. While the run is live it
//! keeps only its configuration, the **horizon** (the high-water mark of
//! every timed record it sees — flow marks, counter-track samples,
//! profiler intervals, lock and resource accesses), the count of **late
//! samples** (samples landing more than one window behind the horizon)
//! and the **injected faults** as `(label, instant)` pairs.
//!
//! Everything else is a view computed once, at capture
//! ([`Timeline::finalize`]), over the run's final stores — in a
//! federated run, after every lane has been merged, so both engines give
//! one answer:
//!
//! * **SLO monitors** ([`SloRule`]) — latency-objective burn-rate rules
//!   evaluated once per window over the final windowed histograms,
//!   yielding deterministic [`SloAlert`]s (also rendered as zero-duration
//!   spans on `slo/<rule>` tracks in the Chrome export);
//! * the **flight recorder** — the alerts and faults replayed in instant
//!   order as dump triggers. A trigger opens a [`FlightDump`] covering a
//!   short pre-roll before it and a post-roll after it, so the
//!   consequences — rerouted parcels, retry traffic — are on tape too: the
//!   flows delivered, the faults and alerts, and the causal marks that
//!   start in that interval, each capped;
//! * the **exports** of the windowed series: the JSON document, the
//!   OpenMetrics text and the per-window counter tracks.
//!
//! Everything here is pure observation: fed only from existing
//! instrumentation points, it never schedules events or charges virtual
//! time, so golden traces are unchanged.

use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;

use simcore::causal::MarkKind;
use simcore::CausalLog;

use crate::critpath::CritPath;
use crate::flow::{stage, FlowRec};
use crate::hist::Histogram;
use crate::json::escape_json;
use crate::metrics::{Metrics, Series};
use crate::profile::{CoreAccount, CoreState, N_STATES, STATES};

/// Default window width: 100 µs of virtual time.
pub const DEFAULT_WINDOW_NS: u64 = 100_000;

/// Maximum flight-recorder dumps per run.
pub const MAX_DUMPS: usize = 4;

/// Records (flows, faults, alerts) kept in each flight-recorder dump: the
/// newest of its interval.
pub const DUMP_RECORDS: usize = 4096;

/// Causal marks kept in each flight-recorder dump: the newest that start
/// in its interval.
pub const DUMP_MARKS: usize = 256;

/// Timeline configuration: window width, SLO rules, dump post-roll.
#[derive(Debug, Clone)]
pub struct TimelineConfig {
    /// Window width in virtual ns (must be > 0).
    pub window_ns: u64,
    /// SLO burn-rate rules evaluated per window.
    pub slos: Vec<SloRule>,
    /// Windows of post-roll between a trigger and the end of its dump
    /// (and of pre-roll before it), so the consequences of the
    /// triggering event are on tape.
    pub post_roll_windows: u64,
}

impl Default for TimelineConfig {
    fn default() -> Self {
        TimelineConfig { window_ns: DEFAULT_WINDOW_NS, slos: Vec::new(), post_roll_windows: 8 }
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
    /// `(bad, burn rate)` of one window's histogram; `None` when it holds
    /// fewer than `min_samples` samples. Bad samples are counted through
    /// the histogram's own buckets, strictly above the objective: quantile
    /// inversion would lose the sub-bucket resolution, a direct scan keeps
    /// it exact at bucket granularity.
    fn burn(&self, h: &Histogram) -> Option<(u64, f64)> {
        let total = h.count();
        if total < self.min_samples.max(1) {
            return None;
        }
        let bad = total - h.count_at_most(self.objective_ns);
        let budget = (1.0 - self.target).max(1e-9);
        Some((bad, (bad as f64 / total as f64) / budget))
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

/// One record in a flight-recorder dump.
#[derive(Debug, Clone, PartialEq)]
pub enum FlightRec {
    /// A delivered parcel flow.
    Flow {
        /// Flow number: its 1-based position in the run's flow list.
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
            FlightRec::Fault { t_ns, .. } | FlightRec::Alert { t_ns, .. } => *t_ns,
        }
    }
}

/// One causal mark copied into a dump: `(label, kind, start_ns, end_ns)`.
pub type DumpMark = (&'static str, &'static str, u64, u64);

/// A flight-recorder dump: what the run recorded over
/// `[trigger − post-roll, taken_ns]`.
#[derive(Debug, Clone)]
pub struct FlightDump {
    /// What opened the dump (`slo:<rule>` or `fault:<label>`).
    pub reason: String,
    /// Trigger instant, ns.
    pub trigger_ns: u64,
    /// Window the trigger fell in.
    pub window: u64,
    /// End of the dump's interval, ns: trigger + post-roll, or the
    /// horizon when the run ended first.
    pub taken_ns: u64,
    /// The interval's newest [`DUMP_RECORDS`] records, oldest first.
    pub records: Vec<FlightRec>,
    /// The newest [`DUMP_MARKS`] causal marks that start in the
    /// interval, in emission order.
    pub marks: Vec<DumpMark>,
}

impl FlightDump {
    /// Render the dump as a self-contained Chrome-trace JSON document:
    /// the trigger as a zero-duration span, flows/faults/alerts/marks as
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

/// The horizon, late-sample count and fault list a live run feeds, and
/// the SLO alerts and flight dumps computed from them at capture. Owned
/// by the active `Telemetry` collector when timelines are enabled; fed
/// from the same instrumentation points as the metrics.
#[derive(Debug)]
pub struct Timeline {
    cfg: TimelineConfig,
    /// High-water mark of every timed record observed, ns.
    horizon_ns: u64,
    /// Samples that landed more than one window behind the horizon.
    late_samples: u64,
    /// Injected faults: `(label, instant)`, in arrival order.
    faults: Vec<(&'static str, u64)>,
    /// Filled by [`Timeline::finalize`].
    alerts: Vec<SloAlert>,
    /// Filled by [`Timeline::finalize`].
    dumps: Vec<FlightDump>,
}

impl Timeline {
    /// A fresh timeline under `cfg`.
    pub fn new(cfg: TimelineConfig) -> Timeline {
        assert!(cfg.window_ns > 0, "window width must be positive");
        Timeline {
            cfg,
            horizon_ns: 0,
            late_samples: 0,
            faults: Vec::new(),
            alerts: Vec::new(),
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

    /// The horizon: the high-water mark of observed instants, ns.
    pub fn horizon_ns(&self) -> u64 {
        self.horizon_ns
    }

    /// Number of windows covering `[0, horizon]`, empty windows included.
    pub fn num_windows(&self) -> u64 {
        self.window_of(self.horizon_ns) + 1
    }

    /// Add an SLO rule mid-run (e.g. an objective derived from a baseline
    /// phase of the same run). Rules are evaluated at capture, so the
    /// rule sees every window of the run.
    pub fn add_rule(&mut self, rule: SloRule) {
        self.cfg.slos.push(rule);
    }

    /// Advance the horizon to `t_ns`.
    pub fn observe(&mut self, t_ns: u64) {
        self.horizon_ns = self.horizon_ns.max(t_ns);
    }

    /// Account for one counter or histogram sample stored at instant
    /// `t_ns`, then advance the horizon to it. A sample landing more than
    /// one window behind the horizon is tallied as late (deliveries are
    /// timed analytically, so interleaved flows can arrive out of order).
    pub fn sampled(&mut self, t_ns: u64) {
        if self.window_of(t_ns) + 1 < self.window_of(self.horizon_ns) {
            self.late_samples += 1;
        }
        self.observe(t_ns);
    }

    /// Record an injected fault at `t_ns` (pass the horizon when the
    /// fault site has no virtual clock in hand): a dump trigger at
    /// capture.
    pub fn fault_event(&mut self, label: &'static str, t_ns: u64) {
        self.faults.push((label, t_ns));
        self.observe(t_ns);
    }

    /// Fold another lane's timeline into this one — the sharded-world
    /// merge (the windowed series merge in [`Metrics::merge`]). The
    /// horizon takes the maximum, late samples add and the faults append;
    /// alerts and dumps are computed once, over the merged stores, at
    /// capture.
    pub fn absorb(&mut self, other: Timeline) {
        self.horizon_ns = self.horizon_ns.max(other.horizon_ns);
        self.late_samples += other.late_samples;
        self.faults.extend(other.faults);
    }

    /// Close out the run over its final stores: evaluate every rule on
    /// every window of `m`, in (window, rule) order, then replay the dump
    /// triggers and fill each dump from `flows`, the faults, the alerts
    /// and `log`'s marks.
    ///
    /// Triggers replay in instant order — each alert at its window's end,
    /// faults before alerts at equal instants. A trigger opens a dump
    /// when none is open and fewer than [`MAX_DUMPS`] exist; the dump
    /// ends at `min(trigger + post-roll, horizon)`, and a trigger at or
    /// after that instant may open the next one.
    pub fn finalize(&mut self, m: &Metrics, flows: &[FlowRec], log: Option<&CausalLog>) {
        let w_ns = self.cfg.window_ns;
        self.alerts.clear();
        for w in 0..self.num_windows() {
            for rule in &self.cfg.slos {
                let Some(h) = m.hist_window(&rule.hist, w) else { continue };
                let Some((bad, burn)) = rule.burn(h) else { continue };
                if burn >= rule.burn_threshold {
                    let (rule, total, end_ns) = (rule.name.clone(), h.count(), (w + 1) * w_ns);
                    self.alerts.push(SloAlert { rule, window: w, end_ns, burn, bad, total });
                }
            }
        }

        // `(instant, is_alert, reason prefix, name)`: faults sort first.
        let faults = self.faults.iter().map(|&(label, t)| (t, false, "fault:", label));
        let alerts = self.alerts.iter().map(|a| (a.end_ns, true, "slo:", a.rule.as_str()));
        let mut triggers: Vec<_> = faults.chain(alerts).collect();
        triggers.sort_by_key(|&(t, is_alert, ..)| (t, is_alert));
        let post_roll = self.cfg.post_roll_windows * w_ns;
        let mut dumps: Vec<FlightDump> = Vec::new();
        for (trigger_ns, _, prefix, name) in triggers {
            if dumps.len() == MAX_DUMPS {
                break;
            }
            if dumps.last().is_some_and(|d| trigger_ns < d.taken_ns) {
                continue;
            }
            let taken_ns = (trigger_ns + post_roll).min(self.horizon_ns);
            let lo = trigger_ns.saturating_sub(post_roll);
            dumps.push(FlightDump {
                reason: format!("{prefix}{name}"),
                trigger_ns,
                window: self.window_of(trigger_ns),
                taken_ns,
                records: self.records_in(lo, taken_ns, flows),
                marks: log.map_or_else(Vec::new, |log| marks_in(log, lo, taken_ns)),
            });
        }
        self.dumps = dumps;
    }

    /// The newest [`DUMP_RECORDS`] flows delivered, faults and alerts in
    /// `[lo, hi]`, oldest first.
    fn records_in(&self, lo: u64, hi: u64, flows: &[FlowRec]) -> Vec<FlightRec> {
        let within = |t: u64| lo <= t && t <= hi;
        let delivered = flows.iter().enumerate().filter_map(|(i, f)| {
            let deliver_ns = f.at(stage::DELIVER).filter(|&t| within(t))?;
            let (src, dst) = (f.src as usize, f.dst as usize);
            let put_ns = f.at(stage::PUT).unwrap_or(deliver_ns);
            Some(FlightRec::Flow { id: i as u64 + 1, src, dst, put_ns, deliver_ns })
        });
        let faults = self.faults.iter().filter(|&&(_, t)| within(t));
        let alerts = self.alerts.iter().filter(|a| within(a.end_ns));
        let mut records: Vec<FlightRec> = delivered
            .chain(faults.map(|&(label, t_ns)| FlightRec::Fault { label, t_ns }))
            .chain(alerts.map(|a| FlightRec::Alert {
                rule: a.rule.clone(),
                window: a.window,
                t_ns: a.end_ns,
            }))
            .collect();
        records.sort_by_key(FlightRec::t_ns);
        records.drain(..records.len().saturating_sub(DUMP_RECORDS));
        records
    }

    /// The SLO alerts, in (window, rule) order; empty until
    /// [`Timeline::finalize`].
    pub fn alerts(&self) -> &[SloAlert] {
        &self.alerts
    }

    /// The flight-recorder dumps, in trigger order; empty until
    /// [`Timeline::finalize`].
    pub fn dumps(&self) -> &[FlightDump] {
        &self.dumps
    }

    /// Samples that landed more than one window behind the horizon.
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
            let series = per_window(&|w| ws.get(w).and_then(|h| rule.burn(h)).map(|(_, b)| b));
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
            self.horizon_ns,
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
/// account's segment timeline partitions `[0, horizon]` exactly, and this
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

/// The newest [`DUMP_MARKS`] marks of `log` that start in `[lo, hi]`,
/// in emission order.
fn marks_in(log: &CausalLog, lo: u64, hi: u64) -> Vec<DumpMark> {
    log.with_view(|view| {
        let mut tail = VecDeque::with_capacity(DUMP_MARKS);
        for m in view.marks().filter(|m| lo <= m.start && m.start <= hi) {
            if tail.len() == DUMP_MARKS {
                tail.pop_front();
            }
            let kind = match m.kind {
                MarkKind::Wait => "wait",
                MarkKind::Hold => "hold",
                MarkKind::Work => "work",
                MarkKind::Wire => "wire",
            };
            tail.push_back((m.label, kind, m.start, m.end));
        }
        tail.into()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

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
