//! Observability report plumbing shared by the figure harnesses.
//!
//! The flags themselves are parsed by [`crate::cli`] (one shared parser;
//! unknown flags are a hard error) — this module owns what happens with
//! an instrumented run once it finishes: [`TraceSink`] captures its
//! [`RunRecord`], renders the text reports (the critical-path,
//! contention and core-time reports are views of that record), writes
//! the Chrome trace / JSON / record / folded-stack / timeline files, and
//! prints SLO alerts and flight-recorder dump locations.
//!
//! When any flag is present the harness runs a reduced *instrumented
//! pass* instead of the full figure sweep: telemetry accumulates per
//! collector, so each traced configuration gets a fresh one (see
//! [`instrumented`] / [`crate::cli::instrumented_for`]).

use std::rc::Rc;

pub use crate::cli::TraceArgs;
use telemetry::{Breakdown, RunMeta, RunRecord, Telemetry};

/// Run `f` under a fresh telemetry collector and return its result plus
/// the collector. Every core span, flow and metric of worlds run inside
/// `f` is recorded as it happens, so the collector is complete by the
/// time this returns.
pub fn instrumented<R>(f: impl FnOnce() -> R) -> (R, Rc<Telemetry>) {
    let tel = telemetry::enable();
    let r = f();
    telemetry::disable();
    (r, tel)
}

/// Accumulates per-configuration reports and writes the files requested
/// on the command line.
pub struct TraceSink {
    args: TraceArgs,
    scenario: String,
    params: Vec<(String, String)>,
    json_docs: Vec<String>,
    folded_docs: Vec<String>,
}

impl TraceSink {
    /// A sink honoring `args`. `scenario` is the harness name stamped
    /// into run records (e.g. `fig8_latency_window_8b`).
    pub fn new(args: &TraceArgs, scenario: &str) -> TraceSink {
        TraceSink {
            args: args.clone(),
            scenario: scenario.to_string(),
            params: args.params.clone(),
            json_docs: Vec::new(),
            folded_docs: Vec::new(),
        }
    }

    /// Add workload parameters to the run-record metadata (on top of any
    /// `--param` overrides already captured from the command line).
    pub fn set_params(&mut self, params: &[(&str, String)]) {
        for (k, v) in params {
            if !self.params.iter().any(|(pk, _)| pk == k) {
                self.params.push((k.to_string(), v.clone()));
            }
        }
    }

    /// Emit the reports of one instrumented run and return its run
    /// record. The record is captured once; the critical-path,
    /// contention and core-time reports, the `--json` document and the
    /// Chrome critical-path overlay are all rendered from it. The Chrome
    /// trace, timeline and record files are written only when
    /// `write_trace` is set — the harness nominates one run so
    /// `--trace`/`--timeline`/`--record` yield a single document each.
    pub fn emit(&mut self, tel: &Telemetry, config: &str, write_trace: bool) -> RunRecord {
        // Capturing the record finalizes the timeline, which adds its
        // window tracks to the metrics; the sparklines show the run's own
        // tracks only, so they are rendered first.
        let sparklines = if self.args.profile { track_sparklines(tel) } else { String::new() };
        let rec = RunRecord::capture(tel, self.meta(config));
        let cp = rec.critpath.as_ref().filter(|_| self.args.critpath);
        if let Some(cp) = cp {
            print!("{}", cp.to_text());
            println!();
        }
        if self.args.breakdown {
            print!("{}", tel.breakdown(config).to_text());
            print!("{}", rec.contention_text());
            println!();
        }
        if self.args.profile {
            print!("{}", rec.core_time_text());
            print!("{sparklines}");
            println!();
        }
        if self.args.folded.is_some() {
            self.folded_docs.push(tel.folded_stacks(config));
        }
        if self.args.timeline_active() {
            self.emit_timeline(tel, config, write_trace);
        }
        if self.args.json.is_some() {
            self.json_docs.push(json_report(&rec, &tel.breakdown(config), self.args.critpath));
        }
        if write_trace {
            if let Some(path) = &self.args.trace {
                let doc = match cp {
                    Some(cp) => tel.chrome_trace_with_critpath(cp),
                    None => tel.chrome_trace_collected(),
                };
                std::fs::write(path, doc).expect("write trace file");
                println!(
                    "wrote Chrome trace of {config} ({} spans, {} flows) -> {path}",
                    tel.span_count(),
                    tel.flow_count()
                );
            }
            if let Some(path) = &self.args.record {
                std::fs::write(path, rec.to_json()).expect("write run record");
                println!(
                    "wrote run record of {config} ({} ns end-to-end, {} events) -> {path}",
                    rec.end_to_end_ns, rec.events
                );
            }
        }
        rec
    }

    /// Run-record metadata of `config` under this sink.
    fn meta(&self, config: &str) -> RunMeta {
        RunMeta {
            scenario: self.scenario.clone(),
            config: config.to_string(),
            params: self.params.clone(),
            knobs: self.args.dial_knob_names(),
            // Engine placement, not workload: absent on legacy runs so
            // pre-sharding records stay byte-identical;
            // `RunMeta::comparable_to` ignores both fields.
            shards: match self.args.engine() {
                parcelport::Engine::Federated { shards, .. } => Some(shards as u64),
                parcelport::Engine::SingleHeap => None,
            },
            run_mode: self.args.run_mode.clone(),
        }
    }

    /// Timeline reports of one instrumented run: an alert/dump summary on
    /// stdout, plus (for the nominated run) the `--timeline FILE` JSON
    /// document, `FILE.om` OpenMetrics exposition, and one
    /// `FILE.dumpN.json` Chrome trace per flight-recorder dump.
    fn emit_timeline(&self, tel: &Telemetry, config: &str, write_trace: bool) {
        tel.timeline_finalize();
        let (nwin, window_ns, late) = tel
            .with_timeline(|tl| (tl.num_windows(), tl.window_ns(), tl.late_samples()))
            .expect("timeline pass runs with a timeline-enabled collector");
        let alerts = tel.timeline_alerts();
        let dumps = tel.timeline_dumps();
        println!(
            "timeline[{config}]: {nwin} windows x {} us, {} alerts, {} dumps, {late} late samples",
            window_ns / 1_000,
            alerts.len(),
            dumps.len()
        );
        for a in &alerts {
            println!(
                "  slo alert: {} window {} (ends {} us) burn {:.2} ({}/{} over objective)",
                a.rule,
                a.window,
                a.end_ns / 1_000,
                a.burn,
                a.bad,
                a.total
            );
        }
        for d in &dumps {
            println!(
                "  flight dump: {} at window {} ({} records, {} causal marks)",
                d.reason,
                d.window,
                d.records.len(),
                d.marks.len()
            );
        }
        if !write_trace {
            return;
        }
        if let Some(path) = &self.args.timeline {
            let doc = tel.timeline_json(config).expect("timeline document");
            std::fs::write(path, doc).expect("write timeline file");
            let om = tel.timeline_text(config).expect("timeline exposition");
            std::fs::write(format!("{path}.om"), om).expect("write timeline exposition");
            for (i, d) in dumps.iter().enumerate() {
                let dump_path = format!("{path}.dump{i}.json");
                std::fs::write(&dump_path, d.to_chrome_json()).expect("write flight dump");
                println!("wrote flight-recorder dump ({}) -> {dump_path}", d.reason);
            }
            println!("wrote timeline of {config} ({nwin} windows) -> {path} (+ {path}.om)");
        }
    }

    /// Write the machine-readable report and folded-stack files, if
    /// requested.
    pub fn finish(self) {
        if let Some(path) = &self.args.json {
            std::fs::write(path, format!("[{}]", self.json_docs.join(",")))
                .expect("write json report");
            println!("wrote machine-readable reports -> {path}");
        }
        if let Some(path) = &self.args.folded {
            let doc = self.folded_docs.concat();
            std::fs::write(path, &doc).expect("write folded stacks");
            println!(
                "wrote {} folded stacks -> {path} (render: inferno-flamegraph < {path})",
                doc.lines().count()
            );
        }
    }
}

/// The `--json` report document of one traced configuration: its
/// latency breakdown, plus the contention ranking and core-time table of
/// its run record, and the record's critical path when `with_critpath`
/// is set (`--critpath`).
pub fn json_report(rec: &RunRecord, breakdown: &Breakdown, with_critpath: bool) -> String {
    let critpath_field = rec
        .critpath
        .as_ref()
        .filter(|_| with_critpath)
        .map(|cp| format!(",\"critpath\":{}", cp.to_json()))
        .unwrap_or_default();
    format!(
        "{{\"breakdown\":{},\"contention\":{},\"core_profile\":{}{}}}",
        breakdown.to_json(),
        rec.contention_json(),
        rec.core_time_json(),
        critpath_field
    )
}

/// Render every counter track the run produced as a terminal sparkline —
/// queue depths, in-flight parcels, and per-link busy time at a glance.
fn track_sparklines(tel: &Telemetry) -> String {
    use telemetry::profile::{resample, sparkline};
    tel.with_metrics(|m| {
        let horizon = m.tracks().flat_map(|(_, s)| s.iter().map(|&(t, _)| t)).max().unwrap_or(0);
        let mut out = String::new();
        for (name, series) in m.tracks() {
            let buckets = resample(series, horizon, 48);
            let peak = series.iter().map(|&(_, v)| v).fold(0.0_f64, f64::max);
            out.push_str(&format!("  {name:<24} {} peak {peak:.1}\n", sparkline(&buckets)));
        }
        if !out.is_empty() {
            out.insert_str(0, "counter tracks (full horizon, 48 buckets):\n");
        }
        out
    })
}
