//! Human- and machine-readable reports: latency breakdown per lifecycle
//! stage, read from the flows; and contention attribution ranked by wait
//! time and the per-core time breakdown, both views of a [`RunRecord`].

use std::fmt::Write as _;

use simcore::escape_json;

use crate::flow::{stage, FlowRec, STAGE_NAMES, UNSET};
use crate::hist::Histogram;
use crate::profile::{CoreState, STATES};
use crate::record::{CoreRecord, RunRecord};

/// Aggregated durations for one lifecycle stage: the time from entering
/// the stage until the next recorded stage.
#[derive(Debug, Clone)]
pub struct StageStat {
    /// Stage name (see [`STAGE_NAMES`]), or `"total"`.
    pub stage: &'static str,
    /// Count, sum, mean and quantile accumulator.
    pub hist: Histogram,
    /// Sum of squared durations, for the standard deviation.
    sum_sq: f64,
}

impl StageStat {
    fn new(stage: &'static str) -> Self {
        StageStat { stage, hist: Histogram::new(), sum_sq: 0.0 }
    }

    fn record(&mut self, ns: u64) {
        let x = ns as f64;
        self.sum_sq += x * x;
        self.hist.record(ns);
    }

    /// Population standard deviation of the durations (0 if fewer than
    /// two).
    fn stddev(&self) -> f64 {
        let n = self.hist.count();
        if n < 2 {
            return 0.0;
        }
        let (n, mean) = (n as f64, self.hist.mean());
        // Clamp: catastrophic cancellation can drive the estimate slightly
        // negative when all samples are (nearly) equal.
        (self.sum_sq / n - mean * mean).max(0.0).sqrt()
    }
}

/// Per-stage latency breakdown for one configuration.
#[derive(Debug, Clone)]
pub struct Breakdown {
    /// Configuration label (e.g. `lci_psr_cq_pin_i`).
    pub config: String,
    /// One row per lifecycle stage that had samples, in causal order.
    pub stages: Vec<StageStat>,
    /// End-to-end (first recorded stage → last recorded stage).
    pub total: StageStat,
    /// Flows started.
    pub flows: u64,
    /// Flows that reached delivery.
    pub delivered: u64,
}

impl Breakdown {
    /// Build a breakdown from recorded flows.
    pub fn from_flows(config: &str, flows: &[FlowRec]) -> Breakdown {
        let mut stages: Vec<StageStat> = STAGE_NAMES.iter().map(|s| StageStat::new(s)).collect();
        let mut total = StageStat::new("total");
        let mut delivered = 0u64;
        for f in flows {
            delivered += f.delivered() as u64;
            let mut prev: Option<(usize, u64)> = None;
            for (idx, &t) in f.stages.iter().enumerate() {
                if t == UNSET {
                    continue;
                }
                if let Some((pidx, pt)) = prev {
                    stages[pidx].record(t.saturating_sub(pt));
                }
                prev = Some((idx, t));
            }
            if let (Some(first), Some((_, last))) = (f.at(stage::PUT), prev) {
                if last > first {
                    total.record(last - first);
                }
            }
        }
        stages.retain(|s| s.hist.count() > 0);
        Breakdown {
            config: config.to_string(),
            stages,
            total,
            flows: flows.len() as u64,
            delivered,
        }
    }

    /// The stage with the largest total time (where the latency went).
    pub fn dominant_stage(&self) -> Option<&'static str> {
        self.stages.iter().max_by_key(|s| s.hist.sum()).map(|s| s.stage)
    }

    /// Render an aligned text table (times in µs).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "latency breakdown [{}]  flows={} delivered={}",
            self.config, self.flows, self.delivered
        );
        let _ = writeln!(
            out,
            "  {:<10} {:>8} {:>10} {:>10} {:>10} {:>10} {:>10}",
            "stage", "count", "mean_us", "stddev_us", "p50_us", "p90_us", "p99_us"
        );
        for s in self.stages.iter().chain(std::iter::once(&self.total)) {
            let _ = writeln!(
                out,
                "  {:<10} {:>8} {:>10.3} {:>10.3} {:>10.3} {:>10.3} {:>10.3}",
                s.stage,
                s.hist.count(),
                s.hist.mean() / 1e3,
                s.stddev() / 1e3,
                s.hist.p50() as f64 / 1e3,
                s.hist.p90() as f64 / 1e3,
                s.hist.p99() as f64 / 1e3,
            );
        }
        if let Some(dom) = self.dominant_stage() {
            let _ = writeln!(out, "  dominant stage: {dom}");
        }
        out
    }

    /// Render as machine-readable JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"config\":\"{}\",\"flows\":{},\"delivered\":{},\"stages\":[",
            escape_json(&self.config),
            self.flows,
            self.delivered
        );
        for (i, s) in self.stages.iter().chain(std::iter::once(&self.total)).enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"stage\":\"{}\",\"count\":{},\"mean_ns\":{:.1},\"stddev_ns\":{:.1},\
                 \"p50_ns\":{},\"p90_ns\":{},\"p99_ns\":{}}}",
                s.stage,
                s.hist.count(),
                s.hist.mean(),
                s.stddev(),
                s.hist.p50(),
                s.hist.p90(),
                s.hist.p99(),
            );
        }
        out.push_str("]}");
        out
    }
}

/// The contention and core-time reports are views of the run record:
/// they render its `resources` and `profile` sections.
impl RunRecord {
    /// Contention attribution: resources ranked by the total time cores
    /// spent waiting on them, as an aligned text table.
    pub fn contention_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "top resources by wait time [{}]", self.meta.config);
        let _ = writeln!(
            out,
            "  {:<24} {:<9} {:>10} {:>10} {:>12} {:>10} {:>12}",
            "resource", "kind", "events", "contended", "wait_us", "wait/ev_ns", "service_us"
        );
        for r in &self.resources {
            let _ = writeln!(
                out,
                "  {:<24} {:<9} {:>10} {:>10} {:>12.1} {:>10.1} {:>12.1}",
                r.name,
                r.kind,
                r.events,
                r.contended,
                r.wait_ns as f64 / 1e3,
                r.mean_wait_ns(),
                r.service_ns as f64 / 1e3,
            );
        }
        out
    }

    /// The contention ranking as machine-readable JSON.
    pub fn contention_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "{{\"config\":\"{}\",\"resources\":[", escape_json(&self.meta.config));
        for (i, r) in self.resources.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"kind\":\"{}\",\"events\":{},\"contended\":{},\
                 \"total_wait_ns\":{},\"mean_wait_ns\":{:.1},\"total_service_ns\":{}}}",
                escape_json(&r.name),
                escape_json(&r.kind),
                r.events,
                r.contended,
                r.wait_ns,
                r.mean_wait_ns(),
                r.service_ns,
            );
        }
        out.push_str("]}");
        out
    }

    /// The cores ranked by busy time, descending (ties by `(loc, core)`).
    pub fn cores_by_busy_time(&self) -> Vec<&CoreRecord> {
        let mut rows: Vec<&CoreRecord> = self.profile.iter().collect();
        rows.sort_by(|a, b| {
            b.busy_ns().cmp(&a.busy_ns()).then((a.loc, a.core).cmp(&(b.loc, b.core)))
        });
        rows
    }

    /// Per-core time breakdown, ranked by busy time, as an aligned text
    /// table (times in µs, shares of elapsed).
    pub fn core_time_text(&self) -> String {
        let rows = self.cores_by_busy_time();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "core time breakdown [{}]  horizon={:.1}us  cores={}",
            self.meta.config,
            self.profile_horizon_ns() as f64 / 1e3,
            rows.len()
        );
        let _ = writeln!(
            out,
            "  {:<12} {:>10} {:>7} {:>9} {:>9} {:>9} {:>9} {:>7}",
            "core", "busy_us", "busy%", "work%", "progr%", "lockw%", "serial%", "idle%"
        );
        for r in rows {
            let _ = writeln!(
                out,
                "  {:<12} {:>10.1} {:>6.1}% {:>8.1}% {:>8.1}% {:>8.1}% {:>8.1}% {:>6.1}%",
                format!("loc{}/core{}", r.loc, r.core),
                r.busy_ns() as f64 / 1e3,
                100.0 * r.busy_ns() as f64 / r.total_ns().max(1) as f64,
                100.0 * r.share(CoreState::Working),
                100.0 * r.share(CoreState::Progress),
                100.0 * r.share(CoreState::LockWait),
                100.0 * r.share(CoreState::Serialize),
                100.0 * r.share(CoreState::Idle),
            );
        }
        out
    }

    /// The ranked core-time breakdown as machine-readable JSON.
    pub fn core_time_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"config\":\"{}\",\"horizon_ns\":{},\"cores\":[",
            escape_json(&self.meta.config),
            self.profile_horizon_ns()
        );
        for (i, r) in self.cores_by_busy_time().into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"loc\":{},\"core\":{}", r.loc, r.core);
            for state in STATES {
                let _ = write!(out, ",\"{}_ns\":{}", state.label(), r.states[state as usize]);
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::FlowTracer;
    use crate::record::{ResourceRecord, RunMeta};
    use simcore::SimTime;

    fn sample_flows() -> FlowTracer {
        let mut f = FlowTracer::new();
        for i in 0..4u64 {
            let id = f.begin(0, 1, 0, SimTime::from_nanos(100 * i));
            f.mark(id, stage::SERIALIZE, SimTime::from_nanos(100 * i + 50), 0);
            f.mark(id, stage::INJECT, SimTime::from_nanos(100 * i + 80), 0);
            f.mark(id, stage::WIRE, SimTime::from_nanos(100 * i + 2000), 0);
            f.mark(id, stage::MATCH, SimTime::from_nanos(100 * i + 2300), 0);
            f.mark(id, stage::DELIVER, SimTime::from_nanos(100 * i + 2500), 0);
            f.mark(id, stage::SPAWN, SimTime::from_nanos(100 * i + 2600), 0);
        }
        f
    }

    #[test]
    fn breakdown_attributes_stage_durations() {
        let f = sample_flows();
        let b = Breakdown::from_flows("test", f.flows());
        assert_eq!(b.flows, 4);
        assert_eq!(b.delivered, 4);
        let put = b.stages.iter().find(|s| s.stage == "put").unwrap();
        assert_eq!(put.hist.mean(), 50.0);
        let inject = b.stages.iter().find(|s| s.stage == "inject").unwrap();
        assert_eq!(inject.hist.mean(), 1920.0); // inject → wire
        assert_eq!(b.dominant_stage(), Some("inject"));
        assert_eq!(b.total.hist.mean(), 2600.0);
        // Unrecorded stage (queue) is dropped.
        assert!(b.stages.iter().all(|s| s.stage != "queue"));
        let text = b.to_text();
        assert!(text.contains("dominant stage: inject"));
    }

    #[test]
    fn reports_render_as_valid_json() {
        let f = sample_flows();
        let b = Breakdown::from_flows("cfg\"quoted", f.flows());
        let parsed = crate::json::parse(&b.to_json()).expect("breakdown json parses");
        assert_eq!(parsed.get("config").unwrap().as_str(), Some("cfg\"quoted"));
        assert!(parsed.get("stages").unwrap().as_arr().unwrap().len() > 2);

        let resource = |name: &str, kind: &str, wait_ns, service_ns| ResourceRecord {
            name: name.into(),
            kind: kind.into(),
            events: 2,
            contended: (wait_ns > 0) as u64,
            wait_ns,
            service_ns,
        };
        let rec = RunRecord {
            meta: meta("mpi"),
            resources: vec![
                resource("ucp_progress", "lock", 5000, 100),
                resource("lci.progress", "trylock", 0, 50),
            ],
            ..RunRecord::default()
        };
        let parsed = crate::json::parse(&rec.contention_json()).expect("contention json parses");
        let rows = parsed.get("resources").unwrap().as_arr().unwrap();
        assert_eq!(rows[0].get("name").unwrap().as_str(), Some("ucp_progress"));
        assert_eq!(rows[0].get("mean_wait_ns").unwrap().as_f64(), Some(2500.0));
        assert!(rec.contention_text().contains("ucp_progress"));
    }

    fn meta(config: &str) -> RunMeta {
        RunMeta { scenario: "unit".into(), config: config.into(), ..RunMeta::default() }
    }

    #[test]
    fn profile_report_ranks_by_busy_time() {
        let tel = crate::Telemetry::new();
        let t = SimTime::from_nanos;
        tel.profile_record(0, 0, CoreState::Working, "task", t(0), t(1000));
        tel.profile_record(0, 1, CoreState::Progress, "background", t(0), t(400));
        tel.profile_record(1, 0, CoreState::Working, "task", t(0), t(700));
        let rec = RunRecord::capture(&tel, meta("cfg"));
        assert_eq!(rec.profile_horizon_ns(), 1000);
        let rows = rec.cores_by_busy_time();
        assert_eq!(rows.len(), 3);
        assert_eq!((rows[0].loc, rows[0].core), (0, 0));
        assert_eq!((rows[1].loc, rows[1].core), (1, 0));
        // Every row is finalized to the common horizon.
        for row in &rows {
            assert_eq!(row.total_ns(), 1000);
        }
        let text = rec.core_time_text();
        assert!(text.contains("loc0/core0"), "text: {text}");
        let parsed = crate::json::parse(&rec.core_time_json()).expect("report json parses");
        assert_eq!(parsed.get("horizon_ns").unwrap().as_f64(), Some(1000.0));
        assert_eq!(parsed.get("cores").unwrap().as_arr().unwrap().len(), 3);
    }
}
