//! The causal what-if (virtual-speedup) engine.
//!
//! A Coz-style causal profiler answers "how much faster would the run be
//! if component X were k× cheaper?" On real hardware that needs virtual
//! speedup through sampling; in a deterministic DES both sides are exact:
//!
//! * **predicted** speedup comes from the critical path — scaling a
//!   component shrinks the path by its on-path time times `(1 − k)`;
//! * **measured** speedup comes from deterministically re-running the
//!   same scenario with the cost knob actually dialed.
//!
//! Agreement of the two validates that the causal graph attributes time
//! to the mechanism that really carries it. Disagreement is itself
//! informative: it means shrinking the component moved the critical path
//! onto a different resource (contention shifted), which only the re-run
//! can see.

use std::fmt::Write as _;

use netsim::WireModel;
use parcelport::PpConfig;
use simcore::CostModel;
use telemetry::CritPath;

use crate::latency::{run_latency, LatencyParams};
use crate::trace::instrumented;

/// One cost knob the engine can dial, mirroring the paper's five
/// mechanisms plus the generic wire/serialization scales.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Knob {
    /// Scale serialization costs (per-byte + per-parcel encode) by `k`.
    SerializeScale(f64),
    /// Scale the wire propagation latency by `k`.
    WireLatencyScale(f64),
    /// Scale wire bandwidth by `k` (per-byte time by `1/k`).
    WireBandwidthScale(f64),
    /// Scale the `ucp_progress` critical-section length by `k`
    /// (emulates MPI/UCX adopting LCI's fine-grained synchronization).
    LockHoldScale(f64),
    /// Remove tag matching + unexpected-queue scanning (emulates LCI's
    /// dynamic put, which needs no posted receive to match).
    TagMatchOff,
    /// Remove the per-in-flight-op progress cost (emulates completion
    /// queues: completion notification independent of outstanding ops).
    ProgressPerOpOff,
    /// Remove the worker poll skew (emulates a dedicated pinned progress
    /// thread spinning on the NIC).
    PollSkewOff,
    /// Turn on send-immediate (bypass aggregation queues).
    SendImmediate,
}

fn scale_u64(v: u64, k: f64) -> u64 {
    (v as f64 * k).round() as u64
}

impl Knob {
    /// Stable display/CLI name, e.g. `serialize_x0.5`, `tag_match_off`.
    pub fn name(&self) -> String {
        match self {
            Knob::SerializeScale(k) => format!("serialize_x{k}"),
            Knob::WireLatencyScale(k) => format!("wire_latency_x{k}"),
            Knob::WireBandwidthScale(k) => format!("wire_bw_x{k}"),
            Knob::LockHoldScale(k) => format!("lock_hold_x{k}"),
            Knob::TagMatchOff => "tag_match_off".into(),
            Knob::ProgressPerOpOff => "cq_per_op_off".into(),
            Knob::PollSkewOff => "poll_skew_off".into(),
            Knob::SendImmediate => "send_immediate".into(),
        }
    }

    /// Parse a CLI knob spec (the inverse of [`Knob::name`]).
    pub fn parse(s: &str) -> Option<Knob> {
        if let Some(k) = s.strip_prefix("serialize_x") {
            return k.parse().ok().map(Knob::SerializeScale);
        }
        if let Some(k) = s.strip_prefix("wire_latency_x") {
            return k.parse().ok().map(Knob::WireLatencyScale);
        }
        if let Some(k) = s.strip_prefix("wire_bw_x") {
            return k.parse().ok().map(Knob::WireBandwidthScale);
        }
        if let Some(k) = s.strip_prefix("lock_hold_x") {
            return k.parse().ok().map(Knob::LockHoldScale);
        }
        match s {
            "tag_match_off" => Some(Knob::TagMatchOff),
            "cq_per_op_off" => Some(Knob::ProgressPerOpOff),
            "poll_skew_off" => Some(Knob::PollSkewOff),
            "send_immediate" => Some(Knob::SendImmediate),
            _ => None,
        }
    }

    /// Dial this knob into a scenario's configuration, cost model and
    /// wire model.
    pub fn apply(&self, cfg: &mut PpConfig, cost: &mut CostModel, wire: &mut WireModel) {
        match *self {
            Knob::SerializeScale(k) => {
                cost.serialize_per_byte_milli = scale_u64(cost.serialize_per_byte_milli, k);
                cost.amt_encode_base = scale_u64(cost.amt_encode_base, k);
                cost.amt_encode_per_parcel = scale_u64(cost.amt_encode_per_parcel, k);
            }
            Knob::WireLatencyScale(k) => {
                wire.latency_ns = scale_u64(wire.latency_ns, k);
            }
            Knob::WireBandwidthScale(k) => {
                wire.byte_ns_milli = scale_u64(wire.byte_ns_milli, 1.0 / k);
            }
            Knob::LockHoldScale(k) => {
                cost.mpi_lock_hold_scale_milli = scale_u64(1000, k);
            }
            Knob::TagMatchOff => {
                cost.mpi_match = 0;
                cost.mpi_unexp_scan = 0;
                cost.mpi_unexpected = 0;
            }
            Knob::ProgressPerOpOff => {
                cost.mpi_progress_per_op = 0;
            }
            Knob::PollSkewOff => {
                cost.worker_poll_skew = 0;
            }
            Knob::SendImmediate => {
                cfg.send_immediate = true;
            }
        }
    }

    /// Predicted makespan under this knob, from the base run's critical
    /// path: `total − on_path(component) × (1 − k)`. `None` when the
    /// knob's effect is not a single on-path component (those are
    /// validated by measurement only).
    pub fn predicted_total_ns(&self, cp: &CritPath) -> Option<u64> {
        let total = cp.total_ns as i64;
        let delta = match *self {
            Knob::SerializeScale(k) => {
                (cp.component_ns("amt.serialize") as f64 * (1.0 - k)).round() as i64
            }
            Knob::WireLatencyScale(k) => (cp.wire_fixed_ns as f64 * (1.0 - k)).round() as i64,
            Knob::WireBandwidthScale(k) => {
                let variable = cp.component_ns("net.wire").saturating_sub(cp.wire_fixed_ns);
                (variable as f64 * (1.0 - 1.0 / k)).round() as i64
            }
            Knob::LockHoldScale(k) => {
                (cp.component_ns("ucp_progress") as f64 * (1.0 - k)).round() as i64
            }
            Knob::PollSkewOff => cp.component_ns("worker.poll_skew.wait") as i64,
            Knob::TagMatchOff | Knob::ProgressPerOpOff | Knob::SendImmediate => return None,
        };
        Some((total - delta).max(0) as u64)
    }
}

/// Predicted-vs-measured outcome of one knob on one scenario.
#[derive(Debug, Clone)]
pub struct WhatIfRow {
    /// Knob name.
    pub knob: String,
    /// Base makespan (virtual ns, last executed event of the base run).
    pub base_ns: u64,
    /// Makespan predicted from the base run's critical path.
    pub predicted_ns: Option<u64>,
    /// Makespan measured by deterministically re-running with the knob.
    pub measured_ns: u64,
}

impl WhatIfRow {
    /// Predicted speedup (base / predicted), when predictable.
    pub fn predicted_speedup(&self) -> Option<f64> {
        self.predicted_ns.map(|p| self.base_ns as f64 / p.max(1) as f64)
    }

    /// Measured speedup (base / measured).
    pub fn measured_speedup(&self) -> f64 {
        self.base_ns as f64 / self.measured_ns.max(1) as f64
    }

    /// Relative error of the prediction against the measurement.
    pub fn prediction_error(&self) -> Option<f64> {
        self.predicted_ns
            .map(|p| (p as f64 - self.measured_ns as f64).abs() / self.measured_ns.max(1) as f64)
    }
}

fn knobbed(base: &LatencyParams, knob: Knob) -> LatencyParams {
    let mut p = base.clone();
    knob.apply(&mut p.config, &mut p.cost, &mut p.wire);
    p
}

/// Run the what-if engine on an arbitrary scenario: one instrumented
/// base run (returning its critical path), then one deterministic re-run
/// per knob, each dialed through `run(config, cost, wire)`. Makespans
/// are virtual-time instants of each run's last executed event, so the
/// predicted and measured sides use the same clock.
pub fn whatif_sweep(
    config: PpConfig,
    cost: CostModel,
    wire: WireModel,
    knobs: &[Knob],
    run: impl Fn(PpConfig, CostModel, WireModel),
) -> (CritPath, Vec<WhatIfRow>) {
    let name = config.to_string();
    let ((), tel) = instrumented(|| run(config, cost.clone(), wire.clone()));
    let cp = tel.critpath(&name).expect("base run records a causal log");
    let rows = knobs
        .iter()
        .map(|&k| {
            let mut cfg = config;
            let mut c = cost.clone();
            let mut w = wire.clone();
            k.apply(&mut cfg, &mut c, &mut w);
            let ((), tel2) = instrumented(|| run(cfg, c, w));
            let cp2 = tel2.critpath(&cfg.to_string()).expect("re-run records a causal log");
            WhatIfRow {
                knob: k.name(),
                base_ns: cp.total_ns,
                predicted_ns: k.predicted_total_ns(&cp),
                measured_ns: cp2.total_ns,
            }
        })
        .collect();
    (cp, rows)
}

/// [`whatif_sweep`] over the ping-pong latency benchmark.
pub fn whatif_latency(base: &LatencyParams, knobs: &[Knob]) -> (CritPath, Vec<WhatIfRow>) {
    whatif_sweep(base.config, base.cost.clone(), base.wire.clone(), knobs, |cfg, cost, wire| {
        let mut p = base.clone();
        p.config = cfg;
        p.cost = cost;
        p.wire = wire;
        run_latency(&p);
    })
}

/// One mechanism's contribution to the MPI-vs-LCI gap.
#[derive(Debug, Clone)]
pub struct MechanismRow {
    /// Paper mechanism name.
    pub mechanism: &'static str,
    /// Knob used to emulate it inside the MPI stack.
    pub knob: String,
    /// MPI makespan with the knob dialed, ns.
    pub t_knob_ns: u64,
    /// Fraction of the MPI−LCI gap this mechanism explains.
    pub share_of_gap: f64,
}

/// Attribution of the fig8-style MPI-vs-LCI latency gap to the paper's
/// five mechanisms, by measured re-runs: each mechanism is emulated
/// inside the MPI stack with its knob, and its share of the gap is
/// `(T_mpi − T_mpi+knob) / (T_mpi − T_lci)`.
///
/// Returns `(t_mpi_ns, t_lci_ns, rows)`. Shares need not sum to 1 —
/// mechanisms overlap (removing one lengthens another's residual path).
pub fn five_mechanism_attribution(
    window: usize,
    steps: usize,
    cores: usize,
) -> (u64, u64, Vec<MechanismRow>) {
    let mk = |cfg: &str| {
        let mut p = LatencyParams::new(cfg.parse().expect("valid config"), 8);
        p.window = window;
        p.steps = steps;
        p.cores = cores;
        p
    };
    let mpi = mk("mpi");
    let t_mpi = run_latency(&mpi).total.as_nanos();
    let t_lci = run_latency(&mk("lci_psr_cq_pin_i")).total.as_nanos();
    let gap = t_mpi.saturating_sub(t_lci).max(1);

    let mechanisms: [(&'static str, Knob); 5] = [
        ("fine-grained sync", Knob::LockHoldScale(0.0)),
        ("dynamic put", Knob::TagMatchOff),
        ("completion queues", Knob::ProgressPerOpOff),
        ("pinned progress thread", Knob::PollSkewOff),
        ("send-immediate", Knob::SendImmediate),
    ];
    let mut rows: Vec<MechanismRow> = mechanisms
        .iter()
        .map(|&(mechanism, knob)| {
            let t_knob = run_latency(&knobbed(&mpi, knob)).total.as_nanos();
            MechanismRow {
                mechanism,
                knob: knob.name(),
                t_knob_ns: t_knob,
                share_of_gap: t_mpi.saturating_sub(t_knob) as f64 / gap as f64,
            }
        })
        .collect();
    rows.sort_by(|a, b| b.share_of_gap.total_cmp(&a.share_of_gap));

    // All five together: mechanisms overlap, so the combined effect is
    // the honest upper line of what this family of knobs explains.
    let mut all = mpi.clone();
    for (_, knob) in &mechanisms {
        knob.apply(&mut all.config, &mut all.cost, &mut all.wire);
    }
    let t_all = run_latency(&all).total.as_nanos();
    rows.push(MechanismRow {
        mechanism: "all five combined",
        knob: "all".into(),
        t_knob_ns: t_all,
        share_of_gap: t_mpi.saturating_sub(t_all) as f64 / gap as f64,
    });
    (t_mpi, t_lci, rows)
}

/// Render the machine-readable `BENCH_whatif.json` document.
pub fn whatif_json(
    config: &str,
    cp: &CritPath,
    rows: &[WhatIfRow],
    attribution: Option<(u64, u64, &[MechanismRow])>,
) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"config\":\"{}\",\"base_ns\":{},\"critpath\":{},\"knobs\":[",
        simcore::escape_json(config),
        cp.total_ns,
        cp.to_json(),
    );
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"knob\":\"{}\",\"base_ns\":{},\"measured_ns\":{},\"measured_speedup\":{:.6}",
            simcore::escape_json(&r.knob),
            r.base_ns,
            r.measured_ns,
            r.measured_speedup(),
        );
        if let (Some(p), Some(s), Some(e)) =
            (r.predicted_ns, r.predicted_speedup(), r.prediction_error())
        {
            let _ = write!(
                out,
                ",\"predicted_ns\":{p},\"predicted_speedup\":{s:.6},\"prediction_error\":{e:.6}"
            );
        }
        out.push('}');
    }
    out.push(']');
    if let Some((t_mpi, t_lci, mech)) = attribution {
        let _ = write!(
            out,
            ",\"attribution\":{{\"t_mpi_ns\":{t_mpi},\"t_lci_ns\":{t_lci},\"mechanisms\":["
        );
        for (i, m) in mech.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"mechanism\":\"{}\",\"knob\":\"{}\",\"t_knob_ns\":{},\"share_of_gap\":{:.6}}}",
                simcore::escape_json(m.mechanism),
                simcore::escape_json(&m.knob),
                m.t_knob_ns,
                m.share_of_gap,
            );
        }
        out.push_str("]}");
    }
    out.push('}');
    out
}

/// Render the human-readable what-if table.
pub fn whatif_text(
    config: &str,
    rows: &[WhatIfRow],
    attribution: Option<(u64, u64, &[MechanismRow])>,
) -> String {
    let mut out = String::new();
    let _ =
        writeln!(out, "what-if [{config}]: predicted (from critical path) vs measured (re-run)");
    let _ = writeln!(
        out,
        "  {:<18} {:>12} {:>12} {:>12} {:>9} {:>9}",
        "knob", "base us", "predicted us", "measured us", "pred x", "meas x"
    );
    for r in rows {
        let pred_us =
            r.predicted_ns.map(|p| format!("{:.3}", p as f64 / 1e3)).unwrap_or_else(|| "-".into());
        let pred_x = r.predicted_speedup().map(|s| format!("{s:.3}")).unwrap_or_else(|| "-".into());
        let _ = writeln!(
            out,
            "  {:<18} {:>12.3} {:>12} {:>12.3} {:>9} {:>9.3}",
            r.knob,
            r.base_ns as f64 / 1e3,
            pred_us,
            r.measured_ns as f64 / 1e3,
            pred_x,
            r.measured_speedup(),
        );
    }
    if let Some((t_mpi, t_lci, mech)) = attribution {
        let _ = writeln!(
            out,
            "causal attribution of the MPI-vs-LCI gap \
             (T_mpi {:.3} us, T_lci {:.3} us, gap {:.3} us):",
            t_mpi as f64 / 1e3,
            t_lci as f64 / 1e3,
            t_mpi.saturating_sub(t_lci) as f64 / 1e3,
        );
        let _ = writeln!(
            out,
            "  {:<24} {:<16} {:>12} {:>12}",
            "mechanism", "knob", "T+knob us", "gap share"
        );
        for m in mech {
            let _ = writeln!(
                out,
                "  {:<24} {:<16} {:>12.3} {:>11.1}%",
                m.mechanism,
                m.knob,
                m.t_knob_ns as f64 / 1e3,
                m.share_of_gap * 100.0,
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knob_names_roundtrip_through_parse() {
        for k in [
            Knob::SerializeScale(0.5),
            Knob::WireLatencyScale(2.0),
            Knob::WireBandwidthScale(4.0),
            Knob::LockHoldScale(0.25),
            Knob::TagMatchOff,
            Knob::ProgressPerOpOff,
            Knob::PollSkewOff,
            Knob::SendImmediate,
        ] {
            assert_eq!(Knob::parse(&k.name()), Some(k), "{}", k.name());
        }
        assert_eq!(Knob::parse("bogus"), None);
    }

    #[test]
    fn apply_dials_the_right_fields() {
        let mut cfg: PpConfig = "mpi".parse().unwrap();
        let mut cost = CostModel::default_model();
        let mut wire = WireModel::expanse();
        Knob::WireLatencyScale(2.0).apply(&mut cfg, &mut cost, &mut wire);
        assert_eq!(wire.latency_ns, 2_000);
        Knob::LockHoldScale(0.5).apply(&mut cfg, &mut cost, &mut wire);
        assert_eq!(cost.mpi_lock_hold_scale_milli, 500);
        assert_eq!(cost.scale_lock_hold(1000), 500);
        Knob::TagMatchOff.apply(&mut cfg, &mut cost, &mut wire);
        assert_eq!(cost.mpi_match + cost.mpi_unexp_scan + cost.mpi_unexpected, 0);
        assert!(!cfg.send_immediate);
        Knob::SendImmediate.apply(&mut cfg, &mut cost, &mut wire);
        assert!(cfg.send_immediate);
    }
}
