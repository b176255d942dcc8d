//! Acceptance tests for the causal critical-path analyzer and the
//! what-if engine (ISSUE 4 tentpole).
//!
//! Structural identity: the sum of per-component on-path durations must
//! equal the measured end-to-end time exactly — for the makespan path
//! and for every per-parcel path — on both a fig1-style (message-rate)
//! and a fig8-style (windowed latency) scenario. What-if validation:
//! predicted speedups from critical-path slack must agree with measured
//! speedups from deterministic re-runs.

mod common;

use bench::{run_latency, run_msgrate, whatif_latency, Knob, LatencyParams, MsgRateParams};
use common::record;
use telemetry::CritPath;

fn assert_partition_identity(cp: &CritPath, config: &str) {
    assert!(cp.total_ns > 0, "[{config}] empty critical path");
    assert!(!cp.truncated, "[{config}] causal log truncated");
    // Segments tile [0, total] with no gaps or overlaps.
    let mut cursor = 0u64;
    for seg in &cp.segments {
        assert_eq!(seg.start, cursor, "[{config}] gap/overlap before {seg:?}");
        assert!(seg.end > seg.start, "[{config}] empty segment {seg:?}");
        cursor = seg.end;
    }
    assert_eq!(cursor, cp.total_ns, "[{config}] segments do not reach the end");
    // Per-component shares are the same partition, grouped.
    let seg_sum: u64 = cp.segments.iter().map(|s| s.len_ns()).sum();
    let comp_sum: u64 = cp.components.iter().map(|c| c.on_path_ns).sum();
    assert_eq!(seg_sum, cp.total_ns, "[{config}] segment sum != makespan");
    assert_eq!(comp_sum, cp.total_ns, "[{config}] component sum != makespan");
}

fn check_latency_config(config: &str, window: usize) {
    let mut p = LatencyParams::new(config.parse().unwrap(), 8);
    p.steps = 40;
    p.window = window;
    p.cores = 8;
    let (r, tel) = bench::trace::instrumented(|| run_latency(&p));
    assert!(r.completed, "[{config}] run did not complete");
    let rec = record(&tel, config);
    let cp = rec.critpath.as_ref().expect("critical path");
    assert_partition_identity(cp, config);
    // The makespan path ends at the last executed event; the benchmark's
    // own finish time adds at most the final handler's work (100 ns) on
    // top of that event's start.
    assert!(
        cp.total_ns + 1_000 >= r.total.as_nanos(),
        "[{config}] critpath total {} < benchmark finish {}",
        cp.total_ns,
        r.total.as_nanos()
    );

    // Per-parcel paths: stage partition equals deliver − put, exactly.
    let paths = rec.parcel_paths().unwrap();
    assert!(!paths.is_empty(), "[{config}] no delivered parcels");
    for pp in &paths {
        let sum: u64 = pp.segments.iter().map(|s| s.len_ns()).sum();
        assert_eq!(sum, pp.total_ns, "[{config}] parcel {} stage sum != end-to-end", pp.flow);
        let mut cursor = pp.segments.first().map(|s| s.start).unwrap_or(0);
        for seg in &pp.segments {
            assert_eq!(seg.start, cursor, "[{config}] parcel {} gap at {seg:?}", pp.flow);
            cursor = seg.end;
        }
    }
}

#[test]
fn makespan_and_parcel_identity_fig8_style() {
    // Fig-8 shape: windowed ping-pong latency, LCI best + MPI baseline.
    for config in ["lci_psr_cq_pin_i", "mpi"] {
        check_latency_config(config, 4);
    }
}

#[test]
fn makespan_and_parcel_identity_fig1_style() {
    // Fig-1 shape: message-rate injection, both backends.
    for config in ["lci_psr_cq_pin_i", "mpi_i"] {
        let mut p = MsgRateParams::small(config.parse().unwrap());
        p.total_msgs = 2_000;
        p.batch = 50;
        p.cores = 8;
        let (r, tel) = bench::trace::instrumented(|| run_msgrate(&p));
        assert!(r.completed, "[{config}] run did not complete");
        let rec = record(&tel, config);
        let cp = rec.critpath.as_ref().expect("critical path");
        assert_partition_identity(cp, config);
        let paths = rec.parcel_paths().unwrap();
        assert!(paths.len() >= 2_000, "[{config}] only {} parcel paths", paths.len());
        for pp in &paths {
            let sum: u64 = pp.segments.iter().map(|s| s.len_ns()).sum();
            assert_eq!(sum, pp.total_ns, "[{config}] parcel {} identity", pp.flow);
        }
    }
}

#[test]
fn whatif_predictions_match_measured_reruns() {
    // Window-1 ping-pong on the LCI best config: the path is almost pure
    // wire + software pipeline, so critical-path predictions should land
    // within 10% of deterministic re-runs for every predictable knob.
    let mut p = LatencyParams::new("lci_psr_cq_pin_i".parse().unwrap(), 16 * 1024);
    p.steps = 60;
    p.window = 1;
    p.cores = 8;
    let knobs = [
        Knob::SerializeScale(0.0),
        Knob::WireLatencyScale(2.0),
        Knob::WireLatencyScale(0.5),
        Knob::WireBandwidthScale(2.0),
    ];
    let (_cp, rows) = whatif_latency(&p, &knobs);
    assert_eq!(rows.len(), knobs.len());
    for row in &rows {
        let err = row.prediction_error().expect("predictable knob");
        eprintln!(
            "whatif[{}]: base {} predicted {:?} measured {} err {:.4}",
            row.knob, row.base_ns, row.predicted_ns, row.measured_ns, err
        );
        assert!(
            err <= 0.10,
            "knob {}: predicted {:?} vs measured {} ({:.1}% off)",
            row.knob,
            row.predicted_ns,
            row.measured_ns,
            err * 100.0
        );
    }
    // The knobs must actually move the makespan (no vacuous agreement).
    let moved = rows
        .iter()
        .filter(|r| (r.measured_ns as f64 - r.base_ns as f64).abs() / r.base_ns as f64 > 0.02)
        .count();
    assert!(moved >= 3, "only {moved} knobs moved the makespan > 2%");
}

#[test]
fn whatif_lock_hold_prediction_on_mpi() {
    // Fine-grained-sync knob on the MPI stack, with enough concurrent
    // chains that the ucp_progress lock carries real on-path time:
    // removing the hold must be predicted correctly and must actually
    // speed up the re-run.
    let mut p = LatencyParams::new("mpi".parse().unwrap(), 8);
    p.steps = 60;
    p.window = 8;
    p.cores = 8;
    let (cp, rows) = whatif_latency(&p, &[Knob::LockHoldScale(0.0)]);
    assert!(cp.component_ns("ucp_progress") > 0, "no lock-hold time on path:\n{}", cp.to_text());
    let row = &rows[0];
    let err = row.prediction_error().expect("predictable");
    eprintln!(
        "whatif[{}]: base {} predicted {:?} measured {} err {:.4}",
        row.knob, row.base_ns, row.predicted_ns, row.measured_ns, err
    );
    assert!(err <= 0.10, "lock-hold prediction {:.1}% off", err * 100.0);
    assert!(row.measured_ns < row.base_ns, "halving the lock hold did not speed up the run");
}
