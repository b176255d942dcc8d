//! Property tests for the windowed store and its timeline: the merge of
//! every per-window sub-histogram must reproduce the run-total histogram
//! *exactly* (bucket-identical, not just quantile-close), per-counter
//! window deltas must sum to the run totals, and window attribution must
//! put boundary samples in the right window.

use proptest::prelude::*;
use telemetry::timeline::{FlightRec, SloRule, Timeline, TimelineConfig};
use telemetry::{Histogram, Metrics};

/// A timeline and the windowed metrics it reads, fed the way the
/// collector feeds them.
struct Run {
    tl: Timeline,
    m: Metrics,
}

impl Run {
    fn hist_at(&mut self, key: &'static str, v: u64, t: u64) {
        self.m.hist_record(key, v, t);
        self.tl.sampled(t, true, &self.m);
    }

    fn counter_at(&mut self, key: &'static str, n: u64, t: u64) {
        self.m.counter_add(key, n, t);
        self.tl.sampled(t, false, &self.m);
    }

    fn observe(&mut self, t: u64) {
        self.tl.observe(t, &self.m);
    }

    /// Merge of all per-window sub-histograms of `key`.
    fn merged_hist(&self, key: &str) -> Option<Histogram> {
        let ws = self.m.hist_windows().get(key)?;
        let mut out = Histogram::new();
        for (_, h) in ws.iter() {
            out.merge(h);
        }
        Some(out)
    }
}

fn cfg(window_ns: u64) -> TimelineConfig {
    TimelineConfig { window_ns, ..TimelineConfig::default() }
}

fn run_with(cfg: TimelineConfig) -> Run {
    Run { m: Metrics::windowed(cfg.window_ns), tl: Timeline::new(cfg) }
}

fn timeline(window_ns: u64) -> Run {
    run_with(cfg(window_ns))
}

proptest! {
    /// Merging all per-window sub-histograms of a key yields a histogram
    /// bucket-identical to one fed the whole sample stream: same counts,
    /// same min/max, and therefore the same value for *every* quantile.
    #[test]
    fn window_merge_is_bucket_identical_to_total(
        window_ns in 1u64..5_000,
        samples in proptest::collection::vec((0u64..200_000, 0u64..1_000_000), 1..300),
    ) {
        let mut run = timeline(window_ns);
        let mut total = Histogram::new();
        for &(t, v) in &samples {
            run.hist_at("lat", v, t);
            total.record(v);
        }
        let merged = run.merged_hist("lat").expect("samples recorded");
        prop_assert_eq!(&merged, &total);
        prop_assert_eq!(&run.m.hist("lat").expect("samples recorded"), &total);
        prop_assert_eq!(merged.p50(), total.p50());
        prop_assert_eq!(merged.p90(), total.p90());
        prop_assert_eq!(merged.p99(), total.p99());
        prop_assert_eq!(merged.p999(), total.p999());
        prop_assert_eq!(merged.min(), total.min());
        prop_assert_eq!(merged.max(), total.max());
        prop_assert_eq!(merged.count(), samples.len() as u64);
    }

    /// Out-of-order (late) samples are still attributed to their true
    /// window, counted as late, and never dropped — merge == total holds
    /// unconditionally.
    #[test]
    fn late_samples_still_merge_exactly(
        window_ns in 1u64..2_000,
        forward in proptest::collection::vec((0u64..100_000, 0u64..50_000), 1..100),
        late in proptest::collection::vec((0u64..100_000, 0u64..50_000), 1..100),
    ) {
        let mut run = timeline(window_ns);
        let mut total = Histogram::new();
        // Drive the cursor to the max forward time first, then replay the
        // "late" stream behind it.
        let horizon = forward.iter().map(|&(t, _)| t).max().unwrap_or(0);
        // A sample is late exactly when its window has already been
        // settled (evaluated) — i.e. it lies at least one full window
        // behind the cursor's window at the time it arrives. Both loops
        // can go backwards in time, so model the whole sequence.
        let mut cur = 0u64;
        let mut expect_late = 0u64;
        for &(t, v) in &forward {
            if t / window_ns < (cur / window_ns).saturating_sub(1) {
                expect_late += 1;
            }
            cur = cur.max(t);
            run.hist_at("lat", v, t);
            total.record(v);
        }
        run.tl.observe(horizon, &run.m);
        for &(t, v) in &late {
            if t / window_ns < (cur / window_ns).saturating_sub(1) {
                expect_late += 1;
            }
            cur = cur.max(t);
            run.hist_at("lat", v, t);
            total.record(v);
        }
        prop_assert_eq!(&run.merged_hist("lat").expect("samples"), &total);
        prop_assert_eq!(run.tl.late_samples(), expect_late);
    }

    /// Per-window counter deltas sum to the run total for every key.
    #[test]
    fn counter_windows_sum_to_totals(
        window_ns in 1u64..5_000,
        events in proptest::collection::vec((0u64..200_000, 1u64..50, 0usize..3), 1..200),
    ) {
        let keys = ["a", "b", "c"];
        let mut run = timeline(window_ns);
        let mut expect = [0u64; 3];
        for &(t, n, k) in &events {
            run.counter_at(keys[k], n, t);
            expect[k] += n;
        }
        for (k, key) in keys.iter().enumerate() {
            prop_assert_eq!(run.m.counter(key), expect[k]);
            let windowed: u64 =
                run.m.counter_windows().get(key).map(|w| w.iter().map(|(_, &n)| n).sum()).unwrap_or(0);
            prop_assert_eq!(windowed, expect[k]);
        }
    }

    /// A sample at instant `t` lands in window `t / window_ns` — in
    /// particular a sample exactly on a boundary opens the *next* window.
    #[test]
    fn boundary_samples_open_the_next_window(
        window_ns in 1u64..10_000,
        k in 0u64..50,
    ) {
        let mut run = timeline(window_ns);
        let t = k * window_ns;
        run.hist_at("lat", 7, t);
        prop_assert_eq!(run.tl.window_of(t), k);
        let h = run.m.hist_window("lat", k).expect("sample in window k");
        prop_assert_eq!(h.count(), 1);
        if k > 0 {
            prop_assert!(run.m.hist_window("lat", k - 1).is_none());
        }
        // The instant just before the boundary belongs to window k-1.
        if t > 0 {
            prop_assert_eq!(run.tl.window_of(t - 1), k - 1);
        }
    }
}

/// Empty windows between samples stay empty (no phantom histograms) but
/// the covered horizon still spans them gap-free.
#[test]
fn empty_windows_are_gaps_in_keys_not_in_coverage() {
    let mut run = timeline(100);
    run.hist_at("lat", 5, 10); // window 0
    run.hist_at("lat", 9, 950); // window 9
    assert_eq!(run.tl.num_windows(), 10);
    for w in 1..9 {
        assert!(run.m.hist_window("lat", w).is_none(), "window {w} should be empty");
    }
    let merged = run.merged_hist("lat").expect("two samples");
    assert_eq!(merged.count(), 2);
    assert_eq!((merged.min(), merged.max()), (5, 9));
}

/// A run with no samples at all has one (empty) window and no keys.
#[test]
fn empty_timeline_has_no_keys() {
    let mut run = timeline(100);
    run.tl.observe(0, &run.m);
    assert_eq!(run.tl.num_windows(), 1);
    assert!(run.merged_hist("lat").is_none());
    assert_eq!(run.m.hist_windows().iter().count(), 0);
    assert_eq!(run.tl.late_samples(), 0);
}

#[test]
fn windows_partition_and_merge_exactly() {
    let mut run = run_with(cfg(100));
    let mut total = Histogram::new();
    for (t, v) in [(5u64, 10u64), (99, 20), (100, 30), (250, 40), (995, 50)] {
        run.hist_at("lat", v, t);
        total.record(v);
    }
    // Boundary instant 100 lands in window 1, not window 0.
    assert_eq!(run.m.hist_window("lat", 0).unwrap().count(), 2);
    assert_eq!(run.m.hist_window("lat", 1).unwrap().count(), 1);
    assert!(run.m.hist_window("lat", 3).is_none(), "empty windows stay sparse");
    assert_eq!(run.tl.num_windows(), 10, "coverage spans [0, cursor]");
    assert_eq!(run.m.hist("lat").unwrap(), total, "merge == total, bucket-identical");
}

#[test]
fn counter_windows_sum_to_total() {
    let mut run = run_with(cfg(1000));
    run.counter_at("msgs", 2, 10);
    run.counter_at("msgs", 3, 999);
    run.counter_at("msgs", 5, 1000);
    run.counter_at("msgs", 7, 5500);
    assert_eq!(run.m.counter_windows().get("msgs").unwrap().get(0), Some(&5));
    assert_eq!(run.m.counter_windows().get("msgs").unwrap().get(1), Some(&5));
    assert_eq!(run.m.counter("msgs"), 17);
}

#[test]
fn slo_alert_fires_deterministically_and_arms_recorder() {
    let mut run = run_with(TimelineConfig {
        window_ns: 100,
        slos: vec![SloRule {
            name: "lat-p99".into(),
            hist: "lat".into(),
            objective_ns: 50,
            target: 0.99,
            burn_threshold: 1.0,
            min_samples: 1,
        }],
        post_roll_windows: 2,
        ..TimelineConfig::default()
    });
    // Window 0: all good. Window 1: one sample blows the objective.
    run.hist_at("lat", 10, 5);
    run.hist_at("lat", 10, 50);
    run.hist_at("lat", 500, 150);
    assert!(run.tl.alerts().is_empty(), "window 1 not settled yet");
    run.observe(399); // settles window 1 (cursor clears window 2)
    let tl = &mut run.tl;
    assert_eq!(tl.alerts().len(), 1);
    let a = &tl.alerts()[0];
    assert_eq!((a.window, a.bad, a.total), (1, 1, 1));
    assert!(a.burn >= 1.0);
    assert!(!tl.dump_due(), "post-roll not elapsed");
    tl.observe(450, &run.m);
    assert!(tl.dump_due(), "dump due after post-roll");
    tl.take_dump(vec![("net.wire", "wire", 0, 10)]);
    assert_eq!(tl.dumps().len(), 1);
    let d = &tl.dumps()[0];
    assert!(d.reason.starts_with("slo:"));
    assert!(d.records.iter().any(|r| matches!(r, FlightRec::Alert { .. })));
    let json = d.to_chrome_json();
    assert!(json.contains("TRIGGER slo:lat-p99"), "json: {json}");
    assert!(json.contains("flight.causal"));
}

#[test]
fn fault_event_arms_and_finalize_forces_dump() {
    let mut run = run_with(cfg(100));
    run.hist_at("lat", 10, 50);
    let tl = &mut run.tl;
    tl.fault_event("link_down", 120, &run.m);
    assert!(!tl.dump_due());
    tl.finalize(&run.m);
    assert!(tl.dump_due(), "finalize clamps the post-roll to the horizon");
    tl.take_dump(Vec::new());
    assert_eq!(tl.dumps()[0].reason, "fault:link_down");
    assert!(tl.dumps()[0].records.iter().any(|r| matches!(r, FlightRec::Fault { .. })));
}

#[test]
fn json_doc_is_valid_and_gap_free() {
    let mut run = run_with(cfg(100));
    run.hist_at("lat", 10, 50);
    run.counter_at("msgs", 1, 50);
    run.hist_at("lat", 20, 450);
    run.m.port_access("fab.e0.p1", 120, 30, 64);
    run.tl.finalize(&run.m);
    let doc = run.tl.to_json("test", &run.m, None, None);
    let v = telemetry::json::parse(&doc).expect("valid json");
    let t = v.get("timeline").unwrap();
    let windows = t.get("windows").unwrap().as_arr().unwrap();
    assert_eq!(windows.len(), 5, "gap-free coverage includes empty windows");
    for (i, w) in windows.iter().enumerate() {
        assert_eq!(w.get("index").unwrap().as_f64(), Some(i as f64));
    }
    assert!(doc.contains("\"fab.e0.p1\""));
    let om = run.tl.to_openmetrics("test", &run.m);
    assert!(om.contains("lat_count{window=\"0\"} 1"), "exposition: {om}");
    assert!(om.contains("fab_e0_p1_wait_ns_total{window=\"1\"} 30"));
}
