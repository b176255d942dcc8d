//! Property tests for the windowed store and its timeline: the merge of
//! every per-window sub-histogram must reproduce the run-total histogram
//! *exactly* (bucket-identical, not just quantile-close), per-counter
//! window deltas must sum to the run totals, window attribution must put
//! boundary samples in the right window, and the alerts and flight dumps
//! the timeline computes at capture must follow their rules: every rule
//! evaluated once per final window, triggers replayed in instant order,
//! every dump record and mark inside its interval and under its cap.

use std::collections::BTreeMap;

use proptest::prelude::*;
use simcore::causal::MarkKind;
use simcore::probe::Probe;
use simcore::{CausalLog, SimTime};
use telemetry::flow::{stage, FlowRec, UNSET};
use telemetry::timeline::{
    FlightRec, SloRule, Timeline, TimelineConfig, DUMP_MARKS, DUMP_RECORDS, MAX_DUMPS,
};
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
        self.tl.sampled(t);
    }

    fn counter_at(&mut self, key: &'static str, n: u64, t: u64) {
        self.m.counter_add(key, n, t);
        self.tl.sampled(t);
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
        // Drive the horizon to the max forward time first, then replay the
        // "late" stream behind it.
        let horizon = forward.iter().map(|&(t, _)| t).max().unwrap_or(0);
        // A sample is late exactly when it lies more than one window
        // behind the horizon's window at the time it arrives. Both loops
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
        run.tl.observe(horizon);
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
    run.tl.observe(0);
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
    assert_eq!(run.tl.num_windows(), 10, "coverage spans [0, horizon]");
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

fn lat_rule(name: &str, objective_ns: u64, min_samples: u64) -> SloRule {
    SloRule {
        name: name.into(),
        hist: "lat".into(),
        objective_ns,
        target: 0.99,
        burn_threshold: 1.0,
        min_samples,
    }
}

/// A delivered flow `src -> dst`, put at `put` and delivered at `deliver`.
fn flow(src: u32, dst: u32, put: u64, deliver: u64) -> FlowRec {
    let mut stages = [UNSET; stage::COUNT];
    stages[stage::PUT] = put;
    stages[stage::DELIVER] = deliver;
    FlowRec { src, dst, src_core: 0, dst_core: 0, stages, deliver_node: 0 }
}

/// A causal log of one node owning `marks` (`(start, end)`, each on the
/// `net.wire` label).
fn log_of(marks: &[(u64, u64)]) -> std::rc::Rc<CausalLog> {
    let log = CausalLog::new();
    log.on_execute(1, 0, 0);
    for &(start, end) in marks {
        log.mark(
            "net.wire",
            MarkKind::Wire,
            SimTime::from_nanos(start),
            SimTime::from_nanos(end),
            0,
        );
    }
    log.end_execute();
    log
}

/// Alerts are computed at capture: none while the run is live, then one
/// per breached window. The alert opens a dump at its window's end that
/// holds the alert itself, the flows delivered in its interval and the
/// causal marks that start there, and renders as a Chrome trace.
#[test]
fn slo_alerts_and_dumps_are_computed_at_capture() {
    let mut run = run_with(TimelineConfig {
        window_ns: 100,
        slos: vec![lat_rule("lat-p99", 50, 1)],
        post_roll_windows: 2,
    });
    // Window 0: all good. Window 1: one sample blows the objective.
    run.hist_at("lat", 10, 5);
    run.hist_at("lat", 10, 50);
    run.hist_at("lat", 500, 150);
    run.tl.observe(450);
    assert!(run.tl.alerts().is_empty() && run.tl.dumps().is_empty(), "nothing before capture");

    let flows = [flow(0, 1, 0, 5), flow(1, 0, 10, 50), flow(0, 1, 20, 150), flow(1, 0, 30, 420)];
    let log = log_of(&[(0, 10), (120, 130), (399, 500), (401, 410)]);
    run.tl.finalize(&run.m, &flows, Some(&log));
    let tl = &run.tl;
    assert_eq!(tl.alerts().len(), 1);
    let a = &tl.alerts()[0];
    assert_eq!((a.window, a.end_ns, a.bad, a.total), (1, 200, 1, 1));
    assert!(a.burn >= 1.0);

    assert_eq!(tl.dumps().len(), 1);
    let d = &tl.dumps()[0];
    assert_eq!(
        (d.reason.as_str(), d.trigger_ns, d.window, d.taken_ns),
        ("slo:lat-p99", 200, 2, 400)
    );
    // The interval is [200 - 200, 200 + 200]: flows delivered at 5, 50
    // and 150 (not 420), then the alert at 200.
    let ids: Vec<u64> = d
        .records
        .iter()
        .filter_map(|r| match r {
            FlightRec::Flow { id, .. } => Some(*id),
            _ => None,
        })
        .collect();
    assert_eq!(ids, [1, 2, 3]);
    assert_eq!(
        d.records.last(),
        Some(&FlightRec::Alert { rule: "lat-p99".into(), window: 1, t_ns: 200 })
    );
    let starts: Vec<u64> = d.marks.iter().map(|m| m.2).collect();
    assert_eq!(starts, [0, 120, 399]);
    let json = d.to_chrome_json();
    assert!(json.contains("TRIGGER slo:lat-p99"), "json: {json}");
    assert!(json.contains("parcel#3 0->1") && json.contains("flight.causal"), "json: {json}");
}

/// A fault opens a dump whose post-roll the run outlives: the dump ends
/// at the horizon and carries the fault.
#[test]
fn a_fault_dump_ends_at_the_horizon() {
    let mut run = run_with(cfg(100));
    run.hist_at("lat", 10, 50);
    run.tl.fault_event("link_down", 120);
    run.tl.finalize(&run.m, &[flow(0, 1, 40, 50)], None);
    let dumps = run.tl.dumps();
    assert_eq!(dumps.len(), 1);
    let d = &dumps[0];
    assert_eq!(
        (d.reason.as_str(), d.trigger_ns, d.window, d.taken_ns),
        ("fault:link_down", 120, 1, 120)
    );
    assert_eq!(d.records.len(), 2);
    assert_eq!(d.records[1], FlightRec::Fault { label: "link_down", t_ns: 120 });
    assert!(d.marks.is_empty(), "no causal log, no marks");
}

/// Triggers replay in instant order, faults before alerts at one
/// instant; a trigger inside an open dump opens none; at most
/// `MAX_DUMPS` dumps.
#[test]
fn triggers_replay_in_instant_order() {
    let mut run = run_with(TimelineConfig {
        window_ns: 100,
        slos: vec![lat_rule("lat", 50, 1)],
        post_roll_windows: 1,
    });
    // Alerts in windows 0, 2, 3, 5, 7 and 9, ending at 100, 300, 400,
    // 600, 800 and 1 000.
    for w in [0, 2, 3, 5, 7, 9] {
        run.hist_at("lat", 500, w * 100 + 10);
    }
    // A fault at the first alert's instant comes first; one inside the
    // dump it opens opens none.
    run.tl.fault_event("a", 100);
    run.tl.fault_event("b", 150);
    run.tl.finalize(&run.m, &[], None);
    let dumps: Vec<_> =
        run.tl.dumps().iter().map(|d| (d.reason.as_str(), d.trigger_ns, d.taken_ns)).collect();
    assert_eq!(
        dumps,
        [
            ("fault:a", 100, 200),
            ("slo:lat", 300, 400),
            ("slo:lat", 400, 500),
            ("slo:lat", 600, 700)
        ]
    );
    assert_eq!(dumps.len(), MAX_DUMPS);
}

/// A small deterministic generator for the bulk inputs of the property
/// below (thousands of flows would make proptest's shrinking slow).
fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random samples, faults, flows, marks and rules, one rule added
    /// mid-stream: the finalized alerts equal a naive evaluation of each
    /// final window under every rule; the dumps follow the trigger replay
    /// rule; every dump record and mark lies in its interval, and each
    /// list keeps the newest of its interval up to its cap.
    #[test]
    fn finalized_alerts_and_dumps_follow_the_capture_rules(
        window_ns in 20u64..400,
        post_roll_windows in 0u64..4,
        samples in proptest::collection::vec((0u64..20_000, 0u64..2_000), 1..200),
        faults in proptest::collection::vec(0u64..20_000, 0..6),
        rules in proptest::collection::vec((0u64..2_000, 1u64..4, 5u64..600), 1..4),
        added_at in 0usize..200,
        n_flows in 0usize..6_000,
        n_marks in 0usize..700,
        span_log in 0u32..15,
        seed in 1u64..u64::MAX,
    ) {
        // The burn threshold in tenths.
        let rule = |i: usize, &(objective_ns, min_samples, tenths): &(u64, u64, u64)| SloRule {
            burn_threshold: tenths as f64 / 10.0,
            ..lat_rule(&format!("r{i}"), objective_ns, min_samples)
        };
        let (first, late) = rules.split_at(1);
        let mut run = run_with(TimelineConfig {
            window_ns,
            slos: vec![rule(0, &first[0])],
            post_roll_windows,
        });
        for (i, &(t, v)) in samples.iter().enumerate() {
            if i == added_at.min(samples.len() - 1) {
                for (j, r) in late.iter().enumerate() {
                    run.tl.add_rule(rule(j + 1, r));
                }
            }
            run.hist_at("lat", v, t);
        }
        for &t in &faults {
            run.tl.fault_event("f", t);
        }
        // Flows and marks crowd into `[anchor, anchor + span)`, at the
        // earliest fault, which a dump covers: some dumps overflow their
        // caps.
        let (anchor, span) = (faults.iter().copied().min().unwrap_or(0), 1u64 << span_log);
        let mut state = seed;
        let flows: Vec<FlowRec> = (0..n_flows)
            .map(|_| {
                let put = anchor + xorshift(&mut state) % span;
                flow(0, 1, put, put + xorshift(&mut state) % 50)
            })
            .collect();
        let marks: Vec<(u64, u64)> = (0..n_marks)
            .map(|_| {
                let start = anchor + xorshift(&mut state) % span;
                (start, start + 1 + xorshift(&mut state) % 100)
            })
            .collect();
        let log = log_of(&marks);
        run.tl.finalize(&run.m, &flows, Some(&log));
        let tl = &run.tl;

        // Naive alerts: every final window, every rule in order.
        let mut windows: BTreeMap<u64, Histogram> = BTreeMap::new();
        for &(t, v) in &samples {
            windows.entry(t / window_ns).or_default().record(v);
        }
        let all_rules: Vec<SloRule> = rules.iter().enumerate().map(|(i, r)| rule(i, r)).collect();
        let mut want = Vec::new();
        for (&w, h) in &windows {
            for r in &all_rules {
                let total = h.count();
                if total < r.min_samples {
                    continue;
                }
                let bad = total - h.count_at_most(r.objective_ns);
                let burn = (bad as f64 / total as f64) / (1.0 - r.target);
                if burn >= r.burn_threshold {
                    want.push((r.name.clone(), w, (w + 1) * window_ns, bad, total));
                }
            }
        }
        let got: Vec<_> =
            tl.alerts().iter().map(|a| (a.rule.clone(), a.window, a.end_ns, a.bad, a.total)).collect();
        prop_assert_eq!(&got, &want);

        // Naive trigger replay.
        let horizon = samples.iter().map(|s| s.0).chain(faults.iter().copied()).max().unwrap();
        prop_assert_eq!(tl.horizon_ns(), horizon);
        let post_roll = post_roll_windows * window_ns;
        let mut triggers: Vec<(u64, u8, String)> =
            faults.iter().map(|&t| (t, 0, "fault:f".to_string())).collect();
        triggers.extend(want.iter().map(|a| (a.2, 1, format!("slo:{}", a.0))));
        triggers.sort_by_key(|t| (t.0, t.1));
        let mut want_dumps: Vec<(String, u64, u64, u64)> = Vec::new();
        for (t, _, reason) in triggers {
            if want_dumps.len() == MAX_DUMPS || want_dumps.last().is_some_and(|d| t < d.3) {
                continue;
            }
            want_dumps.push((reason, t, t / window_ns, (t + post_roll).min(horizon)));
        }
        let got_dumps: Vec<_> = tl
            .dumps()
            .iter()
            .map(|d| (d.reason.clone(), d.trigger_ns, d.window, d.taken_ns))
            .collect();
        prop_assert_eq!(&got_dumps, &want_dumps);

        // Dump contents: inside the interval, the newest up to the cap.
        for d in tl.dumps() {
            let (lo, hi) = (d.trigger_ns.saturating_sub(post_roll), d.taken_ns);
            let within = |t: u64| lo <= t && t <= hi;
            prop_assert!(d.records.iter().all(|r| within(r.t_ns())));
            prop_assert!(d.records.windows(2).all(|p| p[0].t_ns() <= p[1].t_ns()));
            let in_interval = flows.iter().filter(|f| within(f.stages[stage::DELIVER])).count()
                + faults.iter().filter(|&&t| within(t)).count()
                + want.iter().filter(|a| within(a.2)).count();
            prop_assert_eq!(d.records.len(), in_interval.min(DUMP_RECORDS));
            let newest = flows
                .iter()
                .map(|f| f.stages[stage::DELIVER])
                .chain(faults.iter().copied())
                .chain(want.iter().map(|a| a.2))
                .filter(|&t| within(t))
                .max();
            prop_assert_eq!(d.records.last().map(FlightRec::t_ns), newest);
            let started: Vec<(u64, u64)> =
                marks.iter().copied().filter(|&(start, _)| within(start)).collect();
            let kept = &started[started.len().saturating_sub(DUMP_MARKS)..];
            let got: Vec<(u64, u64)> = d.marks.iter().map(|m| (m.2, m.3)).collect();
            prop_assert_eq!(&got[..], kept);
        }
    }
}

#[test]
fn json_doc_is_valid_and_gap_free() {
    let mut run = run_with(cfg(100));
    run.hist_at("lat", 10, 50);
    run.counter_at("msgs", 1, 50);
    run.hist_at("lat", 20, 450);
    run.m.port_access("fab.e0.p1", 120, 30, 64);
    run.tl.finalize(&run.m, &[], None);
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
