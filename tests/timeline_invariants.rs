//! Windowed-timeline invariants on real end-to-end workloads: for every
//! instrumented run, the merge of all per-window sub-histograms must
//! reproduce the run-total histogram exactly (bucket-identical — same
//! counts, min/max, and every quantile), every counter's window deltas
//! must sum to its run total, and per-port window accounting must agree
//! with the fabric's own port counters. Checked on the fig-1 message-rate
//! shape, the fig-8 latency shape, and a 64-locality fat-tree run. The
//! exports of four timeline-attached runs (timeline JSON, OpenMetrics
//! text, Chrome trace, run record) and every end-of-run report
//! (critical path, contention, core time, breakdown, the `--json`
//! document) are pinned byte for byte.

mod common;

use std::collections::BTreeMap;

use hpx_lci_repro::telemetry::{self, Histogram, Telemetry, TimelineConfig};

/// Assert the window-partition invariant: windowed histograms and
/// counters recombine exactly to the run totals, for every key.
fn assert_windows_partition(tel: &Telemetry, what: &str) {
    tel.timeline_finalize();
    let merged: BTreeMap<&'static str, Histogram> = tel.with_metrics(|m| {
        m.hist_windows()
            .iter()
            .map(|(k, ws)| {
                let mut merged = Histogram::new();
                for (_, h) in ws.iter() {
                    merged.merge(h);
                }
                (k, merged)
            })
            .collect()
    });
    let totals: BTreeMap<&'static str, Histogram> = tel.with_metrics(|m| m.hists().collect());
    assert!(!merged.is_empty(), "{what}: run recorded no windowed histograms");
    assert_eq!(
        merged.keys().collect::<Vec<_>>(),
        totals.keys().collect::<Vec<_>>(),
        "{what}: windowed histogram keys diverge from the run totals"
    );
    for (k, m) in &merged {
        let t = &totals[k];
        assert_eq!(m, t, "{what}: merged windows of {k:?} are not bucket-identical to the total");
        assert_eq!(
            (m.p50(), m.p90(), m.p99(), m.p999()),
            (t.p50(), t.p90(), t.p99(), t.p999()),
            "{what}: quantiles of {k:?} diverge"
        );
        assert_eq!((m.min(), m.max(), m.count()), (t.min(), t.max(), t.count()));
    }
    let counter_keys: Vec<&'static str> =
        tel.with_metrics(|m| m.counter_windows().iter().map(|(k, _)| k).collect());
    let counter_totals: BTreeMap<&'static str, u64> = tel.with_metrics(|m| m.counters().collect());
    assert_eq!(
        counter_keys,
        counter_totals.keys().copied().collect::<Vec<_>>(),
        "{what}: windowed counter keys diverge from the run totals"
    );
    for (k, total) in &counter_totals {
        let sum = tel
            .with_metrics(|m| m.counter_windows().get(k).map(|ws| ws.iter().map(|(_, &n)| n).sum()))
            .unwrap_or(0);
        assert_eq!(sum, *total, "{what}: counter {k:?} window deltas do not sum to the total");
    }
    // Coverage is gap-free by construction; sanity-check the horizon.
    let (nwin, window_ns, cursor) = tel
        .with_timeline(|tl| (tl.num_windows(), tl.window_ns(), tl.cursor_ns()))
        .expect("timeline enabled");
    assert!(nwin * window_ns > cursor, "{what}: windows do not cover the horizon");
}

#[test]
fn msgrate_windows_partition_exactly() {
    use bench::{run_msgrate, MsgRateParams};
    let tel = telemetry::enable_with(TimelineConfig::default());
    let mut p = MsgRateParams::small("lci_psr_cq_pin_i".parse().unwrap());
    p.total_msgs = 2_000;
    let r = run_msgrate(&p);
    telemetry::disable();
    assert!(r.msg_rate > 0.0);
    assert_windows_partition(&tel, "fig1 msgrate");
}

#[test]
fn latency_windows_partition_exactly() {
    use bench::{run_latency, LatencyParams};
    let tel = telemetry::enable_with(TimelineConfig::default());
    let mut p = LatencyParams::new("lci_psr_cq_pin_i".parse().unwrap(), 8);
    p.window = 16;
    p.steps = 25;
    let r = run_latency(&p);
    telemetry::disable();
    assert!(r.one_way_us > 0.0);
    assert_windows_partition(&tel, "fig8 latency");
}

/// The 64-locality fat-tree workload: 30 parcels from locality 0 to
/// strided peers, on whatever collector is installed. Returns the world
/// so callers can read the fabric's own port counters.
fn fat_tree_64_run() -> hpx_lci_repro::parcelport::World {
    use bytes::Bytes;
    use hpx_lci_repro::amt::action::ActionRegistry;
    use hpx_lci_repro::parcelport::{build_world, WorldConfig};
    use std::cell::Cell;
    use std::rc::Rc;

    let mut registry = ActionRegistry::new();
    let got = Rc::new(Cell::new(0usize));
    let g = got.clone();
    registry.register("sink", move |sim, _l, _c, _p| {
        g.set(g.get() + 1);
        sim.now() + 100
    });
    let sink = registry.id_of("sink").unwrap();
    let cfg = WorldConfig::cluster("lci_psr_cq_pin_i".parse().unwrap(), 64, 2);
    let mut world = build_world(&cfg, registry);
    let n = 30usize;
    for i in 0..n {
        let loc = world.locality(0).clone();
        let dst = 1 + (i * 7) % 63;
        loc.spawn(
            &mut world.sim,
            0,
            Box::new(move |sim, loc, core| {
                loc.send_action(sim, core, dst, sink, vec![Bytes::from_static(b"parcel")])
            }),
        );
    }
    let g = got.clone();
    assert!(world.run_while(10_000_000_000, move |_| g.get() < n), "parcels lost");
    world
}

#[test]
fn fat_tree_64_windows_partition_exactly() {
    let tel = telemetry::enable_with(TimelineConfig::default());
    let world = fat_tree_64_run();
    telemetry::disable();
    assert_windows_partition(&tel, "fat-tree 64");

    // Per-port window accounting must agree with the fabric's own port
    // counters — the same accesses, sliced by window.
    tel.timeline_finalize();
    let fab = world.fabric.borrow();
    let topo = fab.topology().expect("cluster runs on a switched fabric");
    let ranked = topo.ranked_ports();
    assert!(!ranked.is_empty(), "fat-tree 64: no port carried traffic");
    for (name, c) in &ranked {
        let (wait, pkts, bytes) = tel.with_metrics(|m| {
            let ws = m.port_windows().get(name).expect("port has windows");
            (
                ws.iter().map(|(_, p)| p.wait_ns).sum::<u64>(),
                ws.iter().map(|(_, p)| p.pkts).sum::<u64>(),
                ws.iter().map(|(_, p)| p.bytes).sum::<u64>(),
            )
        });
        assert_eq!(wait, c.xmit_wait_ns, "{name}: windowed wait diverges from port counters");
        assert_eq!(pkts, c.xmit_pkts, "{name}: windowed packets diverge from port counters");
        assert_eq!(bytes, c.xmit_bytes, "{name}: windowed bytes diverge from port counters");
    }
}

/// FNV-1a digests of every export a timeline-attached collector writes,
/// in this order:
/// - the timeline JSON document, its OpenMetrics text, the Chrome trace
///   and the run record's JSON;
/// - the `--critpath` report, as text and JSON;
/// - the contention ranking (`--breakdown`), as text and JSON;
/// - the core-time table (`--profile`), as text and JSON;
/// - the latency breakdown (`--breakdown`), as text and JSON;
/// - the assembled `--json` document, with and without `--critpath`.
fn export_digests(tel: &Telemetry, scenario: &str, config: &str) -> [u64; 14] {
    use hpx_lci_repro::telemetry::{RunMeta, RunRecord};
    let json = tel.timeline_json(config).expect("timeline attached");
    let text = tel.timeline_text(config).expect("timeline attached");
    let chrome = tel.chrome_trace_collected();
    let meta = RunMeta { scenario: scenario.into(), config: config.into(), ..Default::default() };
    let rec = RunRecord::capture(tel, meta);
    let cp = rec.critpath.as_ref().expect("instrumented run has a critical path");
    let breakdown = tel.breakdown(config);
    [
        json,
        text,
        chrome,
        rec.to_json(),
        cp.to_text(),
        cp.to_json(),
        rec.contention_text(),
        rec.contention_json(),
        rec.core_time_text(),
        rec.core_time_json(),
        breakdown.to_text(),
        breakdown.to_json(),
        bench::trace::json_report(&rec, &breakdown, true),
        bench::trace::json_report(&rec, &breakdown, false),
    ]
    .map(|doc| common::fnv(doc.as_bytes()))
}

/// The fig-8 shape (8 B, 16 chains x 25 round trips) under a latency SLO
/// that fires; returns the collector and the alert count.
fn fig8_w16(
    config: &str,
    engine: hpx_lci_repro::parcelport::Engine,
) -> (std::rc::Rc<Telemetry>, usize) {
    use bench::{run_latency, LatencyParams};
    use hpx_lci_repro::telemetry::SloRule;
    let tel = telemetry::enable_with(TimelineConfig {
        slos: vec![SloRule {
            name: "lat".into(),
            hist: "parcel.latency_ns".into(),
            objective_ns: 20_000,
            target: 0.99,
            burn_threshold: 1.0,
            min_samples: 4,
        }],
        ..TimelineConfig::default()
    });
    let mut p = LatencyParams::new(config.parse().unwrap(), 8);
    p.window = 16;
    p.steps = 25;
    p.engine = engine;
    let r = run_latency(&p);
    telemetry::disable();
    assert!(r.one_way_us > 0.0);
    tel.timeline_finalize();
    let alerts = tel.timeline_alerts().len();
    (tel, alerts)
}

/// Every export of a timeline-attached run, pinned byte for byte: the
/// windowed series, the SLO alerts they raise, the per-port windows, the
/// Chrome counter tracks derived from them and the record's window
/// digest. A change to where samples are stored must not move any of
/// these.
#[test]
fn timeline_exports_are_pinned() {
    use hpx_lci_repro::parcelport::Engine;
    use hpx_lci_repro::simcore::RunMode;

    let (tel, alerts) = fig8_w16("lci_psr_cq_pin_i", Engine::SingleHeap);
    // One alert per 100 us window, windows 0 to 10.
    assert_eq!(alerts, 11, "fig8_w16: alert count moved");
    assert_eq!(
        export_digests(&tel, "fig8_w16", "lci_psr_cq_pin_i"),
        [
            0xf2a7dff9c0e8d4f8,
            0x04028c782a50d590,
            0x7d13034aaca2d217,
            0x532cf97dd4951858,
            0x8245cedf94831a67,
            0x993b54c032891614,
            0x005be4abbc443742,
            0xbc4f385b441cc655,
            0x13a52badbf904a4a,
            0x21fa125c245fd107,
            0xec29029b2ebf0818,
            0x11b618ab5675e811,
            0xc1768c9cfcaf929e,
            0xfa62b759aab7872e
        ],
        "fig8_w16: export bytes moved"
    );

    // `mpi` aggregates parcels, so the send-queue counter track is fed.
    let (tel, _) = fig8_w16("mpi", Engine::SingleHeap);
    let sendq: usize = tel.with_metrics(|m| {
        m.tracks().filter(|(name, _)| name.ends_with(".sendq")).map(|(_, s)| s.len()).sum()
    });
    assert_eq!(sendq, 800, "fig8_w16_mpi: send-queue samples moved");
    assert_eq!(
        export_digests(&tel, "fig8_w16_mpi", "mpi"),
        [
            0x18f34c317b6bb893,
            0x51a0a384551d3de0,
            0x115282ff4e3ab0ea,
            0x401c085248d994cb,
            0xcf976e2bc96f35f1,
            0xb40c61b986cf6475,
            0x19cbe2894c283419,
            0x03665e1ce47f4720,
            0x2c7edd12abaab4ee,
            0x34a261308ffc04a4,
            0xb7104678c7790d2c,
            0xe0eac33ef5eed38a,
            0x04151738110d99e0,
            0xfabcebcb72319c77
        ],
        "fig8_w16_mpi: export bytes moved"
    );

    for (shards, mode) in [(1, RunMode::Sequential), (2, RunMode::Threaded)] {
        let (tel, _) = fig8_w16("lci_psr_cq_pin_i", Engine::Federated { shards, mode: Some(mode) });
        assert_eq!(
            export_digests(&tel, "fig8_w16_fed", "lci_psr_cq_pin_i"),
            [
                0x710229a6583a0de0,
                0xb6a4e15279ec2348,
                0x7329aee321e656c7,
                0x16b6b89456c79a33,
                0xd3ceb651e90db9c8,
                0xb10db2dffaa3a986,
                0x0ed9768910978975,
                0x42072138f7d64310,
                0xac581ce672d51292,
                0x5e5309b7b44effb5,
                0xec29029b2ebf0818,
                0x11b618ab5675e811,
                0x37209a82a9b2cee1,
                0x4eca67615e06af8f
            ],
            "fig8_w16_fed ({shards} shards, {mode:?}): export bytes moved"
        );
    }

    let tel = telemetry::enable_with(TimelineConfig::default());
    fat_tree_64_run();
    telemetry::disable();
    assert_eq!(
        export_digests(&tel, "fattree64", "lci_psr_cq_pin_i"),
        [
            0xb8809f9fa21ef899,
            0x4a0dc8dc0a6f2e71,
            0xa2e065608a52c0a1,
            0xa158f81165c1d13f,
            0xe2eafe56195404a6,
            0xe0e417ac07c5e70a,
            0xa45eebb014562065,
            0x8e599556daca8227,
            0xe10f6362b1bd6609,
            0x2b395645508bdea7,
            0x364be0c31b6900b2,
            0x35186bbb6a8563f6,
            0x2c472615fa42b423,
            0x9e43ea1c64279a11
        ],
        "fattree64: export bytes moved"
    );
}
