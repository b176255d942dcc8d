//! Golden traces: end-to-end runs pinned to exact virtual timelines.
//!
//! The end times and payload digests below were captured from the
//! pre-rewrite engine (`BinaryHeap` of boxed closures) and must survive
//! any event-engine change bit-for-bit: the typed-event/indexed-heap
//! engine is required to be *observationally identical*, not merely
//! deterministic. If an engine change moves any of these numbers, it
//! changed simulation semantics — that is a bug in the change, not a
//! reason to re-pin (the one sanctioned exception: `events_executed`,
//! which dropped when cancel/reschedule eliminated the old engine's
//! stale no-op events; those counts are pinned to the current engine).

mod common;

use common::send_all;
use hpx_lci_repro::parcelport::WorldConfig;

fn payloads() -> Vec<Vec<u8>> {
    (0..40).map(|i| vec![i as u8; 8 + (i * 37) % 20_000]).collect()
}

fn fnv_u64s(xs: &[u64]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &x in xs {
        for b in x.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

/// `(config, end time ns, events executed, delivery-digest)`.
///
/// End times and digests are the seed engine's; executed counts are the
/// current engine's (one stale `mpi` tick event became a reschedule:
/// 358 -> 357; the LCI configs never had stale events in this workload).
const GOLDEN: &[(&str, u64, u64, u64)] = &[
    ("lci_psr_cq_pin_i", 72_051, 176, 0x7062299104bea1c2),
    ("mpi", 164_593, 357, 0xe1fad10c31e16f9a),
    ("lci_sr_sy_mt_i", 134_234, 286, 0x6059481a96439b4a),
];

#[test]
fn two_node_traces_match_pre_rewrite_engine() {
    for &(name, end_ns, executed, digest) in GOLDEN {
        let mut cfg = WorldConfig::two_nodes(name.parse().unwrap(), 8);
        cfg.seed = 11;
        let d = send_all(cfg, payloads());
        assert_eq!(d.delivered, 40, "{name}: lost deliveries");
        assert_eq!(
            d.world.now().as_nanos(),
            end_ns,
            "{name}: virtual end time moved — engine changed simulation semantics"
        );
        assert_eq!(
            fnv_u64s(&d.checksums),
            digest,
            "{name}: delivery order/content moved — engine changed simulation semantics"
        );
        assert_eq!(
            d.world.events_executed(),
            executed,
            "{name}: event count moved (legitimate only if stale-event elimination changed)"
        );
    }
}

/// Telemetry must be *pure observation*: with a collector enabled, every
/// pinned timeline above has to come out bit-for-bit identical — same end
/// time, same delivery digest, same event count — while the collector
/// records a complete flow per parcel. (With telemetry disabled, the
/// hooks compile down to a thread-local `None` check, covered by
/// `two_node_traces_match_pre_rewrite_engine` running first-class against
/// the same pins.)
#[test]
fn telemetry_enabled_is_pure_observation() {
    for &(name, end_ns, executed, digest) in GOLDEN {
        let tel = hpx_lci_repro::telemetry::enable();
        let mut cfg = WorldConfig::two_nodes(name.parse().unwrap(), 8);
        cfg.seed = 11;
        let d = send_all(cfg, payloads());
        hpx_lci_repro::telemetry::disable();
        assert_eq!(d.delivered, 40, "{name}: lost deliveries under telemetry");
        assert_eq!(
            d.world.now().as_nanos(),
            end_ns,
            "{name}: enabling telemetry moved the virtual end time"
        );
        assert_eq!(
            fnv_u64s(&d.checksums),
            digest,
            "{name}: enabling telemetry changed delivery order/content"
        );
        assert_eq!(
            d.world.events_executed(),
            executed,
            "{name}: enabling telemetry changed the event count"
        );
        // And the observation itself must be complete: one flow per
        // parcel, every one delivered, with the end-to-end stage chain.
        assert_eq!(tel.flow_count(), 40, "{name}: expected one flow per parcel");
        let b = tel.breakdown(name);
        assert_eq!(b.delivered, 40, "{name}: flows lost before delivery");
        assert!(b.total.hist.count() > 0, "{name}: no end-to-end latencies recorded");
        // Causal-edge recording rode along on the exact pinned timeline
        // above, so provenance capture is itself pure observation. The
        // log must be complete: one node per executed event, and the
        // critical path it yields must partition [0, end] exactly.
        let log = tel.causal_log();
        assert_eq!(
            log.node_count() as u64,
            executed,
            "{name}: causal log must record every executed event"
        );
        let cp = tel.critpath(name).expect("non-empty run has a critical path");
        assert!(!cp.truncated, "{name}: causal log truncated");
        assert!(cp.total_ns <= end_ns, "{name}: critical path ends after the pinned end time");
        let seg_sum: u64 = cp.segments.iter().map(|s| s.len_ns()).sum();
        assert_eq!(seg_sum, cp.total_ns, "{name}: on-path durations must sum to the makespan");
        // Every delivered parcel got a causally-attributed delivery node.
        let paths = tel.parcel_paths();
        assert_eq!(paths.len(), 40, "{name}: expected one causal path per parcel");
        for pp in &paths {
            let sum: u64 = pp.segments.iter().map(|s| s.len_ns()).sum();
            assert_eq!(sum, pp.total_ns, "{name}: parcel {} path identity", pp.flow);
        }
    }
}

/// The windowed timeline rides on the same hooks as plain telemetry, so
/// enabling it (with SLO rules armed) must also be pure observation:
/// every pinned timeline comes out bit-for-bit identical, while the
/// window partition reproduces the run-total histograms exactly.
#[test]
fn timeline_enabled_reproduces_golden_pins() {
    use hpx_lci_repro::telemetry::{Histogram, SloRule, TimelineConfig};
    for &(name, end_ns, executed, digest) in GOLDEN {
        let cfg_tl = TimelineConfig {
            slos: vec![SloRule {
                name: "lat".into(),
                hist: "parcel.latency_ns".into(),
                objective_ns: 50_000,
                target: 0.99,
                burn_threshold: 1.0,
                min_samples: 4,
            }],
            ..TimelineConfig::default()
        };
        let tel = hpx_lci_repro::telemetry::enable_with(cfg_tl);
        let mut cfg = WorldConfig::two_nodes(name.parse().unwrap(), 8);
        cfg.seed = 11;
        let d = send_all(cfg, payloads());
        hpx_lci_repro::telemetry::disable();
        assert_eq!(d.delivered, 40, "{name}: lost deliveries under timeline");
        assert_eq!(
            d.world.now().as_nanos(),
            end_ns,
            "{name}: enabling the timeline moved the virtual end time"
        );
        assert_eq!(
            fnv_u64s(&d.checksums),
            digest,
            "{name}: enabling the timeline changed delivery order/content"
        );
        assert_eq!(
            d.world.events_executed(),
            executed,
            "{name}: enabling the timeline changed the event count"
        );
        // The windowed series must partition the run exactly: merging
        // every window of the parcel-latency histogram reproduces the
        // run-total histogram, one sample per delivered parcel.
        tel.timeline_finalize();
        let merged = tel.with_metrics(|m| {
            let windows = m.hist_windows().get("parcel.latency_ns").expect("deliveries recorded");
            let mut merged = Histogram::new();
            for (_, h) in windows.iter() {
                merged.merge(h);
            }
            merged
        });
        let total = tel.with_metrics(|m| m.hist("parcel.latency_ns")).expect("run total recorded");
        assert_eq!(merged, total, "{name}: windows do not merge to the run total");
        assert_eq!(merged.count(), 40, "{name}: expected one latency sample per parcel");
    }
}

/// A deterministic fault scenario must produce a deterministic alert
/// window and flight-recorder dump: same seed, same faults, same
/// timeline — pinned like the timelines above. If these move, windowed
/// observation (or fault injection) changed behavior.
#[test]
fn fault_scenario_pins_alert_window_and_flight_dump() {
    use hpx_lci_repro::netsim::FaultConfig;
    use hpx_lci_repro::telemetry::{SloRule, TimelineConfig};
    // 10 µs windows over a ~70 µs run: the fault-inflated latency tail is
    // visible per window while the run-mean stays low.
    let cfg_tl = TimelineConfig {
        window_ns: 10_000,
        slos: vec![SloRule {
            name: "lat".into(),
            hist: "parcel.latency_ns".into(),
            objective_ns: 25_000,
            target: 0.99,
            burn_threshold: 1.0,
            min_samples: 2,
        }],
        ..TimelineConfig::default()
    };
    let tel = hpx_lci_repro::telemetry::enable_with(cfg_tl);
    let mut cfg = WorldConfig::two_nodes("lci_psr_cq_pin_i".parse().unwrap(), 8);
    cfg.seed = 11;
    cfg.faults = Some(FaultConfig { drop_prob: 0.2, ..FaultConfig::default() });
    let d = send_all(cfg, payloads());
    hpx_lci_repro::telemetry::disable();
    assert_eq!(d.delivered, 40, "drops must not lose parcels");
    assert!(d.single_heap().sim.stats.get("net.retransmitted") > 0, "20% loss must retransmit");
    tel.timeline_finalize();

    let alerts = tel.timeline_alerts();
    let dumps = tel.timeline_dumps();
    eprintln!(
        "fault pins: end {} alerts {:?} dumps {:?}",
        d.world.now().as_nanos(),
        alerts.iter().map(|a| (a.rule.clone(), a.window, a.bad, a.total)).collect::<Vec<_>>(),
        dumps.iter().map(|f| (f.reason.clone(), f.window, f.records.len())).collect::<Vec<_>>(),
    );
    // The retransmit fault fires before any SLO window settles, so the
    // recorder arms on the fault; the dump and the alert land in pinned
    // windows with a pinned record population.
    let first_dump = dumps.first().expect("fault must arm the flight recorder");
    assert_eq!(first_dump.reason, "fault:net.retransmit", "dump must name the fault");
    let first_alert = alerts.first().expect("late retransmitted parcels must breach the SLO");
    assert_eq!(first_alert.rule, "lat");
    // Pinned values, captured from this scenario's deterministic run.
    assert_eq!(first_alert.window, 6, "alert window moved");
    assert_eq!((first_alert.bad, first_alert.total), (7, 7), "alert population moved");
    assert_eq!(first_dump.window, 0, "dump trigger window moved");
    assert_eq!(first_dump.records.len(), 402, "dump record population moved");
    // The dump must carry the retransmitted parcels themselves: flow
    // records delivered after the triggering fault instant.
    use hpx_lci_repro::telemetry::timeline::FlightRec;
    let late_flows = first_dump
        .records
        .iter()
        .filter(|r| matches!(r, FlightRec::Flow { deliver_ns, .. } if *deliver_ns > first_dump.trigger_ns))
        .count();
    assert!(late_flows > 0, "dump must include parcels delivered after the fault");
}

mod sharded {
    //! Sharded-engine golden pins: the parallel engine's canonical
    //! timeline for a fixed workload, frozen at capture time from the
    //! 1-shard sequential run. Every placement (1/2/4 shards) and both
    //! executors (sequential, threaded) must reproduce it bit-for-bit.

    use std::any::Any;

    use hpx_lci_repro::simcore::{LaneCtx, LaneId, RunMode, ShardActor, ShardedSim, SimTime};

    const LOOKAHEAD_NS: u64 = 250;
    const LANES: usize = 8;
    const SEED: u64 = 0x5EED_601D_7274_ACE5;

    /// Pinned `(end time ns, events executed, canonical digest)` for the
    /// workload below, captured from the 1-shard sequential run.
    const PIN_END_NS: u64 = 1_141;
    const PIN_EXECUTED: u64 = 488;
    const PIN_DIGEST: u64 = 0x653f_7b05_2802_134a;

    /// Self-driving actor: each event advances a private xorshift RNG and
    /// either schedules locally (ties at `now` included), sends cross-lane
    /// at `now + lookahead + jitter`, or cancels/reschedules a pending
    /// handle — the stream depends only on the seed and the actor's own
    /// history, never on placement.
    struct Pinned {
        rng: u64,
        budget: u32,
        pending: Vec<hpx_lci_repro::simcore::ShardEventId>,
    }

    impl Pinned {
        fn next(&mut self) -> u64 {
            self.rng ^= self.rng << 13;
            self.rng ^= self.rng >> 7;
            self.rng ^= self.rng << 17;
            self.rng
        }
    }

    impl ShardActor for Pinned {
        fn on_event(&mut self, ctx: &mut LaneCtx<'_>, _arg: u64) {
            for _ in 0..2 {
                if self.budget == 0 {
                    break;
                }
                let r = self.next();
                match r % 4 {
                    0 | 1 => {
                        self.budget -= 1;
                        let id = ctx.schedule_in(r >> 8 & 63, r);
                        self.pending.push(id);
                    }
                    2 => {
                        self.budget -= 1;
                        let peer = LaneId((r as u32 >> 16) % LANES as u32);
                        let at = ctx.now() + ctx.lookahead() + (r >> 8 & 31);
                        ctx.send(peer, at, r);
                    }
                    _ => {
                        if !self.pending.is_empty() {
                            let i = (r as usize >> 16) % self.pending.len();
                            if r & 1 == 0 {
                                ctx.cancel(self.pending.swap_remove(i));
                            } else {
                                let at = ctx.now() + (r >> 8 & 127);
                                ctx.reschedule(self.pending[i], at);
                            }
                        }
                    }
                }
            }
        }

        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    fn run(shards: usize, threaded: bool) -> (u64, u64, u64) {
        let mut sim = ShardedSim::new(shards, LOOKAHEAD_NS);
        sim.set_exec_capture(true);
        for lane in 0..LANES {
            let w = Pinned {
                rng: SEED ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(lane as u64 + 1),
                budget: 60,
                pending: Vec::new(),
            };
            sim.add_actor(lane % shards, Box::new(w));
        }
        for lane in 0..LANES as u32 {
            sim.seed(LaneId(lane), SimTime::from_nanos(lane as u64 % 3), lane as u64);
        }
        let report = sim.run(Some(if threaded { RunMode::Threaded } else { RunMode::Sequential }));
        assert_eq!(sim.events_pending(), 0, "run must drain");
        (report.end.as_nanos(), report.executed, sim.digest())
    }

    #[test]
    #[ignore]
    fn capture_pins() {
        let (end, executed, digest) = run(1, false);
        eprintln!("PIN_END_NS: {end}  PIN_EXECUTED: {executed}  PIN_DIGEST: {digest:#018x}");
    }

    #[test]
    fn every_placement_matches_the_pinned_timeline() {
        for &(shards, threaded) in &[(1, false), (2, false), (2, true), (4, false), (4, true)] {
            let (end, executed, digest) = run(shards, threaded);
            let what =
                format!("{shards} shard(s) {}", if threaded { "threaded" } else { "sequential" });
            assert_eq!(end, PIN_END_NS, "{what}: virtual end time moved");
            assert_eq!(executed, PIN_EXECUTED, "{what}: event count moved");
            assert_eq!(digest, PIN_DIGEST, "{what}: canonical digest moved");
        }
    }
}

mod sharded_world {
    //! Federated-world golden pins: the `World`/`Locality` layer running
    //! one engine lane per locality on the sharded conservative engine.
    //! Engine placement is pure mechanics — every shard count and both
    //! executors must reproduce the *single-heap* world's pinned
    //! timeline bit-for-bit: same virtual end time, same delivery
    //! digest, same per-lane event total, same canonical engine log.

    use super::{common, fnv_u64s, payloads, GOLDEN};
    use common::{send, Delivery};
    use hpx_lci_repro::parcelport::{Engine, WorldConfig};
    use hpx_lci_repro::simcore::shard::RunMode;

    const fn federated(shards: usize, mode: RunMode) -> Engine {
        Engine::Federated { shards, mode: Some(mode) }
    }

    const PLACEMENTS: &[Engine] = &[
        federated(1, RunMode::Sequential),
        federated(1, RunMode::Threaded),
        federated(2, RunMode::Sequential),
        federated(2, RunMode::Threaded),
    ];

    /// The two-node test workload at seed 11 on `engine`.
    fn send_two_nodes(name: &str, engine: Engine) -> Delivery {
        let mut cfg = WorldConfig::two_nodes(name.parse().unwrap(), 8);
        cfg.seed = 11;
        send(cfg, payloads(), 1, engine)
    }

    /// `(config, quiescence end ns, nested events executed, canonical
    /// engine digest)` — captured from the 1-shard sequential federated
    /// run. The end time and event count exceed the single-heap GOLDEN
    /// values *by design*: the single-heap harness stops the instant the
    /// 40th delivery lands, while the federated engine runs its lanes to
    /// quiescence (trailing sink completions and progress-poll
    /// wind-down). The delivery digest, by contrast, must equal GOLDEN
    /// exactly — what is delivered, in what order, with what content is
    /// engine-independent.
    const SHARDED_PINS: &[(&str, u64, u64, u64)] = &[
        ("lci_psr_cq_pin_i", 78_001, 185, 0xc08cfcaf068fb099),
        ("mpi", 369_326, 988, 0x32bdcc3f2e9b5e29),
        ("lci_sr_sy_mt_i", 161_000, 316, 0x9c6df252f031af0f),
    ];

    /// Single-heap delivery digest for `name` (from the GOLDEN table).
    fn golden_delivery_digest(name: &str) -> u64 {
        GOLDEN.iter().find(|g| g.0 == name).expect("config pinned in GOLDEN").3
    }

    #[test]
    #[ignore]
    fn capture_pins() {
        for &(name, ..) in SHARDED_PINS {
            let d = send_two_nodes(name, federated(1, RunMode::Sequential));
            eprintln!(
                "(\"{name}\", {}, {}, {:#018x}),",
                d.world.now().as_nanos(),
                d.world.events_executed(),
                d.federated().engine.digest(),
            );
        }
    }

    /// Every pinned two-node timeline survives federation: the delivery
    /// digest equals the single-heap GOLDEN constant, and the quiescence
    /// end time, nested event total, and canonical engine log are
    /// identical at every shard count under both executors.
    #[test]
    fn federated_world_matches_single_heap_pins() {
        for &(name, end_ns, executed, engine_digest) in SHARDED_PINS {
            for &engine in PLACEMENTS {
                let d = send_two_nodes(name, engine);
                let what = format!("{name} {engine:?}");
                assert_eq!(d.delivered, 40, "{what}: lost deliveries");
                assert_eq!(
                    fnv_u64s(&d.checksums),
                    golden_delivery_digest(name),
                    "{what}: delivery order/content diverged from the single-heap world"
                );
                assert_eq!(
                    d.world.now().as_nanos(),
                    end_ns,
                    "{what}: quiescence end time moved with placement"
                );
                assert_eq!(
                    d.world.events_executed(),
                    executed,
                    "{what}: nested event total moved with placement"
                );
                assert_eq!(
                    d.federated().engine.digest(),
                    engine_digest,
                    "{what}: canonical engine digest moved with placement"
                );
            }
        }
    }

    /// Scenario-level pins on the paper workloads (reduced sizes):
    /// `(comm-done ns, nested events)` for the fig1 message-rate run,
    /// finish-time ns for the fig8 window-8 latency run, and `(total ns,
    /// nested events)` for the 4-locality octotiger run — identical at
    /// every shard count under both executors, and identical to the
    /// legacy single-heap runner computed in the same process.
    #[test]
    fn scenario_results_are_placement_invariant() {
        use hpx_lci_repro::octotiger_mini::{run_octotiger, OctoParams};

        // fig1 message rate, reduced.
        let mut mp = bench::MsgRateParams::small("lci_psr_cq_pin_i".parse().unwrap());
        mp.total_msgs = 2_000;
        mp.batch = 50;
        mp.cores = 8;
        let legacy = bench::run_msgrate(&mp);
        assert!(legacy.completed);
        for &engine in PLACEMENTS {
            mp.engine = engine;
            let r = bench::run_msgrate(&mp);
            assert!(r.completed, "fig1 {engine:?}");
            assert_eq!(r.comm_done, legacy.comm_done, "fig1 {engine:?}");
            assert_eq!(r.injection_done, legacy.injection_done);
        }

        // fig8 latency, window 8, reduced.
        let mut lp = bench::LatencyParams::new("lci_psr_cq_pin_i".parse().unwrap(), 8);
        lp.window = 8;
        lp.steps = 50;
        lp.cores = 8;
        let legacy = bench::run_latency(&lp);
        assert!(legacy.completed);
        for &engine in PLACEMENTS {
            lp.engine = engine;
            let r = bench::run_latency(&lp);
            assert!(r.completed, "fig8 {engine:?}");
            assert_eq!(r.total, legacy.total, "fig8 w8 {engine:?}");
        }

        // Octotiger on 4 localities — here shard counts above 2 engage.
        let mut op = OctoParams::expanse("lci_psr_cq_pin_i".parse().unwrap(), 4);
        op.level = 4;
        op.steps = 2;
        op.cores = 6;
        let legacy = run_octotiger(&op);
        assert!(legacy.completed && legacy.mass_ok);
        // 8 shards exercises the clamp (4 localities -> 4 lanes).
        for engine in [
            federated(1, RunMode::Sequential),
            federated(2, RunMode::Threaded),
            federated(4, RunMode::Sequential),
            federated(4, RunMode::Threaded),
            federated(8, RunMode::Threaded),
        ] {
            op.engine = engine;
            let r = run_octotiger(&op);
            assert!(r.completed && r.mass_ok, "octo {engine:?}");
            assert_eq!(r.total, legacy.total, "octo L4 {engine:?}");
        }
    }

    /// Telemetry purity under threaded execution: with a collector on,
    /// the threaded 2-shard run reproduces the pinned timeline
    /// bit-for-bit while the merged per-lane collectors carry the
    /// complete observation — one flow per parcel, all delivered.
    #[test]
    fn telemetry_stays_pure_under_threaded_sharding() {
        for &(name, end_ns, executed, _) in SHARDED_PINS {
            let tel = hpx_lci_repro::telemetry::enable();
            let d = send_two_nodes(name, federated(2, RunMode::Threaded));
            hpx_lci_repro::telemetry::disable();
            assert_eq!(d.delivered, 40, "{name}: lost deliveries under telemetry");
            assert_eq!(
                d.world.now().as_nanos(),
                end_ns,
                "{name}: telemetry moved the threaded federated end time"
            );
            assert_eq!(
                fnv_u64s(&d.checksums),
                golden_delivery_digest(name),
                "{name}: telemetry changed threaded federated delivery order"
            );
            assert_eq!(
                d.world.events_executed(),
                executed,
                "{name}: telemetry changed the threaded federated event count"
            );
            // The merged observation must be complete: one flow per
            // parcel with the end-to-end stage chain, exactly as the
            // single-heap collector records it.
            assert_eq!(tel.flow_count(), 40, "{name}: expected one flow per parcel");
            let b = tel.breakdown(name);
            assert_eq!(b.delivered, 40, "{name}: flows lost before delivery");
            assert!(b.total.hist.count() > 0, "{name}: no end-to-end latencies recorded");
        }
    }

    /// The merged telemetry of a federated run equals the single-heap
    /// collector's on the same workload: same flow population, same
    /// delivered count, same parcel-latency histogram — lane merge is
    /// exact, not approximate.
    #[test]
    fn merged_lane_telemetry_equals_single_heap_collector() {
        let name = "lci_psr_cq_pin_i";
        let run = |engine| {
            let tel = hpx_lci_repro::telemetry::enable();
            drop(send_two_nodes(name, engine));
            hpx_lci_repro::telemetry::disable();
            tel
        };
        let legacy = run(Engine::SingleHeap);
        let lh = legacy
            .with_metrics(|m| m.hist("amt.msg_bytes"))
            .expect("legacy run records message sizes");
        // The federated Chrome export (core spans, flows, counters) is
        // placement-invariant. It is not compared with the single-heap
        // export: the federated run continues to quiescence, so its
        // trailing spans differ.
        let mut first_chrome: Option<String> = None;
        for &engine in PLACEMENTS {
            let tel = run(engine);
            let what = format!("{engine:?}");
            assert_eq!(tel.flow_count(), legacy.flow_count(), "{what}: flow population moved");
            let sh = tel
                .with_metrics(|m| m.hist("amt.msg_bytes"))
                .expect("sharded run records message sizes");
            assert_eq!(sh, lh, "{what}: merged message-size histogram diverged");
            let b = tel.breakdown(name);
            assert_eq!(b.delivered, legacy.breakdown(name).delivered, "{what}: delivered moved");
            let chrome = tel.chrome_trace_collected();
            match &first_chrome {
                None => {
                    let per_loc =
                        tel.with_core_spans(|s| s.iter().map(Vec::len).collect::<Vec<_>>());
                    assert!(
                        per_loc.len() == 2 && per_loc.iter().all(|&n| n > 0),
                        "{what}: both localities must record core spans, got {per_loc:?}"
                    );
                    first_chrome = Some(chrome);
                }
                Some(first) => {
                    assert!(chrome == *first, "{what}: merged Chrome export moved with placement")
                }
            }
        }
    }
}

/// Run-record capture must be *pure observation* on top of the already
/// pure telemetry hooks: capturing a record from a finished run cannot
/// perturb anything another exporter reads from the same collector
/// (byte-identical Chrome traces before/after capture), the pinned
/// golden timeline itself stays bit-for-bit unchanged, and the record
/// document is deterministic down to its serialized bytes — pinned by
/// digest so any schema or capture change is a conscious re-pin.
#[test]
fn run_record_capture_is_pure_and_pinned() {
    use hpx_lci_repro::telemetry::record::{RunMeta, RunRecord};

    // The fig1 message-rate scenario with every workload parameter fixed
    // explicitly (never via BENCH_SCALE — the pin must not depend on the
    // environment).
    let meta = || RunMeta {
        scenario: "fig1_msgrate_8b".into(),
        config: "lci_psr_cq_pin_i".into(),
        params: vec![("total_msgs".into(), "1000".into())],
        knobs: vec![],
        // Legacy single-engine run: both engine fields stay None so the
        // serialized record is byte-identical to pre-sharding baselines.
        ..RunMeta::default()
    };
    let run = || {
        let tel = hpx_lci_repro::telemetry::enable();
        let mut p = bench::MsgRateParams::small("lci_psr_cq_pin_i".parse().unwrap());
        p.total_msgs = 1_000;
        let r = bench::run_msgrate(&p);
        hpx_lci_repro::telemetry::disable();
        (r, tel)
    };

    let (r1, tel1) = run();
    assert!(r1.msg_rate > 0.0);
    let trace_before = tel1.chrome_trace_collected();
    // Pinned Chrome export of the same run: core spans, flows and counter
    // tracks, byte for byte.
    assert_eq!(
        common::fnv(trace_before.as_bytes()),
        0xb81111d6a611427f,
        "fig1 Chrome trace bytes moved"
    );
    let rec1 = RunRecord::capture(&tel1, meta());
    let trace_after = tel1.chrome_trace_collected();
    assert_eq!(
        trace_before, trace_after,
        "capturing a run record changed the Chrome trace of the same collector"
    );

    // Same binary, same inputs: the record reproduces byte-for-byte.
    let (_, tel2) = run();
    let rec2 = RunRecord::capture(&tel2, meta());
    let json = rec1.to_json();
    assert_eq!(json, rec2.to_json(), "identical runs must yield byte-identical records");

    // The partition identity every diff inherits.
    let cp = rec1.critpath.as_ref().expect("instrumented run has a critical path");
    let comp_sum: u64 = cp.components.iter().map(|c| c.on_path_ns).sum();
    assert_eq!(comp_sum, cp.total_ns, "component table must partition the makespan");
    assert_eq!(rec1.end_to_end_ns, cp.total_ns);

    // Pinned record digest for the fig1 scenario. If this moves, either
    // the simulation or the record schema changed — both are conscious
    // decisions, and baselines under results/baselines/ must be
    // re-recorded in the same commit.
    assert_eq!(
        common::fnv(json.as_bytes()),
        0x44ea4b564d1d1442,
        "fig1 run-record bytes moved — re-pin and re-record results/baselines/"
    );
}

#[test]
fn octotiger_trace_matches_pre_rewrite_engine() {
    use hpx_lci_repro::octotiger_mini::{run_octotiger, OctoParams};
    let mut p = OctoParams::expanse("lci_psr_cq_pin_i".parse().unwrap(), 4);
    p.level = 3;
    p.steps = 2;
    p.cores = 6;
    let r = run_octotiger(&p);
    assert!(r.completed);
    assert_eq!(
        r.total.as_nanos(),
        2_374_261,
        "octotiger virtual runtime moved — engine changed simulation semantics"
    );
}

/// The LCI packet pool (4 096 registered packets) drained by the
/// message-rate shape: 8 000 eight-byte parcels, 100 per injector task,
/// on 32 cores. Sends that find the pool empty return `Retry` and wait in
/// the parcelport's retry queue, so these pins cover the retry path that
/// the smaller workloads above never reach.
mod pool_exhaustion {
    use super::{common, fnv_u64s};
    use common::{send, Delivery};
    use hpx_lci_repro::parcelport::{Engine, WorldConfig};

    const PARCELS: usize = 8_000;
    const BATCH: usize = 100;
    const CORES: usize = 32;

    /// `(end time ns, events executed, delivery digest,
    /// lci_pp.send_retry, orphan synchronizers)` of one run.
    type Observed = (u64, u64, u64, u64, u64);

    /// `(config, LCI devices, mixed payloads, observed)`. With two devices each has its own pool, and the
    /// same traffic never finds one empty. In the mixed row every odd
    /// parcel is zero-padded to 8 192 B, one eager part after its header,
    /// so sync-mode part sends meet the empty pool.
    ///
    /// The last field, `lci_pp.sync_created - lci.sync_signal`, pins the
    /// orphan-synchronizer bug: a part send that returns `Retry` keeps the
    /// synchronizer `comp_for` already queued. Fixing the bug moves the
    /// mixed row's 14 to 0 and moves the rest of that row.
    const PINS: &[(&str, usize, bool, Observed)] = &[
        ("lci_psr_cq_pin_i", 1, false, (13_006_300, 18_426, 0x3a808e478fc6e1f7, 1_939, 0)),
        ("lci_sr_cq_mt_i", 1, false, (23_020_460, 31_609, 0xad34e824485c4513, 2_083, 0)),
        ("lci_psr_sy_mt_i", 1, false, (24_091_880, 35_438, 0xed98a6c9ac75ad53, 2_084, 0)),
        ("lci_psr_cq_pin_i", 2, false, (12_268_980, 17_687, 0x96e49fb1b6fd176f, 0, 0)),
        ("lci_psr_sy_mt_i", 1, true, (34_771_170, 49_815, 0x4f371ea5ad17ca54, 4_953, 14)),
    ];

    fn run(name: &str, devices: usize, mixed: bool) -> Delivery {
        let mut cfg = WorldConfig::two_nodes(name.parse().unwrap(), CORES);
        cfg.seed = 11;
        cfg.lci_devices = devices;
        let payload = |i: u64| {
            let mut p = i.to_le_bytes().to_vec();
            if mixed && i % 2 == 1 {
                p.resize(8_192, 0);
            }
            p
        };
        let payloads = (0..PARCELS as u64).map(payload).collect();
        send(cfg, payloads, BATCH, Engine::SingleHeap)
    }

    fn observed(d: &Delivery) -> Observed {
        let stats = &d.single_heap().sim.stats;
        (
            d.world.now().as_nanos(),
            d.world.events_executed(),
            fnv_u64s(&d.checksums),
            stats.get("lci_pp.send_retry"),
            stats.get("lci_pp.sync_created") - stats.get("lci.sync_signal"),
        )
    }

    #[test]
    #[ignore]
    fn capture_pins() {
        for &(name, devices, mixed, ..) in PINS {
            let (end, events, digest, retries, orphans) = observed(&run(name, devices, mixed));
            eprintln!(
                "(\"{name}\", {devices}, {mixed}, ({end}, {events}, {digest:#018x}, {retries}, \
                 {orphans})),"
            );
        }
    }

    /// Every pinned run delivers all parcels on the exact pinned timeline;
    /// the single-device runs do so through the retry path.
    #[test]
    fn pool_exhaustion_matches_pinned_timeline() {
        for &(name, devices, mixed, (end_ns, executed, digest, retries, orphans)) in PINS {
            let d = run(name, devices, mixed);
            let what = format!("{name} devices={devices} mixed={mixed}");
            assert_eq!(d.delivered, PARCELS, "{what}: lost deliveries");
            let (end, events, seen_digest, retried, orphaned) = observed(&d);
            assert_eq!(end, end_ns, "{what}: virtual end time moved");
            assert_eq!(events, executed, "{what}: event count moved");
            assert_eq!(seen_digest, digest, "{what}: delivery order/content moved");
            assert_eq!(retried, retries, "{what}: retry count moved");
            assert_eq!(orphaned, orphans, "{what}: orphan synchronizers moved");
            if devices == 1 {
                assert!(retried > 0, "{what}: the workload no longer drains the pool");
            }
        }
    }
}
