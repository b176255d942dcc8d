//! Golden trace for the switched fabric: a 64-locality fig-1-style
//! message-rate run over a k=8 fat-tree, pinned to its exact virtual
//! timeline and per-port transmit totals.
//!
//! Two invariants ride on these pins: (1) the topology walk is
//! deterministic — routing, port queueing, and counter accounting must
//! reproduce bit-for-bit across engine changes; (2) telemetry stays pure
//! observation on the switched path exactly as it does on the direct
//! wire (the per-port counter tracks sample without moving time).
//!
//! Re-pin only for an intentional model change:
//! `cargo test --test fabric_topology -- --ignored --nocapture`.

mod common;

use std::cell::Cell;
use std::rc::Rc;

use bytes::Bytes;
use hpx_lci_repro::amt::action::ActionRegistry;
use hpx_lci_repro::parcelport::{build_world, World, WorldConfig};

const LOCALITIES: usize = 64;
const MSGS_PER_LOC: usize = 3;

/// Pinned `(end ns, events executed, fabric xmit_pkts, fabric
/// xmit_wait_ns)` for the workload below, captured from the seed run.
const PIN_END_NS: u64 = 20_620;
const PIN_EXECUTED: u64 = 1_152;
const PIN_XMIT_PKTS: u64 = 960;
const PIN_XMIT_WAIT_NS: u64 = 31_104;

/// Every locality fires `MSGS_PER_LOC` 8-byte parcels at the locality
/// half the machine away — all-cross-pod traffic, the fig-1 message-rate
/// shape scaled out to 64 nodes.
fn run() -> (World, usize) {
    let mut registry = ActionRegistry::new();
    let got = Rc::new(Cell::new(0usize));
    let g = got.clone();
    registry.register("sink", move |sim, _l, _c, _p| {
        g.set(g.get() + 1);
        sim.now() + 150
    });
    let sink = registry.id_of("sink").unwrap();
    let mut cfg = WorldConfig::cluster("lci_psr_cq_pin_i".parse().unwrap(), LOCALITIES, 2);
    cfg.seed = 11;
    let mut world = build_world(&cfg, registry);
    for src in 0..LOCALITIES {
        let dst = (src + LOCALITIES / 2) % LOCALITIES;
        for _ in 0..MSGS_PER_LOC {
            let loc = world.locality(src).clone();
            loc.spawn(
                &mut world.sim,
                0,
                Box::new(move |sim, loc, core| {
                    loc.send_action(sim, core, dst, sink, vec![Bytes::from_static(b"fig1-8b!")])
                }),
            );
        }
    }
    let expect = LOCALITIES * MSGS_PER_LOC;
    let g = got.clone();
    world.run_while(60_000_000_000, move |_| g.get() < expect);
    let n = got.get();
    (world, n)
}

fn port_totals(world: &World) -> (u64, u64) {
    let fab = world.fabric.borrow();
    let topo = fab.topology().expect("cluster config builds a switched fabric");
    let rows = topo.ranked_ports();
    (rows.iter().map(|r| r.1.xmit_pkts).sum(), rows.iter().map(|r| r.1.xmit_wait_ns).sum())
}

#[test]
#[ignore]
fn capture_pins() {
    let (world, delivered) = run();
    let (pkts, wait) = port_totals(&world);
    eprintln!(
        "PIN_END_NS: {}  PIN_EXECUTED: {}  PIN_XMIT_PKTS: {pkts}  PIN_XMIT_WAIT_NS: {wait}  \
         (delivered {delivered})",
        world.sim.now().as_nanos(),
        world.sim.events_executed(),
    );
}

#[test]
fn sixty_four_locality_fat_tree_trace_is_pinned() {
    let (world, delivered) = run();
    assert_eq!(delivered, LOCALITIES * MSGS_PER_LOC, "lost parcels");
    assert_eq!(world.sim.now().as_nanos(), PIN_END_NS, "virtual end time moved");
    assert_eq!(world.sim.events_executed(), PIN_EXECUTED, "event count moved");
    let (pkts, wait) = port_totals(&world);
    assert_eq!(pkts, PIN_XMIT_PKTS, "per-port transmit totals moved");
    assert_eq!(wait, PIN_XMIT_WAIT_NS, "per-port queueing totals moved");
    assert!(wait > 0, "cross-pod incast must show switch-port queueing");
}

#[test]
fn telemetry_is_pure_observation_on_the_switched_path() {
    let tel = hpx_lci_repro::telemetry::enable();
    let (world, delivered) = run();
    hpx_lci_repro::telemetry::disable();
    assert_eq!(delivered, LOCALITIES * MSGS_PER_LOC, "lost parcels under telemetry");
    assert_eq!(world.sim.now().as_nanos(), PIN_END_NS, "telemetry moved the end time");
    assert_eq!(world.sim.events_executed(), PIN_EXECUTED, "telemetry moved the event count");
    let (pkts, wait) = port_totals(&world);
    assert_eq!(pkts, PIN_XMIT_PKTS, "telemetry moved port transmit totals");
    assert_eq!(wait, PIN_XMIT_WAIT_NS, "telemetry moved port queueing totals");
    // The observation itself: per-port counter tracks were sampled,
    // time-ordered per track (what `trace_check --require-counters`
    // later enforces on the bench artifacts), and reach the Chrome export.
    let rec = common::record(&tel, "lci_psr_cq_pin_i");
    let (mut fab_tracks, mut ordered) = (0usize, true);
    for (name, track) in common::data(&rec).metrics.tracks() {
        if name.starts_with("fab.") {
            fab_tracks += 1;
            ordered &= track.iter().map(|(t, _)| t).is_sorted();
        }
    }
    assert!(fab_tracks > 0, "switch-port counter tracks missing");
    assert!(ordered, "switch-port counter tracks must be time-ordered");
    assert!(
        rec.chrome_trace(false).unwrap().contains("\"fab."),
        "port counters missing from the Chrome export"
    );
}

/// Core spans land in the collector as the cores run, so a harness that
/// disables telemetry before it drops the world keeps every span.
#[test]
fn core_spans_survive_disable_before_the_world_drops() {
    let tel = hpx_lci_repro::telemetry::enable();
    let cfg = WorldConfig::two_nodes("lci_psr_cq_pin_i".parse().unwrap(), 4);
    let d = common::send_all(cfg, vec![b"8 bytes!".to_vec(); 4]);
    assert_eq!(d.delivered, 4, "lost parcels");
    hpx_lci_repro::telemetry::disable();
    drop(d);
    let rec = common::record(&tel, "lci_psr_cq_pin_i");
    assert!(rec.span_count().unwrap() > 0, "core spans lost");
    assert!(
        rec.chrome_trace(false).unwrap().contains("\"tid\":\"loc0/core"),
        "loc0 core tracks missing from the Chrome export"
    );
}

/// Golden pins for the federated world on a switched fabric: every lane
/// runs its own fabric replica, so these pins hold the replica protocol
/// (export, inbox merge, acceptance) and each lane's port state to exact
/// results on both switched topologies.
///
/// Re-pin only for an intentional model change:
/// `cargo test --test fabric_topology federated -- --ignored --nocapture`.
mod federated {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    use bytes::Bytes;
    use hpx_lci_repro::amt::action::ActionRegistry;
    use hpx_lci_repro::netsim::Topology;
    use hpx_lci_repro::parcelport::{Engine, EngineWorld, ShardedWorld, WorldConfig};
    use hpx_lci_repro::simcore::shard::RunMode;

    const LOCALITIES: usize = 16;
    const PARCELS_PER_LOC: usize = 20;

    /// `(topology, end ns, nested events, canonical engine digest,
    /// delivered, xmit_pkts summed over every lane's ports)`.
    const PINS: &[(&str, u64, u64, u64, usize, u64)] = &[
        ("fattree", 59_564, 943, 0xb34bacce12caca32, 320, 1_436),
        ("dragonfly", 59_923, 936, 0x4040949e5bc7ccd2, 320, 877),
    ];

    fn topology(label: &str) -> Topology {
        match label {
            "fattree" => Topology::fat_tree_for(LOCALITIES),
            "dragonfly" => Topology::dragonfly_for(LOCALITIES),
            other => panic!("no pinned topology {other}"),
        }
    }

    /// SplitMix64, the test's own generator for peer choice.
    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// 16 localities × 4 cores on `label`, federated on 2 shards run
    /// sequentially; each locality sends `PARCELS_PER_LOC` 8 B parcels,
    /// each to a peer drawn from the others. Returns the world and the
    /// delivered count.
    fn run(label: &str) -> (EngineWorld, usize) {
        let mut cfg = WorldConfig::cluster("lci_psr_cq_pin_i".parse().unwrap(), LOCALITIES, 4);
        cfg.topology = topology(label);
        cfg.seed = 1;
        let mut state = 1u64;
        let peers: Vec<Vec<usize>> = (0..LOCALITIES)
            .map(|rank| {
                (0..PARCELS_PER_LOC)
                    .map(|_| {
                        let hop = splitmix64(&mut state) % (LOCALITIES as u64 - 1);
                        (rank + 1 + hop as usize) % LOCALITIES
                    })
                    .collect()
            })
            .collect();
        let delivered = Arc::new(AtomicUsize::new(0));
        let d = delivered.clone();
        let engine = Engine::Federated { shards: 2, mode: Some(RunMode::Sequential) };
        let mut world = engine.build(
            &cfg,
            move |_rank| {
                let mut registry = ActionRegistry::new();
                let d = d.clone();
                registry.register("sink", move |sim, _l, _c, _p| {
                    d.fetch_add(1, Ordering::Relaxed);
                    sim.now() + 150
                });
                registry.into()
            },
            move |rank, sim, loc| {
                let sink = loc.with_registry(|r| r.id_of("sink").unwrap());
                let dsts = peers[rank].clone();
                loc.spawn(
                    sim,
                    0,
                    Box::new(move |sim, loc, core| {
                        let mut t = sim.now();
                        for &dst in &dsts {
                            t = loc.send_action(
                                sim,
                                core,
                                dst,
                                sink,
                                vec![Bytes::from_static(b"8 bytes!")],
                            );
                        }
                        t
                    }),
                );
            },
        );
        federated(&mut world).engine.set_exec_capture(true);
        world.run(60_000_000_000, |_| true);
        let n = delivered.load(Ordering::Relaxed);
        (world, n)
    }

    fn federated(world: &mut EngineWorld) -> &mut ShardedWorld {
        match world {
            EngineWorld::Federated { world, .. } => world,
            EngineWorld::SingleHeap(_) => unreachable!("built federated"),
        }
    }

    /// `xmit_pkts` over every port of every lane's replica.
    fn lane_xmit_pkts(world: &ShardedWorld) -> u64 {
        (0..LOCALITIES)
            .map(|rank| {
                let fabric = world.node(rank).fabric().borrow();
                let topo = fabric.topology().expect("a switched fabric");
                topo.ranked_ports().iter().map(|r| r.1.xmit_pkts).sum::<u64>()
            })
            .sum()
    }

    fn observe(label: &str) -> (u64, u64, u64, usize, u64) {
        let (mut world, delivered) = run(label);
        let w = federated(&mut world);
        (w.now().as_nanos(), w.events_executed(), w.engine.digest(), delivered, lane_xmit_pkts(w))
    }

    #[test]
    #[ignore]
    fn capture_pins() {
        for label in ["fattree", "dragonfly"] {
            let (end, events, digest, delivered, pkts) = observe(label);
            eprintln!("(\"{label}\", {end}, {events}, {digest:#018x}, {delivered}, {pkts}),");
        }
    }

    #[test]
    fn federated_switched_worlds_are_pinned() {
        assert_eq!(PINS.len(), 2, "both switched topologies are pinned");
        for &(label, end, events, digest, delivered, pkts) in PINS {
            let got = observe(label);
            assert_eq!(got.3, LOCALITIES * PARCELS_PER_LOC, "{label}: lost parcels");
            assert_eq!(
                got,
                (end, events, digest, delivered, pkts),
                "{label}: a pinned result moved"
            );
        }
    }
}
