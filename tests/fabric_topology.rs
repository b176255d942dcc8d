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
    let (fab_tracks, ordered) = tel.with_metrics(|m| {
        let mut n = 0usize;
        let mut ordered = true;
        for (name, series) in m.tracks() {
            if name.starts_with("fab.") {
                n += 1;
                ordered &= series.windows(2).all(|w| w[0].0 <= w[1].0);
            }
        }
        (n, ordered)
    });
    assert!(fab_tracks > 0, "switch-port counter tracks missing");
    assert!(ordered, "switch-port counter tracks must be time-ordered");
    assert!(
        tel.chrome_trace_collected().contains("\"fab."),
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
    assert!(tel.span_count() > 0, "core spans lost");
    assert!(
        tel.chrome_trace_collected().contains("\"tid\":\"loc0/core"),
        "loc0 core tracks missing from the Chrome export"
    );
}
