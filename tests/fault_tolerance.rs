//! Fault injection: the parcelports' matching and assembly logic must
//! tolerate the reorderings our fabric can legally produce, and the
//! test-only fault hooks must be observable end to end.

mod common;

use common::{reference_checksums, send_all};
use hpx_lci_repro::netsim::FaultConfig;
use hpx_lci_repro::parcelport::WorldConfig;

#[test]
fn reordered_channel_still_delivers_mpi() {
    // Adjacent-packet swaps exercise the unexpected-message path: a
    // follow-up chunk can now arrive before its header.
    let payloads: Vec<Vec<u8>> = (0..20).map(|i| vec![i as u8; 100 + i * 731]).collect();
    let reference = reference_checksums(&payloads);
    let mut cfg = WorldConfig::two_nodes("mpi_i".parse().unwrap(), 6);
    cfg.faults = Some(FaultConfig { reorder_prob: 0.5, ..FaultConfig::default() });
    let d = send_all(cfg, payloads);
    assert_eq!(d.delivered, 20, "messages lost under reordering");
    let mut got = d.checksums;
    let mut want = reference;
    got.sort_unstable();
    want.sort_unstable();
    assert_eq!(got, want, "payloads corrupted under reordering");
}

#[test]
fn reordered_channel_still_delivers_lci_sendrecv() {
    // The LCI parcelport's distinct-tag-per-message design exists
    // precisely because LCI does not guarantee in-order delivery (§3.2.1)
    // — so reordering must be harmless.
    let payloads: Vec<Vec<u8>> = (0..20).map(|i| vec![i as u8; 50 + i * 997]).collect();
    let reference = reference_checksums(&payloads);
    for name in ["lci_sr_cq_pin_i", "lci_psr_cq_pin_i"] {
        let mut cfg = WorldConfig::two_nodes(name.parse().unwrap(), 6);
        cfg.faults = Some(FaultConfig { reorder_prob: 0.5, ..FaultConfig::default() });
        let d = send_all(cfg, payloads.clone());
        assert_eq!(d.delivered, 20, "{name}: messages lost under reordering");
        let mut got = d.checksums;
        let mut want = reference.clone();
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want, "{name}: payloads corrupted under reordering");
    }
}

/// Build a fat-tree cluster world with a counting sink and return
/// `(world, hit-counter, sink-spawner)` plumbing for the topology tests.
mod cluster {
    use bytes::Bytes;
    use hpx_lci_repro::amt::action::{ActionId, ActionRegistry};
    use hpx_lci_repro::parcelport::{build_world, World, WorldConfig};
    use std::cell::Cell;
    use std::rc::Rc;

    pub fn build(cfg: &WorldConfig) -> (World, Rc<Cell<usize>>, ActionId) {
        let mut registry = ActionRegistry::new();
        let got = Rc::new(Cell::new(0usize));
        let g = got.clone();
        registry.register("sink", move |sim, _l, _c, _p| {
            g.set(g.get() + 1);
            sim.now() + 100
        });
        let sink = registry.id_of("sink").unwrap();
        let world = build_world(cfg, registry);
        (world, got, sink)
    }

    pub fn blast(world: &mut World, src: usize, dst: usize, sink: ActionId, n: usize) {
        for _ in 0..n {
            let loc = world.locality(src).clone();
            loc.spawn(
                &mut world.sim,
                0,
                Box::new(move |sim, loc, core| {
                    loc.send_action(sim, core, dst, sink, vec![Bytes::from_static(b"parcel")])
                }),
            );
        }
    }
}

#[test]
fn fat_tree_link_failure_reroutes_and_delivers() {
    // Kill a link on the hot route mid-run: the static tables must
    // recompute, every parcel posted after the failure must still arrive
    // (over the surviving path diversity), and the dead port must be
    // observable — frozen xmit counters plus a bumped LinkDowned.
    let cfg = WorldConfig::cluster("lci_psr_cq_pin_i".parse().unwrap(), 8, 4);
    let (mut world, got, sink) = cluster::build(&cfg);

    // Batch 1: localities 0 and 7 sit in different pods — 5-hop routes.
    cluster::blast(&mut world, 0, 7, sink, 10);
    let g = got.clone();
    assert!(world.run_while(10_000_000_000, move |_| g.get() < 10), "batch 1 lost parcels");

    // Kill the first up-link of the 0 -> 7 route (both directions).
    let (victim, before, old_route) = {
        let fab = world.fabric.borrow();
        let topo = fab.topology().expect("cluster runs on a switched fabric");
        let route = topo.route_ports(0, 7);
        let victim = route[0];
        (victim, topo.port_counters(victim.0, victim.1), route)
    };
    assert!(before.xmit_pkts > 0, "victim must sit on the hot route");
    assert!(world.fabric.borrow_mut().fail_link(victim.0, victim.1), "kill must take effect");

    // Batch 2: rerouted traffic must still arrive.
    cluster::blast(&mut world, 0, 7, sink, 10);
    let g = got.clone();
    assert!(world.run_while(10_000_000_000, move |_| g.get() < 20), "batch 2 lost parcels");

    let fab = world.fabric.borrow();
    let topo = fab.topology().unwrap();
    let after = topo.port_counters(victim.0, victim.1);
    assert_eq!(after.xmit_pkts, before.xmit_pkts, "dead port must stop transmitting");
    assert_eq!(after.link_downed, 1, "LinkDowned error counter must record the failure");
    assert_ne!(topo.route_ports(0, 7), old_route, "route must avoid the dead link");
}

#[test]
fn link_failure_is_visible_in_the_windowed_timeline() {
    // Chaos visibility: a mid-run link failure must be observable in the
    // windowed timeline three ways — (a) an SLO alert in the window the
    // latency breach occurs, (b) a flight-recorder dump carrying the
    // rerouted parcels, (c) a p999 step in the windowed series that the
    // run-total mean hides.
    use bytes::Bytes;
    use hpx_lci_repro::parcelport::World;
    use hpx_lci_repro::telemetry::timeline::FlightRec;
    use hpx_lci_repro::telemetry::{self, SloRule, TimelineConfig};

    // A long post-roll stretches the fault's dump across the whole
    // degraded batch, so it carries the rerouted deliveries.
    let tel = telemetry::enable_with(TimelineConfig {
        window_ns: 2_000,
        post_roll_windows: 128,
        ..TimelineConfig::default()
    });
    let cfg = WorldConfig::cluster("lci_psr_cq_pin_i".parse().unwrap(), 8, 4);
    let (mut world, got, sink) = cluster::build(&cfg);

    // Chunky payloads make uplink serialization a visible share of the
    // latency, so a post-failure route collision shows as a step.
    let data = Bytes::from(vec![0u8; 65536]);
    let blast = |world: &mut World, src: usize, dst: usize, n: usize, data: &Bytes| {
        for _ in 0..n {
            let loc = world.locality(src).clone();
            let d = data.clone();
            loc.spawn(
                &mut world.sim,
                0,
                Box::new(move |sim, loc, core| loc.send_action(sim, core, dst, sink, vec![d])),
            );
        }
    };

    // Two flows from the same edge switch whose static routes are
    // port-disjoint: 0 -> 7 plus a 1 -> dst2 decoy. Killing the 0 -> 7
    // up-link then forces both flows onto shared ports.
    let (dst2, victim) = {
        let fab = world.fabric.borrow();
        let topo = fab.topology().expect("cluster runs on a switched fabric");
        let route07 = topo.route_ports(0, 7);
        let victim = route07[0];
        let dst2 = (4..7)
            .find(|&d| topo.route_ports(1, d).iter().all(|p| !route07.contains(p)))
            .expect("the fat tree offers a port-disjoint second flow");
        (dst2, victim)
    };

    // Batch 1 (healthy): both flows in parallel on disjoint up-links.
    blast(&mut world, 0, 7, 15, &data);
    blast(&mut world, 1, dst2, 15, &data);
    let g = got.clone();
    assert!(world.run_while(10_000_000_000, move |_| g.get() < 30), "batch 1 lost parcels");

    // Objective derived from the healthy batch: the smallest latency
    // bound that classifies every batch-1 sample as good (bucket
    // granularity included) — any later breach is fault-induced.
    let h1 = tel.with_metrics(|m| m.hist("parcel.latency_ns")).expect("batch 1 delivered");
    let mut objective = h1.max();
    while h1.count_at_most(objective) < h1.count() {
        objective += (h1.max() / 8).max(1);
    }
    tel.timeline_add_rule(SloRule {
        name: "reroute-lat".into(),
        hist: "parcel.latency_ns".into(),
        objective_ns: objective,
        target: 0.99,
        burn_threshold: 1.0,
        min_samples: 1,
    });

    // Kill the hot up-link; the fault event triggers a flight dump at the
    // timeline's horizon. Then keep killing whatever up-link the
    // reroute picks until 0 -> 7 is forced onto the decoy's up-link —
    // the fat tree's path diversity would otherwise dodge the collision.
    let fault_ns = tel.with_timeline(|tl| tl.horizon_ns()).expect("timeline enabled");
    assert!(world.fabric.borrow_mut().fail_link(victim.0, victim.1), "kill must take effect");
    let decoy_up = {
        let fab = world.fabric.borrow();
        fab.topology().unwrap().route_ports(1, dst2)[0]
    };
    for _ in 0..8 {
        let hop = {
            let fab = world.fabric.borrow();
            fab.topology().unwrap().route_ports(0, 7)[0]
        };
        if hop == decoy_up {
            break;
        }
        assert!(world.fabric.borrow_mut().fail_link(hop.0, hop.1), "kill must take effect");
    }
    {
        let fab = world.fabric.borrow();
        assert_eq!(
            fab.topology().unwrap().route_ports(0, 7)[0],
            decoy_up,
            "flows must share the surviving up-link"
        );
    }

    // Batch 2 (degraded): the rerouted flow collides with the decoy.
    blast(&mut world, 0, 7, 15, &data);
    blast(&mut world, 1, dst2, 15, &data);
    let g = got.clone();
    assert!(world.run_while(10_000_000_000, move |_| g.get() < 60), "batch 2 lost parcels");
    telemetry::disable();
    let rec = common::record(&tel, "lci_psr_cq_pin_i");
    let (tl, m) = (rec.timeline().expect("timeline enabled"), &common::data(&rec).metrics);

    // (a) The SLO alert lands exactly in the first window holding an
    // over-objective sample, at or after the failure.
    let fault_w = tl.window_of(fault_ns);
    let alert = tl
        .alerts()
        .iter()
        .find(|a| a.rule == "reroute-lat")
        .expect("link failure must breach the derived SLO");
    assert!(alert.window >= fault_w, "alert precedes the failure");
    let nwin = tl.num_windows();
    let first_bad = (0..nwin)
        .find(|&w| {
            m.hist_window("parcel.latency_ns", w)
                .is_some_and(|h| h.count_at_most(objective) < h.count())
        })
        .expect("a breached window exists");
    assert_eq!(alert.window, first_bad, "alert must land in the window the breach occurs");

    // (b) The flight-recorder dump names the fault and carries rerouted
    // 0 -> 7 parcels delivered after the failure instant.
    let dump = tl
        .dumps()
        .iter()
        .find(|d| d.reason == "fault:fab.link_down")
        .expect("link failure must dump the flight recorder");
    let rerouted = dump
        .records
        .iter()
        .filter(|r| {
            matches!(r, FlightRec::Flow { src: 0, dst: 7, deliver_ns, .. }
                     if *deliver_ns > fault_ns)
        })
        .count();
    assert!(rerouted > 0, "dump must contain rerouted 0->7 parcels");

    // (c) The tail step is windowed-only: some post-failure window's
    // p999 breaches the objective while the run-total mean stays under.
    let merged = m.hist("parcel.latency_ns").expect("deliveries recorded");
    assert!(merged.mean() < objective as f64, "the run mean must hide the fault");
    let step = (fault_w..nwin)
        .any(|w| m.hist_window("parcel.latency_ns", w).is_some_and(|h| h.p999() > objective));
    assert!(step, "post-failure windows must show a p999 step over the objective");
}

#[test]
fn per_link_drop_faults_retransmit_but_deliver() {
    // Per-link loss on a multi-hop fat-tree route: every hop rolls
    // independently and recovers via link-level retransmit, so delivery
    // stays reliable while the retry counters record the flakiness.
    let mut cfg = WorldConfig::cluster("lci_psr_cq_pin_i".parse().unwrap(), 8, 4);
    cfg.faults = Some(FaultConfig { drop_prob: 0.3, ..FaultConfig::default() });
    let (mut world, got, sink) = cluster::build(&cfg);
    cluster::blast(&mut world, 0, 7, sink, 25);
    let g = got.clone();
    assert!(world.run_while(20_000_000_000, move |_| g.get() < 25), "drops must not lose parcels");
    let fab = world.fabric.borrow();
    let topo = fab.topology().unwrap();
    let retries: u64 = topo.ranked_ports().iter().map(|r| r.1.retries).sum();
    assert!(retries > 0, "30% per-link loss must trigger link-level retransmits");
    assert!(world.sim.stats.get("net.retransmitted") > 0);
}

#[test]
fn pool_exhaustion_recovers() {
    // Shrink the LCI packet pool drastically: sends hit Retry and must
    // recover through the parcelport's retry queue.
    use bytes::Bytes;
    use hpx_lci_repro::amt::action::ActionRegistry;
    use hpx_lci_repro::parcelport::build_world;
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
    let cfg = WorldConfig::two_nodes("lci_psr_cq_pin_i".parse().unwrap(), 8);
    let mut world = build_world(&cfg, registry);
    // Flood far more concurrent messages than the default pool holds
    // head-room for in one burst.
    let n = 6_000usize;
    for chunk in 0..n / 100 {
        let loc0 = world.locality(0).clone();
        loc0.spawn(
            &mut world.sim,
            0,
            Box::new(move |sim, loc, core| {
                let mut t = sim.now();
                for _ in 0..100 {
                    t = loc.send_action(
                        sim,
                        core,
                        1,
                        sink,
                        vec![Bytes::from(vec![chunk as u8; 8])],
                    );
                }
                t
            }),
        );
    }
    let g = got.clone();
    let done = world.run_while(120_000_000_000, move |_| g.get() < n);
    assert!(done, "only {}/{} delivered after pool pressure", got.get(), n);
}
