//! Determinism: identical inputs give bit-identical simulations — the
//! property that makes every figure in EXPERIMENTS.md exactly
//! reproducible.

mod common;

use std::cell::RefCell;
use std::rc::Rc;

use bytes::Bytes;
use common::{fnv, send_all};
use hpx_lci_repro::amt::action::ActionRegistry;
use hpx_lci_repro::parcelport::{build_world, WorldConfig};

fn payloads() -> Vec<Vec<u8>> {
    (0..40).map(|i| vec![i as u8; 8 + (i * 37) % 20_000]).collect()
}

#[test]
fn identical_seeds_identical_timelines() {
    for name in ["lci_psr_cq_pin_i", "mpi", "lci_sr_sy_mt_i"] {
        let run = |seed: u64| {
            let mut cfg = WorldConfig::two_nodes(name.parse().unwrap(), 8);
            cfg.seed = seed;
            let d = send_all(cfg, payloads());
            (d.world.now(), d.world.events_executed(), d.checksums)
        };
        let a = run(11);
        let b = run(11);
        assert_eq!(a.0, b.0, "{name}: virtual end time diverged");
        assert_eq!(a.1, b.1, "{name}: event count diverged");
        assert_eq!(a.2, b.2, "{name}: delivery order diverged");
    }
}

#[test]
fn different_seeds_still_complete() {
    // Seeds only drive fault injection / model randomness; a reliable
    // fabric must deliver everything under any seed.
    for seed in [1u64, 2, 999] {
        let mut cfg = WorldConfig::two_nodes("lci_psr_cq_pin_i".parse().unwrap(), 8);
        cfg.seed = seed;
        let d = send_all(cfg, payloads());
        assert_eq!(d.delivered, 40);
    }
}

#[test]
fn octotiger_is_deterministic() {
    use hpx_lci_repro::octotiger_mini::{run_octotiger, OctoParams};
    let run = || {
        let mut p = OctoParams::expanse("lci_psr_cq_pin_i".parse().unwrap(), 4);
        p.level = 3;
        p.steps = 2;
        p.cores = 6;
        run_octotiger(&p)
    };
    let a = run();
    let b = run();
    assert!(a.completed && b.completed);
    assert_eq!(a.total, b.total, "octotiger timing diverged between runs");
    assert_eq!(a.steps_per_sec, b.steps_per_sec);
}

/// TCP at four localities: every locality sends to every other, so each
/// one drains three incoming streams. Two builds of the same world in one
/// process must agree on every delivery and on the end time. Streams kept
/// in a std `HashMap` would not: every such map draws its own hash seed,
/// and background work drained the streams in hash order.
#[test]
fn tcp_at_four_localities_is_deterministic() {
    const LOCALITIES: usize = 4;
    const PER_PEER: usize = 6;
    let run = || {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut registry = ActionRegistry::new();
        let sink_log = log.clone();
        registry.register("sink", move |sim, loc, _core, p| {
            let at = sim.now().as_nanos();
            sink_log.borrow_mut().extend([loc.id as u64, fnv(&p.args[0]), at]);
            sim.now() + 150
        });
        let sink = registry.id_of("sink").unwrap();
        let mut cfg = WorldConfig::two_nodes("tcp_i".parse().unwrap(), 4);
        cfg.localities = LOCALITIES;
        let mut world = build_world(&cfg, registry);
        for src in 0..LOCALITIES {
            for dst in (0..LOCALITIES).filter(|&d| d != src) {
                for i in 0..PER_PEER {
                    let payload = Bytes::from(vec![(src * LOCALITIES + dst) as u8; 64 + 700 * i]);
                    let loc = world.locality(src).clone();
                    loc.spawn(
                        &mut world.sim,
                        0,
                        Box::new(move |sim, loc, core| {
                            loc.send_action(sim, core, dst, sink, vec![payload])
                        }),
                    );
                }
            }
        }
        let expect = 3 * LOCALITIES * (LOCALITIES - 1) * PER_PEER;
        let seen = log.clone();
        world.run_while(60_000_000_000, move |_| seen.borrow().len() < expect);
        let log = log.borrow();
        assert_eq!(log.len(), expect, "lost parcels");
        let bytes: Vec<u8> = log.iter().flat_map(|x| x.to_le_bytes()).collect();
        (world.sim.now(), world.sim.events_executed(), fnv(&bytes))
    };
    let (a, b) = (run(), run());
    assert_eq!(a.0, b.0, "virtual end time diverged");
    assert_eq!(a.1, b.1, "event count diverged");
    assert_eq!(a.2, b.2, "delivery order or timing diverged");
}
