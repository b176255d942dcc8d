//! Determinism: identical inputs give bit-identical simulations — the
//! property that makes every figure in EXPERIMENTS.md exactly
//! reproducible.

mod common;

use common::send_all;
use hpx_lci_repro::parcelport::WorldConfig;

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
