//! Irregular-workload example: the communication pattern that motivates
//! asynchronous many-task systems in the paper's introduction — a
//! task-dependency graph with mixed message sizes and bursty, skewed
//! traffic (a sparse-solver-like wavefront).
//!
//! A chain of "panels" is distributed round-robin over four localities;
//! finishing panel `k` releases panel `k+1` (on the next locality) with a
//! small control message, and ships a large data block to a random-ish
//! earlier locality (a trailing update). This mixes tiny latency-bound
//! messages with zero-copy bulk transfers on the same connections — the
//! "multithreaded, irregular, small and large messages" cocktail of §1.
//!
//! Run with: `cargo run --release --example irregular_workload`

use std::cell::Cell;
use std::rc::Rc;

use bytes::Bytes;
use hpx_lci_repro::amt::action::ActionRegistry;
use hpx_lci_repro::amt::codec::{Reader, Writer};
use hpx_lci_repro::parcelport::{build_world, WorldConfig};

const LOCALITIES: usize = 4;
const PANELS: u64 = 120;
const BLOCK: usize = 24 * 1024; // above the zero-copy threshold

fn main() {
    for cfg in ["mpi_i", "lci_psr_cq_pin_i"] {
        let mut registry = ActionRegistry::new();
        let done = Rc::new(Cell::new(false));
        let blocks = Rc::new(Cell::new(0u64));

        let b = blocks.clone();
        registry.register("trailing_update", move |sim, _loc, _core, p| {
            assert_eq!(p.args[0].len(), BLOCK);
            b.set(b.get() + 1);
            sim.now() + 20_000 // apply the update
        });

        let d = done.clone();
        registry.register("release_panel", move |sim, loc, core, p| {
            let mut r = Reader::new(&p.args[0]);
            let k = r.get_u64();
            let t = sim.now() + 35_000; // factor the panel
            if k + 1 > PANELS {
                d.set(true);
                return t;
            }
            // Release the next panel on the next locality...
            let next_owner = ((k + 1) % LOCALITIES as u64) as usize;
            let release = loc.with_registry(|r| r.id_of("release_panel").unwrap());
            let update = loc.with_registry(|r| r.id_of("trailing_update").unwrap());
            let mut w = Writer::new();
            w.put_u64(k + 1);
            loc.send_action(sim, core, next_owner, release, w.finish());
            // ...and ship a bulk trailing update to a deterministic
            // "earlier" locality (irregular target pattern).
            let victim = ((k * 7 + 3) % LOCALITIES as u64) as usize;
            if victim != loc.id {
                loc.send_action(sim, core, victim, update, Bytes::from(vec![k as u8; BLOCK]));
            }
            t
        });
        let release = registry.id_of("release_panel").unwrap();

        let mut wcfg = WorldConfig::two_nodes(cfg.parse().unwrap(), 8);
        wcfg.localities = LOCALITIES;
        let mut world = build_world(&wcfg, registry);

        let loc0 = world.locality(0).clone();
        loc0.spawn(
            &mut world.sim,
            0,
            Box::new(move |sim, loc, core| {
                let mut w = Writer::new();
                w.put_u64(0);
                loc.send_action(sim, core, 1 % LOCALITIES, release, w.finish())
            }),
        );

        let d = done.clone();
        let finished = world.run_while(60_000_000_000, move |_| !d.get());
        assert!(finished, "{cfg}: wavefront stalled");
        println!(
            "{cfg:<20} wavefront of {PANELS} panels + {} bulk updates in {}",
            blocks.get(),
            world.sim.now()
        );
    }
    println!();
    println!("The wavefront is latency-bound on its critical path while the bulk");
    println!("updates stress the rendezvous path concurrently — the LCI parcelport's");
    println!("advantage compounds along the chain.");
}
