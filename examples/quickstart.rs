//! Quickstart: bring up a two-locality world on the default (best) LCI
//! parcelport, register an action, invoke it remotely, and read the
//! runtime statistics.
//!
//! Run with: `cargo run --release --example quickstart`

use std::cell::Cell;
use std::rc::Rc;

use bytes::Bytes;
use hpx_lci_repro::amt::action::ActionRegistry;
use hpx_lci_repro::parcelport::{build_world, WorldConfig};

fn main() {
    // 1. Register actions — like HPX, every locality shares the registry.
    let mut registry = ActionRegistry::new();
    let greetings = Rc::new(Cell::new(0u32));
    let g = greetings.clone();
    registry.register("greet", move |sim, loc, _core, parcel| {
        let name = String::from_utf8_lossy(&parcel.args[0]).to_string();
        println!(
            "[{}] locality {} got: \"{name}\" ({} bytes)",
            sim.now(),
            loc.id,
            parcel.args[0].len()
        );
        g.set(g.get() + 1);
        sim.now() + 500 // the handler charges 500ns of virtual work
    });
    let greet = registry.id_of("greet").unwrap();

    // 2. Build the world: two simulated nodes with 8 cores each, wired by
    //    a simulated HDR InfiniBand fabric, running the paper's default
    //    configuration (lci_psr_cq_pin_i). Any Table-1 name works here:
    //    "mpi", "mpi_i", "lci_sr_sy_mt_i", ...
    let cfg = WorldConfig::two_nodes("lci_psr_cq_pin_i".parse().unwrap(), 8);
    let mut world = build_world(&cfg, registry);

    // 3. Spawn a task on locality 0 that invokes the action on locality 1.
    let loc0 = world.locality(0).clone();
    for i in 0..3 {
        loc0.spawn(
            &mut world.sim,
            0,
            Box::new(move |sim, loc, core| {
                let msg = format!("hello #{i} from locality 0");
                loc.send_action(sim, core, 1, greet, Bytes::from(msg.into_bytes()))
            }),
        );
    }

    // 4. Run the simulation until it quiesces.
    let g = greetings.clone();
    world.run_while(1_000_000_000, move |_| g.get() < 3);
    println!();
    println!("delivered {} greetings in {} of virtual time", greetings.get(), world.sim.now());
    println!();
    println!("--- runtime statistics ---");
    print!("{}", world.sim.stats);
}
