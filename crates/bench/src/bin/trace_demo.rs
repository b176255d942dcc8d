//! Trace a short two-node workload and write a Chrome-tracing JSON
//! timeline (`open chrome://tracing` or https://ui.perfetto.dev and load
//! the file) — per-core visibility into what the simulated runtime did.
//!
//! Usage: `cargo run --release -p bench --bin trace_demo [config] [out.json]`

use std::cell::Cell;
use std::rc::Rc;

use amt::action::ActionRegistry;
use bytes::Bytes;
use parcelport::{build_world, WorldConfig};
use simcore::Tracer;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let config = argv.first().map(|s| s.as_str()).unwrap_or("lci_psr_cq_pin_i");
    let out = argv.get(1).map(|s| s.as_str()).unwrap_or("trace.json");

    let mut registry = ActionRegistry::new();
    let got = Rc::new(Cell::new(0usize));
    let g = got.clone();
    registry.register("sink", move |sim, _l, _c, _p| {
        g.set(g.get() + 1);
        sim.now() + 2_000
    });
    let sink = registry.id_of("sink").unwrap();

    let cfg = WorldConfig::two_nodes(config.parse().expect("config name"), 8);
    let mut world = build_world(&cfg, registry);
    for loc in &world.runtime.localities {
        loc.set_tracer(Tracer::new());
    }

    let n = 500usize;
    for _ in 0..n / 50 {
        let loc0 = world.locality(0).clone();
        loc0.spawn(
            &mut world.sim,
            0,
            Box::new(move |sim, loc, core| {
                let mut t = sim.now();
                for _ in 0..50 {
                    t = loc.send_action(sim, core, 1, sink, vec![Bytes::from(vec![9u8; 512])]);
                }
                t
            }),
        );
    }
    let g = got.clone();
    world.run_while(10_000_000_000, move |_| g.get() < n);

    // Merge the per-locality tracers into one timeline.
    let mut merged = Tracer::new();
    for loc in &world.runtime.localities {
        if let Some(tr) = loc.take_tracer() {
            for s in tr.spans() {
                merged.span(s.track.clone(), s.label, s.start, s.end);
            }
        }
    }
    let json = telemetry::chrome::chrome_trace(merged.spans(), &[], &telemetry::Metrics::new());
    std::fs::write(out, json).expect("write trace");
    println!("{config}: {n} messages in {}; {} spans -> {out}", world.sim.now(), merged.len());
    println!("virtual time by activity:");
    for (label, ns) in merged.totals_by_label() {
        println!("  {label:<12} {:.1}us", ns as f64 / 1e3);
    }
}
