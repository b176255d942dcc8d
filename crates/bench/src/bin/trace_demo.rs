//! Trace a short two-node workload and write a Chrome-tracing JSON
//! timeline (`open chrome://tracing` or <https://ui.perfetto.dev> and load
//! the file) — per-core visibility into what the simulated runtime did.
//!
//! Usage: `cargo run --release -p bench --bin trace_demo [config] [out.json]`

use std::cell::Cell;
use std::collections::HashMap;
use std::rc::Rc;

use amt::action::ActionRegistry;
use bytes::Bytes;
use parcelport::{build_world, WorldConfig};

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
    // The collector records every core's spans, grouped by locality.
    let tel = telemetry::enable();

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
    telemetry::disable();

    // Core spans only: no flows, no counter tracks.
    let json = tel.with_core_spans(|spans| {
        telemetry::chrome::chrome_trace(spans, &[], &[], &telemetry::Metrics::new())
    });
    std::fs::write(out, json).expect("write trace");
    println!("{config}: {n} messages in {}; {} spans -> {out}", world.sim.now(), tel.span_count());
    println!("virtual time by activity:");
    for (label, ns) in totals_by_label(&tel) {
        println!("  {label:<12} {:.1}us", ns as f64 / 1e3);
    }
}

/// Total virtual time covered per span label, descending.
fn totals_by_label(tel: &telemetry::Telemetry) -> Vec<(&'static str, u64)> {
    let mut map = HashMap::new();
    tel.with_core_spans(|spans| {
        for s in spans.iter().flatten() {
            *map.entry(s.label).or_insert(0u64) += s.end.saturating_sub(s.start);
        }
    });
    let mut v: Vec<_> = map.into_iter().collect();
    v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    v
}
