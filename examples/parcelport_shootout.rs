//! Parcelport shootout: compare every Table-1 configuration on a quick
//! message-rate and latency workload — the decision chart a downstream
//! user would consult before picking a backend.
//!
//! Run with: `cargo run --release --example parcelport_shootout`

use bench_workloads::{quick_latency, quick_rate};
use hpx_lci_repro::parcelport::PpConfig;

/// Minimal inline re-implementations of the bench crate's workloads so
/// the example is self-contained against the public API.
mod bench_workloads {
    use std::cell::Cell;
    use std::rc::Rc;

    use bytes::Bytes;
    use hpx_lci_repro::amt::action::ActionRegistry;
    use hpx_lci_repro::parcelport::{build_world, PpConfig, WorldConfig};

    /// Unlimited-injection message rate of `total` messages of `size`
    /// bytes, in K msgs/s.
    pub fn quick_rate(cfg: PpConfig, size: usize, total: usize) -> f64 {
        let mut registry = ActionRegistry::new();
        let got = Rc::new(Cell::new(0usize));
        let g = got.clone();
        registry.register("sink", move |sim, _l, _c, _p| {
            g.set(g.get() + 1);
            sim.now() + 150
        });
        let sink = registry.id_of("sink").unwrap();
        let mut world = build_world(&WorldConfig::two_nodes(cfg, 16), registry);
        let loc0 = world.locality(0).clone();
        for _ in 0..total / 50 {
            let payload = Bytes::from(vec![7u8; size]);
            loc0.spawn(
                &mut world.sim,
                0,
                Box::new(move |sim, loc, core| {
                    let mut t = sim.now();
                    for _ in 0..50 {
                        t = loc.send_action(sim, core, 1, sink, payload.clone());
                    }
                    t
                }),
            );
        }
        let g = got.clone();
        world.run_while(60_000_000_000, move |_| g.get() < total);
        total as f64 / world.sim.now().as_secs_f64() / 1e3
    }

    /// One-way ping-pong latency (us) of `size`-byte messages.
    pub fn quick_latency(cfg: PpConfig, size: usize, steps: usize) -> f64 {
        let mut registry = ActionRegistry::new();
        let done = Rc::new(Cell::new(false));
        let d = done.clone();
        registry.register("ping", move |sim, loc, core, p| {
            let hops = u64::from_le_bytes(p.args[0][..8].try_into().unwrap());
            if hops == 0 {
                d.set(true);
                return sim.now();
            }
            let peer = 1 - loc.id;
            let size = p.args[0].len();
            let ping = loc.with_registry(|r| r.id_of("ping").unwrap());
            loc.spawn(
                sim,
                core,
                Box::new(move |sim, loc, core| {
                    let mut payload = vec![0u8; size];
                    payload[..8].copy_from_slice(&(hops - 1).to_le_bytes());
                    loc.send_action(sim, core, peer, ping, Bytes::from(payload))
                }),
            );
            sim.now() + 100
        });
        let ping = registry.id_of("ping").unwrap();
        let mut world = build_world(&WorldConfig::two_nodes(cfg, 16), registry);
        let loc0 = world.locality(0).clone();
        let hops = (2 * steps - 1) as u64;
        loc0.spawn(
            &mut world.sim,
            0,
            Box::new(move |sim, loc, core| {
                let mut payload = vec![0u8; size.max(8)];
                payload[..8].copy_from_slice(&hops.to_le_bytes());
                loc.send_action(sim, core, 1, ping, Bytes::from(payload))
            }),
        );
        let d = done.clone();
        world.run_while(60_000_000_000, move |_| !d.get());
        world.sim.now().as_micros_f64() / (2.0 * steps as f64)
    }
}

fn main() {
    println!("{:<20} {:>12} {:>12} {:>12}", "config", "8B K/s", "16K K/s", "8B lat us");
    println!("{}", "-".repeat(60));
    let mut best: Option<(String, f64)> = None;
    let mut configs = PpConfig::paper_set();
    configs.push(PpConfig::tcp());
    for cfg in configs {
        let rate8 = quick_rate(cfg, 8, 20_000);
        let rate16 = quick_rate(cfg, 16 * 1024, 4_000);
        let lat = quick_latency(cfg, 8, 200);
        println!("{:<20} {:>12.1} {:>12.1} {:>12.2}", cfg.to_string(), rate8, rate16, lat);
        if best.as_ref().is_none_or(|(_, b)| rate8 > *b) {
            best = Some((cfg.to_string(), rate8));
        }
    }
    let (name, rate) = best.unwrap();
    println!();
    println!("best small-message throughput: {name} at {rate:.1} K/s");
    println!("(the paper's default, lci_psr_cq_pin_i, should win here)");
}
