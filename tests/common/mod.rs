//! Shared helpers for the cross-crate integration tests.
//!
//! Compiled separately into every integration-test target; not every
//! target uses every helper, so per-target dead-code analysis is noise.
#![allow(dead_code)]

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use bytes::Bytes;
use hpx_lci_repro::amt::action::ActionRegistry;
use hpx_lci_repro::parcelport::{build_world, World, WorldConfig};

/// Outcome of a counted-delivery workload.
pub struct Delivery {
    /// The world after the run (for stats inspection).
    pub world: World,
    /// Messages delivered to the sink action.
    pub delivered: usize,
    /// Concatenation-order payload checksums seen by the sink.
    pub checksums: Vec<u64>,
}

fn fnv(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Send `payloads` from locality 0 to a sink action on locality 1 over
/// the given configuration; returns the delivery record.
pub fn send_all(cfg: WorldConfig, payloads: Vec<Vec<u8>>) -> Delivery {
    send_batched(cfg, payloads, 1)
}

/// [`send_all`] with `batch` sends per injector task, all tasks spawned
/// at time zero on locality 0 (the message-rate benchmark's shape).
pub fn send_batched(cfg: WorldConfig, payloads: Vec<Vec<u8>>, batch: usize) -> Delivery {
    let mut registry = ActionRegistry::new();
    let delivered = Rc::new(Cell::new(0usize));
    let checksums = Rc::new(RefCell::new(Vec::new()));
    let expect = payloads.len();
    {
        let delivered = delivered.clone();
        let checksums = checksums.clone();
        registry.register("sink", move |sim, _loc, _core, p| {
            delivered.set(delivered.get() + 1);
            checksums.borrow_mut().push(fnv(&p.args[0]));
            sim.now() + 150
        });
    }
    let sink = registry.id_of("sink").unwrap();
    let mut world = build_world(&cfg, registry);
    let loc0 = world.locality(0).clone();
    let payloads: Vec<Bytes> = payloads.into_iter().map(Bytes::from).collect();
    for task in payloads.chunks(batch) {
        let task = task.to_vec();
        loc0.spawn(
            &mut world.sim,
            0,
            Box::new(move |sim, loc, core| {
                let mut t = sim.now();
                for data in task {
                    t = loc.send_action(sim, core, 1, sink, vec![data]);
                }
                t
            }),
        );
    }
    let d = delivered.clone();
    world.run_while(60_000_000_000, move |_| d.get() < expect);
    let sums = checksums.borrow().clone();
    Delivery { world, delivered: delivered.get(), checksums: sums }
}

/// Reference checksums in send order.
pub fn reference_checksums(payloads: &[Vec<u8>]) -> Vec<u64> {
    payloads.iter().map(|p| fnv(p)).collect()
}

/// Outcome of a counted-delivery workload on the sharded (federated)
/// world — the parallel-engine analogue of [`Delivery`].
pub struct ShardedDelivery {
    /// The world after the run (for nested-event inspection).
    pub world: hpx_lci_repro::parcelport::ShardedWorld,
    /// Messages delivered to the sink action.
    pub delivered: usize,
    /// Concatenation-order payload checksums seen by the sink.
    pub checksums: Vec<u64>,
}

/// [`send_all`] on the sharded engine: same workload, one engine lane
/// per locality over `shards` shards, run to quiescence under `mode`.
/// Counters live in atomics because the two lanes may execute on
/// different threads; the checksum order is deterministic regardless
/// (one consumer lane, nested virtual-time order).
pub fn send_all_sharded(
    cfg: WorldConfig,
    payloads: Vec<Vec<u8>>,
    shards: usize,
    mode: hpx_lci_repro::simcore::shard::RunMode,
) -> ShardedDelivery {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Mutex};

    let delivered = Arc::new(AtomicUsize::new(0));
    let checksums = Arc::new(Mutex::new(Vec::new()));
    let d = delivered.clone();
    let c = checksums.clone();
    let mut world = hpx_lci_repro::parcelport::build_sharded_world(
        &cfg,
        shards,
        move |_rank| {
            let mut registry = ActionRegistry::new();
            let delivered = d.clone();
            let checksums = c.clone();
            registry.register("sink", move |sim, _loc, _core, p| {
                delivered.fetch_add(1, Ordering::Relaxed);
                checksums.lock().unwrap().push(fnv(&p.args[0]));
                sim.now() + 150
            });
            registry.into()
        },
        move |rank, sim, loc| {
            if rank != 0 {
                return;
            }
            let sink = loc.with_registry(|r| r.id_of("sink").unwrap());
            for payload in payloads.clone() {
                let data = Bytes::from(payload);
                loc.spawn(
                    sim,
                    0,
                    Box::new(move |sim, loc, core| loc.send_action(sim, core, 1, sink, vec![data])),
                );
            }
        },
    );
    world.engine.set_exec_capture(true);
    world.run(Some(mode));
    let sums = checksums.lock().unwrap().clone();
    ShardedDelivery { world, delivered: delivered.load(Ordering::Relaxed), checksums: sums }
}
