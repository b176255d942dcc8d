//! Shared helpers for the cross-crate integration tests.
//!
//! Compiled separately into every integration-test target; not every
//! target uses every helper, so per-target dead-code analysis is noise.
#![allow(dead_code)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use bytes::Bytes;
use hpx_lci_repro::amt::action::ActionRegistry;
use hpx_lci_repro::parcelport::{Engine, EngineWorld, ShardedWorld, World, WorldConfig};
use hpx_lci_repro::telemetry::{RunData, RunMeta, RunRecord, Telemetry};

/// The run record of `config`'s finished run on `tel`
/// ([`RunRecord::capture`], which empties the collector).
pub fn record(tel: &Telemetry, config: &str) -> RunRecord {
    RunRecord::capture(tel, RunMeta { config: config.into(), ..RunMeta::default() })
}

/// The stores a capture moved into `rec`.
pub fn data(rec: &RunRecord) -> &RunData {
    rec.data.as_deref().expect("a captured record carries its stores")
}

/// Outcome of a counted-delivery workload.
pub struct Delivery {
    /// The world after the run (for stats inspection).
    pub world: EngineWorld,
    /// Messages delivered to the sink action.
    pub delivered: usize,
    /// Concatenation-order payload checksums seen by the sink.
    pub checksums: Vec<u64>,
}

impl Delivery {
    /// The single-heap world; panics on a federated run.
    pub fn single_heap(&self) -> &World {
        self.world.single_heap().expect("a single-heap run")
    }

    /// The federated world; panics on a single-heap run.
    pub fn federated(&self) -> &ShardedWorld {
        match &self.world {
            EngineWorld::Federated { world, .. } => world,
            EngineWorld::SingleHeap(_) => panic!("a federated run"),
        }
    }
}

/// 64-bit FNV-1a of `bytes`.
pub fn fnv(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Send `payloads` from locality 0 to a sink action on locality 1 over
/// the given configuration, one send per task, on the single heap.
pub fn send_all(cfg: WorldConfig, payloads: Vec<Vec<u8>>) -> Delivery {
    send(cfg, payloads, 1, Engine::SingleHeap)
}

/// The test sender: `batch` sends per injector task, all tasks spawned at
/// time zero on locality 0 (the message-rate benchmark's shape), on
/// `engine`. The sink records into atomics because federated lanes may
/// run on different threads; the checksum order is deterministic
/// regardless (one consumer locality, virtual-time order). A federated
/// run captures its canonical engine log for `ShardedSim::digest`.
pub fn send(cfg: WorldConfig, payloads: Vec<Vec<u8>>, batch: usize, engine: Engine) -> Delivery {
    let delivered = Arc::new(AtomicUsize::new(0));
    let checksums = Arc::new(Mutex::new(Vec::new()));
    let expect = payloads.len();
    let (d, c) = (delivered.clone(), checksums.clone());
    let payloads: Vec<Bytes> = payloads.into_iter().map(Bytes::from).collect();
    let mut world = engine.build(
        &cfg,
        move |_rank| {
            let mut registry = ActionRegistry::new();
            let (delivered, checksums) = (d.clone(), c.clone());
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
            for task in payloads.chunks(batch) {
                let task = task.to_vec();
                loc.spawn(
                    sim,
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
        },
    );
    if let EngineWorld::Federated { world, .. } = &mut world {
        world.engine.set_exec_capture(true);
    }
    world.run(60_000_000_000, |_| delivered.load(Ordering::Relaxed) < expect);
    let sums = checksums.lock().unwrap().clone();
    Delivery { world, delivered: delivered.load(Ordering::Relaxed), checksums: sums }
}

/// Reference checksums in send order.
pub fn reference_checksums(payloads: &[Vec<u8>]) -> Vec<u64> {
    payloads.iter().map(|p| fnv(p)).collect()
}
