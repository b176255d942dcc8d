//! One entry point for both engines: a workload driver describes its
//! world once — per-rank [`LaneSetup`]s and a per-rank seed — and takes
//! the engine that runs it as a value.

use std::rc::Rc;

use amt::Locality;
use simcore::shard::RunMode;
use simcore::{Sim, SimTime};

use crate::builder::{build_single_heap, World, WorldConfig};
use crate::sharded::{build_sharded_world, LaneSetup, ShardedWorld};

/// The event engine a world runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// Every locality on one event heap ([`crate::build_world`]).
    SingleHeap,
    /// One engine lane per locality over `shards` shards of the
    /// conservative engine ([`build_sharded_world`]). `mode` pins the
    /// executor; `None` lets the engine pick.
    Federated {
        /// Engine shards the lanes are placed on.
        shards: usize,
        /// Executor; `None` = one worker per host CPU, at most one per
        /// shard.
        mode: Option<RunMode>,
    },
}

impl Engine {
    /// Build a world of `cfg` on this engine. `setup(rank)` supplies each
    /// rank's registry and app state, and `seed(rank, sim, locality)`
    /// plants its initial work. On the single heap all localities start
    /// first, then `seed` runs rank by rank into the one shared `Sim`.
    pub fn build(
        self,
        cfg: &WorldConfig,
        setup: impl FnMut(usize) -> LaneSetup,
        seed: impl FnMut(usize, &mut Sim, &Rc<Locality>),
    ) -> EngineWorld {
        match self {
            Engine::SingleHeap => {
                EngineWorld::SingleHeap(Box::new(build_single_heap(cfg, setup, seed)))
            }
            Engine::Federated { shards, mode } => EngineWorld::Federated {
                world: Box::new(build_sharded_world(cfg, shards, setup, seed)),
                mode,
            },
        }
    }
}

/// A world built by [`Engine::build`], ready to run.
pub enum EngineWorld {
    /// The single-heap world.
    SingleHeap(Box<World>),
    /// The federated world and the executor it runs under.
    Federated {
        /// The world.
        world: Box<ShardedWorld>,
        /// Executor; `None` lets the engine pick.
        mode: Option<RunMode>,
    },
}

impl EngineWorld {
    /// Run the world and return whether `pending` turned false. The
    /// single heap stops as soon as `pending` is false, or once
    /// `max_virtual_ns` have elapsed ([`World::run_while`]); the federated
    /// world runs to quiescence and ignores the deadline.
    pub fn run(&mut self, max_virtual_ns: u64, mut pending: impl FnMut(&Self) -> bool) -> bool {
        if let EngineWorld::Federated { world, mode } = self {
            world.run(*mode);
            return !pending(self);
        }
        let deadline = self.now() + max_virtual_ns;
        loop {
            if !pending(self) {
                return true;
            }
            let EngineWorld::SingleHeap(world) = self else { unreachable!() };
            if world.sim.now() >= deadline || !world.sim.step() {
                return !pending(self);
            }
        }
    }

    /// Virtual time reached (the latest lane's, on the federated world).
    pub fn now(&self) -> SimTime {
        match self {
            EngineWorld::SingleHeap(world) => world.sim.now(),
            EngineWorld::Federated { world, .. } => world.now(),
        }
    }

    /// Events executed (summed over lanes on the federated world).
    pub fn events_executed(&self) -> u64 {
        match self {
            EngineWorld::SingleHeap(world) => world.sim.events_executed(),
            EngineWorld::Federated { world, .. } => world.events_executed(),
        }
    }

    /// Counter `key` of the simulator's stats (summed over lanes on the
    /// federated world).
    pub fn stat(&self, key: &str) -> u64 {
        match self {
            EngineWorld::SingleHeap(world) => world.sim.stats.get(key),
            EngineWorld::Federated { world, .. } => {
                (0..world.config.localities).map(|r| world.node(r).stats().get(key)).sum()
            }
        }
    }

    /// Payload bytes put on the wire. On the federated world every lane's
    /// fabric replica counts the packets its own lane sent, so the sum
    /// over lanes is the world's total.
    pub fn bytes_sent(&self) -> u64 {
        match self {
            EngineWorld::SingleHeap(world) => world.fabric.borrow().bytes_sent(),
            EngineWorld::Federated { world, .. } => (0..world.config.localities)
                .map(|r| world.node(r).fabric().borrow().bytes_sent())
                .sum(),
        }
    }

    /// Downcast rank's [`LaneSetup::app`] state.
    pub fn app<T: 'static>(&self, rank: usize) -> Option<&T> {
        match self {
            EngineWorld::SingleHeap(world) => world.app::<T>(rank),
            EngineWorld::Federated { world, .. } => world.app::<T>(rank),
        }
    }

    /// The single-heap world, if this is one.
    pub fn single_heap(&self) -> Option<&World> {
        match self {
            EngineWorld::SingleHeap(world) => Some(world),
            EngineWorld::Federated { .. } => None,
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use amt::action::ActionRegistry;
    use bytes::Bytes;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// `n` parcels of `size` bytes from rank 0 to a sink on rank 1 over
    /// `pp` on `engine`: every one must arrive intact, and each rank's app
    /// slot must hold its rank.
    pub(crate) fn roundtrip(pp: &str, size: usize, n: usize, engine: Engine) -> EngineWorld {
        let hits = Arc::new(AtomicUsize::new(0));
        let h = hits.clone();
        let mut world = engine.build(
            &WorldConfig::two_nodes(pp.parse().unwrap(), 4),
            move |rank| {
                let mut registry = ActionRegistry::new();
                let h = h.clone();
                registry.register("sink", move |sim, _l, _c, p| {
                    let data = &p.args[0];
                    assert!(data.len() == size && data.iter().all(|&b| b == 0xAB), "corrupted");
                    h.fetch_add(1, Ordering::Relaxed);
                    sim.now() + 200
                });
                LaneSetup { registry, app: Some(Box::new(rank)) }
            },
            move |rank, sim, loc| {
                if rank != 0 {
                    return;
                }
                let sink = loc.with_registry(|r| r.id_of("sink").unwrap());
                let payload = Bytes::from(vec![0xABu8; size]);
                for _ in 0..n {
                    let p = payload.clone();
                    loc.spawn(
                        sim,
                        0,
                        Box::new(move |sim, loc, core| loc.send_action(sim, core, 1, sink, p)),
                    );
                }
            },
        );
        world.run(10_000_000_000, |_| hits.load(Ordering::Relaxed) < n);
        let got = hits.load(Ordering::Relaxed);
        assert_eq!(got, n, "{pp} on {engine:?}: {got}/{n} parcels arrived");
        assert_eq!(world.app::<usize>(1), Some(&1), "{engine:?}: app slot");
        world
    }

    #[test]
    fn one_driver_runs_on_every_engine() {
        let ends: Vec<SimTime> = [
            Engine::SingleHeap,
            Engine::Federated { shards: 1, mode: Some(RunMode::Sequential) },
            Engine::Federated { shards: 2, mode: Some(RunMode::Threaded) },
        ]
        .into_iter()
        .map(|engine| {
            let world = roundtrip("lci_psr_cq_pin_i", 8, 10, engine);
            assert_eq!(world.single_heap().is_some(), engine == Engine::SingleHeap);
            world.now()
        })
        .collect();
        // The single heap stops at the last delivery; the federated world
        // runs on to quiescence, identically under either placement.
        assert!(ends[0] <= ends[1]);
        assert_eq!(ends[1], ends[2]);
    }
}
