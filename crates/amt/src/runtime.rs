//! Runtime assembly: the localities of one SPMD world.

use std::rc::Rc;

use simcore::{CostModel, Sim};

use crate::action::ActionRegistry;
use crate::locality::Locality;
use crate::parcel_layer::ParcelLayerConfig;
use crate::sched::WorkerConfig;

/// Configuration of a whole runtime instance.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Number of localities (simulated nodes).
    pub localities: usize,
    /// Worker-pool shape, identical on every locality.
    pub workers: WorkerConfig,
    /// Parcel-layer (upper layer) configuration.
    pub layer: ParcelLayerConfig,
}

impl RuntimeConfig {
    /// Two localities (the microbenchmark topology) with `cores` cores.
    pub fn two_nodes(cores: usize, dedicated_progress: bool) -> Self {
        RuntimeConfig {
            localities: 2,
            workers: if dedicated_progress {
                WorkerConfig::with_progress(cores)
            } else {
                WorkerConfig::workers_only(cores)
            },
            layer: ParcelLayerConfig::default(),
        }
    }
}

/// A running set of localities. Parcelports are installed per locality by
/// the caller (they live in the `parcelport` crate, which depends on this
/// one).
pub struct Runtime {
    /// The localities, indexed by id.
    pub localities: Vec<Rc<Locality>>,
}

impl Runtime {
    /// Build locality `rank` of a `cfg.localities`-locality SPMD world,
    /// with `cfg`'s worker pool and parcel layer. World builders assemble
    /// a [`Runtime`] from one call per rank.
    pub fn single_locality(
        rank: usize,
        cfg: &RuntimeConfig,
        cost: Rc<CostModel>,
        registry: ActionRegistry,
    ) -> Rc<Locality> {
        assert!(rank < cfg.localities, "rank {rank} outside the {}-locality world", cfg.localities);
        Locality::new(rank, cost, cfg.workers.clone(), registry, cfg.layer.clone())
    }

    /// Locality by id.
    pub fn locality(&self, id: usize) -> &Rc<Locality> {
        &self.localities[id]
    }

    /// Arm every core of every locality. Call after parcelports are
    /// installed.
    pub fn start(&self, sim: &mut Sim) {
        for loc in &self.localities {
            loc.start(sim);
        }
    }

    /// Total tasks run across localities.
    pub fn total_tasks_run(&self) -> u64 {
        self.localities.iter().map(|l| l.tasks_run()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_nodes(cores: usize, dedicated_progress: bool) -> Runtime {
        let cfg = RuntimeConfig::two_nodes(cores, dedicated_progress);
        let cost = Rc::new(CostModel::default());
        let localities = (0..cfg.localities)
            .map(|rank| Runtime::single_locality(rank, &cfg, cost.clone(), ActionRegistry::new()))
            .collect();
        Runtime { localities }
    }

    #[test]
    fn builds_requested_topology() {
        let rt = two_nodes(4, true);
        assert_eq!(rt.localities.len(), 2);
        assert_eq!(rt.locality(0).worker_config().cores, 4);
        assert!(rt.locality(1).worker_config().dedicated_progress);
        assert_eq!(rt.locality(1).worker_config().worker_count(), 3);
    }

    #[test]
    fn start_and_quiesce() {
        let rt = two_nodes(2, false);
        let mut sim = Sim::new(0);
        rt.start(&mut sim);
        sim.run();
        assert_eq!(sim.events_pending(), 0);
        assert_eq!(rt.total_tasks_run(), 0);
    }
}
