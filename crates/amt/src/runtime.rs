//! Runtime assembly: the localities of one SPMD world.

use std::rc::Rc;

use simcore::Sim;

use crate::locality::Locality;

/// A running set of localities. Parcelports are installed per locality by
/// the caller (they live in the `parcelport` crate, which depends on this
/// one).
pub struct Runtime {
    /// The localities, indexed by id.
    pub localities: Vec<Rc<Locality>>,
}

impl Runtime {
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
    use crate::action::ActionRegistry;
    use crate::parcel_layer::ParcelLayerConfig;
    use crate::sched::WorkerConfig;
    use simcore::CostModel;

    fn two_nodes(cores: usize, dedicated_progress: bool) -> Runtime {
        let workers = if dedicated_progress {
            WorkerConfig::with_progress(cores)
        } else {
            WorkerConfig::workers_only(cores)
        };
        let cost = Rc::new(CostModel::default());
        let localities = (0..2)
            .map(|rank| {
                Locality::new(
                    rank,
                    cost.clone(),
                    workers.clone(),
                    ActionRegistry::new(),
                    ParcelLayerConfig::default(),
                )
            })
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
