//! Scheduler primitives: tasks, worker configuration, idle backoff.

use std::rc::Rc;

use simcore::{Sim, SimTime};

use crate::locality::Locality;

/// A one-shot HPX task. Runs on a worker core; receives the simulator,
/// its locality and its core id; returns the virtual instant its work
/// ends (tasks charge their own compute costs).
pub type Task = Box<dyn FnOnce(&mut Sim, &Rc<Locality>, usize) -> SimTime>;

/// Worker-pool configuration for one locality (the HPX resource
/// partitioner's view of the node).
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// Total simulated cores on the node.
    pub cores: usize,
    /// Reserve core 0 for a dedicated, pinned communication progress
    /// thread (the `pin`/`rp` configurations). Worker tasks then run on
    /// cores `1..cores`.
    pub dedicated_progress: bool,
}

/// Upper bound of a worker's idle exponential backoff, ns.
pub const MAX_IDLE_BACKOFF_NS: u64 = 2_000;

impl WorkerConfig {
    /// `cores` workers, no dedicated progress thread.
    pub fn workers_only(cores: usize) -> Self {
        WorkerConfig { cores, dedicated_progress: false }
    }

    /// `cores` cores with core 0 pinned to progress.
    pub fn with_progress(cores: usize) -> Self {
        WorkerConfig { cores, dedicated_progress: true }
    }

    /// Index of the first task-running core.
    pub fn first_worker(&self) -> usize {
        usize::from(self.dedicated_progress)
    }

    /// Number of task-running cores.
    pub fn worker_count(&self) -> usize {
        self.cores - self.first_worker()
    }
}

/// Exponential idle backoff: a worker that repeatedly finds nothing to do
/// polls less and less often, up to a cap.
#[derive(Debug, Clone)]
pub struct IdleBackoff {
    current: u64,
    min: u64,
    max: u64,
}

impl IdleBackoff {
    /// Backoff starting (and resetting) to `min`, capped at `max`.
    pub fn new(min: u64, max: u64) -> Self {
        IdleBackoff { current: min, min, max }
    }

    /// Call when work was found: reset to the minimum.
    pub fn reset(&mut self) {
        self.current = self.min;
    }

    /// Call when idle: returns the delay to sleep, then doubles it.
    #[allow(clippy::should_implement_trait)] // not an Iterator: never ends
    pub fn next(&mut self) -> u64 {
        let d = self.current;
        self.current = (self.current * 2).min(self.max);
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_config_partitions_cores() {
        let w = WorkerConfig::workers_only(8);
        assert_eq!(w.first_worker(), 0);
        assert_eq!(w.worker_count(), 8);
        let p = WorkerConfig::with_progress(8);
        assert_eq!(p.first_worker(), 1);
        assert_eq!(p.worker_count(), 7);
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let mut b = IdleBackoff::new(100, 1000);
        assert_eq!(b.next(), 100);
        assert_eq!(b.next(), 200);
        assert_eq!(b.next(), 400);
        assert_eq!(b.next(), 800);
        assert_eq!(b.next(), 1000);
        assert_eq!(b.next(), 1000);
        b.reset();
        assert_eq!(b.next(), 100);
    }
}
