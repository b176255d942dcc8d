//! # simcore — deterministic discrete-event simulation engine
//!
//! This crate is the execution substrate for the whole reproduction. The
//! paper ("The LCI parcelport of HPX", SC-W 2023) evaluates a network
//! software stack on two multi-core cluster nodes; its results are
//! throughput/latency consequences of contention on *software* resources
//! (blocking progress locks, matching tables, completion queues, shared
//! atomic counters). We reproduce those effects with a deterministic
//! discrete-event simulation (DES):
//!
//! * [`Sim`] owns a virtual nanosecond clock and an event heap. Events are
//!   closures ordered by `(time, sequence-number)`, so runs are exactly
//!   reproducible.
//! * [`CoreClock`] models a CPU core: work *charges* virtual time; a core is
//!   busy until its accumulated charges elapse.
//! * [`SimResource`] models a contended cache line / queue / table as a
//!   serialized service center: operations have a service time, concurrent
//!   accesses queue, and ownership migration between cores pays a transfer
//!   penalty. This is what makes "all worker threads call progress" saturate
//!   the progress engine exactly as the paper observes.
//! * [`SimLock`] models a *coarse-grained blocking lock* (the
//!   `ucp_progress` lock inside MPI/UCX) with a handoff convoy cost that
//!   grows with the number of waiters — reproducing the MPI parcelport
//!   collapse under high injection pressure. [`SimTryLock`] models the
//!   fine-grained try-locks LCI uses instead.
//! * [`CostModel`] centralizes every per-operation virtual-time charge so
//!   platform presets (SDSC Expanse, Rostam) are one value-set away.
//!
//! All protocol logic, codecs and application code built on top of this
//! engine are real, synchronously-executed Rust — only **time** is virtual.

pub mod blocks;
pub mod causal;
pub mod cost;
pub mod event;
pub mod json;
pub mod keyed;
pub mod lock;
pub mod probe;
pub mod resource;
pub mod shard;
pub mod sim;
pub mod slab;
pub mod stats;
pub mod time;
pub mod varint;

pub use blocks::Blocks;
pub use causal::CausalLog;
pub use cost::CostModel;
pub use event::{ClosureFn, EventHandler, EventId, HandlerId, OnceFn};
pub use json::escape_json;
pub use keyed::Keyed;
pub use lock::{SimLock, SimTryLock, TryAcquire};
pub use probe::Probe;
pub use resource::SimResource;
pub use shard::{
    LaneCtx, LaneId, RunMode, RunReport, ShardActor, ShardEventId, ShardedSim, LANE_SHIFT,
};
pub use sim::Sim;
pub use slab::Slab;
pub use stats::Stats;
pub use time::SimTime;

/// A simulated CPU core's private clock.
///
/// A core executes one activity at a time; each activity charges virtual
/// time. `free_at` is the earliest instant the core can begin new work.
/// Higher layers (the AMT scheduler) drive cores with tick events: run one
/// piece of work, charge its cost, schedule the next tick at `free_at`.
#[derive(Debug, Clone)]
pub struct CoreClock {
    /// Stable identifier of this core within its locality.
    pub id: usize,
    /// Earliest virtual time at which the core can start new work.
    pub free_at: SimTime,
    /// Total virtual time this core has spent doing charged work.
    pub busy_ns: u64,
    /// Number of work items executed.
    pub work_items: u64,
}

impl CoreClock {
    /// Create a core that is free immediately.
    pub fn new(id: usize) -> Self {
        CoreClock { id, free_at: SimTime::ZERO, busy_ns: 0, work_items: 0 }
    }

    /// Begin a work item at `now`; returns the start time,
    /// i.e. `max(now, free_at)`.
    pub fn begin(&mut self, now: SimTime) -> SimTime {
        let start = now.max(self.free_at);
        self.work_items += 1;
        start
    }

    /// Charge `charged_ns` of work ending at `end`; marks the core busy
    /// until `end`.
    pub fn complete(&mut self, end: SimTime, charged_ns: u64) {
        debug_assert!(end >= self.free_at, "core time must be monotone");
        self.busy_ns += charged_ns;
        self.free_at = end;
    }

    /// Convenience: run a work item starting no earlier than `now`, lasting
    /// `cost` ns; returns the completion time.
    pub fn charge(&mut self, now: SimTime, cost: u64) -> SimTime {
        let start = self.begin(now);
        let end = start + cost;
        self.complete(end, cost);
        end
    }

    /// Utilization over the window `[0, now]`.
    pub fn utilization(&self, now: SimTime) -> f64 {
        if now.as_nanos() == 0 {
            0.0
        } else {
            self.busy_ns as f64 / now.as_nanos() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_clock_charges_accumulate() {
        let mut c = CoreClock::new(0);
        let t1 = c.charge(SimTime::from_nanos(100), 50);
        assert_eq!(t1, SimTime::from_nanos(150));
        // Starting "earlier" than free_at waits for the core.
        let t2 = c.charge(SimTime::from_nanos(120), 30);
        assert_eq!(t2, SimTime::from_nanos(180));
        assert_eq!(c.busy_ns, 80);
        assert_eq!(c.work_items, 2);
    }

    #[test]
    fn core_clock_utilization() {
        let mut c = CoreClock::new(1);
        c.charge(SimTime::ZERO, 500);
        assert!((c.utilization(SimTime::from_nanos(1000)) - 0.5).abs() < 1e-12);
        assert_eq!(c.utilization(SimTime::ZERO), 0.0);
    }
}
