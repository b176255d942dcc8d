//! Lock models: the coarse-grained blocking lock (MPI/UCX `ucp_progress`)
//! and the fine-grained try-lock (LCI progress engine).

use std::collections::VecDeque;

use crate::probe::{self, Access, AccessKind, UNRESOLVED};
use crate::time::SimTime;

/// Result of [`SimTryLock::try_acquire`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryAcquire {
    /// The lock was free; the caller holds it until `until`.
    Acquired {
        /// Instant the caller's critical section ends.
        until: SimTime,
    },
    /// The lock is held; caller should do something else and maybe retry.
    Busy {
        /// Instant the current holder releases.
        free_at: SimTime,
    },
}

/// A *blocking* mutex with convoy behaviour, modeled in virtual time.
///
/// This reproduces the pathology the paper profiles in §5: Octo-Tiger with
/// `mpi_i` on the 128-core Expanse nodes "spent the vast majority of time
/// inside the `MPI_Test` function, spinning on the blocking lock of the
/// `ucp_progress` function". Each acquisition pays a handoff cost, and the
/// handoff gets more expensive as more cores pile up behind the lock
/// (waking a parked thread, re-warming its cache). Throughput through the
/// critical section therefore *degrades* as pressure rises — giving the
/// characteristic rise-then-fall message-rate curve of the `mpi` variants
/// (Fig. 1) rather than a flat plateau.
///
/// Because critical-section durations are known when the holder enters,
/// the lock can be simulated time-based: `acquire` immediately computes
/// when the caller will be granted the lock and when it will release it.
/// The caller's simulated core is busy (spinning/parked) for the whole
/// wait.
#[derive(Debug)]
pub struct SimLock {
    name: &'static str,
    /// `name`'s keyed id, resolved by the first access a probe observes.
    id: u32,
    next_free: SimTime,
    /// Completion times of currently-granted critical sections, used to
    /// count how many cores are queued at a given instant.
    grants: VecDeque<SimTime>,
    /// Per-core end of the previous grant: a core cannot request the lock
    /// again before its previous critical section finished, no matter how
    /// many operations its current event batches together. Indexed by
    /// core, grown on a core's first acquire.
    core_last_end: Vec<SimTime>,
    base_handoff_ns: u64,
    per_waiter_ns: u64,
}

/// Outcome of [`SimLock::acquire`]: when the critical section runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grant {
    /// Instant the caller obtains the lock (its core spins until then).
    pub start: SimTime,
    /// Instant the caller releases the lock (`start + hold`).
    pub end: SimTime,
    /// Number of earlier holders/waiters the caller queued behind.
    pub queued_behind: usize,
}

impl SimLock {
    /// Create a blocking lock. `base_handoff_ns` is paid on every contended
    /// acquisition; `per_waiter_ns` is added per core already queued.
    pub fn new(name: &'static str, base_handoff_ns: u64, per_waiter_ns: u64) -> Self {
        SimLock {
            name,
            id: UNRESOLVED,
            next_free: SimTime::ZERO,
            grants: VecDeque::new(),
            core_last_end: Vec::new(),
            base_handoff_ns,
            per_waiter_ns,
        }
    }

    /// Name given at construction (for reports).
    pub fn name(&self) -> &'static str {
        self.name
    }

    fn expire(&mut self, now: SimTime) {
        while let Some(&front) = self.grants.front() {
            if front <= now {
                self.grants.pop_front();
            } else {
                break;
            }
        }
    }

    /// Acquire from `core` at `now`, holding for `hold_ns`. The caller's
    /// core must be treated as busy from `now` until `Grant::end`. The
    /// request time is clamped to the end of this core's previous grant
    /// (one core, one outstanding lock slot).
    pub fn acquire(&mut self, core: usize, now: SimTime, hold_ns: u64) -> Grant {
        if core >= self.core_last_end.len() {
            self.core_last_end.resize(core + 1, SimTime::ZERO);
        }
        let now = now.max(self.core_last_end[core]);
        self.expire(now);
        let queued = self.grants.len();
        let contended = self.next_free > now;
        let handoff =
            if contended { self.base_handoff_ns + self.per_waiter_ns * queued as u64 } else { 0 };
        let start = now.max(self.next_free) + handoff;
        let end = start + hold_ns;
        self.next_free = end;
        self.grants.push_back(end);
        self.core_last_end[core] = end;
        probe::emit(|p| {
            let (label, kind) = (probe::label(self.name, &mut self.id), AccessKind::Lock);
            let wait_ns = start - now;
            p.access(Access { label, kind, core, now, wait_ns, dur_ns: hold_ns, contended })
        });
        Grant { start, end, queued_behind: queued }
    }

    /// Earliest instant the lock becomes free, as of the last acquisition.
    pub fn free_at(&self) -> SimTime {
        self.next_free
    }
}

/// A fine-grained try-lock: never blocks, never convoys.
///
/// LCI "uses atomic operations and fine-grained try locks extensively
/// instead of coarse-grained blocking locks" (§2.1). A failed try returns
/// immediately with the holder's release time so the caller can go do
/// other work — exactly how the thread-safe LCI progress function behaves.
#[derive(Debug)]
pub struct SimTryLock {
    name: &'static str,
    /// `name`'s keyed id, resolved by the first attempt a probe observes.
    id: u32,
    next_free: SimTime,
}

impl SimTryLock {
    /// Create a try-lock.
    pub fn new(name: &'static str) -> Self {
        SimTryLock { name, id: UNRESOLVED, next_free: SimTime::ZERO }
    }

    /// Name given at construction (for reports).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Attempt to take the lock from `core` at `now` for `hold_ns`.
    pub fn try_acquire(&mut self, core: usize, now: SimTime, hold_ns: u64) -> TryAcquire {
        // A failed try never waits, which is the point of the LCI design:
        // it holds nothing and counts as contention.
        let busy = self.next_free > now;
        probe::emit(|p| {
            let (label, kind) = (probe::label(self.name, &mut self.id), AccessKind::TryLock);
            let dur_ns = if busy { 0 } else { hold_ns };
            p.access(Access { label, kind, core, now, wait_ns: 0, dur_ns, contended: busy })
        });
        if busy {
            return TryAcquire::Busy { free_at: self.next_free };
        }
        self.next_free = now + hold_ns;
        TryAcquire::Acquired { until: self.next_free }
    }

    /// Extend the current hold (holder only): used when the critical
    /// section turns out longer than first charged.
    pub fn extend(&mut self, until: SimTime) {
        debug_assert!(until >= self.next_free);
        self.next_free = until;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::recording::{record, timings};

    #[test]
    fn uncontended_acquire_is_free() {
        let mut l = SimLock::new("ucp", 500, 200);
        let mut g = None;
        let seen = record(|| g = Some(l.acquire(0, SimTime::from_nanos(10), 100)));
        let g = g.unwrap();
        assert_eq!(g.start, SimTime::from_nanos(10));
        assert_eq!(g.end, SimTime::from_nanos(110));
        assert_eq!(g.queued_behind, 0);
        assert_eq!(timings(&seen), [(0, 10, 0, 100, false)]);
        assert_eq!((seen[0].label.name, seen[0].kind), ("ucp", AccessKind::Lock));
    }

    #[test]
    fn contended_acquire_pays_handoff() {
        let mut l = SimLock::new("ucp", 500, 200);
        let (mut g1, mut g2) = (None, None);
        let seen = record(|| {
            g1 = Some(l.acquire(0, SimTime::ZERO, 100));
            g2 = Some(l.acquire(1, SimTime::from_nanos(50), 100));
        });
        let (g1, g2) = (g1.unwrap(), g2.unwrap());
        // queued behind 1 holder: start = 100 (free) + 500 + 200*1
        assert_eq!(g2.start, SimTime::from_nanos(800));
        assert_eq!(g2.queued_behind, 1);
        assert!(g2.start > g1.end);
        // The reported wait covers the holder's remaining 50 ns and the
        // 700 ns handoff.
        assert_eq!(timings(&seen), [(0, 0, 0, 100, false), (1, 50, 750, 100, true)]);
    }

    #[test]
    fn convoy_grows_with_waiters() {
        let mut l = SimLock::new("ucp", 100, 100);
        l.acquire(0, SimTime::ZERO, 1000);
        let g2 = l.acquire(1, SimTime::ZERO, 1000);
        let g3 = l.acquire(2, SimTime::ZERO, 1000);
        let g4 = l.acquire(3, SimTime::ZERO, 1000);
        let w2 = g2.start.as_nanos();
        let w3 = g3.start.as_nanos() - g2.end.as_nanos();
        let w4 = g4.start.as_nanos() - g3.end.as_nanos();
        // Per-acquisition handoff overhead strictly increases with queue depth.
        assert!(w3 > w2 - 1000 || w4 > w3, "handoff should grow: {w2} {w3} {w4}");
        assert_eq!(g4.queued_behind, 3);
    }

    #[test]
    fn lock_frees_after_holders_finish() {
        let mut l = SimLock::new("ucp", 500, 200);
        let g = l.acquire(0, SimTime::ZERO, 100);
        // Well after the hold ends the lock is uncontended again.
        let g2 = l.acquire(1, g.end + 10_000, 100);
        assert_eq!(g2.queued_behind, 0);
        assert_eq!(g2.start, g.end + 10_000);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Critical sections never overlap: each grant starts at or
            /// after the previous grant's end.
            #[test]
            fn grants_never_overlap(
                reqs in proptest::collection::vec((0u64..5_000, 0usize..8, 1u64..2_000), 1..100)
            ) {
                let mut l = SimLock::new("prop", 120, 40);
                let mut now = SimTime::ZERO;
                let mut prev_end = SimTime::ZERO;
                for (gap, core, hold) in reqs {
                    now += gap;
                    let g = l.acquire(core, now, hold);
                    prop_assert!(g.start >= prev_end, "critical sections overlap");
                    prop_assert_eq!(g.end, g.start + hold);
                    prev_end = g.end;
                }
            }

            /// A core can never hold two outstanding grants: its next
            /// grant starts no earlier than its previous grant ended.
            #[test]
            fn per_core_grants_serialize(
                core in 0usize..64,
                holds in proptest::collection::vec(1u64..1_000, 2..50)
            ) {
                let mut l = SimLock::new("prop", 50, 10);
                let mut last_end = SimTime::ZERO;
                for h in holds {
                    let g = l.acquire(core, SimTime::ZERO, h);
                    prop_assert!(g.start >= last_end);
                    last_end = g.end;
                }
            }
        }
    }

    #[test]
    fn trylock_success_and_failure() {
        let mut l = SimTryLock::new("progress");
        let seen = record(|| trylock_sequence(&mut l));
        let tries = [(0, 0, 0, 100, false), (1, 50, 0, 0, true), (0, 100, 0, 100, false)];
        assert_eq!(timings(&seen), tries);
        assert!(seen.iter().all(|a| a.kind == AccessKind::TryLock));
    }

    fn trylock_sequence(l: &mut SimTryLock) {
        match l.try_acquire(0, SimTime::ZERO, 100) {
            TryAcquire::Acquired { until } => assert_eq!(until, SimTime::from_nanos(100)),
            _ => panic!("should acquire"),
        }
        match l.try_acquire(1, SimTime::from_nanos(50), 100) {
            TryAcquire::Busy { free_at } => assert_eq!(free_at, SimTime::from_nanos(100)),
            _ => panic!("should be busy"),
        }
        match l.try_acquire(0, SimTime::from_nanos(100), 100) {
            TryAcquire::Acquired { .. } => {}
            _ => panic!("should acquire after release"),
        }
    }
}
