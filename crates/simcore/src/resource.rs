//! Contended shared resources modeled as serialized service centers.

use crate::probe::{self, Access, AccessKind, UNRESOLVED};
use crate::time::SimTime;

/// A shared mutable software object — a cache line holding an atomic
/// counter, a queue head, a matching-table bucket — modeled as a serialized
/// service center.
///
/// Semantics: each access has a *service time*. Accesses are serialized, so
/// a resource's throughput is capped at `1/service_time` regardless of how
/// many simulated cores hammer it, and concurrent accesses experience
/// queueing delay. When consecutive accesses come from different cores the
/// cache line must migrate, adding `transfer_ns` — so a resource touched by
/// one dedicated core (the paper's pinned progress thread) is cheaper than
/// the same resource shared by all workers (the `mt` variants).
///
/// This is the mechanism behind the paper's observations that "thread
/// contention in the progress engine still makes a great difference when
/// the incoming message rate is high" (§4.1) and that all `mt_i` variants
/// plateau at a common rate.
#[derive(Debug)]
pub struct SimResource {
    name: &'static str,
    next_free: SimTime,
    transfer_ns: u64,
    /// The core that accessed last, or [`NO_OWNER`]; a `u32`, so that it
    /// and `id` share one word.
    owner: u32,
    /// `name`'s keyed id, resolved by the first access a probe observes.
    id: u32,
}

/// `owner` of a resource no core has accessed.
const NO_OWNER: u32 = u32::MAX;

// NICs, switch ports and queues make a resource each: a 64-locality
// federated world builds about 17 000, so their size is heap.
const _: () = assert!(std::mem::size_of::<SimResource>() <= 40);

impl SimResource {
    /// Create a resource. `transfer_ns` is the extra cost paid when the
    /// accessing core differs from the previous one (cache-line migration).
    pub fn new(name: &'static str, transfer_ns: u64) -> Self {
        SimResource { name, next_free: SimTime::ZERO, transfer_ns, owner: NO_OWNER, id: UNRESOLVED }
    }

    /// Name given at construction (for reports).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Perform one access from `core` starting no earlier than `now`, with
    /// base service time `service_ns`. Returns the completion time; the
    /// caller should treat `completion - now` as the time its core spent on
    /// the operation (queueing + transfer + service).
    pub fn access(&mut self, now: SimTime, core: usize, service_ns: u64) -> SimTime {
        let start = now.max(self.next_free);
        assert!(core < NO_OWNER as usize, "{}: core {core} does not fit a packed owner", self.name);
        let core32 = core as u32;
        let mut service = service_ns;
        let mut transferred = false;
        if self.owner != core32 {
            if self.owner != NO_OWNER {
                service += self.transfer_ns;
                transferred = true;
            }
            self.owner = core32;
        }
        let end = start + service;
        self.next_free = end;
        probe::emit(|p| {
            let (label, kind) = (probe::label(self.name, &mut self.id), AccessKind::Resource);
            let (wait_ns, dur_ns) = (start - now, service);
            let contended = wait_ns > 0 || transferred;
            p.access(Access { label, kind, core, now, wait_ns, dur_ns, contended })
        });
        end
    }

    /// Earliest time a new access could begin service.
    pub fn free_at(&self) -> SimTime {
        self.next_free
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::recording::{record, timings};

    fn service_total(seen: &[Access]) -> u64 {
        seen.iter().map(|a| a.dur_ns).sum()
    }

    #[test]
    fn single_owner_pays_no_transfer() {
        let mut r = SimResource::new("ctr", 100);
        let seen = record(|| {
            let t1 = r.access(SimTime::ZERO, 0, 10);
            assert_eq!(t1, SimTime::from_nanos(10));
            let t2 = r.access(t1, 0, 10);
            assert_eq!(t2, SimTime::from_nanos(20));
        });
        assert_eq!(seen.len(), 2);
        assert!(seen.iter().all(|a| a.kind == AccessKind::Resource && !a.contended));
    }

    #[test]
    fn ownership_migration_costs_extra() {
        let mut r = SimResource::new("ctr", 100);
        let mut t = SimTime::ZERO;
        let seen = record(|| {
            r.access(SimTime::ZERO, 0, 10);
            t = r.access(SimTime::from_nanos(10), 1, 10);
        });
        // 10 service + 100 transfer
        assert_eq!(t, SimTime::from_nanos(120));
        assert_eq!(timings(&seen), [(0, 0, 0, 10, false), (1, 10, 0, 110, true)]);
    }

    #[test]
    fn concurrent_accesses_queue() {
        let mut r = SimResource::new("q", 0);
        // Two cores hit the resource at the same instant: second is delayed.
        let (mut a, mut b) = (SimTime::ZERO, SimTime::ZERO);
        let seen = record(|| {
            a = r.access(SimTime::from_nanos(100), 0, 50);
            b = r.access(SimTime::from_nanos(100), 0, 50);
        });
        assert_eq!(a, SimTime::from_nanos(150));
        assert_eq!(b, SimTime::from_nanos(200));
        assert_eq!(timings(&seen), [(0, 100, 0, 50, false), (0, 100, 50, 50, true)]);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Completions are monotone and each access takes at least its
            /// service time, regardless of arrival pattern.
            #[test]
            fn completions_monotone_and_lower_bounded(
                accesses in proptest::collection::vec((0u64..10_000, 0usize..4, 1u64..500), 1..200)
            ) {
                let mut r = SimResource::new("prop", 300);
                let mut last = SimTime::ZERO;
                let mut now = SimTime::ZERO;
                for (gap, core, service) in accesses {
                    now += gap;
                    let done = r.access(now, core, service);
                    prop_assert!(done >= last, "completions must be monotone");
                    prop_assert!(done.since(now) >= service, "service time is a floor");
                    last = done;
                }
            }

            /// Total busy time equals the sum of services plus transfers,
            /// so utilization can never exceed 1 over the busy horizon.
            #[test]
            fn utilization_never_exceeds_one(
                services in proptest::collection::vec(1u64..1000, 1..100)
            ) {
                let mut r = SimResource::new("prop", 0);
                let mut end = SimTime::ZERO;
                let seen = record(|| {
                    for s in &services {
                        end = r.access(SimTime::ZERO, 0, *s);
                    }
                });
                prop_assert!(service_total(&seen) <= end.as_nanos());
                prop_assert_eq!(end.as_nanos(), services.iter().sum::<u64>());
            }
        }
    }

    #[test]
    fn throughput_is_capped_by_service_time() {
        let mut r = SimResource::new("cap", 0);
        let mut t = SimTime::ZERO;
        let seen = record(|| {
            for _ in 0..1000 {
                t = r.access(SimTime::ZERO, 0, 100);
            }
        });
        // 1000 accesses of 100ns each serialize to exactly 100us, busy
        // throughout.
        assert_eq!(t, SimTime::from_micros(100));
        assert_eq!(service_total(&seen), t.as_nanos());
    }
}
