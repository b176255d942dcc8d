//! The registered packet pool: pre-registered eager buffers.
//!
//! LCI pre-registers a fixed set of medium-message buffers with the NIC.
//! Sends of eager messages must first obtain a packet; when the pool is
//! exhausted the operation fails with `Retry` and the *caller* decides
//! when to retry — part of LCI's "explicit control of communication
//! behaviors and resources" (§2.1). The parcelport exposes the buffer so
//! a header message can be assembled in place, saving one copy (§3.2.1).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use simcore::{CostModel, Sim, SimResource, SimTime};

/// A handle to one registered eager buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketHandle(pub(crate) u32);

/// Fixed-size pool of registered packets.
pub struct PacketPool {
    capacity: usize,
    available: usize,
    res: SimResource,
    next_id: u32,
    /// Buffers still owned by the NIC, returned at these instants
    /// (reclaimed lazily on the next pool access).
    pending_returns: BinaryHeap<Reverse<SimTime>>,
}

impl PacketPool {
    /// Create a pool of `capacity` buffers.
    pub fn new(capacity: usize, transfer_ns: u64) -> Self {
        PacketPool {
            capacity,
            available: capacity,
            res: SimResource::new("lci.packet_pool", transfer_ns),
            next_id: 0,
            pending_returns: BinaryHeap::new(),
        }
    }

    /// Reclaim buffers whose NIC ownership ended by `now`.
    fn reclaim(&mut self, now: SimTime) {
        while let Some(&Reverse(at)) = self.pending_returns.peek() {
            if at <= now {
                self.pending_returns.pop();
                self.available += 1;
                debug_assert!(self.available <= self.capacity);
            } else {
                break;
            }
        }
    }

    /// Try to take a packet from `core`; `None` (plus the time the failed
    /// attempt cost) when exhausted.
    pub fn get(
        &mut self,
        sim: &mut Sim,
        core: usize,
        cost: &CostModel,
    ) -> (Option<PacketHandle>, SimTime) {
        self.reclaim(sim.now());
        let done = self.res.access(sim.now(), core, cost.lci_packet_pool);
        if self.available == 0 {
            sim.stats.bump("lci.pool_exhausted");
            return (None, done);
        }
        self.available -= 1;
        let h = PacketHandle(self.next_id);
        self.next_id = self.next_id.wrapping_add(1);
        (Some(h), done)
    }

    /// Return a packet at a future instant (NIC still owns the buffer
    /// until the wire finishes with it). No CPU cost is charged: the NIC
    /// releases the buffer asynchronously.
    pub fn put_at(&mut self, at: SimTime) {
        assert!(
            self.available + self.pending_returns.len() < self.capacity,
            "double free of pool packet"
        );
        self.pending_returns.push(Reverse(at));
    }

    /// Packets currently free.
    pub fn available(&self) -> usize {
        self.available
    }

    /// Total capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_exhausts_and_recovers() {
        let mut sim = Sim::new(0);
        let cost = CostModel::default();
        let mut pool = PacketPool::new(2, 0);
        assert!(pool.get(&mut sim, 0, &cost).0.is_some());
        assert!(pool.get(&mut sim, 0, &cost).0.is_some());
        assert!(pool.get(&mut sim, 0, &cost).0.is_none());
        assert_eq!(sim.stats.get("lci.pool_exhausted"), 1);
        pool.put_at(sim.now());
        assert!(pool.get(&mut sim, 0, &cost).0.is_some());
        assert_eq!(pool.available(), 0);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut pool = PacketPool::new(1, 0);
        pool.put_at(SimTime::ZERO);
    }

    #[test]
    fn deferred_return_reclaims_lazily() {
        let mut sim = Sim::new(0);
        let cost = CostModel::default();
        let mut pool = PacketPool::new(1, 0);
        pool.get(&mut sim, 0, &cost).0.unwrap();
        pool.put_at(SimTime::from_nanos(500));
        // Before the return instant: still exhausted.
        assert!(pool.get(&mut sim, 0, &cost).0.is_none());
        sim.run_until(SimTime::from_nanos(500));
        assert!(pool.get(&mut sim, 0, &cost).0.is_some());
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn deferred_double_free_panics() {
        let mut pool = PacketPool::new(1, 0);
        let mut sim = Sim::new(0);
        let cost = CostModel::default();
        pool.get(&mut sim, 0, &cost).0.unwrap();
        pool.put_at(SimTime::from_nanos(10));
        pool.put_at(SimTime::from_nanos(20));
    }

    #[test]
    fn handles_are_distinct() {
        let mut sim = Sim::new(0);
        let cost = CostModel::default();
        let mut pool = PacketPool::new(4, 0);
        let a = pool.get(&mut sim, 0, &cost).0.unwrap();
        let b = pool.get(&mut sim, 0, &cost).0.unwrap();
        assert_ne!(a, b);
    }
}
