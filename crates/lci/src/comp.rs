//! Completion mechanisms: completion queues and synchronizers.
//!
//! The paper's §4 shows the choice of completion mechanism matters:
//! completion queues give a smoother, ~25–30% higher peak 16 KiB message
//! rate than synchronizer pools (Fig. 5/6), because "polling one
//! completion queue leads to fewer CPU cycles and less thread contention
//! than polling a pool of individual requests" (§7.1).

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use bytes::Bytes;
use netsim::NodeId;
use simcore::{CostModel, Sim, SimResource, SimTime};

/// A completion entry delivered to the user: the peer, tag and payload
/// of the operation that finished, and the user context word that tells
/// the caller which operation it was.
#[derive(Debug, Clone)]
pub struct Request {
    /// Peer rank.
    pub rank: NodeId,
    /// Tag of the operation.
    pub tag: u64,
    /// Payload (receives and put-targets; empty otherwise).
    pub data: Bytes,
    /// User context word supplied when the operation was posted.
    pub user: u64,
    /// Wire-arrival instant of the packet that completed this operation
    /// (receives and put-targets; `SimTime::ZERO` for local completions).
    /// Observability only — never feeds back into protocol timing.
    pub arrived: SimTime,
}

// Every completion queue and synchronizer holds these by value.
const _: () = assert!(std::mem::size_of::<Request>() == 64);

/// A multi-producer completion queue.
///
/// Producer and consumer sides share the queue's cache lines, modeled by a
/// single [`SimResource`]: pushing from the progress engine and popping
/// from many worker cores contend realistically.
pub struct CompQueue {
    name: &'static str,
    inner: RefCell<CqInner>,
}

struct CqInner {
    q: std::collections::VecDeque<Request>,
    res: SimResource,
    pushes: u64,
    pops: u64,
}

impl CompQueue {
    /// Create a completion queue.
    pub fn new(name: &'static str, transfer_ns: u64) -> Rc<Self> {
        Rc::new(CompQueue {
            name,
            inner: RefCell::new(CqInner {
                q: std::collections::VecDeque::new(),
                res: SimResource::new("lci.cq", transfer_ns),
                pushes: 0,
                pops: 0,
            }),
        })
    }

    /// Name given at construction.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Push a completion entry from `core`; returns when the core is done.
    pub fn push(&self, sim: &mut Sim, core: usize, cost: &CostModel, req: Request) -> SimTime {
        let mut inner = self.inner.borrow_mut();
        let done = inner.res.access(sim.now(), core, cost.lci_cq_push);
        inner.q.push_back(req);
        inner.pushes += 1;
        sim.stats.bump("lci.cq_push");
        done
    }

    /// Pop one entry from `core`; returns the entry (if any) and when the
    /// core is done. An empty pop still costs (and still touches the
    /// shared cache line).
    pub fn pop(&self, sim: &mut Sim, core: usize, cost: &CostModel) -> (Option<Request>, SimTime) {
        let mut inner = self.inner.borrow_mut();
        let done = inner.res.access(sim.now(), core, cost.lci_cq_pop);
        let item = inner.q.pop_front();
        if item.is_some() {
            inner.pops += 1;
            sim.stats.bump("lci.cq_pop");
        }
        (item, done)
    }

    /// Entries currently queued.
    pub fn len(&self) -> usize {
        self.inner.borrow().q.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total pushes so far.
    pub fn pushes(&self) -> u64 {
        self.inner.borrow().pushes
    }
}

impl fmt::Debug for CompQueue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompQueue").field("name", &self.name).field("len", &self.len()).finish()
    }
}

/// A synchronizer: MPI-request-like completion object, but with the option
/// of multiple producers (`expected` signals before it trips).
pub struct Synchronizer {
    inner: RefCell<SyncInner>,
}

struct SyncInner {
    expected: u64,
    signaled: u64,
    items: Vec<Request>,
    res: SimResource,
}

impl Synchronizer {
    /// Create a synchronizer that trips after `expected` signals.
    pub fn new(expected: u64, transfer_ns: u64) -> Rc<Self> {
        Rc::new(Synchronizer {
            inner: RefCell::new(SyncInner {
                expected,
                signaled: 0,
                items: Vec::new(),
                res: SimResource::new("lci.sync", transfer_ns),
            }),
        })
    }

    /// Producer side: record one completion from `core`.
    pub fn signal(&self, sim: &mut Sim, core: usize, cost: &CostModel, req: Request) -> SimTime {
        let mut inner = self.inner.borrow_mut();
        let done = inner.res.access(sim.now(), core, cost.lci_sync_signal);
        inner.signaled += 1;
        debug_assert!(inner.signaled <= inner.expected, "synchronizer over-signaled");
        inner.items.push(req);
        sim.stats.bump("lci.sync_signal");
        done
    }

    /// Consumer side: poll whether all expected signals arrived.
    pub fn test(&self, sim: &mut Sim, core: usize, cost: &CostModel) -> (bool, SimTime) {
        let mut inner = self.inner.borrow_mut();
        let done = inner.res.access(sim.now(), core, cost.lci_sync_test);
        sim.stats.bump("lci.sync_test");
        (inner.signaled >= inner.expected, done)
    }

    /// Drain the collected completion entries (call once tripped).
    pub fn take_items(&self) -> Vec<Request> {
        std::mem::take(&mut self.inner.borrow_mut().items)
    }

    /// Reset to await `expected` fresh signals (synchronizers are reusable).
    pub fn reset(&self, expected: u64) {
        let mut inner = self.inner.borrow_mut();
        inner.expected = expected;
        inner.signaled = 0;
        inner.items.clear();
    }

    /// Signals received so far.
    pub fn signaled(&self) -> u64 {
        self.inner.borrow().signaled
    }
}

impl fmt::Debug for Synchronizer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("Synchronizer")
            .field("expected", &inner.expected)
            .field("signaled", &inner.signaled)
            .finish()
    }
}

/// Where an operation's completion is delivered. LCI lets users combine
/// any primitive with almost any completion mechanism.
#[derive(Clone)]
pub enum Comp {
    /// Push an entry onto a completion queue.
    Cq(Rc<CompQueue>),
    /// Signal a synchronizer.
    Sync(Rc<Synchronizer>),
    /// Discard the completion.
    None,
}

impl fmt::Debug for Comp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Comp::Cq(cq) => write!(f, "Comp::Cq({})", cq.name()),
            Comp::Sync(_) => write!(f, "Comp::Sync"),
            Comp::None => write!(f, "Comp::None"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(tag: u64) -> Request {
        Request { rank: 0, tag, data: Bytes::new(), user: 0, arrived: SimTime::ZERO }
    }

    #[test]
    fn cq_is_fifo() {
        let mut sim = Sim::new(0);
        let cost = CostModel::default();
        let cq = CompQueue::new("t", 0);
        for t in 0..5 {
            cq.push(&mut sim, 0, &cost, req(t));
        }
        assert_eq!(cq.len(), 5);
        for t in 0..5 {
            let (item, _) = cq.pop(&mut sim, 0, &cost);
            assert_eq!(item.unwrap().tag, t);
        }
        assert!(cq.is_empty());
        assert_eq!(cq.pushes(), 5);
    }

    #[test]
    fn cq_empty_pop_returns_none_but_costs() {
        let mut sim = Sim::new(0);
        let cost = CostModel::default();
        let cq = CompQueue::new("t", 0);
        let (item, done) = cq.pop(&mut sim, 0, &cost);
        assert!(item.is_none());
        assert!(done > sim.now() || done.as_nanos() >= cost.lci_cq_pop);
    }

    #[test]
    fn cq_cross_core_access_pays_transfer() {
        let mut sim = Sim::new(0);
        let cost = CostModel::default();
        let cq = CompQueue::new("t", 500);
        let d0 = cq.push(&mut sim, 0, &cost, req(0));
        let (_, d1) = cq.pop(&mut sim, 1, &cost);
        // pop from another core: queueing behind push + transfer penalty
        assert!(d1 - d0 >= 500);
    }

    #[test]
    fn synchronizer_trips_after_expected_signals() {
        let mut sim = Sim::new(0);
        let cost = CostModel::default();
        let sync = Synchronizer::new(3, 0);
        for i in 0..2 {
            sync.signal(&mut sim, 0, &cost, req(i));
            let (ok, _) = sync.test(&mut sim, 0, &cost);
            assert!(!ok, "must not trip early");
        }
        sync.signal(&mut sim, 0, &cost, req(2));
        let (ok, _) = sync.test(&mut sim, 0, &cost);
        assert!(ok);
        assert_eq!(sync.take_items().len(), 3);
    }

    #[test]
    fn synchronizer_reset_reuses() {
        let mut sim = Sim::new(0);
        let cost = CostModel::default();
        let sync = Synchronizer::new(1, 0);
        sync.signal(&mut sim, 0, &cost, req(0));
        assert!(sync.test(&mut sim, 0, &cost).0);
        sync.reset(2);
        assert!(!sync.test(&mut sim, 0, &cost).0);
        assert_eq!(sync.signaled(), 0);
    }
}
