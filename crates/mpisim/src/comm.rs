//! The communicator: two-sided operations serialized by one blocking lock.
//!
//! Its eager threshold and progress burst are constants of the modeled
//! OpenMPI/UCX stack: every configuration in the paper runs it the same.

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;

use bytes::Bytes;
use netsim::{Fabric, NodeId, Packet, PollOutcome};
use simcore::{CostModel, Sim, SimLock, SimTime};

use crate::request::Request;
use crate::ANY_SOURCE;

/// Packet kinds on the wire (private namespace of this library).
mod kind {
    pub const EAGER: u8 = 1;
    pub const RTS: u8 = 3;
    pub const RTR: u8 = 4;
    pub const DATA: u8 = 5;
}

/// Eager/rendezvous switch point (the MPI/UCX "rndv threshold"), bytes.
pub const EAGER_THRESHOLD: usize = 8192;

/// Max packets handled per progress poll.
pub const PROGRESS_BURST: usize = 8;

struct PostedRecv {
    src: NodeId,
    tag: u64,
    req: Request,
}

struct UnexpMsg {
    src: NodeId,
    tag: u64,
    data: Bytes,
    rts: bool,
    imm: u64,
    arrived: SimTime,
}

struct RdvSend {
    dst: NodeId,
    tag: u64,
    data: Bytes,
    req: Request,
}

/// An MPI communicator endpoint for one rank.
///
/// Every public call acquires the global engine lock (see crate docs);
/// the returned `SimTime` is when the calling core gets its CPU back —
/// under contention this includes the full spin/park time on the lock.
pub struct Comm {
    rank: NodeId,
    fabric: Rc<RefCell<Fabric>>,
    cost: Rc<CostModel>,
    lock: SimLock,
    /// Posted receives, searched linearly like a real MPI posted-recv queue.
    posted: Vec<PostedRecv>,
    /// Unexpected messages in arrival order, also searched linearly. A
    /// deque so that the common head match does not shift the backlog;
    /// matches are removed in place, never swapped, because MPI's
    /// non-overtaking rule needs arrival order kept for every (src, tag).
    unexpected: VecDeque<UnexpMsg>,
    rdv_send: HashMap<u64, RdvSend>,
    rdv_recv: HashMap<u64, Request>,
    next_op: u64,
    deferred_scan_ns: u64,
}

impl Comm {
    /// Create the endpoint for `rank`.
    pub fn new(rank: NodeId, fabric: Rc<RefCell<Fabric>>, cost: Rc<CostModel>) -> Self {
        let (handoff, per_waiter) = (cost.mpi_lock_handoff, cost.mpi_lock_per_waiter);
        Comm {
            rank,
            fabric,
            cost,
            lock: SimLock::new("ucp_progress", handoff, per_waiter),
            posted: Vec::new(),
            unexpected: VecDeque::new(),
            rdv_send: HashMap::new(),
            rdv_recv: HashMap::new(),
            next_op: 1,
            deferred_scan_ns: 0,
        }
    }

    /// This endpoint's rank.
    pub fn rank(&self) -> NodeId {
        self.rank
    }

    /// Earliest known future packet arrival at this rank (scheduling
    /// hint for pollers; models the NIC interrupt timestamp).
    pub fn next_arrival(&self) -> Option<SimTime> {
        self.fabric.borrow().next_arrival(self.rank)
    }

    /// Unexpected messages currently buffered (observability).
    pub fn unexpected_messages(&self) -> usize {
        self.unexpected.len()
    }

    fn in_flight_ops(&self) -> usize {
        self.posted.len() + self.rdv_send.len() + self.rdv_recv.len()
    }

    /// Estimated critical-section length of one progress poll. Grows with
    /// the number of in-flight operations the engine must examine — the
    /// paper's "MPI has a difficult time dealing with a large number of
    /// concurrent messages".
    fn progress_hold(&self) -> u64 {
        self.cost.mpi_progress_hold
            + self.cost.mpi_progress_per_op * self.in_flight_ops().min(512) as u64
    }

    /// Extra critical-section time accrued by linear-structure scans
    /// performed while handling arrivals (charged to the next lock hold,
    /// since holds are computed on entry).
    fn take_deferred(&mut self) -> u64 {
        std::mem::take(&mut self.deferred_scan_ns)
    }

    /// Cost of scanning a linear queue up to a match at `pos` (or a full
    /// fruitless scan of `len` entries).
    fn scan_cost(&self, pos: Option<usize>, len: usize) -> u64 {
        let entries = match pos {
            Some(p) => p + 1,
            None => len,
        };
        self.cost.mpi_unexp_scan * entries.min(16 * 8192) as u64
    }

    /// Nonblocking send. Eager sends complete immediately (buffered);
    /// rendezvous sends complete once the receiver pulls the payload.
    pub fn isend(
        &mut self,
        sim: &mut Sim,
        core: usize,
        at: SimTime,
        dst: NodeId,
        tag: u64,
        data: Bytes,
    ) -> (Request, SimTime) {
        let eager = data.len() <= EAGER_THRESHOLD;
        // Progress piggybacks on every call (like UCX); run it first so
        // the packet-handling work it performs is charged to THIS hold.
        self.progress_locked(sim, core);
        let hold = self.cost.mpi_call
            + if eager { self.cost.memcpy(data.len()) } else { 0 }
            + self.take_deferred()
            + self.progress_hold();
        let hold = self.cost.scale_lock_hold(hold);
        let start = at.max(sim.now());
        let grant = self.lock.acquire(core, start, hold);
        sim.stats.bump("mpi.isend");
        telemetry::counter_add_at("mpi.isend_calls", 1, grant.start);
        telemetry::hist_record_at("mpi.lock_wait_ns", grant.start - start, grant.start);
        let req = if eager {
            self.fabric.borrow_mut().send(
                sim,
                core,
                grant.start,
                Packet { src: self.rank, dst, ctx: 0, kind: kind::EAGER, tag, imm: 0, data },
            );
            Request::completed()
        } else {
            let op = self.next_op;
            self.next_op += 1;
            let req = Request::pending();
            let size = data.len();
            self.rdv_send.insert(op, RdvSend { dst, tag, data, req: req.clone() });
            self.fabric.borrow_mut().send(
                sim,
                core,
                grant.start,
                Packet {
                    src: self.rank,
                    dst,
                    ctx: 0,
                    kind: kind::RTS,
                    tag,
                    imm: op,
                    data: Bytes::copy_from_slice(&(size as u64).to_le_bytes()),
                },
            );
            req
        };
        (req, grant.end)
    }

    /// Nonblocking receive from `src` (or [`ANY_SOURCE`]) with tag `tag`.
    pub fn irecv(
        &mut self,
        sim: &mut Sim,
        core: usize,
        at: SimTime,
        src: NodeId,
        tag: u64,
    ) -> (Request, SimTime) {
        self.progress_locked(sim, core);
        // Search the unexpected queue first (linear, like real MPI); the
        // critical-section cost depends on how deep the match sits.
        let pos = self
            .unexpected
            .iter()
            .position(|m| (src == ANY_SOURCE || m.src == src) && m.tag == tag);
        let hold = self.cost.mpi_call
            + self.cost.mpi_match
            + self.scan_cost(pos, self.unexpected.len())
            + self.take_deferred()
            + self.progress_hold();
        let hold = self.cost.scale_lock_hold(hold);
        let start = at.max(sim.now());
        let grant = self.lock.acquire(core, start, hold);
        sim.stats.bump("mpi.irecv");
        telemetry::counter_add_at("mpi.irecv_calls", 1, grant.start);
        telemetry::hist_record_at("mpi.lock_wait_ns", grant.start - start, grant.start);
        let req = Request::pending();
        if let Some(i) = pos {
            let m = self.unexpected.remove(i).expect("matched position is in the queue");
            if m.rts {
                // Late receive for a rendezvous send: answer RTR now.
                let op = self.next_op;
                self.next_op += 1;
                self.rdv_recv.insert(op, req.clone());
                let at = grant.start;
                self.fabric.borrow_mut().send(
                    sim,
                    core,
                    at,
                    Packet {
                        src: self.rank,
                        dst: m.src,
                        ctx: 0,
                        kind: kind::RTR,
                        tag: op,
                        imm: m.imm,
                        data: Bytes::new(),
                    },
                );
            } else {
                sim.stats.bump("mpi.recv_from_unexpected");
                req.set_arrived(m.arrived);
                req.complete(m.src, m.tag, m.data);
            }
        } else {
            self.posted.push(PostedRecv { src, tag, req: req.clone() });
        }
        (req, grant.end)
    }

    /// `MPI_Test`: drive progress, then report whether `req` completed.
    pub fn test(
        &mut self,
        sim: &mut Sim,
        core: usize,
        at: SimTime,
        req: &Request,
    ) -> (bool, SimTime) {
        self.progress_locked(sim, core);
        let hold = self.cost.mpi_call + self.take_deferred() + self.progress_hold();
        let hold = self.cost.scale_lock_hold(hold);
        let start = at.max(sim.now());
        let grant = self.lock.acquire(core, start, hold);
        sim.stats.bump("mpi.test");
        telemetry::counter_add_at("mpi.test_calls", 1, grant.start);
        telemetry::hist_record_at("mpi.lock_wait_ns", grant.start - start, grant.start);
        (req.is_done(), grant.end)
    }

    /// `MPI_Testsome`: one lock acquisition, indices of completed requests.
    pub fn testsome(
        &mut self,
        sim: &mut Sim,
        core: usize,
        at: SimTime,
        reqs: &[Request],
    ) -> (Vec<usize>, SimTime) {
        let hold = self.cost.mpi_call
            + self.take_deferred()
            + self.progress_hold()
            + self.cost.atomic_op * reqs.len().min(64) as u64;
        let hold = self.cost.scale_lock_hold(hold);
        let grant = self.lock.acquire(core, at.max(sim.now()), hold);
        sim.stats.bump("mpi.testsome");
        self.progress_locked(sim, core);
        let done = reqs.iter().enumerate().filter(|(_, r)| r.is_done()).map(|(i, _)| i).collect();
        (done, grant.end)
    }

    /// Progress inside the already-held engine lock.
    fn progress_locked(&mut self, sim: &mut Sim, core: usize) {
        for _ in 0..PROGRESS_BURST {
            let outcome = self.fabric.borrow_mut().poll(sim, core, self.rank);
            match outcome {
                PollOutcome::Empty { .. } => break,
                PollOutcome::Packet { pkt, arrived, .. } => {
                    self.handle_packet(sim, core, pkt, arrived)
                }
            }
        }
    }

    fn match_posted(&mut self, src: NodeId, tag: u64) -> Option<Request> {
        let pos =
            self.posted.iter().position(|p| (p.src == ANY_SOURCE || p.src == src) && p.tag == tag);
        self.deferred_scan_ns += self.scan_cost(pos, self.posted.len());
        let pos = pos?;
        Some(self.posted.remove(pos).req)
    }

    fn handle_packet(&mut self, sim: &mut Sim, core: usize, pkt: Packet, arrived: SimTime) {
        self.deferred_scan_ns += self.cost.mpi_handle_packet;
        match pkt.kind {
            kind::EAGER => match self.match_posted(pkt.src, pkt.tag) {
                Some(req) => {
                    req.set_arrived(arrived);
                    req.complete(pkt.src, pkt.tag, pkt.data)
                }
                None => {
                    sim.stats.bump("mpi.unexpected");
                    self.unexpected.push_back(UnexpMsg {
                        src: pkt.src,
                        tag: pkt.tag,
                        data: pkt.data,
                        rts: false,
                        imm: 0,
                        arrived,
                    });
                }
            },
            kind::RTS => {
                self.deferred_scan_ns += self.cost.mpi_rndv;
                match self.match_posted(pkt.src, pkt.tag) {
                    Some(req) => {
                        let op = self.next_op;
                        self.next_op += 1;
                        self.rdv_recv.insert(op, req);
                        let now = sim.now();
                        self.fabric.borrow_mut().send(
                            sim,
                            core,
                            now,
                            Packet {
                                src: self.rank,
                                dst: pkt.src,
                                ctx: 0,
                                kind: kind::RTR,
                                tag: op,
                                imm: pkt.imm,
                                data: Bytes::new(),
                            },
                        );
                    }
                    None => {
                        sim.stats.bump("mpi.unexpected_rts");
                        self.unexpected.push_back(UnexpMsg {
                            src: pkt.src,
                            tag: pkt.tag,
                            data: Bytes::new(),
                            rts: true,
                            imm: pkt.imm,
                            arrived,
                        });
                    }
                }
            }
            kind::RTR => {
                self.deferred_scan_ns += self.cost.mpi_rndv;
                let s = self.rdv_send.remove(&pkt.imm).expect("RTR for unknown op");
                let now = sim.now();
                self.fabric.borrow_mut().send(
                    sim,
                    core,
                    now,
                    Packet {
                        src: self.rank,
                        dst: s.dst,
                        ctx: 0,
                        kind: kind::DATA,
                        tag: s.tag,
                        imm: pkt.tag,
                        data: s.data,
                    },
                );
                s.req.complete(s.dst, s.tag, Bytes::new());
            }
            kind::DATA => {
                let req = self.rdv_recv.remove(&pkt.imm).expect("DATA for unknown op");
                // UCX copies the staged rendezvous payload into the user
                // buffer inside progress (pack + unpack).
                self.deferred_scan_ns += self.cost.mpi_rndv + 2 * self.cost.memcpy(pkt.data.len());
                req.set_arrived(arrived);
                req.complete(pkt.src, pkt.tag, pkt.data);
            }
            other => panic!("unknown MPI packet kind {other}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::WireModel;

    fn world() -> (Sim, Comm, Comm) {
        let cost = Rc::new(CostModel::default());
        let fabric = Rc::new(RefCell::new(Fabric::new(2, WireModel::expanse())));
        let a = Comm::new(0, fabric.clone(), cost.clone());
        let b = Comm::new(1, fabric, cost);
        (Sim::new(3), a, b)
    }

    fn drive(sim: &mut Sim, c: &mut Comm, req: &Request) {
        for _ in 0..100 {
            sim.run_until(sim.now() + 10_000);
            if c.test(sim, 0, sim.now(), req).0 {
                return;
            }
        }
        panic!("request never completed");
    }

    /// Progress both sides until the rendezvous send and receive complete.
    fn drive_rendezvous(sim: &mut Sim, a: &mut Comm, b: &mut Comm, sreq: &Request, rreq: &Request) {
        for _ in 0..100 {
            sim.run_until(sim.now() + 10_000);
            a.test(sim, 0, sim.now(), sreq);
            b.test(sim, 0, sim.now(), rreq);
            if sreq.is_done() && rreq.is_done() {
                return;
            }
        }
        panic!("rendezvous never completed");
    }

    #[test]
    fn eager_roundtrip() {
        let (mut sim, mut a, mut b) = world();
        let now = sim.now();
        let (rreq, _) = b.irecv(&mut sim, 0, now, 0, 5);
        let now = sim.now();
        let (sreq, _) = a.isend(&mut sim, 0, now, 1, 5, Bytes::from_static(b"mpi"));
        assert!(sreq.is_done(), "eager send completes immediately");
        drive(&mut sim, &mut b, &rreq);
        assert_eq!(rreq.take_data().as_ref(), b"mpi");
        assert_eq!(rreq.source(), 0);
    }

    #[test]
    fn unexpected_then_recv() {
        let (mut sim, mut a, mut b) = world();
        let now = sim.now();
        a.isend(&mut sim, 0, now, 1, 9, Bytes::from_static(b"early"));
        sim.run_until(SimTime::from_millis(1));
        // Pump progress so the message lands in the unexpected queue.
        let dummy = Request::completed();
        let now = sim.now();
        b.test(&mut sim, 0, now, &dummy);
        assert_eq!(b.unexpected_messages(), 1);
        let now = sim.now();
        let (rreq, _) = b.irecv(&mut sim, 0, now, ANY_SOURCE, 9);
        assert!(rreq.is_done());
        assert_eq!(rreq.take_data().as_ref(), b"early");
    }

    #[test]
    fn rendezvous_roundtrip() {
        let (mut sim, mut a, mut b) = world();
        let payload = Bytes::from(vec![5u8; 16 * 1024]);
        let now = sim.now();
        let (rreq, _) = b.irecv(&mut sim, 0, now, 0, 2);
        let now = sim.now();
        let (sreq, _) = a.isend(&mut sim, 0, now, 1, 2, payload.clone());
        assert!(!sreq.is_done(), "rendezvous send is not complete at post");
        drive_rendezvous(&mut sim, &mut a, &mut b, &sreq, &rreq);
        assert_eq!(rreq.take_data(), payload);
    }

    #[test]
    fn rendezvous_send_before_recv() {
        let (mut sim, mut a, mut b) = world();
        let payload = Bytes::from(vec![6u8; 32 * 1024]);
        let now = sim.now();
        let (sreq, _) = a.isend(&mut sim, 0, now, 1, 4, payload.clone());
        sim.run_until(SimTime::from_millis(1));
        let dummy = Request::completed();
        let now = sim.now();
        b.test(&mut sim, 0, now, &dummy);
        assert_eq!(b.unexpected_messages(), 1, "RTS buffered as unexpected");
        let now = sim.now();
        let (rreq, _) = b.irecv(&mut sim, 0, now, ANY_SOURCE, 4);
        drive_rendezvous(&mut sim, &mut a, &mut b, &sreq, &rreq);
        assert_eq!(rreq.take_data(), payload);
    }

    #[test]
    fn unexpected_match_preserves_arrival_order_and_charges_depth() {
        let (mut sim, mut a, mut b) = world();
        for (tag, payload) in [(1, "1a"), (2, "2a"), (3, "3"), (2, "2b"), (1, "1b")] {
            let now = sim.now();
            a.isend(&mut sim, 0, now, 1, tag, Bytes::from_static(payload.as_bytes()));
        }
        let big = Bytes::from(vec![7u8; 16 * 1024]);
        let now = sim.now();
        let (sreq, _) = a.isend(&mut sim, 0, now, 1, 2, big.clone());
        sim.run_until(SimTime::from_millis(1));
        let now = sim.now();
        b.test(&mut sim, 0, now, &Request::completed());
        assert_eq!(b.unexpected_messages(), 6, "five eager messages and one RTS buffered");

        // Each receive starts on an idle lock, so the CPU time it returns is
        // exactly its hold.
        fn recv(sim: &mut Sim, b: &mut Comm, tag: u64) -> (Request, u64) {
            sim.run_until(sim.now() + 100_000);
            let now = sim.now();
            let (req, end) = b.irecv(sim, 0, now, ANY_SOURCE, tag);
            (req, end - now)
        }
        // Queue: [1a 2a 3 2b 1b RTS(2)].
        let (r, deep) = recv(&mut sim, &mut b, 2);
        assert_eq!(r.take_data().as_ref(), b"2a");
        // [1a 3 2b 1b RTS(2)].
        let (r, _) = recv(&mut sim, &mut b, 2);
        assert_eq!(r.take_data().as_ref(), b"2b", "tag 2 keeps arrival order");
        // [1a 3 1b RTS(2)]: a head match.
        let (r, head) = recv(&mut sim, &mut b, 1);
        assert_eq!(r.take_data().as_ref(), b"1a");
        assert_eq!(deep - head, CostModel::default().mpi_unexp_scan, "one entry deeper");
        // [3 1b RTS(2)].
        let (r, _) = recv(&mut sim, &mut b, 1);
        assert_eq!(r.take_data().as_ref(), b"1b", "tag 1 keeps arrival order");
        // [3 RTS(2)]: the RTS matches behind the tag-3 message.
        let (rreq, rts_hold) = recv(&mut sim, &mut b, 2);
        assert!(!rreq.is_done(), "an RTS match starts the rendezvous");
        assert_eq!(rts_hold, deep, "the RTS sits at position 1");
        assert_eq!(b.unexpected_messages(), 1);
        drive_rendezvous(&mut sim, &mut a, &mut b, &sreq, &rreq);
        assert_eq!(rreq.take_data(), big);
    }

    #[test]
    fn wildcard_recv_reports_actual_source() {
        let (mut sim, mut a, mut b) = world();
        let now = sim.now();
        let (rreq, _) = b.irecv(&mut sim, 0, now, ANY_SOURCE, 0);
        let now = sim.now();
        a.isend(&mut sim, 0, now, 1, 0, Bytes::from_static(b"w"));
        drive(&mut sim, &mut b, &rreq);
        assert_eq!(rreq.source(), 0);
    }

    #[test]
    fn tag_separation() {
        let (mut sim, mut a, mut b) = world();
        let now = sim.now();
        let (r1, _) = b.irecv(&mut sim, 0, now, 0, 1);
        let now = sim.now();
        let (r2, _) = b.irecv(&mut sim, 0, now, 0, 2);
        let now = sim.now();
        a.isend(&mut sim, 0, now, 1, 2, Bytes::from_static(b"two"));
        let now = sim.now();
        a.isend(&mut sim, 0, now, 1, 1, Bytes::from_static(b"one"));
        for _ in 0..100 {
            sim.run_until(sim.now() + 10_000);
            let now = sim.now();
            b.test(&mut sim, 0, now, &r1);
            if r1.is_done() && r2.is_done() {
                break;
            }
        }
        assert_eq!(r1.take_data().as_ref(), b"one");
        assert_eq!(r2.take_data().as_ref(), b"two");
    }

    #[test]
    fn lock_convoy_grows_cpu_time() {
        let (mut sim, _a, mut b) = world();
        let dummy = Request::pending();
        // One caller, uncontended: cheap.
        let now = sim.now();
        let (_, t1) = b.test(&mut sim, 0, now, &dummy);
        let solo = t1 - sim.now();
        // Many "threads" piling on at the same instant: each successive
        // caller waits longer (convoy).
        let mut waits = Vec::new();
        for core in 0..8 {
            let now = sim.now();
            let (_, done) = b.test(&mut sim, core, now, &dummy);
            waits.push(done - sim.now());
        }
        assert!(waits[7] > waits[1], "later callers wait longer: {waits:?}");
        assert!(waits[7] > solo * 4, "contention dominates solo cost");
    }

    #[test]
    fn testsome_reports_completed_indices() {
        let (mut sim, mut a, mut b) = world();
        let now = sim.now();
        let (r1, _) = b.irecv(&mut sim, 0, now, 0, 1);
        let now = sim.now();
        let (r2, _) = b.irecv(&mut sim, 0, now, 0, 2);
        let now = sim.now();
        a.isend(&mut sim, 0, now, 1, 1, Bytes::from_static(b"x"));
        sim.run_until(SimTime::from_millis(1));
        let now = sim.now();
        let (done, _) = b.testsome(&mut sim, 0, now, &[r1.clone(), r2.clone()]);
        assert_eq!(done, vec![0]);
        assert!(r1.is_done());
        assert!(!r2.is_done());
    }
}
