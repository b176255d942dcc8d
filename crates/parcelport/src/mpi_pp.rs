//! The MPI parcelport (§3.1), improved and original versions.
//!
//! Transfer of one HPX message:
//! 1. The sender allocates a tag from an atomic counter, plans the wire
//!    messages (header + follow-ups, with piggybacking), creates a
//!    *sender connection*, sends the header with MPI tag 0, and posts the
//!    first follow-up send. At most one send is outstanding per
//!    connection; the next is posted when `MPI_Test` reports completion.
//! 2. The receiver always keeps one wildcard receive posted for headers
//!    (maximum header size, tag 0). Background work checks it; on
//!    completion it decodes the header, creates a *receiver connection*,
//!    posts the first follow-up receive, and re-posts the header receive.
//! 3. Both pending-connection lists are protected by an HPX spinlock and
//!    polled round-robin by the background-work function.
//!
//! The *original* version (§3.1, "the original version") differs in two
//! ways, worth ~20% of Octo-Tiger performance:
//! * the header buffer is a fixed 512-byte stack allocation and can only
//!   piggyback the non-zero-copy chunk (never the transmission chunk);
//! * tags are recycled through a "tag release" message from receiver to
//!   sender and a lock-protected free-tag vector, instead of a bare
//!   atomic counter.

use std::collections::VecDeque;
use std::rc::Rc;

use amt::{BgOutcome, DeliverFn, HpxMessage, OnSent, Parcelport};
use bytes::Bytes;
use mpisim::{Comm, Request, ANY_SOURCE};
use simcore::{CostModel, Sim, SimResource, SimTime};

use crate::header::{
    plan_message, HeaderInfo, MessageAssembly, PartId, MAX_HEADER_SIZE, ORIGINAL_HEADER_SIZE,
};

// Headers (and tag-release messages) always go eager, so their sends
// return the null request and nothing is left to take.
const _: () = assert!(MAX_HEADER_SIZE <= mpisim::comm::EAGER_THRESHOLD);

/// MPI tag reserved for header messages.
const TAG_HEADER: u64 = 0;
/// MPI tag reserved for tag-release messages (original version only).
const TAG_RELEASE: u64 = 1;
/// First tag handed out for connections.
const FIRST_TAG: u64 = 2;
/// Tag wrap-around bound (the paper notes the wrap-around safety
/// assumption; see §3.1 "Tag management").
const TAG_LIMIT: u64 = 1 << 20;
/// Pending connections examined per background-work call.
const SCAN_BUDGET: usize = 8;

struct SendConn {
    dest: usize,
    tag: u64,
    parts: VecDeque<(PartId, Bytes)>,
    /// The part send in flight; [`Request::NULL`] when none is.
    outstanding: Request,
    on_sent: Option<OnSent>,
    /// Every part was sent; the connection is retired.
    done: bool,
}

struct RecvConn {
    src: usize,
    tag: u64,
    asm: MessageAssembly,
    outstanding: Request,
    /// Telemetry flow ids claimed from the route registry.
    flows: Vec<u64>,
}

/// The MPI parcelport.
pub struct MpiParcelport {
    comm: Comm,
    cost: Rc<CostModel>,
    deliver: Option<DeliverFn>,
    original: bool,
    /// Atomic tag counter (improved) / fallback counter (original).
    tag_counter: u64,
    tag_res: SimResource,
    /// Free-tag vector of the original version (lock-protected).
    free_tags: Vec<u64>,
    header_req: Option<Request>,
    release_req: Option<Request>,
    send_conns: Vec<SendConn>,
    recv_conns: Vec<RecvConn>,
    /// The spinlock around the pending-connection lists.
    pending_res: SimResource,
    rr_cursor: usize,
    /// Last instant background work accomplished something; workers keep
    /// hot-polling (like the HPX scheduler idle loop) while traffic is
    /// recent, and go quiescent only after a silence window.
    last_activity: SimTime,
    name: String,
}

impl MpiParcelport {
    /// Create the parcelport for one locality. `original` selects the
    /// pre-improvement version.
    pub fn new(comm: Comm, cost: Rc<CostModel>, original: bool, send_immediate: bool) -> Self {
        let transfer = cost.cacheline_transfer;
        let name = format!(
            "{}{}",
            if original { "mpi_orig" } else { "mpi" },
            if send_immediate { "_i" } else { "" }
        );
        MpiParcelport {
            comm,
            deliver: None,
            original,
            tag_counter: FIRST_TAG,
            tag_res: SimResource::new("mpi_pp.tag_counter", transfer),
            free_tags: Vec::new(),
            header_req: None,
            release_req: None,
            send_conns: Vec::new(),
            recv_conns: Vec::new(),
            pending_res: SimResource::new("mpi_pp.pending_list", transfer),
            rr_cursor: 0,
            last_activity: SimTime::ZERO,
            name,
            cost,
        }
    }

    fn max_header(&self) -> usize {
        if self.original {
            ORIGINAL_HEADER_SIZE
        } else {
            MAX_HEADER_SIZE
        }
    }

    fn alloc_tag(&mut self, core: usize, t: SimTime) -> (u64, SimTime) {
        if self.original {
            // Lock-protected free-tag vector; fall back to the counter.
            let t2 = self.tag_res.access(t, core, self.cost.alloc + self.cost.atomic_op);
            if let Some(tag) = self.free_tags.pop() {
                return (tag, t2);
            }
            let tag = self.tag_counter;
            self.tag_counter += 1;
            (tag, t2)
        } else {
            // Bare atomic counter with wrap-around.
            let t2 = self.tag_res.access(t, core, self.cost.atomic_op);
            let tag = self.tag_counter;
            self.tag_counter += 1;
            if self.tag_counter >= TAG_LIMIT {
                self.tag_counter = FIRST_TAG;
            }
            (tag, t2)
        }
    }

    fn ensure_header_recv(&mut self, sim: &mut Sim, core: usize, mut t: SimTime) -> SimTime {
        if self.header_req.is_none() {
            let (req, t2) = self.comm.irecv(sim, core, t, ANY_SOURCE, TAG_HEADER);
            self.header_req = Some(req);
            t = t.max(t2);
        }
        if self.original && self.release_req.is_none() {
            let (req, t2) = self.comm.irecv(sim, core, t, ANY_SOURCE, TAG_RELEASE);
            self.release_req = Some(req);
            t = t.max(t2);
        }
        t
    }

    /// Post sends for a connection until one stays outstanding.
    fn pump_send(&mut self, sim: &mut Sim, core: usize, idx: usize, mut t: SimTime) -> SimTime {
        loop {
            let conn = &mut self.send_conns[idx];
            if !self.comm.is_done(conn.outstanding) {
                return t;
            }
            self.comm.take(conn.outstanding);
            conn.outstanding = Request::NULL;
            match conn.parts.pop_front() {
                Some((_id, data)) => {
                    let (req, t2) = self.comm.isend(sim, core, t, conn.dest, conn.tag, data);
                    t = t.max(t2);
                    conn.outstanding = req;
                }
                None => {
                    // Connection complete: fire on_sent from a fresh event.
                    if let Some(cb) = conn.on_sent.take() {
                        sim.schedule_once_at(t, cb, core as u64);
                    }
                    sim.stats.bump("mpi_pp.send_conn_done");
                    conn.done = true;
                    return t;
                }
            }
        }
    }

    fn handle_header(
        &mut self,
        sim: &mut Sim,
        core: usize,
        src: usize,
        header: Bytes,
        t: SimTime,
        arrived: SimTime,
    ) -> SimTime {
        let t = t + self.cost.pp_header + self.cost.pp_connection;
        let info = HeaderInfo::decode(&header);
        let flows = telemetry::take_route(src, self.comm.rank(), info.tag_base);
        telemetry::flow_mark_many(&flows, telemetry::stage::WIRE, arrived);
        telemetry::flow_mark_many(&flows, telemetry::stage::MATCH, t);
        let tag = info.tag_base;
        if info.is_complete() {
            // Nothing follows: the message is the decoded header.
            let mut msg = info.into_message();
            msg.flows = flows;
            sim.stats.bump("mpi_pp.recv_conn_done");
            let t = self.release_tag(sim, core, src, tag, t);
            if let Some(d) = self.deliver.clone() {
                d(sim, core, t, src, msg);
            }
            return t;
        }
        // Post the first follow-up receive.
        let (outstanding, t2) = self.comm.irecv(sim, core, t, src, tag);
        let asm = MessageAssembly::new(info);
        self.recv_conns.push(RecvConn { src, tag, asm, outstanding, flows });
        t.max(t2)
    }

    /// Original version: notify the sender that `tag` is free again.
    fn release_tag(
        &mut self,
        sim: &mut Sim,
        core: usize,
        src: usize,
        tag: u64,
        t: SimTime,
    ) -> SimTime {
        if !self.original {
            return t;
        }
        let (_, t2) = self.comm.isend(
            sim,
            core,
            t,
            src,
            TAG_RELEASE,
            Bytes::copy_from_slice(&tag.to_le_bytes()),
        );
        sim.stats.bump("mpi_pp.tag_release_sent");
        t.max(t2)
    }

    /// Advance one receiver connection; returns (advanced, new t).
    fn pump_recv(
        &mut self,
        sim: &mut Sim,
        core: usize,
        idx: usize,
        mut t: SimTime,
    ) -> (bool, SimTime) {
        let conn = &mut self.recv_conns[idx];
        if !self.comm.is_done(conn.outstanding) {
            return (false, t);
        }
        let data = self.comm.take(conn.outstanding).data;
        t += self.cost.memcpy(0); // data handed over by reference
        let id = conn.asm.next_part().expect("completion without expectation");
        conn.asm.supply(id, data);
        if !conn.asm.is_complete() {
            let (src, tag) = (conn.src, conn.tag);
            let (req, t2) = self.comm.irecv(sim, core, t, src, tag);
            self.recv_conns[idx].outstanding = req;
            t = t.max(t2);
        } else {
            // Complete: assemble and deliver.
            let conn = self.recv_conns.swap_remove(idx);
            let mut msg = conn.asm.into_message();
            msg.flows = conn.flows;
            sim.stats.bump("mpi_pp.recv_conn_done");
            t = self.release_tag(sim, core, conn.src, conn.tag, t);
            if let Some(d) = self.deliver.clone() {
                d(sim, core, t, conn.src, msg);
            }
        }
        (true, t)
    }
}

impl Parcelport for MpiParcelport {
    fn put_message(
        &mut self,
        sim: &mut Sim,
        core: usize,
        at: SimTime,
        dest: usize,
        mut msg: HpxMessage,
        on_sent: Option<OnSent>,
    ) -> SimTime {
        let t0 = self.ensure_header_recv(sim, core, at.max(sim.now()));
        let (tag, t1) = self.alloc_tag(core, t0);
        let plan = plan_message(&mut msg, tag, self.max_header(), !self.original);
        // Original version: the header buffer is a fixed-size stack copy;
        // improved version allocates dynamically (one alloc charge).
        let t1 = t1
            + self.cost.pp_header
            + self.cost.pp_connection
            + if self.original {
                self.cost.memcpy(ORIGINAL_HEADER_SIZE)
            } else {
                self.cost.alloc + self.cost.memcpy(plan.header.len())
            };
        let (_, t2) = self.comm.isend(sim, core, t1, dest, TAG_HEADER, plan.header);
        let mut t = t1.max(t2);
        telemetry::flow_mark_many(&msg.flows, telemetry::stage::INJECT, t1);
        telemetry::register_route(self.comm.rank(), dest, tag, &msg.flows);
        sim.stats.bump("mpi_pp.messages_posted");

        let parts = plan.parts.into();
        let conn = SendConn { dest, tag, parts, outstanding: Request::NULL, on_sent, done: false };
        // Register in the pending list (spinlock) and pump what we can:
        // eager sends complete at post time, so small messages drain fully
        // right here.
        t = self.pending_res.access(t, core, self.cost.pp_pending_scan);
        self.send_conns.push(conn);
        let idx = self.send_conns.len() - 1;
        t = self.pump_send(sim, core, idx, t);
        self.send_conns.retain(|c| !c.done);
        t
    }

    fn background_work(&mut self, sim: &mut Sim, core: usize) -> BgOutcome {
        let mut t = self.ensure_header_recv(sim, core, sim.now());
        let mut did_work = false;

        // (a) Check the header receive for new incoming HPX messages.
        if let Some(req) = self.header_req {
            let (done, t2) = self.comm.test(sim, core, t, req);
            t = t.max(t2);
            if done {
                did_work = true;
                let header = self.comm.take(req);
                self.header_req = None;
                t = self.ensure_header_recv(sim, core, t);
                t = self.handle_header(sim, core, header.src, header.data, t, header.arrived);
            }
        }

        // (b) Original version: reap tag-release messages.
        if self.original {
            if let Some(req) = self.release_req.filter(|&r| self.comm.is_done(r)) {
                did_work = true;
                let data = self.comm.take(req).data;
                let tag = u64::from_le_bytes(data[..8].try_into().expect("tag"));
                let t2 = self.tag_res.access(t, core, self.cost.alloc);
                self.free_tags.push(tag);
                self.release_req = None;
                t = self.ensure_header_recv(sim, core, t.max(t2));
                sim.stats.bump("mpi_pp.tag_release_reaped");
            }
        }

        // (c) Round-robin over pending connections (spinlock-protected
        // list, bounded scan per call).
        let total = self.send_conns.len() + self.recv_conns.len();
        if total > 0 {
            t = self.pending_res.access(t, core, self.cost.pp_pending_scan);
            let budget = SCAN_BUDGET.min(total);
            for _ in 0..budget {
                let cursor = self.rr_cursor % total;
                self.rr_cursor = self.rr_cursor.wrapping_add(1);
                if cursor < self.send_conns.len() {
                    let before = self.send_conns[cursor].parts.len();
                    let req = self.send_conns[cursor].outstanding;
                    if self.comm.is_done(req) {
                        t = self.pump_send(sim, core, cursor, t);
                        let conn = &self.send_conns[cursor];
                        if conn.parts.len() != before || conn.done {
                            did_work = true;
                        }
                    } else {
                        // One MPI_Test on the outstanding request (this is
                        // where mpi_i burns its time under contention).
                        let (_, t2) = self.comm.test(sim, core, t, req);
                        t = t.max(t2);
                    }
                } else {
                    let idx = cursor - self.send_conns.len();
                    if idx < self.recv_conns.len() {
                        let req = self.recv_conns[idx].outstanding;
                        if !self.comm.is_done(req) {
                            let (_, t2) = self.comm.test(sim, core, t, req);
                            t = t.max(t2);
                        }
                        let (advanced, t2) = self.pump_recv(sim, core, idx, t);
                        t = t2;
                        did_work |= advanced;
                    }
                }
            }
            // Retire completed sender connections.
            self.send_conns.retain(|c| !c.done);
        }

        if did_work {
            self.last_activity = t;
        }
        // While traffic is recent, keep the worker hot-polling — this is
        // what all the idle HPX worker threads do in reality, and it is
        // the lock pressure that makes `mpi_i` collapse on many-core
        // nodes. After a silence window, fall back to the NIC arrival
        // hint so the simulation can quiesce.
        let now = sim.now();
        let hot = now.since(self.last_activity) < 200_000; // 200us epoch
        let retry_at =
            if hot { Some(t + self.cost.idle_poll.max(400)) } else { self.comm.next_arrival() };
        BgOutcome { did_work, cpu_done: t, retry_at, wake_workers: false, completions: 0 }
    }

    fn set_deliver(&mut self, deliver: DeliverFn) {
        self.deliver = Some(deliver);
    }

    fn config_name(&self) -> String {
        self.name.clone()
    }
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;

    use amt::parcel::Parcel;
    use netsim::{Fabric, WireModel};

    use super::*;

    /// Argument sizes of the messages sent: header-only, two eager
    /// zero-copy parts, and one rendezvous (16 KiB) part.
    const ARGS: [&[usize]; 5] = [&[8], &[4096, 4096], &[8], &[16 * 1024], &[8]];
    /// Arguments this long or longer travel as zero-copy parts.
    const ZC_THRESHOLD: usize = 1024;

    /// Send [`ARGS`] from rank 0 to rank 1 and run both parcelports until
    /// they are quiescent. Returns the delivered first bytes in delivery
    /// order, the `on_sent` count, the simulation and the parcelports.
    fn run(original: bool) -> (Vec<u8>, u64, Sim, [MpiParcelport; 2]) {
        let mut sim = Sim::new(3);
        let cost = Rc::new(CostModel::default());
        let fabric = Rc::new(RefCell::new(Fabric::new(2, WireModel::expanse())));
        let mut pps = [0, 1].map(|rank| {
            let comm = Comm::new(rank, fabric.clone(), cost.clone());
            MpiParcelport::new(comm, cost.clone(), original, true)
        });
        let delivered = Rc::new(RefCell::new(Vec::new()));
        let sink = delivered.clone();
        pps[1].set_deliver(Rc::new(move |_sim, _core, _t, src, msg: HpxMessage| {
            assert_eq!(src, 0);
            for p in msg.decode() {
                assert!(p.args.iter().all(|a| a.iter().all(|&b| b == a[0])), "payload intact");
                sink.borrow_mut().push(p.args[0][0]);
            }
        }));
        let sent = Rc::new(RefCell::new(0u64));
        for (id, sizes) in ARGS.iter().enumerate() {
            let args: Vec<Bytes> = sizes.iter().map(|&n| Bytes::from(vec![id as u8; n])).collect();
            let msg = HpxMessage::encode(&[Parcel::new(0, args)], ZC_THRESHOLD);
            let sent = sent.clone();
            let on_sent: OnSent = Box::new(move |_sim, _core| *sent.borrow_mut() += 1);
            pps[0].put_message(&mut sim, 1, SimTime::ZERO, 1, msg, Some(on_sent));
        }
        for _ in 0..10_000 {
            sim.run_until(sim.now() + 1_000);
            for pp in pps.iter_mut() {
                pp.background_work(&mut sim, 1);
            }
            let quiet = pps.iter().all(|pp| pp.send_conns.is_empty() && pp.recv_conns.is_empty());
            if quiet && delivered.borrow().len() == ARGS.len() && sim.events_pending() == 0 {
                break;
            }
        }
        let ids = delivered.borrow().clone();
        let sent = *sent.borrow();
        (ids, sent, sim, pps)
    }

    /// Once a run is quiescent, the only requests left in each
    /// communicator's table are the posted header receives (and the
    /// original version's release receive): every finished request was
    /// taken, and an eager send left none behind.
    #[test]
    fn a_quiescent_run_leaves_only_the_posted_header_receives() {
        for original in [false, true] {
            let name = if original { "mpi_orig" } else { "mpi" };
            let (mut ids, sent, sim, pps) = run(original);
            ids.sort_unstable();
            assert_eq!(ids, (0..ARGS.len() as u8).collect::<Vec<_>>(), "{name}: deliveries");
            assert_eq!(sent, ARGS.len() as u64, "{name}: on_sent callbacks");
            assert_eq!(sim.stats.get("mpi_pp.send_conn_done"), ARGS.len() as u64, "{name}");
            assert_eq!(sim.stats.get("mpi_pp.recv_conn_done"), ARGS.len() as u64, "{name}");
            let header_recvs = if original { 2 } else { 1 };
            for pp in &pps {
                assert!(pp.send_conns.is_empty(), "{name}: send connection left");
                assert!(pp.recv_conns.is_empty(), "{name}: receive connection left");
                assert_eq!(pp.comm.live_requests(), header_recvs, "{name}: requests left");
            }
        }
    }
}
