//! The LCI parcelport (§3.2) and its research variants.
//!
//! Baseline (`lci_psr_cq_pin_i`):
//! * **Header**: assembled directly in an LCI-allocated registered buffer
//!   (saving one copy) and transferred with the one-sided *dynamic put*;
//!   the target buffer is allocated by the LCI runtime on arrival and an
//!   entry lands in a pre-configured remote completion queue.
//! * **Follow-ups**: medium sends below the eager threshold, long
//!   (rendezvous) sends above it; a *distinct tag per follow-up message*
//!   because LCI does not guarantee in-order delivery.
//! * **Completion**: completion queues — no pending-connection list to
//!   scan round-robin; worker background work just pops queues.
//! * **Progress**: a dedicated progress thread created via the HPX
//!   resource partitioner and pinned at core 0.
//!
//! Variant axes (§3.2.2): `sendrecv` replaces the header put with a
//! two-sided send matched by an always-posted wildcard receive (like the
//! MPI parcelport); `sync` replaces completion queues with synchronizers
//! in a round-robin-polled pending list (the header put still completes
//! to a queue — the current LCI only supports a pre-configured CQ as the
//! remote completion object); `worker`/`mt` drops the progress thread and
//! lets idle workers call the (try-lock guarded) progress function.

use std::collections::VecDeque;
use std::rc::Rc;

use amt::{BgOutcome, DeliverFn, HpxMessage, OnSent, Parcelport};
use bytes::Bytes;
use lci::{Comp, CompQueue, Device, Error, ProgressOutcome, Request, Synchronizer, ANY_SOURCE};
use simcore::{CostModel, Sim, SimResource, SimTime, Slab};

use crate::config::{Backend, Completion, LciConfig, PpConfig, Progress, Protocol};
use crate::header::{plan_message, HeaderInfo, MessageAssembly, PartId, MAX_HEADER_SIZE};

/// Tag reserved for header messages (sendrecv protocol).
const TAG_HEADER: u64 = 0;
/// First tag handed out to connections.
const FIRST_TAG: u64 = 16;
/// Tag wrap-around bound (same safety assumption as the MPI parcelport).
const TAG_LIMIT: u64 = 1 << 40;
/// Completion entries processed per background-work call.
const REAP_BUDGET: usize = 8;

/// Completion-key encoding: `key = conn_key << 2 | kind`, where
/// `conn_key` is the connection's [`Slab`] key (below 2^62).
mod kind {
    pub const SEND_PART: u64 = 0;
    pub const RECV_PART: u64 = 1;
    pub const HEADER_RECV: u64 = 2;
}

struct LSendConn {
    dest: usize,
    tag_base: u64,
    header: Option<Bytes>,
    parts: VecDeque<(PartId, Bytes)>,
    awaiting: bool,
    on_sent: Option<OnSent>,
    /// Which LCI device carries this connection (multi-device mode).
    dev: usize,
    /// Telemetry flow ids of the message (empty when disabled).
    flows: Vec<u64>,
}

struct LRecvConn {
    src: usize,
    tag_base: u64,
    expected: VecDeque<PartId>,
    asm: MessageAssembly,
    /// Device the header arrived on; follow-ups use the same context.
    dev: usize,
    /// Telemetry flow ids claimed from the route registry.
    flows: Vec<u64>,
}

/// The LCI parcelport.
pub struct LciParcelport {
    /// One or more LCI devices. One is the paper's configuration; more
    /// implements the §7.2 future work ("replicating low-level network
    /// resources"), one network context per device.
    devs: Vec<Device>,
    cfg: LciConfig,
    cost: Rc<CostModel>,
    deliver: Option<DeliverFn>,
    /// Remote completion queues for header puts, one per device.
    rcqs: Vec<Rc<CompQueue>>,
    /// Completion queue for send/receive completions (cq completion type).
    ccq: Rc<CompQueue>,
    /// Pending synchronizer list (sync completion type), polled
    /// round-robin under a lock like the MPI pending-connection list.
    pending_syncs: Vec<(u64, Rc<Synchronizer>)>,
    sync_res: SimResource,
    sync_cursor: usize,
    /// Connections in flight, keyed by the id their completions carry.
    send_conns: Slab<LSendConn>,
    recv_conns: Slab<LRecvConn>,
    /// Connection sequence number: one per send and one per multi-part
    /// receive. A send's sequence number picks its device.
    next_conn: u64,
    tag_counter: u64,
    tag_res: SimResource,
    /// Send connections that hit `Retry` (packet pool exhausted).
    retry_queue: VecDeque<u64>,
    header_recv_posted: bool,
    /// Round-robin cursor for the dedicated progress thread over devices.
    progress_cursor: usize,
    name: String,
}

impl LciParcelport {
    /// Create the parcelport for one locality over `devs`, one per
    /// network context; connections spread round-robin over them. Each
    /// device's remote CQ is configured here.
    pub fn new(
        mut devs: Vec<Device>,
        cost: Rc<CostModel>,
        cfg: LciConfig,
        send_immediate: bool,
    ) -> Self {
        assert!(!devs.is_empty());
        let transfer = cost.cacheline_transfer;
        let mut rcqs = Vec::new();
        for d in devs.iter_mut() {
            let rcq = CompQueue::new("lci_pp.rcq", transfer);
            d.set_remote_cq(rcq.clone());
            rcqs.push(rcq);
        }
        let ccq = CompQueue::new("lci_pp.ccq", transfer);
        let pp = PpConfig { backend: Backend::Lci(cfg), send_immediate };
        let name = if devs.len() > 1 { format!("{pp}_d{}", devs.len()) } else { pp.to_string() };
        LciParcelport {
            devs,
            cfg,
            deliver: None,
            rcqs,
            ccq,
            pending_syncs: Vec::new(),
            sync_res: SimResource::new("lci_pp.sync_list", transfer),
            sync_cursor: 0,
            send_conns: Slab::new(),
            recv_conns: Slab::new(),
            next_conn: 1,
            tag_counter: FIRST_TAG,
            tag_res: SimResource::new("lci_pp.tag_counter", transfer),
            retry_queue: VecDeque::new(),
            header_recv_posted: false,
            progress_cursor: 0,
            name,
            cost,
        }
    }

    /// Completion object for an operation keyed `key`.
    fn comp_for(&mut self, sim: &mut Sim, core: usize, t: SimTime, key: u64) -> (Comp, SimTime) {
        match self.cfg.completion {
            Completion::Cq => (Comp::Cq(self.ccq.clone()), t),
            Completion::Sync => {
                let sync = Synchronizer::new(1, self.cost.cacheline_transfer);
                let t2 = self.sync_res.access(t, core, self.cost.alloc + self.cost.atomic_op);
                self.pending_syncs.push((key, sync.clone()));
                sim.stats.bump("lci_pp.sync_created");
                (Comp::Sync(sync), t2)
            }
        }
    }

    fn alloc_tags(&mut self, core: usize, t: SimTime, count: u64) -> (u64, SimTime) {
        let t2 = self.tag_res.access(t, core, self.cost.atomic_op);
        let base = self.tag_counter;
        self.tag_counter += count;
        if self.tag_counter >= TAG_LIMIT {
            self.tag_counter = FIRST_TAG;
        }
        (base, t2)
    }

    fn ensure_header_recv(&mut self, sim: &mut Sim, core: usize) -> SimTime {
        let mut t = sim.now();
        if self.cfg.protocol == Protocol::SendRecv && !self.header_recv_posted {
            for d in 0..self.devs.len() {
                // Encode the device in the completion key's id field.
                let key = ((d as u64) << 2) | kind::HEADER_RECV;
                let (comp, t2) = self.comp_for(sim, core, t, key);
                t = self.devs[d]
                    .post_recv(sim, core, t2, ANY_SOURCE, TAG_HEADER, comp, key)
                    .max(t2);
            }
            self.header_recv_posted = true;
        }
        t
    }

    /// Post sends for a connection until one is outstanding, the pool
    /// runs dry, or the connection completes.
    fn pump_send(&mut self, sim: &mut Sim, core: usize, id: u64, mut t: SimTime) -> SimTime {
        loop {
            let Some(conn) = self.send_conns.get_mut(id) else { return t };
            if conn.awaiting {
                return t;
            }
            if let Some(header) = &conn.header {
                let dest = conn.dest;
                let di = conn.dev;
                let res = match self.cfg.protocol {
                    Protocol::PutSendRecv => {
                        // Assemble directly in an LCI packet: no extra copy.
                        // The packet comes first, so a send that finds the
                        // pool empty leaves the header in place untouched.
                        match self.devs[di].alloc_packet(sim, core) {
                            Ok((h, t2)) => {
                                t = t.max(t2) + self.cost.pp_header;
                                let header = conn.header.take().expect("header pending");
                                self.devs[di].post_putva_packet(
                                    sim,
                                    core,
                                    t,
                                    h,
                                    dest,
                                    TAG_HEADER,
                                    header,
                                    Comp::None,
                                    0,
                                )
                            }
                            Err(e) => Err(e),
                        }
                    }
                    Protocol::SendRecv => {
                        // `post_sendm` consumes its payload even when it
                        // returns `Retry`, so it gets a handle of its own.
                        let header = header.clone();
                        t = t + self.cost.pp_header + self.cost.memcpy(header.len());
                        self.devs[di].post_sendm(
                            sim,
                            core,
                            t,
                            dest,
                            TAG_HEADER,
                            header,
                            Comp::None,
                            0,
                        )
                    }
                };
                match res {
                    Ok(t2) => {
                        t = t.max(t2);
                        conn.header = None;
                        telemetry::flow_mark_many(&conn.flows, telemetry::stage::INJECT, t);
                        sim.stats.bump("lci_pp.header_sent");
                        continue;
                    }
                    Err(Error::Retry) => {
                        t += self.devs[0].retry_cost();
                        self.retry_queue.push_back(id);
                        sim.stats.bump("lci_pp.send_retry");
                        return t;
                    }
                    Err(e) => panic!("lci_pp: header send to {dest} failed: {e:?}"),
                }
            }
            // Header is out; post the next part (one outstanding at a time).
            match conn.parts.pop_front() {
                Some((pid, data)) => {
                    let dest = conn.dest;
                    let di = conn.dev;
                    let tag = conn.tag_base + pid.tag_offset();
                    let key = (id << 2) | kind::SEND_PART;
                    let (comp, t2) = self.comp_for(sim, core, t, key);
                    t = t2;
                    let res = if data.len() <= self.devs[di].eager_threshold() {
                        self.devs[di].post_sendm(sim, core, t, dest, tag, data.clone(), comp, key)
                    } else {
                        self.devs[di].post_sendl(sim, core, t, dest, tag, data.clone(), comp, key)
                    };
                    match res {
                        Ok(t2) => {
                            t = t.max(t2);
                            self.send_conns.get_mut(id).expect("exists").awaiting = true;
                            return t;
                        }
                        Err(_) => {
                            t += self.devs[0].retry_cost();
                            let conn = self.send_conns.get_mut(id).expect("exists");
                            conn.parts.push_front((pid, data));
                            // In sync mode `comp_for` already queued this
                            // attempt's synchronizer on `pending_syncs`.
                            // Nothing ever signals it, so every later reap
                            // round still tests it (a known modeling bug,
                            // see ROADMAP.md).
                            self.retry_queue.push_back(id);
                            sim.stats.bump("lci_pp.send_retry");
                            return t;
                        }
                    }
                }
                None => {
                    // All parts out and none awaiting: connection done.
                    let conn = self.send_conns.remove(id).expect("exists");
                    if let Some(cb) = conn.on_sent {
                        sim.schedule_once_at(t, cb, core as u64);
                    }
                    sim.stats.bump("lci_pp.send_conn_done");
                    return t;
                }
            }
        }
    }

    #[allow(clippy::too_many_arguments)] // one slot per wire fact; bundling obscures the call sites
    fn handle_header(
        &mut self,
        sim: &mut Sim,
        core: usize,
        dev: usize,
        src: usize,
        header: Bytes,
        mut t: SimTime,
        arrived: SimTime,
    ) -> SimTime {
        t = t + self.cost.pp_header + self.cost.pp_connection;
        let info = HeaderInfo::decode(&header);
        let flows = telemetry::take_route(src, self.devs[0].rank(), info.tag_base);
        telemetry::flow_mark_many(&flows, telemetry::stage::WIRE, arrived);
        telemetry::flow_mark_many(&flows, telemetry::stage::MATCH, t);
        let asm = MessageAssembly::new(&info);
        let expected: VecDeque<PartId> = info.expected_parts().into();
        sim.stats.bump("lci_pp.header_received");
        if expected.is_empty() {
            let mut msg = asm.into_message();
            msg.flows = flows;
            if let Some(d) = self.deliver.clone() {
                d(sim, core, t, src, msg);
            }
            sim.stats.bump("lci_pp.recv_conn_done");
            return t;
        }
        self.next_conn += 1;
        let conn = LRecvConn { src, tag_base: info.tag_base, expected, asm, dev, flows };
        let id = self.recv_conns.insert(conn);
        self.post_next_recv(sim, core, id, t)
    }

    fn post_next_recv(&mut self, sim: &mut Sim, core: usize, id: u64, mut t: SimTime) -> SimTime {
        let Some(conn) = self.recv_conns.get(id) else { return t };
        let di = conn.dev;
        let (src, tag) = match conn.expected.front() {
            Some(pid) => (conn.src, conn.tag_base + pid.tag_offset()),
            None => return t,
        };
        let key = (id << 2) | kind::RECV_PART;
        let (comp, t2) = self.comp_for(sim, core, t, key);
        t = self.devs[di].post_recv(sim, core, t2, src, tag, comp, key).max(t2);
        t
    }

    /// Route one completion entry.
    fn route(&mut self, sim: &mut Sim, core: usize, req: Request, mut t: SimTime) -> SimTime {
        let key = req.user;
        let id = key >> 2;
        match key & 3 {
            kind::SEND_PART => {
                if let Some(conn) = self.send_conns.get_mut(id) {
                    conn.awaiting = false;
                    t = self.pump_send(sim, core, id, t);
                }
                t
            }
            kind::RECV_PART => {
                let Some(conn) = self.recv_conns.get_mut(id) else { return t };
                let pid = conn.expected.pop_front().expect("completion without expectation");
                conn.asm.supply(pid, req.data);
                if conn.expected.is_empty() {
                    let conn = self.recv_conns.remove(id).expect("exists");
                    let mut msg = conn.asm.into_message();
                    msg.flows = conn.flows;
                    sim.stats.bump("lci_pp.recv_conn_done");
                    if let Some(d) = self.deliver.clone() {
                        d(sim, core, t, conn.src, msg);
                    }
                    t
                } else {
                    self.post_next_recv(sim, core, id, t)
                }
            }
            kind::HEADER_RECV => {
                let dev = (id as usize).min(self.devs.len() - 1);
                self.header_recv_posted = false;
                let t2 = self.ensure_header_recv(sim, core);
                t = self.handle_header(sim, core, dev, req.rank, req.data, t.max(t2), req.arrived);
                t
            }
            other => unreachable!("bad completion kind {other}"),
        }
    }

    /// Reap completions: pop the CQ or scan the synchronizer list.
    fn reap(&mut self, sim: &mut Sim, core: usize, mut t: SimTime) -> (bool, SimTime) {
        let mut did = false;
        match self.cfg.completion {
            Completion::Cq => {
                for _ in 0..REAP_BUDGET {
                    let (item, t2) = self.ccq.pop(sim, core, &self.cost);
                    t = t.max(t2);
                    match item {
                        Some(req) => {
                            did = true;
                            t = self.route(sim, core, req, t);
                        }
                        None => break,
                    }
                }
            }
            Completion::Sync => {
                // Round-robin over the pending synchronizer list, under
                // its lock (this is the extra cost and noise source the
                // paper attributes the sy variants' oscillation to).
                if self.pending_syncs.is_empty() {
                    return (false, t);
                }
                t = self.sync_res.access(t, core, self.cost.atomic_op);
                let n = self.pending_syncs.len();
                let mut tripped = Vec::new();
                for _ in 0..REAP_BUDGET.min(n) {
                    let i = self.sync_cursor % self.pending_syncs.len();
                    self.sync_cursor = self.sync_cursor.wrapping_add(1);
                    let (key, sync) = self.pending_syncs[i].clone();
                    let (ok, t2) = sync.test(sim, core, &self.cost);
                    t = t.max(t2);
                    if ok {
                        self.pending_syncs.swap_remove(i);
                        let mut items = sync.take_items();
                        debug_assert_eq!(items.len(), 1);
                        tripped.push((key, items.pop().expect("one item")));
                    }
                }
                for (_key, req) in tripped {
                    did = true;
                    t = self.route(sim, core, req, t);
                }
            }
        }
        (did, t)
    }

    /// Drain header arrivals from the remote completion queue (puts).
    fn reap_headers(&mut self, sim: &mut Sim, core: usize, mut t: SimTime) -> (bool, SimTime) {
        if self.cfg.protocol != Protocol::PutSendRecv {
            return (false, t);
        }
        let mut did = false;
        for dev in 0..self.devs.len() {
            for _ in 0..REAP_BUDGET {
                let (item, t2) = self.rcqs[dev].pop(sim, core, &self.cost);
                t = t.max(t2);
                match item {
                    Some(req) => {
                        did = true;
                        t = self.handle_header(sim, core, dev, req.rank, req.data, t, req.arrived);
                    }
                    None => break,
                }
            }
        }
        (did, t)
    }

    /// Retry sends that previously hit pool exhaustion.
    fn retry_sends(&mut self, sim: &mut Sim, core: usize, mut t: SimTime) -> (bool, SimTime) {
        let mut did = false;
        for _ in 0..self.retry_queue.len().min(REAP_BUDGET) {
            if let Some(id) = self.retry_queue.pop_front() {
                let before = self.retry_queue.len();
                t = self.pump_send(sim, core, id, t);
                did |= self.retry_queue.len() == before; // progressed if not re-queued
            }
        }
        (did, t)
    }
}

impl Parcelport for LciParcelport {
    fn put_message(
        &mut self,
        sim: &mut Sim,
        core: usize,
        at: SimTime,
        dest: usize,
        msg: HpxMessage,
        on_sent: Option<OnSent>,
    ) -> SimTime {
        let t0 = self.ensure_header_recv(sim, core).max(at);
        // Distinct tag per follow-up message (no in-order guarantee).
        let parts_upper = 2 + msg.zero_copy.len() as u64;
        let (tag_base, t1) = self.alloc_tags(core, t0, parts_upper);
        let plan = plan_message(&msg, tag_base, MAX_HEADER_SIZE, true);
        let t1 = t1 + self.cost.pp_connection;
        sim.stats.bump("lci_pp.messages_posted");
        telemetry::register_route(self.devs[0].rank(), dest, tag_base, &msg.flows);

        let seq = self.next_conn;
        self.next_conn += 1;
        // Spread connections over devices (round-robin by sequence number).
        let dev = (seq as usize) % self.devs.len();
        let id = self.send_conns.insert(LSendConn {
            dest,
            tag_base,
            header: Some(plan.header),
            parts: plan.parts.into(),
            awaiting: false,
            on_sent,
            dev,
            flows: msg.flows,
        });
        self.pump_send(sim, core, id, t1)
    }

    fn background_work(&mut self, sim: &mut Sim, core: usize) -> BgOutcome {
        let mut t = self.ensure_header_recv(sim, core);
        let mut did_work = false;

        // Worker-progress variants drive the LCI progress engine here;
        // with several devices, workers spread across them by core id, so
        // progress genuinely parallelizes (the point of §7.2).
        let mut arrival_hint = None;
        if self.cfg.progress == Progress::Worker {
            let di = core % self.devs.len();
            match self.devs[di].progress(sim, core) {
                ProgressOutcome::Ran { handled, cpu_done, next_arrival } => {
                    t = t.max(cpu_done);
                    did_work |= handled > 0;
                    arrival_hint = next_arrival;
                }
                ProgressOutcome::Busy { cpu_done, free_at } => {
                    t = t.max(cpu_done);
                    arrival_hint = Some(free_at);
                }
            }
        }

        let (d1, t1) = self.reap_headers(sim, core, t);
        let (d2, t2) = self.reap(sim, core, t1);
        let (d3, t3) = self.retry_sends(sim, core, t2);
        did_work |= d1 | d2 | d3;
        let mut retry_at = arrival_hint;
        if !self.retry_queue.is_empty() {
            let r = t3 + self.cost.lci_op * 4;
            retry_at = Some(retry_at.map_or(r, |a| a.min(r)));
        }
        BgOutcome { did_work, cpu_done: t3, retry_at, wake_workers: false, completions: 0 }
    }

    fn progress(&mut self, sim: &mut Sim, core: usize) -> BgOutcome {
        // The dedicated progress thread only makes progress on the LCI
        // runtime; completion reaping stays on the workers. With several
        // devices it cycles over them.
        let di = self.progress_cursor % self.devs.len();
        self.progress_cursor = self.progress_cursor.wrapping_add(1);
        match self.devs[di].progress(sim, core) {
            ProgressOutcome::Ran { handled, cpu_done, next_arrival } => BgOutcome {
                did_work: handled > 0,
                cpu_done,
                retry_at: next_arrival,
                wake_workers: handled > 0,
                completions: handled,
            },
            ProgressOutcome::Busy { cpu_done, free_at } => BgOutcome {
                did_work: false,
                cpu_done,
                retry_at: Some(free_at),
                wake_workers: false,
                completions: 0,
            },
        }
    }

    fn wants_dedicated_progress(&self) -> bool {
        self.cfg.progress == Progress::Pin
    }

    fn set_deliver(&mut self, deliver: DeliverFn) {
        self.deliver = Some(deliver);
    }

    fn config_name(&self) -> String {
        self.name.clone()
    }
}
