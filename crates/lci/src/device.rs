//! The LCI device: operation posting and the progress engine.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use bytes::Bytes;
use netsim::{Fabric, NodeId, Packet, PollOutcome};
use simcore::causal::{self, MarkKind};
use simcore::{CostModel, Sim, SimResource, SimTime, SimTryLock, TryAcquire};

use crate::comp::{Comp, CompQueue, Request};
use crate::config::DeviceConfig;
use crate::matching::{MatchTable, PostedRecv, UnexpectedMsg};
use crate::pool::{PacketHandle, PacketPool};
use crate::protocol::{OpKind, PacketKind, RdvRecv, RdvSend};
use crate::{Error, Result};

/// Result of one [`Device::progress`] call.
#[derive(Debug, Clone, Copy)]
pub enum ProgressOutcome {
    /// The caller obtained the progress engine.
    Ran {
        /// Packets handled in this call.
        handled: usize,
        /// When the calling core is done.
        cpu_done: SimTime,
        /// Earliest known future packet arrival (scheduling hint).
        next_arrival: Option<SimTime>,
    },
    /// Another thread holds the progress engine (try-lock failed). The
    /// caller spent only the failed-try cost and is free to do other work
    /// — the non-blocking behaviour that distinguishes LCI from the
    /// blocking `ucp_progress` lock.
    Busy {
        /// When the calling core is done (failed try).
        cpu_done: SimTime,
        /// When the current holder releases.
        free_at: SimTime,
    },
}

/// An LCI device: one per locality. All communication state of the
/// process lives here (packet pool, matching table, rendezvous state,
/// progress engine).
pub struct Device {
    rank: NodeId,
    /// Communication context this device maps to (0 unless the process
    /// replicates devices, the §7.2 extension).
    ctx: u8,
    fabric: Rc<RefCell<Fabric>>,
    cost: Rc<CostModel>,
    cfg: DeviceConfig,
    progress_lock: SimTryLock,
    /// Internal progress-engine counters/state (a contended cache line).
    progress_state: SimResource,
    matching: MatchTable,
    pool: PacketPool,
    rdv_send: HashMap<u64, RdvSend>,
    rdv_recv: HashMap<u64, RdvRecv>,
    next_op: u64,
    remote_cq: Option<Rc<CompQueue>>,
    last_progress_core: Option<usize>,
}

impl Device {
    /// Create a device for `rank` on `fabric`.
    pub fn new(
        rank: NodeId,
        fabric: Rc<RefCell<Fabric>>,
        cost: Rc<CostModel>,
        cfg: DeviceConfig,
    ) -> Self {
        let transfer = cost.cacheline_transfer;
        Device {
            rank,
            ctx: cfg.ctx,
            fabric,
            cfg: cfg.clone(),
            progress_lock: SimTryLock::new("lci.progress"),
            progress_state: SimResource::new("lci.progress_state", transfer),
            matching: MatchTable::new(transfer),
            pool: PacketPool::new(cfg.packet_pool_size, cfg.eager_threshold, transfer),
            rdv_send: HashMap::new(),
            rdv_recv: HashMap::new(),
            next_op: 1,
            remote_cq: None,
            last_progress_core: None,
            cost,
        }
    }

    /// This device's rank.
    pub fn rank(&self) -> NodeId {
        self.rank
    }

    /// The eager/rendezvous protocol threshold.
    pub fn eager_threshold(&self) -> usize {
        self.cfg.eager_threshold
    }

    /// The cost model used by this device.
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// Configure the completion queue that receives remote completions of
    /// dynamic puts. The current LCI only supports a pre-configured queue
    /// here — which is why even the `sync` parcelport variants keep a CQ
    /// for header messages (§3.2.2).
    pub fn set_remote_cq(&mut self, cq: Rc<CompQueue>) {
        self.remote_cq = Some(cq);
    }

    /// CPU time a caller should charge for an operation that failed with
    /// [`Error::Retry`].
    pub fn retry_cost(&self) -> u64 {
        self.cost.lci_op + self.cost.lci_packet_pool
    }

    /// Posted receives waiting in the matching table.
    pub fn posted_receives(&self) -> usize {
        self.matching.posted_len()
    }

    /// Unexpected messages waiting in the matching table.
    pub fn unexpected_messages(&self) -> usize {
        self.matching.unexpected_len()
    }

    /// In-flight rendezvous operations (both directions).
    pub fn rendezvous_in_flight(&self) -> usize {
        self.rdv_send.len() + self.rdv_recv.len()
    }

    fn fresh_op(&mut self) -> u64 {
        let id = self.next_op;
        self.next_op += 1;
        id
    }

    /// Deliver a completion from the progress engine or a posting path.
    fn signal(&self, sim: &mut Sim, core: usize, t: SimTime, comp: &Comp, req: Request) -> SimTime {
        match comp {
            Comp::Cq(cq) => cq.push(sim, core, &self.cost, req).max(t),
            Comp::Sync(s) => s.signal(sim, core, &self.cost, req).max(t),
            Comp::Handler(h) => {
                let h = h.clone();
                sim.schedule_at(t, move |sim| h(sim, req));
                t
            }
            Comp::None => t,
        }
    }

    /// Allocate a registered packet so the caller can assemble a message
    /// directly in an LCI buffer (saves one copy for eager messages).
    pub fn alloc_packet(&mut self, sim: &mut Sim, core: usize) -> Result<(PacketHandle, SimTime)> {
        let (h, done) = self.pool.get(sim, core, &self.cost);
        match h {
            Some(h) => Ok((h, done)),
            None => Err(Error::Retry),
        }
    }

    /// Post an eager (medium) two-sided send. Completes locally as soon
    /// as the payload is staged in a registered buffer.
    #[allow(clippy::too_many_arguments)] // mirrors the LCI C API
    pub fn post_sendm(
        &mut self,
        sim: &mut Sim,
        core: usize,
        at: SimTime,
        dst: NodeId,
        tag: u64,
        data: Bytes,
        comp: Comp,
        user: u64,
    ) -> Result<SimTime> {
        if data.len() > self.cfg.eager_threshold {
            return Err(Error::Invalid("payload exceeds eager threshold"));
        }
        let (h, t_pool) = self.pool.get(sim, core, &self.cost);
        if h.is_none() {
            return Err(Error::Retry);
        }
        let t = t_pool.max(at) + self.cost.lci_op + self.cost.memcpy(data.len());
        let len = data.len();
        let out = self.fabric.borrow_mut().send(
            sim,
            core,
            t,
            Packet {
                src: self.rank,
                dst,
                ctx: self.ctx,
                kind: PacketKind::Eager as u8,
                tag,
                imm: 0,
                data,
            },
        );
        let t = t.max(out.cpu_done);
        // NIC owns the buffer until the wire finishes serializing it.
        self.pool.put_at(out.deliver_at);
        sim.stats.bump("lci.sendm");
        sim.stats.add("lci.sendm_bytes", len as u64);
        let req = Request {
            op: OpKind::Send,
            rank: dst,
            tag,
            data: Bytes::new(),
            user,
            arrived: SimTime::ZERO,
        };
        Ok(self.signal(sim, core, t, &comp, req))
    }

    /// Post a two-sided receive (either protocol; the sender's choice of
    /// eager vs rendezvous is transparent to the receiver). Returns when
    /// the posting core is done.
    #[allow(clippy::too_many_arguments)] // mirrors the LCI C API
    pub fn post_recv(
        &mut self,
        sim: &mut Sim,
        core: usize,
        at: SimTime,
        src: NodeId,
        tag: u64,
        comp: Comp,
        user: u64,
    ) -> SimTime {
        let recv = PostedRecv { src, tag, comp, user };
        let (outcome, t0) = self.matching.post_recv_at(sim, core, at, &self.cost, recv);
        let t = t0;
        match outcome {
            Ok(()) => t,
            Err((recv, msg)) if !msg.rts => {
                // Unexpected eager message already arrived: deliver now
                // (one extra copy out of the bounce buffer).
                let t = t + self.cost.memcpy(msg.data.len());
                sim.stats.bump("lci.recv_from_unexpected");
                let req = Request {
                    op: OpKind::Recv,
                    rank: msg.src,
                    tag: msg.tag,
                    data: msg.data,
                    user: recv.user,
                    arrived: msg.arrived,
                };
                self.signal(sim, core, t, &recv.comp, req)
            }
            Err((recv, msg)) => {
                // Unexpected RTS: the receive side is now ready — answer
                // with an RTR so the sender pushes the payload.
                self.start_rtr(sim, core, t, recv, msg)
            }
        }
    }

    /// Post a long (rendezvous) two-sided send: emits an RTS carrying the
    /// payload size; the payload moves when the RTR comes back.
    #[allow(clippy::too_many_arguments)] // mirrors the LCI C API
    pub fn post_sendl(
        &mut self,
        sim: &mut Sim,
        core: usize,
        at: SimTime,
        dst: NodeId,
        tag: u64,
        data: Bytes,
        comp: Comp,
        user: u64,
    ) -> Result<SimTime> {
        let op = self.fresh_op();
        let t = at.max(sim.now()) + self.cost.lci_op + self.cost.atomic_op;
        let size = data.len();
        self.rdv_send.insert(op, RdvSend { dst, tag, data, comp, user, one_sided: false });
        let out = self.fabric.borrow_mut().send(
            sim,
            core,
            t,
            Packet {
                src: self.rank,
                dst,
                ctx: self.ctx,
                kind: PacketKind::Rts as u8,
                tag,
                imm: op,
                data: Bytes::copy_from_slice(&(size as u64).to_le_bytes()),
            },
        );
        sim.stats.bump("lci.sendl");
        Ok(t.max(out.cpu_done))
    }

    /// Post a one-sided dynamic put: the target allocates the buffer on
    /// arrival and pushes a completion entry to its pre-configured remote
    /// completion queue. Small payloads go eager; large payloads use a
    /// rendezvous handshake.
    #[allow(clippy::too_many_arguments)] // mirrors the LCI C API
    pub fn post_putva(
        &mut self,
        sim: &mut Sim,
        core: usize,
        at: SimTime,
        dst: NodeId,
        tag: u64,
        data: Bytes,
        comp: Comp,
        user: u64,
    ) -> Result<SimTime> {
        if data.len() <= self.cfg.eager_threshold {
            let (h, t_pool) = self.pool.get(sim, core, &self.cost);
            if h.is_none() {
                return Err(Error::Retry);
            }
            let t = t_pool.max(at) + self.cost.lci_op + self.cost.memcpy(data.len());
            let out = self.fabric.borrow_mut().send(
                sim,
                core,
                t,
                Packet {
                    src: self.rank,
                    dst,
                    ctx: self.ctx,
                    kind: PacketKind::PutEager as u8,
                    tag,
                    imm: 0,
                    data,
                },
            );
            let t = t.max(out.cpu_done);
            self.pool.put_at(out.deliver_at);
            sim.stats.bump("lci.put_eager");
            let req = Request {
                op: OpKind::Put,
                rank: dst,
                tag,
                data: Bytes::new(),
                user,
                arrived: SimTime::ZERO,
            };
            Ok(self.signal(sim, core, t, &comp, req))
        } else {
            let op = self.fresh_op();
            let size = data.len();
            let t = at.max(sim.now()) + self.cost.lci_op + self.cost.atomic_op;
            self.rdv_send.insert(op, RdvSend { dst, tag, data, comp, user, one_sided: true });
            let out = self.fabric.borrow_mut().send(
                sim,
                core,
                t,
                Packet {
                    src: self.rank,
                    dst,
                    ctx: self.ctx,
                    kind: PacketKind::PutRts as u8,
                    tag,
                    imm: op,
                    data: Bytes::copy_from_slice(&(size as u64).to_le_bytes()),
                },
            );
            sim.stats.bump("lci.put_long");
            Ok(t.max(out.cpu_done))
        }
    }

    /// Variant of the eager put where the message was already assembled
    /// in the registered packet `_h` obtained from [`Device::alloc_packet`]
    /// — the copy into the bounce buffer is skipped (§3.2.1: "we directly
    /// assemble the header message in an LCI-allocated buffer so that, for
    /// eager messages, we save one memory copy").
    #[allow(clippy::too_many_arguments)] // mirrors the LCI C API
    pub fn post_putva_packet(
        &mut self,
        sim: &mut Sim,
        core: usize,
        at: SimTime,
        _h: PacketHandle,
        dst: NodeId,
        tag: u64,
        data: Bytes,
        comp: Comp,
        user: u64,
    ) -> Result<SimTime> {
        if data.len() > self.cfg.eager_threshold {
            return Err(Error::Invalid("packet-based put must be eager-sized"));
        }
        let t = at.max(sim.now()) + self.cost.lci_op;
        let out = self.fabric.borrow_mut().send(
            sim,
            core,
            t,
            Packet {
                src: self.rank,
                dst,
                ctx: self.ctx,
                kind: PacketKind::PutEager as u8,
                tag,
                imm: 0,
                data,
            },
        );
        let t = t.max(out.cpu_done);
        self.pool.put_at(out.deliver_at);
        sim.stats.bump("lci.put_eager_zc");
        let req = Request {
            op: OpKind::Put,
            rank: dst,
            tag,
            data: Bytes::new(),
            user,
            arrived: SimTime::ZERO,
        };
        Ok(self.signal(sim, core, t, &comp, req))
    }

    /// Make progress: poll the NIC, handle up to `progress_burst` packets,
    /// advance rendezvous protocols, deliver completions.
    ///
    /// Thread-safe via try-lock: concurrent callers get
    /// [`ProgressOutcome::Busy`] immediately instead of blocking.
    pub fn progress(&mut self, sim: &mut Sim, core: usize) -> ProgressOutcome {
        let now = sim.now();
        match self.progress_lock.try_acquire(now, 0) {
            TryAcquire::Busy { free_at } => {
                sim.stats.bump("lci.progress_busy");
                telemetry::counter_add_at("lci.progress_busy", 1, now);
                ProgressOutcome::Busy { cpu_done: now + self.cost.atomic_op, free_at }
            }
            TryAcquire::Acquired { .. } => {
                let mut t = now + self.cost.atomic_op;
                // Re-warm the engine's working set when ownership migrates
                // between cores (the `mt` variants pay this constantly;
                // a pinned progress thread never does).
                if self.last_progress_core != Some(core) {
                    if self.last_progress_core.is_some() {
                        t += self.cost.lci_progress_migrate;
                        sim.stats.bump("lci.progress_migrated");
                    }
                    self.last_progress_core = Some(core);
                }
                let mut handled = 0;
                let mut next_arrival = None;
                for _ in 0..self.cfg.progress_burst {
                    let outcome =
                        self.fabric.borrow_mut().poll_ctx(sim, core, self.rank, self.ctx as usize);
                    match outcome {
                        PollOutcome::Empty { cpu_done, next_arrival: na } => {
                            t = t.max(cpu_done) + self.cost.lci_progress_empty;
                            next_arrival = na;
                            break;
                        }
                        PollOutcome::Packet { pkt, cpu_done, arrived } => {
                            t = t.max(cpu_done);
                            t = self.handle_packet(sim, core, t, pkt, arrived);
                            handled += 1;
                        }
                    }
                }
                self.progress_lock.extend(t);
                // The try-lock was taken with hold 0 and extended as work
                // accrued, so emit the real critical-section span here.
                causal::mark("lci.progress", MarkKind::Hold, now, t, 0);
                sim.stats.bump("lci.progress");
                telemetry::counter_add_at("lci.progress_polls", 1, t);
                telemetry::counter_add_at("lci.progress_handled", handled as u64, t);
                ProgressOutcome::Ran { handled, cpu_done: t, next_arrival }
            }
        }
    }

    /// Handle one arrived packet inside the progress engine. `arrived` is
    /// the wire-delivery instant reported by the NIC (observability only).
    fn handle_packet(
        &mut self,
        sim: &mut Sim,
        core: usize,
        t0: SimTime,
        pkt: Packet,
        arrived: SimTime,
    ) -> SimTime {
        // Touch the progress engine's shared state (internal counters).
        let t = self
            .progress_state
            .access(t0, core, self.cost.atomic_op)
            .max(t0 + self.cost.lci_packet_handle);
        let src = pkt.src;
        let tag = pkt.tag;
        match PacketKind::from_u8(pkt.kind) {
            PacketKind::Eager => {
                let msg = UnexpectedMsg {
                    src,
                    tag,
                    data: pkt.data,
                    rts: false,
                    imm: 0,
                    size: 0,
                    arrived,
                };
                let (outcome, tm) = self.matching.match_arrival(sim, core, &self.cost, msg);
                let t = t.max(tm);
                match outcome {
                    Ok((recv, msg)) => {
                        let t = t + self.cost.memcpy(msg.data.len());
                        let req = Request {
                            op: OpKind::Recv,
                            rank: src,
                            tag,
                            data: msg.data,
                            user: recv.user,
                            arrived,
                        };
                        self.signal(sim, core, t, &recv.comp, req)
                    }
                    Err(()) => t,
                }
            }
            PacketKind::PutEager => {
                let t = t + self.cost.lci_dyn_alloc + self.cost.memcpy(pkt.data.len());
                let req = Request {
                    op: OpKind::PutTarget,
                    rank: src,
                    tag,
                    data: pkt.data,
                    user: 0,
                    arrived,
                };
                let cq = self.remote_cq.clone().expect("remote CQ not configured for puts");
                cq.push(sim, core, &self.cost, req).max(t)
            }
            PacketKind::Rts => {
                let size = u64::from_le_bytes(pkt.data[..8].try_into().expect("RTS size")) as usize;
                let msg = UnexpectedMsg {
                    src,
                    tag,
                    data: Bytes::new(),
                    rts: true,
                    imm: pkt.imm,
                    size,
                    arrived,
                };
                let (outcome, tm) = self.matching.match_arrival(sim, core, &self.cost, msg);
                let t = t.max(tm);
                match outcome {
                    Ok((recv, msg)) => self.start_rtr(sim, core, t, recv, msg),
                    Err(()) => t,
                }
            }
            PacketKind::PutRts => {
                // One-sided: no matching — allocate and answer immediately.
                let size = u64::from_le_bytes(pkt.data[..8].try_into().expect("RTS size")) as usize;
                let t = t + self.cost.lci_dyn_alloc + self.cost.lci_rdv_ctrl;
                let op = self.fresh_op();
                self.rdv_recv.insert(
                    op,
                    RdvRecv { src, tag, comp: Comp::None, user: 0, size, one_sided: true },
                );
                let out = self.fabric.borrow_mut().send(
                    sim,
                    core,
                    t,
                    Packet {
                        src: self.rank,
                        dst: src,
                        ctx: self.ctx,
                        kind: PacketKind::PutRtr as u8,
                        tag: op,
                        imm: pkt.imm,
                        data: Bytes::new(),
                    },
                );
                t.max(out.cpu_done)
            }
            PacketKind::Rtr | PacketKind::PutRtr => {
                // `imm` carries our (sender-side) op id; `tag` carries the
                // receiver-side op id to echo in the payload packet.
                let state = self.rdv_send.remove(&pkt.imm).expect("RTR for unknown rendezvous op");
                let t = t + self.cost.lci_rdv_ctrl;
                let payload_kind =
                    if state.one_sided { PacketKind::PutLongData } else { PacketKind::LongData };
                let out = self.fabric.borrow_mut().send(
                    sim,
                    core,
                    t,
                    Packet {
                        src: self.rank,
                        dst: state.dst,
                        ctx: self.ctx,
                        kind: payload_kind as u8,
                        tag: state.tag,
                        imm: pkt.tag,
                        data: state.data,
                    },
                );
                let t = t.max(out.cpu_done);
                // Local completion: payload handed to the NIC (models the
                // RDMA write being posted from a registered region).
                let op = if state.one_sided { OpKind::Put } else { OpKind::Send };
                let req = Request {
                    op,
                    rank: state.dst,
                    tag: state.tag,
                    data: Bytes::new(),
                    user: state.user,
                    arrived: SimTime::ZERO,
                };
                self.signal(sim, core, t, &state.comp, req)
            }
            PacketKind::LongData | PacketKind::PutLongData => {
                let state =
                    self.rdv_recv.remove(&pkt.imm).expect("payload for unknown rendezvous op");
                debug_assert_eq!(state.size, pkt.data.len(), "RTS promised a different size");
                let t = t + self.cost.lci_rdv_ctrl;
                if state.one_sided {
                    let req = Request {
                        op: OpKind::PutTarget,
                        rank: src,
                        tag,
                        data: pkt.data,
                        user: 0,
                        arrived,
                    };
                    let cq = self.remote_cq.clone().expect("remote CQ not configured for puts");
                    cq.push(sim, core, &self.cost, req).max(t)
                } else {
                    let req = Request {
                        op: OpKind::Recv,
                        rank: src,
                        tag,
                        data: pkt.data,
                        user: state.user,
                        arrived,
                    };
                    self.signal(sim, core, t, &state.comp, req)
                }
            }
        }
    }

    /// Receiver side of the two-sided rendezvous: a posted receive met an
    /// RTS — register the receive buffer and tell the sender to push.
    fn start_rtr(
        &mut self,
        sim: &mut Sim,
        core: usize,
        t: SimTime,
        recv: PostedRecv,
        msg: UnexpectedMsg,
    ) -> SimTime {
        debug_assert!(msg.rts);
        let t = t + self.cost.lci_rdv_ctrl + self.cost.lci_dyn_alloc;
        let op = self.fresh_op();
        self.rdv_recv.insert(
            op,
            RdvRecv {
                src: msg.src,
                tag: msg.tag,
                comp: recv.comp,
                user: recv.user,
                size: msg.size,
                one_sided: false,
            },
        );
        let out = self.fabric.borrow_mut().send(
            sim,
            core,
            t,
            Packet {
                src: self.rank,
                dst: msg.src,
                ctx: self.ctx,
                kind: PacketKind::Rtr as u8,
                tag: op,
                imm: msg.imm,
                data: Bytes::new(),
            },
        );
        sim.stats.bump("lci.rtr_sent");
        t.max(out.cpu_done)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world(eager: usize) -> (Sim, Rc<RefCell<Fabric>>, Device, Device, Rc<CompQueue>) {
        let sim = Sim::new(7);
        let cost = Rc::new(CostModel::default());
        let fabric = Rc::new(RefCell::new(Fabric::new(2, netsim::WireModel::expanse())));
        let cfg = DeviceConfig { eager_threshold: eager, ..DeviceConfig::default() };
        let mut d0 = Device::new(0, fabric.clone(), cost.clone(), cfg.clone());
        let mut d1 = Device::new(1, fabric.clone(), cost, cfg);
        let rcq0 = CompQueue::new("rcq0", 0);
        let rcq1 = CompQueue::new("rcq1", 0);
        d0.set_remote_cq(rcq0);
        d1.set_remote_cq(rcq1.clone());
        (sim, fabric, d0, d1, rcq1)
    }

    /// Drive both devices' progress until quiescent.
    fn drain(sim: &mut Sim, d0: &mut Device, d1: &mut Device) {
        for _ in 0..200 {
            sim.run_until(sim.now() + 10_000);
            let mut busy = false;
            for d in [&mut *d0, &mut *d1] {
                if let ProgressOutcome::Ran { handled, .. } = d.progress(sim, 0) {
                    busy |= handled > 0;
                }
            }
            if !busy
                && d0.rendezvous_in_flight() == 0
                && d1.rendezvous_in_flight() == 0
                && sim.events_pending() == 0
            {
                break;
            }
        }
    }

    #[test]
    fn eager_send_recv_roundtrip() {
        let (mut sim, _f, mut d0, mut d1, _rcq) = world(8192);
        let cq = CompQueue::new("user", 0);
        d1.post_recv(&mut sim, 0, SimTime::ZERO, 0, 42, Comp::Cq(cq.clone()), 555);
        d0.post_sendm(
            &mut sim,
            0,
            SimTime::ZERO,
            1,
            42,
            Bytes::from_static(b"hello"),
            Comp::None,
            0,
        )
        .unwrap();
        drain(&mut sim, &mut d0, &mut d1);
        let (req, _) = cq.pop(&mut sim, 0, &CostModel::default());
        let req = req.expect("receive completed");
        assert_eq!(req.op, OpKind::Recv);
        assert_eq!(req.data.as_ref(), b"hello");
        assert_eq!(req.user, 555);
        assert_eq!(req.rank, 0);
    }

    #[test]
    fn eager_unexpected_then_recv() {
        let (mut sim, _f, mut d0, mut d1, _rcq) = world(8192);
        d0.post_sendm(
            &mut sim,
            0,
            SimTime::ZERO,
            1,
            9,
            Bytes::from_static(b"early"),
            Comp::None,
            0,
        )
        .unwrap();
        drain(&mut sim, &mut d0, &mut d1);
        assert_eq!(d1.unexpected_messages(), 1);
        let cq = CompQueue::new("user", 0);
        d1.post_recv(&mut sim, 0, SimTime::ZERO, 0, 9, Comp::Cq(cq.clone()), 1);
        let (req, _) = cq.pop(&mut sim, 0, &CostModel::default());
        assert_eq!(req.unwrap().data.as_ref(), b"early");
        assert_eq!(d1.unexpected_messages(), 0);
    }

    #[test]
    fn long_send_recv_rendezvous() {
        let (mut sim, _f, mut d0, mut d1, _rcq) = world(64);
        let payload = Bytes::from(vec![7u8; 1000]); // above threshold
        let cq = CompQueue::new("user", 0);
        let scq = CompQueue::new("sender", 0);
        d1.post_recv(&mut sim, 0, SimTime::ZERO, 0, 5, Comp::Cq(cq.clone()), 2);
        d0.post_sendl(&mut sim, 0, SimTime::ZERO, 1, 5, payload.clone(), Comp::Cq(scq.clone()), 3)
            .unwrap();
        drain(&mut sim, &mut d0, &mut d1);
        let (req, _) = cq.pop(&mut sim, 0, &CostModel::default());
        let req = req.expect("long receive completed");
        assert_eq!(req.data.len(), 1000);
        assert_eq!(req.data, payload);
        let (sreq, _) = scq.pop(&mut sim, 0, &CostModel::default());
        assert_eq!(sreq.expect("send completed").op, OpKind::Send);
        assert_eq!(d0.rendezvous_in_flight(), 0);
        assert_eq!(d1.rendezvous_in_flight(), 0);
    }

    #[test]
    fn long_send_before_recv_waits_for_match() {
        let (mut sim, _f, mut d0, mut d1, _rcq) = world(64);
        let payload = Bytes::from(vec![1u8; 500]);
        d0.post_sendl(&mut sim, 0, SimTime::ZERO, 1, 8, payload, Comp::None, 0).unwrap();
        drain(&mut sim, &mut d0, &mut d1);
        // RTS is unexpected at the receiver; no payload moved yet.
        assert_eq!(d1.unexpected_messages(), 1);
        assert_eq!(d0.rendezvous_in_flight(), 1);
        let cq = CompQueue::new("user", 0);
        d1.post_recv(&mut sim, 0, SimTime::ZERO, 0, 8, Comp::Cq(cq.clone()), 0);
        drain(&mut sim, &mut d0, &mut d1);
        let (req, _) = cq.pop(&mut sim, 0, &CostModel::default());
        assert_eq!(req.expect("completed").data.len(), 500);
    }

    #[test]
    fn put_eager_lands_in_remote_cq() {
        let (mut sim, _f, mut d0, mut d1, rcq) = world(8192);
        d0.post_putva(
            &mut sim,
            0,
            SimTime::ZERO,
            1,
            77,
            Bytes::from_static(b"put!"),
            Comp::None,
            0,
        )
        .unwrap();
        drain(&mut sim, &mut d0, &mut d1);
        let (req, _) = rcq.pop(&mut sim, 0, &CostModel::default());
        let req = req.expect("put delivered");
        assert_eq!(req.op, OpKind::PutTarget);
        assert_eq!(req.tag, 77);
        assert_eq!(req.data.as_ref(), b"put!");
    }

    #[test]
    fn put_long_lands_in_remote_cq() {
        let (mut sim, _f, mut d0, mut d1, rcq) = world(64);
        let payload = Bytes::from(vec![3u8; 4096]);
        d0.post_putva(&mut sim, 0, SimTime::ZERO, 1, 13, payload.clone(), Comp::None, 0).unwrap();
        drain(&mut sim, &mut d0, &mut d1);
        let (req, _) = rcq.pop(&mut sim, 0, &CostModel::default());
        let req = req.expect("long put delivered");
        assert_eq!(req.op, OpKind::PutTarget);
        assert_eq!(req.data, payload);
        assert_eq!(d0.rendezvous_in_flight(), 0);
        assert_eq!(d1.rendezvous_in_flight(), 0);
    }

    #[test]
    fn progress_trylock_reports_busy() {
        let (mut sim, _f, mut d0, mut d1, _rcq) = world(8192);
        // Queue several packets so progress holds the engine for a while.
        for i in 0..4 {
            d0.post_putva(
                &mut sim,
                0,
                SimTime::ZERO,
                1,
                i,
                Bytes::from(vec![0u8; 4096]),
                Comp::None,
                0,
            )
            .unwrap();
        }
        sim.run_until(SimTime::from_millis(1));
        let first = d1.progress(&mut sim, 0);
        let second = d1.progress(&mut sim, 1);
        match (first, second) {
            (ProgressOutcome::Ran { handled, .. }, ProgressOutcome::Busy { free_at, .. }) => {
                assert!(handled > 0);
                assert!(free_at > sim.now());
            }
            other => panic!("expected Ran then Busy, got {other:?}"),
        }
    }

    #[test]
    fn sendm_rejects_oversized_payload() {
        let (mut sim, _f, mut d0, _d1, _rcq) = world(64);
        let err = d0
            .post_sendm(&mut sim, 0, SimTime::ZERO, 1, 0, Bytes::from(vec![0u8; 65]), Comp::None, 0)
            .unwrap_err();
        assert_eq!(err, Error::Invalid("payload exceeds eager threshold"));
    }

    #[test]
    fn pool_exhaustion_returns_retry() {
        let sim_cost = Rc::new(CostModel::default());
        let fabric = Rc::new(RefCell::new(Fabric::new(2, netsim::WireModel::expanse())));
        let cfg =
            DeviceConfig { eager_threshold: 8192, packet_pool_size: 2, progress_burst: 8, ctx: 0 };
        let mut d0 = Device::new(0, fabric, sim_cost, cfg);
        let mut sim = Sim::new(0);
        d0.post_sendm(&mut sim, 0, SimTime::ZERO, 1, 0, Bytes::from_static(b"a"), Comp::None, 0)
            .unwrap();
        d0.post_sendm(&mut sim, 0, SimTime::ZERO, 1, 1, Bytes::from_static(b"b"), Comp::None, 0)
            .unwrap();
        let err = d0.post_sendm(
            &mut sim,
            0,
            SimTime::ZERO,
            1,
            2,
            Bytes::from_static(b"c"),
            Comp::None,
            0,
        );
        assert_eq!(err.unwrap_err(), Error::Retry);
        assert!(d0.retry_cost() > 0);
        // Buffers come back once the NIC is done with them.
        sim.run_until(SimTime::from_millis(1));
        assert!(d0
            .post_sendm(&mut sim, 0, SimTime::ZERO, 1, 3, Bytes::from_static(b"d"), Comp::None, 0)
            .is_ok());
    }

    #[test]
    fn handler_completion_fires_as_event() {
        use std::cell::Cell;
        let (mut sim, _f, mut d0, mut d1, _rcq) = world(8192);
        let fired = Rc::new(Cell::new(false));
        let f = fired.clone();
        let handler: crate::comp::CompHandler = Rc::new(move |_sim, req| {
            assert_eq!(req.data.as_ref(), b"hh");
            f.set(true);
        });
        d1.post_recv(&mut sim, 0, SimTime::ZERO, 0, 1, Comp::Handler(handler), 0);
        d0.post_sendm(&mut sim, 0, SimTime::ZERO, 1, 1, Bytes::from_static(b"hh"), Comp::None, 0)
            .unwrap();
        drain(&mut sim, &mut d0, &mut d1);
        sim.run();
        assert!(fired.get());
    }

    #[test]
    fn synchronizer_completion_counts() {
        let (mut sim, _f, mut d0, mut d1, _rcq) = world(8192);
        let sync = crate::comp::Synchronizer::new(2, 0);
        d1.post_recv(&mut sim, 0, SimTime::ZERO, 0, 1, Comp::Sync(sync.clone()), 0);
        d1.post_recv(&mut sim, 0, SimTime::ZERO, 0, 2, Comp::Sync(sync.clone()), 0);
        d0.post_sendm(&mut sim, 0, SimTime::ZERO, 1, 1, Bytes::from_static(b"x"), Comp::None, 0)
            .unwrap();
        let cost = CostModel::default();
        assert!(!sync.test(&mut sim, 0, &cost).0);
        d0.post_sendm(&mut sim, 0, SimTime::ZERO, 1, 2, Bytes::from_static(b"y"), Comp::None, 0)
            .unwrap();
        drain(&mut sim, &mut d0, &mut d1);
        assert!(sync.test(&mut sim, 0, &cost).0);
        assert_eq!(sync.take_items().len(), 2);
    }
}
