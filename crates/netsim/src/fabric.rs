//! The fabric: per-node NICs, per-pair ordered channels, delivery timing.

use std::collections::VecDeque;
use std::rc::Rc;

use rand::Rng;
use simcore::causal::{self, MarkKind};
use simcore::{Sim, SimResource, SimTime};

use crate::model::WireModel;
use crate::packet::{NodeId, Packet};
use crate::topo::{SwitchFabric, Topology};

/// Fault injection knobs (test-only; defaults are all off, matching the
/// reliable, ordered delivery of an InfiniBand RC queue pair).
///
/// On a switched topology the faults are applied *per link*: every hop of
/// a packet's route rolls independently, so a long path is proportionally
/// more exposed — exactly why fault rates matter more at scale.
#[derive(Debug, Clone, Default)]
pub struct FaultConfig {
    /// Probability a packet is delivered twice. On a topology, rolled per
    /// link; the duplicate copy finishes the walk on its own.
    pub duplicate_prob: f64,
    /// Probability a packet swaps places with the previously queued packet
    /// on the same (src, dst) channel.
    pub reorder_prob: f64,
    /// Probability a transfer is lost and link-level retransmitted (one
    /// extra serialization plus a round trip on the affected link —
    /// delivery stays reliable, like IB link-layer retry). On a topology,
    /// rolled per link.
    pub drop_prob: f64,
}

/// Result of posting a send descriptor.
#[derive(Debug, Clone, Copy)]
pub struct SendOutcome {
    /// When the posting core is done (endpoint-post serialization included);
    /// the caller must charge its core until this instant.
    pub cpu_done: SimTime,
    /// When the packet becomes visible at the destination NIC.
    pub deliver_at: SimTime,
}

/// Result of polling a node's RX queues.
#[derive(Debug)]
pub enum PollOutcome {
    /// A packet was reaped.
    Packet {
        /// The reaped packet.
        pkt: Packet,
        /// When the polling core is done reaping.
        cpu_done: SimTime,
        /// When the packet actually arrived at the NIC (its wire
        /// delivery instant — at or before the poll).
        arrived: SimTime,
    },
    /// Nothing deliverable yet.
    Empty {
        /// When the polling core is done with the (empty) poll.
        cpu_done: SimTime,
        /// Earliest known future arrival on this node, if any in flight.
        next_arrival: Option<SimTime>,
    },
}

/// Callback invoked when a packet is addressed to a node: `(sim, deliver_at)`.
///
/// This is the model of a NIC interrupt / CQ doorbell: it lets the runtime
/// schedule a progress poll at exactly the arrival instant instead of
/// busy-polling virtual time. The poll it schedules still pays full
/// polling costs; the waker only carries *timing* information.
pub type ArrivalWaker = Rc<dyn Fn(&mut Sim, SimTime)>;

struct InFlight {
    deliver_at: SimTime,
    pkt: Packet,
}

/// The simulated interconnect: `n` nodes, each with one NIC (one TX
/// context, one RX queue), fully connected by ordered reliable channels.
pub struct Fabric {
    model: WireModel,
    nodes: usize,
    /// Communication contexts (endpoints) per node. One by default — the
    /// "one network context per process" contention point of §7.2;
    /// replicating them is the paper's future-work remedy.
    contexts: usize,
    /// Per-(node, ctx) endpoint-post serialization.
    tx_post: Vec<SimResource>,
    /// Per-node NIC TX pipeline availability (the physical port is
    /// shared by all contexts).
    wire_free: Vec<SimTime>,
    /// Per-(node, ctx) RX queue access serialization.
    rx_access: Vec<SimResource>,
    /// Channel ((src * nodes + dst) * contexts + ctx) → in-flight
    /// packets, delivery ordered.
    queues: Vec<VecDeque<InFlight>>,
    /// Per-(dst, ctx) round-robin cursor over sources.
    rx_cursor: Vec<usize>,
    wakers: Vec<Option<ArrivalWaker>>,
    /// Switched interconnect behind the NICs; `None` = the original
    /// direct point-to-point wire (preserved byte-for-byte).
    topo: Option<SwitchFabric>,
    fault: FaultConfig,
    sent: u64,
    delivered: u64,
    bytes_sent: u64,
    /// Per-source-node cumulative wire busy time (injection/serialization),
    /// the numerator of per-link utilization.
    link_busy: Vec<u64>,
    /// Per-source-node `net.link{src}.busy_us` track names, each
    /// formatted on that node's first sample. Stays empty, and
    /// unallocated, while no telemetry collector is installed.
    link_tracks: Vec<Option<String>>,
}

impl Fabric {
    /// Create a fabric of `nodes` nodes with one context per node.
    pub fn new(nodes: usize, model: WireModel) -> Self {
        Fabric::with_contexts(nodes, model, 1)
    }

    /// Create a fabric with `contexts` communication contexts per node.
    pub fn with_contexts(nodes: usize, model: WireModel, contexts: usize) -> Self {
        assert!(nodes >= 1 && contexts >= 1 && contexts <= u8::MAX as usize);
        Fabric {
            nodes,
            contexts,
            tx_post: (0..nodes * contexts).map(|_| SimResource::new("nic.tx_post", 150)).collect(),
            wire_free: vec![SimTime::ZERO; nodes],
            rx_access: (0..nodes * contexts)
                .map(|_| SimResource::new("nic.rx_queue", 150))
                .collect(),
            queues: (0..nodes * nodes * contexts).map(|_| VecDeque::new()).collect(),
            rx_cursor: vec![0; nodes * contexts],
            wakers: (0..nodes).map(|_| None).collect(),
            topo: None,
            fault: FaultConfig::default(),
            sent: 0,
            delivered: 0,
            bytes_sent: 0,
            link_busy: vec![0; nodes],
            link_tracks: Vec::new(),
            model,
        }
    }

    /// Create a fabric whose NICs hang off a switched [`Topology`].
    /// [`Topology::Direct`] yields exactly [`Fabric::new`].
    pub fn with_topology(nodes: usize, model: WireModel, topology: &Topology) -> Self {
        let mut fab = Fabric::new(nodes, model);
        fab.install_topology(topology);
        fab
    }

    /// Install (or clear, with [`Topology::Direct`]) the switched
    /// interconnect on an existing fabric — used by world builders that
    /// also configure contexts. Must happen before traffic flows.
    pub fn install_topology(&mut self, topology: &Topology) {
        assert!(self.sent == 0, "topology must be installed before traffic");
        self.topo = topology.build(self.nodes);
    }

    /// The switched interconnect, if one is configured (for counters,
    /// route inspection, and failure injection).
    pub fn topology(&self) -> Option<&SwitchFabric> {
        self.topo.as_ref()
    }

    /// Administratively kill the link behind `(sw, port)` (both
    /// directions) and reroute. Returns `false` without a topology or if
    /// the link was already dead.
    pub fn fail_link(&mut self, sw: usize, port: usize) -> bool {
        self.topo.as_mut().is_some_and(|t| t.fail_link(sw, port))
    }

    /// Communication contexts per node.
    pub fn contexts(&self) -> usize {
        self.contexts
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// The wire model in use.
    pub fn model(&self) -> &WireModel {
        &self.model
    }

    /// Minimum one-way propagation latency across all links, ns.
    ///
    /// This is the conservative-PDES lookahead the fabric guarantees: a
    /// packet handed to the wire is never visible at its destination
    /// earlier than `send time + min_lookahead()` (see [`Fabric::send`]:
    /// `deliver_at = wire_free + latency_ns >= now + latency_ns`). A
    /// sharded engine may therefore run localities up to one lookahead
    /// apart without risking an event in any shard's past. On the direct
    /// point-to-point wire this is the model's fixed latency; on a
    /// switched topology it is the minimum *first-hop* (host NIC link)
    /// latency — every walk starts by crossing the host link, and all
    /// later hops only push delivery further out.
    ///
    /// Floored at 1 ns: a zero-propagation wire ([`WireModel::ideal`])
    /// would otherwise advertise a lookahead of 0, which no conservative
    /// engine can run under. The floor is a modeling convention for the
    /// sharded world — an ideal-wire packet may still *arrive* at its
    /// send instant, but its cross-lane **visibility** is deferred to
    /// `send + 1 ns` (equivalent to the receiver polling one nanosecond
    /// late, which the polling-based runtime already tolerates). The
    /// single-`Sim` direct-wire path never reads this value on delivery,
    /// so direct-wire traces are unaffected.
    pub fn min_lookahead(&self) -> u64 {
        let raw = match &self.topo {
            Some(t) => t.min_first_hop_latency(),
            None => self.model.latency_ns,
        };
        raw.max(1)
    }

    /// Enable fault injection (tests only).
    pub fn set_faults(&mut self, fault: FaultConfig) {
        self.fault = fault;
    }

    /// Register the arrival waker for `node` (see [`ArrivalWaker`]).
    pub fn set_arrival_waker(&mut self, node: NodeId, waker: ArrivalWaker) {
        self.wakers[node] = Some(waker);
    }

    #[inline]
    fn chan(&self, src: NodeId, dst: NodeId, ctx: usize) -> usize {
        (src * self.nodes + dst) * self.contexts + ctx
    }

    #[inline]
    fn node_ctx(&self, node: NodeId, ctx: usize) -> usize {
        node * self.contexts + ctx
    }

    /// Post a send from `core` on the packet's source node, no earlier
    /// than `at` (the caller's accumulated virtual time — descriptor
    /// posting happens after whatever CPU work preceded it).
    ///
    /// The posting core is busy until `SendOutcome::cpu_done` (endpoint
    /// post + contention); the NIC then serializes the packet onto the
    /// wire independently of the CPU.
    pub fn send(&mut self, sim: &mut Sim, core: usize, at: SimTime, pkt: Packet) -> SendOutcome {
        let now = at.max(sim.now());
        let src = pkt.src;
        let dst = pkt.dst;
        let ctx = pkt.ctx as usize;
        assert!(src < self.nodes && dst < self.nodes, "bad node id");
        assert!(ctx < self.contexts, "bad context id");

        // CPU side: serialize through the sending context.
        let nc = self.node_ctx(src, ctx);
        let cpu_done = self.tx_post[nc].access(now, core, self.model.post_ns);

        // NIC side: injection gap + wire serialization, pipelined.
        let inj_start = cpu_done.max(self.wire_free[src]);
        let busy = self.model.injection_time(pkt.len());
        self.wire_free[src] = inj_start + busy;
        self.link_busy[src] += busy;
        // Delivery instant of a fault-injected duplicate (topology mode
        // forks the copy inside the walk, at the duplicating link).
        let mut dup_at: Option<SimTime> = None;
        let model = self.model.clone();
        let fault = self.fault.clone();
        let nic_done = self.wire_free[src];
        let deliver_at = if let Some(topo) = &mut self.topo {
            // Switched path: once injected, the packet walks the fabric
            // hop by hop — queueing through every output-port buffer on
            // its route. Per-link faults are rolled inside the walk.
            let r = topo.walk(nic_done, src, dst, pkt.len(), &model, core, &fault, &mut sim.rng);
            if r.retries > 0 {
                sim.stats.bump("net.retransmitted");
            }
            dup_at = r.dup_deliver_at;
            // Causal wire span: injection through final delivery; the
            // `fixed` part is the path's pure propagation latency.
            causal::mark("net.wire", MarkKind::Wire, inj_start, r.deliver_at, r.prop_ns);
            r.deliver_at
        } else {
            let mut deliver_at = self.wire_free[src] + self.model.latency_ns;
            if self.fault.drop_prob > 0.0 && sim.rng.gen_bool(self.fault.drop_prob.min(1.0)) {
                // Wire-level loss: the NIC retransmits after a round trip.
                sim.stats.bump("net.retransmitted");
                deliver_at = deliver_at + busy + 2 * self.model.latency_ns;
                telemetry::fault_event_at("net.retransmit", inj_start);
            }
            // Causal wire span: injection + serialization + propagation.
            // The `fixed` part is pure propagation latency (what a latency
            // knob scales); the rest is bandwidth-dependent.
            causal::mark("net.wire", MarkKind::Wire, inj_start, deliver_at, self.model.latency_ns);
            deliver_at
        };

        self.sent += 1;
        self.bytes_sent += pkt.len() as u64;
        sim.stats.bump("net.sent");
        // Per-link utilization track: cumulative wire-busy µs, sampled at
        // the instant the link frees (the `with` guard keeps the disabled
        // path allocation-free).
        telemetry::with(|tel| {
            if self.link_tracks.is_empty() {
                self.link_tracks.resize(self.nodes, None);
            }
            let name =
                self.link_tracks[src].get_or_insert_with(|| format!("net.link{src}.busy_us"));
            tel.track_sample(name, self.wire_free[src], self.link_busy[src] as f64 / 1e3);
        });

        let chan = self.chan(src, dst, ctx);
        // Channel-level duplication only applies on the direct wire; a
        // topology already rolled per-link duplication inside the walk.
        let dup = self.topo.is_none()
            && self.fault.duplicate_prob > 0.0
            && sim.rng.gen_bool(self.fault.duplicate_prob.min(1.0));
        let reorder =
            self.fault.reorder_prob > 0.0 && sim.rng.gen_bool(self.fault.reorder_prob.min(1.0));

        if dup {
            sim.stats.bump("net.duplicated");
            telemetry::fault_event_at("net.duplicate", deliver_at);
            self.queues[chan].push_back(InFlight { deliver_at, pkt: pkt.clone() });
        }
        match dup_at {
            Some(at) => {
                sim.stats.bump("net.duplicated");
                self.queues[chan].push_back(InFlight { deliver_at, pkt: pkt.clone() });
                self.queues[chan].push_back(InFlight { deliver_at: at, pkt });
            }
            None => self.queues[chan].push_back(InFlight { deliver_at, pkt }),
        }
        if reorder {
            let q = &mut self.queues[chan];
            let n = q.len();
            if n >= 2 {
                sim.stats.bump("net.reordered");
                telemetry::fault_event_at("net.reorder", deliver_at);
                q.swap(n - 1, n - 2);
            }
        }

        if let Some(waker) = self.wakers[dst].clone() {
            waker(sim, deliver_at);
        }
        SendOutcome { cpu_done, deliver_at }
    }

    /// Poll context 0 of node `dst` (the common single-context case).
    pub fn poll(&mut self, sim: &mut Sim, core: usize, dst: NodeId) -> PollOutcome {
        self.poll_ctx(sim, core, dst, 0)
    }

    /// Poll one context of node `dst`'s RX queues from `core`.
    /// Round-robins over source channels for fairness.
    pub fn poll_ctx(&mut self, sim: &mut Sim, core: usize, dst: NodeId, ctx: usize) -> PollOutcome {
        let now = sim.now();
        let nc = self.node_ctx(dst, ctx);
        let cpu = self.rx_access[nc].access(now, core, self.model.rx_poll_ns);

        let mut next_arrival: Option<SimTime> = None;
        for i in 0..self.nodes {
            let src = (self.rx_cursor[nc] + i) % self.nodes;
            let chan = self.chan(src, dst, ctx);
            if let Some(head) = self.queues[chan].front() {
                if head.deliver_at <= now {
                    let inflight = self.queues[chan].pop_front().expect("head exists");
                    self.rx_cursor[nc] = (src + 1) % self.nodes;
                    self.delivered += 1;
                    sim.stats.bump("net.delivered");
                    let cpu_done = cpu + self.model.rx_reap_ns;
                    return PollOutcome::Packet {
                        pkt: inflight.pkt,
                        cpu_done,
                        arrived: inflight.deliver_at,
                    };
                }
                next_arrival = Some(match next_arrival {
                    Some(t) => t.min(head.deliver_at),
                    None => head.deliver_at,
                });
            }
        }
        PollOutcome::Empty { cpu_done: cpu, next_arrival }
    }

    /// Drain every in-flight packet `home` sent to another node into `out`
    /// as `(deliver_at, pkt)` pairs — the lane-export half of the
    /// federated sharded world, where each lane owns a full fabric replica
    /// but only its `home` node sends or receives locally. Only home's own
    /// row `(home, dst ≠ home, ctx)` can hold such packets (foreign-source
    /// packets enter through [`Fabric::accept_remote`], addressed to
    /// `home`), so the cost is `nodes × contexts` channel checks plus the
    /// packets moved. Channels are visited in `(dst, ctx)` order and each
    /// is drained front-to-back, so per-channel FIFO is preserved and the
    /// output order is placement-independent.
    pub fn drain_sent_by(&mut self, home: NodeId, out: &mut Vec<(SimTime, Packet)>) {
        #[cfg(debug_assertions)]
        for src in (0..self.nodes).filter(|&src| src != home) {
            for dst in (0..self.nodes).filter(|&dst| dst != home) {
                for ctx in 0..self.contexts {
                    assert!(
                        self.queues[self.chan(src, dst, ctx)].is_empty(),
                        "replica of {home} holds a foreign packet {src} -> {dst} (ctx {ctx})"
                    );
                }
            }
        }
        for dst in (0..self.nodes).filter(|&dst| dst != home) {
            for ctx in 0..self.contexts {
                let chan = self.chan(home, dst, ctx);
                out.extend(self.queues[chan].drain(..).map(|f| (f.deliver_at, f.pkt)));
            }
        }
    }

    /// Accept a packet drained from another lane's replica (the
    /// lane-import half of [`Fabric::drain_sent_by`]): enqueue it on its
    /// `(src, dst, ctx)` channel with its original delivery instant and
    /// fire the destination's arrival waker, exactly as a local
    /// [`Fabric::send`] would have. Acceptance order must follow the
    /// sender's drain order per channel to keep FIFO delivery.
    pub fn accept_remote(&mut self, sim: &mut Sim, deliver_at: SimTime, pkt: Packet) {
        let chan = self.chan(pkt.src, pkt.dst, pkt.ctx as usize);
        let dst = pkt.dst;
        self.queues[chan].push_back(InFlight { deliver_at, pkt });
        if let Some(waker) = self.wakers[dst].clone() {
            waker(sim, deliver_at);
        }
    }

    /// Earliest pending arrival at `dst` (any context), if any packet is
    /// in flight.
    pub fn next_arrival(&self, dst: NodeId) -> Option<SimTime> {
        let mut best: Option<SimTime> = None;
        for src in 0..self.nodes {
            for ctx in 0..self.contexts {
                if let Some(head) = self.queues[self.chan(src, dst, ctx)].front() {
                    best = Some(match best {
                        Some(t) => t.min(head.deliver_at),
                        None => head.deliver_at,
                    });
                }
            }
        }
        best
    }

    /// Number of packets currently in flight towards `dst`.
    pub fn pending(&self, dst: NodeId) -> usize {
        (0..self.nodes)
            .flat_map(|src| (0..self.contexts).map(move |c| (src, c)))
            .map(|(src, c)| self.queues[self.chan(src, dst, c)].len())
            .sum()
    }

    /// Total packets sent so far.
    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// Total packets delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Total payload bytes sent.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent
    }

    /// Cumulative wire-busy time of `node`'s TX link, ns.
    pub fn link_busy_ns(&self, node: NodeId) -> u64 {
        self.link_busy[node]
    }

    /// Utilization of `node`'s TX link over `[0, now]`.
    pub fn link_utilization(&self, node: NodeId, now: SimTime) -> f64 {
        if now.as_nanos() == 0 {
            0.0
        } else {
            self.link_busy[node] as f64 / now.as_nanos() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn pkt(src: NodeId, dst: NodeId, tag: u64, len: usize) -> Packet {
        Packet { src, dst, ctx: 0, kind: 0, tag, imm: 0, data: Bytes::from(vec![0u8; len]) }
    }

    #[test]
    fn contexts_are_independent_channels() {
        let mut sim = Sim::new(1);
        let mut fab = Fabric::with_contexts(2, WireModel::ideal(), 2);
        let mut p0 = pkt(0, 1, 10, 8);
        let mut p1 = pkt(0, 1, 20, 8);
        p0.ctx = 0;
        p1.ctx = 1;
        fab.send(&mut sim, 0, SimTime::ZERO, p0);
        fab.send(&mut sim, 0, SimTime::ZERO, p1);
        // Context 1 sees only its own packet.
        match fab.poll_ctx(&mut sim, 0, 1, 1) {
            PollOutcome::Packet { pkt, .. } => assert_eq!(pkt.tag, 20),
            _ => panic!("ctx 1 should have a packet"),
        }
        match fab.poll_ctx(&mut sim, 0, 1, 0) {
            PollOutcome::Packet { pkt, .. } => assert_eq!(pkt.tag, 10),
            _ => panic!("ctx 0 should have a packet"),
        }
        assert_eq!(fab.pending(1), 0);
    }

    #[test]
    fn contexts_have_separate_tx_serialization() {
        let mut sim = Sim::new(1);
        let mut fab = Fabric::with_contexts(2, WireModel::expanse(), 2);
        let mut a = pkt(0, 1, 0, 8);
        let mut b = pkt(0, 1, 1, 8);
        a.ctx = 0;
        b.ctx = 1;
        // Two cores posting to different contexts: no queueing between them.
        let ta = fab.send(&mut sim, 0, SimTime::ZERO, a).cpu_done;
        let tb = fab.send(&mut sim, 1, SimTime::ZERO, b).cpu_done;
        assert_eq!(ta, tb, "independent contexts must not serialize posts");
    }

    #[test]
    fn packet_arrives_after_latency() {
        let mut sim = Sim::new(1);
        let mut fab = Fabric::new(2, WireModel::expanse());
        let out = fab.send(&mut sim, 0, SimTime::ZERO, pkt(0, 1, 7, 8));
        assert!(out.deliver_at.as_nanos() >= 1_000, "must include propagation latency");

        // Not deliverable before deliver_at.
        match fab.poll(&mut sim, 0, 1) {
            PollOutcome::Empty { next_arrival, .. } => {
                assert_eq!(next_arrival, Some(out.deliver_at))
            }
            _ => panic!("too early"),
        }
        sim.run_until(out.deliver_at);
        match fab.poll(&mut sim, 0, 1) {
            PollOutcome::Packet { pkt, cpu_done, arrived } => {
                assert_eq!(pkt.tag, 7);
                assert!(cpu_done > out.deliver_at);
                assert_eq!(arrived, out.deliver_at);
            }
            _ => panic!("should be deliverable"),
        }
        assert_eq!(fab.delivered(), 1);
    }

    #[test]
    fn per_pair_delivery_is_fifo() {
        let mut sim = Sim::new(1);
        let mut fab = Fabric::new(2, WireModel::expanse());
        for tag in 0..10 {
            fab.send(&mut sim, 0, SimTime::ZERO, pkt(0, 1, tag, 64));
        }
        sim.run_until(SimTime::from_millis(1));
        let mut tags = Vec::new();
        while let PollOutcome::Packet { pkt, .. } = fab.poll(&mut sim, 0, 1) {
            tags.push(pkt.tag);
        }
        assert_eq!(tags, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn injection_gap_limits_message_rate() {
        let mut sim = Sim::new(1);
        let model = WireModel::expanse();
        let gap = model.injection_time(8);
        let mut fab = Fabric::new(2, model);
        let mut last = SimTime::ZERO;
        for i in 0..100 {
            let out = fab.send(&mut sim, 0, SimTime::ZERO, pkt(0, 1, i, 8));
            if i > 0 {
                assert!(out.deliver_at - last >= gap, "NIC gap must separate deliveries");
            }
            last = out.deliver_at;
        }
    }

    #[test]
    fn large_messages_take_longer_on_the_wire() {
        let mut sim = Sim::new(1);
        let mut fab = Fabric::new(2, WireModel::expanse());
        let small = fab.send(&mut sim, 0, SimTime::ZERO, pkt(0, 1, 0, 8)).deliver_at;
        let mut sim2 = Sim::new(1);
        let mut fab2 = Fabric::new(2, WireModel::expanse());
        let big = fab2.send(&mut sim2, 0, SimTime::ZERO, pkt(0, 1, 0, 65536)).deliver_at;
        assert!(big > small);
    }

    #[test]
    fn concurrent_posters_contend_on_tx_context() {
        let mut sim = Sim::new(1);
        let mut fab = Fabric::new(2, WireModel::expanse());
        // Two cores post at the same instant; second pays queueing + transfer.
        let a = fab.send(&mut sim, 0, SimTime::ZERO, pkt(0, 1, 0, 8)).cpu_done;
        let b = fab.send(&mut sim, 1, SimTime::ZERO, pkt(0, 1, 1, 8)).cpu_done;
        assert!(b > a);
        assert!(b - a >= 150, "ownership migration penalty applies");
    }

    #[test]
    fn arrival_waker_fires_on_send() {
        use std::cell::RefCell;
        let mut sim = Sim::new(1);
        let mut fab = Fabric::new(2, WireModel::expanse());
        let woken: Rc<RefCell<Vec<SimTime>>> = Rc::new(RefCell::new(Vec::new()));
        let w = woken.clone();
        fab.set_arrival_waker(
            1,
            Rc::new(move |_sim: &mut Sim, at: SimTime| w.borrow_mut().push(at)),
        );
        let out = fab.send(&mut sim, 0, SimTime::ZERO, pkt(0, 1, 0, 8));
        assert_eq!(*woken.borrow(), vec![out.deliver_at]);
    }

    #[test]
    fn duplication_fault_delivers_twice() {
        let mut sim = Sim::new(1);
        let mut fab = Fabric::new(2, WireModel::ideal());
        fab.set_faults(FaultConfig { duplicate_prob: 1.0, ..FaultConfig::default() });
        fab.send(&mut sim, 0, SimTime::ZERO, pkt(0, 1, 9, 8));
        let mut got = 0;
        while let PollOutcome::Packet { pkt, .. } = fab.poll(&mut sim, 0, 1) {
            assert_eq!(pkt.tag, 9);
            got += 1;
        }
        assert_eq!(got, 2);
    }

    #[test]
    fn reordering_fault_swaps_neighbours() {
        let mut sim = Sim::new(1);
        let mut fab = Fabric::new(2, WireModel::ideal());
        fab.set_faults(FaultConfig { reorder_prob: 1.0, ..FaultConfig::default() });
        fab.send(&mut sim, 0, SimTime::ZERO, pkt(0, 1, 0, 8));
        fab.send(&mut sim, 0, SimTime::ZERO, pkt(0, 1, 1, 8));
        let mut tags = Vec::new();
        while let PollOutcome::Packet { pkt, .. } = fab.poll(&mut sim, 0, 1) {
            tags.push(pkt.tag);
        }
        assert_eq!(tags, vec![1, 0]);
    }

    #[test]
    fn link_busy_tracks_wire_serialization() {
        let mut sim = Sim::new(1);
        let mut fab = Fabric::new(2, WireModel::expanse());
        assert_eq!(fab.link_busy_ns(0), 0);
        fab.send(&mut sim, 0, SimTime::ZERO, pkt(0, 1, 0, 64));
        let one = fab.link_busy_ns(0);
        assert!(one > 0);
        fab.send(&mut sim, 0, SimTime::ZERO, pkt(0, 1, 1, 64));
        assert_eq!(fab.link_busy_ns(0), 2 * one);
        assert_eq!(fab.link_busy_ns(1), 0, "receiver's TX link stays idle");
        assert!(fab.link_utilization(0, SimTime::from_millis(1)) > 0.0);
        assert_eq!(fab.link_utilization(0, SimTime::ZERO), 0.0);
    }

    #[test]
    fn min_lookahead_bounds_every_delivery() {
        let model = WireModel::expanse();
        let mut sim = Sim::new(1);
        let mut fab = Fabric::new(2, model);
        let la = fab.min_lookahead();
        assert_eq!(la, fab.model().latency_ns);
        assert!(la > 0, "expanse wire has real propagation latency");
        // Every delivery instant respects the advertised lookahead, even
        // for back-to-back posts queueing on the wire.
        for i in 0..20 {
            let posted = sim.now();
            let out = fab.send(&mut sim, 0, posted, pkt(0, 1, i, 4096));
            assert!(
                out.deliver_at.as_nanos() >= posted.as_nanos() + la,
                "delivery {i} undercuts the lookahead"
            );
        }
        // The ideal (zero-latency) model is floored at 1 ns so a
        // conservative engine can always run (visibility deferral, not a
        // delivery delay — see the min_lookahead docs).
        assert_eq!(Fabric::new(2, WireModel::ideal()).min_lookahead(), 1);
    }

    #[test]
    fn ideal_wire_lookahead_floor_defers_visibility_not_delivery() {
        let mut sim = Sim::new(1);
        let mut fab = Fabric::new(2, WireModel::ideal());
        assert_eq!(fab.min_lookahead(), 1, "documented positive floor");
        // Delivery itself is still instantaneous on the ideal wire: the
        // floor only governs when a *remote lane* may observe the packet.
        let out = fab.send(&mut sim, 0, SimTime::ZERO, pkt(0, 1, 3, 8));
        assert_eq!(out.deliver_at, SimTime::ZERO);
        match fab.poll(&mut sim, 0, 1) {
            PollOutcome::Packet { pkt, arrived, .. } => {
                assert_eq!(pkt.tag, 3);
                assert_eq!(arrived, SimTime::ZERO);
            }
            _ => panic!("ideal wire delivers at the send instant"),
        }
    }

    #[test]
    fn remote_drain_and_accept_preserve_fifo_and_wake() {
        use std::cell::RefCell;
        let mut sim = Sim::new(1);
        // Lane 0's replica of a 3-node, 2-context fabric: home 0 sends to
        // nodes 1 and 2 on both contexts, interleaved, and has accepted
        // inbound packets from 1 and 2.
        let mut src_fab = Fabric::with_contexts(3, WireModel::expanse(), 2);
        for (dst, ctx, tag) in [(2, 1, 21), (1, 1, 11), (2, 0, 20), (1, 0, 10), (1, 0, 12)] {
            fab_send_tagged(&mut src_fab, &mut sim, (0, dst, ctx), tag);
        }
        for (src, ctx, tag) in [(1, 0, 90), (2, 1, 91)] {
            let mut inbound = pkt(src, 0, tag, 8);
            inbound.ctx = ctx;
            src_fab.accept_remote(&mut sim, SimTime::from_micros(5), inbound);
        }
        assert_eq!(src_fab.pending(0), 2);
        let mut out = Vec::new();
        src_fab.drain_sent_by(0, &mut out);
        let drained: Vec<_> = out.iter().map(|(_, p)| (p.dst, p.ctx, p.tag)).collect();
        assert_eq!(
            drained,
            vec![(1, 0, 10), (1, 0, 12), (1, 1, 11), (2, 0, 20), (2, 1, 21)],
            "drain yields exactly home's sends, (dst, ctx) order, FIFO per channel"
        );
        assert_eq!(src_fab.pending(0), 2, "inbound packets stay for home to poll");
        assert_eq!(src_fab.pending(1) + src_fab.pending(2), 0, "drained packets leave the replica");

        // Lane 1's replica: accept fires the registered arrival waker.
        let mut dst_fab = Fabric::with_contexts(3, WireModel::expanse(), 2);
        let woken: Rc<RefCell<Vec<SimTime>>> = Rc::new(RefCell::new(Vec::new()));
        let w = woken.clone();
        dst_fab.set_arrival_waker(
            1,
            Rc::new(move |_sim: &mut Sim, at: SimTime| w.borrow_mut().push(at)),
        );
        let last = out.iter().map(|&(at, _)| at).max().expect("drained packets");
        for (deliver_at, pkt) in out.into_iter().filter(|(_, p)| p.dst == 1) {
            dst_fab.accept_remote(&mut sim, deliver_at, pkt);
        }
        assert_eq!(woken.borrow().len(), 3);
        sim.run_until(last);
        let mut tags = Vec::new();
        for ctx in 0..2 {
            while let PollOutcome::Packet { pkt, .. } = dst_fab.poll_ctx(&mut sim, 0, 1, ctx) {
                tags.push(pkt.tag);
            }
        }
        assert_eq!(tags, vec![10, 12, 11], "accepted packets deliver in order");
    }

    fn fab_send_tagged(
        fab: &mut Fabric,
        sim: &mut Sim,
        (src, dst, ctx): (NodeId, NodeId, u8),
        tag: u64,
    ) {
        let now = sim.now();
        let mut p = pkt(src, dst, tag, 64);
        p.ctx = ctx;
        fab.send(sim, 0, now, p);
    }

    #[test]
    fn topology_fabric_delivers_end_to_end() {
        use crate::topo::Topology;
        let mut sim = Sim::new(1);
        let mut fab = Fabric::with_topology(16, WireModel::expanse(), &Topology::fat_tree_for(16));
        assert_eq!(fab.min_lookahead(), 300, "lookahead becomes the first-hop link");
        let out = fab.send(&mut sim, 0, SimTime::ZERO, pkt(0, 15, 5, 64));
        sim.run_until(out.deliver_at);
        match fab.poll(&mut sim, 0, 15) {
            PollOutcome::Packet { pkt, arrived, .. } => {
                assert_eq!(pkt.tag, 5);
                assert_eq!(arrived, out.deliver_at);
            }
            _ => panic!("packet should be deliverable at its walk time"),
        }
        // Every port on the static route saw the packet.
        let topo = fab.topology().expect("switched fabric");
        for (sw, port) in topo.route_ports(0, 15) {
            assert!(topo.port_counters(sw, port).xmit_pkts >= 1);
        }
    }

    #[test]
    fn direct_topology_is_plain_fabric() {
        use crate::topo::Topology;
        let mut sim = Sim::new(1);
        let mut plain = Fabric::new(2, WireModel::expanse());
        let mut via = Fabric::with_topology(2, WireModel::expanse(), &Topology::Direct);
        assert!(via.topology().is_none());
        assert_eq!(plain.min_lookahead(), via.min_lookahead());
        let a = plain.send(&mut sim, 0, SimTime::ZERO, pkt(0, 1, 0, 256));
        let b = via.send(&mut sim, 0, SimTime::ZERO, pkt(0, 1, 0, 256));
        assert_eq!(a.deliver_at, b.deliver_at);
        assert_eq!(a.cpu_done, b.cpu_done);
    }

    #[test]
    fn direct_drop_fault_delays_but_delivers() {
        let mut sim = Sim::new(1);
        let mut fab = Fabric::new(2, WireModel::expanse());
        let clean = fab.send(&mut sim, 0, SimTime::ZERO, pkt(0, 1, 0, 8)).deliver_at;
        let mut fab = Fabric::new(2, WireModel::expanse());
        fab.set_faults(FaultConfig { drop_prob: 1.0, ..FaultConfig::default() });
        let out = fab.send(&mut sim, 0, SimTime::ZERO, pkt(0, 1, 0, 8));
        assert!(out.deliver_at > clean, "retransmit must cost a round trip");
        sim.run_until(out.deliver_at);
        match fab.poll(&mut sim, 0, 1) {
            PollOutcome::Packet { .. } => {}
            _ => panic!("drop faults must stay reliable end-to-end"),
        }
    }

    #[test]
    fn pending_counts_in_flight() {
        let mut sim = Sim::new(1);
        let mut fab = Fabric::new(3, WireModel::expanse());
        fab.send(&mut sim, 0, SimTime::ZERO, pkt(0, 2, 0, 8));
        fab.send(&mut sim, 0, SimTime::ZERO, pkt(1, 2, 0, 8));
        assert_eq!(fab.pending(2), 2);
        assert_eq!(fab.pending(0), 0);
    }

    #[test]
    fn round_robin_across_sources() {
        let mut sim = Sim::new(1);
        let mut fab = Fabric::new(3, WireModel::ideal());
        for _ in 0..3 {
            fab.send(&mut sim, 0, SimTime::ZERO, pkt(0, 2, 100, 8));
            fab.send(&mut sim, 0, SimTime::ZERO, pkt(1, 2, 200, 8));
        }
        let mut tags = Vec::new();
        while let PollOutcome::Packet { pkt, .. } = fab.poll(&mut sim, 0, 2) {
            tags.push(pkt.tag);
        }
        // Fairness: sources alternate rather than one draining first.
        assert_eq!(tags.len(), 6);
        assert_ne!(tags[..2], [100, 100]);
    }
}
