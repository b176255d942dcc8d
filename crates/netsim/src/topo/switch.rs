//! The live switch fabric: per-switch output-port buffers, packet
//! walking, per-port IB-style counters, and link failure with reroute.
//!
//! Every output port is a [`SimResource`] (service = switch forwarding +
//! wire serialization of the packet on that link, ownership-transfer cost
//! zero), so queueing, congestion, and head-of-line blocking fall out of
//! the existing resource machinery: port waits land in the contention
//! attributor via `simcore::probe` and on the causal graph via the
//! resource's `Wait`/`Work` marks, with no extra instrumentation here.
//!
//! Counters mirror the InfiniBand PMA set (`ibmad`'s `perfquery`):
//! `xmit_pkts`/`xmit_bytes` are PortXmitPkts/PortXmitData, `xmit_wait_ns`
//! is PortXmitWait (time a packet sat queued with the port busy), and the
//! sampled buffer occupancy is exported as a Chrome-trace counter track
//! per touched port. A packet is walked hop-by-hop at send time —
//! virtual-cut-through with port reservations — so a multi-hop delivery
//! is a pure timing computation, not extra simulator events.
//!
//! A fabric splits into an immutable half and a live half. The graph,
//! the interned port names and the routing state are built once and held
//! behind `Arc`, so every [`SwitchFabric::replica`] shares them; each
//! replica owns only its port buffers and counters. Routing state is
//! copied on write: a [`SwitchFabric::fail_link`] on one fabric reroutes
//! that fabric alone. A port's buffer and counters materialize on its
//! first access (a walk through it, a retransmit, or a failure); an
//! untouched port reads as idle with zero counters, so a replica costs
//! one slot table and its memory follows the ports its traffic crosses.

use std::collections::VecDeque;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::Rng;
use simcore::{SimResource, SimTime};

use super::graph::{Dist, Peer, TopoGraph};
use super::routing::{compute_static, minimal_candidates, RouteTable, RoutingPolicy};
use super::{intern_port, PortNames};
use crate::fabric::FaultConfig;
use crate::model::WireModel;
use crate::slots::Slots;

/// Per-port transmit counters (IB PMA flavoured).
#[derive(Debug, Clone, Copy, Default)]
pub struct PortCounters {
    /// Packets transmitted through this port.
    pub xmit_pkts: u64,
    /// Payload+frame bytes transmitted.
    pub xmit_bytes: u64,
    /// Cumulative time packets waited for the port (queueing), ns — the
    /// PortXmitWait analogue, and the congestion observable.
    pub xmit_wait_ns: u64,
    /// Link-level retransmits performed (drop-fault recovery).
    pub retries: u64,
    /// Times this port's link was administratively killed
    /// ([`SwitchFabric::fail_link`]) — the error-counter observable.
    pub link_downed: u32,
}

struct PortState {
    res: SimResource,
    counters: PortCounters,
    /// Departure instants (ns) of packets still occupying the buffer at
    /// the last access — pruned lazily; its length is the occupancy.
    inflight: VecDeque<u64>,
    /// Last counter-track sample instant (tracks must stay time-ordered
    /// even though multi-hop walks timestamp ports ahead of time).
    last_sample_ns: u64,
}

impl PortState {
    /// An idle port with zero counters.
    fn idle(name: &'static str) -> Self {
        PortState {
            res: SimResource::new(name, 0),
            counters: PortCounters::default(),
            inflight: VecDeque::new(),
            last_sample_ns: 0,
        }
    }
}

/// Outcome of walking one packet through the fabric.
#[derive(Debug, Clone, Copy)]
pub struct WalkResult {
    /// When the packet is fully delivered at the destination NIC.
    pub deliver_at: SimTime,
    /// Delivery instant of a fault-injected duplicate copy, if any.
    pub dup_deliver_at: Option<SimTime>,
    /// Switch egress traversals taken (incl. the final downlink).
    pub hops: u32,
    /// Pure propagation latency along the path (host links + wires), ns —
    /// the bandwidth-independent portion for the causal wire mark.
    pub prop_ns: u64,
    /// Link-level retransmits this packet suffered.
    pub retries: u32,
}

/// What a link failure recomputes: distances, the static table and the
/// failed-port mask (by flattened index).
#[derive(Clone)]
struct Routes {
    dist: Dist,
    table: RouteTable,
    dead: Vec<bool>,
}

/// A built topology: the shared graph, port names and routes, plus this
/// fabric's own live port buffers (by flattened index, each created on
/// its first access).
pub struct SwitchFabric {
    graph: Arc<TopoGraph>,
    /// Interned names of every port, by flattened index.
    names: Arc<[&'static PortNames]>,
    /// Shared with the replicas until a link fails (copy on write).
    routes: Arc<Routes>,
    policy: RoutingPolicy,
    switch_ns: u64,
    ports: Slots<PortState>,
    cand_buf: Vec<u16>,
}

impl SwitchFabric {
    /// Build the live fabric from a validated graph.
    pub fn build(graph: TopoGraph, policy: RoutingPolicy, switch_ns: u64) -> Self {
        graph.validate().expect("topology graph must be well-formed");
        let dead = vec![false; graph.num_ports()];
        let dist = graph.compute_dist(&dead);
        let table = compute_static(&graph, &dist, &dead);
        let names: Arc<[_]> = (0..graph.switches())
            .flat_map(|sw| {
                let spec = graph.switch(sw);
                (0..spec.ports.len()).map(|pi| intern_port(format!("fab.{}.p{pi}", spec.label)))
            })
            .collect();
        SwitchFabric {
            ports: Slots::new(names.len()),
            graph: Arc::new(graph),
            names,
            routes: Arc::new(Routes { dist, table, dead }),
            policy,
            switch_ns,
            cand_buf: Vec::new(),
        }
    }

    /// A fabric of the same topology with idle ports and zero counters.
    /// It shares this fabric's graph, port names and current routes (a
    /// link failed here stays failed there) instead of rebuilding them,
    /// and holds no port state until its traffic touches a port.
    pub fn replica(&self) -> SwitchFabric {
        SwitchFabric {
            graph: Arc::clone(&self.graph),
            names: Arc::clone(&self.names),
            routes: Arc::clone(&self.routes),
            policy: self.policy,
            switch_ns: self.switch_ns,
            ports: Slots::new(self.names.len()),
            cand_buf: Vec::new(),
        }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &TopoGraph {
        &self.graph
    }

    /// Routing policy in use.
    pub fn policy(&self) -> RoutingPolicy {
        self.policy
    }

    /// Minimum first-hop (host NIC link) latency — the conservative
    /// lookahead this topology guarantees on every delivery.
    pub fn min_first_hop_latency(&self) -> u64 {
        self.graph.min_host_latency()
    }

    /// Counters of port `(sw, port)` (all zero if nothing touched it).
    pub fn port_counters(&self, sw: usize, port: usize) -> PortCounters {
        self.ports
            .get(self.graph.port_index(sw, port))
            .map_or_else(Default::default, |p| p.counters)
    }

    /// Number of ports whose state exists (touched at least once).
    #[cfg(test)]
    pub(crate) fn live_ports(&self) -> usize {
        self.ports.len()
    }

    /// Iterate `(name, counters)` over all ports that carried traffic or
    /// lost their link, busiest (by `xmit_wait_ns`) first, then by name.
    pub fn ranked_ports(&self) -> Vec<(&'static str, PortCounters)> {
        let mut rows: Vec<_> = self
            .ports
            .values()
            .filter(|p| p.counters.xmit_pkts > 0 || p.counters.link_downed > 0)
            .map(|p| (p.res.name(), p.counters))
            .collect();
        rows.sort_by(|a, b| b.1.xmit_wait_ns.cmp(&a.1.xmit_wait_ns).then(a.0.cmp(b.0)));
        rows
    }

    /// The static route from `src` to `dst` as `(switch, port)` egress
    /// hops, final downlink included. Uses the current table (so it
    /// reflects failures). Intended for tests picking fault victims.
    pub fn route_ports(&self, src: usize, dst: usize) -> Vec<(usize, usize)> {
        let mut hops = Vec::new();
        let (mut sw, _) = self.graph.host_port(src);
        loop {
            let port = self
                .routes
                .table
                .port(sw, dst)
                .unwrap_or_else(|| panic!("no route from switch {sw} to host {dst}"));
            hops.push((sw, port));
            match self.graph.switch(sw).ports[port].peer {
                Peer::Host(h) => {
                    debug_assert_eq!(h, dst);
                    return hops;
                }
                Peer::Switch { sw: n, .. } => sw = n,
                Peer::Unconnected => unreachable!("routed into an unconnected port"),
            }
        }
    }

    /// Zero-load latency of the static route for a `len`-byte packet:
    /// host link + per-hop (switch forwarding + wire serialization +
    /// link propagation). No queueing — a floor, and a deterministic
    /// cross-lane delay for the sharded-engine tests.
    pub fn static_path_latency(
        &self,
        src: usize,
        dst: usize,
        len: usize,
        model: &WireModel,
    ) -> u64 {
        let mut t = self.graph.host_latency(src);
        for (sw, port) in self.route_ports(src, dst) {
            t += self.switch_ns + model.wire_time(len);
            t += self.graph.switch(sw).ports[port].latency_ns;
        }
        t
    }

    /// Administratively kill the link behind `(sw, port)` — both
    /// directions — and recompute distances and the static table so new
    /// packets route around it. Packets already walked keep their
    /// delivery times (they left before the failure). The routes are
    /// copied first if a replica shares them, so only this fabric
    /// reroutes. Returns `false` if the port was already dead or
    /// unconnected.
    pub fn fail_link(&mut self, sw: usize, port: usize) -> bool {
        let flat = self.graph.port_index(sw, port);
        if self.routes.dead[flat] {
            return false;
        }
        let peer = match self.graph.switch(sw).ports[port].peer {
            Peer::Unconnected => return false,
            Peer::Host(_) => None,
            Peer::Switch { sw: psw, port: pport } => Some(self.graph.port_index(psw, pport)),
        };
        let ends = || std::iter::once(flat).chain(peer);
        for f in ends() {
            self.port_mut(f).counters.link_downed += 1;
        }
        let routes = Arc::make_mut(&mut self.routes);
        for f in ends() {
            routes.dead[f] = true;
        }
        telemetry::fault_event("fab.link_down");
        routes.dist = self.graph.compute_dist(&routes.dead);
        routes.table = compute_static(&self.graph, &routes.dist, &routes.dead);
        true
    }

    /// Pick the egress port of `sw` towards `dst` under the active policy.
    fn pick(&mut self, sw: usize, dst: usize) -> Option<usize> {
        let routes = &self.routes;
        match self.policy {
            RoutingPolicy::Static => routes.table.port(sw, dst),
            RoutingPolicy::Adaptive => {
                let mut buf = std::mem::take(&mut self.cand_buf);
                buf.clear();
                minimal_candidates(&self.graph, &routes.dist, &routes.dead, sw, dst, &mut buf);
                // Least-loaded: earliest `free_at`; ties break by port
                // index (`buf` is in port order and `min` keeps the
                // first minimum) so runs stay bit-identical.
                let best = buf
                    .iter()
                    .map(|&p| {
                        let flat = self.graph.port_index(sw, p as usize);
                        let free_at =
                            self.ports.get(flat).map_or(SimTime::ZERO, |p| p.res.free_at());
                        (free_at, p as usize)
                    })
                    .min()
                    .map(|(_, p)| p);
                self.cand_buf = buf;
                best
            }
        }
    }

    /// The live state of port `flat`, created idle on first access.
    fn port_mut(&mut self, flat: usize) -> &mut PortState {
        let names = &self.names;
        self.ports.get_or_insert_with(flat, || PortState::idle(names[flat].name))
    }

    /// One egress-port access: queue + serialize through the port buffer,
    /// maintain counters and the occupancy/xmit-wait counter tracks.
    /// Returns the instant the last byte leaves the port.
    fn port_access(
        &mut self,
        flat: usize,
        t: SimTime,
        core: usize,
        service: u64,
        bytes: u64,
    ) -> SimTime {
        let names = self.names[flat];
        let p = self.port_mut(flat);
        let end = p.res.access(t, core, service);
        let wait = end.since(t) - service;
        p.counters.xmit_pkts += 1;
        p.counters.xmit_bytes += bytes;
        p.counters.xmit_wait_ns += wait;
        let tn = t.as_nanos();
        while p.inflight.front().is_some_and(|&d| d <= tn) {
            p.inflight.pop_front();
        }
        p.inflight.push_back(end.as_nanos());
        telemetry::with(|tel| {
            // Multi-hop walks timestamp downstream ports ahead of wall
            // progress, so clamp sample instants to keep each per-port
            // track time-ordered (a Perfetto requirement that
            // `trace_check` enforces).
            let at = SimTime::from_nanos(tn.max(p.last_sample_ns));
            p.last_sample_ns = at.as_nanos();
            tel.track_sample(names.occ, at, p.inflight.len() as f64);
            tel.track_sample(names.wait, at, p.counters.xmit_wait_ns as f64 / 1e3);
            // Windowed per-port utilization/wait (no-op without a
            // timeline). Keyed by the access instant, not the clamped
            // sample instant: window attribution has no ordering
            // requirement, and the true time is the useful one.
            tel.timeline_port(names.name, t, wait, bytes);
        });
        end
    }

    /// Walk one packet from `src` to `dst`, starting when its last byte
    /// left the source NIC (`nic_done`). Applies per-link fault
    /// injection: a `drop_prob` hit costs a link-level retransmit (one
    /// extra serialization plus a round trip on that link — delivery
    /// stays reliable, like IB link-layer retry), a `duplicate_prob` hit
    /// forks a second copy that completes the walk independently.
    #[allow(clippy::too_many_arguments)]
    pub fn walk(
        &mut self,
        nic_done: SimTime,
        src: usize,
        dst: usize,
        len: usize,
        model: &WireModel,
        core: usize,
        faults: &FaultConfig,
        rng: &mut StdRng,
    ) -> WalkResult {
        let bytes = (len + model.frame_bytes) as u64;
        let service = self.switch_ns + model.wire_time(len);
        let mut t = nic_done + self.graph.host_latency(src);
        let mut prop = self.graph.host_latency(src);
        let (mut sw, _) = self.graph.host_port(src);
        let mut hops = 0u32;
        let mut retries = 0u32;
        // Where a duplicate copy forked: `None` switch means it forked on
        // the final downlink and is already delivered at the stored time.
        let mut dup: Option<(Option<usize>, SimTime)> = None;
        let deliver_at = loop {
            let port = self.pick(sw, dst).unwrap_or_else(|| {
                panic!(
                    "fabric partitioned: no live minimal port from switch {sw} \
                     ({}) to host {dst}",
                    self.graph.switch(sw).label
                )
            });
            let flat = self.graph.port_index(sw, port);
            let mut done = self.port_access(flat, t, core, service, bytes);
            let spec = &self.graph.switch(sw).ports[port];
            let (peer, link_lat) = (spec.peer, spec.latency_ns);
            if faults.drop_prob > 0.0 && rng.gen_bool(faults.drop_prob.min(1.0)) {
                // Link-level loss: NAK travels back, the port re-serializes.
                retries += 1;
                self.port_mut(flat).counters.retries += 1;
                done = done + 2 * link_lat + service;
                telemetry::fault_event_at("fab.link_retransmit", t);
            }
            if dup.is_none()
                && faults.duplicate_prob > 0.0
                && rng.gen_bool(faults.duplicate_prob.min(1.0))
            {
                // The copy queues behind the original on the same port,
                // then continues on its own.
                let copy_done = self.port_access(flat, t, core, service, bytes);
                let copy_t = copy_done + link_lat;
                telemetry::fault_event_at("fab.link_duplicate", t);
                dup = Some(match peer {
                    Peer::Host(_) => (None, copy_t),
                    Peer::Switch { sw: n, .. } => (Some(n), copy_t),
                    Peer::Unconnected => unreachable!(),
                });
            }
            t = done + link_lat;
            prop += link_lat;
            hops += 1;
            match peer {
                Peer::Host(h) => {
                    debug_assert_eq!(h, dst, "walk must terminate at the destination");
                    break t;
                }
                Peer::Switch { sw: n, .. } => sw = n,
                Peer::Unconnected => unreachable!("picked an unconnected port"),
            }
        };
        let dup_deliver_at = dup.map(|(from, at)| match from {
            None => at,
            Some(from_sw) => self.walk_plain(from_sw, at, dst, service, bytes),
        });
        WalkResult { deliver_at, dup_deliver_at, hops, prop_ns: prop, retries }
    }

    /// Fault-free continuation walk for a duplicate copy.
    fn walk_plain(
        &mut self,
        mut sw: usize,
        mut t: SimTime,
        dst: usize,
        service: u64,
        bytes: u64,
    ) -> SimTime {
        loop {
            let port = self
                .pick(sw, dst)
                .unwrap_or_else(|| panic!("no live route from switch {sw} to host {dst}"));
            let flat = self.graph.port_index(sw, port);
            let done = self.port_access(flat, t, 0, service, bytes);
            let spec = &self.graph.switch(sw).ports[port];
            t = done + spec.latency_ns;
            match spec.peer {
                Peer::Host(_) => return t,
                Peer::Switch { sw: n, .. } => sw = n,
                Peer::Unconnected => unreachable!(),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topo::fattree::FatTreeParams;
    use rand::SeedableRng;

    fn fab(policy: RoutingPolicy) -> SwitchFabric {
        let mut p = FatTreeParams::new(4);
        p.routing = policy;
        p.build()
    }

    fn quiet() -> (WireModel, FaultConfig, StdRng) {
        (WireModel::expanse(), FaultConfig::default(), StdRng::seed_from_u64(7))
    }

    #[test]
    fn walk_pays_per_hop_latency_and_counts() {
        let (model, faults, mut rng) = quiet();
        let mut f = fab(RoutingPolicy::Static);
        // Cross-pod: 5 egress hops.
        let r = f.walk(SimTime::ZERO, 0, 15, 8, &model, 0, &faults, &mut rng);
        assert_eq!(r.hops, 5);
        assert_eq!(r.prop_ns, 300 + 5 * 300, "host link + 5 wire hops");
        let floor = r.prop_ns + 5 * (100 + model.wire_time(8));
        assert_eq!(r.deliver_at.as_nanos(), floor, "zero-load walk has no queueing");
        assert_eq!(r.deliver_at.as_nanos(), f.static_path_latency(0, 15, 8, &model));
        // Same-edge: 1 hop.
        let r = f.walk(SimTime::ZERO, 0, 1, 8, &model, 0, &faults, &mut rng);
        assert_eq!(r.hops, 1);
        // Counters moved on the downlink port of host 1.
        let (sw, port) = f.graph().host_port(1);
        let c = f.port_counters(sw, port);
        assert_eq!(c.xmit_pkts, 1);
        assert_eq!(c.xmit_bytes, (8 + model.frame_bytes) as u64);
    }

    #[test]
    fn hot_spot_queues_and_records_xmit_wait() {
        let (model, faults, mut rng) = quiet();
        let mut f = fab(RoutingPolicy::Static);
        // Everyone in pod 0 blasts host 0: its downlink port serializes.
        let mut last = SimTime::ZERO;
        for src in 1..4 {
            for _ in 0..10 {
                let r = f.walk(SimTime::ZERO, src, 0, 4096, &model, src, &faults, &mut rng);
                last = last.max(r.deliver_at);
            }
        }
        let (sw, port) = f.graph().host_port(0);
        let c = f.port_counters(sw, port);
        assert_eq!(c.xmit_pkts, 30);
        assert!(c.xmit_wait_ns > 0, "hot-spot downlink must record queueing");
        // The downlink serializes 30 packets: delivery spread covers at
        // least the full serialization train.
        assert!(last.as_nanos() >= 30 * model.wire_time(4096));
    }

    #[test]
    fn adaptive_spreads_load_over_up_ports() {
        let (model, faults, mut rng) = quiet();
        let mut f = fab(RoutingPolicy::Adaptive);
        // One source hammers a cross-pod destination: with adaptive
        // routing both up-ports of its edge switch carry packets.
        for _ in 0..8 {
            f.walk(SimTime::ZERO, 0, 15, 4096, &model, 0, &faults, &mut rng);
        }
        let (esw, _) = f.graph().host_port(0);
        let up0 = f.port_counters(esw, 2).xmit_pkts;
        let up1 = f.port_counters(esw, 3).xmit_pkts;
        assert_eq!(up0 + up1, 8);
        assert!(up0 > 0 && up1 > 0, "adaptive must use both up-ports ({up0}/{up1})");
    }

    #[test]
    fn adaptive_is_deterministic() {
        let model = WireModel::expanse();
        let faults = FaultConfig::default();
        let run = || {
            let mut f = fab(RoutingPolicy::Adaptive);
            let mut rng = StdRng::seed_from_u64(3);
            let mut ends = Vec::new();
            for i in 0..40u64 {
                let src = (i % 16) as usize;
                let dst = ((i * 7 + 3) % 16) as usize;
                if src == dst {
                    continue;
                }
                let r = f.walk(
                    SimTime::from_nanos(i * 50),
                    src,
                    dst,
                    256,
                    &model,
                    src,
                    &faults,
                    &mut rng,
                );
                ends.push(r.deliver_at.as_nanos());
            }
            ends
        };
        assert_eq!(run(), run(), "adaptive tie-breaks must be reproducible");
    }

    #[test]
    fn link_failure_reroutes_and_freezes_the_dead_port() {
        let (model, faults, mut rng) = quiet();
        let mut f = fab(RoutingPolicy::Static);
        // Pick the first up-link on the static route 0 -> 15.
        let route = f.route_ports(0, 15);
        let (sw, port) = route[0];
        for _ in 0..5 {
            f.walk(SimTime::ZERO, 0, 15, 8, &model, 0, &faults, &mut rng);
        }
        let before = f.port_counters(sw, port);
        assert!(before.xmit_pkts > 0);
        assert!(f.fail_link(sw, port));
        assert!(!f.fail_link(sw, port), "double-kill is a no-op");
        // New packets avoid the dead link and still arrive.
        for _ in 0..5 {
            let r = f.walk(SimTime::ZERO, 0, 15, 8, &model, 0, &faults, &mut rng);
            assert_eq!(r.hops, 5);
        }
        let after = f.port_counters(sw, port);
        assert_eq!(after.xmit_pkts, before.xmit_pkts, "dead port must stop transmitting");
        assert_eq!(after.link_downed, 1, "LinkDowned error counter is the observable");
        assert_ne!(f.route_ports(0, 15)[0], (sw, port), "route must change");
    }

    /// A replica shares the graph, names and routes with its source and
    /// holds no port state: a walk materializes exactly the ports of its
    /// route, an untouched port reads as idle with zero counters, and a
    /// failure on an untouched port still counts `link_downed`.
    #[test]
    fn replica_shares_topology_and_owns_idle_ports() {
        let (model, faults, mut rng) = quiet();
        let mut src = fab(RoutingPolicy::Static);
        for _ in 0..3 {
            src.walk(SimTime::ZERO, 0, 15, 4096, &model, 0, &faults, &mut rng);
        }
        let mut r = src.replica();
        assert!(Arc::ptr_eq(&src.graph, &r.graph), "graph is shared");
        assert!(Arc::ptr_eq(&src.names, &r.names), "port names are shared");
        assert!(Arc::ptr_eq(&src.routes, &r.routes), "routes are shared");
        assert_eq!(r.ports.len(), 0, "a fresh replica holds no port state");
        assert!(r.ranked_ports().is_empty(), "no port of a replica carried traffic");
        assert!(!src.ranked_ports().is_empty(), "the source keeps its own counters");

        let route = r.route_ports(0, 15);
        let first = r.walk(SimTime::ZERO, 0, 15, 4096, &model, 0, &faults, &mut rng);
        let fresh = fab(RoutingPolicy::Static).walk(
            SimTime::ZERO,
            0,
            15,
            4096,
            &model,
            0,
            &faults,
            &mut rng,
        );
        assert_eq!(first.deliver_at, fresh.deliver_at, "untouched ports are idle");
        assert_eq!(r.ports.len(), route.len(), "one walk materializes exactly its route");
        for &(sw, port) in &route {
            assert!(r.ports.get(r.graph.port_index(sw, port)).is_some());
            assert_eq!(r.port_counters(sw, port).xmit_pkts, 1);
        }

        let (esw, _) = r.graph.host_port(0);
        let untouched = (0..r.graph.switch(esw).ports.len())
            .find(|&p| {
                !route.contains(&(esw, p)) && r.graph.switch(esw).ports[p].peer != Peer::Unconnected
            })
            .expect("an edge switch has a port off the route");
        let c = r.port_counters(esw, untouched);
        assert_eq!(
            (c.xmit_pkts, c.xmit_bytes, c.xmit_wait_ns, c.retries, c.link_downed),
            (0, 0, 0, 0, 0)
        );
        assert_eq!(r.ports.len(), route.len(), "reading counters materializes nothing");
        assert!(r.fail_link(esw, untouched));
        assert_eq!(r.port_counters(esw, untouched).link_downed, 1);
        assert!(r.ranked_ports().iter().any(|(_, c)| c.link_downed == 1 && c.xmit_pkts == 0));
    }

    /// A link failed on one replica reroutes that replica only: the
    /// routes are copied on write.
    #[test]
    fn fail_link_on_a_replica_reroutes_only_that_replica() {
        let src = fab(RoutingPolicy::Static);
        let (mut a, b) = (src.replica(), src.replica());
        let before = src.route_ports(0, 15);
        let (sw, port) = before[0];
        assert!(a.fail_link(sw, port));
        assert!(!Arc::ptr_eq(&a.routes, &src.routes), "a failure copies the routes");
        assert_ne!(a.route_ports(0, 15)[0], (sw, port), "the failing replica reroutes");
        assert_eq!(a.port_counters(sw, port).link_downed, 1);
        assert!(Arc::ptr_eq(&b.routes, &src.routes), "the other replica still shares");
        for dst in 0..src.graph.hosts() {
            for from in (0..src.graph.hosts()).filter(|&h| h != dst) {
                assert_eq!(b.route_ports(from, dst), src.route_ports(from, dst));
            }
        }
        assert_eq!(b.port_counters(sw, port).link_downed, 0);
    }

    #[test]
    fn drop_fault_retransmits_but_still_delivers() {
        let model = WireModel::expanse();
        let mut f = fab(RoutingPolicy::Static);
        let mut rng = StdRng::seed_from_u64(9);
        let clean = f
            .walk(SimTime::ZERO, 0, 15, 8, &model, 0, &FaultConfig::default(), &mut rng)
            .deliver_at;
        let mut f = fab(RoutingPolicy::Static);
        let faults = FaultConfig { drop_prob: 1.0, ..FaultConfig::default() };
        let r = f.walk(SimTime::ZERO, 0, 15, 8, &model, 0, &faults, &mut rng);
        assert_eq!(r.retries, 5, "every link dropped once");
        assert!(r.deliver_at > clean, "retransmits cost time");
    }

    #[test]
    fn duplicate_fault_forks_one_copy() {
        let model = WireModel::expanse();
        let mut f = fab(RoutingPolicy::Static);
        let mut rng = StdRng::seed_from_u64(9);
        let faults = FaultConfig { duplicate_prob: 1.0, ..FaultConfig::default() };
        let r = f.walk(SimTime::ZERO, 0, 15, 8, &model, 0, &faults, &mut rng);
        let dup = r.dup_deliver_at.expect("duplicate copy must arrive");
        assert!(dup > r.deliver_at, "copy queues behind the original");
    }

    #[test]
    fn ranked_ports_orders_by_wait() {
        let (model, faults, mut rng) = quiet();
        let mut f = fab(RoutingPolicy::Static);
        for src in 1..4 {
            for _ in 0..5 {
                f.walk(SimTime::ZERO, src, 0, 4096, &model, src, &faults, &mut rng);
            }
        }
        let rows = f.ranked_ports();
        assert!(!rows.is_empty());
        assert!(rows[0].1.xmit_wait_ns > 0, "top-ranked port must show queueing");
        for w in rows.windows(2) {
            assert!(w[0].1.xmit_wait_ns >= w[1].1.xmit_wait_ns);
        }
        // The victim's downlink carried every packet of the incast.
        let (sw, port) = f.graph().host_port(0);
        let down = f.port_counters(sw, port);
        assert_eq!(down.xmit_pkts, 15);
        assert!(down.xmit_wait_ns > 0);
    }
}
