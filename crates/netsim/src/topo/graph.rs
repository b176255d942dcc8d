//! The fabric graph: switches, ports, links, and host attachment points.
//!
//! A topology is a bipartite-ish graph: `hosts` NICs hang off switch
//! ports, and switch ports connect to each other with symmetric links.
//! The graph itself is pure structure — timing (port buffers, service
//! times) lives in [`crate::topo::switch::SwitchFabric`], and route
//! selection in [`crate::topo::routing`]. Distances are precomputed per
//! destination host with a BFS over the switch graph so both the static
//! and the adaptive router can recognize the minimal next hops in O(radix).

/// What a switch port is wired to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Peer {
    /// Directly attached host NIC (this is `host`'s edge port).
    Host(usize),
    /// Another switch's port (symmetric link; the other side points back).
    Switch {
        /// Peer switch index.
        sw: usize,
        /// Peer port index on that switch.
        port: usize,
    },
    /// Nothing attached (legal: dragonfly groups may leave global-link
    /// slots empty when `a*h > g-1`).
    Unconnected,
}

/// One output port of a switch and the link behind it.
#[derive(Debug, Clone)]
pub struct PortSpec {
    /// What the link connects to.
    pub peer: Peer,
    /// One-way propagation latency of the attached link, ns.
    pub latency_ns: u64,
}

/// One switch: a label (used for telemetry/contention names) and its ports.
#[derive(Debug, Clone)]
pub struct SwitchSpec {
    /// Human-readable name, e.g. `ft.p2.e1` (fat-tree pod 2, edge 1).
    pub label: String,
    /// Output ports in index order.
    pub ports: Vec<PortSpec>,
}

/// The wired interconnect graph.
#[derive(Debug, Clone)]
pub struct TopoGraph {
    /// Topology family name (`fattree`, `dragonfly`).
    pub name: &'static str,
    hosts: usize,
    switches: Vec<SwitchSpec>,
    /// `port_base[sw]` is the flattened index of `(sw, 0)`: a prefix sum
    /// of the port counts, one entry per switch plus the total.
    port_base: Vec<usize>,
    /// `host -> (switch, port)` of the switch port facing the host: the
    /// packet ingress point for traffic *from* the host and the egress
    /// port for the final downlink *to* the host.
    host_up: Vec<(usize, usize)>,
    /// One-way latency of each host's NIC-to-edge link, ns.
    host_latency: Vec<u64>,
}

impl TopoGraph {
    /// Start an empty graph for `hosts` hosts.
    pub fn new(name: &'static str, hosts: usize) -> Self {
        TopoGraph {
            name,
            hosts,
            switches: Vec::new(),
            port_base: vec![0],
            host_up: vec![(usize::MAX, usize::MAX); hosts],
            host_latency: vec![0; hosts],
        }
    }

    /// Add a switch with `radix` (initially unconnected) ports; returns
    /// its index.
    pub fn add_switch(&mut self, label: String, radix: usize) -> usize {
        self.port_base.push(self.num_ports() + radix);
        self.switches.push(SwitchSpec {
            label,
            ports: vec![PortSpec { peer: Peer::Unconnected, latency_ns: 0 }; radix],
        });
        self.switches.len() - 1
    }

    /// Wire a symmetric switch-to-switch link.
    pub fn connect(&mut self, a: (usize, usize), b: (usize, usize), latency_ns: u64) {
        assert!(latency_ns > 0, "links must have positive propagation latency");
        let pa = &mut self.switches[a.0].ports[a.1];
        assert_eq!(pa.peer, Peer::Unconnected, "port {a:?} already wired");
        *pa = PortSpec { peer: Peer::Switch { sw: b.0, port: b.1 }, latency_ns };
        let pb = &mut self.switches[b.0].ports[b.1];
        assert_eq!(pb.peer, Peer::Unconnected, "port {b:?} already wired");
        *pb = PortSpec { peer: Peer::Switch { sw: a.0, port: a.1 }, latency_ns };
    }

    /// Attach `host` to a switch port with a `latency_ns` NIC link.
    pub fn attach_host(&mut self, host: usize, sw: usize, port: usize, latency_ns: u64) {
        assert!(latency_ns > 0, "host links must have positive propagation latency");
        assert_eq!(self.host_up[host], (usize::MAX, usize::MAX), "host {host} already attached");
        let p = &mut self.switches[sw].ports[port];
        assert_eq!(p.peer, Peer::Unconnected, "port ({sw},{port}) already wired");
        *p = PortSpec { peer: Peer::Host(host), latency_ns };
        self.host_up[host] = (sw, port);
        self.host_latency[host] = latency_ns;
    }

    /// Number of hosts.
    pub fn hosts(&self) -> usize {
        self.hosts
    }

    /// Number of switches.
    pub fn switches(&self) -> usize {
        self.switches.len()
    }

    /// Switch by index.
    pub fn switch(&self, sw: usize) -> &SwitchSpec {
        &self.switches[sw]
    }

    /// The `(switch, port)` facing `host`.
    pub fn host_port(&self, host: usize) -> (usize, usize) {
        self.host_up[host]
    }

    /// One-way latency of `host`'s NIC link, ns.
    pub fn host_latency(&self, host: usize) -> u64 {
        self.host_latency[host]
    }

    /// Minimum NIC-link latency over all hosts — the first-hop wire
    /// latency that bounds every delivery, i.e. the topology's
    /// conservative lookahead contribution.
    pub fn min_host_latency(&self) -> u64 {
        self.host_latency.iter().copied().min().unwrap_or(0)
    }

    /// Total port count (flattened index space).
    pub fn num_ports(&self) -> usize {
        self.port_base[self.switches.len()]
    }

    /// Flattened index of `(sw, port)`.
    #[inline]
    pub fn port_index(&self, sw: usize, port: usize) -> usize {
        debug_assert!(port < self.switches[sw].ports.len(), "switch {sw} has no port {port}");
        self.port_base[sw] + port
    }

    /// Structural validation: every host attached, every link symmetric,
    /// every wired link with positive latency. Returns a description of
    /// the first violation.
    pub fn validate(&self) -> Result<(), String> {
        for h in 0..self.hosts {
            let (sw, port) = self.host_up[h];
            if sw == usize::MAX {
                return Err(format!("host {h} not attached to any switch"));
            }
            if self.switches[sw].ports[port].peer != Peer::Host(h) {
                return Err(format!("host {h}: port ({sw},{port}) does not face it"));
            }
            if self.host_latency[h] == 0 {
                return Err(format!("host {h}: zero-latency NIC link"));
            }
        }
        for (si, s) in self.switches.iter().enumerate() {
            for (pi, p) in s.ports.iter().enumerate() {
                match p.peer {
                    Peer::Unconnected => {}
                    Peer::Host(_) | Peer::Switch { .. } if p.latency_ns == 0 => {
                        return Err(format!("{}:{pi}: zero-latency link", s.label));
                    }
                    Peer::Switch { sw, port } => {
                        let back = &self.switches[sw].ports[port];
                        if back.peer != (Peer::Switch { sw: si, port: pi }) {
                            return Err(format!("{}:{pi}: asymmetric link", s.label));
                        }
                        if back.latency_ns != p.latency_ns {
                            return Err(format!("{}:{pi}: asymmetric link latency", s.label));
                        }
                    }
                    Peer::Host(_) => {}
                }
            }
        }
        Ok(())
    }

    /// Per-destination hop distances: `dist[dst * switches + sw]` is the
    /// minimal number of egress (port) traversals from switch `sw` to
    /// host `dst`, counting the final downlink — so a destination's edge
    /// switch is at distance 1. `u16::MAX` marks unreachable. `dead`
    /// masks failed ports by flattened index (both directions of a failed
    /// link must be masked by the caller).
    pub fn compute_dist(&self, dead: &[bool]) -> Dist {
        let s = self.switches.len();
        let mut d = vec![u16::MAX; self.hosts * s];
        let mut queue = std::collections::VecDeque::new();
        for dst in 0..self.hosts {
            let (esw, eport) = self.host_up[dst];
            let row = &mut d[dst * s..(dst + 1) * s];
            if dead[self.port_index(esw, eport)] {
                continue; // edge link dead: dst unreachable via fabric
            }
            row[esw] = 1;
            queue.clear();
            queue.push_back(esw);
            while let Some(sw) = queue.pop_front() {
                let next = row[sw] + 1;
                // Walk neighbours of `sw`; a link is usable towards `sw`
                // when the *neighbour's* egress port onto it is alive.
                for (pi, p) in self.switches[sw].ports.iter().enumerate() {
                    if let Peer::Switch { sw: nsw, port: nport } = p.peer {
                        if dead[self.port_index(sw, pi)] || dead[self.port_index(nsw, nport)] {
                            continue;
                        }
                        if row[nsw] > next {
                            row[nsw] = next;
                            queue.push_back(nsw);
                        }
                    }
                }
            }
        }
        Dist { switches: s, d }
    }
}

/// Precomputed hop-distance table (see [`TopoGraph::compute_dist`]).
#[derive(Debug, Clone)]
pub struct Dist {
    switches: usize,
    d: Vec<u16>,
}

impl Dist {
    /// Remaining egress traversals from `sw` to host `dst` (`u16::MAX`
    /// when unreachable).
    #[inline]
    pub fn get(&self, sw: usize, dst: usize) -> u16 {
        self.d[dst * self.switches + sw]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two hosts on one switch, two hosts on another, switches linked.
    fn dumbbell() -> TopoGraph {
        let mut g = TopoGraph::new("dumbbell", 4);
        let a = g.add_switch("a".into(), 3);
        let b = g.add_switch("b".into(), 3);
        g.attach_host(0, a, 0, 500);
        g.attach_host(1, a, 1, 500);
        g.attach_host(2, b, 0, 500);
        g.attach_host(3, b, 1, 500);
        g.connect((a, 2), (b, 2), 700);
        g
    }

    #[test]
    fn dumbbell_validates_and_distances() {
        let g = dumbbell();
        g.validate().expect("well-formed");
        let dead = vec![false; g.num_ports()];
        let d = g.compute_dist(&dead);
        // Host 0 sits on switch a: a is its edge (1), b is 2 away.
        assert_eq!(d.get(0, 0), 1);
        assert_eq!(d.get(1, 0), 2);
        // Host 2 sits on switch b.
        assert_eq!(d.get(0, 2), 2);
        assert_eq!(d.get(1, 2), 1);
    }

    #[test]
    fn dead_link_makes_far_side_unreachable() {
        let g = dumbbell();
        let mut dead = vec![false; g.num_ports()];
        dead[g.port_index(0, 2)] = true;
        dead[g.port_index(1, 2)] = true;
        let d = g.compute_dist(&dead);
        assert_eq!(d.get(0, 2), u16::MAX, "no alternative path in a dumbbell");
        assert_eq!(d.get(0, 0), 1, "local reachability survives");
    }

    /// The prefix table gives every port the index a running sum of the
    /// earlier switches' port counts would, on fat-trees and a dragonfly.
    #[test]
    fn port_index_is_the_prefix_sum_of_port_counts() {
        use crate::topo::{DragonflyParams, FatTreeParams};
        let graphs = [2, 4, 8]
            .map(|k| FatTreeParams::new(k).graph())
            .into_iter()
            .chain([DragonflyParams::for_hosts(64).graph()]);
        for g in graphs {
            let mut base = 0;
            for sw in 0..g.switches() {
                for port in 0..g.switch(sw).ports.len() {
                    assert_eq!(g.port_index(sw, port), base + port, "{} ({sw},{port})", g.name);
                }
                base += g.switch(sw).ports.len();
            }
            assert_eq!(g.num_ports(), base, "{}", g.name);
        }
    }

    #[test]
    fn min_host_latency_is_the_first_hop_floor() {
        let mut g = TopoGraph::new("t", 2);
        let s = g.add_switch("s".into(), 2);
        g.attach_host(0, s, 0, 900);
        g.attach_host(1, s, 1, 300);
        assert_eq!(g.min_host_latency(), 300);
    }

    #[test]
    fn validate_rejects_detached_host() {
        let mut g = TopoGraph::new("t", 2);
        let s = g.add_switch("s".into(), 2);
        g.attach_host(0, s, 0, 500);
        assert!(g.validate().unwrap_err().contains("host 1"));
    }
}
