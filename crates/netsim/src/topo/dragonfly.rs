//! Dragonfly generator (Kim/Dally/Scott/Abts arrangement).
//!
//! `g` groups of `a` routers; each router carries `p` hosts, `a-1` local
//! links (groups are internally all-to-all) and `h` global links. Global
//! link slots are allocated consecutively: slot `s` (`= r*h + q`) of
//! group `G` connects to group `s` if `s < G` else `s+1`, which is
//! symmetric and leaves surplus slots unconnected when `a*h > g-1`.
//! Minimal routes are at most local-global-local (3 switch hops plus the
//! downlink); the BFS distance table recovers exactly that.

use super::graph::TopoGraph;
use super::routing::RoutingPolicy;
use super::switch::SwitchFabric;

/// Parameters of a dragonfly.
#[derive(Debug, Clone)]
pub struct DragonflyParams {
    /// Hosts per router.
    pub p: usize,
    /// Routers per group.
    pub a: usize,
    /// Global links per router.
    pub h: usize,
    /// Groups (`2 <= g <= a*h + 1` so every pair of groups has a link).
    pub g: usize,
    /// Host NIC-to-router link latency, ns.
    pub host_link_ns: u64,
    /// Intra-group (local) link latency, ns.
    pub local_ns: u64,
    /// Inter-group (global) link latency, ns — optical, longer.
    pub global_ns: u64,
    /// Per-packet router forwarding latency, ns.
    pub switch_ns: u64,
    /// Route selection policy.
    pub routing: RoutingPolicy,
}

impl DragonflyParams {
    /// Defaults for a `(p, a, h, g)` arrangement.
    pub fn new(p: usize, a: usize, h: usize, g: usize) -> Self {
        DragonflyParams {
            p,
            a,
            h,
            g,
            host_link_ns: 300,
            local_ns: 300,
            global_ns: 900,
            switch_ns: 100,
            routing: RoutingPolicy::Static,
        }
    }

    /// Smallest balanced dragonfly (`a = 2h`, `p = h`) holding at least
    /// `n` hosts, with just enough groups.
    pub fn for_hosts(n: usize) -> Self {
        let mut h = 1usize;
        loop {
            let (a, p) = (2 * h, h);
            let g_max = a * h + 1;
            if a * p * g_max >= n {
                let g = n.div_ceil(a * p).max(2);
                return DragonflyParams::new(p, a, h, g);
            }
            h += 1;
        }
    }

    /// Hosts supported: `g * a * p`.
    pub fn hosts(&self) -> usize {
        self.g * self.a * self.p
    }

    /// Generate the wired graph.
    pub fn graph(&self) -> TopoGraph {
        let (p, a, h, g) = (self.p, self.a, self.h, self.g);
        assert!(p >= 1 && a >= 1 && h >= 1, "degenerate dragonfly {self:?}");
        assert!(g >= 2 && g <= a * h + 1, "need 2 <= g <= a*h+1 for pairwise group links");
        let radix = p + (a - 1) + h;
        let mut graph = TopoGraph::new("dragonfly", self.hosts());
        let router = |grp: usize, r: usize| grp * a + r;
        for grp in 0..g {
            for r in 0..a {
                let id = graph.add_switch(format!("df.g{grp}.r{r}"), radix);
                debug_assert_eq!(id, router(grp, r));
            }
        }
        // Hosts on ports 0..p.
        for grp in 0..g {
            for r in 0..a {
                for i in 0..p {
                    graph.attach_host((grp * a + r) * p + i, router(grp, r), i, self.host_link_ns);
                }
            }
        }
        // Local all-to-all: router r's port towards r' is
        // `p + r' - (r' > r)` — one port per peer, connected once.
        for grp in 0..g {
            for r in 0..a {
                for r2 in r + 1..a {
                    graph.connect(
                        (router(grp, r), p + r2 - 1),
                        (router(grp, r2), p + r),
                        self.local_ns,
                    );
                }
            }
        }
        // Global links: slot s = r*h + q of group G reaches group
        // `s + (s >= G)`; connect each pair once from the lower group.
        for grp in 0..g {
            for s in 0..a * h {
                let dst_grp = if s < grp { s } else { s + 1 };
                if dst_grp >= g || dst_grp < grp {
                    continue; // surplus slot, or already wired from the other side
                }
                let back = grp; // grp < dst_grp, so the return slot is exactly grp
                graph.connect(
                    (router(grp, s / h), p + (a - 1) + s % h),
                    (router(dst_grp, back / h), p + (a - 1) + back % h),
                    self.global_ns,
                );
            }
        }
        graph
    }

    /// Build the live switch fabric.
    pub fn build(&self) -> SwitchFabric {
        SwitchFabric::build(self.graph(), self.routing, self.switch_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_for_hosts() {
        let d = DragonflyParams::for_hosts(64);
        assert_eq!((d.p, d.a, d.h), (2, 4, 2));
        assert!(d.hosts() >= 64, "{}", d.hosts());
        let d = DragonflyParams::for_hosts(1024);
        assert_eq!((d.p, d.a, d.h, d.g), (4, 8, 4, 32));
        assert_eq!(d.hosts(), 1024);
    }

    #[test]
    fn graph_validates_and_is_minimal_diameter() {
        let params = DragonflyParams::new(2, 4, 2, 9);
        let g = params.graph();
        g.validate().expect("well-formed");
        assert_eq!(g.switches(), 36);
        // Every switch reaches every host in at most 4 egress traversals
        // (local, global, local, downlink).
        let dead = vec![false; g.num_ports()];
        let d = g.compute_dist(&dead);
        for dst in 0..g.hosts() {
            for sw in 0..g.switches() {
                let hops = d.get(sw, dst);
                assert!((1..=4).contains(&hops), "sw {sw} -> host {dst}: {hops} hops");
            }
        }
    }

    #[test]
    fn lookahead_is_strictly_positive() {
        let fab = DragonflyParams::for_hosts(16).build();
        assert!(fab.min_first_hop_latency() > 0);
        assert_eq!(fab.min_first_hop_latency(), 300);
    }

    #[test]
    #[should_panic(expected = "pairwise group links")]
    fn too_many_groups_rejected() {
        // a*h+1 = 3 max groups for a=2,h=1.
        let _ = DragonflyParams::new(1, 2, 1, 4).graph();
    }
}
