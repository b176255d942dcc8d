//! Interconnect topology models: switched fabrics with real routing.
//!
//! Everything the 2-node `Fabric` abstracts away — switches, output-port
//! buffers, multi-hop routes, path diversity, link failure — lives here.
//! A [`Topology`] value selects the backend: [`Topology::Direct`] keeps
//! the original point-to-point wire model byte-for-byte, while
//! [`Topology::FatTree`] and [`Topology::Dragonfly`] build a
//! [`SwitchFabric`] that packets walk hop by hop, with every output port
//! a contended [`simcore::SimResource`] visible to the contention
//! attributor and the critical-path analyzer.

pub mod dragonfly;
pub mod fattree;
pub mod graph;
pub mod routing;
pub mod switch;

pub use dragonfly::DragonflyParams;
pub use fattree::FatTreeParams;
pub use graph::{Peer, PortSpec, SwitchSpec, TopoGraph};
pub use routing::{RouteTable, RoutingPolicy};
pub use switch::{PortCounters, SwitchFabric, WalkResult};

use std::collections::BTreeMap;
use std::sync::Mutex;

/// A switch port's names: its resource name and its two counter tracks.
#[derive(Debug)]
pub struct PortNames {
    /// Resource name, `fab.<switch>.p<idx>`.
    pub name: &'static str,
    /// Buffer-occupancy counter track, `<name>.occ`.
    pub occ: &'static str,
    /// Cumulative transmit-wait counter track, `<name>.xmit_wait_us`.
    pub wait: &'static str,
}

/// Intern a port's names, leaking at most once per distinct port name.
///
/// Port resources need `&'static str` names (the [`simcore::probe`] and
/// contention-report plumbing is `&'static`-keyed to stay allocation-free
/// on the hot path), but port names are computed from topology layout at
/// build time. Distinct names are bounded by the port count of the
/// largest topology ever built in-process, so leaking is fine; repeated
/// builds of the same topology (every lane's fabric replica) reuse the
/// same leaked names. The track names are built here too, so no port
/// access formats one.
pub fn intern_port(name: String) -> &'static PortNames {
    static POOL: Mutex<BTreeMap<String, &'static PortNames>> = Mutex::new(BTreeMap::new());
    let mut pool = POOL.lock().unwrap();
    if let Some(&names) = pool.get(&name) {
        return names;
    }
    let leak = |s: String| -> &'static str { Box::leak(s.into_boxed_str()) };
    let names = Box::leak(Box::new(PortNames {
        occ: leak(format!("{name}.occ")),
        wait: leak(format!("{name}.xmit_wait_us")),
        name: leak(name.clone()),
    }));
    pool.insert(name, names);
    names
}

/// Which interconnect the fabric simulates.
#[derive(Debug, Clone, Default)]
pub enum Topology {
    /// Point-to-point wire between every pair of localities — the
    /// original 2-node model, preserved exactly.
    #[default]
    Direct,
    /// k-ary fat-tree (folded Clos).
    FatTree(FatTreeParams),
    /// Dragonfly (groups of routers, all-to-all local and global links).
    Dragonfly(DragonflyParams),
}

impl Topology {
    /// A fat-tree sized for `n` localities with default link timings.
    pub fn fat_tree_for(n: usize) -> Topology {
        Topology::FatTree(FatTreeParams::for_hosts(n))
    }

    /// A balanced dragonfly sized for `n` localities.
    pub fn dragonfly_for(n: usize) -> Topology {
        Topology::Dragonfly(DragonflyParams::for_hosts(n))
    }

    /// Short label for traces and bench output.
    pub fn label(&self) -> &'static str {
        match self {
            Topology::Direct => "direct",
            Topology::FatTree(_) => "fattree",
            Topology::Dragonfly(_) => "dragonfly",
        }
    }

    /// Build the live switch fabric, or `None` for [`Topology::Direct`].
    ///
    /// Panics if the topology cannot hold `hosts` localities — sizing is
    /// explicit (via [`FatTreeParams::for_hosts`] etc.), not silent.
    pub fn build(&self, hosts: usize) -> Option<SwitchFabric> {
        let fab = match self {
            Topology::Direct => return None,
            Topology::FatTree(p) => {
                assert!(
                    p.hosts() >= hosts,
                    "fat-tree k={} holds {} hosts, need {hosts}",
                    p.k,
                    p.hosts()
                );
                p.build()
            }
            Topology::Dragonfly(p) => {
                assert!(
                    p.hosts() >= hosts,
                    "dragonfly {:?} holds {} hosts, need {hosts}",
                    (p.p, p.a, p.h, p.g),
                    p.hosts()
                );
                p.build()
            }
        };
        Some(fab)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_returns_stable_pointers() {
        let a = intern_port("fab.test.p0".to_string());
        let b = intern_port("fab.test.p0".to_string());
        assert!(std::ptr::eq(a, b), "same name must intern to the same allocation");
        assert_eq!(
            (a.name, a.occ, a.wait),
            ("fab.test.p0", "fab.test.p0.occ", "fab.test.p0.xmit_wait_us")
        );
    }

    #[test]
    fn direct_builds_nothing() {
        assert!(Topology::Direct.build(2).is_none());
        assert_eq!(Topology::Direct.label(), "direct");
    }

    #[test]
    fn sized_builders_fit_the_host_count() {
        for n in [2, 16, 64] {
            let t = Topology::fat_tree_for(n);
            assert!(t.build(n).is_some());
            let t = Topology::dragonfly_for(n);
            assert!(t.build(n).is_some());
        }
    }

    #[test]
    #[should_panic(expected = "need 64")]
    fn undersized_topology_rejected() {
        let _ = Topology::FatTree(FatTreeParams::new(4)).build(64);
    }
}
