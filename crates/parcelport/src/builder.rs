//! World assembly: fabric + runtime + parcelports for any configuration.

use std::any::Any;
use std::cell::RefCell;
use std::rc::Rc;

use amt::action::ActionRegistry;
use amt::parcel_layer::ParcelLayerConfig;
use amt::runtime::Runtime;
use amt::sched::WorkerConfig;
use amt::{Locality, Parcelport};
use lci::{Device, DeviceConfig};
use mpisim::Comm;
use netsim::{Fabric, FaultConfig, Topology, WireModel};
use simcore::{CostModel, Sim};

use crate::config::{Backend, PpConfig, Progress};
use crate::lci_pp::LciParcelport;
use crate::mpi_pp::MpiParcelport;
use crate::sharded::LaneSetup;
use crate::tcp_pp::TcpParcelport;

/// Everything needed to instantiate a runnable world.
#[derive(Debug, Clone)]
pub struct WorldConfig {
    /// Parcelport configuration (Table-1 name).
    pub pp: PpConfig,
    /// Number of localities (nodes).
    pub localities: usize,
    /// Cores per locality (including the progress core, if any).
    pub cores: usize,
    /// Wire model (platform preset).
    pub wire: WireModel,
    /// HPX zero-copy serialization threshold.
    pub zero_copy_threshold: usize,
    /// RNG seed.
    pub seed: u64,
    /// Optional fault injection (tests only; default: reliable fabric).
    pub faults: Option<FaultConfig>,
    /// Number of LCI devices (network contexts) per locality — 1 in the
    /// paper; >1 implements the §7.2 future work.
    pub lci_devices: usize,
    /// Cost model; the calibrated one by default. The what-if engine
    /// re-runs scenarios with scaled knobs through this.
    pub cost: CostModel,
    /// Interconnect topology. [`Topology::Direct`] (the default) is the
    /// original point-to-point wire; switched topologies route every
    /// parcel through modeled switch ports.
    pub topology: Topology,
}

impl WorldConfig {
    /// The paper's microbenchmark topology: two nodes on SDSC Expanse
    /// with `cores` cores each.
    pub fn two_nodes(pp: PpConfig, cores: usize) -> Self {
        WorldConfig {
            pp,
            localities: 2,
            cores,
            wire: WireModel::expanse(),
            zero_copy_threshold: ParcelLayerConfig::default().zero_copy_threshold,
            seed: 0xC0FFEE,
            faults: None,
            lci_devices: 1,
            cost: CostModel::default(),
            topology: Topology::Direct,
        }
    }

    /// A `localities`-node cluster wired through a fat-tree sized to fit
    /// — the configuration for at-scale (fig-8-style) experiments.
    pub fn cluster(pp: PpConfig, localities: usize, cores: usize) -> Self {
        let mut cfg = WorldConfig::two_nodes(pp, cores);
        cfg.localities = localities;
        cfg.topology = Topology::fat_tree_for(localities);
        cfg
    }
}

/// A fully-wired simulated world.
pub struct World {
    /// The simulator (owns virtual time).
    pub sim: Sim,
    /// The interconnect.
    pub fabric: Rc<RefCell<Fabric>>,
    /// The AMT runtime (localities with installed parcelports).
    pub runtime: Runtime,
    /// The configuration it was built from.
    pub config: WorldConfig,
    /// Rank-indexed [`LaneSetup::app`] state.
    apps: Vec<Option<Box<dyn Any>>>,
}

impl World {
    /// Locality by id.
    pub fn locality(&self, id: usize) -> &Rc<Locality> {
        self.runtime.locality(id)
    }

    /// Downcast rank's [`LaneSetup::app`] state.
    pub fn app<T: 'static>(&self, rank: usize) -> Option<&T> {
        self.apps[rank].as_deref()?.downcast_ref::<T>()
    }

    /// Run until `pending` becomes false or `max_virtual_ns` elapses;
    /// returns whether the condition was met.
    pub fn run_while<P: FnMut(&Sim) -> bool>(
        &mut self,
        max_virtual_ns: u64,
        mut pending: P,
    ) -> bool {
        let deadline = self.sim.now() + max_virtual_ns;
        loop {
            if !pending(&self.sim) {
                return true;
            }
            if self.sim.now() >= deadline || !self.sim.step() {
                return !pending(&self.sim);
            }
        }
    }
}

/// Build a world: fabric, localities, parcelports, wakers — started and
/// ready for work. Every rank gets a clone of `registry`.
pub fn build_world(cfg: &WorldConfig, registry: ActionRegistry) -> World {
    build_single_heap(cfg, |_| registry.clone().into(), |_, _, _| {})
}

/// The single-heap path of [`crate::Engine::build`]: one `Sim` and one
/// fabric for all ranks. Every locality starts before `seed` runs, rank by
/// rank.
pub(crate) fn build_single_heap(
    cfg: &WorldConfig,
    mut setup: impl FnMut(usize) -> LaneSetup,
    mut seed: impl FnMut(usize, &mut Sim, &Rc<Locality>),
) -> World {
    let mut sim = Sim::new(cfg.seed);
    let fabric = Rc::new(RefCell::new(build_fabric(cfg)));
    let mut apps = Vec::with_capacity(cfg.localities);
    let localities = (0..cfg.localities)
        .map(|rank| {
            let LaneSetup { registry, app } = setup(rank);
            apps.push(app);
            build_locality(cfg, rank, &fabric, registry)
        })
        .collect();
    let runtime = Runtime { localities };
    runtime.start(&mut sim);
    for (rank, loc) in runtime.localities.iter().enumerate() {
        seed(rank, &mut sim, loc);
    }
    World { sim, fabric, runtime, config: cfg.clone(), apps }
}

/// The interconnect of `cfg`: wire model, contexts, topology and faults.
/// [`build_world`] builds one for all localities; the federated world
/// ([`crate::build_sharded_world`]) builds one and gives every lane a
/// replica of it.
pub(crate) fn build_fabric(cfg: &WorldConfig) -> Fabric {
    let mut fabric =
        Fabric::with_contexts(cfg.localities, cfg.wire.clone(), cfg.lci_devices.max(1));
    fabric.install_topology(&cfg.topology);
    if let Some(f) = &cfg.faults {
        fabric.set_faults(f.clone());
    }
    // The fabric's minimum first-hop latency is the conservative lookahead
    // the sharded engine relies on: a locality may only be reached from
    // another locality `>= min_lookahead()` ns in the future. The fabric
    // floors this at 1 ns even for zero-propagation wires (cross-lane
    // *visibility* is deferred to the floor; local delivery timing is
    // untouched — see `Fabric::min_lookahead`), so every wire model and
    // topology yields a runnable conservative lookahead. Keep the
    // invariant asserted here at construction so a fabric change can
    // never silently reintroduce the zero-lookahead footgun.
    assert!(
        fabric.min_lookahead() > 0,
        "wire model '{}' over '{}' topology advertises zero conservative lookahead; \
         Fabric::min_lookahead must floor it at 1 ns",
        cfg.wire.name,
        cfg.topology.label(),
    );
    fabric
}

/// One rank's locality stack, the recipe both world builders share: the
/// locality with its own `Rc<CostModel>` (so no `Rc` is shared between
/// ranks), the backend's parcelport over `fabric` (TCP, an MPI comm, or
/// LCI devices), and the fabric's arrival waker for `rank`. Every
/// setting `cfg` does not vary comes from the default of the crate that
/// models it.
pub(crate) fn build_locality(
    cfg: &WorldConfig,
    rank: usize,
    fabric: &Rc<RefCell<Fabric>>,
    registry: ActionRegistry,
) -> Rc<Locality> {
    let cost = Rc::new(cfg.cost.clone());
    let send_immediate = cfg.pp.send_immediate;
    let workers = if cfg.pp.dedicated_progress() {
        WorkerConfig::with_progress(cfg.cores)
    } else {
        WorkerConfig::workers_only(cfg.cores)
    };
    let layer = ParcelLayerConfig {
        zero_copy_threshold: cfg.zero_copy_threshold,
        send_immediate,
        ..ParcelLayerConfig::default()
    };
    let loc = Locality::new(rank, cost.clone(), workers, registry, layer);
    let pp: Rc<RefCell<dyn Parcelport>> = match cfg.pp.backend {
        Backend::Tcp => Rc::new(RefCell::new(TcpParcelport::new(
            rank,
            fabric.clone(),
            cost.clone(),
            send_immediate,
        ))),
        Backend::Mpi { original } => {
            let comm = Comm::new(rank, fabric.clone(), cost.clone());
            Rc::new(RefCell::new(MpiParcelport::new(comm, cost, original, send_immediate)))
        }
        Backend::Lci(lci) => {
            let devs: Vec<Device> = (0..cfg.lci_devices.max(1))
                .map(|ctx| {
                    let mut dev_cfg = DeviceConfig { ctx: ctx as u8, ..DeviceConfig::default() };
                    if lci.progress == Progress::Worker {
                        // Workers call progress opportunistically: small bursts.
                        dev_cfg.progress_burst = 2;
                    }
                    Device::new(rank, fabric.clone(), cost.clone(), dev_cfg)
                })
                .collect();
            Rc::new(RefCell::new(LciParcelport::new(devs, cost, lci, send_immediate)))
        }
    };
    loc.set_parcelport(pp);

    // NIC interrupt model: arrivals wake whoever makes progress.
    let weak = Rc::downgrade(&loc);
    fabric.borrow_mut().set_arrival_waker(
        rank,
        Rc::new(move |sim, at| {
            if let Some(loc) = weak.upgrade() {
                loc.wake_progress(sim, at);
            }
        }),
    );
    loc
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use std::cell::Cell;

    /// End-to-end on the single heap: `n` parcels of `size` bytes from
    /// rank 0 to rank 1 all run, with intact data.
    fn roundtrip(ppname: &str, size: usize, n: usize) {
        crate::engine::tests::roundtrip(ppname, size, n, crate::Engine::SingleHeap);
    }

    #[test]
    fn zero_latency_wire_gets_floor_lookahead() {
        // The ideal wire used to be rejected outright (zero lookahead);
        // the fabric now floors min_lookahead at 1 ns, so a world builds
        // and the conservative invariant holds by construction.
        let mut cfg = WorldConfig::two_nodes("lci_psr_cq_pin_i".parse().unwrap(), 4);
        cfg.wire = WireModel::ideal();
        let world = build_world(&cfg, ActionRegistry::new());
        assert_eq!(world.fabric.borrow().min_lookahead(), 1);
    }

    #[test]
    fn all_paper_configs_small_messages() {
        for cfg in PpConfig::paper_set() {
            roundtrip(&cfg.to_string(), 8, 20);
        }
    }

    #[test]
    fn all_paper_configs_large_messages() {
        for cfg in PpConfig::paper_set() {
            roundtrip(&cfg.to_string(), 16 * 1024, 10);
        }
    }

    #[test]
    fn original_mpi_roundtrips() {
        roundtrip("mpi_orig", 8, 10);
        roundtrip("mpi_orig", 16 * 1024, 5);
    }

    #[test]
    fn multi_device_lci_roundtrips() {
        for devices in [2usize, 4] {
            let mut registry = ActionRegistry::new();
            let hits = Rc::new(Cell::new(0usize));
            let h = hits.clone();
            registry.register("sink", move |sim, _l, _c, p| {
                assert_eq!(p.args[0].len(), 8);
                h.set(h.get() + 1);
                sim.now() + 100
            });
            let sink = registry.id_of("sink").unwrap();
            let mut cfg = WorldConfig::two_nodes("lci_psr_cq_mt_i".parse().unwrap(), 8);
            cfg.lci_devices = devices;
            let mut world = build_world(&cfg, registry);
            for _ in 0..50 {
                let loc0 = world.locality(0).clone();
                loc0.spawn(
                    &mut world.sim,
                    0,
                    Box::new(move |sim, loc, core| {
                        loc.send_action(sim, core, 1, sink, vec![Bytes::from(vec![1u8; 8])])
                    }),
                );
            }
            let h2 = hits.clone();
            assert!(
                world.run_while(10_000_000_000, move |_| h2.get() < 50),
                "{devices} devices: lost messages"
            );
        }
    }

    #[test]
    fn tcp_roundtrips() {
        roundtrip("tcp", 8, 10);
        roundtrip("tcp_i", 8, 10);
        roundtrip("tcp_i", 16 * 1024, 5);
        roundtrip("tcp_i", 100_000, 3); // multi-segment frames
    }

    #[test]
    fn medium_messages_cross_threshold() {
        // Straddle the zero-copy / eager thresholds.
        for size in [4096, 8191, 8192, 8193, 65536] {
            roundtrip("lci_psr_cq_pin_i", size, 3);
            roundtrip("mpi_i", size, 3);
        }
    }

    #[test]
    fn multiple_args_mixed_sizes() {
        let mut registry = ActionRegistry::new();
        let seen = Rc::new(Cell::new(false));
        let s = seen.clone();
        registry.register("multi", move |sim, _loc, _core, p| {
            assert_eq!(p.args.len(), 3);
            assert_eq!(p.args[0].len(), 16);
            assert_eq!(p.args[1].len(), 20000);
            assert_eq!(p.args[2].len(), 64);
            s.set(true);
            sim.now()
        });
        let action = registry.id_of("multi").unwrap();
        let cfg = WorldConfig::two_nodes("lci_psr_cq_pin_i".parse().unwrap(), 4);
        let mut world = build_world(&cfg, registry);
        let loc0 = world.locality(0).clone();
        loc0.spawn(
            &mut world.sim,
            0,
            Box::new(move |sim, loc, core| {
                loc.send_action(
                    sim,
                    core,
                    1,
                    action,
                    vec![
                        Bytes::from(vec![1u8; 16]),
                        Bytes::from(vec![2u8; 20000]),
                        Bytes::from(vec![3u8; 64]),
                    ],
                )
            }),
        );
        let s2 = seen.clone();
        assert!(world.run_while(5_000_000_000, move |_| !s2.get()));
    }

    #[test]
    fn cluster_over_fat_tree_roundtrips() {
        let mut registry = ActionRegistry::new();
        let hits = Rc::new(Cell::new(0usize));
        let h = hits.clone();
        registry.register("sink", move |sim, _l, _c, _p| {
            h.set(h.get() + 1);
            sim.now() + 100
        });
        let sink = registry.id_of("sink").unwrap();
        let cfg = WorldConfig::cluster("lci_psr_cq_pin_i".parse().unwrap(), 4, 4);
        let mut world = build_world(&cfg, registry);
        assert!(world.fabric.borrow().min_lookahead() > 0);
        for dst in 1..4usize {
            for _ in 0..5 {
                let l0 = world.locality(0).clone();
                l0.spawn(
                    &mut world.sim,
                    0,
                    Box::new(move |sim, loc, core| {
                        loc.send_action(sim, core, dst, sink, vec![Bytes::from_static(b"z")])
                    }),
                );
            }
        }
        let h2 = hits.clone();
        assert!(world.run_while(10_000_000_000, move |_| h2.get() < 15), "lost parcels");
        // The parcels really crossed modeled switch ports.
        let fab = world.fabric.borrow();
        let topo = fab.topology().expect("cluster config must build a switched topology");
        let carried: u64 = topo.ranked_ports().iter().map(|r| r.1.xmit_pkts).sum();
        assert!(carried > 0, "switch ports must have carried traffic");
    }

    #[test]
    fn bidirectional_traffic() {
        let mut registry = ActionRegistry::new();
        let a = Rc::new(Cell::new(0));
        let b = Rc::new(Cell::new(0));
        let (a2, b2) = (a.clone(), b.clone());
        registry.register("to1", move |sim, _l, _c, _p| {
            a2.set(a2.get() + 1);
            sim.now()
        });
        registry.register("to0", move |sim, _l, _c, _p| {
            b2.set(b2.get() + 1);
            sim.now()
        });
        let to1 = registry.id_of("to1").unwrap();
        let to0 = registry.id_of("to0").unwrap();
        let cfg = WorldConfig::two_nodes("lci_psr_cq_pin_i".parse().unwrap(), 4);
        let mut world = build_world(&cfg, registry);
        for _ in 0..10 {
            let l0 = world.locality(0).clone();
            let l1 = world.locality(1).clone();
            l0.spawn(
                &mut world.sim,
                0,
                Box::new(move |sim, loc, core| {
                    loc.send_action(sim, core, 1, to1, vec![Bytes::from_static(b"x")])
                }),
            );
            l1.spawn(
                &mut world.sim,
                0,
                Box::new(move |sim, loc, core| {
                    loc.send_action(sim, core, 0, to0, vec![Bytes::from_static(b"y")])
                }),
            );
        }
        let (a3, b3) = (a.clone(), b.clone());
        assert!(world.run_while(10_000_000_000, move |_| a3.get() < 10 || b3.get() < 10));
    }
}
