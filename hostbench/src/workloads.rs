//! The five workloads. Each is a short copy of a library driver
//! (`bench::run_msgrate`, `bench::run_latency`,
//! `octotiger_mini::run_octotiger`) or a new traffic shape, split into a
//! set-up phase (build the world, plant the traffic) and a run phase, with
//! the hooks the traced rep needs. The library drivers build their worlds
//! internally and leave no such hooks; the fidelity tests keep the copies
//! honest by comparing simulated results with the originals.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use amt::action::ActionRegistry;
use amt::Locality;
use bytes::Bytes;
use octotiger_mini::fmm::{register_actions, AppState, ComputeModel};
use octotiger_mini::{partition, Octree};
use parcelport::{
    build_sharded_world, build_world, LaneSetup, PpConfig, ShardedWorld, World, WorldConfig,
};
use simcore::shard::RunMode;
use simcore::SimTime;

use crate::spans::{self, span, Layer};

/// How to build one rep.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// Workload seed: the world's RNG seed, and the peer draw of
    /// `cluster64_sharded`.
    pub seed: u64,
    /// About a tenth of the full size.
    pub smoke: bool,
    /// Install the span hooks (timing decorator, timed registry).
    pub traced: bool,
}

/// Simulated results of one rep.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    pub completed: bool,
    /// Parcels the workload planted, i.e. must see delivered.
    pub planted: u64,
    pub delivered: u64,
    /// Parcels and HPX messages handed down by the AMT layer, all
    /// localities.
    pub parcels_sent: u64,
    pub messages_sent: u64,
    /// The headline simulated result in virtual ns: receive-complete time
    /// (msgrate), total ping-pong time, or makespan.
    pub headline_ns: u64,
    /// Simulator events executed (nested events on the sharded world).
    pub events: u64,
    pub tasks_run: u64,
    /// Sharded engine only: epochs and engine events.
    pub shard: Option<(u64, u64)>,
    /// A workload-specific correctness check.
    pub check: Result<(), String>,
}

/// A built world with its traffic planted, ready to run once.
pub trait Planted {
    fn run(&mut self) -> Outcome;
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    MsgrateLci,
    MsgrateMpi,
    Octotiger,
    Cluster64,
    PingpongTelemetry,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::MsgrateLci,
        Workload::MsgrateMpi,
        Workload::Octotiger,
        Workload::Cluster64,
        Workload::PingpongTelemetry,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::MsgrateLci => "msgrate_8b_lci",
            Workload::MsgrateMpi => "msgrate_8b_mpi",
            Workload::Octotiger => "octotiger_l5",
            Workload::Cluster64 => "cluster64_sharded",
            Workload::PingpongTelemetry => "pingpong_w8_telemetry",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Parcelport configuration (Table-1 name).
    pub fn config(self) -> &'static str {
        match self {
            Workload::MsgrateMpi => "mpi_i",
            _ => "lci_psr_cq_pin_i",
        }
    }

    fn pp(self) -> PpConfig {
        self.config().parse().expect("Table-1 configuration name")
    }

    /// Whether the workload runs with a telemetry collector installed.
    pub fn telemetry(self) -> bool {
        self == Workload::PingpongTelemetry
    }

    /// How the run time grows with the host's load: as the reference
    /// workload's time to this power (see `calib.rs`). The MPI backlog
    /// scan and Octo-Tiger's large working set slow less than the
    /// allocation-bound LCI paths. Each value is the one whose restated
    /// run values spread least, within a 10-run set and between sets, over
    /// three sets of 10 runs on the reference host; values within 0.1 of
    /// it did about as well.
    pub fn host_exponent(self) -> f64 {
        match self {
            Workload::MsgrateLci | Workload::PingpongTelemetry => 1.0,
            Workload::MsgrateMpi | Workload::Octotiger => 0.5,
            Workload::Cluster64 => 0.8,
        }
    }

    /// How the headline reads to a user.
    pub fn headline_text(self, o: &Outcome) -> String {
        let us = o.headline_ns as f64 / 1e3;
        match self {
            Workload::MsgrateLci | Workload::MsgrateMpi => {
                format!("msg rate {:.1}K msg/s", o.planted as f64 / us * 1e3)
            }
            Workload::PingpongTelemetry => {
                format!("one-way {:.3} us", us / (2.0 * pingpong_steps(o.planted) as f64))
            }
            Workload::Octotiger | Workload::Cluster64 => format!("makespan {us:.2} us"),
        }
    }

    pub fn build(self, o: &Opts) -> Box<dyn Planted> {
        // Full sizes keep a rep near 0.1 s of host time and its heap
        // small. Smoke sizes are about a tenth; the tree and the cluster
        // shrink too, because their set-up dominates at that size.
        let size = |full: usize, smoke: usize| if o.smoke { smoke } else { full };
        match self {
            Workload::MsgrateLci => msgrate(self.pp(), size(50_000, 5_000), o),
            Workload::MsgrateMpi => msgrate(self.pp(), size(10_000, 1_000), o),
            Workload::Octotiger => octotiger(self.pp(), size(5, 4) as u32, size(3, 1) as u32, o),
            Workload::Cluster64 => cluster(self.pp(), size(64, 16), size(100, 20), o),
            Workload::PingpongTelemetry => pingpong(self.pp(), size(1_000, 100), o),
        }
    }
}

/// Simulated headlines at full size: `(workload, seed, headline ns)`.
/// The world's RNG only draws on a fat-tree, so only the cluster's
/// results depend on the seed; it is pinned at seeds 1 and 2 (2 is the
/// held-out seed). Every other workload has one pin, checked at every
/// seed.
pub const PINS: &[(&str, Option<u64>, u64)] = &[
    ("msgrate_8b_lci", None, 81_374_851),
    ("msgrate_8b_mpi", None, 25_162_548),
    ("octotiger_l5", None, 29_719_803),
    ("cluster64_sharded", Some(1), 199_218),
    ("cluster64_sharded", Some(2), 203_358),
    ("pingpong_w8_telemetry", None, 23_809_290),
];

pub fn pin(w: Workload, seed: u64) -> Option<u64> {
    PINS.iter().find(|p| p.0 == w.name() && p.1.is_none_or(|s| s == seed)).map(|p| p.2)
}

const PINGPONG_WINDOW: usize = 8;

fn pingpong_steps(planted: u64) -> u64 {
    planted / (2 * PINGPONG_WINDOW as u64)
}

fn sent_totals(locs: impl Iterator<Item = Rc<Locality>>) -> (u64, u64, u64) {
    locs.fold((0, 0, 0), |(p, m, t), loc| {
        let (lp, lm) = loc.with_layer(|l| (l.parcels_sent(), l.messages_sent()));
        (p + lp, m + lm, t + loc.tasks_run())
    })
}

fn legacy_world(cfg: &WorldConfig, registry: ActionRegistry, traced: bool) -> World {
    let registry = if traced { spans::time_registry(&registry) } else { registry };
    let world = build_world(cfg, registry);
    if traced {
        for loc in &world.runtime.localities {
            spans::time_parcelport(loc);
        }
    }
    world
}

fn legacy_outcome(
    world: &World,
    completed: bool,
    planted: u64,
    delivered: u64,
    headline_ns: u64,
) -> Outcome {
    let (parcels_sent, messages_sent, tasks_run) =
        sent_totals(world.runtime.localities.iter().cloned());
    Outcome {
        completed,
        planted,
        delivered,
        parcels_sent,
        messages_sent,
        headline_ns,
        events: world.sim.events_executed(),
        tasks_run,
        shard: None,
        check: Ok(()),
    }
}

// ---------------------------------------------------------------- msgrate

struct MsgRate {
    world: World,
    expect: usize,
    received: Rc<Cell<usize>>,
    recv_done_at: Rc<Cell<SimTime>>,
    injected_done_at: Rc<Cell<SimTime>>,
}

/// `bench::run_msgrate` at 8 B, batch 100, unlimited injection, 32 cores,
/// Expanse wire: every injector task planted at t=0 (open loop).
fn msgrate(pp: PpConfig, total: usize, o: &Opts) -> Box<dyn Planted> {
    const BATCH: usize = 100;
    const DISPATCH_NS: u64 = 150;
    let mut registry = ActionRegistry::new();
    let received = Rc::new(Cell::new(0usize));
    let recv_done_at = Rc::new(Cell::new(SimTime::ZERO));
    {
        let received = received.clone();
        let recv_done_at = recv_done_at.clone();
        registry.register("sink", move |sim, loc, core, _parcel| {
            let n = received.get() + 1;
            received.set(n);
            let t = sim.now() + DISPATCH_NS;
            if n == total {
                recv_done_at.set(t);
                let done = loc.with_registry(|r| r.id_of("done").expect("registered"));
                span(Layer::Send, || {
                    loc.send_action(sim, core, 0, done, vec![Bytes::from_static(b"!")])
                });
            }
            t
        });
    }
    registry.register("done", |sim, _loc, _core, _p| sim.now());
    let sink = registry.id_of("sink").expect("registered");

    let mut wcfg = WorldConfig::two_nodes(pp, 32);
    wcfg.seed = o.seed;
    let mut world = legacy_world(&wcfg, registry, o.traced);

    let injected_done_at = Rc::new(Cell::new(SimTime::ZERO));
    let loc0 = world.locality(0).clone();
    let payload = Bytes::from(vec![0u8; 8]);
    for _ in 0..total / BATCH {
        let loc = loc0.clone();
        let injected_done_at = injected_done_at.clone();
        let payload = payload.clone();
        world.sim.schedule_at(SimTime::ZERO, move |sim| {
            loc.spawn(
                sim,
                0,
                Box::new(move |sim, loc, core| {
                    span(Layer::App, || {
                        let mut t = sim.now();
                        for _ in 0..BATCH {
                            t = span(Layer::Send, || {
                                loc.send_action(sim, core, 1, sink, vec![payload.clone()])
                            });
                        }
                        if injected_done_at.get() < t {
                            injected_done_at.set(t);
                        }
                        t
                    })
                }),
            );
        });
    }
    Box::new(MsgRate { world, expect: total, received, recv_done_at, injected_done_at })
}

impl Planted for MsgRate {
    fn run(&mut self) -> Outcome {
        let recv = self.received.clone();
        let expect = self.expect;
        let done = self.world.run_while(60_000_000_000, move |_| recv.get() < expect);
        let comm_done = self.recv_done_at.get().max(self.injected_done_at.get());
        legacy_outcome(
            &self.world,
            done,
            expect as u64,
            self.received.get() as u64,
            comm_done.as_nanos(),
        )
    }
}

// --------------------------------------------------------------- pingpong

struct PingPong {
    world: World,
    chains_done: Rc<Cell<usize>>,
    hops_seen: Rc<Cell<u64>>,
    finish_at: Rc<Cell<SimTime>>,
    planted: u64,
}

/// Send one ping-pong hop from the benchmark's own task.
fn ping_task(ping: amt::ActionId, peer: usize, chain: u64, hops: u64, size: usize) -> amt::Task {
    Box::new(move |sim, loc, core| {
        span(Layer::App, || {
            let mut payload = vec![0u8; size];
            payload[0..8].copy_from_slice(&chain.to_le_bytes());
            payload[8..16].copy_from_slice(&hops.to_le_bytes());
            span(Layer::Send, || loc.send_action(sim, core, peer, ping, vec![Bytes::from(payload)]))
        })
    })
}

/// `bench::run_latency` at 8 B, window 8, 32 cores, Expanse wire: each
/// chain waits for its reply (closed loop).
fn pingpong(pp: PpConfig, steps: usize, o: &Opts) -> Box<dyn Planted> {
    const HANDLER_NS: u64 = 100;
    let mut registry = ActionRegistry::new();
    let chains_done = Rc::new(Cell::new(0usize));
    let hops_seen = Rc::new(Cell::new(0u64));
    let finish_at = Rc::new(Cell::new(SimTime::ZERO));
    {
        let chains_done = chains_done.clone();
        let hops_seen = hops_seen.clone();
        let finish_at = finish_at.clone();
        registry.register("ping", move |sim, loc, core, parcel| {
            hops_seen.set(hops_seen.get() + 1);
            let data = &parcel.args[0];
            let chain = u64::from_le_bytes(data[0..8].try_into().expect("chain id"));
            let hops = u64::from_le_bytes(data[8..16].try_into().expect("hops"));
            let t = sim.now() + HANDLER_NS;
            if hops == 0 {
                chains_done.set(chains_done.get() + 1);
                if finish_at.get() < t {
                    finish_at.set(t);
                }
                return t;
            }
            let ping = loc.with_registry(|r| r.id_of("ping").expect("registered"));
            loc.spawn(sim, core, ping_task(ping, 1 - loc.id, chain, hops - 1, data.len()));
            t
        });
    }
    let ping = registry.id_of("ping").expect("registered");

    let mut wcfg = WorldConfig::two_nodes(pp, 32);
    wcfg.seed = o.seed;
    let mut world = legacy_world(&wcfg, registry, o.traced);
    let loc0 = world.locality(0).clone();
    for chain in 0..PINGPONG_WINDOW as u64 {
        loc0.spawn(&mut world.sim, 0, ping_task(ping, 1, chain, (2 * steps - 1) as u64, 16));
    }
    let planted = (PINGPONG_WINDOW * 2 * steps) as u64;
    Box::new(PingPong { world, chains_done, hops_seen, finish_at, planted })
}

impl Planted for PingPong {
    fn run(&mut self) -> Outcome {
        let done = self.chains_done.clone();
        let completed =
            self.world.run_while(120_000_000_000, move |_| done.get() < PINGPONG_WINDOW);
        legacy_outcome(
            &self.world,
            completed,
            self.planted,
            self.hops_seen.get(),
            self.finish_at.get().as_nanos(),
        )
    }
}

// -------------------------------------------------------------- octotiger

struct Octo {
    world: World,
    states: Rc<Vec<Rc<RefCell<AppState>>>>,
    steps: u32,
}

/// `octotiger_mini::run_octotiger` on 4 localities × 32 cores, Expanse
/// wire: each step waits for its neighbours (closed loop).
fn octotiger(pp: PpConfig, level: u32, steps: u32, o: &Opts) -> Box<dyn Planted> {
    const LOCALITIES: usize = 4;
    let tree = Rc::new(Octree::build(level));
    let part = Rc::new(partition(&tree, LOCALITIES));
    let states = AppState::build_all(tree, part, LOCALITIES, steps, ComputeModel::default());
    let mut registry = ActionRegistry::new();
    let actions = register_actions(&mut registry, states.clone(), Rc::new(RefCell::new(None)));

    let mut wcfg = WorldConfig::two_nodes(pp, 32);
    wcfg.localities = LOCALITIES;
    wcfg.seed = o.seed;
    let mut world = legacy_world(&wcfg, registry, o.traced);

    // Locality 0 kicks step 0 everywhere.
    let start = actions.step_start;
    let loc0 = world.locality(0).clone();
    for dest in 0..LOCALITIES {
        loc0.spawn(
            &mut world.sim,
            0,
            Box::new(move |sim, loc, core| {
                span(Layer::App, || {
                    if dest == 0 {
                        let handler = loc.with_registry(|r| r.handler(start));
                        handler(sim, loc, core, amt::Parcel::empty(start))
                    } else {
                        span(Layer::Send, || {
                            loc.send_action(sim, core, dest, start, vec![Bytes::new()])
                        })
                    }
                })
            }),
        );
    }
    Box::new(Octo { world, states, steps })
}

impl Planted for Octo {
    fn run(&mut self) -> Outcome {
        let st0 = self.states[0].clone();
        let target = self.steps;
        let completed =
            self.world.run_while(600_000_000_000, move |_| st0.borrow().steps_completed < target);
        let finished = self.states[0].borrow().finished_at;
        let delivered = self.world.sim.stats.get("amt.messages_delivered");
        let mut out = legacy_outcome(&self.world, completed, 0, delivered, finished.as_nanos());
        // Send-immediate: one parcel per message, so delivered messages
        // count delivered parcels.
        out.planted = out.parcels_sent;
        out.check = if out.parcels_sent != out.messages_sent {
            Err(format!("{} parcels in {} messages", out.parcels_sent, out.messages_sent))
        } else if !self.states.iter().all(|s| s.borrow().mass_ok) {
            Err("root multipole mass invariant violated".into())
        } else {
            Ok(())
        };
        out
    }
}

// -------------------------------------------------------------- cluster64

struct Cluster {
    world: ShardedWorld,
    delivered: Arc<AtomicU64>,
    makespan: Arc<AtomicU64>,
    planted: u64,
}

/// SplitMix64: the benchmark's own generator for workload inputs.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `localities` × 4 cores on a fat-tree, federated world on 2 shards run
/// by the sequential executor. Every locality plants `per_loc` 8 B parcels
/// in batches of 50 at t=0 (open loop), each to a peer drawn uniformly
/// from the others.
fn cluster(pp: PpConfig, localities: usize, per_loc: usize, o: &Opts) -> Box<dyn Planted> {
    const DISPATCH_NS: u64 = 150;
    let batch = per_loc.min(50);
    let mut rng = o.seed;
    let peers: Vec<Vec<usize>> = (0..localities)
        .map(|rank| {
            (0..per_loc)
                .map(|_| {
                    (rank + 1 + (splitmix64(&mut rng) % (localities as u64 - 1)) as usize)
                        % localities
                })
                .collect()
        })
        .collect();

    let mut wcfg = WorldConfig::cluster(pp, localities, 4);
    wcfg.seed = o.seed;
    let delivered = Arc::new(AtomicU64::new(0));
    let makespan = Arc::new(AtomicU64::new(0));
    let (d, m) = (delivered.clone(), makespan.clone());
    let traced = o.traced;
    let world = build_sharded_world(
        &wcfg,
        2,
        move |_rank| {
            let mut registry = ActionRegistry::new();
            let (d, m) = (d.clone(), m.clone());
            registry.register("sink", move |sim, _loc, _core, _p| {
                d.fetch_add(1, Ordering::Relaxed);
                let t = sim.now() + DISPATCH_NS;
                m.fetch_max(t.as_nanos(), Ordering::Relaxed);
                t
            });
            LaneSetup::from(if traced { spans::time_registry(&registry) } else { registry })
        },
        move |rank, sim, loc| {
            if traced {
                spans::time_parcelport(loc);
            }
            let sink = loc.with_registry(|r| r.id_of("sink").expect("registered"));
            let payload = Bytes::from(vec![0u8; 8]);
            for chunk in peers[rank].chunks(batch) {
                let chunk = chunk.to_vec();
                let payload = payload.clone();
                loc.spawn(
                    sim,
                    0,
                    Box::new(move |sim, loc, core| {
                        span(Layer::App, || {
                            let mut t = sim.now();
                            for &dst in &chunk {
                                t = span(Layer::Send, || {
                                    loc.send_action(sim, core, dst, sink, vec![payload.clone()])
                                });
                            }
                            t
                        })
                    }),
                );
            }
        },
    );
    let planted = (localities * per_loc) as u64;
    Box::new(Cluster { world, delivered, makespan, planted })
}

impl Planted for Cluster {
    fn run(&mut self) -> Outcome {
        let report = self.world.run(Some(RunMode::Sequential));
        let n = self.world.config.localities;
        let (parcels_sent, messages_sent, tasks_run) =
            sent_totals((0..n).map(|r| self.world.locality(r)));
        let delivered = self.delivered.load(Ordering::Relaxed);
        Outcome {
            completed: delivered == self.planted,
            planted: self.planted,
            delivered,
            parcels_sent,
            messages_sent,
            headline_ns: self.makespan.load(Ordering::Relaxed),
            events: self.world.events_executed(),
            tasks_run,
            shard: Some((report.epochs, report.executed)),
            check: Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bench::{run_latency, run_msgrate, LatencyParams, MsgRateParams};
    use octotiger_mini::{run_octotiger, OctoParams};

    const SEED: u64 = 3;

    fn smoke(w: Workload, traced: bool) -> Outcome {
        w.build(&Opts { seed: SEED, smoke: true, traced }).run()
    }

    fn assert_sound(w: Workload, o: &Outcome) {
        assert!(o.completed, "{}: {o:?}", w.name());
        assert_eq!(o.delivered, o.planted, "{}", w.name());
        assert_eq!(o.check, Ok(()), "{}", w.name());
    }

    #[test]
    fn msgrate_copies_reproduce_bench_run_msgrate() {
        for w in [Workload::MsgrateLci, Workload::MsgrateMpi] {
            let ours = smoke(w, false);
            assert_sound(w, &ours);
            let mut p = MsgRateParams::small(w.pp());
            p.total_msgs = ours.planted as usize;
            p.seed = SEED;
            let lib = run_msgrate(&p);
            assert!(lib.completed);
            assert_eq!(ours.headline_ns, lib.comm_done.as_nanos(), "{}", w.name());
            assert_eq!(ours.events, lib.events_executed, "{}", w.name());
        }
    }

    #[test]
    fn pingpong_copy_reproduces_bench_run_latency() {
        let w = Workload::PingpongTelemetry;
        let ours = smoke(w, false);
        assert_sound(w, &ours);
        let mut p = LatencyParams::new(w.pp(), 8);
        p.window = PINGPONG_WINDOW;
        p.steps = pingpong_steps(ours.planted) as usize;
        p.seed = SEED;
        let lib = run_latency(&p);
        assert!(lib.completed);
        assert_eq!(ours.headline_ns, lib.total.as_nanos());
    }

    #[test]
    fn octotiger_copy_reproduces_run_octotiger() {
        let w = Workload::Octotiger;
        let ours = smoke(w, false);
        assert_sound(w, &ours);
        let mut p = OctoParams::expanse(w.pp(), 4);
        p.level = 4;
        p.steps = 1;
        p.seed = SEED;
        let lib = run_octotiger(&p);
        assert!(lib.completed && lib.mass_ok);
        assert_eq!(ours.headline_ns, lib.total.as_nanos());
        assert_eq!(ours.events, lib.events_executed);
    }

    #[test]
    fn spans_and_telemetry_change_no_simulated_result() {
        for w in Workload::ALL {
            let plain = smoke(w, false);
            assert_sound(w, &plain);

            spans::start();
            let traced = smoke(w, true);
            let layers = spans::stop().expect("span stack closes");
            assert_eq!(traced, plain, "{}: spans moved the simulation", w.name());
            for l in [Layer::Progress, Layer::Put, Layer::Send, Layer::Deliver, Layer::App] {
                assert!(layers[l as usize].calls > 0, "{}: no {} spans", w.name(), l.name());
            }

            telemetry::enable();
            let observed = smoke(w, false);
            telemetry::disable();
            assert_eq!(observed, plain, "{}: telemetry moved the simulation", w.name());
        }
    }

    /// Only the cluster's results depend on the seed, which is why the
    /// other workloads carry one pin for every seed.
    #[test]
    fn only_the_cluster_moves_with_the_seed() {
        for w in Workload::ALL {
            let run = |seed| w.build(&Opts { seed, smoke: true, traced: false }).run();
            let (a, b) = (run(1), run(2));
            assert_sound(w, &a);
            if w == Workload::Cluster64 {
                assert_ne!((a.headline_ns, a.events), (b.headline_ns, b.events));
                assert_eq!(a.shard.map(|s| s.0 > 0), Some(true), "sharded engine reports epochs");
            } else {
                assert_eq!(a, b, "{}: the seed moved the simulation", w.name());
            }
        }
    }

    #[test]
    fn every_workload_is_pinned_at_seeds_1_and_2() {
        for w in Workload::ALL {
            for seed in [1, 2] {
                assert!(pin(w, seed).is_some(), "{} seed {seed}", w.name());
            }
        }
        assert_eq!(pin(Workload::Cluster64, 3), None, "the cluster is pinned per seed");
    }
}
