//! The federated world: one engine lane per locality on the sharded
//! conservative engine ([`simcore::ShardedSim`]).
//!
//! # Execution model
//!
//! [`build_world`](crate::build_world) drives every locality from one
//! event heap; this module instead gives every locality its own *lane* —
//! a [`LocalityNode`] actor owning a full nested [`Sim`], its locality,
//! its parcelport stack, and a private [`Fabric::replica`] of the one
//! fabric built for the world (a switched topology's graph, port names
//! and routes are shared by `Arc`; each replica owns its channels and
//! port buffers). Lanes are placed onto engine shards (block partition,
//! `rank * shards / localities`), and the conservative window is the
//! fabric's [`Fabric::min_lookahead`] — asserted positive at
//! construction, so every cross-locality wire transit pays at least one
//! lookahead by construction.
//!
//! Cross-locality traffic leaves a lane as raw [`Packet`]s: after each
//! nested advance the lane drains what its home node sent
//! ([`Fabric::drain_sent_by`], which touches only the home row of the
//! replica's channels) into the destination lane's inbox (one
//! `Mutex<Vec>` per lane, pushed by every source) and posts one engine
//! wake per packet at `now + lookahead` — satisfying the engine's
//! lookahead bound exactly. The destination lane takes its due packets
//! out of its inbox in one pass and accepts them
//! ([`Fabric::accept_remote`]) with their *original* delivery instants
//! before advancing, so wire timing is preserved: acceptance mirrors the
//! legacy shared-fabric enqueue at send time, and delivery still happens
//! at the modeled `deliver_at`. (On the ideal zero-latency wire the 1 ns
//! lookahead floor defers cross-lane *visibility* by at most 1 ns; local
//! delivery timing is untouched — see `Fabric::min_lookahead`.)
//!
//! # Determinism
//!
//! Lane placement and executor choice are invisible to results: the
//! engine's canonical key `(time, lane, seq)` is independent of the
//! shard count and of thread scheduling, every lane's nested `Sim` runs
//! sequentially whatever thread hosts it, and inbox acceptance orders
//! the due packets by source rank (a stable sort keeps per-source FIFO).
//! Shards ∈ {1, 2, 4, 8} × {sequential,
//! threaded} all yield bit-identical canonical logs, digests, and
//! telemetry (pinned by `tests/golden_trace.rs`).
//!
//! # Telemetry
//!
//! With a collector enabled when the world is built, each lane owns a
//! collector of its own ([`telemetry::Telemetry::for_lane`]: flow tracer
//! namespaced by lane, private causal log, its own windowed timeline, its
//! locality's core spans and profile). Every dispatch swaps it into the
//! thread's probe slot ([`simcore::probe::swap`]) and swaps the previous
//! occupant back on exit, so after a run each thread's slot holds what it
//! held before, on both executors. The lanes merge into the build-time
//! collector in lane-rank order after the run or when the world is
//! dropped, whatever the slot holds by then — so merged telemetry is also
//! shard-count- and run-mode-invariant.
//!
//! One modeling difference from the shared-fabric world is deliberate:
//! switched-topology port contention is partitioned per *source* (each
//! lane's replica only sees its own sends), so cross-source port queueing
//! is not modeled in the federated world. Deterministic, documented in
//! DESIGN.md §3.14.

use std::any::Any;
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::{Arc, Mutex};

use amt::action::ActionRegistry;
use amt::Locality;
use netsim::{Fabric, Packet};
use simcore::shard::{RunMode, RunReport};
use simcore::{LaneCtx, LaneId, ShardActor, ShardEventId, ShardedSim, Sim, SimTime, Stats};

use crate::builder::{build_fabric, build_locality, WorldConfig};

/// A packet crossing lanes through an inbox. The engine wake event
/// carries only the happens-before edge; the payload rides here.
struct MailPacket {
    /// When the destination lane may observe the packet (`send-lane now +
    /// lookahead` — monotone per source).
    wake_at: SimTime,
    /// The modeled delivery instant, preserved end-to-end.
    deliver_at: SimTime,
    pkt: Packet,
}

/// One inbox per destination lane, indexed by rank. Every source lane
/// pushes its own packets in send order; only the destination takes
/// them out. The engine's epoch barrier provides ordering, the mutex only
/// data-race freedom.
type Inboxes = Arc<Vec<Mutex<Vec<MailPacket>>>>;

/// Move the packets of `inbox` that are due at `now` into `due`, sources
/// in rank order (the deterministic merge order) and FIFO per source —
/// which is the per-channel FIFO `Fabric::accept_remote` requires. One
/// pass takes them out in push order, and a stable sort by source yields
/// that order under any thread schedule: each source alone pushes its
/// packets, in order, and a packet pushed during the current window wakes
/// at or after the window end, so it is never due in it.
fn take_due(inbox: &Mutex<Vec<MailPacket>>, now: SimTime, due: &mut Vec<MailPacket>) {
    due.extend(inbox.lock().expect("inbox poisoned").extract_if(.., |m| m.wake_at <= now));
    due.sort_by_key(|m| m.pkt.src);
}

/// Engine-event tags for a lane.
const ARG_WAKE: u64 = 0;
const ARG_ADVANCE: u64 = 1;

/// Per-lane application setup supplied by the harness.
pub struct LaneSetup {
    /// This rank's action registry. Build it fresh per lane: closures
    /// must not capture an `Rc` shared across ranks (lanes may live on
    /// different threads) — share through `Arc` atomics or communicate
    /// through parcels instead. The same holds for `app`.
    pub registry: ActionRegistry,
    /// Opaque per-lane application state, readable back through
    /// [`ShardedWorld::app`] after the run.
    pub app: Option<Box<dyn Any>>,
}

impl From<ActionRegistry> for LaneSetup {
    fn from(registry: ActionRegistry) -> Self {
        LaneSetup { registry, app: None }
    }
}

/// One locality as a shard actor: a nested `Sim` plus the full per-rank
/// stack of [`build_world`](crate::build_world), advanced lockstep with
/// engine time.
pub struct LocalityNode {
    rank: usize,
    /// The nested simulator. Its node ids are in its lane's namespace
    /// (`Sim::set_lane`), so per-lane causal logs merge without
    /// collisions (lane 0 keeps the legacy namespace).
    sim: Sim,
    fabric: Rc<RefCell<Fabric>>,
    locality: Rc<Locality>,
    collector: RefCell<Option<Rc<telemetry::Telemetry>>>,
    app: Option<Box<dyn Any>>,
    inboxes: Inboxes,
    /// The one engine event armed at the nested heap head.
    advance: Option<ShardEventId>,
    /// Reused inbound buffer: the due packets taken from this lane's inbox.
    due: Vec<MailPacket>,
    /// Reused outbound drain buffer.
    drain: Vec<(SimTime, Packet)>,
}

// SAFETY: a node is `!Send` only through `Rc`/`RefCell` state, and no
// `Rc` is shared between lanes: `build_sharded_world` builds every lane's
// stack on its own — the nested `sim` (its handlers and queued closures),
// the `fabric` replica (`Fabric::replica`, wrapped in a fresh `Rc`), the
// `locality` with its own `Rc<CostModel>` and parcelport
// (`build_locality`), and the `collector` (an `Rc<Telemetry>` of this
// lane only). Every `Rc` reachable from a node is therefore reachable from
// that node alone, and moving the node moves all of them together. All
// cross-lane state is `Arc`/`Mutex`: the `inboxes`, packet payloads in
// `due` and `drain` (`Bytes`), the telemetry run's route store, and the
// switched topology the replicas share — graph, port names and routes
// behind `Arc`, never written while shared (`SwitchFabric::fail_link`
// copies the routes first). `app` and the registry's closures come from
// `LaneSetup`, which must not capture an `Rc` shared across ranks
// (documented on `LaneSetup`). `rank` and `advance` are plain data. A run
// lends the node's shard to one engine worker for the whole run, so the
// node changes threads only when that worker is spawned or joined — both
// happens-before edges — and is dispatched on one thread at a time. A
// dispatch swaps the node's collector into the thread's probe slot on
// entry and swaps the previous occupant back on exit, so between
// dispatches no thread-local holds anything of the node.
unsafe impl Send for LocalityNode {}

impl LocalityNode {
    /// This lane's locality.
    pub fn locality(&self) -> &Rc<Locality> {
        &self.locality
    }

    /// This lane's fabric replica.
    pub fn fabric(&self) -> &Rc<RefCell<Fabric>> {
        &self.fabric
    }

    /// Virtual time the nested simulator has reached.
    pub fn nested_now(&self) -> SimTime {
        self.sim.now()
    }

    /// Events the nested simulator executed.
    pub fn nested_events(&self) -> u64 {
        self.sim.events_executed()
    }

    /// The nested simulator's counters.
    pub fn stats(&self) -> &Stats {
        &self.sim.stats
    }

    /// The per-lane application state installed via [`LaneSetup::app`].
    pub fn app_ref(&self) -> Option<&dyn Any> {
        self.app.as_deref()
    }
}

impl ShardActor for LocalityNode {
    fn on_event(&mut self, ctx: &mut LaneCtx<'_>, arg: u64) {
        // Moves two pointers and a count: no allocation.
        let prev = self.collector.get_mut().clone().map(|c| simcore::probe::swap(Some(c)));
        let now = ctx.now();
        if arg == ARG_ADVANCE {
            self.advance = None;
        }

        // 1. Accept every due inbound packet.
        take_due(&self.inboxes[self.rank], now, &mut self.due);
        for m in self.due.drain(..) {
            self.fabric.borrow_mut().accept_remote(&mut self.sim, m.deliver_at, m.pkt);
        }

        // 2. Advance the nested world to engine time.
        self.sim.run_until(now);

        // 3. Export what this lane sent: payload into the destination's
        //    inbox, one engine wake per packet at exactly `now + lookahead`.
        self.fabric.borrow_mut().drain_sent_by(self.rank, &mut self.drain);
        let wake = now + ctx.lookahead();
        for (deliver_at, pkt) in self.drain.drain(..) {
            let dst = pkt.dst;
            self.inboxes[dst].lock().expect("inbox poisoned").push(MailPacket {
                wake_at: wake,
                deliver_at,
                pkt,
            });
            ctx.send(LaneId(dst as u32), wake, ARG_WAKE);
        }

        // 4. Re-arm the advance event at the nested heap head.
        match (self.advance, self.sim.next_event_at()) {
            (Some(id), Some(at)) => {
                let live = ctx.reschedule(id, at);
                debug_assert!(live, "armed advance event must be pending");
            }
            (Some(id), None) => {
                ctx.cancel(id);
                self.advance = None;
            }
            (None, Some(at)) => {
                self.advance = Some(ctx.schedule_at(at, ARG_ADVANCE));
            }
            (None, None) => {}
        }

        if let Some(prev) = prev {
            simcore::probe::swap(prev);
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// A fully-wired federated world, ready to run.
pub struct ShardedWorld {
    /// The sharded engine holding one [`LocalityNode`] lane per locality.
    pub engine: ShardedSim,
    /// The configuration it was built from.
    pub config: WorldConfig,
    /// Engine shards the lanes were placed on.
    pub shards: usize,
    /// The harness collector that was active on the building thread, kept
    /// by handle: the lanes' collectors were built for it, and by merge
    /// time the harness may have disabled or replaced it.
    main_tel: Option<Rc<telemetry::Telemetry>>,
    merged: bool,
}

/// Build a federated world: `cfg.localities` lanes over `shards` engine
/// shards. `setup(rank)` supplies each lane's registry and app state;
/// `seed(rank, sim, locality)` plants the initial workload into each
/// lane's nested simulator (the federated analogue of scheduling into
/// `World::sim`).
pub fn build_sharded_world(
    cfg: &WorldConfig,
    shards: usize,
    mut setup: impl FnMut(usize) -> LaneSetup,
    mut seed: impl FnMut(usize, &mut Sim, &Rc<Locality>),
) -> ShardedWorld {
    let n = cfg.localities;
    let shards = shards.clamp(1, n);
    let inboxes: Inboxes = Arc::new((0..n).map(|_| Mutex::new(Vec::new())).collect());
    let main_tel = telemetry::active();
    // The world's one fabric build. Each lane models its own sends end to
    // end on a replica of it; inbound packets are accepted with their
    // original delivery instants.
    let template = build_fabric(cfg);

    let nodes: Vec<Box<LocalityNode>> = (0..n)
        .map(|rank| {
            let LaneSetup { registry, app } = setup(rank);
            let mut sim = Sim::new(cfg.seed);
            // Lane-namespaced causal node ids; lane 0 keeps the legacy ids.
            sim.set_lane(rank as u32);
            let fabric = Rc::new(RefCell::new(template.replica()));
            let locality = build_locality(cfg, rank, &fabric, registry);
            locality.start(&mut sim);
            seed(rank, &mut sim, &locality);
            let collector =
                main_tel.as_ref().map(|main| telemetry::Telemetry::for_lane(rank as u32, main));
            Box::new(LocalityNode {
                rank,
                sim,
                fabric,
                locality,
                collector: RefCell::new(collector),
                app,
                inboxes: inboxes.clone(),
                advance: None,
                due: Vec::new(),
                drain: Vec::new(),
            })
        })
        .collect();

    // The conservative lookahead comes from the fabric model itself
    // (`build_fabric` asserted it positive).
    let lookahead = template.min_lookahead();
    let mut engine = ShardedSim::new(shards, lookahead);
    for (rank, node) in nodes.into_iter().enumerate() {
        // Block placement keeps SFC-adjacent localities on one shard.
        let lane = engine.add_actor(rank * shards / n, node);
        assert_eq!(lane, LaneId(rank as u32), "lane ids must equal ranks");
        // Bootstrap: one advance at t=0 (every locality armed its core
        // ticks at 0). The node re-arms with a cancellable handle from
        // its first dispatch onward.
        engine.seed(lane, SimTime::ZERO, ARG_ADVANCE);
    }

    ShardedWorld { engine, config: cfg.clone(), shards, main_tel, merged: false }
}

impl ShardedWorld {
    /// The conservative lookahead (ns) the lanes run under.
    pub fn lookahead(&self) -> u64 {
        self.engine.lookahead()
    }

    /// The lane actor of `rank`.
    pub fn node(&self, rank: usize) -> &LocalityNode {
        self.engine
            .actor::<LocalityNode>(LaneId(rank as u32))
            .expect("every rank has a LocalityNode lane")
    }

    /// Locality by rank.
    pub fn locality(&self, rank: usize) -> Rc<Locality> {
        self.node(rank).locality.clone()
    }

    /// Downcast rank's [`LaneSetup::app`] state.
    pub fn app<T: 'static>(&self, rank: usize) -> Option<&T> {
        self.node(rank).app_ref()?.downcast_ref::<T>()
    }

    /// Run the engine to quiescence. `mode` pins the executor; `None`
    /// lets the engine pick (one worker per host CPU, at most one per
    /// shard). Merges per-lane telemetry into the harness collector
    /// afterwards.
    pub fn run(&mut self, mode: Option<RunMode>) -> RunReport {
        let report = self.engine.run(mode);
        self.merge_telemetry();
        report
    }

    /// Sum of nested events executed across lanes — the federated
    /// analogue of `World::sim.events_executed()`.
    pub fn events_executed(&self) -> u64 {
        (0..self.config.localities).map(|r| self.node(r).nested_events()).sum()
    }

    /// Latest nested virtual time across lanes.
    pub fn now(&self) -> SimTime {
        (0..self.config.localities)
            .map(|r| self.node(r).nested_now())
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Drain per-lane collectors (flows, metrics, causal logs, spans,
    /// timelines) into the harness collector, lanes in rank order —
    /// exactly once; later calls are no-ops. Runs automatically at the
    /// end of [`ShardedWorld::run`].
    pub fn merge_telemetry(&mut self) {
        if self.merged {
            return;
        }
        self.merged = true;
        let Some(main) = self.main_tel.take() else { return };
        let lanes: Vec<_> = (0..self.config.localities)
            .filter_map(|rank| self.node(rank).collector.borrow_mut().take())
            .collect();
        if !lanes.is_empty() {
            telemetry::merge_lane_collectors(&main, lanes);
        }
    }
}

impl Drop for ShardedWorld {
    fn drop(&mut self) {
        self.merge_telemetry();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn sink_registry(hits: Arc<AtomicUsize>, expected_size: usize) -> ActionRegistry {
        let mut registry = ActionRegistry::new();
        registry.register("sink", move |sim, _loc, _core, p| {
            assert_eq!(p.args[0].len(), expected_size, "payload size corrupted");
            hits.fetch_add(1, Ordering::Relaxed);
            sim.now() + 200
        });
        registry
    }

    #[test]
    fn all_backends_roundtrip_across_lanes() {
        use crate::engine::tests::roundtrip;
        let engine = crate::Engine::Federated { shards: 2, mode: Some(RunMode::Sequential) };
        for pp in ["lci_psr_cq_pin_i", "mpi_i", "tcp_i"] {
            roundtrip(pp, 8, 20, engine);
            roundtrip(pp, 16 * 1024, 5, engine);
        }
    }

    /// Two localities on two shards; rank 0 sends `parcels` 8 B parcels to
    /// rank 1. Also returns the count of parcels delivered.
    fn two_node_world(parcels: usize) -> (ShardedWorld, Arc<AtomicUsize>) {
        let hits = Arc::new(AtomicUsize::new(0));
        let cfg = WorldConfig::two_nodes("lci_psr_cq_pin_i".parse().unwrap(), 4);
        let h = hits.clone();
        let world = build_sharded_world(
            &cfg,
            2,
            move |_rank| sink_registry(h.clone(), 8).into(),
            move |rank, sim, loc| {
                if rank != 0 {
                    return;
                }
                let action = loc.with_registry(|r| r.id_of("sink").unwrap());
                for _ in 0..parcels {
                    let loc = loc.clone();
                    loc.clone().spawn(
                        sim,
                        0,
                        Box::new(move |sim, _l, core| {
                            loc.send_action(
                                sim,
                                core,
                                1,
                                action,
                                vec![Bytes::from_static(b"12345678")],
                            )
                        }),
                    );
                }
            },
        );
        (world, hits)
    }

    #[test]
    fn threaded_matches_sequential_digest() {
        let digest_of = |mode: RunMode| {
            let (mut world, hits) = two_node_world(30);
            world.engine.set_exec_capture(true);
            world.run(Some(mode));
            assert_eq!(hits.load(Ordering::Relaxed), 30);
            (world.engine.digest(), world.events_executed(), world.now())
        };
        assert_eq!(digest_of(RunMode::Sequential), digest_of(RunMode::Threaded));
    }

    /// Threads interleave the sources' pushes into one inbox; taking the
    /// due packets restores rank order, keeps each source's FIFO, and
    /// leaves what is not yet due.
    #[test]
    fn take_due_merges_sources_in_rank_order() {
        let mail = |src: usize, tag: u64, wake: u64| MailPacket {
            wake_at: SimTime::from_nanos(wake),
            deliver_at: SimTime::from_nanos(wake + 100),
            pkt: Packet { src, dst: 0, ctx: 0, kind: 0, tag, imm: 0, data: Bytes::new() },
        };
        let inbox = Mutex::new(vec![
            mail(3, 30, 5),
            mail(1, 10, 5),
            mail(3, 31, 5),
            mail(1, 11, 9),
            mail(2, 20, 4),
        ]);
        let mut due = Vec::new();
        take_due(&inbox, SimTime::from_nanos(5), &mut due);
        let tags: Vec<u64> = due.iter().map(|m| m.pkt.tag).collect();
        assert_eq!(tags, [10, 20, 30, 31]);
        let left: Vec<u64> = inbox.lock().unwrap().iter().map(|m| m.pkt.tag).collect();
        assert_eq!(left, [11], "a packet not yet due stays in the inbox");
    }

    /// All-to-all on the 4-locality fat-tree: every inbox takes packets
    /// from three sources, and its merge order must not depend on shard
    /// count or executor.
    #[test]
    fn shard_count_is_invisible_to_results() {
        let run = |shards: usize, mode: RunMode| {
            let hits = Arc::new(AtomicUsize::new(0));
            let cfg = WorldConfig::cluster("lci_psr_cq_pin_i".parse().unwrap(), 4, 4);
            let h = hits.clone();
            let mut world = build_sharded_world(
                &cfg,
                shards,
                move |_rank| sink_registry(h.clone(), 8).into(),
                move |rank, sim, loc| {
                    let action = loc.with_registry(|r| r.id_of("sink").unwrap());
                    for dst in (0..4usize).filter(|&dst| dst != rank) {
                        for _ in 0..5 {
                            let loc = loc.clone();
                            loc.clone().spawn(
                                sim,
                                0,
                                Box::new(move |sim, _l, core| {
                                    loc.send_action(
                                        sim,
                                        core,
                                        dst,
                                        action,
                                        vec![Bytes::from_static(b"zzzzzzzz")],
                                    )
                                }),
                            );
                        }
                    }
                },
            );
            world.engine.set_exec_capture(true);
            world.run(Some(mode));
            assert_eq!(hits.load(Ordering::Relaxed), 60, "shards={shards} {mode:?}: lost parcels");
            (world.engine.digest(), world.events_executed(), world.now())
        };
        let base = run(1, RunMode::Sequential);
        assert_eq!(base, run(2, RunMode::Sequential));
        assert_eq!(base, run(4, RunMode::Sequential));
        assert_eq!(base, run(4, RunMode::Threaded));
    }

    /// A run merges the lanes into the collector that was on when the
    /// world was built, and leaves the calling thread's probe slot as the
    /// harness left it: here, empty.
    #[test]
    fn a_run_after_disable_leaves_telemetry_off() {
        for mode in [RunMode::Sequential, RunMode::Threaded] {
            let main = telemetry::enable();
            let (mut world, hits) = two_node_world(5);
            telemetry::disable();
            world.run(Some(mode));
            assert_eq!(hits.load(Ordering::Relaxed), 5);
            assert!(!telemetry::enabled(), "{mode:?}: the run re-installed a collector");
            assert_eq!(main.flow_count(), 5, "{mode:?}: the lanes' flows merge into main");
        }
    }

    /// A world dropped before it runs merges its (empty) lanes and
    /// installs nothing.
    #[test]
    fn dropping_an_unrun_world_leaves_telemetry_off() {
        let _main = telemetry::enable();
        let (world, _) = two_node_world(5);
        telemetry::disable();
        drop(world);
        assert!(!telemetry::enabled(), "the drop re-installed a collector");
    }

    /// A collector the harness enabled after the build stays in the slot
    /// and records nothing of the run; the build-time one gets the merge.
    #[test]
    fn lanes_merge_into_the_build_time_collector() {
        let first = telemetry::enable();
        let (mut world, _) = two_node_world(5);
        let second = telemetry::enable();
        world.run(Some(RunMode::Sequential));
        let active = telemetry::active().expect("a collector in the slot");
        assert!(Rc::ptr_eq(&active, &second), "the run replaced the harness's collector");
        assert_eq!(second.flow_count(), 0, "the later collector saw the run");
        assert_eq!(first.flow_count(), 5, "the build-time collector got the merge");
        telemetry::disable();
    }

    #[test]
    fn zero_latency_wire_rides_the_floor_lookahead() {
        let hits = Arc::new(AtomicUsize::new(0));
        let mut cfg = WorldConfig::two_nodes("lci_psr_cq_pin_i".parse().unwrap(), 4);
        cfg.wire = netsim::WireModel::ideal();
        let h = hits.clone();
        let mut world = build_sharded_world(
            &cfg,
            2,
            move |_rank| sink_registry(h.clone(), 8).into(),
            move |rank, sim, loc| {
                if rank != 0 {
                    return;
                }
                let action = loc.with_registry(|r| r.id_of("sink").unwrap());
                let loc = loc.clone();
                loc.clone().spawn(
                    sim,
                    0,
                    Box::new(move |sim, _l, core| {
                        loc.send_action(sim, core, 1, action, vec![Bytes::from_static(b"floor!!!")])
                    }),
                );
            },
        );
        assert_eq!(world.lookahead(), 1, "ideal wire must advertise the 1 ns floor");
        world.run(Some(RunMode::Sequential));
        assert_eq!(hits.load(Ordering::Relaxed), 1);
    }
}
