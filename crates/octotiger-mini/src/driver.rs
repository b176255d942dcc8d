//! The benchmark driver: run N steps over any parcelport configuration.

use std::cell::RefCell;
use std::rc::Rc;

use amt::action::ActionRegistry;
use bytes::Bytes;
use netsim::WireModel;
use parcelport::{Engine, EngineWorld, PpConfig, WorldConfig};
use simcore::SimTime;

use crate::fmm::{register_actions, AppState, ComputeModel};
use crate::octree::Octree;
use crate::sfc::partition;

/// A rank's view of every locality's state (only its own is live, see
/// [`AppState::build_for_rank`]), kept in its app slot.
type States = Rc<Vec<Rc<RefCell<AppState>>>>;

/// Parameters of an Octo-Tiger-mini run.
#[derive(Debug, Clone)]
pub struct OctoParams {
    /// Parcelport configuration.
    pub config: PpConfig,
    /// Number of localities (compute nodes).
    pub localities: usize,
    /// Cores per locality.
    pub cores: usize,
    /// Wire model (platform preset).
    pub wire: WireModel,
    /// Maximum octree refinement level (paper: 6 on Expanse, 5 on Rostam).
    pub level: u32,
    /// Steps to run (paper: 5).
    pub steps: u32,
    /// Compute-kernel cost model.
    pub compute: ComputeModel,
    /// RNG seed.
    pub seed: u64,
    /// Software cost model; the calibrated one by default (what-if
    /// re-runs dial it).
    pub cost: simcore::CostModel,
    /// The event engine the run uses.
    pub engine: Engine,
}

impl OctoParams {
    /// The paper's SDSC Expanse setup (level 6, 5 steps), with cores
    /// scaled 128 -> 32 per the DESIGN.md scale-down note. The tree level
    /// is scaled to 5 to keep the simulation laptop-sized; the
    /// communication-to-compute balance is preserved by `ComputeModel`.
    pub fn expanse(config: PpConfig, localities: usize) -> Self {
        OctoParams {
            config,
            localities,
            cores: 32,
            wire: WireModel::expanse(),
            level: 5,
            steps: 5,
            compute: ComputeModel::default(),
            seed: 42,
            cost: simcore::CostModel::default(),
            engine: Engine::SingleHeap,
        }
    }

    /// The paper's Rostam setup (level 5 -> scaled 4, 5 steps, 40 -> 10
    /// cores, FDR InfiniBand).
    pub fn rostam(config: PpConfig, localities: usize) -> Self {
        OctoParams {
            config,
            localities,
            cores: 10,
            wire: WireModel::rostam(),
            level: 4,
            steps: 5,
            compute: ComputeModel::default(),
            seed: 42,
            cost: simcore::CostModel::default(),
            engine: Engine::SingleHeap,
        }
    }
}

/// Result of a run.
#[derive(Debug, Clone, Copy)]
pub struct OctoResult {
    /// Steps per second of virtual time — the paper's y-axis.
    pub steps_per_sec: f64,
    /// Total virtual time.
    pub total: SimTime,
    /// Whether all steps completed before the safety deadline.
    pub completed: bool,
    /// Whether the root-multipole mass invariant held every step.
    pub mass_ok: bool,
    /// Leaves in the tree (workload size indicator).
    pub leaves: usize,
    /// Engine events executed during the run — paired with wall-clock
    /// measurement by `engine_throughput` for the perf trajectory.
    pub events_executed: u64,
    /// HPX messages delivered (`amt.messages_delivered`), all localities.
    pub messages_delivered: u64,
    /// Payload bytes the fabric carried, all localities.
    pub bytes_sent: u64,
    /// Tasks spawned (`amt.spawn`), all localities.
    pub tasks_spawned: u64,
    /// Core ticks scheduled or moved earlier (`amt.arm_scheduled`).
    pub arms_scheduled: u64,
    /// Arms that found an earlier tick pending (`amt.arm_dedup`).
    pub arms_deduped: u64,
}

/// Run Octo-Tiger-mini once, on `p.engine`. Every rank builds its own
/// tree, partition, states and action registry: they are pure functions
/// of `p`, so the action ids agree by registration order, exactly how
/// HPX localities agree on action ids without exchanging them. Rank `r`
/// drives `states[r]` of its own `States`, which lives in its app slot.
pub fn run_octotiger(p: &OctoParams) -> OctoResult {
    let mut wcfg = WorldConfig::two_nodes(p.config, p.cores);
    wcfg.localities = p.localities;
    wcfg.wire = p.wire.clone();
    wcfg.seed = p.seed;
    wcfg.cost = p.cost.clone();

    let params = p.clone();
    let localities = p.localities;
    let mut world = p.engine.build(
        &wcfg,
        move |rank| {
            let tree = Rc::new(Octree::build(params.level));
            let part = Rc::new(partition(&tree, params.localities));
            let states = AppState::build_for_rank(
                tree,
                part,
                params.localities,
                rank,
                params.steps,
                params.compute.clone(),
            );
            let mut registry = ActionRegistry::new();
            register_actions(&mut registry, states.clone(), Rc::new(RefCell::new(None)));
            parcelport::LaneSetup { registry, app: Some(Box::new(states)) }
        },
        move |rank, sim, loc| {
            // Locality 0 starts step 0 everywhere.
            if rank != 0 {
                return;
            }
            let start = loc.with_registry(|r| r.id_of("octo.step_start").unwrap());
            for dest in 0..localities {
                if dest == 0 {
                    loc.spawn(
                        sim,
                        0,
                        Box::new(move |sim, loc, core| {
                            let handler = loc.with_registry(|r| r.handler(start));
                            handler(sim, loc, core, amt::Parcel::empty(start))
                        }),
                    );
                } else {
                    loc.spawn(
                        sim,
                        0,
                        Box::new(move |sim, loc, core| {
                            loc.send_action(sim, core, dest, start, Bytes::new())
                        }),
                    );
                }
            }
        },
    );
    fn state(w: &EngineWorld, rank: usize) -> &RefCell<AppState> {
        &w.app::<States>(rank).expect("every rank has app state")[rank]
    }
    let target = p.steps;
    let completed = world.run(600_000_000_000, |w| state(w, 0).borrow().steps_completed < target);

    if std::env::var("OCTO_DUMP").is_ok() {
        if let Some(w) = world.single_heap() {
            eprintln!("--- octo stats ({}) ---", p.config);
            eprintln!("{}", w.sim.stats);
        }
    }
    // Step completion and finish time live on locality 0; each rank
    // tracks the mass invariant on its own state.
    let st0 = state(&world, 0).borrow();
    let total = if st0.finished_at == SimTime::ZERO { world.now() } else { st0.finished_at };
    let steps_per_sec = if completed { p.steps as f64 / total.as_secs_f64() } else { 0.0 };
    let mass_ok = (0..p.localities).all(|rank| state(&world, rank).borrow().mass_ok);
    OctoResult {
        steps_per_sec,
        total,
        completed,
        mass_ok,
        leaves: st0.tree_leaves(),
        events_executed: world.events_executed(),
        messages_delivered: world.stat("amt.messages_delivered"),
        bytes_sent: world.bytes_sent(),
        tasks_spawned: world.stat("amt.spawn"),
        arms_scheduled: world.stat("amt.arm_scheduled"),
        arms_deduped: world.stat("amt.arm_dedup"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(config: &str, localities: usize, level: u32) -> OctoResult {
        let mut p = OctoParams::expanse(config.parse().unwrap(), localities);
        p.level = level;
        p.cores = 6;
        p.steps = 2;
        run_octotiger(&p)
    }

    #[test]
    fn single_locality_runs() {
        let r = quick("lci_psr_cq_pin_i", 1, 3);
        assert!(r.completed, "{r:?}");
        assert!(r.mass_ok, "mass invariant violated");
        assert!(r.steps_per_sec > 0.0);
    }

    #[test]
    fn two_localities_lci() {
        let r = quick("lci_psr_cq_pin_i", 2, 3);
        assert!(r.completed, "{r:?}");
        assert!(r.mass_ok);
    }

    #[test]
    fn four_localities_mpi() {
        let r = quick("mpi_i", 4, 3);
        assert!(r.completed, "{r:?}");
        assert!(r.mass_ok);
    }

    #[test]
    fn sharded_matches_single_heap_results() {
        use simcore::shard::RunMode;
        let mut p = OctoParams::expanse("lci_psr_cq_pin_i".parse().unwrap(), 4);
        p.level = 3;
        p.cores = 6;
        p.steps = 2;
        let mut legacy = None;
        for engine in [
            Engine::SingleHeap,
            Engine::Federated { shards: 1, mode: Some(RunMode::Sequential) },
            Engine::Federated { shards: 2, mode: Some(RunMode::Sequential) },
            Engine::Federated { shards: 4, mode: Some(RunMode::Threaded) },
        ] {
            p.engine = engine;
            let r = run_octotiger(&p);
            assert!(r.completed, "{engine:?}: {r:?}");
            assert!(r.mass_ok, "{engine:?}: mass invariant violated");
            let legacy: &OctoResult = legacy.get_or_insert(r);
            assert_eq!(r.leaves, legacy.leaves);
            assert_eq!(
                r.total, legacy.total,
                "{engine:?}: virtual end time diverged from the single-heap world"
            );
        }
    }

    /// `(config, engine, makespan ns, events executed, messages delivered,
    /// wire bytes, [tasks spawned, ticks armed, arms deduplicated])` of a
    /// level-4, 2-step run on 4 localities. The byte count proves that
    /// every remote ghost slab ships whole; the scheduler counts prove
    /// that local actions spawn, and wake workers, as often as before.
    type WirePin = (&'static str, Engine, u64, u64, u64, u64, [u64; 3]);
    const WIRE_PINS: &[WirePin] = &[
        (
            "lci_psr_cq_pin_i",
            Engine::SingleHeap,
            7_472_383,
            24_291,
            1_952,
            11_245_712,
            [18_167, 22_547, 6_042],
        ),
        (
            "mpi_i",
            Engine::SingleHeap,
            21_446_966,
            25_669,
            1_952,
            11_245_712,
            [18_167, 23_739, 6_492],
        ),
        (
            "lci_psr_cq_pin_i",
            Engine::Federated { shards: 2, mode: None },
            7_472_383,
            24_366,
            1_952,
            11_245_712,
            [18_167, 22_684, 5_958],
        ),
    ];

    #[test]
    fn wire_traffic_is_pinned() {
        for &(config, engine, makespan, events, delivered, bytes, sched) in WIRE_PINS {
            let mut p = OctoParams::expanse(config.parse().unwrap(), 4);
            p.level = 4;
            p.cores = 6;
            p.steps = 2;
            p.engine = engine;
            let r = run_octotiger(&p);
            assert!(r.completed && r.mass_ok, "{config} {engine:?}: {r:?}");
            assert_eq!(
                (r.total.as_nanos(), r.events_executed, r.messages_delivered, r.bytes_sent),
                (makespan, events, delivered, bytes),
                "{config} {engine:?}: Octo-Tiger's traffic moved"
            );
            assert_eq!(
                [r.tasks_spawned, r.arms_scheduled, r.arms_deduped],
                sched,
                "{config} {engine:?}: [amt.spawn, amt.arm_scheduled, amt.arm_dedup] moved"
            );
        }
    }

    #[test]
    fn results_deterministic_across_backends() {
        // The mass invariant (physics) must hold identically on every
        // parcelport — communication must not change results.
        for cfg in ["lci_psr_cq_pin_i", "lci_sr_sy_mt_i", "mpi", "mpi_i"] {
            let r = quick(cfg, 3, 3);
            assert!(r.completed, "{cfg}: {r:?}");
            assert!(r.mass_ok, "{cfg}: mass invariant violated");
        }
    }
}
