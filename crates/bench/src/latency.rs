//! The multi-message ping-pong latency microbenchmark (§4.2; Figs. 7–9).
//!
//! `window` chains of tasks alternate between the two localities for
//! `steps` iterations; every "ping" and every "pong" is performed by a
//! different HPX task (the receiving action spawns the reply). One-way
//! latency = total time / (2 × steps).

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use amt::action::ActionRegistry;
use bytes::Bytes;
use netsim::WireModel;
use parcelport::{Engine, PpConfig, WorldConfig};
use simcore::SimTime;

/// Parameters of one latency run.
#[derive(Debug, Clone)]
pub struct LatencyParams {
    /// Parcelport configuration.
    pub config: PpConfig,
    /// Cores per locality.
    pub cores: usize,
    /// Wire model.
    pub wire: WireModel,
    /// Message size in bytes.
    pub msg_size: usize,
    /// Number of concurrent ping-pong chains.
    pub window: usize,
    /// Ping-pong iterations per chain.
    pub steps: usize,
    /// RNG seed.
    pub seed: u64,
    /// Cost model; the calibrated one by default (what-if re-runs dial
    /// it).
    pub cost: simcore::CostModel,
    /// The event engine the run uses.
    pub engine: Engine,
}

impl LatencyParams {
    /// Paper-style defaults: window 1, 1000 steps on Expanse.
    pub fn new(config: PpConfig, msg_size: usize) -> Self {
        LatencyParams {
            config,
            cores: 32,
            wire: WireModel::expanse(),
            msg_size,
            window: 1,
            steps: 1_000,
            seed: 1,
            cost: simcore::CostModel::default(),
            engine: Engine::SingleHeap,
        }
    }
}

/// Result of one latency run.
#[derive(Debug, Clone, Copy)]
pub struct LatencyResult {
    /// One-way latency in microseconds.
    pub one_way_us: f64,
    /// Total virtual time of the run.
    pub total: SimTime,
    /// Whether all chains finished before the safety deadline.
    pub completed: bool,
}

/// Run the latency benchmark once, on `p.engine`. Chain-completion
/// counters live in atomics, because federated lanes may run on different
/// threads. The single heap stops when the last chain finishes or at a
/// safety deadline; the federated world runs to quiescence.
pub fn run_latency(p: &LatencyParams) -> LatencyResult {
    let chains_done = Arc::new(AtomicUsize::new(0));
    let finish_at = Arc::new(AtomicU64::new(0));
    let steps = p.steps;
    let window = p.window;

    let mut wcfg = WorldConfig::two_nodes(p.config, p.cores);
    wcfg.wire = p.wire.clone();
    wcfg.seed = p.seed;
    wcfg.cost = p.cost.clone();

    // Each message carries its chain id and remaining hop count in the
    // first 16 bytes of the payload (the rest is filler to reach
    // msg_size). The "ping" action decodes, and spawns the reply task.
    let payload_size = p.msg_size.max(16);
    let setup_done = chains_done.clone();
    let setup_finish = finish_at.clone();
    let mut world = p.engine.build(
        &wcfg,
        move |_rank| {
            let mut registry = ActionRegistry::new();
            let chains_done = setup_done.clone();
            let finish_at = setup_finish.clone();
            registry.register("ping", move |sim, loc, core, parcel| {
                let data = &parcel.args[0];
                let chain = u64::from_le_bytes(data[0..8].try_into().expect("chain id"));
                let hops = u64::from_le_bytes(data[8..16].try_into().expect("hops"));
                let t = sim.now() + 100; // minimal handler work
                if hops == 0 {
                    chains_done.fetch_add(1, Ordering::Relaxed);
                    finish_at.fetch_max(t.as_nanos(), Ordering::Relaxed);
                    return t;
                }
                // Reply from a fresh task, as in the paper's benchmark.
                let me = loc.id;
                let peer = 1 - me;
                let size = data.len();
                let ping = loc.with_registry(|r| r.id_of("ping").expect("registered"));
                loc.spawn(
                    sim,
                    core,
                    Box::new(move |sim, loc, core| {
                        let mut payload = vec![0u8; size];
                        payload[0..8].copy_from_slice(&chain.to_le_bytes());
                        payload[8..16].copy_from_slice(&(hops - 1).to_le_bytes());
                        loc.send_action(sim, core, peer, ping, vec![Bytes::from(payload)])
                    }),
                );
                t
            });
            registry.into()
        },
        move |rank, sim, loc| {
            // Kick off the chains: total hops per chain = 2*steps (there
            // and back counts as two), ending back at the sender.
            if rank != 0 {
                return;
            }
            let ping = loc.with_registry(|r| r.id_of("ping").expect("registered"));
            for chain in 0..window as u64 {
                let size = payload_size;
                let hops = (2 * steps - 1) as u64;
                loc.spawn(
                    sim,
                    0,
                    Box::new(move |sim, loc, core| {
                        let mut payload = vec![0u8; size];
                        payload[0..8].copy_from_slice(&chain.to_le_bytes());
                        payload[8..16].copy_from_slice(&hops.to_le_bytes());
                        loc.send_action(sim, core, 1, ping, vec![Bytes::from(payload)])
                    }),
                );
            }
        },
    );

    let completed = world.run(120_000_000_000, |_| chains_done.load(Ordering::Relaxed) < window);
    let total = SimTime::from_nanos(finish_at.load(Ordering::Relaxed));
    let one_way_us = total.as_micros_f64() / (2.0 * steps as f64);
    LatencyResult { one_way_us, total, completed }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(config: &str, size: usize, window: usize) -> LatencyResult {
        let mut p = LatencyParams::new(config.parse().unwrap(), size);
        p.steps = 50;
        p.window = window;
        p.cores = 8;
        run_latency(&p)
    }

    #[test]
    fn small_message_latency_is_physical() {
        let r = quick("lci_psr_cq_pin_i", 8, 1);
        assert!(r.completed, "{r:?}");
        // Must be at least the wire latency (1us) and within software reach.
        assert!(r.one_way_us >= 1.0, "one-way {}us below wire latency", r.one_way_us);
        assert!(r.one_way_us < 100.0, "one-way {}us implausibly slow", r.one_way_us);
    }

    #[test]
    fn mpi_latency_completes() {
        let r = quick("mpi_i", 8, 1);
        assert!(r.completed, "{r:?}");
        assert!(r.one_way_us >= 1.0);
    }

    #[test]
    fn larger_messages_take_longer() {
        let small = quick("lci_psr_cq_pin_i", 8, 1);
        let big = quick("lci_psr_cq_pin_i", 64 * 1024, 1);
        assert!(big.one_way_us > small.one_way_us, "{} !> {}", big.one_way_us, small.one_way_us);
    }

    #[test]
    fn windowed_run_completes_all_chains() {
        let r = quick("lci_psr_cq_pin_i", 8, 8);
        assert!(r.completed, "{r:?}");
    }

    #[test]
    fn sharded_matches_single_heap_results() {
        use simcore::shard::RunMode;
        let mut p = LatencyParams::new("lci_psr_cq_pin_i".parse().unwrap(), 8);
        p.steps = 50;
        p.window = 8;
        p.cores = 8;
        let mut legacy = None;
        for engine in [
            Engine::SingleHeap,
            Engine::Federated { shards: 1, mode: Some(RunMode::Sequential) },
            Engine::Federated { shards: 2, mode: Some(RunMode::Sequential) },
            Engine::Federated { shards: 2, mode: Some(RunMode::Threaded) },
        ] {
            p.engine = engine;
            let r = run_latency(&p);
            assert!(r.completed, "{engine:?}: {r:?}");
            let legacy: &LatencyResult = legacy.get_or_insert(r);
            assert_eq!(
                r.total, legacy.total,
                "{engine:?}: finish time diverged from single-heap world"
            );
        }
    }
}
