//! The message-rate microbenchmark (§4.1; Figs. 1–6).

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use amt::action::ActionRegistry;
use bytes::Bytes;
use netsim::WireModel;
use parcelport::{Engine, PpConfig, WorldConfig};
use simcore::SimTime;

/// Parameters of one message-rate run.
#[derive(Debug, Clone)]
pub struct MsgRateParams {
    /// Parcelport configuration (Table-1 name).
    pub config: PpConfig,
    /// Cores per locality.
    pub cores: usize,
    /// Wire model.
    pub wire: WireModel,
    /// Message (action payload) size in bytes.
    pub msg_size: usize,
    /// Messages injected by one task.
    pub batch: usize,
    /// Total messages for the run.
    pub total_msgs: usize,
    /// Attempted injection rate in messages/second; `None` = unlimited.
    pub inject_rate: Option<f64>,
    /// RNG seed.
    pub seed: u64,
    /// LCI devices per locality (1 = the paper's configuration).
    pub devices: usize,
    /// Cost model; the calibrated one by default (what-if re-runs dial
    /// it).
    pub cost: simcore::CostModel,
    /// The event engine the run uses.
    pub engine: Engine,
}

impl MsgRateParams {
    /// Paper defaults for the 8-byte experiment (batch 100, 500 K msgs).
    pub fn small(config: PpConfig) -> Self {
        MsgRateParams {
            config,
            cores: 32,
            wire: WireModel::expanse(),
            msg_size: 8,
            batch: 100,
            total_msgs: 500_000,
            inject_rate: None,
            seed: 1,
            devices: 1,
            cost: simcore::CostModel::default(),
            engine: Engine::SingleHeap,
        }
    }

    /// Paper defaults for the 16-KiB experiment (batch 10, 100 K msgs).
    pub fn large(config: PpConfig) -> Self {
        MsgRateParams {
            config,
            cores: 32,
            wire: WireModel::expanse(),
            msg_size: 16 * 1024,
            batch: 10,
            total_msgs: 100_000,
            inject_rate: None,
            seed: 1,
            devices: 1,
            cost: simcore::CostModel::default(),
            engine: Engine::SingleHeap,
        }
    }
}

/// Result of one message-rate run.
#[derive(Debug, Clone, Copy)]
pub struct MsgRateResult {
    /// Messages handed to the parcelport per second.
    pub achieved_injection_rate: f64,
    /// Messages fully received per second.
    pub msg_rate: f64,
    /// Virtual time when injection finished.
    pub injection_done: SimTime,
    /// Virtual time when the receiver saw the last message.
    pub comm_done: SimTime,
    /// Whether the run completed before the safety deadline.
    pub completed: bool,
    /// Engine events executed during the run — paired with wall-clock
    /// measurement by `engine_throughput` for the perf trajectory.
    pub events_executed: u64,
}

/// Run the message-rate benchmark once, on `p.engine`. Completion
/// counters live in atomics, because federated lanes may run on
/// different threads. The single heap stops at the last delivery or at a
/// safety deadline; the federated world runs to quiescence.
pub fn run_msgrate(p: &MsgRateParams) -> MsgRateResult {
    let received = Arc::new(AtomicUsize::new(0));
    let recv_done_at = Arc::new(AtomicU64::new(0));
    let injected_done_at = Arc::new(AtomicU64::new(0));
    let expect = p.total_msgs;
    let dispatch = 150u64; // per-message receiver work, ns

    let mut wcfg = WorldConfig::two_nodes(p.config, p.cores);
    wcfg.wire = p.wire.clone();
    wcfg.seed = p.seed;
    wcfg.lci_devices = p.devices;
    wcfg.cost = p.cost.clone();

    let tasks = p.total_msgs / p.batch;
    let interval_ns = p.inject_rate.map(|r| (p.batch as f64 / r * 1e9) as u64);
    let batch = p.batch;
    let msg_size = p.msg_size;

    let setup_received = received.clone();
    let setup_recv_done = recv_done_at.clone();
    let seed_injected_done = injected_done_at.clone();
    let mut world = p.engine.build(
        &wcfg,
        move |_rank| {
            let mut registry = ActionRegistry::new();
            let received = setup_received.clone();
            let recv_done_at = setup_recv_done.clone();
            registry.register("sink", move |sim, loc, core, _parcel| {
                let n = received.fetch_add(1, Ordering::Relaxed) + 1;
                let t = sim.now() + dispatch;
                if n == expect {
                    recv_done_at.fetch_max(t.as_nanos(), Ordering::Relaxed);
                    // Signal back to the sender with one short message.
                    let done = loc.with_registry(|r| r.id_of("done").expect("registered"));
                    loc.send_action(sim, core, 0, done, vec![Bytes::from_static(b"!")]);
                }
                t
            });
            registry.register("done", move |sim, _loc, _core, _p| sim.now());
            registry.into()
        },
        move |rank, sim, loc| {
            // Injector: one task per batch on locality 0, created at the
            // attempted rate.
            if rank != 0 {
                return;
            }
            let sink = loc.with_registry(|r| r.id_of("sink").expect("registered"));
            // One payload allocation for the whole run: every message
            // clones the handle (a refcount bump), exactly like a real
            // sender reusing a registered buffer. Keeps the steady-state
            // injector allocation-light.
            let payload = Bytes::from(vec![0u8; msg_size]);
            for i in 0..tasks {
                let at = interval_ns.map_or(SimTime::ZERO, |iv| SimTime::from_nanos(iv * i as u64));
                let loc = loc.clone();
                let injected_done_at = seed_injected_done.clone();
                let payload = payload.clone();
                sim.schedule_at(at, move |sim| {
                    let injected_done_at = injected_done_at.clone();
                    let loc2 = loc.clone();
                    let payload = payload.clone();
                    loc2.spawn(
                        sim,
                        0,
                        Box::new(move |sim, loc, core| {
                            let mut t = sim.now();
                            for _ in 0..batch {
                                t = loc.send_action(sim, core, 1, sink, vec![payload.clone()]);
                            }
                            injected_done_at.fetch_max(t.as_nanos(), Ordering::Relaxed);
                            t
                        }),
                    );
                });
            }
        },
    );

    // Safety deadline: generous multiple of the ideal time.
    let ideal_ns = interval_ns.map_or(0, |iv| iv * tasks as u64);
    let deadline = 60_000_000_000u64.max(ideal_ns * 4);
    let done = world.run(deadline, |_| received.load(Ordering::Relaxed) < expect);

    let inj_t = SimTime::from_nanos(injected_done_at.load(Ordering::Relaxed));
    let comm_t = SimTime::from_nanos(recv_done_at.load(Ordering::Relaxed)).max(inj_t);
    let inj_rate =
        if inj_t > SimTime::ZERO { p.total_msgs as f64 / inj_t.as_secs_f64() } else { 0.0 };
    let msg_rate = if done && comm_t > SimTime::ZERO {
        p.total_msgs as f64 / comm_t.as_secs_f64()
    } else if comm_t > SimTime::ZERO {
        received.load(Ordering::Relaxed) as f64 / world.now().as_secs_f64()
    } else {
        0.0
    };
    if std::env::var("MSGRATE_DUMP").is_ok() {
        if let Some(w) = world.single_heap() {
            eprintln!("--- sim stats ({}) ---", p.config);
            eprintln!("{}", w.sim.stats);
        }
    }
    MsgRateResult {
        achieved_injection_rate: inj_rate,
        msg_rate,
        injection_done: inj_t,
        comm_done: comm_t,
        completed: done,
        events_executed: world.events_executed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(config: &str, size: usize) -> MsgRateResult {
        let mut p = if size <= 64 {
            MsgRateParams::small(config.parse().unwrap())
        } else {
            MsgRateParams::large(config.parse().unwrap())
        };
        p.total_msgs = 2_000;
        p.batch = 50;
        p.cores = 8;
        run_msgrate(&p)
    }

    #[test]
    fn lci_baseline_completes_and_reports_rates() {
        let r = quick("lci_psr_cq_pin_i", 8);
        assert!(r.completed, "run must finish: {r:?}");
        assert!(r.msg_rate > 0.0);
        assert!(r.achieved_injection_rate >= r.msg_rate * 0.5);
    }

    #[test]
    fn mpi_completes() {
        let r = quick("mpi_i", 8);
        assert!(r.completed, "{r:?}");
        assert!(r.msg_rate > 0.0);
    }

    #[test]
    fn sharded_matches_single_heap_results() {
        use simcore::shard::RunMode;
        let mut p = MsgRateParams::small("lci_psr_cq_pin_i".parse().unwrap());
        p.total_msgs = 2_000;
        p.batch = 50;
        p.cores = 8;
        let mut legacy = None;
        for engine in [
            Engine::SingleHeap,
            Engine::Federated { shards: 1, mode: Some(RunMode::Sequential) },
            Engine::Federated { shards: 2, mode: Some(RunMode::Sequential) },
            Engine::Federated { shards: 2, mode: Some(RunMode::Threaded) },
        ] {
            p.engine = engine;
            let r = run_msgrate(&p);
            assert!(r.completed, "{engine:?}: {r:?}");
            let legacy: &MsgRateResult = legacy.get_or_insert(r);
            assert_eq!(
                r.comm_done, legacy.comm_done,
                "{engine:?}: comm-done time diverged from single-heap world"
            );
            assert_eq!(r.injection_done, legacy.injection_done);
        }
    }

    #[test]
    fn rate_limited_injection_tracks_attempted_rate() {
        let mut p = MsgRateParams::small("lci_psr_cq_pin_i".parse().unwrap());
        p.total_msgs = 5_000;
        p.batch = 50;
        p.cores = 8;
        p.inject_rate = Some(50_000.0); // well below capacity
        let r = run_msgrate(&p);
        assert!(r.completed);
        let ratio = r.achieved_injection_rate / 50_000.0;
        assert!(
            (0.8..1.3).contains(&ratio),
            "achieved {} vs attempted 50K",
            r.achieved_injection_rate
        );
    }

    #[test]
    fn large_messages_complete() {
        let r = quick("lci_psr_cq_pin_i", 16 * 1024);
        assert!(r.completed, "{r:?}");
        assert!(r.msg_rate > 0.0);
    }
}
