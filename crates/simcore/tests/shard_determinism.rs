//! Sharding must be unobservable: any workload run on 1 shard, on N
//! shards sequentially, or on N shards with real OS threads has to
//! produce the identical canonical event ordering, digest, and per-actor
//! history. This is the parallel-engine counterpart of
//! `queue_determinism.rs` — instead of comparing one heap against a
//! reference heap, it compares *placements* of the same workload against
//! each other under arbitrary schedule / cancel / reschedule / send
//! programs.
//!
//! The engine's invariant under test (see `simcore::shard` docs): events
//! are keyed `(time, scheduling lane, per-lane seq)`, cross-lane sends
//! always pay the lookahead, so the canonical order never depends on how
//! lanes map to shards or on thread scheduling.

use std::any::Any;

use proptest::collection::vec;
use proptest::prelude::*;
use simcore::{LaneCtx, LaneId, RunMode, ShardActor, ShardEventId, ShardedSim, SimTime};

const LOOKAHEAD: u64 = 100;

/// A deterministic self-driving actor: every event advances a private
/// xorshift RNG and performs one pseudo-random action (local schedule,
/// cross-lane send, cancel, reschedule). The action stream depends only
/// on the actor's seed and its own event history — never on placement —
/// which is exactly what a correct engine must preserve.
struct Worker {
    lanes: Vec<LaneId>,
    rng: u64,
    /// Events this actor may still create (terminates the run).
    budget: u32,
    pending: Vec<ShardEventId>,
    /// Everything observed: `(virtual time, arg)` per delivered event.
    history: Vec<(u64, u64)>,
}

impl Worker {
    fn new(seed: u64, lane: u32, budget: u32, lanes: Vec<LaneId>) -> Self {
        Worker {
            lanes,
            rng: seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(lane as u64 + 1)),
            budget,
            pending: Vec::new(),
            history: Vec::new(),
        }
    }

    fn next(&mut self) -> u64 {
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        self.rng
    }
}

impl ShardActor for Worker {
    fn on_event(&mut self, ctx: &mut LaneCtx<'_>, arg: u64) {
        self.history.push((ctx.now().as_nanos(), arg));
        // Up to two actions per event keeps the run lively but finite.
        for _ in 0..2 {
            if self.budget == 0 {
                break;
            }
            let r = self.next();
            match r % 5 {
                0 | 1 => {
                    // Local schedule, possibly at `now` (ties exercise the
                    // canonical key ordering).
                    self.budget -= 1;
                    let id = ctx.schedule_in(r >> 8 & 63, r);
                    self.pending.push(id);
                }
                2 => {
                    // Cross-lane send at exactly lookahead + jitter.
                    self.budget -= 1;
                    let peer = self.lanes[(r as usize >> 16) % self.lanes.len()];
                    let at = ctx.now() + ctx.lookahead() + (r >> 8 & 31);
                    ctx.send(peer, at, r);
                }
                3 => {
                    if !self.pending.is_empty() {
                        let i = (r as usize >> 16) % self.pending.len();
                        let id = self.pending.swap_remove(i);
                        ctx.cancel(id); // false on stale handles: fine
                    }
                }
                _ => {
                    if !self.pending.is_empty() {
                        let i = (r as usize >> 16) % self.pending.len();
                        let at = ctx.now() + (r >> 8 & 127);
                        ctx.reschedule(self.pending[i], at);
                    }
                }
            }
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Outcome of one placement: canonical digest plus per-lane histories —
/// everything an observer could compare.
struct Outcome {
    digest: u64,
    executed: u64,
    end_ns: u64,
    histories: Vec<Vec<(u64, u64)>>,
}

/// Run the seeded workload with `n_lanes` actors placed round-robin over
/// `shards` shards.
fn run_workload(seed: u64, n_lanes: usize, budget: u32, shards: usize, threaded: bool) -> Outcome {
    let mut sim = ShardedSim::new(shards, LOOKAHEAD);
    sim.set_exec_capture(true);
    let lanes: Vec<LaneId> = (0..n_lanes as u32).map(LaneId).collect();
    for lane in 0..n_lanes {
        let w = Worker::new(seed, lane as u32, budget, lanes.clone());
        let got = sim.add_actor(lane % shards, Box::new(w));
        assert_eq!(got, lanes[lane]);
    }
    for &lane in &lanes {
        sim.seed(lane, SimTime::from_nanos(lane.0 as u64 % 3), lane.0 as u64);
    }
    let report = sim.run(Some(if threaded { RunMode::Threaded } else { RunMode::Sequential }));
    assert_eq!(sim.events_pending(), 0, "run must drain every event");
    Outcome {
        digest: sim.digest(),
        executed: report.executed,
        end_ns: report.end.as_nanos(),
        histories: lanes
            .iter()
            .map(|&l| sim.actor::<Worker>(l).expect("worker present").history.clone())
            .collect(),
    }
}

fn assert_same(a: &Outcome, b: &Outcome, what: &str) {
    assert_eq!(a.executed, b.executed, "{what}: executed count diverged");
    assert_eq!(a.end_ns, b.end_ns, "{what}: makespan diverged");
    assert_eq!(a.digest, b.digest, "{what}: canonical digest diverged");
    assert_eq!(a.histories, b.histories, "{what}: per-actor histories diverged");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary workloads: 1 shard vs N shards (sequential) vs N shards
    /// (threaded) are indistinguishable.
    #[test]
    fn sharding_is_unobservable(
        seed in any::<u64>(),
        n_lanes in 1usize..6,
        budget in 1u32..40,
        shards in 2usize..5,
        extra in vec(any::<u64>(), 0..4),
    ) {
        // Fold optional entropy into the seed so shrinking explores
        // structurally different workloads, not just smaller ones.
        let seed = extra.iter().fold(seed, |s, e| s.rotate_left(9) ^ e);
        let one = run_workload(seed, n_lanes, budget, 1, false);
        prop_assert!(one.executed >= n_lanes as u64, "every seed event runs");
        let n_seq = run_workload(seed, n_lanes, budget, shards, false);
        assert_same(&one, &n_seq, "1 shard vs N shards sequential");
        let n_thr = run_workload(seed, n_lanes, budget, shards, true);
        assert_same(&one, &n_thr, "1 shard vs N shards threaded");
    }
}

/// CI hook: `SHARDS=k cargo test -p simcore --test shard_determinism`
/// pins a fixed, larger workload at a configurable shard count against
/// its 1-shard canonical run (the workflow exercises k = 2 and 4).
#[test]
fn fixed_workload_matches_at_env_shard_count() {
    let shards: usize = std::env::var("SHARDS").ok().and_then(|s| s.parse().ok()).unwrap_or(2);
    assert!(shards >= 1, "SHARDS must be >= 1");
    let one = run_workload(0xDEAD_BEEF_CAFE_F00D, 8, 120, 1, false);
    let n_seq = run_workload(0xDEAD_BEEF_CAFE_F00D, 8, 120, shards, false);
    assert_same(&one, &n_seq, "sequential at SHARDS");
    let n_thr = run_workload(0xDEAD_BEEF_CAFE_F00D, 8, 120, shards, true);
    assert_same(&one, &n_thr, "threaded at SHARDS");
    assert!(one.executed > 500, "fixed workload should be non-trivial, got {}", one.executed);
}
