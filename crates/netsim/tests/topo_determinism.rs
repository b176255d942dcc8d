//! Sharding must stay unobservable when the lookahead comes from a
//! switched topology: lanes are the hosts of a k=4 fat-tree, cross-lane
//! sends arrive after the *static path latency* between the two hosts
//! (always >= the fabric's first-hop lookahead), and 1/2/4-shard
//! sequential and threaded placements must produce bit-identical
//! canonical digests and per-actor histories.
//!
//! This is the topology-flavoured companion of simcore's
//! `shard_determinism.rs`: same engine invariant, but the lookahead and
//! the cross-lane delays are now derived from a real interconnect model
//! instead of a uniform constant.

use std::any::Any;

use netsim::topo::fattree::FatTreeParams;
use netsim::WireModel;
use proptest::prelude::*;
use simcore::{LaneCtx, LaneId, RunMode, ShardActor, ShardedSim, SimTime};

/// Zero-load fat-tree path latencies for every (src, dst) host pair, plus
/// the fabric's advertised lookahead. Pure precomputation — the live port
/// state is not touched, so every placement sees the same matrix.
fn latency_matrix(payload: usize) -> (Vec<Vec<u64>>, u64) {
    let fab = FatTreeParams::new(4).build();
    let model = WireModel::expanse();
    let hosts = fab.graph().hosts();
    let lat = (0..hosts)
        .map(|src| {
            (0..hosts)
                .map(|dst| {
                    if src == dst {
                        0
                    } else {
                        fab.static_path_latency(src, dst, payload, &model)
                    }
                })
                .collect()
        })
        .collect();
    (lat, fab.min_first_hop_latency())
}

struct HostActor {
    me: usize,
    lat: Vec<u64>,
    lanes: usize,
    rng: u64,
    budget: u32,
    history: Vec<(u64, u64)>,
}

impl HostActor {
    fn next(&mut self) -> u64 {
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        self.rng
    }
}

impl ShardActor for HostActor {
    fn on_event(&mut self, ctx: &mut LaneCtx<'_>, arg: u64) {
        self.history.push((ctx.now().as_nanos(), arg));
        for _ in 0..2 {
            if self.budget == 0 {
                break;
            }
            self.budget -= 1;
            let r = self.next();
            let dst = (r as usize >> 8) % self.lanes;
            if dst == self.me {
                // Local work: schedule at a small offset.
                ctx.schedule_in(r >> 32 & 63, r);
            } else {
                // Cross-lane parcel: arrives after the fat-tree path
                // latency, which the engine requires to be >= lookahead.
                let delay = self.lat[dst];
                assert!(delay >= ctx.lookahead(), "path latency undercuts lookahead");
                ctx.send(LaneId(dst as u32), ctx.now() + delay, r);
            }
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

struct Outcome {
    digest: u64,
    executed: u64,
    end_ns: u64,
    histories: Vec<Vec<(u64, u64)>>,
}

fn run_workload(seed: u64, budget: u32, shards: usize, threaded: bool) -> Outcome {
    let (lat, lookahead) = latency_matrix(64);
    let hosts = lat.len();
    let mut sim = ShardedSim::new(shards, lookahead);
    sim.set_exec_capture(true);
    for (host, row) in lat.into_iter().enumerate() {
        let actor = HostActor {
            me: host,
            lat: row,
            lanes: hosts,
            rng: seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(host as u64 + 1)),
            budget,
            history: Vec::new(),
        };
        sim.add_actor(host % shards, Box::new(actor));
    }
    for host in 0..hosts {
        sim.seed(LaneId(host as u32), SimTime::from_nanos(host as u64 % 5), host as u64);
    }
    let report = sim.run(Some(if threaded { RunMode::Threaded } else { RunMode::Sequential }));
    assert_eq!(sim.events_pending(), 0);
    Outcome {
        digest: sim.digest(),
        executed: report.executed,
        end_ns: report.end.as_nanos(),
        histories: (0..hosts)
            .map(|h| sim.actor::<HostActor>(LaneId(h as u32)).unwrap().history.clone())
            .collect(),
    }
}

fn assert_same(a: &Outcome, b: &Outcome, what: &str) {
    assert_eq!(a.executed, b.executed, "{what}: executed diverged");
    assert_eq!(a.end_ns, b.end_ns, "{what}: makespan diverged");
    assert_eq!(a.digest, b.digest, "{what}: digest diverged");
    assert_eq!(a.histories, b.histories, "{what}: histories diverged");
}

#[test]
fn fat_tree_lookahead_is_positive_and_bounds_paths() {
    let (lat, lookahead) = latency_matrix(64);
    assert!(lookahead > 0, "a switched topology must offer real lookahead");
    for (src, row) in lat.iter().enumerate() {
        for (dst, &l) in row.iter().enumerate() {
            if src != dst {
                assert!(l >= lookahead, "{src}->{dst}: {l} < {lookahead}");
            }
        }
    }
}

#[test]
fn fixed_fat_tree_workload_is_placement_invariant() {
    let one = run_workload(0xFA77_4EE5u64, 40, 1, false);
    assert!(one.executed > 100, "workload should be non-trivial");
    for shards in [2usize, 4] {
        let seq = run_workload(0xFA77_4EE5u64, 40, shards, false);
        assert_same(&one, &seq, "sequential");
        let thr = run_workload(0xFA77_4EE5u64, 40, shards, true);
        assert_same(&one, &thr, "threaded");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Arbitrary seeds/budgets: 1-shard, 2/4-shard sequential and
    /// threaded runs over the fat-tree are bit-identical.
    #[test]
    fn fat_tree_sharding_is_unobservable(seed in any::<u64>(), budget in 1u32..24) {
        let one = run_workload(seed, budget, 1, false);
        for shards in [2usize, 4] {
            let seq = run_workload(seed, budget, shards, false);
            assert_same(&one, &seq, "sequential");
            let thr = run_workload(seed, budget, shards, true);
            assert_same(&one, &thr, "threaded");
        }
    }
}
