//! Cross-shard mailbox stress: the offline stand-in for a ThreadSanitizer
//! job (tsan needs a nightly `-Zsanitizer` build and loom is not
//! vendored, neither is available in this container). Instead we drive
//! the real engine with real OS threads through a traffic pattern chosen
//! to maximize mailbox pressure — all-to-all sends, bursts landing at
//! identical timestamps, shards outnumbering cores — and require that
//! repeated threaded runs are bit-identical to each other and to the
//! sequential executor. A data race on the mailbox or barrier would show
//! up as a digest/ordering divergence (or a crash) across repetitions.

use std::any::Any;

use simcore::{LaneCtx, LaneId, RunMode, ShardActor, ShardedSim, SimTime};

const LOOKAHEAD: u64 = 50;

/// Flooder: every event fans out to *every* other lane, always at the
/// minimum legal distance (`now + lookahead`, zero jitter) so bursts from
/// different shards collide at identical timestamps and the deterministic
/// merge rule has to arbitrate constantly.
struct Flooder {
    lanes: Vec<LaneId>,
    budget: u32,
    received: u64,
    checksum: u64,
}

impl ShardActor for Flooder {
    fn on_event(&mut self, ctx: &mut LaneCtx<'_>, arg: u64) {
        self.received += 1;
        // Order-sensitive accumulator: any reordering of this lane's
        // delivery stream changes the value.
        self.checksum = self
            .checksum
            .rotate_left(7)
            .wrapping_add(arg ^ ctx.now().as_nanos())
            .wrapping_mul(0x100000001B3);
        if self.budget == 0 {
            return;
        }
        self.budget -= 1;
        let me = ctx.lane();
        let at = ctx.now() + ctx.lookahead();
        for &peer in &self.lanes {
            if peer != me {
                ctx.send(peer, at, arg.wrapping_add(peer.0 as u64) ^ self.received);
            }
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// `(digest, executed, per-lane (received, checksum))` of one run.
fn flood(shards: usize, threaded: bool) -> (u64, u64, Vec<(u64, u64)>) {
    const N_LANES: usize = 16;
    let mut sim = ShardedSim::new(shards, LOOKAHEAD);
    sim.set_exec_capture(true);
    let lanes: Vec<LaneId> = (0..N_LANES as u32).map(LaneId).collect();
    for lane in 0..N_LANES {
        sim.add_actor(
            lane % shards,
            Box::new(Flooder { lanes: lanes.clone(), budget: 6, received: 0, checksum: 0 }),
        );
    }
    // Every lane seeded at the same instant: the very first epoch is
    // already an all-to-all mailbox storm.
    for &lane in &lanes {
        sim.seed(lane, SimTime::ZERO, lane.0 as u64);
    }
    let report = sim.run(Some(if threaded { RunMode::Threaded } else { RunMode::Sequential }));
    let per_lane = lanes
        .iter()
        .map(|&l| {
            let f = sim.actor::<Flooder>(l).expect("flooder present");
            (f.received, f.checksum)
        })
        .collect();
    (sim.digest(), report.executed, per_lane)
}

#[test]
fn threaded_floods_are_reproducible_and_match_sequential() {
    for &shards in &[2usize, 4, 8] {
        let baseline = flood(shards, false);
        assert!(baseline.1 > 1_000, "{shards} shards: flood too small ({} events)", baseline.1);
        // More repetitions than cores: exercises both the contended and
        // the oversubscribed (shards > cores) barrier paths.
        for rep in 0..5 {
            let run = flood(shards, true);
            assert_eq!(
                run.0, baseline.0,
                "{shards} shards, rep {rep}: threaded digest diverged from sequential"
            );
            assert_eq!(run.1, baseline.1, "{shards} shards, rep {rep}: executed count diverged");
            assert_eq!(run.2, baseline.2, "{shards} shards, rep {rep}: per-lane streams diverged");
        }
    }
}

#[test]
fn shard_counts_agree_with_each_other() {
    let one = flood(1, false);
    for &shards in &[2usize, 3, 5, 16] {
        let n = flood(shards, false);
        assert_eq!(n.0, one.0, "{shards} shards: digest diverged from 1-shard run");
        assert_eq!(n.2, one.2, "{shards} shards: per-lane streams diverged from 1-shard run");
    }
}
