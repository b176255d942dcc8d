//! Property tests for the virtual-time core profiler and the metrics
//! registry: the partition invariant under arbitrary probe
//! interleavings, and merge-equals-union for histograms, counters and
//! counter-track timelines.

use proptest::prelude::*;
use telemetry::profile::CoreProfile;
use telemetry::{CoreState, Histogram, Metrics};

/// The states a probe can report (idle is never reported, only derived).
const STATES: [CoreState; 4] =
    [CoreState::Working, CoreState::Progress, CoreState::LockWait, CoreState::Serialize];

/// Leaf labels (must be `&'static str`, like real probe sites).
const LABELS: [&str; 4] = ["task", "progress", "mpi.lock", "serialize"];

/// One synthetic probe record: base (scheduler-level) or overlay
/// (probe-level), on one of a few cores.
#[derive(Debug, Clone)]
struct Rec {
    base: bool,
    loc: usize,
    core: usize,
    state: CoreState,
    label: &'static str,
    start: u64,
    len: u64,
}

fn rec_strategy() -> impl Strategy<Value = Rec> {
    // The vendored proptest only implements `Strategy` for tuples up to
    // arity 5, so the discrete fields ride packed in one u32.
    (any::<u32>(), 0u64..10_000, 0u64..500).prop_map(|(bits, start, len)| Rec {
        base: bits & 1 == 1,
        loc: (bits >> 1) as usize & 1,
        core: (bits >> 2) as usize % 3,
        state: STATES[(bits >> 4) as usize % STATES.len()],
        label: LABELS[(bits >> 6) as usize % LABELS.len()],
        start,
        len,
    })
}

proptest! {
    /// THE profiler invariant: for any interleaving of base and overlay
    /// records — overlapping, out of order, duplicated, zero-length —
    /// every finalized core account partitions `[0, horizon]` exactly:
    /// the per-state durations sum to the elapsed virtual time, with no
    /// gap and no double counting.
    #[test]
    fn state_durations_partition_elapsed_time(
        recs in proptest::collection::vec(rec_strategy(), 0..80),
        extra_horizon in 0u64..1_000,
    ) {
        let mut p = CoreProfile::new();
        for r in &recs {
            if r.base {
                p.record_base(r.loc, r.core, r.state, r.label, r.start, r.start + r.len);
            } else {
                p.set_loc(r.loc);
                p.record_overlay_here(r.core, r.state, r.label, r.start, r.start + r.len);
            }
        }
        let horizon = p.horizon_ns() + extra_horizon;
        let mut snap = p.snapshot();
        for ((loc, core), acct) in &mut snap {
            acct.finalize(horizon);
            prop_assert!(
                acct.check_partition().is_ok(),
                "loc{loc}/core{core}: {:?}",
                acct.check_partition()
            );
            let sum: u64 = acct.state_table().iter().sum();
            prop_assert_eq!(sum, acct.elapsed_ns(), "loc{}/core{}", loc, core);
            prop_assert_eq!(acct.elapsed_ns(), horizon, "loc{}/core{}", loc, core);
            // The flamegraph leaves must re-partition the busy time.
            let leaf_sum: u64 = acct.leaves().map(|(_, _, ns)| ns).sum();
            prop_assert_eq!(leaf_sum, acct.busy_ns(), "loc{}/core{}", loc, core);
        }
    }

    /// Finalize is idempotent: a second finalize at the same horizon
    /// changes nothing.
    #[test]
    fn finalize_is_idempotent(
        recs in proptest::collection::vec(rec_strategy(), 0..40),
    ) {
        let mut p = CoreProfile::new();
        for r in &recs {
            if r.base {
                p.record_base(r.loc, r.core, r.state, r.label, r.start, r.start + r.len);
            } else {
                p.set_loc(r.loc);
                p.record_overlay_here(r.core, r.state, r.label, r.start, r.start + r.len);
            }
        }
        let horizon = p.horizon_ns();
        let mut snap = p.snapshot();
        for acct in snap.values_mut() {
            let before = acct.state_table();
            acct.finalize(horizon);
            prop_assert_eq!(before, acct.state_table());
        }
    }

    /// `Metrics::merge` must be indistinguishable from one store that
    /// recorded the union of both streams: counter and histogram windows
    /// fold window by window, and counter-track timelines interleave into
    /// the same time-ordered multiset of samples.
    #[test]
    fn merged_metrics_equal_union(
        xs in proptest::collection::vec((0usize..3, 0u64..10_000), 0..60),
        ys in proptest::collection::vec((0usize..3, 0u64..10_000), 0..60),
    ) {
        const KEYS: [&str; 3] = ["k.a", "k.b", "k.c"];
        let mut a = Metrics::windowed(1_000);
        let mut b = Metrics::windowed(1_000);
        let mut u = Metrics::windowed(1_000);
        for &(ki, v) in &xs {
            a.counter_add(KEYS[ki], v, v);
            u.counter_add(KEYS[ki], v, v);
            a.hist_record(KEYS[ki], v, v);
            u.hist_record(KEYS[ki], v, v);
            a.track_sample(KEYS[ki], v, v as f64);
            u.track_sample(KEYS[ki], v, v as f64);
        }
        for &(ki, v) in &ys {
            b.counter_add(KEYS[ki], v, v);
            u.counter_add(KEYS[ki], v, v);
            b.hist_record(KEYS[ki], v, v);
            u.hist_record(KEYS[ki], v, v);
            b.track_sample(KEYS[ki], v, v as f64);
            u.track_sample(KEYS[ki], v, v as f64);
        }
        a.merge(&b);
        for k in KEYS {
            prop_assert_eq!(a.counter(k), u.counter(k));
            prop_assert_eq!(a.counter_windows().get(k), u.counter_windows().get(k));
            prop_assert_eq!(a.hist_windows().get(k), u.hist_windows().get(k));
            match (a.hist(k), u.hist(k)) {
                (None, None) => {}
                (Some(ha), Some(hu)) => prop_assert_eq!(ha, hu),
                other => prop_assert!(false, "hist presence mismatch for {}: {:?}", k, other),
            }
            // Track timelines: same time-ordered multiset of samples.
            let mut ta: Vec<_> = a.track(k).unwrap_or(&[]).to_vec();
            let mut tu: Vec<_> = u.track(k).unwrap_or(&[]).to_vec();
            ta.sort_by(|x, y| x.partial_cmp(y).unwrap());
            tu.sort_by(|x, y| x.partial_cmp(y).unwrap());
            prop_assert_eq!(ta, tu);
        }
    }

    /// Histogram merge is associative with respect to the union stream
    /// regardless of how samples are split into three registries.
    #[test]
    fn hist_merge_order_independent(
        xs in proptest::collection::vec(any::<u64>(), 0..60),
        splits in proptest::collection::vec(0usize..3, 0..60),
    ) {
        let mut parts = [Histogram::new(), Histogram::new(), Histogram::new()];
        let mut u = Histogram::new();
        for (i, &v) in xs.iter().enumerate() {
            let which = splits.get(i).copied().unwrap_or(0);
            parts[which].record(v);
            u.record(v);
        }
        // (p0 + p1) + p2 and p0 + (p1 + p2) must both equal the union.
        let mut left = parts[0].clone();
        left.merge(&parts[1]);
        left.merge(&parts[2]);
        let mut right = parts[1].clone();
        right.merge(&parts[2]);
        let mut right_total = parts[0].clone();
        right_total.merge(&right);
        prop_assert_eq!(&left, &u);
        prop_assert_eq!(&right_total, &u);
    }
}
