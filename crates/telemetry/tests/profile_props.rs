//! Property tests for the virtual-time core profiler and the metrics
//! registry: the partition invariant under arbitrary probe
//! interleavings, merge-equals-union for histograms, counters and
//! counter-track timelines, and counter tracks that decode bit for bit
//! to their samples, alone, merged and rebuilt from lanes.

use std::rc::Rc;

use proptest::prelude::*;
use telemetry::profile::CoreProfile;
use telemetry::{CoreState, Histogram, Metrics, Telemetry, Track};

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

/// A sample's time, drawn from `bits` near `prev` or at an edge: tracks
/// take samples stamped before the one before, at 0 and at `u64::MAX`.
fn draw_time(bits: u64, prev: u64) -> u64 {
    match bits % 6 {
        0 | 1 => prev.wrapping_add(bits >> 40),
        2 => prev.wrapping_sub(bits >> 48),
        3 => 0,
        4 => u64::MAX,
        _ => bits,
    }
}

/// A sample's value, drawn from `bits`: small integers, integers at and
/// past ±2^53, fractions, NaNs with payloads, ±inf, ±0 and any bits.
fn draw_value(bits: u64) -> f64 {
    const P53: i64 = 1 << 53;
    let k = (bits >> 8) as i64 % 4;
    match bits % 12 {
        0 => (bits >> 32) as i64 as f64 % 1_000.0,
        1 => (P53 - k) as f64,
        2 => (-P53 + k) as f64,
        3 => (P53 + 2 * k) as f64,
        4 => -((P53 + 2 * k) as f64),
        5 => (bits >> 11) as f64 / 1e3,
        6 => f64::from_bits(0x7ff0_0000_0000_0000 | (bits >> 13).max(1)),
        7 => [f64::INFINITY, f64::NEG_INFINITY, -0.0, 0.0][k as usize],
        8 => f64::from_bits(bits.rotate_left(29)),
        9 => i64::MIN as f64,
        _ => (bits >> 40) as f64,
    }
}

/// Samples drawn from `raw`, one per element.
fn draw_samples(raw: &[(u64, u64)]) -> Vec<(u64, f64)> {
    let mut out: Vec<(u64, f64)> = Vec::with_capacity(raw.len());
    for &(tb, vb) in raw {
        let prev = out.last().map_or(0, |s| s.0);
        out.push((draw_time(tb, prev), draw_value(vb)));
    }
    out
}

/// `(t, value bits)` of every sample: equality here is bit for bit.
fn bits(samples: impl IntoIterator<Item = (u64, f64)>) -> Vec<(u64, u64)> {
    samples.into_iter().map(|(t, v)| (t, v.to_bits())).collect()
}

/// The reference merge of plain sample lists: concatenated in order,
/// then stably sorted by time.
fn reference_merge(parts: &[&[(u64, f64)]]) -> Vec<(u64, f64)> {
    let mut all: Vec<(u64, f64)> = parts.concat();
    all.sort_by_key(|&(t, _)| t);
    all
}

/// The reference rebuild of a cumulative track from per-lane running
/// values: each lane's increments, stably sorted by time across lanes
/// in lane order, summed again.
fn reference_cumulative(lanes: &[Vec<(u64, f64)>]) -> Vec<(u64, f64)> {
    let mut deltas = Vec::new();
    for lane in lanes {
        let mut prev = 0.0;
        for &(t, v) in lane {
            deltas.push((t, v - prev));
            prev = v;
        }
    }
    deltas.sort_by_key(|&(t, _)| t);
    let mut running = 0.0;
    deltas
        .into_iter()
        .map(|(t, d)| {
            (t, {
                running += d;
                running
            })
        })
        .collect()
}

#[test]
fn track_edge_values_round_trip_bit_for_bit() {
    const P53: f64 = (1u64 << 53) as f64;
    let times = [0, u64::MAX, 5, 3, u64::MAX - 1, 1 << 63, 0, 7];
    let values = [
        0.0,
        -0.0,
        P53,
        -P53,
        P53 + 2.0,
        -P53 - 2.0,
        P53 - 1.0,
        1.0 - P53,
        0.25,
        -1e-300,
        f64::NAN,
        -f64::NAN,
        f64::from_bits(0x7ff0_0000_0000_0001),
        f64::from_bits(0xfff8_dead_beef_0001),
        f64::INFINITY,
        f64::NEG_INFINITY,
        i64::MAX as f64,
        i64::MIN as f64,
        u64::MAX as f64,
        f64::MIN_POSITIVE,
        f64::MAX,
        42.0,
    ];
    let samples: Vec<(u64, f64)> =
        values.iter().enumerate().map(|(i, &v)| (times[i % times.len()], v)).collect();
    let track: Track = samples.iter().copied().collect();
    assert_eq!((track.len(), track.iter().len()), (samples.len(), samples.len()));
    assert_eq!(bits(&track), bits(samples.iter().copied()));
}

/// A track with a few samples, as most of a fabric's per-port tracks
/// hold, reserves no more than a `Vec<(u64, f64)>` of them does.
#[test]
fn a_few_sample_track_reserves_no_more_than_a_vec() {
    for n in 1..=40u64 {
        let mut track = Track::default();
        for k in 0..n {
            // A busy-time fraction, sampled at a port's wire-free time.
            track.push(3_000_000 + k * 1_237, (k * 1_237) as f64 / 1e3);
        }
        let vec_bytes = 16 * (n as usize).next_power_of_two().max(4);
        let (stored, reserved) = track.bytes();
        assert!(
            stored <= reserved && reserved <= vec_bytes,
            "{n} samples: {reserved} B > {vec_bytes} B"
        );
    }
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
        p.finalize();
        for ((loc, core), acct) in p.accounts() {
            let mut acct = acct.clone();
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
        p.finalize();
        for (_, acct) in p.accounts() {
            let mut again = acct.clone();
            again.finalize(horizon);
            prop_assert_eq!(acct.state_table(), again.state_table());
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
            let mut ta: Vec<_> = a.track(k).into_iter().flatten().collect();
            let mut tu: Vec<_> = u.track(k).into_iter().flatten().collect();
            ta.sort_by(|x, y| x.partial_cmp(y).unwrap());
            tu.sort_by(|x, y| x.partial_cmp(y).unwrap());
            prop_assert_eq!(ta, tu);
        }
    }

    /// Any samples — times out of order, at 0 and `u64::MAX`; integers
    /// near ±2^53, fractions, NaN payloads, ±inf, -0.0 — decode from a
    /// counter track bit for bit, in order.
    #[test]
    fn track_samples_round_trip_bit_for_bit(
        raw in proptest::collection::vec((any::<u64>(), any::<u64>()), 0..400),
    ) {
        let samples = draw_samples(&raw);
        let mut m = Metrics::new();
        for &(t, v) in &samples {
            m.track_sample("k.a", t, v);
        }
        let track = m.track("k.a").cloned().unwrap_or_default();
        prop_assert_eq!(track.iter().len(), samples.len());
        prop_assert_eq!(bits(&track), bits(samples.iter().copied()));
        prop_assert_eq!(bits(&samples.iter().copied().collect::<Track>()), bits(&track));
    }

    /// `Metrics::merge` gives every track exactly what a reference merge
    /// of plain sample lists gives: `self`'s samples, then `other`'s,
    /// stably sorted by time, bit for bit (a track `other` lacks stays
    /// as it was).
    #[test]
    fn merged_tracks_equal_a_reference_merge(
        xs in proptest::collection::vec((0usize..3, any::<u64>(), any::<u64>()), 0..200),
        ys in proptest::collection::vec((0usize..3, any::<u64>(), any::<u64>()), 0..200),
    ) {
        const KEYS: [&str; 3] = ["k.a", "k.b", "k.c"];
        let (mut a, mut b) = (Metrics::new(), Metrics::new());
        let mut want: [[Vec<(u64, f64)>; 2]; 3] = Default::default();
        for (side, (m, list)) in [(&mut a, &xs), (&mut b, &ys)].into_iter().enumerate() {
            for &(ki, tb, vb) in list {
                let prev = want[ki][side].last().map_or(0, |s| s.0);
                let (t, v) = (draw_time(tb, prev), draw_value(vb));
                m.track_sample(KEYS[ki], t, v);
                want[ki][side].push((t, v));
            }
        }
        a.merge(&b);
        for (ki, k) in KEYS.iter().enumerate() {
            let [mine, theirs] = &want[ki];
            let expect = match theirs.is_empty() {
                true => mine.clone(),
                false => reference_merge(&[mine, theirs]),
            };
            prop_assert_eq!(a.track(k).map(bits).unwrap_or_default(), bits(expect), "{}", k);
        }
    }

    /// Folding lane collectors rebuilds each cumulative track
    /// (`parcels.in_flight`, `amt.delivered`) from per-lane increments
    /// and merges every other track, exactly as a reference over plain
    /// sample lists does.
    #[test]
    fn lane_merge_equals_a_reference_merge(
        raw in proptest::collection::vec((0usize..9, any::<u64>(), 0u64..1_000), 0..300),
    ) {
        const KEYS: [&str; 3] = ["parcels.in_flight", "amt.delivered", "loc0.runq"];
        let main = Telemetry::new();
        let lanes: Vec<Rc<Telemetry>> = (0..3).map(|lane| Telemetry::for_lane(lane, &main)).collect();
        let mut want: [[Vec<(u64, f64)>; 3]; 3] = Default::default();
        for &(pick, tb, v) in &raw {
            let (lane, ki) = (pick % 3, pick / 3);
            let prev = want[ki][lane].last().map_or(0, |s| s.0);
            // Finite values: a running total is a count, or a fraction.
            let (t, v) = (draw_time(tb, prev) % (1 << 40), v as f64 / 8.0);
            lanes[lane].track_sample(KEYS[ki], simcore::SimTime::from_nanos(t), v);
            want[ki][lane].push((t, v));
        }
        telemetry::merge_lane_collectors(&main, lanes);
        main.with_metrics(|m| {
            for (ki, k) in KEYS.iter().enumerate() {
                let lanes = &want[ki];
                let expect = match ki {
                    2 => reference_merge(&[&lanes[0], &lanes[1], &lanes[2]]),
                    _ => reference_cumulative(lanes),
                };
                prop_assert_eq!(m.track(k).map(bits).unwrap_or_default(), bits(expect), "{}", k);
            }
        });
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
