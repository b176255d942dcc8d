//! Property tests for the cross-run differential engine: diffing a
//! record against itself is empty, diffing `A` against `A ⊎ B`
//! attributes exactly `B`, the critical-path delta table always sums to
//! the end-to-end delta, and records survive a JSON round trip.

use std::collections::BTreeMap;

use proptest::prelude::*;
use telemetry::record::{RunMeta, RunRecord, SCHEMA_VERSION};
use telemetry::{ComponentShare, CritPath, PathSegment};
use telemetry::{Histogram, RecordDiff};

/// Generator inputs for one synthetic run record: per-component
/// critical-path shares, counters, and histogram sample streams.
#[derive(Debug, Clone)]
struct Synth {
    components: Vec<(String, u64)>,
    counters: Vec<(String, u64)>,
    hists: Vec<(String, Vec<u64>)>,
}

/// Component labels drawn for synthetic critical paths; includes the
/// residual `cpu`/`startup` labels so localization gets exercised.
const COMPONENTS: [&str; 7] =
    ["net.wire", "lci.cq", "lci.progress", "amt.serialize", "amt.task_queue", "cpu", "startup"];
const COUNTERS: [&str; 4] = ["parcels.sent", "polls", "retries", "acks"];
const HIST_KEYS: [&str; 2] = ["parcel.latency_ns", "msg_bytes"];

fn synth() -> impl Strategy<Value = Synth> {
    let comps = collection::vec((0usize..COMPONENTS.len(), 0u64..5_000_000), 1..6);
    let counters = collection::vec((0usize..COUNTERS.len(), 0u64..100_000), 0..4);
    let hists =
        collection::vec((0usize..HIST_KEYS.len(), collection::vec(1u64..10_000_000, 0..60)), 0..3);
    (comps, counters, hists).prop_map(|(c, k, h)| {
        // Duplicate draws of the same key merge additively, so each key
        // appears once (records key their sections by name).
        let mut comps: BTreeMap<String, u64> = BTreeMap::new();
        for (i, v) in c {
            *comps.entry(COMPONENTS[i].to_string()).or_insert(0) += v;
        }
        let mut counters: BTreeMap<String, u64> = BTreeMap::new();
        for (i, v) in k {
            *counters.entry(COUNTERS[i].to_string()).or_insert(0) += v;
        }
        let mut hists: BTreeMap<String, Vec<u64>> = BTreeMap::new();
        for (i, samples) in h {
            hists.entry(HIST_KEYS[i].to_string()).or_default().extend_from_slice(&samples);
        }
        Synth {
            components: comps.into_iter().collect(),
            counters: counters.into_iter().collect(),
            hists: hists.into_iter().collect(),
        }
    })
}

/// Materialize a [`RunRecord`] whose critical path partitions the sum of
/// the component shares (components laid out as one contiguous segment
/// each, so the partition identity holds by construction).
fn build(s: &Synth) -> RunRecord {
    let total: u64 = s.components.iter().map(|&(_, ns)| ns).sum();
    let mut segments = Vec::new();
    let mut cursor = 0u64;
    for (name, ns) in &s.components {
        segments.push(PathSegment { component: name.clone(), start: cursor, end: cursor + ns });
        cursor += ns;
    }
    let mut rec = RunRecord {
        version: SCHEMA_VERSION,
        meta: RunMeta { scenario: "prop".into(), config: "cfg".into(), ..Default::default() },
        end_to_end_ns: total,
        events: s.counters.iter().map(|&(_, v)| v).sum(),
        critpath: Some(CritPath {
            config: "cfg".into(),
            total_ns: total,
            components: s
                .components
                .iter()
                .map(|(c, ns)| ComponentShare { component: c.clone(), on_path_ns: *ns })
                .collect(),
            segments,
            ..CritPath::default()
        }),
        ..RunRecord::default()
    };
    for (k, v) in &s.counters {
        rec.counters.insert(k.clone(), *v);
    }
    for (k, samples) in &s.hists {
        let mut h = Histogram::new();
        for &v in samples {
            h.record(v);
        }
        rec.hists.insert(k.clone(), h);
    }
    rec
}

/// `A ⊎ B`: component shares, counters and histogram streams added
/// key-wise.
fn union(a: &Synth, b: &Synth) -> Synth {
    let mut comps: BTreeMap<String, u64> = a.components.iter().cloned().collect();
    for (k, v) in &b.components {
        *comps.entry(k.clone()).or_insert(0) += v;
    }
    let mut counters: BTreeMap<String, u64> = a.counters.iter().cloned().collect();
    for (k, v) in &b.counters {
        *counters.entry(k.clone()).or_insert(0) += v;
    }
    let mut hists: BTreeMap<String, Vec<u64>> = a.hists.iter().cloned().collect();
    for (k, samples) in &b.hists {
        hists.entry(k.clone()).or_default().extend_from_slice(samples);
    }
    Synth {
        components: comps.into_iter().collect(),
        counters: counters.into_iter().collect(),
        hists: hists.into_iter().collect(),
    }
}

proptest! {
    /// Self-diff is observationally empty: zero end-to-end delta, no
    /// changed counters/hists/resources, localization 1.
    #[test]
    fn self_diff_is_empty(s in synth()) {
        let rec = build(&s);
        let d = RecordDiff::between(&rec, &rec.clone());
        prop_assert!(d.is_empty());
        prop_assert_eq!(d.end_delta(), 0);
        prop_assert_eq!(d.critpath_delta_sum(), 0);
        prop_assert_eq!(d.localization(), 1.0);
    }

    /// Diffing `A` against `A ⊎ B` recovers exactly `B`: each
    /// critical-path component moves by `B`'s share, each counter by
    /// `B`'s value, and each histogram's bucket deltas are exactly `B`'s
    /// bucket counts.
    #[test]
    fn diff_against_union_attributes_exactly_b(a in synth(), b in synth()) {
        let base = build(&a);
        let head = build(&union(&a, &b));
        let d = RecordDiff::between(&base, &head);

        let b_total: u64 = b.components.iter().map(|&(_, ns)| ns).sum();
        prop_assert_eq!(d.end_delta(), b_total as i64);
        prop_assert!(d.critpath_exact);
        prop_assert_eq!(d.critpath_delta_sum(), d.end_delta());
        let b_comps: BTreeMap<&str, u64> =
            b.components.iter().map(|(k, v)| (k.as_str(), *v)).collect();
        for c in &d.critpath {
            prop_assert_eq!(
                c.delta_ns(),
                b_comps.get(c.component.as_str()).copied().unwrap_or(0) as i64,
                "component {} moved by something other than B's share", c.component
            );
        }

        let b_counters: BTreeMap<&str, u64> =
            b.counters.iter().map(|(k, v)| (k.as_str(), *v)).collect();
        for c in &d.counters {
            prop_assert_eq!(c.delta(), b_counters.get(c.key.as_str()).copied().unwrap_or(0) as i64);
        }
        // Every non-zero counter of B shows up as a delta.
        for (k, v) in &b.counters {
            if *v > 0 {
                prop_assert!(d.counters.iter().any(|c| &c.key == k));
            }
        }

        for h in &d.hists {
            let mut bh = Histogram::new();
            if let Some((_, samples)) = b.hists.iter().find(|(k, _)| k == &h.key) {
                for &v in samples {
                    bh.record(v);
                }
            }
            // The bucket-delta list must be exactly B's bucket contents.
            let expected: Vec<(usize, u64, i64)> =
                bh.buckets().map(|(i, upper, c)| (i, upper, c as i64)).collect();
            prop_assert_eq!(&h.bucket_deltas, &expected, "hist {} deltas are not B", h.key);
            prop_assert_eq!(h.moved, bh.count());
            prop_assert_eq!(h.count.delta(), bh.count() as i64);
        }
    }

    /// The delta table's structural identity holds for *any* pair of
    /// records with critical paths, not just related ones.
    #[test]
    fn delta_table_sums_to_end_delta(a in synth(), b in synth()) {
        let d = RecordDiff::between(&build(&a), &build(&b));
        prop_assert!(d.critpath_exact);
        prop_assert_eq!(d.critpath_delta_sum(), d.end_delta());
        let loc = d.localization();
        prop_assert!((0.0..=1.0).contains(&loc));
    }

    /// Serialization is lossless and deterministic for arbitrary
    /// records, and a JSON round trip never changes a diff.
    #[test]
    fn record_roundtrip_preserves_diffs(a in synth(), b in synth()) {
        let (base, head) = (build(&a), build(&b));
        let base2 = RunRecord::from_json(&base.to_json()).expect("parse base");
        let head2 = RunRecord::from_json(&head.to_json()).expect("parse head");
        prop_assert_eq!(&base2, &base);
        prop_assert_eq!(base.to_json(), base2.to_json());
        let d1 = RecordDiff::between(&base, &head);
        let d2 = RecordDiff::between(&base2, &head2);
        prop_assert_eq!(d1.to_json(), d2.to_json());
    }
}
