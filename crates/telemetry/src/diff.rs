//! Structural diff of two [`RunRecord`]s — the cross-run differential
//! attribution engine.
//!
//! The central object is the **critical-path delta table**: both records
//! carry an exact per-component partition of their end-to-end time, so
//! the per-component differences sum to the end-to-end delta as a
//! *structural identity* (mirroring the PR-4 partition invariant — no
//! gaps, no double counting, now across runs). A regression is
//! *localized* when the regression-direction movement concentrates on
//! named components (wire, locks, resources, serialize) rather than the
//! residual `cpu`/`startup` labels; [`RecordDiff::localization`]
//! quantifies that, and `perf_diff` treats an unexplained regression as
//! the loudest failure.
//!
//! Around the delta table the diff carries histogram shift detection at
//! **exact bucket granularity** (possible because records serialize full
//! bucket counts, not quantiles), counter/gauge deltas, per-core profile
//! state movement, per-resource wait deltas, window-count changes, and
//! new/vanished keys and resources. Deterministic simulation makes every
//! quantity here virtual-time exact: a diff of two identical runs is
//! empty, and `diff(A, A⊎B)` attributes exactly `B` (see
//! `tests/diff_props.rs`).

use std::collections::BTreeSet;
use std::fmt::Write as _;

use simcore::escape_json;

use crate::critpath::ComponentShare;
use crate::profile::STATES;
use crate::record::RunRecord;

/// Components whose on-path time is residual attribution rather than a
/// named mechanism — a regression that moves *here* is unexplained.
pub const RESIDUAL_COMPONENTS: [&str; 2] = ["cpu", "startup"];

/// A `base -> head` pair of u64 quantities.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Delta {
    /// Value in the base record.
    pub base: u64,
    /// Value in the head record.
    pub head: u64,
}

impl Delta {
    /// Signed head − base.
    pub fn delta(&self) -> i64 {
        self.head as i64 - self.base as i64
    }

    /// Relative change in percent (0 when the base is 0).
    pub fn pct(&self) -> f64 {
        if self.base == 0 {
            0.0
        } else {
            self.delta() as f64 * 100.0 / self.base as f64
        }
    }
}

/// One critical-path component's on-path time in both runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComponentDelta {
    /// Component label.
    pub component: String,
    /// On-path ns in the base run (0 when absent).
    pub base_ns: u64,
    /// On-path ns in the head run (0 when absent).
    pub head_ns: u64,
}

impl ComponentDelta {
    /// Signed on-path movement.
    pub fn delta_ns(&self) -> i64 {
        self.head_ns as i64 - self.base_ns as i64
    }

    /// Whether this is residual (`cpu`/`startup`) attribution.
    pub fn residual(&self) -> bool {
        RESIDUAL_COMPONENTS.contains(&self.component.as_str())
    }
}

/// A changed counter (or any keyed u64); `None` marks a side where the
/// key does not exist.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyDelta {
    /// Counter key.
    pub key: String,
    /// Base value; `None` = key new in head.
    pub base: Option<u64>,
    /// Head value; `None` = key vanished.
    pub head: Option<u64>,
}

impl KeyDelta {
    /// Signed head − base, absent sides counting as 0.
    pub fn delta(&self) -> i64 {
        self.head.unwrap_or(0) as i64 - self.base.unwrap_or(0) as i64
    }
}

/// A changed gauge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GaugeDelta {
    /// Gauge key.
    pub key: String,
    /// Base value; `None` = new in head.
    pub base: Option<i64>,
    /// Head value; `None` = vanished.
    pub head: Option<i64>,
}

/// One histogram's shift between the runs, at bucket granularity.
#[derive(Debug, Clone, PartialEq)]
pub struct HistDelta {
    /// Histogram key.
    pub key: String,
    /// Sample counts.
    pub count: Delta,
    /// Bucket-approximated medians.
    pub p50: Delta,
    /// Bucket-approximated 99th percentiles.
    pub p99: Delta,
    /// Mean shift, ns (head − base).
    pub mean_shift_ns: f64,
    /// Per-bucket count movement: `(bucket_index, bucket_upper_ns,
    /// head_count − base_count)`, non-zero entries only.
    pub bucket_deltas: Vec<(usize, u64, i64)>,
    /// Samples that moved buckets: `Σ max(0, Δ)` over buckets — a lower
    /// bound on how many samples shifted.
    pub moved: u64,
    /// Key exists only in head.
    pub appeared: bool,
    /// Key exists only in base.
    pub vanished: bool,
}

/// One resource's contention movement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResourceDelta {
    /// Resource name.
    pub name: String,
    /// Total wait ns.
    pub wait_ns: Delta,
    /// Events.
    pub events: Delta,
    /// Resource exists only in head.
    pub appeared: bool,
    /// Resource exists only in base.
    pub vanished: bool,
}

/// The structural diff of two run records.
#[derive(Debug, Clone, Default)]
pub struct RecordDiff {
    /// `scenario/config[+knobs]` of the base record.
    pub base_label: String,
    /// `scenario/config[+knobs]` of the head record.
    pub head_label: String,
    /// End-to-end virtual time.
    pub end_to_end: Delta,
    /// Events executed.
    pub events: Delta,
    /// Flows started.
    pub flows: Delta,
    /// Per-component critical-path movement, ranked by |delta| descending
    /// (ties by name). When [`RecordDiff::critpath_exact`] is set the
    /// deltas sum to exactly `end_to_end.delta()`.
    pub critpath: Vec<ComponentDelta>,
    /// Both records carried a critical-path partition.
    pub critpath_exact: bool,
    /// Changed counters only (including new/vanished keys).
    pub counters: Vec<KeyDelta>,
    /// Changed gauges only.
    pub gauges: Vec<GaugeDelta>,
    /// Shifted histograms only (any bucket-level movement).
    pub hists: Vec<HistDelta>,
    /// Aggregate per-state profile movement, in [`STATES`] order:
    /// `(state label, base_ns, head_ns)`.
    pub profile_states: Vec<(String, u64, u64)>,
    /// Changed resources only (by wait/events; including new/vanished).
    pub resources: Vec<ResourceDelta>,
    /// Window counts when both records carried timelines.
    pub windows: Option<Delta>,
}

impl RecordDiff {
    /// Diff `head` against `base`.
    pub fn between(base: &RunRecord, head: &RunRecord) -> RecordDiff {
        let mut d = RecordDiff {
            base_label: base.label(),
            head_label: head.label(),
            end_to_end: Delta { base: base.end_to_end_ns, head: head.end_to_end_ns },
            events: Delta { base: base.events, head: head.events },
            flows: Delta { base: base.flows_total, head: head.flows_total },
            ..RecordDiff::default()
        };

        // Critical-path component table over the union of components.
        let (b_comps, h_comps) = (
            base.critpath.as_ref().map(|c| &c.components),
            head.critpath.as_ref().map(|c| &c.components),
        );
        d.critpath_exact = b_comps.is_some() && h_comps.is_some();
        let names: BTreeSet<&str> = b_comps
            .into_iter()
            .flatten()
            .chain(h_comps.into_iter().flatten())
            .map(|c| c.component.as_str())
            .collect();
        let lookup = |comps: Option<&Vec<ComponentShare>>, name: &str| {
            let mut comps = comps.into_iter().flatten();
            comps.find(|c| c.component == name).map(|c| c.on_path_ns).unwrap_or(0)
        };
        for name in names {
            d.critpath.push(ComponentDelta {
                component: name.to_string(),
                base_ns: lookup(b_comps, name),
                head_ns: lookup(h_comps, name),
            });
        }
        d.critpath.sort_by(|a, b| {
            b.delta_ns().abs().cmp(&a.delta_ns().abs()).then_with(|| a.component.cmp(&b.component))
        });

        // Counters / gauges: changed keys only, union of key sets.
        let counter_keys: BTreeSet<&String> =
            base.counters.keys().chain(head.counters.keys()).collect();
        for k in counter_keys {
            let (b, h) = (base.counters.get(k).copied(), head.counters.get(k).copied());
            if b != h {
                d.counters.push(KeyDelta { key: k.clone(), base: b, head: h });
            }
        }
        let gauge_keys: BTreeSet<&String> = base.gauges.keys().chain(head.gauges.keys()).collect();
        for k in gauge_keys {
            let (b, h) = (base.gauges.get(k).copied(), head.gauges.get(k).copied());
            if b != h {
                d.gauges.push(GaugeDelta { key: k.clone(), base: b, head: h });
            }
        }

        // Histograms: exact per-bucket movement.
        let hist_keys: BTreeSet<&String> = base.hists.keys().chain(head.hists.keys()).collect();
        for k in hist_keys {
            let (b, h) = (base.hists.get(k), head.hists.get(k));
            let empty = crate::Histogram::new();
            let (bh, hh) = (b.unwrap_or(&empty), h.unwrap_or(&empty));
            let mut buckets: Vec<(usize, u64, i64)> = Vec::new();
            let mut b_it: std::collections::BTreeMap<usize, (u64, i64)> = Default::default();
            for (idx, upper, c) in bh.buckets() {
                b_it.insert(idx, (upper, -(c as i64)));
            }
            for (idx, upper, c) in hh.buckets() {
                let e = b_it.entry(idx).or_insert((upper, 0));
                e.1 += c as i64;
            }
            let mut moved = 0u64;
            for (idx, (upper, delta)) in b_it {
                if delta != 0 {
                    if delta > 0 {
                        moved += delta as u64;
                    }
                    buckets.push((idx, upper, delta));
                }
            }
            if buckets.is_empty() && b.is_some() == h.is_some() {
                continue;
            }
            d.hists.push(HistDelta {
                key: k.clone(),
                count: Delta { base: bh.count(), head: hh.count() },
                p50: Delta { base: bh.p50(), head: hh.p50() },
                p99: Delta { base: bh.p99(), head: hh.p99() },
                mean_shift_ns: hh.mean() - bh.mean(),
                bucket_deltas: buckets,
                moved,
                appeared: b.is_none(),
                vanished: h.is_none(),
            });
        }

        // Aggregate per-state profile movement.
        let state_total =
            |rec: &RunRecord, s: usize| -> u64 { rec.profile.iter().map(|c| c.states[s]).sum() };
        for &s in &STATES {
            let (b, h) = (state_total(base, s as usize), state_total(head, s as usize));
            d.profile_states.push((s.label().to_string(), b, h));
        }

        // Resources: changed rows only, union of names.
        let res_names: BTreeSet<&String> = base
            .resources
            .iter()
            .map(|r| &r.name)
            .chain(head.resources.iter().map(|r| &r.name))
            .collect();
        for name in res_names {
            let b = base.resources.iter().find(|r| &r.name == name);
            let h = head.resources.iter().find(|r| &r.name == name);
            let wait = Delta {
                base: b.map(|r| r.wait_ns).unwrap_or(0),
                head: h.map(|r| r.wait_ns).unwrap_or(0),
            };
            let events = Delta {
                base: b.map(|r| r.events).unwrap_or(0),
                head: h.map(|r| r.events).unwrap_or(0),
            };
            if wait.delta() != 0 || events.delta() != 0 || b.is_none() != h.is_none() {
                d.resources.push(ResourceDelta {
                    name: name.clone(),
                    wait_ns: wait,
                    events,
                    appeared: b.is_none(),
                    vanished: h.is_none(),
                });
            }
        }
        d.resources.sort_by(|a, b| {
            b.wait_ns.delta().abs().cmp(&a.wait_ns.delta().abs()).then_with(|| a.name.cmp(&b.name))
        });

        if let (Some(bw), Some(hw)) = (&base.windows, &head.windows) {
            d.windows = Some(Delta { base: bw.num_windows, head: hw.num_windows });
        }
        d
    }

    /// Signed end-to-end movement, ns.
    pub fn end_delta(&self) -> i64 {
        self.end_to_end.delta()
    }

    /// Sum of the critical-path component deltas. Equal to
    /// [`RecordDiff::end_delta`] whenever both records carried a
    /// critical path — the structural identity the delta table inherits
    /// from the per-run partition invariant.
    pub fn critpath_delta_sum(&self) -> i64 {
        self.critpath.iter().map(|c| c.delta_ns()).sum()
    }

    /// Fraction (0..=1) of the regression-direction on-path movement
    /// that lands on *named* components rather than residual
    /// `cpu`/`startup` attribution. 1.0 when there is no movement in the
    /// regression direction (including a zero delta).
    pub fn localization(&self) -> f64 {
        let dir = self.end_delta().signum();
        if dir == 0 {
            return 1.0;
        }
        let mut total = 0i64;
        let mut named = 0i64;
        for c in &self.critpath {
            let d = c.delta_ns();
            if d.signum() == dir {
                total += d.abs();
                if !c.residual() {
                    named += d.abs();
                }
            }
        }
        if total == 0 {
            1.0
        } else {
            named as f64 / total as f64
        }
    }

    /// Whether the two records are observationally identical: same
    /// end-to-end time, events, flows, critical path, counters, gauges,
    /// histogram buckets, profile partition, resources and windows.
    pub fn is_empty(&self) -> bool {
        self.end_delta() == 0
            && self.events.delta() == 0
            && self.flows.delta() == 0
            && self.critpath.iter().all(|c| c.delta_ns() == 0)
            && self.counters.is_empty()
            && self.gauges.is_empty()
            && self.hists.is_empty()
            && self.profile_states.iter().all(|(_, b, h)| b == h)
            && self.resources.is_empty()
            && self.windows.map(|w| w.delta() == 0).unwrap_or(true)
    }

    /// Human-readable report.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "perf diff");
        let _ = writeln!(out, "  base: {}", self.base_label);
        let _ = writeln!(out, "  head: {}", self.head_label);
        let _ = writeln!(
            out,
            "  end-to-end: {} -> {} ns  ({:+} ns, {:+.2}%)",
            self.end_to_end.base,
            self.end_to_end.head,
            self.end_delta(),
            self.end_to_end.pct()
        );
        let _ = writeln!(
            out,
            "  events: {} -> {} ({:+})   flows: {} -> {} ({:+})",
            self.events.base,
            self.events.head,
            self.events.delta(),
            self.flows.base,
            self.flows.head,
            self.flows.delta()
        );
        if self.is_empty() {
            let _ = writeln!(out, "  records are identical");
            return out;
        }
        if !self.critpath.is_empty() {
            let _ = writeln!(
                out,
                "  critical-path delta attribution ({}; localization {:.1}%):",
                if self.critpath_exact {
                    "sums exactly to the end-to-end delta"
                } else {
                    "partial: one record lacks a critical path"
                },
                self.localization() * 100.0
            );
            for c in self.critpath.iter().filter(|c| c.delta_ns() != 0) {
                let _ = writeln!(
                    out,
                    "    {:<24} {:>+12} ns   ({} -> {})",
                    c.component,
                    c.delta_ns(),
                    c.base_ns,
                    c.head_ns
                );
            }
            let _ = writeln!(
                out,
                "    {:<24} {:>+12} ns   (identity: end-to-end delta {})",
                "= sum",
                self.critpath_delta_sum(),
                self.end_delta()
            );
        }
        if !self.counters.is_empty() {
            let _ = writeln!(out, "  counters ({} changed):", self.counters.len());
            for c in &self.counters {
                let tag = match (c.base, c.head) {
                    (None, _) => "  [new]",
                    (_, None) => "  [vanished]",
                    _ => "",
                };
                let _ = writeln!(
                    out,
                    "    {:<28} {} -> {} ({:+}){tag}",
                    c.key,
                    c.base.map(|v| v.to_string()).unwrap_or_else(|| "-".into()),
                    c.head.map(|v| v.to_string()).unwrap_or_else(|| "-".into()),
                    c.delta()
                );
            }
        }
        if !self.hists.is_empty() {
            let _ = writeln!(out, "  histograms ({} shifted):", self.hists.len());
            for h in &self.hists {
                let tag = if h.appeared {
                    "  [new]"
                } else if h.vanished {
                    "  [vanished]"
                } else {
                    ""
                };
                let _ = writeln!(
                    out,
                    "    {:<28} count {} -> {}, p50 {} -> {} ns, p99 {} -> {} ns, \
                     {} buckets moved ({} samples){tag}",
                    h.key,
                    h.count.base,
                    h.count.head,
                    h.p50.base,
                    h.p50.head,
                    h.p99.base,
                    h.p99.head,
                    h.bucket_deltas.len(),
                    h.moved
                );
            }
        }
        let moved_states: Vec<&(String, u64, u64)> =
            self.profile_states.iter().filter(|(_, b, h)| b != h).collect();
        if !moved_states.is_empty() {
            let _ = writeln!(out, "  core-profile state movement:");
            for (label, b, h) in moved_states {
                let _ = writeln!(
                    out,
                    "    {:<12} {:>+12} ns   ({b} -> {h})",
                    label,
                    *h as i64 - *b as i64
                );
            }
        }
        if !self.resources.is_empty() {
            let _ = writeln!(out, "  resources ({} changed):", self.resources.len());
            for r in &self.resources {
                let tag = if r.appeared {
                    "  [new]"
                } else if r.vanished {
                    "  [vanished]"
                } else {
                    ""
                };
                let _ = writeln!(
                    out,
                    "    {:<24} wait {:+} ns ({} -> {}), events {:+}{tag}",
                    r.name,
                    r.wait_ns.delta(),
                    r.wait_ns.base,
                    r.wait_ns.head,
                    r.events.delta()
                );
            }
        }
        if let Some(w) = self.windows {
            let _ = writeln!(out, "  timeline windows: {} -> {} ({:+})", w.base, w.head, w.delta());
        }
        out
    }

    /// Machine-readable report.
    pub fn to_json(&self) -> String {
        let critpath: Vec<String> = self
            .critpath
            .iter()
            .map(|c| {
                format!(
                    "{{\"component\":\"{}\",\"base_ns\":{},\"head_ns\":{},\"delta_ns\":{},\
                     \"residual\":{}}}",
                    escape_json(&c.component),
                    c.base_ns,
                    c.head_ns,
                    c.delta_ns(),
                    c.residual()
                )
            })
            .collect();
        let counters: Vec<String> = self
            .counters
            .iter()
            .map(|c| {
                format!(
                    "{{\"key\":\"{}\",\"base\":{},\"head\":{},\"delta\":{}}}",
                    escape_json(&c.key),
                    c.base.map(|v| v.to_string()).unwrap_or_else(|| "null".into()),
                    c.head.map(|v| v.to_string()).unwrap_or_else(|| "null".into()),
                    c.delta()
                )
            })
            .collect();
        let gauges: Vec<String> = self
            .gauges
            .iter()
            .map(|g| {
                format!(
                    "{{\"key\":\"{}\",\"base\":{},\"head\":{}}}",
                    escape_json(&g.key),
                    g.base.map(|v| v.to_string()).unwrap_or_else(|| "null".into()),
                    g.head.map(|v| v.to_string()).unwrap_or_else(|| "null".into())
                )
            })
            .collect();
        let hists: Vec<String> = self
            .hists
            .iter()
            .map(|h| {
                let buckets: Vec<String> = h
                    .bucket_deltas
                    .iter()
                    .map(|(idx, upper, d)| format!("[{idx},{upper},{d}]"))
                    .collect();
                format!(
                    "{{\"key\":\"{}\",\"base_count\":{},\"head_count\":{},\
                     \"base_p50\":{},\"head_p50\":{},\"base_p99\":{},\"head_p99\":{},\
                     \"mean_shift_ns\":{:.3},\"moved\":{},\"appeared\":{},\"vanished\":{},\
                     \"bucket_deltas\":[{}]}}",
                    escape_json(&h.key),
                    h.count.base,
                    h.count.head,
                    h.p50.base,
                    h.p50.head,
                    h.p99.base,
                    h.p99.head,
                    h.mean_shift_ns,
                    h.moved,
                    h.appeared,
                    h.vanished,
                    buckets.join(",")
                )
            })
            .collect();
        let states: Vec<String> = self
            .profile_states
            .iter()
            .map(|(label, b, h)| {
                format!("{{\"state\":\"{}\",\"base_ns\":{b},\"head_ns\":{h}}}", escape_json(label))
            })
            .collect();
        let resources: Vec<String> = self
            .resources
            .iter()
            .map(|r| {
                format!(
                    "{{\"name\":\"{}\",\"base_wait_ns\":{},\"head_wait_ns\":{},\
                     \"base_events\":{},\"head_events\":{},\"appeared\":{},\"vanished\":{}}}",
                    escape_json(&r.name),
                    r.wait_ns.base,
                    r.wait_ns.head,
                    r.events.base,
                    r.events.head,
                    r.appeared,
                    r.vanished
                )
            })
            .collect();
        let windows = match self.windows {
            Some(w) => format!("{{\"base\":{},\"head\":{}}}", w.base, w.head),
            None => "null".to_string(),
        };
        format!(
            "{{\"perf_diff\":{{\"base\":\"{}\",\"head\":\"{}\",\
             \"end_to_end\":{{\"base_ns\":{},\"head_ns\":{},\"delta_ns\":{}}},\
             \"events\":{{\"base\":{},\"head\":{}}},\"flows\":{{\"base\":{},\"head\":{}}},\
             \"identical\":{},\"critpath_exact\":{},\"critpath_delta_sum_ns\":{},\
             \"localization\":{:.4},\"critpath\":[{}],\"counters\":[{}],\"gauges\":[{}],\
             \"hists\":[{}],\"profile_states\":[{}],\"resources\":[{}],\"windows\":{}}}}}",
            escape_json(&self.base_label),
            escape_json(&self.head_label),
            self.end_to_end.base,
            self.end_to_end.head,
            self.end_delta(),
            self.events.base,
            self.events.head,
            self.flows.base,
            self.flows.head,
            self.is_empty(),
            self.critpath_exact,
            self.critpath_delta_sum(),
            self.localization(),
            critpath.join(","),
            counters.join(","),
            gauges.join(","),
            hists.join(","),
            states.join(","),
            resources.join(","),
            windows
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{RunMeta, RunRecord};
    use crate::CritPath;
    use crate::Histogram;

    fn share(component: &str, on_path_ns: u64) -> ComponentShare {
        ComponentShare { component: component.into(), on_path_ns }
    }

    fn record(total: u64, wire: u64, latencies: &[u64]) -> RunRecord {
        let mut rec = RunRecord {
            version: crate::record::SCHEMA_VERSION,
            meta: RunMeta { scenario: "unit".into(), config: "cfg".into(), ..Default::default() },
            end_to_end_ns: total,
            events: 100,
            ..RunRecord::default()
        };
        let mut h = Histogram::new();
        for &v in latencies {
            h.record(v);
        }
        rec.hists.insert("parcel.latency_ns".into(), h);
        rec.counters.insert("parcels.sent".into(), latencies.len() as u64);
        rec.critpath = Some(CritPath {
            total_ns: total,
            components: vec![share("net.wire", wire), share("cpu", total - wire)],
            ..CritPath::default()
        });
        rec
    }

    #[test]
    fn identical_records_diff_empty() {
        let a = record(10_000, 6_000, &[100, 200, 300]);
        let d = RecordDiff::between(&a, &a.clone());
        assert!(d.is_empty());
        assert_eq!(d.end_delta(), 0);
        assert_eq!(d.localization(), 1.0);
        assert!(d.to_text().contains("records are identical"));
    }

    #[test]
    fn critpath_delta_table_sums_to_end_delta() {
        let base = record(10_000, 6_000, &[100]);
        let head = record(14_000, 9_500, &[100]);
        let d = RecordDiff::between(&base, &head);
        assert!(d.critpath_exact);
        assert_eq!(d.critpath_delta_sum(), d.end_delta());
        assert_eq!(d.end_delta(), 4_000);
        // 3500 of the 4000 regression-direction ns land on net.wire.
        assert!((d.localization() - 3_500.0 / 4_000.0).abs() < 1e-9);
    }

    #[test]
    fn bucket_shifts_are_exact() {
        let base = record(10_000, 6_000, &[100, 100, 5_000]);
        let head = record(10_000, 6_000, &[100, 9_000, 9_000]);
        let d = RecordDiff::between(&base, &head);
        let h = d.hists.iter().find(|h| h.key == "parcel.latency_ns").unwrap();
        assert_eq!(h.count.delta(), 0);
        // One sample left the 100-bucket, one left 5000, two landed at 9000.
        let total_move: i64 = h.bucket_deltas.iter().map(|&(_, _, d)| d).sum();
        assert_eq!(total_move, 0);
        assert_eq!(h.moved, 2);
        assert!(!d.is_empty());
    }

    #[test]
    fn new_and_vanished_keys_are_flagged() {
        let base = record(10_000, 6_000, &[100]);
        let mut head = record(10_000, 6_000, &[100]);
        head.counters.insert("retries".into(), 3);
        head.counters.remove("parcels.sent");
        let d = RecordDiff::between(&base, &head);
        let new = d.counters.iter().find(|c| c.key == "retries").unwrap();
        assert!(new.base.is_none());
        let gone = d.counters.iter().find(|c| c.key == "parcels.sent").unwrap();
        assert!(gone.head.is_none());
    }

    #[test]
    fn unexplained_regression_has_low_localization() {
        let base = record(10_000, 6_000, &[100]);
        // All 4000 ns of regression lands on residual cpu time.
        let mut head = record(14_000, 6_000, &[100]);
        head.critpath.as_mut().unwrap().components =
            vec![share("net.wire", 6_000), share("cpu", 8_000)];
        let d = RecordDiff::between(&base, &head);
        assert_eq!(d.critpath_delta_sum(), d.end_delta());
        assert_eq!(d.localization(), 0.0);
    }

    #[test]
    fn json_report_carries_the_identity() {
        let base = record(10_000, 6_000, &[100]);
        let head = record(14_000, 9_500, &[100]);
        let j = RecordDiff::between(&base, &head).to_json();
        let doc = crate::json::parse(&j).unwrap();
        let root = doc.get("perf_diff").unwrap();
        assert_eq!(root.get("critpath_delta_sum_ns").unwrap().as_f64(), Some(4_000.0));
        assert_eq!(
            root.get("end_to_end").unwrap().get("delta_ns").unwrap().as_f64(),
            Some(4_000.0)
        );
    }
}
