//! Property tests for the telemetry crate: histogram quantile bounds,
//! merge-equals-union, and Chrome-export JSON round-tripping through the
//! built-in parser.

use proptest::prelude::*;
use simcore::SimTime;
use telemetry::json::Value;
use telemetry::{json, CoreState, Histogram, RunMeta, RunRecord, SloRule, TimelineConfig};

proptest! {
    /// Every quantile of a log-bucketed histogram must stay inside the
    /// true `[min, max]` of the recorded samples, and quantiles must be
    /// monotone in `q`.
    #[test]
    fn quantiles_bounded_by_true_extremes(
        samples in proptest::collection::vec(any::<u64>(), 1..200),
        q_raw in any::<f64>(),
    ) {
        let mut h = Histogram::new();
        for &v in &samples {
            h.record(v);
        }
        let lo = *samples.iter().min().expect("non-empty");
        let hi = *samples.iter().max().expect("non-empty");
        prop_assert_eq!(h.min(), lo);
        prop_assert_eq!(h.max(), hi);
        prop_assert_eq!(h.count(), samples.len() as u64);
        let q = q_raw.clamp(0.0, 1.0);
        let v = h.quantile(q);
        prop_assert!(v >= lo && v <= hi, "quantile({}) = {} outside [{}, {}]", q, v, lo, hi);
        prop_assert!(h.p50() <= h.p90() && h.p90() <= h.p99());
    }

    /// `merge(a, b)` must be indistinguishable from recording the union
    /// of both sample streams into one histogram.
    #[test]
    fn merge_equals_union(
        xs in proptest::collection::vec(any::<u64>(), 0..120),
        ys in proptest::collection::vec(any::<u64>(), 0..120),
    ) {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut u = Histogram::new();
        for &v in &xs {
            a.record(v);
            u.record(v);
        }
        for &v in &ys {
            b.record(v);
            u.record(v);
        }
        a.merge(&b);
        prop_assert_eq!(&a, &u);
    }

    /// The Chrome export must stay parseable JSON for arbitrary track
    /// names (quotes, backslashes, control characters, unicode), and the
    /// parse must recover the name exactly. SLO rule names are the free-
    /// form part of the export: each alert is a marker on track
    /// `slo/<rule>`, and each rule's burn rate a counter `slo.<rule>.burn`.
    #[test]
    fn chrome_export_roundtrips_hostile_track_names(
        chars in proptest::collection::vec(0usize..NASTY.len(), 0..24),
        start in 0u64..1_000_000,
        dur in 1u64..1_000_000,
    ) {
        let rule: String = chars.iter().map(|&i| NASTY[i]).collect();
        let tel = telemetry::enable_with(TimelineConfig {
            slos: vec![SloRule {
                name: rule.clone(),
                hist: "lat".into(),
                objective_ns: 0,
                target: 0.5,
                burn_threshold: 1.0,
                min_samples: 1,
            }],
            ..TimelineConfig::default()
        });
        telemetry::disable();
        tel.hist_record_at("lat", dur, SimTime::from_nanos(start));
        let (t0, t1) = (SimTime::from_nanos(start), SimTime::from_nanos(start + dur));
        tel.core_tick(0, 0, Some("task"), CoreState::Working, "task", t0, t1);
        let out = RunRecord::capture(&tel, RunMeta::default()).chrome_trace(false).unwrap();
        let doc = json::parse(&out).expect("chrome export must parse");
        let events = doc.as_arr().expect("array");
        let field = |e: &Value, k: &str| e.get(k).and_then(Value::as_str).map(str::to_string);
        let alerts: Vec<_> = events.iter().filter(|e| field(e, "name").as_deref() == Some("alert")).collect();
        prop_assert_eq!(alerts.len(), 1);
        prop_assert_eq!(field(alerts[0], "tid"), Some(format!("slo/{rule}")));
        let burn = format!("slo.{rule}.burn");
        prop_assert!(events.iter().any(|e| field(e, "name").as_deref() == Some(burn.as_str())));
        prop_assert_eq!(field(&events[0], "tid").as_deref(), Some("loc0/core0"));
    }
}

/// Characters that break naive JSON emitters.
const NASTY: [char; 12] =
    ['a', 'Z', '"', '\\', '\n', '\r', '\t', '\u{8}', '\u{c}', '\u{1}', 'é', '💥'];
