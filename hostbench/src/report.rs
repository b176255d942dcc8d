//! Reps, correctness checks, metrics and their report.

use std::fmt::Write as _;
use std::time::Instant;

use telemetry::{RunMeta, RunRecord};

use crate::alloc;
use crate::calib;
use crate::spans::{self, Layer, LayerStat};
use crate::workloads::{pin, Opts, Outcome, Workload};

/// How many timed reps to take.
#[derive(Debug, Clone, Copy)]
pub enum Mode {
    /// Reps until this many seconds have passed (at least [`MIN_REPS`]).
    Seconds(f64),
    /// Exactly this many reps.
    Reps(usize),
    /// One timed rep at about a tenth of the size, no pins.
    Smoke,
}

const MIN_REPS: usize = 3;

/// A rep fails when its headline drifts further than this from its pin.
const PIN_TOLERANCE_PCT: f64 = 0.5;

/// Telemetry on/off rep pairs in the probe.
const PROBE_PAIRS: usize = 3;

/// Set-up-only samples: at least `SETUP_MIN`, and more until
/// `SETUP_SECONDS` have passed.
const SETUP_MIN: usize = 5;
const SETUP_SECONDS: f64 = 1.0;

/// End-to-end metrics: `(name, unit)`.
pub const E2E: [(&str, &str); 3] =
    [("parcels_per_s", "1/s"), ("setup_s", "s"), ("peak_heap_mb", "MB")];

/// Per-layer metrics: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 34] = [
    ("parcelport.progress.self_s", "s"),
    ("parcelport.progress.calls", "count"),
    ("parcelport.progress.ns_per_call", "ns"),
    ("parcelport.progress.useful_ratio", "ratio"),
    ("parcelport.progress.allocs_per_call", "allocs/call"),
    ("parcelport.put.self_s", "s"),
    ("parcelport.put.calls", "count"),
    ("parcelport.put.ns_per_call", "ns"),
    ("parcelport.put.allocs_per_call", "allocs/call"),
    ("amt.send.self_s", "s"),
    ("amt.send.calls", "count"),
    ("amt.send.ns_per_call", "ns"),
    ("amt.send.allocs_per_call", "allocs/call"),
    ("amt.deliver.self_s", "s"),
    ("amt.deliver.calls", "count"),
    ("app.self_s", "s"),
    ("app.calls", "count"),
    ("app.allocs_per_call", "allocs/call"),
    ("simcore.residual_s", "s"),
    ("simcore.events", "count"),
    ("simcore.events_per_parcel", "events/parcel"),
    ("simcore.residual_ns_per_event", "ns"),
    ("simcore.shard.epochs", "count"),
    ("simcore.shard.engine_events_per_nested_event", "ratio"),
    ("alloc.per_parcel", "allocs/parcel"),
    ("setup.allocs", "count"),
    ("amt.tasks_run", "count"),
    ("amt.parcels_per_message", "ratio"),
    ("telemetry.overhead_x", "x"),
    ("telemetry.heap_bytes_per_parcel", "B/parcel"),
    ("telemetry.record_s", "s"),
    ("telemetry.record_bytes", "B"),
    ("trace.overhead_pct", "%"),
    ("model.drift_pct", "%"),
];

/// Check that `benchmark_json` names exactly the workloads and metrics
/// this program emits.
pub fn check_names(benchmark_json: &str) -> Result<(), String> {
    let doc = telemetry::json::parse(benchmark_json)?;
    let names = |key: &str| -> Result<Vec<String>, String> {
        let arr = doc.get(key).and_then(|v| v.as_arr()).ok_or(format!("no {key:?} list"))?;
        arr.iter()
            .map(|e| {
                e.get("name")
                    .and_then(|n| n.as_str())
                    .map(String::from)
                    .ok_or(format!("{key}: entry without a name"))
            })
            .collect()
    };
    let expect = |key: &str, ours: Vec<&str>| -> Result<(), String> {
        let theirs = names(key)?;
        if theirs != ours {
            return Err(format!("{key}: BENCHMARK.json has {theirs:?}, hostbench emits {ours:?}"));
        }
        Ok(())
    };
    expect("workloads", Workload::ALL.iter().map(|w| w.name()).collect())?;
    expect("end_to_end", E2E.iter().map(|m| m.0).collect())?;
    expect("per_layer", PER_LAYER.iter().map(|m| m.0).collect())
}

/// Host measurements of one rep plus its simulated outcome.
struct Rep {
    run_s: f64,
    /// `run_s` restated at the reference host's speed (see `calib.rs`);
    /// 0 until [`calibrated`] sets it.
    ref_run_s: f64,
    /// The host's speed around the rep, relative to the reference host's
    /// (reference workload time `QUIET_S / t_ref`); 0 until [`calibrated`]
    /// sets it.
    speed: f64,
    /// Peak live heap over set-up, run and record capture, above the live
    /// heap at rep start.
    peak_bytes: i64,
    setup_allocs: u64,
    run_allocs: u64,
    /// Telemetry record capture plus serialisation: seconds and bytes.
    record: Option<(f64, usize)>,
    layers: Option<Result<[LayerStat; 5], String>>,
    out: Outcome,
}

fn measure(w: Workload, o: &Opts, telemetry_on: bool) -> Rep {
    alloc::reset_peak();
    let a0 = alloc::snapshot();
    let tel = telemetry_on.then(telemetry::enable);
    let mut planted = w.build(o);
    let t1 = Instant::now();
    let a1 = alloc::snapshot();
    if o.traced {
        spans::start();
    }
    let out = planted.run();
    let t2 = Instant::now();
    let layers = o.traced.then(spans::stop);
    let a2 = alloc::snapshot();
    let record = tel.map(|tel| {
        let r0 = Instant::now();
        let meta = RunMeta {
            scenario: format!("hostbench/{}", w.name()),
            config: w.config().to_string(),
            ..RunMeta::default()
        };
        let bytes = RunRecord::capture(&tel, meta).to_json().len();
        let secs = r0.elapsed().as_secs_f64();
        telemetry::disable();
        (secs, bytes)
    });
    let peak_bytes = alloc::snapshot().peak - a0.live;
    drop(planted);
    Rep {
        run_s: (t2 - t1).as_secs_f64(),
        ref_run_s: 0.0,
        speed: 0.0,
        peak_bytes,
        setup_allocs: a1.allocs - a0.allocs,
        run_allocs: a2.allocs - a1.allocs,
        record,
        layers,
        out,
    }
}

/// A rep timed between two runs of the reference workload; `last_s`
/// holds the time of the one before and receives the one after. The
/// faster of the two stands for the host's speed around the rep:
/// interference can only slow a short run down.
fn calibrated(w: Workload, o: &Opts, telemetry_on: bool, last_s: &mut f64) -> Rep {
    let mut rep = measure(w, o, telemetry_on);
    let after = calib::time_s();
    let t_ref = last_s.min(after);
    rep.ref_run_s = rep.run_s * calib::to_reference(t_ref, w.host_exponent());
    rep.speed = calib::to_reference(t_ref, 1.0);
    *last_s = after;
    rep
}

/// Host seconds to build the world and plant the traffic, without running
/// it.
fn setup_only(w: Workload, o: &Opts, telemetry_on: bool) -> f64 {
    let t0 = Instant::now();
    if telemetry_on {
        telemetry::enable();
    }
    let planted = w.build(o);
    let secs = t0.elapsed().as_secs_f64();
    drop(planted);
    if telemetry_on {
        telemetry::disable();
    }
    secs
}

/// Why a rep is wrong, judged against the warm-up rep's simulated results
/// (`None` for the warm-up itself) and the pinned headline.
fn verdict(rep: &Outcome, expected: Option<&Outcome>, pin: Option<u64>) -> Option<String> {
    if !rep.completed {
        return Some("did not complete".into());
    }
    if rep.delivered != rep.planted {
        return Some(format!("delivered {} of {} parcels", rep.delivered, rep.planted));
    }
    if let Err(e) = &rep.check {
        return Some(e.clone());
    }
    if let Some(r) = expected {
        if (rep.headline_ns, rep.events, rep.delivered) != (r.headline_ns, r.events, r.delivered) {
            return Some(format!(
                "simulated result moved: headline {} ns / {} events, warm-up {} ns / {} events",
                rep.headline_ns, rep.events, r.headline_ns, r.events
            ));
        }
    }
    match pin {
        Some(p) if drift_pct(rep.headline_ns, p).abs() > PIN_TOLERANCE_PCT => Some(format!(
            "headline {} ns drifts {}% from its pin {} ns",
            rep.headline_ns,
            drift_pct(rep.headline_ns, p),
            p
        )),
        _ => None,
    }
}

fn drift_pct(value: u64, pin: u64) -> f64 {
    (value as f64 - pin as f64) / pin as f64 * 100.0
}

/// Median and quartiles as Python's `statistics.median` and
/// `statistics.quantiles(n=4)` (exclusive method) compute them.
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    assert!(n > 0, "median of nothing");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

pub fn quartiles(v: &[f64]) -> (f64, f64) {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n < 2 {
        return (s[0], s[0]);
    }
    let q = |i: usize| {
        let m = i * (n + 1);
        let j = (m / 4).clamp(1, n - 1);
        let delta = m as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// One workload's results.
pub struct WorkloadResult {
    pub attempted: usize,
    pub failed: usize,
    /// `(name, unit, value)` in report order.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// The human-readable report.
    pub table: String,
}

impl WorkloadResult {
    /// The one-line JSON result: correct, attempted, failed, metrics.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, u, v)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", json_num(*v)))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Shortest round-trip form: every digit measured, and valid JSON.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

fn sample_row(table: &mut String, name: &str, unit: &str, v: &[f64]) {
    let (q1, q3) = quartiles(v);
    let _ = writeln!(
        table,
        "  {name:<44} {:>14.6} {unit:<13} q1 {q1:.6} q3 {q3:.6} n {}",
        median(v),
        v.len()
    );
}

/// Run one workload: warm-up, timed reps, and with `trace` the traced rep
/// and telemetry probe.
pub fn run_workload(w: Workload, seed: u64, mode: Mode, trace: bool) -> WorkloadResult {
    let smoke = matches!(mode, Mode::Smoke);
    let opts = Opts { seed, smoke, traced: false };
    let mut table = format!(
        "== {} ({}, seed {seed}{}{})\n",
        w.name(),
        w.config(),
        if smoke { ", smoke size" } else { "" },
        if w.telemetry() { ", telemetry on" } else { "" }
    );
    let mut tally = Tally::default();
    let pinned = if smoke { None } else { pin(w, seed) };

    // The warm-up rep is discarded for timing; every other rep's simulated
    // results must match it.
    let expected = measure(w, &opts, w.telemetry()).out;
    tally.check("warm-up", verdict(&expected, None, pinned));
    let mut speed_ref_s = calib::time_s();
    let mut reps: Vec<Rep> = Vec::new();
    let started = Instant::now();
    loop {
        let done = match mode {
            Mode::Smoke => !reps.is_empty(),
            Mode::Reps(n) => reps.len() >= n,
            Mode::Seconds(s) => reps.len() >= MIN_REPS && started.elapsed().as_secs_f64() >= s,
        };
        if done {
            break;
        }
        let rep = calibrated(w, &opts, w.telemetry(), &mut speed_ref_s);
        tally.check(&format!("rep {}", reps.len()), verdict(&rep.out, Some(&expected), pinned));
        reps.push(rep);
    }

    // Set-up alone, repeated for a second: many samples, calibrated
    // against a reference workload re-timed every 0.1 s, keep the median
    // steady even for set-ups of a few microseconds. They are restated
    // with exponent 1: the per-workload exponents were fitted on run
    // times only.
    let mut setup_s = Vec::new();
    let started = Instant::now();
    let mut calibrated_at = Instant::now();
    while setup_s.len() < if smoke { 1 } else { SETUP_MIN }
        || (!smoke && started.elapsed().as_secs_f64() < SETUP_SECONDS)
    {
        if calibrated_at.elapsed().as_secs_f64() > 0.1 {
            speed_ref_s = calib::time_s();
            calibrated_at = Instant::now();
        }
        setup_s.push(setup_only(w, &opts, w.telemetry()) * calib::to_reference(speed_ref_s, 1.0));
    }

    let col = |f: fn(&Rep) -> f64| reps.iter().map(f).collect::<Vec<f64>>();
    let parcels_per_s = col(|r| r.out.delivered as f64 / r.ref_run_s);
    let peak_mb = col(|r| r.peak_bytes as f64 / 1e6);

    let _ = writeln!(
        table,
        "  simulated: {} ({} ns), {} parcels, {} events; {}",
        w.headline_text(&expected),
        expected.headline_ns,
        expected.delivered,
        expected.events,
        match pinned {
            Some(p) => format!("pin {p} ns, drift {}%", drift_pct(expected.headline_ns, p)),
            None => "not pinned at this seed and size".into(),
        }
    );
    let _ =
        writeln!(table, "  end to end (tracing off; times at reference host speed, see calib.rs):");
    sample_row(&mut table, "parcels_per_s", "1/s", &parcels_per_s);
    sample_row(&mut table, "setup_s", "s", &setup_s);
    sample_row(&mut table, "peak_heap_mb", "MB", &peak_mb);
    sample_row(&mut table, "(run_s, as measured)", "s", &col(|r| r.run_s));
    sample_row(&mut table, "(host speed / reference)", "x", &col(|r| r.speed));

    let metrics = if trace {
        let traced_opts = Opts { traced: true, ..opts };
        let traced = calibrated(w, &traced_opts, w.telemetry(), &mut speed_ref_s);
        let probe = telemetry_probe(w, seed, &mut tally);
        let (m, span_error) = per_layer(pinned, &reps, &traced, &probe);
        tally.check("traced rep", verdict(&traced.out, Some(&expected), pinned).or(span_error));
        let _ = writeln!(table, "  per layer (one traced rep; telemetry probe at smoke size):");
        for (name, unit, v) in &m {
            let _ = writeln!(table, "  {name:<44} {v:>14.6} {unit}");
        }
        m
    } else {
        let values = [median(&parcels_per_s), median(&setup_s), median(&peak_mb)];
        E2E.iter().zip(values).map(|(&(n, u), v)| (n, u, v)).collect()
    };

    for f in &tally.notes {
        let _ = writeln!(table, "  FAILED {f}");
    }
    let _ = writeln!(table, "  failed reps: {} of {}", tally.failed, tally.attempted);
    WorkloadResult { attempted: tally.attempted, failed: tally.failed, metrics, table }
}

/// Checked reps, failed reps, and why they failed.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
    notes: Vec<String>,
}

impl Tally {
    fn check(&mut self, label: &str, why: Option<String>) {
        self.attempted += 1;
        if let Some(why) = why {
            self.failed += 1;
            self.notes.push(format!("{label}: {why}"));
        }
    }
}

struct Probe {
    overhead_x: f64,
    heap_bytes_per_parcel: f64,
    record_s: f64,
    record_bytes: f64,
}

/// Telemetry's host cost on this workload: smoke-size reps with a
/// collector and without, in alternating pairs. The collector must not
/// change the simulated results.
fn telemetry_probe(w: Workload, seed: u64, tally: &mut Tally) -> Probe {
    let opts = Opts { seed, smoke: true, traced: false };
    let (mut ratio, mut heap, mut rec_s, mut rec_b) = (vec![], vec![], vec![], vec![]);
    measure(w, &opts, false); // warm-up
    for i in 0..PROBE_PAIRS {
        let off = measure(w, &opts, false);
        let on = measure(w, &opts, true);
        tally.check(
            &format!("telemetry probe pair {i}"),
            (on.out != off.out).then(|| "telemetry changed the simulated results".to_string()),
        );
        ratio.push(on.run_s / off.run_s);
        heap.push((on.peak_bytes - off.peak_bytes) as f64 / on.out.delivered.max(1) as f64);
        let (s, b) = on.record.expect("telemetry rep captures a record");
        rec_s.push(s);
        rec_b.push(b as f64);
    }
    Probe {
        overhead_x: median(&ratio),
        heap_bytes_per_parcel: median(&heap),
        record_s: median(&rec_s),
        record_bytes: median(&rec_b),
    }
}

/// The per-layer metrics, and what is wrong with the traced rep's spans.
fn per_layer(
    pinned: Option<u64>,
    reps: &[Rep],
    traced: &Rep,
    probe: &Probe,
) -> (Vec<(&'static str, &'static str, f64)>, Option<String>) {
    let mut span_error = None;
    let layers = match traced.layers.clone().expect("traced rep") {
        Ok(l) => l,
        Err(e) => {
            span_error = Some(e);
            [LayerStat::default(); 5]
        }
    };
    let st = |l: Layer| layers[l as usize];
    let per = |num: f64, den: u64| if den == 0 { 0.0 } else { num / den as f64 };
    let covered_s: f64 = layers.iter().map(|s| s.self_ns as f64 / 1e9).sum();
    let residual_s = traced.run_s - covered_s;
    if residual_s < 0.0 {
        span_error = Some(format!("spans cover {covered_s} s of a {} s run", traced.run_s));
    }
    let out = &traced.out;
    let parcels = out.delivered;
    let (epochs, engine_per_nested) = match out.shard {
        Some((epochs, engine)) => (epochs as f64, per(engine as f64, out.events)),
        // The single-heap engine: one epoch, one engine event per event.
        None => (1.0, 1.0),
    };
    let untraced_run = median(&reps.iter().map(|r| r.ref_run_s).collect::<Vec<_>>());
    let run_allocs = median(&reps.iter().map(|r| r.run_allocs as f64).collect::<Vec<_>>());
    let setup_allocs = median(&reps.iter().map(|r| r.setup_allocs as f64).collect::<Vec<_>>());
    let drift = pinned.map_or(0.0, |p| drift_pct(out.headline_ns, p));

    let mut v: Vec<f64> = Vec::new();
    for l in [Layer::Progress, Layer::Put, Layer::Send] {
        let s = st(l);
        v.push(s.self_ns as f64 / 1e9);
        v.push(s.calls as f64);
        v.push(per(s.self_ns as f64, s.calls));
        if l == Layer::Progress {
            v.push(per(s.useful as f64, s.calls));
        }
        v.push(per(s.self_allocs as f64, s.calls));
    }
    let d = st(Layer::Deliver);
    v.extend([d.self_ns as f64 / 1e9, d.calls as f64]);
    let a = st(Layer::App);
    v.extend([a.self_ns as f64 / 1e9, a.calls as f64, per(a.self_allocs as f64, a.calls)]);
    v.extend([
        residual_s,
        out.events as f64,
        per(out.events as f64, parcels),
        per(residual_s * 1e9, out.events),
        epochs,
        engine_per_nested,
        per(run_allocs, parcels),
        setup_allocs,
        out.tasks_run as f64,
        per(out.parcels_sent as f64, out.messages_sent),
        probe.overhead_x,
        probe.heap_bytes_per_parcel,
        probe.record_s,
        probe.record_bytes,
        (traced.ref_run_s / untraced_run - 1.0) * 100.0,
        drift,
    ]);
    assert_eq!(v.len(), PER_LAYER.len(), "one value per per-layer metric");
    (PER_LAYER.iter().zip(v).map(|(&(n, u), x)| (n, u, x)).collect(), span_error)
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    #[test]
    fn benchmark_json_names_match_and_a_rename_is_caught() {
        check_names(BENCHMARK_JSON).expect("BENCHMARK.json agrees with hostbench");
        let renamed = BENCHMARK_JSON.replacen("\"parcels_per_s\"", "\"msgs_per_s\"", 1);
        assert!(check_names(&renamed).unwrap_err().contains("end_to_end"));
        let renamed = BENCHMARK_JSON.replacen("\"octotiger_l5\"", "\"octotiger_l4\"", 1);
        assert!(check_names(&renamed).unwrap_err().contains("workloads"));
        let renamed = BENCHMARK_JSON.replacen("\"app.calls\"", "\"app.count\"", 1);
        assert!(check_names(&renamed).unwrap_err().contains("per_layer"));
    }

    /// `--smoke` end to end: every workload, both views, through the JSON
    /// line that `BENCHMARK.json`'s command prints last.
    #[test]
    fn smoke_runs_are_correct_and_emit_every_metric() {
        for w in Workload::ALL {
            for (trace, names) in [(false, &E2E[..]), (true, &PER_LAYER[..])] {
                let r = run_workload(w, 1, Mode::Smoke, trace);
                assert_eq!(r.failed, 0, "{}", r.table);
                let doc = telemetry::json::parse(&r.json()).expect("result line is JSON");
                assert_eq!(doc.get("failed").and_then(|v| v.as_f64()), Some(0.0));
                let metrics = doc.get("metrics").expect("metrics");
                for (name, unit) in names {
                    let m = metrics.get(name).unwrap_or_else(|| panic!("{}: no {name}", w.name()));
                    assert_eq!(m.get("unit").and_then(|u| u.as_str()), Some(*unit));
                    assert!(m.get("value").and_then(|v| v.as_f64()).is_some_and(f64::is_finite));
                }
            }
        }
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
