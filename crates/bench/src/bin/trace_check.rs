//! Validate observability artifacts produced by the figure harnesses.
//!
//! Default mode checks a Chrome-trace JSON file produced by `--trace`:
//! parse the event array and check the invariants Perfetto relies on
//! (complete spans with durations, matched `s`/`f` flow-event pairs,
//! numeric timestamps, counter samples with values, counter tracks with
//! time-ordered samples). `--folded FILE` instead validates a
//! folded-stack file produced by `--folded` (the `inferno` /
//! `flamegraph.pl` input format). Exits non-zero on any violation — the
//! CI trace smoke step runs this over reduced `fig1` exports.
//!
//! `--require-critpath` additionally validates the causal critical-path
//! track written by `--critpath --trace`: highlighted spans exist on the
//! `critpath` track, they form one connected chain in time starting at
//! zero, and their durations sum to the `critpath.total_us` counter —
//! the same partition identity the analyzer asserts internally.
//!
//! `--require-timeline FILE` instead validates a windowed-timeline JSON
//! document produced by `--timeline`: windows are non-empty, strictly
//! consecutive from index 0, and gap-free (`start_ns == index *
//! window_ns`, `end_ns == start_ns + window_ns`); per-window quantiles
//! are ordered; every histogram's per-window counts/sums/mins/maxes
//! merge exactly to the run totals; every counter's per-window deltas
//! sum to the run total; alerts land inside the covered horizon.
//!
//! `--require-record FILE` validates a run-record document produced by
//! `--record`: it parses (schema version, histogram bucket counts
//! consistent with declared counts — both enforced by the parser), the
//! critical-path component table sums exactly to the end-to-end total,
//! the segment list is a gap-free partition of `[0, total_ns]` whose
//! per-component sums reproduce the component table, delivered flows do
//! not exceed started flows, and any window digest merges back to the
//! run totals (per-key window counts/sums equal the full histogram,
//! per-key window deltas equal the counter) — the same identities the
//! diff engine relies on.
//!
//! Usage:
//!   `trace_check FILE [--require-flows] [--require-counters] [--require-critpath]`
//!   `trace_check --folded FILE`
//!   `trace_check --require-timeline FILE`
//!   `trace_check --require-record FILE`

use telemetry::json::{parse, Value};
use telemetry::record::RunRecord;

fn main() {
    let mut path = None;
    let mut require_flows = false;
    let mut require_counters = false;
    let mut require_critpath = false;
    let mut folded = false;
    let mut timeline = false;
    let mut record = false;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--require-flows" => require_flows = true,
            "--require-counters" => require_counters = true,
            "--require-critpath" => require_critpath = true,
            "--folded" => {
                folded = true;
                path = Some(it.next().unwrap_or_else(|| die("--folded needs a file path")));
            }
            "--require-timeline" => {
                timeline = true;
                path =
                    Some(it.next().unwrap_or_else(|| die("--require-timeline needs a file path")));
            }
            "--require-record" => {
                record = true;
                path = Some(it.next().unwrap_or_else(|| die("--require-record needs a file path")));
            }
            other if path.is_none() => path = Some(other.to_string()),
            other => die(&format!("unexpected argument {other:?}")),
        }
    }
    let path = path.unwrap_or_else(|| {
        die("usage: trace_check FILE [--require-flows] [--require-counters] \
             [--require-critpath] | --folded FILE | --require-timeline FILE | \
             --require-record FILE");
    });
    let src =
        std::fs::read_to_string(&path).unwrap_or_else(|e| die(&format!("cannot read {path}: {e}")));
    let result = if folded {
        validate_folded(&src)
    } else if timeline {
        validate_timeline(&src)
    } else if record {
        validate_record(&src)
    } else {
        validate(&src, require_flows, require_counters, require_critpath)
    };
    match result {
        Ok(summary) => println!("{path}: OK — {summary}"),
        Err(e) => die(&format!("{path}: INVALID — {e}")),
    }
}

fn die(msg: &str) -> ! {
    eprintln!("trace_check: {msg}");
    std::process::exit(1);
}

fn validate(
    src: &str,
    require_flows: bool,
    require_counters: bool,
    require_critpath: bool,
) -> Result<String, String> {
    let doc = parse(src)?;
    let events = doc.as_arr().ok_or("top level is not an array")?;
    if events.is_empty() {
        return Err("empty trace".into());
    }
    let mut spans = 0usize;
    let mut counters = 0usize;
    let mut crit_spans: Vec<(f64, f64)> = Vec::new();
    let mut crit_total_us: Option<f64> = None;
    let mut starts: Vec<u64> = Vec::new();
    let mut finishes: Vec<u64> = Vec::new();
    let mut tracks = std::collections::BTreeSet::new();
    // Counter tracks must be internally time-ordered or Perfetto draws
    // them as garbage; remember the last ts per counter name.
    let mut counter_last_ts: std::collections::BTreeMap<String, f64> =
        std::collections::BTreeMap::new();
    for (i, e) in events.iter().enumerate() {
        let ph = e
            .get("ph")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("event {i}: missing \"ph\""))?;
        let name = e
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("event {i}: missing \"name\""))?;
        let ts = e
            .get("ts")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("event {i}: missing \"ts\""))?;
        if !ts.is_finite() || ts < 0.0 {
            return Err(format!("event {i}: bad ts {ts}"));
        }
        match ph {
            "X" => {
                let dur = e
                    .get("dur")
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("event {i}: complete span without \"dur\""))?;
                if !dur.is_finite() || dur < 0.0 {
                    return Err(format!("event {i}: bad dur {dur}"));
                }
                let tid = e
                    .get("tid")
                    .and_then(Value::as_str)
                    .ok_or_else(|| format!("event {i}: span without \"tid\""))?;
                tracks.insert(tid.to_string());
                if tid == "critpath" {
                    crit_spans.push((ts, dur));
                }
                spans += 1;
            }
            "s" | "f" => {
                let id = e
                    .get("id")
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("event {i}: flow event without \"id\""))?;
                if ph == "s" { &mut starts } else { &mut finishes }.push(id as u64);
            }
            "C" => {
                let v = e
                    .get("args")
                    .and_then(|a| a.get("value"))
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("event {i}: counter without args.value"))?;
                if !v.is_finite() {
                    return Err(format!("event {i}: non-finite counter value"));
                }
                if let Some(&prev) = counter_last_ts.get(name) {
                    if ts < prev {
                        return Err(format!(
                            "event {i}: counter track {name:?} goes backwards \
                             ({ts} after {prev})"
                        ));
                    }
                }
                counter_last_ts.insert(name.to_string(), ts);
                if name == "critpath.total_us" {
                    crit_total_us = Some(v);
                }
                counters += 1;
            }
            // Metadata records (process/thread names); no invariants
            // beyond the name/ts checks above.
            "M" => {}
            other => return Err(format!("event {i}: unexpected phase {other:?}")),
        }
    }
    starts.sort_unstable();
    finishes.sort_unstable();
    if starts != finishes {
        return Err(format!(
            "unmatched flow events: {} starts vs {} finishes",
            starts.len(),
            finishes.len()
        ));
    }
    if require_flows && starts.is_empty() {
        return Err("no flow events (expected at least one traced parcel)".into());
    }
    if require_counters && counter_last_ts.is_empty() {
        return Err("no counter tracks (expected at least one sampled series)".into());
    }
    if require_critpath {
        check_critpath(&mut crit_spans, crit_total_us)?;
    }
    Ok(format!(
        "{} events: {spans} spans on {} tracks, {} flow arrows, \
         {counters} counter samples on {} counter tracks",
        events.len(),
        tracks.len(),
        starts.len(),
        counter_last_ts.len()
    ))
}

/// Validate the highlighted critical-path track: spans exist, form one
/// connected chain in time starting at zero, and their durations sum to
/// the reported end-to-end total. Timestamps are microsecond floats
/// (exact nanosecond values / 1000), so comparisons allow a hundredth of
/// a microsecond of rounding.
fn check_critpath(spans: &mut [(f64, f64)], total_us: Option<f64>) -> Result<(), String> {
    const TOL_US: f64 = 0.01;
    if spans.is_empty() {
        return Err("no critical-path spans (expected a highlighted \"critpath\" track)".into());
    }
    let total =
        total_us.ok_or("critical-path spans present but no \"critpath.total_us\" counter")?;
    spans.sort_by(|a, b| a.0.total_cmp(&b.0));
    if spans[0].0.abs() > TOL_US {
        return Err(format!("critical path starts at {}us, not 0", spans[0].0));
    }
    let mut cursor = 0.0f64;
    let mut sum = 0.0f64;
    for &(ts, dur) in spans.iter() {
        if (ts - cursor).abs() > TOL_US {
            return Err(format!(
                "critical path disconnected: span at {ts}us after chain ends at {cursor}us"
            ));
        }
        cursor = ts + dur;
        sum += dur;
    }
    if (sum - total).abs() > TOL_US.max(total * 1e-9) {
        return Err(format!(
            "on-path durations sum to {sum}us but reported end-to-end is {total}us"
        ));
    }
    Ok(())
}

/// Validate a folded-stack file: every line is `frame;frame;... WEIGHT`
/// with at least one non-empty `;`-separated frame and a non-negative
/// integer weight — exactly what `inferno-flamegraph` / `flamegraph.pl`
/// consume. Requires at least one stack.
fn validate_folded(src: &str) -> Result<String, String> {
    let mut lines = 0usize;
    let mut total: u64 = 0;
    let mut max_depth = 0usize;
    for (i, line) in src.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        let (stack, weight) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {}: no space-separated weight", i + 1))?;
        let w: u64 = weight.parse().map_err(|_| {
            format!("line {}: weight {weight:?} is not a non-negative integer", i + 1)
        })?;
        if stack.is_empty() {
            return Err(format!("line {}: empty stack", i + 1));
        }
        let frames: Vec<&str> = stack.split(';').collect();
        if frames.iter().any(|f| f.is_empty()) {
            return Err(format!("line {}: empty frame in {stack:?}", i + 1));
        }
        max_depth = max_depth.max(frames.len());
        total += w;
        lines += 1;
    }
    if lines == 0 {
        return Err("no stacks (empty folded file)".into());
    }
    Ok(format!("{lines} stacks, total weight {total}, max depth {max_depth}"))
}

/// The fields of an object value; absent or non-object yields the empty
/// slice (timeline windows omit empty sections).
fn obj_fields(v: Option<&Value>) -> &[(String, Value)] {
    match v {
        Some(Value::Obj(fields)) => fields,
        _ => &[],
    }
}

/// Validate a windowed-timeline JSON document (see `--require-timeline`
/// in the module docs): monotone gap-free window coverage, ordered
/// per-window quantiles, and the merge identity — per-window histogram
/// and counter series recombine exactly to the run totals.
fn validate_timeline(src: &str) -> Result<String, String> {
    use std::collections::BTreeMap;
    let doc = parse(src)?;
    let tl = doc.get("timeline").ok_or("no top-level \"timeline\" object")?;
    let field = |v: &Value, key: &str, what: &str| -> Result<f64, String> {
        v.get(key).and_then(Value::as_f64).ok_or_else(|| format!("{what}: missing {key:?}"))
    };
    let window_ns = field(tl, "window_ns", "timeline")?;
    if window_ns <= 0.0 || window_ns.fract() != 0.0 {
        return Err(format!("bad window_ns {window_ns}"));
    }
    let windows = tl.get("windows").and_then(Value::as_arr).ok_or("missing windows array")?;
    if windows.is_empty() {
        return Err("no windows".into());
    }
    // Per-key (count, sum, min, max) accumulated across windows, to hold
    // against the run totals; counters accumulate per-window deltas.
    let mut hist_acc: BTreeMap<&str, (f64, f64, f64, f64)> = BTreeMap::new();
    let mut counter_acc: BTreeMap<&str, f64> = BTreeMap::new();
    for (i, w) in windows.iter().enumerate() {
        let what = format!("window {i}");
        if field(w, "index", &what)? != i as f64 {
            return Err(format!("{what}: indices must be consecutive from 0"));
        }
        let start = field(w, "start_ns", &what)?;
        let end = field(w, "end_ns", &what)?;
        if start != i as f64 * window_ns || end != start + window_ns {
            return Err(format!(
                "{what}: covers [{start}, {end}) ns, expected [{}, {}) — gap or overlap",
                i as f64 * window_ns,
                (i + 1) as f64 * window_ns
            ));
        }
        for (key, h) in obj_fields(w.get("hists")) {
            let what = format!("window {i} hist {key:?}");
            let count = field(h, "count", &what)?;
            let sum = field(h, "sum", &what)?;
            let min = field(h, "min", &what)?;
            let max = field(h, "max", &what)?;
            let (p50, p90, p99, p999) = (
                field(h, "p50", &what)?,
                field(h, "p90", &what)?,
                field(h, "p99", &what)?,
                field(h, "p999", &what)?,
            );
            if !(p50 <= p90 && p90 <= p99 && p99 <= p999) {
                return Err(format!("{what}: quantiles out of order"));
            }
            if count > 0.0 && !(min <= p50 && p999 <= max) {
                return Err(format!("{what}: quantiles escape [min, max]"));
            }
            let e = hist_acc.entry(key).or_insert((0.0, 0.0, f64::INFINITY, f64::NEG_INFINITY));
            e.0 += count;
            e.1 += sum;
            if count > 0.0 {
                e.2 = e.2.min(min);
                e.3 = e.3.max(max);
            }
        }
        for (key, v) in obj_fields(w.get("counters")) {
            let delta = v.as_f64().ok_or_else(|| format!("{what}: bad counter {key:?}"))?;
            *counter_acc.entry(key).or_insert(0.0) += delta;
        }
    }
    let totals = tl.get("totals").ok_or("missing totals object")?;
    let total_hists = obj_fields(totals.get("hists"));
    if total_hists.len() != hist_acc.len() {
        return Err(format!(
            "windows cover {} histogram keys but totals list {}",
            hist_acc.len(),
            total_hists.len()
        ));
    }
    for (key, h) in total_hists {
        let what = format!("totals hist {key:?}");
        let &(count, sum, min, max) =
            hist_acc.get(key.as_str()).ok_or_else(|| format!("{what}: in no window"))?;
        if field(h, "count", &what)? != count || field(h, "sum", &what)? != sum {
            return Err(format!("{what}: window counts/sums do not merge to the total"));
        }
        if count > 0.0 && (field(h, "min", &what)? != min || field(h, "max", &what)? != max) {
            return Err(format!("{what}: window min/max do not merge to the total"));
        }
    }
    let total_counters = obj_fields(totals.get("counters"));
    if total_counters.len() != counter_acc.len() {
        return Err(format!(
            "windows cover {} counters but totals list {}",
            counter_acc.len(),
            total_counters.len()
        ));
    }
    for (key, v) in total_counters {
        let total = v.as_f64().ok_or_else(|| format!("totals counter {key:?}: bad value"))?;
        if counter_acc.get(key.as_str()) != Some(&total) {
            return Err(format!("totals counter {key:?}: window deltas do not sum to {total}"));
        }
    }
    let alerts = tl.get("alerts").and_then(Value::as_arr).unwrap_or(&[]);
    for (i, a) in alerts.iter().enumerate() {
        let what = format!("alert {i}");
        let w = field(a, "window", &what)?;
        if w >= windows.len() as f64 {
            return Err(format!("{what}: window {w} outside the covered horizon"));
        }
        if field(a, "end_ns", &what)? != (w + 1.0) * window_ns {
            return Err(format!("{what}: end_ns disagrees with its window"));
        }
    }
    let dumps = tl.get("dumps").and_then(Value::as_arr).map(<[Value]>::len).unwrap_or(0);
    Ok(format!(
        "{} windows x {} ns, {} histograms and {} counters merge to totals, \
         {} alerts, {dumps} dumps",
        windows.len(),
        window_ns,
        hist_acc.len(),
        counter_acc.len(),
        alerts.len()
    ))
}

/// Validate a run-record document (see `--require-record` in the module
/// docs): the parser already enforces the schema version and per-hist
/// bucket/count consistency; on top of that, re-check every structural
/// identity the diff engine gates on.
fn validate_record(src: &str) -> Result<String, String> {
    let rec = RunRecord::from_json(src)?;
    if rec.flows_delivered > rec.flows_total {
        return Err(format!(
            "{} flows delivered out of {} started",
            rec.flows_delivered, rec.flows_total
        ));
    }
    let mut crit_summary = "no critical path".to_string();
    if let Some(cp) = &rec.critpath {
        if rec.end_to_end_ns != cp.total_ns {
            return Err(format!(
                "end_to_end_ns {} disagrees with critpath total {}",
                rec.end_to_end_ns, cp.total_ns
            ));
        }
        let comp_sum: u64 = cp.components.iter().map(|c| c.on_path_ns).sum();
        if comp_sum != cp.total_ns {
            return Err(format!(
                "critical-path components sum to {comp_sum} ns, not the {} ns total",
                cp.total_ns
            ));
        }
        // The segment list must partition [0, total_ns] with no gap and
        // reproduce the component table when re-aggregated.
        let mut cursor = 0u64;
        let mut seg_by_comp: std::collections::BTreeMap<&str, u64> = Default::default();
        for (i, seg) in cp.segments.iter().enumerate() {
            if seg.start != cursor {
                return Err(format!(
                    "segment {i} starts at {} ns but the chain ends at {cursor} ns",
                    seg.start
                ));
            }
            if seg.end < seg.start {
                return Err(format!("segment {i} ends before it starts"));
            }
            *seg_by_comp.entry(seg.component.as_str()).or_insert(0) += seg.len_ns();
            cursor = seg.end;
        }
        if cursor != cp.total_ns {
            return Err(format!(
                "segments cover [0, {cursor}] ns, not the full [0, {}] makespan",
                cp.total_ns
            ));
        }
        for c in &cp.components {
            let (comp, ns) = (&c.component, c.on_path_ns);
            if seg_by_comp.get(comp.as_str()).copied().unwrap_or(0) != ns {
                return Err(format!(
                    "component {comp:?} claims {ns} ns on-path but its segments sum to {}",
                    seg_by_comp.get(comp.as_str()).copied().unwrap_or(0)
                ));
            }
        }
        crit_summary = format!(
            "critpath {} components / {} segments partition {} ns",
            cp.components.len(),
            cp.segments.len(),
            cp.total_ns
        );
    }
    // Window digests must merge back to the run totals for every key
    // they share with the record (the timeline merge invariant).
    let mut win_summary = "no window digest".to_string();
    if let Some(w) = &rec.windows {
        for (key, rows) in &w.hists {
            let Some(h) = rec.hists.get(key) else { continue };
            let count: u64 = rows.iter().map(|&(_, c, _)| c).sum();
            let sum: u64 = rows.iter().map(|&(_, _, s)| s).sum();
            if count != h.count() || sum != h.sum() {
                return Err(format!(
                    "window digest of hist {key:?} merges to count {count} / sum {sum}, \
                     but the run total is count {} / sum {}",
                    h.count(),
                    h.sum()
                ));
            }
        }
        for (key, rows) in &w.counters {
            let Some(&total) = rec.counters.get(key) else { continue };
            let merged: u64 = rows.iter().map(|&(_, d)| d).sum();
            if merged != total {
                return Err(format!(
                    "window digest of counter {key:?} merges to {merged}, \
                     but the run total is {total}"
                ));
            }
        }
        win_summary = format!("{} windows x {} ns merge to totals", w.num_windows, w.window_ns);
    }
    // A flow tracer that filled up turned parcels away: say how many, so
    // a reader does not take the flow totals for every parcel.
    let untracked = match rec.flows_untracked {
        0 => String::new(),
        n => format!("; {n} parcels untracked (flow tracer full)"),
    };
    Ok(format!(
        "run record {} v{}: {} ns end-to-end, {} events, {} counters, {} hists, \
         {} cores, {} resources; {crit_summary}; {win_summary}{untracked}",
        rec.label(),
        rec.version,
        rec.end_to_end_ns,
        rec.events,
        rec.counters.len(),
        rec.hists.len(),
        rec.profile.len(),
        rec.resources.len()
    ))
}
