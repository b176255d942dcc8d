//! Diff two run records and gate on the result — the cross-run
//! differential attribution tool.
//!
//! `perf_diff BASE HEAD` loads two `--record` documents and prints the
//! structural diff: end-to-end movement, the ranked critical-path delta
//! table (whose entries sum *exactly* to the end-to-end delta — the
//! partition identity carried across runs), per-bucket histogram
//! shifts, counter/gauge/resource movement, and the core-profile state
//! breakdown.
//!
//! As a CI gate it exits non-zero when the head run regressed past the
//! threshold:
//!
//! * exit 1 — *explained* regression: end-to-end grew by more than
//!   `--max-regress-pct` (default 1%), but the critical-path delta
//!   table localizes at least `--min-localize` percent (default 90) of
//!   the regression-direction movement to named components.
//! * exit 2 — **unexplained** regression, the loudest failure: the
//!   regression exceeds the threshold and attribution localizes *less*
//!   than `--min-localize` percent to named components — the slowdown
//!   hides in residual `cpu`/`startup` time, so the delta table cannot
//!   say which mechanism to blame.
//!
//! Because both records hold virtual-time quantities from the
//! deterministic simulator, every delta printed here is exact — there
//! is no run-to-run noise floor, which is why the default threshold can
//! be tight. `--max-events-pct` optionally also gates on the
//! wall-clock-independent event count.
//!
//! `--json FILE` writes the machine-readable report; `--overlay FILE`
//! writes a side-by-side Chrome trace of both records' critical-path
//! partitions (base = process 0, head = process 1) for visual A/B in
//! Perfetto.
//!
//! Usage:
//!   `perf_diff BASE HEAD [--json FILE] [--overlay FILE]`
//!   `          [--max-regress-pct P] [--min-localize PCT] [--max-events-pct P]`

use telemetry::record::RunRecord;
use telemetry::RecordDiff;

fn main() {
    let mut paths: Vec<String> = Vec::new();
    let mut json_out: Option<String> = None;
    let mut overlay_out: Option<String> = None;
    let mut max_regress_pct = 1.0f64;
    let mut min_localize = 90.0f64;
    let mut max_events_pct: Option<f64> = None;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => json_out = Some(need(&mut it, "--json")),
            "--overlay" => overlay_out = Some(need(&mut it, "--overlay")),
            "--max-regress-pct" => max_regress_pct = need_f64(&mut it, "--max-regress-pct"),
            "--min-localize" => min_localize = need_f64(&mut it, "--min-localize"),
            "--max-events-pct" => max_events_pct = Some(need_f64(&mut it, "--max-events-pct")),
            other if !other.starts_with("--") && paths.len() < 2 => paths.push(other.to_string()),
            other => die(&format!("unexpected argument {other:?}")),
        }
    }
    if paths.len() != 2 {
        die("usage: perf_diff BASE HEAD [--json FILE] [--overlay FILE] \
             [--max-regress-pct P] [--min-localize PCT] [--max-events-pct P]");
    }
    let base = load(&paths[0]);
    let head = load(&paths[1]);
    // Engine sharding (shards / run_mode) must not change simulated
    // results, so records differing only there stay comparable; a
    // workload mismatch gets a loud warning but still diffs (comparing
    // across workloads is sometimes deliberate).
    if !base.meta.comparable_to(&head.meta) {
        eprintln!(
            "perf_diff: WARNING — records describe different workloads \
             ({} vs {}); deltas attribute workload changes, not code changes",
            base.label(),
            head.label()
        );
    } else if base.meta.shards != head.meta.shards || base.meta.run_mode != head.meta.run_mode {
        println!(
            "note: runs differ only in engine sharding \
             (shards {:?} -> {:?}, mode {:?} -> {:?}); results must be identical \
             by the determinism contract",
            base.meta.shards, head.meta.shards, base.meta.run_mode, head.meta.run_mode
        );
    }
    let diff = RecordDiff::between(&base, &head);
    print!("{}", diff.to_text());

    if let Some(path) = &json_out {
        std::fs::write(path, diff.to_json())
            .unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
        println!("wrote diff report -> {path}");
    }
    if let Some(path) = &overlay_out {
        std::fs::write(path, overlay_trace(&base, &head))
            .unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
        println!("wrote critical-path overlay trace -> {path}");
    }

    // The gate. Regressions are growth in end-to-end virtual time; all
    // quantities are deterministic, so the comparison is exact.
    let regress_pct = diff.end_to_end.pct();
    let localize_pct = diff.localization() * 100.0;
    if let Some(limit) = max_events_pct {
        let ev_pct = diff.events.pct();
        if ev_pct.abs() > limit {
            eprintln!(
                "perf_diff: FAIL — event count moved {ev_pct:+.2}% \
                 (limit ±{limit}%): {} -> {}",
                diff.events.base, diff.events.head
            );
            std::process::exit(1);
        }
    }
    if regress_pct > max_regress_pct {
        if diff.critpath_exact && localize_pct < min_localize {
            eprintln!(
                "perf_diff: FAIL (UNEXPLAINED) — end-to-end regressed {regress_pct:+.2}% \
                 (limit {max_regress_pct}%) and only {localize_pct:.1}% of the movement \
                 lands on named components (need {min_localize}%) — the regression hides \
                 in residual cpu/startup attribution"
            );
            std::process::exit(2);
        }
        eprintln!(
            "perf_diff: FAIL — end-to-end regressed {regress_pct:+.2}% \
             (limit {max_regress_pct}%), localization {localize_pct:.1}%"
        );
        std::process::exit(1);
    }
    println!(
        "perf_diff: OK — end-to-end {regress_pct:+.2}% (limit {max_regress_pct}%), \
         localization {localize_pct:.1}%"
    );
}

fn need(it: &mut impl Iterator<Item = String>, flag: &str) -> String {
    it.next().unwrap_or_else(|| die(&format!("{flag} needs a value")))
}

fn need_f64(it: &mut impl Iterator<Item = String>, flag: &str) -> f64 {
    let v = need(it, flag);
    v.parse().unwrap_or_else(|_| die(&format!("{flag}: {v:?} is not a number")))
}

fn die(msg: &str) -> ! {
    eprintln!("perf_diff: {msg}");
    std::process::exit(1);
}

fn load(path: &str) -> RunRecord {
    let src =
        std::fs::read_to_string(path).unwrap_or_else(|e| die(&format!("cannot read {path}: {e}")));
    RunRecord::from_json(&src).unwrap_or_else(|e| die(&format!("{path}: {e}")))
}

/// A side-by-side Chrome trace of both records' critical-path
/// partitions: the base run's segments under process 0, the head run's
/// under process 1, so Perfetto shows the two paths stacked for visual
/// comparison. Timestamps are microseconds (virtual ns / 1000).
fn overlay_trace(base: &RunRecord, head: &RunRecord) -> String {
    let mut events: Vec<String> = Vec::new();
    for (pid, rec) in [(0u32, base), (1u32, head)] {
        events.push(format!(
            "{{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":{pid},\"tid\":0,\"ts\":0,\
             \"args\":{{\"name\":\"{}\"}}}}",
            simcore::escape_json(&rec.label())
        ));
        if let Some(cp) = &rec.critpath {
            for seg in &cp.segments {
                events.push(format!(
                    "{{\"ph\":\"X\",\"name\":\"{}\",\"pid\":{pid},\"tid\":\"critpath\",\
                     \"ts\":{:.3},\"dur\":{:.3}}}",
                    simcore::escape_json(&seg.component),
                    seg.start as f64 / 1_000.0,
                    seg.len_ns() as f64 / 1_000.0
                ));
            }
        }
    }
    format!("[{}]", events.join(","))
}
