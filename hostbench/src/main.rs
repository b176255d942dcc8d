//! hostbench — what it costs the host to run the simulator, end to end and
//! layer by layer, over five workloads (see README.md in this directory).
//!
//! ```text
//! hostbench [--workload NAME]... [--seed S] [--seconds T | --reps N]
//!           [--trace 0|1] [--smoke] [--json FILE]
//! ```
//!
//! Per workload: one discarded warm-up rep, then timed reps for `T`
//! seconds (or exactly `N` reps; default 10) with tracing off. Every rep
//! builds its world (set-up) and runs it to completion (run), on this one
//! thread. `--trace 1` adds one traced rep and a telemetry probe and
//! reports the per-layer metrics instead of the end-to-end ones. Each
//! workload prints a table, then one JSON line
//! `{"correct", "attempted", "failed", "metrics"}`.
//!
//! Exit codes: 0 all reps correct, 1 a rep failed, 2 bad usage or the
//! metric names disagree with BENCHMARK.json.

mod alloc;
mod calib;
mod report;
mod spans;
mod workloads;

use std::process::ExitCode;

use report::{check_names, run_workload, Mode};
use workloads::Workload;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage: hostbench [--workload NAME]... [--seed S] [--seconds T | --reps N] \
                     [--trace 0|1] [--smoke] [--json FILE]";

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    mode: Mode,
    trace: bool,
    json: Option<String>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a =
        Args { workloads: Vec::new(), seed: 1, mode: Mode::Reps(10), trace: false, json: None };
    let mut smoke = false;
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                a.workloads.push(Workload::parse(&v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                a.mode = Mode::Seconds(s);
            }
            "--reps" => {
                let n: usize = value()?.parse().map_err(|e| format!("--reps: {e}"))?;
                if n < 1 {
                    return Err("--reps must be at least 1".into());
                }
                a.mode = Mode::Reps(n);
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            "--smoke" => smoke = true,
            "--json" => a.json = Some(value()?),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    if smoke {
        a.mode = Mode::Smoke;
    }
    if a.workloads.is_empty() {
        a.workloads = Workload::ALL.to_vec();
    }
    Ok(a)
}

fn main() -> ExitCode {
    if let Err(e) = check_names(include_str!("../../BENCHMARK.json")) {
        eprintln!("hostbench: BENCHMARK.json disagrees with the benchmark: {e}");
        return ExitCode::from(2);
    }
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hostbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut all_correct = true;
    let mut lines = Vec::new();
    for &w in &args.workloads {
        let res = run_workload(w, args.seed, args.mode, args.trace);
        print!("{}", res.table);
        let line = res.json();
        println!("{line}");
        all_correct &= res.failed == 0;
        lines.push(line);
    }
    if let Some(path) = &args.json {
        if let Err(e) = std::fs::write(path, lines.join("\n") + "\n") {
            eprintln!("hostbench: writing {path}: {e}");
            return ExitCode::from(2);
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn cli_defaults_and_benchmark_flags() {
        let a = args("").expect("defaults");
        assert_eq!(a.workloads, Workload::ALL.to_vec());
        assert!(matches!(a.mode, Mode::Reps(10)));
        let a = args("--workload octotiger_l5 --seed 7 --seconds 10 --trace 1")
            .expect("benchmark flags");
        assert_eq!(a.workloads, vec![Workload::Octotiger]);
        assert_eq!(a.seed, 7);
        assert!(a.trace);
        assert!(matches!(a.mode, Mode::Seconds(s) if s == 10.0));
        assert!(matches!(args("--smoke --reps 3").expect("smoke").mode, Mode::Smoke));
    }

    #[test]
    fn cli_rejects_bad_input() {
        for bad in ["--workload nope", "--trace 2", "--seconds 0", "--reps 0", "--seed", "--frob"] {
            assert!(args(bad).is_err(), "{bad} accepted");
        }
    }
}
