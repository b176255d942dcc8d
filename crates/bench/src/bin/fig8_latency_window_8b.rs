//! Figure 8: 8 B message latency vs. window size (1-64 concurrent
//! ping-pong chains).
//!
//! Paper shape: latency grows with window everywhere; `mpi_i` starts much
//! better than `mpi` but crosses over around window 8;
//! `lci_psr_cq_pin_i` is best at almost every window.
//!
//! With `--trace FILE` / `--breakdown` / `--json FILE` / `--profile` /
//! `--folded FILE` the harness runs a reduced instrumented pass at
//! window 64 instead of the full sweep: a per-stage latency breakdown,
//! a contention report, and (with `--profile`) the per-core
//! virtual-time state table for every Table-1 configuration (see
//! `bench::trace`). The `--profile` contrast to look for: `mpi` worker
//! cores burn a large share in progress + lock-wait, while `lci_psr`
//! variants concentrate progress on the pinned core 0.
//!
//! `--critpath` prints the causal critical-path report per configuration
//! (and highlights the path in the `--trace` export); `--whatif KNOBS`
//! runs the predicted-vs-measured speedup sweep plus the five-mechanism
//! attribution of the window-64 MPI-vs-LCI gap, writing
//! `BENCH_whatif.json`.

use bench::cli::{dispatch, instrumented_for, TraceArgs};
use bench::report::{fmt_us, Table};
use bench::trace::TraceSink;
use bench::{
    bench_scale, five_mechanism_attribution, run_latency, whatif_json, whatif_latency, whatif_text,
    LatencyParams,
};
use parcelport::PpConfig;

/// The configuration nominated for the `--trace` Chrome export.
const TRACE_CONFIG: &str = "lci_psr_cq_pin_i";

fn instrumented_pass(targs: &TraceArgs, scale: f64) {
    let mut sink = TraceSink::new(targs, "fig8_latency_window_8b");
    let traced: Vec<PpConfig> = if targs.wants_reports() {
        PpConfig::paper_set()
    } else {
        vec![TRACE_CONFIG.parse().unwrap()]
    };
    let window = targs.param_usize("window", 64);
    let steps = targs.param_usize("steps", ((100f64 * scale) as usize).max(25));
    sink.set_params(&[("window", window.to_string()), ("steps", steps.to_string())]);
    println!("instrumented pass: window {window}, telemetry enabled");
    for cfg in traced {
        let (r, tel) = instrumented_for(targs, || {
            let mut p = LatencyParams::new(cfg, 8);
            p.window = window;
            p.steps = steps;
            targs.apply_dials(&mut p.config, &mut p.cost, &mut p.wire);
            p.engine = targs.engine();
            run_latency(&p)
        });
        let name = cfg.to_string();
        let rec = sink.capture(&tel, &name);
        println!("{name}: one-way {} flows {}", fmt_us(r.one_way_us), rec.flows_total);
        sink.emit(&rec, name == TRACE_CONFIG);
    }
    sink.finish();
}

/// What-if pass (`--whatif KNOBS`): predicted-vs-measured speedups on
/// the window-64 scenario, plus the five-mechanism attribution of the
/// MPI-vs-LCI gap; writes `BENCH_whatif.json`.
fn whatif_pass(targs: &TraceArgs, scale: f64) {
    let knobs = targs.whatif_knobs().expect("--whatif parsed");
    let mut p = LatencyParams::new(TRACE_CONFIG.parse().unwrap(), 8);
    p.window = 64;
    p.steps = ((100f64 * scale) as usize).max(25);
    println!("what-if pass: window 64, {} knobs on {TRACE_CONFIG}", knobs.len());
    let (cp, rows) = whatif_latency(&p, &knobs);
    let (t_mpi, t_lci, mech) = five_mechanism_attribution(64, p.steps, p.cores);
    print!("{}", whatif_text(TRACE_CONFIG, &rows, Some((t_mpi, t_lci, &mech))));
    let json = whatif_json(TRACE_CONFIG, &cp, &rows, Some((t_mpi, t_lci, &mech)));
    std::fs::write("BENCH_whatif.json", json).expect("write BENCH_whatif.json");
    println!("wrote BENCH_whatif.json");
}

fn main() {
    let scale = bench_scale();
    let windows = [1usize, 2, 4, 8, 16, 32, 64];
    let targs = TraceArgs::parse();
    if dispatch(&targs, || whatif_pass(&targs, scale), || instrumented_pass(&targs, scale)) {
        return;
    }
    println!("Figure 8: one-way latency (us) of 8B messages vs window size");
    if let Some(banner) = targs.engine_banner() {
        println!("{banner}");
    }
    println!();
    let mut header = vec!["config".to_string()];
    header.extend(windows.iter().map(|w| format!("w{w}")));
    let mut t = Table::new(header);
    for cfg in PpConfig::paper_set() {
        let mut row = vec![cfg.to_string()];
        for &w in &windows {
            let mut p = LatencyParams::new(cfg, 8);
            p.window = w;
            p.steps = ((400f64 * scale) as usize).max(40);
            p.engine = targs.engine();
            let r = run_latency(&p);
            row.push(format!("{}{}", fmt_us(r.one_way_us), if r.completed { "" } else { "*" }));
        }
        t.row(row);
    }
    t.print();
    println!();
    println!("paper: latency increases with window; mpi_i beats mpi at small windows but");
    println!("crosses over near window 8; lci_psr_cq_pin_i best almost everywhere.");
}
