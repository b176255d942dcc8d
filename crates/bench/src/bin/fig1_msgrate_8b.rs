//! Figure 1: achieved message rate of 8 B messages vs. injection rate —
//! MPI vs. LCI with/without the send-immediate optimization.
//!
//! Paper shape: every configuration first tracks the attempted injection
//! rate, then plateaus — except `mpi`, whose achieved rate rises and then
//! *falls* under pressure; `lci_psr_cq_pin_i` plateaus highest.
//!
//! With `--trace FILE` / `--breakdown` / `--json FILE` / `--profile` /
//! `--folded FILE` the harness runs a reduced instrumented pass instead
//! of the full sweep (see `bench::trace`). `--profile` prints the
//! per-core virtual-time state table; `--folded` writes flamegraph
//! input.

use bench::cli::{dispatch, instrumented_for, TraceArgs};
use bench::report::{fmt_kps, Table};
use bench::trace::TraceSink;
use bench::{
    bench_scale, injection_grid_8b, run_msgrate, sweep_injection, whatif_json, whatif_sweep,
    whatif_text, MsgRateParams,
};

/// The configuration nominated for the `--trace` Chrome export (the
/// paper's best performer).
const TRACE_CONFIG: &str = "lci_psr_cq_pin_i";

fn instrumented_pass(targs: &TraceArgs, scale: f64, configs: &[&str]) {
    let mut sink = TraceSink::new(targs, "fig1_msgrate_8b");
    let traced: Vec<&str> =
        if targs.wants_reports() { configs.to_vec() } else { vec![TRACE_CONFIG] };
    let total_msgs = targs.param_usize("total_msgs", ((10_000f64 * scale) as usize).max(1_000));
    sink.set_params(&[("total_msgs", total_msgs.to_string())]);
    println!("instrumented pass: unlimited injection, telemetry enabled");
    for c in &traced {
        let (r, tel) = instrumented_for(targs, || {
            let mut p = MsgRateParams::small(c.parse().unwrap());
            p.total_msgs = total_msgs;
            targs.apply_dials(&mut p.config, &mut p.cost, &mut p.wire);
            p.engine = targs.engine();
            run_msgrate(&p)
        });
        println!("{c}: rate {} flows {}", fmt_kps(r.msg_rate), tel.flow_count());
        sink.emit(&tel, c, *c == TRACE_CONFIG);
    }
    sink.finish();
}

/// What-if pass (`--whatif KNOBS`): predicted-vs-measured speedups on
/// the unlimited-injection message-rate scenario; writes
/// `BENCH_whatif.json`.
fn whatif_pass(targs: &TraceArgs, scale: f64) {
    let knobs = targs.whatif_knobs().expect("--whatif parsed");
    let total_msgs = ((10_000f64 * scale) as usize).max(1_000);
    println!("what-if pass: unlimited injection, {} knobs on {TRACE_CONFIG}", knobs.len());
    let base = MsgRateParams::small(TRACE_CONFIG.parse().unwrap());
    let (cp, rows) = whatif_sweep(
        base.config,
        base.cost.clone(),
        base.wire.clone(),
        &knobs,
        |cfg, cost, wire| {
            let mut p = base.clone();
            p.config = cfg;
            p.cost = cost;
            p.wire = wire;
            p.total_msgs = total_msgs;
            run_msgrate(&p);
        },
    );
    print!("{}", whatif_text(TRACE_CONFIG, &rows, None));
    let json = whatif_json(TRACE_CONFIG, &cp, &rows, None);
    std::fs::write("BENCH_whatif.json", json).expect("write BENCH_whatif.json");
    println!("wrote BENCH_whatif.json");
}

fn main() {
    let scale = bench_scale();
    let configs = ["lci_psr_cq_pin", "lci_psr_cq_pin_i", "mpi", "mpi_i"];
    let targs = TraceArgs::parse();
    if dispatch(
        &targs,
        || whatif_pass(&targs, scale),
        || instrumented_pass(&targs, scale, &configs),
    ) {
        return;
    }
    println!("Figure 1: achieved message rate (K/s), 8B messages, batch 100");
    println!("(rows: attempted injection rate; columns: achieved injection / message rate)");
    if let Some(banner) = targs.engine_banner() {
        println!("{banner}");
    }
    println!();
    let mut header = vec!["attempted".to_string()];
    for c in configs {
        header.push(format!("{c} inj"));
        header.push(format!("{c} rate"));
    }
    let mut t = Table::new(header);
    let grid = injection_grid_8b();
    let mut sweeps = Vec::new();
    for c in configs {
        let mut p = MsgRateParams::small(c.parse().unwrap());
        p.total_msgs = (100_000f64 * scale) as usize;
        p.engine = targs.engine();
        sweeps.push(sweep_injection(&p, &grid));
    }
    for (i, &rate) in grid.iter().enumerate() {
        let mut row = vec![bench::fmt_rate(rate)];
        for s in &sweeps {
            let r = &s[i].1;
            row.push(fmt_kps(r.achieved_injection_rate));
            row.push(format!("{}{}", fmt_kps(r.msg_rate), if r.completed { "" } else { "*" }));
        }
        t.row(row);
    }
    t.print();
    println!();
    println!("paper: all plateau except mpi (rises then falls); lci_psr_cq_pin_i peaks ~750K/s,");
    println!("lci_psr_cq_pin and mpi ~400-420K/s, mpi_i ~490K/s. (* = hit safety deadline)");
}
