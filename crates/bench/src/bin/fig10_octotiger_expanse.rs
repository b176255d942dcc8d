//! Figure 10: Octo-Tiger strong scaling on SDSC Expanse.
//!
//! Paper: step count per second for `mpi`, `mpi_i`, and `lci`
//! (= `lci_psr_cq_rp_i`) over node counts up to 32; LCI wins by up to
//! 1.175x over `mpi` and up to 13.6x over `mpi_i` (which collapses on the
//! high-core-count nodes: profiling shows it spinning on the blocking
//! `ucp_progress` lock inside `MPI_Test`).

use bench::bench_scale;
use bench::cli::{dispatch, instrumented_for, TraceArgs};
use bench::report::Table;
use bench::trace::TraceSink;
use bench::{whatif_json, whatif_sweep, whatif_text};
use octotiger_mini::{run_octotiger, OctoParams};

/// The configuration nominated for the `--trace` Chrome export.
const TRACE_CONFIG: &str = "lci_psr_cq_pin_i";

/// Instrumented pass (`--trace` / `--breakdown` / `--json` /
/// `--profile` / `--folded`): a reduced 2-node application run per
/// configuration with telemetry enabled; the Chrome export shows one
/// track per core with parcel flow arrows crossing the two localities,
/// and `--profile` prints each core's virtual-time state shares.
fn instrumented_pass(targs: &TraceArgs, scale: f64, configs: &[&str]) {
    let mut sink = TraceSink::new(targs, "fig10_octotiger_expanse");
    let traced: Vec<&str> =
        if targs.wants_reports() { configs.to_vec() } else { vec![TRACE_CONFIG] };
    let level = targs.param_usize("level", 4) as u32;
    let steps = targs.param_usize("steps", if scale < 1.0 { 2 } else { 3 }) as u32;
    sink.set_params(&[
        ("localities", "2".to_string()),
        ("level", level.to_string()),
        ("steps", steps.to_string()),
    ]);
    println!("instrumented pass: 2 nodes, telemetry enabled");
    for c in &traced {
        let (r, tel) = instrumented_for(targs, || {
            let mut p = OctoParams::expanse(c.parse().unwrap(), 2);
            p.level = level;
            p.steps = steps;
            targs.apply_dials(&mut p.config, &mut p.cost, &mut p.wire);
            p.engine = targs.engine();
            run_octotiger(&p)
        });
        assert!(r.mass_ok, "{c}: invariant violated");
        println!("{c}: {:.3} steps/s, flows {}", r.steps_per_sec, tel.flow_count());
        sink.emit(&tel, c, *c == TRACE_CONFIG);
    }
    sink.finish();
}

/// What-if pass (`--whatif KNOBS`): predicted-vs-measured speedups on a
/// reduced 2-node application run; writes `BENCH_whatif.json`.
fn whatif_pass(targs: &TraceArgs, scale: f64) {
    let knobs = targs.whatif_knobs().expect("--whatif parsed");
    let base = OctoParams::expanse(TRACE_CONFIG.parse().unwrap(), 2);
    println!("what-if pass: 2 nodes, {} knobs on {TRACE_CONFIG}", knobs.len());
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
            p.level = 4;
            p.steps = if scale < 1.0 { 2 } else { 3 };
            let r = run_octotiger(&p);
            assert!(r.mass_ok, "{cfg}: invariant violated");
        },
    );
    print!("{}", whatif_text(TRACE_CONFIG, &rows, None));
    let json = whatif_json(TRACE_CONFIG, &cp, &rows, None);
    std::fs::write("BENCH_whatif.json", json).expect("write BENCH_whatif.json");
    println!("wrote BENCH_whatif.json");
}

fn main() {
    let scale = bench_scale();
    let nodes = [2usize, 4, 8, 16, 32];
    let configs = ["mpi", "mpi_i", "lci_psr_cq_pin_i"];
    let targs = TraceArgs::parse();
    if dispatch(
        &targs,
        || whatif_pass(&targs, scale),
        || instrumented_pass(&targs, scale, &configs),
    ) {
        return;
    }

    println!("Figure 10: Octo-Tiger steps/s on (simulated) SDSC Expanse");
    println!("(level 5 tree, 5 steps, 32-core nodes, HDR wire; cores scaled 128->32)");
    if let Some(banner) = targs.engine_banner() {
        println!("{banner}");
    }
    println!();
    let mut t = Table::new(vec![
        "nodes",
        "mpi steps/s",
        "mpi_i steps/s",
        "lci steps/s",
        "lci/mpi",
        "lci/mpi_i",
    ]);
    for &n in &nodes {
        let mut row = vec![n.to_string()];
        let mut vals = Vec::new();
        for cfg in configs {
            let mut p = OctoParams::expanse(cfg.parse().unwrap(), n);
            if scale < 1.0 {
                p.level = 4;
                p.steps = 2;
            }
            p.engine = targs.engine();
            let r = run_octotiger(&p);
            assert!(r.mass_ok, "{cfg}@{n}: invariant violated");
            vals.push(if r.completed { r.steps_per_sec } else { 0.0 });
            row.push(if r.completed {
                format!("{:.3}", r.steps_per_sec)
            } else {
                "DNF".to_string()
            });
        }
        row.push(format!("{:.3}", vals[2] / vals[0].max(1e-9)));
        row.push(format!("{:.3}", vals[2] / vals[1].max(1e-9)));
        t.row(row);
    }
    t.print();
    println!();
    println!("paper shape: lci >= mpi >= mpi_i at every node count; the lci/mpi");
    println!("gap grows with nodes (paper: up to 1.175x); mpi_i collapses on the");
    println!("high-core-count platform (paper: up to 13.6x).");
}
