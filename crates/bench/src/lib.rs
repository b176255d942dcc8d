//! # bench — harnesses that regenerate every figure and table of the paper
//!
//! Two microbenchmarks (§4) plus the Octo-Tiger application benchmark
//! (§5, in the `octotiger-mini` crate):
//!
//! * **Message rate** ([`msgrate`]): a sender locality creates tasks at a
//!   fixed attempted rate; each task injects a batch of fixed-size
//!   messages; the receiver counts arrivals and signals back with one
//!   short message when everything landed. Reported: *achieved injection
//!   rate* (messages / time to get every message handed to the
//!   parcelport) and *message rate* (messages / time until the receiver
//!   saw them all). The two diverge when the network software stack
//!   cannot keep up. (Figs. 1–6.)
//! * **Latency** ([`latency`]): multi-message ping-pong — `window`
//!   chains of tasks alternating between the two localities for `steps`
//!   iterations; one-way latency = total time / (2 × steps). (Figs. 7–9.)
//!
//! Binaries under `src/bin/` print one figure each, in the same
//! rows/series layout the paper plots.

pub mod cli;
pub mod latency;
pub mod msgrate;
pub mod report;
pub mod trace;
pub mod whatif;

pub use latency::{run_latency, LatencyParams, LatencyResult};
pub use msgrate::{run_msgrate, MsgRateParams, MsgRateResult};
pub use whatif::{
    five_mechanism_attribution, whatif_json, whatif_latency, whatif_sweep, whatif_text, Knob,
    MechanismRow, WhatIfRow,
};

/// Scale factor for quick runs: set `BENCH_SCALE` (e.g. `0.1`) to shrink
/// message counts; defaults to 1.0.
pub fn bench_scale() -> f64 {
    std::env::var("BENCH_SCALE").ok().and_then(|s| s.parse().ok()).unwrap_or(1.0)
}

/// The attempted injection-rate grid of the 8 B experiments (Figs. 1–3):
/// 100 K/s to 1.6 M/s plus unlimited (`None`).
pub fn injection_grid_8b() -> Vec<Option<f64>> {
    vec![Some(100e3), Some(200e3), Some(400e3), Some(800e3), Some(1_600e3), None]
}

/// The attempted injection-rate grid of the 16 KiB experiments
/// (Figs. 4–6): 10 K/s to 640 K/s plus unlimited.
pub fn injection_grid_16k() -> Vec<Option<f64>> {
    vec![
        Some(10e3),
        Some(20e3),
        Some(40e3),
        Some(80e3),
        Some(160e3),
        Some(320e3),
        Some(640e3),
        None,
    ]
}

/// Run a full injection-rate sweep for one configuration.
pub fn sweep_injection(
    base: &MsgRateParams,
    grid: &[Option<f64>],
) -> Vec<(Option<f64>, MsgRateResult)> {
    grid.iter()
        .map(|&rate| {
            let mut p = base.clone();
            p.inject_rate = rate;
            (rate, run_msgrate(&p))
        })
        .collect()
}

/// Format an attempted rate for table headers.
pub fn fmt_rate(rate: Option<f64>) -> String {
    match rate {
        Some(r) => format!("{:.0}K/s", r / 1e3),
        None => "unlimited".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grids_match_the_paper() {
        let g8 = injection_grid_8b();
        assert_eq!(g8.first(), Some(&Some(100e3)));
        assert_eq!(g8.last(), Some(&None), "ends with unlimited");
        let g16 = injection_grid_16k();
        assert_eq!(g16.first(), Some(&Some(10e3)));
        assert_eq!(g16.len(), 8);
        // Rates double along the grid (the paper's log-spaced sweep).
        for w in g8.windows(2) {
            if let (Some(a), Some(b)) = (w[0], w[1]) {
                assert!((b / a - 2.0).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn rate_formatting() {
        assert_eq!(fmt_rate(Some(400e3)), "400K/s");
        assert_eq!(fmt_rate(None), "unlimited");
    }

    #[test]
    fn scale_defaults_to_one() {
        std::env::remove_var("BENCH_SCALE");
        assert_eq!(bench_scale(), 1.0);
    }
}
