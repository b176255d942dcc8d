//! Host-speed calibration.
//!
//! On a shared host the simulator's speed is not steady. Each vCPU of the
//! reference host (below) switches, every few seconds to minutes, between
//! a fast state and a slow one in which allocation-heavy code takes about
//! 1.8x as long; longer runs do not average that away. So every timed
//! rep runs between two short runs of a fixed reference workload, and its
//! time is restated at the speed of a reference host on which the
//! reference workload takes [`QUIET_S`]. That constant only sets the
//! scale: it cancels when two commits are compared on one host.
//!
//! The workloads do not slow alike in the slow state: a rep's time grows
//! as the reference's time to a power between about 0.5 and 1, which
//! [`Workload::host_exponent`](crate::workloads::Workload::host_exponent)
//! gives per workload. The restatement uses that power, so that a run
//! spent in the slow state and one spent in the fast state read alike.
//!
//! The reference workload is small-object allocation churn, which tracked
//! the simulator's swings far better than memory walks or churn over a
//! private slab did. It runs on the benchmark's own thread and heap, right
//! after the rep, because a reference timed on the other CPU did not track
//! the rep at all. Timed cold, the churn would also measure the heap and
//! caches the rep left behind. So [`time_s`] first runs it once untimed.
//! That rebuilds the churn's own free lists and working set, and it times
//! only the second run.

use std::hint::black_box;
use std::time::Instant;

/// The timed churn on the reference host (a 2-vCPU Xeon VM at 2.1 GHz):
/// the 5th percentile of about 3 900 timings taken between reps.
pub const QUIET_S: f64 = 0.0024;

/// Time the reference workload once, in seconds.
pub fn time_s() -> f64 {
    churn();
    let t = Instant::now();
    churn();
    t.elapsed().as_secs_f64()
}

/// The factor that restates host seconds, measured while the reference
/// workload took `measured_s`, as reference-host seconds, for code whose
/// time grows as the reference's time to the power `exponent`.
pub fn to_reference(measured_s: f64, exponent: f64) -> f64 {
    (QUIET_S / measured_s).powf(exponent)
}

/// 100 000 allocations of 64 B, at most 25 000 live, freed in a scattered
/// order.
fn churn() {
    let mut live: Vec<Box<[u64; 8]>> = Vec::new();
    for i in 0..100_000u64 {
        live.push(Box::new([i; 8]));
        if live.len() > 25_000 {
            live.swap_remove((i as usize).wrapping_mul(7919) % live.len());
        }
    }
    black_box(&live);
}
