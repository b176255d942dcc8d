//! End-to-end tests of the virtual-time core profiler: the partition
//! invariant must hold after real parcelport runs, and the fig8-style
//! per-core breakdown must show the paper's qualitative contrast —
//! `mpi` worker cores burn their time in progress + lock-wait, while
//! `lci` with a pinned progress thread concentrates progress work on
//! core 0 and leaves the workers to compute.

mod common;

use bench::{run_latency, run_msgrate, LatencyParams, MsgRateParams};
use telemetry::{CoreProfile, CoreState, RunRecord};

/// A reduced fig8-style run (window 64) with telemetry enabled,
/// returning its run record, whose profile capture finalized.
fn profiled_latency(config: &str) -> RunRecord {
    let tel = telemetry::enable();
    let mut p = LatencyParams::new(config.parse().unwrap(), 8);
    p.cores = 8;
    p.window = 64;
    p.steps = 30;
    let r = run_latency(&p);
    telemetry::disable();
    assert!(r.completed, "{config}: run hit the safety deadline");
    common::record(&tel, config)
}

/// The finalized core profile of a captured run.
fn profile(rec: &RunRecord) -> &CoreProfile {
    &common::data(rec).profile
}

/// The tentpole invariant, end to end: after a real run, every core's
/// finalized state durations partition the elapsed virtual time exactly
/// — no gaps, no double counting — and the flamegraph leaves
/// re-partition the busy time.
#[test]
fn state_durations_partition_virtual_time_after_real_runs() {
    for config in ["mpi", "lci_psr_cq_pin_i", "lci_sr_sy_mt"] {
        let rec = profiled_latency(config);
        let prof = profile(&rec);
        assert!(!prof.is_empty(), "{config}: profiler saw no records");
        for ((loc, core), acct) in prof.accounts() {
            acct.check_partition()
                .unwrap_or_else(|e| panic!("{config} loc{loc}/core{core}: partition broken: {e}"));
            let sum: u64 = acct.state_table().iter().sum();
            assert_eq!(
                sum,
                acct.elapsed_ns(),
                "{config} loc{loc}/core{core}: states do not sum to elapsed time"
            );
            let leaf_sum: u64 = acct.leaves().map(|(_, _, ns)| ns).sum();
            assert_eq!(
                leaf_sum,
                acct.busy_ns(),
                "{config} loc{loc}/core{core}: leaves do not sum to busy time"
            );
        }
    }
}

/// Send-completion work belongs to the sending locality. In an `mpi`
/// message-rate run locality 0 drains its parcel queue for every batch,
/// and a drain can start from the send-completion callback of an earlier
/// one, which fires outside any locality's event handler; locality 1
/// sends one message, the `done` signal back to the sender. So apart
/// from that one drain, every `serialize.drain` leaf must sit on
/// locality 0.
#[test]
fn send_completion_drains_are_charged_to_the_sender() {
    let tel = telemetry::enable();
    let mut p = MsgRateParams::small("mpi".parse().unwrap());
    p.total_msgs = 1_000;
    let r = run_msgrate(&p);
    telemetry::disable();
    assert!(r.completed, "run hit the safety deadline");
    let rec = common::record(&tel, "mpi");
    // `(loc, core, ns)` of every core that drained.
    let drains: Vec<(usize, usize, u64)> = profile(&rec)
        .accounts()
        .filter_map(|((loc, core), acct)| {
            let drain = |&(state, leaf, _): &(CoreState, &str, u64)| {
                state == CoreState::Serialize && leaf == "serialize.drain"
            };
            acct.leaves().find(drain).map(|(_, _, ns)| (loc, core, ns))
        })
        .collect();
    let on = |l: usize| drains.iter().filter(move |d| d.0 == l);
    let sender: u64 = on(0).map(|d| d.2).sum();
    let receiver: Vec<_> = on(1).collect();
    assert!(sender > 0, "locality 0 drained nothing");
    assert!(
        receiver.len() <= 1 && receiver.iter().all(|d| d.2 * 100 < sender),
        "drains charged to locality 1 beyond its one message: {receiver:?} (locality 0: {sender} ns)"
    );
}

/// Overhead contract: with telemetry disabled (the default), the
/// profiler records nothing at all.
#[test]
fn disabled_profiler_records_nothing() {
    assert!(!telemetry::enabled());
    let mut p = LatencyParams::new("mpi".parse().unwrap(), 8);
    p.cores = 4;
    p.window = 8;
    p.steps = 10;
    let r = run_latency(&p);
    assert!(r.completed);
    // No collector was installed, so there is nothing to inspect — the
    // free-function hooks short-circuited on the thread-local None.
    assert!(telemetry::active().is_none());
}

/// The paper's §5 observation, asserted quantitatively: under a
/// window-64 ping-pong, MPI worker cores spend a large share of their
/// busy time in the network stack — driving progress and waiting on the
/// coarse `ucp_progress` lock — while the LCI pinned-progress variant
/// concentrates progress on dedicated core 0 and its worker cores see
/// only a sliver of network-stack overhead.
#[test]
fn fig8_profile_contrasts_mpi_and_pinned_lci() {
    let mpi = profiled_latency("mpi");
    let lci = profiled_latency("lci_psr_cq_pin_i");

    // A leaf is network-stack overhead if it is the Progress state (the
    // progress loop itself) or a lock-wait on a network-stack resource.
    // AMT-level queue waits (amt.task_queue / amt.parcel_queue) are
    // scheduler contention, not parcelport overhead, and are excluded.
    fn is_net_leaf(state: CoreState, leaf: &str) -> bool {
        state == CoreState::Progress
            || (state == CoreState::LockWait
                && (leaf == "ucp_progress" || leaf.starts_with("lci.") || leaf.starts_with("nic.")))
    }

    // Share of the kept cores' busy time spent in network-stack
    // overhead leaves.
    fn net_overhead_share(rec: &RunRecord, keep: impl Fn(usize) -> bool) -> f64 {
        let mut busy = 0u64;
        let mut overhead = 0u64;
        for ((_, core), acct) in profile(rec).accounts() {
            if !keep(core) {
                continue;
            }
            busy += acct.busy_ns();
            overhead += acct
                .leaves()
                .filter(|&(state, leaf, _)| is_net_leaf(state, leaf))
                .map(|(_, _, ns)| ns)
                .sum::<u64>();
        }
        overhead as f64 / busy.max(1) as f64
    }

    // mpi has no dedicated progress core: every core is a worker.
    let mpi_worker_share = net_overhead_share(&mpi, |_| true);
    // lci pin: core 0 is the dedicated progress core; workers are 1..
    let lci_worker_share = net_overhead_share(&lci, |c| c != 0);
    eprintln!("mpi worker network-stack busy share:  {mpi_worker_share:.3}");
    eprintln!("lci worker network-stack busy share:  {lci_worker_share:.3}");
    assert!(
        mpi_worker_share > 0.15,
        "mpi workers should spend a material busy share in the network \
         stack (got {mpi_worker_share:.3})"
    );
    assert!(
        mpi_worker_share > 5.0 * lci_worker_share,
        "mpi worker network-stack share ({mpi_worker_share:.3}) should \
         dwarf lci's ({lci_worker_share:.3})"
    );

    // And the LCI progress work itself must be concentrated on the
    // pinned core 0 of each locality.
    let mut per_loc: std::collections::BTreeMap<usize, (u64, u64)> = Default::default();
    for ((loc, core), acct) in profile(&lci).accounts() {
        let e = per_loc.entry(loc).or_default();
        let p = acct.state_ns(CoreState::Progress);
        e.1 += p;
        if core == 0 {
            e.0 += p;
        }
    }
    for (loc, (core0, total)) in per_loc {
        let frac = core0 as f64 / total.max(1) as f64;
        eprintln!("lci loc{loc}: core0 progress fraction {frac:.3}");
        assert!(
            frac > 0.8,
            "loc{loc}: pinned core 0 should own the progress time \
             (got {frac:.3} of {total} ns)"
        );
    }
}
