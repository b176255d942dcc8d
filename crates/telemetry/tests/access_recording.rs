//! What a collector records for lock, try-lock and resource accesses:
//! the causal marks, the contention rows, the core profile and the
//! timeline's horizon, each checked against a list written out by hand. Covers an uncontended and a contended `SimLock`, an
//! acquired and a failed `SimTryLock`, a queued, a transferred and a
//! zero-wait `SimResource` access, a wait and a hold over 2^32 ns, which
//! the causal log stores in its wide form, and an access made before the
//! first dispatch, which counts in its row and leaves no mark. The same
//! accesses under a bare `CausalLog` in the probe slot record the same
//! marks.

use simcore::causal::{self, CausalLog, MarkKind};
use simcore::{SimLock, SimResource, SimTime, SimTryLock, TryAcquire};
use telemetry::{CoreState, RunMeta, RunRecord, TimelineConfig};

fn ns(t: u64) -> SimTime {
    SimTime::from_nanos(t)
}

/// A hold far past `u32::MAX` ns.
const LONG: u64 = 5_000_000_000;

/// `(owner, label, kind, start, end, fixed)` of every mark in `log`.
type Mark = (u64, &'static str, MarkKind, u64, u64, u64);

fn marks_of(log: &CausalLog) -> Vec<Mark> {
    log.with_view(|v| {
        v.marks().map(|m| (m.owner, m.label, m.kind, m.start, m.end, m.fixed)).collect()
    })
}

/// The marks [`run_accesses`] records, in emission order.
fn expected_marks() -> Vec<Mark> {
    use MarkKind::{Hold, Wait, Work};
    vec![
        (1, "acc.lock", Hold, 100, 150, 0),
        (1, "acc.lock", Wait, 120, 850, 0),
        (1, "acc.lock", Hold, 850, 900, 0),
        (1, "acc.try", Hold, 100, 130, 0),
        (1, "acc.res", Work, 100, 120, 0),
        (1, "acc.res", Wait, 100, 120, 0),
        (1, "acc.res", Work, 120, 180, 0),
        (1, "acc.res", Work, 200, 210, 0),
        (1, "acc.long", Hold, 100, 100 + LONG, 0),
        (1, "acc.long", Wait, 200, 100 + LONG, 0),
        (1, "acc.long", Hold, 100 + LONG, 110 + LONG, 0),
        (2, "acc.res", Work, 300, 350, 0),
    ]
}

/// The accesses, over two dispatched events and one before them, under
/// whatever the probe slot holds.
fn run_accesses() {
    // No event owns this one.
    let mut early = SimResource::new("acc.early", 0);
    assert_eq!(early.access(ns(50), 0, 5), ns(55));

    causal::on_execute(1, 100, 0);
    let mut lock = SimLock::new("acc.lock", 500, 200);
    lock.acquire(0, ns(100), 50);
    let queued = lock.acquire(1, ns(120), 50);
    assert_eq!((queued.start, queued.end), (ns(850), ns(900)));

    let mut try_lock = SimTryLock::new("acc.try");
    assert_eq!(try_lock.try_acquire(0, ns(100), 30), TryAcquire::Acquired { until: ns(130) });
    assert_eq!(try_lock.try_acquire(1, ns(110), 30), TryAcquire::Busy { free_at: ns(130) });

    let mut res = SimResource::new("acc.res", 40);
    assert_eq!(res.access(ns(100), 0, 20), ns(120));
    // Queued behind the first access, and moved from core 0 to core 1.
    assert_eq!(res.access(ns(100), 1, 20), ns(180));
    // No wait and no transfer.
    assert_eq!(res.access(ns(200), 1, 10), ns(210));

    let mut long = SimLock::new("acc.long", 0, 0);
    long.acquire(2, ns(100), LONG);
    long.acquire(3, ns(200), 10);

    // The scheduler reports core 1's enclosing interval after the probes.
    telemetry::core_tick(0, 1, None, CoreState::Progress, "background", ns(100), ns(1000));

    causal::on_execute(2, 300, 1);
    // Transferred back to core 0 with no wait.
    assert_eq!(res.access(ns(300), 0, 10), ns(350));
    causal::end_execute();
}

#[test]
fn accesses_record_the_same_marks_rows_and_profile() {
    let tel = telemetry::enable();
    telemetry::profile_set_loc(0);
    run_accesses();
    telemetry::disable();
    let rec = RunRecord::capture(&tel, RunMeta::default());
    let data = rec.data.as_deref().unwrap();

    assert_eq!(marks_of(data.causal.as_ref().unwrap()), expected_marks());

    // (name, kind, events, contended, wait, service), by wait.
    let rows: Vec<_> = rec
        .resources
        .iter()
        .map(|r| {
            (r.name.as_str(), r.kind.as_str(), (r.events, r.contended, r.wait_ns, r.service_ns))
        })
        .collect();
    assert_eq!(
        rows,
        [
            ("acc.long", "lock", (2, 1, LONG - 100, LONG + 10)),
            ("acc.lock", "lock", (2, 1, 730, 100)),
            ("acc.res", "resource", (4, 2, 20, 140)),
            ("acc.early", "resource", (1, 0, 0, 5)),
            ("acc.try", "trylock", (2, 1, 0, 30)),
        ]
    );

    // Core 1: idle before its base interval, the two waits carved out of
    // it, then idle to the horizon. Core 3: its pending wait, finalized.
    let horizon = 100 + LONG;
    let tables: Vec<_> = rec.profile.iter().map(|c| ((c.loc, c.core), c.states)).collect();
    assert_eq!(
        tables,
        [((0, 1), [0, 150, 750, 0, 100 + horizon - 1000]), ((0, 3), [0, 0, LONG - 100, 0, 200]),]
    );
    let leaves: Vec<_> = data
        .profile
        .accounts()
        .map(|(key, acct)| (key, acct.leaves().collect::<Vec<_>>()))
        .collect();
    assert_eq!(
        leaves,
        [
            (
                (0, 1),
                vec![
                    (CoreState::Progress, "background", 150),
                    (CoreState::LockWait, "acc.lock", 730),
                    (CoreState::LockWait, "acc.res", 20),
                ]
            ),
            ((0, 3), vec![(CoreState::LockWait, "acc.long", LONG - 100)]),
        ]
    );
}

/// A bare causal log in the probe slot writes the accesses' marks itself.
#[test]
fn a_bare_causal_log_records_the_same_marks() {
    let log = CausalLog::new();
    simcore::probe::install(log.clone());
    run_accesses();
    simcore::probe::uninstall();
    assert_eq!(marks_of(&log), expected_marks());
}

/// Under a timeline collector an access only advances the horizon, a
/// try-lock's included; the run records the same marks. A flight dump
/// shows the waits through its causal marks: the Wait marks that start
/// in its interval, in emission order.
#[test]
fn a_timeline_sees_accesses_through_its_horizon_and_marks() {
    let cfg = TimelineConfig { window_ns: 100, post_roll_windows: 3, ..TimelineConfig::default() };
    let tel = telemetry::enable_with(cfg);
    telemetry::profile_set_loc(0);
    run_accesses();
    telemetry::fault_event_at("acc.fault", ns(300));
    assert_eq!(tel.with_timeline(|tl| tl.horizon_ns()), Some(1000), "the core tick's end");
    let mut try_lock = SimTryLock::new("acc.try");
    assert!(matches!(try_lock.try_acquire(0, ns(1300), 0), TryAcquire::Acquired { .. }));
    assert_eq!(tel.with_timeline(|tl| tl.horizon_ns()), Some(1300), "the try-lock's instant");
    telemetry::disable();
    let rec = RunRecord::capture(&tel, RunMeta::default());

    // The accesses outside any dispatch leave no mark.
    assert_eq!(marks_of(rec.data.as_ref().unwrap().causal.as_ref().unwrap()), expected_marks());
    let dumps = rec.timeline().unwrap().dumps();
    assert_eq!(dumps.len(), 1);
    let d = &dumps[0];
    assert_eq!((d.reason.as_str(), d.trigger_ns, d.taken_ns), ("fault:acc.fault", 300, 600));
    // (label, start, end) of each Wait mark starting in [0, 600].
    let waits: Vec<_> = d
        .marks
        .iter()
        .filter(|m| m.1 == "wait")
        .map(|&(label, _, start, end)| (label, start, end))
        .collect();
    assert_eq!(
        waits,
        [("acc.lock", 120, 850), ("acc.res", 100, 120), ("acc.long", 200, 100 + LONG)]
    );
    assert_eq!(d.marks.len(), 10, "every mark but the two that start after 600");
}
