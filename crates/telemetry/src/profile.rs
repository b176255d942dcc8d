//! Virtual-time core profiler: per-core state accounting, folded-stack
//! flamegraphs, and utilization timelines.
//!
//! Every simulated core owns a [`CoreAccount`] that partitions its elapsed
//! virtual time into five [`CoreState`]s: `working` (HPX task execution),
//! `progress` (network progress: cq polling, background sends, MPI test
//! loops), `lock-wait` (spinning on a `SimLock` / queued on a
//! `SimResource`), `serialize` (parcel encode) and `idle`. The **hard
//! invariant** is that the five durations partition the core's elapsed
//! virtual time exactly — no gaps, no double counting — for *any*
//! interleaving of records. It holds by construction (see below) and is
//! re-checked by [`CoreAccount::check_partition`] and the property tests
//! in `tests/profile_props.rs`.
//!
//! ## Base vs overlay records
//!
//! The scheduler (`amt::Locality`) knows exactly when a core ran and what
//! base activity it ran (`task`, `background`, `progress`); it reports
//! those intervals as **base** records after charging them. Probes deeper
//! in the stack (lock waits, resource queueing, serialization) fire
//! *inside* a base interval, before the scheduler has reported it; they
//! arrive as **overlay** records and are held pending until the enclosing
//! base record lands, then carved out of it — the base state keeps the
//! remainder. Time covered by no base record at all becomes `idle`
//! (overlays stranded in such a gap still count as their own state). A
//! per-core cursor makes attribution contiguous: everything below the
//! cursor is finally attributed, so the state durations always partition
//! `[0, cursor]` exactly, whatever order records arrive in.
//!
//! The `(state, leaf-label)` totals double as flamegraph frames:
//! [`CoreProfile::folded`] renders them in the folded-stack format that
//! `inferno` / `flamegraph.pl` consume
//! (`config;locL/coreC;state;leaf weight` per line, weights in ns).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Core activity states, in display order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum CoreState {
    /// Executing application/HPX tasks.
    Working = 0,
    /// Driving the network: cq polls, background sends, MPI test loops.
    Progress = 1,
    /// Spinning on a blocking lock or queued on a serialized resource.
    LockWait = 2,
    /// Encoding parcels into wire messages.
    Serialize = 3,
    /// Nothing to run.
    Idle = 4,
}

/// Number of distinct states.
pub const N_STATES: usize = 5;

/// All states in display order.
pub const STATES: [CoreState; N_STATES] = [
    CoreState::Working,
    CoreState::Progress,
    CoreState::LockWait,
    CoreState::Serialize,
    CoreState::Idle,
];

impl CoreState {
    /// Short display form (also the flamegraph frame name).
    pub fn label(self) -> &'static str {
        match self {
            CoreState::Working => "working",
            CoreState::Progress => "progress",
            CoreState::LockWait => "lock-wait",
            CoreState::Serialize => "serialize",
            CoreState::Idle => "idle",
        }
    }

    fn from_u8(v: u8) -> CoreState {
        STATES[v as usize]
    }
}

/// Timeline segments kept per core before rendering stops recording them
/// (pure memory guard — the ns accounting continues past the cap).
const MAX_SEGMENTS: usize = 1 << 20;

/// One core's virtual-time account.
///
/// All instants are virtual nanoseconds. `cursor` is the frontier of final
/// attribution; `ns` sums to `cursor` at every point in time.
#[derive(Debug, Clone, Default)]
pub struct CoreAccount {
    /// Everything below this instant is finally attributed.
    cursor: u64,
    /// Attributed time per state; partitions `[0, cursor]`.
    ns: [u64; N_STATES],
    /// Attributed time per `(state, leaf label)` — the flamegraph leaves.
    leaves: BTreeMap<(CoreState, &'static str), u64>,
    /// Overlay records waiting for their enclosing base record.
    pending: Vec<(u64, u64, CoreState, &'static str)>,
    /// Attributed `(start, end, state)` runs for timeline rendering,
    /// capped at [`MAX_SEGMENTS`].
    segments: Vec<(u64, u64, u8)>,
}

impl CoreAccount {
    /// Attribute `[self.cursor, end)` to `state`. The only place the
    /// cursor moves, which is what makes the partition exact.
    fn attribute(&mut self, end: u64, state: CoreState, label: &'static str) {
        let dur = end - self.cursor;
        if dur == 0 {
            return;
        }
        self.ns[state as usize] += dur;
        if state != CoreState::Idle {
            *self.leaves.entry((state, label)).or_insert(0) += dur;
        }
        let start = self.cursor;
        self.cursor = end;
        if let Some(last) = self.segments.last_mut() {
            if last.1 == start && last.2 == state as u8 {
                last.1 = end;
                return;
            }
        }
        if self.segments.len() < MAX_SEGMENTS {
            self.segments.push((start, end, state as u8));
        }
    }

    /// Advance the cursor to `t`: idle before `base_start`, the base
    /// state from `base_start` on.
    fn fill_to(&mut self, t: u64, base_start: u64, state: CoreState, label: &'static str) {
        if t <= self.cursor {
            return;
        }
        let idle_end = t.min(base_start);
        if idle_end > self.cursor {
            self.attribute(idle_end, CoreState::Idle, "idle");
        }
        if t > self.cursor {
            self.attribute(t, state, label);
        }
    }

    /// Record a base interval `[start, end)` in `state` (scheduler-level:
    /// the core was running `label` then, minus whatever overlays carve
    /// out). Any gap since the previous base interval becomes idle.
    pub fn record_base(&mut self, state: CoreState, label: &'static str, start: u64, end: u64) {
        debug_assert!(end >= start, "interval must not be negative");
        if end <= self.cursor {
            return;
        }
        let base_start = start.max(self.cursor);
        self.pending.sort_by_key(|p| (p.0, p.1));
        for (ps, pe, pstate, plabel) in std::mem::take(&mut self.pending) {
            if ps >= end {
                self.pending.push((ps, pe, pstate, plabel));
                continue;
            }
            if pe <= self.cursor {
                continue;
            }
            let ps = ps.max(self.cursor);
            self.fill_to(ps, base_start, state, label);
            self.attribute(pe, pstate, plabel);
        }
        self.fill_to(end, base_start, state, label);
    }

    /// Record an overlay interval `[start, end)` in `state` (probe-level:
    /// a lock wait or serialization nested inside a base interval the
    /// scheduler has not reported yet). Held pending until then.
    pub fn record_overlay(&mut self, state: CoreState, label: &'static str, start: u64, end: u64) {
        debug_assert!(end >= start, "interval must not be negative");
        if end <= self.cursor || end == start {
            return;
        }
        self.pending.push((start.max(self.cursor), end, state, label));
    }

    /// Flush pending overlays (gaps around them become idle) and extend
    /// the account to `horizon` with idle. Idempotent.
    pub fn finalize(&mut self, horizon: u64) {
        self.pending.sort_by_key(|p| (p.0, p.1));
        for (ps, pe, pstate, plabel) in std::mem::take(&mut self.pending) {
            if pe <= self.cursor {
                continue;
            }
            let ps = ps.max(self.cursor);
            if ps > self.cursor {
                self.attribute(ps, CoreState::Idle, "idle");
            }
            self.attribute(pe, pstate, plabel);
        }
        if horizon > self.cursor {
            self.attribute(horizon, CoreState::Idle, "idle");
        }
    }

    /// Elapsed (finally attributed) virtual time.
    pub fn elapsed_ns(&self) -> u64 {
        self.cursor
    }

    /// Latest instant any record (attributed or pending) reaches.
    pub fn frontier_ns(&self) -> u64 {
        self.pending.iter().map(|p| p.1).max().unwrap_or(0).max(self.cursor)
    }

    /// Attributed time in `state`.
    pub fn state_ns(&self, state: CoreState) -> u64 {
        self.ns[state as usize]
    }

    /// Attributed per-state durations, indexed by [`STATES`] order.
    pub fn state_table(&self) -> [u64; N_STATES] {
        self.ns
    }

    /// Non-idle attributed time.
    pub fn busy_ns(&self) -> u64 {
        self.cursor - self.ns[CoreState::Idle as usize]
    }

    /// Iterate `(state, leaf label, ns)` flamegraph leaves.
    pub fn leaves(&self) -> impl Iterator<Item = (CoreState, &'static str, u64)> + '_ {
        self.leaves.iter().map(|(&(s, l), &ns)| (s, l, ns))
    }

    /// Attributed `(start, end, state)` runs, oldest first.
    pub fn segments(&self) -> impl Iterator<Item = (u64, u64, CoreState)> + '_ {
        self.segments.iter().map(|&(s, e, st)| (s, e, CoreState::from_u8(st)))
    }

    /// The hard invariant: state durations partition `[0, cursor]`.
    pub fn check_partition(&self) -> Result<(), String> {
        let sum: u64 = self.ns.iter().sum();
        if sum == self.cursor {
            Ok(())
        } else {
            Err(format!(
                "state durations sum to {sum} ns but elapsed virtual time is {} ns",
                self.cursor
            ))
        }
    }
}

/// The per-core accounts of one run, keyed by `(locality, core)`, plus
/// the locality context used to attribute probe-driven overlays.
#[derive(Debug, Default)]
pub struct CoreProfile {
    cores: BTreeMap<(usize, usize), CoreAccount>,
    current_loc: usize,
}

impl CoreProfile {
    /// Create an empty profile.
    pub fn new() -> Self {
        CoreProfile::default()
    }

    /// Set the locality whose event handler is currently executing.
    /// Probe-driven overlays (which only know a core index) land here.
    pub fn set_loc(&mut self, loc: usize) {
        self.current_loc = loc;
    }

    /// The locality set by [`CoreProfile::set_loc`].
    pub fn current_loc(&self) -> usize {
        self.current_loc
    }

    /// Record a base interval on `(loc, core)`.
    pub fn record_base(
        &mut self,
        loc: usize,
        core: usize,
        state: CoreState,
        label: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) {
        self.cores.entry((loc, core)).or_default().record_base(state, label, start_ns, end_ns);
    }

    /// Record an overlay interval on `core` of the current locality.
    pub fn record_overlay_here(
        &mut self,
        core: usize,
        state: CoreState,
        label: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) {
        self.cores
            .entry((self.current_loc, core))
            .or_default()
            .record_overlay(state, label, start_ns, end_ns);
    }

    /// Whether no core recorded anything.
    pub fn is_empty(&self) -> bool {
        self.cores.is_empty()
    }

    /// Fold another profile's accounts into this one. Used by the
    /// sharded-world merge: every lane profiles only its own locality's
    /// cores, so the `(loc, core)` key sets are disjoint and this is a
    /// plain union (an already-present key keeps its account).
    pub fn absorb(&mut self, other: CoreProfile) {
        for (key, acct) in other.cores {
            self.cores.entry(key).or_insert(acct);
        }
    }

    /// One core's live (unfinalized) account.
    pub fn account(&self, loc: usize, core: usize) -> Option<&CoreAccount> {
        self.cores.get(&(loc, core))
    }

    /// Latest instant any core's records reach — the report horizon.
    pub fn horizon_ns(&self) -> u64 {
        self.cores.values().map(|a| a.frontier_ns()).max().unwrap_or(0)
    }

    /// Finalized copies of every account, all extended to the common
    /// horizon (the live accounts keep accumulating untouched).
    pub fn snapshot(&self) -> BTreeMap<(usize, usize), CoreAccount> {
        let horizon = self.horizon_ns();
        let mut out = self.cores.clone();
        for acct in out.values_mut() {
            acct.finalize(horizon);
        }
        out
    }

    /// Render the folded-stack flamegraph input for `config`: one
    /// `config;locL/coreC;state;leaf weight` line per leaf, weights in
    /// ns, idle excluded (it is a busy-time flamegraph).
    pub fn folded(&self, config: &str) -> String {
        let mut out = String::new();
        for ((loc, core), acct) in self.snapshot() {
            for (state, leaf, ns) in acct.leaves() {
                let _ = writeln!(out, "{config};loc{loc}/core{core};{};{leaf} {ns}", state.label());
            }
        }
        out
    }
}

/// Downsample a `(t_ns, value)` series into `buckets` equal windows over
/// `[0, horizon)`: each bucket averages its samples; empty buckets carry
/// the previous bucket's value forward (0 before the first sample).
pub fn resample(series: &[(u64, f64)], horizon_ns: u64, buckets: usize) -> Vec<f64> {
    let mut out = vec![0.0; buckets];
    if buckets == 0 || horizon_ns == 0 {
        return out;
    }
    let width = horizon_ns as f64 / buckets as f64;
    let mut sums = vec![0.0; buckets];
    let mut counts = vec![0u64; buckets];
    for &(t, v) in series {
        let b = ((t as f64 / width) as usize).min(buckets - 1);
        sums[b] += v;
        counts[b] += 1;
    }
    let mut last = 0.0;
    for b in 0..buckets {
        if counts[b] > 0 {
            last = sums[b] / counts[b] as f64;
        }
        out[b] = last;
    }
    out
}

/// Render `values` as a Unicode sparkline, scaled to the series maximum.
pub fn sparkline(values: &[f64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = values.iter().cloned().fold(0.0f64, f64::max);
    values
        .iter()
        .map(|&v| {
            if max <= 0.0 || v <= 0.0 {
                BARS[0]
            } else {
                BARS[((v / max * 7.0).round() as usize).min(7)]
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_records_partition_with_idle_gaps() {
        let mut a = CoreAccount::default();
        a.record_base(CoreState::Working, "task", 100, 200);
        a.record_base(CoreState::Progress, "background", 300, 350);
        assert_eq!(a.elapsed_ns(), 350);
        assert_eq!(a.state_ns(CoreState::Working), 100);
        assert_eq!(a.state_ns(CoreState::Progress), 50);
        // [0,100) and [200,300) are idle gaps.
        assert_eq!(a.state_ns(CoreState::Idle), 200);
        a.check_partition().unwrap();
    }

    #[test]
    fn overlay_is_carved_out_of_enclosing_base() {
        let mut a = CoreAccount::default();
        // Probe fires first (lock wait inside a task)...
        a.record_overlay(CoreState::LockWait, "ucp_progress", 120, 150);
        // ...then the scheduler reports the enclosing interval.
        a.record_base(CoreState::Working, "task", 100, 200);
        assert_eq!(a.state_ns(CoreState::Working), 70); // [100,120) + [150,200)
        assert_eq!(a.state_ns(CoreState::LockWait), 30);
        assert_eq!(a.state_ns(CoreState::Idle), 100); // [0,100)
        a.check_partition().unwrap();
    }

    #[test]
    fn overlapping_overlays_never_double_count() {
        let mut a = CoreAccount::default();
        a.record_overlay(CoreState::LockWait, "l1", 10, 50);
        a.record_overlay(CoreState::LockWait, "l2", 30, 60);
        a.record_base(CoreState::Progress, "background", 0, 100);
        assert_eq!(a.state_ns(CoreState::LockWait), 50); // [10,60) once
        assert_eq!(a.state_ns(CoreState::Progress), 50);
        assert_eq!(a.elapsed_ns(), 100);
        a.check_partition().unwrap();
    }

    #[test]
    fn overlay_outside_any_base_survives_finalize() {
        let mut a = CoreAccount::default();
        a.record_overlay(CoreState::Serialize, "drain", 500, 600);
        a.finalize(1000);
        assert_eq!(a.state_ns(CoreState::Serialize), 100);
        assert_eq!(a.state_ns(CoreState::Idle), 900);
        assert_eq!(a.elapsed_ns(), 1000);
        a.check_partition().unwrap();
    }

    #[test]
    fn overlay_spilling_past_base_end_is_kept() {
        let mut a = CoreAccount::default();
        a.record_overlay(CoreState::LockWait, "l", 80, 150);
        a.record_base(CoreState::Working, "task", 0, 100);
        // The wait extends past the base interval; it is attributed whole.
        assert_eq!(a.state_ns(CoreState::LockWait), 70);
        assert_eq!(a.state_ns(CoreState::Working), 80);
        assert_eq!(a.elapsed_ns(), 150);
        a.check_partition().unwrap();
    }

    #[test]
    fn stale_records_in_the_past_are_dropped() {
        let mut a = CoreAccount::default();
        a.record_base(CoreState::Working, "task", 0, 100);
        a.record_base(CoreState::Working, "task", 20, 80); // fully in the past
        a.record_overlay(CoreState::LockWait, "l", 10, 90); // likewise
        a.finalize(100);
        assert_eq!(a.state_ns(CoreState::Working), 100);
        assert_eq!(a.elapsed_ns(), 100);
        a.check_partition().unwrap();
    }

    #[test]
    fn folded_stacks_have_config_core_state_leaf() {
        let mut p = CoreProfile::new();
        p.record_base(0, 2, CoreState::Working, "task", 0, 500);
        p.record_base(0, 2, CoreState::Progress, "background", 500, 600);
        let folded = p.folded("mpi");
        let lines: Vec<&str> = folded.lines().collect();
        assert!(lines.contains(&"mpi;loc0/core2;working;task 500"), "folded: {folded}");
        assert!(lines.contains(&"mpi;loc0/core2;progress;background 100"), "folded: {folded}");
        // Idle never appears in the flamegraph.
        assert!(!folded.contains("idle"), "folded: {folded}");
    }

    #[test]
    fn resample_averages_and_carries_forward() {
        let series = [(0u64, 2.0), (50, 4.0), (450, 10.0)];
        let r = resample(&series, 1000, 10);
        assert_eq!(r.len(), 10);
        assert!((r[0] - 3.0).abs() < 1e-12); // mean of 2 and 4
        assert!((r[1] - 3.0).abs() < 1e-12); // carried forward
        assert!((r[4] - 10.0).abs() < 1e-12);
        assert!((r[9] - 10.0).abs() < 1e-12);
    }

    #[test]
    fn sparkline_shapes() {
        assert_eq!(sparkline(&[]), "");
        let s = sparkline(&[0.0, 0.5, 1.0]);
        assert_eq!(s.chars().count(), 3);
        assert!(s.ends_with('█'));
    }
}
