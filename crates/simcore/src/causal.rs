//! Causal provenance capture: who scheduled whom, and where the time went.
//!
//! When a collector is installed (see [`install`]), the [`Sim`] records one
//! provenance edge per executed event — *the event that was executing when
//! this event was scheduled* — and the contention primitives
//! ([`crate::SimLock`], [`crate::SimTryLock`], [`crate::SimResource`]) and
//! the network fabric annotate the currently-executing event with labeled
//! time *marks* (lock wait, lock hold, resource service, wire transit).
//! Together these reconstruct the exact critical path of a run: walk the
//! parent chain backwards from any event and carve each inter-event gap
//! with the marks owned by the earlier event.
//!
//! Mirrors [`crate::probe`]: a thread-local optional collector, free
//! functions that no-op (one `Cell<bool>` read) when nothing is installed,
//! and **pure observation** when installed — recording never feeds back
//! into simulation timing.
//!
//! [`Sim`]: crate::Sim

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use crate::time::SimTime;

/// What a time mark represents, for per-component attribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MarkKind {
    /// Time spent waiting for a contended primitive (reported as
    /// `"<label>.wait"`).
    Wait,
    /// Time inside a lock's critical section.
    Hold,
    /// CPU service time (resource access, serialization, protocol work).
    Work,
    /// Network transit: injection + wire. `fixed` carries the
    /// bandwidth-independent latency portion.
    Wire,
}

/// Every kind, indexed by its discriminant (the code a stored mark keeps).
const KINDS: [MarkKind; 4] = [MarkKind::Wait, MarkKind::Hold, MarkKind::Work, MarkKind::Wire];

/// One provenance node: an executed event.
#[derive(Debug, Clone, Copy)]
pub struct NodeRec {
    /// Virtual time (ns) at which the event fired.
    pub at: u64,
    /// Node id of the event that scheduled it (0 = scheduled outside any
    /// event, e.g. during setup).
    pub parent: u64,
}

/// One labeled time interval attributed to the event executing when it
/// was recorded: the read view of a stored mark.
#[derive(Debug, Clone, Copy)]
pub struct MarkRec {
    /// Owning node id (the event executing when the mark was emitted).
    pub owner: u64,
    /// Component label (lock/resource name, `"net.wire"`, ...).
    pub label: &'static str,
    /// Attribution category.
    pub kind: MarkKind,
    /// Interval start, ns.
    pub start: u64,
    /// Interval end, ns.
    pub end: u64,
    /// Fixed (scale-invariant) portion of the interval, ns — the wire
    /// latency for [`MarkKind::Wire`], 0 otherwise. Stored in 32 bits:
    /// values above `u32::MAX` ns (4.29 s) read back saturated.
    pub fixed: u64,
}

/// A mark as the log stores it, in 24 bytes. Its owner is where it sits
/// (see [`LogInner::first_mark`]) and its label is a [`keyed`] id.
///
/// [`keyed`]: crate::keyed
#[derive(Debug, Clone, Copy)]
struct PackedMark {
    start: u64,
    end: u64,
    /// [`MarkRec::fixed`], saturated to 32 bits.
    fixed: u32,
    /// `label id << 2 | kind`.
    tag: u32,
}

impl PackedMark {
    fn new(label: &'static str, kind: MarkKind, start: u64, end: u64, fixed: u64) -> PackedMark {
        let id = crate::keyed::id_of(label);
        assert!(id < 1 << 30, "causal: label id {id} does not fit a packed mark");
        debug_assert!(fixed <= u32::MAX as u64, "causal: {label} fixed part {fixed} ns over u32");
        let fixed = u32::try_from(fixed).unwrap_or(u32::MAX);
        PackedMark { start, end, fixed, tag: id << 2 | kind as u32 }
    }

    /// The read view, owned by node `owner`; `labels` maps keyed ids to
    /// names.
    fn read(&self, owner: u64, labels: &[&'static str]) -> MarkRec {
        MarkRec {
            owner,
            label: labels[(self.tag >> 2) as usize],
            kind: KINDS[(self.tag & 3) as usize],
            start: self.start,
            end: self.end,
            fixed: self.fixed as u64,
        }
    }
}

/// Memory guard: stop recording past this many nodes or marks (a run this
/// long is not usefully analyzable anyway; the flag is reported).
const MAX_RECORDS: usize = 1 << 24;

#[derive(Debug, Default)]
struct LogInner {
    /// Node id of `nodes[0]` (node ids are the Sim's 1-based executed
    /// counter; recording may start mid-run).
    base: u64,
    /// The node id the next `on_execute` continues with; any other id
    /// means a new Sim started.
    next: u64,
    nodes: Vec<NodeRec>,
    /// Where node `base + i`'s marks begin in `marks`; they run up to the
    /// next node's first mark (or the end). Marks are only ever emitted
    /// for the newest node, so this is all the owner data the log keeps.
    first_mark: Vec<u32>,
    /// Every mark in emission order, which is node order.
    marks: Vec<PackedMark>,
    truncated: bool,
}

impl LogInner {
    /// The span of `marks` owned by `nodes[i]`.
    fn mark_range(&self, i: usize) -> std::ops::Range<usize> {
        let end = self.first_mark.get(i + 1).map_or(self.marks.len(), |&e| e as usize);
        self.first_mark[i] as usize..end
    }
}

/// The causal log: provenance nodes + time marks of one instrumented run.
#[derive(Debug)]
pub struct CausalLog {
    inner: RefCell<LogInner>,
}

impl CausalLog {
    /// A fresh, empty log.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Rc<CausalLog> {
        Rc::new(CausalLog { inner: RefCell::new(LogInner::default()) })
    }

    /// Nodes recorded so far.
    pub fn node_count(&self) -> usize {
        self.inner.borrow().nodes.len()
    }

    /// Marks recorded so far.
    pub fn mark_count(&self) -> usize {
        self.inner.borrow().marks.len()
    }

    /// Whether the memory guard cut recording short.
    pub fn truncated(&self) -> bool {
        self.inner.borrow().truncated
    }

    /// Read access to the recorded nodes and marks.
    pub fn with_view<R>(&self, f: impl FnOnce(&LogView<'_>) -> R) -> R {
        let inner = self.inner.borrow();
        f(&LogView { inner: &inner, labels: crate::keyed::keys() })
    }

    fn on_execute(&self, node: u64, at: u64, parent: u64) {
        let inner = &mut *self.inner.borrow_mut();
        if inner.nodes.is_empty() {
            inner.base = node;
        } else if node != inner.next {
            // A different Sim started under the same collector: the old
            // run's graph is complete, restart cleanly for the new one.
            inner.nodes.clear();
            inner.first_mark.clear();
            inner.marks.clear();
            inner.base = node;
        }
        inner.next = node + 1;
        if inner.nodes.len() >= MAX_RECORDS {
            inner.truncated = true;
            return;
        }
        inner.nodes.push(NodeRec { at, parent });
        inner.first_mark.push(inner.marks.len() as u32);
    }

    fn mark(
        &self,
        owner: u64,
        label: &'static str,
        kind: MarkKind,
        start: u64,
        end: u64,
        fixed: u64,
    ) {
        let inner = &mut *self.inner.borrow_mut();
        let newest = inner.nodes.len().checked_sub(1).map(|i| inner.base + i as u64);
        if newest != Some(owner) {
            // Only a truncated log stops recording nodes while marks keep
            // coming; their owners are not in it.
            debug_assert!(
                inner.truncated,
                "causal: mark owner {owner} is not the newest recorded node {newest:?}"
            );
            return;
        }
        if inner.marks.len() >= MAX_RECORDS {
            inner.truncated = true;
            return;
        }
        inner.marks.push(PackedMark::new(label, kind, start, end, fixed));
    }

    /// Drain the log into a plain, `Send` snapshot. Used by the federated
    /// world: each lane records into its own log and the snapshots merge
    /// deterministically ([`merge_sharded_with_remap`]).
    pub fn take_data(&self) -> ShardCausalData {
        ShardCausalData(std::mem::take(&mut *self.inner.borrow_mut()))
    }
}

/// Read access to a [`CausalLog`]: its nodes, and each node's marks as
/// [`MarkRec`]s.
pub struct LogView<'a> {
    inner: &'a LogInner,
    /// Keyed id → label, for the marks' stored label ids.
    labels: Vec<&'static str>,
}

impl LogView<'_> {
    /// Node id of `nodes()[0]`.
    pub fn base(&self) -> u64 {
        self.inner.base
    }

    /// Provenance nodes in execution order: `nodes()[i]` is node id
    /// `base() + i`.
    pub fn nodes(&self) -> &[NodeRec] {
        &self.inner.nodes
    }

    /// The marks node `id` owns, in emission order (none for an id the
    /// log does not hold).
    pub fn marks_of(&self, id: u64) -> impl Iterator<Item = MarkRec> + '_ {
        let i = id.wrapping_sub(self.inner.base) as usize;
        let range = if i < self.inner.nodes.len() { self.inner.mark_range(i) } else { 0..0 };
        self.inner.marks[range].iter().map(move |m| m.read(id, &self.labels))
    }

    /// Every mark in emission order, which is node order.
    pub fn marks(&self) -> impl Iterator<Item = MarkRec> + '_ {
        self.marks_from(0)
    }

    /// The last `n` marks, in emission order.
    pub fn last_marks(&self, n: usize) -> impl Iterator<Item = MarkRec> + '_ {
        self.marks_from(self.inner.marks.len().saturating_sub(n))
    }

    /// Marks from index `first` of the emission order on.
    fn marks_from(&self, first: usize) -> impl Iterator<Item = MarkRec> + '_ {
        let inner = self.inner;
        // The owner of mark `first`: the last node whose marks begin at
        // or before it.
        let owner = inner.first_mark.partition_point(|&f| f as usize <= first).saturating_sub(1);
        (owner..inner.nodes.len()).flat_map(move |i| {
            let range = inner.mark_range(i);
            let id = inner.base + i as u64;
            inner.marks[range.start.max(first)..range.end]
                .iter()
                .map(move |m| m.read(id, &self.labels))
        })
    }
}

/// A detached, `Send` snapshot of one lane's causal log (node ids are in
/// that lane's namespace: `base + index`).
#[derive(Debug)]
pub struct ShardCausalData(LogInner);

/// Merge per-lane causal logs into one log with contiguous 1-based node
/// ids, deterministically: nodes are ordered by `(time, original id)` —
/// the original ids carry the lane index in their high bits (see
/// `Sim::set_node_base`), so ties at equal times break by lane, matching
/// the sharded engine's canonical merge rule. Each node brings its own
/// marks, in emission order. Parent references (including cross-lane
/// ones) are remapped; a parent that was never recorded (e.g. scheduled
/// before capture began) maps to 0. Also returns the `original gid ->
/// merged 1-based id` map so observers holding raw node ids (e.g. the
/// flow tracer's delivery nodes) can follow the renumbering.
pub fn merge_sharded_with_remap(
    shards: Vec<ShardCausalData>,
) -> (Rc<CausalLog>, std::collections::HashMap<u64, u64>) {
    let lanes: Vec<LogInner> = shards.into_iter().map(|s| s.0).collect();
    // (at, original gid, lane, index in lane) for every node, canonically
    // sorted.
    let mut order: Vec<(u64, u64, usize, usize)> = Vec::new();
    for (lane, s) in lanes.iter().enumerate() {
        for (i, n) in s.nodes.iter().enumerate() {
            order.push((n.at, s.base + i as u64, lane, i));
        }
    }
    order.sort_unstable_by_key(|&(at, gid, ..)| (at, gid));
    // Remap original gid -> merged 1-based id.
    let remap: std::collections::HashMap<u64, u64> =
        order.iter().enumerate().map(|(i, &(_, gid, ..))| (gid, i as u64 + 1)).collect();
    let mut merged = LogInner {
        base: 1,
        next: order.len() as u64 + 1,
        nodes: Vec::with_capacity(order.len()),
        first_mark: Vec::with_capacity(order.len()),
        marks: Vec::with_capacity(lanes.iter().map(|s| s.marks.len()).sum()),
        truncated: lanes.iter().any(|s| s.truncated),
    };
    for &(at, _, lane, i) in &order {
        let s = &lanes[lane];
        let parent = remap.get(&s.nodes[i].parent).copied().unwrap_or(0);
        merged.nodes.push(NodeRec { at, parent });
        let first = u32::try_from(merged.marks.len()).expect("causal: merged log over u32 marks");
        merged.first_mark.push(first);
        merged.marks.extend_from_slice(&s.marks[s.mark_range(i)]);
    }
    (Rc::new(CausalLog { inner: RefCell::new(merged) }), remap)
}

thread_local! {
    static ACTIVE: RefCell<Option<Rc<CausalLog>>> = const { RefCell::new(None) };
    /// Fast-path flag mirroring `ACTIVE.is_some()`: the per-event and
    /// per-mark overhead when no collector is installed is one read here.
    static INSTALLED: Cell<bool> = const { Cell::new(false) };
    /// Node id of the event currently being dispatched (0 outside
    /// dispatch) — the owner of any mark emitted right now.
    static CURRENT: Cell<u64> = const { Cell::new(0) };
}

/// Install `log` as this thread's causal collector.
pub fn install(log: Rc<CausalLog>) {
    ACTIVE.with(|a| *a.borrow_mut() = Some(log));
    INSTALLED.with(|i| i.set(true));
}

/// Remove the collector (recording stops; no-op if none installed).
pub fn uninstall() {
    ACTIVE.with(|a| *a.borrow_mut() = None);
    INSTALLED.with(|i| i.set(false));
    CURRENT.with(|c| c.set(0));
}

/// Whether a collector is installed.
#[inline]
pub fn installed() -> bool {
    INSTALLED.with(|i| i.get())
}

/// Node id of the event currently being dispatched (0 when idle or when
/// no collector is installed). Lets observers — e.g. the flow tracer —
/// associate their own records with provenance nodes.
#[inline]
pub fn current_node() -> u64 {
    CURRENT.with(|c| c.get())
}

/// Called by the [`Sim`](crate::Sim) as event `node` (its 1-based executed
/// counter) begins dispatch at `at` ns, scheduled by `parent`.
#[inline]
pub fn on_execute(node: u64, at: u64, parent: u64) {
    CURRENT.with(|c| c.set(node));
    ACTIVE.with(|a| {
        if let Some(log) = a.borrow().as_ref() {
            log.on_execute(node, at, parent);
        }
    });
}

/// Called by the [`Sim`](crate::Sim) when dispatch of the current event
/// finishes.
#[inline]
pub fn end_execute() {
    CURRENT.with(|c| c.set(0));
}

/// Record a labeled time interval `[start, end]` attributed to the
/// currently executing event. No-op when no collector is installed, when
/// emitted outside event dispatch, or when the interval is empty.
#[inline]
pub fn mark(label: &'static str, kind: MarkKind, start: SimTime, end: SimTime, fixed: u64) {
    if !installed() {
        return;
    }
    let owner = current_node();
    if owner == 0 || end <= start {
        return;
    }
    ACTIVE.with(|a| {
        if let Some(log) = a.borrow().as_ref() {
            log.mark(owner, label, kind, start.as_nanos(), end.as_nanos(), fixed);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn no_collector_is_inert() {
        uninstall();
        assert!(!installed());
        assert_eq!(current_node(), 0);
        // Must not panic or record anywhere.
        mark("x", MarkKind::Work, SimTime::ZERO, SimTime::from_nanos(10), 0);
    }

    #[test]
    fn records_nodes_and_marks() {
        let log = CausalLog::new();
        install(log.clone());
        on_execute(1, 100, 0);
        mark("lock", MarkKind::Hold, SimTime::from_nanos(100), SimTime::from_nanos(150), 0);
        on_execute(2, 200, 1);
        end_execute();
        // Outside dispatch: dropped.
        mark("late", MarkKind::Work, SimTime::from_nanos(200), SimTime::from_nanos(300), 0);
        // Empty interval: dropped.
        on_execute(3, 300, 2);
        mark("empty", MarkKind::Work, SimTime::from_nanos(300), SimTime::from_nanos(300), 0);
        uninstall();
        assert_eq!(log.node_count(), 3);
        assert_eq!(log.mark_count(), 1);
        log.with_view(|v| {
            assert_eq!(v.base(), 1);
            assert_eq!(v.nodes()[1].parent, 1);
            let marks: Vec<MarkRec> = v.marks_of(1).collect();
            assert_eq!((marks.len(), marks[0].owner, marks[0].label), (1, 1, "lock"));
            assert_eq!(v.marks_of(2).count() + v.marks_of(3).count() + v.marks_of(9).count(), 0);
        });
    }

    #[test]
    fn second_sim_rebases_the_log() {
        let log = CausalLog::new();
        install(log.clone());
        on_execute(1, 10, 0);
        on_execute(2, 20, 1);
        // A fresh Sim's executed counter restarts from 1.
        on_execute(1, 5, 0);
        on_execute(2, 9, 1);
        on_execute(3, 12, 2);
        uninstall();
        assert_eq!(log.node_count(), 3);
        log.with_view(|v| {
            assert_eq!(v.base(), 1);
            assert_eq!(v.nodes()[0].at, 5);
        });
    }

    #[test]
    fn a_stored_mark_takes_24_bytes() {
        assert_eq!(std::mem::size_of::<PackedMark>(), 24);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "mark owner 1 is not the newest recorded node Some(2)")]
    fn a_mark_for_an_older_node_is_loud() {
        let log = CausalLog::new();
        log.on_execute(1, 10, 0);
        log.on_execute(2, 20, 1);
        log.mark(1, "x", MarkKind::Work, 10, 20, 0);
    }

    /// SplitMix64: a seeded stream for the generated sequences below.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// A label with the content of `LABELS[1]` at another address: it must
    /// read back as the same label.
    fn labels() -> [&'static str; 4] {
        static COPY: std::sync::OnceLock<&'static str> = std::sync::OnceLock::new();
        let copy = *COPY.get_or_init(|| Box::leak(String::from("causal.test.b").into_boxed_str()));
        ["causal.test.a", copy, "causal.test.b", "net.wire"]
    }

    /// What the naive recorder keeps per mark: `(label, kind, start, end,
    /// fixed)`.
    type Mark = (&'static str, MarkKind, u64, u64, u64);

    fn fields(m: &MarkRec) -> Mark {
        (m.label, m.kind, m.start, m.end, m.fixed)
    }

    /// The reference recorder: every node as `(id, at, parent, marks)`.
    type Reference = Vec<(u64, u64, u64, Vec<Mark>)>;

    /// Drive `log` (installed on this thread) with one generated
    /// dispatch sequence over node ids `base + 1, base + 2, ...`, and
    /// record the same sequence naively. `restarts` lets a new Sim take
    /// over mid-sequence. Parents are drawn from `parents` and the
    /// sequence's own earlier nodes.
    fn drive(rng: &mut Rng, base: u64, restarts: bool, parents: &[u64]) -> Reference {
        let mut naive: Reference = Vec::new();
        let (mut executed, mut at, mut dispatching) = (0u64, 0u64, false);
        for _ in 0..rng.below(60) {
            match rng.below(10) {
                0 if restarts => {
                    // A fresh Sim: its counter restarts, and the log
                    // rebases on its first event.
                    executed = 0;
                    dispatching = false;
                    end_execute();
                }
                0..=3 => {
                    if executed == 0 {
                        naive.clear();
                    }
                    executed += 1;
                    at += rng.below(50);
                    let pick = rng.below(naive.len() as u64 + parents.len() as u64 + 1) as usize;
                    let parent = match pick.checked_sub(1) {
                        None => 0,
                        Some(k) if k < parents.len() => parents[k],
                        Some(k) => naive[k - parents.len()].0,
                    };
                    on_execute(base + executed, at, parent);
                    naive.push((base + executed, at, parent, Vec::new()));
                    dispatching = true;
                }
                4 => {
                    end_execute();
                    dispatching = false;
                }
                _ => {
                    let label = labels()[rng.below(4) as usize];
                    let kind = KINDS[rng.below(4) as usize];
                    let start = at + rng.below(100);
                    // One in four intervals is empty.
                    let len = if rng.below(4) == 0 { 0 } else { 1 + rng.below(500) };
                    let fixed = if kind == MarkKind::Wire { rng.below(len + 1) } else { 0 };
                    let (s, e) = (SimTime::from_nanos(start), SimTime::from_nanos(start + len));
                    mark(label, kind, s, e, fixed);
                    if dispatching && len > 0 {
                        let last = naive.last_mut().expect("dispatch implies a node");
                        last.3.push((label, kind, start, start + len, fixed));
                    }
                }
            }
        }
        end_execute();
        naive
    }

    /// The log holds exactly what the naive recorder holds: same nodes,
    /// same per-node marks, same emission order and tail.
    fn assert_matches(log: &CausalLog, naive: &Reference, what: &str) {
        assert_eq!(log.node_count(), naive.len(), "{what}: node count");
        log.with_view(|v| {
            let flat: Vec<Mark> = naive.iter().flat_map(|n| n.3.iter().copied()).collect();
            assert_eq!(v.marks().map(|m| fields(&m)).collect::<Vec<_>>(), flat, "{what}: marks");
            for (i, (id, at, parent, marks)) in naive.iter().enumerate() {
                assert_eq!(v.base() + i as u64, *id, "{what}: node id");
                assert_eq!((v.nodes()[i].at, v.nodes()[i].parent), (*at, *parent), "{what}");
                let got: Vec<MarkRec> = v.marks_of(*id).collect();
                assert!(got.iter().all(|m| m.owner == *id), "{what}: owner of node {id}");
                let got: Vec<Mark> = got.iter().map(fields).collect();
                assert_eq!(&got, marks, "{what}: marks of node {id}");
            }
            for n in [0, 1, 3, flat.len(), flat.len() + 2] {
                let tail: Vec<Mark> = v.last_marks(n).map(|m| fields(&m)).collect();
                assert_eq!(tail, flat[flat.len().saturating_sub(n)..], "{what}: last {n} marks");
            }
            let owners: Vec<u64> = v.last_marks(flat.len()).map(|m| m.owner).collect();
            let want: Vec<u64> = naive.iter().flat_map(|n| n.3.iter().map(|_| n.0)).collect();
            assert_eq!(owners, want, "{what}: owners in emission order");
        });
    }

    #[test]
    fn packed_log_equals_a_naive_recorder() {
        for seed in 0..300 {
            let log = CausalLog::new();
            install(log.clone());
            let naive = drive(&mut Rng(seed), 0, true, &[]);
            uninstall();
            assert_matches(&log, &naive, &format!("seed {seed}"));
        }
    }

    #[test]
    fn merge_equals_a_reference_merge() {
        for seed in 0..200 {
            let mut rng = Rng(seed);
            let lanes = 2 + rng.below(2);
            let mut recorded: Vec<Reference> = Vec::new();
            let mut data = Vec::new();
            for lane in 0..lanes {
                let base = lane << 44;
                // Cross-lane parents, and one that was never recorded.
                let mut parents: Vec<u64> = recorded.iter().flatten().map(|n| n.0).collect();
                parents.push((lane + 7) << 44);
                let log = CausalLog::new();
                install(log.clone());
                recorded.push(drive(&mut rng, base, false, &parents));
                uninstall();
                data.push(log.take_data());
                assert_eq!(log.node_count() + log.mark_count(), 0, "take_data drains the lane");
            }
            let (merged, remap) = merge_sharded_with_remap(data);

            // Reference: nodes sorted by (at, gid), ids 1.., parents
            // remapped (unrecorded ones to 0), marks kept per owner.
            let mut all: Vec<_> = recorded.into_iter().flatten().collect();
            all.sort_by_key(|n| (n.1, n.0));
            let want_remap: HashMap<u64, u64> =
                all.iter().enumerate().map(|(i, n)| (n.0, i as u64 + 1)).collect();
            assert_eq!(remap, want_remap, "seed {seed}: remap");
            let reference: Reference = all
                .into_iter()
                .enumerate()
                .map(|(i, (_, at, parent, marks))| {
                    let parent = want_remap.get(&parent).copied().unwrap_or(0);
                    (i as u64 + 1, at, parent, marks)
                })
                .collect();
            assert_matches(&merged, &reference, &format!("merge seed {seed}"));
        }
    }
}
