//! Causal provenance capture: who scheduled whom, and where the time went.
//!
//! When a collector is installed (see [`install`]), the [`Sim`] records one
//! provenance edge per executed event — *the event that was executing when
//! this event was scheduled* — and the contention primitives
//! ([`crate::SimLock`], [`crate::SimTryLock`], [`crate::SimResource`]) and
//! the network fabric annotate the currently-executing event with labeled
//! time *marks* (lock wait, lock hold, resource service, wire transit).
//! The primitives' marks arrive through their [`crate::probe`] call: the
//! probe that observes an access writes its Wait and Hold/Work with
//! [`CausalLog::access`], so a collector installs both hooks together.
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
use std::ops::Range;
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

/// Every kind, indexed by its discriminant (the code a record keeps).
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

// The log stores marks as records of `u32` words. A record's header word
// is the label's keyed id shifted left 3, then a 3-bit form. Its owner is
// where it sits (see `LogInner::first_mark`); `off` is the mark's start
// minus the owner's `at`, `dur` and `wait` are lengths:
//
// | form                       | words                            | marks |
// |----------------------------|----------------------------------|-------|
// | Wait, Hold, Work (0, 1, 2) | `[hdr, off, dur]`                | 1     |
// | `FORM_WIRE` (3)            | `[hdr, off, dur, fixed]`         | 1     |
// | `FORM_WAIT_HOLD`, `_WORK`  | `[hdr, off, wait, dur]`          | 2     |
// | `FORM_WIDE`                | `[hdr, kind, start, end, fixed]` | 1     |
//
// A wide record's `start` and `end` take two words each, low word first.
// A pair is one `SimLock`/`SimResource` access, written by
// `CausalLog::access`: a Wait, then a Hold/Work under the same label
// starting where the wait ends. The wide form takes
// any mark the others cannot: a start before the owner's time, an offset
// or length over `u32`, or a non-Wire mark with a fixed part.

/// A lone Wire mark.
const FORM_WIRE: u32 = MarkKind::Wire as u32;
/// A Wait and the Hold that follows it.
const FORM_WAIT_HOLD: u32 = 4;
/// A Wait and the Work that follows it.
const FORM_WAIT_WORK: u32 = 5;
/// Any one mark, with absolute times.
const FORM_WIDE: u32 = 6;

/// A record header: `id << 3 | form`.
fn header(id: u32, form: u32) -> u32 {
    id << 3 | form
}

/// A label id must leave a header room for its form.
#[inline]
fn check_id(id: u32) {
    assert!(id < 1 << 29, "causal: label id {id} does not fit a 29-bit record header");
}

/// `(words, marks)` of a record of `form`.
fn shape(form: u32) -> (usize, usize) {
    match form {
        FORM_WIDE => (7, 1),
        FORM_WAIT_HOLD | FORM_WAIT_WORK => (4, 2),
        FORM_WIRE => (4, 1),
        _ => (3, 1),
    }
}

/// Memory guard: stop recording past this many nodes or marks (a run this
/// long is not usefully analyzable anyway; the flag is reported).
const MAX_RECORDS: usize = 1 << 24;

// The guard's marks, at most 7 words each, have `u32` word indices.
const _: () = assert!(MAX_RECORDS * 7 <= u32::MAX as usize);

/// Words per record block (64 KiB).
const BLOCK_WORDS: usize = 1 << 14;

/// A `u32` stream kept in fixed blocks of [`BLOCK_WORDS`]: appending never
/// moves a word, and capacity exceeds length by less than one block.
#[derive(Debug, Default)]
struct Words(Vec<Vec<u32>>);

impl Words {
    fn len(&self) -> usize {
        self.0.last().map_or(0, |b| (self.0.len() - 1) * BLOCK_WORDS + b.len())
    }

    fn capacity(&self) -> usize {
        self.0.len() * BLOCK_WORDS
    }

    fn get(&self, i: usize) -> u32 {
        self.0[i / BLOCK_WORDS][i % BLOCK_WORDS]
    }

    /// Append one record. Its length is a constant, so the copy is a few
    /// stores rather than a `memcpy` call.
    #[inline]
    fn push<const N: usize>(&mut self, words: [u32; N]) {
        match self.0.last_mut() {
            Some(block) if BLOCK_WORDS - block.len() >= N => block.extend_from_slice(&words),
            _ => self.push_across(&words),
        }
    }

    /// [`Words::push`] of words that need a new block.
    #[cold]
    fn push_across(&mut self, mut words: &[u32]) {
        while !words.is_empty() {
            if self.0.last().is_none_or(|b| b.len() == BLOCK_WORDS) {
                self.0.push(Vec::with_capacity(BLOCK_WORDS));
            }
            let block = self.0.last_mut().expect("a block with room");
            let n = words.len().min(BLOCK_WORDS - block.len());
            block.extend_from_slice(&words[..n]);
            words = &words[n..];
        }
    }

    /// Append words `range` of `src`.
    fn extend_from(&mut self, src: &Words, range: Range<usize>) {
        for i in range {
            self.push([src.get(i)]);
        }
    }
}

#[derive(Debug, Default)]
struct LogInner {
    /// Node id of `nodes[0]` (node ids are the Sim's 1-based executed
    /// counter; recording may start mid-run).
    base: u64,
    /// The node id the next `on_execute` continues with; any other id
    /// means a new Sim started.
    next: u64,
    nodes: Vec<NodeRec>,
    /// Word index in `words` where node `base + i`'s records begin; they
    /// run up to the next node's first record (or the end). Marks are only
    /// ever emitted for the newest node, so this is all the owner data the
    /// log keeps.
    first_mark: Vec<u32>,
    /// Every mark's record in emission order, which is node order.
    words: Words,
    /// Marks stored (a pair holds two).
    marks: usize,
    truncated: bool,
}

impl LogInner {
    /// The words of `words` that hold `nodes[i]`'s records.
    fn word_range(&self, i: usize) -> Range<usize> {
        let end = self.first_mark.get(i + 1).map_or(self.words.len(), |&e| e as usize);
        self.first_mark[i] as usize..end
    }

    /// Whether marks for node `owner` go in: it must be the newest node.
    fn owns(&self, owner: u64) -> bool {
        let newest = self.nodes.len().checked_sub(1).map(|i| self.base + i as u64);
        // Only a truncated log stops recording nodes while marks keep
        // coming; their owners are not in it.
        debug_assert!(
            newest == Some(owner) || self.truncated,
            "causal: mark owner {owner} is not the newest recorded node {newest:?}"
        );
        newest == Some(owner)
    }

    /// Append one mark of the newest node as a lone record (nothing for
    /// an empty interval).
    fn push(&mut self, id: u32, kind: MarkKind, start: u64, end: u64, fixed: u64) {
        if end <= start {
            return;
        }
        if self.marks >= MAX_RECORDS {
            self.truncated = true;
            return;
        }
        self.marks += 1;
        check_id(id);
        let fixed = u32::try_from(fixed).unwrap_or(u32::MAX);
        let at = self.nodes[self.nodes.len() - 1].at;
        let off = start.checked_sub(at).and_then(|off| u32::try_from(off).ok());
        match (off, u32::try_from(end - start).ok()) {
            (Some(off), Some(dur)) if kind == MarkKind::Wire => {
                self.words.push([header(id, FORM_WIRE), off, dur, fixed]);
            }
            (Some(off), Some(dur)) if fixed == 0 => {
                self.words.push([header(id, kind as u32), off, dur]);
            }
            _ => {
                let (lo, hi) = (|t: u64| t as u32, |t: u64| (t >> 32) as u32);
                let hdr = header(id, FORM_WIDE);
                self.words.push([hdr, kind as u32, lo(start), hi(start), lo(end), hi(end), fixed]);
            }
        }
    }

    /// Marks `nodes[i]` owns.
    fn marks_in(&self, i: usize) -> usize {
        let (Range { start: mut pos, end }, mut marks) = (self.word_range(i), 0);
        while pos < end {
            let (words, n) = shape(self.words.get(pos) & 7);
            pos += words;
            marks += n;
        }
        marks
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
        self.inner.borrow().marks
    }

    /// `(stored, reserved)`: the bytes the marks' records take, and the
    /// bytes their blocks hold, less than one 64 KiB block more.
    pub fn mark_bytes(&self) -> (usize, usize) {
        let words = &self.inner.borrow().words;
        (4 * words.len(), 4 * words.capacity())
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
            *inner = LogInner { base: node, ..LogInner::default() };
        }
        inner.next = node + 1;
        if inner.nodes.len() >= MAX_RECORDS {
            inner.truncated = true;
            return;
        }
        inner.nodes.push(NodeRec { at, parent });
        // In range: see the guard's assertion.
        inner.first_mark.push(inner.words.len() as u32);
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
        if inner.owns(owner) {
            debug_assert!(
                fixed <= u32::MAX as u64,
                "causal: {label} fixed part {fixed} ns over u32"
            );
            inner.push(crate::keyed::id_of(label), kind, start, end, fixed);
        }
    }

    /// Record one lock or resource access owned by node `owner`, under the
    /// label with keyed id `id`: a Wait over `[start, mid]`, then a `kind`
    /// (Hold or Work) mark over `[mid, end]` (`start <= mid <= end`). An
    /// empty interval is no mark. When both are marks and fit the compact
    /// form they share one record. The contention probe calls this for
    /// every access it sees.
    pub fn access(&self, owner: u64, id: u32, kind: MarkKind, start: u64, mid: u64, end: u64) {
        debug_assert!(start <= mid && mid <= end, "causal: access {start}..{mid}..{end}");
        let inner = &mut *self.inner.borrow_mut();
        if !inner.owns(owner) {
            return;
        }
        let form = match kind {
            MarkKind::Hold => FORM_WAIT_HOLD,
            MarkKind::Work => FORM_WAIT_WORK,
            _ => panic!("causal: an access ends in a Hold or Work mark, not {kind:?}"),
        };
        let at = inner.nodes[inner.nodes.len() - 1].at;
        let off = start.checked_sub(at).and_then(|off| u32::try_from(off).ok());
        let (wait, dur) = (u32::try_from(mid - start).ok(), u32::try_from(end - mid).ok());
        match (off, wait, dur) {
            (Some(off), Some(wait @ 1..), Some(dur @ 1..)) if inner.marks + 2 <= MAX_RECORDS => {
                check_id(id);
                inner.marks += 2;
                inner.words.push([header(id, form), off, wait, dur]);
            }
            _ => {
                if mid > start {
                    inner.push(id, MarkKind::Wait, start, mid, 0);
                }
                inner.push(id, kind, mid, end, 0);
            }
        }
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
    /// Keyed id → label, for the records' label ids.
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
        self.node_marks(id.wrapping_sub(self.inner.base) as usize)
    }

    /// Every mark in emission order, which is node order.
    pub fn marks(&self) -> impl Iterator<Item = MarkRec> + '_ {
        (0..self.inner.nodes.len()).flat_map(move |i| self.node_marks(i))
    }

    /// The last `n` marks, in emission order.
    pub fn last_marks(&self, n: usize) -> impl Iterator<Item = MarkRec> + '_ {
        // Walk back node by node to the one holding the n-th mark from
        // the end; `skip` of its marks come before the cut.
        let (mut first, mut skip, mut left) = (self.inner.nodes.len(), 0, n);
        while left > 0 && first > 0 {
            first -= 1;
            let marks = self.inner.marks_in(first);
            skip = marks.saturating_sub(left);
            left -= marks.min(left);
        }
        (first..self.inner.nodes.len())
            .flat_map(move |i| self.node_marks(i).skip(if i == first { skip } else { 0 }))
    }

    /// The marks of `nodes()[i]`, decoded from its records (none past
    /// the last node).
    fn node_marks(&self, i: usize) -> Records<'_> {
        let inner = self.inner;
        let (at, words) = match inner.nodes.get(i) {
            Some(node) => (node.at, inner.word_range(i)),
            None => (0, 0..0),
        };
        Records {
            words: &inner.words,
            labels: &self.labels,
            owner: inner.base + i as u64,
            at,
            pos: words.start,
            end: words.end,
            second: None,
        }
    }
}

/// Decodes the records in words `pos..end`, owned by node `owner`, which
/// fired at `at`, into marks.
struct Records<'a> {
    words: &'a Words,
    labels: &'a [&'static str],
    owner: u64,
    at: u64,
    pos: usize,
    end: usize,
    /// The Hold/Work half of the pair whose Wait came last.
    second: Option<MarkRec>,
}

impl Iterator for Records<'_> {
    type Item = MarkRec;

    fn next(&mut self) -> Option<MarkRec> {
        if let Some(m) = self.second.take() {
            return Some(m);
        }
        if self.pos >= self.end {
            return None;
        }
        let w = |k: usize| self.words.get(self.pos + k);
        let hdr = w(0);
        let form = hdr & 7;
        let rec = |kind, start, end, fixed| MarkRec {
            owner: self.owner,
            label: self.labels[(hdr >> 3) as usize],
            kind,
            start,
            end,
            fixed,
        };
        // A compact record's first interval: `off` and `dur` (or `wait`).
        let span = || {
            let start = self.at + w(1) as u64;
            (start, start + w(2) as u64)
        };
        let (first, second) = match form {
            FORM_WIDE => {
                let wide = |k: usize| w(k) as u64 | (w(k + 1) as u64) << 32;
                (rec(KINDS[w(1) as usize], wide(2), wide(4), w(6) as u64), None)
            }
            FORM_WAIT_HOLD | FORM_WAIT_WORK => {
                let (start, mid) = span();
                let kind = if form == FORM_WAIT_HOLD { MarkKind::Hold } else { MarkKind::Work };
                let hold = rec(kind, mid, mid + w(3) as u64, 0);
                (rec(MarkKind::Wait, start, mid, 0), Some(hold))
            }
            FORM_WIRE => {
                let (start, end) = span();
                (rec(MarkKind::Wire, start, end, w(3) as u64), None)
            }
            _ => {
                let (start, end) = span();
                (rec(KINDS[form as usize], start, end, 0), None)
            }
        };
        self.pos += shape(form).0;
        self.second = second;
        Some(first)
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
        marks: lanes.iter().map(|s| s.marks).sum(),
        truncated: lanes.iter().any(|s| s.truncated),
        ..LogInner::default()
    };
    for &(at, _, lane, i) in &order {
        let s = &lanes[lane];
        let parent = remap.get(&s.nodes[i].parent).copied().unwrap_or(0);
        merged.nodes.push(NodeRec { at, parent });
        let first = u32::try_from(merged.words.len()).expect("causal: merged log over u32 words");
        merged.first_mark.push(first);
        // A record's times are offsets from its node's `at`, which the
        // merge keeps: the words copy as they are.
        merged.words.extend_from(&s.words, s.word_range(i));
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
    fn each_record_form_stores_its_bytes() {
        let log = CausalLog::new();
        log.on_execute(1, 100, 0);
        let stored = |log: &CausalLog| log.mark_bytes().0;
        // An access: a Wait, then a Hold where it ends.
        let lock = crate::keyed::id_of("lock");
        log.access(1, lock, MarkKind::Hold, 110, 130, 180);
        assert_eq!((log.mark_count(), stored(&log)), (2, 16), "an access pair");
        log.mark(1, "res", MarkKind::Work, 200, 210, 0);
        assert_eq!((log.mark_count(), stored(&log)), (3, 16 + 12), "a single mark");
        log.mark(1, "net.wire", MarkKind::Wire, 210, 300, 40);
        assert_eq!((log.mark_count(), stored(&log)), (4, 16 + 12 + 16), "a Wire mark");
        log.mark(1, "lock", MarkKind::Hold, 50, 60, 0);
        assert_eq!((log.mark_count(), stored(&log)), (5, 16 + 12 + 16 + 28), "before the node");
        // Capacity never runs more than one block ahead of the records.
        let block = 4 * BLOCK_WORDS;
        for k in 0..3 * BLOCK_WORDS as u64 {
            let t = 300 + 10 * k;
            if k % 3 == 0 {
                log.access(1, crate::keyed::id_of("res"), MarkKind::Work, t, t + 4, t + 9);
            } else {
                log.mark(1, "res", MarkKind::Wait, t, t + 4, 0);
            }
            let (stored, reserved) = log.mark_bytes();
            assert!(stored <= reserved && reserved < stored + block, "{stored} B in {reserved} B");
        }
    }

    #[test]
    fn a_new_sim_clears_the_truncated_flag() {
        let log = CausalLog::new();
        log.on_execute(1, 10, 0);
        log.on_execute(2, 20, 1);
        // As if the memory guard had cut the first run short.
        log.inner.borrow_mut().truncated = true;
        log.on_execute(1, 5, 0);
        assert!(!log.truncated(), "the rebased log holds the new run whole");
        assert_eq!(log.node_count(), 1);
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

    /// A mark start relative to a node fired at `at`: mostly a little after
    /// it, sometimes before it, sometimes 2^32 ns or more after it.
    fn gen_start(rng: &mut Rng, at: u64) -> u64 {
        match rng.below(10) {
            0 => at.saturating_sub(1 + rng.below(100)),
            1 => at + (1 << 32) - 1 + rng.below(3),
            _ => at + rng.below(100),
        }
    }

    /// A mark length: one in five is empty, one in ten straddles 2^32 ns.
    fn gen_len(rng: &mut Rng) -> u64 {
        match rng.below(10) {
            0 | 1 => 0,
            2 => (1 << 32) - 1 + rng.below(3),
            _ => 1 + rng.below(500),
        }
    }

    /// The marks of one generated emission. Most are shaped like a
    /// `SimLock`/`SimResource` access, a Wait then a Hold/Work under the
    /// same label that starts where the wait ends, which [`drive`] records
    /// through `CausalLog::access`; some of those miss by one thing
    /// (another label, a gap, a Wire kind, a non-zero fixed part) and go
    /// through `mark`. Some continue `prev`, the last mark emitted, which
    /// may belong to an earlier node. The rest are single marks.
    fn gen_marks(rng: &mut Rng, at: u64, prev: Option<Mark>) -> Vec<Mark> {
        let label = labels()[rng.below(4) as usize];
        let start = gen_start(rng, at);
        let len = gen_len(rng);
        let access = KINDS[1 + rng.below(2) as usize];
        match (rng.below(10), prev) {
            (0..=3, _) => {
                let kind = KINDS[rng.below(4) as usize];
                // Wire marks carry a fixed part; one in eight others does too.
                let fixed = match kind {
                    MarkKind::Wire => rng.below(len.min(u32::MAX as u64) + 1),
                    _ if rng.below(8) == 0 => 1 + rng.below(500),
                    _ => 0,
                };
                vec![(label, kind, start, start + len, fixed)]
            }
            (4, Some((label, MarkKind::Wait, _, end, _))) => {
                vec![(label, access, end, end + len, 0)]
            }
            _ => {
                let wait_end = start + len;
                let (mut label2, mut kind, mut start2, mut fixed) = (label, access, wait_end, 0);
                match rng.below(8) {
                    0 => {
                        let others: Vec<_> = labels().into_iter().filter(|l| *l != label).collect();
                        label2 = others[rng.below(others.len() as u64) as usize];
                    }
                    1 => start2 += 1 + rng.below(3),
                    2 => kind = MarkKind::Wire,
                    3 => fixed = 1 + rng.below(500),
                    _ => {}
                }
                let end2 = start2 + gen_len(rng);
                vec![
                    (label, MarkKind::Wait, start, wait_end, 0),
                    (label2, kind, start2, end2, fixed),
                ]
            }
        }
    }

    /// Drive `log` (installed on this thread) with a generated dispatch
    /// sequence of `steps` steps over node ids `base + 1, base + 2, ...`,
    /// and record the same sequence naively. `restarts` lets a new Sim
    /// take over mid-sequence. Parents are drawn from `parents` and the
    /// sequence's own earlier nodes.
    fn drive(rng: &mut Rng, steps: u64, base: u64, restarts: bool, parents: &[u64]) -> Reference {
        let mut naive: Reference = Vec::new();
        let (mut executed, mut at, mut dispatching) = (0u64, 0u64, false);
        let mut prev = None;
        for _ in 0..steps {
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
                    let marks = gen_marks(rng, at, prev);
                    match marks[..] {
                        [(label, MarkKind::Wait, start, mid, 0), (label2, kind, mid2, end, 0)]
                            if label == label2
                                && mid == mid2
                                && matches!(kind, MarkKind::Hold | MarkKind::Work) =>
                        {
                            let id = crate::keyed::id_of(label);
                            ACTIVE.with(|a| {
                                let (log, owner) = (a.borrow(), current_node());
                                if let (Some(log), true) = (log.as_ref(), owner != 0) {
                                    log.access(owner, id, kind, start, mid, end);
                                }
                            });
                        }
                        _ => {
                            for &(label, kind, start, end, fixed) in &marks {
                                let (start, end) =
                                    (SimTime::from_nanos(start), SimTime::from_nanos(end));
                                mark(label, kind, start, end, fixed);
                            }
                        }
                    }
                    for m @ (label, kind, start, end, fixed) in marks {
                        prev = Some(m);
                        if dispatching && end > start {
                            let last = naive.last_mut().expect("dispatch implies a node");
                            last.3.push((label, kind, start, end, fixed));
                        }
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
            // Every cut of a short log, so some fall inside an access's
            // Wait/Hold pair; every 97th of a long one.
            let step = if flat.len() <= 300 { 1 } else { 97 };
            let cuts = (0..=flat.len() + 1).step_by(step).chain([flat.len(), flat.len() + 1]);
            for n in cuts {
                let tail: Vec<Mark> = v.last_marks(n).map(|m| fields(&m)).collect();
                assert_eq!(tail, flat[flat.len().saturating_sub(n)..], "{what}: last {n} marks");
            }
            let owners: Vec<u64> = v.last_marks(flat.len()).map(|m| m.owner).collect();
            let want: Vec<u64> = naive.iter().flat_map(|n| n.3.iter().map(|_| n.0)).collect();
            assert_eq!(owners, want, "{what}: owners in emission order");
        });
    }

    /// The forms of `log`'s records, as a bit set.
    fn forms(log: &CausalLog) -> u32 {
        let inner = log.inner.borrow();
        let (mut pos, mut seen) = (0, 0);
        while pos < inner.words.len() {
            let form = inner.words.get(pos) & 7;
            seen |= 1 << form;
            pos += shape(form).0;
        }
        seen
    }

    /// One log driven for `steps` steps, against the naive recorder; the
    /// forms of its records.
    fn check_single(seed: u64, steps: u64, restarts: bool) -> u32 {
        let log = CausalLog::new();
        install(log.clone());
        let naive = drive(&mut Rng(seed), steps, 0, restarts, &[]);
        uninstall();
        assert_matches(&log, &naive, &format!("seed {seed}"));
        forms(&log)
    }

    #[test]
    fn packed_log_equals_a_naive_recorder() {
        let mut seen = 0;
        for seed in 0..300 {
            seen |= check_single(seed, Rng(seed ^ 0x5eed).below(60), true);
        }
        assert_eq!(seen, 0x7f, "the sequences store every record form");
    }

    /// Over several blocks, some records straddle a block boundary.
    #[test]
    fn a_log_over_many_blocks_equals_a_naive_recorder() {
        let log = CausalLog::new();
        install(log.clone());
        let naive = drive(&mut Rng(7), 30_000, 0, false, &[]);
        uninstall();
        assert!(log.mark_bytes().0 > 3 * 4 * BLOCK_WORDS, "the log spans more than three blocks");
        assert_matches(&log, &naive, "many blocks");
    }

    /// A merge of `lanes` lanes, each driven for up to `steps` steps,
    /// against a reference merge.
    fn check_merge(seed: u64, steps: u64) {
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
            let steps = rng.below(steps);
            recorded.push(drive(&mut rng, steps, base, false, &parents));
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

    #[test]
    fn merge_equals_a_reference_merge() {
        for seed in 0..200 {
            check_merge(seed, 60);
        }
    }

    /// Lanes of several blocks each: their word ranges copy across block
    /// boundaries.
    #[test]
    fn a_merge_over_many_blocks_equals_a_reference_merge() {
        check_merge(3, 30_000);
    }
}
