//! Causal provenance capture: who scheduled whom, and where the time went.
//!
//! A [`CausalLog`] is a [`Probe`]. Installed in the [`crate::probe`] slot,
//! alone or inside a collector that forwards to it, it records one
//! provenance node per event the [`Sim`] dispatches, with the edge to
//! *the event that was executing when this event was scheduled*. It
//! tracks the executing node itself, and attributes to it the labeled
//! time *marks* that the models emit while it runs: lock wait, lock hold,
//! resource service, wire transit. The contention primitives
//! ([`crate::SimLock`], [`crate::SimTryLock`], [`crate::SimResource`])
//! report each access as one [`Access`], which the log writes as its Wait
//! and Hold/Work (its [`Probe::access`]); other marks come through
//! [`mark`].
//! Together these reconstruct the exact critical path of a run: walk the
//! parent chain backwards from any event and carve each inter-event gap
//! with the marks owned by the earlier event.
//!
//! The free functions [`on_execute`], [`end_execute`] and [`mark`] emit
//! through the slot: one `Cell<bool>` read when nothing is installed, and
//! **pure observation** when something is — recording never feeds back
//! into simulation timing.
//!
//! [`Sim`]: crate::Sim

use std::cell::{Cell, RefCell};
use std::ops::Range;
use std::rc::Rc;

use crate::blocks::Blocks;
use crate::probe::{self, Access, AccessKind, Probe};
use crate::time::SimTime;
use crate::varint;

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

// The log stores marks as records of LEB128 varints ([`crate::varint`]).
// A record's header is the label's keyed id shifted left 3, then a 3-bit
// form. Its owner is where it sits (see `NodeSlot::first`); `off` is the
// mark's start minus the owner's `at`, `dur` and `wait` are lengths:
//
// | form                       | fields                         | marks |
// |----------------------------|--------------------------------|-------|
// | Wait, Hold, Work (0, 1, 2) | `hdr, off, dur`                | 1     |
// | `FORM_WIRE` (3)            | `hdr, off, dur, fixed`         | 1     |
// | `FORM_WAIT_HOLD`, `_WORK`  | `hdr, off, wait, dur`          | 2     |
// | `FORM_WIDE`                | `hdr, kind, start, end, fixed` | 1     |
//
// A pair is one `SimLock`/`SimResource` access, written by
// `CausalLog::owned_access`: a Wait, then a Hold/Work under the same label
// starting where the wait ends. The wide form takes any mark the others
// cannot: a start before the owner's time, an offset or length over
// `u32`, or a non-Wire mark with a fixed part. Every field of the other
// forms fits `u32`, and `fixed` is stored saturated to `u32`, so the
// longest record is a wide one of 5 + 1 + 10 + 10 + 5 = 31 bytes
// ([`MAX_RECORD`]).

/// A lone Wire mark.
const FORM_WIRE: u64 = MarkKind::Wire as u64;
/// A Wait and the Hold that follows it.
const FORM_WAIT_HOLD: u64 = 4;
/// A Wait and the Work that follows it.
const FORM_WAIT_WORK: u64 = 5;
/// Any one mark, with absolute times.
const FORM_WIDE: u64 = 6;

/// Bytes of the longest record.
const MAX_RECORD: usize = 31;

/// A record header: `id << 3 | form`.
fn header(id: u32, form: u64) -> u64 {
    (id as u64) << 3 | form
}

/// A label id must leave a 5-byte header room for its form.
#[inline]
fn check_id(id: u32) {
    assert!(id < 1 << 29, "causal: label id {id} does not fit a 32-bit record header");
}

/// Fields after the header of a record of `form`.
#[cfg(test)]
fn field_count(form: u64) -> usize {
    match form {
        FORM_WIDE => 4,
        FORM_WAIT_HOLD | FORM_WAIT_WORK | FORM_WIRE => 3,
        _ => 2,
    }
}

/// Whether `v` fits a compact form's field.
fn fits(v: u64) -> bool {
    v <= u32::MAX as u64
}

/// Append one record, header first. Its field count is a constant, so
/// the encoder is straight-line code writing into the block in place.
#[inline]
fn record<const K: usize>(bytes: &mut Blocks<u8>, fields: [u64; K]) {
    bytes.append(|window: &mut [u8; MAX_RECORD]| {
        let mut pos = 0;
        for v in fields {
            varint::put(window, &mut pos, v);
        }
        pos
    });
}

/// Memory guard: stop recording past this many nodes or marks (a run this
/// long is not usefully analyzable anyway; the flag is reported).
const MAX_RECORDS: usize = 1 << 24;

// The guard's marks, at most `MAX_RECORD` bytes each, have `u32` byte
// offsets.
const _: () = assert!(MAX_RECORDS * MAX_RECORD <= u32::MAX as usize);

/// One provenance node as the log stores it.
#[derive(Debug, Clone, Copy, Default)]
struct NodeSlot {
    /// Virtual time (ns) at which the event fired.
    at: u64,
    /// Node id minus parent id: 0 for no parent, [`FAR`] for a parent
    /// kept in `LogInner::far`.
    back: u32,
    /// Byte offset in `LogInner::bytes` where this node's records begin;
    /// they run up to the next node's first record (or the end). Marks
    /// are only ever emitted for the newest node, so this is all the
    /// owner data the log keeps.
    first: u32,
}

const _: () = assert!(std::mem::size_of::<NodeSlot>() <= 16);

/// `NodeSlot::back` of a node whose parent is in `LogInner::far`.
const FAR: u32 = u32::MAX;

#[derive(Debug, Default)]
struct LogInner {
    /// Node id of `nodes[0]` (node ids are the Sim's 1-based executed
    /// counter; recording may start mid-run).
    base: u64,
    /// The node id the next `on_execute` continues with; any other id
    /// means a new Sim started.
    next: u64,
    nodes: Blocks<NodeSlot>,
    /// `(index, parent)` of every node whose parent `back` cannot hold
    /// (one at or after the node, or `FAR` or more ids before it, as a
    /// lane's cross-lane parents are), in index order.
    far: Vec<(usize, u64)>,
    /// Every mark's record in emission order, which is node order.
    bytes: Blocks<u8>,
    /// Marks stored (a pair holds two).
    marks: usize,
    truncated: bool,
}

impl LogInner {
    /// Append node `base + nodes.len()`, fired at `at`, scheduled by
    /// `parent`; its records begin at the end of `bytes`.
    fn push_node(&mut self, at: u64, parent: u64) {
        let i = self.nodes.len();
        let back = match (self.base + i as u64).checked_sub(parent) {
            _ if parent == 0 => 0,
            Some(back @ 1..=0xffff_fffe) => back as u32,
            _ => {
                self.far.push((i, parent));
                FAR
            }
        };
        let first = u32::try_from(self.bytes.len()).expect("causal: log over u32 bytes");
        self.nodes.push(NodeSlot { at, back, first });
    }

    /// Node `base + i`.
    fn node(&self, i: usize) -> NodeRec {
        let slot = self.nodes.get(i);
        let parent = match slot.back {
            0 => 0,
            FAR => {
                let k = self.far.binary_search_by_key(&i, |&(j, _)| j);
                self.far[k.expect("causal: a far parent is in the side table")].1
            }
            back => self.base + i as u64 - back as u64,
        };
        NodeRec { at: slot.at, parent }
    }

    /// The bytes of `bytes` that hold `nodes[i]`'s records.
    fn byte_range(&self, i: usize) -> Range<usize> {
        let end = match i + 1 < self.nodes.len() {
            true => self.nodes.get(i + 1).first as usize,
            false => self.bytes.len(),
        };
        self.nodes.get(i).first as usize..end
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

    /// `at` of the newest node, which owns every mark stored now.
    fn newest_at(&self) -> u64 {
        self.nodes.last().expect("a mark's owner is recorded").at
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
        let fixed = fixed.min(u32::MAX as u64);
        let off = start.checked_sub(self.newest_at()).filter(|&off| fits(off));
        let dur = end - start;
        match off {
            Some(off) if fits(dur) && kind == MarkKind::Wire => {
                record(&mut self.bytes, [header(id, FORM_WIRE), off, dur, fixed]);
            }
            Some(off) if fits(dur) && fixed == 0 => {
                record(&mut self.bytes, [header(id, kind as u64), off, dur]);
            }
            _ => {
                let hdr = header(id, FORM_WIDE);
                record(&mut self.bytes, [hdr, kind as u64, start, end, fixed]);
            }
        }
    }

    /// The form of the record at byte `pos`, and where the next begins.
    #[cfg(test)]
    fn record_at(&self, pos: usize) -> (u64, usize) {
        let mut scratch = [0; MAX_RECORD];
        let window = self.bytes.window(pos, &mut scratch);
        let mut p = 0;
        let form = varint::get(window, &mut p) & 7;
        for _ in 0..field_count(form) {
            varint::get(window, &mut p);
        }
        (form, pos + p)
    }
}

/// The causal log: provenance nodes + time marks of one instrumented run.
#[derive(Debug, Default)]
pub struct CausalLog {
    inner: RefCell<LogInner>,
    /// Node id of the event now dispatching (0 outside dispatch): the
    /// owner of any mark emitted right now.
    current: Cell<u64>,
}

impl CausalLog {
    /// A fresh, empty log.
    pub fn new() -> Rc<CausalLog> {
        Rc::default()
    }

    /// Node id of the event now dispatching (0 outside dispatch). Lets a
    /// collector that owns the log, e.g. its flow tracer, tie its own
    /// records to provenance nodes.
    pub fn current_node(&self) -> u64 {
        self.current.get()
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
        let bytes = &self.inner.borrow().bytes;
        (bytes.len(), bytes.capacity())
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

    /// Record a mark owned by node `owner` (dropped when `owner` is not
    /// the newest node, which only a truncated log allows).
    fn owned_mark(
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
    /// form they share one record.
    fn owned_access(&self, owner: u64, id: u32, kind: MarkKind, start: u64, mid: u64, end: u64) {
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
        let off = start.checked_sub(inner.newest_at()).filter(|&off| fits(off));
        let (wait, dur) = (mid - start, end - mid);
        match off {
            Some(off)
                if (1..=u32::MAX as u64).contains(&wait)
                    && (1..=u32::MAX as u64).contains(&dur)
                    && inner.marks + 2 <= MAX_RECORDS =>
            {
                check_id(id);
                inner.marks += 2;
                record(&mut inner.bytes, [header(id, form), off, wait, dur]);
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

impl Probe for CausalLog {
    /// The event now dispatching owns the access: a Wait of `wait_ns` from
    /// `now`, then a Hold (lock) or Work (resource) of `dur_ns`. A failed
    /// try is an empty Hold, which is no mark, and so is an access outside
    /// any dispatch.
    fn access(&self, a: Access) {
        let owner = self.current.get();
        if owner != 0 {
            let kind = match a.kind {
                AccessKind::Lock | AccessKind::TryLock => MarkKind::Hold,
                AccessKind::Resource => MarkKind::Work,
            };
            let (start, mid) = (a.now.as_nanos(), a.now.as_nanos() + a.wait_ns);
            self.owned_access(owner, a.label.id, kind, start, mid, mid + a.dur_ns);
        }
    }

    fn on_execute(&self, node: u64, at: u64, parent: u64) {
        self.current.set(node);
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
        inner.push_node(at, parent);
    }

    fn end_execute(&self) {
        self.current.set(0);
    }

    fn mark(&self, label: &'static str, kind: MarkKind, start: SimTime, end: SimTime, fixed: u64) {
        let owner = self.current.get();
        if owner != 0 && end > start {
            self.owned_mark(owner, label, kind, start.as_nanos(), end.as_nanos(), fixed);
        }
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

    /// Provenance nodes in execution order: the `i`-th is node id
    /// `base() + i`.
    pub fn nodes(&self) -> impl ExactSizeIterator<Item = NodeRec> + '_ {
        (0..self.inner.nodes.len()).map(|i| self.inner.node(i))
    }

    /// Node id `base() + i`. Panics past the last node.
    pub fn node(&self, i: usize) -> NodeRec {
        self.inner.node(i)
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

    /// The marks of node `base() + i`, decoded from its records (none
    /// past the last node).
    fn node_marks(&self, i: usize) -> Records<'_> {
        let inner = self.inner;
        let (at, bytes) = match i < inner.nodes.len() {
            true => (inner.nodes.get(i).at, inner.byte_range(i)),
            false => (0, 0..0),
        };
        Records {
            bytes: &inner.bytes,
            labels: &self.labels,
            owner: inner.base + i as u64,
            at,
            pos: bytes.start,
            end: bytes.end,
            second: None,
        }
    }
}

/// Decodes the records in bytes `pos..end`, owned by node `owner`, which
/// fired at `at`, into marks.
struct Records<'a> {
    bytes: &'a Blocks<u8>,
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
        let mut scratch = [0; MAX_RECORD];
        let window = self.bytes.window(self.pos, &mut scratch);
        let mut p = 0;
        let mut field = || varint::get(window, &mut p);
        let hdr = field();
        let form = hdr & 7;
        let label = self.labels[(hdr >> 3) as usize];
        let rec =
            |kind, start, end, fixed| MarkRec { owner: self.owner, label, kind, start, end, fixed };
        let (first, second) = match form {
            FORM_WIDE => {
                let kind = KINDS[field() as usize];
                let (start, end) = (field(), field());
                (rec(kind, start, end, field()), None)
            }
            FORM_WAIT_HOLD | FORM_WAIT_WORK => {
                let start = self.at + field();
                let mid = start + field();
                let kind = if form == FORM_WAIT_HOLD { MarkKind::Hold } else { MarkKind::Work };
                let hold = rec(kind, mid, mid + field(), 0);
                (rec(MarkKind::Wait, start, mid, 0), Some(hold))
            }
            FORM_WIRE => {
                let start = self.at + field();
                let end = start + field();
                (rec(MarkKind::Wire, start, end, field()), None)
            }
            _ => {
                let start = self.at + field();
                (rec(KINDS[form as usize], start, start + field(), 0), None)
            }
        };
        self.pos += p;
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
/// `Sim::set_lane`), so ties at equal times break by lane, matching
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
        marks: lanes.iter().map(|s| s.marks).sum(),
        truncated: lanes.iter().any(|s| s.truncated),
        ..LogInner::default()
    };
    for &(at, _, lane, i) in &order {
        let s = &lanes[lane];
        let parent = remap.get(&s.node(i).parent).copied().unwrap_or(0);
        merged.push_node(at, parent);
        // A record's times are offsets from its node's `at`, which the
        // merge keeps: the bytes copy as they are.
        merged.bytes.extend_from(&s.bytes, s.byte_range(i));
    }
    (Rc::new(CausalLog { inner: RefCell::new(merged), current: Cell::new(0) }), remap)
}

/// Called by the [`Sim`](crate::Sim) as event `node` (its node id)
/// begins dispatch at `at` ns, scheduled by `parent`: tells the installed
/// probe ([`Probe::on_execute`]).
#[inline]
pub fn on_execute(node: u64, at: u64, parent: u64) {
    probe::emit(|p| p.on_execute(node, at, parent));
}

/// Called by the [`Sim`](crate::Sim) when dispatch of the current event
/// finishes ([`Probe::end_execute`]).
#[inline]
pub fn end_execute() {
    probe::emit(|p| p.end_execute());
}

/// Record a labeled time interval `[start, end]` attributed to the
/// currently executing event ([`Probe::mark`]). No-op when no probe is
/// installed; a causal log drops a mark emitted outside event dispatch
/// or over an empty interval.
#[inline]
pub fn mark(label: &'static str, kind: MarkKind, start: SimTime, end: SimTime, fixed: u64) {
    probe::emit(|p| p.mark(label, kind, start, end, fixed));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn no_collector_is_inert() {
        probe::uninstall();
        assert!(!probe::installed());
        // Must not panic or record anywhere.
        mark("x", MarkKind::Work, SimTime::ZERO, SimTime::from_nanos(10), 0);
    }

    #[test]
    fn records_nodes_and_marks() {
        let log = CausalLog::new();
        probe::install(log.clone());
        on_execute(1, 100, 0);
        mark("lock", MarkKind::Hold, SimTime::from_nanos(100), SimTime::from_nanos(150), 0);
        on_execute(2, 200, 1);
        end_execute();
        // Outside dispatch: dropped.
        mark("late", MarkKind::Work, SimTime::from_nanos(200), SimTime::from_nanos(300), 0);
        // Empty interval: dropped.
        on_execute(3, 300, 2);
        mark("empty", MarkKind::Work, SimTime::from_nanos(300), SimTime::from_nanos(300), 0);
        probe::uninstall();
        assert_eq!(log.node_count(), 3);
        assert_eq!(log.mark_count(), 1);
        log.with_view(|v| {
            assert_eq!(v.base(), 1);
            assert_eq!(v.node(1).parent, 1);
            let marks: Vec<MarkRec> = v.marks_of(1).collect();
            assert_eq!((marks.len(), marks[0].owner, marks[0].label), (1, 1, "lock"));
            assert_eq!(v.marks_of(2).count() + v.marks_of(3).count() + v.marks_of(9).count(), 0);
        });
    }

    #[test]
    fn second_sim_rebases_the_log() {
        let log = CausalLog::new();
        probe::install(log.clone());
        on_execute(1, 10, 0);
        on_execute(2, 20, 1);
        // A fresh Sim's executed counter restarts from 1.
        on_execute(1, 5, 0);
        on_execute(2, 9, 1);
        on_execute(3, 12, 2);
        probe::uninstall();
        assert_eq!(log.node_count(), 3);
        log.with_view(|v| {
            assert_eq!(v.base(), 1);
            assert_eq!(v.node(0).at, 5);
        });
    }

    /// Bytes of a record of `fields`, header first.
    fn record_len(fields: &[u64]) -> usize {
        fields.iter().map(|&v| varint::len(v)).sum()
    }

    #[test]
    fn each_record_form_stores_its_bytes() {
        let log = CausalLog::new();
        log.on_execute(1, 100, 0);
        let stored = |log: &CausalLog| log.mark_bytes().0;
        let (lock, res, wire) = (
            crate::keyed::id_of("lock"),
            crate::keyed::id_of("res"),
            crate::keyed::id_of("net.wire"),
        );
        // An access: a Wait, then a Hold where it ends.
        log.owned_access(1, lock, MarkKind::Hold, 110, 130, 180);
        let mut want = record_len(&[header(lock, FORM_WAIT_HOLD), 10, 20, 50]);
        assert_eq!((log.mark_count(), stored(&log)), (2, want), "an access pair");
        log.owned_mark(1, "res", MarkKind::Work, 200, 210, 0);
        want += record_len(&[header(res, MarkKind::Work as u64), 100, 10]);
        assert_eq!((log.mark_count(), stored(&log)), (3, want), "a single mark");
        log.owned_mark(1, "net.wire", MarkKind::Wire, 210, 300, 40);
        want += record_len(&[header(wire, FORM_WIRE), 110, 90, 40]);
        assert_eq!((log.mark_count(), stored(&log)), (4, want), "a Wire mark");
        log.owned_mark(1, "lock", MarkKind::Hold, 50, 60, 0);
        want += record_len(&[header(lock, FORM_WIDE), MarkKind::Hold as u64, 50, 60, 0]);
        assert_eq!((log.mark_count(), stored(&log)), (5, want), "before the node");
        // Capacity never runs more than one block ahead of the records.
        let block = Blocks::<u8>::PER_BLOCK;
        for k in 0..3 * block as u64 / 4 {
            let t = 300 + 10 * k;
            if k % 3 == 0 {
                log.owned_access(1, res, MarkKind::Work, t, t + 4, t + 9);
            } else {
                log.owned_mark(1, "res", MarkKind::Wait, t, t + 4, 0);
            }
            let (stored, reserved) = log.mark_bytes();
            assert!(stored <= reserved && reserved < stored + block, "{stored} B in {reserved} B");
        }
        assert!(log.mark_bytes().0 > 2 * block, "the records fill more than two blocks");
    }

    /// What a stored mark reads back as.
    fn read(m: &MarkRec) -> (u64, &'static str, MarkKind, u64, u64, u64) {
        (m.owner, m.label, m.kind, m.start, m.end, m.fixed)
    }

    /// Marks and nodes at the encoding's edges, against a plain
    /// `Vec<MarkRec>` reference: fields on both sides of 2^7, 2^14, 2^16
    /// and 2^32, starts before their node (wide), a Wire `fixed` over
    /// `u32` (read back saturated), empty intervals (dropped), records
    /// straddling block boundaries, and parents none, 1 and more than
    /// `u32::MAX` ids back.
    #[test]
    fn encoding_round_trips_against_a_plain_reference() {
        let edges = [0, 1, 127, 128, 16_383, 16_384, 65_535, 65_536, (1 << 32) - 1, 1 << 32];
        let far = 1 << 40;
        let (a, b) = ("causal.edge.a", "causal.edge.b");
        let mut rng = Rng(0xed6e);
        let log = CausalLog::new();
        let (mut want, mut nodes): (Vec<MarkRec>, Vec<NodeRec>) = (Vec::new(), Vec::new());
        let mut at = far;
        while log.mark_bytes().0 < 3 * Blocks::<u8>::PER_BLOCK {
            let id = far + nodes.len() as u64;
            let parent = match rng.below(4) {
                0 => 0,
                1 => id - 1,
                2 => 1,
                _ => id - 1 - rng.below(300).min(id - far),
            };
            at += edges[rng.below(4) as usize];
            log.on_execute(id, at, parent);
            nodes.push(NodeRec { at, parent });
            for _ in 0..rng.below(4) {
                let edge = |rng: &mut Rng| edges[rng.below(edges.len() as u64) as usize];
                let start = match rng.below(8) {
                    0 => at - 1 - rng.below(100),
                    _ => at + edge(&mut rng),
                };
                let (end, mid) = (start + edge(&mut rng), start + edge(&mut rng));
                let label = [a, b][rng.below(2) as usize];
                let mark =
                    |kind, start, end, fixed| MarkRec { owner: id, label, kind, start, end, fixed };
                match rng.below(3) {
                    0 => {
                        let kind = KINDS[1 + rng.below(2) as usize];
                        let end = mid + edge(&mut rng);
                        log.owned_access(id, crate::keyed::id_of(label), kind, start, mid, end);
                        want.extend([mark(MarkKind::Wait, start, mid, 0), mark(kind, mid, end, 0)]);
                    }
                    1 => {
                        let fixed = edge(&mut rng) + rng.below(2) * (1 << 33);
                        log.inner.borrow_mut().push(
                            crate::keyed::id_of(label),
                            MarkKind::Wire,
                            start,
                            end,
                            fixed,
                        );
                        want.push(mark(MarkKind::Wire, start, end, fixed.min(u32::MAX as u64)));
                    }
                    _ => {
                        let kind = KINDS[rng.below(3) as usize];
                        let fixed =
                            if rng.below(4) == 0 { edge(&mut rng).min(u32::MAX as u64) } else { 0 };
                        log.owned_mark(id, label, kind, start, end, fixed);
                        want.push(mark(kind, start, end, fixed));
                    }
                }
            }
        }
        want.retain(|m| m.end > m.start);
        log.with_view(|v| {
            assert_eq!(v.base(), far);
            let got: Vec<NodeRec> = v.nodes().collect();
            assert_eq!(got.len(), nodes.len());
            for (i, (g, w)) in got.iter().zip(&nodes).enumerate() {
                assert_eq!((g.at, g.parent), (w.at, w.parent), "node {i}");
            }
            let got: Vec<_> = v.marks().map(|m| read(&m)).collect();
            assert_eq!(got.len(), want.len());
            for (k, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(*g, read(w), "mark {k}");
            }
        });
        assert_eq!(log.mark_count(), want.len());
        let inner = log.inner.borrow();
        assert!(inner.far.iter().any(|&(_, p)| p == 1), "a parent over u32 ids back");
        let straddles = (0..inner.nodes.len()).any(|i| {
            let r = inner.byte_range(i);
            r.start / Blocks::<u8>::PER_BLOCK != r.end.saturating_sub(1) / Blocks::<u8>::PER_BLOCK
        });
        assert!(straddles, "some node's records straddle a block");
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
        log.owned_mark(1, "x", MarkKind::Work, 10, 20, 0);
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

    /// A Wait over `[start, mid]`, then a Hold (lock) or Work (resource)
    /// over `[mid, end]`, as the primitive reports that access.
    fn reported(label: &'static str, kind: MarkKind, start: u64, mid: u64, end: u64) -> Access {
        let kind = if kind == MarkKind::Hold { AccessKind::Lock } else { AccessKind::Resource };
        let (label, now) = (crate::probe::Label::new(label), SimTime::from_nanos(start));
        let (wait_ns, dur_ns) = (mid - start, end - mid);
        Access { label, kind, core: 0, now, wait_ns, dur_ns, contended: false }
    }

    /// The marks of one generated emission. Most are shaped like a
    /// `SimLock`/`SimResource` access, a Wait then a Hold/Work under the
    /// same label that starts where the wait ends, which [`drive`] reports
    /// as a lock or resource access through the probe slot; some of those miss by one thing
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
                            // The access as a lock or resource reports it.
                            let access = reported(label, kind, start, mid, end);
                            probe::emit(|p| p.access(access));
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
    /// same per-node marks, same emission order.
    fn assert_matches(log: &CausalLog, naive: &Reference, what: &str) {
        assert_eq!(log.node_count(), naive.len(), "{what}: node count");
        log.with_view(|v| {
            let flat: Vec<Mark> = naive.iter().flat_map(|n| n.3.iter().copied()).collect();
            assert_eq!(v.marks().map(|m| fields(&m)).collect::<Vec<_>>(), flat, "{what}: marks");
            for (i, (id, at, parent, marks)) in naive.iter().enumerate() {
                assert_eq!(v.base() + i as u64, *id, "{what}: node id");
                assert_eq!((v.node(i).at, v.node(i).parent), (*at, *parent), "{what}");
                let got: Vec<MarkRec> = v.marks_of(*id).collect();
                assert!(got.iter().all(|m| m.owner == *id), "{what}: owner of node {id}");
                let got: Vec<Mark> = got.iter().map(fields).collect();
                assert_eq!(&got, marks, "{what}: marks of node {id}");
            }
            let owners: Vec<u64> = v.marks().map(|m| m.owner).collect();
            let want: Vec<u64> = naive.iter().flat_map(|n| n.3.iter().map(|_| n.0)).collect();
            assert_eq!(owners, want, "{what}: owners in emission order");
        });
    }

    /// The forms of `log`'s records, as a bit set.
    fn forms(log: &CausalLog) -> u32 {
        let inner = log.inner.borrow();
        let (mut pos, mut seen) = (0, 0);
        while pos < inner.bytes.len() {
            let (form, next) = inner.record_at(pos);
            seen |= 1 << form;
            pos = next;
        }
        seen
    }

    /// One log driven for `steps` steps, against the naive recorder; the
    /// forms of its records.
    fn check_single(seed: u64, steps: u64, restarts: bool) -> u32 {
        let log = CausalLog::new();
        probe::install(log.clone());
        let naive = drive(&mut Rng(seed), steps, 0, restarts, &[]);
        probe::uninstall();
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
        probe::install(log.clone());
        let naive = drive(&mut Rng(7), 70_000, 0, false, &[]);
        probe::uninstall();
        let blocks = log.mark_bytes().0 / Blocks::<u8>::PER_BLOCK;
        assert!(blocks >= 3, "the log spans more than three blocks");
        assert_matches(&log, &naive, "many blocks");
    }

    /// A merge of `lanes` lanes, each driven for up to `steps` steps,
    /// against a reference merge: the record bytes of the largest lane,
    /// and whether some merged node's parent comes at or after it.
    fn check_merge(seed: u64, steps: u64) -> (usize, bool) {
        let mut rng = Rng(seed);
        let lanes = 2 + rng.below(2);
        let mut recorded: Vec<Reference> = Vec::new();
        let (mut data, mut largest) = (Vec::new(), 0);
        for lane in 0..lanes {
            let base = lane << crate::LANE_SHIFT;
            // Cross-lane parents, and one that was never recorded.
            let mut parents: Vec<u64> = recorded.iter().flatten().map(|n| n.0).collect();
            parents.push((lane + 7) << crate::LANE_SHIFT);
            let log = CausalLog::new();
            probe::install(log.clone());
            let steps = rng.below(steps);
            recorded.push(drive(&mut rng, steps, base, false, &parents));
            probe::uninstall();
            largest = largest.max(log.mark_bytes().0);
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
        let ahead = merged.inner.borrow().far.iter().any(|&(i, parent)| parent > i as u64);
        (largest, ahead)
    }

    #[test]
    fn merge_equals_a_reference_merge() {
        let ahead = (0..200).filter(|&seed| check_merge(seed, 60).1).count();
        assert!(ahead > 0, "no merged parent comes at or after its child");
    }

    /// Lanes of several blocks each: their byte ranges copy across block
    /// boundaries.
    #[test]
    fn a_merge_over_many_blocks_equals_a_reference_merge() {
        let (largest, _) = check_merge(3, 70_000);
        assert!(largest > 2 * Blocks::<u8>::PER_BLOCK, "a lane of {largest} B spans three blocks");
    }
}
