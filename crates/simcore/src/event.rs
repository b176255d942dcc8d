//! Typed events and the cancellable four-ary scheduling heap.
//!
//! The engine's hot path schedules three kinds of events over and over:
//! core ticks, packet deliveries, and send-completion callbacks. Boxing a
//! fresh closure for each one puts an allocation on every event; this
//! module gives the [`Sim`] a typed representation instead:
//!
//! * [`EventKind::Handler`] — a registered [`EventHandler`] plus a `u64`
//!   argument word. Scheduling one writes two words into a reused slab
//!   slot: no allocation at all.
//! * [`EventKind::Once`] — an already-boxed `FnOnce` with a `u64`
//!   argument. Scheduling moves the existing box; no *new* allocation.
//! * [`EventKind::Closure`] — the fully general boxed-closure fallback.
//!
//! Storage is an indexed **four-ary min-heap** of 24 B entries over a
//! slot slab with a free list. Events are ordered by `(time, sequence)`
//! exactly as before, so runs stay bit-identical; the index (each slot
//! knows its heap position) is what makes `cancel` and `reschedule`
//! O(log n) instead of leaving dead events to fire as no-ops. Each entry
//! holds its event's key inline beside its slot number, so the four
//! siblings a sift compares are 96 B of adjacent keys in two or three
//! cache lines, and a sift reads no slab slot: it moves a hole, writing
//! each moved entry once and its slot's `pos` once. A four-ary layout
//! halves the tree depth of a binary heap, and pop-heavy DES workloads
//! spend most of their time in `sift_down`.
//!
//! `sift_down` picks the least of four children in a two-round
//! tournament of branch-free selects. A pop sees tens to about a hundred
//! pending events, whose keys fit in cache; what costs there is the
//! branch predictor guessing which child is least, a near coin toss per
//! level, so the select is data flow (`cmov`), not jumps.
//!
//! The heap is generic over its payload: the [`Sim`] stores an
//! `Option<EventKind>` per slot, each shard of the
//! [`ShardedSim`](crate::ShardedSim) a `Copy` lane target, so both
//! engines share one sift and tie-break order.

use std::rc::Rc;

use crate::sim::Sim;
use crate::time::SimTime;

/// Handle to a scheduled event, as returned by the `schedule_*` methods
/// of [`Sim`] and [`LaneCtx`](crate::LaneCtx).
///
/// The handle is generation-checked: once the event fires or is
/// cancelled, the handle goes stale and [`Sim::cancel`] /
/// [`Sim::reschedule`] on it return `false` instead of touching whatever
/// event reused the slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId {
    slot: u32,
    gen: u32,
}

/// Identifier of a registered [`EventHandler`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HandlerId(pub(crate) u32);

/// A component that receives typed events.
///
/// Register once with [`Sim::register_handler`], then schedule against the
/// returned [`HandlerId`] with an argument word encoding whatever the
/// handler needs (a core index, a slab slot, ...). Handlers use `&self`
/// with interior mutability, like every other simulation component.
pub trait EventHandler {
    /// An event scheduled for this handler fired at `sim.now()`.
    fn on_event(&self, sim: &mut Sim, arg: u64);
}

/// The boxed-closure fallback payload.
pub type ClosureFn = Box<dyn FnOnce(&mut Sim)>;
/// An already-boxed one-shot callback taking an argument word.
pub type OnceFn = Box<dyn FnOnce(&mut Sim, u64)>;

/// Payload of a scheduled [`Sim`] event (`None` in the heap marks a free
/// slot).
pub(crate) enum EventKind {
    /// Boxed-closure fallback.
    Closure(ClosureFn),
    /// Registered handler + argument word: allocation-free.
    Handler { handler: HandlerId, arg: u64 },
    /// Pre-boxed one-shot callback + argument word.
    Once { f: OnceFn, arg: u64 },
}

const NO_POS: u32 = u32::MAX;

/// One heap entry: an event's ordering key, inline, and its slab slot.
#[derive(Clone, Copy)]
struct Entry {
    at: u64,
    seq: u64,
    slot: u32,
}

impl Entry {
    /// `(at, seq)` order, with no branch: each select on it is a data
    /// dependency, not a jump the predictor must guess.
    #[inline(always)]
    fn lt(&self, other: &Entry) -> bool {
        (self.at < other.at) | ((self.at == other.at) & (self.seq < other.seq))
    }
}

/// One slab slot: generation, heap position, provenance, payload. The
/// ordering key lives in the slot's heap [`Entry`].
struct Slot<P> {
    gen: u32,
    pos: u32,
    /// Node id of the event executing when this one was scheduled (0 =
    /// scheduled outside dispatch). Carried for causal capture
    /// ([`crate::causal`]); dead weight of one word when disabled.
    parent: u64,
    payload: P,
}

/// A popped event, ready to dispatch.
pub(crate) struct Fired<P> {
    pub(crate) at: SimTime,
    /// The ordering key it fired under (sequence or canonical key).
    pub(crate) seq: u64,
    /// Provenance: node id of the scheduling event.
    pub(crate) parent: u64,
    pub(crate) payload: P,
}

/// Indexed four-ary min-heap over a slot slab, ordered by `(time, seq)`.
/// A popped slot's payload is replaced by `P::default()`.
pub(crate) struct EventQueue<P> {
    /// Heap of keyed entries; each slot's `pos` is its entry's index.
    heap: Vec<Entry>,
    slots: Vec<Slot<P>>,
    free: Vec<u32>,
}

impl<P: Default> EventQueue<P> {
    pub(crate) fn new() -> Self {
        EventQueue { heap: Vec::new(), slots: Vec::new(), free: Vec::new() }
    }

    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }

    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    pub(crate) fn insert(&mut self, at: SimTime, seq: u64, parent: u64, payload: P) -> EventId {
        let slot = match self.free.pop() {
            Some(slot) => {
                let s = &mut self.slots[slot as usize];
                s.parent = parent;
                s.payload = payload;
                slot
            }
            None => {
                self.slots.push(Slot { gen: 0, pos: NO_POS, parent, payload });
                (self.slots.len() - 1) as u32
            }
        };
        let entry = Entry { at: at.as_nanos(), seq, slot };
        let pos = self.heap.len();
        self.heap.push(entry);
        self.sift_up(pos, entry);
        EventId { slot, gen: self.slots[slot as usize].gen }
    }

    /// Whether `id` still refers to a pending event.
    pub(crate) fn contains(&self, id: EventId) -> bool {
        self.get(id).is_some()
    }

    /// The payload of the pending event `id` refers to; `None` on a stale
    /// handle.
    pub(crate) fn get(&self, id: EventId) -> Option<&P> {
        self.live(id).map(|s| &s.payload)
    }

    /// The slot of the pending event `id` refers to.
    #[inline]
    fn live(&self, id: EventId) -> Option<&Slot<P>> {
        self.slots.get(id.slot as usize).filter(|s| s.gen == id.gen && s.pos != NO_POS)
    }

    /// Remove the event `id` refers to; `false` if it already fired or was
    /// cancelled (stale handle).
    pub(crate) fn cancel(&mut self, id: EventId) -> bool {
        let Some(pos) = self.live(id).map(|s| s.pos as usize) else {
            return false;
        };
        let last = self.heap.pop().expect("a live slot has a heap entry");
        if pos < self.heap.len() {
            self.place(pos, last);
        }
        self.release(id.slot);
        true
    }

    /// Move the event `id` refers to so it fires at `(at, seq)`; `false`
    /// on a stale handle.
    pub(crate) fn reschedule(&mut self, id: EventId, at: SimTime, seq: u64) -> bool {
        let Some(pos) = self.live(id).map(|s| s.pos as usize) else {
            return false;
        };
        self.place(pos, Entry { at: at.as_nanos(), seq, slot: id.slot });
        true
    }

    /// Pop the earliest event.
    pub(crate) fn pop(&mut self) -> Option<Fired<P>> {
        self.pop_if(SimTime::NEVER)
    }

    /// Fire time of the earliest pending event, without popping it.
    pub(crate) fn peek_at(&self) -> Option<SimTime> {
        self.heap.first().map(|e| SimTime::from_nanos(e.at))
    }

    /// Pop the earliest event if it fires at or before `deadline` — one
    /// root comparison, no separate peek.
    pub(crate) fn pop_if(&mut self, deadline: SimTime) -> Option<Fired<P>> {
        let top = *self.heap.first()?;
        if top.at > deadline.as_nanos() {
            return None;
        }
        let last = self.heap.pop().expect("the heap has a root");
        if !self.heap.is_empty() {
            self.sift_down(0, last);
        }
        let s = &mut self.slots[top.slot as usize];
        let fired = Fired {
            at: SimTime::from_nanos(top.at),
            seq: top.seq,
            parent: s.parent,
            payload: std::mem::take(&mut s.payload),
        };
        self.release(top.slot);
        Some(fired)
    }

    /// Fill the hole at heap position `pos` with `e`, which may belong
    /// above or below it.
    fn place(&mut self, pos: usize, e: Entry) {
        if pos > 0 && e.lt(&self.heap[(pos - 1) / 4]) {
            self.sift_up(pos, e);
        } else {
            self.sift_down(pos, e);
        }
    }

    /// Return `slot` to the free list with a bumped generation.
    fn release(&mut self, slot: u32) {
        let s = &mut self.slots[slot as usize];
        s.gen = s.gen.wrapping_add(1);
        s.pos = NO_POS;
        self.free.push(slot);
    }

    /// Write `e` at heap position `i` and record the position in its slot.
    #[inline(always)]
    fn set(&mut self, i: usize, e: Entry) {
        self.heap[i] = e;
        self.slots[e.slot as usize].pos = i as u32;
    }

    /// Move the hole at `i` up past every parent that `e` precedes, then
    /// fill it with `e`.
    #[inline(always)]
    fn sift_up(&mut self, mut i: usize, e: Entry) {
        while i > 0 {
            let parent = (i - 1) / 4;
            let p = self.heap[parent];
            if !e.lt(&p) {
                break;
            }
            self.set(i, p);
            i = parent;
        }
        self.set(i, e);
    }

    /// Move the hole at `i` down past every least child that precedes
    /// `e`, then fill it with `e`. A full group of four picks its least
    /// child in a two-round tournament of branch-free selects; with ties
    /// on `(at, seq)` the leftmost child wins, as a linear scan's would.
    #[inline(always)]
    fn sift_down(&mut self, mut i: usize, e: Entry) {
        let n = self.heap.len();
        loop {
            let first = 4 * i + 1;
            let (child, c) = if let Some(group) = self.heap.get(first..first + 4) {
                let g: &[Entry; 4] = group.try_into().expect("a group of four");
                let left = usize::from(g[1].lt(&g[0]));
                let right = 2 + usize::from(g[3].lt(&g[2]));
                let k = std::hint::select_unpredictable(g[right].lt(&g[left]), right, left);
                (first + k, g[k])
            } else if first < n {
                let mut m = first;
                for c in first + 1..n {
                    if self.heap[c].lt(&self.heap[m]) {
                        m = c;
                    }
                }
                (m, self.heap[m])
            } else {
                break;
            };
            if !c.lt(&e) {
                break;
            }
            self.set(i, c);
            i = child;
        }
        self.set(i, e);
    }
}

/// Registry of typed-event handlers owned by the [`Sim`].
pub(crate) struct HandlerTable {
    handlers: Vec<Rc<dyn EventHandler>>,
}

impl HandlerTable {
    pub(crate) fn new() -> Self {
        HandlerTable { handlers: Vec::new() }
    }

    pub(crate) fn register(&mut self, h: Rc<dyn EventHandler>) -> HandlerId {
        let id = HandlerId(u32::try_from(self.handlers.len()).expect("too many handlers"));
        self.handlers.push(h);
        id
    }

    /// A clone of the handler (a refcount bump), so the caller can invoke
    /// it without borrowing the table.
    #[inline]
    pub(crate) fn get(&self, id: HandlerId) -> Rc<dyn EventHandler> {
        self.handlers[id.0 as usize].clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(q: &mut EventQueue<Option<EventKind>>) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        while let Some(ev) = q.pop() {
            let seq = match ev.payload {
                Some(EventKind::Handler { arg, .. }) => arg,
                _ => panic!("test uses handler events"),
            };
            out.push((ev.at.as_nanos(), seq));
        }
        out
    }

    fn handler_event(seq: u64) -> Option<EventKind> {
        Some(EventKind::Handler { handler: HandlerId(0), arg: seq })
    }

    #[test]
    fn slot_sizes_are_pinned() {
        // Keys live in the heap's 24 B entries, so a `Sim` slot is 48 B
        // and a shard slot 32 B.
        assert_eq!(std::mem::size_of::<Entry>(), 24);
        assert_eq!(std::mem::size_of::<Slot<Option<EventKind>>>(), 48);
        assert_eq!(std::mem::size_of::<Slot<crate::shard::LaneEvent>>(), 32);
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut q = EventQueue::new();
        for (at, seq) in [(30u64, 0u64), (10, 1), (10, 2), (20, 3), (5, 4)] {
            q.insert(SimTime::from_nanos(at), seq, 0, handler_event(seq));
        }
        assert_eq!(drain(&mut q), vec![(5, 4), (10, 1), (10, 2), (20, 3), (30, 0)]);
    }

    #[test]
    fn cancel_removes_and_invalidates_handle() {
        let mut q = EventQueue::new();
        let a = q.insert(SimTime::from_nanos(10), 0, 0, handler_event(0));
        let b = q.insert(SimTime::from_nanos(20), 1, 0, handler_event(1));
        assert!(q.cancel(a));
        assert!(!q.cancel(a), "second cancel is a stale no-op");
        assert!(q.contains(b));
        assert_eq!(drain(&mut q), vec![(20, 1)]);
        assert!(!q.cancel(b), "fired events leave stale handles");
    }

    #[test]
    fn slot_reuse_does_not_resurrect_old_handles() {
        let mut q = EventQueue::new();
        let a = q.insert(SimTime::from_nanos(10), 0, 0, handler_event(0));
        assert!(q.cancel(a));
        // The freed slot is reused by the next insert...
        let b = q.insert(SimTime::from_nanos(30), 1, 0, handler_event(1));
        // ...but the old handle must not touch the new event.
        assert!(!q.cancel(a));
        assert!(!q.reschedule(a, SimTime::from_nanos(1), 2));
        assert!(q.get(a).is_none());
        assert!(q.contains(b));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn reschedule_moves_both_directions() {
        let mut q = EventQueue::new();
        let a = q.insert(SimTime::from_nanos(50), 0, 0, handler_event(0));
        q.insert(SimTime::from_nanos(20), 1, 0, handler_event(1));
        q.insert(SimTime::from_nanos(40), 2, 0, handler_event(2));
        assert!(q.reschedule(a, SimTime::from_nanos(10), 3));
        let c = q.insert(SimTime::from_nanos(15), 4, 0, handler_event(4));
        assert!(q.reschedule(c, SimTime::from_nanos(60), 5));
        assert_eq!(drain(&mut q), vec![(10, 0), (20, 1), (40, 2), (60, 4)]);
    }

    #[test]
    fn pop_if_respects_deadline_with_one_comparison() {
        let mut q = EventQueue::new();
        q.insert(SimTime::from_nanos(10), 0, 0, handler_event(0));
        q.insert(SimTime::from_nanos(30), 1, 0, handler_event(1));
        assert!(q.pop_if(SimTime::from_nanos(20)).is_some());
        assert!(q.pop_if(SimTime::from_nanos(20)).is_none());
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn copy_payloads_pop_with_key_and_parent() {
        // The shard engine's use: a `Copy` payload, the canonical key in
        // the sequence word, provenance carried through.
        let mut q: EventQueue<u64> = EventQueue::new();
        let a = q.insert(SimTime::from_nanos(7), 42, 9, 1);
        q.insert(SimTime::from_nanos(7), 41, 8, 2);
        assert_eq!(q.get(a), Some(&1));
        let ev = q.pop().unwrap();
        assert_eq!((ev.at.as_nanos(), ev.seq, ev.parent, ev.payload), (7, 41, 8, 2));
        let ev = q.pop().unwrap();
        assert_eq!((ev.seq, ev.parent, ev.payload), (42, 9, 1));
        assert!(q.get(a).is_none(), "fired events leave stale handles");
    }

    #[test]
    fn small_heaps_match_a_sorted_reference() {
        // Heaps of 1-9 entries: the root's child group, and below 5
        // entries its only group, is partial, and times from 0..4 make
        // most comparisons tie on time so the sequence word decides.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut draw = |n: u64| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (x >> 33) % n
        };
        for cap in 1..=9usize {
            for _ in 0..200 {
                let mut q: EventQueue<u64> = EventQueue::new();
                // `(at, seq, label)` of every pending event.
                let mut pending: Vec<(u64, u64, u64)> = Vec::new();
                let mut ids = Vec::new();
                let mut seq = 0u64;
                for _ in 0..8 * cap {
                    let label = draw(ids.len().max(1) as u64);
                    let at = draw(4);
                    match draw(4) {
                        0 if pending.len() < cap => {
                            let id = q.insert(SimTime::from_nanos(at), seq, 0, ids.len() as u64);
                            pending.push((at, seq, ids.len() as u64));
                            ids.push(id);
                            seq += 1;
                        }
                        1 if !ids.is_empty() => {
                            let live = pending.iter().position(|p| p.2 == label);
                            assert_eq!(q.cancel(ids[label as usize]), live.is_some());
                            if let Some(i) = live {
                                pending.swap_remove(i);
                            }
                        }
                        2 if !ids.is_empty() => {
                            let live = pending.iter().position(|p| p.2 == label);
                            let moved =
                                q.reschedule(ids[label as usize], SimTime::from_nanos(at), seq);
                            assert_eq!(moved, live.is_some());
                            if let Some(i) = live {
                                pending[i] = (at, seq, label);
                            }
                            seq += 1;
                        }
                        _ => {
                            let expect = pending.iter().copied().min().filter(|p| p.0 <= at);
                            let got = q.pop_if(SimTime::from_nanos(at));
                            let got = got.map(|ev| (ev.at.as_nanos(), ev.seq, ev.payload));
                            assert_eq!(got, expect, "cap {cap}, deadline {at}");
                            if let Some(p) = expect {
                                pending.retain(|&q| q != p);
                            }
                        }
                    }
                    assert_eq!(q.len(), pending.len());
                    assert_eq!(
                        q.peek_at().map(SimTime::as_nanos),
                        pending.iter().map(|p| p.0).min()
                    );
                }
                pending.sort_unstable();
                for p in pending {
                    let ev = q.pop().expect("reference has more events");
                    assert_eq!((ev.at.as_nanos(), ev.seq, ev.payload), p);
                }
                assert!(q.pop().is_none());
            }
        }
    }

    #[test]
    fn stress_against_sorted_reference() {
        // Deterministic mixed insert/pop churn; compare against a sort.
        let mut q = EventQueue::new();
        let mut expect: Vec<(u64, u64)> = Vec::new();
        let mut x = 0x243F6A8885A308D3u64; // pi digits; fixed seed
        let mut popped = Vec::new();
        for seq in 0..2000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let at = (x >> 33) % 1000;
            q.insert(SimTime::from_nanos(at), seq, 0, handler_event(seq));
            expect.push((at, seq));
            if seq % 3 == 0 {
                if let Some(Fired { at, payload: Some(EventKind::Handler { arg, .. }), .. }) =
                    q.pop()
                {
                    popped.push((at.as_nanos(), arg));
                }
            }
        }
        popped.extend(drain(&mut q));
        // Popping interleaved with inserts is not a global sort, but the
        // final multiset and per-pop local minimality must match.
        expect.sort_unstable();
        let mut got = popped.clone();
        got.sort_unstable();
        assert_eq!(got, expect);
    }
}
