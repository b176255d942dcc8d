//! The indexed four-ary heap must be observationally identical to a
//! reference lazy-deletion `BinaryHeap`: under arbitrary interleavings
//! of schedule / cancel / reschedule / run, both fire the exact same
//! labels in the exact same order at the exact same virtual times.
//!
//! This is the safety net for the engine rewrite — any divergence in
//! `(time, seq)` tie-breaking between the two implementations shows up
//! here as a firing-order mismatch long before it corrupts a figure.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::rc::Rc;

use proptest::collection::vec;
use proptest::prelude::*;
use simcore::{EventId, Sim, SimTime};

/// Reference semantics: a `BinaryHeap` of `(at, seq, label)` with lazy
/// deletion — cancel/reschedule mark the old entry dead and popping
/// skips dead entries. Reschedule inserts afresh with a *new* sequence
/// number, the documented `Sim::reschedule` contract.
#[derive(Default)]
struct Reference {
    now: u64,
    seq: u64,
    heap: BinaryHeap<Reverse<(u64, u64, usize)>>,
    /// label -> the (at, seq) of its live incarnation, None once fired
    /// or cancelled.
    live: Vec<Option<(u64, u64)>>,
    fired: Vec<(u64, usize)>,
}

impl Reference {
    fn schedule(&mut self, at: u64) -> usize {
        let at = at.max(self.now);
        let label = self.live.len();
        let seq = self.seq;
        self.seq += 1;
        self.live.push(Some((at, seq)));
        self.heap.push(Reverse((at, seq, label)));
        label
    }

    fn cancel(&mut self, label: usize) -> bool {
        self.live[label].take().is_some()
    }

    fn reschedule(&mut self, label: usize, at: u64) -> bool {
        if self.live[label].is_none() {
            return false;
        }
        let at = at.max(self.now);
        let seq = self.seq;
        self.seq += 1;
        self.live[label] = Some((at, seq));
        self.heap.push(Reverse((at, seq, label)));
        true
    }

    fn run_until(&mut self, deadline: u64) {
        while let Some(&Reverse((at, seq, label))) = self.heap.peek() {
            if at > deadline {
                break;
            }
            self.heap.pop();
            if self.live[label] != Some((at, seq)) {
                continue; // dead (cancelled or rescheduled) entry
            }
            self.live[label] = None;
            self.now = at;
            self.fired.push((at, label));
        }
        self.now = self.now.max(deadline);
    }

    fn run(&mut self) {
        self.run_until(u64::MAX);
    }
}

/// The same op stream applied to the real engine; fired labels are
/// recorded by the scheduled closures themselves.
struct Engine {
    sim: Sim,
    handles: Vec<EventId>,
    fired: Rc<RefCell<Vec<(u64, usize)>>>,
}

impl Engine {
    fn new() -> Self {
        Engine { sim: Sim::new(7), handles: Vec::new(), fired: Rc::new(RefCell::new(Vec::new())) }
    }

    fn schedule(&mut self, at: u64) {
        let label = self.handles.len();
        let fired = self.fired.clone();
        let id = self.sim.schedule_at(SimTime::from_nanos(at), move |sim| {
            fired.borrow_mut().push((sim.now().as_nanos(), label));
        });
        self.handles.push(id);
    }
}

/// One operation, decoded from an arbitrary `(op, label, t)` triple so
/// the vendored proptest's tuple strategies suffice.
fn apply(op: u8, label_raw: u64, t: u64, eng: &mut Engine, reference: &mut Reference) {
    match op % 4 {
        0 => {
            eng.schedule(eng.sim.now().as_nanos() + t);
            reference.schedule(reference.now + t);
        }
        1 | 2 if !eng.handles.is_empty() => {
            let label = (label_raw as usize) % eng.handles.len();
            if op % 4 == 1 {
                let a = eng.sim.cancel(eng.handles[label]);
                let b = reference.cancel(label);
                assert_eq!(a, b, "cancel({label}) liveness diverged");
            } else {
                // Absolute target, possibly in the past — exercises the
                // clamp-to-now path on both sides.
                let a = eng.sim.reschedule(eng.handles[label], SimTime::from_nanos(t));
                let b = reference.reschedule(label, t);
                assert_eq!(a, b, "reschedule({label}) liveness diverged");
            }
        }
        3 => {
            let deadline = eng.sim.now().as_nanos() + t;
            eng.sim.run_until(SimTime::from_nanos(deadline));
            reference.run_until(deadline);
        }
        _ => {}
    }
}

/// Apply `ops` to both sides, then drain both; they must agree on the
/// clock after every op and on every firing.
fn check_against_reference(ops: Vec<(u8, u64, u64)>) {
    let mut eng = Engine::new();
    let mut reference = Reference::default();
    for (op, label_raw, t) in ops {
        apply(op, label_raw, t, &mut eng, &mut reference);
        prop_assert_eq!(eng.sim.now().as_nanos(), reference.now);
    }
    eng.sim.run();
    reference.run();
    let fired = eng.fired.borrow().clone();
    prop_assert_eq!(fired, reference.fired);
    prop_assert_eq!(eng.sim.events_pending(), 0);
}

proptest! {
    #[test]
    fn indexed_heap_matches_reference_binary_heap(
        ops in vec((any::<u8>(), any::<u64>(), 0u64..5_000), 0..200)
    ) {
        check_against_reference(ops);
    }

    /// Times from `0..8`: most events share an instant with others, so
    /// the sequence number decides nearly every comparison, and every
    /// `run_until` deadline lands on an instant that holds ties.
    #[test]
    fn ties_fire_in_sequence_order(
        ops in vec((any::<u8>(), any::<u64>(), 0u64..8), 0..300)
    ) {
        check_against_reference(ops);
    }

    #[test]
    fn is_scheduled_tracks_reference_liveness(
        ops in vec((any::<u8>(), any::<u64>(), 0u64..5_000), 0..120)
    ) {
        let mut eng = Engine::new();
        let mut reference = Reference::default();
        for (op, label_raw, t) in ops {
            apply(op, label_raw, t, &mut eng, &mut reference);
            for (label, id) in eng.handles.iter().enumerate() {
                prop_assert_eq!(
                    eng.sim.is_scheduled(*id),
                    reference.live[label].is_some(),
                    "label {} liveness diverged", label
                );
            }
        }
    }
}
