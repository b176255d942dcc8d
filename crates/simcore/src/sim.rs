//! The event loop: a deterministic time-ordered queue of typed events.

use std::rc::Rc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::event::{EventHandler, EventId, EventKind, EventQueue, HandlerId, HandlerTable, OnceFn};
use crate::stats::Stats;
use crate::time::SimTime;

/// The discrete-event simulator: virtual clock + event queue + seeded RNG +
/// named statistic counters.
///
/// Events are ordered by `(time, sequence-number)` — equal timestamps fire
/// in scheduling order — which makes every run bit-for-bit reproducible
/// for a given seed and workload. The queue is an indexed four-ary
/// min-heap (see [`crate::event`]), so pending events can be
/// [cancelled](Sim::cancel) or [rescheduled](Sim::reschedule) in O(log n)
/// instead of firing as dead no-ops.
///
/// Components live outside the `Sim` (usually behind `Rc<RefCell<_>>`) and
/// communicate by scheduling events. The general-purpose form is a boxed
/// closure:
///
/// ```
/// use simcore::{Sim, SimTime};
/// use std::cell::Cell;
/// use std::rc::Rc;
///
/// let mut sim = Sim::new(42);
/// let hits = Rc::new(Cell::new(0));
/// let h = hits.clone();
/// sim.schedule_in(1_000, move |_sim| h.set(h.get() + 1));
/// sim.run();
/// assert_eq!(hits.get(), 1);
/// assert_eq!(sim.now(), SimTime::from_nanos(1_000));
/// ```
///
/// Hot paths (core ticks, packet deliveries) instead register an
/// [`EventHandler`] once and schedule `(handler, arg)` pairs with
/// [`Sim::schedule_event_at`] — no allocation per event.
pub struct Sim {
    now: SimTime,
    seq: u64,
    queue: EventQueue<Option<EventKind>>,
    handlers: HandlerTable,
    /// Deterministic RNG for any randomized model decisions.
    pub rng: StdRng,
    /// Named counters collected during the run.
    pub stats: Stats,
    executed: u64,
    /// Node id of the event currently being dispatched
    /// (= `node_base + executed` at dispatch start; 0 outside dispatch).
    /// Recorded as the provenance parent of every event scheduled from
    /// inside it.
    current: u64,
    /// Offset added to the 1-based executed counter when minting node
    /// ids. 0 for a standalone `Sim` (node ids are exactly the executed
    /// counter — the legacy namespace); a federated lane sets this to
    /// `lane << 44` so node ids are globally unique across lanes and
    /// per-lane causal logs can be merged without collisions.
    node_base: u64,
}

impl Sim {
    /// Create a simulator with the given RNG seed.
    pub fn new(seed: u64) -> Self {
        Sim {
            now: SimTime::ZERO,
            seq: 0,
            queue: EventQueue::new(),
            handlers: HandlerTable::new(),
            rng: StdRng::seed_from_u64(seed),
            stats: Stats::new(),
            executed: 0,
            current: 0,
            node_base: 0,
        }
    }

    /// Namespace this simulator's provenance node ids: every executed
    /// event gets id `base + executed`. Must be set before any event
    /// runs; used by federated lanes (`base = lane << 44`) so per-lane
    /// causal logs merge without id collisions. The default base 0
    /// preserves the legacy ids exactly.
    pub fn set_node_base(&mut self, base: u64) {
        assert_eq!(self.executed, 0, "node base must be set before any event executes");
        self.node_base = base;
    }

    /// Fire time of the earliest pending event, if any.
    #[inline]
    pub fn next_event_at(&self) -> Option<SimTime> {
        self.queue.peek_at()
    }

    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events executed so far.
    #[inline]
    pub fn events_executed(&self) -> u64 {
        self.executed
    }

    /// Number of events still pending.
    #[inline]
    pub fn events_pending(&self) -> usize {
        self.queue.len()
    }

    #[inline]
    fn next_seq(&mut self) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        seq
    }

    /// Register a typed-event handler; the returned id is valid for this
    /// simulator's whole lifetime.
    pub fn register_handler(&mut self, h: Rc<dyn EventHandler>) -> HandlerId {
        self.handlers.register(h)
    }

    /// Schedule `f` to run at absolute virtual time `at` (clamped to `now`
    /// if it is in the past). Returns the event's id.
    pub fn schedule_at<F: FnOnce(&mut Sim) + 'static>(&mut self, at: SimTime, f: F) -> EventId {
        let at = at.max(self.now);
        let seq = self.next_seq();
        self.queue.insert(at, seq, self.current, Some(EventKind::Closure(Box::new(f))))
    }

    /// Schedule `f` to run `delay_ns` nanoseconds from now.
    pub fn schedule_in<F: FnOnce(&mut Sim) + 'static>(&mut self, delay_ns: u64, f: F) -> EventId {
        self.schedule_at(self.now + delay_ns, f)
    }

    /// Schedule a typed event for `handler` at `at` (clamped to `now`).
    /// This is the allocation-free hot path: the event is two words in a
    /// reused slab slot.
    pub fn schedule_event_at(&mut self, at: SimTime, handler: HandlerId, arg: u64) -> EventId {
        let at = at.max(self.now);
        let seq = self.next_seq();
        self.queue.insert(at, seq, self.current, Some(EventKind::Handler { handler, arg }))
    }

    /// Schedule a typed event for `handler`, `delay_ns` from now.
    pub fn schedule_event_in(&mut self, delay_ns: u64, handler: HandlerId, arg: u64) -> EventId {
        self.schedule_event_at(self.now + delay_ns, handler, arg)
    }

    /// Schedule an already-boxed one-shot callback at `at` (clamped to
    /// `now`). The box is moved, not re-wrapped: scheduling allocates
    /// nothing new.
    pub fn schedule_once_at(&mut self, at: SimTime, f: OnceFn, arg: u64) -> EventId {
        let at = at.max(self.now);
        let seq = self.next_seq();
        self.queue.insert(at, seq, self.current, Some(EventKind::Once { f, arg }))
    }

    /// Cancel a pending event. Returns `false` if the handle is stale
    /// (the event already fired or was cancelled).
    pub fn cancel(&mut self, id: EventId) -> bool {
        self.queue.cancel(id)
    }

    /// Move a pending event to fire at `at` (clamped to `now`). The event
    /// is re-sequenced as if newly scheduled, so ties at the new time fire
    /// after events already scheduled there — identical ordering to
    /// cancelling and scheduling afresh, without the churn. Returns
    /// `false` on a stale handle.
    pub fn reschedule(&mut self, id: EventId, at: SimTime) -> bool {
        let at = at.max(self.now);
        let seq = self.next_seq();
        self.queue.reschedule(id, at, seq)
    }

    /// Whether `id` refers to an event still pending.
    pub fn is_scheduled(&self, id: EventId) -> bool {
        self.queue.contains(id)
    }

    #[inline]
    fn dispatch(&mut self, kind: Option<EventKind>) {
        match kind {
            Some(EventKind::Closure(f)) => f(self),
            Some(EventKind::Handler { handler, arg }) => {
                let h = self.handlers.get(handler);
                h.on_event(self, arg);
            }
            Some(EventKind::Once { f, arg }) => f(self, arg),
            None => unreachable!("free slot in the heap"),
        }
    }

    /// Begin dispatching an event scheduled by `parent` at time `at`:
    /// advance the clock, mint the node id, record the provenance edge if
    /// a causal collector is installed. Returns whether one is (so the
    /// caller can close the node after dispatch).
    #[inline]
    fn begin_event(&mut self, at: SimTime, parent: u64) -> bool {
        debug_assert!(at >= self.now, "time must not go backwards");
        self.now = at;
        self.executed += 1;
        self.current = self.node_base + self.executed;
        let instrumented = crate::causal::installed();
        if instrumented {
            crate::causal::on_execute(self.current, at.as_nanos(), parent);
        }
        instrumented
    }

    #[inline]
    fn end_event(&mut self, instrumented: bool) {
        self.current = 0;
        if instrumented {
            crate::causal::end_execute();
        }
    }

    /// Run a single event; returns `false` if the queue is empty.
    pub fn step(&mut self) -> bool {
        match self.queue.pop() {
            Some(ev) => {
                let instrumented = self.begin_event(ev.at, ev.parent);
                self.dispatch(ev.payload);
                self.end_event(instrumented);
                true
            }
            None => false,
        }
    }

    /// Run until the event queue is empty.
    pub fn run(&mut self) {
        while self.step() {}
    }

    /// Run until the clock reaches `deadline` (events at exactly `deadline`
    /// still fire) or the queue empties. Returns the number of events run.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        let mut n = 0;
        // One root comparison per event: the pop is conditional on the
        // deadline rather than a peek followed by a separate pop.
        while let Some(ev) = self.queue.pop_if(deadline) {
            let instrumented = self.begin_event(ev.at, ev.parent);
            self.dispatch(ev.payload);
            self.end_event(instrumented);
            n += 1;
        }
        if self.now < deadline {
            self.now = deadline;
        }
        n
    }

    /// Run until `pred` returns true (checked after every event) or the
    /// queue empties. Returns whether the predicate was satisfied.
    pub fn run_while<P: FnMut(&Sim) -> bool>(&mut self, mut pending: P) -> bool {
        loop {
            // Empty-queue short-circuit first: the emptiness test is one
            // load, the predicate is an arbitrary user closure.
            if self.queue.is_empty() {
                return !pending(self);
            }
            if !pending(self) {
                return true;
            }
            self.step();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::{Cell, RefCell};
    use std::rc::Rc;

    #[test]
    fn events_fire_in_time_order() {
        let mut sim = Sim::new(0);
        let order = Rc::new(RefCell::new(Vec::new()));
        for (delay, label) in [(300u64, 'c'), (100, 'a'), (200, 'b')] {
            let o = order.clone();
            sim.schedule_in(delay, move |_| o.borrow_mut().push(label));
        }
        sim.run();
        assert_eq!(*order.borrow(), vec!['a', 'b', 'c']);
        assert_eq!(sim.events_executed(), 3);
    }

    #[test]
    fn ties_fire_in_insertion_order() {
        let mut sim = Sim::new(0);
        let order = Rc::new(RefCell::new(Vec::new()));
        for label in ['x', 'y', 'z'] {
            let o = order.clone();
            sim.schedule_at(SimTime::from_nanos(50), move |_| o.borrow_mut().push(label));
        }
        sim.run();
        assert_eq!(*order.borrow(), vec!['x', 'y', 'z']);
    }

    #[test]
    fn events_can_schedule_events() {
        let mut sim = Sim::new(0);
        let hits = Rc::new(RefCell::new(0u32));
        let h = hits.clone();
        sim.schedule_in(10, move |sim| {
            let h2 = h.clone();
            sim.schedule_in(5, move |_| *h2.borrow_mut() += 1);
        });
        sim.run();
        assert_eq!(*hits.borrow(), 1);
        assert_eq!(sim.now(), SimTime::from_nanos(15));
    }

    #[test]
    fn run_until_stops_at_deadline_and_advances_clock() {
        let mut sim = Sim::new(0);
        let hits = Rc::new(RefCell::new(0u32));
        for d in [10u64, 20, 30] {
            let h = hits.clone();
            sim.schedule_in(d, move |_| *h.borrow_mut() += 1);
        }
        sim.run_until(SimTime::from_nanos(20));
        assert_eq!(*hits.borrow(), 2);
        assert_eq!(sim.now(), SimTime::from_nanos(20));
        // Clock advances to the deadline even when no event lands on it.
        sim.run_until(SimTime::from_nanos(25));
        assert_eq!(sim.now(), SimTime::from_nanos(25));
        sim.run();
        assert_eq!(*hits.borrow(), 3);
    }

    #[test]
    fn scheduling_in_the_past_clamps_to_now() {
        let mut sim = Sim::new(0);
        let hits = Rc::new(RefCell::new(Vec::new()));
        let h = hits.clone();
        sim.schedule_in(100, move |sim| {
            let h2 = h.clone();
            // "at 10ns" is already in the past here; must fire at now=100.
            sim.schedule_at(SimTime::from_nanos(10), move |sim| {
                h2.borrow_mut().push(sim.now());
            });
        });
        sim.run();
        assert_eq!(*hits.borrow(), vec![SimTime::from_nanos(100)]);
    }

    #[test]
    fn deterministic_rng() {
        use rand::Rng;
        let mut a = Sim::new(7);
        let mut b = Sim::new(7);
        let xa: u64 = a.rng.gen();
        let xb: u64 = b.rng.gen();
        assert_eq!(xa, xb);
    }

    /// Records the argument words of every event it receives.
    struct Recorder {
        seen: RefCell<Vec<(SimTime, u64)>>,
    }

    impl EventHandler for Recorder {
        fn on_event(&self, sim: &mut Sim, arg: u64) {
            self.seen.borrow_mut().push((sim.now(), arg));
        }
    }

    #[test]
    fn handler_events_fire_in_order_with_closures() {
        let mut sim = Sim::new(0);
        let rec = Rc::new(Recorder { seen: RefCell::new(Vec::new()) });
        let h = sim.register_handler(rec.clone());
        let order = Rc::new(RefCell::new(Vec::new()));
        sim.schedule_event_in(20, h, 1);
        let o = order.clone();
        sim.schedule_in(10, move |_| o.borrow_mut().push('c'));
        sim.schedule_event_in(10, h, 2); // same time as the closure: after it
        sim.run();
        assert_eq!(*order.borrow(), vec!['c']);
        assert_eq!(
            *rec.seen.borrow(),
            vec![(SimTime::from_nanos(10), 2), (SimTime::from_nanos(20), 1)]
        );
    }

    #[test]
    fn once_events_receive_their_argument() {
        let mut sim = Sim::new(0);
        let got = Rc::new(Cell::new(0u64));
        let g = got.clone();
        let f: crate::event::OnceFn = Box::new(move |_sim, arg| g.set(arg));
        sim.schedule_once_at(SimTime::from_nanos(5), f, 77);
        sim.run();
        assert_eq!(got.get(), 77);
    }

    #[test]
    fn cancel_prevents_firing() {
        let mut sim = Sim::new(0);
        let rec = Rc::new(Recorder { seen: RefCell::new(Vec::new()) });
        let h = sim.register_handler(rec.clone());
        let a = sim.schedule_event_in(10, h, 1);
        sim.schedule_event_in(20, h, 2);
        assert!(sim.is_scheduled(a));
        assert!(sim.cancel(a));
        assert!(!sim.is_scheduled(a));
        assert!(!sim.cancel(a), "double cancel is a stale no-op");
        sim.run();
        assert_eq!(*rec.seen.borrow(), vec![(SimTime::from_nanos(20), 2)]);
        assert_eq!(sim.events_executed(), 1, "cancelled events never execute");
    }

    #[test]
    fn reschedule_matches_cancel_plus_fresh_schedule_ordering() {
        // Two sims: one reschedules, the other cancels + schedules anew.
        // Tie-breaking at the destination time must be identical.
        let run = |reschedule: bool| {
            let mut sim = Sim::new(0);
            let rec = Rc::new(Recorder { seen: RefCell::new(Vec::new()) });
            let h = sim.register_handler(rec.clone());
            let a = sim.schedule_event_in(100, h, 1);
            sim.schedule_event_in(40, h, 2); // pre-existing event at t=40
            if reschedule {
                assert!(sim.reschedule(a, SimTime::from_nanos(40)));
            } else {
                assert!(sim.cancel(a));
                sim.schedule_event_in(40, h, 1);
            }
            sim.run();
            let seen = rec.seen.borrow().clone();
            seen
        };
        assert_eq!(run(true), run(false));
        assert_eq!(
            run(true),
            vec![(SimTime::from_nanos(40), 2), (SimTime::from_nanos(40), 1)],
            "rescheduled event is re-sequenced behind existing ties"
        );
    }

    #[test]
    fn reschedule_into_the_past_clamps_to_now() {
        let mut sim = Sim::new(0);
        let rec = Rc::new(Recorder { seen: RefCell::new(Vec::new()) });
        let h = sim.register_handler(rec.clone());
        sim.schedule_in(50, move |_| {});
        let a = sim.schedule_event_in(100, h, 9);
        sim.run_until(SimTime::from_nanos(60));
        assert!(sim.reschedule(a, SimTime::from_nanos(10)));
        sim.run();
        assert_eq!(*rec.seen.borrow(), vec![(SimTime::from_nanos(60), 9)]);
    }

    #[test]
    fn run_while_short_circuits_on_empty_queue() {
        let mut sim = Sim::new(0);
        // Predicate still true when the queue drains: not satisfied.
        sim.schedule_in(10, |_| {});
        assert!(!sim.run_while(|_| true));
        // Predicate already false on an empty queue: satisfied.
        assert!(sim.run_while(|_| false));
    }
}
