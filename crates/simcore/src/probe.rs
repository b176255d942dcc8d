//! The one observer hook: a thread-local slot holding at most one
//! [`Probe`]. [`SimLock`](crate::SimLock), [`SimTryLock`](crate::SimTryLock)
//! and [`SimResource`](crate::SimResource) report each access as one
//! [`Access`] value through one method, [`Probe::access`]: its timing, its
//! core and whether it met contention, which each primitive decides next
//! to the timing that causes it. The [`Sim`](crate::Sim) reports each
//! event's dispatch, and the models their time marks ([`crate::causal`]).
//! Nothing in simcore consumes the data: the slot holds a bare
//! [`CausalLog`](crate::CausalLog), or an observability layer's collector
//! (`telemetry`'s attributes wait vs. service time per named resource and
//! forwards the rest to its own causal log). `Probe: Any`, so such a layer
//! finds its collector in the slot by downcasting.
//!
//! Each access names the object by a [`Label`]: its name and its keyed id
//! ([`crate::keyed::id_of`]). An object resolves the id on the first
//! access a probe observes and keeps it, so a probe reaches its per-label
//! rows without hashing the name, and an unobserved object never looks
//! its name up.
//!
//! The hook is pure observation: implementations must not touch the
//! simulation, and the emitting code never changes its timing based on
//! whether a probe is installed. A primitive builds its `Access` inside
//! [`emit`]'s closure, so with no probe installed the cost is one
//! thread-local `Cell<bool>` read — no allocation, no dispatch.

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::rc::Rc;

use crate::causal::MarkKind;
use crate::keyed;
use crate::time::SimTime;

/// A lock's or resource's name and its process-wide keyed id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Label {
    /// The name given at construction.
    pub name: &'static str,
    /// `keyed::id_of(name)`.
    pub id: u32,
}

impl Label {
    /// `name` with its id resolved now.
    pub fn new(name: &'static str) -> Label {
        Label { name, id: keyed::id_of(name) }
    }
}

/// The id a label cache holds before its first resolution.
pub(crate) const UNRESOLVED: u32 = u32::MAX;

/// `name`'s label, resolving its id into `cache` on first use.
#[inline]
pub(crate) fn label(name: &'static str, cache: &mut u32) -> Label {
    if *cache == UNRESOLVED {
        *cache = keyed::id_of(name);
    }
    Label { name, id: *cache }
}

/// What kind of primitive made an [`Access`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Blocking lock ([`SimLock`](crate::SimLock)): the mpi `ucp_progress`
    /// model.
    Lock,
    /// Non-blocking try-lock ([`SimTryLock`](crate::SimTryLock)).
    TryLock,
    /// Serialized service center ([`SimResource`](crate::SimResource)).
    Resource,
}

impl AccessKind {
    /// Short display form.
    pub fn label(self) -> &'static str {
        match self {
            AccessKind::Lock => "lock",
            AccessKind::TryLock => "trylock",
            AccessKind::Resource => "resource",
        }
    }
}

/// One whole access to a lock or resource: a wait over `[now, now +
/// wait_ns)`, then the critical section or service over the `dur_ns`
/// that follows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// The object accessed.
    pub label: Label,
    /// The primitive that made the access.
    pub kind: AccessKind,
    /// The accessing core.
    pub core: usize,
    /// When the access was requested.
    pub now: SimTime,
    /// Spin, park or queueing time before the grant or the service
    /// (a lock's convoy handoff included); 0 for a try-lock.
    pub wait_ns: u64,
    /// The hold, or the service time with any ownership-transfer penalty;
    /// 0 for a failed try.
    pub dur_ns: u64,
    /// Whether the access met contention: a lock that waited, a try that
    /// failed, a resource access that queued or moved the object between
    /// cores.
    pub contended: bool,
}

/// Receiver of everything simcore observes. [`Probe::access`] describes
/// one whole access, so an implementation can derive the access's causal
/// marks from it: a Wait over the wait, then a Hold (lock) or Work
/// (resource) over the duration. The dispatch and mark methods default to
/// doing nothing.
pub trait Probe: Any {
    /// A [`SimLock`](crate::SimLock), [`SimTryLock`](crate::SimTryLock)
    /// or [`SimResource`](crate::SimResource) access.
    fn access(&self, a: Access);

    /// The [`Sim`](crate::Sim) begins dispatching event `node` (its
    /// node id) at `at` ns; `parent` is the node that scheduled it (0 when
    /// scheduled outside any event).
    fn on_execute(&self, _node: u64, _at: u64, _parent: u64) {}

    /// The event whose dispatch began last has finished.
    fn end_execute(&self) {}

    /// A labeled interval of the event now dispatching: `(label, kind,
    /// start, end, fixed)` as [`crate::causal::mark`] takes them.
    fn mark(&self, _: &'static str, _: MarkKind, _: SimTime, _: SimTime, _: u64) {}
}

thread_local! {
    static PROBE: RefCell<Option<Rc<dyn Probe>>> = const { RefCell::new(None) };
    /// Mirrors `PROBE.is_some()`: the no-probe path of [`emit`] reads only
    /// this flag, which needs no destructor and so no lazy-init check.
    static INSTALLED: Cell<bool> = const { Cell::new(false) };
}

/// Put `p` (or nothing) in this thread's slot; returns what it held.
/// Moves two pointers: no allocation.
pub fn swap(p: Option<Rc<dyn Probe>>) -> Option<Rc<dyn Probe>> {
    INSTALLED.with(|i| i.set(p.is_some()));
    PROBE.with(|c| c.replace(p))
}

/// Install `p` as this thread's probe (replacing any previous one).
pub fn install(p: Rc<dyn Probe>) {
    swap(Some(p));
}

/// Remove the installed probe, if any.
pub fn uninstall() {
    swap(None);
}

/// The installed probe, if any.
pub fn current() -> Option<Rc<dyn Probe>> {
    PROBE.with(|c| c.borrow().clone())
}

/// Whether a probe is currently installed on this thread.
#[inline]
pub fn installed() -> bool {
    INSTALLED.with(Cell::get)
}

/// Run `f` against the installed probe; no-op when none is installed.
#[inline]
pub fn emit(f: impl FnOnce(&dyn Probe)) {
    if installed() {
        PROBE.with(|c| {
            if let Some(p) = c.borrow().as_deref() {
                f(p)
            }
        });
    }
}

/// A probe that keeps every access it sees, for unit tests of the
/// emitting models.
#[cfg(test)]
pub(crate) mod recording {
    use super::*;

    struct RecordProbe(RefCell<Vec<Access>>);
    impl Probe for RecordProbe {
        fn access(&self, a: Access) {
            self.0.borrow_mut().push(a);
        }
    }

    /// Run `f` with a recording probe installed; return what it saw.
    pub(crate) fn record(f: impl FnOnce()) -> Vec<Access> {
        let p = Rc::new(RecordProbe(RefCell::new(Vec::new())));
        install(p.clone());
        f();
        uninstall();
        p.0.take()
    }

    /// `(core, now, wait, dur, contended)` of each access.
    pub(crate) fn timings(seen: &[Access]) -> Vec<(usize, u64, u64, u64, bool)> {
        seen.iter().map(|a| (a.core, a.now.as_nanos(), a.wait_ns, a.dur_ns, a.contended)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct CountProbe(Cell<u64>);
    impl Probe for CountProbe {
        fn access(&self, _: Access) {
            self.0.set(self.0.get() + 1);
        }
    }

    /// Make one access through the slot.
    fn access() {
        crate::SimTryLock::new("x").try_acquire(0, SimTime::ZERO, 1);
    }

    #[test]
    fn install_emit_uninstall() {
        assert!(!installed());
        emit(|_| panic!("no probe installed"));
        let p = Rc::new(CountProbe(Cell::new(0)));
        install(p.clone());
        assert!(installed());
        access();
        assert_eq!(p.0.get(), 1);
        uninstall();
        assert!(!installed());
        emit(|_| panic!("probe not removed"));
    }

    #[test]
    fn swap_returns_the_previous_occupant() {
        let (a, b) = (Rc::new(CountProbe(Cell::new(0))), Rc::new(CountProbe(Cell::new(0))));
        assert!(swap(Some(a.clone())).is_none());
        let prev = swap(Some(b.clone()));
        access();
        assert_eq!((a.0.get(), b.0.get()), (0, 1), "the swapped-in probe sees the access");
        assert!(swap(prev).is_some_and(|p| std::ptr::addr_eq(Rc::as_ptr(&p), Rc::as_ptr(&b))));
        access();
        assert_eq!((a.0.get(), b.0.get()), (1, 1), "the previous probe is back");
        uninstall();
    }
}
