//! Contention instrumentation hook.
//!
//! [`SimLock`](crate::SimLock), [`SimTryLock`](crate::SimTryLock) and
//! [`SimResource`](crate::SimResource) report every acquisition/access
//! through an optional thread-local [`Probe`]: one call per access, which
//! carries everything the access did. Nothing in simcore consumes the
//! data — an observability layer (the `telemetry` crate) installs a probe
//! to attribute wait vs. service time per named resource, and records the
//! access's causal marks ([`crate::causal`]) from the same call.
//!
//! Each call names the object by a [`Label`]: its name and its keyed id
//! ([`crate::keyed::id_of`]). An object resolves the id on the first
//! access a probe observes and keeps it, so a probe reaches its per-label
//! rows without hashing the name, and an unobserved object never looks
//! its name up.
//!
//! The hook is pure observation: implementations must not touch the
//! simulation, and the emitting code never changes its timing based on
//! whether a probe is installed. With no probe installed the cost is one
//! thread-local `Cell<bool>` read — no allocation, no dispatch.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

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

/// Receiver of contention events from locks and resources. Each method
/// describes one whole access, so an implementation can derive the
/// access's causal marks from it: a Wait over `[now, now + wait_ns)`,
/// then a Hold (lock) or Work (resource) over the `hold_ns`/`service_ns`
/// that follows.
pub trait Probe {
    /// A [`SimLock`](crate::SimLock) acquisition was granted.
    /// `wait_ns` is the spin/park time before the grant (including the
    /// convoy handoff), `hold_ns` the critical-section length.
    fn lock_wait(
        &self,
        label: Label,
        core: usize,
        now: SimTime,
        wait_ns: u64,
        hold_ns: u64,
        contended: bool,
    );

    /// A [`SimTryLock`](crate::SimTryLock) attempt. `hold_ns` is the
    /// charged critical section on success, 0 on failure.
    fn try_lock(&self, label: Label, now: SimTime, acquired: bool, hold_ns: u64);

    /// A [`SimResource`](crate::SimResource) access. `wait_ns` is the
    /// queueing delay before service began, `service_ns` the full service
    /// time (including any ownership-transfer penalty).
    fn resource_access(
        &self,
        label: Label,
        core: usize,
        now: SimTime,
        wait_ns: u64,
        service_ns: u64,
        transferred: bool,
    );
}

thread_local! {
    static PROBE: RefCell<Option<Rc<dyn Probe>>> = const { RefCell::new(None) };
    /// Mirrors `PROBE.is_some()`: the no-probe path of [`emit`] reads only
    /// this flag, which needs no destructor and so no lazy-init check.
    static INSTALLED: Cell<bool> = const { Cell::new(false) };
}

/// Install `p` as this thread's probe (replacing any previous one).
pub fn install(p: Rc<dyn Probe>) {
    PROBE.with(|c| *c.borrow_mut() = Some(p));
    INSTALLED.with(|i| i.set(true));
}

/// Remove the installed probe, if any.
pub fn uninstall() {
    PROBE.with(|c| *c.borrow_mut() = None);
    INSTALLED.with(|i| i.set(false));
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

/// A probe that keeps every event it sees, for unit tests of the
/// emitting models.
#[cfg(test)]
pub(crate) mod recording {
    use super::*;

    /// One event, with the arguments it was emitted with (names dropped).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(crate) enum Seen {
        Lock { core: usize, now: SimTime, wait_ns: u64, hold_ns: u64, contended: bool },
        Try { now: SimTime, acquired: bool, hold_ns: u64 },
        Resource { core: usize, now: SimTime, wait_ns: u64, service_ns: u64, transferred: bool },
    }

    struct RecordProbe(RefCell<Vec<Seen>>);
    impl Probe for RecordProbe {
        fn lock_wait(&self, _: Label, core: usize, now: SimTime, w: u64, h: u64, c: bool) {
            let e = Seen::Lock { core, now, wait_ns: w, hold_ns: h, contended: c };
            self.0.borrow_mut().push(e);
        }
        fn try_lock(&self, _: Label, now: SimTime, acquired: bool, hold_ns: u64) {
            self.0.borrow_mut().push(Seen::Try { now, acquired, hold_ns });
        }
        fn resource_access(&self, _: Label, core: usize, now: SimTime, w: u64, s: u64, t: bool) {
            let e = Seen::Resource { core, now, wait_ns: w, service_ns: s, transferred: t };
            self.0.borrow_mut().push(e);
        }
    }

    /// Run `f` with a recording probe installed; return what it saw.
    pub(crate) fn record(f: impl FnOnce()) -> Vec<Seen> {
        let p = Rc::new(RecordProbe(RefCell::new(Vec::new())));
        install(p.clone());
        f();
        uninstall();
        p.0.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct CountProbe(Cell<u64>);
    impl Probe for CountProbe {
        fn lock_wait(&self, _: Label, _: usize, _: SimTime, _: u64, _: u64, _: bool) {
            self.0.set(self.0.get() + 1);
        }
        fn try_lock(&self, _: Label, _: SimTime, _: bool, _: u64) {
            self.0.set(self.0.get() + 1);
        }
        fn resource_access(&self, _: Label, _: usize, _: SimTime, _: u64, _: u64, _: bool) {
            self.0.set(self.0.get() + 1);
        }
    }

    #[test]
    fn install_emit_uninstall() {
        assert!(!installed());
        emit(|_| panic!("no probe installed"));
        let p = Rc::new(CountProbe(Cell::new(0)));
        install(p.clone());
        assert!(installed());
        emit(|probe| probe.try_lock(Label::new("x"), SimTime::ZERO, true, 1));
        assert_eq!(p.0.get(), 1);
        uninstall();
        assert!(!installed());
        emit(|_| panic!("probe not removed"));
    }
}
