//! Host-time spans around the calls into each layer, taken from outside
//! the library: a timing [`Parcelport`] decorator, a re-wrapped
//! [`ActionRegistry`], and [`span`] calls in the benchmark's own tasks.
//!
//! Spans nest; a layer's *self* time is its spans' durations minus the
//! part covered by child spans, and likewise for allocations. Run time
//! not covered by any span is the simulator core's residual (engine
//! dispatch, the AMT scheduler, message decode, and tasks spawned inside
//! library code). Spans cost two clock reads each and are off unless
//! [`start`] was called, so untraced reps run the library code as is.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use amt::action::{ActionId, ActionRegistry};
use amt::{BgOutcome, DeliverFn, HpxMessage, Locality, OnSent, Parcelport};
use simcore::{Sim, SimTime};

use crate::alloc;

/// A layer boundary the benchmark can time from outside.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `Parcelport::progress` / `background_work`: parcelport plus the
    /// lci/mpisim/netsim receive path.
    Progress,
    /// `Parcelport::put_message`: parcelport plus the netsim send path.
    Put,
    /// `Locality::send_action` from the benchmark's tasks: the AMT parcel
    /// layer (serialisation, queues) above the parcelport.
    Send,
    /// The parcelport's delivery upcall into the locality.
    Deliver,
    /// Action handlers and the benchmark's own task bodies.
    App,
}

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Progress => "parcelport.progress",
            Layer::Put => "parcelport.put",
            Layer::Send => "amt.send",
            Layer::Deliver => "amt.deliver",
            Layer::App => "app",
        }
    }
}

/// Totals of one layer over a traced rep.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerStat {
    pub calls: u64,
    pub self_ns: u64,
    pub self_allocs: u64,
    /// Calls that did work (progress only).
    pub useful: u64,
}

struct Frame {
    layer: Layer,
    start: Instant,
    allocs0: u64,
    child_ns: u64,
    child_allocs: u64,
}

#[derive(Default)]
struct Profiler {
    on: bool,
    stack: Vec<Frame>,
    stats: [LayerStat; 5],
}

thread_local! {
    static PROF: RefCell<Profiler> = RefCell::new(Profiler::default());
}

/// Turn spans on with zeroed totals.
pub fn start() {
    PROF.with(|p| {
        let mut p = p.borrow_mut();
        p.on = true;
        p.stats = Default::default();
        p.stack.clear();
        // Keep the profiler's own bookkeeping out of the counted
        // allocations: nesting never gets this deep.
        p.stack.reserve(64);
    });
}

/// Turn spans off and return the per-layer totals, indexed by
/// `Layer as usize`. Fails if a span is still open.
pub fn stop() -> Result<[LayerStat; 5], String> {
    PROF.with(|p| {
        let mut p = p.borrow_mut();
        p.on = false;
        match p.stack.last() {
            Some(f) => Err(format!("span stack not closed: {} still open", f.layer.name())),
            None => Ok(p.stats),
        }
    })
}

/// Run `f` inside a span of `layer` (just `f` while spans are off).
pub fn span<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    let on = PROF.with(|p| {
        let mut p = p.borrow_mut();
        if p.on {
            let allocs0 = alloc::snapshot().allocs;
            p.stack.push(Frame {
                layer,
                start: Instant::now(),
                allocs0,
                child_ns: 0,
                child_allocs: 0,
            });
        }
        p.on
    });
    if !on {
        return f();
    }
    let r = f();
    let end = Instant::now();
    let allocs = alloc::snapshot().allocs;
    PROF.with(|p| {
        let mut p = p.borrow_mut();
        let f = p.stack.pop().expect("span frame pushed on entry");
        let total_ns = end.duration_since(f.start).as_nanos() as u64;
        let total_allocs = allocs - f.allocs0;
        let st = &mut p.stats[f.layer as usize];
        st.calls += 1;
        st.self_ns += total_ns.saturating_sub(f.child_ns);
        st.self_allocs += total_allocs.saturating_sub(f.child_allocs);
        if let Some(parent) = p.stack.last_mut() {
            parent.child_ns += total_ns;
            parent.child_allocs += total_allocs;
        }
    });
    r
}

fn progress_span(f: impl FnOnce() -> BgOutcome) -> BgOutcome {
    let out = span(Layer::Progress, f);
    if out.did_work {
        PROF.with(|p| {
            let mut p = p.borrow_mut();
            if p.on {
                p.stats[Layer::Progress as usize].useful += 1;
            }
        });
    }
    out
}

/// Times every call into the wrapped parcelport and its delivery upcall.
struct TimedParcelport {
    inner: Rc<RefCell<dyn Parcelport>>,
}

impl Parcelport for TimedParcelport {
    fn put_message(
        &mut self,
        sim: &mut Sim,
        core: usize,
        at: SimTime,
        dest: usize,
        msg: HpxMessage,
        on_sent: Option<OnSent>,
    ) -> SimTime {
        span(Layer::Put, || self.inner.borrow_mut().put_message(sim, core, at, dest, msg, on_sent))
    }

    fn background_work(&mut self, sim: &mut Sim, core: usize) -> BgOutcome {
        progress_span(|| self.inner.borrow_mut().background_work(sim, core))
    }

    fn progress(&mut self, sim: &mut Sim, core: usize) -> BgOutcome {
        progress_span(|| self.inner.borrow_mut().progress(sim, core))
    }

    fn wants_dedicated_progress(&self) -> bool {
        self.inner.borrow().wants_dedicated_progress()
    }

    fn set_deliver(&mut self, deliver: DeliverFn) {
        self.inner.borrow_mut().set_deliver(Rc::new(move |sim, core, at, src, msg| {
            span(Layer::Deliver, || deliver(sim, core, at, src, msg))
        }));
    }

    fn config_name(&self) -> String {
        self.inner.borrow().config_name()
    }
}

/// Put the timing decorator between `loc` and its installed parcelport.
pub fn time_parcelport(loc: &Rc<Locality>) {
    let inner = loc.parcelport().expect("parcelport installed by the world builder");
    loc.set_parcelport(Rc::new(RefCell::new(TimedParcelport { inner })));
}

/// The same actions under the same ids, each handler inside an
/// [`Layer::App`] span.
pub fn time_registry(reg: &ActionRegistry) -> ActionRegistry {
    let mut out = ActionRegistry::new();
    for id in 0..reg.len() as ActionId {
        let handler = reg.handler(id);
        let new_id = out.register(reg.name_of(id), move |sim, loc, core, p| {
            span(Layer::App, || handler(sim, loc, core, p))
        });
        debug_assert_eq!(new_id, id);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_stack_must_close() {
        start();
        span(Layer::App, || {
            span(Layer::Send, || {
                span(Layer::Put, || std::hint::black_box(vec![0u8; 64]));
            });
        });
        let stats = stop().expect("closed");
        for l in [Layer::App, Layer::Send, Layer::Put] {
            assert_eq!(stats[l as usize].calls, 1, "{}", l.name());
        }
        assert_eq!(stats[Layer::Put as usize].self_allocs, 1);
        assert_eq!(stats[Layer::App as usize].self_allocs, 0);
        assert_eq!(stats[Layer::Deliver as usize].calls, 0);

        // A span left open is reported, not silently dropped.
        PROF.with(|p| {
            let mut p = p.borrow_mut();
            p.on = true;
            p.stack.push(Frame {
                layer: Layer::Deliver,
                start: Instant::now(),
                allocs0: 0,
                child_ns: 0,
                child_allocs: 0,
            });
        });
        assert!(stop().unwrap_err().contains("amt.deliver"));
        PROF.with(|p| p.borrow_mut().stack.clear());
    }

    #[test]
    fn spans_off_just_run_the_closure() {
        assert_eq!(span(Layer::App, || 7), 7);
        start();
        let stats = stop().expect("closed");
        assert_eq!(stats[Layer::App as usize].calls, 0);
    }
}
