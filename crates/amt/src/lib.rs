//! # amt — a miniature HPX-style asynchronous many-task runtime
//!
//! Models the parts of HPX (§2.2 of the paper) that sit *above* the
//! parcelport layer:
//!
//! * **Localities** — one per simulated node (the HPX equivalent of an
//!   MPI rank), each with a pool of simulated worker cores driven by the
//!   [`simcore`] event loop.
//! * **Actions** — registered functions invocable on any locality; the
//!   argument bundle travels as a *parcel*.
//! * **Parcels & HPX messages** — parcels aggregate per destination and
//!   serialize into an *HPX message* with exactly the paper's anatomy: a
//!   non-zero-copy chunk (small arguments + metadata), optional zero-copy
//!   chunks (arguments at or above the zero-copy serialization threshold,
//!   default 8192 bytes), and a transmission chunk (index/length table,
//!   present iff there is at least one zero-copy chunk).
//! * **Connection cache and parcel queues** — the two spinlock-protected
//!   upper-layer structures that improve aggregation/memory reuse but add
//!   lock contention; the *send-immediate* optimization (§3.2.2) bypasses
//!   both.
//! * **Background work** — idle worker cores call the parcelport's
//!   background-work function; optionally, a *resource partitioner*
//!   reserves simulated core 0 for a dedicated, pinned progress thread
//!   (the `pin`/`rp` configurations).
//!
//! The actual parcelports (MPI and LCI) live in the `parcelport` crate
//! and plug in through the [`Parcelport`] trait defined here.

pub mod action;
pub mod codec;
pub mod locality;
pub mod parcel;
pub mod parcel_layer;
pub mod runtime;
pub mod sched;
pub mod serialize;

pub use action::{ActionFn, ActionId, ActionRegistry};
pub use locality::Locality;
pub use parcel::{Args, Parcel};
pub use parcel_layer::{ParcelLayer, ParcelLayerConfig};
pub use runtime::Runtime;
pub use sched::Task;
pub use serialize::HpxMessage;

use simcore::{Sim, SimTime};

/// Outcome of one parcelport background-work or progress invocation.
#[derive(Debug, Clone, Copy)]
pub struct BgOutcome {
    /// Whether anything was accomplished (completions reaped, packets
    /// handled, pending sends advanced). Idle cores use this to back off.
    pub did_work: bool,
    /// When the calling core is done.
    pub cpu_done: SimTime,
    /// Earliest instant it is worth calling again (e.g. next known packet
    /// arrival), if the parcelport knows one.
    pub retry_at: Option<SimTime>,
    /// Set by a dedicated progress thread when it produced completions
    /// that *worker* cores must reap (completion-queue entries, tripped
    /// synchronizers). The runtime then wakes sleeping workers.
    pub wake_workers: bool,
    /// How many reapable completions were produced (bounds how many
    /// workers are woken — one notify per item, not a broadcast).
    pub completions: usize,
}

impl BgOutcome {
    /// An outcome that accomplished nothing.
    pub fn idle(cpu_done: SimTime) -> Self {
        BgOutcome { did_work: false, cpu_done, retry_at: None, wake_workers: false, completions: 0 }
    }
}

/// Callback invoked by a parcelport when a complete HPX message has been
/// received: `(sim, receiving core, completion virtual time, source
/// locality, message)`.
pub type DeliverFn = std::rc::Rc<dyn Fn(&mut Sim, usize, SimTime, usize, HpxMessage)>;

/// Callback invoked when a posted HPX message has fully left the sender
/// (all its chunks' sends completed locally) — used by the parcel layer to
/// recycle the connection-cache slot. Receives `(sim, core)` where `core`
/// is the core that observed the completion. Parcelports must invoke it
/// from a *fresh event* (`sim.schedule_once_at`, which moves this box into
/// the event with no further allocation), never inline from a method
/// that still holds the parcelport borrowed, because the callback may
/// re-enter the parcelport to send the next aggregated message.
pub type OnSent = simcore::OnceFn;

/// The parcelport interface: everything the runtime needs from a
/// communication backend. Implementations live in the `parcelport` crate.
pub trait Parcelport {
    /// Hand a serialized HPX message to the backend for transmission.
    /// The backend owns retries; `on_sent` fires when the message has
    /// fully left this locality. Returns when the calling core is free.
    fn put_message(
        &mut self,
        sim: &mut Sim,
        core: usize,
        at: SimTime,
        dest: usize,
        msg: HpxMessage,
        on_sent: Option<OnSent>,
    ) -> SimTime;

    /// One slice of background work, called by idle worker cores.
    fn background_work(&mut self, sim: &mut Sim, core: usize) -> BgOutcome;

    /// One slice of dedicated progress work, called by the pinned progress
    /// core when the resource partitioner reserves one. Defaults to
    /// [`Parcelport::background_work`].
    fn progress(&mut self, sim: &mut Sim, core: usize) -> BgOutcome {
        self.background_work(sim, core)
    }

    /// Whether this parcelport wants the runtime to dedicate core 0 to
    /// calling [`Parcelport::progress`] (the `pin`/`rp` configurations).
    fn wants_dedicated_progress(&self) -> bool {
        false
    }

    /// Register the upcall for received messages.
    fn set_deliver(&mut self, deliver: DeliverFn);

    /// Human-readable configuration name (Table 1 naming scheme).
    fn config_name(&self) -> String;
}
