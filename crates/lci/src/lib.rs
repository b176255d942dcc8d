//! # lci — a Rust model of the Lightweight Communication Interface
//!
//! LCI (§2.1 of the paper) is a communication library built for
//! multithreaded, irregular communication. This crate reproduces the
//! features the LCI parcelport depends on:
//!
//! * **Two-sided medium (eager) and long (rendezvous) send/receive** with
//!   `(rank, tag)` matching, including wildcard-source receives: the
//!   follow-up parts of a message, and the header of the `sendrecv`
//!   protocol.
//! * **Eager one-sided dynamic put from a registered packet**
//!   ([`Device::post_putva_packet`]): the target buffer is allocated by
//!   the runtime on message arrival and an entry is pushed to a
//!   pre-configured *remote completion queue* — the primitive behind the
//!   `putsendrecv` protocol's header messages.
//! * **Completion mechanisms**: completion queues ([`CompQueue`]) and
//!   synchronizers ([`Synchronizer`], MPI-request-like but
//!   multi-producer), freely combinable with the primitives.
//! * **Explicit progress**: communication advances only when someone calls
//!   [`Device::progress`]. The thread-safe variant uses a try-lock: a
//!   failed attempt returns immediately instead of blocking (contrast with
//!   `mpisim`'s coarse blocking lock).
//! * **Explicit retry**: all operations are non-blocking; when a resource
//!   (packet pool slot) is temporarily unavailable they return
//!   [`Error::Retry`] and the *user* decides when to retry.
//! * **Registered packet pool** with user-visible buffers
//!   ([`Device::alloc_packet`]), so the parcelport can assemble a header
//!   message directly in an LCI buffer and save one memory copy (§3.2.1).
//!
//! Contention inside the progress engine (matching table, completion
//! queues, packet pool, internal counters) is modeled with
//! [`simcore::SimResource`]s, so "multiple worker threads call the
//! progress function" genuinely degrades throughput via cache-line
//! migration and serialization, as the paper measures.

pub mod comp;
pub mod config;
pub mod device;
pub mod matching;
pub mod pool;
pub mod protocol;

pub use comp::{Comp, CompQueue, Request, Synchronizer};
pub use config::DeviceConfig;
pub use device::{Device, ProgressOutcome};
pub use matching::MatchTable;
pub use pool::PacketPool;
pub use protocol::ANY_SOURCE;

/// Errors surfaced to LCI users.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Error {
    /// A resource (packet pool slot, queue capacity) is temporarily
    /// unavailable; the caller should retry later. This mirrors LCI's
    /// explicit-retry design: "users can decide when to retry in case of
    /// temporarily unavailable resources".
    Retry,
    /// The operation is malformed (message too large for eager protocol,
    /// unknown rank, ...). Indicates a caller bug.
    Invalid(&'static str),
}

/// Result alias for LCI operations.
pub type Result<T> = std::result::Result<T, Error>;
