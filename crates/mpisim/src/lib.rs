//! # mpisim — an MPI-like baseline with a coarse-grained blocking
//! progress lock
//!
//! Models the OpenMPI 4.1.5 / UCX 1.14 stack the paper's MPI parcelport
//! runs on, initialized in `MPI_THREAD_MULTIPLE` mode:
//!
//! * Two-sided `isend`/`irecv` with `(source, tag)` matching, wildcard
//!   source, eager and rendezvous protocols, and [`Request`] handles
//!   polled with [`Comm::test`]. A request is a copyable key into the
//!   `Comm`'s own request table, so posting allocates nothing once the
//!   table has grown to the peak in flight. An eager send returns
//!   [`Request::NULL`], which is always done; [`Comm::take`] frees a
//!   finished request and returns its [`Completion`], as `MPI_Test` sets
//!   a finished handle to `MPI_REQUEST_NULL`.
//! * **One global engine lock** ([`simcore::SimLock`]) around every call —
//!   the model of the `ucp_progress` coarse-grained blocking lock. Every
//!   `MPI_Isend`, `MPI_Irecv` and `MPI_Test` from every worker thread
//!   serializes through it, and a contended acquisition pays a handoff
//!   cost that grows with the number of waiters. This is the mechanism
//!   behind the paper's headline pathology: Octo-Tiger with `mpi_i` on
//!   128-core nodes "spent the vast majority of time inside the
//!   `MPI_Test` function, spinning on the blocking lock of the
//!   `ucp_progress` function" (§5), and behind the `mpi` message-rate
//!   curve that rises and then *falls* under injection pressure (Fig. 1).
//!
//! The functional semantics (matching order, unexpected-message queue,
//! rendezvous handshake) mirror `lci`'s, so correctness tests can compare
//! the two stacks; only the concurrency-control model differs — which is
//! exactly the paper's point.

pub mod comm;
pub mod request;

pub use comm::Comm;
pub use request::{Completion, Request};

/// Wildcard source rank (like `MPI_ANY_SOURCE`).
pub const ANY_SOURCE: usize = usize::MAX;
