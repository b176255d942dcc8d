//! # parcelport — the MPI and LCI parcelports of HPX (the paper's core)
//!
//! A *parcelport* transfers serialized HPX messages between localities
//! (§2.2). This crate implements the two backends the paper compares,
//! faithful to §3:
//!
//! ## The MPI parcelport ([`mpi_pp::MpiParcelport`])
//! * a *connection* object per in-flight HPX message, on both sides;
//! * one protocol *header message* (MPI tag 0) carrying metadata and —
//!   in the improved version — piggybacking the non-zero-copy chunk and
//!   the transmission chunk when they fit under the zero-copy threshold;
//! * an atomic counter for tags, one tag per connection;
//! * at most one outstanding send/receive per connection, sequenced by
//!   `MPI_Test` polling from the background-work function;
//! * a spinlock-protected pending-connection list checked round-robin;
//! * the *original* variant (fixed 512-byte stack header, no transmission
//!   piggyback, tag-release protocol with a lock-protected free-tag list)
//!   for the ~20% ablation described in §3.1.
//!
//! ## The LCI parcelport ([`lci_pp::LciParcelport`])
//! * the baseline `lci_psr_cq_pin(_i)`: header sent with the one-sided
//!   *dynamic put* straight out of an LCI-allocated buffer (one copy
//!   saved), remote completion through a pre-configured completion
//!   queue, follow-ups via medium/long send-recv with a distinct tag per
//!   message, a dedicated pinned progress thread, completion queues
//!   instead of a pending-connection scan;
//! * research variants along four axes (§3.2.2): protocol
//!   {`putsendrecv`, `sendrecv`} × progress {`pin`, `worker`} ×
//!   completion {`cq`, `sync`} × send-immediate {on, off}.
//!
//! [`config::PpConfig`] implements the Table-1 naming scheme
//! (`lci_psr_cq_pin_i`, `mpi_i`, ...); [`builder::build_world`] assembles
//! a ready-to-run two-node (or N-node) world for any configuration, and
//! [`Engine::build`] assembles one on either event engine.

pub mod builder;
pub mod config;
pub mod engine;
pub mod header;
pub mod lci_pp;
pub mod mpi_pp;
pub mod sharded;
pub mod tcp_pp;

pub use builder::{build_world, World, WorldConfig};
pub use config::{Backend, Completion, PpConfig, Progress, Protocol};
pub use engine::{Engine, EngineWorld};
pub use header::{HeaderInfo, MessagePlan, PartId, MAX_HEADER_SIZE};
pub use sharded::{build_sharded_world, LaneSetup, LocalityNode, ShardedWorld};
