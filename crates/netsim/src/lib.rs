//! # netsim — a simulated RDMA fabric
//!
//! Stands in for the InfiniBand hardware + libibverbs/libfabric layer the
//! paper runs on (Mellanox ConnectX-6 / HDR on SDSC Expanse, ConnectX-3 /
//! FDR on Rostam). The model is LogGP-flavoured:
//!
//! * **o** (overhead): posting a descriptor costs CPU time on the posting
//!   core and serializes through a per-node *TX context* resource — one
//!   network context per process, exactly the §7.2 bottleneck ("the LCI
//!   parcelport only uses one LCI device per process... severe thread
//!   contention when the sender injects messages").
//! * **g** (gap): the NIC injects at most one message per `msg_gap_ns`,
//!   plus a per-byte serialization cost — this caps achievable message
//!   rate and bandwidth.
//! * **L** (latency): constant propagation delay.
//!
//! Delivery is reliable and ordered per (src → dst) pair, like an IB RC
//! queue pair. Optional fault injection (duplication / bounded reordering)
//! exists purely to harden upper-layer tests.
//!
//! Receivers [`Fabric::poll`] their node's RX queues; polling serializes
//! through a per-node *RX queue* resource, so many cores polling the same
//! NIC contend — the "network receive queue" contention of §4.1.

pub mod fabric;
pub mod model;
pub mod packet;
mod slots;
pub mod topo;

pub use fabric::{Fabric, FaultConfig, PollOutcome, SendOutcome};
pub use model::WireModel;
pub use packet::{NodeId, Packet};
pub use topo::{
    DragonflyParams, FatTreeParams, PortCounters, RoutingPolicy, SwitchFabric, Topology,
};
