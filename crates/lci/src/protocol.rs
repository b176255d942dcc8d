//! Wire-protocol constants and in-flight operation state.

use bytes::Bytes;
use netsim::NodeId;

use crate::comp::Comp;

/// Wildcard source rank for receives (matches any sender).
pub const ANY_SOURCE: NodeId = usize::MAX;

/// Packet kinds used by the LCI device on the simulated wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum PacketKind {
    /// Eager two-sided medium message; consumed by a matching receive.
    Eager = 1,
    /// Eager one-sided dynamic put; buffer allocated at target, entry
    /// pushed to the target's pre-configured remote completion queue.
    PutEager = 2,
    /// Rendezvous request-to-send (two-sided long protocol).
    Rts = 3,
    /// Rendezvous ready-to-receive (carries the matched op id).
    Rtr = 4,
    /// Rendezvous payload (models the RDMA write + completion imm).
    LongData = 5,
}

impl PacketKind {
    /// Decode from the wire byte; panics on garbage (the fabric is
    /// reliable, so garbage means a programming error).
    pub fn from_u8(x: u8) -> PacketKind {
        match x {
            1 => PacketKind::Eager,
            2 => PacketKind::PutEager,
            3 => PacketKind::Rts,
            4 => PacketKind::Rtr,
            5 => PacketKind::LongData,
            other => panic!("unknown LCI packet kind {other}"),
        }
    }
}

/// Sender-side state of an in-flight rendezvous send, keyed by op id;
/// kept until the RTR arrives.
#[derive(Debug)]
pub struct RdvSend {
    /// Destination rank.
    pub dst: NodeId,
    /// User tag.
    pub tag: u64,
    /// Payload to transfer once the target is ready.
    pub data: Bytes,
    /// Completion to signal when the payload has been handed to the NIC.
    pub comp: Comp,
    /// User context propagated into the completion entry.
    pub user: u64,
}

/// Receiver-side state of an in-flight rendezvous receive, keyed by op id;
/// created when the RTS is matched, resolved when the payload arrives.
#[derive(Debug)]
pub struct RdvRecv {
    /// Completion to signal when the payload lands.
    pub comp: Comp,
    /// User context propagated into the completion entry.
    pub user: u64,
    /// Expected payload size (from the RTS), for buffer allocation.
    pub size: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packet_kind_roundtrip() {
        for k in [
            PacketKind::Eager,
            PacketKind::PutEager,
            PacketKind::Rts,
            PacketKind::Rtr,
            PacketKind::LongData,
        ] {
            assert_eq!(PacketKind::from_u8(k as u8), k);
        }
    }

    #[test]
    #[should_panic(expected = "unknown LCI packet kind")]
    fn garbage_kind_panics() {
        // Every byte past the last kind is garbage, 6 to 8 included.
        for x in [6, 7, 8] {
            let err = std::panic::catch_unwind(|| PacketKind::from_u8(x)).unwrap_err();
            let msg = err.downcast_ref::<String>().expect("formatted panic message");
            assert_eq!(msg, &format!("unknown LCI packet kind {x}"));
        }
        PacketKind::from_u8(99);
    }
}
