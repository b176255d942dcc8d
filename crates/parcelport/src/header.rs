//! The header message: metadata + piggybacking, and message-part planning
//! shared by the MPI and LCI parcelports.
//!
//! §3.1: "The header message contains metadata about the HPX message such
//! as the tag it should use for the follow-up sends and receives, the
//! size of the non-zero-copy chunk, and the existence and size of the
//! transmission chunk. ... If the transmission message and the
//! non-zero-copy chunk message are small enough, they will piggyback on
//! the header message. The maximum size of the header message is set to
//! be the zero-copy serialization threshold."

use amt::codec::{Reader, Writer};
use amt::serialize::HpxMessage;
use bytes::Bytes;

/// Maximum header-message size: the HPX zero-copy serialization threshold
/// default (8192 bytes).
pub const MAX_HEADER_SIZE: usize = 8192;

/// Fixed header size of the *original* MPI parcelport (stack-allocated).
pub const ORIGINAL_HEADER_SIZE: usize = 512;

const FLAG_PIGGY_NZC: u8 = 1;
const FLAG_PIGGY_TRANS: u8 = 2;
const FLAG_HAS_TRANS: u8 = 4;

/// Fixed header fields: tag(8) + zc_count(4) + flags(1) + nzc_size(4) +
/// trans_size(4).
const FIXED_FIELDS: usize = 21;

/// Identifies one follow-up message of an HPX message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartId {
    /// The non-zero-copy chunk (when not piggybacked).
    Nzc,
    /// The transmission chunk (when present and not piggybacked).
    Trans,
    /// Zero-copy chunk `i`.
    Zc(u32),
}

impl PartId {
    /// Tag offset of this part relative to the connection's base tag.
    /// (The MPI parcelport uses one tag for everything; the LCI parcelport
    /// uses `tag_base + offset` because LCI does not guarantee in-order
    /// delivery.)
    pub fn tag_offset(&self) -> u64 {
        match self {
            PartId::Nzc => 0,
            PartId::Trans => 1,
            PartId::Zc(i) => 2 + u64::from(*i),
        }
    }
}

/// A planned outgoing HPX message: the encoded header plus the follow-up
/// parts in send order.
#[derive(Debug)]
pub struct MessagePlan {
    /// Encoded header, including piggybacked chunks.
    pub header: Bytes,
    /// Follow-up messages in send order.
    pub parts: Vec<(PartId, Bytes)>,
}

/// Plan the wire messages for `msg`.
///
/// * `max_header`: [`MAX_HEADER_SIZE`] for the improved parcelports,
///   [`ORIGINAL_HEADER_SIZE`] for the original MPI parcelport.
/// * `piggyback_trans`: the original MPI parcelport could only piggyback
///   the non-zero-copy chunk; the improved version also piggybacks the
///   transmission chunk.
pub fn plan_message(
    msg: &HpxMessage,
    tag_base: u64,
    max_header: usize,
    piggyback_trans: bool,
) -> MessagePlan {
    let nzc = &msg.non_zero_copy;
    let trans = msg.transmission.as_ref();
    let piggy_nzc = FIXED_FIELDS + nzc.len() <= max_header;
    let piggy_trans = piggyback_trans
        && trans.is_some()
        && piggy_nzc
        && FIXED_FIELDS + nzc.len() + trans.map_or(0, |t| t.len()) <= max_header;

    let mut flags = 0u8;
    if piggy_nzc {
        flags |= FLAG_PIGGY_NZC;
    }
    if piggy_trans {
        flags |= FLAG_PIGGY_TRANS;
    }
    if trans.is_some() {
        flags |= FLAG_HAS_TRANS;
    }

    let mut w = Writer::with_capacity(FIXED_FIELDS + if piggy_nzc { nzc.len() } else { 0 });
    w.put_u64(tag_base);
    w.put_u32(msg.zero_copy.len() as u32);
    w.put_u8(flags);
    w.put_u32(nzc.len() as u32);
    w.put_u32(trans.map_or(0, |t| t.len()) as u32);
    if piggy_nzc {
        w.put_raw(nzc);
    }
    if piggy_trans {
        w.put_raw(trans.expect("piggy_trans implies trans"));
    }
    let header = w.finish();
    debug_assert!(header.len() <= max_header, "header exceeded its limit");

    let mut parts = Vec::new();
    if !piggy_nzc {
        parts.push((PartId::Nzc, nzc.clone()));
    }
    if let Some(t) = trans {
        if !piggy_trans {
            parts.push((PartId::Trans, t.clone()));
        }
    }
    for (i, c) in msg.zero_copy.iter().enumerate() {
        parts.push((PartId::Zc(i as u32), c.clone()));
    }
    MessagePlan { header, parts }
}

/// Decoded header contents on the receive side.
#[derive(Debug)]
pub struct HeaderInfo {
    /// Base tag for the follow-up messages.
    pub tag_base: u64,
    /// Number of zero-copy chunks to expect.
    pub zc_count: u32,
    /// Whether the message has a transmission chunk at all.
    pub has_trans: bool,
    /// Piggybacked non-zero-copy chunk, if it fit.
    pub nzc: Option<Bytes>,
    /// Piggybacked transmission chunk, if it fit.
    pub trans: Option<Bytes>,
    /// Size of the non-zero-copy chunk (for the follow-up receive).
    pub nzc_size: u32,
    /// Size of the transmission chunk.
    pub trans_size: u32,
}

impl HeaderInfo {
    /// Decode a header message. Piggybacked chunks come out as zero-copy
    /// sub-views of the header buffer (refcount bumps, no allocation) —
    /// the header was received into registered storage and the chunks can
    /// alias it for their whole lifetime.
    pub fn decode(header: &Bytes) -> HeaderInfo {
        let mut r = Reader::new(header);
        let tag_base = r.get_u64();
        let zc_count = r.get_u32();
        let flags = r.get_u8();
        let nzc_size = r.get_u32();
        let trans_size = r.get_u32();
        let nzc = if flags & FLAG_PIGGY_NZC != 0 {
            Some(header.slice(FIXED_FIELDS..FIXED_FIELDS + nzc_size as usize))
        } else {
            None
        };
        let trans = if flags & FLAG_PIGGY_TRANS != 0 {
            let off = FIXED_FIELDS + nzc_size as usize;
            Some(header.slice(off..off + trans_size as usize))
        } else {
            None
        };
        HeaderInfo {
            tag_base,
            zc_count,
            has_trans: flags & FLAG_HAS_TRANS != 0,
            nzc,
            trans,
            nzc_size,
            trans_size,
        }
    }

    /// The follow-up parts still to be received, in order.
    pub fn expected_parts(&self) -> Vec<PartId> {
        let mut v = Vec::new();
        if self.nzc.is_none() {
            v.push(PartId::Nzc);
        }
        if self.has_trans && self.trans.is_none() {
            v.push(PartId::Trans);
        }
        for i in 0..self.zc_count {
            v.push(PartId::Zc(i));
        }
        v
    }
}

/// Receive-side assembly of an HPX message from its parts.
#[derive(Debug)]
pub struct MessageAssembly {
    nzc: Option<Bytes>,
    trans: Option<Bytes>,
    zc: Vec<Option<Bytes>>,
    missing: usize,
    has_trans: bool,
}

impl MessageAssembly {
    /// Start assembling from a decoded header.
    pub fn new(info: &HeaderInfo) -> MessageAssembly {
        let missing = info.expected_parts().len();
        MessageAssembly {
            nzc: info.nzc.clone(),
            trans: info.trans.clone(),
            zc: vec![None; info.zc_count as usize],
            missing,
            has_trans: info.has_trans,
        }
    }

    /// Supply one received part.
    pub fn supply(&mut self, part: PartId, data: Bytes) {
        let slot = match part {
            PartId::Nzc => &mut self.nzc,
            PartId::Trans => &mut self.trans,
            PartId::Zc(i) => &mut self.zc[i as usize],
        };
        assert!(slot.is_none(), "part {part:?} supplied twice");
        *slot = Some(data);
        self.missing -= 1;
    }

    /// Whether every expected part has arrived.
    pub fn is_complete(&self) -> bool {
        self.missing == 0
    }

    /// Finish into an [`HpxMessage`]; panics if incomplete.
    pub fn into_message(self) -> HpxMessage {
        assert!(self.is_complete(), "assembling an incomplete message");
        HpxMessage {
            non_zero_copy: self.nzc.expect("nzc present"),
            zero_copy: self.zc.into_iter().map(|c| c.expect("zc present")).collect(),
            transmission: if self.has_trans {
                Some(self.trans.expect("trans present"))
            } else {
                None
            },
            flows: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amt::parcel::Parcel;

    fn msg(small: usize, large: &[usize]) -> HpxMessage {
        let mut args = vec![Bytes::from(vec![1u8; small])];
        args.extend(large.iter().map(|&n| Bytes::from(vec![2u8; n])));
        HpxMessage::encode(&[Parcel::new(0, args)], 8192)
    }

    #[test]
    fn small_message_fully_piggybacks() {
        let m = msg(64, &[]);
        let plan = plan_message(&m, 7, MAX_HEADER_SIZE, true);
        assert!(plan.parts.is_empty(), "everything rides on the header");
        let info = HeaderInfo::decode(&plan.header);
        assert_eq!(info.tag_base, 7);
        assert_eq!(info.nzc.as_ref().unwrap(), &m.non_zero_copy);
        assert!(!info.has_trans);
        let asm = MessageAssembly::new(&info);
        assert!(asm.is_complete());
        assert_eq!(asm.into_message().decode(), m.decode());
    }

    #[test]
    fn zero_copy_message_piggybacks_nzc_and_trans() {
        let m = msg(64, &[16 * 1024]);
        let plan = plan_message(&m, 9, MAX_HEADER_SIZE, true);
        // Only the zero-copy chunk travels separately.
        assert_eq!(plan.parts.len(), 1);
        assert!(matches!(plan.parts[0].0, PartId::Zc(0)));
        let info = HeaderInfo::decode(&plan.header);
        assert!(info.has_trans);
        assert!(info.trans.is_some());
        assert_eq!(info.zc_count, 1);
        let mut asm = MessageAssembly::new(&info);
        assert!(!asm.is_complete());
        asm.supply(PartId::Zc(0), plan.parts[0].1.clone());
        assert!(asm.is_complete());
        assert_eq!(asm.into_message().decode(), m.decode());
    }

    #[test]
    fn oversized_nzc_travels_separately() {
        let m = msg(8160, &[]); // arg still below the 8192 zero-copy
                                // threshold, but framing pushes the chunk
                                // past the header limit
        let plan = plan_message(&m, 1, MAX_HEADER_SIZE, true);
        assert_eq!(plan.parts.len(), 1);
        assert!(matches!(plan.parts[0].0, PartId::Nzc));
        let info = HeaderInfo::decode(&plan.header);
        assert!(info.nzc.is_none());
        assert_eq!(info.nzc_size as usize, m.non_zero_copy.len());
        let mut asm = MessageAssembly::new(&info);
        asm.supply(PartId::Nzc, plan.parts[0].1.clone());
        assert_eq!(asm.into_message().decode(), m.decode());
    }

    #[test]
    fn original_parcelport_cannot_piggyback_trans() {
        let m = msg(64, &[16 * 1024]);
        let plan = plan_message(&m, 1, ORIGINAL_HEADER_SIZE, false);
        // nzc rides (small), transmission + zc travel separately.
        assert_eq!(plan.parts.len(), 2);
        assert!(matches!(plan.parts[0].0, PartId::Trans));
        assert!(matches!(plan.parts[1].0, PartId::Zc(0)));
        let info = HeaderInfo::decode(&plan.header);
        assert!(info.trans.is_none());
        assert!(info.has_trans);
        let mut asm = MessageAssembly::new(&info);
        for (id, data) in &plan.parts {
            asm.supply(*id, data.clone());
        }
        assert_eq!(asm.into_message().decode(), m.decode());
    }

    #[test]
    fn original_header_overflows_to_separate_nzc() {
        let m = msg(1000, &[]);
        let plan = plan_message(&m, 1, ORIGINAL_HEADER_SIZE, false);
        assert_eq!(plan.parts.len(), 1, "1000B nzc does not fit in 512B header");
        assert!(plan.header.len() <= ORIGINAL_HEADER_SIZE);
    }

    #[test]
    fn tag_offsets_are_distinct() {
        let parts = [PartId::Nzc, PartId::Trans, PartId::Zc(0), PartId::Zc(1), PartId::Zc(7)];
        let offsets: std::collections::HashSet<u64> =
            parts.iter().map(|p| p.tag_offset()).collect();
        assert_eq!(offsets.len(), parts.len());
    }

    #[test]
    #[should_panic(expected = "supplied twice")]
    fn duplicate_part_detected() {
        let m = msg(64, &[16 * 1024]);
        let plan = plan_message(&m, 1, MAX_HEADER_SIZE, true);
        let info = HeaderInfo::decode(&plan.header);
        let mut asm = MessageAssembly::new(&info);
        asm.supply(PartId::Zc(0), plan.parts[0].1.clone());
        asm.supply(PartId::Zc(0), plan.parts[0].1.clone());
    }

    #[test]
    fn multi_zero_copy_ordering() {
        let m = msg(32, &[9000, 10000, 11000]);
        let plan = plan_message(&m, 5, MAX_HEADER_SIZE, true);
        assert_eq!(plan.parts.len(), 3);
        let info = HeaderInfo::decode(&plan.header);
        assert_eq!(info.expected_parts().len(), 3);
        let mut asm = MessageAssembly::new(&info);
        // Supply out of order — assembly is order-independent.
        asm.supply(PartId::Zc(2), plan.parts[2].1.clone());
        asm.supply(PartId::Zc(0), plan.parts[0].1.clone());
        asm.supply(PartId::Zc(1), plan.parts[1].1.clone());
        let out = asm.into_message();
        assert_eq!(out.decode(), m.decode());
    }
}
