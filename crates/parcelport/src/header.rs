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
//!
//! A small message rides entirely on its header. The send side builds
//! such a header in place, in the chunk's own buffer, when nothing else
//! holds that buffer ([`plan_message`]), and the receive side keeps the
//! case cheap too: [`MessageAssembly::new`] takes the
//! [`HeaderInfo`] by value, moving the piggybacked chunks in, and counts
//! the missing parts without building a list. A parcelport checks
//! [`HeaderInfo::is_complete`] first: a complete header becomes its
//! message by [`HeaderInfo::into_message`], and only a multi-part message
//! gets an assembly, whose [`MessageAssembly::next_part`] names the part
//! to receive next.

use amt::codec::{Reader, Writer};
use amt::serialize::{HpxMessage, HEADER_ROOM};
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
// `HpxMessage::encode` leaves exactly this much room in front of a chunk.
const _: () = assert!(FIXED_FIELDS == HEADER_ROOM);

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
///
/// When the non-zero-copy chunk piggybacks alone and `msg` holds the only
/// handle on its buffer, the header is built in place: the fixed fields
/// go into the room [`HpxMessage::encode`] left in front of the chunk,
/// and the header is that buffer, with no allocation or copy (the §3.2.1
/// analogue). `msg.non_zero_copy` then views the header's tail, with the
/// same bytes as before. Otherwise the header is a fresh copy; both ways
/// give the same bytes.
pub fn plan_message(
    msg: &mut HpxMessage,
    tag_base: u64,
    max_header: usize,
    piggyback_trans: bool,
) -> MessagePlan {
    let nzc_len = msg.non_zero_copy.len();
    let trans_len = msg.transmission.as_ref().map(Bytes::len);
    let piggy_nzc = FIXED_FIELDS + nzc_len <= max_header;
    let piggy_trans = piggyback_trans
        && piggy_nzc
        && trans_len.is_some_and(|t| FIXED_FIELDS + nzc_len + t <= max_header);

    let mut flags = 0u8;
    if piggy_nzc {
        flags |= FLAG_PIGGY_NZC;
    }
    if piggy_trans {
        flags |= FLAG_PIGGY_TRANS;
    }
    if trans_len.is_some() {
        flags |= FLAG_HAS_TRANS;
    }

    let mut fixed = [0u8; FIXED_FIELDS];
    fixed[..8].copy_from_slice(&tag_base.to_le_bytes());
    fixed[8..12].copy_from_slice(&(msg.zero_copy.len() as u32).to_le_bytes());
    fixed[12] = flags;
    fixed[13..17].copy_from_slice(&(nzc_len as u32).to_le_bytes());
    fixed[17..].copy_from_slice(&(trans_len.unwrap_or(0) as u32).to_le_bytes());

    let header = if piggy_nzc && !piggy_trans && msg.non_zero_copy.try_prepend(&fixed) {
        let header = msg.non_zero_copy.clone();
        msg.non_zero_copy.advance(FIXED_FIELDS);
        header
    } else {
        let mut w = Writer::new();
        w.put_raw(&fixed);
        if piggy_nzc {
            w.put_raw(&msg.non_zero_copy);
        }
        if piggy_trans {
            w.put_raw(msg.transmission.as_ref().expect("piggy_trans implies trans"));
        }
        w.finish()
    };
    debug_assert!(header.len() <= max_header, "header exceeded its limit");

    let mut parts = Vec::new();
    if !piggy_nzc {
        parts.push((PartId::Nzc, msg.non_zero_copy.clone()));
    }
    if let Some(t) = &msg.transmission {
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
    pub fn expected_parts(&self) -> impl Iterator<Item = PartId> {
        let nzc = self.nzc.is_none().then_some(PartId::Nzc);
        let trans = (self.has_trans && self.trans.is_none()).then_some(PartId::Trans);
        nzc.into_iter().chain(trans).chain((0..self.zc_count).map(PartId::Zc))
    }

    /// Whether the header carries the whole message: no part follows it.
    pub fn is_complete(&self) -> bool {
        self.expected_parts().next().is_none()
    }

    /// The message a [complete](HeaderInfo::is_complete) header carries:
    /// its piggybacked chunk, moved out. Panics if a part follows.
    ///
    /// A header-only message is the common case, and this skips building
    /// and unpacking a [`MessageAssembly`] for it, which allocates
    /// nothing but costs about 40–50 ns more per header.
    pub fn into_message(self) -> HpxMessage {
        assert!(self.is_complete(), "header has follow-up parts");
        HpxMessage {
            non_zero_copy: self.nzc.expect("complete header carries its chunk"),
            zero_copy: Vec::new(),
            transmission: self.trans,
            flows: Vec::new(),
        }
    }
}

/// Receive-side assembly of an HPX message from its parts, and the
/// tracker of which part comes next: the parcelports receive the parts
/// one at a time, in wire order.
#[derive(Debug)]
pub struct MessageAssembly {
    nzc: Option<Bytes>,
    trans: Option<Bytes>,
    zc: Vec<Option<Bytes>>,
    missing: usize,
    has_trans: bool,
    /// The first missing part in wire order; every part before it has
    /// arrived.
    next: Option<PartId>,
}

impl MessageAssembly {
    /// Start assembling a multi-part message from its decoded header; the
    /// piggybacked chunks move in.
    pub fn new(info: HeaderInfo) -> MessageAssembly {
        let next = info.expected_parts().next();
        let missing = info.expected_parts().count();
        MessageAssembly {
            nzc: info.nzc,
            trans: info.trans,
            zc: vec![None; info.zc_count as usize],
            missing,
            has_trans: info.has_trans,
            next,
        }
    }

    /// The next missing part in wire order (non-zero-copy chunk,
    /// transmission chunk, then zero-copy chunks `0..n`); `None` once
    /// complete.
    pub fn next_part(&self) -> Option<PartId> {
        self.next
    }

    /// Supply one received part, in any order.
    pub fn supply(&mut self, part: PartId, data: Bytes) {
        let slot = self.slot(part);
        assert!(slot.is_none(), "part {part:?} supplied twice");
        *slot = Some(data);
        self.missing -= 1;
        if self.next == Some(part) {
            // Move the cursor past the parts that already arrived; for
            // parts supplied in wire order this is one step.
            let mut next = part;
            self.next = loop {
                if self.missing == 0 {
                    break None;
                }
                next = match next {
                    PartId::Nzc if self.has_trans => PartId::Trans,
                    PartId::Nzc | PartId::Trans => PartId::Zc(0),
                    PartId::Zc(i) => PartId::Zc(i + 1),
                };
                if self.slot(next).is_none() {
                    break Some(next);
                }
            };
        }
    }

    fn slot(&mut self, part: PartId) -> &mut Option<Bytes> {
        match part {
            PartId::Nzc => &mut self.nzc,
            PartId::Trans => &mut self.trans,
            PartId::Zc(i) => &mut self.zc[i as usize],
        }
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
        let mut m = msg(64, &[]);
        let plan = plan_message(&mut m, 7, MAX_HEADER_SIZE, true);
        assert!(plan.parts.is_empty(), "everything rides on the header");
        let info = HeaderInfo::decode(&plan.header);
        assert_eq!(info.tag_base, 7);
        assert_eq!(info.nzc.as_ref().unwrap(), &m.non_zero_copy);
        assert!(!info.has_trans);
        assert!(info.is_complete());
        assert_eq!(info.into_message(), m);
    }

    #[test]
    fn zero_copy_message_piggybacks_nzc_and_trans() {
        let mut m = msg(64, &[16 * 1024]);
        let plan = plan_message(&mut m, 9, MAX_HEADER_SIZE, true);
        // Only the zero-copy chunk travels separately.
        assert_eq!(plan.parts.len(), 1);
        assert!(matches!(plan.parts[0].0, PartId::Zc(0)));
        let info = HeaderInfo::decode(&plan.header);
        assert!(info.has_trans);
        assert!(info.trans.is_some());
        assert_eq!(info.zc_count, 1);
        assert!(!info.is_complete());
        let mut asm = MessageAssembly::new(info);
        assert!(!asm.is_complete());
        asm.supply(PartId::Zc(0), plan.parts[0].1.clone());
        assert!(asm.is_complete());
        assert_eq!(asm.into_message().decode(), m.decode());
    }

    #[test]
    fn oversized_nzc_travels_separately() {
        let mut m = msg(8160, &[]); // arg still below the 8192 zero-copy
                                    // threshold, but framing pushes the chunk
                                    // past the header limit
        let plan = plan_message(&mut m, 1, MAX_HEADER_SIZE, true);
        assert_eq!(plan.parts.len(), 1);
        assert!(matches!(plan.parts[0].0, PartId::Nzc));
        let info = HeaderInfo::decode(&plan.header);
        assert!(info.nzc.is_none());
        assert_eq!(info.nzc_size as usize, m.non_zero_copy.len());
        let mut asm = MessageAssembly::new(info);
        asm.supply(PartId::Nzc, plan.parts[0].1.clone());
        assert_eq!(asm.into_message().decode(), m.decode());
    }

    #[test]
    fn original_parcelport_cannot_piggyback_trans() {
        let mut m = msg(64, &[16 * 1024]);
        let plan = plan_message(&mut m, 1, ORIGINAL_HEADER_SIZE, false);
        // nzc rides (small), transmission + zc travel separately.
        assert_eq!(plan.parts.len(), 2);
        assert!(matches!(plan.parts[0].0, PartId::Trans));
        assert!(matches!(plan.parts[1].0, PartId::Zc(0)));
        let info = HeaderInfo::decode(&plan.header);
        assert!(info.trans.is_none());
        assert!(info.has_trans);
        let mut asm = MessageAssembly::new(info);
        for (id, data) in &plan.parts {
            asm.supply(*id, data.clone());
        }
        assert_eq!(asm.into_message().decode(), m.decode());
    }

    /// Supplied in wire order, the parts are exactly the ones the cursor
    /// names, one after another.
    #[test]
    fn next_part_follows_wire_order() {
        let cases: [(usize, &[usize], usize, bool); 3] = [
            (8160, &[16 * 1024], MAX_HEADER_SIZE, true), // nzc, trans, zc 0
            (64, &[16 * 1024], ORIGINAL_HEADER_SIZE, false), // trans, zc 0
            (32, &[9000, 10000], MAX_HEADER_SIZE, true), // zc 0, zc 1
        ];
        for (small, large, max_header, piggyback_trans) in cases {
            let mut m = msg(small, large);
            let plan = plan_message(&mut m, 1, max_header, piggyback_trans);
            let mut asm = MessageAssembly::new(HeaderInfo::decode(&plan.header));
            for (id, data) in &plan.parts {
                assert_eq!(asm.next_part(), Some(*id), "case {small}/{max_header}");
                asm.supply(*id, data.clone());
            }
            assert_eq!(asm.next_part(), None);
            assert_eq!(asm.into_message().decode(), m.decode());
        }
    }

    #[test]
    fn original_header_overflows_to_separate_nzc() {
        let mut m = msg(1000, &[]);
        let plan = plan_message(&mut m, 1, ORIGINAL_HEADER_SIZE, false);
        assert_eq!(plan.parts.len(), 1, "1000B nzc does not fit in 512B header");
        assert!(plan.header.len() <= ORIGINAL_HEADER_SIZE);
    }

    /// A header built in place in the chunk's buffer equals the one
    /// copied while a clone of the chunk is held, byte for byte, in every
    /// planning case; the held clone is left as it was.
    #[test]
    fn in_place_and_copied_headers_match() {
        let cases: [(usize, &[usize], usize, bool, bool); 4] = [
            (64, &[], MAX_HEADER_SIZE, true, true),
            // The original protocol piggybacks the chunk alone.
            (64, &[16 * 1024], ORIGINAL_HEADER_SIZE, false, true),
            // The transmission chunk rides too, or the chunk travels apart.
            (64, &[16 * 1024], MAX_HEADER_SIZE, true, false),
            (1000, &[], ORIGINAL_HEADER_SIZE, false, false),
        ];
        for (small, large, max_header, piggyback_trans, in_place) in cases {
            let mut sole = msg(small, large);
            let chunk_at = sole.non_zero_copy.as_ptr();
            let built = plan_message(&mut sole, 3, max_header, piggyback_trans);
            let mut shared = msg(small, large);
            let held = shared.non_zero_copy.clone();
            let copied = plan_message(&mut shared, 3, max_header, piggyback_trans);
            assert_eq!(built.header, copied.header, "case {small}/{max_header}");
            assert_eq!(built.parts, copied.parts);
            assert_eq!(built.header[FIXED_FIELDS..].as_ptr() == chunk_at, in_place);
            assert_eq!(sole.non_zero_copy.as_ptr(), chunk_at, "the chunk did not move");
            assert_eq!(sole.non_zero_copy, held, "the chunk still reads the same");
            assert_eq!(shared.non_zero_copy.as_ptr(), held.as_ptr(), "the clone kept its view");
            assert_eq!(shared.non_zero_copy, held);
        }
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
        let mut m = msg(64, &[16 * 1024]);
        let plan = plan_message(&mut m, 1, MAX_HEADER_SIZE, true);
        let info = HeaderInfo::decode(&plan.header);
        let mut asm = MessageAssembly::new(info);
        asm.supply(PartId::Zc(0), plan.parts[0].1.clone());
        asm.supply(PartId::Zc(0), plan.parts[0].1.clone());
    }

    #[test]
    fn multi_zero_copy_ordering() {
        let mut m = msg(32, &[9000, 10000, 11000]);
        let plan = plan_message(&mut m, 5, MAX_HEADER_SIZE, true);
        assert_eq!(plan.parts.len(), 3);
        let info = HeaderInfo::decode(&plan.header);
        let expected: Vec<PartId> = info.expected_parts().collect();
        assert_eq!(expected, [PartId::Zc(0), PartId::Zc(1), PartId::Zc(2)]);
        let mut asm = MessageAssembly::new(info);
        // Supply out of order — assembly is order-independent, and the
        // cursor names the first part still missing.
        assert_eq!(asm.next_part(), Some(PartId::Zc(0)));
        asm.supply(PartId::Zc(2), plan.parts[2].1.clone());
        assert_eq!(asm.next_part(), Some(PartId::Zc(0)));
        asm.supply(PartId::Zc(0), plan.parts[0].1.clone());
        assert_eq!(asm.next_part(), Some(PartId::Zc(1)));
        asm.supply(PartId::Zc(1), plan.parts[1].1.clone());
        assert_eq!(asm.next_part(), None);
        let out = asm.into_message();
        assert_eq!(out.decode(), m.decode());
    }
}
