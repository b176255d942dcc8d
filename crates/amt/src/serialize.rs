//! HPX-message serialization: the exact anatomy of §2.2.
//!
//! > An HPX message passed to the parcelport layer consists of the
//! > following components: a non-zero-copy chunk containing all the small
//! > arguments of the serialized parcels and some metadata about the
//! > parcels; optionally, multiple zero-copy chunks, each containing a
//! > large argument of the serialized parcels; a transmission chunk
//! > containing the index and length of the arguments. It is only needed
//! > when there is at least one zero-copy chunk.
//!
//! Encoding of the non-zero-copy chunk:
//!
//! ```text
//! u32 parcel_count
//! per parcel:
//!   u32 action id
//!   u32 argument count
//!   per argument:
//!     u8 0  + u32 len + bytes        (inline small argument)
//!     u8 1  + u32 zero-copy index    (reference to a zero-copy chunk)
//! ```
//!
//! The transmission chunk is `u32 count` then `(u32 index, u64 len)` per
//! zero-copy chunk.

use bytes::Bytes;

use crate::codec::{Reader, Writer};
use crate::parcel::Parcel;

/// A serialized HPX message as handed to the parcelport layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HpxMessage {
    /// Small arguments + parcel metadata.
    pub non_zero_copy: Bytes,
    /// One chunk per large argument, in reference order. These are
    /// `Bytes` handles onto the original argument storage — genuinely
    /// zero-copy.
    pub zero_copy: Vec<Bytes>,
    /// Index/length table; `Some` iff `zero_copy` is non-empty.
    pub transmission: Option<Bytes>,
    /// Telemetry flow ids of the parcels aggregated into this message.
    /// Always empty when telemetry is disabled; never serialized — the
    /// receive side re-attaches ids via the out-of-band route registry.
    pub flows: Vec<u64>,
}

impl HpxMessage {
    /// Serialize `parcels` with the given zero-copy serialization
    /// `threshold` (arguments of `len >= threshold` become zero-copy
    /// chunks; HPX default 8192).
    pub fn encode(parcels: &[Parcel], threshold: usize) -> HpxMessage {
        let mut w = Writer::with_capacity(64);
        let mut zero_copy: Vec<Bytes> = Vec::new();
        w.put_u32(u32::try_from(parcels.len()).expect("too many parcels"));
        for p in parcels {
            w.put_u32(p.action);
            w.put_u32(u32::try_from(p.args.len()).expect("too many args"));
            for a in &p.args {
                if a.len() >= threshold {
                    w.put_u8(1);
                    w.put_u32(u32::try_from(zero_copy.len()).expect("too many chunks"));
                    zero_copy.push(a.clone());
                } else {
                    w.put_u8(0);
                    w.put_bytes(a);
                }
            }
        }
        let transmission = if zero_copy.is_empty() {
            None
        } else {
            let mut tw = Writer::with_capacity(4 + 12 * zero_copy.len());
            tw.put_u32(zero_copy.len() as u32);
            for (i, c) in zero_copy.iter().enumerate() {
                tw.put_u32(i as u32);
                tw.put_u64(c.len() as u64);
            }
            Some(tw.finish())
        };
        HpxMessage { non_zero_copy: w.finish(), zero_copy, transmission, flows: Vec::new() }
    }

    /// Deserialize back into parcels. The remote locality can decode
    /// solely from the non-zero-copy chunk when there are no zero-copy
    /// chunks; otherwise the transmission chunk is validated against the
    /// received zero-copy chunks.
    pub fn decode(&self) -> Vec<Parcel> {
        if let Some(t) = &self.transmission {
            let mut tr = Reader::new(t);
            let n = tr.get_u32() as usize;
            assert_eq!(n, self.zero_copy.len(), "transmission chunk count mismatch");
            for i in 0..n {
                assert_eq!(tr.get_u32() as usize, i, "transmission chunk index mismatch");
                assert_eq!(
                    tr.get_u64() as usize,
                    self.zero_copy[i].len(),
                    "transmission chunk length mismatch"
                );
            }
        } else {
            assert!(self.zero_copy.is_empty(), "zero-copy chunks without transmission chunk");
        }
        let mut r = Reader::new(&self.non_zero_copy);
        let count = r.get_u32() as usize;
        let mut parcels = Vec::with_capacity(count);
        for _ in 0..count {
            let action = r.get_u32();
            let argc = r.get_u32() as usize;
            let mut args = Vec::with_capacity(argc);
            for _ in 0..argc {
                match r.get_u8() {
                    0 => {
                        // Zero-copy: the argument is a sub-view of the
                        // non-zero-copy chunk (a refcount bump), not a
                        // fresh copy — the receive path stays
                        // allocation-free per small argument.
                        let len = r.get_u32() as usize;
                        let start = r.position();
                        let _ = r.get_raw(len);
                        args.push(self.non_zero_copy.slice(start..start + len));
                    }
                    1 => {
                        let idx = r.get_u32() as usize;
                        args.push(self.zero_copy[idx].clone());
                    }
                    k => panic!("bad argument kind {k}"),
                }
            }
            parcels.push(Parcel { action, args });
        }
        assert!(r.is_exhausted(), "trailing bytes in non-zero-copy chunk");
        parcels
    }

    /// Total bytes across all chunks (wire payload accounting).
    pub fn total_bytes(&self) -> usize {
        self.non_zero_copy.len()
            + self.zero_copy.iter().map(|c| c.len()).sum::<usize>()
            + self.transmission.as_ref().map_or(0, |t| t.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parcel(action: u32, sizes: &[usize]) -> Parcel {
        Parcel::new(
            action,
            sizes
                .iter()
                .map(|&n| Bytes::from((0..n).map(|i| i as u8).collect::<Vec<_>>()))
                .collect(),
        )
    }

    #[test]
    fn small_only_message_has_no_transmission_chunk() {
        let msg = HpxMessage::encode(&[parcel(1, &[8, 16])], 8192);
        assert!(msg.transmission.is_none());
        assert!(msg.zero_copy.is_empty());
        assert_eq!(msg.decode(), vec![parcel(1, &[8, 16])]);
    }

    #[test]
    fn large_args_become_zero_copy_chunks() {
        let msg = HpxMessage::encode(&[parcel(2, &[8, 16384, 9000])], 8192);
        assert_eq!(msg.zero_copy.len(), 2);
        assert!(msg.transmission.is_some());
        assert_eq!(msg.decode(), vec![parcel(2, &[8, 16384, 9000])]);
    }

    #[test]
    fn zero_copy_is_actually_zero_copy() {
        let big = Bytes::from(vec![9u8; 10000]);
        let p = Parcel::new(0, vec![big.clone()]);
        let msg = HpxMessage::encode(&[p], 8192);
        assert_eq!(msg.zero_copy[0].as_ptr(), big.as_ptr(), "no copy of large args");
    }

    #[test]
    fn multiple_parcels_aggregate() {
        let ps = vec![parcel(1, &[4]), parcel(2, &[]), parcel(3, &[10000, 3])];
        let msg = HpxMessage::encode(&ps, 8192);
        assert_eq!(msg.decode(), ps);
    }

    #[test]
    fn threshold_exact_boundary() {
        let msg = HpxMessage::encode(&[parcel(0, &[8192])], 8192);
        assert_eq!(msg.zero_copy.len(), 1, ">= threshold goes zero-copy");
        let msg2 = HpxMessage::encode(&[parcel(0, &[8191])], 8192);
        assert!(msg2.zero_copy.is_empty());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn corrupted_transmission_chunk_detected() {
        let mut msg = HpxMessage::encode(&[parcel(0, &[9000])], 8192);
        msg.zero_copy[0] = Bytes::from(vec![0u8; 42]);
        msg.decode();
    }

    #[test]
    fn total_bytes_accounts_all_chunks() {
        let msg = HpxMessage::encode(&[parcel(0, &[8, 9000])], 8192);
        assert_eq!(
            msg.total_bytes(),
            msg.non_zero_copy.len() + 9000 + msg.transmission.as_ref().unwrap().len()
        );
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        fn arb_parcel() -> impl Strategy<Value = Parcel> {
            (
                0u32..1000,
                proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..300), 0..6),
            )
                .prop_map(|(a, args)| Parcel::new(a, args.into_iter().map(Bytes::from).collect()))
        }

        proptest! {
            #[test]
            fn encode_decode_roundtrips(
                parcels in proptest::collection::vec(arb_parcel(), 0..8),
                threshold in 1usize..200,
            ) {
                let msg = HpxMessage::encode(&parcels, threshold);
                prop_assert_eq!(msg.decode(), parcels);
            }

            #[test]
            fn transmission_iff_zero_copy(
                parcels in proptest::collection::vec(arb_parcel(), 0..8),
                threshold in 1usize..200,
            ) {
                let msg = HpxMessage::encode(&parcels, threshold);
                prop_assert_eq!(msg.transmission.is_some(), !msg.zero_copy.is_empty());
                let expected: usize = parcels
                    .iter()
                    .map(|p| p.zero_copy_args(threshold).count())
                    .sum();
                prop_assert_eq!(msg.zero_copy.len(), expected);
            }
        }
    }
}
