//! The TCP parcelport — HPX's original backend (§1: "Prior to this
//! project, it had two communication backends (parcelports): TCP and
//! MPI").
//!
//! Modeled as kernel-socket byte streams over the same wire:
//!
//! * one stream per destination; every HPX message is framed
//!   (length-prefixed) and **fully copied** into the stream — TCP has no
//!   zero-copy path, so large arguments pay user→kernel and kernel→user
//!   copies on both sides;
//! * writes cost a syscall and are segmented into ≤64 KiB kernel
//!   packets, each charged kernel-stack time on both ends;
//! * the receive side reassembles the stream and parses frames from
//!   background work.
//!
//! The point of carrying this backend is the baseline ordering the paper
//! implies: `tcp` ≪ `mpi` < `lci` — reproduced in
//! `bench/src/bin/tcp_comparison.rs`.

use std::collections::{BTreeMap, VecDeque};

use amt::codec::{Frame, FrameWriter, Reader};
use amt::{BgOutcome, DeliverFn, HpxMessage, OnSent, Parcelport};
use bytes::Bytes;
use netsim::{Fabric, NodeId, Packet, PollOutcome};
use simcore::{CostModel, Sim, SimResource, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

/// Kernel segment size (a large-MTU / GSO segment).
const SEGMENT: usize = 64 * 1024;
/// Packet kind used on the simulated wire.
const KIND_STREAM: u8 = 42;

/// Per-destination outgoing stream state.
struct OutStream {
    /// Byte pieces queued but not yet segmented onto the wire — a rope,
    /// so large frame pieces ride through as refcounted views instead of
    /// being copied into one flat buffer.
    queue: VecDeque<Bytes>,
    /// Total bytes across `queue`.
    queued: usize,
    /// The kernel socket send path: one ordered stream — all writers to
    /// this destination serialize through the socket lock.
    sock: SimResource,
}

impl OutStream {
    /// Take exactly `seg_len` bytes off the front of the rope. A window
    /// that falls inside one piece is a zero-copy sub-view; a window
    /// crossing piece boundaries is merged with a copy. Either way the
    /// byte stream is identical to flat-buffer segmentation.
    fn take_segment(&mut self, seg_len: usize) -> Bytes {
        debug_assert!(seg_len <= self.queued);
        self.queued -= seg_len;
        let front = self.queue.front_mut().expect("rope non-empty");
        if front.len() >= seg_len {
            let seg = front.slice(0..seg_len);
            if front.len() == seg_len {
                self.queue.pop_front();
            } else {
                *front = front.slice(seg_len..);
            }
            return seg;
        }
        let mut v = Vec::with_capacity(seg_len);
        while v.len() < seg_len {
            let piece = self.queue.front_mut().expect("rope non-empty");
            let need = seg_len - v.len();
            if piece.len() <= need {
                v.extend_from_slice(piece);
                self.queue.pop_front();
            } else {
                v.extend_from_slice(&piece[..need]);
                *piece = piece.slice(need..);
            }
        }
        Bytes::from(v)
    }
}

/// Per-source incoming reassembly state.
struct InStream {
    buf: Vec<u8>,
    /// The kernel socket receive path: a single reader per stream.
    sock: SimResource,
}

/// The TCP parcelport.
pub struct TcpParcelport {
    rank: NodeId,
    fabric: Rc<RefCell<Fabric>>,
    cost: Rc<CostModel>,
    deliver: Option<DeliverFn>,
    /// Streams by peer rank, in rank order: background work drains them
    /// in that order, the same in every process.
    out: BTreeMap<NodeId, OutStream>,
    inc: BTreeMap<NodeId, InStream>,
    name: String,
}

impl TcpParcelport {
    /// Create the parcelport for one locality.
    pub fn new(
        rank: NodeId,
        fabric: Rc<RefCell<Fabric>>,
        cost: Rc<CostModel>,
        send_immediate: bool,
    ) -> Self {
        TcpParcelport {
            rank,
            fabric,
            cost,
            deliver: None,
            out: BTreeMap::new(),
            inc: BTreeMap::new(),
            name: format!("tcp{}", if send_immediate { "_i" } else { "" }),
        }
    }

    /// Frame one HPX message into the stream encoding:
    /// `u32 body_len, u32 nzc_len, nzc, u32 zc_count, (u32 len, bytes)*,
    /// u8 has_trans, [u32 trans_len, trans]`.
    ///
    /// Chunk payloads at or above the zero-copy serialization threshold
    /// are carried as shared pieces of the returned [`Frame`] — a
    /// refcount bump on the message's storage — instead of being copied
    /// through the writer. The encoded byte stream is unchanged.
    fn frame(msg: &HpxMessage) -> Frame {
        // The body length is fully determined by the chunk lengths, so
        // compute it up front and emit the prefix before the body —
        // avoiding the old double-buffered prefix-then-copy pass.
        let body_len = 4
            + msg.non_zero_copy.len()
            + 4
            + msg.zero_copy.iter().map(|c| 4 + c.len()).sum::<usize>()
            + 1
            + msg.transmission.as_ref().map_or(0, |t| 4 + t.len());
        let mut w = FrameWriter::with_capacity(64 + msg.total_bytes().min(4096));
        w.put_u32(body_len as u32);
        w.put_shared(&msg.non_zero_copy);
        w.put_u32(msg.zero_copy.len() as u32);
        for c in &msg.zero_copy {
            w.put_shared(c);
        }
        match &msg.transmission {
            Some(t) => {
                w.put_u8(1);
                w.put_shared(t);
            }
            None => w.put_u8(0),
        }
        let f = w.finish();
        debug_assert_eq!(f.len(), 4 + body_len);
        f
    }

    /// Try to parse one complete frame from `buf`; returns the message
    /// and the bytes consumed.
    fn parse_frame(buf: &[u8]) -> Option<(HpxMessage, usize)> {
        if buf.len() < 4 {
            return None;
        }
        let body_len = u32::from_le_bytes(buf[..4].try_into().expect("4 bytes")) as usize;
        if buf.len() < 4 + body_len {
            return None;
        }
        let mut r = Reader::new(&buf[4..4 + body_len]);
        let nzc = Bytes::copy_from_slice(r.get_bytes());
        let zc_count = r.get_u32() as usize;
        let mut zc = Vec::with_capacity(zc_count);
        for _ in 0..zc_count {
            // Copy out of the stream buffer (a real recv-side copy).
            zc.push(Bytes::copy_from_slice(r.get_bytes()));
        }
        let transmission =
            if r.get_u8() == 1 { Some(Bytes::copy_from_slice(r.get_bytes())) } else { None };
        assert!(r.is_exhausted(), "trailing bytes in TCP frame");
        Some((
            HpxMessage { non_zero_copy: nzc, zero_copy: zc, transmission, flows: Vec::new() },
            4 + body_len,
        ))
    }

    /// Segment and send everything queued for `dest`.
    fn flush(&mut self, sim: &mut Sim, core: usize, dest: NodeId, mut t: SimTime) -> SimTime {
        while self.out.get(&dest).expect("stream exists").queued > 0 {
            let stream = self.out.get_mut(&dest).expect("stream exists");
            let seg_len = stream.queued.min(SEGMENT);
            let seg = stream.take_segment(seg_len);
            // Syscall + kernel copy per segment. The *modeled* TCP stack
            // still pays the copy even when the simulator hands the
            // segment over as a shared view — TCP has no zero-copy path.
            t = t + self.cost.tcp_syscall + self.cost.memcpy(seg_len);
            let out = self.fabric.borrow_mut().send(
                sim,
                core,
                t,
                Packet {
                    src: self.rank,
                    dst: dest,
                    ctx: 0,
                    kind: KIND_STREAM,
                    tag: 0,
                    imm: 0,
                    data: seg,
                },
            );
            t = t.max(out.cpu_done) + self.cost.tcp_kernel;
            sim.stats.bump("tcp_pp.segments_sent");
        }
        t
    }
}

impl Parcelport for TcpParcelport {
    fn put_message(
        &mut self,
        sim: &mut Sim,
        core: usize,
        at: SimTime,
        dest: usize,
        msg: HpxMessage,
        on_sent: Option<OnSent>,
    ) -> SimTime {
        let frame = Self::frame(&msg);
        let transfer = self.cost.cacheline_transfer;
        let stream = self.out.entry(dest).or_insert_with(|| OutStream {
            queue: VecDeque::new(),
            queued: 0,
            sock: SimResource::new("tcp.sock_tx", transfer),
        });
        // Full user-space copy into the socket buffer — including the
        // "zero-copy" chunks, which TCP cannot avoid copying — performed
        // under the socket send lock (one ordered stream per peer). The
        // simulated cost charges the whole frame; the simulator itself
        // only copies the coalesced pieces and shares the large chunks.
        let t0 = at.max(sim.now());
        let copy = self.cost.memcpy(frame.len()) + self.cost.tcp_syscall;
        let mut t = stream.sock.access(t0, core, copy);
        sim.stats.add("tcp_pp.zc_bytes_saved", frame.shared_bytes() as u64);
        stream.queued += frame.len();
        stream.queue.extend(frame.into_pieces());
        t = self.flush(sim, core, dest, t);
        sim.stats.bump("tcp_pp.messages_posted");
        if let Some(cb) = on_sent {
            sim.schedule_once_at(t, cb, core as u64);
        }
        t
    }

    fn background_work(&mut self, sim: &mut Sim, core: usize) -> BgOutcome {
        let mut t = sim.now();
        let mut did_work = false;
        let mut next_arrival = None;
        for _ in 0..8 {
            let outcome = self.fabric.borrow_mut().poll(sim, core, self.rank);
            match outcome {
                PollOutcome::Empty { cpu_done, next_arrival: na } => {
                    t = t.max(cpu_done);
                    next_arrival = na;
                    break;
                }
                PollOutcome::Packet { pkt, cpu_done, .. } => {
                    let transfer = self.cost.cacheline_transfer;
                    let stream = self.inc.entry(pkt.src).or_insert_with(|| InStream {
                        buf: Vec::new(),
                        sock: SimResource::new("tcp.sock_rx", transfer),
                    });
                    // Kernel protocol processing + copy into the stream
                    // buffer, serialized per stream (single reader).
                    let work = self.cost.tcp_kernel + self.cost.memcpy(pkt.len());
                    t = stream.sock.access(t.max(cpu_done), core, work);
                    stream.buf.extend_from_slice(&pkt.data);
                    did_work = true;
                }
            }
        }
        // Parse every complete frame in every stream, by source rank.
        let srcs: Vec<NodeId> = self.inc.keys().copied().collect();
        for src in srcs {
            loop {
                let parsed = {
                    let stream = self.inc.get_mut(&src).expect("stream exists");
                    Self::parse_frame(&stream.buf)
                };
                match parsed {
                    Some((msg, consumed)) => {
                        let stream = self.inc.get_mut(&src).expect("stream exists");
                        stream.buf.drain(..consumed);
                        let work = self.cost.tcp_syscall + self.cost.memcpy(consumed);
                        t = stream.sock.access(t, core, work);
                        sim.stats.bump("tcp_pp.messages_received");
                        did_work = true;
                        if let Some(d) = self.deliver.clone() {
                            d(sim, core, t, src, msg);
                        }
                    }
                    None => break,
                }
            }
        }
        BgOutcome {
            did_work,
            cpu_done: t,
            retry_at: next_arrival,
            wake_workers: false,
            completions: 0,
        }
    }

    fn set_deliver(&mut self, deliver: DeliverFn) {
        self.deliver = Some(deliver);
    }

    fn config_name(&self) -> String {
        self.name.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amt::parcel::Parcel;

    fn msg(sizes: &[usize]) -> HpxMessage {
        let args: Vec<Bytes> = sizes.iter().map(|&n| Bytes::from(vec![7u8; n])).collect();
        HpxMessage::encode(&[Parcel::new(1, args)], 8192)
    }

    #[test]
    fn frame_roundtrip_small() {
        let m = msg(&[32, 100]);
        let f = TcpParcelport::frame(&m);
        // Small chunks coalesce: no shared pieces.
        assert_eq!(f.shared_bytes(), 0);
        let flat = f.to_bytes();
        let (out, consumed) = TcpParcelport::parse_frame(&flat).expect("complete frame");
        assert_eq!(consumed, flat.len());
        assert_eq!(out.decode(), m.decode());
    }

    #[test]
    fn frame_roundtrip_zero_copy() {
        let m = msg(&[32, 20_000, 9_000]);
        let f = TcpParcelport::frame(&m);
        // Both large chunks ride along by reference.
        assert_eq!(f.shared_bytes(), 20_000 + 9_000);
        let flat = f.to_bytes();
        let (out, _) = TcpParcelport::parse_frame(&flat).expect("complete frame");
        assert_eq!(out.decode(), m.decode());
        assert_eq!(out.zero_copy.len(), 2);
    }

    #[test]
    fn frame_rope_matches_flat_writer_encoding() {
        // The rope framing must produce the byte stream the old
        // flat-buffer writer produced: prefix + chunks in order.
        let m = msg(&[64, 9_000]);
        let flat = TcpParcelport::frame(&m).to_bytes();
        let mut w = amt::codec::Writer::new();
        w.put_bytes(&m.non_zero_copy);
        w.put_u32(m.zero_copy.len() as u32);
        for c in &m.zero_copy {
            w.put_bytes(c);
        }
        match &m.transmission {
            Some(t) => {
                w.put_u8(1);
                w.put_bytes(t);
            }
            None => w.put_u8(0),
        }
        let body = w.finish();
        let mut framed = amt::codec::Writer::new();
        framed.put_u32(body.len() as u32);
        framed.put_raw(&body);
        assert_eq!(&flat[..], &framed.finish()[..]);
    }

    #[test]
    fn partial_frame_waits() {
        let m = msg(&[512]);
        let f = TcpParcelport::frame(&m).to_bytes();
        assert!(TcpParcelport::parse_frame(&f[..f.len() - 1]).is_none());
        assert!(TcpParcelport::parse_frame(&f[..3]).is_none());
    }

    #[test]
    fn two_frames_back_to_back() {
        let a = TcpParcelport::frame(&msg(&[8])).to_bytes();
        let b = TcpParcelport::frame(&msg(&[16])).to_bytes();
        let mut buf = a.to_vec();
        buf.extend_from_slice(&b);
        let (m1, c1) = TcpParcelport::parse_frame(&buf).expect("first");
        assert_eq!(m1.decode()[0].args[0].len(), 8);
        let (m2, c2) = TcpParcelport::parse_frame(&buf[c1..]).expect("second");
        assert_eq!(m2.decode()[0].args[0].len(), 16);
        assert_eq!(c1 + c2, buf.len());
    }

    #[test]
    fn take_segment_reassembles_rope_exactly() {
        let pieces: Vec<Bytes> = vec![
            Bytes::from(vec![1u8; 3]),
            Bytes::from(vec![2u8; 10]),
            Bytes::from(vec![3u8; 1]),
            Bytes::from(vec![4u8; 7]),
        ];
        let flat: Vec<u8> = pieces.iter().flat_map(|p| p.to_vec()).collect();
        let mut out = OutStream {
            queue: pieces.into_iter().collect(),
            queued: flat.len(),
            sock: SimResource::new("t", 0),
        };
        // Windows chosen to hit: inside-one-piece, piece-exact, and
        // boundary-crossing merge.
        let mut got = Vec::new();
        for w in [2usize, 1, 10, 5, 3] {
            got.extend_from_slice(&out.take_segment(w));
        }
        assert_eq!(out.queued, 0);
        assert!(out.queue.is_empty());
        assert_eq!(got, flat);
    }
}
