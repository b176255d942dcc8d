//! Minimal binary codec used for HPX-message framing and action arguments.
//!
//! Hand-written (rather than pulling in a serde format) because the byte
//! layout of the HPX message — non-zero-copy chunk, zero-copy chunks,
//! transmission chunk — is itself the object of study in the paper; we
//! want the chunk boundaries under our explicit control.
//!
//! A [`Writer`] assembles its output in place, on the stack, and moves to
//! a growable `Vec` only when it outgrows that. [`Writer::finish`] copies
//! the written bytes into one allocation that holds both the `Bytes`
//! refcounts and the payload. Encoding a parcel's chunk or a header
//! therefore costs one heap allocation, not a growable buffer plus a
//! shared handle.

use bytes::{BufMut, Bytes, BytesMut};

/// Bytes a [`Writer`] holds in place. Every chunk and header the five
/// hostbench workloads encode fits; a longer output is rare.
const INLINE: usize = 128;

/// Streaming writer: in place up to `INLINE` bytes, then over a `Vec`.
#[derive(Debug)]
pub struct Writer {
    head: [u8; INLINE],
    len: usize,
    /// Everything written, once `len` exceeds `INLINE`.
    spill: Vec<u8>,
}

impl Default for Writer {
    fn default() -> Self {
        Writer::new()
    }
}

impl Writer {
    /// Create an empty writer. It needs no capacity: it writes in place
    /// first.
    pub fn new() -> Self {
        Writer { head: [0; INLINE], len: 0, spill: Vec::new() }
    }

    /// Append a `u8`.
    #[inline]
    pub fn put_u8(&mut self, x: u8) {
        self.put_raw(&[x]);
    }

    /// Append a little-endian `u32`.
    #[inline]
    pub fn put_u32(&mut self, x: u32) {
        self.put_raw(&x.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    #[inline]
    pub fn put_u64(&mut self, x: u64) {
        self.put_raw(&x.to_le_bytes());
    }

    /// Append a little-endian `f64`.
    #[inline]
    pub fn put_f64(&mut self, x: f64) {
        self.put_raw(&x.to_le_bytes());
    }

    /// Append raw bytes with a `u32` length prefix.
    #[inline]
    pub fn put_bytes(&mut self, b: &[u8]) {
        self.put_u32(u32::try_from(b.len()).expect("chunk too large"));
        self.put_raw(b);
    }

    /// Append raw bytes with no length prefix.
    #[inline]
    pub fn put_raw(&mut self, b: &[u8]) {
        let end = self.len + b.len();
        if end <= INLINE {
            self.head[self.len..end].copy_from_slice(b);
            self.len = end;
        } else {
            self.put_spilled(b);
        }
    }

    /// [`Writer::put_raw`] past the inline head: the first such write
    /// moves everything to the `Vec`.
    #[cold]
    fn put_spilled(&mut self, b: &[u8]) {
        if self.len <= INLINE {
            self.spill.extend_from_slice(&self.head[..self.len]);
        }
        self.spill.extend_from_slice(b);
        self.len += b.len();
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Finish, yielding an immutable buffer: one allocation for the
    /// refcounts and the bytes.
    #[inline]
    pub fn finish(self) -> Bytes {
        let written = if self.len <= INLINE { &self.head[..self.len] } else { &self.spill[..] };
        Bytes::copy_from_slice(written)
    }
}

/// Payload size (bytes) at or above which [`FrameWriter::put_shared`]
/// keeps the chunk as a shared piece (a refcount bump) instead of copying
/// it into the frame. Matches HPX's zero-copy serialization threshold.
pub const SHARED_CHUNK_MIN: usize = 8192;

/// A serialized frame as a rope of byte pieces.
///
/// Small writes are coalesced into contiguous pieces; large chunks are
/// *shared* pieces referencing the original argument storage. The encoded
/// byte stream is identical to writing everything through [`Writer`] —
/// only the ownership differs.
#[derive(Debug, Clone, Default)]
pub struct Frame {
    pieces: Vec<Bytes>,
    len: usize,
    shared: usize,
}

impl Frame {
    /// Total encoded length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the frame is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bytes carried by reference (shared pieces) rather than copied.
    pub fn shared_bytes(&self) -> usize {
        self.shared
    }

    /// The pieces, in stream order.
    pub fn pieces(&self) -> &[Bytes] {
        &self.pieces
    }

    /// Consume into the pieces, in stream order.
    pub fn into_pieces(self) -> Vec<Bytes> {
        self.pieces
    }

    /// Flatten into one contiguous buffer (copies; for tests and
    /// receive-side reassembly).
    pub fn to_bytes(&self) -> Bytes {
        let mut v = Vec::with_capacity(self.len);
        for p in &self.pieces {
            v.extend_from_slice(p);
        }
        Bytes::from(v)
    }
}

/// Streaming writer producing a [`Frame`]: scalar writes coalesce, large
/// chunk payloads ride along by reference.
#[derive(Debug, Default)]
pub struct FrameWriter {
    pieces: Vec<Bytes>,
    cur: BytesMut,
    len: usize,
    shared: usize,
}

impl FrameWriter {
    /// Create an empty frame writer.
    pub fn new() -> Self {
        FrameWriter::default()
    }

    /// Create a frame writer with reserved capacity for the coalesced
    /// (copied) portion.
    pub fn with_capacity(cap: usize) -> Self {
        FrameWriter { pieces: Vec::new(), cur: BytesMut::with_capacity(cap), len: 0, shared: 0 }
    }

    /// Append a `u8`.
    pub fn put_u8(&mut self, x: u8) {
        self.cur.put_u8(x);
        self.len += 1;
    }

    /// Append a little-endian `u32`.
    pub fn put_u32(&mut self, x: u32) {
        self.cur.put_u32_le(x);
        self.len += 4;
    }

    /// Append raw bytes (copied) with a `u32` length prefix.
    pub fn put_bytes(&mut self, b: &[u8]) {
        self.put_u32(u32::try_from(b.len()).expect("chunk too large"));
        self.cur.put_slice(b);
        self.len += b.len();
    }

    /// Append a chunk with a `u32` length prefix; payloads of
    /// [`SHARED_CHUNK_MIN`] bytes or more become shared pieces — a
    /// refcount bump on the original storage instead of a copy. The byte
    /// stream is identical to [`FrameWriter::put_bytes`] either way.
    pub fn put_shared(&mut self, b: &Bytes) {
        self.put_u32(u32::try_from(b.len()).expect("chunk too large"));
        if b.len() >= SHARED_CHUNK_MIN {
            self.seal_cur();
            self.pieces.push(b.clone());
            self.shared += b.len();
        } else {
            self.cur.put_slice(b);
        }
        self.len += b.len();
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn seal_cur(&mut self) {
        if !self.cur.is_empty() {
            let sealed = std::mem::take(&mut self.cur);
            self.pieces.push(sealed.freeze());
        }
    }

    /// Finish, yielding the frame rope.
    pub fn finish(mut self) -> Frame {
        self.seal_cur();
        Frame { pieces: self.pieces, len: self.len, shared: self.shared }
    }
}

/// Cursor-based reader over a byte slice; panics on truncation (framing
/// errors are programming bugs in this closed system, not external input).
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Read from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> &'a [u8] {
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        s
    }

    /// Read a `u8`.
    pub fn get_u8(&mut self) -> u8 {
        self.take(1)[0]
    }

    /// Read a little-endian `u32`.
    pub fn get_u32(&mut self) -> u32 {
        u32::from_le_bytes(self.take(4).try_into().expect("4 bytes"))
    }

    /// Read a little-endian `u64`.
    pub fn get_u64(&mut self) -> u64 {
        u64::from_le_bytes(self.take(8).try_into().expect("8 bytes"))
    }

    /// Read a little-endian `f64`.
    pub fn get_f64(&mut self) -> f64 {
        f64::from_le_bytes(self.take(8).try_into().expect("8 bytes"))
    }

    /// Read a `u32`-length-prefixed byte string.
    pub fn get_bytes(&mut self) -> &'a [u8] {
        let n = self.get_u32() as usize;
        self.take(n)
    }

    /// Read `n` raw bytes (no length prefix).
    pub fn get_raw(&mut self, n: usize) -> &'a [u8] {
        self.take(n)
    }

    /// Current cursor offset from the start of the buffer. Callers that
    /// hold shared storage of the same bytes can turn `get_bytes` results
    /// into zero-copy sub-views (`position` before the read names the
    /// length prefix, `position` after names the end of the payload).
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether the cursor consumed everything.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        let mut w = Writer::new();
        w.put_u8(7);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 3);
        w.put_f64(1.5);
        let b = w.finish();
        let mut r = Reader::new(&b);
        assert_eq!(r.get_u8(), 7);
        assert_eq!(r.get_u32(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64(), u64::MAX - 3);
        assert_eq!(r.get_f64(), 1.5);
        assert!(r.is_exhausted());
    }

    #[test]
    fn roundtrip_bytes() {
        let mut w = Writer::new();
        w.put_bytes(b"hello");
        w.put_bytes(b"");
        w.put_raw(b"xyz");
        let b = w.finish();
        let mut r = Reader::new(&b);
        assert_eq!(r.get_bytes(), b"hello");
        assert_eq!(r.get_bytes(), b"");
        assert_eq!(r.remaining(), 3);
    }

    #[test]
    fn finished_buffer_clones_and_slices_share_storage() {
        let mut w = Writer::new();
        w.put_u64(0x0102_0304_0506_0708);
        w.put_raw(b"tail");
        let b = w.finish();
        assert_eq!(b.len(), 12);
        assert_eq!(b.clone().as_ptr(), b.as_ptr());
        let tail = b.slice(8..);
        assert_eq!(&tail[..], b"tail");
        assert_eq!(tail.as_ptr(), b[8..].as_ptr());
        assert_eq!(tail.slice(1..3).as_ptr(), b[9..].as_ptr());
    }

    #[test]
    fn nested_writers_keep_their_own_bytes() {
        let mut outer = Writer::new();
        outer.put_u32(1);
        let mut inner = Writer::new();
        inner.put_u32(2);
        outer.put_u32(3);
        let inner = inner.finish();
        let outer = outer.finish();
        assert_eq!(&inner[..], &2u32.to_le_bytes());
        assert_eq!(&outer[..], &[1u32.to_le_bytes(), 3u32.to_le_bytes()].concat());
        let mut next = Writer::new();
        assert!(next.is_empty());
        next.put_u8(9);
        assert_eq!(&next.finish()[..], &[9]);
    }

    #[test]
    fn writers_past_the_inline_head_move_to_a_vec() {
        let long: Vec<u8> = (0..=255).collect();
        let mut outer = Writer::new();
        outer.put_raw(&long[..100]);
        let mut inner = Writer::new();
        inner.put_raw(&long);
        outer.put_raw(&long[100..]);
        assert_eq!(outer.len(), 256);
        assert_eq!(&outer.finish()[..], &long[..]);
        assert_eq!(&inner.finish()[..], &long[..]);
        // A later writer that spills starts from an empty buffer.
        let mut again = Writer::new();
        again.put_raw(&long[..200]);
        again.put_u8(7);
        let out = again.finish();
        assert_eq!(&out[..200], &long[..200]);
        assert_eq!(out[200], 7);
    }

    #[test]
    #[should_panic]
    fn truncated_read_panics() {
        let mut r = Reader::new(&[1, 2]);
        r.get_u32();
    }

    #[test]
    fn frame_writer_matches_flat_writer() {
        let small = Bytes::from(vec![9u8; 100]);
        let big = Bytes::from(vec![8u8; SHARED_CHUNK_MIN]);
        let mut fw = FrameWriter::new();
        fw.put_u32(0xFEED);
        fw.put_shared(&small);
        fw.put_shared(&big);
        fw.put_u8(3);
        let frame = fw.finish();

        let mut w = Writer::new();
        w.put_u32(0xFEED);
        w.put_bytes(&small);
        w.put_bytes(&big);
        w.put_u8(3);
        let flat = w.finish();

        assert_eq!(frame.len(), flat.len());
        assert_eq!(&frame.to_bytes()[..], &flat[..]);
        assert_eq!(frame.shared_bytes(), big.len());
        // coalesced-head, shared, coalesced-tail
        assert_eq!(frame.pieces().len(), 3);
    }

    #[test]
    fn frame_shared_piece_is_a_refcount_bump() {
        let big = Bytes::from(vec![5u8; SHARED_CHUNK_MIN + 1]);
        let mut fw = FrameWriter::new();
        fw.put_shared(&big);
        let frame = fw.finish();
        // The shared piece aliases the source buffer: same backing
        // pointer, no copy.
        let shared = &frame.pieces()[1];
        assert_eq!(shared.as_ptr(), big.as_ptr());
    }

    #[test]
    fn frame_below_threshold_copies() {
        let chunk = Bytes::from(vec![5u8; SHARED_CHUNK_MIN - 1]);
        let mut fw = FrameWriter::new();
        fw.put_shared(&chunk);
        let frame = fw.finish();
        assert_eq!(frame.shared_bytes(), 0);
        assert_eq!(frame.pieces().len(), 1);
        assert_eq!(frame.len(), 4 + chunk.len());
    }

    #[cfg(test)]
    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn any_u64_roundtrips(x: u64) {
                let mut w = Writer::new();
                w.put_u64(x);
                let b = w.finish();
                prop_assert_eq!(Reader::new(&b).get_u64(), x);
            }

            #[test]
            fn any_byte_string_roundtrips(v: Vec<u8>) {
                let mut w = Writer::new();
                w.put_bytes(&v);
                let b = w.finish();
                let mut r = Reader::new(&b);
                prop_assert_eq!(r.get_bytes(), &v[..]);
                prop_assert!(r.is_exhausted());
            }

            #[test]
            fn mixed_sequences_roundtrip(items: Vec<(u32, Vec<u8>)>) {
                let mut w = Writer::new();
                for (x, v) in &items {
                    w.put_u32(*x);
                    w.put_bytes(v);
                }
                let b = w.finish();
                let mut r = Reader::new(&b);
                for (x, v) in &items {
                    prop_assert_eq!(r.get_u32(), *x);
                    prop_assert_eq!(r.get_bytes(), &v[..]);
                }
                prop_assert!(r.is_exhausted());
            }
        }
    }
}
