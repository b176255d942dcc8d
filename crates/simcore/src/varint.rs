//! LEB128 varints and zigzag: the one codec of the recording stores.
//!
//! A varint holds 7 bits per byte, low bits first, with the top bit set
//! on every byte but the last; a `u64` takes 1 to [`MAX`] bytes. Zigzag
//! maps a signed difference to an unsigned one whose varint is short when
//! the difference is small either way: 0, -1, 1, -2, ... become 0, 1, 2,
//! 3, .... The causal log's mark records, telemetry's counter tracks and
//! its core spans are streams of these.

/// Bytes of the longest varint (a `u64` of 64 significant bits).
pub const MAX: usize = 10;

/// Write `v` at `buf[*pos..]` and advance `*pos` past it. Panics when
/// `buf` ends first.
#[inline(always)]
pub fn put(buf: &mut [u8], pos: &mut usize, mut v: u64) {
    while v >= 0x80 {
        buf[*pos] = v as u8 | 0x80;
        v >>= 7;
        *pos += 1;
    }
    buf[*pos] = v as u8;
    *pos += 1;
}

/// Read the varint at `buf[*pos..]` and advance `*pos` past it. Panics
/// when `buf` ends first.
#[inline]
pub fn get(buf: &[u8], pos: &mut usize) -> u64 {
    let (mut v, mut shift) = (0, 0);
    loop {
        let b = buf[*pos];
        *pos += 1;
        v |= ((b & 0x7f) as u64) << shift;
        if b < 0x80 {
            return v;
        }
        shift += 7;
    }
}

/// Bytes of `v` as a varint.
pub fn len(v: u64) -> usize {
    (64 - (v | 1).leading_zeros() as usize).div_ceil(7)
}

/// `v` with its sign moved to the low bit.
#[inline]
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// The inverse of [`zigzag`].
#[inline]
pub fn unzigzag(v: u64) -> i64 {
    (v >> 1) as i64 ^ -((v & 1) as i64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_values_round_trip_at_their_length() {
        let mut buf = [0u8; 4 * MAX];
        for v in [0, 1, 0x7f, 0x80, 0x3fff, 0x4000, u32::MAX as u64, 1 << 63, u64::MAX] {
            let mut pos = 1;
            put(&mut buf, &mut pos, v);
            put(&mut buf, &mut pos, 5);
            assert_eq!(pos, 1 + len(v) + 1, "length of {v:#x}");
            let mut rd = 1;
            assert_eq!((get(&buf, &mut rd), get(&buf, &mut rd)), (v, 5));
            assert_eq!(rd, pos);
        }
        assert_eq!((len(0), len(0x7f), len(0x80), len(u64::MAX)), (1, 1, 2, MAX));
    }

    #[test]
    fn zigzag_interleaves_signs() {
        let pairs =
            [(0, 0), (-1, 1), (1, 2), (-2, 3), (i64::MAX, u64::MAX - 1), (i64::MIN, u64::MAX)];
        for (v, z) in pairs {
            assert_eq!(zigzag(v), z, "zigzag({v})");
            assert_eq!(unzigzag(z), v, "unzigzag({z})");
        }
    }
}
