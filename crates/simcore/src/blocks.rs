//! [`Blocks`]: an append-only sequence stored in fixed-size blocks.
//!
//! A `Vec` that grows by doubling copies every element on each growth
//! and holds up to twice its content; a run's recording stores (the
//! causal log's records and nodes, telemetry's core spans) grow for the
//! whole run and are read only at its end. Blocks of one fixed size make
//! growth allocate one block and copy nothing, keep capacity within one
//! block of the content, and allocate nothing until the first element.

use std::ops::Range;

/// Default bytes per block.
pub const BLOCK_BYTES: usize = 64 << 10;

/// Elements of `T` in fixed blocks of `BYTES` bytes each: appending never
/// moves an element, and capacity exceeds length by less than one block.
/// A block is allocated whole, filled with `T::default()`, when the first
/// element needs it.
#[derive(Debug, Clone)]
pub struct Blocks<T, const BYTES: usize = BLOCK_BYTES> {
    blocks: Vec<Box<[T]>>,
    len: usize,
}

impl<T, const BYTES: usize> Default for Blocks<T, BYTES> {
    fn default() -> Self {
        Blocks { blocks: Vec::new(), len: 0 }
    }
}

impl<T: Copy + Default, const BYTES: usize> Blocks<T, BYTES> {
    /// Elements per block.
    pub const PER_BLOCK: usize = BYTES / std::mem::size_of::<T>();

    /// An empty sequence; allocates nothing.
    pub const fn new() -> Self {
        Blocks { blocks: Vec::new(), len: 0 }
    }

    /// Elements stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Elements the allocated blocks hold.
    pub fn capacity(&self) -> usize {
        self.blocks.len() * Self::PER_BLOCK
    }

    /// Element `i`. Panics past the end.
    #[inline]
    pub fn get(&self, i: usize) -> T {
        assert!(i < self.len, "blocks: index {i} past length {}", self.len);
        self.blocks[i / Self::PER_BLOCK][i % Self::PER_BLOCK]
    }

    /// The last element, if any.
    pub fn last(&self) -> Option<T> {
        self.len.checked_sub(1).map(|i| self.get(i))
    }

    /// Append `v`.
    #[inline]
    pub fn push(&mut self, v: T) {
        let (b, off) = (self.len / Self::PER_BLOCK, self.len % Self::PER_BLOCK);
        if b == self.blocks.len() {
            self.grow();
        }
        self.blocks[b][off] = v;
        self.len += 1;
    }

    /// Allocate one more block.
    #[cold]
    fn grow(&mut self) {
        self.blocks.push(vec![T::default(); Self::PER_BLOCK].into_boxed_slice());
    }

    /// Append up to `N` elements that `write` puts at the front of an
    /// `N`-element window and counts. When the current block has room for
    /// the whole window, `write` fills the block in place; otherwise it
    /// fills a scratch window whose front is then copied across blocks.
    #[inline]
    pub fn append<const N: usize>(&mut self, write: impl FnOnce(&mut [T; N]) -> usize) {
        let (b, off) = (self.len / Self::PER_BLOCK, self.len % Self::PER_BLOCK);
        match self.blocks.get_mut(b) {
            Some(block) if Self::PER_BLOCK - off >= N => {
                let window = (&mut block[off..off + N]).try_into().expect("an N-element window");
                let n = write(window);
                debug_assert!(n <= N);
                self.len += n;
            }
            _ => {
                let mut window = [T::default(); N];
                let n = write(&mut window);
                self.extend_from_slice(&window[..n]);
            }
        }
    }

    /// Append every element of `items`.
    pub fn extend_from_slice(&mut self, mut items: &[T]) {
        while !items.is_empty() {
            let (b, off) = (self.len / Self::PER_BLOCK, self.len % Self::PER_BLOCK);
            if b == self.blocks.len() {
                self.grow();
            }
            let n = items.len().min(Self::PER_BLOCK - off);
            self.blocks[b][off..off + n].copy_from_slice(&items[..n]);
            self.len += n;
            items = &items[n..];
        }
    }

    /// Append elements `range` of `src`, block run by block run.
    pub fn extend_from(&mut self, src: &Blocks<T, BYTES>, range: Range<usize>) {
        assert!(range.end <= src.len, "blocks: range {range:?} past length {}", src.len);
        let mut pos = range.start;
        while pos < range.end {
            let (b, off) = (pos / Self::PER_BLOCK, pos % Self::PER_BLOCK);
            let n = (range.end - pos).min(Self::PER_BLOCK - off);
            self.extend_from_slice(&src.blocks[b][off..off + n]);
            pos += n;
        }
    }

    /// The `N` elements from `pos`: a slice of the block when they lie in
    /// one, else copied into `scratch`. Elements past the length read as
    /// whatever the blocks hold there (`T::default()` past the last
    /// block).
    #[inline]
    pub fn window<'a, const N: usize>(&'a self, pos: usize, scratch: &'a mut [T; N]) -> &'a [T] {
        let (b, off) = (pos / Self::PER_BLOCK, pos % Self::PER_BLOCK);
        if Self::PER_BLOCK - off >= N {
            if let Some(block) = self.blocks.get(b) {
                return &block[off..off + N];
            }
        }
        for (k, slot) in scratch.iter_mut().enumerate() {
            let (b, off) = ((pos + k) / Self::PER_BLOCK, (pos + k) % Self::PER_BLOCK);
            *slot = self.blocks.get(b).map_or(T::default(), |block| block[off]);
        }
        scratch
    }

    /// Every element, in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = T> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_empty_sequence_allocates_nothing() {
        let b: Blocks<u64> = Blocks::new();
        assert_eq!((b.len(), b.capacity(), b.blocks.capacity()), (0, 0, 0));
    }

    #[test]
    fn pushes_and_appends_cross_blocks_in_order() {
        let per = Blocks::<u32>::PER_BLOCK;
        let mut b: Blocks<u32> = Blocks::new();
        let mut want = Vec::new();
        let mut k = 0u32;
        while want.len() < 3 * per + 5 {
            // Windows of 7, of which the writer keeps k % 8.
            b.append(|w: &mut [u32; 7]| {
                let n = (k % 8).min(7) as usize;
                for (i, slot) in w[..n].iter_mut().enumerate() {
                    *slot = k * 10 + i as u32;
                }
                n
            });
            want.extend((0..(k % 8).min(7)).map(|i| k * 10 + i));
            b.push(u32::MAX - k);
            want.push(u32::MAX - k);
            k += 1;
        }
        assert_eq!(b.len(), want.len());
        assert!(b.capacity() - b.len() < per, "capacity within one block of the content");
        assert_eq!(b.iter().collect::<Vec<_>>(), want);
        let mut scratch = [0; 9];
        for pos in [0, per - 4, per - 9, 2 * per - 1, want.len() - 9] {
            assert_eq!(b.window(pos, &mut scratch), &want[pos..pos + 9], "window at {pos}");
        }
        let mut copy: Blocks<u32> = Blocks::new();
        copy.push(1);
        copy.extend_from(&b, per - 3..2 * per + 4);
        assert_eq!(copy.iter().skip(1).collect::<Vec<_>>(), want[per - 3..2 * per + 4]);
        assert_eq!((copy.get(0), copy.last()), (1, Some(want[2 * per + 3])));
    }
}
