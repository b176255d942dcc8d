//! A table over dense keys whose values exist only once touched.
//!
//! The fabric's channels and a switched topology's ports are addressed
//! by dense indices, but a locality lane touches only the few its own
//! traffic crosses. A [`Slots`] keeps one `u32` per key and materializes
//! a value on its first mutable access, so its memory follows the keys
//! touched, not the key space (the `VACANT`-index idiom of
//! `simcore::keyed`).

/// `index` value of a key that was never touched.
const VACANT: u32 = u32::MAX;

/// Values for the keys `0..len`, each created on first touch.
pub(crate) struct Slots<T> {
    /// Key → position in `values`, or [`VACANT`].
    index: Vec<u32>,
    /// One value per touched key, in first-touch order.
    values: Vec<T>,
}

impl<T> Slots<T> {
    /// A table over the keys `0..len` with no value materialized.
    pub(crate) fn new(len: usize) -> Self {
        assert!(len < VACANT as usize, "slots: key space exceeds u32");
        Slots { index: vec![VACANT; len], values: Vec::new() }
    }

    /// The value of `key`, if it was ever touched.
    #[inline]
    pub(crate) fn get(&self, key: usize) -> Option<&T> {
        match self.index[key] {
            VACANT => None,
            pos => Some(&self.values[pos as usize]),
        }
    }

    /// The value of `key` for update, if it was ever touched.
    #[inline]
    pub(crate) fn get_mut(&mut self, key: usize) -> Option<&mut T> {
        match self.index[key] {
            VACANT => None,
            pos => Some(&mut self.values[pos as usize]),
        }
    }

    /// The value of `key`, created with `make` on first touch.
    #[inline]
    pub(crate) fn get_or_insert_with(&mut self, key: usize, make: impl FnOnce() -> T) -> &mut T {
        let pos = match self.index[key] {
            VACANT => self.insert(key, make()),
            pos => pos as usize,
        };
        &mut self.values[pos]
    }

    #[cold]
    fn insert(&mut self, key: usize, value: T) -> usize {
        let pos = self.values.len();
        self.index[key] = pos as u32;
        self.values.push(value);
        pos
    }

    /// Every materialized value, in first-touch order.
    pub(crate) fn values(&self) -> impl Iterator<Item = &T> {
        self.values.iter()
    }

    /// Number of materialized values.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.values.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_materialize_on_first_touch_only() {
        let mut s: Slots<Vec<u8>> = Slots::new(5);
        assert_eq!(s.len(), 0);
        assert!(s.get(3).is_none() && s.get_mut(3).is_none());
        s.get_or_insert_with(3, Vec::new).push(1);
        s.get_or_insert_with(0, || vec![9]);
        s.get_or_insert_with(3, || unreachable!("key 3 exists")).push(2);
        assert_eq!(s.get(3), Some(&vec![1, 2]));
        s.get_mut(0).expect("touched").push(8);
        assert_eq!(s.values().collect::<Vec<_>>(), [&vec![1, 2], &vec![9, 8]]);
        assert_eq!(s.len(), 2);
        assert!(s.get(4).is_none());
    }
}
