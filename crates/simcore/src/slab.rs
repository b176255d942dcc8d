//! Dense, generation-checked storage for short-lived entries.
//!
//! Layers park an entry under a key that travels through the simulation
//! (a completion's user word, an event's argument) and look it up when
//! the key comes back. A [`Slab`] keeps those entries in a `Vec` of
//! slots and recycles freed slots, so its memory follows the peak number
//! live rather than the number ever inserted, and a lookup is one
//! indexed load instead of a hash probe.
//!
//! A key is `generation << 32 | slot`. Removing an entry bumps its
//! slot's generation, so a key that outlived its entry resolves to
//! `None` even after the slot is reused, exactly as a missing id does in
//! a map that never reuses ids. Generations wrap at 30 bits, which keeps
//! every key below 2^62: callers may shift a key left by two to tag it.
//! (A key could only alias a later entry after its slot was reused 2^30
//! times while the key was still in flight.)

/// Generation bits in a key (above the 32 slot bits).
const GEN_BITS: u32 = 30;
const GEN_MASK: u32 = (1 << GEN_BITS) - 1;

/// A slot's generation and, while it is live, its entry.
type Slot<T> = (u32, Option<T>);

/// Entries addressed by generation-checked dense keys.
#[derive(Debug)]
pub struct Slab<T> {
    slots: Vec<Slot<T>>,
    /// Vacant slots, most recently freed last.
    free: Vec<u32>,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Slab { slots: Vec::new(), free: Vec::new() }
    }
}

impl<T> Slab<T> {
    /// An empty slab.
    pub fn new() -> Self {
        Self::default()
    }

    /// Store `value`; returns its key (below 2^62). The most recently
    /// freed slot is reused first.
    pub fn insert(&mut self, value: T) -> u64 {
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => {
                let slot = u32::try_from(self.slots.len()).expect("slab slot index overflow");
                self.slots.push((0, None));
                slot
            }
        };
        let entry = &mut self.slots[slot as usize];
        entry.1 = Some(value);
        (u64::from(entry.0) << 32) | u64::from(slot)
    }

    /// The slot a key names, if the key's generation is the slot's.
    #[inline]
    fn slot_mut(&mut self, key: u64) -> Option<&mut Slot<T>> {
        self.slots.get_mut(key as u32 as usize).filter(|s| u64::from(s.0) == key >> 32)
    }

    /// The entry under `key`, or `None` if it was removed (or never
    /// existed).
    #[inline]
    pub fn get(&self, key: u64) -> Option<&T> {
        match self.slots.get(key as u32 as usize)? {
            (gen, value) if u64::from(*gen) == key >> 32 => value.as_ref(),
            _ => None,
        }
    }

    /// Mutable access to the entry under `key`.
    #[inline]
    pub fn get_mut(&mut self, key: u64) -> Option<&mut T> {
        self.slot_mut(key)?.1.as_mut()
    }

    /// Take the entry under `key` out, retiring the key.
    pub fn remove(&mut self, key: u64) -> Option<T> {
        let (gen, entry) = self.slot_mut(key)?;
        let value = entry.take()?;
        *gen = (*gen + 1) & GEN_MASK;
        self.free.push(key as u32);
        Some(value)
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Whether no entry is live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn stale_key_resolves_to_none_after_its_slot_is_reused() {
        let mut s = Slab::new();
        let a = s.insert("a");
        assert_eq!(s.remove(a), Some("a"));
        let b = s.insert("b");
        assert_eq!(b as u32, a as u32, "the freed slot is reused");
        assert_ne!(b, a, "a reused slot gets a new key");
        assert_eq!(s.get(a), None);
        assert_eq!(s.get_mut(a), None);
        assert_eq!(s.remove(a), None);
        assert_eq!(s.get(b), Some(&"b"));
    }

    #[test]
    fn freed_slots_are_reused_so_slots_stay_at_the_peak_live() {
        let mut s = Slab::new();
        let keys: Vec<u64> = (0..5).map(|i| s.insert(i)).collect();
        for round in 0..100 {
            for &k in &keys[..3] {
                s.remove(k);
            }
            // Re-fill: the slab never grows past the five once live.
            let refill: Vec<u64> = (0..3).map(|i| s.insert(round * 10 + i)).collect();
            assert_eq!(s.slots.len(), 5);
            for k in refill {
                s.remove(k);
            }
        }
        assert_eq!(s.slots.len(), 5);
        assert_eq!(s.get(keys[4]), Some(&4));
    }

    #[test]
    fn len_tracks_live_entries() {
        let mut s = Slab::new();
        assert!(s.is_empty());
        let a = s.insert(1);
        let b = s.insert(2);
        assert_eq!(s.len(), 2);
        s.remove(a);
        assert_eq!(s.len(), 1);
        // Removing a stale key changes nothing.
        s.remove(a);
        assert_eq!(s.len(), 1);
        s.remove(b);
        assert!(s.is_empty());
    }

    #[test]
    fn generations_wrap_below_the_two_tag_bits() {
        let mut s = Slab::new();
        let k = s.insert(());
        s.remove(k);
        s.slots[0].0 = GEN_MASK;
        let oldest = s.insert(());
        assert_eq!(oldest >> 32, u64::from(GEN_MASK));
        assert!(oldest < 1 << 62, "key {oldest:#x} does not fit 62 bits");
        s.remove(oldest);
        assert_eq!(s.insert(()), 0, "the generation wraps to zero");
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Random inserts and removals agree with a `HashMap` model
            /// that never reuses ids: every key ever handed out resolves
            /// exactly when the model still holds it.
            #[test]
            fn matches_a_hashmap_model(ops in proptest::collection::vec((0u8..3, 0usize..64), 1..300)) {
                let mut slab = Slab::new();
                let mut model: HashMap<u64, usize> = HashMap::new();
                let mut issued: Vec<u64> = Vec::new();
                for (step, (op, pick)) in ops.into_iter().enumerate() {
                    if op == 0 || issued.is_empty() {
                        let key = slab.insert(step);
                        prop_assert!(!model.contains_key(&key), "live key handed out twice");
                        model.insert(key, step);
                        issued.push(key);
                    } else {
                        let key = issued[pick % issued.len()];
                        prop_assert_eq!(slab.remove(key), model.remove(&key));
                    }
                    prop_assert_eq!(slab.len(), model.len());
                    for &key in &issued {
                        prop_assert_eq!(slab.get(key), model.get(&key));
                    }
                }
            }
        }
    }
}
