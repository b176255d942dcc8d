//! Dense slots for `&'static str`-keyed hot-path tables.
//!
//! Every layer of the stack bumps named counters on the per-message path
//! (`amt.spawn`, `lci.cq_push`, `lci_pp.header_sent`, ...). A [`Keyed`]
//! table reaches a key's value without comparing strings:
//!
//! * a process-wide registry maps a key's *content* to a dense `u32` id,
//!   so equal keys at different addresses share one id;
//! * a fixed-size thread-local cache maps a key's `(address, len)` to its
//!   id, so the registry's lock is taken only the first time a thread
//!   meets a key address (or when the key's probe window is full). `len`
//!   is part of the cache key because a prefix shares its parent's
//!   address;
//! * each table maps id → position in its own entry list, so a table's
//!   memory follows the keys it touched, not the registry's size.
//!
//! The cache's hot path, inlined at every call site, reads the key's
//! home slot and compares one `(address, len)` pair. A key whose home
//! slot another key took first probes the rest of its window out of
//! line, and reaches the registry only when that misses too. A hot-path
//! update is therefore one thread-local read, one compare and two indexed
//! loads. Ids depend on the process's first-touch order and are never
//! observable: every read view sorts by name, so output is byte-ordered
//! exactly as a `BTreeMap<&'static str, V>` would order it.

use std::cell::Cell;
use std::collections::HashMap;
use std::fmt;
use std::sync::{LazyLock, Mutex, PoisonError};

/// Slots in the thread-local address cache (a power of two).
const CACHE_SLOTS: usize = 1024;
/// Slots probed before a lookup falls back to the registry.
const PROBE_WINDOW: usize = 8;
/// `index` value of an id this table has never seen.
const VACANT: u32 = u32::MAX;

/// Key content → dense id and back, shared by every thread.
#[derive(Default)]
struct Registry {
    ids: HashMap<&'static str, u32>,
    /// `keys[id]` is the key registered as `id`.
    keys: Vec<&'static str>,
}

impl Registry {
    /// Register `key`, whose content is new, under the next id.
    fn insert(&mut self, key: &'static str) -> u32 {
        let id = u32::try_from(self.keys.len()).expect("keyed: more than u32::MAX keys");
        self.ids.insert(key, id);
        self.keys.push(key);
        id
    }
}

static REGISTRY: LazyLock<Mutex<Registry>> = LazyLock::new(Default::default);

fn registry() -> std::sync::MutexGuard<'static, Registry> {
    REGISTRY.lock().unwrap_or_else(PoisonError::into_inner)
}

/// `(address, len, id)`; address 0 marks an empty slot (a reference is
/// never null).
type CacheSlot = Cell<(usize, usize, u32)>;

thread_local! {
    static CACHE: [CacheSlot; CACHE_SLOTS] =
        const { [const { Cell::new((0, 0, 0)) }; CACHE_SLOTS] };
}

/// First cache slot probed for a key at `addr` with length `len`.
#[inline]
fn home_slot(addr: usize, len: usize) -> usize {
    let h = (addr as u64 ^ (len as u64).rotate_left(32)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (h >> (64 - CACHE_SLOTS.trailing_zeros())) as usize
}

/// Probe the cache window of a key at `addr` with length `len`: its id if
/// cached, else the window's first empty slot (`None` when the window is
/// full). Slots are never emptied, so a cached key always sits before the
/// first empty slot of its window.
fn probe(
    cache: &[CacheSlot; CACHE_SLOTS],
    addr: usize,
    len: usize,
) -> Result<u32, Option<&CacheSlot>> {
    let home = home_slot(addr, len);
    for i in 0..PROBE_WINDOW {
        let slot = &cache[(home + i) % CACHE_SLOTS];
        match slot.get() {
            (a, l, id) if a == addr && l == len => return Ok(id),
            (0, _, _) => return Err(Some(slot)),
            _ => {}
        }
    }
    Err(None)
}

/// The id cached in the home slot of a key at `addr` with length `len`:
/// one thread-local read and one compare, the hot path of [`id_of`].
#[inline(always)]
fn cached_at_home(addr: usize, len: usize) -> Option<u32> {
    let home = home_slot(addr, len);
    match CACHE.with(|cache| cache[home].get()) {
        (a, l, id) if a == addr && l == len => Some(id),
        _ => None,
    }
}

/// The process-wide id of `key`, registering its content on first
/// sight: equal content at any address has one id, on every thread.
/// [`keys`] maps it back.
#[inline]
pub fn id_of(key: &'static str) -> u32 {
    match cached_at_home(key.as_ptr() as usize, key.len()) {
        Some(id) => id,
        None => id_of_cold(key),
    }
}

/// [`id_of`] for a key not in its home slot: probe the rest of its
/// window, then the registry, caching the id in the window's first empty
/// slot.
#[cold]
#[inline(never)]
fn id_of_cold(key: &'static str) -> u32 {
    let (addr, len) = (key.as_ptr() as usize, key.len());
    CACHE.with(|cache| match probe(cache, addr, len) {
        Ok(id) => id,
        Err(empty) => {
            let id = register(key);
            if let Some(slot) = empty {
                slot.set((addr, len, id));
            }
            id
        }
    })
}

/// The id of `key` if any table has ever stored it. Never registers.
///
/// A cached `(address, len)` belongs to a `'static` key, whose bytes are
/// never freed, so any `&str` at the same address and length has the same
/// content and the cached id is its id.
fn lookup(key: &str) -> Option<u32> {
    let cached = CACHE.with(|cache| probe(cache, key.as_ptr() as usize, key.len()).ok());
    cached.or_else(|| registry().ids.get(key).copied())
}

#[cold]
fn register(key: &'static str) -> u32 {
    // Insert-only, so a panic elsewhere cannot leave the map inconsistent.
    let mut reg = registry();
    match reg.ids.get(key) {
        Some(&id) => id,
        None => reg.insert(key),
    }
}

/// A `&'static str` with the content of `s`, leaked the first time that
/// content is interned or registered, and the same address ever after:
/// for names formatted at run time (`loc3.runq`) that a [`Keyed`] table
/// or a probe must hold as `'static`. The content is registered as a key.
pub fn intern(s: &str) -> &'static str {
    let mut reg = registry();
    if let Some((&key, _)) = reg.ids.get_key_value(s) {
        return key;
    }
    let key: &'static str = Box::leak(s.to_owned().into_boxed_str());
    reg.insert(key);
    key
}

/// Every key registered so far, indexed by id: `keys()[id_of(k)]` has
/// the content of `k`. Copied from the registry on each call, for read
/// views that turn many stored ids back into names.
pub fn keys() -> Vec<&'static str> {
    registry().keys.clone()
}

/// The key registered as `id`: `key(id_of(k))` has the content of `k`.
/// Panics for an id never handed out.
pub fn key(id: u32) -> &'static str {
    registry().keys[id as usize]
}

/// A table of values keyed by `&'static str`, stored in dense slots.
#[derive(Clone)]
pub struct Keyed<V> {
    /// Id → position in `entries`, or [`VACANT`].
    index: Vec<u32>,
    /// One `(key, value)` per distinct key, in first-touch order.
    entries: Vec<(&'static str, V)>,
}

impl<V> Default for Keyed<V> {
    fn default() -> Self {
        Keyed { index: Vec::new(), entries: Vec::new() }
    }
}

impl<V> Keyed<V> {
    /// The value of `key`, inserting `make()` on first touch.
    #[inline]
    pub fn slot_with(&mut self, key: &'static str, make: impl FnOnce() -> V) -> &mut V {
        self.slot_at(id_of(key) as usize, key, make)
    }

    /// [`Keyed::slot_with`] for a caller that holds `key`'s id
    /// (`id == id_of(key)`), which skips the thread-local probe.
    #[inline]
    pub fn slot_by_id(&mut self, id: u32, key: &'static str, make: impl FnOnce() -> V) -> &mut V {
        debug_assert_eq!(id, id_of(key), "keyed: {key} does not have id {id}");
        self.slot_at(id as usize, key, make)
    }

    #[inline]
    fn slot_at(&mut self, id: usize, key: &'static str, make: impl FnOnce() -> V) -> &mut V {
        let pos = match self.index.get(id) {
            Some(&pos) if pos != VACANT => pos as usize,
            _ => self.insert(id, key, make()),
        };
        &mut self.entries[pos].1
    }

    /// The value of `key`, inserting `V::default()` on first touch.
    #[inline]
    pub fn slot(&mut self, key: &'static str) -> &mut V
    where
        V: Default,
    {
        self.slot_with(key, V::default)
    }

    #[cold]
    fn insert(&mut self, id: usize, key: &'static str, value: V) -> usize {
        if self.index.len() <= id {
            self.index.resize(id + 1, VACANT);
        }
        let pos = self.entries.len();
        self.index[id] = pos as u32;
        self.entries.push((key, value));
        pos
    }

    /// Read the value of `key`, if this table has touched it.
    pub fn get(&self, key: &str) -> Option<&V> {
        let pos = *self.index.get(lookup(key)? as usize)?;
        (pos != VACANT).then(|| &self.entries[pos as usize].1)
    }

    /// Iterate `(key, value)` in key (byte) order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &V)> + '_ {
        let mut sorted: Vec<_> = self.entries.iter().map(|(k, v)| (*k, v)).collect();
        // Keys are unique within a table: equal content means equal id.
        sorted.sort_unstable_by_key(|&(k, _)| k);
        sorted.into_iter()
    }

    /// Number of distinct keys.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no key was touched.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Remove every key.
    pub fn clear(&mut self) {
        self.index.clear();
        self.entries.clear();
    }
}

impl<V: fmt::Debug> fmt::Debug for Keyed<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Stats;

    fn leak(s: &str) -> &'static str {
        Box::leak(s.to_owned().into_boxed_str())
    }

    #[test]
    fn prefix_at_same_address_is_a_distinct_key() {
        let s = leak("amt.spawned");
        let prefix = &s[..9];
        assert_eq!(prefix.as_ptr(), s.as_ptr());
        let mut t = Stats::new();
        t.bump(s);
        t.add(prefix, 5);
        t.bump(s);
        assert_eq!(t.get("amt.spawned"), 2);
        assert_eq!(t.get("amt.spawn"), 5);
        assert_eq!(t.counters().collect::<Vec<_>>(), vec![("amt.spawn", 5), ("amt.spawned", 2)]);
    }

    #[test]
    fn equal_content_at_different_addresses_shares_one_entry() {
        let copy = leak("keyed.same");
        assert_ne!(copy.as_ptr(), "keyed.same".as_ptr());
        let mut t = Keyed::<u64>::default();
        *t.slot("keyed.same") += 1;
        *t.slot(copy) += 10;
        assert_eq!(t.len(), 1);
        assert_eq!(t.get("keyed.same"), Some(&11));
        assert_eq!(t.get(&String::from("keyed.same")), Some(&11));
        assert_eq!(t.get("keyed.never"), None);
    }

    #[test]
    fn keys_map_ids_back_to_content() {
        let copy = leak("keyed.back");
        let (back, other) = (id_of(copy), id_of("keyed.other"));
        assert_eq!(id_of("keyed.back"), back);
        let keys = keys();
        assert_eq!((keys[back as usize], keys[other as usize]), ("keyed.back", "keyed.other"));
    }

    #[test]
    fn intern_returns_one_address_per_content() {
        let first = intern(&format!("keyed.intern.{}", 7));
        let again = intern(&String::from("keyed.intern.7"));
        assert_eq!((first, first.as_ptr()), ("keyed.intern.7", again.as_ptr()));
        // Content a table registered first interns to that table's key.
        let (literal, owned) = ("keyed.intern.literal", String::from("keyed.intern.literal"));
        let _ = id_of(literal);
        assert_eq!(intern(&owned).as_ptr(), literal.as_ptr());
        assert_eq!(id_of(first), id_of(again));
    }

    #[test]
    fn first_touch_order_is_not_observable() {
        let keys = ["keyed.b", "keyed.a", "keyed.c.x", "keyed.c", "keyed.A"];
        let (mut fwd, mut rev) = (Stats::new(), Stats::new());
        for (i, k) in keys.iter().enumerate() {
            fwd.add(k, i as u64 + 1);
        }
        for (i, k) in keys.iter().enumerate().rev() {
            rev.add(k, i as u64 + 1);
        }
        let order: Vec<_> = fwd.counters().map(|(k, _)| k).collect();
        assert_eq!(order, vec!["keyed.A", "keyed.a", "keyed.b", "keyed.c", "keyed.c.x"]);
        assert_eq!(fwd.counters().collect::<Vec<_>>(), rev.counters().collect::<Vec<_>>());
        assert_eq!(fwd.to_string(), rev.to_string());
        assert_eq!(format!("{fwd:?}"), format!("{rev:?}"));
    }

    #[test]
    fn more_keys_than_cache_slots_all_count() {
        let keys: Vec<&'static str> =
            (0..4 * CACHE_SLOTS).map(|i| leak(&format!("keyed.many.{i}"))).collect();
        let mut t = Keyed::<u64>::default();
        for round in 1..=3u64 {
            for (i, &k) in keys.iter().enumerate() {
                *t.slot(k) += round * i as u64;
            }
        }
        assert_eq!(t.len(), keys.len());
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(t.get(k), Some(&(6 * i as u64)), "{k}");
        }
    }

    /// `n` leaked keys whose cache home slot is the same, found by
    /// leaking `keyed.home.{i}` until one home slot has drawn `n`.
    fn keys_sharing_a_home_slot(n: usize) -> Vec<&'static str> {
        let mut by_home: HashMap<usize, Vec<&'static str>> = HashMap::new();
        for i in 0.. {
            let key = leak(&format!("keyed.home.{i}"));
            let bucket = by_home.entry(home_slot(key.as_ptr() as usize, key.len())).or_default();
            bucket.push(key);
            if bucket.len() == n {
                return std::mem::take(bucket);
            }
        }
        unreachable!()
    }

    /// Each key's id, bumped count and `Keyed::get` value after `rounds`
    /// rounds of `id_of`, `Stats::bump` and `Keyed::slot` over `keys`.
    fn resolve(keys: &[&'static str], rounds: u64) -> Vec<(u32, u64, Option<u64>)> {
        let (mut stats, mut table) = (Stats::new(), Keyed::<u64>::default());
        let mut ids = vec![None; keys.len()];
        for _ in 0..rounds {
            for (i, &k) in keys.iter().enumerate() {
                let id = id_of(k);
                assert_eq!(*ids[i].get_or_insert(id), id, "{k} changed id");
                stats.bump(k);
                *table.slot(k) += i as u64;
            }
        }
        let row = |(i, &k): (usize, &&'static str)| {
            (ids[i].unwrap(), stats.get(k), table.get(k).copied())
        };
        keys.iter().enumerate().map(row).collect()
    }

    #[test]
    fn keys_sharing_a_home_slot_keep_their_own_ids() {
        let keys = keys_sharing_a_home_slot(2);
        let got = resolve(&keys, 5);
        assert_ne!(got[0].0, got[1].0);
        for (k, row) in keys.iter().zip(&got) {
            assert_eq!(Some(&row.0), registry().ids.get(k));
        }
        assert_eq!(
            got.iter().map(|r| (r.1, r.2)).collect::<Vec<_>>(),
            [(5, Some(0)), (5, Some(5))]
        );
    }

    #[test]
    fn a_full_probe_window_falls_back_to_the_registry() {
        // One key more than the window holds: whatever else this thread
        // cached, the last key finds every slot of its window taken.
        let keys = keys_sharing_a_home_slot(PROBE_WINDOW + 1);
        let got = resolve(&keys, 3);
        let last = keys[PROBE_WINDOW];
        let window_full =
            CACHE.with(|c| matches!(probe(c, last.as_ptr() as usize, last.len()), Err(None)));
        assert!(window_full, "{last} found a cache slot");
        for (i, (k, row)) in keys.iter().zip(&got).enumerate() {
            assert_eq!(
                (Some(&row.0), row.1, row.2),
                (registry().ids.get(k), 3, Some(3 * i as u64))
            );
        }
        // Another thread, meeting the keys in reverse order, places them
        // in other cache slots and resolves the same ids.
        let reversed: Vec<_> = keys.iter().rev().copied().collect();
        let theirs = std::thread::scope(|s| s.spawn(|| resolve(&reversed, 3)).join().unwrap());
        let theirs: Vec<u32> = theirs.iter().rev().map(|r| r.0).collect();
        assert_eq!(theirs, got.iter().map(|r| r.0).collect::<Vec<_>>());
    }

    #[test]
    fn threads_share_ids_and_merge_to_single_thread_totals() {
        let left = ["keyed.t.a", "keyed.t.b", "keyed.t.c"];
        let right = ["keyed.t.c", "keyed.t.d", "keyed.t.a"];
        let fill = |s: &mut Stats, keys: [&'static str; 3]| {
            for round in 0..100u64 {
                for (i, k) in keys.iter().enumerate() {
                    s.add(k, round + i as u64);
                }
            }
        };
        let on_thread = |keys| {
            let mut s = Stats::new();
            fill(&mut s, keys);
            s
        };
        let (a, b) = std::thread::scope(|scope| {
            let a = scope.spawn(|| on_thread(left));
            let b = scope.spawn(|| on_thread(right));
            (a.join().unwrap(), b.join().unwrap())
        });
        let mut merged = Stats::new();
        merged.merge(&a);
        merged.merge(&b);
        let mut single = Stats::new();
        fill(&mut single, left);
        fill(&mut single, right);
        assert_eq!(merged.to_string(), single.to_string());
        assert_eq!(merged.get("keyed.t.a"), 2 * 4950 + 200);
        assert_eq!(merged.counters().count(), 4);
    }
}
