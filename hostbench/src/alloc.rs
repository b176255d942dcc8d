//! Counting global allocator: allocation calls, live bytes and peak live
//! bytes, per thread.
//!
//! Counters are thread-local so that tests running side by side on the
//! harness's threads do not see each other's allocations; every workload
//! runs on one thread, so its own counters are exact. Memory freed on
//! another thread than the one that allocated it would skew `live`, which
//! is why it is signed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// One thread's allocation counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// `alloc`, `alloc_zeroed` and `realloc` calls so far.
    pub allocs: u64,
    /// Bytes currently allocated.
    pub live: i64,
    /// Highest `live` since the last [`reset_peak`].
    pub peak: i64,
}

thread_local! {
    // `const` initialisation and a `Copy` payload: no lazy set-up and no
    // destructor, so the allocator may touch it at any point in a thread's
    // life without allocating itself.
    static COUNTERS: Cell<Counters> = const {
        Cell::new(Counters { allocs: 0, live: 0, peak: 0 })
    };
}

fn record(grow: i64, call: bool) {
    let _ = COUNTERS.try_with(|c| {
        let mut v = c.get();
        v.allocs += u64::from(call);
        v.live += grow;
        v.peak = v.peak.max(v.live);
        c.set(v);
    });
}

/// This thread's counters.
pub fn snapshot() -> Counters {
    COUNTERS.with(Cell::get)
}

/// Restart peak tracking from the current live size.
pub fn reset_peak() {
    COUNTERS.with(|c| {
        let mut v = c.get();
        v.peak = v.live;
        c.set(v);
    });
}

/// The system allocator with counting.
pub struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting touches only a
// thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            record(layout.size() as i64, true);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            record(layout.size() as i64, true);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        record(-(layout.size() as i64), false);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            record(new_size as i64 - layout.size() as i64, true);
        }
        p
    }
}
