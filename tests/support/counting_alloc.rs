//! The counting allocator behind the tests that pin what an operation
//! costs the allocator: `System`, plus a per-thread count of calls, the
//! size the last one asked for, and the bytes held. A test file includes
//! it with
//!
//! ```ignore
//! #[path = "../../../tests/support/counting_alloc.rs"]
//! mod counting_alloc;
//! ```
//!
//! and reads [`calls`] (or [`live_bytes`]) before and after what it
//! measures. A call is an `alloc`, `alloc_zeroed` or `realloc` — what
//! the benchmark's `allocs_per_event` counts; a `dealloc` is not one.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    // Per thread, so a test running beside another cannot move them;
    // const-initialised `Cell`s need no lazy set-up and no destructor,
    // which an allocator may not ask for.
    static CALLS: Cell<u64> = const { Cell::new(0) };
    static LAST_SIZE: Cell<usize> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

fn count(size: usize) {
    // `try_with`: the allocator is still called while a thread's locals
    // are being torn down.
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
    let _ = LAST_SIZE.try_with(|c| c.set(size));
}

/// Move this thread's live total by `grown - freed` bytes.
fn hold(grown: usize, freed: usize) {
    let _ = LIVE.try_with(|c| c.set(c.get() + grown as i64 - freed as i64));
}

/// Allocator calls made on this thread so far.
#[allow(dead_code)] // not every including test reads it
pub fn calls() -> u64 {
    CALLS.with(Cell::get)
}

/// Bytes the last allocator call on this thread asked for.
#[allow(dead_code)] // not every including test reads it
pub fn last_size() -> usize {
    LAST_SIZE.with(Cell::get)
}

/// Bytes allocated on this thread minus bytes freed on it, a `realloc`
/// counted as freeing its old size and allocating its new one. A block
/// freed on another thread than the one that allocated it moves both
/// threads' totals.
#[allow(dead_code)] // not every including test reads it
pub fn live_bytes() -> i64 {
    LIVE.with(Cell::get)
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the only additions are
// thread-local stores that touch no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's contract for `alloc` is passed through.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            hold(layout.size(), 0);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's contract for `alloc_zeroed` is passed through.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            hold(layout.size(), 0);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        hold(0, layout.size());
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        // On failure the old block stays allocated, as it was.
        if !new.is_null() {
            hold(new_size, layout.size());
        }
        new
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;
