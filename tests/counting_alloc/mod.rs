//! A counting allocator shared by the test binaries that assert allocation
//! counts (`train_allocations`, `miss_allocations`, `predict_allocations`,
//! `request_budget`).
//! Each declares this module and installs [`Counting`] as its own
//! `#[global_allocator]`; the count is per thread, because the harness runs
//! tests side by side. Beside the calls it keeps the bytes this thread
//! holds live and their high-water mark, so a test can assert a peak
//! footprint exactly instead of sampling the process's resident set.

// Each binary reads only the counters it asserts on.
#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Calls that obtained memory (`alloc`, `alloc_zeroed`, `realloc`) on
    /// this thread. Const-initialised and without a destructor, so
    /// touching it never allocates.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes obtained on this thread less bytes returned on it (memory
    /// freed by another thread than the one that allocated it moves the
    /// two threads' figures, not their sum).
    static LIVE: Cell<i64> = const { Cell::new(0) };
    /// The most `LIVE` has been since the last [`reset_high_water`].
    static HIGH_WATER: Cell<i64> = const { Cell::new(0) };
}

pub struct Counting;

fn count() {
    // A thread being torn down may allocate after its locals are gone.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// Move this thread's live bytes by `delta` and raise the high water.
fn hold(delta: i64) {
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + delta);
        let _ = HIGH_WATER.try_with(|high| high.set(high.get().max(live.get())));
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        hold(layout.size() as i64);
        // SAFETY: the caller's contract, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        hold(layout.size() as i64);
        // SAFETY: the caller's contract, passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        hold(new_size as i64 - layout.size() as i64);
        // SAFETY: the caller's contract, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        hold(-(layout.size() as i64));
        // SAFETY: the caller's contract, passed through.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocating calls made on this thread so far.
pub fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Bytes this thread holds live.
pub fn live_bytes() -> i64 {
    LIVE.with(Cell::get)
}

/// Start a new high-water mark at the bytes held now.
pub fn reset_high_water() {
    HIGH_WATER.with(|high| high.set(live_bytes()));
}

/// The most bytes this thread has held live since [`reset_high_water`].
pub fn high_water_bytes() -> i64 {
    HIGH_WATER.with(Cell::get)
}
