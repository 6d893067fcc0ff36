//! A counting allocator shared by the test binaries that assert allocation
//! counts (`train_allocations`, `miss_allocations`, `predict_allocations`,
//! `request_budget`).
//! Each declares this module and installs [`Counting`] as its own
//! `#[global_allocator]`; the count is per thread, because the harness runs
//! tests side by side.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Calls that obtained memory (`alloc`, `alloc_zeroed`, `realloc`) on
    /// this thread. Const-initialised and without a destructor, so
    /// touching it never allocates.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

pub struct Counting;

fn count() {
    // A thread being torn down may allocate after its locals are gone.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's contract, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's contract, passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: the caller's contract, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract, passed through.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocating calls made on this thread so far.
pub fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}
