//! A counting global allocator: `System`, plus per-thread counters of
//! allocation calls and bytes requested. The traced run reads the
//! counters before and after a layer call to charge that call's
//! allocations to the layer; the untraced run never reads them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The benchmark binary's global allocator.
pub struct Counting;

thread_local! {
    // `const` initialisation with a `Copy` payload: no lazy set-up and no
    // destructor registration, so touching it never allocates.
    static COUNTS: Cell<AllocCounts> = const { Cell::new(AllocCounts { allocs: 0, bytes: 0 }) };
}

/// Allocation calls (`alloc`, `alloc_zeroed`, `realloc`) and the bytes
/// they requested, counted on the current thread.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllocCounts {
    pub allocs: u64,
    pub bytes: u64,
}

impl AllocCounts {
    /// The counts accumulated since `earlier` was read.
    pub fn since(self, earlier: AllocCounts) -> AllocCounts {
        AllocCounts {
            allocs: self.allocs - earlier.allocs,
            bytes: self.bytes - earlier.bytes,
        }
    }
}

/// The current thread's running totals.
pub fn thread_counts() -> AllocCounts {
    COUNTS.with(Cell::get)
}

fn note(bytes: usize) {
    // `try_with`: during thread teardown the slot may be gone; such
    // allocations are simply not counted.
    let _ = COUNTS.try_with(|c| {
        let mut v = c.get();
        v.allocs += 1;
        v.bytes += bytes as u64;
        c.set(v);
    });
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the only extra work is
// updating a thread-local `Cell`, which never allocates or unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract and
        // `ptr` came from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}
