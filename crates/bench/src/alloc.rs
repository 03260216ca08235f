//! A counting global allocator for the allocations-per-fact column of
//! experiment F7.
//!
//! Every binary and test that links this crate routes heap traffic through
//! [`CountingAlloc`]: one relaxed atomic increment per `alloc`/`realloc`
//! on top of the system allocator. The cost is a few nanoseconds per
//! allocation and applies equally to both sides of every before/after
//! comparison, so relative timings are unaffected.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// System allocator wrapper that counts allocation events (not bytes).
pub struct CountingAlloc;

// SAFETY: defers entirely to `System`; the counter is a relaxed atomic
// with no effect on allocation behaviour.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocation events since process start (monotone; diff around a region
/// of interest to count its allocations).
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_advances_on_allocation() {
        let before = allocations();
        let v: Vec<u64> = (0..1024).collect();
        assert!(v.len() == 1024);
        assert!(allocations() > before);
    }
}
