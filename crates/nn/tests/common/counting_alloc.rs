//! The counting `#[global_allocator]` of the allocation suites
//! (`alloc_steady_state`, `alloc_validation`). Each of those is one `#[test]`
//! in a file of its own, so no other test thread allocates while the
//! counters are being read. Not part of `common/mod.rs`: including this
//! file installs the allocator for the whole test binary.
#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

pub struct Counting;

pub static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
pub static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
/// High-water mark of `LIVE_BYTES` since the last [`peak_bytes_over`] began.
static PEAK_BYTES: AtomicUsize = AtomicUsize::new(0);

fn grew(by: usize) {
    let live = LIVE_BYTES.fetch_add(by, Ordering::Relaxed) + by;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are side effects only. A refused
// request (null) leaves the live bytes as they were.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        let moved = System.realloc(ptr, layout, new_size);
        if !moved.is_null() {
            grew(new_size);
            LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        }
        moved
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `work` and returns how far the process's live heap bytes rose above
/// where they stood when it started (every thread counted), with its result.
pub fn peak_bytes_over<T>(work: impl FnOnce() -> T) -> (usize, T) {
    let before = LIVE_BYTES.load(Ordering::Relaxed);
    PEAK_BYTES.store(before, Ordering::Relaxed);
    let result = work();
    (PEAK_BYTES.load(Ordering::Relaxed) - before, result)
}
