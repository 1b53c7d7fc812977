//! A counting wrapper around the system allocator: live bytes in large
//! blocks and their peak. Peak live heap is the memory metric, because
//! the process's peak resident set varies by tens of percent between
//! identical runs with how freed memory is spread over malloc's
//! per-thread arenas.
//!
//! Only blocks of at least [`COUNTED_BYTES`] are counted: traces,
//! packed columns, predictor tables and I/O buffers. Counting every
//! small block puts two contended atomic operations on the engines'
//! hot paths and doubles the time of a cold pass.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The allocator: [`System`] plus two counters.
pub struct Counting;

/// The smallest block the counters see.
pub const COUNTED_BYTES: usize = 4096;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    if bytes < COUNTED_BYTES {
        return;
    }
    // Statistics only; nothing is published through them, so Relaxed.
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrank(bytes: usize) {
    if bytes < COUNTED_BYTES {
        return;
    }
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System`'s guarantees carry over unchanged; the
// counters never touch the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller passes a block this allocator returned,
        // with its layout.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            shrank(layout.size());
            grew(new_size);
        }
        new
    }
}

/// The highest live heap in counted blocks seen so far, in MiB.
pub fn peak_mib() -> f64 {
    PEAK.load(Ordering::Relaxed) as f64 / f64::from(1u32 << 20)
}
