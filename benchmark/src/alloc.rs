//! The counting allocator behind the traced run's `allocs_per_*` and
//! `*_heap_mb` metrics.
//!
//! It wraps [`System`] and is compiled into every run, but counts only
//! while switched on (the traced rounds of `--trace 1`): an untraced run
//! pays one relaxed load per allocation.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};

/// The process-wide allocator.
pub struct Counting;

/// A statistic that publishes nothing, hence `Relaxed`.
static ON: AtomicBool = AtomicBool::new(false);

// The counts are the measuring thread's own: the benchmark drives the
// library from one thread, and plain thread-local cells keep counting
// off the bus (atomic counters cost path vector, which allocates most,
// a quarter of its run time).
thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes allocated minus bytes freed while counting. Signed: memory
    /// allocated before counting began may be freed after.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters touch no
// allocator state and never allocate (const-initialised `Cell`s of plain
// integers need neither lazy initialisation nor a destructor).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ON.load(Relaxed) {
            grew(1, layout.size() as i64);
        }
        // SAFETY: the caller's obligations for `alloc` are passed on as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ON.load(Relaxed) {
            grew(0, -(layout.size() as i64));
        }
        // SAFETY: `ptr` came from `System.alloc`/`realloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ON.load(Relaxed) {
            grew(1, new_size as i64 - layout.size() as i64);
        }
        // SAFETY: the caller's obligations for `realloc` are passed on as is.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Counts `calls` allocation calls and `bytes` of heap growth. `try_with`:
/// a thread being torn down may free memory after its cells are gone.
fn grew(calls: u64, bytes: i64) {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + calls));
    let live = LIVE.try_with(|c| {
        c.set(c.get() + bytes);
        c.get()
    });
    if let Ok(live) = live {
        let _ = PEAK.try_with(|c| c.set(c.get().max(live)));
    }
}

/// Switches counting on or off.
pub fn set_counting(on: bool) {
    ON.store(on, Relaxed);
}

/// Allocation calls (alloc + realloc) this thread has counted so far.
pub fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Starts a heap-growth measurement; pass the mark to [`peak_growth_mb`].
pub fn mark() -> i64 {
    let live = LIVE.with(Cell::get);
    PEAK.with(|c| c.set(live));
    live
}

/// Largest growth of this thread's live heap bytes since `mark`, in MB
/// (0 when counting is off).
pub fn peak_growth_mb(mark: i64) -> f64 {
    (PEAK.with(Cell::get) - mark).max(0) as f64 / 1e6
}
