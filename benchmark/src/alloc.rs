//! Counting global allocator: allocation count, bytes, and the high-water
//! mark of live bytes, over a window the harness opens and closes.
//!
//! Counting is off during timed reps — one relaxed load per allocation —
//! because the shared counters would otherwise bounce between the two
//! cores of `beacon_par2` and tax exactly the workload that measures
//! parallel speed-up. A window is opened on state that was allocated inside
//! it (the memory pass rebuilds the inputs first), so live bytes are exact.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering::Relaxed};

/// The allocator installed by `lib.rs`.
pub struct Counting;

// Statistics only: none of these publishes other data, so `Relaxed`.
static ENABLED: AtomicBool = AtomicBool::new(false);
static COUNT: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

fn on_alloc(size: usize) {
    COUNT.fetch_add(1, Relaxed);
    BYTES.fetch_add(size as u64, Relaxed);
    let live = LIVE.fetch_add(size as i64, Relaxed) + size as i64;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters never influence the returned pointers.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ENABLED.load(Relaxed) {
            on_alloc(layout.size());
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ENABLED.load(Relaxed) {
            on_alloc(layout.size());
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ENABLED.load(Relaxed) {
            LIVE.fetch_sub(layout.size() as i64, Relaxed);
        }
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ENABLED.load(Relaxed) {
            LIVE.fetch_sub(layout.size() as i64, Relaxed);
            on_alloc(new_size);
        }
        System.realloc(ptr, layout, new_size)
    }
}

/// What one counting window saw.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Allocations (a `realloc` counts as one).
    pub count: u64,
    /// Bytes requested.
    pub bytes: u64,
    /// Bytes live now, relative to the window's start.
    pub live: i64,
    /// High-water mark of `live`.
    pub peak: i64,
}

/// Zeroes the counters and starts counting.
pub fn start() {
    COUNT.store(0, Relaxed);
    BYTES.store(0, Relaxed);
    LIVE.store(0, Relaxed);
    PEAK.store(0, Relaxed);
    ENABLED.store(true, Relaxed);
}

/// The counters as of now; counting continues.
pub fn snapshot() -> Snapshot {
    Snapshot {
        count: COUNT.load(Relaxed),
        bytes: BYTES.load(Relaxed),
        live: LIVE.load(Relaxed),
        peak: PEAK.load(Relaxed),
    }
}

/// Stops counting and returns the window's totals.
pub fn stop() -> Snapshot {
    ENABLED.store(false, Relaxed);
    snapshot()
}

/// Runs `f` in its own counting window. Windows do not nest.
pub fn counted<T>(f: impl FnOnce() -> T) -> (T, Snapshot) {
    start();
    let out = f();
    (out, stop())
}
