//! Heap accounting: the benchmark's global allocator forwards to the
//! system allocator and keeps the process's live heap bytes and their
//! peak, so a run can report the most heap a service held. Resident-size
//! readings (`VmHWM`) of a service this small move with glibc's arena and
//! page reuse between runs of the same code; the byte count does not.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering::Relaxed};

pub struct Counting;

#[global_allocator]
static ALLOC: Counting = Counting;

/// Live heap bytes (allocated, not yet freed).
static LIVE: AtomicIsize = AtomicIsize::new(0);

/// Highest `LIVE` since the last [`reset_peak`].
static PEAK: AtomicIsize = AtomicIsize::new(0);

fn grow(by: isize) {
    let now = LIVE.fetch_add(by, Relaxed) + by;
    if now > PEAK.load(Relaxed) {
        PEAK.fetch_max(now, Relaxed);
    }
}

// SAFETY: every call forwards to `System` with the caller's arguments; the
// counters only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grow(layout.size() as isize);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grow(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        LIVE.fetch_sub(layout.size() as isize, Relaxed);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let q = System.realloc(p, layout, new_size);
        if !q.is_null() {
            grow(new_size as isize - layout.size() as isize);
        }
        q
    }
}

/// Starts a peak measurement: resets the peak to the live heap now and
/// returns it. Call it while no other thread allocates.
pub fn reset_peak() -> isize {
    let now = LIVE.load(Relaxed);
    PEAK.store(now, Relaxed);
    now
}

/// Peak live heap since the last [`reset_peak`], less `base`, in MiB.
pub fn peak_mib_since(base: isize) -> f64 {
    (PEAK.load(Relaxed) - base) as f64 / (1024.0 * 1024.0)
}
