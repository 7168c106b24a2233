//! Live heap bytes of the process, counted by a global allocator that
//! wraps the system one.
//!
//! The peak resident set of a run with two worker threads changed by up
//! to half from one run to the next (49 or 65 MiB for `paper-full`, 87 or
//! 131 MiB for `store`), with the allocator's arenas, not with the
//! program's demand. The peak of the bytes the program holds allocated
//! does not depend on where the allocator puts them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// Bytes live now, and the most live at once since the last reset.
struct Counter {
    live: AtomicUsize,
    peak: AtomicUsize,
}

impl Counter {
    const fn new() -> Counter {
        Counter {
            live: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
        }
    }

    fn grew(&self, by: usize) {
        let now = self.live.fetch_add(by, Relaxed) + by;
        self.peak.fetch_max(now, Relaxed);
    }

    fn shrank(&self, by: usize) {
        self.live.fetch_sub(by, Relaxed);
    }

    fn reset_peak(&self) {
        self.peak.store(self.live.load(Relaxed), Relaxed);
    }

    fn peak(&self) -> usize {
        self.peak.load(Relaxed)
    }
}

static COUNTER: Counter = Counter::new();

/// [`System`], counting the bytes it hands out.
pub struct Counting;

// SAFETY: every call is forwarded unchanged to `System`; the counter only
// observes sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            COUNTER.grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            COUNTER.grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        COUNTER.shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            COUNTER.shrank(layout.size());
            COUNTER.grew(new_size);
        }
        p
    }
}

/// Starts a new peak from the bytes live now.
pub fn reset_peak() {
    COUNTER.reset_peak();
}

/// The most bytes live at once since the last [`reset_peak`], in MiB.
pub fn peak_mb() -> f64 {
    COUNTER.peak() as f64 / (1024.0 * 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_follows_live_bytes_since_the_reset() {
        let c = Counter::new();
        c.grew(100);
        c.grew(50);
        c.shrank(120);
        assert_eq!(c.peak(), 150);
        c.reset_peak();
        assert_eq!(c.peak(), 30, "a reset starts from the bytes live now");
        c.grew(10);
        c.shrank(40);
        assert_eq!(c.peak(), 40);
    }

    #[test]
    fn the_global_allocator_counts() {
        let big = vec![1u8; 64 << 20];
        assert!(COUNTER.live.load(Relaxed) >= 64 << 20);
        assert!(COUNTER.peak() >= 64 << 20);
        drop(big);
    }
}
