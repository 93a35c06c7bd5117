//! Counting wrapper around the system allocator: allocation count, live
//! bytes and their high-water mark.
//!
//! Always installed, on both sides of any comparison, so its (small) cost
//! is part of every number alike. Lives in the benchmark binary because
//! the workspace libraries are `forbid(unsafe_code)` and a `GlobalAlloc`
//! impl is necessarily unsafe.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

thread_local! {
    // Per thread, so that a count taken around a call is that call's own:
    // under `cargo test` the harness allocates on other threads meanwhile.
    // Const-initialised and without a destructor: reading it allocates
    // nothing and works for as long as the thread does.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// Relaxed: the byte counters are statistics; they publish no other data.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct CountingAlloc;

fn counted() {
    ALLOCS.with(|n| n.set(n.get() + 1));
}

fn grew(by: usize) {
    let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every call is delegated verbatim to `System`, which upholds the
// `GlobalAlloc` contract; the atomic bookkeeping around the delegated
// calls never touches the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: callers uphold the `GlobalAlloc` preconditions (valid,
    // non-zero-size `layout`); we forward them to `System` unchanged.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: `layout` is the caller's layout, forwarded unchanged.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            counted();
            grew(layout.size());
        }
        p
    }

    // SAFETY: same preconditions as `alloc`, forwarded unchanged.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: `layout` is the caller's layout, forwarded unchanged.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            counted();
            grew(layout.size());
        }
        p
    }

    // SAFETY: callers pass a `ptr`/`layout` pair previously returned by
    // this allocator, as the trait contract requires.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr`/`layout` come from a matching allocation above.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: callers pass a live `ptr` with its `layout` and a non-zero
    // `new_size` that does not overflow when rounded up to the alignment,
    // as the trait contract requires. Forwarding (not the default
    // alloc-copy-free) keeps in-place growth as cheap as without counting.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: all three arguments are the caller's, forwarded unchanged.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            counted();
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations (incl. reallocations) this thread has made so far.
pub fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Heap bytes live right now.
pub fn live_bytes() -> usize {
    LIVE.load(Ordering::Relaxed)
}

/// Resets the high-water mark to the currently live bytes.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Peak live heap bytes since the last [`reset_peak`].
pub fn peak_bytes() -> usize {
    PEAK.load(Ordering::Relaxed)
}
