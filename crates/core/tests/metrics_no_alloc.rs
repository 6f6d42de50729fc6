//! Proof that a *disabled* metrics registry is free: recording into it
//! performs zero heap allocations. This file deliberately contains a
//! single test — the counting allocator is process-global, and a
//! concurrent test in the same binary would pollute the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use tsm_core::metrics::{Counter, Hist, MetricsRegistry, SearchTally};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

#[test]
fn disabled_registry_records_without_allocating() {
    let metrics = MetricsRegistry::disabled();
    let tally = SearchTally {
        windows_scored: 10,
        windows_abandoned: 4,
        windows_completed: 6,
        windows_state_mismatch: 2,
        bucket_candidates: 20,
        amp_band_candidates: 15,
        dur_band_candidates: 12,
    };

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for _ in 0..1000 {
        metrics.incr(Counter::Searches);
        metrics.add(Counter::WindowsScored, 17);
        metrics.record_max(Counter::CohortBacklogHwm, 42);
        metrics.observe_ns(Hist::TickLatency, 12_345);
        let started = metrics.start();
        assert!(started.is_none(), "disabled start() must not read a clock");
        metrics.observe_since(Hist::SearchLatency, started);
        metrics.record_search(&tally);
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "disabled metrics path allocated {} times",
        after - before
    );

    // Sanity check on the instrument itself: an enabled registry *does*
    // allocate (the shared state), so the counter is actually wired up.
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let enabled = MetricsRegistry::enabled();
    enabled.incr(Counter::Searches);
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert!(after > before, "counting allocator not engaged");
}
