//! The no-op collector is genuinely zero-cost: this test swaps in a
//! counting global allocator and asserts that a busy instrumentation
//! pattern — thousands of spans, counters, gauges, and `DpStats`
//! recordings against [`wsyn_obs::Collector::noop`] — performs **zero**
//! heap allocations. (The recording collector, by contrast, must
//! allocate; a companion assertion keeps the harness honest.)

// A `GlobalAlloc` cannot be written without `unsafe`; every block below
// carries its `// SAFETY:` justification (clippy's
// `undocumented_unsafe_blocks`).
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use wsyn_core::DpStats;
use wsyn_obs::Collector;

/// Forwards to the system allocator, counting allocation calls.
struct CountingAlloc;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: defers entirely to the system allocator; the only addition is
// a relaxed atomic counter increment, which has no effect on the
// returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: upholds the `GlobalAlloc` contract by delegating to `System`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // ORDERING: relaxed — a monotonically increasing event counter;
        // nothing synchronizes-with it, and the single-threaded test
        // reads it only after all increments.
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `layout` is forwarded unchanged to the system allocator.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: upholds the `GlobalAlloc` contract by delegating to `System`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `self.alloc`, which delegates to
        // `System`, with this same `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn exercise(obs: &Collector) {
    let stats = DpStats {
        states: 11,
        leaf_evals: 22,
        probes: 33,
        peak_live: 44,
    };
    for _ in 0..1_000 {
        let _sweep = obs.span("tau_sweep");
        for _ in 0..4 {
            let _row = obs.span("dp_row");
            obs.add("states", 3);
            obs.gauge_max("peak_live", 17);
        }
        obs.record_dp_stats(&stats);
    }
}

#[test]
fn noop_collector_never_allocates() {
    // Warm up whatever the test harness itself lazily allocates.
    exercise(&Collector::noop());

    // ORDERING: relaxed — same-thread reads of the counter; program
    // order alone gives before/after consistency.
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    exercise(&Collector::noop());
    // ORDERING: relaxed — same-thread read, see above.
    let noop_allocs = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(noop_allocs, 0, "no-op collector must not touch the heap");

    // Sanity: the counter is live — the same workload against a
    // recording collector must allocate.
    // ORDERING: relaxed — same-thread read, see above.
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let recording = Collector::recording();
    exercise(&recording);
    // ORDERING: relaxed — same-thread read, see above.
    let recording_allocs = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert!(
        recording_allocs > 0,
        "harness self-check: recording collector should allocate"
    );
    assert!(recording.snapshot().is_some());
}
