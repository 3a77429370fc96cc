//! The telemetry record path allocates nothing in steady state.
//!
//! A counting global allocator wraps the system allocator; after the
//! recorder is warmed (the event ring has wrapped, so every later push
//! overwrites in place), a burst of counter increments, histogram
//! observations, and trace events must perform exactly zero heap
//! allocations — the property that makes per-packet recording safe on
//! the receive path.
//!
//! This file deliberately holds a single `#[test]`: the allocation
//! counter is process-global, and a sibling test running on another
//! thread would pollute the measurement. Even so, the libtest harness
//! itself runs threads in this process and occasionally allocates
//! inside the measured window, so the measurement retries: a genuine
//! allocation in the record path would fire on every one of the
//! 10,000 loop iterations and fail all attempts, while harness noise
//! (a handful of allocations at a random moment) clears within a few.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use tcpdemux_telemetry::{CloseCause, Event, HistogramId, Recorder};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// Forward everything to the system allocator, counting every call that
// can acquire memory (alloc, alloc_zeroed, realloc).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// One measured attempt: warm a fresh recorder, then count allocations
/// across a 10,000-iteration record burst. Returns the allocation delta
/// after asserting the data really landed (the loop was not optimized
/// away).
fn measure_one_attempt() -> u64 {
    let recorder = Recorder::new();

    // Warm up: wrap the event ring so every subsequent push overwrites
    // an existing slot instead of growing the backing store.
    for _ in 0..2 * tcpdemux_telemetry::DEFAULT_RING_CAPACITY {
        recorder.event(Event::ConnOpen);
    }

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for i in 0..10_000u32 {
        recorder.demux_lookup(1 + i % 7, true, i % 2 == 0);
        recorder.observe(HistogramId::RtoTicks, 200 << (i % 5));
        recorder.event(Event::Retransmit { attempt: 1 + i % 3 });
        recorder.event(Event::ConnClose {
            cause: CloseCause::Graceful,
        });
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);

    let snapshot = recorder.snapshot();
    assert_eq!(snapshot.histogram(HistogramId::Examined).count(), 10_000);
    assert_eq!(snapshot.histogram(HistogramId::RtoTicks).count(), 10_000);

    after - before
}

#[test]
fn steady_state_recording_is_allocation_free() {
    const ATTEMPTS: usize = 5;
    let mut deltas = Vec::with_capacity(ATTEMPTS);
    for _ in 0..ATTEMPTS {
        let delta = measure_one_attempt();
        if delta == 0 {
            return;
        }
        deltas.push(delta);
    }
    panic!(
        "recording must not touch the heap in steady state: every \
         attempt saw allocations (deltas {deltas:?}); a real record-path \
         allocation would show up ~10,000 times per attempt"
    );
}
