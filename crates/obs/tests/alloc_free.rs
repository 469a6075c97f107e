//! The always-on request path records into the flight recorder without
//! touching the heap: once a thread's ring has filled to its budget,
//! static-named phase spans and hook-recorded shard waits make zero
//! allocations, and the ring stays within its byte budget.
//!
//! A counting `#[global_allocator]` counts only on the test's own
//! thread while armed, so the harness's threads add no noise.

use idbox_obs::flight::{self, FlightEvent};
use idbox_obs::{next_trace_id, observe_span, Phase, SlowOpLog};
use parking_lot::{set_lock_profiling, DomainProfile};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc() {
    let _ = ARMED.try_with(|armed| {
        if armed.get() {
            ALLOCS.with(|n| n.set(n.get() + 1));
        }
    });
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Allocations made on this thread while running `f`.
fn allocs_during(f: impl FnOnce()) -> u64 {
    ALLOCS.with(|n| n.set(0));
    ARMED.with(|a| a.set(true));
    f();
    ARMED.with(|a| a.set(false));
    ALLOCS.with(|n| n.get())
}

#[test]
fn static_spans_and_shard_waits_allocate_nothing_once_the_ring_is_full() {
    set_lock_profiling(true);
    flight::set_flight_enabled(true);
    flight::install_lock_hook();
    let budget = flight::ring_budget_bytes();
    assert!(budget > 0, "recording must be on for this test");

    // Nothing here is slow enough for the slow-op ring.
    let slow_ops = SlowOpLog::new(8, u64::MAX);
    let trace = next_trace_id();
    flight::set_current_trace(Some(trace));
    let vfs = DomainProfile::register("alloc-test-vfs", 4);
    // A try that misses takes the contended path: the hook records a
    // `shard` event for the parked trace.
    let shard_wait = |i: usize| vfs.acquire(i % 4, || None::<()>, || ());
    let spans = |i: usize| {
        let (phase, name) = match i % 3 {
            0 => (Phase::Rpc, "stat"),
            1 => (Phase::Policy, "open"),
            _ => (Phase::Dispatch, "pread"),
        };
        observe_span(
            &slow_ops,
            Some(trace),
            phase,
            name,
            "fred",
            1_000 + i as u64,
        );
    };

    // Fill the ring well past its budget with the same event kinds.
    let fill = 2 * budget / std::mem::size_of::<FlightEvent>() + 1;
    for i in 0..fill {
        spans(i);
        shard_wait(i);
    }

    let allocs = allocs_during(|| {
        for i in 0..10_000 {
            spans(i);
            shard_wait(i);
        }
    });
    flight::set_current_trace(None);
    assert_eq!(
        allocs, 0,
        "10k spans + 10k shard waits allocated {allocs} times"
    );
    assert!(slow_ops.is_empty());

    for (tid, events, bytes) in flight::ring_usage() {
        assert!(
            bytes <= budget,
            "ring tid={tid} holds {bytes} bytes ({events} events) over budget {budget}"
        );
    }
    // The waits landed as `shard` events carrying the parked trace,
    // named `domain/shard` when rendered.
    let events = flight::snapshot_since(0);
    assert!(events
        .iter()
        .any(|e| e.plane == "shard" && e.trace == Some(trace) && e.name == "alloc-test-vfs/3"));
    assert!(flight::render_chrome_trace(&events).contains("\"name\":\"alloc-test-vfs/3\""));
}
