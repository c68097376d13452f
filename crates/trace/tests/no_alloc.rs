//! The acceptance guard for the disabled fast path: with tracing off (the
//! default), emitting through `event!` performs **zero heap allocations**
//! and the enablement check is a single relaxed atomic load (see
//! `sea_trace::enabled`). Proven here with a counting global allocator.

use sea_trace::{event, Level, Subsystem};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

// Counted per thread: the two tests below are serialized by a lock, but
// libtest's own threads are not, and a process-wide count would let their
// allocations land inside a measured window. Const-initialized, so reading
// it never allocates itself; `try_with` because the allocator also runs
// while a thread's locals are being torn down.
thread_local! {
    static THREAD_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    let _ = THREAD_ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

/// Allocations made so far by the calling thread.
fn thread_allocations() -> u64 {
    THREAD_ALLOCATIONS.with(Cell::get)
}

// SAFETY: every call is delegated unchanged to `System`, which upholds the
// `GlobalAlloc` contract; counting touches only a thread-local `Cell`.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

// Both tests flip the process-wide filter; serialize them.
static FILTER_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[test]
fn disabled_tracing_allocates_nothing_per_event() {
    let _lock = FILTER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    sea_trace::disable_all();
    // Warm anything lazily initialized on the first check.
    event!(Subsystem::Microarch, Level::Debug, "warmup"; "k" => 1u64);

    let before = thread_allocations();
    for i in 0..10_000u64 {
        event!(Subsystem::Microarch, Level::Debug, "hot.path";
               cycle = i;
               "bit" => i, "component" => "L1D", "owned_would_alloc" => i * 3);
        event!(Subsystem::Injection, Level::Info, "hot.path2"; "x" => i);
    }
    let after = thread_allocations();
    assert_eq!(
        after - before,
        0,
        "disabled event! must not allocate (got {} allocations over 20k events)",
        after - before
    );
}

#[test]
fn enabled_without_sink_still_cheap_per_event_type() {
    let _lock = FILTER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // With a level set but no sink installed, events are built and dropped
    // at ring flush; this is not the hot path, but it must not run away:
    // the ring reuses its buffer, so steady-state allocation is bounded by
    // the event payloads themselves, not the collection machinery.
    sea_trace::set_level_all(Level::Trace);
    for i in 0..1000u64 {
        event!(Subsystem::Harness, Level::Trace, "warm.ring"; "i" => i);
    }
    sea_trace::flush_thread();
    let before = thread_allocations();
    for i in 0..1000u64 {
        event!(Subsystem::Harness, Level::Trace, "steady.ring"; "i" => i);
    }
    sea_trace::flush_thread();
    let per_event = (thread_allocations() - before) as f64 / 1000.0;
    // One Vec-of-fields allocation per event is expected; the ring and
    // delivery must add nothing that scales.
    assert!(
        per_event <= 4.0,
        "unexpected allocation rate: {per_event}/event"
    );
    sea_trace::disable_all();
}
