//! A counting global allocator, per thread, for tests that bound a
//! decoder's heap use. Include it with `#[path]` into a test target; it
//! installs itself as that target's global allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

// Per thread, so libtest's other threads cannot land inside a measured
// window. Const-initialized, so reading them never allocates; `try_with`
// because the allocator also runs while a thread's locals are torn down.
thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn grow(by: isize) {
    let _ = LIVE.try_with(|live| {
        let now = live.get() + by;
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

// SAFETY: every call is delegated unchanged to `System`, which upholds the
// `GlobalAlloc` contract; counting touches only thread-local `Cell`s.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size() as isize);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        grow(-(layout.size() as isize));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grow(new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Run `f`; return its result and the most heap this thread held live at
/// once meanwhile, beyond what was live when `f` started (a realloc counts
/// as a resize).
#[allow(dead_code)]
pub fn peak_of<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(base));
    let out = f();
    let peak = PEAK.with(Cell::get) - base;
    (out, peak.max(0) as usize)
}

/// Run `f`; return its result and how much this thread's live heap grew
/// meanwhile (negative when `f` freed more than it allocated).
#[allow(dead_code)]
pub fn net_of<T>(f: impl FnOnce() -> T) -> (T, isize) {
    let base = LIVE.with(Cell::get);
    let out = f();
    (out, LIVE.with(Cell::get) - base)
}
