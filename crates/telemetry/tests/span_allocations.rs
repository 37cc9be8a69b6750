//! Steady-state allocation pin for span bookkeeping.
//!
//! A closing span joins its path in a reused thread-local buffer and looks
//! it up in the registry by `&str`, allocating a key only the first time a
//! path is seen. So once every path exists, entering and leaving spans
//! with telemetry installed allocates nothing — and none of a span's exit
//! cost, which falls outside its own clock, goes to the allocator.
//!
//! The counting allocator is global, so this file holds one test and gets
//! a test binary of its own. It counts only allocations made on the
//! test's own thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

use hero_telemetry::{self as telemetry, TelemetryConfig};

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    // Const-initialized and without a destructor, so reading it inside
    // the allocator never allocates.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

struct Counting;

impl Counting {
    fn note() {
        if COUNTING.with(Cell::get) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
    }
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::note();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::note();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::note();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn nested_pair() {
    let _outer = telemetry::span("rollout");
    let _inner = telemetry::span("env_step");
}

#[test]
fn nested_spans_allocate_nothing_after_warmup() {
    let guard = telemetry::install(TelemetryConfig::default());
    // Warm-up: the first pass allocates both paths' registry keys, the
    // span stack and the path buffer; the span histograms allocate until
    // their reservoirs (1024 samples each) are full.
    for _ in 0..2_000 {
        nested_pair();
    }
    COUNTING.with(|c| c.set(true));
    for _ in 0..1_000 {
        nested_pair();
    }
    COUNTING.with(|c| c.set(false));
    let allocations = ALLOCATIONS.load(Ordering::Relaxed);
    let snap = guard.snapshot();
    assert_eq!(snap.spans["rollout/env_step"].count, 3_000);
    assert_eq!(
        allocations, 0,
        "1000 warm nested span pairs made {allocations} allocations"
    );
}
