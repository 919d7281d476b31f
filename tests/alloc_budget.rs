//! Peak-heap budgets for the experiments with the largest heaps: F10's
//! route table and the corpora of F2 and F7.
//!
//! The binary's global allocator forwards every call to [`System`] and
//! keeps a count of the bytes live and the most ever live. Each
//! experiment runs once to warm up (the runner's pooled threads, lazily
//! built tables), then once measured; its peak is the most bytes live
//! during the measured run above those live when it began, its returned
//! output included. The counts are exact, so the budgets hold on any
//! host whatever its speed. The file holds one `#[test]` so that no other
//! test allocates beside the measured runs.

use humnet::core::experiments::ExperimentId;
use humnet::resilience::FaultPlan;
use humnet::telemetry::Telemetry;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};

/// [`System`], counting live bytes and their high-water mark.
struct PeakCounter;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, SeqCst) + bytes;
    PEAK.fetch_max(live, SeqCst);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes, SeqCst);
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counters only read the sizes.
unsafe impl GlobalAlloc for PeakCounter {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let moved = System.realloc(ptr, layout, new_size);
        if !moved.is_null() {
            if new_size > layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        moved
    }
}

#[global_allocator]
static ALLOC: PeakCounter = PeakCounter;

/// The most bytes live while `id` runs, above those live when it starts.
fn peak_of(id: ExperimentId) -> usize {
    let tel = Telemetry::disabled();
    let base = LIVE.load(SeqCst);
    PEAK.store(base, SeqCst);
    let out = id.run_instrumented(&FaultPlan::none(), &tel);
    let peak = PEAK.load(SeqCst) - base;
    out.expect("the experiment runs");
    peak
}

/// F10's bytes outside its per-worker scratch: the route table (1.86 MB
/// of 4-byte cells for 232 destinations × 2,000 ASes), the frozen
/// topology and the sampled demands.
const F10_BASE: usize = 2_150_000;

/// One routing worker's scratch on F10's 2,000 ASes: six `u32` rows
/// (48,000 bytes) and the provider-cone queue.
const F10_PER_WORKER: usize = 75_000;

/// F10 routes on one worker per core, at most 8.
const F10_MAX_WORKERS: usize = 8;

/// A default corpus (1,600 papers) with its audit.
const CORPUS_BUDGET: usize = 1_500_000;

#[test]
fn largest_experiments_hold_only_what_they_read() {
    let cases = [ExperimentId::F10, ExperimentId::F2, ExperimentId::F7];
    for id in cases {
        peak_of(id);
    }
    let workers = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(F10_MAX_WORKERS);
    let mut over = Vec::new();
    for id in cases {
        let budget = match id {
            ExperimentId::F10 => F10_BASE + workers * F10_PER_WORKER,
            _ => CORPUS_BUDGET,
        };
        let peak = peak_of(id);
        eprintln!("peak heap: {} {peak} bytes (budget {budget})", id.code());
        if peak > budget {
            over.push(format!(
                "{} peaked at {peak} bytes, over {budget}",
                id.code()
            ));
        }
    }
    assert!(over.is_empty(), "{}", over.join("; "));
}
