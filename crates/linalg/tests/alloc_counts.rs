//! Exact allocation counts of the query-batch paths every serving flush
//! runs. A counting global allocator tallies allocations per thread (a
//! `const`-initialised thread-local, so tests running in parallel never
//! see each other's allocations).

use hd_linalg::{BitVector, QueryBatch, QueryBatchBuilder};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// The system allocator, counting every allocation and reallocation on
/// the calling thread.
struct Counting;

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `f`'s result and the allocations it made on this thread.
fn allocations<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

#[test]
fn steady_state_take_batch_makes_two_allocations() {
    let query = BitVector::from_bools(&[true; 130]);
    let mut builder = QueryBatchBuilder::with_capacity(130, 8);
    for cycle in 0..3 {
        for _ in 0..8 {
            builder.push(query.as_view()).unwrap();
        }
        let (batch, n) = allocations(|| builder.take_batch().unwrap());
        assert_eq!((batch.len(), batch.dim()), (8, 130));
        // The replacement buffer and the `Arc<BitMatrix>`.
        assert_eq!(n, 2, "cycle {cycle}");
    }
}

#[test]
fn word_segment_makes_no_allocation() {
    let batch = QueryBatch::from_vectors(&[BitVector::from_bools(&[true; 200])]).unwrap();
    let (segment, n) = allocations(|| batch.word_segment(64, 136).unwrap());
    assert_eq!(segment.query(0), batch.query(0).slice(64, 136));
    assert_eq!(n, 0);
}

#[test]
fn segments_on_the_word_grid_allocate_only_their_list() {
    let batch = QueryBatch::from_vectors(&[BitVector::from_bools(&[true; 256])]).unwrap();
    let (segments, n) = allocations(|| batch.segments(64).unwrap());
    assert_eq!(segments.len(), 4);
    assert_eq!(n, 1);
}
