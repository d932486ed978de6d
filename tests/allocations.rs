//! Serial alpha-beta allocates a number of times that does not grow with
//! the tree: every node's moves go on one move stack per search.
//!
//! The test binary counts every allocation through its own global
//! allocator, so it holds exactly one test: a second one running on
//! another thread would count into the same total.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use gametree::random::RandomTreeSpec;
use search_serial::{alphabeta, OrderPolicy, SearchResult};

/// The system allocator, counting allocations and reallocations.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call forwards to `System` with the caller's arguments.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The search's result and the allocations it made.
fn counted(height: u32) -> (SearchResult, u64) {
    let root = RandomTreeSpec::new(1, 4, height).root();
    let before = ALLOCATIONS.load(Relaxed);
    let r = alphabeta(&root, height, OrderPolicy::NATURAL);
    (r, ALLOCATIONS.load(Relaxed) - before)
}

#[test]
fn alphabeta_allocations_do_not_grow_with_the_tree() {
    let (small, small_allocs) = counted(4);
    let (large, large_allocs) = counted(10);
    assert!(
        large.stats.interior_nodes > 100 * small.stats.interior_nodes,
        "the trees must differ in size: {} vs {} interior nodes",
        large.stats.interior_nodes,
        small.stats.interior_nodes
    );
    // The move stack starts with room for a few plies and doubles when a
    // deeper path needs more: a handful of allocations at any size.
    assert!(small_allocs <= 4, "height 4: {small_allocs} allocations");
    assert!(
        large_allocs <= 4,
        "height 10: {large_allocs} allocations for {} interior nodes",
        large.stats.interior_nodes
    );
}
