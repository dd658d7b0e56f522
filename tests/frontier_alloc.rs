//! The tree search's frontier does not allocate per node: a tree search over a
//! 5 000-entity index performs fewer heap allocations than a tenth of the
//! nodes it visits.
//!
//! What remains is logarithmic or per-query, not per-node: the frontier heap
//! and the caps slab double a handful of times, each (level, hash function)
//! pair the search meets sorts one vector of query-cell hashes, and the
//! answer is one vector.  Before the slab, the dense hash table and
//! `upper_bound_into`, every pushed child cost two allocations (its caps and
//! the `Vec<LevelStat>` of its bound).
//!
//! The counter is per thread, so the harness's own threads cannot disturb it;
//! this file holds one test for the same reason.

use digital_traces::index::testkit::{HierarchySpec, UniformConfig, Workload};
use digital_traces::index::{IndexConfig, QueryOptions};
use digital_traces::EntityId;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations (including growing reallocations) made by this thread.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

struct CountingAlloc;

fn count_one() {
    // `try_with`: a thread may still allocate while its locals are torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`; the only addition is
// a counter in a const-initialised, destructor-free thread local, which
// neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's contract for `alloc`, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: the caller's contract for `realloc`, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

#[test]
fn a_warmed_tree_search_allocates_far_less_than_once_per_node() {
    let w = Workload::uniform(UniformConfig {
        entities: 5_000,
        visits: 6,
        time_slots: 96,
        hierarchy: HierarchySpec::new(3, &[3, 3, 3]),
        seed: 7,
    });
    let index = w.build_index(IndexConfig::with_hash_functions(32));
    let snapshot = index.snapshot();
    let measure = w.measure();
    let query = EntityId(1_234);
    let seq = snapshot.sequence(query).expect("the query entity is indexed");
    let search =
        || snapshot.top_k_for_sequence(seq, Some(query), 10, &measure, QueryOptions::default());

    // Warm whatever the first search initialises lazily, then count one.
    let (warm_answers, _) = search().unwrap();
    let before = ALLOCATIONS.with(Cell::get);
    let (answers, stats) = search().unwrap();
    let allocations = ALLOCATIONS.with(Cell::get) - before;

    assert_eq!(answers, warm_answers);
    assert!(stats.nodes_visited > 5_000, "a search worth measuring: {}", stats.nodes_visited);
    assert!(
        allocations < stats.nodes_visited / 10,
        "{allocations} allocations for {} visited nodes",
        stats.nodes_visited
    );
}
