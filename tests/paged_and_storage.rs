//! Integration tests of the storage substrate with the index: paged queries,
//! buffer-pool behaviour under different memory budgets, and external-sort-based
//! store construction from generated mobility data.

use digital_traces::index::{IndexConfig, MinSigIndex, ShardedSnapshot};
use digital_traces::mobility_models::{HierarchyConfig, SynConfig, SynDataset};
use digital_traces::storage::{PagedTraceStore, PoolConfig, TraceRecord, PAGE_SIZE};
use digital_traces::{EntityId, PaperAdm};

fn dataset() -> SynDataset {
    SynDataset::generate(SynConfig {
        num_entities: 400,
        days: 4,
        hierarchy: HierarchyConfig { grid_side: 20, levels: 3, ..HierarchyConfig::default() },
        seed: 77,
        ..SynConfig::default()
    })
    .expect("generation succeeds")
}

#[test]
fn store_round_trips_every_generated_trace() {
    let dataset = dataset();
    let store = PagedTraceStore::build(&dataset.traces, 6);
    assert_eq!(store.num_entities(), dataset.traces.num_entities());
    assert_eq!(store.stats().records as usize, dataset.traces.total_presence_instances());
    let pool = store.pool(PoolConfig::default());
    for (entity, trace) in dataset.traces.iter() {
        let read = store.read_trace(&pool, entity).expect("entity stored");
        assert_eq!(read.len(), trace.len());
        assert_eq!(read.total_duration(), trace.total_duration());
    }
}

#[test]
fn paged_queries_match_in_memory_queries_on_mobility_data() {
    let dataset = dataset();
    let sp = dataset.sp_index();
    let index =
        MinSigIndex::build(sp, &dataset.traces, IndexConfig::with_hash_functions(64)).unwrap();
    let store = PagedTraceStore::build(&dataset.traces, 6);
    let pool = store.pool(PoolConfig::with_memory_fraction(store.data_bytes(), 0.3));
    let measure = PaperAdm::default_for(sp.height() as usize);
    let snapshot = ShardedSnapshot::from(index.snapshot());
    let session = snapshot.paged(&store, &pool);
    for query in dataset.query_entities(5, 13) {
        let (memory, _) = index.top_k(query, 10, &measure).unwrap();
        let (paged, stats) = session.top_k(query, 10, &measure).unwrap();
        assert_eq!(memory.len(), paged.len());
        for (a, b) in memory.iter().zip(paged.iter()) {
            assert!((a.degree - b.degree).abs() < 1e-9);
        }
        assert!(stats.entities_checked > 0);
    }
}

#[test]
fn tighter_memory_budgets_cost_more_simulated_io() {
    let dataset = dataset();
    let sp = dataset.sp_index();
    let index =
        MinSigIndex::build(sp, &dataset.traces, IndexConfig::with_hash_functions(64)).unwrap();
    let store = PagedTraceStore::build(&dataset.traces, 6);
    let measure = PaperAdm::default_for(sp.height() as usize);
    let queries = dataset.query_entities(10, 21);
    let snapshot = ShardedSnapshot::from(index.snapshot());

    let run = |fraction: f64| -> u64 {
        let pool = store.pool(PoolConfig::with_memory_fraction(store.data_bytes(), fraction));
        let session = snapshot.paged(&store, &pool);
        let mut total = 0u64;
        for _ in 0..2 {
            for &q in &queries {
                total += session.top_k(q, 10, &measure).unwrap().1.simulated_io_us;
            }
        }
        total
    };
    let tight = run(0.05);
    let roomy = run(1.0);
    assert!(tight >= roomy, "5% of memory must not be cheaper than 100% ({tight} vs {roomy})");
}

/// Pins are the caller's to take: a trace pinned through the store stays
/// resident while out-of-core queries sweep a one-frame pool (the pool
/// overcommits rather than evict it), the queries themselves pin nothing,
/// and releasing the pin leaves no frame pinned.
#[test]
fn a_pinned_trace_survives_paged_queries_that_pin_nothing() {
    let dataset = dataset();
    let sp = dataset.sp_index();
    let index =
        MinSigIndex::build(sp, &dataset.traces, IndexConfig::with_hash_functions(32)).unwrap();
    let store = PagedTraceStore::build(&dataset.traces, 6);
    let pool = store.pool(PoolConfig { capacity_bytes: PAGE_SIZE, ..PoolConfig::default() });
    let snapshot = ShardedSnapshot::from(index.snapshot());
    let session = snapshot.paged(&store, &pool);
    let measure = PaperAdm::default_for(sp.height() as usize);
    let queries = dataset.query_entities(4, 5);
    let held = store.trace_pages(queries[0]).unwrap();
    let pinned = store.pin_trace(&pool, queries[0]).expect("stored");
    let mut evictions = 0;
    for &query in &queries {
        evictions += session.top_k(query, 5, &measure).unwrap().1.pool_evictions;
        assert_eq!(pool.pinned_frames(), held.len(), "queries pin nothing and keep the pins");
    }
    assert!(evictions > 0, "the one-frame pool was swept");
    assert_eq!(pool.resident_count(held), held.len(), "the pinned trace stayed resident");
    drop(pinned);
    assert_eq!(pool.pinned_frames(), 0);
}

#[test]
fn external_sort_handles_interleaved_entity_records() {
    // Records from the generator arrive grouped by entity; shuffle them so the
    // sort actually has work to do, then verify the store still serves each
    // entity's full trace.
    let dataset = dataset();
    let mut records: Vec<TraceRecord> = dataset
        .traces
        .iter()
        .flat_map(|(_, t)| t.instances().iter().map(TraceRecord::from_presence))
        .collect();
    // Deterministic interleave.
    records.sort_by_key(|r| (r.start, r.entity));
    let store = PagedTraceStore::build_from_records(records, 4);
    assert!(store.stats().sort.initial_runs >= 1);
    let pool = store.pool(PoolConfig::default());
    for entity in dataset.traces.entities().take(50) {
        let expected = dataset.traces.trace(entity).unwrap();
        let read = store.read_trace(&pool, entity).expect("entity present");
        assert_eq!(read.len(), expected.len());
    }
    // An entity that never appears is absent.
    assert!(store.read_trace(&pool, EntityId(u64::MAX)).is_none());
}
