//! Black-box conformance of the **out-of-core** sharded query paths: for
//! random populations, arbitrary shard counts, pool budgets down to a single
//! frame and every eviction policy (including an adversarial one that evicts
//! pseudo-randomly), a [`PagedShardedSnapshot`] must answer **fully
//! bit-identically** to the in-memory sharded snapshot, the unsharded index
//! and the brute-force oracle — identical degree bits, identical entities at
//! every rank, k-th-degree boundary ties included.
//!
//! The memory budget and the replacer only decide *which pages are resident
//! when* — they move I/O, never answers.  These suites are the proof: if an
//! eviction decision could leak into a degree, the chaotic replacer would
//! find it.
//!
//! [`PagedShardedSnapshot`]: digital_traces::index::PagedShardedSnapshot

use digital_traces::index::testkit::{
    assert_equivalent_answers, assert_valid_top_k, ChaoticReplacer, HierarchySpec, UniformConfig,
    Workload,
};
use digital_traces::index::{
    IndexConfig, JoinOptions, Query, QueryStats, ShardedMinSigIndex, ShardedSnapshot,
};
use digital_traces::mobility_models::{SynConfig, SynDataset};
use digital_traces::storage::{BufferPool, PagedTraceStore, PoolConfig, ReplacerPolicy, PAGE_SIZE};
use digital_traces::EntityId;
use proptest::prelude::*;

/// The policy grid every suite sweeps: plain LRU and the scan-resistant
/// LRU-2 default.
const POLICIES: [ReplacerPolicy; 2] = [ReplacerPolicy::LruK(1), ReplacerPolicy::LruK(2)];

fn pool_config(pages: usize, policy: ReplacerPolicy) -> PoolConfig {
    PoolConfig { capacity_bytes: pages * PAGE_SIZE, ..PoolConfig::default() }.with_replacer(policy)
}

fn build_world(
    entities: u64,
    visits: u64,
    seed: u64,
    shards: usize,
) -> (Workload, digital_traces::index::MinSigIndex, ShardedMinSigIndex, PagedTraceStore) {
    let w = Workload::uniform(UniformConfig {
        entities,
        visits,
        time_slots: 48,
        seed,
        ..UniformConfig::default()
    });
    let config = IndexConfig::with_hash_functions(16);
    let unsharded = w.build_index(config);
    let sharded = ShardedMinSigIndex::build(&w.sp, &w.traces, config, shards).unwrap();
    let store = PagedTraceStore::build(&w.traces, 4);
    (w, unsharded, sharded, store)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `top_k` conformance across the whole grid: any shard count, any pool
    /// budget down to one frame, every shipped policy.  The paged answer,
    /// the in-memory sharded answer and the unsharded answer must be
    /// bit-identical, and valid against the full brute-force degree table.
    #[test]
    fn paged_top_k_is_bitwise_identical_for_any_pool_and_policy(
        entities in 2u64..32,
        visits in 1u64..7,
        seed in 0u64..1_000,
        shards in 1usize..7,
        pool_pages in 1usize..8,
        policy_pick in 0usize..2,
        k in 1usize..6,
    ) {
        let (w, unsharded, sharded, store) = build_world(entities, visits, seed, shards);
        let snapshot = sharded.snapshot();
        let pool = store.pool(pool_config(pool_pages, POLICIES[policy_pick]));
        let paged = snapshot.paged(&store, &pool);
        let measure = w.measure();
        let total = w.entities().len();
        for query in w.sample_entities(4, seed ^ 0xD1CE) {
            let (out, stats) = paged.top_k(query, k, &measure).unwrap();
            let (mem, _) = snapshot.top_k(query, k, &measure).unwrap();
            let (flat, _) = unsharded.top_k(query, k, &measure).unwrap();
            let ctx = format!(
                "query {query}, k {k}, {shards} shards, {pool_pages}-page pool, {:?}",
                POLICIES[policy_pick]
            );
            assert_equivalent_answers(&out, &mem, &format!("{ctx}: paged vs in-memory sharded"));
            assert_equivalent_answers(&out, &flat, &format!("{ctx}: paged vs unsharded"));
            let truth = unsharded.brute_force(query, total, &measure).unwrap();
            assert_valid_top_k(&out, &truth, k, &format!("{ctx}: paged vs brute force"));
            prop_assert!(
                stats.pool_hits + stats.pool_misses > 0 || stats.reads_avoided > 0,
                "{ctx}: a paged query reads its candidates' rows or answers them from resident ones"
            );
        }
        prop_assert_eq!(pool.pinned_frames(), 0, "every query releases its pins at finish");
    }

    /// Batch and join conformance under tight pools: answers per query /
    /// per probe are bit-identical to the in-memory sharded paths, skipped
    /// probes included.
    #[test]
    fn paged_batches_and_joins_match_in_memory(
        entities in 3u64..24,
        seed in 0u64..500,
        shards in 1usize..6,
        pool_pages in 1usize..5,
        policy_pick in 0usize..2,
    ) {
        let (w, _, sharded, store) = build_world(entities, 3, seed, shards);
        let snapshot = sharded.snapshot();
        let pool = store.pool(pool_config(pool_pages, POLICIES[policy_pick]));
        let paged = snapshot.paged(&store, &pool);
        let measure = w.measure();

        let queries = w.sample_entities(5, seed ^ 0xBA7C4);
        let mem_batch = snapshot.top_k_batch(&queries, 3, &measure).unwrap();
        let paged_batch = paged.top_k_batch(&queries, 3, &measure).unwrap();
        for (i, ((mem, _), (out, _))) in mem_batch.iter().zip(paged_batch.iter()).enumerate() {
            assert_equivalent_answers(out, mem, &format!("batch slot {i}"));
        }

        // Probe list with one unindexed id: both paths must skip it and agree
        // on everything else, in probe order.
        let mut probes = w.sample_entities(4, seed ^ 0x901E);
        probes.insert(1, EntityId(u64::MAX - 3));
        let options = JoinOptions { k: 2, ..JoinOptions::default() };
        let (mem_rows, mem_stats) = snapshot.top_k_join(&probes, &measure, options).unwrap();
        let (rows, stats) = paged.top_k_join(&probes, &measure, options).unwrap();
        prop_assert_eq!(mem_stats.skipped, stats.skipped);
        prop_assert_eq!(mem_rows.len(), rows.len());
        for (a, b) in mem_rows.iter().zip(rows.iter()) {
            prop_assert_eq!(a.probe, b.probe);
            assert_equivalent_answers(&b.matches, &a.matches, &format!("join probe {}", a.probe));
        }
        prop_assert_eq!(pool.pinned_frames(), 0);
    }

    /// K-th-degree boundary ties: a population where *every* pair is exactly
    /// tied forces the tie-complete cut on every query.  The paged path must
    /// keep the same (complete, id-ordered) tie group bit-for-bit whatever
    /// the pool does.
    #[test]
    fn paged_answers_keep_boundary_ties_bitwise(
        entities in 3u64..16,
        shards in 1usize..5,
        policy_pick in 0usize..2,
        k in 1usize..6,
    ) {
        let w = Workload::all_identical(entities, HierarchySpec::flat(4));
        let config = IndexConfig::with_hash_functions(8);
        let sharded = ShardedMinSigIndex::build(&w.sp, &w.traces, config, shards).unwrap();
        let snapshot = sharded.snapshot();
        let store = PagedTraceStore::build(&w.traces, 4);
        let pool = store.pool(pool_config(1, POLICIES[policy_pick]));
        let paged = snapshot.paged(&store, &pool);
        let measure = w.measure();
        for query in w.entities() {
            let (out, _) = paged.top_k(query, k, &measure).unwrap();
            let (mem, _) = snapshot.top_k(query, k, &measure).unwrap();
            assert_equivalent_answers(
                &out,
                &mem,
                &format!("all-tied population, query {query}, k {k}"),
            );
        }
    }

    /// Any eviction decision sequence yields correct answers: a replacer
    /// that victimises pseudo-randomly (honouring only the pin contract)
    /// cannot change a single degree bit.
    #[test]
    fn chaotic_eviction_decisions_never_change_answers(
        entities in 2u64..24,
        seed in 0u64..500,
        shards in 1usize..6,
        pool_pages in 1usize..6,
        chaos_seed in 0u64..u64::MAX,
        k in 1usize..5,
    ) {
        let (w, _, sharded, store) = build_world(entities, 4, seed, shards);
        let snapshot = sharded.snapshot();
        let pool = BufferPool::with_replacer(
            store.disk(),
            pool_config(pool_pages, ReplacerPolicy::default()),
            Box::new(ChaoticReplacer::new(chaos_seed)),
        );
        let paged = snapshot.paged(&store, &pool);
        let measure = w.measure();
        for query in w.sample_entities(4, seed ^ 0xC4A05) {
            let (out, _) = paged.top_k(query, k, &measure).unwrap();
            let (mem, _) = snapshot.top_k(query, k, &measure).unwrap();
            assert_equivalent_answers(
                &out,
                &mem,
                &format!("chaotic replacer (seed {chaos_seed}), query {query}"),
            );
        }
        prop_assert_eq!(pool.pinned_frames(), 0);
    }
}

/// The ISSUE acceptance bar, deterministically: a sharded index whose trace
/// data is at least **10× the pool budget** answers `top_k`, `top_k_batch`
/// and `top_k_join` bit-identically to the in-memory paths, under both
/// shipped policy families.
#[test]
fn ten_times_memory_answers_stay_exact() {
    let (w, unsharded, sharded, store) = build_world(500, 8, 7, 4);
    let snapshot = sharded.snapshot();
    let measure = w.measure();
    let budget = (store.data_bytes() / 10).max(PAGE_SIZE);
    assert!(store.data_bytes() >= 10 * budget, "dataset must dwarf the pool");

    for policy in POLICIES {
        let pool = store.pool(
            PoolConfig { capacity_bytes: budget, ..PoolConfig::default() }.with_replacer(policy),
        );
        let paged = snapshot.paged(&store, &pool);

        let queries = w.sample_entities(12, 0xFEED);
        for &query in &queries {
            let (out, stats) = paged.top_k(query, 10, &measure).unwrap();
            let (mem, _) = snapshot.top_k(query, 10, &measure).unwrap();
            let (flat, _) = unsharded.top_k(query, 10, &measure).unwrap();
            assert_equivalent_answers(&out, &mem, &format!("{policy:?} 10x top_k {query}"));
            assert_equivalent_answers(&out, &flat, &format!("{policy:?} 10x vs unsharded {query}"));
            assert!(stats.pool_misses > 0, "a 10x-memory query cannot be all hits");
        }

        let mem_batch = snapshot.top_k_batch(&queries, 5, &measure).unwrap();
        let paged_batch = paged.top_k_batch(&queries, 5, &measure).unwrap();
        for ((mem, _), (out, _)) in mem_batch.iter().zip(paged_batch.iter()) {
            assert_equivalent_answers(out, mem, &format!("{policy:?} 10x batch"));
        }

        let options = JoinOptions { k: 3, threads: 4, ..JoinOptions::default() };
        let (mem_rows, _) = snapshot.top_k_join(&queries, &measure, options).unwrap();
        let (rows, _) = paged.top_k_join(&queries, &measure, options).unwrap();
        assert_eq!(mem_rows.len(), rows.len());
        for (a, b) in mem_rows.iter().zip(rows.iter()) {
            assert_equivalent_answers(&b.matches, &a.matches, &format!("{policy:?} 10x join"));
        }
        assert_eq!(pool.pinned_frames(), 0, "{policy:?}: pins all released");
        let io = pool.stats();
        assert!(io.evictions > 0, "{policy:?}: a 10x-memory run must evict");
    }
}

/// An unseeded paged query (a sketchless index) answers bit-identically to
/// the in-memory one and reports no seed.
#[test]
fn unseeded_paged_query_answers_like_in_memory() {
    let (w, _, mut sharded, store) = build_world(48, 4, 11, 3);
    let pool = store.pool(pool_config(2, ReplacerPolicy::default()));
    let measure = w.measure();
    let query = w.sample_entities(1, 3)[0];

    sharded.set_synopsis_sketch_size(0);
    let cold = sharded.snapshot();
    let (mem, _) = cold.top_k(query, 5, &measure).unwrap();
    let (out, stats) = cold.paged(&store, &pool).top_k(query, 5, &measure).unwrap();
    assert_equivalent_answers(&out, &mem, "unseeded paged query");
    assert!(!stats.threshold_seeded, "a sketchless index must not seed");
}

/// A store built from a strict subset of the indexed traces changes
/// nothing: the session copies every member's rows from the snapshot, so
/// the paged query answers and works like the in-memory one and like a
/// session over the complete store — answers, `entities_checked`,
/// `reads_avoided`, every kernel class — and stays exact.
#[test]
fn a_store_that_lacks_entities_changes_nothing() {
    let (w, unsharded, sharded, full_store) = build_world(40, 6, 3, 3);
    let snapshot = sharded.snapshot();
    let one_shard = ShardedSnapshot::from(unsharded.snapshot());
    let measure = w.measure();
    let entities = w.entities();
    let dropped = [entities[5], entities[6], entities[17]];
    let mut stored = w.traces.clone();
    for entity in dropped {
        stored.remove(entity);
    }
    let store = PagedTraceStore::build(&stored, 4);
    // k = the whole population: nothing can be pruned, so every indexed
    // entity is a candidate and each dropped one is met exactly once.
    let k = entities.len();
    let query = entities[0];
    for (snapshot, ctx) in [(&snapshot, "sharded"), (&one_shard, "one shard")] {
        let (mem, mem_stats) = snapshot.top_k(query, k, &measure).unwrap();
        let full_pool = full_store.pool(PoolConfig::default());
        let (_, full) = snapshot.paged(&full_store, &full_pool).top_k(query, k, &measure).unwrap();
        let pool = store.pool(PoolConfig::default());
        let (out, stats) = snapshot.paged(&store, &pool).top_k(query, k, &measure).unwrap();
        assert_equivalent_answers(&out, &mem, ctx);
        assert_eq!(out.len(), k - 1, "{ctx}: every dropped entity is answered");
        assert_eq!(stats.entities_checked, mem_stats.entities_checked, "{ctx}");
        assert_eq!(stats.kernel_dispatch, mem_stats.kernel_dispatch, "{ctx}");
        assert_eq!(stats.reads_avoided, full.reads_avoided, "{ctx}");
        assert_eq!((stats.recall_estimate, mem_stats.recall_estimate), (1.0, 1.0), "{ctx}");
        assert_eq!(pool.pinned_frames(), 0);
    }
}

/// A paged query issues the in-memory query's intersections with the
/// in-memory query's kernels, class by class, keyed included: every level
/// is classified from the same resident row lengths, whether its rows are
/// resident (level 1) or read from pages (the finer ones).
fn assert_same_intersections(paged: &QueryStats, mem: &QueryStats, ctx: &str) {
    assert_eq!(paged.kernel_dispatch, mem.kernel_dispatch, "{ctx}: intersections issued");
}

/// Candidates that share no level-1 cell with the query — and, since a scan
/// reads level-2 overlaps from the postings too, the ones sharing no level-2
/// cell — are scored from the snapshot's resident rows, never read: the
/// paged query does the in-memory query's work — answers, `entities_checked`,
/// kernel dispatch — and its page requests are exactly the pages the row
/// spans of the candidates that do share a level-2 cell lie on.  A store
/// that lacks a candidate changes none of it.
#[test]
fn level_one_disjoint_candidates_are_answered_without_a_read() {
    let (w, _, mut sharded, store) = build_world(160, 3, 21, 4);
    let snapshot = sharded.snapshot();
    sharded.set_synopsis_sketch_size(0);
    let cold = sharded.snapshot();
    let measure = w.measure();
    let population = w.entities().len();
    let disjoint_at = |level: u8, query: EntityId| -> Vec<EntityId> {
        let cells = snapshot.sequence(query).unwrap().level(level);
        (0..4)
            .flat_map(|s| snapshot.shard(s).sequences())
            .filter(|&(&e, seq)| e != query && seq.level(level).intersection_len(cells) == 0)
            .map(|(&e, _)| e)
            .collect()
    };
    let disjoint_from = |query: EntityId| disjoint_at(1, query);
    // No sketch and k = the population: nothing is seeded, no shard is
    // skipped, every candidate is scored once.
    let everyone = Query::new(population, &measure);
    for query in w.sample_entities(6, 0x1E7E1) {
        let pool = store.pool(pool_config(2, ReplacerPolicy::default()));
        for (snapshot, planned) in [(&snapshot, Query::new(5, &measure)), (&cold, everyone)] {
            let (out, stats) = snapshot.paged(&store, &pool).query(query, &planned).unwrap();
            let (mem, mem_stats) = snapshot.query(query, &planned).unwrap();
            let ctx = format!("query {query}, k {}", planned.k);
            assert_equivalent_answers(&out, &mem, &ctx);
            assert_eq!(stats.entities_checked, mem_stats.entities_checked, "{ctx}");
            assert_same_intersections(&stats, &mem_stats, &ctx);
            assert_eq!(mem_stats.reads_avoided, 0, "{ctx}: nothing is read in memory");
            assert!(stats.reads_avoided > 0, "{ctx}");
        }
        let disjoint = disjoint_from(query);
        assert!(disjoint.len() > population / 2, "query {query}: {} disjoint", disjoint.len());
        let unread = disjoint_at(2, query);
        assert!(disjoint.iter().all(|e| unread.contains(e)), "query {query}");
        let session = cold.paged(&store, &pool);
        let (_, stats) = session.query(query, &everyone).unwrap();
        assert_eq!(stats.reads_avoided, unread.len(), "query {query}");
        let pages = |e: EntityId| session.row_pages(e).map_or(0, <[_]>::len);
        let read_pages: usize = w
            .entities()
            .into_iter()
            .filter(|e| *e != query && !unread.contains(e))
            .map(pages)
            .sum();
        let avoided_pages: usize = disjoint.iter().map(|&e| pages(e)).sum();
        // Nothing else is requested: the query's own rows are the in-memory view.
        let requests = (stats.pool_hits + stats.pool_misses) as usize;
        assert_eq!(requests, read_pages, "query {query}");
        assert!(avoided_pages > 0);
        assert_eq!(pool.pinned_frames(), 0);
    }

    // Drop one disjoint candidate from the store: it is still answered from
    // its resident rows, unread, like in memory.
    let query = w.sample_entities(1, 0xD50)[0];
    let dropped = disjoint_from(query)[0];
    let mut stored = w.traces.clone();
    stored.remove(dropped);
    let partial = PagedTraceStore::build(&stored, 4);
    let pool = partial.pool(PoolConfig::default());
    let (out, stats) = cold.paged(&partial, &pool).query(query, &everyone).unwrap();
    let (mem, mem_stats) = cold.query(query, &everyone).unwrap();
    assert_equivalent_answers(&out, &mem, "lacking store");
    assert!(out.iter().any(|r| r.entity == dropped));
    assert_eq!(stats.entities_checked, mem_stats.entities_checked);
    assert_same_intersections(&stats, &mem_stats, "lacking store");
    assert_eq!(stats.reads_avoided, disjoint_at(2, query).len());
    assert_eq!(stats.recall_estimate, 1.0);
}

/// On the paper's SYN population rows are long and clustered enough for the
/// keyed kernel.  A paged query scoring every candidate (no sketch, k = the
/// population) answers and works like the in-memory one and runs keyed
/// exactly the intersections the in-memory loop runs keyed: its scans read
/// levels 1 and 2 from the resident postings and intersect the finer levels
/// from the keyed rows its pages hold.
#[test]
fn paged_level_one_runs_the_in_memory_kernel_on_syn() {
    let dataset = SynDataset::generate(SynConfig {
        num_entities: 160,
        days: 7,
        comover_fraction: 0.2,
        seed: 5,
        ..SynConfig::default()
    })
    .unwrap();
    let config = IndexConfig::with_hash_functions(16);
    let mut sharded =
        ShardedMinSigIndex::build(dataset.sp_index(), &dataset.traces, config, 3).unwrap();
    sharded.set_synopsis_sketch_size(0);
    let snapshot = sharded.snapshot();
    let store = PagedTraceStore::build(&dataset.traces, 4);
    let measure = digital_traces::PaperAdm::default_for(dataset.sp_index().height() as usize);
    let population = dataset.traces.entities().count();
    let everyone = Query::new(population, &measure);
    let mut keyed_finer = 0;
    for query in dataset.traces.entities().step_by(23) {
        let pool = store.pool(pool_config(8, ReplacerPolicy::default()));
        let (out, stats) = snapshot.paged(&store, &pool).query(query, &everyone).unwrap();
        let (mem, mem_stats) = snapshot.query(query, &everyone).unwrap();
        let ctx = format!("query {query}");
        assert_equivalent_answers(&out, &mem, &ctx);
        assert_eq!(stats.entities_checked, mem_stats.entities_checked, "{ctx}");
        assert_same_intersections(&stats, &mem_stats, &ctx);
        assert_eq!(stats.kernel_dispatch.keyed, mem_stats.kernel_dispatch.keyed, "{ctx}: keyed");
        keyed_finer += stats.kernel_dispatch.keyed;
        assert_eq!(pool.pinned_frames(), 0);
    }
    assert!(keyed_finer > 0, "the finer levels, read from pages, run keyed");
}

/// A session's pages are its own: fifty sessions built and dropped on one
/// store — some queried, through a pool that keeps frames of their pages —
/// leave the store's live page bytes what they were, and a fresh session
/// still answers exactly.
#[test]
fn dropped_sessions_free_their_pages() {
    let (w, _, sharded, store) = build_world(120, 6, 9, 3);
    let snapshot = sharded.snapshot();
    let measure = w.measure();
    let pool = store.pool(pool_config(4, ReplacerPolicy::default()));
    let live = store.disk().live_bytes();
    let query = w.sample_entities(1, 0x5E55)[0];
    let (mem, _) = snapshot.top_k(query, 5, &measure).unwrap();
    for round in 0..50 {
        let session = snapshot.paged(&store, &pool);
        let rows: usize = (0..3).map(|s| session.shard_pages(s).len()).sum();
        assert!(store.disk().live_bytes() > live, "round {round}: the session wrote {rows} pages");
        if round % 10 == 0 {
            let (out, _) = session.top_k(query, 5, &measure).unwrap();
            assert_equivalent_answers(&out, &mem, &format!("round {round}"));
        }
    }
    assert_eq!(store.disk().live_bytes(), live, "every session freed its pages");
    let (out, _) = snapshot.paged(&store, &pool).top_k(query, 5, &measure).unwrap();
    assert_equivalent_answers(&out, &mem, "after fifty sessions");
    assert_eq!(pool.pinned_frames(), 0);
}
