//! The in-memory and the out-of-core query paths run **one** planner body
//! and **one** drive; these tests pin the places where two copies used to be
//! able to drift.
//!
//! * With a zero budget nothing depends on the clock (the deadline has
//!   passed before any scan is picked up, so every scan samples at its
//!   shard's recall-floor rate), so the budgeted schedule is deterministic —
//!   and must produce the same degraded answer, degradation report and work
//!   counters through the arenas as through a buffer pool of any size.
//! * A paged plan must *equal* the in-memory plan, seed and upper-bound bits
//!   included, with every page resident as with none.
//! * Both paths reject the same bad budget at the same entry points.
//! * The `Query` entries are the conveniences' only body: the default `Query`
//!   is `top_k` / `top_k_batch`, on a seeded index and on a sketchless one
//!   (the cold fan-out: no seed, no skip), and both paths do the same work.
//!   A batch row is its entity's query.  In memory no entry reads anything;
//!   a join row does its probe's query's work, in memory and out of core.

use digital_traces::index::testkit::{UniformConfig, Workload};
use digital_traces::index::{
    IndexConfig, IndexError, JoinOptions, JoinRow, PlannerConfig, Query, QueryStats,
    ShardedMinSigIndex, TopKResult,
};
use digital_traces::storage::{PagedTraceStore, PoolConfig, PAGE_SIZE};
use digital_traces::EntityId;

const SHARD_COUNTS: [usize; 3] = [1, 3, 5];

fn world(seed: u64) -> (Workload, PagedTraceStore) {
    let w = Workload::uniform(UniformConfig {
        entities: 96,
        visits: 5,
        time_slots: 48,
        seed,
        ..UniformConfig::default()
    });
    let store = PagedTraceStore::build(&w.traces, 4);
    (w, store)
}

fn sharded(w: &Workload, shards: usize) -> ShardedMinSigIndex {
    ShardedMinSigIndex::build(&w.sp, &w.traces, IndexConfig::with_hash_functions(16), shards)
        .unwrap()
}

/// The index at its default sketch size, and with no sketch: every plan of
/// the second is unseeded and skips nothing.
fn seeded_and_sketchless(w: &Workload, shards: usize) -> [ShardedMinSigIndex; 2] {
    let mut sketchless = sharded(w, shards);
    sketchless.set_synopsis_sketch_size(0);
    [sharded(w, shards), sketchless]
}

/// The two pool sizes that bracket the paged drive: one frame (every read a
/// miss) and room for everything (every read after the first a hit).
fn pool_configs(store: &PagedTraceStore) -> [PoolConfig; 2] {
    [
        PoolConfig { capacity_bytes: PAGE_SIZE, ..PoolConfig::default() },
        PoolConfig::with_memory_fraction(store.data_bytes(), 1.0),
    ]
}

#[test]
fn zero_budget_degrades_identically_in_memory_and_out_of_core() {
    let mut degraded = 0usize;
    for seed in [3u64, 17] {
        let (w, store) = world(seed);
        let measure = w.measure();
        let queries = w.sample_entities(8, seed ^ 0xD21E);
        for shards in SHARD_COUNTS {
            let index = sharded(&w, shards);
            let snapshot = index.snapshot();
            for pool_config in pool_configs(&store) {
                let pool = store.pool(pool_config);
                let paged = snapshot.paged(&store, &pool);
                for floor in [0.0, 0.3, 0.6, 0.9] {
                    let planner = PlannerConfig::with_budget_and_floor(0, floor);
                    for (&query, k) in queries.iter().zip([1usize, 3, 5, 8].into_iter().cycle()) {
                        let ctx = format!(
                            "seed {seed}, {shards} shards, {} B pool, floor {floor}, \
                             query {query}, k {k}",
                            pool_config.capacity_bytes
                        );
                        let budgeted = Query { planner, ..Query::new(k, &measure) };
                        let (mem, mem_stats) = snapshot.query(query, &budgeted).unwrap();
                        let (out, out_stats) = paged.query(query, &budgeted).unwrap();
                        assert_eq!(mem.len(), out.len(), "{ctx}");
                        for (a, b) in mem.iter().zip(&out) {
                            assert_eq!(a.entity, b.entity, "{ctx}");
                            assert_eq!(a.degree.to_bits(), b.degree.to_bits(), "{ctx}");
                        }
                        assert_eq!(mem_stats.degradation, out_stats.degradation, "{ctx}");
                        assert_eq!(
                            mem_stats.recall_estimate.to_bits(),
                            out_stats.recall_estimate.to_bits(),
                            "{ctx}"
                        );
                        assert_eq!(
                            (
                                mem_stats.sampled_candidates,
                                mem_stats.shards_skipped,
                                mem_stats.entities_checked,
                                mem_stats.total_entities,
                            ),
                            (
                                out_stats.sampled_candidates,
                                out_stats.shards_skipped,
                                out_stats.entities_checked,
                                out_stats.total_entities,
                            ),
                            "{ctx}: sampled / skipped / checked / total"
                        );
                        assert_eq!(pool.pinned_frames(), 0, "{ctx}: pins all released");
                        degraded += usize::from(out_stats.degradation.is_some());
                    }
                }
            }
        }
    }
    assert_eq!(degraded, 2 * 3 * 2 * 4 * 8, "a zero budget degrades every query");
}

#[test]
fn warm_pool_plans_equal_in_memory_plans() {
    let planner = PlannerConfig::default();
    for seed in [5u64, 29] {
        let (w, store) = world(seed);
        let measure = w.measure();
        for shards in SHARD_COUNTS {
            for (sketch, index) in
                ["default", "none"].into_iter().zip(seeded_and_sketchless(&w, shards))
            {
                let snapshot = index.snapshot();
                let pool = store.pool(PoolConfig::default());
                let paged = snapshot.paged(&store, &pool);
                // Warm: every row page the session reads is resident.
                let rows: Vec<_> =
                    (0..shards).flat_map(|s| paged.shard_pages(s).to_vec()).collect();
                assert!(rows.len() * PAGE_SIZE <= pool.config().capacity_bytes, "all fit");
                for &page in &rows {
                    pool.get(page);
                }
                for query in w.sample_entities(6, seed ^ 0xFA57) {
                    for k in [1usize, 4, 9, 60] {
                        let warm = paged.explain(query, k, &measure, planner).unwrap();
                        let mem = snapshot.explain(query, k, &measure, planner).unwrap();
                        assert_eq!(
                            warm, mem,
                            "seed {seed}, {shards} shards, sketch {sketch}, query {query}, k {k}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn both_paths_reject_the_same_bad_knobs() {
    let (w, store) = world(7);
    let measure = w.measure();
    let index = sharded(&w, 3);
    let snapshot = index.snapshot();
    let pool = store.pool(PoolConfig::default());
    let paged = snapshot.paged(&store, &pool);
    let query = EntityId(0);
    let invalid = |result: Result<(), IndexError>, what: &str| {
        assert!(matches!(result, Err(IndexError::InvalidConfig(_))), "{what}: {result:?}");
    };

    // `explain` validates the planner like the executing entry points do.
    let bad_planner = PlannerConfig { recall_floor: 1.5, ..PlannerConfig::default() };
    invalid(snapshot.explain(query, 3, &measure, bad_planner).map(drop), "in-memory explain");
    invalid(paged.explain(query, 3, &measure, bad_planner).map(drop), "paged explain");
    let good = Query::new(3, &measure);
    let bad_plan = Query { planner: bad_planner, ..good };
    invalid(snapshot.query(query, &bad_plan).map(drop), "in-memory query");
    invalid(paged.query(query, &bad_plan).map(drop), "paged query");

    // An empty batch still validates its budget, on both paths.
    invalid(snapshot.query_batch(&[], &bad_plan).map(drop), "in-memory empty batch");
    invalid(paged.query_batch(&[], &bad_plan).map(drop), "paged empty batch");
    invalid(snapshot.plan_batch(&[], 3, &measure, bad_planner).map(drop), "empty plan_batch");
    assert!(paged.query_batch(&[], &good).unwrap().is_empty());
}

/// The schedule-independent work of a batch (its queries run their shards
/// sequentially, so every counter is deterministic), summed.
fn batch_work(batch: &[(Vec<TopKResult>, QueryStats)]) -> [usize; 7] {
    let mut work = QueryStats::default();
    for (_, stats) in batch {
        work.absorb_work(stats);
    }
    [
        work.nodes_visited,
        work.subtrees_pruned,
        work.entities_checked,
        work.leaves_visited,
        work.bound_updates as usize,
        work.steps,
        work.shards_skipped,
    ]
}

/// What a query read: its avoided reads and its four buffer-pool counters.
fn reads(stats: &QueryStats) -> [u64; 5] {
    [
        stats.reads_avoided as u64,
        stats.pool_hits,
        stats.pool_misses,
        stats.pool_evictions,
        stats.simulated_io_us,
    ]
}

/// One query's work — every counter bar the wall-clock ones and the pool's,
/// which move with residency.
fn query_work(stats: &QueryStats) -> impl PartialEq + std::fmt::Debug {
    (
        [stats.nodes_visited, stats.subtrees_pruned, stats.entities_checked, stats.leaves_visited],
        [stats.steps, stats.shards_skipped, stats.shards_scanned, stats.reads_avoided],
        (stats.bound_updates, stats.threshold_seeded, stats.kernel_dispatch),
    )
}

/// A query's whole stats bar the wall-clock fields and the four pool
/// counters, which move with residency: its work and its planning's verdicts.
fn untimed(stats: QueryStats) -> QueryStats {
    QueryStats {
        pool_hits: 0,
        pool_misses: 0,
        pool_evictions: 0,
        simulated_io_us: 0,
        planning_us: 0,
        query_time_us: 0,
        ..stats
    }
}

#[test]
fn query_entries_are_the_conveniences_seeded_or_cold() {
    let (w, store) = world(3);
    let measure = w.measure();
    let queries = w.sample_entities(8, 0x51);
    let answers = |batch: &[(Vec<TopKResult>, QueryStats)]| -> Vec<Vec<TopKResult>> {
        batch.iter().map(|(results, _)| results.clone()).collect()
    };
    // Every shard count and sketch size answers one set of answers.
    let mut reference = None;
    for shards in SHARD_COUNTS {
        for (index, sketchless) in seeded_and_sketchless(&w, shards).iter().zip([false, true]) {
            let snapshot = index.snapshot();
            let pool = store.pool(PoolConfig::default());
            let paged = snapshot.paged(&store, &pool);
            let default = Query::new(5, &measure);
            let ctx = format!("{shards} shards, sketchless {sketchless}");

            let mem = snapshot.query_batch(&queries, &default).unwrap();
            let cold = mem.iter().all(|(_, s)| !s.threshold_seeded && s.shards_skipped == 0);
            assert!(cold || !sketchless, "{ctx}: a sketchless plan is cold");
            assert_eq!(answers(&mem), *reference.get_or_insert_with(|| answers(&mem)), "{ctx}");
            let out = paged.query_batch(&queries, &default).unwrap();
            let convenience = snapshot.top_k_batch(&queries, 5, &measure).unwrap();
            assert_eq!(answers(&mem), answers(&convenience), "{ctx}");
            assert_eq!(batch_work(&mem), batch_work(&convenience), "{ctx}");
            let convenience = paged.query_batch(&queries, &Query::new(5, &measure)).unwrap();
            assert_eq!(answers(&out), answers(&convenience), "{ctx}, paged");
            // `out` was planned over a cold pool, `warm` below over the pages
            // `out` left resident.  Residency decides no access path, so both
            // plan like the in-memory batch and do its work, counter for
            // counter.
            assert_eq!(batch_work(&out), batch_work(&mem), "{ctx}, paged cold == in memory");
            let warm = paged.query_batch(&queries, &default).unwrap();
            assert_eq!(answers(&warm), answers(&out), "{ctx}, paged, warm == cold");
            assert_eq!(batch_work(&warm), batch_work(&convenience), "{ctx}, paged");
            assert_eq!(batch_work(&warm), batch_work(&mem), "{ctx}, paged == in memory");
            let join = JoinOptions { k: 5, ..JoinOptions::default() };
            let (mem_rows, _) = snapshot.top_k_join(&queries, &measure, join).unwrap();
            let (paged_rows, _) = paged.top_k_join(&queries, &measure, join).unwrap();
            let row_stats = |rows: &[JoinRow]| rows.iter().map(|r| r.stats).collect::<Vec<_>>();
            for stats in mem.iter().map(|(_, s)| *s).chain(row_stats(&mem_rows)) {
                assert_eq!(reads(&stats), [0; 5], "{ctx}: nothing is read in memory");
            }
            for (i, &query) in queries.iter().enumerate() {
                // A batch row is its entity's query: the same answer and the
                // same stats bar the clock and the pool, in memory and out
                // of core.
                for (single, batched) in [
                    (snapshot.query(query, &default), &mem[i]),
                    (snapshot.top_k(query, 5, &measure), &mem[i]),
                    (paged.query(query, &default), &out[i]),
                    (paged.top_k(query, 5, &measure), &out[i]),
                ] {
                    let (answer, stats) = single.unwrap();
                    assert_eq!(answer, batched.0, "{ctx}, query {query}");
                    assert_eq!(untimed(stats), untimed(batched.1), "{ctx}, query {query}");
                }
                let (_, single) = snapshot.query(query, &default).unwrap();
                assert_eq!(reads(&single), [0; 5], "{ctx}, query {query}: in memory");
                let (paged_answer, paged_single) = paged.query(query, &default).unwrap();
                for (rows, answer, stats) in
                    [(&mem_rows, &mem[i].0, &single), (&paged_rows, &paged_answer, &paged_single)]
                {
                    assert_eq!((rows[i].probe, &rows[i].matches), (query, answer), "{ctx}");
                    assert_eq!(query_work(&rows[i].stats), query_work(stats), "{ctx}, {query}");
                }
            }
        }
    }
}
