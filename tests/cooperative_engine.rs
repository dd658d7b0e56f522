//! The resumable executor and the cold fan-out from the outside: stepping
//! the unsharded best-first search is answer- and work-invariant at any
//! quantum, and a cold sharded fan-out (no seed, every shard scanned) never
//! changes answers, on either schedule.
//!
//! The cold fan-out is built from data, not from a setting: an index whose
//! synopses hold no sketch plans every query unseeded, skips nothing and
//! scans every shard.

use digital_traces::index::engine::PrivateBound;
use digital_traces::index::testkit::{
    assert_equivalent_answers, PruningAdversarialConfig, UniformConfig, Workload,
};
use digital_traces::index::{IndexConfig, Query, QueryOptions, QueryStats, ShardedMinSigIndex};
use digital_traces::EntityId;

/// Stepping an [`Executor`](digital_traces::index::Executor) with any quantum
/// reproduces the one-shot search exactly: same answers bitwise, same work
/// counters — resumability is free.
#[test]
fn stepped_execution_matches_one_shot() {
    let w = Workload::uniform(UniformConfig { entities: 48, visits: 5, ..Default::default() });
    let index = w.build_index(IndexConfig::with_hash_functions(24));
    let measure = w.measure();
    let snapshot = index.snapshot();
    for query in [0u64, 7, 23, 41] {
        let query = EntityId(query);
        let (expect, expect_stats) = index.top_k(query, 5, &measure).unwrap();
        for quantum in [1usize, 3, 17, usize::MAX] {
            let seq = snapshot.sequence(query).unwrap();
            let mut executor =
                snapshot.executor(seq, Some(query), 5, &measure, QueryOptions::default()).unwrap();
            while executor.step(&PrivateBound, quantum) {
                assert!(!executor.is_exhausted());
            }
            assert!(executor.is_exhausted());
            assert!(!executor.step(&PrivateBound, quantum), "exhausted executors stay exhausted");
            let (got, stats) = executor.finish();
            assert_eq!(got, expect, "quantum {quantum}, query {query}");
            assert_eq!(stats.nodes_visited, expect_stats.nodes_visited, "quantum {quantum}");
            assert_eq!(stats.leaves_visited, expect_stats.leaves_visited, "quantum {quantum}");
            assert_eq!(stats.entities_checked, expect_stats.entities_checked);
            assert_eq!(stats.subtrees_pruned, expect_stats.subtrees_pruned);
            assert_eq!(stats.bound_updates, 0, "a private bound accepts nothing");
            if quantum == 1 {
                assert!(
                    stats.steps >= stats.nodes_visited,
                    "quantum 1 pays one step per visited node"
                );
            }
        }
    }
}

/// A sharded index whose synopses hold no sketch: every query fans out cold.
fn sketchless(w: &Workload, nh: u32, shards: usize) -> ShardedMinSigIndex {
    let mut sharded =
        ShardedMinSigIndex::build(&w.sp, &w.traces, IndexConfig::with_hash_functions(nh), shards)
            .unwrap();
    sharded.set_synopsis_sketch_size(0);
    sharded
}

/// The skew workload: one shard holds the clique.
fn skewed() -> (Workload, Vec<EntityId>) {
    Workload::pruning_adversarial(PruningAdversarialConfig {
        hot_entities: 48,
        cold_entities: 200,
        ..PruningAdversarialConfig::default()
    })
}

/// One deterministic run (batch path: the shards in plan order on the
/// calling thread) of a query over a sketchless snapshot.
fn run_cold(
    snapshot: &digital_traces::ShardedSnapshot,
    query: EntityId,
    k: usize,
    measure: &digital_traces::PaperAdm,
) -> (Vec<digital_traces::TopKResult>, QueryStats) {
    let (results, stats) =
        snapshot.query_batch(&[query], &Query::new(k, measure)).unwrap().remove(0);
    assert!(!stats.threshold_seeded, "a sketchless index seeds nothing");
    assert_eq!(stats.shards_skipped, 0, "nothing is skipped");
    assert_eq!(stats.shards_scanned, snapshot.num_shards(), "every shard scanned");
    (results, stats)
}

/// The cold fan-out over the adversarial workloads returns the bitwise
/// unsharded answer on both schedules — threaded (`query`) and one worker
/// (`query_batch`) — including the all-ties population, where tie-complete
/// pruning is what keeps the k-th boundary pinned.
#[test]
fn cold_fan_out_is_answer_invariant_on_adversarial_workloads() {
    let (skew, hot) = skewed();
    let ties = Workload::all_identical(120, Default::default());
    for (w, queries, shards) in
        [(&skew, vec![hot[0], hot[2]], 4usize), (&ties, vec![EntityId(0), EntityId(7)], 3)]
    {
        let unsharded = w.build_index(IndexConfig::with_hash_functions(16));
        let snapshot = sketchless(w, 16, shards).snapshot();
        let measure = w.measure();
        for &query in &queries {
            let (expect, _) = unsharded.top_k(query, 4, &measure).unwrap();
            let oracle = unsharded.brute_force(query, 4, &measure).unwrap();
            assert_equivalent_answers(&expect, &oracle, &format!("unsharded vs oracle, {query}"));
            let (threaded, stats) = snapshot.query(query, &Query::new(4, &measure)).unwrap();
            assert_eq!(stats.shards_scanned, shards, "query {query}: every shard scanned");
            assert_equivalent_answers(&threaded, &expect, &format!("threaded, query {query}"));
            let (sequential, _) = run_cold(&snapshot, query, 4, &measure);
            assert_equivalent_answers(&sequential, &expect, &format!("one worker, query {query}"));
        }
    }
}
