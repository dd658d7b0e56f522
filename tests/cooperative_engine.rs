//! The cooperative bound-sharing executor from the outside: resumable
//! stepping is answer- and work-invariant at any quantum, a cold fan-out
//! (no seed, every shard a tree) never changes answers, and a
//! [`SharedBound`] provably *saves* work against the independent per-shard
//! baseline on skewed (one-shard-holds-the-top-k) populations.
//!
//! The cold fan-out is built from data, not from a setting: an index whose
//! synopses hold no sketch plans every query unseeded, skips nothing and
//! tree-searches every shard above the 32-entity scan cutoff.
//!
//! [`SharedBound`]: digital_traces::index::SharedBound

use digital_traces::index::engine::{merge_top_k, PrivateBound};
use digital_traces::index::testkit::{
    assert_equivalent_answers, PruningAdversarialConfig, UniformConfig, Workload,
};
use digital_traces::index::{
    shard_of, IndexConfig, Query, QueryOptions, QueryStats, ShardedMinSigIndex,
};
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

/// The skew workload with every shard above the scan cutoff, so a cold
/// fan-out tree-searches all of them.
fn skewed() -> (Workload, Vec<EntityId>) {
    Workload::pruning_adversarial(PruningAdversarialConfig {
        hot_entities: 48,
        cold_entities: 200,
        ..PruningAdversarialConfig::default()
    })
}

/// One deterministic cooperative run (batch path: sequential round-robin
/// per-shard interleaving) of a query over a sketchless snapshot whose
/// shards are all above the scan cutoff.
fn run_cold(
    snapshot: &digital_traces::ShardedSnapshot,
    query: EntityId,
    k: usize,
    measure: &digital_traces::PaperAdm,
) -> (Vec<digital_traces::TopKResult>, QueryStats) {
    let (results, stats) =
        snapshot.query_batch(&[query], &Query::new(k, measure)).unwrap().remove(0);
    assert!(!stats.threshold_seeded, "a sketchless index seeds nothing");
    assert_eq!((stats.shards_skipped, stats.shards_scanned), (0, 0), "every shard a tree");
    (results, stats)
}

/// The independent baseline: every shard searched alone against its private
/// threshold, answers merged, work summed.
fn run_independent(
    snapshot: &digital_traces::ShardedSnapshot,
    query: EntityId,
    k: usize,
    measure: &digital_traces::PaperAdm,
) -> (Vec<digital_traces::TopKResult>, QueryStats) {
    let seq = snapshot.sequence(query).unwrap();
    let mut work = QueryStats::default();
    let parts: Vec<_> = (0..snapshot.num_shards())
        .map(|shard| {
            let (results, stats) = snapshot
                .shard(shard)
                .top_k_for_sequence(seq, Some(query), k, measure, QueryOptions::default())
                .unwrap();
            work.absorb_work(&stats);
            results
        })
        .collect();
    (merge_top_k(k, parts), work)
}

/// The satellite stats contract: on a population where one shard holds the
/// whole top-k, a [`SharedBound`](digital_traces::index::SharedBound) visits
/// no more (here: strictly fewer) frontier nodes and checks no more entities
/// than independent per-shard executors, prunes strictly more subtrees, and
/// publishes at least one bound update — with bitwise-identical answers.
#[test]
fn shared_bound_saves_work_on_skewed_shards() {
    let shards = PruningAdversarialConfig::default().num_shards;
    let (w, hot) = skewed();
    let snapshot = sketchless(&w, 32, shards).snapshot();
    let measure = w.measure();
    let k = 5;

    // Best case: a hot query — the hot shard saturates the global bound
    // almost immediately and every cold shard should prune wholesale.
    let (shared_results, shared) = run_cold(&snapshot, hot[0], k, &measure);
    let (indep_results, indep) = run_independent(&snapshot, hot[0], k, &measure);
    assert_eq!(shared_results, indep_results, "bound sharing never changes answers");
    assert!(
        shared.nodes_visited < indep.nodes_visited,
        "cooperative must visit strictly fewer nodes on the skewed workload \
         ({} vs {})",
        shared.nodes_visited,
        indep.nodes_visited
    );
    assert!(
        shared.entities_checked <= indep.entities_checked,
        "{} vs {}",
        shared.entities_checked,
        indep.entities_checked
    );
    assert!(
        shared.subtrees_pruned > indep.subtrees_pruned,
        "the shared bound must cut subtrees the private thresholds cannot \
         ({} vs {})",
        shared.subtrees_pruned,
        indep.subtrees_pruned
    );
    assert!(shared.bound_updates >= 1, "the hot shard publishes its threshold");
    assert_eq!(indep.bound_updates, 0, "independent executors never publish");

    // Worst case: a cold query — sharing may not help, but it must never
    // cost visits (an executor under a higher bound stops no later) and
    // never change the answer.
    let cold = w
        .entities()
        .into_iter()
        .find(|&e| shard_of(e, shards) != shard_of(hot[0], shards))
        .expect("the workload plants cold entities on other shards");
    let (shared_cold_results, shared_cold) = run_cold(&snapshot, cold, k, &measure);
    let (indep_cold_results, indep_cold) = run_independent(&snapshot, cold, k, &measure);
    assert_eq!(shared_cold_results, indep_cold_results);
    assert!(shared_cold.nodes_visited <= indep_cold.nodes_visited);
    assert!(shared_cold.entities_checked <= indep_cold.entities_checked);
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
            assert_eq!(stats.shards_scanned, 0, "query {query}: every shard a tree");
            assert_equivalent_answers(&threaded, &expect, &format!("threaded, query {query}"));
            let (sequential, _) = run_cold(&snapshot, query, 4, &measure);
            assert_equivalent_answers(&sequential, &expect, &format!("one worker, query {query}"));
        }
    }
}
