//! Shared fixtures for the Criterion benchmarks.
//!
//! The benches regenerate the paper's figures at a reduced, fixed scale so that
//! `cargo bench` finishes in minutes; the `experiments` binary runs the same code
//! at larger scales.  Keeping the fixture construction here (rather than in each
//! bench file) ensures every bench measures the same datasets.

use experiments::Scale;
use minsig::testkit::{HierarchySpec, PlannerLocalizedConfig, PruningAdversarialConfig, Workload};
use minsig::{
    engine, IndexConfig, MinSigIndex, QueryOptions, QueryStats, ShardedSnapshot, TopKResult,
};
use mobility::{SynConfig, SynDataset};
use trace_model::{AssociationMeasure, EntityId, PaperAdm};

/// The fixed scale used by all benchmarks.
pub fn bench_scale() -> Scale {
    Scale::smoke()
}

/// A small but non-trivial benchmark dataset (deterministic).
pub fn bench_dataset() -> SynDataset {
    let mut config: SynConfig = bench_scale().syn_config();
    config.num_entities = 600;
    config.days = 4;
    SynDataset::generate(config).expect("bench dataset generates")
}

/// The paper's SYN population at the scale the end-to-end benchmark runs it
/// (5 000 entities, a week, a fifth of them co-moving): large enough that the
/// candidate arena does not fit in cache, which is what the kernel bench's
/// pop-order leg needs.
pub fn syn_5k_dataset() -> SynDataset {
    SynDataset::generate(SynConfig {
        num_entities: 5_000,
        days: 7,
        comover_fraction: 0.2,
        seed: 1,
        ..SynConfig::default()
    })
    .expect("the SYN generator accepts its default parameters")
}

/// Number of entities in [`shard_bench_workload`].
pub const SHARD_BENCH_ENTITIES: u64 = 5_000;

/// Number of hot (high-overlap) entities in [`shard_bench_workload`]; the
/// shard-scaling bench queries exactly these.
pub const SHARD_BENCH_HOT: u64 = 64;

/// The ≥5k-entity skewed population for the shard-scaling bench, plus the
/// hot entity ids the bench queries.
///
/// This is the [`Workload::pruning_adversarial`] shape: a hot clique whose
/// members hold each other's entire top-k (all routing to one shard at the
/// bench's largest shard count) over a weak cold background — the population
/// where cross-shard bound sharing has real pruning room, so the bench
/// measures the cooperative scheduler's intended regime rather than noise.
/// Deterministic: same workload on every machine and run.
pub fn shard_bench_workload() -> (Workload, Vec<EntityId>) {
    Workload::pruning_adversarial(PruningAdversarialConfig {
        num_shards: 8,
        hot_entities: SHARD_BENCH_HOT,
        cold_entities: SHARD_BENCH_ENTITIES - SHARD_BENCH_HOT,
        itinerary_steps: 8,
        hierarchy: HierarchySpec::default(),
        seed: 42,
    })
}

/// The ≥5k-entity **localized** population for the shard-scaling bench: the
/// query planner's best case, plus the hot entity ids the bench queries.
///
/// This is the [`Workload::planner_localized`] shape — a hot clique holding
/// each other's entire top-k, all routing to one shard at the bench's
/// largest shard count, over a background of single-cell entities filling
/// the other shards.  Every background shard is provably skippable for a
/// hot query, so the bench measures the planner's intended regime: shard
/// skipping plus threshold seeding against the cooperative and independent
/// baselines.  Deterministic: same workload on every machine and run.
pub fn planner_bench_workload() -> (Workload, Vec<EntityId>) {
    Workload::planner_localized(PlannerLocalizedConfig {
        num_shards: 8,
        hot_entities: SHARD_BENCH_HOT,
        background_entities: SHARD_BENCH_ENTITIES - SHARD_BENCH_HOT,
        itinerary_steps: 8,
        hierarchy: HierarchySpec::default(),
        seed: 42,
    })
}

/// The *independent* fan-out the shard benches keep as their baseline and
/// oracle: every shard's tree searched to completion against its private
/// threshold, the per-shard answers merged — nothing planned, nothing shared.
/// Work counters are summed over the shards.
pub fn independent_top_k<M: AssociationMeasure + ?Sized>(
    snapshot: &ShardedSnapshot,
    query: EntityId,
    k: usize,
    measure: &M,
) -> (Vec<TopKResult>, QueryStats) {
    let seq = snapshot.sequence(query).expect("bench queries are indexed");
    let mut work = QueryStats::default();
    let parts: Vec<Vec<TopKResult>> = (0..snapshot.num_shards())
        .map(|shard| {
            let (results, stats) = snapshot
                .shard(shard)
                .top_k_for_sequence(seq, Some(query), k, measure, QueryOptions::default())
                .expect("bench query answers");
            work.absorb_work(&stats);
            results
        })
        .collect();
    (engine::merge_top_k(k, parts), work)
}

/// Builds an index over the benchmark dataset with `nh` hash functions.
pub fn bench_index(dataset: &SynDataset, nh: u32) -> MinSigIndex {
    MinSigIndex::build(dataset.sp_index(), &dataset.traces, IndexConfig::with_hash_functions(nh))
        .expect("bench index builds")
}

/// The default association measure for the benchmark dataset.
pub fn bench_measure(dataset: &SynDataset) -> PaperAdm {
    PaperAdm::default_for(dataset.sp_index().height() as usize)
}

/// Deterministic query entities for the benchmark dataset.
pub fn bench_queries(dataset: &SynDataset, n: usize) -> Vec<EntityId> {
    dataset.query_entities(n, 12345)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_bench_workload_is_the_documented_shape() {
        let (w, hot) = shard_bench_workload();
        assert_eq!(w.traces.num_entities() as u64, SHARD_BENCH_ENTITIES);
        assert_eq!(hot.len() as u64, SHARD_BENCH_HOT);
        // The whole hot clique lives in one shard at the largest bench count.
        let home = minsig::shard_of(hot[0], 8);
        assert!(hot.iter().all(|&e| minsig::shard_of(e, 8) == home));
    }

    #[test]
    fn planner_bench_workload_is_the_documented_shape() {
        let (w, hot) = planner_bench_workload();
        assert_eq!(w.traces.num_entities() as u64, SHARD_BENCH_ENTITIES);
        assert_eq!(hot.len() as u64, SHARD_BENCH_HOT);
        let home = minsig::shard_of(hot[0], 8);
        assert!(hot.iter().all(|&e| minsig::shard_of(e, 8) == home));
        // Background entities live in other shards with single-cell traces.
        let hot_set: std::collections::BTreeSet<EntityId> = hot.iter().copied().collect();
        for entity in w.traces.entities() {
            if !hot_set.contains(&entity) {
                assert_ne!(minsig::shard_of(entity, 8), home);
            }
        }
    }

    #[test]
    fn fixtures_are_consistent() {
        let dataset = bench_dataset();
        assert_eq!(dataset.traces.num_entities(), 600);
        let index = bench_index(&dataset, 16);
        assert_eq!(index.num_entities(), 600);
        let queries = bench_queries(&dataset, 4);
        assert_eq!(queries.len(), 4);
        let measure = bench_measure(&dataset);
        let (results, _) = index.top_k(queries[0], 1, &measure).unwrap();
        assert_eq!(results.len(), 1);
    }
}
