//! Concurrency contract of the unified query engine: N threads querying one
//! `Arc<IndexSnapshot>` produce results identical to sequential execution,
//! batch and join evaluation equal per-entity evaluation, snapshots are
//! isolated from subsequent updates on the index handle, and a sharded
//! fan-out's scan jobs answer and count the same on the workers as on the
//! caller's thread, and an unsharded query repeats itself exactly after
//! every kind of publish — on every path the whole `QueryStats` work record,
//! not only the answer.

use digital_traces::index::testkit::{
    PlannerDispersedConfig, PruningAdversarialConfig, StreamConfig, UniformConfig, Workload,
};
use digital_traces::index::{
    IndexConfig, IngestBuffer, JoinOptions, MinSigIndex, PlannerConfig, Query, QueryStats,
    ShardDecision, ShardedMinSigIndex, TopKResult,
};
use digital_traces::{EntityId, PaperAdm, Period, PresenceInstance, SpIndex, TraceSet};
use proptest::prelude::*;
use std::sync::Arc;

/// Deterministic paired dataset: entities (2i, 2i+1) share an itinerary.
fn paired_dataset(pairs: usize) -> (SpIndex, TraceSet) {
    let sp = SpIndex::uniform(3, &[4, 4]).unwrap();
    let base = sp.base_units().to_vec();
    let mut traces = TraceSet::new(60);
    for i in 0..pairs {
        for member in 0..2u64 {
            let entity = EntityId(2 * i as u64 + member);
            for step in 0..6u64 {
                let unit = base[(i * 7 + step as usize) % base.len()];
                let start = step * 180;
                traces.record(PresenceInstance::new(
                    entity,
                    unit,
                    Period::new(start, start + 60).unwrap(),
                ));
            }
            let noise = base[(i * 13 + member as usize * 29 + 5) % base.len()];
            traces.record(PresenceInstance::new(
                entity,
                noise,
                Period::new(2000 + member * 120, 2060 + member * 120).unwrap(),
            ));
        }
    }
    (sp, traces)
}

fn assert_same_results(a: &[TopKResult], b: &[TopKResult], context: &str) {
    assert_eq!(a.len(), b.len(), "{context}: result lengths differ");
    for (x, y) in a.iter().zip(b.iter()) {
        assert_eq!(x.entity, y.entity, "{context}: entities differ");
        assert!(
            (x.degree - y.degree).abs() < 1e-15,
            "{context}: degrees differ ({} vs {})",
            x.degree,
            y.degree
        );
    }
}

#[test]
fn n_threads_over_one_snapshot_match_sequential_execution() {
    let (sp, traces) = paired_dataset(30);
    let index = MinSigIndex::build(&sp, &traces, IndexConfig::with_hash_functions(64)).unwrap();
    let measure = PaperAdm::default_for(sp.height() as usize);
    let queries: Vec<EntityId> = (0..60u64).map(EntityId).collect();
    let k = 5;

    // Ground truth: sequential evaluation on the handle.
    let sequential: Vec<Vec<TopKResult>> =
        queries.iter().map(|&q| index.top_k(q, k, &measure).unwrap().0).collect();

    // 8 worker threads share one snapshot; each evaluates a stripe of the
    // query set.
    let snapshot = index.snapshot();
    let threads = 8;
    let mut parallel: Vec<Option<Vec<TopKResult>>> = vec![None; queries.len()];
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let snapshot = Arc::clone(&snapshot);
                let queries = &queries;
                let measure = &measure;
                scope.spawn(move || {
                    (t..queries.len())
                        .step_by(threads)
                        .map(|i| (i, snapshot.top_k(queries[i], k, measure).unwrap().0))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for handle in handles {
            for (i, results) in handle.join().unwrap() {
                parallel[i] = Some(results);
            }
        }
    });

    for (i, (seq, par)) in sequential.iter().zip(parallel.iter()).enumerate() {
        let par = par.as_ref().expect("every query index was covered");
        assert_same_results(seq, par, &format!("query {i}"));
    }
}

/// The join's rows and the batch's are the per-probe single queries, in
/// probe order: the same answers and the same work record.
#[test]
fn batch_and_parallel_join_match_sequential_join_exactly() {
    let (sp, traces) = paired_dataset(25);
    let index = MinSigIndex::build(&sp, &traces, IndexConfig::with_hash_functions(48)).unwrap();
    let measure = PaperAdm::default_for(sp.height() as usize);
    let probes: Vec<EntityId> = (0..50u64).map(EntityId).collect();
    let snapshot = index.snapshot();

    let (rows, _) = snapshot
        .top_k_join(&probes, &measure, JoinOptions { k: 4, ..JoinOptions::default() })
        .unwrap();
    let batch = snapshot.top_k_batch(&probes, 4, &measure).unwrap();

    assert_eq!(rows.len(), probes.len(), "every probe is indexed");
    assert_eq!(rows.len(), batch.len());
    for ((&probe, row), (b, b_stats)) in probes.iter().zip(rows.iter()).zip(batch.iter()) {
        let ctx = format!("probe {probe}");
        assert_eq!(row.probe, probe, "{ctx}: rows in probe order");
        assert_same_results(&row.matches, b, "batch vs join");
        let (single, single_stats) = snapshot.top_k(probe, 4, &measure).unwrap();
        assert_eq!(single, row.matches, "{ctx}: per-probe top_k vs join");
        // The whole work record, not only the answer, is the same on every
        // schedule: one tree search run to completion, no bound shared.
        let expect = work(&single_stats);
        assert_eq!(work(&row.stats), expect, "{ctx}: join");
        assert_eq!(work(b_stats), expect, "{ctx}: batch");
        assert_eq!((expect.steps, expect.bound_updates), (1, 0), "{ctx}");
    }
}

#[test]
fn snapshots_are_isolated_from_later_updates() {
    let (sp, traces) = paired_dataset(10);
    let mut index = MinSigIndex::build(&sp, &traces, IndexConfig::with_hash_functions(32)).unwrap();
    let measure = PaperAdm::default_for(sp.height() as usize);

    let before = index.snapshot();
    let (top_before, _) = before.top_k(EntityId(0), 1, &measure).unwrap();
    assert_eq!(top_before[0].entity, EntityId(1));

    // Remove entity 0's partner on the handle; the old snapshot must not move.
    index.remove_entity(EntityId(1)).unwrap();
    assert!(!before.contains(EntityId(999)));
    assert!(before.contains(EntityId(1)), "snapshot still holds the removed entity");
    assert_eq!(before.num_entities(), 20);
    assert_eq!(index.num_entities(), 19);

    let (old_view, _) = before.top_k(EntityId(0), 1, &measure).unwrap();
    assert_eq!(old_view[0].entity, EntityId(1), "reads on the old snapshot are stable");
    let (new_view, _) = index.top_k(EntityId(0), 1, &measure).unwrap();
    assert_ne!(new_view[0].entity, EntityId(1), "the handle sees the removal");

    // And concurrent readers on the old snapshot while the handle keeps
    // mutating: every thread must see the pre-update answer throughout.
    std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            for _ in 0..50 {
                let (r, _) = before.top_k(EntityId(0), 1, &measure).unwrap();
                assert_eq!(r[0].entity, EntityId(1));
            }
        });
        for victim in [2u64, 3, 4] {
            index.remove_entity(EntityId(victim)).unwrap();
        }
        reader.join().unwrap();
    });
    assert_eq!(index.num_entities(), 16);
}

/// The work record of a query's stats: every field but the wall-clock ones.
fn work(stats: &QueryStats) -> QueryStats {
    QueryStats { planning_us: 0, query_time_us: 0, ..*stats }
}

/// Every admitted shard is a scan job of the fan-out's work queue: `query`
/// runs them on the workers (`parallel`), a one-query batch runs the same
/// plan on the caller's thread.  A scan prunes against its own top k only,
/// so not only the answer but the whole work record is schedule-independent
/// — on a uniform population, on the pruning-adversarial one (one shard
/// holds the clique; hot and cold queries at 1, 4 and 8 shards) and on the
/// planner's dispersed one.
#[test]
fn scan_jobs_answer_and_count_the_same_on_the_workers_as_on_the_caller() {
    let mut cases: Vec<(String, Workload, usize, Vec<EntityId>)> = Vec::new();
    let uniform = Workload::uniform(UniformConfig { entities: 240, ..UniformConfig::default() });
    let queries = uniform.sample_entities(16, 0x5CA9);
    cases.push(("uniform".into(), uniform, 4, queries));
    for shards in [1usize, 4, 8] {
        let (w, hot) = Workload::pruning_adversarial(PruningAdversarialConfig {
            num_shards: shards,
            hot_entities: 24,
            cold_entities: 200,
            ..PruningAdversarialConfig::default()
        });
        let mut queries: Vec<EntityId> = hot.iter().copied().step_by(6).collect();
        queries.extend(w.entities().into_iter().filter(|e| !hot.contains(e)).step_by(40));
        cases.push((format!("pruning-adversarial, {shards} shards"), w, shards, queries));
    }
    for shards in [4usize, 8] {
        let (w, entities) = Workload::planner_dispersed(PlannerDispersedConfig {
            num_shards: shards,
            entities_per_shard: 10,
            ..PlannerDispersedConfig::default()
        });
        let queries = entities.into_iter().step_by(7).collect();
        cases.push((format!("dispersed, {shards} shards"), w, shards, queries));
    }
    for (name, w, shards, queries) in &cases {
        let config = IndexConfig::with_hash_functions(16);
        let index = ShardedMinSigIndex::build(&w.sp, &w.traces, config, *shards).unwrap();
        let snapshot = index.snapshot();
        let measure = w.measure();
        let query = Query::new(5, &measure);
        for &entity in queries {
            let ctx = format!("{name}, {entity}");
            let plan = snapshot.explain(entity, 5, &measure, PlannerConfig::default()).unwrap();
            assert!(plan.admitted().all(|s| s.decision == ShardDecision::Scan), "{ctx}");
            let (threaded, threaded_stats) = snapshot.query(entity, &query).unwrap();
            let (inline, inline_stats) = snapshot.query_batch(&[entity], &query).unwrap().remove(0);
            assert_eq!(threaded, inline, "{ctx}");
            assert_eq!(threaded, snapshot.brute_force(entity, 5, &measure).unwrap(), "{ctx}");
            assert_eq!(threaded_stats.shards_scanned, plan.shards_scanned(), "{ctx}");
            assert_eq!(work(&threaded_stats), work(&inline_stats), "{ctx}");
            let tree = (threaded_stats.nodes_visited, threaded_stats.steps);
            assert_eq!((tree, threaded_stats.bound_updates), ((0, 0), 0), "{ctx}");
        }
    }
}

/// The unsharded half of repeatability: on a `MinSigIndex` that every
/// publisher has touched — lone inserts of new ids, a replace, an ingest
/// flush and a removal — each query answers bitwise the same twice on the
/// handle and once more on a held snapshot, with the same work record.
#[test]
fn unsharded_queries_repeat_exactly_after_every_publisher() {
    let w = Workload::uniform(UniformConfig {
        entities: 90,
        visits: 40,
        time_slots: 400,
        ..UniformConfig::default()
    });
    let mut index = w.build_index(IndexConfig::with_hash_functions(16));
    let inserted: Vec<EntityId> = (0..3u64).map(|i| EntityId(9_000 + i)).collect();
    for (i, &entity) in inserted.iter().enumerate() {
        let donor = w.traces.trace(EntityId(10 + i as u64)).unwrap();
        assert!(index.upsert_entity(entity, donor).unwrap(), "{entity} is new");
    }
    index.update_entity(EntityId(4), w.traces.trace(EntityId(50)).unwrap()).unwrap();
    let mut buffer: IngestBuffer = w
        .stream(StreamConfig {
            records: 80,
            existing_entities: 90,
            new_entity_base: 10_000,
            new_entity_span: 6,
            new_entity_percent: 20,
            start_tick: 30_000,
            time_slots: 90,
            seed: 0x5EED,
        })
        .into_iter()
        .collect();
    buffer.flush(&mut index).unwrap();
    index.remove_entity(EntityId(7)).unwrap();
    assert_eq!(index.epoch(), 6);

    let held = index.snapshot();
    let measure = w.measure();
    let mut queries = inserted.clone();
    queries.push(EntityId(4));
    queries.extend(index.sequences().keys().copied().step_by(7));
    assert!(queries.len() >= 16);
    let bits = |answer: &[TopKResult]| -> Vec<(EntityId, u64)> {
        answer.iter().map(|r| (r.entity, r.degree.to_bits())).collect()
    };
    for &entity in &queries {
        let (first, first_stats) = index.top_k(entity, 8, &measure).unwrap();
        let second = index.top_k(entity, 8, &measure).unwrap();
        let on_held = held.top_k(entity, 8, &measure).unwrap();
        for (run, (answer, stats)) in [("second run", second), ("held snapshot", on_held)] {
            assert_eq!(bits(&answer), bits(&first), "{entity}, {run}: answer");
            assert_eq!(work(&stats), work(&first_stats), "{entity}, {run}: work");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `top_k_batch` equals per-entity `top_k` for every entity, for arbitrary
    /// workloads and k.
    #[test]
    fn batch_equals_per_entity_top_k(
        workload in proptest::collection::vec((0u64..10, 0usize..16, 0u64..48, 1u64..4), 1..80),
        k in 1usize..6,
    ) {
        let sp = SpIndex::uniform(2, &[4, 4]).unwrap();
        let base = sp.base_units().to_vec();
        let mut traces = TraceSet::new(60);
        for &(entity, unit, start_hour, hours) in &workload {
            let start = start_hour * 60;
            traces.record(PresenceInstance::new(
                EntityId(entity),
                base[unit % base.len()],
                Period::new(start, start + hours * 60).unwrap(),
            ));
        }
        let index = MinSigIndex::build(&sp, &traces, IndexConfig::with_hash_functions(16)).unwrap();
        let measure = PaperAdm::default_for(sp.height() as usize);
        let entities: Vec<EntityId> = traces.entities().collect();

        let batch = index.top_k_batch(&entities, k, &measure).unwrap();
        prop_assert_eq!(batch.len(), entities.len());
        for (&entity, (results, stats)) in entities.iter().zip(batch.iter()) {
            let (single, single_stats) = index.top_k(entity, k, &measure).unwrap();
            prop_assert_eq!(results.len(), single.len());
            for (b, s) in results.iter().zip(single.iter()) {
                prop_assert_eq!(b.entity, s.entity);
                prop_assert!((b.degree - s.degree).abs() < 1e-15);
            }
            // Work accounting is deterministic too, not just the answers.
            prop_assert_eq!(work(stats), work(&single_stats));
        }
    }
}
