//! Black-box conformance of the sharded index: for random populations,
//! arbitrary shard counts, seeded and cold (unseeded, all-scan) fan-outs, every
//! sharded query path must answer **fully bit-identically** to the single
//! unsharded index and the brute-force oracle — identical degree vectors,
//! identical entities at every rank (boundary ties included: all exact paths
//! prune strictly and tie-break by entity id, see `minsig::engine`), and
//! canonical ordering — and a saved/reopened sharded index must answer fully
//! bit-identically to the one that was saved.
//!
//! This is the sharding analogue of checking snapshot isolation from the
//! outside: no internal invariant is trusted, only observable answers
//! compared against oracles.

use digital_traces::index::testkit::{
    assert_equivalent_answers, assert_valid_top_k, scan_scored, StreamConfig, UniformConfig,
    Workload,
};
use digital_traces::index::{
    IndexConfig, JoinOptions, MinSigIndex, PlannerConfig, Query, ShardedMinSigIndex,
};
use digital_traces::mobility_models::{SynConfig, SynDataset};
use digital_traces::{EntityId, PaperAdm};
use proptest::prelude::*;

/// Builds the sharded index and its unsharded twin over one random workload.
fn build_pair(
    entities: u64,
    visits: u64,
    seed: u64,
    nh: u32,
    shards: usize,
) -> (Workload, MinSigIndex, ShardedMinSigIndex) {
    let w = Workload::uniform(UniformConfig {
        entities,
        visits,
        time_slots: 48,
        seed,
        ..UniformConfig::default()
    });
    let config = IndexConfig { num_hash_functions: nh, ..IndexConfig::default() };
    let unsharded = w.build_index(config);
    let sharded = ShardedMinSigIndex::build(&w.sp, &w.traces, config, shards).unwrap();
    (w, unsharded, sharded)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `top_k` conformance: sharded == unsharded == brute force for every
    /// entity (degrees exactly — well within the 1e-9 bar — identical
    /// ordering), and every sharded answer is a *valid* top-k selection
    /// against the full ground-truth degree table.
    #[test]
    fn sharded_top_k_equals_unsharded_and_brute_force(
        entities in 2u64..40,
        visits in 1u64..8,
        seed in 0u64..1_000,
        nh in 4u32..32,
        shards in 1usize..9,
        k in 1usize..7,
    ) {
        let (w, unsharded, sharded) = build_pair(entities, visits, seed, nh, shards);
        let measure = w.measure();
        prop_assert_eq!(sharded.num_entities(), unsharded.num_entities());
        let population = unsharded.num_entities();
        for query in w.entities() {
            let (exact, _) = unsharded.top_k(query, k, &measure).unwrap();
            let (fanned, _) = sharded.top_k(query, k, &measure).unwrap();
            assert_equivalent_answers(&fanned, &exact, &format!("sharded vs unsharded, {query}"));

            // Oracles: the canonical brute-force top-k (both flavours agree
            // fully — scans are tie-complete) and the full degree table.
            let oracle = unsharded.snapshot().brute_force(query, k, &measure).unwrap();
            let sharded_oracle = sharded.snapshot().brute_force(query, k, &measure).unwrap();
            prop_assert_eq!(&oracle, &sharded_oracle, "the two oracles must agree, {}", query);
            assert_equivalent_answers(&fanned, &oracle, &format!("sharded vs oracle, {query}"));

            let truth = unsharded.brute_force(query, population, &measure).unwrap();
            assert_valid_top_k(&fanned, &truth, k, &format!("validity for {query}"));
        }
    }

    /// The cold fan-out — no seed, nothing skipped, every shard a scan job
    /// on the workers — is fully bit-identical to the unsharded index and
    /// the brute-force oracle: the schedule moves neither answers nor work
    /// counters.  A sketchless index is what makes every plan cold.
    #[test]
    fn cooperative_scheduler_never_changes_answers(
        entities in 2u64..120,
        visits in 1u64..8,
        seed in 0u64..1_000,
        shards in 1usize..9,
        k in 1usize..7,
    ) {
        let (w, unsharded, mut sharded) = build_pair(entities, visits, seed, 16, shards);
        sharded.set_synopsis_sketch_size(0);
        let measure = w.measure();
        let snapshot = sharded.snapshot();
        for query in w.sample_entities(8, seed) {
            let (exact, _) = unsharded.top_k(query, k, &measure).unwrap();
            let (fanned, stats) = snapshot.query(query, &Query::new(k, &measure)).unwrap();
            assert_equivalent_answers(&fanned, &exact, &format!("cold fan-out, {query}"));
            let oracle = unsharded.snapshot().brute_force(query, k, &measure).unwrap();
            assert_equivalent_answers(&fanned, &oracle, &format!("vs oracle, {query}"));
            prop_assert!(!stats.threshold_seeded);
            prop_assert_eq!(stats.shards_skipped, 0);
            // Every shard is scanned, and no tree row is touched.
            prop_assert_eq!(stats.shards_scanned, shards);
            prop_assert_eq!((stats.nodes_visited, stats.leaves_visited, stats.steps), (0, 0, 0));
        }
    }

    /// `top_k_batch` and `top_k_join` conformance: same rows, same order,
    /// same skip behaviour as the unsharded drivers.
    #[test]
    fn sharded_batch_and_join_equal_unsharded(
        entities in 2u64..30,
        seed in 0u64..1_000,
        shards in 1usize..7,
        k in 1usize..5,
    ) {
        let (w, unsharded, sharded) = build_pair(entities, 4, seed, 16, shards);
        let measure = w.measure();
        // Probe set with a guaranteed-unindexed ghost in the middle.
        let mut probes = w.entities();
        probes.insert(probes.len() / 2, EntityId(1_000_000));

        let options = JoinOptions { k, ..JoinOptions::default() };
        let (rows_a, stats_a) = unsharded.snapshot().top_k_join(&probes, &measure, options).unwrap();
        let (rows_b, stats_b) = sharded.snapshot().top_k_join(&probes, &measure, options).unwrap();
        prop_assert_eq!(rows_a.len(), rows_b.len());
        prop_assert_eq!(stats_a.probes, stats_b.probes);
        prop_assert_eq!(stats_a.skipped, stats_b.skipped);
        for (a, b) in rows_a.iter().zip(rows_b.iter()) {
            prop_assert_eq!(a.probe, b.probe);
            assert_equivalent_answers(&b.matches, &a.matches, &format!("join row {}", a.probe));
        }

        let queries = w.entities();
        let batch_a = unsharded.snapshot().top_k_batch(&queries, k, &measure).unwrap();
        let batch_b = sharded.snapshot().top_k_batch(&queries, k, &measure).unwrap();
        prop_assert_eq!(batch_a.len(), batch_b.len());
        for (i, ((a, _), (b, _))) in batch_a.iter().zip(batch_b.iter()).enumerate() {
            assert_equivalent_answers(b, a, &format!("batch entry {i}"));
        }
        // An unknown query fails the whole batch on both paths.
        prop_assert!(unsharded.snapshot().top_k_batch(&probes, k, &measure).is_err());
        prop_assert!(sharded.snapshot().top_k_batch(&probes, k, &measure).is_err());
    }

    /// Durability conformance: a saved-then-reopened sharded index answers
    /// every query **fully bit-identically** to the index that was saved
    /// (identical shard structure ⇒ identical execution, ties included), and
    /// therefore stays equivalent to the unsharded oracle.
    #[test]
    fn saved_and_reopened_sharded_index_answers_identically(
        entities in 2u64..30,
        seed in 0u64..1_000,
        shards in 1usize..7,
        k in 1usize..5,
    ) {
        let (w, unsharded, sharded) = build_pair(entities, 4, seed, 12, shards);
        let dir = std::env::temp_dir().join(format!(
            "shard-conformance-{}-{entities}-{seed}-{shards}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        sharded.save(&dir).unwrap();
        let reopened = ShardedMinSigIndex::open(&dir).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();

        prop_assert_eq!(reopened.num_shards(), shards);
        prop_assert_eq!(reopened.num_entities(), sharded.num_entities());
        let measure = w.measure();
        for query in w.entities() {
            let (a, _) = sharded.top_k(query, k, &measure).unwrap();
            let (b, _) = reopened.top_k(query, k, &measure).unwrap();
            prop_assert_eq!(&a, &b, "reopened sharded index diverged for {}", query);
            let (c, _) = unsharded.top_k(query, k, &measure).unwrap();
            assert_equivalent_answers(&b, &c, &format!("reopened vs unsharded, {query}"));
        }
    }

    /// Ingest conformance: streaming a batch into the sharded index yields
    /// the same answers as an unsharded index built from scratch over the
    /// merged traces.
    #[test]
    fn sharded_ingest_equals_rebuild_over_merged_traces(
        entities in 4u64..24,
        seed in 0u64..1_000,
        shards in 1usize..6,
        records in 10usize..150,
    ) {
        let w = Workload::uniform(UniformConfig {
            entities,
            visits: 4,
            seed,
            ..UniformConfig::default()
        });
        let config = IndexConfig { num_hash_functions: 12, ..IndexConfig::default() };
        let mut sharded = ShardedMinSigIndex::build(&w.sp, &w.traces, config, shards).unwrap();
        let stream = w.stream(StreamConfig {
            records,
            existing_entities: entities,
            seed: seed ^ 0xABCD,
            ..StreamConfig::default()
        });
        let mut merged = w.traces.clone();
        for r in &stream {
            merged.record(*r);
        }
        sharded.ingest_batch(stream).unwrap();

        let rebuilt = MinSigIndex::build(&w.sp, &merged, config).unwrap();
        prop_assert_eq!(sharded.num_entities(), rebuilt.num_entities());
        let measure = w.measure();
        for query in merged.entities() {
            let (a, _) = sharded.top_k(query, 3, &measure).unwrap();
            let (b, _) = rebuilt.top_k(query, 3, &measure).unwrap();
            assert_equivalent_answers(&a, &b, &format!("post-ingest, {query}"));
        }
    }
}

/// The planned path on the end-to-end benchmark's own population — 5 000 SYN
/// entities at its parameters (a week, a fifth co-moving), 4 shards, 64
/// queries of k = 10: the seed skips no shard, so every shard of every query
/// is flat-scanned on the fan-out's workers, and the answers are the brute-force ones bit for bit.
/// A scan scores the seeds and then exactly the members its rule picks, most
/// members sharing no level-1 cell with the query going unscored.
/// Run with `cargo test --release -- --ignored`.
#[test]
#[ignore = "5 000-entity SYN build; run explicitly or via CI"]
fn planned_top_k_scans_every_shard_on_the_full_syn_population() {
    let dataset = SynDataset::generate(SynConfig {
        num_entities: 5_000,
        days: 7,
        comover_fraction: 0.2,
        seed: 1,
        ..SynConfig::default()
    })
    .unwrap();
    let config = IndexConfig::with_hash_functions(32);
    let sharded =
        ShardedMinSigIndex::build(dataset.sp_index(), &dataset.traces, config, 4).unwrap();
    let snapshot = sharded.snapshot();
    let measure = PaperAdm::default_for(dataset.sp_index().height() as usize);
    let mut skipped = 0;
    for query in dataset.traces.entities().step_by(5_000 / 64).take(64) {
        let (planned, stats) = snapshot.top_k(query, 10, &measure).unwrap();
        let oracle = snapshot.brute_force(query, 10, &measure).unwrap();
        assert_equivalent_answers(&planned, &oracle, &format!("full SYN, {query}"));
        assert_eq!((stats.shards_scanned, stats.shards_skipped), (4, 0), "{query}");
        assert_eq!((stats.nodes_visited, stats.steps), (0, 0), "{query}: no tree row touched");
        // The 64 sketch entities seed (63 when the query is one of them);
        // then each scan scores the members sharing a level-1 cell with the
        // query, and the others only when those leave its top 10 short of
        // the zero-overlap bound.
        let sequence = snapshot.sequence(query).unwrap();
        let scored: usize = (0..4)
            .map(|shard| {
                let members = (snapshot.shard(shard).sequences().iter())
                    .filter(|&(&e, _)| e != query)
                    .map(|(&e, seq)| (e, seq));
                scan_scored(sequence, members, 10, &measure).len()
            })
            .sum();
        let plan = snapshot.explain(query, 10, &measure, PlannerConfig::default()).unwrap();
        let seeds = plan.seed_candidates;
        assert!((63..=64).contains(&seeds), "{query}: {seeds} seeds");
        assert_eq!(stats.entities_checked, seeds + scored, "{query}: seeds, then the scored");
        skipped += 4_999 - scored;
    }
    assert!(skipped > 64 * 4_999 / 2, "most members share no level-1 cell ({skipped} skipped)");
}
