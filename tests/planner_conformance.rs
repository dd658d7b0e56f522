//! Black-box conformance of the cost-based query planner: for random
//! populations, arbitrary shard counts and synopsis sketch sizes, the
//! planned sharded paths must answer **fully bit-identically** to the
//! unsharded index and the brute-force oracle — boundary ties included.
//! Exact planning has no off switch; the sketch size is what decides how
//! much it does (size 0: no seed, no skip, every shard scanned).  On the
//! planted planner workloads the planner must also *do* what it promises:
//! skip every background shard of the localized population, skip nothing on
//! the dispersed one, and report both through `QueryStats`.
//!
//! Access paths: every admitted shard is flat-scanned (sample-scanned only
//! when picked up past a latency budget's deadline), and the scan does the
//! pruning the tree did — the `access_path_*` tests at the end.  A plan
//! depends on neither the budget nor pool residency.
//!
//! Persistence: a saved-then-reopened sharded index must carry exactly the
//! synopsis a freshly rebuilt index would (sketch size included), and
//! version-1 directories written before synopses existed must still open
//! and answer identically.

use digital_traces::index::testkit::{
    assert_equivalent_answers, scan_scored, PlannerDispersedConfig, PlannerLocalizedConfig,
    PruningAdversarialConfig, UniformConfig, Workload,
};
use digital_traces::index::{
    shard::SHARD_MANIFEST_FILE, shard_of, IndexConfig, MinSigIndex, PlannerConfig, Query,
    QueryPlan, ShardDecision, ShardedMinSigIndex, ShardedSnapshot, Synopsis, INDEX_MAGIC,
    PARTITION_VERSION, SHARD_MANIFEST_MAGIC,
};
use digital_traces::mobility_models::{SynConfig, SynDataset};
use digital_traces::storage::segment::{self, SegmentReader, SegmentWriter};
use digital_traces::storage::{PagedTraceStore, PoolConfig, PAGE_SIZE};
use digital_traces::{EntityId, PaperAdm};
use proptest::prelude::*;

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

fn temp_dir(name: &str, tag: &str) -> std::path::PathBuf {
    let dir =
        std::env::temp_dir().join(format!("planner-test-{}-{name}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The heart of the contract: planned == unsharded == brute force,
    /// fully bit-identical, over arbitrary shard counts, `k` and sketch
    /// sizes from none through one to the default.  The plan is what the
    /// execution reports, and with no sketch it is the cold fan-out: never
    /// seeded, nothing skipped, every shard scanned.
    #[test]
    fn sketch_size_decides_the_plan_shape_never_the_answer(
        entities in 2u64..120,
        visits in 1u64..8,
        seed in 0u64..1_000,
        nh in 4u32..32,
        shards in 1usize..9,
        k in 1usize..7,
        m_pick in 0usize..3,
    ) {
        let m = [0, 1, 16][m_pick];
        let (w, unsharded, mut sharded) = build_pair(entities, visits, seed, nh, shards);
        sharded.set_synopsis_sketch_size(m);
        let measure = w.measure();
        let snapshot = sharded.snapshot();
        for query in w.sample_entities(12, seed) {
            let ctx = format!("m={m}, {shards} shards, k={k}, {query}");
            let (planned, stats) = snapshot.query(query, &Query::new(k, &measure)).unwrap();
            let (exact, _) = unsharded.top_k(query, k, &measure).unwrap();
            assert_equivalent_answers(&planned, &exact, &format!("planned vs unsharded, {ctx}"));
            let oracle = unsharded.brute_force(query, k, &measure).unwrap();
            assert_equivalent_answers(&planned, &oracle, &format!("planned vs oracle, {ctx}"));
            let plan = snapshot.explain(query, k, &measure, PlannerConfig::default()).unwrap();
            prop_assert_eq!(
                (stats.threshold_seeded, stats.shards_skipped, stats.shards_scanned),
                (plan.seeded(), plan.shards_skipped(), plan.shards_scanned()),
                "{}", ctx
            );
            prop_assert!(stats.shards_skipped < shards, "a query never skips every shard");
            prop_assert_eq!(
                plan.shards_scanned() + plan.shards_skipped(), shards, "{}", ctx
            );
            prop_assert_eq!((stats.nodes_visited, stats.steps), (0, 0), "{}", ctx);
            if m == 0 {
                prop_assert!(!plan.seeded() && plan.seed_candidates == 0, "{}", ctx);
                prop_assert_eq!(plan.shards_scanned(), shards, "{}", ctx);
            }
        }
    }

    /// The default paths (`top_k`, batches, joins) run through the planner;
    /// they too must stay bit-identical to the unsharded twin.
    #[test]
    fn default_planned_paths_match_unsharded(
        entities in 2u64..30,
        seed in 0u64..1_000,
        shards in 1usize..7,
        k in 1usize..5,
    ) {
        let (w, unsharded, sharded) = build_pair(entities, 4, seed, 16, shards);
        let measure = w.measure();
        let queries = w.entities();
        let batch_a = unsharded.snapshot().top_k_batch(&queries, k, &measure).unwrap();
        let batch_b = sharded.snapshot().top_k_batch(&queries, k, &measure).unwrap();
        prop_assert_eq!(batch_a.len(), batch_b.len());
        for (i, ((a, _), (b, _))) in batch_a.iter().zip(batch_b.iter()).enumerate() {
            assert_equivalent_answers(b, a, &format!("planned batch entry {i}"));
        }
    }

    /// Persistence round-trip: the reopened synopsis (sketch size included)
    /// equals the synopsis of a freshly rebuilt index over the same traces,
    /// per shard, and the reopened index answers identically.
    #[test]
    fn reopened_synopsis_equals_rebuilt_synopsis(
        entities in 2u64..30,
        seed in 0u64..1_000,
        shards in 1usize..6,
        m in 1usize..24,
        k in 1usize..5,
    ) {
        let w = Workload::uniform(UniformConfig {
            entities, visits: 4, seed, ..UniformConfig::default()
        });
        let config = IndexConfig { num_hash_functions: 12, ..IndexConfig::default() };
        let mut sharded = ShardedMinSigIndex::build(&w.sp, &w.traces, config, shards).unwrap();
        sharded.set_synopsis_sketch_size(m);
        let dir = temp_dir("roundtrip", &format!("{entities}-{seed}-{shards}-{m}"));
        sharded.save(&dir).unwrap();
        let reopened = ShardedMinSigIndex::open(&dir).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();

        let mut rebuilt = ShardedMinSigIndex::build(&w.sp, &w.traces, config, shards).unwrap();
        rebuilt.set_synopsis_sketch_size(m);
        for i in 0..shards {
            prop_assert_eq!(
                reopened.shard(i).snapshot().synopsis(),
                rebuilt.shard(i).snapshot().synopsis(),
                "shard {} synopsis diverged after reload", i
            );
        }
        let measure = w.measure();
        for query in w.entities() {
            let (a, _) = sharded.top_k(query, k, &measure).unwrap();
            let (b, _) = reopened.top_k(query, k, &measure).unwrap();
            prop_assert_eq!(&a, &b, "reopened planned answers diverged for {}", query);
        }
    }
}

/// The planner's best case, pinned end to end: on the localized workload a
/// hot query must skip **every** background shard (`num_shards - 1 ≥ half`),
/// seed the threshold, and still answer bit-identically to every oracle.
#[test]
fn localized_workload_skips_every_background_shard() {
    for shards in [2usize, 4, 8] {
        let (w, hot) = Workload::planner_localized(PlannerLocalizedConfig {
            num_shards: shards,
            hot_entities: 12,
            background_entities: 48,
            ..PlannerLocalizedConfig::default()
        });
        let config = IndexConfig::with_hash_functions(32);
        let unsharded = w.build_index(config);
        let sharded = ShardedMinSigIndex::build(&w.sp, &w.traces, config, shards).unwrap();
        let snapshot = sharded.snapshot();
        let measure = w.measure();
        let k = 5;
        for &query in &hot {
            let (planned, stats) = snapshot.query(query, &Query::new(k, &measure)).unwrap();
            assert!(stats.threshold_seeded, "{shards} shards: the sketch must seed k={k}");
            assert_eq!(
                stats.shards_skipped,
                shards - 1,
                "{shards} shards: every background shard is provably skippable"
            );
            assert!(
                stats.shards_skipped * 2 >= shards,
                "{shards} shards: at least half are skipped"
            );
            let (exact, _) = unsharded.top_k(query, k, &measure).unwrap();
            assert_equivalent_answers(&planned, &exact, &format!("localized, {query}"));
            // The plan agrees with the execution's accounting.
            let plan = snapshot.explain(query, k, &measure, PlannerConfig::default()).unwrap();
            assert_eq!(plan.shards_skipped(), stats.shards_skipped);
            assert!(plan.seeded());
            assert!(plan.explain().contains("skip"));
        }
    }
}

/// The planner's worst case: on the dispersed workload nothing is provably
/// skippable — `shards_skipped` must be 0 and answers stay identical.
#[test]
fn dispersed_workload_skips_nothing() {
    for shards in [2usize, 4, 8] {
        let (w, entities) = Workload::planner_dispersed(PlannerDispersedConfig {
            num_shards: shards,
            entities_per_shard: 10,
            ..PlannerDispersedConfig::default()
        });
        let config = IndexConfig::with_hash_functions(32);
        let unsharded = w.build_index(config);
        let sharded = ShardedMinSigIndex::build(&w.sp, &w.traces, config, shards).unwrap();
        let snapshot = sharded.snapshot();
        let measure = w.measure();
        for &query in entities.iter().step_by(7) {
            let (planned, stats) = snapshot.query(query, &Query::new(3, &measure)).unwrap();
            assert_eq!(stats.shards_skipped, 0, "{shards} shards: nothing is skippable");
            let (exact, _) = unsharded.top_k(query, 3, &measure).unwrap();
            assert_equivalent_answers(&planned, &exact, &format!("dispersed, {query}"));
        }
    }
}

/// Synopses stay consistent under streaming mutation: after an ingest
/// batch, every shard's synopsis equals a fresh recomputation over its
/// current sequences, at the shard's current epoch.
#[test]
fn synopsis_tracks_ingest_and_epochs() {
    let (w, _, mut sharded) = build_pair(24, 4, 7, 16, 3);
    let stream = w.stream(digital_traces::index::testkit::StreamConfig {
        records: 150,
        existing_entities: 24,
        ..Default::default()
    });
    sharded.ingest_batch(stream).unwrap();
    for i in 0..sharded.num_shards() {
        let shard = sharded.shard(i);
        let snapshot = shard.snapshot();
        let expected = Synopsis::compute(
            snapshot.tree().levels(),
            snapshot.sequences().iter().map(|(e, s)| (*e, s)),
            snapshot.synopsis().sketch_size(),
            shard.epoch(),
        );
        assert_eq!(snapshot.synopsis(), &expected, "shard {i} synopsis drifted");
        assert_eq!(snapshot.synopsis().epoch(), shard.epoch(), "shard {i} epoch version");
    }
}

/// 64-bit FNV-1a over a shard file's bytes — the digest recorded in `MSHD`
/// manifests (mirrored here to craft valid version-1 directories).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Version-1 compatibility: a directory of `MSIX` v1 shard files (no `SYN`
/// segment) under an `MSHD` v1 manifest — exactly what pre-planner builds
/// wrote — must still open, answer bit-identically, and synthesise its
/// synopses at the default sketch size.
#[test]
fn version_1_directories_still_open() {
    let (w, unsharded, sharded) = build_pair(30, 4, 11, 16, 3);
    let dir_v2 = temp_dir("v1compat", "modern");
    sharded.save(&dir_v2).unwrap();

    // Re-encode every shard file as version 1: same segments minus SYN
    // (tag 5, added in v2) and WAL (tag 6, added in v3), same order —
    // byte-wise what the pre-synopsis writer produced.
    let dir_v1 = temp_dir("v1compat", "legacy");
    std::fs::create_dir_all(&dir_v1).unwrap();
    let mut digests = Vec::new();
    for shard in 0..3 {
        let name = ShardedMinSigIndex::shard_file_name(shard);
        let bytes = std::fs::read(dir_v2.join(&name)).unwrap();
        let mut reader = SegmentReader::new(bytes.as_slice(), INDEX_MAGIC, u16::MAX).unwrap();
        let mut writer = SegmentWriter::new(Vec::new(), INDEX_MAGIC, 1).unwrap();
        while let Some((tag, payload)) = reader.next_segment().unwrap() {
            if tag != 5 && tag != 6 {
                writer.write_segment(tag, &payload).unwrap();
            }
        }
        let v1_bytes = writer.finish().unwrap();
        digests.push((sharded.shard(shard).num_entities() as u64, fnv1a(&v1_bytes)));
        std::fs::write(dir_v1.join(&name), &v1_bytes).unwrap();
    }
    let mut payload = Vec::new();
    payload.extend_from_slice(&PARTITION_VERSION.to_le_bytes());
    payload.extend_from_slice(&3u32.to_le_bytes());
    for (count, digest) in digests {
        payload.extend_from_slice(&count.to_le_bytes());
        payload.extend_from_slice(&digest.to_le_bytes());
    }
    segment::atomic_write(&dir_v1.join(SHARD_MANIFEST_FILE), SHARD_MANIFEST_MAGIC, 1, |w| {
        w.write_segment(1, &payload)
    })
    .unwrap();

    let legacy = ShardedMinSigIndex::open(&dir_v1).unwrap();
    assert_eq!(legacy.num_entities(), sharded.num_entities());
    let measure = w.measure();
    for query in w.entities() {
        let (a, _) = legacy.top_k(query, 4, &measure).unwrap();
        let (b, _) = unsharded.top_k(query, 4, &measure).unwrap();
        assert_equivalent_answers(&a, &b, &format!("legacy v1 directory, {query}"));
    }
    // The synthesised synopsis equals a fresh computation at the default m.
    for i in 0..3 {
        let snapshot = legacy.shard(i).snapshot();
        let expected = Synopsis::compute(
            snapshot.tree().levels(),
            snapshot.sequences().iter().map(|(e, s)| (*e, s)),
            digital_traces::index::DEFAULT_SKETCH_SIZE,
            0,
        );
        assert_eq!(snapshot.synopsis(), &expected, "shard {i}");
    }
    std::fs::remove_dir_all(&dir_v2).unwrap();
    std::fs::remove_dir_all(&dir_v1).unwrap();
}

// ---------------------------------------------------------------------------
// Access paths: a sharded plan skips or scans, and its scans score no more
// than the tree would have.  CI runs these by name
// (`--test planner_conformance access_path`).
// ---------------------------------------------------------------------------

/// A plan's verdicts in plan order, one `<shard><arm>` per shard: `S`can,
/// s`K`ip.
fn decisions(plan: &QueryPlan) -> String {
    let arms = plan.shards.iter().map(|s| {
        let arm = match s.decision {
            ShardDecision::Scan => 'S',
            ShardDecision::Skip => 'K',
        };
        format!("{}{arm}", s.shard)
    });
    arms.collect::<Vec<_>>().join(" ")
}

/// How many members of `snapshot` share a level-1 cell with `query`, and how
/// many a flat scan of every shard scores at k = 10 (`scan_scored`).
fn scanned(snapshot: &ShardedSnapshot, query: EntityId, measure: &PaperAdm) -> (usize, usize) {
    let sequence = snapshot.sequence(query).unwrap();
    let (mut sharing, mut scored) = (0, 0);
    for shard in 0..snapshot.num_shards() {
        let members: Vec<_> = (snapshot.shard(shard).sequences().iter())
            .filter(|&(&e, _)| e != query)
            .map(|(&e, seq)| (e, seq))
            .collect();
        sharing += (members.iter())
            .filter(|(_, seq)| seq.level(1).intersection_len(sequence.level(1)) > 0)
            .count();
        scored += scan_scored(sequence, members, 10, measure).len();
    }
    (sharing, scored)
}

/// On the paper's SYN population (the 300-entity fixture of
/// `kernel_conformance`, at the benchmark's 4 shards) the seed skips
/// nothing: every shard is flat-scanned, the plan says so, and the execution
/// reports it.  A scan scores the members sharing a level-1 cell with the
/// query and, for most queries, no other.
#[test]
fn access_path_syn_shards_are_all_scanned() {
    let dataset = SynDataset::generate(SynConfig {
        num_entities: 300,
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
    let queries: Vec<EntityId> = dataset.traces.entities().step_by(25).collect();
    let mut sharing_only = 0;
    for &query in &queries {
        let plan = snapshot.explain(query, 10, &measure, PlannerConfig::default()).unwrap();
        assert!(plan.seeded(), "64 sketch candidates seed a k = 10 query");
        assert_eq!(plan.shards_scanned(), 4, "{}", plan.explain());
        assert_eq!(plan.explain().matches(" scan\n").count(), 4, "{}", plan.explain());
        let (planned, stats) = snapshot.query(query, &Query::new(10, &measure)).unwrap();
        assert_eq!((stats.shards_scanned, stats.shards_skipped), (4, 0));
        assert_eq!((stats.nodes_visited, stats.steps), (0, 0), "no tree row is touched");
        // A scan scores the members sharing a level-1 cell, and the others
        // only when those leave its top 10 short of the zero-overlap bound.
        let (sharing, scored) = scanned(&snapshot, query, &measure);
        assert_eq!(
            stats.entities_checked,
            plan.seed_candidates + scored,
            "the seeds, then each scored member once ({sharing} of {scored} share level 1)"
        );
        sharing_only += usize::from(scored == sharing);
        let oracle = snapshot.brute_force(query, 10, &measure).unwrap();
        assert_equivalent_answers(&planned, &oracle, &format!("scanned SYN, {query}"));
    }
    assert!(2 * sharing_only > queries.len(), "{sharing_only} of {} queries", queries.len());
    for plan in snapshot.plan_batch(&queries, 10, &measure, PlannerConfig::default()).unwrap() {
        assert!(plan.explain().contains("  scan\n"), "{}", plan.explain());
        assert!(!plan.explain().contains(" skip ("), "{}", plan.explain());
    }
}

/// Where the tree pruned best, the scan prunes too: a hot query of the
/// pruning-adversarial population at 4 shards scans the shard holding the
/// clique and scores a small part of the population.  At 1 shard (everything
/// in it) the unsharded index's best-first tree search does the same.
#[test]
fn access_path_pruning_hot_shard_scores_a_small_part() {
    for shards in [1usize, 4] {
        let (w, hot) = Workload::pruning_adversarial(PruningAdversarialConfig {
            num_shards: shards,
            hot_entities: 48,
            cold_entities: 1_000,
            itinerary_steps: 12,
            ..PruningAdversarialConfig::default()
        });
        let config = IndexConfig::with_hash_functions(32);
        let measure = w.measure();
        if shards == 1 {
            let index = w.build_index(config);
            for &query in &hot {
                let (answer, stats) = index.top_k(query, 5, &measure).unwrap();
                assert!(stats.nodes_visited > 0, "{query}: the tree search ran");
                assert!(
                    stats.entities_checked < 1_048 / 4,
                    "unsharded, {query}: {} of 1 048 entities checked",
                    stats.entities_checked
                );
                let oracle = index.brute_force(query, 5, &measure).unwrap();
                assert_equivalent_answers(&answer, &oracle, &format!("hot, unsharded, {query}"));
            }
            continue;
        }
        let sharded = ShardedMinSigIndex::build(&w.sp, &w.traces, config, shards).unwrap();
        let snapshot = sharded.snapshot();
        let hot_shard = shard_of(hot[0], shards);
        for &query in &hot {
            let plan = snapshot.explain(query, 5, &measure, PlannerConfig::default()).unwrap();
            let hot_plan = plan.shards.iter().find(|s| s.shard == hot_shard).unwrap();
            assert_eq!(hot_plan.decision, ShardDecision::Scan, "{}", plan.explain());
            let (planned, stats) = snapshot.query(query, &Query::new(5, &measure)).unwrap();
            assert_eq!(stats.shards_scanned, plan.shards_scanned());
            assert_eq!((stats.nodes_visited, stats.steps), (0, 0), "{query}: no tree row touched");
            assert!(
                stats.entities_checked < 1_048 / 4,
                "{shards} shards, {query}: {} of 1 048 entities checked",
                stats.entities_checked
            );
            let oracle = snapshot.brute_force(query, 5, &measure).unwrap();
            assert_equivalent_answers(&planned, &oracle, &format!("hot, {shards} shards, {query}"));
        }
    }
}

/// Unseeded (by a sketchless index, or by a `k` above the sketch
/// candidates), seeded, and budgeted plans (binding or not) make the
/// two-way decision, verdict for verdict: every admitted shard scanned, in
/// the driving order recorded on the commit before shards stopped being
/// tree-searched.  A zero budget samples every one of those scans when it
/// runs.  Residency is not a condition of any verdict: out of core over a
/// one-frame pool, where no shard is ever resident, the plan is the
/// in-memory one.
#[test]
fn access_path_rule_leaves_unseeded_and_budgeted_plans_alone_at_any_residency() {
    let (w, hot) = Workload::pruning_adversarial(PruningAdversarialConfig {
        num_shards: 4,
        hot_entities: 48,
        cold_entities: 400,
        ..PruningAdversarialConfig::default()
    });
    let config = IndexConfig::with_hash_functions(16);
    let sharded = ShardedMinSigIndex::build(&w.sp, &w.traces, config, 4).unwrap();
    let snapshot = sharded.snapshot();
    let mut sketchless = ShardedMinSigIndex::build(&w.sp, &w.traces, config, 4).unwrap();
    sketchless.set_synopsis_sketch_size(0);
    let sketchless = sketchless.snapshot();
    let measure = w.measure();
    let mut queries = w.sample_entities(3, 0xACCE55);
    queries.extend([hot[0], hot[17]]);
    assert_eq!(queries, [79, 191, 56, 0, 69].map(EntityId));

    let scan = ["3S 0S 1S 2S", "0S 1S 2S 3S", "3S 0S 1S 2S", "3S 0S 1S 2S", "3S 0S 1S 2S"];
    let zero_budget = PlannerConfig::with_budget_and_floor(0, 0.5);
    let cases = [
        ("unseeded by sketch size 0", &sketchless, 5, PlannerConfig::default()),
        ("unseeded by k", &snapshot, 80, PlannerConfig::default()),
        ("default", &snapshot, 5, PlannerConfig::default()),
        ("non-binding budget", &snapshot, 5, PlannerConfig::with_budget(u64::MAX / 2_000)),
        ("zero budget", &snapshot, 5, zero_budget),
    ];
    for (name, snapshot, k, planner) in cases {
        for (&query, recorded) in queries.iter().zip(scan) {
            let plan = snapshot.explain(query, k, &measure, planner).unwrap();
            assert_eq!(decisions(&plan), recorded, "{name}, {query}");
        }
    }
    // The zero budget's deadline has passed before the first scan is picked
    // up: the execution samples every shard the plan scans.
    for &query in &queries {
        let request = Query { planner: zero_budget, ..Query::new(5, &measure) };
        let (_, stats) = snapshot.query(query, &request).unwrap();
        let report = stats.degradation.expect("a zero budget samples");
        assert_eq!((report.shards_approximate, report.approximate_shard_mask), (4, 0b1111));
    }

    // Out of core over a one-frame pool no shard is ever fully resident, and
    // the plan is the in-memory one, driving order included.
    let store = PagedTraceStore::build(&w.traces, 4);
    for &query in &queries {
        let pool = store.pool(PoolConfig { capacity_bytes: PAGE_SIZE, ..PoolConfig::default() });
        let paged = snapshot.paged(&store, &pool);
        let plan = paged.explain(query, 5, &measure, PlannerConfig::default()).unwrap();
        let mem = snapshot.explain(query, 5, &measure, PlannerConfig::default()).unwrap();
        assert_eq!(plan, mem, "cold pool, {query}");
    }
}

/// A plan is a function of the data and the query alone: whatever the
/// latency budget — expired before planning starts, or never reached — and
/// whatever the pool holds, `explain` renders the unbudgeted in-memory plan
/// byte for byte.
#[test]
fn explain_depends_on_neither_budget_nor_residency() {
    let w = Workload::uniform(UniformConfig { entities: 200, ..UniformConfig::default() });
    let sharded =
        ShardedMinSigIndex::build(&w.sp, &w.traces, IndexConfig::with_hash_functions(16), 4)
            .unwrap();
    let snapshot = sharded.snapshot();
    let measure = w.measure();
    let store = PagedTraceStore::build(&w.traces, 4);
    let budgets = [0, 1, u64::MAX / 4].map(|us| PlannerConfig::with_budget_and_floor(us, 0.5));
    // One frame: no shard is ever resident.  The default pool holds every
    // row page of the session, and each is fetched before planning.
    let one_frame = store.pool(PoolConfig { capacity_bytes: PAGE_SIZE, ..PoolConfig::default() });
    let full = store.pool(PoolConfig::default());
    let cold = snapshot.paged(&store, &one_frame);
    let warm = snapshot.paged(&store, &full);
    let rows: Vec<_> = (0..4).flat_map(|s| warm.shard_pages(s).to_vec()).collect();
    assert!(rows.len() * PAGE_SIZE <= full.config().capacity_bytes, "all rows fit");
    for &page in &rows {
        full.get(page);
    }
    for query in w.sample_entities(8, 0xE1A1) {
        for k in [3usize, 10] {
            let context = format!("query {query}, k {k}");
            let exact = snapshot.explain(query, k, &measure, PlannerConfig::default()).unwrap();
            let text = exact.explain();
            for planner in budgets {
                let plan = snapshot.explain(query, k, &measure, planner).unwrap();
                assert_eq!(plan.explain(), text, "{context}, {planner:?}");
            }
            for (pool, paged) in [("one-frame", &cold), ("full", &warm)] {
                let plan = paged.explain(query, k, &measure, PlannerConfig::default()).unwrap();
                assert_eq!(plan.explain(), text, "{context}, {pool} pool");
            }
        }
    }
}
