//! Black-box conformance of the latency budget: a deadline past which the
//! drive samples the shards it has not started — a *quality-of-service*
//! knob, never a silent correctness knob.
//!
//! * **Unbounded budget ⇒ exactness.**  With a budget no plan can exceed,
//!   every budgeted path — planned single queries, batched queries,
//!   the paged out-of-core drive — answers **fully bit-identically** to the
//!   unbudgeted planner, the unsharded index and the brute-force oracle,
//!   boundary ties included.
//! * **Truthful degradation.**  Under *any* budget the answer's
//!   `DegradationReport` is internally consistent: the per-shard mask
//!   matches the count, every sampled shard is one the plan scans, the
//!   minimum sample rate is a real rate, and an absent report means nothing
//!   was sampled anywhere.
//! * **Batch = per-query.**  A batch plans and runs each query on its own:
//!   its plans and its answers equal the single queries' bitwise.
//! * **Recall floor.**  On the deadline-adversarial workload (one
//!   pathologically expensive shard) an expired budget must degrade, yet the
//!   reported recall estimate never falls below the configured floor, and a
//!   floor of 1.0 forbids degradation outright — the budget is best-effort,
//!   the floor contractual.

use digital_traces::index::testkit::{
    assert_equivalent_answers, measured_recall, DeadlineAdversarialConfig, UniformConfig, Workload,
};
use digital_traces::index::{IndexConfig, MinSigIndex, PlannerConfig, Query, ShardedMinSigIndex};
use digital_traces::storage::{PagedTraceStore, PoolConfig, PAGE_SIZE};
use proptest::prelude::*;

fn build_pair(
    entities: u64,
    visits: u64,
    seed: u64,
    shards: usize,
) -> (Workload, MinSigIndex, ShardedMinSigIndex) {
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
    (w, unsharded, sharded)
}

/// A budget no real query reaches (saturates the deadline arithmetic, so
/// the deadline never trips).
const UNBOUNDED_US: u64 = u64::MAX / 4;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// (i) Infinite budget ⇒ planned-with-deadline == planned == unsharded
    /// == brute force, fully bit-identical — including through the paged
    /// out-of-core drive.
    #[test]
    fn unbounded_budget_stays_bitwise_exact(
        entities in 2u64..32,
        visits in 1u64..7,
        seed in 0u64..1_000,
        shards in 1usize..7,
        k in 1usize..6,
        recall_floor in 0u32..=10,
        pool_pages in 2usize..6,
    ) {
        let (w, unsharded, sharded) = build_pair(entities, visits, seed, shards);
        let budgeted = PlannerConfig::with_budget_and_floor(
            UNBOUNDED_US,
            f64::from(recall_floor) / 10.0,
        );
        let measure = w.measure();
        let snapshot = sharded.snapshot();
        let store = PagedTraceStore::build(&w.traces, 4);
        let pool = store.pool(PoolConfig {
            capacity_bytes: pool_pages * PAGE_SIZE,
            ..PoolConfig::default()
        });
        let paged = snapshot.paged(&store, &pool);
        for query in w.entities() {
            let (deadline_run, stats) = snapshot
                .query(query, &Query { planner: budgeted, ..Query::new(k, &measure) })
                .unwrap();
            prop_assert!(stats.degradation.is_none(), "an unbinding budget never degrades");
            prop_assert_eq!(stats.sampled_candidates, 0usize);
            prop_assert!((stats.recall_estimate - 1.0).abs() < f64::EPSILON);
            let (planned, _) = snapshot
                .query(query, &Query::new(k, &measure))
                .unwrap();
            assert_equivalent_answers(
                &deadline_run, &planned,
                &format!("unbounded budget vs unbudgeted planner, {query}"),
            );
            let (exact, _) = unsharded.top_k(query, k, &measure).unwrap();
            assert_equivalent_answers(&deadline_run, &exact, &format!("vs unsharded, {query}"));
            let oracle = unsharded.brute_force(query, k, &measure).unwrap();
            assert_equivalent_answers(&deadline_run, &oracle, &format!("vs oracle, {query}"));
            let (paged_run, paged_stats) = paged
                .query(query, &Query { planner: budgeted, ..Query::new(k, &measure) })
                .unwrap();
            assert_equivalent_answers(
                &paged_run, &exact,
                &format!("paged unbounded budget vs unsharded, {query}"),
            );
            prop_assert!(paged_stats.degradation.is_none(), "paged unbinding budget degraded");
        }
    }

    /// (ii) Under *any* budget the degradation report is truthful: counts,
    /// mask and minimum rate agree with each other, and no report means no
    /// sampling happened anywhere in the answer.
    #[test]
    fn degradation_reports_are_truthful_under_any_budget(
        entities in 4u64..40,
        visits in 1u64..7,
        seed in 0u64..1_000,
        shards in 1usize..7,
        k in 1usize..6,
        has_budget in any::<bool>(),
        raw_budget_us in 0u64..5_000,
        recall_floor in 0u32..=9,
    ) {
        let (w, _, sharded) = build_pair(entities, visits, seed, shards);
        let budget_us = has_budget.then_some(raw_budget_us);
        let planner = match budget_us {
            Some(us) => PlannerConfig::with_budget_and_floor(us, f64::from(recall_floor) / 10.0),
            None => PlannerConfig::default(),
        };
        let measure = w.measure();
        let snapshot = sharded.snapshot();
        for query in w.sample_entities(4, seed ^ 0xBEEF) {
            let (_, stats) = snapshot
                .query(query, &Query { planner, ..Query::new(k, &measure) })
                .unwrap();
            match &stats.degradation {
                None => {
                    // No report ⇒ nothing was sampled: the answer is exact.
                    prop_assert_eq!(stats.sampled_candidates, 0usize);
                    prop_assert!((stats.recall_estimate - 1.0).abs() < f64::EPSILON);
                }
                Some(report) => {
                    prop_assert!(budget_us.is_some(), "degradation without a budget");
                    let sampled = report.shards_approximate;
                    prop_assert!(sampled >= 1, "an empty report must be omitted");
                    prop_assert!(
                        sampled <= stats.shards_scanned,
                        "only shards the plan scans are sampled"
                    );
                    // Every shard index fits the mask here, so the mask is
                    // exactly the sampled set.
                    prop_assert_eq!(
                        report.approximate_shard_mask.count_ones() as usize, sampled,
                        "mask/count divergence"
                    );
                    prop_assert!(
                        report.approximate_shard_mask < (1u64 << shards),
                        "mask names a shard beyond the snapshot"
                    );
                    prop_assert!(
                        (0.0..1.0).contains(&report.min_sample_rate),
                        "a sampled shard's rate lives in [0, 1): {}",
                        report.min_sample_rate
                    );
                    // The estimate honors the floor: every sampled rate is
                    // the shard's floor rate.
                    prop_assert!(
                        stats.recall_estimate >= f64::from(recall_floor) / 10.0 - 1e-9,
                        "recall estimate {} under floor {}",
                        stats.recall_estimate,
                        f64::from(recall_floor) / 10.0
                    );
                    prop_assert!(stats.recall_estimate <= 1.0 + f64::EPSILON);
                }
            }
        }
    }

    /// (iii) A batch is its queries: batch plans equal per-query plans and
    /// batch answers equal per-query answers, bitwise, stats contracts
    /// included.
    #[test]
    fn batch_planning_matches_per_query_planning(
        entities in 2u64..32,
        visits in 1u64..7,
        seed in 0u64..1_000,
        shards in 1usize..7,
        k in 1usize..6,
    ) {
        let (w, _, sharded) = build_pair(entities, visits, seed, shards);
        let measure = w.measure();
        let snapshot = sharded.snapshot();
        let queries = w.entities();
        let planner = PlannerConfig::default();

        // Plans: bitwise equal to per-query planning.
        let batch_plans = snapshot.plan_batch(&queries, k, &measure, planner).unwrap();
        prop_assert_eq!(batch_plans.len(), queries.len());
        for (i, &query) in queries.iter().enumerate() {
            let single = snapshot.explain(query, k, &measure, planner).unwrap();
            prop_assert_eq!(
                &batch_plans[i], &single,
                "batch plan {} diverged from explain()", i
            );
        }

        // Answers: the batch path equals the per-query path bitwise.
        let batch =
            snapshot.query_batch(&queries, &Query { planner, ..Query::new(k, &measure) }).unwrap();
        for (i, &query) in queries.iter().enumerate() {
            let (single, _) = snapshot
                .query(query, &Query { planner, ..Query::new(k, &measure) })
                .unwrap();
            assert_equivalent_answers(
                &batch[i].0, &single,
                &format!("batch vs per-query, entry {i} ({query})"),
            );
            prop_assert!(batch[i].1.degradation.is_none(), "no budget, no degradation");
        }

        // And under an unbounded budget the deadline-enabled batch stays
        // bitwise identical too.
        let budgeted = PlannerConfig::with_budget(UNBOUNDED_US);
        let budgeted_batch = snapshot
            .query_batch(&queries, &Query { planner: budgeted, ..Query::new(k, &measure) })
            .unwrap();
        for (i, (answer, stats)) in budgeted_batch.iter().enumerate() {
            assert_equivalent_answers(
                answer, &batch[i].0,
                &format!("unbounded-budget batch vs unbudgeted batch, entry {i}"),
            );
            prop_assert!(stats.degradation.is_none());
        }
    }
}

/// (iv) The recall floor is honored on the deadline-adversarial workload: a
/// 1 µs budget must force sampling (planning alone outlasts it, so the
/// scans are picked up past the deadline), yet every reported recall
/// estimate stays at or above the floor, the report is stamped, and the
/// measured recall against the exact answer is healthy on average — the
/// hot-entity sketch keeps the clique's strongest partners in every sampled
/// scan.
#[test]
fn recall_floor_is_honored_on_the_adversarial_workload() {
    let (w, clique) = Workload::deadline_adversarial(DeadlineAdversarialConfig::default());
    let config = IndexConfig::with_hash_functions(32);
    let unsharded = w.build_index(config);
    let sharded = ShardedMinSigIndex::build(&w.sp, &w.traces, config, 4).unwrap();
    let snapshot = sharded.snapshot();
    let measure = w.measure();
    let k = 5;
    let floor = 0.5;
    let planner = PlannerConfig::with_budget_and_floor(1, floor);

    let mut degraded_queries = 0usize;
    let mut recall_sum = 0.0;
    let mut probes = 0usize;
    for &query in &clique {
        let (answer, stats) =
            snapshot.query(query, &Query { planner, ..Query::new(k, &measure) }).unwrap();
        let (exact, _) = unsharded.top_k(query, k, &measure).unwrap();
        probes += 1;
        recall_sum += measured_recall(&answer, &exact);
        assert!(
            stats.recall_estimate >= floor - 1e-9,
            "estimate {} under the floor for {query}",
            stats.recall_estimate
        );
        if let Some(report) = &stats.degradation {
            degraded_queries += 1;
            assert!(report.shards_approximate >= 1);
            assert!(report.min_sample_rate < 1.0);
        }
    }
    assert!(degraded_queries > 0, "a 1 us budget must bind somewhere on the adversarial workload");
    let mean_recall = recall_sum / probes as f64;
    assert!(
        mean_recall >= floor,
        "mean measured recall {mean_recall} fell under the floor {floor}"
    );

    // A floor of 1.0 forbids sampling outright: even the impossible budget
    // answers exactly, bitwise.
    let strict = PlannerConfig::with_budget_and_floor(1, 1.0);
    for &query in clique.iter().take(6) {
        let (answer, stats) =
            snapshot.query(query, &Query { planner: strict, ..Query::new(k, &measure) }).unwrap();
        assert!(stats.degradation.is_none(), "a 1.0 floor forbids degradation");
        let (exact, _) = unsharded.top_k(query, k, &measure).unwrap();
        assert_equivalent_answers(&answer, &exact, &format!("strict floor, {query}"));
    }
}
