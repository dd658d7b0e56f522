//! The tree search as a fixed point: for three fixed `testkit` (workload
//! seed, query) triples, the answers (entities and degree bits) and every
//! deterministic work counter of the exact tree search are pinned.  The answers
//! are the values recorded on the commit *before* the frontier and the
//! candidate arena were re-laid (entity-major rows, slab-backed caps, dense
//! query-hash table) and have never been edited.  A layout change may make
//! the search cheaper; it may not make it a different search.
//!
//! The counters were re-recorded once, deliberately, when the node arena
//! began folding one-entity subtrees into childless rows: a chain of
//! one-child nodes is now one visit, so `nodes_visited` and `steps` fell
//! (736 → 502, 985 → 720, 21 → 19), and under the ablation that drops the
//! level constraints a folded entity is scored where its chain would have
//! been pruned two levels down (checked 33 → 47).
//!
//! The search runs to completion through `top_k_for_sequence`, so `steps`
//! is 1.  Each case runs under the three bound ablations of
//! [`QueryOptions`].  The three cases cover the three regimes: nothing
//! prunes (uniform), almost everything prunes (a hot query on the skewed
//! population) and pruning that depends on the option set (a cold query on
//! the same population).

use digital_traces::index::testkit::{PruningAdversarialConfig, UniformConfig, Workload};
use digital_traces::index::{IndexConfig, QueryOptions};
use digital_traces::EntityId;

const K: usize = 5;

/// `(nodes_visited, leaves_visited, subtrees_pruned, entities_checked,
/// steps)`.
type Counters = (usize, usize, usize, usize, usize);

struct Pinned {
    /// `(entity, degree.to_bits())` in rank order; the same under every
    /// option set, because every ablation is still exact.
    answers: [(u64, u64); K],
    /// Counters under the default options, then with
    /// `accumulate_down_branch` off, then with `use_level_constraints` off.
    counters: [Counters; 3],
}

const OPTION_SETS: [QueryOptions; 3] = [
    QueryOptions { use_level_constraints: true, accumulate_down_branch: true },
    QueryOptions { use_level_constraints: true, accumulate_down_branch: false },
    QueryOptions { use_level_constraints: false, accumulate_down_branch: true },
];

fn check(name: &str, workload: &Workload, query: EntityId, pinned: &Pinned) {
    let index = workload.build_index(IndexConfig::with_hash_functions(32));
    let snapshot = index.snapshot();
    let measure = workload.measure();
    let seq = snapshot.sequence(query).expect("the query entity is indexed");
    for (options, expect) in OPTION_SETS.into_iter().zip(pinned.counters) {
        let (answers, stats) =
            snapshot.top_k_for_sequence(seq, Some(query), K, &measure, options).unwrap();
        let context = format!("{name}, {options:?}");
        let got: Vec<(u64, u64)> =
            answers.iter().map(|r| (r.entity.raw(), r.degree.to_bits())).collect();
        assert_eq!(got, pinned.answers, "answers moved: {context}");
        assert_eq!(
            (
                stats.nodes_visited,
                stats.leaves_visited,
                stats.subtrees_pruned,
                stats.entities_checked,
                stats.steps,
            ),
            expect,
            "(nodes_visited, leaves_visited, subtrees_pruned, entities_checked, steps) \
             moved: {context}"
        );
    }
}

fn skewed() -> (Workload, Vec<EntityId>) {
    Workload::pruning_adversarial(PruningAdversarialConfig {
        hot_entities: 16,
        cold_entities: 600,
        seed: 3,
        ..Default::default()
    })
}

#[test]
fn uniform_population_search_is_pinned() {
    let w = Workload::uniform(UniformConfig {
        entities: 400,
        visits: 8,
        seed: 11,
        ..Default::default()
    });
    check(
        "uniform seed 11, query 17",
        &w,
        EntityId(17),
        &Pinned {
            answers: [
                (247, 4585629477726172891),
                (263, 4584913905785379579),
                (220, 4584825263506999589),
                (362, 4583699363600156965),
                (382, 4581125878098802395),
            ],
            counters: [(502, 395, 0, 399, 1); 3],
        },
    );
}

#[test]
fn skewed_population_hot_query_search_is_pinned() {
    let (w, hot) = skewed();
    check(
        "pruning_adversarial seed 3, first hot entity",
        &w,
        hot[0],
        &Pinned {
            answers: [
                (13, 4607182418800017408),
                (21, 4607182418800017408),
                (37, 4607182418800017408),
                (48, 4607182418800017408),
                (60, 4607182418800017408),
            ],
            counters: [(19, 10, 78, 16, 1), (19, 10, 78, 16, 1), (82, 38, 303, 47, 1)],
        },
    );
}

#[test]
fn skewed_population_cold_query_search_is_pinned() {
    let (w, hot) = skewed();
    let cold = w.entities().into_iter().find(|e| !hot.contains(e)).expect("a cold entity exists");
    check(
        "pruning_adversarial seed 3, first cold entity",
        &w,
        cold,
        &Pinned {
            answers: [
                (8, 4585925428558828669),
                (18, 4585925428558828669),
                (25, 4585925428558828669),
                (31, 4585925428558828669),
                (40, 4585925428558828669),
            ],
            counters: [(720, 561, 5, 610, 1), (725, 566, 0, 615, 1), (725, 566, 0, 615, 1)],
        },
    );
}
