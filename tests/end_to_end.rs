//! End-to-end integration tests: generated datasets → MinSigTree index → top-k
//! queries, cross-checked against the brute-force scan and the bitmap baseline.
//!
//! Populations come from the shared `minsig::testkit` generator (plus one
//! mobility-model dataset to keep the synthetic generator covered); the
//! brute-force comparisons run through the testkit's oracle helpers.

use digital_traces::baselines::{scan_top_k, BitmapIndex, BitmapIndexConfig};
use digital_traces::index::testkit::{
    assert_matches_brute_force, PairedConfig, UniformConfig, Workload,
};
use digital_traces::index::{IndexConfig, MinSigIndex, QueryOptions};
use digital_traces::mobility_models::{HierarchyConfig, SynConfig, SynDataset};
use digital_traces::{DiceAdm, JaccardAdm, PaperAdm};

fn uniform_workload(seed: u64) -> Workload {
    Workload::uniform(UniformConfig { entities: 120, visits: 8, seed, ..UniformConfig::default() })
}

#[test]
fn index_is_exact_on_generated_workloads() {
    for w in [
        uniform_workload(1),
        Workload::paired(PairedConfig { pairs: 60, ..PairedConfig::default() }),
    ] {
        let index = w.build_index(IndexConfig::with_hash_functions(64));
        let measure = w.measure();
        for query in w.sample_entities(6, 99) {
            for k in [1usize, 5, 25] {
                assert_matches_brute_force(&index, query, k, &measure);
            }
        }
    }
}

#[test]
fn index_is_exact_on_generated_mobility_data() {
    // The hierarchical mobility model produces clustered, bursty traces the
    // uniform generator cannot; keep it covered end to end.
    let dataset = SynDataset::generate(SynConfig {
        num_entities: 300,
        days: 3,
        hierarchy: HierarchyConfig { grid_side: 16, levels: 3, ..HierarchyConfig::default() },
        seed: 1,
        ..SynConfig::default()
    })
    .expect("generation succeeds");
    let index = MinSigIndex::build(
        dataset.sp_index(),
        &dataset.traces,
        IndexConfig::with_hash_functions(64),
    )
    .unwrap();
    let measure = PaperAdm::default_for(dataset.sp_index().height() as usize);
    for query in dataset.query_entities(6, 99) {
        for k in [1usize, 5, 25] {
            assert_matches_brute_force(&index, query, k, &measure);
        }
    }
}

#[test]
fn index_is_exact_under_different_measures() {
    let w = uniform_workload(2);
    let m = w.sp.height() as usize;
    let index = w.build_index(IndexConfig::with_hash_functions(48));
    let queries = w.sample_entities(4, 3);
    let dice = DiceAdm::uniform(m);
    let jaccard = JaccardAdm::uniform(m);
    let skewed = PaperAdm::new(m, 3.0, 4.0).unwrap();
    for query in queries {
        assert_matches_brute_force(&index, query, 10, &dice);
        assert_matches_brute_force(&index, query, 10, &jaccard);
        assert_matches_brute_force(&index, query, 10, &skewed);
    }
}

#[test]
fn all_query_options_are_exact() {
    let w = uniform_workload(3);
    let measure = w.measure();
    let queries = w.sample_entities(3, 5);
    let index = w.build_index(IndexConfig::with_hash_functions(32));
    for options in [
        QueryOptions::default(),
        QueryOptions { use_level_constraints: false, accumulate_down_branch: true },
        QueryOptions { use_level_constraints: true, accumulate_down_branch: false },
        QueryOptions { use_level_constraints: false, accumulate_down_branch: false },
    ] {
        for &query in &queries {
            let (got, _) = index.top_k_with_options(query, 10, &measure, options).unwrap();
            let expect = index.brute_force(query, 10, &measure).unwrap();
            for (g, e) in got.iter().zip(expect.iter()) {
                assert!((g.degree - e.degree).abs() < 1e-9, "options {options:?}");
            }
        }
    }
}

#[test]
fn baseline_and_index_agree_on_answers() {
    let w = uniform_workload(4);
    let measure = w.measure();
    let index = w.build_index(IndexConfig::with_hash_functions(64));
    let sequences = index.sequences().clone();
    let bitmap =
        BitmapIndex::build(&sequences, BitmapIndexConfig { min_support: 2, num_clusters: 128 });
    for query in w.sample_entities(4, 17) {
        let (tree_answers, tree_stats) = index.top_k(query, 5, &measure).unwrap();
        let (bitmap_answers, _) = bitmap.top_k(&sequences, query, 5, &measure);
        let (scan_answers, _) = scan_top_k(&sequences, query, 5, &measure);
        assert_eq!(tree_answers.len(), bitmap_answers.len());
        for ((t, b), s) in tree_answers.iter().zip(&bitmap_answers).zip(&scan_answers) {
            assert!((t.degree - b.1).abs() < 1e-9, "tree vs bitmap");
            assert!((t.degree - s.1).abs() < 1e-9, "tree vs scan");
        }
        // All three are exact; the tree should not check more entities than the scan.
        assert!(tree_stats.entities_checked <= index.num_entities());
    }
}

#[test]
fn incremental_updates_match_full_rebuild_on_generated_data() {
    let w = uniform_workload(5);
    let config = IndexConfig::with_hash_functions(48);
    let mut incremental = w.build_index(config);
    let mut traces = w.traces.clone();

    // Move 30 entities: each adopts the (re-attributed) trace of another entity.
    let entities = w.entities();
    for i in 0..30usize {
        let target = entities[i * 7 % entities.len()];
        let donor = entities[(i * 13 + 5) % entities.len()];
        let donor_trace = traces.trace(donor).unwrap().clone();
        let new_trace: digital_traces::DigitalTrace = donor_trace
            .instances()
            .iter()
            .map(|pi| digital_traces::PresenceInstance::new(target, pi.unit, pi.period))
            .collect();
        incremental.update_entity(target, &new_trace).unwrap();
        traces.insert_trace(target, new_trace);
    }
    let rebuilt = MinSigIndex::build(&w.sp, &traces, config).unwrap();
    let measure = w.measure();
    for query in w.sample_entities(5, 31) {
        let (a, _) = incremental.top_k(query, 10, &measure).unwrap();
        let (b, _) = rebuilt.top_k(query, 10, &measure).unwrap();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert!((x.degree - y.degree).abs() < 1e-9);
        }
    }
}

#[test]
fn removal_then_reinsertion_restores_answers() {
    let w = uniform_workload(6);
    let mut index = w.build_index(IndexConfig::with_hash_functions(32));
    let measure = w.measure();
    let query = w.sample_entities(1, 8)[0];
    let (before, _) = index.top_k(query, 5, &measure).unwrap();
    let victim = before[0].entity;
    let victim_trace = w.traces.trace(victim).unwrap().clone();

    index.remove_entity(victim).unwrap();
    let (without, _) = index.top_k(query, 5, &measure).unwrap();
    assert!(without.iter().all(|r| r.entity != victim));

    assert!(index.upsert_entity(victim, &victim_trace).unwrap(), "victim was removed");
    let (after, _) = index.top_k(query, 5, &measure).unwrap();
    for (x, y) in before.iter().zip(after.iter()) {
        assert!((x.degree - y.degree).abs() < 1e-9);
    }
    assert_eq!(after[0].entity, victim);
}
