//! Shard-scaling baseline at a ≥5k-entity population: queries per second of
//! the sharded index across shard counts {1, 2, 4, 8} × execution modes
//! {planned, cooperative, independent}, against the same datasets and query
//! batches.
//!
//! *Planned* is the PR 5 default — the cost-based planner seeds the shared
//! bound from the per-shard synopses, skips provably-irrelevant shards,
//! orders the rest most-promising-first and scans tiny shards
//! ([`PlannerConfig`]); *cooperative* drives every shard's resumable
//! executor under one [`SharedBound`] with a cold threshold (the PR 4
//! default); *independent* is the PR 3 baseline — every shard runs to
//! completion against its private threshold
//! ([`minsig_bench::independent_top_k`]).  All three return
//! bitwise-identical answers, so the comparison isolates pure
//! planning/pruning effects.
//!
//! Two workloads: *skewed* (the PR 4 hot-clique-over-weak-background
//! population, where bound sharing has pruning room) and *localized* (the
//! planner's best case: every background shard is provably skippable for a
//! hot query).  Criterion groups run the skewed workload; the JSON artifact
//! pass covers both.
//!
//! After the criterion groups, the harness re-measures the single-query
//! path once per configuration and emits **`BENCH_shard.json`** — QPS
//! alongside the executor work counters (nodes visited, subtrees pruned,
//! entities checked, bound updates, shards skipped).  The pass doubles as a
//! CI gate: it **panics** (failing the bench job) if planned answers ever
//! diverge from the unplanned oracle, or if the planner fails to skip at
//! least half the shards per hot query on the localized workload at 2+
//! shards.
//!
//! [`SharedBound`]: minsig::SharedBound
//! [`PlannerConfig`]: minsig::PlannerConfig

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use minsig::shard::ShardedSnapshot;
use minsig::{IndexConfig, PlannerConfig, Query, QueryStats, ShardedMinSigIndex, TopKResult};
use minsig_bench::{
    independent_top_k, planner_bench_workload, shard_bench_workload, SHARD_BENCH_ENTITIES,
};
use std::hint::black_box;
use std::time::Instant;
use trace_model::{EntityId, PaperAdm};

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const K: usize = 10;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// PR 5 default: synopsis-driven planning over the cooperative scheduler.
    Planned,
    /// PR 4 default: cooperative bound sharing, no planner.
    Cooperative,
    /// PR 3 baseline: private per-shard bounds, run-to-completion quanta.
    Independent,
}

const MODES: [(Mode, &str); 3] = [
    (Mode::Planned, "planned"),
    (Mode::Cooperative, "cooperative"),
    (Mode::Independent, "independent"),
];

/// The `Query` of a planned or cooperative (= unplanned) run.
fn query_of(measure: &PaperAdm, mode: Mode) -> Query<'_, PaperAdm> {
    let planner =
        if mode == Mode::Planned { PlannerConfig::default() } else { PlannerConfig::disabled() };
    Query { planner, ..Query::new(K, measure) }
}

fn run_query(
    snapshot: &ShardedSnapshot,
    query: EntityId,
    measure: &PaperAdm,
    mode: Mode,
) -> (Vec<TopKResult>, QueryStats) {
    match mode {
        Mode::Independent => independent_top_k(snapshot, query, K, measure),
        _ => snapshot.query(query, &query_of(measure, mode)).expect("bench query answers"),
    }
}

fn build_snapshots(workload: &minsig::testkit::Workload) -> Vec<(usize, ShardedSnapshot)> {
    let config = IndexConfig::with_hash_functions(32);
    SHARD_COUNTS
        .iter()
        .map(|&shards| {
            let index = ShardedMinSigIndex::build(&workload.sp, &workload.traces, config, shards)
                .expect("sharded bench index builds");
            (shards, index.snapshot())
        })
        .collect()
}

fn shard_scaling_qps(c: &mut Criterion) {
    // Criterion axes on the skewed population (hot clique holding each
    // other's top-k over a weak cold background); the queries are the hot
    // entities — the regime bound sharing and planning exist for.
    let (skewed, skewed_queries) = shard_bench_workload();
    let measure = skewed.measure();
    let snapshots = build_snapshots(&skewed);

    let mut group = c.benchmark_group("shard_scaling/batch");
    group.sample_size(10);
    for (shards, snapshot) in &snapshots {
        for (mode, mode_name) in MODES {
            group.throughput(Throughput::Elements(skewed_queries.len() as u64));
            group.bench_function(BenchmarkId::new(format!("{mode_name}/shards"), shards), |b| {
                b.iter(|| black_box(batch_query(snapshot, &skewed_queries, &measure, mode)))
            });
        }
    }
    group.finish();

    let mut group = c.benchmark_group("shard_scaling/single_query");
    group.sample_size(10);
    for (shards, snapshot) in &snapshots {
        for (mode, mode_name) in MODES {
            group.throughput(Throughput::Elements(skewed_queries.len() as u64));
            group.bench_function(BenchmarkId::new(format!("{mode_name}/shards"), shards), |b| {
                b.iter(|| {
                    for &query in &skewed_queries {
                        black_box(run_query(snapshot, query, &measure, mode));
                    }
                })
            });
        }
    }
    group.finish();

    // The JSON artifact covers both workloads and gates correctness.
    let (localized, localized_queries) = planner_bench_workload();
    let localized_snapshots = build_snapshots(&localized);
    let mut rows = Vec::new();
    emit_rows(&mut rows, "skewed", &snapshots, &skewed_queries, &measure);
    emit_rows(&mut rows, "localized", &localized_snapshots, &localized_queries, &measure);
    write_artifact(&rows, skewed_queries.len());
}

fn batch_query(
    snapshot: &ShardedSnapshot,
    queries: &[EntityId],
    measure: &PaperAdm,
    mode: Mode,
) -> Vec<(Vec<TopKResult>, QueryStats)> {
    match mode {
        Mode::Independent => {
            queries.iter().map(|&query| independent_top_k(snapshot, query, K, measure)).collect()
        }
        _ => snapshot.query_batch(queries, &query_of(measure, mode)).expect("bench batch answers"),
    }
}

/// One timed single-query-path pass per (workload, shard count, mode) with
/// summed executor counters, plus the two CI gates: planned answers must be
/// bitwise identical to the unplanned oracle on every query, and on the
/// localized workload the planner must skip at least half the shards per
/// query at 2+ shards.
fn emit_rows(
    rows: &mut Vec<String>,
    workload_name: &str,
    snapshots: &[(usize, ShardedSnapshot)],
    queries: &[EntityId],
    measure: &PaperAdm,
) {
    const PASSES: usize = 3;
    for (shards, snapshot) in snapshots {
        // The unplanned oracle answers, computed once per shard count.
        let oracle: Vec<Vec<TopKResult>> =
            queries.iter().map(|&q| run_query(snapshot, q, measure, Mode::Independent).0).collect();
        for (mode, mode_name) in MODES {
            // Best-of-N wall clock (standard min-time practice); counters
            // from the final pass.
            let mut best = f64::INFINITY;
            let mut work = QueryStats::default();
            for _ in 0..PASSES {
                work = QueryStats::default();
                let start = Instant::now();
                for (i, &query) in queries.iter().enumerate() {
                    let (results, stats) = run_query(snapshot, query, measure, mode);
                    assert_eq!(
                        results, oracle[i],
                        "{workload_name}/{mode_name}/{shards} shards: answers diverged \
                         from the unplanned oracle for query {query}"
                    );
                    black_box(&results);
                    work.absorb_work(&stats);
                }
                best = best.min(start.elapsed().as_secs_f64());
            }
            if workload_name == "localized" && mode == Mode::Planned && *shards >= 2 {
                assert!(
                    work.shards_skipped * 2 >= queries.len() * *shards,
                    "localized workload at {shards} shards: the planner skipped only \
                     {} shard-visits over {} queries (need ≥ half of {} per query)",
                    work.shards_skipped,
                    queries.len(),
                    shards
                );
            }
            let qps = queries.len() as f64 / best.max(1e-12);
            rows.push(format!(
                concat!(
                    "    {{\"workload\": \"{}\", \"shards\": {}, \"mode\": \"{}\", ",
                    "\"qps\": {:.1}, \"nodes_visited\": {}, \"subtrees_pruned\": {}, ",
                    "\"entities_checked\": {}, \"bound_updates\": {}, ",
                    "\"shards_skipped\": {}, \"planning_us\": {}}}"
                ),
                workload_name,
                shards,
                mode_name,
                qps,
                work.nodes_visited,
                work.subtrees_pruned,
                work.entities_checked,
                work.bound_updates,
                work.shards_skipped,
                work.planning_us,
            ));
        }
    }
}

fn write_artifact(rows: &[String], queries: usize) {
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"shard_scaling\",\n",
            "  \"population\": {},\n",
            "  \"queries\": {},\n",
            "  \"k\": {},\n",
            "  \"results\": [\n{}\n  ]\n",
            "}}\n"
        ),
        SHARD_BENCH_ENTITIES,
        queries,
        K,
        rows.join(",\n"),
    );
    // `cargo bench` runs with the package directory as cwd; anchor the
    // artifact at the workspace root, where CI picks it up.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_shard.json");
    match std::fs::write(path, &json) {
        Ok(()) => eprintln!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

criterion_group!(
    name = shard_scaling;
    config = Criterion::default();
    targets = shard_scaling_qps
);
criterion_main!(shard_scaling);
