//! Out-of-core sharded query throughput: QPS of the paged sharded snapshot
//! ([`PagedShardedSnapshot`]) across buffer-pool budgets
//! {10%, 25%, 50%, 100% of the trace data} × eviction policies
//! {LRU, LRU-2, FIFO}, on the ≥5k-entity skewed shard-bench population.
//!
//! Criterion groups time the single-query path on the two budget extremes;
//! the JSON artifact pass then re-measures every (budget, policy) cell and
//! emits **`BENCH_paged.json`** — QPS alongside the pool's hit / miss /
//! eviction counters and the simulated I/O time, the Figure 7.6 "search time
//! vs. memory size" curve for the sharded engine.
//!
//! The pass doubles as a CI gate: it **panics** (failing the bench job) if a
//! paged answer ever differs *bitwise* from the in-memory sharded oracle —
//! including the 10%-budget cell, where the trace data is 10× the pool, the
//! ISSUE's exact-answers-at-10×-memory acceptance bar — or if a query
//! finishes with a pin still outstanding.
//!
//! [`PagedShardedSnapshot`]: minsig::PagedShardedSnapshot

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use minsig::shard::ShardedSnapshot;
use minsig::{IndexConfig, ShardedMinSigIndex, TopKResult};
use minsig_bench::{shard_bench_workload, SHARD_BENCH_ENTITIES};
use std::hint::black_box;
use std::time::Instant;
use trace_model::EntityId;
use trace_storage::{PagedTraceStore, PoolConfig, ReplacerPolicy, PAGE_SIZE};

const SHARDS: usize = 4;
const K: usize = 10;
/// Pool budget as a fraction of the store's trace data.
const FRACTIONS: [f64; 4] = [0.1, 0.25, 0.5, 1.0];
const POLICIES: [(ReplacerPolicy, &str); 3] = [
    (ReplacerPolicy::LruK(1), "lru"),
    (ReplacerPolicy::LruK(2), "lru2"),
    (ReplacerPolicy::Fifo, "fifo"),
];

fn pool_config(store: &PagedTraceStore, fraction: f64, policy: ReplacerPolicy) -> PoolConfig {
    let budget = ((store.data_bytes() as f64 * fraction) as usize).max(PAGE_SIZE);
    PoolConfig { capacity_bytes: budget, ..PoolConfig::default() }.with_replacer(policy)
}

fn paged_qps(c: &mut Criterion) {
    let (workload, queries) = shard_bench_workload();
    let measure = workload.measure();
    let index = ShardedMinSigIndex::build(
        &workload.sp,
        &workload.traces,
        IndexConfig::with_hash_functions(32),
        SHARDS,
    )
    .expect("sharded bench index builds");
    let snapshot = index.snapshot();
    let store = PagedTraceStore::build(&workload.traces, 8);

    let mut group = c.benchmark_group("paged/single_query");
    group.sample_size(10);
    for fraction in [0.1, 1.0] {
        for (policy, policy_name) in POLICIES {
            let pool = store.pool(pool_config(&store, fraction, policy));
            let paged = snapshot.paged(&store, &pool);
            group.throughput(Throughput::Elements(queries.len() as u64));
            group.bench_function(
                BenchmarkId::new(format!("{policy_name}/budget"), format!("{fraction}")),
                |b| {
                    b.iter(|| {
                        for &query in &queries {
                            black_box(paged.top_k(query, K, &measure).expect("paged bench query"));
                        }
                    })
                },
            );
        }
    }
    group.finish();

    emit_artifact(&snapshot, &store, &queries, &measure, &workload);
}

/// One timed pass per (budget fraction, policy) cell with the pool counter
/// deltas, gated on bitwise equality with the in-memory sharded oracle.
fn emit_artifact(
    snapshot: &ShardedSnapshot,
    store: &PagedTraceStore,
    queries: &[EntityId],
    measure: &trace_model::PaperAdm,
    workload: &minsig::testkit::Workload,
) {
    const PASSES: usize = 3;
    let oracle: Vec<Vec<TopKResult>> =
        queries.iter().map(|&q| snapshot.top_k(q, K, measure).expect("oracle answers").0).collect();

    let mut rows = Vec::new();
    for fraction in FRACTIONS {
        for (policy, policy_name) in POLICIES {
            let config = pool_config(store, fraction, policy);
            let pool = store.pool(config);
            let paged = snapshot.paged(store, &pool);
            if fraction <= 0.1 {
                assert!(
                    store.data_bytes() >= 10 * config.capacity_bytes,
                    "the 10% cell must hold 10x more data than pool \
                     ({} data bytes vs {} budget)",
                    store.data_bytes(),
                    config.capacity_bytes,
                );
            }
            let mut best = f64::INFINITY;
            let mut planning_us = 0u64;
            let before = pool.stats();
            for _ in 0..PASSES {
                planning_us = 0;
                let start = Instant::now();
                for (i, &query) in queries.iter().enumerate() {
                    let (results, stats) = paged.top_k(query, K, measure).expect("paged answers");
                    planning_us += stats.planning_us;
                    assert_eq!(
                        results, oracle[i],
                        "{policy_name} @ {fraction}: paged answer diverged from the \
                         in-memory oracle for query {query}"
                    );
                    black_box(&results);
                }
                best = best.min(start.elapsed().as_secs_f64());
            }
            assert_eq!(
                pool.pinned_frames(),
                0,
                "{policy_name} @ {fraction}: a query left a pin outstanding"
            );
            let io = pool.stats().since(&before);
            let qps = queries.len() as f64 / best.max(1e-12);
            rows.push(format!(
                concat!(
                    "    {{\"budget_fraction\": {}, \"policy\": \"{}\", \"qps\": {:.1}, ",
                    "\"pool_hits\": {}, \"pool_misses\": {}, \"pool_evictions\": {}, ",
                    "\"simulated_io_us\": {}, \"planning_us\": {}}}"
                ),
                fraction,
                policy_name,
                qps,
                io.hits,
                io.misses,
                io.evictions,
                io.simulated_us,
                planning_us,
            ));
        }
    }

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"paged\",\n",
            "  \"population\": {},\n",
            "  \"indexed_entities\": {},\n",
            "  \"shards\": {},\n",
            "  \"queries\": {},\n",
            "  \"k\": {},\n",
            "  \"data_bytes\": {},\n",
            "  \"results\": [\n{}\n  ]\n",
            "}}\n"
        ),
        SHARD_BENCH_ENTITIES,
        workload.entities().len(),
        SHARDS,
        queries.len(),
        K,
        store.data_bytes(),
        rows.join(",\n"),
    );
    // `cargo bench` runs with the package directory as cwd; anchor the
    // artifact at the workspace root, where CI picks it up.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_paged.json");
    match std::fs::write(path, &json) {
        Ok(()) => eprintln!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

criterion_group!(
    name = paged;
    config = Criterion::default();
    targets = paged_qps
);
criterion_main!(paged);
