//! Figure 7.6 — search time vs. memory size.
//!
//! The index's resident summary stays in memory; the cell rows needed for
//! exact scoring beyond the coarsest level are read through a buffer pool
//! whose budget is a fraction of the raw trace data size.  The pages are the
//! out-of-core session's: it writes every entity's keyed rows of levels 2..m
//! to the store's disk, and a query — a flat scan, like every sharded one —
//! reads only the rows of the members it scores that share a level-2 cell
//! with it, the candidates whose finer levels it must intersect.  The
//! reported search time
//! combines the measured CPU time with the *simulated* I/O latency charged per
//! buffer-pool miss, so the curve's shape (steeply descending, flattening
//! around 40–50 % memory) is reproducible on any machine.

use crate::common::build_index;
use crate::report::Table;
use crate::scale::Scale;
use minsig::ShardedSnapshot;
use mobility::SynDataset;
use trace_model::PaperAdm;
use trace_storage::{PagedTraceStore, PoolConfig, PAGE_SIZE};

/// Runs the experiment.
pub fn run(scale: &Scale) -> Table {
    let dataset = SynDataset::generate(scale.syn_config()).expect("dataset generation");
    let index = build_index(&dataset, scale.default_hash_functions);
    let snapshot = ShardedSnapshot::from(index.snapshot());
    let store = PagedTraceStore::build(&dataset.traces, 8);
    let queries = dataset.query_entities(scale.queries, scale.seed + 6);
    let measure = PaperAdm::default_for(dataset.sp_index().height() as usize);

    let fractions: Vec<f64> = if scale.syn_entities > 500 {
        (1..=10).map(|i| i as f64 / 10.0).collect()
    } else {
        vec![0.1, 0.5, 1.0]
    };
    let (mut rows, mut row_pages) = (Vec::new(), 0);
    for fraction in fractions {
        let mut per_k_ms = Vec::new();
        let mut misses_top10 = 0u64;
        let mut hit_rate_top10 = 0.0;
        for &k in &[1usize, 10, 50] {
            let pool = store.pool(PoolConfig::with_memory_fraction(store.data_bytes(), fraction));
            let paged = snapshot.paged(&store, &pool);
            row_pages = paged.shard_pages(0).len();
            let mut total_us = 0u64;
            for &query in &queries {
                let (_, stats) = paged.top_k(query, k, &measure).expect("paged query");
                total_us += stats.query_time_us + stats.simulated_io_us;
            }
            per_k_ms.push(total_us as f64 / queries.len().max(1) as f64 / 1000.0);
            if k == 10 {
                misses_top10 = pool.stats().misses;
                hit_rate_top10 = pool.stats().hit_rate();
            }
        }
        rows.push(vec![
            format!("{fraction:.1}"),
            format!("{:.3}", per_k_ms[0]),
            format!("{:.3}", per_k_ms[1]),
            format!("{:.3}", per_k_ms[2]),
            misses_top10.to_string(),
            format!("{hit_rate_top10:.3}"),
        ]);
    }
    let kib = |pages: usize| pages * PAGE_SIZE / 1024;
    let record_pages = store.stats().pages as usize;
    let mut table = Table::new(
        "Figure 7.6 — search time vs. memory size",
        format!(
            "Average per-query time (CPU + simulated I/O, milliseconds) as the buffer-pool budget \
             varies from 10% to 100% of the raw trace data ({record_pages} record pages, {} KiB).  \
             Queries read the session's cell rows of levels 2..m: {row_pages} pages, {} KiB.",
            kib(record_pages),
            kib(row_pages)
        ),
        vec![
            "memory fraction",
            "top-1 (ms)",
            "top-10 (ms)",
            "top-50 (ms)",
            "pool misses (top-10)",
            "hit rate (top-10)",
        ],
    );
    for row in rows {
        table.push_row(row);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn more_memory_never_increases_pool_misses() {
        let table = run(&Scale::smoke());
        let misses: Vec<u64> = table.rows().iter().map(|r| r[4].parse().unwrap()).collect();
        assert!(
            misses.windows(2).all(|w| w[1] <= w[0]),
            "misses must be non-increasing: {misses:?}"
        );
    }
}
