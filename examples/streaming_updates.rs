//! Streaming ingestion and durability: batch new detections through an
//! `IngestBuffer` (one copy-on-write snapshot epoch per batch), keep serving
//! in-flight readers from their old epoch, persist the index to disk, and
//! restart from the file instead of rebuilding — including a paged query from
//! a memory-constrained deployment (Section 4.3 / Figure 7.6).
//!
//! Run with `cargo run --release --example streaming_updates`.

use digital_traces::index::{IndexConfig, IngestBuffer, MinSigIndex, ShardedSnapshot};
use digital_traces::mobility_models::{HierarchyConfig, SynConfig, SynDataset};
use digital_traces::model::{EntityId, PaperAdm, Period, PresenceInstance};
use digital_traces::storage::{PagedTraceStore, PoolConfig};
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. An initial dataset: the first five days of activity.
    let config = SynConfig {
        num_entities: 800,
        days: 5,
        hierarchy: HierarchyConfig { grid_side: 20, levels: 3, ..HierarchyConfig::default() },
        seed: 11,
        ..SynConfig::default()
    };
    let dataset = SynDataset::generate(config)?;
    let sp = dataset.sp_index().clone();
    let mut traces = dataset.traces.clone();
    let mut index = MinSigIndex::build(&sp, &traces, IndexConfig::with_hash_functions(128))?;
    let measure = PaperAdm::default_for(sp.height() as usize);
    println!(
        "initial index: {} entities, {} tree nodes, {:.1} KiB (epoch {})",
        index.num_entities(),
        index.stats().num_nodes,
        index.stats().index_bytes as f64 / 1024.0,
        index.epoch(),
    );

    // 2. Stream three batches of new detections: some for existing devices,
    //    some for devices never seen before.  Each batch is applied as ONE
    //    copy-on-write delta — only the new cells are hashed — and publishes
    //    one snapshot epoch; a reader holding the previous snapshot is never
    //    blocked and never sees a partial batch.
    let venues = sp.base_units().to_vec();
    let day = 24 * 60u64;
    let mut buffer = IngestBuffer::with_capacity(256);
    for batch in 0..3u64 {
        let reader = index.snapshot(); // an in-flight reader on the old epoch
        let before = reader.num_entities();
        for i in 0..50u64 {
            let entity = if i % 3 == 0 {
                EntityId(10_000 + batch * 100 + i) // a new device
            } else {
                EntityId(i * 7 % 800) // an existing device
            };
            for burst in 0..4u64 {
                let venue = venues[((batch * 31 + i * 13 + burst * 7) as usize) % venues.len()];
                let start = 5 * day + batch * day + burst * 3 * 60;
                let record = PresenceInstance::new(entity, venue, Period::new(start, start + 45)?);
                buffer.push(record);
                traces.record(record);
            }
        }
        let report = buffer.flush(&mut index)?;
        println!(
            "batch {batch}: {} records -> {} entities touched ({} new) in {:.1} ms, epoch {} \
             ({} entities indexed)",
            report.records,
            report.entities_touched,
            report.entities_inserted,
            report.flush_time_us as f64 / 1000.0,
            report.epoch,
            index.num_entities(),
        );
        assert_eq!(reader.num_entities(), before, "old epoch must be frozen");

        // Queries keep working between batches.
        let query = EntityId(14);
        let (results, stats) = index.top_k(query, 3, &measure)?;
        println!(
            "  top-3 for {query}: {:?}  (checked {} entities)",
            results.iter().map(|r| r.entity.raw()).collect::<Vec<_>>(),
            stats.entities_checked
        );
    }

    // 3. Persist the merged index and "restart": open the file instead of
    //    rebuilding.  The load re-hashes nothing and answers bit-identically.
    let path = std::env::temp_dir().join("streaming_updates_example.msix");
    let t = Instant::now();
    index.save(&path)?;
    let save_ms = t.elapsed().as_secs_f64() * 1000.0;
    let t = Instant::now();
    let reopened = MinSigIndex::open(&path)?;
    let open_ms = t.elapsed().as_secs_f64() * 1000.0;
    let t = Instant::now();
    let rebuilt = MinSigIndex::build(&sp, &traces, IndexConfig::with_hash_functions(128))?;
    let rebuild_ms = t.elapsed().as_secs_f64() * 1000.0;
    drop(rebuilt);
    println!(
        "\npersistence: save {save_ms:.1} ms, open {open_ms:.1} ms \
         (full rebuild: {rebuild_ms:.1} ms)"
    );
    let (a, _) = index.top_k(EntityId(14), 3, &measure)?;
    let (b, _) = reopened.top_k(EntityId(14), 3, &measure)?;
    assert_eq!(a, b, "reloaded index must answer bit-identically");
    println!("reloaded index answers bit-identically.");
    std::fs::remove_file(&path)?;

    // 4. The same query against a memory-constrained deployment: the
    //    session keeps the cell rows below the coarsest level on the store's
    //    disk, and a buffer pool a quarter of the trace data holds what fits.
    let store = PagedTraceStore::build(&traces, 8);
    let pool = store.pool(PoolConfig::with_memory_fraction(store.data_bytes(), 0.25));
    let snapshot = ShardedSnapshot::from(reopened.snapshot());
    let session = snapshot.paged(&store, &pool);
    let (paged_results, paged_stats) = session.top_k(EntityId(14), 3, &measure)?;
    println!(
        "\npaged query with a 25% memory budget: {} pool misses, {:.2} ms simulated I/O, \
         {} candidates answered without a read",
        paged_stats.pool_misses,
        paged_stats.simulated_io_us as f64 / 1000.0,
        paged_stats.reads_avoided
    );
    assert_eq!(paged_results.len(), a.len());
    for (x, y) in paged_results.iter().zip(a.iter()) {
        assert!((x.degree - y.degree).abs() < 1e-9, "paged and in-memory answers must agree");
    }
    println!("paged and in-memory answers agree.");
    Ok(())
}
