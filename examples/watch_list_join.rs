//! A top-k join over a watch-list of entities: every listed entity's
//! strongest associations, its probes answered in parallel on the rayon pool.
//!
//! Run with `cargo run --release --example watch_list_join`.

use digital_traces::index::{IndexConfig, JoinOptions, MinSigIndex};
use digital_traces::mobility_models::{HierarchyConfig, SynConfig, SynDataset};
use digital_traces::model::PaperAdm;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A synthetic population with planted co-movers.
    let dataset = SynDataset::generate(SynConfig {
        num_entities: 1_000,
        days: 7,
        hierarchy: HierarchyConfig { grid_side: 24, levels: 3, ..HierarchyConfig::default() },
        comover_fraction: 0.25,
        seed: 5,
        ..SynConfig::default()
    })?;
    let sp = dataset.sp_index();
    let index = MinSigIndex::build(sp, &dataset.traces, IndexConfig::with_hash_functions(256))?;
    let measure = PaperAdm::default_for(sp.height() as usize);

    // 2. The join: one row per watch-list entity, each its exact top 5.
    let watch_list = dataset.query_entities(50, 77);
    let (rows, join_stats) =
        index.top_k_join(&watch_list, &measure, JoinOptions { k: 5, ..JoinOptions::default() })?;
    println!(
        "top-5 join over {} watch-list entities: mean PE {:.3}, mean entities checked {:.1}",
        rows.len(),
        join_stats.mean_pruning_effectiveness,
        join_stats.mean_entities_checked
    );
    assert_eq!(rows.len(), watch_list.len());
    Ok(())
}
