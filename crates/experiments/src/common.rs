//! Shared measurement helpers used by the per-figure runners.

use minsig::{IndexConfig, MinSigIndex};
use mobility::SynDataset;
use trace_model::{AssociationMeasure, EntityId};

/// The outcome of averaging top-k queries over several query entities.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct PeMeasurement {
    /// Mean pruning effectiveness (fraction of entities pruned; higher is better).
    pub pruning_effectiveness: f64,
    /// Mean fraction of entities checked (Definition 5; lower is better).
    pub fraction_checked: f64,
    /// Mean number of entities checked per query.
    pub entities_checked: f64,
    /// Mean wall-clock query time in microseconds.
    pub query_time_us: f64,
    /// Number of queries averaged.
    pub queries: usize,
}

/// Runs `k`-queries for every entity in `queries` against `index` and averages
/// the pruning statistics.
pub(crate) fn average_pe<M: AssociationMeasure + ?Sized>(
    index: &MinSigIndex,
    queries: &[EntityId],
    k: usize,
    measure: &M,
) -> PeMeasurement {
    let mut out = PeMeasurement::default();
    let mut count = 0usize;
    for &query in queries {
        let Ok((_, stats)) = index.top_k(query, k, measure) else { continue };
        out.pruning_effectiveness += stats.pruning_effectiveness();
        out.fraction_checked += stats.fraction_checked();
        out.entities_checked += stats.entities_checked as f64;
        out.query_time_us += stats.query_time_us as f64;
        count += 1;
    }
    if count > 0 {
        let n = count as f64;
        out.pruning_effectiveness /= n;
        out.fraction_checked /= n;
        out.entities_checked /= n;
        out.query_time_us /= n;
    }
    out.queries = count;
    out
}

/// Estimates `nc` (the minimum number of base ST-cells an entity must share with
/// a query to beat the expected k-th association degree) from the dataset: for a
/// sample of query entities, take the base-level overlap of the exact k-th best
/// answer and average it.  This is the quantity the analytical PE model of
/// Section 6.3 needs.
pub(crate) fn estimate_nc<M: AssociationMeasure + ?Sized>(
    index: &MinSigIndex,
    queries: &[EntityId],
    k: usize,
    measure: &M,
) -> u64 {
    let mut total = 0u64;
    let mut count = 0u64;
    for &query in queries {
        let Ok(results) = index.brute_force(query, k, measure) else { continue };
        let Some(kth) = results.last() else { continue };
        let (Some(query_seq), Some(kth_seq)) = (index.sequence(query), index.sequence(kth.entity))
        else {
            continue;
        };
        total += query_seq.base().intersection_len(kth_seq.base()) as u64;
        count += 1;
    }
    total.checked_div(count).map_or(1, |mean| mean.max(1))
}

/// Builds the MinSigTree index for a generated dataset with `nh` hash functions.
pub fn build_index(dataset: &SynDataset, nh: u32) -> MinSigIndex {
    MinSigIndex::build(dataset.sp_index(), &dataset.traces, IndexConfig::with_hash_functions(nh))
        .expect("index build over generated data cannot fail")
}

/// Mean number of base ST-cells per entity in an index (the `C` of Section 4.3
/// and the `cells_per_entity` input of the analytical model).
pub fn mean_cells_per_entity(index: &MinSigIndex) -> f64 {
    let n = index.sequences().len();
    if n == 0 {
        return 0.0;
    }
    let total: usize = index.sequences().values().map(|s| s.base().len()).sum();
    total as f64 / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::Scale;
    use trace_model::PaperAdm;

    #[test]
    fn average_pe_over_a_tiny_dataset() {
        let scale = Scale::smoke();
        let dataset = SynDataset::generate(scale.syn_config()).unwrap();
        let index = build_index(&dataset, 16);
        let queries = dataset.query_entities(3, 1);
        let measure = PaperAdm::default_for(index.sp_index().height() as usize);
        let pe = average_pe(&index, &queries, 1, &measure);
        assert_eq!(pe.queries, 3);
        assert!((0.0..=1.0).contains(&pe.pruning_effectiveness));
        assert!((pe.pruning_effectiveness + pe.fraction_checked - 1.0).abs() < 1e-9);
        assert!(pe.entities_checked >= 1.0);
    }

    #[test]
    fn estimate_nc_is_positive_and_bounded_by_trace_size() {
        let scale = Scale::smoke();
        let dataset = SynDataset::generate(scale.syn_config()).unwrap();
        let index = build_index(&dataset, 16);
        let queries = dataset.query_entities(3, 2);
        let measure = PaperAdm::default_for(index.sp_index().height() as usize);
        let nc = estimate_nc(&index, &queries, 1, &measure);
        assert!(nc >= 1);
        let mean_cells = mean_cells_per_entity(&index);
        assert!(mean_cells > 0.0);
        assert!((nc as f64) <= mean_cells * 20.0, "nc should be within an order of the mean trace");
    }

    #[test]
    fn average_pe_with_no_queries_is_empty() {
        let scale = Scale::smoke();
        let dataset = SynDataset::generate(scale.syn_config()).unwrap();
        let index = build_index(&dataset, 8);
        let measure = PaperAdm::default_for(index.sp_index().height() as usize);
        let pe = average_pe(&index, &[], 1, &measure);
        assert_eq!(pe.queries, 0);
        assert_eq!(pe.pruning_effectiveness, 0.0);
    }
}
