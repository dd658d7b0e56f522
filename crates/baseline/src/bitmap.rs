//! The bitmap baseline index of Section 7.2.
//!
//! ST-cells are partitioned into `n` clusters; every entity is summarised by an
//! `n`-bit vector whose bit `i` is set when the entity visits at least one cell of
//! cluster `i`.  Entities sharing a bit vector form a group; a query computes an
//! upper bound on the association degree per group (from the number of query
//! cells falling into the group's set clusters), examines groups best-first and
//! stops once the k-th exact answer dominates the best remaining group bound.
//!
//! The bound is sound — a group's entities cannot overlap the query on any cell
//! whose cluster bit is unset — so the answers are exact; the *pruning* is poor on
//! realistic traces because ST-cells exhibit weak locality, which is precisely the
//! comparison point of Figure 7.7.

use crate::clustering::{cluster_cells, CellClustering};
use crate::BaselineStats;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use trace_model::{AssociationMeasure, CellSetSequence, EntityId};

/// Configuration of the bitmap baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BitmapIndexConfig {
    /// Minimum number of entities in which a pair of cells must co-occur for the
    /// cells to be clustered together.
    pub min_support: usize,
    /// Number of clusters (the bit-vector width).
    pub num_clusters: usize,
}

impl Default for BitmapIndexConfig {
    fn default() -> Self {
        BitmapIndexConfig { min_support: 3, num_clusters: 256 }
    }
}

/// The bitmap index.
#[derive(Debug, Clone)]
pub struct BitmapIndex {
    config: BitmapIndexConfig,
    clustering: CellClustering,
    num_levels: usize,
    /// Entity groups: the shared bit vector and the member entities.
    groups: Vec<(Vec<u64>, Vec<EntityId>)>,
    num_entities: usize,
}

fn set_bit(words: &mut [u64], bit: u32) {
    words[(bit / 64) as usize] |= 1u64 << (bit % 64);
}

fn get_bit(words: &[u64], bit: u32) -> bool {
    words[(bit / 64) as usize] & (1u64 << (bit % 64)) != 0
}

impl BitmapIndex {
    /// Builds the index from the entities' ST-cell set sequences.
    pub fn build(
        sequences: &BTreeMap<EntityId, CellSetSequence>,
        config: BitmapIndexConfig,
    ) -> Self {
        let num_levels = sequences.values().next().map(|s| s.num_levels()).unwrap_or(1);
        let transactions: Vec<Vec<u64>> =
            sequences.values().map(|seq| seq.base().iter().map(|c| c.packed()).collect()).collect();
        let clustering = cluster_cells(&transactions, config.min_support, config.num_clusters);
        let words = clustering.num_clusters().div_ceil(64).max(1);

        let mut grouped: BTreeMap<Vec<u64>, Vec<EntityId>> = BTreeMap::new();
        for (&entity, seq) in sequences {
            let mut vector = vec![0u64; words];
            for cell in seq.base().iter() {
                if let Some(cluster) = clustering.cluster_of(cell.packed()) {
                    set_bit(&mut vector, cluster);
                }
            }
            grouped.entry(vector).or_default().push(entity);
        }
        let num_entities = sequences.len();
        BitmapIndex {
            config,
            clustering,
            num_levels,
            groups: grouped.into_iter().collect(),
            num_entities,
        }
    }

    /// The configuration used to build the index.
    pub fn config(&self) -> BitmapIndexConfig {
        self.config
    }

    /// Number of indexed entities.
    pub fn num_entities(&self) -> usize {
        self.num_entities
    }

    /// The underlying cell clustering.
    pub fn clustering(&self) -> &CellClustering {
        &self.clustering
    }

    /// Answers a top-k query.  `sequences` must be the same map the index was
    /// built from (the index stores only bit vectors, not the raw sequences).
    pub fn top_k<M: AssociationMeasure + ?Sized>(
        &self,
        sequences: &BTreeMap<EntityId, CellSetSequence>,
        query: EntityId,
        k: usize,
        measure: &M,
    ) -> (Vec<(EntityId, f64)>, BaselineStats) {
        let mut stats =
            BaselineStats { total_entities: self.num_entities, k, ..BaselineStats::default() };
        let Some(query_seq) = sequences.get(&query) else {
            return (Vec::new(), stats);
        };
        let query_sizes: Vec<usize> =
            (1..=self.num_levels as u8).map(|l| query_seq.level(l).len()).collect();

        // Query cells per cluster.
        let mut per_cluster = vec![0usize; self.clustering.num_clusters()];
        let mut unclustered = 0usize;
        for cell in query_seq.base().iter() {
            match self.clustering.cluster_of(cell.packed()) {
                Some(c) => per_cluster[c as usize] += 1,
                None => unclustered += 1,
            }
        }
        let _ = unclustered; // query-only cells can never be shared

        // Upper bound per group.
        let mut ordered: Vec<(f64, usize)> = self
            .groups
            .iter()
            .enumerate()
            .map(|(i, (vector, _))| {
                let cap_base: usize = per_cluster
                    .iter()
                    .enumerate()
                    .filter(|&(c, _)| get_bit(vector, c as u32))
                    .map(|(_, &count)| count)
                    .sum();
                let mut caps = query_sizes.clone();
                let last = caps.len() - 1;
                caps[last] = caps[last].min(cap_base);
                (measure.upper_bound(&query_sizes, &caps), i)
            })
            .collect();
        ordered.sort_by(|a, b| b.0.total_cmp(&a.0));

        // Best-first exact evaluation with early termination.
        let mut results: Vec<(EntityId, f64)> = Vec::new();
        let mut threshold = f64::NEG_INFINITY;
        for (ub, group_idx) in ordered {
            if results.len() >= k && threshold >= ub {
                break;
            }
            stats.groups_examined += 1;
            for &entity in &self.groups[group_idx].1 {
                if entity == query {
                    continue;
                }
                let Some(seq) = sequences.get(&entity) else { continue };
                stats.entities_checked += 1;
                let degree = measure.degree(query_seq, seq);
                results.push((entity, degree));
            }
            results.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
            results.truncate(k.max(1) * 4 + k); // keep a margin before the final cut
            if results.len() >= k {
                threshold = results[k - 1].1;
            }
        }
        results.truncate(k);
        (results, stats)
    }
}

#[cfg(test)]
impl BitmapIndex {
    /// Number of distinct bit vectors (groups).
    fn num_groups(&self) -> usize {
        self.groups.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::scan_top_k;
    use trace_model::{CellSet, PaperAdm, SpIndex, StCell};

    /// A dataset where entities come in strongly-associated pairs.
    fn paired_sequences(pairs: usize) -> (SpIndex, BTreeMap<EntityId, CellSetSequence>) {
        let sp = SpIndex::uniform(2, &[8, 8]).unwrap();
        let base = sp.base_units().to_vec();
        let mut out = BTreeMap::new();
        for i in 0..pairs {
            for member in 0..2u64 {
                let entity = EntityId(2 * i as u64 + member);
                let mut cells: Vec<StCell> = (0..6u32)
                    .map(|step| StCell::new(step, base[(i * 11 + step as usize) % base.len()]))
                    .collect();
                cells.push(StCell::new(
                    100 + member as u32,
                    base[(i + member as usize * 37) % base.len()],
                ));
                let seq =
                    CellSetSequence::from_base_cells(&sp, &CellSet::from_cells(cells)).unwrap();
                out.insert(entity, seq);
            }
        }
        (sp, out)
    }

    #[test]
    fn bitmap_results_match_the_exact_scan() {
        let (sp, seqs) = paired_sequences(20);
        let index =
            BitmapIndex::build(&seqs, BitmapIndexConfig { min_support: 2, num_clusters: 64 });
        let measure = PaperAdm::default_for(sp.height() as usize);
        for query in [0u64, 7, 15, 33] {
            for k in [1usize, 5] {
                let (got, stats) = index.top_k(&seqs, EntityId(query), k, &measure);
                let (expect, _) = scan_top_k(&seqs, EntityId(query), k, &measure);
                assert_eq!(got.len(), expect.len());
                for (g, e) in got.iter().zip(expect.iter()) {
                    assert!((g.1 - e.1).abs() < 1e-9, "query {query} k {k}");
                }
                assert!(stats.entities_checked <= index.num_entities());
            }
        }
    }

    #[test]
    fn top1_is_the_partner() {
        let (sp, seqs) = paired_sequences(15);
        let index = BitmapIndex::build(&seqs, BitmapIndexConfig::default());
        let measure = PaperAdm::default_for(sp.height() as usize);
        let (results, _) = index.top_k(&seqs, EntityId(6), 1, &measure);
        assert_eq!(results[0].0, EntityId(7));
    }

    #[test]
    fn group_count_is_bounded_by_entities() {
        let (_sp, seqs) = paired_sequences(10);
        let index = BitmapIndex::build(&seqs, BitmapIndexConfig::default());
        assert!(index.num_groups() <= index.num_entities());
        assert_eq!(index.num_entities(), 20);
        assert!(index.clustering().num_cells() > 0);
    }

    #[test]
    fn unknown_query_returns_empty() {
        let (_sp, seqs) = paired_sequences(3);
        let index = BitmapIndex::build(&seqs, BitmapIndexConfig::default());
        let measure = PaperAdm::default_for(2);
        let (results, stats) = index.top_k(&seqs, EntityId(999), 1, &measure);
        assert!(results.is_empty());
        assert_eq!(stats.entities_checked, 0);
    }

    #[test]
    fn empty_index_is_harmless() {
        let seqs: BTreeMap<EntityId, CellSetSequence> = BTreeMap::new();
        let index = BitmapIndex::build(&seqs, BitmapIndexConfig::default());
        assert_eq!(index.num_entities(), 0);
        assert_eq!(index.num_groups(), 0);
    }

    #[test]
    fn bit_helpers_round_trip() {
        let mut words = vec![0u64; 3];
        for bit in [0u32, 63, 64, 130] {
            assert!(!get_bit(&words, bit));
            set_bit(&mut words, bit);
            assert!(get_bit(&words, bit));
        }
        assert!(!get_bit(&words, 1));
    }
}
