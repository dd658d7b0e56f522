//! Clustering ST-cells by co-occurrence (the first half of the Section 7.2
//! baseline).
//!
//! ST-cells that frequently co-occur in entities' traces are merged into the same
//! cluster (union-find over frequent pairs mined with FP-growth); every remaining
//! cell becomes a singleton.  The cluster count is then reduced to a target size
//! by folding the smallest clusters together, so the per-entity bit vectors of the
//! bitmap index have a fixed, manageable width.

use crate::fpgrowth::FpGrowth;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// A partition of ST-cells (identified by their packed `u64` representation) into
/// clusters `0..num_clusters`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CellClustering {
    assignment: HashMap<u64, u32>,
    num_clusters: u32,
}

impl CellClustering {
    /// Number of clusters.
    pub fn num_clusters(&self) -> usize {
        self.num_clusters as usize
    }

    /// The cluster of a cell, or `None` for a cell never seen during clustering.
    pub(crate) fn cluster_of(&self, cell: u64) -> Option<u32> {
        self.assignment.get(&cell).copied()
    }

    /// Number of clustered cells.
    pub fn num_cells(&self) -> usize {
        self.assignment.len()
    }
}

/// Simple union-find.
struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind { parent: (0..n).collect() }
    }
    fn find(&mut self, x: usize) -> usize {
        if self.parent[x] != x {
            let root = self.find(self.parent[x]);
            self.parent[x] = root;
        }
        self.parent[x]
    }
    fn union(&mut self, a: usize, b: usize) {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra != rb {
            self.parent[ra] = rb;
        }
    }
}

/// Clusters cells from entity "transactions" (each transaction is one entity's
/// set of packed ST-cells).
///
/// * `min_support` — minimum number of entities in which a *pair* of cells must
///   co-occur to be merged;
/// * `target_clusters` — the desired number of clusters (the bit-vector width);
///   the actual count can be lower when there are fewer distinct cells.
pub(crate) fn cluster_cells(
    transactions: &[Vec<u64>],
    min_support: usize,
    target_clusters: usize,
) -> CellClustering {
    assert!(target_clusters >= 1, "need at least one cluster");
    // Distinct cells in first-seen order.
    let mut cells: Vec<u64> = Vec::new();
    let mut index_of: HashMap<u64, usize> = HashMap::new();
    for t in transactions {
        for &c in t {
            index_of.entry(c).or_insert_with(|| {
                cells.push(c);
                cells.len() - 1
            });
        }
    }
    if cells.is_empty() {
        return CellClustering { assignment: HashMap::new(), num_clusters: 1 };
    }

    // Frequent pairs → union-find merges.
    let pairs = FpGrowth::new(min_support).with_max_len(2).mine(transactions);
    let mut uf = UnionFind::new(cells.len());
    for set in pairs.iter().filter(|s| s.items.len() == 2) {
        uf.union(index_of[&set.items[0]], index_of[&set.items[1]]);
    }

    // Root → provisional cluster id.
    let mut provisional: HashMap<usize, u32> = HashMap::new();
    let mut cluster_of_cell: Vec<u32> = Vec::with_capacity(cells.len());
    for i in 0..cells.len() {
        let root = uf.find(i);
        let next = provisional.len() as u32;
        let id = *provisional.entry(root).or_insert(next);
        cluster_of_cell.push(id);
    }
    let mut num_clusters = provisional.len();

    // Fold down to the target width: merge the smallest clusters into buckets by
    // size-aware round robin (cluster id modulo target).
    if num_clusters > target_clusters {
        let remap: Vec<u32> =
            (0..num_clusters as u32).map(|c| c % target_clusters as u32).collect();
        for id in cluster_of_cell.iter_mut() {
            *id = remap[*id as usize];
        }
        num_clusters = target_clusters;
    }

    let assignment = cells.iter().zip(cluster_of_cell).map(|(&c, id)| (c, id)).collect();
    CellClustering { assignment, num_clusters: num_clusters as u32 }
}

#[cfg(test)]
impl CellClustering {
    /// Cluster sizes indexed by cluster id.
    fn cluster_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.num_clusters as usize];
        for &c in self.assignment.values() {
            sizes[c as usize] += 1;
        }
        sizes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cooccurring_cells_share_a_cluster() {
        // Cells 1 and 2 always co-occur; cell 9 never co-occurs with them.
        let txns = vec![vec![1, 2], vec![1, 2], vec![1, 2, 9], vec![9]];
        let clustering = cluster_cells(&txns, 2, 10);
        assert_eq!(clustering.cluster_of(1), clustering.cluster_of(2));
        assert_ne!(clustering.cluster_of(1), clustering.cluster_of(9));
        assert!(clustering.num_clusters() <= 10);
        assert_eq!(clustering.num_cells(), 3);
    }

    #[test]
    fn transitive_cooccurrence_merges_chains() {
        // 1-2 co-occur, 2-3 co-occur → all three end up together.
        let txns = vec![vec![1, 2], vec![1, 2], vec![2, 3], vec![2, 3]];
        let clustering = cluster_cells(&txns, 2, 10);
        assert_eq!(clustering.cluster_of(1), clustering.cluster_of(3));
    }

    #[test]
    fn low_locality_data_produces_many_singletons() {
        // Every transaction has disjoint cells → no frequent pair → singletons.
        let txns: Vec<Vec<u64>> = (0..20).map(|i| vec![2 * i, 2 * i + 1]).collect();
        let clustering = cluster_cells(&txns, 2, 64);
        assert_eq!(clustering.num_clusters(), 40);
        let sizes = clustering.cluster_sizes();
        assert!(sizes.iter().all(|&s| s >= 1));
    }

    #[test]
    fn target_cluster_cap_is_respected() {
        let txns: Vec<Vec<u64>> = (0..100).map(|i| vec![i]).collect();
        let clustering = cluster_cells(&txns, 2, 8);
        assert_eq!(clustering.num_clusters(), 8);
        assert_eq!(clustering.cluster_sizes().iter().sum::<usize>(), 100);
        for cell in 0..100u64 {
            assert!(clustering.cluster_of(cell).unwrap() < 8);
        }
    }

    #[test]
    fn unknown_cells_and_empty_input() {
        let clustering = cluster_cells(&[], 2, 4);
        assert_eq!(clustering.num_cells(), 0);
        assert!(clustering.cluster_of(5).is_none());
        assert!(clustering.num_clusters() >= 1);
    }

    #[test]
    #[should_panic(expected = "at least one cluster")]
    fn zero_target_clusters_panics() {
        let _ = cluster_cells(&[vec![1]], 1, 0);
    }
}
