//! # baseline
//!
//! The comparison approaches of the paper's evaluation (Section 7.2):
//!
//! * [`scan`] — the naive exact approach: compute the association degree between
//!   the query entity and every other entity (the upper bound on what any index
//!   must beat, and the ground truth for correctness tests);
//! * [`fpgrowth`] — an FP-growth frequent-itemset miner over ST-cell
//!   "transactions", the machinery behind the locality-based baseline;
//! * [`clustering`] — partitioning ST-cells into clusters of frequently
//!   co-occurring cells (union-find over frequent pairs);
//! * [`bitmap`] — the baseline index itself: an n-bit vector per entity (bit `i`
//!   set when the entity visits any cell of cluster `i`), grouped into a bitmap,
//!   searched best-first with cluster-level upper bounds.
//!
//! The paper's observation — and the reason the MinSigTree wins by orders of
//! magnitude — is that real digital traces show little ST-cell locality, so the
//! clusters couple weakly with entity behaviour and the resulting upper bounds
//! are loose (Section 7.7).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bitmap;
pub mod clustering;
pub mod fpgrowth;
pub mod scan;

pub use bitmap::{BitmapIndex, BitmapIndexConfig};
pub use clustering::CellClustering;
pub use fpgrowth::{FpGrowth, FrequentItemset};
pub use scan::{scan_top_k, ScanStats};

use serde::{Deserialize, Serialize};

/// Search statistics shared by the baseline approaches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BaselineStats {
    /// Total number of entities considered by the index.
    pub total_entities: usize,
    /// Result size requested.
    pub k: usize,
    /// Entities whose exact association degree was computed.
    pub entities_checked: usize,
    /// Candidate groups (distinct bit vectors) examined.
    pub groups_examined: usize,
}

impl BaselineStats {
    /// Fraction of entities checked beyond the returned `k` (Definition 5).
    pub fn fraction_checked(&self) -> f64 {
        if self.total_entities == 0 {
            return 0.0;
        }
        self.entities_checked.saturating_sub(self.k) as f64 / self.total_entities as f64
    }

    /// The complement of [`fraction_checked`](Self::fraction_checked): fraction of
    /// entities pruned.
    pub fn pruning_effectiveness(&self) -> f64 {
        (1.0 - self.fraction_checked()).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_fractions() {
        let s =
            BaselineStats { total_entities: 100, k: 5, entities_checked: 55, groups_examined: 3 };
        assert!((s.fraction_checked() - 0.5).abs() < 1e-12);
        assert!((s.pruning_effectiveness() - 0.5).abs() < 1e-12);
        let empty = BaselineStats::default();
        assert_eq!(empty.fraction_checked(), 0.0);
    }
}
