//! Index configuration.

use crate::error::{IndexError, Result};
use serde::{Deserialize, Serialize};

/// How the hierarchical hash value of a *coarse* (non-base) ST-cell is derived.
///
/// The paper defines `h_u(t, l_x) = min over { h_u(t, l_c) | l_c child of l_x }`
/// — the minimum over **all** children, which guarantees that a coarse cell never
/// hashes above any of its descendants (the property Theorems 1–4 rely on).
/// Computing that minimum exactly requires enumerating every descendant base
/// unit, which is exact but expensive for wide hierarchies; this enum selects
/// between the exact rule and a scalable closed-form alternative that satisfies
/// the same monotonicity property.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum HasherMode {
    /// The paper's rule: minimum over all descendant base cells, memoised per
    /// coarse cell.  Exact but O(descendants) on first touch of each cell.
    Exhaustive,
    /// A scalable substitute: the hash of a cell at level `l` is the *maximum* of
    /// independent per-(time, ancestor) draws along its ancestor path.  The value
    /// of a parent is computed from a strict prefix of its children's paths, so
    /// `h(parent) <= h(child)` always holds — the only property the correctness
    /// theorems need — and a cell's values are its parent cell's maxed with one
    /// fresh draw: `nh` base hashes per cell given the parent's row, no memo.
    PathMax,
}

/// Configuration of a [`MinSigIndex`](crate::index::MinSigIndex).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IndexConfig {
    /// Number of hash functions (`nh`), i.e. the signature width: at least 1
    /// and at most 65 536 — 32 × the largest count any `experiments` scale
    /// sweeps (2 000), and what bounds every allocation an index file's
    /// header can ask for before its bytes back it.
    pub num_hash_functions: u32,
    /// Seed of the hash family (the index is fully deterministic given the seed).
    pub hash_seed: u64,
    /// Size of the hash range; `None` derives it from the dataset as
    /// `|base units| × |time units|`, the paper's `[0, |S|-1]` range.
    pub hash_range: Option<u64>,
    /// How coarse-cell hashes are computed.
    pub hasher_mode: HasherMode,
}

impl Default for IndexConfig {
    fn default() -> Self {
        IndexConfig {
            num_hash_functions: 128,
            hash_seed: 0x5EED_CAFE,
            hash_range: None,
            hasher_mode: HasherMode::PathMax,
        }
    }
}

/// The ceiling of [`IndexConfig::num_hash_functions`].
const MAX_HASH_FUNCTIONS: u32 = 1 << 16;

impl IndexConfig {
    /// A configuration with a specific number of hash functions and defaults for
    /// everything else.
    pub fn with_hash_functions(num_hash_functions: u32) -> Self {
        IndexConfig { num_hash_functions, ..IndexConfig::default() }
    }

    /// Validates the configuration.
    pub(crate) fn validate(&self) -> Result<()> {
        if self.num_hash_functions == 0 {
            return Err(IndexError::InvalidConfig("num_hash_functions must be positive".into()));
        }
        if self.num_hash_functions > MAX_HASH_FUNCTIONS {
            return Err(IndexError::InvalidConfig(format!(
                "num_hash_functions is {} but may not exceed {MAX_HASH_FUNCTIONS}",
                self.num_hash_functions
            )));
        }
        if let Some(range) = self.hash_range {
            if range < 2 {
                return Err(IndexError::InvalidConfig("hash_range must be at least 2".into()));
            }
        }
        Ok(())
    }
}

/// The latency budget of a sharded query.
///
/// Planning has no knobs: the planner always consumes the per-shard
/// [`Synopsis`](crate::synopsis::Synopsis) to seed a threshold and skip
/// shards **before** any scan, and none of that can change an answer —
/// seeding and skipping rest on strict-inequality certificates, and every
/// admitted shard's flat scan is exact (`tests/planner_conformance.rs`
/// proptests this).  The budget does not enter the plan at all: a budgeted
/// query is planned exactly like an unbudgeted one.
///
/// The budget is a deadline.  Setting
/// [`latency_budget_us`](Self::latency_budget_us) authorises the drive to
/// *degrade* — a shard whose scan is picked up after the deadline is
/// answered by a deterministic sampled scan at its
/// [`recall_floor`](Self::recall_floor) rate instead.  Degradation is never
/// silent ([`QueryStats::degradation`] reports exactly what was sampled),
/// never samples below the floor's expected recall, and never touches a
/// scan started before the deadline — a query that finishes within its
/// budget answers bitwise like the unbudgeted one
/// (`tests/deadline_conformance.rs` proptests this with a budget no query
/// reaches).
///
/// [`QueryStats::degradation`]: crate::stats::QueryStats::degradation
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlannerConfig {
    /// Per-query latency budget in microseconds, measured from before
    /// planning; `None` (the default) has no deadline — every scan is exact.
    /// `Some(b)` makes `b` a deadline: a shard whose scan is picked up after
    /// it is sampled instead (see [`recall_floor`](Self::recall_floor)).
    pub latency_budget_us: Option<u64>,
    /// The expected recall a shard sampled past the deadline is scanned at:
    /// its rate is the smallest whose `Synopsis::expected_scan_recall` meets
    /// this floor, and a shard that needs rate 1.0 for it stays exact.
    /// Irrelevant while [`latency_budget_us`](Self::latency_budget_us) is
    /// `None`.  Must lie in `[0, 1]`.
    pub recall_floor: f64,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig { latency_budget_us: None, recall_floor: 0.9 }
    }
}

impl PlannerConfig {
    /// The default planner with a per-query latency budget, in microseconds.
    pub fn with_budget(latency_budget_us: u64) -> Self {
        PlannerConfig { latency_budget_us: Some(latency_budget_us), ..PlannerConfig::default() }
    }

    /// The default planner with a latency budget and an explicit recall floor.
    pub fn with_budget_and_floor(latency_budget_us: u64, recall_floor: f64) -> Self {
        PlannerConfig { latency_budget_us: Some(latency_budget_us), recall_floor }
    }

    /// Validates the configuration.
    pub(crate) fn validate(&self) -> Result<()> {
        if !(0.0..=1.0).contains(&self.recall_floor) {
            return Err(IndexError::InvalidConfig("recall_floor must lie in [0, 1]".into()));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        assert!(IndexConfig::default().validate().is_ok());
        assert_eq!(IndexConfig::default().hasher_mode, HasherMode::PathMax);
    }

    #[test]
    fn planner_budget_constructors_and_validation() {
        let p = PlannerConfig::default();
        assert_eq!(p.latency_budget_us, None, "no deadline machinery by default");
        assert!(p.validate().is_ok());
        let b = PlannerConfig::with_budget(5_000);
        assert_eq!(b.latency_budget_us, Some(5_000));
        assert_eq!(b.recall_floor, p.recall_floor, "budgeting keeps the default floor");
        let f = PlannerConfig::with_budget_and_floor(5_000, 0.75);
        assert_eq!((f.latency_budget_us, f.recall_floor), (Some(5_000), 0.75));
        assert!(f.validate().is_ok());
        assert!(PlannerConfig { recall_floor: 1.5, ..PlannerConfig::default() }
            .validate()
            .is_err());
        assert!(PlannerConfig { recall_floor: -0.1, ..PlannerConfig::default() }
            .validate()
            .is_err());
    }

    #[test]
    fn with_hash_functions_overrides_only_nh() {
        let c = IndexConfig::with_hash_functions(512);
        assert_eq!(c.num_hash_functions, 512);
        assert_eq!(c.hash_seed, IndexConfig::default().hash_seed);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        assert!(IndexConfig { num_hash_functions: 0, ..IndexConfig::default() }
            .validate()
            .is_err());
        assert!(IndexConfig { hash_range: Some(1), ..IndexConfig::default() }.validate().is_err());
        assert!(IndexConfig { hash_range: Some(100), ..IndexConfig::default() }.validate().is_ok());
    }
}
