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
    /// theorems need — while evaluation is `O(level)` per cell with no memo.
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

/// The scheduler knob of the cooperative sharded executor
/// ([`ShardedSnapshot`](crate::shard::ShardedSnapshot) query paths).
///
/// It cannot change an answer — every quantum returns the identical bitwise
/// top-k (`tests/shard_conformance.rs` proptests exactly this); it only moves
/// work counters and wall-clock time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SchedulerConfig {
    /// Frontier nodes each executor processes per scheduling quantum before
    /// yielding.  Smaller quanta interleave shards more finely — bounds
    /// propagate earlier — at a higher scheduling overhead.  Must be at
    /// least 1.
    pub step_quantum: usize,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig { step_quantum: 32 }
    }
}

impl SchedulerConfig {
    /// A configuration with a specific step quantum.
    pub fn with_step_quantum(step_quantum: usize) -> Self {
        SchedulerConfig { step_quantum }
    }

    /// Validates the configuration.
    pub(crate) fn validate(&self) -> Result<()> {
        if self.step_quantum == 0 {
            return Err(IndexError::InvalidConfig("step_quantum must be at least 1".into()));
        }
        Ok(())
    }
}

/// Knobs of the cost-based sharded query planner ([`crate::plan`]).
///
/// The planner consumes the per-shard [`Synopsis`](crate::synopsis::Synopsis)
/// to seed the search bound, skip shards and pick per-shard access paths
/// **before** any tree traversal.  Like the scheduler knob, none of the
/// exact-planning knobs can change an answer — seeding and skipping rest on
/// strict-inequality certificates, and the flat scan is bitwise identical to
/// an exhausted tree search (`tests/planner_conformance.rs` proptests this);
/// they only move work counters and wall-clock time.
///
/// The **budget knobs** are different: setting
/// [`latency_budget_us`](Self::latency_budget_us) authorises the planner to
/// *degrade* — to answer shards whose exact cost does not fit the budget by
/// a deterministic sampled scan ([`ShardDecision::ApproximateScan`]) and to
/// downgrade still-unstarted shards when the per-query deadline expires
/// mid-flight.  Degradation is never silent ([`QueryStats::degradation`]
/// reports exactly what was sampled), never exceeds
/// [`recall_floor`](Self::recall_floor) in expectation, and **never occurs
/// when the exact plan fits the budget** — with an unset (or non-binding)
/// budget every answer stays bitwise identical to the unbudgeted plan
/// (`tests/deadline_conformance.rs` proptests this).
///
/// [`ShardDecision::ApproximateScan`]: crate::plan::ShardDecision::ApproximateScan
/// [`QueryStats::degradation`]: crate::stats::QueryStats::degradation
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlannerConfig {
    /// Score the shards' sketch entities exactly and publish their k-th-best
    /// degree as the initial search bound (a provable lower bound on the
    /// global k-th-best degree once `k` candidates are scored).
    pub seed_threshold: bool,
    /// Skip shards whose synopsis upper bound is strictly below the seeded
    /// threshold — provably outside the top-k, never opened.
    pub skip_shards: bool,
    /// Non-empty, fully resident shards holding at most this many entities
    /// are answered by the flat exact scan instead of a best-first tree
    /// search (same answers, no frontier bookkeeping).  0 scans no shard for
    /// being small (an empty shard is tree-searched; the executor no-ops on
    /// it).  The cutoff is one of the two conditions a shard scans on: a
    /// larger resident shard is scanned too when the plan is seeded and
    /// unbudgeted and the seed cannot prune one of its top-level subtrees
    /// (see [`ShardDecision::Scan`](crate::plan::ShardDecision::Scan)).
    pub scan_cutoff: usize,
    /// Per-query latency budget in microseconds; `None` (the default) turns
    /// all deadline machinery off — planning and execution are exactly the
    /// unbudgeted paths.  `Some(b)` makes the planner cost the exact plan
    /// (measured ns/degree × shard populations, plus cold-page I/O out of
    /// core) and downgrade the least promising shards to sampled scans until
    /// the estimate fits `b`; execution then enforces `b` as a hard deadline,
    /// downgrading any shard the clock overtakes.
    pub latency_budget_us: Option<u64>,
    /// The lowest expected recall a budget-forced sampled scan may be planned
    /// at (per shard): the planner never picks a sample rate whose
    /// `Synopsis::expected_scan_recall` falls below this floor, even when
    /// the budget asks for less work.  Irrelevant while
    /// [`latency_budget_us`](Self::latency_budget_us) is `None`.  Must lie in
    /// `[0, 1]`.
    ///
    pub recall_floor: f64,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig {
            seed_threshold: true,
            skip_shards: true,
            scan_cutoff: 32,
            latency_budget_us: None,
            recall_floor: 0.9,
        }
    }
}

impl PlannerConfig {
    /// The planner turned fully off: no seeding, no skipping, tree search
    /// everywhere — the PR 4 behaviour, kept as the measurable baseline.
    pub fn disabled() -> Self {
        PlannerConfig {
            seed_threshold: false,
            skip_shards: false,
            scan_cutoff: 0,
            ..PlannerConfig::default()
        }
    }

    /// The default planner with a per-query latency budget, in microseconds.
    pub fn with_budget(latency_budget_us: u64) -> Self {
        PlannerConfig { latency_budget_us: Some(latency_budget_us), ..PlannerConfig::default() }
    }

    /// The default planner with a latency budget and an explicit recall floor.
    pub fn with_budget_and_floor(latency_budget_us: u64, recall_floor: f64) -> Self {
        PlannerConfig {
            latency_budget_us: Some(latency_budget_us),
            recall_floor,
            ..PlannerConfig::default()
        }
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
    fn scheduler_defaults_are_cooperative_and_valid() {
        let s = SchedulerConfig::default();
        assert!(s.validate().is_ok());
        assert!(s.step_quantum >= 1);
        assert_eq!(SchedulerConfig::with_step_quantum(7).step_quantum, 7);
        assert!(SchedulerConfig::with_step_quantum(0).validate().is_err());
    }

    #[test]
    fn planner_defaults_plan_and_disabled_does_not() {
        let p = PlannerConfig::default();
        assert!(p.seed_threshold);
        assert!(p.skip_shards);
        assert!(p.scan_cutoff > 0);
        assert_eq!(p.latency_budget_us, None, "no deadline machinery by default");
        assert!(p.validate().is_ok());
        let off = PlannerConfig::disabled();
        assert!(!off.seed_threshold);
        assert!(!off.skip_shards);
        assert_eq!(off.scan_cutoff, 0);
        assert_eq!(off.latency_budget_us, None);
    }

    #[test]
    fn planner_budget_constructors_and_validation() {
        let b = PlannerConfig::with_budget(5_000);
        assert_eq!(b.latency_budget_us, Some(5_000));
        assert!(b.seed_threshold, "budgeting keeps the default exact planning on");
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
