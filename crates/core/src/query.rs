//! Top-k query results, options and the request value.
//!
//! The best-first search itself (Algorithm 2, Section 5.1) lives in
//! [`crate::engine`]; this module holds the vocabulary types shared by every
//! query path — [`TopKResult`], [`QueryOptions`] and the one request value
//! [`Query`].  A query sets three values: `k`, the measure and the latency
//! budget with its recall floor ([`PlannerConfig`]).  Everything else the
//! sharded drive does — seeding, skipping, scanning, the driving order — is
//! fixed, because none of it can change an exact answer.  The two pruning
//! ablations of [`QueryOptions`] belong to the unsharded tree search alone,
//! which takes them beside the query.

use crate::config::PlannerConfig;
use crate::error::Result;
use serde::{Deserialize, Serialize};
use trace_model::EntityId;

/// One answer of a top-k query.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TopKResult {
    /// The associated entity.
    pub entity: EntityId,
    /// Its association degree with the query entity.
    pub degree: f64,
}

/// The pruning ablations of the unsharded tree search
/// ([`IndexSnapshot::top_k_with_options`](crate::snapshot::IndexSnapshot::top_k_with_options),
/// [`top_k_for_sequence`](crate::snapshot::IndexSnapshot::top_k_for_sequence)
/// and [`JoinOptions::query`](crate::join::JoinOptions::query)); a sharded
/// query scans and has none.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueryOptions {
    /// Apply the per-level (depth-`d`) signature constraint in addition to the
    /// base-level Theorem-2 constraint.  Disabling it reproduces the looser
    /// "partial pruned set only" bound for ablation studies.
    pub use_level_constraints: bool,
    /// Accumulate constraints down a branch (children inherit their ancestors'
    /// caps).  Disabling it bounds each node independently, as a weaker ablation.
    pub accumulate_down_branch: bool,
}

impl Default for QueryOptions {
    fn default() -> Self {
        QueryOptions { use_level_constraints: true, accumulate_down_branch: true }
    }
}

/// One top-k query as every stage of planning and execution sees it: the
/// paper's `k` under an ADM, plus the one thing a caller may ask of the
/// search that answers it — a latency budget (`planner`).
///
/// [`Query::new`] is what the `top_k` conveniences run; set `planner` for a
/// budget and hand the value to [`ShardedSnapshot::query`] /
/// [`query_batch`](crate::shard::ShardedSnapshot::query_batch) (or their
/// [`PagedShardedSnapshot`](crate::paged::PagedShardedSnapshot) twins).
/// Exact planning — seed, skip, scan, driving order — and the schedule are
/// not settable: each is answer-invariant and always on.  The query entity
/// is an argument of the entry point, so one value serves a whole batch.
/// The unsharded tree search reads `k` and `measure`, with its
/// [`QueryOptions`] beside them.
///
/// [`ShardedSnapshot::query`]: crate::shard::ShardedSnapshot::query
#[derive(Debug)]
pub struct Query<'q, M: ?Sized> {
    /// Requested result size.
    pub k: usize,
    /// The association degree measure answers are ranked under.
    pub measure: &'q M,
    /// The latency budget a sharded query may degrade under past its
    /// deadline, and its recall floor.
    pub planner: PlannerConfig,
}

impl<'q, M: ?Sized> Query<'q, M> {
    /// The exact top-`k` query under `measure`: no budget.
    pub fn new(k: usize, measure: &'q M) -> Self {
        Query { k, measure, planner: PlannerConfig::default() }
    }

    /// Rejects a budget no search can run under.
    pub(crate) fn validate(&self) -> Result<()> {
        self.planner.validate()
    }
}

// By hand: deriving would demand `M: Clone`, and `M` may be unsized.
impl<M: ?Sized> Clone for Query<'_, M> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<M: ?Sized> Copy for Query<'_, M> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_options_enable_all_constraints() {
        let o = QueryOptions::default();
        assert!(o.use_level_constraints);
        assert!(o.accumulate_down_branch);
    }
}
