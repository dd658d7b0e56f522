//! Statistics reported by index construction and query processing.

use serde::{Deserialize, Serialize};
use trace_model::kernel::KernelClass;

/// How many set intersections the flat (arena-backed) hot paths routed to
/// each kernel class, per query.
///
/// The dispatch decision is a pure function of the row lengths and the CPU
/// ([`trace_model::kernel::row_class`] where both rows are held in keyed form
/// too, [`trace_model::kernel::dispatch_class`] for packed rows alone), so
/// these counters are accounted *outside* the kernel itself — the fused
/// degree loop classifies each per-level intersection as it issues it (one
/// per level up to and including the first empty one; the finer levels of
/// such a pair are not intersected and not counted), and the hot loop
/// carries no atomic or branch overhead.  Only the arena-backed paths (flat
/// scans, the unsharded tree search's leaf evaluation and the arena-backed
/// paged source) count; owned-map fallback paths do not, so on mixed plans
/// the totals cover the flat portion of the work.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct KernelDispatch {
    /// Intersections taken by the branch-free tiny-set loop (both sides ≤
    /// [`trace_model::kernel::TINY_LEN`], or one side empty).
    pub tiny: u64,
    /// Intersections taken by the scalar two-pointer merge.
    pub merge: u64,
    /// Intersections taken by the galloping (skewed-size) kernel.
    pub gallop: u64,
    /// Intersections taken by the SIMD block kernel (where the CPU has AVX2).
    pub simd: u64,
    /// Intersections the keyed kernel answered
    /// ([`trace_model::kernel::keyed_overlap`], chosen by
    /// [`trace_model::kernel::row_class`] for rows held in both forms).
    pub keyed: u64,
}

impl KernelDispatch {
    /// Counts one intersection of the given kernel class.
    #[inline]
    pub(crate) fn record(&mut self, class: KernelClass) {
        match class {
            KernelClass::Tiny => self.tiny += 1,
            KernelClass::Merge => self.merge += 1,
            KernelClass::Gallop => self.gallop += 1,
            KernelClass::Simd => self.simd += 1,
            KernelClass::Keyed => self.keyed += 1,
        }
    }

    /// Accumulates another counter set into this one.
    #[inline]
    pub fn absorb(&mut self, other: KernelDispatch) {
        self.tiny += other.tiny;
        self.merge += other.merge;
        self.gallop += other.gallop;
        self.simd += other.simd;
        self.keyed += other.keyed;
    }

    /// Total intersections counted across all kernel classes.
    pub fn total(&self) -> u64 {
        self.tiny + self.merge + self.gallop + self.simd + self.keyed
    }
}

/// Statistics of one index build or update batch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct IndexStats {
    /// Number of entities indexed.
    pub num_entities: usize,
    /// Number of tree nodes (including the virtual root).
    pub num_nodes: usize,
    /// Estimated index size in bytes — **tree only**, the paper's Section 7.8
    /// accounting (what Figure 7.8 plots).  For the full resident footprint
    /// including per-entity signatures and sequences, use
    /// [`IndexSnapshot::resident_bytes`](crate::snapshot::IndexSnapshot::resident_bytes).
    pub index_bytes: usize,
    /// Number of hash evaluations performed while computing signatures (the
    /// dominant term of the Section 4.3 processor cost `O(|E|·C·m·nh)`):
    /// `nh` per cell of every hashed sequence.  In
    /// [`HasherMode::PathMax`](crate::config::HasherMode::PathMax) this is the
    /// number of base hashes drawn, one row of `nh` per cell.
    pub hash_evaluations: u64,
    /// Wall-clock build time in microseconds.
    pub build_time_us: u64,
}

/// Per-answer record of what the latency budget degraded — attached to
/// [`QueryStats::degradation`] whenever any shard of a query was answered by
/// a sampled scan instead of an exact one.  A shard is sampled only when its
/// scan was picked up after the query's deadline, so a report also says the
/// deadline expired.
///
/// `None` on [`QueryStats::degradation`] is the exactness certificate: no
/// shard was sampled, the answer is bitwise identical to the unbudgeted
/// plan.  When present, the report is **truthful by construction** — the
/// executing fan-out stamps it from the shards it actually sampled
/// (`tests/deadline_conformance.rs` proptests the reported set against the
/// executed one).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct DegradationReport {
    /// Shards answered by a sampled scan at their recall-floor rate, because
    /// the deadline had expired when their scan was picked up.
    pub shards_approximate: usize,
    /// Bitmask of the sampled shards' indices (bit `i` = shard `i` was
    /// answered approximately).  Covers the first 64 shards; larger
    /// deployments rely on the count.
    pub approximate_shard_mask: u64,
    /// The smallest sample rate any sampled shard ran at (1.0 when nothing
    /// was sampled).
    pub min_sample_rate: f64,
}

impl DegradationReport {
    /// Records one sampled shard into the report.
    pub(crate) fn record_shard(&mut self, shard: usize, rate: f64) {
        self.shards_approximate += 1;
        if shard < 64 {
            self.approximate_shard_mask |= 1u64 << shard;
        }
        if self.shards_approximate == 1 {
            self.min_sample_rate = rate;
        } else {
            self.min_sample_rate = self.min_sample_rate.min(rate);
        }
    }

    /// Merges another report into this one (used by `absorb_work` when batch
    /// stats are summed): counts add, masks union, the minimum rate wins.
    pub(crate) fn merge(&mut self, other: &DegradationReport) {
        let had_any = self.shards_approximate > 0;
        self.shards_approximate += other.shards_approximate;
        self.approximate_shard_mask |= other.approximate_shard_mask;
        self.min_sample_rate = if had_any {
            self.min_sample_rate.min(other.min_sample_rate)
        } else {
            other.min_sample_rate
        };
    }
}

/// Statistics of one top-k query (Definition 5 and the complement convention used
/// throughout the experiment harness), instrumented down to the tree
/// search's frontier: how many subtrees were visited and how many were
/// pruned against the k-th-best degree.
///
/// On a sharded query the counters are the **sums over every per-shard
/// scan** plus the planner's seeding.  A sharded query opens no tree, so its
/// [`nodes_visited`](Self::nodes_visited), [`steps`](Self::steps) and
/// [`bound_updates`](Self::bound_updates) read 0.  A scan prunes against its
/// own top k only, so the whole work record — every field but the
/// wall-clock [`planning_us`](Self::planning_us) and
/// [`query_time_us`](Self::query_time_us) — is independent of the schedule:
/// a query fanned out over workers
/// ([`ShardedSnapshot::query`](crate::shard::ShardedSnapshot::query)) counts
/// what the same query counts on one thread
/// ([`query_batch`](crate::shard::ShardedSnapshot::query_batch)).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QueryStats {
    /// Total number of indexed entities (`|E|`).
    pub total_entities: usize,
    /// Requested result size `k`.
    pub k: usize,
    /// Tree nodes popped from the candidate queue and expanded or evaluated.
    pub nodes_visited: usize,
    /// Leaf nodes whose entities were evaluated exactly.
    pub leaves_visited: usize,
    /// Entities whose exact association degree was computed (`|E'|`).
    pub entities_checked: usize,
    /// Candidate subtrees discarded because their upper bound could no longer
    /// beat the best known k-th degree — work the bound saved.  Every queued candidate is eventually counted either here or in
    /// [`nodes_visited`](Self::nodes_visited).
    pub subtrees_pruned: usize,
    /// Always 0: no search shares a bound it could raise.  The field stays
    /// only because the benchmark harness still reports it.
    pub bound_updates: u64,
    /// Tree searches run: 1 for an unsharded query with `k > 0` (the search
    /// runs to completion in one sweep), 0 for `k = 0` and for sharded
    /// queries, which open no tree.
    pub steps: usize,
    /// Shards the query planner proved could not contribute to the top-k and
    /// therefore never opened (sharded planned queries only; see
    /// [`crate::plan`]).  On a batch, sums over the batch's queries.
    pub shards_skipped: usize,
    /// Shards the planner answered by a flat scan — every admitted shard
    /// ([`ShardDecision::Scan`]; sharded planned queries only), exact or,
    /// past a latency budget's deadline, sampled.  Every member they score is in
    /// [`entities_checked`](Self::entities_checked) — those sharing a
    /// level-1 cell with the query, and the others only while they could
    /// still enter the shard's top k — and none of their tree rows in
    /// [`nodes_visited`](Self::nodes_visited).  On a batch, sums over the
    /// batch's queries.
    ///
    /// [`ShardDecision::Scan`]: crate::plan::ShardDecision::Scan
    pub shards_scanned: usize,
    /// True when the planner seeded the search bound with a provable
    /// k-th-degree lower bound before any traversal (sharded planned queries
    /// only).
    pub threshold_seeded: bool,
    /// Simulated I/O latency accumulated while reading candidate traces
    /// (paged queries only), in microseconds.
    pub simulated_io_us: u64,
    /// Buffer-pool hits (paged queries only).  Like the other pool counters
    /// this is counted fetch by fetch in the query's own sources (what each
    /// of *its* page requests did), so it is exact per query however many
    /// queries share the pool, and the counters of concurrent queries sum to
    /// the pool-global delta.
    pub pool_hits: u64,
    /// Buffer-pool misses of this query's own page requests (paged queries
    /// only).
    pub pool_misses: u64,
    /// Frames this query's own misses evicted (paged queries only).
    pub pool_evictions: u64,
    /// Candidates a paged query scored without reading a page: a scanned
    /// member sharing no level-2 cell with the query, whose level-1 and
    /// level-2 overlaps the resident postings counted, or a seed candidate
    /// sharing no level-1 cell, whose resident level-1 row says so
    /// — either way the per-level sizes fix its exact degree (paged queries
    /// only; always 0 in memory, where nothing is read).  Summed like the
    /// pool counters; every one is also in
    /// [`entities_checked`](Self::entities_checked).
    pub reads_avoided: usize,
    /// Per-kernel dispatch counts of the flat hot paths' set intersections
    /// (see [`KernelDispatch`]); sums over every per-shard scan.
    pub kernel_dispatch: KernelDispatch,
    /// Expected recall of the answer.  Exactly `1.0` on every exact path
    /// (the default); below `1.0` when the deadline sampled at least one
    /// shard, in which case the minimum over the sampled shards'
    /// `Synopsis::expected_scan_recall` is reported.
    /// [`absorb_work`](Self::absorb_work) likewise combines estimates by
    /// taking the minimum.
    ///
    /// An expectation over queries, not a bound on this one: the model
    /// assumes the top k sit in a shard like any of its members, so a query
    /// whose partners the hot sketch misses recalls less (on the
    /// 5 000-entity SYN population at floor 0.9, with every shard sampled,
    /// 61 of 200 queries measured below it).
    pub recall_estimate: f64,
    /// Entities scored through a *sampled* access path: the members a
    /// sampled shard scan drew.  Always ≤
    /// [`entities_checked`](Self::entities_checked) (sampled scores are also
    /// exact degree computations and count in both).
    pub sampled_candidates: usize,
    /// What the latency budget degraded, if anything.  `None` (the
    /// default) is the exactness certificate: every shard ran an exact
    /// access path and the answer is bitwise identical to the unbudgeted
    /// plan.  See [`DegradationReport`].
    pub degradation: Option<DegradationReport>,
    /// Wall-clock time the planner spent building this query's
    /// [`QueryPlan`](crate::plan::QueryPlan) (seeding, skipping, ordering),
    /// in microseconds — in a batch too, each row its own query's; summed by
    /// [`absorb_work`](Self::absorb_work) into a batch's total planning cost.
    pub planning_us: u64,
    /// Wall-clock query time in microseconds.
    pub query_time_us: u64,
}

impl Default for QueryStats {
    fn default() -> Self {
        QueryStats {
            total_entities: 0,
            k: 0,
            nodes_visited: 0,
            leaves_visited: 0,
            entities_checked: 0,
            subtrees_pruned: 0,
            bound_updates: 0,
            steps: 0,
            shards_skipped: 0,
            shards_scanned: 0,
            threshold_seeded: false,
            simulated_io_us: 0,
            pool_hits: 0,
            pool_misses: 0,
            pool_evictions: 0,
            reads_avoided: 0,
            kernel_dispatch: KernelDispatch::default(),
            // An answer is exact until some sampled path says otherwise.
            recall_estimate: 1.0,
            sampled_candidates: 0,
            degradation: None,
            planning_us: 0,
            query_time_us: 0,
        }
    }
}

impl QueryStats {
    /// Definition 5: `(|E'| - k) / |E|` — the fraction of entities that had to be
    /// checked beyond the k returned ones (lower is better).
    pub fn fraction_checked(&self) -> f64 {
        if self.total_entities == 0 {
            return 0.0;
        }
        let extra = self.entities_checked.saturating_sub(self.k);
        extra as f64 / self.total_entities as f64
    }

    /// The complement of [`fraction_checked`](Self::fraction_checked): the
    /// fraction of entities pruned (higher is better).  This is the "PE" reported
    /// by the experiment harness, matching the prose convention that high PE is
    /// good.
    pub fn pruning_effectiveness(&self) -> f64 {
        (1.0 - self.fraction_checked()).clamp(0.0, 1.0)
    }

    /// Adds buffer-pool counters (what one of this query's sources did) to
    /// the query's totals.
    pub(crate) fn absorb_io(&mut self, io: trace_storage::PoolStats) {
        self.pool_hits += io.hits;
        self.pool_misses += io.misses;
        self.pool_evictions += io.evictions;
        self.simulated_io_us += io.simulated_us;
    }

    /// Accumulates another search's work counters into this one (used to sum
    /// a batch's stats).  `planning_us` adds up to the batch's total planning
    /// time; `query_time_us` is left alone because concurrent searches'
    /// times overlap.
    pub fn absorb_work(&mut self, other: &QueryStats) {
        self.total_entities += other.total_entities;
        self.nodes_visited += other.nodes_visited;
        self.leaves_visited += other.leaves_visited;
        self.entities_checked += other.entities_checked;
        self.subtrees_pruned += other.subtrees_pruned;
        self.bound_updates += other.bound_updates;
        self.steps += other.steps;
        self.shards_skipped += other.shards_skipped;
        self.shards_scanned += other.shards_scanned;
        self.threshold_seeded |= other.threshold_seeded;
        self.simulated_io_us += other.simulated_io_us;
        self.pool_hits += other.pool_hits;
        self.pool_misses += other.pool_misses;
        self.pool_evictions += other.pool_evictions;
        self.reads_avoided += other.reads_avoided;
        self.kernel_dispatch.absorb(other.kernel_dispatch);
        self.recall_estimate = self.recall_estimate.min(other.recall_estimate);
        self.sampled_candidates += other.sampled_candidates;
        self.planning_us += other.planning_us;
        if let Some(theirs) = &other.degradation {
            match &mut self.degradation {
                Some(mine) => mine.merge(theirs),
                None => self.degradation = Some(*theirs),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fractions_are_consistent() {
        let stats = QueryStats {
            total_entities: 1000,
            k: 10,
            entities_checked: 110,
            ..QueryStats::default()
        };
        assert!((stats.fraction_checked() - 0.1).abs() < 1e-12);
        assert!((stats.pruning_effectiveness() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn degenerate_cases_do_not_divide_by_zero() {
        let empty = QueryStats::default();
        assert_eq!(empty.fraction_checked(), 0.0);
        assert_eq!(empty.pruning_effectiveness(), 1.0);
        // Checking fewer than k entities (tiny datasets) never goes negative.
        let tiny =
            QueryStats { total_entities: 5, k: 10, entities_checked: 5, ..QueryStats::default() };
        assert_eq!(tiny.fraction_checked(), 0.0);
    }

    #[test]
    fn checking_everything_gives_zero_pe() {
        let stats = QueryStats {
            total_entities: 100,
            k: 0,
            entities_checked: 100,
            ..QueryStats::default()
        };
        assert!((stats.pruning_effectiveness() - 0.0).abs() < 1e-12);
    }

    #[test]
    fn absorb_work_sums_counters_but_not_wall_clock() {
        let mut a = QueryStats {
            nodes_visited: 3,
            subtrees_pruned: 1,
            bound_updates: 2,
            steps: 1,
            query_time_us: 10,
            ..QueryStats::default()
        };
        let b = QueryStats {
            nodes_visited: 5,
            subtrees_pruned: 4,
            bound_updates: 1,
            steps: 2,
            shards_skipped: 3,
            shards_scanned: 2,
            threshold_seeded: true,
            pool_hits: 7,
            pool_misses: 2,
            pool_evictions: 1,
            simulated_io_us: 40,
            reads_avoided: 6,
            kernel_dispatch: KernelDispatch { tiny: 1, merge: 2, gallop: 3, simd: 4, keyed: 5 },
            query_time_us: 99,
            ..QueryStats::default()
        };
        a.absorb_work(&b);
        assert_eq!(a.nodes_visited, 8);
        assert_eq!(a.subtrees_pruned, 5);
        assert_eq!(a.bound_updates, 3);
        assert_eq!(a.steps, 3);
        assert_eq!((a.shards_skipped, a.shards_scanned), (3, 2));
        assert!(a.threshold_seeded, "seeding anywhere in the batch is recorded");
        assert_eq!(
            (a.pool_hits, a.pool_misses, a.pool_evictions, a.simulated_io_us),
            (7, 2, 1, 40),
            "pool counters sum across absorbed shards"
        );
        assert_eq!(a.reads_avoided, 6, "avoided reads sum like the pool counters");
        assert_eq!(a.query_time_us, 10, "wall clock is not summed");
        assert_eq!(
            a.kernel_dispatch,
            KernelDispatch { tiny: 1, merge: 2, gallop: 3, simd: 4, keyed: 5 },
            "kernel dispatch counters sum across absorbed shards"
        );
    }

    #[test]
    fn default_stats_are_an_exact_answer() {
        let stats = QueryStats::default();
        assert_eq!(stats.recall_estimate, 1.0);
        assert_eq!(stats.sampled_candidates, 0);
        assert_eq!(stats.degradation, None);
        assert_eq!(stats.planning_us, 0);
    }

    #[test]
    fn absorb_work_combines_degradation_conservatively() {
        let mut exact = QueryStats::default();
        let mut report = DegradationReport::default();
        report.record_shard(2, 0.5);
        report.record_shard(3, 0.25);
        let degraded = QueryStats {
            recall_estimate: 0.8,
            sampled_candidates: 40,
            degradation: Some(report),
            planning_us: 7,
            ..QueryStats::default()
        };
        exact.absorb_work(&degraded);
        assert_eq!(exact.recall_estimate, 0.8, "recall combines by minimum");
        assert_eq!(exact.sampled_candidates, 40);
        assert_eq!(exact.planning_us, 7);
        let merged = exact.degradation.expect("degradation propagates through absorb");
        assert_eq!(merged.shards_approximate, 2);
        assert_eq!(merged.approximate_shard_mask, 0b1100);
        assert_eq!(merged.min_sample_rate, 0.25);

        // Absorbing a second degraded query merges the two reports.
        let mut other_report = DegradationReport::default();
        other_report.record_shard(0, 0.75);
        let other = QueryStats {
            recall_estimate: 0.9,
            degradation: Some(other_report),
            ..QueryStats::default()
        };
        exact.absorb_work(&other);
        let merged = exact.degradation.unwrap();
        assert_eq!(merged.shards_approximate, 3);
        assert_eq!(merged.approximate_shard_mask, 0b1101);
        assert_eq!(merged.min_sample_rate, 0.25, "minimum rate survives the merge");
        assert_eq!(exact.recall_estimate, 0.8, "minimum recall survives the merge");
    }

    #[test]
    fn degradation_report_counts_and_mask() {
        let mut r = DegradationReport::default();
        assert_eq!(r.shards_approximate, 0);
        r.record_shard(1, 0.5);
        r.record_shard(70, 0.1);
        assert_eq!(r.shards_approximate, 2);
        assert_eq!(r.approximate_shard_mask, 0b10, "shards past 64 rely on the counts");
        assert_eq!(r.min_sample_rate, 0.1);
    }

    #[test]
    fn kernel_dispatch_records_and_totals() {
        let mut d = KernelDispatch::default();
        d.record(KernelClass::Tiny);
        d.record(KernelClass::Merge);
        d.record(KernelClass::Merge);
        d.record(KernelClass::Gallop);
        d.record(KernelClass::Simd);
        d.record(KernelClass::Keyed);
        assert_eq!(d, KernelDispatch { tiny: 1, merge: 2, gallop: 1, simd: 1, keyed: 1 });
        let mut sum = d;
        sum.absorb(d);
        assert_eq!(sum.total(), 12);
    }
}
