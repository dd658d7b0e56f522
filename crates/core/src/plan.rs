//! Cost-based planning for sharded top-k queries.
//!
//! A sharded query without a plan would score every shard from a cold top-k
//! threshold.  The planner consumes the per-shard [`Synopsis`] *before* any
//! scoring:
//!
//! 1. **threshold seeding** — the exact degrees of the shards' sketch
//!    entities are computed against the query; once `k` real candidates are
//!    scored, their k-th best degree is a provable lower bound on the global
//!    k-th-best degree `G` (any `≥ k`-subset's k-th best is `≤ G`), and the
//!    search starts from that bar instead of `-inf`;
//! 2. **shard skipping** — a shard whose synopsis
//!    `degree_upper_bound` is *strictly
//!    below* the seed provably holds no top-k entity (every member's degree
//!    `≤ upper < seed ≤ G`), so the query never touches it — the same
//!    certain-answer separation the consistent-query-answering literature
//!    applies to repairs, applied to shards;
//! 3. **admission ordering** — admitted shards are driven
//!    most-promising-first (synopsis upper bound descending), so when a
//!    deadline cuts the query short the work already spent went where the
//!    answer most likely is.
//!
//! Every admitted shard is answered by the flat exact scan
//! ([`ShardDecision::Scan`]): it reads every member's level-1 and level-2
//! overlaps from the shard's postings and scores the members sharing no
//! level-1 cell only while they can still enter its top k, which rules out
//! what a best-first tree search would prune, without the frontier.  The
//! tree search is the unsharded index's.
//!
//! Every query is planned this way; there is no switch that turns a
//! decision off.  None of them can change an answer: seeding and skipping
//! are justified by the strict-pruning argument above (ties at `G` survive
//! because both comparisons are strict), ordering moves only cost, and the
//! flat scan is exact.  `tests/planner_conformance.rs` proptests exactly
//! this, over arbitrary shard counts and sketch sizes.  The data decides how
//! much each decision does: sketch size 0, or a `k` above the sketch
//! candidates of all shards together, leaves the plan unseeded — nothing
//! skipped, every shard scanned.
//!
//! ## Out of core: costs in pages
//!
//! One planner body (`plan_query`) serves the in-memory and the paged
//! paths, and makes the same decisions on both, at any pool residency: a
//! paged scan reads the row pages of only the members it scores that share
//! a level-2 cell with the query (the others are scored from the snapshot's
//! resident postings, or skipped, see [`crate::paged`]).  Where the query's
//! access reports a [`PageEstimate`] per shard, it does two things:
//! upper-bound ties in the driving order break by `cold_pages` ascending,
//! and the latency budget prices cold pages at the pool's miss latency.
//! Estimates are advisory (residency moves under concurrency), which is why
//! they never touch a decision that could change an answer — plans return
//! bitwise-identical answers whatever the access
//! (`tests/paged_conformance.rs`).
//!
//! ## Latency budgets and the approximate arm
//!
//! With [`PlannerConfig::latency_budget_us`] set, the planner additionally
//! acts as a QoS mechanism: it **costs** the exact plan — per-degree
//! nanoseconds calibrated from the seeding pass it just timed (real degree
//! evaluations over this very query), plus cold-page I/O out of core — and,
//! when the estimate exceeds the budget, downgrades the *least promising*
//! admitted shards to [`ShardDecision::ApproximateScan`]: a deterministic
//! sampled flat scan that always scores the shard's hot-sketch entities and
//! includes each remaining member with probability `rate`
//! (`sample_includes` is a pure hash of the entity id, so the sample is
//! identical across runs and machines).  The rate is never chosen below what
//! `Synopsis::min_rate_for_recall` demands for
//! [`PlannerConfig::recall_floor`], and a shard whose floor rate reaches 1.0
//! simply stays exact.  **A plan whose exact cost fits the budget is never
//! degraded** — exactness is the default, approximation the forced
//! exception, and an unset budget skips all of this machinery bit-for-bit.
//!
//! ## Batch planning
//!
//! [`plan_batch`] plans a whole batch in one pass — per-shard sketch
//! positions are resolved against the arenas **once** — and groups the
//! per-query plans by admitted-shard *footprint* into [`BatchGroup`]s; see
//! [`BatchPlan`] for why batch-planned plans, and therefore answers, are
//! identical to per-query planning.
//!
//! The plan itself is a first-class value: [`ShardedSnapshot::explain`]
//! returns the [`QueryPlan`] without executing it, and
//! [`QueryPlan::explain`] renders it for humans.
//!
//! [`plan_batch`]: crate::shard::ShardedSnapshot::plan_batch
//! [`ShardedSnapshot::explain`]: crate::shard::ShardedSnapshot::explain
//! [`PlannerConfig::latency_budget_us`]: crate::config::PlannerConfig::latency_budget_us
//! [`PlannerConfig::recall_floor`]: crate::config::PlannerConfig::recall_floor

use crate::config::PlannerConfig;
use crate::drive::ShardAccess;
use crate::engine::TopKHeap;
use crate::kernel::QueryView;
use crate::query::Query;
use crate::shard::ArenaAccess;
use crate::snapshot::IndexSnapshot;
use crate::synopsis::Synopsis;
use std::fmt::Write as _;
use std::sync::Arc;
use trace_model::{AssociationMeasure, EntityId, LevelOverlap};

/// How the planner decided to treat one shard.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ShardDecision {
    /// The shard's synopsis upper bound cannot beat the seeded threshold:
    /// provably no top-k entity lives there, so the query never opens it.
    /// (An empty shard's bound is `-inf`, so any seeded query proves it
    /// away; unseeded, it is scanned — a scan of nothing.)
    Skip,
    /// The shard is answered by a flat exact scan, in memory and out of core
    /// alike: every admitted shard the budget leaves exact.
    Scan,
    /// The exact plan does not fit the latency budget: the shard is answered
    /// by a **deterministic sampled scan** — every hot-sketch entity plus
    /// each remaining member with probability `rate` (a pure hash of the
    /// entity id, `sample_includes`) is scored exactly; the rest are never
    /// touched.  The only decision that can change an answer, which is why
    /// it is taken only under an explicit
    /// [`latency_budget_us`](crate::config::PlannerConfig::latency_budget_us)
    /// and always reported through
    /// [`QueryStats::degradation`](crate::stats::QueryStats::degradation).
    ApproximateScan {
        /// Inclusion probability of each non-sketch member, in `(0, 1)`;
        /// chosen as the larger of the budget-derived rate and the
        /// [`recall_floor`](crate::config::PlannerConfig::recall_floor)'s
        /// minimum rate (a rate reaching 1.0 stays exact instead).
        rate: f64,
    },
}

/// A shard's page-residency estimate at plan time: how many distinct store
/// pages its members' traces span, and how many of those were resident in
/// the buffer pool when the plan was built.
///
/// Estimates feed the paged planner's I/O reasoning — [`cold_pages`]
/// breaks shard-ordering ties and is priced by the latency budget — and are
/// **advisory only**: residency can change the instant the plan runs, so no
/// decision built on an estimate may affect an answer, only cost.
///
/// [`cold_pages`]: PageEstimate::cold_pages
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageEstimate {
    /// Distinct store pages holding this shard's traces.
    pub total_pages: usize,
    /// How many of those were buffer-pool resident at plan time.
    pub resident_pages: usize,
}

impl PageEstimate {
    /// Pages a full shard read would have to fetch from disk (at plan time).
    pub fn cold_pages(&self) -> usize {
        self.total_pages.saturating_sub(self.resident_pages)
    }
}

/// The planner's verdict for one shard.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardPlan {
    /// Shard index in the sharded snapshot.
    pub shard: usize,
    /// Entities the shard holds.
    pub entities: usize,
    /// The synopsis upper bound on any member's degree against this query
    /// (`-inf` for an empty shard; never `+inf`).
    pub upper_bound: f64,
    /// What the executor does with the shard.
    pub decision: ShardDecision,
    /// Page-residency estimate; `None` only on in-memory plans.
    pub pages: Option<PageEstimate>,
}

/// The executable plan of one sharded top-k query: the seeded threshold plus
/// one [`ShardPlan`] per shard, admitted shards first in driving order
/// (synopsis upper bound descending, shard index ascending), skipped shards
/// last.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryPlan {
    /// Requested result size.
    pub k: usize,
    /// The seeded lower bound on the global k-th-best degree (`-inf` when
    /// fewer than `k` sketch candidates exist).
    pub seed: f64,
    /// How many sketch candidates were scored exactly to derive the seed.
    pub seed_candidates: usize,
    /// Per-shard verdicts; admitted shards first, in driving order.
    pub shards: Vec<ShardPlan>,
    /// The budget the plan was built under.
    pub planner: PlannerConfig,
}

impl QueryPlan {
    /// Number of shards the plan proves cannot contribute.
    pub fn shards_skipped(&self) -> usize {
        self.shards.iter().filter(|s| s.decision == ShardDecision::Skip).count()
    }

    /// Number of shards the plan answers by a flat exact scan.
    pub fn shards_scanned(&self) -> usize {
        self.shards.iter().filter(|s| s.decision == ShardDecision::Scan).count()
    }

    /// True when a threshold seed was derived (it decided which shards are
    /// skipped).
    pub fn seeded(&self) -> bool {
        self.seed > f64::NEG_INFINITY
    }

    /// The admitted shards in driving order (most promising first).
    pub fn admitted(&self) -> impl Iterator<Item = &ShardPlan> {
        self.shards.iter().filter(|s| s.decision != ShardDecision::Skip)
    }

    /// Renders the plan for humans: the seed, then one line per shard in
    /// plan order with its population, upper bound and decision.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "QueryPlan: k={}, seed={} ({} sketch candidates scored), \
             {} shard(s) admitted, {} skipped",
            self.k,
            if self.seeded() { format!("{:.6}", self.seed) } else { "none".to_string() },
            self.seed_candidates,
            self.shards.len() - self.shards_skipped(),
            self.shards_skipped(),
        );
        for plan in &self.shards {
            let decision = match plan.decision {
                ShardDecision::Scan => "scan".to_string(),
                ShardDecision::Skip if plan.entities == 0 => "skip (empty shard)".to_string(),
                ShardDecision::Skip => "skip (upper bound below seed)".to_string(),
                ShardDecision::ApproximateScan { rate } => {
                    format!("approximate-scan (rate={rate:.3}, budget-forced)")
                }
            };
            let pages = match plan.pages {
                Some(p) => format!(
                    " pages={} ({} resident, {} cold)",
                    p.total_pages,
                    p.resident_pages,
                    p.cold_pages()
                ),
                None => String::new(),
            };
            let _ = writeln!(
                out,
                "  shard {:>3}  entities={:<8} upper={:<12} {}{}",
                plan.shard,
                plan.entities,
                if plan.upper_bound == f64::NEG_INFINITY {
                    "-inf".to_string()
                } else {
                    format!("{:.6}", plan.upper_bound)
                },
                decision,
                pages,
            );
        }
        out
    }
}

/// Builds the plan of one query over the shards `access` reads — the one
/// planner body of the in-memory, out-of-core and batch paths.
///
/// Seed candidates are scored through the access (in memory: the candidate
/// arena; out of core: the same paged row reads and overlap loop the scans
/// run, so seeding honestly pays — and warms — buffer-pool I/O).  The
/// evaluations spent are recorded in
/// [`seed_candidates`](QueryPlan::seed_candidates); the drive charges them
/// to the query's `entities_checked`, because they are real candidate
/// evaluations.  The caller guarantees the query sequence matches the
/// shards' level count.
pub(crate) fn plan_query<'q, A, M>(access: &A, query: &Query<'_, M>) -> QueryPlan
where
    A: ShardAccess<'q>,
    M: AssociationMeasure + ?Sized,
{
    let shards = access.shards();
    let Query { k, measure, planner: config, .. } = *query;
    let query = access.sequence();
    let plan_start = std::time::Instant::now();
    let levels = query.num_levels() as u8;
    let query_sizes: Vec<usize> = (1..=levels).map(|l| query.level(l).len()).collect();

    // Threshold seeding: score the sketch candidates exactly; the heap's
    // threshold is -inf until k candidates are held, which is precisely the
    // soundness condition (fewer than k scored candidates prove nothing).
    let mut seed = f64::NEG_INFINITY;
    let mut seed_candidates = 0usize;
    if k > 0 {
        let mut top = TopKHeap::new(k);
        let mut scratch = LevelOverlap::default();
        for shard in 0..shards.len() {
            access.seed(shard, measure, &mut scratch, |hot, degree| {
                seed_candidates += 1;
                top.offer(hot, degree);
            });
        }
        seed = top.threshold();
    }

    let cold = |p: &ShardPlan| p.pages.map_or(0, |e| e.cold_pages());
    let mut admitted: Vec<ShardPlan> = Vec::with_capacity(shards.len());
    let mut skipped: Vec<ShardPlan> = Vec::new();
    for (i, shard) in shards.iter().enumerate() {
        let synopsis: &Synopsis = shard.synopsis();
        let entities = synopsis.num_entities();
        let upper_bound = synopsis.degree_upper_bound(&query_sizes, measure);
        // The skip certificate is strict, mirroring the scan's tie-complete
        // pruning: a shard *tying* the seed may hold an equal-degree entity
        // that enters the top-k through the id tie-break, so it is never
        // skipped.
        let decision = if seed > upper_bound { ShardDecision::Skip } else { ShardDecision::Scan };
        let plan = ShardPlan { shard: i, entities, upper_bound, decision, pages: access.pages(i) };
        if decision == ShardDecision::Skip {
            skipped.push(plan);
        } else {
            admitted.push(plan);
        }
    }
    // Most promising first; of equally promising shards, least cold I/O
    // first; ties by shard index for determinism.
    admitted.sort_by(|a, b| {
        b.upper_bound
            .total_cmp(&a.upper_bound)
            .then_with(|| cold(a).cmp(&cold(b)))
            .then_with(|| a.shard.cmp(&b.shard))
    });
    // Out of core the exact cost of a shard includes fetching its cold
    // pages at the pool's configured miss latency — the dominant term at
    // tight budgets, which is exactly when the budget pass matters.
    apply_latency_budget(
        &mut admitted,
        shards,
        &config,
        plan_start.elapsed().as_nanos(),
        seed_candidates,
        access.miss_latency_us(),
    );
    admitted.extend(skipped);
    QueryPlan { k, seed, seed_candidates, shards: admitted, planner: config }
}

/// Nanoseconds assumed per exact degree evaluation when the plan scored no
/// seed candidates to calibrate against (an empty sketch, or `k` = 0).
/// Deliberately on the measured path's high side: over-estimating exact cost
/// degrades a little too eagerly, which is the correct failure direction for
/// a latency promise.
pub(crate) const FALLBACK_NS_PER_DEGREE: u64 = 200;

/// Multiplier on the calibrated per-evaluation cost when pricing a *scan*
/// of a whole shard.  The calibration times the seeding pass, whose handful
/// of sketch evaluations run against warm arena rows; a streaming scan pays
/// cold rows on every step and measures several times slower.  Over-pricing
/// makes the budget pass degrade slightly too eagerly and sample slightly
/// too thin for the head-room — both land the query *under* its budget,
/// which is the correct failure direction for a latency promise.
pub(crate) const SCAN_COST_CONSERVATISM: u64 = 5;

/// The budget pass: downgrades the cheapest-to-lose suffix of the admitted
/// shards (they are already sorted most-promising-first) to sampled scans
/// until the cost estimate fits [`PlannerConfig::latency_budget_us`].
///
/// The exact cost of a shard is `entities × ns_per_degree` — the flat-scan
/// worst case — plus `cold_pages × miss_latency_us` out of core.  `ns_per_degree` is
/// calibrated from the seeding pass the planner just timed (`planning_ns`
/// over `seed_candidates` real evaluations of this very query) so the model
/// tracks the machine and the query's sequence sizes; with nothing to
/// calibrate against, [`FALLBACK_NS_PER_DEGREE`] applies.
///
/// Invariants, by construction: a plan whose total exact estimate fits the
/// budget is untouched (exactness when the budget is not binding); a
/// downgraded shard's rate is never below its synopsis'
/// [`min_rate_for_recall`](Synopsis::min_rate_for_recall) for the
/// configured floor; and a floor rate reaching 1.0 leaves the shard exact
/// (sampling everything *is* the exact scan, minus honesty).
///
/// `miss_latency_us` is 0 for in-memory plans.
fn apply_latency_budget(
    admitted: &mut [ShardPlan],
    shards: &[Arc<IndexSnapshot>],
    config: &PlannerConfig,
    planning_ns: u128,
    seed_candidates: usize,
    miss_latency_us: u64,
) {
    let Some(budget_us) = config.latency_budget_us else { return };
    let budget_ns = (budget_us as u128).saturating_mul(1_000);
    let ns_per_degree = if seed_candidates > 0 && planning_ns > 0 {
        ((planning_ns / seed_candidates as u128).max(1)).min(u64::MAX as u128) as u64
    } else {
        FALLBACK_NS_PER_DEGREE
    };
    // Planning time already spent counts against the budget: the deadline
    // the drive enforces starts at query arrival, not at plan end.
    let mut spent_ns = planning_ns;
    for plan in admitted.iter_mut() {
        let exact_ns = exact_cost_ns(plan, ns_per_degree, miss_latency_us);
        if spent_ns.saturating_add(exact_ns) <= budget_ns {
            spent_ns = spent_ns.saturating_add(exact_ns);
            continue;
        }
        // Over budget from here on: sample this shard at the cheapest rate
        // the head-room affords, floored by the recall promise.
        let synopsis: &Synopsis = shards[plan.shard].synopsis();
        let floor_rate = synopsis.min_rate_for_recall(config.recall_floor);
        let headroom = budget_ns.saturating_sub(spent_ns);
        let budget_rate = if exact_ns == 0 { 1.0 } else { headroom as f64 / exact_ns as f64 };
        let rate = budget_rate.max(floor_rate).clamp(0.0, 1.0);
        if rate >= 1.0 {
            // The recall floor forbids sampling thin enough to matter (or
            // the shard is free anyway): stay exact.
            spent_ns = spent_ns.saturating_add(exact_ns);
            continue;
        }
        plan.decision = ShardDecision::ApproximateScan { rate };
        spent_ns = spent_ns.saturating_add((exact_ns as f64 * rate) as u128);
    }
}

/// The planner's exact-cost estimate of one admitted shard, in nanoseconds.
/// The compute term carries [`SCAN_COST_CONSERVATISM`]: whole-shard
/// evaluation streams cold arena rows the warm seeding calibration cannot
/// see.
fn exact_cost_ns(plan: &ShardPlan, ns_per_degree: u64, miss_latency_us: u64) -> u128 {
    let compute =
        (plan.entities as u128) * ns_per_degree.saturating_mul(SCAN_COST_CONSERVATISM) as u128;
    let io =
        plan.pages.map_or(0u128, |p| p.cold_pages() as u128) * (miss_latency_us as u128) * 1_000;
    compute + io
}

/// Whether a deterministic sampled scan at `rate` includes `entity`: a
/// SplitMix64 finalizer over the salted id compared against `rate`'s slice
/// of the hash range.  Pure — the same entity is in or out of the sample at
/// a given rate on every run, every shard and every machine, which keeps
/// degraded answers reproducible.
pub(crate) fn sample_includes(entity: EntityId, rate: f64) -> bool {
    if rate >= 1.0 {
        return true;
    }
    if rate <= 0.0 {
        return false;
    }
    let mut z = entity.raw().wrapping_add(0xA0761D6478BD642F);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z as f64) < rate * (u64::MAX as f64)
}

/// Whether a flat scan scores `entity`: always when exact (`rate` `None`);
/// sampled, the shard's hot-sketch members `hot` plus whoever
/// [`sample_includes`] admits.  The sketch is small (`m ≤ 16`), so a linear
/// containment test beats hashing.
pub(crate) fn scan_admits(rate: Option<f64>, hot: &[EntityId], entity: EntityId) -> bool {
    rate.is_none_or(|rate| sample_includes(entity, rate) || hot.contains(&entity))
}

/// One group of a [`BatchPlan`]: the batch queries (by input index) whose
/// plans share an identical admitted-shard *footprint* — the same shards, in
/// the same driving order, under the same decisions.  Queries in one group
/// run the same scan skeleton; only their seeds and degrees differ.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchGroup {
    /// Indices into the batch's query slice, ascending.
    pub queries: Vec<usize>,
    /// The shared skeleton: `(shard index, decision)` in driving order.
    pub footprint: Vec<(usize, ShardDecision)>,
}

/// The amortized plan of one query batch: one [`QueryPlan`] per query (in
/// input order, each identical to what [`ShardedSnapshot::plan`]-per-query
/// would have produced) plus the footprint grouping the batch driver and
/// [`explain`](BatchPlan::explain) expose.
///
/// Amortization happens in *how* the plans are built, not in what they say:
/// every shard's hot-sketch entities are resolved to arena positions once
/// for the whole batch and every query's seeding loop reuses them, so
/// planning cost grows with `sketch × shards + batch × sketch` instead of
/// `batch × (sketch × shards)` lookups — while each query's seed is still
/// scored from its own degrees (a seed is only sound for the query it was
/// scored against), keeping batch plans bitwise identical to per-query
/// plans.
///
/// [`ShardedSnapshot::plan`]: crate::shard::ShardedSnapshot::explain
#[derive(Debug, Clone, PartialEq)]
pub struct BatchPlan {
    /// Per-query plans, in batch input order.
    pub plans: Vec<QueryPlan>,
    /// Footprint groups; within each group query indices ascend, and groups
    /// are ordered by their smallest query index.
    pub groups: Vec<BatchGroup>,
    /// Wall-clock time spent planning the whole batch, in microseconds.
    pub planning_us: u64,
}

impl BatchPlan {
    /// Renders the batch grouping for humans: one block per footprint group
    /// with its member queries and shared shard skeleton.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "BatchPlan: {} quer{} in {} footprint group(s), planned in {} us",
            self.plans.len(),
            if self.plans.len() == 1 { "y" } else { "ies" },
            self.groups.len(),
            self.planning_us,
        );
        for (g, group) in self.groups.iter().enumerate() {
            let _ = writeln!(
                out,
                "  group {:>3}  {} quer{}: {:?}",
                g,
                group.queries.len(),
                if group.queries.len() == 1 { "y" } else { "ies" },
                group.queries,
            );
            for &(shard, decision) in &group.footprint {
                let what = match decision {
                    ShardDecision::Scan => "scan".to_string(),
                    ShardDecision::Skip => "skip".to_string(),
                    ShardDecision::ApproximateScan { rate } => {
                        format!("approximate-scan (rate={rate:.3})")
                    }
                };
                let _ = writeln!(out, "             shard {shard:>3}  {what}");
            }
        }
        out
    }
}

/// A decision's footprint key: discriminant plus the rate's exact bits, so
/// approximate shards only group when their sample rates agree.
fn decision_key(decision: ShardDecision) -> (u8, u64) {
    match decision {
        ShardDecision::Skip => (0, 0),
        ShardDecision::Scan => (1, 0),
        ShardDecision::ApproximateScan { rate } => (2, rate.to_bits()),
    }
}

/// Plans a whole batch — `targets` holds each query entity with the view of
/// its sequence — in one pass; see [`BatchPlan`] for the amortization and
/// identity contracts.
pub(crate) fn plan_batch<M: AssociationMeasure + ?Sized>(
    shards: &[Arc<IndexSnapshot>],
    targets: &[(EntityId, QueryView<'_>)],
    query: &Query<'_, M>,
) -> BatchPlan {
    let batch_start = std::time::Instant::now();
    // The one-pass amortization: every shard's sketch ids are resolved
    // against its arena once, up front, instead of `sketch × shards` binary
    // searches per query.
    let sketch_positions = crate::shard::sketch_positions(shards);
    let plans: Vec<QueryPlan> = targets
        .iter()
        .map(|(entity, view)| {
            let access = ArenaAccess::new(shards, view, *entity, Some(&sketch_positions));
            plan_query(&access, query)
        })
        .collect();

    // Group by admitted footprint (ordered shard/decision skeleton).
    type FootprintKey = Vec<(usize, (u8, u64))>;
    let mut groups: Vec<BatchGroup> = Vec::new();
    let mut index: std::collections::HashMap<FootprintKey, usize> =
        std::collections::HashMap::new();
    for (q, plan) in plans.iter().enumerate() {
        let key: FootprintKey =
            plan.admitted().map(|s| (s.shard, decision_key(s.decision))).collect();
        match index.get(&key) {
            Some(&g) => groups[g].queries.push(q),
            None => {
                index.insert(key, groups.len());
                groups.push(BatchGroup {
                    queries: vec![q],
                    footprint: plan.admitted().map(|s| (s.shard, s.decision)).collect(),
                });
            }
        }
    }

    BatchPlan { plans, groups, planning_us: batch_start.elapsed().as_micros() as u64 }
}

#[cfg(test)]
impl QueryPlan {
    /// Number of shards the budget forced onto the sampled (approximate)
    /// access path.  0 whenever the exact plan fits the budget, and always
    /// with no budget set: every admitted shard then runs an exact access
    /// path and the answer is bitwise identical to the unbudgeted plan's.
    fn shards_approximate(&self) -> usize {
        self.shards
            .iter()
            .filter(|s| matches!(s.decision, ShardDecision::ApproximateScan { .. }))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::IndexConfig;
    use crate::testkit::{PairedConfig, Workload};

    fn shards_of(w: &Workload, n: usize) -> Vec<Arc<IndexSnapshot>> {
        let sharded = crate::shard::ShardedMinSigIndex::build(
            &w.sp,
            &w.traces,
            IndexConfig::with_hash_functions(16),
            n,
        )
        .unwrap();
        (0..n).map(|i| sharded.shard(i).snapshot()).collect()
    }

    /// Plans entity 0's query (`query` is its sequence) through the arenas.
    fn plan_of(
        shards: &[Arc<IndexSnapshot>],
        query: &trace_model::CellSetSequence,
        k: usize,
        w: &Workload,
        planner: PlannerConfig,
    ) -> QueryPlan {
        let measure = w.measure();
        plan_query(
            &ArenaAccess::new(shards, &QueryView::new(query), EntityId(0), None),
            &Query { planner, ..Query::new(k, &measure) },
        )
    }

    #[test]
    fn default_planner_seeds_and_orders_most_promising_first() {
        let w = Workload::paired(PairedConfig::default());
        let shards = shards_of(&w, 3);
        let query =
            shards.iter().find_map(|s| s.sequence(trace_model::EntityId(0))).unwrap().clone();
        let plan = plan_of(&shards, &query, 2, &w, PlannerConfig::default());
        assert!(plan.seeded(), "a 48-entity population seeds a k=2 query");
        assert!(plan.seed_candidates >= 2);
        let admitted: Vec<&ShardPlan> = plan.admitted().collect();
        for pair in admitted.windows(2) {
            assert!(pair[0].upper_bound >= pair[1].upper_bound, "driving order");
        }
        let text = plan.explain();
        assert!(text.contains("QueryPlan"));
        assert!(text.contains("shard"));
    }

    #[test]
    fn unbinding_budget_never_degrades_the_plan() {
        let w = Workload::paired(PairedConfig::default());
        let shards = shards_of(&w, 4);
        let query =
            shards.iter().find_map(|s| s.sequence(trace_model::EntityId(0))).unwrap().clone();
        let exact = plan_of(&shards, &query, 3, &w, PlannerConfig::default());
        let budgeted =
            plan_of(&shards, &query, 3, &w, PlannerConfig::with_budget(u64::MAX / 2_000));
        assert_eq!(
            budgeted.shards_approximate(),
            0,
            "a non-binding budget must not degrade anything"
        );
        let decisions =
            |p: &QueryPlan| p.shards.iter().map(|s| (s.shard, s.decision)).collect::<Vec<_>>();
        assert_eq!(decisions(&exact), decisions(&budgeted));
        assert_eq!(exact.seed, budgeted.seed);
    }

    #[test]
    fn binding_budget_degrades_with_the_floor_honored() {
        let w = Workload::paired(PairedConfig::default());
        let shards = shards_of(&w, 4);
        let query =
            shards.iter().find_map(|s| s.sequence(trace_model::EntityId(0))).unwrap().clone();
        // A 1 µs budget binds on any real population.
        let config = PlannerConfig::with_budget_and_floor(1, 0.5);
        let plan = plan_of(&shards, &query, 3, &w, config);
        assert!(
            plan.shards_approximate() > 0,
            "a 1 us budget must force sampling somewhere: {}",
            plan.explain()
        );
        for shard_plan in &plan.shards {
            if let ShardDecision::ApproximateScan { rate } = shard_plan.decision {
                let floor = shards[shard_plan.shard].synopsis().min_rate_for_recall(0.5);
                assert!(rate >= floor - 1e-12, "rate {rate} below floor rate {floor}");
                assert!(rate < 1.0, "rate 1.0 must stay exact instead");
                assert!(
                    shards[shard_plan.shard].synopsis().expected_scan_recall(rate) >= 0.5 - 1e-12
                );
            }
        }
        let text = plan.explain();
        assert!(text.contains("approximate-scan"), "explain renders the new arm: {text}");
    }

    #[test]
    fn strict_recall_floor_refuses_to_degrade() {
        let w = Workload::paired(PairedConfig::default());
        let shards = shards_of(&w, 2);
        let query =
            shards.iter().find_map(|s| s.sequence(trace_model::EntityId(0))).unwrap().clone();
        // recall_floor 1.0 ⇒ min rate 1.0 everywhere ⇒ sampling can never
        // help, so even an impossible budget leaves the plan exact.
        let config = PlannerConfig::with_budget_and_floor(1, 1.0);
        let plan = plan_of(&shards, &query, 3, &w, config);
        assert_eq!(plan.shards_approximate(), 0, "a 1.0 recall floor forbids all sampling");
    }

    #[test]
    fn batch_plans_equal_per_query_plans_and_group_by_footprint() {
        let w = Workload::paired(PairedConfig::default());
        let shards = shards_of(&w, 4);
        let measure = w.measure();
        let query = Query::new(3, &measure);
        let targets: Vec<(EntityId, QueryView<'_>)> = (0..6u64)
            .map(EntityId)
            .filter_map(|e| {
                shards.iter().find_map(|s| s.sequence(e)).map(|seq| (e, QueryView::new(seq)))
            })
            .collect();
        assert!(targets.len() >= 2, "the paired workload indexes the probe ids");
        let batch = plan_batch(&shards, &targets, &query);
        assert_eq!(batch.plans.len(), targets.len());
        for (i, (entity, view)) in targets.iter().enumerate() {
            let single = plan_query(&ArenaAccess::new(&shards, view, *entity, None), &query);
            assert_eq!(batch.plans[i], single, "batch plan {i} diverged from per-query planning");
        }
        // Groups partition the batch.
        let mut seen: Vec<usize> = batch.groups.iter().flat_map(|g| g.queries.clone()).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..targets.len()).collect::<Vec<_>>());
        let text = batch.explain();
        assert!(text.contains("BatchPlan"), "{text}");
        assert!(text.contains("group"), "{text}");
    }

    /// The three-way decision: a seeded plan skips or scans, an unseeded one
    /// (a synopsis with no sketch: nothing scored, nothing skipped) scans
    /// every shard, and a budgeted one adds only approximate scans — an
    /// unbinding budget none.  (Which shards skip is
    /// `tests/planner_conformance.rs`'s.)
    #[test]
    fn access_path_is_a_scan_on_every_admitted_shard() {
        use crate::testkit::UniformConfig;
        let w = Workload::uniform(UniformConfig { entities: 200, ..UniformConfig::default() });
        let shards = shards_of(&w, 4);
        let config = IndexConfig::with_hash_functions(16);
        let mut sketchless =
            crate::shard::ShardedMinSigIndex::build(&w.sp, &w.traces, config, 4).unwrap();
        sketchless.set_synopsis_sketch_size(0);
        let sketchless: Vec<_> = (0..4).map(|i| sketchless.shard(i).snapshot()).collect();
        for entity in w.sample_entities(12, 3) {
            let query = shards.iter().find_map(|s| s.sequence(entity)).unwrap().clone();
            let plan = plan_of(&shards, &query, 3, &w, PlannerConfig::default());
            assert!(plan.seeded());
            let scanned = plan.shards.len() - plan.shards_skipped();
            assert_eq!(plan.shards_scanned(), scanned, "{}", plan.explain());
            let unseeded = plan_of(&sketchless, &query, 3, &w, PlannerConfig::default());
            assert!(!unseeded.seeded());
            assert_eq!((unseeded.seed_candidates, unseeded.shards_skipped()), (0, 0));
            assert_eq!(unseeded.shards_scanned(), 4, "{}", unseeded.explain());
            let budgeted =
                plan_of(&shards, &query, 3, &w, PlannerConfig::with_budget(u64::MAX / 2_000));
            assert_eq!(budgeted.shards_scanned(), scanned, "{}", budgeted.explain());
        }
    }

    #[test]
    fn sampling_is_deterministic_and_tracks_the_rate() {
        let e = trace_model::EntityId(12345);
        assert!(sample_includes(e, 1.0));
        assert!(!sample_includes(e, 0.0));
        for rate in [0.1, 0.5, 0.9] {
            assert_eq!(sample_includes(e, rate), sample_includes(e, rate), "pure function");
        }
        // The empirical inclusion fraction tracks the rate on a large range.
        for rate in [0.25, 0.5, 0.75] {
            let hits =
                (0..10_000u64).filter(|&i| sample_includes(trace_model::EntityId(i), rate)).count();
            let fraction = hits as f64 / 10_000.0;
            assert!((fraction - rate).abs() < 0.05, "rate {rate} drew fraction {fraction}");
        }
    }
}
