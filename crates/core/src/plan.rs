//! Cost-based planning for sharded top-k queries.
//!
//! A sharded query without a plan would score every shard from a cold top-k
//! threshold.  The planner consumes the per-shard [`Synopsis`] *before* any
//! scoring:
//!
//! 1. **threshold seeding** — every shard's synopsis upper bound is computed
//!    first; then, shard by shard in bound order (most promising first), the
//!    exact degrees of the shard's sketch entities are computed against the
//!    query.  Once `k` real candidates are scored, their k-th best degree is
//!    a provable lower bound on the global k-th-best degree `G` (any
//!    `≥ k`-subset's k-th best is `≤ G`), and the search starts from that bar
//!    instead of `-inf`.  A shard whose bound is already strictly below the
//!    running bar is not scored at all: none of its members could enter the
//!    k best, so the seed is bit for bit the one scoring every sketch gives;
//! 2. **shard skipping** — a shard whose synopsis
//!    `degree_upper_bound` is *strictly
//!    below* the seed provably holds no top-k entity (every member's degree
//!    `≤ upper < seed ≤ G`), so the query never touches it — the same
//!    certain-answer separation the consistent-query-answering literature
//!    applies to repairs, applied to shards;
//! 3. **admission ordering** — admitted shards are driven
//!    most-promising-first (synopsis upper bound descending, then shard
//!    index), so when a deadline cuts the query short the work already spent
//!    went where the answer most likely is.
//!
//! Every admitted shard is answered by the flat scan
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
//! ## Out of core
//!
//! One planner body (`plan_query`) serves the in-memory and the paged
//! paths, and makes the same decisions on both, at any pool residency: a
//! paged scan reads the row pages of only the members it scores that share
//! a level-2 cell with the query (the others are scored from the snapshot's
//! resident postings, or skipped, see [`crate::paged`]).  Nothing in a plan
//! reads the pool, so a paged plan *is* the in-memory plan
//! (`tests/planner_conformance.rs`), and the answers are bitwise identical
//! whatever the access (`tests/paged_conformance.rs`).
//!
//! ## Latency budgets
//!
//! A plan does not read [`PlannerConfig::latency_budget_us`]: a budgeted
//! query is planned exactly like an unbudgeted one.  The budget is a
//! deadline the drive enforces where time is observed — a scan job picked up
//! after it is sampled at its shard's [`PlannerConfig::recall_floor`] rate
//! (`crate::drive::run` has the rule) — so every decision a plan
//! carries is a certificate, and the one decision that can change an answer
//! is made at run time and reported in
//! [`QueryStats::degradation`](crate::stats::QueryStats::degradation).
//!
//! The plan itself is a first-class value: [`ShardedSnapshot::explain`]
//! returns the [`QueryPlan`] without executing it, and
//! [`QueryPlan::explain`] renders it for humans.
//!
//! [`ShardedSnapshot::explain`]: crate::shard::ShardedSnapshot::explain
//! [`PlannerConfig::latency_budget_us`]: crate::config::PlannerConfig::latency_budget_us
//! [`PlannerConfig::recall_floor`]: crate::config::PlannerConfig::recall_floor

use crate::drive::Access;
use crate::engine::TopKHeap;
use crate::kernel::Scratch;
use crate::query::Query;
use crate::stats::QueryStats;
use crate::synopsis::Synopsis;
use std::fmt::Write as _;
use trace_model::{AssociationMeasure, EntityId, LevelOverlap};

/// How the planner decided to treat one shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShardDecision {
    /// The shard's synopsis upper bound cannot beat the seeded threshold:
    /// provably no top-k entity lives there, so the query never opens it.
    /// (An empty shard's bound is `-inf`, so any seeded query proves it
    /// away; unseeded, it is scanned — a scan of nothing.)
    Skip,
    /// The shard is answered by a flat scan, in memory and out of core
    /// alike: exact, unless a latency budget's deadline has passed when the
    /// scan is picked up (see [`crate::plan`]).
    Scan,
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
    /// What the drive does with the shard.
    pub decision: ShardDecision,
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
    /// How many sketch candidates were scored exactly to derive the seed:
    /// those of the shards the running seed had not yet ruled out when their
    /// turn came in bound order, not necessarily every shard's sketch.
    pub seed_candidates: usize,
    /// Per-shard verdicts; admitted shards first, in driving order.
    pub shards: Vec<ShardPlan>,
}

impl QueryPlan {
    /// Number of shards the plan proves cannot contribute.
    pub fn shards_skipped(&self) -> usize {
        self.shards.iter().filter(|s| s.decision == ShardDecision::Skip).count()
    }

    /// Number of shards the plan answers by a flat scan.
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
                ShardDecision::Scan => "scan",
                ShardDecision::Skip if plan.entities == 0 => "skip (empty shard)",
                ShardDecision::Skip => "skip (upper bound below seed)",
            };
            let _ = writeln!(
                out,
                "  shard {:>3}  entities={:<8} upper={:<12} {}",
                plan.shard,
                plan.entities,
                if plan.upper_bound == f64::NEG_INFINITY {
                    "-inf".to_string()
                } else {
                    format!("{:.6}", plan.upper_bound)
                },
                decision,
            );
        }
        out
    }
}

/// Builds the plan of one query over the shards `access` reads — the one
/// planner body of every sharded path, in memory and out of core.
///
/// Every shard's synopsis bound is computed first, and the sketches are
/// scored in bound order; a shard whose bound is strictly below the running
/// k-th best is not scored, which leaves the seed unchanged (see the
/// [module docs](crate::plan)).  Seed candidates are scored through a source
/// per shard, the scans' own kind, into one scratch — out of core with the
/// same paged row reads, so seeding honestly pays, and warms, buffer-pool
/// I/O, whose counters are drained into `stats`.  The evaluations spent are
/// recorded in [`seed_candidates`](QueryPlan::seed_candidates); the drive
/// charges them to the query's `entities_checked`, because they are real
/// candidate evaluations.  The caller guarantees the query sequence matches the
/// shards' level count.
pub(crate) fn plan_query<M: AssociationMeasure + ?Sized>(
    access: &Access<'_>,
    query: &Query<'_, M>,
    stats: &mut QueryStats,
) -> QueryPlan {
    let shards = access.shards;
    let Query { k, measure, .. } = *query;
    let query = access.sequence();
    let levels = query.num_levels() as u8;
    let query_sizes: Vec<usize> = (1..=levels).map(|l| query.level(l).len()).collect();

    // Every shard's bound first, most promising first; the stable sort keeps
    // ties in shard order.
    let (mut caps, mut bound_scratch) = (Vec::new(), LevelOverlap::default());
    let mut plans: Vec<ShardPlan> = shards
        .iter()
        .enumerate()
        .map(|(shard, snapshot)| {
            let synopsis: &Synopsis = snapshot.synopsis();
            ShardPlan {
                shard,
                entities: synopsis.num_entities(),
                upper_bound: synopsis.degree_upper_bound(
                    &query_sizes,
                    measure,
                    &mut caps,
                    &mut bound_scratch,
                ),
                decision: ShardDecision::Scan,
            }
        })
        .collect();
    plans.sort_by(|a, b| b.upper_bound.total_cmp(&a.upper_bound));

    // Threshold seeding: score the sketch candidates exactly, in bound
    // order; the heap's threshold is -inf until k candidates are held, which
    // is precisely the soundness condition (fewer than k scored candidates
    // prove nothing).  A shard whose bound is already strictly below the
    // running threshold holds no candidate that could enter the heap, so its
    // sketch is not scored and the seed is the one scoring every sketch
    // would give, bit for bit.
    let mut seed = f64::NEG_INFINITY;
    let mut seed_candidates = 0usize;
    if k > 0 {
        let mut top = TopKHeap::new(k);
        let mut scratch = Scratch::default();
        for plan in &plans {
            if top.threshold() > plan.upper_bound {
                continue;
            }
            let snapshot = &shards[plan.shard];
            let (source, arena) = (access.source(plan.shard), snapshot.arena());
            for &hot in snapshot.synopsis().hot_entities() {
                if hot == access.entity {
                    continue;
                }
                if let Some(pos) = arena.position(hot) {
                    seed_candidates += 1;
                    top.offer(hot, source.score_with(&mut scratch, pos, &[], measure, false));
                }
            }
        }
        scratch.drain_into(stats);
        seed = top.threshold();
    }

    // The skip certificate is strict, mirroring the scan's tie-complete
    // pruning: a shard *tying* the seed may hold an equal-degree entity that
    // enters the top-k through the id tie-break, so it is never skipped.
    // Admitted shards keep the bound order (the stable sort's `None` keys);
    // skipped ones go last, in shard order.
    for plan in &mut plans {
        if seed > plan.upper_bound {
            plan.decision = ShardDecision::Skip;
        }
    }
    plans.sort_by_key(|plan| (plan.decision == ShardDecision::Skip).then_some(plan.shard));
    QueryPlan { k, seed, seed_candidates, shards: plans }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{IndexConfig, PlannerConfig};
    use crate::kernel::QueryView;
    use crate::shard::{ShardedMinSigIndex, ShardedSnapshot};
    use crate::snapshot::IndexSnapshot;
    use crate::synopsis::DEFAULT_SKETCH_SIZE;
    use crate::testkit::{PairedConfig, PruningAdversarialConfig, UniformConfig, Workload};
    use std::sync::Arc;
    use trace_model::{CellSetSequence, PaperAdm};

    fn sharded_of(w: &Workload, n: usize) -> ShardedSnapshot {
        ShardedMinSigIndex::build(&w.sp, &w.traces, IndexConfig::with_hash_functions(16), n)
            .unwrap()
            .snapshot()
    }

    fn shards_of(w: &Workload, n: usize) -> Vec<Arc<IndexSnapshot>> {
        let sharded = sharded_of(w, n);
        (0..n).map(|i| sharded.shard(i).clone()).collect()
    }

    /// Plans entity 0's query (`query` is its sequence) through the arenas.
    fn plan_of(
        shards: &[Arc<IndexSnapshot>],
        query: &trace_model::CellSetSequence,
        k: usize,
        w: &Workload,
    ) -> QueryPlan {
        plan_for(shards, EntityId(0), query, k, &w.measure())
    }

    /// Plans `entity`'s query (`query` is its sequence) through the arenas.
    fn plan_for(
        shards: &[Arc<IndexSnapshot>],
        entity: EntityId,
        query: &trace_model::CellSetSequence,
        k: usize,
        measure: &PaperAdm,
    ) -> QueryPlan {
        let view = QueryView::new(query);
        let access = Access { shards, view: &view, entity, pages: None };
        plan_query(&access, &Query::new(k, measure), &mut QueryStats::default())
    }

    /// 200 uniform entities over 4 shards: a 16-entity sketch covers under
    /// half of a shard, so a recall floor of 0.5 samples below rate 1.
    fn uniform_world() -> (Workload, ShardedSnapshot) {
        let w = Workload::uniform(UniformConfig { entities: 200, ..UniformConfig::default() });
        let sharded = sharded_of(&w, 4);
        (w, sharded)
    }

    #[test]
    fn default_planner_seeds_and_orders_most_promising_first() {
        let w = Workload::paired(PairedConfig::default());
        let shards = shards_of(&w, 3);
        let query =
            shards.iter().find_map(|s| s.sequence(trace_model::EntityId(0))).unwrap().clone();
        let plan = plan_of(&shards, &query, 2, &w);
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

    /// A budget the deadline never reaches: the plan is the unbudgeted one,
    /// and the execution samples nothing and answers bitwise alike.
    #[test]
    fn unbinding_budget_never_degrades_the_plan() {
        let (w, sharded) = uniform_world();
        let measure = w.measure();
        let unbounded = PlannerConfig::with_budget(u64::MAX / 4);
        for entity in w.sample_entities(6, 5) {
            let exact = sharded.explain(entity, 3, &measure, PlannerConfig::default()).unwrap();
            assert_eq!(sharded.explain(entity, 3, &measure, unbounded).unwrap(), exact);
            let (answer, stats) = sharded
                .query(entity, &Query { planner: unbounded, ..Query::new(3, &measure) })
                .unwrap();
            assert_eq!(stats.degradation, None, "{entity}");
            assert_eq!((stats.sampled_candidates, stats.recall_estimate), (0, 1.0), "{entity}");
            assert_eq!(answer, sharded.top_k(entity, 3, &measure).unwrap().0, "{entity}");
        }
    }

    /// A zero budget has expired before the first scan is picked up: the
    /// plan still scans every admitted shard, and the execution samples each
    /// of them at exactly its recall-floor rate.
    #[test]
    fn binding_budget_degrades_with_the_floor_honored() {
        let (w, sharded) = uniform_world();
        let measure = w.measure();
        let planner = PlannerConfig::with_budget_and_floor(0, 0.5);
        for entity in w.sample_entities(6, 5) {
            let plan = sharded.explain(entity, 3, &measure, planner).unwrap();
            assert_eq!(plan.shards_scanned(), plan.shards.len() - plan.shards_skipped());
            let (_, stats) =
                sharded.query(entity, &Query { planner, ..Query::new(3, &measure) }).unwrap();
            let report = stats.degradation.expect("a zero budget samples");
            let floor_rates: Vec<f64> = plan
                .admitted()
                .map(|s| sharded.shard(s.shard).synopsis().min_rate_for_recall(0.5))
                .collect();
            assert!(floor_rates.iter().all(|&rate| rate < 1.0), "{}", plan.explain());
            assert_eq!(report.shards_approximate, plan.shards_scanned(), "every scan sampled");
            let mask = plan.admitted().fold(0u64, |mask, s| mask | 1 << s.shard);
            assert_eq!(report.approximate_shard_mask, mask);
            assert_eq!(report.min_sample_rate, floor_rates.iter().copied().fold(1.0, f64::min));
            assert!(stats.recall_estimate >= 0.5 - 1e-12, "{}", stats.recall_estimate);
        }
    }

    /// A recall floor of 1.0 needs every member: no shard can be usefully
    /// sampled, so even an expired deadline leaves the answer exact.
    #[test]
    fn strict_recall_floor_refuses_to_degrade() {
        let (w, sharded) = uniform_world();
        let measure = w.measure();
        let planner = PlannerConfig::with_budget_and_floor(0, 1.0);
        for entity in w.sample_entities(6, 5) {
            let (answer, stats) =
                sharded.query(entity, &Query { planner, ..Query::new(3, &measure) }).unwrap();
            assert_eq!(stats.degradation, None, "a 1.0 recall floor forbids all sampling");
            assert_eq!(answer, sharded.top_k(entity, 3, &measure).unwrap().0, "{entity}");
        }
    }

    /// The two-way decision: a seeded plan skips or scans, and an unseeded
    /// one (a synopsis with no sketch: nothing scored, nothing skipped) scans
    /// every shard.  (Which shards skip is `tests/planner_conformance.rs`'s.)
    #[test]
    fn access_path_is_a_scan_on_every_admitted_shard() {
        let w = Workload::uniform(UniformConfig { entities: 200, ..UniformConfig::default() });
        let shards = shards_of(&w, 4);
        let config = IndexConfig::with_hash_functions(16);
        let mut sketchless = ShardedMinSigIndex::build(&w.sp, &w.traces, config, 4).unwrap();
        sketchless.set_synopsis_sketch_size(0);
        let sketchless: Vec<_> = (0..4).map(|i| sketchless.shard(i).snapshot()).collect();
        for entity in w.sample_entities(12, 3) {
            let query = shards.iter().find_map(|s| s.sequence(entity)).unwrap().clone();
            let plan = plan_of(&shards, &query, 3, &w);
            assert!(plan.seeded());
            let scanned = plan.shards.len() - plan.shards_skipped();
            assert_eq!(plan.shards_scanned(), scanned, "{}", plan.explain());
            let unseeded = plan_of(&sketchless, &query, 3, &w);
            assert!(!unseeded.seeded());
            assert_eq!((unseeded.seed_candidates, unseeded.shards_skipped()), (0, 0));
            assert_eq!(unseeded.shards_scanned(), 4, "{}", unseeded.explain());
        }
    }

    /// The plan scoring every shard's sketch would make: the k-th best exact
    /// degree of all sketch members but the query (`-inf` below k of them),
    /// and every shard's bound and verdict, admitted shards by bound
    /// descending (ties in shard order), then skipped ones in shard order.
    fn exhaustive_plan(
        shards: &[Arc<IndexSnapshot>],
        entity: EntityId,
        query: &CellSetSequence,
        k: usize,
        measure: &PaperAdm,
    ) -> (f64, usize, Vec<ShardPlan>) {
        let mut degrees: Vec<f64> = shards
            .iter()
            .flat_map(|s| {
                let members = s.synopsis().hot_entities().iter().filter(|&&e| e != entity);
                members.map(|&e| measure.degree(query, s.sequence(e).unwrap()))
            })
            .collect();
        degrees.sort_by(|a, b| b.total_cmp(a));
        let seed = degrees.get(k.wrapping_sub(1)).copied().unwrap_or(f64::NEG_INFINITY);
        let sizes: Vec<usize> =
            (1..=query.num_levels() as u8).map(|l| query.level(l).len()).collect();
        let mut plans: Vec<ShardPlan> = shards
            .iter()
            .enumerate()
            .map(|(shard, s)| {
                let caps: Vec<usize> =
                    s.synopsis().level_caps().iter().zip(&sizes).map(|(&c, &q)| c.min(q)).collect();
                let upper_bound = if s.synopsis().num_entities() == 0 {
                    f64::NEG_INFINITY
                } else {
                    measure.upper_bound(&sizes, &caps)
                };
                let decision =
                    if seed > upper_bound { ShardDecision::Skip } else { ShardDecision::Scan };
                ShardPlan { shard, entities: s.synopsis().num_entities(), upper_bound, decision }
            })
            .collect();
        let mut skipped: Vec<ShardPlan> =
            plans.iter().copied().filter(|p| p.decision == ShardDecision::Skip).collect();
        plans.retain(|p| p.decision == ShardDecision::Scan);
        plans.sort_by(|a, b| b.upper_bound.total_cmp(&a.upper_bound));
        plans.append(&mut skipped);
        (seed, degrees.len(), plans)
    }

    /// Seeding in bound order skips the sketch of a shard the running seed
    /// already rules out, and nothing else changes: over uniform, paired and
    /// pruning-adversarial populations, at 1, 3 and 8 shards, sketch sizes
    /// 0, 1 and 16 and k 1–6, every plan's seed is bit for bit the k-th best
    /// degree of all sketch members, its shards are the exhaustive plan's
    /// (bound, verdict and order), and it scores no more than every member.
    #[test]
    fn seeding_in_bound_order_equals_exhaustive_seeding() {
        let (adversarial, hot) = Workload::pruning_adversarial(PruningAdversarialConfig {
            num_shards: 8,
            ..PruningAdversarialConfig::default()
        });
        let populations = [
            ("uniform", Workload::uniform(UniformConfig::default()), vec![]),
            ("paired", Workload::paired(PairedConfig::default()), vec![]),
            ("pruning-adversarial", adversarial, hot[..4].to_vec()),
        ];
        let mut sketches_skipped = 0usize;
        for (name, w, hot) in &populations {
            let measure = w.measure();
            let mut queries = w.sample_entities(4, 0x5EED);
            queries.extend(hot);
            for n in [1usize, 3, 8] {
                let config = IndexConfig::with_hash_functions(16);
                let mut index = ShardedMinSigIndex::build(&w.sp, &w.traces, config, n).unwrap();
                for sketch in [0usize, 1, 16] {
                    index.set_synopsis_sketch_size(sketch);
                    let shards: Vec<_> = (0..n).map(|i| index.shard(i).snapshot()).collect();
                    for &entity in &queries {
                        let query = shards.iter().find_map(|s| s.sequence(entity)).unwrap();
                        for k in 1..=6 {
                            let ctx =
                                format!("{name}, {n} shards, sketch {sketch}, k {k}, {entity}");
                            let plan = plan_for(&shards, entity, query, k, &measure);
                            let (seed, members, expected) =
                                exhaustive_plan(&shards, entity, query, k, &measure);
                            assert_eq!(plan.seed.to_bits(), seed.to_bits(), "{ctx}");
                            assert_eq!(plan.shards, expected, "{ctx}");
                            assert!(plan.seed_candidates <= members, "{ctx}");
                            sketches_skipped += usize::from(plan.seed_candidates < members);
                        }
                    }
                }
            }
        }
        assert!(sketches_skipped > 0, "some plan rules a shard out before scoring its sketch");
    }

    /// The work bound-ordered seeding saves, counted rather than timed: a hot
    /// query of the pruning-adversarial population at 8 shards scores the
    /// clique shard's sketch, whose seed rules out the 7 others before their
    /// sketches are scored.  Scoring every sketch took all 8.
    #[test]
    fn seeding_skips_the_sketches_of_ruled_out_shards() {
        let shards = 8;
        let (w, hot) = Workload::pruning_adversarial(PruningAdversarialConfig {
            num_shards: shards,
            hot_entities: 24,
            cold_entities: 400,
            ..PruningAdversarialConfig::default()
        });
        let sharded = sharded_of(&w, shards);
        let measure = w.measure();
        let every_sketch: usize =
            (0..shards).map(|s| sharded.shard(s).synopsis().hot_entities().len()).sum();
        assert!(every_sketch > 2 * DEFAULT_SKETCH_SIZE, "{every_sketch} sketch members");
        for &query in &hot {
            let plan = sharded.explain(query, 5, &measure, PlannerConfig::default()).unwrap();
            assert_eq!(plan.shards_skipped(), shards - 1, "{query}: {}", plan.explain());
            assert!(plan.seed_candidates <= DEFAULT_SKETCH_SIZE, "{query}: {}", plan.explain());
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
