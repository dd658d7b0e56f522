//! The one planned drive behind every sharded query path.
//!
//! The paper has one top-k algorithm, and its memory-size experiment (§4.3 /
//! Fig 7.6) is that same search with candidate traces fetched from disk.
//! So here: [`run`] is validate → level check → plan ([`plan::plan_query`])
//! → [`execute`], and `execute` holds the only two schedules a plan is ever
//! driven by —
//!
//! * **unbudgeted**: one work queue of jobs — every scan shard as a flat
//!   scan (one step; it publishes its local k-th degree when done), queued
//!   first, then every admitted tree shard as a resumable [`Executor`]
//!   advanced in quanta — drained by the cooperative scheduler's workers;
//! * **budgeted** ([`latency_budget_us`] set): admitted shards
//!   **sequentially in plan order**, each tree search under
//!   [`Executor::run_until`], degrading to sampled scans as the deadline
//!   bites (`Fanout::drive_budgeted` has the protocol).
//!
//! Both are built from the same four steps (flat-scan a shard, make a shard
//! executor, finish-and-drain an executor, pick the bound), and everything
//! that differs between in-memory and out-of-core execution sits behind
//! [`ShardAccess`].  Its hooks are monomorphised; nothing on the
//! per-candidate path is dynamic.  `docs/ARCHITECTURE.md` has the long form.
//!
//! [`latency_budget_us`]: crate::config::PlannerConfig::latency_budget_us

use crate::engine::{self, Bound, Executor, PrivateBound, SharedBound, TraceSource};
use crate::error::{IndexError, Result};
use crate::plan::{self, PageEstimate, QueryPlan, ShardDecision};
use crate::query::{Query, TopKResult};
use crate::snapshot::IndexSnapshot;
use crate::stats::{DegradationReport, QueryStats};
use rayon::prelude::*;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use trace_model::{AssociationMeasure, CellSetSequence, EntityId, LevelOverlap};

/// Frontier nodes a tree executor advances per step before its job is
/// requeued.  A smaller quantum interleaves shards more finely, so bounds
/// propagate earlier, at a higher scheduling overhead; no quantum changes an
/// answer (`Executor::step`).
const STEP_QUANTUM: usize = 32;

/// How one query reads the shards' candidates — the whole difference between
/// the in-memory path (`shard::ArenaAccess`, over the candidate arenas) and
/// the out-of-core one (`paged::PagedAccess`, over the session's row pages
/// through the buffer pool).  An access serves one query — it knows whose — on one
/// thread; the sources it hands out travel with their executors and scans.
pub(crate) trait ShardAccess<'q> {
    /// What a tree executor evaluates its leaves through and a scan scores
    /// through; one per job.
    type Source: TraceSource + Send;

    /// The shard snapshots, in shard order.
    fn shards(&self) -> &'q [Arc<IndexSnapshot>];

    /// The sequence searched for.
    fn sequence(&self) -> &'q CellSetSequence;

    /// The query entity, left out of its own answer.
    fn entity(&self) -> EntityId;

    /// Scores `shard`'s sketch entities (bar the query entity) exactly
    /// against the query, for threshold seeding, handing each
    /// `(entity, degree)` to `offer` — untracked (no kernel-dispatch counts).
    /// An entity the access cannot produce is passed over, which only weakens
    /// the seed.  `scratch` is the planner's, for an access that scores from
    /// rows it holds.
    fn seed<M: AssociationMeasure + ?Sized>(
        &self,
        shard: usize,
        measure: &M,
        scratch: &mut LevelOverlap,
        offer: impl FnMut(EntityId, f64),
    );

    /// The shard's page-residency estimate; `None` when nothing is paged.
    fn pages(&self, _shard: usize) -> Option<PageEstimate> {
        None
    }

    /// What fetching one cold page costs, in microseconds.
    fn miss_latency_us(&self) -> u64 {
        0
    }

    /// The flat degree loop over the members of `shard`, scored through a
    /// `source` of that shard the scan owns like an executor owns its own —
    /// no `&self`, so a scan is a job any worker can run: exact (`rate`
    /// `None`) or over the deterministic sample at `rate` plus the shard's
    /// sketch entities, `exclude` (the query entity) left out.  Returns the
    /// shard's sorted top-k and how many entities it scored; kernel
    /// dispatches, pool traffic and unreadable candidates stay on the source
    /// until [`drain_source`](Self::drain_source).
    fn scan<M: AssociationMeasure + ?Sized>(
        source: &Self::Source,
        shard: &IndexSnapshot,
        exclude: EntityId,
        rate: Option<f64>,
        query: &Query<'_, M>,
    ) -> (Vec<TopKResult>, usize);

    /// A fresh source (own scratch, zeroed counters) over one shard.
    fn source(&self, shard: usize) -> Self::Source;

    /// Moves an executor's or a scan's source counters into the query's stats.
    fn drain_source(source: &Self::Source, stats: &mut QueryStats);

    /// Moves the counters of the access's own reads (seeding) there.
    fn drain(&self, _stats: &mut QueryStats) {}
}

/// Rejects a bad budget and query sequences whose level count does not match
/// the shards' trees — up front, so a plan that scans or skips every shard
/// reports the same [`IndexError::LevelMismatch`] the executor constructor
/// would.
pub(crate) fn admit<M: ?Sized>(
    shards: &[Arc<IndexSnapshot>],
    sequence: &CellSetSequence,
    query: &Query<'_, M>,
) -> Result<()> {
    query.validate()?;
    let index_levels = shards[0].tree().levels();
    if sequence.num_levels() != index_levels as usize {
        return Err(IndexError::LevelMismatch {
            index_levels,
            query_levels: sequence.num_levels() as u8,
        });
    }
    Ok(())
}

/// Builds — without executing — the plan [`run`] would drive.
pub(crate) fn explain<'q, A, M>(access: &A, query: &Query<'_, M>) -> Result<QueryPlan>
where
    A: ShardAccess<'q>,
    M: AssociationMeasure + ?Sized,
{
    admit(access.shards(), access.sequence(), query)?;
    Ok(plan::plan_query(access, query))
}

/// Answers one query: plan, then drive the plan.  `parallel` fans the
/// cooperative scheduler's workers out over rayon; batch and join paths pass
/// `false` (they parallelise over queries), and so does every paged path
/// (its candidates all go through the one pool mutex; see [`crate::paged`]).
/// The latency budget, when set, is measured from before planning — planning
/// time spends budget, matching the cost model.
pub(crate) fn run<'q, A, M>(
    access: &A,
    query: &Query<'q, M>,
    parallel: bool,
) -> Result<(Vec<TopKResult>, QueryStats)>
where
    A: ShardAccess<'q>,
    M: AssociationMeasure + Sync + ?Sized,
{
    admit(access.shards(), access.sequence(), query)?;
    let start = Instant::now();
    let plan = plan::plan_query(access, query);
    let planning_us = start.elapsed().as_micros() as u64;
    execute(access, &plan, query, parallel, start, planning_us)
}

/// Drives an already-built plan and merges the per-shard answers.  `start`
/// is the instant the latency budget is measured from: [`run`] passes the
/// instant before planning, the in-memory batch path — which plans the whole
/// batch once — each query's own execution start with its amortised
/// `planning_us`.
pub(crate) fn execute<'q, A, M>(
    access: &A,
    plan: &QueryPlan,
    query: &Query<'q, M>,
    parallel: bool,
    start: Instant,
    planning_us: u64,
) -> Result<(Vec<TopKResult>, QueryStats)>
where
    A: ShardAccess<'q>,
    M: AssociationMeasure + Sync + ?Sized,
{
    let mut stats = QueryStats { k: query.k, planning_us, ..QueryStats::default() };
    // Seeding scored real candidates exactly: charge them as checked work,
    // and count skipped shards' populations toward |E| so pruning
    // effectiveness stays comparable with plans that skip nothing.
    stats.entities_checked += plan.seed_candidates;
    stats.shards_skipped = plan.shards_skipped();
    stats.shards_scanned = plan.shards_scanned();
    stats.threshold_seeded = plan.seeded();
    for shard_plan in &plan.shards {
        if shard_plan.decision == ShardDecision::Skip {
            stats.total_entities += shard_plan.entities;
        }
    }
    let shared = SharedBound::new();
    if plan.seeded() {
        shared.publish(plan.seed);
    }
    let mut fanout = Fanout {
        access,
        plan,
        query,
        shared: &shared,
        stats,
        report: DegradationReport::default(),
        parts: Vec::with_capacity(plan.shards.len()),
    };
    if plan.planner.latency_budget_us.is_some() {
        fanout.drive_budgeted(start)?;
    } else {
        fanout.drive_unbudgeted(parallel)?;
    }
    let Fanout { mut stats, report, parts, .. } = fanout;
    if report.shards_approximate() > 0 {
        stats.degradation = Some(report);
    }
    let results = engine::merge_top_k(query.k, parts);
    access.drain(&mut stats);
    stats.discount_unreadable();
    stats.query_time_us = start.elapsed().as_micros() as u64;
    Ok((results, stats))
}

/// The bound a query's tree executors prune against, picked once per
/// schedule by [`Fanout::bound`].
enum QueryBound<'a> {
    /// The query-global atomic bound: seed, scan thresholds and every
    /// executor's local k-th degree.
    Shared(&'a SharedBound),
    /// Nothing to share: the executor prunes against its own threshold only.
    Private,
}

impl Bound for QueryBound<'_> {
    fn current(&self) -> f64 {
        match self {
            QueryBound::Shared(bound) => bound.current(),
            QueryBound::Private => PrivateBound.current(),
        }
    }

    fn publish(&self, value: f64) -> bool {
        match self {
            QueryBound::Shared(bound) => bound.publish(value),
            QueryBound::Private => PrivateBound.publish(value),
        }
    }
}

/// One shard's flat scan as a unit of work.  Like an executor it owns the
/// source it scores through (scratch, kernel-dispatch and pool counters) and
/// what it found, so whichever worker pops it runs it.
struct ScanJob<'q, A: ShardAccess<'q>> {
    shard: usize,
    snapshot: &'q IndexSnapshot,
    exclude: EntityId,
    /// `None` is the exact scan; `Some` the budgeted schedule's sampled one.
    rate: Option<f64>,
    source: A::Source,
    results: Vec<TopKResult>,
    /// Entities scored.
    checked: usize,
}

impl<'q, A: ShardAccess<'q>> ScanJob<'q, A> {
    /// A flat scan of one shard — exact, or sampled at `rate` — with a
    /// source of its own.
    fn new(access: &A, shard: usize, rate: Option<f64>) -> Self {
        ScanJob {
            shard,
            snapshot: &access.shards()[shard],
            exclude: access.entity(),
            rate,
            source: access.source(shard),
            results: Vec::new(),
            checked: 0,
        }
    }

    /// Scans the shard and publishes its k-th degree: a k-th best over `≥ k`
    /// real candidates is `≤` the global k-th best, sampled or not.
    fn run<M: AssociationMeasure + ?Sized>(&mut self, query: &Query<'_, M>, shared: &SharedBound) {
        (self.results, self.checked) =
            A::scan(&self.source, self.snapshot, self.exclude, self.rate, query);
        if query.k > 0 && self.results.len() >= query.k {
            shared.publish(self.results[query.k - 1].degree);
        }
    }
}

/// What the unbudgeted schedule's work queue holds.
enum Job<'q, A: ShardAccess<'q>, M: AssociationMeasure + ?Sized> {
    /// One step, start to finish.
    Scan(ScanJob<'q, A>),
    /// One quantum a step, requeued while its frontier holds work.  (Boxed:
    /// an executor is twice a scan job's size.)
    Tree(Box<Executor<'q, A::Source, M>>),
}

/// One plan being driven: the query-wide state the four steps share.
struct Fanout<'a, 'q, A, M: ?Sized> {
    access: &'a A,
    plan: &'a QueryPlan,
    query: &'a Query<'q, M>,
    /// Holds the seed from the start; scans publish into it.
    shared: &'a SharedBound,
    stats: QueryStats,
    report: DegradationReport,
    parts: Vec<Vec<TopKResult>>,
}

impl<'a, 'q, A, M> Fanout<'a, 'q, A, M>
where
    A: ShardAccess<'q>,
    M: AssociationMeasure + Sync + ?Sized,
{
    /// Picks the bound.  A single unseeded job can only share a bound with
    /// itself; an executor's local threshold already carries the same
    /// information, so skip the atomic churn (a 1-shard fan-out is exactly
    /// the single-tree search).  With a seed in the shared bound, even a
    /// lone executor must prune against it.
    fn bound(&self, lone_job: bool) -> QueryBound<'a> {
        if lone_job && self.shared.current() == f64::NEG_INFINITY {
            QueryBound::Private
        } else {
            QueryBound::Shared(self.shared)
        }
    }

    /// Books a scan that ran: its counters, its answer and — when it was
    /// sampled — the degradation bookkeeping (conservative recall estimate,
    /// report row).  `count_population` is false when an abandoned executor
    /// already charged the shard's population.
    fn finish_scan(&mut self, job: ScanJob<'q, A>, count_population: bool, downgraded: bool) {
        A::drain_source(&job.source, &mut self.stats);
        self.stats.entities_checked += job.checked;
        if count_population {
            self.stats.total_entities += job.snapshot.num_entities();
        }
        if let Some(rate) = job.rate {
            self.stats.sampled_candidates += job.checked;
            self.stats.recall_estimate =
                self.stats.recall_estimate.min(job.snapshot.synopsis().expected_scan_recall(rate));
            self.report.record_shard(job.shard, rate, downgraded);
        }
        self.parts.push(job.results);
    }

    /// Answers one shard by a flat scan, here and now (the budgeted
    /// schedule's step).
    fn scan(&mut self, shard: usize, rate: Option<f64>, count_population: bool, downgraded: bool) {
        let mut job = ScanJob::new(self.access, shard, rate);
        job.run(self.query, self.shared);
        self.finish_scan(job, count_population, downgraded);
    }

    /// A resumable executor over one shard's tree, with a source of its own.
    fn executor(&self, shard: usize) -> Result<Executor<'q, A::Source, M>> {
        let access = self.access;
        Executor::new(
            &access.shards()[shard],
            access.sequence(),
            Some(access.entity()),
            self.query,
            access.source(shard),
        )
    }

    /// Finishes an executor.  Its work counters are always kept (the work
    /// happened) — the read-side ones live on the source and are drained
    /// before `finish` consumes the executor; its answer only when the
    /// frontier was `exhausted`.
    fn finish(&mut self, executor: Executor<'q, A::Source, M>, exhausted: bool) {
        A::drain_source(executor.source(), &mut self.stats);
        let (results, executor_stats) = executor.finish();
        self.stats.absorb_work(&executor_stats);
        if exhausted {
            self.parts.push(results);
        }
    }

    /// The unbudgeted schedule: one work queue.  Scan jobs are queued first
    /// — each publishes its shard's k-th degree, which a lone worker has in
    /// the bound before any tree executor starts — then the tree shards in
    /// plan order, so the executor most likely to raise the bound is driven
    /// before the long tail.
    fn drive_unbudgeted(&mut self, parallel: bool) -> Result<()> {
        let plan = self.plan;
        let mut jobs = Vec::with_capacity(plan.shards.len());
        for shard_plan in plan.admitted().filter(|p| p.decision == ShardDecision::Scan) {
            jobs.push(Job::Scan(ScanJob::new(self.access, shard_plan.shard, None)));
        }
        for shard_plan in plan.admitted().filter(|p| p.decision == ShardDecision::TreeSearch) {
            jobs.push(Job::Tree(Box::new(self.executor(shard_plan.shard)?)));
        }
        let bound = self.bound(jobs.len() <= 1);
        let (query, shared) = (self.query, self.shared);
        drive_cooperatively(&mut jobs, parallel, |job| match job {
            Job::Scan(scan) => {
                scan.run(query, shared);
                false
            }
            Job::Tree(executor) => executor.step(&bound, STEP_QUANTUM),
        });
        for job in jobs {
            match job {
                Job::Scan(scan) => self.finish_scan(scan, true, false),
                Job::Tree(executor) => self.finish(*executor, true),
            }
        }
        Ok(())
    }

    /// The budgeted schedule: most promising shard first, so when the
    /// deadline trips the work already spent went where the answer most
    /// likely is.  Exact answers are schedule-independent, so the only way a
    /// budget changes an answer is a **sampled scan**: a planned
    /// [`ShardDecision::ApproximateScan`]; an exact verdict whose turn comes
    /// after the deadline, downgraded at the shard's recall-floor rate; or a
    /// tree search abandoned mid-flight — its partial answer is discarded (it
    /// may miss arbitrary entities, while a sampled scan's omissions are what
    /// the error model prices).  A shard whose floor rate is 1.0 cannot be
    /// usefully sampled: it ignores the deadline and stays exact (the floor
    /// is the hard constraint, the budget best-effort).  With no shard
    /// sampled the answer is bitwise the unbudgeted one.
    fn drive_budgeted(&mut self, start: Instant) -> Result<()> {
        let plan = self.plan;
        let deadline = plan
            .planner
            .latency_budget_us
            .and_then(|us| start.checked_add(Duration::from_micros(us)));
        let bound = self.bound(false);
        for shard_plan in plan.admitted() {
            let shard = shard_plan.shard;
            let expired = deadline.is_some_and(|d| Instant::now() >= d);
            let floor_rate = self.access.shards()[shard]
                .synopsis()
                .min_rate_for_recall(plan.planner.recall_floor);
            match shard_plan.decision {
                ShardDecision::Skip => unreachable!("admitted() filters skips"),
                ShardDecision::ApproximateScan { rate } => {
                    self.scan(shard, Some(rate), true, false);
                }
                ShardDecision::Scan | ShardDecision::TreeSearch if expired && floor_rate < 1.0 => {
                    self.report.deadline_exceeded = true;
                    self.scan(shard, Some(floor_rate), true, true);
                }
                ShardDecision::Scan => self.scan(shard, None, true, false),
                ShardDecision::TreeSearch => {
                    let mut executor = self.executor(shard)?;
                    // Abandoning at the raw deadline would still pay the
                    // sampled fallback scan *after* it — overshooting the
                    // budget by exactly that scan — so its estimated cost
                    // (the budget pass's own calibration) is reserved out of
                    // the deadline handed to the executor.
                    let shard_deadline = if floor_rate >= 1.0 {
                        None
                    } else {
                        let reserve = Duration::from_nanos(plan::fallback_reserve_ns(
                            floor_rate,
                            shard_plan.entities,
                            plan.seed_candidates,
                            self.stats.planning_us,
                        ));
                        deadline.map(|d| d.checked_sub(reserve).unwrap_or(d))
                    };
                    let exhausted = executor.run_until(&bound, STEP_QUANTUM, shard_deadline);
                    self.finish(executor, exhausted);
                    if !exhausted {
                        self.report.deadline_exceeded = true;
                        self.scan(shard, Some(floor_rate), false, true);
                    }
                }
            }
        }
        Ok(())
    }
}

/// Drives a set of jobs to completion: `step` advances one job by one unit
/// of work and says whether it has more.
///
/// Scheduling is a round-robin work queue of job indices: each worker pops
/// an index, steps that job once, and requeues it while work remains.
/// `parallel` fans the workers out over rayon (bound propagation is then
/// concurrent); otherwise one worker interleaves every job on the calling
/// thread — later steps still profit from bounds published by earlier ones,
/// which is what makes even the sequential batch paths cooperative.  A job
/// held by a worker is never in the queue, and a worker only exits on an
/// empty queue while holding nothing, so every job is complete before this
/// returns.  The answers do not depend on the schedule, and neither does
/// anything a scan counts (it prunes against its own top k only, never the
/// shared bound); only the tree executors' work counters do.
fn drive_cooperatively<J: Send>(
    jobs: &mut [J],
    parallel: bool,
    step: impl Fn(&mut J) -> bool + Sync,
) {
    let workers =
        if parallel && jobs.len() > 1 { rayon::current_num_threads().min(jobs.len()) } else { 1 };
    if workers <= 1 {
        let mut pending: VecDeque<usize> = (0..jobs.len()).collect();
        while let Some(i) = pending.pop_front() {
            if step(&mut jobs[i]) {
                pending.push_back(i);
            }
        }
        return;
    }

    let slots: Vec<Mutex<&mut J>> = jobs.iter_mut().map(Mutex::new).collect();
    let pending: Mutex<VecDeque<usize>> = Mutex::new((0..slots.len()).collect());
    let worker_ids: Vec<usize> = (0..workers).collect();
    let _: Vec<()> = worker_ids
        .par_iter()
        .map(|_| loop {
            let next = pending.lock().expect("scheduler queue poisoned").pop_front();
            let Some(i) = next else { break };
            let more = step(&mut slots[i].lock().expect("job slot poisoned"));
            if more {
                pending.lock().expect("scheduler queue poisoned").push_back(i);
            }
        })
        .collect();
}
