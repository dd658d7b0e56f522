//! The one planned drive behind every sharded query path.
//!
//! The paper has one top-k algorithm, and its memory-size experiment (§4.3 /
//! Fig 7.6) is that same search with candidate traces fetched from disk.
//! So here: [`run`] is validate → level check → plan ([`plan::plan_query`])
//! → [`execute`], and `execute` has one schedule: every admitted shard is
//! one flat-scan job, queued in plan order, run over rayon workers or in
//! order on the calling thread.  Under a latency budget a job picked up after
//! the deadline drops to a sampled scan at its shard's recall-floor rate
//! ([`execute`] has the rule).  The best-first tree search is the unsharded
//! [`IndexSnapshot::top_k`]'s; since a flat scan reads level-1 and level-2
//! overlaps from postings and scores the members sharing no level-1 cell
//! only while they can still enter its top k, it rules out what the tree
//! would prune, so a sharded plan never opens a tree.
//!
//! Everything that differs between in-memory and out-of-core execution sits
//! behind [`ShardAccess`].  Its hooks are monomorphised; nothing on the
//! per-candidate path is dynamic.  `docs/ARCHITECTURE.md` has the long form.

use crate::engine;
use crate::error::{IndexError, Result};
use crate::plan::{self, QueryPlan, ShardDecision};
use crate::query::{Query, TopKResult};
use crate::snapshot::IndexSnapshot;
use crate::stats::{DegradationReport, QueryStats};
use rayon::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use trace_model::{AssociationMeasure, CellSetSequence, EntityId, LevelOverlap};

/// How one query reads the shards' candidates — the whole difference between
/// the in-memory path (`shard::ArenaAccess`, over the candidate arenas) and
/// the out-of-core one (`paged::PagedAccess`, over the session's row pages
/// through the buffer pool).  An access serves one query — it knows whose — on one
/// thread; the sources it hands out travel with their scans.  It only reads:
/// nothing it knows about residency or I/O cost reaches a plan, so a paged
/// query is planned exactly like the in-memory one.
pub(crate) trait ShardAccess<'q> {
    /// What a scan scores through; one per job.
    type Source: Send;

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

    /// The flat degree loop over the members of `shard`, scored through a
    /// `source` of that shard the scan owns — no `&self`, so a scan is a job
    /// any worker can run: exact (`rate` `None`) or over the deterministic
    /// sample at `rate` plus the shard's sketch entities, `exclude` (the
    /// query entity) left out.  Returns the
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

    /// Moves a scan's source counters into the query's stats.
    fn drain_source(source: &Self::Source, stats: &mut QueryStats);

    /// Moves the counters of the access's own reads (seeding) there.
    fn drain(&self, _stats: &mut QueryStats) {}
}

/// Rejects a bad budget and query sequences whose level count does not match
/// the shards' trees — up front, before anything is scored — with the
/// [`IndexError::LevelMismatch`] the unsharded tree search reports too.
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

/// Answers one query: plan, then drive the plan.  `parallel` runs the scan
/// jobs on rayon workers; batch and join paths pass `false` (they
/// parallelise over queries), and so does every paged path (its candidates
/// all go through the one pool mutex; see [`crate::paged`]).
/// The latency budget, when set, is measured from before planning: the
/// deadline is the query's, and planning spends it too.
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
    Ok(execute(access, &plan, query, parallel, start, planning_us))
}

/// Drives an already-built plan and merges the per-shard answers.  `start`
/// is the instant the latency budget is measured from: [`run`] passes the
/// instant before planning, the in-memory batch path — which plans the whole
/// batch once — each query's own execution start with its amortised
/// `planning_us`.
///
/// Every admitted shard is one scan job, queued in plan order (most
/// promising first).  The latency budget is a deadline, and this is the one
/// place it acts: a worker picking a job up after the deadline scans the
/// shard's deterministic sample at the shard's recall-floor rate
/// (`Synopsis::min_rate_for_recall`), unless that rate is 1.0 — such a shard
/// cannot be usefully sampled and stays exact (the floor is the hard
/// constraint, the budget best-effort).  Every other job is an exact scan.
/// With no shard sampled the answer is bitwise the unbudgeted one.  A scan
/// prunes against its own top k only, so neither the answer nor any work
/// counter depends on which worker ran which job.
pub(crate) fn execute<'q, A, M>(
    access: &A,
    plan: &QueryPlan,
    query: &Query<'q, M>,
    parallel: bool,
    start: Instant,
    planning_us: u64,
) -> (Vec<TopKResult>, QueryStats)
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
    let deadline =
        query.planner.latency_budget_us.and_then(|us| start.checked_add(Duration::from_micros(us)));
    let recall_floor = query.planner.recall_floor;
    let mut jobs = Vec::with_capacity(plan.shards.len());
    for shard_plan in &plan.shards {
        match shard_plan.decision {
            ShardDecision::Skip => stats.total_entities += shard_plan.entities,
            ShardDecision::Scan => jobs.push(ScanJob::new(access, shard_plan.shard)),
        }
    }
    run_jobs(&mut jobs, parallel, |job| job.run(query, deadline, recall_floor));

    let mut report = DegradationReport::default();
    let mut parts = Vec::with_capacity(jobs.len());
    for job in jobs {
        A::drain_source(&job.source, &mut stats);
        stats.entities_checked += job.checked;
        stats.total_entities += job.snapshot.num_entities();
        if let Some(rate) = job.rate {
            stats.sampled_candidates += job.checked;
            stats.recall_estimate =
                stats.recall_estimate.min(job.snapshot.synopsis().expected_scan_recall(rate));
            report.record_shard(job.shard, rate);
        }
        parts.push(job.results);
    }
    if report.shards_approximate > 0 {
        stats.degradation = Some(report);
    }
    let results = engine::merge_top_k(query.k, parts);
    access.drain(&mut stats);
    stats.discount_unreadable();
    stats.query_time_us = start.elapsed().as_micros() as u64;
    (results, stats)
}

/// One shard's flat scan as a unit of work.  It owns the source it scores
/// through (scratch, kernel-dispatch and pool counters) and what it found,
/// so whichever worker picks it up runs it.
struct ScanJob<'q, A: ShardAccess<'q>> {
    shard: usize,
    snapshot: &'q IndexSnapshot,
    exclude: EntityId,
    /// `None` is the exact scan; `Some` a sampled one, set when the job was
    /// picked up past the deadline.
    rate: Option<f64>,
    source: A::Source,
    results: Vec<TopKResult>,
    /// Entities scored.
    checked: usize,
}

impl<'q, A: ShardAccess<'q>> ScanJob<'q, A> {
    /// A flat scan of one shard, with a source of its own.
    fn new(access: &A, shard: usize) -> Self {
        ScanJob {
            shard,
            snapshot: &access.shards()[shard],
            exclude: access.entity(),
            rate: None,
            source: access.source(shard),
            results: Vec::new(),
            checked: 0,
        }
    }

    /// Fixes the rate — a job picked up past `deadline` drops to the
    /// shard's `recall_floor` rate when that is below 1.0 — and scans.
    fn run<M: AssociationMeasure + ?Sized>(
        &mut self,
        query: &Query<'_, M>,
        deadline: Option<Instant>,
        recall_floor: f64,
    ) {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            let floor_rate = self.snapshot.synopsis().min_rate_for_recall(recall_floor);
            self.rate = (floor_rate < 1.0).then_some(floor_rate);
        }
        (self.results, self.checked) =
            A::scan(&self.source, self.snapshot, self.exclude, self.rate, query);
    }
}

/// Runs every job once, in queue order: `parallel` fans workers out over
/// rayon, each taking the next job off the queue until none is left;
/// otherwise the calling thread runs them one after another.
fn run_jobs<J: Send>(jobs: &mut [J], parallel: bool, run: impl Fn(&mut J) + Sync) {
    let workers = if parallel { rayon::current_num_threads().min(jobs.len()) } else { 1 };
    if workers <= 1 {
        jobs.iter_mut().for_each(run);
        return;
    }
    let slots: Vec<Mutex<&mut J>> = jobs.iter_mut().map(Mutex::new).collect();
    let next = AtomicUsize::new(0);
    let worker_ids: Vec<usize> = (0..workers).collect();
    let _: Vec<()> = worker_ids
        .par_iter()
        .map(|_| {
            while let Some(slot) = slots.get(next.fetch_add(1, Ordering::Relaxed)) {
                run(&mut slot.lock().expect("job slot poisoned"));
            }
        })
        .collect();
}
