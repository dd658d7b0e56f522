//! The one planned drive behind every sharded query path.
//!
//! The paper has one top-k algorithm, and its memory-size experiment (§4.3 /
//! Fig 7.6) is that same search with candidate traces fetched from disk.
//! So here: [`run`] is validate → level check → plan ([`plan::plan_query`])
//! → drive the plan, and the drive has one schedule: every admitted shard is
//! one flat-scan job, queued in plan order, run over rayon workers or in
//! order on the calling thread.  Under a latency budget a job picked up after
//! the deadline drops to a sampled scan at its shard's recall-floor rate
//! ([`run`] has the rule).  The best-first tree search is the unsharded
//! [`IndexSnapshot::top_k`]'s; since a flat scan reads level-1 and level-2
//! overlaps from postings and scores the members sharing no level-1 cell
//! only while they can still enter its top k, it rules out what the tree
//! would prune, so a sharded plan never opens a tree.
//!
//! In memory and out of core run this one body over one [`Access`]; they
//! differ by its `pages` alone — `None`, or the session's row pages — which
//! every [`ArenaSource`] it hands out carries: a source reads a member's
//! finer rows from the arena or through the pool, one `match` per
//! candidate, nothing dynamic.  `docs/ARCHITECTURE.md` has the long form.

use crate::engine;
use crate::error::{IndexError, Result};
use crate::kernel::{ArenaSource, QueryView};
use crate::paged::RowSegment;
use crate::plan::{self, QueryPlan, ShardDecision};
use crate::query::{Query, TopKResult};
use crate::snapshot::IndexSnapshot;
use crate::stats::{DegradationReport, QueryStats};
use rayon::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use trace_model::{AssociationMeasure, CellSetSequence, EntityId};

/// How one query reads the shards, in memory and out of core alike.  It
/// only reads: nothing it knows about residency or I/O cost reaches a plan,
/// so a paged query is planned exactly like the in-memory one.
pub(crate) struct Access<'q> {
    /// The shard snapshots, in shard order.
    pub(crate) shards: &'q [Arc<IndexSnapshot>],
    /// The query's one view: seeding and every scan score through it.
    pub(crate) view: &'q QueryView<'q>,
    /// The query entity, left out of its own answer.
    pub(crate) entity: EntityId,
    /// Out of core, the session's pages of every shard's finer rows, in
    /// shard order; `None` in memory.
    pub(crate) pages: Option<&'q [RowSegment<'q>]>,
}

impl<'q> Access<'q> {
    /// The sequence searched for.
    pub(crate) fn sequence(&self) -> &'q CellSetSequence {
        self.view.sequence()
    }

    /// A fresh source (own scratch, zeroed counters) over shard `shard`.
    pub(crate) fn source(&self, shard: usize) -> ArenaSource<'q> {
        let pages = self.pages.map(|pages| &pages[shard]);
        ArenaSource::new(self.shards[shard].arena(), self.view, pages)
    }
}

/// Rejects a bad budget and query sequences whose level count does not match
/// the shards' trees — up front, before anything is scored — with the
/// [`IndexError::LevelMismatch`] the unsharded tree search reports too.
fn admit<M: ?Sized>(access: &Access<'_>, query: &Query<'_, M>) -> Result<()> {
    query.validate()?;
    let index_levels = access.shards[0].tree().levels();
    let query_levels = access.sequence().num_levels();
    if query_levels != index_levels as usize {
        return Err(IndexError::LevelMismatch { index_levels, query_levels: query_levels as u8 });
    }
    Ok(())
}

/// Builds — without executing — the plan [`run`] would drive.
pub(crate) fn explain<M: AssociationMeasure + ?Sized>(
    access: &Access<'_>,
    query: &Query<'_, M>,
) -> Result<QueryPlan> {
    admit(access, query)?;
    Ok(plan::plan_query(access, query, &mut QueryStats::default()))
}

/// Answers one query: plan, then drive the plan.  `parallel` runs the scan
/// jobs on rayon workers; batch and join paths pass `false` (they
/// parallelise over queries), and so does every paged path (its candidates
/// all go through the one pool mutex; see [`crate::paged`]).
///
/// Every admitted shard is one scan job, queued in plan order (most
/// promising first).  The latency budget is a deadline measured from before
/// planning — planning spends it too — and this is the one place it acts: a
/// worker picking a job up after the deadline scans the shard's
/// deterministic sample at the shard's recall-floor rate
/// (`Synopsis::min_rate_for_recall`), unless that rate is 1.0 — such a shard
/// cannot be usefully sampled and stays exact (the floor is the hard
/// constraint, the budget best-effort).  Every other job is an exact scan.
/// With no shard sampled the answer is bitwise the unbudgeted one.  A scan
/// prunes against its own top k only, so neither the answer nor any work
/// counter depends on which worker ran which job.
pub(crate) fn run<M: AssociationMeasure + Sync + ?Sized>(
    access: &Access<'_>,
    query: &Query<'_, M>,
    parallel: bool,
) -> Result<(Vec<TopKResult>, QueryStats)> {
    admit(access, query)?;
    let start = Instant::now();
    let mut stats = QueryStats { k: query.k, ..QueryStats::default() };
    let plan = plan::plan_query(access, query, &mut stats);
    stats.planning_us = start.elapsed().as_micros() as u64;
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
        job.source.drain_into(&mut stats);
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
    stats.query_time_us = start.elapsed().as_micros() as u64;
    Ok((results, stats))
}

/// One shard's flat scan as a unit of work.  It owns the source it scores
/// through (scratch, kernel-dispatch and pool counters) and what it found,
/// so whichever worker picks it up runs it.
struct ScanJob<'q> {
    shard: usize,
    snapshot: &'q IndexSnapshot,
    exclude: EntityId,
    /// `None` is the exact scan; `Some` a sampled one, set when the job was
    /// picked up past the deadline.
    rate: Option<f64>,
    source: ArenaSource<'q>,
    results: Vec<TopKResult>,
    /// Entities scored.
    checked: usize,
}

impl<'q> ScanJob<'q> {
    /// A flat scan of one shard, with a source of its own.
    fn new(access: &Access<'q>, shard: usize) -> Self {
        ScanJob {
            shard,
            snapshot: &access.shards[shard],
            exclude: access.entity,
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
        let (exclude, rate) = (self.exclude, self.rate);
        let hot = self.snapshot.synopsis().hot_entities();
        (self.results, self.checked) = self.source.scan(query.k, query.measure, |entity| {
            entity != exclude && plan::scan_admits(rate, hot, entity)
        });
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
