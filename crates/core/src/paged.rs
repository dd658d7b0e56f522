//! Paged query processing: leaf evaluation reads candidate traces through a
//! bounded buffer pool instead of the in-memory sequence map.
//!
//! This is the query path exercised by the Figure 7.6 experiment ("search time
//! vs. memory size"): the MinSigTree itself and the hash functions stay in memory
//! (Section 4.3's minimum memory requirement), but the raw traces needed to
//! compute exact association degrees at the leaves live on the (virtual) disk, so
//! a smaller buffer budget translates into more page misses and a longer
//! simulated search time.
//!
//! The walk itself is the shared best-first executor of [`crate::engine`]; the
//! only difference from the in-memory path is the [`PagedArenaSource`] handed
//! to it.  The buffer pool synchronises internally, so paged queries may also
//! run from several threads against one snapshot, pool and store.
//!
//! ## Out-of-core sharded queries
//!
//! [`ShardedSnapshot::paged`] wraps a sharded snapshot, a [`PagedTraceStore`]
//! and a [`BufferPool`] into a [`PagedShardedSnapshot`] whose entry points
//! mirror the in-memory ones (`top_k`, `query`, batches, joins, `explain`).
//! They run the **same** planner body and the same drive as the in-memory
//! paths; only the `ShardAccess` differs — candidate traces are read
//! through the pool, and shards carry page estimates (see [`crate::plan`]),
//! which break ordering ties and price latency budgets but decide no access
//! path.  Answers are **bitwise identical** to the in-memory
//! sharded, unsharded and brute-force paths — any shard count, any pool
//! size, any [`ReplacerPolicy`](trace_storage::ReplacerPolicy)
//! (`tests/paged_conformance.rs` proptests exactly this).
//!
//! ## Who owns what during a query
//!
//! * **Resident rows.**  Each candidate is first looked up in the shard's
//!   in-memory [`CandidateArena`](crate::kernel::CandidateArena): its level-1
//!   cells and per-level sizes.  A candidate sharing no level-1 cell with the
//!   query is scored from those alone (it shares nothing at any level), with
//!   no page request; its records are never read.  Only the others go to the
//!   pool.  The arena is the snapshot's, immutable, shared by every source
//!   without a lock.
//! * **Pins.**  The query entity's own trace is pinned for the whole fan-out
//!   (resident across every executor [`step`](crate::engine::Executor::step)
//!   quantum, released when the merged answer is produced).  A candidate page
//!   is pinned only while its run of the candidate's records is visited
//!   ([`PagedTraceStore::for_each_record`]); nothing else ever holds a pin, so
//!   `pinned_frames() == 0` after every query.
//! * **Scratch.**  Every tree executor and every shard scan gets its own
//!   [`PagedArenaSource`], the planner one more for seeding.  A source owns the row
//!   buffer its candidates are discretised into, the overlap scratch, and the
//!   kernel-dispatch and buffer-pool counters for the work *it* did; an
//!   executor is stepped by one worker at a time, so none of it is locked and
//!   nothing is allocated per candidate.  The counters are summed into the
//!   query's [`QueryStats`] at merge — exact per query however many queries
//!   share the pool.
//! * **No row cache.**  Every entity is scored once per query (the planner's
//!   seeds are the only repeats), so rows are rebuilt into the same buffer
//!   candidate after candidate and nothing is kept.
//! * **Locks.**  The only lock a candidate evaluation takes is the pool
//!   mutex, around frame-table bookkeeping only (see [`trace_storage::pool`]).
//! * **Threads.**  One query runs on its caller's thread: the shard
//!   executors are interleaved in step quanta there, as the batch and join
//!   paths always did (those parallelise over queries).  Every candidate read
//!   goes through the one pool mutex three times (look up, publish, unpin),
//!   and with the degree itself down to a fraction of a microsecond that
//!   bookkeeping — frame table, replacer, the evicted page's free — is a
//!   third of a candidate's cost and all of it is shared state.  Two workers
//!   mostly traded its cache lines: measured on the 5 000-entity SYN
//!   population (4 shards, pool a tenth of the data, 2 vCPUs), a threaded
//!   fan-out answered in 34–36 ms for whole stretches and in 23–25 ms for
//!   others (time under the pool mutex 24 ms against 10 ms of thread time per
//!   query, by where the hypervisor had put the two vCPUs), a single thread
//!   in a steady 29–30 ms.  A query that costs the same every time beats one
//!   that is sometimes a quarter faster; a pool that scales across workers is
//!   the precondition for threading this again.

use crate::config::PlannerConfig;
use crate::drive::{self, ShardAccess};
use crate::engine::{self, TopKHeap, TraceSource};
use crate::error::{IndexError, Result};
use crate::join::{join_probes, JoinOptions, JoinRow, JoinStats};
use crate::kernel::{level_overlaps, QueryView};
use crate::plan::{self, PageEstimate, QueryPlan};
use crate::query::{Query, QueryOptions, TopKResult};
use crate::shard::ShardedSnapshot;
use crate::snapshot::IndexSnapshot;
use crate::stats::{KernelDispatch, QueryStats};
use rayon::prelude::*;
use std::cell::RefCell;
use std::sync::Arc;
use trace_model::ajpi::LevelOverlap;
use trace_model::{AssociationMeasure, CellSetSequence, EntityId, LevelRows};
use trace_storage::{BufferPool, PageId, PagedTraceStore, PinnedPages, PoolStats};

/// What one [`PagedArenaSource`] reuses across candidates and counts for its
/// query.
#[derive(Debug, Default)]
struct Scratch {
    rows: LevelRows,
    overlap: LevelOverlap,
    dispatch: KernelDispatch,
    io: PoolStats,
    /// Candidates a flat scan through this source could not read (a tree
    /// executor counts its own).
    unreadable: usize,
    /// Candidates answered from their resident level-1 row, records unread.
    reads_avoided: usize,
}

/// A [`TraceSource`] that scores candidates straight from the paged store:
/// the out-of-core counterpart of
/// [`ArenaSource`](crate::kernel::ArenaSource), running the same fused
/// per-level kernel loop the in-memory hot path does.
///
/// A degree request first asks the shard's resident
/// [`CandidateArena`](crate::kernel::CandidateArena) whether the candidate
/// shares a level-1 cell with the query (`CandidateArena::disjoint_degree`).
/// When it shares none it shares nothing at any level, and its exact degree
/// follows from the per-level sizes the arena holds — no page is touched.
/// Otherwise the
/// source visits the entity's records through the buffer pool (pages pinned
/// transiently inside the visit — the source itself never holds a pin),
/// discretises them into its reusable [`LevelRows`] buffer, and intersects
/// the rows with the query.  Either way the degree is **bitwise identical**
/// to `measure.degree(query, seq)` over the entity's
/// [`cell_sequence`](trace_model::DigitalTrace::cell_sequence): every path
/// hands the measure the same integer per-level
/// [`LevelStat`](trace_model::ajpi::LevelStat)s, the fused ones through the
/// one early-stopping loop the arena runs (`kernel::level_overlaps`).
///
/// Like `ArenaSource`, the scratch and the per-query counters live in a
/// single-threaded cell: the source is `Send` but deliberately not `Sync`,
/// one per executor.  `drain_into` moves the counters
/// into the query's stats.
pub struct PagedArenaSource<'a> {
    store: &'a PagedTraceStore,
    pool: &'a BufferPool<'a>,
    /// The shard whose members this source scores: its arena answers the
    /// level-1 question, its hierarchy discretises what is read.
    shard: &'a IndexSnapshot,
    /// The query's view, borrowed from its access.
    view: &'a QueryView<'a>,
    scratch: RefCell<Scratch>,
}

impl<'a> PagedArenaSource<'a> {
    /// Creates a source scoring `shard`'s members, read from `store` through
    /// `pool`, against one query's view.
    pub(crate) fn new(
        store: &'a PagedTraceStore,
        pool: &'a BufferPool<'a>,
        shard: &'a IndexSnapshot,
        view: &'a QueryView<'a>,
    ) -> Self {
        PagedArenaSource { store, pool, shard, view, scratch: RefCell::default() }
    }

    /// Adds the kernel-dispatch, buffer-pool, unreadable-candidate and
    /// avoided-read counters accumulated since the last call (or
    /// construction) to `stats`, leaving them at zero.
    pub(crate) fn drain_into(&self, stats: &mut QueryStats) {
        let scratch = &mut *self.scratch.borrow_mut();
        stats.kernel_dispatch.absorb(std::mem::take(&mut scratch.dispatch));
        stats.absorb_io(std::mem::take(&mut scratch.io));
        stats.candidates_unreadable += std::mem::take(&mut scratch.unreadable);
        stats.reads_avoided += std::mem::take(&mut scratch.reads_avoided);
    }

    /// The degree of `entity`, a member of `shard`: from the shard's
    /// resident level-1 row when that rules the candidate out, else by the
    /// fused records → rows → degree evaluation.  `None` when the store
    /// cannot produce the entity (it holds no trace for it, or the trace does
    /// not discretise); the resident row answers only for an entity the
    /// store's directory holds, so a candidate the store lacks is unreadable
    /// whatever its cells.  `track` counts the kernel dispatches (leaf
    /// evaluation and scans do; planner seeding, like its in-memory
    /// counterpart, does not).
    pub(crate) fn score(
        &self,
        shard: &IndexSnapshot,
        entity: EntityId,
        measure: &dyn AssociationMeasure,
        track: bool,
    ) -> Option<f64> {
        let Scratch { rows, overlap, dispatch, io, reads_avoided, .. } =
            &mut *self.scratch.borrow_mut();
        let arena = shard.arena();
        let resident = arena.position(entity).filter(|_| self.store.trace_pages(entity).is_some());
        let mut level_one = None;
        if let Some(pos) = resident {
            let tracked = track.then_some(&mut *dispatch);
            match arena.disjoint_degree(pos, self.view, measure, overlap, tracked) {
                Ok(degree) => {
                    *reads_avoided += 1;
                    return Some(degree);
                }
                Err(row) => level_one = Some(row),
            }
        }
        rows.clear();
        let (sp, ticks_per_unit) = (shard.sp_index(), shard.ticks_per_unit());
        let mut pushed = Ok(());
        let found = self.store.for_each_record(self.pool, entity, io, |rec| {
            if pushed.is_ok() {
                let presence = rec.to_presence();
                pushed = rows.push(sp, ticks_per_unit, presence.unit, presence.period);
            }
        });
        if !found || pushed.is_err() || rows.finish(sp).is_err() {
            return None;
        }
        debug_assert_eq!(rows.num_levels(), self.view.num_levels());
        // The shortcut above is exact only if the store holds the trace the
        // snapshot indexed: check it on every candidate that is read.
        debug_assert!(
            level_one.is_none_or(|(row, _)| row == rows.level(0)),
            "store and snapshot disagree on {entity}'s level-1 cells"
        );
        // Level 1 runs the kernel the resident test ran (its keyed row is
        // resident); the finer rows, read just now, are intersected packed.
        let keyed_one = level_one.map(|(_, keyed)| keyed);
        let tracked = track.then_some(dispatch);
        let keyed = |i: usize| keyed_one.filter(|_| i == 0);
        level_overlaps(self.view, |i| rows.level(i), keyed, overlap, tracked);
        Some(measure.degree_from_overlap(overlap))
    }
}

impl TraceSource for PagedArenaSource<'_> {
    fn degree(&self, entity: EntityId, measure: &dyn AssociationMeasure) -> Option<f64> {
        self.score(self.shard, entity, measure, true)
    }
}

impl IndexSnapshot {
    /// Answers a top-k query reading candidate traces through `pool` over `store`.
    ///
    /// The query entity must be indexed: like [`top_k`](IndexSnapshot::top_k)
    /// and the sharded paths, an entity the snapshot does not hold is
    /// [`IndexError::UnknownQueryEntity`], whatever the store holds.  The
    /// returned [`QueryStats`] additionally report the buffer-pool traffic
    /// and the simulated I/O latency of this query's own candidate reads —
    /// counted per fetch, so exact even when several threads share one pool.
    pub fn top_k_paged<M: AssociationMeasure + ?Sized>(
        &self,
        query: EntityId,
        k: usize,
        measure: &M,
        store: &PagedTraceStore,
        pool: &BufferPool<'_>,
        options: QueryOptions,
    ) -> Result<(Vec<TopKResult>, QueryStats)> {
        let query_seq = self.sequence(query).ok_or(IndexError::UnknownQueryEntity(query.raw()))?;
        let view = QueryView::new(query_seq);
        let source = PagedArenaSource::new(store, pool, self, &view);
        let request = Query { options, ..Query::new(k, measure) };
        let (results, mut stats) =
            engine::execute(self, query_seq, Some(query), &request, &source)?;
        source.drain_into(&mut stats);
        Ok((results, stats))
    }
}

impl ShardedSnapshot {
    /// Wraps this snapshot for out-of-core execution: every query path reads
    /// candidate traces through `pool` over `store` instead of the in-memory
    /// sequence maps, planned by the page-aware cost model.
    ///
    /// The store must hold the traces of the snapshot's entities (the usual
    /// arrangement: one entity-ordered store over the whole population, any
    /// shard count on top).  Per-shard page lists are precomputed here —
    /// build the wrapper once per snapshot and reuse it across queries.
    pub fn paged<'a>(
        &'a self,
        store: &'a PagedTraceStore,
        pool: &'a BufferPool<'a>,
    ) -> PagedShardedSnapshot<'a> {
        let shard_pages = self
            .shard_snapshots()
            .iter()
            .map(|shard| {
                let mut pages: Vec<PageId> = shard
                    .sequences()
                    .keys()
                    .filter_map(|&e| store.trace_pages(e))
                    .flatten()
                    .copied()
                    .collect();
                pages.sort_unstable();
                pages.dedup();
                pages
            })
            .collect();
        PagedShardedSnapshot { snapshot: self, store, pool, shard_pages }
    }
}

/// A [`ShardedSnapshot`] bound to a [`PagedTraceStore`] and a [`BufferPool`]:
/// the out-of-core sharded query session.
///
/// Entry points mirror [`ShardedSnapshot`]'s and return **bitwise-identical**
/// answers (see the [module docs](crate::paged)); the returned
/// [`QueryStats`] additionally carry the query's own buffer-pool traffic
/// ([`pool_hits`](QueryStats::pool_hits) /
/// [`pool_misses`](QueryStats::pool_misses) /
/// [`pool_evictions`](QueryStats::pool_evictions) /
/// [`simulated_io_us`](QueryStats::simulated_io_us)), exact per query even
/// when several queries share the pool concurrently.
#[derive(Debug)]
pub struct PagedShardedSnapshot<'a> {
    snapshot: &'a ShardedSnapshot,
    store: &'a PagedTraceStore,
    pool: &'a BufferPool<'a>,
    /// Per shard: the sorted distinct store pages its entities' traces span.
    shard_pages: Vec<Vec<PageId>>,
}

impl<'a> PagedShardedSnapshot<'a> {
    /// The wrapped snapshot.
    pub fn snapshot(&self) -> &'a ShardedSnapshot {
        self.snapshot
    }

    /// The buffer pool every query reads through.
    pub fn pool(&self) -> &'a BufferPool<'a> {
        self.pool
    }

    /// The backing store.
    pub fn store(&self) -> &'a PagedTraceStore {
        self.store
    }

    /// The distinct store pages shard `shard`'s traces span (sorted).
    pub fn shard_pages(&self, shard: usize) -> &[PageId] {
        &self.shard_pages[shard]
    }

    /// Answers a top-k query with the default [`Query`] — the paged
    /// counterpart of [`ShardedSnapshot::top_k`].
    pub fn top_k<M: AssociationMeasure + Sync + ?Sized>(
        &self,
        query: EntityId,
        k: usize,
        measure: &M,
    ) -> Result<(Vec<TopKResult>, QueryStats)> {
        self.query(query, &Query::new(k, measure))
    }

    /// Answers `query` for an indexed `entity`, every knob explicit — the
    /// paged counterpart of [`ShardedSnapshot::query`].
    ///
    /// The admitted shard executors are interleaved on the calling thread
    /// (see the [module docs](crate::paged) on why the fan-out is not
    /// threaded); answers are the threaded schedule's, bit for bit.
    pub fn query<M: AssociationMeasure + Sync + ?Sized>(
        &self,
        entity: EntityId,
        query: &Query<'_, M>,
    ) -> Result<(Vec<TopKResult>, QueryStats)> {
        let view = self.view(entity)?;
        drive::run(&self.access(&view, entity), query, false)
    }

    /// Answers every query of a batch in parallel, input order preserved,
    /// with the default [`Query`] — the paged counterpart of
    /// [`ShardedSnapshot::top_k_batch`].
    pub fn top_k_batch<M: AssociationMeasure + Sync + ?Sized>(
        &self,
        queries: &[EntityId],
        k: usize,
        measure: &M,
    ) -> Result<Vec<(Vec<TopKResult>, QueryStats)>> {
        self.query_batch(queries, &Query::new(k, measure))
    }

    /// Answers `query` for every entity of a batch, every knob explicit.
    /// Parallelism is over the queries; each query's admitted shard
    /// executors are interleaved sequentially on its worker, sharing one
    /// seeded bound per query (identical answers either way).  Unlike the
    /// in-memory batch, every query is planned on its own: seeding reads
    /// through the pool, so there is no position table to amortise.
    pub fn query_batch<M: AssociationMeasure + Sync + ?Sized>(
        &self,
        entities: &[EntityId],
        query: &Query<'_, M>,
    ) -> Result<Vec<(Vec<TopKResult>, QueryStats)>> {
        query.validate()?;
        let answers: Vec<Result<(Vec<TopKResult>, QueryStats)>> = entities
            .par_iter()
            .map(|&entity| {
                let view = self.view(entity)?;
                drive::run(&self.access(&view, entity), query, false)
            })
            .collect();
        answers.into_iter().collect()
    }

    /// Answers the top-k query for every probe entity — the paged
    /// counterpart of [`ShardedSnapshot::top_k_join`], with identical
    /// skip/ordering semantics (unindexed probes are counted in
    /// [`JoinStats::skipped`], output preserves probe order).
    pub fn top_k_join<M: AssociationMeasure + Sync + ?Sized>(
        &self,
        probes: &[EntityId],
        measure: &M,
        options: JoinOptions,
    ) -> Result<(Vec<JoinRow>, JoinStats)> {
        let query = Query { options: options.query, ..Query::new(options.k, measure) };
        Ok(join_probes(probes, options.threads, |probe| {
            let view = self.view(probe).ok()?;
            let (matches, stats) = drive::run(&self.access(&view, probe), &query, false).ok()?;
            Some(JoinRow { probe, matches, stats })
        }))
    }

    /// Builds — without executing — the page-aware [`QueryPlan`] the paged
    /// query paths would run: the in-memory plan's seed/skip/scan/order
    /// verdicts plus a [`PageEstimate`] per shard, all rendered by
    /// [`QueryPlan::explain`].  Seeding reads the sketch entities' traces
    /// through the pool, so explaining warms the cache the same way planning
    /// a real query does.
    pub fn explain<M: AssociationMeasure + Sync + ?Sized>(
        &self,
        query: EntityId,
        k: usize,
        measure: &M,
        planner: PlannerConfig,
    ) -> Result<QueryPlan> {
        let view = self.view(query)?;
        drive::explain(&self.access(&view, query), &Query { planner, ..Query::new(k, measure) })
    }

    /// A fresh source (own scratch, zeroed counters) scoring shard `shard`'s
    /// members against the query `view` resolves.
    fn source<'q>(&'q self, shard: usize, view: &'q QueryView<'q>) -> PagedArenaSource<'q> {
        PagedArenaSource::new(self.store, self.pool, &self.snapshot.shard_snapshots()[shard], view)
    }

    /// How `entity`'s query, whose sequence `view` resolves, reads this
    /// session's shards.
    pub(crate) fn access<'q>(
        &'q self,
        view: &'q QueryView<'q>,
        entity: EntityId,
    ) -> PagedAccess<'q> {
        PagedAccess { paged: self, view, entity, source: self.source(0, view) }
    }

    /// The view of the query entity's sequence, from the snapshot's
    /// in-memory map (an indexed entity always has one).  Error parity with
    /// the in-memory path: an entity the snapshot does not index is
    /// [`IndexError::UnknownQueryEntity`], whatever the store holds.
    fn view(&self, query: EntityId) -> Result<QueryView<'a>> {
        let sequence =
            self.snapshot.sequence(query).ok_or(IndexError::UnknownQueryEntity(query.raw()))?;
        Ok(QueryView::new(sequence))
    }
}

/// Out-of-core [`ShardAccess`]: every candidate trace is read through the
/// buffer pool.  Seeding runs through the access's own source; every scan
/// and every tree executor gets one more.
pub(crate) struct PagedAccess<'q> {
    paged: &'q PagedShardedSnapshot<'q>,
    /// The query's one view, lent to every source.
    view: &'q QueryView<'q>,
    entity: EntityId,
    /// Seeding's source; each call names the shard it scores.
    source: PagedArenaSource<'q>,
}

impl<'q> ShardAccess<'q> for PagedAccess<'q> {
    type Source = PagedArenaSource<'q>;

    fn shards(&self) -> &'q [Arc<IndexSnapshot>] {
        self.paged.snapshot.shard_snapshots()
    }

    fn sequence(&self) -> &'q CellSetSequence {
        self.view.sequence()
    }

    fn entity(&self) -> EntityId {
        self.entity
    }

    fn seed<M: AssociationMeasure + ?Sized>(
        &self,
        shard: usize,
        measure: &M,
        _scratch: &mut LevelOverlap,
        mut offer: impl FnMut(EntityId, f64),
    ) {
        for &hot in self.shards()[shard].synopsis().hot_entities() {
            if hot == self.entity {
                continue;
            }
            if let Some(degree) = self.source.score(&self.shards()[shard], hot, &measure, false) {
                offer(hot, degree);
            }
        }
    }

    /// Probed against the pool in one lock.
    fn pages(&self, shard: usize) -> Option<PageEstimate> {
        let pages = &self.paged.shard_pages[shard];
        Some(PageEstimate {
            total_pages: pages.len(),
            resident_pages: self.paged.pool.resident_count(pages),
        })
    }

    fn miss_latency_us(&self) -> u64 {
        self.paged.pool.config().miss_latency_us
    }

    fn pin_query(&self) -> Option<PinnedPages<'q, 'q>> {
        self.paged.store.pin_trace(self.paged.pool, self.entity)
    }

    fn scan<M: AssociationMeasure + ?Sized>(
        source: &PagedArenaSource<'q>,
        shard: &IndexSnapshot,
        exclude: EntityId,
        rate: Option<f64>,
        query: &Query<'_, M>,
    ) -> (Vec<TopKResult>, usize) {
        let hot = shard.synopsis().hot_entities();
        let mut top = TopKHeap::new(query.k);
        let mut checked = 0usize;
        for &entity in shard.sequences().keys() {
            if entity == exclude || !plan::scan_admits(rate, hot, entity) {
                continue;
            }
            let Some(degree) = source.degree(entity, &query.measure) else {
                source.scratch.borrow_mut().unreadable += 1;
                continue;
            };
            checked += 1;
            top.offer(entity, degree);
        }
        (top.into_sorted(), checked)
    }

    fn source(&self, shard: usize) -> PagedArenaSource<'q> {
        self.paged.source(shard, self.view)
    }

    fn drain_source(source: &PagedArenaSource<'q>, stats: &mut QueryStats) {
        source.drain_into(stats);
    }

    fn drain(&self, stats: &mut QueryStats) {
        self.source.drain_into(stats);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::IndexConfig;
    use crate::index::MinSigIndex;
    use trace_model::{PaperAdm, Period, PresenceInstance, SpIndex, TraceSet};
    use trace_storage::PoolConfig;

    /// The owned decode path — read the whole trace, discretise it with
    /// `cell_sequence`, score the sequence through the measure — kept as the
    /// bitwise oracle of [`PagedArenaSource`].
    struct PagedSource<'a> {
        store: &'a PagedTraceStore,
        pool: &'a BufferPool<'a>,
        sp: &'a SpIndex,
        ticks_per_unit: u64,
        query: &'a CellSetSequence,
    }

    impl TraceSource for PagedSource<'_> {
        fn degree(&self, entity: EntityId, measure: &dyn AssociationMeasure) -> Option<f64> {
            let trace = self.store.read_trace(self.pool, entity)?;
            let seq = trace.cell_sequence(self.sp, self.ticks_per_unit).ok()?;
            Some(measure.degree(self.query, &seq))
        }
    }

    fn dataset(pairs: usize) -> (SpIndex, TraceSet) {
        let sp = SpIndex::uniform(2, &[4, 4]).unwrap();
        let base = sp.base_units().to_vec();
        let mut traces = TraceSet::new(60);
        for i in 0..pairs {
            for member in 0..2u64 {
                let entity = EntityId(2 * i as u64 + member);
                for step in 0..8u64 {
                    let unit = base[(i * 5 + step as usize) % base.len()];
                    let start = step * 240;
                    traces.record(PresenceInstance::new(
                        entity,
                        unit,
                        Period::new(start, start + 60).unwrap(),
                    ));
                }
            }
        }
        (sp, traces)
    }

    #[test]
    fn paged_and_in_memory_queries_agree() {
        let (sp, traces) = dataset(20);
        let index = MinSigIndex::build(&sp, &traces, IndexConfig::with_hash_functions(64)).unwrap();
        let store = PagedTraceStore::build(&traces, 4);
        let pool = store.pool(PoolConfig::default());
        let measure = PaperAdm::default_for(sp.height() as usize);
        let mut total_misses = 0;
        for query in [0u64, 9, 21] {
            let (mem, _) = index.top_k(EntityId(query), 5, &measure).unwrap();
            let (paged, stats) = index
                .top_k_paged(EntityId(query), 5, &measure, &store, &pool, QueryOptions::default())
                .unwrap();
            assert_eq!(mem.len(), paged.len());
            for (a, b) in mem.iter().zip(paged.iter()) {
                assert!((a.degree - b.degree).abs() < 1e-9);
            }
            total_misses += stats.pool_misses;
        }
        assert!(total_misses > 0, "cold pages must have been read at least once");
    }

    #[test]
    fn smaller_memory_budget_costs_more_simulated_io() {
        let (sp, traces) = dataset(150);
        let index = MinSigIndex::build(&sp, &traces, IndexConfig::with_hash_functions(32)).unwrap();
        let store = PagedTraceStore::build(&traces, 8);
        let measure = PaperAdm::default_for(sp.height() as usize);
        let queries: Vec<EntityId> = (0..40u64).map(EntityId).collect();

        let mut io = Vec::new();
        for fraction in [0.05f64, 1.0] {
            let pool = store.pool(PoolConfig::with_memory_fraction(store.data_bytes(), fraction));
            let mut total = 0u64;
            // Two passes so the large pool can profit from caching.
            for _ in 0..2 {
                for &q in &queries {
                    let (_, stats) = index
                        .top_k_paged(q, 10, &measure, &store, &pool, QueryOptions::default())
                        .unwrap();
                    total += stats.simulated_io_us;
                }
            }
            io.push(total);
        }
        assert!(
            io[0] > io[1],
            "a 5% budget should cost more simulated I/O than 100% ({} vs {})",
            io[0],
            io[1]
        );
    }

    #[test]
    fn unknown_query_entity_is_reported() {
        let (sp, traces) = dataset(3);
        let index = MinSigIndex::build(&sp, &traces, IndexConfig::default()).unwrap();
        let store = PagedTraceStore::build(&traces, 4);
        let pool = store.pool(PoolConfig::default());
        let measure = PaperAdm::default_for(sp.height() as usize);
        let err = index
            .top_k_paged(EntityId(9999), 1, &measure, &store, &pool, QueryOptions::default())
            .unwrap_err();
        assert!(matches!(err, crate::error::IndexError::UnknownQueryEntity(9999)));
    }

    /// An entity the store holds but the index does not is no query entity:
    /// every path — unsharded and sharded, in memory and paged — says so,
    /// none reads its trace from the store instead.
    #[test]
    fn an_entity_only_the_store_holds_is_unknown_on_every_path() {
        let (sp, traces) = dataset(6);
        let ghost = EntityId(5);
        let mut indexed = traces.clone();
        indexed.remove(ghost);
        let index = MinSigIndex::build(&sp, &indexed, IndexConfig::default()).unwrap();
        let sharded =
            crate::shard::ShardedMinSigIndex::build(&sp, &indexed, IndexConfig::default(), 3)
                .unwrap();
        let snapshot = sharded.snapshot();
        let store = PagedTraceStore::build(&traces, 4);
        assert!(store.trace_pages(ghost).is_some(), "the store holds the ghost's trace");
        let pool = store.pool(PoolConfig::default());
        let measure = PaperAdm::default_for(sp.height() as usize);
        let query = Query::new(3, &measure);
        let unknown = |result: Result<(Vec<TopKResult>, QueryStats)>, path: &str| {
            assert!(matches!(result, Err(IndexError::UnknownQueryEntity(5))), "{path}: {result:?}");
        };
        unknown(index.top_k(ghost, 3, &measure), "top_k");
        let options = QueryOptions::default();
        unknown(index.top_k_paged(ghost, 3, &measure, &store, &pool, options), "top_k_paged");
        unknown(snapshot.query(ghost, &query), "sharded query");
        unknown(snapshot.paged(&store, &pool).query(ghost, &query), "paged sharded query");
        assert_eq!(pool.stats().hits + pool.stats().misses, 0, "nothing was read");
    }

    #[test]
    fn paged_sharded_matches_in_memory_sharded_bitwise() {
        let (sp, traces) = dataset(40);
        let sharded =
            crate::shard::ShardedMinSigIndex::build(&sp, &traces, IndexConfig::default(), 4)
                .unwrap();
        let snapshot = sharded.snapshot();
        let store = PagedTraceStore::build(&traces, 4);
        let pool = store.pool(trace_storage::PoolConfig {
            capacity_bytes: 3 * trace_storage::PAGE_SIZE,
            ..Default::default()
        });
        let paged = snapshot.paged(&store, &pool);
        let measure = PaperAdm::default_for(sp.height() as usize);
        for query in [0u64, 7, 33, 79] {
            let (mem, _) = snapshot.top_k(EntityId(query), 5, &measure).unwrap();
            let (out, stats) = paged.top_k(EntityId(query), 5, &measure).unwrap();
            assert_eq!(mem, out, "query {query}: paged answers must be bitwise identical");
            assert!(
                stats.pool_hits + stats.pool_misses > 0,
                "paged query must account its pool traffic"
            );
        }
    }

    /// A paged query is one schedule on one thread: the order its candidates
    /// reach the pool is fixed, so on a pool far smaller than the data even
    /// the hit / miss / eviction counts repeat exactly — run to run, and
    /// against the batch path, which always drove its queries this way.
    /// (A threaded fan-out interleaves the shards' reads by timing, and
    /// these counts then differ between runs on any multi-core machine.)
    #[test]
    fn a_paged_query_repeats_its_work_and_io_exactly() {
        let (sp, traces) = dataset(40);
        let sharded =
            crate::shard::ShardedMinSigIndex::build(&sp, &traces, IndexConfig::default(), 4)
                .unwrap();
        let snapshot = sharded.snapshot();
        let store = PagedTraceStore::build(&traces, 4);
        let measure = PaperAdm::default_for(sp.height() as usize);
        let query = Query::new(5, &measure);
        let counters = |stats: &QueryStats| {
            (
                [stats.nodes_visited, stats.entities_checked, stats.subtrees_pruned, stats.steps],
                [stats.bound_updates, stats.pool_hits, stats.pool_misses, stats.pool_evictions],
                stats.kernel_dispatch,
            )
        };
        let cold_pool = || {
            store.pool(trace_storage::PoolConfig {
                capacity_bytes: 2 * trace_storage::PAGE_SIZE,
                ..Default::default()
            })
        };
        for entity in [0u64, 7, 33, 79].map(EntityId) {
            let pool = cold_pool();
            let (first, first_stats) = snapshot.paged(&store, &pool).query(entity, &query).unwrap();
            assert!(first_stats.pool_evictions > 0, "the pool must be under pressure");
            for _ in 0..3 {
                let pool = cold_pool();
                let (again, stats) = snapshot.paged(&store, &pool).query(entity, &query).unwrap();
                assert_eq!(first, again);
                assert_eq!(counters(&first_stats), counters(&stats), "query {entity}");
            }
            let pool = cold_pool();
            let batch = snapshot.paged(&store, &pool).query_batch(&[entity], &query).unwrap();
            assert_eq!(first, batch[0].0);
            assert_eq!(counters(&first_stats), counters(&batch[0].1), "query {entity} vs batch");
        }
    }

    #[test]
    fn paged_sharded_batch_and_join_match_in_memory() {
        let (sp, traces) = dataset(30);
        let sharded =
            crate::shard::ShardedMinSigIndex::build(&sp, &traces, IndexConfig::default(), 3)
                .unwrap();
        let snapshot = sharded.snapshot();
        let store = PagedTraceStore::build(&traces, 4);
        let pool = store.pool(trace_storage::PoolConfig {
            capacity_bytes: 2 * trace_storage::PAGE_SIZE,
            ..Default::default()
        });
        let paged = snapshot.paged(&store, &pool);
        let measure = PaperAdm::default_for(sp.height() as usize);
        let queries: Vec<EntityId> = [1u64, 12, 25, 44].map(EntityId).to_vec();

        let mem_batch = snapshot.top_k_batch(&queries, 4, &measure).unwrap();
        let paged_batch = paged.top_k_batch(&queries, 4, &measure).unwrap();
        for ((mem, _), (out, _)) in mem_batch.iter().zip(paged_batch.iter()) {
            assert_eq!(mem, out);
        }

        // Join, probe list including one unindexed probe that must be skipped
        // identically on both paths.
        let probes: Vec<EntityId> = [3u64, 9999, 18].map(EntityId).to_vec();
        let options = JoinOptions { k: 3, ..JoinOptions::default() };
        let (mem_rows, mem_join) = snapshot.top_k_join(&probes, &measure, options).unwrap();
        let (rows, join) = paged.top_k_join(&probes, &measure, options).unwrap();
        assert_eq!(mem_rows.len(), rows.len());
        assert_eq!(mem_join.skipped, join.skipped);
        for (a, b) in mem_rows.iter().zip(rows.iter()) {
            assert_eq!(a.probe, b.probe);
            assert_eq!(a.matches, b.matches);
        }
    }

    /// The fused source against its oracle — the test-local `PagedSource`
    /// decodes an owned trace and discretises it with `cell_sequence` —
    /// degree by degree and through the executor; and its per-query counters
    /// against the pool's.
    #[test]
    fn fused_source_matches_the_cell_sequence_oracle_and_counts_its_own_io() {
        let (sp, traces) = dataset(60);
        let index = MinSigIndex::build(&sp, &traces, IndexConfig::default()).unwrap();
        let snapshot = index.snapshot();
        let (sp, ticks) = (snapshot.sp_index(), snapshot.ticks_per_unit());
        let store = PagedTraceStore::build(&traces, 4);
        let pool = store.pool(PoolConfig {
            capacity_bytes: 2 * trace_storage::PAGE_SIZE,
            ..Default::default()
        });
        let measure = PaperAdm::default_for(sp.height() as usize);
        let query_seq = snapshot.sequence(EntityId(0)).unwrap();
        let view = QueryView::new(query_seq);
        let source = PagedArenaSource::new(&store, &pool, &snapshot, &view);
        let fused: Vec<f64> =
            (0..120u64).map(|e| source.degree(EntityId(e), &measure).expect("stored")).collect();
        assert!(source.degree(EntityId(9999), &measure).is_none());
        // Untracked scoring (planner seeding) reads pages but counts no kernels.
        assert!(source.score(&snapshot, EntityId(3), &measure, false).is_some());
        let mut stats = QueryStats::default();
        source.drain_into(&mut stats);
        let issued: u64 = (0..120u64)
            .map(|e| {
                let candidate = snapshot.sequence(EntityId(e)).unwrap();
                crate::testkit::issued_intersections(query_seq, candidate)
            })
            .sum();
        assert_eq!(stats.kernel_dispatch.total(), issued, "one per level up to the first empty");
        let global = pool.stats();
        assert_eq!(
            (stats.pool_hits, stats.pool_misses, stats.pool_evictions, stats.simulated_io_us),
            (global.hits, global.misses, global.evictions, global.simulated_us),
            "the only client's counters are the pool's"
        );
        assert!(stats.pool_evictions > 0, "a 2-frame pool under 120 traces must evict");
        let mut again = QueryStats::default();
        source.drain_into(&mut again);
        assert_eq!((again.kernel_dispatch.total(), again.pool_hits + again.pool_misses), (0, 0));

        let oracle =
            |query| PagedSource { store: &store, pool: &pool, sp, ticks_per_unit: ticks, query };
        for (e, fused) in fused.iter().enumerate() {
            let owned = oracle(query_seq).degree(EntityId(e as u64), &measure).unwrap();
            assert_eq!(fused.to_bits(), owned.to_bits(), "entity {e}");
        }
        for query in [7u64, 33, 79].map(EntityId) {
            let options = QueryOptions::default();
            let (fused, fused_stats) =
                snapshot.top_k_paged(query, 5, &measure, &store, &pool, options).unwrap();
            let sequence = snapshot.sequence(query).unwrap();
            let (owned, owned_stats) = engine::execute(
                &snapshot,
                sequence,
                Some(query),
                &Query { options, ..Query::new(5, &measure) },
                &oracle(sequence),
            )
            .unwrap();
            assert_eq!(fused, owned, "query {query}: fused rows must equal the oracle bitwise");
            assert_eq!(fused_stats.entities_checked, owned_stats.entities_checked);
            assert_eq!(owned_stats.kernel_dispatch.total(), 0, "the oracle counts no kernels");
            assert_eq!(pool.pinned_frames(), 0, "candidate pages are pinned only transiently");
        }
    }

    /// Traces on four interleaved time grids: an entity shares no time unit,
    /// so no level-1 cell, with the three quarters of the population on the
    /// other grids.
    fn disjoint_dataset(entities: u64) -> (SpIndex, TraceSet) {
        let sp = SpIndex::uniform(2, &[4, 4]).unwrap();
        let base = sp.base_units().to_vec();
        let mut traces = TraceSet::new(60);
        for e in 0..entities {
            for step in 0..6u64 {
                let unit = base[(e / 4 * 3 + step) as usize % base.len()];
                let start = (step * 4 + e % 4) * 60;
                let period = Period::new(start, start + 60).unwrap();
                traces.record(PresenceInstance::new(EntityId(e), unit, period));
            }
        }
        (sp, traces)
    }

    /// The resident level-1 answer against the oracle and against the same
    /// source with the shortcut off (an empty arena): degree bits equal for
    /// every candidate, dispatch equal, and the pages not read are exactly
    /// the level-1-disjoint candidates' pages.
    #[test]
    fn level_one_disjoint_candidates_are_scored_without_a_read() {
        let (sp, traces) = disjoint_dataset(48);
        let index = MinSigIndex::build(&sp, &traces, IndexConfig::default()).unwrap();
        let snapshot = index.snapshot();
        let off = (*snapshot).clone().with_arena(crate::kernel::CandidateArena::default());
        let store = PagedTraceStore::build(&traces, 4);
        let pool = store.pool(PoolConfig {
            capacity_bytes: 2 * trace_storage::PAGE_SIZE,
            ..Default::default()
        });
        let measure = PaperAdm::default_for(sp.height() as usize);
        let pages = |e: EntityId| store.trace_pages(e).unwrap().len() as u64;
        for query in [0u64, 5, 22, 47].map(EntityId) {
            let query_seq = snapshot.sequence(query).unwrap();
            let oracle = PagedSource {
                store: &store,
                pool: &pool,
                sp: snapshot.sp_index(),
                ticks_per_unit: snapshot.ticks_per_unit(),
                query: query_seq,
            };
            let view = QueryView::new(query_seq);
            let on = PagedArenaSource::new(&store, &pool, &snapshot, &view);
            let shortcut_off = PagedArenaSource::new(&store, &pool, &off, &view);
            let (mut disjoint, mut issued, mut read_pages, mut all_pages) = (0, 0, 0, 0);
            let mut keyed = 0;
            for (&entity, seq) in snapshot.sequences() {
                let owned = oracle.degree(entity, &measure).unwrap().to_bits();
                let fused = on.degree(entity, &measure).unwrap().to_bits();
                let read = shortcut_off.degree(entity, &measure).unwrap().to_bits();
                assert_eq!((fused, read), (owned, owned), "query {query}, candidate {entity}");
                issued += crate::testkit::issued_intersections(query_seq, seq);
                keyed += crate::testkit::keyed_at_level_one(query_seq, seq);
                all_pages += pages(entity);
                if seq.level(1).intersection_len(query_seq.level(1)) == 0 {
                    disjoint += 1;
                } else {
                    read_pages += pages(entity);
                }
            }
            let (mut with, mut without) = (QueryStats::default(), QueryStats::default());
            on.drain_into(&mut with);
            shortcut_off.drain_into(&mut without);
            assert!(disjoint > snapshot.sequences().len() / 2, "query {query}: {disjoint}");
            // The same intersections; with resident rows level 1 runs keyed
            // where the rule says so, without them everything is packed.
            let total = |s: &QueryStats| s.kernel_dispatch.total();
            assert_eq!(total(&with), total(&without), "query {query}");
            assert_eq!(with.kernel_dispatch.total(), issued, "query {query}");
            assert_eq!((with.kernel_dispatch.keyed, without.kernel_dispatch.keyed), (keyed, 0));
            assert_eq!((with.reads_avoided, without.reads_avoided), (disjoint, 0));
            assert_eq!(with.pool_hits + with.pool_misses, read_pages, "query {query}");
            assert_eq!(without.pool_hits + without.pool_misses, all_pages, "query {query}");
            assert!(read_pages < all_pages);
        }
    }

    /// Through the executor: the paged single-tree query answers like the
    /// in-memory one — answers, work and dispatch — with or without the
    /// shortcut, and with it reads strictly fewer pages.
    #[test]
    fn the_resident_level_one_answer_changes_io_only() {
        let (sp, traces) = disjoint_dataset(48);
        let index = MinSigIndex::build(&sp, &traces, IndexConfig::default()).unwrap();
        let snapshot = index.snapshot();
        let off = (*snapshot).clone().with_arena(crate::kernel::CandidateArena::default());
        let store = PagedTraceStore::build(&traces, 4);
        let measure = PaperAdm::default_for(sp.height() as usize);
        let options = QueryOptions::default();
        for k in [3usize, 48] {
            for query in [1u64, 14, 30].map(EntityId) {
                let (mem, mem_stats) = snapshot.top_k(query, k, &measure).unwrap();
                let pool = store.pool(PoolConfig::default());
                let (on, on_stats) =
                    snapshot.top_k_paged(query, k, &measure, &store, &pool, options).unwrap();
                let pool = store.pool(PoolConfig::default());
                let (read, off_stats) =
                    off.top_k_paged(query, k, &measure, &store, &pool, options).unwrap();
                let context = format!("k {k}, query {query}");
                assert_eq!(on, mem, "{context}");
                assert_eq!(read, mem, "{context}");
                for stats in [on_stats, off_stats] {
                    assert_eq!(stats.entities_checked, mem_stats.entities_checked, "{context}");
                    assert_eq!(stats.nodes_visited, mem_stats.nodes_visited, "{context}");
                    let total = |s: &QueryStats| s.kernel_dispatch.total();
                    assert_eq!(total(&stats), total(&mem_stats), "{context}");
                }
                // Only level 1 may run keyed out of core (its row is
                // resident; finer rows come from pages), and nothing does
                // without resident rows.
                let keyed = |s: &QueryStats| s.kernel_dispatch.keyed;
                assert!(keyed(&on_stats) <= keyed(&mem_stats), "{context}");
                assert_eq!(keyed(&off_stats), 0, "{context}");
                assert_eq!((mem_stats.reads_avoided, off_stats.reads_avoided), (0, 0));
                assert!(on_stats.reads_avoided > 0, "{context}");
                let traffic = |s: &QueryStats| s.pool_hits + s.pool_misses;
                assert!(traffic(&on_stats) < traffic(&off_stats), "{context}");
            }
        }
    }

    #[test]
    fn paged_explain_reports_page_estimates() {
        let (sp, traces) = dataset(25);
        let sharded =
            crate::shard::ShardedMinSigIndex::build(&sp, &traces, IndexConfig::default(), 3)
                .unwrap();
        let snapshot = sharded.snapshot();
        let store = PagedTraceStore::build(&traces, 4);
        let pool = store.pool(trace_storage::PoolConfig::default());
        let paged = snapshot.paged(&store, &pool);
        let measure = PaperAdm::default_for(sp.height() as usize);

        let plan = paged.explain(EntityId(4), 5, &measure, PlannerConfig::default()).unwrap();
        let rendered = plan.explain();
        assert!(rendered.contains("pages="), "explain must surface page estimates: {rendered}");
        for shard_plan in &plan.shards {
            let pages = shard_plan.pages.expect("paged plans carry a page estimate per shard");
            assert_eq!(
                pages.total_pages,
                paged.shard_pages(shard_plan.shard).len(),
                "estimate totals come from the shard's page directory"
            );
            assert!(pages.resident_pages <= pages.total_pages);
        }

        // A k above every sketch candidate seeds nothing; the plan is still
        // estimated, and the unseeded paged path agrees with the in-memory one.
        let unseeded = paged.explain(EntityId(4), 60, &measure, PlannerConfig::default()).unwrap();
        assert!(!unseeded.seeded());
        assert!(unseeded.shards.iter().all(|s| s.pages.is_some()));
        let (mem, _) = snapshot.top_k(EntityId(4), 60, &measure).unwrap();
        let (out, _) = paged.top_k(EntityId(4), 60, &measure).unwrap();
        assert_eq!(mem, out);
    }
}
