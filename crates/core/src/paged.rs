//! Out-of-core query processing: a candidate's finer cell rows are read
//! through a bounded buffer pool instead of from the in-memory arena.
//!
//! This is the query path exercised by the Figure 7.6 experiment ("search time
//! vs. memory size"): the MinSigTree itself and the hash functions stay in
//! memory (Section 4.3's minimum memory requirement), but the data needed to
//! compute exact association degrees at the leaves lives on the (virtual)
//! disk, so a smaller buffer budget translates into more page misses and a
//! longer simulated search time.
//!
//! ## The session
//!
//! [`ShardedSnapshot::paged`] binds a sharded snapshot, a [`PagedTraceStore`]
//! and a [`BufferPool`] over the store's disk into a [`PagedShardedSnapshot`].
//! Building it writes, per shard, the keyed rows of levels 2..m of every
//! member — the arena's own keyed rows, copied, not converted again — as one
//! run of word pages ([`WordPages`]) on the store's disk: keys then masks per
//! row, in arena order.  The session keeps one `u32` start per arena
//! position in memory.  Every member gets its rows, whatever the store's
//! directory holds: the rows are copied from the arena, and the store only
//! supplies the disk.  Dropping the session frees its pages; the disk never
//! hands a page id out twice, so a pool's frames of freed pages are only
//! ever evicted, never read.
//!
//! Its entry points mirror the in-memory ones (`top_k`, `query`, batches,
//! joins, `explain`) and run the **same** planner body and the same drive;
//! only the `ShardAccess` differs — finer rows are read through the pool,
//! and nothing about the pool reaches the plan, which is the in-memory plan
//! at any residency (see [`crate::plan`]).  Answers are **bitwise identical** to the
//! in-memory sharded, unsharded and brute-force paths — any shard count, any
//! pool size, any [`ReplacerPolicy`](trace_storage::ReplacerPolicy)
//! (`tests/paged_conformance.rs` proptests exactly this) — and so is the
//! work: `entities_checked` and every kernel-dispatch class equal the
//! in-memory query's.  Like every sharded query, a paged one scans each
//! admitted shard; it opens no tree.
//!
//! ## Who owns what during a query
//!
//! * **Resident rows.**  A candidate's level-1 row, in both forms, the
//!   level-1 and level-2 postings and the lengths of all its rows are the
//!   shard's in-memory [`CandidateArena`]'s — immutable, shared by every
//!   source without a lock.  A flat scan reads every member's level-1 and
//!   level-2 overlaps from the postings in one walk over the query's keys of
//!   those levels (the in-memory scan's loop, `CandidateArena::flat_scan`),
//!   and skips the members sharing no level-1 cell once its top k is
//!   strictly above what they can score; a seed candidate intersects its
//!   resident level-1 row.  A scanned member sharing no level-2 cell with
//!   the query, or a seed candidate sharing no level-1 cell, shares nothing
//!   finer, so its degree follows from what is resident and no page is
//!   requested ([`QueryStats::reads_avoided`]).
//! * **Pages.**  Any other candidate's span of the shard's run — usually
//!   within one page, at most a few — is copied out of the pool into the
//!   source's scratch and the loop goes on over it
//!   (`CandidateArena::paged_overlaps`): keyed where [`row_class`] says
//!   keyed, and where it says packed over the row expanded back to packed
//!   cells in scratch.  The row lengths [`row_class`] weighs are the
//!   resident ones, so each level runs the kernel the in-memory query runs.
//! * **Pins.**  The pool has none.  A fetch hands out the page's frozen
//!   bytes, valid even after the frame is evicted, and the span is copied out
//!   at once, so nothing is held across a candidate.
//! * **Scratch.**  Every shard scan gets its own `PagedArenaSource`, the
//!   planner one more for seeding.  A source owns the span and expansion
//!   buffers, the overlap scratch, a scan's per-position level-1 and level-2
//!   counters, and the kernel-dispatch and buffer-pool counters for the work
//!   *it* did; a scan runs on one worker, so none of it is locked and
//!   nothing is allocated per candidate.  The counters are summed into
//!   the query's [`QueryStats`] at merge — exact per query however many
//!   queries share the pool.
//! * **Locks.**  The only lock a candidate read takes is the pool mutex,
//!   around frame-table bookkeeping only (see [`trace_storage::pool`]): once
//!   per page on a hit, twice on a miss (look up, then publish, with the
//!   disk's own lock between).
//! * **Threads.**  One query runs on its caller's thread: the shard scans
//!   run one after another there, as on the batch and join paths (those
//!   parallelise over queries).  Every read goes
//!   through the one pool mutex, and with the degree itself down to a
//!   fraction of a microsecond that bookkeeping — frame table, replacer, the
//!   evicted page's free — is a large share of a read candidate's cost and
//!   all of it is shared state.  Two workers mostly traded its cache lines:
//!   measured when a read still decoded records and took the mutex three
//!   times, on the 5 000-entity SYN population (4 shards, pool a tenth of
//!   the data, 2 vCPUs), a threaded fan-out answered in 34–36 ms for whole
//!   stretches and in 23–25 ms for others (time under the pool mutex 24 ms
//!   against 10 ms of thread time per query, by where the hypervisor had
//!   put the two vCPUs), a single thread in a steady 29–30 ms.  A query that
//!   costs the same every time beats one that is sometimes a quarter faster;
//!   a pool that scales across workers is the precondition for threading
//!   this again.
//!
//! [`row_class`]: trace_model::kernel::row_class

use crate::config::PlannerConfig;
use crate::drive::{self, ShardAccess};
use crate::error::{IndexError, Result};
use crate::join::{join_probes, JoinOptions, JoinRow, JoinStats};
use crate::kernel::{CandidateArena, LevelCounts, QueryView, RowScratch};
use crate::plan::{self, QueryPlan};
use crate::query::{Query, TopKResult};
use crate::shard::{shard_of, ShardedSnapshot};
use crate::snapshot::IndexSnapshot;
use crate::stats::{KernelDispatch, QueryStats};
use rayon::prelude::*;
use std::cell::RefCell;
use std::ops::Range;
use std::sync::Arc;
use trace_model::ajpi::LevelOverlap;
use trace_model::{AssociationMeasure, CellSetSequence, EntityId};
use trace_storage::{BufferPool, PageId, PagedTraceStore, PoolStats, VirtualDisk, WordPages};

/// What one [`PagedArenaSource`] reuses across candidates and counts for its
/// query.
#[derive(Debug, Default)]
struct Scratch {
    rows: RowScratch,
    dispatch: KernelDispatch,
    io: PoolStats,
    /// Candidates scored from their resident rows alone, no page read.
    reads_avoided: usize,
}

/// One shard's keyed rows of levels 2..m, on the store's disk.
#[derive(Debug)]
struct RowSegment<'a> {
    /// Per arena position, the word its rows start at in `pages`.
    starts: Vec<u32>,
    pages: WordPages<'a>,
}

impl<'a> RowSegment<'a> {
    /// Writes every member's rows of `shard` onto `disk`, in arena order.
    fn write(shard: &IndexSnapshot, disk: &'a VirtualDisk) -> Self {
        let arena = shard.arena();
        let mut words = Vec::new();
        let starts = (0..arena.len())
            .map(|pos| {
                let start = u32::try_from(words.len())
                    .expect("a shard's rows are addressable by u32 words");
                arena.push_finer_rows(pos, &mut words);
                start
            })
            .collect();
        RowSegment { starts, pages: WordPages::write(disk, &words) }
    }

    /// The words of the rows of the entity at `pos` of `arena` (this
    /// segment's shard's).
    fn span(&self, arena: &CandidateArena, pos: usize) -> Range<usize> {
        let start = self.starts[pos] as usize;
        start..start + arena.finer_words(pos)
    }
}

/// What scores one shard's members out of core: the counterpart of
/// [`ArenaSource`](crate::kernel::ArenaSource), running the same per-level
/// kernel loop over the resident level-1 row and the finer rows its session
/// keeps on pages (see the [module docs](self)).
///
/// A degree is **bitwise identical** to `measure.degree(query, seq)` over the
/// entity's sequence: the loop hands the measure the same integer per-level
/// [`LevelStat`](trace_model::ajpi::LevelStat)s whichever form each row was
/// read in.
///
/// Like `ArenaSource`, the scratch and the per-query counters live in a
/// single-threaded cell: the source is `Send` but deliberately not `Sync`,
/// one per scan.  `drain_into` moves the counters into the query's stats.
pub(crate) struct PagedArenaSource<'a> {
    paged: &'a PagedShardedSnapshot<'a>,
    /// The shard whose members [`scan`](Self::scan) scores.
    shard: usize,
    /// The query's view, borrowed from its access.
    view: &'a QueryView<'a>,
    scratch: RefCell<Scratch>,
    /// A flat scan's per-position level-1 and level-2 overlaps.
    counts: RefCell<Vec<LevelCounts>>,
}

impl<'a> PagedArenaSource<'a> {
    /// Adds the kernel-dispatch, buffer-pool and avoided-read counters
    /// accumulated since the last call (or construction) to `stats`, leaving
    /// them at zero.
    pub(crate) fn drain_into(&self, stats: &mut QueryStats) {
        let scratch = &mut *self.scratch.borrow_mut();
        stats.kernel_dispatch.absorb(std::mem::take(&mut scratch.dispatch));
        stats.absorb_io(std::mem::take(&mut scratch.io));
        stats.reads_avoided += std::mem::take(&mut scratch.reads_avoided);
    }

    /// The degree of the member at arena position `pos` of shard `shard`,
    /// past the levels whose overlaps are `known`.  `track` counts the
    /// kernel dispatches (scans do; planner seeding, like its in-memory
    /// counterpart, does not).
    fn score<M: AssociationMeasure + ?Sized>(
        &self,
        shard: usize,
        pos: usize,
        known: &[usize],
        measure: &M,
        track: bool,
    ) -> f64 {
        let (arena, segment) =
            (self.paged.snapshot.shard(shard).arena(), &self.paged.segments[shard]);
        let span = segment.span(arena, pos);
        let Scratch { rows, dispatch, io, reads_avoided } = &mut *self.scratch.borrow_mut();
        let pool = self.paged.pool;
        let read = |words: &mut Vec<u64>| segment.pages.read(pool, span, words, io);
        let dispatch = track.then_some(dispatch);
        if !arena.paged_overlaps(pos, self.view, known, read, rows, dispatch) {
            *reads_avoided += 1;
        }
        measure.degree_from_overlap(rows.overlap())
    }

    /// The source's shard's flat scan ([`CandidateArena::flat_scan`]): every
    /// member it scores is scored from level 3 on with its level-1 and
    /// level-2 overlaps from the postings, so a member sharing no level-2
    /// cell is neither intersected nor read.
    fn scan<M: AssociationMeasure + ?Sized>(
        &self,
        k: usize,
        measure: &M,
        admit: impl Fn(EntityId) -> bool,
    ) -> (Vec<TopKResult>, usize) {
        let arena = self.paged.snapshot.shard(self.shard).arena();
        let counts = &mut *self.counts.borrow_mut();
        arena.flat_scan(self.view, measure, counts, k, admit, |pos, known| {
            self.score(self.shard, pos, known, measure, true)
        })
    }
}

impl ShardedSnapshot {
    /// Binds this snapshot to `store` and `pool` for out-of-core execution:
    /// every query path of the returned session reads candidates' finer rows
    /// through `pool`, planned as in memory.
    ///
    /// Building the session writes every shard's rows of levels 2..m to
    /// `store`'s disk (see the [module docs](crate::paged)), which the
    /// session frees when dropped — build it once per snapshot and reuse it
    /// across queries.  `pool` must be a pool over `store`'s disk; the
    /// session holds rows for every member, whatever `store`'s directory
    /// holds.
    pub fn paged<'a>(
        &'a self,
        store: &'a PagedTraceStore,
        pool: &'a BufferPool<'a>,
    ) -> PagedShardedSnapshot<'a> {
        let disk = store.disk();
        let segments =
            self.shard_snapshots().iter().map(|shard| RowSegment::write(shard, disk)).collect();
        PagedShardedSnapshot { snapshot: self, store, pool, segments }
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
    /// Per shard: its finer rows on the store's disk.
    segments: Vec<RowSegment<'a>>,
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

    /// The pages holding shard `shard`'s rows, in row order.
    pub fn shard_pages(&self, shard: usize) -> &[PageId] {
        self.segments[shard].pages.pages()
    }

    /// The pages reading `entity`'s finer rows touches, in read order; `None`
    /// when the snapshot does not index it.
    pub fn row_pages(&self, entity: EntityId) -> Option<&[PageId]> {
        let shard = shard_of(entity, self.snapshot.num_shards());
        let arena = self.snapshot.shard(shard).arena();
        let segment = &self.segments[shard];
        Some(segment.pages.pages_of(segment.span(arena, arena.position(entity)?)))
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
    /// The admitted shards are scanned one after another on the calling
    /// thread (see the [module docs](crate::paged) on why the fan-out is not
    /// threaded); answers and work are the threaded schedule's, bit for bit.
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
    /// Parallelism is over the queries; each query's admitted shards are
    /// scanned one after another on its worker (identical answers either
    /// way).  Unlike the in-memory batch, every query is planned on its own:
    /// seeding reads through the pool, so there is no position table to
    /// amortise.
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
        let query = Query::new(options.k, measure);
        Ok(join_probes(probes, options.threads, |probe| {
            let view = self.view(probe).ok()?;
            let (matches, stats) = drive::run(&self.access(&view, probe), &query, false).ok()?;
            Some(JoinRow { probe, matches, stats })
        }))
    }

    /// Builds — without executing — the [`QueryPlan`] the paged query paths
    /// would run: the in-memory plan, at any pool residency, rendered by
    /// [`QueryPlan::explain`].  Seeding reads the sketch entities' rows
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
        PagedArenaSource {
            paged: self,
            shard,
            view,
            scratch: RefCell::default(),
            counts: RefCell::default(),
        }
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

/// Out-of-core [`ShardAccess`]: candidates' finer rows are read through the
/// buffer pool.  Seeding runs through the access's own source; every scan
/// gets one more.
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
        let snapshot = &self.shards()[shard];
        for &hot in snapshot.synopsis().hot_entities() {
            if hot == self.entity {
                continue;
            }
            if let Some(pos) = snapshot.arena().position(hot) {
                offer(hot, self.source.score(shard, pos, &[], measure, false));
            }
        }
    }

    /// The in-memory scan's loop, by position, over the resident postings
    /// and the session's pages.
    fn scan<M: AssociationMeasure + ?Sized>(
        source: &PagedArenaSource<'q>,
        shard: &IndexSnapshot,
        exclude: EntityId,
        rate: Option<f64>,
        query: &Query<'_, M>,
    ) -> (Vec<TopKResult>, usize) {
        debug_assert!(std::ptr::eq(shard, &**source.paged.snapshot.shard(source.shard)));
        let hot = shard.synopsis().hot_entities();
        source.scan(query.k, query.measure, |entity| {
            entity != exclude && plan::scan_admits(rate, hot, entity)
        })
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
    use crate::engine::{self, TraceSource};
    use crate::index::MinSigIndex;
    use crate::kernel::ArenaSource;
    use crate::query::QueryOptions;
    use trace_model::{PaperAdm, Period, PresenceInstance, SpIndex, TraceSet};
    use trace_storage::{PoolConfig, PAGE_SIZE};

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
        fn degree(&self, entity: EntityId, measure: &dyn AssociationMeasure) -> f64 {
            let trace = self.store.read_trace(self.pool, entity).expect("stored");
            let seq = trace.cell_sequence(self.sp, self.ticks_per_unit).unwrap();
            measure.degree(self.query, &seq)
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

    /// `index`'s current snapshot as a one-shard sharded snapshot.
    fn one_shard(index: &MinSigIndex) -> ShardedSnapshot {
        ShardedSnapshot::from(index.snapshot())
    }

    #[test]
    fn paged_and_in_memory_queries_agree() {
        let (sp, traces) = dataset(20);
        let index = MinSigIndex::build(&sp, &traces, IndexConfig::with_hash_functions(64)).unwrap();
        let store = PagedTraceStore::build(&traces, 4);
        let pool = store.pool(PoolConfig::default());
        let measure = PaperAdm::default_for(sp.height() as usize);
        let snapshot = one_shard(&index);
        let paged = snapshot.paged(&store, &pool);
        let mut total_misses = 0;
        for query in [0u64, 9, 21].map(EntityId) {
            let (mem, _) = index.top_k(query, 5, &measure).unwrap();
            let (out, stats) = paged.top_k(query, 5, &measure).unwrap();
            assert_eq!(mem, out, "query {query}: a one-shard session answers like the index");
            total_misses += stats.pool_misses;
        }
        assert!(total_misses > 0, "cold pages must have been read at least once");
    }

    #[test]
    fn smaller_memory_budget_costs_more_simulated_io() {
        let (sp, traces) = dataset(150);
        let index = MinSigIndex::build(&sp, &traces, IndexConfig::with_hash_functions(32)).unwrap();
        let snapshot = one_shard(&index);
        let store = PagedTraceStore::build(&traces, 8);
        let measure = PaperAdm::default_for(sp.height() as usize);
        let queries: Vec<EntityId> = (0..40u64).map(EntityId).collect();

        let mut io = Vec::new();
        for fraction in [0.05f64, 1.0] {
            let pool = store.pool(PoolConfig::with_memory_fraction(store.data_bytes(), fraction));
            let paged = snapshot.paged(&store, &pool);
            let mut total = 0u64;
            // Two passes so the large pool can profit from caching.
            for _ in 0..2 {
                for &q in &queries {
                    total += paged.top_k(q, 10, &measure).unwrap().1.simulated_io_us;
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
        let snapshot = one_shard(&index);
        let err = snapshot.paged(&store, &pool).top_k(EntityId(9999), 1, &measure).unwrap_err();
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
        unknown(one_shard(&index).paged(&store, &pool).top_k(ghost, 3, &measure), "one shard");
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

    /// The source against its oracle — the test-local `PagedSource` decodes
    /// an owned trace and discretises it with `cell_sequence` — degree by
    /// degree; its kernel dispatch against the in-memory source's, class by
    /// class; its per-query I/O counters against the pool's; and through the
    /// drive, answers and work against the in-memory query's and answers
    /// against the tree search over the oracle.
    #[test]
    fn fused_source_matches_the_cell_sequence_oracle_and_counts_its_own_io() {
        let (sp, traces) = dataset(60);
        let index = MinSigIndex::build(&sp, &traces, IndexConfig::default()).unwrap();
        let snapshot = one_shard(&index);
        let shard = snapshot.shard(0);
        let (sp, ticks) = (shard.sp_index(), shard.ticks_per_unit());
        let store = PagedTraceStore::build(&traces, 4);
        let pool = store.pool(PoolConfig { capacity_bytes: 2 * PAGE_SIZE, ..Default::default() });
        let paged = snapshot.paged(&store, &pool);
        assert!(paged.shard_pages(0).len() > 2, "the rows outgrow the pool");
        let measure = PaperAdm::default_for(sp.height() as usize);
        let query_seq = shard.sequence(EntityId(0)).unwrap();
        let view = QueryView::new(query_seq);
        let (source, memory) = (paged.source(0, &view), ArenaSource::new(shard.arena(), &view));
        let pos = |e: u64| shard.arena().position(EntityId(e)).unwrap();
        let fused: Vec<f64> =
            (0..120u64).map(|e| source.score(0, pos(e), &[], &measure, true)).collect();
        for e in 0..120u64 {
            memory.degree(EntityId(e), &measure);
        }
        // Untracked scoring (planner seeding) reads pages but counts no kernels.
        source.score(0, pos(3), &[], &measure, false);
        let mut stats = QueryStats::default();
        source.drain_into(&mut stats);
        let issued: u64 = (0..120u64)
            .map(|e| {
                let candidate = shard.sequence(EntityId(e)).unwrap();
                crate::testkit::issued_intersections(query_seq, candidate)
            })
            .sum();
        assert_eq!(stats.kernel_dispatch.total(), issued, "one per level up to the first empty");
        assert_eq!(stats.kernel_dispatch, memory.take_dispatch(), "the in-memory kernels");
        let global = pool.stats();
        assert_eq!(
            (stats.pool_hits, stats.pool_misses, stats.pool_evictions, stats.simulated_io_us),
            (global.hits, global.misses, global.evictions, global.simulated_us),
            "the only client's counters are the pool's"
        );
        assert!(stats.pool_evictions > 0, "a 2-frame pool under the rows of 120 entities evicts");
        let mut again = QueryStats::default();
        source.drain_into(&mut again);
        assert_eq!((again.kernel_dispatch.total(), again.pool_hits + again.pool_misses), (0, 0));

        let oracle =
            |query| PagedSource { store: &store, pool: &pool, sp, ticks_per_unit: ticks, query };
        for (e, fused) in fused.iter().enumerate() {
            let owned = oracle(query_seq).degree(EntityId(e as u64), &measure);
            assert_eq!(fused.to_bits(), owned.to_bits(), "entity {e}");
        }
        for query in [7u64, 33, 79].map(EntityId) {
            let (out, out_stats) = paged.top_k(query, 5, &measure).unwrap();
            let (mem, mem_stats) = snapshot.top_k(query, 5, &measure).unwrap();
            assert_eq!(out, mem, "query {query}");
            assert_eq!(out_stats.entities_checked, mem_stats.entities_checked, "query {query}");
            assert_eq!(out_stats.kernel_dispatch, mem_stats.kernel_dispatch, "query {query}");
            let sequence = shard.sequence(query).unwrap();
            let (request, options) = (Query::new(5, &measure), QueryOptions::default());
            let (owned, owned_stats) =
                engine::execute(shard, sequence, Some(query), &request, options, &oracle(sequence))
                    .unwrap();
            assert_eq!(out, owned, "query {query}: rows must equal the oracle's bitwise");
            assert_eq!(owned_stats.kernel_dispatch.total(), 0, "the oracle counts no kernels");
            assert_eq!(pool.pinned_frames(), 0, "a paged query pins nothing");
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

    /// The resident level-1 answer against the oracle and against the
    /// in-memory source: degree bits equal for every candidate, kernel
    /// dispatch equal class by class, the candidates sharing no level-1 cell
    /// answered without a read, and the page requests exactly the row pages
    /// of the others.
    #[test]
    fn level_one_disjoint_candidates_are_scored_without_a_read() {
        let (sp, traces) = disjoint_dataset(48);
        let index = MinSigIndex::build(&sp, &traces, IndexConfig::default()).unwrap();
        let snapshot = one_shard(&index);
        let shard = snapshot.shard(0);
        let store = PagedTraceStore::build(&traces, 4);
        let pool = store.pool(PoolConfig { capacity_bytes: 2 * PAGE_SIZE, ..Default::default() });
        let paged = snapshot.paged(&store, &pool);
        let measure = PaperAdm::default_for(sp.height() as usize);
        let row_pages = |e: EntityId| paged.row_pages(e).unwrap().len() as u64;
        for query in [0u64, 5, 22, 47].map(EntityId) {
            let query_seq = shard.sequence(query).unwrap();
            let oracle = PagedSource {
                store: &store,
                pool: &pool,
                sp: shard.sp_index(),
                ticks_per_unit: shard.ticks_per_unit(),
                query: query_seq,
            };
            let view = QueryView::new(query_seq);
            let (source, memory) = (paged.source(0, &view), ArenaSource::new(shard.arena(), &view));
            let (mut disjoint, mut read_pages, mut all_pages) = (0, 0, 0);
            for (&entity, seq) in shard.sequences() {
                let pos = shard.arena().position(entity).unwrap();
                let owned = oracle.degree(entity, &measure).to_bits();
                let fused = source.score(0, pos, &[], &measure, true).to_bits();
                let resident = memory.degree(entity, &measure).to_bits();
                assert_eq!((fused, resident), (owned, owned), "query {query}, candidate {entity}");
                all_pages += row_pages(entity);
                if seq.level(1).intersection_len(query_seq.level(1)) == 0 {
                    disjoint += 1;
                } else {
                    read_pages += row_pages(entity);
                }
            }
            let mut stats = QueryStats::default();
            source.drain_into(&mut stats);
            assert!(disjoint > shard.sequences().len() / 2, "query {query}: {disjoint}");
            assert_eq!(stats.kernel_dispatch, memory.take_dispatch(), "query {query}");
            assert_eq!(stats.reads_avoided, disjoint, "query {query}");
            assert_eq!(stats.pool_hits + stats.pool_misses, read_pages, "query {query}");
            assert!(0 < read_pages && read_pages < all_pages, "query {query}");
        }
    }

    /// Through the drive: the paged query answers and works like the
    /// in-memory one — answers, work and every kernel class — and what the
    /// resident level-1 answer changes is only how much it reads.
    #[test]
    fn the_resident_level_one_answer_changes_io_only() {
        let (sp, traces) = disjoint_dataset(48);
        let index = MinSigIndex::build(&sp, &traces, IndexConfig::default()).unwrap();
        let snapshot = one_shard(&index);
        let store = PagedTraceStore::build(&traces, 4);
        let measure = PaperAdm::default_for(sp.height() as usize);
        for k in [3usize, 48] {
            for query in [1u64, 14, 30].map(EntityId) {
                let (mem, mem_stats) = snapshot.top_k(query, k, &measure).unwrap();
                let pool = store.pool(PoolConfig::default());
                let (out, stats) = snapshot.paged(&store, &pool).top_k(query, k, &measure).unwrap();
                let context = format!("k {k}, query {query}");
                assert_eq!(out, mem, "{context}");
                let work =
                    |s: &QueryStats| (s.entities_checked, s.nodes_visited, s.kernel_dispatch);
                assert_eq!(work(&stats), work(&mem_stats), "{context}");
                assert_eq!(mem_stats.reads_avoided, 0, "{context}: nothing is read in memory");
                assert!(stats.reads_avoided > 0, "{context}");
                assert!(stats.pool_hits + stats.pool_misses > 0, "{context}");
            }
        }
    }

    #[test]
    fn paged_explain_is_the_in_memory_plan() {
        let (sp, traces) = dataset(25);
        let sharded =
            crate::shard::ShardedMinSigIndex::build(&sp, &traces, IndexConfig::default(), 3)
                .unwrap();
        let snapshot = sharded.snapshot();
        let store = PagedTraceStore::build(&traces, 4);
        let pool = store.pool(trace_storage::PoolConfig::default());
        let paged = snapshot.paged(&store, &pool);
        let measure = PaperAdm::default_for(sp.height() as usize);

        // Seeded, and unseeded by a k above every sketch candidate: the plan
        // is the in-memory one, and so is the unseeded answer.
        for k in [5, 60] {
            let plan = paged.explain(EntityId(4), k, &measure, PlannerConfig::default()).unwrap();
            let mem = snapshot.explain(EntityId(4), k, &measure, PlannerConfig::default()).unwrap();
            assert_eq!(plan, mem, "k {k}");
            assert_eq!(plan.seeded(), k == 5, "k {k}");
        }
        let (mem, _) = snapshot.top_k(EntityId(4), 60, &measure).unwrap();
        let (out, _) = paged.top_k(EntityId(4), 60, &measure).unwrap();
        assert_eq!(mem, out);
    }
}
