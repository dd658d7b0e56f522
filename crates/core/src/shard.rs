//! Sharding: hash-partitioning the entity population across independent
//! [`MinSigIndex`] shards with exact cross-shard top-k fan-out.
//!
//! One in-memory MinSigTree per process stops scaling once the population (or
//! the ingest rate) outgrows a single snapshot: every copy-on-write clone, every
//! flush and every save serialises on one handle.  A [`ShardedMinSigIndex`]
//! instead assigns each entity to one of `N` shards by a **stable hash of its
//! id** ([`shard_of`]) and keeps a completely independent `MinSigIndex` per
//! shard — independent snapshots, independent epochs, independent `MSIX` files —
//! so ingest, persistence and maintenance all parallelise per shard: a
//! routed flush publishes its touched shards on rayon workers, a save
//! encodes every shard on them before writing the files in shard order, and
//! an open reads and verifies every shard on them, reporting the first
//! failure in shard order.  Each of these gives the bytes, reports and
//! errors the shard-by-shard loop gives.
//!
//! ## Planned queries
//!
//! Every query path ([`ShardedSnapshot::top_k`], batches, joins) goes
//! through the crate's one planned drive.  It first consults each shard's
//! [`Synopsis`](crate::synopsis::Synopsis) through [`crate::plan`]: the
//! sketch candidates are scored exactly, in shard-bound order and only where
//! the running seed has not already ruled their shard out, to **seed** a
//! provable k-th-degree lower bound, shards whose capacity caps cannot beat
//! the seed are **skipped** outright, and every admitted shard is answered
//! by the flat exact **scan**, most promising first.  The decisions are
//! answer-invariant (strict-inequality certificates, see the
//! [plan module docs](crate::plan)); [`ShardedSnapshot::explain`] returns
//! the [`QueryPlan`] without executing it, and
//! [`QueryStats::shards_skipped`] / [`QueryStats::shards_scanned`] /
//! [`QueryStats::threshold_seeded`] report what planning did.  Every query
//! is planned; [`ShardedSnapshot::query`] takes the one [`Query`] value,
//! whose only planner setting is a latency budget.
//!
//! The admitted shards then run as one queue of scan jobs, in plan order:
//! rayon workers take the next job until none is left, or the calling
//! thread runs them one after another.  A scan reads every member's level-1
//! and level-2 overlaps from its shard's postings and scores the members
//! sharing no level-1 cell only while they can still enter its top k, so it
//! rules out what a tree search would prune without walking a tree; the
//! best-first tree search ([`IndexSnapshot::top_k_for_sequence`]) is the
//! unsharded index's.  A scan prunes against its own top k only, so neither answers
//! nor work counters depend on the schedule.  Out of core
//! ([`crate::paged`]) the same entries' bodies run with the session's row
//! pages, a candidate's finer rows read through a buffer pool.
//!
//! [`QueryStats::shards_skipped`]: crate::stats::QueryStats::shards_skipped
//! [`QueryStats::shards_scanned`]: crate::stats::QueryStats::shards_scanned
//! [`QueryStats::threshold_seeded`]: crate::stats::QueryStats::threshold_seeded
//!
//! ## Exactness of the fan-out
//!
//! Per-shard answers merge through the engine's shared ranking order
//! ([`engine::merge_top_k`]): *(degree descending, entity id ascending)*.
//! The merged answer is **fully bit-identical** to a single unsharded index
//! over the same traces — and to the brute-force sort-and-truncate — ties at
//! the k-th (boundary) degree included, for any shard count and any
//! schedule: every shard's scan is its exact top k under that order, the
//! union of the per-shard top-k sets holds the global top k, and a skipped
//! shard's bound is strictly below the seed.  `tests/shard_conformance.rs`
//! proptests it against both the unsharded index and the brute-force
//! oracle.  (Each shard derives its own hash range when the config leaves it
//! data-driven; that is fine, because scans compute degrees exactly from the
//! shard's rows — signatures only ever *prune* the unsharded tree.)
//!
//! ## Epoch vectors and snapshot consistency
//!
//! Each shard keeps its own epoch counter (one per mutation batch, exactly as
//! on the unsharded handle).  [`ShardedMinSigIndex::snapshot`] captures all
//! shard snapshots **and** the epoch vector under one `&self` borrow, so a
//! reader's [`ShardedSnapshot`] is always a consistent cross-shard set: a
//! mutation needs `&mut self` and therefore cannot interleave with the
//! capture — nor with the touched shards' publishes, which run side by side
//! under that one `&mut self` and have all finished before it ends.  Readers
//! holding a `ShardedSnapshot` are isolated from all later flushes, shard by
//! shard, exactly like unsharded snapshot readers.
//!
//! ## Ingest routing
//!
//! [`IngestBuffer::flush_sharded`] (and the [`ShardedMinSigIndex::ingest_batch`]
//! shorthand) routes a buffered batch to the shards that own each record's
//! entity and flushes **one sub-batch per touched shard**, advancing each
//! touched shard's epoch by exactly 1.  The whole cross-shard batch is
//! prepared once, before any shard is mutated, so a bad record leaves every
//! shard (and the buffer) untouched — the same all-or-nothing contract as the
//! unsharded flush, by the same `prepare` → `apply` pair.
//!
//! ## Durability (`MSHD`)
//!
//! [`ShardedMinSigIndex::save`] writes a directory: one standard `MSIX` file
//! per shard plus a checksummed manifest ([`SHARD_MANIFEST_FILE`], magic
//! [`SHARD_MANIFEST_MAGIC`]) recording the partitioner version, the shard
//! count and — per shard — the expected entity count and a content digest of
//! the shard file, binding every shard file to the one save that produced
//! it.  [`ShardedMinSigIndex::open`] verifies the manifest, each shard
//! file's digest, every shard file's own checksums, the per-shard entity
//! counts, that all shards agree on the hierarchy and discretisation, and
//! that **every loaded entity routes to the shard that holds it** — so a
//! renamed, swapped, truncated or bit-flipped shard file, or a crash midway
//! through re-saving over an existing directory, is always detected, never
//! silently mis-answered.

use crate::config::{IndexConfig, PlannerConfig};
use crate::drive::{self, Access};
use crate::engine;
use crate::error::{IndexError, Result};
use crate::index::MinSigIndex;
use crate::ingest::{IngestBuffer, IngestReport, PreparedBatch};
use crate::join::{join_probes, JoinOptions, JoinRow, JoinStats};
use crate::kernel::QueryView;
use crate::paged::RowSegment;
use crate::plan::QueryPlan;
use crate::query::{Query, TopKResult};
use crate::snapshot::IndexSnapshot;
use crate::stats::QueryStats;
use rayon::prelude::*;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use trace_model::{
    AssociationMeasure, CellSetSequence, EntityId, PresenceInstance, SpIndex, TraceSet,
};
use trace_storage::segment::{self, Cursor};

/// Magic bytes of a sharded-index manifest file ("MinSig sHarD").
pub const SHARD_MANIFEST_MAGIC: [u8; 4] = *b"MSHD";
/// Newest manifest format version this build reads and writes.  Version 3
/// directories hold `MSIX` version-3 shard files (which embed each shard's
/// WAL checkpoint LSN for the durable ingest path); version 2 directories
/// hold version-2 shard files (embedded planning synopses).  The manifest
/// payload layout is unchanged across all three versions, and older
/// directories still open — their shards fall back exactly as unsharded
/// `MSIX` files do.
pub(crate) const SHARD_MANIFEST_VERSION: u16 = 3;
/// File name of the manifest inside a sharded-index directory.
pub const SHARD_MANIFEST_FILE: &str = "manifest.mshd";
/// Version of the [`shard_of`] partitioning function recorded in the
/// manifest.  Bump it if the hash ever changes; `open` refuses a manifest
/// written under a different partitioner rather than silently mis-routing.
pub const PARTITION_VERSION: u32 = 1;

pub(crate) const TAG_MANIFEST: u32 = 1;

/// The stable partitioning function: which shard owns `entity` among
/// `num_shards`.
///
/// A SplitMix64 finalizer over the raw id, reduced modulo the shard count —
/// sequential ids (the common assignment scheme upstream) spread evenly
/// instead of striping.  The mapping is part of the on-disk contract
/// ([`PARTITION_VERSION`]): every build of this crate must route an entity to
/// the same shard, or a reopened sharded index would look up entities in the
/// wrong shard.
pub fn shard_of(entity: EntityId, num_shards: usize) -> usize {
    debug_assert!(num_shards > 0, "a sharded index has at least one shard");
    let mut z = entity.raw().wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    ((z ^ (z >> 31)) % num_shards as u64) as usize
}

/// A MinSigTree index hash-partitioned across `N` independent shards.
///
/// Writes ([`ingest_batch`](Self::ingest_batch) /
/// [`IngestBuffer::flush_sharded`]) route each record to its owning shard; queries
/// fan out across all shards and merge exactly.  See the
/// [module docs](crate::shard) for the exactness, epoch and durability
/// contracts.
///
/// ```
/// use minsig::shard::ShardedMinSigIndex;
/// use minsig::IndexConfig;
/// use trace_model::{DiceAdm, EntityId, Period, PresenceInstance, SpIndex, TraceSet};
///
/// let sp = SpIndex::uniform(2, &[2]).unwrap();
/// let base = sp.base_units().to_vec();
/// let mut traces = TraceSet::new(60);
/// for (e, unit) in [(0u64, base[0]), (1, base[0]), (2, base[3])] {
///     traces.record(PresenceInstance::new(EntityId(e), unit, Period::new(0, 120).unwrap()));
/// }
/// let sharded = ShardedMinSigIndex::build(&sp, &traces, IndexConfig::default(), 4).unwrap();
/// assert_eq!(sharded.num_shards(), 4);
/// assert_eq!(sharded.num_entities(), 3);
///
/// // Identical answers to an unsharded index over the same traces.
/// let (results, _) = sharded.top_k(EntityId(0), 1, &DiceAdm::uniform(2)).unwrap();
/// assert_eq!(results[0].entity, EntityId(1));
/// ```
#[derive(Debug)]
pub struct ShardedMinSigIndex {
    pub(crate) shards: Vec<MinSigIndex>,
}

/// One consistent cross-shard version of a [`ShardedMinSigIndex`]: all shard
/// snapshots plus the epoch vector, captured atomically under one `&self`
/// borrow.
///
/// Cheap to clone around (each shard contributes one `Arc` bump) and safe to
/// query from any number of threads.  Every query entry point of the
/// sharded index lives on the snapshot; the handle keeps only the `top_k`
/// convenience.
#[derive(Debug, Clone)]
pub struct ShardedSnapshot {
    shards: Vec<Arc<IndexSnapshot>>,
    epochs: Vec<u64>,
}

/// What one sharded ingest flush did across the shards.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardedIngestReport {
    /// Presence records applied by this flush.
    pub records: usize,
    /// Distinct entities whose signature / tree path was updated.
    pub entities_touched: usize,
    /// How many of the touched entities were new to their shard.
    pub entities_inserted: usize,
    /// Number of shards that received a non-empty sub-batch (each advanced
    /// its epoch by exactly 1).
    pub shards_touched: usize,
    /// The per-shard epoch vector after the flush.
    pub epochs: Vec<u64>,
    /// Wall-clock time of the whole routed flush, in microseconds.
    pub flush_time_us: u64,
}

impl ShardedMinSigIndex {
    /// Builds a sharded index: partitions the traces by [`shard_of`] and
    /// builds every shard's `MinSigIndex` in parallel over rayon.
    ///
    /// `num_shards` must be at least 1; a 1-shard index behaves exactly like
    /// (and answers bit-identically to) an unsharded [`MinSigIndex`].
    pub fn build(
        sp: &SpIndex,
        traces: &TraceSet,
        config: IndexConfig,
        num_shards: usize,
    ) -> Result<Self> {
        if num_shards == 0 {
            return Err(IndexError::InvalidConfig("num_shards must be at least 1".into()));
        }
        config.validate()?;
        let mut parts: Vec<TraceSet> =
            (0..num_shards).map(|_| TraceSet::new(traces.ticks_per_unit())).collect();
        for (entity, trace) in traces.iter() {
            parts[shard_of(entity, num_shards)].insert_trace(entity, trace.clone());
        }
        let shards: Vec<Result<MinSigIndex>> =
            parts.par_iter().map(|part| MinSigIndex::build(sp, part, config)).collect();
        Ok(ShardedMinSigIndex { shards: shards.into_iter().collect::<Result<_>>()? })
    }

    /// Wraps already-built shards (used by `open`); the caller guarantees the
    /// entities inside each shard route to it.
    fn from_shards(shards: Vec<MinSigIndex>) -> Self {
        debug_assert!(!shards.is_empty());
        ShardedMinSigIndex { shards }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Read access to one shard's handle (diagnostics, tests, stats).
    pub fn shard(&self, shard: usize) -> &MinSigIndex {
        &self.shards[shard]
    }

    /// Total number of indexed entities across all shards.
    pub fn num_entities(&self) -> usize {
        self.shards.iter().map(|s| s.num_entities()).sum()
    }

    /// The per-shard epoch vector: element `i` counts the mutation batches
    /// shard `i` has applied since this handle was built or opened.
    pub fn epochs(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.epoch()).collect()
    }

    /// Captures one consistent cross-shard snapshot: every shard's current
    /// `Arc<IndexSnapshot>` plus the epoch vector, atomically with respect to
    /// mutations (which require `&mut self`).  Readers holding the snapshot
    /// never observe a torn epoch set or any later flush.
    pub fn snapshot(&self) -> ShardedSnapshot {
        ShardedSnapshot {
            shards: self.shards.iter().map(|s| s.snapshot()).collect(),
            epochs: self.epochs(),
        }
    }

    /// Applies a batch of presence records, routed per shard, in one
    /// validated flush — shorthand for filling an [`IngestBuffer`] and calling
    /// [`flush_sharded`](IngestBuffer::flush_sharded).  On a validation error
    /// no shard is touched, but the records are dropped with the temporary
    /// buffer; manage an `IngestBuffer` yourself to retry a repaired batch.
    pub fn ingest_batch<I: IntoIterator<Item = PresenceInstance>>(
        &mut self,
        records: I,
    ) -> Result<ShardedIngestReport> {
        let mut buffer: IngestBuffer = records.into_iter().collect();
        buffer.flush_sharded(self)
    }

    /// Answers a top-k query with default options; see
    /// [`ShardedSnapshot::top_k`].
    pub fn top_k<M: AssociationMeasure + Sync + ?Sized>(
        &self,
        query: EntityId,
        k: usize,
        measure: &M,
    ) -> Result<(Vec<TopKResult>, QueryStats)> {
        self.snapshot().top_k(query, k, measure)
    }

    /// Rebuilds every shard's planning synopsis with sketch size `m`; see
    /// `MinSigIndex::set_synopsis_sketch_size`.
    pub fn set_synopsis_sketch_size(&mut self, m: usize) {
        for shard in &mut self.shards {
            shard.set_synopsis_sketch_size(m);
        }
    }
}

impl ShardedSnapshot {
    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Read access to one shard's snapshot.
    pub fn shard(&self, shard: usize) -> &Arc<IndexSnapshot> {
        &self.shards[shard]
    }

    /// The per-shard epoch vector as of the capture — one consistent set,
    /// never torn across a flush (capture happens under one `&self` borrow of
    /// the handle).
    pub fn epochs(&self) -> &[u64] {
        &self.epochs
    }

    /// Total number of indexed entities across all shards.
    pub fn num_entities(&self) -> usize {
        self.shards.iter().map(|s| s.num_entities()).sum()
    }

    /// The materialised sequence of an indexed entity.
    pub fn sequence(&self, entity: EntityId) -> Option<&CellSetSequence> {
        self.shards[shard_of(entity, self.shards.len())].sequence(entity)
    }

    /// Answers a top-k query for an indexed entity with the default
    /// [`Query`]: no latency budget.
    pub fn top_k<M: AssociationMeasure + Sync + ?Sized>(
        &self,
        query: EntityId,
        k: usize,
        measure: &M,
    ) -> Result<(Vec<TopKResult>, QueryStats)> {
        self.query(query, &Query::new(k, measure))
    }

    /// Answers `query` for an indexed `entity` — the one single-query entry
    /// every knob goes through.
    ///
    /// The query entity is looked up in its home shard only
    /// ([`IndexError::UnknownQueryEntity`] when absent); its sequence is then
    /// probed against every shard the planner admits and the per-shard exact
    /// answers are merged under the engine's total order — **fully
    /// bit-identical** to the unsharded answer, boundary ties included (see
    /// the [module docs](crate::shard)).  The stats sum the per-shard scan
    /// work and report what planning did.  Only a latency budget
    /// ([`PlannerConfig::latency_budget_us`]) can change an answer.
    pub fn query<M: AssociationMeasure + Sync + ?Sized>(
        &self,
        entity: EntityId,
        query: &Query<'_, M>,
    ) -> Result<(Vec<TopKResult>, QueryStats)> {
        self.run(entity, query, None, true)
    }

    /// Builds — without executing — the [`QueryPlan`] the planned query
    /// paths would run for `query`: the seeded threshold, each shard's
    /// synopsis upper bound, and the skip / scan verdicts in driving order.
    /// `planner` is validated but shapes nothing: a budget acts only at run
    /// time.  [`QueryPlan::explain`] renders the plan for humans.
    pub fn explain<M: AssociationMeasure + Sync + ?Sized>(
        &self,
        query: EntityId,
        k: usize,
        measure: &M,
        planner: PlannerConfig,
    ) -> Result<QueryPlan> {
        self.plan(query, &Query { planner, ..Query::new(k, measure) }, None)
    }

    /// Answers the top-k query for every query entity of a batch, in
    /// parallel, returning per-query `(results, stats)` pairs **in input
    /// order** — the same contract as [`IndexSnapshot::top_k_batch`]: the
    /// first unknown query entity (in input order) fails the whole batch.
    /// Runs the default [`Query`], like the single-query path.
    pub fn top_k_batch<M: AssociationMeasure + Sync + ?Sized>(
        &self,
        queries: &[EntityId],
        k: usize,
        measure: &M,
    ) -> Result<Vec<(Vec<TopKResult>, QueryStats)>> {
        self.query_batch(queries, &Query::new(k, measure))
    }

    /// Answers `query` for every entity of a batch — the one batch entry
    /// every knob goes through.  Each row is exactly what
    /// [`query`](Self::query) answers and reports for that entity: the same
    /// plan, the same answer and the same work, its own
    /// [`QueryStats::planning_us`], and a latency budget measured from
    /// before its own planning.
    ///
    /// Parallelism is over the *queries* (the batch is the wider axis); each
    /// query's admitted shards are scanned one after another on its worker,
    /// to avoid nested thread fan-out.  Results and work counters are
    /// identical either way.
    pub fn query_batch<M: AssociationMeasure + Sync + ?Sized>(
        &self,
        entities: &[EntityId],
        query: &Query<'_, M>,
    ) -> Result<Vec<(Vec<TopKResult>, QueryStats)>> {
        self.batch(entities, query, None)
    }

    /// Builds — without executing — the [`QueryPlan`] of every query of a
    /// batch under `planner`, in input order: each is that query's
    /// [`explain`](Self::explain).  The planner is validated once, so an
    /// empty batch still rejects a bad one; the first unknown query entity
    /// fails the whole batch, like the execution path.
    pub fn plan_batch<M: AssociationMeasure + Sync + ?Sized>(
        &self,
        queries: &[EntityId],
        k: usize,
        measure: &M,
        planner: PlannerConfig,
    ) -> Result<Vec<QueryPlan>> {
        let query = Query { planner, ..Query::new(k, measure) };
        query.validate()?;
        queries.iter().map(|&entity| self.plan(entity, &query, None)).collect()
    }

    /// Answers the top-k query for every probe entity in parallel, with the
    /// same skip/ordering semantics as [`IndexSnapshot::top_k_join`]:
    /// unindexed probes are counted in [`JoinStats::skipped`], and the rows
    /// are the probes' own queries, in probe order.  A sharded join scans,
    /// so the tree's pruning ablations ([`JoinOptions::query`]) are not read.
    pub fn top_k_join<M: AssociationMeasure + Sync + ?Sized>(
        &self,
        probes: &[EntityId],
        measure: &M,
        options: JoinOptions,
    ) -> Result<(Vec<JoinRow>, JoinStats)> {
        self.join(probes, measure, options, None)
    }

    /// Ground-truth brute force over all shards' sequences, merged under the
    /// shared ranking order — the sharded oracle used by conformance tests.
    pub fn brute_force<M: AssociationMeasure + ?Sized>(
        &self,
        query: EntityId,
        k: usize,
        measure: &M,
    ) -> Result<Vec<TopKResult>> {
        let view = self.view(query)?;
        let mut dispatch = crate::stats::KernelDispatch::default();
        let parts = self
            .shards
            .iter()
            .map(|shard| shard.arena().scan_top_k(&view, Some(query), k, measure, &mut dispatch).0)
            .collect::<Vec<_>>();
        Ok(engine::merge_top_k(k, parts))
    }

    /// The body of every single-query entry, in memory (`pages` `None`) and
    /// out of core (the session's pages of every shard's finer rows).
    pub(crate) fn run<M: AssociationMeasure + Sync + ?Sized>(
        &self,
        entity: EntityId,
        query: &Query<'_, M>,
        pages: Option<&[RowSegment<'_>]>,
        parallel: bool,
    ) -> Result<(Vec<TopKResult>, QueryStats)> {
        let view = self.view(entity)?;
        drive::run(&self.access(&view, entity, pages), query, parallel)
    }

    /// The body of both `query_batch`es: one [`run`](Self::run) per entity,
    /// in parallel over the entities; the first error in input order fails
    /// the batch.
    pub(crate) fn batch<M: AssociationMeasure + Sync + ?Sized>(
        &self,
        entities: &[EntityId],
        query: &Query<'_, M>,
        pages: Option<&[RowSegment<'_>]>,
    ) -> Result<Vec<(Vec<TopKResult>, QueryStats)>> {
        query.validate()?;
        let answers: Vec<Result<(Vec<TopKResult>, QueryStats)>> =
            entities.par_iter().map(|&entity| self.run(entity, query, pages, false)).collect();
        answers.into_iter().collect()
    }

    /// The body of both `explain`s: the plan [`run`](Self::run) would drive.
    pub(crate) fn plan<M: AssociationMeasure + Sync + ?Sized>(
        &self,
        entity: EntityId,
        query: &Query<'_, M>,
        pages: Option<&[RowSegment<'_>]>,
    ) -> Result<QueryPlan> {
        let view = self.view(entity)?;
        drive::explain(&self.access(&view, entity, pages), query)
    }

    /// The body of both `top_k_join`s: one [`run`](Self::run) per probe on
    /// its join worker, unindexed probes skipped.
    pub(crate) fn join<M: AssociationMeasure + Sync + ?Sized>(
        &self,
        probes: &[EntityId],
        measure: &M,
        options: JoinOptions,
        pages: Option<&[RowSegment<'_>]>,
    ) -> Result<(Vec<JoinRow>, JoinStats)> {
        let query = Query::new(options.k, measure);
        Ok(join_probes(probes, |probe| {
            let (matches, stats) = self.run(probe, &query, pages, false).ok()?;
            Some(JoinRow { probe, matches, stats })
        }))
    }

    /// The view of a query entity's sequence — the one its whole query
    /// scores through; [`IndexError::UnknownQueryEntity`] when it is not
    /// indexed.
    fn view(&self, entity: EntityId) -> Result<QueryView<'_>> {
        let sequence = self.sequence(entity).ok_or(IndexError::UnknownQueryEntity(entity.raw()))?;
        Ok(QueryView::new(sequence))
    }

    /// How the query of `entity`, whose sequence `view` resolves, reads the
    /// shards.
    fn access<'q>(
        &'q self,
        view: &'q QueryView<'q>,
        entity: EntityId,
        pages: Option<&'q [RowSegment<'q>]>,
    ) -> Access<'q> {
        Access { shards: &self.shards, view, entity, pages }
    }
}

/// A one-shard snapshot: every entry point of [`ShardedSnapshot`] — and, through
/// [`paged`](ShardedSnapshot::paged), every out-of-core one — over a single
/// [`IndexSnapshot`], answering bit-identically to it.  The epoch is its
/// synopsis's.
impl From<Arc<IndexSnapshot>> for ShardedSnapshot {
    fn from(snapshot: Arc<IndexSnapshot>) -> Self {
        let epochs = vec![snapshot.synopsis().epoch()];
        ShardedSnapshot { shards: vec![snapshot], epochs }
    }
}

impl IngestBuffer {
    /// Applies every buffered record to `index`, routed to each record's home
    /// shard (one copy-on-write flush and one epoch per touched shard), and
    /// empties the buffer.
    ///
    /// The whole cross-shard batch is prepared **before any shard is
    /// mutated**, so a bad record leaves every shard and the buffer's records
    /// intact — the caller can drop the bad record and retry.  An empty
    /// buffer is a no-op.
    pub fn flush_sharded(&mut self, index: &mut ShardedMinSigIndex) -> Result<ShardedIngestReport> {
        let start = Instant::now();
        let prepared =
            self.prepare(index.shards[0].sp_index(), index.shards[0].ticks_per_unit())?;
        self.clear();
        Ok(index.apply(prepared, start))
    }
}

impl ShardedMinSigIndex {
    /// Applies a prepared batch across the shards — one sub-batch, one epoch
    /// per touched shard — and reports the whole routed flush since `started`.
    ///
    /// The touched shards publish side by side on rayon workers, each its
    /// own sub-batch (one touched shard, or one thread, runs on the caller);
    /// their reports are summed in shard order.  `&mut self` keeps every
    /// [`snapshot`](Self::snapshot) out until all of them have published.
    pub(crate) fn apply(&mut self, batch: PreparedBatch, started: Instant) -> ShardedIngestReport {
        let mut report = ShardedIngestReport::default();
        let sub_batches = batch.split(self.shards.len());
        let touched: Vec<(&mut MinSigIndex, PreparedBatch)> = self
            .shards
            .iter_mut()
            .zip(sub_batches)
            .filter(|(_, sub_batch)| !sub_batch.is_empty())
            .collect();
        let shard_reports: Vec<IngestReport> = touched
            .into_par_iter()
            .map(|(shard, sub_batch)| sub_batch.apply(shard, Instant::now()))
            .collect();
        for shard_report in shard_reports {
            report.records += shard_report.records;
            report.entities_touched += shard_report.entities_touched;
            report.entities_inserted += shard_report.entities_inserted;
            report.shards_touched += 1;
        }
        report.epochs = self.epochs();
        report.flush_time_us = started.elapsed().as_micros() as u64;
        report
    }
}

// ---------------------------------------------------------------------------
// Durability: the MSHD manifest + per-shard MSIX files.
// ---------------------------------------------------------------------------

impl ShardedMinSigIndex {
    /// File name of shard `shard` inside a sharded-index directory.
    pub fn shard_file_name(shard: usize) -> String {
        format!("shard-{shard:05}.msix")
    }

    /// Persists the sharded index into directory `dir` (created if missing):
    /// one `MSIX` file per shard plus the checksummed `MSHD` manifest, written
    /// last.  Every file write is individually atomic (temp-file + rename),
    /// and the manifest records a content digest of every shard file it
    /// describes, so *any* crash point leaves a detectable directory: a crash
    /// before the manifest write leaves the old manifest whose digests no
    /// longer match the partially re-saved shard files ([`open`](Self::open)
    /// reports [`IndexError::Corrupt`]), never a silently served mix of old
    /// and new shards.  After the manifest commits, `shard-*.msix` files it
    /// does not describe (left behind by an earlier save with more shards)
    /// are deleted, so re-saving with a smaller shard count leaves exactly
    /// the files the manifest lists.  To re-save without ever invalidating
    /// the previous copy, save into a fresh directory and swap directories
    /// afterwards.
    pub fn save(&self, dir: &Path) -> Result<()> {
        self.save_with_lsns(dir, None)
    }

    /// [`save`](Self::save), stamping per-shard WAL checkpoint LSNs into the
    /// shard files (the durable ingest path's hook; `None` stamps 0
    /// everywhere).  `lsns`, when given, must have one entry per shard.
    ///
    /// Every shard's image is encoded and digested on rayon workers first;
    /// the files are then written one by one in shard order, the manifest
    /// last and the orphan scrub after it, so the files, their write order
    /// and the first error returned are the sequential save's.
    pub(crate) fn save_with_lsns(&self, dir: &Path, lsns: Option<&[u64]>) -> Result<()> {
        debug_assert!(lsns.is_none_or(|l| l.len() == self.shards.len()));
        std::fs::create_dir_all(dir).map_err(|e| IndexError::Io(e.to_string()))?;
        // Serialise in memory and digest on the workers, then commit in
        // shard order: the manifest digests the exact bytes that hit the
        // disk, with no write-then-read-back round trip.
        let stamped: Vec<(&MinSigIndex, u64)> =
            self.shards.iter().enumerate().map(|(i, s)| (s, lsns.map_or(0, |l| l[i]))).collect();
        let images: Vec<Result<(Vec<u8>, u64)>> = stamped
            .into_par_iter()
            .map(|(shard, lsn)| {
                let bytes = shard.snapshot().to_bytes_with_lsn(lsn)?;
                let digest = file_digest(&bytes);
                Ok((bytes, digest))
            })
            .collect();
        let mut payload = Vec::with_capacity(8 + self.shards.len() * 16);
        payload.extend_from_slice(&PARTITION_VERSION.to_le_bytes());
        payload.extend_from_slice(&(self.shards.len() as u32).to_le_bytes());
        for (i, (shard, image)) in self.shards.iter().zip(images).enumerate() {
            let (bytes, digest) = image?;
            segment::atomic_write_bytes(&dir.join(Self::shard_file_name(i)), &bytes)?;
            payload.extend_from_slice(&(shard.num_entities() as u64).to_le_bytes());
            payload.extend_from_slice(&digest.to_le_bytes());
        }
        segment::atomic_write(
            &dir.join(SHARD_MANIFEST_FILE),
            SHARD_MANIFEST_MAGIC,
            SHARD_MANIFEST_VERSION,
            |writer| writer.write_segment(TAG_MANIFEST, &payload),
        )?;
        // The manifest is durably in place: scrub orphaned shard files from
        // any earlier save with a larger shard count.  (Before the manifest
        // commit they must stay — the *old* manifest still describes them.)
        remove_orphan_shard_files(dir, self.shards.len())?;
        Ok(())
    }

    /// Opens a previously [`save`](Self::save)d sharded index.
    ///
    /// Verified before any answer is served: the manifest's magic, version,
    /// checksum and partitioner version; every shard file's content digest
    /// against the manifest (so a crash while re-saving over an existing
    /// directory can never serve a mix of old and new shard files); every
    /// shard file's own `MSIX` checksums and invariants; the per-shard entity
    /// counts announced by the manifest; that all shards agree on the spatial
    /// hierarchy and temporal discretisation; and that every loaded entity
    /// actually routes to the shard holding it — a renamed or swapped shard
    /// file is reported as [`IndexError::Corrupt`], never served.
    pub fn open(dir: &Path) -> Result<ShardedMinSigIndex> {
        Ok(Self::open_inner(dir, true)?.0)
    }

    /// Opens a sharded directory for WAL recovery (`crate::durable`),
    /// returning the shards plus each shard file's checkpoint LSN.
    ///
    /// Relaxed where a torn checkpoint is *expected* and WAL replay restores
    /// consistency: the manifest's content digests and entity counts are not
    /// enforced (a crash mid-checkpoint legitimately leaves an old manifest
    /// next to some re-saved shard files).  Everything that replay cannot
    /// repair stays enforced — per-file `MSIX` checksums, entity-to-shard
    /// routing, and cross-shard hierarchy/discretisation agreement.
    pub(crate) fn open_for_recovery(dir: &Path) -> Result<(ShardedMinSigIndex, Vec<u64>)> {
        Self::open_inner(dir, false)
    }

    /// The body of both opens: the manifest is read and checked on the
    /// caller, then every shard is read, verified and decoded by
    /// [`open_shard`] on rayon workers.  The first error in shard order is
    /// returned — whichever worker finished first — and the cross-shard
    /// hierarchy check runs last, on the caller.
    fn open_inner(dir: &Path, strict: bool) -> Result<(ShardedMinSigIndex, Vec<u64>)> {
        let mut reader = segment::open_file(
            &dir.join(SHARD_MANIFEST_FILE),
            SHARD_MANIFEST_MAGIC,
            SHARD_MANIFEST_VERSION,
        )?;
        let mut manifest: Option<(u32, Vec<(u64, u64)>)> = None;
        while let Some((tag, payload)) = reader.next_segment()? {
            match tag {
                TAG_MANIFEST => {
                    if manifest.is_some() {
                        return Err(corrupt("duplicate manifest segment"));
                    }
                    let mut c = Cursor::new(&payload);
                    let partition_version = c.u32()?;
                    let num_shards = c.u32()? as usize;
                    if num_shards == 0 {
                        return Err(corrupt("manifest announces zero shards"));
                    }
                    let mut entries = Vec::with_capacity(num_shards);
                    for _ in 0..num_shards {
                        let count = c.u64()?;
                        let digest = c.u64()?;
                        entries.push((count, digest));
                    }
                    c.expect_end().map_err(IndexError::from)?;
                    manifest = Some((partition_version, entries));
                }
                other => return Err(corrupt(&format!("unknown manifest segment tag {other}"))),
            }
        }
        let (partition_version, entries) =
            manifest.ok_or_else(|| corrupt("missing manifest segment"))?;
        if partition_version != PARTITION_VERSION {
            return Err(IndexError::UnsupportedVersion(format!(
                "sharded index was written under partitioner version {partition_version}, \
                 this build implements version {PARTITION_VERSION}"
            )));
        }

        let num_shards = entries.len();
        let jobs: Vec<(usize, (u64, u64))> = entries.into_iter().enumerate().collect();
        let loaded: Vec<Result<(MinSigIndex, u64)>> = jobs
            .into_par_iter()
            .map(|(i, (expected, digest))| open_shard(dir, i, num_shards, expected, digest, strict))
            .collect();
        let (shards, ckpt_lsns): (Vec<MinSigIndex>, Vec<u64>) =
            loaded.into_iter().collect::<Result<Vec<_>>>()?.into_iter().unzip();
        for (i, shard) in shards.iter().enumerate().skip(1) {
            if shard.ticks_per_unit() != shards[0].ticks_per_unit()
                || !same_hierarchy(shard.sp_index(), shards[0].sp_index())
            {
                return Err(corrupt(&format!(
                    "shard {i} disagrees with shard 0 on the hierarchy or discretisation"
                )));
            }
        }
        Ok((ShardedMinSigIndex::from_shards(shards), ckpt_lsns))
    }
}

/// Reads shard `i` of a `num_shards`-shard directory and checks it against
/// its manifest entry — the file's digest and entity count (when `strict`),
/// its `MSIX` checksums, and every entity's routing — returning the shard
/// and its checkpoint LSN.
fn open_shard(
    dir: &Path,
    i: usize,
    num_shards: usize,
    expected: u64,
    digest: u64,
    strict: bool,
) -> Result<(MinSigIndex, u64)> {
    let path = dir.join(ShardedMinSigIndex::shard_file_name(i));
    let bytes = std::fs::read(&path).map_err(|e| IndexError::Io(e.to_string()))?;
    if strict && file_digest(&bytes) != digest {
        return Err(corrupt(&format!(
            "shard {i} does not match the manifest that describes it (interrupted \
             re-save over an existing directory, or a damaged/replaced shard file)"
        )));
    }
    // Parse the *verified* buffer — re-reading the file here would open a
    // window for a concurrent re-save to swap it after the digest check.
    let (snapshot, ckpt_lsn) = IndexSnapshot::open_from_bytes_with_lsn(&bytes)?;
    let shard = MinSigIndex::from_snapshot(Arc::new(snapshot));
    if strict && shard.num_entities() as u64 != expected {
        return Err(corrupt(&format!(
            "shard {i} holds {} entities but the manifest announces {expected}",
            shard.num_entities()
        )));
    }
    for &entity in shard.sequences().keys() {
        let home = shard_of(entity, num_shards);
        if home != i {
            return Err(corrupt(&format!(
                "shard {i} holds {entity}, which routes to shard {home} — shard files \
                 renamed or partitioner changed"
            )));
        }
    }
    Ok((shard, ckpt_lsn))
}

/// Deletes `shard-NNNNN.msix` files with index ≥ `num_shards` — orphans of
/// an earlier save with a larger shard count, which the freshly committed
/// manifest no longer describes.  Temp-file siblings and foreign names are
/// left alone.
fn remove_orphan_shard_files(dir: &Path, num_shards: usize) -> Result<()> {
    let entries = std::fs::read_dir(dir).map_err(|e| IndexError::Io(e.to_string()))?;
    for entry in entries {
        let entry = entry.map_err(|e| IndexError::Io(e.to_string()))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(stem) = name.strip_prefix("shard-").and_then(|s| s.strip_suffix(".msix")) else {
            continue;
        };
        if let Ok(index) = stem.parse::<usize>() {
            if index >= num_shards {
                std::fs::remove_file(entry.path()).map_err(|e| IndexError::Io(e.to_string()))?;
            }
        }
    }
    Ok(())
}

/// 64-bit FNV-1a digest of a shard file's exact bytes.
///
/// Stored in the manifest to bind every shard file to the one save that
/// produced it.  Per-file `MSIX` checksums cannot catch a crash while
/// re-saving over an existing directory — each file is individually intact,
/// but the directory mixes old and new shard files; the manifest's digests
/// (written last, atomically) detect exactly that.
pub(crate) fn file_digest(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Structural equality of two spatial hierarchies: same height, same dense
/// unit ids, same parent list.
fn same_hierarchy(a: &SpIndex, b: &SpIndex) -> bool {
    if a.height() != b.height() || a.num_units() != b.num_units() {
        return false;
    }
    (0..a.num_units() as u32)
        .all(|unit| a.parent(unit).ok().flatten() == b.parent(unit).ok().flatten())
}

fn corrupt(msg: &str) -> IndexError {
    IndexError::Corrupt(format!("sharded index: {msg}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{PairedConfig, StreamConfig, Workload};
    use trace_model::{DigitalTrace, Period};

    fn workload() -> Workload {
        Workload::paired(PairedConfig { pairs: 24, ..PairedConfig::default() })
    }

    fn temp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("shard-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn partitioner_is_stable_and_covers_all_shards() {
        // Pinned values: the manifest's PARTITION_VERSION contract.  If this
        // test fails, shard files written by older builds will mis-route.
        assert_eq!(shard_of(EntityId(0), 8), shard_of(EntityId(0), 8));
        for shards in [1usize, 2, 3, 8] {
            let mut seen = vec![false; shards];
            for e in 0..256u64 {
                let s = shard_of(EntityId(e), shards);
                assert!(s < shards);
                seen[s] = true;
            }
            assert!(seen.iter().all(|&s| s), "{shards} shards all receive entities");
        }
    }

    #[test]
    fn zero_shards_is_rejected() {
        let w = workload();
        assert!(matches!(
            ShardedMinSigIndex::build(&w.sp, &w.traces, IndexConfig::default(), 0),
            Err(IndexError::InvalidConfig(_))
        ));
    }

    #[test]
    fn sharded_answers_match_unsharded_answers_exactly() {
        let w = workload();
        let config = IndexConfig::with_hash_functions(32);
        let unsharded = w.build_index(config);
        let measure = w.measure();
        for shards in [1usize, 3, 7] {
            let sharded = ShardedMinSigIndex::build(&w.sp, &w.traces, config, shards).unwrap();
            assert_eq!(sharded.num_entities(), unsharded.num_entities());
            for query in [0u64, 5, 17, 40] {
                let (a, _) = sharded.top_k(EntityId(query), 5, &measure).unwrap();
                let (b, _) = unsharded.top_k(EntityId(query), 5, &measure).unwrap();
                crate::testkit::assert_equivalent_answers(
                    &a,
                    &b,
                    &format!("{shards} shards, query {query}"),
                );
            }
        }
    }

    #[test]
    fn unknown_query_entity_is_an_error_on_every_path() {
        let w = workload();
        let sharded =
            ShardedMinSigIndex::build(&w.sp, &w.traces, IndexConfig::default(), 4).unwrap();
        let measure = w.measure();
        let ghost = EntityId(999_999);
        assert!(matches!(
            sharded.top_k(ghost, 1, &measure),
            Err(IndexError::UnknownQueryEntity(999_999))
        ));
        assert!(matches!(
            sharded.snapshot().top_k_batch(&[EntityId(0), ghost], 1, &measure),
            Err(IndexError::UnknownQueryEntity(999_999))
        ));
        assert!(sharded.snapshot().brute_force(ghost, 1, &measure).is_err());
        // Joins skip, not fail.
        let (rows, stats) = sharded
            .snapshot()
            .top_k_join(&[EntityId(0), ghost], &measure, JoinOptions::default())
            .unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(stats.skipped, 1);
    }

    #[test]
    fn sharded_ingest_routes_batches_and_advances_touched_epochs_only() {
        let w = workload();
        let mut sharded =
            ShardedMinSigIndex::build(&w.sp, &w.traces, IndexConfig::with_hash_functions(16), 4)
                .unwrap();
        let records = w.stream(StreamConfig {
            records: 120,
            existing_entities: 48,
            ..StreamConfig::default()
        });
        let touched_shards: std::collections::BTreeSet<usize> =
            records.iter().map(|r| shard_of(r.entity, 4)).collect();
        let report = sharded.ingest_batch(records).unwrap();
        assert_eq!(report.records, 120);
        assert_eq!(report.shards_touched, touched_shards.len());
        for shard in 0..4 {
            let expected = u64::from(touched_shards.contains(&shard));
            assert_eq!(report.epochs[shard], expected, "shard {shard}");
        }
        assert_eq!(sharded.epochs(), report.epochs);
    }

    #[test]
    fn invalid_record_rejects_the_whole_cross_shard_batch() {
        let w = workload();
        let mut sharded =
            ShardedMinSigIndex::build(&w.sp, &w.traces, IndexConfig::with_hash_functions(16), 3)
                .unwrap();
        let mut buffer = IngestBuffer::new();
        for e in 0..6u64 {
            buffer.push(PresenceInstance::new(
                EntityId(e),
                w.sp.base_units()[0],
                Period::new(0, 60).unwrap(),
            ));
        }
        // Spatial unit 9999 exists in no hierarchy of this size.
        buffer.push(PresenceInstance::new(EntityId(7), 9999, Period::new(0, 60).unwrap()));
        let entities_before = sharded.num_entities();
        let err = buffer.flush_sharded(&mut sharded).unwrap_err();
        assert!(matches!(err, IndexError::Model(_)), "got {err:?}");
        assert_eq!(sharded.epochs(), vec![0, 0, 0], "no shard may be touched");
        assert_eq!(sharded.num_entities(), entities_before);
        assert_eq!(buffer.records().len(), 7, "the buffer keeps every record for repair");
    }

    #[test]
    fn empty_sharded_flush_is_a_no_op() {
        let w = workload();
        let mut sharded =
            ShardedMinSigIndex::build(&w.sp, &w.traces, IndexConfig::default(), 2).unwrap();
        let report = IngestBuffer::new().flush_sharded(&mut sharded).unwrap();
        assert_eq!(report.records, 0);
        assert_eq!(report.shards_touched, 0);
        assert_eq!(report.epochs, vec![0, 0]);
    }

    #[test]
    fn snapshot_isolates_readers_from_later_flushes() {
        let w = workload();
        let mut sharded =
            ShardedMinSigIndex::build(&w.sp, &w.traces, IndexConfig::with_hash_functions(16), 3)
                .unwrap();
        let measure = w.measure();
        let reader = sharded.snapshot();
        let before = reader.top_k(EntityId(0), 3, &measure).unwrap().0;
        assert_eq!(reader.epochs(), &[0, 0, 0]);

        sharded.ingest_batch(w.stream(StreamConfig::default())).unwrap();
        assert!(sharded.epochs().iter().sum::<u64>() > 0);
        // The held snapshot is frozen: old epoch vector, old answers.
        assert_eq!(reader.epochs(), &[0, 0, 0]);
        assert_eq!(reader.top_k(EntityId(0), 3, &measure).unwrap().0, before);
    }

    #[test]
    fn save_open_round_trips_and_detects_damage() {
        let w = workload();
        let sharded =
            ShardedMinSigIndex::build(&w.sp, &w.traces, IndexConfig::with_hash_functions(24), 3)
                .unwrap();
        let dir = temp_dir("round-trip");
        sharded.save(&dir).unwrap();

        let reopened = ShardedMinSigIndex::open(&dir).unwrap();
        assert_eq!(reopened.num_shards(), 3);
        assert_eq!(reopened.num_entities(), sharded.num_entities());
        assert_eq!(reopened.epochs(), vec![0, 0, 0]);
        let measure = w.measure();
        for query in [0u64, 9, 31] {
            let (a, _) = sharded.top_k(EntityId(query), 4, &measure).unwrap();
            let (b, _) = reopened.top_k(EntityId(query), 4, &measure).unwrap();
            assert_eq!(a, b);
        }

        // A flipped bit in ANY shard file is detected at open.
        for shard in 0..3 {
            let path = dir.join(ShardedMinSigIndex::shard_file_name(shard));
            let original = std::fs::read(&path).unwrap();
            let mut damaged = original.clone();
            let mid = damaged.len() / 2;
            damaged[mid] ^= 0x40;
            std::fs::write(&path, &damaged).unwrap();
            assert!(
                matches!(ShardedMinSigIndex::open(&dir), Err(IndexError::Corrupt(_))),
                "damage in shard {shard} must be detected"
            );
            std::fs::write(&path, &original).unwrap();
        }

        // Swapping two shard files mis-routes entities: detected, not served.
        let a = dir.join(ShardedMinSigIndex::shard_file_name(0));
        let b = dir.join(ShardedMinSigIndex::shard_file_name(1));
        let (bytes_a, bytes_b) = (std::fs::read(&a).unwrap(), std::fs::read(&b).unwrap());
        std::fs::write(&a, &bytes_b).unwrap();
        std::fs::write(&b, &bytes_a).unwrap();
        assert!(matches!(ShardedMinSigIndex::open(&dir), Err(IndexError::Corrupt(_))));
        std::fs::write(&a, &bytes_a).unwrap();
        std::fs::write(&b, &bytes_b).unwrap();

        // A missing shard file is an I/O error, a missing manifest too.
        std::fs::remove_file(&b).unwrap();
        assert!(matches!(ShardedMinSigIndex::open(&dir), Err(IndexError::Io(_))));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The touched shards publish on rayon workers; the result must be,
    /// byte for byte, what flushing each shard's sub-batch into its own
    /// `MinSigIndex` one after another gives — with and without a held
    /// snapshot forcing the copy-on-write publish.
    #[test]
    fn routed_flush_is_bitwise_the_shard_by_shard_flushes() {
        let w = workload();
        let config = IndexConfig::with_hash_functions(16);
        for shards in [1usize, 3, 8] {
            let mut sharded = ShardedMinSigIndex::build(&w.sp, &w.traces, config, shards).unwrap();
            let mut parts: Vec<TraceSet> =
                (0..shards).map(|_| TraceSet::new(w.traces.ticks_per_unit())).collect();
            for (entity, trace) in w.traces.iter() {
                parts[shard_of(entity, shards)].insert_trace(entity, trace.clone());
            }
            let mut references: Vec<MinSigIndex> =
                parts.iter().map(|part| MinSigIndex::build(&w.sp, part, config).unwrap()).collect();
            let stream = |seed: u64| {
                w.stream(StreamConfig {
                    records: 90,
                    existing_entities: 48,
                    new_entity_percent: 40,
                    seed,
                    ..StreamConfig::default()
                })
            };
            let lone_shard: Vec<PresenceInstance> =
                stream(4).into_iter().filter(|r| shard_of(r.entity, shards) == 0).collect();
            let batches =
                [(stream(1), false), (stream(2), true), (lone_shard, true), (stream(3), false)];
            let mut inserted = 0;
            for (step, (records, hold)) in batches.into_iter().enumerate() {
                let context = format!("{shards} shards, batch {step}");
                let held = hold.then(|| sharded.snapshot());
                let held_bytes: Vec<Vec<u8>> = held
                    .iter()
                    .flat_map(|snapshot| (0..shards).map(|s| snapshot.shard(s).to_bytes().unwrap()))
                    .collect();

                let mut buffer = IngestBuffer::new();
                buffer.extend(records.iter().cloned());
                let report = buffer.flush_sharded(&mut sharded).unwrap();

                let mut expected = ShardedIngestReport::default();
                for (s, reference) in references.iter_mut().enumerate() {
                    let mut sub_buffer = IngestBuffer::new();
                    sub_buffer.extend(
                        records.iter().filter(|r| shard_of(r.entity, shards) == s).cloned(),
                    );
                    if sub_buffer.is_empty() {
                        continue;
                    }
                    let shard_report = sub_buffer.flush(reference).unwrap();
                    expected.records += shard_report.records;
                    expected.entities_touched += shard_report.entities_touched;
                    expected.entities_inserted += shard_report.entities_inserted;
                    expected.shards_touched += 1;
                }
                inserted += expected.entities_inserted;
                if step == 2 {
                    assert_eq!(expected.shards_touched, 1, "{context}: one shard only");
                }
                let reference_epochs: Vec<u64> = references.iter().map(|r| r.epoch()).collect();
                assert_eq!(sharded.epochs(), reference_epochs, "{context}: epochs");
                assert_eq!(report.epochs, reference_epochs, "{context}: reported epochs");
                assert_eq!(
                    (report.records, report.entities_touched, report.entities_inserted),
                    (expected.records, expected.entities_touched, expected.entities_inserted),
                    "{context}: report counts"
                );
                assert_eq!(report.shards_touched, expected.shards_touched, "{context}: shards");
                for (s, reference) in references.iter().enumerate() {
                    assert!(
                        sharded.shards[s].snapshot().to_bytes().unwrap()
                            == reference.snapshot().to_bytes().unwrap(),
                        "{context}: shard {s} differs from its shard-by-shard flush"
                    );
                }
                if let Some(snapshot) = held {
                    for (s, before) in held_bytes.iter().enumerate() {
                        assert!(
                            snapshot.shard(s).to_bytes().unwrap() == *before,
                            "{context}: the held snapshot's shard {s} moved"
                        );
                    }
                }
            }
            assert!(inserted > 0, "{shards} shards: the stream inserts new entities");
        }
    }

    /// A checkpoint encodes the shards on workers and writes them in shard
    /// order: every file is its own shard stamped with its own LSN, and the
    /// manifest lists their digests in shard order.  `open` checks the
    /// shards on workers too, but reports the first failing one in shard
    /// order.
    #[test]
    fn save_stamps_every_shard_and_open_reports_the_first_failing_shard() {
        let w = workload();
        let sharded =
            ShardedMinSigIndex::build(&w.sp, &w.traces, IndexConfig::with_hash_functions(16), 3)
                .unwrap();
        let dir = temp_dir("stamped");
        let lsns = [7u64, 11, 13];
        sharded.save_with_lsns(&dir, Some(&lsns)).unwrap();
        let mut digests = Vec::new();
        for (i, &lsn) in lsns.iter().enumerate() {
            let file = std::fs::read(dir.join(ShardedMinSigIndex::shard_file_name(i))).unwrap();
            let expected = sharded.shard(i).to_bytes_with_lsn(lsn).unwrap();
            assert!(file == expected, "shard {i} is not its own image stamped with LSN {lsn}");
            digests.push(file_digest(&file));
        }
        let mut reader = segment::open_file(
            &dir.join(SHARD_MANIFEST_FILE),
            SHARD_MANIFEST_MAGIC,
            SHARD_MANIFEST_VERSION,
        )
        .unwrap();
        let (tag, payload) = reader.next_segment().unwrap().unwrap();
        assert_eq!(tag, TAG_MANIFEST);
        let mut c = Cursor::new(&payload);
        assert_eq!((c.u32().unwrap(), c.u32().unwrap()), (PARTITION_VERSION, 3));
        for (i, digest) in digests.iter().enumerate() {
            assert_eq!(c.u64().unwrap(), sharded.shard(i).num_entities() as u64, "shard {i} count");
            assert_eq!(c.u64().unwrap(), *digest, "shard {i} digest");
        }
        let (reopened, reopened_lsns) = ShardedMinSigIndex::open_for_recovery(&dir).unwrap();
        assert_eq!(reopened_lsns, lsns);
        assert_eq!(reopened.num_entities(), sharded.num_entities());

        // Shard 2 damaged and shard 1 missing: shard 1's error comes first.
        let path_1 = dir.join(ShardedMinSigIndex::shard_file_name(1));
        let path_2 = dir.join(ShardedMinSigIndex::shard_file_name(2));
        let (shard_1, mut shard_2) =
            (std::fs::read(&path_1).unwrap(), std::fs::read(&path_2).unwrap());
        let mid = shard_2.len() / 2;
        shard_2[mid] ^= 0x40;
        std::fs::write(&path_2, &shard_2).unwrap();
        std::fs::remove_file(&path_1).unwrap();
        let err = ShardedMinSigIndex::open(&dir).unwrap_err();
        assert!(matches!(err, IndexError::Io(_)), "the missing shard 1 first, got {err:?}");
        std::fs::write(&path_1, &shard_1).unwrap();
        match ShardedMinSigIndex::open(&dir) {
            Err(IndexError::Corrupt(message)) => {
                assert!(message.contains("shard 2"), "names the damaged shard: {message}")
            }
            other => panic!("the damaged shard 2 must be reported, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Regression test for the shrinking re-save bug: saving 8 shards and
    /// then re-saving 2 into the same directory used to leave
    /// `shard-00002.msix`..`shard-00007.msix` behind forever — `open` only
    /// verifies manifest-listed files, so the stale shards silently
    /// accumulated.  After the manifest commits, undescribed shard files
    /// must be deleted and the directory must hold exactly the new save.
    #[test]
    fn shrinking_resave_deletes_orphaned_shard_files() {
        let w = workload();
        let config = IndexConfig::with_hash_functions(16);
        let eight = ShardedMinSigIndex::build(&w.sp, &w.traces, config, 8).unwrap();
        let dir = temp_dir("shrink");
        eight.save(&dir).unwrap();
        assert!(dir.join(ShardedMinSigIndex::shard_file_name(7)).exists());

        let two = ShardedMinSigIndex::build(&w.sp, &w.traces, config, 2).unwrap();
        two.save(&dir).unwrap();

        // Exact directory contents: the manifest plus exactly two shards.
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        assert_eq!(
            names,
            vec![
                SHARD_MANIFEST_FILE.to_string(),
                ShardedMinSigIndex::shard_file_name(0),
                ShardedMinSigIndex::shard_file_name(1),
            ],
            "orphaned shard files survived a shrinking re-save"
        );

        // And the directory reopens cleanly to the 2-shard index.
        let reopened = ShardedMinSigIndex::open(&dir).unwrap();
        assert_eq!(reopened.num_shards(), 2);
        assert_eq!(reopened.num_entities(), two.num_entities());
        let measure = w.measure();
        for query in [0u64, 9, 31] {
            let (a, _) = two.top_k(EntityId(query), 4, &measure).unwrap();
            let (b, _) = reopened.top_k(EntityId(query), 4, &measure).unwrap();
            assert_eq!(a, b);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Regression test for the re-save crash window: an interrupted save
    /// over an existing directory leaves the OLD manifest next to a mix of
    /// old and new shard files.  Every individual file is intact (entity
    /// counts and routing unchanged by an update), so only the manifest's
    /// content digests can catch the mix — `open` must refuse, never serve
    /// pre- and post-mutation shards together.
    #[test]
    fn interrupted_resave_over_existing_directory_is_detected() {
        let w = workload();
        let mut sharded =
            ShardedMinSigIndex::build(&w.sp, &w.traces, IndexConfig::with_hash_functions(16), 3)
                .unwrap();
        let dir = temp_dir("resave");
        sharded.save(&dir).unwrap();

        // Mutate without changing any entity count (replace an existing
        // entity's trace), then save elsewhere to obtain the "new" shard
        // bytes a crashed re-save would have partially written.
        let victim = w.entities()[0];
        let moved = DigitalTrace::from_instances(vec![PresenceInstance::new(
            victim,
            w.sp.base_units()[1],
            Period::new(0, 60).unwrap(),
        )]);
        let home = shard_of(victim, 3);
        sharded.shards[home].update_entity(victim, &moved).unwrap();
        let dir_new = temp_dir("resave-new");
        sharded.save(&dir_new).unwrap();

        // Simulate the crash: the victim's home shard file was replaced, the
        // manifest (and the other shards) still belong to the old save.
        let partial = ShardedMinSigIndex::shard_file_name(home);
        std::fs::copy(dir_new.join(&partial), dir.join(&partial)).unwrap();
        let err = ShardedMinSigIndex::open(&dir).unwrap_err();
        assert!(
            matches!(err, IndexError::Corrupt(_)),
            "mixed-save directory must be refused, got {err:?}"
        );

        // Both complete directories still open fine.
        ShardedMinSigIndex::open(&dir_new).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&dir_new).unwrap();
    }

    #[test]
    fn future_partitioner_versions_are_not_served() {
        let w = workload();
        let sharded =
            ShardedMinSigIndex::build(&w.sp, &w.traces, IndexConfig::default(), 2).unwrap();
        let dir = temp_dir("partitioner");
        sharded.save(&dir).unwrap();
        // Rewrite the manifest with a newer partitioner version.
        let mut payload = Vec::new();
        payload.extend_from_slice(&(PARTITION_VERSION + 1).to_le_bytes());
        payload.extend_from_slice(&2u32.to_le_bytes());
        for shard in 0..2 {
            payload.extend_from_slice(&(sharded.shard(shard).num_entities() as u64).to_le_bytes());
            payload.extend_from_slice(&0u64.to_le_bytes()); // digest (never reached)
        }
        segment::atomic_write(
            &dir.join(SHARD_MANIFEST_FILE),
            SHARD_MANIFEST_MAGIC,
            SHARD_MANIFEST_VERSION,
            |writer| writer.write_segment(TAG_MANIFEST, &payload),
        )
        .unwrap();
        assert!(matches!(ShardedMinSigIndex::open(&dir), Err(IndexError::UnsupportedVersion(_))));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
