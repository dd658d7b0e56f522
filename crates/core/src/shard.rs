//! Sharding: hash-partitioning the entity population across independent
//! [`MinSigIndex`] shards with exact cross-shard top-k fan-out.
//!
//! One in-memory MinSigTree per process stops scaling once the population (or
//! the ingest rate) outgrows a single snapshot: every copy-on-write clone, every
//! flush and every save serialises on one handle.  A [`ShardedMinSigIndex`]
//! instead assigns each entity to one of `N` shards by a **stable hash of its
//! id** ([`shard_of`]) and keeps a completely independent `MinSigIndex` per
//! shard — independent snapshots, independent epochs, independent `MSIX` files —
//! so ingest, persistence and maintenance all parallelise per shard.
//!
//! ## Planned queries
//!
//! Every query path ([`ShardedSnapshot::top_k`], batches, joins) goes
//! through the crate's one planned drive.  It first consults each shard's
//! [`Synopsis`](crate::synopsis::Synopsis) through [`crate::plan`]: the
//! sketch candidates are scored exactly to **seed** a provable k-th-degree
//! lower bound, shards whose capacity caps cannot beat the seed are
//! **skipped** outright, and every admitted shard is answered by the flat
//! exact **scan**, most promising first.  The decisions are answer-invariant
//! (strict-inequality certificates, see the
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
//! ([`crate::paged`]) the same drive runs with every candidate read through
//! a buffer pool.
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
//! capture.  Readers holding a `ShardedSnapshot` are isolated from all later
//! flushes, shard by shard, exactly like unsharded snapshot readers.
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
use crate::drive::{self, ShardAccess};
use crate::engine;
use crate::error::{IndexError, Result};
use crate::index::MinSigIndex;
use crate::ingest::{IngestBuffer, PreparedBatch};
use crate::join::{join_probes, JoinOptions, JoinRow, JoinStats};
use crate::kernel::{ArenaSource, QueryView};
use crate::plan::{self, BatchPlan, QueryPlan};
use crate::query::{Query, TopKResult};
use crate::snapshot::IndexSnapshot;
use crate::stats::QueryStats;
use rayon::prelude::*;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use trace_model::{
    AssociationMeasure, CellSetSequence, EntityId, LevelOverlap, PresenceInstance, SpIndex,
    TraceSet,
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
/// query from any number of threads.  All query entry points of the sharded
/// index are available directly on the snapshot; the handle methods are thin
/// delegates.
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

    /// Answers every query of a batch; see [`ShardedSnapshot::top_k_batch`].
    pub fn top_k_batch<M: AssociationMeasure + Sync + ?Sized>(
        &self,
        queries: &[EntityId],
        k: usize,
        measure: &M,
    ) -> Result<Vec<(Vec<TopKResult>, QueryStats)>> {
        self.snapshot().top_k_batch(queries, k, measure)
    }

    /// Answers the top-k query for every probe entity; see
    /// [`ShardedSnapshot::top_k_join`].
    pub fn top_k_join<M: AssociationMeasure + Sync + ?Sized>(
        &self,
        probes: &[EntityId],
        measure: &M,
        options: JoinOptions,
    ) -> Result<(Vec<JoinRow>, JoinStats)> {
        self.snapshot().top_k_join(probes, measure, options)
    }

    /// Ground-truth brute force over all shards' sequences; see
    /// [`ShardedSnapshot::brute_force`].
    pub fn brute_force<M: AssociationMeasure + ?Sized>(
        &self,
        query: EntityId,
        k: usize,
        measure: &M,
    ) -> Result<Vec<TopKResult>> {
        self.snapshot().brute_force(query, k, measure)
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
        let view = self.view(entity)?;
        drive::run(&self.access(&view, entity), query, true)
    }

    /// Builds — without executing — the [`QueryPlan`] the planned query
    /// paths would run for `query` under `planner`: the seeded threshold,
    /// each shard's synopsis upper bound, and the skip / scan /
    /// approximate-scan verdicts in driving order.  [`QueryPlan::explain`] renders it for
    /// humans.
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
    /// every knob goes through.
    ///
    /// The batch is **planned once** ([`plan_batch`](Self::plan_batch); see
    /// [`BatchPlan`] for what is amortized): per-query plans — and therefore
    /// answers — are identical to per-query planning
    /// (`tests/deadline_conformance.rs` asserts bitwise equality), and each
    /// query's reported [`QueryStats::planning_us`] is its amortized share
    /// (`total / batch size`, integer division).
    ///
    /// Execution parallelism is over the *queries* (the batch is the wider
    /// axis); each query's admitted shards are scanned one after another on
    /// its worker, to avoid nested thread fan-out.  Results and work
    /// counters are identical either way.  With a latency budget set, each query's
    /// deadline is measured from its own execution start (the shared
    /// planning cost is amortized, not charged per query).
    pub fn query_batch<M: AssociationMeasure + Sync + ?Sized>(
        &self,
        entities: &[EntityId],
        query: &Query<'_, M>,
    ) -> Result<Vec<(Vec<TopKResult>, QueryStats)>> {
        query.validate()?;
        if entities.is_empty() {
            return Ok(Vec::new());
        }
        let targets = self.targets(entities, query)?;
        let batch = plan::plan_batch(&self.shards, &targets, query);
        let amortized_planning_us = batch.planning_us / entities.len() as u64;
        let indices: Vec<usize> = (0..entities.len()).collect();
        Ok(indices
            .par_iter()
            .map(|&i| {
                let (entity, view) = &targets[i];
                drive::execute(
                    &self.access(view, *entity),
                    &batch.plans[i],
                    query,
                    false,
                    Instant::now(),
                    amortized_planning_us,
                )
            })
            .collect())
    }

    /// Builds — without executing — the [`BatchPlan`] that
    /// [`query_batch`](Self::query_batch) would run under `planner`: one
    /// [`QueryPlan`] per query (bitwise identical to per-query
    /// [`explain`](Self::explain)) plus the footprint grouping, rendered for
    /// humans by [`BatchPlan::explain`].  The first unknown query entity
    /// fails the whole batch, like the execution path.
    pub fn plan_batch<M: AssociationMeasure + Sync + ?Sized>(
        &self,
        queries: &[EntityId],
        k: usize,
        measure: &M,
        planner: PlannerConfig,
    ) -> Result<BatchPlan> {
        let query = Query { planner, ..Query::new(k, measure) };
        query.validate()?;
        Ok(plan::plan_batch(&self.shards, &self.targets(queries, &query)?, &query))
    }

    /// Answers the top-k query for every probe entity, optionally in
    /// parallel, with the same skip/ordering semantics as
    /// [`IndexSnapshot::top_k_join`]: unindexed probes are counted in
    /// [`JoinStats::skipped`], output preserves probe order, and sequential
    /// and parallel evaluation return identical rows.  A sharded join scans,
    /// so the tree's pruning ablations ([`JoinOptions::query`]) are not read.
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

    /// The shard snapshots in shard order (what the paged wrapper iterates).
    pub(crate) fn shard_snapshots(&self) -> &[Arc<IndexSnapshot>] {
        &self.shards
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
    fn access<'q>(&'q self, view: &'q QueryView<'q>, entity: EntityId) -> ArenaAccess<'q> {
        ArenaAccess::new(&self.shards, view, entity, None)
    }

    /// A batch's entities with their views, resolved sequentially so the
    /// *first* unknown entity (in input order) fails the batch, matching the
    /// unsharded contract.  Planning and execution share the views.
    fn targets<M: ?Sized>(
        &self,
        entities: &[EntityId],
        query: &Query<'_, M>,
    ) -> Result<Vec<(EntityId, QueryView<'_>)>> {
        let mut targets = Vec::with_capacity(entities.len());
        for &entity in entities {
            let view = self.view(entity)?;
            drive::admit(&self.shards, view.sequence(), query)?;
            targets.push((entity, view));
        }
        Ok(targets)
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

/// In-memory [`ShardAccess`]: candidates are read from the shard snapshots'
/// candidate arenas — no pages, no pins, nothing to drain but the scan
/// sources' kernel-dispatch counts.
pub(crate) struct ArenaAccess<'q> {
    shards: &'q [Arc<IndexSnapshot>],
    /// The query's one view: seeding scores through it and every source
    /// borrows it.
    view: &'q QueryView<'q>,
    entity: EntityId,
    /// Batch planning's pre-resolved [`sketch_positions`]; per-query planning
    /// looks each sketch entity up instead.
    sketch_positions: Option<&'q [Vec<Option<usize>>]>,
}

impl<'q> ArenaAccess<'q> {
    /// The access of `entity`'s query, whose sequence `view` resolves.
    pub(crate) fn new(
        shards: &'q [Arc<IndexSnapshot>],
        view: &'q QueryView<'q>,
        entity: EntityId,
        sketch_positions: Option<&'q [Vec<Option<usize>>]>,
    ) -> Self {
        ArenaAccess { shards, view, entity, sketch_positions }
    }
}

/// Every shard's sketch entities resolved to arena positions, `[shard][slot]`
/// parallel to [`Synopsis::hot_entities`](crate::synopsis::Synopsis::hot_entities).
/// The synopsis travels with its snapshot, so a miss cannot happen — and would
/// only cost seed quality, never correctness.
pub(crate) fn sketch_positions(shards: &[Arc<IndexSnapshot>]) -> Vec<Vec<Option<usize>>> {
    shards
        .iter()
        .map(|shard| {
            let arena = shard.arena();
            shard.synopsis().hot_entities().iter().map(|&hot| arena.position(hot)).collect()
        })
        .collect()
}

impl<'q> ShardAccess<'q> for ArenaAccess<'q> {
    type Source = ArenaSource<'q>;

    fn shards(&self) -> &'q [Arc<IndexSnapshot>] {
        self.shards
    }

    fn sequence(&self) -> &'q CellSetSequence {
        self.view.sequence()
    }

    fn entity(&self) -> EntityId {
        self.entity
    }

    // Seeding is most of a skipping query's cost: inlined into the planner,
    // or a 35 µs query pays ~0.2 µs for the call boundary.
    #[inline]
    fn seed<M: AssociationMeasure + ?Sized>(
        &self,
        shard: usize,
        measure: &M,
        scratch: &mut LevelOverlap,
        mut offer: impl FnMut(EntityId, f64),
    ) {
        let snapshot = &self.shards[shard];
        let arena = snapshot.arena();
        for (slot, &hot) in snapshot.synopsis().hot_entities().iter().enumerate() {
            if hot == self.entity {
                continue;
            }
            let pos = match self.sketch_positions {
                Some(positions) => positions[shard][slot],
                None => arena.position(hot),
            };
            if let Some(pos) = pos {
                offer(hot, arena.degree_into(pos, self.view, measure, scratch));
            }
        }
    }

    fn scan<M: AssociationMeasure + ?Sized>(
        source: &ArenaSource<'q>,
        shard: &IndexSnapshot,
        exclude: EntityId,
        rate: Option<f64>,
        query: &Query<'_, M>,
    ) -> (Vec<TopKResult>, usize) {
        let hot = shard.synopsis().hot_entities();
        source.scan(query.k, query.measure, |entity| {
            entity != exclude && plan::scan_admits(rate, hot, entity)
        })
    }

    fn source(&self, shard: usize) -> ArenaSource<'q> {
        ArenaSource::new(self.shards[shard].arena(), self.view)
    }

    fn drain_source(source: &ArenaSource<'q>, stats: &mut QueryStats) {
        stats.kernel_dispatch.absorb(source.take_dispatch());
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
    pub(crate) fn apply(&mut self, batch: PreparedBatch, started: Instant) -> ShardedIngestReport {
        let mut report = ShardedIngestReport::default();
        let sub_batches = batch.split(self.shards.len());
        for (shard, sub_batch) in self.shards.iter_mut().zip(sub_batches) {
            if sub_batch.is_empty() {
                continue;
            }
            let shard_report = sub_batch.apply(shard, Instant::now());
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
    pub(crate) fn save_with_lsns(&self, dir: &Path, lsns: Option<&[u64]>) -> Result<()> {
        debug_assert!(lsns.is_none_or(|l| l.len() == self.shards.len()));
        std::fs::create_dir_all(dir).map_err(|e| IndexError::Io(e.to_string()))?;
        let mut payload = Vec::with_capacity(8 + self.shards.len() * 16);
        payload.extend_from_slice(&PARTITION_VERSION.to_le_bytes());
        payload.extend_from_slice(&(self.shards.len() as u32).to_le_bytes());
        for (i, shard) in self.shards.iter().enumerate() {
            // Serialise in memory, digest, then commit atomically: the
            // manifest digests the exact bytes that hit the disk, with no
            // write-then-read-back round trip.
            let lsn = lsns.map_or(0, |l| l[i]);
            let bytes = shard.snapshot().to_bytes_with_lsn(lsn)?;
            segment::atomic_write_bytes(&dir.join(Self::shard_file_name(i)), &bytes)?;
            payload.extend_from_slice(&(shard.num_entities() as u64).to_le_bytes());
            payload.extend_from_slice(&file_digest(&bytes).to_le_bytes());
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
        let mut shards = Vec::with_capacity(num_shards);
        let mut ckpt_lsns = Vec::with_capacity(num_shards);
        for (i, &(expected, digest)) in entries.iter().enumerate() {
            let path = dir.join(Self::shard_file_name(i));
            let bytes = std::fs::read(&path).map_err(|e| IndexError::Io(e.to_string()))?;
            if strict && file_digest(&bytes) != digest {
                return Err(corrupt(&format!(
                    "shard {i} does not match the manifest that describes it (interrupted \
                     re-save over an existing directory, or a damaged/replaced shard file)"
                )));
            }
            // Parse the *verified* buffer — re-reading the file here would
            // open a window for a concurrent re-save to swap it after the
            // digest check.
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
            shards.push(shard);
            ckpt_lsns.push(ckpt_lsn);
        }
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
            sharded.top_k_batch(&[EntityId(0), ghost], 1, &measure),
            Err(IndexError::UnknownQueryEntity(999_999))
        ));
        assert!(sharded.brute_force(ghost, 1, &measure).is_err());
        // Joins skip, not fail.
        let (rows, stats) =
            sharded.top_k_join(&[EntityId(0), ghost], &measure, JoinOptions::default()).unwrap();
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
