//! The immutable, shareable state of a built index.
//!
//! [`IndexSnapshot`] owns everything a query needs — the spatial hierarchy,
//! the hash family, the [`MinSigTree`] and the
//! materialised ST-cell set sequences — and exposes only `&self` query
//! methods, so an `Arc<IndexSnapshot>` can be handed to any number of worker
//! threads which all see one consistent version of the index.
//!
//! Mutation lives in [`MinSigIndex`](crate::index::MinSigIndex), which wraps
//! an `Arc<IndexSnapshot>` with copy-on-write semantics: while no reader holds
//! a second reference, `update_entity`/`remove_entity` mutate the snapshot in
//! place (the common single-owner case costs nothing); once a reader has
//! cloned the `Arc`, the next update first clones the snapshot, so in-flight
//! readers keep an unchanging view — snapshot isolation by immutability.
//!
//! ## One writer
//!
//! The tree, the two owned maps and their three read-path mirrors (planning
//! synopsis, candidate arena, node rows) are private to this module, and two
//! functions write them: `IndexSnapshot::from_parts` (a fresh build, a file
//! being opened) and `IndexSnapshot::publish`, which every mutation reaches
//! through `MinSigIndex::commit`.  `publish` applies per-entity `Change`s and
//! then brings the mirrors back in line with the maps, so "the mirrors equal
//! a from-scratch build" is one function's postcondition rather than a
//! protocol every mutation path repeats.

use crate::config::IndexConfig;
use crate::engine;
use crate::error::{IndexError, Result};
use crate::kernel::{ArenaSource, CandidateArena, NodeArena, QueryView};
use crate::query::{Query, QueryOptions, TopKResult};
use crate::signature::{HierarchicalHasher, SeededHashFamily, SignatureList};
use crate::stats::QueryStats;
use crate::synopsis::Synopsis;
use crate::tree::MinSigTree;
use std::borrow::Cow;
use std::collections::BTreeMap;
use trace_model::{AssociationMeasure, CellSetSequence, EntityId, SpIndex};

/// One immutable version of the MinSigTree index: the unit of sharing between
/// concurrent readers.
///
/// Obtained from [`MinSigIndex::snapshot`](crate::index::MinSigIndex::snapshot);
/// every query entry point of the crate is available directly on the snapshot
/// (the `MinSigIndex` handle derefs to it).
///
/// A snapshot is also the unit of *epoch publication* during streaming
/// ingestion ([`crate::ingest`]) and the unit of persistence
/// ([`MinSigIndex::save`](crate::index::MinSigIndex::save) writes the current
/// one, [`to_bytes`](IndexSnapshot::to_bytes) is its file image):
///
/// ```
/// use minsig::{IndexConfig, MinSigIndex};
/// use trace_model::{DiceAdm, EntityId, Period, PresenceInstance, SpIndex, TraceSet};
///
/// let sp = SpIndex::uniform(2, &[2]).unwrap();
/// let mut traces = TraceSet::new(60);
/// for e in 0..4u64 {
///     traces.record(PresenceInstance::new(
///         EntityId(e),
///         sp.base_units()[(e % 2) as usize],
///         Period::new(0, 120).unwrap(),
///     ));
/// }
/// let mut index = MinSigIndex::build(&sp, &traces, IndexConfig::default()).unwrap();
/// let snapshot = index.snapshot();
///
/// // The handle keeps mutating; the held snapshot never moves.
/// index.remove_entity(EntityId(2)).unwrap();
/// assert!(snapshot.contains(EntityId(2)));
/// assert!(!index.contains(EntityId(2)));
///
/// // Queries run directly on the snapshot, from any number of threads.
/// let (results, _) = snapshot.top_k(EntityId(0), 1, &DiceAdm::uniform(2)).unwrap();
/// assert_eq!(results[0].entity, EntityId(2));
/// ```
#[derive(Debug, Clone)]
pub struct IndexSnapshot {
    pub(crate) sp: SpIndex,
    pub(crate) config: IndexConfig,
    pub(crate) ticks_per_unit: u64,
    pub(crate) hasher: HierarchicalHasher<SeededHashFamily>,
    tree: MinSigTree,
    sequences: BTreeMap<EntityId, CellSetSequence>,
    /// Per-entity signature lists, kept alongside the tree so that streaming
    /// ingestion can merge a batch's *delta* signature into an entity's
    /// existing one (`min(sig_old, sig_delta)`) instead of re-hashing the full
    /// trace, and so that a persisted index reloads without re-hashing at all.
    signatures: BTreeMap<EntityId, SignatureList>,
    /// The planning synopsis of this population (per-level capacity caps,
    /// top-m hot-entity sketch, entity count), consumed by the sharded query
    /// planner ([`crate::plan`]).  Invariant, kept by
    /// [`publish`](Self::publish): equals [`Synopsis::compute`] over
    /// `sequences`.
    synopsis: Synopsis,
    /// The flat candidate arena ([`crate::kernel`]): a read-path-only
    /// CSR/SoA mirror of `sequences` + `signatures`.  Invariant, kept by
    /// [`publish`](Self::publish): equals [`CandidateArena::build`] over them.
    arena: CandidateArena,
    /// The flat node rows of the tree ([`crate::kernel::NodeArena`]): the
    /// read-path-only SoA/CSR mirror of `tree` every tree search expands
    /// through.  Invariant, kept by [`publish`](Self::publish): equals
    /// [`NodeArena::build`] over `tree`.
    node_arena: NodeArena,
}

/// Everything a snapshot is made of except its mirrors: what a fresh build
/// computed or what a persisted file held.
pub(crate) struct SnapshotParts {
    pub(crate) sp: SpIndex,
    pub(crate) config: IndexConfig,
    pub(crate) ticks_per_unit: u64,
    pub(crate) hasher: HierarchicalHasher<SeededHashFamily>,
    pub(crate) tree: MinSigTree,
    pub(crate) sequences: BTreeMap<EntityId, CellSetSequence>,
    pub(crate) signatures: BTreeMap<EntityId, SignatureList>,
    /// `None` computes it from `sequences` (default sketch size, epoch 0).
    pub(crate) synopsis: Option<Synopsis>,
}

/// What one [`IndexSnapshot::publish`] does to one entity.
pub(crate) enum Change {
    /// Insert the entity, or replace its whole trace and signature.
    Put(CellSetSequence, SignatureList),
    /// Union this *delta* sequence into the entity's trace and `merge_min`
    /// the delta's signature into its own (an insert when the entity is new).
    Merge(CellSetSequence, SignatureList),
    /// Remove the entity.
    Remove,
}

/// Entities one [`IndexSnapshot::publish`] inserted, replaced and removed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Published {
    pub(crate) inserted: usize,
    pub(crate) replaced: usize,
    pub(crate) removed: usize,
}

impl IndexSnapshot {
    /// The configuration the index was built with.
    pub fn config(&self) -> IndexConfig {
        self.config
    }

    /// The spatial hierarchy of the index.
    pub fn sp_index(&self) -> &SpIndex {
        &self.sp
    }

    /// The underlying tree (read-only).
    pub fn tree(&self) -> &MinSigTree {
        &self.tree
    }

    /// The hierarchical hasher: what the tree search hashes query cells with,
    /// and where a rebuild reads the resolved hash range to pin.
    pub fn hasher(&self) -> &HierarchicalHasher<SeededHashFamily> {
        &self.hasher
    }

    /// The temporal discretisation (raw ticks per base temporal unit).
    pub fn ticks_per_unit(&self) -> u64 {
        self.ticks_per_unit
    }

    /// Number of indexed entities.
    pub fn num_entities(&self) -> usize {
        self.tree.num_entities()
    }

    /// True when the entity is indexed.
    pub fn contains(&self, entity: EntityId) -> bool {
        self.sequences.contains_key(&entity)
    }

    /// The materialised sequence of an indexed entity.
    pub fn sequence(&self, entity: EntityId) -> Option<&CellSetSequence> {
        self.sequences.get(&entity)
    }

    /// The signature list of an indexed entity (what the tree grouped it by).
    pub fn signature(&self, entity: EntityId) -> Option<&SignatureList> {
        self.signatures.get(&entity)
    }

    /// The materialised sequences of all indexed entities (used by baselines
    /// and ground-truth comparisons).
    pub fn sequences(&self) -> &BTreeMap<EntityId, CellSetSequence> {
        &self.sequences
    }

    /// The planning synopsis of this snapshot's population (see
    /// [`crate::synopsis`]): always consistent with the sequences — every
    /// publish brings it up to date, and `MSIX` v2 files reload it verbatim.
    pub fn synopsis(&self) -> &Synopsis {
        &self.synopsis
    }

    /// The flat candidate arena of this snapshot (see [`crate::kernel`]) —
    /// the hot-path mirror of [`sequences`](Self::sequences) every exact
    /// scan and leaf evaluation reads from.
    pub fn arena(&self) -> &CandidateArena {
        &self.arena
    }

    /// The flat node rows of this snapshot's tree (see
    /// [`crate::kernel::NodeArena`]) — the topology every
    /// [`top_k_for_sequence`](Self::top_k_for_sequence) expands through.
    pub fn node_arena(&self) -> &NodeArena {
        &self.node_arena
    }

    /// Assembles a snapshot from its parts and builds the mirrors over them:
    /// the one constructor (a fresh build, a file being opened).
    pub(crate) fn from_parts(parts: SnapshotParts) -> IndexSnapshot {
        let synopsis = parts.synopsis.unwrap_or_else(|| {
            synopsis_of(&parts.tree, &parts.sequences, crate::synopsis::DEFAULT_SKETCH_SIZE, 0)
        });
        let mut snapshot = IndexSnapshot {
            sp: parts.sp,
            config: parts.config,
            ticks_per_unit: parts.ticks_per_unit,
            hasher: parts.hasher,
            tree: parts.tree,
            sequences: parts.sequences,
            signatures: parts.signatures,
            synopsis,
            arena: CandidateArena::default(),
            node_arena: NodeArena::default(),
        };
        snapshot.rebuild_arena(&CandidateArena::default(), &[]);
        snapshot
    }

    /// Applies `changes` (in the order given — callers pass entity order) to
    /// the tree and the owned maps, then brings the three mirrors back in
    /// line with them at `epoch`: the one mutator, in place.
    ///
    /// A lone [`Change::Put`] of a new entity only grows the population, so
    /// the synopsis and the candidate arena absorb it in `O(delta + n)`;
    /// anything else can shrink sizes, and only a recompute and a rebuild
    /// stay exact.  The rebuild reads the changed entities from the maps and
    /// copies everyone else's rows from the arena it replaces
    /// ([`CandidateArena::rebuild`]), so only the batch's keyed rows are
    /// converted.  The node rows are rebuilt either way — even one insert
    /// re-routes tree paths — in `O(nodes)`, the order of the arena splice.
    pub(crate) fn publish(&mut self, changes: Vec<(EntityId, Change)>, epoch: u64) -> Published {
        let previous = std::mem::take(&mut self.arena);
        self.publish_over(Cow::Owned(previous), changes, epoch)
    }

    /// [`publish`](Self::publish) onto a copy of this snapshot — what a
    /// commit does while readers still hold this one.  The copy takes every
    /// part but the two arenas, which the publish rebuilds from this
    /// snapshot's (cloning the candidate arena only to absorb into it): no
    /// arena is copied just to be dropped.
    pub(crate) fn publish_copy(
        &self,
        changes: Vec<(EntityId, Change)>,
        epoch: u64,
    ) -> (IndexSnapshot, Published) {
        let mut next = IndexSnapshot {
            sp: self.sp.clone(),
            config: self.config,
            ticks_per_unit: self.ticks_per_unit,
            hasher: self.hasher.clone(),
            tree: self.tree.clone(),
            sequences: self.sequences.clone(),
            signatures: self.signatures.clone(),
            synopsis: self.synopsis.clone(),
            arena: CandidateArena::default(),
            node_arena: NodeArena::default(),
        };
        let published = next.publish_over(Cow::Borrowed(&self.arena), changes, epoch);
        (next, published)
    }

    /// What [`publish`](Self::publish) does, `previous` being the candidate
    /// arena of the version it replaces.
    fn publish_over(
        &mut self,
        previous: Cow<'_, CandidateArena>,
        changes: Vec<(EntityId, Change)>,
        epoch: u64,
    ) -> Published {
        let absorb = matches!(&changes[..], [(entity, Change::Put(..))] if !self.contains(*entity));
        let previous = if absorb {
            self.arena = previous.into_owned();
            None
        } else {
            Some(previous)
        };
        // Every changed entity, with the delta it grew by when that is all
        // that happened to it: the rebuild unites its rows with the delta's.
        let mut changed: Vec<(EntityId, Option<CellSetSequence>)> = Vec::new();
        let mut published = Published::default();
        for (entity, change) in changes {
            let (seq, sig) = match change {
                Change::Put(seq, sig) => {
                    changed.push((entity, None));
                    (seq, sig)
                }
                Change::Merge(delta_seq, delta_sig) => {
                    match (self.sequences.get(&entity), self.signatures.remove(&entity)) {
                        (Some(old_seq), Some(mut sig)) => {
                            sig.merge_min(&delta_sig);
                            let seq = old_seq.union(&delta_seq);
                            changed.push((entity, Some(delta_seq)));
                            (seq, sig)
                        }
                        _ => {
                            changed.push((entity, None));
                            (delta_seq, delta_sig)
                        }
                    }
                }
                Change::Remove => {
                    self.tree.remove(entity);
                    self.sequences.remove(&entity);
                    self.signatures.remove(&entity);
                    changed.push((entity, None));
                    published.removed += 1;
                    continue;
                }
            };
            self.tree.insert(entity, &sig);
            if absorb {
                self.absorb_into_synopsis(entity, &seq, epoch);
                self.arena.absorb_insert(entity, &seq, &sig);
            }
            match self.sequences.insert(entity, seq) {
                None => published.inserted += 1,
                Some(_) => published.replaced += 1,
            }
            self.signatures.insert(entity, sig);
        }
        match previous {
            None => self.node_arena = NodeArena::build(&self.tree),
            Some(previous) => {
                // An entity changed twice grew by more than its last delta.
                changed.sort_by_key(|(entity, _)| *entity);
                changed.dedup_by(|later, first| {
                    let twice = later.0 == first.0;
                    if twice {
                        first.1 = None;
                    }
                    twice
                });
                self.set_sketch_size(self.synopsis.sketch_size(), epoch);
                self.rebuild_arena(&previous, &changed);
            }
        }
        published
    }

    /// Rebuilds both arenas over the maps, the candidate arena from
    /// `previous` for every entity `changed` (ascending, with the delta an
    /// entity only grew by) does not list ([`CandidateArena::rebuild`]).
    fn rebuild_arena(
        &mut self,
        previous: &CandidateArena,
        changed: &[(EntityId, Option<CellSetSequence>)],
    ) {
        self.arena = previous.rebuild(
            self.tree.levels(),
            self.hasher.num_functions() as usize,
            &self.sequences,
            &self.signatures,
            changed,
        );
        self.node_arena = NodeArena::build(&self.tree);
    }

    /// Recomputes the planning synopsis from the sequences with sketch size
    /// `m`, recorded at `epoch`.  On its own (the handle's sketch resize) not
    /// a data mutation: the maps and the other mirrors stay.
    pub(crate) fn set_sketch_size(&mut self, m: usize, epoch: u64) {
        self.synopsis = synopsis_of(&self.tree, &self.sequences, m, epoch);
    }

    /// Absorbs one entity **about to be inserted** into the synopsis without
    /// rescanning the population — `O(m log n)` for the sketch comparison
    /// instead of the full `O(n × levels)` recompute — with the same result
    /// as the recompute (see [`Synopsis::absorb_insert`]).
    fn absorb_into_synopsis(&mut self, entity: EntityId, seq: &CellSetSequence, epoch: u64) {
        let levels = self.tree.levels();
        let level_sizes: Vec<usize> = (1..=levels).map(|l| seq.level(l).len()).collect();
        let total = seq.total_cells();
        // Splice position under the sketch order (total cells descending,
        // id ascending), ranked against the current members' live totals.
        let hot = self.synopsis.hot_entities();
        let ranks_before = |&member: &EntityId| {
            let member_total = self.sequences[&member].total_cells();
            total > member_total || (total == member_total && entity < member)
        };
        let insert_at = hot.iter().position(ranks_before).unwrap_or(hot.len());
        let belongs = self.synopsis.sketch_size() > 0
            && (insert_at < hot.len() || hot.len() < self.synopsis.sketch_size());
        self.synopsis.absorb_insert(&level_sizes, entity, belongs.then_some(insert_at), epoch);
    }

    /// Estimated resident heap footprint of this snapshot in bytes: the tree
    /// (what [`IndexStats::index_bytes`](crate::stats::IndexStats) reports,
    /// the paper's Section 7.8 accounting) **plus** the per-entity signature
    /// lists and materialised sequences.
    ///
    /// This is the number to use for capacity planning — it is what a
    /// copy-on-write clone duplicates while readers hold an older snapshot —
    /// and it is dominated by the signatures (`entities × m × nh × 8` bytes)
    /// and sequences, not the tree.
    pub fn resident_bytes(&self) -> usize {
        let sig_bytes: usize = self
            .signatures
            .values()
            .map(|s| s.levels().iter().map(|l| l.len() * std::mem::size_of::<u64>()).sum::<usize>())
            .sum();
        let seq_bytes: usize =
            self.sequences.values().map(|s| s.total_cells() * std::mem::size_of::<u64>()).sum();
        self.tree.size_bytes()
            + sig_bytes
            + seq_bytes
            + self.arena.resident_bytes()
            + self.node_arena.resident_bytes()
    }

    /// Answers a top-k query for an indexed entity with default options.
    pub fn top_k<M: AssociationMeasure + ?Sized>(
        &self,
        query: EntityId,
        k: usize,
        measure: &M,
    ) -> Result<(Vec<TopKResult>, QueryStats)> {
        self.top_k_with_options(query, k, measure, QueryOptions::default())
    }

    /// Answers a top-k query for an indexed entity with explicit options.
    pub fn top_k_with_options<M: AssociationMeasure + ?Sized>(
        &self,
        query: EntityId,
        k: usize,
        measure: &M,
        options: QueryOptions,
    ) -> Result<(Vec<TopKResult>, QueryStats)> {
        let seq = self.sequences.get(&query).ok_or(IndexError::UnknownQueryEntity(query.raw()))?;
        self.top_k_for_sequence(seq, Some(query), k, measure, options)
    }

    /// Answers a top-k query for an arbitrary (possibly external) query
    /// sequence through the best-first tree search over the snapshot's
    /// candidate arena.
    pub fn top_k_for_sequence<M: AssociationMeasure + ?Sized>(
        &self,
        query: &CellSetSequence,
        exclude: Option<EntityId>,
        k: usize,
        measure: &M,
        options: QueryOptions,
    ) -> Result<(Vec<TopKResult>, QueryStats)> {
        let view = QueryView::new(query);
        let source = ArenaSource::new(&self.arena, &view, None);
        let (results, mut stats) =
            engine::execute(self, query, exclude, &Query::new(k, measure), options, &source)?;
        source.drain_into(&mut stats);
        Ok((results, stats))
    }

    /// Ground-truth brute force over the indexed sequences (used by tests,
    /// baselines and the experiment harness); shares its top-k selection with
    /// the tree search's leaf evaluation.
    pub fn brute_force<M: AssociationMeasure + ?Sized>(
        &self,
        query: EntityId,
        k: usize,
        measure: &M,
    ) -> Result<Vec<TopKResult>> {
        let seq = self.sequences.get(&query).ok_or(IndexError::UnknownQueryEntity(query.raw()))?;
        let mut dispatch = crate::stats::KernelDispatch::default();
        let (results, _) =
            self.arena.scan_top_k(&QueryView::new(seq), Some(query), k, measure, &mut dispatch);
        Ok(results)
    }
}

fn synopsis_of(
    tree: &MinSigTree,
    sequences: &BTreeMap<EntityId, CellSetSequence>,
    sketch_size: usize,
    epoch: u64,
) -> Synopsis {
    Synopsis::compute(tree.levels(), sequences.iter().map(|(e, s)| (*e, s)), sketch_size, epoch)
}

#[cfg(test)]
impl IndexSnapshot {
    /// This snapshot with its node rows swapped for `rows` (the unfolded-tree
    /// oracle of the kernel tests).
    pub(crate) fn with_node_arena(mut self, rows: NodeArena) -> IndexSnapshot {
        self.node_arena = rows;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durable::DurableShardedMinSigIndex;
    use crate::index::MinSigIndex;
    use crate::ingest::IngestBuffer;
    use crate::kernel::assert_same_arena;
    use crate::shard::ShardedMinSigIndex;
    use crate::testkit::{StreamConfig, UniformConfig, Workload};
    use trace_storage::LogConfig;

    /// `snapshot`'s arena against one built from scratch over its maps.
    fn assert_arena_is_fresh(snapshot: &IndexSnapshot, context: &str) {
        let fresh = CandidateArena::build(
            snapshot.tree.levels(),
            snapshot.hasher.num_functions() as usize,
            &snapshot.sequences,
            &snapshot.signatures,
        );
        assert_same_arena(&snapshot.arena, &fresh, context);
    }

    /// Every publisher — an ingest flush (unions into existing entities and
    /// new ones), a replace, a remove, a lone insert and a durable ingest —
    /// leaves an arena whose rows the publish carried over from the previous
    /// one equal to a fresh build, keyed rows, level-1 and level-2 postings
    /// and footprint included; in place and, with a reader holding the old
    /// snapshot, on the copy.
    #[test]
    fn carried_arena_equals_a_fresh_build_after_every_publisher() {
        let w = Workload::uniform(UniformConfig {
            entities: 90,
            visits: 40,
            time_slots: 400,
            ..UniformConfig::default()
        });
        let config = IndexConfig::with_hash_functions(8);
        let stream = |i: u64| {
            w.stream(StreamConfig {
                records: 60,
                existing_entities: 90,
                new_entity_base: 1_000 + 10 * i,
                new_entity_span: 4,
                new_entity_percent: 25,
                start_tick: 30_000 + 6_000 * i,
                time_slots: 90,
                seed: 0xA7E4 + i,
            })
        };
        let mut index: MinSigIndex = w.build_index(config);
        assert_arena_is_fresh(&index.snapshot(), "build");
        for round in 0..2u64 {
            let reader = (round == 1).then(|| index.snapshot());
            let context = |step: &str| format!("round {round}, {step}");
            let mut buffer: IngestBuffer = stream(round).into_iter().collect();
            buffer.flush(&mut index).unwrap();
            assert_arena_is_fresh(&index.snapshot(), &context("ingest flush"));
            let (replaced, donor) = (EntityId(3 + round), EntityId(40 + round));
            index.update_entity(replaced, w.traces.trace(donor).unwrap()).unwrap();
            assert_arena_is_fresh(&index.snapshot(), &context("replace"));
            index.remove_entity(EntityId(7 + round)).unwrap();
            assert_arena_is_fresh(&index.snapshot(), &context("remove"));
            let inserted =
                index.upsert_entity(EntityId(5_000 + round), w.traces.trace(donor).unwrap());
            assert!(inserted.unwrap(), "a new id is an insert");
            assert_arena_is_fresh(&index.snapshot(), &context("lone insert"));
            if let Some(reader) = reader {
                assert_arena_is_fresh(&reader, "the reader's snapshot");
            }
        }

        let dir =
            std::env::temp_dir().join(format!("snapshot-carried-arena-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let sharded = ShardedMinSigIndex::build(&w.sp, &w.traces, config, 2).unwrap();
        let log = LogConfig { fsync: false, ..LogConfig::default() };
        let mut durable = DurableShardedMinSigIndex::create(&dir, sharded, log).unwrap();
        for batch in 0..3 {
            let reader = (batch == 1).then(|| durable.index().snapshot());
            durable.ingest(stream(10 + batch)).unwrap();
            for shard in 0..2 {
                let snapshot = durable.index().shard(shard).snapshot();
                assert_arena_is_fresh(&snapshot, &format!("durable batch {batch}, shard {shard}"));
            }
            drop(reader);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
