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
//! cloned the `Arc`, the next update publishes onto a copy, so in-flight
//! readers keep an unchanging view — snapshot isolation by immutability.
//! The copy shares every value the update does not change: an entity's
//! sequence and signature are `Arc`-backed, so an untouched entity costs the
//! copy a pointer, not its cells, and the spatial hierarchy is one `Arc`.
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
//! protocol every mutation path repeats.  The node rows are filled late:
//! only the unsharded tree search reads them, so a publish drops them and
//! `IndexSnapshot::node_arena` builds them on first use.

use crate::config::IndexConfig;
use crate::engine;
use crate::error::{IndexError, Result};
use crate::kernel::{ArenaSource, CandidateArena, NodeArena, QueryView};
use crate::query::{Query, QueryOptions, TopKResult};
use crate::signature::{HierarchicalHasher, SeededHashFamily, SignatureList};
use crate::stats::QueryStats;
use crate::synopsis::Synopsis;
use crate::tree::MinSigTree;
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};
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
    pub(crate) sp: Arc<SpIndex>,
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
    /// The flat candidate arena ([`crate::kernel`]): read-path-only handles
    /// on `sequences`' own cells, with the keyed rows, cell counts and
    /// postings derived from them.  Invariant, kept by
    /// [`publish`](Self::publish): equals [`CandidateArena::build`] over
    /// `sequences`, and reads every member's packed rows from its sequence
    /// there.
    arena: CandidateArena,
    /// The flat node rows of the tree ([`crate::kernel::NodeArena`]): the
    /// read-path-only SoA/CSR mirror of `tree` every tree search expands
    /// through, built by [`node_arena`](Self::node_arena) on first use —
    /// sharded queries scan and never ask.  Invariant, kept by
    /// [`publish`](Self::publish), which empties it: once filled, equals
    /// [`NodeArena::build`] over `tree`.
    node_arena: OnceLock<NodeArena>,
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
    /// the hot-path view of [`sequences`](Self::sequences) every exact scan
    /// and leaf evaluation reads from.
    pub fn arena(&self) -> &CandidateArena {
        &self.arena
    }

    /// The flat node rows of this snapshot's tree (see
    /// [`crate::kernel::NodeArena`]) — the topology every
    /// [`top_k_for_sequence`](Self::top_k_for_sequence) expands through.
    /// Built in `O(nodes)` by the first call on this snapshot, then kept.
    pub fn node_arena(&self) -> &NodeArena {
        self.node_arena.get_or_init(|| NodeArena::build(&self.tree))
    }

    /// Assembles a snapshot from its parts and builds the mirrors over them:
    /// the one constructor (a fresh build, a file being opened).
    pub(crate) fn from_parts(parts: SnapshotParts) -> IndexSnapshot {
        let synopsis = parts.synopsis.unwrap_or_else(|| {
            synopsis_of(&parts.tree, &parts.sequences, crate::synopsis::DEFAULT_SKETCH_SIZE, 0)
        });
        let mut snapshot = IndexSnapshot {
            sp: Arc::new(parts.sp),
            config: parts.config,
            ticks_per_unit: parts.ticks_per_unit,
            hasher: parts.hasher,
            tree: parts.tree,
            sequences: parts.sequences,
            signatures: parts.signatures,
            synopsis,
            arena: CandidateArena::default(),
            node_arena: OnceLock::new(),
        };
        snapshot.rebuild_arena(&CandidateArena::default(), &[]);
        snapshot
    }

    /// Applies `changes` (in the order given — callers pass entity order) to
    /// the tree and the owned maps, then brings the three mirrors back in
    /// line with them at `epoch`: the one mutator, in place.
    ///
    /// One path whatever the batch: the synopsis is recomputed, the node
    /// rows are dropped (the next [`node_arena`](Self::node_arena) call
    /// builds them), and the candidate arena is rebuilt by taking a handle on
    /// every sequence of the map, reading the changed entities from it and
    /// copying everyone else's keyed rows and cell counts from the arena it
    /// replaces ([`CandidateArena::rebuild`]), so only the batch's keyed rows
    /// are converted.
    pub(crate) fn publish(&mut self, changes: Vec<(EntityId, Change)>, epoch: u64) -> Published {
        let previous = std::mem::take(&mut self.arena);
        self.publish_over(&previous, changes, epoch)
    }

    /// [`publish`](Self::publish) onto a copy of this snapshot — what a
    /// commit does while readers still hold this one.  The copy shares every
    /// value the changes leave alone: the spatial hierarchy, and each
    /// untouched entity's sequence and signature, are pointer copies (a
    /// merged signature is copied by its `merge_min`).  It takes no arena:
    /// the publish rebuilds the candidate arena from this snapshot's, and
    /// the node rows wait for their first reader.
    pub(crate) fn publish_copy(
        &self,
        changes: Vec<(EntityId, Change)>,
        epoch: u64,
    ) -> (IndexSnapshot, Published) {
        let mut next = IndexSnapshot {
            sp: Arc::clone(&self.sp),
            config: self.config,
            ticks_per_unit: self.ticks_per_unit,
            hasher: self.hasher.clone(),
            tree: self.tree.clone(),
            sequences: self.sequences.clone(),
            signatures: self.signatures.clone(),
            synopsis: self.synopsis.clone(),
            arena: CandidateArena::default(),
            node_arena: OnceLock::new(),
        };
        let published = next.publish_over(&self.arena, changes, epoch);
        (next, published)
    }

    /// What [`publish`](Self::publish) does, `previous` being the candidate
    /// arena of the version it replaces.
    fn publish_over(
        &mut self,
        previous: &CandidateArena,
        changes: Vec<(EntityId, Change)>,
        epoch: u64,
    ) -> Published {
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
            match self.sequences.insert(entity, seq) {
                None => published.inserted += 1,
                Some(_) => published.replaced += 1,
            }
            self.signatures.insert(entity, sig);
        }
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
        self.rebuild_arena(previous, &changed);
        published
    }

    /// Rebuilds the candidate arena over the maps from `previous` for every
    /// entity `changed` (ascending, with the delta an entity only grew by)
    /// does not list ([`CandidateArena::rebuild`]), and drops the node rows
    /// of the tree it replaced.
    fn rebuild_arena(
        &mut self,
        previous: &CandidateArena,
        changed: &[(EntityId, Option<CellSetSequence>)],
    ) {
        self.arena = previous.rebuild(self.tree.levels(), &self.sequences, changed);
        self.node_arena = OnceLock::new();
    }

    /// Recomputes the planning synopsis from the sequences with sketch size
    /// `m`, recorded at `epoch`.  On its own (the handle's sketch resize) not
    /// a data mutation: the maps and the other mirrors stay.
    pub(crate) fn set_sketch_size(&mut self, m: usize, epoch: u64) {
        self.synopsis = synopsis_of(&self.tree, &self.sequences, m, epoch);
    }

    /// Estimated resident heap footprint of this snapshot in bytes: the tree
    /// (what [`IndexStats::index_bytes`](crate::stats::IndexStats) reports,
    /// the paper's Section 7.8 accounting) **plus** the per-entity signature
    /// lists, the materialised sequences, the candidate arena's capacities
    /// and, once a tree search has built them, the node rows'.
    ///
    /// This is the number to use for capacity planning, and it is dominated
    /// by the sequences (their cells held once: the arena reads them through
    /// handles), the arena's keyed rows and postings, and the signatures
    /// (`entities × m × nh × 8` bytes, held once: the arena keeps none), not
    /// the tree.  It counts shared values in full: a copy-on-write publish
    /// shares the sequences and signatures of every entity it did not touch
    /// with the snapshot it replaced, so a reader holding that one costs
    /// the tree, the maps' nodes, the touched entities and the arena, not
    /// this sum twice.
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
            + self.node_arena.get().map_or(0, NodeArena::resident_bytes)
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
        self.node_arena = OnceLock::from(rows);
        self
    }

    /// True once something asked for this snapshot's node rows.
    pub(crate) fn node_rows_built(&self) -> bool {
        self.node_arena.get().is_some()
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
    use std::collections::BTreeSet;
    use trace_model::PresenceInstance;
    use trace_storage::LogConfig;

    /// `snapshot`'s arena against one built from scratch over its maps, each
    /// member's packed rows being the very slices its sequence in the map
    /// holds: one copy of the cells.
    fn assert_arena_is_fresh(snapshot: &IndexSnapshot, context: &str) {
        let fresh = CandidateArena::build(
            snapshot.tree.levels(),
            snapshot.hasher.num_functions() as usize,
            &snapshot.sequences,
            &snapshot.signatures,
        );
        assert_same_arena(&snapshot.arena, &fresh, context);
        for (pos, seq) in snapshot.sequences.values().enumerate() {
            for (level, set) in seq.iter_levels() {
                let (held, own) = (snapshot.arena.level_cells(level, pos), set.packed_slice());
                assert!(std::ptr::eq(held, own), "{context}: row {pos}, level {level} is a copy");
            }
        }
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

    /// An index opened from disk builds its arenas over the sequences it
    /// decoded (`from_parts`): unsharded, and every shard of a sharded one,
    /// each equals a fresh build and reads its packed rows from them.
    #[test]
    fn an_opened_arena_reads_the_opened_sequences() {
        let w = Workload::uniform(UniformConfig {
            entities: 60,
            visits: 30,
            time_slots: 300,
            ..UniformConfig::default()
        });
        let config = IndexConfig::with_hash_functions(8);
        let dir =
            std::env::temp_dir().join(format!("snapshot-opened-arena-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("index.msix");
        w.build_index(config).save(&path).unwrap();
        assert_arena_is_fresh(&MinSigIndex::open(&path).unwrap().snapshot(), "opened index");
        let shards = dir.join("sharded");
        ShardedMinSigIndex::build(&w.sp, &w.traces, config, 2).unwrap().save(&shards).unwrap();
        let opened = ShardedMinSigIndex::open(&shards).unwrap();
        for shard in 0..2 {
            let context = format!("opened shard {shard}");
            assert_arena_is_fresh(&opened.shard(shard).snapshot(), &context);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The entities a batch of records names.
    fn touched_by(records: &[PresenceInstance]) -> BTreeSet<EntityId> {
        records.iter().map(|r| r.entity).collect()
    }

    /// An entity's cells and signature as plain values, level by level.
    type Values = (Vec<Vec<u64>>, Vec<Vec<u64>>);

    /// `entity`'s [`Values`] in `snapshot`.
    fn values_of(snapshot: &IndexSnapshot, entity: EntityId) -> Values {
        let seq = snapshot.sequence(entity).unwrap();
        let cells = seq.iter_levels().map(|(_, set)| set.packed_slice().to_vec()).collect();
        (cells, snapshot.signature(entity).unwrap().levels().to_vec())
    }

    /// `after`, published over the held `before`, shares the sequence and
    /// signature storage of every entity of `before` that `touched` does not
    /// name, and of no touched entity it still holds; `before` still holds
    /// `pinned`'s values.  Returns how many touched entities' signatures the
    /// publish moved.
    fn assert_shares_untouched(
        before: &IndexSnapshot,
        after: &IndexSnapshot,
        touched: &BTreeSet<EntityId>,
        pinned: &BTreeMap<EntityId, Values>,
        context: &str,
    ) -> usize {
        let mut moved = 0;
        for (&entity, seq) in before.sequences() {
            let Some(next) = after.sequence(entity) else {
                assert!(touched.contains(&entity), "{entity:?} vanished untouched, {context}");
                continue;
            };
            let cells = std::ptr::eq(seq.level(1).packed_slice(), next.level(1).packed_slice());
            let (sig, next_sig) = (before.signature(entity).unwrap(), after.signature(entity));
            let sig_shared = std::ptr::eq(sig.levels(), next_sig.unwrap().levels());
            let shared = !touched.contains(&entity);
            assert_eq!(cells, shared, "{entity:?}'s cells shared, {context}");
            assert_eq!(sig_shared, shared, "{entity:?}'s signature shared, {context}");
            if let Some(values) = pinned.get(&entity) {
                assert_eq!(&values_of(before, entity), values, "held {entity:?}, {context}");
                moved += usize::from(sig != next_sig.unwrap());
            }
        }
        moved
    }

    /// Every publisher, with a reader holding the snapshot it replaces,
    /// shares the storage of exactly the entities its batch did not touch;
    /// the held snapshot keeps every merged entity's cells and signature
    /// bit for bit.
    #[test]
    fn a_pinned_publish_shares_exactly_what_it_did_not_change() {
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
                seed: 0x5A4E + i,
            })
        };
        let pin = |snapshot: &IndexSnapshot, touched: &BTreeSet<EntityId>| {
            let held = touched.iter().filter(|e| snapshot.contains(**e));
            held.map(|&e| (e, values_of(snapshot, e))).collect::<BTreeMap<_, _>>()
        };

        let mut index: MinSigIndex = w.build_index(config);
        let records = stream(0);
        let touched = touched_by(&records);
        let held = index.snapshot();
        let pinned = pin(&held, &touched);
        let mut buffer: IngestBuffer = records.into_iter().collect();
        buffer.flush(&mut index).unwrap();
        let moved = assert_shares_untouched(&held, &index.snapshot(), &touched, &pinned, "flush");
        assert!(moved > 0, "the flush merged into some held signature");

        let donor = w.traces.trace(EntityId(40)).unwrap();
        let lone = [("replace", EntityId(3)), ("remove", EntityId(7)), ("insert", EntityId(5_000))];
        for (context, entity) in lone {
            let touched = BTreeSet::from([entity]);
            let held = index.snapshot();
            match context {
                "replace" => index.update_entity(entity, donor).unwrap(),
                "remove" => index.remove_entity(entity).unwrap(),
                _ => assert!(index.upsert_entity(entity, donor).unwrap(), "a new id is an insert"),
            }
            assert_shares_untouched(&held, &index.snapshot(), &touched, &BTreeMap::new(), context);
        }

        let dir = std::env::temp_dir().join(format!("snapshot-shares-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let sharded = ShardedMinSigIndex::build(&w.sp, &w.traces, config, 2).unwrap();
        let log = LogConfig { fsync: false, ..LogConfig::default() };
        let mut durable = DurableShardedMinSigIndex::create(&dir, sharded, log).unwrap();
        let records = stream(1);
        let touched = touched_by(&records);
        let held: Vec<_> = (0..2).map(|s| durable.index().shard(s).snapshot()).collect();
        let pinned: Vec<_> = held.iter().map(|h| pin(h, &touched)).collect();
        durable.ingest(records).unwrap();
        let mut moved = 0;
        for shard in 0..2 {
            let (after, context) = (durable.index().shard(shard).snapshot(), "durable ingest");
            moved +=
                assert_shares_untouched(&held[shard], &after, &touched, &pinned[shard], context);
        }
        assert!(moved > 0, "the ingest merged into some held signature");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Node rows are built for the unsharded tree search only: no build,
    /// flush or sharded query asks for them, and the first tree search
    /// builds exactly what [`NodeArena::build`] does.
    #[test]
    fn sharded_queries_never_build_node_rows() {
        let w = Workload::uniform(UniformConfig {
            entities: 60,
            visits: 30,
            time_slots: 300,
            ..UniformConfig::default()
        });
        let mut sharded =
            ShardedMinSigIndex::build(&w.sp, &w.traces, IndexConfig::with_hash_functions(8), 3)
                .unwrap();
        let none_built = |sharded: &ShardedMinSigIndex, context: &str| {
            for s in 0..sharded.num_shards() {
                assert!(!sharded.shard(s).snapshot().node_rows_built(), "shard {s}, {context}");
            }
        };
        none_built(&sharded, "build");
        sharded
            .ingest_batch(w.stream(StreamConfig {
                records: 40,
                existing_entities: 60,
                start_tick: 20_000,
                time_slots: 60,
                ..StreamConfig::default()
            }))
            .unwrap();
        none_built(&sharded, "flush");

        let (measure, queries) = (w.measure(), [EntityId(0), EntityId(1), EntityId(2)]);
        let snapshot = sharded.snapshot();
        for &q in &queries {
            snapshot.top_k(q, 5, &measure).unwrap();
            snapshot.explain(q, 5, &measure, crate::config::PlannerConfig::default()).unwrap();
        }
        snapshot.top_k_batch(&queries, 5, &measure).unwrap();
        none_built(&sharded, "sharded queries");

        let shard = sharded.shard(0).snapshot();
        let q = *shard.sequences().keys().next().unwrap();
        shard.top_k(q, 5, &measure).unwrap();
        assert!(shard.node_rows_built(), "a tree search builds the node rows");
        let fresh = NodeArena::build(shard.tree());
        assert_eq!(format!("{:?}", shard.node_arena()), format!("{fresh:?}"));
    }
}
