//! The [`MinSigIndex`]: the public entry point tying together signatures, the
//! MinSigTree, query processing and incremental maintenance.
//!
//! The index is a thin mutable handle around an [`Arc`]-shared
//! [`IndexSnapshot`], to which it derefs: queries only ever touch the snapshot
//! (so they can run from any number of threads against one consistent version
//! of the index), while every mutation —
//! [`update_entity`](MinSigIndex::update_entity),
//! [`upsert_entity`](MinSigIndex::upsert_entity),
//! [`remove_entity`](MinSigIndex::remove_entity) and the batches of
//! [`crate::ingest`] — computes its per-entity changes and hands them to the
//! one `commit`: the only copy-on-write on the data path (in place when the
//! handle is the sole owner, onto a copy of the snapshot when readers still
//! hold it) and the only place the epoch and [`IndexStats`] advance.
//! Durability (`save`/`open`) lives in [`crate::persist`].

use crate::config::IndexConfig;
use crate::error::{IndexError, Result};
use crate::signature::{HierarchicalHasher, SeededHashFamily, SignatureList};
use crate::snapshot::{Change, IndexSnapshot, Published, SnapshotParts};
use crate::stats::IndexStats;
use crate::tree::MinSigTree;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;
use trace_model::{CellSetSequence, DigitalTrace, EntityId, SpIndex, TraceSet};

/// The MinSigTree index over a set of digital traces.
///
/// The index owns a copy of the spatial hierarchy, the hash family, the tree and
/// the materialised ST-cell set sequences of every indexed entity, packaged as
/// an immutable [`IndexSnapshot`] (the paged query path of [`crate::paged`]
/// reads the finer cell rows from a disk-backed store instead).  Call
/// [`snapshot`](MinSigIndex::snapshot) to share the current version with other
/// threads; updates on the handle never disturb snapshots already handed out.
#[derive(Debug)]
pub struct MinSigIndex {
    snapshot: Arc<IndexSnapshot>,
    stats: IndexStats,
    /// Number of successful mutations applied to this handle since it was
    /// built or opened; bumped once per `update`/`upsert`/`remove` call and
    /// once per ingest batch, regardless of the batch's size.
    epoch: u64,
}

impl MinSigIndex {
    /// Builds the index over a trace set (Algorithm 1 plus the data-representation
    /// step of Section 4.1).
    pub fn build(sp: &SpIndex, traces: &TraceSet, config: IndexConfig) -> Result<Self> {
        config.validate()?;
        let start = Instant::now();
        let sequences = traces.cell_sequences(sp)?;
        let hash_range = config.hash_range.unwrap_or_else(|| default_hash_range(sp, &sequences));
        let family = SeededHashFamily::new(config.num_hash_functions, config.hash_seed, hash_range);
        let hasher = HierarchicalHasher::new(family);

        let mut tree = MinSigTree::new(sp.height());
        let mut signatures = BTreeMap::new();
        let mut hash_evaluations = 0u64;
        for (&entity, seq) in &sequences {
            let sig = SignatureList::build(sp, &hasher, seq);
            hash_evaluations += seq.total_cells() as u64 * config.num_hash_functions as u64;
            tree.insert(entity, &sig);
            signatures.insert(entity, sig);
        }

        let snapshot = IndexSnapshot::from_parts(SnapshotParts {
            sp: sp.clone(),
            config,
            ticks_per_unit: traces.ticks_per_unit(),
            hasher,
            tree,
            sequences,
            signatures,
            synopsis: None,
        });
        Ok(Self::loaded(snapshot, hash_evaluations, start))
    }

    /// A fresh handle (epoch 0) over a snapshot that took `hash_evaluations`
    /// and the time since `started` to build or load.
    pub(crate) fn loaded(snapshot: IndexSnapshot, hash_evaluations: u64, started: Instant) -> Self {
        let mut index = Self::from_snapshot(Arc::new(snapshot));
        index.stats.hash_evaluations = hash_evaluations;
        index.stats.build_time_us = started.elapsed().as_micros() as u64;
        index
    }

    /// The current immutable version of the index, shareable across threads.
    ///
    /// The returned snapshot never changes: subsequent
    /// [`update_entity`](Self::update_entity) / [`remove_entity`](Self::remove_entity)
    /// calls publish onto a copy of the index state (copy-on-write) that
    /// shares every entity they do not change, so concurrent readers keep a
    /// consistent view for as long as they hold the `Arc`.  Dropping all
    /// snapshot clones makes later updates in-place again.
    pub fn snapshot(&self) -> Arc<IndexSnapshot> {
        Arc::clone(&self.snapshot)
    }

    /// Promotes a shared snapshot into a fresh mutable handle (epoch 0).
    ///
    /// The snapshot's data is **not** copied here: the first mutation on the
    /// returned handle triggers the usual copy-on-write if other `Arc`
    /// references are still alive, so existing readers of the snapshot are
    /// unaffected by whatever the new handle does.
    pub(crate) fn from_snapshot(snapshot: Arc<IndexSnapshot>) -> MinSigIndex {
        let mut index = MinSigIndex { snapshot, stats: IndexStats::default(), epoch: 0 };
        index.refresh_stats();
        index
    }

    /// Re-reads [`stats`](Self::stats)' size figures off the current snapshot.
    fn refresh_stats(&mut self) {
        self.stats.num_entities = self.snapshot.num_entities();
        self.stats.num_nodes = self.snapshot.tree().num_nodes();
        self.stats.index_bytes = self.snapshot.tree().size_bytes();
    }

    /// Publishes `changes` as the next epoch: the one place a mutation —
    /// single-entity or batch — reaches the snapshot
    /// ([`IndexSnapshot::publish`], on a copy when readers still share it)
    /// and accounts itself in [`stats`](Self::stats): fresh size figures,
    /// `hash_evaluations` more, and the wall time since `started` (returned
    /// too, so a report and the stats quote one measurement).
    pub(crate) fn commit(
        &mut self,
        changes: Vec<(EntityId, Change)>,
        hash_evaluations: u64,
        started: Instant,
    ) -> (Published, u64) {
        self.epoch += 1;
        let published = match Arc::get_mut(&mut self.snapshot) {
            Some(snapshot) => snapshot.publish(changes, self.epoch),
            None => {
                let (next, published) = self.snapshot.publish_copy(changes, self.epoch);
                self.snapshot = Arc::new(next);
                published
            }
        };
        self.refresh_stats();
        self.stats.hash_evaluations += hash_evaluations;
        let elapsed_us = started.elapsed().as_micros() as u64;
        self.stats.build_time_us += elapsed_us;
        (published, elapsed_us)
    }

    /// Build statistics (updated by incremental maintenance).
    pub fn stats(&self) -> IndexStats {
        self.stats
    }

    /// Number of successful mutations applied to this handle (one per
    /// `update`/`upsert`/`remove` call, one per ingest batch).  Fresh builds
    /// and freshly opened indexes start at epoch 0.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Replaces an **existing** entity's trace (Section 4.2.3): only the
    /// signature of the affected entity is recomputed and only its
    /// root-to-leaf path is touched.
    ///
    /// Returns [`IndexError::UnknownEntity`] when the entity is not indexed —
    /// a silent insert here usually hides an id-mapping bug in the caller.
    /// Use [`upsert_entity`](Self::upsert_entity) for insert-or-replace
    /// semantics, and [`crate::ingest::IngestBuffer`] to apply many additions
    /// as one batch.
    ///
    /// If snapshots are currently shared with readers, the update publishes
    /// onto a copy of the index state (copy-on-write, sharing every other
    /// entity's cells) so those readers stay on their old, consistent
    /// version.
    pub fn update_entity(&mut self, entity: EntityId, trace: &DigitalTrace) -> Result<()> {
        if !self.snapshot.contains(entity) {
            return Err(IndexError::UnknownEntity(entity.raw()));
        }
        self.upsert_entity(entity, trace).map(|_| ())
    }

    /// Inserts a new entity or replaces an existing entity's trace; returns
    /// `true` when the entity was newly inserted.
    ///
    /// Copy-on-write like [`update_entity`](Self::update_entity): readers
    /// holding snapshots keep their old, consistent version.
    pub fn upsert_entity(&mut self, entity: EntityId, trace: &DigitalTrace) -> Result<bool> {
        let start = Instant::now();
        // The one fallible step comes first: a bad trace leaves the index
        // (and its stats) untouched.
        let seq = trace.cell_sequence(self.sp_index(), self.ticks_per_unit())?;
        let sig = SignatureList::build(self.sp_index(), self.hasher(), &seq);
        let hash_evaluations = seq.total_cells() as u64 * self.config().num_hash_functions as u64;
        let (published, _) =
            self.commit(vec![(entity, Change::Put(seq, sig))], hash_evaluations, start);
        Ok(published.inserted == 1)
    }

    /// Removes an entity from the index.
    ///
    /// Returns [`IndexError::UnknownEntity`] when the entity is not indexed,
    /// so a misdirected removal cannot silently succeed.
    ///
    /// Copy-on-write like [`update_entity`](Self::update_entity): readers
    /// holding snapshots still see the entity.
    pub fn remove_entity(&mut self, entity: EntityId) -> Result<()> {
        let start = Instant::now();
        if !self.snapshot.contains(entity) && self.snapshot.tree().leaf_of(entity).is_none() {
            return Err(IndexError::UnknownEntity(entity.raw()));
        }
        let (published, _) = self.commit(vec![(entity, Change::Remove)], 0, start);
        debug_assert_eq!(published.removed, 1);
        Ok(())
    }

    /// Rebuilds the planning synopsis with sketch size `m` (the number of
    /// hottest entities remembered for threshold seeding; see
    /// [`crate::synopsis`]).  Copy-on-write like the mutation paths, but not
    /// a data mutation: the epoch does not advance and the recorded synopsis
    /// epoch stays at the current value.
    pub(crate) fn set_synopsis_sketch_size(&mut self, m: usize) {
        let epoch = self.epoch;
        Arc::make_mut(&mut self.snapshot).set_sketch_size(m, epoch);
    }
}

/// Everything read-only — accessors and every query entry point — is the
/// current snapshot's: `index.top_k(..)` is `index.snapshot().top_k(..)`.
impl std::ops::Deref for MinSigIndex {
    type Target = IndexSnapshot;

    fn deref(&self) -> &IndexSnapshot {
        &self.snapshot
    }
}

/// The paper's hash range `|S| = |L| × |T|`: base spatial units times base
/// temporal units, derived from the data (at least 2).
fn default_hash_range(sp: &SpIndex, sequences: &BTreeMap<EntityId, CellSetSequence>) -> u64 {
    let max_time = sequences
        .values()
        .flat_map(|seq| seq.base().iter().map(|c| c.time() as u64))
        .max()
        .unwrap_or(0);
    ((sp.num_base_units() as u64) * (max_time + 1)).max(2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::IndexError;
    use crate::query::QueryOptions;
    use crate::synopsis::Synopsis;
    use trace_model::{DiceAdm, PaperAdm, Period, PresenceInstance};

    /// A small deterministic dataset with obvious associations: entities come in
    /// pairs (2i, 2i+1) that visit the same places at the same times, plus some
    /// noise visits.
    fn paired_dataset(pairs: usize) -> (SpIndex, TraceSet) {
        let sp = SpIndex::uniform(3, &[4, 4]).unwrap();
        let base = sp.base_units().to_vec();
        let mut traces = TraceSet::new(60);
        for i in 0..pairs {
            for member in 0..2u64 {
                let entity = EntityId(2 * i as u64 + member);
                // Shared itinerary of the pair.
                for step in 0..6u64 {
                    let unit = base[(i * 7 + step as usize) % base.len()];
                    let start = step * 180;
                    traces.record(PresenceInstance::new(
                        entity,
                        unit,
                        Period::new(start, start + 60).unwrap(),
                    ));
                }
                // Individual noise.
                let noise_unit = base[(i * 13 + member as usize * 29 + 5) % base.len()];
                traces.record(PresenceInstance::new(
                    entity,
                    noise_unit,
                    Period::new(2000 + member * 120, 2060 + member * 120).unwrap(),
                ));
            }
        }
        (sp, traces)
    }

    /// Runs one successful mutation and checks it accounted itself like every
    /// other kind: `stats()` describes the snapshot it is read beside, the
    /// synopsis is stamped with the new epoch, and the epoch advanced by
    /// exactly 1.
    fn assert_fresh_after<T>(
        index: &mut MinSigIndex,
        mutate: impl FnOnce(&mut MinSigIndex) -> T,
    ) -> T {
        let epoch = index.epoch();
        let out = mutate(index);
        assert_eq!(index.epoch(), epoch + 1);
        assert_eq!(index.synopsis().epoch(), index.epoch());
        assert_stats_are_fresh(index);
        out
    }

    /// `stats()` must describe the snapshot it is read beside.
    fn assert_stats_are_fresh(index: &MinSigIndex) {
        let stats = index.stats();
        assert_eq!(stats.index_bytes, index.tree().size_bytes());
        assert_eq!(stats.num_nodes, index.tree().num_nodes());
        assert_eq!(stats.num_entities, index.num_entities());
    }

    #[test]
    fn build_reports_sane_stats() {
        let (sp, traces) = paired_dataset(20);
        let index = MinSigIndex::build(&sp, &traces, IndexConfig::with_hash_functions(32)).unwrap();
        let stats = index.stats();
        assert_eq!(stats.num_entities, 40);
        assert!(stats.num_nodes > 1);
        assert!(stats.index_bytes > 0);
        assert!(stats.hash_evaluations > 0);
        assert_eq!(index.num_entities(), 40);
        assert!(index.contains(EntityId(0)));
        assert!(!index.contains(EntityId(999)));
        index.tree().check_invariants().unwrap();
    }

    #[test]
    fn top1_finds_the_partner_entity() {
        let (sp, traces) = paired_dataset(25);
        let index = MinSigIndex::build(&sp, &traces, IndexConfig::with_hash_functions(64)).unwrap();
        let measure = PaperAdm::default_for(sp.height() as usize);
        for query in [0u64, 7, 16, 33] {
            let (results, stats) = index.top_k(EntityId(query), 1, &measure).unwrap();
            assert_eq!(results.len(), 1);
            let partner = if query % 2 == 0 { query + 1 } else { query - 1 };
            assert_eq!(results[0].entity, EntityId(partner), "query {query}");
            assert!(results[0].degree > 0.0);
            assert!(stats.entities_checked >= 1);
        }
    }

    #[test]
    fn index_matches_brute_force_for_various_k() {
        let (sp, traces) = paired_dataset(15);
        let index = MinSigIndex::build(&sp, &traces, IndexConfig::with_hash_functions(48)).unwrap();
        let measure = PaperAdm::default_for(sp.height() as usize);
        for k in [1usize, 3, 10, 30] {
            for query in [0u64, 5, 12, 29] {
                let (results, _) = index.top_k(EntityId(query), k, &measure).unwrap();
                let expect = index.brute_force(EntityId(query), k, &measure).unwrap();
                assert_eq!(results.len(), expect.len());
                for (r, e) in results.iter().zip(expect.iter()) {
                    assert!(
                        (r.degree - e.degree).abs() < 1e-9,
                        "degree mismatch for query {query}, k {k}: {} vs {}",
                        r.degree,
                        e.degree
                    );
                }
            }
        }
    }

    #[test]
    fn pruning_checks_fewer_entities_than_brute_force() {
        let (sp, traces) = paired_dataset(60);
        let index =
            MinSigIndex::build(&sp, &traces, IndexConfig::with_hash_functions(128)).unwrap();
        let measure = PaperAdm::default_for(sp.height() as usize);
        let (_, stats) = index.top_k(EntityId(0), 1, &measure).unwrap();
        assert!(
            stats.entities_checked < index.num_entities(),
            "the index should not degenerate into a full scan ({} of {})",
            stats.entities_checked,
            index.num_entities()
        );
        assert!(stats.pruning_effectiveness() > 0.0);
    }

    #[test]
    fn unknown_query_entity_is_an_error() {
        let (sp, traces) = paired_dataset(3);
        let index = MinSigIndex::build(&sp, &traces, IndexConfig::default()).unwrap();
        let measure = DiceAdm::uniform(3);
        assert!(matches!(
            index.top_k(EntityId(999), 1, &measure),
            Err(IndexError::UnknownQueryEntity(999))
        ));
        assert!(index.brute_force(EntityId(999), 1, &measure).is_err());
    }

    #[test]
    fn update_entity_is_equivalent_to_rebuilding() {
        let (sp, mut traces) = paired_dataset(10);
        let config = IndexConfig::with_hash_functions(32);
        let mut index = MinSigIndex::build(&sp, &traces, config).unwrap();
        let measure = PaperAdm::default_for(sp.height() as usize);

        // Give entity 4 a brand new trace that shadows entity 9.
        let donor = traces.trace(EntityId(9)).unwrap().clone();
        let new_trace = DigitalTrace::from_instances(
            donor
                .instances()
                .iter()
                .map(|pi| PresenceInstance::new(EntityId(4), pi.unit, pi.period))
                .collect(),
        );
        index.update_entity(EntityId(4), &new_trace).unwrap();
        traces.insert_trace(EntityId(4), new_trace);

        let rebuilt = MinSigIndex::build(&sp, &traces, config).unwrap();
        for query in [4u64, 9, 0, 15] {
            let (a, _) = index.top_k(EntityId(query), 3, &measure).unwrap();
            let (b, _) = rebuilt.top_k(EntityId(query), 3, &measure).unwrap();
            let da: Vec<f64> = a.iter().map(|r| r.degree).collect();
            let db: Vec<f64> = b.iter().map(|r| r.degree).collect();
            for (x, y) in da.iter().zip(db.iter()) {
                assert!((x - y).abs() < 1e-9, "query {query}: {da:?} vs {db:?}");
            }
        }
        // Entity 4 should now be most associated with entity 9.
        let (results, _) = index.top_k(EntityId(4), 1, &measure).unwrap();
        assert_eq!(results[0].entity, EntityId(9));
    }

    #[test]
    fn insert_new_entity_after_build() {
        let (sp, traces) = paired_dataset(5);
        let mut index =
            MinSigIndex::build(&sp, &traces, IndexConfig::with_hash_functions(32)).unwrap();
        let base = sp.base_units().to_vec();
        let new_entity = EntityId(1000);
        let trace = DigitalTrace::from_instances(vec![PresenceInstance::new(
            new_entity,
            base[0],
            Period::new(0, 120).unwrap(),
        )]);
        assert!(index.upsert_entity(new_entity, &trace).unwrap(), "entity is new");
        assert_eq!(index.num_entities(), 11);
        assert!(index.contains(new_entity));
        let measure = DiceAdm::uniform(3);
        let (results, _) = index.top_k(new_entity, 2, &measure).unwrap();
        assert_eq!(results.len(), 2);
    }

    #[test]
    fn remove_entity_shrinks_the_answer_set() {
        let (sp, traces) = paired_dataset(5);
        let mut index =
            MinSigIndex::build(&sp, &traces, IndexConfig::with_hash_functions(32)).unwrap();
        let measure = PaperAdm::default_for(3);
        let (before, _) = index.top_k(EntityId(0), 1, &measure).unwrap();
        assert_eq!(before[0].entity, EntityId(1));
        assert_stats_are_fresh(&index);
        assert_fresh_after(&mut index, |index| index.remove_entity(EntityId(1)).unwrap());
        assert!(matches!(index.remove_entity(EntityId(1)), Err(IndexError::UnknownEntity(1))));
        assert_eq!(index.epoch(), 1, "a failed removal publishes nothing");
        let (after, _) = index.top_k(EntityId(0), 1, &measure).unwrap();
        assert_ne!(after[0].entity, EntityId(1));
        assert_eq!(index.num_entities(), 9);
    }

    /// Regression test: `update_entity` and `remove_entity` must error — not
    /// silently succeed — when the addressed entity is absent from the index.
    #[test]
    fn update_and_remove_of_absent_entities_are_errors() {
        let (sp, traces) = paired_dataset(3);
        let mut index = MinSigIndex::build(&sp, &traces, IndexConfig::default()).unwrap();
        let ghost = EntityId(4242);
        let trace = DigitalTrace::from_instances(vec![PresenceInstance::new(
            ghost,
            sp.base_units()[0],
            Period::new(0, 60).unwrap(),
        )]);
        let epoch_before = index.epoch();
        assert!(matches!(index.update_entity(ghost, &trace), Err(IndexError::UnknownEntity(4242))));
        assert!(matches!(index.remove_entity(ghost), Err(IndexError::UnknownEntity(4242))));
        // Failed mutations leave the index (and its epoch) untouched.
        assert_eq!(index.epoch(), epoch_before);
        assert_eq!(index.num_entities(), 6);
        assert!(!index.contains(ghost));
        // Upsert is the explicit insert-or-replace path.
        assert_stats_are_fresh(&index);
        assert!(assert_fresh_after(&mut index, |index| index
            .upsert_entity(ghost, &trace)
            .unwrap()));
        assert!(
            !assert_fresh_after(&mut index, |index| index.upsert_entity(ghost, &trace).unwrap()),
            "second upsert replaces"
        );
        assert_fresh_after(&mut index, |index| index.update_entity(ghost, &trace).unwrap());
        assert_fresh_after(&mut index, |index| index.ingest_batch(trace.instances().to_vec()))
            .unwrap();
        assert_fresh_after(&mut index, |index| index.remove_entity(ghost).unwrap());
        assert!(!index.contains(ghost));
    }

    /// The synopsis invariant under single-entity mutation: the recompute
    /// every publish makes — after a lone insert, a shrinking replacement or
    /// a removal — must always leave the synopsis equal to a fresh
    /// `Synopsis::compute` over the live sequences, at the handle's epoch.
    #[test]
    fn synopsis_stays_exact_under_upserts_replacements_and_removals() {
        let (sp, _traces, mut index) = {
            let (sp, traces) = paired_dataset(8);
            let index = MinSigIndex::build(&sp, &traces, IndexConfig::default()).unwrap();
            (sp, traces, index)
        };
        let base = sp.base_units().to_vec();
        let assert_exact = |index: &MinSigIndex| {
            let snapshot = index.snapshot();
            let expected = Synopsis::compute(
                snapshot.tree().levels(),
                snapshot.sequences().iter().map(|(e, s)| (*e, s)),
                snapshot.synopsis().sketch_size(),
                index.epoch(),
            );
            assert_eq!(snapshot.synopsis(), &expected);
        };
        // A stream of fresh inserts with varied trace sizes.
        for e in 0..20u64 {
            let cells: Vec<PresenceInstance> = (0..=(e % 5))
                .map(|i| {
                    PresenceInstance::new(
                        EntityId(500 + e),
                        base[((e + i) % base.len() as u64) as usize],
                        Period::new(i * 60, i * 60 + 60).unwrap(),
                    )
                })
                .collect();
            assert!(index
                .upsert_entity(EntityId(500 + e), &DigitalTrace::from_instances(cells))
                .unwrap());
            assert_exact(&index);
        }
        // A shrinking replacement and a removal.
        let tiny = DigitalTrace::from_instances(vec![PresenceInstance::new(
            EntityId(500),
            base[0],
            Period::new(0, 60).unwrap(),
        )]);
        index.update_entity(EntityId(500), &tiny).unwrap();
        assert_exact(&index);
        index.remove_entity(EntityId(501)).unwrap();
        assert_exact(&index);
    }

    #[test]
    fn k_larger_than_population_returns_everyone_else() {
        let (sp, traces) = paired_dataset(3);
        let index = MinSigIndex::build(&sp, &traces, IndexConfig::default()).unwrap();
        let measure = DiceAdm::uniform(3);
        let (results, _) = index.top_k(EntityId(0), 100, &measure).unwrap();
        assert_eq!(results.len(), 5);
    }

    #[test]
    fn k_zero_returns_nothing() {
        let (sp, traces) = paired_dataset(3);
        let index = MinSigIndex::build(&sp, &traces, IndexConfig::default()).unwrap();
        let measure = DiceAdm::uniform(3);
        let (results, stats) = index.top_k(EntityId(0), 0, &measure).unwrap();
        assert!(results.is_empty());
        assert_eq!(stats.k, 0);
    }

    #[test]
    fn external_query_sequence_works_without_exclusion() {
        let (sp, traces) = paired_dataset(4);
        let index = MinSigIndex::build(&sp, &traces, IndexConfig::default()).unwrap();
        let measure = DiceAdm::uniform(3);
        let query_seq = index.sequence(EntityId(2)).unwrap().clone();
        let (results, _) = index
            .snapshot()
            .top_k_for_sequence(&query_seq, None, 1, &measure, QueryOptions::default())
            .unwrap();
        // Without exclusion the best match for entity 2's own sequence is entity 2.
        assert_eq!(results[0].entity, EntityId(2));
    }

    #[test]
    fn level_mismatch_is_reported() {
        let (sp, traces) = paired_dataset(2);
        let index = MinSigIndex::build(&sp, &traces, IndexConfig::default()).unwrap();
        let other_sp = SpIndex::uniform(2, &[2]).unwrap();
        let seq =
            trace_model::CellSetSequence::from_base_cells(&other_sp, &trace_model::CellSet::new())
                .unwrap();
        let measure = DiceAdm::uniform(2);
        let err = index
            .snapshot()
            .top_k_for_sequence(&seq, None, 1, &measure, QueryOptions::default())
            .unwrap_err();
        assert!(matches!(err, IndexError::LevelMismatch { .. }));
    }
}
