//! Streaming ingestion: accumulate presence records and apply them to a
//! [`MinSigIndex`] as one copy-on-write batch.
//!
//! The single-record write path ([`MinSigIndex::upsert_entity`]) re-hashes the
//! affected entity's **entire** trace and publishes one snapshot per call —
//! fine for occasional corrections, wasteful for a stream of detections.  An
//! [`IngestBuffer`] instead accumulates [`PresenceInstance`]s and, on
//! [`flush`](IngestBuffer::flush), applies the whole batch as one delta —
//! *prepare*, then *apply*:
//!
//! 1. **prepare** (the only step that can fail, and it touches nothing):
//!    records are grouped by entity and each group is materialised, exactly
//!    once, into a *delta* ST-cell set sequence — the only per-record work;
//! 2. **apply** (infallible by signature): for an entity already in the
//!    index, the new sequence is the per-level union of the old and delta
//!    sequences, and — because level sets distribute over unions — the new
//!    signature is the element-wise minimum `SignatureList::merge_min` of
//!    the old signature and the signature of the **delta cells only**: no
//!    previously ingested cell is ever re-hashed, and the result is
//!    bit-identical to rebuilding from the merged trace;
//! 3. each touched entity is re-routed along its root-to-leaf tree path
//!    (Section 4.2.3 incremental maintenance);
//! 4. the handle publishes the updated snapshot as **one** new epoch
//!    ([`MinSigIndex::epoch`] advances by exactly 1 per non-empty flush).
//!
//! Readers are never blocked and never observe a partial batch: the flush
//! publishes copy-on-write (in place only when no reader holds the snapshot)
//! under the handle's exclusive borrow, so any snapshot taken before the flush keeps its
//! old state and any snapshot taken after sees the entire batch.  A bad
//! record (unknown spatial unit) fails *prepare*, so it rejects the flush with
//! the index, the buffer's records — and, on the sharded and durable paths
//! that run the same two steps ([`crate::shard`], [`crate::durable`]), every
//! shard, log and batch id — untouched: all-or-nothing is a property of the
//! prepared batch's type, not of two validations agreeing.
//!
//! ```
//! use minsig::{IndexConfig, IngestBuffer, MinSigIndex};
//! use trace_model::{DiceAdm, EntityId, Period, PresenceInstance, SpIndex, TraceSet};
//!
//! let sp = SpIndex::uniform(2, &[2]).unwrap();
//! let base = sp.base_units().to_vec();
//! let mut traces = TraceSet::new(60);
//! for e in 0..3u64 {
//!     traces.record(PresenceInstance::new(EntityId(e), base[0], Period::new(0, 120).unwrap()));
//! }
//! let mut index = MinSigIndex::build(&sp, &traces, IndexConfig::default()).unwrap();
//! let before = index.snapshot();
//!
//! // Stream two new detections — one existing device, one brand new.
//! let mut buffer = IngestBuffer::new();
//! buffer.push(PresenceInstance::new(EntityId(0), base[2], Period::new(200, 260).unwrap()));
//! buffer.push(PresenceInstance::new(EntityId(9), base[2], Period::new(200, 260).unwrap()));
//! let report = buffer.flush(&mut index).unwrap();
//!
//! assert_eq!((report.records, report.entities_touched, report.entities_inserted), (2, 2, 1));
//! assert_eq!(index.epoch(), 1); // one epoch for the whole batch
//! assert!(index.contains(EntityId(9)));
//! assert!(!before.contains(EntityId(9))); // in-flight readers keep their snapshot
//!
//! // The merged index answers like one built from scratch on the merged data.
//! let (results, _) = index.top_k(EntityId(9), 1, &DiceAdm::uniform(2)).unwrap();
//! assert_eq!(results[0].entity, EntityId(0));
//! ```

use crate::error::Result;
use crate::index::MinSigIndex;
use crate::signature::SignatureList;
use crate::snapshot::Change;
use std::collections::BTreeMap;
use std::time::Instant;
use trace_model::{CellSetSequence, DigitalTrace, EntityId, PresenceInstance, SpIndex};

/// Accumulates presence records for batched application to a [`MinSigIndex`].
///
/// See the [module docs](crate::ingest) for the merge algorithm and the epoch
/// publication contract.  The buffer is index-agnostic until
/// [`flush`](IngestBuffer::flush): the same buffer type can feed any index
/// whose spatial hierarchy knows the records' units.
#[derive(Debug, Clone, Default)]
pub struct IngestBuffer {
    pending: Vec<PresenceInstance>,
}

/// What one [`IngestBuffer::flush`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestReport {
    /// Presence records applied by this flush.
    pub records: usize,
    /// Distinct entities whose signature / tree path was updated.
    pub entities_touched: usize,
    /// How many of the touched entities were new to the index.
    pub entities_inserted: usize,
    /// The handle's epoch after the flush (one batch = one epoch).
    pub epoch: u64,
    /// Wall-clock time of the flush, in microseconds.
    pub flush_time_us: u64,
}

impl IngestBuffer {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        IngestBuffer::default()
    }

    /// Creates an empty buffer with room for `capacity` records.
    pub fn with_capacity(capacity: usize) -> Self {
        IngestBuffer { pending: Vec::with_capacity(capacity) }
    }

    /// True when no records are buffered.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Buffers one presence record (the entity is taken from the record).
    pub fn push(&mut self, record: PresenceInstance) {
        self.pending.push(record);
    }

    /// Discards all buffered records without applying them.
    pub(crate) fn clear(&mut self) {
        self.pending.clear();
    }

    /// The buffered records, in arrival order (what the durable ingest path
    /// routes into the per-shard logs).
    pub(crate) fn records(&self) -> &[PresenceInstance] {
        &self.pending
    }

    /// Groups the buffered records by entity and materialises each group's
    /// delta sequence against a spatial hierarchy, touching no index: **the
    /// only fallible step of any ingest**.  A bad record (an unknown spatial
    /// unit) fails here — before anything is logged, any batch id is taken,
    /// any shard is mutated, or the buffer is drained.
    pub(crate) fn prepare(&self, sp: &SpIndex, ticks_per_unit: u64) -> Result<PreparedBatch> {
        // BTreeMap: deterministic (entity-order) application.
        let mut by_entity: BTreeMap<EntityId, DigitalTrace> = BTreeMap::new();
        for record in &self.pending {
            by_entity.entry(record.entity).or_default().push(*record);
        }
        let mut deltas = Vec::with_capacity(by_entity.len());
        for (entity, delta_trace) in by_entity {
            let delta_seq = delta_trace.cell_sequence(sp, ticks_per_unit)?;
            deltas.push((entity, delta_trace.len(), delta_seq));
        }
        Ok(PreparedBatch { deltas })
    }

    /// Applies every buffered record to `index` as one copy-on-write batch
    /// and empties the buffer.
    ///
    /// All-or-nothing: the whole batch is prepared against the index's
    /// spatial hierarchy first, so an invalid record (e.g. an unknown spatial
    /// unit) returns an error with the index unchanged **and the buffer still
    /// holding every record** — the caller can drop the bad record and retry.
    /// An empty buffer is a no-op that does not advance the epoch.
    pub fn flush(&mut self, index: &mut MinSigIndex) -> Result<IngestReport> {
        let start = Instant::now();
        let prepared = self.prepare(index.sp_index(), index.ticks_per_unit())?;
        self.pending.clear();
        Ok(prepared.apply(index, start))
    }
}

/// A validated ingest batch: per touched entity, in entity order, how many
/// records it received and its materialised *delta* sequence.
///
/// Only [`IngestBuffer::prepare`] makes one, so holding it *is* the proof
/// that every record named a unit of the hierarchy — which is why
/// [`apply`](PreparedBatch::apply) cannot fail, even after a log append.
pub(crate) struct PreparedBatch {
    deltas: Vec<(EntityId, usize, CellSetSequence)>,
}

impl PreparedBatch {
    /// True when the batch touches no entity (an empty buffer).
    pub(crate) fn is_empty(&self) -> bool {
        self.deltas.is_empty()
    }

    /// Routes the batch into one sub-batch per shard by
    /// [`shard_of`](crate::shard::shard_of), keeping entity order within each.
    pub(crate) fn split(self, num_shards: usize) -> Vec<PreparedBatch> {
        let mut parts: Vec<PreparedBatch> =
            (0..num_shards).map(|_| PreparedBatch { deltas: Vec::new() }).collect();
        for delta in self.deltas {
            parts[crate::shard::shard_of(delta.0, num_shards)].deltas.push(delta);
        }
        parts
    }

    /// Applies the batch to `index` as one epoch: hashes each delta's cells
    /// (never a previously ingested one) and commits one [`Change::Merge`]
    /// per touched entity.  `started` is when the caller began this flush;
    /// the report's flush time and the stats' build-time increment are that
    /// one measurement.  An empty batch does not advance the epoch.
    pub(crate) fn apply(self, index: &mut MinSigIndex, started: Instant) -> IngestReport {
        if self.is_empty() {
            return IngestReport { epoch: index.epoch(), ..IngestReport::default() };
        }
        let mut records = 0usize;
        let mut hash_evaluations = 0u64;
        let mut changes = Vec::with_capacity(self.deltas.len());
        for (entity, delta_records, delta_seq) in self.deltas {
            let delta_sig = SignatureList::build(index.sp_index(), index.hasher(), &delta_seq);
            records += delta_records;
            hash_evaluations +=
                delta_seq.total_cells() as u64 * index.config().num_hash_functions as u64;
            changes.push((entity, Change::Merge(delta_seq, delta_sig)));
        }
        let (published, flush_time_us) = index.commit(changes, hash_evaluations, started);
        IngestReport {
            records,
            entities_touched: published.inserted + published.replaced,
            entities_inserted: published.inserted,
            epoch: index.epoch(),
            flush_time_us,
        }
    }
}

impl Extend<PresenceInstance> for IngestBuffer {
    fn extend<I: IntoIterator<Item = PresenceInstance>>(&mut self, records: I) {
        self.pending.extend(records);
    }
}

impl FromIterator<PresenceInstance> for IngestBuffer {
    fn from_iter<I: IntoIterator<Item = PresenceInstance>>(records: I) -> Self {
        IngestBuffer { pending: records.into_iter().collect() }
    }
}

impl MinSigIndex {
    /// Applies a batch of presence records in one epoch — shorthand for
    /// filling an [`IngestBuffer`] and flushing it immediately.
    ///
    /// On a validation error the index is untouched but the records are
    /// **dropped** with the temporary buffer; manage an [`IngestBuffer`]
    /// yourself when you need the failed batch back for repair-and-retry.
    pub fn ingest_batch<I: IntoIterator<Item = PresenceInstance>>(
        &mut self,
        records: I,
    ) -> Result<IngestReport> {
        records.into_iter().collect::<IngestBuffer>().flush(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::IndexConfig;
    use crate::error::IndexError;
    use std::sync::Arc;
    use trace_model::{PaperAdm, Period, TraceSet};

    fn seed_dataset(entities: u64) -> (SpIndex, TraceSet) {
        let sp = SpIndex::uniform(3, &[4, 4]).unwrap();
        let base = sp.base_units().to_vec();
        let mut traces = TraceSet::new(60);
        for e in 0..entities {
            for step in 0..4u64 {
                let unit = base[((e * 5 + step * 7) % base.len() as u64) as usize];
                let start = step * 300;
                traces.record(PresenceInstance::new(
                    EntityId(e),
                    unit,
                    Period::new(start, start + 60).unwrap(),
                ));
            }
        }
        (sp, traces)
    }

    fn streamed_records(sp: &SpIndex, n: u64) -> Vec<PresenceInstance> {
        let base = sp.base_units().to_vec();
        (0..n)
            .map(|i| {
                // A mix of existing (0..20) and new (>= 1000) entities.
                let entity =
                    if i % 3 == 0 { EntityId(1000 + i % 17) } else { EntityId(i * 13 % 20) };
                let unit = base[((i * 29) % base.len() as u64) as usize];
                let start = 5000 + i % 50 * 60;
                PresenceInstance::new(entity, unit, Period::new(start, start + 45).unwrap())
            })
            .collect()
    }

    /// The correctness bar of the batch path: flushing a batch must answer
    /// queries exactly like an index rebuilt from scratch over the merged
    /// trace set.
    #[test]
    fn flush_equals_full_rebuild() {
        let (sp, mut traces) = seed_dataset(20);
        let config = IndexConfig::with_hash_functions(32);
        let mut index = MinSigIndex::build(&sp, &traces, config).unwrap();
        let records = streamed_records(&sp, 300);
        for r in &records {
            traces.record(*r);
        }

        let report = index.ingest_batch(records).unwrap();
        assert_eq!(report.records, 300);
        assert_eq!(report.epoch, 1);
        assert!(report.entities_inserted > 0);

        // The rebuild derives its hash range from the merged data; pin the
        // incremental index's resolved range so both hash identically.
        let pinned = IndexConfig { hash_range: Some(index.hasher().range()), ..config };
        let rebuilt = MinSigIndex::build(&sp, &traces, pinned).unwrap();
        assert_eq!(index.num_entities(), rebuilt.num_entities());
        let measure = PaperAdm::default_for(sp.height() as usize);
        for query in [0u64, 7, 13, 1000, 1005] {
            let (a, _) = index.top_k(EntityId(query), 5, &measure).unwrap();
            let (b, _) = rebuilt.top_k(EntityId(query), 5, &measure).unwrap();
            assert_eq!(a, b, "query {query}");
        }
        // Signatures are bit-identical, not merely answer-equivalent.
        for e in index.sequences().keys() {
            assert_eq!(index.snapshot().signature(*e), rebuilt.snapshot().signature(*e));
            assert_eq!(index.sequence(*e), rebuilt.sequence(*e));
        }
    }

    #[test]
    fn readers_on_the_prior_epoch_are_unaffected() {
        let (sp, traces) = seed_dataset(12);
        let mut index =
            MinSigIndex::build(&sp, &traces, IndexConfig::with_hash_functions(16)).unwrap();
        let measure = PaperAdm::default_for(sp.height() as usize);
        let before = index.snapshot();
        let (answers_before, _) = before.top_k(EntityId(0), 3, &measure).unwrap();

        index.ingest_batch(streamed_records(&sp, 500)).unwrap();

        // The old snapshot still answers from the old state.
        assert_eq!(before.num_entities(), 12);
        let (answers_after, _) = before.top_k(EntityId(0), 3, &measure).unwrap();
        assert_eq!(answers_before, answers_after);
        assert!(index.num_entities() > 12);
    }

    #[test]
    fn empty_flush_is_a_no_op() {
        let (sp, traces) = seed_dataset(4);
        let mut index = MinSigIndex::build(&sp, &traces, IndexConfig::default()).unwrap();
        let mut buffer = IngestBuffer::new();
        let report = buffer.flush(&mut index).unwrap();
        assert_eq!(report, IngestReport { epoch: 0, ..IngestReport::default() });
        assert_eq!(index.epoch(), 0);
    }

    #[test]
    fn invalid_record_rejects_the_whole_batch() {
        let (sp, traces) = seed_dataset(6);
        let mut index =
            MinSigIndex::build(&sp, &traces, IndexConfig::with_hash_functions(16)).unwrap();
        let mut buffer = IngestBuffer::with_capacity(2);
        buffer.push(PresenceInstance::new(
            EntityId(0),
            sp.base_units()[0],
            Period::new(0, 60).unwrap(),
        ));
        // Spatial unit 9999 does not exist in the hierarchy.
        buffer.push(PresenceInstance::new(EntityId(1), 9999, Period::new(0, 60).unwrap()));

        let before = index.snapshot();
        let err = buffer.flush(&mut index).unwrap_err();
        assert!(matches!(err, IndexError::Model(_)), "got {err:?}");
        // Nothing was applied, nothing was dropped.
        assert_eq!(index.epoch(), 0);
        assert_eq!(buffer.records().len(), 2);
        assert!(Arc::ptr_eq(&before, &index.snapshot()), "snapshot must be untouched");

        buffer.clear();
        assert!(buffer.is_empty());
    }

    /// Regression: the flush used to call `elapsed()` twice, so the report's
    /// `flush_time_us` and the amount added to `IndexStats::build_time_us`
    /// disagreed.  They must be the same measurement.
    #[test]
    fn flush_time_matches_build_time_increment() {
        let (sp, traces) = seed_dataset(10);
        let mut index =
            MinSigIndex::build(&sp, &traces, IndexConfig::with_hash_functions(16)).unwrap();
        for batch in 0..3u64 {
            let before = index.stats().build_time_us;
            let report = index.ingest_batch(streamed_records(&sp, 200 + batch)).unwrap();
            assert_eq!(
                index.stats().build_time_us - before,
                report.flush_time_us,
                "build-time increment and reported flush time must be one measurement"
            );
        }
    }

    #[test]
    fn repeated_flushes_accumulate_epochs() {
        let (sp, traces) = seed_dataset(8);
        let mut index =
            MinSigIndex::build(&sp, &traces, IndexConfig::with_hash_functions(16)).unwrap();
        let mut buffer = IngestBuffer::new();
        for batch in 0..5u64 {
            buffer.extend(streamed_records(&sp, 40 + batch));
            let report = buffer.flush(&mut index).unwrap();
            assert_eq!(report.epoch, batch + 1);
            assert!(buffer.is_empty(), "flush drains the buffer");
        }
        assert_eq!(index.epoch(), 5);
        index.tree().check_invariants().unwrap();
    }
}
