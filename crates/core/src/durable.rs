//! Continuously durable ingest: write-ahead delta logs in front of the
//! copy-on-write flush.
//!
//! The checkpoint format of [`crate::shard`] (`manifest.mshd` + one
//! [`crate::persist`] `.msix` file per shard) is crash-*atomic* but not
//! crash-*durable*: every batch ingested after the last save dies with the
//! process.  This module closes that window.  A
//! [`DurableShardedMinSigIndex`] serialises each prepared ingest batch into
//! [`trace_storage::LogManager`]s and fsyncs it **before** the in-memory
//! index applies the batch, so commits cost O(batch) while checkpoints stay
//! O(index) — and a crash at any instant loses at most the batch whose
//! `ingest` call never returned.  (One shard is the unsharded case: a
//! one-shard index answers bit-identically to a plain
//! [`MinSigIndex`](crate::index::MinSigIndex).)
//!
//! ## On-disk layout
//!
//! ```text
//! dir/
//! ├── manifest.mshd      checkpoint
//! ├── shard-00000.msix   ...
//! └── wal/
//!     ├── shard-00000/wal-*.log   one log per shard
//!     ├── shard-00001/wal-*.log
//!     └── commit/wal-*.log        cross-shard commit log
//! ```
//!
//! ## Commit protocol
//!
//! An ingest is *prepare → log → apply*.  `IngestBuffer::prepare` is the
//! only step that can reject a batch, and it runs first: a bad record means
//! no log append, no batch id taken, no shard touched.  The prepared batch
//! is then routed into per-shard sub-batches, each logged to its shard's WAL
//! under a shared `batch_id` ([`encode_sub_batch`]); the batch commits only
//! when a record carrying that id ([`encode_commit`]) is appended to the
//! commit log — that fsync is **the commit point**.  A crash between two
//! shards' appends leaves sub-batches whose id never reached the commit log
//! — recovery discards them, preserving the cross-shard all-or-nothing
//! contract of [`flush_sharded`](crate::ingest::IngestBuffer::flush_sharded).
//! After the commit point nothing can fail: applying a prepared batch is
//! infallible by signature, so the logs and the shards cannot drift apart.
//!
//! ## Checkpoint and recovery
//!
//! Every checkpoint file records the WAL LSN it covers *inside* the
//! atomically renamed file (format v3, see [`crate::persist`]), so state and
//! log position can never be torn apart.  `open` loads the checkpoint, opens
//! the logs at those LSNs, verifies each log still covers `ckpt_lsn + 1`
//! onward, and replays every committed sub-batch with a LSN beyond the
//! checkpoint through the same prepare → apply path — a recovered index
//! answers queries bit-identically to one that never crashed.
//! [`DurableShardedMinSigIndex::checkpoint`] saves, then truncates the logs;
//! a crash between the two merely replays batches the checkpoint already
//! covers — the stored LSNs filter them out, so nothing is ever applied
//! twice.
//!
//! | crash point                          | after `open`                         |
//! |--------------------------------------|--------------------------------------|
//! | mid-append (torn record)             | batch lost; prior batches intact     |
//! | between two shards' appends          | sub-batches discarded (no commit)    |
//! | after commit append, before apply    | batch replayed on every shard        |
//! | mid-checkpoint save                  | old checkpoint + full log replayed   |
//! | after save, before log truncation    | stale records filtered by LSN        |

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

use trace_model::{EntityId, Period, PresenceInstance};
use trace_storage::segment::Cursor;
use trace_storage::{LogConfig, LogManager};

use crate::error::{IndexError, Result};
use crate::ingest::IngestBuffer;
use crate::shard::{shard_of, ShardedIngestReport, ShardedMinSigIndex, SHARD_MANIFEST_FILE};

/// Serialised size of one presence record in a log payload.
const RECORD_WIRE_LEN: usize = 28;

/// The WAL directory of one shard of a durable index.
pub fn shard_wal_dir(dir: &Path, shard: usize) -> PathBuf {
    dir.join("wal").join(format!("shard-{shard:05}"))
}

/// The commit-log directory of a durable index.
pub fn commit_wal_dir(dir: &Path) -> PathBuf {
    dir.join("wal").join("commit")
}

/// What a durable `open` replayed out of the write-ahead log(s).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Committed batches applied beyond the checkpoint.
    pub batches_replayed: usize,
    /// Presence records those batches carried (summed over the per-shard
    /// sub-batches actually applied).
    pub records_replayed: usize,
    /// Sub-batches discarded because their batch id never reached the commit
    /// log (a crash between two shards' appends).
    pub uncommitted_discarded: usize,
}

fn corrupt(msg: &str) -> IndexError {
    IndexError::Corrupt(format!("durable index: {msg}"))
}

/// The log must still cover everything the checkpoint does not: its first
/// retained LSN (or, when empty, the next one it will assign) may not skip
/// past `ckpt_lsn + 1`.
fn check_coverage(log: &LogManager, ckpt_lsn: u64, what: &str) -> Result<()> {
    let first = log.first_lsn().unwrap_or_else(|| log.next_lsn());
    if first > ckpt_lsn + 1 {
        return Err(corrupt(&format!(
            "{what}: log begins at LSN {first} but the checkpoint covers only LSN {ckpt_lsn}; \
             the records in between are lost"
        )));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Log payload wire format
// ---------------------------------------------------------------------------

/// Serialises one shard's slice of a routed batch into a log payload: the
/// cross-shard `batch_id: u64`, then `count: u32` and `count` ×
/// (`entity: u64`, `unit: u32`, `start: u64`, `end: u64`), all little-endian.
pub fn encode_sub_batch(batch_id: u64, records: &[PresenceInstance]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(12 + records.len() * RECORD_WIRE_LEN);
    buf.extend_from_slice(&batch_id.to_le_bytes());
    buf.extend_from_slice(&(records.len() as u32).to_le_bytes());
    for r in records {
        buf.extend_from_slice(&r.entity.raw().to_le_bytes());
        buf.extend_from_slice(&r.unit.to_le_bytes());
        buf.extend_from_slice(&r.period.start.to_le_bytes());
        buf.extend_from_slice(&r.period.end.to_le_bytes());
    }
    buf
}

/// Serialises a commit-log record: the committed `batch_id` alone.
pub fn encode_commit(batch_id: u64) -> Vec<u8> {
    batch_id.to_le_bytes().to_vec()
}

/// Inverse of [`encode_sub_batch`].
pub(crate) fn decode_sub_batch(payload: &[u8]) -> Result<(u64, Vec<PresenceInstance>)> {
    let mut c = Cursor::new(payload);
    let batch_id = c.u64()?;
    let count = c.u32()? as usize;
    if c.remaining() < count * RECORD_WIRE_LEN {
        return Err(corrupt(&format!("log payload claims {count} records but is too short")));
    }
    let mut records = Vec::with_capacity(count);
    for _ in 0..count {
        let (entity, unit, start, end) = (EntityId(c.u64()?), c.u32()?, c.u64()?, c.u64()?);
        let period = Period::new(start, end)
            .map_err(|e| corrupt(&format!("logged record has an invalid period: {e}")))?;
        records.push(PresenceInstance::new(entity, unit, period));
    }
    c.expect_end()?;
    Ok((batch_id, records))
}

/// Inverse of [`encode_commit`].
pub(crate) fn decode_commit(payload: &[u8]) -> Result<u64> {
    let mut c = Cursor::new(payload);
    let batch_id = c.u64()?;
    c.expect_end()?;
    Ok(batch_id)
}

// ---------------------------------------------------------------------------
// The durable index
// ---------------------------------------------------------------------------

/// A [`ShardedMinSigIndex`] with one write-ahead log per shard plus a commit
/// log that makes routed batches atomic across shards; see the
/// [module docs](self) for the protocol.
#[derive(Debug)]
pub struct DurableShardedMinSigIndex {
    dir: PathBuf,
    index: ShardedMinSigIndex,
    logs: Vec<LogManager>,
    commit: LogManager,
    next_batch_id: u64,
}

impl DurableShardedMinSigIndex {
    /// Starts a durable sharded index in `dir` (created if needed) from an
    /// already-built `index`: writes the initial checkpoint and empty
    /// per-shard and commit logs.  Refuses to clobber an existing one.
    pub fn create(
        dir: &Path,
        index: ShardedMinSigIndex,
        config: LogConfig,
    ) -> Result<DurableShardedMinSigIndex> {
        fs::create_dir_all(dir).map_err(|e| IndexError::Io(e.to_string()))?;
        let manifest = dir.join(SHARD_MANIFEST_FILE);
        if manifest.exists() {
            return Err(IndexError::Io(format!(
                "durable sharded index already exists at {}",
                manifest.display()
            )));
        }
        index.save(dir)?;
        let mut logs = Vec::with_capacity(index.num_shards());
        for shard in 0..index.num_shards() {
            let (log, _) = LogManager::open(&shard_wal_dir(dir, shard), 0, config)?;
            logs.push(log);
        }
        let (commit, _) = LogManager::open(&commit_wal_dir(dir), 0, config)?;
        Ok(DurableShardedMinSigIndex {
            dir: dir.to_path_buf(),
            index,
            logs,
            commit,
            next_batch_id: 1,
        })
    }

    /// Opens the durable sharded index in `dir`, replaying every *committed*
    /// sub-batch newer than each shard's checkpoint and discarding
    /// sub-batches whose batch id never reached the commit log.
    ///
    /// The checkpoint itself is read leniently (a crash mid-save may leave
    /// shard files from two checkpoint generations; per-file checksums and
    /// routing are still enforced) because the replay restores consistency.
    pub fn open(
        dir: &Path,
        config: LogConfig,
    ) -> Result<(DurableShardedMinSigIndex, RecoveryReport)> {
        let (mut index, ckpt_lsns) = ShardedMinSigIndex::open_for_recovery(dir)?;

        let (commit, commit_records) = LogManager::open(&commit_wal_dir(dir), 0, config)?;
        let mut committed = BTreeSet::new();
        for record in &commit_records {
            committed.insert(decode_commit(&record.payload)?);
        }

        let mut logs = Vec::with_capacity(ckpt_lsns.len());
        let mut report = RecoveryReport::default();
        let mut replayed_ids = BTreeSet::new();
        let mut max_seen_id = committed.iter().next_back().copied().unwrap_or(0);
        for (shard, &ckpt_lsn) in ckpt_lsns.iter().enumerate() {
            let (log, records) = LogManager::open(&shard_wal_dir(dir, shard), ckpt_lsn, config)?;
            check_coverage(&log, ckpt_lsn, &format!("shard {shard} log"))?;
            for record in records.iter().filter(|r| r.lsn > ckpt_lsn) {
                let (batch_id, batch) = decode_sub_batch(&record.payload)?;
                max_seen_id = max_seen_id.max(batch_id);
                if !committed.contains(&batch_id) {
                    report.uncommitted_discarded += 1;
                    continue;
                }
                report.records_replayed += batch.len();
                replayed_ids.insert(batch_id);
                index.shards[shard].ingest_batch(batch)?;
            }
            logs.push(log);
        }
        report.batches_replayed = replayed_ids.len();

        let durable = DurableShardedMinSigIndex {
            dir: dir.to_path_buf(),
            index,
            logs,
            commit,
            next_batch_id: max_seen_id + 1,
        };
        Ok((durable, report))
    }

    /// Applies one batch durably across the shards — prepare, log each
    /// shard's sub-batch, append the batch id to the commit log (**the commit
    /// point**), apply; see the [module docs](self).  A rejected batch touches
    /// nothing: no log, no batch id, no shard.  On a log error no shard was
    /// mutated; a sub-batch logged before the error stays uncommitted — its
    /// batch id is never handed out again — and recovery discards it.
    pub fn ingest<I: IntoIterator<Item = PresenceInstance>>(
        &mut self,
        records: I,
    ) -> Result<ShardedIngestReport> {
        let buffer: IngestBuffer = records.into_iter().collect();
        let probe = self.index.shard(0);
        let prepared = buffer.prepare(probe.sp_index(), probe.ticks_per_unit())?;
        if !prepared.is_empty() {
            let num_shards = self.index.num_shards();
            let mut per_shard: Vec<Vec<PresenceInstance>> = vec![Vec::new(); num_shards];
            for record in buffer.records() {
                per_shard[shard_of(record.entity, num_shards)].push(*record);
            }
            // Burned before the first append: were a failed batch's id reused,
            // the next commit record would vouch for the sub-batches it left
            // behind.
            let batch_id = self.next_batch_id;
            self.next_batch_id += 1;
            for (shard, sub_batch) in per_shard.iter().enumerate() {
                if !sub_batch.is_empty() {
                    self.logs[shard].append(&encode_sub_batch(batch_id, sub_batch))?;
                }
            }
            self.commit.append(&encode_commit(batch_id))?;
        }
        Ok(self.index.apply(prepared, Instant::now()))
    }

    /// Saves a checkpoint with every shard file stamped with its log's
    /// current position, then truncates all the logs.  Uncommitted
    /// sub-batches below the stamped LSNs are retired with the logs — they
    /// were never applied and never will be.
    pub fn checkpoint(&mut self) -> Result<()> {
        let lsns: Vec<u64> = self.logs.iter().map(|log| log.next_lsn() - 1).collect();
        self.index.save_with_lsns(&self.dir, Some(&lsns))?;
        for (log, &lsn) in self.logs.iter_mut().zip(&lsns) {
            log.truncate_through(lsn)?;
        }
        let commit_lsn = self.commit.next_lsn() - 1;
        self.commit.truncate_through(commit_lsn)?;
        Ok(())
    }

    /// The wrapped sharded index, for queries and inspection.
    pub fn index(&self) -> &ShardedMinSigIndex {
        &self.index
    }

    /// One shard's write-ahead log.
    pub fn shard_log(&self, shard: usize) -> &LogManager {
        &self.logs[shard]
    }

    /// The cross-shard commit log.
    pub fn commit_log(&self) -> &LogManager {
        &self.commit
    }

    /// The id the next committed batch will carry.
    pub fn next_batch_id(&self) -> u64 {
        self.next_batch_id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::IndexConfig;
    use crate::testkit::{assert_equivalent_answers, PairedConfig, StreamConfig, Workload};

    fn workload() -> Workload {
        Workload::paired(PairedConfig { pairs: 24, ..PairedConfig::default() })
    }

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("durable-test-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn no_fsync() -> LogConfig {
        LogConfig { fsync: false, ..LogConfig::default() }
    }

    fn batches(w: &Workload, n: usize) -> Vec<Vec<PresenceInstance>> {
        (0..n)
            .map(|i| {
                w.stream(StreamConfig {
                    records: 40,
                    existing_entities: 48,
                    new_entity_base: 1_000 + 100 * i as u64,
                    new_entity_span: 8,
                    new_entity_percent: 25,
                    start_tick: 10_000 + 5_000 * i as u64,
                    seed: 0xD00D + i as u64,
                    ..StreamConfig::default()
                })
            })
            .collect()
    }

    /// A one-shard sharded index: the unsharded case of the durable path.
    fn one_shard(w: &Workload, config: IndexConfig) -> ShardedMinSigIndex {
        ShardedMinSigIndex::build(&w.sp, &w.traces, config, 1).unwrap()
    }

    #[test]
    fn wire_formats_round_trip() {
        let w = workload();
        let records = batches(&w, 1).remove(0);
        let (id, back) = decode_sub_batch(&encode_sub_batch(42, &records)).unwrap();
        assert_eq!((id, back), (42, records.clone()));
        assert_eq!(decode_commit(&encode_commit(7)).unwrap(), 7);
        // Framing errors are Corrupt, not panics.
        let one_record_claimed = [&[0u8; 8][..], &[1, 0, 0, 0]].concat();
        assert!(matches!(decode_sub_batch(&one_record_claimed), Err(IndexError::Corrupt(_))));
        assert!(matches!(decode_commit(&[0; 9]), Err(IndexError::Corrupt(_))));
        let mut trailing = encode_sub_batch(42, &records);
        trailing.push(0);
        assert!(matches!(decode_sub_batch(&trailing), Err(IndexError::Corrupt(_))));
    }

    #[test]
    fn crash_before_checkpoint_replays_every_batch() {
        let w = workload();
        let config = IndexConfig::with_hash_functions(32);
        let dir = temp_dir("one-shard-replay");

        let mut oracle = w.build_index(config);
        let mut durable =
            DurableShardedMinSigIndex::create(&dir, one_shard(&w, config), no_fsync())
                .expect("create durable index");
        for batch in batches(&w, 3) {
            oracle.ingest_batch(batch.clone()).unwrap();
            durable.ingest(batch).unwrap();
        }
        // Simulate a crash: drop without checkpointing.
        drop(durable);

        let (recovered, report) = DurableShardedMinSigIndex::open(&dir, no_fsync()).unwrap();
        assert_eq!(report.batches_replayed, 3);
        assert_eq!(report.records_replayed, 120);
        assert_eq!(report.uncommitted_discarded, 0);
        assert_eq!(recovered.index().num_entities(), oracle.num_entities());
        assert_eq!(recovered.index().epochs(), [oracle.epoch()]);
        let measure = w.measure();
        for query in [0u64, 9, 31] {
            let (a, _) = recovered.index().top_k(EntityId(query), 5, &measure).unwrap();
            let (b, _) = oracle.top_k(EntityId(query), 5, &measure).unwrap();
            assert_equivalent_answers(&a, &b, &format!("recovered, query {query}"));
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_truncates_and_later_batches_still_replay() {
        let w = workload();
        let config = IndexConfig::with_hash_functions(32);
        let dir = temp_dir("one-shard-ckpt");
        let mut durable =
            DurableShardedMinSigIndex::create(&dir, one_shard(&w, config), no_fsync()).unwrap();
        let all = batches(&w, 4);
        durable.ingest(all[0].clone()).unwrap();
        durable.ingest(all[1].clone()).unwrap();
        durable.checkpoint().unwrap();
        assert_eq!(durable.shard_log(0).first_lsn(), None, "checkpoint truncates the log");
        assert_eq!(durable.commit_log().first_lsn(), None, "and the commit log");
        durable.ingest(all[2].clone()).unwrap();
        durable.ingest(all[3].clone()).unwrap();
        drop(durable);

        let (recovered, report) = DurableShardedMinSigIndex::open(&dir, no_fsync()).unwrap();
        assert_eq!(report.batches_replayed, 2, "only post-checkpoint batches replay");
        // Epochs count batches since the handle opened (`from_snapshot`
        // restarts at 0, exactly like the non-durable open path).
        assert_eq!(recovered.index().epochs(), [2]);

        // A clean checkpoint leaves nothing to replay at all.
        let (mut durable, _) = DurableShardedMinSigIndex::open(&dir, no_fsync()).unwrap();
        durable.checkpoint().unwrap();
        drop(durable);
        let (_, report) = DurableShardedMinSigIndex::open(&dir, no_fsync()).unwrap();
        assert_eq!(report, RecoveryReport::default());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn create_refuses_to_clobber() {
        let w = workload();
        let dir = temp_dir("clobber");
        let config = IndexConfig::default();
        DurableShardedMinSigIndex::create(&dir, one_shard(&w, config), no_fsync()).unwrap();
        assert!(matches!(
            DurableShardedMinSigIndex::create(&dir, one_shard(&w, config), no_fsync()),
            Err(IndexError::Io(_))
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    /// All-or-nothing across shards: one bad record — routed to the *last*
    /// shard, so every other sub-batch would have been logged first — must
    /// reject the batch before anything is touched: no log append, no batch
    /// id burned, no epoch, and (through the buffer) no record dropped.
    #[test]
    fn invalid_batch_is_never_logged() {
        const SHARDS: usize = 4;
        let w = workload();
        let dir = temp_dir("invalid");
        let built =
            ShardedMinSigIndex::build(&w.sp, &w.traces, IndexConfig::default(), SHARDS).unwrap();
        let mut durable = DurableShardedMinSigIndex::create(&dir, built, no_fsync()).unwrap();
        durable.ingest(batches(&w, 1).remove(0)).unwrap();

        let mut batch = batches(&w, 2).remove(1);
        assert!((0..SHARDS - 1).all(|s| batch.iter().any(|r| shard_of(r.entity, SHARDS) == s)));
        let last = (0..).map(EntityId).find(|&e| shard_of(e, SHARDS) == SHARDS - 1).unwrap();
        batch.push(PresenceInstance::new(
            last,
            u32::MAX - 1, // not a unit of the hierarchy
            Period::new(0, 60).unwrap(),
        ));

        let lsns = |d: &DurableShardedMinSigIndex| -> Vec<Option<u64>> {
            let shard_lsns = (0..SHARDS).map(|s| d.shard_log(s).last_lsn());
            shard_lsns.chain([d.commit_log().last_lsn()]).collect()
        };
        let (logged, next_id, epochs) =
            (lsns(&durable), durable.next_batch_id(), durable.index().epochs());
        assert!(durable.ingest(batch.clone()).is_err());
        assert_eq!(lsns(&durable), logged, "a rejected batch must not reach any log");
        assert_eq!(durable.next_batch_id(), next_id, "no id is burned before prepare succeeds");
        assert_eq!(durable.index().epochs(), epochs);

        // The non-durable flush of the same batch keeps every record for repair.
        let mut index = durable.index;
        let mut buffer: IngestBuffer = batch.iter().copied().collect();
        assert!(buffer.flush_sharded(&mut index).is_err());
        assert_eq!(buffer.records().len(), batch.len());
        assert_eq!(index.epochs(), epochs);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sharded_crash_recovery_matches_never_crashed_oracle() {
        let w = workload();
        let config = IndexConfig::with_hash_functions(32);
        let dir = temp_dir("sharded-replay");
        let shards = 3;

        let mut oracle = ShardedMinSigIndex::build(&w.sp, &w.traces, config, shards).unwrap();
        let built = ShardedMinSigIndex::build(&w.sp, &w.traces, config, shards).unwrap();
        let mut durable = DurableShardedMinSigIndex::create(&dir, built, no_fsync()).unwrap();
        let all = batches(&w, 4);
        oracle.ingest_batch(all[0].clone()).unwrap();
        durable.ingest(all[0].clone()).unwrap();
        durable.checkpoint().unwrap();
        for batch in &all[1..] {
            oracle.ingest_batch(batch.clone()).unwrap();
            durable.ingest(batch.clone()).unwrap();
        }
        let next_id = durable.next_batch_id();
        drop(durable);

        let (recovered, report) = DurableShardedMinSigIndex::open(&dir, no_fsync()).unwrap();
        assert_eq!(report.batches_replayed, 3);
        assert_eq!(report.records_replayed, 120);
        assert_eq!(report.uncommitted_discarded, 0);
        assert_eq!(recovered.next_batch_id(), next_id, "batch ids must not be reused");
        assert_eq!(recovered.index().num_entities(), oracle.num_entities());
        let measure = w.measure();
        for query in [0u64, 9, 31] {
            let (a, _) = recovered.index().top_k(EntityId(query), 5, &measure).unwrap();
            let (b, _) = oracle.top_k(EntityId(query), 5, &measure).unwrap();
            assert_equivalent_answers(&a, &b, &format!("sharded recovered, query {query}"));
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn uncommitted_sub_batch_is_discarded() {
        let w = workload();
        let config = IndexConfig::with_hash_functions(32);
        let dir = temp_dir("uncommitted");
        let built = ShardedMinSigIndex::build(&w.sp, &w.traces, config, 2).unwrap();
        let mut durable = DurableShardedMinSigIndex::create(&dir, built, no_fsync()).unwrap();
        let all = batches(&w, 2);
        durable.ingest(all[0].clone()).unwrap();
        let epochs = durable.index().epochs();
        let orphan_id = durable.next_batch_id();
        drop(durable);

        // Simulate a crash between two shards' appends: shard 0 got its
        // sub-batch, the commit record was never written.
        let (mut log, _) = LogManager::open(&shard_wal_dir(&dir, 0), 0, no_fsync()).unwrap();
        log.append(&encode_sub_batch(orphan_id, &all[1])).unwrap();
        drop(log);

        let (recovered, report) = DurableShardedMinSigIndex::open(&dir, no_fsync()).unwrap();
        assert_eq!(report.batches_replayed, 1, "only the committed batch replays");
        assert_eq!(report.uncommitted_discarded, 1);
        assert_eq!(recovered.index().epochs(), epochs, "orphan must not advance any epoch");
        assert_eq!(
            recovered.next_batch_id(),
            orphan_id + 1,
            "the orphaned id is burned, never reused"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A batch whose `ingest` returned `Err` must stay invisible for good:
    /// shard 1's log fails to rotate after shard 0 already logged its
    /// sub-batch, and the next committed batch must not vouch for that orphan.
    #[test]
    fn failed_ingest_is_never_applied_by_a_later_commit() {
        let w = workload();
        let config = IndexConfig::with_hash_functions(32);
        let dir = temp_dir("failed-ingest");
        // One-byte segments: every append onto a non-empty segment rotates,
        // i.e. creates a file in the shard's WAL directory.
        let log_config = LogConfig { segment_bytes: 1, fsync: false };
        let all = batches(&w, 3);
        let shard_0_only: Vec<PresenceInstance> =
            all[2].iter().copied().filter(|r| shard_of(r.entity, 2) == 0).collect();
        assert!(all[1].iter().any(|r| shard_of(r.entity, 2) == 0));
        assert!(all[1].iter().any(|r| shard_of(r.entity, 2) == 1));
        assert!(!shard_0_only.is_empty());

        let mut oracle = ShardedMinSigIndex::build(&w.sp, &w.traces, config, 2).unwrap();
        let built = ShardedMinSigIndex::build(&w.sp, &w.traces, config, 2).unwrap();
        let mut durable = DurableShardedMinSigIndex::create(&dir, built, log_config).unwrap();
        oracle.ingest_batch(all[0].clone()).unwrap();
        durable.ingest(all[0].clone()).unwrap();

        let (wal, parked) = (shard_wal_dir(&dir, 1), dir.join("shard-1-wal-parked"));
        fs::rename(&wal, &parked).unwrap();
        let (epochs, failed_id) = (durable.index().epochs(), durable.next_batch_id());
        assert!(durable.ingest(all[1].clone()).is_err(), "shard 1 cannot rotate");
        assert_eq!(durable.index().epochs(), epochs, "a failed ingest mutates no shard");
        assert_eq!(durable.next_batch_id(), failed_id + 1, "the failed id is burned");

        oracle.ingest_batch(shard_0_only.clone()).unwrap();
        durable.ingest(shard_0_only).unwrap();
        drop(durable);
        fs::rename(&parked, &wal).unwrap();

        let (recovered, report) = DurableShardedMinSigIndex::open(&dir, log_config).unwrap();
        assert_eq!(report.batches_replayed, 2);
        assert_eq!(report.uncommitted_discarded, 1, "shard 0's orphan of the failed batch");
        assert_eq!(recovered.index().num_entities(), oracle.num_entities());
        let measure = w.measure();
        for query in [0u64, 9, 31] {
            let (a, _) = recovered.index().top_k(EntityId(query), 5, &measure).unwrap();
            let (b, _) = oracle.top_k(EntityId(query), 5, &measure).unwrap();
            assert_equivalent_answers(&a, &b, &format!("after a failed ingest, query {query}"));
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_log_behind_checkpoint_is_corrupt() {
        let w = workload();
        let dir = temp_dir("stale");
        let built = one_shard(&w, IndexConfig::default());
        let mut durable = DurableShardedMinSigIndex::create(&dir, built, no_fsync()).unwrap();
        for batch in batches(&w, 2) {
            durable.ingest(batch).unwrap();
        }
        durable.checkpoint().unwrap();
        durable.ingest(batches(&w, 3).remove(2)).unwrap();
        durable.checkpoint().unwrap();
        drop(durable);

        // Fabricate a gap: the shard log's first retained record now sits
        // well beyond the checkpoint's LSN, so the records in between are
        // gone.  Recovery must refuse, not silently lose data.
        let wal = shard_wal_dir(&dir, 0);
        fs::remove_dir_all(&wal).unwrap();
        let (mut log, _) = LogManager::open(&wal, 100, no_fsync()).unwrap();
        log.append(&encode_sub_batch(9, &[])).unwrap();
        drop(log);
        assert!(matches!(
            DurableShardedMinSigIndex::open(&dir, no_fsync()),
            Err(IndexError::Corrupt(_))
        ));
        fs::remove_dir_all(&dir).unwrap();
    }
}
