//! Crash-recovery conformance for the durable ingest path: a write-ahead log
//! cut at **every byte prefix** (a crash mid-append) or damaged by bit flips
//! must recover exactly the committed batch prefix, bit-identically to an
//! index that applied those batches and never crashed; a sharded batch whose
//! commit record never hit the commit log must vanish on every shard.  The
//! single-log cases run a one-shard index: its shard WAL is cut or flipped
//! under an intact commit log.
//!
//! "Bit-identically" is literal: the recovered snapshot's serialised bytes
//! are compared against the never-crashed oracle's, not just its answers.

use digital_traces::index::durable::{commit_wal_dir, shard_wal_dir, DurableShardedMinSigIndex};
use digital_traces::index::testkit::{
    assert_equivalent_answers, PairedConfig, StreamConfig, UniformConfig, Workload,
};
use digital_traces::index::{durable, IndexConfig, ShardedMinSigIndex};
use digital_traces::storage::{LogConfig, LogManager};
use digital_traces::{EntityId, PresenceInstance};
use proptest::prelude::*;
use std::fs;
use std::path::{Path, PathBuf};

fn no_fsync() -> LogConfig {
    LogConfig { fsync: false, ..LogConfig::default() }
}

fn workload() -> Workload {
    Workload::paired(PairedConfig { pairs: 12, ..PairedConfig::default() })
}

fn batch(w: &Workload, i: u64, records: usize) -> Vec<PresenceInstance> {
    w.stream(StreamConfig {
        records,
        existing_entities: 24,
        new_entity_base: 1_000 + i * 10,
        new_entity_span: 4,
        new_entity_percent: 25,
        start_tick: 10_000 + i * 1_000,
        seed: 7 + i,
        ..StreamConfig::default()
    })
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wal-recovery-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// A one-shard sharded index: the unsharded case of the durable path.
fn one_shard(w: &Workload, config: IndexConfig) -> ShardedMinSigIndex {
    ShardedMinSigIndex::build(&w.sp, &w.traces, config, 1).unwrap()
}

/// A durable one-shard index that ingested `batches`, plus the length of its
/// shard WAL at which each batch's sub-batch became durable.
fn one_shard_durable(
    dir: &Path,
    w: &Workload,
    config: IndexConfig,
    batches: &[Vec<PresenceInstance>],
) -> (DurableShardedMinSigIndex, Vec<u64>) {
    let mut durable =
        DurableShardedMinSigIndex::create(dir, one_shard(w, config), no_fsync()).unwrap();
    let mut ends = Vec::new();
    for b in batches {
        durable.ingest(b.clone()).unwrap();
        ends.push(durable.shard_log(0).disk_bytes());
    }
    (durable, ends)
}

/// oracles[j] = never-crashed one-shard index that applied exactly batches[..j].
fn one_shard_oracles(
    w: &Workload,
    config: IndexConfig,
    batches: &[Vec<PresenceInstance>],
) -> Vec<ShardedMinSigIndex> {
    (0..=batches.len())
        .map(|j| {
            let mut index = one_shard(w, config);
            for b in &batches[..j] {
                index.ingest_batch(b.clone()).unwrap();
            }
            index
        })
        .collect()
}

/// Per-shard serialised bytes of a sharded index — the bitwise oracle.
fn sharded_bytes(index: &ShardedMinSigIndex) -> Vec<Vec<u8>> {
    let snapshot = index.snapshot();
    (0..index.num_shards()).map(|s| snapshot.shard(s).to_bytes().unwrap()).collect()
}

/// Replaces the WAL directory's single segment file with `bytes`.
fn rewrite_wal(dir: &Path, bytes: &[u8]) {
    let _ = fs::remove_dir_all(dir);
    fs::create_dir_all(dir).unwrap();
    fs::write(dir.join("wal-00000000.log"), bytes).unwrap();
}

/// A crash can cut a shard's WAL at **any** byte.  Whatever the cut,
/// recovery must yield exactly the batches whose final fsync'd byte made it,
/// and the recovered index must serialise bit-identically to a never-crashed
/// index that applied exactly those batches.
#[test]
fn every_wal_byte_prefix_recovers_the_committed_batch_prefix() {
    let w = workload();
    let config = IndexConfig::with_hash_functions(16);
    let dir = temp_dir("prefix");
    let batches: Vec<Vec<PresenceInstance>> = (0..3).map(|i| batch(&w, i, 5)).collect();
    let (durable, ends) = one_shard_durable(&dir, &w, config, &batches);
    drop(durable);
    let wal = shard_wal_dir(&dir, 0);
    let full = fs::read(wal.join("wal-00000000.log")).unwrap();

    let oracles = one_shard_oracles(&w, config, &batches);
    let oracle_bytes: Vec<Vec<Vec<u8>>> = oracles.iter().map(sharded_bytes).collect();

    let measure = w.measure();
    for cut in 0..=full.len() {
        rewrite_wal(&wal, &full[..cut]);
        let (recovered, report) = DurableShardedMinSigIndex::open(&dir, no_fsync()).unwrap();
        let expect = ends.iter().filter(|&&e| e <= cut as u64).count();
        assert_eq!(report.batches_replayed, expect, "cut at byte {cut} of {}", full.len());
        assert_eq!(
            sharded_bytes(recovered.index()),
            oracle_bytes[expect],
            "cut at byte {cut}: recovered index is not bit-identical to the oracle"
        );
        let (a, _) = recovered.index().top_k(EntityId(0), 3, &measure).unwrap();
        let (b, _) = oracles[expect].top_k(EntityId(0), 3, &measure).unwrap();
        assert_equivalent_answers(&a, &b, &format!("cut at byte {cut}"));
    }
    fs::remove_dir_all(&dir).unwrap();
}

/// A flipped bit anywhere in a shard's WAL ends the recovered prefix at the
/// record it lands in — and the result is still bit-identical to the
/// corresponding never-crashed oracle, never a corrupted index.
#[test]
fn wal_bit_flips_recover_a_clean_batch_prefix() {
    let w = workload();
    let config = IndexConfig::with_hash_functions(16);
    let dir = temp_dir("flip");
    let batches: Vec<Vec<PresenceInstance>> = (0..3).map(|i| batch(&w, i, 5)).collect();
    let (durable, ends) = one_shard_durable(&dir, &w, config, &batches);
    drop(durable);
    let wal = shard_wal_dir(&dir, 0);
    let full = fs::read(wal.join("wal-00000000.log")).unwrap();

    let oracle_bytes: Vec<Vec<Vec<u8>>> =
        one_shard_oracles(&w, config, &batches).iter().map(sharded_bytes).collect();

    // One flipped bit per byte (rotating which) covers every byte of every
    // record without 8×ing the runtime.
    const FILE_HEADER_LEN: usize = 16;
    for byte in FILE_HEADER_LEN..full.len() {
        let mut damaged = full.clone();
        damaged[byte] ^= 1 << (byte % 8);
        rewrite_wal(&wal, &damaged);
        let (recovered, report) = DurableShardedMinSigIndex::open(&dir, no_fsync()).unwrap();
        // The flip lands inside record `hit`; everything before it survives.
        let hit = ends.iter().filter(|&&e| e <= byte as u64).count();
        assert_eq!(report.batches_replayed, hit, "flip at byte {byte} went undetected");
        assert_eq!(
            sharded_bytes(recovered.index()),
            oracle_bytes[hit],
            "flip at byte {byte}: recovered index diverged from the oracle"
        );
    }
    fs::remove_dir_all(&dir).unwrap();
}

/// Sharded: the commit log is the atomicity pivot.  Cut it at every byte —
/// batches whose commit record survives replay on **all** their shards,
/// batches whose commit record was torn vanish from **all** their shards,
/// even though every sub-batch still sits in the per-shard WALs.
#[test]
fn every_commit_log_prefix_keeps_batches_atomic_across_shards() {
    let w = workload();
    let config = IndexConfig::with_hash_functions(16);
    let shards = 2;
    let dir = temp_dir("commit-prefix");
    let built = ShardedMinSigIndex::build(&w.sp, &w.traces, config, shards).unwrap();
    let mut durable = DurableShardedMinSigIndex::create(&dir, built, no_fsync()).unwrap();
    let batches: Vec<Vec<PresenceInstance>> = (0..3).map(|i| batch(&w, i, 6)).collect();
    let mut ends = Vec::new(); // commit-log length at which each batch committed
    for b in &batches {
        durable.ingest(b.clone()).unwrap();
        ends.push(durable.commit_log().disk_bytes());
    }
    drop(durable);
    let full = fs::read(commit_wal_dir(&dir).join("wal-00000000.log")).unwrap();

    // Shards each batch touches (= sub-batches recovery must discard when
    // that batch's commit record is lost).
    let touched: Vec<usize> = batches
        .iter()
        .map(|b| {
            let mut seen = vec![false; shards];
            for r in b {
                seen[digital_traces::index::shard_of(r.entity, shards)] = true;
            }
            seen.iter().filter(|&&s| s).count()
        })
        .collect();

    let oracle_bytes: Vec<Vec<Vec<u8>>> = (0..=batches.len())
        .map(|j| {
            let mut index = ShardedMinSigIndex::build(&w.sp, &w.traces, config, shards).unwrap();
            for b in &batches[..j] {
                index.ingest_batch(b.clone()).unwrap();
            }
            sharded_bytes(&index)
        })
        .collect();

    for cut in 0..=full.len() {
        rewrite_wal(&commit_wal_dir(&dir), &full[..cut]);
        let (recovered, report) = DurableShardedMinSigIndex::open(&dir, no_fsync()).unwrap();
        let expect = ends.iter().filter(|&&e| e <= cut as u64).count();
        assert_eq!(report.batches_replayed, expect, "commit log cut at byte {cut}");
        assert_eq!(
            report.uncommitted_discarded,
            touched[expect..].iter().sum::<usize>(),
            "commit log cut at byte {cut}: wrong number of discarded sub-batches"
        );
        assert_eq!(
            recovered.next_batch_id(),
            batches.len() as u64 + 1,
            "ids seen in shard logs must stay burned even when uncommitted"
        );
        assert_eq!(
            sharded_bytes(recovered.index()),
            oracle_bytes[expect],
            "commit log cut at byte {cut}: some shard diverged from the oracle"
        );
    }
    fs::remove_dir_all(&dir).unwrap();
}

/// A crash between two shards' WAL appends leaves a sub-batch with no commit
/// record.  Recovery discards it, its id is never reused, and after the next
/// checkpoint it is physically gone — it can never resurface.
#[test]
fn crash_between_shard_appends_discards_the_torn_batch_forever() {
    let w = workload();
    let config = IndexConfig::with_hash_functions(16);
    let dir = temp_dir("torn-batch");
    let built = ShardedMinSigIndex::build(&w.sp, &w.traces, config, 2).unwrap();
    let mut durable = DurableShardedMinSigIndex::create(&dir, built, no_fsync()).unwrap();
    durable.ingest(batch(&w, 0, 6)).unwrap();
    let orphan_id = durable.next_batch_id();
    drop(durable);

    // Oracle: only the committed batch was ever applied.
    let mut oracle = ShardedMinSigIndex::build(&w.sp, &w.traces, config, 2).unwrap();
    oracle.ingest_batch(batch(&w, 0, 6)).unwrap();

    // The crash: shard 0's WAL gets the sub-batch, the commit log does not.
    let torn = batch(&w, 1, 6);
    let (mut log, _) = LogManager::open(&shard_wal_dir(&dir, 0), 0, no_fsync()).unwrap();
    log.append(&durable::encode_sub_batch(orphan_id, &torn)).unwrap();
    drop(log);

    let (mut recovered, report) = DurableShardedMinSigIndex::open(&dir, no_fsync()).unwrap();
    assert_eq!(report.batches_replayed, 1);
    assert_eq!(report.uncommitted_discarded, 1);
    assert_eq!(sharded_bytes(recovered.index()), sharded_bytes(&oracle));
    assert_eq!(recovered.next_batch_id(), orphan_id + 1, "the orphaned id is burned");

    // Life goes on: ingest, checkpoint (retires the orphan with the logs),
    // reopen — the torn batch stays gone.
    recovered.ingest(batch(&w, 2, 6)).unwrap();
    oracle.ingest_batch(batch(&w, 2, 6)).unwrap();
    recovered.checkpoint().unwrap();
    drop(recovered);
    let (recovered, report) = DurableShardedMinSigIndex::open(&dir, no_fsync()).unwrap();
    assert_eq!(report, durable::RecoveryReport::default());
    let measure = w.measure();
    for query in [0u64, 5, 11] {
        let (a, _) = recovered.index().top_k(EntityId(query), 3, &measure).unwrap();
        let (b, _) = oracle.top_k(EntityId(query), 3, &measure).unwrap();
        assert_equivalent_answers(&a, &b, &format!("after checkpoint, query {query}"));
    }
    fs::remove_dir_all(&dir).unwrap();
}

/// Checkpoint/ingest cycles: every generation truncates the log, stamps the
/// checkpoint with its LSN, and a crash in any generation replays only that
/// generation's batches.
#[test]
fn checkpoint_cycles_replay_only_their_own_generation() {
    let w = workload();
    let config = IndexConfig::with_hash_functions(16);
    let dir = temp_dir("cycles");
    let mut oracle = one_shard(&w, config);
    let mut durable =
        DurableShardedMinSigIndex::create(&dir, one_shard(&w, config), no_fsync()).unwrap();
    for generation in 0..4u64 {
        for i in 0..2u64 {
            let b = batch(&w, generation * 10 + i, 5);
            durable.ingest(b.clone()).unwrap();
            oracle.ingest_batch(b).unwrap();
        }
        durable.checkpoint().unwrap();
        assert_eq!(
            (durable.shard_log(0).first_lsn(), durable.commit_log().first_lsn()),
            (None, None),
            "generation {generation} left log records"
        );
    }
    // One last un-checkpointed batch, then a crash.
    let tail = batch(&w, 99, 5);
    durable.ingest(tail.clone()).unwrap();
    oracle.ingest_batch(tail).unwrap();
    drop(durable);

    let (recovered, report) = DurableShardedMinSigIndex::open(&dir, no_fsync()).unwrap();
    assert_eq!(report.batches_replayed, 1, "checkpoints cover the earlier generations");
    assert_eq!(sharded_bytes(recovered.index()), sharded_bytes(&oracle));
    let measure = w.measure();
    for query in [0u64, 5, 11] {
        let (a, _) = recovered.index().top_k(EntityId(query), 3, &measure).unwrap();
        let (b, _) = oracle.top_k(EntityId(query), 3, &measure).unwrap();
        assert_equivalent_answers(&a, &b, &format!("after 4 generations, query {query}"));
    }
    fs::remove_dir_all(&dir).unwrap();
}

/// A commit writes the batch, never the index: the same 256-record batch
/// grows the logs of a 1 000-entity and of a 4 000-entity index by the
/// identical number of bytes.
#[test]
fn commit_appends_bytes_proportional_to_the_batch_not_the_population() {
    const SHARDS: usize = 4;
    let log_bytes = |durable: &DurableShardedMinSigIndex| {
        (0..SHARDS).map(|s| durable.shard_log(s).disk_bytes()).sum::<u64>()
            + durable.commit_log().disk_bytes()
    };
    let growth = [1_000u64, 4_000].map(|entities| {
        let w = Workload::uniform(UniformConfig { entities, visits: 5, ..Default::default() });
        // Addressed to ids both populations hold, over the hierarchy both share.
        let records = w.stream(StreamConfig {
            records: 256,
            existing_entities: 1_000,
            new_entity_base: 10_000,
            ..StreamConfig::default()
        });
        let dir = temp_dir(&format!("commit-bytes-{entities}"));
        let config = IndexConfig::with_hash_functions(8);
        let built = ShardedMinSigIndex::build(&w.sp, &w.traces, config, SHARDS).unwrap();
        assert_eq!(built.num_entities() as u64, entities);
        let mut durable = DurableShardedMinSigIndex::create(&dir, built, no_fsync()).unwrap();
        let before = log_bytes(&durable);
        durable.ingest(records.clone()).unwrap();
        let grown = log_bytes(&durable) - before;
        drop(durable);
        fs::remove_dir_all(&dir).unwrap();
        (records, grown)
    });
    assert_eq!(growth[0].0, growth[1].0, "both indexes must ingest the same batch");
    assert!(growth[0].1 > 0, "the batch must reach the logs");
    assert_eq!(growth[0].1, growth[1].1, "commit bytes tracked the population");
}

/// An arbitrary-workload property: whatever the batches and wherever the
/// crash cuts the WAL, recovery produces a bit-identical prefix oracle.
fn workload_strategy() -> impl Strategy<Value = Vec<(u64, u64, u64)>> {
    // (entity 0..24 or new, start slot, duration slots)
    proptest::collection::vec((0u64..30, 0u64..48, 1u64..4), 6..36)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn any_workload_any_cut_recovers_bit_identically(
        items in workload_strategy(),
        cut_seed in 0u64..1_000_000,
    ) {
        let w = workload();
        let base = w.sp.base_units().to_vec();
        let records: Vec<PresenceInstance> = items
            .iter()
            .map(|&(entity, slot, span)| {
                PresenceInstance::new(
                    EntityId(entity),
                    base[(entity * 7 + slot) as usize % base.len()],
                    digital_traces::Period::new(slot * 60, (slot + span) * 60).unwrap(),
                )
            })
            .collect();
        let batches: Vec<Vec<PresenceInstance>> =
            records.chunks(records.len().div_ceil(3)).map(<[_]>::to_vec).collect();

        let config = IndexConfig::with_hash_functions(8);
        let dir = temp_dir(&format!("prop-{}-{cut_seed}", items.len()));
        let (durable, ends) = one_shard_durable(&dir, &w, config, &batches);
        drop(durable);
        let wal = shard_wal_dir(&dir, 0);
        let full = fs::read(wal.join("wal-00000000.log")).unwrap();
        let cut = (cut_seed % (full.len() as u64 + 1)) as usize;

        rewrite_wal(&wal, &full[..cut]);
        let (recovered, report) = DurableShardedMinSigIndex::open(&dir, no_fsync()).unwrap();
        let expect = ends.iter().filter(|&&e| e <= cut as u64).count();
        prop_assert_eq!(report.batches_replayed, expect);

        let mut oracle = one_shard(&w, config);
        for b in &batches[..expect] {
            oracle.ingest_batch(b.clone()).unwrap();
        }
        prop_assert_eq!(sharded_bytes(recovered.index()), sharded_bytes(&oracle));
        fs::remove_dir_all(&dir).unwrap();
    }
}
