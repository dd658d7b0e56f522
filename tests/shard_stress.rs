//! Concurrency stress for the sharded index: N reader threads query a
//! `ShardedMinSigIndex` while batches flush per shard.  Readers must never
//! observe a torn cross-shard epoch set (every observed epoch vector is one
//! the flusher actually published), and every answer must match the
//! brute-force oracle evaluated over the *same* snapshot — i.e. every answer
//! is consistent with some published version of the index.
//!
//! The moderate variant runs in the tier-1 suite; the heavy variant is
//! `#[ignore]`d and runs in CI's dedicated release stress job
//! (`cargo test --release -- --ignored`).

use digital_traces::index::testkit::{
    assert_equivalent_answers, ChaoticReplacer, StreamConfig, UniformConfig, Workload,
};
use digital_traces::index::{
    DurableShardedMinSigIndex, IndexConfig, IngestBuffer, JoinOptions, ShardedMinSigIndex,
};
use digital_traces::storage::LogConfig;
use digital_traces::storage::{
    BufferPool, PagedTraceStore, PoolConfig, PoolStats, ReplacerPolicy, PAGE_SIZE,
};
use digital_traces::{EntityId, QueryStats};
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex, RwLock};

fn run_stress(entities: u64, shards: usize, readers: usize, flushes: u64, records: usize) {
    let w = Workload::uniform(UniformConfig {
        entities,
        visits: 5,
        seed: 42,
        ..UniformConfig::default()
    });
    let measure = w.measure();
    let index =
        ShardedMinSigIndex::build(&w.sp, &w.traces, IndexConfig::with_hash_functions(16), shards)
            .unwrap();

    // Every epoch vector the flusher has made reachable.  A new vector is
    // inserted while the write lock is still held, so any vector a reader can
    // capture is already in this set — observing one that is *not* would mean
    // a torn (partially flushed) cross-shard state escaped.
    let published: Mutex<HashSet<Vec<u64>>> = Mutex::new(HashSet::from([index.epochs()]));
    let lock = RwLock::new(index);
    let stop = AtomicBool::new(false);
    // Readers that have completed at least one full check; the flusher keeps
    // the race alive until everyone has, so no reader can exit unexercised on
    // a loaded machine.
    let ready = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for reader in 0..readers {
            let (lock, published, stop, measure) = (&lock, &published, &stop, &measure);
            let ready = &ready;
            scope.spawn(move || {
                let mut iterations = 0u64;
                while !stop.load(Ordering::Acquire) {
                    // Capture a cross-shard snapshot under the read lock, then
                    // query it lock-free.
                    let snapshot = lock.read().unwrap().snapshot();
                    let epochs = snapshot.epochs().to_vec();
                    assert!(
                        published.lock().unwrap().contains(&epochs),
                        "reader {reader} observed a torn epoch set {epochs:?}"
                    );
                    let query = EntityId((reader as u64 + iterations) % entities);
                    let (got, _) = snapshot.top_k(query, 3, measure).unwrap();
                    let oracle = snapshot.brute_force(query, 3, measure).unwrap();
                    assert_equivalent_answers(
                        &got,
                        &oracle,
                        &format!("reader {reader} answer vs its snapshot's oracle"),
                    );
                    if iterations == 0 {
                        ready.fetch_add(1, Ordering::AcqRel);
                    }
                    iterations += 1;
                }
                assert!(iterations > 0, "reader {reader} never ran");
            });
        }

        // The flusher: one routed ingest batch per iteration, each advancing
        // only the touched shards' epochs.
        for flush in 0..flushes {
            let records = w.stream(StreamConfig {
                records,
                existing_entities: entities,
                new_entity_base: 10_000 + flush * 100,
                new_entity_span: 8,
                start_tick: 20_000 + flush * 1_000,
                seed: flush,
                ..StreamConfig::default()
            });
            let mut buffer: IngestBuffer = records.into_iter().collect();
            let mut guard = lock.write().unwrap();
            let report = buffer.flush_sharded(&mut guard).unwrap();
            assert!(report.shards_touched >= 1);
            // Publish the new vector BEFORE releasing the write lock: no
            // reader can capture a vector that is not yet in the set.
            published.lock().unwrap().insert(guard.epochs());
            drop(guard);
            std::thread::yield_now();
        }
        // Keep the final state readable until every reader has exercised at
        // least one full snapshot-and-check cycle, then stop them.
        while ready.load(Ordering::Acquire) < readers {
            std::thread::yield_now();
        }
        stop.store(true, Ordering::Release);
    });

    // The flusher published one distinct vector per flush plus the initial one.
    assert_eq!(published.lock().unwrap().len() as u64, flushes + 1);
    let final_epochs = lock.read().unwrap().epochs();
    assert_eq!(final_epochs.len(), shards);
    assert!(final_epochs.iter().sum::<u64>() >= flushes, "every flush advanced some shard");
}

#[test]
fn readers_race_per_shard_flushes_without_torn_epochs() {
    run_stress(24, 4, 4, 8, 60);
}

/// The heavy variant for the CI release stress job: more shards, more
/// readers, more flushes, bigger batches.
#[test]
#[ignore = "heavy stress; run with cargo test --release -- --ignored"]
fn heavy_readers_race_per_shard_flushes_without_torn_epochs() {
    run_stress(200, 8, 8, 40, 500);
}

/// The out-of-core variant: N readers drive **paged** sharded queries — every
/// candidate's rows read through one shared tight [`BufferPool`] — while the
/// flusher keeps publishing new epochs.  Every answer must match the
/// brute-force oracle of the *same* snapshot bit-for-bit, and when the dust
/// settles no frame may be left pinned (the "no torn pins" invariant).
///
/// The stream is configured to touch **only new entities**, with a disjoint
/// id range per flush, so a trace store built up-front over the base
/// population plus every future batch agrees record-for-record with whatever
/// prefix of flushes a captured snapshot has indexed.
///
/// [`BufferPool`]: digital_traces::storage::BufferPool
fn run_paged_stress(
    entities: u64,
    shards: usize,
    readers: usize,
    flushes: u64,
    records: usize,
    pool_pages: usize,
    policy: ReplacerPolicy,
) {
    let w = Workload::uniform(UniformConfig {
        entities,
        visits: 5,
        seed: 42,
        ..UniformConfig::default()
    });
    let measure = w.measure();
    let index =
        ShardedMinSigIndex::build(&w.sp, &w.traces, IndexConfig::with_hash_functions(16), shards)
            .unwrap();

    // Pre-generate every flush's batch, and a store that already holds the
    // base traces plus all of them: new-entity-only streams with disjoint id
    // ranges mean any snapshot's indexed traces are a subset of the store's,
    // record-for-record.
    let batches: Vec<Vec<_>> = (0..flushes)
        .map(|flush| {
            w.stream(StreamConfig {
                records,
                new_entity_percent: 100,
                new_entity_base: 10_000 + flush * 100,
                new_entity_span: 8,
                start_tick: 20_000 + flush * 1_000,
                seed: flush,
                ..StreamConfig::default()
            })
        })
        .collect();
    let mut all_traces = w.traces.clone();
    for record in batches.iter().flatten() {
        all_traces.record(*record);
    }
    let store = PagedTraceStore::build(&all_traces, 4);
    let pool = store.pool(
        PoolConfig { capacity_bytes: pool_pages * PAGE_SIZE, ..PoolConfig::default() }
            .with_replacer(policy),
    );

    let lock = RwLock::new(index);
    let stop = AtomicBool::new(false);
    let ready = AtomicUsize::new(0);
    let batches = Mutex::new(batches);

    std::thread::scope(|scope| {
        for reader in 0..readers {
            let (lock, stop, measure, store, pool) = (&lock, &stop, &measure, &store, &pool);
            let ready = &ready;
            scope.spawn(move || {
                let mut iterations = 0u64;
                while !stop.load(Ordering::Acquire) {
                    let snapshot = lock.read().unwrap().snapshot();
                    let paged = snapshot.paged(store, pool);
                    // Base entities exist in every published snapshot.
                    let query = EntityId((reader as u64 + iterations) % entities);
                    let (got, stats) = paged.top_k(query, 3, measure).unwrap();
                    let oracle = snapshot.brute_force(query, 3, measure).unwrap();
                    assert_equivalent_answers(
                        &got,
                        &oracle,
                        &format!("paged reader {reader} answer vs its snapshot's oracle"),
                    );
                    // A candidate the resident postings or level-1 row rule
                    // out is scored without a read, so one query may read
                    // nothing; every one scores through the pool's source.
                    assert!(
                        stats.pool_hits + stats.pool_misses + stats.reads_avoided as u64 > 0,
                        "paged reader {reader} scored nothing through its source"
                    );
                    if iterations == 0 {
                        ready.fetch_add(1, Ordering::AcqRel);
                    }
                    iterations += 1;
                }
                assert!(iterations > 0, "paged reader {reader} never ran");
            });
        }

        for _ in 0..flushes {
            let batch = batches.lock().unwrap().remove(0);
            let mut buffer: IngestBuffer = batch.into_iter().collect();
            let mut guard = lock.write().unwrap();
            let report = buffer.flush_sharded(&mut guard).unwrap();
            assert!(report.shards_touched >= 1);
            drop(guard);
            std::thread::yield_now();
        }
        while ready.load(Ordering::Acquire) < readers {
            std::thread::yield_now();
        }
        stop.store(true, Ordering::Release);
    });

    // No torn pins: every query that finished released everything it held.
    assert_eq!(pool.pinned_frames(), 0, "a reader leaked a pin");
    let io = pool.stats();
    assert!(io.misses > 0, "a tight pool under racing readers must miss");
}

/// The durable-ingest variant: the flusher drives a
/// [`DurableShardedMinSigIndex`] — every batch WAL-logged and committed
/// before any shard flushes, with a checkpoint dropped mid-run — while N
/// readers keep checking the no-torn-epochs and oracle-equality invariants.
/// When the dust settles the process "crashes" (drops without a final
/// checkpoint) and the recovered index must answer every probe exactly like
/// the live one did.
fn run_durable_stress(entities: u64, shards: usize, readers: usize, flushes: u64, records: usize) {
    let w = Workload::uniform(UniformConfig {
        entities,
        visits: 5,
        seed: 42,
        ..UniformConfig::default()
    });
    let measure = w.measure();
    let dir = std::env::temp_dir()
        .join(format!("durable-stress-{}-{entities}-{shards}-{flushes}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let built =
        ShardedMinSigIndex::build(&w.sp, &w.traces, IndexConfig::with_hash_functions(16), shards)
            .unwrap();
    let log_config = LogConfig { fsync: false, ..LogConfig::default() };
    let durable = DurableShardedMinSigIndex::create(&dir, built, log_config).unwrap();

    let published: Mutex<HashSet<Vec<u64>>> = Mutex::new(HashSet::from([durable.index().epochs()]));
    let lock = RwLock::new(durable);
    let stop = AtomicBool::new(false);
    let ready = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for reader in 0..readers {
            let (lock, published, stop, measure) = (&lock, &published, &stop, &measure);
            let ready = &ready;
            scope.spawn(move || {
                let mut iterations = 0u64;
                while !stop.load(Ordering::Acquire) {
                    let snapshot = lock.read().unwrap().index().snapshot();
                    let epochs = snapshot.epochs().to_vec();
                    assert!(
                        published.lock().unwrap().contains(&epochs),
                        "durable reader {reader} observed a torn epoch set {epochs:?}"
                    );
                    let query = EntityId((reader as u64 + iterations) % entities);
                    let (got, _) = snapshot.top_k(query, 3, measure).unwrap();
                    let oracle = snapshot.brute_force(query, 3, measure).unwrap();
                    assert_equivalent_answers(
                        &got,
                        &oracle,
                        &format!("durable reader {reader} answer vs its snapshot's oracle"),
                    );
                    if iterations == 0 {
                        ready.fetch_add(1, Ordering::AcqRel);
                    }
                    iterations += 1;
                }
                assert!(iterations > 0, "durable reader {reader} never ran");
            });
        }

        for flush in 0..flushes {
            let records = w.stream(StreamConfig {
                records,
                existing_entities: entities,
                new_entity_base: 10_000 + flush * 100,
                new_entity_span: 8,
                start_tick: 20_000 + flush * 1_000,
                seed: flush,
                ..StreamConfig::default()
            });
            let mut guard = lock.write().unwrap();
            let report = guard.ingest(records).unwrap();
            assert!(report.shards_touched >= 1);
            // Exercise a checkpoint under reader load mid-run: it truncates
            // the logs but must not perturb what readers observe.
            if flush == flushes / 2 {
                guard.checkpoint().unwrap();
            }
            published.lock().unwrap().insert(guard.index().epochs());
            drop(guard);
            std::thread::yield_now();
        }
        while ready.load(Ordering::Acquire) < readers {
            std::thread::yield_now();
        }
        stop.store(true, Ordering::Release);
    });

    assert_eq!(published.lock().unwrap().len() as u64, flushes + 1);

    // Crash (no final checkpoint) and recover: the reopened index must agree
    // with the live one on every probe.
    let live = lock.into_inner().unwrap();
    let live_snapshot = live.index().snapshot();
    drop(live);
    let (recovered, report) = DurableShardedMinSigIndex::open(&dir, log_config).unwrap();
    assert!(report.batches_replayed >= 1, "post-checkpoint flushes must replay, got {report:?}");
    assert_eq!(report.uncommitted_discarded, 0);
    assert_eq!(recovered.index().num_entities(), live_snapshot.num_entities());
    for query in 0..entities {
        let query = EntityId(query);
        let (got, _) = recovered.index().top_k(query, 3, &measure).unwrap();
        let (want, _) = live_snapshot.top_k(query, 3, &measure).unwrap();
        assert_equivalent_answers(
            &got,
            &want,
            &format!("recovered vs live answer for entity {}", query.raw()),
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn durable_readers_race_logged_flushes_and_recover_after_crash() {
    run_durable_stress(24, 4, 4, 8, 60);
}

/// The heavy durable variant for the CI release stress job.
#[test]
#[ignore = "heavy stress; run with cargo test --release -- --ignored"]
fn heavy_durable_readers_race_logged_flushes_and_recover_after_crash() {
    run_durable_stress(120, 8, 8, 24, 300);
}

#[test]
fn paged_readers_race_flushes_and_release_every_pin() {
    run_paged_stress(24, 4, 4, 6, 60, 2, ReplacerPolicy::default());
}

/// The heavy out-of-core variant for the CI release stress job: more of
/// everything, plain LRU (no scan resistance) and a single-frame pool so
/// every reader fights for the same slot.
#[test]
#[ignore = "heavy stress; run with cargo test --release -- --ignored"]
fn heavy_paged_readers_race_flushes_and_release_every_pin() {
    run_paged_stress(120, 8, 8, 24, 300, 1, ReplacerPolicy::lru());
}

/// Every paged entry point at once on ONE pool: `threads` clients each run
/// `top_k`, `top_k_batch` and `top_k_join` against the same snapshot, store
/// and pool — from a single frame up to a tenth of the data, under LRU-2
/// and the chaotic replacer.  Every answer must be bitwise the
/// in-memory one, no pin may outlive its query, and — because a query
/// counts its own fetches instead of differencing the pool's totals — the
/// clients' per-query pool counters must sum exactly to what the pool saw.
fn run_shared_pool_stress(entities: u64, shards: usize, threads: usize, rounds: usize) {
    let w = Workload::uniform(UniformConfig {
        entities,
        visits: 8,
        time_slots: 48,
        seed: 11,
        ..UniformConfig::default()
    });
    let measure = w.measure();
    let index =
        ShardedMinSigIndex::build(&w.sp, &w.traces, IndexConfig::with_hash_functions(16), shards)
            .unwrap();
    let snapshot = index.snapshot();
    let store = PagedTraceStore::build(&w.traces, 4);
    let tenth = (store.data_bytes() / 10 / PAGE_SIZE).max(2);
    assert!(store.data_bytes() >= 10 * tenth * PAGE_SIZE, "the data must dwarf the pool");

    const K: usize = 4;
    let join = JoinOptions { k: K, threads: 2, ..JoinOptions::default() };
    // Per client: one single query, one batch, one probe list — and the
    // in-memory answers they must reproduce.
    let plans: Vec<_> = (0..threads as u64)
        .map(|t| {
            let picks = w.sample_entities(6, 0xA11 + t);
            let (single, batch, probes) = (picks[0], picks[1..4].to_vec(), picks[4..].to_vec());
            let oracle = |q: EntityId| snapshot.top_k(q, K, &measure).unwrap().0;
            let expect: Vec<_> = picks.iter().map(|&q| oracle(q)).collect();
            (single, batch, probes, expect)
        })
        .collect();

    let pools: Vec<(String, BufferPool<'_>)> = [1, tenth]
        .into_iter()
        .flat_map(|pages| {
            let config = PoolConfig { capacity_bytes: pages * PAGE_SIZE, ..PoolConfig::default() };
            let store = &store;
            [
                (format!("lru2/{pages}"), store.pool(config)),
                (
                    format!("chaotic/{pages}"),
                    BufferPool::with_replacer(
                        store.disk(),
                        config,
                        Box::new(ChaoticReplacer::new(pages as u64)),
                    ),
                ),
            ]
        })
        .collect();

    for (name, pool) in &pools {
        let paged = snapshot.paged(&store, pool);
        let barrier = Barrier::new(threads);
        let counted: Vec<PoolStats> = std::thread::scope(|scope| {
            let handles: Vec<_> = plans
                .iter()
                .map(|(single, batch, probes, expect)| {
                    let (paged, barrier, measure) = (&paged, &barrier, &measure);
                    scope.spawn(move || {
                        let mut io = PoolStats::default();
                        let mut count = |stats: &QueryStats| {
                            io += PoolStats {
                                hits: stats.pool_hits,
                                misses: stats.pool_misses,
                                evictions: stats.pool_evictions,
                                simulated_us: stats.simulated_io_us,
                            };
                        };
                        barrier.wait();
                        for round in 0..rounds {
                            let context = format!("{name}, round {round}");
                            let (got, stats) = paged.top_k(*single, K, measure).unwrap();
                            assert_equivalent_answers(&got, &expect[0], &context);
                            count(&stats);
                            let answers = paged.top_k_batch(batch, K, measure).unwrap();
                            for ((got, stats), want) in answers.iter().zip(&expect[1..4]) {
                                assert_equivalent_answers(got, want, &context);
                                count(stats);
                            }
                            let (rows, _) = paged.top_k_join(probes, measure, join).unwrap();
                            assert_eq!(rows.len(), probes.len(), "{context}");
                            for (row, want) in rows.iter().zip(&expect[4..]) {
                                assert_equivalent_answers(&row.matches, want, &context);
                                count(&row.stats);
                            }
                        }
                        io
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("client panicked")).collect()
        });
        assert_eq!(pool.pinned_frames(), 0, "{name}: a query leaked a pin");
        let mut summed = PoolStats::default();
        for io in counted {
            assert!(io.hits + io.misses > 0, "{name}: a client did no pool I/O");
            summed += io;
        }
        assert_eq!(summed, pool.stats(), "{name}: per-query counters must sum to the pool's");
        assert!(summed.evictions > 0, "{name}: a pool this tight must evict");
    }
}

#[test]
fn paged_clients_share_one_pool_bitwise_with_exact_io_attribution() {
    run_shared_pool_stress(800, 4, 4, 2);
}

/// The heavy shared-pool variant for the CI release stress job.
#[test]
#[ignore = "heavy stress; run with cargo test --release -- --ignored"]
fn heavy_paged_clients_share_one_pool_bitwise_with_exact_io_attribution() {
    run_shared_pool_stress(2_000, 8, 8, 6);
}
