//! Every call into the index that is wider than the thin entry points.
//!
//! The op streams in [`crate::workloads`] use only `build`, `snapshot`,
//! `top_k`, `top_k_batch`, `paged`, `ingest` / `ingest_batch`, `checkpoint`
//! and `open` — the surface ROADMAP item 2 keeps.  Timing a *layer* from
//! outside means calling it directly, and checking an answer means calling an
//! oracle; both reach past that surface, and all of it lives here, so a
//! change that narrows the public API has one benchmark file to follow.
//!
//! Replays run **after** the op they explain, on the same inputs: a replayed
//! span is linked to the op's root span by parent id, not nested in its
//! interval.  The replay is not the real cooperative drive (per-shard
//! searches run alone under private bounds, appends go to a scratch log), so
//! `trace.coverage` says how much of the op the replayed layers account for.

use crate::harness::{Clock, Sample, SpanId, SpanRecorder};
use minsig::durable::{encode_commit, encode_sub_batch, shard_wal_dir};
use minsig::{
    engine, shard_of, CandidateArena, IndexError, KernelDispatch, NodeArena, PagedShardedSnapshot,
    PlannerConfig, QueryOptions, QueryView, ShardedMinSigIndex, ShardedSnapshot, SignatureList,
    Synopsis, TopKResult,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use trace_model::kernel::intersection_len;
use trace_model::{AssociationMeasure, EntityId, PresenceInstance};
use trace_storage::{
    segment, BufferPool, LogConfig, LogManager, PagedTraceStore, PoolConfig, PoolStats, PAGE_SIZE,
};

/// Every `KERNEL_STRIDE`-th arena row is a candidate of the kernel replay.
const KERNEL_STRIDE: usize = 8;

/// Serialised size of one presence record in a WAL payload (`durable`'s wire
/// format: entity u64, unit u32, start u64, end u64).
pub const RECORD_WIRE_BYTES: u64 = 28;

type Result<T> = std::result::Result<T, IndexError>;

// ---------------------------------------------------------------------------
// Oracles
// ---------------------------------------------------------------------------

/// The brute-force answer the in-memory workloads are checked against.
pub fn oracle_top_k<M: AssociationMeasure + ?Sized>(
    snapshot: &ShardedSnapshot,
    query: EntityId,
    k: usize,
    measure: &M,
) -> Result<Vec<TopKResult>> {
    snapshot.brute_force(query, k, measure)
}

/// Frames a query left pinned in `pool`; anything but 0 after a query is a leak.
pub fn pins_outstanding(pool: &BufferPool<'_>) -> usize {
    pool.pinned_frames()
}

/// Each shard's persisted image — what recovery must reproduce bit for bit.
pub fn shard_images(index: &ShardedMinSigIndex) -> Result<Vec<Vec<u8>>> {
    let snapshot = index.snapshot();
    (0..snapshot.num_shards()).map(|s| snapshot.shard(s).to_bytes()).collect()
}

/// Appends half a WAL record to the newest segment of `shard`'s log: a valid
/// header promising `2 × half` payload bytes, then only `half` of them — what
/// a process killed mid-append leaves behind.  Recovery must discard it.
pub fn tear_wal_tail(dir: &Path, shard: usize, half: usize) -> std::io::Result<PathBuf> {
    let newest = std::fs::read_dir(shard_wal_dir(dir, shard))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|path| path.extension().is_some_and(|ext| ext == "log"))
        .max()
        .ok_or_else(|| std::io::Error::other("the shard has no WAL segment"))?;
    let mut torn = Vec::with_capacity(16 + half);
    torn.extend_from_slice(&u64::MAX.to_le_bytes());
    torn.extend_from_slice(&((2 * half) as u32).to_le_bytes());
    torn.extend_from_slice(&0u32.to_le_bytes());
    torn.resize(16 + half, 0xAB);
    let mut file = std::fs::OpenOptions::new().append(true).open(&newest)?;
    file.write_all(&torn)?;
    file.sync_all()?;
    Ok(newest)
}

// ---------------------------------------------------------------------------
// Read path: plan → per-shard search → merge, and the kernels beneath
// ---------------------------------------------------------------------------

/// Counts one query replay produced beside its spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct QueryReplay {
    /// `entities_checked` summed over the admitted shards, each searched
    /// alone under a private bound — exact, unlike the cooperative count.
    pub shard_checked: usize,
    /// Entities scored by the flat `arena.scan` spans.
    pub scanned: usize,
    /// Intersections the `kernel.intersect` span computed.
    pub intersections: u64,
    /// Sum of `|a| + |b|` over them.
    pub intersection_lens: u64,
}

impl QueryReplay {
    /// Adds another replay's counts.
    pub fn absorb(&mut self, other: QueryReplay) {
        self.shard_checked += other.shard_checked;
        self.scanned += other.scanned;
        self.intersections += other.intersections;
        self.intersection_lens += other.intersection_lens;
    }
}

/// Replays the layers of one in-memory `top_k` under `root`:
/// `plan.explain` → `engine.shard_topk` per admitted shard → `shard.merge`
/// (the blocking path), then `arena.scan` per shard and `kernel.intersect`
/// (what the degree loop and the kernels beneath it cost on this query).
pub fn replay_query<M: AssociationMeasure + Sync + ?Sized>(
    recorder: &mut SpanRecorder,
    root: SpanId,
    snapshot: &ShardedSnapshot,
    query: EntityId,
    k: usize,
    measure: &M,
) -> Result<QueryReplay> {
    recorder.span("replay", Some(root), |recorder| {
        let mut replay = QueryReplay::default();
        let plan = recorder.span("plan.explain", None, |_| {
            snapshot.explain(query, k, measure, PlannerConfig::default())
        })?;
        let seq = snapshot.sequence(query).ok_or(IndexError::UnknownQueryEntity(query.raw()))?;
        let mut parts = Vec::new();
        for admitted in plan.admitted() {
            let shard = snapshot.shard(admitted.shard);
            let (answer, stats) = recorder.span("engine.shard_topk", None, |_| {
                shard.top_k_for_sequence(seq, Some(query), k, measure, QueryOptions::default())
            })?;
            replay.shard_checked += stats.entities_checked;
            parts.push(answer);
        }
        recorder.span("shard.merge", None, |_| black_box(engine::merge_top_k(k, parts)));

        let view = QueryView::new(seq);
        let mut dispatch = KernelDispatch::default();
        for s in 0..snapshot.num_shards() {
            let arena = snapshot.shard(s).arena();
            let (answer, scored) = recorder.span("arena.scan", None, |_| {
                arena.scan_top_k(&view, Some(query), k, measure, &mut dispatch)
            });
            black_box(answer);
            replay.scanned += scored;
        }
        recorder.span("kernel.intersect", None, |_| {
            for s in 0..snapshot.num_shards() {
                let arena = snapshot.shard(s).arena();
                for pos in (0..arena.len()).step_by(KERNEL_STRIDE) {
                    for level in 0..view.num_levels() {
                        let a = view.level(level);
                        let b = arena.level_cells((level + 1) as u8, pos);
                        black_box(intersection_len(black_box(a), black_box(b)));
                        replay.intersections += 1;
                        replay.intersection_lens += (a.len() + b.len()) as u64;
                    }
                }
            }
        });
        Ok(replay)
    })
}

/// Replays the layers of one out-of-core `top_k` under `root`:
/// `plan.explain` (page-aware) → per admitted shard `engine.shard_topk` (the
/// in-memory compute share) and, for each of its entities, `store.read_trace`
/// through the pool + `paged.rows` (trace → per-level cells) — the row
/// materialisation the paged source performs once per candidate.
pub fn replay_paged_query<M: AssociationMeasure + Sync + ?Sized>(
    recorder: &mut SpanRecorder,
    root: SpanId,
    paged: &PagedShardedSnapshot<'_>,
    query: EntityId,
    k: usize,
    measure: &M,
) -> Result<QueryReplay> {
    recorder.span("replay", Some(root), |recorder| {
        let mut replay = QueryReplay::default();
        let snapshot = paged.snapshot();
        let plan = recorder.span("plan.explain", None, |_| {
            paged.explain(query, k, measure, PlannerConfig::default())
        })?;
        let seq = snapshot.sequence(query).ok_or(IndexError::UnknownQueryEntity(query.raw()))?;
        for admitted in plan.admitted() {
            let shard = snapshot.shard(admitted.shard);
            let (answer, stats) = recorder.span("engine.shard_topk", None, |_| {
                shard.top_k_for_sequence(seq, Some(query), k, measure, QueryOptions::default())
            })?;
            black_box(answer);
            replay.shard_checked += stats.entities_checked;
            let (sp, ticks) = (shard.sp_index(), shard.ticks_per_unit());
            recorder.span("paged.materialize", None, |recorder| {
                for &entity in shard.arena().entities() {
                    let trace = recorder.span("store.read_trace", None, |_| {
                        paged.store().read_trace(paged.pool(), entity)
                    });
                    recorder.span("paged.rows", None, |_| {
                        black_box(trace.map(|t| t.cell_sequence(sp, ticks)));
                    });
                }
            });
        }
        Ok(replay)
    })
}

/// Wall of `plan_batch` over `queries`, per query, in microseconds.
pub fn plan_batch_us_per_query<M: AssociationMeasure + Sync + ?Sized>(
    snapshot: &ShardedSnapshot,
    queries: &[EntityId],
    k: usize,
    measure: &M,
) -> Result<f64> {
    let start = std::time::Instant::now();
    black_box(snapshot.plan_batch(queries, k, measure, PlannerConfig::default())?);
    Ok(start.elapsed().as_secs_f64() * 1e6 / queries.len().max(1) as f64)
}

/// Wall of one `rayon::join` of two empty closures, in microseconds: what
/// every parallel fan-out pays before doing any work.
pub fn rayon_join_noop_us() -> f64 {
    let start = std::time::Instant::now();
    black_box(rayon::join(|| black_box(()), || black_box(())));
    start.elapsed().as_secs_f64() * 1e6
}

// ---------------------------------------------------------------------------
// Publish path: what every ingest flush rebuilds
// ---------------------------------------------------------------------------

/// Milliseconds to rebuild, for every shard, the candidate + node arenas and
/// the synopsis — the per-publish work that scales with the index, not the
/// batch — `reps` times over.  Returns `(arena_build_ms, synopsis_compute_ms)`,
/// one sum over the shards per repetition.
pub fn rebuild_costs_ms(snapshot: &ShardedSnapshot, reps: usize) -> (Vec<f64>, Vec<f64>) {
    let (mut arena_ms, mut synopsis_ms) = (vec![0.0; reps], vec![0.0; reps]);
    for s in 0..snapshot.num_shards() {
        let shard = snapshot.shard(s);
        let levels = shard.tree().levels();
        let width = shard.config().num_hash_functions as usize;
        // The snapshot exposes signatures one entity at a time; gather the
        // map `build` takes before the clock starts.
        let signatures: BTreeMap<EntityId, SignatureList> = shard
            .sequences()
            .keys()
            .filter_map(|&e| shard.signature(e).map(|sig| (e, sig.clone())))
            .collect();
        for rep in 0..reps {
            let start = std::time::Instant::now();
            black_box(CandidateArena::build(levels, width, shard.sequences(), &signatures));
            black_box(NodeArena::build(shard.tree()));
            arena_ms[rep] += start.elapsed().as_secs_f64() * 1e3;

            let start = std::time::Instant::now();
            black_box(Synopsis::compute(
                levels,
                shard.sequences().iter().map(|(e, seq)| (*e, seq)),
                shard.synopsis().sketch_size(),
                shard.synopsis().epoch(),
            ));
            synopsis_ms[rep] += start.elapsed().as_secs_f64() * 1e3;
        }
    }
    (arena_ms, synopsis_ms)
}

/// The program's own estimate of its resident index bytes.
pub fn resident_bytes(snapshot: &ShardedSnapshot) -> usize {
    (0..snapshot.num_shards()).map(|s| snapshot.shard(s).resident_bytes()).sum()
}

/// Hash evaluations the bulk build spent, over all shards.
pub fn hash_evaluations(index: &ShardedMinSigIndex) -> u64 {
    (0..index.num_shards()).map(|s| index.shard(s).stats().hash_evaluations).sum()
}

// ---------------------------------------------------------------------------
// Buffer pool and store
// ---------------------------------------------------------------------------

/// Pool counter deltas around queries; exact with one client.
#[derive(Debug)]
pub struct PoolProbe<'p, 'd> {
    pool: &'p BufferPool<'d>,
    before: PoolStats,
    /// Sum of the deltas taken so far.
    pub total: PoolStats,
    /// Queries the deltas cover.
    pub queries: u64,
}

impl<'p, 'd> PoolProbe<'p, 'd> {
    /// A probe over `pool`.
    pub fn new(pool: &'p BufferPool<'d>) -> Self {
        PoolProbe { pool, before: pool.stats(), total: PoolStats::default(), queries: 0 }
    }

    /// Call right before a query.
    pub fn before_query(&mut self) {
        self.before = self.pool.stats();
    }

    /// Call right after it.
    pub fn after_query(&mut self) {
        let delta = self.pool.stats().since(&self.before);
        self.total.hits += delta.hits;
        self.total.misses += delta.misses;
        self.total.evictions += delta.evictions;
        self.total.simulated_us += delta.simulated_us;
        self.queries += 1;
    }
}

/// Median nanoseconds of `BufferPool::get` on a resident page and on a
/// non-resident one, over the first pages of `entities`' traces.  The miss
/// side cycles through more pages than a one-page pool can hold, so every
/// `get` reads the disk and evicts.  `(0, 0)` when the store is too small
/// to miss in.
pub fn pool_get_ns(store: &PagedTraceStore, entities: &[EntityId], probes: usize) -> (f64, f64) {
    let mut pages: Vec<_> = entities
        .iter()
        .filter_map(|&e| store.trace_pages(e))
        .flatten()
        .copied()
        .take(256)
        .collect();
    pages.sort_unstable();
    pages.dedup();
    if pages.len() < 2 {
        return (0.0, 0.0);
    }
    let median_get_ns = |pool: &BufferPool<'_>, page_of: &dyn Fn(usize) -> usize| {
        let mut ns: Vec<f64> = (0..probes)
            .map(|i| {
                let start = std::time::Instant::now();
                black_box(pool.get(pages[page_of(i)]));
                start.elapsed().as_nanos() as f64
            })
            .collect();
        ns.sort_by(f64::total_cmp);
        ns[ns.len() / 2]
    };
    let warm = store.pool(PoolConfig { capacity_bytes: 64 * PAGE_SIZE, ..PoolConfig::default() });
    black_box(warm.get(pages[0]));
    let hit = median_get_ns(&warm, &|_| 0);
    let cold = store.pool(PoolConfig { capacity_bytes: PAGE_SIZE, ..PoolConfig::default() });
    let miss = median_get_ns(&cold, &|i| i % pages.len());
    (hit, miss)
}

// ---------------------------------------------------------------------------
// Write path: encode → append → flush, checkpoint, open
// ---------------------------------------------------------------------------

/// Scratch logs beside the index (same directory, same filesystem) that the
/// write replays append the op's own payloads to.
#[derive(Debug)]
pub struct ScratchLogs {
    fsync: LogManager,
    nosync: LogManager,
    dirs: [PathBuf; 2],
    /// Wall of each fsync'd append.
    pub fsync_samples: Vec<Sample>,
    /// Wall of each un-synced append of the same payload.
    pub nosync_samples: Vec<Sample>,
}

impl ScratchLogs {
    /// Opens the two scratch logs under `dir`.
    pub fn open(dir: &Path) -> Result<ScratchLogs> {
        let dirs = [dir.join("scratch-wal-fsync"), dir.join("scratch-wal-nosync")];
        let (fsync, _) = LogManager::open(&dirs[0], 0, LogConfig::default())?;
        let (nosync, _) =
            LogManager::open(&dirs[1], 0, LogConfig { fsync: false, ..LogConfig::default() })?;
        Ok(ScratchLogs {
            fsync,
            nosync,
            dirs,
            fsync_samples: Vec::new(),
            nosync_samples: Vec::new(),
        })
    }

    /// Removes the scratch directories.
    pub fn remove(self) {
        let dirs = self.dirs.clone();
        drop(self);
        for dir in dirs {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// Replays the layers of one durable `ingest` under `root`, up to the flush:
/// `durable.encode` (the per-shard sub-batches) → one `log.append` per
/// touched shard plus the commit record, fsync on.  The same payloads then go
/// to the un-synced log outside any span, for `log.append_nosync_us`.
pub fn replay_commit(
    recorder: &mut SpanRecorder,
    root: SpanId,
    clock: &Clock,
    logs: &mut ScratchLogs,
    num_shards: usize,
    batch_id: u64,
    records: &[PresenceInstance],
) -> Result<()> {
    let payloads = recorder.span("replay", Some(root), |recorder| -> Result<Vec<Vec<u8>>> {
        let mut payloads = recorder.span("durable.encode", None, |_| {
            let mut per_shard: Vec<Vec<PresenceInstance>> = vec![Vec::new(); num_shards];
            for record in records {
                per_shard[shard_of(record.entity, num_shards)].push(*record);
            }
            per_shard
                .iter()
                .filter(|sub_batch| !sub_batch.is_empty())
                .map(|sub_batch| encode_sub_batch(batch_id, sub_batch))
                .collect::<Vec<_>>()
        });
        payloads.push(encode_commit(batch_id));
        for payload in &payloads {
            let start_ns = clock.now_ns();
            recorder.span("log.append", None, |_| logs.fsync.append(payload))?;
            logs.fsync_samples.push(Sample { start_ns, end_ns: clock.now_ns() });
        }
        Ok(payloads)
    })?;
    for payload in &payloads {
        let start_ns = clock.now_ns();
        logs.nosync.append(payload)?;
        logs.nosync_samples.push(Sample { start_ns, end_ns: clock.now_ns() });
    }
    Ok(())
}

/// Replays the layers of one `checkpoint` under `root`: `persist.to_bytes`
/// per shard → `persist.write` (fsync'd atomic rename) of each image into a
/// scratch directory beside the index.  Returns the images' total bytes.
pub fn replay_checkpoint(
    recorder: &mut SpanRecorder,
    root: SpanId,
    index: &ShardedMinSigIndex,
    dir: &Path,
) -> Result<u64> {
    let scratch = dir.join("scratch-checkpoint");
    std::fs::create_dir_all(&scratch).map_err(|e| IndexError::Io(e.to_string()))?;
    let snapshot = index.snapshot();
    let bytes = recorder.span("replay", Some(root), |recorder| -> Result<u64> {
        let mut bytes = 0;
        for s in 0..snapshot.num_shards() {
            let image =
                recorder.span("persist.to_bytes", None, |_| snapshot.shard(s).to_bytes())?;
            bytes += image.len() as u64;
            let path = scratch.join(ShardedMinSigIndex::shard_file_name(s));
            recorder.span("persist.write", None, |_| segment::atomic_write_bytes(&path, &image))?;
        }
        Ok(bytes)
    });
    let _ = std::fs::remove_dir_all(&scratch);
    bytes
}

/// Milliseconds to open the checkpoint in `dir` alone, no WAL replay.
pub fn checkpoint_open_ms(dir: &Path) -> Result<f64> {
    let start = std::time::Instant::now();
    black_box(ShardedMinSigIndex::open(dir)?);
    Ok(start.elapsed().as_secs_f64() * 1e3)
}

/// Bytes the durable index's logs hold on disk: every shard WAL plus the
/// commit log.
pub fn wal_disk_bytes(durable: &minsig::DurableShardedMinSigIndex) -> u64 {
    let shards = durable.index().num_shards();
    (0..shards).map(|s| durable.shard_log(s).disk_bytes()).sum::<u64>()
        + durable.commit_log().disk_bytes()
}
