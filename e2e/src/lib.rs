//! # The repository's one end-to-end benchmark
//!
//! Every performance or simplicity claim about the MinSigTree engine is
//! measured with this package: four named workloads, a handful of gated
//! end-to-end metrics, ~60 per-layer metrics from a traced run, and oracles
//! that check every answer.  It judges the system black-box — from outside
//! its public calls — and claims no gain itself.
//!
//! It is a package of its own (`e2e/`, its own `[workspace]`) so that the
//! repository's manifests stay untouched and the driver can build it alone
//! from a bare checkout; `BENCHMARK.json` at the repository root names the
//! command, the workloads, the metrics and their bounds.
//!
//! ## Running it
//!
//! ```text
//! cargo run --release --manifest-path e2e/Cargo.toml --bin e2e -- \
//!     --workload mem_syn --seed 1 [--seconds 20] [--trace 0|1] [--smoke] [--out runs.jsonl]
//! cargo run --release --manifest-path e2e/Cargo.toml --bin e2e -- --list
//! cargo run --release --manifest-path e2e/Cargo.toml --bin bench-diff -- base.jsonl new.jsonl
//! cargo test --manifest-path e2e/Cargo.toml        # harness units + all four workloads, --smoke
//! ```
//!
//! A run prints every metric it measured by name with its unit and sample
//! count, then — as the last line — one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end set with `--trace 0`,
//! the per-layer set with `--trace 1`.  It exits non-zero when any op failed.
//! `--trace 1` also writes its spans to `e2e/out/trace-<workload>-<seed>.jsonl`
//! (one object per span: `id`, `parent`, `op`, `name`, `start_ns`, `end_ns`)
//! and prints count, total and self time per span name.  `--out` appends the
//! run's full record (metrics with sample counts, inputs digest, git SHA,
//! `nproc`, CPU features) as one JSON line; `bench-diff` turns one or two such
//! files into the per-workload table (median, quartiles, ratio with its base,
//! `unresolved` when the spread exceeds the bound) that CHANGES.md entries
//! must quote.  [`e2e/baseline/`](#the-first-numbers) holds the first ones.
//!
//! ## Workloads
//!
//! `k = 10`, `nh = 32`, `PaperAdm::default_for(levels)` everywhere; default
//! cargo features (no `simd`); fsync **on** (`LogConfig::default()`).
//!
//! | name | population and engine | op stream (full counts) | why |
//! |---|---|---|---|
//! | `mem_syn` | `mobility::SynDataset`, default IM parameters, 7 days, 5 000 entities, co-movers 0.2; `ShardedMinSigIndex` × 4 | 2 048 single `top_k` cycling through 128 distinct query entities, then 8 × `top_k_batch` of 64 | the paper's own population: pruning does almost nothing (every entity is checked), so the degree kernels do nearly all the work and plan / merge / spawn almost none |
//! | `mem_skewed` | `testkit::Workload::pruning_adversarial` {8 shards, 64 hot, 4 936 cold, 8 steps}; × 8 shards | 480 000 single `top_k` over the 64 hot ids round-robin, then 400 × `top_k_batch` of 64 | 7 of 8 shards skipped, ~190 entities checked: planning, tree expansion and per-query fixed costs dominate, the kernels do little — the mirror image |
//! | `paged_syn` | the `mem_syn` index through `ShardedSnapshot::paged` over `PagedTraceStore::build(traces, 8)`, pool = 10 % of the data, LRU-2 | 256 single `top_k` cycling through 32 of `mem_syn`'s queries | the working set is 10× the pool: pool, replacer, store and row materialisation dominate; in-memory vs out-of-core, like for like |
//! | `durable_rw` | `DurableShardedMinSigIndex::create` over the `mem_syn` index | five repetitions, each on a fixture set up from scratch, of 8 rounds of 16 batches × 256 records (8 new entities per batch): batches 0–7 of a round with no reader, 8–15 with the previous snapshot held across `ingest` and 2 `top_k` on the new one (64 of `mem_syn`'s queries in turn); `checkpoint()` closes each round.  The last repetition runs one more round without a checkpoint; then drop the handle, append a torn half-record to one shard's newest WAL segment, `open` 5 times | the same layers used the other way round — writes beside reads — so a read-path gain that taxes publish, or a write-path gain that chills the first reads, shows up here |
//!
//! **Op counts are fixed, not timed**, so counters repeat exactly: the "full"
//! counts above are what 40 s of measuring take on the reference sandbox, and
//! `--seconds S` scales them by `S / 40` ([`workloads::FULL_SECONDS`]);
//! `BENCHMARK.json` asks for `S = 20`.  A traced run replays a quarter of
//! that (`durable_rw`: in one repetition), `--smoke` 1/50 of the full counts.
//! Populations and the sets of distinct queries never scale.  A phase that
//! overruns 3 × `S` is cut short and the run says so.
//!
//! One client thread, closed loop: the next op is issued when the previous
//! one has returned and been checked.  The engine's own fan-out may use every
//! core (`nproc` = 2 on the reference sandbox, where `rayon` is the in-tree
//! stub that spawns a scoped thread per `join` / `par_iter` call).
//!
//! The SYN workloads' query entities sit at evenly spaced ranks of the
//! population ordered by trace length (a systematic sample, shuffled by the
//! seed).  A query scores every entity against its own trace, so its cost
//! follows its trace length (r = 0.93; latencies spread 34 % around their
//! mean): a plain random sample of 64 queries would put ±5 % of seed-to-seed
//! sampling error on a run's median before any machine noise; a systematic
//! one removes the part trace length explains (r² = 0.87) and still weighs
//! every entity alike.
//!
//! ## Identical repeats and quiet latencies
//!
//! The sandbox is two vCPUs of a shared host, and its neighbours are the
//! largest term in any timing taken on it.  Measured with this benchmark:
//!
//! * a `mem_skewed` query repeated 2 500 times in 10 s reads 55 µs while the
//!   neighbours are idle and 61–63 µs while they are not; the slow mode comes
//!   and goes on every time scale from a tenth of a second to minutes and
//!   covered anything from 60 % to all of a run;
//! * for stretches of two to ten minutes everything runs 1.2–1.9× slower
//!   still (one such stretch passed through the acceptance runs below);
//! * over three back-to-back runs of one seed the *median* over all repeats
//!   moved 3 %, their 10th percentile 0.5 %, their *fastest* 0.2 %.
//!
//! Interference only ever adds time.  So every timed op is given identical
//! repeats — the read workloads cycle through a fixed set of distinct
//! queries (8 repeats each on `mem_syn`, 3 750 on `mem_skewed`, 4 on
//! `paged_syn` at `S = 20`), `durable_rw` runs its whole stream five times on
//! five fixtures built from scratch, and every run sets up five times or more,
//! spread over the run (a read workload three or more times before its
//! measured phases and as often after them: a neighbour's burst of one to
//! three seconds slows a set-up 1.5×, and sixteen 50 ms set-ups in a row sat
//! inside one more than once) — and what an op costs is read off its
//! **fastest repeat**
//! ([`harness::Quiet`]): its *quiet latency*.  The gated timings are built
//! from those; the same figures over all repeats, disturbed or not, are
//! printed beside them (`query_qps`, `query_all_p50_us`,
//! `ingest_records_per_s`, `setup_all_p50_s`), and `noise.excess_share` says
//! how much slower than quiet the median repeat ran.
//!
//! How much that buys, measured.  Under a synthetic neighbour (a process
//! spinning on one of the two cores in random bursts of about a second, half
//! the time) the raw `mem_syn` figures spread 13–14 % over ten seeds and their
//! medians sat 16–23 % from a quiet set's; the quiet figures spread 5–7 % and
//! sat 0.3 % away.  The fastest set-up moved −6 … +10 % on the four
//! workloads, the median set-up +10 … +33 %.  In a natural slow stretch that
//! covered seven of ten `mem_skewed` runs the raw figures spread 39–64 % and
//! the quiet ones 14–15 %.  What the fastest repeat cannot see through is a
//! stretch with no quiet moment in a whole run: the floor itself then sits
//! 12–30 % higher, which is why the bounds below are not tighter.
//!
//! One workload can also be *helped* by a busy neighbour inside the sandbox:
//! `paged_syn` answers in 75 ms pinned to one core and in 120–140 ms on two
//! (see the findings), so a process that takes a core away for a query's
//! length makes that repeat the fastest.  Nothing else runs beside the
//! benchmark under the driver; measure it on an otherwise idle sandbox.
//!
//! ## End-to-end metrics (gated, measured with tracing off)
//!
//! The driver requires every gated metric on every workload and never zero,
//! so the gated set is the part of the issue's fourteen that all four
//! workloads share; the rest keep their names in the per-layer list.
//!
//! | metric | unit | better | bound | what |
//! |---|---|---|---|---|
//! | `ops_per_s` | 1/s | higher | 25 % | what one closed-loop client gets at quiet latencies.  Read workloads: distinct queries ÷ Σ of their quiet latencies (the issue's `query_qps`, which stays in the per-layer list as measured over all repeats).  `durable_rw`: acknowledged records ÷ Σ of the quiet latencies of one repetition's ingests, queries and checkpoints. |
//! | `query_p50_us` | µs | lower | 25 % | median over the distinct single `top_k` calls of their quiet latency (on `durable_rw`: each on the snapshot just published) |
//! | `heap_bytes_per_entity` | B | lower | 20 % | live heap after the bulk build − before it (counting `#[global_allocator]`, inputs excluded) ÷ entities |
//! | `setup_s` | s | lower | 25 % | input generation + bulk build + store / durable-directory creation, from scratch; the fastest of the run's ≥ 5 set-ups |
//!
//! **Why the bounds are this wide.**  The issue asked for 10 % (1 % on bytes).
//! Quiet latencies took the neighbours' bursts out of the numbers, not their
//! long stretches: between two sets of ten runs the floor itself drifts by up
//! to 8 % on a good hour and 11–15 % on a noisy one or when one set meets a
//! slow stretch, a set's own spread reaches 13 % then, and the driver wants
//! each spread under a third of its bound, hence 25 %.  `heap_bytes_per_entity` repeats exactly
//! for a seed but moves with the seed — not with the population, whose size
//! is steady within 1 %, but with where each large `Vec`'s doubling happened
//! to stop: 6–10 % between the quartiles of ten seeds, 14 % end to end — hence
//! 20 %.  A change is judged on medians of ten runs, which are three times
//! steadier than one run; `bench-diff` says `unresolved` where they are not
//! steady enough.
//!
//! `setup_s` is the *fastest* set-up where the builder's contract suggests the
//! median of several: the median of 31 `mem_skewed` set-ups in a row read
//! 0.069 s in the slow stretch and 0.051 s after it (+36 %, past any bound the
//! contract allows), and `durable_rw`'s median of three drifted 27 % between
//! the driver's own two sets.  Work moved into set-up raises every set-up, the
//! fastest included; the median is still printed, as `setup_all_p50_s`.
//!
//! `query_tail_us` — single `top_k` latency at the highest of
//! p50/p75/p90/p95/p99 that still has ≥ 10 samples beyond it (at `S = 20`: p99
//! of 1 024 on `mem_syn`, p99 of 240 000 on `mem_skewed`, p90 of 128 on
//! `paged_syn`, p95 of 320 on `durable_rw`; the run prints rung and count) — is
//! the neighbours' figure more than the program's.  By the issue's own rule a
//! timing that unsteady is not given a wider bound: it is reported in the
//! per-layer list under the same name.
//!
//! `failed_share` (ops that returned `Err`, mismatched an oracle, leaked a
//! pin or lost an acknowledged batch ÷ ops attempted) has bound 0: it is the
//! `failed` / `attempted` pair of the JSON line and the exit code, not a
//! gated number.
//!
//! ## Per-layer metrics (traced run; layer = module name; never gated)
//!
//! | metric | timed call / counter | should move | on | ≈ no move on |
//! |---|---|---|---|---|
//! | `kernel.ns_per_intersection`, `kernel.mean_len` | `trace_model::kernel::intersection_len` replayed over query × every 8th candidate's level slices from `CandidateArena::level_cells` | `query_p50_us`, `ops_per_s` | `mem_syn` | `mem_skewed`, `durable_rw` |
//! | `kernel.dispatch_{tiny,merge,gallop,simd}` | `QueryStats::kernel_dispatch`, per query | explains the row above | `mem_syn` | — |
//! | `arena.ns_per_degree` | `CandidateArena::scan_top_k` over each shard ÷ entities scored | `query_p50_us`, `batch_qps` | `mem_syn` | `mem_skewed` |
//! | `arena.build_ms`, `synopsis.compute_ms` | `CandidateArena::build` + `NodeArena::build`, `Synopsis::compute`, summed over shards | `commit_p50_ms`, `ops_per_s` | `durable_rw` | `mem_*`, `paged_syn` |
//! | `engine.checked_share`, `engine.nodes_visited`, `engine.subtrees_pruned`, `engine.steps`, `engine.bound_updates` | `QueryStats` sums ÷ queries (`checked_share` = `entities_checked` ÷ population: the paper's 1 − PE; it exceeds 1 where the planner's seed candidates are scored on top of a full sweep) | `ops_per_s` — the largest lever in the repo | `mem_syn`, `paged_syn` | `mem_skewed` (already 0.04) |
//! | `engine.shard_topk_us`, `engine.shard_checked` | `IndexSnapshot::top_k_for_sequence` on each admitted shard alone (private bound, so the count is exact) | `query_p50_us` | `mem_skewed` | — |
//! | `plan.explain_us`, `plan.planning_us`, `plan.shards_skipped`, `plan.seeded_share`, `plan.batch_us_per_query` | `ShardedSnapshot::explain`, `plan_batch`(64), `QueryStats::{planning_us, shards_skipped, threshold_seeded}` | `query_p50_us`, `batch_qps` | `mem_skewed` | `mem_syn` (≈ 2 %), `paged_syn` |
//! | `shard.merge_us`, `rayon.join_noop_us` | `engine::merge_top_k` on the per-shard answers; `rayon::join` of two empty closures (the spawn-per-call cost) | `query_tail_us`, `batch_qps` | `mem_syn` (4 shards admitted) | `mem_skewed` (1 shard admitted, no spawn) |
//! | `pool.hit_rate`, `pool.misses_per_query`, `pool.evictions_per_query`, `pool.read_amplification` (misses ÷ store pages), `pool.simulated_io_us_per_query` | `PoolStats::since` around each query (exact with one client) | `query_p50_us`, `ops_per_s` | `paged_syn` | all others (0) |
//! | `pool.get_hit_ns`, `pool.get_miss_ns`, `store.read_trace_us` | `BufferPool::get` on resident / non-resident pages, `PagedTraceStore::read_trace` | `query_p50_us` | `paged_syn` | — |
//! | `paged.full_pool_p50_us` | the same queries at a 100 % pool (decode cost with ~0 misses) | `query_p50_us` | `paged_syn` | — |
//! | `ingest.flush_ms`, `ingest.flush_pinned_ms`, `ingest.entities_touched` | `ShardedMinSigIndex::ingest_batch` of the same batches on the in-memory oracle index, without / with a held snapshot; `ShardedIngestReport` | `commit_p50_ms`, `commit_p95_ms`, `ops_per_s` | `durable_rw` | `mem_*` |
//! | `log.append_fsync_us`, `log.append_nosync_us`, `log.bytes_per_user_byte`, `durable.encode_us` | `LogManager::append` of the same payloads on scratch logs in the same directory with `fsync` on / off; `LogManager::disk_bytes` of the real logs at the crash; `encode_sub_batch` | `commit_p50_ms` | `durable_rw` | — |
//! | `persist.to_bytes_ms`, `persist.write_ms`, `persist.open_ms`, `persist.checkpoint_bytes` | `IndexSnapshot::to_bytes`, `segment::atomic_write_bytes`, `ShardedMinSigIndex::open` | `checkpoint_ms`, `recover_ms`, `disk_bytes_per_user_byte` | `durable_rw` | — |
//! | `durable.replay_records_per_s` | `RecoveryReport::records_replayed` ÷ (`recover_ms` − `persist.open_ms`) | `recover_ms` | `durable_rw` | — |
//! | `build.entities_per_s`, `signature.hash_evals_per_entity`, `setup_all_p50_s` | `ShardedMinSigIndex::build`, `IndexStats::hash_evaluations`; the median over the run's set-ups | `setup_s` | all | — |
//! | `heap.peak_bytes`, `arena.resident_bytes` | counting-allocator high-water mark over the measured phase; `IndexSnapshot::resident_bytes` (the program's estimate, beside the measured one) | `heap_bytes_per_entity` | `mem_*`; peak on `durable_rw`'s pinned batches | — |
//! | `noise.qps_spread`, `noise.excess_share` | (max − min) ÷ median of the rates of 5 equal consecutive slices of the measured phase; median over all repeats of latency ÷ the op's quiet latency, − 1 | the run's own noise, printed with every run | all | — |
//! | `trace.coverage`, `trace.overhead_share` | Σ replayed layer spans ÷ op span over the replayed ops; (traced − untraced `query_p50_us`) ÷ untraced | sanity of the table itself | all | — |
//! | `query_qps`, `query_all_p50_us`, `batch_qps`, `query_tail_us`, `query_p95_us`, `query_p99_us` | the issue's read metrics over every issued op, disturbed or not: singles ÷ wall of the singles phase, percentiles of all singles (one the sample count does not support reads 0) | — | `mem_*`, `paged_syn` | — |
//! | `ingest_records_per_s`, `commit_p50_ms`, `commit_p95_ms`, `checkpoint_ms`, `recover_ms`, `disk_bytes_per_user_byte`, `failed_share` | the issue's write metrics: acknowledged records ÷ Σ `ingest` wall; one `ingest` call = one sample; median `checkpoint()`; median of 5 `open`s incl. replay; bytes under the index directory after the last checkpoint ÷ 28 B × records held (bulk + acknowledged) | — | `durable_rw` | — |
//!
//! A metric that does not apply to a workload reads 0 there.
//!
//! ## Expectations, written down before measuring
//!
//! * With one closed-loop client a faster layer saves at most its share of
//!   the op: the kernels are ≈ all of `mem_syn` and ≈ none of `mem_skewed`;
//!   planning is the reverse.
//! * `commit ≈ (shards_touched + 1) × log.append_fsync_us + ingest.flush_ms`,
//!   and a held snapshot adds one full copy-on-write clone of every touched
//!   shard (`ingest.flush_pinned_ms − ingest.flush_ms`).
//! * Sharded work counters under a `SharedBound` (`engine.bound_updates`, and
//!   through it `kernel.dispatch_*`) may vary with thread interleaving on two
//!   cores: compare their spread, not single runs.  Single-shard
//!   (`engine.shard_checked`), pool (`pool.misses_per_query`) and WAL-byte
//!   (`log.bytes_per_user_byte`) counts must repeat exactly for a seed.
//!   *Measured:* the single-shard, WAL, checkpoint and disk counts do
//!   (`tests/contract.rs` holds them to it); the pool counts do **not** — the
//!   fan-out's two worker threads share the pool, which of them touches a
//!   page first decides what LRU-2 evicts, and `pool.misses_per_query` wanders
//!   by ~0.4 % (5 005–5 025) between runs of one seed.
//!
//! ## The traced run
//!
//! `--trace 1` first runs a quarter of the op stream untraced (the reference
//! for `trace.overhead_share`), then the same quarter with a root span per op
//! — taken from the sample already measured, so tracing adds no clock read to
//! an op — and, under every 8th op, a `replay` span whose children are the
//! layer calls on the same inputs: `plan.explain` → `engine.shard_topk` per
//! admitted shard → `shard.merge`; `arena.scan`; `kernel.intersect`; for
//! writes `durable.encode` → `log.append` → `ingest.flush`; for checkpoints
//! `persist.to_bytes` → `persist.write`.  (`durable_rw` cannot run its
//! stream twice, so its even rounds are the reference and its odd rounds the
//! replayed ones.)  Spans stay in memory and are written when the run ends;
//! a layer's self time is its span minus the part its children cover.
//! Because a replay is not the real cooperative drive, `trace.coverage`
//! outside 0.75–1.25 is printed as a finding, not gated.
//!
//! ## Oracles (outside the timed regions; they feed `failed`)
//!
//! * In memory: the first 64 distinct query entities bitwise (`entity`,
//!   `degree.to_bits()`) against `brute_force`; every repeat of a query, single
//!   or batched, against its first answer.
//! * `paged_syn`: every answer against the in-memory answer, and
//!   `pinned_frames() == 0` after every query.
//! * `durable_rw`: every `top_k` of the last repetition against a
//!   never-crashed in-memory index fed the same acknowledged batches, and
//!   every repetition's against the first's; every `open` must replay exactly
//!   the 16 un-checkpointed batches and discard the torn tail; after recovery
//!   each shard's `to_bytes()` must be identical to that never-crashed
//!   index's.
//!
//! The crash is **process-level**: the handle is dropped and the log is torn
//! by hand.  The sandbox cannot drop the operating system's cache, so nothing
//! unflushed is discarded beyond that tail, and every latency — fsync
//! included — is the sandbox's, not a device's.
//!
//! ## Seed discipline
//!
//! `--seed` drives the population generator, the query sample and every
//! ingest batch; nothing else reaches the program.  Each run prints an
//! `inputs_digest` (FNV-1a over every generated record and query id): same
//! seed, same digest and same exact counters; different seed, different
//! digest.
//!
//! ## What the first runs found
//!
//! *Pruning does nothing on the paper's own population.*  On `mem_syn`
//! `engine.checked_share` is 1.01 and `engine.subtrees_pruned` 0: every query
//! scores all 4 999 other entities plus the planner's 64 seed candidates,
//! ≈ 10 ms a query, ≈ 100 queries/s.  On `mem_skewed` — the population every
//! earlier gated bench queried — the share is 0.038 (190 entities), 7 of 8
//! shards are skipped, and a query takes ≈ 56 µs, ≈ 17 700 queries/s, of which
//! planning (`plan.explain_us` ≈ 26 µs) is nearly half.  The two workloads
//! differ 180× in latency on the same 5 000 entities; no earlier number in
//! CHANGES.md says which one it describes.
//!
//! *Out of core is compute-bound here, and slower on two cores than on one.*
//! Pinned to one core (`taskset -c 0`) `paged_syn` answers in 75 ms (13.4
//! queries/s); with both cores it takes 120–140 ms (7–8.3/s).  The fan-out's
//! two workers share one pool and one row cache behind mutexes — the likely
//! place, but where the time goes is for a traced change to show, not this
//! one.  On two cores `paged_syn` answers in ≈ 121 ms
//! against ≈ 10 ms in memory; with the whole store resident
//! (`paged.full_pool_p50_us`) it takes as long, so the 5 000 misses a
//! query (`pool.read_amplification` ≈ 7.4 store-fulls) cost little and row
//! materialisation nearly everything.  The replayed `store.read_trace` +
//! `paged.rows` account for about half the op (`trace.coverage` ≈ 0.51): the
//! paged source's own bookkeeping is a layer the public surface cannot
//! isolate.
//!
//! *A held snapshot doubles the publish.*  `ingest.flush_ms` ≈ 10 ms without
//! a reader, `ingest.flush_pinned_ms` ≈ 22 ms with one; the fsync'd appends
//! (`log.append_fsync_us` ≈ 0.19 ms each) are noise beside either.
//!
//! *The measuring device must not be a layer.*  Counting allocations with two
//! shared atomics per call slowed a `mem_syn` query by 43 % (two threads
//! contending on one cache line); [`harness::CountingAlloc`] therefore
//! batches per thread.
//!
//! ## The first numbers
//!
//! `e2e/baseline/` holds the run records of the acceptance runs (each line
//! carries the git SHA of the checkout — the parent of the commit that added
//! the benchmark, whose tree was not yet committed — `nproc` and CPU
//! features): `untraced-a.jsonl` and `untraced-b.jsonl`, two sets of ten
//! seeds × four workloads taken back to back at `S = 20`, and `traced.jsonl`,
//! three seeds traced.  `bench-diff e2e/baseline/untraced-a.jsonl` prints
//! medians and quartiles; `bench-diff e2e/baseline/untraced-a.jsonl new.jsonl`
//! the table against a later commit (measure the parent again on the day,
//! alternating with the change: the sandbox drifts).
//!
//! Set A (median [q1 .. q3] of ten seeds, spread; then set B's median against
//! set A's):
//!
//! | workload | `ops_per_s` | `query_p50_us` | `heap_bytes_per_entity` | `setup_s` |
//! |---|---|---|---|---|
//! | `mem_syn` | 95.96 [88.75 .. 97.21], 8.8 %; B −0.8 % | 10 764 [10 618 .. 11 726], 10.3 %; B +0.4 % | 11 928 [11 487 .. 12 034], 4.6 % | 1.057 [1.049 .. 1.126], 7.3 %; B +0.6 % |
//! | `mem_skewed` | 17 546 [15 892 .. 18 015], 12.1 %; B −6.3 % | 56.86 [55.40 .. 62.69], 12.8 %; B +6.8 % | 2 624 [2 623 .. 2 624], 0.0 % | 0.0505 [0.0484 .. 0.0514], 5.9 %; B +5.0 % |
//! | `paged_syn` | 8.248 [8.034 .. 8.533], 6.1 %; B −3.9 % | 122 779 [118 312 .. 124 581], 5.1 %; B +4.3 % | 11 928, as `mem_syn` | 1.074 [1.037 .. 1.109], 6.7 %; B +6.7 % |
//! | `durable_rw` | 6 959 [6 808 .. 7 200], 5.6 %; B +10.3 % | 16 079 [15 175 .. 16 592], 8.8 %; B −11.0 % | 11 928, as `mem_syn` | 1.152 [1.128 .. 1.166], 3.3 %; B −0.2 % |
//!
//! Set B's own spreads are 2.2–11.3 %.  It was a noisy hour — over the same
//! runs the all-repeats figures ranged 25–33 % end to end on `mem_syn`, and
//! `mem_skewed`'s median set-up drifted 21 % between the sets where its
//! fastest drifted 5 % — and the quieter hour before it read (`mem_skewed`
//! then with two thirds of the repeats): `mem_syn` 99.27 /s, 2.7 %;
//! `mem_skewed` 17 683 /s, 2.3 %;
//! `paged_syn` 8.255 /s, 5.2 %; `durable_rw` 8 199 records/s, 12.7 %, which
//! was one step of the floor mid-set, not scatter (six runs at 8 200–8 600,
//! then four at 7 300–7 900, `noise.excess_share` unchanged: the ingest's
//! copy-on-write clones make it the workload most sensitive to a neighbour's
//! memory traffic).  `mem_skewed`'s 12 % is its two floors: a run reads
//! 55–56 µs if the fast mode showed at all and 62–63 µs if it never did.  No
//! op failed in any of the 92 acceptance runs, nor in the 92 before them.
//!
//! The same figures over every repeat, disturbed or not (set A): `mem_syn`
//! `query_qps` 86.1, `query_all_p50_us` 11 867, the median repeat 7 % above its
//! query's fastest; `mem_skewed` 13 840 /s, 67.6 µs, 18 % above; `paged_syn`
//! 7.84 /s, 128 ms, 4 % above; `durable_rw` `ingest_records_per_s` 13 940,
//! queries 18.8 ms, ingests 7 % above.
//!
//! `durable_rw` besides: `commit_p50_ms` 20.5, `commit_p95_ms` 28.0,
//! `checkpoint_ms` 73.1, `recover_ms` 217 (a 111 ms checkpoint open plus 4 096
//! records replayed at ≈ 39 000 records/s), `disk_bytes_per_user_byte` 1.75,
//! `log.bytes_per_user_byte` 1.02.  They read lower than a single long stream
//! would: a repetition ingests 64 batches into an index of 5 000–5 500
//! entities, not hundreds into one that has doubled.
//!
//! The driver refused the first version of this benchmark — medians over all
//! ops, three set-ups a run, `S = 10` — because two sets of its runs disagreed:
//! `mem_syn`'s figures spread 19–30 % and `durable_rw`'s `setup_s` drifted 27 %.
//! That version's own acceptance runs had read 4–11 % on a quiet ten minutes
//! and 14–35 % on the ten minutes before, when the whole machine ran
//! 1.3–1.5× slower.  An attempt to cancel such stretches by timing a fixed
//! calibration kernel beside the ops and reporting ratios made things worse —
//! one stretch slowed `durable_rw`'s set-up by under 10 %, its queries by 10 %
//! and its ingests by 23 % at the same moment, so no one kernel stands for
//! them all — hence quiet latencies
//! from identical repeats, and numbers that stay what the clock said.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod catalogue;
pub mod harness;
pub mod json;
pub mod layers;
pub mod workloads;
