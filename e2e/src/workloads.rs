//! The four workloads: inputs from the seed, the op streams, the oracles, and
//! the metrics each run reports.
//!
//! The op streams drive the index through its thin entry points only
//! (`build`, `snapshot`, `top_k`, `top_k_batch`, `paged`, `ingest`,
//! `checkpoint`, `open`); everything wider is in [`crate::layers`].  One
//! client, closed loop; the engine's own fan-out may use every core.
//!
//! **Op counts are fixed by `--seconds`, not by the clock**, so counters
//! repeat exactly: the counts below are what [`FULL_SECONDS`] of measuring
//! take on the reference 2-vCPU sandbox, and a run scales them by
//! `seconds / FULL_SECONDS` (a traced run by a further ¼, `--smoke` by 1/50
//! outright).  Populations never scale.
//!
//! **Every timed op has identical repeats.**  The read workloads cycle through
//! a fixed set of distinct queries; `durable_rw` runs its whole op stream
//! [`DURABLE_REPS`] times, each on a fixture set up from scratch.  The gated
//! timings are built from each op's *quiet* latency — its fastest repeat, see
//! [`Quiet`] — because the sandbox's neighbours only ever add time.

use crate::catalogue::{self, Workload};
use crate::harness::{
    closed_loop, heap_live, heap_peak, heap_reset_peak, median, Clock, Latency, Quiet, Report,
    Sample, SpanId, SpanRecorder, Throughput,
};
use crate::layers::{self, PoolProbe, QueryReplay, ScratchLogs, RECORD_WIRE_BYTES};
use minsig::testkit::{self, HierarchySpec, PruningAdversarialConfig, Rng64, StreamConfig};
use minsig::{
    DurableShardedMinSigIndex, IndexConfig, IndexError, PagedShardedSnapshot, QueryStats,
    ShardedMinSigIndex, ShardedSnapshot, TopKResult,
};
use mobility::{SynConfig, SynDataset};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use trace_model::{EntityId, PaperAdm, PresenceInstance, SpIndex, TraceSet};
use trace_storage::{BufferPool, LogConfig, PagedTraceStore, PoolConfig};

/// Result size of every query.
pub const K: usize = 10;
/// Hash functions per signature level.
pub const NH: u32 = 32;
/// Entities in every bulk-built population.
pub const ENTITIES: usize = 5_000;
/// `--seconds` at which the op counts equal the full counts below.
pub const FULL_SECONDS: f64 = 40.0;
/// Queries per `top_k_batch` call.
pub const BATCH_QUERIES: usize = 64;
/// Batches per `durable_rw` round: the first half with no reader, the second
/// with the previous snapshot held and two queries after each publish.
pub const ROUND_BATCHES: usize = 16;
/// Records per ingest batch; a quarter go to eight entities new to the index.
pub const BATCH_RECORDS: usize = 256;
/// `open` calls after the crash.
pub const RECOVERIES: usize = 5;
/// In a traced run every this-many-th op gets its layers replayed.
pub const REPLAY_EVERY: usize = 8;
/// Distinct queries per in-memory workload checked against brute force.
pub const ORACLE_QUERIES: usize = 64;

/// Distinct query entities of `mem_syn`; the other SYN workloads ask a subset.
pub const SYN_QUERIES: usize = 128;
/// Times `durable_rw` runs its op stream, each on a fixture of its own.
pub const DURABLE_REPS: usize = 5;
/// Set-ups a read workload times before its measured phases, and again after
/// them (more while they take under 0.25 s each).
pub const SETUPS: usize = 3;

/// Full op counts per workload: `(single queries, batches of 64)`.
fn full_read_ops(workload: Workload) -> (usize, usize) {
    match workload {
        Workload::MemSyn => (2_048, 8),
        Workload::MemSkewed => (480_000, 400),
        Workload::PagedSyn => (256, 0),
        Workload::DurableRw => (0, 0),
    }
}

/// Distinct queries a workload cycles through: few enough that each gets
/// several repeats.
fn distinct_queries(workload: Workload) -> usize {
    match workload {
        Workload::MemSyn => SYN_QUERIES,
        // The hot clique.
        Workload::MemSkewed => 64,
        Workload::PagedSyn => SYN_QUERIES / 4,
        // A repetition of four rounds asks each once.
        Workload::DurableRw => SYN_QUERIES / 2,
    }
}

/// Full `durable_rw` rounds per repetition, each closed by a checkpoint.  The
/// last repetition runs one more round without one, so the crash finds
/// [`ROUND_BATCHES`] batches in the logs.
const FULL_ROUNDS: usize = 8;

/// How one run was asked for.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Which workload.
    pub workload: Workload,
    /// Drives every generator and query sample; nothing else reaches the program.
    pub seed: u64,
    /// Scales the op counts (see the [module docs](self)).
    pub seconds: f64,
    /// Record spans, replay layers, report per-layer metrics.
    pub trace: bool,
    /// 1/50 of the full op counts and a single set-up: the whole path in seconds.
    pub smoke: bool,
    /// A directory of this run's own, inside the checkout, for index files.
    pub scratch: PathBuf,
}

impl RunConfig {
    fn count(&self, full: usize, min: usize) -> usize {
        let mut scale = if self.smoke { 1.0 / 50.0 } else { self.seconds / FULL_SECONDS };
        if self.trace {
            scale /= 4.0;
        }
        ((full as f64 * scale).ceil() as usize).max(min)
    }

    /// A phase that overruns this is cut short (and the run says so): fixed
    /// op counts must not carry a stalled machine past the driver's limit.
    fn guard(&self) -> Duration {
        Duration::from_secs_f64((3.0 * self.seconds).max(10.0))
    }
}

/// What one run measured.
#[derive(Debug)]
pub struct Outcome {
    /// Every metric the run produced.
    pub report: Report,
    /// Ops issued.
    pub attempted: u64,
    /// Ops that erred, mismatched an oracle, leaked a pin or lost a batch.
    pub failed: u64,
    /// The first few failures, for the log.
    pub failures: Vec<String>,
    /// FNV-1a over every generated input; same seed, same digest.
    pub inputs_digest: u64,
    /// The trace, when one was asked for.
    pub spans: Option<SpanRecorder>,
    /// Remarks for the human-readable output (percentile rungs, cut phases).
    pub notes: Vec<String>,
}

/// Runs one workload.
pub fn run(config: &RunConfig) -> Outcome {
    std::fs::create_dir_all(&config.scratch).expect("the scratch directory is creatable");
    let mut run = Run::new(config);
    match config.workload {
        Workload::MemSyn | Workload::MemSkewed => run.reads(false),
        Workload::PagedSyn => run.reads(true),
        Workload::DurableRw => run.durable(),
    }
    run.finish()
}

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

/// FNV-1a over 64-bit words.
#[derive(Debug, Clone, Copy)]
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 = (self.0 ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn records<'a>(&mut self, records: impl IntoIterator<Item = &'a PresenceInstance>) {
        for r in records {
            self.word(r.entity.raw());
            self.word(r.unit as u64);
            self.word(r.period.start);
            self.word(r.period.end);
        }
    }
}

/// An independent generator seed for purpose `stream` of run seed `seed`.
fn sub_seed(seed: u64, stream: u64) -> u64 {
    Rng64::new(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93)).next_u64()
}

/// A bulk population and the entities its queries are drawn from.
struct Population {
    sp: SpIndex,
    traces: TraceSet,
    queries: Vec<EntityId>,
    shards: usize,
}

impl Population {
    /// `mem_skewed` gets the planted clique; every other workload the paper's
    /// SYN generator at its default mobility parameters.
    fn generate(workload: Workload, seed: u64) -> Population {
        if workload == Workload::MemSkewed {
            let shards = 8;
            let (generated, hot) =
                testkit::Workload::pruning_adversarial(PruningAdversarialConfig {
                    num_shards: shards,
                    hot_entities: distinct_queries(workload) as u64,
                    cold_entities: (ENTITIES - distinct_queries(workload)) as u64,
                    itinerary_steps: 8,
                    hierarchy: HierarchySpec::default(),
                    seed,
                });
            return Population { sp: generated.sp, traces: generated.traces, queries: hot, shards };
        }
        let dataset = SynDataset::generate(SynConfig {
            num_entities: ENTITIES,
            days: 7,
            comover_fraction: 0.2,
            seed,
            ..SynConfig::default()
        })
        .expect("the SYN generator accepts its default parameters");
        let queries =
            queries_across_lengths(&dataset.traces, distinct_queries(workload), sub_seed(seed, 1));
        let sp = dataset.sp_index().clone();
        Population { sp, traces: dataset.traces, queries, shards: 4 }
    }

    fn measure(&self) -> PaperAdm {
        PaperAdm::default_for(self.sp.height() as usize)
    }

    fn build(&self) -> ShardedMinSigIndex {
        ShardedMinSigIndex::build(
            &self.sp,
            &self.traces,
            IndexConfig::with_hash_functions(NH),
            self.shards,
        )
        .expect("the bulk build accepts generated traces")
    }

    fn digest(&self, digest: &mut Digest) {
        for (_, trace) in self.traces.iter() {
            digest.records(trace.instances());
        }
        for query in &self.queries {
            digest.word(query.raw());
        }
    }

    /// The ingest batches of `durable_rw`: fresh detections after the bulk
    /// window, a quarter of each batch addressed to eight new entity ids.
    fn stream(&self, seed: u64, batches: usize) -> Vec<Vec<PresenceInstance>> {
        let generator = testkit::Workload {
            sp: self.sp.clone(),
            traces: TraceSet::new(testkit::TICKS_PER_UNIT),
        };
        (0..batches as u64)
            .map(|b| {
                generator.stream(StreamConfig {
                    records: BATCH_RECORDS,
                    existing_entities: ENTITIES as u64,
                    new_entity_base: 1_000_000 + b * 8,
                    new_entity_span: 8,
                    new_entity_percent: 25,
                    start_tick: 20_000 + b * 1_000,
                    time_slots: 50,
                    seed: sub_seed(seed, 1_000 + b),
                })
            })
            .collect()
    }
}

/// `n` query entities at evenly spaced ranks of the population ordered by
/// trace length, in a seeded shuffle.
///
/// A query scores every entity against its own trace, so its cost follows its
/// trace length (r = 0.93 on SYN; latencies spread 34 % around their mean).
/// A plain random sample of `n` queries would add 1.25 × 34 % / √n of
/// seed-to-seed sampling error to a run's median latency — ±4 % at a hundred
/// queries, ±8 % at `paged_syn`'s 32 — before any machine noise; a systematic
/// sample removes the part of it that trace length explains (r² = 0.87) and
/// still weighs every entity alike.  The [`SYN_QUERIES`] mid-stratum ranks are
/// fixed; a smaller `n` (which must divide them) takes every so-many-th, so
/// every SYN workload asks a subset of `mem_syn`'s queries.
fn queries_across_lengths(traces: &TraceSet, n: usize, seed: u64) -> Vec<EntityId> {
    let mut by_length: Vec<(usize, EntityId)> =
        traces.iter().filter(|(_, trace)| !trace.is_empty()).map(|(e, t)| (t.len(), e)).collect();
    by_length.sort_unstable();
    let step = SYN_QUERIES / n;
    let mut queries: Vec<EntityId> = (0..SYN_QUERIES)
        .skip(step / 2)
        .step_by(step)
        .map(|i| by_length[(2 * i + 1) * by_length.len() / (2 * SYN_QUERIES)].1)
        .collect();
    // Shuffled, so that every stretch of the cycle mixes cheap and dear queries.
    let mut rng = Rng64::new(seed);
    for i in (1..queries.len()).rev() {
        queries.swap(i, rng.below(i as u64 + 1) as usize);
    }
    queries
}

// ---------------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------------

/// What a run's set-ups measured: every one's wall time, and the last one's
/// build figures.
#[derive(Debug, Default)]
struct SetUps {
    /// Wall of each: inputs + bulk build + whatever the fixture adds.
    seconds: Vec<f64>,
    entities: usize,
    heap_bytes: usize,
    build_s: f64,
    hash_evaluations: u64,
}

impl SetUps {
    /// Times one set-up from scratch: the inputs from the seed, the bulk
    /// build, and `finish` (the page store, the durable directory).  The
    /// previous fixture must be gone by now, so the heap delta around the
    /// build is the index alone.
    fn once<X>(
        &mut self,
        config: &RunConfig,
        finish: impl FnOnce(&Population, ShardedMinSigIndex) -> X,
    ) -> (Population, X) {
        let start = Instant::now();
        let population = Population::generate(config.workload, config.seed);
        let heap_before = heap_live();
        let build_start = Instant::now();
        let index = population.build();
        self.build_s = build_start.elapsed().as_secs_f64();
        self.heap_bytes = heap_live().saturating_sub(heap_before);
        self.entities = index.num_entities();
        self.hash_evaluations = layers::hash_evaluations(&index);
        let fixture = finish(&population, index);
        self.seconds.push(start.elapsed().as_secs_f64());
        (population, fixture)
    }

    /// Sets up [`SETUPS`] times — more, up to 16, while they sum to under
    /// 0.75 s; once in a traced or smoke run — and returns the last fixture.
    /// A read workload calls this before its measured phases and again after
    /// them: a neighbour's burst lasts one to three seconds and slows a
    /// set-up 1.5×, so a run's set-ups must not all sit in one such window.
    fn repeatedly<X>(
        &mut self,
        config: &RunConfig,
        mut finish: impl FnMut(&Population, ShardedMinSigIndex) -> X,
    ) -> (Population, X) {
        let before = self.seconds.len();
        loop {
            let (population, fixture) = self.once(config, &mut finish);
            let n = self.seconds.len() - before;
            let total: f64 = self.seconds[before..].iter().sum();
            if config.trace || config.smoke || n >= 16 || (n >= SETUPS && total >= 0.75) {
                return (population, fixture);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Checking
// ---------------------------------------------------------------------------

/// Counts ops and the ones that failed.
#[derive(Debug, Default)]
struct Checker {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Checker {
    /// Counts one issued op, failed unless `ok`.
    fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what);
        }
    }

    /// Fails an op that was already counted (an oracle caught it later).
    fn fail(&mut self, what: impl FnOnce() -> String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what());
        }
    }
}

/// An answer as the oracles compare it: entity and the degree's exact bits.
type AnswerBits = Vec<(u64, u64)>;

fn bits(answer: &[TopKResult]) -> AnswerBits {
    answer.iter().map(|r| (r.entity.raw(), r.degree.to_bits())).collect()
}

/// The first answer seen per query entity; every repeat must equal it.
#[derive(Debug, Default)]
struct Answers {
    first: BTreeMap<EntityId, AnswerBits>,
    /// Query entities in order of first appearance.
    order: Vec<EntityId>,
}

impl Answers {
    /// True when `answer` equals the first answer recorded for `query`
    /// (recording it when there is none yet).
    fn consistent(&mut self, query: EntityId, answer: &[TopKResult]) -> bool {
        match self.first.get(&query) {
            Some(first) => first
                .iter()
                .copied()
                .eq(answer.iter().map(|r| (r.entity.raw(), r.degree.to_bits()))),
            None => {
                self.first.insert(query, bits(answer));
                self.order.push(query);
                true
            }
        }
    }
}

/// Work counters summed over queries.
#[derive(Debug, Default, Clone, Copy)]
struct WorkSums {
    queries: u64,
    population: u64,
    entities_checked: u64,
    nodes_visited: u64,
    subtrees_pruned: u64,
    steps: u64,
    bound_updates: u64,
    shards_skipped: u64,
    seeded: u64,
    planning_us: u64,
    dispatch: minsig::KernelDispatch,
}

impl WorkSums {
    fn absorb(&mut self, stats: &QueryStats) {
        self.queries += 1;
        self.population = stats.total_entities as u64;
        self.entities_checked += stats.entities_checked as u64;
        self.nodes_visited += stats.nodes_visited as u64;
        self.subtrees_pruned += stats.subtrees_pruned as u64;
        self.steps += stats.steps as u64;
        self.bound_updates += stats.bound_updates;
        self.shards_skipped += stats.shards_skipped as u64;
        self.seeded += stats.threshold_seeded as u64;
        self.planning_us += stats.planning_us;
        self.dispatch.absorb(stats.kernel_dispatch);
    }
}

type QueryResult = Result<(Vec<TopKResult>, QueryStats), IndexError>;

// ---------------------------------------------------------------------------
// The run
// ---------------------------------------------------------------------------

struct Run<'c> {
    config: &'c RunConfig,
    clock: Clock,
    report: Report,
    check: Checker,
    digest: Digest,
    recorder: Option<SpanRecorder>,
    notes: Vec<String>,
}

impl<'c> Run<'c> {
    fn new(config: &'c RunConfig) -> Self {
        let clock = Clock::start();
        Run {
            config,
            clock,
            report: Report::default(),
            check: Checker::default(),
            digest: Digest::new(),
            recorder: config.trace.then(|| SpanRecorder::new(clock)),
            notes: Vec::new(),
        }
    }

    /// Records a catalogue metric; its unit comes from the catalogue.
    fn put(&mut self, name: &str, value: f64, samples: usize) {
        let unit =
            catalogue::find(name).unwrap_or_else(|| panic!("{name} is not in the catalogue")).unit;
        self.report.set(name, unit, value, samples as u64).unwrap_or_else(|e| panic!("{e}"));
    }

    fn finish(mut self) -> Outcome {
        let failed = self.check.failed.min(self.check.attempted);
        let attempted = self.check.attempted.max(1);
        self.put("failed_share", failed as f64 / attempted as f64, attempted as usize);
        // A per-layer metric that does not apply to this workload reads 0.
        for metric in catalogue::PER_LAYER {
            if self.report.get(metric.name).is_none() {
                self.put(metric.name, 0.0, 0);
            }
        }
        Outcome {
            report: self.report,
            attempted,
            failed,
            failures: self.check.failures,
            inputs_digest: self.digest.0,
            spans: self.recorder,
            notes: self.notes,
        }
    }

    fn put_set_ups(&mut self, set_ups: &SetUps) {
        let entities = set_ups.entities as f64;
        // Every set-up does the same work from scratch, so the fastest is its
        // quiet wall time, like an op's fastest repeat.
        let fastest = set_ups.seconds.iter().copied().fold(f64::INFINITY, f64::min);
        self.put("setup_s", fastest, set_ups.seconds.len());
        self.put("setup_all_p50_s", median(&set_ups.seconds), set_ups.seconds.len());
        self.put("heap_bytes_per_entity", set_ups.heap_bytes as f64 / entities, 1);
        self.put("build.entities_per_s", entities / set_ups.build_s, 1);
        self.put("signature.hash_evals_per_entity", set_ups.hash_evaluations as f64 / entities, 1);
    }

    /// The gated timings of a read phase that cycles through `distinct`
    /// queries: single top_k per second and their median latency, both over
    /// each distinct query's quiet latency.
    fn put_quiet_reads(&mut self, samples: &[Sample], distinct: usize) {
        let Some(quiet) = Quiet::of(samples, |i| i % distinct) else { return };
        self.put("ops_per_s", quiet.ops() as f64 / quiet.pass_s(), samples.len());
        self.put("query_p50_us", quiet.p50(1e3), samples.len());
        self.put("noise.excess_share", quiet.excess(), samples.len());
    }

    /// The raw latency figures: every issued query counts, disturbed or not.
    fn put_query_latency(&mut self, samples: &[Sample]) {
        let Some(latency) = Latency::of(samples, 1e3) else { return };
        let n = latency.samples();
        self.put("query_all_p50_us", latency.p50(), n);
        self.put("query_tail_us", latency.tail(), n);
        // A percentile the sample count does not support reads 0.
        self.put("query_p95_us", latency.at(95.0).unwrap_or(0.0), n);
        self.put("query_p99_us", latency.at(99.0).unwrap_or(0.0), n);
        self.notes.push(format!(
            "query_tail_us is p{} of {} samples (the highest rung with >= 10 beyond it)",
            latency.tail_pct(),
            n
        ));
    }

    /// The raw rate of a phase, first issue to last return, and its noise floor.
    fn put_throughput(&mut self, samples: &[Sample], work_per_sample: f64) -> Option<Throughput> {
        let throughput = Throughput::of(samples, work_per_sample)?;
        self.put("noise.qps_spread", throughput.noise_spread, throughput.slices);
        Some(throughput)
    }

    fn put_work(&mut self, sums: &WorkSums) {
        let n = sums.queries as usize;
        let per_query = |sum: u64| sum as f64 / sums.queries.max(1) as f64;
        self.put(
            "engine.checked_share",
            per_query(sums.entities_checked) / sums.population.max(1) as f64,
            n,
        );
        self.put("engine.nodes_visited", per_query(sums.nodes_visited), n);
        self.put("engine.subtrees_pruned", per_query(sums.subtrees_pruned), n);
        self.put("engine.steps", per_query(sums.steps), n);
        self.put("engine.bound_updates", per_query(sums.bound_updates), n);
        self.put("plan.planning_us", per_query(sums.planning_us), n);
        self.put("plan.shards_skipped", per_query(sums.shards_skipped), n);
        self.put("plan.seeded_share", per_query(sums.seeded), n);
        self.put("kernel.dispatch_tiny", per_query(sums.dispatch.tiny), n);
        self.put("kernel.dispatch_merge", per_query(sums.dispatch.merge), n);
        self.put("kernel.dispatch_gallop", per_query(sums.dispatch.gallop), n);
        self.put("kernel.dispatch_simd", per_query(sums.dispatch.simd), n);
    }

    /// Median duration of the spans called `name`, in `per_unit` nanoseconds.
    fn put_span_median(&mut self, metric: &str, name: &str, per_unit: f64) {
        let durations = self.recorder.as_ref().map(|r| r.durations_ns(name)).unwrap_or_default();
        if !durations.is_empty() {
            self.put(metric, median(&durations) / per_unit, durations.len());
        }
    }

    /// Sum of the spans called `name` per op that has any, in `per_unit`
    /// nanoseconds: the median over ops of what the layer cost that op.
    fn put_span_per_op(&mut self, metric: &str, name: &str, per_unit: f64) {
        let Some(recorder) = &self.recorder else { return };
        let mut per_op: BTreeMap<u64, f64> = BTreeMap::new();
        for span in recorder.spans().iter().filter(|s| s.name == name) {
            *per_op.entry(span.op).or_default() += span.ns() as f64;
        }
        if !per_op.is_empty() {
            let sums: Vec<f64> = per_op.into_values().collect();
            self.put(metric, median(&sums) / per_unit, sums.len());
        }
    }

    fn put_coverage(&mut self, root: &str, parts: &[&str]) {
        if let Some((share, ops)) = self.recorder.as_ref().and_then(|r| r.coverage(root, parts)) {
            self.put("trace.coverage", share, ops as usize);
            if !(0.75..=1.25).contains(&share) {
                self.notes.push(format!(
                    "finding: the replayed layers account for {share:.2} of {root} \
                     (outside 0.75-1.25: a layer is unaccounted for, or the replay is not the real drive)"
                ));
            }
        }
    }

    fn note_cut(&mut self, phase: &str, ran: usize, planned: usize) {
        if ran < planned {
            self.notes.push(format!(
                "{phase} was cut at the guard after {ran} of {planned} ops: counters of this run do not repeat"
            ));
        }
    }

    // -- read workloads -------------------------------------------------------

    /// `mem_syn`, `mem_skewed` and, with `paged`, `paged_syn`.
    fn reads(&mut self, paged: bool) {
        let config = self.config;
        let finish = |population: &Population, index| {
            let store = paged.then(|| PagedTraceStore::build(&population.traces, 8));
            (index, store)
        };
        let mut set_ups = SetUps::default();
        let (population, (index, store)) = set_ups.repeatedly(config, finish);
        population.digest(&mut self.digest);
        let measure = population.measure();
        let queries = &population.queries;
        let snapshot = index.snapshot();
        self.put("arena.resident_bytes", layers::resident_bytes(&snapshot) as f64, 1);

        let (full_singles, full_batches) = full_read_ops(config.workload);
        let singles = config.count(full_singles, 16);
        let batches = if full_batches == 0 { 0 } else { config.count(full_batches, 1) };
        let mut answers = Answers::default();
        let reads = Reads { snapshot: &snapshot, measure: &measure, queries, singles };
        heap_reset_peak();

        match &store {
            None => {
                let single = |q| snapshot.top_k(q, K, &measure);
                let reference = self.singles(
                    "singles",
                    singles,
                    queries,
                    single,
                    &mut answers,
                    |_, _, _, _| {},
                );
                self.put_reference(&reference, queries.len());
                self.batches(
                    batches,
                    queries,
                    |qs| snapshot.top_k_batch(qs, K, &measure),
                    &mut answers,
                );
                self.check_against_brute_force(&snapshot, &measure, &answers);
                if config.trace {
                    self.traced_reads(&reads, &mut answers, &reference);
                }
            }
            Some(store) => {
                // Every paged answer must equal the in-memory one, so those go
                // in as the "first answers" before any paged query runs.
                for &query in queries.iter().take(singles) {
                    if !answers.first.contains_key(&query) {
                        match snapshot.top_k(query, K, &measure) {
                            Ok((answer, _)) => {
                                answers.consistent(query, &answer);
                            }
                            Err(e) => self
                                .check
                                .op(false, || format!("in-memory oracle for {query}: {e}")),
                        }
                    }
                }
                let pool = tenth_pool(store);
                let paged = snapshot.paged(store, &pool);
                warm_up(&paged, queries, &measure);
                let mut leaks = 0usize;
                let reference = self.singles(
                    "singles",
                    singles,
                    queries,
                    |q| paged.top_k(q, K, &measure),
                    &mut answers,
                    |_, _, _, _| leaks += (layers::pins_outstanding(&pool) != 0) as usize,
                );
                self.put_reference(&reference, queries.len());
                if config.trace {
                    self.traced_paged_reads(&reads, store, &mut answers, &reference);
                }
                for _ in 0..leaks {
                    self.check.fail(|| "a paged query left a frame pinned".into());
                }
            }
        }
        self.put("heap.peak_bytes", heap_peak() as f64, 1);

        // The second half of the set-ups, with the measured fixture gone.
        drop((snapshot, index, store, population));
        if !(config.trace || config.smoke) {
            set_ups.repeatedly(config, finish);
        }
        self.put_set_ups(&set_ups);
    }

    /// One closed-loop phase of single `top_k` calls over `queries`, cycled.
    /// Each answer is checked against the first answer for its query; `each`
    /// then gets `(recorder, op, sample, query)` for traced bookkeeping.
    fn singles(
        &mut self,
        phase: &str,
        ops: usize,
        queries: &[EntityId],
        mut call: impl FnMut(EntityId) -> QueryResult,
        answers: &mut Answers,
        mut each: impl FnMut(Option<&mut SpanRecorder>, usize, Sample, EntityId),
    ) -> Singles {
        let mut sums = WorkSums::default();
        let (check, recorder) = (&mut self.check, &mut self.recorder);
        let samples = closed_loop(
            &self.clock,
            ops,
            self.config.guard(),
            |i| call(queries[i % queries.len()]),
            |i, sample, result| {
                let query = queries[i % queries.len()];
                match result {
                    Ok((answer, stats)) => {
                        sums.absorb(&stats);
                        check.op(answers.consistent(query, &answer), || {
                            format!("top_k({query}) differs from the first answer for that query")
                        });
                    }
                    Err(e) => check.op(false, || format!("top_k({query}): {e}")),
                }
                each(recorder.as_mut(), i, sample, query);
            },
        );
        self.note_cut(phase, samples.len(), ops);
        Singles { samples, sums }
    }

    /// The untraced singles phase is where the end-to-end numbers come from.
    fn put_reference(&mut self, reference: &Singles, distinct: usize) {
        self.put_quiet_reads(&reference.samples, distinct);
        if let Some(throughput) = self.put_throughput(&reference.samples, 1.0) {
            self.put("query_qps", throughput.overall_per_s, reference.samples.len());
        }
        self.put_query_latency(&reference.samples);
        self.put_work(&reference.sums);
    }

    fn batches(
        &mut self,
        batches: usize,
        queries: &[EntityId],
        mut call: impl FnMut(&[EntityId]) -> Result<Vec<(Vec<TopKResult>, QueryStats)>, IndexError>,
        answers: &mut Answers,
    ) {
        if batches == 0 {
            return;
        }
        let batch_queries: Vec<Vec<EntityId>> = (0..batches)
            .map(|b| {
                (0..BATCH_QUERIES)
                    .map(|j| queries[(b * BATCH_QUERIES + j) % queries.len()])
                    .collect()
            })
            .collect();
        let (check, recorder) = (&mut self.check, &mut self.recorder);
        let samples = closed_loop(
            &self.clock,
            batches,
            self.config.guard(),
            |b| call(&batch_queries[b]),
            |b, sample, result| {
                let ok = result.is_ok_and(|rows| {
                    rows.len() == BATCH_QUERIES
                        && rows
                            .iter()
                            .zip(&batch_queries[b])
                            .all(|((answer, _), &q)| answers.consistent(q, answer))
                });
                check.op(ok, || {
                    format!("top_k_batch #{b} erred or differs from the single-query answers")
                });
                if let Some(recorder) = recorder.as_mut() {
                    recorder.root("op.top_k_batch", sample);
                }
            },
        );
        self.note_cut("batches", samples.len(), batches);
        if let (Some(first), Some(last)) = (samples.first(), samples.last()) {
            let wall_s = (last.end_ns - first.start_ns) as f64 / 1e9;
            self.put("batch_qps", (samples.len() * BATCH_QUERIES) as f64 / wall_s, samples.len());
        }
    }

    fn check_against_brute_force(
        &mut self,
        snapshot: &ShardedSnapshot,
        measure: &PaperAdm,
        answers: &Answers,
    ) {
        for &query in answers.order.iter().take(ORACLE_QUERIES) {
            match layers::oracle_top_k(snapshot, query, K, measure) {
                Ok(truth) if bits(&truth) == answers.first[&query] => {}
                Ok(_) => {
                    self.check.fail(|| format!("top_k({query}) differs bitwise from brute force"))
                }
                Err(e) => self.check.fail(|| format!("brute force for {query}: {e}")),
            }
        }
    }

    /// A singles phase with a root span per op and `replay` run under every
    /// [`REPLAY_EVERY`]-th; reports the tracing overhead against `reference`
    /// and returns the replays' summed counts.
    fn traced_singles(
        &mut self,
        ops: usize,
        queries: &[EntityId],
        call: impl FnMut(EntityId) -> QueryResult,
        answers: &mut Answers,
        reference: &Singles,
        mut replay: impl FnMut(&mut SpanRecorder, SpanId, EntityId) -> Result<QueryReplay, IndexError>,
    ) -> QueryReplay {
        let mut replayed = QueryReplay::default();
        let mut replay_errors = Vec::new();
        let traced = self.singles(
            "traced singles",
            ops,
            queries,
            call,
            answers,
            |recorder, i, sample, query| {
                let recorder = recorder.expect("a traced run records spans");
                let root = recorder.root("op.top_k", sample);
                if i.is_multiple_of(REPLAY_EVERY) {
                    match replay(recorder, root, query) {
                        Ok(replay) => replayed.absorb(replay),
                        Err(e) => replay_errors.push(format!("replay of top_k({query}): {e}")),
                    }
                }
            },
        );
        for error in replay_errors {
            self.check.fail(|| error);
        }
        self.put_overhead(&reference.samples, &traced.samples);
        replayed
    }

    /// The traced phase of the in-memory workloads: the same singles again,
    /// traced, then the layers no single op isolates.
    fn traced_reads(&mut self, reads: &Reads<'_>, answers: &mut Answers, reference: &Singles) {
        let &Reads { snapshot, measure, queries, singles: ops } = reads;
        let replayed = self.traced_singles(
            ops,
            queries,
            |q| snapshot.top_k(q, K, measure),
            answers,
            reference,
            |recorder, root, q| layers::replay_query(recorder, root, snapshot, q, K, measure),
        );
        self.put_read_layers(&replayed);
        self.put_coverage("op.top_k", &["plan.explain", "engine.shard_topk", "shard.merge"]);

        let batch: Vec<EntityId> = (0..BATCH_QUERIES).map(|j| queries[j % queries.len()]).collect();
        let plan_us: Vec<f64> = (0..5)
            .filter_map(|_| layers::plan_batch_us_per_query(snapshot, &batch, K, measure).ok())
            .collect();
        if !plan_us.is_empty() {
            self.put("plan.batch_us_per_query", median(&plan_us), plan_us.len());
        }
        self.put_shared_layers(snapshot);
    }

    fn put_overhead(&mut self, reference: &[Sample], traced: &[Sample]) {
        if let (Some(plain), Some(traced)) = (Latency::of(reference, 1e3), Latency::of(traced, 1e3))
        {
            let share = (traced.p50() - plain.p50()) / plain.p50();
            self.put("trace.overhead_share", share, traced.samples());
        }
    }

    fn put_read_layers(&mut self, replayed: &QueryReplay) {
        self.put_span_median("plan.explain_us", "plan.explain", 1e3);
        self.put_span_median("engine.shard_topk_us", "engine.shard_topk", 1e3);
        self.put_span_median("shard.merge_us", "shard.merge", 1e3);
        let Some(totals) = self.recorder.as_ref().map(|r| r.totals()) else { return };
        let replays = totals.get("replay").map_or(0, |t| t.count) as usize;
        if replays > 0 {
            self.put(
                "engine.shard_checked",
                replayed.shard_checked as f64 / replays as f64,
                replays,
            );
        }
        if let Some(scan) = totals.get("arena.scan").filter(|_| replayed.scanned > 0) {
            self.put(
                "arena.ns_per_degree",
                scan.total_ns as f64 / replayed.scanned as f64,
                replayed.scanned,
            );
        }
        if let Some(kernel) = totals.get("kernel.intersect").filter(|_| replayed.intersections > 0)
        {
            let n = replayed.intersections;
            self.put("kernel.ns_per_intersection", kernel.total_ns as f64 / n as f64, n as usize);
            self.put("kernel.mean_len", replayed.intersection_lens as f64 / n as f64, n as usize);
        }
    }

    /// Layers every workload has and no single op isolates: what a publish
    /// rebuilds, and what a parallel fan-out pays before any work.
    fn put_shared_layers(&mut self, snapshot: &ShardedSnapshot) {
        let (arena_ms, synopsis_ms) = layers::rebuild_costs_ms(snapshot, 3);
        self.put("arena.build_ms", median(&arena_ms), arena_ms.len());
        self.put("synopsis.compute_ms", median(&synopsis_ms), synopsis_ms.len());
        let joins: Vec<f64> = (0..200).map(|_| layers::rayon_join_noop_us()).collect();
        self.put("rayon.join_noop_us", median(&joins), joins.len());
    }

    /// The traced phase of `paged_syn`: the same queries with pool deltas
    /// around each and the layers replayed under every
    /// [`REPLAY_EVERY`]-th, then the pool and store probes.
    fn traced_paged_reads(
        &mut self,
        reads: &Reads<'_>,
        store: &PagedTraceStore,
        answers: &mut Answers,
        reference: &Singles,
    ) {
        let &Reads { snapshot, measure, queries, singles: ops } = reads;
        // A fresh pool, warmed like the reference one, so the counters start
        // from the same state on every run.
        let pool = tenth_pool(store);
        let paged = snapshot.paged(store, &pool);
        warm_up(&paged, queries, measure);
        let probe = std::cell::RefCell::new(PoolProbe::new(&pool));
        let replayed = self.traced_singles(
            ops,
            queries,
            |q| {
                probe.borrow_mut().before_query();
                let result = paged.top_k(q, K, measure);
                probe.borrow_mut().after_query();
                result
            },
            answers,
            reference,
            |recorder, root, q| layers::replay_paged_query(recorder, root, &paged, q, K, measure),
        );
        self.put_read_layers(&replayed);
        self.put_span_median("store.read_trace_us", "store.read_trace", 1e3);
        self.put_coverage("op.top_k", &["plan.explain", "engine.shard_topk", "paged.materialize"]);

        let probe = probe.into_inner();
        let n = probe.queries as usize;
        let per_query = |sum: u64| sum as f64 / probe.queries.max(1) as f64;
        self.put("pool.hit_rate", probe.total.hit_rate(), n);
        self.put("pool.misses_per_query", per_query(probe.total.misses), n);
        self.put("pool.evictions_per_query", per_query(probe.total.evictions), n);
        self.put(
            "pool.read_amplification",
            per_query(probe.total.misses) / store.stats().pages.max(1) as f64,
            n,
        );
        self.put("pool.simulated_io_us_per_query", per_query(probe.total.simulated_us), n);

        let (hit_ns, miss_ns) = layers::pool_get_ns(store, queries, 2_000);
        self.put("pool.get_hit_ns", hit_ns, 2_000);
        self.put("pool.get_miss_ns", miss_ns, 2_000);

        // The same queries with the whole store resident: what is left is
        // decode and row building, not I/O.
        let full = store.pool(PoolConfig::with_memory_fraction(store.data_bytes(), 1.0));
        let resident = snapshot.paged(store, &full);
        warm_up(&resident, queries, measure);
        let full_ops = self.config.count(64, 8);
        let full_pool = self.singles(
            "full-pool singles",
            full_ops,
            queries,
            |q| resident.top_k(q, K, measure),
            answers,
            |_, _, _, _| {},
        );
        if let Some(latency) = Latency::of(&full_pool.samples, 1e3) {
            self.put("paged.full_pool_p50_us", latency.p50(), latency.samples());
        }
        self.put_shared_layers(snapshot);
    }

    // -- durable_rw -----------------------------------------------------------

    /// [`DURABLE_REPS`] repetitions of the same rounds, each on a fixture set
    /// up from scratch — so every ingest, query and checkpoint has identical
    /// repeats, and `setup_s` its samples — then, on the last one, a round
    /// without a checkpoint, the crash, the recoveries and the oracle.
    fn durable(&mut self) {
        let config = self.config;
        // A traced or smoke run sets up once and runs its rounds in a row.
        let (reps, rounds) = if config.trace || config.smoke {
            (1, config.count(FULL_ROUNDS * DURABLE_REPS, if config.trace { 2 } else { 1 }))
        } else {
            (DURABLE_REPS, config.count(FULL_ROUNDS, 1))
        };
        let guard = config.guard().as_nanos() as u64;
        let run_start = self.clock.now_ns();
        let mut set_ups = SetUps::default();
        let mut batches = Vec::new();
        let mut acc = DurableSamples::default();

        let (mut rig, population) = loop {
            let rep = set_ups.seconds.len();
            let dir = config.scratch.join(format!("index-{rep}"));
            let (population, durable) = set_ups.once(config, |_, index| {
                DurableShardedMinSigIndex::create(&dir, index, LogConfig::default())
                    .expect("a fresh directory takes a durable index")
            });
            if rep == 0 {
                population.digest(&mut self.digest);
                batches = population.stream(config.seed, (rounds + 1) * ROUND_BATCHES);
                for batch in &batches {
                    self.digest.records(batch);
                }
            }
            let mut rig = DurableRig {
                durable,
                measure: population.measure(),
                bulk_records: population.traces.total_presence_instances() as u64,
                // Traced, the oracle's flush of each batch is the op's
                // `ingest.flush` layer, so it follows along from the start.
                oracle: config.trace.then(|| (population.build(), 0)),
                logs: config
                    .trace
                    .then(|| ScratchLogs::open(&dir).expect("scratch logs open beside the index")),
                dir,
                next_batch: 0,
                // The round clock runs on from the previous repetition's.
                paused_ns: self.clock.now_ns() - acc.rounds.last().map_or(0, |r| r.end_ns),
            };
            acc.seen.clear();
            heap_reset_peak();
            let mut ran = 0;
            while ran < rounds && self.clock.now_ns() - run_start <= guard {
                self.durable_round(&mut rig, &mut acc, &batches, &population.queries, true);
                ran += 1;
            }
            if ran < rounds {
                self.note_cut(&format!("rounds of repetition {rep}"), ran, rounds);
            }
            if rep + 1 == reps || ran < rounds {
                break (rig, population);
            }
            drop(rig.durable);
            let _ = std::fs::remove_dir_all(&rig.dir);
        };
        self.put_set_ups(&set_ups);
        // The last round gets no checkpoint: the crash must find its batches
        // in the logs.
        self.durable_round(&mut rig, &mut acc, &batches, &population.queries, false);
        self.put("heap.peak_bytes", heap_peak() as f64, 1);

        // -- crash, torn tail, recovery ----------------------------------------
        let DurableRig { durable, dir, measure, oracle, logs, next_batch, .. } = rig;
        let shards = population.shards;
        let wal_bytes = layers::wal_disk_bytes(&durable);
        let wal_records = (ROUND_BATCHES * BATCH_RECORDS) as u64;
        drop(durable);
        if let Some(logs) = logs {
            self.put_log_layers(&logs);
            logs.remove();
        }
        let torn_shard = (config.seed % shards as u64) as usize;
        if let Err(e) = layers::tear_wal_tail(&dir, torn_shard, 1_700) {
            self.check.op(false, || format!("could not tear the WAL tail: {e}"));
        }
        let mut recoveries = Vec::new();
        let mut recovered = None;
        for attempt in 0..RECOVERIES {
            let start_ns = self.clock.now_ns();
            let result = DurableShardedMinSigIndex::open(&dir, LogConfig::default());
            let sample = Sample { start_ns, end_ns: self.clock.now_ns() };
            recoveries.push(sample);
            if let Some(recorder) = self.recorder.as_mut() {
                recorder.root("op.open", sample);
            }
            match result {
                Ok((index, report)) => {
                    let complete = report.batches_replayed == ROUND_BATCHES
                        && report.records_replayed as u64 == wal_records
                        && report.uncommitted_discarded == 0;
                    self.check.op(complete, || {
                        format!("open #{attempt} lost acknowledged batches: {report:?}")
                    });
                    recovered = Some(index);
                }
                Err(e) => self.check.op(false, || format!("open #{attempt}: {e}")),
            }
        }

        // -- the oracle catches up, then must match the recovered index ---------
        let (mut oracle, mut oracle_at) = oracle.unwrap_or_else(|| (population.build(), 0));
        while oracle_at < next_batch {
            if let Err(e) = oracle.ingest_batch(batches[oracle_at].clone()) {
                self.check.fail(|| format!("oracle ingest #{oracle_at}: {e}"));
            }
            oracle_at += 1;
            if acc.seen.first().is_some_and(|(b, _, _)| *b + 1 == oracle_at) {
                self.verify_queries(&oracle, &measure, &mut acc.seen);
            }
        }
        match (
            recovered.as_ref().map(|r| layers::shard_images(r.index())),
            layers::shard_images(&oracle),
        ) {
            (Some(Ok(recovered)), Ok(expected)) => {
                for (shard, (got, want)) in recovered.iter().zip(&expected).enumerate() {
                    self.check.op(got == want, || {
                        format!(
                            "shard {shard} recovered to different bytes than the never-crashed index"
                        )
                    });
                }
            }
            (recovered, expected) => self.check.op(false, || {
                format!(
                    "could not compare recovered and never-crashed images: {:?} / {:?}",
                    recovered.map(|r| r.map(|_| ())),
                    expected.map(|_| ())
                )
            }),
        }

        // -- metrics -------------------------------------------------------------
        // Op `i` of a repetition repeats op `i` of every other.
        let per_rep = rounds * ROUND_BATCHES;
        let quiet = (
            Quiet::of(&acc.commits, |i| i % per_rep),
            Quiet::of(&acc.queries, |i| i % per_rep),
            Quiet::of(&acc.checkpoints, |i| i % rounds),
        );
        if let (Some(commits), Some(queries), Some(checkpoints)) = quiet {
            let pass_s = commits.pass_s() + queries.pass_s() + checkpoints.pass_s();
            let records = (commits.ops() * BATCH_RECORDS) as f64;
            self.put("ops_per_s", records / pass_s, acc.commits.len());
            self.put("query_p50_us", queries.p50(1e3), acc.queries.len());
            self.put("noise.excess_share", commits.excess(), acc.commits.len());
        }
        self.put_throughput(&acc.rounds, (ROUND_BATCHES * BATCH_RECORDS) as f64);
        self.put_query_latency(&acc.queries);
        self.put_work(&acc.sums);
        if let Some(latency) = Latency::of(&acc.commits, 1e6) {
            let commits = acc.commits.len();
            let ingest_s: f64 = acc.commits.iter().map(|s| s.ns() as f64 / 1e9).sum();
            self.put("ingest_records_per_s", (commits * BATCH_RECORDS) as f64 / ingest_s, commits);
            self.put("commit_p50_ms", latency.p50(), commits);
            self.put("commit_p95_ms", latency.at(95.0).unwrap_or(0.0), commits);
            self.put(
                "ingest.entities_touched",
                acc.entities_touched as f64 / commits as f64,
                commits,
            );
        }
        let ms =
            |samples: &[Sample]| samples.iter().map(|s| s.ns() as f64 / 1e6).collect::<Vec<f64>>();
        if !acc.checkpoints.is_empty() {
            self.put("checkpoint_ms", median(&ms(&acc.checkpoints)), acc.checkpoints.len());
            self.put(
                "disk_bytes_per_user_byte",
                acc.dir_bytes_after_checkpoint as f64
                    / (RECORD_WIRE_BYTES * acc.records_at_checkpoint) as f64,
                1,
            );
        }
        let recover_ms = median(&ms(&recoveries));
        self.put("recover_ms", recover_ms, recoveries.len());
        self.put(
            "log.bytes_per_user_byte",
            wal_bytes as f64 / (RECORD_WIRE_BYTES * wal_records) as f64,
            1,
        );
        if let Some(index) = &recovered {
            self.put(
                "arena.resident_bytes",
                layers::resident_bytes(&index.index().snapshot()) as f64,
                1,
            );
        }

        if config.trace {
            self.put_span_median("ingest.flush_ms", "ingest.flush", 1e6);
            self.put_span_median("ingest.flush_pinned_ms", "ingest.flush_pinned", 1e6);
            self.put_span_median("durable.encode_us", "durable.encode", 1e3);
            self.put_span_per_op("persist.to_bytes_ms", "persist.to_bytes", 1e6);
            self.put_span_per_op("persist.write_ms", "persist.write", 1e6);
            if !acc.checkpoint_bytes.is_empty() {
                self.put(
                    "persist.checkpoint_bytes",
                    median(&acc.checkpoint_bytes),
                    acc.checkpoint_bytes.len(),
                );
            }
            let opens: Vec<f64> =
                (0..3).filter_map(|_| layers::checkpoint_open_ms(&dir).ok()).collect();
            if !opens.is_empty() {
                let open_ms = median(&opens);
                self.put("persist.open_ms", open_ms, opens.len());
                let replay_s = (recover_ms - open_ms).max(1e-3) / 1e3;
                self.put(
                    "durable.replay_records_per_s",
                    wal_records as f64 / replay_s,
                    recoveries.len(),
                );
            }
            // Even rounds are the reference, odd rounds carry the replays.
            let of_round_parity = |odd: bool| -> Vec<Sample> {
                let rounds = acc.queries.chunks(ROUND_BATCHES).enumerate();
                rounds.filter(|(r, _)| (r % 2 == 1) == odd).flat_map(|(_, q)| q.to_vec()).collect()
            };
            self.put_overhead(&of_round_parity(false), &of_round_parity(true));
            self.put_coverage(
                "op.ingest",
                &["durable.encode", "log.append", "ingest.flush", "ingest.flush_pinned"],
            );
            if let Some((share, ops)) = self
                .recorder
                .as_ref()
                .and_then(|r| r.coverage("op.checkpoint", &["persist.to_bytes", "persist.write"]))
            {
                self.notes.push(format!(
                    "persist.to_bytes + persist.write account for {share:.2} of op.checkpoint \
                     over {ops} checkpoints"
                ));
            }
            if let Some(index) = &recovered {
                self.put_shared_layers(&index.index().snapshot());
            }
        }
        drop(recovered);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// One round on `rig`: [`ROUND_BATCHES`] ingests — the first half with no
    /// reader, the second with the previous snapshot held across the ingest
    /// and two queries on the new one after it — closed by a checkpoint,
    /// unless it is the round the crash is to find in the logs.  Only a
    /// checkpointed round's samples are kept: it has repeats, the other not.
    fn durable_round(
        &mut self,
        rig: &mut DurableRig,
        acc: &mut DurableSamples,
        batches: &[Vec<PresenceInstance>],
        queries: &[EntityId],
        checkpointed: bool,
    ) {
        let round = rig.next_batch / ROUND_BATCHES;
        let replay_round = round % 2 == 1;
        let round_start = self.clock.now_ns();
        for j in 0..ROUND_BATCHES {
            let b = rig.next_batch;
            rig.next_batch += 1;
            let pinned = j >= ROUND_BATCHES / 2;
            let records = batches[b].clone();
            let held = pinned.then(|| rig.durable.index().snapshot());
            let start_ns = self.clock.now_ns();
            let result = rig.durable.ingest(records);
            let sample = Sample { start_ns, end_ns: self.clock.now_ns() };
            if checkpointed {
                acc.commits.push(sample);
            }
            match &result {
                Ok(report) => {
                    acc.entities_touched += report.entities_touched * checkpointed as usize;
                    self.check.op(report.records == BATCH_RECORDS, || {
                        format!("ingest #{b} applied {} records", report.records)
                    });
                }
                Err(e) => self.check.op(false, || format!("ingest #{b}: {e}")),
            }
            if let (Some(recorder), Some((oracle, oracle_at))) =
                (self.recorder.as_mut(), rig.oracle.as_mut())
            {
                let root = recorder.root("op.ingest", sample);
                let oracle_held = pinned.then(|| oracle.snapshot());
                let name = if pinned { "ingest.flush_pinned" } else { "ingest.flush" };
                let flushed =
                    recorder.span(name, Some(root), |_| oracle.ingest_batch(batches[b].clone()));
                drop(oracle_held);
                *oracle_at = b + 1;
                if let Err(e) = flushed {
                    self.check.fail(|| format!("oracle ingest #{b}: {e}"));
                }
                if replay_round && b.is_multiple_of(REPLAY_EVERY) {
                    let logs = rig.logs.as_mut().expect("a traced run opens scratch logs");
                    let shards = rig.durable.index().num_shards();
                    let replayed = layers::replay_commit(
                        recorder,
                        root,
                        &self.clock,
                        logs,
                        shards,
                        b as u64 + 1,
                        &batches[b],
                    );
                    if let Err(e) = replayed {
                        self.check.fail(|| format!("replay of ingest #{b}: {e}"));
                    }
                }
            }
            if pinned {
                let snapshot = rig.durable.index().snapshot();
                for slot in 0..2 {
                    // A round asks as many queries as it ingests batches;
                    // every repetition asks the same one in the same place.
                    let asked = round * ROUND_BATCHES + (j - ROUND_BATCHES / 2) * 2 + slot;
                    let query = queries[asked % queries.len()];
                    let start_ns = self.clock.now_ns();
                    let result = snapshot.top_k(query, K, &rig.measure);
                    let sample = Sample { start_ns, end_ns: self.clock.now_ns() };
                    if checkpointed {
                        acc.queries.push(sample);
                    }
                    if let Some(recorder) = self.recorder.as_mut() {
                        recorder.root("op.top_k", sample);
                    }
                    match result {
                        Ok((answer, stats)) => {
                            acc.sums.absorb(&stats);
                            // Every repetition must answer as the first did;
                            // the oracle fails the op later if the last one,
                            // and so all of them, answered wrong.
                            let answer = bits(&answer);
                            let first =
                                acc.first_answers.entry((b, slot)).or_insert(answer.clone());
                            self.check.op(*first == answer, || {
                                format!(
                                    "top_k({query}) after ingest #{b} differs between repetitions"
                                )
                            });
                            acc.seen.push((b, query, answer));
                        }
                        Err(e) => self
                            .check
                            .op(false, || format!("top_k({query}) after ingest #{b}: {e}")),
                    }
                }
                if let Some((oracle, _)) = &rig.oracle {
                    self.verify_queries(oracle, &rig.measure, &mut acc.seen);
                }
            }
            drop(held);
        }
        if !checkpointed {
            return;
        }
        let start_ns = self.clock.now_ns();
        let result = rig.durable.checkpoint();
        let sample = Sample { start_ns, end_ns: self.clock.now_ns() };
        acc.checkpoints.push(sample);
        acc.rounds.push(Sample {
            start_ns: round_start - rig.paused_ns,
            end_ns: sample.end_ns - rig.paused_ns,
        });
        self.check.op(result.is_ok(), || format!("checkpoint after round {round}: {result:?}"));
        acc.dir_bytes_after_checkpoint = dir_bytes(&rig.dir, &["scratch-"]);
        acc.records_at_checkpoint = rig.bulk_records + (rig.next_batch * BATCH_RECORDS) as u64;
        if let Some(recorder) = self.recorder.as_mut() {
            let root = recorder.root("op.checkpoint", sample);
            match layers::replay_checkpoint(recorder, root, rig.durable.index(), &rig.dir) {
                Ok(bytes) => acc.checkpoint_bytes.push(bytes as f64),
                Err(e) => self.check.fail(|| format!("replay of checkpoint {round}: {e}")),
            }
        }
    }

    /// Checks the answers `durable_rw` saw at the batch the oracle has just
    /// reached against the oracle's own.
    fn verify_queries(
        &mut self,
        oracle: &ShardedMinSigIndex,
        measure: &PaperAdm,
        seen: &mut Vec<(usize, EntityId, AnswerBits)>,
    ) {
        let Some(&(batch, _, _)) = seen.first() else { return };
        let snapshot = oracle.snapshot();
        let at_batch = seen.iter().take_while(|(b, _, _)| *b == batch).count();
        for (b, query, answer) in seen.drain(..at_batch) {
            match snapshot.top_k(query, K, measure) {
                Ok((truth, _)) if bits(&truth) == answer => {}
                Ok(_) => self.check.fail(|| {
                    format!("top_k({query}) after ingest #{b} differs from the never-crashed index")
                }),
                Err(e) => {
                    self.check.fail(|| format!("oracle top_k({query}) after ingest #{b}: {e}"))
                }
            }
        }
    }

    fn put_log_layers(&mut self, logs: &ScratchLogs) {
        if let Some(latency) = Latency::of(&logs.fsync_samples, 1e3) {
            self.put("log.append_fsync_us", latency.p50(), latency.samples());
        }
        if let Some(latency) = Latency::of(&logs.nosync_samples, 1e3) {
            self.put("log.append_nosync_us", latency.p50(), latency.samples());
        }
    }
}

/// `paged_syn`'s pool: a tenth of the trace data, default LRU-2.
fn tenth_pool(store: &PagedTraceStore) -> BufferPool<'_> {
    store.pool(PoolConfig::with_memory_fraction(store.data_bytes(), 0.10))
}

/// Two untimed queries from the far end of the list bring a fresh pool's
/// replacer to its steady state.
fn warm_up(paged: &PagedShardedSnapshot<'_>, queries: &[EntityId], measure: &PaperAdm) {
    for &query in queries.iter().rev().take(2) {
        let _ = paged.top_k(query, K, measure);
    }
}

/// What the singles phases of one read run share.
#[derive(Clone, Copy)]
struct Reads<'a> {
    snapshot: &'a ShardedSnapshot,
    measure: &'a PaperAdm,
    queries: &'a [EntityId],
    /// Single queries per phase.
    singles: usize,
}

/// The samples and work counters of one singles phase.
struct Singles {
    samples: Vec<Sample>,
    sums: WorkSums,
}

/// One repetition of `durable_rw`: its fixture and what its rounds need.
struct DurableRig {
    durable: DurableShardedMinSigIndex,
    dir: PathBuf,
    measure: PaperAdm,
    /// Records the bulk build indexed.
    bulk_records: u64,
    /// Traced only: the never-crashed index, fed inline, and the batches it
    /// has been fed.
    oracle: Option<(ShardedMinSigIndex, usize)>,
    /// Traced only.
    logs: Option<ScratchLogs>,
    /// Batches ingested so far.
    next_batch: usize,
    /// What the round clock lags the run's clock by: it stops between
    /// repetitions, so the rounds of all of them read as one phase.
    paused_ns: u64,
}

/// What the repetitions of `durable_rw` add up.
#[derive(Default)]
struct DurableSamples {
    /// The timed ops of the checkpointed rounds, repetition after repetition.
    commits: Vec<Sample>,
    queries: Vec<Sample>,
    checkpoints: Vec<Sample>,
    /// Each checkpointed round, first ingest to checkpoint, on the round clock.
    rounds: Vec<Sample>,
    sums: WorkSums,
    /// The first repetition's answer at each `(batch, slot)`.
    first_answers: BTreeMap<(usize, usize), AnswerBits>,
    /// The current repetition's answers the oracle has not checked yet.
    seen: Vec<(usize, EntityId, AnswerBits)>,
    entities_touched: usize,
    checkpoint_bytes: Vec<f64>,
    dir_bytes_after_checkpoint: u64,
    records_at_checkpoint: u64,
}

/// Bytes of every file under `dir`, skipping entries whose name starts with
/// one of `skip_prefixes` (the benchmark's own scratch directories).
fn dir_bytes(dir: &Path, skip_prefixes: &[&str]) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .filter_map(|entry| entry.ok())
        .filter(|entry| {
            let name = entry.file_name();
            !skip_prefixes.iter().any(|prefix| name.to_string_lossy().starts_with(prefix))
        })
        .map(|entry| match entry.metadata() {
            Ok(meta) if meta.is_dir() => dir_bytes(&entry.path(), skip_prefixes),
            Ok(meta) => meta.len(),
            Err(_) => 0,
        })
        .sum()
}
