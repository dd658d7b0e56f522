//! The benchmark's vocabulary: the four workloads and every metric a run may
//! emit, with unit, direction and regression bound.
//!
//! `BENCHMARK.json` at the repository root states the same facts for the
//! driver; `tests/contract.rs` holds the two equal.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (latencies, bytes).
    Lower,
    /// Larger is better (rates, hit shares).
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric the benchmark can emit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Name, as printed and as cited by later issues.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Which way it improves.
    pub better: Better,
    /// Share of the parent's median by which it may worsen before a change
    /// counts as a regression; `None` for per-layer metrics (never gated).
    pub bound: Option<f64>,
    /// What is measured, in one line.
    pub what: &'static str,
}

const fn gated(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    what: &'static str,
) -> MetricDef {
    MetricDef { name, unit, better, bound: Some(bound), what }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    what: &'static str,
) -> MetricDef {
    MetricDef { name, unit, better, bound: None, what }
}

use Better::{Higher, Lower};

/// What a user of the index sees; measured with tracing off, defined on every
/// workload, never zero.
///
/// The two timings are built from each distinct op's *quiet* latency — the
/// fastest of its identical repeats ([`crate::harness::Quiet`]) — so a
/// neighbour's burst on the shared sandbox does not move them; the same
/// figures over all repeats, disturbed or not, are `query_qps`,
/// `query_all_p50_us` and `ingest_records_per_s` in the per-layer list.
pub const END_TO_END: &[MetricDef] = &[
    gated(
        "ops_per_s",
        "1/s",
        Higher,
        0.25,
        "one closed-loop client at quiet latencies: distinct queries / sum of their quiet \
         latencies (read workloads); acknowledged records / sum of the quiet latencies of a \
         repetition's ingests, queries and checkpoints (durable_rw)",
    ),
    gated(
        "query_p50_us",
        "us",
        Lower,
        0.25,
        "median over the distinct single top_k calls of their quiet latency",
    ),
    gated(
        "heap_bytes_per_entity",
        "B",
        Lower,
        0.2,
        "live heap after the bulk build minus before it, inputs excluded, per indexed entity",
    ),
    gated(
        "setup_s",
        "s",
        Lower,
        0.25,
        "fastest of 5+ set-ups from scratch: input generation + bulk build + store / durable dir \
         creation",
    ),
];

/// One layer each; from the traced run (`--trace 1`); reported, never gated.
/// A metric that does not apply to a workload reads 0 there.
pub const PER_LAYER: &[MetricDef] = &[
    // -- the issue's end-to-end metrics that exist on some workloads only ----
    layer("query_qps", "1/s", Higher, "singles completed / wall of the singles phase"),
    layer(
        "batch_qps",
        "1/s",
        Higher,
        "queries answered by top_k_batch(64) / wall of the batch phase",
    ),
    layer(
        "query_all_p50_us",
        "us",
        Lower,
        "median latency over every issued single top_k, disturbed or not",
    ),
    layer(
        "query_tail_us",
        "us",
        Lower,
        "single top_k latency at the highest of p50/p75/p90/p95/p99 with >= 10 samples beyond it",
    ),
    layer("query_p95_us", "us", Lower, "single top_k p95 (0 below 200 samples)"),
    layer("query_p99_us", "us", Lower, "single top_k p99 (0 below 1000 samples)"),
    layer("ingest_records_per_s", "1/s", Higher, "acknowledged records / sum of ingest wall"),
    layer("commit_p50_ms", "ms", Lower, "median of one durable ingest call"),
    layer("commit_p95_ms", "ms", Lower, "p95 of one durable ingest call (0 below 200 samples)"),
    layer("checkpoint_ms", "ms", Lower, "median checkpoint()"),
    layer("recover_ms", "ms", Lower, "median of 5 open() incl. WAL replay, after a torn tail"),
    layer(
        "disk_bytes_per_user_byte",
        "B/B",
        Lower,
        "bytes under the index dir after the last checkpoint / 28 B x records held",
    ),
    layer(
        "failed_share",
        "share",
        Lower,
        "ops that erred, mismatched an oracle, leaked a pin or lost a batch / ops",
    ),
    // -- trace_model::kernel ----------------------------------------------------
    layer(
        "kernel.ns_per_intersection",
        "ns",
        Lower,
        "intersection_len replayed over query x sampled candidate level slices",
    ),
    layer("kernel.mean_len", "count", Lower, "mean |a|+|b| of the replayed intersections"),
    layer("kernel.dispatch_tiny", "count", Lower, "QueryStats::kernel_dispatch.tiny per query"),
    layer("kernel.dispatch_merge", "count", Lower, "QueryStats::kernel_dispatch.merge per query"),
    layer("kernel.dispatch_gallop", "count", Lower, "QueryStats::kernel_dispatch.gallop per query"),
    layer("kernel.dispatch_simd", "count", Lower, "QueryStats::kernel_dispatch.simd per query"),
    // -- minsig::kernel -----------------------------------------------------
    layer(
        "arena.ns_per_degree",
        "ns",
        Lower,
        "CandidateArena::scan_top_k over each shard / entities scored",
    ),
    layer(
        "arena.build_ms",
        "ms",
        Lower,
        "CandidateArena::build + NodeArena::build, summed over shards",
    ),
    layer(
        "arena.resident_bytes",
        "B",
        Lower,
        "IndexSnapshot::resident_bytes summed over shards (the program's own estimate)",
    ),
    layer("synopsis.compute_ms", "ms", Lower, "Synopsis::compute, summed over shards"),
    // -- minsig::engine -----------------------------------------------------
    layer(
        "engine.checked_share",
        "share",
        Lower,
        "entities_checked / population per query: the paper's 1 - PE",
    ),
    layer("engine.nodes_visited", "count", Lower, "QueryStats::nodes_visited per query"),
    layer("engine.subtrees_pruned", "count", Higher, "QueryStats::subtrees_pruned per query"),
    layer("engine.steps", "count", Lower, "QueryStats::steps per query"),
    layer("engine.bound_updates", "count", Lower, "QueryStats::bound_updates per query"),
    layer(
        "engine.shard_topk_us",
        "us",
        Lower,
        "IndexSnapshot::top_k_for_sequence on one admitted shard alone",
    ),
    layer(
        "engine.shard_checked",
        "count",
        Lower,
        "entities_checked per query summed over admitted shards run alone (exact)",
    ),
    // -- minsig::plan -------------------------------------------------------
    layer("plan.explain_us", "us", Lower, "ShardedSnapshot::explain"),
    layer("plan.planning_us", "us", Lower, "QueryStats::planning_us per query"),
    layer("plan.shards_skipped", "count", Higher, "QueryStats::shards_skipped per query"),
    layer("plan.seeded_share", "share", Higher, "queries with QueryStats::threshold_seeded"),
    layer("plan.batch_us_per_query", "us", Lower, "plan_batch(64) / 64"),
    // -- minsig::shard and the thread pool ------------------------------------
    layer("shard.merge_us", "us", Lower, "engine::merge_top_k over the per-shard answers"),
    layer(
        "rayon.join_noop_us",
        "us",
        Lower,
        "rayon::join of two empty closures: the spawn-per-call cost",
    ),
    // -- trace_storage::{pool, store} and minsig::paged ---------------------
    layer(
        "pool.hit_rate",
        "share",
        Higher,
        "pool hits / (hits + misses) over the measured queries",
    ),
    layer(
        "pool.misses_per_query",
        "count",
        Lower,
        "PoolStats::since around each query (exact with one client)",
    ),
    layer("pool.evictions_per_query", "count", Lower, "PoolStats::since around each query"),
    layer("pool.read_amplification", "share", Lower, "misses per query / pages in the store"),
    layer(
        "pool.simulated_io_us_per_query",
        "us",
        Lower,
        "the pool's simulated I/O clock per query (accounted, not slept)",
    ),
    layer("pool.get_hit_ns", "ns", Lower, "BufferPool::get of a resident page"),
    layer(
        "pool.get_miss_ns",
        "ns",
        Lower,
        "BufferPool::get of a non-resident page (read + eviction)",
    ),
    layer("store.read_trace_us", "us", Lower, "PagedTraceStore::read_trace through the 10 % pool"),
    layer(
        "paged.full_pool_p50_us",
        "us",
        Lower,
        "the same queries at a 100 % pool: decode cost with ~0 misses",
    ),
    // -- minsig::ingest -----------------------------------------------------
    layer(
        "ingest.flush_ms",
        "ms",
        Lower,
        "ShardedMinSigIndex::ingest_batch of the same batch, no reader",
    ),
    layer(
        "ingest.flush_pinned_ms",
        "ms",
        Lower,
        "the same with the previous snapshot held (copy-on-write clone)",
    ),
    layer(
        "ingest.entities_touched",
        "count",
        Lower,
        "ShardedIngestReport::entities_touched per batch",
    ),
    // -- trace_storage::log and minsig::durable -----------------------------
    layer("log.append_fsync_us", "us", Lower, "LogManager::append of the same payloads, fsync on"),
    layer(
        "log.append_nosync_us",
        "us",
        Lower,
        "LogManager::append of the same payloads, fsync off",
    ),
    layer(
        "log.bytes_per_user_byte",
        "B/B",
        Lower,
        "WAL bytes on disk at the crash / 28 B x records in them (exact)",
    ),
    layer(
        "durable.encode_us",
        "us",
        Lower,
        "encode_sub_batch of one batch's per-shard sub-batches",
    ),
    layer(
        "durable.replay_records_per_s",
        "1/s",
        Higher,
        "records replayed / (recover_ms - persist.open_ms)",
    ),
    // -- minsig::persist ----------------------------------------------------
    layer("persist.to_bytes_ms", "ms", Lower, "IndexSnapshot::to_bytes, summed over shards"),
    layer("persist.write_ms", "ms", Lower, "segment::atomic_write_bytes of those images"),
    layer("persist.open_ms", "ms", Lower, "ShardedMinSigIndex::open of the checkpoint alone"),
    layer("persist.checkpoint_bytes", "B", Lower, "bytes of one checkpoint's shard images"),
    // -- bulk build ----------------------------------------------------------
    layer("setup_all_p50_s", "s", Lower, "median over the run's set-ups, disturbed or not"),
    layer("build.entities_per_s", "1/s", Higher, "entities / ShardedMinSigIndex::build wall"),
    layer(
        "signature.hash_evals_per_entity",
        "count",
        Lower,
        "IndexStats::hash_evaluations / entities",
    ),
    // -- memory ---------------------------------------------------------------
    layer(
        "heap.peak_bytes",
        "B",
        Lower,
        "counting-allocator high-water mark over the measured phase",
    ),
    // -- the run itself -----------------------------------------------------
    layer(
        "noise.qps_spread",
        "share",
        Lower,
        "(max - min) / median of the rates of 5 equal consecutive slices of the measured phase",
    ),
    layer(
        "noise.excess_share",
        "share",
        Lower,
        "how much slower than its op's quiet latency the median repeat ran (queries; ingests on \
         durable_rw)",
    ),
    layer(
        "trace.coverage",
        "share",
        Higher,
        "sum of replayed layer spans / op span, over the replayed ops",
    ),
    layer("trace.overhead_share", "share", Lower, "(traced - untraced query_p50_us) / untraced"),
];

/// The definition of `name`, from either list.
pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// The four workloads.  Later issues cite these names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's own SYN population, in memory.
    MemSyn,
    /// The planted hot clique over a cold background, in memory.
    MemSkewed,
    /// `mem_syn` queried out of core through a 10 % buffer pool.
    PagedSyn,
    /// Durable ingest beside reads, checkpoints, a crash and recovery.
    DurableRw,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] =
        [Workload::MemSyn, Workload::MemSkewed, Workload::PagedSyn, Workload::DurableRw];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::MemSyn => "mem_syn",
            Workload::MemSkewed => "mem_skewed",
            Workload::PagedSyn => "paged_syn",
            Workload::DurableRw => "durable_rw",
        }
    }

    /// Why the workload exists (the line `BENCHMARK.json` carries).
    pub fn why(self) -> &'static str {
        match self {
            Workload::MemSyn => {
                "paper's SYN population, 5000 entities x 4 shards: pruning checks ~every entity, \
                 so the degree kernels do nearly all the work and plan/merge/spawn almost none"
            }
            Workload::MemSkewed => {
                "hot clique in 1 of 8 shards: 7 shards skipped and ~190 entities checked, so \
                 planning, tree expansion and per-query fixed costs dominate and kernels do little"
            }
            Workload::PagedSyn => {
                "mem_syn's queries through a buffer pool a tenth of the trace data: pool, replacer, \
                 store and row materialisation dominate; in-memory vs out-of-core, like for like"
            }
            Workload::DurableRw => {
                "fsync'd WAL ingest beside reads with a held snapshot, checkpoints, a torn-tail \
                 crash and recovery: a read-path gain that taxes publish shows up here"
            }
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::valid_metric_name;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_valid_unique_and_within_the_contract_limits() {
        let mut seen = BTreeSet::new();
        for metric in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_metric_name(metric.name), "{}", metric.name);
            assert!(seen.insert(metric.name), "{} is listed twice", metric.name);
            assert!(
                !metric.unit.is_empty()
                    && metric.unit.len() <= 16
                    && metric
                        .unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "unit {:?} of {}",
                metric.unit,
                metric.name
            );
        }
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!(END_TO_END.iter().all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        let setup = find("setup_s").expect("the contract requires setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert_eq!(
            setup.bound,
            END_TO_END.iter().filter_map(|m| m.bound).reduce(f64::max),
            "setup_s takes the largest bound"
        );
    }

    #[test]
    fn workloads_parse_by_name() {
        for workload in Workload::ALL {
            assert_eq!(Workload::parse(workload.name()), Some(workload));
            assert!(valid_metric_name(workload.name()));
            assert!(workload.why().len() <= 200 && !workload.why().contains('\n'));
        }
        assert_eq!(Workload::parse("mem"), None);
    }
}
