//! Hot-path kernel microbenchmarks and their CI regression gate.
//!
//! Three layers, matching the flat-kernel design (`minsig::kernel`):
//!
//! 1. **ns/op** of the intersection kernels — three-way-compare merge,
//!    explicit-mask merge, galloping, the SIMD blockwise kernel, and the
//!    size-ratio dispatcher — over deterministic sorted sets on a full
//!    size × skew grid: larger-side sizes {16, 256, 4096} × size ratios
//!    {1×, 8×, 64×}.  A comparison is one element step of the two-pointer
//!    walk, so `comparisons = |a| + |b|` per call.
//! 2. **ns/degree** of the association-degree hot loop: the owned path
//!    (`AssociationMeasure::degree` over `CellSetSequence` maps) against the
//!    arena's fused loop (`CandidateArena::degree_into`), on the shared
//!    600-entity bench dataset.  Every fused degree is checked **bitwise**
//!    against the owned value first — any drift panics the bench job.  A
//!    **pop-order leg** repeats the fused loop over the 5 000-entity SYN
//!    arena twice — rows in ascending position order, and in one fixed
//!    shuffled order, which is how a best-first search reaches them: the
//!    600-entity sequential figure fits in cache and prefetches perfectly,
//!    so it cannot see what the row layout costs the executor.
//! 3. A mini **shard run** — 8 shards, planned mode, the skewed and
//!    localized 5k-entity shard-scaling populations — for a fresh QPS
//!    figure next to the pre-change numbers.
//!
//! After the criterion groups, the harness re-measures each layer with
//! best-of-N wall clocks and writes **`BENCH_kernel.json`** at the
//! workspace root.  The artifact embeds the committed baseline
//! (`crates/bench/baselines/kernel.json`), which carries the pre-change
//! shard-scaling QPS and the arena ns/degree recorded when the kernels
//! landed, and records whether the dispatcher found AVX2 on this machine
//! (which is what routes the similar-size regime to the SIMD kernel).  Three
//! gates **panic** (failing the bench job):
//!
//! * any intersection kernel diverging from the merge oracle on any grid
//!   shape, or any fused arena degree diverging bitwise from the owned
//!   oracle;
//! * the SIMD kernel losing to the scalar merge in the similar-size regime
//!   at ≥ 256 elements (the regime the dispatcher routes to it);
//! * arena ns/degree regressing more than 25% over the committed baseline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use minsig::testkit::Rng64;
use minsig::{IndexConfig, QueryView, ShardedMinSigIndex, TopKResult};
use minsig_bench::{
    bench_dataset, bench_index, bench_measure, bench_queries, independent_top_k,
    planner_bench_workload, shard_bench_workload, syn_5k_dataset, SHARD_BENCH_ENTITIES,
};
use std::hint::black_box;
use std::time::Instant;
use trace_model::kernel::{
    dispatch_class, intersection_len, intersection_len_gallop, intersection_len_merge,
    intersection_len_simd, KernelClass,
};
use trace_model::{AssociationMeasure, EntityId, LevelOverlap, PaperAdm};

/// The committed baseline this run is gated against.
const BASELINE: &str = include_str!("../baselines/kernel.json");

/// Maximum tolerated arena ns/degree, as a multiple of the baseline.
const NS_PER_DEGREE_TOLERANCE: f64 = 1.25;

const K: usize = 10;

/// A deterministic *pseudo-random* sorted set: `len` strictly-increasing
/// values with xorshift-drawn gaps in `1..=8`.  Random gaps (rather than a
/// fixed stride) keep the two-pointer comparisons unpredictable — the regime
/// the kernels are selected for; a strided set would hand any branchy
/// formulation a perfect branch predictor and measure nothing real.
fn make_set(len: usize, seed: u64) -> Vec<u64> {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut value = 0u64;
    (0..len)
        .map(|_| {
            value += next() % 8 + 1;
            value
        })
        .collect()
}

/// The size × skew grid the kernels are measured on: larger-side sizes
/// {16, 256, 4096} × size ratios {1×, 8×, 64×} (the smaller side is
/// `size / skew`, clamped to 1).  Both sides draw gaps from the same dense
/// domain, so intersections are non-trivial on every shape.
fn shapes() -> Vec<(String, Vec<u64>, Vec<u64>)> {
    let mut out = Vec::new();
    for &size in &[16usize, 256, 4096] {
        for &skew in &[1usize, 8, 64] {
            let small = (size / skew).max(1);
            out.push((
                format!("{small}x{size}_r{skew}"),
                make_set(small, 42),
                make_set(size, 1337),
            ));
        }
    }
    out
}

/// The two-pointer merge with advance and count updates spelled as explicit
/// comparison masks (`i += (x <= y)`) — the grid's reference point for what
/// LLVM's conditional moves buy the three-way-compare merge.  It loses to the
/// merge on current x86-64 codegen, so no library path uses it and it lives
/// only here.
fn intersection_len_masked(a: &[u64], b: &[u64]) -> usize {
    let (mut i, mut j, mut count) = (0usize, 0usize, 0usize);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        count += usize::from(x == y);
        i += usize::from(x <= y);
        j += usize::from(y <= x);
    }
    count
}

type IntersectionFn = fn(&[u64], &[u64]) -> usize;

const KERNELS: [(&str, IntersectionFn); 5] = [
    ("merge", intersection_len_merge),
    ("masked", intersection_len_masked),
    ("gallop", intersection_len_gallop),
    ("simd", intersection_len_simd),
    ("dispatch", intersection_len),
];

fn kernel_micro(c: &mut Criterion) {
    let shapes = shapes();
    let mut group = c.benchmark_group("kernel/intersection");
    group.sample_size(20);
    for (shape, a, b) in &shapes {
        for (name, f) in KERNELS {
            group.throughput(Throughput::Elements((a.len() + b.len()) as u64));
            group.bench_function(BenchmarkId::new(name.to_string(), shape), |bch| {
                bch.iter(|| black_box(f(black_box(a), black_box(b))))
            });
        }
    }
    group.finish();

    // The degree loop on the shared 600-entity dataset.
    let dataset = bench_dataset();
    let index = bench_index(&dataset, 32);
    let snapshot = index.snapshot();
    let measure = bench_measure(&dataset);
    let query = bench_queries(&dataset, 1)[0];
    let query_seq = snapshot.sequences().get(&query).expect("query entity is indexed").clone();

    let mut group = c.benchmark_group("kernel/degree");
    group.sample_size(10);
    group.throughput(Throughput::Elements(snapshot.num_entities() as u64));
    group.bench_function("owned", |b| {
        b.iter(|| {
            let mut acc = 0.0f64;
            for seq in snapshot.sequences().values() {
                acc += measure.degree(&query_seq, seq);
            }
            black_box(acc)
        })
    });
    group.bench_function("arena_fused", |b| {
        let arena = snapshot.arena();
        let view = QueryView::new(&query_seq);
        let mut scratch = LevelOverlap::default();
        b.iter(|| {
            let mut acc = 0.0f64;
            for pos in 0..arena.len() {
                acc += arena.degree_into(pos, &view, &measure, &mut scratch);
            }
            black_box(acc)
        })
    });
    group.finish();

    // The JSON artifact plus the two CI gates.
    write_artifact_and_gate(&snapshot, &query_seq, &measure);
}

/// Best-of-N wall clock of `reps` calls to `f`, in nanoseconds per call.
fn best_ns_per_call(passes: usize, reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..passes {
        let start = Instant::now();
        for _ in 0..reps {
            f();
        }
        best = best.min(start.elapsed().as_secs_f64());
    }
    best * 1e9 / reps as f64
}

/// Extracts a numeric field from the (flat, hand-written) baseline JSON.
fn baseline_field(key: &str) -> f64 {
    let needle = format!("\"{key}\":");
    let at = BASELINE.find(&needle).unwrap_or_else(|| panic!("baseline is missing {key}"));
    let rest = &BASELINE[at + needle.len()..];
    let end = rest.find([',', '}', '\n']).unwrap_or(rest.len());
    rest[..end].trim().parse().unwrap_or_else(|e| panic!("baseline {key} is not a number: {e}"))
}

fn write_artifact_and_gate(
    snapshot: &minsig::IndexSnapshot,
    query_seq: &trace_model::CellSetSequence,
    measure: &PaperAdm,
) {
    const PASSES: usize = 5;
    let mut rows = Vec::new();

    // Layer 1: ns/op of every kernel on every grid shape, with two gates —
    // every kernel must return the merge oracle's exact count, and the SIMD
    // kernel must not lose to the scalar merge in the regime the dispatcher
    // hands it (similar sizes, ≥ 256 elements).
    for (shape, a, b) in &shapes() {
        let comparisons = (a.len() + b.len()) as f64;
        let expect = intersection_len_merge(a, b);
        let mut merge_ns = f64::NAN;
        let mut simd_ns = f64::NAN;
        for (name, f) in KERNELS {
            assert_eq!(
                f(a, b),
                expect,
                "kernel {name} diverged from the merge oracle on shape {shape}"
            );
            let ns_call = best_ns_per_call(PASSES, 400, || {
                black_box(f(black_box(a), black_box(b)));
            });
            match name {
                "merge" => merge_ns = ns_call,
                "simd" => simd_ns = ns_call,
                _ => {}
            }
            rows.push(format!(
                concat!(
                    "    {{\"layer\": \"intersection\", \"kernel\": \"{}\", \"shape\": \"{}\", ",
                    "\"ns_per_call\": {:.1}, \"ns_per_comparison\": {:.4}}}"
                ),
                name,
                shape,
                ns_call,
                ns_call / comparisons,
            ));
        }
        if a.len() == b.len() && b.len() >= 256 {
            assert!(
                simd_ns <= merge_ns,
                "SIMD kernel lost to the scalar merge on similar-size shape {shape} \
                 ({simd_ns:.1} ns vs {merge_ns:.1} ns): the dispatcher routes this \
                 regime to SIMD, so it must at least break even"
            );
        }
    }

    // Layer 2: ns/degree, owned vs fused — gated on bitwise conformance and
    // on the committed ns/degree baseline.
    let arena = snapshot.arena();
    let view = QueryView::new(query_seq);
    let mut scratch = LevelOverlap::default();
    let entities = snapshot.num_entities() as f64;
    for (seq, pos) in snapshot.sequences().values().zip(0..arena.len()) {
        let owned = measure.degree(query_seq, seq);
        let fused = arena.degree_into(pos, &view, measure, &mut scratch);
        assert!(
            owned.to_bits() == fused.to_bits(),
            "arena degree diverged from the owned oracle at arena position {pos}: \
             {fused} vs {owned}"
        );
    }
    let owned_ns = best_ns_per_call(PASSES, 20, || {
        let mut acc = 0.0f64;
        for seq in snapshot.sequences().values() {
            acc += measure.degree(query_seq, seq);
        }
        black_box(acc);
    }) / entities;
    let arena_ns = best_ns_per_call(PASSES, 20, || {
        let mut acc = 0.0f64;
        for pos in 0..arena.len() {
            acc += arena.degree_into(pos, &view, measure, &mut scratch);
        }
        black_box(acc);
    }) / entities;
    rows.push(format!(
        "    {{\"layer\": \"degree\", \"path\": \"owned\", \"ns_per_degree\": {owned_ns:.1}}}"
    ));
    rows.push(format!(
        "    {{\"layer\": \"degree\", \"path\": \"arena_fused\", \"ns_per_degree\": {arena_ns:.1}}}"
    ));
    rows.extend(pop_order_rows());
    let ceiling = baseline_field("ns_per_degree_arena") * NS_PER_DEGREE_TOLERANCE;
    assert!(
        arena_ns <= ceiling,
        "arena ns/degree regressed: measured {arena_ns:.1} ns exceeds the gate of \
         {ceiling:.1} ns (committed baseline × {NS_PER_DEGREE_TOLERANCE}); if the \
         regression is intended, refresh crates/bench/baselines/kernel.json"
    );

    // Layer 3: fresh planned-mode QPS at 8 shards on both shard-scaling
    // populations, answers checked against the unplanned oracle.
    let (skewed, skewed_queries) = shard_bench_workload();
    rows.push(shard_row("skewed", &skewed, &skewed_queries));
    let (localized, localized_queries) = planner_bench_workload();
    rows.push(shard_row("localized", &localized, &localized_queries));

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"kernel\",\n",
            "  \"avx2_detected\": {},\n",
            "  \"population\": {},\n",
            "  \"k\": {},\n",
            "  \"results\": [\n{}\n  ],\n",
            "  \"baseline\": {}\n",
            "}}\n"
        ),
        dispatch_class(256, 256) == KernelClass::Simd,
        SHARD_BENCH_ENTITIES,
        K,
        rows.join(",\n"),
        BASELINE.trim_end(),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernel.json");
    match std::fs::write(path, &json) {
        Ok(()) => eprintln!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

/// The pop-order leg of layer 2: ns/degree of the fused loop over the 5k SYN
/// arena, rows visited in ascending position order and in one fixed shuffled
/// order (both sum the same degrees, checked bitwise).
fn pop_order_rows() -> Vec<String> {
    let dataset = syn_5k_dataset();
    let index = bench_index(&dataset, 32);
    let snapshot = index.snapshot();
    let measure = bench_measure(&dataset);
    let query = bench_queries(&dataset, 1)[0];
    let query_seq = snapshot.sequences().get(&query).expect("query entity is indexed");
    let arena = snapshot.arena();
    let view = QueryView::new(query_seq);
    let mut scratch = LevelOverlap::default();

    let ascending: Vec<usize> = (0..arena.len()).collect();
    let mut shuffled = ascending.clone();
    let mut rng = Rng64::new(0x9e37_79b9_7f4a_7c15);
    for i in (1..shuffled.len()).rev() {
        shuffled.swap(i, rng.below(i as u64 + 1) as usize);
    }

    let mut sweep = |order: &[usize]| {
        let mut acc = 0u64;
        for &pos in order {
            acc ^= arena.degree_into(pos, &view, &measure, &mut scratch).to_bits();
        }
        acc
    };
    assert_eq!(sweep(&ascending), sweep(&shuffled), "the two orders score the same rows");
    [("ascending", &ascending), ("shuffled", &shuffled)]
        .into_iter()
        .map(|(name, order)| {
            let ns = best_ns_per_call(15, 1, || {
                black_box(sweep(black_box(order)));
            }) / order.len() as f64;
            format!(
                concat!(
                    "    {{\"layer\": \"degree\", \"path\": \"arena_fused_syn5k\", ",
                    "\"order\": \"{}\", \"ns_per_degree\": {:.1}}}"
                ),
                name, ns
            )
        })
        .collect()
}

/// One timed planned-mode pass at 8 shards over `queries`, answers asserted
/// equal to the independent-mode oracle; returns the artifact row.
fn shard_row(name: &str, workload: &minsig::testkit::Workload, queries: &[EntityId]) -> String {
    const PASSES: usize = 3;
    let measure = workload.measure();
    let index = ShardedMinSigIndex::build(
        &workload.sp,
        &workload.traces,
        IndexConfig::with_hash_functions(32),
        8,
    )
    .expect("sharded bench index builds");
    let snapshot = index.snapshot();
    let oracle: Vec<Vec<TopKResult>> =
        queries.iter().map(|&q| independent_top_k(&snapshot, q, K, &measure).0).collect();
    let mut best = f64::INFINITY;
    for _ in 0..PASSES {
        let start = Instant::now();
        for (i, &query) in queries.iter().enumerate() {
            let (results, _) = snapshot.top_k(query, K, &measure).expect("planned query answers");
            assert_eq!(
                results, oracle[i],
                "{name}/planned/8 shards: answers diverged from the unplanned oracle \
                 for query {query}"
            );
            black_box(&results);
        }
        best = best.min(start.elapsed().as_secs_f64());
    }
    let qps = queries.len() as f64 / best.max(1e-12);
    format!(
        concat!(
            "    {{\"layer\": \"shard\", \"workload\": \"{}\", \"shards\": 8, ",
            "\"mode\": \"planned\", \"qps\": {:.1}}}"
        ),
        name, qps,
    )
}

criterion_group!(
    name = kernel;
    config = Criterion::default();
    targets = kernel_micro
);
criterion_main!(kernel);
