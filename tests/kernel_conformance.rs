//! Conformance of the flat hot-path kernels (`minsig::kernel`) against the
//! owned-representation oracles:
//!
//! * the three intersection kernels (three-way-compare merge, explicit-mask
//!   merge, galloping) and the size-ratio dispatcher must agree on
//!   **arbitrary** sorted sets, including adversarially skewed size ratios
//!   that force the galloping path;
//! * the arena-backed scan and fused degree loop must answer **bitwise
//!   identically** to degrees computed from the owned `CellSetSequence`
//!   maps, across every workload generator in `minsig::testkit`.
//!
//! Nothing here trusts the arena's internal layout — only observable answers
//! are compared, through the same oracle helpers the sharding suites use.

use digital_traces::index::testkit::{
    assert_equivalent_answers, HierarchySpec, PairedConfig, PlannerDispersedConfig,
    PlannerLocalizedConfig, PruningAdversarialConfig, SkewedConfig, UniformConfig, Workload,
};
use digital_traces::index::{
    IndexConfig, IndexSnapshot, KernelDispatch, QueryView, TopKHeap, TopKResult,
};
use digital_traces::model::kernel::{
    intersection_len, intersection_len_gallop, intersection_len_merge, intersection_len_simd,
    merge_min, merge_min_scalar, merge_min_simd, GALLOP_SKEW, SIMD_LANES,
};
use digital_traces::{AssociationMeasure, EntityId, PaperAdm};
use proptest::prelude::*;

/// Sorts and dedups a raw value vector into kernel input form.
fn to_set(mut v: Vec<u64>) -> Vec<u64> {
    v.sort_unstable();
    v.dedup();
    v
}

/// Asserts all four intersection entry points agree on `(a, b)`, both ways.
/// The three-way-compare merge is the oracle; the SIMD kernel must match it
/// whatever instruction set the host actually has (AVX2, SSE2-only, or the
/// non-x86 scalar fallback), and the dispatcher must match it with the
/// `simd` cargo feature both on and off.
fn assert_kernels_agree(a: &[u64], b: &[u64]) {
    let expect = intersection_len_merge(a, b);
    assert_eq!(intersection_len_gallop(a, b), expect, "gallop vs merge");
    assert_eq!(intersection_len_simd(a, b), expect, "simd vs merge");
    assert_eq!(intersection_len(a, b), expect, "dispatcher vs merge");
    // Intersection size is symmetric; the kernels must be too.
    assert_eq!(intersection_len_merge(b, a), expect, "merge symmetry");
    assert_eq!(intersection_len_gallop(b, a), expect, "gallop symmetry");
    assert_eq!(intersection_len_simd(b, a), expect, "simd symmetry");
    assert_eq!(intersection_len(b, a), expect, "dispatcher symmetry");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// All intersection kernels agree on arbitrary sorted sets of similar size.
    #[test]
    fn kernels_agree_on_similar_sizes(
        a in proptest::collection::vec(0u64..512, 0..96),
        b in proptest::collection::vec(0u64..512, 0..96),
    ) {
        let (a, b) = (to_set(a), to_set(b));
        assert_kernels_agree(&a, &b);
    }

    /// All intersection kernels agree under adversarial size skew: a tiny
    /// probe side against a large sorted side drawn from an overlapping
    /// domain, which is exactly the regime the dispatcher hands to the
    /// galloping kernel.
    #[test]
    fn kernels_agree_on_skewed_ratios(
        small in proptest::collection::vec(0u64..4096, 0..24),
        large in proptest::collection::vec(0u64..4096, 256..1536),
    ) {
        let (small, large) = (to_set(small), to_set(large));
        if !small.is_empty() {
            // The generated ratio really is in galloping territory.
            prop_assert!(small.len().saturating_mul(GALLOP_SKEW) <= large.len()
                || large.len() < 256);
        }
        assert_kernels_agree(&small, &large);
    }

    /// Adversarial shapes for the SIMD block scheme: inputs whose lengths sit
    /// on and around multiples of the lane width, drawn from a tiny domain so
    /// duplicates-after-dedup, long equal runs and dense overlap all occur.
    #[test]
    fn kernels_agree_on_lane_width_boundaries(
        a_len in 0usize..=3 * SIMD_LANES + 1,
        b_len in 0usize..=3 * SIMD_LANES + 1,
        a_start in 0u64..16,
        b_start in 0u64..16,
        stride in 1u64..4,
    ) {
        let a: Vec<u64> = (0..a_len as u64).map(|i| a_start + i * stride).collect();
        let b: Vec<u64> = (0..b_len as u64).map(|i| b_start + i).collect();
        assert_kernels_agree(&a, &b);
    }

    /// Maximal skew: a singleton (or empty) probe against a large dense side,
    /// with the probe placed before, inside and after the large domain.
    #[test]
    fn kernels_agree_on_maximal_skew(
        probe in proptest::collection::vec(0u64..8192, 0..2),
        large_len in 512usize..2048,
        large_start in 0u64..2048,
    ) {
        let large: Vec<u64> = (0..large_len as u64).map(|i| large_start + i * 2).collect();
        assert_kernels_agree(&probe, &large);
    }

    /// The element-wise minimum merges are bit-identical: scalar oracle,
    /// explicit SIMD, and the feature-routed entry point, at widths crossing
    /// the SIMD block boundary and values straddling the sign bit (the AVX2
    /// kernel emulates unsigned min by sign-bit flip — the values most likely
    /// to expose a flip bug are near `i64::MAX`/`u64::MAX`).
    #[test]
    fn merge_min_variants_are_bit_identical(
        a in proptest::collection::vec(proptest::prelude::any::<u64>(), 0..3 * SIMD_LANES + 2),
        b in proptest::collection::vec(proptest::prelude::any::<u64>(), 0..3 * SIMD_LANES + 2),
    ) {
        let width = a.len().min(b.len());
        let dst0: Vec<u64> = a[..width].to_vec();
        let src: Vec<u64> = b[..width].to_vec();
        let mut scalar = dst0.clone();
        merge_min_scalar(&mut scalar, &src);
        let mut simd = dst0.clone();
        merge_min_simd(&mut simd, &src);
        let mut routed = dst0.clone();
        merge_min(&mut routed, &src);
        prop_assert_eq!(&scalar, &simd);
        prop_assert_eq!(&scalar, &routed);
        for (i, (&d, &s)) in dst0.iter().zip(&src).enumerate() {
            prop_assert_eq!(scalar[i], d.min(s));
        }
    }
}

/// Exhaustive degenerate shapes: empty-vs-everything, singletons at every
/// position of a block-spanning set, fully identical sets, and disjoint
/// alternating interleavings — each exercised through every kernel.
#[test]
fn kernels_agree_on_degenerate_shapes() {
    let spanning: Vec<u64> = (0..3 * SIMD_LANES as u64 + 1).map(|x| x * 3).collect();
    // Empty vs empty and empty vs non-empty.
    assert_kernels_agree(&[], &[]);
    assert_kernels_agree(&[], &spanning);
    // A singleton probing every element (hit) and every gap (miss).
    for &x in &spanning {
        assert_kernels_agree(&[x], &spanning);
        assert_kernels_agree(&[x + 1], &spanning);
    }
    // Identical sets: overlap == len, whatever the kernel.
    assert_eq!(intersection_len_simd(&spanning, &spanning), spanning.len());
    assert_kernels_agree(&spanning, &spanning);
    // Perfectly alternating disjoint interleave: the worst case for the
    // block-advance rule (every block pair overlaps in range, zero matches).
    let evens: Vec<u64> = (0..64).map(|x| x * 2).collect();
    let odds: Vec<u64> = (0..64).map(|x| x * 2 + 1).collect();
    assert_eq!(intersection_len_simd(&evens, &odds), 0);
    assert_kernels_agree(&evens, &odds);
}

/// Exhaustive sweep over **all** length pairs `0..=64 × 0..=64`, three
/// overlap densities each — every block-remainder combination of the SIMD
/// kernels, the tiny-loop cutover and the gallop cutover.  ~12.7k shapes ×
/// 10 kernel calls; run with `cargo test -- --ignored` (CI does).
#[test]
#[ignore = "exhaustive; run explicitly or via the CI kernel sweep"]
fn exhaustive_length_sweep() {
    // Deterministic splitmix64 — keeps the sweep reproducible without rand.
    let mut state = 0x9e3779b97f4a7c15u64;
    let mut next = move || {
        state = state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    };
    for a_len in 0usize..=64 {
        for b_len in 0usize..=64 {
            for domain in [96u64, 512, 1 << 40] {
                let a = to_set((0..a_len).map(|_| next() % domain).collect());
                let b = to_set((0..b_len).map(|_| next() % domain).collect());
                assert_kernels_agree(&a, &b);
            }
        }
    }
}

/// Structured worst cases the random generator is unlikely to hit exactly:
/// runs of shared prefixes/suffixes, strided interleavings, and
/// boundary-of-dispatch sizes on both sides of `GALLOP_SKEW`.
#[test]
fn kernels_agree_on_structured_edge_cases() {
    let dense: Vec<u64> = (0..1024).collect();
    let stride3: Vec<u64> = (0..1024).map(|x| x * 3).collect();
    let tail: Vec<u64> = (1000..1100).collect();
    let singleton_hit = vec![511u64];
    let singleton_miss = vec![5000u64];
    let boundary_small: Vec<u64> = (0..dense.len() / GALLOP_SKEW).map(|x| x as u64 * 7).collect();
    let just_under: Vec<u64> = (0..dense.len() / GALLOP_SKEW + 1).map(|x| x as u64 * 7).collect();
    let sets: [&[u64]; 8] = [
        &dense,
        &stride3,
        &tail,
        &singleton_hit,
        &singleton_miss,
        &boundary_small,
        &just_under,
        &[],
    ];
    for a in sets {
        for b in sets {
            assert_kernels_agree(a, b);
        }
    }
}

/// The owned-representation oracle: a flat scan over the snapshot's
/// `CellSetSequence` map, scoring through `AssociationMeasure::degree` — the
/// pre-arena hot path, kept here as ground truth.
fn owned_scan(
    snapshot: &IndexSnapshot,
    query: EntityId,
    k: usize,
    measure: &PaperAdm,
) -> Vec<TopKResult> {
    let seqs = snapshot.sequences();
    let query_seq = seqs.get(&query).expect("query entity is indexed");
    let mut top = TopKHeap::new(k);
    for (&entity, seq) in seqs {
        if entity != query {
            top.offer(entity, measure.degree(query_seq, seq));
        }
    }
    top.into_sorted()
}

/// Runs the arena-vs-owned sweep for one workload: every sampled query's
/// arena scan must be bit-identical to the owned oracle (entities **and**
/// degree bits, boundary ties included), and every per-entity fused degree
/// must carry the exact bits of the owned computation.
fn assert_arena_matches_owned(workload: &Workload, context: &str) {
    let index = workload.build_index(IndexConfig::default());
    let snapshot = index.snapshot();
    let measure = workload.measure();
    let arena = snapshot.arena();
    let seqs = snapshot.sequences();
    assert_eq!(arena.len(), seqs.len(), "{context}: arena covers the population");
    for query in workload.sample_entities(12, 7) {
        let query_seq = match seqs.get(&query) {
            Some(seq) => seq,
            None => continue,
        };
        let view = QueryView::new(query_seq);
        for k in [1, 3, 10] {
            let mut dispatch = KernelDispatch::default();
            let (got, checked) = arena.scan_top_k(&view, Some(query), k, &measure, &mut dispatch);
            let expect = owned_scan(&snapshot, query, k, &measure);
            assert_eq!(checked, seqs.len() - 1, "{context}: arena scan checks every candidate");
            assert_eq!(
                dispatch.total(),
                (checked * arena.num_levels()) as u64,
                "{context}: every per-level intersection is classified exactly once"
            );
            assert_equivalent_answers(&got, &expect, &format!("{context}, query {query}, k {k}"));
        }
        for (&entity, seq) in seqs.iter().take(64) {
            let pos = arena.position(entity).expect("indexed entity is in the arena");
            let fused = arena.degree_at(pos, &view, &measure);
            let owned = measure.degree(query_seq, seq);
            assert_eq!(
                fused.to_bits(),
                owned.to_bits(),
                "{context}: fused degree of {entity} vs query {query} drifted ({fused} vs {owned})"
            );
        }
    }
}

/// The arena answers bit-identically to the owned path on every workload
/// generator the testkit offers — uniform, paired, skewed, degenerate and
/// planner-adversarial populations alike.
#[test]
fn arena_matches_owned_path_across_all_generators() {
    assert_arena_matches_owned(&Workload::uniform(UniformConfig::default()), "uniform");
    assert_arena_matches_owned(&Workload::paired(PairedConfig::default()), "paired");
    assert_arena_matches_owned(&Workload::skewed(SkewedConfig::default()), "skewed");
    assert_arena_matches_owned(
        &Workload::all_identical(24, HierarchySpec::default()),
        "all_identical",
    );
    assert_arena_matches_owned(
        &Workload::one_cell_pileup(24, HierarchySpec::default()),
        "one_cell_pileup",
    );
    assert_arena_matches_owned(&Workload::degenerate_mix(HierarchySpec::default()), "degenerate");
    let (w, _) = Workload::pruning_adversarial(PruningAdversarialConfig::default());
    assert_arena_matches_owned(&w, "pruning_adversarial");
    let (w, _) = Workload::planner_localized(PlannerLocalizedConfig::default());
    assert_arena_matches_owned(&w, "planner_localized");
    let (w, _) = Workload::planner_dispersed(PlannerDispersedConfig::default());
    assert_arena_matches_owned(&w, "planner_dispersed");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arena-vs-owned bit-identity holds for *arbitrary* uniform populations,
    /// not just the fixed generator defaults.
    #[test]
    fn arena_matches_owned_path_on_random_populations(
        entities in 2u64..48,
        visits in 1u64..10,
        seed in 0u64..1_000,
    ) {
        let w = Workload::uniform(UniformConfig {
            entities,
            visits,
            time_slots: 24,
            hierarchy: HierarchySpec::default(),
            seed,
        });
        assert_arena_matches_owned(&w, &format!("uniform({entities},{visits},{seed})"));
    }
}
