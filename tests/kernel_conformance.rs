//! Conformance of the flat hot-path kernels (`minsig::kernel`) against the
//! owned-representation oracles:
//!
//! * the intersection kernels (three-way-compare merge, galloping, the SIMD
//!   block kernel, and the keyed kernels over the sets' keyed forms) and the
//!   dispatcher must agree on **arbitrary** sorted sets, including
//!   adversarially skewed size ratios that force the galloping path — each
//!   kernel called by name, so all of them are checked whichever one the
//!   dispatcher routes to on this machine;
//! * the arena-backed scan and the fused degree loop — which stops
//!   intersecting at the first empty level — must answer **bitwise
//!   identically** to degrees computed from the owned `CellSetSequence`
//!   maps, which intersect every level: for every pair, under every shipped
//!   measure, across every workload generator in `minsig::testkit`, the
//!   paper's SYN population, and populations reshaped by ingest unions and
//!   removals;
//! * the property the early stop rests on: every sequence the model can
//!   build is ancestor-closed, and one that is not is rejected.
//!
//! Nothing here trusts the arena's internal layout — only observable answers
//! are compared, through the same oracle helpers the sharding suites use.

use digital_traces::index::testkit::{
    assert_equivalent_answers, issued_intersections, HierarchySpec, PairedConfig,
    PlannerDispersedConfig, PlannerLocalizedConfig, PruningAdversarialConfig, SkewedConfig,
    StreamConfig, UniformConfig, Workload,
};
use digital_traces::index::{
    IndexConfig, IndexSnapshot, KernelDispatch, MinSigIndex, QueryView, TopKHeap, TopKResult,
};
use digital_traces::mobility_models::{SynConfig, SynDataset};
use digital_traces::model::adm::LevelRatio;
use digital_traces::model::kernel::{
    intersection_len, intersection_len_gallop, intersection_len_merge, intersection_len_simd,
    keyed_overlap, keyed_overlap_merge, merge_min, merge_min_scalar, push_keyed, KeyedRow,
    GALLOP_SKEW, SIMD_LANES,
};
use digital_traces::model::{CellSet, CellSetSequence, ModelError, StCell, WeightedLevelAdm};
use digital_traces::{AssociationMeasure, DiceAdm, EntityId, JaccardAdm, PaperAdm};
use proptest::prelude::*;

/// Sorts and dedups a raw value vector into kernel input form.
fn to_set(mut v: Vec<u64>) -> Vec<u64> {
    v.sort_unstable();
    v.dedup();
    v
}

/// Asserts all four intersection entry points agree on `(a, b)`, both ways,
/// and both keyed kernels on the sets' keyed forms (any sorted `u64`s are
/// packed cells).  The three-way-compare merge is the oracle; the SIMD
/// kernels must match it whatever the host has (AVX2, or the merge they fall
/// back to), and so must the dispatcher, whichever of them it routes the
/// similar-size regime to.
fn assert_kernels_agree(a: &[u64], b: &[u64]) {
    let expect = intersection_len_merge(a, b);
    let keyed = |set: &[u64]| {
        let (mut keys, mut masks) = (Vec::new(), Vec::new());
        push_keyed(set, &mut keys, &mut masks);
        (keys, masks)
    };
    let ((a_keys, a_masks), (b_keys, b_masks)) = (keyed(a), keyed(b));
    let (ka, kb) = (KeyedRow::new(&a_keys, &a_masks), KeyedRow::new(&b_keys, &b_masks));
    assert_eq!(keyed_overlap(ka, kb), expect, "keyed vs merge");
    assert_eq!(keyed_overlap_merge(ka, kb), expect, "scalar keyed vs merge");
    assert_eq!(keyed_overlap(kb, ka), expect, "keyed symmetry");
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

    /// The element-wise minimum merge is bit-identical to its scalar oracle
    /// on whatever path the CPU routes it to, at widths crossing the SIMD
    /// block boundary and values straddling the sign bit (the AVX2 kernel
    /// emulates unsigned min by sign-bit flip — the values most likely to
    /// expose a flip bug are near `i64::MAX`/`u64::MAX`).
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
        let mut routed = dst0.clone();
        merge_min(&mut routed, &src);
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
/// overlap densities each plus one of clustered cells (three units over 200
/// time units, so several cells share most keys) — every block-remainder
/// combination of the SIMD kernels, packed and keyed, the tiny-loop cutover
/// and the gallop cutover.  ~16.9k shapes × 13 kernel calls; run with
/// `cargo test -- --ignored` (CI does).
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
            let mut clustered = |len| {
                to_set(
                    (0..len).map(|_| next()).map(|r| ((r % 200) << 32) | ((r >> 32) % 3)).collect(),
                )
            };
            let (a, b) = (clustered(a_len), clustered(b_len));
            assert_kernels_agree(&a, &b);
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

/// The measures the workspace ships, at `levels` levels.
fn measures(levels: usize) -> Vec<Box<dyn AssociationMeasure>> {
    vec![
        Box::new(PaperAdm::default_for(levels)),
        Box::new(DiceAdm::uniform(levels)),
        Box::new(JaccardAdm::uniform(levels)),
        Box::new(WeightedLevelAdm::new(levels, 2.0, 1.5, LevelRatio::Containment).unwrap()),
    ]
}

/// Runs the arena-vs-owned sweep over one snapshot: every query's arena scan
/// must be bit-identical to the owned oracle (entities **and** degree bits,
/// boundary ties included) and count exactly the intersections the early
/// stop issues, and the fused degree of **every** (query, entity) pair must
/// carry the exact bits of the owned all-levels computation under every
/// measure.
fn assert_snapshot_matches_owned(snapshot: &IndexSnapshot, queries: &[EntityId], context: &str) {
    let arena = snapshot.arena();
    let seqs = snapshot.sequences();
    assert_eq!(arena.len(), seqs.len(), "{context}: arena covers the population");
    let measures = measures(arena.num_levels());
    let paper = PaperAdm::default_for(arena.num_levels());
    for &query in queries {
        let Some(query_seq) = seqs.get(&query) else { continue };
        let view = QueryView::new(query_seq);
        let issued: u64 = seqs
            .iter()
            .filter(|(&entity, _)| entity != query)
            .map(|(_, seq)| issued_intersections(query_seq, seq))
            .sum();
        for k in [1, 3, 10] {
            let mut dispatch = KernelDispatch::default();
            let (got, checked) = arena.scan_top_k(&view, Some(query), k, &paper, &mut dispatch);
            let expect = owned_scan(snapshot, query, k, &paper);
            assert_eq!(checked, seqs.len() - 1, "{context}: arena scan checks every candidate");
            assert_eq!(
                dispatch.total(),
                issued,
                "{context}: one classified intersection per level up to the first empty one"
            );
            assert_equivalent_answers(&got, &expect, &format!("{context}, query {query}, k {k}"));
        }
        for (&entity, seq) in seqs {
            let pos = arena.position(entity).expect("indexed entity is in the arena");
            for measure in &measures {
                let fused = arena.degree_at(pos, &view, measure.as_ref());
                let owned = measure.degree(query_seq, seq);
                assert_eq!(
                    fused.to_bits(),
                    owned.to_bits(),
                    "{context}, {}: fused degree of {entity} vs query {query} drifted \
                     ({fused} vs {owned})",
                    measure.name()
                );
            }
        }
    }
}

/// [`assert_snapshot_matches_owned`] over a workload's index, as built and
/// again after the population was reshaped: a stream ingested into existing
/// entities (level-wise unions) and new ones, then every third entity
/// removed (empty and one-entity subtrees in the tree the snapshot carries).
fn assert_arena_matches_owned(workload: &Workload, context: &str) {
    let mut index = workload.build_index(IndexConfig::default());
    let queries = workload.sample_entities(12, 7);
    assert_snapshot_matches_owned(&index.snapshot(), &queries, context);

    let entities = workload.entities();
    let stream = workload.stream(StreamConfig {
        records: 4 * entities.len().min(60),
        existing_entities: entities.len() as u64,
        seed: 0x1e5 ^ entities.len() as u64,
        ..StreamConfig::default()
    });
    index.ingest_batch(stream).unwrap();
    for &entity in entities.iter().step_by(3) {
        index.remove_entity(entity).unwrap();
    }
    let snapshot = index.snapshot();
    let survivors: Vec<EntityId> = snapshot.sequences().keys().copied().step_by(5).collect();
    assert_snapshot_matches_owned(&snapshot, &survivors, &format!("{context}, reshaped"));
}

/// The arena answers bit-identically to the owned path on every workload
/// generator the testkit offers — uniform, paired, skewed, degenerate and
/// planner-adversarial populations alike — before and after reshaping.
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

/// The paper's SYN population at the end-to-end benchmark's parameters (a
/// week, a fifth co-moving, default mobility and hierarchy): the population
/// whose pairs mostly share nothing at level 1, so the early stop skips most
/// of the work — and must change no bit.  `entities` scales the run.
fn assert_syn_matches_owned(entities: usize, queries: usize) {
    let dataset = SynDataset::generate(SynConfig {
        num_entities: entities,
        days: 7,
        comover_fraction: 0.2,
        seed: 1,
        ..SynConfig::default()
    })
    .unwrap();
    let config = IndexConfig::with_hash_functions(32);
    let index = MinSigIndex::build(dataset.sp_index(), &dataset.traces, config).unwrap();
    let snapshot = index.snapshot();
    let step = (entities / queries).max(1);
    let queries: Vec<EntityId> = snapshot.sequences().keys().copied().step_by(step).collect();
    // The population really is the early stop's: most pairs are empty at
    // level 1 already.
    let (mut pairs, mut issued) = (0u64, 0u64);
    for query in &queries {
        for seq in snapshot.sequences().values() {
            pairs += 1;
            issued += issued_intersections(&snapshot.sequences()[query], seq);
        }
    }
    assert!(issued < 2 * pairs, "{issued} intersections for {pairs} pairs of 4 levels");
    assert_snapshot_matches_owned(&snapshot, &queries, &format!("syn({entities})"));
}

#[test]
fn arena_matches_owned_path_on_the_syn_population() {
    assert_syn_matches_owned(300, 6);
}

/// The same at the benchmark's own 5 000 entities (64 queries × 5 000
/// candidates × 4 measures); run with `cargo test --release -- --ignored`.
#[test]
#[ignore = "5 000-entity SYN build; run explicitly or via the CI stress job"]
fn arena_matches_owned_path_on_the_full_syn_population() {
    assert_syn_matches_owned(5_000, 64);
}

/// The rows of `sequence`, re-checked through the validating constructor:
/// `Ok` exactly when every finer cell's parent cell is one level up.
fn revalidate(
    sp: &digital_traces::SpIndex,
    rows: impl Iterator<Item = Vec<u64>>,
) -> Result<CellSetSequence, ModelError> {
    let sets = rows
        .map(|row| CellSet::from_sorted_unique(row.into_iter().map(StCell::from_packed).collect()))
        .collect();
    CellSetSequence::from_level_sets(sp, sets)
}

fn rows_of(seq: &CellSetSequence) -> impl Iterator<Item = Vec<u64>> + '_ {
    seq.iter_levels().map(|(_, set)| set.packed_slice().to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// What the early stop rests on: every sequence the model builds — by
    /// projection (`from_base_cells`, via `cell_sequence`) and by level-wise
    /// `union` — is ancestor-closed, and taking one parent cell away is
    /// caught.
    #[test]
    fn every_built_sequence_is_ancestor_closed(
        entities in 2u64..24,
        visits in 1u64..8,
        seed in 0u64..1_000,
    ) {
        let w = Workload::uniform(UniformConfig {
            entities,
            visits,
            time_slots: 24,
            hierarchy: HierarchySpec::new(2, &[3, 2]),
            seed,
        });
        let seqs = w.traces.cell_sequences(&w.sp).unwrap();
        let mut previous: Option<&CellSetSequence> = None;
        for seq in seqs.values() {
            prop_assert_eq!(&revalidate(&w.sp, rows_of(seq)).unwrap(), seq);
            if let Some(previous) = previous {
                let union = previous.union(seq);
                prop_assert_eq!(&revalidate(&w.sp, rows_of(&union)).unwrap(), &union);
                prop_assert!(union.total_cells() >= seq.total_cells());
            }
            previous = Some(seq);

            // Drop one coarse cell that a finer cell hangs under.
            let mut broken: Vec<Vec<u64>> = rows_of(seq).collect();
            if !broken[1].is_empty() {
                broken[0].remove(0);
                let rejected = revalidate(&w.sp, broken.into_iter());
                prop_assert!(matches!(rejected, Err(ModelError::InvalidSequence(_))));
            }
        }
        // The wrong number of levels is not a sequence of this hierarchy.
        prop_assert!(CellSetSequence::from_level_sets(&w.sp, vec![CellSet::new()]).is_err());
    }
}
