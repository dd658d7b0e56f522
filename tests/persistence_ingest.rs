//! Cross-crate durability and streaming-ingestion tests: a persisted index
//! must reload bit-identically for *arbitrary* workloads, a damaged file must
//! never load, and an ingest batch must publish exactly one snapshot epoch
//! that in-flight readers do not observe.

use digital_traces::index::{
    CandidateArena, IndexConfig, IngestBuffer, JoinOptions, MinSigIndex, NodeArena, Synopsis,
};
use digital_traces::{
    DigitalTrace, EntityId, IndexSnapshot, PaperAdm, Period, PresenceInstance, SpIndex, TraceSet,
};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// An arbitrary small trace workload over a fixed 3-level hierarchy: every
/// element is `(entity 0..12, base-unit index 0..24, start hour 0..48,
/// duration 1..5 hours)`.
fn workload_strategy() -> impl Strategy<Value = Vec<(u64, usize, u64, u64)>> {
    proptest::collection::vec((0u64..12, 0usize..24, 0u64..48, 1u64..5), 1..120)
}

fn record_of(base: &[u32], item: (u64, usize, u64, u64)) -> PresenceInstance {
    let (entity, unit, start_hour, hours) = item;
    let start = start_hour * 60;
    PresenceInstance::new(
        EntityId(entity),
        base[unit % base.len()],
        Period::new(start, start + hours * 60).unwrap(),
    )
}

fn build_traces(workload: &[(u64, usize, u64, u64)]) -> (SpIndex, TraceSet) {
    let sp = SpIndex::uniform(2, &[3, 4]).unwrap();
    let base = sp.base_units().to_vec();
    let mut traces = TraceSet::new(60);
    for &item in workload {
        traces.record(record_of(&base, item));
    }
    (sp, traces)
}

/// The three read-path mirrors and the handle's stats must be exactly what a
/// from-scratch build over the owned maps and tree produces, at the handle's
/// epoch — `IndexSnapshot::publish`'s postcondition, whoever called it.
fn assert_mirrors_match_a_fresh_build(index: &MinSigIndex, context: &str) {
    let snapshot = index.snapshot();
    let levels = snapshot.tree().levels();
    let expected = Synopsis::compute(
        levels,
        snapshot.sequences().iter().map(|(e, s)| (*e, s)),
        snapshot.synopsis().sketch_size(),
        index.epoch(),
    );
    assert_eq!(snapshot.synopsis(), &expected, "synopsis, {context}");

    let signatures: BTreeMap<_, _> =
        snapshot.sequences().keys().map(|&e| (e, snapshot.signature(e).unwrap().clone())).collect();
    let nh = snapshot.config().num_hash_functions as usize;
    let (arena, fresh) =
        (snapshot.arena(), CandidateArena::build(levels, nh, snapshot.sequences(), &signatures));
    assert_eq!(arena.entities(), fresh.entities(), "arena entities, {context}");
    for pos in 0..fresh.len() {
        for level in 1..=levels {
            assert_eq!(arena.level_cells(level, pos), fresh.level_cells(level, pos), "{context}");
        }
    }

    let (rows, fresh) = (snapshot.node_arena(), NodeArena::build(snapshot.tree()));
    assert_eq!(rows.num_nodes(), fresh.num_nodes(), "node rows, {context}");
    assert_eq!(rows.num_entities(), fresh.num_entities(), "node rows, {context}");
    for id in 0..fresh.num_nodes() as u32 {
        assert_eq!(
            (rows.depth(id), rows.routing_index(id), rows.routing_value(id)),
            (fresh.depth(id), fresh.routing_index(id), fresh.routing_value(id)),
            "node {id}, {context}"
        );
        assert_eq!(rows.children(id), fresh.children(id), "node {id}, {context}");
        assert_eq!(rows.leaf_entities(id), fresh.leaf_entities(id), "node {id}, {context}");
    }

    let stats = index.stats();
    assert_eq!(stats.num_entities, snapshot.num_entities(), "stats, {context}");
    assert_eq!(stats.num_nodes, snapshot.tree().num_nodes(), "stats, {context}");
    assert_eq!(stats.index_bytes, snapshot.tree().size_bytes(), "stats, {context}");
}

fn temp_path(name: &str, case: u64) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("digital-traces-it-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{name}-{case}.msix"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Round trip: build → save → load answers every `top_k` and `top_k_join`
    /// query bit-identically to the freshly built index — degrees, order and
    /// all — without rebuilding.
    #[test]
    fn save_then_open_answers_identically(
        workload in workload_strategy(),
        k in 1usize..6,
        nh in 4u32..40,
    ) {
        let (sp, traces) = build_traces(&workload);
        let config = IndexConfig { num_hash_functions: nh, ..IndexConfig::default() };
        let built = MinSigIndex::build(&sp, &traces, config).unwrap();
        let path = temp_path("round-trip", (workload.len() as u64) * 1000 + nh as u64);
        built.save(&path).unwrap();
        let opened = MinSigIndex::open(&path).unwrap();
        std::fs::remove_file(&path).unwrap();

        prop_assert_eq!(opened.num_entities(), built.num_entities());
        prop_assert_eq!(opened.tree().num_nodes(), built.tree().num_nodes());
        let measure = PaperAdm::default_for(sp.height() as usize);
        let probes: Vec<EntityId> = traces.entities().collect();
        for &query in &probes {
            let (a, _) = built.top_k(query, k, &measure).unwrap();
            let (b, _) = opened.top_k(query, k, &measure).unwrap();
            prop_assert_eq!(a, b, "top_k({}) diverged after reload", query);
        }
        let options = JoinOptions { k, ..JoinOptions::default() };
        let (join_a, _) = built.top_k_join(&probes, &measure, options).unwrap();
        let (join_b, _) = opened.top_k_join(&probes, &measure, options).unwrap();
        prop_assert_eq!(join_a.len(), join_b.len());
        for (a, b) in join_a.iter().zip(join_b.iter()) {
            prop_assert_eq!(a.probe, b.probe);
            // Compare answers only: the rows' QueryStats carry wall-clock time.
            prop_assert_eq!(&a.matches, &b.matches, "join diverged for probe {}", a.probe);
        }
    }

    /// Epoch isolation: a snapshot taken before a flush never observes any
    /// part of the batch, the flush publishes exactly one epoch, and the new
    /// state equals a from-scratch rebuild over the merged records.
    #[test]
    fn ingest_publishes_one_epoch_and_isolates_readers(
        seed_workload in workload_strategy(),
        stream in proptest::collection::vec((0u64..20, 0usize..24, 48u64..96, 1u64..4), 1..200),
    ) {
        let (sp, mut traces) = build_traces(&seed_workload);
        let base = sp.base_units().to_vec();
        let config = IndexConfig { num_hash_functions: 16, ..IndexConfig::default() };
        let mut index = MinSigIndex::build(&sp, &traces, config).unwrap();
        let measure = PaperAdm::default_for(sp.height() as usize);

        let reader = index.snapshot();
        let reader_entities = reader.num_entities();
        let seed_entities: Vec<EntityId> = traces.entities().collect();
        let reader_answers: Vec<_> = seed_entities
            .iter()
            .map(|&e| reader.top_k(e, 3, &measure).unwrap().0)
            .collect();

        let mut buffer = IngestBuffer::with_capacity(stream.len());
        for &item in &stream {
            let record = record_of(&base, item);
            buffer.push(record);
            traces.record(record);
        }
        let report = buffer.flush(&mut index).unwrap();
        prop_assert_eq!(report.records, stream.len());
        prop_assert_eq!(report.epoch, 1, "one batch must publish exactly one epoch");
        prop_assert_eq!(index.epoch(), 1);
        prop_assert!(buffer.is_empty());

        // The pre-flush snapshot is frozen: same entity count, same answers.
        prop_assert_eq!(reader.num_entities(), reader_entities);
        for (&e, expected) in seed_entities.iter().zip(&reader_answers) {
            let (got, _) = reader.top_k(e, 3, &measure).unwrap();
            prop_assert_eq!(&got, expected, "pre-flush snapshot drifted for {}", e);
        }

        // The post-flush state equals a from-scratch rebuild (hash range
        // pinned to the incremental index's resolved range, since a rebuild
        // would re-derive it from the merged data).
        let pinned = IndexConfig { hash_range: Some(index.hasher().range()), ..config };
        let rebuilt = MinSigIndex::build(&sp, &traces, pinned).unwrap();
        prop_assert_eq!(index.num_entities(), rebuilt.num_entities());
        for e in traces.entities() {
            let (a, _) = index.top_k(e, 3, &measure).unwrap();
            let (b, _) = rebuilt.top_k(e, 3, &measure).unwrap();
            prop_assert_eq!(a, b, "post-flush answers diverge from rebuild for {}", e);
        }
    }

    /// Every publisher leaves the mirrors equal to a from-scratch build, and
    /// no reader ever moves: after each step of a random interleaving of
    /// single-entity upserts (new and existing ids), updates, removals,
    /// mixed ingest batches and save → open round trips, the synopsis, the
    /// candidate arena, the node rows and the stats are what a fresh build
    /// over the owned maps gives, and a snapshot taken before the step still
    /// serialises to the bytes it had.
    #[test]
    fn mirrors_equal_a_fresh_build_after_every_publisher(
        seed_workload in workload_strategy(),
        steps in proptest::collection::vec(
            (
                0u8..6,
                0u64..18,
                proptest::collection::vec((0u64..18, 0usize..24, 0u64..96, 1u64..4), 1..10),
            ),
            1..12,
        ),
    ) {
        let (sp, traces) = build_traces(&seed_workload);
        let base = sp.base_units().to_vec();
        let config = IndexConfig { num_hash_functions: 8, ..IndexConfig::default() };
        let mut index = MinSigIndex::build(&sp, &traces, config).unwrap();
        assert_mirrors_match_a_fresh_build(&index, "build");

        for (i, (op, entity, visits)) in steps.into_iter().enumerate() {
            let reader = index.snapshot();
            let reader_bytes = reader.to_bytes().unwrap();
            let epoch = index.epoch();
            let entity = EntityId(entity);
            // One entity's trace out of the visits (single-entity ops), or
            // the visits as they are: a batch over new and existing ids.
            let trace = DigitalTrace::from_instances(
                visits.iter().map(|&(_, u, h, d)| record_of(&base, (entity.raw(), u, h, d))).collect(),
            );
            let published = match op {
                0 | 1 => index.upsert_entity(entity, &trace).map(|_| ()).is_ok(),
                2 => index.update_entity(entity, &trace).is_ok(),
                3 => index.remove_entity(entity).is_ok(),
                4 => {
                    index.ingest_batch(visits.iter().map(|&v| record_of(&base, v))).unwrap();
                    true
                }
                _ => {
                    let path = temp_path("mirrors", i as u64);
                    index.save(&path).unwrap();
                    index = MinSigIndex::open(&path).unwrap();
                    std::fs::remove_file(&path).unwrap();
                    prop_assert_eq!(index.snapshot().to_bytes().unwrap(), reader_bytes.clone());
                    prop_assert_eq!(index.epoch(), 0);
                    false
                }
            };
            let context = format!("step {i}: op {op} on {entity}");
            if op < 5 {
                prop_assert_eq!(index.epoch(), epoch + published as u64, "{}", context);
            }
            assert_mirrors_match_a_fresh_build(&index, &context);
            prop_assert_eq!(reader.to_bytes().unwrap(), reader_bytes, "reader moved, {}", context);
            // Indexed, sequenced, signed and arena-resident are one set of ids
            // (the script draws every id from 0..18), on the handle and on the
            // pre-step snapshot: what lets the paged query read an indexed
            // entity's sequence without a fallback.
            let views: [&IndexSnapshot; 2] = [&index, &reader];
            for (view, e) in views.into_iter().flat_map(|v| (0..18).map(move |e| (v, EntityId(e)))) {
                let indexed = view.contains(e);
                prop_assert_eq!(
                    [
                        view.sequence(e).is_some(),
                        view.signature(e).is_some(),
                        view.arena().position(e).is_some(),
                    ],
                    [indexed; 3],
                    "{} after {}", e, context
                );
            }
        }
    }
}

/// Crash safety: truncating the segment file at any prefix length — including
/// mid-segment, mid-checksum and missing-END cuts — must yield a corruption
/// error from `open`, never a partially loaded index.
#[test]
fn truncated_index_file_never_loads() {
    let (sp, traces) = build_traces(&[
        (0, 0, 0, 2),
        (1, 0, 1, 2),
        (2, 5, 0, 3),
        (3, 9, 10, 1),
        (4, 14, 20, 2),
        (5, 21, 30, 4),
    ]);
    let _ = sp;
    let index = MinSigIndex::build(
        &sp,
        &traces,
        IndexConfig { num_hash_functions: 8, ..IndexConfig::default() },
    )
    .unwrap();
    let path = temp_path("truncate", 0);
    index.save(&path).unwrap();
    let bytes = std::fs::read(&path).unwrap();

    for cut in 0..bytes.len() {
        std::fs::write(&path, &bytes[..cut]).unwrap();
        let err = MinSigIndex::open(&path).expect_err("truncated file must not load");
        assert!(
            matches!(
                err,
                digital_traces::index::IndexError::Corrupt(_)
                    | digital_traces::index::IndexError::Io(_)
            ),
            "cut at {cut} of {} produced unexpected error {err:?}",
            bytes.len()
        );
    }

    // The intact file still loads and answers.
    std::fs::write(&path, &bytes).unwrap();
    let reopened = MinSigIndex::open(&path).unwrap();
    assert_eq!(reopened.num_entities(), index.num_entities());
    std::fs::remove_file(&path).unwrap();
}

/// The acceptance-criteria scenario end to end: a 10k-record batch flushes as
/// one epoch while a reader on the prior epoch keeps its exact view, and the
/// post-flush index survives a save/open round trip.
#[test]
fn ten_thousand_record_batch_is_one_epoch() {
    let sp = SpIndex::uniform(3, &[4, 4]).unwrap();
    let base = sp.base_units().to_vec();
    let mut traces = TraceSet::new(60);
    for e in 0..50u64 {
        for s in 0..4u64 {
            traces.record(PresenceInstance::new(
                EntityId(e),
                base[((e * 7 + s * 3) % base.len() as u64) as usize],
                Period::new(s * 120, s * 120 + 60).unwrap(),
            ));
        }
    }
    let mut index = MinSigIndex::build(
        &sp,
        &traces,
        IndexConfig { num_hash_functions: 32, ..IndexConfig::default() },
    )
    .unwrap();
    let measure = PaperAdm::default_for(sp.height() as usize);
    let reader = index.snapshot();
    let (reader_top, _) = reader.top_k(EntityId(0), 5, &measure).unwrap();

    let records: Vec<PresenceInstance> = (0..10_000u64)
        .map(|i| {
            let entity = if i % 4 == 0 { EntityId(100 + i % 37) } else { EntityId(i % 50) };
            let start = 1_000 + (i % 200) * 60;
            PresenceInstance::new(
                entity,
                base[((i * 31) % base.len() as u64) as usize],
                Period::new(start, start + 45).unwrap(),
            )
        })
        .collect();
    let report = index.ingest_batch(records).unwrap();
    assert_eq!(report.records, 10_000);
    assert_eq!(report.epoch, 1);
    assert_eq!(report.entities_inserted, 37);
    assert_eq!(index.num_entities(), 87);

    // Reader on the prior epoch: bit-identical answers, old entity count.
    assert_eq!(reader.num_entities(), 50);
    let (reader_top_after, _) = reader.top_k(EntityId(0), 5, &measure).unwrap();
    assert_eq!(reader_top, reader_top_after);

    // The merged index survives persistence.
    let path = temp_path("ten-k", 1);
    index.save(&path).unwrap();
    let reopened = MinSigIndex::open(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    assert_eq!(reopened.num_entities(), 87);
    let (a, _) = index.top_k(EntityId(100), 5, &measure).unwrap();
    let (b, _) = reopened.top_k(EntityId(100), 5, &measure).unwrap();
    assert_eq!(a, b);
}

/// FNV-1a (64-bit) of a byte string — the digest the scripted sequence pins.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

/// One fixed walk through every publisher — build → flush → insert → replace
/// → remove → flush — must end on exactly the bytes (and the hashing work) it
/// ended on before the write path was folded into one `publish`: the digest
/// and the hash-evaluation count below were recorded on the parent commit.
#[test]
fn scripted_mutation_sequence_ends_on_the_recorded_bytes() {
    let seed: Vec<(u64, usize, u64, u64)> =
        (0..40u64).map(|i| (i % 10, (i * 7 % 24) as usize, i * 5 % 48, 1 + i % 4)).collect();
    let (sp, traces) = build_traces(&seed);
    let base = sp.base_units().to_vec();
    let config = IndexConfig { num_hash_functions: 16, ..IndexConfig::default() };
    let mut index = MinSigIndex::build(&sp, &traces, config).unwrap();

    let batch = |offset: u64| -> Vec<PresenceInstance> {
        (0..30u64)
            .map(|i| {
                let entity = if i % 3 == 0 { 20 + (i + offset) % 5 } else { (i + offset) % 10 };
                record_of(
                    &base,
                    (entity, ((i + offset) * 11 % 24) as usize, 48 + i % 40, 1 + i % 3),
                )
            })
            .collect()
    };
    let trace_of = |entity: u64, visits: u64| {
        DigitalTrace::from_instances(
            (0..visits)
                .map(|i| record_of(&base, (entity, (entity + i * 5) as usize % 24, i * 3, 2)))
                .collect(),
        )
    };

    let mut buffer: IngestBuffer = batch(0).into_iter().collect();
    buffer.flush(&mut index).unwrap();
    assert!(index.upsert_entity(EntityId(77), &trace_of(77, 6)).unwrap(), "77 is new");
    index.update_entity(EntityId(3), &trace_of(3, 2)).unwrap();
    index.remove_entity(EntityId(21)).unwrap();
    index.ingest_batch(batch(7)).unwrap();

    assert_eq!(index.epoch(), 5);
    assert_eq!(index.stats().hash_evaluations, 10_944);
    assert_eq!(fnv1a(&index.snapshot().to_bytes().unwrap()), 0x5097_7e7e_3709_e650);
}
