//! Cross-crate durability and streaming-ingestion tests: a persisted index
//! must reload bit-identically for *arbitrary* workloads, a damaged file must
//! never load, and an ingest batch must publish exactly one snapshot epoch
//! that in-flight readers do not observe.

use digital_traces::index::{IndexConfig, IngestBuffer, JoinOptions, MinSigIndex};
use digital_traces::{EntityId, PaperAdm, Period, PresenceInstance, SpIndex, TraceSet};
use proptest::prelude::*;

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
