//! Cross-crate property-based tests: the index's exactness, the signature
//! theorems and the ADM axioms must hold for *arbitrary* (not just generated)
//! trace data.

use digital_traces::index::{IndexConfig, MinSigIndex};
use digital_traces::{
    AssociationMeasure, DiceAdm, EntityId, JaccardAdm, PaperAdm, Period, PresenceInstance, SpIndex,
    TraceSet,
};
use proptest::prelude::*;

/// An arbitrary small trace workload over a fixed 3-level hierarchy: every
/// element is `(entity 0..12, base-unit index 0..24, start hour 0..48, duration
/// 1..5 hours)`.
fn workload_strategy() -> impl Strategy<Value = Vec<(u64, usize, u64, u64)>> {
    proptest::collection::vec((0u64..12, 0usize..24, 0u64..48, 1u64..5), 1..120)
}

fn build_traces(workload: &[(u64, usize, u64, u64)]) -> (SpIndex, TraceSet) {
    let sp = SpIndex::uniform(2, &[3, 4]).unwrap();
    let base = sp.base_units().to_vec();
    let mut traces = TraceSet::new(60);
    for &(entity, unit, start_hour, hours) in workload {
        let start = start_hour * 60;
        traces.record(PresenceInstance::new(
            EntityId(entity),
            base[unit % base.len()],
            Period::new(start, start + hours * 60).unwrap(),
        ));
    }
    (sp, traces)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The index answer always carries the same degrees as the brute-force answer,
    /// for any workload, any k and a non-trivial measure.
    #[test]
    fn index_always_matches_brute_force(
        workload in workload_strategy(),
        k in 1usize..8,
        nh in 4u32..48,
    ) {
        let (sp, traces) = build_traces(&workload);
        let config = IndexConfig { num_hash_functions: nh, ..IndexConfig::default() };
        let index = MinSigIndex::build(&sp, &traces, config).unwrap();
        let measure = PaperAdm::default_for(sp.height() as usize);
        for query in traces.entities() {
            let (got, stats) = index.top_k(query, k, &measure).unwrap();
            let expect = index.brute_force(query, k, &measure).unwrap();
            prop_assert_eq!(got.len(), expect.len());
            for (g, e) in got.iter().zip(expect.iter()) {
                prop_assert!((g.degree - e.degree).abs() < 1e-9,
                    "query {} k {}: {} vs {}", query, k, g.degree, e.degree);
            }
            prop_assert!(stats.entities_checked <= index.num_entities());
            // Both of those score through the arena.  The owned scan — every
            // level through `AssociationMeasure::degree` — shares neither the
            // fused per-level loop nor the intersection kernels with them.
            let seqs = index.sequences();
            let mut owned: Vec<f64> = seqs
                .iter()
                .filter(|(&e, _)| e != query)
                .map(|(_, seq)| measure.degree(&seqs[&query], seq))
                .collect();
            owned.sort_by(|a, b| b.total_cmp(a));
            owned.truncate(k);
            let got_bits: Vec<u64> = got.iter().map(|r| r.degree.to_bits()).collect();
            let owned_bits: Vec<u64> = owned.iter().map(|d| d.to_bits()).collect();
            prop_assert_eq!(got_bits, owned_bits, "query {} k {}", query, k);
        }
    }

    /// Association degree measures satisfy the Section 3.2 axioms on arbitrary
    /// pairs of traces: normalisation, symmetry of the concrete measures, and the
    /// dominance of the self-degree.
    #[test]
    fn adm_axioms_hold_for_arbitrary_traces(
        workload_a in workload_strategy(),
        workload_b in workload_strategy(),
    ) {
        let (sp, traces_a) = build_traces(&workload_a);
        let (_, traces_b) = build_traces(&workload_b);
        let ea = traces_a.entities().next().unwrap();
        let eb = traces_b.entities().next().unwrap();
        let seq_a = traces_a.cell_sequence(&sp, ea).unwrap();
        let seq_b = traces_b.cell_sequence(&sp, eb).unwrap();
        let m = sp.height() as usize;
        let measures: Vec<Box<dyn AssociationMeasure>> = vec![
            Box::new(PaperAdm::default_for(m)),
            Box::new(DiceAdm::uniform(m)),
            Box::new(JaccardAdm::uniform(m)),
        ];
        for measure in &measures {
            let dab = measure.degree(&seq_a, &seq_b);
            let dba = measure.degree(&seq_b, &seq_a);
            let daa = measure.degree(&seq_a, &seq_a);
            prop_assert!((0.0..=1.0).contains(&dab), "{} out of range", measure.name());
            prop_assert!((dab - dba).abs() < 1e-12, "{} must be symmetric", measure.name());
            prop_assert!(daa + 1e-12 >= dab, "{}: self degree must dominate", measure.name());
        }
    }

    /// Incremental maintenance equals a fresh rebuild: after replacing an
    /// arbitrary entity's trace, queries agree with an index built from scratch.
    #[test]
    fn incremental_update_equals_rebuild(
        workload in workload_strategy(),
        extra in workload_strategy(),
    ) {
        let (sp, mut traces) = build_traces(&workload);
        let config = IndexConfig::with_hash_functions(16);
        let mut index = MinSigIndex::build(&sp, &traces, config).unwrap();
        // Apply the extra workload as updates.
        let (_, extra_traces) = build_traces(&extra);
        for (entity, trace) in extra_traces.iter() {
            let mut merged = traces.get(entity).cloned().unwrap_or_default();
            for pi in trace.instances() {
                merged.push(*pi);
            }
            // `upsert`, not `update`: the extra workload may introduce
            // entities the seed workload never mentioned.
            index.upsert_entity(entity, &merged).unwrap();
            traces.insert_trace(entity, merged);
        }
        let rebuilt = MinSigIndex::build(&sp, &traces, config).unwrap();
        let measure = DiceAdm::uniform(sp.height() as usize);
        for query in traces.entities() {
            let (a, _) = index.top_k(query, 3, &measure).unwrap();
            let (b, _) = rebuilt.top_k(query, 3, &measure).unwrap();
            prop_assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(b.iter()) {
                prop_assert!((x.degree - y.degree).abs() < 1e-9);
            }
        }
    }
}
