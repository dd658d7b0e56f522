//! `AssociationMeasure::upper_bound_into` — the allocation-free bound the
//! executor calls once per frontier child — is bitwise the bound it replaced:
//! for every measure of the family, over arbitrary query sizes and caps
//! (caps above the sizes, zeros, a single level), it equals both its
//! `upper_bound` wrapper and the original formulation (Theorem 4's artificial
//! entity built as a fresh `LevelOverlap`), whatever the scratch held before.

use digital_traces::model::adm::LevelRatio;
use digital_traces::model::ajpi::LevelStat;
use digital_traces::model::{LevelOverlap, WeightedLevelAdm};
use digital_traces::{AssociationMeasure, DiceAdm, JaccardAdm, PaperAdm};
use proptest::prelude::*;

/// The bound as the trait's default computed it before the scratch existed.
fn reference_bound(measure: &dyn AssociationMeasure, sizes: &[usize], caps: &[usize]) -> f64 {
    let stats = sizes
        .iter()
        .zip(caps)
        .map(|(&q, &cap)| {
            let o = cap.min(q);
            LevelStat { overlap: o, size_a: q, size_b: o }
        })
        .collect();
    measure.degree_from_overlap(&LevelOverlap::from_stats(stats))
}

/// Every measure of the family at `levels` levels.
fn family(levels: usize, u: f64, v: f64) -> Vec<Box<dyn AssociationMeasure>> {
    let weights: Vec<f64> = (1..=levels).map(|l| l as f64).collect();
    let sum: f64 = weights.iter().sum();
    let weights: Vec<f64> = weights.into_iter().map(|w| w / sum).collect();
    let mut measures: Vec<Box<dyn AssociationMeasure>> = vec![
        Box::new(DiceAdm::uniform(levels)),
        Box::new(DiceAdm::new(weights.clone()).unwrap()),
        Box::new(JaccardAdm::uniform(levels)),
        Box::new(JaccardAdm::new(weights).unwrap()),
        Box::new(PaperAdm::default_for(levels)),
        Box::new(PaperAdm::new(levels, u, v).unwrap()),
    ];
    for ratio in [LevelRatio::Dice, LevelRatio::Jaccard, LevelRatio::Containment] {
        measures.push(Box::new(WeightedLevelAdm::new(levels, u, v, ratio).unwrap()));
    }
    measures
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn upper_bound_into_equals_upper_bound(
        // `(size, cap)` per level; a cap is drawn from a wider range than a
        // size so caps above the size occur, and both ranges include zero.
        levels in proptest::collection::vec((0usize..40, 0usize..60), 1..7),
        u in 1.0f64..3.5,
        v in 1.0f64..3.5,
        stale_levels in 0usize..9,
    ) {
        let sizes: Vec<usize> = levels.iter().map(|&(size, _)| size).collect();
        let caps: Vec<usize> = levels.iter().map(|&(_, cap)| cap).collect();
        // One scratch across all measures, pre-filled with levels of an
        // unrelated computation: `upper_bound_into` must clear it first.
        let mut scratch = LevelOverlap::from_stats(
            vec![LevelStat { overlap: 7, size_a: 9, size_b: 8 }; stale_levels],
        );
        for measure in family(sizes.len(), u, v) {
            let into = measure.upper_bound_into(&sizes, &caps, &mut scratch);
            let wrapped = measure.upper_bound(&sizes, &caps);
            let reference = reference_bound(measure.as_ref(), &sizes, &caps);
            prop_assert_eq!(into.to_bits(), wrapped.to_bits(),
                "{}: into {} vs upper_bound {}", measure.name(), into, wrapped);
            prop_assert_eq!(into.to_bits(), reference.to_bits(),
                "{}: into {} vs reference {}", measure.name(), into, reference);
            prop_assert_eq!(scratch.num_levels(), sizes.len());
            // Through a reference, as the executor holds its measure.
            let by_ref = (&measure.as_ref()).upper_bound_into(&sizes, &caps, &mut scratch);
            prop_assert_eq!(by_ref.to_bits(), into.to_bits());
        }
    }
}
