//! The extensible association degree measure of Equation 7.1.

use super::{dice_ratio, AssociationMeasure};
use crate::ajpi::LevelOverlap;
use crate::error::{ModelError, Result};
use serde::{Deserialize, Serialize};

/// The paper's experimental ADM (Equation 7.1):
///
/// ```text
///                Σ_l  l^u · ( |P^l_ab| / (|P^l_a| + |P^l_b|) )^v
/// deg(e_a,e_b) = ───────────────────────────────────────────────
///                                  max
/// ```
///
/// where `max = Σ_l l^u · (1/2)^v` is the normalisation factor (the per-level
/// Dice-style ratio can never exceed 1/2), and `u, v > 1` trade off the weight of
/// the AjPI *level* against the AjPI *duration*.  The defaults are `u = v = 2`,
/// the values used throughout Chapter 7 unless stated otherwise.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PaperAdm {
    /// Exponent on the level (`u > 1`); larger values favour finer-level AjPIs.
    /// Read at construction only: the level weights and the normalisation
    /// factor are derived from it there.
    pub u: f64,
    /// Exponent on the duration ratio (`v > 1`); larger values favour longer AjPIs.
    pub v: f64,
    /// `l^u` for `l = 1..=m` (index 0 = level 1), fixed at construction so
    /// scoring pays one `powf` per level (the ratio's) instead of two.
    level_weights: Vec<f64>,
    max: f64,
    name: String,
}

impl PaperAdm {
    /// Creates the measure for an sp-index of the given height.
    pub fn new(num_levels: usize, u: f64, v: f64) -> Result<Self> {
        if num_levels == 0 {
            return Err(ModelError::InvalidMeasureParameter("num_levels must be positive".into()));
        }
        if u < 1.0 || v < 1.0 || u.is_nan() || v.is_nan() {
            return Err(ModelError::InvalidMeasureParameter(format!(
                "u and v must be >= 1 (got u={u}, v={v})"
            )));
        }
        let level_weights: Vec<f64> = (1..=num_levels).map(|l| (l as f64).powf(u)).collect();
        let max: f64 = level_weights.iter().map(|w| w * 0.5f64.powf(v)).sum();
        Ok(PaperAdm { u, v, level_weights, max, name: format!("paper-adm(u={u},v={v})") })
    }

    /// The default parameterisation used by the experiments (`u = v = 2`).
    pub fn default_for(num_levels: usize) -> Self {
        PaperAdm::new(num_levels, 2.0, 2.0).expect("default parameters are valid")
    }

    /// Number of sp-index levels this measure was constructed for.
    pub fn num_levels(&self) -> usize {
        self.level_weights.len()
    }

    /// The per-level weights `l^u` (index 0 = level 1), exactly
    /// `(l as f64).powf(u)` for the `u` given at construction.
    pub fn level_weights(&self) -> &[f64] {
        &self.level_weights
    }
}

impl AssociationMeasure for PaperAdm {
    fn name(&self) -> &str {
        &self.name
    }

    fn degree_from_overlap(&self, overlap: &LevelOverlap) -> f64 {
        debug_assert_eq!(overlap.num_levels(), self.level_weights.len());
        let mut score = 0.0;
        for ((_, stat), weight) in overlap.iter().zip(&self.level_weights) {
            let ratio = dice_ratio(stat);
            if ratio > 0.0 {
                score += weight * ratio.powf(self.v);
            }
        }
        (score / self.max).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adm::test_support::{check_axioms, fixtures};
    use crate::ajpi::LevelStat;

    #[test]
    fn construction_validates_parameters() {
        assert!(PaperAdm::new(0, 2.0, 2.0).is_err());
        assert!(PaperAdm::new(4, 0.5, 2.0).is_err());
        assert!(PaperAdm::new(4, 2.0, 0.5).is_err());
        assert!(PaperAdm::new(4, 2.0, 2.0).is_ok());
    }

    #[test]
    fn satisfies_section_3_2_axioms() {
        check_axioms(&PaperAdm::default_for(2));
    }

    #[test]
    fn level_weights_are_exactly_the_powf_they_replace() {
        for u in [1.0, 1.5, 2.0, 3.0] {
            let m = PaperAdm::new(6, u, 2.0).unwrap();
            assert_eq!(m.num_levels(), 6);
            assert_eq!(m.level_weights().len(), 6);
            for (i, w) in m.level_weights().iter().enumerate() {
                let expect = ((i + 1) as f64).powf(u);
                assert_eq!(w.to_bits(), expect.to_bits(), "u = {u}, level {}", i + 1);
            }
            // Scoring through the table is bitwise the two-`powf` formula.
            let ov = LevelOverlap::from_stats(
                (1..=6).map(|l| LevelStat { overlap: l, size_a: 9, size_b: 2 * l }).collect(),
            );
            let by_formula: f64 = ov
                .iter()
                .map(|(level, stat)| {
                    (level as f64).powf(u) * crate::adm::dice_ratio(stat).powf(2.0)
                })
                .fold(0.0, |acc, term| acc + term);
            let max: f64 = (1..=6).map(|l| (l as f64).powf(u) * 0.5f64.powf(2.0)).sum();
            let expect = (by_formula / max).clamp(0.0, 1.0);
            assert_eq!(m.degree_from_overlap(&ov).to_bits(), expect.to_bits(), "u = {u}");
        }
    }

    #[test]
    fn identical_entities_score_one() {
        let (_sp, a, _b, _c) = fixtures();
        let m = PaperAdm::default_for(2);
        let d = m.degree(&a, &a);
        assert!((d - 1.0).abs() < 1e-12, "self-degree should reach the normalisation max: {d}");
    }

    #[test]
    fn finer_level_overlap_scores_higher() {
        let m = PaperAdm::default_for(2);
        // Same duration, but one pair overlaps at level 2 and the other only at level 1.
        let fine = LevelOverlap::from_stats(vec![
            LevelStat { overlap: 2, size_a: 4, size_b: 4 },
            LevelStat { overlap: 2, size_a: 4, size_b: 4 },
        ]);
        let coarse = LevelOverlap::from_stats(vec![
            LevelStat { overlap: 2, size_a: 4, size_b: 4 },
            LevelStat { overlap: 0, size_a: 4, size_b: 4 },
        ]);
        assert!(m.degree_from_overlap(&fine) > m.degree_from_overlap(&coarse));
    }

    #[test]
    fn longer_overlap_scores_higher() {
        let m = PaperAdm::default_for(2);
        let long = LevelOverlap::from_stats(vec![
            LevelStat { overlap: 4, size_a: 8, size_b: 8 },
            LevelStat { overlap: 4, size_a: 8, size_b: 8 },
        ]);
        let short = LevelOverlap::from_stats(vec![
            LevelStat { overlap: 1, size_a: 8, size_b: 8 },
            LevelStat { overlap: 1, size_a: 8, size_b: 8 },
        ]);
        assert!(m.degree_from_overlap(&long) > m.degree_from_overlap(&short));
    }

    #[test]
    fn larger_trace_of_other_entity_scores_lower() {
        // Monotonicity: more presence instances for the other entity (with the
        // same overlap) means a lower association degree.
        let m = PaperAdm::default_for(1);
        let small = LevelOverlap::from_stats(vec![LevelStat { overlap: 2, size_a: 4, size_b: 2 }]);
        let large = LevelOverlap::from_stats(vec![LevelStat { overlap: 2, size_a: 4, size_b: 20 }]);
        assert!(m.degree_from_overlap(&small) > m.degree_from_overlap(&large));
    }

    #[test]
    fn u_and_v_shift_the_weighting() {
        // Higher u emphasises level; higher v penalises short durations.
        let stats = vec![
            LevelStat { overlap: 1, size_a: 10, size_b: 10 },
            LevelStat { overlap: 1, size_a: 10, size_b: 10 },
        ];
        let ov = LevelOverlap::from_stats(stats);
        let base = PaperAdm::new(2, 2.0, 2.0).unwrap().degree_from_overlap(&ov);
        let high_v = PaperAdm::new(2, 2.0, 5.0).unwrap().degree_from_overlap(&ov);
        // A short overlap is punished harder under a larger duration exponent.
        assert!(high_v < base);
    }

    #[test]
    fn degree_is_zero_for_disjoint_entities() {
        let m = PaperAdm::default_for(3);
        let ov = LevelOverlap::from_stats(vec![LevelStat { overlap: 0, size_a: 5, size_b: 7 }; 3]);
        assert_eq!(m.degree_from_overlap(&ov), 0.0);
    }
}
