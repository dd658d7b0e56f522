//! Association degree measures (ADMs) — the generic scoring-function family of
//! Section 3.2 and the concrete measures used in the paper's experiments.
//!
//! An ADM maps the per-level overlap between two entities' digital traces to a
//! score in `[0, 1]`.  The family is constrained by three axioms:
//!
//! 1. **Normalisation** — `deg ∈ [0, 1]`;
//! 2. **Monotonicity** — growing the overlap (or shrinking the other entity's
//!    trace) never decreases the score;
//! 3. **Total order** — finer-level and longer co-occurrences score at least as
//!    high as coarser/shorter ones.
//!
//! All measures here are functions of the [`LevelOverlap`] summary: per level
//! `l`, the shared duration `|P^l_ab|` and the two entities' level-`l` durations.
//! That is exactly the information Equation 7.1 consumes, and it is what the
//! MinSigTree upper bounds constrain.

mod dice;
mod jaccard;
mod paper;
mod weighted;

pub use dice::DiceAdm;
pub use jaccard::JaccardAdm;
pub use paper::PaperAdm;
pub use weighted::{LevelRatio, WeightedLevelAdm};

use crate::ajpi::{LevelOverlap, LevelStat};
use crate::cell::CellSetSequence;

/// A member of the generic association-degree-measure family of Section 3.2.
///
/// Implementations must be monotone in the per-level overlap and antitone in the
/// other entity's per-level sizes; given that, the default
/// [`upper_bound_into`](AssociationMeasure::upper_bound_into) is sound (it evaluates the
/// measure on the most favourable entity compatible with the per-level overlap
/// caps, i.e. Theorem 4's artificial entity generalised to per-level caps).
pub trait AssociationMeasure: Send + Sync {
    /// A short human-readable name used in experiment output.
    fn name(&self) -> &str;

    /// The association degree from a per-level overlap summary.
    fn degree_from_overlap(&self, overlap: &LevelOverlap) -> f64;

    /// The association degree between two entities given their ST-cell set
    /// sequences.
    fn degree(&self, a: &CellSetSequence, b: &CellSetSequence) -> f64 {
        self.degree_from_overlap(&LevelOverlap::from_sequences(a, b))
    }

    /// An upper bound on the degree achievable by *any* entity whose level-`l`
    /// overlap with the query is at most `overlap_caps[l-1]`, where
    /// `query_sizes[l-1]` is the query's level-`l` duration.
    ///
    /// Convenience wrapper around
    /// [`upper_bound_into`](AssociationMeasure::upper_bound_into) that owns
    /// its scratch; the two always agree bitwise.  A measure with a tighter
    /// bound of its own overrides `upper_bound_into` — that is the form the
    /// tree search calls — and leaves this wrapper alone.
    fn upper_bound(&self, query_sizes: &[usize], overlap_caps: &[usize]) -> f64 {
        self.upper_bound_into(query_sizes, overlap_caps, &mut LevelOverlap::default())
    }

    /// [`upper_bound`](AssociationMeasure::upper_bound) over a caller-owned
    /// `scratch` (cleared first, so its previous content is irrelevant) — the
    /// allocation-free form the tree search calls once per frontier child.
    ///
    /// The default implementation instantiates the artificial entity of
    /// Theorem 4: overlap equal to the cap and own size equal to the cap (the
    /// smallest size compatible with that overlap), which maximises every
    /// monotone measure in this family.
    fn upper_bound_into(
        &self,
        query_sizes: &[usize],
        overlap_caps: &[usize],
        scratch: &mut LevelOverlap,
    ) -> f64 {
        debug_assert_eq!(query_sizes.len(), overlap_caps.len());
        scratch.clear();
        for (&q, &cap) in query_sizes.iter().zip(overlap_caps) {
            let o = cap.min(q);
            scratch.push(LevelStat { overlap: o, size_a: q, size_b: o });
        }
        self.degree_from_overlap(scratch)
    }
}

/// Blanket implementation so `&M`, `Box<M>` and `Arc<M>` can be used wherever a
/// measure is expected.
impl<M: AssociationMeasure + ?Sized> AssociationMeasure for &M {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn degree_from_overlap(&self, overlap: &LevelOverlap) -> f64 {
        (**self).degree_from_overlap(overlap)
    }
    fn degree(&self, a: &CellSetSequence, b: &CellSetSequence) -> f64 {
        (**self).degree(a, b)
    }
    fn upper_bound(&self, query_sizes: &[usize], overlap_caps: &[usize]) -> f64 {
        (**self).upper_bound(query_sizes, overlap_caps)
    }
    fn upper_bound_into(
        &self,
        query_sizes: &[usize],
        overlap_caps: &[usize],
        scratch: &mut LevelOverlap,
    ) -> f64 {
        (**self).upper_bound_into(query_sizes, overlap_caps, scratch)
    }
}

/// Helper shared by the concrete measures: the Dice-style per-level ratio
/// `overlap / (size_a + size_b)`, zero when either side is empty.
#[inline]
pub(crate) fn dice_ratio(stat: LevelStat) -> f64 {
    if stat.size_a == 0 || stat.size_b == 0 {
        0.0
    } else {
        stat.overlap as f64 / (stat.size_a + stat.size_b) as f64
    }
}

/// Helper: the Jaccard per-level ratio `overlap / |union|`.
#[inline]
pub(crate) fn jaccard_ratio(stat: LevelStat) -> f64 {
    let union = stat.size_a + stat.size_b - stat.overlap;
    if union == 0 {
        0.0
    } else {
        stat.overlap as f64 / union as f64
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    use super::*;
    use crate::cell::{CellSet, StCell};
    use crate::spatial::SpIndex;

    /// A small 2-level hierarchy and three sequences used by measure tests:
    /// `a` and `b` overlap heavily, `a` and `c` only at the coarse level.
    pub fn fixtures() -> (SpIndex, CellSetSequence, CellSetSequence, CellSetSequence) {
        let sp = SpIndex::uniform(2, &[3]).unwrap();
        let b0 = sp.base_units()[0];
        let b1 = sp.base_units()[1];
        let b3 = sp.base_units()[3];
        let mk = |cells: Vec<StCell>| {
            CellSetSequence::from_base_cells(&sp, &CellSet::from_cells(cells)).unwrap()
        };
        let a = mk(vec![StCell::new(0, b0), StCell::new(1, b0), StCell::new(2, b1)]);
        let b = mk(vec![StCell::new(0, b0), StCell::new(1, b0), StCell::new(2, b0)]);
        let c = mk(vec![StCell::new(0, b1), StCell::new(5, b3)]);
        (sp, a, b, c)
    }

    /// Checks the three Section 3.2 axioms for a measure on the fixtures.
    pub fn check_axioms<M: AssociationMeasure>(measure: &M) {
        let (_sp, a, b, c) = fixtures();
        let dab = measure.degree(&a, &b);
        let dac = measure.degree(&a, &c);
        let daa = measure.degree(&a, &a);
        // Normalisation.
        for d in [dab, dac, daa] {
            assert!((0.0..=1.0).contains(&d), "{} out of range: {d}", measure.name());
        }
        // Self similarity dominates.
        assert!(daa >= dab && daa >= dac);
        // The heavily-overlapping pair scores higher than the barely-overlapping one.
        assert!(dab > dac, "{}: {dab} should exceed {dac}", measure.name());
        // Symmetry (all concrete measures here are symmetric).
        assert!((measure.degree(&b, &a) - dab).abs() < 1e-12);
        // Upper bound soundness on the fixture: cap = real overlap per level.
        let overlap = LevelOverlap::from_sequences(&a, &b);
        let caps: Vec<usize> = overlap.iter().map(|(_, s)| s.overlap).collect();
        let sizes: Vec<usize> = overlap.iter().map(|(_, s)| s.size_a).collect();
        let ub = measure.upper_bound(&sizes, &caps);
        assert!(
            ub >= dab - 1e-12,
            "{}: upper bound {ub} must dominate degree {dab}",
            measure.name()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dice_ratio_handles_empty_sides() {
        assert_eq!(dice_ratio(LevelStat { overlap: 0, size_a: 0, size_b: 5 }), 0.0);
        assert_eq!(dice_ratio(LevelStat { overlap: 0, size_a: 5, size_b: 0 }), 0.0);
        assert!((dice_ratio(LevelStat { overlap: 2, size_a: 2, size_b: 2 }) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn jaccard_ratio_handles_empty_union() {
        assert_eq!(jaccard_ratio(LevelStat { overlap: 0, size_a: 0, size_b: 0 }), 0.0);
        assert!(
            (jaccard_ratio(LevelStat { overlap: 1, size_a: 2, size_b: 2 }) - 1.0 / 3.0).abs()
                < 1e-12
        );
    }

    #[test]
    fn default_upper_bound_caps_overlap_at_query_size() {
        let m = DiceAdm::uniform(2);
        // Cap larger than the query size must be clamped.
        let ub = m.upper_bound(&[2, 2], &[10, 10]);
        let exact_self = m.degree_from_overlap(&LevelOverlap::from_stats(vec![
            LevelStat { overlap: 2, size_a: 2, size_b: 2 },
            LevelStat { overlap: 2, size_a: 2, size_b: 2 },
        ]));
        assert!((ub - exact_self).abs() < 1e-12);
    }
}
