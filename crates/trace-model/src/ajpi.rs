//! Per-level overlap statistics of adjoint presence instances (Definition 3).
//!
//! An AjPI is a spatio-temporal co-occurrence of two entities: two presence
//! instances with overlapping time periods whose paths share at least one common
//! ancestor.  The level of the AjPI is the number of common ancestors (the depth
//! of the deepest shared spatial unit).
//!
//! The association degree measures of Section 3.2 only consume aggregated
//! statistics of the AjPIs, so this module provides [`LevelOverlap`], the
//! per-level overlap summary computed from ST-cell set sequences; raw AjPIs
//! are enumerated only by the unit tests, as ground truth (the summary is
//! much cheaper than enumerating them and exactly what Equation 7.1 uses:
//! `|P^l_ab|` equals the number of shared level-`l` ST-cells when durations are
//! measured in base temporal units).

use crate::cell::CellSetSequence;
use crate::spatial::Level;
use serde::{Deserialize, Serialize};

/// Per-level statistics of one level: the overlap (shared ST-cells, i.e. shared
/// presence duration in base temporal units) and the two set sizes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LevelStat {
    /// `|seq^l_a ∩ seq^l_b|` — the duration of level-`l` AjPIs in base temporal units.
    pub overlap: usize,
    /// `|seq^l_a|` — the level-`l` presence duration of the first entity.
    pub size_a: usize,
    /// `|seq^l_b|` — the level-`l` presence duration of the second entity.
    pub size_b: usize,
}

/// The per-level overlap summary between two entities, computed from their
/// ST-cell set sequences.  Index 0 corresponds to level 1.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LevelOverlap {
    stats: Vec<LevelStat>,
}

impl LevelOverlap {
    /// Computes the overlap summary of two sequences (which must have the same
    /// number of levels).
    pub fn from_sequences(a: &CellSetSequence, b: &CellSetSequence) -> Self {
        assert_eq!(a.num_levels(), b.num_levels(), "sequences must come from the same sp-index");
        let stats = a
            .iter_levels()
            .zip(b.iter_levels())
            .map(|((_, sa), (_, sb))| LevelStat {
                overlap: sa.intersection_len(sb),
                size_a: sa.len(),
                size_b: sb.len(),
            })
            .collect();
        LevelOverlap { stats }
    }

    /// Builds a summary directly from per-level statistics (used for upper-bound
    /// computations where the "other entity" is artificial).
    pub fn from_stats(stats: Vec<LevelStat>) -> Self {
        LevelOverlap { stats }
    }

    /// Empties the summary while keeping its allocation, so one `LevelOverlap`
    /// can serve as reusable scratch across many candidates in a scan loop.
    #[inline]
    pub fn clear(&mut self) {
        self.stats.clear();
    }

    /// Appends the statistics of the next level (levels are pushed in order,
    /// starting at level 1).
    #[inline]
    pub fn push(&mut self, stat: LevelStat) {
        self.stats.push(stat);
    }

    /// Number of levels.
    #[inline]
    pub fn num_levels(&self) -> usize {
        self.stats.len()
    }

    /// The statistics of one level (1-based).
    #[inline]
    pub fn level(&self, level: Level) -> LevelStat {
        self.stats[(level - 1) as usize]
    }

    /// Iterates `(level, stat)` pairs.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = (Level, LevelStat)> + '_ {
        self.stats.iter().enumerate().map(|(i, &s)| ((i + 1) as Level, s))
    }
}

#[cfg(test)]
use crate::{DigitalTrace, EntityId, Period, Result, SpIndex, SpatialUnitId};

/// A single adjoint presence instance between two entities, enumerated by
/// the unit tests as ground truth.
#[cfg(test)]
#[derive(Debug, Clone, PartialEq, Eq)]
struct AdjointPresence {
    /// The two entities forming the AjPI.
    entities: (EntityId, EntityId),
    /// The deepest common spatial ancestor of the two presences.
    common_unit: SpatialUnitId,
    /// The level of the AjPI (`|path_ab|`).
    level: Level,
    /// The temporal intersection of the two presences.
    period: Period,
}

/// Enumerates all AjPIs between two traces (quadratic in the trace lengths).
#[cfg(test)]
fn enumerate_ajpis(
    sp: &SpIndex,
    ea: EntityId,
    ta: &DigitalTrace,
    eb: EntityId,
    tb: &DigitalTrace,
) -> Result<Vec<AdjointPresence>> {
    let mut out = Vec::new();
    for pa in ta.instances() {
        let path_a = sp.path(pa.unit)?;
        for pb in tb.instances() {
            let Some(period) = pa.period.intersect(&pb.period) else { continue };
            let path_b = sp.path(pb.unit)?;
            let mut level = 0usize;
            while level < path_a.len() && level < path_b.len() && path_a[level] == path_b[level] {
                level += 1;
            }
            if level == 0 {
                continue;
            }
            out.push(AdjointPresence {
                entities: (ea, eb),
                common_unit: path_a[level - 1],
                level: level as Level,
                period,
            });
        }
    }
    Ok(out)
}

#[cfg(test)]
impl LevelOverlap {
    /// True when there is no overlap at any level.
    fn is_disjoint(&self) -> bool {
        self.stats.iter().all(|s| s.overlap == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::{CellSet, StCell};
    use crate::presence::PresenceInstance;
    use crate::spatial::SpIndexBuilder;

    fn sp2() -> (SpIndex, Vec<SpatialUnitId>) {
        let mut b = SpIndexBuilder::new(2);
        let t0 = b.add_top_unit().unwrap();
        let t1 = b.add_top_unit().unwrap();
        let c0 = b.add_child(t0).unwrap();
        let c1 = b.add_child(t0).unwrap();
        let c2 = b.add_child(t1).unwrap();
        (b.build().unwrap(), vec![c0, c1, c2, t0, t1])
    }

    #[test]
    fn ajpi_requires_temporal_overlap() {
        let (sp, u) = sp2();
        let ta = DigitalTrace::from_instances(vec![PresenceInstance::new(
            EntityId(1),
            u[0],
            Period::new(0, 10).unwrap(),
        )]);
        let tb = DigitalTrace::from_instances(vec![PresenceInstance::new(
            EntityId(2),
            u[0],
            Period::new(20, 30).unwrap(),
        )]);
        let ajpis = enumerate_ajpis(&sp, EntityId(1), &ta, EntityId(2), &tb).unwrap();
        assert!(ajpis.is_empty());
    }

    #[test]
    fn ajpi_level_is_depth_of_common_ancestor() {
        let (sp, u) = sp2();
        // Same base unit → level 2; sibling base units → level 1; different
        // level-1 subtree → no AjPI.
        let ta = DigitalTrace::from_instances(vec![PresenceInstance::new(
            EntityId(1),
            u[0],
            Period::new(0, 10).unwrap(),
        )]);
        for (other_unit, expect_level) in [(u[0], Some(2u8)), (u[1], Some(1u8)), (u[2], None)] {
            let tb = DigitalTrace::from_instances(vec![PresenceInstance::new(
                EntityId(2),
                other_unit,
                Period::new(5, 15).unwrap(),
            )]);
            let ajpis = enumerate_ajpis(&sp, EntityId(1), &ta, EntityId(2), &tb).unwrap();
            match expect_level {
                Some(level) => {
                    assert_eq!(ajpis.len(), 1);
                    assert_eq!(ajpis[0].level, level);
                    assert_eq!(ajpis[0].period, Period::new(5, 10).unwrap());
                }
                None => assert!(ajpis.is_empty()),
            }
        }
    }

    #[test]
    fn ajpi_count_is_bounded_by_product_of_trace_lengths() {
        let (sp, u) = sp2();
        let mk = |e: u64, n: usize| {
            DigitalTrace::from_instances(
                (0..n)
                    .map(|i| {
                        PresenceInstance::new(
                            EntityId(e),
                            u[0],
                            Period::new(i as u64 * 10, i as u64 * 10 + 5).unwrap(),
                        )
                    })
                    .collect(),
            )
        };
        let ta = mk(1, 3);
        let tb = mk(2, 4);
        let ajpis = enumerate_ajpis(&sp, EntityId(1), &ta, EntityId(2), &tb).unwrap();
        assert!(ajpis.len() <= ta.len() * tb.len());
        // Here instances align pairwise on identical periods → exactly 3 overlaps.
        assert_eq!(ajpis.len(), 3);
    }

    #[test]
    fn level_overlap_from_sequences() {
        let (sp, u) = sp2();
        let seq_a = CellSetSequence::from_base_cells(
            &sp,
            &CellSet::from_cells(vec![StCell::new(0, u[0]), StCell::new(1, u[0])]),
        )
        .unwrap();
        let seq_b = CellSetSequence::from_base_cells(
            &sp,
            &CellSet::from_cells(vec![StCell::new(0, u[1]), StCell::new(1, u[0])]),
        )
        .unwrap();
        let ov = LevelOverlap::from_sequences(&seq_a, &seq_b);
        assert_eq!(ov.num_levels(), 2);
        // Base level: only (t=1, u0) is shared.
        assert_eq!(ov.level(2).overlap, 1);
        // Level 1: both entities are under t0 at times 0 and 1 → overlap 2.
        assert_eq!(ov.level(1).overlap, 2);
        assert_eq!(ov.level(2).size_a, 2);
        assert_eq!(ov.level(2).size_b, 2);
        assert!(!ov.is_disjoint());
    }

    #[test]
    fn disjoint_sequences_have_zero_overlap() {
        let (sp, u) = sp2();
        let seq_a =
            CellSetSequence::from_base_cells(&sp, &CellSet::from_cells(vec![StCell::new(0, u[0])]))
                .unwrap();
        let seq_b =
            CellSetSequence::from_base_cells(&sp, &CellSet::from_cells(vec![StCell::new(0, u[2])]))
                .unwrap();
        let ov = LevelOverlap::from_sequences(&seq_a, &seq_b);
        assert!(ov.is_disjoint());
    }

    #[test]
    #[should_panic(expected = "same sp-index")]
    fn mismatched_level_counts_panic() {
        let (sp2, _) = sp2();
        let sp1 = SpIndex::uniform(1, &[]).unwrap();
        let a = CellSetSequence::from_base_cells(&sp1, &CellSet::new()).unwrap();
        let b = CellSetSequence::from_base_cells(&sp2, &CellSet::new()).unwrap();
        let _ = LevelOverlap::from_sequences(&a, &b);
    }
}
