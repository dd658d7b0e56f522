//! Spatial-temporal cells (ST-cells) and per-level ST-cell set sequences
//! (Sections 3.1 and 4.1 of the paper).
//!
//! An ST-cell is the combination of a base temporal unit and a spatial unit; the
//! base-level ST-cells are the atomic units of presence.  An entity's trace is
//! represented as a *sequence of ST-cell sets*, one set per sp-index level, where
//! the level-`i` set contains the projections of the base-level cells onto level
//! `i` (Example 4.1.1).

use crate::error::{ModelError, Result};
use crate::spatial::{Level, SpIndex, SpatialUnitId};
use crate::time::TimeUnit;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A spatial-temporal cell: one base temporal unit spent in one spatial unit.
///
/// Packed into a single `u64` (time in the high 32 bits) so that sorting by the
/// packed value orders cells time-major, and so that cell sets are cache-friendly
/// flat arrays of `u64`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[repr(transparent)]
pub struct StCell(u64);

impl StCell {
    /// Creates a cell from a time unit and a spatial unit.
    #[inline]
    pub fn new(time: TimeUnit, unit: SpatialUnitId) -> Self {
        StCell(((time as u64) << 32) | unit as u64)
    }

    /// The base temporal unit of this cell.
    #[inline]
    pub fn time(self) -> TimeUnit {
        (self.0 >> 32) as TimeUnit
    }

    /// The spatial unit of this cell.
    #[inline]
    pub fn unit(self) -> SpatialUnitId {
        self.0 as u32
    }

    /// The packed representation (useful as a hashing key).
    #[inline]
    pub fn packed(self) -> u64 {
        self.0
    }

    /// Reconstructs a cell from its packed representation.
    #[inline]
    pub fn from_packed(packed: u64) -> Self {
        StCell(packed)
    }
}

impl fmt::Display for StCell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}l{}", self.time(), self.unit())
    }
}

/// A set of ST-cells, stored as a sorted, deduplicated vector.
///
/// Set operations (intersection size, union, difference) are linear merges over
/// the sorted representation, which keeps the hot query path allocation-free and
/// branch-predictable.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CellSet {
    cells: Vec<StCell>,
}

impl CellSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        CellSet { cells: Vec::new() }
    }

    /// Creates a set from an arbitrary iterator of cells (sorts and deduplicates).
    pub fn from_cells<I: IntoIterator<Item = StCell>>(iter: I) -> Self {
        let mut cells: Vec<StCell> = iter.into_iter().collect();
        cells.sort_unstable();
        cells.dedup();
        CellSet { cells }
    }

    /// Creates a set from a vector that is already sorted and deduplicated.
    ///
    /// Debug builds assert the precondition.
    pub fn from_sorted_unique(cells: Vec<StCell>) -> Self {
        debug_assert!(cells.windows(2).all(|w| w[0] < w[1]), "cells must be sorted and unique");
        CellSet { cells }
    }

    /// Number of cells in the set.
    #[inline]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True when the set has no cells.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Iterates the cells in ascending packed order.
    pub fn iter(&self) -> impl Iterator<Item = StCell> + '_ {
        self.cells.iter().copied()
    }

    /// Read-only view of the underlying sorted slice.
    #[inline]
    pub fn as_slice(&self) -> &[StCell] {
        &self.cells
    }

    /// Read-only view of the sorted cells as their packed `u64` values, in the
    /// same (ascending) order as [`as_slice`](CellSet::as_slice).
    ///
    /// This is the hot-path representation consumed by the [`crate::kernel`]
    /// intersection kernels and by the flat candidate arena in the index crate.
    #[inline]
    pub fn packed_slice(&self) -> &[u64] {
        // SAFETY: `StCell` is `#[repr(transparent)]` over `u64`, so a slice of
        // cells has exactly the layout of a slice of their packed values, and
        // the packed ordering equals the derived `Ord` on `StCell`.
        unsafe { std::slice::from_raw_parts(self.cells.as_ptr().cast::<u64>(), self.cells.len()) }
    }

    /// Membership test (binary search).
    pub fn contains(&self, cell: StCell) -> bool {
        self.cells.binary_search(&cell).is_ok()
    }

    /// Inserts a cell, keeping the sorted-unique invariant. Returns true when the
    /// cell was not already present.
    pub fn insert(&mut self, cell: StCell) -> bool {
        match self.cells.binary_search(&cell) {
            Ok(_) => false,
            Err(pos) => {
                self.cells.insert(pos, cell);
                true
            }
        }
    }

    /// Inserts a batch of cells, restoring the sorted-unique invariant with a
    /// single sort + dedup pass — `O((n + k) log (n + k))` instead of the
    /// `O(n · k)` of `k` repeated [`insert`](CellSet::insert) shifts.
    pub(crate) fn extend_cells<I: IntoIterator<Item = StCell>>(&mut self, iter: I) {
        let old_len = self.cells.len();
        self.cells.extend(iter);
        if self.cells.len() > old_len {
            self.cells.sort_unstable();
            self.cells.dedup();
        }
    }

    /// Size of the intersection with another set.
    ///
    /// Dispatches between a branch-light linear merge and a galloping search
    /// depending on the size skew; see [`crate::kernel::intersection_len`].
    #[inline]
    pub fn intersection_len(&self, other: &CellSet) -> usize {
        crate::kernel::intersection_len(self.packed_slice(), other.packed_slice())
    }

    /// The intersection with another set.
    pub fn intersection(&self, other: &CellSet) -> CellSet {
        let (mut i, mut j) = (0usize, 0usize);
        let mut out = Vec::with_capacity(self.len().min(other.len()));
        let (a, b) = (&self.cells, &other.cells);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    out.push(a[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        CellSet { cells: out }
    }

    /// The union with another set.
    pub fn union(&self, other: &CellSet) -> CellSet {
        let mut out = Vec::with_capacity(self.len() + other.len());
        let (mut i, mut j) = (0usize, 0usize);
        let (a, b) = (&self.cells, &other.cells);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => {
                    out.push(a[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push(b[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    out.push(a[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&a[i..]);
        out.extend_from_slice(&b[j..]);
        CellSet { cells: out }
    }

    /// Cells of `self` that are not in `other`.
    pub fn difference(&self, other: &CellSet) -> CellSet {
        let mut out = Vec::with_capacity(self.len());
        let (mut i, mut j) = (0usize, 0usize);
        let (a, b) = (&self.cells, &other.cells);
        while i < a.len() {
            if j >= b.len() || a[i] < b[j] {
                out.push(a[i]);
                i += 1;
            } else if a[i] > b[j] {
                j += 1;
            } else {
                i += 1;
                j += 1;
            }
        }
        CellSet { cells: out }
    }
}

impl FromIterator<StCell> for CellSet {
    fn from_iter<I: IntoIterator<Item = StCell>>(iter: I) -> Self {
        CellSet::from_cells(iter)
    }
}

impl Extend<StCell> for CellSet {
    fn extend<I: IntoIterator<Item = StCell>>(&mut self, iter: I) {
        self.extend_cells(iter);
    }
}

impl<'a> IntoIterator for &'a CellSet {
    type Item = StCell;
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, StCell>>;

    fn into_iter(self) -> Self::IntoIter {
        self.cells.iter().copied()
    }
}

/// The per-level ST-cell set sequence `seq_a` of an entity (Section 4.1).
///
/// `sets[i - 1]` is `seq_a^i`, the set of level-`i` ST-cells.  The sequence is
/// built from the base-level cells by projecting every cell's spatial unit to each
/// ancestor level, exactly as in Example 4.1.1.
///
/// **Invariant — ancestor-closed:** for every level-`(l + 1)` cell `(t, u)`
/// the cell `(t, ancestor of u at level l)` is in the level-`l` set.  Two
/// closed sequences that share a level-`(l + 1)` cell therefore share its
/// level-`l` parent cell (Definition 3: the level of an AjPI is the number of
/// common ancestors), so an empty overlap at one level decides every finer
/// level — what the index's fused degree loop stops on.  Every constructor
/// establishes the invariant ([`from_base_cells`](Self::from_base_cells) by
/// projection, [`union`](Self::union) because it is closed under level-wise
/// union, [`from_level_sets`](Self::from_level_sets) by checking), and there
/// is no mutable access to the sets.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CellSetSequence {
    sets: Vec<CellSet>,
}

impl CellSetSequence {
    /// Builds the sequence from the base-level cells of an entity.
    pub fn from_base_cells(sp: &SpIndex, base_cells: &CellSet) -> Result<Self> {
        let m = sp.height() as usize;
        let mut sets: Vec<Vec<StCell>> = vec![Vec::new(); m];
        for cell in base_cells.iter() {
            for level in 1..=m as Level {
                let ancestor = sp.ancestor_at_level(cell.unit(), level)?;
                sets[(level - 1) as usize].push(StCell::new(cell.time(), ancestor));
            }
        }
        Ok(CellSetSequence { sets: sets.into_iter().map(CellSet::from_cells).collect() })
    }

    /// Builds a sequence directly from per-level sets, checking them against
    /// `sp`: one set per level, and every level-`(l + 1)` cell's
    /// `(time, ancestor at level l)` present in the level-`l` set — the
    /// type's ancestor-closure invariant.  Anything else is
    /// [`ModelError::InvalidSequence`] (or the error of resolving a cell's
    /// unit in `sp`).
    pub fn from_level_sets(sp: &SpIndex, sets: Vec<CellSet>) -> Result<Self> {
        if sets.len() != sp.height() as usize {
            return Err(ModelError::InvalidSequence(format!(
                "{} level sets for an sp-index of height {}",
                sets.len(),
                sp.height()
            )));
        }
        for (i, pair) in sets.windows(2).enumerate() {
            let (level, coarser, finer) = ((i + 1) as Level, &pair[0], &pair[1]);
            for cell in finer.iter() {
                let parent = StCell::new(cell.time(), sp.ancestor_at_level(cell.unit(), level)?);
                if !coarser.contains(parent) {
                    return Err(ModelError::InvalidSequence(format!(
                        "level-{} cell {cell} has no parent cell {parent} at level {level}",
                        level + 1
                    )));
                }
            }
        }
        Ok(CellSetSequence { sets })
    }

    /// The level-wise union with another sequence over the same sp-index —
    /// the sequence of the two traces put together (streaming ingest merges an
    /// entity's delta into its indexed trace this way).  Ancestor-closed
    /// because both operands are.
    ///
    /// # Panics
    /// Panics when the level counts differ.
    pub fn union(&self, other: &Self) -> Self {
        assert_eq!(self.num_levels(), other.num_levels(), "sequences of different sp-indexes");
        CellSetSequence {
            sets: self.sets.iter().zip(&other.sets).map(|(a, b)| a.union(b)).collect(),
        }
    }

    /// Number of levels (`m`).
    #[inline]
    pub fn num_levels(&self) -> usize {
        self.sets.len()
    }

    /// The set at a given level (1-based, as in the paper).
    pub fn level(&self, level: Level) -> &CellSet {
        &self.sets[(level - 1) as usize]
    }

    /// The base-level set `seq^m` (all ST-cells the entity is present in).
    pub fn base(&self) -> &CellSet {
        self.sets.last().expect("sequence has at least one level")
    }

    /// Iterates `(level, set)` pairs from level 1 to level m.
    pub fn iter_levels(&self) -> impl Iterator<Item = (Level, &CellSet)> {
        self.sets.iter().enumerate().map(|(i, s)| ((i + 1) as Level, s))
    }

    /// Total number of cells across all levels (a measure of representation size).
    pub fn total_cells(&self) -> usize {
        self.sets.iter().map(CellSet::len).sum()
    }
}

#[cfg(test)]
impl CellSet {
    /// True when every cell of `self` is also in `other`.
    fn is_subset_of(&self, other: &CellSet) -> bool {
        self.intersection_len(other) == self.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spatial::SpIndexBuilder;

    fn cell(t: TimeUnit, u: SpatialUnitId) -> StCell {
        StCell::new(t, u)
    }

    #[test]
    fn packing_round_trips() {
        let c = cell(0xDEAD, 0xBEEF);
        assert_eq!(c.time(), 0xDEAD);
        assert_eq!(c.unit(), 0xBEEF);
        assert_eq!(StCell::from_packed(c.packed()), c);
        assert_eq!(c.to_string(), format!("t{}l{}", 0xDEAD, 0xBEEF));
    }

    #[test]
    fn ordering_is_time_major() {
        assert!(cell(1, 100) < cell(2, 0));
        assert!(cell(1, 1) < cell(1, 2));
    }

    #[test]
    fn from_cells_sorts_and_dedups() {
        let s = CellSet::from_cells(vec![cell(2, 1), cell(1, 1), cell(2, 1), cell(1, 3)]);
        assert_eq!(s.len(), 3);
        let v: Vec<StCell> = s.iter().collect();
        assert_eq!(v, vec![cell(1, 1), cell(1, 3), cell(2, 1)]);
    }

    #[test]
    fn insert_maintains_invariants() {
        let mut s = CellSet::new();
        assert!(s.insert(cell(3, 3)));
        assert!(s.insert(cell(1, 1)));
        assert!(!s.insert(cell(3, 3)));
        assert_eq!(s.len(), 2);
        assert!(s.contains(cell(1, 1)));
        assert!(!s.contains(cell(2, 2)));
    }

    #[test]
    fn extend_cells_batch_matches_repeated_insert() {
        let mut batched = CellSet::from_cells(vec![cell(1, 1), cell(5, 5)]);
        let mut one_by_one = batched.clone();
        let incoming = vec![cell(3, 3), cell(1, 1), cell(0, 9), cell(3, 3)];
        batched.extend_cells(incoming.iter().copied());
        for c in incoming {
            one_by_one.insert(c);
        }
        assert_eq!(batched, one_by_one);
        assert_eq!(batched.len(), 4);
        // Empty batch is a no-op.
        let before = batched.clone();
        batched.extend_cells(std::iter::empty());
        assert_eq!(batched, before);
    }

    #[test]
    fn packed_slice_mirrors_cells_in_order() {
        let s = CellSet::from_cells(vec![cell(2, 1), cell(1, 7), cell(1, 3)]);
        let packed = s.packed_slice();
        assert_eq!(packed.len(), s.len());
        for (c, &p) in s.iter().zip(packed) {
            assert_eq!(c.packed(), p);
        }
        assert!(packed.windows(2).all(|w| w[0] < w[1]));
        assert!(CellSet::new().packed_slice().is_empty());
    }

    #[test]
    fn set_algebra() {
        let a = CellSet::from_cells(vec![cell(1, 1), cell(1, 2), cell(2, 1)]);
        let b = CellSet::from_cells(vec![cell(1, 2), cell(2, 1), cell(3, 5)]);
        assert_eq!(a.intersection_len(&b), 2);
        assert_eq!(a.intersection(&b).len(), 2);
        assert_eq!(a.union(&b).len(), 4);
        assert_eq!(a.difference(&b).len(), 1);
        assert_eq!(b.difference(&a).len(), 1);
        assert!(a.intersection(&b).is_subset_of(&a));
        assert!(a.intersection(&b).is_subset_of(&b));
        assert!(!a.is_subset_of(&b));
    }

    #[test]
    fn empty_set_algebra_edge_cases() {
        let a = CellSet::new();
        let b = CellSet::from_cells(vec![cell(1, 1)]);
        assert_eq!(a.intersection_len(&b), 0);
        assert_eq!(a.union(&b).len(), 1);
        assert_eq!(a.difference(&b).len(), 0);
        assert!(a.is_subset_of(&b));
        assert!(a.is_subset_of(&a));
        assert!(a.is_empty());
    }

    /// Example 4.1.1 from the paper: entity present at L3 at time T1 and L1 at
    /// time T2 has seq^2 = {T1L3, T2L1}, seq^1 = {T1L6, T2L5}.
    #[test]
    fn paper_example_4_1_1_projection() {
        let mut b = SpIndexBuilder::new(2);
        let l5 = b.add_top_unit().unwrap();
        let l6 = b.add_top_unit().unwrap();
        let l1 = b.add_child(l5).unwrap();
        let _l2 = b.add_child(l5).unwrap();
        let l3 = b.add_child(l6).unwrap();
        let _l4 = b.add_child(l6).unwrap();
        let sp = b.build().unwrap();

        let base = CellSet::from_cells(vec![cell(1, l3), cell(2, l1)]);
        let seq = CellSetSequence::from_base_cells(&sp, &base).unwrap();
        assert_eq!(seq.num_levels(), 2);
        assert_eq!(seq.level(2), &base);
        let expected_l1 = CellSet::from_cells(vec![cell(1, l6), cell(2, l5)]);
        assert_eq!(seq.level(1), &expected_l1);
        assert_eq!(seq.base(), &base);
        assert_eq!(seq.total_cells(), 4);
    }

    #[test]
    fn projection_merges_siblings_into_one_parent_cell() {
        // Two different children of the same parent at the same time collapse into
        // a single parent-level cell.
        let mut b = SpIndexBuilder::new(2);
        let top = b.add_top_unit().unwrap();
        let c1 = b.add_child(top).unwrap();
        let c2 = b.add_child(top).unwrap();
        let sp = b.build().unwrap();
        let base = CellSet::from_cells(vec![cell(5, c1), cell(5, c2)]);
        let seq = CellSetSequence::from_base_cells(&sp, &base).unwrap();
        assert_eq!(seq.level(2).len(), 2);
        assert_eq!(seq.level(1).len(), 1);
    }

    #[test]
    fn union_and_from_level_sets_keep_sequences_ancestor_closed() {
        let (sp, base) = crossed_hierarchy();
        let seq = |cells: &[StCell]| {
            CellSetSequence::from_base_cells(&sp, &CellSet::from_cells(cells.to_vec())).unwrap()
        };
        let a = seq(&[cell(1, base[0]), cell(2, base[5])]);
        let b = seq(&[cell(1, base[1]), cell(2, base[5]), cell(9, base[7])]);
        // The union of two traces' sequences is the sequence of both traces.
        let both = seq(&[cell(1, base[0]), cell(1, base[1]), cell(2, base[5]), cell(9, base[7])]);
        assert_eq!(a.union(&b), both);
        assert_eq!(a.union(&CellSetSequence::from_base_cells(&sp, &CellSet::new()).unwrap()), a);

        // The checked constructor takes back what the others build ...
        let sets = |s: &CellSetSequence| s.iter_levels().map(|(_, set)| set.clone()).collect();
        assert_eq!(CellSetSequence::from_level_sets(&sp, sets(&both)).unwrap(), both);
        // ... and nothing else: a finer cell without its parent cell, the
        // wrong number of levels, a unit the hierarchy does not know.
        let mut orphan: Vec<CellSet> = sets(&a);
        orphan[1] = b.level(2).clone();
        let err = CellSetSequence::from_level_sets(&sp, orphan).unwrap_err();
        assert!(matches!(err, ModelError::InvalidSequence(_)), "{err}");
        let short = sets(&a).into_iter().take(2).collect();
        assert!(matches!(
            CellSetSequence::from_level_sets(&sp, short),
            Err(ModelError::InvalidSequence(_))
        ));
        let unknown =
            vec![CellSet::new(), CellSet::from_cells(vec![cell(0, 9_999)]), CellSet::new()];
        assert!(CellSetSequence::from_level_sets(&sp, unknown).is_err());
    }

    /// A 3-level hierarchy whose ancestor order *reverses* the base-unit id
    /// order.
    fn crossed_hierarchy() -> (SpIndex, Vec<SpatialUnitId>) {
        let mut b = SpIndexBuilder::new(3);
        let tops = [b.add_top_unit().unwrap(), b.add_top_unit().unwrap()];
        let mids: Vec<SpatialUnitId> =
            [tops[1], tops[0], tops[1], tops[0]].iter().map(|&t| b.add_child(t).unwrap()).collect();
        let mut base = Vec::new();
        for &mid in mids.iter().rev() {
            base.push(b.add_child(mid).unwrap());
            base.push(b.add_child(mid).unwrap());
        }
        (b.build().unwrap(), base)
    }

    #[test]
    fn iter_levels_is_one_based_and_ordered() {
        let sp = SpIndex::uniform(2, &[2, 2]).unwrap();
        let base_unit = sp.base_units()[0];
        let base = CellSet::from_cells(vec![cell(0, base_unit)]);
        let seq = CellSetSequence::from_base_cells(&sp, &base).unwrap();
        let levels: Vec<Level> = seq.iter_levels().map(|(l, _)| l).collect();
        assert_eq!(levels, vec![1, 2, 3]);
    }
}
