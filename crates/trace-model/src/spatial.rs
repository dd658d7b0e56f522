//! The spatial hierarchy (*sp-index*) of Section 3.1.
//!
//! Locations exhibit a hierarchical structure known a priori (city → district →
//! street → building).  The sp-index organises spatial units from coarsest
//! (level 1) to finest (level `m`, the *base spatial units* — the atomic locations
//! at which entities can be present).  Following Example 4.1.1 of the paper, level
//! 1 may contain several units; conceptually there is a virtual root above level 1.
//!
//! The index is an arena: units are identified by dense [`SpatialUnitId`]s, parents
//! and children are stored per unit, and every internal unit knows the contiguous
//! range of base-unit ordinals below it.  The contiguous range makes projecting a
//! base unit to any ancestor level an O(1) lookup, which the signature machinery
//! and the association measures rely on heavily.

use crate::error::{ModelError, Result};
use serde::{Deserialize, Serialize};

/// Identifier of a spatial unit within one sp-index (dense, assigned by the builder).
pub type SpatialUnitId = u32;

/// A level in the sp-index: `1` is the coarsest, `m` the base level.
pub type Level = u8;

/// Metadata stored for every spatial unit.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct UnitMeta {
    level: Level,
    parent: Option<SpatialUnitId>,
    children: Vec<SpatialUnitId>,
    /// Half-open range of base-unit ordinals covered by this unit.
    base_range: (u32, u32),
    /// Ordinal among base units (only meaningful when `level == height`).
    base_ordinal: u32,
}

/// An immutable spatial hierarchy.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SpIndex {
    height: Level,
    units: Vec<UnitMeta>,
    /// Units at level 1 (children of the virtual root), in insertion order.
    top_units: Vec<SpatialUnitId>,
    /// Base units ordered by ordinal.
    base_units: Vec<SpatialUnitId>,
    /// `ancestors[unit][l-1]` = ancestor of `unit` at level `l` (only filled for
    /// levels `<=` the unit's own level; the unit itself is its own "ancestor" at
    /// its level).
    ancestors: Vec<Vec<SpatialUnitId>>,
}

impl SpIndex {
    /// Height `m` of the hierarchy (number of levels).
    #[inline]
    pub fn height(&self) -> Level {
        self.height
    }

    /// Total number of spatial units across all levels.
    #[inline]
    pub fn num_units(&self) -> usize {
        self.units.len()
    }

    /// Number of base spatial units (`|L|` in the paper's notation).
    #[inline]
    pub fn num_base_units(&self) -> usize {
        self.base_units.len()
    }

    /// The base spatial units in ordinal order.
    #[inline]
    pub fn base_units(&self) -> &[SpatialUnitId] {
        &self.base_units
    }

    /// Units at level 1 (the coarsest real level).
    #[inline]
    pub fn top_units(&self) -> &[SpatialUnitId] {
        &self.top_units
    }

    /// Returns true when the id refers to an existing unit.
    #[inline]
    pub fn contains(&self, unit: SpatialUnitId) -> bool {
        (unit as usize) < self.units.len()
    }

    fn meta(&self, unit: SpatialUnitId) -> Result<&UnitMeta> {
        self.units.get(unit as usize).ok_or(ModelError::UnknownSpatialUnit(unit))
    }

    /// Level of a unit.
    pub fn level(&self, unit: SpatialUnitId) -> Result<Level> {
        Ok(self.meta(unit)?.level)
    }

    /// `parent(l)` as written in the paper; `None` for level-1 units.
    pub fn parent(&self, unit: SpatialUnitId) -> Result<Option<SpatialUnitId>> {
        Ok(self.meta(unit)?.parent)
    }

    /// Children of a unit (empty for base units).
    pub fn children(&self, unit: SpatialUnitId) -> Result<&[SpatialUnitId]> {
        Ok(&self.meta(unit)?.children)
    }

    /// Ordinal of a base unit (its index in [`SpIndex::base_units`]).
    pub fn base_ordinal(&self, unit: SpatialUnitId) -> Result<u32> {
        let meta = self.meta(unit)?;
        if meta.level != self.height {
            return Err(ModelError::InvalidHierarchy(format!(
                "unit {unit} at level {} is not a base unit",
                meta.level
            )));
        }
        Ok(meta.base_ordinal)
    }

    /// The base unit with the given ordinal.
    pub fn base_unit_at(&self, ordinal: u32) -> Option<SpatialUnitId> {
        self.base_units.get(ordinal as usize).copied()
    }

    /// Half-open range of base-unit ordinals covered by `unit`.
    pub fn base_range(&self, unit: SpatialUnitId) -> Result<(u32, u32)> {
        Ok(self.meta(unit)?.base_range)
    }

    /// The ancestor of `unit` at `level` (which must be `<=` the unit's own level).
    /// The unit itself is returned when `level` equals its own level.
    pub fn ancestor_at_level(&self, unit: SpatialUnitId, level: Level) -> Result<SpatialUnitId> {
        let meta = self.meta(unit)?;
        if level == 0 || level > meta.level {
            return Err(ModelError::InvalidLevel { level, height: self.height });
        }
        Ok(self.ancestors[unit as usize][(level - 1) as usize])
    }

    /// The root-to-unit path of spatial units: `[level-1 ancestor, ..., unit]`.
    pub fn path(&self, unit: SpatialUnitId) -> Result<Vec<SpatialUnitId>> {
        self.ancestors(unit).map(<[SpatialUnitId]>::to_vec)
    }

    /// [`path`](Self::path) as a borrow: entry `l - 1` is the ancestor of
    /// `unit` at level `l`, the last entry is `unit` itself.
    pub fn ancestors(&self, unit: SpatialUnitId) -> Result<&[SpatialUnitId]> {
        let meta = self.meta(unit)?;
        Ok(&self.ancestors[unit as usize][..meta.level as usize])
    }

    /// All units at a given level, in id order.
    pub fn units_at_level(&self, level: Level) -> Vec<SpatialUnitId> {
        (0..self.units.len() as u32).filter(|&u| self.units[u as usize].level == level).collect()
    }

    /// Number of units at each level, indexed by `level - 1`.
    pub fn width_per_level(&self) -> Vec<usize> {
        let mut widths = vec![0usize; self.height as usize];
        for meta in &self.units {
            widths[(meta.level - 1) as usize] += 1;
        }
        widths
    }

    /// Builds a uniform hierarchy where each level-`l` unit has exactly
    /// `branching[l-1]` children, for `l` in `1..m`.  `branching.len() + 1` is the
    /// height, and `branching` must be non-empty for a multi-level hierarchy; pass
    /// an empty slice with `top_units > 0` for a flat single-level index.
    ///
    /// This is mostly a convenience for tests and examples.
    pub fn uniform(top_units: usize, branching: &[usize]) -> Result<SpIndex> {
        if top_units == 0 {
            return Err(ModelError::InvalidHierarchy("top_units must be positive".into()));
        }
        let height = (branching.len() + 1) as Level;
        let mut builder = SpIndexBuilder::new(height);
        let mut current: Vec<SpatialUnitId> = Vec::with_capacity(top_units);
        for _ in 0..top_units {
            current.push(builder.add_top_unit()?);
        }
        for (depth, &fanout) in branching.iter().enumerate() {
            if fanout == 0 {
                return Err(ModelError::InvalidHierarchy(format!(
                    "branching factor at depth {depth} must be positive"
                )));
            }
            let mut next = Vec::with_capacity(current.len() * fanout);
            for &parent in &current {
                for _ in 0..fanout {
                    next.push(builder.add_child(parent)?);
                }
            }
            current = next;
        }
        builder.build()
    }
}

/// Incremental builder for an [`SpIndex`].
///
/// Units must be added top-down: level-1 units first (via [`add_top_unit`]), then
/// children of already-added units (via [`add_child`]).  [`build`] validates that
/// every leaf sits exactly at level `m` and computes base ordinals / ancestor
/// tables.
///
/// [`add_top_unit`]: SpIndexBuilder::add_top_unit
/// [`add_child`]: SpIndexBuilder::add_child
/// [`build`]: SpIndexBuilder::build
#[derive(Debug, Clone)]
pub struct SpIndexBuilder {
    height: Level,
    units: Vec<UnitMeta>,
    top_units: Vec<SpatialUnitId>,
}

impl SpIndexBuilder {
    /// Creates a builder for a hierarchy of the given height (`m >= 1`).
    pub fn new(height: Level) -> Self {
        assert!(height >= 1, "sp-index height must be at least 1");
        SpIndexBuilder { height, units: Vec::new(), top_units: Vec::new() }
    }

    /// Height this builder was created with.
    pub fn height(&self) -> Level {
        self.height
    }

    /// Number of units added so far.
    pub fn len(&self) -> usize {
        self.units.len()
    }

    /// True when no units have been added yet.
    pub fn is_empty(&self) -> bool {
        self.units.is_empty()
    }

    /// Adds a level-1 unit (a child of the virtual root) and returns its id.
    pub fn add_top_unit(&mut self) -> Result<SpatialUnitId> {
        let id = self.units.len() as SpatialUnitId;
        self.units.push(UnitMeta {
            level: 1,
            parent: None,
            children: Vec::new(),
            base_range: (0, 0),
            base_ordinal: u32::MAX,
        });
        self.top_units.push(id);
        Ok(id)
    }

    /// Adds a child of an existing unit and returns its id.
    pub fn add_child(&mut self, parent: SpatialUnitId) -> Result<SpatialUnitId> {
        let parent_level =
            self.units.get(parent as usize).ok_or(ModelError::UnknownSpatialUnit(parent))?.level;
        let level = parent_level + 1;
        if level > self.height {
            return Err(ModelError::InvalidLevel { level, height: self.height });
        }
        let id = self.units.len() as SpatialUnitId;
        self.units.push(UnitMeta {
            level,
            parent: Some(parent),
            children: Vec::new(),
            base_range: (0, 0),
            base_ordinal: u32::MAX,
        });
        self.units[parent as usize].children.push(id);
        Ok(id)
    }

    /// Finalises the hierarchy.
    ///
    /// Validation rules:
    /// * at least one level-1 unit exists;
    /// * every unit at a level `< m` has at least one child;
    /// * base units are exactly the units at level `m`.
    pub fn build(self) -> Result<SpIndex> {
        let SpIndexBuilder { height, mut units, top_units } = self;
        if top_units.is_empty() {
            return Err(ModelError::InvalidHierarchy("no level-1 units".into()));
        }
        for (id, meta) in units.iter().enumerate() {
            if meta.level < height && meta.children.is_empty() {
                return Err(ModelError::InvalidHierarchy(format!(
                    "unit {id} at level {} has no children but the hierarchy height is {height}",
                    meta.level
                )));
            }
        }

        // DFS to assign base ordinals and base ranges.
        let mut base_units = Vec::new();
        let mut stack: Vec<(SpatialUnitId, bool)> =
            top_units.iter().rev().map(|&u| (u, false)).collect();
        // Iterative post-order: first visit assigns range start, second visit range end.
        let mut range_start = vec![0u32; units.len()];
        while let Some((unit, expanded)) = stack.pop() {
            if expanded {
                let end = base_units.len() as u32;
                units[unit as usize].base_range = (range_start[unit as usize], end);
                continue;
            }
            range_start[unit as usize] = base_units.len() as u32;
            if units[unit as usize].level == height {
                let ordinal = base_units.len() as u32;
                units[unit as usize].base_ordinal = ordinal;
                base_units.push(unit);
                units[unit as usize].base_range = (ordinal, ordinal + 1);
                continue;
            }
            stack.push((unit, true));
            let children = units[unit as usize].children.clone();
            for &child in children.iter().rev() {
                stack.push((child, false));
            }
        }

        // Ancestor tables.
        let mut ancestors = vec![Vec::new(); units.len()];
        // Units were inserted parent-before-child, so a single forward pass works.
        for id in 0..units.len() {
            let meta = &units[id];
            let mut path = match meta.parent {
                Some(p) => ancestors[p as usize].clone(),
                None => Vec::new(),
            };
            path.push(id as SpatialUnitId);
            debug_assert_eq!(path.len(), meta.level as usize);
            ancestors[id] = path;
        }

        Ok(SpIndex { height, units, top_units, base_units, ancestors })
    }
}

#[cfg(test)]
impl SpIndex {
    /// True when the unit is a base spatial unit (level `m`).
    fn is_base(&self, unit: SpatialUnitId) -> Result<bool> {
        Ok(self.meta(unit)?.level == self.height)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds the Example 4.1.1 hierarchy: m = 2, L5 = {L1, L2}, L6 = {L3, L4}.
    fn example_hierarchy() -> (SpIndex, [SpatialUnitId; 6]) {
        let mut b = SpIndexBuilder::new(2);
        let l5 = b.add_top_unit().unwrap();
        let l6 = b.add_top_unit().unwrap();
        let l1 = b.add_child(l5).unwrap();
        let l2 = b.add_child(l5).unwrap();
        let l3 = b.add_child(l6).unwrap();
        let l4 = b.add_child(l6).unwrap();
        (b.build().unwrap(), [l1, l2, l3, l4, l5, l6])
    }

    #[test]
    fn example_hierarchy_structure() {
        let (sp, [l1, l2, l3, l4, l5, l6]) = example_hierarchy();
        assert_eq!(sp.height(), 2);
        assert_eq!(sp.num_units(), 6);
        assert_eq!(sp.num_base_units(), 4);
        assert_eq!(sp.parent(l1).unwrap(), Some(l5));
        assert_eq!(sp.parent(l2).unwrap(), Some(l5));
        assert_eq!(sp.parent(l3).unwrap(), Some(l6));
        assert_eq!(sp.parent(l4).unwrap(), Some(l6));
        assert_eq!(sp.parent(l5).unwrap(), None);
        assert_eq!(sp.children(l6).unwrap(), &[l3, l4]);
        assert!(sp.is_base(l1).unwrap());
        assert!(!sp.is_base(l5).unwrap());
    }

    #[test]
    fn base_ranges_are_contiguous_and_cover_children() {
        let (sp, [l1, l2, l3, l4, l5, l6]) = example_hierarchy();
        let (lo5, hi5) = sp.base_range(l5).unwrap();
        let (lo6, hi6) = sp.base_range(l6).unwrap();
        assert_eq!(hi5 - lo5, 2);
        assert_eq!(hi6 - lo6, 2);
        // Children ordinals fall inside the parent's range.
        for (parent, children) in [(l5, [l1, l2]), (l6, [l3, l4])] {
            let (lo, hi) = sp.base_range(parent).unwrap();
            for c in children {
                let o = sp.base_ordinal(c).unwrap();
                assert!(o >= lo && o < hi);
            }
        }
        // The two ranges tile the base ordinals.
        let mut all: Vec<u32> = (lo5..hi5).chain(lo6..hi6).collect();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2, 3]);
    }

    #[test]
    fn ancestor_projection() {
        let (sp, [l1, _l2, l3, _l4, l5, l6]) = example_hierarchy();
        assert_eq!(sp.ancestor_at_level(l1, 1).unwrap(), l5);
        assert_eq!(sp.ancestor_at_level(l3, 1).unwrap(), l6);
        assert_eq!(sp.ancestor_at_level(l1, 2).unwrap(), l1);
        assert_eq!(sp.ancestor_at_level(l5, 1).unwrap(), l5);
        assert!(sp.ancestor_at_level(l5, 2).is_err());
        assert!(sp.ancestor_at_level(l1, 0).is_err());
    }

    #[test]
    fn paths_run_root_to_unit() {
        let (sp, [l1, ..]) = example_hierarchy();
        let path = sp.path(l1).unwrap();
        assert_eq!(path.len(), 2);
        assert_eq!(sp.level(path[0]).unwrap(), 1);
        assert_eq!(path[1], l1);
    }

    #[test]
    fn uniform_builds_expected_widths() {
        let sp = SpIndex::uniform(3, &[4, 5]).unwrap();
        assert_eq!(sp.height(), 3);
        assert_eq!(sp.width_per_level(), vec![3, 12, 60]);
        assert_eq!(sp.num_base_units(), 60);
        // Every base unit projects to a level-1 ancestor.
        for &b in sp.base_units() {
            let a = sp.ancestor_at_level(b, 1).unwrap();
            assert_eq!(sp.level(a).unwrap(), 1);
        }
    }

    #[test]
    fn uniform_rejects_degenerate_configs() {
        assert!(SpIndex::uniform(0, &[2]).is_err());
        assert!(SpIndex::uniform(2, &[0]).is_err());
    }

    #[test]
    fn builder_rejects_leafless_internal_units() {
        let mut b = SpIndexBuilder::new(3);
        let top = b.add_top_unit().unwrap();
        let _mid = b.add_child(top).unwrap();
        // mid has no children but height is 3.
        assert!(b.build().is_err());
    }

    #[test]
    fn builder_rejects_children_below_base_level() {
        let mut b = SpIndexBuilder::new(2);
        let top = b.add_top_unit().unwrap();
        let leaf = b.add_child(top).unwrap();
        assert!(b.add_child(leaf).is_err());
    }

    #[test]
    fn builder_rejects_empty_hierarchy() {
        let b = SpIndexBuilder::new(2);
        assert!(b.build().is_err());
    }

    #[test]
    fn unknown_units_are_reported() {
        let (sp, _) = example_hierarchy();
        assert!(matches!(sp.level(999), Err(ModelError::UnknownSpatialUnit(999))));
        assert!(sp.parent(999).is_err());
        assert!(sp.children(999).is_err());
    }

    #[test]
    fn units_at_level_lists_every_unit_once() {
        let sp = SpIndex::uniform(2, &[3, 2]).unwrap();
        let total: usize = (1..=sp.height()).map(|l| sp.units_at_level(l).len()).sum();
        assert_eq!(total, sp.num_units());
    }

    #[test]
    fn single_level_hierarchy_is_allowed() {
        let sp = SpIndex::uniform(5, &[]).unwrap();
        assert_eq!(sp.height(), 1);
        assert_eq!(sp.num_base_units(), 5);
        for &u in sp.base_units() {
            assert!(sp.is_base(u).unwrap());
            assert_eq!(sp.level(u).unwrap(), 1);
        }
    }
}
