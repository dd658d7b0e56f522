//! Presence instances and digital traces (Definitions 1 and 2).

use crate::cell::{CellSet, CellSetSequence, StCell};
use crate::entity::EntityId;
use crate::error::Result;
use crate::spatial::{Level, SpIndex, SpatialUnitId};
use crate::time::Period;
use serde::{Deserialize, Serialize};

/// A presence instance (Definition 1): one entity present at one spatial unit for
/// one continuous time period.
///
/// The paper's `path` and `level` attributes are derivable from the spatial unit
/// and the sp-index, so only the unit is stored; `tid` (the sp-index id) is
/// implicit because a multi-tree deployment is modelled as one sp-index with
/// several level-1 units.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PresenceInstance {
    /// The entity this presence belongs to.
    pub entity: EntityId,
    /// The spatial unit of the presence (usually a base spatial unit).
    pub unit: SpatialUnitId,
    /// The time period `[start, end)` of the presence, in raw ticks.
    pub period: Period,
}

impl PresenceInstance {
    /// Creates a presence instance.
    pub fn new(entity: EntityId, unit: SpatialUnitId, period: Period) -> Self {
        PresenceInstance { entity, unit, period }
    }

    /// The level of this presence in the sp-index.
    pub fn level(&self, sp: &SpIndex) -> Result<Level> {
        sp.level(self.unit)
    }

    /// The root-to-unit path of this presence (`path` in Definition 1).
    pub fn path(&self, sp: &SpIndex) -> Result<Vec<SpatialUnitId>> {
        sp.path(self.unit)
    }
}

/// The digital trace of one entity: its set of presence instances (Definition 2).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DigitalTrace {
    instances: Vec<PresenceInstance>,
}

impl DigitalTrace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        DigitalTrace { instances: Vec::new() }
    }

    /// Creates a trace from a list of presence instances.
    pub fn from_instances(instances: Vec<PresenceInstance>) -> Self {
        DigitalTrace { instances }
    }

    /// Adds a presence instance.
    pub fn push(&mut self, pi: PresenceInstance) {
        self.instances.push(pi);
    }

    /// Number of presence instances (`|P_a|`).
    #[inline]
    pub fn len(&self) -> usize {
        self.instances.len()
    }

    /// True when the trace has no presence instances.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.instances.is_empty()
    }

    /// Read-only access to the presence instances.
    #[inline]
    pub fn instances(&self) -> &[PresenceInstance] {
        &self.instances
    }

    /// Total presence duration in raw ticks.
    pub fn total_duration(&self) -> u64 {
        self.instances.iter().map(|pi| pi.period.length()).sum()
    }

    /// The base-level ST-cells of this trace: every presence instance is split
    /// into the base temporal units it covers, keyed by the instance's spatial
    /// unit (which must be a base unit for the cell to be a true base ST-cell).
    pub(crate) fn base_cells(&self, sp: &SpIndex, ticks_per_unit: u64) -> Result<CellSet> {
        let mut cells = Vec::new();
        for pi in &self.instances {
            // Presences recorded at coarser units are projected "down" by simply
            // keeping the coarse unit: they only contribute to the levels at or
            // above their own level.  The common case — and the only one the
            // synthetic generators produce — is base-level presences.
            let _ = sp.level(pi.unit)?;
            for t in pi.period.units(ticks_per_unit) {
                cells.push(StCell::new(t, pi.unit));
            }
        }
        Ok(CellSet::from_cells(cells))
    }

    /// The per-level ST-cell set sequence of this trace (Section 4.1).
    pub fn cell_sequence(&self, sp: &SpIndex, ticks_per_unit: u64) -> Result<CellSetSequence> {
        let base = self.base_cells(sp, ticks_per_unit)?;
        CellSetSequence::from_base_cells(sp, &base)
    }
}

impl FromIterator<PresenceInstance> for DigitalTrace {
    fn from_iter<I: IntoIterator<Item = PresenceInstance>>(iter: I) -> Self {
        DigitalTrace { instances: iter.into_iter().collect() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spatial::SpIndexBuilder;

    fn two_level_sp() -> (SpIndex, Vec<SpatialUnitId>) {
        let mut b = SpIndexBuilder::new(2);
        let t0 = b.add_top_unit().unwrap();
        let t1 = b.add_top_unit().unwrap();
        let c0 = b.add_child(t0).unwrap();
        let c1 = b.add_child(t0).unwrap();
        let c2 = b.add_child(t1).unwrap();
        let c3 = b.add_child(t1).unwrap();
        (b.build().unwrap(), vec![c0, c1, c2, c3, t0, t1])
    }

    #[test]
    fn presence_instance_level_and_path() {
        let (sp, ids) = two_level_sp();
        let pi = PresenceInstance::new(EntityId(1), ids[0], Period::new(0, 10).unwrap());
        assert_eq!(pi.level(&sp).unwrap(), 2);
        let path = pi.path(&sp).unwrap();
        assert_eq!(path.len(), 2);
        assert_eq!(path[1], ids[0]);
    }

    #[test]
    fn trace_accumulates_instances_and_duration() {
        let (_sp, ids) = two_level_sp();
        let mut trace = DigitalTrace::new();
        assert!(trace.is_empty());
        trace.push(PresenceInstance::new(EntityId(1), ids[0], Period::new(0, 60).unwrap()));
        trace.push(PresenceInstance::new(EntityId(1), ids[1], Period::new(100, 160).unwrap()));
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.total_duration(), 120);
    }

    #[test]
    fn base_cells_discretise_periods() {
        let (sp, ids) = two_level_sp();
        let trace = DigitalTrace::from_instances(vec![
            // Spans units 0 and 1 with ticks_per_unit = 60.
            PresenceInstance::new(EntityId(1), ids[0], Period::new(30, 90).unwrap()),
            // Exactly unit 2.
            PresenceInstance::new(EntityId(1), ids[2], Period::new(120, 180).unwrap()),
        ]);
        let cells = trace.base_cells(&sp, 60).unwrap();
        assert_eq!(cells.len(), 3);
        assert!(cells.contains(StCell::new(0, ids[0])));
        assert!(cells.contains(StCell::new(1, ids[0])));
        assert!(cells.contains(StCell::new(2, ids[2])));
    }

    #[test]
    fn overlapping_instances_at_same_place_dedupe() {
        let (sp, ids) = two_level_sp();
        let trace = DigitalTrace::from_instances(vec![
            PresenceInstance::new(EntityId(1), ids[0], Period::new(0, 60).unwrap()),
            PresenceInstance::new(EntityId(1), ids[0], Period::new(30, 60).unwrap()),
        ]);
        let cells = trace.base_cells(&sp, 60).unwrap();
        assert_eq!(cells.len(), 1);
    }

    #[test]
    fn cell_sequence_projects_to_parent_level() {
        let (sp, ids) = two_level_sp();
        let trace = DigitalTrace::from_instances(vec![
            PresenceInstance::new(EntityId(1), ids[0], Period::new(0, 60).unwrap()),
            PresenceInstance::new(EntityId(1), ids[1], Period::new(0, 60).unwrap()),
        ]);
        let seq = trace.cell_sequence(&sp, 60).unwrap();
        assert_eq!(seq.level(2).len(), 2);
        // Both base units share the same parent, same time unit → one level-1 cell.
        assert_eq!(seq.level(1).len(), 1);
    }

    #[test]
    fn empty_trace_produces_empty_sequence() {
        let (sp, _) = two_level_sp();
        let trace = DigitalTrace::new();
        let seq = trace.cell_sequence(&sp, 60).unwrap();
        assert_eq!(seq.num_levels(), 2);
        assert!(seq.base().is_empty());
        assert!(seq.level(1).is_empty());
    }

    #[test]
    fn unknown_unit_is_an_error() {
        let (sp, _) = two_level_sp();
        let trace = DigitalTrace::from_instances(vec![PresenceInstance::new(
            EntityId(1),
            999,
            Period::new(0, 10).unwrap(),
        )]);
        assert!(trace.base_cells(&sp, 60).is_err());
    }
}
