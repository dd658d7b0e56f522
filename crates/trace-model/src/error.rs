//! Error types shared by the trace data model.

use std::fmt;

/// Convenient result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, ModelError>;

/// Errors produced while constructing or manipulating the trace data model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelError {
    /// A spatial unit id was used that does not exist in the sp-index.
    UnknownSpatialUnit(u32),
    /// An entity id was used that is not present in the trace set.
    UnknownEntity(u64),
    /// A presence instance refers to a level outside `1..=m`.
    InvalidLevel {
        /// The offending level.
        level: u8,
        /// The height of the sp-index.
        height: u8,
    },
    /// A time period whose end precedes its start.
    InvalidPeriod {
        /// Period start (inclusive).
        start: u64,
        /// Period end (exclusive).
        end: u64,
    },
    /// The sp-index under construction is structurally invalid.
    InvalidHierarchy(String),
    /// A measure parameter is outside its documented domain.
    InvalidMeasureParameter(String),
    /// Per-level ST-cell sets that are not the sequence of any trace: the
    /// wrong number of levels, or a cell whose parent cell is missing from
    /// the next coarser level.
    InvalidSequence(String),
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::UnknownSpatialUnit(id) => write!(f, "unknown spatial unit id {id}"),
            ModelError::UnknownEntity(id) => write!(f, "unknown entity id {id}"),
            ModelError::InvalidLevel { level, height } => {
                write!(f, "level {level} outside the sp-index height 1..={height}")
            }
            ModelError::InvalidPeriod { start, end } => {
                write!(f, "invalid period: end {end} precedes start {start}")
            }
            ModelError::InvalidHierarchy(msg) => write!(f, "invalid spatial hierarchy: {msg}"),
            ModelError::InvalidMeasureParameter(msg) => {
                write!(f, "invalid measure parameter: {msg}")
            }
            ModelError::InvalidSequence(msg) => write!(f, "invalid cell-set sequence: {msg}"),
        }
    }
}

impl std::error::Error for ModelError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let cases: Vec<(ModelError, &str)> = vec![
            (ModelError::UnknownSpatialUnit(7), "unknown spatial unit id 7"),
            (ModelError::UnknownEntity(9), "unknown entity id 9"),
            (
                ModelError::InvalidLevel { level: 9, height: 4 },
                "level 9 outside the sp-index height 1..=4",
            ),
            (
                ModelError::InvalidPeriod { start: 5, end: 2 },
                "invalid period: end 2 precedes start 5",
            ),
        ];
        for (err, expect) in cases {
            assert_eq!(err.to_string(), expect);
        }
    }

    #[test]
    fn errors_are_comparable_and_cloneable() {
        let a = ModelError::UnknownEntity(1);
        let b = a.clone();
        assert_eq!(a, b);
        assert_ne!(a, ModelError::UnknownEntity(2));
    }
}
