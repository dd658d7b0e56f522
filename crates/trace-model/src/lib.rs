//! # trace-model
//!
//! The data model underlying *Top-k Queries over Digital Traces* (Li, Yu, Koudas;
//! SIGMOD 2019).  A *digital trace* is the set of presence instances of an entity:
//! tuples `<entity, location, time period>` where locations live in a spatial
//! hierarchy (the *sp-index*) and timestamps are discretised into base temporal
//! units.
//!
//! This crate provides:
//!
//! * [`SpIndex`] — the spatial hierarchy (Section 3.1 of the paper), an arena tree
//!   with levels `1..=m` where level `m` holds the *base spatial units*;
//! * [`StCell`] — a spatial-temporal cell, the atomic unit of presence;
//! * [`PresenceInstance`] / [`DigitalTrace`] / [`TraceSet`] — entity traces
//!   (Definitions 1–2);
//! * [`CellSetSequence`] — the per-level ST-cell set representation of Section 4.1;
//! * [`ajpi`] — adjoint presence instances (Definition 3) and per-level overlap
//!   statistics;
//! * [`adm`] — the generic association-degree-measure family of Section 3.2 with
//!   the paper's extensible measure (Equation 7.1), Dice, Jaccard and a weighted
//!   per-level measure.
//!
//! Everything here is deliberately independent of indexing: the brute-force
//! evaluation of a top-k query needs only this crate, and the MinSigTree index in
//! the `minsig` crate is verified against it.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod adm;
pub mod ajpi;
pub mod cell;
pub mod entity;
pub mod error;
pub mod examples;
pub mod kernel;
pub mod presence;
pub mod spatial;
pub mod time;
pub mod traces;

pub use adm::{AssociationMeasure, DiceAdm, JaccardAdm, PaperAdm, WeightedLevelAdm};
pub use ajpi::LevelOverlap;
pub use cell::{CellSet, CellSetSequence, StCell};
pub use entity::EntityId;
pub use error::{ModelError, Result};
pub use presence::{DigitalTrace, PresenceInstance};
pub use spatial::{Level, SpIndex, SpIndexBuilder, SpatialUnitId};
pub use time::{Period, TimeUnit};
pub use traces::TraceSet;
