//! # digital-traces
//!
//! A reproduction of *Top-k Queries over Digital Traces* (Li, Yu, Koudas;
//! SIGMOD 2019) as a reusable Rust library.  This facade crate re-exports the
//! workspace's public API so downstream users can depend on a single crate:
//!
//! * [`model`] — the trace data model: spatial hierarchies, ST-cells, presence
//!   instances, adjoint presence instances, association degree measures;
//! * [`index`] — the MinSigTree index and its unified query engine;
//! * [`mobility`] — the hierarchical individual-mobility model, synthetic data
//!   generators and the analytical pruning-effectiveness model;
//! * [`baselines`] — brute-force scan, FP-growth and the bitmap baseline;
//! * [`storage`] — the paged storage substrate (external sort, buffer pool);
//! * [`experiments`] — the harness regenerating every figure of the paper.
//!
//! ## Architecture: one search, many drivers
//!
//! Every tree search — the unsharded index's exact, join and batch queries —
//! runs a single best-first search to completion (`minsig::engine`; the flat
//! scans share its top-k selection), scoring leaves from the index
//! snapshot's flat candidate arena and stopping once no subtree left can
//! beat its own k-th-best degree.  The
//! sharded index opens no tree: its planner skips the shards a seeded
//! threshold rules out and flat-scans every other one, reading level-1 and
//! level-2 overlaps from the shard's postings, in memory or out of core
//! through the `storage` buffer pool — bitwise identical to unsharded
//! execution.
//!
//! The index itself is split into an immutable, `Arc`-shareable
//! [`IndexSnapshot`] and the mutable [`MinSigIndex`] handle around it:
//! `MinSigIndex::snapshot()` hands a consistent version of the index to any
//! number of reader threads, while `update_entity`/`remove_entity` keep
//! working on the handle via copy-on-write.  Batch entry points
//! (`top_k_batch`, `top_k_join`) fan independent queries out over a thread
//! pool with a hard determinism contract: parallel results equal sequential
//! results exactly, in input order.
//!
//! ## Quickstart
//!
//! ```
//! use digital_traces::index::{IndexConfig, MinSigIndex};
//! use digital_traces::model::{EntityId, PaperAdm, Period, PresenceInstance, SpIndex, TraceSet};
//!
//! // city -> district -> building hierarchy (2 cities, 3 districts each, 4 buildings each)
//! let sp = SpIndex::uniform(2, &[3, 4]).unwrap();
//! let buildings = sp.base_units().to_vec();
//!
//! // Record a few presences: entities 1 and 2 co-occur, entity 3 is elsewhere.
//! let mut traces = TraceSet::new(60); // 60 ticks (minutes) per temporal unit
//! for (who, unit, start) in [(1u64, 0usize, 0u64), (2, 0, 30), (1, 5, 300), (2, 5, 330), (3, 20, 0)] {
//!     traces.record(PresenceInstance::new(
//!         EntityId(who),
//!         buildings[unit],
//!         Period::new(start, start + 60).unwrap(),
//!     ));
//! }
//!
//! let index = MinSigIndex::build(&sp, &traces, IndexConfig::default()).unwrap();
//! let measure = PaperAdm::default_for(sp.height() as usize);
//! let (top, stats) = index.top_k(EntityId(1), 1, &measure).unwrap();
//! assert_eq!(top[0].entity, EntityId(2));
//! assert!(stats.pruning_effectiveness() >= 0.0);
//! ```

#![warn(missing_docs)]

/// The trace data model (re-export of the `trace-model` crate).
pub mod model {
    pub use trace_model::*;
}

/// The MinSigTree index (re-export of the `minsig` crate).
pub mod index {
    pub use minsig::*;
}

/// Mobility models and data generators (re-export of the `mobility` crate).
pub mod mobility_models {
    pub use mobility::*;
}

/// Baseline approaches (re-export of the `baseline` crate).
pub mod baselines {
    pub use baseline::*;
}

/// The paged storage substrate (re-export of the `trace-storage` crate).
pub mod storage {
    pub use trace_storage::*;
}

/// The experiment harness (re-export of the `experiments` crate).
pub mod harness {
    pub use experiments::*;
}

pub use minsig::{
    IndexConfig, IndexSnapshot, JoinOptions, MinSigIndex, PlannerConfig, Query, QueryOptions,
    QueryPlan, QueryStats, ShardedMinSigIndex, ShardedSnapshot, Synopsis, TopKResult,
};
pub use trace_model::{
    AssociationMeasure, DiceAdm, DigitalTrace, EntityId, JaccardAdm, PaperAdm, Period,
    PresenceInstance, SpIndex, SpIndexBuilder, TraceSet,
};
