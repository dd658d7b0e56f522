//! # minsig
//!
//! The MinSigTree index of *Top-k Queries over Digital Traces* (Li, Yu, Koudas;
//! SIGMOD 2019): hierarchy-aware MinHash signatures, an m-level grouping tree, and
//! a best-first top-k search with early termination — behind a unified, parallel
//! query engine.
//!
//! ## How the pieces fit together
//!
//! 1. Every entity's digital trace is represented as a per-level ST-cell set
//!    sequence (`trace-model`).
//! 2. A family of `nh` hash functions maps ST-cells to `[0, range)`; the value of
//!    a *coarse* cell is constrained to be no larger than the value of any of its
//!    descendant cells, which makes signatures at different levels comparable
//!    (Theorem 1) and lets a signature certify the *absence* of an entity from
//!    ST-cells (Theorem 2).  See [`signature`].
//! 3. Entities are grouped recursively by the position of the largest value in
//!    their per-level signatures (the *routing index*), producing the
//!    [`tree::MinSigTree`]; each node stores only its routing index and the group
//!    minimum at that index (Section 4.2.2).
//!
//! ## The query engine
//!
//! Every tree search funnels through **one** best-first search run to
//! completion ([`engine`]): a candidate frontier ordered by Theorem-4 upper
//! bounds, per-level overlap caps tightened down each branch, and strict
//! (tie-complete) k-th-best early termination (Section 5.1).  Leaves are
//! scored from the snapshot's flat candidate arena ([`kernel`]; the exact
//! path of [`IndexSnapshot::top_k`] and
//! [`IndexSnapshot::top_k_for_sequence`]).
//!
//! A sharded query ([`shard`]) opens no tree: its planner skips the shards
//! a seeded threshold rules out and flat-scans every other one, reading
//! level-1 and level-2 overlaps from the shard's postings; out of core
//! ([`paged`], the Figure 7.6 path) the same scan reads finer cell rows
//! through a `trace-storage` buffer pool, charging simulated I/O.
//!
//! The remaining query module is a thin driver over the search: [`join`]
//! fans probe sets out over rayon ([`IndexSnapshot::top_k_batch`] /
//! [`IndexSnapshot::top_k_join`]).
//!
//! ## Snapshots and concurrency
//!
//! The index state lives in an immutable, `Arc`-shareable
//! [`snapshot::IndexSnapshot`]; [`index::MinSigIndex`] is a mutable handle
//! around it.  [`MinSigIndex::snapshot`] hands a consistent version of the
//! index to any number of reader threads, while
//! [`MinSigIndex::update_entity`] / [`MinSigIndex::remove_entity`]
//! (Section 4.2.3) keep working on the handle via copy-on-write — readers are
//! never blocked and never observe a half-applied update.  Batch evaluation is
//! deterministic: parallel results equal sequential results exactly, in input
//! order.
//!
//! ## Streaming ingestion and durability
//!
//! A stream of new presence records is applied through an
//! [`ingest::IngestBuffer`]: the whole batch becomes **one** copy-on-write
//! delta (only the new cells are hashed — signatures merge by element-wise
//! minimum, tree paths are re-routed incrementally) and publishes **one** new
//! snapshot epoch ([`MinSigIndex::epoch`]); a snapshot taken before the flush
//! never observes a partial batch.  [`MinSigIndex::save`] persists the index
//! to a versioned, checksummed segment file and [`MinSigIndex::open`] reloads
//! it without re-hashing anything, answering bit-identically — see
//! [`persist`] for the on-disk format.
//!
//! ## Sharding
//!
//! [`shard::ShardedMinSigIndex`] hash-partitions the entity population across
//! `N` independent shards (one `MinSigIndex` each, with its own snapshot,
//! epoch and `MSIX` file): ingest, persistence and maintenance parallelise
//! per shard, while every query is first **planned** ([`plan`]) against the
//! per-shard synopses ([`synopsis`]): a provable k-th-degree lower bound is
//! seeded, shards that provably cannot contribute are skipped, every
//! admitted shard is flat-scanned, most promising first, as one job of a
//! work queue (over rayon, or in order on the calling thread), and the
//! per-shard exact top-k heaps merge.
//! Answers are fully bit-identical to an unsharded index over the same
//! traces, boundary ties included, whatever the planner decides.  The
//! deterministic workload generators and conformance oracles behind the test
//! suites live in [`testkit`].
//!
//! ```
//! use minsig::{IndexConfig, MinSigIndex};
//! use trace_model::{DiceAdm, EntityId, Period, PresenceInstance, SpIndex, TraceSet};
//!
//! // Two-level hierarchy with four base units, three entities.
//! let sp = SpIndex::uniform(2, &[2]).unwrap();
//! let base = sp.base_units().to_vec();
//! let mut traces = TraceSet::new(60);
//! for (e, unit) in [(0u64, base[0]), (1, base[0]), (2, base[3])] {
//!     traces.record(PresenceInstance::new(EntityId(e), unit, Period::new(0, 120).unwrap()));
//! }
//! let index = MinSigIndex::build(&sp, &traces, IndexConfig::default()).unwrap();
//! let measure = DiceAdm::uniform(2);
//!
//! // Single query...
//! let (results, stats) = index.top_k(EntityId(0), 1, &measure).unwrap();
//! assert_eq!(results[0].entity, EntityId(1));
//! assert!(stats.entities_checked <= 3);
//!
//! // ...or a parallel batch over a shared snapshot: same answers, in order.
//! let snapshot = index.snapshot();
//! let batch = snapshot.top_k_batch(&[EntityId(0), EntityId(1)], 1, &measure).unwrap();
//! assert_eq!(batch[0].0, results);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod config;
mod drive;
pub mod durable;
pub mod engine;
pub mod error;
pub mod index;
pub mod ingest;
pub mod join;
pub mod kernel;
pub mod paged;
pub mod persist;
pub mod plan;
pub mod query;
pub mod shard;
pub mod signature;
pub mod snapshot;
pub mod stats;
pub mod synopsis;
pub mod testkit;
pub mod tree;

pub use config::{IndexConfig, PlannerConfig};
pub use durable::{DurableShardedMinSigIndex, RecoveryReport};
pub use engine::TopKHeap;
pub use error::{IndexError, Result};
pub use index::MinSigIndex;
pub use ingest::{IngestBuffer, IngestReport};
pub use join::{JoinOptions, JoinRow, JoinStats};
pub use kernel::{CandidateArena, NodeArena, QueryView};
pub use paged::PagedShardedSnapshot;
pub use persist::INDEX_MAGIC;
pub use plan::{QueryPlan, ShardDecision, ShardPlan};
pub use query::{Query, QueryOptions, TopKResult};
pub use shard::{
    shard_of, ShardedIngestReport, ShardedMinSigIndex, ShardedSnapshot, PARTITION_VERSION,
    SHARD_MANIFEST_MAGIC,
};
pub use signature::{CellHashFamily, HierarchicalHasher, SeededHashFamily, SignatureList};
pub use snapshot::IndexSnapshot;
pub use stats::{DegradationReport, IndexStats, KernelDispatch, QueryStats};
pub use synopsis::{Synopsis, DEFAULT_SKETCH_SIZE};
pub use tree::MinSigTree;
