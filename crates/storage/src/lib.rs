//! # trace-storage
//!
//! The storage substrate used by the index-construction cost analysis (Section
//! 4.3) and the memory-size sensitivity experiment (Figure 7.6) of *Top-k Queries
//! over Digital Traces*.
//!
//! Real deployments of the paper's system ingest billions of raw trace records
//! that are not organised by entity; before the MinSigTree can be built they are
//! sorted by entity with a B-way external merge sort, and at query time the leaf
//! evaluation reads the data it needs from disk through a bounded buffer pool.  This
//! crate provides those pieces against a deterministic in-process "virtual disk"
//! so that I/O behaviour (pages read/written, sort passes, buffer-pool hit rates)
//! is measurable and reproducible without depending on the machine's actual
//! storage hardware:
//!
//! * [`codec`] — the fixed-width binary trace record format;
//! * [`page`] — 8 KiB slotted pages of records;
//! * [`words`] — pages of `u64` words, written and freed as one run (the
//!   `minsig` out-of-core session's cell rows);
//! * [`disk`] — the virtual disk with read/write accounting: a page is its
//!   bytes;
//! * [`sort`] — B-way external merge sort with pass counting (Section 4.3);
//! * [`pool`] — the buffer manager: a byte-budgeted page cache with a
//!   simulated miss penalty;
//! * [`replacer`] — pluggable eviction policies (LRU-K by default) behind the
//!   [`Replacer`] trait;
//! * [`store`] — the entity-ordered [`PagedTraceStore`]: the records, the
//!   directory of the entities it holds, and the disk the `minsig` paged
//!   session writes its rows to;
//! * [`segment`] — the checksummed, length-prefixed segment file format that
//!   backs every on-disk artefact (the persisted index snapshot and shard
//!   manifest of `minsig`);
//! * [`log`] — the LSN'd, fsync'd append-only write-ahead log under the
//!   durable ingest path of the `minsig` crate (O(batch) commits between
//!   O(shard) checkpoints).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod codec;
pub mod disk;
pub mod log;
pub mod page;
pub mod pool;
pub mod replacer;
pub mod segment;
pub mod sort;
pub mod store;
pub mod words;

pub use codec::TraceRecord;
pub use disk::{PageId, VirtualDisk};
pub use log::{LogConfig, LogManager, LogRecord};
pub use page::{Page, PAGE_SIZE};
pub use pool::{BufferPool, PoolConfig, PoolStats};
pub use replacer::{Replacer, ReplacerPolicy};
pub use segment::{SegmentError, SegmentReader, SegmentWriter};
pub use sort::SortStats;
pub use store::{PagedTraceStore, StoreStats};
pub use words::WordPages;
