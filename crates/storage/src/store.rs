//! The entity-ordered paged trace store.
//!
//! After the external sort has organised raw records by entity (Section 4.3), the
//! records are packed into pages and a small directory maps every entity to the
//! pages holding its trace.  The `minsig` paged query path reads candidate
//! entities' traces through a [`BufferPool`] over this store, which is how the
//! memory-size experiment of Figure 7.6 measures the effect of the buffer budget.

use crate::codec::TraceRecord;
use crate::disk::{PageId, VirtualDisk};
use crate::page::{pack_pages, Page, PAGE_SIZE, RECORDS_PER_PAGE};
use crate::pool::{BufferPool, PinnedPages, PoolConfig, PoolStats};
use crate::segment::{self, Cursor, SegmentError};
use crate::sort::{external_sort, SortStats};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::ops::Range;
use std::path::Path;
use trace_model::{DigitalTrace, EntityId, TraceSet};

/// Summary statistics of a store build.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StoreStats {
    /// Number of records stored.
    pub records: u64,
    /// Number of data pages.
    pub pages: u64,
    /// Statistics of the external sort that organised the data by entity.
    pub sort: SortStats,
}

impl StoreStats {
    /// Size of the stored data in bytes.
    pub fn data_bytes(&self) -> usize {
        self.pages as usize * PAGE_SIZE
    }
}

/// An entity-ordered, paged store of raw trace records.
#[derive(Debug)]
pub struct PagedTraceStore {
    disk: VirtualDisk,
    /// Data pages in entity order.
    data_pages: Vec<PageId>,
    /// For each entity: the range of indices into `data_pages` that contain at
    /// least one of its records.
    directory: BTreeMap<EntityId, Range<u32>>,
    stats: StoreStats,
}

impl PagedTraceStore {
    /// Builds a store from a trace set: flattens the presence instances into raw
    /// records, external-sorts them by entity with `buffer_pages` pages of memory,
    /// and packs the sorted records into pages.
    pub fn build(traces: &TraceSet, buffer_pages: usize) -> Self {
        let records: Vec<TraceRecord> = traces
            .iter()
            .flat_map(|(_, trace)| trace.instances().iter().map(TraceRecord::from_presence))
            .collect();
        Self::build_from_records(records, buffer_pages)
    }

    /// Builds a store from raw (unsorted) records.
    pub fn build_from_records(records: Vec<TraceRecord>, buffer_pages: usize) -> Self {
        let disk = VirtualDisk::new();
        let num_records = records.len() as u64;
        let (sorted, sort_stats) = external_sort(&disk, records, buffer_pages);

        let mut data_pages: Vec<PageId> = Vec::new();
        let mut directory: BTreeMap<EntityId, Range<u32>> = BTreeMap::new();
        let mut current = Page::new();
        let mut current_index = 0u32;
        let note =
            |entity: u64, page_index: u32, directory: &mut BTreeMap<EntityId, Range<u32>>| {
                directory
                    .entry(EntityId(entity))
                    .and_modify(|r| r.end = page_index + 1)
                    .or_insert(page_index..page_index + 1);
            };
        for rec in &sorted {
            if !current.push(*rec) {
                data_pages.push(disk.write_page(&current));
                current = Page::new();
                current_index += 1;
                assert!(current.push(*rec), "fresh page accepts a record");
            }
            note(rec.entity, current_index, &mut directory);
        }
        if !current.is_empty() {
            data_pages.push(disk.write_page(&current));
        }

        let stats =
            StoreStats { records: num_records, pages: data_pages.len() as u64, sort: sort_stats };
        disk.reset_stats();
        PagedTraceStore { disk, data_pages, directory, stats }
    }

    /// Build statistics.
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// The underlying virtual disk (for I/O accounting in experiments).
    pub fn disk(&self) -> &VirtualDisk {
        &self.disk
    }

    /// Number of entities with stored records.
    pub fn num_entities(&self) -> usize {
        self.directory.len()
    }

    /// Size of the raw data in bytes (used to size buffer pools as a fraction of
    /// the data, as in Figure 7.6).
    pub fn data_bytes(&self) -> usize {
        self.stats.data_bytes()
    }

    /// Creates a buffer pool over this store's disk.
    pub fn pool(&self, config: PoolConfig) -> BufferPool<'_> {
        BufferPool::new(&self.disk, config)
    }

    /// The ids of the pages holding `entity`'s records, in read order (the
    /// directory ranges are contiguous, so this is a borrow, not a copy).
    /// `None` when the entity has no records.
    pub fn trace_pages(&self, entity: EntityId) -> Option<&[PageId]> {
        let range = self.directory.get(&entity)?.clone();
        Some(&self.data_pages[range.start as usize..range.end as usize])
    }

    /// Pins every page of `entity`'s trace in `pool`, keeping the whole trace
    /// resident until the returned guard drops — what the paged query paths
    /// use to hold a query's own trace across executor step quanta.
    pub fn pin_trace<'p, 'd>(
        &self,
        pool: &'p BufferPool<'d>,
        entity: EntityId,
    ) -> Option<PinnedPages<'p, 'd>> {
        Some(pool.pin_pages(self.trace_pages(entity)?.iter().copied()))
    }

    /// Visits `entity`'s records in store order through the given buffer
    /// pool, without materialising a trace; `false` (nothing visited) when the
    /// entity has no records.  Each page is pinned only while its run of the
    /// entity's records — found by binary search, pages are entity-sorted — is
    /// visited; what the fetches did is added to the caller's `io` counters.
    pub fn for_each_record(
        &self,
        pool: &BufferPool<'_>,
        entity: EntityId,
        io: &mut PoolStats,
        mut visit: impl FnMut(&TraceRecord),
    ) -> bool {
        let Some(pages) = self.trace_pages(entity) else { return false };
        for &id in pages {
            let page = pool.pin_counted(id, io);
            let records = page.records();
            let first = records.partition_point(|r| r.entity < entity.raw());
            let run = records[first..].partition_point(|r| r.entity == entity.raw());
            records[first..first + run].iter().for_each(&mut visit);
            pool.unpin(id);
        }
        true
    }

    /// Reads an entity's trace through the given buffer pool, returning `None`
    /// when the entity has no records.  Pages are pinned transiently (see
    /// [`for_each_record`](Self::for_each_record)); use
    /// [`pin_trace`](Self::pin_trace) to keep a trace resident longer.
    pub fn read_trace(&self, pool: &BufferPool<'_>, entity: EntityId) -> Option<DigitalTrace> {
        let mut trace = DigitalTrace::new();
        self.for_each_record(pool, entity, &mut PoolStats::default(), |rec| {
            trace.push(rec.to_presence())
        })
        .then_some(trace)
    }

    /// Reads an entity's trace without a pool (every page access is a disk read).
    pub fn read_trace_uncached(&self, entity: EntityId) -> Option<DigitalTrace> {
        let range = self.directory.get(&entity)?.clone();
        let mut trace = DigitalTrace::new();
        for idx in range {
            let page = self.disk.read_page(self.data_pages[idx as usize]);
            for rec in page.records() {
                if rec.entity == entity.raw() {
                    trace.push(rec.to_presence());
                }
            }
        }
        Some(trace)
    }
}

// ---------------------------------------------------------------------------
// TraceSet persistence
// ---------------------------------------------------------------------------

/// Magic bytes of a persisted [`TraceSet`] file.
pub const TRACE_SET_MAGIC: [u8; 4] = *b"MSTS";
/// Newest trace-set file format version this build reads and writes.
pub const TRACE_SET_VERSION: u16 = 1;

const TAG_TRACE_META: u32 = 1;
const TAG_TRACE_PAGE: u32 = 2;

/// Persists a [`TraceSet`] to `path` in the checksummed segment format of
/// [`crate::segment`]: one `META` segment (temporal discretisation + record
/// count) followed by one segment per 8 KiB [`Page`] of fixed-width
/// [`TraceRecord`]s.  The write is atomic (temp file + rename).
///
/// ```
/// use trace_model::{EntityId, Period, PresenceInstance, TraceSet};
///
/// let mut traces = TraceSet::new(60);
/// traces.record(PresenceInstance::new(EntityId(1), 0, Period::new(0, 120).unwrap()));
/// let path = std::env::temp_dir().join("traces-doctest.msts");
/// trace_storage::save_trace_set(&path, &traces).unwrap();
/// let reloaded = trace_storage::load_trace_set(&path).unwrap();
/// assert_eq!(reloaded.total_presence_instances(), 1);
/// # std::fs::remove_file(&path).unwrap();
/// ```
pub fn save_trace_set(path: &Path, traces: &TraceSet) -> Result<(), SegmentError> {
    let records = traces
        .iter()
        .flat_map(|(_, trace)| trace.instances().iter().map(TraceRecord::from_presence));
    let pages = pack_pages(records);
    let num_records: u64 = pages.iter().map(|p| p.len() as u64).sum();
    segment::atomic_write(path, TRACE_SET_MAGIC, TRACE_SET_VERSION, |writer| {
        let mut meta = Vec::with_capacity(16);
        meta.extend_from_slice(&traces.ticks_per_unit().to_le_bytes());
        meta.extend_from_slice(&num_records.to_le_bytes());
        writer.write_segment(TAG_TRACE_META, &meta)?;
        for page in &pages {
            writer.write_segment(TAG_TRACE_PAGE, &page.to_bytes())?;
        }
        Ok(())
    })
}

/// Loads a [`TraceSet`] previously written by [`save_trace_set`], verifying
/// the magic, version, every page checksum and the total record count.  A
/// file truncated mid-write yields [`SegmentError::Truncated`] or
/// [`SegmentError::ChecksumMismatch`], never a partially loaded trace set.
pub fn load_trace_set(path: &Path) -> Result<TraceSet, SegmentError> {
    let mut reader = segment::open_file(path, TRACE_SET_MAGIC, TRACE_SET_VERSION)?;
    let mut traces: Option<TraceSet> = None;
    let mut expected_records = 0u64;
    let mut loaded_records = 0u64;
    while let Some((tag, payload)) = reader.next_segment()? {
        match tag {
            TAG_TRACE_META => {
                if traces.is_some() {
                    return Err(SegmentError::Malformed("duplicate META segment".into()));
                }
                let mut cursor = Cursor::new(&payload);
                let ticks_per_unit = cursor.u64()?;
                expected_records = cursor.u64()?;
                cursor.expect_end()?;
                if ticks_per_unit == 0 {
                    return Err(SegmentError::Malformed("ticks_per_unit must be positive".into()));
                }
                traces = Some(TraceSet::new(ticks_per_unit));
            }
            TAG_TRACE_PAGE => {
                let Some(traces) = traces.as_mut() else {
                    return Err(SegmentError::Malformed("PAGE segment before META".into()));
                };
                if payload.len() != PAGE_SIZE {
                    return Err(SegmentError::Malformed(format!(
                        "page segment holds {} bytes, expected {PAGE_SIZE}",
                        payload.len()
                    )));
                }
                let count =
                    u32::from_le_bytes(payload[..4].try_into().expect("4 header bytes")) as usize;
                if count > RECORDS_PER_PAGE {
                    return Err(SegmentError::Malformed(format!(
                        "page declares {count} records, capacity is {RECORDS_PER_PAGE}"
                    )));
                }
                for rec in Page::from_bytes(&payload).records() {
                    traces.record(rec.to_presence());
                    loaded_records += 1;
                }
            }
            other => {
                return Err(SegmentError::Malformed(format!("unknown segment tag {other}")));
            }
        }
    }
    let traces = traces.ok_or_else(|| SegmentError::Malformed("missing META segment".into()))?;
    if loaded_records != expected_records {
        return Err(SegmentError::Malformed(format!(
            "META announces {expected_records} records but {loaded_records} were stored"
        )));
    }
    Ok(traces)
}

#[cfg(test)]
mod tests {
    use super::*;
    use trace_model::{Period, PresenceInstance, SpIndex};

    fn sample_traces(entities: u64, instances_per_entity: u64) -> (SpIndex, TraceSet) {
        let sp = SpIndex::uniform(2, &[4]).unwrap();
        let base = sp.base_units().to_vec();
        let mut ts = TraceSet::new(60);
        for e in 0..entities {
            for i in 0..instances_per_entity {
                let unit = base[((e + i) % base.len() as u64) as usize];
                let start = i * 120;
                ts.record(PresenceInstance::new(
                    EntityId(e),
                    unit,
                    Period::new(start, start + 60).unwrap(),
                ));
            }
        }
        (sp, ts)
    }

    #[test]
    fn build_and_read_back_every_entity() {
        let (_sp, ts) = sample_traces(20, 5);
        let store = PagedTraceStore::build(&ts, 4);
        assert_eq!(store.num_entities(), 20);
        assert_eq!(store.stats().records, 100);
        let pool = store.pool(PoolConfig::default());
        for (entity, trace) in ts.iter() {
            let read = store.read_trace(&pool, entity).expect("entity exists");
            assert_eq!(read.len(), trace.len());
            assert_eq!(read.total_duration(), trace.total_duration());
        }
    }

    #[test]
    fn missing_entity_returns_none() {
        let (_sp, ts) = sample_traces(3, 2);
        let store = PagedTraceStore::build(&ts, 4);
        let pool = store.pool(PoolConfig::default());
        assert!(store.read_trace(&pool, EntityId(999)).is_none());
        assert!(store.read_trace_uncached(EntityId(999)).is_none());
    }

    #[test]
    fn cached_and_uncached_reads_agree() {
        let (_sp, ts) = sample_traces(10, 8);
        let store = PagedTraceStore::build(&ts, 4);
        let pool = store.pool(PoolConfig::default());
        for entity in ts.entities() {
            let cached = store.read_trace(&pool, entity).unwrap();
            let uncached = store.read_trace_uncached(entity).unwrap();
            assert_eq!(cached.instances(), uncached.instances());
        }
    }

    #[test]
    fn trace_pages_match_the_directory_and_pin_trace_holds_them() {
        let (_sp, ts) = sample_traces(200, 30);
        let store = PagedTraceStore::build(&ts, 8);
        assert!(store.stats().pages > 4, "need several pages for this test");
        // A 1-page pool: holding any pinned trace forces the pool to
        // overcommit rather than evict a pinned page.
        let pool = store
            .pool(PoolConfig { capacity_bytes: crate::page::PAGE_SIZE, ..PoolConfig::default() });
        let probe = EntityId(0);
        let pages = store.trace_pages(probe).expect("entity 0 exists").to_vec();
        assert!(!pages.is_empty());
        {
            let guard = store.pin_trace(&pool, probe).expect("entity 0 exists");
            assert_eq!(guard.io(), pool.stats(), "the guard reports its own fetches");
            assert_eq!(guard.pages(), &pages[..]);
            // Sweep other entities through the tiny pool: the pinned trace
            // stays resident throughout.
            for e in ts.entities().take(50) {
                store.read_trace(&pool, e);
            }
            assert!(pages.iter().all(|&p| pool.is_resident(p)));
            // Re-reading the pinned trace is all hits.
            let before = pool.stats();
            store.read_trace(&pool, probe).unwrap();
            let delta = pool.stats().since(&before);
            assert_eq!(delta.misses, 0, "pinned trace reads never touch the disk");
        }
        assert_eq!(pool.pinned_frames(), 0, "guard released every pin");
        assert!(store.trace_pages(EntityId(u64::MAX)).is_none());
        assert!(store.pin_trace(&pool, EntityId(u64::MAX)).is_none());
    }

    #[test]
    fn smaller_pools_miss_more() {
        // Enough data to span many pages.
        let (_sp, ts) = sample_traces(500, 40);
        let store = PagedTraceStore::build(&ts, 8);
        assert!(store.stats().pages > 8, "need multiple pages for this test");
        let workload: Vec<EntityId> = ts.entities().collect();

        let mut misses = Vec::new();
        for fraction in [0.05, 0.5, 1.0] {
            let pool = store.pool(PoolConfig::with_memory_fraction(store.data_bytes(), fraction));
            // Two sweeps: the second sweep benefits from caching when memory allows.
            for _ in 0..2 {
                for &e in &workload {
                    store.read_trace(&pool, e);
                }
            }
            misses.push(pool.stats().misses);
        }
        assert!(misses[0] >= misses[1]);
        assert!(misses[1] >= misses[2]);
        assert!(misses[0] > misses[2], "10x memory difference must show up in misses");
    }

    #[test]
    fn empty_trace_set_builds_an_empty_store() {
        let ts = TraceSet::new(60);
        let store = PagedTraceStore::build(&ts, 4);
        assert_eq!(store.num_entities(), 0);
        assert_eq!(store.stats().records, 0);
        assert_eq!(store.stats().pages, 0);
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("store-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn trace_set_file_round_trip() {
        let (_sp, ts) = sample_traces(30, 7);
        let path = temp_path("round-trip.msts");
        save_trace_set(&path, &ts).unwrap();
        let loaded = load_trace_set(&path).unwrap();
        assert_eq!(loaded.ticks_per_unit(), ts.ticks_per_unit());
        assert_eq!(loaded.num_entities(), ts.num_entities());
        assert_eq!(loaded.total_presence_instances(), ts.total_presence_instances());
        for (entity, trace) in ts.iter() {
            assert_eq!(loaded.trace(entity).unwrap().instances(), trace.instances());
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_trace_set_round_trips() {
        let ts = TraceSet::new(7);
        let path = temp_path("empty.msts");
        save_trace_set(&path, &ts).unwrap();
        let loaded = load_trace_set(&path).unwrap();
        assert_eq!(loaded.ticks_per_unit(), 7);
        assert!(loaded.is_empty());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncated_trace_set_file_is_rejected() {
        let (_sp, ts) = sample_traces(200, 10);
        let path = temp_path("truncate.msts");
        save_trace_set(&path, &ts).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert!(bytes.len() > PAGE_SIZE, "need at least one full page for this test");
        // Cut the file mid-page: the loader must report an error, not return a
        // partial trace set.
        for cut in [bytes.len() - 1, bytes.len() - PAGE_SIZE / 2, 10, 0] {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            assert!(load_trace_set(&path).is_err(), "cut at {cut} went undetected");
        }
        std::fs::remove_file(&path).unwrap();
    }
}
