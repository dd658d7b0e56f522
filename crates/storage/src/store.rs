//! The entity-ordered paged trace store.
//!
//! After the external sort has organised raw records by entity (Section 4.3), the
//! records are packed into pages and a small directory maps every entity to the
//! pages holding its trace.  A trace is read through a [`BufferPool`] over the
//! store's disk; the `minsig` out-of-core session keeps its cell rows on the
//! same disk ([`crate::words`]) and reads them through the same pool, which is
//! how the memory-size experiment of Figure 7.6 measures the effect of the
//! buffer budget.  The directory says which entities the store holds.

use crate::codec::TraceRecord;
use crate::disk::{PageId, VirtualDisk};
use crate::page::{entity_records, Page, PAGE_SIZE};
use crate::pool::{BufferPool, PoolConfig};
use crate::sort::{external_sort, SortStats};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::ops::Range;
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
    pub(crate) fn data_bytes(&self) -> usize {
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

    /// The underlying virtual disk: it holds the record pages, and an
    /// out-of-core session writes its row pages to it.
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

    /// Reads an entity's trace through the given buffer pool, returning `None`
    /// when the entity has no records.  Only the entity's run of records on
    /// each page is decoded (found by binary search, pages are
    /// entity-sorted).
    pub fn read_trace(&self, pool: &BufferPool<'_>, entity: EntityId) -> Option<DigitalTrace> {
        let mut trace = DigitalTrace::new();
        for &id in self.trace_pages(entity)? {
            let page = pool.get(id);
            entity_records(&page, entity.raw()).for_each(|rec| trace.push(rec.to_presence()));
        }
        Some(trace)
    }
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
    }

    #[test]
    fn cached_and_uncached_reads_agree() {
        let (_sp, ts) = sample_traces(10, 8);
        let store = PagedTraceStore::build(&ts, 4);
        let pool = store.pool(PoolConfig::default());
        for entity in ts.entities() {
            let cached = store.read_trace(&pool, entity).unwrap();
            // Every page access of the reference is a disk read.
            let uncached: Vec<_> = store
                .trace_pages(entity)
                .unwrap()
                .iter()
                .flat_map(|&id| Page::from_bytes(&store.disk.read_page(id)).records().to_vec())
                .filter(|rec| rec.entity == entity.raw())
                .map(|rec| rec.to_presence())
                .collect();
            assert_eq!(cached.instances(), &uncached[..]);
        }
    }

    #[test]
    fn trace_pages_match_the_directory() {
        let (_sp, ts) = sample_traces(200, 30);
        let store = PagedTraceStore::build(&ts, 8);
        assert!(store.stats().pages > 4, "need several pages for this test");
        let pool = store.pool(PoolConfig::default());
        for entity in ts.entities().take(50) {
            let pages = store.trace_pages(entity).expect("stored");
            assert!(!pages.is_empty());
            // Reading the trace requests exactly its directory pages.
            let before = pool.stats();
            store.read_trace(&pool, entity).unwrap();
            let delta = pool.stats().since(&before);
            assert_eq!(delta.hits + delta.misses, pages.len() as u64, "entity {entity}");
        }
        assert_eq!(pool.pinned_frames(), 0, "reads pin nothing");
        assert!(store.trace_pages(EntityId(u64::MAX)).is_none());
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
}
