//! A deterministic in-process "virtual disk" with I/O accounting.
//!
//! The paper's experiments run against an EBS volume; reproducing the *relative*
//! I/O behaviour (how many pages are read and written, how often the buffer pool
//! misses) does not require a physical disk.  The virtual disk stores frozen
//! pages in memory and counts every read and write, so experiments are exact and
//! repeatable.  A configurable per-access latency (in simulated microseconds) lets
//! the Figure 7.6 harness convert page misses into a simulated elapsed time.
//!
//! A page is its bytes: the disk neither encodes nor decodes anything, it
//! hands out the frozen [`Bytes`] it was given.  What the bytes mean — trace
//! records ([`crate::page`]) or `u64` words ([`crate::words`]) — is the
//! reader's business.  Pages can be freed; their ids are never handed out
//! again, so a stale id can only ever fail loudly, never read another page.

use crate::page::Page;
use bytes::Bytes;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

/// Identifier of a page on the virtual disk.
pub type PageId = u64;

/// Counters describing the I/O performed against a [`VirtualDisk`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct DiskStats {
    /// Number of page reads.
    pub reads: u64,
    /// Number of page writes.
    pub writes: u64,
}

/// An in-memory page store with read/write accounting.
#[derive(Debug, Default)]
pub struct VirtualDisk {
    /// Page `id` is `pages[id]`, `None` once freed.
    pages: Mutex<Vec<Option<Bytes>>>,
    reads: AtomicU64,
    writes: AtomicU64,
}

impl VirtualDisk {
    /// Creates an empty disk.
    pub(crate) fn new() -> Self {
        VirtualDisk::default()
    }

    /// Writes a record page, returning its id.
    pub(crate) fn write_page(&self, page: &Page) -> PageId {
        self.write_pages(vec![page.to_bytes()]).start
    }

    /// Writes `pages` under one lock, so their ids are consecutive, and
    /// returns the ids.
    pub(crate) fn write_pages(&self, pages: Vec<Bytes>) -> Range<PageId> {
        let written = pages.len() as u64;
        let mut held = self.pages.lock();
        let first = held.len() as PageId;
        held.extend(pages.into_iter().map(Some));
        self.writes.fetch_add(written, Ordering::Relaxed);
        first..first + written
    }

    /// Reads a page by id: a reference to its frozen bytes.
    ///
    /// # Panics
    /// Panics when the page id was never written or the page was freed.
    pub(crate) fn read_page(&self, id: PageId) -> Bytes {
        let bytes = match self.pages.lock().get(id as usize) {
            Some(Some(bytes)) => bytes.clone(),
            Some(None) => panic!("page {id} was freed"),
            None => panic!("page id out of range: {id}"),
        };
        self.reads.fetch_add(1, Ordering::Relaxed);
        bytes
    }

    /// Frees the pages `ids`: their bytes are dropped, and the ids are never
    /// handed out again.
    pub(crate) fn free_pages(&self, ids: Range<PageId>) {
        let mut held = self.pages.lock();
        for slot in &mut held[ids.start as usize..ids.end as usize] {
            *slot = None;
        }
    }

    /// Bytes held by the pages written and not freed.
    pub fn live_bytes(&self) -> usize {
        self.pages.lock().iter().flatten().map(Bytes::len).sum()
    }

    /// Current I/O counters.
    pub(crate) fn stats(&self) -> DiskStats {
        DiskStats {
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
        }
    }

    /// Resets the I/O counters (the stored pages are kept).
    pub(crate) fn reset_stats(&self) {
        self.reads.store(0, Ordering::Relaxed);
        self.writes.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::TraceRecord;

    fn page_with(n: u64) -> Page {
        (0..n).map(|i| TraceRecord::new(i, 0, 0, 1)).collect()
    }

    #[test]
    fn write_then_read_round_trips() {
        let disk = VirtualDisk::new();
        let id = disk.write_page(&page_with(10));
        let back = disk.read_page(id);
        assert_eq!(Page::from_bytes(&back).records().len(), 10);
        assert_eq!(disk.stats(), DiskStats { reads: 1, writes: 1 });
    }

    #[test]
    fn page_ids_are_sequential() {
        let disk = VirtualDisk::new();
        let a = disk.write_page(&page_with(1));
        let b = disk.write_page(&page_with(2));
        assert_eq!(a, 0);
        assert_eq!(b, 1);
        assert_eq!(disk.pages.lock().len(), 2);
    }

    #[test]
    fn reset_clears_counters_but_not_pages() {
        let disk = VirtualDisk::new();
        disk.write_page(&page_with(1));
        disk.reset_stats();
        assert_eq!(disk.stats(), DiskStats::default());
        assert_eq!(disk.pages.lock().len(), 1);
    }

    #[test]
    fn freed_ids_are_never_reused() {
        let disk = VirtualDisk::new();
        let words = disk.write_pages(vec![Bytes::from(vec![1; 16]), Bytes::from(vec![2; 8])]);
        assert_eq!(words, 0..2);
        assert_eq!(disk.live_bytes(), 24);
        disk.free_pages(0..1);
        assert_eq!(disk.live_bytes(), 8);
        assert_eq!(&disk.read_page(1)[..], &[2; 8]);
        assert_eq!(disk.write_page(&page_with(1)), 2, "a freed id is not handed out again");
        assert_eq!(disk.stats().writes, 3);
    }

    #[test]
    #[should_panic(expected = "page 0 was freed")]
    fn reading_a_freed_page_panics() {
        let disk = VirtualDisk::new();
        disk.write_page(&page_with(1));
        disk.free_pages(0..1);
        let _ = disk.read_page(0);
    }

    #[test]
    #[should_panic(expected = "page id out of range")]
    fn reading_missing_page_panics() {
        let disk = VirtualDisk::new();
        let _ = disk.read_page(3);
    }
}
