//! A deterministic in-process "virtual disk" with I/O accounting.
//!
//! The paper's experiments run against an EBS volume; reproducing the *relative*
//! I/O behaviour (how many pages are read and written, how often the buffer pool
//! misses) does not require a physical disk.  The virtual disk stores frozen
//! pages in memory and counts every read and write, so experiments are exact and
//! repeatable.  A configurable per-access latency (in simulated microseconds) lets
//! the Figure 7.6 harness convert page misses into a simulated elapsed time.

use crate::page::Page;
use bytes::Bytes;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
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
    pages: Mutex<Vec<Bytes>>,
    reads: AtomicU64,
    writes: AtomicU64,
}

impl VirtualDisk {
    /// Creates an empty disk.
    pub(crate) fn new() -> Self {
        VirtualDisk::default()
    }

    /// Writes a page, returning its id.
    pub(crate) fn write_page(&self, page: &Page) -> PageId {
        let bytes = page.to_bytes();
        let mut pages = self.pages.lock();
        pages.push(bytes);
        self.writes.fetch_add(1, Ordering::Relaxed);
        (pages.len() - 1) as PageId
    }

    /// Reads a page by id.
    ///
    /// # Panics
    /// Panics when the page id does not exist.
    pub(crate) fn read_page(&self, id: PageId) -> Page {
        let bytes = {
            let pages = self.pages.lock();
            pages.get(id as usize).expect("page id out of range").clone()
        };
        self.reads.fetch_add(1, Ordering::Relaxed);
        Page::from_bytes(&bytes)
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
        assert_eq!(back.records().len(), 10);
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
    #[should_panic(expected = "page id out of range")]
    fn reading_missing_page_panics() {
        let disk = VirtualDisk::new();
        let _ = disk.read_page(3);
    }
}
