//! Word pages: the page kind that holds little-endian `u64` words.
//!
//! A word page is `PAGE_SIZE / 8` words, or the last words of a run, as
//! raw little-endian bytes — no header: a page is its bytes, and which words
//! it holds follows from its place in the run.  [`WordPages`] writes a run of
//! them under one disk lock, so their ids are consecutive, reads any word
//! range back through a [`BufferPool`] with one counted fetch per
//! page the range touches, and frees its pages from the disk when dropped.
//! The `minsig` out-of-core session keeps each shard's finer cell rows in
//! one such run.
//!
//! ```
//! use trace_model::{EntityId, Period, PresenceInstance, TraceSet};
//! use trace_storage::{PagedTraceStore, PoolConfig, PoolStats, WordPages, PAGE_SIZE};
//!
//! let mut traces = TraceSet::new(60);
//! traces.record(PresenceInstance::new(EntityId(1), 0, Period::new(0, 60).unwrap()));
//! let store = PagedTraceStore::build(&traces, 4);
//! let before = store.disk().live_bytes();
//! let words_per_page = PAGE_SIZE as u64 / 8;
//! let words: Vec<u64> = (0..2 * words_per_page + 5).collect();
//! let run = WordPages::write(store.disk(), &words);
//! assert_eq!(run.pages().len(), 3);
//!
//! // Words 1020..1030 straddle the first two pages: two fetches.
//! let pool = store.pool(PoolConfig::default());
//! let (mut out, mut io) = (Vec::new(), PoolStats::default());
//! run.read(&pool, 1020..1030, &mut out, &mut io);
//! assert_eq!(out, words[1020..1030]);
//! assert_eq!((io.misses, io.hits), (2, 0));
//! assert_eq!(run.pages_of(1020..1030), &run.pages()[..2]);
//!
//! drop(run); // the pages leave the disk
//! assert_eq!(store.disk().live_bytes(), before);
//! ```

use crate::disk::{PageId, VirtualDisk};
use crate::page::PAGE_SIZE;
use crate::pool::{BufferPool, PoolStats};
use bytes::Bytes;
use std::ops::Range;

/// Words one word page holds.
pub(crate) const WORDS_PER_PAGE: usize = PAGE_SIZE / std::mem::size_of::<u64>();

/// A run of word pages on one disk (see the [module docs](self)): freed
/// from the disk when dropped.
#[derive(Debug)]
pub struct WordPages<'d> {
    disk: &'d VirtualDisk,
    /// The run's page ids, consecutive, in word order.
    pages: Vec<PageId>,
}

impl<'d> WordPages<'d> {
    /// Writes `words` onto `disk` as consecutive word pages.
    pub fn write(disk: &'d VirtualDisk, words: &[u64]) -> Self {
        let pages: Vec<Bytes> = words
            .chunks(WORDS_PER_PAGE)
            .map(|chunk| {
                Bytes::from(chunk.iter().flat_map(|w| w.to_le_bytes()).collect::<Vec<u8>>())
            })
            .collect();
        WordPages { disk, pages: disk.write_pages(pages).collect() }
    }

    /// The run's page ids, in word order.
    pub fn pages(&self) -> &[PageId] {
        &self.pages
    }

    /// The pages words `words` lie on, in word order (none for an empty
    /// range).
    pub fn pages_of(&self, words: Range<usize>) -> &[PageId] {
        if words.is_empty() {
            return &[];
        }
        &self.pages[words.start / WORDS_PER_PAGE..=(words.end - 1) / WORDS_PER_PAGE]
    }

    /// Appends words `words` of the run to `out`, fetching each page they
    /// lie on through `pool` — one counted fetch per page, what it
    /// did added to `io`.
    ///
    /// # Panics
    /// Panics when `pool` reads another disk than the run was written to.
    pub fn read(
        &self,
        pool: &BufferPool<'_>,
        words: Range<usize>,
        out: &mut Vec<u64>,
        io: &mut PoolStats,
    ) {
        assert!(std::ptr::eq(pool.disk(), self.disk), "the pool reads another disk");
        out.reserve(words.len());
        let mut at = words.start;
        for &id in self.pages_of(words.clone()) {
            let page = pool.get_counted(id, io);
            let offset = at % WORDS_PER_PAGE;
            let take = (WORDS_PER_PAGE - offset).min(words.end - at);
            let bytes = &page[offset * 8..(offset + take) * 8];
            out.extend(bytes.chunks_exact(8).map(|w| u64::from_le_bytes(w.try_into().expect("8"))));
            at += take;
        }
    }
}

impl Drop for WordPages<'_> {
    fn drop(&mut self) {
        if let (Some(&first), Some(&last)) = (self.pages.first(), self.pages.last()) {
            self.disk.free_pages(first..last + 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::PoolConfig;
    use proptest::prelude::*;

    proptest! {
        /// Any range of any run reads back exactly, touching exactly the
        /// pages `pages_of` names, one fetch each.
        #[test]
        fn any_word_range_reads_back_exactly(
            len in 0usize..3 * WORDS_PER_PAGE + 7,
            from in 0usize..4 * WORDS_PER_PAGE,
            span in 0usize..2 * WORDS_PER_PAGE + 3,
        ) {
            let disk = VirtualDisk::new();
            disk.write_pages(vec![Bytes::from(vec![9u8; 24])]);
            let words: Vec<u64> = (0..len as u64).map(|w| w.wrapping_mul(0x9E37_79B9_7F4A_7C15)).collect();
            let run = WordPages::write(&disk, &words);
            prop_assert_eq!(run.pages().len(), len.div_ceil(WORDS_PER_PAGE));
            prop_assert!(run.pages().windows(2).all(|w| w[1] == w[0] + 1), "consecutive ids");
            let start = from.min(len);
            let range = start..(start + span).min(len);
            let pool = BufferPool::new(&disk, PoolConfig::default());
            let (mut out, mut io) = (vec![7], PoolStats::default());
            run.read(&pool, range.clone(), &mut out, &mut io);
            prop_assert_eq!(&out[1..], &words[range.clone()]);
            prop_assert_eq!(io.hits + io.misses, run.pages_of(range.clone()).len() as u64);
            prop_assert_eq!(pool.pinned_frames(), 0, "reads pin nothing");
        }
    }

    /// Dropping a run frees its pages and nothing else; a pool frame of a
    /// freed page is only ever evicted, never read.
    #[test]
    fn dropping_a_run_frees_exactly_its_pages() {
        let disk = VirtualDisk::new();
        disk.write_pages(vec![Bytes::from(vec![1u8; 40])]);
        let before = disk.live_bytes();
        let pool = BufferPool::new(&disk, PoolConfig::default());
        let first = WordPages::write(&disk, &[5; WORDS_PER_PAGE + 1]);
        assert_eq!(disk.live_bytes(), before + (WORDS_PER_PAGE + 1) * 8);
        first.read(&pool, 0..WORDS_PER_PAGE + 1, &mut Vec::new(), &mut PoolStats::default());
        let stale = first.pages().to_vec();
        drop(first);
        assert_eq!(disk.live_bytes(), before);
        let second = WordPages::write(&disk, &[6; 3]);
        assert!(second.pages()[0] > stale[1], "freed ids are not handed out again");
        let mut out = Vec::new();
        second.read(&pool, 0..3, &mut out, &mut PoolStats::default());
        assert_eq!(out, [6; 3]);
    }
}
