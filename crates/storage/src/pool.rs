//! The buffer manager: a byte-budgeted LRU-2 page cache with simulated miss
//! latency.
//!
//! Figure 7.6 of the paper studies search time as the memory allocated to the
//! system varies from 10 % to 100 % of the raw data size.  To reproduce that
//! experiment deterministically, page misses are charged a configurable
//! *simulated* latency; the harness reports the resulting simulated elapsed time
//! alongside the raw hit/miss counts, so the shape of the curve does not depend on
//! the benchmarking machine's cache hierarchy.
//!
//! The pool keeps a frame table of resident pages and delegates victim
//! selection to a [`Replacer`]: LRU-2 (see [`crate::replacer`]), or a custom
//! one passed to [`BufferPool::with_replacer`].  Every resident frame is a
//! candidate victim: nothing pins a page, because every reader uses the bytes
//! it fetched right away.
//!
//! ## What the pool mutex covers
//!
//! A frame holds its page's frozen [`Bytes`] and nothing decoded: a fetch
//! hands out a refcount bump, never a copy, and the bytes it returns stay
//! valid after the frame is evicted.  The mutex guards only the frame table,
//! the replacer and the counters.  A **hit** is one lock: it bumps the
//! replacer and clones the bytes.  A **miss** releases the mutex, reads the
//! page unlocked, then re-locks to evict and publish the frame; a second
//! reader that missed the same page meanwhile finds it resident when it
//! re-locks and adopts it.  Both count as misses, because both read the
//! disk.
//!
//! Every fetch can also report what it did — hit or miss, frames evicted,
//! simulated latency — into a caller-owned [`PoolStats`]
//! ([`WordPages::read`](crate::WordPages::read)): how a query counts its own
//! I/O while others share the pool.  [`BufferPool::stats`] stays the
//! pool-global total.
//!
//! ```
//! use trace_model::{EntityId, Period, PresenceInstance, TraceSet};
//! use trace_storage::{PagedTraceStore, PoolConfig, PAGE_SIZE};
//!
//! // Four entities with exactly one page (292 records) each.
//! let mut traces = TraceSet::new(60);
//! for entity in 0..4 {
//!     for i in 0..292 {
//!         let stay = Period::new(i * 120, i * 120 + 60).unwrap();
//!         traces.record(PresenceInstance::new(EntityId(entity), 0, stay));
//!     }
//! }
//! let store = PagedTraceStore::build(&traces, 4);
//! let pages: Vec<_> = (0..4).map(|e| store.trace_pages(EntityId(e)).unwrap()[0]).collect();
//!
//! // Budget for exactly two pages: the third distinct page evicts one.
//! let pool = store.pool(PoolConfig { capacity_bytes: 2 * PAGE_SIZE, ..PoolConfig::default() });
//! pool.get(pages[0]); // miss
//! pool.get(pages[1]); // miss
//! pool.get(pages[0]); // hit
//! pool.get(pages[2]); // miss, evicts pages[1]
//! pool.get(pages[1]); // miss again
//! let stats = pool.stats();
//! assert_eq!((stats.hits, stats.misses, stats.evictions), (1, 4, 2));
//! assert!(stats.hit_rate() > 0.19 && stats.hit_rate() < 0.21);
//! ```

use crate::disk::{PageId, VirtualDisk};
use crate::page::PAGE_SIZE;
use crate::replacer::{LruKReplacer, Replacer};
use bytes::Bytes;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Configuration of a [`BufferPool`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PoolConfig {
    /// Maximum amount of page data kept in memory, in bytes.
    pub capacity_bytes: usize,
    /// Simulated latency charged per page miss, in microseconds.
    pub miss_latency_us: u64,
    /// Simulated latency charged per page hit, in microseconds.
    pub hit_latency_us: u64,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            capacity_bytes: 64 * PAGE_SIZE,
            // Rough HDD-era numbers: a miss is ~100x more expensive than a hit.
            miss_latency_us: 2_000,
            hit_latency_us: 20,
        }
    }
}

impl PoolConfig {
    /// A pool sized as a fraction of a dataset of `data_bytes` bytes (the x-axis
    /// of Figure 7.6).
    pub fn with_memory_fraction(data_bytes: usize, fraction: f64) -> Self {
        let capacity = ((data_bytes as f64 * fraction) as usize).max(PAGE_SIZE);
        PoolConfig { capacity_bytes: capacity, ..PoolConfig::default() }
    }

    /// Number of whole pages that fit in the budget (at least one).
    pub(crate) fn capacity_pages(&self) -> usize {
        (self.capacity_bytes / PAGE_SIZE).max(1)
    }
}

/// Counters describing buffer-pool behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PoolStats {
    /// Page requests served from memory.
    pub hits: u64,
    /// Page requests that had to read the virtual disk.
    pub misses: u64,
    /// Pages evicted to stay within budget.
    pub evictions: u64,
    /// Total simulated latency in microseconds.
    pub simulated_us: u64,
}

impl PoolStats {
    /// Hit rate in `[0, 1]`; zero when no request has been made.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// The counter deltas since `earlier` — exact for a single client,
    /// pool-global (so bleeding across clients) under concurrency; saturating,
    /// so concurrent resets cannot underflow.
    pub fn since(&self, earlier: &PoolStats) -> PoolStats {
        PoolStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            evictions: self.evictions.saturating_sub(earlier.evictions),
            simulated_us: self.simulated_us.saturating_sub(earlier.simulated_us),
        }
    }
}

impl std::ops::AddAssign for PoolStats {
    fn add_assign(&mut self, other: PoolStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
        self.simulated_us += other.simulated_us;
    }
}

#[derive(Debug)]
struct PoolInner {
    /// The resident pages' bytes, shared by reference with their readers.
    frames: HashMap<PageId, Bytes>,
    replacer: Box<dyn Replacer>,
    stats: PoolStats,
}

impl PoolInner {
    /// Records an access to a resident frame and shares the page; `None`
    /// when `id` is not resident.
    fn share(&mut self, id: PageId) -> Option<Bytes> {
        let page = self.frames.get(&id)?.clone();
        self.replacer.record_access(id);
        Some(page)
    }

    /// Evicts until a new frame fits in `capacity` pages, returning the
    /// number of evictions.
    fn make_room(&mut self, capacity: usize) -> u64 {
        let mut evictions = 0;
        // Budget for rejected victims: a misbehaving custom replacer that
        // keeps naming non-resident pages must not spin this loop forever —
        // after one rejection per resident frame the pool overcommits
        // instead, exactly as if `victim()` had returned `None`.
        let mut rejections = self.frames.len() + 1;
        while self.frames.len() >= capacity {
            let Some(victim) = self.replacer.victim() else { break };
            if self.frames.remove(&victim).is_some() {
                evictions += 1;
                continue;
            }
            // A victim the pool does not hold: scrub the stale entry.
            self.replacer.remove(victim);
            rejections -= 1;
            if rejections == 0 {
                break;
            }
        }
        evictions
    }
}

/// A page cache in front of a [`VirtualDisk`] — see the
/// [module docs](crate::pool).
#[derive(Debug)]
pub struct BufferPool<'d> {
    disk: &'d VirtualDisk,
    config: PoolConfig,
    inner: Mutex<PoolInner>,
}

impl<'d> BufferPool<'d> {
    /// Creates a pool over a disk that evicts by LRU-2.
    pub(crate) fn new(disk: &'d VirtualDisk, config: PoolConfig) -> Self {
        Self::with_replacer(disk, config, Box::new(LruKReplacer::new(2)))
    }

    /// Creates a pool with an explicit (possibly custom) [`Replacer`] — the
    /// hook the conformance suite uses to prove answers never depend on
    /// eviction decisions.
    pub fn with_replacer(
        disk: &'d VirtualDisk,
        config: PoolConfig,
        replacer: Box<dyn Replacer>,
    ) -> Self {
        BufferPool {
            disk,
            config,
            inner: Mutex::new(PoolInner {
                frames: HashMap::new(),
                replacer,
                stats: PoolStats::default(),
            }),
        }
    }

    /// The pool configuration.
    pub fn config(&self) -> PoolConfig {
        self.config
    }

    /// Fetches a page's bytes, from cache when possible.
    pub fn get(&self, id: PageId) -> Bytes {
        self.get_counted(id, &mut PoolStats::default())
    }

    /// [`get`](Self::get), adding what the fetch did (one hit or one miss,
    /// the frames it evicted, its simulated latency) to the caller's own `io`
    /// counters — exact per-caller attribution however many clients share
    /// the pool.
    pub(crate) fn get_counted(&self, id: PageId, io: &mut PoolStats) -> Bytes {
        if let Some(page) = self.lookup(id, io) {
            return page;
        }
        // Miss: the disk read runs with the mutex released.
        self.publish(id, self.disk.read_page(id), io)
    }

    /// The disk this pool reads.
    pub(crate) fn disk(&self) -> &'d VirtualDisk {
        self.disk
    }

    /// The locked hit path: `None` (nothing counted yet) when `id` is not
    /// resident.
    fn lookup(&self, id: PageId, io: &mut PoolStats) -> Option<Bytes> {
        let mut inner = self.inner.lock();
        let page = inner.share(id)?;
        let hit =
            PoolStats { hits: 1, simulated_us: self.config.hit_latency_us, ..PoolStats::default() };
        inner.stats += hit;
        *io += hit;
        Some(page)
    }

    /// The locked tail of a miss: makes room and inserts `page`, or adopts
    /// the frame a raced reader of the same page published first.
    fn publish(&self, id: PageId, page: Bytes, io: &mut PoolStats) -> Bytes {
        let mut inner = self.inner.lock();
        let mut miss = PoolStats {
            misses: 1,
            simulated_us: self.config.miss_latency_us,
            ..PoolStats::default()
        };
        if !inner.frames.contains_key(&id) {
            miss.evictions = inner.make_room(self.config.capacity_pages());
            inner.frames.insert(id, page);
        }
        inner.stats += miss;
        *io += miss;
        inner.share(id).expect("frame was just published")
    }

    /// Current statistics.
    pub fn stats(&self) -> PoolStats {
        self.inner.lock().stats
    }

    /// Always 0: the pool has no pins.  The method stays only because the
    /// benchmark harness's leak check still reads it.
    pub fn pinned_frames(&self) -> usize {
        0
    }
}

// The parallel query engine hands one pool to many worker threads; this
// compile-time assertion keeps the pool (and, transitively, the disk and its
// frozen pages) shareable by `&` reference.
const _: fn() = || {
    fn assert_sync_send<T: Sync + Send>() {}
    assert_sync_send::<BufferPool<'static>>();
};

/// What the unit tests observe the pool by.
#[cfg(test)]
impl BufferPool<'_> {
    /// Number of pages currently cached.
    pub(crate) fn cached_pages(&self) -> usize {
        self.inner.lock().frames.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::TraceRecord;
    use crate::page::Page;

    fn disk_with_pages(n: u64) -> VirtualDisk {
        let disk = VirtualDisk::new();
        for i in 0..n {
            let page: Page = (0..4).map(|j| TraceRecord::new(i * 10 + j, 0, 0, 1)).collect();
            disk.write_page(&page);
        }
        disk.reset_stats();
        disk
    }

    fn tiny(pages: usize) -> PoolConfig {
        PoolConfig { capacity_bytes: pages * PAGE_SIZE, miss_latency_us: 0, hit_latency_us: 0 }
    }

    #[test]
    fn repeated_access_hits_the_cache() {
        let disk = disk_with_pages(4);
        let pool = BufferPool::new(&disk, PoolConfig::default());
        let a = pool.get(0);
        let b = pool.get(0);
        assert_eq!(a, b);
        let stats = pool.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 1);
        assert_eq!(disk.stats().reads, 1);
    }

    #[test]
    fn capacity_limits_cached_pages_and_evicts_coldest() {
        let pool_disk = disk_with_pages(10);
        let pool = BufferPool::new(&pool_disk, tiny(2));
        pool.get(0);
        pool.get(1);
        pool.get(2); // evicts page 0
        assert_eq!(pool.cached_pages(), 2);
        assert_eq!(pool.stats().evictions, 1);
        // Page 1 is still cached, page 0 is not.
        pool.get(1);
        assert_eq!(pool.stats().hits, 1);
        pool.get(0);
        assert_eq!(pool.stats().misses, 4);
    }

    #[test]
    fn simulated_latency_accumulates() {
        let disk = disk_with_pages(3);
        let config =
            PoolConfig { capacity_bytes: PAGE_SIZE, miss_latency_us: 100, hit_latency_us: 1 };
        let pool = BufferPool::new(&disk, config);
        pool.get(0);
        pool.get(0);
        pool.get(1);
        let stats = pool.stats();
        assert_eq!(stats.simulated_us, 100 + 1 + 100);
        assert!(stats.hit_rate() > 0.0 && stats.hit_rate() < 1.0);
    }

    #[test]
    fn larger_budgets_never_increase_misses() {
        let disk = disk_with_pages(32);
        // A fixed access pattern with locality.
        let pattern: Vec<PageId> = (0..200).map(|i| (i % 20) as PageId).collect();
        let mut previous_misses = u64::MAX;
        for pages in [2usize, 8, 32] {
            let pool = BufferPool::new(&disk, tiny(pages));
            for &p in &pattern {
                pool.get(p);
            }
            let misses = pool.stats().misses;
            assert!(misses <= previous_misses, "more memory missed more");
            previous_misses = misses;
        }
        assert_eq!(previous_misses, 20, "full-size pool misses only cold reads");
    }

    #[test]
    fn memory_fraction_config_is_monotone() {
        let small = PoolConfig::with_memory_fraction(100 * PAGE_SIZE, 0.1);
        let large = PoolConfig::with_memory_fraction(100 * PAGE_SIZE, 0.9);
        assert!(small.capacity_pages() < large.capacity_pages());
        assert!(small.capacity_pages() >= 1);
    }

    #[test]
    fn hit_rate_of_untouched_pool_is_zero() {
        let disk = disk_with_pages(1);
        let pool = BufferPool::new(&disk, PoolConfig::default());
        assert_eq!(pool.stats().hit_rate(), 0.0);
    }

    #[test]
    fn stats_since_subtracts_saturating() {
        let before = PoolStats { hits: 5, misses: 3, evictions: 1, simulated_us: 70 };
        let after = PoolStats { hits: 9, misses: 3, evictions: 2, simulated_us: 90 };
        assert_eq!(
            after.since(&before),
            PoolStats { hits: 4, misses: 0, evictions: 1, simulated_us: 20 }
        );
        // A reset in between cannot underflow.
        assert_eq!(PoolStats::default().since(&before), PoolStats::default());
    }

    #[test]
    fn concurrent_readers_share_one_pool() {
        let disk = disk_with_pages(16);
        let pool = BufferPool::new(&disk, PoolConfig::default());
        let threads = 8;
        let reads_per_thread = 200u64;
        // Released together, every reader goes for cold page 0 first.
        let barrier = std::sync::Barrier::new(threads as usize);
        let per_thread: Vec<PoolStats> = std::thread::scope(|scope| {
            let readers: Vec<_> = (0..threads)
                .map(|t| {
                    let (pool, barrier) = (&pool, &barrier);
                    scope.spawn(move || {
                        let mut io = PoolStats::default();
                        barrier.wait();
                        for i in 0..reads_per_thread {
                            let id = if i == 0 { 0 } else { (t + i) % 16 };
                            let page = pool.get_counted(id, &mut io);
                            // Every record of page `id` carries entity `id * 10 + j`.
                            let records = Page::from_bytes(&page).records().to_vec();
                            assert!(records.iter().all(|r| r.entity / 10 == id));
                        }
                        io
                    })
                })
                .collect();
            readers.into_iter().map(|r| r.join().expect("reader panicked")).collect()
        });
        let mut summed = PoolStats::default();
        for io in per_thread {
            assert_eq!(io.hits + io.misses, reads_per_thread, "a fetch is one hit or one miss");
            summed += io;
        }
        assert_eq!(summed, pool.stats(), "per-caller counters sum to the pool's");
        // All 16 pages fit in the default budget: each becomes resident once.
        // Readers that raced on a cold page each read the disk (each is a
        // miss), but only the first publishes a frame.
        assert!(summed.misses >= 16);
        assert_eq!(summed.misses, disk.stats().reads);
        assert_eq!((pool.cached_pages(), pool.pinned_frames()), (16, 0));
    }

    /// A replacer that names victims the pool does not even hold; the pool
    /// must scrub them and fall back to overcommitting, never panic.
    #[derive(Debug)]
    struct PhantomReplacer(u64);

    impl Replacer for PhantomReplacer {
        fn record_access(&mut self, _id: PageId) {}
        fn remove(&mut self, _id: PageId) {}
        fn victim(&mut self) -> Option<PageId> {
            self.0 += 1;
            Some(1_000 + self.0) // never resident
        }
        fn tracked(&self) -> usize {
            0
        }
    }

    #[test]
    fn non_resident_victims_are_scrubbed_not_evicted() {
        let disk = disk_with_pages(6);
        let pool = BufferPool::with_replacer(&disk, tiny(2), Box::new(PhantomReplacer(0)));
        for id in 0..6u64 {
            pool.get(id);
        }
        assert_eq!(pool.cached_pages(), 6, "phantom victims force overcommit");
        assert_eq!(pool.stats().evictions, 0);
        assert_eq!(pool.stats().misses, 6);
    }

    /// The miss path reads the disk unlocked, so two readers can miss the
    /// same page at once.  Driven step by step (lookup, unlocked read,
    /// publish) so the interleaving is forced, not hoped for: the second
    /// publisher adopts the resident frame.
    #[test]
    fn raced_misses_of_one_page_share_one_frame() {
        let disk = disk_with_pages(6);
        let pool = BufferPool::new(&disk, tiny(2));
        let (mut io_a, mut io_b) = (PoolStats::default(), PoolStats::default());
        assert!(pool.lookup(0, &mut io_a).is_none(), "A misses");
        assert!(pool.lookup(0, &mut io_b).is_none(), "B misses");
        let (read_a, read_b) = (disk.read_page(0), disk.read_page(0));
        let page_b = pool.publish(0, read_b, &mut io_b);
        assert_eq!(pool.cached_pages(), 1);
        let page_a = pool.publish(0, read_a, &mut io_a);
        assert_eq!(page_a, page_b, "A adopted the frame B published");
        assert_eq!(pool.cached_pages(), 1, "one resident frame");
        // Both read the disk, so both are misses; nothing was a hit.
        let stats = pool.stats();
        assert_eq!((stats.hits, stats.misses, stats.evictions), (0, 2, 0));
        assert_eq!((io_a.misses, io_b.misses, io_a.hits + io_b.hits), (1, 1, 0));
        assert_eq!(disk.stats().reads, 2);
    }
}
