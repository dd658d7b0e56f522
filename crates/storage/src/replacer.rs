//! Page-eviction policies for the [`BufferPool`](crate::BufferPool).
//!
//! The pool separates *what* is cached (its frame table) from *who* goes next
//! (the [`Replacer`]).  A replacer tracks the access history of resident pages
//! and, on demand, names a victim among them.
//!
//! One policy ships, `LruKReplacer` — classic LRU-K: the victim is the
//! page with the largest *backward k-distance* (the age of its k-th
//! most recent access).  Pages with fewer than `k` recorded accesses have
//! infinite distance and are evicted first, oldest first access first.
//! `k = 1` is plain LRU.
//!
//! [`BufferPool::new`](crate::BufferPool) builds it with `k = 2`: LRU-2 is
//! scan-resistant (one streaming sweep cannot flush the pages every query
//! re-reads), at the cost of one extra timestamp per frame.  Custom
//! policies — such as the adversarial replacer the paged conformance suite
//! uses to prove answers never depend on eviction order — plug in through
//! [`BufferPool::with_replacer`](crate::BufferPool::with_replacer).

use crate::disk::PageId;
use std::collections::{BTreeSet, HashMap, VecDeque};

/// An eviction policy the [`BufferPool`](crate::BufferPool) consults.
///
/// The pool drives the protocol: [`record_access`](Replacer::record_access)
/// on every fetch of a resident-or-inserted page,
/// [`victim`](Replacer::victim) when it must make room, and
/// [`remove`](Replacer::remove) when a frame leaves the table for any other
/// reason.  Every tracked page may be named: nothing pins a frame.  A victim
/// the pool does not hold is scrubbed, and after one such rejection per
/// resident frame the pool overcommits rather than ask again.
///
/// Correctness of query *answers* never depends on the policy: eviction only
/// moves pages between memory and the virtual disk, and every read goes
/// through the pool either way.  `tests/paged_conformance.rs` proptests
/// exactly this with an adversarial replacer.
pub trait Replacer: Send + std::fmt::Debug {
    /// Notes one access of `id`, creating the entry if new.
    fn record_access(&mut self, id: PageId);

    /// Forgets `id` entirely (the pool dropped the frame without asking for a
    /// victim).  Unknown ids are ignored.
    fn remove(&mut self, id: PageId);

    /// Chooses, removes and returns the next victim among the tracked
    /// pages, or `None` when none is tracked.
    fn victim(&mut self) -> Option<PageId>;

    /// Number of pages currently tracked.
    fn tracked(&self) -> usize;
}

#[derive(Debug)]
struct LruKEntry {
    /// The ticks of the up-to-`k` most recent accesses, oldest first.
    history: VecDeque<u64>,
}

/// Where an entry ranks as a victim: `(has full history, k-distance
/// reference tick, id)`, smallest first — pages with a short history
/// (infinite k-distance) before the rest, then by their oldest retained
/// access.  The id never decides (ticks are unique) but keeps keys unique.
type Rank = (bool, u64, PageId);

impl LruKEntry {
    fn rank(&self, id: PageId, k: usize) -> Rank {
        (self.history.len() == k, self.history.front().copied().unwrap_or(0), id)
    }
}

/// The LRU-K policy: evict the page whose k-th most recent access is oldest;
/// pages with fewer than `k` accesses count as infinitely old and go first
/// (earliest first access breaks ties among them).
///
/// The entries are also kept in an ordered set by [`Rank`], so the victim is
/// its first element — `O(log n)` per access and victim instead of a scan of
/// every entry per victim.
#[derive(Debug)]
pub(crate) struct LruKReplacer {
    k: usize,
    tick: u64,
    entries: HashMap<PageId, LruKEntry>,
    /// The ranks of the entries.
    ranks: BTreeSet<Rank>,
}

impl LruKReplacer {
    /// Creates an LRU-K replacer; `k` is clamped to at least 1.
    pub(crate) fn new(k: usize) -> Self {
        LruKReplacer { k: k.max(1), tick: 0, entries: HashMap::new(), ranks: BTreeSet::new() }
    }
}

impl Replacer for LruKReplacer {
    fn record_access(&mut self, id: PageId) {
        self.tick += 1;
        let (tick, k) = (self.tick, self.k);
        let entry = (self.entries.entry(id))
            .or_insert_with(|| LruKEntry { history: VecDeque::with_capacity(k) });
        self.ranks.remove(&entry.rank(id, k));
        if entry.history.len() == k {
            entry.history.pop_front();
        }
        entry.history.push_back(tick);
        self.ranks.insert(entry.rank(id, k));
    }

    fn remove(&mut self, id: PageId) {
        if let Some(entry) = self.entries.remove(&id) {
            self.ranks.remove(&entry.rank(id, self.k));
        }
    }

    fn victim(&mut self) -> Option<PageId> {
        let (_, _, victim) = self.ranks.pop_first()?;
        self.entries.remove(&victim);
        Some(victim)
    }

    fn tracked(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// LRU-K as it was first written — every victim a scan of every entry
    /// for the least `(full history, k-th tick, id)` — kept as the oracle
    /// of the ordered set.
    struct ScanLruK {
        k: usize,
        tick: u64,
        entries: HashMap<PageId, LruKEntry>,
    }

    impl ScanLruK {
        fn record_access(&mut self, id: PageId) {
            self.tick += 1;
            let (tick, k) = (self.tick, self.k);
            let entry =
                self.entries.entry(id).or_insert_with(|| LruKEntry { history: VecDeque::new() });
            if entry.history.len() == k {
                entry.history.pop_front();
            }
            entry.history.push_back(tick);
        }

        fn victim(&mut self) -> Option<PageId> {
            let ranks = self.entries.iter().map(|(&id, e)| e.rank(id, self.k));
            let (_, _, victim) = ranks.min()?;
            self.entries.remove(&victim);
            Some(victim)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random streams of accesses, removals and victim requests: the
        /// ordered set names the scan's victim every time.
        #[test]
        fn the_ordered_set_names_the_scans_victims(
            k in 1usize..4,
            ops in proptest::collection::vec((0u8..4, 0u64..10), 0..300),
        ) {
            let mut fast = LruKReplacer::new(k);
            let mut scan = ScanLruK { k, tick: 0, entries: HashMap::new() };
            for (step, &(op, id)) in ops.iter().enumerate() {
                match op {
                    0 | 1 => {
                        fast.record_access(id);
                        scan.record_access(id);
                    }
                    2 => {
                        fast.remove(id);
                        scan.entries.remove(&id);
                    }
                    _ => prop_assert_eq!(fast.victim(), scan.victim(), "step {}", step),
                }
                prop_assert_eq!(fast.tracked(), scan.entries.len(), "step {}", step);
            }
            loop {
                let victim = fast.victim();
                prop_assert_eq!(victim, scan.victim(), "draining");
                if victim.is_none() {
                    break;
                }
            }
        }
    }

    /// LRU-1 degenerates to plain LRU: victims come out least-recently-used.
    /// `k = 0` clamps to 1 rather than panicking.
    #[test]
    fn lru_1_evicts_least_recently_used() {
        for k in [0, 1] {
            let mut r = LruKReplacer::new(k);
            for id in [10, 20, 30] {
                r.record_access(id);
            }
            r.record_access(10); // order is now 20, 30, 10
            assert_eq!(r.victim(), Some(20));
            assert_eq!(r.victim(), Some(30));
            assert_eq!(r.victim(), Some(10));
            assert_eq!(r.victim(), None);
            assert_eq!(r.tracked(), 0);
        }
    }

    /// The canonical LRU-2 sequence: a page swept once (short history) is
    /// sacrificed before a page accessed twice long ago.
    #[test]
    fn lru_2_prefers_short_history_then_oldest_penultimate_access() {
        let mut r = LruKReplacer::new(2);
        // Accesses: a a b c b — a has history [1,2], b [3,5], c [4].
        r.record_access(1); // a
        r.record_access(1); // a
        r.record_access(2); // b
        r.record_access(3); // c
        r.record_access(2); // b
                            // c has <2 accesses: infinite distance, evicted first.
        assert_eq!(r.victim(), Some(3));
        // a's 2nd-most-recent access (tick 1) is older than b's (tick 3).
        assert_eq!(r.victim(), Some(1));
        assert_eq!(r.victim(), Some(2));
    }

    /// Among several short-history pages, the earliest first access goes
    /// first (the tail of a scan survives longest).
    #[test]
    fn lru_k_breaks_infinite_distance_ties_by_first_access() {
        let mut r = LruKReplacer::new(3);
        for id in [7, 8, 9] {
            r.record_access(id);
        }
        r.record_access(7); // still only 2 of 3 accesses: still infinite
        assert_eq!(r.victim(), Some(7), "oldest first access wins the tie");
        assert_eq!(r.victim(), Some(8));
    }

    /// A full-history page re-accessed slides its window: eviction tracks the
    /// k-th most recent access, not the first ever.
    #[test]
    fn lru_k_window_slides_on_reaccess() {
        let mut r = LruKReplacer::new(2);
        r.record_access(1); // t1
        r.record_access(2); // t2
        r.record_access(1); // t3: 1's window [1,3]
        r.record_access(2); // t4: 2's window [2,4]
        r.record_access(1); // t5: 1's window [3,5] — now younger than 2's
        assert_eq!(r.victim(), Some(2));
        assert_eq!(r.victim(), Some(1));
    }

    #[test]
    fn remove_forgets_without_counting_as_eviction() {
        for k in [1, 2] {
            let mut r = LruKReplacer::new(k);
            r.record_access(5);
            r.record_access(6);
            r.remove(5);
            r.remove(999); // unknown ids are ignored
            assert_eq!(r.tracked(), 1);
            assert_eq!(r.victim(), Some(6));
        }
    }
}
