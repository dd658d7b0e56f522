//! Pluggable page-eviction policies for the [`BufferPool`](crate::BufferPool).
//!
//! The pool separates *what* is cached (its frame table) from *who* goes next
//! (the [`Replacer`]).  A replacer tracks the access history of resident pages
//! and, on demand, names a victim among the frames the pool has marked
//! evictable — a frame pinned by a running query is never offered up, so an
//! executor holding a pin across [`step`](../../minsig/engine/struct.Executor.html)
//! quanta can rely on the page staying resident however the eviction policy
//! behaves.
//!
//! One policy ships, `LruKReplacer` — classic LRU-K: the victim is the
//! evictable page with the largest *backward k-distance* (the age of its k-th
//! most recent access).  Pages with fewer than `k` recorded accesses have
//! infinite distance and are evicted first, oldest first access first.
//! `k = 1` is plain LRU.
//!
//! `k` is a [`PoolConfig`](crate::PoolConfig) knob ([`ReplacerPolicy`]);
//! custom policies — such as the adversarial replacer the paged conformance
//! suite uses to prove answers never depend on eviction order — plug in
//! through [`BufferPool::with_replacer`](crate::BufferPool::with_replacer).

use crate::disk::PageId;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, HashMap, VecDeque};

/// An eviction policy the [`BufferPool`](crate::BufferPool) consults.
///
/// The pool drives the protocol: [`record_access`](Replacer::record_access)
/// on every fetch of a resident-or-inserted page,
/// [`set_evictable`](Replacer::set_evictable) as pins are taken and released,
/// [`victim`](Replacer::victim) when it must make room, and
/// [`remove`](Replacer::remove) when a frame leaves the table for any other
/// reason.  A replacer must never name a page whose latest
/// `set_evictable(id, false)` has not been reverted — that is the
/// pinned-frame-never-evicted invariant the query engine's pin/unpin
/// protocol rides on.
///
/// Correctness of query *answers* never depends on the policy: eviction only
/// moves pages between memory and the virtual disk, and every read goes
/// through the pool either way.  `tests/paged_conformance.rs` proptests
/// exactly this with an adversarial replacer.
pub trait Replacer: Send + std::fmt::Debug {
    /// Notes one access of `id`, creating the entry (evictable) if new.
    fn record_access(&mut self, id: PageId);

    /// Marks `id` evictable or not.  Unknown ids are ignored.
    fn set_evictable(&mut self, id: PageId, evictable: bool);

    /// Forgets `id` entirely (the pool dropped the frame without asking for a
    /// victim).  Unknown ids are ignored.
    fn remove(&mut self, id: PageId);

    /// Chooses, removes and returns the next victim among the evictable
    /// tracked pages, or `None` when every tracked page is unevictable.
    fn victim(&mut self) -> Option<PageId>;

    /// Number of pages currently tracked (evictable or not).
    fn tracked(&self) -> usize;
}

/// Which [`Replacer`] a [`PoolConfig`](crate::PoolConfig) builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReplacerPolicy {
    /// LRU-K with the given `k` (history depth); `LruK(1)` is plain LRU.
    LruK(usize),
}

impl Default for ReplacerPolicy {
    /// LRU-2: scan-resistant (one streaming sweep cannot flush the pages the
    /// executors re-read every quantum), at the cost of one extra timestamp
    /// per frame.
    fn default() -> Self {
        ReplacerPolicy::LruK(2)
    }
}

impl ReplacerPolicy {
    /// Plain LRU (`LruK(1)`), the pre-buffer-manager pool behaviour.
    pub fn lru() -> Self {
        ReplacerPolicy::LruK(1)
    }

    /// Builds the replacer this policy names.
    pub(crate) fn build(self) -> Box<dyn Replacer> {
        let ReplacerPolicy::LruK(k) = self;
        Box::new(LruKReplacer::new(k))
    }
}

#[derive(Debug)]
struct LruKEntry {
    /// The ticks of the up-to-`k` most recent accesses, oldest first.
    history: VecDeque<u64>,
    evictable: bool,
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

/// The LRU-K policy: evict the evictable page whose k-th most recent access
/// is oldest; pages with fewer than `k` accesses count as infinitely old and
/// go first (earliest first access breaks ties among them).
///
/// The evictable entries are also kept in an ordered set by [`Rank`], so
/// the victim is its first element — `O(log n)` per access, pin change and
/// victim instead of a scan of every entry per victim.
#[derive(Debug)]
pub(crate) struct LruKReplacer {
    k: usize,
    tick: u64,
    entries: HashMap<PageId, LruKEntry>,
    /// The ranks of the evictable entries.
    evictable: BTreeSet<Rank>,
}

impl LruKReplacer {
    /// Creates an LRU-K replacer; `k` is clamped to at least 1.
    pub(crate) fn new(k: usize) -> Self {
        LruKReplacer { k: k.max(1), tick: 0, entries: HashMap::new(), evictable: BTreeSet::new() }
    }
}

impl Replacer for LruKReplacer {
    fn record_access(&mut self, id: PageId) {
        self.tick += 1;
        let (tick, k) = (self.tick, self.k);
        let entry = self
            .entries
            .entry(id)
            .or_insert_with(|| LruKEntry { history: VecDeque::with_capacity(k), evictable: true });
        if entry.evictable {
            self.evictable.remove(&entry.rank(id, k));
        }
        if entry.history.len() == k {
            entry.history.pop_front();
        }
        entry.history.push_back(tick);
        if entry.evictable {
            self.evictable.insert(entry.rank(id, k));
        }
    }

    fn set_evictable(&mut self, id: PageId, evictable: bool) {
        let Some(entry) = self.entries.get_mut(&id) else { return };
        if entry.evictable != evictable {
            entry.evictable = evictable;
            let rank = entry.rank(id, self.k);
            if evictable {
                self.evictable.insert(rank);
            } else {
                self.evictable.remove(&rank);
            }
        }
    }

    fn remove(&mut self, id: PageId) {
        if let Some(entry) = self.entries.remove(&id) {
            self.evictable.remove(&entry.rank(id, self.k));
        }
    }

    fn victim(&mut self) -> Option<PageId> {
        let (_, _, victim) = self.evictable.pop_first()?;
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
            let entry = self
                .entries
                .entry(id)
                .or_insert_with(|| LruKEntry { history: VecDeque::new(), evictable: true });
            if entry.history.len() == k {
                entry.history.pop_front();
            }
            entry.history.push_back(tick);
        }

        fn victim(&mut self) -> Option<PageId> {
            let entries = self.entries.iter().filter(|(_, e)| e.evictable);
            let (_, _, victim) = entries.map(|(&id, e)| e.rank(id, self.k)).min()?;
            self.entries.remove(&victim);
            Some(victim)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random streams of accesses, pins, unpins, removals and victim
        /// requests: the ordered set names the scan's victim every time.
        #[test]
        fn the_ordered_set_names_the_scans_victims(
            k in 1usize..4,
            ops in proptest::collection::vec((0u8..6, 0u64..10), 0..300),
        ) {
            let mut fast = LruKReplacer::new(k);
            let mut scan = ScanLruK { k, tick: 0, entries: HashMap::new() };
            for (step, &(op, id)) in ops.iter().enumerate() {
                match op {
                    0 | 1 => {
                        fast.record_access(id);
                        scan.record_access(id);
                    }
                    2 | 3 => {
                        let evictable = op == 3;
                        fast.set_evictable(id, evictable);
                        if let Some(entry) = scan.entries.get_mut(&id) {
                            entry.evictable = evictable;
                        }
                    }
                    4 => {
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
    #[test]
    fn lru_1_evicts_least_recently_used() {
        let mut r = LruKReplacer::new(1);
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

    /// The invariant every policy must honour: an unevictable page is never
    /// the victim, and becomes eligible again once released — keeping its
    /// policy position (its LRU-K history).
    #[test]
    fn pinned_pages_are_never_victims() {
        for policy in [ReplacerPolicy::LruK(1), ReplacerPolicy::LruK(2)] {
            let mut r = policy.build();
            for id in [1, 2, 3] {
                r.record_access(id);
            }
            r.set_evictable(1, false);
            assert_eq!(r.victim(), Some(2), "{policy:?} skips the pinned head");
            assert_eq!(r.victim(), Some(3), "{policy:?}");
            assert_eq!(r.victim(), None, "{policy:?}: only a pinned page remains");
            assert_eq!(r.tracked(), 1, "{policy:?}: the pinned page stays tracked");
            r.set_evictable(1, true);
            assert_eq!(r.victim(), Some(1), "{policy:?}: released page is eligible again");
        }
    }

    #[test]
    fn remove_forgets_without_counting_as_eviction() {
        for policy in [ReplacerPolicy::lru(), ReplacerPolicy::default()] {
            let mut r = policy.build();
            r.record_access(5);
            r.record_access(6);
            r.remove(5);
            r.remove(999); // unknown ids are ignored
            assert_eq!(r.tracked(), 1);
            assert_eq!(r.victim(), Some(6));
        }
    }

    #[test]
    fn policy_knob_builds_the_right_replacer() {
        assert_eq!(ReplacerPolicy::default(), ReplacerPolicy::LruK(2));
        assert_eq!(ReplacerPolicy::lru(), ReplacerPolicy::LruK(1));
        // k = 0 clamps to 1 rather than panicking.
        let mut r = LruKReplacer::new(0);
        r.record_access(1);
        assert_eq!(r.victim(), Some(1));
    }
}
