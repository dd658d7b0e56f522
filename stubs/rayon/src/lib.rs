//! Offline stand-in for the `rayon` crate.
//!
//! Provides the slice fan-out subset this workspace uses — `par_iter().map(..)
//! .collect()` plus [`join`] and [`current_num_threads`] — implemented with
//! `std::thread::scope` over contiguous chunks, the last of which the calling
//! thread maps itself (as [`join`] runs its second closure).  Results are always collected
//! in input order, so swapping in the real work-stealing pool cannot change
//! any observable output, only the scheduling.

use std::num::NonZeroUsize;
use std::sync::OnceLock;
use std::thread;

/// Number of worker threads a parallel operation will fan out to.
///
/// Read once, like the real crate's pool size (fixed when the pool starts):
/// `available_parallelism` re-reads the cgroup files on every call, which
/// costs more than a short query.
pub fn current_num_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1))
}

/// Runs two closures, potentially in parallel, returning both results.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    thread::scope(|scope| {
        let handle = scope.spawn(a);
        let rb = b();
        (handle.join().expect("rayon::join closure panicked"), rb)
    })
}

/// The traits a caller needs in scope to use `par_iter()`.
pub mod prelude {
    pub use crate::IntoParallelRefIterator;
}

/// Conversion of `&self` into a parallel iterator (slice subset).
pub trait IntoParallelRefIterator<'data> {
    /// The element type iterated over.
    type Item: Sync + 'data;

    /// Returns a parallel iterator over borrowed elements.
    fn par_iter(&'data self) -> ParIter<'data, Self::Item>;
}

impl<'data, T: Sync + 'data> IntoParallelRefIterator<'data> for [T] {
    type Item = T;

    fn par_iter(&'data self) -> ParIter<'data, T> {
        ParIter { items: self }
    }
}

impl<'data, T: Sync + 'data> IntoParallelRefIterator<'data> for Vec<T> {
    type Item = T;

    fn par_iter(&'data self) -> ParIter<'data, T> {
        ParIter { items: self }
    }
}

/// A parallel iterator over a borrowed slice.
pub struct ParIter<'data, T> {
    items: &'data [T],
}

impl<'data, T: Sync> ParIter<'data, T> {
    /// Maps every element through `map`, in parallel.
    pub fn map<R, F>(self, map: F) -> ParMap<'data, T, F>
    where
        R: Send,
        F: Fn(&'data T) -> R + Sync,
    {
        ParMap { items: self.items, map }
    }
}

/// A mapped parallel iterator, ready to collect.
pub struct ParMap<'data, T, F> {
    items: &'data [T],
    map: F,
}

impl<'data, T, R, F> ParMap<'data, T, F>
where
    T: Sync,
    R: Send,
    F: Fn(&'data T) -> R + Sync,
{
    /// Runs the map over all elements and collects the results in input order.
    pub fn collect<C: From<Vec<R>>>(self) -> C {
        C::from(self.run())
    }

    /// Every chunk but the last on a spawned thread, the last on the calling
    /// one, which would otherwise only wait: `n` workers cost `n - 1` spawns.
    fn run(self) -> Vec<R> {
        let threads = current_num_threads().min(self.items.len().max(1));
        if threads <= 1 || self.items.len() <= 1 {
            return self.items.iter().map(&self.map).collect();
        }
        let chunk_len = self.items.len().div_ceil(threads);
        let map = &self.map;
        let mut chunks = self.items.chunks(chunk_len);
        let last = chunks.next_back().expect("two or more items make a chunk");
        let mut results: Vec<R> = Vec::with_capacity(self.items.len());
        thread::scope(|scope| {
            let handles: Vec<_> = chunks
                .map(|chunk| scope.spawn(move || chunk.iter().map(map).collect::<Vec<R>>()))
                .collect();
            let tail: Vec<R> = last.iter().map(map).collect();
            for handle in handles {
                results.extend(handle.join().expect("rayon worker panicked"));
            }
            results.extend(tail);
        });
        results
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn map_collect_preserves_input_order() {
        let input: Vec<u64> = (0..10_000).collect();
        let doubled: Vec<u64> = input.par_iter().map(|&x| x * 2).collect();
        assert_eq!(doubled.len(), input.len());
        for (i, v) in doubled.iter().enumerate() {
            assert_eq!(*v, 2 * i as u64);
        }
    }

    /// The caller runs the last chunk itself rather than waiting on a thread
    /// spawned for it; the others run elsewhere when there are threads to
    /// spare.  Results stay in input order either way.
    #[test]
    fn the_last_chunk_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        for len in [2usize, 3, 7, 64] {
            let input: Vec<usize> = (0..len).collect();
            let ran: Vec<(usize, std::thread::ThreadId)> =
                input.par_iter().map(|&i| (i, std::thread::current().id())).collect();
            assert_eq!(ran.iter().map(|&(i, _)| i).collect::<Vec<_>>(), input, "input order");
            assert_eq!(ran[len - 1].1, caller, "{len} items: the last chunk");
            if super::current_num_threads() > 1 {
                assert_ne!(ran[0].1, caller, "{len} items: the first chunk is spawned");
            }
        }
    }

    #[test]
    fn join_returns_both_results() {
        let (a, b) = super::join(|| 1 + 1, || "two");
        assert_eq!(a, 2);
        assert_eq!(b, "two");
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u32> = Vec::new();
        let out: Vec<u32> = empty.par_iter().map(|&x| x).collect();
        assert!(out.is_empty());
        let one = [41u32];
        let out: Vec<u32> = one.par_iter().map(|&x| x + 1).collect();
        assert_eq!(out, vec![42]);
    }
}
