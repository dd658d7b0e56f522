//! Offline stand-in for the `rayon` crate.
//!
//! Provides the fan-out subset this workspace uses — borrowing
//! `par_iter().map(..).collect()` over slices, consuming
//! `into_par_iter().map(..).collect()` over vectors, plus [`join`] and
//! [`current_num_threads`] — implemented with `std::thread::scope` over
//! contiguous chunks, the last of which the calling thread maps itself (as
//! [`join`] runs its second closure).  Results are always collected
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

/// The traits a caller needs in scope to use `par_iter()` and
/// `into_par_iter()`.
pub mod prelude {
    pub use crate::{IntoParallelIterator, IntoParallelRefIterator};
}

/// Conversion of `self` into a consuming parallel iterator (vector subset).
pub trait IntoParallelIterator {
    /// The element type iterated over.
    type Item: Send;
    /// The parallel iterator `into_par_iter` returns.
    type Iter;

    /// Returns a parallel iterator that moves every element to its worker.
    fn into_par_iter(self) -> Self::Iter;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    type Iter = vec::IntoIter<T>;

    fn into_par_iter(self) -> vec::IntoIter<T> {
        vec::IntoIter { items: self }
    }
}

/// The consuming parallel iterator over a vector.
pub mod vec {
    /// A parallel iterator that owns its elements.
    pub struct IntoIter<T> {
        pub(crate) items: Vec<T>,
    }

    impl<T: Send> IntoIter<T> {
        /// Maps every element through `map`, in parallel, by value.
        pub fn map<R, F>(self, map: F) -> IntoMap<T, F>
        where
            R: Send,
            F: Fn(T) -> R + Sync,
        {
            IntoMap { items: self.items, map }
        }
    }

    /// A mapped consuming parallel iterator, ready to collect.
    pub struct IntoMap<T, F> {
        items: Vec<T>,
        map: F,
    }

    impl<T, R, F> IntoMap<T, F>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        /// Runs the map over all elements and collects the results in input
        /// order.
        pub fn collect<C: From<Vec<R>>>(self) -> C {
            let len = self.items.len();
            let threads = crate::current_num_threads().min(len.max(1));
            if threads <= 1 || len <= 1 {
                return C::from(self.items.into_iter().map(&self.map).collect::<Vec<R>>());
            }
            let chunk_len = len.div_ceil(threads);
            let mut items = self.items.into_iter();
            let chunks: Vec<Vec<T>> = (0..len.div_ceil(chunk_len))
                .map(|_| items.by_ref().take(chunk_len).collect())
                .collect();
            let map = &self.map;
            C::from(crate::fan_out(len, chunks.into_iter(), |chunk: Vec<T>| {
                chunk.into_iter().map(map).collect()
            }))
        }
    }
}

/// Maps every chunk but the last on a spawned thread and the last on the
/// calling one, which would otherwise only wait (`n` workers cost `n - 1`
/// spawns), and concatenates the results in chunk order.  A worker's panic
/// resumes on the caller with its own payload, as rayon's does.
fn fan_out<C, R, I, F>(len: usize, mut chunks: I, run: F) -> Vec<R>
where
    C: Send,
    R: Send,
    I: DoubleEndedIterator<Item = C>,
    F: Fn(C) -> Vec<R> + Sync,
{
    let last = chunks.next_back().expect("two or more items make a chunk");
    let run = &run;
    let mut results: Vec<R> = Vec::with_capacity(len);
    thread::scope(|scope| {
        let handles: Vec<_> = chunks.map(|chunk| scope.spawn(move || run(chunk))).collect();
        let tail = run(last);
        for handle in handles {
            match handle.join() {
                Ok(part) => results.extend(part),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        results.extend(tail);
    });
    results
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

    /// Contiguous chunks, one per worker, through [`fan_out`].
    fn run(self) -> Vec<R> {
        let threads = current_num_threads().min(self.items.len().max(1));
        if threads <= 1 || self.items.len() <= 1 {
            return self.items.iter().map(&self.map).collect();
        }
        let chunk_len = self.items.len().div_ceil(threads);
        let map = &self.map;
        fan_out(self.items.len(), self.items.chunks(chunk_len), |chunk: &'data [T]| {
            chunk.iter().map(map).collect()
        })
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

    #[test]
    fn into_par_iter_keeps_input_order_of_owned_values() {
        for len in [2usize, 3, 7, 1_000] {
            let input: Vec<String> = (0..len).map(|i| i.to_string()).collect();
            let out: Vec<String> = input.clone().into_par_iter().map(|s| s + "!").collect();
            let expected: Vec<String> = input.iter().map(|s| format!("{s}!")).collect();
            assert_eq!(out, expected, "{len} items");
        }
    }

    #[test]
    fn into_par_iter_empty_and_singleton_inputs() {
        let out: Vec<String> = Vec::<String>::new().into_par_iter().map(|s| s).collect();
        assert!(out.is_empty());
        let caller = std::thread::current().id();
        let out: Vec<(String, std::thread::ThreadId)> = vec![String::from("only")]
            .into_par_iter()
            .map(|s| (s, std::thread::current().id()))
            .collect();
        assert_eq!(out, vec![(String::from("only"), caller)], "one item runs on the caller");
    }

    /// As with `par_iter`: the caller maps the last chunk, the first is
    /// spawned when there is a thread to spare, and order is kept.
    #[test]
    fn into_par_iter_runs_the_last_chunk_on_the_calling_thread() {
        let caller = std::thread::current().id();
        for len in [2usize, 3, 7, 64] {
            let input: Vec<Box<usize>> = (0..len).map(Box::new).collect();
            let ran: Vec<(usize, std::thread::ThreadId)> =
                input.into_par_iter().map(|i| (*i, std::thread::current().id())).collect();
            assert_eq!(
                ran.iter().map(|&(i, _)| i).collect::<Vec<_>>(),
                (0..len).collect::<Vec<_>>()
            );
            assert_eq!(ran[len - 1].1, caller, "{len} items: the last chunk");
            if super::current_num_threads() > 1 {
                assert_ne!(ran[0].1, caller, "{len} items: the first chunk is spawned");
            }
        }
    }

    /// A panic in the first chunk — spawned when there is more than one
    /// thread, the caller's own otherwise — unwinds out of `collect` with its
    /// payload.
    #[test]
    fn a_panic_in_a_spawned_chunk_reaches_the_caller() {
        let input: Vec<String> = (0..8).map(|i| i.to_string()).collect();
        let outcome = std::panic::catch_unwind(|| {
            input
                .into_par_iter()
                .map(|s| if s == "0" { panic!("chunk zero failed") } else { s })
                .collect::<Vec<String>>()
        });
        let payload = outcome.expect_err("the worker's panic reaches the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"chunk zero failed"));
        let borrowed: Vec<u32> = (0..8).collect();
        let outcome = std::panic::catch_unwind(|| {
            borrowed
                .par_iter()
                .map(|&x| if x == 0 { panic!("slice chunk zero failed") } else { x })
                .collect::<Vec<u32>>()
        });
        let payload = outcome.expect_err("the worker's panic reaches the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"slice chunk zero failed"));
    }
}
