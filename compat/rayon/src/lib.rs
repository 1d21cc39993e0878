//! Offline stand-in for the subset of `rayon` this workspace uses:
//! `<range-or-vec>.into_par_iter().map(f).collect::<Vec<_>>()`.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors this shim (see `compat/` in the repo root). Unlike a serial
//! fallback it really fans work out across CPU cores with
//! `std::thread::scope`, block-partitioning the items and reassembling
//! results in order, so the parallel CPU engines and the serve backends
//! keep genuine multi-core speedups.

use std::num::NonZeroUsize;
use std::sync::OnceLock;

/// Items-to-parallel-iterator conversion (the only rayon entry point the
/// workspace calls).
pub trait IntoParallelIterator {
    /// Item type produced.
    type Item: Send;
    /// Concrete parallel iterator.
    type Iter: ParallelIterator<Item = Self::Item>;

    /// Converts `self` into a parallel iterator.
    fn into_par_iter(self) -> Self::Iter;
}

/// Minimal parallel-iterator interface: `map` then `collect`.
pub trait ParallelIterator: Sized {
    /// Item type produced.
    type Item: Send;

    /// Materializes the source items (order-preserving).
    fn items(self) -> Vec<Self::Item>;

    /// Maps each item through `f` in parallel at collection time.
    fn map<U, F>(self, f: F) -> Map<Self, F>
    where
        U: Send,
        F: Fn(Self::Item) -> U + Sync,
    {
        Map { base: self, f }
    }

    /// Collects into a container, executing in parallel.
    fn collect<C>(self) -> C
    where
        C: FromParallelIterator<Self::Item>,
        Self::Item: Send,
    {
        C::from_par_items(self.items())
    }

    /// Runs `f` on every item in parallel, discarding results (upstream
    /// rayon's side-effect driver; used by telemetry's concurrency
    /// tests).
    fn for_each<F>(self, f: F)
    where
        F: Fn(Self::Item) + Sync,
    {
        let _: Vec<()> = self.map(f).collect();
    }
}

/// A mapped parallel iterator.
pub struct Map<B, F> {
    base: B,
    f: F,
}

impl<B, U, F> ParallelIterator for Map<B, F>
where
    B: ParallelIterator,
    B::Item: Send,
    U: Send,
    F: Fn(B::Item) -> U + Sync,
{
    type Item = U;

    fn items(self) -> Vec<U> {
        par_map(self.base.items(), &self.f)
    }
}

/// Collection types `collect` can target.
pub trait FromParallelIterator<T: Send> {
    /// Builds the collection from already-ordered items.
    fn from_par_items(items: Vec<T>) -> Self;
}

impl<T: Send> FromParallelIterator<T> for Vec<T> {
    fn from_par_items(items: Vec<T>) -> Self {
        items
    }
}

/// Source adapter over a materialized vector.
pub struct VecParIter<T> {
    items: Vec<T>,
}

impl<T: Send> ParallelIterator for VecParIter<T> {
    type Item = T;

    fn items(self) -> Vec<T> {
        self.items
    }
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    type Iter = VecParIter<T>;

    fn into_par_iter(self) -> VecParIter<T> {
        VecParIter { items: self }
    }
}

macro_rules! range_into_par_iter {
    ($($t:ty),*) => {$(
        impl IntoParallelIterator for core::ops::Range<$t> {
            type Item = $t;
            type Iter = VecParIter<$t>;

            fn into_par_iter(self) -> VecParIter<$t> {
                VecParIter { items: self.collect() }
            }
        }
    )*};
}

range_into_par_iter!(usize, u32, u64);

/// Number of worker threads: physical parallelism, capped so tiny inputs
/// don't pay spawn overhead for idle workers. The machine is asked once:
/// `available_parallelism` re-reads the affinity mask and the cgroup
/// quota files on every call, about 19 µs where this was measured, and
/// every `par_map` — a one-item one that then runs inline included —
/// used to ask.
fn num_threads(len: usize) -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    let cores = *CORES
        .get_or_init(|| std::thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(4));
    cores.min(len).max(1)
}

/// Order-preserving parallel map: block-partitions `items` across worker
/// threads and stitches the per-block outputs back together.
fn par_map<T: Send, U: Send, F: Fn(T) -> U + Sync>(items: Vec<T>, f: &F) -> Vec<U> {
    let n = items.len();
    let workers = num_threads(n);
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }
    let chunk = n.div_ceil(workers);
    let mut blocks: Vec<Vec<T>> = Vec::with_capacity(workers);
    let mut items = items;
    while !items.is_empty() {
        let rest = items.split_off(items.len().min(chunk));
        blocks.push(std::mem::replace(&mut items, rest));
    }
    let mut out: Vec<Vec<U>> = Vec::with_capacity(blocks.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = blocks
            .into_iter()
            .map(|block| scope.spawn(move || block.into_iter().map(f).collect::<Vec<U>>()))
            .collect();
        for h in handles {
            out.push(h.join().expect("rayon-shim worker panicked"));
        }
    });
    out.into_iter().flatten().collect()
}

pub mod prelude {
    //! The import surface workspace code uses (`use rayon::prelude::*`).
    pub use crate::{FromParallelIterator, IntoParallelIterator, ParallelIterator};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn map_collect_preserves_order() {
        let squares: Vec<usize> = (0usize..10_000).into_par_iter().map(|x| x * x).collect();
        assert_eq!(squares.len(), 10_000);
        for (i, s) in squares.iter().enumerate() {
            assert_eq!(*s, i * i);
        }
    }

    #[test]
    fn vec_source_and_non_copy_items() {
        let src: Vec<String> = (0..100).map(|i| format!("q{i}")).collect();
        let out: Vec<usize> = src.into_par_iter().map(|s| s.len()).collect();
        assert_eq!(out[0], 2);
        assert_eq!(out[99], 3);
    }

    #[test]
    fn empty_and_single() {
        let empty: Vec<u32> = (0u32..0).into_par_iter().map(|x| x).collect();
        assert!(empty.is_empty());
        let one: Vec<u64> = (5u64..6).into_par_iter().map(|x| x * 2).collect();
        assert_eq!(one, vec![10]);
    }

    #[test]
    fn actually_uses_multiple_threads() {
        if std::thread::available_parallelism().map(|c| c.get()).unwrap_or(1) < 2 {
            return; // single-core machine: nothing to check
        }
        let ids: Vec<std::thread::ThreadId> =
            (0usize..64).into_par_iter().map(|_| std::thread::current().id()).collect();
        let unique: std::collections::HashSet<_> = ids.into_iter().collect();
        assert!(unique.len() > 1, "expected work on >1 thread");
    }
}
