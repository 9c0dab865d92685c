//! Minimal deterministic fork/join parallelism for the `cppll` kernels.
//!
//! The workspace builds offline, so no rayon/crossbeam: this crate is a
//! small hand-rolled layer over [`std::thread::scope`] that the SDP solver
//! and the dense kernels use for their hot loops.
//!
//! # Determinism contract
//!
//! Every entry point here is *bit-deterministic in the thread count*: the
//! result of a call with `threads = 1` and `threads = N` is identical down
//! to the last floating-point bit. That holds because work items are pure
//! functions of their index (no shared accumulator is ever updated from a
//! worker), and all reductions happen on the calling thread in a fixed
//! index order after the workers join. The SDP solver's attempt logs are
//! required to be byte-identical across `--threads` settings; this contract
//! is what makes that possible.
//!
//! # Thread-count resolution
//!
//! A process-wide default is kept in an atomic ([`set_threads`] /
//! [`current_threads`]), initialised from the machine's available
//! parallelism on first read. Call sites that need an explicit override
//! (tests comparing 1-thread and N-thread runs side by side) pass a
//! resolved count instead of touching the global.
//!
//! # Nesting
//!
//! There is at most one level of fork/join. While an executor (the calling
//! thread draining the queue, or a worker) runs a job, its thread is marked
//! as inside a parallel region, and every entry point called from inside a
//! region resolves to one thread and runs inline ([`resolve_threads`]
//! returns 1). A sweep that fans cells out over two threads therefore
//! solves each cell's SDP single-threaded on the executor that picked the
//! cell up, instead of spawning a fresh OS thread for every kernel call of
//! every interior-point iteration. The determinism contract makes this
//! invisible in the results. The marker is restored by a drop guard, so a
//! panic caught above a region never leaves a thread stuck in serial mode.
//!
//! # Spawn-failure degradation
//!
//! Work is split into index-determined chunks and pulled from a shared
//! queue by up to `threads` executors: the calling thread plus scoped
//! workers. A failed worker spawn (the OS can transiently refuse with
//! `EAGAIN`, for instance when other processes hold many threads) is never
//! fatal — the calling thread always participates, so execution degrades
//! toward serial instead of panicking. Which executor runs a chunk never
//! affects the result: chunk boundaries and output placement are functions
//! of the index alone.
//!
//! # Examples
//!
//! ```
//! // Square the numbers 0..8 on however many workers are configured.
//! let squares = cppll_par::parallel_map(8, 0, |i| (i * i) as u64);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! ```

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Process-wide default worker count; 0 means "not yet resolved".
static DEFAULT_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Sets the process-wide default worker count (the CLI's `--threads` flag).
///
/// A value of 0 resets to "auto" (the machine's available parallelism).
pub fn set_threads(n: usize) {
    DEFAULT_THREADS.store(n, Ordering::Relaxed);
}

/// The process-wide default worker count: the last [`set_threads`] value,
/// or the machine's available parallelism when none has been set.
pub fn current_threads() -> usize {
    match DEFAULT_THREADS.load(Ordering::Relaxed) {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    }
}

thread_local! {
    /// Whether this thread is an executor of a running fork/join region.
    static IN_REGION: Cell<bool> = const { Cell::new(false) };
}

/// Marks the current thread as inside a region until dropped, then restores
/// the previous marker — also when a job unwinds.
struct RegionGuard(bool);

impl RegionGuard {
    fn enter() -> Self {
        RegionGuard(IN_REGION.with(|r| r.replace(true)))
    }
}

impl Drop for RegionGuard {
    fn drop(&mut self) {
        IN_REGION.with(|r| r.set(self.0));
    }
}

/// Resolves a call-site thread request to the thread count a fork/join
/// made here actually runs with: 1 inside a parallel region (see the
/// module's "Nesting" section), otherwise `requested`, where 0 means "use
/// the process default".
pub fn resolve_threads(requested: usize) -> usize {
    if IN_REGION.with(Cell::get) {
        1
    } else if requested == 0 {
        current_threads()
    } else {
        requested
    }
}

/// Below this many items a fork/join is pure overhead; run serially.
const MIN_ITEMS_PER_FORK: usize = 2;

/// Runs `jobs` on up to `executors` threads: the caller plus at most
/// `executors - 1` scoped workers draining a shared queue, each marked as
/// inside a region while it drains. Each job is an index-determined chunk,
/// so which executor runs it cannot affect the result. Worker spawns that
/// the OS refuses are ignored — the caller always drains the queue, so the
/// call completes (serially in the worst case) rather than panicking on a
/// transient `EAGAIN`.
///
/// Panics from `run` propagate: the calling thread re-raises directly, and
/// [`std::thread::scope`] re-raises worker panics when the scope closes.
fn run_jobs<J, F>(jobs: Vec<J>, executors: usize, run: F)
where
    J: Send,
    F: Fn(J) + Sync,
{
    let queue = std::sync::Mutex::new(jobs);
    let drain = |queue: &std::sync::Mutex<Vec<J>>| {
        let _region = RegionGuard::enter();
        loop {
            let job = {
                let mut q = queue.lock().unwrap_or_else(|e| e.into_inner());
                q.pop()
            };
            match job {
                Some(j) => run(j),
                None => break,
            }
        }
    };
    std::thread::scope(|scope| {
        for _ in 1..executors {
            let _ = std::thread::Builder::new().spawn_scoped(scope, || drain(&queue));
        }
        drain(&queue);
    });
}

/// Maps `f` over `0..n`, returning results in index order.
///
/// `threads = 0` uses the process default ([`current_threads`]); `1`, a
/// small `n` or a call from inside a parallel region runs serially on the
/// calling thread. The items are split into at most `threads` contiguous
/// chunks, each computed by one executor, and concatenated in chunk order —
/// so the output is bit-identical for every thread count.
pub fn parallel_map<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = resolve_threads(threads).min(n.max(1));
    if threads <= 1 || n < MIN_ITEMS_PER_FORK {
        return (0..n).map(f).collect();
    }
    // Contiguous ceil-split chunks; each job fills its own slice of the
    // output, so placement depends only on the index, never the executor.
    let chunk = n.div_ceil(threads);
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    let mut jobs: Vec<(usize, &mut [Option<T>])> = Vec::with_capacity(threads);
    {
        let mut rest = slots.as_mut_slice();
        let mut lo = 0;
        while !rest.is_empty() {
            let take = chunk.min(rest.len());
            let (head, tail) = rest.split_at_mut(take);
            jobs.push((lo, head));
            lo += take;
            rest = tail;
        }
    }
    let f = &f;
    run_jobs(jobs, threads, |(lo, out): (usize, &mut [Option<T>])| {
        for (k, slot) in out.iter_mut().enumerate() {
            *slot = Some(f(lo + k));
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("cppll-par: chunk left an item uncomputed"))
        .collect()
}

/// Applies `f` to disjoint contiguous chunks of `items` in parallel, giving
/// each invocation the chunk's starting index. Mutations stay within each
/// worker's chunk, so this is race-free by construction and deterministic
/// whenever `f` is (no cross-chunk reduction exists to reorder).
pub fn parallel_chunks_mut<T, F>(items: &mut [T], threads: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let n = items.len();
    let threads = resolve_threads(threads).min(n.max(1));
    if threads <= 1 || n < MIN_ITEMS_PER_FORK {
        f(0, items);
        return;
    }
    let chunk = n.div_ceil(threads);
    let mut jobs: Vec<(usize, &mut [T])> = Vec::with_capacity(threads);
    let mut rest = items;
    let mut offset = 0;
    while !rest.is_empty() {
        let take = chunk.min(rest.len());
        let (head, tail) = rest.split_at_mut(take);
        jobs.push((offset, head));
        offset += take;
        rest = tail;
    }
    let f = &f;
    run_jobs(jobs, threads, |(lo, head): (usize, &mut [T])| f(lo, head));
}

/// Splits `items` into consecutive chunks of exactly `chunk_len` elements
/// (the final chunk may be short) and applies `f(chunk_index, chunk)` to
/// each in parallel. This is the "fill a preallocated workspace" analogue
/// of [`parallel_map`]: the caller owns one flat buffer partitioned into
/// fixed-size slots — per-constraint Schur scratch matrices, per-column
/// factor panels — and each worker writes only its own slots.
///
/// Chunk boundaries depend only on `chunk_len`, never on `threads`, so the
/// writes `f` performs are bit-identical for every thread count whenever
/// `f` itself is deterministic in `(chunk_index, chunk)`.
///
/// # Panics
///
/// Panics if `chunk_len == 0` while `items` is non-empty.
pub fn parallel_fill_chunks<T, F>(items: &mut [T], chunk_len: usize, threads: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    if items.is_empty() {
        return;
    }
    assert!(chunk_len > 0, "chunk_len must be positive");
    let nchunks = items.len().div_ceil(chunk_len);
    let threads = resolve_threads(threads).min(nchunks);
    let f = &f;
    if threads <= 1 || nchunks < MIN_ITEMS_PER_FORK {
        for (idx, chunk) in items.chunks_mut(chunk_len).enumerate() {
            f(idx, chunk);
        }
        return;
    }
    // Each job is a contiguous run of whole chunks.
    let per_worker = nchunks.div_ceil(threads);
    let mut jobs: Vec<(usize, &mut [T])> = Vec::with_capacity(threads);
    let mut rest = items;
    let mut next_chunk = 0;
    while !rest.is_empty() {
        let take = (per_worker * chunk_len).min(rest.len());
        let (head, tail) = rest.split_at_mut(take);
        jobs.push((next_chunk, head));
        next_chunk += per_worker;
        rest = tail;
    }
    run_jobs(jobs, threads, |(first, head): (usize, &mut [T])| {
        for (k, chunk) in head.chunks_mut(chunk_len).enumerate() {
            f(first + k, chunk);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_index_order() {
        for threads in [1, 2, 3, 7] {
            let got = parallel_map(23, threads, |i| 3 * i + 1);
            let want: Vec<_> = (0..23).map(|i| 3 * i + 1).collect();
            assert_eq!(got, want, "threads={threads}");
        }
    }

    #[test]
    fn map_handles_degenerate_sizes() {
        assert!(parallel_map(0, 4, |i| i).is_empty());
        assert_eq!(parallel_map(1, 4, |i| i), vec![0]);
        // More threads than items.
        assert_eq!(parallel_map(2, 16, |i| i), vec![0, 1]);
    }

    #[test]
    fn map_is_bit_deterministic_across_thread_counts() {
        // A float reduction per item whose value depends on summation order
        // *within* the item only — across items there is no shared state.
        let work = |i: usize| {
            let mut acc = 0.0f64;
            for k in 1..100 {
                acc += 1.0 / ((i * 100 + k) as f64);
            }
            acc
        };
        let serial = parallel_map(64, 1, work);
        for threads in [2, 3, 5, 8] {
            let par = parallel_map(64, threads, work);
            assert_eq!(serial.len(), par.len());
            for (a, b) in serial.iter().zip(&par) {
                assert_eq!(a.to_bits(), b.to_bits(), "threads={threads}");
            }
        }
    }

    #[test]
    fn chunks_mut_touches_every_item_once() {
        for threads in [1, 2, 5] {
            let mut items: Vec<usize> = vec![0; 17];
            parallel_chunks_mut(&mut items, threads, |lo, chunk| {
                for (k, it) in chunk.iter_mut().enumerate() {
                    *it += lo + k + 1;
                }
            });
            let want: Vec<usize> = (1..=17).collect();
            assert_eq!(items, want, "threads={threads}");
        }
    }

    #[test]
    fn fill_chunks_visits_every_chunk_once() {
        for threads in [1, 2, 3, 8] {
            // 3 full chunks of 4 plus a short tail of 2.
            let mut items = vec![0usize; 14];
            parallel_fill_chunks(&mut items, 4, threads, |idx, chunk| {
                for (k, it) in chunk.iter_mut().enumerate() {
                    *it = idx * 100 + k;
                }
            });
            let want: Vec<usize> = (0..14).map(|i| (i / 4) * 100 + i % 4).collect();
            assert_eq!(items, want, "threads={threads}");
        }
    }

    #[test]
    fn fill_chunks_handles_degenerate_sizes() {
        let mut empty: Vec<u8> = Vec::new();
        parallel_fill_chunks(&mut empty, 0, 4, |_, _| unreachable!());
        let mut one = vec![0u8; 3];
        parallel_fill_chunks(&mut one, 16, 4, |idx, chunk| {
            assert_eq!((idx, chunk.len()), (0, 3));
            chunk.fill(7);
        });
        assert_eq!(one, vec![7, 7, 7]);
    }

    fn in_region() -> bool {
        IN_REGION.with(Cell::get)
    }

    #[test]
    fn nested_map_runs_inline_on_the_outer_executor() {
        let got = parallel_map(4, 2, |_| {
            assert!(in_region());
            assert_eq!(resolve_threads(2), 1);
            let outer = std::thread::current().id();
            let inner = parallel_map(8, 2, |_| std::thread::current().id());
            (outer, inner)
        });
        for (outer, inner) in got {
            assert_eq!(inner.len(), 8);
            assert!(inner.iter().all(|id| *id == outer));
        }
    }

    #[test]
    fn region_marker_clears_after_the_outer_call() {
        assert!(!in_region());
        let mut items = vec![0u8; 6];
        parallel_chunks_mut(&mut items, 2, |_, _| assert!(in_region()));
        parallel_fill_chunks(&mut items, 2, 2, |_, _| assert!(in_region()));
        let _ = parallel_map(4, 2, |i| i);
        assert!(!in_region());
        assert_eq!(resolve_threads(2), 2);
    }

    #[test]
    fn region_marker_clears_after_a_caught_panic() {
        // Every item panics, so the calling thread unwinds out of its own
        // job as well as re-raising the worker's panic.
        let caught = std::panic::catch_unwind(|| {
            parallel_map(4, 2, |i| -> usize { panic!("item {i}") })
        });
        assert!(caught.is_err());
        assert!(!in_region());
        assert_eq!(resolve_threads(2), 2);
    }

    #[test]
    fn thread_default_resolution() {
        assert!(current_threads() >= 1);
        assert_eq!(resolve_threads(3), 3);
        assert!(resolve_threads(0) >= 1);
    }
}
