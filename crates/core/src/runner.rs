//! Work-claiming parallel execution over in-memory items.
//!
//! [`parallel_map`] distributes a slice over a fixed pool of scoped worker threads.
//! Unlike the channel-fed pool it replaces (which pushed every index through an
//! unbounded MPMC channel and collected results behind one big mutex), scheduling here
//! is a single atomic counter: workers *claim* contiguous chunks of the input with one
//! `fetch_add` each and publish each chunk's results into its own pre-allocated
//! [`OnceLock`] cell — disjoint output slots, no per-item lock, no per-item channel
//! hop.  Chunks are small multiples of the item count per thread, so a slow item only
//! delays its own chunk while idle workers keep claiming the rest (the work-stealing
//! effect without per-worker deques).
//!
//! Results are reassembled in chunk order, so the output preserves the input order
//! exactly, regardless of thread count or timing.  Everything runs on scoped threads:
//! the closure may borrow from the caller and no work outlives the call.
//!
//! The experiment harness (`ipsketch-bench`) schedules on this runner.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// How many items each claimed chunk holds: small enough that stragglers rebalance,
/// large enough that the atomic claim amortizes away.
const CHUNKS_PER_THREAD: usize = 8;

/// Maps `f` over `items` in parallel, preserving the input order of the results.
///
/// `threads = 0` (or 1, or a single item) degrades gracefully to a sequential map.
pub fn parallel_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send + Sync,
    F: Fn(&T) -> R + Sync,
{
    if items.is_empty() {
        return Vec::new();
    }
    let threads = threads.clamp(1, items.len());
    if threads == 1 {
        return items.iter().map(&f).collect();
    }

    let chunk_len = items
        .len()
        .div_ceil(threads * CHUNKS_PER_THREAD)
        .clamp(1, items.len());
    let chunks = items.len().div_ceil(chunk_len);
    let cells: Vec<OnceLock<Vec<R>>> = (0..chunks).map(|_| OnceLock::new()).collect();
    let next_chunk = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let chunk = next_chunk.fetch_add(1, Ordering::Relaxed);
                if chunk >= chunks {
                    break;
                }
                let start = chunk * chunk_len;
                let end = (start + chunk_len).min(items.len());
                let results: Vec<R> = items[start..end].iter().map(&f).collect();
                // Each chunk index is claimed by exactly one worker, so the cell is
                // always vacant; `set` cannot fail.
                cells[chunk]
                    .set(results)
                    .unwrap_or_else(|_| unreachable!("chunk {chunk} claimed twice"));
            });
        }
    });

    cells
        .into_iter()
        .flat_map(|cell| {
            cell.into_inner()
                .expect("every chunk index below the claim counter was processed")
        })
        .collect()
}

/// The number of worker threads to use by default.
///
/// Honors the `IPSKETCH_THREADS` environment variable when set: a positive integer
/// pins the thread count exactly (no cap — large machines can use every core), and
/// `0` selects automatic sizing.  Unset, empty, or unparsable values also select
/// automatic sizing: the available parallelism capped at 8, so default experiment runs
/// stay polite on shared machines.
#[must_use]
pub fn default_threads() -> usize {
    match std::env::var("IPSKETCH_THREADS") {
        Ok(value) => match value.trim().parse::<usize>() {
            Ok(n) if n > 0 => n,
            _ => auto_threads(),
        },
        Err(_) => auto_threads(),
    }
}

fn auto_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .min(8)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_input() {
        let out: Vec<i32> = parallel_map(&[] as &[i32], 4, |x| *x);
        assert!(out.is_empty());
    }

    #[test]
    fn preserves_order_sequential_and_parallel() {
        let items: Vec<u64> = (0..200).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * x).collect();
        assert_eq!(parallel_map(&items, 1, |x| x * x), expected);
        assert_eq!(parallel_map(&items, 4, |x| x * x), expected);
        assert_eq!(parallel_map(&items, 0, |x| x * x), expected);
        assert_eq!(parallel_map(&items, 1000, |x| x * x), expected);
    }

    #[test]
    fn preserves_order_under_skewed_workloads() {
        // Early items are much slower than late ones, so chunks finish wildly out of
        // claim order; the reassembled output must still be in input order.
        let items: Vec<u64> = (0..97).collect();
        let expected: Vec<u64> = items.iter().map(|x| x + 1).collect();
        let out = parallel_map(&items, 5, |&x| {
            if x < 8 {
                std::thread::sleep(std::time::Duration::from_millis(3));
            }
            x + 1
        });
        assert_eq!(out, expected);
    }

    #[test]
    fn chunk_boundaries_cover_non_divisible_lengths() {
        // Lengths around the chunking arithmetic's edges: primes, one item, exactly one
        // chunk, one more than a chunk multiple.
        for len in [1usize, 2, 3, 7, 31, 32, 33, 64, 65, 127] {
            let items: Vec<usize> = (0..len).collect();
            let out = parallel_map(&items, 3, |&x| x * 2 + 1);
            assert_eq!(out, items.iter().map(|x| x * 2 + 1).collect::<Vec<_>>());
        }
    }

    #[test]
    fn closure_may_borrow_from_caller() {
        let offset = 10u64;
        let items: Vec<u64> = (0..50).collect();
        let out = parallel_map(&items, 4, |x| x + offset);
        assert_eq!(out[49], 59);
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }
}
