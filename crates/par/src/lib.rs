//! Minimal data-parallel utilities built on [`std::thread::scope`].
//!
//! This crate provides the primitives the rest of `projtile` actually needs,
//! in the data-parallel style the HPC guides recommend (independent work
//! items, no shared mutable state, deterministic output order):
//!
//! * [`par_map`] — apply a function to every element of a slice in parallel,
//!   returning results in input order;
//! * [`par_map_with`] — the same, with the element index passed through and
//!   a per-worker state created once per chunk and threaded through that
//!   chunk's items in order (used for an engine batch's misses, where the
//!   state is a pooled solver context whose warm starts compound along the
//!   chunk);
//! * [`par_reduce`] — parallel map-fold: each worker folds its own chunk and
//!   only the per-chunk partial results are combined on the calling thread;
//! * [`fan_out`] — one real thread per worker index, the concurrent-callers
//!   primitive the chunked ones above run their chunks on.
//!
//! Work is split into contiguous chunks, one per worker thread, which is the
//! right shape for this workspace: every parallel call site (the cold `2^d`
//! subset-enumeration oracle, parameter sweeps over cache sizes, batched
//! cache simulations) has items of comparable cost. The warm subset
//! enumeration is not one: its lattice walk solves few subsets and runs on
//! the calling thread. Inputs smaller than
//! [`PARALLEL_THRESHOLD`] are processed sequentially to avoid paying thread
//! start-up cost on tiny workloads.
//!
//! A panic inside a worker is re-raised on the calling thread with its
//! **original payload** (via [`std::panic::resume_unwind`]), so assertion
//! messages from inside parallel sweeps survive intact. If several workers
//! panic, the payload of the lowest-indexed chunk wins deterministically.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::num::NonZeroUsize;
use std::sync::OnceLock;

/// Inputs shorter than this are processed on the calling thread.
pub const PARALLEL_THRESHOLD: usize = 16;

/// Number of worker threads used by the parallel primitives.
///
/// Respects the `PROJTILE_THREADS` environment variable when set to a positive
/// integer; otherwise uses the machine's available parallelism. The setting is
/// read and parsed **once** per process and cached: later changes to the
/// environment variable have no effect, which keeps concurrently-running
/// callers (and tests) from racing on `set_var`/`remove_var`. An invalid
/// setting (zero, or not an integer) is reported loudly on stderr and ignored.
pub fn num_threads() -> usize {
    static CACHED: OnceLock<usize> = OnceLock::new();
    *CACHED.get_or_init(|| num_threads_from(std::env::var("PROJTILE_THREADS").ok().as_deref()))
}

/// The uncached policy behind [`num_threads`]: resolves an optional
/// `PROJTILE_THREADS` setting to a worker count, warning on invalid values.
fn num_threads_from(setting: Option<&str>) -> usize {
    if let Some(raw) = setting {
        match parse_thread_setting(raw) {
            Ok(n) => return n,
            Err(why) => {
                eprintln!(
                    "projtile-par: ignoring invalid PROJTILE_THREADS={raw:?}: {why}; \
                     using available parallelism"
                );
            }
        }
    }
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Parses a `PROJTILE_THREADS` value: a positive integer, or an error
/// explaining why the setting is unusable.
fn parse_thread_setting(raw: &str) -> Result<usize, &'static str> {
    match raw.trim().parse::<usize>() {
        Ok(0) => Err("thread count must be at least 1"),
        Ok(n) => Ok(n),
        Err(_) => Err("not an unsigned integer"),
    }
}

/// Applies `f` to every element of `items` and collects the results in input
/// order, splitting the work across [`num_threads`] scoped threads.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_with(items, || (), |(), _, item| f(item))
}

/// Like [`par_map`], but `f` also receives the element's index, and each
/// worker owns a mutable state created by `init` once per contiguous chunk
/// and passed to `f` for every item of that chunk, **in index order within
/// the chunk**.
///
/// This is the batched-sweep primitive: when the state is a warm-started LP
/// solver context, consecutive items of a chunk re-enter simplex from the
/// previous item's optimal basis, so warm starts compound along the chunk
/// while chunks stay independent. Results are returned in input order.
///
/// The state is an **accelerator, not an accumulator**: chunk boundaries
/// (and therefore the number of `init` calls) depend on the input length and
/// the thread count, so each item's result must not depend on which items
/// the state has already seen — `f(&mut init(), i, item)` must equal
/// `f(&mut s, i, item)` for a state `s` that already processed any prefix.
/// Warm-started solver contexts guarantee exactly that (canonicalized
/// results are path-independent); a running sum would not.
pub fn par_map_with<T, R, S, I, F>(items: &[T], init: I, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &T) -> R + Sync,
{
    let n = items.len();
    let workers = num_threads().min(n.max(1));
    if n < PARALLEL_THRESHOLD || workers <= 1 {
        let mut state = init();
        return items
            .iter()
            .enumerate()
            .map(|(i, t)| f(&mut state, i, t))
            .collect();
    }
    let chunk_size = n.div_ceil(workers);
    let per_chunk = fan_out(n.div_ceil(chunk_size), |c| {
        let base = c * chunk_size;
        let mut state = init();
        let chunk: &[T] = items.chunks(chunk_size).nth(c).unwrap_or_default();
        chunk
            .iter()
            .enumerate()
            .map(|(i, t)| f(&mut state, base + i, t))
            .collect::<Vec<R>>()
    });
    per_chunk.into_iter().flatten().collect()
}

/// Spawns `workers` scoped threads, each running `f(worker_index)`, and
/// returns the results in worker-index order once all have finished.
///
/// This is the **concurrent-callers** primitive under the data-parallel
/// `par_map` family, which runs one chunk per `fan_out` worker. On its own,
/// `fan_out` models several independent clients hammering a shared resource
/// at once (a `SharedEngine` front, a pool) — exactly the shape of the
/// multi-threaded stress tests and the `engine/concurrent` bench
/// workloads. Always spawns real threads, regardless of
/// [`PARALLEL_THRESHOLD`] and `PROJTILE_THREADS` (a stress test asking for 4
/// workers means 4 threads). A panic in any worker is re-raised on the
/// calling thread with its original payload (lowest worker index wins).
pub fn fan_out<R, F>(workers: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let (results, first_panic) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let f = &f;
                scope.spawn(move || f(w))
            })
            .collect();
        // Join every handle explicitly so a panicking worker surfaces here
        // (as an `Err` carrying its payload) instead of tearing down the
        // scope with a generic "a scoped thread panicked" message.
        let mut results = Vec::with_capacity(workers);
        let mut first_panic = None;
        for handle in handles {
            match handle.join() {
                Ok(r) => results.push(r),
                Err(payload) => {
                    first_panic.get_or_insert(payload);
                }
            }
        }
        (results, first_panic)
    });
    if let Some(payload) = first_panic {
        std::panic::resume_unwind(payload);
    }
    results
}

/// Parallel map-reduce: applies `map` to every element and folds the results
/// with the associative `combine`, starting from `identity`.
///
/// Each worker folds its **own chunk** on its own thread (seeding the fold
/// with its chunk's first mapped value), and only the per-chunk partial
/// results are combined on the calling thread, in chunk-index order. No
/// intermediate `Vec` of mapped values is materialized. `combine` must be
/// associative and `identity` its neutral element; given that, the result
/// equals the sequential left fold, and is deterministic for a fixed thread
/// count because both the intra-chunk folds and the final combine run in
/// index order.
pub fn par_reduce<T, R, M, C>(items: &[T], identity: R, map: M, combine: C) -> R
where
    T: Sync,
    R: Send,
    M: Fn(&T) -> R + Sync,
    C: Fn(R, R) -> R + Sync,
{
    let n = items.len();
    let workers = num_threads().min(n.max(1));
    if n < PARALLEL_THRESHOLD || workers <= 1 {
        return items.iter().fold(identity, |acc, t| combine(acc, map(t)));
    }
    let chunk_size = n.div_ceil(workers);
    // Each chunk's fold is seeded with its first mapped value (every chunk
    // is non-empty); associativity makes this equal to a fold from the
    // identity.
    let partials = fan_out(n.div_ceil(chunk_size), |c| {
        let chunk: &[T] = items.chunks(chunk_size).nth(c).unwrap_or_default();
        chunk.iter().map(&map).reduce(&combine)
    });
    partials.into_iter().flatten().fold(identity, combine)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that read or mutate process-global state (environment
    /// variables): `cargo test` runs tests of one binary concurrently, so
    /// unserialized `set_var`/`remove_var` calls race.
    static ENV_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<u64> = (0..1000).collect();
        let out = par_map(&items, |&x| x * x);
        let expect: Vec<u64> = items.iter().map(|&x| x * x).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn par_map_small_input_sequential_path() {
        let items = vec![1, 2, 3];
        assert_eq!(par_map(&items, |&x| x + 1), vec![2, 3, 4]);
        let empty: Vec<i32> = vec![];
        assert_eq!(par_map(&empty, |&x| x), Vec::<i32>::new());
    }

    #[test]
    fn par_map_with_passes_correct_indices() {
        let items: Vec<u32> = (0..500).map(|i| i * 2).collect();
        let out = par_map_with(&items, || (), |(), i, &x| (i, x));
        for (i, (idx, val)) in out.iter().enumerate() {
            assert_eq!(*idx, i);
            assert_eq!(*val, items[i]);
        }
    }

    #[test]
    fn par_map_with_threads_state_in_chunk_order() {
        // The state records every index it sees; within each chunk the
        // indices must be consecutive and increasing, and the concatenated
        // output must be in global order.
        let items: Vec<u64> = (0..300).collect();
        let out = par_map_with(&items, Vec::new, |seen: &mut Vec<usize>, i, &x| {
            if let Some(&last) = seen.last() {
                assert_eq!(i, last + 1, "chunk items visited out of order");
            }
            seen.push(i);
            (i, x, seen.len())
        });
        for (i, (idx, val, nth)) in out.iter().enumerate() {
            assert_eq!(*idx, i);
            assert_eq!(*val, items[i]);
            // nth-in-chunk restarts at 1 on every chunk boundary.
            assert!(*nth >= 1);
        }
    }

    #[test]
    fn par_map_with_sequential_path_uses_one_state() {
        let items = vec![10u64, 20, 30];
        let out = par_map_with(
            &items,
            || 0u64,
            |acc, _, &x| {
                *acc += x;
                *acc
            },
        );
        assert_eq!(out, vec![10, 30, 60]);
    }

    #[test]
    fn par_reduce_sums() {
        let items: Vec<u64> = (1..=1000).collect();
        let total = par_reduce(&items, 0u64, |&x| x, |a, b| a + b);
        assert_eq!(total, 500_500);
    }

    #[test]
    fn par_reduce_with_non_scalar_accumulator() {
        let items: Vec<u64> = (0..100).collect();
        let maxima = par_reduce(
            &items,
            (0u64, 0u64),
            |&x| (x, x % 7),
            |a, b| (a.0.max(b.0), a.1.max(b.1)),
        );
        assert_eq!(maxima, (99, 6));
    }

    #[test]
    fn par_reduce_matches_sequential_fold() {
        for n in [0usize, 1, 15, 16, 17, 100, 257, 1000] {
            let items: Vec<u64> = (0..n as u64).collect();
            let par = par_reduce(&items, 1u64, |&x| x + 1, |a, b| a.wrapping_mul(b));
            let seq = items.iter().fold(1u64, |acc, &x| acc.wrapping_mul(x + 1));
            assert_eq!(par, seq, "mismatch at n = {n}");
        }
    }

    #[test]
    fn worker_panic_payload_is_preserved() {
        let items: Vec<u64> = (0..200).collect();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            par_map(&items, |&x| {
                assert!(x != 137, "descriptive panic message for item {x}");
                x
            })
        }))
        .expect_err("the sweep must panic");
        let msg = caught
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| caught.downcast_ref::<&str>().map(|s| s.to_string()))
            .expect("panic payload is a message");
        assert!(
            msg.contains("descriptive panic message for item 137"),
            "original payload lost: {msg:?}"
        );
    }

    #[test]
    fn fan_out_runs_every_worker_concurrently() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let peak = AtomicUsize::new(0);
        let live = AtomicUsize::new(0);
        let results = fan_out(4, |w| {
            let now = live.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_millis(20));
            live.fetch_sub(1, Ordering::SeqCst);
            w * 10
        });
        assert_eq!(results, vec![0, 10, 20, 30]);
        // All four workers were alive at once (real threads, no threshold).
        assert_eq!(peak.load(Ordering::SeqCst), 4);
        assert_eq!(fan_out(0, |w| w), Vec::<usize>::new());
    }

    #[test]
    fn fan_out_preserves_panic_payloads() {
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            fan_out(3, |w| {
                assert!(w != 1, "worker {w} panics descriptively");
                w
            })
        }))
        .expect_err("the fan-out must panic");
        let msg = caught
            .downcast_ref::<String>()
            .cloned()
            .expect("panic payload is a message");
        assert!(msg.contains("worker 1 panics descriptively"), "{msg:?}");
    }

    #[test]
    fn num_threads_is_positive_and_stable() {
        let _guard = ENV_LOCK.lock();
        let first = num_threads();
        assert!(first >= 1);
        // Cached: a later (invalid) env setting cannot change the answer.
        std::env::set_var("PROJTILE_THREADS", "0");
        assert_eq!(num_threads(), first);
        std::env::remove_var("PROJTILE_THREADS");
    }

    #[test]
    fn thread_setting_parsing() {
        assert_eq!(parse_thread_setting("1"), Ok(1));
        assert_eq!(parse_thread_setting(" 8 "), Ok(8));
        assert!(parse_thread_setting("0").is_err());
        assert!(parse_thread_setting("-3").is_err());
        assert!(parse_thread_setting("many").is_err());
        assert!(parse_thread_setting("").is_err());
    }

    #[test]
    fn invalid_settings_fall_back_to_machine_parallelism() {
        let fallback = num_threads_from(None);
        assert!(fallback >= 1);
        assert_eq!(num_threads_from(Some("0")), fallback);
        assert_eq!(num_threads_from(Some("garbage")), fallback);
        assert_eq!(num_threads_from(Some("6")), 6);
    }

    #[test]
    fn results_identical_to_sequential_for_various_sizes() {
        for n in [0usize, 1, 15, 16, 17, 100, 257] {
            let items: Vec<usize> = (0..n).collect();
            let par = par_map(&items, |&x| x * 3 + 1);
            let seq: Vec<usize> = items.iter().map(|&x| x * 3 + 1).collect();
            assert_eq!(par, seq, "mismatch at n = {n}");
        }
    }
}
