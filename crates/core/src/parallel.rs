//! Deterministic parallel execution of embarrassingly-parallel loops.
//!
//! Attack campaigns and MBPTA measurement protocols repeat independent
//! trials — Prime+Probe rounds, Bernstein sampling nodes, per-key-byte
//! correlation sweeps, per-run execution-time collection. This module
//! fans such loops out over OS threads while keeping results
//! **bit-reproducible regardless of thread count**: work is split by
//! index, each index computes a pure function (callers derive a
//! per-index `SplitMix64` stream instead of sharing one RNG), and
//! results are returned in index order.
//!
//! Two schedulers back [`par_map_indexed`]:
//!
//! * with the `rayon` cargo feature (on by default), a **work-stealing
//!   range scheduler**: each worker owns a contiguous index range,
//!   claims grains from its front, and — once empty — steals the back
//!   half of the fullest remaining range. Heterogeneous trial costs
//!   (contended vs solo campaigns, deep vs shallow hierarchies) no
//!   longer leave workers idle behind one slow fixed chunk;
//! * without it (`--no-default-features`), the original fixed-chunk
//!   static split.
//!
//! Both schedulers place each result by its index, so the output — and
//! any seed derivation keyed on the index — is identical whichever
//! worker computes it, in whatever order.
//!
//! Worker panics are **isolated**: a panicking index can no longer
//! poison the fan-out. [`try_par_map_indexed`] and [`try_join`] surface
//! the first panic (lowest index) as a typed [`WorkerPanic`]; the
//! panicking variants re-raise it with a clean message. After a panic,
//! workers skip every index above the lowest panicking index seen so
//! far instead of running the loop to completion; lower indices still
//! run, so the reported index is the lowest one that panics under any
//! scheduling.
//!
//! The thread count honours `RAYON_NUM_THREADS` (the convention users
//! of rayon-based tools expect) and `TSCACHE_THREADS`, falling back to
//! the machine's available parallelism.

use std::any::Any;
use std::env;
use std::error::Error;
use std::fmt;
use std::num::NonZeroUsize;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

/// The worker-thread count used by [`par_map_indexed`].
///
/// Resolution order: `RAYON_NUM_THREADS`, then `TSCACHE_THREADS`, then
/// [`std::thread::available_parallelism`]. Values of 0 or unparsable
/// strings fall through to the next source.
pub fn thread_count() -> usize {
    for var in ["RAYON_NUM_THREADS", "TSCACHE_THREADS"] {
        if let Ok(v) = env::var(var) {
            if let Ok(n) = v.trim().parse::<usize>() {
                if n > 0 {
                    return n;
                }
            }
        }
    }
    thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1)
}

/// A worker closure panicked during a parallel fan-out.
///
/// Carries the index whose computation panicked (the lowest such index
/// when several workers fail in the same fan-out, so the error itself
/// is deterministic) and the stringified panic payload. Campaign
/// executors use this to distinguish "this shard's computation
/// crashed" (retryable) from a bad configuration (a
/// [`ConfigError`](crate::error::ConfigError), never retried).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerPanic {
    /// The loop index whose closure panicked (for [`try_join`]: 0 for
    /// the first closure, 1 for the second).
    pub index: usize,
    /// The panic payload, stringified.
    pub message: String,
}

impl fmt::Display for WorkerPanic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "worker panicked at index {}: {}", self.index, self.message)
    }
}

impl Error for WorkerPanic {}

/// Extracts the human-readable message from a caught panic payload
/// (`&str` or `String` payloads; anything else gets a placeholder).
/// Public so campaign executors doing their own `catch_unwind` report
/// panics the same way this module does.
pub fn payload_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs `f(i)` with panic isolation.
fn run_isolated<T, F: Fn(usize) -> T>(f: &F, i: usize) -> Result<T, WorkerPanic> {
    panic::catch_unwind(AssertUnwindSafe(|| f(i)))
        .map_err(|p| WorkerPanic { index: i, message: payload_message(p.as_ref()) })
}

/// Records the panic with the lowest index (deterministic winner) and
/// lowers the skip bound `lowest` to its index.
fn record_panic(slot: &Mutex<Option<WorkerPanic>>, lowest: &AtomicUsize, e: WorkerPanic) {
    lowest.fetch_min(e.index, Ordering::Relaxed);
    let mut guard = slot.lock().unwrap();
    match &*guard {
        Some(prev) if prev.index <= e.index => {}
        _ => *guard = Some(e),
    }
}

/// One worker's index range; the front is claimed by the owner, the
/// back stolen by idle workers. A `Mutex` rather than lock-free
/// atomics: claims happen once per *grain* (tens to thousands of
/// indices), so contention is negligible next to the work itself.
struct RangeQueue {
    span: Mutex<(usize, usize)>,
}

impl RangeQueue {
    fn new(lo: usize, hi: usize) -> Self {
        RangeQueue { span: Mutex::new((lo, hi)) }
    }

    /// Claims up to `grain` indices from the front.
    fn pop_front(&self, grain: usize) -> Option<(usize, usize)> {
        let mut g = self.span.lock().unwrap();
        if g.0 >= g.1 {
            return None;
        }
        let lo = g.0;
        let hi = (lo + grain).min(g.1);
        g.0 = hi;
        Some((lo, hi))
    }

    /// Indices still queued.
    #[cfg(feature = "rayon")]
    fn remaining(&self) -> usize {
        let g = self.span.lock().unwrap();
        g.1 - g.0
    }

    /// Steals the back half of the range (work-stealing).
    #[cfg(feature = "rayon")]
    fn steal_back(&self) -> Option<(usize, usize)> {
        let mut g = self.span.lock().unwrap();
        let len = g.1 - g.0;
        if len == 0 {
            return None;
        }
        let take = len.div_ceil(2);
        let hi = g.1;
        g.1 -= take;
        Some((g.1, hi))
    }
}

/// Finds the fullest victim queue and steals from it. Compiled out
/// without the `rayon` feature (fixed-chunk static split).
#[cfg(feature = "rayon")]
fn steal(queues: &[RangeQueue], me: usize) -> Option<(usize, usize)> {
    loop {
        let victim = queues
            .iter()
            .enumerate()
            .filter(|(t, _)| *t != me)
            .map(|(t, q)| (q.remaining(), t))
            .max()?;
        if victim.0 == 0 {
            return None;
        }
        // The victim may drain between the scan and the steal; retry
        // until a steal lands or everyone is empty.
        if let Some(block) = queues[victim.1].steal_back() {
            return Some(block);
        }
    }
}

#[cfg(not(feature = "rayon"))]
fn steal(_queues: &[RangeQueue], _me: usize) -> Option<(usize, usize)> {
    None
}

/// Maps `f` over `0..n` in parallel, returning results in index order,
/// or the first (lowest-index) [`WorkerPanic`] if any index's closure
/// panicked.
///
/// `f` must be a pure function of its index (derive any randomness
/// from the index, e.g. `SplitMix64::new(mix64(master ^ i as u64))`);
/// the output is then identical for every thread count **and every
/// scheduler** — the work-stealing and fixed-chunk paths agree
/// bit-for-bit, including 1 worker.
///
/// On `Err`, the results of the non-panicking indices are discarded:
/// a deterministic caller re-runs the whole fan-out (or, like the
/// fleet executor, retries at shard granularity instead).
///
/// # Examples
///
/// ```
/// use tscache_core::parallel::try_par_map_indexed;
///
/// let squares = try_par_map_indexed(4, |i| (i * i) as u64).unwrap();
/// assert_eq!(squares, vec![0, 1, 4, 9]);
///
/// let err = try_par_map_indexed(4, |i| {
///     if i == 2 {
///         panic!("boom");
///     }
///     i
/// })
/// .unwrap_err();
/// assert_eq!(err.index, 2);
/// assert_eq!(err.message, "boom");
/// ```
pub fn try_par_map_indexed<T, F>(n: usize, f: F) -> Result<Vec<T>, WorkerPanic>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = thread_count().min(n.max(1));
    if threads <= 1 || n <= 1 {
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            out.push(run_isolated(&f, i)?);
        }
        return Ok(out);
    }

    // Per-worker initial ranges: the same contiguous split as the old
    // fixed-chunk scheduler; stealing only redistributes who *computes*
    // an index, never which index feeds which result slot.
    let chunk = n.div_ceil(threads);
    let queues: Vec<RangeQueue> = (0..threads)
        .map(|t| RangeQueue::new((t * chunk).min(n), ((t + 1) * chunk).min(n)))
        .collect();
    let grain = (chunk / 8).clamp(1, 1024);
    // The lowest panicking index so far (`usize::MAX`: none). Indices
    // above it cannot change the reported panic, so workers skip them.
    // `Relaxed` suffices: the bound publishes no other data (the panic
    // itself goes through `panic_slot`'s mutex), it only decreases, and
    // a stale load only runs an index that could have been skipped.
    let lowest = AtomicUsize::new(usize::MAX);
    let panic_slot: Mutex<Option<WorkerPanic>> = Mutex::new(None);

    let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
    let parts = thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let f = &f;
                let queues = &queues;
                let lowest = &lowest;
                let panic_slot = &panic_slot;
                scope.spawn(move || {
                    let mut local: Vec<(usize, T)> = Vec::new();
                    loop {
                        let block = match queues[t].pop_front(grain) {
                            Some(b) => b,
                            None => match steal(queues, t) {
                                Some(b) => b,
                                None => break,
                            },
                        };
                        // A block's indices ascend: once one is above
                        // the lowest panic, the rest are too.
                        for i in block.0..block.1 {
                            if i > lowest.load(Ordering::Relaxed) {
                                break;
                            }
                            match run_isolated(f, i) {
                                Ok(v) => local.push((i, v)),
                                Err(e) => {
                                    record_panic(panic_slot, lowest, e);
                                    break;
                                }
                            }
                        }
                    }
                    local
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect::<Vec<_>>()
    });

    for part in parts {
        match part {
            Ok(pairs) => {
                for (i, v) in pairs {
                    out[i] = Some(v);
                }
            }
            // The worker harness itself panicked (not the closure —
            // that is caught inside): still a typed error.
            Err(p) => record_panic(
                &panic_slot,
                &lowest,
                WorkerPanic { index: usize::MAX, message: payload_message(p.as_ref()) },
            ),
        }
    }
    if let Some(e) = panic_slot.into_inner().unwrap() {
        return Err(e);
    }
    Ok(out.into_iter().map(|s| s.expect("worker filled every slot")).collect())
}

/// Maps `f` over `0..n` in parallel, returning results in index order.
///
/// Infallible wrapper over [`try_par_map_indexed`]: a worker panic is
/// re-raised on the calling thread with a clean `WorkerPanic` message
/// instead of poisoning the thread scope.
///
/// # Examples
///
/// ```
/// use tscache_core::parallel::par_map_indexed;
///
/// let squares = par_map_indexed(8, |i| (i * i) as u64);
/// assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
/// ```
pub fn par_map_indexed<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    match try_par_map_indexed(n, f) {
        Ok(v) => v,
        Err(e) => panic!("{e}"),
    }
}

/// Runs two independent closures, in parallel when more than one
/// worker thread is configured; a panic in either surfaces as a typed
/// [`WorkerPanic`] (index 0 = first closure, 1 = second; if both
/// panic, the first wins deterministically).
pub fn try_join<A, B, RA, RB>(a: A, b: B) -> Result<(RA, RB), WorkerPanic>
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    fn catch<T>(i: usize, r: thread::Result<T>) -> Result<T, WorkerPanic> {
        r.map_err(|p| WorkerPanic { index: i, message: payload_message(p.as_ref()) })
    }
    if thread_count() <= 1 {
        let ra = catch(0, panic::catch_unwind(AssertUnwindSafe(a)))?;
        let rb = catch(1, panic::catch_unwind(AssertUnwindSafe(b)))?;
        return Ok((ra, rb));
    }
    let (ra, rb) = thread::scope(|scope| {
        let handle = scope.spawn(|| panic::catch_unwind(AssertUnwindSafe(b)));
        let ra = panic::catch_unwind(AssertUnwindSafe(a));
        (ra, handle.join().expect("join-worker harness panicked"))
    });
    Ok((catch(0, ra)?, catch(1, rb)?))
}

/// Runs two independent closures, in parallel when more than one
/// worker thread is configured, and returns both results.
///
/// Infallible wrapper over [`try_join`]; panics with a clean
/// [`WorkerPanic`] message if either closure panicked.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    match try_join(a, b) {
        Ok(pair) => pair,
        Err(e) => panic!("{e}"),
    }
}

/// A drained permutation of `0..n`: the order in which a work-stealing
/// run with `workers` hypothetical workers *could* complete indices.
/// Used by robustness tests to prove completion order cannot reach
/// results; callers wanting real scheduling jitter use the pool above.
pub fn scrambled_indices(n: usize, seed: u64) -> Vec<usize> {
    use crate::prng::{mix64, Prng, SplitMix64};
    let mut order: Vec<usize> = (0..n).collect();
    let mut rng = SplitMix64::new(mix64(seed ^ 0x5c4a_3b1e));
    // Fisher–Yates with the deterministic stream.
    for i in (1..n).rev() {
        let j = rng.below(i as u32 + 1) as usize;
        order.swap(i, j);
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prng::{mix64, Prng, SplitMix64};

    #[test]
    fn results_are_in_index_order() {
        let v = par_map_indexed(100, |i| i);
        assert_eq!(v, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single_inputs() {
        assert_eq!(par_map_indexed(0, |i| i), Vec::<usize>::new());
        assert_eq!(par_map_indexed(1, |i| i + 7), vec![7]);
    }

    #[test]
    fn per_index_streams_are_thread_count_independent() {
        // Not a real test of concurrency (the container may have one
        // core); asserts the contract: same per-index derivation, same
        // output vector.
        let run = || par_map_indexed(64, |i| SplitMix64::new(mix64(0xabc ^ i as u64)).next_u64());
        assert_eq!(run(), run());
    }

    #[test]
    fn uneven_work_completes_and_stays_ordered() {
        // Heterogeneous per-index cost: the work-stealing path must
        // still produce index-ordered results.
        let v = par_map_indexed(257, |i| {
            let spin = if i % 31 == 0 { 20_000 } else { 10 };
            let mut acc = i as u64;
            for k in 0..spin {
                acc = acc.wrapping_mul(0x9e37_79b9).wrapping_add(k);
            }
            std::hint::black_box(acc);
            i
        });
        assert_eq!(v, (0..257).collect::<Vec<_>>());
    }

    #[test]
    fn worker_panic_surfaces_as_typed_error() {
        let err = try_par_map_indexed(64, |i| {
            if i == 13 {
                panic!("injected fault at {i}");
            }
            i
        })
        .unwrap_err();
        assert_eq!(err.index, 13);
        assert!(err.message.contains("injected fault"));
        assert!(err.to_string().contains("index 13"));
    }

    #[test]
    fn lowest_panicking_index_wins() {
        // Every index panics; the reported index must be 0 regardless
        // of scheduling (the deterministic-winner rule). Repeated: a
        // worker that panics first on a higher range must not keep
        // index 0 from running, whichever interleaving occurs.
        for _ in 0..200 {
            let err = try_par_map_indexed(32, |i| -> usize { panic!("fault {i}") }).unwrap_err();
            assert_eq!(err.index, 0);
        }
    }

    #[test]
    fn panicking_wrapper_raises_clean_message() {
        let caught = std::panic::catch_unwind(|| {
            par_map_indexed(8, |i| if i == 3 { panic!("shard died") } else { i })
        })
        .unwrap_err();
        let msg = payload_message(caught.as_ref());
        assert!(msg.contains("index 3") && msg.contains("shard died"), "got: {msg}");
    }

    #[test]
    fn fan_out_survives_panic_and_reruns_clean() {
        // The poisoning regression: after a panicked fan-out, the next
        // fan-out on the same thread must work normally.
        let _ = try_par_map_indexed(16, |i| -> usize {
            if i == 5 {
                panic!("first run dies")
            } else {
                i
            }
        });
        assert_eq!(par_map_indexed(16, |i| i * 2), (0..16).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn join_returns_both() {
        let (a, b) = join(|| 1 + 1, || "x".to_string());
        assert_eq!(a, 2);
        assert_eq!(b, "x");
    }

    #[test]
    fn try_join_reports_panicking_side() {
        let err = try_join(|| 1, || -> u32 { panic!("right side died") }).unwrap_err();
        assert_eq!(err.index, 1);
        assert!(err.message.contains("right side died"));
        let err = try_join(|| -> u32 { panic!("left") }, || 2).unwrap_err();
        assert_eq!(err.index, 0);
    }

    #[test]
    fn scrambled_indices_is_a_permutation() {
        let order = scrambled_indices(100, 7);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_eq!(order, scrambled_indices(100, 7));
        assert_ne!(order, scrambled_indices(100, 8));
    }

    #[test]
    fn thread_count_is_positive() {
        assert!(thread_count() >= 1);
    }
}
