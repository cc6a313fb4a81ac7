//! Persistent-pool data-parallel helpers.
//!
//! The heavy kernels in this crate (GEMM, direct convolution) are
//! embarrassingly parallel over output rows. Earlier revisions spawned a
//! fresh `crossbeam::scope` per call, which put a thread-creation syscall
//! on every GEMM in the training hot path. This module instead keeps one
//! process-wide pool of parked worker threads and hands each
//! [`parallel_for`] call out as contiguous chunks of the index range —
//! same chunking semantics, same [`set_num_threads`] override, no per-call
//! spawn cost.
//!
//! # Pool design
//!
//! A global queue of jobs feeds `num_threads() - 1` lazily spawned
//! workers; the submitting thread always participates in its own job, so
//! every call makes progress even when all workers are busy (which also
//! makes *nested* `parallel_for` calls deadlock-free: any claimed chunk
//! runs to completion on the thread that claimed it). Workers park on a
//! condvar when the queue is empty. Chunks are claimed with a single
//! atomic increment, and the caller blocks until every chunk of its job
//! has finished, so the closure's borrows stay alive for exactly as long
//! as the pool can touch them. A worker panic is caught, recorded, and
//! re-raised on the submitting thread as `"parallel_for worker
//! panicked"`.
//!
//! Chunk boundaries affect only *which thread* runs an index range, never
//! the arithmetic inside a chunk, so kernels built on this module keep
//! bit-identical results across thread counts (see DESIGN.md, "Threading
//! model").

use parking_lot::Once;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

static THREADS: AtomicUsize = AtomicUsize::new(0);
static INIT: Once = Once::new();

/// Number of worker threads used by [`parallel_for`].
///
/// Defaults to the machine's available parallelism, clamped to 16 (conv
/// workloads here stop scaling beyond that). Override with
/// [`set_num_threads`].
pub fn num_threads() -> usize {
    INIT.call_once(|| {
        let n = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(16);
        THREADS.store(n, Ordering::SeqCst);
    });
    THREADS.load(Ordering::SeqCst).max(1)
}

/// Overrides the worker-thread count (1 = fully sequential). Intended for
/// benchmarking and tests. Takes effect on the next [`parallel_for`]
/// call; already-spawned pool workers are kept parked, never killed.
pub fn set_num_threads(n: usize) {
    INIT.call_once(|| {});
    THREADS.store(n.max(1), Ordering::SeqCst);
}

/// One submitted `parallel_for` call: an erased closure plus chunk
/// bookkeeping. Workers claim chunk indices with a single atomic
/// increment; the last finished chunk wakes the submitting thread.
struct Job {
    /// The caller's closure with its lifetime erased. Sound because the
    /// submitting call frame blocks until `completed == chunks`, keeping
    /// the closure (and everything it borrows) alive while any thread can
    /// still run it.
    body: *const (dyn Fn(usize, usize) + Sync),
    n: usize,
    chunk: usize,
    chunks: usize,
    next: AtomicUsize,
    completed: Mutex<usize>,
    done: Condvar,
    poisoned: AtomicBool,
}

// SAFETY: `body` is only dereferenced between submission and the
// submitter's wakeup (see the field comment), and the pointee is `Sync`.
unsafe impl Send for Job {}
unsafe impl Sync for Job {}

impl Job {
    /// Claims the next unclaimed chunk, or `None` when the job is fully
    /// handed out.
    fn claim(&self) -> Option<(usize, usize)> {
        let t = self.next.fetch_add(1, Ordering::Relaxed);
        if t >= self.chunks {
            return None;
        }
        let start = t * self.chunk;
        let end = ((t + 1) * self.chunk).min(self.n);
        Some((start, end))
    }

    /// Runs one claimed chunk, catching panics so a worker thread never
    /// dies, and wakes the submitter when this was the last chunk.
    fn run_chunk(&self, start: usize, end: usize) {
        // SAFETY: see the `body` field comment — the submitter keeps the
        // closure alive until every chunk has completed.
        let body = unsafe { &*self.body };
        if catch_unwind(AssertUnwindSafe(|| body(start, end))).is_err() {
            self.poisoned.store(true, Ordering::SeqCst);
        }
        let mut completed = self.completed.lock().expect("job lock poisoned");
        *completed += 1;
        if *completed == self.chunks {
            self.done.notify_all();
        }
    }
}

struct Pool {
    queue: Mutex<VecDeque<Arc<Job>>>,
    work: Condvar,
    spawned: Mutex<usize>,
}

static POOL: OnceLock<Pool> = OnceLock::new();

fn pool() -> &'static Pool {
    POOL.get_or_init(|| Pool {
        queue: Mutex::new(VecDeque::new()),
        work: Condvar::new(),
        spawned: Mutex::new(0),
    })
}

/// Grows the pool to `target` parked workers (never shrinks — idle
/// workers cost one parked thread each).
fn ensure_workers(pool: &'static Pool, target: usize) {
    let mut spawned = pool.spawned.lock().expect("pool lock poisoned");
    while *spawned < target {
        std::thread::Builder::new()
            .name(format!("sesr-par-{spawned}"))
            .spawn(move || worker_loop(pool))
            .expect("failed to spawn parallel_for worker");
        *spawned += 1;
    }
}

fn worker_loop(pool: &'static Pool) {
    loop {
        let job = {
            let mut q = pool.queue.lock().expect("pool lock poisoned");
            loop {
                // Drop jobs whose chunks are all claimed; their claimants
                // finish them.
                while q
                    .front()
                    .is_some_and(|j| j.next.load(Ordering::Relaxed) >= j.chunks)
                {
                    q.pop_front();
                }
                if let Some(j) = q.front() {
                    break Arc::clone(j);
                }
                q = pool.work.wait(q).expect("pool lock poisoned");
            }
        };
        while let Some((start, end)) = job.claim() {
            job.run_chunk(start, end);
        }
    }
}

/// Runs `body(start, end)` over disjoint chunks of `0..n` in parallel.
///
/// The closure receives half-open chunk bounds. Chunks never overlap, so the
/// typical pattern is to have each invocation write a disjoint slice of a
/// shared output buffer obtained via `split_at_mut` logic inside the caller;
/// this helper instead hands out index ranges and lets the caller index
/// thread-safely (e.g. through raw pointers wrapped in a `SendPtr`).
///
/// Falls back to a single sequential call when `n` is small or only one
/// thread is configured. Nested calls are allowed (the submitting thread
/// participates in its own job, so progress never depends on a free
/// worker).
///
/// # Panics
///
/// Panics with `"parallel_for worker panicked"` if `body` panicked on any
/// chunk (including chunks run by the submitting thread itself).
pub fn parallel_for(n: usize, min_chunk: usize, body: impl Fn(usize, usize) + Sync) {
    let threads = num_threads();
    if threads <= 1 || n <= min_chunk {
        body(0, n);
        return;
    }
    let chunks = threads.min(n.div_ceil(min_chunk.max(1)));
    let chunk = n.div_ceil(chunks);
    // Recompute so the final chunk is never empty.
    let chunks = n.div_ceil(chunk);
    if chunks <= 1 {
        body(0, n);
        return;
    }

    let pool = pool();
    ensure_workers(pool, threads - 1);

    let body_ref: &(dyn Fn(usize, usize) + Sync) = &body;
    // SAFETY: erases the borrow's lifetime. This frame blocks below until
    // `completed == chunks`, so no thread touches `body` after it returns.
    let body_ptr: *const (dyn Fn(usize, usize) + Sync) = unsafe { std::mem::transmute(body_ref) };
    let job = Arc::new(Job {
        body: body_ptr,
        n,
        chunk,
        chunks,
        next: AtomicUsize::new(0),
        completed: Mutex::new(0),
        done: Condvar::new(),
        poisoned: AtomicBool::new(false),
    });

    {
        let mut q = pool.queue.lock().expect("pool lock poisoned");
        q.push_back(Arc::clone(&job));
    }
    pool.work.notify_all();

    // Participate: the submitter claims chunks like any worker, so the job
    // completes even if every pool worker is busy elsewhere.
    while let Some((start, end)) = job.claim() {
        job.run_chunk(start, end);
    }
    let mut completed = job.completed.lock().expect("job lock poisoned");
    while *completed < job.chunks {
        completed = job.done.wait(completed).expect("job lock poisoned");
    }
    drop(completed);
    assert!(
        !job.poisoned.load(Ordering::SeqCst),
        "parallel_for worker panicked"
    );
}

/// A `Send`/`Sync` wrapper around a raw mutable pointer, used to let
/// disjoint chunks of one output buffer be written from multiple threads.
/// Generic over the element (`f32` unless named), so the f32 and int8
/// planned executors share one wrapper.
///
/// # Safety contract
///
/// Callers must guarantee that concurrent users write disjoint index
/// ranges. [`parallel_for`] hands out disjoint ranges, so pairing the two is
/// safe by construction.
#[derive(Clone, Copy)]
pub struct SendPtr<T = f32>(pub *mut T);

// SAFETY: the one field is a pointer into a buffer that outlives every
// use; `SendPtr` is only used with `parallel_for`, whose chunks index
// disjoint regions of it. Other threads write and read `T` through it,
// hence the `Send + Sync` bound on the element.
unsafe impl<T: Send + Sync> Send for SendPtr<T> {}
// SAFETY: as for `Send`.
unsafe impl<T: Send + Sync> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// Writes `value` at `offset`.
    ///
    /// # Safety
    ///
    /// `offset` must be in bounds for the allocation and not concurrently
    /// written by another thread.
    #[inline]
    pub unsafe fn write(&self, offset: usize, value: T) {
        // SAFETY: bounds and non-aliasing are the caller's contract (see
        // above).
        unsafe { *self.0.add(offset) = value };
    }

    /// Reborrows `offset..offset + len` of the pointee as a mutable
    /// slice (e.g. one batch image's slab of a shared output buffer).
    ///
    /// # Safety
    ///
    /// The range must be in bounds for the allocation and not aliased by
    /// any other live reference or concurrent access for the slice's
    /// lifetime. The caller also chooses `'a`: the slice must not outlive
    /// the buffer the pointer was taken from.
    #[inline]
    pub unsafe fn slice_mut<'a>(self, offset: usize, len: usize) -> &'a mut [T] {
        // SAFETY: range validity, non-aliasing, and the lifetime bound are
        // the caller's contract (see above).
        unsafe { std::slice::from_raw_parts_mut(self.0.add(offset), len) }
    }

    /// Reborrows `offset..offset + len` of the pointee as a shared slice.
    ///
    /// # Safety
    ///
    /// As [`SendPtr::slice_mut`], except that other shared readers may
    /// coexist: the range must not be written for the slice's lifetime.
    #[inline]
    pub unsafe fn slice<'a>(self, offset: usize, len: usize) -> &'a [T] {
        // SAFETY: range validity, absence of writers, and the lifetime
        // bound are the caller's contract (see above).
        unsafe { std::slice::from_raw_parts(self.0.add(offset), len) }
    }
}

impl<T: std::ops::AddAssign> SendPtr<T> {
    /// Adds `value` at `offset`.
    ///
    /// # Safety
    ///
    /// Same contract as [`SendPtr::write`].
    #[inline]
    pub unsafe fn add_assign(&self, offset: usize, value: T) {
        // SAFETY: bounds and non-aliasing are the caller's contract (see
        // above).
        unsafe { *self.0.add(offset) += value };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Serializes tests that touch the global thread count, pinning it to
    /// `n` for the duration of `f` (the machine running the tests may
    /// report a single core, which would otherwise skip the pool path).
    fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
        static LOCK: Mutex<()> = Mutex::new(());
        let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let before = num_threads();
        set_num_threads(n);
        let out = f();
        set_num_threads(before);
        out
    }

    #[test]
    fn covers_full_range_once() {
        let sum = AtomicU64::new(0);
        parallel_for(1000, 10, |s, e| {
            let local: u64 = (s..e).map(|i| i as u64).sum();
            sum.fetch_add(local, Ordering::SeqCst);
        });
        assert_eq!(sum.load(Ordering::SeqCst), 999 * 1000 / 2);
    }

    #[test]
    fn small_ranges_run_sequentially() {
        let sum = AtomicU64::new(0);
        parallel_for(3, 100, |s, e| {
            assert_eq!((s, e), (0, 3));
            sum.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(sum.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn min_chunk_larger_than_n_is_one_sequential_call() {
        let calls = AtomicU64::new(0);
        parallel_for(7, 8, |s, e| {
            assert_eq!((s, e), (0, 7));
            calls.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(calls.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn zero_items_is_a_noop_call() {
        parallel_for(0, 1, |s, e| assert_eq!(s, e));
    }

    #[test]
    fn thread_count_is_positive() {
        assert!(num_threads() >= 1);
    }

    #[test]
    fn pool_survives_many_calls() {
        // Exercises job-queue reuse: every call must complete and cover
        // its range exactly once, long after the first spawn.
        with_threads(4, || {
            for round in 0..200u64 {
                let sum = AtomicU64::new(0);
                parallel_for(64, 1, |s, e| {
                    sum.fetch_add((e - s) as u64, Ordering::SeqCst);
                });
                assert_eq!(sum.load(Ordering::SeqCst), 64, "round {round}");
            }
        });
    }

    #[test]
    fn nested_parallel_for_completes() {
        with_threads(4, || {
            let sum = AtomicU64::new(0);
            parallel_for(8, 1, |s, e| {
                for _ in s..e {
                    parallel_for(16, 1, |s2, e2| {
                        sum.fetch_add((e2 - s2) as u64, Ordering::SeqCst);
                    });
                }
            });
            assert_eq!(sum.load(Ordering::SeqCst), 8 * 16);
        });
    }

    #[test]
    fn concurrent_submissions_all_complete() {
        // The serve engine submits kernels from several request workers at
        // once; every overlapping job must still cover its own range.
        with_threads(4, || {
            std::thread::scope(|scope| {
                for _ in 0..4 {
                    scope.spawn(|| {
                        for _ in 0..50 {
                            let sum = AtomicU64::new(0);
                            parallel_for(128, 1, |s, e| {
                                sum.fetch_add((e - s) as u64, Ordering::SeqCst);
                            });
                            assert_eq!(sum.load(Ordering::SeqCst), 128);
                        }
                    });
                }
            });
        });
    }

    #[test]
    fn single_thread_override_mid_run_applies_to_next_call() {
        with_threads(4, || {
            let seen = AtomicU64::new(0);
            parallel_for(64, 1, |s, e| {
                // Flip to sequential from inside a running job: the
                // current job is unaffected, the next call must be one
                // chunk.
                set_num_threads(1);
                seen.fetch_add((e - s) as u64, Ordering::SeqCst);
            });
            assert_eq!(seen.load(Ordering::SeqCst), 64);
            let calls = AtomicU64::new(0);
            parallel_for(64, 1, |s, e| {
                assert_eq!((s, e), (0, 64));
                calls.fetch_add(1, Ordering::SeqCst);
            });
            assert_eq!(calls.load(Ordering::SeqCst), 1);
        });
    }

    #[test]
    fn body_panic_is_propagated_to_the_submitter() {
        let caught = with_threads(4, || {
            std::panic::catch_unwind(|| {
                parallel_for(64, 1, |s, _| {
                    if s >= 8 {
                        panic!("injected chunk failure");
                    }
                });
            })
        });
        let payload = caught.expect_err("the panic must propagate");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .map(String::from)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("parallel_for worker panicked"), "{msg}");
    }

    #[test]
    fn sendptr_disjoint_writes() {
        let mut buf = vec![0.0f32; 64];
        let ptr = SendPtr(buf.as_mut_ptr());
        parallel_for(64, 4, |s, e| {
            for i in s..e {
                // SAFETY: ranges are disjoint per parallel_for contract.
                unsafe { ptr.write(i, i as f32) };
            }
        });
        assert_eq!(buf[63], 63.0);
        assert_eq!(buf[0], 0.0);
        assert_eq!(buf[10], 10.0);
    }
}
