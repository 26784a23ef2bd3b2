//! Persistent element scheduler: runs per-element loops of the dycore
//! pipeline across host cores with zero steady-state heap allocation.
//!
//! The ISSUE sketch suggested crossbeam scoped threads, but spawning a
//! scope per loop allocates (thread stacks, join handles) on every step —
//! incompatible with the zero-allocation contract on `Dycore::step`. So
//! the pool here is spawned once and reused: each `run` publishes the job
//! closure as a raw pointer under a mutex, bumps an epoch, and wakes the
//! workers; items are claimed in chunks off a shared atomic cursor
//! (work-stealing by self-scheduling — an idle worker keeps pulling
//! chunks until the cursor runs dry). `run` returns only after every
//! worker has finished, which is what makes the raw-pointer publication
//! sound.
//!
//! Determinism: every item is executed exactly once and jobs write only
//! item-indexed (disjoint) outputs, so results are bitwise independent of
//! thread count and chunk interleaving. DSS stays serial and is the
//! synchronization point between parallel phases.

use std::cell::UnsafeCell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Type-erased job: `(worker_id, item_index)`.
type Job = *const (dyn Fn(usize, usize) + Sync);

struct JobSlot {
    job: Option<Job>,
    nitems: usize,
    chunk: usize,
    /// Bumped once per `run`; workers use it to detect new work.
    epoch: u64,
    /// Helper workers that have not yet finished the current epoch.
    remaining: usize,
    shutdown: bool,
}

// The raw job pointer is only dereferenced between publication and the
// `remaining == 0` handshake, during which `run` keeps the referent alive.
unsafe impl Send for JobSlot {}

struct Shared {
    slot: Mutex<JobSlot>,
    start: Condvar,
    done: Condvar,
    cursor: AtomicUsize,
}

/// Persistent worker pool for per-element loops. The calling thread
/// participates as worker 0; `nthreads - 1` helper threads are spawned
/// once at construction.
pub struct ElemScheduler {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    nthreads: usize,
}

fn work_loop(job: &(dyn Fn(usize, usize) + Sync), nitems: usize, chunk: usize, cursor: &AtomicUsize, worker: usize) {
    loop {
        let start = cursor.fetch_add(chunk, Ordering::Relaxed);
        if start >= nitems {
            return;
        }
        let end = (start + chunk).min(nitems);
        for i in start..end {
            job(worker, i);
        }
    }
}

impl ElemScheduler {
    /// Pool with `nthreads` total workers (including the caller);
    /// `nthreads == 0` or `1` means serial execution with no helper
    /// threads.
    pub fn new(nthreads: usize) -> Self {
        let nthreads = nthreads.max(1);
        let shared = Arc::new(Shared {
            slot: Mutex::new(JobSlot {
                job: None,
                nitems: 0,
                chunk: 1,
                epoch: 0,
                remaining: 0,
                shutdown: false,
            }),
            start: Condvar::new(),
            done: Condvar::new(),
            cursor: AtomicUsize::new(0),
        });
        let workers = (1..nthreads)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("swcam-elem-{w}"))
                    .spawn(move || Self::worker_main(&shared, w))
                    .expect("spawn element worker")
            })
            .collect();
        ElemScheduler { shared, workers, nthreads }
    }

    /// Thread count from `SWCAM_THREADS` if set, else the machine's
    /// available parallelism.
    pub fn with_default_threads() -> Self {
        let n = std::env::var("SWCAM_THREADS")
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
            .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1));
        Self::new(n)
    }

    /// Total workers, including the calling thread.
    #[inline]
    pub fn nthreads(&self) -> usize {
        self.nthreads
    }

    fn worker_main(shared: &Shared, worker: usize) {
        let mut seen_epoch = 0u64;
        loop {
            let (job, nitems, chunk);
            {
                let mut slot = shared.slot.lock().unwrap_or_else(|p| p.into_inner());
                while !slot.shutdown && slot.epoch == seen_epoch {
                    slot = shared.start.wait(slot).unwrap_or_else(|p| p.into_inner());
                }
                if slot.shutdown {
                    return;
                }
                seen_epoch = slot.epoch;
                job = slot.job.expect("job published with epoch bump");
                nitems = slot.nitems;
                chunk = slot.chunk;
            }
            // Sound: `run` blocks until this worker reports done below.
            work_loop(unsafe { &*job }, nitems, chunk, &shared.cursor, worker);
            let mut slot = shared.slot.lock().unwrap_or_else(|p| p.into_inner());
            slot.remaining -= 1;
            if slot.remaining == 0 {
                shared.done.notify_one();
            }
        }
    }

    /// Execute `job(worker_id, i)` for every `i in 0..nitems` across the
    /// pool, returning when all items are done. Allocation-free after
    /// construction. `worker_id < nthreads()` identifies which worker
    /// runs the item (for per-worker scratch); item-to-worker assignment
    /// is nondeterministic, so jobs must write only item-indexed outputs.
    pub fn run(&self, nitems: usize, job: &(dyn Fn(usize, usize) + Sync)) {
        if self.workers.is_empty() || nitems <= 1 {
            for i in 0..nitems {
                job(0, i);
            }
            return;
        }
        // Chunked self-scheduling: a few chunks per worker balances load
        // without hammering the cursor.
        let chunk = (nitems / (self.nthreads * 4)).max(1);
        self.shared.cursor.store(0, Ordering::SeqCst);
        {
            let mut slot = self.shared.slot.lock().unwrap_or_else(|p| p.into_inner());
            // Erase the borrow lifetime for the published pointer. Sound:
            // `run` does not return until `remaining` hits zero, i.e. every
            // worker has finished dereferencing it for this epoch, and the
            // pointer is cleared before return.
            slot.job = Some(unsafe {
                std::mem::transmute::<*const (dyn Fn(usize, usize) + Sync + '_), Job>(
                    job as *const _,
                )
            });
            slot.nitems = nitems;
            slot.chunk = chunk;
            slot.epoch += 1;
            slot.remaining = self.workers.len();
            self.shared.start.notify_all();
        }
        work_loop(job, nitems, chunk, &self.shared.cursor, 0);
        let mut slot = self.shared.slot.lock().unwrap_or_else(|p| p.into_inner());
        while slot.remaining > 0 {
            slot = self.shared.done.wait(slot).unwrap_or_else(|p| p.into_inner());
        }
        slot.job = None;
    }
}

impl Drop for ElemScheduler {
    fn drop(&mut self) {
        {
            let mut slot = self.shared.slot.lock().unwrap_or_else(|p| p.into_inner());
            slot.shutdown = true;
            self.shared.start.notify_all();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl std::fmt::Debug for ElemScheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ElemScheduler").field("nthreads", &self.nthreads).finish()
    }
}

/// One scratch slot per worker, accessed mutably without locking. The
/// scheduler guarantees a worker id is live on at most one thread at a
/// time, which is what makes [`PerWorker::get`] sound.
pub struct PerWorker<T> {
    slots: Vec<UnsafeCell<T>>,
}

// Each slot is touched by one thread at a time (scheduler invariant).
unsafe impl<T: Send> Sync for PerWorker<T> {}

impl<T> PerWorker<T> {
    pub fn new(n: usize, mut make: impl FnMut() -> T) -> Self {
        PerWorker { slots: (0..n.max(1)).map(|_| UnsafeCell::new(make())).collect() }
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Scratch for `worker`.
    ///
    /// # Safety
    /// At most one live reference per worker id at a time — guaranteed
    /// when `worker` is the id passed to a scheduler job and each job
    /// only touches its own slot.
    #[inline]
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn get(&self, worker: usize) -> &mut T {
        &mut *self.slots[worker].get()
    }

    /// Safe access from serial code.
    #[inline]
    pub fn get_mut(&mut self, worker: usize) -> &mut T {
        self.slots[worker].get_mut()
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for PerWorker<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PerWorker").field("len", &self.slots.len()).finish()
    }
}

/// Shared-mutable view of a flat arena (an `f64` field arena by default,
/// or a `V4F64` member-lane tile arena) for handing disjoint per-element
/// windows to scheduler jobs.
#[derive(Copy, Clone)]
pub struct ArenaMut<'a, T = f64> {
    ptr: *mut T,
    len: usize,
    _marker: PhantomData<&'a mut [T]>,
}

unsafe impl<T: Send> Send for ArenaMut<'_, T> {}
unsafe impl<T: Sync> Sync for ArenaMut<'_, T> {}

impl<'a, T> ArenaMut<'a, T> {
    pub fn new(buf: &'a mut [T]) -> Self {
        ArenaMut { ptr: buf.as_mut_ptr(), len: buf.len(), _marker: PhantomData }
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Window `[start, start + len)` of the arena.
    ///
    /// # Safety
    /// Windows sliced concurrently must be pairwise disjoint (the
    /// per-element ranges of the dycore loops are).
    #[inline]
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn slice(&self, start: usize, len: usize) -> &'a mut [T] {
        debug_assert!(start + len <= self.len);
        std::slice::from_raw_parts_mut(self.ptr.add(start), len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn covers_every_item_exactly_once() {
        let sched = ElemScheduler::new(4);
        let n = 1000;
        let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        sched.run(n, &|_w, i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn repeated_runs_reuse_the_pool() {
        let sched = ElemScheduler::new(3);
        let mut out = vec![0.0f64; 64];
        for round in 0..50 {
            let arena = ArenaMut::new(&mut out);
            sched.run(64, &|_w, i| {
                let s = unsafe { arena.slice(i, 1) };
                s[0] = (round * 64 + i) as f64;
            });
            assert_eq!(out[63], (round * 64 + 63) as f64);
        }
    }

    #[test]
    fn results_match_serial_for_any_thread_count() {
        let n = 257;
        let mut want = vec![0.0f64; n];
        for (i, w) in want.iter_mut().enumerate() {
            *w = (i as f64).sin();
        }
        for threads in [1, 2, 5, 8] {
            let sched = ElemScheduler::new(threads);
            let mut got = vec![0.0f64; n];
            let arena = ArenaMut::new(&mut got);
            sched.run(n, &|_w, i| {
                let s = unsafe { arena.slice(i, 1) };
                s[0] = (i as f64).sin();
            });
            assert_eq!(got, want, "threads={threads}");
        }
    }

    #[test]
    fn per_worker_scratch_is_private() {
        let sched = ElemScheduler::new(4);
        let scratch = PerWorker::new(sched.nthreads(), || vec![0u64; 1]);
        let n = 500;
        sched.run(n, &|w, _i| {
            let s = unsafe { scratch.get(w) };
            s[0] += 1;
        });
        let mut scratch = scratch;
        let total: u64 = (0..scratch.len()).map(|w| scratch.get_mut(w)[0]).sum();
        assert_eq!(total, n as u64);
    }

    #[test]
    fn zero_and_one_item_runs() {
        let sched = ElemScheduler::new(2);
        let count = AtomicU64::new(0);
        sched.run(0, &|_w, _i| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 0);
        sched.run(1, &|_w, i| {
            count.fetch_add(i as u64 + 1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 1);
    }
}
