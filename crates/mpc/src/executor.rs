//! Host-side parallel execution: the thread pool that makes the
//! simulator scale with the hardware.
//!
//! Everything in this crate *accounts* parallelism exactly (rounds
//! max-compose across machine groups); this module is how the host
//! *executes* it on more than one thread. A [`WorkerPool`] is a fixed
//! set of OS threads spawned once and joined when the pool is dropped.
//! Its public surface is one **scoped work-stealing primitive**,
//! [`WorkerPool::steal_each`]: lanes claim the next unclaimed element
//! from a shared atomic counter, and the *calling* thread participates
//! too, so a scope always makes progress even when every lane is busy
//! with an outer scope (nested scopes cannot deadlock). A scope
//! returns only when all its tasks have finished, so tasks borrow the
//! caller's data; a task panic is re-raised on the calling thread
//! after the rest have run.
//!
//! It has one caller and one grain, the **per-maintainer fan-out**:
//! the Session engine (in `mpc-stream-core`) lends each selected
//! maintainer, with a forked accounting context, to one `steal_each`
//! element per chunk or `ask_all`; the forks' event logs are replayed
//! serially afterwards, so the charged rounds/words stay bit-identical
//! to serial execution (see `MpcContext::fork_for_branch`). Inside a
//! branch every maintainer is single-threaded, and the worker count is
//! set in one place, `Session::with_workers` / `set_workers`; `1`
//! means serial execution with no threads at all.

#![expect(
    unsafe_code,
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "the executor is the workspace's one home for threads, locks and unsafe"
)]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// A boxed unit of work for the pool: one lane's share of a scope.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// A fixed-size pool of worker threads with a shared job queue.
///
/// Threads are spawned once at construction and joined when the pool
/// is dropped — no thread outlives its pool. Scopes enqueue helper
/// jobs that idle workers claim in FIFO order; a task that panics
/// poisons neither the queue nor its worker (the panic is contained,
/// reported to its scope, and the lane keeps serving).
///
/// # Examples
///
/// ```
/// use mpc_sim::executor::WorkerPool;
///
/// let pool = WorkerPool::new(2);
/// let mut items: Vec<u64> = (0..100).collect();
/// pool.steal_each(&mut items, |x| *x += 1);
/// assert_eq!(items, (1..=100).collect::<Vec<u64>>());
/// // Dropping the pool joins both threads.
/// drop(pool);
/// ```
pub struct WorkerPool {
    sender: Option<Sender<Job>>,
    handles: Vec<JoinHandle<()>>,
    lanes: usize,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("lanes", &self.lanes)
            .finish()
    }
}

impl WorkerPool {
    /// Spawns a pool of `lanes` worker threads (at least 1).
    #[expect(
        clippy::expect_used,
        reason = "a pool that cannot start its threads has no recovery"
    )]
    pub fn new(lanes: usize) -> Self {
        let lanes = lanes.max(1);
        let (sender, receiver) = channel::<Job>();
        let receiver = Arc::new(Mutex::new(receiver));
        let handles = (0..lanes)
            .map(|i| {
                let receiver = Arc::clone(&receiver);
                std::thread::Builder::new()
                    .name(format!("mpc-worker-{i}"))
                    .spawn(move || worker_loop(&receiver))
                    .expect("spawn mpc worker thread")
            })
            .collect();
        WorkerPool {
            sender: Some(sender),
            handles,
            lanes,
        }
    }

    /// Number of worker threads.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Enqueues a scope helper for the next idle worker.
    #[expect(
        clippy::expect_used,
        reason = "the sender and the workers live until the pool is dropped"
    )]
    fn execute(&self, job: Job) {
        self.sender
            .as_ref()
            .expect("pool sender lives until drop")
            .send(job)
            .expect("workers live until the pool is dropped");
    }

    /// Runs `f(i)` exactly once for every `i in 0..n`, self-scheduling
    /// indices over the pool's idle lanes **and** the calling thread.
    ///
    /// This is the work-stealing primitive for disjoint task sets:
    /// each lane repeatedly claims the next unclaimed index from a
    /// shared counter, so an uneven workload balances itself. The
    /// calling thread participates and the call only returns when all
    /// `n` tasks have finished, which makes nested scopes safe — a
    /// scope opened from inside a pool job still completes even if no
    /// other lane ever becomes free.
    ///
    /// # Panics
    ///
    /// Re-raises (as a new panic) if any task panicked; remaining
    /// tasks still run, and the pool stays usable.
    #[expect(
        clippy::panic,
        reason = "documented \"# Panics\" contract — a lane's panic is re-raised on the caller"
    )]
    fn scope_indices<F>(&self, n: usize, f: F)
    where
        F: Fn(usize) + Sync,
    {
        if n == 0 {
            return;
        }
        let scope = Arc::new(ScopeState::new(n));
        // Erase the closure's lifetime so helper jobs can carry it
        // through the 'static queue.
        let f_ref: &(dyn Fn(usize) + Sync) = &f;
        // SAFETY: the erased reference never outlives `f`. This
        // function does not return until `scope.wait()` has seen every
        // claimed index complete, and a helper that arrives after the
        // scope is exhausted finds the claim counter spent and never
        // touches `f`; `F: Sync` makes the sharing across lanes sound.
        let f_static: &'static (dyn Fn(usize) + Sync) =
            unsafe { std::mem::transmute::<_, &'static (dyn Fn(usize) + Sync)>(f_ref) };
        let helpers = self.lanes.min(n.saturating_sub(1));
        for _ in 0..helpers {
            let scope = Arc::clone(&scope);
            self.execute(Box::new(move || scope.run(f_static)));
        }
        scope.run(f_static);
        scope.wait();
        if scope.panicked.load(Ordering::Acquire) {
            panic!("a worker lane panicked inside a parallel scope");
        }
    }

    /// Applies `f` to every element of `items`, stealing elements
    /// across the pool lanes and the calling thread. Each element is
    /// claimed by exactly one lane, so the `&mut` accesses are
    /// disjoint.
    ///
    /// # Panics
    ///
    /// Re-raises (as a new panic) if any task panicked; remaining
    /// tasks still run, and the pool stays usable.
    pub fn steal_each<T, F>(&self, items: &mut [T], f: F)
    where
        T: Send,
        F: Fn(&mut T) + Sync,
    {
        // Debug builds audit the disjointness claim the SAFETY
        // argument below rests on: every element claimed exactly once.
        #[cfg(debug_assertions)]
        let claims: Vec<AtomicUsize> = (0..items.len()).map(|_| AtomicUsize::new(0)).collect();
        let base = items.as_mut_ptr() as usize;
        self.scope_indices(items.len(), |i| {
            #[cfg(debug_assertions)]
            claims[i].fetch_add(1, Ordering::Relaxed);
            // SAFETY: every index in 0..len is claimed exactly once
            // (atomic counter), so no two lanes alias an element, and
            // the slice outlives the scope (scope_indices blocks).
            let item = unsafe { &mut *(base as *mut T).add(i) };
            f(item);
        });
        #[expect(
            clippy::disallowed_macros,
            reason = "a debug_assert!, which clippy reads as the assert! it expands to"
        )]
        #[cfg(debug_assertions)]
        for (i, c) in claims.iter().enumerate() {
            let n = c.load(Ordering::Relaxed);
            debug_assert_eq!(
                n, 1,
                "steal_each element {i} claimed {n} times — lanes aliased"
            );
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the channel ends every worker loop; then join.
        drop(self.sender.take());
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

#[expect(
    clippy::expect_used,
    reason = "poison-free by construction: jobs run outside the lock"
)]
fn worker_loop(receiver: &Mutex<Receiver<Job>>) {
    loop {
        let job = {
            let guard = receiver.lock().expect("job queue lock");
            guard.recv()
        };
        match job {
            Ok(job) => {
                // Contain panics: a poisoned job must not take its
                // lane down with it (scopes track panics themselves).
                let _ = catch_unwind(AssertUnwindSafe(job));
            }
            Err(_) => return, // pool dropped
        }
    }
}

/// Shared state of one work-stealing scope.
struct ScopeState {
    next: AtomicUsize,
    done: AtomicUsize,
    n: usize,
    panicked: AtomicBool,
    lock: Mutex<()>,
    cv: Condvar,
}

impl ScopeState {
    fn new(n: usize) -> Self {
        ScopeState {
            next: AtomicUsize::new(0),
            done: AtomicUsize::new(0),
            n,
            panicked: AtomicBool::new(false),
            lock: Mutex::new(()),
            cv: Condvar::new(),
        }
    }

    #[expect(
        clippy::expect_used,
        reason = "poison-free by construction: lane panics are caught before the lock"
    )]
    fn run(&self, f: &(dyn Fn(usize) + Sync)) {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.n {
                return;
            }
            if catch_unwind(AssertUnwindSafe(|| f(i))).is_err() {
                self.panicked.store(true, Ordering::Release);
            }
            if self.done.fetch_add(1, Ordering::AcqRel) + 1 == self.n {
                // Poison-free by construction: lane panics are caught before the lock.
                let _guard = self.lock.lock().expect("scope lock");
                self.cv.notify_all();
            }
        }
    }

    #[expect(
        clippy::expect_used,
        reason = "poison-free by construction: lane panics are caught before the lock"
    )]
    fn wait(&self) {
        // Poison-free by construction: lane panics are caught before the lock.
        let mut guard = self.lock.lock().expect("scope lock");
        while self.done.load(Ordering::Acquire) < self.n {
            guard = self.cv.wait(guard).expect("scope condvar");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn scope_runs_every_index_exactly_once() {
        let pool = WorkerPool::new(4);
        let marks: Vec<AtomicUsize> = (0..1000).map(|_| AtomicUsize::new(0)).collect();
        pool.scope_indices(marks.len(), |i| {
            marks[i].fetch_add(1, Ordering::Relaxed);
        });
        for m in &marks {
            assert_eq!(m.load(Ordering::Relaxed), 1);
        }
    }

    #[test]
    fn steal_each_gives_disjoint_mutable_access() {
        let pool = WorkerPool::new(3);
        let mut items: Vec<u64> = (0..500).collect();
        pool.steal_each(&mut items, |x| *x = *x * 2 + 1);
        for (i, &x) in items.iter().enumerate() {
            assert_eq!(x, i as u64 * 2 + 1);
        }
    }

    #[test]
    fn nested_scopes_complete_without_deadlock() {
        let pool = WorkerPool::new(2);
        let total = AtomicU64::new(0);
        pool.scope_indices(8, |_| {
            // Inner scope opened while the outer occupies the lanes:
            // the claiming thread drives it to completion itself.
            pool.scope_indices(8, |j| {
                total.fetch_add(j as u64, Ordering::Relaxed);
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), 8 * 28);
    }

    #[test]
    fn drop_joins_all_threads() {
        let pool = WorkerPool::new(3);
        let (tx, rx) = channel();
        for _ in 0..3 {
            let tx = tx.clone();
            pool.execute(Box::new(move || {
                tx.send(std::thread::current().id()).unwrap();
            }));
        }
        drop(tx);
        let ids: Vec<_> = rx.iter().collect();
        assert_eq!(ids.len(), 3);
        // Drop blocks until every worker thread has exited.
        drop(pool);
    }

    #[test]
    fn scope_survives_a_panicking_task_and_reports_it() {
        let pool = WorkerPool::new(2);
        let ran = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.scope_indices(16, |i| {
                ran.fetch_add(1, Ordering::Relaxed);
                assert!(i != 7, "induced failure");
            });
        }));
        assert!(result.is_err(), "the scope re-raises the task panic");
        assert_eq!(ran.load(Ordering::Relaxed), 16, "remaining tasks ran");
        // The pool is still serviceable after the panic.
        let after = AtomicUsize::new(0);
        pool.scope_indices(4, |_| {
            after.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(after.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn single_lane_pool_is_still_correct() {
        let pool = WorkerPool::new(1);
        let mut items = vec![0u32; 64];
        pool.steal_each(&mut items, |x| *x += 1);
        assert!(items.iter().all(|&x| x == 1));
    }
}
