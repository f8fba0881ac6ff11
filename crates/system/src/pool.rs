//! Work-stealing execution primitives, shared by the experiment
//! matrix driver (`fade-bench`) and the `faded` monitoring service
//! (`fade-service`).
//!
//! Two shapes of the same scheduling idea — workers claim the next
//! undone piece of work, so a slow piece never stalls its siblings:
//!
//! * [`run_indexed`] — the *static* shape: a known, fixed number of
//!   independent tasks, fanned out over scoped worker threads, results
//!   returned **in index order** regardless of which worker ran what.
//!   This is the scheduler core `fade_bench::ExperimentMatrix` runs on.
//! * [`WorkerPool`] — the *dynamic* shape: a long-lived fixed pool of
//!   worker threads draining a shared job queue, for callers (the
//!   `faded` daemon) whose work arrives over time rather than as a
//!   batch. Jobs are panic-isolated: a panicking job is swallowed at
//!   the job boundary and its worker lives on to claim the next job.
//!
//! Neither shape imposes ordering between concurrent pieces of work;
//! determinism is the *caller's* property (every task must derive its
//! results from its own inputs, never from placement), which is exactly
//! the contract the matrix's determinism-under-sharding tests pin.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Runs `f(0..n)` across up to `workers` scoped threads with a
/// work-stealing claim index, returning the results **in index order**.
///
/// The worker count is clamped to `1..=n` (a single worker degrades to
/// a plain sequential loop — same results by construction). `f` runs
/// concurrently from several threads and must be `Sync`.
///
/// # Panics
///
/// If `f` itself panics the panic propagates out of the scope and tears
/// the whole call down. Callers that want per-task isolation wrap their
/// task body in [`std::panic::catch_unwind`] and return the outcome as
/// a `Result` value — see `fade_bench::ExperimentMatrix`, which maps
/// panics to typed error rows.
pub fn run_indexed<T, F>(workers: usize, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = workers.clamp(1, n.max(1));
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let value = f(i);
                *slots[i].lock().expect("no worker panicked holding a slot") = Some(value);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("no worker panicked holding a slot")
                .expect("scope joined every worker, so every slot is filled")
        })
        .collect()
}

/// A queued unit of pool work.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Queue state shared between the pool handle and its workers.
struct PoolState {
    jobs: VecDeque<Job>,
    /// Jobs currently executing on a worker.
    active: usize,
    /// Set once: accept no new jobs, drain the queue, then exit.
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Signals workers: a job arrived or shutdown was requested.
    work: Condvar,
    /// Signals waiters: the pool may have gone idle.
    idle: Condvar,
}

/// A fixed pool of long-lived worker threads draining a shared job
/// queue — the dynamic counterpart of [`run_indexed`], for work that
/// arrives over time (one job per tenant session in the `faded`
/// daemon).
///
/// * **Work-stealing:** any idle worker claims the next queued job;
///   a long job occupies one worker while the rest keep draining.
/// * **Panic isolation:** a job that panics is caught at the job
///   boundary; the worker survives and claims the next job. (Pool
///   users that must *report* the panic catch it themselves inside the
///   job — the pool-level guard is the backstop that keeps one bad job
///   from killing every job queued behind it.)
/// * **Shutdown:** dropping the pool stops intake, drains every job
///   already queued, and joins the workers.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns a pool of `workers` threads (clamped to at least 1).
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                jobs: VecDeque::new(),
                active: 0,
                shutdown: false,
            }),
            work: Condvar::new(),
            idle: Condvar::new(),
        });
        let handles = (0..workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        WorkerPool { shared, handles }
    }

    /// Queues a job for the next idle worker.
    ///
    /// # Panics
    ///
    /// Panics if called after the pool began shutting down (callers
    /// own the pool, so submitting into a shutdown pool is a caller
    /// bug, not a runtime condition).
    pub fn submit(&self, job: impl FnOnce() + Send + 'static) {
        let mut state = self.shared.state.lock().expect("pool state poisoned");
        assert!(!state.shutdown, "submit on a shut-down WorkerPool");
        state.jobs.push_back(Box::new(job));
        drop(state);
        self.shared.work.notify_one();
    }

    /// Blocks until every queued and executing job has finished.
    pub fn wait_idle(&self) {
        let mut state = self.shared.state.lock().expect("pool state poisoned");
        while !state.jobs.is_empty() || state.active > 0 {
            state = self.shared.idle.wait(state).expect("pool state poisoned");
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut state = self.shared.state.lock().expect("pool state poisoned");
            state.shutdown = true;
        }
        self.shared.work.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let job = {
            let mut state = shared.state.lock().expect("pool state poisoned");
            loop {
                if let Some(job) = state.jobs.pop_front() {
                    state.active += 1;
                    break job;
                }
                if state.shutdown {
                    return;
                }
                state = shared.work.wait(state).expect("pool state poisoned");
            }
        };
        // The backstop guard: a panicking job must not take the worker
        // (and with it every job queued behind this one) down.
        let _ = catch_unwind(AssertUnwindSafe(job));
        let mut state = shared.state.lock().expect("pool state poisoned");
        state.active -= 1;
        if state.jobs.is_empty() && state.active == 0 {
            shared.idle.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn run_indexed_returns_results_in_index_order() {
        let out = run_indexed(4, 100, |i| i * 3);
        assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn run_indexed_handles_edge_worker_counts() {
        assert_eq!(run_indexed(0, 3, |i| i), vec![0, 1, 2]);
        assert_eq!(run_indexed(64, 2, |i| i), vec![0, 1]);
        assert!(run_indexed(4, 0, |i| i).is_empty());
    }

    #[test]
    fn run_indexed_runs_every_index_exactly_once() {
        let hits: Vec<AtomicUsize> = (0..257).map(|_| AtomicUsize::new(0)).collect();
        run_indexed(8, hits.len(), |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn pool_executes_every_submitted_job() {
        let pool = WorkerPool::new(4);
        let sum = Arc::new(AtomicU64::new(0));
        for i in 1..=100u64 {
            let sum = Arc::clone(&sum);
            pool.submit(move || {
                sum.fetch_add(i, Ordering::Relaxed);
            });
        }
        pool.wait_idle();
        assert_eq!(sum.load(Ordering::Relaxed), 5050);
    }

    #[test]
    fn pool_survives_panicking_jobs() {
        let pool = WorkerPool::new(2);
        let done = Arc::new(AtomicUsize::new(0));
        for i in 0..20 {
            let done = Arc::clone(&done);
            pool.submit(move || {
                if i % 3 == 0 {
                    panic!("deliberate job panic (pool isolation test)");
                }
                done.fetch_add(1, Ordering::Relaxed);
            });
        }
        pool.wait_idle();
        assert_eq!(done.load(Ordering::Relaxed), 13, "every non-panicking job ran");
        // Workers are still alive: a fresh job after the panics runs.
        let done2 = Arc::clone(&done);
        pool.submit(move || {
            done2.fetch_add(1, Ordering::Relaxed);
        });
        pool.wait_idle();
        assert_eq!(done.load(Ordering::Relaxed), 14);
    }

    #[test]
    fn drop_drains_queued_jobs() {
        let done = Arc::new(AtomicUsize::new(0));
        {
            let pool = WorkerPool::new(1);
            for _ in 0..50 {
                let done = Arc::clone(&done);
                pool.submit(move || {
                    done.fetch_add(1, Ordering::Relaxed);
                });
            }
            // Dropped immediately: intake stops, but everything queued
            // still runs.
        }
        assert_eq!(done.load(Ordering::Relaxed), 50);
    }
}
