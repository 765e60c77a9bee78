//! A resident force pool: long-lived worker threads with a job mailbox.
//!
//! The paper's process-management suppression ("the number of processes
//! is a run-time parameter") was implemented on machines where process
//! creation was expensive — the UNIX fork/join ports paid a full
//! data-and-stack copy per process per run.  A production embedding
//! amortizes that cost the obvious way: create the force **once** and
//! keep it resident, dispatching successive jobs onto the same worker
//! threads.  [`ForcePool`] is that resident force.
//!
//! Design:
//!
//! * `size` worker threads are created by [`ForcePool::new`] and live
//!   until the pool is dropped.  Process-creation cost is charged to the
//!   machine once, at pool construction, not per job.
//! * A **job mailbox** (generation counter + job slot, under one mutex)
//!   broadcasts each job to the workers.  A job of `nproc <= size`
//!   processes occupies workers `0..nproc`; the rest skip the
//!   generation and keep waiting.
//! * The pool is only a *launcher*:
//!   [`launch_plane`](crate::process::launch_plane) owns the rest of a
//!   job (watchdog, result slots, per-pid fault harness, epilogue) and
//!   uses the mailbox for a thread-per-pid job that fits; anything else
//!   attached to a pool runs on scoped threads.  The harness traps a
//!   job's fault, so the worker threads survive it.
//! * The broadcast blocks until every participant has finished, so job
//!   closures may borrow from the caller's stack — the same guarantee
//!   `std::thread::scope` gives the scoped launcher.
#![allow(unsafe_code)]

use std::sync::Arc;
use std::thread::JoinHandle;

use crate::fault::{Construct, FaultPlane, ProcessFault};
use crate::park;
use crate::portable::{Condvar, Mutex};
use crate::stats::OpStats;

/// The type-erased per-pid job body handed to the workers.
///
/// The `'static` is a lie told to the compiler: the referent lives on
/// the broadcasting caller's stack, and is sound because
/// [`ForcePool::broadcast`] does not return until every participating
/// worker has finished the job and bumped the completion count (the
/// classic scoped-threadpool argument).
type JobBody = &'static (dyn Fn(usize) + Sync);

/// One published job: the erased body and how many workers participate.
struct Job {
    body: JobBody,
    nproc: usize,
}

/// Mailbox state, under the pool's mutex.
struct PoolState {
    /// Bumped once per published job; workers use it to recognize a job
    /// they have not run yet.
    generation: u64,
    /// The current job; `Some` from publication until the submitter
    /// observes completion and clears it.
    job: Option<Job>,
    /// How many participants have finished the current job.
    done: usize,
    /// Total jobs completed over the pool's lifetime.
    jobs_completed: u64,
    /// Set by `Drop`; workers exit their loop.
    shutdown: bool,
}

struct PoolShared {
    size: usize,
    state: Mutex<PoolState>,
    /// Workers wait here for a new generation (or shutdown).
    job_ready: Condvar,
    /// Submitters wait here for completion and for the job slot to free.
    job_done: Condvar,
}

/// A resident pool of force worker threads.
///
/// Create one sized to the largest force you will run, then attach it
/// to a session (or call [`run_plane`](Self::run_plane)).  Worker
/// threads are created once; each job that fits reuses them, so per-job
/// cost is a mailbox broadcast instead of `nproc` thread creations.
/// Jobs on the workers are serialized: a second submitter blocks until
/// the current job completes.
///
/// ```
/// use std::sync::Arc;
/// use force_machdep::{FaultConfig, FaultPlane, ForcePool, OpStats};
///
/// let stats = Arc::new(OpStats::new());
/// let pool = ForcePool::new(4, &stats);
/// for job in 0..3 {
///     let plane = FaultPlane::new(4, Arc::clone(&stats), FaultConfig::default());
///     let results = pool.run_plane(&plane, |pid| pid + job).unwrap();
///     assert_eq!(results, vec![job, 1 + job, 2 + job, 3 + job]);
/// }
/// assert_eq!(pool.jobs_completed(), 3);
/// ```
pub struct ForcePool {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
}

impl ForcePool {
    /// Create a resident pool of `size` worker threads, charging `size`
    /// process creations to `stats` (the one-time cost the pool exists
    /// to amortize).
    ///
    /// # Panics
    /// Panics if `size` is zero.
    pub fn new(size: usize, stats: &Arc<OpStats>) -> ForcePool {
        assert!(size > 0, "a force pool needs at least one worker");
        OpStats::add(&stats.processes_created, size as u64);
        let shared = Arc::new(PoolShared {
            size,
            state: Mutex::new(PoolState {
                generation: 0,
                job: None,
                done: 0,
                jobs_completed: 0,
                shutdown: false,
            }),
            job_ready: Condvar::new(),
            job_done: Condvar::new(),
        });
        let workers = (0..size)
            .map(|index| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("force-pool-{index}"))
                    .spawn(move || worker_loop(&shared, index))
                    .expect("spawn pool worker")
            })
            .collect();
        ForcePool { shared, workers }
    }

    /// Number of resident worker threads (the widest job the mailbox
    /// hosts; wider ones run on scoped threads).
    pub fn size(&self) -> usize {
        self.shared.size
    }

    /// Total jobs completed over the pool's lifetime.
    pub fn jobs_completed(&self) -> u64 {
        self.shared.state.lock().jobs_completed
    }

    /// [`launch_plane`](crate::process::launch_plane) with this pool
    /// attached.  A thread-per-pid job of at most [`size`](Self::size)
    /// processes runs on the resident workers; a wider job, or one whose
    /// backend multiplexes pids (overcommit, virtual), runs on scoped
    /// threads and is charged `processes_created += nproc`.
    pub fn run_plane<R, F>(&self, plane: &Arc<FaultPlane>, body: F) -> Result<Vec<R>, ProcessFault>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        crate::process::launch_plane(plane, Some(self), body)
    }

    /// The mailbox launcher: publish `run_pid` to workers `0..nproc`
    /// and block until each has returned from it.  Submitters serialize
    /// on the job slot.
    pub(crate) fn broadcast(&self, nproc: usize, run_pid: &(dyn Fn(usize) + Sync)) {
        debug_assert!(nproc <= self.shared.size, "pid = resident worker");
        // SAFETY: the erased reference outlives its use — this function
        // blocks below until `done == nproc`, i.e. until every worker
        // that received the body has returned from it, and the job slot
        // is cleared before we return, so no worker can see the body
        // afterwards.
        let erased: JobBody =
            unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), JobBody>(run_pid) };
        // Queue behind any in-flight job, then publish ours; the parking
        // layer's ready closure both tests and claims the free job slot
        // under the state lock, so two submitters cannot publish at once.
        park::wait_on(
            &self.shared.state,
            &self.shared.job_done,
            Construct::Body,
            |st| {
                if st.job.is_some() {
                    return false;
                }
                st.generation += 1;
                st.done = 0;
                st.job = Some(Job {
                    body: erased,
                    nproc,
                });
                self.shared.job_ready.notify_all();
                true
            },
        );
        // Wait for every participant, then retire the job and wake any
        // submitter queued on the slot.
        park::wait_on(
            &self.shared.state,
            &self.shared.job_done,
            Construct::Body,
            |st| {
                if st.done < nproc {
                    return false;
                }
                st.job = None;
                st.jobs_completed += 1;
                self.shared.job_done.notify_all();
                true
            },
        );
    }
}

impl Drop for ForcePool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock();
            st.shutdown = true;
            self.shared.job_ready.notify_all();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// The resident worker: wait for a generation this worker has not seen,
/// run the job body if this worker participates, report completion.
fn worker_loop(shared: &PoolShared, index: usize) {
    let mut last_gen = 0u64;
    loop {
        let mut job: Option<JobBody> = None;
        let mut shutdown = false;
        park::wait_on(&shared.state, &shared.job_ready, Construct::Body, |st| {
            if st.shutdown {
                shutdown = true;
                return true;
            }
            if st.generation > last_gen {
                last_gen = st.generation;
                job = match &st.job {
                    // A job this worker sits out (nproc < size), or
                    // one that already completed while this worker
                    // slept (it cannot have been a participant —
                    // completion waits for all participants).
                    Some(job) if index < job.nproc => Some(job.body),
                    _ => None,
                };
                return true;
            }
            false
        });
        if shutdown {
            return;
        }
        if let Some(body) = job {
            // The body's own harness (`process::run_as_process`) traps
            // panics and absorbs cancellations, so the worker thread
            // survives any job fault and stays available for the next job.
            body(index);
            let mut st = shared.state.lock();
            st.done += 1;
            shared.job_done.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultConfig;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn pool_and_stats(size: usize) -> (ForcePool, Arc<OpStats>) {
        let stats = Arc::new(OpStats::new());
        (ForcePool::new(size, &stats), stats)
    }

    fn plane(nproc: usize, stats: &Arc<OpStats>) -> Arc<FaultPlane> {
        FaultPlane::new(nproc, Arc::clone(stats), FaultConfig::default())
    }

    #[test]
    fn jobs_reuse_the_resident_workers() {
        let (pool, stats) = pool_and_stats(4);
        assert_eq!(stats.snapshot().processes_created, 4);
        for job in 0..10 {
            let p = plane(4, &stats);
            let r = pool.run_plane(&p, |pid| pid * 10 + job).unwrap();
            assert_eq!(r, vec![job, 10 + job, 20 + job, 30 + job]);
        }
        // No per-job process creation: the count stays at pool size.
        assert_eq!(stats.snapshot().processes_created, 4);
        assert_eq!(pool.jobs_completed(), 10);
    }

    #[test]
    fn smaller_jobs_use_a_prefix_of_the_pool() {
        let (pool, stats) = pool_and_stats(6);
        let hits = AtomicUsize::new(0);
        let p = plane(2, &stats);
        let r = pool
            .run_plane(&p, |pid| {
                hits.fetch_add(1, Ordering::Relaxed);
                pid
            })
            .unwrap();
        assert_eq!(r, vec![0, 1]);
        assert_eq!(hits.load(Ordering::Relaxed), 2, "only 2 of 6 workers ran");
        // The idle workers are still usable afterwards.
        let p = plane(6, &stats);
        let r = pool.run_plane(&p, |pid| pid).unwrap();
        assert_eq!(r, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn concurrent_submitters_serialize() {
        let (pool, stats) = pool_and_stats(2);
        let pool = Arc::new(pool);
        let total = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let pool = Arc::clone(&pool);
                let stats = Arc::clone(&stats);
                let total = &total;
                s.spawn(move || {
                    for _ in 0..5 {
                        let p = plane(2, &stats);
                        let r = pool.run_plane(&p, |pid| pid + 1).unwrap();
                        total.fetch_add(r.iter().sum::<usize>(), Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 4 * 5 * 3);
        assert_eq!(pool.jobs_completed(), 20);
    }

    #[test]
    fn oversized_jobs_fall_back_to_scoped_threads() {
        let (pool, stats) = pool_and_stats(2);
        let r = pool.run_plane(&plane(3, &stats), |pid| pid).unwrap();
        assert_eq!(r, vec![0, 1, 2]);
        // 2 resident workers + 3 scoped threads for the job they could
        // not host; the mailbox never saw it.
        assert_eq!(stats.snapshot().processes_created, 2 + 3);
        assert_eq!(pool.jobs_completed(), 0);
    }

    #[test]
    fn drop_joins_the_workers() {
        let (pool, stats) = pool_and_stats(3);
        let p = plane(3, &stats);
        pool.run_plane(&p, |_| ()).unwrap();
        drop(pool); // must not hang or leak threads
    }
}
