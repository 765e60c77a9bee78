//! A resident force pool: long-lived worker threads a job is forked onto
//! and joined from.
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
//! * A pool of `size` hosts jobs of up to `size` processes on `size − 1`
//!   resident threads, created by [`ForcePool::new`] and alive until the
//!   pool is dropped: the thread that launches a job is a member of the
//!   force it creates and runs **pid 0** itself, as the paper's driver
//!   does and as the scoped launcher does.  Process-creation cost is
//!   charged to the machine once, at pool construction (`size` Force
//!   processes, whatever the host threads), not per job.
//! * **Fork**: every resident thread sleeps on a slot of its own.  A job
//!   of `nproc` processes posts its body into the slots of pids
//!   `1..nproc` and wakes exactly those threads; a worker the job does
//!   not use is never woken.
//! * **Join**, help-first: once pid 0 has returned, the caller takes back
//!   every body still in its slot — a pid whose worker has not woken yet —
//!   and runs it itself, so a job whose pid 0 needs nobody costs no wake
//!   at all.  A worker that wakes late finds its slot empty and sleeps
//!   again.  Each pid that did start counts an atomic `remaining` down
//!   when it has left the body; the caller polls that count for one
//!   [`park`] spin window, because those peers are running, and only then
//!   parks; the last finisher notifies only a caller that has said it
//!   parked.
//! * The pool is only a *launcher*:
//!   [`launch_plane`](crate::process::launch_plane) owns the rest of a
//!   job (watchdog, result slots, per-pid fault harness, epilogue) and
//!   uses the pool for a thread-per-pid job that fits; anything else
//!   attached to a pool runs on scoped threads.  The harness traps a
//!   job's fault, so the worker threads survive it.
//! * The join is unconditional — it is the `Drop` of the posted job, runs
//!   outside the caller's own process context, and cannot be cancelled —
//!   so job closures may borrow from the caller's stack: the same
//!   guarantee `std::thread::scope` gives the scoped launcher.
//! * A session that attaches no pool still need not create its force per
//!   job: a job server shard (`force_serve::ForceServer`) keeps a
//!   [`LazyPool`] — this pool, made by the first job that fits it — and
//!   lends it to the plane of whatever job it is running.
#![allow(unsafe_code)]

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;

use crate::fault::{self, Construct, FaultPlane, ProcessFault};
use crate::park;
use crate::portable::{Condvar, Mutex};
use crate::stats::{OpStats, StatsHandle};

/// The type-erased per-pid job body handed to the workers.
///
/// The `'static` is a lie told to the compiler: the referent lives on
/// the broadcasting caller's stack, and is sound because an [`InFlight`]
/// job cannot be dropped — so [`ForcePool::broadcast`] can neither return
/// nor unwind — before every worker that took the body has left it
/// (the classic scoped-threadpool argument); a body the caller took back
/// reached no worker at all.
type JobBody = &'static (dyn Fn(usize) + Sync);

/// What one resident thread sleeps on: the slot of pid `index + 1`.
#[derive(Default)]
struct Slot {
    mail: Mutex<Mail>,
    posted: Condvar,
}

#[derive(Default)]
struct Mail {
    /// The body to run next; taken by the worker when it wakes, or back by
    /// the caller if the worker has not by the time pid 0 returns.
    job: Option<JobBody>,
    /// Set by `Drop`; the worker exits its loop.
    shutdown: bool,
    /// Bodies ever posted here, i.e. how often this worker was woken.
    #[cfg(test)]
    posts: u64,
    /// While set, the worker leaves a posted body where it is: the
    /// caller's take-back is then the only way that pid runs.
    #[cfg(test)]
    held: bool,
}

struct PoolShared {
    size: usize,
    /// One per resident thread; `slots[i]` serves pid `i + 1`.
    slots: Vec<Slot>,
    /// Whether a job is in flight.  Submitters serialize on it.
    busy: Mutex<bool>,
    /// Signalled when `busy` falls.
    freed: Condvar,
    /// Pids `1..` of the in-flight job that a worker may still run: each
    /// is counted off by its worker once it has left the body, or by the
    /// caller when it takes the body back.
    remaining: AtomicUsize,
    /// Whether the caller is parked on `joined` (the last finisher wakes
    /// nobody otherwise).
    join: Mutex<bool>,
    joined: Condvar,
    /// Total jobs completed over the pool's lifetime.
    jobs_completed: AtomicU64,
}

/// A resident pool of force worker threads.
///
/// Create one sized to the largest force you will run, then attach it
/// to a session (or call [`run_plane`](Self::run_plane)).  Worker
/// threads are created once; each job that fits reuses them, so per-job
/// cost is `nproc − 1` targeted wakes instead of as many thread
/// creations, and the calling thread runs pid 0 — and, once that has
/// returned, any pid whose worker has not yet woken.  Jobs on one pool are
/// serialized: a second submitter blocks until the current job completes.
///
/// ```
/// use std::sync::Arc;
/// use force_machdep::{RunOptions, FaultPlane, ForcePool, OpStats};
///
/// let stats = Arc::new(OpStats::new());
/// let pool = ForcePool::new(4, &stats);
/// for job in 0..3 {
///     let plane = FaultPlane::new(4, Arc::clone(&stats), RunOptions::default());
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
    /// Create a resident pool for forces of up to `size` processes —
    /// `size − 1` worker threads, the launching thread being the other
    /// one — charging `size` process creations to `stats` (the one-time
    /// cost the pool exists to amortize; it counts Force processes, not
    /// host threads).  The charge is the pool owner's, never the calling
    /// thread's plane or session.
    ///
    /// # Panics
    /// Panics if `size` is zero.
    pub fn new(size: usize, stats: impl Into<StatsHandle>) -> ForcePool {
        assert!(size > 0, "a force pool needs at least one worker");
        stats
            .into()
            .add_direct(&|s: &OpStats| &s.processes_created, size as u64);
        let shared = Arc::new(PoolShared {
            size,
            slots: (1..size).map(|_| Slot::default()).collect(),
            busy: Mutex::new(false),
            freed: Condvar::new(),
            remaining: AtomicUsize::new(0),
            join: Mutex::new(false),
            joined: Condvar::new(),
            jobs_completed: AtomicU64::new(0),
        });
        let workers = (1..size)
            .map(|pid| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("force-pool-{pid}"))
                    .spawn(move || worker_loop(&shared, pid))
                    .expect("spawn pool worker")
            })
            .collect();
        ForcePool { shared, workers }
    }

    /// The widest job the pool hosts (wider ones run on scoped threads):
    /// its resident threads plus the caller.
    pub fn size(&self) -> usize {
        self.shared.size
    }

    /// Total jobs completed over the pool's lifetime.
    pub fn jobs_completed(&self) -> u64 {
        self.shared.jobs_completed.load(Ordering::Relaxed)
    }

    /// [`launch_plane`](crate::process::launch_plane) with this pool
    /// attached.  A thread-per-pid job of at most [`size`](Self::size)
    /// processes runs on the resident workers and the caller; a wider
    /// job, or one on the virtual backend, runs on scoped threads and is
    /// charged `processes_created += nproc`.
    pub fn run_plane<R, F>(&self, plane: &Arc<FaultPlane>, body: F) -> Result<Vec<R>, ProcessFault>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        crate::process::launch_plane(plane, Some(self), body)
    }

    /// The pooled launcher, fork-join and help-first: post `run_pid` to
    /// the resident threads of pids `1..nproc`, run pid 0 here, then run
    /// here every pid whose worker has not yet taken its body, and return
    /// once every pid has left it.  A pid 0 that has returned is waited on
    /// by nobody, so running a pid nobody has started after it is a
    /// schedule the OS could have produced; every body left in a slot has
    /// a notified worker, so a taken-back pid that waits for a peer still
    /// sees it run.  Submitters serialize on the pool.
    pub(crate) fn broadcast(&self, nproc: usize, run_pid: &(dyn Fn(usize) + Sync)) {
        let shared = &*self.shared;
        // Pids 1.. = resident workers (and a job too wide fails here,
        // before anything is claimed or posted).
        let slots = &shared.slots[..nproc - 1];
        // SAFETY: the erased reference outlives its use.  It is handed
        // out only below, after `in_flight` exists, and `InFlight::drop`
        // — which runs however this function is left — blocks until
        // `remaining == 0`, i.e. until every worker that took the body
        // has returned from it.  A body leaves its slot exactly once,
        // under the slot's mutex — taken by the worker, or back by this
        // caller, which then never hands it to anyone — so none is left
        // behind for later.
        let erased: JobBody =
            unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), JobBody>(run_pid) };
        // Queue behind any in-flight job.  Nothing is posted yet, so this
        // wait is the calling process's own and may be cancelled; the
        // ready closure both tests and claims the pool under its lock.
        park::wait_on(&shared.busy, &shared.freed, Construct::Body, |busy| {
            !std::mem::replace(busy, true)
        });
        let in_flight = InFlight(shared);
        // Ordered before every worker's decrement by the slot mutex the
        // body reaches that worker through.
        shared.remaining.store(slots.len(), Ordering::Relaxed);
        for slot in slots {
            let mut mail = slot.mail.lock();
            mail.job = Some(erased);
            #[cfg(test)]
            {
                mail.posts += 1;
            }
            drop(mail);
            slot.posted.notify_one();
        }
        run_pid(0);
        // Help first: a pid still in its slot runs here instead of being
        // waited for.  It is counted off before it runs, so the join
        // below waits for the workers alone, however this run ends.
        for (pid, slot) in (1..).zip(slots) {
            let unstarted = slot.mail.lock().job.take().is_some();
            if unstarted {
                shared.remaining.fetch_sub(1, Ordering::AcqRel);
                run_pid(pid);
            }
        }
        drop(in_flight);
    }
}

/// A [`ForcePool`] that does not exist until somebody runs a job on it:
/// the resident force a server shard keeps to **lend** to planes whose
/// session attached no pool of its own
/// ([`FaultPlane::lend`](crate::fault::FaultPlane::lend)).
///
/// Its width is fixed at construction — the host's parallelism: a force
/// wider than the host gains nothing from resident threads — so
/// [`launch_plane`](crate::process::launch_plane) can tell whether a job
/// fits *before* any thread exists; the workers are created, and charged
/// once to the owner's `stats`, by the first job that does.  An owner
/// whose sessions all carry pools never creates a thread.
pub struct LazyPool {
    size: usize,
    stats: StatsHandle,
    pool: OnceLock<ForcePool>,
}

impl LazyPool {
    /// A pool-to-be as wide as the host, charged to `stats` when it
    /// comes into being.
    pub fn new(stats: StatsHandle) -> Arc<LazyPool> {
        Self::with_size(park::default_nproc(), stats)
    }

    /// A pool-to-be of `size`.
    pub(crate) fn with_size(size: usize, stats: StatsHandle) -> Arc<LazyPool> {
        Arc::new(LazyPool {
            size,
            stats,
            pool: OnceLock::new(),
        })
    }

    /// The widest job the pool hosts, created or not.
    pub(crate) fn size(&self) -> usize {
        self.size
    }

    /// The pool itself, created by the first caller.
    pub(crate) fn get(&self) -> &ForcePool {
        self.pool
            .get_or_init(|| ForcePool::new(self.size, self.stats.clone()))
    }

    /// Whether any job has made the pool exist.
    #[cfg(test)]
    pub(crate) fn is_created(&self) -> bool {
        self.pool.get().is_some()
    }
}

/// The job the pool is running, from the moment its submitter owns the
/// pool.  Dropping it is the join: wait until every worker has left the
/// body, count the job, free the pool.
struct InFlight<'a>(&'a PoolShared);

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        let shared = self.0;
        // `Acquire`, pairing with the workers' `AcqRel` decrements: once
        // this reads zero, everything each of them did in the body —
        // its last use of the borrowed closure included — has happened.
        let workers_left = || shared.remaining.load(Ordering::Acquire) != 0;
        {
            // Not a wait of the calling process's force (if it is one):
            // cancelling it would free a body the workers still run, and
            // under a virtual scheduler it would be decision points whose
            // number depends on the wall clock.
            let _launcher = fault::detach();
            park::spin_then_wait_on(
                || !workers_left(),
                &shared.join,
                &shared.joined,
                Construct::Body,
                |parked| {
                    *parked = workers_left();
                    !*parked
                },
            );
        }
        shared.jobs_completed.fetch_add(1, Ordering::Relaxed);
        *shared.busy.lock() = false;
        shared.freed.notify_one();
    }
}

impl Drop for ForcePool {
    fn drop(&mut self) {
        for slot in &self.shared.slots {
            slot.mail.lock().shutdown = true;
            slot.posted.notify_all();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// The resident worker of `pid`: sleep until a body is posted, run it,
/// report having left it.
fn worker_loop(shared: &PoolShared, pid: usize) {
    let slot = &shared.slots[pid - 1];
    loop {
        let mut posted = None;
        park::wait_on(&slot.mail, &slot.posted, Construct::Body, |mail| {
            #[cfg(test)]
            if mail.held {
                return mail.shutdown;
            }
            posted = mail.job.take();
            posted.is_some() || mail.shutdown
        });
        let Some(body) = posted else { return };
        // The body's own harness (`process::run_as_process`) traps
        // panics and absorbs cancellations, so the worker thread
        // survives any job fault and stays available for the next job.
        body(pid);
        // The last one out wakes the caller, if it went to sleep.  The
        // flag is read under the mutex the caller sets it under: either
        // this count reached zero before the caller looked, or the
        // caller's `parked` is visible here.
        if shared.remaining.fetch_sub(1, Ordering::AcqRel) == 1 && *shared.join.lock() {
            shared.joined.notify_one();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::RunOptions;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn pool_and_stats(size: usize) -> (ForcePool, Arc<OpStats>) {
        let stats = Arc::new(OpStats::new());
        (ForcePool::new(size, &stats), stats)
    }

    fn plane(nproc: usize, stats: &Arc<OpStats>) -> Arc<FaultPlane> {
        FaultPlane::new(nproc, Arc::clone(stats), RunOptions::default())
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

    /// How often each resident thread has been posted a body (and woken).
    fn posts(pool: &ForcePool) -> Vec<u64> {
        let slots = pool.shared.slots.iter();
        slots.map(|slot| slot.mail.lock().posts).collect()
    }

    #[test]
    fn a_job_wakes_only_the_workers_it_uses() {
        let (pool, stats) = pool_and_stats(6);
        assert_eq!(pool.workers.len(), 5, "the caller is the sixth");
        let hits = AtomicUsize::new(0);
        let p = plane(2, &stats);
        let r = pool
            .run_plane(&p, |pid| {
                hits.fetch_add(1, Ordering::Relaxed);
                pid
            })
            .unwrap();
        assert_eq!(r, vec![0, 1]);
        assert_eq!(hits.load(Ordering::Relaxed), 2);
        assert_eq!(posts(&pool), [1, 0, 0, 0, 0], "pid 1's worker and no other");
        // The idle workers are still usable afterwards.
        let p = plane(6, &stats);
        let r = pool.run_plane(&p, |pid| pid).unwrap();
        assert_eq!(r, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(posts(&pool), [2, 1, 1, 1, 1]);
    }

    /// Stop the resident worker of `pid` from taking what is posted to it,
    /// or let it again.
    fn hold(pool: &ForcePool, pid: usize, held: bool) {
        pool.shared.slots[pid - 1].mail.lock().held = held;
    }

    #[test]
    fn a_pid_nobody_has_started_runs_on_the_caller_exactly_once() {
        let (pool, stats) = pool_and_stats(2);
        let caller = std::thread::current().id();
        let runs = AtomicUsize::new(0);
        hold(&pool, 1, true);
        let threads = pool
            .run_plane(&plane(2, &stats), |pid| {
                runs.fetch_add(pid, Ordering::Relaxed);
                std::thread::current().id()
            })
            .unwrap();
        assert_eq!(threads, [caller, caller]);
        assert_eq!(runs.load(Ordering::Relaxed), 1, "pid 1 ran once");
        assert_eq!(posts(&pool), [1], "posted and woken all the same");
        // Let go, the worker runs the next job's pid 1: pid 0 waits for it.
        hold(&pool, 1, false);
        let pair = std::sync::Barrier::new(2);
        let threads = pool
            .run_plane(&plane(2, &stats), |_| {
                pair.wait();
                std::thread::current()
            })
            .unwrap();
        assert_eq!(threads[0].id(), caller);
        assert_eq!(threads[1].name(), Some("force-pool-1"));
        assert_eq!(pool.jobs_completed(), 2);
    }

    #[test]
    fn a_taken_back_pid_that_panics_is_the_jobs_fault() {
        let (pool, stats) = pool_and_stats(2);
        hold(&pool, 1, true);
        let fault = pool
            .run_plane(&plane(2, &stats), |pid| {
                if pid == 1 {
                    panic!("pid one dies");
                }
            })
            .expect_err("pid 1's panic");
        assert_eq!(
            fault,
            ProcessFault {
                pid: 1,
                construct: "body",
                payload: "pid one dies".to_string(),
            }
        );
        hold(&pool, 1, false);
        let p = plane(2, &stats);
        assert_eq!(pool.run_plane(&p, |pid| pid), Ok(vec![0, 1]));
        assert_eq!(pool.jobs_completed(), 2);
    }

    #[test]
    fn a_taken_back_pid_meets_a_peer_its_worker_runs() {
        let (pool, stats) = pool_and_stats(3);
        hold(&pool, 1, true);
        let pair = std::sync::Barrier::new(2);
        let threads = pool
            .run_plane(&plane(3, &stats), |pid| {
                if pid > 0 {
                    pair.wait();
                }
                std::thread::current()
            })
            .unwrap();
        let caller = std::thread::current().id();
        assert_eq!([threads[0].id(), threads[1].id()], [caller, caller]);
        assert_eq!(threads[2].name(), Some("force-pool-2"));
    }

    #[test]
    fn a_pool_of_one_is_the_caller_alone() {
        let (pool, stats) = pool_and_stats(1);
        assert!(pool.workers.is_empty() && pool.shared.slots.is_empty());
        assert_eq!(stats.snapshot().processes_created, 1);
        let here = std::thread::current().id();
        let r = pool.run_plane(&plane(1, &stats), |_| std::thread::current().id());
        assert_eq!(r, Ok(vec![here]));
        assert_eq!(pool.jobs_completed(), 1);
        assert_eq!(stats.snapshot().processes_created, 1);
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
        // A resident force of 2 + a scoped one of 3 for the job it could
        // not host; the pool never saw it.
        assert_eq!(stats.snapshot().processes_created, 2 + 3);
        assert_eq!(pool.jobs_completed(), 0);
    }

    #[test]
    fn a_lazy_pool_raced_by_its_first_jobs_is_made_once() {
        for _ in 0..20 {
            let stats = Arc::new(OpStats::new());
            let lazy = LazyPool::with_size(2, (&stats).into());
            assert!(!lazy.is_created());
            std::thread::scope(|s| {
                for _ in 0..4 {
                    s.spawn(|| {
                        let p = plane(2, &stats);
                        p.lend(&lazy, None);
                        let r = crate::process::launch_plane(&p, None, |pid| pid);
                        assert_eq!(r, Ok(vec![0, 1]));
                    });
                }
            });
            assert!(lazy.is_created());
            assert_eq!(lazy.get().jobs_completed(), 4);
            assert_eq!(
                stats.snapshot().processes_created,
                2,
                "one pool, charged once"
            );
        }
    }

    #[test]
    fn drop_joins_the_workers() {
        let (pool, stats) = pool_and_stats(3);
        let p = plane(3, &stats);
        pool.run_plane(&p, |_| ()).unwrap();
        drop(pool); // must not hang or leak threads
    }
}
