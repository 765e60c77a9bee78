//! Process creation and termination models — §4.1.1.
//!
//! The paper encountered three models:
//!
//! * the **standard UNIX fork/join** model (Encore, Sequent), where "a
//!   complete copy of the data and stack is produced for each forked
//!   process" — high creation cost, child starts with a copy of the
//!   parent's private data ([`ProcessModel::ForkJoinCopy`]);
//! * the **Alliant variation** "where all data segments are shared and
//!   only the stack is considered private" — the child's private state is
//!   a fresh stack ([`ProcessModel::SharedDataFork`]);
//! * the **HEP** model, where "one can create processes with a subroutine
//!   call" and a return terminates the process independently of the
//!   caller — very cheap creation, fresh locals
//!   ([`ProcessModel::SpawnByCall`]).
//!
//! All are realized on host threads; the observable differences are (a)
//! what a child sees of the parent's private data at spawn
//! ([`ChildPrivateInit`]) and (b) the simulated creation cost charged by
//! the cost model.
//!
//! # Launching a plane
//!
//! However a force is created, its job cycle is one function,
//! [`launch_plane`]: watchdog, result slots, the per-pid harness
//! (`run_as_process`), a launcher — the workers of a resident
//! [`ForcePool`], the session's own or one a server shard lent the plane,
//! or scoped threads, picked there, never by the caller, and fork-join
//! either way: the launching thread runs pid 0 — and one epilogue.

use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::fault::{self, Cancelled, Construct, FaultPlane, ProcessFault, RunOptions};
use crate::park;
use crate::pool::ForcePool;
use crate::portable::{Condvar, Mutex};
use crate::stats::OpStats;

/// Stack size for pid threads under the virtual backend: one of them
/// runs at a time and the rest wait for the run token, so each gets a
/// deliberately small stack.
const VIRTUAL_STACK: usize = 512 * 1024;

/// How a child process's private storage is initialized at spawn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChildPrivateInit {
    /// The child starts with a copy of the parent's private data at the
    /// moment of the fork (UNIX fork/join model).
    CopyOfParent,
    /// The child starts with fresh (zero) private storage: only the stack
    /// is private (Alliant) or the process begins in a new subroutine
    /// activation (HEP).
    Zeroed,
}

/// One of the paper's process-creation models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProcessModel {
    /// UNIX fork/join with full copy of data and stack (Encore, Sequent).
    ForkJoinCopy,
    /// Fork sharing all data segments; only the stack is private (Alliant).
    SharedDataFork,
    /// Process creation by subroutine call; return terminates the process
    /// (HEP).
    SpawnByCall,
}

impl ProcessModel {
    /// The paper's description of the model.
    pub fn name(self) -> &'static str {
        match self {
            ProcessModel::ForkJoinCopy => "UNIX fork/join (data+stack copied)",
            ProcessModel::SharedDataFork => "fork with shared data, private stack",
            ProcessModel::SpawnByCall => "process creation by subroutine call",
        }
    }

    /// What the child sees of the parent's private data.
    pub fn child_private_init(self) -> ChildPrivateInit {
        match self {
            ProcessModel::ForkJoinCopy => ChildPrivateInit::CopyOfParent,
            ProcessModel::SharedDataFork | ProcessModel::SpawnByCall => ChildPrivateInit::Zeroed,
        }
    }

    /// Whether creation is cheap enough for fine-grained parallelism
    /// (§4.1.1: the fork/join model "prevents fine grained parallelism").
    pub fn fine_grained(self) -> bool {
        matches!(self, ProcessModel::SpawnByCall)
    }
}

/// Extract a printable message from a caught panic payload.
fn describe_panic(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The fault-plane-aware run loop for one process of a force, whichever
/// launcher [`launch_plane`] handed the pid to.
///
/// Installs the plane's thread-local fault context for `pid`, runs
/// `body`, and traps its panic: a genuine panic trips the plane (with
/// construct attribution and the original payload preserved), a
/// [`Cancelled`] unwind from a peer's fault is absorbed, and either way
/// the pid is marked finished on the wait board before returning.
/// Returns `Some` of the body's result only on a clean completion.
pub(crate) fn run_as_process<R>(
    plane: &Arc<FaultPlane>,
    pid: usize,
    body: impl FnOnce() -> R,
) -> Option<R> {
    let _ctx = fault::install(plane, pid);
    // Under the virtual backend the process must hold the run token to
    // execute program text; the lease is taken inside the catch so a
    // cancellation while waiting for the first grant unwinds cleanly.
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _lease = park::token_lease();
        body()
    }));
    let result = match outcome {
        Ok(r) => Some(r),
        Err(payload) => {
            if !payload.is::<Cancelled>() {
                let construct = fault::take_panicked_construct().unwrap_or(Construct::Body);
                plane.trip(
                    ProcessFault {
                        pid,
                        construct: construct.name(),
                        payload: describe_panic(payload.as_ref()),
                    },
                    Some(payload),
                );
            }
            None
        }
    };
    // Under the virtual backend an unwinding pid keeps the run token
    // until its fault is recorded (so the drain order is deterministic);
    // now that the trip — if any — is on the plane, hand the token on.
    plane.parker().virtual_release_orphan(pid);
    // The process's counts reach the plane, session and machine blocks
    // here, once, whether the body returned or unwound.
    plane.fold_lane(pid);
    plane.finish(pid);
    result
}

/// The stop flag a helper thread (deadlock watchdog, deadline watcher)
/// sleeps on.
#[derive(Default)]
pub struct StopSignal {
    stopped: Mutex<bool>,
    wake: Condvar,
}

impl StopSignal {
    /// Sleep for up to `timeout` unless already told to stop; `true` once
    /// the helper must return.
    pub fn sleep(&self, timeout: Duration) -> bool {
        let mut stopped = self.stopped.lock();
        if !*stopped {
            park::timer_wait(&self.wake, &mut stopped, timeout);
        }
        *stopped
    }
}

/// A running helper thread.  Dropping the guard raises its
/// [`StopSignal`], wakes it and joins it, so whatever the helper polices
/// is quiescent once the guard is gone.
pub struct StopGuard {
    signal: Arc<StopSignal>,
    handle: Option<JoinHandle<()>>,
}

impl StopGuard {
    /// Run `helper` on a new thread called `name`, with the signal this
    /// guard raises when it is dropped.
    pub fn spawn(name: String, helper: impl FnOnce(&StopSignal) + Send + 'static) -> StopGuard {
        let signal = Arc::new(StopSignal::default());
        let theirs = Arc::clone(&signal);
        let handle = std::thread::Builder::new()
            .name(name)
            .spawn(move || helper(&theirs))
            .expect("spawn helper thread");
        StopGuard {
            signal,
            handle: Some(handle),
        }
    }
}

impl Drop for StopGuard {
    fn drop(&mut self) {
        *self.signal.stopped.lock() = true;
        self.signal.wake.notify_all();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// Run one job: `body(pid)` for every pid of `plane`, joined — the Force
/// driver's create/`Join` cycle with fault containment, written once for
/// every way a plane can be launched.
///
/// Every process runs under `run_as_process`: the *first* genuine
/// fault trips the plane (promptly unwinding peers blocked in a barrier,
/// lock, `Consume`, …) and is returned once every process has finished;
/// on success, each process's result in pid order.  A deadlock watchdog
/// shadows the job when the plane's config sets a bound — except under
/// the virtual backend, whose scheduler detects deadlock itself.  The
/// caller re-arms the plane ([`FaultPlane::reset_for_job`]) between jobs.
///
/// The **launcher** is computed here, never chosen by the caller:
///
/// | condition | launcher | stack | charged to the job |
/// |---|---|---|---|
/// | `pool` attached or lent, thread-per-pid backend, `nproc <= pool.size()` | *pooled*: the pool's resident workers for pids 1.., pid 0 on the caller, and on the caller too any pid whose worker has not woken by the time pid 0 returns | the workers' own; the caller's own | nothing (paid at pool construction) |
/// | otherwise, thread-per-pid backend | *scoped*: threads for pids 1.., pid 0 on the caller | default; the caller's own | `processes_created += nproc` |
/// | virtual backend (one run token) | *scoped* | 512 KiB per created pid; the caller's own | `processes_created += nproc` |
///
/// *Attached* is the caller's `pool`; *lent* is the resident force a
/// job server shard (`force_serve::ForceServer`) lends the plane for
/// the attempt it is bound to ([`FaultPlane::lend`]), consulted only when
/// the caller attached none — an explicit pool always wins.  A lent pool
/// is created by the first job that fits it.
///
/// `processes_created` counts Force processes, not host threads: the
/// scoped rows create `nproc − 1` threads and still charge `nproc`, and
/// a pool of `size` keeps `size − 1` and charged `size`, so the cost
/// model prices a force the same whichever thread runs pid 0.
///
/// # Panics
/// Panics if the plane covers zero processes.
pub fn launch_plane<R: Send>(
    plane: &Arc<FaultPlane>,
    pool: Option<&ForcePool>,
    body: impl Fn(usize) -> R + Sync,
) -> Result<Vec<R>, ProcessFault> {
    let nproc = plane.nproc();
    assert!(nproc > 0, "a force needs at least one process");
    // A virtual job's scheduler detects deadlock itself, on virtual time.
    let config = plane.config();
    let watchdog = config
        .watchdog
        .filter(|_| !config.backend.is_virtual())
        .map(|bound| {
            let plane = Arc::clone(plane);
            StopGuard::spawn("force-watchdog".to_string(), move |stop| {
                plane.run_watchdog(bound, stop)
            })
        });
    let results: Vec<Mutex<Option<R>>> = (0..nproc).map(|_| Mutex::new(None)).collect();
    let run_pid = |pid: usize| {
        let r = run_as_process(plane, pid, || body(pid));
        *results[pid].lock() = r;
    };
    let virtual_time = config.backend.is_virtual();
    let fits = |size: usize| !virtual_time && nproc <= size;
    let lent = match pool {
        Some(_) => None,
        None => plane.loan(),
    };
    let pool = match (pool, &lent) {
        (Some(attached), _) if fits(attached.size()) => Some(attached),
        (None, Some(lent)) if fits(lent.size()) => Some(lent.get()),
        _ => None,
    };
    match pool {
        Some(pool) => pool.broadcast(nproc, &run_pid),
        None => launch_scoped(plane, virtual_time, &run_pid),
    }
    drop(watchdog);
    match plane.take_fault() {
        Some(fault) => Err(fault),
        // A plane still tripped from an earlier job (no `reset_for_job`)
        // cancels every process without recording a fault: say so.
        None if plane.is_tripped() => Err(ProcessFault {
            pid: 0,
            construct: Construct::Body.name(),
            payload: "force cancelled by a plane still tripped from an earlier job \
                      (missing reset_for_job between jobs)"
                .to_string(),
        }),
        None => Ok(results
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("no fault recorded, so every process completed")
            })
            .collect()),
    }
}

/// The scoped launcher, fork-join: a fresh thread for each of pids
/// `1..nproc`, pid 0 on the calling thread, every thread joined before
/// return.  The new threads are small-stacked under the virtual backend,
/// where all but one of them wait for the run token.
///
/// Under either launcher the caller's thread is a process like the
/// others for as long as `run_pid(0)` runs — same admission guard, same
/// panic containment — and is given back as it was: `run_as_process`
/// restores whatever fault context the thread had, which is what lets a
/// process of one force launch another.
fn launch_scoped(plane: &FaultPlane, virtual_time: bool, run_pid: &(dyn Fn(usize) + Sync)) {
    let nproc = plane.nproc();
    // Charge the plane directly (not context-preferred): the launching
    // thread may run under a session's ambient binding, but these
    // processes belong to this plane's counter block.  The count is of
    // Force processes, not of host threads: the caller's counts.
    plane
        .stats_handle()
        .add_direct(&|s: &OpStats| &s.processes_created, nproc as u64);
    // The body's panic is caught inside `run_pid`; if one still escapes,
    // the harness itself died.  Trip defensively so peers cannot hang on
    // the lost process.
    let died_outside_harness = |pid: usize| {
        plane.trip(
            ProcessFault {
                pid,
                construct: Construct::Body.name(),
                payload: "process thread died outside the fault harness".to_string(),
            },
            None,
        );
    };
    std::thread::scope(|scope| {
        let handles: Vec<_> = (1..nproc)
            .map(|pid| {
                let mut thread = std::thread::Builder::new();
                if virtual_time {
                    thread = thread.stack_size(VIRTUAL_STACK);
                }
                let handle = thread
                    .spawn_scoped(scope, move || run_pid(pid))
                    .expect("spawning a pid thread");
                (pid, handle)
            })
            .collect();
        if std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_pid(0))).is_err() {
            died_outside_harness(0);
        }
        for (pid, handle) in handles {
            if handle.join().is_err() {
                died_outside_harness(pid);
            }
        }
    });
}

/// [`launch_plane`] without a pool: always the scoped launcher.
pub fn spawn_force_plane<R, F>(plane: &Arc<FaultPlane>, body: F) -> Result<Vec<R>, ProcessFault>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    launch_plane(plane, None, body)
}

/// Spawn a force of `nproc` processes and join them all — the Force
/// driver's create/`Join` cycle.
///
/// Every process runs `body(pid)`; the call returns each process's result
/// in pid order.  Runs under a default [`FaultPlane`] (no watchdog, no
/// injection): a panicking process trips the plane, blocked peers unwind
/// promptly instead of hanging, and the *first* panic's original payload
/// is re-raised after all processes have been joined, so the force is
/// never abandoned half-alive.
pub fn spawn_force<R, F>(nproc: usize, stats: &Arc<OpStats>, body: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let plane = FaultPlane::new(nproc, Arc::clone(stats), RunOptions::default());
    match spawn_force_plane(&plane, body) {
        Ok(results) => results,
        Err(fault) => match plane.take_payload() {
            Some(payload) => std::panic::resume_unwind(payload),
            None => panic!("{fault}"),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lock::{LockState, RawLock};
    use crate::park::ParkBackend;
    use crate::pool::LazyPool;
    use crate::spin::SpinLock;
    use crate::stats::StatsHandle;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn model_metadata() {
        assert_eq!(
            ProcessModel::ForkJoinCopy.child_private_init(),
            ChildPrivateInit::CopyOfParent
        );
        assert_eq!(
            ProcessModel::SharedDataFork.child_private_init(),
            ChildPrivateInit::Zeroed
        );
        assert_eq!(
            ProcessModel::SpawnByCall.child_private_init(),
            ChildPrivateInit::Zeroed
        );
        assert!(ProcessModel::SpawnByCall.fine_grained());
        assert!(!ProcessModel::ForkJoinCopy.fine_grained());
    }

    #[test]
    fn spawn_force_propagates_panics_after_join() {
        let stats = Arc::new(OpStats::new());
        let survivors = AtomicUsize::new(0);
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            spawn_force(4, &stats, |pid| {
                if pid == 2 {
                    panic!("process 2 died");
                }
                survivors.fetch_add(1, Ordering::Relaxed);
            });
        }));
        assert!(res.is_err());
        // The other three processes completed before the panic resurfaced.
        assert_eq!(survivors.load(Ordering::Relaxed), 3);
    }

    #[test]
    #[should_panic(expected = "at least one process")]
    fn zero_processes_rejected() {
        let stats = Arc::new(OpStats::new());
        let _ = spawn_force(0, &stats, |_| ());
    }

    #[test]
    fn multiple_panics_keep_the_first_fault() {
        let stats = Arc::new(OpStats::new());
        let plane = FaultPlane::new(4, Arc::clone(&stats), RunOptions::default());
        let err = spawn_force_plane(&plane, |pid| {
            panic!("pid {pid} dies");
        })
        .expect_err("every process panics");
        assert!(err.payload.starts_with("pid "), "{}", err.payload);
        // All four genuine panics were detected, one was reported.
        assert_eq!(stats.snapshot().faults_detected, 4);
    }

    const EVERY_BACKEND: [ParkBackend; 2] = [
        ParkBackend::ThreadPerPid,
        ParkBackend::Virtual { seed: 1989 },
    ];

    fn plane_on(backend: ParkBackend, nproc: usize) -> (Arc<OpStats>, Arc<FaultPlane>) {
        let stats = Arc::new(OpStats::new());
        let config = RunOptions {
            backend,
            ..RunOptions::default()
        };
        let plane = FaultPlane::new(nproc, Arc::clone(&stats), config);
        (stats, plane)
    }

    #[test]
    fn the_scoped_launcher_runs_pid_zero_on_the_launching_thread() {
        let here = std::thread::current().id();
        let thread_of_pid = |_pid: usize| std::thread::current().id();
        for backend in EVERY_BACKEND {
            let (stats, plane) = plane_on(backend, 4);
            let threads = launch_plane(&plane, None, thread_of_pid).expect("clean job");
            assert_eq!(threads[0], here, "{backend:?}");
            for (pid, thread) in threads.iter().enumerate().skip(1) {
                assert_ne!(*thread, here, "{backend:?}: pid {pid}");
                assert!(!threads[..pid].contains(thread), "{backend:?}: pid {pid}");
            }
            // Four Force processes, whatever the host threads were.
            assert_eq!(stats.snapshot().processes_created, 4, "{backend:?}");

            // A force of one is the caller alone.
            let (stats, plane) = plane_on(backend, 1);
            assert_eq!(launch_plane(&plane, None, thread_of_pid), Ok(vec![here]));
            assert_eq!(stats.snapshot().processes_created, 1, "{backend:?}");
        }
        // A pool is the same fork-join: the caller is pid 0, and while pid
        // 0 waits for every peer, pids 1.. are distinct resident threads —
        // the same ones on the next job.
        let (stats, plane) = plane_on(ParkBackend::ThreadPerPid, 4);
        let pool = ForcePool::new(4, &stats);
        let everyone = std::sync::Barrier::new(4);
        let after_meeting = |pid: usize| {
            everyone.wait();
            thread_of_pid(pid)
        };
        let threads = launch_plane(&plane, Some(&pool), after_meeting).expect("clean job");
        assert_eq!(threads[0], here);
        for (pid, thread) in threads.iter().enumerate().skip(1) {
            assert!(!threads[..pid].contains(thread), "pid {pid}");
        }
        assert_eq!(
            launch_plane(&plane, Some(&pool), after_meeting),
            Ok(threads.clone())
        );
        // With nobody to wait for, pid 0 may return before a peer's worker
        // has woken: that pid then runs on the caller — once, and never on
        // another pid's worker.
        let runs: [AtomicUsize; 4] = Default::default();
        for _ in 0..50 {
            let ran = launch_plane(&plane, Some(&pool), |pid| {
                runs[pid].fetch_add(1, Ordering::Relaxed);
                thread_of_pid(pid)
            })
            .expect("clean job");
            assert_eq!(ran[0], here);
            for pid in 1..4 {
                assert!([here, threads[pid]].contains(&ran[pid]), "pid {pid}");
            }
        }
        assert!(runs.iter().all(|r| r.load(Ordering::Relaxed) == 50));
        assert_eq!(
            stats.snapshot().processes_created,
            4,
            "paid once, by the pool"
        );
    }

    #[test]
    fn a_loan_serves_the_plane_it_was_made_to_and_no_other() {
        let jobs_on = |lazy: &LazyPool| lazy.get().jobs_completed();
        let (stats, plane) = plane_on(ParkBackend::ThreadPerPid, 2);
        let lent = LazyPool::with_size(2, (&stats).into());
        plane.lend(&lent, None);
        assert!(!lent.is_created(), "lending creates nothing");

        // An attached pool wins: the loan is not even looked at.
        let own = ForcePool::new(2, &stats);
        assert_eq!(launch_plane(&plane, Some(&own), |pid| pid), Ok(vec![0, 1]));
        assert_eq!(own.jobs_completed(), 1);
        assert!(!lent.is_created());
        // So does an attached pool the job does not fit: scoped threads.
        let small = ForcePool::new(1, &stats);
        let before = stats.snapshot().processes_created;
        assert_eq!(
            launch_plane(&plane, Some(&small), |pid| pid),
            Ok(vec![0, 1])
        );
        assert_eq!(stats.snapshot().processes_created - before, 2);
        assert!(!lent.is_created());

        // No pool attached: the first launch makes the lent one (charged
        // once, to the lender's stats), and the job itself creates nothing.
        let before = stats.snapshot().processes_created;
        assert_eq!(launch_plane(&plane, None, |pid| pid), Ok(vec![0, 1]));
        assert_eq!(launch_plane(&plane, None, |pid| pid), Ok(vec![0, 1]));
        assert_eq!(jobs_on(&lent), 2);
        assert_eq!(stats.snapshot().processes_created - before, 2, "the pool");

        // A process of the lent job that launches a force of its own —
        // another plane — finds no loan there and runs scoped instead of
        // queueing behind the pool its own job occupies.
        let nested = launch_plane(&plane, None, |_| {
            let (inner_stats, inner) = plane_on(ParkBackend::ThreadPerPid, 2);
            let pids = launch_plane(&inner, None, |pid| pid);
            (pids, inner_stats.snapshot().processes_created)
        });
        assert_eq!(nested, Ok(vec![(Ok(vec![0, 1]), 2); 2]));
        assert_eq!(jobs_on(&lent), 3, "the outer job only");

        // Withdrawn, the plane is on its own again.
        plane.end_loan();
        let before = stats.snapshot().processes_created;
        assert_eq!(launch_plane(&plane, None, |pid| pid), Ok(vec![0, 1]));
        assert_eq!(stats.snapshot().processes_created - before, 2);
        assert_eq!(jobs_on(&lent), 3);
    }

    #[test]
    fn a_launch_gives_the_launching_thread_back_as_it_was() {
        fn lock_acquires(s: &OpStats) -> &std::sync::atomic::AtomicU64 {
            &s.lock_acquires
        }
        let acquires = |stats: &Arc<OpStats>| stats.snapshot().lock_acquires;
        for backend in EVERY_BACKEND {
            let inner_job = || {
                let (stats, plane) = plane_on(backend, 2);
                let pids = launch_plane(&plane, None, |_pid| {
                    fault::charge_current(&lock_acquires, 1);
                    let _in_barrier = fault::enter(Construct::Barrier);
                    fault::current_pid()
                });
                assert_eq!(pids, Ok(vec![Some(0), Some(1)]), "{backend:?}");
                assert_eq!(
                    acquires(&stats),
                    2,
                    "{backend:?}: charged to the inner plane"
                );
            };

            // From a session's driver thread: no process context before
            // or after, and the ambient binding still takes the charges.
            let session = Arc::new(OpStats::new());
            let _ambient = fault::bind_ambient_stats(StatsHandle::root(Arc::clone(&session)));
            inner_job();
            assert_eq!(fault::current_pid(), None, "{backend:?}");
            assert!(fault::charge_current(&lock_acquires, 1));
            assert_eq!(acquires(&session), 1, "{backend:?}: the ambient binding");

            // From inside a process of another force, on its own thread
            // (pid 1) and on its launcher's (pid 0): the outer context,
            // construct marker and plane accounting come back.
            let (outer_stats, outer) = plane_on(ParkBackend::ThreadPerPid, 2);
            launch_plane(&outer, None, |pid| {
                let _in_critical = fault::enter(Construct::Critical);
                inner_job();
                assert_eq!(fault::current_pid(), Some(pid), "{backend:?}");
                assert_eq!(fault::current_construct(), Construct::Critical);
                assert!(fault::charge_current(&lock_acquires, 1));
            })
            .expect("the outer job is clean");
            assert_eq!(acquires(&outer_stats), 2, "{backend:?}: the outer plane");
            assert_eq!(acquires(&session), 1, "{backend:?}: not the session");
        }
    }

    #[test]
    fn a_pooled_launch_inside_a_virtual_process_leaves_its_schedule_alone() {
        // Each pid of a virtual force forks a thread-per-pid job onto one
        // shared pool and joins it while a peer of that job is still
        // asleep.  The join is the launcher's wait, not the process's:
        // were it a park of the outer pid, every re-poll would be a
        // scheduling decision and their number a matter of wall time.
        let summary_of_a_run = || {
            let (stats, outer) = plane_on(ParkBackend::Virtual { seed: 1989 }, 3);
            let pool = ForcePool::new(3, &stats);
            let order = SpinLock::new(LockState::Unlocked, Arc::clone(&stats));
            launch_plane(&outer, None, |_| {
                order.lock();
                order.unlock();
                let (_, inner) = plane_on(ParkBackend::ThreadPerPid, 3);
                let pids = launch_plane(&inner, Some(&pool), |pid| {
                    std::thread::sleep(Duration::from_micros(150 * pid as u64));
                    pid
                });
                assert_eq!(pids, Ok(vec![0, 1, 2]));
                order.lock();
                order.unlock();
            })
            .expect("the outer job is clean");
            assert_eq!(pool.jobs_completed(), 3);
            outer.parker().virtual_summary().expect("a virtual plane")
        };
        let first = summary_of_a_run();
        for replay in 1..=20 {
            assert_eq!(summary_of_a_run(), first, "replay {replay}");
        }
    }

    #[test]
    fn a_panic_on_the_launching_thread_is_a_fault_like_any_other() {
        for backend in EVERY_BACKEND {
            for culprit in [0, 1] {
                let (stats, plane) = plane_on(backend, 3);
                // Held by the test: the peers park on it until cancelled.
                let wedge = SpinLock::new(LockState::Unlocked, Arc::clone(&stats));
                wedge.lock();
                let fault = launch_plane(&plane, None, |pid| {
                    if pid == culprit {
                        let _in_critical = fault::enter(Construct::Critical);
                        panic!("pid {pid} dies");
                    }
                    wedge.lock();
                })
                .expect_err("the panic is the job's fault");
                let expected = fault_in(culprit, "critical", &format!("pid {culprit} dies"));
                assert_eq!(fault, expected, "{backend:?}");
                assert_eq!(stats.snapshot().faults_detected, 1, "{backend:?}");
                assert!(plane.take_payload().is_some(), "the payload to re-raise");
                assert_eq!(fault::current_pid(), None, "{backend:?}");
            }
        }
    }

    type Outcome = Result<Vec<usize>, ProcessFault>;

    /// The pool's size for an `n`-pid job (0 = no pool).
    type PoolSize = fn(usize) -> usize;

    /// How the pool reaches the launcher: handed to [`launch_plane`] by
    /// the caller, or lent to the plane as a server shard does.
    #[derive(Clone, Copy, PartialEq, Debug)]
    enum Pool {
        Attached,
        Lent,
    }

    /// The five launch scenarios under one launch configuration.
    fn scenarios(backend: ParkBackend, pool_size: PoolSize, how: Pool) -> [Outcome; 5] {
        let config = |watchdog| RunOptions {
            watchdog,
            backend,
            ..RunOptions::default()
        };
        let rig = |nproc: usize, watchdog: Option<Duration>| {
            let stats = Arc::new(OpStats::new());
            let workers = pool_size(nproc);
            let pool =
                (workers > 0 && how == Pool::Attached).then(|| ForcePool::new(workers, &stats));
            let plane = FaultPlane::new(nproc, Arc::clone(&stats), config(watchdog));
            if workers > 0 && how == Pool::Lent {
                // Lent once, like an attempt that runs every job below:
                // `reset_for_job` between them must leave the loan alone.
                plane.lend(&LazyPool::with_size(workers, (&stats).into()), None);
            }
            // Held by the test forever: a pid that asks for it parks until cancelled.
            let wedge = SpinLock::new(LockState::Unlocked, Arc::clone(&stats));
            wedge.lock();
            (stats, pool, plane, wedge)
        };
        // The session step between jobs, then a clean job: whatever the
        // last job did, the same plane and pool serve the next one.
        let next_job_succeeds = |plane: &Arc<FaultPlane>, pool: Option<&ForcePool>| {
            plane.reset_for_job(config(None));
            let all = (0..plane.nproc()).collect();
            assert_eq!(launch_plane(plane, pool, |pid| pid), Ok(all));
        };

        // Every pid runs exactly once; results come back in pid order;
        // a pool charges nothing, scoped threads charge `nproc`.  A pool
        // charges its size when it is made: an attached one always, a
        // lent one only if a job ever ran on it.
        let (stats, pool, plane, _) = rig(3, None);
        let hits = AtomicUsize::new(0);
        let clean = launch_plane(&plane, pool.as_ref(), |pid| {
            hits.fetch_add(1, Ordering::Relaxed);
            pid * 2
        });
        assert_eq!(hits.load(Ordering::Relaxed), 3);
        let pooled = backend == ParkBackend::ThreadPerPid && pool_size(3) >= 3;
        let resident = if pooled || how == Pool::Attached {
            pool_size(3) as u64
        } else {
            0
        };
        let charged = stats.snapshot().processes_created - resident;
        assert_eq!(charged, if pooled { 0 } else { 3 });
        assert!(!plane.is_tripped());

        // pid 1 panics; pids 0 and 2 are parked on the wedge and only
        // cancellation frees them.
        let (stats, pool, plane, wedge) = rig(3, None);
        let panicked = launch_plane(&plane, pool.as_ref(), |pid| {
            if pid == 1 {
                panic!("pid one dies");
            }
            wedge.lock();
            pid
        });
        assert_eq!(stats.snapshot().faults_detected, 1);
        next_job_succeeds(&plane, pool.as_ref());

        // Culprit 0: the launching thread's own pid panics while pids 1
        // and 2 are parked on the wedge.  The launch must outlast them —
        // the body borrows this frame — so a pid that entered the body
        // counts itself out as it unwinds, and takes its time about it.
        struct Inside<'a>(&'a AtomicUsize);
        impl Drop for Inside<'_> {
            fn drop(&mut self) {
                std::thread::sleep(Duration::from_millis(5));
                self.0.fetch_sub(1, Ordering::SeqCst);
            }
        }
        let (stats, pool, plane, wedge) = rig(3, None);
        let inside = AtomicUsize::new(0);
        let launcher_panicked = launch_plane(&plane, pool.as_ref(), |pid| {
            if pid == 0 {
                panic!("pid zero dies");
            }
            inside.fetch_add(1, Ordering::SeqCst);
            let _inside = Inside(&inside);
            wedge.lock();
            pid
        });
        assert_eq!(
            inside.load(Ordering::SeqCst),
            0,
            "returned over a running pid"
        );
        assert_eq!(stats.snapshot().faults_detected, 1);
        next_job_succeeds(&plane, pool.as_ref());

        // What a faulted job leaves behind when the session forgets
        // `reset_for_job`: a tripped token, the fault already consumed.
        let (_, pool, plane, _) = rig(3, None);
        plane.trip(fault_in(2, "body", "earlier job"), None);
        assert!(plane.take_fault().is_some());
        let stale = launch_plane(&plane, pool.as_ref(), |pid| {
            fault::check_cancel();
            pid
        });

        // Two pids deadlocked on a lock under a 50 ms watchdog.  The wall
        // watchdog and the virtual scheduler word their reports (and pick
        // their parked witness) differently; what must agree is that a
        // deadlock was declared, and in which construct.
        let (stats, pool, plane, wedge) = rig(2, Some(Duration::from_millis(50)));
        let deadlocked = launch_plane(&plane, pool.as_ref(), |pid| {
            wedge.lock();
            pid
        })
        .map_err(|f| {
            assert!(f.payload.contains("deadlock"), "{}", f.payload);
            fault_in(0, f.construct, "deadlock")
        });
        assert_eq!(stats.snapshot().watchdog_trips, 1);
        next_job_succeeds(&plane, pool.as_ref());

        [clean, panicked, launcher_panicked, stale, deadlocked]
    }

    fn fault_in(pid: usize, construct: &'static str, payload: &str) -> ProcessFault {
        ProcessFault {
            pid,
            construct,
            payload: payload.to_string(),
        }
    }

    #[test]
    fn launch_matrix_every_scenario_agrees_across_every_launcher() {
        use ParkBackend::{ThreadPerPid, Virtual};
        let scoped = scenarios(ThreadPerPid, |_| 0, Pool::Attached);
        assert_eq!(scoped[0], Ok(vec![0, 2, 4]));
        assert_eq!(scoped[1], Err(fault_in(1, "body", "pid one dies")));
        assert_eq!(scoped[2], Err(fault_in(0, "body", "pid zero dies")));
        let stale = scoped[3].as_ref().expect_err("stale trip");
        assert!(stale.payload.contains("missing reset_for_job"), "{stale}");
        assert_eq!(scoped[4], Err(fault_in(0, "lock", "deadlock")));
        // The virtual row gets a pool the job *fits*, so only the
        // backend can be what sends it to scoped threads.
        let pooled: [(&str, ParkBackend, PoolSize); 3] = [
            ("pooled fit", ThreadPerPid, |n| n),
            ("pooled oversize", ThreadPerPid, |n| n - 1),
            ("virtual with a pool", Virtual { seed: 1989 }, |n| n),
        ];
        for (name, backend, pool_size) in pooled {
            for how in [Pool::Attached, Pool::Lent] {
                let outcomes = scenarios(backend, pool_size, how);
                assert_eq!(outcomes, scoped, "{name}, {how:?}, vs scoped");
            }
        }
    }
}
