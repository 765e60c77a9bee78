//! Stress and endurance tests: many construct episodes back to back,
//! heavy reentry, deep Askfor recursion, and long pipelines — the places
//! where a barrier or full/empty protocol that is *almost* right
//! deadlocks or drops a token.

mod support;

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use the_force::fortran::Value;
use the_force::machdep::combined::CombinedLock;
use the_force::machdep::syscall_lock::SyscallLock;
use the_force::machdep::{
    launch_plane, park, Condvar, Construct, FaultPlane, ForcePool, LockState, Machine, MachineId,
    Mutex, OpStats, ProcessFault, RawLock, RunOptions,
};
use the_force::prelude::*;
use the_force::serve::{
    ForceServer, JobOutcome, JobRunner, JobSpec, JobYield, Priority, ServerConfig,
};

#[test]
fn thousand_barrier_episodes() {
    let force = Force::new(4);
    let counter = AtomicU64::new(0);
    force.run(|p| {
        for _ in 0..1000 {
            p.barrier_section(|| {
                counter.fetch_add(1, Ordering::SeqCst);
            });
        }
    });
    assert_eq!(counter.load(Ordering::SeqCst), 1000);
}

#[test]
fn alternating_constructs_reentry() {
    // Cycle through every collective construct repeatedly; any protocol
    // that leaks an arrival count or a lock state will wedge or corrupt.
    let force = Force::new(3);
    let acc = AtomicU64::new(0);
    force.run(|p| {
        for round in 0..40 {
            p.selfsched_do(ForceRange::to(1, 10), |i| {
                acc.fetch_add(i as u64, Ordering::Relaxed);
            });
            p.presched_do(ForceRange::to(1, 10), |i| {
                acc.fetch_add(i as u64, Ordering::Relaxed);
            });
            p.pcase()
                .sect(|| {
                    acc.fetch_add(1, Ordering::Relaxed);
                })
                .sect(|| {
                    acc.fetch_add(2, Ordering::Relaxed);
                })
                .selfsched();
            p.askfor(
                || vec![4u64],
                |n, pot| {
                    if n > 1 {
                        pot.post(n - 1);
                    } else {
                        acc.fetch_add(10, Ordering::Relaxed);
                    }
                },
            );
            p.resolve(&[1, 2], |c| {
                if c.rank() == 0 {
                    acc.fetch_add(c.index() as u64, Ordering::Relaxed);
                }
            });
            p.barrier();
            let _ = round;
        }
    });
    // per round: 55 + 55 + 3 + 10 + (0 + 1) = 124
    assert_eq!(acc.load(Ordering::Relaxed), 40 * 124);
}

#[test]
fn deep_askfor_recursion() {
    let force = Force::new(4);
    let leaves = AtomicU64::new(0);
    force.run(|p| {
        p.askfor(
            || vec![4096u64],
            |n, pot| {
                if n > 1 {
                    pot.post(n / 2);
                    pot.post(n - n / 2);
                } else {
                    leaves.fetch_add(1, Ordering::Relaxed);
                }
            },
        );
    });
    assert_eq!(leaves.load(Ordering::Relaxed), 4096);
}

#[test]
fn long_async_pipeline_many_tokens() {
    // 10_000 tokens through one cell between two processes, twice (once
    // on hardware full/empty, once on the two-lock emulation).
    for id in [MachineId::Hep, MachineId::SequentBalance] {
        let machine = Machine::new(id);
        let chan: Async<u64> = Async::new(&machine);
        let sum = AtomicU64::new(0);
        std::thread::scope(|s| {
            s.spawn(|| {
                for i in 1..=10_000u64 {
                    chan.produce(i);
                }
            });
            s.spawn(|| {
                for _ in 0..10_000u64 {
                    sum.fetch_add(chan.consume(), Ordering::Relaxed);
                }
            });
        });
        assert_eq!(sum.load(Ordering::Relaxed), 50_005_000, "{}", id.name());
        assert!(!chan.is_full());
    }
}

#[test]
fn interpreter_endurance_many_construct_episodes() {
    // 60 rounds of (selfsched + barrier + critical) in the language, on
    // the two most different machines.
    let src = "\
      Force FMAIN of NP ident ME
      Shared INTEGER N
      Private INTEGER R, K
      End declarations
      DO 20 R = 1, 60
      Selfsched DO 100 K = 1, 5
      Critical L
      N = N + 1
      End critical
100   End selfsched DO
      Barrier
      N = N + 1
      End barrier
20    CONTINUE
      Join
";
    for id in [MachineId::Hep, MachineId::Cray2] {
        let out = support::run_checked(src, id, 4);
        assert_eq!(
            out.shared_scalar("N"),
            Some(Value::Int(60 * 6)),
            "{}",
            id.name()
        );
        assert_eq!(out.shared_scalar("ZZNBAR"), Some(Value::Int(0)));
    }
}

#[test]
fn many_forces_sequentially_on_one_machine() {
    // Machine state (stats, startup registry) must tolerate run after run.
    let machine = Machine::new(MachineId::SequentBalance);
    for round in 1..=20u64 {
        let force = Force::with_machine(3, std::sync::Arc::clone(&machine));
        let acc = AtomicU64::new(0);
        force.run(|p| {
            p.selfsched_do(ForceRange::to(1, 20), |i| {
                acc.fetch_add(i as u64, Ordering::Relaxed);
            });
        });
        assert_eq!(acc.load(Ordering::Relaxed), 210, "round {round}");
    }
}

#[test]
fn wide_force_oversubscribed() {
    // 16 processes on however few cores the host has: correctness must
    // not depend on real parallelism.
    let force = Force::new(16);
    let acc = AtomicU64::new(0);
    force.run(|p| {
        p.selfsched_do(ForceRange::to(1, 500), |i| {
            acc.fetch_add(i as u64, Ordering::Relaxed);
        });
        p.barrier();
        p.pcase()
            .sect(|| {
                acc.fetch_add(1, Ordering::Relaxed);
            })
            .selfsched();
    });
    assert_eq!(acc.load(Ordering::Relaxed), 125_250 + 1);
}

#[test]
fn pool_handoff_never_loses_a_wakeup() {
    // Two submitters contend for one pool with jobs of every width it
    // hosts, so each hand-off — the queue for the pool, the posts to the
    // workers, the take-back of a pid nobody has started, the join in its
    // polled and its parked form — is taken a few hundred thousand times
    // against a peer that is doing the same.  Every third job rendezvouses
    // all its pids, so it needs every worker it posts to, right after
    // empty jobs whose late workers woke to an empty slot.  A pid runs
    // exactly once, on its own worker or on its submitter.  A lost
    // wake-up cannot fail an assertion, it hangs; so the submitters are
    // plain threads and this one watches the count move.
    const JOBS: u64 = 100_000;
    let stats = Arc::new(OpStats::new());
    let pool = Arc::new(ForcePool::new(4, &stats));
    let worker_of: Arc<Vec<String>> =
        Arc::new((0..4).map(|pid| format!("force-pool-{pid}")).collect());
    let submitters: Vec<_> = (0..2u64)
        .map(|submitter| {
            let (pool, stats) = (Arc::clone(&pool), Arc::clone(&stats));
            let worker_of = Arc::clone(&worker_of);
            std::thread::spawn(move || {
                let me = std::thread::current().id();
                let planes: Vec<_> = (1..=4)
                    .map(|nproc| FaultPlane::new(nproc, Arc::clone(&stats), RunOptions::default()))
                    .collect();
                let rendezvous: Vec<_> = (1..=4).map(std::sync::Barrier::new).collect();
                for job in 0..JOBS {
                    let width = ((job + submitter) % 4) as usize;
                    let (plane, everyone) = (&planes[width], &rendezvous[width]);
                    let meet = job % 3 == 0;
                    let runs: Vec<AtomicU64> =
                        (0..plane.nproc()).map(|_| AtomicU64::new(0)).collect();
                    let threads = pool
                        .run_plane(plane, |pid| {
                            runs[pid].fetch_add(1, Ordering::Relaxed);
                            if meet {
                                everyone.wait();
                            }
                            std::thread::current()
                        })
                        .expect("a clean job");
                    for (pid, thread) in threads.iter().enumerate() {
                        assert_eq!(runs[pid].load(Ordering::Relaxed), 1, "job {job}: pid {pid}");
                        let on_submitter = thread.id() == me;
                        let on_own_worker = thread.name() == Some(worker_of[pid].as_str());
                        let allowed = match (pid, meet) {
                            (0, _) => on_submitter,
                            (_, true) => on_own_worker,
                            (_, false) => on_submitter || on_own_worker,
                        };
                        assert!(
                            allowed,
                            "job {job} (rendezvous {meet}): pid {pid} ran on {thread:?}"
                        );
                    }
                }
            })
        })
        .collect();
    let mut moved = (pool.jobs_completed(), Instant::now());
    while submitters.iter().any(|s| !s.is_finished()) {
        std::thread::sleep(Duration::from_millis(20));
        let completed = pool.jobs_completed();
        if completed != moved.0 {
            moved = (completed, Instant::now());
        }
        assert!(
            moved.1.elapsed() < Duration::from_secs(5),
            "the pool has stalled at {completed} jobs"
        );
    }
    for submitter in submitters {
        submitter.join().expect("a submitter failed");
    }
    assert_eq!(pool.jobs_completed(), 2 * JOBS);
}

/// Run `body(pid)` on `threads` lockers, as the processes of a force or
/// as plain threads, while the caller watches `progress` move; five
/// seconds without movement fail the test.  Waits are untimed either way
/// (a trip wakes a force's waiters, nothing else does), so a lost wake-up
/// hangs the lockers for good; they are detached threads, and the
/// watcher's failure must not wait for them.
fn watched<F>(
    what: &str,
    threads: usize,
    in_force: bool,
    stats: &Arc<OpStats>,
    progress: &AtomicU64,
    body: F,
) where
    F: Fn(usize) + Clone + Send + Sync + 'static,
{
    let lockers: Vec<_> = if in_force {
        let plane = FaultPlane::new(threads, Arc::clone(stats), RunOptions::default());
        vec![std::thread::spawn(move || {
            launch_plane(&plane, None, body).expect("no locker faults");
        })]
    } else {
        (0..threads)
            .map(|pid| {
                let body = body.clone();
                std::thread::spawn(move || body(pid))
            })
            .collect()
    };
    let mut moved = (0, Instant::now());
    while lockers.iter().any(|l| !l.is_finished()) {
        std::thread::sleep(Duration::from_millis(20));
        let now = progress.load(Ordering::Relaxed);
        if now != moved.0 {
            moved = (now, Instant::now());
        }
        assert!(
            moved.1.elapsed() < Duration::from_secs(5),
            "{what}: {threads} lockers (in a force: {in_force}) stalled at {now}"
        );
    }
    for locker in lockers {
        locker.join().expect("a locker failed");
    }
}

/// `threads` lockers take and release `lock` `ROUNDS` times each.  The
/// count is the progress the watcher sees.
fn lock_storm(lock: &Arc<dyn RawLock>, stats: &Arc<OpStats>, threads: usize, in_force: bool) {
    const ROUNDS: u64 = 100_000;
    let acquired = Arc::new(AtomicU64::new(0));
    let locker = {
        let (lock, acquired) = (Arc::clone(lock), Arc::clone(&acquired));
        move |_pid: usize| {
            for round in 0..ROUNDS {
                lock.lock();
                // Not an atomic increment: the lock is what makes it exact.
                let n = acquired.load(Ordering::Relaxed);
                if round % 64 == 0 {
                    // Hold across a reschedule now and then, so that
                    // waiters run out of spins and park.
                    std::thread::yield_now();
                }
                acquired.store(n + 1, Ordering::Relaxed);
                lock.unlock();
            }
        }
    };
    watched("lock storm", threads, in_force, stats, &acquired, locker);
    assert_eq!(acquired.load(Ordering::Relaxed), threads as u64 * ROUNDS);
    assert!(!lock.is_locked());
}

/// Both storms, plain threads first; a missed wake is for good in each.
fn storms(lock: Arc<dyn RawLock>, stats: &Arc<OpStats>) {
    for (threads, in_force) in [(2, false), (8, false), (2, true), (8, true)] {
        lock_storm(&lock, stats, threads, in_force);
    }
    let s = stats.snapshot();
    assert!(s.parks > 0, "no waiter ever parked: {s:?}");
}

#[test]
fn combined_lock_unlock_never_loses_a_wakeup() {
    // An unlock wakes only a registered waiter; a registration the
    // unlocker misses, or a wake it skips wrongly, leaves a waiter asleep
    // on a free lock, for good: waits are untimed, in a force or not.
    let stats = Arc::new(OpStats::new());
    let lock = CombinedLock::new(LockState::Unlocked, Arc::clone(&stats));
    storms(Arc::new(lock), &stats);
}

#[test]
fn syscall_lock_unlock_never_loses_a_wakeup() {
    let stats = Arc::new(OpStats::new());
    let lock = SyscallLock::new(LockState::Unlocked, Arc::clone(&stats));
    storms(Arc::new(lock), &stats);
}

/// One lock, waited on by processes of two planes — a pooled Cray-2 slot
/// serves every session on its machine — and held by a plain thread that
/// releases it and trips plane 1 back to back, `ROUNDS` times.  The
/// unlock's one wake may go to plane 1's waiter, which the trip then
/// cancels: it must pass the wake on, or plane 2's waiter sleeps on a
/// free lock for good.  Plane 1's pid 0 sleeps on a mutex a helper holds
/// across the trip, so the trip reaches the lock waiter's wake handle
/// only after that waiter has left: the wake plane 2 needs can come from
/// nowhere else.
fn a_cancelled_waiter_passes_its_wake_on(lock: Arc<dyn RawLock>, stats: &Arc<OpStats>) {
    const ROUNDS: u64 = 1_000;
    let rounds = Arc::new(AtomicU64::new(0));
    let body = {
        let (lock, rounds, stats) = (Arc::clone(&lock), Arc::clone(&rounds), Arc::clone(stats));
        move |_| {
            for _ in 0..ROUNDS {
                one_cancelled_waiter(&*lock, &stats);
                rounds.fetch_add(1, Ordering::Relaxed);
            }
        }
    };
    watched("cross-plane waiters", 1, false, stats, &rounds, body);
    assert_eq!(rounds.load(Ordering::Relaxed), ROUNDS);
    assert!(!lock.is_locked());
}

fn one_cancelled_waiter(lock: &dyn RawLock, stats: &Arc<OpStats>) {
    let plane = |nproc| FaultPlane::new(nproc, Arc::clone(stats), RunOptions::default());
    let (cancelled, other) = (plane(2), plane(1));
    let parks = |plane: &FaultPlane| plane.live_stats().parks;
    let stall = (Mutex::new(()), Condvar::new());
    let stall_held = AtomicBool::new(false);
    lock.lock();
    std::thread::scope(|s| {
        let cancelled_job = s.spawn(|| {
            launch_plane(&cancelled, None, |pid| match pid {
                0 => park::wait_on(&stall.0, &stall.1, Construct::Body, |_| false),
                _ => {
                    lock.lock();
                    lock.unlock();
                }
            })
        });
        while parks(&cancelled) < 2 {
            std::thread::yield_now();
        }
        let other_job = s.spawn(|| {
            launch_plane(&other, None, |_| {
                lock.lock();
                lock.unlock();
            })
        });
        while parks(&other) < 1 {
            std::thread::yield_now();
        }
        let staller = s.spawn(|| {
            let _held = stall.0.lock();
            stall_held.store(true, Ordering::Release);
            std::thread::sleep(Duration::from_millis(1));
        });
        while !stall_held.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
        lock.unlock();
        cancelled.trip(
            ProcessFault {
                pid: 0,
                construct: "test",
                payload: "cancel plane 1".into(),
            },
            None,
        );
        staller.join().expect("the staller");
        assert!(cancelled_job.join().expect("plane 1's launcher").is_err());
        assert_eq!(other_job.join().expect("plane 2's launcher"), Ok(vec![()]));
    });
}

#[test]
fn a_cancelled_waiter_does_not_strand_another_planes_waiter() {
    let stats = Arc::new(OpStats::new());
    let syscall = SyscallLock::new(LockState::Unlocked, Arc::clone(&stats));
    a_cancelled_waiter_passes_its_wake_on(Arc::new(syscall), &stats);
    let combined = CombinedLock::new(LockState::Unlocked, Arc::clone(&stats));
    a_cancelled_waiter_passes_its_wake_on(Arc::new(combined), &stats);
}

/// The `sum` program's shape on a machine's own locks: every trip claims
/// the next index under one lock, then adds it to a total under
/// another.  A process whose acquisition failed holds off before it
/// looks again (`park::lock_wait`), so a holder that re-takes a lock on
/// its next trip usually keeps it; a waiter starved that way would stall
/// this loop before any other.
fn claim_and_add(id: MachineId, threads: usize, in_force: bool) {
    const TRIPS: u64 = 100_000;
    let machine = Machine::new(id);
    let claim = machine.make_dedicated_lock(LockState::Unlocked);
    let critical = machine.make_dedicated_lock(LockState::Unlocked);
    // Plain loads and stores: the locks are what make them exact.
    let next = Arc::new(AtomicU64::new(1));
    let total = Arc::new(AtomicU64::new(0));
    let body = {
        let (next, total) = (Arc::clone(&next), Arc::clone(&total));
        move |_pid: usize| loop {
            claim.lock();
            let k = next.load(Ordering::Relaxed);
            next.store(k + 1, Ordering::Relaxed);
            claim.unlock();
            if k > TRIPS {
                return;
            }
            critical.lock();
            total.store(total.load(Ordering::Relaxed) + k, Ordering::Relaxed);
            critical.unlock();
        }
    };
    let what = format!("claim-and-add on {}", id.name());
    watched(&what, threads, in_force, machine.stats(), &next, body);
    // Every process claims once past the end.
    assert_eq!(
        next.load(Ordering::Relaxed),
        TRIPS + 1 + threads as u64,
        "{what}"
    );
    assert_eq!(
        total.load(Ordering::Relaxed),
        TRIPS * (TRIPS + 1) / 2,
        "{what}"
    );
}

#[test]
fn a_claim_and_a_critical_per_trip_never_starve() {
    let machines = [
        MachineId::SequentBalance,
        MachineId::EncoreMultimax,
        MachineId::AlliantFx8,
        MachineId::Hep,
        MachineId::Flex32,
    ];
    for id in machines {
        for (threads, in_force) in [(2, false), (8, false), (2, true), (8, true)] {
            claim_and_add(id, threads, in_force);
        }
    }
}

/// `CLIENTS` closed-loop clients of one server with `shards` shards, at
/// every priority.  Half of them wait for each outcome (and so run their
/// own jobs when they can); the other half poll `try_outcome` for every
/// other job, which the dispatcher serves, and wait for the rest.  After
/// each job the clients meet at a barrier, so the last waiter to give a
/// shard's run slot back in a round must wake the dispatcher for the jobs
/// still queued, with no later submission to cover for a lost wake-up,
/// which therefore hangs the clients; the watcher fails a 5 s stall.
fn served_clients(shards: usize) {
    const CLIENTS: usize = 6;
    const JOBS: u64 = 500;
    let stats = Arc::new(OpStats::new());
    let server = Arc::new(ForceServer::new(
        ServerConfig {
            shards,
            ..ServerConfig::default()
        },
        &stats,
    ));
    // Clients 0 and 1 share a shard, 2 and 3 the next, and so on.
    let tenants: Arc<Vec<String>> = Arc::new(
        (0..CLIENTS)
            .map(|client| {
                (0..)
                    .map(|i| format!("client-{client}-{i}"))
                    .find(|t| server.shard_of(t) == (client / 2) % shards)
                    .expect("some tenant hashes to every shard")
            })
            .collect(),
    );
    let ran = Arc::new(AtomicU64::new(0));
    let done = Arc::new(AtomicU64::new(0));
    let meet = Arc::new(std::sync::Barrier::new(CLIENTS));
    let (client_server, client_ran, client_done) =
        (Arc::clone(&server), Arc::clone(&ran), Arc::clone(&done));
    watched(
        &format!("{shards} shard(s) serving"),
        CLIENTS,
        false,
        &stats,
        &done,
        move |client| {
            let priorities = [Priority::High, Priority::Normal, Priority::Low];
            for job in 0..JOBS {
                let spec = JobSpec::for_tenant(tenants[client].as_str())
                    .with_priority(priorities[(job as usize + client) % 3]);
                let runs = Arc::clone(&client_ran);
                // Long enough for the other clients to queue behind it.
                let runner: JobRunner = Box::new(move |_cx| {
                    runs.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(Duration::from_micros(200));
                    Ok(JobYield::default())
                });
                let handle = client_server.submit(spec, runner).expect_admitted();
                let polls = client % 2 == 1 && job % 2 == 1;
                let outcome = if !polls {
                    handle.wait()
                } else {
                    loop {
                        match handle.try_outcome() {
                            Some(outcome) => break outcome,
                            None => std::thread::yield_now(),
                        }
                    }
                };
                assert_eq!(outcome, JobOutcome::Completed { retries: 0 });
                client_done.fetch_add(1, Ordering::Relaxed);
                meet.wait();
            }
        },
    );
    server.shutdown();
    let jobs = CLIENTS as u64 * JOBS;
    assert_eq!(
        ran.load(Ordering::Relaxed),
        jobs,
        "a job ran twice or never"
    );
    assert_eq!(server.server_report().completed, jobs);
}

#[test]
fn served_jobs_never_lose_a_wakeup() {
    for shards in [1, 2] {
        served_clients(shards);
    }
}
