//! Stress and endurance tests: many construct episodes back to back,
//! heavy reentry, deep Askfor recursion, and long pipelines — the places
//! where a barrier or full/empty protocol that is *almost* right
//! deadlocks or drops a token.

mod support;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use the_force::fortran::Value;
use the_force::machdep::combined::CombinedLock;
use the_force::machdep::syscall_lock::SyscallLock;
use the_force::machdep::{
    launch_plane, FaultConfig, FaultPlane, ForcePool, LockState, Machine, MachineId, OpStats,
    RawLock,
};
use the_force::prelude::*;

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
    // Two submitters contend for one pool with empty jobs of every width
    // it hosts, so each hand-off — the queue for the pool, the posts to
    // the workers, the join in its polled and its parked form — is taken
    // a few hundred thousand times against a peer that is doing the same.
    // A lost wake-up cannot fail an assertion, it hangs; so the
    // submitters are plain threads and this one watches the count move.
    const JOBS: u64 = 100_000;
    let stats = Arc::new(OpStats::new());
    let pool = Arc::new(ForcePool::new(4, &stats));
    let submitters: Vec<_> = (0..2u64)
        .map(|submitter| {
            let (pool, stats) = (Arc::clone(&pool), Arc::clone(&stats));
            std::thread::spawn(move || {
                let planes: Vec<_> = (1..=4)
                    .map(|nproc| FaultPlane::new(nproc, Arc::clone(&stats), FaultConfig::default()))
                    .collect();
                for job in 0..JOBS {
                    let plane = &planes[((job + submitter) % 4) as usize];
                    let pids = pool.run_plane(plane, |pid| pid).expect("a null job");
                    assert!(pids.into_iter().eq(0..plane.nproc()));
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

/// `threads` lockers take and release `lock` `ROUNDS` times each, as the
/// processes of a force (timed-slice waits) or as plain threads (untimed
/// waits), while the caller watches the acquisition count move.  The
/// lockers are detached threads: a lost wake-up hangs them, and the
/// watcher's failure must not wait for them.
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
    let lockers: Vec<_> = if in_force {
        let plane = FaultPlane::new(threads, Arc::clone(stats), FaultConfig::default());
        vec![std::thread::spawn(move || {
            launch_plane(&plane, None, locker).expect("no locker faults");
        })]
    } else {
        (0..threads)
            .map(|pid| {
                let locker = locker.clone();
                std::thread::spawn(move || locker(pid))
            })
            .collect()
    };
    let mut moved = (0, Instant::now());
    while lockers.iter().any(|l| !l.is_finished()) {
        std::thread::sleep(Duration::from_millis(20));
        let now = acquired.load(Ordering::Relaxed);
        if now != moved.0 {
            moved = (now, Instant::now());
        }
        assert!(
            moved.1.elapsed() < Duration::from_secs(5),
            "{threads} lockers (in a force: {in_force}) stalled at {now} acquisitions"
        );
    }
    for locker in lockers {
        locker.join().expect("a locker failed");
    }
    assert_eq!(acquired.load(Ordering::Relaxed), threads as u64 * ROUNDS);
    assert!(!lock.is_locked());
}

/// Both storms: plain threads first, where a missed wake is for good.
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
    // on a free lock — for good outside a force, where waits are untimed.
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
