//! System-call lock — the Cray-2 lock personality.
//!
//! §4.1.3: "system call locks: operating system handles a list of locked
//! processes in cooperation with the scheduler (Cray)".  Every operation
//! goes through the "operating system" (here a [`Mutex`] + [`Condvar`],
//! i.e. a futex on Linux) and blocked processes are parked, not
//! spinning.  Each acquire and release is accounted as a system call.

use crate::fault;
use crate::lock::{LockKind, LockState, RawLock};
use crate::park::{self, Waiters};
use crate::portable::{Condvar, Mutex};
use crate::stats::StatsHandle;

/// An OS-managed binary semaphore: waiters are descheduled.
pub struct SyscallLock {
    state: Mutex<bool>, // true = locked
    cond: Condvar,
    /// Processes that found the lock held and have not acquired it yet;
    /// a release with none skips the wake.
    waiters: Waiters,
    stats: StatsHandle,
}

impl SyscallLock {
    /// Create a system-call lock in the given initial state.  Runtime
    /// charges are context-preferred (see [`StatsHandle`]), so a pooled
    /// Cray-2 slot shared by several planes attributes each operation to
    /// the plane performing it.
    pub fn new(initial: LockState, stats: impl Into<StatsHandle>) -> Self {
        let stats = stats.into();
        stats.count(|s| &s.locks_created);
        SyscallLock {
            state: Mutex::new(initial == LockState::Locked),
            cond: Condvar::new(),
            waiters: Waiters::default(),
            stats,
        }
    }
}

impl RawLock for SyscallLock {
    fn lock(&self) {
        self.stats.count(|s| &s.syscalls);
        // An injected spurious failure is accounted as one contended attempt.
        let mut waited = fault::spurious_lock_failure();
        // The parking layer bills one park per blocking episode (however
        // often it wakes) and deschedules the waiter — a syscall lock
        // never spins.  The waiter registers under the mutex, the first
        // time it finds the lock held: a release after that sees it, a
        // release before it left the lock free for this very test.
        let mut registered = None;
        park::wait_on(&self.state, &self.cond, fault::Construct::Lock, |locked| {
            if *locked {
                waited = true;
                registered.get_or_insert_with(|| self.waiters.register());
                false
            } else {
                *locked = true;
                true
            }
        });
        drop(registered);
        self.stats.count(|s| &s.lock_acquires);
        if waited {
            self.stats.count(|s| &s.lock_contended);
        }
        crate::trace::lock_acquired(waited);
    }

    fn unlock(&self) {
        self.stats.count(|s| &s.syscalls);
        {
            let mut locked = self.state.lock();
            *locked = false;
        }
        if self.waiters.any() {
            self.cond.notify_one();
        }
        self.stats.count(|s| &s.lock_releases);
    }

    fn try_lock(&self) -> bool {
        self.stats.count(|s| &s.syscalls);
        let mut locked = self.state.lock();
        if *locked {
            false
        } else {
            *locked = true;
            self.stats.count(|s| &s.lock_acquires);
            true
        }
    }

    fn is_locked(&self) -> bool {
        *self.state.lock()
    }

    fn kind(&self) -> LockKind {
        LockKind::Syscall
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::OpStats;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    fn mk(initial: LockState) -> (Arc<SyscallLock>, Arc<OpStats>) {
        let stats = Arc::new(OpStats::new());
        (
            Arc::new(SyscallLock::new(initial, Arc::clone(&stats))),
            stats,
        )
    }

    #[test]
    fn basic_lock_unlock() {
        let (l, _) = mk(LockState::Unlocked);
        l.lock();
        assert!(l.is_locked());
        assert!(!l.try_lock());
        l.unlock();
        assert!(!l.is_locked());
    }

    #[test]
    fn initially_locked_blocks_until_released() {
        let (l, _) = mk(LockState::Locked);
        let l2 = Arc::clone(&l);
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            l2.unlock();
        });
        l.lock(); // must block ~20ms then acquire
        t.join().unwrap();
        assert!(l.is_locked());
    }

    #[test]
    fn waiters_park_instead_of_spin() {
        let (l, stats) = mk(LockState::Locked);
        // Park accounting flows through the force's fault context, so the
        // waiter runs as a (one-process) force.
        let l2 = Arc::clone(&l);
        let stats2 = Arc::clone(&stats);
        let t = std::thread::spawn(move || {
            crate::process::spawn_force(1, &stats2, |_| {
                l2.lock();
                l2.unlock();
            });
        });
        std::thread::sleep(Duration::from_millis(20));
        l.unlock();
        t.join().unwrap();
        let s = stats.snapshot();
        assert!(s.parks >= 1, "waiter should have parked, stats: {s:?}");
        assert_eq!(s.park_wakes, s.parks, "every park ends in one wake");
        assert_eq!(s.spin_retries, 0, "a syscall lock never spins");
        assert!(s.syscalls >= 3, "every op is a syscall");
    }

    #[test]
    fn a_cancelled_waiter_deregisters() {
        let (l, stats) = mk(LockState::Locked);
        l.waiters.check_cancelled_waiter_deregisters(&*l, stats);
    }

    #[test]
    fn mutual_exclusion_under_contention() {
        let (l, _) = mk(LockState::Unlocked);
        let counter = Arc::new(AtomicU64::new(0));
        std::thread::scope(|s| {
            for _ in 0..8 {
                let l = Arc::clone(&l);
                let counter = Arc::clone(&counter);
                s.spawn(move || {
                    for _ in 0..200 {
                        l.lock();
                        let v = counter.load(Ordering::Relaxed);
                        counter.store(v + 1, Ordering::Relaxed);
                        l.unlock();
                    }
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 8 * 200);
    }
}
