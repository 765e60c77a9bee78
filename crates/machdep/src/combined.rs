//! Combined lock — the Flex/32 lock personality.
//!
//! §4.1.3: "combined lock: spinlock for limited time, then make operating
//! system call (Flex)".  The acquire path polls a test&set word for a
//! bounded number of attempts, spinning briefly and then yielding between
//! them; if the lock is still held it falls back to parking in the
//! "operating system" (mutex + condvar).  Short critical sections
//! therefore pay spin-lock cost, long ones syscall cost — the rationale
//! behind the Flex design, measured in EXP-5.

use std::sync::atomic::{AtomicBool, Ordering};

use crate::fault;
use crate::lock::{LockKind, LockState, RawLock};
use crate::park::{self, Waiters};
use crate::portable::{Condvar, Mutex};
use crate::stats::StatsHandle;

/// A spin-then-park binary semaphore.
pub struct CombinedLock {
    locked: AtomicBool,
    /// Guards the sleep/wake protocol only; the lock state itself lives in
    /// `locked` so the fast path never touches the mutex.
    wait: Mutex<()>,
    cond: Condvar,
    /// Processes in phase 2; a release with none skips `wait` and the
    /// wake.
    waiters: Waiters,
    stats: StatsHandle,
}

impl CombinedLock {
    /// Create a combined lock.
    pub fn new(initial: LockState, stats: impl Into<StatsHandle>) -> Self {
        let stats = stats.into();
        stats.count(|s| &s.locks_created);
        CombinedLock {
            locked: AtomicBool::new(initial == LockState::Locked),
            wait: Mutex::new(()),
            cond: Condvar::new(),
            waiters: Waiters::default(),
            stats,
        }
    }
}

impl RawLock for CombinedLock {
    fn lock(&self) {
        // Phase 1: bounded spin, held off after the first attempt, that
        // yields the core once its short spins run out.  An injected
        // spurious failure is accounted as one failed attempt.  Under the
        // virtual backend the parking layer skips the spin phase (the
        // schedule must not depend on spin timing).  The first
        // attempt is a bare `swap`; a retry tests first (see
        // `SpinLock::try_lock`), so a spinning waiter does not take the
        // holder's line exclusive.
        let mut spun: u64 = u64::from(fault::spurious_lock_failure());
        let mut retry = false;
        let acquired = park::bounded_spin(|| {
            let held = (retry && self.locked.load(Ordering::Relaxed))
                || self.locked.swap(true, Ordering::Acquire);
            retry = true;
            spun += u64::from(held);
            !held
        });
        if acquired {
            self.stats.count(|s| &s.lock_acquires);
            if spun > 0 {
                self.stats.count(|s| &s.lock_contended);
                self.stats.add(|s| &s.spin_retries, spun);
            }
            crate::trace::lock_acquired(spun > 0);
            return;
        }
        self.stats.add(|s| &s.spin_retries, spun);
        self.stats.count(|s| &s.lock_contended);

        // Phase 2: give up the processor.  Registered first (see
        // `park::Waiters`), the parking layer then tests (and claims) the
        // flag under `wait`, which a releaser that saw the registration
        // also holds while notifying, closing the missed-wakeup window;
        // one park is billed per blocking episode, however often it wakes.
        self.stats.count(|s| &s.syscalls);
        {
            let _registered = self.waiters.register();
            park::wait_on(&self.wait, &self.cond, fault::Construct::Lock, |_| {
                !self.locked.swap(true, Ordering::SeqCst)
            });
        }
        self.stats.count(|s| &s.lock_acquires);
        crate::trace::lock_acquired(true);
    }

    fn unlock(&self) {
        self.locked.store(false, Ordering::SeqCst);
        if self.waiters.any() {
            // Take the wait mutex so a waiter between its flag test and
            // its `wait()` cannot miss this notification.
            let _guard = self.wait.lock();
            self.cond.notify_one();
        }
        self.stats.count(|s| &s.lock_releases);
    }

    fn try_lock(&self) -> bool {
        // Test first (see `SpinLock::try_lock`): a failed try must not
        // write to the lock word.
        if self.locked.load(Ordering::Relaxed) || self.locked.swap(true, Ordering::Acquire) {
            self.stats.count(|s| &s.lock_contended);
            return false;
        }
        self.stats.count(|s| &s.lock_acquires);
        true
    }

    fn is_locked(&self) -> bool {
        self.locked.load(Ordering::Relaxed)
    }

    fn kind(&self) -> LockKind {
        LockKind::Combined
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::OpStats;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;
    use std::time::Duration;

    fn mk(initial: LockState) -> (Arc<CombinedLock>, Arc<OpStats>) {
        let stats = Arc::new(OpStats::new());
        (
            Arc::new(CombinedLock::new(initial, Arc::clone(&stats))),
            stats,
        )
    }

    #[test]
    fn uncontended_acquire_never_syscalls() {
        let (l, stats) = mk(LockState::Unlocked);
        l.lock();
        l.unlock();
        let s = stats.snapshot();
        assert_eq!(s.syscalls, 0, "fast path must avoid the OS");
        assert_eq!(s.lock_acquires, 1);
    }

    #[test]
    fn long_hold_forces_parking() {
        let (l, stats) = mk(LockState::Locked);
        let l2 = Arc::clone(&l);
        let t = std::thread::spawn(move || {
            l2.lock();
            l2.unlock();
        });
        // Keep it held long enough that the waiter exhausts its spin budget.
        std::thread::sleep(Duration::from_millis(50));
        l.unlock();
        t.join().unwrap();
        let s = stats.snapshot();
        assert!(s.syscalls >= 1, "waiter should have fallen back to the OS");
        assert!(s.spin_retries >= 1, "waiter should have spun first");
    }

    #[test]
    fn initially_locked_and_cross_thread_unlock() {
        let (l, _) = mk(LockState::Locked);
        assert!(!l.try_lock());
        let l2 = Arc::clone(&l);
        let t = std::thread::spawn(move || l2.unlock());
        l.lock();
        t.join().unwrap();
    }

    #[test]
    fn mutual_exclusion_under_contention() {
        let (l, _) = mk(LockState::Unlocked);
        let counter = Arc::new(AtomicU64::new(0));
        let inside = Arc::new(AtomicBool::new(false));
        std::thread::scope(|s| {
            for _ in 0..8 {
                let l = Arc::clone(&l);
                let counter = Arc::clone(&counter);
                let inside = Arc::clone(&inside);
                s.spawn(move || {
                    for _ in 0..300 {
                        l.lock();
                        assert!(!inside.swap(true, Ordering::SeqCst));
                        counter.fetch_add(1, Ordering::Relaxed);
                        inside.store(false, Ordering::SeqCst);
                        l.unlock();
                    }
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 8 * 300);
    }

    #[test]
    fn a_cancelled_waiter_deregisters() {
        let (l, stats) = mk(LockState::Locked);
        l.waiters.check_cancelled_waiter_deregisters(&*l, stats);
    }
}
