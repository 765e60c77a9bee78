//! Software test&set spin lock — the Sequent Balance / Encore Multimax
//! lock personality ("spinning with test&set on shared variables", §4.1.3).

use std::sync::atomic::{AtomicBool, Ordering};

use crate::fault;
use crate::lock::{LockKind, LockState, RawLock};
use crate::park;
use crate::stats::StatsHandle;

/// A test-and-test-and-set spin lock with exponential backoff.
///
/// The acquire path first *tests* (plain load) and only then *sets*
/// (`swap`), the classic optimization that keeps the cache line shared
/// while the lock is held.  On the Sequent and the Encore the
/// manufacturer primitive was a pure busy wait; here the retry loop runs
/// inside the parking layer's lock wait, which keeps the busy-wait shape
/// on a dedicated thread — holding off after a failed attempt so that a
/// holder re-taking the lock keeps it — but still yields the run permit
/// under an overcommit backend.
pub struct SpinLock {
    locked: AtomicBool,
    stats: StatsHandle,
}

impl SpinLock {
    /// Create a spin lock in the given initial state.  Accepts a bare
    /// `Arc<OpStats>` (charged as a root) or a plane/session
    /// [`StatsHandle`]; runtime charges are context-preferred either
    /// way, so a shared lock attributes its operations to the plane
    /// actually using it.
    pub fn new(initial: LockState, stats: impl Into<StatsHandle>) -> Self {
        let stats = stats.into();
        stats.count(|s| &s.locks_created);
        SpinLock {
            locked: AtomicBool::new(initial == LockState::Locked),
            stats,
        }
    }
}

impl RawLock for SpinLock {
    fn lock(&self) {
        // An injected spurious failure is accounted as one failed attempt.
        let mut retries: u64 = u64::from(fault::spurious_lock_failure());
        // test&set with a preceding test; Acquire pairs with the Release
        // in `unlock` so that everything the unlocker did is visible.  A
        // failed attempt holds off before it looks again (`park::lock_wait`).
        if self.locked.swap(true, Ordering::Acquire) {
            park::lock_wait(fault::Construct::Lock, || {
                if self.locked.load(Ordering::Relaxed) || self.locked.swap(true, Ordering::Acquire)
                {
                    retries += 1;
                    false
                } else {
                    true
                }
            });
        }
        self.stats.count(|s| &s.lock_acquires);
        if retries > 0 {
            self.stats.count(|s| &s.lock_contended);
            self.stats.add(|s| &s.spin_retries, retries);
        }
        crate::trace::lock_acquired(retries > 0);
    }

    fn unlock(&self) {
        self.locked.store(false, Ordering::Release);
        self.stats.count(|s| &s.lock_releases);
    }

    fn try_lock(&self) -> bool {
        // Test-and-test-and-set, like `lock`: a failed attempt must not
        // issue a store (an unconditional `swap` would invalidate the
        // holder's cache line on every call, turning the Async spin loops
        // that poll `try_lock` into a coherence storm).
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
        LockKind::Spin
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::OpStats;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    fn mk(initial: LockState) -> (SpinLock, Arc<OpStats>) {
        let stats = Arc::new(OpStats::new());
        (SpinLock::new(initial, Arc::clone(&stats)), stats)
    }

    #[test]
    fn starts_unlocked_and_locks() {
        let (l, _) = mk(LockState::Unlocked);
        assert!(!l.is_locked());
        l.lock();
        assert!(l.is_locked());
        l.unlock();
        assert!(!l.is_locked());
    }

    #[test]
    fn starts_locked_when_requested() {
        let (l, _) = mk(LockState::Locked);
        assert!(l.is_locked());
        assert!(!l.try_lock());
        l.unlock();
        assert!(l.try_lock());
    }

    #[test]
    fn try_lock_fails_when_held() {
        let (l, _) = mk(LockState::Unlocked);
        assert!(l.try_lock());
        assert!(!l.try_lock());
        l.unlock();
        assert!(l.try_lock());
    }

    #[test]
    fn cross_thread_unlock_is_allowed() {
        let stats = Arc::new(OpStats::new());
        let l = Arc::new(SpinLock::new(LockState::Locked, stats));
        let l2 = Arc::clone(&l);
        let t = std::thread::spawn(move || {
            l2.unlock(); // releasing a lock acquired "elsewhere"
        });
        l.lock(); // succeeds once the other thread unlocks
        t.join().unwrap();
        assert!(l.is_locked());
    }

    #[test]
    fn mutual_exclusion_under_contention() {
        let stats = Arc::new(OpStats::new());
        let l = Arc::new(SpinLock::new(LockState::Unlocked, stats));
        let counter = Arc::new(AtomicU64::new(0));
        let inside = Arc::new(AtomicBool::new(false));
        std::thread::scope(|s| {
            for _ in 0..8 {
                let l = Arc::clone(&l);
                let counter = Arc::clone(&counter);
                let inside = Arc::clone(&inside);
                s.spawn(move || {
                    for _ in 0..500 {
                        l.lock();
                        assert!(!inside.swap(true, Ordering::SeqCst));
                        counter.fetch_add(1, Ordering::Relaxed);
                        inside.store(false, Ordering::SeqCst);
                        l.unlock();
                    }
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 8 * 500);
    }

    #[test]
    fn failed_try_lock_counts_contention() {
        let (l, stats) = mk(LockState::Locked);
        for _ in 0..5 {
            assert!(!l.try_lock());
        }
        let s = stats.snapshot();
        assert_eq!(
            s.lock_contended, 5,
            "each failed try is a contended attempt"
        );
        assert_eq!(s.lock_acquires, 0);
        l.unlock();
        assert!(l.try_lock());
        assert_eq!(stats.snapshot().lock_acquires, 1);
    }

    #[test]
    fn stats_count_acquires_and_releases() {
        let (l, stats) = mk(LockState::Unlocked);
        l.lock();
        l.unlock();
        l.lock();
        l.unlock();
        let s = stats.snapshot();
        assert_eq!(s.lock_acquires, 2);
        assert_eq!(s.lock_releases, 2);
        assert_eq!(s.locks_created, 1);
    }
}
