//! Hardware full/empty access state — the HEP personality.
//!
//! The Denelcor HEP attached a full/empty bit to *every* memory cell and
//! implemented produce/consume waits in hardware (§4.1.3, §4.2).  A
//! [`FullEmptyState`] reproduces that state machine: a word is EMPTY,
//! FULL, or momentarily BUSY while a produce/consume is transferring the
//! value.  The BUSY window is what lets a separate (non-atomic) value slot
//! be written race-free next to the state word.
//!
//! On the HEP, locks were just full/empty words: `lock` = consume a token,
//! `unlock` = produce it back.  [`HepLock`] implements [`RawLock`] that way.

use std::sync::atomic::{AtomicU8, Ordering};

use crate::fault;
use crate::lock::{LockKind, LockState, RawLock};
use crate::park;
use crate::stats::StatsHandle;

const EMPTY: u8 = 0;
const FULL: u8 = 1;
const BUSY: u8 = 2;

/// The full/empty tag of one memory cell, with HEP-style blocking
/// transitions.
pub struct FullEmptyState {
    state: AtomicU8,
    stats: StatsHandle,
}

impl FullEmptyState {
    /// Create a cell whose tag starts EMPTY.
    pub fn new_empty(stats: impl Into<StatsHandle>) -> Self {
        FullEmptyState {
            state: AtomicU8::new(EMPTY),
            stats: stats.into(),
        }
    }

    /// Create a cell whose tag starts FULL.
    pub fn new_full(stats: impl Into<StatsHandle>) -> Self {
        FullEmptyState {
            state: AtomicU8::new(FULL),
            stats: stats.into(),
        }
    }

    /// Move the tag `from` → `to`, waiting while it is elsewhere.  After
    /// a failed first attempt a lock (`lock`) holds off before it looks
    /// again, as every lock acquisition does ([`park::lock_wait`]); a
    /// data transfer re-polls at once.
    fn transition(&self, from: u8, to: u8, lock: bool) {
        if self
            .state
            .compare_exchange(from, to, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            return;
        }
        // Blocked transitions go through the parking layer: the wait
        // board shows the pid parked on the cell's tag, and the retry
        // loop stays responsive to cancellation.  A HEP wait has no OS
        // to deschedule into, so on a dedicated thread it spins; under
        // an overcommit backend the parked pid yields its run permit.
        // Every failed look is a retry, counted here and charged once.
        let mut retries = 1u64;
        let poll = || {
            let done = self.try_transition(from, to);
            retries += u64::from(!done);
            done
        };
        if lock {
            park::lock_wait(fault::Construct::Lock, poll);
        } else {
            park::wait_until(fault::Construct::Lock, poll);
        }
        self.stats.add(|s| &s.spin_retries, retries);
    }

    fn try_transition(&self, from: u8, to: u8) -> bool {
        // Test first: a compare-exchange is a RMW that takes the line
        // exclusive even when it fails, so `Async::void`/`is_full` polling
        // loops would otherwise storm the coherence protocol.
        if self.state.load(Ordering::Relaxed) != from {
            return false;
        }
        self.state
            .compare_exchange(from, to, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    /// Begin a consume: wait until FULL, then claim exclusive access.
    /// Must be followed by [`release_empty`](Self::release_empty).
    pub fn acquire_full(&self) {
        self.consume(false);
    }

    /// [`acquire_full`](Self::acquire_full), waiting as a data transfer
    /// or, for a [`HepLock`], as a lock.
    fn consume(&self, lock: bool) {
        self.transition(FULL, BUSY, lock);
        self.stats.count(|s| &s.fe_consumes);
        crate::trace::fe_consumed();
    }

    /// Finish a consume: the cell becomes EMPTY.
    pub fn release_empty(&self) {
        debug_assert_eq!(self.state.load(Ordering::Relaxed), BUSY);
        self.state.store(EMPTY, Ordering::Release);
    }

    /// Begin a produce: wait until EMPTY, then claim exclusive access.
    /// Must be followed by [`release_full`](Self::release_full).
    pub fn acquire_empty(&self) {
        self.transition(EMPTY, BUSY, false);
        self.stats.count(|s| &s.fe_produces);
        crate::trace::fe_produced();
    }

    /// Finish a produce: the cell becomes FULL.
    pub fn release_full(&self) {
        debug_assert_eq!(self.state.load(Ordering::Relaxed), BUSY);
        self.state.store(FULL, Ordering::Release);
    }

    /// Non-blocking consume attempt. On success the caller holds the BUSY
    /// window and must call [`release_empty`](Self::release_empty).
    pub fn try_acquire_full(&self) -> bool {
        let ok = self.try_transition(FULL, BUSY);
        if ok {
            self.stats.count(|s| &s.fe_consumes);
            crate::trace::fe_consumed();
        }
        ok
    }

    /// Non-blocking produce attempt. On success the caller holds the BUSY
    /// window and must call [`release_full`](Self::release_full).
    pub fn try_acquire_empty(&self) -> bool {
        let ok = self.try_transition(EMPTY, BUSY);
        if ok {
            self.stats.count(|s| &s.fe_produces);
            crate::trace::fe_produced();
        }
        ok
    }

    /// Force the tag to EMPTY regardless of its previous state (the Void
    /// operation, §4.2).  Waits out any in-flight BUSY window.
    pub fn void(&self) {
        park::wait_until(fault::Construct::Lock, || {
            match self.state.load(Ordering::Acquire) {
                EMPTY => true,
                FULL => self.try_transition(FULL, EMPTY),
                _ => false,
            }
        });
    }

    /// Whether the tag is currently FULL.  Inherently racy; the Force only
    /// uses it for state *tests* (§3.4).
    pub fn is_full(&self) -> bool {
        self.state.load(Ordering::Acquire) == FULL
    }
}

/// A HEP lock: a full/empty word used as a binary semaphore.
///
/// Unlocked = the word holds a token (FULL); `lock` consumes it, `unlock`
/// produces it back.
pub struct HepLock {
    fe: FullEmptyState,
    stats: StatsHandle,
}

impl HepLock {
    /// Create a HEP lock in the given initial state.
    pub fn new(initial: LockState, stats: impl Into<StatsHandle>) -> Self {
        let stats = stats.into();
        stats.count(|s| &s.locks_created);
        let fe = match initial {
            LockState::Unlocked => FullEmptyState::new_full(stats.clone()),
            LockState::Locked => FullEmptyState::new_empty(stats.clone()),
        };
        HepLock { fe, stats }
    }
}

impl RawLock for HepLock {
    fn lock(&self) {
        // Consume the token: FULL -> BUSY -> EMPTY.  Contention shows up
        // in the trace as park/unpark around the transition, so the
        // acquire event itself is stamped uncontended.
        self.fe.consume(true);
        self.fe.release_empty();
        self.stats.count(|s| &s.lock_acquires);
        crate::trace::lock_acquired(false);
    }

    fn unlock(&self) {
        // Produce the token back: EMPTY -> BUSY -> FULL.
        self.fe.acquire_empty();
        self.fe.release_full();
        self.stats.count(|s| &s.lock_releases);
    }

    fn try_lock(&self) -> bool {
        if self.fe.try_acquire_full() {
            self.fe.release_empty();
            self.stats.count(|s| &s.lock_acquires);
            true
        } else {
            self.stats.count(|s| &s.lock_contended);
            false
        }
    }

    fn is_locked(&self) -> bool {
        !self.fe.is_full()
    }

    fn kind(&self) -> LockKind {
        LockKind::FullEmpty
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::OpStats;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    fn stats() -> Arc<OpStats> {
        Arc::new(OpStats::new())
    }

    #[test]
    fn produce_then_consume_round_trip() {
        let fe = FullEmptyState::new_empty(stats());
        assert!(!fe.is_full());
        fe.acquire_empty();
        fe.release_full();
        assert!(fe.is_full());
        fe.acquire_full();
        fe.release_empty();
        assert!(!fe.is_full());
    }

    #[test]
    fn void_from_any_state() {
        let st = stats();
        let fe = FullEmptyState::new_full(Arc::clone(&st));
        fe.void();
        assert!(!fe.is_full());
        fe.void(); // idempotent on EMPTY
        assert!(!fe.is_full());
    }

    #[test]
    fn try_acquire_reflects_state() {
        let fe = FullEmptyState::new_empty(stats());
        assert!(!fe.try_acquire_full());
        assert!(fe.try_acquire_empty());
        fe.release_full();
        assert!(fe.try_acquire_full());
        fe.release_empty();
    }

    #[test]
    fn consume_blocks_until_produced() {
        let st = stats();
        let fe = Arc::new(FullEmptyState::new_empty(st));
        let fe2 = Arc::clone(&fe);
        let t = std::thread::spawn(move || {
            fe2.acquire_full(); // blocks until main produces
            fe2.release_empty();
        });
        std::thread::sleep(std::time::Duration::from_millis(10));
        fe.acquire_empty();
        fe.release_full();
        t.join().unwrap();
        assert!(!fe.is_full());
    }

    #[test]
    fn hep_lock_semantics() {
        let st = stats();
        let l = HepLock::new(LockState::Unlocked, Arc::clone(&st));
        assert!(!l.is_locked());
        l.lock();
        assert!(l.is_locked());
        assert!(!l.try_lock());
        l.unlock();
        assert!(l.try_lock());
        l.unlock();
        assert_eq!(l.kind(), LockKind::FullEmpty);
    }

    #[test]
    fn hep_lock_mutual_exclusion() {
        let st = stats();
        let l = Arc::new(HepLock::new(LockState::Unlocked, st));
        let counter = Arc::new(AtomicU64::new(0));
        std::thread::scope(|s| {
            for _ in 0..8 {
                let l = Arc::clone(&l);
                let counter = Arc::clone(&counter);
                s.spawn(move || {
                    for _ in 0..300 {
                        l.lock();
                        let v = counter.load(Ordering::Relaxed);
                        counter.store(v + 1, Ordering::Relaxed);
                        l.unlock();
                    }
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 8 * 300);
    }

    #[test]
    fn token_conservation_under_concurrency() {
        // Many producers and consumers alternating on one cell: the number
        // of completed consumes can never exceed completed produces.
        let st = stats();
        let fe = Arc::new(FullEmptyState::new_empty(Arc::clone(&st)));
        let n = 4;
        let rounds = 200;
        std::thread::scope(|s| {
            for _ in 0..n {
                let fe = Arc::clone(&fe);
                s.spawn(move || {
                    for _ in 0..rounds {
                        fe.acquire_empty();
                        fe.release_full();
                        fe.acquire_full();
                        fe.release_empty();
                    }
                });
            }
        });
        let snap = st.snapshot();
        assert_eq!(snap.fe_produces, snap.fe_consumes);
        assert_eq!(snap.fe_produces, n * rounds);
        assert!(!fe.is_full());
    }
}
