//! Scarce-lock management — §4.1.3: "In some machines, locks may be scarce
//! resources.  On these machines, some parallel programs may not execute as
//! efficiently as others if a large number of asynchronous variables are
//! needed."
//!
//! The Cray-2 personality owns a fixed pool of OS locks.  While the pool
//! has free slots, every logical lock gets a dedicated slot.  Once the pool
//! is exhausted, what happens depends on what the lock *means*
//! ([`LockRole`]):
//!
//! * a **critical** lock (mutual exclusion only) *aliases* an existing
//!   critical slot round-robin: the program still works (the lock protocol
//!   is untouched) but unrelated logical locks now contend on the same
//!   physical lock — the inefficiency the paper warns about, measured in
//!   EXP-11;
//! * a **state** lock (semaphore-style: the lock *staying locked* encodes
//!   data state, as in the full/empty pair of an asynchronous variable)
//!   must never share a slot — an aliased pair would corrupt both
//!   variables' empty/full protocol silently.  Exhaustion is therefore
//!   surfaced as a structured [`ScarceLockError`] instead of a wedged or
//!   corrupted run.
//!
//! A slot is taken for as long as a logical lock maps onto it and no
//! longer: the pool holds one reference to each physical lock, every
//! logical lock (dedicated or aliased) holds another, and a slot only
//! the pool still refers to is free again.  So a session's user locks go
//! back when the session resets its lock table or ends, and exhaustion
//! means locks *in use*, not locks ever created on the machine.

use std::fmt;
use std::sync::Arc;

use crate::lock::{LockHandle, LockState};
use crate::portable::Mutex;
use crate::stats::StatsHandle;

/// Factory that builds one physical lock in a given initial state.
pub type LockFactory = Arc<dyn Fn(LockState) -> LockHandle + Send + Sync>;

/// What a logical lock's semantics allow when it maps onto a scarce pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockRole {
    /// Mutual exclusion only (user criticals, named locks).  Aliasing
    /// beyond capacity degrades performance, never correctness.
    Critical,
    /// The lock's locked/unlocked state encodes data (the empty/full pair
    /// of an asynchronous variable).  Aliasing would silently corrupt the
    /// protocol, so a state lock always gets a dedicated slot or fails.
    State,
}

impl LockRole {
    /// Stable lowercase name for error messages and reports.
    pub fn name(self) -> &'static str {
        match self {
            LockRole::Critical => "critical",
            LockRole::State => "state",
        }
    }
}

/// A lock allocation the scarce pool could not satisfy: the pool is full
/// and the requested role forbids aliasing (or nothing aliasable exists).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScarceLockError {
    /// The pool's physical capacity.
    pub capacity: usize,
    /// The role of the allocation that failed.
    pub role: LockRole,
}

impl fmt::Display for ScarceLockError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "scarce-lock pool exhausted: cannot allocate a {} lock beyond {} physical slots \
             (a state lock encodes data in its locked/unlocked state, so it can never alias \
             an existing slot — §4.1.3)",
            self.role.name(),
            self.capacity
        )
    }
}

impl std::error::Error for ScarceLockError {}

/// A fixed-capacity pool of physical locks onto which logical locks map.
pub struct LockPool {
    inner: Mutex<PoolInner>,
    capacity: usize,
    factory: LockFactory,
    stats: StatsHandle,
}

struct PoolInner {
    slots: Vec<(LockHandle, LockRole)>,
    cursor: usize,
}

impl PoolInner {
    /// Free every slot no logical lock maps onto any more.  Handles are
    /// only ever cloned out of a slot under the pool's mutex (or from a
    /// clone already out), so a count of one cannot be raced upwards.
    fn reclaim(&mut self) {
        self.slots.retain(|(lock, _)| Arc::strong_count(lock) > 1);
    }
}

impl LockPool {
    /// Create an empty pool of `capacity` physical lock slots.
    ///
    /// # Panics
    /// Panics if `capacity` is zero — a machine with no locks at all
    /// cannot host the Force.
    pub fn new(capacity: usize, factory: LockFactory, stats: impl Into<StatsHandle>) -> Self {
        assert!(capacity > 0, "lock pool capacity must be positive");
        LockPool {
            inner: Mutex::new(PoolInner {
                slots: Vec::with_capacity(capacity),
                cursor: 0,
            }),
            capacity,
            factory,
            stats: stats.into(),
        }
    }

    /// Allocate a logical critical lock (aliasing allowed beyond
    /// capacity).
    ///
    /// Returns a dedicated physical lock while slots remain; afterwards
    /// returns an aliased handle to an existing *critical* slot (and
    /// counts the alias).  An aliased allocation ignores `initial`: the
    /// physical lock already has a state other logical locks depend on.
    ///
    /// # Panics
    /// Panics only in the pathological case where the whole pool is
    /// occupied by state locks, leaving nothing a critical may alias.
    pub fn allocate(&self, initial: LockState) -> LockHandle {
        match self.try_allocate(initial, LockRole::Critical) {
            Ok(lock) => lock,
            Err(e) => panic!("{e}"),
        }
    }

    /// Allocate a logical lock with an explicit [`LockRole`].
    ///
    /// While dedicated slots remain, both roles get one.  Once the pool
    /// is full, a [`LockRole::Critical`] request aliases an existing
    /// critical slot round-robin (counting the alias), while a
    /// [`LockRole::State`] request fails with [`ScarceLockError`]
    /// (counting `state_locks_denied`) — aliased state locks would
    /// silently break the empty/full protocol of both variables.
    pub fn try_allocate(
        &self,
        initial: LockState,
        role: LockRole,
    ) -> Result<LockHandle, ScarceLockError> {
        let mut inner = self.inner.lock();
        inner.reclaim();
        if inner.slots.len() < self.capacity {
            let lock = (self.factory)(initial);
            inner.slots.push((Arc::clone(&lock), role));
            return Ok(lock);
        }
        let scarce = ScarceLockError {
            capacity: self.capacity,
            role,
        };
        if role == LockRole::State {
            self.stats.count(|s| &s.state_locks_denied);
            return Err(scarce);
        }
        // Round-robin over the *critical* slots only: a critical lock
        // aliasing a state slot would hold an async variable hostage.
        let aliasable = inner.slots.iter().filter(|(_, r)| *r == LockRole::Critical);
        let n = aliasable.clone().count();
        if n == 0 {
            self.stats.count(|s| &s.state_locks_denied);
            return Err(scarce);
        }
        self.stats.count(|s| &s.locks_aliased);
        let pick = inner.cursor % n;
        inner.cursor = inner.cursor.wrapping_add(1);
        let lock = inner
            .slots
            .iter()
            .filter(|(_, r)| *r == LockRole::Critical)
            .nth(pick)
            .map(|(l, _)| Arc::clone(l))
            .expect("pick < critical slot count");
        Ok(lock)
    }

    /// Number of physical slots currently in use.
    pub fn allocated(&self) -> usize {
        let mut inner = self.inner.lock();
        inner.reclaim();
        inner.slots.len()
    }

    /// Pool capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::OpStats;
    use crate::syscall_lock::SyscallLock;

    fn pool(capacity: usize) -> (LockPool, Arc<OpStats>) {
        let stats = Arc::new(OpStats::new());
        let st = Arc::clone(&stats);
        let factory: LockFactory =
            Arc::new(move |init| Arc::new(SyscallLock::new(init, Arc::clone(&st))) as LockHandle);
        (LockPool::new(capacity, factory, Arc::clone(&stats)), stats)
    }

    #[test]
    fn dedicated_until_capacity() {
        let (p, stats) = pool(3);
        let a = p.allocate(LockState::Unlocked);
        let b = p.allocate(LockState::Unlocked);
        let c = p.allocate(LockState::Unlocked);
        assert_eq!(p.allocated(), 3);
        assert_eq!(stats.snapshot().locks_aliased, 0);
        // Distinct physical locks: locking one leaves the others free.
        a.lock();
        assert!(b.try_lock());
        assert!(c.try_lock());
        a.unlock();
        b.unlock();
        c.unlock();
    }

    #[test]
    fn aliases_after_capacity() {
        let (p, stats) = pool(2);
        let a = p.allocate(LockState::Unlocked);
        let _b = p.allocate(LockState::Unlocked);
        let c = p.allocate(LockState::Unlocked); // aliases slot 0 (= a)
        assert_eq!(stats.snapshot().locks_aliased, 1);
        a.lock();
        // c shares a's physical lock, so it is observed locked.
        assert!(!c.try_lock());
        a.unlock();
    }

    #[test]
    fn aliasing_is_round_robin() {
        let (p, _) = pool(2);
        let a = p.allocate(LockState::Unlocked);
        let b = p.allocate(LockState::Unlocked);
        let c = p.allocate(LockState::Unlocked); // slot 0
        let d = p.allocate(LockState::Unlocked); // slot 1
        a.lock();
        assert!(!c.try_lock(), "c aliases a");
        b.lock();
        assert!(!d.try_lock(), "d aliases b");
        a.unlock();
        b.unlock();
    }

    #[test]
    fn a_slot_is_free_again_once_its_last_logical_lock_is_gone() {
        let (p, stats) = pool(2);
        let a = p.allocate(LockState::Unlocked);
        let b = p.allocate(LockState::Unlocked);
        let alias_of_a = p.allocate(LockState::Unlocked);
        assert_eq!(p.allocated(), 2);
        // An alias keeps the slot as well as the lock it aliases does.
        drop(a);
        assert_eq!(p.allocated(), 2);
        let state = p.try_allocate(LockState::Locked, LockRole::State);
        assert!(state.is_err(), "both slots are still somebody's");
        drop(alias_of_a);
        assert_eq!(p.allocated(), 1);
        // The freed slot is a fresh physical lock in the asked-for state,
        // whatever its predecessor was left in.
        b.lock();
        let state = p
            .try_allocate(LockState::Locked, LockRole::State)
            .expect("a slot came back");
        assert!(state.is_locked());
        assert_eq!(p.allocated(), 2);
        assert_eq!(stats.snapshot().locks_aliased, 1);
        b.unlock();
    }

    #[test]
    fn state_locks_never_alias() {
        // Regression for the channel cap (`tests/overcommit.rs::
        // every_machine_survives_overcommit`): beyond capacity, the
        // full/empty pair of an async variable used to alias critical
        // slots and silently corrupt the semaphore protocol.  Now the
        // allocation fails structurally instead.
        let (p, stats) = pool(2);
        let _a = p.try_allocate(LockState::Locked, LockRole::State).unwrap();
        let _b = p
            .try_allocate(LockState::Unlocked, LockRole::State)
            .unwrap();
        let err = p
            .try_allocate(LockState::Locked, LockRole::State)
            .err()
            .expect("a third state lock cannot fit in two slots");
        assert_eq!(err.capacity, 2);
        assert_eq!(err.role, LockRole::State);
        assert_eq!(stats.snapshot().state_locks_denied, 1);
        assert_eq!(stats.snapshot().locks_aliased, 0);
        assert!(err.to_string().contains("scarce-lock pool exhausted"));
    }

    #[test]
    fn critical_aliasing_skips_state_slots() {
        let (p, stats) = pool(2);
        let state = p.try_allocate(LockState::Locked, LockRole::State).unwrap();
        let crit = p.allocate(LockState::Unlocked);
        // Pool full: new criticals alias the one critical slot, never the
        // state slot (whose locked-ness encodes an async variable's
        // emptiness).
        let aliased = p.allocate(LockState::Unlocked);
        assert_eq!(stats.snapshot().locks_aliased, 1);
        crit.lock();
        assert!(!aliased.try_lock(), "aliased onto the critical slot");
        crit.unlock();
        // The state lock was created locked and is untouched.
        assert!(!state.try_lock());
        state.unlock();
    }

    #[test]
    fn critical_with_no_aliasable_slot_fails_structurally() {
        let (p, stats) = pool(1);
        let _state = p.try_allocate(LockState::Locked, LockRole::State).unwrap();
        let err = p
            .try_allocate(LockState::Unlocked, LockRole::Critical)
            .err()
            .expect("nothing a critical may alias");
        assert_eq!(err.role, LockRole::Critical);
        assert_eq!(stats.snapshot().state_locks_denied, 1);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = pool(0);
    }
}
