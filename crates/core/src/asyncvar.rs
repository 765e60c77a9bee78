//! Asynchronous variables — data-oriented synchronization (§3.2, §3.4, §4.2).
//!
//! An `Async` variable carries a full/empty state with its value:
//!
//! * **Produce** "waits for the variable to be empty, writes its value and
//!   sets it to full";
//! * **Consume** "waits for the variable to be full, reads the value and
//!   sets it to empty";
//! * **Void** sets the state to empty regardless of its previous state;
//! * the state can also be **tested** ([`Async::is_full`]).
//!
//! §4.2 gives the portable implementation: "With the exception of the HEP
//! computer which provided a hardware full/empty state for every memory
//! cell, all other machines require the use of two locks":
//!
//! ```text
//! empty  =  E locked,  F unlocked          Produce:  Lock F
//! full   =  F locked,  E unlocked                    write value
//!                                                    Unlock E
//!                                          Consume:  Lock E
//!                                                    read value
//!                                                    Unlock F
//! ```
//!
//! [`Async::new`] picks the implementation from the machine personality:
//! hardware full/empty on the HEP, the two-lock protocol everywhere else.

use std::cell::UnsafeCell;

use force_machdep::{fault, park};
use force_machdep::{Construct, FullEmptyState, LockHandle, LockState, Machine, ScarceLockError};

/// A shared variable with full/empty state (`Async` class).
pub struct Async<T> {
    state: State,
    /// The value slot.  Exclusive access is guaranteed by the full/empty
    /// protocol: a writer holds either the `F` lock (two-lock produce) or
    /// the hardware BUSY window; a reader symmetrically.  That protocol is
    /// exactly the paper's, and it is what makes this `UnsafeCell` sound.
    value: UnsafeCell<Option<T>>,
}

enum State {
    /// Two-lock emulation (all machines but the HEP).
    TwoLock { e: LockHandle, f: LockHandle },
    /// Hardware full/empty tag (HEP).
    Hardware(FullEmptyState),
}

// SAFETY: the value cell is only touched inside the produce/consume
// exclusion windows described on `value`; `T: Send` is required because
// values move between processes.
unsafe impl<T: Send> Sync for Async<T> {}
unsafe impl<T: Send> Send for Async<T> {}

impl<T> Async<T> {
    /// An empty asynchronous variable on `machine`.
    ///
    /// # Panics
    /// On a scarce-lock machine (Cray-2), panics once the physical lock
    /// pool can no longer give the full/empty pair dedicated slots — an
    /// aliased pair would silently corrupt both variables' protocol.
    /// Use [`Async::try_new`] to handle exhaustion structurally.
    pub fn new(machine: &Machine) -> Self {
        match Self::try_new(machine) {
            Ok(v) => v,
            Err(e) => panic!("{e}"),
        }
    }

    /// An empty asynchronous variable on `machine`, surfacing lock-pool
    /// exhaustion as an error instead of corrupting state.
    ///
    /// The E/F pair of the two-lock protocol (§4.2) encodes the
    /// variable's emptiness in which lock is *held*, so the pair must
    /// own dedicated physical slots: on the Cray-2 the allocation fails
    /// once the 32-slot pool is exhausted, where it previously aliased
    /// user criticals and broke semaphore-style use silently (the channel
    /// cap `tests/overcommit.rs::every_machine_survives_overcommit` holds
    /// to at most 8).
    pub fn try_new(machine: &Machine) -> Result<Self, ScarceLockError> {
        match machine.hardware_fullempty(false) {
            Some(fe) => Ok(Async {
                state: State::Hardware(fe),
                value: UnsafeCell::new(None),
            }),
            None => Ok(Async {
                // empty = E locked, F unlocked
                state: State::TwoLock {
                    e: machine.try_make_state_lock(LockState::Locked)?,
                    f: machine.try_make_state_lock(LockState::Unlocked)?,
                },
                value: UnsafeCell::new(None),
            }),
        }
    }

    /// A full asynchronous variable holding `value`.
    ///
    /// # Panics
    /// Panics on lock-pool exhaustion, like [`Async::new`]; use
    /// [`Async::try_new_full`] to handle it structurally.
    pub fn new_full(machine: &Machine, value: T) -> Self {
        match Self::try_new_full(machine, value) {
            Ok(v) => v,
            Err(e) => panic!("{e}"),
        }
    }

    /// A full asynchronous variable holding `value`, surfacing lock-pool
    /// exhaustion as an error (see [`Async::try_new`]).
    pub fn try_new_full(machine: &Machine, value: T) -> Result<Self, ScarceLockError> {
        match machine.hardware_fullempty(true) {
            Some(fe) => Ok(Async {
                state: State::Hardware(fe),
                value: UnsafeCell::new(Some(value)),
            }),
            None => Ok(Async {
                // full = F locked, E unlocked
                state: State::TwoLock {
                    e: machine.try_make_state_lock(LockState::Unlocked)?,
                    f: machine.try_make_state_lock(LockState::Locked)?,
                },
                value: UnsafeCell::new(Some(value)),
            }),
        }
    }

    /// Produce: wait for empty, write the value, set full.
    pub fn produce(&self, value: T) {
        let _c = fault::enter(Construct::Produce);
        fault::inject(Construct::Produce);
        match &self.state {
            State::TwoLock { e, f } => {
                f.lock();
                // SAFETY: we hold F; no other producer can be in this
                // window, and consumers are excluded until E is unlocked.
                unsafe { *self.value.get() = Some(value) };
                e.unlock();
            }
            State::Hardware(fe) => {
                fe.acquire_empty();
                // SAFETY: the BUSY window gives exclusive access.
                unsafe { *self.value.get() = Some(value) };
                fe.release_full();
            }
        }
    }

    /// Consume: wait for full, take the value, set empty.
    pub fn consume(&self) -> T {
        let _c = fault::enter(Construct::Consume);
        fault::inject(Construct::Consume);
        match &self.state {
            State::TwoLock { e, f } => {
                e.lock();
                // SAFETY: we hold E; symmetric to produce.
                let v = unsafe { (*self.value.get()).take() };
                f.unlock();
                v.expect("async variable was full but held no value")
            }
            State::Hardware(fe) => {
                fe.acquire_full();
                // SAFETY: the BUSY window gives exclusive access.
                let v = unsafe { (*self.value.get()).take() };
                fe.release_empty();
                v.expect("async variable was full but held no value")
            }
        }
    }

    /// Copy: wait for full and read the value *without* emptying — the
    /// read-only companion of consume, for broadcast-style use.
    pub fn copy(&self) -> T
    where
        T: Clone,
    {
        let _c = fault::enter(Construct::Copy);
        match &self.state {
            State::TwoLock { e, f: _ } => {
                e.lock();
                // SAFETY: holding E excludes consumers; F is already
                // locked (full), excluding producers.
                let v = unsafe { (*self.value.get()).clone() };
                e.unlock(); // back to full: F locked, E unlocked
                v.expect("async variable was full but held no value")
            }
            State::Hardware(fe) => {
                fe.acquire_full();
                let v = unsafe { (*self.value.get()).clone() };
                fe.release_full(); // leave full
                v.expect("async variable was full but held no value")
            }
        }
    }

    /// Void: force the state to empty regardless of its previous state,
    /// discarding any value.  "Mainly used to initialize the state of
    /// asynchronous variables" (§4.2).
    pub fn void(&self) {
        let _c = fault::enter(Construct::Void);
        match &self.state {
            State::TwoLock { e, f } => park::wait_until(Construct::Void, || {
                if e.try_lock() {
                    // Was full (we now hold both): drop the value, then
                    // open F to reach the canonical empty state.
                    // SAFETY: holding E and F excludes everyone.
                    unsafe { *self.value.get() = None };
                    f.unlock();
                    return true;
                }
                if f.try_lock() {
                    // Was empty (E locked, F was unlocked): restore.
                    f.unlock();
                    return true;
                }
                // A produce/consume is mid-flight; retry.
                false
            }),
            State::Hardware(fe) => park::wait_until(Construct::Void, || {
                if fe.try_acquire_full() {
                    // Was full: clear the value in the BUSY window.
                    // SAFETY: BUSY window gives exclusive access.
                    unsafe { *self.value.get() = None };
                    fe.release_empty();
                    return true;
                }
                if fe.try_acquire_empty() {
                    // Was already empty: restore the tag.
                    fe.release_empty();
                    return true;
                }
                // Mid-transfer (BUSY); wait it out.
                false
            }),
        }
    }

    /// Test the state without blocking.  Inherently a snapshot: the state
    /// may change immediately after (same on the original machines).
    pub fn is_full(&self) -> bool {
        match &self.state {
            // full = E unlocked; empty = E locked.  Mid-transfer (both
            // locked) reads as not-full, which is a legal snapshot.
            State::TwoLock { e, .. } => !e.is_locked(),
            State::Hardware(fe) => fe.is_full(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::force::Force;
    use force_machdep::MachineId;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn machines() -> Vec<Arc<Machine>> {
        MachineId::all().into_iter().map(Machine::new).collect()
    }

    #[test]
    fn produce_consume_roundtrip_on_every_machine() {
        for m in machines() {
            let v: Async<i64> = Async::new(&m);
            assert!(!v.is_full(), "{}", m.id().name());
            v.produce(42);
            assert!(v.is_full(), "{}", m.id().name());
            assert_eq!(v.consume(), 42, "{}", m.id().name());
            assert!(!v.is_full(), "{}", m.id().name());
        }
    }

    #[test]
    fn new_full_starts_full() {
        for m in machines() {
            let v = Async::new_full(&m, "hello".to_string());
            assert!(v.is_full());
            assert_eq!(v.consume(), "hello");
        }
    }

    #[test]
    fn copy_reads_without_emptying() {
        for m in machines() {
            let v = Async::new_full(&m, 7i32);
            assert_eq!(v.copy(), 7);
            assert!(v.is_full(), "{}", m.id().name());
            assert_eq!(v.consume(), 7);
        }
    }

    #[test]
    fn void_empties_from_full_and_is_idempotent() {
        for m in machines() {
            let v = Async::new_full(&m, 5u8);
            v.void();
            assert!(!v.is_full(), "{}", m.id().name());
            v.void();
            assert!(!v.is_full());
            // After a void, produce works normally.
            v.produce(9);
            assert_eq!(v.consume(), 9);
        }
    }

    #[test]
    fn consume_blocks_until_produced() {
        for m in machines() {
            let v: Arc<Async<u64>> = Arc::new(Async::new(&m));
            let v2 = Arc::clone(&v);
            let t = std::thread::spawn(move || v2.consume());
            std::thread::sleep(std::time::Duration::from_millis(5));
            v.produce(11);
            assert_eq!(t.join().unwrap(), 11, "{}", m.id().name());
        }
    }

    #[test]
    fn produce_blocks_while_full() {
        for m in machines() {
            let v = Arc::new(Async::new_full(&m, 1u64));
            let v2 = Arc::clone(&v);
            let t = std::thread::spawn(move || v2.produce(2));
            std::thread::sleep(std::time::Duration::from_millis(5));
            assert_eq!(v.consume(), 1);
            t.join().unwrap();
            assert_eq!(v.consume(), 2, "{}", m.id().name());
        }
    }

    #[test]
    fn no_value_is_lost_or_duplicated_under_contention() {
        // N producers transfer distinct tokens through one async variable
        // to N consumers; the multiset of received tokens must match.
        for id in [MachineId::Hep, MachineId::EncoreMultimax, MachineId::Cray2] {
            let m = Machine::new(id);
            let v: Arc<Async<u64>> = Arc::new(Async::new(&m));
            let sum = AtomicU64::new(0);
            let n = 4u64;
            let per = 200u64;
            std::thread::scope(|s| {
                for p in 0..n {
                    let v = Arc::clone(&v);
                    s.spawn(move || {
                        for i in 0..per {
                            v.produce(p * per + i + 1);
                        }
                    });
                }
                for _ in 0..n {
                    let v = Arc::clone(&v);
                    let sum = &sum;
                    s.spawn(move || {
                        for _ in 0..per {
                            sum.fetch_add(v.consume(), Ordering::Relaxed);
                        }
                    });
                }
            });
            let total = n * per;
            assert_eq!(
                sum.load(Ordering::Relaxed),
                total * (total + 1) / 2,
                "{}",
                id.name()
            );
            assert!(!v.is_full());
        }
    }

    #[test]
    fn works_as_a_pipeline_stage_in_a_force() {
        let force = Force::with_machine(2, Machine::new(MachineId::Hep));
        let chan: Async<u64> = Async::new(force.machine());
        let received = AtomicU64::new(0);
        force.run(|p| {
            if p.pid() == 0 {
                for i in 1..=100 {
                    chan.produce(i);
                }
            } else {
                for _ in 0..100 {
                    received.fetch_add(chan.consume(), Ordering::Relaxed);
                }
            }
        });
        assert_eq!(received.load(Ordering::Relaxed), 5050);
    }

    #[test]
    fn cray_async_channels_fail_structurally_beyond_the_pool() {
        // Regression for the channel cap (`tests/overcommit.rs::
        // every_machine_survives_overcommit`): beyond 16 channels (32
        // pool slots / 2 locks per channel) the Cray-2's E/F pairs used
        // to alias pooled slots, silently breaking the semaphore-style
        // full/empty protocol of *other* variables.  Now the allocation
        // itself reports scarcity.
        let m = Machine::new(MachineId::Cray2);
        let cap = m.free_lock_slots().expect("cray is scarce");
        // A realistic mix: two user criticals plus as many channels as
        // the remaining slots can host (2 locks per channel).
        let crit_a = m.make_lock(LockState::Unlocked);
        let crit_b = m.make_lock(LockState::Unlocked);
        let max_channels = (cap - 2) / 2;
        let chans: Vec<Async<u64>> = (0..max_channels)
            .map(|i| Async::try_new(&m).unwrap_or_else(|e| panic!("channel {i}: {e}")))
            .collect();
        assert_eq!(m.free_lock_slots(), Some(0));
        let err = Async::<u64>::try_new(&m)
            .err()
            .expect("one channel beyond the pool must fail, not alias");
        assert!(
            err.to_string().contains("scarce-lock pool exhausted"),
            "{err}"
        );
        assert!(m.stats().snapshot().state_locks_denied >= 1);
        // Every in-pool channel still runs the real protocol, unharmed
        // by the failed allocation.
        for (i, c) in chans.iter().enumerate() {
            c.produce(i as u64);
            assert!(c.is_full());
        }
        for (i, c) in chans.iter().enumerate() {
            assert_eq!(c.consume(), i as u64);
        }
        // User criticals can still be allocated beyond the pool — they
        // alias the *critical* slots (performance, not correctness) and
        // never touch a channel's full/empty pair.
        let aliased = m.make_lock(LockState::Unlocked);
        crit_a.lock();
        crit_b.lock();
        assert!(!aliased.try_lock(), "aliased onto one of the criticals");
        crit_a.unlock();
        crit_b.unlock();
        assert!(chans.iter().all(|c| !c.is_full()), "channels untouched");
    }

    #[test]
    fn drop_of_full_async_drops_value() {
        let m = Machine::new(MachineId::Flex32);
        let arc = Arc::new(());
        let v = Async::new_full(&m, Arc::clone(&arc));
        assert_eq!(Arc::strong_count(&arc), 2);
        drop(v);
        assert_eq!(Arc::strong_count(&arc), 1);
    }
}

/// A shared array of asynchronous variables — the `Async ... C(n)`
/// declaration (the paper's §3.2 `async_common`): every element carries
/// its own full/empty state.
///
/// On the HEP this is free (the hardware tags *every* memory cell); on
/// the lock machines each element costs two locks, which is exactly the
/// §4.1.3 scarce-lock pressure: "some parallel programs may not execute
/// as efficiently as others if a large number of asynchronous variables
/// are needed".
pub struct AsyncArray<T> {
    cells: Box<[Async<T>]>,
}

impl<T> AsyncArray<T> {
    /// An array of `n` empty asynchronous variables on `machine`.
    ///
    /// # Panics
    /// Panics on lock-pool exhaustion, like [`Async::new`]; use
    /// [`AsyncArray::try_new`] to handle it structurally.
    pub fn new(machine: &Machine, n: usize) -> Self {
        match Self::try_new(machine, n) {
            Ok(a) => a,
            Err(e) => panic!("{e}"),
        }
    }

    /// An array of `n` empty asynchronous variables, surfacing
    /// scarce-lock exhaustion as an error (see [`Async::try_new`]).
    pub fn try_new(machine: &Machine, n: usize) -> Result<Self, ScarceLockError> {
        Ok(AsyncArray {
            cells: (0..n)
                .map(|_| Async::try_new(machine))
                .collect::<Result<_, _>>()?,
        })
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the array has no elements.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Produce into element `i` (waits while full).
    pub fn produce(&self, i: usize, value: T) {
        self.cells[i].produce(value)
    }

    /// Consume element `i` (waits while empty).
    pub fn consume(&self, i: usize) -> T {
        self.cells[i].consume()
    }

    /// Read element `i` without emptying it.
    pub fn copy(&self, i: usize) -> T
    where
        T: Clone,
    {
        self.cells[i].copy()
    }

    /// Force element `i` to empty.
    pub fn void(&self, i: usize) {
        self.cells[i].void()
    }

    /// Snapshot element `i`'s state.
    pub fn is_full(&self, i: usize) -> bool {
        self.cells[i].is_full()
    }

    /// The element itself (for passing to helpers).
    pub fn cell(&self, i: usize) -> &Async<T> {
        &self.cells[i]
    }
}

#[cfg(test)]
mod array_tests {
    use super::*;
    use crate::force::Force;
    use force_machdep::MachineId;

    #[test]
    fn elements_have_independent_state() {
        for id in [MachineId::Hep, MachineId::EncoreMultimax] {
            let m = Machine::new(id);
            let a: AsyncArray<i64> = AsyncArray::new(&m, 4);
            a.produce(1, 11);
            a.produce(3, 33);
            assert!(!a.is_full(0), "{}", id.name());
            assert!(a.is_full(1));
            assert!(!a.is_full(2));
            assert!(a.is_full(3));
            assert_eq!(a.consume(3), 33);
            assert_eq!(a.copy(1), 11);
            assert!(a.is_full(1));
            a.void(1);
            assert!(!a.is_full(1));
        }
    }

    #[test]
    fn wavefront_pipeline_through_an_async_array() {
        // Process 0 feeds slot 0 and collects from the last slot; stage
        // `me` consumes slot me-1, increments, and produces slot me: a
        // software pipeline, the HEP's natural workload.
        let n = 4;
        let force = Force::with_machine(n, Machine::new(MachineId::Hep));
        let slots: AsyncArray<i64> = AsyncArray::new(force.machine(), n);
        let rounds = 50i64;
        let collected = force_machdep::Mutex::new(Vec::new());
        force.run(|p| {
            let me = p.pid();
            if me == 0 {
                for r in 0..rounds {
                    slots.produce(0, r);
                    collected.lock().push(slots.consume(n - 1));
                }
            } else {
                for _ in 0..rounds {
                    let v = slots.consume(me - 1);
                    slots.produce(me, v + 1);
                }
            }
        });
        let got = collected.into_inner();
        let expect: Vec<i64> = (0..rounds).map(|r| r + (n as i64 - 1)).collect();
        assert_eq!(got, expect);
    }
}
