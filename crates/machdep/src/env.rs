//! The Force parallel environment — the `force_environment` macro (§4.1).
//!
//! "declares and initializes the environment variables for the
//! implementation of barriers and selfscheduled loops and a unique
//! process identifier."
//!
//! One [`ForceEnvironment`] is created per force and holds exactly what
//! the macro declares: the barrier locks `BARWIN`/`BARWOT`, the arrival
//! counter `ZZNBAR`, a shared selfscheduled-index cell service, and a
//! named-lock table for critical sections and user lock variables.

use std::collections::HashMap;
use std::sync::atomic::{AtomicI64, AtomicUsize, Ordering};
use std::sync::Arc;

use crate::fault::{FaultPlane, RunOptions};
use crate::lock::{LockHandle, LockState};
use crate::machine::Machine;
use crate::portable::Mutex;

/// The per-force environment variables of the Force implementation.
pub struct ForceEnvironment {
    machine: Arc<Machine>,
    nproc: usize,
    /// `BARWIN`: guards barrier arrival; initially unlocked.
    pub barwin: LockHandle,
    /// `BARWOT`: guards barrier exit; initially locked.
    pub barwot: LockHandle,
    /// `ZZNBAR`: the arrival counter, mutated only while holding one of
    /// the two barrier locks (the atomic is for Rust soundness, not for
    /// synchronization).
    pub zznbar: AtomicUsize,
    /// Named lock variables (`define_lock`), created on first use.
    named_locks: Mutex<HashMap<String, LockHandle>>,
    /// Shared selfscheduled loop-index cells, one per loop label.
    shared_indices: Mutex<HashMap<String, Arc<AtomicI64>>>,
    /// Monotonic process-identifier source for dynamically added players.
    next_pid: AtomicUsize,
    /// The force's fault plane: cancellation token, wait board, watchdog
    /// and injection configuration.
    fault_plane: Arc<FaultPlane>,
}

impl ForceEnvironment {
    /// Initialize the environment for a force of `nproc` processes.
    ///
    /// The barrier locks are *dedicated* locks (they bypass any scarcity
    /// pool): the implementation reserves its own locks before user
    /// programs can exhaust the pool, as the real Cray port had to.
    ///
    /// # Panics
    /// Panics if `nproc` is zero.
    pub fn new(machine: Arc<Machine>, nproc: usize) -> Self {
        let plane = FaultPlane::new(
            nproc.max(1),
            Arc::clone(machine.stats()),
            RunOptions::default(),
        );
        Self::with_fault_plane(machine, nproc, plane)
    }

    /// Like [`new`](Self::new), but running under a caller-supplied fault
    /// plane (watchdog and fault injection configured by the force
    /// builder).
    ///
    /// # Panics
    /// Panics if `nproc` is zero.
    pub fn with_fault_plane(machine: Arc<Machine>, nproc: usize, plane: Arc<FaultPlane>) -> Self {
        assert!(nproc > 0, "a force needs at least one process");
        ForceEnvironment {
            barwin: machine.make_dedicated_lock(LockState::Unlocked),
            barwot: machine.make_dedicated_lock(LockState::Locked),
            zznbar: AtomicUsize::new(0),
            named_locks: Mutex::new(HashMap::new()),
            shared_indices: Mutex::new(HashMap::new()),
            next_pid: AtomicUsize::new(nproc),
            fault_plane: plane,
            nproc,
            machine,
        }
    }

    /// Number of processes in the force.
    pub fn nproc(&self) -> usize {
        self.nproc
    }

    /// The machine this environment lives on.
    pub fn machine(&self) -> &Arc<Machine> {
        &self.machine
    }

    /// The force's fault plane.
    pub fn fault_plane(&self) -> &Arc<FaultPlane> {
        &self.fault_plane
    }

    /// Look up (creating on first use) the named lock variable — the
    /// `define_lock(var)` / `init_lock(var)` pair.  Critical sections and
    /// user lock variables share this table, so the same name always
    /// aliases the same lock, exactly like a shared Fortran variable.
    pub fn named_lock(&self, name: &str) -> LockHandle {
        let mut table = self.named_locks.lock();
        if let Some(lock) = table.get(name) {
            return Arc::clone(lock);
        }
        let lock = self.machine.make_lock(LockState::Unlocked);
        table.insert(name.to_string(), Arc::clone(&lock));
        lock
    }

    /// Look up (creating on first use) the shared loop-index cell for a
    /// selfscheduled loop label (`K_shared` in the §4.2 expansion).
    pub fn shared_index(&self, label: &str) -> Arc<AtomicI64> {
        let mut table = self.shared_indices.lock();
        if let Some(cell) = table.get(label) {
            return Arc::clone(cell);
        }
        let cell = Arc::<AtomicI64>::default();
        table.insert(label.to_string(), Arc::clone(&cell));
        cell
    }

    /// Hand out a fresh unique process identifier beyond the initial
    /// force (used by Askfor-style dynamic helpers in extensions).
    pub fn fresh_pid(&self) -> usize {
        self.next_pid.fetch_add(1, Ordering::Relaxed)
    }

    /// Count of named locks created so far.
    pub fn named_lock_count(&self) -> usize {
        self.named_locks.lock().len()
    }

    /// Restore the environment to its initial state for a session's
    /// next run: `BARWIN` unlocked, `BARWOT` locked, `ZZNBAR` zero, the
    /// named-lock and shared-index tables empty, and the dynamic-pid
    /// source back at `nproc`.  Dropping the lock tables (rather than
    /// unlocking each entry) matches the macro semantics — every run's
    /// driver re-executes `init_lock`, so locks a faulted run stranded
    /// in the locked state simply cease to exist.  Must only be called
    /// while no process of the force is running.
    pub fn reset(&self) {
        if self.barwin.is_locked() {
            self.barwin.unlock();
        }
        let _ = self.barwot.try_lock();
        self.zznbar.store(0, Ordering::Relaxed);
        self.named_locks.lock().clear();
        self.shared_indices.lock().clear();
        self.next_pid.store(self.nproc, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineId;

    #[test]
    fn barrier_locks_have_the_canonical_initial_states() {
        let m = Machine::new(MachineId::EncoreMultimax);
        let env = ForceEnvironment::new(m, 4);
        assert!(!env.barwin.is_locked(), "BARWIN starts unlocked");
        assert!(env.barwot.is_locked(), "BARWOT starts locked");
        assert_eq!(env.zznbar.load(Ordering::Relaxed), 0);
        assert_eq!(env.nproc(), 4);
    }

    #[test]
    fn named_locks_alias_by_name() {
        let m = Machine::new(MachineId::Flex32);
        let env = ForceEnvironment::new(m, 2);
        let a = env.named_lock("LOOP100");
        let b = env.named_lock("LOOP100");
        let c = env.named_lock("LOOP200");
        a.lock();
        assert!(!b.try_lock(), "same name = same lock");
        assert!(c.try_lock(), "different name = different lock");
        a.unlock();
        c.unlock();
        assert_eq!(env.named_lock_count(), 2);
    }

    #[test]
    fn shared_indices_alias_by_label() {
        let m = Machine::new(MachineId::Hep);
        let env = ForceEnvironment::new(m, 2);
        let k1 = env.shared_index("100");
        let k2 = env.shared_index("100");
        k1.store(7, Ordering::SeqCst);
        assert_eq!(k2.load(Ordering::SeqCst), 7);
    }

    #[test]
    fn fresh_pids_do_not_collide_with_the_force() {
        let m = Machine::new(MachineId::Cray2);
        let env = ForceEnvironment::new(m, 3);
        let p = env.fresh_pid();
        let q = env.fresh_pid();
        assert!(p >= 3 && q >= 3 && p != q);
    }

    #[test]
    #[should_panic(expected = "at least one process")]
    fn zero_proc_force_rejected() {
        let m = Machine::new(MachineId::Hep);
        let _ = ForceEnvironment::new(m, 0);
    }
}
