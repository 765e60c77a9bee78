//! One process of the force.
//!
//! A [`Player`] is the per-process execution context: its unique process
//! identifier, the force size, and handles to the parallel environment.
//! The work-distribution and synchronization constructs are methods on
//! `Player`, implemented in their own modules (`doall`, `pcase`, `askfor`,
//! `resolve`, `critical`).
//!
//! A `Player` is created by [`Force::execute`](crate::force::Force::execute)
//! for exactly one thread and is deliberately `!Sync`: the Force model has
//! no notion of two processes sharing one process context.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::sync::Arc;

use force_machdep::fault;
use force_machdep::{Construct, LockHandle, LockState, Machine, Mutex};

use crate::barrier::TwoLockBarrier;
use crate::registry::CollectiveRegistry;

/// The per-process context of a Force program.
pub struct Player {
    pid: usize,
    nproc: usize,
    machine: Arc<Machine>,
    barrier: Arc<TwoLockBarrier>,
    /// The force's named-lock table (`define_lock`).
    named_locks: Arc<Mutex<HashMap<String, LockHandle>>>,
    registry: Arc<CollectiveRegistry>,
    /// Ordinal of the next collective construct this process will
    /// encounter (private; advances in lockstep across the force for a
    /// correct SPMD program).
    seq: Cell<usize>,
    /// The named locks this process has used, so that entering a critical
    /// section again takes neither the force's table mutex nor an
    /// allocation.  A player lives for one run and the force's table is
    /// only cleared between runs, so an entry cannot go stale.
    named: RefCell<Vec<(Box<str>, LockHandle)>>,
}

impl Player {
    pub(crate) fn new(
        pid: usize,
        nproc: usize,
        machine: Arc<Machine>,
        barrier: Arc<TwoLockBarrier>,
        named_locks: Arc<Mutex<HashMap<String, LockHandle>>>,
        registry: Arc<CollectiveRegistry>,
    ) -> Self {
        Player {
            pid,
            nproc,
            machine,
            barrier,
            named_locks,
            registry,
            seq: Cell::new(0),
            named: RefCell::new(Vec::new()),
        }
    }

    /// This process's unique identifier, `0..nproc`.
    pub fn pid(&self) -> usize {
        self.pid
    }

    /// The size of the force.
    pub fn nproc(&self) -> usize {
        self.nproc
    }

    /// The machine personality the force runs on.
    pub fn machine(&self) -> &Arc<Machine> {
        &self.machine
    }

    /// Whether this is process 0 (handy for one-process I/O; note the
    /// Force's own idiom for one-process work is the barrier section).
    pub fn is_leader(&self) -> bool {
        self.pid == 0
    }

    // ---- barrier statements (§3.4) ----

    /// `Barrier` / `End barrier` with an empty section: wait for the
    /// whole force.
    pub fn barrier(&self) {
        let _c = fault::enter(Construct::Barrier);
        fault::inject(Construct::Barrier);
        self.barrier.wait();
    }

    /// The full barrier construct: all processes wait; exactly one
    /// (the last arriver) executes `section` while the others remain
    /// suspended; then all proceed.  Returns `Some(result)` in the
    /// process that executed the section, `None` in the rest.
    pub fn barrier_section<R>(&self, section: impl FnOnce() -> R) -> Option<R> {
        let _c = fault::enter(Construct::Barrier);
        fault::inject(Construct::Barrier);
        self.barrier.wait_section(section)
    }

    /// Barrier variant whose *first* arriver runs `init` in mutual
    /// exclusion — the §4.2 loop-entry idiom.
    pub fn barrier_first(&self, init: impl FnOnce()) {
        let _c = fault::enter(Construct::Barrier);
        fault::inject(Construct::Barrier);
        self.barrier.wait_first(init);
    }

    // ---- plumbing used by the construct modules ----

    /// Claim the next collective ordinal and fetch/create its shared
    /// state.
    pub(crate) fn collective<T, F>(&self, init: F) -> Arc<T>
    where
        T: Send + Sync + 'static,
        F: FnOnce() -> T,
    {
        let idx = self.seq.get();
        self.seq.set(idx + 1);
        self.registry.nth(idx, init)
    }

    /// The named lock variable `name` (shared across the force) — the
    /// `define_lock(var)` / `init_lock(var)` pair, created unlocked on the
    /// force's first use of the name.
    pub fn named_lock(&self, name: &str) -> LockHandle {
        let mut named = self.named.borrow_mut();
        if let Some((_, lock)) = named.iter().find(|(n, _)| **n == *name) {
            return Arc::clone(lock);
        }
        let mut table = self.named_locks.lock();
        let lock = match table.get(name) {
            Some(lock) => Arc::clone(lock),
            None => {
                let lock = self.machine.make_lock(LockState::Unlocked);
                table.insert(name.to_string(), Arc::clone(&lock));
                lock
            }
        };
        drop(table);
        named.push((name.into(), Arc::clone(&lock)));
        lock
    }
}

#[cfg(test)]
mod tests {
    use crate::force::Force;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn pids_are_unique_and_dense() {
        let force = Force::new(8);
        let mut pids = force.execute(|p| p.pid());
        pids.sort_unstable();
        assert_eq!(pids, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn exactly_one_leader() {
        let force = Force::new(5);
        let leaders = force
            .execute(|p| p.is_leader())
            .into_iter()
            .filter(|&b| b)
            .count();
        assert_eq!(leaders, 1);
    }

    #[test]
    fn barrier_section_runs_once_per_statement() {
        let force = Force::new(6);
        let counter = AtomicUsize::new(0);
        force.run(|p| {
            for _ in 0..10 {
                p.barrier_section(|| {
                    counter.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(counter.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn barrier_first_runs_once_per_statement() {
        let force = Force::new(4);
        let counter = AtomicUsize::new(0);
        force.run(|p| {
            p.barrier_first(|| {
                counter.fetch_add(1, Ordering::SeqCst);
            });
        });
        assert_eq!(counter.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn named_locks_are_shared_across_the_force() {
        let force = Force::new(4);
        let counter = AtomicUsize::new(0);
        force.run(|p| {
            for _ in 0..100 {
                let l = p.named_lock("CS");
                l.lock();
                let v = counter.load(Ordering::Relaxed);
                counter.store(v + 1, Ordering::Relaxed);
                l.unlock();
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 400);
    }
}
