//! The force of processes — the Force's global-parallelism execution model.
//!
//! "A Force program is written with the assumption of the existence of a
//! force of processes to execute the program" (§4.1.1).  Work is never
//! assigned to named processes; it is distributed over the whole force by
//! the parallel constructs, and a correct Force program runs with *any*
//! number of processes.
//!
//! [`Force`] is the driver the preprocessor would generate: it creates the
//! processes, hands each a [`Player`] context, runs
//! the program body in all of them, and performs the final `Join`.
//!
//! A `Force` is a reusable **session**: a machine-dependent
//! [`Session`] (counters, pool, fault plane, the record of the last run)
//! runs every job, and the force keeps only what the paper's
//! `force_environment` declares plus its per-occurrence construct state
//! (the two-lock barrier, the named-lock table, the collective registry
//! behind selfscheduled loops, Pcase and Askfor), *reset in place* at the
//! start of every [`execute`](Force::execute) instead of being
//! reallocated.  Each run's [`RunOptions`] (watchdog, fault injection,
//! tracing, default schedule, backend) are passed with it:
//! [`try_execute_with`](Force::try_execute_with).  Attach a
//! resident [`ForcePool`] with [`with_pool`](Force::with_pool) and
//! successive executes reuse the pool's worker threads too — no per-run
//! process creation at all.

use std::collections::HashMap;
use std::sync::Arc;

use force_machdep::{
    FaultPlane, ForcePool, LockHandle, Machine, MachineId, Mutex, ProcessFault, ProfileReport,
    RunOptions, Session, StatsSnapshot, VirtualSummary,
};

use crate::barrier::TwoLockBarrier;
use crate::player::Player;
use crate::registry::CollectiveRegistry;

/// A configured force session: a process count bound to a machine
/// personality, resident construct state that is reset between runs, and
/// optional dispatch onto a resident [`ForcePool`].  A run with no
/// [`RunOptions`] runs with the defaults (no watchdog, no injection, no
/// tracing, §4.2 selfscheduling, a thread per pid); name them per run
/// with [`try_execute_with`](Force::try_execute_with).
pub struct Force {
    nproc: usize,
    /// Runs every job: machine, counters, pool, plane.
    session: Session,
    /// The session's resident fault plane (its width never changes).
    plane: Arc<FaultPlane>,
    /// The session's two-lock barrier: `BARWIN`, `BARWOT`, `ZZNBAR`.
    barrier: Arc<TwoLockBarrier>,
    /// Named lock variables (`define_lock`), created on first use:
    /// critical sections and user locks share the table, so the same name
    /// always aliases the same lock.
    named_locks: Arc<Mutex<HashMap<String, LockHandle>>>,
    /// Per-occurrence collective state (selfsched counters, askfor
    /// queues, Pcase slots), cleared between runs.
    registry: Arc<CollectiveRegistry>,
}

impl Force {
    /// A force of `nproc` processes on the default machine personality
    /// (Flex/32: combined locks behave well whether or not the host is
    /// oversubscribed).
    ///
    /// # Panics
    /// Panics if `nproc` is zero.
    pub fn new(nproc: usize) -> Self {
        Self::with_machine(nproc, Machine::new(MachineId::Flex32))
    }

    /// A force of `nproc` processes on an explicit machine personality.
    ///
    /// # Panics
    /// Panics if `nproc` is zero.
    pub fn with_machine(nproc: usize, machine: Arc<Machine>) -> Self {
        let session = Session::new(Arc::clone(&machine));
        Force {
            nproc,
            plane: session.fault_plane(nproc),
            session,
            barrier: Arc::new(TwoLockBarrier::new(&machine, nproc)),
            named_locks: Arc::default(),
            registry: Arc::new(CollectiveRegistry::new()),
        }
    }

    /// Attach a resident [`ForcePool`]: a thread-per-pid run that fits it
    /// reuses its workers instead of creating threads; any other run
    /// (wider, or on the `Virtual` backend) uses scoped
    /// threads as if no pool were attached
    /// ([`force_machdep::launch_plane`] decides per run).  Pools may be
    /// shared by several sessions (a pool runs one job at a time).
    pub fn with_pool(self, pool: Arc<ForcePool>) -> Self {
        self.session.attach_pool(pool);
        self
    }

    /// Number of processes in the force.
    pub fn nproc(&self) -> usize {
        self.nproc
    }

    /// The machine the force runs on.
    pub fn machine(&self) -> &Arc<Machine> {
        self.session.machine()
    }

    /// Execute `body` on every process of the force and `Join`: the call
    /// returns when all processes have finished, with each process's
    /// result in pid order.
    ///
    /// `body` is the Force *main program*: it runs `nproc` times
    /// concurrently, each time with a distinct [`Player`].  Anything the
    /// closure captures by shared reference is a *shared* variable in the
    /// Force classification; the closure's locals are *private*.
    pub fn execute<R, F>(&self, body: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&Player) -> R + Sync,
    {
        match self.try_execute(body) {
            Ok(results) => results,
            // Re-raise the first faulting process's original panic payload
            // so callers (and `should_panic` tests) see it verbatim.
            Err(fault) => match self.fault_plane().take_payload() {
                Some(payload) => std::panic::resume_unwind(payload),
                None => panic!("{fault}"),
            },
        }
    }

    /// Like [`execute`](Self::execute), but returning a structured
    /// [`ProcessFault`] instead of panicking when a process of the force
    /// panics.
    pub fn try_execute<R, F>(&self, body: F) -> Result<Vec<R>, ProcessFault>
    where
        R: Send,
        F: Fn(&Player) -> R + Sync,
    {
        self.try_execute_with(RunOptions::default(), body)
    }

    /// Run one job under `options` (watchdog bound, fault injection,
    /// tracing, default schedule, backend), which apply to this run only.
    /// This is how a *shared* session — e.g. one pooled force serving
    /// many callers — is configured per job without `&mut` access.
    pub fn try_execute_with<R, F>(
        &self,
        options: RunOptions,
        body: F,
    ) -> Result<Vec<R>, ProcessFault>
    where
        R: Send,
        F: Fn(&Player) -> R + Sync,
    {
        // A fault may have stranded the barrier or a named lock
        // mid-episode: the barrier starts the run in its initial state, and
        // the named locks cease to exist (every run's driver re-executes
        // `init_lock`).
        let reset = || {
            self.registry.reset();
            self.barrier.reset();
            self.named_locks.lock().clear();
        };
        self.session.run(self.nproc, options, reset, |run| {
            run.launch(|pid| {
                let player = Player::new(
                    pid,
                    self.nproc,
                    Arc::clone(self.machine()),
                    Arc::clone(&self.barrier),
                    Arc::clone(&self.named_locks),
                    Arc::clone(&self.registry),
                );
                body(&player)
            })
        })
    }

    /// Primitive-operation counts of the most recent run — the per-job
    /// delta, not the machine's cumulative totals (which, on a resident
    /// session or shared pool, span every job since creation).  `None`
    /// before the first run and after a run that faulted: a torn-down
    /// job has no meaningful per-job counts, and returning the previous
    /// job's delta would be a cross-job leak.
    pub fn last_job_stats(&self) -> Option<StatsSnapshot> {
        self.session.last_job_stats()
    }

    /// Construct-level profile of the most recent run: per-construct
    /// wait/hold histograms, named-lock contention, barrier arrival
    /// spread, DOALL trip distribution, and the retained event trace
    /// (exportable with [`ProfileReport::chrome_trace_json`]).  `None`
    /// when the most recent run did not set `RunOptions::trace`, or
    /// faulted.  Summarized here, from the resident sink, under the run
    /// lock: call it between runs, never from inside a job body.
    pub fn last_job_profile(&self) -> Option<ProfileReport> {
        self.session.last_job_profile()
    }

    /// Summary of the most recent run's virtual schedule — seed, decision
    /// count, virtual makespan, and the order-sensitive schedule digest.
    /// `None` unless the most recent run used
    /// [`force_machdep::ParkBackend::Virtual`].  Two runs of the same
    /// program with the same `(seed, machine)` produce identical
    /// summaries, faulted or not; read it between runs.
    pub fn last_virtual_summary(&self) -> Option<VirtualSummary> {
        self.session.last_virtual_summary()
    }

    /// The session's resident fault plane.  The job server (force-serve)
    /// binds this to a job's attempt (`JobCx::bind_plane`) so deadline
    /// watchers can cancel a running job through the plane's trip token.
    pub fn fault_plane(&self) -> &Arc<FaultPlane> {
        &self.plane
    }

    /// Like [`execute`](Self::execute) but discarding per-process results.
    pub fn run<F>(&self, body: F)
    where
        F: Fn(&Player) + Sync,
    {
        self.execute(body);
    }

    /// Like [`run`](Self::run), but returning a structured
    /// [`ProcessFault`] instead of panicking on a faulting process.
    pub fn try_run<F>(&self, body: F) -> Result<(), ProcessFault>
    where
        F: Fn(&Player) + Sync,
    {
        self.try_execute(body).map(|_| ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use force_machdep::SchedulePolicy;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    #[test]
    fn every_process_runs_once_with_its_pid() {
        let force = Force::new(6);
        let results = force.execute(|p| (p.pid(), p.nproc()));
        assert_eq!(results, (0..6).map(|i| (i, 6)).collect::<Vec<_>>());
    }

    #[test]
    fn shared_captures_are_shared_private_locals_are_private() {
        let force = Force::new(4);
        let shared = AtomicUsize::new(0);
        let privates = force.execute(|_p| {
            let mut private = 0usize; // private variable
            for _ in 0..100 {
                private += 1;
                shared.fetch_add(1, Ordering::Relaxed); // shared variable
            }
            private
        });
        assert_eq!(shared.load(Ordering::Relaxed), 400);
        assert!(privates.iter().all(|&p| p == 100));
    }

    #[test]
    fn execute_can_be_called_repeatedly() {
        let force = Force::new(3);
        for round in 0..5 {
            let r = force.execute(move |p| p.pid() + round);
            assert_eq!(r, vec![round, 1 + round, 2 + round]);
        }
    }

    #[test]
    fn a_fresh_force_creates_only_its_barrier_locks() {
        // The force environment has one home: `BARWIN` and `BARWOT` are
        // the only locks a force makes before its program names one.
        for id in MachineId::all() {
            let machine = Machine::new(id);
            let _force = Force::with_machine(4, Arc::clone(&machine));
            let created = machine.stats().snapshot().locks_created;
            assert_eq!(created, 2, "{}", id.name());
        }
    }

    #[test]
    fn named_locks_alias_by_name() {
        // Pid 1 sees the lock pid 0 holds under the same name, and a free
        // one under another; the run's reset empties the table.
        let force = Force::new(2);
        force.run(|p| {
            if p.pid() == 0 {
                p.named_lock("LOOP100").lock();
            }
            p.barrier();
            if p.pid() == 1 {
                assert!(!p.named_lock("LOOP100").try_lock(), "same name = same lock");
                let other = p.named_lock("LOOP200");
                assert!(other.try_lock(), "different name = different lock");
                other.unlock();
            }
            p.barrier();
            if p.pid() == 0 {
                p.named_lock("LOOP100").unlock();
            }
        });
        assert_eq!(force.named_locks.lock().len(), 2);
        force.run(|_p| {});
        assert!(force.named_locks.lock().is_empty(), "reset per run");
    }

    #[test]
    fn runs_on_every_machine_personality() {
        for id in MachineId::all() {
            let force = Force::with_machine(4, Machine::new(id));
            let total: usize = force.execute(|p| p.pid()).into_iter().sum();
            assert_eq!(total, 6, "{}", id.name());
        }
    }

    #[test]
    fn independence_of_process_count() {
        // The same program must compute the same result for any nproc —
        // the paper's central claim about the programming model.
        let expected: usize = (0..1000).sum();
        for nproc in [1, 2, 3, 5, 8] {
            let force = Force::new(nproc);
            let shared = AtomicUsize::new(0);
            force.run(|p| {
                p.selfsched_do(crate::schedule::ForceRange::to(0, 999), |i| {
                    shared.fetch_add(i as usize, Ordering::Relaxed);
                });
            });
            assert_eq!(shared.load(Ordering::Relaxed), expected, "nproc={nproc}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one process")]
    fn zero_process_force_rejected() {
        let _ = Force::new(0);
    }

    #[test]
    fn try_execute_returns_ok_results() {
        let force = Force::new(3);
        let r = force.try_execute(|p| p.pid()).expect("no faults");
        assert_eq!(r, vec![0, 1, 2]);
    }

    #[test]
    fn try_execute_reports_a_structured_fault() {
        let force = Force::new(4);
        let err = force
            .try_execute(|p| {
                if p.pid() == 3 {
                    panic!("process three exploded");
                }
                p.barrier(); // peers park here until cancellation
            })
            .expect_err("the panic must surface as a fault");
        assert_eq!(err.pid, 3);
        assert_eq!(err.construct, "body");
        assert_eq!(err.payload, "process three exploded");
    }

    #[test]
    fn execute_still_panics_with_the_original_payload() {
        let force = Force::new(2);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            force.run(|p| {
                if p.pid() == 0 {
                    panic!("original payload text");
                }
                p.barrier();
            });
        }));
        let payload = caught.expect_err("must propagate");
        let msg = payload.downcast_ref::<&str>().expect("&str payload");
        assert_eq!(*msg, "original payload text");
    }

    #[test]
    fn watchdog_reports_a_wedged_force() {
        // Every process consumes from an async variable nobody produces:
        // a guaranteed deadlock, reported by the run's watchdog; the next
        // run has none and works.
        let force = Force::new(2);
        let chan: crate::asyncvar::Async<u64> = crate::asyncvar::Async::new(force.machine());
        let options = RunOptions {
            watchdog: Some(Duration::from_millis(100)),
            ..RunOptions::default()
        };
        let err = force
            .try_execute_with(options, |_p| chan.consume())
            .expect_err("the watchdog must trip");
        assert_eq!(err.construct, "consume");
        assert!(err.payload.contains("deadlock watchdog"), "{}", err.payload);
        assert_eq!(
            force.try_execute(|p| p.pid()).expect("clean run"),
            vec![0, 1]
        );
    }

    #[test]
    fn injected_panics_surface_as_faults() {
        use force_machdep::FaultInjection;
        let inj = FaultInjection {
            seed: 0xF0CE,
            panic_per_mille: 1000,
            delay_per_mille: 0,
            spurious_per_mille: 0,
        };
        let force = Force::new(2);
        let options = RunOptions {
            injection: Some(inj),
            ..RunOptions::default()
        };
        let err = force
            .try_execute_with(options, |p| p.barrier())
            .expect_err("a certain injection must fault the force");
        assert!(err.payload.contains("injected fault"), "{}", err.payload);
    }

    #[test]
    fn pooled_force_matches_scoped_results() {
        let machine = Machine::new(MachineId::EncoreMultimax);
        let pool = Arc::new(ForcePool::new(4, machine.stats()));
        let pooled = Force::with_machine(4, Arc::clone(&machine)).with_pool(pool);
        let scoped = Force::with_machine(4, machine);
        for _ in 0..5 {
            let shared_p = AtomicUsize::new(0);
            let shared_s = AtomicUsize::new(0);
            pooled.run(|p| {
                p.selfsched_do(crate::schedule::ForceRange::to(1, 100), |i| {
                    shared_p.fetch_add(i as usize, Ordering::Relaxed);
                });
            });
            scoped.run(|p| {
                p.selfsched_do(crate::schedule::ForceRange::to(1, 100), |i| {
                    shared_s.fetch_add(i as usize, Ordering::Relaxed);
                });
            });
            assert_eq!(
                shared_p.load(Ordering::Relaxed),
                shared_s.load(Ordering::Relaxed)
            );
            assert_eq!(shared_p.load(Ordering::Relaxed), 5050);
        }
    }

    #[test]
    fn pooled_session_creates_no_processes_per_run() {
        let machine = Machine::new(MachineId::SequentBalance);
        let pool = Arc::new(ForcePool::new(3, machine.stats()));
        let force = Force::with_machine(3, Arc::clone(&machine)).with_pool(pool);
        let created_before = machine.stats().snapshot().processes_created;
        for _ in 0..10 {
            force.run(|p| p.barrier());
        }
        let created_after = machine.stats().snapshot().processes_created;
        assert_eq!(
            created_after, created_before,
            "a resident pool amortizes process creation across jobs"
        );
    }

    #[test]
    fn pooled_session_park_counters_reset_per_job() {
        // Cray-2 locks block in `park::wait_on`, so a contended critical
        // section parks; the per-job delta must balance (every episode
        // woken) and a job with no blocking must report zero parks.
        let machine = Machine::new(MachineId::Cray2);
        let pool = Arc::new(ForcePool::new(2, machine.stats()));
        let force = Force::with_machine(2, Arc::clone(&machine)).with_pool(pool);
        force.run(|p| {
            if p.pid() == 0 {
                p.critical("HOLD", || std::thread::sleep(Duration::from_millis(30)));
            } else {
                std::thread::sleep(Duration::from_millis(5));
                p.critical("HOLD", || {});
            }
        });
        let s = force.last_job_stats().unwrap();
        assert!(s.parks >= 1, "the contender must park at least once");
        assert_eq!(
            s.park_wakes, s.parks,
            "every park episode of the job must have ended"
        );
        force.run(|_p| {});
        let s = force.last_job_stats().unwrap();
        assert_eq!(s.parks, 0, "per-job delta, not cumulative");
        assert_eq!(s.park_wakes, 0);
        assert_eq!(s.park_spurious_wakes, 0);
    }

    #[test]
    fn virtual_backend_replays_the_same_schedule_for_the_same_seed() {
        // The tentpole contract: the virtual scheduler is a pure function
        // of (seed, machine, program).  Two runs with the same seed must
        // produce byte-identical decision digests and op-counter deltas;
        // a different seed must pick a different interleaving.
        let machine = Machine::new(MachineId::Cray2);
        let force = Force::with_machine(4, Arc::clone(&machine));
        let run = |seed: u64| {
            let order = std::sync::Mutex::new(Vec::new());
            force
                .try_execute_with(
                    RunOptions {
                        backend: force_machdep::ParkBackend::Virtual { seed },
                        ..RunOptions::default()
                    },
                    |p| {
                        p.barrier();
                        p.critical("ORDER", || order.lock().unwrap().push(p.pid()));
                        p.barrier();
                    },
                )
                .expect("a virtual job must complete");
            let summary = force
                .last_virtual_summary()
                .expect("a virtual job must leave a summary");
            let stats = force.last_job_stats().expect("per-job stats");
            (summary, stats, order.into_inner().unwrap())
        };
        let (s1, st1, o1) = run(0xF0CE);
        let (s2, st2, o2) = run(0xF0CE);
        assert_eq!(s1, s2, "same seed, same machine => same schedule");
        assert_eq!(st1, st2, "op-counter deltas must replay exactly");
        assert_eq!(o1, o2, "critical-section arrival order must replay");
        assert!(s1.makespan_ns > 0, "the cost model must advance time");
        assert_eq!(s1.seed, 0xF0CE);
        let (s3, _, _) = run(0xBEEF);
        assert_ne!(
            s1.digest, s3.digest,
            "a different seed must explore a different interleaving"
        );
    }

    #[test]
    fn virtual_backend_reports_a_deterministic_deadlock() {
        // Nobody produces: under wall clocks the watchdog trips after a
        // real-time bound; under virtual time the scheduler itself proves
        // no live process can advance and trips at a virtual instant that
        // replays exactly.
        let machine = Machine::new(MachineId::Hep);
        let force = Force::with_machine(2, Arc::clone(&machine));
        let chan: crate::asyncvar::Async<u64> = crate::asyncvar::Async::new(force.machine());
        let run = |seed: u64| {
            let err = force
                .try_execute_with(
                    RunOptions {
                        backend: force_machdep::ParkBackend::Virtual { seed },
                        ..RunOptions::default()
                    },
                    |_p| {
                        let _ = chan.consume();
                    },
                )
                .expect_err("an unproduced consume must deadlock");
            assert!(err.payload.contains("virtual scheduler"), "{}", err.payload);
            force.last_virtual_summary().expect("summary")
        };
        assert_eq!(run(7), run(7), "even the deadlock replays");
    }

    #[test]
    fn last_job_stats_reports_per_job_deltas() {
        let force = Force::new(2);
        assert!(
            force.last_job_stats().is_none(),
            "no stats before the first run"
        );
        force.run(|p| {
            for _ in 0..3 {
                p.barrier();
            }
        });
        assert_eq!(force.last_job_stats().unwrap().barrier_episodes, 3);
        force.run(|p| p.barrier());
        assert_eq!(
            force.last_job_stats().unwrap().barrier_episodes,
            1,
            "per-job delta, not cumulative"
        );
    }

    #[test]
    fn construct_state_resets_between_runs_with_different_sequences() {
        // Run 1's collective #0 is a selfsched loop; run 2's collective #0
        // is a Pcase-style barrier section.  Without the registry reset the
        // second run would either panic as divergent or inherit a spent
        // loop counter and skip every iteration.
        let force = Force::new(3);
        let sum = AtomicUsize::new(0);
        force.run(|p| {
            p.selfsched_do(crate::schedule::ForceRange::to(1, 10), |i| {
                sum.fetch_add(i as usize, Ordering::Relaxed);
            });
        });
        assert_eq!(sum.load(Ordering::Relaxed), 55);
        let sections = AtomicUsize::new(0);
        force.run(|p| {
            p.barrier_section(|| {
                sections.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(sections.load(Ordering::Relaxed), 1);
        // And the same loop again must re-run all iterations from scratch.
        sum.store(0, Ordering::Relaxed);
        force.run(|p| {
            p.selfsched_do(crate::schedule::ForceRange::to(1, 10), |i| {
                sum.fetch_add(i as usize, Ordering::Relaxed);
            });
        });
        assert_eq!(sum.load(Ordering::Relaxed), 55);
    }

    #[test]
    fn session_recovers_after_a_fault() {
        // A fault strands the barrier mid-episode; the next run on the
        // same session must start from a clean slate.
        let force = Force::new(3);
        let err = force
            .try_run(|p| {
                if p.pid() == 1 {
                    panic!("mid-barrier casualty");
                }
                p.barrier();
                p.barrier();
            })
            .expect_err("the panic must fault the force");
        assert_eq!(err.pid, 1);
        let r = force.try_execute(|p| {
            p.barrier();
            p.pid()
        });
        assert_eq!(
            r.expect("session must be reusable after a fault"),
            vec![0, 1, 2]
        );
    }

    #[test]
    fn per_run_default_schedule_lasts_one_run() {
        // Default: selfsched.  Per-run: cyclic, observable as
        // presched's deterministic per-process trip assignment.
        let force = Force::new(4);
        let r = force
            .try_execute_with(
                RunOptions {
                    default_schedule: SchedulePolicy::Cyclic,
                    ..RunOptions::default()
                },
                |p| {
                    let mut mine = Vec::new();
                    p.doall(crate::schedule::ForceRange::to(0, 11), |i| mine.push(i));
                    mine
                },
            )
            .expect("clean run");
        assert_eq!(r[0], vec![0, 4, 8]);
        assert_eq!(r[3], vec![3, 7, 11]);
        // The next run reverts to selfsched; coverage stays exact.
        let sum = AtomicUsize::new(0);
        force.run(|p| {
            p.doall(crate::schedule::ForceRange::to(1, 10), |i| {
                sum.fetch_add(i as usize, Ordering::Relaxed);
            });
        });
        assert_eq!(sum.load(Ordering::Relaxed), 55);
    }

    #[test]
    fn traced_run_surfaces_a_profile() {
        let force = Force::new(3);
        let options = RunOptions {
            trace: true,
            ..RunOptions::default()
        };
        force
            .try_execute_with(options, |p| {
                p.presched_do(crate::schedule::ForceRange::to(1, 30), |_| {});
                p.critical("HOT", || {});
                p.barrier();
            })
            .expect("clean run");
        let r = force.last_job_profile().expect("traced run has a profile");
        assert_eq!(r.nproc, 3);
        assert!(r.construct("doall").is_some(), "doall attributed");
        assert!(r.construct("barrier").is_some(), "barrier attributed");
        assert!(r.construct("critical").is_some(), "critical attributed");
        let l = r.named_lock("HOT").expect("named lock profiled");
        assert_eq!(l.acquires, 3);
        assert_eq!(l.wait.count(), 3);
        assert_eq!(l.hold.count(), 3);
        assert_eq!(r.doall_trips.iter().sum::<u64>(), 30, "30 trips traced");
        assert!(
            r.barrier_spread.count() >= 2,
            "doall end + explicit barrier"
        );
        let json = r.chrome_trace_json();
        assert!(json.contains("\"ph\":\"B\"") && json.contains("\"ph\":\"E\""));
    }

    #[test]
    fn per_run_tracing_lasts_one_run() {
        let force = Force::new(2);
        force
            .try_execute_with(
                RunOptions {
                    trace: true,
                    ..RunOptions::default()
                },
                |p| p.barrier(),
            )
            .expect("clean run");
        let r = force.last_job_profile().expect("per-run tracing");
        assert!(r.construct("barrier").is_some());
        // The next run does not trace.
        force.run(|p| p.barrier());
        assert!(force.last_job_profile().is_none());
    }

    #[test]
    fn spurious_injection_perturbs_but_preserves_results() {
        use force_machdep::FaultInjection;
        let inj = FaultInjection {
            seed: 7,
            panic_per_mille: 0,
            delay_per_mille: 0,
            spurious_per_mille: 300,
        };
        let force = Force::new(4);
        let before = force.machine().stats().snapshot().faults_injected;
        let shared = AtomicUsize::new(0);
        let options = RunOptions {
            injection: Some(inj),
            ..RunOptions::default()
        };
        force
            .try_execute_with(options, |p| {
                for _ in 0..20 {
                    p.critical("S", || {
                        let v = shared.load(Ordering::Relaxed);
                        shared.store(v + 1, Ordering::Relaxed);
                    });
                    p.barrier();
                }
            })
            .expect("spurious failures do not fault the force");
        assert_eq!(shared.load(Ordering::Relaxed), 80);
        let after = force.machine().stats().snapshot().faults_injected;
        assert!(after > before, "a 30% spurious rate must have fired");
    }
}
