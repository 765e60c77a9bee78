//! Failure injection and error surfacing: wrong-machine execution,
//! malformed programs, runtime faults, protocol misuse.  Errors must be
//! structured diagnostics — never hangs, never unsoundness.

use the_force::fortran::{Engine, FortErrorKind};
use the_force::machdep::{Machine, MachineId, ParkBackend};
use the_force::prelude::*;
use the_force::prep::preprocess;
use the_force::{run_force_source, ForceError};

const OK_PROGRAM: &str = "\
      Force FMAIN of NP ident ME
      Shared INTEGER N
      End declarations
      Critical L
      N = N + 1
      End critical
      Join
";

#[test]
fn expanded_code_is_not_portable_across_machines() {
    // Preprocess once per machine; run each expansion on every machine.
    // The diagonal must pass; off-diagonal runs whose lock mnemonics
    // differ must fail with a machine mismatch.
    for from in MachineId::all() {
        let exp = preprocess(OK_PROGRAM, from).unwrap();
        for to in MachineId::all() {
            let engine = Engine::from_expanded(&exp, Machine::new(to)).unwrap();
            let result = engine.run(2);
            let compatible = {
                let a = the_force::machdep::MachineSpec::of(from);
                let b = the_force::machdep::MachineSpec::of(to);
                a.vendor_locks == b.vendor_locks
                    && a.process_model == b.process_model
                    && a.sharing == b.sharing
            };
            match result {
                Ok(out) => {
                    assert!(
                        compatible,
                        "{} code ran on {} but should have mismatched",
                        from.name(),
                        to.name()
                    );
                    assert_eq!(
                        out.shared_scalar("N"),
                        Some(the_force::fortran::Value::Int(2))
                    );
                }
                Err(e) => {
                    assert!(!compatible, "{} on {} failed: {e}", from.name(), to.name());
                    assert!(
                        matches!(
                            e.kind,
                            FortErrorKind::MachineMismatch { .. } | FortErrorKind::Runtime(_)
                        ),
                        "wrong error kind: {e}"
                    );
                }
            }
        }
    }
}

#[test]
fn sed_errors_carry_line_numbers() {
    let src = "      Force M of NP ident ME\n      Produce X\n";
    match run_force_source(src, MachineId::Hep, 1) {
        Err(ForceError::Prep(e)) => assert!(e.to_string().contains("line 2"), "{e}"),
        other => panic!("expected a prep error, got {other:?}"),
    }
}

#[test]
fn out_of_bounds_subscript_is_reported_not_ub() {
    let src = "\
      Force FMAIN of NP ident ME
      Shared INTEGER A(4)
      Private INTEGER K
      End declarations
      K = 5
      A(K) = 1
      Join
";
    let err = run_force_source(src, MachineId::Flex32, 1).unwrap_err();
    assert!(err.to_string().contains("outside 1..4"), "{err}");
}

#[test]
fn division_by_zero_is_reported() {
    let src = "\
      Force FMAIN of NP ident ME
      Shared INTEGER X
      End declarations
      X = 1 / (X - X)
      Join
";
    let err = run_force_source(src, MachineId::Hep, 1).unwrap_err();
    assert!(err.to_string().contains("division by zero"), "{err}");
}

#[test]
fn a_panicking_process_fails_the_whole_force() {
    let force = Force::new(4);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        force.run(|p| {
            if p.pid() == 2 {
                panic!("process 2 crashed");
            }
            // The others do some private work and finish; the force is
            // joined before the panic resurfaces.
            let mut x = 0u64;
            for i in 0..100 {
                x += i;
            }
            std::hint::black_box(x);
        });
    }));
    assert!(result.is_err());
    // The machine is reusable after a crashed force.
    let force2 = Force::new(2);
    let sum = std::sync::atomic::AtomicU64::new(0);
    force2.run(|p| {
        sum.fetch_add(p.pid() as u64 + 1, std::sync::atomic::Ordering::Relaxed);
    });
    assert_eq!(sum.load(std::sync::atomic::Ordering::Relaxed), 3);
}

#[test]
fn goto_to_a_missing_label_is_a_compile_error() {
    let src = "\
      Force FMAIN of NP ident ME
      End declarations
      GO TO 999
      Join
";
    let err = run_force_source(src, MachineId::Hep, 1).unwrap_err();
    assert!(err.to_string().contains("unknown label 999"), "{err}");
}

#[test]
fn zero_trip_loops_are_not_an_error() {
    let src = "\
      Force FMAIN of NP ident ME
      Shared INTEGER N
      Private INTEGER K
      End declarations
      Selfsched DO 100 K = 5, 1
      Critical L
      N = N + 1
      End critical
100   End selfsched DO
      Presched DO 10 K = 5, 1
      N = N - 1
10    End presched DO
      Join
";
    let out = run_force_source(src, MachineId::SequentBalance, 3).unwrap();
    assert_eq!(
        out.shared_scalar("N"),
        Some(the_force::fortran::Value::Int(0))
    );
}

#[test]
fn wrong_argument_counts_are_reported() {
    let src = "\
      Force FMAIN of NP ident ME
      Externf W
      End declarations
      CALL W(1, 2)
      Join
      Forcesub W(A) of NP ident ME
      INTEGER A
      End declarations
      Join
";
    let err = run_force_source(src, MachineId::Hep, 1).unwrap_err();
    assert!(err.to_string().contains("expects 1 argument"), "{err}");
}

#[test]
fn unknown_subroutine_is_reported() {
    let src = "\
      Force FMAIN of NP ident ME
      End declarations
      CALL NOSUCH(1)
      Join
";
    let err = run_force_source(src, MachineId::Hep, 1).unwrap_err();
    assert!(err.to_string().contains("NOSUCH"), "{err}");
}

#[test]
fn value_arguments_are_read_only() {
    let src = "\
      Force FMAIN of NP ident ME
      Private INTEGER K
      Externf W
      End declarations
      K = 1
      CALL W(K)
      Join
      Forcesub W(A) of NP ident ME
      INTEGER A
      End declarations
      A = 2
      Join
";
    let err = run_force_source(src, MachineId::Flex32, 1).unwrap_err();
    assert!(err.to_string().contains("read-only"), "{err}");
}

#[test]
fn interpreter_errors_inside_the_force_propagate() {
    // The fault happens inside a spawned force process, not the driver.
    let src = "\
      Force FMAIN of NP ident ME
      Shared INTEGER A(4)
      End declarations
      A(ME + 10) = 1
      Join
";
    let err = run_force_source(src, MachineId::EncoreMultimax, 2).unwrap_err();
    assert!(err.to_string().contains("outside 1..4"), "{err}");
}

#[test]
fn scarce_lock_pool_still_correct_when_exhausted() {
    // More critical-section locks + async locks than the Cray pool holds:
    // aliasing causes false contention but never wrong answers.
    let mut decls = String::new();
    let mut body = String::new();
    for i in 0..40 {
        decls.push_str(&format!("      Shared INTEGER V{i}\n"));
        body.push_str(&format!(
            "      Critical L{i}\n      V{i} = V{i} + 1\n      End critical\n"
        ));
    }
    let src = format!(
        "      Force FMAIN of NP ident ME\n{decls}      End declarations\n{body}      Join\n"
    );
    let out = run_force_source(&src, MachineId::Cray2, 3).unwrap();
    for i in 0..40 {
        assert_eq!(
            out.shared_scalar(&format!("V{i}")),
            Some(the_force::fortran::Value::Int(3)),
            "V{i}"
        );
    }
    assert!(
        out.stats.locks_aliased > 0,
        "the pool should have been exhausted: {:?}",
        out.stats
    );
}

#[test]
fn faulted_critical_holder_does_not_wedge_the_scarce_pool() {
    // The Cray-2 wedged-slot hazard: a process that faults *inside* a
    // user critical never reaches its unlock.  The logical lock dies
    // with the run, but on a scarce-pool machine the physical slot
    // lives on in the `Machine` — and every later run whose `ZZINITU`
    // aliases that slot used to block forever.
    use std::sync::Arc;
    use the_force::machdep::LockState;

    let machine = Machine::new(MachineId::Cray2);
    let capacity = machine
        .spec()
        .lock_pool_capacity
        .expect("the Cray-2 pool is scarce");
    // Fill the pool so the program's user critical must alias slot 0.
    let slots: Vec<_> = (0..capacity)
        .map(|_| machine.make_lock(LockState::Unlocked))
        .collect();
    assert_eq!(machine.free_lock_slots(), Some(0));

    let faulty = "\
      Force FMAIN of NP ident ME
      Shared INTEGER N
      End declarations
      Critical L
      N = N + 1
      N = 1 / (N - N)
      End critical
      Join
";
    let exp = preprocess(faulty, MachineId::Cray2).unwrap();
    let engine = Engine::from_expanded(&exp, Arc::clone(&machine)).unwrap();
    let err = engine.run(2).expect_err("division inside the critical");
    assert!(err.to_string().contains("division by zero"), "{err}");
    for (i, slot) in slots.iter().enumerate() {
        assert!(
            !slot.is_locked(),
            "physical slot {i} left wedged by the faulting holder"
        );
    }

    // The same machine must run critical-heavy programs again — with
    // the wedge, any program aliasing slot 0 hung here forever.
    let ok = "\
      Force FMAIN of NP ident ME
      Shared INTEGER N
      End declarations
      Critical L
      N = N + 1
      End critical
      Join
";
    let exp = preprocess(ok, MachineId::Cray2).unwrap();
    for _ in 0..capacity {
        // Enough reruns for the round-robin cursor to lap the pool, so
        // at least one of them aliases the once-wedged slot 0.
        let engine = Engine::from_expanded(&exp, Arc::clone(&machine)).unwrap();
        let out = engine.run(2).expect("the pool must not stay wedged");
        assert_eq!(
            out.shared_scalar("N"),
            Some(the_force::fortran::Value::Int(2))
        );
    }
}

#[test]
fn scarce_lock_slots_come_back_when_their_sessions_are_done() {
    // ROADMAP 4(b): the Cray-2's pool never gave a slot back.  Every
    // `ZZINITU` of every run and every named critical of every session
    // took one for the machine's lifetime, so a machine that had served
    // 32 of them — one short session after another, the normal life of a
    // server — answered the next `Async::new` "scarce-lock pool
    // exhausted" with nothing left running on it.
    use std::sync::Arc;

    let machine = Machine::new(MachineId::Cray2);
    let capacity = machine
        .spec()
        .lock_pool_capacity
        .expect("the Cray-2 pool is scarce");
    let pool = Arc::new(ForcePool::new(2, machine.stats()));

    // A pooled native session whose criticals fill the pool exactly.
    let force = Force::with_machine(2, Arc::clone(&machine)).with_pool(Arc::clone(&pool));
    force.run(|p| {
        for i in 0..capacity {
            p.critical(&format!("C{i}"), || ());
        }
    });
    assert_eq!(machine.free_lock_slots(), Some(0));
    // While the session lives its locks are its own: this is the real
    // exhaustion `ScarceLockError` is for.
    let err = Async::<i64>::try_new(&machine)
        .err()
        .expect("32 live criticals leave no slot for a state lock");
    assert_eq!(err.capacity, capacity);
    drop(force);
    assert_eq!(machine.free_lock_slots(), Some(capacity));
    Async::<i64>::try_new(&machine).expect("the session is gone, and so are its locks");

    // A pooled engine session: each run's driver re-creates its user
    // lock, and 40 runs used to take 32 slots and then alias.
    let exp = preprocess(OK_PROGRAM, MachineId::Cray2).unwrap();
    let engine = Engine::from_expanded(&exp, Arc::clone(&machine)).unwrap();
    engine.set_pool(Arc::clone(&pool));
    for run in 0..capacity + 8 {
        let out = engine.run(2).expect("the program is sound");
        assert_eq!(out.stats.locks_aliased, 0, "run {run}");
    }
    assert_eq!(
        machine.free_lock_slots(),
        Some(capacity - 1),
        "the resident session holds its one user lock, not one per run"
    );
    let cell = Async::<i64>::try_new(&machine).expect("room for the E/F pair");
    drop(engine);
    assert_eq!(machine.free_lock_slots(), Some(capacity - 2), "the pair");
    drop(cell);
    assert_eq!(machine.free_lock_slots(), Some(capacity));
}

// --- Fault containment: the force-wide fault plane ---------------------

#[test]
fn a_panic_at_a_barrier_is_contained_on_every_machine() {
    // One process panics while its peers park at a barrier: on every
    // machine personality the peers must be cancelled (no hang) and the
    // caller must see a structured fault naming the right process.
    use std::time::{Duration, Instant};
    for id in MachineId::all() {
        for nproc in [2usize, 8] {
            let force =
                Force::with_machine(nproc, Machine::new(id)).with_watchdog(Duration::from_secs(5));
            let last = nproc - 1;
            let start = Instant::now();
            let err = force
                .try_run(|p| {
                    if p.pid() == last {
                        panic!("boom");
                    }
                    p.barrier();
                })
                .expect_err("the panic must surface as a fault");
            assert_eq!(err.pid, last, "{} nproc={nproc}", id.name());
            assert_eq!(err.construct, "body", "{} nproc={nproc}", id.name());
            assert_eq!(err.payload, "boom", "{} nproc={nproc}", id.name());
            assert!(
                start.elapsed() < Duration::from_secs(5),
                "{} nproc={nproc}: containment took the watchdog bound",
                id.name()
            );
        }
    }
}

#[test]
fn a_panic_holding_a_critical_lock_is_attributed_and_released() {
    // The faulting process dies *inside* a named critical section.  The
    // lock must be released on unwind (peers that already entered their
    // own critical finish it) and the fault must name the construct.
    for id in MachineId::all() {
        let force = Force::with_machine(4, Machine::new(id));
        let err = force
            .try_run(|p| {
                if p.pid() == 2 {
                    p.critical("WEDGE", || panic!("lock holder died"));
                }
                p.barrier();
            })
            .expect_err("the panic must surface as a fault");
        assert_eq!(err.pid, 2, "{}", id.name());
        assert_eq!(err.construct, "critical", "{}", id.name());
        assert_eq!(err.payload, "lock holder died", "{}", id.name());
    }
}

/// A process parked on a critical section another holds sleeps until it
/// is woken: nothing wakes it on a timer to look at the cancellation
/// token (a trip wakes it instead).  The holder keeps the lock until the
/// waiter has parked, and ≈ 95 ms longer; every wake the waiter takes in
/// that time is counted, and none may be spurious.
#[test]
fn a_process_parked_on_a_held_lock_sleeps_until_woken() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::{Duration, Instant};
    for id in [MachineId::Cray2, MachineId::Flex32] {
        let force = Force::with_machine(2, Machine::new(id));
        let plane = force.fault_plane();
        let held = AtomicBool::new(false);
        force
            .try_run(|p| match p.pid() {
                0 => p.critical("HELD", || {
                    held.store(true, Ordering::Release);
                    let give_up = Instant::now() + Duration::from_secs(5);
                    while plane.live_stats().parks == 0 {
                        assert!(Instant::now() < give_up, "the waiter never parked");
                        std::thread::yield_now();
                    }
                    std::thread::sleep(Duration::from_millis(95));
                }),
                _ => {
                    while !held.load(Ordering::Acquire) {
                        std::thread::yield_now();
                    }
                    p.critical("HELD", || {});
                }
            })
            .expect("a clean run");
        let ops = force.machine().stats().snapshot();
        assert_eq!(ops.park_spurious_wakes, 0, "{}: {ops:?}", id.name());
        assert_eq!(ops.parks, 1, "{}: one blocking episode", id.name());
        assert_eq!(
            ops.park_wakes,
            1,
            "{}: woken once, by the unlock",
            id.name()
        );
    }
}

/// From a peer's panic until the run returns, with the other two pids
/// asleep in the Askfor idle wait (`on_lock` false) or on a machine lock
/// the test holds throughout (`on_lock` true), so that only the trip can
/// wake them; and the run's counts.  The culprit lives 20 ms first, in a
/// wait that yields its run permit, so that under `Overcommit` its peers
/// get to fall asleep.
fn trip_to_last_pid_out(
    id: MachineId,
    backend: ParkBackend,
    on_lock: bool,
) -> (std::time::Duration, the_force::machdep::StatsSnapshot) {
    use std::time::{Duration, Instant};
    use the_force::machdep::{park, Construct, LockState, Mutex};
    let force = Force::with_machine(3, Machine::new(id));
    let wedge = force.machine().make_dedicated_lock(LockState::Locked);
    let panicked_at = Mutex::new(None);
    let live_then_die = || {
        let until = Instant::now() + Duration::from_millis(20);
        park::wait_until(Construct::Body, || Instant::now() >= until);
        *panicked_at.lock() = Some(Instant::now());
        std::panic::resume_unwind(Box::new("a peer dies"))
    };
    let options = RunOptions {
        backend,
        ..RunOptions::default()
    };
    let fault = force
        .try_execute_with(options, |p| match (on_lock, p.pid()) {
            (false, _) => p.askfor(|| vec![()], |(), _| live_then_die()),
            (true, 0) => live_then_die(),
            (true, _) => wedge.lock(),
        })
        .expect_err("the panic is the run's fault");
    let out = panicked_at.lock().expect("the culprit died").elapsed();
    assert_eq!(fault.payload, "a peer dies", "{}", id.name());
    (out, force.machine().stats().snapshot())
}

/// Trip → last pid out, on every machine where the wait exists: the
/// Askfor idle wait everywhere, the Cray-2's system-call lock and the
/// Flex/32's combined lock in phase 2.  The verdict is a count: both
/// peers observe the cancellation, and neither was woken for nothing
/// while it slept — a wait that looked at its token on a timer would be.
/// A lost wake hangs the run.  The times are printed, not asserted.
#[test]
fn a_trip_wakes_the_processes_it_cancels() {
    use std::time::Duration;
    let mut cells: Vec<(MachineId, bool)> = MachineId::all().map(|id| (id, false)).to_vec();
    cells.extend([(MachineId::Cray2, true), (MachineId::Flex32, true)]);
    for backend in [
        ParkBackend::ThreadPerPid,
        ParkBackend::Overcommit { workers: 1 },
    ] {
        for &(id, on_lock) in &cells {
            let site = if on_lock { "lock" } else { "askfor idle" };
            let mut outs: Vec<Duration> = (0..9)
                .map(|_| {
                    let (out, ops) = trip_to_last_pid_out(id, backend, on_lock);
                    let cell = format!("{site} on {}, {backend:?}", id.name());
                    assert_eq!(ops.cancellations_observed, 2, "{cell}: {ops:?}");
                    assert_eq!(ops.park_spurious_wakes, 0, "{cell}: {ops:?}");
                    out
                })
                .collect();
            outs.sort();
            println!(
                "trip -> last pid out, {site} on {}, {backend:?}: p50 {:?}, max {:?}",
                id.name(),
                outs[outs.len() / 2],
                outs[outs.len() - 1]
            );
        }
    }
}

#[test]
fn consume_with_no_producer_trips_the_watchdog_on_every_machine() {
    use std::time::{Duration, Instant};
    for id in MachineId::all() {
        let force =
            Force::with_machine(2, Machine::new(id)).with_watchdog(Duration::from_millis(200));
        let chan: Async<i64> = Async::new(force.machine());
        let start = Instant::now();
        let err = force
            .try_run(|_p| {
                let _ = chan.consume();
            })
            .expect_err("the watchdog must trip");
        assert_eq!(err.construct, "consume", "{}", id.name());
        assert!(
            err.payload.contains("deadlock watchdog"),
            "{}: {}",
            id.name(),
            err.payload
        );
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "{}: watchdog took too long",
            id.name()
        );
        assert!(
            force.machine().stats().snapshot().watchdog_trips >= 1,
            "{}: trip not counted",
            id.name()
        );
    }
}

#[test]
fn an_interpreter_error_cancels_peers_blocked_at_a_barrier() {
    // Process 1 of four faults (out-of-bounds subscript) before the
    // barrier its peers are already parked in; the fault plane must
    // cancel them and surface the interpreter's own diagnostic.
    let src = "\
      Force FMAIN of NP ident ME
      Shared INTEGER A(4)
      End declarations
      IF (ME .EQ. 1) THEN
      A(ME + 9) = 1
      END IF
      Barrier
      A(1) = 1
      End barrier
      Join
";
    for id in MachineId::all() {
        let err = run_force_source(src, id, 4).unwrap_err();
        assert!(
            err.to_string().contains("outside 1..4"),
            "{}: {err}",
            id.name()
        );
    }
}

#[test]
fn engine_watchdog_reports_a_wedged_interpreter_force() {
    use std::time::Duration;
    // Every process consumes from an async variable nobody produces.
    let src = "\
      Force FMAIN of NP ident ME
      Async INTEGER CHAN
      Private INTEGER T
      End declarations
      Consume CHAN into T
      Join
";
    for id in MachineId::all() {
        let (_exp, engine) = the_force::compile_force_source(src, id).unwrap();
        engine.set_watchdog(Duration::from_millis(200));
        let err = engine.run(2).unwrap_err();
        assert!(
            err.to_string().contains("deadlock watchdog"),
            "{}: {err}",
            id.name()
        );
    }
}

#[test]
fn fault_injection_with_a_fixed_seed_is_contained_on_every_machine() {
    // A certain panic rate at construct boundaries: the force must fault
    // with the injection's tag, never hang, and count what it injected.
    let inj = FaultInjection {
        seed: 0xDEAD_BEEF,
        panic_per_mille: 500,
        delay_per_mille: 0,
        spurious_per_mille: 0,
    };
    for id in MachineId::all() {
        let force = Force::with_machine(4, Machine::new(id)).with_fault_injection(inj);
        let err = force
            .try_run(|p| {
                for _ in 0..8 {
                    p.barrier();
                }
            })
            .expect_err("a 50% injection rate over 8 barriers must fire");
        assert!(
            err.payload.contains("injected fault"),
            "{}: {}",
            id.name(),
            err.payload
        );
        assert!(
            force.machine().stats().snapshot().faults_detected >= 1,
            "{}",
            id.name()
        );
    }
}

#[test]
fn a_fault_under_every_schedule_policy_is_attributed_to_the_doall() {
    // One process dies mid-loop under each policy of the scheduling
    // plane; the fault must name the DOALL construct and the right pid,
    // and the force must not hang — peers may be spinning on a shared
    // trip counter, parked in the end barrier, or probing deques.
    for policy in SchedulePolicy::all() {
        let force = Force::new(4);
        let err = force
            .try_run(|p| {
                p.doall_with(policy, ForceRange::to(1, 64), |i| {
                    if i == 23 {
                        panic!("trip 23 died");
                    }
                });
            })
            .expect_err("the panic must surface as a fault");
        assert_eq!(err.construct, "doall", "{policy:?}");
        assert_eq!(err.payload, "trip 23 died", "{policy:?}");
    }
}

#[test]
fn a_fault_while_peers_are_stealing_is_contained() {
    // Work stealing adds a new blocking edge (thieves probing victim
    // deques).  A process that dies while holding most of the work must
    // still cancel the whole force promptly on every machine.
    use std::time::{Duration, Instant};
    for id in MachineId::all() {
        let force = Force::with_machine(4, Machine::new(id)).with_watchdog(Duration::from_secs(5));
        let start = Instant::now();
        let err = force
            .try_run(|p| {
                p.doall_with(SchedulePolicy::Steal, ForceRange::to(1, 64), |i| {
                    if i == 1 {
                        // pid 0's first seeded trip: die before anything
                        // is drained, while peers turn to stealing.
                        panic!("victim died");
                    }
                    std::thread::sleep(Duration::from_micros(50));
                });
            })
            .expect_err("the panic must surface as a fault");
        assert_eq!(err.construct, "doall", "{}", id.name());
        assert_eq!(err.payload, "victim died", "{}", id.name());
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "{}: containment took the watchdog bound",
            id.name()
        );
    }
}

#[test]
fn an_askfor_handler_fault_under_stealing_is_attributed() {
    // The deque-backed Askfor: a handler dies while peers are asking
    // (stealing or parked in the dry-wait); everyone must be released
    // and the fault attributed to the askfor construct.
    let force = Force::new(4);
    let err = force
        .try_run(|p| {
            p.askfor(
                || (1..=40u64).collect(),
                |w, pot| {
                    if w == 7 {
                        panic!("handler died");
                    }
                    if w > 20 {
                        pot.post(w - 20);
                    }
                },
            );
        })
        .expect_err("the handler panic must surface");
    assert_eq!(err.construct, "askfor");
    assert_eq!(err.payload, "handler died");
}

#[test]
fn spurious_and_delay_injection_preserve_program_results() {
    // Non-fatal perturbations (spurious lock failures, delays) must not
    // change what the program computes, on any machine.
    use std::sync::atomic::{AtomicUsize, Ordering};
    let inj = FaultInjection {
        seed: 42,
        panic_per_mille: 0,
        delay_per_mille: 200,
        spurious_per_mille: 200,
    };
    for id in MachineId::all() {
        let force = Force::with_machine(3, Machine::new(id)).with_fault_injection(inj);
        let shared = AtomicUsize::new(0);
        force.run(|p| {
            p.selfsched_do(ForceRange::to(1, 30), |i| {
                shared.fetch_add(i as usize, Ordering::Relaxed);
            });
            p.barrier();
        });
        assert_eq!(shared.load(Ordering::Relaxed), 465, "{}", id.name());
    }
}

// --- Sessions and pooling: state reset between jobs --------------------

#[test]
fn a_force_session_fully_resets_construct_state_between_runs() {
    // Repeated `execute` on ONE Force, alternating construct sequences:
    // run k's collective #0 is a selfsched loop, run k+1's is an askfor.
    // Any leaked occurrence slot, barrier arrival count, or shared-index
    // cell would show up as a wrong sum, a divergence panic, or a hang.
    use std::sync::atomic::{AtomicUsize, Ordering};
    let force = Force::new(4);
    for round in 0..3 {
        let sum = AtomicUsize::new(0);
        force.run(|p| {
            p.selfsched_do(ForceRange::to(1, 50), |i| {
                sum.fetch_add(i as usize, Ordering::Relaxed);
            });
            p.barrier();
            p.selfsched_do(ForceRange::to(1, 20), |i| {
                sum.fetch_add(i as usize, Ordering::Relaxed);
            });
        });
        assert_eq!(sum.load(Ordering::Relaxed), 1275 + 210, "round {round}");

        let sections = AtomicUsize::new(0);
        force.run(|p| {
            p.barrier_section(|| {
                sections.fetch_add(1, Ordering::Relaxed);
            });
            p.critical("R", || {
                sections.fetch_add(10, Ordering::Relaxed);
            });
        });
        assert_eq!(sections.load(Ordering::Relaxed), 41, "round {round}");
    }
}

#[test]
fn a_pooled_run_after_an_injected_fault_starts_from_a_clean_plane() {
    // Job 1 faults by injection; the session must re-arm the plane so
    // job 2 — on the SAME pool and session, with injection off — runs
    // clean instead of being cancelled by the stale trip.
    use std::sync::atomic::{AtomicUsize, Ordering};
    let machine = Machine::new(MachineId::EncoreMultimax);
    let pool = std::sync::Arc::new(ForcePool::new(4, machine.stats()));
    let force = Force::with_machine(4, machine).with_pool(pool);
    let inj = FaultInjection {
        seed: 0xF001,
        panic_per_mille: 1000,
        delay_per_mille: 0,
        spurious_per_mille: 0,
    };
    let err = force
        .try_execute_with(
            RunOptions {
                injection: Some(inj),
                ..RunOptions::default()
            },
            |p| p.barrier(),
        )
        .expect_err("a certain injection must fault the pooled job");
    assert!(err.payload.contains("injected fault"), "{}", err.payload);

    let sum = AtomicUsize::new(0);
    let r = force.try_run(|p| {
        p.barrier();
        sum.fetch_add(p.pid() + 1, Ordering::Relaxed);
    });
    assert!(r.is_ok(), "plane must be reset between pooled jobs: {r:?}");
    assert_eq!(sum.load(Ordering::Relaxed), 10);
    assert_eq!(
        force
            .last_job_stats()
            .expect("clean run has per-job stats")
            .barrier_episodes,
        1
    );
}

#[test]
fn async_variable_misuse_void_then_consume_blocks_until_produce() {
    // Void leaves the variable empty; a consume must then wait for a
    // produce instead of reading garbage.
    let machine = Machine::new(MachineId::Flex32);
    let v = std::sync::Arc::new(Async::new_full(&machine, 5i64));
    v.void();
    let v2 = std::sync::Arc::clone(&v);
    let t = std::thread::spawn(move || v2.consume());
    std::thread::sleep(std::time::Duration::from_millis(20));
    assert!(!t.is_finished(), "consume after void must block");
    v.produce(9);
    assert_eq!(t.join().unwrap(), 9);
}

/// `examples/run_force.rs`, whose `run` is called here as its `main` calls
/// it: same preprocessing, same engine, same options.
#[path = "../examples/run_force.rs"]
#[allow(dead_code)]
mod run_force;

/// A program that wedges ends with a deadlock verdict instead of running
/// for ever.  `sum.force` without its `End critical` takes `LCK` again on
/// its next trip, and nothing will release it: the watchdog `run_force`
/// arms reports every process parked, and the Cray-2, whose pooled locks
/// know their holder, refuses the nested take at once.
#[test]
fn run_force_ends_a_wedged_program_with_a_deadlock_verdict() {
    let sum = include_str!("../examples/force_src/sum.force");
    let wedged = sum.replace("      End critical\n", "");
    assert_eq!(sum.lines().count(), wedged.lines().count() + 1);
    let runs: Vec<_> = MachineId::all()
        .into_iter()
        .flat_map(|machine| [1, 2].map(|nproc| (machine, nproc)))
        .map(|(machine, nproc)| {
            let (done, result) = std::sync::mpsc::channel();
            let source = wedged.clone();
            std::thread::spawn(move || {
                let verdict = run_force::run(&source, machine, nproc).map(|_| ());
                done.send(verdict.map_err(|err| err.to_string()))
            });
            (machine, nproc, result)
        })
        .collect();
    let guard = std::time::Instant::now() + std::time::Duration::from_secs(5);
    for (machine, nproc, result) in runs {
        let left = guard.saturating_duration_since(std::time::Instant::now());
        let result = result
            .recv_timeout(left)
            .unwrap_or_else(|_| panic!("{machine:?} at nproc {nproc}: still running after 5 s"));
        let err = result.expect_err("a wedged program cannot finish");
        let verdict = if machine == MachineId::Cray2 {
            "would wait forever"
        } else {
            "deadlock watchdog: no progress"
        };
        assert!(err.contains(verdict), "{machine:?} at nproc {nproc}: {err}");
    }
}
