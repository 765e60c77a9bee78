//! Overcommit soak: forces whose nproc far exceeds the worker count,
//! multiplexed over run permits by `machdep::park`'s `Overcommit`
//! backend.  Every blocking construct must still make progress when at
//! most `workers` pids are runnable at once — a parked pid *must* yield
//! its permit, or the force deadlocks with runnable peers starved.

mod support;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use the_force::compile_force_source;
use the_force::machdep::trace::EventKind;
use the_force::machdep::{FaultInjection, Machine, MachineId, ParkBackend, RunOptions};
use the_force::prelude::*;

const WORKERS: usize = 2;

fn overcommit_options() -> RunOptions {
    RunOptions {
        backend: ParkBackend::Overcommit { workers: WORKERS },
        ..RunOptions::default()
    }
}

/// The headline soak: 64x overcommit (128 pids on 2 run permits)
/// through barrier episodes, Askfor stealing, and full/empty
/// Produce/Consume, with delay/spurious fault injection perturbing
/// interleavings.  Completion alone proves the permit hand-off works;
/// the stats delta proves no watchdog fired and every park episode was
/// woken.
#[test]
fn soak_64x_overcommit_barriers_askfor_full_empty() {
    let nproc = WORKERS * 64;
    let machine = Machine::new(MachineId::SequentBalance);
    let force = Force::with_machine(nproc, Arc::clone(&machine));
    let barriers = AtomicU64::new(0);
    let leaves = AtomicU64::new(0);
    let consumed = AtomicU64::new(0);
    let chans: Vec<Async<u64>> = (0..nproc / 2).map(|_| Async::new(&machine)).collect();
    force
        .try_execute_with(
            RunOptions {
                watchdog: Some(Duration::from_secs(60)),
                injection: Some(FaultInjection {
                    delay_per_mille: 25,
                    spurious_per_mille: 25,
                    ..FaultInjection::with_seed(0x0C0FFEE)
                }),
                ..overcommit_options()
            },
            |p| {
                // Phase 1: repeated whole-force barriers.
                for _ in 0..10 {
                    p.barrier();
                    barriers.fetch_add(1, Ordering::Relaxed);
                }
                // Phase 2: Askfor with binary work amplification — idle
                // pids must steal (or park) without pinning a run permit.
                p.askfor(
                    || vec![7u64; 4],
                    |n, pot| {
                        if n > 1 {
                            pot.post(n - 1);
                            pot.post(n - 1);
                        } else {
                            leaves.fetch_add(1, Ordering::Relaxed);
                        }
                    },
                );
                // Phase 3: pairwise Produce/Consume — even pids feed
                // tokens to their odd partner through one async cell.
                let chan = &chans[p.pid() / 2];
                if p.pid() % 2 == 0 {
                    for i in 1..=50u64 {
                        chan.produce(i);
                    }
                } else {
                    for _ in 0..50 {
                        consumed.fetch_add(chan.consume(), Ordering::Relaxed);
                    }
                }
                p.barrier();
            },
        )
        .expect("the overcommitted force must complete");
    assert_eq!(barriers.load(Ordering::Relaxed), 10 * nproc as u64);
    assert_eq!(leaves.load(Ordering::Relaxed), 4 * (1 << 6));
    assert_eq!(consumed.load(Ordering::Relaxed), (nproc as u64 / 2) * 1275);
    let stats = force.last_job_stats().expect("clean run has stats");
    assert_eq!(stats.watchdog_trips, 0, "no false deadlock declarations");
    assert_eq!(
        stats.park_wakes, stats.parks,
        "every park episode must have been woken by job end"
    );
}

/// Trace integrity under multiplexing: a traced overcommit run must
/// retain balanced construct enter/exit and park/unpark spans — a pid
/// that migrates between permit holds still owns its spans.
#[test]
fn overcommit_trace_spans_are_balanced() {
    let nproc = WORKERS * 16;
    let force = Force::new(nproc);
    force
        .try_execute_with(
            RunOptions {
                trace: true,
                ..overcommit_options()
            },
            |p| {
                for _ in 0..3 {
                    p.barrier();
                }
                p.critical("SOAK", || {});
            },
        )
        .expect("traced overcommit run must complete");
    let profile = force.last_job_profile().expect("tracing was enabled");
    assert_eq!(profile.dropped_events, 0, "ring must not have wrapped");
    let count = |k: EventKind| profile.events.iter().filter(|e| e.kind == k).count() as i64;
    assert_eq!(
        count(EventKind::ConstructEnter),
        count(EventKind::ConstructExit),
        "every construct span must close"
    );
    assert_eq!(
        count(EventKind::Park),
        count(EventKind::Unpark),
        "every park span must close"
    );
    for c in &profile.constructs {
        assert!(c.enters > 0, "retained constructs were entered");
    }
}

/// Every machine personality must survive overcommit: the six lock
/// protocols all route their blocking through the parking layer, so a
/// 32x-overcommitted force crosses barriers, a critical section, the
/// Askfor pot and a full/empty handshake everywhere — over at most eight
/// channels shared by the pid pairs, the Cray-2's budget of state-role
/// locks — with every park woken and a quiet watchdog.
#[test]
fn every_machine_survives_overcommit() {
    for id in MachineId::all() {
        let nproc = WORKERS * 32;
        let machine = Machine::new(id);
        let before = machine.stats().snapshot();
        let force = Force::with_machine(nproc, Arc::clone(&machine));
        let nchan = (nproc / 2).clamp(1, 8);
        let chans: Vec<Async<u64>> = (0..nchan).map(|_| Async::new(&machine)).collect();
        let (hits, leaves, consumed) = (AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0));
        force
            .try_execute_with(overcommit_options(), |p| {
                p.barrier();
                p.critical("MIX", || {
                    hits.fetch_add(1, Ordering::Relaxed);
                });
                p.askfor(
                    || vec![5u64; 8],
                    |n, pot| {
                        if n > 1 {
                            pot.post(n - 1);
                            pot.post(n - 1);
                        } else {
                            leaves.fetch_add(1, Ordering::Relaxed);
                        }
                    },
                );
                let chan = &chans[(p.pid() / 2) % nchan];
                if p.pid() % 2 == 0 {
                    for i in 1..=4u64 {
                        chan.produce(i);
                    }
                } else {
                    for _ in 0..4 {
                        consumed.fetch_add(chan.consume(), Ordering::Relaxed);
                    }
                }
                p.barrier();
            })
            .unwrap_or_else(|f| panic!("{} faulted under overcommit: {f}", id.name()));
        let name = id.name();
        assert_eq!(hits.load(Ordering::Relaxed), nproc as u64, "{name}");
        assert_eq!(leaves.load(Ordering::Relaxed), 8 << 4, "{name}: leaves");
        let tokens = (nproc as u64 / 2) * 10;
        assert_eq!(consumed.load(Ordering::Relaxed), tokens, "{name}: tokens");
        let delta = machine.stats().snapshot().since(&before);
        assert!(
            delta.parks > 0,
            "{name}: the overcommitted force never parked"
        );
        assert_eq!(delta.parks, delta.park_wakes, "{name}: an unwoken park");
        assert_eq!(delta.watchdog_trips, 0, "{name}: the watchdog tripped");
    }
}

/// At a width where no pid waits for a run permit, one wait-heavy job —
/// 40 barrier + critical episodes at nproc 2 — does the same work on
/// both backends, and each matches every park with a wake: the backends
/// differ only in how a wait is spent.
#[test]
fn both_backends_do_the_same_work_with_balanced_parks() {
    const NP: usize = 2;
    for id in MachineId::all() {
        let name = id.name();
        let job = |backend: ParkBackend| {
            let force = Force::with_machine(NP, Machine::new(id));
            let options = RunOptions {
                backend,
                ..RunOptions::default()
            };
            force
                .try_execute_with(options, |p| {
                    for _ in 0..40 {
                        p.barrier();
                        p.critical("T", || support::busy_work(8));
                    }
                })
                .unwrap_or_else(|f| panic!("{name}: {f}"));
            let stats = force.last_job_stats().expect("a clean run has stats");
            assert_eq!(stats.parks, stats.park_wakes, "{name}: {backend:?}");
            stats
        };
        let tpp = job(ParkBackend::ThreadPerPid);
        let ovc = job(ParkBackend::Overcommit { workers: NP });
        assert!(tpp.barrier_episodes > 0, "{name}: no barrier episode");
        assert_eq!(tpp.barrier_episodes, ovc.barrier_episodes, "{name}");
        assert_eq!(tpp.lock_acquires, ovc.lock_acquires, "{name}");
        let transfers = |s: &the_force::machdep::StatsSnapshot| s.fe_produces + s.fe_consumes;
        assert_eq!(transfers(&tpp), transfers(&ovc), "{name}: full/empty");
    }
}

/// The language front end rides the same plane: a Force-language
/// program with barriers and a critical section runs overcommitted on
/// both executors.
#[test]
fn language_front_end_runs_overcommitted() {
    let src = "\
      Force FMAIN of NP ident ME
      Shared INTEGER N
      End declarations
      Barrier
      End barrier
      Critical L
      N = N + 1
      End critical
      Barrier
      End barrier
      Join
";
    let (id, nproc) = (MachineId::SequentBalance, WORKERS * 32);
    let (_expanded, engine) = compile_force_source(src, id).expect("compiles");
    let vm = engine
        .run_with(nproc, overcommit_options())
        .expect("overcommitted language run must complete");
    let tree = support::run_oracle(src, id, nproc, overcommit_options())
        .expect("overcommitted oracle run must complete");
    support::assert_same_run("overcommitted", &tree, &vm);
    assert_eq!(
        vm.shared_scalar("N").unwrap().as_int(0).unwrap(),
        nproc as i64
    );
}

// --- The scoped launcher: pid 0 on the launching thread ----------------
//
// Without a pool a force of N is N − 1 fresh threads and the caller.
// Nothing a job can observe may depend on which of its pids got the
// caller's thread — on any backend.

fn every_backend() -> [(&'static str, ParkBackend); 3] {
    [
        ("thread per pid", ParkBackend::ThreadPerPid),
        ("overcommit", ParkBackend::Overcommit { workers: 1 }),
        ("virtual", ParkBackend::Virtual { seed: 1989 }),
    ]
}

/// A fault in pid 0 is a fault like any other: contained, attributed
/// `{pid, construct}`, a peer parked in a barrier unwinds, the launching
/// thread is left outside any force, and the session runs its next job.
#[test]
fn a_panic_in_pid_zero_is_contained_like_any_other() {
    use the_force::machdep::fault;
    for (name, backend) in every_backend() {
        let options = RunOptions {
            backend,
            ..RunOptions::default()
        };
        let force = Force::new(3);
        for culprit in [0, 1] {
            let err = force
                .try_execute_with(options, |p| {
                    if p.pid() == culprit {
                        p.critical("DIES", || panic!("pid {} dies", p.pid()));
                    }
                    p.barrier();
                })
                .expect_err("the panic must surface as a fault");
            assert_eq!((err.pid, err.construct), (culprit, "critical"), "{name}");
            assert_eq!(err.payload, format!("pid {culprit} dies"), "{name}");
            assert_eq!(fault::current_pid(), None, "{name}: context restored");
            let pids = force.try_execute_with(options, |p| p.pid());
            assert_eq!(pids, Ok(vec![0, 1, 2]), "{name}: the next job runs");
        }
    }
    // `Force::execute` re-raises the original payload, whichever thread
    // the culprit ran on.
    for culprit in [0, 1] {
        let force = Force::new(2);
        let raised = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            force.execute(|p| {
                if p.pid() == culprit {
                    panic!("pid {} dies", p.pid());
                }
                p.barrier();
            })
        }))
        .expect_err("execute re-raises");
        let payload = raised
            .downcast_ref::<String>()
            .expect("the original payload");
        assert_eq!(*payload, format!("pid {culprit} dies"));
    }
}

/// The watchdog sees a pid parked on the launching thread like any
/// other: pid 1 is long gone, pid 0 waits for a producer that never
/// comes.
#[test]
fn the_watchdog_trips_a_consume_parked_on_the_launching_thread() {
    let force = Force::new(2);
    let chan: Async<u64> = Async::new(force.machine());
    let options = RunOptions {
        watchdog: Some(Duration::from_millis(200)),
        ..RunOptions::default()
    };
    let err = force
        .try_execute_with(options, |p| {
            if p.pid() == 0 {
                let _ = chan.consume();
            }
        })
        .expect_err("the watchdog must trip");
    assert_eq!((err.pid, err.construct), (0, "consume"));
    assert!(err.payload.contains("deadlock watchdog"), "{}", err.payload);
}

/// One run permit, 64 pids: the caller's thread queues for the permit
/// like the 63 it created.
#[test]
fn one_permit_serves_sixty_four_pids() {
    let nproc = 64;
    let force = Force::new(nproc);
    let hits = AtomicU64::new(0);
    force
        .try_execute_with(
            RunOptions {
                backend: ParkBackend::Overcommit { workers: 1 },
                watchdog: Some(Duration::from_secs(60)),
                ..RunOptions::default()
            },
            |p| {
                p.barrier();
                p.critical("ONE", || hits.fetch_add(1, Ordering::Relaxed));
                p.barrier();
            },
        )
        .expect("64 pids on one permit must complete");
    assert_eq!(hits.load(Ordering::Relaxed), nproc as u64);
    assert_eq!(force.last_job_stats().unwrap().processes_created, 64);
}

/// Replay keys survive a launcher change: the schedule of a virtual run
/// is a function of `(seed, machine, program)`, not of which thread a
/// pid runs on.  The three summaries were recorded at PR 18, where every
/// pid had a thread of its own.
#[test]
fn virtual_replay_keys_recorded_before_the_launcher_change_still_hold() {
    let machine = Machine::new(MachineId::Cray2);
    let force = Force::with_machine(4, Arc::clone(&machine));
    let ring = AsyncArray::<u64>::new(&machine, 4);
    let run = |seed: u64| {
        force
            .try_execute_with(
                RunOptions {
                    backend: ParkBackend::Virtual { seed },
                    ..RunOptions::default()
                },
                |p| {
                    p.barrier();
                    p.critical("ORDER", || {});
                    let left = (p.pid() + p.nproc() - 1) % p.nproc();
                    for i in 0..4 {
                        ring.produce(p.pid(), i);
                        let _ = ring.consume(left);
                    }
                    p.barrier();
                },
            )
            .expect("a virtual job must complete");
        let s = force.last_virtual_summary().expect("summary");
        (s.decisions, s.makespan_ns, s.digest)
    };
    let recorded = [
        (1, (231, 344_800, 0x5763_ab3c_a318_05b5)),
        (0xF0CE, (247, 352_800, 0x1a1b_0b6d_0c6c_9052)),
        (0xDEAD_BEEF, (240, 349_600, 0xe241_174e_7409_f97e)),
    ];
    for (seed, summary) in recorded {
        assert_eq!(run(seed), summary, "seed {seed:#x}");
    }
}
