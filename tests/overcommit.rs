//! Forces wider than the host: 32 to 128 pids, a thread each, on a host
//! of a few cores — or of one, under `taskset -c 0`, where no two of
//! them run at once.  The OS, not the force, decides which pids run, and
//! every blocking construct must still make progress on every machine:
//! each run completes with every result, wakes every park it counted,
//! leaves the watchdog quiet and closes every trace span it opened.

mod support;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use the_force::compile_force_source;
use the_force::machdep::trace::EventKind;
use the_force::machdep::{
    FaultInjection, Machine, MachineId, ParkBackend, ProfileReport, RunOptions, StatsSnapshot,
};
use the_force::prelude::*;

/// The options of every wide run: one thread per pid (the default
/// backend), traced, so that its spans can be checked.
fn wide_options() -> RunOptions {
    RunOptions {
        trace: true,
        ..RunOptions::default()
    }
}

/// What every wide run must show besides its results: a quiet watchdog,
/// a wake for every park, and, in a trace that lost nothing, a close for
/// every construct and park span.
fn assert_clean(label: &str, stats: &StatsSnapshot, profile: &ProfileReport) {
    assert_eq!(stats.watchdog_trips, 0, "{label}: the watchdog tripped");
    assert_eq!(stats.parks, stats.park_wakes, "{label}: an unwoken park");
    assert_eq!(profile.dropped_events, 0, "{label}: the trace ring wrapped");
    let count = |k: EventKind| profile.events.iter().filter(|e| e.kind == k).count();
    assert_eq!(
        count(EventKind::ConstructEnter),
        count(EventKind::ConstructExit),
        "{label}: a construct span left open"
    );
    assert_eq!(
        count(EventKind::Park),
        count(EventKind::Unpark),
        "{label}: a park span left open"
    );
}

/// [`assert_clean`] on a force's last run.
fn assert_force_clean(label: &str, force: &Force) {
    let stats = force.last_job_stats().expect("a clean run has stats");
    let profile = force.last_job_profile().expect("the run was traced");
    assert_clean(label, &stats, &profile);
}

/// The headline soak: 128 pids through barrier episodes, Askfor
/// stealing, and full/empty Produce/Consume, with delay/spurious fault
/// injection perturbing interleavings, on every machine.  Pairs of pids
/// share a channel; on the Cray-2 eight pairs share each of its eight,
/// the budget of its scarce state-role locks.
#[test]
fn soak_64x_overcommit_barriers_askfor_full_empty() {
    let nproc = 128;
    for id in MachineId::all() {
        let name = id.name();
        let machine = Machine::new(id);
        let force = Force::with_machine(nproc, Arc::clone(&machine));
        let barriers = AtomicU64::new(0);
        let leaves = AtomicU64::new(0);
        let consumed = AtomicU64::new(0);
        let nchan = match machine.free_lock_slots() {
            Some(_) => 8,
            None => nproc / 2,
        };
        let chans: Vec<Async<u64>> = (0..nchan).map(|_| Async::new(&machine)).collect();
        force
            .try_execute_with(
                RunOptions {
                    watchdog: Some(Duration::from_secs(60)),
                    injection: Some(FaultInjection {
                        delay_per_mille: 25,
                        spurious_per_mille: 25,
                        ..FaultInjection::with_seed(0x0C0FFEE)
                    }),
                    ..wide_options()
                },
                |p| {
                    // Phase 1: repeated whole-force barriers.
                    for _ in 0..10 {
                        p.barrier();
                        barriers.fetch_add(1, Ordering::Relaxed);
                    }
                    // Phase 2: Askfor with binary work amplification —
                    // idle pids must steal or park.
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
                    // tokens to their odd partner through an async cell.
                    let chan = &chans[(p.pid() / 2) % nchan];
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
            .unwrap_or_else(|f| panic!("{name}: the wide force must complete: {f}"));
        assert_eq!(
            barriers.load(Ordering::Relaxed),
            10 * nproc as u64,
            "{name}"
        );
        assert_eq!(leaves.load(Ordering::Relaxed), 4 * (1 << 6), "{name}");
        let tokens = (nproc as u64 / 2) * 1275;
        assert_eq!(consumed.load(Ordering::Relaxed), tokens, "{name}");
        assert_force_clean(name, &force);
    }
}

/// Trace integrity at width: 32 pids through barriers and a critical
/// section, every machine, every span closed and every construct the
/// profile retains entered.
#[test]
fn overcommit_trace_spans_are_balanced() {
    let nproc = 32;
    for id in MachineId::all() {
        let name = id.name();
        let force = Force::with_machine(nproc, Machine::new(id));
        force
            .try_execute_with(wide_options(), |p| {
                for _ in 0..3 {
                    p.barrier();
                }
                p.critical("SOAK", || {});
            })
            .unwrap_or_else(|f| panic!("{name}: the traced run must complete: {f}"));
        assert_force_clean(name, &force);
        let profile = force.last_job_profile().expect("the run was traced");
        for c in &profile.constructs {
            assert!(c.enters > 0, "{name}: retained constructs were entered");
        }
    }
}

/// Every machine personality survives a force of 64: the six lock
/// protocols all route their blocking through the parking layer, so the
/// force crosses barriers, a critical section, the Askfor pot and a
/// full/empty handshake everywhere — over at most eight channels shared
/// by the pid pairs, the Cray-2's budget of state-role locks.
#[test]
fn every_machine_survives_overcommit() {
    let nproc = 64;
    for id in MachineId::all() {
        let machine = Machine::new(id);
        let force = Force::with_machine(nproc, Arc::clone(&machine));
        let nchan = (nproc / 2).clamp(1, 8);
        let chans: Vec<Async<u64>> = (0..nchan).map(|_| Async::new(&machine)).collect();
        let (hits, leaves, consumed) = (AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0));
        force
            .try_execute_with(wide_options(), |p| {
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
            .unwrap_or_else(|f| panic!("{} faulted at width {nproc}: {f}", id.name()));
        let name = id.name();
        assert_eq!(hits.load(Ordering::Relaxed), nproc as u64, "{name}");
        assert_eq!(leaves.load(Ordering::Relaxed), 8 << 4, "{name}: leaves");
        let tokens = (nproc as u64 / 2) * 10;
        assert_eq!(consumed.load(Ordering::Relaxed), tokens, "{name}: tokens");
        assert_force_clean(name, &force);
    }
}

/// One wait-heavy job — 40 barrier + critical episodes at nproc 2 —
/// does the same work on both backends, and each matches every park
/// with a wake: the backends differ only in which pid runs when.
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
        let virt = job(ParkBackend::Virtual { seed: 1989 });
        assert!(tpp.barrier_episodes > 0, "{name}: no barrier episode");
        assert_eq!(tpp.barrier_episodes, virt.barrier_episodes, "{name}");
        assert_eq!(tpp.lock_acquires, virt.lock_acquires, "{name}");
        let transfers = |s: &StatsSnapshot| s.fe_produces + s.fe_consumes;
        assert_eq!(transfers(&tpp), transfers(&virt), "{name}: full/empty");
    }
}

/// The language front end rides the same plane: a Force-language
/// program with barriers and a critical section runs 64 wide on both
/// executors, on every machine.
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
    let nproc = 64;
    for id in MachineId::all() {
        let name = id.name();
        let (_expanded, engine) = compile_force_source(src, id).expect("compiles");
        let vm = engine
            .run_with(nproc, wide_options())
            .unwrap_or_else(|e| panic!("{name}: the wide language run must complete: {e}"));
        let tree = support::run_oracle(src, id, nproc, wide_options())
            .unwrap_or_else(|e| panic!("{name}: the wide oracle run must complete: {e}"));
        support::assert_same_run(name, &tree, &vm);
        assert_eq!(
            vm.shared_scalar("N").unwrap().as_int(0).unwrap(),
            nproc as i64,
            "{name}"
        );
        for (executor, out) in [("VM", &vm), ("oracle", &tree)] {
            let profile = out.profile.as_ref().expect("the run was traced");
            assert_clean(&format!("{name}, {executor}"), &out.stats, profile);
        }
    }
}

// --- The scoped launcher: pid 0 on the launching thread ----------------
//
// Without a pool a force of N is N − 1 fresh threads and the caller.
// Nothing a job can observe may depend on which of its pids got the
// caller's thread — on any backend.

fn every_backend() -> [(&'static str, ParkBackend); 2] {
    [
        ("thread per pid", ParkBackend::ThreadPerPid),
        ("virtual", ParkBackend::Virtual { seed: 1989 }),
    ]
}

/// A fault in pid 0 is a fault like any other: contained, attributed
/// `{pid, construct}`, a peer parked in a barrier unwinds, the launching
/// thread is left outside any force, and the session runs its next job —
/// on every backend and machine.
#[test]
fn a_panic_in_pid_zero_is_contained_like_any_other() {
    use the_force::machdep::fault;
    for ((backend_name, backend), id) in every_backend()
        .into_iter()
        .flat_map(|b| MachineId::all().map(move |id| (b, id)))
    {
        let name = format!("{backend_name} on {}", id.name());
        let options = RunOptions {
            backend,
            ..RunOptions::default()
        };
        let force = Force::with_machine(3, Machine::new(id));
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
/// other, on every machine: pid 1 is long gone, pid 0 waits for a
/// producer that never comes.
#[test]
fn the_watchdog_trips_a_consume_parked_on_the_launching_thread() {
    for id in MachineId::all() {
        let name = id.name();
        let force = Force::with_machine(2, Machine::new(id));
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
        assert_eq!((err.pid, err.construct), (0, "consume"), "{name}");
        assert!(
            err.payload.contains("deadlock watchdog"),
            "{name}: {}",
            err.payload
        );
    }
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
