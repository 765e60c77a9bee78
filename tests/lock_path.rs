//! The lock path keeps its books and its meaning.
//!
//! A lock operation inside a force charges a per-pid lane that is folded
//! into the plane and machine blocks when the process ends, and
//! the bytecode VM resolves a lock variable once per process.  Neither
//! may be visible from outside: the counts of a run are what they were
//! when every increment went to every block at once, a faulted or
//! cancelled run loses none, a process never sees another run's locks,
//! and the one new behaviour — a process asking for a pooled lock it
//! already holds under another name — is an error, not a hang.
//!
//! `PINNED` was recorded at the commit before the lanes
//! (`cargo test --test lock_path -- --ignored record` prints it in
//! source form).

mod support;

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;

use support::corpus::corpus;
use support::{fnv1a, run_checked, run_oracle};
use the_force::core::ForcePool;
use the_force::fortran::oracle::Oracle;
use the_force::fortran::{Engine, Value};
use the_force::machdep::{Machine, MachineId, RunOptions, StatsSnapshot};
use the_force::prep::{preprocess, preprocess_cached};
use the_force::run_force_source;
use the_force::serve::{engine_runner, ForceServer, JobOutcome, JobSpec, ServerConfig, Submit};

/// Every counter of a run as `name=value` lines.
fn counts_text(stats: &StatsSnapshot) -> String {
    let mut out = String::new();
    for (name, value) in stats.fields() {
        writeln!(out, "{name}={value}").unwrap();
    }
    out
}

/// A deadlock ends a test with a message instead of hanging it.
fn guarded() -> RunOptions {
    RunOptions {
        watchdog: Some(Duration::from_secs(2)),
        ..RunOptions::default()
    }
}

/// One process: nothing about the run depends on timing, so every
/// counter is a constant of (program, machine).
fn solo_counts(source: &str, id: MachineId) -> StatsSnapshot {
    let expanded = preprocess_cached(source, id).unwrap();
    let engine = Engine::from_expanded(&expanded, Machine::new(id)).unwrap();
    engine
        .run_with(1, guarded())
        .unwrap_or_else(|e| panic!("{}: {e}", id.name()))
        .stats
}

#[test]
fn a_solo_run_counts_what_it_counted_before_the_lanes() {
    let corpus = corpus();
    assert_eq!(
        corpus.iter().map(|(n, _)| *n).collect::<Vec<_>>(),
        PINNED.iter().map(|(n, _)| *n).collect::<Vec<_>>(),
        "the corpus and the pinned table list the same programs"
    );
    for ((name, source), (_, pins)) in corpus.iter().zip(PINNED) {
        for (id, pin) in MachineId::all().into_iter().zip(pins) {
            let text = counts_text(&solo_counts(source, id));
            assert_eq!(
                fnv1a(&text),
                *pin,
                "{name} on {}: the counters of a one-process run moved:\n{text}",
                id.name()
            );
        }
    }
}

#[test]
#[ignore = "prints the PINNED table; run it at a commit whose counts are the reference"]
fn record() {
    println!("const PINNED: &[(&str, [u64; 6])] = &[");
    for (name, source) in corpus() {
        println!("    (\n        \"{name}\",\n        [");
        for id in MachineId::all() {
            let digest = fnv1a(&counts_text(&solo_counts(source, id)));
            println!("            {digest:#018x},");
        }
        println!("        ],\n    ),");
    }
    println!("];");
}

/// The critical-section sum both accounting tests run.
const SUM: &str = "\
      Force FMAIN of NP ident ME
      Shared INTEGER TOTAL
      Private INTEGER K
      End declarations
      Barrier
      TOTAL = 0
      End barrier
      Selfsched DO 100 K = 1, 200
      Critical LCK
      TOTAL = TOTAL + K
      End critical
100   End selfsched DO
      Join
";

/// The per-plane accounting invariant, now through lanes: with two
/// sessions of one machine running four-process forces at the same time,
/// one pooled and one on scoped threads, the machine's counters move by
/// exactly the sum of what the runs reported.
#[test]
fn the_machine_totals_are_the_sum_of_its_sessions_runs() {
    const RUNS: usize = 4;
    for id in MachineId::all() {
        let machine = Machine::new(id);
        let expanded = preprocess(SUM, id).unwrap();
        let pooled = Engine::from_expanded(&expanded, Arc::clone(&machine)).unwrap();
        pooled.set_pool(Arc::new(ForcePool::new(4, machine.stats())));
        let scoped = Engine::from_expanded(&expanded, Arc::clone(&machine)).unwrap();
        // Link-time sharing registers the program once per machine, on
        // the first run; keep that out of the window.
        pooled.run(4).unwrap();
        let base = machine.stats().snapshot();
        let mut sum = StatsSnapshot::default();
        std::thread::scope(|s| {
            let runs: Vec<_> = [&pooled, &scoped]
                .into_iter()
                .map(|engine| {
                    s.spawn(move || {
                        let mut mine = StatsSnapshot::default();
                        for _ in 0..RUNS {
                            let out = engine.run_with(4, guarded()).unwrap();
                            assert_eq!(out.shared_scalar("TOTAL"), Some(Value::Int(20_100)));
                            mine.merge(&out.stats);
                        }
                        mine
                    })
                })
                .collect();
            for run in runs {
                sum.merge(&run.join().unwrap());
            }
        });
        let total = machine.stats().snapshot().since(&base);
        assert_eq!(
            counts_text(&total),
            counts_text(&sum),
            "{}: machine delta (left) against the sum of the runs (right)",
            id.name()
        );
        assert!(total.lock_acquires >= 2 * RUNS as u64 * 400, "{total:?}");
    }
}

/// A process that unwinds — on its own fault or cancelled because a peer
/// faulted — still hands its lane over.
#[test]
fn a_faulted_run_folds_the_lanes_of_every_process() {
    // Three processes take a lock each and meet at a barrier; with
    // NP = 3 process 2 faults before it gets there.
    let src = "\
      Force FMAIN of NP ident ME
      Shared INTEGER N, A(4)
      End declarations
      Critical L
      N = N + 1
      End critical
      IF (ME .EQ. 2) A(ME + 7) = 1
      Barrier
      N = N + 1
      End barrier
      Join
";
    for id in MachineId::all() {
        let machine = Machine::new(id);
        let expanded = preprocess(src, id).unwrap();
        let engine = Engine::from_expanded(&expanded, Arc::clone(&machine)).unwrap();
        engine.set_pool(Arc::new(ForcePool::new(3, machine.stats())));
        let base = machine.stats().snapshot();
        let err = engine.run_with(3, guarded()).unwrap_err();
        assert!(err.to_string().contains("outside 1..4"), "{err}");
        let plane = engine.fault_plane(3);
        assert_eq!(
            plane.live_stats(),
            plane.stats().snapshot(),
            "{}: a lane was left unfolded",
            id.name()
        );
        let total = machine.stats().snapshot().since(&base);
        assert_eq!(total.faults_detected, 1, "{}", id.name());
        assert_eq!(
            total.cancellations_observed,
            2,
            "{}: both peers were cancelled at the barrier",
            id.name()
        );
        // Three criticals and two barrier arrivals at least, all of them
        // counted by processes that never returned.
        assert!(total.lock_acquires >= 5, "{}: {total:?}", id.name());
        assert_eq!(
            plane.stats().snapshot().lock_acquires,
            total.lock_acquires,
            "{}: plane and machine disagree",
            id.name()
        );
        // The session, its pool and its locks serve the next job.
        let out = engine.run_with(2, guarded()).unwrap();
        assert_eq!(out.shared_scalar("N"), Some(Value::Int(3)));
    }
}

#[test]
fn a_deadline_cancelled_run_folds_its_lanes() {
    let src = "\
      Force FMAIN of NP ident ME
      Shared INTEGER N
      Private INTEGER K
      End declarations
      DO 100 K = 1, 50000
      Barrier
      N = N + 1
      End barrier
100   CONTINUE
      Join
";
    let machine = Machine::new(MachineId::Flex32);
    let expanded = preprocess(src, MachineId::Flex32).unwrap();
    let engine = Arc::new(Engine::from_expanded(&expanded, Arc::clone(&machine)).unwrap());
    engine.set_pool(Arc::new(ForcePool::new(4, machine.stats())));
    let server = ForceServer::new(ServerConfig::default(), machine.stats());
    let runner = engine_runner(&engine, 4, RunOptions::default(), |_| ());
    let spec = JobSpec::for_tenant("sla").with_deadline(Duration::from_millis(15));
    let Submit::Admitted(handle) = server.submit(spec, runner) else {
        panic!("the job was refused");
    };
    assert_eq!(handle.wait(), JobOutcome::DeadlineExceeded { ran: true });
    server.shutdown();
    let plane = engine.fault_plane(4);
    assert_eq!(plane.live_stats(), plane.stats().snapshot());
    let total = machine.stats().snapshot();
    assert_eq!(total.cancellations_observed, 4, "all four were cancelled");
    assert!(total.lock_acquires > 0, "{total:?}");
    assert_eq!(plane.stats().snapshot().lock_acquires, total.lock_acquires);
}

/// A process's table of resolved locks dies with the process.  Were it
/// to outlive it — kept by the pool worker's thread, say — the second
/// job below would spin on the lock the first one died holding.
#[test]
fn a_pooled_engine_sees_each_runs_own_locks() {
    // With NP = 3 a process faults inside the critical, lock held.
    let src = "\
      Force FMAIN of NP ident ME
      Shared INTEGER N, A(4)
      End declarations
      Critical L
      N = N + 1
      IF (NP .EQ. 3) A(NP + 6) = 1
      End critical
      Join
";
    for id in MachineId::all() {
        let machine = Machine::new(id);
        let expanded = preprocess(src, id).unwrap();
        let engine = Engine::from_expanded(&expanded, Arc::clone(&machine)).unwrap();
        engine.set_pool(Arc::new(ForcePool::new(3, machine.stats())));
        for round in 0..3 {
            let err = engine.run_with(3, guarded()).unwrap_err();
            assert!(err.to_string().contains("outside 1..4"), "{err}");
            let out = engine
                .run_with(2, guarded())
                .unwrap_or_else(|e| panic!("{} round {round}: {e}", id.name()));
            assert_eq!(out.shared_scalar("N"), Some(Value::Int(2)));
            assert_eq!(
                out.stats.locks_created, 3,
                "BARWIN, BARWOT and L, made anew"
            );
        }
    }
}

/// Two sessions whose environments put different lock variables at the
/// same shared word, run in turn on one thread and one pool.
#[test]
fn two_engines_in_turn_keep_their_locks_apart() {
    // In `a` the word after BARWOT is the critical's lock (created
    // free); in `b` it is a loop lock and the critical's comes later.
    let a = "\
      Force FMAIN of NP ident ME
      Shared INTEGER N
      End declarations
      Critical L
      N = N + 1
      End critical
      Join
";
    let b = "\
      Force FMAIN of NP ident ME
      Shared INTEGER N
      Private INTEGER K
      End declarations
      Selfsched DO 100 K = 1, 10
      Critical M
      N = N + K
      End critical
100   End selfsched DO
      Join
";
    for id in MachineId::all() {
        let pool = Arc::new(ForcePool::new(2, Machine::new(id).stats()));
        let load = |src: &str| {
            let engine =
                Engine::from_expanded(&preprocess(src, id).unwrap(), Machine::new(id)).unwrap();
            engine.set_pool(Arc::clone(&pool));
            engine
        };
        let (ea, eb) = (load(a), load(b));
        for _ in 0..4 {
            let out = ea.run_with(2, guarded()).unwrap();
            assert_eq!(out.shared_scalar("N"), Some(Value::Int(2)), "{}", id.name());
            let out = eb.run_with(2, guarded()).unwrap();
            assert_eq!(
                out.shared_scalar("N"),
                Some(Value::Int(55)),
                "{}",
                id.name()
            );
        }
    }
}

#[test]
fn an_uninitialised_lock_is_reported_where_it_is_used() {
    let src = "\
      Force FMAIN of NP ident ME
      Shared INTEGER N
      End declarations
      Critical L
      N = N + 1
      End critical
      Join
";
    for id in MachineId::all() {
        // Blank the driver's `CALL ZZINITU(L)`: same lines, no lock.
        let mut expanded = preprocess(src, id).unwrap();
        let init = "      CALL ZZINITU(L)\n";
        assert!(expanded.code.contains(init), "{}", expanded.code);
        expanded.code = expanded.code.replacen(init, "C\n", 1);
        let first_use = 1 + expanded
            .code
            .lines()
            .position(|l| l.ends_with("LCK(L)"))
            .expect("the critical locks L");
        let want =
            format!("line {first_use}: runtime error: lock variable used before initialization");
        let vm = Engine::from_expanded(&expanded, Machine::new(id))
            .unwrap()
            .run(2)
            .unwrap_err();
        let oracle = Oracle::from_expanded(&expanded, Machine::new(id))
            .unwrap()
            .run_with(2, RunOptions::default())
            .unwrap_err();
        assert_eq!(vm.to_string(), want, "{}", id.name());
        assert_eq!(oracle.to_string(), want, "{}", id.name());
    }
}

/// ROADMAP 3(d).  The Cray-2 has 32 physical locks for user criticals;
/// the 33rd name shares the first one's.  Nesting that pair used to park
/// the process on a lock it held itself until the watchdog (if any) gave
/// up; it is a runtime error now, and still a correct program wherever
/// locks are plentiful.
#[test]
fn nesting_two_criticals_that_share_a_pooled_lock_is_an_error() {
    // Each critical guards a cell of its own; the nested pair's is V(33).
    let mut body = String::new();
    for i in 0..32 {
        let cell = i + 1;
        writeln!(
            body,
            "      Critical L{i}\n      V({cell}) = V({cell}) + 1\n      End critical"
        )
        .unwrap();
    }
    body.push_str(
        "      Critical L0\n      Critical L32\n      V(33) = V(33) + 1\n      \
         End critical\n      End critical\n",
    );
    let src = format!(
        "      Force FMAIN of NP ident ME\n      Shared INTEGER V(33)\n      \
         End declarations\n{body}      Join\n"
    );
    for id in MachineId::all() {
        if id == MachineId::Cray2 {
            continue;
        }
        let out = run_checked(&src, id, 2);
        assert_eq!(
            out.shared_values["V"],
            vec![Value::Int(2); 33],
            "{}",
            id.name()
        );
    }
    let vm = run_force_source(&src, MachineId::Cray2, 2)
        .expect_err("L32 aliases L0")
        .to_string();
    let oracle = run_oracle(&src, MachineId::Cray2, 2, RunOptions::default())
        .expect_err("L32 aliases L0 under the oracle too");
    assert!(vm.ends_with(&oracle), "vm: {vm}\noracle: {oracle}");
    for part in ["line ", "L32", "L0,", "32 locks"] {
        assert!(oracle.contains(part), "`{part}` missing from: {oracle}");
    }
}

/// The Flex/32 lock spins for a limited time, then makes the operating
/// system call (§4.1.3).  Its spin phase yields once its short spins run
/// out, so a waiter that shares a CPU with the holder hands the CPU over
/// and finds the lock free when it next polls: on one CPU (`taskset -c
/// 0`) a ring of contended hand-offs almost never reaches the OS phase,
/// where a spin that never yields burns its whole budget on nearly every
/// one.  Unpinned, the scheduler may stack the two pids or spread them;
/// the count must hold either way.
#[test]
fn a_combined_lock_waiter_on_its_holders_cpu_yields_before_the_os_phase() {
    let src = "\
      Force FMAIN of NP ident ME
      Shared INTEGER SUM
      Async INTEGER SLOT(2)
      Private INTEGER R, V
      End declarations
      IF (ME .EQ. 0) THEN
      DO 10 R = 1, 500
      Produce SLOT(1) = R
      Consume SLOT(2) into V
      SUM = SUM + V
10    CONTINUE
      ELSE
      DO 20 R = 1, 500
      Consume SLOT(1) into V
      Produce SLOT(2) = V + 1
20    CONTINUE
      END IF
      Join
";
    let id = MachineId::Flex32;
    let machine = Machine::new(id);
    let engine =
        Engine::from_expanded(&preprocess(src, id).unwrap(), Arc::clone(&machine)).unwrap();
    engine.set_pool(Arc::new(ForcePool::new(2, machine.stats())));
    let out = engine.run_with(2, guarded()).unwrap();
    assert_eq!(
        out.shared_scalar("SUM"),
        Some(Value::Int(500 * 501 / 2 + 500))
    );
    let stats = &out.stats;
    assert!(stats.lock_contended > 0, "a ring waits: {stats:?}");
    assert!(
        stats.syscalls * 10 <= stats.lock_contended,
        "{} of {} contended acquisitions made the OS call",
        stats.syscalls,
        stats.lock_contended
    );
}

const PINNED: &[(&str, [u64; 6])] = &[
    (
        "sum",
        [
            0x439a9f84c1c5d4ac,
            0x11b900e054b1468a,
            0x70f43fcfdc89e77b,
            0x11b900e054b1468a,
            0x87aa50f6365382e5,
            0x2eca108e11c1084d,
        ],
    ),
    (
        "dotprod",
        [
            0x9e6c72c8b5a35b5a,
            0xec869fc5d3539b96,
            0x9de207fa9e0c9c66,
            0xec869fc5d3539b96,
            0x0cb9093a5140f5b7,
            0x089f629a2a8e5989,
        ],
    ),
    (
        "pipeline",
        [
            0x66df432e44280588,
            0xd736ca036360db5e,
            0xd616b15a44a161ce,
            0xd736ca036360db5e,
            0xd616b15a44a161ce,
            0x2a16037988a094a6,
        ],
    ),
    (
        "ksum",
        [
            0x7761f49f2ab79dae,
            0x345a0eb1bcb977e2,
            0x0995279882407c43,
            0x345a0eb1bcb977e2,
            0x5f66006e28710c3d,
            0xa3a48c2103bfccc0,
        ],
    ),
    (
        "fill",
        [
            0xaa4e52f18f838b49,
            0xa2d0efc6f220de3d,
            0x8c4f37ab5180ceed,
            0xa2d0efc6f220de3d,
            0xc8c886840c09e1da,
            0x80dda5ca9a37b5c9,
        ],
    ),
    (
        "ring",
        [
            0x4db0e025c442eb7c,
            0xb95bd5d1d6ae9212,
            0x3bd99c4a76a36588,
            0xb95bd5d1d6ae9212,
            0x3bd99c4a76a36588,
            0x1f4b0c9b91e2e158,
        ],
    ),
    (
        "sect",
        [
            0x1a41638c4d062377,
            0xf3aba7f335202b9b,
            0x8fd6a94fefd0c8ba,
            0xf3aba7f335202b9b,
            0x8fd6a94fefd0c8ba,
            0x30c1a09168b07c8a,
        ],
    ),
    (
        "grid",
        [
            0xe89fc2a4c6acdcc4,
            0x74afa240085d9778,
            0x0d5678db8b605a5a,
            0x74afa240085d9778,
            0x0d5678db8b605a5a,
            0x2a62d3fd902c29bb,
        ],
    ),
    (
        "subs",
        [
            0xf781d1da277815d4,
            0xaae91d2233c34c2c,
            0x2b49ce24afd1389e,
            0xaae91d2233c34c2c,
            0x8602741377f72644,
            0x592dcd0a7d937720,
        ],
    ),
    (
        "sched",
        [
            0x4f4ea0fd16067db6,
            0x48510bf242a9d8a2,
            0xdf729db7e286191d,
            0x48510bf242a9d8a2,
            0xc02d3d44d98d0990,
            0x37bdfe84df8b5758,
        ],
    ),
    (
        "do2",
        [
            0x3b45a07773e23395,
            0x2273e02681cb2feb,
            0x27ee2c5e54b9ad67,
            0x2273e02681cb2feb,
            0x2a0003335eea1992,
            0xfa1164779342725e,
        ],
    ),
    (
        "pcase",
        [
            0x8cb3fb4ec51b7aab,
            0xf426aa4254ce1e8f,
            0x075c7c2a787aeea5,
            0xf426aa4254ce1e8f,
            0x7ca4f8f6404e77b3,
            0xe224a08b631b85e3,
        ],
    ),
    (
        "async_scalar",
        [
            0xa4079c2aedc44b3b,
            0x3c93f3e6f9b2746a,
            0x9ac43d809783a4f2,
            0x3c93f3e6f9b2746a,
            0x2af9821598a494ec,
            0xce5d0af5b148948b,
        ],
    ),
    (
        "async_array",
        [
            0xb4de842cf22c3089,
            0x0c6d57921b46ad14,
            0xd74c5efcee92a937,
            0x0c6d57921b46ad14,
            0xda490dd5403e70fb,
            0xdfd91680ba97276f,
        ],
    ),
];
