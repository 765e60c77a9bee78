//! The lock path keeps its books and its meaning.
//!
//! A lock operation inside a force charges a per-pid lane that is folded
//! into the plane, session and machine blocks when the process ends, and
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
use the_force::machdep::{
    ForceServer, JobOutcome, JobSpec, Machine, MachineId, RunOptions, ServerConfig, StatsSnapshot,
    Submit,
};
use the_force::prep::{preprocess, preprocess_cached};
use the_force::run_force_source;

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

/// DESIGN.md §21's invariant, now through lanes: with two sessions of
/// one machine running four-process forces at the same time, one pooled
/// and one on scoped threads, the machine's counters move by exactly the
/// sum of what the runs reported.
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
    let runner = engine.serve_runner(4, RunOptions::default(), |_| ());
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

const PINNED: &[(&str, [u64; 6])] = &[
    (
        "sum",
        [
            0x8e79173f71646686,
            0x5b82a02a4fa2505c,
            0x52378968fa5e963f,
            0x5b82a02a4fa2505c,
            0x2c116645d98c5b61,
            0xdf1c14b50d1f61a9,
        ],
    ),
    (
        "dotprod",
        [
            0x4b8b141c4802474c,
            0x575db449b5ab7a38,
            0x97ebb3e117ffee28,
            0x575db449b5ab7a38,
            0x1504ce32f661fe8b,
            0xdcfc8ee5edcf6f55,
        ],
    ),
    (
        "pipeline",
        [
            0x1f1900ee76fec5f2,
            0x73f8e3c36f742660,
            0x3d9c9d7dd37e45b0,
            0x73f8e3c36f742660,
            0x3d9c9d7dd37e45b0,
            0xc25594ff1b2a2368,
        ],
    ),
    (
        "ksum",
        [
            0xea4df5140e1cdd90,
            0x8788f34e50b03f54,
            0x9a64d27641ac3327,
            0x8788f34e50b03f54,
            0xbcd313a1e5807879,
            0x9911b6db143301ca,
        ],
    ),
    (
        "fill",
        [
            0xf655a140b9467e15,
            0x1c0069e607261e79,
            0x58fed86a27a779c9,
            0x1c0069e607261e79,
            0xde13df274ce396cc,
            0xb020bab7d00d1995,
        ],
    ),
    (
        "ring",
        [
            0x1d05bce944ff5a76,
            0x4f803b5a9962b324,
            0x6f7d9d0c5bf9e5f2,
            0x4f803b5a9962b324,
            0x6f7d9d0c5bf9e5f2,
            0xa2ba8e4e8a570662,
        ],
    ),
    (
        "sect",
        [
            0x354cddf210a2204b,
            0xae6441489602cddf,
            0x85ee9b8a44f3be2c,
            0xae6441489602cddf,
            0x85ee9b8a44f3be2c,
            0xb701b769650c825c,
        ],
    ),
    (
        "grid",
        [
            0x44d5135925c020be,
            0xeec1d0b9b4c43982,
            0x7524d96ee295ec4c,
            0xeec1d0b9b4c43982,
            0x7524d96ee295ec4c,
            0xf6f50d97ea00457f,
        ],
    ),
    (
        "subs",
        [
            0x78d5aad29689f9ae,
            0x364b52d296d86106,
            0x6aa1c900024cd3a0,
            0x364b52d296d86106,
            0xb917b58e4aa8c13e,
            0x4fc03ee6fce38daa,
        ],
    ),
    (
        "sched",
        [
            0x6ec111d1083d3bd8,
            0xa1b50ddc56b94114,
            0x24c823071e14df59,
            0xa1b50ddc56b94114,
            0xdcb2a1465894367a,
            0xe4d5962518aaf862,
        ],
    ),
    (
        "do2",
        [
            0x1676f4a4bd5ddff1,
            0x97ec590ddd1ea20f,
            0xfd0f32035b38539b,
            0x97ec590ddd1ea20f,
            0x412642ea1a965da4,
            0x8c57ee878d11d360,
        ],
    ),
    (
        "pcase",
        [
            0x0a5248dde714adcf,
            0x514c57c0d8a0da83,
            0x2cf674b776578221,
            0x514c57c0d8a0da83,
            0xa5e21c90bbb33677,
            0xc680858371e7ac47,
        ],
    ),
    (
        "async_scalar",
        [
            0xf7062fdb405cadff,
            0xbeb227e1067694bc,
            0xb6be786f52b02404,
            0xbeb227e1067694bc,
            0xbbe881361c70f8c6,
            0xa7521b076d8e93af,
        ],
    ),
    (
        "async_array",
        [
            0x30ce00647617dc55,
            0xf3294b573ed306ee,
            0x6fbf1208cb1b4d0b,
            0xf3294b573ed306ee,
            0x0dccc8355fcbf6bf,
            0x3af0cb928c38f363,
        ],
    ),
];
