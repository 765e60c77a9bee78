//! Equivalence of the two Force implementations in this repository:
//! the native Rust embedding (`force-core`) and the language pipeline
//! (`force-prep` + `force-fortran`) must compute the same results on the
//! same machine personalities — they are two renderings of one language.

mod support;

use std::sync::atomic::{AtomicI64, Ordering};

use support::{assert_same_run, run_oracle};
use the_force::compile_force_source;
use the_force::fortran::{RunOutput, Value};
use the_force::machdep::{Machine, MachineId};
use the_force::prelude::*;
use the_force::run_force_source;

#[test]
fn selfscheduled_sum() {
    let n = 200i64;
    let expected: i64 = (1..=n).sum();
    for id in [MachineId::Hep, MachineId::Cray2, MachineId::SequentBalance] {
        // native
        let force = Force::with_machine(3, Machine::new(id));
        let sum = AtomicI64::new(0);
        force.run(|p| {
            p.selfsched_do(ForceRange::to(1, n), |i| {
                sum.fetch_add(i, Ordering::Relaxed);
            });
        });
        let native = sum.load(Ordering::Relaxed);

        // language
        let src = format!(
            "\
      Force FMAIN of NP ident ME
      Shared INTEGER TOTAL
      Private INTEGER K
      End declarations
      Selfsched DO 100 K = 1, {n}
      Critical LCK
      TOTAL = TOTAL + K
      End critical
100   End selfsched DO
      Join
"
        );
        let out = run_force_source(&src, id, 3).unwrap();
        let interpreted = out.shared_scalar("TOTAL").unwrap().as_int(0).unwrap();

        assert_eq!(native, expected, "{}", id.name());
        assert_eq!(interpreted, expected, "{}", id.name());
    }
}

#[test]
fn prescheduled_distribution_is_identical() {
    // Cyclic presched: process p takes trips p, p+np, ...  Both
    // implementations must produce the *same ownership pattern*, not just
    // the same totals.
    let n = 24i64;
    let nproc = 4;
    let id = MachineId::AlliantFx8;

    // native: record owner of each index
    let owners: Vec<AtomicI64> = (0..n).map(|_| AtomicI64::new(-1)).collect();
    let force = Force::with_machine(nproc, Machine::new(id));
    force.run(|p| {
        let me = p.pid() as i64;
        p.presched_do(ForceRange::to(1, n), |i| {
            owners[(i - 1) as usize].store(me, Ordering::Relaxed);
        });
    });

    // language: same recording via a shared array
    let src = format!(
        "\
      Force FMAIN of NP ident ME
      Shared INTEGER OWNER({n})
      Private INTEGER K
      End declarations
      Presched DO 10 K = 1, {n}
      OWNER(K) = ME
10    End presched DO
      Join
"
    );
    let out = run_force_source(&src, id, nproc).unwrap();
    let interp_owners = &out.shared_values["OWNER"];

    for i in 0..n as usize {
        let native = owners[i].load(Ordering::Relaxed);
        let interp = match interp_owners[i] {
            Value::Int(v) => v,
            ref other => panic!("non-integer owner {other:?}"),
        };
        assert_eq!(
            native,
            interp,
            "index {} owned by different processes",
            i + 1
        );
        assert_eq!(native, (i as i64) % nproc as i64, "cyclic rule");
    }
}

#[test]
fn produce_consume_handoff() {
    for id in MachineId::all() {
        // native
        let force = Force::with_machine(2, Machine::new(id));
        let chan: Async<i64> = Async::new(force.machine());
        let got = AtomicI64::new(0);
        force.run(|p| {
            if p.pid() == 0 {
                chan.produce(99);
            } else {
                got.store(chan.consume(), Ordering::Relaxed);
            }
        });
        assert_eq!(got.load(Ordering::Relaxed), 99, "{} native", id.name());

        // language
        let src = "\
      Force FMAIN of NP ident ME
      Shared INTEGER GOT
      Async INTEGER CHAN
      Private INTEGER T
      End declarations
      IF (ME .EQ. 0) THEN
      Produce CHAN = 99
      ELSE
      Consume CHAN into T
      GOT = T
      END IF
      Join
";
        let out = run_force_source(src, id, 2).unwrap();
        assert_eq!(
            out.shared_scalar("GOT"),
            Some(Value::Int(99)),
            "{} interpreted",
            id.name()
        );
    }
}

#[test]
fn barrier_section_equivalence() {
    // In both implementations the barrier section runs exactly once per
    // episode, regardless of force size.
    for nproc in [1, 3, 5] {
        let force = Force::new(nproc);
        let count = AtomicI64::new(0);
        force.run(|p| {
            for _ in 0..7 {
                p.barrier_section(|| {
                    count.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(count.load(Ordering::SeqCst), 7, "native nproc={nproc}");

        let src = "\
      Force FMAIN of NP ident ME
      Shared INTEGER TIMES
      Private INTEGER R
      End declarations
      DO 20 R = 1, 7
      Barrier
      TIMES = TIMES + 1
      End barrier
20    CONTINUE
      Join
";
        let out = run_force_source(src, MachineId::Flex32, nproc).unwrap();
        assert_eq!(
            out.shared_scalar("TIMES"),
            Some(Value::Int(7)),
            "interpreted nproc={nproc}"
        );
    }
}

// ---------------------------------------------------------------------------
// Executor matrix: the bytecode VM (what an `Engine` runs) and the reference
// tree-walker (`fortran::oracle::Oracle`) execute the *same* language, so
// every corpus program must produce identical observable output — prints,
// shared memory, linker passes, op counters and fault attribution — on every
// machine personality.
// ---------------------------------------------------------------------------

/// One production run on a fresh `Machine`, errors as display strings —
/// the counterpart of [`support::run_oracle`].
fn run_vm(src: &str, id: MachineId, nproc: usize) -> Result<RunOutput, String> {
    let (_expanded, engine) = compile_force_source(src, id)
        .unwrap_or_else(|e| panic!("{}: front end rejected program: {e}", id.name()));
    engine.run(nproc).map_err(|e| e.to_string())
}

fn run_tree(src: &str, id: MachineId, nproc: usize) -> Result<RunOutput, String> {
    run_oracle(src, id, nproc, RunOptions::default())
}

/// Deterministic language-feature programs: (name, nproc, source).  Each is
/// run under both executors on all six machines.
fn corpus() -> Vec<(&'static str, usize, String)> {
    vec![
        (
            "selfsched-critical-sum",
            3,
            "\
      Force FMAIN of NP ident ME
      Shared INTEGER TOTAL
      Private INTEGER K
      End declarations
      Selfsched DO 100 K = 1, 60
      Critical LCK
      TOTAL = TOTAL + K
      End critical
100   End selfsched DO
      Join
"
            .to_string(),
        ),
        (
            "presched-array-prints",
            3,
            "\
      Force FMAIN of NP ident ME
      Shared INTEGER SQ(12)
      Private INTEGER K
      End declarations
      Presched DO 10 K = 1, 12
      SQ(K) = K * K
      PRINT *, K, SQ(K)
10    End presched DO
      Join
"
            .to_string(),
        ),
        (
            "barrier-intrinsics-reals",
            3,
            "\
      Force FMAIN of NP ident ME
      Shared INTEGER IMOD, IMIN
      Shared REAL RT
      Private INTEGER R
      End declarations
      DO 20 R = 1, 3
      Barrier
      IMOD = IMOD + MOD(17, 5)
      IMIN = MIN(3, MAX(1, 2), 9)
      RT = RT + SQRT(2.25) + ABS(-0.5)
      End barrier
20    CONTINUE
      Join
"
            .to_string(),
        ),
        (
            "produce-consume-stream",
            3,
            "\
      Force FMAIN of NP ident ME
      Shared INTEGER SUM
      Async INTEGER CHAN
      Private INTEGER K, T
      End declarations
      IF (ME .EQ. 0) THEN
      DO 10 K = 1, 20
      Produce CHAN = K
10    CONTINUE
      END IF
      IF (ME .EQ. 1) THEN
      DO 20 K = 1, 20
      Consume CHAN into T
      Critical SLCK
      SUM = SUM + T
      End critical
20    CONTINUE
      END IF
      Join
"
            .to_string(),
        ),
        (
            "selfsched-pcase",
            3,
            "\
      Force FMAIN of NP ident ME
      Shared INTEGER A, B, C
      End declarations
      Selfsched Pcase
      Usect
      A = A + 1
      Csect (2 .GT. 1)
      B = B + 1
      Csect (2 .LT. 1)
      C = C + 1
      End pcase
      Join
"
            .to_string(),
        ),
        (
            "forcesub-arguments",
            2,
            "\
      Force FMAIN of NP ident ME
      Shared INTEGER OUT(8)
      Externf FILL
      Private INTEGER K
      End declarations
      CALL FILL(OUT, 8)
      Join
      Forcesub FILL(A, N) of NP ident ME
      Private INTEGER J
      INTEGER A(8), N
      End declarations
      Presched DO 10 J = 1, N
      A(J) = J * J
10    End presched DO
      Join
"
            .to_string(),
        ),
        (
            "goto-and-arith",
            3,
            "\
      Force FMAIN of NP ident ME
      Shared INTEGER N
      Private INTEGER K
      End declarations
      K = 0
50    K = K + 1
      IF (K .LT. 5) GO TO 50
      Critical LCK
      N = N + K * (2 ** 3)
      End critical
      Join
"
            .to_string(),
        ),
    ]
}

#[test]
fn executor_matrix_every_program_on_every_machine() {
    for (name, nproc, src) in corpus() {
        for id in MachineId::all() {
            let label = format!("{name} on {}", id.name());
            let tree = run_tree(&src, id, nproc)
                .unwrap_or_else(|e| panic!("{label}: tree-walker failed: {e}"));
            let vm = run_vm(&src, id, nproc)
                .unwrap_or_else(|e| panic!("{label}: bytecode VM failed: {e}"));
            assert_same_run(&label, &tree, &vm);
        }
    }
}

#[test]
fn executor_fault_attribution_is_identical() {
    // Exactly one trip of the self-scheduled loop subscripts out of
    // bounds; both executors must attribute the fault to the same line
    // with the same message.  nproc=1 pins the faulting pid so the whole
    // error string (including the fault-plane attribution) is comparable.
    let src = "\
      Force FMAIN of NP ident ME
      Shared INTEGER A(20)
      Private INTEGER K
      End declarations
      Selfsched DO 10 K = 1, 20
      A(K) = K
      IF (K .EQ. 13) A(1300) = K
10    End selfsched DO
      Join
";
    for id in MachineId::all() {
        let tree =
            run_tree(src, id, 1).expect_err("tree-walker must report the out-of-bounds store");
        let vm = run_vm(src, id, 1).expect_err("bytecode VM must report the out-of-bounds store");
        assert_eq!(tree, vm, "{}: fault strings diverge", id.name());
        assert!(
            tree.contains("subscript") && tree.contains("line "),
            "{}: fault lost its location or cause: {tree}",
            id.name()
        );

        // With a real force any process may claim trip 13, but only that
        // trip faults, so the reported error is still deterministic.
        let tree = run_tree(src, id, 3).expect_err("tree err");
        let vm = run_vm(src, id, 3).expect_err("vm err");
        assert_eq!(tree, vm, "{}: nproc=3 fault strings diverge", id.name());
    }
}

#[test]
fn injected_panics_fault_identically_under_every_schedule_policy() {
    // A native-side DOALL with fault injection armed: under every
    // work-distribution policy the fault plane must catch the panic and
    // attribute it to the doall construct rather than hanging or leaking
    // the panic through `try_execute_with`.
    let policies = [
        SchedulePolicy::Cyclic,
        SchedulePolicy::Block,
        SchedulePolicy::Selfsched { chunk: 1 },
        SchedulePolicy::Guided { min_chunk: 1 },
        SchedulePolicy::Steal,
    ];
    for policy in policies {
        let force = Force::with_machine(3, Machine::new(MachineId::EncoreMultimax));
        let hits = AtomicI64::new(0);
        let err = force
            .try_execute_with(
                RunOptions {
                    injection: Some(FaultInjection {
                        seed: 7,
                        panic_per_mille: 1000,
                        delay_per_mille: 0,
                        spurious_per_mille: 0,
                    }),
                    ..RunOptions::default()
                },
                |p| {
                    p.doall_with(policy, ForceRange::to(1, 64), |i| {
                        hits.fetch_add(i, Ordering::Relaxed);
                    });
                },
            )
            .expect_err("per-mille 1000 always fires");
        assert_eq!(err.construct, "doall", "{policy:?}");
        assert!(
            err.payload.starts_with("injected fault at doall"),
            "{policy:?}: unexpected payload {}",
            err.payload
        );
    }
}

/// One oversize policy: a 3-process job on a session whose pool has 2
/// workers runs on scoped threads (`processes_created == 3` in the job's
/// delta) natively and in the language alike.  `Force` used to panic
/// here ("exceeds the pool's 2 workers") where `Engine` fell back.
#[test]
fn a_job_wider_than_its_pool_runs_on_scoped_threads_in_both_renderings() {
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;
    use the_force::machdep::ForcePool;

    let machine = Machine::new(MachineId::SequentBalance);
    let pool = Arc::new(ForcePool::new(2, machine.stats()));

    let force = Force::with_machine(3, Arc::clone(&machine)).with_pool(Arc::clone(&pool));
    let runs: Vec<AtomicUsize> = (0..3).map(|_| AtomicUsize::new(0)).collect();
    force
        .try_run(|p| {
            p.barrier();
            runs[p.pid()].fetch_add(1, Ordering::Relaxed);
        })
        .expect("a 3-process job must run on a session with a 2-worker pool");
    for (pid, n) in runs.iter().enumerate() {
        assert_eq!(n.load(Ordering::Relaxed), 1, "pid {pid} runs exactly once");
    }
    assert_eq!(force.last_job_stats().unwrap().processes_created, 3);

    let src = "\
      Force FMAIN of NP ident ME
      Shared INTEGER RUNS
      End declarations
      Barrier
      End barrier
      Critical LCK
      RUNS = RUNS + 1
      End critical
      Join
";
    let (_, engine) = compile_force_source(src, MachineId::SequentBalance).unwrap();
    engine.set_pool(Arc::clone(&pool));
    let out = engine.run(3).unwrap();
    assert_eq!(out.shared_scalar("RUNS"), Some(Value::Int(3)));
    assert_eq!(out.stats.processes_created, 3);

    assert_eq!(pool.jobs_completed(), 0, "the pool never saw either job");
}
