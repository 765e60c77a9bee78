//! EXP-2 — the six-machine portability matrix.
//!
//! A suite of Force programs, each exercising a different construct
//! class, preprocessed and executed on every machine personality.  The
//! programs never change; the ports differ only in the machine-dependent
//! macro set and driver — the paper's claim that "porting it between
//! machines with similar system supported primitives is almost trivial".

mod support;

use support::{run_checked, run_checked_on};
use the_force::fortran::Value;
use the_force::machdep::{Machine, MachineId, SharingModelId};

/// Run on all machines at several force sizes (each run checked against
/// the reference interpreter); verify with `check`.
fn matrix(src: &str, check: impl Fn(MachineId, usize, &the_force::fortran::RunOutput)) {
    for id in MachineId::all() {
        for nproc in [1, 2, 4] {
            let out = run_checked(src, id, nproc);
            check(id, nproc, &out);
        }
    }
}

#[test]
fn critical_section_counter() {
    let src = "\
      Force FMAIN of NP ident ME
      Shared INTEGER N
      Private INTEGER K
      End declarations
      Presched DO 10 K = 1, 20
      Critical LCK
      N = N + 1
      End critical
10    End presched DO
      Join
";
    matrix(src, |id, nproc, out| {
        assert_eq!(
            out.shared_scalar("N"),
            Some(Value::Int(20)),
            "{} nproc={nproc}",
            id.name()
        );
    });
}

#[test]
fn barrier_section_runs_once() {
    let src = "\
      Force FMAIN of NP ident ME
      Shared INTEGER TIMES
      End declarations
      Barrier
      TIMES = TIMES + 1
      End barrier
      Barrier
      TIMES = TIMES + 1
      End barrier
      Join
";
    matrix(src, |id, nproc, out| {
        assert_eq!(
            out.shared_scalar("TIMES"),
            Some(Value::Int(2)),
            "{} nproc={nproc}: the barrier section must run exactly once per barrier",
            id.name()
        );
    });
}

#[test]
fn pcase_sections_distribute() {
    let src = "\
      Force FMAIN of NP ident ME
      Shared INTEGER A, B, C, D
      End declarations
      Pcase
      Usect
      A = A + 1
      Usect
      B = B + 1
      Csect (1 .GT. 0)
      C = C + 1
      Csect (1 .LT. 0)
      D = D + 1
      End pcase
      Selfsched Pcase
      Usect
      A = A + 10
      Usect
      B = B + 10
      End pcase
      Join
";
    matrix(src, |id, nproc, out| {
        let g = |n: &str| out.shared_scalar(n).unwrap();
        assert_eq!(g("A"), Value::Int(11), "{} nproc={nproc}", id.name());
        assert_eq!(g("B"), Value::Int(11), "{} nproc={nproc}", id.name());
        assert_eq!(g("C"), Value::Int(1), "{} nproc={nproc}", id.name());
        assert_eq!(g("D"), Value::Int(0), "{} nproc={nproc}", id.name());
    });
}

#[test]
fn produce_consume_void_copy() {
    let src = "\
      Force FMAIN of NP ident ME
      Shared INTEGER GOT, PEEK
      Async INTEGER CHAN
      Private INTEGER T
      End declarations
      Barrier
      End barrier
      IF (ME .EQ. 0) THEN
      Produce CHAN = 7 * 6
      END IF
      IF (ME .EQ. NP - 1) THEN
      Copy CHAN into T
      PEEK = T
      Consume CHAN into T
      GOT = T
      END IF
      Barrier
      Void CHAN
      End barrier
      Join
";
    matrix(src, |id, nproc, out| {
        assert_eq!(
            out.shared_scalar("PEEK"),
            Some(Value::Int(42)),
            "{} nproc={nproc}",
            id.name()
        );
        assert_eq!(
            out.shared_scalar("GOT"),
            Some(Value::Int(42)),
            "{} nproc={nproc}",
            id.name()
        );
    });
}

#[test]
fn forcesub_with_shared_state_and_externf() {
    let src = "\
      Force FMAIN of NP ident ME
      Shared INTEGER TOTAL
      Private INTEGER K
      Externf WORKER
      End declarations
      CALL WORKER(3)
      Barrier
      End barrier
      Join
      Forcesub WORKER(TIMES) of NP ident ME
      Shared INTEGER TOTAL
      Private INTEGER J
      End declarations
      Presched DO 10 J = 1, 10
      Critical WLCK
      TOTAL = TOTAL + TIMES
      End critical
10    End presched DO
      Join
";
    matrix(src, |id, nproc, out| {
        assert_eq!(
            out.shared_scalar("TOTAL"),
            Some(Value::Int(30)),
            "{} nproc={nproc}",
            id.name()
        );
    });
}

#[test]
fn real_arithmetic_reduction() {
    let src = "\
      Force FMAIN of NP ident ME
      Shared REAL SUM
      Private INTEGER K
      Private REAL X
      End declarations
      Selfsched DO 100 K = 1, 50
      X = FLOAT(K) * 0.5
      Critical RLCK
      SUM = SUM + X
      End critical
100   End selfsched DO
      Join
";
    matrix(src, |id, nproc, out| {
        let sum = out.shared_scalar("SUM").unwrap().as_real(0).unwrap();
        assert!(
            (sum - 637.5).abs() < 1e-9,
            "{} nproc={nproc}: SUM={sum}",
            id.name()
        );
    });
}

#[test]
fn machine_profiles_differ_along_the_taxonomy() {
    let src = "\
      Force FMAIN of NP ident ME
      Shared INTEGER N
      Private INTEGER K
      End declarations
      Selfsched DO 100 K = 1, 40
      Critical LCK
      N = N + 1
      End critical
100   End selfsched DO
      Join
";
    for id in MachineId::all() {
        let out = run_checked(src, id, 3);
        let s = &out.stats;
        let spec = the_force::machdep::MachineSpec::of(id);
        match id {
            MachineId::Hep => {
                assert_eq!(s.syscalls, 0, "HEP never calls the OS for locks");
                assert!(
                    s.fe_produces + s.fe_consumes > 0,
                    "HEP locks are full/empty accesses"
                );
            }
            MachineId::Cray2 => {
                assert!(s.syscalls > 0, "every Cray lock op is a system call");
            }
            MachineId::SequentBalance => {
                assert!(
                    !out.linker_commands.is_empty(),
                    "the Sequent port must emit linker commands"
                );
            }
            MachineId::EncoreMultimax | MachineId::AlliantFx8 => {
                assert!(s.padding_words > 0, "{}: paged sharing must pad", id.name());
            }
            MachineId::Flex32 => {
                // combined locks: contended acquires may park, but the
                // uncontended path must not be all-syscall
                assert!(s.lock_acquires as f64 > s.syscalls as f64 * 0.5);
            }
        }
        match spec.sharing {
            SharingModelId::LinkTime => assert!(!out.linker_commands.is_empty()),
            _ => assert!(out.linker_commands.is_empty(), "{}", id.name()),
        }
        // Every machine computed the same answer.
        assert_eq!(
            out.shared_scalar("N"),
            Some(Value::Int(40)),
            "{}",
            id.name()
        );
    }
}

#[test]
fn simulated_cycle_profiles_follow_the_cost_models() {
    let src = "\
      Force FMAIN of NP ident ME
      Shared INTEGER N
      Private INTEGER K
      End declarations
      Selfsched DO 100 K = 1, 60
      Critical LCK
      N = N + 1
      End critical
100   End selfsched DO
      Join
";
    let mut cycles = std::collections::HashMap::new();
    for id in MachineId::all() {
        let out = run_checked(src, id, 2);
        cycles.insert(id, out.cycles);
    }
    // The HEP (cheap spawn + hardware sync) must be the cheapest port;
    // the Cray (per-lock syscalls + expensive fork) the most expensive.
    let hep = cycles[&MachineId::Hep];
    let cray = cycles[&MachineId::Cray2];
    for (id, c) in &cycles {
        assert!(hep <= *c, "HEP {hep} should not exceed {} {c}", id.name());
        assert!(
            cray >= *c,
            "Cray {cray} should not undercut {} {c}",
            id.name()
        );
    }
    assert!(
        cray > 5 * hep,
        "the gap should be large: hep={hep} cray={cray}"
    );
}

#[test]
fn two_programs_link_separately_on_one_sequent_machine() {
    // The Sequent's double-run link protocol is per *program*: each
    // program's startup routines register its own shared blocks and the
    // link pass happens once for it.  The blocks of these two differ in
    // size (`ZZFENV` holds a lock cell per construct), so a registry
    // shared through the machine would refuse the second program.
    let counter = "\
      Force FMAIN of NP ident ME
      Shared INTEGER N
      Private INTEGER K
      End declarations
      Selfsched DO 100 K = 1, 30
      Critical LCK
      N = N + K
      End critical
100   End selfsched DO
      Join
";
    let table = "\
      Force FMAIN of NP ident ME
      Shared INTEGER T(12), N
      Private INTEGER K
      End declarations
      Presched DO 10 K = 1, 12
      T(K) = K * K
10    End presched DO
      Barrier
      N = T(12)
      End barrier
      Join
";
    let programs = [(counter, 465), (table, 144)];
    // What each program's link pass says on a machine of its own.
    let alone =
        programs.map(|(src, _)| run_checked(src, MachineId::SequentBalance, 2).linker_commands);
    assert_ne!(
        alone[0], alone[1],
        "the programs must differ in what they link"
    );
    for order in [[0, 1, 0, 1], [1, 0, 0, 1]] {
        let machine = Machine::new(MachineId::SequentBalance);
        for which in order {
            let (src, n) = programs[which];
            let out = run_checked_on(src, &machine, 2);
            assert_eq!(out.shared_scalar("N"), Some(Value::Int(n)));
            assert_eq!(out.linker_commands, alone[which], "program {which}");
        }
    }
    // Resident sessions, interleaved: each links on its first run and
    // skips the pass from then on, whatever the other one does meanwhile.
    let machine = Machine::new(MachineId::SequentBalance);
    let load = |(src, _): (&str, i64)| {
        let expanded = the_force::prep::preprocess_cached(src, machine.id()).unwrap();
        the_force::fortran::Engine::from_expanded(&expanded, machine.clone()).unwrap()
    };
    let sessions = programs.map(load);
    for which in [0, 1, 1, 0, 1, 0] {
        let out = sessions[which].run(2).unwrap();
        assert_eq!(out.shared_scalar("N"), Some(Value::Int(programs[which].1)));
        assert_eq!(out.linker_commands, alone[which], "session {which}");
    }
}
