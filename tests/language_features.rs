//! Force-language feature coverage beyond the happy path: nesting,
//! loops around constructs, subroutines, arrays, REAL/LOGICAL data and
//! Fortran control flow mixed with Force constructs.

mod support;

use support::run_checked;
use the_force::fortran::Value;
use the_force::machdep::MachineId;
use the_force::run_force_source;

fn run(src: &str, nproc: usize) -> the_force::fortran::RunOutput {
    run_checked(src, MachineId::Flex32, nproc)
}

#[test]
fn fortran_do_loop_around_force_constructs() {
    let src = "\
      Force FMAIN of NP ident ME
      Shared INTEGER N
      Private INTEGER R, K
      End declarations
      DO 20 R = 1, 5
      Selfsched DO 100 K = 1, 10
      Critical LCK
      N = N + 1
      End critical
100   End selfsched DO
20    CONTINUE
      Join
";
    for nproc in [1, 2, 4] {
        let out = run(src, nproc);
        assert_eq!(
            out.shared_scalar("N"),
            Some(Value::Int(50)),
            "nproc={nproc}"
        );
    }
}

#[test]
fn two_selfsched_loops_with_the_same_variable() {
    let src = "\
      Force FMAIN of NP ident ME
      Shared INTEGER A, B
      Private INTEGER K
      End declarations
      Selfsched DO 100 K = 1, 10
      Critical L1
      A = A + K
      End critical
100   End selfsched DO
      Selfsched DO 200 K = 1, 20
      Critical L2
      B = B + 1
      End critical
200   End selfsched DO
      Join
";
    let out = run(src, 3);
    assert_eq!(out.shared_scalar("A"), Some(Value::Int(55)));
    assert_eq!(out.shared_scalar("B"), Some(Value::Int(20)));
}

#[test]
fn nested_presched_with_inner_fortran_do() {
    let src = "\
      Force FMAIN of NP ident ME
      Shared INTEGER GRID(6,4)
      Private INTEGER I, J
      End declarations
      Presched DO 10 I = 1, 6
      DO 30 J = 1, 4
      GRID(I, J) = I * 10 + J
30    CONTINUE
10    End presched DO
      Join
";
    let out = run(src, 2);
    let grid = &out.shared_values["GRID"];
    // column-major: GRID(i,j) at (i-1) + (j-1)*6
    for i in 1..=6i64 {
        for j in 1..=4i64 {
            let at = (i - 1) + (j - 1) * 6;
            assert_eq!(grid[at as usize], Value::Int(i * 10 + j), "GRID({i},{j})");
        }
    }
}

#[test]
fn logical_shared_flags_and_if_chains() {
    let src = "\
      Force FMAIN of NP ident ME
      Shared LOGICAL FLAG
      Shared INTEGER PATH
      End declarations
      Barrier
      FLAG = .TRUE.
      End barrier
      Barrier
      IF (FLAG .AND. .NOT. .FALSE.) THEN
      PATH = 1
      ELSE IF (FLAG) THEN
      PATH = 2
      ELSE
      PATH = 3
      END IF
      End barrier
      Join
";
    let out = run(src, 3);
    assert_eq!(out.shared_scalar("PATH"), Some(Value::Int(1)));
    assert_eq!(out.shared_scalar("FLAG"), Some(Value::Log(true)));
}

#[test]
fn real_array_prefix_sums_via_barrier_phases() {
    let src = "\
      Force FMAIN of NP ident ME
      Shared REAL X(16)
      Private INTEGER K
      End declarations
      Presched DO 10 K = 1, 16
      X(K) = FLOAT(K)
10    End presched DO
      Barrier
      DO 40 K = 2, 16
      X(K) = X(K) + X(K-1)
40    CONTINUE
      End barrier
      Join
";
    let out = run(src, 4);
    let x = &out.shared_values["X"];
    for k in 1..=16usize {
        let expect = (k * (k + 1) / 2) as f64;
        assert_eq!(x[k - 1], Value::Real(expect), "X({k})");
    }
}

#[test]
fn forcesub_chain_with_arguments() {
    let src = "\
      Force FMAIN of NP ident ME
      Shared INTEGER OUT(8)
      Externf FILL
      Private INTEGER K
      End declarations
      CALL FILL(OUT, 8)
      Join
      Forcesub FILL(A, N) of NP ident ME
      Private INTEGER J
      End declarations
      Presched DO 10 J = 1, N
      A(J) = J * J
10    End presched DO
      Join
";
    // FILL's dummy A has no declared dims — declare them:
    let src = src.replace(
        "      Forcesub FILL(A, N) of NP ident ME\n      Private INTEGER J\n",
        "      Forcesub FILL(A, N) of NP ident ME\n      Private INTEGER J\n      INTEGER A(8), N\n",
    );
    let out = run(&src, 2);
    let a = &out.shared_values["OUT"];
    for j in 1..=8i64 {
        assert_eq!(a[(j - 1) as usize], Value::Int(j * j), "OUT({j})");
    }
}

#[test]
fn goto_spaghetti_in_force_code() {
    // The macro output itself is GOTO-heavy; user GOTO must coexist.
    let src = "\
      Force FMAIN of NP ident ME
      Shared INTEGER N
      Private INTEGER K
      End declarations
      K = 0
50    K = K + 1
      IF (K .LT. 5) GO TO 50
      Critical LCK
      N = N + K
      End critical
      Join
";
    let out = run(src, 3);
    assert_eq!(out.shared_scalar("N"), Some(Value::Int(15)));
}

/// INTEGER `/` wraps at the end of the range as `+ − ×` do: the most
/// negative value divided by −1 is itself, as its product with −1 and
/// its negation are.  The division used to end the run with an overflow
/// fault in the interpreter.
#[test]
fn dividing_the_most_negative_integer_by_minus_one_wraps() {
    let src = "\
      Force FMAIN of NP ident ME
      Shared INTEGER K, Q, P, N
      End declarations
      Barrier
      K = -9223372036854775807 - 1
      Q = K / (-1)
      P = K * (-1)
      N = -K
      End barrier
      Join
";
    let out = run(src, 2);
    for name in ["K", "Q", "P", "N"] {
        assert_eq!(
            out.shared_scalar(name),
            Some(Value::Int(i64::MIN)),
            "{name}"
        );
    }
}

/// `MOD` of the most negative INTEGER by −1 is 0, the remainder of the
/// wrapped quotient, where it used to fault the interpreter.
#[test]
fn mod_of_the_most_negative_integer_by_minus_one_is_zero() {
    let src = "\
      Force FMAIN of NP ident ME
      Shared INTEGER K, M
      End declarations
      Barrier
      K = -9223372036854775807 - 1
      M = MOD(K, -1) + 7
      End barrier
      Join
";
    let out = run(src, 2);
    assert_eq!(out.shared_scalar("M"), Some(Value::Int(7)));
}

#[test]
fn intrinsic_functions_in_force_programs() {
    let src = "\
      Force FMAIN of NP ident ME
      Shared INTEGER IMOD, IMIN
      Shared REAL RT
      End declarations
      Barrier
      IMOD = MOD(17, 5)
      IMIN = MIN(3, MAX(1, 2), 9)
      RT = SQRT(2.25) + ABS(-0.5)
      End barrier
      Join
";
    let out = run(src, 2);
    assert_eq!(out.shared_scalar("IMOD"), Some(Value::Int(2)));
    assert_eq!(out.shared_scalar("IMIN"), Some(Value::Int(2)));
    assert_eq!(out.shared_scalar("RT"), Some(Value::Real(2.0)));
}

#[test]
fn pid_and_nproc_are_visible_per_process() {
    let src = "\
      Force FMAIN of NP ident ME
      Shared INTEGER SEEN(8), TOTALP
      End declarations
      SEEN(ME + 1) = 1
      Critical LCK
      TOTALP = NP
      End critical
      Join
";
    let out = run(src, 5);
    let seen = &out.shared_values["SEEN"];
    for (p, s) in seen.iter().enumerate().take(5) {
        assert_eq!(*s, Value::Int(1), "process {p} registered");
    }
    for s in seen.iter().take(8).skip(5) {
        assert_eq!(*s, Value::Int(0));
    }
    assert_eq!(out.shared_scalar("TOTALP"), Some(Value::Int(5)));
}

#[test]
fn print_collects_from_all_processes() {
    let src = "\
      Force FMAIN of NP ident ME
      End declarations
      PRINT *, 'HELLO FROM', ME
      Join
";
    let out = run(src, 4);
    assert_eq!(out.prints.len(), 4);
    let mut ids: Vec<String> = out.prints.clone();
    ids.sort();
    for (i, line) in ids.iter().enumerate() {
        assert_eq!(line, &format!("HELLO FROM {i}"));
    }
}

#[test]
fn selfsched_pcase_with_conditions() {
    let src = "\
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
";
    for nproc in [1, 2, 6] {
        let out = run(src, nproc);
        assert_eq!(out.shared_scalar("A"), Some(Value::Int(1)), "nproc={nproc}");
        assert_eq!(out.shared_scalar("B"), Some(Value::Int(1)), "nproc={nproc}");
        assert_eq!(out.shared_scalar("C"), Some(Value::Int(0)), "nproc={nproc}");
    }
}

#[test]
fn producer_consumer_loop_through_async_variable() {
    // A bounded stream: process 0 produces 30 numbers, the others compete
    // to consume them; a shared count of consumed items terminates.
    let src = "\
      Force FMAIN of NP ident ME
      Shared INTEGER SUM
      Async INTEGER CHAN
      Private INTEGER K, T
      End declarations
      IF (ME .EQ. 0) THEN
      DO 10 K = 1, 30
      Produce CHAN = K
10    CONTINUE
      END IF
      IF (ME .EQ. 1) THEN
      DO 20 K = 1, 30
      Consume CHAN into T
      Critical SLCK
      SUM = SUM + T
      End critical
20    CONTINUE
      END IF
      Join
";
    let out = run_checked(src, MachineId::Hep, 2);
    assert_eq!(out.shared_scalar("SUM"), Some(Value::Int(465)));
    let out = run_checked(src, MachineId::Cray2, 2);
    assert_eq!(out.shared_scalar("SUM"), Some(Value::Int(465)));
}

#[test]
fn isfull_tests_the_state_without_consuming() {
    // §3.4: "The state can also be tested and initialized to empty."
    let src = "\
      Force FMAIN of NP ident ME
      Shared INTEGER BEFORE, AFTER, GONE
      Async INTEGER CHAN
      Private INTEGER T
      End declarations
      Barrier
      IF (Isfull(CHAN)) THEN
      BEFORE = 1
      ELSE
      BEFORE = 0
      END IF
      Produce CHAN = 5
      IF (Isfull(CHAN)) THEN
      AFTER = 1
      END IF
      Consume CHAN into T
      IF (.NOT. Isfull(CHAN)) THEN
      GONE = 1
      END IF
      End barrier
      Join
";
    for id in [
        MachineId::Hep,
        MachineId::EncoreMultimax,
        MachineId::Cray2,
        MachineId::Flex32,
    ] {
        let out = run_checked(src, id, 3);
        assert_eq!(
            out.shared_scalar("BEFORE"),
            Some(Value::Int(0)),
            "{}",
            id.name()
        );
        assert_eq!(
            out.shared_scalar("AFTER"),
            Some(Value::Int(1)),
            "{}",
            id.name()
        );
        assert_eq!(
            out.shared_scalar("GONE"),
            Some(Value::Int(1)),
            "{}",
            id.name()
        );
    }
}

#[test]
fn isfull_polling_loop_synchronizes_a_flag() {
    // A flag-polling idiom: process 1 spins on Isfull until process 0
    // produces, then consumes.
    let src = "\
      Force FMAIN of NP ident ME
      Shared INTEGER GOT
      Async INTEGER FLAG
      Private INTEGER T
      End declarations
      IF (ME .EQ. 0) THEN
      Produce FLAG = 77
      END IF
      IF (ME .EQ. 1) THEN
30    IF (.NOT. Isfull(FLAG)) GO TO 30
      Consume FLAG into T
      GOT = T
      END IF
      Join
";
    let out = run_checked(src, MachineId::Hep, 2);
    assert_eq!(out.shared_scalar("GOT"), Some(Value::Int(77)));
    let out = run_checked(src, MachineId::SequentBalance, 2);
    assert_eq!(out.shared_scalar("GOT"), Some(Value::Int(77)));
}

#[test]
fn async_array_wavefront_in_the_language() {
    // A software pipeline through an asynchronous array: stage ME
    // consumes slot ME, increments, produces slot ME+1; process 0 feeds
    // slot 1 and collects from slot NP.  (Slots are 1-based.)
    let src = "\
      Force FMAIN of NP ident ME
      Shared INTEGER OUT(20)
      Async INTEGER SLOT(8)
      Private INTEGER R, V
      End declarations
      IF (ME .EQ. 0) THEN
      DO 10 R = 1, 20
      Produce SLOT(1) = R
      Consume SLOT(NP) into V
      OUT(R) = V
10    CONTINUE
      ELSE
      DO 20 R = 1, 20
      Consume SLOT(ME) into V
      Produce SLOT(ME + 1) = V + 1
20    CONTINUE
      END IF
      Join
";
    for id in [MachineId::Hep, MachineId::EncoreMultimax, MachineId::Cray2] {
        let nproc = 4;
        let out = run_checked(src, id, nproc);
        let outs = &out.shared_values["OUT"];
        for r in 1..=20i64 {
            // r passes through nproc-1 incrementing stages
            assert_eq!(
                outs[(r - 1) as usize],
                Value::Int(r + nproc as i64 - 1),
                "{} OUT({r})",
                id.name()
            );
        }
    }
}

#[test]
fn async_array_elements_are_independent_in_the_language() {
    let src = "\
      Force FMAIN of NP ident ME
      Shared INTEGER F1, F3, E2
      Async INTEGER C(3)
      Private INTEGER T
      End declarations
      Barrier
      Produce C(1) = 10
      Produce C(3) = 30
      IF (Isfull(C(1))) THEN
      F1 = 1
      END IF
      IF (Isfull(C(3))) THEN
      F3 = 1
      END IF
      IF (.NOT. Isfull(C(2))) THEN
      E2 = 1
      END IF
      Consume C(1) into T
      Void C(3)
      End barrier
      Join
";
    for id in [MachineId::Hep, MachineId::SequentBalance, MachineId::Flex32] {
        let out = run_checked(src, id, 2);
        assert_eq!(
            out.shared_scalar("F1"),
            Some(Value::Int(1)),
            "{}",
            id.name()
        );
        assert_eq!(
            out.shared_scalar("F3"),
            Some(Value::Int(1)),
            "{}",
            id.name()
        );
        assert_eq!(
            out.shared_scalar("E2"),
            Some(Value::Int(1)),
            "{}",
            id.name()
        );
    }
}

#[test]
fn doubly_nested_doall_covers_the_pair_space() {
    // §3.3: "In case of singly (doubly) nested loops, the loop indices
    // (index pairs) specify concurrently executable sequential streams."
    // The second loop depends on the first, so a `Barrier` separates
    // them: `End selfsched DO2` only counts a process out (ZZBAREXIT), it
    // does not wait for peers still inside their last body, and the
    // first loop's GRID update is an unlocked read-modify-write.
    let src = "\
      Force FMAIN of NP ident ME
      Shared INTEGER GRID(6,5), COUNT
      Private INTEGER I, J
      End declarations
      Selfsched DO2 100 I = 1, 6 ; J = 1, 5
      GRID(I, J) = GRID(I, J) + I * 10 + J
      Critical CL
      COUNT = COUNT + 1
      End critical
100   End selfsched DO2
      Barrier
      End barrier
      Presched DO2 200 I = 1, 6 ; J = 1, 5
      GRID(I, J) = GRID(I, J) + 1000
200   End presched DO2
      Join
";
    for id in [MachineId::Hep, MachineId::EncoreMultimax, MachineId::Cray2] {
        for nproc in [1, 3, 4] {
            let out = run_checked(src, id, nproc);
            assert_eq!(
                out.shared_scalar("COUNT"),
                Some(Value::Int(30)),
                "{} nproc={nproc}",
                id.name()
            );
            let grid = &out.shared_values["GRID"];
            for i in 1..=6i64 {
                for j in 1..=5i64 {
                    let at = ((i - 1) + (j - 1) * 6) as usize;
                    assert_eq!(
                        grid[at],
                        Value::Int(1000 + i * 10 + j),
                        "{} nproc={nproc} GRID({i},{j})",
                        id.name()
                    );
                }
            }
        }
    }
}

#[test]
fn doubly_nested_doall_with_strides_and_empty_ranges() {
    let src = "\
      Force FMAIN of NP ident ME
      Shared INTEGER COUNT, EMPTYC
      Private INTEGER I, J
      End declarations
      Selfsched DO2 100 I = 1, 10, 3 ; J = 10, 2, -4
      Critical CL
      COUNT = COUNT + 1
      End critical
100   End selfsched DO2
      Presched DO2 200 I = 5, 1 ; J = 1, 3
      EMPTYC = EMPTYC + 1
200   End presched DO2
      Join
";
    let out = run_checked(src, MachineId::Flex32, 3);
    // outer trips: 1,4,7,10 = 4; inner: 10,6,2 = 3 -> 12 pairs
    assert_eq!(out.shared_scalar("COUNT"), Some(Value::Int(12)));
    assert_eq!(out.shared_scalar("EMPTYC"), Some(Value::Int(0)));
}

#[test]
fn arithmetic_if_in_force_programs() {
    // The classic F66 three-way branch, still common in 1989 code.
    let src = "\
      Force FMAIN of NP ident ME
      Shared INTEGER WHICH(3)
      Private INTEGER X, R
      End declarations
      Barrier
      DO 40 R = 1, 3
      X = R - 2
      IF (X) 10, 20, 30
10    WHICH(1) = WHICH(1) + 1
      GO TO 40
20    WHICH(2) = WHICH(2) + 1
      GO TO 40
30    WHICH(3) = WHICH(3) + 1
40    CONTINUE
      End barrier
      Join
";
    let out = run(src, 3);
    let which = &out.shared_values["WHICH"];
    assert_eq!(which[0], Value::Int(1), "negative branch");
    assert_eq!(which[1], Value::Int(1), "zero branch");
    assert_eq!(which[2], Value::Int(1), "positive branch");
}

/// ROADMAP 1(b): a user name in the generated namespace used to alias a
/// generated variable (`VZZE` is async `V`'s "empty" lock; `ZZT` is the
/// DO2 scratch private) and fail at run time with "lock variable used
/// before initialization".  The sed pass now refuses it, with its line.
#[test]
fn generated_namespace_collisions_are_positioned_prep_errors() {
    use the_force::prep::PrepError;
    use the_force::ForceError;

    let async_alias = "\
      Force FMAIN of NP ident ME
      Async INTEGER V
      Shared INTEGER VZZE
      Private INTEGER T
      End declarations
      Barrier
      VZZE = 7
      End barrier
      IF (ME .EQ. 0) THEN
      Produce V = VZZE
      END IF
      Copy V into T
      Join
";
    let scratch_alias = "\
      Force FMAIN of NP ident ME
      Shared INTEGER GRID(4, 4)
      Private INTEGER I, J, ZZT
      End declarations
      Selfsched DO2 100 I = 1, 4 ; J = 1, 4
      ZZT = I + J
      GRID(I, J) = ZZT
100   End selfsched DO2
      Join
";
    for id in MachineId::all() {
        for (src, line, name) in [(async_alias, 3, "VZZE"), (scratch_alias, 3, "ZZT")] {
            match run_force_source(src, id, 2) {
                Err(ForceError::Prep(PrepError::Sed(e))) => {
                    assert_eq!(e.line, line, "{id:?}: {e}");
                    assert!(e.message.contains(&format!("`{name}`")), "{id:?}: {e}");
                }
                Err(other) => panic!("{id:?}: `{name}` must fail in the sed pass, got: {other}"),
                Ok(_) => panic!("{id:?}: `{name}` must be rejected"),
            }
        }
    }
}

/// A `CHUNK` literal below 1 would have every process claim no trip on
/// every visit to the shared index; nobody parks, so not even the
/// watchdog ended such a run.  The sed pass refuses it at its line.
#[test]
fn a_literal_chunk_below_one_is_a_positioned_prep_error() {
    use the_force::prep::{preprocess, PrepError};

    for chunk in ["0", "-3"] {
        let src = format!(
            "      Force FMAIN of NP ident ME
      Shared INTEGER HITS(8)
      Private INTEGER K
      End declarations
      Selfsched DO 100 K = 1, 8 CHUNK {chunk}
      HITS(K) = HITS(K) + 1
100   End selfsched DO
      Join
"
        );
        for id in MachineId::all() {
            match preprocess(&src, id) {
                Err(PrepError::Sed(e)) => {
                    assert_eq!(e.line, 5, "{id:?}: {e}");
                    assert!(e.message.contains(&format!("CHUNK {chunk}")), "{id:?}: {e}");
                }
                Err(other) => panic!("{id:?}: CHUNK {chunk} must fail in the sed pass: {other}"),
                Ok(_) => panic!("{id:?}: CHUNK {chunk} must be rejected"),
            }
        }
    }
}

/// A chunk computed at run time claims at least one trip, as a guided
/// chunk does: with `NC = 0` every trip runs once, on every machine,
/// and the run ends (it used to spin with every process claiming none).
#[test]
fn a_run_time_chunk_of_zero_claims_one_trip_per_visit() {
    let src = "\
      Force FMAIN of NP ident ME
      Shared INTEGER HITS(40), NC
      Private INTEGER K
      End declarations
      Barrier
      NC = 0
      End barrier
      Selfsched DO 100 K = 1, 40 chunk NC
      HITS(K) = HITS(K) + 1
100   End selfsched DO
      Join
";
    let (done, ran) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        for id in MachineId::all() {
            let out = run_checked(src, id, 3);
            let hits = out.shared_values["HITS"].clone();
            let _ = done.send((id, hits));
        }
    });
    for id in MachineId::all() {
        let (ran_on, hits) = ran
            .recv_timeout(std::time::Duration::from_secs(60))
            .unwrap_or_else(|_| panic!("{id:?}: the loop did not end within 60 s"));
        assert_eq!(ran_on, id);
        assert_eq!(hits, vec![Value::Int(1); 40], "{id:?}");
    }
}

/// Fortran names are case-insensitive, m4's are not, and user text
/// reaches both m4 passes unquoted: a lower-case user name that is an m4
/// name used to be rewritten silently (`3 + len` left `3`), and a name
/// the macros generate without a `ZZ` mark used to alias it.  The sed
/// pass refuses both, with the source line.
#[test]
fn macro_name_captures_are_positioned_prep_errors() {
    use the_force::prep::PrepError;
    use the_force::ForceError;

    let program = |decl: &str, stmt: &str| {
        format!(
            "      Force FMAIN of NP ident ME
      Shared INTEGER TOTAL
      {decl}
      End declarations
      {stmt}
      Join
"
        )
    };
    let cases = [
        // (declaration, statement, offending line, identifier, regime)
        ("Private INTEGER LEN", "TOTAL = 3 + len", 5, "len", "m4"),
        ("Private INTEGER len", "TOTAL = 3", 3, "len", "m4"),
        ("Private INTEGER K", "incr = 4", 5, "incr", "m4"),
        ("Private INTEGER unlock", "TOTAL = 3", 3, "unlock", "m4"),
        (
            "Shared INTEGER BARWIN",
            "TOTAL = 3",
            3,
            "BARWIN",
            "generated",
        ),
        (
            "Shared INTEGER barwot",
            "TOTAL = 3",
            3,
            "barwot",
            "generated",
        ),
        (
            "Private INTEGER Loop100",
            "TOTAL = 3",
            3,
            "Loop100",
            "generated",
        ),
    ];
    for id in MachineId::all() {
        for (decl, stmt, line, name, regime) in cases {
            match run_force_source(&program(decl, stmt), id, 2) {
                Err(ForceError::Prep(PrepError::Sed(e))) => {
                    assert_eq!(e.line, line, "{id:?}: {e}");
                    assert!(e.message.contains(&format!("`{name}`")), "{id:?}: {e}");
                    // The m4 names are reserved as spelled: the message
                    // offers the upper-case spelling.  The generated ones
                    // are reserved in either case.
                    let offer = format!("spelling `{}`", name.to_ascii_uppercase());
                    assert_eq!(e.message.contains(&offer), regime == "m4", "{id:?}: {e}");
                }
                Err(other) => panic!("{id:?}: `{name}` must fail in the sed pass, got: {other}"),
                Ok(_) => panic!("{id:?}: `{name}` must be rejected"),
            }
        }
        // What the rule must leave alone: the upper-case spellings, names
        // that merely contain a reserved one, and quoted text (which m4
        // still reads: what the literal prints is not pinned here).
        let ordinary = "\
      Force FMAIN of NP ident ME
      Shared INTEGER TOTAL
      Private INTEGER LEN, INCR, Lock1, LOOPS
      End declarations
      LEN = 5
      INCR = 4
      Lock1 = 2
      LOOPS = 1
      Barrier
      TOTAL = LEN + INCR + Lock1 + LOOPS
      PRINT *, 'len', TOTAL
      End barrier
      Join
";
        let out = run_checked(ordinary, id, 2);
        assert_eq!(out.shared_scalar("TOTAL"), Some(Value::Int(12)), "{id:?}");
        assert_eq!(out.prints.len(), 1, "{id:?}");
        assert!(out.prints[0].ends_with(" 12"), "{id:?}: {:?}", out.prints);
    }
}
