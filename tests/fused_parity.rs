//! Every shape the bytecode compiler fuses into one instruction — the
//! §4.2 loop head in both spellings, a lock mnemonic on a scalar, on an
//! array element or on anything else, and the operand forms of scalar
//! INTEGER assignment and compare-and-branch — runs here on all six
//! machines under both executors, on the inputs where fusion could
//! change what happens: REAL and LOGICAL bounds, a zero, a negative and a
//! variable step, an out-of-range subscript in a bound, a lock variable
//! never initialised, an async element's `…ZZE`/`…ZZF` lock, nested
//! Cray-2 criticals that share a pooled lock, wrapping arithmetic, a
//! REAL on either side of an assignment, a dummy argument, and shared
//! memory touched before the Sequent's link pass.  `support::run_parity`
//! holds the VM to the oracle on prints, shared memory, op counters and
//! — when the program fails — error text and line; each row also says
//! which outcome it is about, so that a row cannot pass by failing in
//! some other way.

mod support;

use support::run_parity;
use the_force::fortran::Value;
use the_force::machdep::{Machine, MachineId};
use the_force::prep::{preprocess, ExpandedProgram};

/// What a row expects on every machine.
enum Outcome {
    /// Success, with these final values of a shared array.
    Values(&'static str, Vec<Value>),
    /// Failure, with an error containing this text.
    Error(&'static str),
}

fn ints(values: &[i64]) -> Vec<Value> {
    values.iter().map(|&v| Value::Int(v)).collect()
}

/// A `Force` main program declaring `decls` around `body`.
fn program(decls: &str, body: &str) -> String {
    format!("      Force FMAIN of NP ident ME\n{decls}      End declarations\n{body}      Join\n")
}

/// One row on machine `id`: each executor gets a machine of its own, so
/// that the Cray-2's lock pool has the same history under both.
fn check(row: &str, expanded: &ExpandedProgram, id: MachineId, want: &Outcome) {
    let label = format!("{row} on {}", id.name());
    let got = run_parity(expanded, || Machine::new(id), 2);
    match (want, got) {
        (Outcome::Values(name, values), Ok(out)) => {
            assert_eq!(&out.shared_values[*name], values, "{label}")
        }
        (Outcome::Error(text), Err(e)) => {
            assert!(e.contains(text), "{label}: `{text}` missing from: {e}");
            assert!(e.starts_with("line "), "{label}: no line in: {e}");
        }
        (Outcome::Values(..), Err(e)) => panic!("{label}: failed: {e}"),
        (Outcome::Error(text), Ok(out)) => {
            panic!("{label}: ran, expected `{text}`: {:?}", out.shared_values)
        }
    }
}

fn check_everywhere(row: &str, source: &str, want: Outcome) {
    for id in MachineId::all() {
        let expanded = preprocess(source, id).unwrap_or_else(|e| panic!("{row}: {e}"));
        check(row, &expanded, id, &want);
    }
}

const HITS: &str = "      Shared INTEGER HITS(12), N(4)\n      Shared LOGICAL L\n      \
                    Private INTEGER K\n";

/// The prescheduled DO: its negated head is one `DoCheck`.
#[test]
fn presched_do_heads_agree() {
    let body = |head: &str| {
        format!("      Presched DO 10 {head}\n      HITS(K) = HITS(K) + 1\n10    End presched DO\n")
    };
    let rows = [
        (
            "REAL bound",
            program(HITS, &body("K = 1, 10.5")),
            Outcome::Values("HITS", ints(&[1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0])),
        ),
        (
            "LOGICAL bound",
            program(HITS, &body("K = 1, L")),
            Outcome::Error("LOGICAL used where a number is required"),
        ),
        (
            "step 0",
            program(HITS, &body("K = 1, 5, 0")),
            Outcome::Values("HITS", ints(&[0; 12])),
        ),
        (
            "negative step",
            program(HITS, &body("K = 12, 1, -3")),
            Outcome::Values("HITS", ints(&[0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 1])),
        ),
        (
            "subscript out of range in a bound",
            program(HITS, &body("K = 1, N(9)")),
            Outcome::Error("subscript 1 of N is 9, outside 1..4"),
        ),
    ];
    for (row, source, want) in rows {
        check_everywhere(row, &source, want);
    }
    // A REAL loop variable, its step still an INTEGER: the fused head's
    // mixed-type comparison.
    let source = program(
        "      Shared REAL XS(6)\n      Private REAL X\n",
        "      Presched DO 10 X = 0.5, 5.0, 2\n      XS(INT(X) + 1) = X\n10    End presched DO\n",
    );
    let real = |x| Value::Real(x);
    check_everywhere(
        "REAL variable",
        &source,
        Outcome::Values(
            "XS",
            vec![
                real(0.5),
                real(0.0),
                real(2.5),
                real(0.0),
                real(4.5),
                real(0.0),
            ],
        ),
    );
}

/// The doubly nested prescheduled DO: its trip counts are `INTEGER`
/// arithmetic on the bounds, its head an `IF … GO TO`.
#[test]
fn presched_do2_heads_agree() {
    let decls = "      Shared INTEGER GRID(4,3), N(4)\n      Shared LOGICAL L\n      \
                 Private INTEGER I, J\n";
    let body = |head: &str| {
        format!(
            "      Presched DO2 10 {head}\n      GRID(I, J) = GRID(I, J) + 1\n10    End presched DO2\n"
        )
    };
    let grid = |cells: &[(i64, i64)]| {
        let mut g = vec![0i64; 12];
        for &(i, j) in cells {
            g[((i - 1) + (j - 1) * 4) as usize] += 1;
        }
        ints(&g)
    };
    let rows = [
        (
            "REAL bounds",
            program(decls, &body("I = 1, 2.5 ; J = 1, 2")),
            Outcome::Values("GRID", grid(&[(1, 1), (2, 1), (1, 2), (2, 2)])),
        ),
        (
            "LOGICAL bound",
            program(decls, &body("I = 1, 4 ; J = 1, L")),
            Outcome::Error("LOGICAL used where a number is required"),
        ),
        (
            "step 0",
            program(decls, &body("I = 1, 4, 0 ; J = 1, 3")),
            Outcome::Error("integer division by zero"),
        ),
        (
            "negative steps",
            program(decls, &body("I = 4, 1, -2 ; J = 3, 1, -2")),
            Outcome::Values("GRID", grid(&[(4, 3), (2, 3), (4, 1), (2, 1)])),
        ),
        (
            "subscript out of range in a bound",
            program(decls, &body("I = 1, N(9) ; J = 1, 3")),
            Outcome::Error("subscript 1 of N is 9, outside 1..4"),
        ),
    ];
    for (row, source, want) in rows {
        check_everywhere(row, &source, want);
    }
}

/// The structured DO head is the only one whose step is first evaluated
/// in the head itself, so it is where the order step → variable → bound
/// shows: with both out of range the step's subscript is the error.  A
/// step that is not always an INTEGER is compared with zero before the
/// bound is evaluated, which the fused head could not do; such a loop
/// keeps the tree's shape, and these rows say so.
#[test]
fn a_fused_head_evaluates_step_then_variable_then_bound() {
    let decls = "      Shared INTEGER N(4)\n      Shared LOGICAL L\n      Shared REAL S\n      \
                 Private INTEGER K, T\n";
    let body = |prologue: &str, head: &str| {
        format!("{prologue}      DO 10 {head}\n      T = K\n10    CONTINUE\n")
    };
    let rows = [
        (
            "step and bound out of range",
            program(decls, &body("", "K = 1, N(9), N(7)")),
            Outcome::Error("subscript 1 of N is 7, outside 1..4"),
        ),
        (
            "a LOGICAL step before a bound out of range",
            program(decls, &body("", "K = 1, N(9), L")),
            Outcome::Error("LOGICAL used where a number is required"),
        ),
        (
            "a NaN step before a bound out of range",
            program(
                decls,
                &body("      S = EXP(1000.0) - EXP(1000.0)\n", "K = 1, N(9), S"),
            ),
            Outcome::Error("comparison with NaN"),
        ),
    ];
    for (row, source, want) in rows {
        check_everywhere(row, &source, want);
    }
}

/// The §4.2 selfscheduled claim and a critical section, both lock
/// mnemonics on shared scalars.
#[test]
fn a_selfscheduled_critical_sum_agrees() {
    let source = program(
        "      Shared INTEGER TOTAL(1)\n      Private INTEGER K\n",
        "      Selfsched DO 100 K = 1, 40\n      Critical LCK\n      TOTAL(1) = TOTAL(1) + K\n      \
         End critical\n100   End selfsched DO\n",
    );
    check_everywhere(
        "selfsched sum",
        &source,
        Outcome::Values("TOTAL", ints(&[820])),
    );
}

#[test]
fn a_lock_variable_never_initialised_fails_alike() {
    let source = program(
        "      Shared INTEGER N(1)\n",
        "      Critical L\n      N(1) = N(1) + 1\n      End critical\n",
    );
    for id in MachineId::all() {
        // Blank the driver's `CALL ZZINITU(L)`: same lines, no lock.
        let mut expanded = preprocess(&source, id).unwrap();
        let init = "      CALL ZZINITU(L)\n";
        assert!(expanded.code.contains(init), "{}", expanded.code);
        expanded.code = expanded.code.replacen(init, "C\n", 1);
        let want = Outcome::Error("lock variable used before initialization");
        check("uninitialised lock", &expanded, id, &want);
    }
}

/// Scalar INTEGER statements in operand form: `X = a`, `X = a op b` and
/// compare-and-branch, on the inputs where reading operands in place
/// could part from the stack code — wrapping arithmetic, `ME` and `NP`,
/// a REAL on either side of the assignment, a dummy argument, a LOGICAL
/// in a comparison, a read-only `ME` — and in loops that close through a
/// fused branch.
#[test]
fn operand_forms_agree() {
    const BIG: &str = "9223372036854775807";
    let decls = "      Shared INTEGER OUT(4), S\n      Shared REAL XS(2)\n      \
                 Shared LOGICAL L\n      Private INTEGER K, M\n      Private REAL X\n";
    let rows = [
        (
            "INTEGER overflow wraps",
            program(
                decls,
                &format!(
                    "      K = {BIG}\n      M = K + 1\n      OUT(1) = M\n      S = M - 1\n      \
                     OUT(2) = S\n      M = K * 3\n      OUT(3) = M\n      M = 3 - K\n      \
                     OUT(4) = M\n"
                ),
            ),
            Outcome::Values(
                "OUT",
                ints(&[i64::MIN, i64::MAX, i64::MAX - 2, i64::MIN + 4]),
            ),
        ),
        (
            "ME and NP as operands",
            program(
                decls,
                "      K = ME + 1\n      M = NP * 10\n      IF (ME .EQ. 0) THEN\n      OUT(1) = M\n      \
                 ELSE\n      OUT(2) = K\n      END IF\n      IF (NP .GT. ME) OUT(3) = NP\n      \
                 IF (.NOT. (ME .LT. NP)) OUT(4) = 99\n",
            ),
            Outcome::Values("OUT", ints(&[20, 2, 2, 0])),
        ),
        (
            "an INTEGER stored into a REAL is converted",
            program(
                decls,
                "      K = 7\n      X = K + 1\n      XS(1) = X\n      X = 2.5\n      K = X + 1\n      \
                 XS(2) = K - 10\n",
            ),
            Outcome::Values("XS", vec![Value::Real(8.0), Value::Real(-7.0)]),
        ),
        (
            "a comparison with a LOGICAL",
            program(decls, "      K = 1\n      IF (K .EQ. L) THEN\n      S = 1\n      END IF\n"),
            Outcome::Error("numeric value used where a LOGICAL is required"),
        ),
        (
            "an assignment to ME",
            program(decls, "      ME = ME + 1\n"),
            Outcome::Error("ME (process environment) is read-only"),
        ),
        (
            "a loop closed by IF … GO TO",
            program(
                decls,
                "      K = 0\n10    K = K + 1\n      IF (K .LT. 7) GO TO 10\n\
                 20    M = M + 2\n      IF (.NOT. (M .GE. 6)) GO TO 20\n      OUT(1) = K\n      \
                 OUT(2) = M\n",
            ),
            Outcome::Values("OUT", ints(&[7, 6, 0, 0])),
        ),
        (
            "an arithmetic IF",
            program(
                decls,
                "      DO 40 K = -1, 1\n      IF (K) 10, 20, 30\n10    OUT(1) = K\n      GO TO 40\n\
                 20    OUT(2) = 5\n      GO TO 40\n30    OUT(3) = K\n40    CONTINUE\n",
            ),
            Outcome::Values("OUT", ints(&[-1, 5, 1, 0])),
        ),
    ];
    for (row, source, want) in rows {
        check_everywhere(row, &source, want);
    }
}

/// A structured DO whose step is an INTEGER constant is one
/// compare-and-branch; a REAL bound, a zero step or a step that is not a
/// constant keep the `DoCheck`.  Either way the trips are the tree's.
/// (Process 0 runs the loop alone: every process runs a plain DO.)
#[test]
fn structured_do_heads_agree() {
    let decls = "      Shared INTEGER HITS(12), N\n      Private INTEGER K, T\n";
    let body = |head: &str| {
        format!(
            "      N = 12\n      T = 3\n      IF (ME .EQ. 0) THEN\n      DO 10 {head}\n      \
             HITS(K) = HITS(K) + 1\n10    CONTINUE\n      END IF\n"
        )
    };
    let every = |from: usize, step: usize| {
        let mut hits = vec![0; 12];
        for k in (from - 1..12).step_by(step) {
            hits[k] = 1;
        }
        ints(&hits)
    };
    let rows = [
        ("a shared bound", body("K = 1, N"), every(1, 1)),
        ("a REAL bound", body("K = 1, 10.5"), {
            let mut hits = [1; 12];
            hits[10..].fill(0);
            ints(&hits)
        }),
        ("step 0", body("K = 1, 5, 0"), ints(&[0; 12])),
        ("a negative step", body("K = 12, 1, -3"), {
            ints(&[0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 1])
        }),
        ("a variable step", body("K = 2, N, T"), every(2, 3)),
        ("no trips", body("K = N, 1"), ints(&[0; 12])),
    ];
    for (row, source, values) in rows {
        check_everywhere(
            row,
            &program(decls, &source),
            Outcome::Values("HITS", values),
        );
    }
}

/// A fused statement is the first to touch shared memory before the
/// Sequent's link pass has run: the designation fails in it, with the
/// same error and line under both executors.
#[test]
fn a_fused_statement_before_the_link_pass_fails_alike() {
    let source = program("      Shared INTEGER S\n", "      S = 1\n");
    let id = MachineId::SequentBalance;
    for statement in [
        "      ZZNBAR = 1\n",
        "      ZZNBAR = ZZNBAR + 1\n",
        "      IF (ZZNBAR .GT. 0) STOP\n",
    ] {
        // In place of the driver's `CALL ZZLINK`: same lines, no link.
        let mut expanded = preprocess(&source, id).unwrap();
        let link = "      CALL ZZLINK\n";
        assert!(expanded.code.contains(link), "{}", expanded.code);
        expanded.code = expanded.code.replacen(link, statement, 1);
        let want = Outcome::Error("requires the startup registry to be finalized");
        check(statement.trim(), &expanded, id, &want);
    }
}

/// A dummy argument is never an operand: the callee's `N = N + 1` keeps
/// the binding's checks — read-only when passed by value, a store into
/// the caller's shared scalar when passed by reference.
#[test]
fn a_dummy_argument_keeps_its_binding_checks() {
    let source = |actual: &str| {
        format!(
            "      Force FMAIN of NP ident ME\n      Shared INTEGER S\n      Externf BUMP\n      \
             Private INTEGER K\n      End declarations\n      K = 1\n      CALL BUMP({actual})\n      \
             Join\n      Forcesub BUMP(N) of NP ident ME\n      INTEGER N\n      End declarations\n      \
             Barrier\n      N = N + 1\n      End barrier\n      Join\n"
        )
    };
    check_everywhere(
        "by value",
        &source("K"),
        Outcome::Error("argument N was passed by value and is read-only"),
    );
    check_everywhere(
        "by reference",
        &source("S"),
        Outcome::Values("S", ints(&[1])),
    );
}

/// Elements of an async array: on every machine but the HEP, `Produce`
/// and `Consume` lock `CELLZZF(I)` and `CELLZZE(I)`, a lock on an array
/// element.
#[test]
fn async_element_locks_agree() {
    let decls = "      Async INTEGER CELL(6)\n      Shared INTEGER OUT(6)\n      \
                 Private INTEGER I, V\n";
    let source = program(
        decls,
        "      Presched DO 10 I = 1, 6\n      Produce CELL(I) = I * I\n10    End presched DO\n      \
         Presched DO 20 I = 1, 6\n      Consume CELL(7 - I) into V\n      OUT(7 - I) = V\n\
         20    End presched DO\n",
    );
    check_everywhere(
        "produce and consume",
        &source,
        Outcome::Values("OUT", ints(&[1, 4, 9, 16, 25, 36])),
    );
    let out_of_range = program(decls, "      I = 9\n      Produce CELL(I) = 1\n");
    check_everywhere(
        "an element out of range",
        &out_of_range,
        Outcome::Error("is 9, outside 1..6"),
    );
    // Expanded for the Flex/32 and run on the Cray-2, which differ in
    // their locks alone, the lock mnemonic's machine check comes before
    // its subscript's.
    let expanded = preprocess(&out_of_range, MachineId::Flex32).unwrap();
    let want = Outcome::Error(
        "code preprocessed for combined spin/syscall locks cannot run on a machine providing \
         system call locks",
    );
    check(
        "a mismatch before a subscript",
        &expanded,
        MachineId::Cray2,
        &want,
    );
}

/// The Cray-2's 33rd critical name shares the first one's pooled lock:
/// nested inside it, a positioned error under both executors, and a
/// correct program everywhere else.
#[test]
fn nested_criticals_sharing_a_pooled_lock_agree() {
    let mut body = String::new();
    for i in 0..32 {
        let cell = i + 1;
        body.push_str(&format!(
            "      Critical L{i}\n      V({cell}) = V({cell}) + 1\n      End critical\n"
        ));
    }
    body.push_str(
        "      Critical L0\n      Critical L32\n      V(33) = V(33) + 1\n      End critical\n      \
         End critical\n",
    );
    let source = program("      Shared INTEGER V(33)\n", &body);
    for id in MachineId::all() {
        let want = if id == MachineId::Cray2 {
            Outcome::Error("shares a physical lock with L0")
        } else {
            Outcome::Values("V", ints(&[2; 33]))
        };
        check(
            "nested aliasing criticals",
            &preprocess(&source, id).unwrap(),
            id,
            &want,
        );
    }
}
