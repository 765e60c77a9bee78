//! No input panics the front end (ROADMAP 1(f), first instalment).
//!
//! Every corpus program (`tests/support/corpus.rs`) is mutated 2 000
//! times — a byte flipped, a span deleted or duplicated, or one of the
//! tokens that steer the scanners (`` ` `` `'` `(` `)` `,` `-` `$1` `dnl`
//! `eval(`, multi-byte text, and what recurses past its limit: an `eval`
//! of 300 signs, and runs and nests of 300 parentheses, which the
//! Fortran expression parser bounds at `MAX_EXPR_DEPTH`) spliced in at a
//! random byte offset, inside identifiers and labels too
//! — and each mutant goes through sed → m4 → m4 → lex → parse → bytecode
//! on a drawn personality.  The outcome must be a program or a
//! `PrepError`/`FortError`: never a panic (the byte
//! scanners' hazard is a slice off a `char` boundary), never a stack
//! overflow on the 512 KiB a virtual-time pid gets, never a second of
//! work.  Hermetic: `XorShift64`, fixed seeds; a failure names the
//! program and mutation number that reproduce it.

mod support;

use std::collections::HashMap;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use support::corpus::corpus;
use the_force::fortran::{bytecode, lexer, Program};
use the_force::machdep::{MachineId, XorShift64};
use the_force::prep::{preprocess, VarClass};

const MUTATIONS_PER_PROGRAM: u64 = 2000;

/// The stack of a pid thread under the virtual backend.
const STACK: usize = 512 * 1024;

/// What gets spliced in: every delimiter of the m4 and Fortran scanners,
/// a parameter, a line-eating builtin, the builtin that parses its
/// argument and the sign it recurses on, and text of 2, 3 and 4 bytes a
/// character (the first of them is the pair a sed-pass crash once
/// shrank to).
const SPLICES: &[&str] = &[
    "`",
    "'",
    "(",
    ")",
    ",",
    "-",
    "$1",
    "dnl",
    "eval(",
    "\"\u{3a3}",
    "\u{e9}",
    "\u{6f22}",
    "\u{108f0}",
];

/// A mutant of `source`, and what was done to it.
fn mutate(source: &str, rng: &mut XorShift64) -> (String, String) {
    let mut bytes = source.as_bytes().to_vec();
    let at = rng.next_index(bytes.len());
    let span = |rng: &mut XorShift64| at + 1 + rng.next_index(24.min(bytes.len() - at));
    let what = match rng.next_index(7 + SPLICES.len()) {
        0 => {
            bytes[at] ^= 1 << rng.next_index(8);
            format!("flip a bit of byte {at}")
        }
        1 => {
            let end = span(rng);
            bytes.drain(at..end);
            format!("delete {at}..{end}")
        }
        2 => {
            let end = span(rng);
            let copy = bytes[at..end].to_vec();
            bytes.splice(at..at, copy);
            format!("duplicate {at}..{end}")
        }
        n @ 3..=6 => {
            // What recurses, past its limit.  `eval` descends per unary
            // `-`, and m4 reads it wherever the sed pass lets it through
            // (character literals, comment lines); the Fortran expression
            // parser descends per `(`, open, closed or never opened.
            let (deep, name) = match n {
                3 => (
                    format!("eval({}1)", "-".repeat(300)),
                    "an eval of 300 signs",
                ),
                4 => ("(".repeat(300), "300 `(`"),
                5 => (")".repeat(300), "300 `)`"),
                _ => (
                    format!("{}1{}", "(".repeat(300), ")".repeat(300)),
                    "a nest of 300 parentheses",
                ),
            };
            bytes.splice(at..at, deep.bytes());
            format!("splice {name} at {at}")
        }
        n => {
            let token = SPLICES[n - 7];
            bytes.splice(at..at, token.bytes());
            format!("splice {token:?} at {at}")
        }
    };
    // A flipped or cut byte may not be UTF-8 any more; the front end takes
    // `&str`, so the mutant is what a lossy reader would hand it.
    (String::from_utf8_lossy(&bytes).into_owned(), what)
}

/// The whole front end; an `Err` from any stage is an acceptable outcome.
fn front_end(source: &str, id: MachineId) -> Result<(), String> {
    let expanded = preprocess(source, id).map_err(|e| e.to_string())?;
    lexer::lex(&expanded.code).map_err(|e| e.to_string())?;
    let shared: HashMap<String, usize> = expanded
        .decls
        .iter()
        .filter(|d| matches!(d.class, VarClass::Shared | VarClass::Async))
        .map(|d| (d.name.clone(), d.words()))
        .collect();
    let program = Program::compile(&expanded.code, &shared).map_err(|e| e.to_string())?;
    bytecode::compile(&program);
    Ok(())
}

#[test]
fn no_mutation_of_the_corpus_panics_the_front_end() {
    let (progress, watched) = mpsc::channel::<(String, Duration, Option<String>)>();
    let worker = std::thread::Builder::new()
        .stack_size(STACK)
        .spawn(move || {
            for (p, (name, source)) in corpus().into_iter().enumerate() {
                for n in 0..MUTATIONS_PER_PROGRAM {
                    let seed = 0x1989 + (p as u64) * MUTATIONS_PER_PROGRAM + n;
                    let mut rng = XorShift64::new(seed);
                    let id = MachineId::all()[rng.next_index(6)];
                    let (mutant, what) = mutate(source, &mut rng);
                    let label = format!("{name} mutation {n} ({what}) on {}", id.name());
                    let start = Instant::now();
                    let outcome = std::panic::catch_unwind(|| front_end(&mutant, id));
                    let panicked = outcome.is_err().then_some(mutant);
                    if progress.send((label, start.elapsed(), panicked)).is_err() {
                        return;
                    }
                }
            }
        })
        .expect("spawn the fuzz thread");

    let mut findings = Vec::new();
    let mut runs = 0u64;
    loop {
        match watched.recv_timeout(Duration::from_secs(30)) {
            Ok((label, took, panicked)) => {
                runs += 1;
                if let Some(mutant) = panicked {
                    findings.push(format!("PANIC {label}:\n{mutant}"));
                } else if took > Duration::from_secs(1) {
                    findings.push(format!("SLOW ({took:?}) {label}"));
                }
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
            Err(mpsc::RecvTimeoutError::Timeout) => {
                panic!("the front end hangs on the mutation after run {runs}")
            }
        }
    }
    worker.join().expect("the fuzz thread itself is sound");
    assert_eq!(runs, corpus().len() as u64 * MUTATIONS_PER_PROGRAM);
    assert!(
        findings.is_empty(),
        "{} finding(s):\n{}",
        findings.len(),
        findings.join("\n")
    );
}

/// The deepest the m4 engine recurses — a runaway macro, and calls nested
/// in arguments past the depth limit — ends in `RecursionLimit` inside
/// the small stack, in a debug build too.
#[test]
fn the_m4_depth_limit_fits_the_small_stack() {
    use the_force::prep::m4::{M4Error, M4};
    let nested = format!("{}x{}", "ID(".repeat(300), ")".repeat(300));
    std::thread::Builder::new()
        .stack_size(STACK)
        .spawn(move || {
            let mut m4 = M4::new();
            m4.define("LOOP", "LOOP");
            m4.define("ID", "$1");
            for runaway in ["LOOP", nested.as_str()] {
                let err = m4.expand(runaway).unwrap_err();
                assert!(matches!(err, M4Error::RecursionLimit(_)), "{err}");
            }
        })
        .expect("spawn")
        .join()
        .expect("no overflow, no panic");
}

/// Two inputs the old engine answered with a panic: a macro undefined by
/// its own arguments (now a plain name followed by parenthesised text),
/// and arithmetic past `i64` (now `BadArguments`, in a debug build too).
#[test]
fn m4_corner_cases_are_answers_not_panics() {
    use the_force::prep::m4::{M4Error, M4};
    let mut m4 = M4::new();
    let out = m4.expand("define(`A', `<$1>')A(undefine(`A')x, y) A(z)");
    assert_eq!(out.as_deref(), Ok("A(x,y) A(z)"));
    for overflow in [
        "incr(9223372036854775807)",
        "decr(-9223372036854775808)",
        "eval(9223372036854775807 + 1)",
        "eval(3037000500 * 3037000500)",
        "eval((0 - 9223372036854775807 - 1) / -1)",
    ] {
        let err = m4.expand(overflow).unwrap_err();
        assert!(
            matches!(err, M4Error::BadArguments { .. }),
            "{overflow}: {err}"
        );
        assert!(err.to_string().contains("overflow"), "{overflow}: {err}");
    }
}
