//! Randomized property tests on the in-repo [`XorShift64`] generator, so
//! the hermetic `cargo test --offline` needs no crates registry.  Seeds
//! are fixed, so every run replays the same cases; when a case fails, the
//! assertion message carries enough of the inputs to reconstruct it as a
//! plain regression test.

mod support;

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use the_force::machdep::{Machine, MachineId, Mutex, XorShift64};
use the_force::prelude::*;

/// Reference enumeration of a Fortran DO range.
fn naive_range(start: i64, last: i64, incr: i64) -> Vec<i64> {
    let mut v = Vec::new();
    let mut k = start;
    while (incr > 0 && k <= last) || (incr < 0 && k >= last) {
        v.push(k);
        k += incr;
        if v.len() > 100_000 {
            break;
        }
    }
    v
}

/// A nonzero increment in `-mag..=mag`.
fn nonzero_incr(rng: &mut XorShift64, mag: i64) -> i64 {
    let m = rng.next_i64_in(1, mag);
    if rng.next_bool() {
        m
    } else {
        -m
    }
}

/// A random string over `alphabet`, up to `max_len` chars.
fn random_string(rng: &mut XorShift64, alphabet: &[char], max_len: usize) -> String {
    let len = rng.next_index(max_len + 1);
    (0..len)
        .map(|_| alphabet[rng.next_index(alphabet.len())])
        .collect()
}

#[test]
fn force_range_matches_naive_enumeration() {
    let mut rng = XorShift64::new(1);
    for _ in 0..200 {
        let start = rng.next_i64_in(-100, 99);
        let last = rng.next_i64_in(-100, 99);
        let incr = nonzero_incr(&mut rng, 5);
        let r = ForceRange::new(start, last, incr);
        let naive = naive_range(start, last, incr);
        assert_eq!(
            r.count() as usize,
            naive.len(),
            "count mismatch for DO K = {start}, {last}, {incr}"
        );
        assert_eq!(
            r.iter().collect::<Vec<_>>(),
            naive,
            "values mismatch for DO K = {start}, {last}, {incr}"
        );
    }
}

#[test]
fn doall_executes_every_index_exactly_once() {
    let mut rng = XorShift64::new(2);
    for case in 0..24 {
        let start = rng.next_i64_in(-50, 49);
        let span = rng.next_i64_in(0, 119);
        let incr = nonzero_incr(&mut rng, 4);
        let nproc = rng.next_i64_in(1, 5) as usize;
        let chunk = rng.next_i64_in(1, 7) as u64;
        let selfsched = rng.next_bool();
        let last = if incr > 0 { start + span } else { start - span };
        let range = ForceRange::new(start, last, incr);
        let expected = naive_range(start, last, incr);
        let force = Force::new(nproc);
        let hits: Mutex<HashMap<i64, usize>> = Mutex::new(HashMap::new());
        force.run(|p| {
            let record = |i: i64| {
                *hits.lock().entry(i).or_insert(0) += 1;
            };
            if selfsched {
                p.selfsched_do_chunked(range, chunk, record);
            } else {
                p.presched_do(range, record);
            }
        });
        let hits = hits.into_inner();
        let ctx = format!(
            "case {case}: DO K = {start}, {last}, {incr} on {nproc} procs \
             (chunk {chunk}, selfsched {selfsched})"
        );
        assert_eq!(hits.len(), expected.len(), "{ctx}");
        for i in expected {
            assert_eq!(hits.get(&i), Some(&1), "index {i} in {ctx}");
        }
    }
}

#[test]
fn async_tokens_are_conserved() {
    let mut rng = XorShift64::new(3);
    let ids = [
        MachineId::Hep,
        MachineId::EncoreMultimax,
        MachineId::Cray2,
        MachineId::Flex32,
    ];
    for _ in 0..12 {
        let id = ids[rng.next_index(ids.len())];
        let pairs = rng.next_i64_in(1, 3) as usize;
        let per = rng.next_i64_in(1, 59) as u64;
        let machine = Machine::new(id);
        let chan: Async<u64> = Async::new(&machine);
        let sum = AtomicU64::new(0);
        std::thread::scope(|s| {
            for p in 0..pairs as u64 {
                let chan = &chan;
                s.spawn(move || {
                    for i in 0..per {
                        chan.produce(p * per + i + 1);
                    }
                });
            }
            for _ in 0..pairs {
                let chan = &chan;
                let sum = &sum;
                s.spawn(move || {
                    for _ in 0..per {
                        sum.fetch_add(chan.consume(), Ordering::Relaxed);
                    }
                });
            }
        });
        let total = pairs as u64 * per;
        assert_eq!(
            sum.load(Ordering::Relaxed),
            total * (total + 1) / 2,
            "{} producers x {per} tokens on {}",
            pairs,
            id.name()
        );
        assert!(!chan.is_full());
    }
}

#[test]
fn pcase_sections_run_exactly_once() {
    let mut rng = XorShift64::new(4);
    for _ in 0..24 {
        let nproc = rng.next_i64_in(1, 5) as usize;
        let nsect = rng.next_index(10);
        let selfsched = rng.next_bool();
        let force = Force::new(nproc);
        let counts: Vec<AtomicU64> = (0..nsect).map(|_| AtomicU64::new(0)).collect();
        force.run(|p| {
            let mut pc = p.pcase();
            for c in &counts {
                pc = pc.sect(|| {
                    c.fetch_add(1, Ordering::SeqCst);
                });
            }
            if selfsched {
                pc.selfsched();
            } else {
                pc.presched();
            }
        });
        for (i, c) in counts.iter().enumerate() {
            assert_eq!(
                c.load(Ordering::SeqCst),
                1,
                "section {i} of {nsect} on {nproc} procs (selfsched {selfsched})"
            );
        }
    }
}

#[test]
fn every_schedule_policy_covers_random_ranges_exactly_once() {
    // The unified distribute driver, randomized over range shape, force
    // width, and policy — the per-policy unit tests pin small fixed
    // ranges; this sweeps the space.
    let mut rng = XorShift64::new(16);
    let policies = SchedulePolicy::all();
    for case in 0..30 {
        let start = rng.next_i64_in(-50, 49);
        let span = rng.next_i64_in(0, 119);
        let incr = nonzero_incr(&mut rng, 4);
        let nproc = rng.next_i64_in(1, 6) as usize;
        let policy = policies[rng.next_index(policies.len())];
        let last = if incr > 0 { start + span } else { start - span };
        let range = ForceRange::new(start, last, incr);
        let expected = naive_range(start, last, incr);
        let force = Force::new(nproc);
        let hits: Mutex<HashMap<i64, usize>> = Mutex::new(HashMap::new());
        force.run(|p| {
            p.doall_with(policy, range, |i| {
                *hits.lock().entry(i).or_insert(0) += 1;
            });
        });
        let hits = hits.into_inner();
        let ctx =
            format!("case {case}: DO K = {start}, {last}, {incr} on {nproc} procs, {policy:?}");
        assert_eq!(hits.len(), expected.len(), "{ctx}");
        for i in expected {
            assert_eq!(hits.get(&i), Some(&1), "index {i} in {ctx}");
        }
    }
}

#[test]
fn askfor_split_trees_balance_exactly_under_stealing_on_every_machine() {
    // The deque-backed Askfor on all six machine personalities: random
    // split trees must conserve both the item count (every handler
    // invocation beyond the seeds was posted by some handler) and the
    // total value (splits conserve the sum), whatever the stealing
    // interleaving.
    let mut rng = XorShift64::new(17);
    for id in MachineId::all() {
        for _ in 0..4 {
            let nproc = rng.next_i64_in(1, 6) as usize;
            let nseeds = rng.next_i64_in(1, 4) as usize;
            let seeds: Vec<u64> = (0..nseeds).map(|_| rng.next_i64_in(1, 60) as u64).collect();
            let total: u64 = seeds.iter().sum();
            let force = Force::with_machine(nproc, Machine::new(id));
            let handled = AtomicU64::new(0);
            let posts = AtomicU64::new(0);
            let leaf_sum = AtomicU64::new(0);
            let seeds_in = seeds.clone();
            force.run(|p| {
                p.askfor(
                    || seeds_in.clone(),
                    |n, pot| {
                        handled.fetch_add(1, Ordering::SeqCst);
                        if n > 1 {
                            posts.fetch_add(2, Ordering::SeqCst);
                            pot.post(n / 2);
                            pot.post(n - n / 2);
                        } else {
                            leaf_sum.fetch_add(n, Ordering::SeqCst);
                        }
                    },
                );
                // After the construct's end barrier every process sees
                // the full accounting: posted == completed.
                assert_eq!(
                    handled.load(Ordering::SeqCst),
                    seeds_in.len() as u64 + posts.load(Ordering::SeqCst),
                    "{}: seeds {seeds_in:?} on {nproc} procs",
                    id.name()
                );
            });
            assert_eq!(
                leaf_sum.load(Ordering::SeqCst),
                total,
                "{}: seeds {seeds:?} on {nproc} procs",
                id.name()
            );
        }
    }
}

#[test]
fn askfor_processes_every_posted_item() {
    let mut rng = XorShift64::new(5);
    for _ in 0..16 {
        let nproc = rng.next_i64_in(1, 4) as usize;
        let seed = rng.next_i64_in(1, 39) as u64;
        let force = Force::new(nproc);
        let leaves = AtomicU64::new(0);
        force.run(|p| {
            p.askfor(
                || vec![seed],
                |n, pot| {
                    if n > 1 {
                        pot.post(n / 2);
                        pot.post(n - n / 2);
                    } else {
                        leaves.fetch_add(1, Ordering::Relaxed);
                    }
                },
            );
        });
        assert_eq!(
            leaves.load(Ordering::Relaxed),
            seed,
            "splitting {seed} on {nproc} procs"
        );
    }
}

#[test]
fn resolve_partitions_are_a_bijection() {
    let mut rng = XorShift64::new(6);
    for _ in 0..16 {
        let ncomp = rng.next_i64_in(1, 3) as usize;
        let sizes: Vec<usize> = (0..ncomp).map(|_| rng.next_i64_in(1, 3) as usize).collect();
        let nproc: usize = sizes.iter().sum();
        let force = Force::new(nproc);
        let seen: Mutex<Vec<(usize, usize)>> = Mutex::new(Vec::new());
        let sizes2 = sizes.clone();
        force.run(|p| {
            p.resolve(&sizes2, |c| {
                seen.lock().push((c.index(), c.rank()));
            });
        });
        let mut seen = seen.into_inner();
        seen.sort_unstable();
        let mut expected = Vec::new();
        for (ci, &s) in sizes.iter().enumerate() {
            for r in 0..s {
                expected.push((ci, r));
            }
        }
        assert_eq!(seen, expected, "component sizes {sizes:?}");
    }
}

#[test]
fn m4_quoted_text_is_preserved() {
    const ALPHABET: &[char] = &[
        'a', 'b', 'z', 'A', 'Z', '0', '9', ' ', '_', '+', '=', '.', ',', ';', ':', '-',
    ];
    let mut rng = XorShift64::new(7);
    for _ in 0..200 {
        let text = random_string(&mut rng, ALPHABET, 60);
        let mut m4 = the_force::prep::m4::M4::new();
        let src = format!("`{text}'");
        assert_eq!(m4.expand(&src).unwrap(), text, "quoting {text:?}");
    }
}

#[test]
fn m4_define_roundtrip() {
    // Uppercase names cannot collide with the lowercase builtins, and the
    // body alphabet avoids forming builtin words.
    const NAME_TAIL: &[char] = &['A', 'B', 'Q', 'Z', '0', '9', '_'];
    const BODY: &[char] = &['x', 'y', 'z', '0', '9', ' ', '+', '*', '-'];
    let mut rng = XorShift64::new(8);
    for _ in 0..200 {
        let mut name = String::from("N");
        name.push_str(&random_string(&mut rng, NAME_TAIL, 10));
        let body = random_string(&mut rng, BODY, 30);
        let mut m4 = the_force::prep::m4::M4::new();
        m4.define(&name, &body);
        assert_eq!(m4.expand(&name).unwrap(), body, "define({name}, {body:?})");
    }
}

/// A deliberately hostile alphabet: multi-byte characters, Force/m4
/// metacharacters, and plain Fortran text.  Used by the never-panic
/// sweeps below (errors are fine; panics are not).
const HOSTILE: &[char] = &[
    'A',
    'k',
    '0',
    '7',
    ' ',
    '(',
    ')',
    '=',
    '+',
    ',',
    '.',
    '*',
    '/',
    '\'',
    '"',
    '`',
    '!',
    '\u{3a3}',
    '\u{e9}',
    '\u{6f22}',
    '\u{108f0}',
];

#[test]
fn fortran_lexer_never_panics() {
    let mut rng = XorShift64::new(9);
    for _ in 0..600 {
        let line = random_string(&mut rng, HOSTILE, 60);
        let mut names = the_force::fortran::token::Names::new();
        let _ = the_force::fortran::lexer::lex_statement(&line, 1, &mut names, &mut Vec::new());
    }
}

#[test]
fn fortran_parser_never_panics() {
    let mut rng = XorShift64::new(10);
    for _ in 0..600 {
        let line = random_string(&mut rng, HOSTILE, 60);
        let mut names = the_force::fortran::token::Names::new();
        let mut toks = Vec::new();
        if the_force::fortran::lexer::lex_statement(&line, 1, &mut names, &mut toks).is_ok() {
            let _ = the_force::fortran::parser::parse_tokens(&toks, &names, 1);
        }
    }
}

#[test]
fn sed_pass_never_panics() {
    let mut rng = XorShift64::new(11);
    // The shrunk proptest counterexample seed first (a quote followed by
    // a multi-byte character), then the random sweep.
    let _ = the_force::prep::sedpass::sed_pass("\"\u{3a3}");
    for _ in 0..600 {
        let line = random_string(&mut rng, HOSTILE, 60);
        let _ = the_force::prep::sedpass::sed_pass(&line);
    }
}

#[test]
fn shared_f64_adds_are_exact_for_integers() {
    let mut rng = XorShift64::new(12);
    for _ in 0..10 {
        let nproc = rng.next_i64_in(1, 4) as usize;
        let n = rng.next_i64_in(1, 299);
        let arr = SharedF64Array::zeroed(1);
        let force = Force::new(nproc);
        force.run(|p| {
            p.selfsched_do(ForceRange::to(1, n), |_| {
                arr.add(0, 1.0);
            });
        });
        assert_eq!(arr.get(0), n as f64, "{n} adds on {nproc} procs");
    }
}

#[test]
fn barrier_algorithms_agree_with_each_other() {
    use force_machdep::spawn_force;
    use the_force::core::barrier_algs::{all_algorithms, BarrierAlg};
    let mut rng = XorShift64::new(13);
    for _ in 0..6 {
        let n = rng.next_i64_in(1, 6) as usize;
        let rounds = rng.next_i64_in(1, 14) as usize;
        let machine = Machine::new(MachineId::EncoreMultimax);
        for alg in all_algorithms(&machine, n) {
            let counter = AtomicU64::new(0);
            let alg: &dyn BarrierAlg = alg.as_ref();
            spawn_force(n, machine.stats(), |pid| {
                for r in 0..rounds {
                    counter.fetch_add(1, Ordering::SeqCst);
                    alg.wait(pid);
                    let seen = counter.load(Ordering::SeqCst);
                    assert!(
                        seen >= ((r + 1) * n) as u64,
                        "{} with {n} procs, round {r}",
                        alg.name()
                    );
                    alg.wait(pid);
                }
            });
            assert_eq!(
                counter.load(Ordering::SeqCst),
                (rounds * n) as u64,
                "{} with {n} procs",
                alg.name()
            );
        }
    }
}

#[test]
fn interpreter_sum_matches_for_random_bounds() {
    let mut rng = XorShift64::new(14);
    for _ in 0..6 {
        let start = rng.next_i64_in(1, 19);
        let last = rng.next_i64_in(1, 59);
        let nproc = rng.next_i64_in(1, 3) as usize;
        let expected: i64 = naive_range(start, last, 1).iter().sum();
        let src = format!(
            "      Force FMAIN of NP ident ME\n\
             \x20     Shared INTEGER TOTAL\n\
             \x20     Private INTEGER K\n\
             \x20     End declarations\n\
             \x20     Selfsched DO 100 K = {start}, {last}\n\
             \x20     Critical LCK\n\
             \x20     TOTAL = TOTAL + K\n\
             \x20     End critical\n\
             100   End selfsched DO\n\
             \x20     Join\n"
        );
        let out = the_force::run_force_source(&src, MachineId::Flex32, nproc).unwrap();
        assert_eq!(
            out.shared_scalar("TOTAL").unwrap().as_int(0).unwrap(),
            expected,
            "sum {start}..={last} on {nproc} procs"
        );
    }
}

#[test]
fn interpreter_do_loops_match_reference_iteration() {
    let mut rng = XorShift64::new(15);
    for _ in 0..8 {
        let from = rng.next_i64_in(-10, 10);
        let to = rng.next_i64_in(-10, 10);
        let step = nonzero_incr(&mut rng, 3);
        let mut expected = 0i64;
        let mut k = from;
        while (step > 0 && k <= to) || (step < 0 && k >= to) {
            expected += k;
            k += step;
        }
        let src = format!(
            "      Force FMAIN of NP ident ME\n\
             \x20     Shared INTEGER S\n\
             \x20     Private INTEGER K\n\
             \x20     End declarations\n\
             \x20     S = 0\n\
             \x20     DO 10 K = {from}, {to}, {step}\n\
             \x20     S = S + K\n\
             10    CONTINUE\n\
             \x20     Join\n"
        );
        let out = support::run_checked(&src, MachineId::Hep, 1);
        assert_eq!(
            out.shared_scalar("S").unwrap().as_int(0).unwrap(),
            expected,
            "DO K = {from}, {to}, {step}"
        );
    }
}

#[test]
fn random_expressions_agree_across_executors() {
    // Every random integer expression must evaluate to the Rust
    // reference value under BOTH the bytecode VM and the reference
    // interpreter (`run_checked` holds the two to each other).
    // Build a random Fortran expression over V1..V4 and evaluate it with
    // checked reference arithmetic (None = division by zero or overflow;
    // such cases are skipped).
    fn gen(rng: &mut XorShift64, depth: usize, vars: &[i64; 4]) -> (String, Option<i64>) {
        if depth == 0 || rng.next_index(3) == 0 {
            if rng.next_bool() {
                let n = rng.next_i64_in(-9, 9);
                let s = if n < 0 {
                    format!("({n})")
                } else {
                    n.to_string()
                };
                return (s, Some(n));
            }
            let i = rng.next_index(4);
            return (format!("V{}", i + 1), Some(vars[i]));
        }
        let (a, av) = gen(rng, depth - 1, vars);
        let op = rng.next_index(9);
        if op == 7 {
            return (format!("(-{a})"), av.and_then(i64::checked_neg));
        }
        if op == 8 {
            return (format!("ABS({a})"), av.and_then(i64::checked_abs));
        }
        let (b, bv) = gen(rng, depth - 1, vars);
        let v = match (av, bv) {
            (Some(x), Some(y)) => match op {
                0 => x.checked_add(y),
                1 => x.checked_sub(y),
                2 => x.checked_mul(y),
                3 => (y != 0).then(|| x.checked_div(y)).flatten(),
                4 => (y != 0).then(|| x.checked_rem(y)).flatten(),
                5 => Some(x.min(y)),
                _ => Some(x.max(y)),
            },
            _ => None,
        };
        let s = match op {
            0 => format!("({a} + {b})"),
            1 => format!("({a} - {b})"),
            2 => format!("({a} * {b})"),
            3 => format!("({a} / {b})"),
            4 => format!("MOD({a}, {b})"),
            5 => format!("MIN({a}, {b})"),
            _ => format!("MAX({a}, {b})"),
        };
        (s, v)
    }

    let mut rng = XorShift64::new(17);
    let mut compared = 0;
    for _ in 0..120 {
        let vars = [
            rng.next_i64_in(-9, 9),
            rng.next_i64_in(-9, 9),
            rng.next_i64_in(-9, 9),
            rng.next_i64_in(-9, 9),
        ];
        let (e, v) = gen(&mut rng, 3, &vars);
        let Some(expected) = v else { continue };
        let src = format!(
            "      Force FMAIN of NP ident ME\n\
             \x20     Shared INTEGER R\n\
             \x20     Private INTEGER V1, V2, V3, V4\n\
             \x20     End declarations\n\
             \x20     V1 = {}\n\
             \x20     V2 = {}\n\
             \x20     V3 = {}\n\
             \x20     V4 = {}\n\
             \x20     R = {e}\n\
             \x20     Join\n",
            vars[0], vars[1], vars[2], vars[3],
        );
        let out = support::run_checked(&src, MachineId::Cray2, 1);
        assert_eq!(
            out.shared_scalar("R").unwrap().as_int(0).unwrap(),
            expected,
            "expr {e} with V = {vars:?}"
        );
        compared += 1;
    }
    assert!(compared > 40, "only {compared} comparable cases generated");
}

#[test]
fn relational_operators_match_reference() {
    // All six comparisons folded into one mask per (A, B), exhaustively
    // over -20..=20 x -20..=20, in one program under both executors.
    let src = "\
      Force FMAIN of NP ident ME
      Shared INTEGER MASK(41, 41)
      Private INTEGER A, B, M
      End declarations
      DO 20 A = -20, 20
      DO 10 B = -20, 20
      M = 0
      IF (A .EQ. B) M = M + 1
      IF (A .NE. B) M = M + 2
      IF (A .LT. B) M = M + 4
      IF (A .LE. B) M = M + 8
      IF (A .GT. B) M = M + 16
      IF (A .GE. B) M = M + 32
      MASK(A + 21, B + 21) = M
10    CONTINUE
20    CONTINUE
      Join
";
    let out = support::run_checked(src, MachineId::Flex32, 1);
    let mask = &out.shared_values["MASK"];
    for a in -20i64..=20 {
        for b in -20i64..=20 {
            let expected = i64::from(a == b)
                + 2 * i64::from(a != b)
                + 4 * i64::from(a < b)
                + 8 * i64::from(a <= b)
                + 16 * i64::from(a > b)
                + 32 * i64::from(a >= b);
            // column-major: MASK(a+21, b+21)
            let at = ((a + 20) + (b + 20) * 41) as usize;
            assert_eq!(mask[at].as_int(0).unwrap(), expected, "A={a} B={b}");
        }
    }
}
