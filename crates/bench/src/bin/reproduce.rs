//! The reproduction harness: one table per experiment in EXPERIMENTS.md.
//!
//! ```sh
//! cargo run --release -p force-bench --bin reproduce            # all
//! cargo run --release -p force-bench --bin reproduce -- exp3   # one
//! cargo run --release -p force-bench --bin reproduce -- --smoke exp21   # CI scale
//! ```
//!
//! An unknown experiment name or flag runs nothing and exits 2.  EXP-15
//! to EXP-21 each write a `BENCH_*.json` artifact, which is rendered,
//! parsed back and checked (`force_bench::checks`) *before* it is written;
//! a failed check exits 1 and leaves no file.
//!
//! Wall-clock numbers depend on the host (and are nearly flat on a
//! single-core machine); the *shapes* described in EXPERIMENTS.md are the
//! reproduction targets.  Simulated-cycle and operation-count columns are
//! host-independent, and from EXP-15 on they are all a table holds:
//! serving-path rates and percentiles are `benchmark/run.sh`'s, which
//! measures them with noise bounds.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use force_bench::json::Json;
use force_bench::workloads::{
    askfor_split, busy_work, matmul_checksum, run_doall, static_split, triangular_cost,
    uniform_cost, Schedule,
};
use force_bench::{checks, fmt_dur, median_time, obj};
use force_core::barrier_algs::all_algorithms;
use force_core::prelude::*;
use force_machdep::{spawn_force, LockHandle, LockState, OpStats};
use the_force::{compile_force_source, run_force_source};

/// Which of the two parameter sets an experiment runs with: the
/// EXPERIMENTS.md defaults, or the reduced set CI runs (`--smoke`).
#[derive(Clone, Copy)]
enum Scale {
    Full,
    Smoke,
}

struct Experiment {
    name: &'static str,
    title: &'static str,
    run: fn(Scale),
}

/// One row per experiment; the name on the command line is the name of
/// the function, so the two cannot drift apart.
macro_rules! experiments {
    ($($run:ident: $title:literal,)*) => {
        &[$(Experiment { name: stringify!($run), title: $title, run: $run }),*]
    };
}

const EXPERIMENTS: &[Experiment] = experiments! {
    exp1: "the §4.2 Selfsched DO macro expansion (golden listing)",
    exp2: "six-machine portability matrix",
    exp3: "barrier algorithms ([AJ87] companion), ns per episode",
    exp4: "presched vs selfsched DOALL, uniform vs triangular load",
    exp5: "lock taxonomy (§4.1.3): spin vs syscall vs combined",
    exp6: "Produce/Consume: hardware full/empty vs two locks",
    exp7: "speedup and nproc-independence (matmul 64x64)",
    exp8: "Askfor vs static distribution on a run-time work tree",
    exp9: "Pcase presched vs selfsched, skewed section costs",
    exp10: "Encore page padding (§4.1.2): false-sharing ablation",
    exp11: "scarce locks (Cray-2): K logical locks on an 8-slot pool",
    exp12: "Resolve (the paper's future-work construct), ablation",
    exp13: "fault containment: cancellation, watchdog, injection",
    exp15: "construct tracing: the merged six-machine Chrome trace",
    exp16: "unified scheduling plane: six policies on uniform and skewed DOALLs",
    exp18: "force-as-a-service: a 4x overload burst, shed and deadline-killed",
    exp19: "parking layer: one job on both backends, and a wide force on few workers",
    exp20: "virtual time: deterministic speedup curves on six machines",
    exp21: "sharded serving: what 2 and 4 shards sustain against 1",
};

fn main() {
    let mut scale = Scale::Full;
    let mut which: Vec<String> = Vec::new();
    for arg in std::env::args().skip(1) {
        if arg == "--smoke" {
            scale = Scale::Smoke;
        } else if arg == "all" || EXPERIMENTS.iter().any(|e| e.name == arg) {
            which.push(arg);
        } else {
            let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
            eprintln!("reproduce: unknown argument `{arg}`");
            eprintln!("usage: reproduce [--smoke] [all | expN ...]");
            eprintln!("experiments: {}", names.join(" "));
            std::process::exit(2);
        }
    }
    let all = which.is_empty() || which.iter().any(|w| w == "all");
    println!("The Force (ICPP 1989) — reproduction harness");
    println!("host parallelism: {} core(s)\n", host_cores());
    for e in EXPERIMENTS {
        if all || which.iter().any(|w| w == e.name) {
            println!("\n================================================================");
            println!("EXP-{}: {}", &e.name[3..], e.title);
            println!("================================================================");
            (e.run)(scale);
        }
    }
}

fn host_cores() -> usize {
    force_machdep::default_nproc()
}

/// [`force_bench::write_artifact`] into the working directory; a failure
/// ends the run with exit status 1 and no file.
fn write_artifact(name: &str, doc: &Json, check: impl Fn(&Json) -> Result<(), String>) {
    if let Err(e) = force_bench::write_artifact(name.as_ref(), doc, check) {
        eprintln!("reproduce: {name} NOT written: {e}");
        std::process::exit(1);
    }
    println!("\nwrote {name} (parsed back and checked)");
}

/// Yield until `ready()`, or give up after 5 s: a bound only a server
/// that stopped making progress reaches, whose artifact check then refuses
/// the counts it left.
fn hold_until(ready: impl Fn() -> bool) {
    use std::time::{Duration, Instant};
    let give_up = Instant::now() + Duration::from_secs(5);
    while !ready() && Instant::now() < give_up {
        std::thread::yield_now();
    }
}

// ---------------------------------------------------------------- EXP-1

fn exp1(_: Scale) {
    let src = "\
      Force FMAIN of NP ident ME
      Private INTEGER K
      End declarations
      Selfsched DO 100 K = START, LAST, INCR
C LOOPBODY
100   End Selfsched DO
      Join
";
    let p = the_force::prep::preprocess(src, MachineId::EncoreMultimax).expect("preprocess");
    let start = p.intermediate.find("C loop entry code").unwrap();
    let end = p.intermediate[start..]
        .find("      RETURN")
        .map(|e| start + e)
        .unwrap_or(p.intermediate.len());
    println!("{}", &p.intermediate[start..end]);
    println!("(machine-independent intermediate form; level 2 then maps");
    println!(" lock/unlock onto each machine's vendor primitive)");
}

// ---------------------------------------------------------------- EXP-2

fn exp2(_: Scale) {
    let programs: &[(&str, &str, i64)] = &[
        (
            "selfsched-sum",
            "\
      Force FMAIN of NP ident ME
      Shared INTEGER R
      Private INTEGER K
      End declarations
      Selfsched DO 100 K = 1, 100
      Critical L
      R = R + K
      End critical
100   End selfsched DO
      Join
",
            5050,
        ),
        (
            "barrier-pcase",
            "\
      Force FMAIN of NP ident ME
      Shared INTEGER R
      End declarations
      Barrier
      R = 1
      End barrier
      Pcase
      Usect
      R = R + 10
      Usect
      R = R + 100
      End pcase
      Join
",
            111,
        ),
        (
            "produce-consume",
            "\
      Force FMAIN of NP ident ME
      Shared INTEGER R
      Async INTEGER CH
      Private INTEGER T
      End declarations
      IF (ME .EQ. 0) THEN
      Produce CH = 42
      END IF
      IF (ME .EQ. NP - 1) THEN
      Consume CH into T
      R = T
      END IF
      Join
",
            42,
        ),
    ];
    println!(
        "{:<18} {:<16} {:>8} {:>8} {:>9} {:>10} {:>12}",
        "machine", "program", "result", "locks", "syscalls", "full/empty", "sim cycles"
    );
    for id in MachineId::all() {
        for (name, src, expected) in programs {
            let out = run_force_source(src, id, 4).expect("run");
            let got = out.shared_scalar("R").unwrap().as_int(0).unwrap();
            let verdict = if got == *expected { "PASS" } else { "FAIL" };
            println!(
                "{:<18} {:<16} {:>8} {:>8} {:>9} {:>10} {:>12}",
                id.name(),
                name,
                verdict,
                out.stats.lock_acquires,
                out.stats.syscalls,
                out.stats.fe_produces + out.stats.fe_consumes,
                out.cycles
            );
            assert_eq!(got, *expected, "{} {name}", id.name());
        }
    }
    println!("\nport differences (driver excerpts):");
    let src = programs[0].1;
    for id in MachineId::all() {
        let (exp, _) = compile_force_source(src, id).unwrap();
        let lock_line = exp
            .code
            .lines()
            .find(|l| l.contains("CALL ZZ") && l.contains("(BARWIN)") && !l.contains("INIT"))
            .unwrap_or("")
            .trim()
            .to_string();
        let spawn_line = exp
            .code
            .lines()
            .find(|l| l.contains("CALL ZZF") || l.contains("CALL ZZS"))
            .map(|l| l.trim().to_string())
            .unwrap_or_default();
        println!("  {:<18} {:<26} {}", id.name(), lock_line, spawn_line);
    }
}

// ---------------------------------------------------------------- EXP-3

fn exp3(_: Scale) {
    let episodes = 500u64;
    print!("{:<34}", "algorithm \\ nproc");
    let nprocs = [1usize, 2, 4, 8];
    for n in nprocs {
        print!("{n:>12}");
    }
    println!();
    let machine = Machine::new(MachineId::EncoreMultimax);
    for alg_idx in 0..6 {
        let mut row = String::new();
        let mut name = String::new();
        for n in nprocs {
            let algs = all_algorithms(&machine, n);
            let alg = &algs[alg_idx];
            name = alg.name().to_string();
            let t = median_time(3, || {
                spawn_force(n, machine.stats(), |pid| {
                    for _ in 0..episodes {
                        alg.wait(pid);
                    }
                });
            });
            row.push_str(&format!("{:>12}", t.as_nanos() as u64 / episodes));
        }
        println!("{name:<34}{row}");
    }
    println!("(expected shape, where every process has a core: log-depth barriers");
    println!(" flatten with nproc; counter/two-lock grow roughly linearly under");
    println!(
        " contention.  This host has {} core(s): wider columns time oversubscription)",
        host_cores()
    );
}

// ---------------------------------------------------------------- EXP-4

fn exp4(_: Scale) {
    let n = 2_000i64;
    let nproc = 4;
    let force = Force::new(nproc);
    println!("{:<24} {:>14} {:>14}", "schedule", "uniform", "triangular");
    for sched in [
        Schedule::Presched,
        Schedule::PreschedBlock,
        Schedule::SelfSched,
        Schedule::SelfSchedChunk(16),
    ] {
        let tu = median_time(3, || {
            run_doall(&force, n, uniform_cost, 16, sched);
        });
        let tt = median_time(3, || {
            run_doall(&force, n, triangular_cost, 16, sched);
        });
        println!(
            "{:<24} {:>14} {:>14}",
            sched.name(),
            fmt_dur(tu),
            fmt_dur(tt)
        );
    }
    println!("(expected shape: presched wins slightly on cheap uniform bodies");
    println!(" — no index service — while selfsched wins under skew;");
    println!(" block presched is worst under triangular skew)");
}

// ---------------------------------------------------------------- EXP-5

fn exp5(_: Scale) {
    let nthreads = 4;
    let acquisitions = 500u64;
    println!(
        "{:<12} {:>14} {:>14} {:>14}   (4 threads x {} acquisitions)",
        "lock", "hold=0", "hold=64", "hold=1024", acquisitions
    );
    let stats = Arc::new(OpStats::new());
    for kind in ["spin", "syscall", "combined", "fullempty"] {
        let mut cols = Vec::new();
        for hold in [0u64, 64, 1024] {
            let lock: LockHandle = match kind {
                "spin" => Arc::new(force_machdep::spin::SpinLock::new(
                    LockState::Unlocked,
                    Arc::clone(&stats),
                )),
                "syscall" => Arc::new(force_machdep::syscall_lock::SyscallLock::new(
                    LockState::Unlocked,
                    Arc::clone(&stats),
                )),
                "combined" => Arc::new(force_machdep::combined::CombinedLock::new(
                    LockState::Unlocked,
                    Arc::clone(&stats),
                )),
                _ => Arc::new(force_machdep::fullempty::HepLock::new(
                    LockState::Unlocked,
                    Arc::clone(&stats),
                )),
            };
            let t = median_time(3, || {
                std::thread::scope(|s| {
                    for _ in 0..nthreads {
                        let lock = Arc::clone(&lock);
                        s.spawn(move || {
                            for _ in 0..acquisitions {
                                lock.lock();
                                busy_work(hold);
                                lock.unlock();
                            }
                        });
                    }
                });
            });
            cols.push(fmt_dur(t));
        }
        println!(
            "{:<12} {:>14} {:>14} {:>14}",
            kind, cols[0], cols[1], cols[2]
        );
    }
    println!("(expected shape: spin cheapest for short holds, syscall locks");
    println!(" amortize for long holds, combined tracks the better of the two)");
}

// ---------------------------------------------------------------- EXP-6

fn exp6(_: Scale) {
    let transfers = 5_000u64;
    println!(
        "{:<18} {:<26} {:>14} {:>16}",
        "machine", "mechanism", "time", "lock ops/transfer"
    );
    for id in [
        MachineId::Hep,
        MachineId::EncoreMultimax,
        MachineId::Flex32,
        MachineId::Cray2,
    ] {
        let machine = Machine::new(id);
        let before = machine.stats().snapshot();
        let t = median_time(3, || {
            let chan: Async<u64> = Async::new(&machine);
            std::thread::scope(|s| {
                s.spawn(|| {
                    for i in 0..transfers {
                        chan.produce(i);
                    }
                });
                s.spawn(|| {
                    for _ in 0..transfers {
                        std::hint::black_box(chan.consume());
                    }
                });
            });
        });
        let after = machine.stats().snapshot().since(&before);
        let mech = if machine.spec().hardware_fullempty {
            "hardware full/empty"
        } else {
            "two-lock emulation (§4.2)"
        };
        let ops =
            (after.lock_acquires + after.lock_releases + after.fe_produces + after.fe_consumes)
                as f64
                / (4.0 * transfers as f64); // 4 timed runs incl warmup
        println!(
            "{:<18} {:<26} {:>14} {:>16.2}",
            id.name(),
            mech,
            fmt_dur(t),
            ops
        );
    }
    println!("(expected shape: 1 produce + 1 consume = 2 hardware ops on the");
    println!(" HEP vs 2 lock + 2 unlock operations on every other machine)");
}

// ---------------------------------------------------------------- EXP-7

fn exp7(_: Scale) {
    let n = 64;
    let machine = Machine::new(MachineId::AlliantFx8);
    let base = matmul_checksum(n, 1, Arc::clone(&machine));
    println!(
        "{:<8} {:>14} {:>10} {:>10}",
        "nproc", "time", "speedup", "result"
    );
    let t1 = median_time(3, || {
        matmul_checksum(n, 1, Arc::clone(&machine));
    });
    for nproc in [1usize, 2, 4, 8] {
        let mut ok = true;
        let t = median_time(3, || {
            ok &= matmul_checksum(n, nproc, Arc::clone(&machine)) == base;
        });
        println!(
            "{:<8} {:>14} {:>10.2} {:>10}",
            nproc,
            fmt_dur(t),
            t1.as_secs_f64() / t.as_secs_f64(),
            if ok { "exact" } else { "DIFFERS" }
        );
    }
    println!("(expected shape: an identical checksum at every force size,");
    println!(" unconditionally.  The speedup column approaches nproc only where");
    println!(" every process has a core and the product outweighs creating the");
    println!(" force — this host has {} core(s))", host_cores());
}

// ---------------------------------------------------------------- EXP-8

fn exp8(_: Scale) {
    let force = Force::new(4);
    println!("{:<10} {:>14} {:>14}", "tree size", "askfor", "static");
    for seed in [128u64, 1024] {
        let ta = median_time(3, || {
            assert_eq!(askfor_split(&force, seed, 64), seed);
        });
        let ts = median_time(3, || {
            assert_eq!(static_split(&force, seed, 64), seed);
        });
        println!("{:<10} {:>14} {:>14}", seed, fmt_dur(ta), fmt_dur(ts));
    }
    println!("(static needs the tree size in advance — available here only");
    println!(" because the workload is synthetic; Askfor discovers it at run");
    println!(" time for the same order of cost)");
}

// ---------------------------------------------------------------- EXP-9

fn exp9(_: Scale) {
    let force = Force::new(4);
    let uniform: Vec<u64> = vec![500; 12];
    let mut skewed: Vec<u64> = vec![100; 12];
    skewed[0] = 5_000;
    println!("{:<12} {:>14} {:>14}", "pcase", "uniform", "skewed");
    for (name, selfsched) in [("presched", false), ("selfsched", true)] {
        let mut cols = Vec::new();
        for costs in [&uniform, &skewed] {
            let t = median_time(3, || {
                force.run(|p| {
                    let mut pc = p.pcase();
                    for &cost in costs.iter() {
                        pc = pc.sect(move || {
                            busy_work(cost);
                        });
                    }
                    if selfsched {
                        pc.selfsched();
                    } else {
                        pc.presched();
                    }
                });
            });
            cols.push(fmt_dur(t));
        }
        println!("{:<12} {:>14} {:>14}", name, cols[0], cols[1]);
    }
    println!("(expected shape: equal on uniform sections; selfsched wins when");
    println!(" one section dominates, because the owner of the big section");
    println!(" is not also forced to take a fixed share of the rest)");
}

// ---------------------------------------------------------------- EXP-10

fn exp10(_: Scale) {
    use force_machdep::CachePadded;
    let nthreads = 4;
    let increments = 200_000u64;
    let unpadded: Vec<AtomicU64> = (0..nthreads).map(|_| AtomicU64::new(0)).collect();
    let tu = median_time(3, || {
        std::thread::scope(|s| {
            for c in unpadded.iter() {
                s.spawn(move || {
                    for _ in 0..increments {
                        c.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
    });
    let padded: Vec<CachePadded<AtomicU64>> = (0..nthreads)
        .map(|_| CachePadded::new(AtomicU64::new(0)))
        .collect();
    let tp = median_time(3, || {
        std::thread::scope(|s| {
            for c in padded.iter() {
                s.spawn(move || {
                    for _ in 0..increments {
                        c.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
    });
    println!("{:<24} {:>14}", "layout", "time");
    println!("{:<24} {:>14}", "adjacent words", fmt_dur(tu));
    println!("{:<24} {:>14}", "padded (Force layout)", fmt_dur(tp));
    // And the layout arithmetic itself, per machine:
    println!("\nper-machine layout of 3 shared blocks of 5 words each:");
    for id in MachineId::all() {
        let m = Machine::new(id);
        let blocks = vec![
            force_machdep::BlockRequest::new("A", 5),
            force_machdep::BlockRequest::new("B", 5),
            force_machdep::BlockRequest::new("C", 5),
        ];
        let l = m.sharing_model().layout(&blocks);
        match l {
            Ok(l) => println!(
                "  {:<18} total {:>5} words, padding {:>5} words",
                id.name(),
                l.total_words,
                l.padding_words
            ),
            Err(e) => println!("  {:<18} ({e})", id.name()),
        }
    }
    println!("(expected shape: padding removes false sharing on multi-core");
    println!(" hosts; Encore pads front+back, Alliant aligns every block,");
    println!(" Sequent refuses layout before its link pass)");
}

// ---------------------------------------------------------------- EXP-11

fn exp11(_: Scale) {
    use force_machdep::lockpool::{LockFactory, LockPool};
    let nthreads = 4;
    let rounds = 1_000u64;
    let capacity = 8;
    println!(
        "{:<12} {:>10} {:>14} {:>12}",
        "K logical", "aliased", "time", "contended"
    );
    for logical in [8usize, 16, 32, 64] {
        let stats = Arc::new(OpStats::new());
        let st = Arc::clone(&stats);
        let factory: LockFactory = Arc::new(move |init| {
            Arc::new(force_machdep::syscall_lock::SyscallLock::new(
                init,
                Arc::clone(&st),
            )) as LockHandle
        });
        let pool = LockPool::new(capacity, factory, Arc::clone(&stats));
        let locks: Vec<LockHandle> = (0..logical)
            .map(|_| pool.allocate(LockState::Unlocked))
            .collect();
        let before = stats.snapshot();
        let t = median_time(3, || {
            std::thread::scope(|s| {
                for t in 0..nthreads {
                    let locks = &locks;
                    s.spawn(move || {
                        for r in 0..rounds {
                            let l = &locks[(t + r as usize * nthreads) % logical];
                            l.lock();
                            std::hint::black_box(r);
                            l.unlock();
                        }
                    });
                }
            });
        });
        let after = stats.snapshot().since(&before);
        println!(
            "{:<12} {:>10} {:>14} {:>12}",
            logical,
            before.locks_aliased,
            fmt_dur(t),
            after.lock_contended
        );
    }
    println!("(expected shape: once K exceeds the pool, K - 8 logically disjoint");
    println!(" locks alias a slot another holds, and — where the threads have");
    println!(" cores to collide on — contend: \"some parallel programs may not");
    println!(" execute as efficiently as others if a large number of");
    println!(" asynchronous variables are needed\")");
}

// ---------------------------------------------------------------- EXP-12

fn exp12(_: Scale) {
    let nproc = 4;
    let rounds = 300usize;
    // Partitioned: one I/O-ish process, three compute processes with a
    // component-local barrier per round.
    let machine = Machine::new(MachineId::Flex32);
    let force = Force::with_machine(nproc, Arc::clone(&machine));
    let before = machine.stats().snapshot();
    let tr = median_time(3, || {
        force.run(|p| {
            p.resolve(&[1, 3], |c| {
                if c.index() == 1 {
                    for _ in 0..rounds {
                        busy_work(32);
                        c.barrier();
                    }
                } else {
                    busy_work(32 * rounds as u64);
                }
            });
        });
    });
    let mid = machine.stats().snapshot();
    // Whole force: everyone meets at the full barrier each round.
    let tw = median_time(3, || {
        force.run(|p| {
            for _ in 0..rounds {
                busy_work(32);
                p.barrier();
            }
        });
    });
    let after = machine.stats().snapshot();
    let resolve_eps = mid.since(&before).barrier_episodes;
    let whole_eps = after.since(&mid).barrier_episodes;
    println!(
        "{:<28} {:>14} {:>20}",
        "structure", "time", "barrier episodes"
    );
    println!(
        "{:<28} {:>14} {:>20}",
        "resolve [1,3] (local bar.)",
        fmt_dur(tr),
        resolve_eps
    );
    println!(
        "{:<28} {:>14} {:>20}",
        "whole force (full barrier)",
        fmt_dur(tw),
        whole_eps
    );
    println!("(expected shape: the component barrier synchronizes 3 processes");
    println!(" instead of 4 and never blocks on the unrelated component)");
}

// ---------------------------------------------------------------- EXP-13

fn exp13(_: Scale) {
    use std::time::{Duration, Instant};
    // The deliberate panics below are the experiment; keep the default
    // hook from spraying backtraces over the table.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    println!(
        "{:<18} {:<22} {:<10} {:>10}   {:>8} {:>8} {:>8} {:>8}",
        "machine", "scenario", "construct", "contained", "inj", "det", "cancel", "wdog"
    );
    for id in MachineId::all() {
        let machine = Machine::new(id);
        let row = |scenario: &str, fault: Option<(ProcessFault, Duration)>| {
            let s = machine.stats().snapshot();
            match fault {
                Some((f, dt)) => println!(
                    "{:<18} {:<22} {:<10} {:>10}   {:>8} {:>8} {:>8} {:>8}",
                    id.name(),
                    scenario,
                    f.construct,
                    fmt_dur(dt),
                    s.faults_injected,
                    s.faults_detected,
                    s.cancellations_observed,
                    s.watchdog_trips
                ),
                None => println!(
                    "{:<18} {:<22} {:<10} {:>10}   {:>8} {:>8} {:>8} {:>8}",
                    id.name(),
                    scenario,
                    "-",
                    "no fault",
                    s.faults_injected,
                    s.faults_detected,
                    s.cancellations_observed,
                    s.watchdog_trips
                ),
            }
        };

        // 1. A panic while peers park at a barrier: cancellation must
        //    unblock them well inside the watchdog bound.
        let force =
            Force::with_machine(4, Arc::clone(&machine)).with_watchdog(Duration::from_secs(5));
        let t0 = Instant::now();
        let f = force
            .try_run(|p| {
                if p.pid() == 0 {
                    panic!("exp13: deliberate panic");
                }
                p.barrier();
            })
            .expect_err("must fault");
        row("panic at barrier", Some((f, t0.elapsed())));

        // 2. A true deadlock (consume, no producer): only the watchdog
        //    can report this one.
        let force =
            Force::with_machine(2, Arc::clone(&machine)).with_watchdog(Duration::from_millis(100));
        let chan: Async<i64> = Async::new(&machine);
        let t0 = Instant::now();
        let f = force
            .try_run(|_p| {
                let _ = chan.consume();
            })
            .expect_err("must trip");
        row("consume, no producer", Some((f, t0.elapsed())));

        // 3. Deterministic injection at construct boundaries.
        let force =
            Force::with_machine(4, Arc::clone(&machine)).with_fault_injection(FaultInjection {
                seed: 0xF0CE,
                panic_per_mille: 250,
                delay_per_mille: 0,
                spurious_per_mille: 250,
            });
        let t0 = Instant::now();
        let f = force.try_run(|p| {
            for _ in 0..8 {
                p.barrier();
            }
        });
        row("injected faults", f.err().map(|f| (f, t0.elapsed())));
    }
    std::panic::set_hook(prev_hook);
    println!("(expected shape: every fault is contained — a structured error,");
    println!(" never a hang; counters are cumulative per machine instance:");
    println!(" inj=faults injected, det=faults detected, cancel=cancellations");
    println!(" observed by parked peers, wdog=watchdog trips)");
}

// ---------------------------------------------------------------- EXP-15

fn exp15(_: Scale) {
    let nproc = 4;
    let trips = 64u64;
    // A job that passes every trace hook: an uneven prescheduled DOALL, a
    // named critical section, and a barrier.
    let job = |p: &Player| {
        p.presched_do(ForceRange::to(1, trips as i64), |i| {
            busy_work(4 + (i as u64 & 7));
        });
        p.critical("HOT", || {
            busy_work(8);
        });
        p.barrier();
    };
    let traced = RunOptions {
        trace: Some(TraceConfig::default()),
        ..RunOptions::default()
    };
    println!(
        "{:<18} {:>11} {:>13} {:>14} {:>8} {:>8}",
        "machine", "doall trips", "HOT acquires", "barrier spans", "events", "dropped"
    );
    let mut rows = Vec::new();
    let mut merged = String::new();
    for (mi, id) in MachineId::all().into_iter().enumerate() {
        let machine = Machine::new(id);
        let pool = Arc::new(ForcePool::new(nproc, machine.stats()));
        let session = Force::with_machine(nproc, machine).with_pool(pool);
        // A resident session resets its sink between jobs: the second
        // job's profile must hold that job alone.
        for _ in 0..2 {
            session.try_execute_with(traced, job).expect("traced job");
        }
        let profile = session.last_job_profile().expect("the job was traced");
        let doall_trips: u64 = profile.doall_trips.iter().sum();
        let hot_acquires = profile.named_lock("HOT").map_or(0, |l| l.acquires);
        let barrier_spans = profile.construct("barrier").map_or(0, |c| c.enters);
        println!(
            "{:<18} {:>11} {:>13} {:>14} {:>8} {:>8}",
            id.name(),
            doall_trips,
            hot_acquires,
            barrier_spans,
            profile.events.len(),
            profile.dropped_events,
        );
        // One process per machine in the merged trace; `tid` inside is
        // the force pid.
        profile.push_chrome_events(&mut merged, mi, id.name());
        rows.push(obj! {
            "machine": id.name(),
            "doall_trips": doall_trips,
            "critical_acquires": hot_acquires,
            "barrier_spans": barrier_spans,
            "events": profile.events.len(),
            "dropped_events": profile.dropped_events,
        });
    }

    // Machine-readable artifact: a Chrome trace_event object (loadable
    // in chrome://tracing / Perfetto, which ignore the extra keys) that
    // also carries the table.  The exporter hands over event text; the
    // strict parser is what admits it into the document.
    let events = Json::parse(&format!("[{merged}]")).expect("exported trace events parse");
    let doc = obj! {
        "traceEvents": events,
        "otherData": obj! {
            "experiment": "EXP-15",
            "nproc": nproc,
            "trips": trips,
            "host_cores": host_cores(),
            "machines": rows,
        },
    };
    write_artifact("BENCH_trace.json", &doc, checks::trace);
    println!("(expected shape: on every personality the profile of one job holds");
    println!(" that job exactly — {trips} DOALL trips, and per process one HOT");
    println!(" acquisition and two barrier spans, the DOALL's closing one and the");
    println!(" statement; nothing dropped — and the merged trace has one process");
    println!(" per machine with balanced begin/end spans; what tracing costs is");
    println!(" benchmark/'s `trace.overhead_share`)");
}

// ---------------------------------------------------------------- EXP-16

fn exp16(scale: Scale) {
    let (trips, reps): (i64, usize) = match scale {
        Scale::Full => (2048, 3),
        Scale::Smoke => (256, 1),
    };
    let (cost_scale, nproc) = (48u64, 4usize);
    let schedules = Schedule::all();
    println!("trips={trips} scale={cost_scale} nproc={nproc} reps={reps}\n");
    print!("{:<18} {:<8}", "machine", "workload");
    for s in &schedules {
        print!(" {:>14}", s.policy().name());
    }
    println!();

    let mut rows = Vec::new();
    let mut winners = 0usize;
    for id in MachineId::all() {
        let machine = Machine::new(id);
        let force = Force::with_machine(nproc, Arc::clone(&machine));
        let mut workloads = Vec::new();
        let mut skew_selfsched = 0u128;
        let mut skew_dynamic_best = u128::MAX;
        for (wname, cost) in [
            ("uniform", uniform_cost as fn(i64, u64) -> u64),
            ("skewed", triangular_cost as fn(i64, u64) -> u64),
        ] {
            print!("{:<18} {:<8}", id.name(), wname);
            let mut times = Vec::new();
            let mut checksum = None;
            for s in &schedules {
                let got = run_doall(&force, trips, cost, cost_scale, *s);
                match checksum {
                    None => checksum = Some(got),
                    Some(want) => assert_eq!(
                        got,
                        want,
                        "{}: {wname} checksum diverges under {}",
                        id.name(),
                        s.name()
                    ),
                }
                let t = median_time(reps, || {
                    run_doall(&force, trips, cost, cost_scale, *s);
                })
                .as_nanos();
                if wname == "skewed" {
                    match s {
                        Schedule::SelfSched => skew_selfsched = t,
                        Schedule::Guided(_) | Schedule::Steal => {
                            skew_dynamic_best = skew_dynamic_best.min(t)
                        }
                        _ => {}
                    }
                }
                print!(
                    " {:>14}",
                    fmt_dur(std::time::Duration::from_nanos(t as u64))
                );
                times.push(obj! { "policy": s.policy().name(), "ns": t as u64 });
            }
            println!();
            workloads.push(obj! { "workload": wname, "policies": times });
        }
        let snap = machine.stats().snapshot();
        let speedup = skew_selfsched as f64 / skew_dynamic_best as f64;
        if speedup > 1.0 {
            winners += 1;
        }
        rows.push(obj! {
            "machine": id.name(),
            "steals": snap.steals,
            "steal_attempts_failed": snap.steal_attempts_failed,
            "skewed_speedup_vs_selfsched": Json::fixed(speedup, 3),
            "workloads": workloads,
        });
    }
    println!(
        "\nguided/steal beats one-trip selfsched on the skewed loop on {winners} of {} machines",
        rows.len()
    );

    let doc = obj! {
        "trips": trips as u64,
        "scale": cost_scale,
        "nproc": nproc,
        "reps": reps,
        "host_cores": host_cores(),
        "machines_where_guided_or_steal_wins_skewed": winners,
        "machines": rows,
    };
    write_artifact("BENCH_sched.json", &doc, checks::sched);
    println!("(expected shape: every policy covers every trip — equal checksums");
    println!(" per workload.  With a core per process the static policies win the");
    println!(" uniform loop on locking cost and guided or steal beats one-trip");
    println!(" selfscheduling on the skewed one, by amortizing claims without");
    println!(" losing balance; the count above says where that showed here)");
}

// ---------------------------------------------------------------- EXP-18

fn exp18(scale: Scale) {
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;
    use the_force::machdep::{
        ForceServer, JobRunner, JobSpec, Priority, RunOptions, ServerConfig, StatsSnapshot, Submit,
    };
    let burst: usize = match scale {
        Scale::Full => 320,
        Scale::Smoke => 160,
    };
    let watermark = 24usize;
    let nproc = 4usize;
    // Overload by count, on any host: four arrivals per job the server
    // starts.  The `k`-th job to start holds until `allowed(k)` jobs have
    // arrived, and job `j` arrives once `j < allowed(started)`; the first
    // holds until more than a watermark is queued behind it, so the
    // dequeue after it must shed.
    let allowed = move |k: usize| (watermark + 2 + 4 * k).min(burst);
    let deadline = Duration::from_millis(5);

    println!("burst={burst} watermark={watermark} nproc={nproc}\n");
    println!(
        "{:<18} {:>9} {:>6} {:>5} {:>5} {:>5} {:>5}   {:<6}",
        "machine", "admitted", "done", "shed", "dl", "rej", "peak", "probe"
    );

    let mut rows = Vec::new();

    for id in MachineId::all() {
        let machine = Machine::new(id);
        let base: StatsSnapshot = machine.stats().snapshot();
        let pool = Arc::new(ForcePool::new(nproc, machine.stats()));
        let force = Arc::new(Force::with_machine(nproc, Arc::clone(&machine)).with_pool(pool));
        let sink = Arc::new(AtomicU64::new(0));
        let native_job = move |p: &Player| {
            p.barrier();
            sink.fetch_add(busy_work(64), Ordering::Relaxed);
            p.barrier();
        };
        let server = ForceServer::new(
            ServerConfig {
                tenant_queue_capacity: watermark * 4,
                shed_watermark: watermark,
                retry_base: Duration::from_micros(200),
                ..ServerConfig::default()
            },
            machine.stats(),
        );
        let (arrived, started) = (Arc::new(AtomicUsize::new(0)), Arc::new(AtomicUsize::new(0)));
        let mut handles = Vec::with_capacity(burst);
        for j in 0..burst {
            hold_until(|| j < allowed(started.load(Ordering::SeqCst)));
            let mut run = force.serve_runner(RunOptions::default(), native_job.clone());
            let (seen, start) = (Arc::clone(&arrived), Arc::clone(&started));
            let runner: JobRunner = Box::new(move |cx| {
                let k = start.fetch_add(1, Ordering::SeqCst);
                hold_until(|| seen.load(Ordering::SeqCst) >= allowed(k));
                run(cx)
            });
            let mut spec = JobSpec::for_tenant("burst").with_priority(if j % 8 == 0 {
                Priority::High
            } else {
                Priority::Normal
            });
            if j % 4 == 0 {
                spec = spec.with_deadline(deadline);
            }
            if let Submit::Admitted(h) = server.submit(spec, runner) {
                handles.push(h);
            }
            arrived.fetch_add(1, Ordering::SeqCst);
        }
        // Every admitted job reaches a terminal outcome.
        for h in &handles {
            let _ = h.wait();
        }
        // The server stays responsive through the overload: a fresh
        // high-priority job completes afterwards.
        let probe = server.submit(
            JobSpec::for_tenant("probe").with_priority(Priority::High),
            force.serve_runner(RunOptions::default(), native_job.clone()),
        );
        let probe_ok = match probe {
            Submit::Admitted(h) => h.wait().is_success(),
            Submit::Rejected { reason } => panic!("post-burst probe rejected: {reason}"),
        };
        // That the overload was shed or deadline-killed with the backlog
        // near the watermark and a quiet watchdog is `checks::serve`'s job.
        let burst_tenant = server.tenant_report("burst").unwrap_or_default();
        let peak_backlog = server.peak_backlog();
        server.shutdown();
        let delta = machine.stats().snapshot().since(&base);

        println!(
            "{:<18} {:>9} {:>6} {:>5} {:>5} {:>5} {:>5}   {:<6}",
            id.name(),
            burst_tenant.admitted,
            burst_tenant.completed,
            burst_tenant.shed,
            burst_tenant.deadline_exceeded,
            burst_tenant.rejected,
            peak_backlog,
            if probe_ok { "ok" } else { "FAILED" }
        );
        rows.push(obj! {
            "machine": id.name(),
            "admitted": burst_tenant.admitted,
            "completed": burst_tenant.completed,
            "shed": burst_tenant.shed,
            "deadline_exceeded": burst_tenant.deadline_exceeded,
            "rejected": burst_tenant.rejected,
            "peak_backlog": peak_backlog,
            "watchdog_trips": delta.watchdog_trips,
            "probe_completed": probe_ok,
        });
    }

    let doc = obj! {
        "burst": burst,
        "watermark": watermark,
        "nproc": nproc,
        "host_cores": host_cores(),
        "machines": rows,
    };
    write_artifact("BENCH_serve.json", &doc, checks::serve);
    println!("(expected shape: on every personality the burst, four arrivals per job");
    println!(" started, is absorbed by shedding and deadline kills — admitted = done +");
    println!(" shed + dl, and the dequeue after the held first job sheds — with the");
    println!(" backlog pinned near the watermark, and the probe submitted after it");
    println!(" completes: the server never wedged.  The dl count is the host's; rates");
    println!(" and latencies under load are benchmark/'s `open_arrivals` and `serve.*`)");
}

fn exp19(scale: Scale) {
    use std::time::Instant;
    use the_force::machdep::{ParkBackend, RunOptions, StatsSnapshot};
    let (pids, workers, episodes): (usize, usize, usize) = match scale {
        Scale::Full => (768, host_cores().min(16), 200),
        Scale::Smoke => (512, 2, 40),
    };
    let small = host_cores().clamp(2, 4);

    println!("part A: nproc={small} (<= host cores), {episodes} barrier+critical episodes,");
    println!("        thread-per-pid (tpp) against overcommit with {small} permits (ovc)");
    println!("part B: one {pids}-process force multiplexed over {workers} workers\n");
    println!(
        "{:<18} {:>9} {:>9} {:>9} {:>9} {:>9} | {:>10} {:>8} {:>8}",
        "machine",
        "bar tpp",
        "bar ovc",
        "lock tpp",
        "lock ovc",
        "parks ovc",
        "big-force",
        "parks",
        "wakes"
    );

    let mut rows = Vec::new();

    for id in MachineId::all() {
        // Part A: the same wait-heavy job on both backends at
        // nproc <= cores, where no pid ever waits for a run permit: the
        // backends must do the same work and differ only in how a wait
        // is spent.
        let job = |backend: ParkBackend| -> StatsSnapshot {
            let force = Force::with_machine(small, Machine::new(id));
            let sink = AtomicU64::new(0);
            let options = RunOptions {
                backend,
                ..RunOptions::default()
            };
            force
                .try_execute_with(options, |p| {
                    for _ in 0..episodes {
                        p.barrier();
                        p.critical("T", || {
                            sink.fetch_add(busy_work(8), Ordering::Relaxed);
                        });
                    }
                })
                .expect("part A job");
            force.last_job_stats().expect("part A stats")
        };
        let dedicated = job(ParkBackend::ThreadPerPid);
        let overcommit = job(ParkBackend::Overcommit { workers: small });

        // Part B: one wide force — every pid crosses barriers, the
        // Askfor pot, and a full/empty handshake, with only `workers`
        // run permits live at once.
        let machine = Machine::new(id);
        let before = machine.stats().snapshot();
        let force = Force::with_machine(pids, Arc::clone(&machine));
        // Few channels, shared by many pid pairs.  State-role locks
        // (full/empty pairs) never alias: past the Cray-2's 32-slot
        // budget, `Async::new` fails loudly with a `ScarceLockError`
        // (use `Async::try_new` to recover) instead of silently
        // corrupting a shared value slot, so the cap here simply keeps
        // the experiment inside every personality's state-lock budget
        // — 8 channels = 16 dedicated slots, leaving room for the
        // pooled critical/barrier locks.
        let nchan = (pids / 2).clamp(1, 8);
        let chans: Vec<Async<u64>> = (0..nchan).map(|_| Async::new(&machine)).collect();
        let leaves = AtomicU64::new(0);
        let consumed = AtomicU64::new(0);
        let t0 = Instant::now();
        force
            .try_execute_with(
                RunOptions {
                    backend: ParkBackend::Overcommit { workers },
                    ..RunOptions::default()
                },
                |p| {
                    p.barrier();
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
                },
            )
            .unwrap_or_else(|f| panic!("{}-pid force faulted on {}: {f}", pids, id.name()));
        let big = t0.elapsed();
        assert_eq!(leaves.load(Ordering::Relaxed), 8 << 4, "askfor leaves");
        assert_eq!(
            consumed.load(Ordering::Relaxed),
            (pids as u64 / 2) * 10,
            "full/empty tokens"
        );
        // Equal work, balanced parks and a quiet watchdog are
        // `checks::park`'s job.
        let delta = machine.stats().snapshot().since(&before);

        println!(
            "{:<18} {:>9} {:>9} {:>9} {:>9} {:>9} | {:>10} {:>8} {:>8}",
            id.name(),
            dedicated.barrier_episodes,
            overcommit.barrier_episodes,
            dedicated.lock_acquires,
            overcommit.lock_acquires,
            overcommit.parks,
            fmt_dur(big),
            delta.parks,
            delta.park_wakes
        );
        let backend_row = |s: &StatsSnapshot| {
            obj! {
                "barrier_episodes": s.barrier_episodes,
                "lock_acquires": s.lock_acquires,
                "fe_transfers": s.fe_produces + s.fe_consumes,
                "parks": s.parks,
                "park_wakes": s.park_wakes,
            }
        };
        rows.push(obj! {
            "machine": id.name(),
            "dedicated": backend_row(&dedicated),
            "overcommit": backend_row(&overcommit),
            "big_force": obj! {
                "completed": true,
                "elapsed_ms": big.as_millis() as u64,
                "parks": delta.parks,
                "park_wakes": delta.park_wakes,
                "park_spurious_wakes": delta.park_spurious_wakes,
                "watchdog_trips": delta.watchdog_trips,
            },
        });
    }

    let doc = obj! {
        "small_nproc": small,
        "episodes": episodes,
        "pids": pids,
        "workers": workers,
        "host_cores": host_cores(),
        "machines": rows,
    };
    write_artifact("BENCH_park.json", &doc, checks::park);
    println!("(expected shape: at nproc <= cores both backends do the same work —");
    println!(" equal barrier episodes and lock acquisitions — and every park is");
    println!(" matched by a wake; what a wait costs on either is not timed here.");
    println!(" The {pids}-process force completes the barrier/askfor/full-empty");
    println!(" suite on every personality with balanced parks and a quiet watchdog)");
}

// ---------------------------------------------------------------- EXP-20

fn exp20(scale: Scale) {
    use the_force::machdep::{charge_virtual, ParkBackend, RunOptions, VirtualSummary};
    let (items, nprocs): (u64, &[u64]) = match scale {
        Scale::Full => (256, &[1, 2, 4, 8, 16]),
        Scale::Smoke => (64, &[1, 2, 4, 8]),
    };
    let (cycles, seed) = (50_000u64, 0xF0CEu64);

    println!(
        "{items} statically split items x {cycles} virtual cycles each, seed {seed:#x}; \
         every point is run twice and must replay bit-identically"
    );
    println!("(makespans are virtual nanoseconds — wall clock never enters the numbers)\n");
    print!("{:<18} {:>12}", "machine", "serial-ns");
    for n in &nprocs[1..] {
        print!(" {:>8}", format!("x@{n}"));
    }
    println!("  deterministic");

    let mut rows = Vec::new();

    for id in MachineId::all() {
        let run_once = |nproc: u64| -> VirtualSummary {
            let force = Force::with_machine(nproc as usize, Machine::new(id));
            force
                .try_execute_with(
                    RunOptions {
                        backend: ParkBackend::Virtual { seed },
                        ..RunOptions::default()
                    },
                    |p| {
                        // Static split, not self-scheduling: under
                        // virtual time a process yields only at a
                        // blocking wait, and grabbing a selfsched
                        // index never blocks — the first runner would
                        // drain the whole loop before anyone else got
                        // a turn.  Presched DO charges each pid's own
                        // virtual clock exactly its share, which is
                        // the quantity a speedup curve measures.
                        p.presched_do(ForceRange::to(1, items as i64), |_| {
                            charge_virtual(cycles);
                        });
                    },
                )
                .unwrap_or_else(|f| panic!("EXP-20 virtual run on {}: {f}", id.name()));
            force.last_virtual_summary().expect("virtual summary")
        };

        let mut curve = Vec::new();
        let mut speedups = Vec::new();
        let mut serial_ns = 0u64;
        for &n in nprocs {
            let summary = run_once(n);
            let replay = run_once(n);
            assert_eq!(
                summary,
                replay,
                "EXP-20 replay diverged on {} at nproc={n}",
                id.name()
            );
            if n == 1 {
                serial_ns = summary.makespan_ns;
            }
            let speedup = serial_ns as f64 / summary.makespan_ns.max(1) as f64;
            speedups.push(speedup);
            curve.push(obj! {
                "nproc": n,
                "makespan_ns": summary.makespan_ns,
                "speedup": Json::fixed(speedup, 3),
                "digest": format!("{:#x}", summary.digest),
            });
        }

        print!("{:<18} {:>12}", id.name(), serial_ns);
        for speedup in &speedups[1..] {
            print!(" {speedup:>8.2}");
        }
        println!("  yes");
        rows.push(obj! { "machine": id.name(), "deterministic": true, "curve": curve });
    }

    let doc = obj! { "seed": seed, "items": items, "item_cycles": cycles, "machines": rows };
    write_artifact("BENCH_vtime.json", &doc, |doc| checks::vtime(doc, nprocs));
    println!("(expected shape: makespans shrink as pids are added on every machine,");
    println!(" sublinearly where the cost model prices creation and locks steeply —");
    println!(" the Cray-2's 80k-cycle creation stagger flattens its curve first —");
    println!(" and every (machine, nproc) point replays bit-identically, so the");
    println!(" curves are a pure function of the seed and the machine descriptor)");
}

fn exp21(scale: Scale) {
    use std::sync::atomic::{AtomicBool, AtomicUsize};
    use std::time::{Duration, Instant};
    use the_force::machdep::{
        ForcePool, ForceServer, JobError, JobRunner, JobSpec, JobYield, Priority, RunOptions,
        ServerConfig, Submit,
    };
    let jobs: usize = match scale {
        Scale::Full => 360,
        Scale::Smoke => 120,
    };
    let tenants = 8usize;
    let nproc = 2usize;
    const SHARD_COUNTS: [usize; 3] = [1, 2, 4];
    // A blocking half standing in for I/O, the same for every shard count:
    // a single dispatcher serializes it, extra shards overlap it.  It only
    // gives the printed ratio a meaning; nothing is gated on time.
    const HOLD: Duration = Duration::from_millis(1);

    println!("jobs={jobs} tenants={tenants} nproc={nproc} shards={SHARD_COUNTS:?}\n");
    println!(
        "{:<18} {:>8} {:>8} {:>10} {:>6} {:>5}",
        "machine", "shards", "at once", "vs 1 shard", "done", "peak"
    );

    let mut blocks = Vec::new();

    for id in MachineId::all() {
        let mut rows = Vec::new();
        let mut one_shard = Duration::ZERO;
        let sink = Arc::new(AtomicU64::new(0));

        for &shards in &SHARD_COUNTS {
            let machine = Machine::new(id);
            // One session + pool per shard: `JobCx::shard()` names the
            // dispatcher executing the attempt, and each dispatcher runs
            // its jobs serially, so sessions are never shared between
            // concurrent jobs even when an idle shard pulls work.
            let sessions: Arc<Vec<Arc<Force>>> = Arc::new(
                (0..shards)
                    .map(|_| {
                        let pool = Arc::new(ForcePool::new(nproc, machine.stats()));
                        Arc::new(Force::with_machine(nproc, Arc::clone(&machine)).with_pool(pool))
                    })
                    .collect(),
            );
            // Jobs in flight, the most ever seen, and whether the first
            // jobs may stop holding: each holds until `shards` run at once
            // (or 5 s have passed, which only shards that cannot overlap
            // reach).  More than `shards` would be a shard running two.
            let flight = Arc::new((
                AtomicUsize::new(0),
                AtomicUsize::new(0),
                AtomicBool::new(false),
            ));

            let server = ForceServer::new(
                ServerConfig {
                    shards,
                    tenant_queue_capacity: jobs,
                    shed_watermark: jobs * 2,
                    retry_base: Duration::from_micros(200),
                    ..ServerConfig::default()
                },
                machine.stats(),
            );
            let tenant_names: Vec<String> = (0..tenants).map(|t| format!("tenant-{t}")).collect();
            let mut handles = Vec::with_capacity(jobs);
            let t0 = Instant::now();
            for j in 0..jobs {
                let sessions = Arc::clone(&sessions);
                let s = Arc::clone(&sink);
                let flight = Arc::clone(&flight);
                let runner: JobRunner = Box::new(move |cx| {
                    let (running, max_running, released) = &*flight;
                    let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                    max_running.fetch_max(now, Ordering::SeqCst);
                    hold_until(|| {
                        released.load(Ordering::SeqCst)
                            || max_running.load(Ordering::SeqCst) >= shards
                    });
                    released.store(true, Ordering::SeqCst);
                    let session = &sessions[cx.shard() % sessions.len()];
                    cx.bind_plane(session.fault_plane());
                    let ran = session.try_execute_with(RunOptions::default(), |p| {
                        p.barrier();
                        s.fetch_add(busy_work(32), Ordering::Relaxed);
                        p.barrier();
                    });
                    std::thread::sleep(HOLD);
                    running.fetch_sub(1, Ordering::SeqCst);
                    ran.map(|_| JobYield::default()).map_err(JobError::Fault)
                });
                let spec =
                    JobSpec::for_tenant(&tenant_names[j % tenants]).with_priority(if j % 8 == 0 {
                        Priority::High
                    } else {
                        Priority::Normal
                    });
                match server.submit(spec, runner) {
                    Submit::Admitted(h) => handles.push(h),
                    Submit::Rejected { reason } => {
                        panic!("{}: saturation job rejected: {reason}", id.name())
                    }
                }
            }
            for h in &handles {
                assert!(h.wait().is_success(), "job failed on {}", id.name());
            }
            let elapsed = t0.elapsed();
            let report = server.server_report();
            server.shutdown();
            // Nothing lost or shed, one peak per shard, `shards` jobs at
            // once: `checks::shard`.  The ratio of the two wall times is
            // the ratio of the sustained rates: printed, not gated.
            if shards == 1 {
                one_shard = elapsed;
            }
            let speedup = one_shard.as_secs_f64() / elapsed.as_secs_f64();
            let at_once = flight.1.load(Ordering::SeqCst);
            println!(
                "{:<18} {:>8} {:>8} {:>9.2}x {:>6} {:>5}",
                id.name(),
                shards,
                at_once,
                speedup,
                report.completed,
                report.peak_backlog
            );
            let peaks = report.shard_peak_backlogs.iter();
            rows.push(obj! {
                "shards": shards,
                "max_running": at_once,
                "speedup_vs_1": Json::fixed(speedup, 3),
                "completed": report.completed,
                "shed": report.shed,
                "peak_backlog": report.peak_backlog,
                "shard_peaks": peaks.map(|&p| Json::from(p)).collect::<Vec<_>>(),
            });
        }
        blocks.push(obj! {
            "machine": id.name(),
            "shards": rows,
        });
    }

    let doc = obj! {
        "jobs": jobs,
        "tenants": tenants,
        "nproc": nproc,
        "host_cores": host_cores(),
        "machines": blocks,
    };
    write_artifact("BENCH_shard.json", &doc, checks::shard);
    println!("(expected shape: on every personality and at every shard count all");
    println!(" jobs complete with nothing shed, and exactly `shards` jobs run at once");
    println!(" — the shards overlap their jobs, and no shard runs two.  The small-job");
    println!(" mix interleaves a fixed 1 ms blocking hold with a 2-process force run,");
    println!(" so the same jobs finish sooner with more shards; that ratio is printed");
    println!(" and not gated.  Absolute rates and tails are benchmark/'s `serve.*`)");
}
