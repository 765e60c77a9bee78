//! The reproduction harness: one table per experiment in EXPERIMENTS.md.
//!
//! ```sh
//! cargo run --release -p force-bench --bin reproduce            # all
//! cargo run --release -p force-bench --bin reproduce -- exp3   # one
//! cargo run --release -p force-bench --bin reproduce -- --smoke exp20   # CI scale
//! ```
//!
//! An unknown experiment name or flag runs nothing and exits 2.  EXP-15,
//! EXP-16 and EXP-20 each write a `BENCH_*.json` artifact, which is rendered,
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
    exp15: "construct tracing: the merged six-machine Chrome trace",
    exp16: "unified scheduling plane: six policies on uniform and skewed DOALLs",
    exp20: "virtual time: deterministic speedup curves on six machines",
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
        trace: true,
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
