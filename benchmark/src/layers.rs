//! The ladder/micro phase of a traced run: timed calls into each
//! layer's public functions, in a child process of its own so the
//! resident-memory readings start from a fresh heap.
//!
//! The four null numbers `machdep.pool_null_us` → `core.null_run_us` →
//! `fortranish.null_run_us` → `serve.null_job_us` are the same empty body
//! run one layer higher each time: a layer's fixed tax is a subtraction.

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use the_force::core::{Async, Force, ForceRange};
use the_force::fortran::{bytecode, lexer, Engine, Program as Compiled};
use the_force::machdep::{
    spawn_force_plane, FaultPlane, ForcePool, LockState, Machine, MachineId, OpStats, RunOptions,
};
use the_force::prep::{self, m4::M4, macros::install_statement_macros, sedpass, VarClass};

use crate::gen::{self, ColdGen, CORPUS_NAMES};
use crate::kernel;
use crate::round::{self, put, Values, NPROC};

/// The micro phase draws its cold sources from a seed of its own: its
/// numbers describe the build, not a workload's inputs.
const MICRO_SEED: u64 = 0x1989;

/// Time one call, in µs.
fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let start = Instant::now();
    let r = f();
    (start.elapsed().as_nanos() as f64 / 1e3, r)
}

/// Median µs of `reps` calls.
fn median_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps.max(1)).map(|_| timed(&mut f).0).collect();
    kernel::median(&times).expect("at least one repetition")
}

/// Run every micro measurement; `divisor` shrinks the repetition counts.
pub fn micro(values: &mut Values, divisor: usize) {
    let reps = |n: usize| (n / divisor.max(1)).max(3);
    front_end(values, reps(400));
    let mean_run_us = language_runs(values, reps(30));
    native(values, &reps);
    primitives(values, &reps);
    let null_run_us = null_ladder(values, reps(1800));
    put(
        values,
        "fortranish.vm_share",
        1.0 - null_run_us / mean_run_us,
    );
    let idle = Duration::from_millis(1000 / divisor.max(1) as u64);
    let (null_job_us, idle_cpu_us_per_s) = round::served_null(reps(1500), idle);
    put(values, "serve.null_job_us", null_job_us);
    put(values, "serve.null_tax_us", null_job_us - null_run_us);
    put(values, "serve.idle_cpu_us_per_s", idle_cpu_us_per_s);
}

/// `prep` and the `fortranish` front end over never-seen sources: each
/// pass on its own, then the cached pipeline's miss, then its hit.
fn front_end(values: &mut Values, sources: usize) {
    let cold: Vec<_> = ColdGen::new(MICRO_SEED, 0, 1).take(sources).collect();
    let mut t: HashMap<&str, Vec<f64>> = HashMap::new();
    let mut bytes = (0usize, 0usize);
    for (program, id) in &cold {
        let (sed_us, macro_form) = timed(|| sedpass::sed_pass(&program.source).expect("sed pass"));
        t.entry("prep.sed_us").or_default().push(sed_us);
        let mut m4 = M4::new();
        install_statement_macros(&mut m4);
        t.entry("prep.m4_us")
            .or_default()
            .push(timed(|| black_box(m4.expand(&macro_form))).0);
        let (pre_us, expanded) =
            timed(|| prep::preprocess(&program.source, *id).expect("preprocess"));
        t.entry("prep.preprocess_us").or_default().push(pre_us);
        bytes = (
            bytes.0 + expanded.code.len(),
            bytes.1 + program.source.len(),
        );

        t.entry("fortranish.lex_us")
            .or_default()
            .push(timed(|| black_box(lexer::lex(&expanded.code))).0);
        let shared: HashMap<String, usize> = expanded
            .decls
            .iter()
            .filter(|d| matches!(d.class, VarClass::Shared | VarClass::Async))
            .map(|d| (d.name.clone(), d.words()))
            .collect();
        let (compile_us, compiled) =
            timed(|| Compiled::compile(&expanded.code, &shared).expect("compile"));
        t.entry("fortranish.compile_us")
            .or_default()
            .push(compile_us);
        t.entry("fortranish.bytecode_us")
            .or_default()
            .push(timed(|| black_box(bytecode::compile(&compiled))).0);
    }
    put(
        values,
        "prep.code_bytes_per_src_byte",
        bytes.0 as f64 / bytes.1 as f64,
    );

    // The cold path proper: what `cold_sources` pays and keeps per job.
    let rss_before = kernel::status_kb("VmRSS");
    let entries_before = prep::expansion_cache_len();
    let mut cached = Vec::new();
    for (program, id) in &cold {
        let (miss_us, expanded) =
            timed(|| prep::preprocess_cached(&program.source, *id).expect("expand"));
        t.entry("prep.expand_miss_us").or_default().push(miss_us);
        let load = timed(|| Engine::from_expanded(&expanded, Machine::new(*id)).expect("load"));
        t.entry("fortranish.load_miss_us").or_default().push(load.0);
        cached.push((expanded, *id));
    }
    let entries = (prep::expansion_cache_len() - entries_before).max(1);
    let grown_kb = kernel::status_kb("VmRSS").saturating_sub(rss_before);
    put(
        values,
        "prep.rss_kb_per_entry",
        grown_kb as f64 / entries as f64,
    );
    for (program, id) in &cold {
        let hit =
            timed(|| black_box(prep::preprocess_cached(&program.source, *id).expect("expand")));
        t.entry("prep.expand_hit_ns").or_default().push(hit.0 * 1e3);
    }
    // The compiled bundle now rides the cached expansion: loading skips
    // parse and compile and pays for the engine and its machine only.
    for (expanded, id) in &cached {
        let load = timed(|| Engine::from_expanded(expanded, Machine::new(*id)).expect("load"));
        t.entry("fortranish.load_cached_us")
            .or_default()
            .push(load.0);
    }
    let mut names: Vec<_> = t.keys().copied().collect();
    names.sort_unstable();
    for name in names {
        put(values, name, kernel::median(&t[name]).expect("samples"));
    }
}

/// Pooled engine sessions: every corpus program on every machine.
/// Returns the mean run time of a `hot_mix` draw.
fn language_runs(values: &mut Values, reps: usize) -> f64 {
    let stats = Arc::new(OpStats::new());
    let pool = Arc::new(ForcePool::new(NPROC, &stats));
    let session = |program: &gen::Program, id: MachineId| {
        let expanded = prep::preprocess_cached(&program.source, id).expect("expand");
        let engine = Engine::from_expanded(&expanded, Machine::new(id)).expect("load");
        engine.set_pool(Arc::clone(&pool));
        engine
    };
    let run = |engine: &Engine, program: &gen::Program| {
        let out = engine.run(NPROC).expect("run");
        assert!(program.check(&out), "{}: wrong output", program.name);
    };
    // median µs per [program][machine]
    let cell: Vec<Vec<f64>> = gen::corpus()
        .iter()
        .map(|program| {
            MachineId::all()
                .iter()
                .map(|id| {
                    let engine = session(program, *id);
                    run(&engine, program);
                    median_us(reps, || run(&engine, program))
                })
                .collect()
        })
        .collect();
    let mut by_program = [0.0; 6];
    for (p, name) in CORPUS_NAMES.iter().enumerate() {
        by_program[p] = cell[p].iter().sum::<f64>() / 6.0;
        put(values, format!("fortranish.run_us.{name}"), by_program[p]);
    }
    // What a hot_mix draw costs on each personality.
    for (m, id) in MachineId::all().iter().enumerate() {
        let column: [f64; 6] = std::array::from_fn(|p| cell[p][m]);
        put(
            values,
            format!("machdep.run_us.{}", id.tag()),
            gen::weighted_mean(&column),
        );
    }
    gen::weighted_mean(&by_program)
}

/// The native construct API on pooled `Force` sessions.
fn native(values: &mut Values, reps: &dyn Fn(usize) -> usize) {
    let stats = Arc::new(OpStats::new());
    let pool = Arc::new(ForcePool::new(NPROC, &stats));
    let force_on =
        |id: MachineId| Force::with_machine(NPROC, Machine::new(id)).with_pool(Arc::clone(&pool));
    for id in MachineId::all() {
        let force = force_on(id);
        // State locks first: on the Cray-2 the critical sections below
        // fill the scarce pool, and a state lock can never alias a slot.
        let (ping, pong) = (
            Async::<i64>::new(force.machine()),
            Async::<i64>::new(force.machine()),
        );
        let run_us = |body: &(dyn Fn(&the_force::core::Player) + Sync)| {
            median_us(reps(30), || force.try_run(body).expect("native run"))
        };
        let null_us = run_us(&|_| ());
        // Per-construct cost: the run's time beyond a null run, per use.
        let per_ns = |run_us: f64, uses: usize| ((run_us - null_us) * 1e3 / uses as f64).max(0.0);
        const K: usize = 500;
        let barrier = run_us(&|p| (0..K).for_each(|_| p.barrier()));
        put(
            values,
            format!("core.barrier_ns.{}", id.tag()),
            per_ns(barrier, K),
        );
        let critical = run_us(&|p| (0..K).for_each(|_| p.critical("L", || black_box(()))));
        put(
            values,
            format!("core.critical_ns.{}", id.tag()),
            per_ns(critical, K * NPROC),
        );
        let prodcons = run_us(&|p| {
            for i in 0..K as i64 {
                if p.pid() == 0 {
                    ping.produce(i);
                    black_box(pong.consume());
                } else {
                    pong.produce(ping.consume());
                }
            }
        });
        put(
            values,
            format!("core.prodcons_ns.{}", id.tag()),
            per_ns(prodcons, 2 * K),
        );
        if id == MachineId::SequentBalance {
            const TRIPS: usize = 4096;
            let range = || ForceRange::to(1, TRIPS as i64);
            let selfsched = run_us(&|p| {
                p.selfsched_do(range(), |i| {
                    black_box(i);
                })
            });
            put(values, "core.selfsched_trip_ns", per_ns(selfsched, TRIPS));
            let presched = run_us(&|p| {
                p.presched_do(range(), |i| {
                    black_box(i);
                })
            });
            put(values, "core.presched_trip_ns", per_ns(presched, TRIPS));
            let askfor = run_us(&|p| {
                p.askfor(
                    || (0..TRIPS).collect(),
                    |item: usize, _| {
                        black_box(item);
                    },
                )
            });
            put(values, "core.askfor_item_ns", per_ns(askfor, TRIPS));
            const STATEMENTS: usize = 64;
            let pcase = run_us(&|p| {
                for _ in 0..STATEMENTS {
                    p.pcase()
                        .sect(|| ())
                        .sect(|| ())
                        .csect(true, || ())
                        .csect(false, || ())
                        .selfsched();
                }
            });
            put(values, "core.pcase_ns", per_ns(pcase, STATEMENTS));
        }
    }
}

/// The lower three rungs of the null ladder, interleaved so that each
/// sees the same host: the empty body on a bare pooled plane, through a
/// `Force` session, and as the empty `.force` program on an `Engine`
/// session, rotating over the six machines.  Returns
/// `fortranish.null_run_us`.
fn null_ladder(values: &mut Values, reps: usize) -> f64 {
    let stats = Arc::new(OpStats::new());
    let pool = Arc::new(ForcePool::new(NPROC, &stats));
    let plane = FaultPlane::new(NPROC, Arc::clone(&stats), RunOptions::default());
    let null = gen::null_program();
    let sessions: Vec<(Force, Engine)> = MachineId::all()
        .iter()
        .map(|id| {
            let force = Force::with_machine(NPROC, Machine::new(*id)).with_pool(Arc::clone(&pool));
            let expanded = prep::preprocess_cached(&null.source, *id).expect("expand");
            let engine = Engine::from_expanded(&expanded, Machine::new(*id)).expect("load");
            engine.set_pool(Arc::clone(&pool));
            (force, engine)
        })
        .collect();
    let (mut bare, mut native, mut language, mut spawned) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for rep in 0..reps {
        let (force, engine) = &sessions[rep % sessions.len()];
        bare.push(timed(|| drop(pool.run_plane(&plane, |_| ()).expect("pooled null"))).0);
        native.push(timed(|| force.try_run(|_| ()).expect("native null")).0);
        language.push(timed(|| drop(engine.run(NPROC).expect("language null"))).0);
        if rep % 4 == 0 {
            spawned
                .push(timed(|| drop(spawn_force_plane(&plane, |_| ()).expect("spawned null"))).0);
        }
    }
    put(
        values,
        "machdep.pool_null_us",
        kernel::median(&bare).expect("runs"),
    );
    put(
        values,
        "machdep.spawn_null_us",
        kernel::median(&spawned).expect("runs"),
    );
    put(
        values,
        "core.null_run_us",
        kernel::median(&native).expect("runs"),
    );
    let null_run_us = kernel::median(&language).expect("runs");
    put(values, "fortranish.null_run_us", null_run_us);
    null_run_us
}

/// Each personality's uncontended lock.
fn primitives(values: &mut Values, reps: &dyn Fn(usize) -> usize) {
    for id in MachineId::all() {
        let machine = Machine::new(id);
        let lock = machine.make_lock(LockState::Unlocked);
        const PAIRS: usize = 10_000;
        let batch_us = median_us(reps(30), || {
            for _ in 0..PAIRS {
                lock.lock();
                lock.unlock();
            }
        });
        put(
            values,
            format!("machdep.lock_pair_ns.{}", id.tag()),
            batch_us * 1e3 / PAIRS as f64,
        );
    }
}
