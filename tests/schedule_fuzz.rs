//! Seed-determinism and schedule fuzzing for the virtual-time backend.
//!
//! The contract under test: a virtual run is a pure function of
//! `(seed, machine, program)`.  Replaying the same seed must reproduce
//! the schedule bit for bit — the decision digest, the Chrome trace
//! JSON, and every op counter — while a different seed explores a
//! different interleaving.  The corpora cover the constructs whose
//! interleavings caused every documented hazard: barriers, criticals,
//! the Askfor pot (with work stealing), and full/empty channels.
//!
//! This is the one driver of the sweep: a failure names its `(corpus,
//! machine, seed)` triple, which is the whole reproducer.

mod support;

use std::sync::Arc;

use support::corpus::Native as Corpus;
use the_force::machdep::{
    Machine, MachineId, ParkBackend, ProcessFault, RunOptions, StatsSnapshot, VirtualSummary,
};
use the_force::prelude::*;

/// Run one corpus once under the virtual backend and return every
/// replay observable: the schedule summary, the per-job op-counter
/// delta, and the Chrome trace JSON.
fn run_virtual(
    machine: MachineId,
    nproc: usize,
    seed: u64,
    corpus: Corpus,
) -> (VirtualSummary, StatsSnapshot, String) {
    let force = Force::with_machine(nproc, Machine::new(machine));
    let chans = corpus.channels(&force);
    force
        .try_execute_with(
            RunOptions {
                backend: ParkBackend::Virtual { seed },
                trace: true,
                ..RunOptions::default()
            },
            |p| corpus.body(p, chans.as_ref()),
        )
        .unwrap_or_else(|f| {
            panic!(
                "virtual run faulted: corpus {} on {} seed {seed:#x}: {f}",
                corpus.name(),
                machine.name()
            )
        });
    let summary = force.last_virtual_summary().expect("virtual summary");
    let stats = force.last_job_stats().expect("per-job stats");
    let trace = force
        .last_job_profile()
        .expect("traced run")
        .chrome_trace_json();
    (summary, stats, trace)
}

#[test]
fn same_seed_replays_byte_identical_observables() {
    for corpus in Corpus::all() {
        for machine in [MachineId::Cray2, MachineId::Hep] {
            let a = run_virtual(machine, 4, 0xF0CE, corpus);
            let b = run_virtual(machine, 4, 0xF0CE, corpus);
            let key = format!("corpus {} on {}", corpus.name(), machine.name());
            assert_eq!(a.0, b.0, "summary diverged: {key}");
            assert_eq!(a.1, b.1, "op counters diverged: {key}");
            assert_eq!(a.2, b.2, "trace JSON diverged: {key}");
        }
    }
}

#[test]
fn different_seeds_explore_different_interleavings() {
    // Not every pair of seeds must differ (small programs have few
    // schedules), but across the seed set at least one alternative
    // interleaving must appear for every corpus.
    for corpus in Corpus::all() {
        let base = run_virtual(MachineId::Cray2, 4, 1, corpus);
        let diverged = (2..10u64)
            .any(|s| run_virtual(MachineId::Cray2, 4, s, corpus).0.digest != base.0.digest);
        assert!(
            diverged,
            "corpus {}: 8 seeds, no alternative schedule",
            corpus.name()
        );
    }
}

#[test]
fn seed_sweep_replays_on_every_machine() {
    // The sweep: every corpus, every machine personality, ten seeds;
    // each run must complete (no wedge, no fault) and replay
    // identically.  Failures name the exact (corpus, machine, seed)
    // triple — the replay key — so a red run IS the repro recipe.
    let mut failures = Vec::new();
    for corpus in Corpus::all() {
        for machine in MachineId::all() {
            for seed in (1..=8u64).chain([0xF0CE, 0xDEAD_BEEF]) {
                let a = run_virtual(machine, 3, seed, corpus);
                let b = run_virtual(machine, 3, seed, corpus);
                if a.0 != b.0 || a.1 != b.1 || a.2 != b.2 {
                    failures.push(format!(
                        "{} on {} seed {seed:#x}",
                        corpus.name(),
                        machine.name()
                    ));
                }
            }
        }
    }
    assert!(failures.is_empty(), "divergent replays: {failures:?}");
}

#[test]
fn language_front_end_replays_under_both_executors() {
    // The engine path must obey the same replay contract under BOTH
    // executors: same seed, same machine, same program ⇒ same prints,
    // same shared memory, same op counters, same schedule digest —
    // whether the bytecode VM or the tree-walking oracle executes the
    // body.  (Digests are compared within an executor only: the two
    // executors are free to reach the blocking waits through different
    // instruction streams.)
    use the_force::compile_force_source;
    use the_force::fortran::{Engine, RunOutput, Value};

    let src = "\
      Force FMAIN of NP ident ME
      Shared INTEGER TOTAL
      End declarations
      Barrier
      TOTAL = 0
      End barrier
      Critical CL
      TOTAL = TOTAL + ME
      End critical
      Join
";
    let virtual_run = |seed| RunOptions {
        backend: ParkBackend::Virtual { seed },
        ..RunOptions::default()
    };
    let observe = |out: RunOutput, engine: &Engine| {
        let summary = engine.last_virtual_summary().expect("summary");
        (out.shared_scalar("TOTAL"), out.stats, summary)
    };
    let vm = |seed: u64| {
        let (_, engine) = compile_force_source(src, MachineId::Cray2).expect("compile");
        let out = engine.run_with(4, virtual_run(seed)).expect("virtual run");
        observe(out, &engine)
    };
    let tree = |seed: u64| {
        let oracle = support::load_oracle(src, &Machine::new(MachineId::Cray2));
        let out = oracle.run_with(4, virtual_run(seed)).expect("virtual run");
        observe(out, oracle.engine())
    };
    for (executor, a, b) in [
        ("bytecode VM", vm(0xF0CE), vm(0xF0CE)),
        ("oracle", tree(0xF0CE), tree(0xF0CE)),
    ] {
        assert_eq!(a, b, "replay diverged under the {executor}");
        // ME is 0-based: the four processes contribute 0 + 1 + 2 + 3.
        assert_eq!(a.0, Some(Value::Int(6)), "wrong sum under the {executor}");
    }
}

/// A faulted virtual run: four pids pass tokens around a ring of async
/// cells, and pid 1 panics at its third Produce/Consume trip, leaving its
/// peers parked.  Returns the fault, the schedule summary and the Chrome
/// trace of the run, teardown included.
fn run_faulted(machine: MachineId, seed: u64) -> (ProcessFault, VirtualSummary, String) {
    let machine = Machine::new(machine);
    let force = Force::with_machine(4, Arc::clone(&machine));
    let ring = AsyncArray::<u64>::new(&machine, 4);
    let fault = force
        .try_execute_with(
            RunOptions {
                backend: ParkBackend::Virtual { seed },
                trace: true,
                ..RunOptions::default()
            },
            |p| {
                let left = (p.pid() + p.nproc() - 1) % p.nproc();
                for trip in 0..4 {
                    if p.pid() == 1 && trip == 2 {
                        // A panic, minus the hook's 900 messages.
                        std::panic::resume_unwind(Box::new("pid 1 dies at its third trip"));
                    }
                    ring.produce(p.pid(), trip);
                    let _ = ring.consume(left);
                }
            },
        )
        .expect_err("pid 1 panics");
    let summary = force.last_virtual_summary().expect("virtual summary");
    let trace = force.fault_plane().profile_report().expect("traced run");
    (fault, summary, trace.chrome_trace_json())
}

#[test]
fn a_faulted_run_replays_its_teardown() {
    // After the trip the run token walks the survivors in pid order, each
    // unwinding when it is granted it: the teardown is part of the
    // schedule, so the summary of a faulted run is a replay key.
    for machine in MachineId::all() {
        for seed in [1, 0xF0CE, 0xDEAD_BEEF] {
            let (fault, summary, trace) = run_faulted(machine, seed);
            assert_eq!(
                (fault.pid, fault.payload.as_str()),
                (1, "pid 1 dies at its third trip")
            );
            for repeat in 1..50 {
                let again = run_faulted(machine, seed);
                let key = format!("{} seed {seed:#x}, repeat {repeat}", machine.name());
                assert_eq!(again.0, fault, "fault diverged: {key}");
                assert_eq!(again.1, summary, "summary diverged: {key}");
                assert!(again.2 == trace, "trace JSON diverged: {key}");
            }
        }
    }
}

/// The decision digest of the barrier corpus at nproc=4, seed `0xF0CE`,
/// on the Cray-2 personality — pinned by `golden_seed_schedule_is_pinned`.
const GOLDEN_DIGEST: u64 = 0x1d3d_0e6e_698a_51ff;

#[test]
fn golden_seed_schedule_is_pinned() {
    // A pinned interleaving regression: the exact decision digest of
    // one (seed, machine, corpus) triple.  Any change to decision-point
    // placement, cost pricing, or the picker's RNG stream shows up here
    // as a changed digest — which is the point: schedule changes must
    // be deliberate, visible, and reviewed, not silent.
    let (summary, _, _) = run_virtual(MachineId::Cray2, 4, 0xF0CE, Corpus::Barrier);
    let (again, _, _) = run_virtual(MachineId::Cray2, 4, 0xF0CE, Corpus::Barrier);
    assert_eq!(summary, again, "the golden schedule itself must replay");
    assert_eq!(summary.seed, 0xF0CE);
    assert_eq!(
        summary.digest, GOLDEN_DIGEST,
        "the pinned Cray-2 barrier schedule changed; if deliberate, \
         update GOLDEN_DIGEST (decisions={}, makespan={}ns, digest={:#x})",
        summary.decisions, summary.makespan_ns, summary.digest
    );
}
