//! The differential check the integration tests share: every `.force`
//! program a test runs on the production path (the bytecode VM behind
//! `Engine`) is run again under the reference interpreter
//! (`fortran::oracle::Oracle`) and the two runs must agree.
//!
//! Each test binary that declares `mod support;` uses its own subset.
#![allow(dead_code)]

pub mod corpus;

use std::sync::Arc;

use the_force::fortran::oracle::Oracle;
use the_force::fortran::{Engine, RunOutput};
use the_force::machdep::{Machine, MachineId, RunOptions};
use the_force::prep::{preprocess_cached, ExpandedProgram};

/// FNV-1a of a text: the digest the pinned tables hold.
pub fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// Op counters whose value depends on thread timing (how often a lock was
/// seen held, how many spin retries happened, who stole work).  Everything
/// else — acquisitions, releases, barrier episodes, allocation, process
/// creation, fault bookkeeping — must match exactly between executors.
pub const TIMING_DEPENDENT_COUNTERS: &[&str] = &[
    "lock_contended",
    "syscalls",
    "parks",
    "park_wakes",
    "park_spurious_wakes",
    "spin_retries",
    "steals",
    "steal_attempts_failed",
    "cancellations_observed",
];

/// Load `src` for the reference interpreter onto `machine`.
pub fn load_oracle(src: &str, machine: &Arc<Machine>) -> Oracle {
    let id = machine.id();
    let expanded = preprocess_cached(src, id)
        .unwrap_or_else(|e| panic!("{}: preprocessor rejected program: {e}", id.name()));
    Oracle::from_expanded(&expanded, Arc::clone(machine))
        .unwrap_or_else(|e| panic!("{}: front end rejected program: {e}", id.name()))
}

/// One run under the reference interpreter; a runtime error comes back as
/// its display string, which is what the equivalence contract compares.
pub fn run_oracle(
    src: &str,
    id: MachineId,
    nproc: usize,
    options: RunOptions,
) -> Result<RunOutput, String> {
    load_oracle(src, &Machine::new(id))
        .run_with(nproc, options)
        .map_err(|e| e.to_string())
}

/// Everything observable about two runs of one program agrees: prints (as
/// a multiset — processes interleave), final shared memory, linker passes
/// and every op counter that is not timing-dependent.
pub fn assert_same_run(label: &str, oracle: &RunOutput, vm: &RunOutput) {
    let sorted = |v: &[String]| {
        let mut v = v.to_vec();
        v.sort();
        v
    };
    assert_eq!(
        sorted(&oracle.prints),
        sorted(&vm.prints),
        "{label}: prints diverge"
    );
    assert_eq!(
        oracle.shared_values, vm.shared_values,
        "{label}: final shared memory diverges"
    );
    assert_eq!(
        oracle.linker_commands, vm.linker_commands,
        "{label}: linker passes diverge"
    );
    for ((name, o), (vname, v)) in oracle.stats.fields().iter().zip(vm.stats.fields().iter()) {
        assert_eq!(name, vname);
        if TIMING_DEPENDENT_COUNTERS.contains(name) {
            continue;
        }
        assert_eq!(o, v, "{label}: op counter {name} diverges");
    }
}

/// Run an expansion under both executors, each on a machine `machine`
/// returns (which need not be the one it was expanded for; a fresh one
/// each, or one both share): either both succeed and agree, as
/// [`assert_same_run`] defines it, and the production output comes back;
/// or both fail with the same error text — line included — and that
/// text comes back.
pub fn run_parity(
    expanded: &ExpandedProgram,
    machine: impl Fn() -> Arc<Machine>,
    nproc: usize,
) -> Result<RunOutput, String> {
    let (on_vm, on_oracle) = (machine(), machine());
    let label = format!("{} nproc={nproc}", on_vm.id().name());
    let vm = Engine::from_expanded(expanded, on_vm)
        .and_then(|engine| engine.run(nproc))
        .map_err(|e| e.to_string());
    let oracle = Oracle::from_expanded(expanded, on_oracle)
        .and_then(|oracle| oracle.run_with(nproc, RunOptions::default()))
        .map_err(|e| e.to_string());
    match (vm, oracle) {
        (Ok(vm), Ok(oracle)) => {
            assert_same_run(&label, &oracle, &vm);
            Ok(vm)
        }
        (Err(vm), Err(oracle)) => {
            assert_eq!(
                vm, oracle,
                "{label}: the errors diverge (vm left, oracle right)"
            );
            Err(vm)
        }
        (vm, oracle) => panic!(
            "{label}: one executor failed — vm: {:?}, oracle: {:?}",
            vm.err(),
            oracle.err()
        ),
    }
}

/// The production run of `src` on `machine`, checked against the oracle
/// loaded onto the same machine: both must succeed and agree.  Returns the
/// production output for the caller's own assertions.
pub fn run_checked_on(src: &str, machine: &Arc<Machine>, nproc: usize) -> RunOutput {
    let id = machine.id();
    let expanded = preprocess_cached(src, id)
        .unwrap_or_else(|e| panic!("{}: preprocessor rejected program: {e}", id.name()));
    run_parity(&expanded, || Arc::clone(machine), nproc)
        .unwrap_or_else(|e| panic!("{} nproc={nproc}: both runs failed: {e}", id.name()))
}

/// [`run_checked_on`] a machine of the caller's choice of personality,
/// booted for the occasion.
pub fn run_checked(src: &str, id: MachineId, nproc: usize) -> RunOutput {
    run_checked_on(src, &Machine::new(id), nproc)
}
