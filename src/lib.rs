//! # the-force — a Rust reproduction of *The Force: A Highly Portable
//! Parallel Programming Language* (Jordan, Benten, Alaghband & Jakob,
//! ICPP 1989)
//!
//! This facade crate ties together the five subsystems of the
//! reproduction:
//!
//! * [`machdep`] ([`force_machdep`]) — the machine-dependent layer:
//!   generic locks, shared-memory designation, process-creation models,
//!   and six simulated machine personalities (HEP, Flex/32, Encore
//!   Multimax, Sequent Balance, Alliant FX/8, Cray-2);
//! * [`core`] ([`force_core`]) — the machine-independent Force runtime as
//!   a native Rust API: the force of processes, barriers (with sections),
//!   prescheduled/selfscheduled DOALL, Pcase, Askfor, Resolve, critical
//!   sections, and full/empty asynchronous variables;
//! * [`prep`] ([`force_prep`]) — the Force *language*: a sed-like phase-1
//!   translator and a from-scratch m4-subset macro processor implementing
//!   the paper's two-level macro scheme, plus per-machine driver
//!   generation;
//! * [`fortran`] ([`force_fortran`]) — the mini-Fortran substrate that
//!   executes the preprocessor's output with N concurrent interpreter
//!   processes over shared COMMON storage;
//! * [`serve`] ([`force_serve`]) — the multi-tenant job server on top of
//!   both front ends: admission, rate limits, sharded dispatch, deadlines,
//!   retries and per-tenant rollups.
//!
//! ## Quickstart (native API)
//!
//! ```
//! use the_force::prelude::*;
//! use std::sync::atomic::{AtomicU64, Ordering};
//!
//! let force = Force::new(4);
//! let sum = AtomicU64::new(0);
//! force.run(|p| {
//!     p.selfsched_do(ForceRange::to(1, 100), |i| {
//!         sum.fetch_add(i as u64, Ordering::Relaxed);
//!     });
//! });
//! assert_eq!(sum.load(Ordering::Relaxed), 5050);
//! ```
//!
//! ## Quickstart (the Force language)
//!
//! ```
//! use the_force::run_force_source;
//! use the_force::machdep::MachineId;
//!
//! let source = "\
//!       Force FMAIN of NP ident ME
//!       Shared INTEGER TOTAL
//!       Private INTEGER K
//!       End declarations
//!       Selfsched DO 100 K = 1, 10
//!       Critical LCK
//!       TOTAL = TOTAL + K
//!       End critical
//! 100   End selfsched DO
//!       Join
//! ";
//! // The same source runs, unmodified, on any of the six machines.
//! for id in MachineId::all() {
//!     let out = run_force_source(source, id, 4).unwrap();
//!     assert_eq!(out.shared_scalar("TOTAL").unwrap().as_int(0).unwrap(), 55);
//! }
//! ```
//!
//! ## Quickstart (serving many tenants)
//!
//! ```
//! use the_force::prelude::*;
//! use the_force::serve::{force_runner, ForceServer, JobSpec, Priority, ServerConfig, Submit};
//! use std::sync::Arc;
//! use std::time::Duration;
//!
//! let machine = Machine::new(MachineId::SequentBalance);
//! let pool = Arc::new(ForcePool::new(4, machine.stats()));
//! let force = Arc::new(Force::with_machine(4, Arc::clone(&machine)).with_pool(pool));
//! let server = ForceServer::new(ServerConfig::default(), machine.stats());
//!
//! let spec = JobSpec::for_tenant("acme")
//!     .with_priority(Priority::High)
//!     .with_deadline(Duration::from_secs(5))
//!     .with_max_retries(2);
//! let runner = force_runner(&force, RunOptions::default(), |p| {
//!     p.barrier();
//!     // ... the job body runs on every process of the force ...
//! });
//! match server.submit(spec, runner) {
//!     Submit::Admitted(handle) => {
//!         let outcome = handle.wait(); // Completed / Faulted / DeadlineExceeded / Shed
//!         assert!(outcome.is_success());
//!     }
//!     Submit::Rejected { reason } => eprintln!("backpressure: {reason}"),
//! }
//!
//! // Per-tenant rollups: outcome counts, op-stats sums, latency histogram.
//! let acme = server.tenant_report("acme").unwrap();
//! println!("acme: {} done, p99 {} ns", acme.completed, acme.latency.percentile(0.99));
//! server.shutdown(); // graceful: drains admitted jobs
//! ```
//!
//! ## Observability
//!
//! Both front ends can trace a job: set
//! [`RunOptions::trace`](machdep::RunOptions) for the run
//! (`Force::try_execute_with`, `Engine::run_with`) and read the resulting
//! [`ProfileReport`](machdep::ProfileReport) from
//! `Force::last_job_profile` / `Engine::last_job_profile` — per-construct
//! wait/hold histograms, named-lock contention, barrier arrival spread,
//! DOALL trip distribution, and a Chrome `trace_event` export
//! ([`ProfileReport::chrome_trace_json`](machdep::ProfileReport::chrome_trace_json)).

pub use force_core as core;
pub use force_fortran as fortran;
pub use force_prep as prep;
pub use force_serve as serve;

/// The machine-dependent layer: every item of [`force_machdep`].
///
/// The job-server names listed beside it are here only for
/// `benchmark/src/round.rs`, which imports them from this path; the
/// server lives in [`serve`], where everything else names it.
pub mod machdep {
    pub use force_machdep::*;
    pub use force_serve::{
        ForceServer, JobCx, JobError, JobOutcome, JobRunner, JobSpec, JobYield, Priority,
        ServerConfig, Submit,
    };
}

/// Convenience prelude: the native Force API plus machine personalities.
pub mod prelude {
    pub use force_core::prelude::*;
}

use std::sync::Arc;

/// Errors from the end-to-end language pipeline.
#[derive(Debug)]
pub enum ForceError {
    /// Preprocessing failed.
    Prep(force_prep::PrepError),
    /// Compilation or execution failed.
    Fortran(force_fortran::FortError),
    /// A process of the force faulted (panic, injected fault, or deadlock
    /// watchdog trip), and the fault plane contained it instead of letting
    /// the force hang.
    ProcessFault {
        /// The faulting process identifier.
        pid: usize,
        /// The Force construct the process faulted in ("barrier",
        /// "critical", "consume", ...).
        construct: &'static str,
        /// The fault description (panic message, injected-fault tag, or
        /// watchdog report).
        payload: String,
    },
    /// A served job missed its deadline — a latency outcome, not a
    /// program bug: the job was torn down (or expired in queue) because
    /// its time budget ran out, and retrying with a larger budget may
    /// well succeed.
    DeadlineExceeded {
        /// Whether the job ever started running (`false`: it expired
        /// while still queued).
        ran: bool,
    },
    /// The job server refused or dropped the job under load (admission
    /// backpressure, drain, or load shedding) — nothing about the job
    /// itself failed, and resubmitting later is the expected response.
    Rejected {
        /// Human-readable reason (queue-full, shutting-down, shed).
        reason: String,
    },
    /// The machine's scarce physical lock pool could not host another
    /// state-encoding lock (§4.1.3).  Asynchronous variables beyond the
    /// pool's capacity used to alias critical slots and silently break
    /// their full/empty protocol; now the allocation fails structurally.
    /// Use fewer async channels, or a machine with plentiful locks.
    ScarceLocks(machdep::ScarceLockError),
}

impl ForceError {
    /// Whether this error is *load-induced* — the serving layer's
    /// flow-control talking (deadline missed, queue full, shed) — as
    /// opposed to a real program fault.  Load-induced errors are safe to
    /// retry later; faults generally are not.
    pub fn is_load_induced(&self) -> bool {
        matches!(
            self,
            ForceError::DeadlineExceeded { .. } | ForceError::Rejected { .. }
        )
    }

    /// Map a served job's terminal [`JobOutcome`](serve::JobOutcome)
    /// onto the facade's error taxonomy: `Completed` is `Ok`, everything
    /// else picks the matching variant (`Shed` and rejections both
    /// become [`ForceError::Rejected`], keeping "the server said no"
    /// distinguishable from "your program is broken").
    pub fn from_outcome(outcome: serve::JobOutcome) -> Result<(), ForceError> {
        match outcome {
            serve::JobOutcome::Completed { .. } => Ok(()),
            serve::JobOutcome::Faulted { error, .. } => Err(match error {
                serve::JobError::Fault(f) => f.into(),
                serve::JobError::Deterministic(msg) => ForceError::Fortran(
                    force_fortran::FortError::general(force_fortran::FortErrorKind::Structure(msg)),
                ),
            }),
            serve::JobOutcome::DeadlineExceeded { ran } => {
                Err(ForceError::DeadlineExceeded { ran })
            }
            serve::JobOutcome::Shed => Err(ForceError::Rejected {
                reason: "shed under load".into(),
            }),
        }
    }
}

impl std::fmt::Display for ForceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ForceError::Prep(e) => write!(f, "preprocessor: {e}"),
            ForceError::Fortran(e) => write!(f, "execution: {e}"),
            ForceError::ProcessFault {
                pid,
                construct,
                payload,
            } => write!(f, "process {pid} faulted in {construct}: {payload}"),
            ForceError::DeadlineExceeded { ran: true } => {
                write!(f, "deadline exceeded: job cancelled while running")
            }
            ForceError::DeadlineExceeded { ran: false } => {
                write!(f, "deadline exceeded: job expired in queue")
            }
            ForceError::Rejected { reason } => write!(f, "rejected: {reason}"),
            ForceError::ScarceLocks(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ForceError {}

impl From<force_prep::PrepError> for ForceError {
    fn from(e: force_prep::PrepError) -> Self {
        ForceError::Prep(e)
    }
}

impl From<force_fortran::FortError> for ForceError {
    fn from(e: force_fortran::FortError) -> Self {
        ForceError::Fortran(e)
    }
}

impl From<machdep::ProcessFault> for ForceError {
    fn from(f: machdep::ProcessFault) -> Self {
        ForceError::ProcessFault {
            pid: f.pid,
            construct: f.construct,
            payload: f.payload,
        }
    }
}

impl From<machdep::ScarceLockError> for ForceError {
    fn from(e: machdep::ScarceLockError) -> Self {
        ForceError::ScarceLocks(e)
    }
}

impl From<serve::RejectReason> for ForceError {
    fn from(reason: serve::RejectReason) -> Self {
        ForceError::Rejected {
            reason: reason.to_string(),
        }
    }
}

/// Run a Force-language source end to end: preprocess for `machine`
/// (through the process's default [`prep::ExpansionCache`] — re-running
/// the same source skips the sed/m4 passes and the compile for as long
/// as its entry is resident), load onto a fresh instance of that
/// machine, execute with a force of `nproc` processes, and return the
/// observable output.
///
/// This is the whole §4.3 pipeline in one call — the moral equivalent of
/// `forcecompile prog.force && a.out`.
pub fn run_force_source(
    source: &str,
    machine: machdep::MachineId,
    nproc: usize,
) -> Result<fortran::RunOutput, ForceError> {
    let expanded = prep::preprocess_cached(source, machine)?;
    let m = machdep::Machine::new(machine);
    let engine = fortran::Engine::from_expanded(&expanded, Arc::clone(&m))?;
    Ok(engine.run(nproc)?)
}

/// Preprocess (through the default expansion cache) and load a Force
/// program without running it (useful when a caller wants to run the
/// same engine several times or inspect the expansion).  What is
/// returned is the caller's to keep: it stays whole when the cache
/// evicts its entry.
pub fn compile_force_source(
    source: &str,
    machine: machdep::MachineId,
) -> Result<(Arc<prep::ExpandedProgram>, fortran::Engine), ForceError> {
    let expanded = prep::preprocess_cached(source, machine)?;
    let m = machdep::Machine::new(machine);
    let engine = fortran::Engine::from_expanded(&expanded, m)?;
    Ok((expanded, engine))
}

#[cfg(test)]
mod tests {
    use super::*;
    use machdep::MachineId;

    #[test]
    fn end_to_end_pipeline_runs() {
        let src = "\
      Force FMAIN of NP ident ME
      Shared INTEGER N
      End declarations
      Critical L
      N = N + 1
      End critical
      Join
";
        let out = run_force_source(src, MachineId::Flex32, 5).unwrap();
        assert_eq!(out.shared_scalar("N").unwrap(), fortran::Value::Int(5));
    }

    #[test]
    fn compile_then_run_repeatedly() {
        let src = "\
      Force FMAIN of NP ident ME
      Shared INTEGER N
      End declarations
      Critical L
      N = N + 1
      End critical
      Join
";
        let (expanded, engine) = compile_force_source(src, MachineId::Hep).unwrap();
        assert!(expanded.code.contains("ZZFELCK"));
        for nproc in [1, 2, 4] {
            let out = engine.run(nproc).unwrap();
            assert_eq!(
                out.shared_scalar("N").unwrap(),
                fortran::Value::Int(nproc as i64)
            );
        }
    }

    #[test]
    fn traced_language_run_yields_a_profile() {
        let src = "\
      Force FMAIN of NP ident ME
      Shared INTEGER N
      End declarations
      Barrier
      N = N + 1
      End barrier
      Join
";
        let (_expanded, engine) = compile_force_source(src, MachineId::SequentBalance).unwrap();
        let opts = machdep::RunOptions {
            trace: true,
            ..machdep::RunOptions::default()
        };
        let out = engine.run_with(3, opts).unwrap();
        let profile = out.profile.expect("traced run yields a profile");
        assert!(profile.construct("interpreter").is_some());
        let json = profile.chrome_trace_json();
        assert!(json.contains("\"traceEvents\""), "{json}");
    }

    #[test]
    fn errors_are_reported_with_phase() {
        let err = run_force_source("      Consume X\n", MachineId::Hep, 1).unwrap_err();
        assert!(err.to_string().starts_with("preprocessor:"), "{err}");
    }

    #[test]
    fn serving_errors_are_distinguishable_from_faults() {
        // Callers must be able to tell shed load / missed deadlines from
        // real program faults — the former retry later, the latter don't.
        let deadline = ForceError::DeadlineExceeded { ran: true };
        let rejected: ForceError = serve::RejectReason::QueueFull {
            tenant: "acme".into(),
            capacity: 64,
        }
        .into();
        let fault: ForceError = machdep::ProcessFault {
            pid: 2,
            construct: "barrier",
            payload: "boom".into(),
        }
        .into();
        assert!(deadline.is_load_induced());
        assert!(rejected.is_load_induced());
        assert!(!fault.is_load_induced());
        assert_eq!(
            deadline.to_string(),
            "deadline exceeded: job cancelled while running"
        );
        assert_eq!(
            ForceError::DeadlineExceeded { ran: false }.to_string(),
            "deadline exceeded: job expired in queue"
        );
        assert_eq!(
            rejected.to_string(),
            "rejected: tenant `acme` queue full (capacity 64)"
        );
        assert_eq!(fault.to_string(), "process 2 faulted in barrier: boom");
    }

    #[test]
    fn job_outcomes_round_trip_into_force_errors() {
        use machdep::ProcessFault;
        use serve::{JobError, JobOutcome};
        assert!(ForceError::from_outcome(JobOutcome::Completed { retries: 3 }).is_ok());
        match ForceError::from_outcome(JobOutcome::DeadlineExceeded { ran: false }) {
            Err(ForceError::DeadlineExceeded { ran: false }) => {}
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        match ForceError::from_outcome(JobOutcome::Shed) {
            Err(e @ ForceError::Rejected { .. }) => {
                assert!(e.is_load_induced());
                assert_eq!(e.to_string(), "rejected: shed under load");
            }
            other => panic!("expected Rejected, got {other:?}"),
        }
        match ForceError::from_outcome(JobOutcome::Faulted {
            error: JobError::Fault(ProcessFault {
                pid: 1,
                construct: "doall",
                payload: "boom".into(),
            }),
            retries: 2,
        }) {
            Err(ForceError::ProcessFault { pid: 1, .. }) => {}
            other => panic!("expected ProcessFault, got {other:?}"),
        }
        match ForceError::from_outcome(JobOutcome::Faulted {
            error: JobError::Deterministic("line 3: divide by zero".into()),
            retries: 0,
        }) {
            Err(e @ ForceError::Fortran(_)) => {
                assert!(!e.is_load_induced());
                assert!(e.to_string().contains("divide by zero"));
            }
            other => panic!("expected Fortran, got {other:?}"),
        }
    }
}
