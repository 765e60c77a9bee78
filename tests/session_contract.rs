//! The session contract, written once for every front end.  `Force`,
//! `Engine` and the `Oracle` run, serve and report a job through one
//! machine-dependent `Session`; this table holds each of them to the same
//! record after a clean or a faulted run, on wall or virtual time, and to
//! the same hygiene when one session is served, run directly and served
//! again.

mod support;

use std::sync::Arc;
use std::time::Duration;

use the_force::core::{Force, ForcePool, Player};
use the_force::fortran::oracle::Oracle;
use the_force::fortran::Engine;
use the_force::machdep::{
    charge_virtual, Machine, MachineId, OpStats, ParkBackend, ProfileReport, RunOptions,
    StatsSnapshot, VirtualSummary,
};
use the_force::prep::preprocess;
use the_force::serve::{
    engine_runner, force_runner, ForceServer, JobError, JobOutcome, JobRunner, JobSpec, JobYield,
    ServerConfig,
};

const NPROC: usize = 2;

/// What a native virtual run models: more than any deadline here allows.
const TEN_SECONDS: u64 = 10_000_000_000;

/// Clean at `NP` 2; at `NP` 3 every process subscripts past `A`.
const PROGRAM: &str = "\
      Force FMAIN of NP ident ME
      Shared INTEGER N, A(2)
      End declarations
      Critical L
      N = N + 1
      End critical
      Barrier
      N = N + 1
      End barrier
      A(NP) = ME
      Join
";

#[derive(Clone, Copy, Debug, PartialEq)]
enum Mode {
    Clean,
    Faulted,
    Virtual,
    FaultedVirtual,
}

impl Mode {
    fn faulted(self) -> bool {
        matches!(self, Mode::Faulted | Mode::FaultedVirtual)
    }

    fn is_virtual(self) -> bool {
        matches!(self, Mode::Virtual | Mode::FaultedVirtual)
    }

    /// Every run traces.
    fn options(self) -> RunOptions {
        RunOptions {
            trace: true,
            backend: if self.is_virtual() {
                ParkBackend::Virtual { seed: 0xF0CE }
            } else {
                ParkBackend::ThreadPerPid
            },
            ..RunOptions::default()
        }
    }
}

/// The native program: `PROGRAM`'s critical and barrier, a casualty when
/// faulted, and ten modeled seconds when virtual.
fn native_body(p: &Player, mode: Mode) {
    if mode == Mode::Virtual {
        charge_virtual(TEN_SECONDS);
    }
    p.critical("L", || ());
    p.barrier();
    assert!(!mode.faulted() || p.pid() != 0, "casualty");
}

/// A session's report of its last run: the stats delta, the traced
/// profile and the virtual summary.
type Record = (
    Option<StatsSnapshot>,
    Option<ProfileReport>,
    Option<VirtualSummary>,
);

enum Front {
    Force(Arc<Force>, &'static str),
    Engine(Arc<Engine>),
    Oracle(Arc<Oracle>),
}

impl Front {
    /// One session of each front end on `machine`, a pooled force among
    /// them.
    fn all(machine: &Arc<Machine>) -> [Front; 4] {
        let expanded = preprocess(PROGRAM, machine.id()).unwrap();
        let pool = Arc::new(ForcePool::new(NPROC, machine.stats()));
        [
            Front::Force(
                Arc::new(Force::with_machine(NPROC, Arc::clone(machine))),
                "Force",
            ),
            Front::Force(
                Arc::new(Force::with_machine(NPROC, Arc::clone(machine)).with_pool(pool)),
                "pooled Force",
            ),
            Front::Engine(Arc::new(
                Engine::from_expanded(&expanded, Arc::clone(machine)).unwrap(),
            )),
            Front::Oracle(Arc::new(support::load_oracle(PROGRAM, machine))),
        ]
    }

    fn name(&self) -> &'static str {
        match self {
            Front::Force(_, name) => name,
            Front::Engine(_) => "Engine",
            Front::Oracle(_) => "Oracle",
        }
    }

    /// Processes a direct run creates.
    fn created(&self) -> u64 {
        match self {
            Front::Force(_, "pooled Force") => 0,
            _ => NPROC as u64,
        }
    }

    /// One direct run; `Err` when it failed.
    fn run(&self, mode: Mode) -> Result<(), String> {
        let nproc = if mode.faulted() { NPROC + 1 } else { NPROC };
        match self {
            Front::Force(force, _) => force
                .try_execute_with(mode.options(), |p| native_body(p, mode))
                .map(|_| ())
                .map_err(|f| f.to_string()),
            Front::Engine(engine) => engine
                .run_with(nproc, mode.options())
                .map(|_| ())
                .map_err(|e| e.to_string()),
            Front::Oracle(oracle) => oracle
                .run_with(nproc, mode.options())
                .map(|_| ())
                .map_err(|e| e.to_string()),
        }
    }

    /// What the session reports of its last run.
    fn record(&self) -> Record {
        let engine = match self {
            Front::Force(f, _) => {
                return (
                    f.last_job_stats(),
                    f.last_job_profile(),
                    f.last_virtual_summary(),
                )
            }
            Front::Engine(engine) => &**engine,
            Front::Oracle(oracle) => oracle.engine(),
        };
        (
            engine.last_job_stats(),
            engine.last_job_profile(),
            engine.last_virtual_summary(),
        )
    }

    /// A served job of the clean program.
    fn runner(&self) -> JobRunner {
        let options = RunOptions::default();
        match self {
            Front::Force(force, _) => force_runner(force, options, |p| native_body(p, Mode::Clean)),
            Front::Engine(engine) => engine_runner(engine, NPROC, options, |_| ()),
            Front::Oracle(oracle) => {
                let oracle = Arc::clone(oracle);
                Box::new(move |cx| {
                    let options = cx.bind_attempt(&oracle.engine().fault_plane(NPROC), options);
                    oracle
                        .run_with(NPROC, options)
                        .map(|_| JobYield::default())
                        .map_err(|e| JobError::classify("interpreter", e.to_string()))
                })
            }
        }
    }
}

#[test]
fn every_front_end_keeps_one_session_contract() {
    let machine = Machine::new(MachineId::EncoreMultimax);
    for front in Front::all(&machine) {
        // Each mode twice in a row, after each other mode: nothing a run
        // records may survive the run after it.
        for mode in [
            Mode::Clean,
            Mode::Faulted,
            Mode::Virtual,
            Mode::FaultedVirtual,
            Mode::Clean,
            Mode::FaultedVirtual,
            Mode::Faulted,
            Mode::Virtual,
            Mode::Clean,
        ] {
            let label = format!("{} after {mode:?}", front.name());
            let records = [(); 2].map(|()| (front.run(mode), front.record()));
            for (ran, (stats, profile, summary)) in &records {
                let clean = !mode.faulted();
                assert_eq!(ran.is_ok(), clean, "{label}: {ran:?}");
                assert_eq!(stats.is_some(), clean, "{label}: the stats delta");
                assert_eq!(profile.is_some(), clean, "{label}: the traced profile");
                // The replay key outlives a fault.
                assert_eq!(summary.is_some(), mode.is_virtual(), "{label}: replay key");
            }
            let [(_, (first, _, a)), (_, (second, _, b))] = &records;
            assert_eq!(a, b, "{label}: two virtual runs, one schedule");
            if let (Some(first), Some(second)) = (first, second) {
                assert!(first.lock_acquires > 0, "{label}");
                assert_eq!(
                    first.lock_acquires, second.lock_acquires,
                    "{label}: a per-job delta, not a running total"
                );
            }
        }
    }
}

#[test]
fn a_session_serves_runs_directly_and_serves_again_with_nothing_left_over() {
    let machine = Machine::new(MachineId::EncoreMultimax);
    let server = ForceServer::new(ServerConfig::default(), Arc::new(OpStats::new()));
    let lent = NPROC <= the_force::machdep::default_nproc();
    for front in Front::all(&machine) {
        let name = front.name();
        for round in 0..2 {
            // The attempt binds a loan and a deadline it beats.
            let spec = JobSpec::for_tenant(name).with_deadline(Duration::from_secs(2));
            let job = server.submit(spec, front.runner()).expect_admitted();
            assert_eq!(job.wait(), JobOutcome::Completed { retries: 0 }, "{name}");
            let served = front.record().0.expect("a served run's delta");
            if lent {
                assert_eq!(served.processes_created, 0, "{name} {round}: lent");
            }
            // A direct run: no trip, no loan...
            front
                .run(Mode::Clean)
                .expect("no trip outlives its attempt");
            let direct = front.record().0.expect("a direct run's delta");
            assert_eq!(direct.processes_created, front.created(), "{name} {round}");
            // ...and no deadline: a native run models ten seconds here.
            front
                .run(Mode::Virtual)
                .expect("no deadline outlives its attempt");
        }
    }
    server.shutdown();
}
