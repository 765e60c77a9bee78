//! End-to-end serving: one `ForceServer` driving real pooled `Force`
//! sessions and language `Engine`s under fault injection, deadlines,
//! and overload.  The soak test pushes >1k mixed jobs through a single
//! server and checks the isolation contract job by job: no shared-memory
//! bleed, no stats bleed, no trace bleed, retries recover every
//! transient fault, deterministic errors never retry, and the pool is
//! still healthy when the server is gone.

mod support;

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use the_force::core::{Force, ForcePool};
use the_force::fortran::{Engine, Value};
use the_force::machdep::{FaultInjection, Machine, MachineId, OpStats, RunOptions, StatsSnapshot};
use the_force::prep::preprocess;
use the_force::serve::{
    engine_runner, force_runner, ForceServer, JobError, JobOutcome, JobRunner, JobSpec, JobYield,
    Priority, RejectReason, ServerConfig, Submit,
};
use the_force::ForceError;

const NPROC: usize = 4;

/// `1 + 2 + ... + nproc`: what each compute job's cell must equal.
const CELL_SUM: u64 = (NPROC as u64 * (NPROC as u64 + 1)) / 2;

const LANG_PROGRAM: &str = "\
      Force FMAIN of NP ident ME
      Shared INTEGER N
      End declarations
      Critical L
      N = N + 1
      End critical
      Join
";

/// Deterministic runtime error: subscript out of bounds on every run.
const BAD_SUBSCRIPT_PROGRAM: &str = "\
      Force FMAIN of NP ident ME
      Shared INTEGER A(4)
      Private INTEGER K
      End declarations
      K = 5
      A(K) = 1
      Join
";

/// A long barrier loop: enough cancellable waits that a deadline trip
/// tears the run down long before it finishes on its own.
const SLOW_LANG_PROGRAM: &str = "\
      Force FMAIN of NP ident ME
      Shared INTEGER N
      Private INTEGER K
      End declarations
      DO 100 K = 1, 50000
      Barrier
      N = N + 1
      End barrier
100   CONTINUE
      Join
";

/// A private loop: no barrier, lock or async access — nothing that waits,
/// so only the VM's back-edge check can end it early.  A force of one
/// skips almost all of it (the ordinary job of the same engine).
const PRIVATE_LOOP_PROGRAM: &str = "\
      Force FMAIN of NP ident ME
      Shared INTEGER DONE
      Private INTEGER K
      End declarations
      K = 0
      IF (NP .EQ. 1) K = 1999999990
10    K = K + 1
      IF (K .LT. 2000000000) GO TO 10
      Critical L
      DONE = DONE + 1
      End critical
      Join
";

/// The same in operand form: a structured all-INTEGER DO around a loop
/// closed by `IF … GO TO`, each head and statement of which is one
/// instruction.  The inner loop's back-edge is a fused compare-and-branch,
/// and the first trip of the DO does not end before the deadline: if
/// that branch did not count toward the cancellation check, nothing
/// would.
const OPERAND_LOOP_PROGRAM: &str = "\
      Force FMAIN of NP ident ME
      Shared INTEGER DONE
      Private INTEGER I, J, K, N
      End declarations
      N = 500000000
      IF (NP .EQ. 1) N = 2
      DO 10 I = 1, N
      J = 0
20    J = J + 1
      K = K + J
      IF (J .LT. N) GO TO 20
10    CONTINUE
      Critical L
      DONE = DONE + 1
      End critical
      Join
";

/// `src` loaded onto `machine` as a session that runs on `pool`.
fn pooled_engine(src: &str, machine: &Arc<Machine>, pool: &Arc<ForcePool>) -> Arc<Engine> {
    let expanded = preprocess(src, machine.id()).unwrap();
    let engine = Engine::from_expanded(&expanded, Arc::clone(machine)).unwrap();
    engine.set_pool(Arc::clone(pool));
    Arc::new(engine)
}

fn expect_admitted(submit: Submit) -> the_force::serve::JobHandle {
    match submit {
        Submit::Admitted(h) => h,
        Submit::Rejected { reason } => panic!("unexpected rejection: {reason}"),
    }
}

#[test]
fn soak_mixed_jobs_with_injection_and_no_cross_job_leakage() {
    let machine = Machine::new(MachineId::Flex32);
    let pool = Arc::new(ForcePool::new(NPROC, machine.stats()));
    let server = ForceServer::new(
        ServerConfig {
            tenant_queue_capacity: 2048,
            shed_watermark: 4096,
            retry_base: Duration::from_micros(50),
            ..ServerConfig::default()
        },
        machine.stats(),
    );

    let force =
        Arc::new(Force::with_machine(NPROC, Arc::clone(&machine)).with_pool(Arc::clone(&pool)));
    let traced_force =
        Arc::new(Force::with_machine(NPROC, Arc::clone(&machine)).with_pool(Arc::clone(&pool)));
    let lang = pooled_engine(LANG_PROGRAM, &machine, &pool);
    let bad = pooled_engine(BAD_SUBSCRIPT_PROGRAM, &machine, &pool);

    const COMPUTE: usize = 400;
    const TRACED: usize = 60;
    const FLAKY: usize = 300;
    const ONCE: usize = 40;
    const LANG: usize = 200;
    const DETERR: usize = 40;
    const TOTAL: u64 = (COMPUTE + TRACED + FLAKY + ONCE + LANG + DETERR) as u64;
    const _: () = assert!(TOTAL >= 1000, "soak must push at least 1k jobs");

    // Tenant "compute": each job gets a private result cell; every
    // process adds pid+1 between two barriers.  A cell not equal to
    // CELL_SUM afterwards would mean another job's processes wrote into
    // this job's shared state.
    let mut compute_cells = Vec::with_capacity(COMPUTE);
    let mut compute_handles = Vec::with_capacity(COMPUTE);
    for _ in 0..COMPUTE {
        let cell = Arc::new(AtomicU64::new(0));
        compute_cells.push(Arc::clone(&cell));
        let runner = force_runner(&force, RunOptions::default(), move |p| {
            p.barrier();
            cell.fetch_add(p.pid() as u64 + 1, Ordering::Relaxed);
            p.barrier();
        });
        compute_handles.push(expect_admitted(
            server.submit(JobSpec::for_tenant("compute"), runner),
        ));
    }

    // Tenant "traced": barrier-heavy traced jobs first, then one final
    // critical-only traced job.  The tenant rollup keeps the most recent
    // traced profile; if per-job trace isolation leaked, the barrier
    // episodes of the earlier jobs (same session, same sink) would show
    // up in the final job's profile.
    let traced_options = RunOptions {
        trace: true,
        ..RunOptions::default()
    };
    let mut traced_handles = Vec::with_capacity(TRACED);
    for _ in 0..TRACED - 1 {
        let runner = force_runner(&traced_force, traced_options, |p| {
            p.barrier();
            p.barrier();
        });
        traced_handles.push(expect_admitted(server.submit(
            JobSpec::for_tenant("traced").with_priority(Priority::High),
            runner,
        )));
    }
    let runner = force_runner(&traced_force, traced_options, |p| {
        p.critical("SOAK", || ());
    });
    traced_handles.push(expect_admitted(server.submit(
        JobSpec::for_tenant("traced").with_priority(Priority::High),
        runner,
    )));

    // Tenant "flaky": low-probability injected panics with a retry
    // budget.  The facade re-derives the injection seed per attempt, so
    // every injected fault is recoverable; all 300 must complete.
    let mut flaky_handles = Vec::with_capacity(FLAKY);
    for j in 0..FLAKY {
        let mut injection = FaultInjection::with_seed(0xf1a6 + j as u64);
        injection.panic_per_mille = 10;
        let options = RunOptions {
            injection: Some(injection),
            ..RunOptions::default()
        };
        let runner = force_runner(&force, options, |p| {
            p.barrier();
            p.barrier();
        });
        flaky_handles.push(expect_admitted(
            server.submit(
                JobSpec::for_tenant("flaky")
                    .with_priority(Priority::Low)
                    .with_max_retries(8),
                runner,
            ),
        ));
    }

    // Tenant "once": a custom runner that injects a certain fault on
    // attempt 0 only — a deterministic transient.  Every job must
    // complete with exactly one retry.
    let mut once_handles = Vec::with_capacity(ONCE);
    for j in 0..ONCE {
        let session = Arc::clone(&force);
        let runner: JobRunner = Box::new(move |cx| {
            cx.bind_plane(session.fault_plane());
            let mut options = RunOptions::default();
            if cx.attempt() == 0 {
                let mut injection = FaultInjection::with_seed(0x0ce + j as u64);
                injection.panic_per_mille = 1000;
                options.injection = Some(injection);
            }
            match session.try_execute_with(options, |p| p.barrier()) {
                Ok(_) => Ok(JobYield::default()),
                Err(fault) => Err(JobError::Fault(fault)),
            }
        });
        once_handles.push(expect_admitted(
            server.submit(
                JobSpec::for_tenant("once")
                    .with_priority(Priority::Low)
                    .with_max_retries(2),
                runner,
            ),
        ));
    }

    // Tenant "lang": interpreter jobs through the shared pool.  Each
    // run's COMMON block must start zeroed — N == nproc on every run or
    // shared memory leaked across jobs.
    let lang_outputs: Arc<Mutex<Vec<i64>>> = Arc::new(Mutex::new(Vec::new()));
    let mut lang_handles = Vec::with_capacity(LANG);
    for _ in 0..LANG {
        let sink = Arc::clone(&lang_outputs);
        let runner = engine_runner(&lang, NPROC, RunOptions::default(), move |out| {
            if let Some(Value::Int(n)) = out.shared_scalar("N") {
                sink.lock().unwrap().push(n);
            } else {
                sink.lock().unwrap().push(-1);
            }
        });
        lang_handles.push(expect_admitted(
            server.submit(JobSpec::for_tenant("lang"), runner),
        ));
    }

    // Tenant "deterr": a deterministic interpreter error with a generous
    // retry budget that must never be spent.
    let mut deterr_handles = Vec::with_capacity(DETERR);
    for _ in 0..DETERR {
        let runner = engine_runner(&bad, NPROC, RunOptions::default(), |_| ());
        deterr_handles.push(expect_admitted(
            server.submit(
                JobSpec::for_tenant("deterr")
                    .with_priority(Priority::High)
                    .with_max_retries(5),
                runner,
            ),
        ));
    }

    // Drain everything.
    for h in &compute_handles {
        assert!(h.wait().is_success(), "compute job {} failed", h.id());
    }
    for h in &traced_handles {
        assert!(h.wait().is_success(), "traced job {} failed", h.id());
    }
    for h in &flaky_handles {
        let outcome = h.wait();
        assert!(
            outcome.is_success(),
            "flaky job {} did not recover: {outcome:?}",
            h.id()
        );
    }
    for h in &once_handles {
        match h.wait() {
            JobOutcome::Completed { retries } => {
                assert_eq!(retries, 1, "once job {} took a surprising path", h.id())
            }
            other => panic!("once job {} ended {other:?}", h.id()),
        }
    }
    for h in &lang_handles {
        assert!(h.wait().is_success(), "lang job {} failed", h.id());
    }
    for h in &deterr_handles {
        match h.wait() {
            JobOutcome::Faulted { error, retries } => {
                assert_eq!(retries, 0, "deterministic errors must never retry");
                assert!(
                    matches!(error, JobError::Deterministic(_)),
                    "wrong class: {error:?}"
                );
                assert!(error.to_string().contains("outside 1..4"), "{error}");
            }
            other => panic!("deterr job {} ended {other:?}", h.id()),
        }
    }

    // Shared-memory isolation: every compute cell saw exactly its own
    // force's contributions.
    for (j, cell) in compute_cells.iter().enumerate() {
        assert_eq!(cell.load(Ordering::Relaxed), CELL_SUM, "cell {j} polluted");
    }
    // Every language run started from fresh COMMON storage.
    let outputs = lang_outputs.lock().unwrap();
    assert_eq!(outputs.len(), LANG);
    assert!(
        outputs.iter().all(|&n| n == NPROC as i64),
        "a language job saw another job's shared memory: {outputs:?}"
    );
    drop(outputs);

    // Stats isolation: jobs run one at a time, so tenant rollups are
    // exact.  Two barrier episodes per compute job — no more, no less.
    let compute = server.tenant_report("compute").unwrap();
    assert_eq!(compute.completed, COMPUTE as u64);
    assert_eq!(compute.faulted, 0);
    assert_eq!(compute.retries, 0);
    assert_eq!(
        compute.ops.barrier_episodes,
        2 * COMPUTE as u64,
        "compute tenant's stats absorbed another tenant's operations"
    );
    assert_eq!(compute.ops.faults_injected, 0);
    assert_eq!(compute.latency.count(), COMPUTE as u64);

    // Trace isolation: the final traced job ran criticals only; its
    // profile must not contain the earlier jobs' barrier episodes.
    let traced = server.tenant_report("traced").unwrap();
    assert_eq!(traced.completed, TRACED as u64);
    assert_eq!(traced.traced_jobs, TRACED as u64);
    let profile = traced.profile.expect("traced tenant keeps a profile");
    assert!(
        profile.construct("critical").is_some(),
        "final traced job's own construct is missing"
    );
    assert!(
        profile.construct("barrier").is_none(),
        "barrier events from earlier jobs leaked into a later job's trace"
    );

    // Retry accounting: every injected fault recovered, no injected
    // fault was misclassified as deterministic.
    let flaky = server.tenant_report("flaky").unwrap();
    assert_eq!(flaky.completed, FLAKY as u64);
    assert_eq!(flaky.faulted, 0);
    assert!(
        flaky.ops.faults_injected > 0,
        "the soak injected nothing — per-mille too low or injection broken"
    );
    let once = server.tenant_report("once").unwrap();
    assert_eq!(once.completed, ONCE as u64);
    assert_eq!(once.retries, ONCE as u64, "exactly one retry per once job");
    let deterr = server.tenant_report("deterr").unwrap();
    assert_eq!(deterr.faulted, DETERR as u64);
    assert_eq!(deterr.retries, 0);

    // Server-wide accounting balances.
    let report = server.server_report();
    assert_eq!(report.admitted, TOTAL);
    assert_eq!(report.rejected, 0);
    assert_eq!(report.shed, 0);
    assert_eq!(report.deadline_exceeded, 0);
    assert_eq!(report.completed + report.faulted, TOTAL);
    assert_eq!(report.faulted, DETERR as u64);
    assert_eq!(report.latency.count(), TOTAL);
    assert_eq!(report.retries, flaky.retries + once.retries);

    let snap = machine.stats().snapshot();
    assert_eq!(snap.watchdog_trips, 0, "the soak must not trip watchdogs");

    // The pool outlives the server: plain pooled runs still work.
    server.shutdown();
    let after = Arc::new(AtomicU64::new(0));
    let after2 = Arc::clone(&after);
    force
        .try_run(move |p| {
            p.barrier();
            after2.fetch_add(p.pid() as u64 + 1, Ordering::Relaxed);
        })
        .expect("pool must stay usable after the server is gone");
    assert_eq!(after.load(Ordering::Relaxed), CELL_SUM);
    let out = lang.run(NPROC).expect("engine must stay usable");
    assert_eq!(out.shared_scalar("N"), Some(Value::Int(NPROC as i64)));
}

/// Per-plane stats ownership end to end: two sessions on ONE machine run
/// jobs at the same time (a rendezvous proves the overlap), each served by
/// one of two servers that share the machine's stats.  Each session's
/// `last_job_stats` delta and each tenant's rollup must contain exactly
/// that job's own operations —
/// under machine-wide counter ownership the concurrent job's barriers
/// would bleed into both — while the machine-wide totals still equal
/// the sum of the per-plane deltas (every plane-local charge mirrors
/// into the machine block it chains from).
#[test]
fn concurrent_sessions_on_one_machine_report_disjoint_stats() {
    use the_force::serve::JobYield;

    let machine = Machine::new(MachineId::Flex32);
    let base = machine.stats().snapshot();
    // A server runs one job at a time: two run at once on two servers.
    let servers = [
        ForceServer::new(ServerConfig::default(), machine.stats()),
        ForceServer::new(ServerConfig::default(), machine.stats()),
    ];
    let tenants = ["tenant-0", "tenant-1"];
    let sessions = [
        Arc::new(Force::with_machine(NPROC, Arc::clone(&machine))),
        Arc::new(Force::with_machine(NPROC, Arc::clone(&machine))),
    ];
    const BARRIERS: [u64; 2] = [3, 5];

    let rendezvous = Arc::new(AtomicUsize::new(0));
    let mut handles = Vec::new();
    for i in 0..2 {
        let session = Arc::clone(&sessions[i]);
        let meet = Arc::clone(&rendezvous);
        let barriers = BARRIERS[i];
        let runner: JobRunner = Box::new(move |cx| {
            cx.bind_plane(session.fault_plane());
            // Hold the attempt until both servers are inside a job: the
            // two runs genuinely overlap on the one machine.
            meet.fetch_add(1, Ordering::SeqCst);
            let mut spins = 0u64;
            while meet.load(Ordering::SeqCst) < 2 {
                spins += 1;
                assert!(spins < 500_000, "peer job never started");
                std::thread::sleep(Duration::from_micros(10));
            }
            session
                .try_execute_with(RunOptions::default(), move |p| {
                    for _ in 0..barriers {
                        p.barrier();
                    }
                })
                .map(|_| JobYield::default())
                .map_err(JobError::Fault)
        });
        handles.push(expect_admitted(
            servers[i].submit(JobSpec::for_tenant(tenants[i]), runner),
        ));
    }
    for h in &handles {
        assert!(h.wait().is_success(), "job {} failed", h.id());
    }
    for server in &servers {
        server.shutdown();
    }

    // Each session's per-job delta holds exactly its own barriers.
    for i in 0..2 {
        let job = sessions[i]
            .last_job_stats()
            .expect("session ran a job to completion");
        assert_eq!(
            job.barrier_episodes, BARRIERS[i],
            "session {i} absorbed the concurrent session's barriers"
        );
    }
    // Each tenant's rollup holds exactly its own plane's delta.
    for i in 0..2 {
        let rollup = servers[i].tenant_report(tenants[i]).expect("tenant seen");
        assert_eq!(rollup.completed, 1);
        assert_eq!(
            rollup.ops.barrier_episodes, BARRIERS[i],
            "tenant {} absorbed the concurrent tenant's barriers",
            tenants[i]
        );
    }
    // The machine-wide view is the sum of the per-plane deltas.
    let total = machine.stats().snapshot().since(&base);
    assert_eq!(total.barrier_episodes, BARRIERS[0] + BARRIERS[1]);
}

/// A served job's tenant `ops` are its run's own counts, field by field:
/// what the driver of a `.force` job does around its force — create the
/// locks, designate `Shared` memory — is the job's, and lands in the one
/// block that `RunOutput::stats` and the server's per-attempt delta both
/// read.  One `.force` job per machine and a native job, at nproc 2.
#[test]
fn a_served_jobs_tenant_ops_are_its_runs_stats() {
    let (server, _) = server_with_own_stats(ServerConfig::default());
    let mut runs = Vec::new();
    for machine in Machine::all() {
        let tenant = machine.id().name().to_string();
        let engine = unpooled_engine(LANG_PROGRAM, &machine);
        let seen = Arc::new(Mutex::new(None));
        let slot = Arc::clone(&seen);
        let runner = engine_runner(&engine, 2, RunOptions::default(), move |out| {
            *slot.lock().unwrap() = Some(out.stats);
        });
        let job = expect_admitted(server.submit(JobSpec::for_tenant(&tenant), runner));
        assert!(job.wait().is_success(), "{tenant}: the job failed");
        let stats = seen.lock().unwrap().expect("a completed job's output");
        assert!(
            stats.locks_created > 0 && stats.shared_words > 0,
            "{tenant}: the driver's counts are the job's: {stats:?}"
        );
        runs.push((tenant, stats));
    }
    let force = Arc::new(Force::new(2));
    let runner = force_runner(&force, RunOptions::default(), |p| {
        p.critical("L", || {});
        p.barrier();
    });
    let job = expect_admitted(server.submit(JobSpec::for_tenant("native"), runner));
    assert!(job.wait().is_success(), "native: the job failed");
    runs.push(("native".to_string(), force.last_job_stats().unwrap()));
    server.shutdown();

    for (tenant, run) in &runs {
        let ops = server.tenant_report(tenant).expect("tenant seen").ops;
        for ((name, in_run), (_, served)) in run.fields().iter().zip(ops.fields().iter()) {
            assert_eq!(
                in_run, served,
                "{tenant}: `{name}`, the run's against the tenant's"
            );
        }
    }
}

#[test]
fn native_deadline_tears_down_a_running_pooled_job() {
    let machine = Machine::new(MachineId::Flex32);
    let pool = Arc::new(ForcePool::new(NPROC, machine.stats()));
    let force =
        Arc::new(Force::with_machine(NPROC, Arc::clone(&machine)).with_pool(Arc::clone(&pool)));
    let server = ForceServer::new(ServerConfig::default(), machine.stats());

    // 100k barriers takes far longer than the deadline; the watcher's
    // plane trip must cancel the force at a blocking wait.
    let runner = force_runner(&force, RunOptions::default(), |p| {
        for _ in 0..100_000 {
            p.barrier();
        }
    });
    let handle = expect_admitted(
        server.submit(
            JobSpec::for_tenant("sla")
                .with_deadline(Duration::from_millis(20))
                .with_max_retries(3),
            runner,
        ),
    );
    assert_eq!(handle.wait(), JobOutcome::DeadlineExceeded { ran: true });

    let rollup = server.tenant_report("sla").unwrap();
    assert_eq!(rollup.deadline_exceeded, 1);
    assert_eq!(rollup.retries, 0, "a deadline kill must not be retried");
    assert!(
        ForceError::from_outcome(JobOutcome::DeadlineExceeded { ran: true })
            .unwrap_err()
            .is_load_induced()
    );

    // The session's plane resets for the next job: the same force is
    // immediately reusable.
    server.shutdown();
    force
        .try_run(|p| p.barrier())
        .expect("session must recover after a deadline teardown");
}

#[test]
fn language_deadline_tears_down_a_running_interpreter_job() {
    let machine = Machine::new(MachineId::Flex32);
    let pool = Arc::new(ForcePool::new(NPROC, machine.stats()));
    let engine = pooled_engine(SLOW_LANG_PROGRAM, &machine, &pool);
    let server = ForceServer::new(ServerConfig::default(), machine.stats());

    let completed_runs: Arc<Mutex<u32>> = Arc::new(Mutex::new(0));
    let sink = Arc::clone(&completed_runs);
    let runner = engine_runner(&engine, NPROC, RunOptions::default(), move |_| {
        *sink.lock().unwrap() += 1;
    });
    let handle = expect_admitted(server.submit(
        JobSpec::for_tenant("sla").with_deadline(Duration::from_millis(15)),
        runner,
    ));
    assert_eq!(handle.wait(), JobOutcome::DeadlineExceeded { ran: true });
    assert_eq!(
        *completed_runs.lock().unwrap(),
        0,
        "a torn-down run must not report output"
    );

    // A queued job whose deadline passes before dispatch never runs.
    let gate = Arc::new(AtomicBool::new(false));
    let release = Arc::clone(&gate);
    let blocker: JobRunner = Box::new(move |_| {
        while !release.load(Ordering::Acquire) {
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(JobYield::default())
    });
    let blocker_handle = expect_admitted(server.submit(JobSpec::for_tenant("sla"), blocker));
    let stale = engine_runner(&engine, NPROC, RunOptions::default(), |_| ());
    let stale_handle = expect_admitted(server.submit(
        JobSpec::for_tenant("sla").with_deadline(Duration::from_millis(1)),
        stale,
    ));
    std::thread::sleep(Duration::from_millis(10));
    gate.store(true, Ordering::Release);
    assert!(blocker_handle.wait().is_success());
    assert_eq!(
        stale_handle.wait(),
        JobOutcome::DeadlineExceeded { ran: false }
    );

    server.shutdown();
    // The engine session recovers and the program runs to completion
    // (one process keeps the uninterrupted barrier loop cheap).
    let out = engine
        .run(1)
        .expect("engine must recover after a deadline kill");
    assert_eq!(out.shared_scalar("N"), Some(Value::Int(50_000)));
}

#[test]
fn language_deadline_tears_down_a_private_loop() {
    a_deadline_tears_down(PRIVATE_LOOP_PROGRAM);
}

#[test]
fn language_deadline_tears_down_an_operand_form_loop() {
    a_deadline_tears_down(OPERAND_LOOP_PROGRAM);
}

/// A 15 ms deadline ends `program`'s loop, which only the VM's back-edge
/// check can end early, and the session serves the next job.
fn a_deadline_tears_down(program: &str) {
    let machine = Machine::new(MachineId::Flex32);
    let pool = Arc::new(ForcePool::new(NPROC, machine.stats()));
    let engine = pooled_engine(program, &machine, &pool);
    let server = ForceServer::new(ServerConfig::default(), machine.stats());

    let outputs: Arc<Mutex<Vec<Option<Value>>>> = Arc::new(Mutex::new(Vec::new()));
    let runner = |nproc| {
        let sink = Arc::clone(&outputs);
        engine_runner(&engine, nproc, RunOptions::default(), move |out| {
            sink.lock().unwrap().push(out.shared_scalar("DONE"));
        })
    };
    let handle = expect_admitted(server.submit(
        JobSpec::for_tenant("sla").with_deadline(Duration::from_millis(15)),
        runner(NPROC),
    ));
    let give_up = Instant::now() + Duration::from_secs(5);
    let outcome = loop {
        if let Some(outcome) = handle.try_outcome() {
            break outcome;
        }
        if Instant::now() > give_up {
            // The dispatcher and the pool workers are wedged in the loop;
            // leak what would join them so this fails instead of hanging.
            std::mem::forget((server, pool, engine));
            panic!("a private loop outlived its 15 ms deadline by 5 s");
        }
        std::thread::sleep(Duration::from_millis(1));
    };
    assert_eq!(outcome, JobOutcome::DeadlineExceeded { ran: true });
    assert!(
        outputs.lock().unwrap().is_empty(),
        "a torn-down run must not report output"
    );

    // The session serves the next job on the same pooled engine.
    let next = expect_admitted(server.submit(JobSpec::for_tenant("sla"), runner(1)));
    assert!(next.wait().is_success());
    assert_eq!(*outputs.lock().unwrap(), [Some(Value::Int(1))]);
    server.shutdown();
}

#[test]
fn overload_rejects_and_sheds_instead_of_collapsing() {
    let machine = Machine::new(MachineId::Flex32);
    let server = ForceServer::new(
        ServerConfig {
            tenant_queue_capacity: 8,
            shed_watermark: 10,
            ..ServerConfig::default()
        },
        machine.stats(),
    );

    // Block the dispatcher so the queues fill deterministically.
    let gate = Arc::new(AtomicBool::new(false));
    let release = Arc::clone(&gate);
    let blocker: JobRunner = Box::new(move |_| {
        while !release.load(Ordering::Acquire) {
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(JobYield::default())
    });
    let blocker_handle = expect_admitted(server.submit(
        JobSpec::for_tenant("a").with_priority(Priority::High),
        blocker,
    ));
    while server.backlog() > 0 {
        std::thread::yield_now();
    }

    // Fill tenant "a" to capacity; the ninth submission bounces.
    let mut handles = vec![blocker_handle];
    for _ in 0..8 {
        let runner: JobRunner = Box::new(|_| Ok(JobYield::default()));
        handles.push(expect_admitted(
            server.submit(JobSpec::for_tenant("a"), runner),
        ));
    }
    let overflow: JobRunner = Box::new(|_| Ok(JobYield::default()));
    match server.submit(JobSpec::for_tenant("a"), overflow) {
        Submit::Rejected { reason } => {
            assert!(reason.to_string().contains("queue full"), "{reason}")
        }
        Submit::Admitted(_) => panic!("admission control let a full queue grow"),
    }

    // Tenant "b" pushes the backlog over the shed watermark with
    // low-priority jobs — the six newest must be shed, never the
    // high-priority blocker.
    for _ in 0..8 {
        let runner: JobRunner = Box::new(|_| Ok(JobYield::default()));
        handles.push(expect_admitted(server.submit(
            JobSpec::for_tenant("b").with_priority(Priority::Low),
            runner,
        )));
    }
    assert_eq!(server.backlog(), 16);
    gate.store(true, Ordering::Release);

    let outcomes: Vec<JobOutcome> = handles.iter().map(|h| h.wait()).collect();
    let shed = outcomes
        .iter()
        .filter(|o| matches!(o, JobOutcome::Shed))
        .count();
    let completed = outcomes.iter().filter(|o| o.is_success()).count();
    assert_eq!(shed, 6, "backlog 16 over watermark 10 sheds exactly 6");
    assert_eq!(completed, 11);
    assert!(
        outcomes[..9].iter().all(JobOutcome::is_success),
        "shedding must only pick low-priority victims: {outcomes:?}"
    );

    let report = server.server_report();
    assert_eq!(report.admitted, 17);
    assert_eq!(report.rejected, 1);
    assert_eq!(report.shed, 6);
    assert!(report.peak_backlog <= 16);
    let b = server.tenant_report("b").unwrap();
    assert_eq!(b.shed, 6);
    assert_eq!(b.completed, 2);
    assert!(matches!(
        ForceError::from_outcome(JobOutcome::Shed),
        Err(ForceError::Rejected { .. })
    ));
}

/// Yield until `ready()`, or give up after 5 s: a liveness bound that
/// only a server which stopped making progress reaches, and whose counts
/// the caller's assertions then refuse.  No verdict reads the clock.
fn hold_until(ready: impl Fn() -> bool) {
    let give_up = Instant::now() + Duration::from_secs(5);
    while !ready() && Instant::now() < give_up {
        std::thread::yield_now();
    }
}

/// A burst four times faster than the server starts jobs, on every
/// personality: it is absorbed by shedding and deadline kills, every
/// admitted job reaches an outcome, the backlog stays near the
/// watermark, no watchdog trips, and the server answers afterwards.
/// The overload is paced by count, not by time: the `k`-th job to start
/// holds until `allowed(k)` jobs have arrived, and job `j` arrives once
/// `j < allowed(started)`; the first holds until more than a watermark is
/// queued behind it, so the dequeue after it must shed.
#[test]
fn a_burst_past_the_watermark_is_shed_and_the_server_still_answers() {
    const BURST: usize = 160;
    const WATERMARK: usize = 24;
    let allowed = |k: usize| (WATERMARK + 2 + 4 * k).min(BURST);
    for id in MachineId::all() {
        let name = id.name();
        let machine = Machine::new(id);
        let base = machine.stats().snapshot();
        let pool = Arc::new(ForcePool::new(NPROC, machine.stats()));
        let force = Arc::new(Force::with_machine(NPROC, Arc::clone(&machine)).with_pool(pool));
        let job = |p: &the_force::core::Player| {
            p.barrier();
            support::busy_work(64);
            p.barrier();
        };
        let server = ForceServer::new(
            ServerConfig {
                tenant_queue_capacity: WATERMARK * 4,
                shed_watermark: WATERMARK,
                retry_base: Duration::from_micros(200),
                ..ServerConfig::default()
            },
            machine.stats(),
        );
        let (arrived, started) = (Arc::new(AtomicUsize::new(0)), Arc::new(AtomicUsize::new(0)));
        let mut handles = Vec::with_capacity(BURST);
        for j in 0..BURST {
            hold_until(|| j < allowed(started.load(Ordering::SeqCst)));
            let mut run = force_runner(&force, RunOptions::default(), job);
            let (seen, start) = (Arc::clone(&arrived), Arc::clone(&started));
            let runner: JobRunner = Box::new(move |cx| {
                let k = start.fetch_add(1, Ordering::SeqCst);
                hold_until(|| seen.load(Ordering::SeqCst) >= allowed(k));
                run(cx)
            });
            let priority = if j % 8 == 0 {
                Priority::High
            } else {
                Priority::Normal
            };
            let mut spec = JobSpec::for_tenant("burst").with_priority(priority);
            if j % 4 == 0 {
                spec = spec.with_deadline(Duration::from_millis(5));
            }
            if let Submit::Admitted(h) = server.submit(spec, runner) {
                handles.push(h);
            }
            arrived.fetch_add(1, Ordering::SeqCst);
        }
        for h in &handles {
            let _ = h.wait();
        }
        let probe = expect_admitted(server.submit(
            JobSpec::for_tenant("probe").with_priority(Priority::High),
            force_runner(&force, RunOptions::default(), job),
        ));
        assert!(probe.wait().is_success(), "{name}: the post-burst probe");
        let burst = server.tenant_report("burst").unwrap_or_default();
        let peak = server.peak_backlog();
        server.shutdown();
        let (shed, killed) = (burst.shed, burst.deadline_exceeded);
        assert!(shed + killed > 0, "{name}: absorbed without shed or kill");
        assert_eq!(
            burst.admitted,
            burst.completed + shed + killed,
            "{name}: a burst job vanished"
        );
        assert!(
            peak <= WATERMARK + 64,
            "{name}: backlog {peak} not near the watermark"
        );
        let trips = machine.stats().snapshot().since(&base).watchdog_trips;
        assert_eq!(trips, 0, "{name}: the watchdog tripped");
    }
}

// --- The server's force ------------------------------------------------
//
// A served session that attached no pool of its own borrows the
// server's resident force for the attempt (`JobCx::bind_plane`
// is the loan).  The only number that changes is `processes_created` on
// such jobs — `nproc` scoped, 0 lent, stated below where it is checked;
// every other per-plane delta and tenant rollup in this file is as it
// was.

/// How wide the server's force is: the widest job it hosts.
fn host_width() -> usize {
    the_force::machdep::default_nproc()
}

/// A force the server can host wherever this runs (a force of one, the
/// caller alone, on a one-core host).
fn lendable_nproc() -> usize {
    host_width().min(2)
}

/// `src` loaded onto `machine` as a session with no pool of its own.
fn unpooled_engine(src: &str, machine: &Arc<Machine>) -> Arc<Engine> {
    let expanded = preprocess(src, machine.id()).unwrap();
    Arc::new(Engine::from_expanded(&expanded, Arc::clone(machine)).unwrap())
}

/// A server that counts into a block of its own, so that what the
/// *server* created is not mixed up with what a machine's sessions did.
fn server_with_own_stats(config: ServerConfig) -> (ForceServer, Arc<OpStats>) {
    let stats = Arc::new(OpStats::new());
    (ForceServer::new(config, &stats), stats)
}

/// `work`'s result, or a failed test instead of a hung one.
fn within_5s<R: Send + 'static>(what: &str, work: impl FnOnce() -> R + Send + 'static) -> R {
    let (done, result) = std::sync::mpsc::channel();
    std::thread::spawn(move || done.send(work()));
    result
        .recv_timeout(Duration::from_secs(5))
        .unwrap_or_else(|_| panic!("{what}: no result in 5 s"))
}

/// What a hand-written runner does with its session: bind the plane (the
/// loan), run `body` under `options`, map the result.
fn run_bound(
    cx: &the_force::serve::JobCx,
    session: &Force,
    options: RunOptions,
    body: impl Fn(&the_force::core::Player) + Sync,
) -> Result<JobYield, JobError> {
    cx.bind_plane(session.fault_plane());
    session
        .try_execute_with(options, body)
        .map(|_| JobYield::default())
        .map_err(JobError::Fault)
}

/// Every counter two runs of one program must agree on, but the one the
/// loan is about.
fn assert_same_ops_but_creation(label: &str, scoped: &StatsSnapshot, lent: &StatsSnapshot) {
    for ((name, s), (_, l)) in scoped.fields().iter().zip(lent.fields().iter()) {
        if *name == "processes_created" || support::TIMING_DEPENDENT_COUNTERS.contains(name) {
            continue;
        }
        assert_eq!(s, l, "{label}: op counter {name} diverges");
    }
}

#[test]
fn lent_jobs_create_no_processes_and_compute_what_scoped_ones_do() {
    let np = lendable_nproc();
    for id in MachineId::all() {
        let machine = Machine::new(id);
        let (server, server_stats) = server_with_own_stats(ServerConfig::default());

        // The language path.  The reference is the session's *second*
        // direct run: the first also designates shared memory.
        let engine = unpooled_engine(LANG_PROGRAM, &machine);
        engine.run(np).unwrap();
        let scoped = engine.run(np).unwrap();
        assert_eq!(scoped.stats.processes_created, np as u64, "{}", id.name());
        let outputs = Arc::new(Mutex::new(Vec::new()));
        for _ in 0..3 {
            let sink = Arc::clone(&outputs);
            let runner = engine_runner(&engine, np, RunOptions::default(), move |out| {
                sink.lock().unwrap().push(out);
            });
            let job = expect_admitted(server.submit(JobSpec::for_tenant("lang"), runner));
            assert_eq!(job.wait(), JobOutcome::Completed { retries: 0 });
        }
        let outputs = std::mem::take(&mut *outputs.lock().unwrap());
        assert_eq!(outputs.len(), 3);
        for lent in &outputs {
            // 2 → 0: the one number a loan changes.
            assert_eq!(lent.stats.processes_created, 0, "{}", id.name());
            assert_same_ops_but_creation(id.name(), &scoped.stats, &lent.stats);
            assert_eq!(lent.prints, scoped.prints);
            assert_eq!(lent.shared_values, scoped.shared_values);
            assert!(lent.cycles <= scoped.cycles, "priced like a pooled job");
        }
        let lang = server.tenant_report("lang").unwrap();
        assert_eq!(lang.completed, 3);
        assert_eq!(lang.ops.processes_created, 0);
        assert_eq!(lang.ops.lock_acquires, 3 * scoped.stats.lock_acquires);

        // The native path, same server, same resident force.
        let force = Arc::new(Force::with_machine(np, Arc::clone(&machine)));
        let cell = Arc::new(AtomicU64::new(0));
        let body = {
            let cell = Arc::clone(&cell);
            move |p: &the_force::core::Player| {
                p.barrier();
                cell.fetch_add(p.pid() as u64 + 1, Ordering::Relaxed);
                p.barrier();
            }
        };
        force.run(body.clone());
        let scoped = force.last_job_stats().unwrap();
        assert_eq!(scoped.processes_created, np as u64);
        let runner = force_runner(&force, RunOptions::default(), body);
        let job = expect_admitted(server.submit(JobSpec::for_tenant("native"), runner));
        assert_eq!(job.wait(), JobOutcome::Completed { retries: 0 });
        let lent = force.last_job_stats().unwrap();
        assert_eq!(lent.processes_created, 0, "{}", id.name());
        assert_same_ops_but_creation(id.name(), &scoped, &lent);
        let sum = (np * (np + 1)) as u64 / 2;
        assert_eq!(
            cell.load(Ordering::Relaxed),
            2 * sum,
            "one scoped run, one lent"
        );
        let native = server.tenant_report("native").unwrap();
        assert_eq!(native.ops.processes_created, 0);
        assert_eq!(native.ops.barrier_episodes, 2);

        // Four jobs, one creation: the server's force, charged to the
        // server.  The machine paid for its three direct runs only.
        server.shutdown();
        assert_eq!(
            server_stats.snapshot().processes_created,
            host_width() as u64
        );
        assert_eq!(machine.stats().snapshot().processes_created, 3 * np as u64);
    }
}

#[test]
fn lent_force_is_never_created_for_sessions_that_bring_their_own() {
    let machine = Machine::new(MachineId::Flex32);
    let np = lendable_nproc();
    let pool = Arc::new(ForcePool::new(np, machine.stats()));
    let (server, server_stats) = server_with_own_stats(ServerConfig::default());
    let engine = pooled_engine(LANG_PROGRAM, &machine, &pool);
    let force =
        Arc::new(Force::with_machine(np, Arc::clone(&machine)).with_pool(Arc::clone(&pool)));
    for _ in 0..10 {
        let lang = engine_runner(&engine, np, RunOptions::default(), |_| ());
        let native = force_runner(&force, RunOptions::default(), |p| p.barrier());
        for runner in [lang, native] {
            let job = expect_admitted(server.submit(JobSpec::for_tenant("own"), runner));
            assert_eq!(job.wait(), JobOutcome::Completed { retries: 0 });
        }
    }
    server.shutdown();
    // The server's force charges the server when it comes into being, and
    // comes into being when a job first runs on it: none did.
    assert_eq!(server_stats.snapshot().processes_created, 0);
    assert_eq!(machine.stats().snapshot().processes_created, np as u64);
    assert_eq!(pool.jobs_completed(), 20);
}

#[test]
fn lent_force_is_bypassed_by_wide_and_multiplexed_jobs() {
    use the_force::machdep::ParkBackend;
    let machine = Machine::new(MachineId::EncoreMultimax);
    let (server, server_stats) = server_with_own_stats(ServerConfig::default());
    let engine = unpooled_engine(LANG_PROGRAM, &machine);
    let wide = host_width() + 1;
    let virtual_time = RunOptions {
        backend: ParkBackend::Virtual { seed: 1989 },
        ..RunOptions::default()
    };
    for (nproc, options) in [
        (wide, RunOptions::default()),
        (lendable_nproc(), virtual_time),
    ] {
        let created = Arc::new(AtomicU64::new(u64::MAX));
        let sink = Arc::clone(&created);
        let runner = engine_runner(&engine, nproc, options, move |out| {
            assert_eq!(out.shared_scalar("N"), Some(Value::Int(nproc as i64)));
            sink.store(out.stats.processes_created, Ordering::Relaxed);
        });
        let job = expect_admitted(server.submit(JobSpec::for_tenant("scoped"), runner));
        assert_eq!(job.wait(), JobOutcome::Completed { retries: 0 });
        let label = format!("nproc {nproc} under {:?}", options.backend);
        assert_eq!(created.load(Ordering::Relaxed), nproc as u64, "{label}");
    }

    // A virtual schedule is the same schedule served: the loan is not a
    // decision point, nor anything else the scheduler can see.
    let force = Arc::new(Force::with_machine(3, Arc::clone(&machine)));
    let body = |p: &the_force::core::Player| {
        p.critical("V", || ());
        p.barrier();
    };
    force.try_execute_with(virtual_time, body).unwrap();
    let direct = force.last_virtual_summary().expect("a virtual run");
    let runner = force_runner(&force, virtual_time, body);
    let job = expect_admitted(server.submit(JobSpec::for_tenant("scoped"), runner));
    assert_eq!(job.wait(), JobOutcome::Completed { retries: 0 });
    assert_eq!(force.last_virtual_summary(), Some(direct));
    assert_eq!(force.last_job_stats().unwrap().processes_created, 3);

    server.shutdown();
    assert_eq!(
        server_stats.snapshot().processes_created,
        0,
        "no job fitted the server's force, so it never existed"
    );
}

#[test]
fn lent_force_survives_faulted_panicking_and_deadline_killed_jobs() {
    let machine = Machine::new(MachineId::Cray2);
    let np = lendable_nproc();
    let (server, server_stats) = server_with_own_stats(ServerConfig::default());
    let good = unpooled_engine(LANG_PROGRAM, &machine);
    let bad = unpooled_engine(BAD_SUBSCRIPT_PROGRAM, &machine);
    let native = Arc::new(Force::with_machine(np, Arc::clone(&machine)));

    // After each casualty, the same server force serves a clean job that
    // creates nothing.
    let next_job_is_lent_and_clean = |after: &str| {
        let created = Arc::new(AtomicU64::new(u64::MAX));
        let sink = Arc::clone(&created);
        let runner = engine_runner(&good, np, RunOptions::default(), move |out| {
            assert_eq!(out.shared_scalar("N"), Some(Value::Int(np as i64)));
            sink.store(out.stats.processes_created, Ordering::Relaxed);
        });
        let job = expect_admitted(server.submit(JobSpec::for_tenant("next"), runner));
        assert_eq!(job.wait(), JobOutcome::Completed { retries: 0 }, "{after}");
        assert_eq!(created.load(Ordering::Relaxed), 0, "{after}");
    };
    next_job_is_lent_and_clean("a fresh server");

    let runner = engine_runner(&bad, np, RunOptions::default(), |_| ());
    let job = expect_admitted(server.submit(JobSpec::for_tenant("bad"), runner));
    assert!(matches!(
        job.wait(),
        JobOutcome::Faulted {
            error: JobError::Deterministic(_),
            retries: 0
        }
    ));
    next_job_is_lent_and_clean("a runtime error");

    // The last pid panics: a pool worker where there is one.
    let runner = force_runner(&native, RunOptions::default(), move |p| {
        if p.pid() == np - 1 {
            panic!("pid {} dies", p.pid());
        }
        p.barrier();
    });
    let job = expect_admitted(server.submit(JobSpec::for_tenant("bad"), runner));
    match job.wait() {
        JobOutcome::Faulted {
            error: JobError::Fault(fault),
            ..
        } => assert_eq!(fault.pid, np - 1),
        other => panic!("a panicking process ended {other:?}"),
    }
    next_job_is_lent_and_clean("a panic");

    // Every pid spins on the cancellation token until the deadline trips
    // the plane the loan rides on.
    let runner = force_runner(&native, RunOptions::default(), |_| loop {
        std::thread::sleep(Duration::from_millis(1));
        the_force::machdep::fault::check_cancel();
    });
    let spec = JobSpec::for_tenant("bad").with_deadline(Duration::from_millis(15));
    let job = expect_admitted(server.submit(spec, runner));
    assert_eq!(job.wait(), JobOutcome::DeadlineExceeded { ran: true });
    next_job_is_lent_and_clean("a deadline kill");

    server.shutdown();
    assert_eq!(
        server_stats.snapshot().processes_created,
        host_width() as u64,
        "one resident force through all of it"
    );
    assert_eq!(machine.stats().snapshot().processes_created, 0);
}

/// A lent job that keeps the force it borrowed (and the server that lent
/// it) busy until released; released on drop too, so that a failed
/// assertion does not leave `ForceServer::drop` waiting for it.
struct Blocker {
    gate: Arc<AtomicBool>,
    job: the_force::serve::JobHandle,
}

impl Blocker {
    /// Submit the job for `tenant` and wait until every one of its `np`
    /// processes is running.
    fn occupy(server: &ForceServer, tenant: &str, machine: &Arc<Machine>, np: usize) -> Blocker {
        let gate = Arc::new(AtomicBool::new(false));
        let inside = Arc::new(AtomicUsize::new(0));
        let session = Arc::new(Force::with_machine(np, Arc::clone(machine)));
        let (open, entered) = (Arc::clone(&gate), Arc::clone(&inside));
        let runner: JobRunner = Box::new(move |cx| {
            let held = run_bound(cx, &session, RunOptions::default(), |_| {
                entered.fetch_add(1, Ordering::SeqCst);
                while !open.load(Ordering::Acquire) {
                    std::thread::sleep(Duration::from_micros(200));
                }
            });
            let created = session.last_job_stats().map(|s| s.processes_created);
            assert_eq!(created, Some(0), "the blocker itself must be a lent job");
            held
        });
        let job = expect_admitted(server.submit(JobSpec::for_tenant(tenant), runner));
        while inside.load(Ordering::SeqCst) < np {
            std::thread::sleep(Duration::from_micros(200));
        }
        Blocker { gate, job }
    }

    fn release(self) {
        self.gate.store(true, Ordering::Release);
        assert_eq!(self.job.wait(), JobOutcome::Completed { retries: 0 });
    }
}

impl Drop for Blocker {
    fn drop(&mut self) {
        self.gate.store(true, Ordering::Release);
    }
}

#[test]
fn lent_force_is_borrowed_per_attempt_from_the_shard_that_runs_it() {
    let machine = Machine::new(MachineId::SequentBalance);
    let np = lendable_nproc();
    let (server, server_stats) = server_with_own_stats(ServerConfig::default());

    // A retry borrows again: neither attempt creates a process.
    let flaky = Arc::new(Force::with_machine(np, Arc::clone(&machine)));
    let session = Arc::clone(&flaky);
    let runner: JobRunner = Box::new(move |cx| {
        let mut options = RunOptions::default();
        if cx.attempt() == 0 {
            let mut injection = FaultInjection::with_seed(0x0ce);
            injection.panic_per_mille = 1000;
            options.injection = Some(injection);
        }
        run_bound(cx, &session, options, |p| p.barrier())
    });
    let job = expect_admitted(server.submit(JobSpec::for_tenant("flaky"), runner));
    assert_eq!(job.wait(), JobOutcome::Completed { retries: 1 });
    assert_eq!(flaky.last_job_stats().unwrap().processes_created, 0);
    assert_eq!(machine.stats().snapshot().processes_created, 0);

    server.shutdown();
    assert_eq!(
        server_stats.snapshot().processes_created,
        host_width() as u64,
        "the server made its force once"
    );
    assert_eq!(machine.stats().snapshot().processes_created, 0);
}

#[test]
fn lent_force_is_given_back_when_the_attempt_ends() {
    let machine = Machine::new(MachineId::Flex32);
    let np = lendable_nproc();
    let (server, _) = server_with_own_stats(ServerConfig::default());
    let engine = unpooled_engine(LANG_PROGRAM, &machine);
    let runner = engine_runner(&engine, np, RunOptions::default(), |out| {
        assert_eq!(out.stats.processes_created, 0);
    });
    let job = expect_admitted(server.submit(JobSpec::for_tenant("t"), runner));
    assert_eq!(job.wait(), JobOutcome::Completed { retries: 0 });

    // The server's force is lent to somebody else now, and taken.  The
    // engine it served a moment ago holds no loan any more: run directly
    // it creates its own processes instead of queueing for that force.
    let blocker = Blocker::occupy(&server, "t", &machine, np);
    let session = Arc::clone(&engine);
    let direct = within_5s("a direct run after a served one", move || {
        session.run(np).unwrap()
    });
    assert_eq!(direct.stats.processes_created, np as u64);
    assert_eq!(direct.shared_scalar("N"), Some(Value::Int(np as i64)));
    blocker.release();
}

#[test]
fn lent_job_may_launch_a_force_of_its_own() {
    let machine = Machine::new(MachineId::AlliantFx8);
    let np = lendable_nproc();
    let (server, _) = server_with_own_stats(ServerConfig::default());
    let outer = Arc::new(Force::with_machine(np, Arc::clone(&machine)));
    let inner_created = Arc::new(AtomicU64::new(0));
    let (m, created) = (Arc::clone(&machine), Arc::clone(&inner_created));
    // Every process of the lent job creates and joins a force: another
    // plane, which nobody lent anything — were the loan the thread's, pid
    // 0's inner force would queue behind the pool its own job holds.
    let runner = force_runner(&outer, RunOptions::default(), move |p| {
        let inner = Force::with_machine(np, Arc::clone(&m));
        inner.run(|q| q.barrier());
        let stats = inner.last_job_stats().unwrap();
        created.fetch_add(stats.processes_created, Ordering::Relaxed);
        p.barrier();
    });
    let job = expect_admitted(server.submit(JobSpec::for_tenant("nested"), runner));
    let outcome = within_5s("a lent job that launches forces", move || job.wait());
    assert_eq!(outcome, JobOutcome::Completed { retries: 0 });
    assert_eq!(outer.last_job_stats().unwrap().processes_created, 0);
    assert_eq!(inner_created.load(Ordering::Relaxed), (np * np) as u64);
    server.shutdown();
}

#[test]
fn lent_force_threads_are_joined_by_shutdown() {
    /// Dropped when the thread that holds it ends.
    struct Canary(Arc<AtomicBool>);
    impl Drop for Canary {
        fn drop(&mut self) {
            self.0.store(true, Ordering::SeqCst);
        }
    }
    thread_local! {
        static CANARY: std::cell::RefCell<Option<Canary>> = const { std::cell::RefCell::new(None) };
    }

    let np = lendable_nproc();
    if np < 2 {
        // A force of one is the running thread alone: no thread to join.
        return;
    }
    let machine = Machine::new(MachineId::Hep);
    let (server, _) = server_with_own_stats(ServerConfig::default());
    let force = Arc::new(Force::with_machine(np, Arc::clone(&machine)));
    let thread_gone = Arc::new(AtomicBool::new(false));
    // One served job: the thread that ran it — the dispatcher, or this
    // thread, waiting for it — and the thread each pid ran on.  A job that
    // meets starts with a barrier, so pid 0 waits there for every peer.
    let run = |meet: bool| -> (std::thread::ThreadId, Vec<std::thread::ThreadId>) {
        let threads = Arc::new(Mutex::new(vec![None; np]));
        let (flag, seen) = (Arc::clone(&thread_gone), Arc::clone(&threads));
        let mut served = force_runner(&force, RunOptions::default(), move |p| {
            if meet {
                p.barrier();
            }
            let here = std::thread::current().id();
            let again = seen.lock().unwrap()[p.pid()].replace(here);
            assert_eq!(again, None, "pid {} ran twice", p.pid());
            if meet && p.pid() == 1 {
                CANARY.with(|c| {
                    c.borrow_mut()
                        .get_or_insert_with(|| Canary(Arc::clone(&flag)));
                });
            }
        });
        let runner_thread = Arc::new(Mutex::new(None));
        let ran_on = Arc::clone(&runner_thread);
        let runner: JobRunner = Box::new(move |cx| {
            *ran_on.lock().unwrap() = Some(std::thread::current().id());
            served(cx)
        });
        let job = expect_admitted(server.submit(JobSpec::for_tenant("t"), runner));
        assert_eq!(job.wait(), JobOutcome::Completed { retries: 0 });
        let threads = threads.lock().unwrap();
        let runner_thread = runner_thread.lock().unwrap().expect("the job ran");
        let pids = threads.iter().map(|t| t.expect("every pid ran")).collect();
        (runner_thread, pids)
    };
    // Pid 0 runs on the thread that runs the job; pids 1.. on the server's
    // resident threads, the same ones job after job.
    let (runner, resident) = run(true);
    assert_eq!(resident[0], runner, "pid 0 is the running thread");
    for _ in 0..20 {
        let (runner, again) = run(true);
        assert_eq!(again[0], runner, "pid 0 is the running thread");
        assert_eq!(again[1..], resident[1..], "pids 1.. are resident threads");
    }
    for pid in 1..np {
        assert!(!resident[..pid].contains(&resident[pid]), "pid {pid}");
    }
    // With nobody to wait for, pid 0 may return before a peer's worker has
    // woken: that pid then runs on pid 0's thread, never on another's
    // worker.
    for _ in 0..20 {
        let (runner, ran) = run(false);
        assert_eq!(ran[0], runner, "pid 0 is the running thread");
        for pid in 1..np {
            assert!([ran[0], resident[pid]].contains(&ran[pid]), "pid {pid}");
        }
    }
    assert!(!thread_gone.load(Ordering::SeqCst), "resident: still there");
    server.shutdown();
    assert!(
        thread_gone.load(Ordering::SeqCst),
        "shutdown returned over a live server-force thread"
    );
}

/// `JobHandle::wait` runs the job on the waiting thread only when that
/// thread is not a Force process: a process that waits for a job of a
/// second server sleeps, and the server's dispatcher runs the job.
#[test]
fn waiter_in_a_force_never_runs_the_job() {
    let machine = Machine::new(MachineId::SequentBalance);
    let server = Arc::new(server_with_own_stats(ServerConfig::default()).0);
    let force = Force::with_machine(lendable_nproc(), Arc::clone(&machine));
    let threads = Arc::new(Mutex::new(Vec::new()));
    let (client, seen) = (Arc::clone(&server), Arc::clone(&threads));
    within_5s("a process waiting for a served job", move || {
        force.run(|p| {
            for _ in 0..20 {
                let ran_on = Arc::new(Mutex::new(None));
                let slot = Arc::clone(&ran_on);
                let runner: JobRunner = Box::new(move |_cx| {
                    *slot.lock().unwrap() = Some(std::thread::current().id());
                    Ok(JobYield::default())
                });
                let spec = JobSpec::for_tenant(format!("pid-{}", p.pid()));
                let job = expect_admitted(client.submit(spec, runner));
                assert_eq!(job.wait(), JobOutcome::Completed { retries: 0 });
                let ran_on = ran_on.lock().unwrap().expect("the job ran");
                seen.lock()
                    .unwrap()
                    .push((ran_on, std::thread::current().id()));
            }
        })
    });
    let threads = threads.lock().unwrap();
    assert_eq!(threads.len(), 20 * lendable_nproc());
    for (ran_on, process) in threads.iter() {
        assert_ne!(ran_on, process, "a job ran on the process waiting for it");
    }
    server.shutdown();
}

/// A served job whose deadline fires before its session has reset its
/// plane for the run — before the plane is even bound, or between the
/// binding and the reset.  Either way the run must start cancelled, from
/// exactly one trip.
fn deadline_before_the_run(bind_first: bool) {
    let machine = Machine::new(MachineId::EncoreMultimax);
    let (server, _) = server_with_own_stats(ServerConfig::default());
    let session = Arc::new(Force::with_machine(2, Arc::clone(&machine)));
    let served = Arc::clone(&session);
    let runner: JobRunner = Box::new(move |cx| {
        let wait_for = |ready: &dyn Fn() -> bool| {
            while !ready() {
                std::thread::sleep(Duration::from_micros(100));
            }
        };
        if bind_first {
            cx.bind_plane(served.fault_plane());
            wait_for(&|| served.fault_plane().is_tripped());
        }
        wait_for(&|| cx.deadline_fired());
        // Barriers for ever: nothing but the trip ends this run.
        run_bound(cx, &served, RunOptions::default(), |p| loop {
            p.barrier();
        })
    });
    let faults_before = machine.stats().snapshot().faults_detected;
    let spec = JobSpec::for_tenant("late").with_deadline(Duration::from_millis(5));
    let job = expect_admitted(server.submit(spec, runner));
    let outcome = within_5s("a run whose deadline fired first", move || job.wait());
    assert_eq!(outcome, JobOutcome::DeadlineExceeded { ran: true });
    let faults = machine.stats().snapshot().faults_detected - faults_before;
    assert_eq!(faults, 1, "the deadline trips its plane once");
    // The attempt is over: the plane holds no trip against the next run.
    server.shutdown();
    session
        .try_run(|p| p.barrier())
        .expect("the session's next run starts clean");
}

#[test]
fn a_deadline_that_fires_before_the_plane_is_bound_cancels_the_run() {
    deadline_before_the_run(false);
}

#[test]
fn a_deadline_that_fires_between_binding_and_reset_cancels_the_run() {
    deadline_before_the_run(true);
}

/// A served virtual job keeps its virtual deadline.  Binding records the
/// deadline, the reset the session starts its run with applies it: on a
/// fresh session (whose plane is not virtual when it is bound) and on one
/// whose previous job was virtual (whose reset rebuilds the scheduler).
/// Ten modeled seconds against a two-second budget is a deadline outcome,
/// not the virtual deadlock the unproduced `consume` would be without it.
#[test]
fn a_served_virtual_job_keeps_its_virtual_deadline() {
    use the_force::core::Async;
    use the_force::machdep::{charge_virtual, ParkBackend};
    const TEN_SECONDS: u64 = 10_000_000_000;
    let machine = Machine::new(MachineId::Hep);
    let (server, _) = server_with_own_stats(ServerConfig::default());
    let force = Arc::new(Force::with_machine(2, Arc::clone(&machine)));
    let virtual_time = RunOptions {
        backend: ParkBackend::Virtual { seed: 1989 },
        ..RunOptions::default()
    };
    let serve_past_the_budget = || {
        let chan = Arc::new(Async::<u64>::new(&machine));
        let runner = force_runner(&force, virtual_time, move |_| {
            charge_virtual(TEN_SECONDS);
            let _ = chan.consume();
        });
        let missed = || {
            server
                .tenant_report("virtual")
                .map_or(0, |r| r.deadline_exceeded)
        };
        let before = missed();
        let spec = JobSpec::for_tenant("virtual").with_deadline(Duration::from_secs(2));
        let job = expect_admitted(server.submit(spec, runner));
        assert_eq!(job.wait(), JobOutcome::DeadlineExceeded { ran: true });
        assert_eq!(missed() - before, 1);
        force.last_virtual_summary().expect("a virtual run")
    };
    let fresh = serve_past_the_budget();
    // The attempt is over: a direct virtual run has no budget to miss.
    force
        .try_execute_with(virtual_time, |p| {
            charge_virtual(TEN_SECONDS);
            p.barrier();
        })
        .expect("no deadline outlives its attempt");
    let after_virtual = serve_past_the_budget();
    assert_eq!(fresh, after_virtual, "the virtual deadline replays");
    server.shutdown();
}

/// A cold source could still kill the server.  The Fortran expression
/// parser descended once per `(` with no bound, and a stack overflow on
/// the dispatcher's thread is an abort, not a panic its `catch_unwind`
/// contains.  Now the source's job ends `Faulted` with a positioned error
/// and the dispatcher takes the next one.
#[test]
fn a_source_nested_past_the_parser_bound_faults_its_job_not_the_server() {
    let machine = Machine::new(MachineId::EncoreMultimax);
    let (server, _) = server_with_own_stats(ServerConfig::default());
    let np = lendable_nproc();
    let cold_job = |source: String| -> JobRunner {
        let machine = Arc::clone(&machine);
        Box::new(move |cx| {
            let deterministic = |e: &dyn std::fmt::Display| JobError::Deterministic(e.to_string());
            let expanded = preprocess(&source, machine.id()).map_err(|e| deterministic(&e))?;
            let engine = Engine::from_expanded(&expanded, Arc::clone(&machine))
                .map_err(|e| deterministic(&e))?;
            cx.bind_plane(&engine.fault_plane(np));
            let out = engine
                .run_with(np, RunOptions::default())
                .map_err(|e| deterministic(&e))?;
            assert_eq!(out.shared_scalar("K"), Some(Value::Int(1)));
            Ok(JobYield::default())
        })
    };
    let program = |expr: String| {
        format!(
            "      Force FMAIN of NP ident ME\n      Shared INTEGER K\n      End declarations\n      \
             Barrier\n      K = {expr}\n      End barrier\n      Join\n"
        )
    };
    let nested = |n: usize| program(format!("{}1{}", "(".repeat(n), ")".repeat(n)));
    for hostile in [nested(20_000), program("-".repeat(20_000) + "1")] {
        let job = expect_admitted(server.submit(JobSpec::for_tenant("cold"), cold_job(hostile)));
        match job.wait() {
            JobOutcome::Faulted {
                error: JobError::Deterministic(message),
                retries: 0,
            } => {
                assert!(message.starts_with("line "), "positioned: {message}");
                assert!(message.contains("levels deep"), "{message}");
            }
            other => panic!("a hostile source ended {other:?}"),
        }
        // The dispatcher is alive, and a program inside the bound runs.
        let job = expect_admitted(server.submit(JobSpec::for_tenant("cold"), cold_job(nested(50))));
        assert_eq!(job.wait(), JobOutcome::Completed { retries: 0 });
    }
    server.shutdown();
    let cold = server.tenant_report("cold").unwrap();
    assert_eq!((cold.faulted, cold.completed), (2, 2));
}

/// `submit` racing `shutdown` from another thread: a submission is
/// refused, or admitted *and* run.  Admission used to check the flag and
/// queue the job in two critical sections, and a shutdown that landed
/// between them let the dispatcher drain and exit over a job whose `wait`
/// then never returned.
#[test]
fn a_submission_racing_shutdown_is_refused_or_run() {
    for round in 0..500u64 {
        let (server, _) = server_with_own_stats(ServerConfig::default());
        let admitted = std::thread::scope(|s| {
            let submitter = s.spawn(|| {
                let mut admitted = Vec::new();
                loop {
                    let runner: JobRunner = Box::new(|_| Ok(JobYield::default()));
                    match server.submit(JobSpec::for_tenant("racer"), runner) {
                        Submit::Admitted(job) => admitted.push(job),
                        Submit::Rejected {
                            reason: RejectReason::ShuttingDown,
                        } => return admitted,
                        // Outrunning the dispatcher: submit again.
                        Submit::Rejected { .. } => std::thread::yield_now(),
                    }
                }
            });
            std::thread::sleep(Duration::from_micros(round % 25 * 20));
            server.shutdown();
            submitter.join().expect("the submitter")
        });
        for job in admitted {
            let deadline = Instant::now() + Duration::from_secs(5);
            while job.try_outcome().is_none() {
                assert!(
                    Instant::now() < deadline,
                    "round {round}: job {} stranded",
                    job.id()
                );
                std::thread::sleep(Duration::from_millis(1));
            }
            assert_eq!(job.wait(), JobOutcome::Completed { retries: 0 });
        }
    }
}
