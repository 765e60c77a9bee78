//! One round of one workload, run in a child process of its own: set
//! the stack up, warm it, drive the measured phase, and print the
//! round's values.
//!
//! The benchmark owns the `JobRunner` closure, so with tracing on it
//! records every layer boundary from outside the program under test:
//! `job` ⊃ { `serve.submit`, `serve.queue`, `runner` ⊃ { `prep.expand`,
//! `fortranish.load`, `serve.bind`, `fortranish.run` }, `serve.publish` }.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use the_force::fortran::Engine;
use the_force::machdep::{
    ForcePool, ForceServer, JobCx, JobError, JobOutcome, JobRunner, JobSpec, JobYield, Machine,
    MachineId, OpStats, Priority, RunOptions, ServerConfig, StatsSnapshot, Submit, XorShift64,
};
use the_force::prep;

use crate::gen::{self, Arrival, ColdGen, Program};
use crate::kernel::{self, Json};

/// Force processes per job: the host's two cores.
pub const NPROC: usize = 2;

/// The window the measured phase is cut into.
const WINDOW_NS: u64 = 1_000_000_000;

/// Offered rate of the open loop: about 30 % of `hot_mix` capacity.
pub const OPEN_RATE_PER_S: f64 = 800.0;

/// `peak_rss_mb` is read when this many measured jobs have completed
/// (or at the end of the round, if fewer did), so a faster build does
/// not report a larger cache just because it ran more jobs.
const RSS_MARK_JOBS: usize = 2000;

/// Jobs of the trace file; the metrics use every span of the round.
const TRACE_FILE_JOBS: usize = 2000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    HotMix,
    NullJobs,
    ColdSources,
    OpenArrivals,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::HotMix,
        Workload::NullJobs,
        Workload::ColdSources,
        Workload::OpenArrivals,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::HotMix => "hot_mix",
            Workload::NullJobs => "null_jobs",
            Workload::ColdSources => "cold_sources",
            Workload::OpenArrivals => "open_arrivals",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One line for `BENCHMARK.json`: why the workload exists.
    pub fn why(self) -> &'static str {
        match self {
            Workload::HotMix => {
                "closed loop, 2 outstanding, six cached programs x six machines: execution dominates, so VM time, construct waits and lock kinds show and prep is a cache hit"
            }
            Workload::NullJobs => {
                "closed loop, 1 outstanding, the empty program: VM work is zero, so the job is the fixed tax of admission, queue, dispatch, session reset, pool hand-off and publication"
            }
            Workload::ColdSources => {
                "closed loop, 2 outstanding, every source never seen: sed, m4, lex, parse, bytecode compile and unpooled process creation dominate, and the expansion cache is written, not read"
            }
            Workload::OpenArrivals => {
                "open loop, Poisson 800 jobs/s from the hot corpus, 8 tenants, 1 in 8 high priority: the only workload where a queue forms and drains and workers idle between jobs"
            }
        }
    }

    /// The fixed latency limit of `within_limit_share`.
    fn limit(self) -> Duration {
        match self {
            Workload::NullJobs => Duration::from_millis(2),
            _ => Duration::from_millis(10),
        }
    }

    /// Jobs outstanding in the closed loops.
    fn clients(self) -> u64 {
        match self {
            Workload::NullJobs => 1,
            _ => 2,
        }
    }

    /// Fixed-count warm-up, run through the workload's own submit path.
    fn warmup_jobs(self) -> usize {
        match self {
            Workload::ColdSources => 300,
            _ => 600,
        }
    }
}

/// What one child is asked to do.
pub struct RoundSpec {
    pub workload: Workload,
    pub seed: u64,
    pub phase: Duration,
    /// Record spans, and write them here as Chrome `trace_event` JSON
    /// when the round ends.
    pub trace_out: Option<PathBuf>,
}

/// A job as submitted: source text, target machine, expected result.
struct JobInput {
    program: Program,
    machine: MachineId,
}

/// Layer-boundary stamps taken inside the runner, ns from the origin.
#[derive(Clone, Copy)]
struct RunnerStamps {
    seq: u64,
    /// entry, expanded, loaded, bound, ran, exit
    at: [u64; 6],
}

/// Client-side record of one job.
#[derive(Clone, Copy)]
struct Sample {
    seq: u64,
    /// Submit call start and return, and `wait` return, ns from origin.
    submit: u64,
    submitted: u64,
    done: u64,
    /// What latency is timed from: `submit`, or the due time (open loop).
    from: u64,
    ok: bool,
}

/// State the runner closures share.  One shard means one dispatcher
/// thread runs them, so the mutexes are never contended.
struct Shared {
    /// Resident engine sessions by the address of their cached
    /// expansion, which each entry keeps alive so the address stays its.
    sessions: HashMap<usize, (Arc<prep::ExpandedProgram>, Engine)>,
    origin: Instant,
    trace: bool,
    stamps: Mutex<Vec<RunnerStamps>>,
    ops: Mutex<StatsSnapshot>,
}

impl Shared {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// A stamp when tracing, nothing when not: end-to-end rounds pay no
    /// clock reads inside the runner.
    fn stamp(&self) -> u64 {
        if self.trace {
            self.now()
        } else {
            0
        }
    }
}

/// The job body, for every workload: expand the source (a cache hit for
/// a resident program, the full sed + m4 pipeline for a new one), find
/// the expansion's resident engine session or load a fresh engine on a
/// fresh machine, bind the fault plane, run, and check the result.
fn run_job(shared: &Shared, job: &JobInput, seq: u64, cx: &JobCx) -> Result<JobYield, JobError> {
    let deterministic = |e: &dyn std::fmt::Display| {
        JobError::Deterministic(format!(
            "{} on {}: {e}",
            job.program.name,
            job.machine.tag()
        ))
    };
    let entry = shared.stamp();
    let expanded =
        prep::preprocess_cached(&job.program.source, job.machine).map_err(|e| deterministic(&e))?;
    let expanded_at = shared.stamp();
    let fresh;
    let engine = match shared.sessions.get(&(Arc::as_ptr(&expanded) as usize)) {
        Some((_, resident)) => resident,
        None => {
            fresh = Engine::from_expanded(&expanded, Machine::new(job.machine))
                .map_err(|e| deterministic(&e))?;
            &fresh
        }
    };
    let loaded_at = shared.stamp();
    cx.bind_plane(&engine.fault_plane(NPROC));
    let bound_at = shared.stamp();
    let out = engine
        .run_with(NPROC, RunOptions::default())
        .map_err(|e| deterministic(&e))?;
    let ran_at = shared.stamp();
    if !job.program.check(&out) {
        return Err(deterministic(&"wrong output"));
    }
    if shared.trace {
        shared.ops.lock().expect("ops lock").merge(&out.stats);
        let at = [
            entry,
            expanded_at,
            loaded_at,
            bound_at,
            ran_at,
            shared.now(),
        ];
        shared
            .stamps
            .lock()
            .expect("stamps lock")
            .push(RunnerStamps { seq, at });
    }
    Ok(JobYield::default())
}

/// The stack under test plus the benchmark's handles on it.
struct Stack {
    server: ForceServer,
    shared: Arc<Shared>,
    /// Resident job inputs, `[program][machine]` (empty for cold sources).
    resident: Vec<Vec<Arc<JobInput>>>,
    /// Keeps the resident workers alive for the sessions' lifetime.
    _pool: Arc<ForcePool>,
    /// Jobs finished since the measured phase began, and `VmHWM` (kB)
    /// when the [`RSS_MARK_JOBS`]-th did (0: not reached).
    measured: AtomicUsize,
    rss_at_mark_kb: AtomicU64,
}

impl Stack {
    /// Build the server, one pool, and a resident engine session on a
    /// machine of its own for every (program, machine) pair, each primed
    /// with one checked run.
    fn new(programs: &[Program], trace: bool, origin: Instant) -> Stack {
        let server_stats = Arc::new(OpStats::new());
        let pool = Arc::new(ForcePool::new(NPROC, &server_stats));
        let mut sessions = HashMap::new();
        let mut resident = Vec::new();
        for program in programs {
            let mut row = Vec::new();
            for id in MachineId::all() {
                let expanded =
                    prep::preprocess_cached(&program.source, id).expect("corpus expands");
                let engine =
                    Engine::from_expanded(&expanded, Machine::new(id)).expect("corpus loads");
                engine.set_pool(Arc::clone(&pool));
                let out = engine.run(NPROC).expect("corpus runs");
                assert!(
                    program.check(&out),
                    "{} on {}: wrong output",
                    program.name,
                    id.tag()
                );
                sessions.insert(Arc::as_ptr(&expanded) as usize, (expanded, engine));
                row.push(Arc::new(JobInput {
                    program: program.clone(),
                    machine: id,
                }));
            }
            resident.push(row);
        }
        // Nothing may be refused: queues and the shed watermark are far
        // above any backlog these workloads build.
        let server = ForceServer::new(
            ServerConfig {
                tenant_queue_capacity: 1 << 20,
                shed_watermark: 1 << 20,
                shards: 1,
                ..ServerConfig::default()
            },
            server_stats,
        );
        Stack {
            server,
            shared: Arc::new(Shared {
                sessions,
                origin,
                trace,
                stamps: Mutex::new(Vec::new()),
                ops: Mutex::new(StatsSnapshot::default()),
            }),
            resident,
            _pool: pool,
            measured: AtomicUsize::new(0),
            rss_at_mark_kb: AtomicU64::new(0),
        }
    }

    /// Count a finished job; the one that reaches the mark reads the
    /// high-water mark of resident memory.
    fn job_done(&self) {
        if self.measured.fetch_add(1, Ordering::Relaxed) + 1 == RSS_MARK_JOBS {
            self.rss_at_mark_kb
                .store(kernel::status_kb("VmHWM"), Ordering::Release);
        }
    }

    fn runner(&self, job: Arc<JobInput>, seq: u64) -> JobRunner {
        let shared = Arc::clone(&self.shared);
        Box::new(move |cx| run_job(&shared, &job, seq, cx))
    }

    fn resident_job(&self, program: usize, machine: MachineId) -> Arc<JobInput> {
        let m = MachineId::all()
            .iter()
            .position(|id| *id == machine)
            .expect("known machine");
        Arc::clone(&self.resident[program][m])
    }

    /// Submit one job and wait for it: the closed loop's unit.
    fn submit_and_wait(&self, spec: JobSpec, job: Arc<JobInput>, seq: u64) -> Sample {
        let shared = &self.shared;
        let submit = shared.now();
        let verdict = self.server.submit(spec, self.runner(job, seq));
        let submitted = shared.stamp();
        let ok = succeeded(verdict);
        let done = shared.now();
        self.job_done();
        Sample {
            seq,
            submit,
            submitted,
            done,
            from: submit,
            ok,
        }
    }
}

/// Wait for an admitted job; a refusal or any outcome but completion is
/// a failed job, and says why on stderr.
fn succeeded(verdict: Submit) -> bool {
    match verdict {
        Submit::Admitted(handle) => match handle.wait() {
            JobOutcome::Completed { .. } => true,
            other => {
                eprintln!("[bench] job {} failed: {other:?}", handle.id());
                false
            }
        },
        Submit::Rejected { reason } => {
            eprintln!("[bench] job refused: {reason}");
            false
        }
    }
}

/// Where a closed-loop client's next job comes from.
enum JobSource {
    /// A seeded draw over the resident sessions: one program row, or a
    /// weighted draw over all six.
    Resident {
        rng: XorShift64,
        null: bool,
    },
    Cold(ColdGen),
}

impl JobSource {
    fn new(workload: Workload, seed: u64, client: u64) -> JobSource {
        match workload {
            Workload::ColdSources => {
                JobSource::Cold(ColdGen::new(seed, client, workload.clients()))
            }
            _ => JobSource::Resident {
                rng: XorShift64::new(seed ^ (client + 1).wrapping_mul(0xd1b5_4a32_d192_ed03)),
                null: workload == Workload::NullJobs,
            },
        }
    }

    fn next(&mut self, stack: &Stack) -> Arc<JobInput> {
        match self {
            JobSource::Resident { rng, null } => {
                let program = if *null { 0 } else { gen::draw_program(rng) };
                stack.resident_job(program, gen::draw_machine(rng))
            }
            JobSource::Cold(gen) => {
                let (program, machine) = gen.next().expect("cold sources never run out");
                Arc::new(JobInput { program, machine })
            }
        }
    }
}

/// Run `clients` closed-loop clients until `stop` says so; returns their
/// samples.  `stop(jobs_so_far)` is asked before every submit.
fn closed_loop(
    stack: &Stack,
    sources: &mut [JobSource],
    stop: impl Fn(usize) -> bool + Sync,
) -> Vec<Sample> {
    let clients = sources.len() as u64;
    let stop = &stop;
    std::thread::scope(|scope| {
        let handles: Vec<_> = sources
            .iter_mut()
            .enumerate()
            .map(|(client, source)| {
                scope.spawn(move || {
                    let mut samples = Vec::new();
                    while !stop(samples.len()) {
                        let job = source.next(stack);
                        let seq = samples.len() as u64 * clients + client as u64;
                        samples.push(stack.submit_and_wait(
                            JobSpec::for_tenant("closed"),
                            job,
                            seq,
                        ));
                    }
                    samples
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    })
}

/// Drive the arrival schedule from `start_ns`: one generator (this
/// thread) submits each job when it is due, and one collector per
/// priority class waits for outcomes, until the schedule ends or `stop`
/// is set.  Within a class the single
/// dispatcher completes jobs in submission order, so each collector
/// sees every `wait` return as it happens.  Returns the samples and,
/// per submission, `(due time, how late it ran in µs)`.
fn open_loop(
    stack: &Stack,
    schedule: &[Arrival],
    start_ns: u64,
    stop: &AtomicBool,
) -> (Vec<Sample>, Vec<(u64, f64)>) {
    let shared = &stack.shared;
    let mut late = Vec::with_capacity(schedule.len());
    let samples = std::thread::scope(|scope| {
        let mut senders = Vec::new();
        let mut collectors = Vec::new();
        for _class in 0..2 {
            let (tx, rx) = mpsc::channel::<(Sample, Submit)>();
            senders.push(tx);
            collectors.push(scope.spawn(move || {
                let mut samples = Vec::new();
                for (mut sample, verdict) in rx {
                    sample.ok = succeeded(verdict);
                    sample.done = shared.now();
                    stack.job_done();
                    samples.push(sample);
                }
                samples
            }));
        }
        for (seq, arrival) in schedule.iter().enumerate() {
            if stop.load(Ordering::Relaxed) {
                break;
            }
            let due = start_ns + arrival.due_ns;
            let now = shared.now();
            if due > now {
                std::thread::sleep(Duration::from_nanos(due - now));
            }
            let spec = JobSpec::for_tenant(format!("t{}", arrival.tenant)).with_priority(
                if arrival.high {
                    Priority::High
                } else {
                    Priority::Normal
                },
            );
            let job = stack.resident_job(arrival.program, arrival.machine);
            let submit = shared.now();
            let verdict = stack.server.submit(spec, stack.runner(job, seq as u64));
            let sample = Sample {
                seq: seq as u64,
                submit,
                submitted: shared.stamp(),
                done: 0,
                from: due,
                ok: false,
            };
            late.push((due, (submit - due) as f64 / 1e3));
            senders[usize::from(!arrival.high)]
                .send((sample, verdict))
                .expect("collector is alive");
        }
        drop(senders);
        collectors
            .into_iter()
            .flat_map(|c| c.join().expect("collector thread"))
            .collect()
    });
    (samples, late)
}

/// Named values a child reports, printed as `name value` lines; a name
/// that repeats is a series (one value per window).
pub type Values = Vec<(String, f64)>;

pub fn put(values: &mut Values, name: impl Into<String>, value: f64) {
    values.push((name.into(), value));
}

/// Everything before the first measured job: corpus generation,
/// machines, pool, engine sessions, cache priming and the fixed-count
/// warm-up.  `setup_s` is the time from child start to here.
fn set_up(
    workload: Workload,
    seed: u64,
    trace: bool,
    child_start: Instant,
) -> (Stack, Vec<JobSource>, f64) {
    let host_before = kernel::host_ticks();
    let programs = match workload {
        Workload::NullJobs => vec![gen::null_program()],
        Workload::ColdSources => Vec::new(),
        _ => gen::corpus(),
    };
    let stack = Stack::new(&programs, trace, child_start);
    // The open loop warms up closed-loop on the same corpus.
    let mut sources: Vec<JobSource> = (0..workload.clients())
        .map(|c| JobSource::new(workload, seed, c))
        .collect();
    let per_client = workload.warmup_jobs() / sources.len();
    let warmup = closed_loop(&stack, &mut sources, |jobs| jobs >= per_client);
    assert!(warmup.iter().all(|s| s.ok), "a warm-up job failed");
    stack.measured.store(0, Ordering::Relaxed);
    stack.shared.stamps.lock().expect("stamps lock").clear();
    *stack.shared.ops.lock().expect("ops lock") = StatsSnapshot::default();
    let steal_share = kernel::steal_share(host_before, kernel::host_ticks());
    (stack, sources, steal_share)
}

/// Set up and stop: one more `setup_s` sample.
pub fn setup_only(workload: Workload, seed: u64, child_start: Instant) -> Values {
    let (stack, _, steal_share) = set_up(workload, seed, false, child_start);
    let mut values = Values::new();
    put_setup(&mut values, stack.shared.now() as f64 / 1e9, steal_share);
    values
}

/// Suffix of a sample taken while the host was stealing CPU time: the
/// parent uses such samples only when a metric has no others.
pub const DISTURBED: &str = ".disturbed";

fn put_setup(values: &mut Values, setup_s: f64, steal_share: f64) {
    let suffix = if steal_share <= CLEAN_STEAL_SHARE {
        ""
    } else {
        DISTURBED
    };
    put(values, format!("setup_s{suffix}"), setup_s);
}

/// Run the round and return its values.
pub fn run(spec: &RoundSpec, child_start: Instant) -> Values {
    let workload = spec.workload;
    let (stack, mut sources, setup_steal_share) =
        set_up(workload, spec.seed, spec.trace_out.is_some(), child_start);

    let plan = Plan::of(spec.phase.as_nanos() as u64);
    let schedule = match workload {
        Workload::OpenArrivals => {
            gen::poisson_schedule(spec.seed, OPEN_RATE_PER_S, plan.cap as u64 * plan.window_ns)
        }
        _ => Vec::new(),
    };
    let cache_before = (prep::expansion_cache_stats(), prep::pass_counts());
    let start_ns = stack.shared.now();
    let setup_s = start_ns as f64 / 1e9;
    let stop = Arc::new(AtomicBool::new(false));
    let watcher = watch_windows(plan, stack.shared.origin, start_ns, Arc::clone(&stop));
    let (samples, late) = match workload {
        Workload::OpenArrivals => open_loop(&stack, &schedule, start_ns, &stop),
        _ => (
            closed_loop(&stack, &mut sources, |_| stop.load(Ordering::Relaxed)),
            Vec::new(),
        ),
    };
    let probes = watcher.join().expect("window watcher thread");
    let rss_kb = match stack.rss_at_mark_kb.load(Ordering::Acquire) {
        0 => kernel::status_kb("VmHWM"),
        at_mark => at_mark,
    };

    let mut values = Values::new();
    put_setup(&mut values, setup_s, setup_steal_share);
    let kept = end_to_end(
        &mut values,
        workload,
        &samples,
        start_ns,
        plan,
        &probes,
        rss_kb,
    );
    let in_kept_window = |at_ns: u64| {
        kept.get((at_ns.saturating_sub(start_ns) / plan.window_ns) as usize)
            .copied()
            .unwrap_or(false)
    };
    let late: Vec<f64> = late
        .iter()
        .filter(|(due, _)| in_kept_window(*due))
        .map(|(_, us)| *us)
        .collect();
    put(
        &mut values,
        "gen.late_p99_us",
        kernel::quantile(&late, 0.99).unwrap_or(0.0),
    );
    put(
        &mut values,
        "gen.late_max_us",
        kernel::quantile(&late, 1.0).unwrap_or(0.0),
    );

    if let Some(trace_out) = &spec.trace_out {
        let jobs = samples.iter().filter(|s| s.ok).count().max(1) as f64;
        let ((hits0, misses0), passes0) = cache_before;
        let (hits, misses) = prep::expansion_cache_stats();
        let passes = prep::pass_counts();
        let lookups = ((hits - hits0) + (misses - misses0)).max(1) as f64;
        put(
            &mut values,
            "prep.cache_hit_share",
            (hits - hits0) as f64 / lookups,
        );
        put(
            &mut values,
            "prep.cache_entries",
            prep::expansion_cache_len() as f64,
        );
        put(
            &mut values,
            "prep.sed_passes_per_job",
            (passes.sed - passes0.sed) as f64 / jobs,
        );
        put(
            &mut values,
            "prep.m4_passes_per_job",
            (passes.m4 - passes0.m4) as f64 / jobs,
        );
        let ops = *stack.shared.ops.lock().expect("ops lock");
        machdep_per_job(&mut values, &ops, jobs);
        serve_counters(&mut values, &stack, &samples);
        let stamps = std::mem::take(&mut *stack.shared.stamps.lock().expect("stamps lock"));
        let undisturbed: Vec<Sample> = samples
            .iter()
            .filter(|s| in_kept_window(s.done))
            .copied()
            .collect();
        let trace_ok = spans(&mut values, &undisturbed, &stamps, trace_out);
        put(&mut values, "trace_ok", f64::from(u8::from(trace_ok)));
    }
    values
}

/// The top rung of the null ladder and the idle cost of the stack: the
/// median latency of `jobs` empty jobs served closed-loop, one
/// outstanding, and the CPU the then idle server, dispatcher and pool
/// workers use per second of `idle`.
pub fn served_null(jobs: usize, idle: Duration) -> (f64, f64) {
    let stack = Stack::new(&[gen::null_program()], false, Instant::now());
    let mut source = [JobSource::new(Workload::NullJobs, 0x1989, 0)];
    closed_loop(&stack, &mut source, |done| done >= 200);
    let samples = closed_loop(&stack, &mut source, |done| done >= jobs);
    assert!(samples.iter().all(|s| s.ok), "a served null job failed");
    let latency_us: Vec<f64> = samples
        .iter()
        .map(|s| (s.done - s.from) as f64 / 1e3)
        .collect();
    let cpu_before = kernel::cpu_time_us();
    std::thread::sleep(idle);
    let idle_cpu = (kernel::cpu_time_us() - cpu_before) as f64 / idle.as_secs_f64();
    (kernel::median(&latency_us).expect("null jobs"), idle_cpu)
}

/// A window in which the host's other tenants took more than this share
/// of the CPU time is disturbed and not measured.  Sizing runs showed
/// undisturbed windows at 0–2.5 % steal and a `hot_mix` window at 30–50 %
/// steal running 3–10x slower (a preempted lock holder costs its waiter
/// a whole time slice), in episodes of 5–50 s.
const CLEAN_STEAL_SHARE: f64 = 0.03;

/// How a measured phase is cut: it lasts until `want` undisturbed 1 s
/// windows have been seen, and at most `cap` windows.  A phase shorter
/// than one window is one window.
#[derive(Clone, Copy)]
struct Plan {
    want: usize,
    cap: usize,
    window_ns: u64,
}

impl Plan {
    fn of(phase_ns: u64) -> Plan {
        let want = (phase_ns / WINDOW_NS).max(1) as usize;
        Plan {
            want,
            cap: 2 * want + 2,
            window_ns: phase_ns.min(WINDOW_NS),
        }
    }
}

/// What the watcher saw of one window.
struct Probe {
    /// CPU time this process used.
    cpu_us: u64,
    /// Share of all CPU time the host gave to someone else.
    steal_share: f64,
}

/// Which windows were undisturbed: the host left them alone, and the
/// window before them too — a queue built up during a stall drains into
/// the next window, and a stall's CPU ticks are booked late.
fn undisturbed(probes: &[Probe]) -> Vec<bool> {
    let quiet = |p: &Probe| p.steal_share <= CLEAN_STEAL_SHARE;
    (0..probes.len())
        .map(|i| quiet(&probes[i]) && (i == 0 || quiet(&probes[i - 1])))
        .collect()
}

/// A thread that sleeps from window boundary to window boundary, reads
/// this process's CPU time and the host's steal time at each, and sets
/// `stop` once the plan is met.
fn watch_windows(
    plan: Plan,
    origin: Instant,
    start_ns: u64,
    stop: Arc<AtomicBool>,
) -> std::thread::JoinHandle<Vec<Probe>> {
    std::thread::spawn(move || {
        let mut probes: Vec<Probe> = Vec::new();
        let (mut cpu, mut host) = (kernel::cpu_time_us(), kernel::host_ticks());
        while probes.len() < plan.cap
            && undisturbed(&probes).iter().filter(|u| **u).count() < plan.want
        {
            let boundary =
                Duration::from_nanos(start_ns + (probes.len() as u64 + 1) * plan.window_ns);
            std::thread::sleep(boundary.saturating_sub(origin.elapsed()));
            let (cpu_now, host_now) = (kernel::cpu_time_us(), kernel::host_ticks());
            probes.push(Probe {
                cpu_us: cpu_now - cpu,
                steal_share: kernel::steal_share(host, host_now),
            });
            (cpu, host) = (cpu_now, host_now);
        }
        stop.store(true, Ordering::Relaxed);
        probes
    })
}

/// A round's end-to-end samples — one value per measured window for
/// throughput and the latency percentiles, one per round for the rest
/// — plus the ungated tail.  The parent pools the rounds.
/// Returns which windows were measured: the undisturbed ones, or, when
/// the cap came first, the `want` least disturbed.
fn end_to_end(
    values: &mut Values,
    workload: Workload,
    samples: &[Sample],
    start_ns: u64,
    plan: Plan,
    probes: &[Probe],
    rss_kb: u64,
) -> Vec<bool> {
    let mut kept = undisturbed(probes);
    let clean = kept.iter().filter(|k| **k).count();
    // Not one undisturbed window before the cap: measure the least
    // disturbed ones, and say so, so that the parent uses them only if
    // no round did better.
    let suffix = if clean == 0 { DISTURBED } else { "" };
    if clean == 0 {
        let mut by_steal: Vec<usize> = (0..probes.len()).collect();
        by_steal.sort_by(|a, b| probes[*a].steal_share.total_cmp(&probes[*b].steal_share));
        by_steal
            .iter()
            .take(plan.want)
            .for_each(|i| kept[*i] = true);
    }
    let mut put_measured = |name: &str, value: f64| values.push((format!("{name}{suffix}"), value));

    let latency_us = |s: &Sample| (s.done - s.from) as f64 / 1e3;
    let window_of = |s: &Sample| (s.done.saturating_sub(start_ns) / plan.window_ns) as usize;
    let ok: Vec<(u64, f64)> = samples
        .iter()
        .filter(|s| s.ok)
        .map(|s| (s.done.saturating_sub(start_ns), latency_us(s)))
        .collect();
    let windows = kernel::cut_windows(&ok, plan.window_ns, probes.len());
    let per_s = 1e9 / plan.window_ns as f64;
    let (mut cpu_us, mut jobs) = (0, 0);
    for (w, probe) in windows
        .iter()
        .zip(probes)
        .zip(&kept)
        .filter(|(_, k)| **k)
        .map(|(wp, _)| wp)
    {
        put_measured("jobs_per_s", w.len() as f64 * per_s);
        // A window in which nothing completed has no latency to report.
        if let (Some(p50), Some(p90)) = (kernel::quantile(w, 0.5), kernel::quantile(w, 0.9)) {
            put_measured("latency_p50_us", p50);
            put_measured("latency_p90_us", p90);
        }
        (cpu_us, jobs) = (cpu_us + probe.cpu_us, jobs + w.len());
    }
    // Process times come in 10 ms ticks: one value per round, over all
    // its measured windows, not one per window.
    put_measured("cpu_us_per_job", cpu_us as f64 / jobs.max(1) as f64);
    let measured: Vec<&Sample> = samples
        .iter()
        .filter(|s| kept.get(window_of(s)) == Some(&true))
        .collect();
    let good: Vec<f64> = measured
        .iter()
        .filter(|s| s.ok)
        .map(|s| latency_us(s))
        .collect();
    let limit_us = workload.limit().as_micros() as f64;
    let within = good.iter().filter(|l| **l <= limit_us).count();
    put_measured(
        "within_limit_share",
        within as f64 / measured.len().max(1) as f64,
    );
    put(values, "peak_rss_mb", rss_kb as f64 / 1024.0);
    put(values, "attempted", samples.len() as f64);
    put(
        values,
        "failed",
        samples.iter().filter(|s| !s.ok).count() as f64,
    );
    put(
        values,
        "serve.latency_mean_us",
        good.iter().sum::<f64>() / good.len().max(1) as f64,
    );
    put(
        values,
        "serve.latency_p99_us",
        kernel::quantile(&good, 0.99).unwrap_or(f64::NAN),
    );
    put(
        values,
        "serve.latency_max_us",
        kernel::quantile(&good, 1.0).unwrap_or(f64::NAN),
    );
    put(values, "bench.windows", probes.len() as f64);
    put(values, "bench.stall_windows", (probes.len() - clean) as f64);
    kept
}

/// Machine-dependent primitive operations per job, from the jobs' own
/// `RunOutput::stats`.
fn machdep_per_job(values: &mut Values, ops: &StatsSnapshot, jobs: f64) {
    let share = |part: u64, whole: u64| part as f64 / whole.max(1) as f64;
    put(
        values,
        "machdep.lock_acquires_per_job",
        ops.lock_acquires as f64 / jobs,
    );
    put(
        values,
        "machdep.lock_contended_share",
        share(ops.lock_contended, ops.lock_acquires),
    );
    put(
        values,
        "machdep.spin_retries_per_job",
        ops.spin_retries as f64 / jobs,
    );
    put(values, "machdep.parks_per_job", ops.parks as f64 / jobs);
    put(
        values,
        "machdep.spurious_wake_share",
        share(ops.park_spurious_wakes, ops.park_wakes),
    );
    put(
        values,
        "machdep.syscalls_per_job",
        ops.syscalls as f64 / jobs,
    );
    put(
        values,
        "machdep.processes_created_per_job",
        ops.processes_created as f64 / jobs,
    );
}

/// The server's own account of the round.
fn serve_counters(values: &mut Values, stack: &Stack, samples: &[Sample]) {
    let report = stack.server.server_report();
    put(values, "serve.peak_backlog", report.peak_backlog as f64);
    put(values, "serve.retries", report.retries as f64);
    put(values, "serve.shed", report.shed as f64);
    put(values, "serve.rejected", report.rejected as f64);
    put(
        values,
        "serve.deadline_exceeded",
        report.deadline_exceeded as f64,
    );
    // The rollup histogram's percentiles are bucket upper bounds (up to
    // 2x high); its mean is exact, so the cross-check is on means, over
    // submit -> terminal as the server defines it.
    let ours: f64 = samples
        .iter()
        .filter(|s| s.ok)
        .map(|s| (s.done - s.submit) as f64)
        .sum::<f64>()
        / samples.iter().filter(|s| s.ok).count().max(1) as f64;
    put(
        values,
        "serve.rollup_mean_ratio",
        report.latency.mean() as f64 / ours,
    );
}

/// Names of the leaf spans, in the order [`Spans::leaves`] returns them.
pub const LEAVES: [&str; 8] = [
    "serve.submit",
    "serve.queue",
    "prep.expand",
    "fortranish.load",
    "serve.bind",
    "fortranish.run",
    "bench.check",
    "serve.publish",
];

/// One job's spans, as `(start, end)` in ns from the origin.
struct Spans {
    job: (u64, u64),
    submit: (u64, u64),
    queue: (u64, u64),
    runner: (u64, u64),
    expand: (u64, u64),
    load: (u64, u64),
    bind: (u64, u64),
    run: (u64, u64),
    publish: (u64, u64),
}

impl Spans {
    fn new(s: &Sample, r: &RunnerStamps) -> Spans {
        let [entry, expanded, loaded, bound, ran, exit] = r.at;
        Spans {
            job: (s.submit, s.done),
            submit: (s.submit, s.submitted),
            // The dispatcher may enter the runner before `submit` has
            // returned to the client; the job then never queued.
            queue: (s.submitted.min(entry), entry),
            runner: (entry, exit),
            expand: (entry, expanded),
            load: (expanded, loaded),
            bind: (loaded, bound),
            run: (bound, ran),
            publish: (exit, s.done),
        }
    }

    /// The job cut into consecutive leaf intervals that add up to it:
    /// `serve.submit` ends where the runner begins if that is earlier,
    /// and `bench.check` is the runner's self time (the output check).
    fn leaves(&self) -> [(u64, u64); 8] {
        [
            (self.submit.0, self.submit.1.min(self.runner.0)),
            self.queue,
            self.expand,
            self.load,
            self.bind,
            self.run,
            (self.run.1, self.runner.1),
            self.publish,
        ]
    }

    /// Children inside parents, in order, and self times non-negative.
    fn well_formed(&self) -> bool {
        let inside = |c: (u64, u64), p: (u64, u64)| p.0 <= c.0 && c.0 <= c.1 && c.1 <= p.1;
        let in_job = [self.submit, self.queue, self.runner, self.publish];
        let in_runner = [self.expand, self.load, self.bind, self.run];
        in_job.iter().all(|c| inside(*c, self.job))
            && in_runner.iter().all(|c| inside(*c, self.runner))
            && kernel::self_time(self.job, &in_job) <= self.job.1 - self.job.0
            && kernel::self_time(self.runner, &in_runner) <= self.runner.1 - self.runner.0
    }

    fn events(&self, job: u64) -> Vec<Json> {
        // tid 1: the client's view; tid 2: the dispatcher's.
        let client = [
            ("job", self.job),
            ("serve.submit", self.submit),
            ("serve.queue", self.queue),
            ("serve.publish", self.publish),
        ];
        let dispatcher = [
            ("runner", self.runner),
            ("prep.expand", self.expand),
            ("fortranish.load", self.load),
            ("serve.bind", self.bind),
            ("fortranish.run", self.run),
        ];
        let on = |tid: u64, spans: &[(&str, (u64, u64))]| {
            spans
                .iter()
                .map(|(n, (s, e))| kernel::trace_event(n, tid, *s, *e, job))
                .collect::<Vec<_>>()
        };
        let mut events = on(1, &client);
        events.extend(on(2, &dispatcher));
        events
    }
}

/// Join client samples with runner stamps by sequence number, derive the
/// span metrics, and write the trace file.  Returns whether every job's
/// spans are well formed.
fn spans(values: &mut Values, samples: &[Sample], stamps: &[RunnerStamps], out: &PathBuf) -> bool {
    let by_seq: HashMap<u64, &RunnerStamps> = stamps.iter().map(|r| (r.seq, r)).collect();
    let jobs: Vec<(u64, Spans)> = samples
        .iter()
        .filter(|s| s.ok)
        .filter_map(|s| by_seq.get(&s.seq).map(|r| (s.seq, Spans::new(s, r))))
        .collect();
    let us = |(s, e): (u64, u64)| (e - s) as f64 / 1e3;
    let p = |pick: &dyn Fn(&Spans) -> (u64, u64), q: f64| {
        let d: Vec<f64> = jobs.iter().map(|(_, sp)| us(pick(sp))).collect();
        kernel::quantile(&d, q).unwrap_or(f64::NAN)
    };
    put(values, "prep.expand_us", p(&|s| s.expand, 0.5));
    put(values, "fortranish.load_us", p(&|s| s.load, 0.5));
    put(values, "serve.bind_us", p(&|s| s.bind, 0.5));
    put(values, "fortranish.run_us", p(&|s| s.run, 0.5));
    put(values, "serve.submit_us", p(&|s| s.submit, 0.5));
    put(values, "serve.queue_p50_us", p(&|s| s.queue, 0.5));
    put(values, "serve.queue_p90_us", p(&|s| s.queue, 0.9));
    put(values, "serve.publish_us", p(&|s| s.publish, 0.5));
    let overhead: Vec<f64> = jobs.iter().map(|(_, s)| us(s.job) - us(s.runner)).collect();
    put(
        values,
        "serve.overhead_us",
        kernel::median(&overhead).unwrap_or(f64::NAN),
    );
    // Where the jobs' time went: leaf totals as shares of the job total.
    let total: f64 = jobs
        .iter()
        .map(|(_, s)| us(s.job))
        .sum::<f64>()
        .max(f64::MIN_POSITIVE);
    for (i, leaf) in LEAVES.iter().enumerate() {
        let sum: f64 = jobs.iter().map(|(_, s)| us(s.leaves()[i])).sum();
        put(values, format!("{leaf}_share"), sum / total);
    }
    put(values, "trace.jobs", jobs.len() as f64);

    let events: Vec<Json> = jobs
        .iter()
        .take(TRACE_FILE_JOBS)
        .flat_map(|(seq, s)| s.events(*seq))
        .collect();
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).expect("create the results directory");
    }
    std::fs::write(out, kernel::trace_file(events).to_string()).expect("write the trace file");
    !jobs.is_empty() && jobs.iter().all(|(_, s)| s.well_formed())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn probes(steal: &[f64]) -> Vec<Probe> {
        steal
            .iter()
            .map(|s| Probe {
                cpu_us: 1_000_000,
                steal_share: *s,
            })
            .collect()
    }

    #[test]
    fn a_window_is_undisturbed_if_it_and_the_one_before_it_were_quiet() {
        let p = probes(&[0.0, 0.02, 0.40, 0.01, 0.0, 0.031, 0.03]);
        assert_eq!(
            undisturbed(&p),
            [true, true, false, false, true, false, false]
        );
    }

    #[test]
    fn the_plan_asks_for_whole_windows_and_caps_the_phase() {
        let p = Plan::of(4_000_000_000);
        assert_eq!((p.want, p.cap, p.window_ns), (4, 10, WINDOW_NS));
        let short = Plan::of(300_000_000);
        assert_eq!(
            (short.want, short.cap, short.window_ns),
            (1, 4, 300_000_000)
        );
    }

    /// One job per millisecond; in windows listed in `slow`, only one job
    /// in ten completes and each takes ten times as long.
    fn samples(windows: usize, slow: &[usize]) -> Vec<Sample> {
        let mut out = Vec::new();
        for ms in 0..windows as u64 * 1000 {
            let slow_window = slow.contains(&((ms / 1000) as usize));
            if slow_window && ms % 10 != 0 {
                continue;
            }
            let done = ms * 1_000_000 + 500_000;
            let latency = if slow_window { 5_000_000 } else { 500_000 };
            out.push(Sample {
                seq: ms,
                submit: done.saturating_sub(latency),
                submitted: 0,
                done,
                from: done.saturating_sub(latency),
                ok: ms != 1,
            });
        }
        out
    }

    fn series(values: &Values, name: &str) -> Vec<f64> {
        values
            .iter()
            .filter(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .collect()
    }

    #[test]
    fn only_undisturbed_windows_are_measured_but_every_job_is_counted() {
        let plan = Plan {
            want: 2,
            cap: 6,
            window_ns: WINDOW_NS,
        };
        let mut values = Values::new();
        let kept = end_to_end(
            &mut values,
            Workload::HotMix,
            &samples(4, &[1]),
            0,
            plan,
            &probes(&[0.0, 0.45, 0.0, 0.0]),
            2048,
        );
        assert_eq!(
            kept,
            [true, false, false, true],
            "the stall and the window after it are out"
        );
        assert_eq!(
            series(&values, "jobs_per_s"),
            [999.0, 1000.0],
            "job 1 failed"
        );
        assert_eq!(series(&values, "latency_p50_us"), [500.0, 500.0]);
        assert_eq!(series(&values, "cpu_us_per_job"), [2_000_000.0 / 1999.0]);
        assert_eq!(
            series(&values, "within_limit_share"),
            [1999.0 / 2000.0],
            "a failed job misses the limit"
        );
        assert_eq!(series(&values, "attempted"), [3100.0]);
        assert_eq!(series(&values, "failed"), [1.0]);
        assert_eq!(series(&values, "bench.stall_windows"), [2.0]);
        assert_eq!(series(&values, "peak_rss_mb"), [2.0]);
    }

    #[test]
    fn with_no_undisturbed_window_the_least_disturbed_are_reported_apart() {
        let plan = Plan {
            want: 2,
            cap: 3,
            window_ns: WINDOW_NS,
        };
        let mut values = Values::new();
        let kept = end_to_end(
            &mut values,
            Workload::NullJobs,
            &samples(3, &[0, 2]),
            0,
            plan,
            &probes(&[0.5, 0.1, 0.3]),
            1024,
        );
        assert_eq!(kept, [false, true, true]);
        assert!(series(&values, "jobs_per_s").is_empty());
        assert_eq!(series(&values, "jobs_per_s.disturbed"), [1000.0, 100.0]);
        // 5 ms jobs miss the 2 ms limit of null_jobs.
        assert_eq!(
            series(&values, "within_limit_share.disturbed"),
            [1000.0 / 1100.0]
        );
        assert_eq!(
            series(&values, "peak_rss_mb"),
            [1.0],
            "memory does not depend on the host's mood"
        );
    }

    #[test]
    fn spans_nest_and_the_leaves_add_up_to_the_job() {
        let sample = Sample {
            seq: 7,
            submit: 100,
            submitted: 130,
            done: 1000,
            from: 100,
            ok: true,
        };
        let queued = Spans::new(
            &sample,
            &RunnerStamps {
                seq: 7,
                at: [200, 210, 215, 220, 900, 905],
            },
        );
        assert!(queued.well_formed());
        assert_eq!(queued.queue, (130, 200));
        let total: u64 = queued.leaves().iter().map(|(s, e)| e - s).sum();
        assert_eq!(total, 900);
        // The dispatcher entered the runner before `submit` returned.
        let raced = Spans::new(
            &sample,
            &RunnerStamps {
                seq: 7,
                at: [120, 210, 215, 220, 900, 905],
            },
        );
        assert!(raced.well_formed());
        assert_eq!(raced.queue, (120, 120));
        assert_eq!(raced.leaves().iter().map(|(s, e)| e - s).sum::<u64>(), 900);
        // A runner stamp after the client saw the job finish is malformed.
        let torn = Spans::new(
            &sample,
            &RunnerStamps {
                seq: 7,
                at: [200, 210, 215, 220, 900, 1100],
            },
        );
        assert!(!torn.well_formed());
    }
}
