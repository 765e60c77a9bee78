//! # force-serve — Force-as-a-service: a fault-contained multi-tenant job server
//!
//! The paper's model assumes one program owns the machine.  This crate
//! supplies the opposite deployment: a [`ForceServer`] accepts many
//! concurrent jobs — native closures and `.force` source alike, packaged
//! as [`JobRunner`]s by [`force_runner`] and [`engine_runner`] — and feeds
//! them to resident sessions on one shared worker pool.  It sits on top of
//! the stack: it uses both front ends (force-core's `Force`, force-fortran's
//! `Engine`) and, beneath them, one seam of the machine-dependent layer, a
//! served attempt's ([`FaultPlane::lend`], [`FaultPlane::end_loan`],
//! [`FaultPlane::trip_deadline`], [`LazyPool`],
//! [`StopGuard`](force_machdep::process::StopGuard)).  The
//! robustness spine lives here, above the fault plane:
//!
//! * **Admission control** — bounded per-tenant queues; a full queue or a
//!   draining server answers [`Submit::Rejected`] immediately instead of
//!   growing without bound.
//! * **Per-tenant rate limiting** — an optional token bucket
//!   ([`ServerConfig::rate_limit`]) refuses submissions that exceed a
//!   tenant's sustained rate plus burst with
//!   [`RejectReason::RateLimited`], before any queue state is touched.
//! * **Deadlines** — each running job may be shadowed by a watcher thread
//!   that, once the deadline passes, trips the job's bound [`FaultPlane`]
//!   so every blocked process unwinds at its next cancellable wait.  It
//!   trips once: the plane keeps a trip made through a binding across the
//!   reset a session starts its run with, until the dispatcher ends the
//!   attempt, and a plane bound after the deadline fired is tripped as it
//!   is bound.  Binding records, reset applies: the same reset arms a
//!   virtual run's budget left on its virtual clock.  A deadline too far
//!   off for an [`Instant`] to hold is no deadline.
//! * **Retry with jittered backoff** — a job killed by a fault carrying
//!   [`INJECTED_FAULT_MARKER`] (the injection layer's stable payload
//!   prefix) is transient by contract and is re-run up to
//!   [`JobSpec::max_retries`] times, sleeping a deterministic
//!   [`Backoff::jittered_delay`](force_machdep::Backoff::jittered_delay) between attempts.  Deterministic errors
//!   ([`JobError::Deterministic`] — e.g. a `FortError`) are never
//!   retried.
//! * **Priority-aware dequeue and load shedding** — `High` before
//!   `Normal` before `Low`; when the backlog exceeds the configured
//!   watermark, the newest low-priority jobs are dropped with
//!   [`JobOutcome::Shed`] so accepted high-priority work keeps its
//!   latency.
//! * **Graceful drain** — [`ForceServer::shutdown`] stops admission,
//!   runs every already-admitted job to an outcome, then joins the
//!   dispatcher.
//!
//! Jobs inherit per-job isolation for free from the session beneath
//! every front end ([`Session`](force_machdep::Session)), which resets
//! the fault plane and trace sink and reports per-job operation counts.
//! The server rolls those up into per-tenant aggregates ([`TenantRollup`],
//! summed into a [`ServerReport`]), and those rollups are the one account
//! of its own decisions: admissions, rejections, rate limits, sheds,
//! missed deadlines and retries.  A job's `ops` are read from the
//! plane-private counter block of the *plane* the runner bound via
//! [`JobCx::bind_plane`], so two jobs running at once on one machine —
//! a job and a direct run, or the jobs of two servers — never bleed
//! operations into each other's rollups.
//!
//! The crate is split along the server's seams: admission and token
//! buckets (`admission`), the queues, shedding and the dispatch loop
//! (`dispatch`), the run slot and the waiters that take it (`slot`),
//! rollups and reports (`report`), the deadline watcher (`deadline`),
//! and the runners of the two front ends (`runner`).
//!
//! # Who runs a job
//!
//! One dispatcher thread serves one queue set, one per priority class.
//! A job runs with the server's *run slot* (the retry jitter stream and
//! the server's force), so the server runs one job at a time.  A thread
//! in [`JobHandle::wait`] that is not a Force process takes the slot
//! itself when its job is the one the dispatcher would dequeue next and
//! nothing runs; otherwise it sleeps and the dispatcher runs the job.  An
//! idle dispatcher sleeps untimed, and no queued job lacks a wake: a
//! submission wakes the dispatcher when it is asleep with the slot free,
//! and a waiter that gives the slot back wakes it while anything is
//! queued or the drain is on.  Two jobs run at once only on two servers,
//! which may share one machine.
//!
//! # The server's force
//!
//! The paper creates the force once, in the generated driver, because
//! process creation was the expensive machine-dependent primitive; a
//! served session that attached no [`ForcePool`](force_machdep::ForcePool)
//! of its own — a cold source loaded onto a fresh machine, say — used to
//! create its processes per job all the same.  The server therefore owns
//! one resident force as wide as the host, and **lends** it:
//!
//! * **Who owns it** — the server: it sits in the run slot, and whichever
//!   thread runs a job lends it.  No thread exists until a job actually
//!   launches on it, so a server whose sessions all carry pools never
//!   creates one; its one-time `processes_created` charge goes to the
//!   *server's* stats; `shutdown` joins it once the last job has given
//!   the slot back.
//! * **Loan lifetime = one attempt** — [`JobCx::bind_plane`] records the
//!   loan on the plane it binds, the running thread withdraws it when the
//!   attempt returns.  A retry borrows afresh.
//! * **On the plane, not the thread** — the launcher
//!   ([`launch_plane`](force_machdep::launch_plane)) reads the loan off
//!   the plane it is launching, and only when the caller attached no
//!   pool.  A served process that itself creates a force launches a
//!   *different* plane, finds no loan and runs scoped: it cannot queue
//!   behind the pool its own job occupies, as a thread-local would let it.
//! * **Accounting** — a lent job is a pooled job: `processes_created` 0 in
//!   its delta and tenant rollup, priced accordingly by the cost model.
//!   Jobs wider than the host and virtual-time jobs run on scoped
//!   threads exactly as without a server.

#![warn(missing_docs)]

mod admission;
mod deadline;
mod dispatch;
mod report;
mod runner;
mod slot;

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use force_machdep::fault::INJECTED_FAULT_MARKER;
use force_machdep::{
    Condvar, FaultPlane, LazyPool, Mutex, ProcessFault, ProfileReport, RunOptions, StatsHandle,
    StatsSnapshot, XorShift64,
};

pub use admission::{RateLimit, RejectReason, Submit};
pub use deadline::DEADLINE_CONSTRUCT;
pub use report::{ServerReport, TenantRollup};
pub use runner::{engine_runner, force_runner};
pub use slot::JobHandle;

use admission::TokenBucket;
use dispatch::ServeState;
use slot::RunSlot;

/// Dequeue priority of a submitted job.  Order is dequeue order: `High`
/// drains before `Normal`, `Normal` before `Low`; shedding under
/// saturation victimizes the opposite end.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Priority {
    /// Dequeued first; never load-shed.
    High,
    /// The default.
    Normal,
    /// Dequeued last, shed first under saturation.
    Low,
}

impl Priority {
    /// Number of priority classes (queue array size).
    pub const CLASSES: usize = 3;

    fn index(self) -> usize {
        match self {
            Priority::High => 0,
            Priority::Normal => 1,
            Priority::Low => 2,
        }
    }
}

/// Per-job submission parameters.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// The tenant this job is accounted (and queue-bounded) under.
    pub tenant: String,
    /// Dequeue priority.
    pub priority: Priority,
    /// Deadline measured from submission; `None` means unbounded, and so
    /// does a deadline too far off for an [`Instant`] to hold.  An
    /// expired queued job never runs; an expired running job has its
    /// fault plane tripped and is torn down at its next blocking wait.
    pub deadline: Option<Duration>,
    /// Maximum number of re-runs after *transient* faults (deterministic
    /// errors are never retried regardless of this value).
    pub max_retries: u32,
}

impl Default for JobSpec {
    fn default() -> Self {
        JobSpec {
            tenant: "default".into(),
            priority: Priority::Normal,
            deadline: None,
            max_retries: 2,
        }
    }
}

impl JobSpec {
    /// A default spec accounted under `tenant`.
    pub fn for_tenant(tenant: impl Into<String>) -> JobSpec {
        JobSpec {
            tenant: tenant.into(),
            ..JobSpec::default()
        }
    }

    /// Set the dequeue priority.
    pub fn with_priority(mut self, priority: Priority) -> JobSpec {
        self.priority = priority;
        self
    }

    /// Set the deadline (measured from submission).
    pub fn with_deadline(mut self, deadline: Duration) -> JobSpec {
        self.deadline = Some(deadline);
        self
    }

    /// Set the transient-fault retry budget.
    pub fn with_max_retries(mut self, max_retries: u32) -> JobSpec {
        self.max_retries = max_retries;
        self
    }
}

/// Server construction parameters.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Maximum queued (not yet dispatched) jobs per tenant; the
    /// admission bound behind [`RejectReason::QueueFull`].
    pub tenant_queue_capacity: usize,
    /// Backlog threshold above which the dispatcher (or a waiter about to
    /// run its own job) sheds the newest `Low` (then `Normal`) jobs before
    /// dequeuing.
    pub shed_watermark: usize,
    /// Base delay of the retry backoff; attempt `n` sleeps a jittered
    /// value in `[base·2ⁿ/2, base·2ⁿ]` (see [`Backoff::jittered_delay`](force_machdep::Backoff::jittered_delay)).
    pub retry_base: Duration,
    /// Seed of the retry jitter stream: the whole retry schedule is
    /// deterministic per seed.
    pub seed: u64,
    /// Retired: a server has one dispatcher.  0 and 1 both mean that;
    /// [`ForceServer::new`] panics on anything larger.  The field stays
    /// only until the benchmark harness, which sets it to 1, stops naming
    /// it.
    pub shards: usize,
    /// Optional per-tenant token-bucket rate limit applied at admission,
    /// ahead of the queue-capacity check.  `None` (the default) admits
    /// at any rate the queues can hold.
    pub rate_limit: Option<RateLimit>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            tenant_queue_capacity: 64,
            shed_watermark: 128,
            retry_base: Duration::from_micros(500),
            seed: 0x5eed,
            shards: 1,
            rate_limit: None,
        }
    }
}

/// How a job attempt failed.  The variant decides retryability: only
/// [`JobError::Fault`]s whose payload carries the injection marker are
/// transient; everything else is deterministic and is never retried.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// A contained process fault (panic, injected fault, watchdog or
    /// deadline trip) surfaced by the fault plane.
    Fault(ProcessFault),
    /// A deterministic front-end or runtime error (e.g. a `FortError`):
    /// rerunning the same program would fail identically, so the server
    /// never spends retries on it.
    Deterministic(String),
}

impl JobError {
    /// A failure known only by its message, attributed to `construct`:
    /// transient (a [`JobError::Fault`]) when it carries
    /// [`INJECTED_FAULT_MARKER`], deterministic otherwise.
    pub fn classify(construct: &'static str, msg: String) -> JobError {
        if msg.contains(INJECTED_FAULT_MARKER) {
            JobError::Fault(ProcessFault {
                pid: 0,
                construct,
                payload: msg,
            })
        } else {
            JobError::Deterministic(msg)
        }
    }

    /// Whether the retry policy may re-run the job after this error.
    pub fn is_transient(&self) -> bool {
        matches!(self, JobError::Fault(f) if f.payload.contains(INJECTED_FAULT_MARKER))
    }
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Fault(fault) => write!(f, "{fault}"),
            JobError::Deterministic(msg) => write!(f, "{msg}"),
        }
    }
}

/// What a successful job attempt hands back to the server.
#[derive(Debug, Default)]
pub struct JobYield {
    /// The job's trace profile, when it ran with tracing; rolled into
    /// the tenant's aggregate.
    pub profile: Option<ProfileReport>,
}

/// The executable body of a job: called once per attempt with the
/// per-attempt [`JobCx`].  [`force_runner`] and [`engine_runner`] build
/// these around `Force::try_execute_with` / `Engine::run_with`; the
/// contract is that the runner binds its session's fault plane via
/// [`JobCx::bind_plane`] *before* starting the run, so deadline trips
/// reach the job.
pub type JobRunner = Box<dyn FnMut(&JobCx) -> Result<JobYield, JobError> + Send>;

/// Terminal state of a job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobOutcome {
    /// The job ran to completion (possibly after transparent retries).
    Completed {
        /// How many retries it took (0 = first attempt succeeded).
        retries: u32,
    },
    /// The job failed and the retry policy gave up (deterministic error,
    /// retry budget exhausted, or no backoff slot left before the
    /// deadline).
    Faulted {
        /// The final attempt's error.
        error: JobError,
        /// Retries consumed before giving up.
        retries: u32,
    },
    /// The deadline passed before the job produced a result.
    DeadlineExceeded {
        /// `false` if it expired while still queued; `true` if it was
        /// torn down (or raced the deadline) while running.
        ran: bool,
    },
    /// Dropped by load shedding before it ran.
    Shed,
}

impl JobOutcome {
    /// Whether the job produced its result.
    pub fn is_success(&self) -> bool {
        matches!(self, JobOutcome::Completed { .. })
    }
}

/// The fault plane a runner bound for the current attempt, together
/// with the plane-local counter baseline taken at bind time.  The
/// attempt's `ops` delta is `plane.stats().snapshot() - base`: a
/// plane-private read under the per-plane ownership model, immune to
/// concurrent runs charging the same machine.
struct PlaneBinding {
    plane: Arc<FaultPlane>,
    base: StatsSnapshot,
}

/// Shared state between a [`JobHandle`], the dispatcher, and the
/// deadline watcher.
struct JobShared {
    id: u64,
    tenant: String,
    /// Set by the deadline watcher the moment the deadline passes; read
    /// by the dispatcher to classify the attempt and by runners that
    /// want to cooperate without a fault plane.
    deadline_fired: AtomicBool,
    /// Absolute deadline, if the spec set one that an [`Instant`] can
    /// hold.  [`JobCx::bind_plane`] records it on the plane, whose reset
    /// arms the budget left on a virtual run's clock.
    deadline_at: Option<Instant>,
    /// The fault plane of the session currently running this job (plus
    /// its stats baseline), registered by the runner via
    /// [`JobCx::bind_plane`]; the deadline watcher trips the plane to
    /// tear the job down.
    plane: Mutex<Option<PlaneBinding>>,
    outcome: Mutex<Option<JobOutcome>>,
    done: Condvar,
}

/// Per-attempt context handed to a [`JobRunner`].
pub struct JobCx {
    shared: Arc<JobShared>,
    attempt: u32,
    /// The server's resident force, lent to the plane the runner binds.
    force: Arc<LazyPool>,
}

impl JobCx {
    /// Register the fault plane executing this attempt, before its run
    /// starts (rebinding on each attempt is fine), so the deadline watcher
    /// can cancel it — at once, if the deadline already fired.  Binding
    /// snapshots the plane's private counter block, from which alone the
    /// attempt's operation delta is read.
    ///
    /// Binding is also a **loan**: until the attempt ends, a session that
    /// attached no pool of its own launches the plane on the server's
    /// resident force (crate docs, "The server's force") and
    /// reports `processes_created == 0` like any pooled job.
    ///
    /// Binding records, reset applies: the plane keeps the job's deadline
    /// instant beside the loan, and the reset the session starts its run
    /// with ([`FaultPlane::reset_for_job`]) puts back a deadline trip that
    /// already fired and, on a virtual run, arms the budget left on the
    /// *virtual* clock, where a virtual job's miss shows and replays with
    /// the schedule.  The wall watcher stays armed as a backstop.
    pub fn bind_plane(&self, plane: &Arc<FaultPlane>) {
        plane.lend(&self.force, self.shared.deadline_at);
        let (rebound, fired) = {
            let mut bound = self.shared.plane.lock();
            let rebound = bound.replace(PlaneBinding {
                plane: Arc::clone(plane),
                base: plane.stats().snapshot(),
            });
            // Read under the lock the watcher fires under: either it saw
            // this binding and trips the plane, or this sees it fired.
            (rebound, self.deadline_fired())
        };
        // One loan per attempt: a plane bound earlier gives its back.
        if let Some(earlier) = rebound.filter(|b| !Arc::ptr_eq(&b.plane, plane)) {
            earlier.plane.end_loan();
        }
        if fired {
            plane.trip_deadline(deadline::deadline_fault(self.shared.id));
        }
    }

    /// A session's served attempt: [`bind_plane`](Self::bind_plane), then
    /// `options` as this attempt runs them.  With fault injection, each
    /// retry re-derives the injection seed from the attempt number, so a
    /// retried job re-rolls the injection stream instead of replaying the
    /// fault that killed it (which would make retries useless).
    pub fn bind_attempt(&self, plane: &Arc<FaultPlane>, mut options: RunOptions) -> RunOptions {
        self.bind_plane(plane);
        if let Some(inj) = options.injection.as_mut() {
            inj.seed ^= u64::from(self.attempt).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        }
        options
    }

    /// Whether this job's deadline has already passed.
    pub fn deadline_fired(&self) -> bool {
        self.shared.deadline_fired.load(Ordering::Acquire)
    }

    /// 0-based attempt number (0 = first run, 1 = first retry, …).
    pub fn attempt(&self) -> u32 {
        self.attempt
    }
}

/// `map.entry(key).or_insert_with(new)` that builds the owned key only
/// when it is new: every job looks its tenant up several times, and only
/// a tenant's first job should pay for the name.
fn entry_by_name<'a, V>(
    map: &'a mut HashMap<String, V>,
    key: &str,
    new: impl FnOnce() -> V,
) -> &'a mut V {
    if !map.contains_key(key) {
        map.insert(key.to_owned(), new());
    }
    map.get_mut(key).expect("present or just inserted")
}

struct Inner {
    config: ServerConfig,
    /// The queues and the run slot.
    state: Mutex<ServeState>,
    /// Signals the dispatcher: new work, the slot given back with work
    /// queued, or shutdown.
    work: Condvar,
    /// Each tenant's row, written by the jobs admitted, run or shed.
    rollups: Mutex<HashMap<String, TenantRollup>>,
    next_id: AtomicU64,
    /// Per-tenant token buckets; present only when the config sets a
    /// rate limit.
    buckets: Mutex<HashMap<String, TokenBucket>>,
}

/// The multi-tenant job server.  See the crate docs for semantics.
pub struct ForceServer {
    inner: Arc<Inner>,
    dispatcher: Mutex<Option<JoinHandle<()>>>,
}

impl ForceServer {
    /// Start a server whose resident force charges its one-time process
    /// creation to `stats` (normally the machine's counter set).  Its
    /// decisions are counted in its own reports
    /// ([`server_report`](Self::server_report)).  Spawns the dispatcher
    /// thread.
    ///
    /// # Panics
    ///
    /// If `config.shards` is above 1: dispatcher sharding is retired.
    pub fn new(config: ServerConfig, stats: impl Into<StatsHandle>) -> ForceServer {
        assert!(
            config.shards <= 1,
            "ServerConfig::shards is retired: a server has one dispatcher \
             (got shards: {}); run two servers for two jobs at once",
            config.shards
        );
        let inner = Arc::new(Inner {
            state: Mutex::new(ServeState {
                queues: std::array::from_fn(|_| VecDeque::new()),
                per_tenant_depth: HashMap::new(),
                backlog: 0,
                peak_backlog: 0,
                shutting_down: false,
                idle: false,
                run: Some(RunSlot {
                    rng: XorShift64::new(config.seed),
                    // No thread until a bound plane without a pool of its
                    // own launches on it.
                    force: LazyPool::new(stats.into()),
                }),
            }),
            work: Condvar::new(),
            rollups: Mutex::new(HashMap::new()),
            config,
            next_id: AtomicU64::new(1),
            buckets: Mutex::new(HashMap::new()),
        });
        let dispatcher_inner = Arc::clone(&inner);
        let dispatcher = thread::Builder::new()
            .name("force-serve-dispatch".into())
            .spawn(move || dispatch::dispatch_loop(dispatcher_inner))
            .expect("spawn dispatcher");
        ForceServer {
            inner,
            dispatcher: Mutex::new(Some(dispatcher)),
        }
    }

    /// Jobs currently queued (admitted, not yet dispatched).
    pub fn backlog(&self) -> usize {
        self.inner.state.lock().backlog
    }

    /// Stop admission, run every already-admitted job to an outcome,
    /// and join the dispatcher.  Idempotent; also called by `Drop`.
    pub fn shutdown(&self) {
        self.inner.state.lock().shutting_down = true;
        self.inner.work.notify_all();
        if let Some(handle) = self.dispatcher.lock().take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ForceServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// What the unit tests of every module share: a default server, and
/// runners that succeed at once or hold the server until released.
#[cfg(test)]
mod testkit {
    use super::*;

    pub(crate) use force_machdep::OpStats;

    pub(crate) fn server() -> (ForceServer, Arc<OpStats>) {
        let stats = Arc::new(OpStats::new());
        let srv = ForceServer::new(ServerConfig::default(), &stats);
        (srv, stats)
    }

    pub(crate) fn ok_runner() -> JobRunner {
        Box::new(|_cx| Ok(JobYield::default()))
    }

    /// A runner that blocks until `release` is set — used to hold the
    /// dispatcher so queue behavior can be observed deterministically.
    pub(crate) fn gate_runner(release: Arc<AtomicBool>) -> JobRunner {
        Box::new(move |_cx| {
            while !release.load(Ordering::Acquire) {
                thread::sleep(Duration::from_micros(200));
            }
            Ok(JobYield::default())
        })
    }
}

#[cfg(test)]
mod tests {
    use std::panic::{self, AssertUnwindSafe};

    use super::testkit::*;
    use super::*;

    #[test]
    fn shards_past_one_are_retired() {
        let stats = Arc::new(OpStats::new());
        let with_shards = |shards| ServerConfig {
            shards,
            ..ServerConfig::default()
        };
        for shards in [0, 1] {
            let srv = ForceServer::new(with_shards(shards), &stats);
            let job = srv
                .submit(JobSpec::for_tenant("t"), ok_runner())
                .expect_admitted();
            assert_eq!(job.wait(), JobOutcome::Completed { retries: 0 });
            srv.shutdown();
        }
        let retired = panic::catch_unwind(AssertUnwindSafe(|| {
            ForceServer::new(with_shards(2), &stats)
        }));
        let message = retired
            .err()
            .and_then(|payload| payload.downcast_ref::<String>().cloned())
            .expect("shards: 2 panics with a message");
        assert!(message.contains("retired"), "{message}");
    }
}
