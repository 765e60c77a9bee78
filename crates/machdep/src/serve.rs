//! Force-as-a-service: a fault-contained multi-tenant job server.
//!
//! The paper's model assumes one program owns the machine.  This module
//! supplies the opposite deployment: a [`ForceServer`] accepts many
//! concurrent jobs — native closures and `.force` source alike, packaged
//! as [`JobRunner`]s by the `core`/`fortranish` facades — and feeds them
//! to resident sessions on one shared worker pool.  The robustness spine
//! lives here, above the fault plane:
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
//!   virtual run's budget left on its virtual clock.
//! * **Retry with jittered backoff** — a job killed by a fault carrying
//!   [`INJECTED_FAULT_MARKER`] (the injection layer's stable payload
//!   prefix) is transient by contract and is re-run up to
//!   [`JobSpec::max_retries`] times, sleeping a deterministic
//!   [`Backoff::jittered_delay`] between attempts.  Deterministic errors
//!   ([`JobError::Deterministic`] — e.g. a `FortError`) are never
//!   retried.
//! * **Priority-aware dequeue and load shedding** — `High` before
//!   `Normal` before `Low`; when total backlog exceeds the configured
//!   watermark, the newest low-priority jobs are dropped with
//!   [`JobOutcome::Shed`] so accepted high-priority work keeps its
//!   latency.
//! * **Graceful drain** — [`ForceServer::shutdown`] stops admission,
//!   runs every already-admitted job to an outcome, then joins the
//!   dispatcher.
//!
//! Jobs inherit per-job isolation for free from the session beneath
//! every front end ([`Session`](crate::session::Session)), which resets
//! the fault plane and trace sink and reports per-job operation counts.
//! The server rolls those up into per-tenant aggregates ([`TenantRollup`])
//! and counts its own decisions in the machine's [`OpStats`]
//! (`jobs_admitted`, `jobs_rejected`, `jobs_rate_limited`, `jobs_shed`,
//! `jobs_deadline_exceeded`, `job_retries`).  A job's `ops` are read from
//! the plane-private counter block of the *plane* the runner bound via
//! [`JobCx::bind_plane`], so two jobs running concurrently on different
//! shards can never bleed operations into each other's rollups.
//!
//! # Shards
//!
//! Jobs are executed by [`ServerConfig::shards`] dispatcher threads,
//! each owning a private queue set.  One dispatcher per pool was once a
//! hard constraint (a pool runs one job at a time and the machine
//! owned a single counter block); with per-plane stats ownership and
//! one session/pool *per shard*, N shards run N jobs genuinely in
//! parallel on one `Machine`.  The shard topology is:
//!
//! * **Tenant pinning** — every tenant hashes to a *home shard*; its
//!   jobs are queued there, so one tenant's burst fills one shard's
//!   queues and its jobs keep rough FIFO order per priority class.
//! * **Per-shard watermarks** — admission capacity and the shed
//!   watermark apply per shard: an overloaded shard sheds its own
//!   newest low-priority work without disturbing its siblings.
//! * **Work pulling** — an idle dispatcher pulls queued jobs from its
//!   most backlogged sibling (enforcing that sibling's watermark on the
//!   way in), so a hot tenant's backlog drains on every idle shard.  An
//!   idle dispatcher sleeps untimed: a submission that finds its home
//!   shard busy wakes one idle sibling.
//! * **Who runs a job** — whoever holds the shard's *run slot* (the
//!   retry jitter stream and the shard's force), so a shard runs one job
//!   at a time.  A thread in [`JobHandle::wait`] that is not a Force
//!   process takes the slot itself when its job is the one the shard
//!   would dequeue next and nothing runs there; otherwise it sleeps and
//!   the dispatcher runs the job.  No queued job lacks a wake: a
//!   submission wakes the home dispatcher when it is asleep with the slot
//!   free, and a waiter that gives the slot back wakes it while anything
//!   is queued or the drain is on.
//! * **Merged reports** — [`ServerReport`] and [`TenantRollup`] are
//!   merged across shards (`StatsSnapshot::merge` /
//!   `HistogramSnapshot::merge`); queue telemetry stays per shard
//!   ([`ServerReport::shard_peak_backlogs`]) next to a coherent
//!   whole-server peak.
//!
//! # The shard's force
//!
//! The paper creates the force once, in the generated driver, because
//! process creation was the expensive machine-dependent primitive; a
//! served session that attached no [`ForcePool`](crate::pool::ForcePool)
//! of its own — a cold source loaded onto a fresh machine, say — used to
//! create its processes per job all the same.  Each shard therefore owns
//! one resident force as wide as the host, and **lends** it:
//!
//! * **Who owns it** — the shard: it sits in the shard's run slot, and
//!   whichever thread runs a job there lends it.  No thread exists until
//!   a job actually launches on it, so a server whose sessions all carry
//!   pools never creates one; its one-time `processes_created` charge
//!   goes to the *server's* stats; `shutdown` joins it once the shard's
//!   last job has given the slot back.
//! * **Loan lifetime = one attempt** — [`JobCx::bind_plane`] records the
//!   loan on the plane it binds, the running thread withdraws it when the
//!   attempt returns.  A retry borrows afresh; a job pulled by a sibling
//!   borrows the *pulling* shard's force, which is the idle one.
//! * **On the plane, not the thread** — the launcher
//!   ([`launch_plane`](crate::process::launch_plane)) reads the loan off
//!   the plane it is launching, and only when the caller attached no
//!   pool.  A served process that itself creates a force launches a
//!   *different* plane, finds no loan and runs scoped: it cannot queue
//!   behind the pool its own job occupies, as a thread-local would let it.
//! * **Accounting** — a lent job is a pooled job: `processes_created` 0 in
//!   its delta and tenant rollup, priced accordingly by the cost model.
//!   Jobs wider than the host and virtual-time jobs run on scoped
//!   threads exactly as without a server.

use std::collections::{HashMap, VecDeque};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use crate::fault::{self, Construct, FaultPlane, ProcessFault, RunOptions, INJECTED_FAULT_MARKER};
use crate::park;
use crate::pool::LazyPool;
use crate::portable::{Backoff, Condvar, Mutex, XorShift64};
use crate::process::{StopGuard, StopSignal};
use crate::stats::{OpStats, StatsHandle, StatsSnapshot};
use crate::trace::{HistogramSnapshot, ProfileReport};

/// Construct name attributed to deadline trips (shows up in
/// `ProcessFault::construct` for deadline-killed jobs).
pub const DEADLINE_CONSTRUCT: &str = "deadline";

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
    /// Deadline measured from submission; `None` means unbounded.  An
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

/// Per-tenant token-bucket rate limit (see [`ServerConfig::rate_limit`]).
///
/// Each tenant owns one bucket holding up to `burst` tokens, refilled
/// continuously at `refill_per_sec` tokens per second; one submission
/// spends one token.  A tenant that stays under the sustained rate never
/// notices the bucket; a tenant that exceeds it is answered
/// [`RejectReason::RateLimited`] before any queue state is touched.  A
/// `refill_per_sec` of zero makes the bucket a hard budget of `burst`
/// submissions for the server's lifetime; a bucket that refills holds at
/// least one token, so `burst: 0` then admits at the sustained rate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RateLimit {
    /// Bucket capacity: how far a tenant may burst above the sustained
    /// rate.  A fresh tenant starts with a full bucket.
    pub burst: u32,
    /// Sustained refill rate in submissions per second.
    pub refill_per_sec: u32,
}

/// Server construction parameters.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Maximum queued (not yet dispatched) jobs per tenant; the
    /// admission bound behind [`RejectReason::QueueFull`].
    pub tenant_queue_capacity: usize,
    /// Per-shard backlog threshold above which a dispatcher sheds the
    /// newest `Low` (then `Normal`) jobs before dequeuing.
    pub shed_watermark: usize,
    /// Base delay of the retry backoff; attempt `n` sleeps a jittered
    /// value in `[base·2ⁿ/2, base·2ⁿ]` (see [`Backoff::jittered_delay`]).
    pub retry_base: Duration,
    /// Seed for the retry jitter (the whole retry schedule is
    /// deterministic per seed; each shard derives its own stream).
    pub seed: u64,
    /// Number of dispatcher shards (clamped to at least 1).  Tenants are
    /// hash-pinned to shards; idle shards pull queued work from
    /// backlogged siblings.  See the module docs.
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

/// Why a submission was refused at admission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RejectReason {
    /// The tenant's queue is at capacity — backpressure; resubmit later.
    QueueFull {
        /// The tenant whose queue is full.
        tenant: String,
        /// The configured per-tenant capacity.
        capacity: usize,
    },
    /// The tenant's token bucket is empty — it exceeded its configured
    /// sustained rate plus burst; resubmit after the bucket refills.
    RateLimited {
        /// The tenant that ran out of tokens.
        tenant: String,
    },
    /// The server is draining; no new work is admitted.
    ShuttingDown,
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RejectReason::QueueFull { tenant, capacity } => {
                write!(f, "tenant `{tenant}` queue full (capacity {capacity})")
            }
            RejectReason::RateLimited { tenant } => {
                write!(f, "tenant `{tenant}` rate limited")
            }
            RejectReason::ShuttingDown => write!(f, "server shutting down"),
        }
    }
}

/// Admission verdict for one submission.
#[derive(Debug)]
pub enum Submit {
    /// The job was queued; the handle observes its outcome.
    Admitted(JobHandle),
    /// The job was refused and will never run.
    Rejected {
        /// Why admission refused it.
        reason: RejectReason,
    },
}

impl Submit {
    /// The handle, panicking on rejection (test/bench convenience).
    pub fn expect_admitted(self) -> JobHandle {
        match self {
            Submit::Admitted(h) => h,
            Submit::Rejected { reason } => panic!("job rejected: {reason}"),
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
/// per-attempt [`JobCx`].  Facades build these around
/// `Force::try_execute_with` / `Engine::run_with`; the contract is that
/// the runner binds its session's fault plane via [`JobCx::bind_plane`]
/// *before* starting the run, so deadline trips reach the job.
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
/// concurrent jobs on sibling shards charging the same machine.
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
    /// Absolute deadline, if the spec set one.  [`JobCx::bind_plane`]
    /// records it on the plane, whose reset arms the budget left on a
    /// virtual run's clock.
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
    shard: usize,
    /// The executing shard's resident force, lent to the plane the
    /// runner binds.
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
    /// attached no pool of its own launches the plane on the executing
    /// shard's resident force (module docs, "The shard's force") and
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
            plane.trip_deadline(deadline_fault(self.shared.id));
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

    /// The shard executing this attempt: the job's home shard, or the
    /// sibling that pulled it, whichever thread — that shard's dispatcher
    /// or the job's own waiter — runs it.  Stable for the whole attempt,
    /// so a runner can pick a per-shard *session* with it.  It need not
    /// pick a pool: [`bind_plane`](Self::bind_plane) lends the plane this
    /// shard's resident force.
    pub fn shard(&self) -> usize {
        self.shard
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

/// Waits for (and reads) one admitted job's outcome.
pub struct JobHandle {
    shared: Arc<JobShared>,
    inner: Arc<Inner>,
    home: usize,
}

impl std::fmt::Debug for JobHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobHandle")
            .field("id", &self.shared.id)
            .field("tenant", &self.shared.tenant)
            .field("outcome", &self.try_outcome())
            .finish()
    }
}

impl JobHandle {
    /// Server-assigned job id.
    pub fn id(&self) -> u64 {
        self.shared.id
    }

    /// Block until the job reaches a terminal state.
    ///
    /// The caller may run the job itself, on its own stack: a thread that
    /// is not a Force process takes its home shard's run slot when the
    /// job is what that shard would dequeue next and nothing runs there
    /// (module docs, "Who runs a job"), so a closed-loop client pays no
    /// wake-up for its outcome.  The front end's recursion bounds (the
    /// expression parser's, m4's) hold on a 512 KiB stack.  Otherwise, or
    /// from inside a force, it sleeps until the dispatcher — or a sibling
    /// that pulled the job — publishes the outcome.
    pub fn wait(&self) -> JobOutcome {
        if fault::current_pid().is_none() {
            if let Some((job, mut held)) = self.inner.claim(self.home, &self.shared) {
                self.inner
                    .run_job(self.home, job, held.slot.as_mut().expect("claimed"));
            }
        }
        let mut out = None;
        park::wait_on(
            &self.shared.outcome,
            &self.shared.done,
            Construct::Body,
            |slot| {
                out = slot.clone();
                out.is_some()
            },
        );
        out.expect("outcome set")
    }

    /// The outcome if the job already finished, without blocking.
    pub fn try_outcome(&self) -> Option<JobOutcome> {
        self.shared.outcome.lock().clone()
    }
}

/// Per-tenant aggregate of everything the server did on the tenant's
/// behalf.  `ops` and `latency` fold in *all* attempts (a retried
/// attempt consumed real machine operations and real wall time).
#[derive(Debug, Clone, Default)]
pub struct TenantRollup {
    /// Jobs accepted at admission.
    pub admitted: u64,
    /// Jobs refused at admission (queue full or draining).
    pub rejected: u64,
    /// Jobs refused by the per-tenant token bucket (counted separately
    /// from `rejected`: a rate-limited submission is a policy decision,
    /// not backpressure).
    pub rate_limited: u64,
    /// Jobs that completed.
    pub completed: u64,
    /// Jobs that ended in [`JobOutcome::Faulted`].
    pub faulted: u64,
    /// Jobs dropped by load shedding.
    pub shed: u64,
    /// Jobs that missed their deadline (queued or running).
    pub deadline_exceeded: u64,
    /// Transient-fault retries spent across all jobs.
    pub retries: u64,
    /// Machine operations consumed by this tenant's attempts
    /// (per-attempt `StatsSnapshot::since`s, merged).
    pub ops: StatsSnapshot,
    /// Submit→terminal latency of every job (nanoseconds), including
    /// queueing, retries, and backoff sleeps.
    pub latency: HistogramSnapshot,
    /// Jobs that ran with tracing enabled.
    pub traced_jobs: u64,
    /// The most recent traced job's profile.
    pub profile: Option<ProfileReport>,
}

impl TenantRollup {
    /// Fold another shard's rollup for the same tenant into this one.
    /// Counters add; `ops` and `latency` merge; the most recent traced
    /// profile (from either side) is kept.
    pub fn merge(&mut self, other: &TenantRollup) {
        self.admitted += other.admitted;
        self.rejected += other.rejected;
        self.rate_limited += other.rate_limited;
        self.completed += other.completed;
        self.faulted += other.faulted;
        self.shed += other.shed;
        self.deadline_exceeded += other.deadline_exceeded;
        self.retries += other.retries;
        self.ops.merge(&other.ops);
        self.latency.merge(&other.latency);
        self.traced_jobs += other.traced_jobs;
        if let Some(p) = &other.profile {
            self.profile = Some(p.clone());
        }
    }
}

/// Whole-server aggregate: per-tenant rollups summed across all shards,
/// plus queue-depth telemetry.
#[derive(Debug, Clone, Default)]
pub struct ServerReport {
    /// Jobs accepted at admission (all tenants).
    pub admitted: u64,
    /// Jobs refused at admission.
    pub rejected: u64,
    /// Jobs refused by per-tenant rate limiting.
    pub rate_limited: u64,
    /// Jobs completed.
    pub completed: u64,
    /// Jobs ended in [`JobOutcome::Faulted`].
    pub faulted: u64,
    /// Jobs dropped by load shedding.
    pub shed: u64,
    /// Jobs that missed their deadline.
    pub deadline_exceeded: u64,
    /// Transient-fault retries spent.
    pub retries: u64,
    /// Submit→terminal latency across all tenants.
    pub latency: HistogramSnapshot,
    /// Highest instantaneous *whole-server* backlog ever observed — a
    /// coherent total maintained at admission, not a sum of per-shard
    /// peaks (those can occur at different times).
    pub peak_backlog: usize,
    /// Highest backlog each shard's queue set ever held, indexed by
    /// shard.  Under overload each entry stays pinned near
    /// `shed_watermark` plus the admission burst the shard absorbed
    /// between dispatcher wakeups.
    pub shard_peak_backlogs: Vec<usize>,
    /// Per-tenant rollups (merged across shards), sorted by tenant name.
    pub tenants: Vec<(String, TenantRollup)>,
}

/// One queued job awaiting dispatch.  Of its [`JobSpec`] the tenant
/// name and the deadline live (once) in `shared`, and the priority is the
/// queue it sits in.
struct QueuedJob {
    shared: Arc<JobShared>,
    runner: JobRunner,
    max_retries: u32,
    submitted: Instant,
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

/// One shard's queue state, guarded by the shard's mutex.
struct ServeState {
    /// One FIFO per priority class, indexed by `Priority::index`.
    queues: [VecDeque<QueuedJob>; Priority::CLASSES],
    per_tenant_depth: HashMap<String, usize>,
    backlog: usize,
    peak_backlog: usize,
    shutting_down: bool,
    /// This shard's dispatcher is asleep with nobody on the way to wake
    /// it.  Set by the dispatcher, under this lock, as its last act
    /// before it sleeps; taken by whoever notifies it.
    idle: bool,
    /// The run slot, while no job runs on this shard.  Gone for good once
    /// the drained dispatcher has left with it.
    run: Option<RunSlot>,
}

impl ServeState {
    /// The job [`Inner::pop_job`] would take.
    fn head(&self) -> Option<&QueuedJob> {
        self.queues.iter().find_map(VecDeque::front)
    }
}

/// What running a job on a shard takes.  Whichever thread holds it — the
/// shard's dispatcher, or a job's own waiter — runs the shard's one job.
struct RunSlot {
    /// The retry jitter stream, deterministic per seed and shard.
    rng: XorShift64,
    /// The shard's resident force (module docs, "The shard's force").
    force: Arc<LazyPool>,
}

/// A run slot a waiter took from shard `home` in [`Inner::claim`].
/// Dropped — once the job's outcome is published, or while a panic
/// outside the runner unwinds — it goes back to the shard and wakes the
/// shard's sleeping dispatcher if anything is queued (on any shard: the
/// dispatcher pulls) or the drain is on; an awake one looks at the queues
/// before it sleeps.  So neither a queued job nor `shutdown`, which waits
/// for the slot, waits for a waiter that is gone.
struct HeldSlot<'a> {
    inner: &'a Inner,
    home: usize,
    slot: Option<RunSlot>,
}

impl Drop for HeldSlot<'_> {
    fn drop(&mut self) {
        let shard = &self.inner.shards[self.home];
        let st = &mut *shard.state.lock();
        st.run = self.slot.take();
        let queued = self.inner.total_backlog.load(Ordering::Acquire) > 0;
        if (queued || st.shutting_down) && std::mem::take(&mut st.idle) {
            shard.work.notify_all();
        }
    }
}

/// One dispatcher shard: a private queue set, its wake-up signal, its
/// run slot, and the rollup rows written by the jobs run (or shed) here.
/// Rollups are written by the shard that *executed* (or shed) the job
/// and merged across shards at report time, so no global rollup lock
/// sits on the completion path.
struct Shard {
    state: Mutex<ServeState>,
    /// Signals this shard's dispatcher: new work, the slot given back with
    /// work queued, or shutdown.
    work: Condvar,
    rollups: Mutex<HashMap<String, TenantRollup>>,
}

/// One tenant's token bucket.  Tokens are held in micro-tokens so the
/// continuous refill needs no floating point: `refill_per_sec` tokens
/// per second is exactly `refill_per_sec` micro-tokens per microsecond.
struct TokenBucket {
    micro_tokens: u64,
    last_refill: Instant,
}

/// One whole token (in micro-tokens): the price of one submission.
const ONE_TOKEN: u64 = 1_000_000;

struct Inner {
    config: ServerConfig,
    stats: StatsHandle,
    shards: Vec<Shard>,
    /// Coherent whole-server queued-job count (and its peak), maintained
    /// at admission/dequeue so draining dispatchers and `backlog()` see
    /// one number instead of a racy per-shard sum.
    total_backlog: AtomicUsize,
    peak_total_backlog: AtomicUsize,
    next_id: AtomicU64,
    /// Per-tenant token buckets; present only when the config sets a
    /// rate limit.
    buckets: Mutex<HashMap<String, TokenBucket>>,
}

impl Inner {
    /// The shard a tenant's jobs are queued on (FNV-1a over the name).
    fn home_shard(&self, tenant: &str) -> usize {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in tenant.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        (h % self.shards.len() as u64) as usize
    }

    /// Refill `tenant`'s bucket to now and spend one token.  Returns
    /// `false` (reject) if less than a whole token is available.
    fn take_token(&self, tenant: &str, limit: &RateLimit) -> bool {
        // Below one whole token a refilling bucket could never admit.
        let burst = match limit.refill_per_sec {
            0 => limit.burst,
            _ => limit.burst.max(1),
        };
        let cap = u64::from(burst) * ONE_TOKEN;
        let now = Instant::now();
        let mut buckets = self.buckets.lock();
        let bucket = entry_by_name(&mut buckets, tenant, || TokenBucket {
            micro_tokens: cap,
            last_refill: now,
        });
        let elapsed_us = now
            .duration_since(bucket.last_refill)
            .as_micros()
            .min(u128::from(u64::MAX)) as u64;
        bucket.last_refill = now;
        bucket.micro_tokens = bucket
            .micro_tokens
            .saturating_add(elapsed_us.saturating_mul(u64::from(limit.refill_per_sec)))
            .min(cap);
        if bucket.micro_tokens >= ONE_TOKEN {
            bucket.micro_tokens -= ONE_TOKEN;
            true
        } else {
            false
        }
    }

    /// Record a terminal outcome into `shard`'s rollups: tenant rollup,
    /// server counters, and the waiter's wake-up.  Never called with a
    /// shard state lock held.
    fn complete(
        &self,
        shard: usize,
        shared: Arc<JobShared>,
        outcome: JobOutcome,
        submitted: Instant,
        ops: StatsSnapshot,
        profile: Option<ProfileReport>,
    ) {
        let elapsed = submitted.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        {
            let mut rollups = self.shards[shard].rollups.lock();
            let r = entry_by_name(&mut rollups, &shared.tenant, TenantRollup::default);
            r.latency.record(elapsed);
            r.ops.merge(&ops);
            match &outcome {
                JobOutcome::Completed { retries } => {
                    r.completed += 1;
                    r.retries += u64::from(*retries);
                    if let Some(p) = profile {
                        r.traced_jobs += 1;
                        r.profile = Some(p);
                    }
                }
                JobOutcome::Faulted { retries, .. } => {
                    r.faulted += 1;
                    r.retries += u64::from(*retries);
                }
                JobOutcome::DeadlineExceeded { .. } => {
                    r.deadline_exceeded += 1;
                    self.count(|s| &s.jobs_deadline_exceeded);
                }
                JobOutcome::Shed => {
                    r.shed += 1;
                    self.count(|s| &s.jobs_shed);
                }
            }
        }
        *shared.outcome.lock() = Some(outcome);
        shared.done.notify_all();
    }

    fn bump_rollup(&self, shard: usize, tenant: &str, f: impl FnOnce(&mut TenantRollup)) {
        let mut rollups = self.shards[shard].rollups.lock();
        f(entry_by_name(&mut rollups, tenant, TenantRollup::default));
    }

    /// Charge one server decision.  Always direct-to-handle (machine
    /// block): serve decisions are the *server's* operations, never a
    /// tenant plane's, even when a submission arrives from inside a run.
    fn count(&self, proj: impl Fn(&OpStats) -> &AtomicU64) {
        self.stats.add_direct(&proj, 1);
    }

    /// Shed `st`'s overflow above the per-shard watermark into `sink`
    /// (newest `Low` first, then newest `Normal`), tagged with `shard`
    /// so the completion lands in that shard's rollups.  Caller holds
    /// `shard`'s state lock.
    fn sweep_overflow(
        &self,
        shard: usize,
        st: &mut ServeState,
        sink: &mut Vec<(usize, QueuedJob)>,
    ) {
        while st.backlog > self.config.shed_watermark {
            // Victimize the newest lowest-priority job; an all-High
            // backlog is never shed (it is still admission-bounded per
            // tenant).
            let victim = st.queues[Priority::Low.index()]
                .pop_back()
                .or_else(|| st.queues[Priority::Normal.index()].pop_back());
            match victim {
                Some(v) => {
                    st.backlog -= 1;
                    self.total_backlog.fetch_sub(1, Ordering::AcqRel);
                    if let Some(d) = st.per_tenant_depth.get_mut(&v.shared.tenant) {
                        *d = d.saturating_sub(1);
                    }
                    sink.push((shard, v));
                }
                None => break,
            }
        }
    }

    /// Dequeue the highest-priority oldest job from `st`, updating all
    /// backlog accounting.  Caller holds the owning shard's state lock.
    fn pop_job(&self, st: &mut ServeState) -> Option<QueuedJob> {
        let job = st.queues.iter_mut().find_map(VecDeque::pop_front)?;
        st.backlog -= 1;
        self.total_backlog.fetch_sub(1, Ordering::AcqRel);
        if let Some(d) = st.per_tenant_depth.get_mut(&job.shared.tenant) {
            *d = d.saturating_sub(1);
        }
        Some(job)
    }

    /// Work pulling: an idle dispatcher visits its siblings, most
    /// backlogged first, enforcing each visited shard's shed watermark
    /// and taking one queued job to run locally.  Shed victims keep
    /// their home shard's attribution (`sink` entries are tagged).
    fn pull_from_siblings(
        &self,
        me: usize,
        sink: &mut Vec<(usize, QueuedJob)>,
    ) -> Option<QueuedJob> {
        if self.shards.len() <= 1 {
            return None;
        }
        let mut order: Vec<(usize, usize)> = (0..self.shards.len())
            .filter(|&i| i != me)
            .map(|i| (self.shards[i].state.lock().backlog, i))
            .collect();
        order.sort_by_key(|&(hint, _)| std::cmp::Reverse(hint));
        for (hint, victim) in order {
            if hint == 0 {
                // Sorted descending: nothing further has work either.
                break;
            }
            let mut st = self.shards[victim].state.lock();
            self.sweep_overflow(victim, &mut st, sink);
            if let Some(job) = self.pop_job(&mut st) {
                return Some(job);
            }
        }
        None
    }

    /// A job was queued on `home` behind a busy shard: wake one sibling
    /// whose dispatcher is asleep with its slot free, to pull it.  No
    /// wake-up is lost: `idle` is read here under the lock the sibling's
    /// dispatcher set it under, and the dispatcher looked at
    /// `total_backlog` — which counts the job already — under that lock
    /// too, before it slept.  A sibling whose slot a waiter holds is
    /// woken when that waiter gives the slot back, which reads
    /// `total_backlog` too.
    fn wake_an_idle_sibling(&self, home: usize) {
        for (_, shard) in self.shards.iter().enumerate().filter(|&(i, _)| i != home) {
            let asleep = {
                let st = &mut *shard.state.lock();
                st.run.is_some() && std::mem::take(&mut st.idle)
            };
            if asleep {
                shard.work.notify_all();
                return;
            }
        }
    }

    /// Help first: job `shared` and `home`'s run slot, if the slot is free
    /// and the job is what the shard would dequeue next, after its shed
    /// sweep.  Otherwise the dispatcher runs the job: nothing the claim
    /// leaves queued was queued without a wake for it (module docs, "Who
    /// runs a job").
    fn claim(&self, home: usize, shared: &Arc<JobShared>) -> Option<(QueuedJob, HeldSlot<'_>)> {
        let shard = &self.shards[home];
        let mut shed = Vec::new();
        let is_head = |st: &ServeState| st.head().is_some_and(|j| Arc::ptr_eq(&j.shared, shared));
        let claimed = {
            let st = &mut *shard.state.lock();
            if st.run.is_some() && is_head(st) {
                self.sweep_overflow(home, st, &mut shed);
            }
            if st.run.is_some() && is_head(st) {
                let job = self.pop_job(st).expect("the head");
                let slot = st.run.take();
                Some((
                    job,
                    HeldSlot {
                        inner: self,
                        home,
                        slot,
                    },
                ))
            } else {
                None
            }
        };
        self.complete_shed(shed);
        claimed
    }

    /// Publish the outcome of jobs a sweep shed.  Never called with a
    /// shard state lock held.
    fn complete_shed(&self, shed: Vec<(usize, QueuedJob)>) {
        for (shard, victim) in shed {
            self.complete(
                shard,
                victim.shared,
                JobOutcome::Shed,
                victim.submitted,
                StatsSnapshot::default(),
                None,
            );
        }
    }

    /// Run `job` on shard `me` with the shard's run slot — expired while
    /// queued, or attempts with a deadline shadow and retry/backoff — and
    /// record its outcome into the shard's rollups.  The dispatcher and a
    /// job's own waiter run every job through here.
    fn run_job(&self, me: usize, mut job: QueuedJob, slot: &mut RunSlot) {
        // Expired while queued: never run it.
        if let Some(at) = job.shared.deadline_at {
            if Instant::now() >= at {
                job.shared.deadline_fired.store(true, Ordering::Release);
                self.complete(
                    me,
                    job.shared,
                    JobOutcome::DeadlineExceeded { ran: false },
                    job.submitted,
                    StatsSnapshot::default(),
                    None,
                );
                return;
            }
        }

        // Attempt loop: run, classify, maybe retry with jittered backoff.
        let mut attempt = 0u32;
        let mut ops = StatsSnapshot::default();
        let mut profile = None;
        let outcome = loop {
            let watcher = job.shared.deadline_at.map(|at| {
                let shared = Arc::clone(&job.shared);
                StopGuard::spawn(format!("force-deadline-{}", shared.id), move |stop| {
                    watch_deadline(&shared, at, stop)
                })
            });
            let cx = JobCx {
                shared: Arc::clone(&job.shared),
                attempt,
                shard: me,
                force: Arc::clone(&slot.force),
            };
            let result = run_attempt(&mut job.runner, &cx);
            // Stop and join the watcher before the attempt ends, so the
            // session's next job cannot inherit a late trip: ending the
            // attempt lets go of one the plane holds, and that job's reset
            // clears it.
            drop(watcher);
            ops.merge(&attempt_ops(&job.shared));
            // A fired deadline dominates the attempt's own result: the
            // SLA was missed even if the body's completion raced the
            // trip.  (Documented in DESIGN.md §18.)
            if job.shared.deadline_fired.load(Ordering::Acquire) {
                break JobOutcome::DeadlineExceeded { ran: true };
            }
            // A virtual-time job exceeds its budget on the *modeled*
            // clock, surfacing as a deadline-construct fault from the
            // scheduler rather than a wall-watcher trip — same SLA
            // miss, same outcome, and it must never be retried.
            if matches!(&result, Err(JobError::Fault(f)) if f.construct == DEADLINE_CONSTRUCT) {
                job.shared.deadline_fired.store(true, Ordering::Release);
                break JobOutcome::DeadlineExceeded { ran: true };
            }
            match result {
                Ok(y) => {
                    profile = y.profile;
                    break JobOutcome::Completed { retries: attempt };
                }
                Err(error) => {
                    if error.is_transient() && attempt < job.max_retries {
                        // Draw the deterministic jittered delay, then
                        // sleep it only if a retry can still fit before
                        // the deadline.
                        let delay =
                            Backoff::jittered_delay(self.config.retry_base, attempt, &mut slot.rng);
                        let fits = job
                            .shared
                            .deadline_at
                            .is_none_or(|at| Instant::now() + delay < at);
                        if fits {
                            self.count(|s| &s.job_retries);
                            if !delay.is_zero() {
                                thread::sleep(delay);
                            }
                            attempt += 1;
                            // Stale plane bindings from the failed
                            // attempt are fine: the next attempt rebinds
                            // before its run starts.
                            continue;
                        }
                    }
                    break JobOutcome::Faulted {
                        error,
                        retries: attempt,
                    };
                }
            }
        };
        self.complete(me, job.shared, outcome, job.submitted, ops, profile);
    }
}

/// The fault a deadline trip records on the plane of job `id`.
fn deadline_fault(id: u64) -> ProcessFault {
    ProcessFault {
        pid: 0,
        construct: DEADLINE_CONSTRUCT,
        payload: format!("job {id} deadline exceeded"),
    }
}

/// A deadline watcher shadowing one running attempt, run on a
/// [`StopGuard`] thread: once the deadline passes it marks the job and
/// trips the plane the attempt bound, and is done.  The plane holds that
/// trip through the reset its session starts the run with
/// ([`FaultPlane::trip_deadline`]); an attempt that has bound nothing yet
/// trips its plane itself, in [`JobCx::bind_plane`].
fn watch_deadline(shared: &JobShared, at: Instant, stop: &StopSignal) {
    loop {
        // A zero-length sleep still reads the flag: a watcher stopped
        // before its deadline never fires, however late it is scheduled.
        let left = at.saturating_duration_since(Instant::now());
        if stop.sleep(left) {
            return;
        }
        if left.is_zero() {
            break;
        }
    }
    let bound = {
        let binding = shared.plane.lock();
        shared.deadline_fired.store(true, Ordering::Release);
        binding.as_ref().map(|b| Arc::clone(&b.plane))
    };
    if let Some(plane) = bound {
        plane.trip_deadline(deadline_fault(shared.id));
    }
}

/// The multi-tenant job server.  See the module docs for semantics.
pub struct ForceServer {
    inner: Arc<Inner>,
    dispatchers: Mutex<Vec<JoinHandle<()>>>,
}

impl ForceServer {
    /// Start a server counting its decisions into `stats` (normally the
    /// machine's counter set, so server activity shows up next to lock
    /// and barrier traffic).  Spawns one dispatcher thread per
    /// configured shard.
    pub fn new(config: ServerConfig, stats: impl Into<StatsHandle>) -> ForceServer {
        let nshards = config.shards.max(1);
        let stats: StatsHandle = stats.into();
        let seed = config.seed;
        let run_slot = |shard: usize| RunSlot {
            rng: XorShift64::new(
                seed.wrapping_add((shard as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)),
            ),
            // No thread until a bound plane without a pool of its own
            // launches on it.
            force: LazyPool::new(stats.clone()),
        };
        let inner = Arc::new(Inner {
            config,
            stats: stats.clone(),
            shards: (0..nshards)
                .map(|shard| Shard {
                    state: Mutex::new(ServeState {
                        queues: std::array::from_fn(|_| VecDeque::new()),
                        per_tenant_depth: HashMap::new(),
                        backlog: 0,
                        peak_backlog: 0,
                        shutting_down: false,
                        idle: false,
                        run: Some(run_slot(shard)),
                    }),
                    work: Condvar::new(),
                    rollups: Mutex::new(HashMap::new()),
                })
                .collect(),
            total_backlog: AtomicUsize::new(0),
            peak_total_backlog: AtomicUsize::new(0),
            next_id: AtomicU64::new(1),
            buckets: Mutex::new(HashMap::new()),
        });
        let dispatchers = (0..nshards)
            .map(|shard| {
                let dispatcher_inner = Arc::clone(&inner);
                thread::Builder::new()
                    .name(format!("force-serve-dispatch-{shard}"))
                    .spawn(move || dispatch_loop(dispatcher_inner, shard))
                    .expect("spawn dispatcher")
            })
            .collect();
        ForceServer {
            inner,
            dispatchers: Mutex::new(dispatchers),
        }
    }

    /// Submit one job.  Returns immediately with the admission verdict;
    /// an admitted job's outcome is observed through the handle.  The
    /// job queues on its tenant's home shard.
    pub fn submit(&self, spec: JobSpec, runner: JobRunner) -> Submit {
        let inner = &self.inner;
        let home = inner.home_shard(&spec.tenant);
        // Rate limit first: a rate-limited submission must not consume
        // queue capacity, and the bucket must drain even while the
        // tenant's queue has room.
        if let Some(limit) = inner.config.rate_limit {
            if !inner.take_token(&spec.tenant, &limit) {
                inner.count(|s| &s.jobs_rate_limited);
                inner.bump_rollup(home, &spec.tenant, |r| r.rate_limited += 1);
                return Submit::Rejected {
                    reason: RejectReason::RateLimited {
                        tenant: spec.tenant,
                    },
                };
            }
        }
        let shared = Arc::new(JobShared {
            id: inner.next_id.fetch_add(1, Ordering::Relaxed),
            tenant: spec.tenant,
            deadline_fired: AtomicBool::new(false),
            deadline_at: spec.deadline.map(|d| Instant::now() + d),
            plane: Mutex::new(None),
            outcome: Mutex::new(None),
            done: Condvar::new(),
        });
        let submitted = Instant::now();
        let job = QueuedJob {
            shared: Arc::clone(&shared),
            runner,
            max_retries: spec.max_retries,
            submitted,
        };
        // Admission and queueing are one critical section: a shutdown lands
        // before it and refuses the job, or after, and the drain finds it.
        let admitted = {
            let mut guard = inner.shards[home].state.lock();
            let st = &mut *guard;
            let capacity = inner.config.tenant_queue_capacity;
            if st.shutting_down {
                Err(RejectReason::ShuttingDown)
            } else {
                let depth = entry_by_name(&mut st.per_tenant_depth, &shared.tenant, || 0);
                if *depth >= capacity {
                    Err(RejectReason::QueueFull {
                        tenant: shared.tenant.clone(),
                        capacity,
                    })
                } else {
                    *depth += 1;
                    st.backlog += 1;
                    st.peak_backlog = st.peak_backlog.max(st.backlog);
                    let total = inner.total_backlog.fetch_add(1, Ordering::AcqRel) + 1;
                    inner.peak_total_backlog.fetch_max(total, Ordering::AcqRel);
                    st.queues[spec.priority.index()].push_back(job);
                    // A dispatcher asleep while a waiter holds the slot is
                    // woken when the waiter gives the slot back.
                    Ok(st.run.is_some() && std::mem::take(&mut st.idle))
                }
            }
        };
        let home_idle = match admitted {
            Ok(home_idle) => home_idle,
            Err(reason) => {
                inner.count(|s| &s.jobs_rejected);
                inner.bump_rollup(home, &shared.tenant, |r| r.rejected += 1);
                return Submit::Rejected { reason };
            }
        };
        inner.count(|s| &s.jobs_admitted);
        inner.bump_rollup(home, &shared.tenant, |r| r.admitted += 1);
        if home_idle {
            inner.shards[home].work.notify_all();
        } else {
            inner.wake_an_idle_sibling(home);
        }
        Submit::Admitted(JobHandle {
            shared,
            inner: Arc::clone(inner),
            home,
        })
    }

    /// Number of dispatcher shards.
    pub fn shards(&self) -> usize {
        self.inner.shards.len()
    }

    /// The shard a tenant's jobs queue on (stable for the server's
    /// lifetime; pulled jobs may still *execute* elsewhere).
    pub fn shard_of(&self, tenant: &str) -> usize {
        self.inner.home_shard(tenant)
    }

    /// Jobs currently queued (admitted, not yet dispatched), summed
    /// over all shards.
    pub fn backlog(&self) -> usize {
        self.inner.total_backlog.load(Ordering::Acquire)
    }

    /// Highest whole-server backlog ever observed (coherent total, not
    /// a sum of per-shard peaks).
    pub fn peak_backlog(&self) -> usize {
        self.inner.peak_total_backlog.load(Ordering::Acquire)
    }

    /// Highest backlog each shard's queue set ever held.
    pub fn shard_peak_backlogs(&self) -> Vec<usize> {
        self.inner
            .shards
            .iter()
            .map(|s| s.state.lock().peak_backlog)
            .collect()
    }

    /// Snapshot one tenant's rollup (merged across shards), if the
    /// tenant has ever been seen.
    pub fn tenant_report(&self, tenant: &str) -> Option<TenantRollup> {
        let mut merged: Option<TenantRollup> = None;
        for shard in &self.inner.shards {
            if let Some(r) = shard.rollups.lock().get(tenant) {
                match &mut merged {
                    Some(m) => m.merge(r),
                    None => merged = Some(r.clone()),
                }
            }
        }
        merged
    }

    /// Snapshot the whole server: tenant rollups merged across shards
    /// and summed, plus per-shard and whole-server queue telemetry.
    pub fn server_report(&self) -> ServerReport {
        let mut report = ServerReport::default();
        let mut by_tenant: HashMap<String, TenantRollup> = HashMap::new();
        for shard in &self.inner.shards {
            for (tenant, r) in shard.rollups.lock().iter() {
                by_tenant.entry(tenant.clone()).or_default().merge(r);
            }
        }
        let mut tenants: Vec<(String, TenantRollup)> = by_tenant.into_iter().collect();
        tenants.sort_by(|a, b| a.0.cmp(&b.0));
        for (_, r) in &tenants {
            report.admitted += r.admitted;
            report.rejected += r.rejected;
            report.rate_limited += r.rate_limited;
            report.completed += r.completed;
            report.faulted += r.faulted;
            report.shed += r.shed;
            report.deadline_exceeded += r.deadline_exceeded;
            report.retries += r.retries;
            report.latency.merge(&r.latency);
        }
        report.tenants = tenants;
        report.peak_backlog = self.peak_backlog();
        report.shard_peak_backlogs = self.shard_peak_backlogs();
        report
    }

    /// Stop admission, run every already-admitted job to an outcome,
    /// and join every dispatcher.  Idempotent; also called by `Drop`.
    pub fn shutdown(&self) {
        for shard in &self.inner.shards {
            shard.state.lock().shutting_down = true;
            shard.work.notify_all();
        }
        for handle in self.dispatchers.lock().drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for ForceServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Run one attempt, converting runner panics into [`JobError`]s so a
/// buggy or deliberately-panicking runner cannot kill the dispatcher.
fn run_attempt(runner: &mut JobRunner, cx: &JobCx) -> Result<JobYield, JobError> {
    match panic::catch_unwind(AssertUnwindSafe(|| runner(cx))) {
        Ok(result) => result,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
                .unwrap_or_else(|| "runner panicked".into());
            match JobError::classify("runner", msg) {
                JobError::Deterministic(msg) => {
                    Err(JobError::Deterministic(format!("runner panicked: {msg}")))
                }
                transient => Err(transient),
            }
        }
    }
}

/// Read and re-base the attempt's operation delta from the plane the
/// runner bound (exact: only this job charges that plane's local block),
/// and end what that binding was: the loan and the deadline.  A runner
/// that never bound a plane reports no ops.  Re-basing (rather than
/// clearing) means a retry that faults before rebinding cannot
/// double-count the previous attempt's operations.
fn attempt_ops(shared: &JobShared) -> StatsSnapshot {
    let mut bound = shared.plane.lock();
    match bound.as_mut() {
        Some(binding) => {
            binding.plane.end_loan();
            let now = binding.plane.stats().snapshot();
            let delta = now.since(&binding.base);
            binding.base = now;
            delta
        }
        None => StatsSnapshot::default(),
    }
}

/// One shard's dispatcher: with the shard's run slot, sheds, dequeues
/// (pulling from backlogged siblings when its own queues are dry) and
/// runs jobs until nothing is queued anywhere, then gives the slot back
/// and sleeps — as it does while a job's waiter holds the slot.  Exits
/// once shutdown is requested, the slot is back and *every* shard's
/// queues are drained — an idle shard keeps pulling siblings' work
/// during the drain — and drops the slot, which joins the shard's force.
fn dispatch_loop(inner: Arc<Inner>, me: usize) {
    let shard = &inner.shards[me];
    let mut run: Option<RunSlot> = None;
    loop {
        let mut shed: Vec<(usize, QueuedJob)> = Vec::new();
        let mut next = None;
        let mut drained = false;
        // Sleep until `work` is notified — by a submission to this shard,
        // by one that found its own shard busy and this one idle, by a
        // waiter giving the slot back with work queued, or by the shutdown.
        park::wait_on(&shard.state, &shard.work, Construct::Body, |st| {
            let queued = inner.total_backlog.load(Ordering::Acquire) > 0;
            if queued || st.shutting_down {
                run = run.take().or_else(|| st.run.take());
            } else if let Some(slot) = run.take() {
                st.run = Some(slot);
            }
            drained = st.shutting_down && !queued && run.is_some();
            st.idle = run.is_none();
            if run.is_some() && !drained {
                // Own queues first: enforce the shard watermark, then
                // dequeue.
                inner.sweep_overflow(me, st, &mut shed);
                next = inner.pop_job(st);
            }
            run.is_some()
        });
        if drained {
            return;
        }
        // Idle: pull one queued job from the most backlogged sibling.
        if next.is_none() {
            next = inner.pull_from_siblings(me, &mut shed);
        }
        inner.complete_shed(shed);
        if let Some(job) = next {
            inner.run_job(me, job, run.as_mut().expect("the slot is held"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn server() -> (ForceServer, Arc<OpStats>) {
        let stats = Arc::new(OpStats::new());
        let srv = ForceServer::new(ServerConfig::default(), &stats);
        (srv, stats)
    }

    fn ok_runner() -> JobRunner {
        Box::new(|_cx| Ok(JobYield::default()))
    }

    /// A runner that blocks until `release` is set — used to hold the
    /// dispatcher so queue behavior can be observed deterministically.
    fn gate_runner(release: Arc<AtomicBool>) -> JobRunner {
        Box::new(move |_cx| {
            while !release.load(Ordering::Acquire) {
                thread::sleep(Duration::from_micros(200));
            }
            Ok(JobYield::default())
        })
    }

    #[test]
    fn jobs_complete_and_are_counted() {
        let (srv, stats) = server();
        let handles: Vec<JobHandle> = (0..10)
            .map(|_| {
                srv.submit(JobSpec::for_tenant("t"), ok_runner())
                    .expect_admitted()
            })
            .collect();
        for h in handles {
            assert_eq!(h.wait(), JobOutcome::Completed { retries: 0 });
        }
        srv.shutdown();
        assert_eq!(stats.snapshot().jobs_admitted, 10);
        let r = srv.tenant_report("t").expect("tenant seen");
        assert_eq!(r.admitted, 10);
        assert_eq!(r.completed, 10);
        assert_eq!(r.latency.count(), 10);
        assert_eq!(r.retries, 0);
    }

    #[test]
    fn admission_bounds_each_tenant_independently() {
        let stats = Arc::new(OpStats::new());
        let srv = ForceServer::new(
            ServerConfig {
                tenant_queue_capacity: 2,
                ..ServerConfig::default()
            },
            &stats,
        );
        let release = Arc::new(AtomicBool::new(false));
        // Hold the dispatcher on a gate job so submissions stay queued.
        let gate = srv
            .submit(
                JobSpec::for_tenant("gate"),
                gate_runner(Arc::clone(&release)),
            )
            .expect_admitted();
        // Wait until the gate job is actually dispatched (backlog 0).
        while srv.backlog() > 0 {
            thread::yield_now();
        }
        let mut admitted = Vec::new();
        for _ in 0..2 {
            admitted.push(
                srv.submit(JobSpec::for_tenant("a"), ok_runner())
                    .expect_admitted(),
            );
        }
        // Third `a` job bounces; tenant `b` is unaffected.
        match srv.submit(JobSpec::for_tenant("a"), ok_runner()) {
            Submit::Rejected {
                reason: RejectReason::QueueFull { tenant, capacity },
            } => {
                assert_eq!(tenant, "a");
                assert_eq!(capacity, 2);
            }
            other => panic!("expected QueueFull, got {other:?}"),
        }
        let b = srv
            .submit(JobSpec::for_tenant("b"), ok_runner())
            .expect_admitted();
        release.store(true, Ordering::Release);
        assert!(gate.wait().is_success());
        for h in admitted {
            assert!(h.wait().is_success());
        }
        assert!(b.wait().is_success());
        srv.shutdown();
        assert_eq!(stats.snapshot().jobs_rejected, 1);
        assert_eq!(srv.tenant_report("a").unwrap().rejected, 1);
        assert_eq!(srv.tenant_report("b").unwrap().rejected, 0);
    }

    #[test]
    fn dequeue_is_priority_ordered() {
        let (srv, _) = server();
        let release = Arc::new(AtomicBool::new(false));
        let gate = srv
            .submit(
                JobSpec::for_tenant("gate"),
                gate_runner(Arc::clone(&release)),
            )
            .expect_admitted();
        while srv.backlog() > 0 {
            thread::yield_now();
        }
        let order = Arc::new(Mutex::new(Vec::new()));
        let mut handles = Vec::new();
        for (name, prio) in [
            ("low", Priority::Low),
            ("normal", Priority::Normal),
            ("high", Priority::High),
        ] {
            let order = Arc::clone(&order);
            handles.push(
                srv.submit(
                    JobSpec::for_tenant("t").with_priority(prio),
                    Box::new(move |_cx| {
                        order.lock().push(name);
                        Ok(JobYield::default())
                    }),
                )
                .expect_admitted(),
            );
        }
        release.store(true, Ordering::Release);
        gate.wait();
        for h in handles {
            assert!(h.wait().is_success());
        }
        assert_eq!(*order.lock(), vec!["high", "normal", "low"]);
        srv.shutdown();
    }

    #[test]
    fn saturation_sheds_newest_low_priority_first() {
        let stats = Arc::new(OpStats::new());
        let srv = ForceServer::new(
            ServerConfig {
                tenant_queue_capacity: 64,
                shed_watermark: 4,
                ..ServerConfig::default()
            },
            &stats,
        );
        let release = Arc::new(AtomicBool::new(false));
        let gate = srv
            .submit(
                JobSpec::for_tenant("gate"),
                gate_runner(Arc::clone(&release)),
            )
            .expect_admitted();
        while srv.backlog() > 0 {
            thread::yield_now();
        }
        // 2 High + 6 Low queued = backlog 8 > watermark 4: the dispatcher
        // sheds Low jobs down to the watermark before running anything.
        let high: Vec<JobHandle> = (0..2)
            .map(|_| {
                srv.submit(
                    JobSpec::for_tenant("t").with_priority(Priority::High),
                    ok_runner(),
                )
                .expect_admitted()
            })
            .collect();
        let low: Vec<JobHandle> = (0..6)
            .map(|_| {
                srv.submit(
                    JobSpec::for_tenant("t").with_priority(Priority::Low),
                    ok_runner(),
                )
                .expect_admitted()
            })
            .collect();
        release.store(true, Ordering::Release);
        gate.wait();
        let outcomes: Vec<JobOutcome> = low.iter().map(JobHandle::wait).collect();
        for h in &high {
            assert!(h.wait().is_success(), "High jobs are never shed");
        }
        let shed = outcomes.iter().filter(|o| **o == JobOutcome::Shed).count();
        assert_eq!(shed, 4, "backlog 8 must shed down to the watermark 4");
        // The *newest* Low jobs are victimized; the oldest survive.
        assert!(outcomes[0].is_success());
        assert_eq!(outcomes[5], JobOutcome::Shed);
        srv.shutdown();
        assert_eq!(stats.snapshot().jobs_shed, 4);
        assert!(srv.peak_backlog() >= 8);
    }

    #[test]
    fn transient_faults_retry_and_recover() {
        let (srv, stats) = server();
        let attempts = Arc::new(AtomicUsize::new(0));
        let attempts2 = Arc::clone(&attempts);
        let h = srv
            .submit(
                JobSpec::for_tenant("t").with_max_retries(5),
                Box::new(move |cx| {
                    attempts2.fetch_add(1, Ordering::SeqCst);
                    if cx.attempt() < 2 {
                        Err(JobError::Fault(ProcessFault {
                            pid: 0,
                            construct: "barrier",
                            payload: format!("{INJECTED_FAULT_MARKER} barrier (pid 0)"),
                        }))
                    } else {
                        Ok(JobYield::default())
                    }
                }),
            )
            .expect_admitted();
        assert_eq!(h.wait(), JobOutcome::Completed { retries: 2 });
        assert_eq!(attempts.load(Ordering::SeqCst), 3);
        srv.shutdown();
        assert_eq!(stats.snapshot().job_retries, 2);
        assert_eq!(srv.tenant_report("t").unwrap().retries, 2);
    }

    #[test]
    fn transient_retry_budget_exhausts() {
        let (srv, stats) = server();
        let h = srv
            .submit(
                JobSpec::for_tenant("t").with_max_retries(3),
                Box::new(move |_cx| {
                    Err(JobError::Fault(ProcessFault {
                        pid: 1,
                        construct: "doall",
                        payload: format!("{INJECTED_FAULT_MARKER} doall (pid 1)"),
                    }))
                }),
            )
            .expect_admitted();
        match h.wait() {
            JobOutcome::Faulted { error, retries } => {
                assert_eq!(retries, 3);
                assert!(error.is_transient());
            }
            other => panic!("expected Faulted, got {other:?}"),
        }
        srv.shutdown();
        assert_eq!(stats.snapshot().job_retries, 3);
    }

    #[test]
    fn deterministic_errors_never_retry() {
        let (srv, stats) = server();
        let attempts = Arc::new(AtomicUsize::new(0));
        let attempts2 = Arc::clone(&attempts);
        let h = srv
            .submit(
                JobSpec::for_tenant("t").with_max_retries(5),
                Box::new(move |_cx| {
                    attempts2.fetch_add(1, Ordering::SeqCst);
                    Err(JobError::Deterministic("line 3: divide by zero".into()))
                }),
            )
            .expect_admitted();
        match h.wait() {
            JobOutcome::Faulted { error, retries } => {
                assert_eq!(retries, 0, "deterministic errors must not retry");
                assert!(!error.is_transient());
            }
            other => panic!("expected Faulted, got {other:?}"),
        }
        assert_eq!(attempts.load(Ordering::SeqCst), 1);
        srv.shutdown();
        assert_eq!(stats.snapshot().job_retries, 0);
        // A genuine (non-injected) process fault is deterministic too.
        let real_panic = JobError::Fault(ProcessFault {
            pid: 0,
            construct: "critical",
            payload: "index out of bounds".into(),
        });
        assert!(!real_panic.is_transient());
    }

    #[test]
    fn queued_deadline_expires_without_running() {
        let (srv, stats) = server();
        let release = Arc::new(AtomicBool::new(false));
        let gate = srv
            .submit(
                JobSpec::for_tenant("gate"),
                gate_runner(Arc::clone(&release)),
            )
            .expect_admitted();
        while srv.backlog() > 0 {
            thread::yield_now();
        }
        let ran = Arc::new(AtomicBool::new(false));
        let ran2 = Arc::clone(&ran);
        let h = srv
            .submit(
                JobSpec::for_tenant("t").with_deadline(Duration::from_millis(5)),
                Box::new(move |_cx| {
                    ran2.store(true, Ordering::SeqCst);
                    Ok(JobYield::default())
                }),
            )
            .expect_admitted();
        thread::sleep(Duration::from_millis(20));
        release.store(true, Ordering::Release);
        gate.wait();
        assert_eq!(h.wait(), JobOutcome::DeadlineExceeded { ran: false });
        assert!(!ran.load(Ordering::SeqCst), "expired job must never run");
        srv.shutdown();
        assert_eq!(stats.snapshot().jobs_deadline_exceeded, 1);
    }

    #[test]
    fn running_deadline_fires_and_dominates() {
        let (srv, stats) = server();
        let h = srv
            .submit(
                JobSpec::for_tenant("t").with_deadline(Duration::from_millis(10)),
                Box::new(move |cx| {
                    // A cooperative long job: observes the deadline flag
                    // the way a fault-plane wait observes the trip.
                    while !cx.deadline_fired() {
                        thread::sleep(Duration::from_micros(200));
                    }
                    Ok(JobYield::default())
                }),
            )
            .expect_admitted();
        assert_eq!(h.wait(), JobOutcome::DeadlineExceeded { ran: true });
        srv.shutdown();
        assert_eq!(stats.snapshot().jobs_deadline_exceeded, 1);
    }

    #[test]
    fn deadline_trips_a_bound_fault_plane_through_resets() {
        // The watcher must keep re-asserting the trip: binding a plane
        // and resetting it after the deadline fires (as a session's
        // run-start reset would) still ends with the plane tripped.
        let stats = Arc::new(OpStats::new());
        let plane = FaultPlane::new(2, Arc::clone(&stats), crate::fault::RunOptions::default());
        let srv = ForceServer::new(ServerConfig::default(), &stats);
        let plane2 = Arc::clone(&plane);
        let h = srv
            .submit(
                JobSpec::for_tenant("t").with_deadline(Duration::from_millis(10)),
                Box::new(move |cx| {
                    cx.bind_plane(&plane2);
                    // Wait for the first trip, then erase it like a
                    // session reset racing the watcher would.
                    while !plane2.is_tripped() {
                        thread::sleep(Duration::from_micros(100));
                    }
                    plane2.reset_for_job(crate::fault::RunOptions::default());
                    // The watcher re-asserts the trip.
                    while !plane2.is_tripped() {
                        thread::sleep(Duration::from_micros(100));
                    }
                    Err(JobError::Fault(
                        plane2.take_fault().expect("tripped plane has a fault"),
                    ))
                }),
            )
            .expect_admitted();
        assert_eq!(h.wait(), JobOutcome::DeadlineExceeded { ran: true });
        srv.shutdown();
    }

    #[test]
    fn virtual_time_budget_exhaustion_is_a_deadline_outcome() {
        // A virtual-time job burns almost no wall clock, so only the
        // modeled machine's clock can reveal the SLA miss.  The
        // scheduler trips the plane with the deadline construct at a
        // *virtual* instant, and the dispatcher classifies that as
        // DeadlineExceeded — never as a retryable fault.
        let stats = Arc::new(OpStats::new());
        let srv = ForceServer::new(ServerConfig::default(), &stats);
        let plane_stats = Arc::new(OpStats::new());
        let h = srv
            .submit(
                JobSpec::for_tenant("t").with_deadline(Duration::from_millis(5)),
                Box::new(move |cx| {
                    let config = crate::fault::RunOptions {
                        backend: crate::park::ParkBackend::Virtual { seed: 42 },
                        ..Default::default()
                    };
                    let plane = FaultPlane::new(2, Arc::clone(&plane_stats), config);
                    // Binding records the deadline; the run's reset arms
                    // the budget left on the virtual clock.
                    cx.bind_plane(&plane);
                    plane.reset_for_job(config);
                    crate::process::spawn_force_plane(&plane, |_pid| {
                        // Model far more work than the 5ms budget
                        // (= 5_000_000 virtual ns) allows, then wait:
                        // the deadline is checked at the next
                        // scheduling decision point.
                        crate::park::charge_virtual(100_000_000);
                        crate::park::wait_until(crate::fault::Construct::Barrier, || false);
                    })
                    .map(|_| JobYield::default())
                    .map_err(JobError::Fault)
                }),
            )
            .expect_admitted();
        assert_eq!(h.wait(), JobOutcome::DeadlineExceeded { ran: true });
        assert_eq!(stats.snapshot().jobs_deadline_exceeded, 1);
        srv.shutdown();
    }

    #[test]
    fn shutdown_drains_admitted_jobs_then_rejects() {
        let (srv, _) = server();
        let release = Arc::new(AtomicBool::new(false));
        let gate = srv
            .submit(
                JobSpec::for_tenant("gate"),
                gate_runner(Arc::clone(&release)),
            )
            .expect_admitted();
        while srv.backlog() > 0 {
            thread::yield_now();
        }
        let queued: Vec<JobHandle> = (0..5)
            .map(|_| {
                srv.submit(JobSpec::for_tenant("t"), ok_runner())
                    .expect_admitted()
            })
            .collect();
        // Request shutdown from another thread while the gate holds the
        // dispatcher, then release the gate: every admitted job must
        // still complete.
        let shutdown = {
            let release = Arc::clone(&release);
            thread::spawn(move || {
                thread::sleep(Duration::from_millis(5));
                release.store(true, Ordering::Release);
            })
        };
        srv.shutdown();
        shutdown.join().unwrap();
        assert!(gate.wait().is_success());
        for h in queued {
            assert!(h.wait().is_success(), "drain must run admitted jobs");
        }
        match srv.submit(JobSpec::for_tenant("t"), ok_runner()) {
            Submit::Rejected {
                reason: RejectReason::ShuttingDown,
            } => {}
            other => panic!("expected ShuttingDown, got {other:?}"),
        }
    }

    #[test]
    fn a_job_reaches_the_idle_dispatcher_polling_or_parked() {
        // A caller that only polls is served by the dispatcher, which
        // sleeps untimed once it has given the run slot back after a job:
        // a submission must wake it whether it went to sleep long ago or
        // only just.  A lost wake-up would leave the job queued, so the
        // outcome is polled (and `wait` then finds it set).
        let (srv, _) = server();
        let served = |spec: JobSpec| {
            let job = srv.submit(spec, ok_runner()).expect_admitted();
            let submitted = Instant::now();
            while job.try_outcome().is_none() {
                assert!(
                    submitted.elapsed() < Duration::from_secs(10),
                    "lost: {job:?}"
                );
                thread::yield_now();
            }
            assert_eq!(job.wait(), JobOutcome::Completed { retries: 0 });
        };
        let pauses = [0, 1000, 0, 20, 40, 50, 60, 80, 1000, 0].map(Duration::from_micros);
        for round in 0..20 {
            for pause in pauses {
                served(JobSpec::for_tenant("t"));
                thread::sleep(pause);
                served(JobSpec::for_tenant("t").with_deadline(Duration::from_secs(30)));
                thread::sleep(pause * (round % 2));
            }
        }
        // And the shutdown finds it parked, with nothing left to drain.
        thread::sleep(Duration::from_millis(1));
        srv.shutdown();
        assert_eq!(srv.server_report().completed, 20 * 10 * 2);
    }

    #[test]
    fn panicking_runner_is_contained() {
        let (srv, _) = server();
        let h = srv
            .submit(
                JobSpec::for_tenant("t"),
                Box::new(|_cx| -> Result<JobYield, JobError> {
                    panic!("runner bug");
                }),
            )
            .expect_admitted();
        match h.wait() {
            JobOutcome::Faulted { error, retries } => {
                assert_eq!(retries, 0);
                assert!(error.to_string().contains("runner bug"));
            }
            other => panic!("expected Faulted, got {other:?}"),
        }
        // The dispatcher survived; the server still serves.
        let h = srv
            .submit(JobSpec::for_tenant("t"), ok_runner())
            .expect_admitted();
        assert!(h.wait().is_success());
        srv.shutdown();
    }

    #[test]
    fn server_report_sums_tenants() {
        let (srv, _) = server();
        for tenant in ["a", "b"] {
            for _ in 0..3 {
                srv.submit(JobSpec::for_tenant(tenant), ok_runner())
                    .expect_admitted()
                    .wait();
            }
        }
        srv.shutdown();
        let report = srv.server_report();
        assert_eq!(report.admitted, 6);
        assert_eq!(report.completed, 6);
        assert_eq!(report.latency.count(), 6);
        assert_eq!(report.tenants.len(), 2);
        assert_eq!(report.tenants[0].0, "a");
        assert_eq!(report.tenants[1].0, "b");
        assert!(report.peak_backlog <= 6);
    }

    /// A tenant name that hashes to `shard` on this server.
    fn tenant_pinned_to(srv: &ForceServer, shard: usize) -> String {
        (0..1000)
            .map(|i| format!("tenant-{i}"))
            .find(|t| srv.shard_of(t) == shard)
            .expect("some tenant hashes to every shard")
    }

    #[test]
    fn rate_limited_submissions_bounce_with_their_own_counter() {
        let stats = Arc::new(OpStats::new());
        let srv = ForceServer::new(
            ServerConfig {
                rate_limit: Some(RateLimit {
                    burst: 2,
                    refill_per_sec: 0,
                }),
                ..ServerConfig::default()
            },
            &stats,
        );
        let mut admitted = Vec::new();
        for _ in 0..2 {
            admitted.push(
                srv.submit(JobSpec::for_tenant("t"), ok_runner())
                    .expect_admitted(),
            );
        }
        // The bucket is empty and never refills: the third bounces.
        match srv.submit(JobSpec::for_tenant("t"), ok_runner()) {
            Submit::Rejected {
                reason: RejectReason::RateLimited { tenant },
            } => assert_eq!(tenant, "t"),
            other => panic!("expected RateLimited, got {other:?}"),
        }
        // Another tenant has its own bucket.
        let other = srv
            .submit(JobSpec::for_tenant("u"), ok_runner())
            .expect_admitted();
        for h in admitted {
            assert!(h.wait().is_success());
        }
        assert!(other.wait().is_success());
        srv.shutdown();
        let snap = stats.snapshot();
        assert_eq!(snap.jobs_rate_limited, 1);
        assert_eq!(snap.jobs_rejected, 0, "rate limiting is not backpressure");
        let t = srv.tenant_report("t").unwrap();
        assert_eq!(t.rate_limited, 1);
        assert_eq!(t.rejected, 0);
        assert_eq!(t.admitted, 2);
        let report = srv.server_report();
        assert_eq!(report.rate_limited, 1);
        assert_eq!(report.admitted, 3);
    }

    #[test]
    fn a_zero_burst_bucket_that_refills_admits_and_one_that_does_not_never_does() {
        let stats = Arc::new(OpStats::new());
        let limited = |refill_per_sec| {
            ForceServer::new(
                ServerConfig {
                    rate_limit: Some(RateLimit {
                        burst: 0,
                        refill_per_sec,
                    }),
                    ..ServerConfig::default()
                },
                &stats,
            )
        };
        // A refilling bucket holds one token: a fresh tenant's first
        // submission is admitted.
        let srv = limited(1000);
        let first = srv
            .submit(JobSpec::for_tenant("t"), ok_runner())
            .expect_admitted();
        assert!(first.wait().is_success());
        srv.shutdown();
        // `burst: 0, refill_per_sec: 0` is a budget of zero.
        let srv = limited(0);
        assert!(matches!(
            srv.submit(JobSpec::for_tenant("t"), ok_runner()),
            Submit::Rejected {
                reason: RejectReason::RateLimited { .. }
            }
        ));
        srv.shutdown();
    }

    #[test]
    fn rate_limit_bucket_refills_over_time() {
        let stats = Arc::new(OpStats::new());
        let srv = ForceServer::new(
            ServerConfig {
                // One token burst, one token every 100ms.
                rate_limit: Some(RateLimit {
                    burst: 1,
                    refill_per_sec: 10,
                }),
                ..ServerConfig::default()
            },
            &stats,
        );
        let first = srv
            .submit(JobSpec::for_tenant("t"), ok_runner())
            .expect_admitted();
        assert!(matches!(
            srv.submit(JobSpec::for_tenant("t"), ok_runner()),
            Submit::Rejected {
                reason: RejectReason::RateLimited { .. }
            }
        ));
        // After a full refill interval the tenant may submit again.
        thread::sleep(Duration::from_millis(150));
        let second = srv
            .submit(JobSpec::for_tenant("t"), ok_runner())
            .expect_admitted();
        assert!(first.wait().is_success());
        assert!(second.wait().is_success());
        srv.shutdown();
        assert_eq!(stats.snapshot().jobs_rate_limited, 1);
    }

    #[test]
    fn tenants_pin_to_shards_and_reports_merge() {
        let stats = Arc::new(OpStats::new());
        let srv = ForceServer::new(
            ServerConfig {
                shards: 3,
                ..ServerConfig::default()
            },
            &stats,
        );
        assert_eq!(srv.shards(), 3);
        let tenants: Vec<String> = (0..6).map(|i| format!("tenant-{i}")).collect();
        for t in &tenants {
            // Pinning is a pure function of the tenant name.
            assert_eq!(srv.shard_of(t), srv.shard_of(t));
            assert!(srv.shard_of(t) < 3);
        }
        let handles: Vec<JobHandle> = (0..30)
            .map(|j| {
                srv.submit(JobSpec::for_tenant(&tenants[j % 6]), ok_runner())
                    .expect_admitted()
            })
            .collect();
        for h in handles {
            assert!(h.wait().is_success());
        }
        srv.shutdown();
        for t in &tenants {
            let r = srv.tenant_report(t).expect("tenant seen");
            assert_eq!(r.admitted, 5, "tenant {t}");
            assert_eq!(r.completed, 5, "tenant {t}");
            assert_eq!(r.latency.count(), 5, "tenant {t}");
        }
        let report = srv.server_report();
        assert_eq!(report.admitted, 30);
        assert_eq!(report.completed, 30);
        assert_eq!(report.latency.count(), 30);
        assert_eq!(report.shard_peak_backlogs.len(), 3);
        assert_eq!(stats.snapshot().jobs_admitted, 30);
    }

    #[test]
    fn idle_shard_pulls_a_busy_siblings_queue() {
        let stats = Arc::new(OpStats::new());
        let srv = ForceServer::new(
            ServerConfig {
                shards: 2,
                ..ServerConfig::default()
            },
            &stats,
        );
        let pinned = tenant_pinned_to(&srv, 0);
        let release = Arc::new(AtomicBool::new(false));
        // Occupy shard 0's dispatcher with a gate job...
        let gate = srv
            .submit(
                JobSpec::for_tenant(&pinned),
                gate_runner(Arc::clone(&release)),
            )
            .expect_admitted();
        while srv.backlog() > 0 {
            thread::yield_now();
        }
        // ...then queue more work on shard 0.  Only shard 1's idle
        // dispatcher can run it; these waits completing while the gate
        // is still held proves the pull path.
        let queued: Vec<JobHandle> = (0..4)
            .map(|_| {
                srv.submit(JobSpec::for_tenant(&pinned), ok_runner())
                    .expect_admitted()
            })
            .collect();
        for h in queued {
            assert!(h.wait().is_success(), "pulled job must complete");
        }
        assert!(
            !release.load(Ordering::Acquire),
            "shard 0 is still gated; the work was pulled"
        );
        release.store(true, Ordering::Release);
        assert!(gate.wait().is_success());
        srv.shutdown();
        let r = srv.tenant_report(&pinned).expect("tenant seen");
        assert_eq!(r.completed, 5);
    }

    #[test]
    fn overload_shed_holds_each_shard_at_its_watermark() {
        let stats = Arc::new(OpStats::new());
        let srv = ForceServer::new(
            ServerConfig {
                shards: 2,
                tenant_queue_capacity: 64,
                shed_watermark: 4,
                ..ServerConfig::default()
            },
            &stats,
        );
        let t0 = tenant_pinned_to(&srv, 0);
        let t1 = tenant_pinned_to(&srv, 1);
        let release = Arc::new(AtomicBool::new(false));
        // Gate both dispatchers so both shards' queues fill.
        let gates: Vec<JobHandle> = [&t0, &t1]
            .iter()
            .map(|t| {
                srv.submit(
                    JobSpec::for_tenant(t.as_str()),
                    gate_runner(Arc::clone(&release)),
                )
                .expect_admitted()
            })
            .collect();
        while srv.backlog() > 0 {
            thread::yield_now();
        }
        // 2 High + 6 Low per shard = backlog 8 > watermark 4 on each.
        // Every sweep (own-dispatcher or pull-path) sheds a queue down
        // to the watermark before dequeuing, so each shard sheds
        // exactly 4 regardless of who drains it.
        let mut high = Vec::new();
        let mut low = Vec::new();
        for t in [&t0, &t1] {
            for _ in 0..2 {
                high.push(
                    srv.submit(
                        JobSpec::for_tenant(t.as_str()).with_priority(Priority::High),
                        ok_runner(),
                    )
                    .expect_admitted(),
                );
            }
            for _ in 0..6 {
                low.push(
                    srv.submit(
                        JobSpec::for_tenant(t.as_str()).with_priority(Priority::Low),
                        ok_runner(),
                    )
                    .expect_admitted(),
                );
            }
        }
        // Both shards held their full flood at once: the coherent
        // whole-server peak sees 16 queued.
        assert!(srv.peak_backlog() >= 16);
        release.store(true, Ordering::Release);
        for g in gates {
            assert!(g.wait().is_success());
        }
        for h in &high {
            assert!(h.wait().is_success(), "High jobs are never shed");
        }
        let shed = low
            .iter()
            .map(JobHandle::wait)
            .filter(|o| *o == JobOutcome::Shed)
            .count();
        assert_eq!(shed, 8, "each shard must shed down to its watermark");
        srv.shutdown();
        assert_eq!(stats.snapshot().jobs_shed, 8);
        for t in [&t0, &t1] {
            let r = srv.tenant_report(t).expect("tenant seen");
            assert_eq!(r.shed, 4, "tenant {t} shed on its own shard's watermark");
        }
        let peaks = srv.shard_peak_backlogs();
        assert_eq!(peaks.len(), 2);
        for (shard, peak) in peaks.iter().enumerate() {
            assert!(
                (8..=9).contains(peak),
                "shard {shard} peak {peak} should be its own flood (8), not the total"
            );
        }
    }

    #[test]
    fn concurrent_jobs_report_disjoint_plane_ops() {
        // Two tenants on different shards run at the same time (a
        // rendezvous proves the overlap); each binds its own fault
        // plane and runs a different number of processes, each of which
        // charges one lock acquisition.  The rollups must show exactly
        // each job's own plane delta — under the old machine-wide
        // before/after snapshot the concurrent job's charges would bleed
        // in.  (Not `processes_created`: a job the shard's force hosts
        // creates none.)
        let stats = Arc::new(OpStats::new());
        let srv = ForceServer::new(
            ServerConfig {
                shards: 2,
                ..ServerConfig::default()
            },
            &stats,
        );
        let t0 = tenant_pinned_to(&srv, 0);
        let t1 = tenant_pinned_to(&srv, 1);
        let rendezvous = Arc::new(AtomicUsize::new(0));
        let submit = |tenant: &str, nproc: usize| {
            let meet = Arc::clone(&rendezvous);
            let stats = Arc::clone(&stats);
            let runner: JobRunner = Box::new(move |cx| {
                let plane = FaultPlane::new(
                    nproc,
                    Arc::clone(&stats),
                    crate::fault::RunOptions::default(),
                );
                cx.bind_plane(&plane);
                meet.fetch_add(1, Ordering::SeqCst);
                let mut spins = 0u64;
                while meet.load(Ordering::SeqCst) < 2 {
                    spins += 1;
                    assert!(spins < 500_000, "peer job never started");
                    thread::sleep(Duration::from_micros(10));
                }
                let charge_one = |_pid| {
                    crate::fault::charge_current(&|s: &OpStats| &s.lock_acquires, 1);
                };
                crate::process::spawn_force_plane(&plane, charge_one)
                    .map(|_: Vec<()>| JobYield::default())
                    .map_err(JobError::Fault)
            });
            srv.submit(JobSpec::for_tenant(tenant), runner)
                .expect_admitted()
        };
        let a = submit(&t0, 2);
        let b = submit(&t1, 4);
        assert!(a.wait().is_success());
        assert!(b.wait().is_success());
        srv.shutdown();
        let ra = srv.tenant_report(&t0).unwrap();
        let rb = srv.tenant_report(&t1).unwrap();
        assert_eq!(ra.ops.lock_acquires, 2, "tenant {t0} absorbed a bleed");
        assert_eq!(rb.ops.lock_acquires, 4, "tenant {t1} absorbed a bleed");
        // The machine-wide view still sees everything: per-plane locals
        // roll up into the machine block they chain from.
        assert_eq!(stats.snapshot().lock_acquires, 6);
    }

    #[test]
    fn a_loan_lasts_one_attempt_and_one_binding() {
        // The runner binds a plane, then another: the first gives the
        // shard's force back at once, the second while it is bound may
        // launch on it, and neither holds it once the attempt is over.
        let (srv, stats) = server();
        let plane = |nproc| {
            let config = crate::fault::RunOptions::default();
            FaultPlane::new(nproc, Arc::clone(&stats), config)
        };
        let (first, second) = (plane(1), plane(1));
        let (a, b) = (Arc::clone(&first), Arc::clone(&second));
        let runner: JobRunner = Box::new(move |cx| {
            cx.bind_plane(&a);
            assert!(a.loan().is_some());
            cx.bind_plane(&b);
            assert!(a.loan().is_none(), "one loan per attempt");
            cx.bind_plane(&b);
            assert!(b.loan().is_some(), "rebinding the same plane keeps it");
            crate::process::launch_plane(&b, None, |_| ())
                .map(|_| JobYield::default())
                .map_err(JobError::Fault)
        });
        let job = srv.submit(JobSpec::for_tenant("t"), runner);
        assert_eq!(
            job.expect_admitted().wait(),
            JobOutcome::Completed { retries: 0 }
        );
        assert!(first.loan().is_none() && second.loan().is_none());
        let ops = srv.tenant_report("t").unwrap().ops;
        assert_eq!(ops.processes_created, 0, "launched on the lent force");
    }

    /// Once `shard`'s dispatcher sleeps, take its run slot, as a waiter
    /// running a job there does: a submission then wakes nobody there.
    fn hold_slot(srv: &ForceServer, shard: usize) -> RunSlot {
        loop {
            let mut st = srv.inner.shards[shard].state.lock();
            if st.idle {
                return st.run.take().expect("nothing queued: the slot is free");
            }
            drop(st);
            thread::yield_now();
        }
    }

    /// Put the slot back without waking the dispatcher, asleep: the
    /// queued jobs wait for their waiters.
    fn put_back_quietly(srv: &ForceServer, shard: usize, slot: RunSlot) {
        srv.inner.shards[shard].state.lock().run = Some(slot);
    }

    /// Give the slot back as a waiter does after its job, waking the
    /// dispatcher if anything is queued.
    fn give_back(srv: &ForceServer, shard: usize, slot: RunSlot) {
        drop(HeldSlot {
            inner: &srv.inner,
            home: shard,
            slot: Some(slot),
        });
    }

    /// Each run's job name, `cx.shard()` and thread.
    type Runs = Arc<Mutex<Vec<(&'static str, usize, thread::ThreadId)>>>;

    /// A runner that records where it ran, launching a force as wide as
    /// the host allows (up to 2) on a bound plane of its own.
    fn where_runner(stats: &Arc<OpStats>, ran: Runs, name: &'static str) -> JobRunner {
        let stats = Arc::clone(stats);
        Box::new(move |cx| {
            ran.lock().push((name, cx.shard(), thread::current().id()));
            let nproc = park::default_nproc().min(2);
            let plane = FaultPlane::new(nproc, Arc::clone(&stats), RunOptions::default());
            cx.bind_plane(&plane);
            crate::process::launch_plane(&plane, None, |_| ())
                .map(|_| JobYield::default())
                .map_err(JobError::Fault)
        })
    }

    #[test]
    fn waiter_runs_its_job_on_an_idle_shard() {
        let stats = Arc::new(OpStats::new());
        let srv = ForceServer::new(
            ServerConfig {
                shards: 2,
                ..ServerConfig::default()
            },
            &stats,
        );
        let ran = Arc::new(Mutex::new(Vec::new()));
        for home in 0..2 {
            let tenant = tenant_pinned_to(&srv, home);
            // The sibling's slot too, or its dispatcher would pull the job.
            let slots = [hold_slot(&srv, 0), hold_slot(&srv, 1)];
            let job = srv
                .submit(
                    JobSpec::for_tenant(&tenant),
                    where_runner(&stats, Arc::clone(&ran), "job"),
                )
                .expect_admitted();
            let [a, b] = slots;
            let (slot, sibling) = if home == 0 { (a, b) } else { (b, a) };
            put_back_quietly(&srv, home, slot);
            assert_eq!(job.wait(), JobOutcome::Completed { retries: 0 });
            put_back_quietly(&srv, 1 - home, sibling);
            let (_, shard, thread) = ran.lock().pop().expect("the job ran");
            assert_eq!(thread, thread::current().id(), "ran on its waiter");
            assert_eq!(shard, home, "cx.shard() is the job's home");
            let ops = srv.tenant_report(&tenant).unwrap().ops;
            assert_eq!(ops.processes_created, 0, "launched on the shard's force");
        }
        srv.shutdown();
    }

    #[test]
    fn waiter_never_runs_a_job_behind_the_head() {
        let (srv, stats) = server();
        let ran = Arc::new(Mutex::new(Vec::new()));
        let slot = hold_slot(&srv, 0);
        let high = srv
            .submit(
                JobSpec::for_tenant("t").with_priority(Priority::High),
                where_runner(&stats, Arc::clone(&ran), "high"),
            )
            .expect_admitted();
        let normal = srv
            .submit(
                JobSpec::for_tenant("t"),
                where_runner(&stats, Arc::clone(&ran), "normal"),
            )
            .expect_admitted();
        // The slot is free, but `normal` is not what the shard runs next.
        put_back_quietly(&srv, 0, slot);
        assert!(srv.inner.claim(0, &normal.shared).is_none());
        // The dispatcher runs both, in priority order, and keeps the slot
        // while anything is queued: the waiter sleeps until it is done.
        let slot = hold_slot(&srv, 0);
        give_back(&srv, 0, slot);
        let waiter = thread::spawn(move || (normal.wait(), thread::current().id()));
        let (outcome, waiter) = waiter.join().unwrap();
        assert_eq!(outcome, JobOutcome::Completed { retries: 0 });
        assert!(high.wait().is_success());
        let ran = ran.lock().clone();
        let order: Vec<&str> = ran.iter().map(|&(name, _, _)| name).collect();
        assert_eq!(order, ["high", "normal"]);
        assert!(ran.iter().all(|&(_, _, thread)| thread != waiter));
        srv.shutdown();
    }

    #[test]
    fn waiter_handle_outlives_its_server() {
        let (srv, stats) = server();
        let ran = Arc::new(Mutex::new(Vec::new()));
        let force = Arc::downgrade(&srv.inner.shards[0].state.lock().run.as_ref().unwrap().force);
        let job = srv
            .submit(JobSpec::for_tenant("t"), where_runner(&stats, ran, "job"))
            .expect_admitted();
        // The drain runs the job; the handle holds the server's state, and
        // nothing else: the shard's force is gone with the dispatcher.
        drop(srv);
        assert!(force.upgrade().is_none(), "a thread outlived the server");
        assert_eq!(job.wait(), JobOutcome::Completed { retries: 0 });
    }

    #[test]
    fn waiter_running_a_job_holds_off_shutdown() {
        let (srv, stats) = server();
        let (started, release, finished) = (
            Arc::new(AtomicBool::new(false)),
            Arc::new(AtomicBool::new(false)),
            Arc::new(AtomicBool::new(false)),
        );
        let runner: JobRunner = {
            let (started, release, finished) = (
                Arc::clone(&started),
                Arc::clone(&release),
                Arc::clone(&finished),
            );
            let mut launch = where_runner(&stats, Arc::new(Mutex::new(Vec::new())), "job");
            Box::new(move |cx| {
                started.store(true, Ordering::SeqCst);
                while !release.load(Ordering::SeqCst) {
                    thread::sleep(Duration::from_micros(200));
                }
                let launched = launch(cx);
                finished.store(true, Ordering::SeqCst);
                launched
            })
        };
        let slot = hold_slot(&srv, 0);
        let force = Arc::downgrade(&slot.force);
        let job = srv
            .submit(JobSpec::for_tenant("t"), runner)
            .expect_admitted();
        put_back_quietly(&srv, 0, slot);
        let waiter = thread::spawn(move || job.wait());
        while !started.load(Ordering::SeqCst) {
            thread::yield_now();
        }
        let srv = Arc::new(srv);
        let closing = {
            let srv = Arc::clone(&srv);
            let finished = Arc::clone(&finished);
            thread::spawn(move || {
                srv.shutdown();
                finished.load(Ordering::SeqCst)
            })
        };
        thread::sleep(Duration::from_millis(20));
        assert!(
            !closing.is_finished(),
            "shutdown returned over a running job"
        );
        assert!(force.upgrade().is_some(), "the force went before its job");
        release.store(true, Ordering::SeqCst);
        assert!(closing.join().unwrap(), "shutdown returned before the job");
        assert!(force.upgrade().is_none(), "shutdown left the shard's force");
        assert_eq!(waiter.join().unwrap(), JobOutcome::Completed { retries: 0 });
    }

    #[test]
    fn waiter_panicking_outside_the_runner_gives_the_slot_back() {
        // A runner is dropped after its outcome is published, outside the
        // attempt's `catch_unwind`: a panicking drop unwinds into `wait`.
        struct PanicsOnDrop;
        impl Drop for PanicsOnDrop {
            fn drop(&mut self) {
                panic!("runner dropped");
            }
        }
        let (srv, _) = server();
        let slot = hold_slot(&srv, 0);
        let bomb = PanicsOnDrop;
        let runner: JobRunner = Box::new(move |_cx| {
            let _armed = &bomb;
            Ok(JobYield::default())
        });
        let job = srv
            .submit(JobSpec::for_tenant("t"), runner)
            .expect_admitted();
        put_back_quietly(&srv, 0, slot);
        let waiter = thread::spawn(move || job.wait());
        assert!(waiter.join().is_err(), "the runner's drop panicked in wait");
        let slot_back = srv.inner.shards[0].state.lock().run.is_some();
        // The shard still runs jobs, and `shutdown` still returns.  On a
        // thread of its own, so that a lost slot fails the test instead of
        // hanging it in the server's drop.
        let closing = thread::spawn(move || {
            let next = srv
                .submit(JobSpec::for_tenant("t"), ok_runner())
                .expect_admitted();
            let outcome = next.wait();
            srv.shutdown();
            outcome
        });
        assert!(slot_back, "the slot went with the panic");
        let begun = Instant::now();
        while !closing.is_finished() {
            assert!(begun.elapsed() < Duration::from_secs(5), "the shard hangs");
            thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(
            closing.join().unwrap(),
            JobOutcome::Completed { retries: 0 }
        );
    }

    #[test]
    fn reject_reasons_display() {
        assert_eq!(
            RejectReason::QueueFull {
                tenant: "acme".into(),
                capacity: 8
            }
            .to_string(),
            "tenant `acme` queue full (capacity 8)"
        );
        assert_eq!(
            RejectReason::RateLimited {
                tenant: "acme".into()
            }
            .to_string(),
            "tenant `acme` rate limited"
        );
        assert_eq!(
            RejectReason::ShuttingDown.to_string(),
            "server shutting down"
        );
    }
}
