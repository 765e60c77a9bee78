//! The fault plane: cancellation propagation, construct attribution, a
//! deadlock watchdog, and deterministic fault injection.
//!
//! The paper's force model assumes every process survives to `Join`.  A
//! panic in one process would therefore leave its peers blocked forever
//! in a barrier, a `Consume`, an `Askfor` idle wait, or a lock queue.
//! This module makes that failure mode *structured*: every force runs
//! under a [`FaultPlane`] holding a cancellation token that every
//! blocking wait loop in the machine-dependent layer observes.
//!
//! The pieces:
//!
//! * [`FaultPlane`] — per-force token + wait board + configuration.  A
//!   panic (trapped per thread by [`crate::process::launch_plane`])
//!   or an interpreter runtime error ([`trip_current`]) *trips* the
//!   plane; the first fault wins and is reported as a [`ProcessFault`].
//! * A thread-local context, installed by `launch_plane` for each
//!   process of the force, through which the lock/full-empty wait loops
//!   observe the token without threading a handle through every
//!   constructor ([`check_cancel`], [`crate::park::wait_on`]).
//! * Construct markers ([`enter`]) — an RAII stack recording which Force
//!   construct a process is executing, so faults and watchdog reports can
//!   say *where* ("barrier", "critical", "consume", ...) a process died
//!   or is parked.
//! * A wait board ([`parked`]) — per-pid state (running/parked/finished)
//!   sampled by the deadlock watchdog (`FaultPlane::run_watchdog`),
//!   which declares a fault when every live process is parked and no
//!   progress counter has moved for a full watchdog bound; beside it, the
//!   wake handle of a process asleep on a condvar, which a trip fires.
//! * Fault injection ([`FaultInjection`]) — a hermetic,
//!   [`XorShift64`]-seeded layer that can inject panics and delays at
//!   construct boundaries and spurious failures into lock acquisition,
//!   to exercise all of the above deterministically in tests.
//!
//! Cancellation unwinds a blocked process with a private [`Cancelled`]
//! payload via `resume_unwind` (bypassing the panic hook, so cancelled
//! peers do not spam stderr with backtraces); `launch_plane` absorbs
//! those unwinds and reports only the originating fault.

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::cost::CostModel;
use crate::park::{self, ParkBackend, Parker, VirtualSummary};
use crate::pool::LazyPool;
use crate::portable::{CachePadded, Mutex, XorShift64};
use crate::process::StopSignal;
use crate::stats::{OpStats, StatsHandle, StatsSnapshot};
use crate::trace::{self, ProfileReport, TraceSink};

/// Which Force construct a process is executing or blocked in.  Used for
/// fault attribution ("pid 2 faulted in critical") and watchdog reports
/// ("pid 1 parked in consume").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Construct {
    /// Plain program text outside any construct.
    Body,
    /// A raw lock acquisition not attributable to a higher construct.
    Lock,
    /// A barrier (two-lock or any of the \[AJ87\] suite).
    Barrier,
    /// A named critical section.
    Critical,
    /// `Produce` on an asynchronous variable.
    Produce,
    /// `Consume` on an asynchronous variable.
    Consume,
    /// `Copy` on an asynchronous variable.
    Copy,
    /// `Void` on an asynchronous variable.
    Void,
    /// The Askfor work pot (including its idle wait).
    Askfor,
    /// A DOALL loop (prescheduled or selfscheduled).
    Doall,
    /// A Pcase statement.
    Pcase,
    /// A Resolve component.
    Resolve,
    /// Interpreted Force-Fortran code (`force-fortran` engine).
    Interpreter,
}

/// The board/construct table, indexable by discriminant.
const CONSTRUCTS: [Construct; 13] = [
    Construct::Body,
    Construct::Lock,
    Construct::Barrier,
    Construct::Critical,
    Construct::Produce,
    Construct::Consume,
    Construct::Copy,
    Construct::Void,
    Construct::Askfor,
    Construct::Doall,
    Construct::Pcase,
    Construct::Resolve,
    Construct::Interpreter,
];

impl Construct {
    /// Human-readable construct name, matching the paper's vocabulary.
    pub fn name(self) -> &'static str {
        match self {
            Construct::Body => "body",
            Construct::Lock => "lock",
            Construct::Barrier => "barrier",
            Construct::Critical => "critical",
            Construct::Produce => "produce",
            Construct::Consume => "consume",
            Construct::Copy => "copy",
            Construct::Void => "void",
            Construct::Askfor => "askfor",
            Construct::Doall => "doall",
            Construct::Pcase => "pcase",
            Construct::Resolve => "resolve",
            Construct::Interpreter => "interpreter",
        }
    }

    /// Stable discriminant of the construct (its position in the
    /// board/construct table); the inverse of [`from_index`](Self::from_index).
    pub fn index(self) -> usize {
        CONSTRUCTS
            .iter()
            .position(|&c| c == self)
            .expect("in table")
    }

    /// The construct with the given discriminant (`Body` when out of
    /// range).
    pub fn from_index(i: usize) -> Construct {
        CONSTRUCTS.get(i).copied().unwrap_or(Construct::Body)
    }
}

/// A structured process fault: which process failed, in which construct,
/// and the fault description (panic message, interpreter error, or
/// watchdog report).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcessFault {
    /// The faulting process identifier (for a watchdog trip, a parked
    /// representative).
    pub pid: usize,
    /// The construct the process faulted in (see [`Construct::name`]).
    pub construct: &'static str,
    /// The fault payload: a panic message, an interpreter error, or the
    /// watchdog's no-progress report.
    pub payload: String,
}

impl fmt::Display for ProcessFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "process {} faulted in {}: {}",
            self.pid, self.construct, self.payload
        )
    }
}

impl std::error::Error for ProcessFault {}

/// The private unwind payload used to cancel blocked peers.  Carried via
/// `resume_unwind`, so the panic hook never fires for a cancellation.
pub struct Cancelled;

/// Deterministic fault-injection configuration.  All probabilities are in
/// per-mille (0..=1000) and are rolled on a per-process [`XorShift64`]
/// stream derived from `seed` and the pid, so a given (config, program,
/// nproc) triple injects the same faults in the same processes on every
/// run — the layer is hermetic by construction.
#[derive(Debug, Clone, Copy)]
pub struct FaultInjection {
    /// Base seed; each process derives its own stream from `seed ^ f(pid)`.
    pub seed: u64,
    /// Per-mille chance that a construct boundary panics.
    pub panic_per_mille: u32,
    /// Per-mille chance that a construct boundary sleeps a few microseconds
    /// (perturbs interleavings without changing results).
    pub delay_per_mille: u32,
    /// Per-mille chance that a lock acquisition reports one spurious
    /// failed attempt before proceeding (exercises contended paths).
    pub spurious_per_mille: u32,
}

impl FaultInjection {
    /// An inert configuration with the given seed (no faults until a
    /// probability is raised).
    pub fn with_seed(seed: u64) -> Self {
        FaultInjection {
            seed,
            panic_per_mille: 0,
            delay_per_mille: 0,
            spurious_per_mille: 0,
        }
    }
}

/// Per-run options: what applies to *one* job — watchdog bound, fault
/// injection, tracing and parking backend.  A resident session re-arms
/// its plane with these at the start of every run
/// ([`FaultPlane::reset_for_job`]), so a shared pooled force or engine
/// can be configured per job without `&mut` access.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunOptions {
    /// Deadlock watchdog bound; `None` (the default) disables the
    /// watchdog.
    pub watchdog: Option<Duration>,
    /// Fault injection; `None` (the default) injects nothing.
    pub injection: Option<FaultInjection>,
    /// Construct-level tracing ([`crate::trace`]); off (the default)
    /// records nothing and keeps every trace hook a single thread-local
    /// `Option` test.
    pub trace: bool,
    /// How pids map onto OS execution ([`crate::park`]): one dedicated
    /// thread per pid (the default), or the deterministic virtual-time
    /// scheduler's one run token.
    pub backend: ParkBackend,
}

/// Wait-board states (low two bits of each board word).
const RUNNING: usize = 0;
const PARKED: usize = 1;
const FINISHED: usize = 2;
const STATE_MASK: usize = 0b11;
const _: () = assert!(RUNNING == 0, "a default `PidSlot` must read as running");

/// How a trip wakes a process asleep in [`park::wait_on`]; its `'static`
/// is a lie, as `pool::JobBody`'s is ([`parked_on`] tells it).
type WakeHandle = &'static (dyn Fn() + Sync);

/// What a plane keeps per pid, on cache lines no other pid writes: the
/// wait-board word (with a wake handle) and the pid's counter lane.  The
/// default is a running process that has counted nothing.
#[derive(Default)]
struct PidSlot {
    /// Wait board: `state | construct_index << 2`.
    board: AtomicUsize,
    /// While the pid sleeps in `park::wait_on`: how to wake it.
    wake: Mutex<Option<WakeHandle>>,
    /// Every charge the pid makes while it runs as a process of this
    /// plane.  Folded into the plane's [`StatsHandle`] when the process
    /// ends ([`FaultPlane::fold_lane`]), so a lock operation inside a
    /// force writes no counter another process writes.  The thread
    /// running the pid is the lane's only writer — charges and the fold
    /// alike, since runs of a plane never overlap — so a charge is a
    /// plain load and store ([`OpStats::add_single_writer`]).
    lane: OpStats,
}

/// The per-force fault plane: cancellation token, first-fault slot, wait
/// board, and configuration.  One is created per force execution (or per
/// [`crate::process::spawn_force`] call) and shared by every process.
pub struct FaultPlane {
    nproc: usize,
    /// What the virtual clock charges under [`ParkBackend::Virtual`]
    /// (ignored by the other backends): the cost model of the machine the
    /// plane's session runs on.
    costs: CostModel,
    /// The plane's accounting handle: a **private** counter block (the
    /// per-plane view behind exact `last_job_stats` deltas) whose
    /// charges are mirrored into the machine's.  No other plane ever
    /// writes the local block.  Processes charge their lane (`slots`)
    /// and reach this handle once, at exit; a session's driver charges
    /// it through the ambient binding.
    stats: StatsHandle,
    /// Per-job configuration.  Behind a mutex so a resident session can
    /// swap it between jobs ([`reset_for_job`](Self::reset_for_job));
    /// the hot injection path never touches it — each process snapshots
    /// the injection config into its thread-local context at install.
    config: Mutex<RunOptions>,
    /// The cancellation token.  Set (with `Release`) only after the first
    /// fault has been recorded, so an observer that sees the trip can
    /// read the fault.
    tripped: AtomicBool,
    fault: Mutex<Option<ProcessFault>>,
    /// The first genuine panic's original payload, kept so the legacy
    /// panic-propagating entry points can re-raise it verbatim.
    payload: Mutex<Option<Box<dyn Any + Send>>>,
    /// Per-pid wait-board word and counter lane, one allocation.
    slots: Vec<CachePadded<PidSlot>>,
    /// The job's trace sink, when tracing is armed.  Behind a mutex for
    /// the same reason as `config`; each process snapshots the `Arc` into
    /// its thread-local context at install, so trace hooks never take it.
    trace: Mutex<Option<Arc<TraceSink>>>,
    /// The job's parking backend state (the scheduler of a virtual
    /// job).  Behind a mutex so `reset_for_job` can swap it between
    /// jobs; processes snapshot the `Arc` at install.
    parker: Mutex<Arc<Parker>>,
    /// What a served attempt left on this plane when it bound it.
    bound: Mutex<Bound>,
}

/// What one served attempt leaves on the plane it binds, from
/// `JobCx::bind_plane` until the dispatcher ends the attempt
/// ([`FaultPlane::end_loan`]).  Binding records, reset applies: a session
/// reset between the two — a run starts with one — leaves all of it in
/// place and applies the deadline to the run.
#[derive(Default)]
struct Bound {
    /// A resident force lent to the plane, for
    /// [`launch_plane`](crate::process::launch_plane) to use when the
    /// session attached no pool of its own.  It rides the plane — not the
    /// thread — so a force launched from inside the served job (another
    /// plane) cannot re-enter the pool its own launcher occupies.
    loan: Option<Arc<LazyPool>>,
    /// The attempt's deadline instant, which every
    /// [`FaultPlane::reset_for_job`] of a virtual run arms on the virtual
    /// clock as the budget left.
    deadline_at: Option<Instant>,
    /// The attempt's deadline trip ([`FaultPlane::trip_deadline`]), which
    /// every [`FaultPlane::reset_for_job`] puts back.
    deadline: Option<ProcessFault>,
}

impl FaultPlane {
    /// A fresh, untripped plane for a force of `nproc` processes on no
    /// machine in particular: a virtual run of it is priced by the
    /// portable fork/spin personality.
    ///
    /// `stats` is the rollup (typically the machine's counter block):
    /// the plane gets a fresh private block whose every charge is
    /// mirrored into `stats`, so per-plane deltas are exact while the
    /// rollup remains a consistent aggregate view.
    pub fn new(nproc: usize, stats: Arc<OpStats>, config: RunOptions) -> Arc<FaultPlane> {
        let costs = CostModel::fork_spin();
        Self::with_handle(nproc, StatsHandle::root(stats).child(), costs, config)
    }

    /// A session's plane: it accounts through an explicit
    /// [`StatsHandle`] (`machine.stats_handle().child()`), and its
    /// virtual runs are priced by that machine's `costs`.
    pub fn with_handle(
        nproc: usize,
        stats: StatsHandle,
        costs: CostModel,
        config: RunOptions,
    ) -> Arc<FaultPlane> {
        Arc::new(FaultPlane {
            nproc,
            costs,
            stats,
            config: Mutex::new(config),
            tripped: AtomicBool::new(false),
            fault: Mutex::new(None),
            payload: Mutex::new(None),
            slots: (0..nproc).map(|_| CachePadded::default()).collect(),
            trace: Mutex::new(
                config
                    .trace
                    .then(|| TraceSink::new(nproc, config.backend.is_virtual())),
            ),
            parker: Mutex::new(Arc::new(Parker::new(config.backend, nproc, costs))),
            bound: Mutex::new(Bound::default()),
        })
    }

    /// Number of processes the plane covers.
    pub fn nproc(&self) -> usize {
        self.nproc
    }

    /// The plane's **private** counter block: exact per-plane operation
    /// counts, unpolluted by any other plane sharing the machine.
    /// Snapshot this for per-job deltas; [`Machine::stats`] (the rollup
    /// root) remains the machine-wide aggregate.
    ///
    /// [`Machine::stats`]: crate::machine::Machine::stats
    pub fn stats(&self) -> &Arc<OpStats> {
        self.stats.local()
    }

    /// The plane's accounting handle (private block + the machine's).
    pub fn stats_handle(&self) -> &StatsHandle {
        &self.stats
    }

    /// The options the plane was last armed with (the job's watchdog
    /// bound, injection, tracing, backend).
    pub fn config(&self) -> RunOptions {
        *self.config.lock()
    }

    /// The job's parking backend state (shared; processes snapshot the
    /// `Arc` into their thread-local context at install).
    pub fn parker(&self) -> Arc<Parker> {
        Arc::clone(&self.parker.lock())
    }

    /// Summary of the job's virtual schedule (`None` unless the job ran
    /// under [`ParkBackend::Virtual`]).  Read at job quiescence, before
    /// the next `reset_for_job` discards the scheduler.
    pub fn virtual_summary(&self) -> Option<VirtualSummary> {
        self.parker.lock().virtual_summary()
    }

    /// Re-arm the plane for a new job on a resident session: swap in the
    /// job's configuration, clear the cancellation token, the first-fault
    /// and payload slots, and return every wait-board entry to `RUNNING`.
    ///
    /// Must only be called between jobs (no process of a previous job
    /// still running under this plane); the session layers serialize
    /// their runs to guarantee that.  After the reset, a fault tripped by
    /// job *N* is invisible to job *N + 1*.
    pub fn reset_for_job(&self, config: RunOptions) {
        {
            let mut sink = self.trace.lock();
            // Reuse the resident sink when its clock mode fits (the
            // common pooled case): resetting in place is much cheaper
            // than reallocating rings every job, but a wall-clock sink
            // must not serve a virtual job or vice versa.
            let virtual_clock = config.backend.is_virtual();
            match sink.as_ref() {
                _ if !config.trace => *sink = None,
                Some(s) if s.is_virtual_clock() == virtual_clock => s.reset(),
                _ => *sink = Some(TraceSink::new(self.nproc, virtual_clock)),
            }
        }
        {
            // Rebuild the parker when either side is virtual: the
            // discrete-event scheduler (clocks, picker RNG, decision
            // digest) is per-job state, so a resident session must start
            // every virtual job from the seed, not from the previous
            // job's exhausted schedule.  A thread-per-pid parker holds
            // nothing and is kept.
            let mut parker = self.parker.lock();
            if parker.is_virtual() || config.backend.is_virtual() {
                *parker = Arc::new(Parker::new(config.backend, self.nproc, self.costs));
            }
        }
        *self.config.lock() = config;
        *self.payload.lock() = None;
        for slot in &self.slots {
            slot.board.store(RUNNING, Ordering::Release);
        }
        // A deadline that fired on the attempt this run belongs to is not
        // the previous job's fault: the run starts cancelled.  Under the
        // lock `trip_deadline` trips under, so the trip lands wholly
        // before this reset (and is put back) or wholly after it.  A
        // virtual run does almost no wall-clock work, so its budget left
        // is armed on the virtual clock too (1 wall ns = 1 virtual ns),
        // where the miss shows and replays with the schedule.
        let bound = self.bound.lock();
        if let Some(at) = bound.deadline_at.filter(|_| config.backend.is_virtual()) {
            self.parker()
                .arm_virtual_deadline(at.saturating_duration_since(Instant::now()));
        }
        *self.fault.lock() = bound.deadline.clone();
        self.tripped
            .store(bound.deadline.is_some(), Ordering::Release);
    }

    /// Lend `pool` to this plane, and record the attempt's deadline
    /// instant, until [`end_loan`](Self::end_loan).
    pub fn lend(&self, pool: &Arc<LazyPool>, deadline_at: Option<Instant>) {
        let mut bound = self.bound.lock();
        bound.loan = Some(Arc::clone(pool));
        bound.deadline_at = deadline_at;
    }

    /// The served attempt is over: withdraw whatever was lent and let go
    /// of its deadline, so the next launch of this plane is the
    /// session's own business again.  A trip already on the plane stays
    /// until the next reset, like any fault.
    pub fn end_loan(&self) {
        *self.bound.lock() = Bound::default();
    }

    /// The force currently lent to this plane, if any.
    pub(crate) fn loan(&self) -> Option<Arc<LazyPool>> {
        self.bound.lock().loan.clone()
    }

    /// Trip the plane for a served attempt's deadline, once: the trip
    /// (with its fault record) outlasts any [`reset_for_job`] until
    /// [`end_loan`] — the session resets its plane when the run starts,
    /// which may be after the deadline fired.
    ///
    /// [`reset_for_job`]: Self::reset_for_job
    /// [`end_loan`]: Self::end_loan
    pub fn trip_deadline(&self, fault: ProcessFault) {
        let mut bound = self.bound.lock();
        if bound.deadline.is_none() {
            bound.deadline = Some(fault.clone());
            self.trip(fault, None);
        }
    }

    /// The job's trace sink, when tracing is armed (shared; hot paths
    /// read the copy snapshotted into the thread-local context instead).
    pub fn trace_sink(&self) -> Option<Arc<TraceSink>> {
        self.trace.lock().clone()
    }

    /// Summarize the job's trace into a [`ProfileReport`] (`None` when
    /// tracing was not armed).  Call only at job quiescence.
    pub fn profile_report(&self) -> Option<ProfileReport> {
        self.trace.lock().as_ref().map(|s| s.report())
    }

    /// Whether the cancellation token has been tripped.  Any blocking
    /// wait loop observing `true` must unwind via [`check_cancel`].
    pub fn is_tripped(&self) -> bool {
        self.tripped.load(Ordering::Acquire)
    }

    /// Trip the plane with a fault.  The first fault wins (later trips
    /// are counted but not recorded); `payload` optionally preserves the
    /// original panic payload for verbatim re-raising.  Then it wakes what
    /// it cancels: each wake handle on the board, under its slot's mutex, and the parker.
    pub fn trip(&self, fault: ProcessFault, payload: Option<Box<dyn Any + Send>>) {
        self.stats.add_direct(&|s| &s.faults_detected, 1);
        {
            let mut slot = self.fault.lock();
            if slot.is_none() {
                *slot = Some(fault);
                if let Some(p) = payload {
                    *self.payload.lock() = Some(p);
                }
            }
        }
        self.tripped.store(true, Ordering::Release);
        for slot in &self.slots {
            if let Some(wake) = *slot.wake.lock() {
                wake();
            }
        }
        self.parker().wake_cancelled();
    }

    /// Take the recorded first fault (None if the plane never tripped).
    pub fn take_fault(&self) -> Option<ProcessFault> {
        self.fault.lock().take()
    }

    /// Take the preserved original panic payload, if any.
    pub fn take_payload(&self) -> Option<Box<dyn Any + Send>> {
        self.payload.lock().take()
    }

    fn set_board(&self, pid: usize, state: usize, construct: Construct) {
        if let Some(slot) = self.slots.get(pid) {
            slot.board
                .store(state | (construct.index() << 2), Ordering::Release);
        }
    }

    /// Move `pid`'s counter lane into the plane's handle (private block
    /// and rollups).  [`run_as_process`](crate::process::run_as_process)
    /// calls this once as the process ends, however it ends; until then
    /// the pid's counts are visible through [`live_stats`](Self::live_stats)
    /// only.
    pub(crate) fn fold_lane(&self, pid: usize) {
        self.stats.fold(&self.slots[pid].lane);
    }

    /// The plane's counts as of now: the private block plus every lane
    /// not yet folded.  [`stats`](Self::stats) alone is exact once the
    /// job's processes have ended; a reader that looks *during* a job
    /// (the watchdog, a live metrics snapshot) wants this.
    pub fn live_stats(&self) -> StatsSnapshot {
        let mut total = self.stats.local().snapshot();
        for slot in &self.slots {
            total.merge(&slot.lane.snapshot());
        }
        total
    }

    /// Mark `pid` finished on the wait board (it can no longer deadlock).
    pub(crate) fn finish(&self, pid: usize) {
        self.set_board(pid, FINISHED, Construct::Body);
    }

    /// If every non-finished process is parked (and at least one is),
    /// return the lowest parked pid and its construct.
    fn all_parked(&self) -> Option<(usize, Construct)> {
        let mut witness = None;
        for (pid, slot) in self.slots.iter().enumerate() {
            let word = slot.board.load(Ordering::Acquire);
            match word & STATE_MASK {
                FINISHED => {}
                PARKED => {
                    if witness.is_none() {
                        witness = Some((pid, Construct::from_index(word >> 2)));
                    }
                }
                _ => return None,
            }
        }
        witness
    }

    /// Counters whose movement proves the force is making progress.
    /// Excludes retry/park counters, which parked processes keep
    /// incrementing while stuck.
    fn progress_signature(&self) -> u64 {
        // Read the plane's *private* counters: another plane making
        // progress on the same machine must not mask this force's
        // stagnation (nor reset its stagnation count).  Running
        // processes count in their lanes, so the lanes are summed in.
        let s = self.live_stats();
        s.lock_acquires
            .wrapping_add(s.lock_releases)
            .wrapping_add(s.fe_produces)
            .wrapping_add(s.fe_consumes)
            .wrapping_add(s.barrier_episodes)
            .wrapping_add(s.processes_created)
    }

    /// The deadlock watchdog loop, run on a helper thread by
    /// [`launch_plane`](crate::process::launch_plane) with the job's
    /// configured `bound` — never for a virtual job, which gets the
    /// scheduler's deterministic barren-poll detector instead (a
    /// wall-clock watchdog would race the seeded schedule).  Samples the
    /// wait board and the progress counters four times per bound; when
    /// every live process has stayed parked with no counter movement for
    /// a full bound, trips the plane with a report naming a parked pid
    /// and its construct.  Returns when `stop` is set (force joined), when
    /// the plane trips for any reason, or after its own trip.
    pub(crate) fn run_watchdog(&self, bound: Duration, stop: &StopSignal) {
        let tick = park::watchdog_tick(bound);
        let mut last_sig = self.progress_signature();
        let mut stagnant = 0u32;
        loop {
            if stop.sleep(tick) {
                return;
            }
            if self.is_tripped() {
                return;
            }
            let sig = self.progress_signature();
            let parked = self.all_parked();
            if parked.is_some() && sig == last_sig {
                stagnant += 1;
            } else {
                stagnant = 0;
            }
            last_sig = sig;
            if stagnant >= 4 {
                let (pid, construct) = parked.expect("stagnant implies parked");
                self.stats.add_direct(&|s| &s.watchdog_trips, 1);
                self.trip(
                    ProcessFault {
                        pid,
                        construct: construct.name(),
                        payload: format!(
                            "deadlock watchdog: no progress for {bound:?} with every live \
                             process parked (pid {pid} parked in {})",
                            construct.name()
                        ),
                    },
                    None,
                );
                return;
            }
        }
    }
}

/// The per-thread fault context: which plane and pid this thread belongs
/// to, plus the construct-marker stack top and the injection RNG.
struct Ctx {
    plane: Arc<FaultPlane>,
    pid: usize,
    construct: Cell<Construct>,
    /// The construct that was active when this thread started panicking
    /// (recorded by the innermost marker guard during unwind).
    panicked_in: Cell<Option<Construct>>,
    /// Injection config snapshotted at install time, so the per-operation
    /// roll never takes the plane's config mutex.
    injection: Option<FaultInjection>,
    /// Trace sink snapshotted at install time, for the same reason: the
    /// per-event hooks never take the plane's trace mutex.
    trace: Option<Arc<TraceSink>>,
    /// Parker snapshotted at install time, present only when the job
    /// runs on the virtual scheduler — the thread-per-pid fast path
    /// stays a single `Option` test.
    parker: Option<Arc<Parker>>,
    rng: RefCell<Option<XorShift64>>,
}

impl Ctx {
    /// Add `n` to a counter of the lane this process owns.
    #[inline]
    fn charge(&self, proj: &dyn Fn(&OpStats) -> &AtomicU64, n: u64) {
        OpStats::add_single_writer(proj(&self.plane.slots[self.pid].lane), n);
    }
}

thread_local! {
    static CTX: RefCell<Option<Ctx>> = const { RefCell::new(None) };
}

/// RAII guard restoring the previous thread-local fault context.
pub(crate) struct CtxGuard {
    prev: Option<Ctx>,
}

impl Drop for CtxGuard {
    fn drop(&mut self) {
        CTX.with(|c| *c.borrow_mut() = self.prev.take());
    }
}

/// Install the fault context for one force process on the current thread
/// (called by `launch_plane`; nestable, the guard restores the outer
/// context).
pub(crate) fn install(plane: &Arc<FaultPlane>, pid: usize) -> CtxGuard {
    assert!(pid < plane.nproc, "pid {pid} outside the plane");
    let config = plane.config();
    CTX.with(|c| {
        let prev = c.borrow_mut().replace(Ctx {
            plane: Arc::clone(plane),
            pid,
            construct: Cell::new(Construct::Body),
            panicked_in: Cell::new(None),
            injection: config.injection,
            trace: plane.trace_sink(),
            parker: {
                let parker = plane.parker();
                parker.is_virtual().then_some(parker)
            },
            rng: RefCell::new(None),
        });
        CtxGuard { prev }
    })
}

/// Step outside any force for the guard's lifetime: the thread has no
/// process context, so a wait made meanwhile is a launcher's, not a
/// process's — uncancellable, off the wait board, and no decision point
/// of a virtual schedule.  The pool's join runs under this for the same
/// reason the scoped launcher's is a bare `JoinHandle::join`.
pub(crate) fn detach() -> CtxGuard {
    CTX.with(|c| CtxGuard {
        prev: c.borrow_mut().take(),
    })
}

/// Take the construct recorded at the moment the current thread started
/// panicking (used by `launch_plane` to attribute a caught panic).
pub(crate) fn take_panicked_construct() -> Option<Construct> {
    CTX.with(|c| c.borrow().as_ref().and_then(|ctx| ctx.panicked_in.take()))
}

/// Run `f` with the current thread's trace sink, pid, and innermost
/// construct marker; `None` when the thread is outside a force or its
/// force is not tracing.  The single entry point for every trace hook.
#[inline]
pub(crate) fn with_trace<R>(f: impl FnOnce(&TraceSink, usize, Construct) -> R) -> Option<R> {
    CTX.with(|c| {
        let borrowed = c.borrow();
        let ctx = borrowed.as_ref()?;
        let sink = ctx.trace.as_ref()?;
        Some(f(sink, ctx.pid, ctx.construct.get()))
    })
}

/// RAII construct marker: the innermost active marker names the construct
/// for fault attribution and park reports.
pub struct ConstructGuard {
    prev: Option<Construct>,
    /// When tracing: the construct to close out and its enter stamp.
    timed: Option<(Construct, u64)>,
}

impl Drop for ConstructGuard {
    fn drop(&mut self) {
        let Some(prev) = self.prev else { return };
        let timed = self.timed.take();
        CTX.with(|c| {
            if let Some(ctx) = c.borrow().as_ref() {
                if std::thread::panicking() && ctx.panicked_in.get().is_none() {
                    ctx.panicked_in.set(Some(ctx.construct.get()));
                }
                ctx.construct.set(prev);
                if let Some((construct, t0)) = timed {
                    if let Some(sink) = ctx.trace.as_ref() {
                        trace::construct_exited(sink, ctx.pid, construct, t0);
                    }
                }
            }
        });
    }
}

/// Mark the current thread as executing `construct` until the returned
/// guard drops.  A no-op outside a force.
pub fn enter(construct: Construct) -> ConstructGuard {
    CTX.with(|c| match c.borrow().as_ref() {
        Some(ctx) => {
            let prev = ctx.construct.replace(construct);
            // Re-entering the construct already being executed (e.g. a
            // barrier primitive marked inside the barrier *statement*'s
            // own marker) keeps the fault attribution but does not open
            // a second trace span — the enclosing marker already times
            // the whole episode, and a nested span would double-count
            // the histogram and double the event volume.
            let timed = (prev != construct)
                .then(|| {
                    ctx.trace.as_ref().map(|sink| {
                        (
                            construct,
                            trace::construct_entered(sink, ctx.pid, construct),
                        )
                    })
                })
                .flatten();
            ConstructGuard {
                prev: Some(prev),
                timed,
            }
        }
        None => ConstructGuard {
            prev: None,
            timed: None,
        },
    })
}

/// The pid of the current thread within its force (`None` outside a
/// force).  Scheduling code uses this to address per-pid work deques
/// from contexts that do not carry a player reference.
pub fn current_pid() -> Option<usize> {
    CTX.with(|c| c.borrow().as_ref().map(|ctx| ctx.pid))
}

/// Account a steal-probe outcome to the current force's machine
/// counters: a successful theft bumps `steals`, and each victim found
/// empty bumps `steal_attempts_failed`.  A no-op outside a force.
pub fn count_steal(taken: bool, failed_probes: u64) {
    CTX.with(|c| {
        if let Some(ctx) = c.borrow().as_ref() {
            if taken {
                ctx.charge(&|s| &s.steals, 1);
            }
            if failed_probes > 0 {
                ctx.charge(&|s| &s.steal_attempts_failed, failed_probes);
            }
        }
    });
}

/// The construct the current thread is marked as executing (`Body` when
/// unmarked or outside a force).
pub fn current_construct() -> Construct {
    CTX.with(|c| {
        c.borrow()
            .as_ref()
            .map(|ctx| ctx.construct.get())
            .unwrap_or(Construct::Body)
    })
}

/// Observe the cancellation token: if the force's plane has tripped,
/// unwind this thread with a [`Cancelled`] payload.  Every blocking wait
/// loop calls this once per retry; a no-op outside a force.
#[inline]
pub fn check_cancel() {
    let tripped = CTX.with(|c| {
        c.borrow()
            .as_ref()
            .is_some_and(|ctx| ctx.plane.is_tripped())
    });
    if tripped {
        cancel_now();
    }
}

/// Whether the current force's plane has tripped, *without* unwinding.
/// Wait loops that must clean shared state (pass a wake on) before
/// unwinding test this first and then call [`cancel_now`] once their
/// bookkeeping is safe.  Always `false` outside a force.
#[inline]
pub(crate) fn cancel_pending() -> bool {
    CTX.with(|c| {
        c.borrow()
            .as_ref()
            .is_some_and(|ctx| ctx.plane.is_tripped())
    })
}

/// [`check_cancel`] for a process whose token is known to be set.
#[cold]
pub(crate) fn cancel_now() -> ! {
    CTX.with(|c| {
        if let Some(ctx) = c.borrow().as_ref() {
            ctx.charge(&|s| &s.cancellations_observed, 1);
        }
    });
    std::panic::resume_unwind(Box::new(Cancelled));
}

/// RAII wait-board entry (and wake handle): the pid shows as parked (in
/// the innermost active construct, or `fallback`) until the guard drops.
pub struct ParkGuard {
    plane: Option<Arc<FaultPlane>>,
    pid: usize,
    /// When tracing: the construct the wait was attributed to and its
    /// park stamp.
    trace: Option<(Construct, u64)>,
}

impl Drop for ParkGuard {
    fn drop(&mut self) {
        let Some(plane) = self.plane.take() else {
            return;
        };
        *plane.slots[self.pid].wake.lock() = None;
        let traced = self.trace.take();
        // Restore `RUNNING` with the innermost *still-active* construct
        // marker, read at drop time — not `Construct::Body`.  A nested
        // blocking wait ending must not erase the enclosing construct's
        // attribution; that stays on the board until the enclosing
        // marker itself drops.
        CTX.with(|c| {
            let borrowed = c.borrow();
            let ctx = borrowed.as_ref();
            let construct = ctx
                .map(|ctx| ctx.construct.get())
                .unwrap_or(Construct::Body);
            plane.set_board(self.pid, RUNNING, construct);
            if let Some((attributed, t0)) = traced {
                if let Some(sink) = ctx.and_then(|ctx| ctx.trace.as_ref()) {
                    trace::park_ended(sink, self.pid, attributed, t0);
                }
            }
        });
    }
}

/// Publish on the wait board that the current process is about to block.
/// A no-op outside a force.
pub fn parked(fallback: Construct) -> ParkGuard {
    CTX.with(|c| match c.borrow().as_ref() {
        Some(ctx) => {
            let construct = match ctx.construct.get() {
                Construct::Body => fallback,
                marked => marked,
            };
            ctx.plane.set_board(ctx.pid, PARKED, construct);
            let trace = ctx
                .trace
                .as_ref()
                .map(|sink| (construct, trace::park_begun(sink, ctx.pid, construct)));
            ParkGuard {
                plane: Some(Arc::clone(&ctx.plane)),
                pid: ctx.pid,
                trace,
            }
        }
        None => ParkGuard {
            plane: None,
            pid: 0,
            trace: None,
        },
    })
}

/// Run `wait` [`parked`], with `wake` beside the board word for a trip to
/// call.
pub(crate) fn parked_on<R>(
    fallback: Construct,
    wake: &(dyn Fn() + Sync),
    wait: impl FnOnce() -> R,
) -> R {
    // SAFETY: the erased reference outlives its use.  A trip calls it only
    // under the slot's mutex, and `park` — dropped however `wait` ends,
    // before this returns — takes it back under that mutex.
    let wake = unsafe { std::mem::transmute::<&(dyn Fn() + Sync), WakeHandle>(wake) };
    let park = parked(fallback);
    if let Some(plane) = &park.plane {
        *plane.slots[park.pid].wake.lock() = Some(wake);
    }
    wait()
}

/// The current process's parker, when its job runs on the virtual
/// scheduler (`None` outside a force or under thread-per-pid).
pub(crate) fn current_parker() -> Option<Arc<Parker>> {
    CTX.with(|c| c.borrow().as_ref().and_then(|ctx| ctx.parker.clone()))
}

/// Count one in the current process's counter lane, which reaches the
/// plane's exact per-job view *and* the machine's aggregate when the
/// process ends.  A no-op outside a force.  The parking layer
/// accounts parks/wakes through this.
pub(crate) fn count_in_lane(proj: impl Fn(&OpStats) -> &AtomicU64) {
    CTX.with(|c| {
        if let Some(ctx) = c.borrow().as_ref() {
            ctx.charge(&proj, 1);
        }
    });
}

/// Resolve a context-preferred charge: when the calling thread runs as a
/// force process, charge its own lane; otherwise, when a running
/// session has bound its plane ([`bind_ambient_stats`]), charge that.
/// Returns `false` when neither applies — the caller charges its own
/// baked handle.  This is what lets a primitive constructed against the
/// machine's block (a pooled Cray-2 lock slot, a resident engine's lock
/// table) attribute runtime operations to the plane actually executing.
#[inline]
pub(crate) fn charge_current(proj: &dyn Fn(&OpStats) -> &AtomicU64, n: u64) -> bool {
    CTX.with(|c| {
        if let Some(ctx) = c.borrow().as_ref() {
            ctx.charge(proj, n);
            return true;
        }
        AMBIENT.with(|a| match a.borrow().as_ref() {
            Some(handle) => {
                handle.add_direct(proj, n);
                true
            }
            None => false,
        })
    })
}

thread_local! {
    /// Ambient accounting bindings for threads that are *not* force
    /// processes: a session's driver thread (the fortranish engine runs
    /// the driver program inline) binds its run's plane here so lock
    /// creation, shared-memory designation, and driver-side lock traffic
    /// are the job's even though no fault context is installed.
    /// Sessions nest (a serve job runs a session from a thread that may
    /// have bound its own run's plane): each guard keeps the
    /// binding it replaced, so the stack lives in the guards and a
    /// thread's first binding allocates nothing — a served job costs the
    /// same allocations on whichever thread runs it.
    static AMBIENT: RefCell<Option<StatsHandle>> = const { RefCell::new(None) };
}

/// RAII guard for [`bind_ambient_stats`]; puts back the binding it
/// replaced on drop.
pub(crate) struct AmbientStatsGuard {
    replaced: Option<StatsHandle>,
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Drop for AmbientStatsGuard {
    fn drop(&mut self) {
        let replaced = self.replaced.take();
        AMBIENT.with(|a| *a.borrow_mut() = replaced);
    }
}

/// Bind `handle` as the calling thread's ambient accounting target until
/// the returned guard drops.  Charges made on this thread outside any
/// force process (lock creation, shared-region designation, driver-side
/// lock traffic) then land in `handle` instead of the charging
/// primitive's baked handle: [`Session::run`](crate::session::Session::run)
/// binds its run's plane, so the driver's counts are the job's.
/// Installed fault contexts still win: a force process always charges
/// its own plane.
pub(crate) fn bind_ambient_stats(handle: StatsHandle) -> AmbientStatsGuard {
    AmbientStatsGuard {
        replaced: AMBIENT.with(|a| a.replace(Some(handle))),
        _not_send: std::marker::PhantomData,
    }
}

/// Trip the current force's plane from inside a process, attributing the
/// fault to `construct` — a [`Construct::name`], or a name outside the
/// table such as the serve layer's `deadline`.  The interpreter reports a
/// runtime error this way without panicking.  Returns `false` when called
/// outside a force.
pub fn trip_current(construct: &'static str, payload: String) -> bool {
    let plane_pid = CTX.with(|c| {
        c.borrow()
            .as_ref()
            .map(|ctx| (Arc::clone(&ctx.plane), ctx.pid))
    });
    match plane_pid {
        Some((plane, pid)) => {
            plane.trip(
                ProcessFault {
                    pid,
                    construct,
                    payload,
                },
                None,
            );
            true
        }
        None => false,
    }
}

enum Injected {
    Nothing,
    Delay(u64),
    Panic(usize),
}

fn roll(want_spurious: bool) -> Injected {
    let rolled = CTX.with(|c| {
        let borrowed = c.borrow();
        let ctx = borrowed.as_ref()?;
        let inj = ctx.injection?;
        let mut rng = ctx.rng.borrow_mut();
        let rng = rng.get_or_insert_with(|| {
            XorShift64::new(inj.seed ^ (ctx.pid as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15))
        });
        if want_spurious {
            if inj.spurious_per_mille > 0 && rng.next_below(1000) < inj.spurious_per_mille as u64 {
                ctx.charge(&|s| &s.faults_injected, 1);
                return Some(Injected::Panic(ctx.pid)); // repurposed: "spurious" marker
            }
            return Some(Injected::Nothing);
        }
        if inj.delay_per_mille > 0 && rng.next_below(1000) < inj.delay_per_mille as u64 {
            ctx.charge(&|s| &s.faults_injected, 1);
            return Some(Injected::Delay(rng.next_below(50) + 1));
        }
        if inj.panic_per_mille > 0 && rng.next_below(1000) < inj.panic_per_mille as u64 {
            ctx.charge(&|s| &s.faults_injected, 1);
            return Some(Injected::Panic(ctx.pid));
        }
        Some(Injected::Nothing)
    });
    rolled.unwrap_or(Injected::Nothing)
}

/// Payload prefix carried by every injection-layer panic.  This marker is
/// the stable contract by which upper layers (the job server's retry
/// classifier, tests) distinguish injected/transient faults from genuine
/// program bugs — a deterministic error never carries it.
pub const INJECTED_FAULT_MARKER: &str = "injected fault at";

/// Fault-injection point at a construct boundary: may sleep a few
/// microseconds or unwind with an injected fault, per the plane's
/// [`FaultInjection`] configuration.  A no-op outside a force or without
/// injection configured.
pub fn inject(point: Construct) {
    match roll(false) {
        Injected::Nothing => {}
        Injected::Delay(micros) => std::thread::sleep(Duration::from_micros(micros)),
        Injected::Panic(pid) => std::panic::resume_unwind(Box::new(format!(
            "{INJECTED_FAULT_MARKER} {} (pid {pid})",
            point.name()
        ))),
    }
}

/// Fault-injection point inside lock acquisition: returns `true` when the
/// attempt should be treated as one spurious failure (the caller records
/// a contended attempt and retries).  Never panics.
pub fn spurious_lock_failure() -> bool {
    matches!(roll(true), Injected::Panic(_))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plane(nproc: usize, config: RunOptions) -> Arc<FaultPlane> {
        FaultPlane::new(nproc, Arc::new(OpStats::new()), config)
    }

    #[test]
    fn first_trip_wins() {
        let p = plane(2, RunOptions::default());
        assert!(!p.is_tripped());
        p.trip(
            ProcessFault {
                pid: 1,
                construct: "barrier",
                payload: "first".into(),
            },
            None,
        );
        p.trip(
            ProcessFault {
                pid: 0,
                construct: "body",
                payload: "second".into(),
            },
            None,
        );
        assert!(p.is_tripped());
        let f = p.take_fault().expect("tripped");
        assert_eq!(f.pid, 1);
        assert_eq!(f.payload, "first");
        assert_eq!(p.stats().snapshot().faults_detected, 2);
    }

    #[test]
    fn fault_display_is_structured() {
        let f = ProcessFault {
            pid: 3,
            construct: "consume",
            payload: "boom".into(),
        };
        assert_eq!(f.to_string(), "process 3 faulted in consume: boom");
    }

    #[test]
    fn construct_indices_round_trip() {
        for c in CONSTRUCTS {
            assert_eq!(Construct::from_index(c.index()), c);
        }
        assert_eq!(Construct::from_index(usize::MAX >> 2), Construct::Body);
    }

    #[test]
    fn outside_a_force_everything_is_inert() {
        check_cancel(); // must not unwind
        let _g = enter(Construct::Barrier);
        assert_eq!(current_construct(), Construct::Body);
        let _p = parked(Construct::Lock);
        inject(Construct::Barrier);
        assert!(!spurious_lock_failure());
        assert!(!trip_current(Construct::Interpreter.name(), "nope".into()));
    }

    #[test]
    fn markers_nest_and_attribute_panics() {
        let p = plane(1, RunOptions::default());
        let _ctx = install(&p, 0);
        assert_eq!(current_construct(), Construct::Body);
        {
            let _a = enter(Construct::Doall);
            assert_eq!(current_construct(), Construct::Doall);
            {
                let _b = enter(Construct::Critical);
                assert_eq!(current_construct(), Construct::Critical);
            }
            assert_eq!(current_construct(), Construct::Doall);
        }
        assert_eq!(current_construct(), Construct::Body);
        // A panic under a marker records the innermost construct.
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _a = enter(Construct::Barrier);
            panic!("die at the barrier");
        }));
        assert!(caught.is_err());
        assert_eq!(take_panicked_construct(), Some(Construct::Barrier));
        assert_eq!(take_panicked_construct(), None, "taken once");
    }

    #[test]
    fn check_cancel_unwinds_with_cancelled_payload() {
        let p = plane(1, RunOptions::default());
        let _ctx = install(&p, 0);
        p.trip(
            ProcessFault {
                pid: 0,
                construct: "body",
                payload: "x".into(),
            },
            None,
        );
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(check_cancel));
        let payload = caught.expect_err("tripped plane must unwind");
        assert!(payload.is::<Cancelled>());
        assert_eq!(p.live_stats().cancellations_observed, 1);
    }

    #[test]
    fn wait_board_tracks_park_and_finish() {
        let p = plane(2, RunOptions::default());
        assert_eq!(p.all_parked(), None, "running processes are not parked");
        {
            let _ctx = install(&p, 0);
            let _g = enter(Construct::Consume);
            let _park = parked(Construct::Lock);
            assert_eq!(p.all_parked(), None, "pid 1 still running");
            p.finish(1);
            assert_eq!(p.all_parked(), Some((0, Construct::Consume)));
        }
        // Park guard dropped: pid 0 runs again.
        assert_eq!(p.all_parked(), None);
        p.finish(0);
        assert_eq!(p.all_parked(), None, "all finished is not a deadlock");
    }

    #[test]
    fn park_guard_restores_the_enclosing_construct() {
        let p = plane(1, RunOptions::default());
        let _ctx = install(&p, 0);
        let _outer = enter(Construct::Doall);
        {
            let _inner = enter(Construct::Consume);
            let park = parked(Construct::Lock);
            let word = p.slots[0].board.load(Ordering::Acquire);
            assert_eq!(word & STATE_MASK, PARKED);
            assert_eq!(Construct::from_index(word >> 2), Construct::Consume);
            drop(park);
            // Regression: the guard used to restore `RUNNING` with
            // `Construct::Body`, erasing the enclosing attribution until
            // the next `enter`.  It must keep the innermost still-active
            // marker.
            let word = p.slots[0].board.load(Ordering::Acquire);
            assert_eq!(word & STATE_MASK, RUNNING);
            assert_eq!(Construct::from_index(word >> 2), Construct::Consume);
        }
        // With the inner marker gone, a new wait attributes to the outer
        // construct, and its end restores that same attribution.
        let park = parked(Construct::Lock);
        drop(park);
        let word = p.slots[0].board.load(Ordering::Acquire);
        assert_eq!(word & STATE_MASK, RUNNING);
        assert_eq!(Construct::from_index(word >> 2), Construct::Doall);
    }

    #[test]
    fn tracing_attributes_constructs_and_waits() {
        let p = plane(
            1,
            RunOptions {
                trace: true,
                ..RunOptions::default()
            },
        );
        let _ctx = install(&p, 0);
        {
            let _g = enter(Construct::Critical);
            let _park = parked(Construct::Lock);
        }
        let r = p.profile_report().expect("tracing armed");
        let c = r.construct("critical").expect("critical profiled");
        assert_eq!(c.enters, 1);
        assert_eq!(c.time.count(), 1);
        assert_eq!(c.wait.count(), 1, "park wait attributed to critical");
        use crate::trace::EventKind;
        for kind in [
            EventKind::ConstructEnter,
            EventKind::Park,
            EventKind::Unpark,
            EventKind::ConstructExit,
        ] {
            assert!(
                r.events.iter().any(|e| e.kind == kind),
                "missing {kind:?} event"
            );
        }
        assert!(p.trace_sink().is_some());
    }

    #[test]
    fn reset_for_job_rearms_or_drops_the_trace_sink() {
        let p = plane(
            2,
            RunOptions {
                trace: true,
                ..RunOptions::default()
            },
        );
        let first = p.trace_sink().expect("armed at construction");
        {
            let _ctx = install(&p, 0);
            let _g = enter(Construct::Barrier);
        }
        assert!(!p.profile_report().expect("armed").is_empty());

        // Same shape: the sink is reused, but blank.
        p.reset_for_job(RunOptions {
            trace: true,
            ..RunOptions::default()
        });
        let second = p.trace_sink().expect("still armed");
        assert!(Arc::ptr_eq(&first, &second), "resident sink reused");
        assert!(p.profile_report().expect("armed").is_empty());

        // Different shape (the clock mode): rebuilt.
        p.reset_for_job(RunOptions {
            trace: true,
            backend: ParkBackend::Virtual { seed: 1 },
            ..RunOptions::default()
        });
        let third = p.trace_sink().expect("still armed");
        assert!(!Arc::ptr_eq(&first, &third), "a clock change rebuilds");

        // Tracing off: dropped entirely.
        p.reset_for_job(RunOptions::default());
        assert!(p.trace_sink().is_none());
        assert!(p.profile_report().is_none());
    }

    #[test]
    fn injection_streams_are_deterministic_per_pid() {
        let config = RunOptions {
            injection: Some(FaultInjection {
                seed: 42,
                panic_per_mille: 0,
                delay_per_mille: 0,
                spurious_per_mille: 500,
            }),
            ..RunOptions::default()
        };
        let run = |pid: usize| {
            let p = plane(4, config);
            let _ctx = install(&p, pid);
            let outcomes: Vec<bool> = (0..64).map(|_| spurious_lock_failure()).collect();
            (outcomes, p.live_stats().faults_injected)
        };
        let (a, na) = run(2);
        let (b, nb) = run(2);
        assert_eq!(a, b, "same pid, same seed: same stream");
        assert_eq!(na, nb);
        assert!(na > 0, "a 50% rate over 64 rolls must fire");
        let (c, _) = run(3);
        assert_ne!(a, c, "different pids draw different streams");
    }

    #[test]
    fn injected_panics_carry_the_construct_and_pid() {
        let config = RunOptions {
            injection: Some(FaultInjection {
                seed: 7,
                panic_per_mille: 1000,
                delay_per_mille: 0,
                spurious_per_mille: 0,
            }),
            ..RunOptions::default()
        };
        let p = plane(1, config);
        let _ctx = install(&p, 0);
        let caught =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| inject(Construct::Barrier)));
        let payload = caught.expect_err("per-mille 1000 always fires");
        let msg = payload.downcast_ref::<String>().expect("string payload");
        assert_eq!(msg, "injected fault at barrier (pid 0)");
        assert_eq!(p.live_stats().faults_injected, 1);
    }

    #[test]
    fn watchdog_trips_on_a_parked_stagnant_force() {
        let p = plane(1, RunOptions::default());
        let _ctx = install(&p, 0);
        let _park = parked(Construct::Consume);
        p.run_watchdog(Duration::from_millis(20), &StopSignal::default());
        assert!(p.is_tripped());
        let f = p.take_fault().expect("watchdog fault");
        assert_eq!(f.pid, 0);
        assert_eq!(f.construct, "consume");
        assert!(f.payload.contains("deadlock watchdog"), "{}", f.payload);
        assert_eq!(p.stats().snapshot().watchdog_trips, 1);
    }

    /// Counts stay in a process's lane until it ends, so the watchdog
    /// must look there: a force whose every sample shows all pids parked
    /// but whose lock counters move between samples is alive.  The bound
    /// is 1 s, so that only a process starved for a whole bound could
    /// trip it, and the work lasts six samples: a watchdog blind to the
    /// lanes trips after four.
    #[test]
    fn watchdog_sees_progress_that_is_still_in_a_lane() {
        use crate::lock::{LockState, RawLock};
        use crate::spin::SpinLock;
        let bound = Duration::from_secs(1);
        let p = plane(
            2,
            RunOptions {
                watchdog: Some(bound),
                ..RunOptions::default()
            },
        );
        let lock = SpinLock::new(LockState::Unlocked, Arc::clone(p.stats()));
        let done = AtomicBool::new(false);
        let ran = crate::process::launch_plane(&p, None, |pid| {
            if pid == 1 {
                // Parked from start to end.
                park::wait_until(Construct::Barrier, || done.load(Ordering::Acquire));
                return;
            }
            // Six samples of work, shown on the board only between the
            // lock operations: parked, like its peer, whenever sampled.
            let until = std::time::Instant::now() + bound * 3 / 2;
            while std::time::Instant::now() < until {
                lock.lock();
                lock.unlock();
                let _parked = parked(Construct::Lock);
                std::thread::sleep(bound / 16);
            }
            done.store(true, Ordering::Release);
        });
        assert_eq!(ran, Ok(vec![(), ()]), "progress in a lane is progress");
        assert_eq!(p.stats().snapshot().watchdog_trips, 0);
    }

    #[test]
    fn reset_for_job_clears_trip_board_and_config() {
        let p = plane(
            2,
            RunOptions {
                watchdog: Some(Duration::from_secs(1)),
                ..RunOptions::default()
            },
        );
        p.trip(
            ProcessFault {
                pid: 0,
                construct: "consume",
                payload: "job 1 fault".into(),
            },
            Some(Box::new("original payload")),
        );
        p.finish(0);
        p.finish(1);
        assert!(p.is_tripped());

        p.reset_for_job(RunOptions::default());
        assert!(!p.is_tripped(), "token cleared");
        assert!(p.take_fault().is_none(), "first-fault slot cleared");
        assert!(p.take_payload().is_none(), "payload slot cleared");
        assert_eq!(p.config().watchdog, None, "config swapped");
        // The board is back to RUNNING: parking pid 0 alone is not an
        // all-parked state, because pid 1 is no longer FINISHED.
        let _ctx = install(&p, 0);
        let _park = parked(Construct::Barrier);
        assert_eq!(p.all_parked(), None, "board entries reset to RUNNING");
    }

    #[test]
    fn watchdog_stops_promptly_when_signalled() {
        let p = plane(1, RunOptions::default());
        let p2 = Arc::clone(&p);
        let start = std::time::Instant::now();
        let watchdog = crate::process::StopGuard::spawn("test-watchdog".into(), move |stop| {
            p2.run_watchdog(Duration::from_secs(3600), stop)
        });
        std::thread::sleep(Duration::from_millis(10));
        drop(watchdog);
        assert!(
            start.elapsed() < Duration::from_secs(60),
            "stop signal must interrupt the tick sleep"
        );
        assert!(!p.is_tripped());
    }
}
