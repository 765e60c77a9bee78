//! The unified parking layer: every blocking wait in the runtime funnels
//! through here.
//!
//! Before this module existed, each wait site (spin/syscall/combined
//! locks, full/empty transitions, both barrier families, the Askfor idle
//! wait, the pool hand-off, the server dispatcher, ...) hand-rolled the
//! same four obligations: a [`Backoff`] or `Condvar` loop, a
//! cancellation check per retry, wait-board attribution for the deadlock
//! watchdog, and a trace park span.  Centralizing them here means they
//! cannot drift — and it creates the single seam where a *pid* can be
//! parked instead of a *thread*.
//!
//! Two backends ([`ParkBackend`]):
//!
//! * [`ParkBackend::ThreadPerPid`] (the default): one OS thread per
//!   process, waits spin briefly then yield or sleep on a condvar.  A
//!   force may be wider than the host: the OS multiplexes its threads
//!   (`tests/overcommit.rs` runs 128 pids on one CPU).
//! * [`ParkBackend::Virtual`]: deterministic discrete-event execution
//!   (DESIGN.md §20).  Exactly one pid at a time holds the *run token*
//!   and executes program text; every park site is a decision point
//!   where a seeded [`XorShift64`] picker chooses which runnable or
//!   parked pid proceeds next, and each pid advances a private virtual
//!   clock priced by the machine's [`CostModel`].  The whole
//!   interleaving — and therefore every trace stamp and op counter — is
//!   a pure function of `(seed, machine, program)`, so a failing
//!   schedule replays from the seed alone.
//!
//! No wait inside a force sleeps on a timer: a trip wakes what it
//! cancels ([`wait_on`]).  One heartbeat ([`HEARTBEAT`]) derives the
//! polling left — the watchdog tick and (a tenth of it, one measured
//! wake-up) the window for which the pool's join polls before it parks;
//! the job server polls nothing on it.  Under the
//! virtual backend the watchdog is the scheduler's barren-poll detector,
//! serve deadlines arm a virtual deadline
//! ([`Parker::arm_virtual_deadline`]) checked at every decision point,
//! and the teardown after a trip is part of the schedule.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::cost::CostModel;
use crate::fault::{self, Construct};
use crate::portable::{Backoff, Condvar, Mutex, MutexGuard, XorShift64};

/// The one tunable polling quantum of the runtime.  Every derived
/// interval ([`watchdog_tick`], the pool join's spin window) is a
/// multiple or a fraction of this.
pub const HEARTBEAT: Duration = Duration::from_micros(500);

/// The deadlock watchdog's poll tick for a given bound: four samples per
/// bound, floored at two heartbeats.
#[inline]
pub fn watchdog_tick(bound: Duration) -> Duration {
    (bound / 4).max(HEARTBEAT.saturating_mul(2))
}

/// The host's available parallelism, with a fixed fallback of 4 when the
/// host cannot report it.  The one place a default `nproc` comes from.
pub fn default_nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

/// How the process layer maps the force's pids onto OS execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ParkBackend {
    /// One dedicated OS thread per pid (the default).  Parked waits
    /// spin-then-yield on their own thread.
    #[default]
    ThreadPerPid,
    /// Deterministic virtual-time execution: one run token, a seeded
    /// schedule picker at every park site, and per-pid virtual clocks
    /// priced by the machine's cost model.  The same `(seed, machine,
    /// program)` triple reproduces the same interleaving, trace, and op
    /// counters on every run (DESIGN.md §20).
    Virtual {
        /// Seed of the schedule picker — the fuzzing dimension.
        seed: u64,
    },
}

impl ParkBackend {
    /// Whether this backend is the deterministic virtual-time scheduler.
    pub fn is_virtual(self) -> bool {
        matches!(self, ParkBackend::Virtual { .. })
    }
}

/// The per-plane parking state: under [`ParkBackend::Virtual`], the
/// discrete-event scheduler; under [`ParkBackend::ThreadPerPid`], nothing.
pub struct Parker {
    backend: ParkBackend,
    virt: Option<VirtualParker>,
}

impl Parker {
    /// A parker for `backend`, covering a force of `nproc` processes,
    /// with `costs` pricing the virtual clock (ignored by thread-per-pid).
    pub(crate) fn new(backend: ParkBackend, nproc: usize, costs: CostModel) -> Parker {
        let virt = match backend {
            ParkBackend::ThreadPerPid => None,
            ParkBackend::Virtual { seed } => Some(VirtualParker::new(seed, nproc.max(1), costs)),
        };
        Parker { backend, virt }
    }

    /// The backend this parker implements.
    pub fn backend(&self) -> ParkBackend {
        self.backend
    }

    /// Whether this parker runs the deterministic virtual-time scheduler,
    /// whose one run token multiplexes the pids: session layers route its
    /// jobs past a pool's resident workers onto small-stacked scoped
    /// threads, and its park sites skip every spin phase.
    pub fn is_virtual(&self) -> bool {
        self.virt.is_some()
    }

    /// Summary of the virtual schedule so far (`None` unless virtual):
    /// the seed, the number of scheduling decisions, the makespan (max
    /// per-pid virtual clock) and an order-sensitive digest of the
    /// decision sequence.  Two runs with the same `(seed, machine,
    /// program)` produce identical summaries.
    pub fn virtual_summary(&self) -> Option<VirtualSummary> {
        self.virt.as_ref().map(|v| v.summary())
    }

    /// Arm a virtual-time deadline `after` nanoseconds of virtual time
    /// (1 simulated cycle = 1 virtual ns).  Checked deterministically at
    /// every scheduling decision: the first decision point at which every
    /// live pid's clock has passed the deadline trips the fault plane
    /// with the serve layer's `deadline` construct.  Returns `false` (and
    /// does nothing) on a non-virtual parker.
    pub fn arm_virtual_deadline(&self, after: Duration) -> bool {
        match self.virt.as_ref() {
            Some(v) => {
                v.state.lock().deadline_ns = Some(after.as_nanos() as u64);
                true
            }
            None => false,
        }
    }

    /// The plane has tripped: hand the run token on in pid order from
    /// now on.
    pub(crate) fn wake_cancelled(&self) {
        if let Some(v) = &self.virt {
            v.state.lock().tripped = true;
        }
    }

    /// Register `pid` with the virtual scheduler and block until it is
    /// granted the run token for the first time.  No-op unless virtual.
    pub(crate) fn virtual_start(&self, pid: usize) {
        if let Some(v) = self.virt.as_ref() {
            v.start(pid);
        }
    }

    /// Mark `pid` finished with the virtual scheduler, handing the run
    /// token to the next pid.  During an unwind the hand-off is deferred
    /// (see [`Parker::virtual_release_orphan`]) so the fault is recorded
    /// before any peer observes it.  No-op unless virtual.
    pub(crate) fn virtual_finish(&self, pid: usize) {
        if let Some(v) = self.virt.as_ref() {
            v.finish(pid);
        }
    }

    /// Release the run token if `pid` still holds it after an unwind —
    /// called by the process layer once the fault has been recorded, so
    /// the drain order of the remaining pids is deterministic.  No-op
    /// unless virtual.
    pub(crate) fn virtual_release_orphan(&self, pid: usize) {
        if let Some(v) = self.virt.as_ref() {
            v.release_orphan(pid);
        }
    }

    /// The virtual-time park loop: yield the run token, re-poll `ready`
    /// each time the scheduler grants it back, and resume once ready.
    /// Every iteration is a scheduling decision point.
    pub(crate) fn virtual_wait(&self, fallback: Construct, ready: &mut dyn FnMut() -> bool) {
        let Some(v) = self.virt.as_ref() else { return };
        let pid = fault::current_pid().expect("a parker is read from a process's context");
        let _park = fault::parked(fallback);
        fault::count_in_lane(|s| &s.parks);
        loop {
            v.yield_token(pid, fallback);
            if ready() {
                break;
            }
        }
        v.wake_token(pid, fallback);
        fault::count_in_lane(|s| &s.park_wakes);
    }
}

/// Summary of one virtual-time run: everything needed to replay (the
/// seed) and to compare schedules across runs (decision count, digest)
/// plus the virtual makespan the speedup experiments plot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VirtualSummary {
    /// The schedule picker's seed.
    pub seed: u64,
    /// Scheduling decisions taken (token grants).
    pub decisions: u64,
    /// Maximum per-pid virtual clock, in virtual nanoseconds (1 simulated
    /// cycle = 1 ns): the parallel virtual elapsed time of the job.
    pub makespan_ns: u64,
    /// Order-sensitive FNV digest of the decision sequence.  Equal
    /// digests mean the two runs took identical schedules.
    pub digest: u64,
}

/// Failed polls per parked pid before the scheduler declares a virtual
/// deadlock: once *every* live pid has been granted the token and failed
/// its readiness poll this many times with no pid making progress in
/// between, no future grant can change anything.
const POLL_BUDGET: u32 = 8;

#[derive(Clone, Copy, PartialEq, Eq)]
enum VStatus {
    /// Not yet registered (its thread has not reached `token_lease`).
    Absent,
    /// Executing (or eligible to execute) program text.
    Runnable,
    /// Parked: schedulable only to re-poll its readiness condition.
    Polling,
    /// Finished (or unwound); never scheduled again.
    Finished,
}

#[derive(Clone, Copy)]
struct VProc {
    status: VStatus,
    /// This pid's virtual clock, in simulated cycles (= virtual ns).
    vnow: u64,
    /// Failed readiness polls since this pid last made progress.
    barren_polls: u32,
}

struct VState {
    rng: XorShift64,
    procs: Vec<VProc>,
    /// The pid currently holding the run token, if any.
    running: Option<usize>,
    /// The force width: no grants are issued until every pid has
    /// registered, so the schedule cannot depend on thread start-up
    /// timing.
    expected: usize,
    registered: usize,
    decisions: u64,
    digest: u64,
    costs: CostModel,
    /// Virtual deadline in ns, if armed (serve-layer jobs).
    deadline_ns: Option<u64>,
    deadline_hit: bool,
    /// The plane has tripped: the survivors unwind in pid order.
    tripped: bool,
}

/// What a decision point concluded besides (possibly) granting the token.
enum VTrip {
    None,
    /// `(deadline_ns, virtual_now_ns)`
    Deadline(u64, u64),
    /// `(virtual_now_ns, live_pids)`
    Deadlock(u64, usize),
}

impl VState {
    /// Minimum virtual clock among live (runnable or polling) pids.
    fn frontier(&self) -> Option<u64> {
        self.procs
            .iter()
            .filter(|p| matches!(p.status, VStatus::Runnable | VStatus::Polling))
            .map(|p| p.vnow)
            .min()
    }

    fn live_count(&self) -> usize {
        self.procs
            .iter()
            .filter(|p| matches!(p.status, VStatus::Runnable | VStatus::Polling))
            .count()
    }

    /// Whether every live pid is parked and has exhausted its poll
    /// budget since the last progress — the deterministic deadlock
    /// criterion (nothing left that could make any poll succeed).
    fn all_live_barren(&self) -> bool {
        let mut live = 0usize;
        for p in &self.procs {
            match p.status {
                VStatus::Runnable => return false,
                VStatus::Polling => {
                    if p.barren_polls < POLL_BUDGET {
                        return false;
                    }
                    live += 1;
                }
                VStatus::Absent | VStatus::Finished => {}
            }
        }
        live > 0
    }

    /// Pick the next pid to hold the token: seeded-uniform among the
    /// live pids whose clock is within one scheduling quantum of the
    /// frontier (so virtual time stays meaningful while the seed decides
    /// every near-tie); once the plane has tripped, the lowest live pid,
    /// with no draw.  Returns `true` when a grant was issued.
    fn schedule_next(&mut self) -> bool {
        debug_assert!(self.running.is_none());
        if self.registered < self.expected {
            return false;
        }
        let Some(frontier) = self.frontier() else {
            return false;
        };
        let window = self.costs.syscall.max(8 * self.costs.lock_op).max(1);
        let horizon = frontier.saturating_add(window);
        let eligible = |p: &VProc| {
            matches!(p.status, VStatus::Runnable | VStatus::Polling)
                && (self.tripped || p.vnow <= horizon)
        };
        let n = self.procs.iter().filter(|p| eligible(p)).count();
        debug_assert!(n > 0, "frontier pid is always eligible");
        let k = if self.tripped {
            0
        } else {
            self.rng.next_below(n as u64) as usize
        };
        let pid = self
            .procs
            .iter()
            .enumerate()
            .filter(|(_, p)| eligible(p))
            .nth(k)
            .map(|(pid, _)| pid)
            .expect("k < eligible count");
        self.running = Some(pid);
        self.decisions += 1;
        self.digest = (self.digest ^ pid as u64).wrapping_mul(0x100_0000_01b3);
        true
    }
}

/// Virtual cost of one failed readiness poll in `construct`, from the
/// machine's cost table: a full/empty retry on the async constructs, a
/// contended lock acquisition elsewhere.
fn poll_cost(costs: &CostModel, construct: Construct) -> u64 {
    match construct {
        Construct::Produce | Construct::Consume | Construct::Copy | Construct::Void => {
            costs.fullempty_op.max(1)
        }
        Construct::Lock | Construct::Critical | Construct::Barrier => {
            costs.lock_op.saturating_add(costs.contended_lock).max(1)
        }
        _ => costs.lock_op.max(1),
    }
}

/// Virtual cost of the successful operation that ends a park.
fn wake_cost(costs: &CostModel, construct: Construct) -> u64 {
    match construct {
        Construct::Produce | Construct::Consume | Construct::Copy | Construct::Void => {
            costs.fullempty_op.max(1)
        }
        _ => costs.lock_op.max(1),
    }
}

/// The discrete-event scheduler behind [`ParkBackend::Virtual`].
struct VirtualParker {
    state: Mutex<VState>,
    granted: Condvar,
    seed: u64,
}

impl VirtualParker {
    fn new(seed: u64, nproc: usize, costs: CostModel) -> VirtualParker {
        VirtualParker {
            state: Mutex::new(VState {
                rng: XorShift64::new(seed),
                procs: vec![
                    VProc {
                        status: VStatus::Absent,
                        vnow: 0,
                        barren_polls: 0,
                    };
                    nproc
                ],
                running: None,
                expected: nproc,
                registered: 0,
                decisions: 0,
                digest: 0xcbf2_9ce4_8422_2325,
                costs,
                deadline_ns: None,
                deadline_hit: false,
                tripped: false,
            }),
            granted: Condvar::new(),
            seed,
        }
    }

    /// Register `pid` and block until its first token grant.  Process
    /// creation is priced serially (`process_create * (pid + 1)`),
    /// matching the fork-loop of the §4.1.1 creation models; no grant is
    /// issued anywhere until the whole force has registered.
    fn start(&self, pid: usize) {
        {
            let mut st = self.state.lock();
            let create = st.costs.process_create;
            let Some(p) = st.procs.get_mut(pid) else {
                return;
            };
            if p.status == VStatus::Absent {
                st.registered += 1;
            }
            let p = &mut st.procs[pid];
            p.status = VStatus::Runnable;
            p.vnow = create.saturating_mul(pid as u64 + 1);
            p.barren_polls = 0;
            if st.running.is_none() && st.schedule_next() {
                self.granted.notify_all();
            }
        }
        self.await_grant(pid);
    }

    /// Block until the scheduler grants `pid` the run token, and nothing
    /// else.  A pid granted it on a tripped plane unwinds with it (the
    /// process layer hands it on) instead of polling on — a lone survivor
    /// would otherwise be re-granted until the scheduler called its wait
    /// a deadlock, a second verdict on a force that has its fault.
    fn await_grant(&self, pid: usize) {
        let mut st = self.state.lock();
        while st.running != Some(pid) {
            self.granted.wait(&mut st);
        }
        drop(st);
        fault::check_cancel();
    }

    /// One decision point: park `pid` (charging a failed-poll cost), run
    /// the virtual deadline and deadlock checks, hand the token to the
    /// scheduler's next pick, and block until `pid` is granted the token
    /// again to re-poll.  A pid that trips the plane here, or finds it
    /// tripped, keeps the token and unwinds with it, as a panicking one
    /// does.
    fn yield_token(&self, pid: usize, fallback: Construct) {
        fault::check_cancel();
        let trip = {
            let mut st = self.state.lock();
            let cost = poll_cost(&st.costs, fallback);
            if let Some(p) = st.procs.get_mut(pid) {
                p.status = VStatus::Polling;
                p.vnow = p.vnow.saturating_add(cost);
                p.barren_polls = p.barren_polls.saturating_add(1);
            }
            let now = st.frontier().unwrap_or(0);
            let mut trip = VTrip::None;
            if let Some(d) = st.deadline_ns {
                if !st.deadline_hit && now >= d {
                    st.deadline_hit = true;
                    trip = VTrip::Deadline(d, now);
                }
            }
            if matches!(trip, VTrip::None) && st.registered == st.expected && st.all_live_barren() {
                trip = VTrip::Deadlock(now, st.live_count());
            }
            if matches!(trip, VTrip::None) && st.running == Some(pid) {
                st.running = None;
                if st.schedule_next() {
                    self.granted.notify_all();
                }
            }
            trip
        };
        match trip {
            VTrip::None => {}
            VTrip::Deadline(d, now) => {
                fault::trip_current(
                    "deadline",
                    format!("virtual deadline of {d}ns exceeded at virtual time {now}ns"),
                );
                fault::check_cancel();
            }
            VTrip::Deadlock(now, live) => {
                fault::count_in_lane(|s| &s.watchdog_trips);
                fault::trip_current(
                    fallback.name(),
                    format!(
                        "virtual scheduler deadlock: every live process parked with no \
                         progress ({live} live, {POLL_BUDGET} failed polls each, virtual \
                         time {now}ns)"
                    ),
                );
                fault::check_cancel();
            }
        }
        self.await_grant(pid);
    }

    /// A poll succeeded: `pid` resumes running (keeping the token) and
    /// is charged the successful operation's cost.
    fn wake_token(&self, pid: usize, fallback: Construct) {
        let mut st = self.state.lock();
        let cost = wake_cost(&st.costs, fallback);
        if let Some(p) = st.procs.get_mut(pid) {
            p.status = VStatus::Runnable;
            p.vnow = p.vnow.saturating_add(cost);
            p.barren_polls = 0;
        }
    }

    /// `pid` is done (cleanly or by unwind).  A clean finish hands the
    /// token on immediately; an unwinding finish keeps it until the
    /// process layer has recorded the fault and calls
    /// [`release_orphan`](Self::release_orphan), so peers observe the
    /// trip at a deterministic point instead of racing it.
    fn finish(&self, pid: usize) {
        let mut st = self.state.lock();
        if let Some(p) = st.procs.get_mut(pid) {
            if p.status == VStatus::Finished {
                return;
            }
            p.status = VStatus::Finished;
        }
        if std::thread::panicking() {
            return;
        }
        if st.running == Some(pid) {
            st.running = None;
        }
        if st.running.is_none() && st.schedule_next() {
            self.granted.notify_all();
        }
    }

    /// Release the token after an unwind, if `pid` still holds it.
    fn release_orphan(&self, pid: usize) {
        let mut st = self.state.lock();
        if st.running == Some(pid) {
            st.running = None;
            if st.schedule_next() {
                self.granted.notify_all();
            }
        }
    }

    fn charge(&self, pid: usize, cycles: u64) {
        let mut st = self.state.lock();
        if let Some(p) = st.procs.get_mut(pid) {
            p.vnow = p.vnow.saturating_add(cycles);
        }
    }

    fn now_of(&self, pid: usize) -> u64 {
        let st = self.state.lock();
        st.procs.get(pid).map(|p| p.vnow).unwrap_or(0)
    }

    fn summary(&self) -> VirtualSummary {
        let st = self.state.lock();
        VirtualSummary {
            seed: self.seed,
            decisions: st.decisions,
            makespan_ns: st
                .procs
                .iter()
                .filter(|p| p.status != VStatus::Absent)
                .map(|p| p.vnow)
                .max()
                .unwrap_or(0),
            digest: st.digest,
        }
    }
}

/// Charge `cycles` of simulated work (1 cycle = 1 virtual ns) to the
/// calling process's virtual clock.  The explicit compute-pricing hook
/// for virtual-time experiments; a no-op outside a force or on a
/// non-virtual backend.
pub fn charge_virtual(cycles: u64) {
    if let (Some(parker), Some(pid)) = (fault::current_parker(), fault::current_pid()) {
        if let Some(v) = parker.virt.as_ref() {
            v.charge(pid, cycles);
        }
    }
}

/// The calling process's virtual clock in nanoseconds, when it runs
/// under [`ParkBackend::Virtual`] (`None` otherwise).  The trace layer
/// stamps events with this so traces of a virtual run are byte-identical
/// across replays of the same seed.
pub fn current_virtual_ns() -> Option<u64> {
    let parker = fault::current_parker()?;
    let pid = fault::current_pid()?;
    parker.virt.as_ref().map(|v| v.now_of(pid))
}

/// One pid's lease on the virtual run token, held for the duration of
/// its process body: registration with the scheduler and the wait for
/// the first grant when taken, the finish when dropped.  Taken by
/// `run_as_process` after the fault context is installed, so the wait
/// for the first grant is cancellable; inert outside a force and on a
/// dedicated thread.  The guard exists before that wait, so a pid that a
/// trip unwinds out of it still finishes with the scheduler.
pub(crate) struct TokenLease(Option<(Arc<Parker>, usize)>);

/// Take the current process's [`TokenLease`] (blocking, cancellable).
pub(crate) fn token_lease() -> TokenLease {
    let lease = TokenLease(fault::current_parker().zip(fault::current_pid()));
    if let Some((parker, pid)) = &lease.0 {
        parker.virtual_start(*pid);
    }
    lease
}

impl Drop for TokenLease {
    fn drop(&mut self) {
        if let Some((parker, pid)) = self.0.take() {
            parker.virtual_finish(pid);
        }
    }
}

/// The [`Backoff`] step at which a process whose lock acquisition failed
/// starts waiting: it does not look at the lock word again for one round
/// of `1 << 4` spins, then doubles on from there.
///
/// A process that releases a lock and takes it again on its next trip
/// (the §4.2 self-scheduled claim, a critical section inside a loop)
/// would otherwise find it taken by a waiter that re-tested the moment
/// it was free, and the lock word and the data it guards would change
/// cores on every trip.  Held off, the waiter lets the holder keep a
/// lock it is still using.  Only lock acquisitions wait this way: a
/// barrier flag, a full/empty data cell or an Askfor queue is waited
/// for by a process that cannot go on without it, and re-polls at once.
const HOLDOFF_STEP: u32 = 4;

/// How often [`bounded_spin`] re-polls before the OS call.
const SPIN_ATTEMPTS: u32 = 64;

/// Poll `ready` up to [`SPIN_ATTEMPTS`] more times without parking; true
/// if it became ready.  The combined lock's spin phase: the first call
/// of `ready` is its acquisition attempt, and a failed one is held off
/// (one back-off round at step 4) before the next.  The polls snooze, so
/// a waiter queued behind its holder on one core hands the core over.
/// Under the virtual backend the spin phase is skipped, so that the
/// decision sequence does not depend on spin timing: a single check.
pub(crate) fn bounded_spin(mut ready: impl FnMut() -> bool) -> bool {
    if ready() {
        return true;
    }
    if fault::current_parker().is_some() {
        return false;
    }
    let backoff = Backoff::starting_at(HOLDOFF_STEP);
    for _ in 0..SPIN_ATTEMPTS {
        backoff.snooze();
        if ready() {
            return true;
        }
    }
    false
}

/// Park the current process until `ready()` returns true, polling.
///
/// The spin-shaped wait primitive: a brief spin phase, then a blocking
/// episode that publishes `fallback` on the wait board, opens a trace
/// park span, counts a park and checks cancellation every retry.  Under
/// the virtual backend there is no spin phase and the episode is a
/// sequence of scheduling decision points (`Parker::virtual_wait`).
/// `ready` may have side effects (CAS attempts, retry counting); it is
/// re-polled every step.
pub fn wait_until(fallback: Construct, mut ready: impl FnMut() -> bool) {
    if ready() {
        return;
    }
    poll_until(fallback, 0, &mut ready);
}

/// [`wait_until`] for a process whose lock acquisition has just failed:
/// on a dedicated thread the first poll of `ready` comes after one
/// back-off round at step 4, not at once, so that a process releasing
/// the lock and taking it again on its next trip finds it free.  The
/// virtual backend skips the holdoff as it skips every spin phase, so
/// this is `wait_until` there and a virtual schedule does not move.
pub(crate) fn lock_wait(fallback: Construct, mut ready: impl FnMut() -> bool) {
    if fault::current_parker().is_some() {
        return wait_until(fallback, ready);
    }
    poll_until(fallback, HOLDOFF_STEP, &mut ready);
}

/// The episode of [`wait_until`] after its first failed poll; the spin
/// phase of a dedicated thread starts at backoff step `first_step`.
fn poll_until(fallback: Construct, first_step: u32, ready: &mut impl FnMut() -> bool) {
    if let Some(p) = fault::current_parker() {
        p.virtual_wait(fallback, ready);
        return;
    }
    let backoff = Backoff::starting_at(first_step);
    while !backoff.is_completed() {
        fault::check_cancel();
        backoff.snooze();
        if ready() {
            return;
        }
    }
    let _park = fault::parked(fallback);
    fault::count_in_lane(|s| &s.parks);
    let backoff = Backoff::new();
    loop {
        fault::check_cancel();
        backoff.snooze();
        if ready() {
            break;
        }
    }
    fault::count_in_lane(|s| &s.park_wakes);
}

/// Park the current process on a condition variable until `ready` (which
/// both tests *and claims* the condition, under the mutex) returns true.
///
/// One untimed loop, in a force or not: take the lock, test the
/// cancellation token (a no-op outside a force), test `ready`, wait.  In
/// a force the episode publishes `fallback` on the wait board with a
/// wake handle — `cond` notified under `lock` — that a trip fires after
/// setting the token, so the token test loses no wake (the `Waiters`
/// argument).  It counts parks, wakes and spurious wakes.  A cancelled
/// waiter passes one `notify_one` on: a wake it took may have
/// been an unlock's meant for another plane's process (a pooled Cray-2
/// lock serves several).  Under the virtual backend each re-check
/// is a scheduling decision point and the condvar is not waited on.
pub fn wait_on<T: Send>(
    lock: &Mutex<T>,
    cond: &Condvar,
    fallback: Construct,
    mut ready: impl FnMut(&mut T) -> bool,
) {
    if ready(&mut lock.lock()) {
        return;
    }
    if let Some(p) = fault::current_parker() {
        p.virtual_wait(fallback, &mut || ready(&mut lock.lock()));
        return;
    }
    let wake = || {
        let _sleeping = lock.lock();
        cond.notify_all();
    };
    fault::parked_on(fallback, &wake, || {
        fault::count_in_lane(|s| &s.parks);
        let mut guard = lock.lock();
        let mut woken = false;
        loop {
            if fault::cancel_pending() {
                cond.notify_one();
                drop(guard);
                fault::cancel_now();
            }
            if ready(&mut guard) {
                break;
            }
            if woken {
                fault::count_in_lane(|s| &s.park_spurious_wakes);
            }
            cond.wait(&mut guard);
            woken = true;
        }
        drop(guard);
        fault::count_in_lane(|s| &s.park_wakes);
    });
}

/// How many processes are inside [`wait_on`] for one condition, kept by
/// the lock that owns it so its release can skip the wake — a `futex`
/// call with std's condvar — when nobody sleeps there.
///
/// The protocol is Dekker's, both sides `SeqCst`: the waiter publishes
/// its registration *before* it tests the condition under the mutex; the
/// releaser makes the condition true *before* it reads the count.  A
/// releaser that reads zero is therefore ordered before the registration
/// and so before the test, which sees the condition true.
#[derive(Default)]
pub(crate) struct Waiters(AtomicU32);

/// One registration; dropping it (a cancellation unwind included)
/// withdraws it.
pub(crate) struct Registered<'a>(&'a Waiters);

impl Waiters {
    pub(crate) fn register(&self) -> Registered<'_> {
        self.0.fetch_add(1, Ordering::SeqCst);
        Registered(self)
    }

    /// Whether a release has anyone to wake.
    pub(crate) fn any(&self) -> bool {
        self.0.load(Ordering::SeqCst) != 0
    }
}

#[cfg(test)]
impl Waiters {
    /// The test both locks that own a `Waiters` run on themselves: a
    /// process cancelled while it waits for `lock` (held, made over
    /// `stats`) must withdraw its registration, or every later release —
    /// a pooled slot outlives the job — pays for a wake nobody hears.
    pub(crate) fn check_cancelled_waiter_deregisters(
        &self,
        lock: &dyn crate::lock::RawLock,
        stats: Arc<crate::stats::OpStats>,
    ) {
        use crate::fault::{FaultPlane, ProcessFault, RunOptions};
        let registered = || self.0.load(Ordering::SeqCst);
        let plane = FaultPlane::new(1, stats, RunOptions::default());
        std::thread::scope(|s| {
            let waiter = s.spawn(|| crate::process::launch_plane(&plane, None, |_| lock.lock()));
            while registered() == 0 {
                std::thread::yield_now();
            }
            plane.trip(
                ProcessFault {
                    pid: 0,
                    construct: "test",
                    payload: "cancel the waiter".into(),
                },
                None,
            );
            assert!(waiter.join().unwrap().is_err());
        });
        assert_eq!(registered(), 0);
        assert!(lock.is_locked(), "the waiter never got the lock");
        // With nobody registered the release takes the quiet path, and
        // the lock works as ever.
        lock.unlock();
        lock.lock();
        lock.unlock();
    }
}

impl Drop for Registered<'_> {
    fn drop(&mut self) {
        self.0 .0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// How long [`spin_then_wait_on`] polls before it parks: about one
/// measured wake-up of a sleeping thread, a tenth of a [`HEARTBEAT`].
/// The benchmark's two-thread condvar ping-pong reads 45 µs per round
/// trip on a quiet 2-vCPU host, and each of the four sleeping-thread
/// hops of an empty served job ≈ 22 µs; a wait known to end sooner than
/// that is cheaper polled than slept, and one that outlasts the window
/// has lost at most one wake to it.
const SPIN_WINDOW: Duration = Duration::from_micros(50);

/// [`wait_on`] for an event that is *already in flight* on another
/// thread — the paper's Flex/32 combined lock, spin then system call,
/// applied to a condvar wait: poll the lock-free `hint` for at most one
/// [`SPIN_WINDOW`], then fall into [`wait_on`], which looks at the
/// cancellation token as ever and where `ready` decides under the mutex
/// (so `hint` may be stale either way).
///
/// The polling phase is skipped under the virtual backend, exactly as
/// [`bounded_spin`]'s is: a virtual run's decision sequence must not
/// depend on how long a spin happened to last.
///
/// One caller, waiting on something running threads are about to do:
/// the pool's join (the pids it waits for were taken by their workers
/// and are executing).  A wait with nothing in flight belongs in
/// [`wait_on`]: polling for it only burns the window.
pub(crate) fn spin_then_wait_on<T: Send>(
    hint: impl Fn() -> bool,
    lock: &Mutex<T>,
    cond: &Condvar,
    fallback: Construct,
    ready: impl FnMut(&mut T) -> bool,
) {
    if fault::current_parker().is_none() {
        let start = Instant::now();
        while !hint() && start.elapsed() < SPIN_WINDOW {
            std::hint::spin_loop();
        }
    }
    wait_on(lock, cond, fallback, ready);
}

/// A plain timed condvar wait, returning `true` on timeout.  For helper
/// threads (watchdog, deadline watcher) that sleep on a stop signal —
/// they are not force processes, so no parking accounting applies; this
/// exists so their timer loops route through the parking layer like
/// every other wait.
pub fn timer_wait<T>(cond: &Condvar, guard: &mut MutexGuard<'_, T>, timeout: Duration) -> bool {
    cond.wait_for(guard, timeout)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn parker(backend: ParkBackend) -> Parker {
        Parker::new(backend, 4, CostModel::fork_spin())
    }

    #[test]
    fn heartbeat_derivations_are_consistent() {
        assert_eq!(
            watchdog_tick(Duration::from_secs(1)),
            Duration::from_millis(250)
        );
        // Tiny bounds floor at two heartbeats, never zero.
        assert_eq!(watchdog_tick(Duration::from_micros(1)), HEARTBEAT * 2);
        assert_eq!(SPIN_WINDOW, HEARTBEAT / 10);
    }

    #[test]
    fn default_nproc_is_positive() {
        assert!(default_nproc() >= 1);
    }

    #[test]
    fn wait_until_returns_once_ready() {
        let hits = AtomicUsize::new(0);
        wait_until(Construct::Lock, || {
            hits.fetch_add(1, Ordering::Relaxed) >= 3
        });
        assert!(hits.load(Ordering::Relaxed) >= 4);
    }

    #[test]
    fn wait_on_sees_a_notification() {
        let lock = Mutex::new(false);
        let cond = Condvar::new();
        std::thread::scope(|s| {
            s.spawn(|| {
                std::thread::sleep(Duration::from_millis(5));
                *lock.lock() = true;
                cond.notify_all();
            });
            wait_on(&lock, &cond, Construct::Lock, |done| *done);
        });
        assert!(*lock.lock());
    }

    #[test]
    fn thread_per_pid_parker_is_not_virtual() {
        let parker = parker(ParkBackend::ThreadPerPid);
        assert!(!parker.is_virtual());
        assert_eq!(parker.virtual_summary(), None);
    }

    #[test]
    fn virtual_parker_identity() {
        let p = parker(ParkBackend::Virtual { seed: 99 });
        assert!(p.is_virtual());
        let s = p.virtual_summary().expect("virtual summary");
        assert_eq!(s.seed, 99);
        assert_eq!(s.decisions, 0);
        assert_eq!(s.makespan_ns, 0, "nothing registered yet");
        assert!(p.arm_virtual_deadline(Duration::from_micros(5)));
        assert!(!parker(ParkBackend::ThreadPerPid).arm_virtual_deadline(Duration::from_micros(5)));
    }

    #[test]
    fn poll_costs_follow_the_machine_table() {
        let cray = CostModel::cray();
        assert_eq!(poll_cost(&cray, Construct::Consume), cray.fullempty_op);
        assert_eq!(
            poll_cost(&cray, Construct::Critical),
            cray.lock_op + cray.contended_lock
        );
        assert_eq!(poll_cost(&cray, Construct::Askfor), cray.lock_op);
        assert_eq!(wake_cost(&cray, Construct::Produce), cray.fullempty_op);
        assert_eq!(wake_cost(&cray, Construct::Barrier), cray.lock_op);
        // Degenerate tables never price an operation at zero (the clock
        // must advance or the scheduler could spin forever).
        let zero = CostModel {
            lock_op: 0,
            contended_lock: 0,
            syscall: 0,
            process_create: 0,
            fullempty_op: 0,
            shared_access: 0,
        };
        assert_eq!(poll_cost(&zero, Construct::Lock), 1);
        assert_eq!(wake_cost(&zero, Construct::Consume), 1);
    }

    #[test]
    fn virtual_schedule_is_a_pure_function_of_the_seed() {
        // Drive the scheduler directly (no threads): register four pids,
        // then replay a fixed yield/wake script and compare digests.
        let run = |seed: u64| {
            let v = VirtualParker::new(seed, 4, CostModel::hep());
            {
                let mut st = v.state.lock();
                for pid in 0..4 {
                    st.procs[pid].status = VStatus::Runnable;
                    st.procs[pid].vnow = 0;
                }
                st.registered = 4;
                for _ in 0..64 {
                    let granted = st.schedule_next();
                    assert!(granted);
                    let pid = st.running.take().expect("granted");
                    st.procs[pid].vnow += 10;
                }
            }
            v.summary()
        };
        let a = run(7);
        let b = run(7);
        let c = run(8);
        assert_eq!(a, b, "same seed, same schedule");
        assert_ne!(a.digest, c.digest, "different seeds diverge");
        assert_eq!(a.decisions, 64);
    }
}
