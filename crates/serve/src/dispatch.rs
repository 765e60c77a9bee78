//! Shard queues and the dispatch loop: per-priority FIFOs, the shed
//! sweep that holds a shard at its watermark, work pulling between
//! shards, and the attempt loop (deadline shadow, retry with jittered
//! backoff) that whoever holds a shard's run slot runs a job through.

use std::collections::{HashMap, VecDeque};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread;
use std::time::Instant;

use force_machdep::process::StopGuard;
use force_machdep::{park, Backoff, Construct, StatsSnapshot};

use crate::deadline::watch_deadline;
use crate::slot::RunSlot;
use crate::{
    Inner, JobCx, JobError, JobOutcome, JobRunner, JobShared, JobYield, Priority,
    DEADLINE_CONSTRUCT,
};

/// One queued job awaiting dispatch.  Of its [`JobSpec`](crate::JobSpec)
/// the tenant name and the deadline live (once) in `shared`, and the
/// priority is the queue it sits in.
pub(crate) struct QueuedJob {
    pub(crate) shared: Arc<JobShared>,
    pub(crate) runner: JobRunner,
    pub(crate) max_retries: u32,
    pub(crate) submitted: Instant,
}

/// One shard's queue state, guarded by the shard's mutex.
pub(crate) struct ServeState {
    /// One FIFO per priority class, indexed by `Priority::index`.
    pub(crate) queues: [VecDeque<QueuedJob>; Priority::CLASSES],
    pub(crate) per_tenant_depth: HashMap<String, usize>,
    pub(crate) backlog: usize,
    pub(crate) peak_backlog: usize,
    pub(crate) shutting_down: bool,
    /// This shard's dispatcher is asleep with nobody on the way to wake
    /// it.  Set by the dispatcher, under this lock, as its last act
    /// before it sleeps; taken by whoever notifies it.
    pub(crate) idle: bool,
    /// The run slot, while no job runs on this shard.  Gone for good once
    /// the drained dispatcher has left with it.
    pub(crate) run: Option<RunSlot>,
}

impl ServeState {
    /// The job [`Inner::pop_job`] would take.
    pub(crate) fn head(&self) -> Option<&QueuedJob> {
        self.queues.iter().find_map(VecDeque::front)
    }
}

impl Inner {
    /// Shed `st`'s overflow above the per-shard watermark into `sink`
    /// (newest `Low` first, then newest `Normal`), tagged with `shard`
    /// so the completion lands in that shard's rollups.  Caller holds
    /// `shard`'s state lock.
    pub(crate) fn sweep_overflow(
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
    pub(crate) fn pop_job(&self, st: &mut ServeState) -> Option<QueuedJob> {
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
    pub(crate) fn wake_an_idle_sibling(&self, home: usize) {
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

    /// Publish the outcome of jobs a sweep shed.  Never called with a
    /// shard state lock held.
    pub(crate) fn complete_shed(&self, shed: Vec<(usize, QueuedJob)>) {
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
    pub(crate) fn run_job(&self, me: usize, mut job: QueuedJob, slot: &mut RunSlot) {
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
pub(crate) fn dispatch_loop(inner: Arc<Inner>, me: usize) {
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
    use std::sync::atomic::{AtomicBool, AtomicUsize};
    use std::time::Duration;

    use force_machdep::fault::INJECTED_FAULT_MARKER;
    use force_machdep::{Mutex, ProcessFault};

    use super::*;
    use crate::testkit::*;
    use crate::{ForceServer, JobHandle, JobSpec, RejectReason, ServerConfig, Submit};

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
        assert_eq!(srv.server_report().shed, 4);
        assert!(srv.peak_backlog() >= 8);
    }

    #[test]
    fn transient_faults_retry_and_recover() {
        let (srv, _) = server();
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
        assert_eq!(srv.tenant_report("t").unwrap().retries, 2);
    }

    #[test]
    fn transient_retry_budget_exhausts() {
        let (srv, _) = server();
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
        assert_eq!(srv.tenant_report("t").unwrap().retries, 3);
    }

    #[test]
    fn deterministic_errors_never_retry() {
        let (srv, _) = server();
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
        assert_eq!(srv.tenant_report("t").unwrap().retries, 0);
        // A genuine (non-injected) process fault is deterministic too.
        let real_panic = JobError::Fault(ProcessFault {
            pid: 0,
            construct: "critical",
            payload: "index out of bounds".into(),
        });
        assert!(!real_panic.is_transient());
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
        assert_eq!(srv.server_report().shed, 8);
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
}
