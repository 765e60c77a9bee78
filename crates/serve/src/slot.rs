//! The run slot: what running a job on a shard takes.  Whoever holds it
//! — the shard's dispatcher, or a job's own waiter that found its job at
//! the head of an idle shard — runs the shard's one job, and gives it
//! back through [`HeldSlot`], which wakes the dispatcher when work waits.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use force_machdep::{fault, park, Construct, LazyPool, XorShift64};

use crate::dispatch::{QueuedJob, ServeState};
use crate::{Inner, JobOutcome, JobShared};

/// What running a job on a shard takes.  Whichever thread holds it — the
/// shard's dispatcher, or a job's own waiter — runs the shard's one job.
pub(crate) struct RunSlot {
    /// The retry jitter stream, deterministic per seed and shard.
    pub(crate) rng: XorShift64,
    /// The shard's resident force (crate docs, "The shard's force").
    pub(crate) force: Arc<LazyPool>,
}

/// A run slot a waiter took from shard `home` in [`Inner::claim`].
/// Dropped — once the job's outcome is published, or while a panic
/// outside the runner unwinds — it goes back to the shard and wakes the
/// shard's sleeping dispatcher if anything is queued (on any shard: the
/// dispatcher pulls) or the drain is on; an awake one looks at the queues
/// before it sleeps.  So neither a queued job nor `shutdown`, which waits
/// for the slot, waits for a waiter that is gone.
pub(crate) struct HeldSlot<'a> {
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

impl Inner {
    /// Help first: job `shared` and `home`'s run slot, if the slot is free
    /// and the job is what the shard would dequeue next, after its shed
    /// sweep.  Otherwise the dispatcher runs the job: nothing the claim
    /// leaves queued was queued without a wake for it (crate docs, "Who
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
}

/// Waits for (and reads) one admitted job's outcome.
pub struct JobHandle {
    pub(crate) shared: Arc<JobShared>,
    pub(crate) inner: Arc<Inner>,
    pub(crate) home: usize,
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
    /// (crate docs, "Who runs a job"), so a closed-loop client pays no
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

#[cfg(test)]
mod tests {
    use std::sync::atomic::AtomicBool;
    use std::thread;
    use std::time::{Duration, Instant};

    use force_machdep::{launch_plane, FaultPlane, Mutex, OpStats, RunOptions};

    use super::*;
    use crate::testkit::*;
    use crate::{ForceServer, JobError, JobRunner, JobSpec, JobYield, Priority, ServerConfig};

    #[test]
    fn a_loan_lasts_one_attempt_and_one_binding() {
        // The runner binds a plane, then another: the first gives the
        // shard's force back at once, the second while it is bound may
        // launch on it, and neither holds it once the attempt is over.
        // A launch on a lent force creates no process; a plane with no
        // loan (and no pool) launches scoped, creating its one.
        let (srv, stats) = server();
        let plane = |nproc| FaultPlane::new(nproc, Arc::clone(&stats), RunOptions::default());
        let (first, second) = (plane(1), plane(1));
        let created = |plane: &Arc<FaultPlane>| {
            let before = plane.stats().snapshot().processes_created;
            launch_plane(plane, None, |_| ()).expect("a clean launch");
            plane.stats().snapshot().processes_created - before
        };
        let (a, b) = (Arc::clone(&first), Arc::clone(&second));
        let runner: JobRunner = Box::new(move |cx| {
            cx.bind_plane(&a);
            assert_eq!(created(&a), 0, "the bound plane runs on the loan");
            cx.bind_plane(&b);
            assert_eq!(created(&a), 1, "one loan per attempt");
            cx.bind_plane(&b);
            assert_eq!(created(&b), 0, "rebinding the same plane keeps it");
            Ok(JobYield::default())
        });
        let job = srv.submit(JobSpec::for_tenant("t"), runner);
        assert_eq!(
            job.expect_admitted().wait(),
            JobOutcome::Completed { retries: 0 }
        );
        assert_eq!(
            created(&first) + created(&second),
            2,
            "a loan outlived its attempt"
        );
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
            launch_plane(&plane, None, |_| ())
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
}
