//! The resident session: the driver's create/run/`Join` cycle kept alive
//! between jobs, written once beneath both front ends.
//!
//! The paper writes the driver once, as a machine-dependent macro beneath
//! every machine-independent statement.  A [`Session`] is that driver
//! made resident.  `force_core::Force` and `force_fortran::Engine` each own
//! one and keep only what they alone know (players and construct state;
//! the VM, the COMMON region and the lock tables).  [`Session::run`] runs
//! one job in one order: take the run lock, reset the plane once, run the
//! front end's reset, bind the plane as the driver's ambient stats, run
//! the job, and record the plane's stats delta — `None` after a fault.
//!
//! What the driver does — create locks, designate `Shared` memory — is
//! the job's: a session keeps no counters of its own, so a job's
//! operations are counted in its plane's block and the machine's, and
//! every reader of a job's counts reads the plane's.

use std::sync::Arc;

use crate::fault::{bind_ambient_stats, FaultPlane, ProcessFault, RunOptions};
use crate::machine::Machine;
use crate::park::VirtualSummary;
use crate::pool::ForcePool;
use crate::portable::Mutex;
use crate::process::launch_plane;
use crate::stats::StatsSnapshot;
use crate::trace::ProfileReport;

/// A machine's resident session: its attached pool and fault plane, and
/// the record of its last run.  It counts nothing itself: its jobs
/// charge the plane, whose block rolls up into the machine's.  Runs on
/// one session serialize; every accessor is `&self`.
pub struct Session {
    machine: Arc<Machine>,
    /// Resident workers handed to [`launch_plane`] with every job.
    pool: Mutex<Option<Arc<ForcePool>>>,
    /// The resident plane, kept while runs keep its width.
    plane: Mutex<Option<Arc<FaultPlane>>>,
    /// The run lock, guarding the last run's stats delta: `None` before
    /// the first run and after a faulted one.
    last: Mutex<Option<StatsSnapshot>>,
}

/// One running job of a [`Session`], as its front end sees it.
pub struct SessionRun {
    plane: Arc<FaultPlane>,
    pool: Option<Arc<ForcePool>>,
    before: StatsSnapshot,
}

impl SessionRun {
    /// The plane the job runs on, reset for it.
    pub fn plane(&self) -> &Arc<FaultPlane> {
        &self.plane
    }

    /// Create the force and `Join` it: [`launch_plane`] on the job's plane
    /// with the session's pool.
    pub fn launch<R: Send>(
        &self,
        body: impl Fn(usize) -> R + Sync,
    ) -> Result<Vec<R>, ProcessFault> {
        launch_plane(&self.plane, self.pool.as_deref(), body)
    }

    /// The job's operation counts so far: its plane's delta since the
    /// run began, the driver's charges included.
    pub fn stats(&self) -> StatsSnapshot {
        self.plane.stats().snapshot().since(&self.before)
    }
}

impl Session {
    /// A session on `machine`, whose planes count into its counters.
    pub fn new(machine: Arc<Machine>) -> Session {
        Session {
            machine,
            pool: Mutex::default(),
            plane: Mutex::default(),
            last: Mutex::default(),
        }
    }

    /// The machine the session runs on.
    pub fn machine(&self) -> &Arc<Machine> {
        &self.machine
    }

    /// Attach a resident [`ForcePool`] ([`launch_plane`] decides per run
    /// whether a job fits it).
    pub fn attach_pool(&self, pool: Arc<ForcePool>) {
        *self.pool.lock() = Some(pool);
    }

    /// The resident plane for a force of `nproc` processes, created (or
    /// replaced, when the width changed) if needed.  A server binds it to
    /// a job (`force_serve::JobCx::bind_plane`)
    /// before the run that resets it.
    ///
    /// # Panics
    /// Panics if `nproc` is zero.
    pub fn fault_plane(&self, nproc: usize) -> Arc<FaultPlane> {
        assert!(nproc > 0, "a force needs at least one process");
        let mut slot = self.plane.lock();
        let plane = slot
            .take()
            .filter(|p| p.nproc() == nproc)
            .unwrap_or_else(|| {
                let costs = self.machine.spec().costs;
                let stats = self.machine.stats_handle().child();
                FaultPlane::with_handle(nproc, stats, costs, RunOptions::default())
            });
        *slot = Some(Arc::clone(&plane));
        plane
    }

    /// Run one job of `nproc` processes under `options`: take the run
    /// lock, reset the plane, run the front end's `reset`, bind the
    /// plane's stats as the thread's ambient target, run `job`, and
    /// record the plane's delta (`None` when it fails).
    pub fn run<T, E>(
        &self,
        nproc: usize,
        options: RunOptions,
        reset: impl FnOnce(),
        job: impl FnOnce(&SessionRun) -> Result<T, E>,
    ) -> Result<T, E> {
        let mut last = self.last.lock();
        let plane = self.fault_plane(nproc);
        plane.reset_for_job(options);
        reset();
        let _ambient = bind_ambient_stats(plane.stats_handle().clone());
        let run = SessionRun {
            before: plane.stats().snapshot(),
            plane,
            pool: self.pool.lock().clone(),
        };
        let result = job(&run);
        // A faulted run leaves no results: its delta covers whatever
        // landed before the teardown, and keeping the previous job's
        // would hand a caller another job's numbers.
        *last = result.is_ok().then(|| run.stats());
        result
    }

    /// Operation counts of the last run: the per-job delta, `None` before
    /// the first run and after one that faulted.
    pub fn last_job_stats(&self) -> Option<StatsSnapshot> {
        *self.last.lock()
    }

    /// Construct-level profile of the last run, summarized from the
    /// resident sink now; `None` when it did not trace or faulted.  Takes
    /// the run lock: call it between runs.
    pub fn last_job_profile(&self) -> Option<ProfileReport> {
        let last = self.last.lock();
        last.as_ref()?;
        self.plane.lock().as_ref()?.profile_report()
    }

    /// The last run's virtual schedule — its replay key — `None` unless it
    /// ran under [`ParkBackend::Virtual`](crate::park::ParkBackend).  Kept
    /// after a faulted run: a fault replays too.
    pub fn last_virtual_summary(&self) -> Option<VirtualSummary> {
        let _run = self.last.lock();
        self.plane.lock().as_ref()?.virtual_summary()
    }
}
