//! Rollups and reports: the per-tenant rows, written by the jobs the
//! server admitted, ran or shed.  They are the one account of its
//! decisions.

use std::sync::Arc;
use std::time::Instant;

use force_machdep::{HistogramSnapshot, ProfileReport, StatsSnapshot};

use crate::{entry_by_name, ForceServer, Inner, JobOutcome, JobShared};

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
    /// Machine operations consumed by this tenant's attempts: each
    /// attempt's delta of the plane it bound, merged.  The plane is the
    /// one block a job's operations land in, its driver's included (lock
    /// creation, the `Shared` designation), so a `.force` job's share
    /// here equals its `RunOutput::stats`.
    pub ops: StatsSnapshot,
    /// Submit→terminal latency of every job (nanoseconds), including
    /// queueing, retries, and backoff sleeps.
    pub latency: HistogramSnapshot,
    /// Jobs that ran with tracing enabled.
    pub traced_jobs: u64,
    /// The most recent traced job's profile.
    pub profile: Option<ProfileReport>,
}

/// Whole-server aggregate: the per-tenant rollups, and their sums, plus
/// queue-depth telemetry.
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
    /// Highest backlog ever observed.  Under overload it stays near
    /// `shed_watermark` plus the admission burst absorbed between
    /// dispatcher wake-ups.
    pub peak_backlog: usize,
    /// Per-tenant rollups, sorted by tenant name.
    pub tenants: Vec<(String, TenantRollup)>,
}

impl Inner {
    /// Record a terminal outcome into the tenant's row — the server's
    /// only account of it — and wake the waiter.  Never called with the
    /// state lock held.
    pub(crate) fn complete(
        &self,
        shared: Arc<JobShared>,
        outcome: JobOutcome,
        submitted: Instant,
        ops: StatsSnapshot,
        profile: Option<ProfileReport>,
    ) {
        let elapsed = submitted.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        {
            let mut rollups = self.rollups.lock();
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
                JobOutcome::DeadlineExceeded { .. } => r.deadline_exceeded += 1,
                JobOutcome::Shed => r.shed += 1,
            }
        }
        *shared.outcome.lock() = Some(outcome);
        shared.done.notify_all();
    }

    /// Count one admission decision in `tenant`'s row.
    pub(crate) fn bump_rollup(&self, tenant: &str, f: impl FnOnce(&mut TenantRollup)) {
        let mut rollups = self.rollups.lock();
        f(entry_by_name(&mut rollups, tenant, TenantRollup::default));
    }
}

impl ForceServer {
    /// Highest backlog ever observed.
    pub fn peak_backlog(&self) -> usize {
        self.inner.state.lock().peak_backlog
    }

    /// Snapshot one tenant's rollup, if the tenant has ever been seen.
    pub fn tenant_report(&self, tenant: &str) -> Option<TenantRollup> {
        self.inner.rollups.lock().get(tenant).cloned()
    }

    /// Snapshot the whole server: the tenant rollups and their sums, plus
    /// the backlog's peak.
    pub fn server_report(&self) -> ServerReport {
        let mut report = ServerReport::default();
        let mut tenants: Vec<(String, TenantRollup)> = self
            .inner
            .rollups
            .lock()
            .iter()
            .map(|(tenant, r)| (tenant.clone(), r.clone()))
            .collect();
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
        report
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::thread;
    use std::time::Duration;

    use force_machdep::{spawn_force_plane, FaultPlane, OpStats, RunOptions, StatsHandle};

    use super::*;
    use crate::testkit::*;
    use crate::{JobError, JobHandle, JobRunner, JobSpec, JobYield, ServerConfig};

    #[test]
    fn jobs_complete_and_are_counted() {
        let (srv, _) = server();
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
        let r = srv.tenant_report("t").expect("tenant seen");
        assert_eq!(r.admitted, 10);
        assert_eq!(r.completed, 10);
        assert_eq!(r.latency.count(), 10);
        assert_eq!(r.retries, 0);
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

    #[test]
    fn concurrent_jobs_report_disjoint_plane_ops() {
        // Two servers share one machine's counters, and a job on each
        // runs at the same time (a rendezvous proves the overlap); each
        // binds its own fault plane and runs a different number of
        // processes, each of which charges one lock acquisition.  The
        // rollups must show exactly each job's own plane delta — under
        // the old machine-wide before/after snapshot the concurrent job's
        // charges would bleed in.  (Not `processes_created`: a job the
        // server's force hosts creates none.)
        let stats = Arc::new(OpStats::new());
        let servers = [
            ForceServer::new(ServerConfig::default(), &stats),
            ForceServer::new(ServerConfig::default(), &stats),
        ];
        let rendezvous = Arc::new(AtomicUsize::new(0));
        let submit = |srv: &ForceServer, nproc: usize| {
            let meet = Arc::clone(&rendezvous);
            let stats = Arc::clone(&stats);
            let runner: JobRunner = Box::new(move |cx| {
                let plane = FaultPlane::new(nproc, Arc::clone(&stats), RunOptions::default());
                cx.bind_plane(&plane);
                meet.fetch_add(1, Ordering::SeqCst);
                let mut spins = 0u64;
                while meet.load(Ordering::SeqCst) < 2 {
                    spins += 1;
                    assert!(spins < 500_000, "peer job never started");
                    thread::sleep(Duration::from_micros(10));
                }
                // Charged to the running process's plane.
                let machine = StatsHandle::root(Arc::clone(&stats));
                let charge_one = |_pid| machine.count(|s| &s.lock_acquires);
                spawn_force_plane(&plane, charge_one)
                    .map(|_: Vec<()>| JobYield::default())
                    .map_err(JobError::Fault)
            });
            srv.submit(JobSpec::for_tenant("t"), runner)
                .expect_admitted()
        };
        let a = submit(&servers[0], 2);
        let b = submit(&servers[1], 4);
        assert!(a.wait().is_success());
        assert!(b.wait().is_success());
        for (srv, nproc) in servers.iter().zip([2, 4]) {
            srv.shutdown();
            let r = srv.tenant_report("t").unwrap();
            assert_eq!(
                r.ops.lock_acquires, nproc,
                "a {nproc}-process job absorbed a bleed"
            );
        }
        // The machine-wide view still sees everything: per-plane locals
        // roll up into the machine block they chain from.
        assert_eq!(stats.snapshot().lock_acquires, 6);
    }
}
