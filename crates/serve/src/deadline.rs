//! The deadline watcher: a helper thread that shadows one running
//! attempt and, once the job's deadline passes, marks the job and trips
//! the plane the attempt bound.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use force_machdep::process::StopSignal;
use force_machdep::ProcessFault;

use crate::JobShared;

/// Construct name attributed to deadline trips (shows up in
/// `ProcessFault::construct` for deadline-killed jobs).
pub const DEADLINE_CONSTRUCT: &str = "deadline";

/// The fault a deadline trip records on the plane of job `id`.
pub(crate) fn deadline_fault(id: u64) -> ProcessFault {
    ProcessFault {
        pid: 0,
        construct: DEADLINE_CONSTRUCT,
        payload: format!("job {id} deadline exceeded"),
    }
}

/// A deadline watcher shadowing one running attempt, run on a
/// [`StopGuard`](force_machdep::process::StopGuard) thread: once the
/// deadline passes it marks the job and trips the plane the attempt
/// bound, and is done.  The plane holds that trip through the reset its
/// session starts the run with
/// ([`FaultPlane::trip_deadline`](force_machdep::FaultPlane::trip_deadline));
/// an attempt that has bound nothing yet trips its plane itself, in
/// [`JobCx::bind_plane`](crate::JobCx::bind_plane).
pub(crate) fn watch_deadline(shared: &JobShared, at: Instant, stop: &StopSignal) {
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

#[cfg(test)]
mod tests {
    use std::sync::atomic::AtomicBool;
    use std::thread;
    use std::time::Duration;

    use force_machdep::{FaultPlane, OpStats};

    use crate::testkit::*;
    use crate::{ForceServer, JobError, JobOutcome, JobSpec, JobYield, ServerConfig};

    use super::*;

    #[test]
    fn queued_deadline_expires_without_running() {
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
        assert_eq!(srv.tenant_report("t").unwrap().deadline_exceeded, 1);
    }

    #[test]
    fn running_deadline_fires_and_dominates() {
        let (srv, _) = server();
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
        assert_eq!(srv.tenant_report("t").unwrap().deadline_exceeded, 1);
    }

    #[test]
    fn deadline_trips_a_bound_fault_plane_through_resets() {
        // The watcher must keep re-asserting the trip: binding a plane
        // and resetting it after the deadline fires (as a session's
        // run-start reset would) still ends with the plane tripped.
        let stats = Arc::new(OpStats::new());
        let plane = FaultPlane::new(2, Arc::clone(&stats), force_machdep::RunOptions::default());
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
                    plane2.reset_for_job(force_machdep::RunOptions::default());
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
                    let config = force_machdep::RunOptions {
                        backend: force_machdep::ParkBackend::Virtual { seed: 42 },
                        ..Default::default()
                    };
                    let plane = FaultPlane::new(2, Arc::clone(&plane_stats), config);
                    // Binding records the deadline; the run's reset arms
                    // the budget left on the virtual clock.
                    cx.bind_plane(&plane);
                    plane.reset_for_job(config);
                    force_machdep::spawn_force_plane(&plane, |_pid| {
                        // Model far more work than the 5ms budget
                        // (= 5_000_000 virtual ns) allows, then wait:
                        // the deadline is checked at the next
                        // scheduling decision point.
                        force_machdep::charge_virtual(100_000_000);
                        force_machdep::park::wait_until(force_machdep::Construct::Barrier, || {
                            false
                        });
                    })
                    .map(|_| JobYield::default())
                    .map_err(JobError::Fault)
                }),
            )
            .expect_admitted();
        assert_eq!(h.wait(), JobOutcome::DeadlineExceeded { ran: true });
        assert_eq!(srv.tenant_report("t").unwrap().deadline_exceeded, 1);
        srv.shutdown();
    }
}
