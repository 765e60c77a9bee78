//! The front ends' runners: a native force program or a loaded `.force`
//! program packaged as a [`JobRunner`], one attempt per call.

use std::sync::Arc;

use force_core::{Force, Player};
use force_fortran::{Engine, RunOutput};
use force_machdep::RunOptions;

use crate::{JobError, JobRunner, JobYield};

/// Package a native force program as a [`JobRunner`] for a
/// [`ForceServer`](crate::ForceServer): each attempt binds `force`'s
/// fault plane to the job ([`JobCx::bind_attempt`](crate::JobCx::bind_attempt),
/// which also re-rolls fault injection per retry), runs `body` via
/// `Force::try_execute_with`, and reports the run's trace profile (if
/// any) back to the server's per-tenant rollup.  Per-process results are
/// discarded — a served job returns data by writing through what `body`
/// captures.
pub fn force_runner<F>(force: &Arc<Force>, options: RunOptions, body: F) -> JobRunner
where
    F: Fn(&Player) + Send + Sync + 'static,
{
    let force = Arc::clone(force);
    Box::new(move |cx| {
        let options = cx.bind_attempt(force.fault_plane(), options);
        match force.try_execute_with(options, |p| body(p)) {
            Ok(_) => Ok(JobYield {
                profile: force.last_job_profile(),
            }),
            Err(fault) => Err(JobError::Fault(fault)),
        }
    })
}

/// Package `engine`'s program as a [`JobRunner`] for a
/// [`ForceServer`](crate::ForceServer), run by `nproc` processes: each
/// attempt binds the session's fault plane
/// ([`JobCx::bind_attempt`](crate::JobCx::bind_attempt), which also
/// re-rolls fault injection per retry), executes via `Engine::run_with`,
/// and maps an error onto the server's retry taxonomy with
/// [`JobError::classify`]: one carrying the injection marker is
/// transient, every genuine `FortError` (type errors, overflow, runtime
/// faults) deterministic and never retried.
///
/// `on_output` observes each successful run's [`RunOutput`] (prints,
/// shared values, stats); pass a closure capturing a slot, or `|_| ()`
/// to discard.
pub fn engine_runner<F>(
    engine: &Arc<Engine>,
    nproc: usize,
    options: RunOptions,
    mut on_output: F,
) -> JobRunner
where
    F: FnMut(RunOutput) + Send + 'static,
{
    let engine = Arc::clone(engine);
    Box::new(move |cx| {
        let options = cx.bind_attempt(&engine.fault_plane(nproc), options);
        match engine.run_with(nproc, options) {
            Ok(output) => {
                let profile = output.profile.clone();
                on_output(output);
                Ok(JobYield { profile })
            }
            Err(e) => Err(JobError::classify("interpreter", e.to_string())),
        }
    })
}
