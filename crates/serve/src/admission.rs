//! Admission: the token buckets of per-tenant rate limiting, then the
//! per-tenant queue bound, decided in one critical section with the
//! queueing itself.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use force_machdep::{Condvar, Mutex};

use crate::dispatch::QueuedJob;
use crate::{entry_by_name, ForceServer, Inner, JobHandle, JobRunner, JobShared, JobSpec};

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
///
/// [`ServerConfig::rate_limit`]: crate::ServerConfig::rate_limit
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RateLimit {
    /// Bucket capacity: how far a tenant may burst above the sustained
    /// rate.  A fresh tenant starts with a full bucket.
    pub burst: u32,
    /// Sustained refill rate in submissions per second.
    pub refill_per_sec: u32,
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

/// One tenant's token bucket.  Tokens are held in micro-tokens so the
/// continuous refill needs no floating point: `refill_per_sec` tokens
/// per second is exactly `refill_per_sec` micro-tokens per microsecond.
pub(crate) struct TokenBucket {
    micro_tokens: u64,
    last_refill: Instant,
}

/// One whole token (in micro-tokens): the price of one submission.
const ONE_TOKEN: u64 = 1_000_000;

impl Inner {
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
}

impl ForceServer {
    /// Submit one job.  Returns immediately with the admission verdict;
    /// an admitted job's outcome is observed through the handle.
    pub fn submit(&self, spec: JobSpec, runner: JobRunner) -> Submit {
        let inner = &self.inner;
        // Rate limit first: a rate-limited submission must not consume
        // queue capacity, and the bucket must drain even while the
        // tenant's queue has room.
        if let Some(limit) = inner.config.rate_limit {
            if !inner.take_token(&spec.tenant, &limit) {
                inner.bump_rollup(&spec.tenant, |r| r.rate_limited += 1);
                return Submit::Rejected {
                    reason: RejectReason::RateLimited {
                        tenant: spec.tenant,
                    },
                };
            }
        }
        let submitted = Instant::now();
        let shared = Arc::new(JobShared {
            id: inner.next_id.fetch_add(1, Ordering::Relaxed),
            tenant: spec.tenant,
            deadline_fired: AtomicBool::new(false),
            // A deadline past what an `Instant` can hold is no deadline.
            deadline_at: spec.deadline.and_then(|d| submitted.checked_add(d)),
            plane: Mutex::new(None),
            outcome: Mutex::new(None),
            done: Condvar::new(),
        });
        let job = QueuedJob {
            shared: Arc::clone(&shared),
            runner,
            max_retries: spec.max_retries,
            submitted,
        };
        // Admission and queueing are one critical section: a shutdown lands
        // before it and refuses the job, or after, and the drain finds it.
        let admitted = {
            let mut guard = inner.state.lock();
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
                    st.queues[spec.priority.index()].push_back(job);
                    // A dispatcher asleep while a waiter holds the slot is
                    // woken when the waiter gives the slot back.
                    Ok(st.run.is_some() && std::mem::take(&mut st.idle))
                }
            }
        };
        let idle = match admitted {
            Ok(idle) => idle,
            Err(reason) => {
                inner.bump_rollup(&shared.tenant, |r| r.rejected += 1);
                return Submit::Rejected { reason };
            }
        };
        inner.bump_rollup(&shared.tenant, |r| r.admitted += 1);
        if idle {
            inner.work.notify_all();
        }
        Submit::Admitted(JobHandle {
            shared,
            inner: Arc::clone(inner),
        })
    }
}

#[cfg(test)]
mod tests {
    use std::thread;
    use std::time::Duration;

    use super::*;
    use crate::testkit::*;
    use crate::{JobOutcome, ServerConfig};

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
        assert_eq!(srv.server_report().rejected, 1);
        assert_eq!(srv.tenant_report("a").unwrap().rejected, 1);
        assert_eq!(srv.tenant_report("b").unwrap().rejected, 0);
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
        let t = srv.tenant_report("t").unwrap();
        assert_eq!(t.rate_limited, 1);
        assert_eq!(t.rejected, 0);
        assert_eq!(t.admitted, 2);
        let report = srv.server_report();
        assert_eq!(report.rate_limited, 1);
        assert_eq!(report.rejected, 0, "rate limiting is not backpressure");
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
        assert_eq!(srv.tenant_report("t").unwrap().rate_limited, 1);
    }

    #[test]
    fn a_deadline_no_instant_can_hold_is_no_deadline() {
        // `Instant::now() + Duration::MAX` overflows: the submission must
        // neither panic nor arm a watcher, and the job runs as if it had
        // no deadline at all.
        let (srv, _) = server();
        let job = srv
            .submit(
                JobSpec::for_tenant("t").with_deadline(Duration::MAX),
                ok_runner(),
            )
            .expect_admitted();
        assert_eq!(job.wait(), JobOutcome::Completed { retries: 0 });
        srv.shutdown();
        let t = srv.tenant_report("t").unwrap();
        assert_eq!((t.admitted, t.completed, t.deadline_exceeded), (1, 1, 0));
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
