//! DOALL work distribution — §3.3 / §4.2.
//!
//! "Segments of code that can be executed concurrently, in any order, can
//! be distributed.  In case of singly (doubly) nested loops, the loop
//! indices (index pairs) specify concurrently executable sequential
//! streams of code, which are split up in an unspecified way for
//! concurrent execution (DOALL loops)."
//!
//! The paper's two flavours:
//!
//! * **prescheduled** (`Presched DO`) — "completely machine independent,
//!   since only the number of executing processes is needed to distribute
//!   the index values among processes": process `p` takes trips
//!   `p, p+nproc, p+2·nproc, …` (cyclic) or a contiguous block.
//! * **selfscheduled** (`Selfsched DO`) — "requires a shared variable as
//!   the loop index which must be updated by processes looking for more
//!   work": trips are claimed dynamically, one (or a chunk) at a time.
//!
//! Both are instances of a [`SchedulePolicy`], executed by one internal
//! driver (`dispatch_trips`) over the linearized trip space `0..n`; the
//! guided (tapering-chunk) and work-stealing policies are extensions on
//! the same driver.  The named methods (`presched_do`,
//! `selfsched_do`, …) are thin wrappers fixing the policy; the `doall*`
//! methods take an explicit policy or inherit the run's default.
//!
//! Every DOALL ends with the barrier exit protocol of the §4.2 expansion,
//! so the loop is complete (and re-enterable) when any process passes
//! `End … DO`.  The native selfscheduled implementation claims trip
//! numbers with one atomic fetch-add rather than the expansion's
//! lock/read/increment/unlock sequence — observationally identical (each
//! trip claimed exactly once, in increment order) and tested as such; the
//! interpreter path (`force-fortran`) executes the paper's literal
//! lock-based idiom.

use std::sync::atomic::{AtomicU64, Ordering};

use force_machdep::fault;
use force_machdep::trace::{self, EventKind};
use force_machdep::{Construct, WorkQueues};

use crate::player::Player;
use crate::schedule::{ForceRange, SchedulePolicy};

/// Shared state of one selfscheduled or guided loop occurrence: the next
/// unclaimed trip number (the `K_shared` cell plus `LOOP100` lock, fused
/// into one atomic).
struct SelfSchedState {
    next: AtomicU64,
}

/// Distribute the linearized trip space `0..n` over the force according
/// to `policy`, invoking `body` once per claimed trip.  Returns the
/// number of trips this process executed.
///
/// Pure distribution: construct entry, fault injection, trip tracing,
/// and the end barrier belong to the callers (the DOALL wrappers here
/// and the selfscheduled Pcase), which is what lets every scheduling
/// construct share one driver without double-counting its own construct.
pub(crate) fn dispatch_trips(
    player: &Player,
    policy: SchedulePolicy,
    n: u64,
    body: &mut dyn FnMut(u64),
) -> u64 {
    match policy {
        SchedulePolicy::Cyclic => {
            let mut executed = 0u64;
            let mut trip = player.pid() as u64;
            while trip < n {
                body(trip);
                executed += 1;
                trip += player.nproc() as u64;
            }
            executed
        }
        SchedulePolicy::Block => {
            let (lo, hi) = block_share(n, player.pid() as u64, player.nproc() as u64);
            for trip in lo..hi {
                body(trip);
            }
            hi - lo
        }
        SchedulePolicy::Selfsched { chunk } => {
            assert!(chunk > 0, "selfscheduling chunk must be positive");
            let state = player.collective(|| SelfSchedState {
                next: AtomicU64::new(0),
            });
            let mut executed = 0u64;
            loop {
                let lo = state.next.fetch_add(chunk, Ordering::Relaxed);
                if lo >= n {
                    break;
                }
                let hi = (lo + chunk).min(n);
                for trip in lo..hi {
                    body(trip);
                }
                executed += hi - lo;
            }
            executed
        }
        SchedulePolicy::Guided { min_chunk } => {
            // Tapering chunks: each claim takes half of what an even
            // split of the remaining trips would give this force, never
            // less than `min_chunk`.  Large early chunks amortize the
            // shared-counter traffic; small late chunks absorb imbalance.
            let min_chunk = min_chunk.max(1);
            let nproc = player.nproc() as u64;
            let state = player.collective(|| SelfSchedState {
                next: AtomicU64::new(0),
            });
            let mut executed = 0u64;
            let mut cur = state.next.load(Ordering::Relaxed);
            while cur < n {
                let remaining = n - cur;
                let chunk = (remaining / (2 * nproc)).max(min_chunk).min(remaining);
                match state.next.compare_exchange_weak(
                    cur,
                    cur + chunk,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        for trip in cur..cur + chunk {
                            body(trip);
                        }
                        executed += chunk;
                        cur = state.next.load(Ordering::Relaxed);
                    }
                    Err(actual) => cur = actual,
                }
            }
            executed
        }
        SchedulePolicy::Steal => {
            let queues = player.collective(|| seed_steal_queues(n, player.nproc()));
            let pid = player.pid();
            let mut executed = 0u64;
            loop {
                let (lo, hi) = if let Some(part) = queues.pop(pid) {
                    part
                } else {
                    let out = queues.steal(pid);
                    fault::count_steal(out.taken.is_some(), out.failed_probes);
                    match out.taken {
                        Some((victim, part)) => {
                            trace::event(EventKind::Steal, victim as u32);
                            part
                        }
                        // Local deque dry and a full sweep found every
                        // victim empty: any remaining parts are already
                        // held by their executors.
                        None => break,
                    }
                };
                for trip in lo..hi {
                    body(trip);
                }
                executed += hi - lo;
            }
            executed
        }
    }
}

/// The contiguous block of trips process `p` owns under block
/// distribution: the first `n mod nproc` processes take one extra trip.
fn block_share(n: u64, p: u64, nproc: u64) -> (u64, u64) {
    let base = n / nproc;
    let extra = n % nproc;
    if p < extra {
        (p * (base + 1), p * (base + 1) + base + 1)
    } else {
        let lo = extra * (base + 1) + (p - extra) * base;
        (lo, lo + base)
    }
}

/// Seed the steal deques: each process's block share of `0..n`, split
/// into stealable parts of roughly an eighth of a share each, pushed in
/// reverse so the owner's LIFO pops run in ascending trip order.
fn seed_steal_queues(n: u64, nproc: usize) -> WorkQueues<(u64, u64)> {
    let queues = WorkQueues::new(nproc);
    let part = (n / (nproc as u64 * 8)).max(1);
    for p in 0..nproc {
        let (lo, hi) = block_share(n, p as u64, nproc as u64);
        let mut parts = Vec::new();
        let mut at = lo;
        while at < hi {
            let end = (at + part).min(hi);
            parts.push((at, end));
            at = end;
        }
        for piece in parts.into_iter().rev() {
            queues.push(p, piece);
        }
    }
    queues
}

/// The shared DOALL frame: construct entry, fault injection, the policy
/// dispatch, trip-count tracing, and the §4.2 end barrier.
fn run_doall(player: &Player, policy: SchedulePolicy, n: u64, body: &mut dyn FnMut(u64)) {
    let _c = fault::enter(Construct::Doall);
    fault::inject(Construct::Doall);
    let executed = dispatch_trips(player, policy, n, body);
    trace::doall_trips(executed);
    player.barrier();
}

impl Player {
    /// A singly nested DOALL under an explicit [`SchedulePolicy`],
    /// ending with the DOALL barrier.
    ///
    /// # Panics
    /// Panics if the policy is `Selfsched { chunk: 0 }`.
    pub fn doall_with(
        &self,
        policy: SchedulePolicy,
        range: impl Into<ForceRange>,
        mut body: impl FnMut(i64),
    ) {
        let range = range.into();
        let n = range.count();
        run_doall(self, policy, n, &mut |trip| body(range.nth(trip)));
    }

    /// A singly nested DOALL under the default policy, the paper's
    /// one-trip selfscheduling ([`SchedulePolicy::default`]).
    pub fn doall(&self, range: impl Into<ForceRange>, body: impl FnMut(i64)) {
        self.doall_with(SchedulePolicy::default(), range, body)
    }

    /// A doubly nested DOALL under an explicit [`SchedulePolicy`]: the
    /// policy distributes the linearized pair space, so every flavour —
    /// block and guided included — covers each index pair exactly once.
    pub fn doall2_with(
        &self,
        policy: SchedulePolicy,
        outer: impl Into<ForceRange>,
        inner: impl Into<ForceRange>,
        mut body: impl FnMut(i64, i64),
    ) {
        let outer = outer.into();
        let inner = inner.into();
        let ni = inner.count();
        let n = outer.count() * ni;
        run_doall(self, policy, n, &mut |trip| {
            body(outer.nth(trip / ni), inner.nth(trip % ni))
        });
    }

    /// A doubly nested DOALL under the default policy.
    pub fn doall2(
        &self,
        outer: impl Into<ForceRange>,
        inner: impl Into<ForceRange>,
        body: impl FnMut(i64, i64),
    ) {
        self.doall2_with(SchedulePolicy::default(), outer, inner, body)
    }

    /// `Presched DO` over a singly nested loop: cyclic (round-robin)
    /// distribution of index values, then the DOALL-end barrier.
    pub fn presched_do(&self, range: impl Into<ForceRange>, body: impl FnMut(i64)) {
        self.doall_with(SchedulePolicy::Cyclic, range, body)
    }

    /// `Presched DO` with *block* distribution: process `p` takes one
    /// contiguous chunk of trips.  An extension (the paper's presched is
    /// cyclic); useful when the body has spatial locality.
    pub fn presched_do_block(&self, range: impl Into<ForceRange>, body: impl FnMut(i64)) {
        self.doall_with(SchedulePolicy::Block, range, body)
    }

    /// `Selfsched DO`: dynamic one-trip-at-a-time distribution, then the
    /// DOALL-end barrier.
    pub fn selfsched_do(&self, range: impl Into<ForceRange>, body: impl FnMut(i64)) {
        self.doall_with(SchedulePolicy::Selfsched { chunk: 1 }, range, body)
    }

    /// Chunked selfscheduling: claim `chunk` consecutive trips per visit
    /// to the shared index — the natural generalization of the §4.2 loop
    /// (chunk = 1 is the paper's construct).
    ///
    /// # Panics
    /// Panics if `chunk` is zero.
    pub fn selfsched_do_chunked(
        &self,
        range: impl Into<ForceRange>,
        chunk: u64,
        body: impl FnMut(i64),
    ) {
        self.doall_with(SchedulePolicy::Selfsched { chunk }, range, body)
    }

    /// Doubly nested `Presched DO`: cyclic distribution of index *pairs*
    /// `(i, j)` over the linearized pair space, then the end barrier.
    pub fn presched_do2(
        &self,
        outer: impl Into<ForceRange>,
        inner: impl Into<ForceRange>,
        body: impl FnMut(i64, i64),
    ) {
        self.doall2_with(SchedulePolicy::Cyclic, outer, inner, body)
    }

    /// Doubly nested `Selfsched DO`: dynamic distribution of index pairs.
    pub fn selfsched_do2(
        &self,
        outer: impl Into<ForceRange>,
        inner: impl Into<ForceRange>,
        body: impl FnMut(i64, i64),
    ) {
        self.doall2_with(SchedulePolicy::Selfsched { chunk: 1 }, outer, inner, body)
    }
}

#[cfg(test)]
mod tests {
    use crate::force::Force;
    use crate::schedule::{ForceRange, SchedulePolicy};
    use force_machdep::Mutex;
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

    /// Run a DOALL flavour and assert every index executes exactly once.
    fn coverage(
        nproc: usize,
        range: ForceRange,
        run: impl Fn(&crate::player::Player, &dyn Fn(i64)) + Sync,
    ) {
        let force = Force::new(nproc);
        let hits: Mutex<HashMap<i64, usize>> = Mutex::new(HashMap::new());
        force.run(|p| {
            run(p, &|i| {
                *hits.lock().entry(i).or_insert(0) += 1;
            });
        });
        let hits = hits.into_inner();
        let expected: Vec<i64> = range.iter().collect();
        assert_eq!(
            hits.len(),
            expected.len(),
            "wrong number of distinct indices"
        );
        for i in expected {
            assert_eq!(
                hits.get(&i),
                Some(&1),
                "index {i} not executed exactly once"
            );
        }
    }

    #[test]
    fn presched_covers_every_index_once() {
        for nproc in [1, 2, 3, 7] {
            coverage(nproc, ForceRange::to(1, 50), |p, f| {
                p.presched_do(ForceRange::to(1, 50), f);
            });
        }
    }

    #[test]
    fn presched_block_covers_every_index_once() {
        for nproc in [1, 2, 3, 7, 11] {
            coverage(nproc, ForceRange::to(0, 49), |p, f| {
                p.presched_do_block(ForceRange::to(0, 49), f);
            });
        }
    }

    #[test]
    fn selfsched_covers_every_index_once() {
        for nproc in [1, 2, 4, 8] {
            coverage(nproc, ForceRange::new(10, 100, 5), |p, f| {
                p.selfsched_do(ForceRange::new(10, 100, 5), f);
            });
        }
    }

    #[test]
    fn chunked_selfsched_covers_every_index_once() {
        for chunk in [1, 3, 7, 100] {
            coverage(4, ForceRange::to(0, 99), move |p, f| {
                p.selfsched_do_chunked(ForceRange::to(0, 99), chunk, f);
            });
        }
    }

    #[test]
    fn every_policy_covers_every_index_once() {
        // The unified driver's coverage guarantee, policy by policy,
        // including the strided-range mapping.
        for policy in SchedulePolicy::all() {
            for nproc in [1, 3, 8] {
                coverage(nproc, ForceRange::new(3, 61, 2), move |p, f| {
                    p.doall_with(policy, ForceRange::new(3, 61, 2), f);
                });
            }
        }
    }

    #[test]
    fn every_policy_covers_every_pair_once() {
        // DO2 parity: every policy covers the cross product of a doubly
        // nested loop exactly once, negative inner stride included.
        for policy in SchedulePolicy::all() {
            let force = Force::new(5);
            let hits = Mutex::new(HashMap::new());
            force.run(|p| {
                p.doall2_with(
                    policy,
                    ForceRange::to(1, 6),
                    ForceRange::new(10, 2, -2),
                    |i, j| {
                        *hits.lock().entry((i, j)).or_insert(0usize) += 1;
                    },
                );
            });
            let hits = hits.into_inner();
            assert_eq!(hits.len(), 30, "{}", policy.name());
            assert!(hits.values().all(|&c| c == 1), "{}", policy.name());
        }
    }

    #[test]
    fn every_policy_completes_empty_loops() {
        let force = Force::new(4);
        let count = AtomicUsize::new(0);
        force.run(|p| {
            for policy in SchedulePolicy::all() {
                p.doall_with(policy, ForceRange::to(5, 4), |_| {
                    count.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(count.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn steal_doall_steals_from_a_stalled_peer() {
        // Two processes, sixteen one-trip parts (eight seeded per deque).
        // Process 0 stalls inside its first trip until everything else is
        // done, so process 1 must drain process 0's deque by stealing.
        let force = Force::new(2);
        let executed = AtomicU64::new(0);
        force.run(|p| {
            let mut stalled = false;
            p.doall_with(SchedulePolicy::Steal, ForceRange::to(0, 15), |_i| {
                executed.fetch_add(1, Ordering::SeqCst);
                if p.pid() == 0 && !stalled {
                    stalled = true;
                    force_machdep::park::wait_until(force_machdep::Construct::Body, || {
                        executed.load(Ordering::SeqCst) >= 16
                    });
                }
            });
        });
        assert_eq!(executed.load(Ordering::SeqCst), 16);
        let stats = force.last_job_stats().expect("clean run has stats");
        assert!(
            (7..=8).contains(&stats.steals),
            "peer must have drained the stalled process's deque: {} steals",
            stats.steals
        );
        assert!(
            stats.steal_attempts_failed >= 2,
            "every exit sweep finds only empty victims"
        );
    }

    #[test]
    fn negative_stride_loops_work() {
        coverage(3, ForceRange::new(20, 2, -3), |p, f| {
            p.selfsched_do(ForceRange::new(20, 2, -3), f);
        });
        coverage(3, ForceRange::new(20, 2, -3), |p, f| {
            p.presched_do(ForceRange::new(20, 2, -3), f);
        });
    }

    #[test]
    fn empty_loops_complete() {
        let force = Force::new(4);
        let count = AtomicUsize::new(0);
        force.run(|p| {
            p.presched_do(ForceRange::to(5, 4), |_| {
                count.fetch_add(1, Ordering::Relaxed);
            });
            p.selfsched_do(ForceRange::to(5, 4), |_| {
                count.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(count.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn doall_is_a_barrier() {
        // After the DOALL, every process must observe all iterations done.
        let force = Force::new(6);
        let done = AtomicUsize::new(0);
        force.run(|p| {
            p.selfsched_do(ForceRange::to(1, 100), |_| {
                done.fetch_add(1, Ordering::SeqCst);
            });
            assert_eq!(done.load(Ordering::SeqCst), 100);
        });
    }

    #[test]
    fn consecutive_doalls_do_not_interfere() {
        let force = Force::new(4);
        let a = AtomicUsize::new(0);
        let b = AtomicUsize::new(0);
        force.run(|p| {
            for _ in 0..10 {
                p.selfsched_do(ForceRange::to(1, 20), |_| {
                    a.fetch_add(1, Ordering::Relaxed);
                });
                p.selfsched_do(ForceRange::to(1, 30), |_| {
                    b.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(a.load(Ordering::Relaxed), 200);
        assert_eq!(b.load(Ordering::Relaxed), 300);
    }

    #[test]
    fn doubly_nested_pairs_cover_the_cross_product() {
        let force = Force::new(5);
        let hits = Mutex::new(HashMap::new());
        force.run(|p| {
            p.selfsched_do2(ForceRange::to(1, 6), ForceRange::to(1, 9), |i, j| {
                *hits.lock().entry((i, j)).or_insert(0usize) += 1;
            });
        });
        let hits = hits.into_inner();
        assert_eq!(hits.len(), 54);
        assert!(hits.values().all(|&c| c == 1));

        let hits = Mutex::new(HashMap::new());
        force.run(|p| {
            p.presched_do2(ForceRange::to(1, 4), ForceRange::to(1, 7), |i, j| {
                *hits.lock().entry((i, j)).or_insert(0usize) += 1;
            });
        });
        let hits = hits.into_inner();
        assert_eq!(hits.len(), 28);
        assert!(hits.values().all(|&c| c == 1));
    }

    #[test]
    fn presched_is_deterministic_per_process() {
        // Cyclic distribution: process p gets trips p, p+nproc, ...
        let force = Force::new(4);
        let per: Mutex<HashMap<usize, Vec<i64>>> = Mutex::new(HashMap::new());
        force.run(|p| {
            let mut mine = Vec::new();
            p.presched_do(ForceRange::to(0, 11), |i| mine.push(i));
            per.lock().insert(p.pid(), mine);
        });
        let per = per.into_inner();
        assert_eq!(per[&0], vec![0, 4, 8]);
        assert_eq!(per[&1], vec![1, 5, 9]);
        assert_eq!(per[&3], vec![3, 7, 11]);
    }

    #[test]
    fn guided_chunks_taper_but_respect_the_floor() {
        // One process: the claim sequence is deterministic — half the
        // remainder each visit, never below min_chunk.  Recorded via the
        // trip values each claim starts at.
        let force = Force::new(1);
        let seen = Mutex::new(Vec::new());
        force.run(|p| {
            p.doall_with(
                SchedulePolicy::Guided { min_chunk: 3 },
                ForceRange::to(0, 99),
                |i| seen.lock().push(i),
            );
        });
        let seen = seen.into_inner();
        assert_eq!(seen, (0..=99).collect::<Vec<_>>(), "in-order on one proc");
    }

    #[test]
    #[should_panic(expected = "chunk must be positive")]
    fn zero_chunk_rejected() {
        let force = Force::new(1);
        force.run(|p| p.selfsched_do_chunked(ForceRange::to(1, 5), 0, |_| {}));
    }
}
