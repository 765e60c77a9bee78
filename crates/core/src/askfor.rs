//! Askfor — run-time requested work distribution (§3.3).
//!
//! "The most general concept for concurrent code segments is Askfor
//! \[LO83\].  This construct provides a means of work distribution in cases
//! where the degree of concurrency is not known at compile time.  Rather
//! the program can request during run time that a new concurrent instance
//! of the code segment is executed."
//!
//! Following Lusk & Overbeek's monitor formulation, the construct is a
//! shared *work pot*: any process asks the pot for work; while handling
//! an item it may post new items; the construct terminates when the pot
//! is empty and no process is still working (so no more items can
//! appear).
//!
//! Internally the pot is a set of per-process deques plus one shared
//! queue.  Seeds (and posts from outside the force) land in the shared
//! FIFO; a handler's posts go to the posting process's own deque, which
//! that process pops LIFO without touching the pot lock.  A process whose
//! deque runs dry drains the shared queue, then *steals* FIFO from a
//! peer's deque.  The Lusk/Overbeek dry-and-idle termination protocol is
//! unchanged and remains the slow path: every post passes through the pot
//! lock, so a checker holding that lock that sees every queue empty and
//! nobody working knows no further work can appear (new items are posted
//! only by handlers, and a running handler implies `working > 0`).
//!
//! ```
//! # use force_core::prelude::*;
//! # use std::sync::atomic::{AtomicU64, Ordering};
//! let force = Force::new(4);
//! let sum = AtomicU64::new(0);
//! force.run(|p| {
//!     p.askfor(|| vec![10u64], |n, pot| {
//!         // split until small, then account
//!         if n > 1 {
//!             pot.post(n / 2);
//!             pot.post(n - n / 2);
//!         } else {
//!             sum.fetch_add(1, Ordering::Relaxed);
//!         }
//!     });
//! });
//! assert_eq!(sum.load(Ordering::Relaxed), 10);
//! ```

use std::collections::VecDeque;
use std::sync::Arc;

use force_machdep::trace::{self, EventKind};
use force_machdep::{fault, park};
use force_machdep::{Condvar, Construct, Mutex, WorkQueues};

use crate::player::Player;

/// The shared work pot of one Askfor occurrence.
pub struct AskforPot<W> {
    state: Mutex<PotState<W>>,
    cond: Condvar,
    /// Per-process deques: local LIFO for the owner, FIFO for thieves.
    deques: WorkQueues<W>,
}

struct PotState<W> {
    /// Seeds and out-of-force posts; drained FIFO before stealing.
    queue: VecDeque<W>,
    working: usize,
    posted: u64,
    completed: u64,
}

impl<W: Send> AskforPot<W> {
    /// A one-deque pot, as used outside any force (tests and probes).
    #[cfg(test)]
    fn new(seed: Vec<W>) -> Self {
        Self::with_deques(seed, 1)
    }

    fn with_deques(seed: Vec<W>, nproc: usize) -> Self {
        let posted = seed.len() as u64;
        AskforPot {
            state: Mutex::new(PotState {
                queue: seed.into(),
                working: 0,
                posted,
                completed: 0,
            }),
            cond: Condvar::new(),
            deques: WorkQueues::new(nproc),
        }
    }

    /// The deque this thread owns (deque 0 outside a force).
    fn home(&self) -> usize {
        fault::current_pid().unwrap_or(0)
    }

    /// Request work: posted by the handler of another (or this) item.
    /// Callable from inside a handler via the pot reference it receives.
    /// The item lands on the posting process's own deque; posting still
    /// passes through the pot lock so the termination check stays sound.
    pub fn post(&self, work: W) {
        let mut st = self.state.lock();
        st.posted += 1;
        // Pot lock, then deque lock — the one lock order used everywhere.
        self.deques.push(self.home(), work);
        drop(st);
        self.cond.notify_one();
    }

    /// Ask the pot for the next item.  Blocks while the pot is empty but
    /// some process is still working (new items may appear); returns
    /// `None` once the pot is dry and idle — the termination condition.
    fn ask(&self) -> Option<W> {
        let pid = self.home();
        // Fast path: pop the local deque without the pot lock.  Racing
        // the termination check is benign — a peer that concurrently
        // declares the pot dry simply leaves this item (and anything its
        // handler posts) to us, and we keep asking until dry ourselves.
        if let Some(w) = self.deques.pop(pid) {
            self.state.lock().working += 1;
            return Some(w);
        }
        // Slow path through the parking layer.  All probes run in the
        // ready closure under the pot lock, so the idle wait can never
        // miss a post: posts need this lock too.  The pot may refill, a
        // peer may fault — the parking layer stays responsive to
        // cancellation either way.
        let mut got: Option<W> = None;
        park::wait_on(&self.state, &self.cond, Construct::Askfor, |st| {
            if let Some(w) = self.deques.pop(pid) {
                st.working += 1;
                got = Some(w);
                return true;
            }
            if let Some(w) = st.queue.pop_front() {
                st.working += 1;
                got = Some(w);
                return true;
            }
            let out = self.deques.steal(pid);
            fault::count_steal(out.taken.is_some(), out.failed_probes);
            if let Some((victim, w)) = out.taken {
                trace::event(EventKind::Steal, victim as u32);
                st.working += 1;
                got = Some(w);
                return true;
            }
            if st.working == 0 {
                // Dry and idle: wake every sleeper so all processes see
                // termination (`got` stays `None`).
                self.cond.notify_all();
                return true;
            }
            false
        });
        got
    }

    /// Report one item finished.
    fn done(&self) {
        let mut st = self.state.lock();
        st.working -= 1;
        st.completed += 1;
        if st.working == 0 {
            drop(st);
            self.cond.notify_all();
        }
    }

    /// Total items ever posted (seed included).
    pub fn posted(&self) -> u64 {
        self.state.lock().posted
    }

    /// Total items completed.
    pub fn completed(&self) -> u64 {
        self.state.lock().completed
    }
}

impl Player {
    /// The Askfor construct.
    ///
    /// `seed` produces the initial work items; it is evaluated by the
    /// *first* process to reach the construct (exactly once per
    /// occurrence).  Every process then loops asking the pot for work and
    /// running `handler`, which may post follow-on items through the pot
    /// reference.  The construct returns — through the construct-end
    /// barrier — when all work is done in all processes.
    pub fn askfor<W, S, H>(&self, seed: S, handler: H)
    where
        W: Send + 'static,
        S: FnOnce() -> Vec<W>,
        H: Fn(W, &AskforPot<W>),
    {
        let _c = fault::enter(Construct::Askfor);
        fault::inject(Construct::Askfor);
        let nproc = self.nproc();
        let pot: Arc<AskforPot<W>> = self.collective(|| AskforPot::with_deques(seed(), nproc));
        while let Some(w) = pot.ask() {
            handler(w, &pot);
            pot.done();
        }
        self.barrier();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::force::Force;
    use force_machdep::Mutex;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn static_work_is_all_processed() {
        for nproc in [1, 2, 4, 8] {
            let force = Force::new(nproc);
            let sum = AtomicU64::new(0);
            force.run(|p| {
                p.askfor(
                    || (1..=100u64).collect(),
                    |w, _| {
                        sum.fetch_add(w, Ordering::Relaxed);
                    },
                );
            });
            assert_eq!(sum.load(Ordering::Relaxed), 5050, "nproc={nproc}");
        }
    }

    #[test]
    fn dynamic_posting_terminates_and_covers() {
        // Recursive splitting: item n spawns items n/2 and n-n/2 until 1.
        for nproc in [1, 3, 6] {
            let force = Force::new(nproc);
            let leaves = AtomicU64::new(0);
            force.run(|p| {
                p.askfor(
                    || vec![64u64, 37],
                    |n, pot| {
                        if n > 1 {
                            pot.post(n / 2);
                            pot.post(n - n / 2);
                        } else {
                            leaves.fetch_add(1, Ordering::Relaxed);
                        }
                    },
                );
            });
            assert_eq!(leaves.load(Ordering::Relaxed), 64 + 37, "nproc={nproc}");
        }
    }

    #[test]
    fn empty_seed_terminates_immediately() {
        let force = Force::new(4);
        let hit = AtomicU64::new(0);
        force.run(|p| {
            p.askfor(Vec::<u64>::new, |_, _| {
                hit.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(hit.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn seed_is_evaluated_exactly_once() {
        let force = Force::new(6);
        let seeds = AtomicU64::new(0);
        force.run(|p| {
            p.askfor(
                || {
                    seeds.fetch_add(1, Ordering::SeqCst);
                    vec![1u64, 2, 3]
                },
                |_, _| {},
            );
        });
        assert_eq!(seeds.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn askfor_is_a_barrier_and_accounting_balances() {
        let force = Force::new(4);
        let done = AtomicU64::new(0);
        force.run(|p| {
            p.askfor(
                || (0..50u64).collect(),
                |w, pot| {
                    if w > 0 && w % 7 == 0 {
                        pot.post(w - 1);
                    }
                    done.fetch_add(1, Ordering::SeqCst);
                },
            );
            // All work (including dynamically posted) visible after the
            // construct's end barrier.
            let total = done.load(Ordering::SeqCst);
            assert!(total >= 50);
        });
    }

    #[test]
    fn posted_equals_completed_after_the_barrier() {
        // The accounting invariant under stealing: whatever the
        // interleaving, every item ever posted (seeds plus handler posts)
        // is handled exactly once by the time the end barrier opens.
        for nproc in [1, 2, 5, 8] {
            let force = Force::new(nproc);
            let handled = AtomicU64::new(0);
            let posts = AtomicU64::new(0);
            force.run(|p| {
                p.askfor(
                    || (1..=40u64).collect(),
                    |n, pot| {
                        handled.fetch_add(1, Ordering::SeqCst);
                        if n > 1 {
                            posts.fetch_add(2, Ordering::SeqCst);
                            pot.post(n / 2);
                            pot.post(n - n / 2);
                        }
                    },
                );
                assert_eq!(
                    handled.load(Ordering::SeqCst),
                    40 + posts.load(Ordering::SeqCst),
                    "nproc={nproc}"
                );
            });
        }
    }

    #[test]
    fn consecutive_askfors_are_independent() {
        let force = Force::new(3);
        let a = AtomicU64::new(0);
        let b = AtomicU64::new(0);
        force.run(|p| {
            p.askfor(
                || vec![1u64; 10],
                |_, _| {
                    a.fetch_add(1, Ordering::Relaxed);
                },
            );
            p.askfor(
                || vec![1u64; 20],
                |_, _| {
                    b.fetch_add(1, Ordering::Relaxed);
                },
            );
        });
        assert_eq!(a.load(Ordering::Relaxed), 10);
        assert_eq!(b.load(Ordering::Relaxed), 20);
    }

    #[test]
    fn local_posts_are_popped_lifo() {
        // One process: handler posts a, b; the local deque pops b first.
        let force = Force::new(1);
        let order = Mutex::new(Vec::new());
        force.run(|p| {
            p.askfor(
                || vec![0u64],
                |n, pot| {
                    order.lock().push(n);
                    if n == 0 {
                        pot.post(1);
                        pot.post(2);
                    }
                },
            );
        });
        assert_eq!(order.into_inner(), vec![0, 2, 1]);
    }

    #[test]
    fn pot_state_is_queryable() {
        let pot = AskforPot::new(vec![1, 2, 3]);
        assert_eq!(pot.posted(), 3);
        assert_eq!(pot.completed(), 0);
        let w = pot.ask().unwrap();
        assert_eq!(w, 1);
        pot.post(4);
        pot.done();
        assert_eq!(pot.posted(), 4);
        assert_eq!(pot.completed(), 1);
    }
}
