//! Operation accounting for a simulated machine.
//!
//! The paper's portability argument is that different machines force the
//! Force onto different low-level primitives (§4.1).  To make that visible
//! without the original hardware, every machine personality counts the
//! primitive operations it performs.  The counters use relaxed atomics so
//! that accounting never perturbs the synchronization being measured.
//!
//! The counter list is written exactly once, in the `op_counters!`
//! invocation below; the macro generates both [`OpStats`] and
//! [`StatsSnapshot`] plus every whole-struct operation (`snapshot`,
//! `since`, `fields`, `merge`).  A counter added to the list is therefore
//! covered by snapshots and deltas *by construction* — it cannot be
//! silently dropped the way a hand-enumerated field list could drop it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Defines [`OpStats`] and [`StatsSnapshot`] from one field list, plus the
/// operations that must stay in sync with that list.
macro_rules! op_counters {
    ($($(#[$doc:meta])* $name:ident,)+) => {
        /// Per-machine counters of low-level primitive operations.
        ///
        /// All increments are `Relaxed`: the counts are diagnostics, not
        /// synchronization, and exact cross-thread ordering of increments
        /// is irrelevant to their totals.
        #[derive(Debug, Default)]
        pub struct OpStats {
            $($(#[$doc])* pub $name: AtomicU64,)+
        }

        /// A point-in-time copy of [`OpStats`]; fields mirror the counters
        /// there.
        #[allow(missing_docs)]
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct StatsSnapshot {
            $(pub $name: u64,)+
        }

        impl OpStats {
            /// Snapshot the counters into a plain struct for reporting.
            pub fn snapshot(&self) -> StatsSnapshot {
                StatsSnapshot {
                    $($name: self.$name.load(Ordering::Relaxed),)+
                }
            }

            /// Take the counters, leaving zeros: what a per-pid lane
            /// hands over when it is folded.
            pub(crate) fn drain(&self) -> StatsSnapshot {
                StatsSnapshot {
                    $($name: self.$name.swap(0, Ordering::Relaxed),)+
                }
            }

            /// Add a drained lane's counts; a counter that did not move
            /// is not written.
            pub(crate) fn absorb(&self, counts: &StatsSnapshot) {
                $(if counts.$name != 0 {
                    self.$name.fetch_add(counts.$name, Ordering::Relaxed);
                })+
            }
        }

        impl StatsSnapshot {
            /// Difference of two snapshots (`self - earlier`), saturating
            /// at zero: e.g. the per-job counts of one run on a resident
            /// session, as opposed to the cumulative totals.  Covers every
            /// counter by construction (generated from the same field list
            /// as the structs).
            pub fn since(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
                StatsSnapshot {
                    $($name: self.$name.saturating_sub(earlier.$name),)+
                }
            }

            /// Every field with its name, in declaration order.
            pub fn fields(&self) -> Vec<(&'static str, u64)> {
                vec![$((stringify!($name), self.$name),)+]
            }

            /// A snapshot whose `i`-th counter, in declaration order,
            /// reads `value(i)`: distinct per-field values for the
            /// exhaustiveness tests.
            #[cfg(test)]
            fn numbered(value: impl Fn(u64) -> u64) -> StatsSnapshot {
                let mut i = 0;
                StatsSnapshot {
                    $($name: {
                        i += 1;
                        value(i - 1)
                    },)+
                }
            }

            /// Add every counter of `other` into `self` (saturating).
            /// Generated from the same field list as the structs, so a
            /// new counter is folded into tenant rollups by construction.
            pub fn merge(&mut self, other: &StatsSnapshot) {
                $(self.$name = self.$name.saturating_add(other.$name);)+
            }
        }
    };
}

op_counters! {
    /// Successful lock acquisitions (all lock kinds).
    lock_acquires,
    /// Lock acquisitions that did not succeed on the first attempt.
    lock_contended,
    /// Lock releases.
    lock_releases,
    /// Simulated operating-system calls (Cray-style system-call locks,
    /// and the parked phase of Flex/32 combined locks).
    syscalls,
    /// Blocking episodes entered through the parking layer
    /// (`machdep::park`): a process exhausted any spin budget and
    /// published itself parked on the wait board.
    parks,
    /// Parked processes that woke with their wait condition satisfied
    /// (every park that is not cancelled ends in exactly one wake).
    park_wakes,
    /// Condvar wakeups delivered to a parked process whose wait
    /// condition was still false (notify races and herd wakeups).
    park_spurious_wakes,
    /// Busy-wait retry iterations across all spinning locks.
    spin_retries,
    /// Hardware full/empty produce operations (HEP personality).
    fe_produces,
    /// Hardware full/empty consume operations (HEP personality).
    fe_consumes,
    /// Barrier episodes completed.
    barrier_episodes,
    /// Logical locks created.
    locks_created,
    /// Logical locks that aliased an already-used pool slot (scarce-lock
    /// machines only).
    locks_aliased,
    /// Shared-memory words allocated.
    shared_words,
    /// Padding words inserted by the sharing model to keep private data
    /// off shared pages (Encore) or to align blocks to pages (Alliant).
    padding_words,
    /// Processes created.
    processes_created,
    /// Faults deliberately injected by the fault-injection layer
    /// (panics, delays, spurious lock failures).
    faults_injected,
    /// Genuine process faults detected by the fault plane (panics and
    /// interpreter runtime errors trapped at process boundaries).
    faults_detected,
    /// Times a blocked process observed a tripped cancellation token and
    /// unwound instead of waiting forever.
    cancellations_observed,
    /// Times the deadlock watchdog declared a no-progress episode.
    watchdog_trips,
    /// Work items successfully stolen from another process's deque.
    steals,
    /// Steal probes that found the victim's deque empty.
    steal_attempts_failed,
    /// Scarce-pool allocations refused because the requested lock could
    /// not be given a dedicated slot (state locks never alias — §4.1.3).
    state_locks_denied,
}

impl OpStats {
    /// A fresh, all-zero counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Increment one counter by one (relaxed).
    #[inline]
    pub fn count(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Increment one counter by `n` (relaxed).
    #[inline]
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Increment by `n` a counter that only the calling thread writes (a
    /// per-pid lane): a relaxed load and store, not a locked
    /// read-modify-write.  Readers on other threads see the counter
    /// before or after the store, never a torn value; a second writer
    /// would lose counts.
    #[inline]
    pub(crate) fn add_single_writer(counter: &AtomicU64, n: u64) {
        counter.store(
            counter.load(Ordering::Relaxed).wrapping_add(n),
            Ordering::Relaxed,
        );
    }
}

/// Ownership handle for operation accounting: a **local** counter block
/// owned by one execution plane, plus at most one **rollup** — the
/// machine's block — that every charge is mirrored into.
///
/// A job's operations are counted in exactly two blocks, its plane's and
/// its machine's.  Per-job `StatsSnapshot::since` accounting stays exact
/// on a machine running several planes concurrently: each plane reads
/// its *private* `local` counters (no other plane ever writes them),
/// while `Machine::stats()` — every plane's rollup — remains a
/// consistent machine-wide view equal to the sum of its planes' local
/// counts plus any charges made outside a plane.
///
/// Charging is **context-preferred**: [`count`](Self::count)/
/// [`add`](Self::add) first consult the calling thread's installed
/// fault-plane context (and then the ambient binding a running session
/// leaves on its driver thread) and charge *that* plane when one is
/// present, falling back to `self` otherwise.  A primitive constructed
/// against the machine's block — a pooled Cray-2 lock slot shared by
/// every tenant, a resident engine's lock table — therefore attributes
/// its runtime operations to whichever plane is actually executing, not
/// to whoever happened to construct it.
#[derive(Clone, Debug)]
pub struct StatsHandle {
    local: Arc<OpStats>,
    rollup: Option<Arc<OpStats>>,
}

impl StatsHandle {
    /// A root handle: charges land in `stats` alone.  This is the shape
    /// of a machine's own handle, and of any primitive constructed from
    /// a bare `Arc<OpStats>`.
    pub fn root(stats: Arc<OpStats>) -> StatsHandle {
        StatsHandle {
            local: stats,
            rollup: None,
        }
    }

    /// A plane's handle under this root: a fresh private counter block
    /// whose charges are mirrored into this handle's block.  A plane
    /// handle is `machine_handle.child()`.
    ///
    /// # Panics
    /// Panics if `self` is itself a child: accounting has two levels.
    pub fn child(&self) -> StatsHandle {
        assert!(
            self.rollup.is_none(),
            "a plane's counters roll up into its machine's alone"
        );
        StatsHandle {
            local: Arc::new(OpStats::new()),
            rollup: Some(Arc::clone(&self.local)),
        }
    }

    /// The private counter block this handle owns.  Snapshot this (not
    /// the machine) for per-plane deltas.
    pub fn local(&self) -> &Arc<OpStats> {
        &self.local
    }

    /// Increment the projected counter by one, context-preferred.
    #[inline]
    pub fn count(&self, proj: impl Fn(&OpStats) -> &AtomicU64) {
        self.add(proj, 1);
    }

    /// Increment the projected counter by `n`, context-preferred: the
    /// charge goes to the calling thread's installed plane (or a running
    /// session's ambient plane) when one exists, otherwise to `self`.
    #[inline]
    pub fn add(&self, proj: impl Fn(&OpStats) -> &AtomicU64, n: u64) {
        if crate::fault::charge_current(&proj, n) {
            return;
        }
        self.add_direct(&proj, n);
    }

    /// Charge `self` unconditionally (no context consult).  Used by the
    /// fault layer itself to resolve context-preferred charges without
    /// recursing, and anywhere attribution is already decided.
    #[inline]
    pub(crate) fn add_direct(&self, proj: &dyn Fn(&OpStats) -> &AtomicU64, n: u64) {
        proj(&self.local).fetch_add(n, Ordering::Relaxed);
        if let Some(r) = &self.rollup {
            proj(r).fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Move a per-pid lane's counts into this handle: the local block
    /// and the rollup, each counter that moved written once.  The lane
    /// is left at zero.
    pub(crate) fn fold(&self, lane: &OpStats) {
        let counts = lane.drain();
        self.local.absorb(&counts);
        if let Some(r) = &self.rollup {
            r.absorb(&counts);
        }
    }
}

impl From<Arc<OpStats>> for StatsHandle {
    fn from(stats: Arc<OpStats>) -> Self {
        StatsHandle::root(stats)
    }
}

impl From<&Arc<OpStats>> for StatsHandle {
    fn from(stats: &Arc<OpStats>) -> Self {
        StatsHandle::root(Arc::clone(stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_start_at_zero() {
        let s = OpStats::new().snapshot();
        assert_eq!(s, StatsSnapshot::default());
    }

    #[test]
    fn count_and_snapshot() {
        let st = OpStats::new();
        OpStats::count(&st.lock_acquires);
        OpStats::count(&st.lock_acquires);
        OpStats::add(&st.spin_retries, 5);
        let s = st.snapshot();
        assert_eq!(s.lock_acquires, 2);
        assert_eq!(s.spin_retries, 5);
        assert_eq!(s.lock_releases, 0);
    }

    #[test]
    fn since_subtracts_saturating() {
        let st = OpStats::new();
        OpStats::add(&st.lock_acquires, 10);
        let a = st.snapshot();
        OpStats::add(&st.lock_acquires, 7);
        let b = st.snapshot();
        assert_eq!(b.since(&a).lock_acquires, 7);
        // Saturates instead of underflowing.
        assert_eq!(a.since(&b).lock_acquires, 0);
    }

    #[test]
    fn delta_covers_every_counter_exhaustively() {
        // Bump every counter by a distinct baseline, snapshot, bump each
        // by a distinct per-field delta, and check that `since` reports
        // exactly that per-field delta for *every* counter.  The counter
        // list is enumerated through `fields()`, which the `op_counters!`
        // macro generates from the same list as `since`, so a future
        // counter cannot be silently dropped from deltas.
        let st = OpStats::new();
        st.absorb(&StatsSnapshot::numbered(|i| 1000 + i * 13));
        let earlier = st.snapshot();
        st.absorb(&StatsSnapshot::numbered(|i| i + 1));
        let d = st.snapshot().since(&earlier);
        let fields = d.fields();
        for (i, (name, v)) in fields.iter().enumerate() {
            assert_eq!(*v, i as u64 + 1, "delta dropped or corrupted `{name}`");
        }
        // The four fault counters of the fault plane are among them.
        for fault_counter in [
            "faults_injected",
            "faults_detected",
            "cancellations_observed",
            "watchdog_trips",
        ] {
            assert!(
                fields.iter().any(|(n, _)| *n == fault_counter),
                "`{fault_counter}` missing from the counter list"
            );
        }
    }

    #[test]
    fn merge_accumulates_every_counter() {
        // Same exhaustiveness trick as the delta test: distinct per-field
        // values prove `merge` covers the whole list.
        let snap = StatsSnapshot::numbered(|i| i + 1);
        let mut acc = StatsSnapshot::default();
        acc.merge(&snap);
        acc.merge(&snap);
        for (i, (name, v)) in acc.fields().iter().enumerate() {
            assert_eq!(*v, 2 * (i as u64 + 1), "merge dropped `{name}`");
        }
        // Saturates instead of wrapping.
        let mut top = snap;
        top.lock_acquires = u64::MAX;
        top.merge(&snap);
        assert_eq!(top.lock_acquires, u64::MAX);
    }

    #[test]
    fn child_handle_mirrors_into_its_machine() {
        let machine = Arc::new(OpStats::new());
        let root = StatsHandle::root(Arc::clone(&machine));
        let plane_a = root.child();
        let plane_b = root.child();
        plane_a.add(|s| &s.lock_acquires, 3);
        plane_b.add(|s| &s.lock_acquires, 4);
        let lane = OpStats::new();
        OpStats::count(&lane.parks);
        plane_a.fold(&lane);
        root.count(|s| &s.syscalls);
        // Plane-local counters are private to each plane.
        assert_eq!(plane_a.local().snapshot().lock_acquires, 3);
        assert_eq!(plane_a.local().snapshot().parks, 1);
        assert_eq!(plane_b.local().snapshot().lock_acquires, 4);
        assert_eq!(plane_a.local().snapshot().syscalls, 0);
        assert_eq!(lane.snapshot(), StatsSnapshot::default(), "folded");
        // The machine sees everything: its planes plus its own charges.
        let total = machine.snapshot();
        assert_eq!(total.lock_acquires, 7);
        assert_eq!(total.parks, 1);
        assert_eq!(total.syscalls, 1);
    }

    #[test]
    #[should_panic(expected = "roll up into its machine's alone")]
    fn a_plane_handle_has_no_children() {
        StatsHandle::root(Arc::new(OpStats::new())).child().child();
    }

    #[test]
    fn root_handle_charges_its_block_alone() {
        let stats = Arc::new(OpStats::new());
        let h = StatsHandle::from(&stats);
        h.count(|s| &s.parks);
        assert_eq!(stats.snapshot().parks, 1);
    }

    #[test]
    fn concurrent_counting_is_exact() {
        let st = std::sync::Arc::new(OpStats::new());
        std::thread::scope(|s| {
            for _ in 0..8 {
                let st = std::sync::Arc::clone(&st);
                s.spawn(move || {
                    for _ in 0..1000 {
                        OpStats::count(&st.lock_acquires);
                    }
                });
            }
        });
        assert_eq!(st.snapshot().lock_acquires, 8000);
    }
}
