//! The corpora the suites share.  The `.force` half — what the
//! expansion-identity, front-end fuzz, lock-path and allocation tests
//! run — holds every sed-pass keyword at least once, in programs that
//! also run; the native half ([`Native`]) is what the schedule sweeps of
//! `tests/schedule_fuzz.rs` run under the virtual backend.

use the_force::prelude::*;

/// The benchmark's `ksum` cold-source template with fixed identifiers:
/// a selfscheduled loop around a critical-section reduction.
pub const KSUM: &str = include_str!("corpus/ksum.force");

/// The other four cold-source template shapes of `benchmark/src/gen.rs`.
const FILL: &str = include_str!("corpus/fill.force");

const RING: &str = include_str!("corpus/ring.force");

const SECT: &str = include_str!("corpus/sect.force");

const GRID: &str = include_str!("corpus/grid.force");

/// `Forcesub` with and without arguments, `Externf`, a `Barrier` with a
/// section, a named `End critical`, and lower-case keywords.
const SUBS: &str = include_str!("corpus/subs.force");

/// Every `Selfsched DO` flavour (`CHUNK n`, `CHUNK var`, `GUIDED`,
/// one-trip) and `Presched DO` with expression bounds and strides.
const SCHED: &str = include_str!("corpus/sched.force");

/// Both doubly nested DOALLs, separated by the barrier the language
/// requires between them.
const DO2: &str = include_str!("corpus/do2.force");

/// All three `Pcase` spellings, `Usect`, and `Csect` conditions.
const PCASE: &str = include_str!("corpus/pcase.force");

/// `Produce`/`Consume`/`Copy`/`Void`/`Isfull` on a scalar asynchronous
/// variable.
const ASYNC_SCALAR: &str = include_str!("corpus/async_scalar.force");

/// The same operations on elements of an asynchronous array.
const ASYNC_ARRAY: &str = include_str!("corpus/async_array.force");

/// Every corpus program, by name.
pub fn corpus() -> Vec<(&'static str, &'static str)> {
    vec![
        ("sum", include_str!("../../examples/force_src/sum.force")),
        (
            "dotprod",
            include_str!("../../examples/force_src/dotprod.force"),
        ),
        (
            "pipeline",
            include_str!("../../examples/force_src/pipeline.force"),
        ),
        ("ksum", KSUM),
        ("fill", FILL),
        ("ring", RING),
        ("sect", SECT),
        ("grid", GRID),
        ("subs", SUBS),
        ("sched", SCHED),
        ("do2", DO2),
        ("pcase", PCASE),
        ("async_scalar", ASYNC_SCALAR),
        ("async_array", ASYNC_ARRAY),
    ]
}

/// The native corpus: self-terminating force bodies over the constructs
/// whose interleavings caused every documented hazard.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Native {
    /// Barrier rounds with a named critical between them.
    Barrier,
    /// Askfor chains: each handler posts its predecessor.
    Askfor,
    /// One recursively split item: peers must steal to share the tree.
    Steal,
    /// A ring pipeline over per-pid full/empty channels: each process
    /// produces into its own channel and consumes from its left
    /// neighbor's, so consumes genuinely block and force the schedules
    /// to interleave.  (An uncontended token ring would never block —
    /// decision points only occur at blocking waits — and on the
    /// Cray-2 the 80k-cycle creation stagger would then serialize the
    /// whole run into its single possible schedule.)
    FullEmpty,
}

impl Native {
    pub fn all() -> [Native; 4] {
        [
            Native::Barrier,
            Native::Askfor,
            Native::Steal,
            Native::FullEmpty,
        ]
    }

    pub fn name(self) -> &'static str {
        match self {
            Native::Barrier => "barrier",
            Native::Askfor => "askfor",
            Native::Steal => "steal",
            Native::FullEmpty => "fullempty",
        }
    }

    /// What the body shares, built before the run so that every pid sees
    /// the same: the ring's channels.
    pub fn channels(self, force: &Force) -> Option<AsyncArray<u64>> {
        (self == Native::FullEmpty).then(|| AsyncArray::new(force.machine(), force.nproc()))
    }

    /// One process's part of the program.
    pub fn body(self, p: &Player, chans: Option<&AsyncArray<u64>>) {
        match self {
            Native::Barrier => {
                for _ in 0..3 {
                    p.critical("FUZZ", || {});
                    p.barrier();
                }
            }
            Native::Askfor => p.askfor(
                || (1..=4u32).collect(),
                |w, pot| {
                    if w > 1 {
                        pot.post(w - 1);
                    }
                },
            ),
            Native::Steal => p.askfor(
                || vec![16u32],
                |w, pot| {
                    if w > 1 {
                        pot.post(w / 2);
                        pot.post(w - w / 2);
                    }
                },
            ),
            Native::FullEmpty => {
                let chans = chans.expect("channels built before the run");
                let me = p.pid();
                let left = (me + p.nproc() - 1) % p.nproc();
                for i in 0..8u64 {
                    chans.produce(me, i);
                    let _ = chans.consume(left);
                }
            }
        }
    }
}
