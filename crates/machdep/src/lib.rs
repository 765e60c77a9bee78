//! # force-machdep — the machine-dependent layer of The Force
//!
//! This crate is the Rust rendering of §4.1 of Jordan, Benten, Alaghband &
//! Jakob, *The Force: A Highly Portable Parallel Programming Language*
//! (ICPP 1989): the small set of machine-dependent primitives on which the
//! whole language is built, together with six simulated *machine
//! personalities* standing in for the multiprocessors that hosted the
//! original implementation.
//!
//! The paper's machine-dependent macro list maps to this crate as follows:
//!
//! | paper macro | here |
//! |---|---|
//! | `force_environment` | `force_core::Force`'s barrier locks `BARWIN`/`BARWOT` and named-lock table, or force-prep's `ZZFENV` block, on a [`Session`]'s [`FaultPlane`] |
//! | `define_lock` / `init_lock` / `lock` / `unlock` | [`RawLock`] and its four implementations |
//! | `shared` / `shared_common` / `async` / `private` | [`SharingModel`] + [`SharedRegion`] |
//! | process creation / driver / `Join` | [`process::ProcessModel`], [`process::spawn_force`], [`session::Session`] |
//!
//! Everything above this crate (force-core, force-prep, force-fortran,
//! and the job server force-serve on top of the front ends) is machine
//! independent and consumes only these interfaces — which is the paper's
//! portability thesis made into a crate boundary.  What the server takes
//! from this layer is one seam, a served attempt's: a plane lent a
//! server's resident force ([`FaultPlane::lend`], [`FaultPlane::end_loan`],
//! [`LazyPool`]) and tripped once when the attempt's deadline passes
//! ([`FaultPlane::trip_deadline`]), by a helper thread on a
//! [`process::StopGuard`].

#![warn(missing_docs)]

// A `pub mod` is one a caller outside the crate names a path through (the
// comment names it); every other public item is reached by a root re-export.
pub mod combined; // `tests/stress.rs`, `reproduce`: `combined::CombinedLock`
mod cost;
pub mod fault; // force-core, force-fortran: `fault::enter`; `tests/serving.rs`: `fault::check_cancel`
pub mod fullempty; // `reproduce`: `fullempty::HepLock`
pub mod linkreg; // force-fortran: `linkreg::StartupRegistry`
mod lock;
pub mod lockpool; // `reproduce` EXP-11: `lockpool::{LockFactory, LockPool}`
mod machine;
pub mod park; // force-core, force-fortran, `tests/failure_modes.rs`: `park::wait_until`
mod pool;
mod portable;
pub mod process; // `tests/park_guard.rs`: `process::launch_plane`; force-serve: `process::StopGuard`
pub mod session; // `tests/park_guard.rs`: `session::Session::run`, the one run path
mod sharedmem;
pub mod spin; // `reproduce`: `spin::SpinLock`
mod stats;
pub mod syscall_lock; // `tests/stress.rs`, `reproduce`: `syscall_lock::SyscallLock`
pub mod trace; // force-core: `trace::event`; `tests/overcommit.rs`: `trace::EventKind`
mod workq;

pub use cost::CostModel;
pub use fault::{Construct, FaultInjection, FaultPlane, ProcessFault, RunOptions};
pub use fullempty::{FullEmptyState, HepLock};
pub use lock::{with_lock, LockHandle, LockKind, LockState, RawLock};
pub use lockpool::{LockPool, LockRole, ScarceLockError};
pub use machine::{Machine, MachineId, MachineSpec};
pub use park::{
    charge_virtual, current_virtual_ns, default_nproc, ParkBackend, Parker, VirtualSummary,
};
pub use pool::{ForcePool, LazyPool};
pub use portable::{Backoff, CachePadded, Condvar, Mutex, XorShift64};
pub use process::{launch_plane, spawn_force, spawn_force_plane, ChildPrivateInit, ProcessModel};
pub use session::{Session, SessionRun};
pub use sharedmem::{
    BlockRequest, SharedLayout, SharedRegion, SharingError, SharingModel, SharingModelId,
};
pub use stats::{OpStats, StatsHandle, StatsSnapshot};
pub use trace::{
    ConstructProfile, HistogramSnapshot, NamedLockProfile, ProfileReport, TraceEvent, TraceSink,
};
pub use workq::{SchedulePolicy, StealOutcome, WorkQueues};
