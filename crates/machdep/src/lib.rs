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
//! | `force_environment` | [`env::ForceEnvironment`] |
//! | `define_lock` / `init_lock` / `lock` / `unlock` | [`lock::RawLock`] and its four implementations |
//! | `shared` / `shared_common` / `async` / `private` | [`sharedmem::SharingModel`] + [`sharedmem::SharedRegion`] |
//! | process creation / driver / `Join` | [`process::ProcessModel`], [`process::spawn_force`], [`session::Session`] |
//!
//! Everything above this crate (force-core, force-prep, force-fortran) is
//! machine independent and consumes only these interfaces — which is the
//! paper's portability thesis made into a crate boundary.

#![warn(missing_docs)]

pub mod combined;
pub mod cost;
pub mod env;
pub mod fault;
pub mod fullempty;
pub mod linkreg;
pub mod lock;
pub mod lockpool;
pub mod machine;
pub mod park;
pub mod pool;
pub mod portable;
pub mod process;
pub mod serve;
pub mod session;
pub mod sharedmem;
pub mod spin;
pub mod stats;
pub mod syscall_lock;
pub mod trace;
pub mod workq;

pub use cost::{CostModel, CycleAccount};
pub use env::ForceEnvironment;
pub use fault::{
    bind_ambient_stats, AmbientStatsGuard, Construct, FaultInjection, FaultPlane, ProcessFault,
    RunOptions,
};
pub use fullempty::{FullEmptyState, HepLock};
pub use lock::{with_lock, LockHandle, LockKind, LockState, RawLock};
pub use lockpool::{LockPool, LockRole, ScarceLockError};
pub use machine::{Machine, MachineId, MachineSpec};
pub use park::{
    charge_virtual, current_virtual_ns, default_nproc, ParkBackend, Parker, VirtualSummary,
};
pub use pool::ForcePool;
pub use portable::{Backoff, CachePadded, Condvar, Mutex, XorShift64};
pub use process::{launch_plane, spawn_force, spawn_force_plane, ChildPrivateInit, ProcessModel};
pub use serve::{
    ForceServer, JobCx, JobError, JobHandle, JobOutcome, JobRunner, JobSpec, JobYield, Priority,
    RateLimit, RejectReason, ServerConfig, ServerReport, Submit, TenantRollup,
};
pub use session::{Session, SessionRun};
pub use sharedmem::{
    BlockRequest, SharedLayout, SharedRegion, SharingError, SharingModel, SharingModelId,
};
pub use stats::{OpStats, StatsHandle, StatsSnapshot};
pub use trace::{
    ConstructProfile, HistogramSnapshot, NamedLockProfile, ProfileReport, TraceConfig, TraceEvent,
    TraceSink,
};
pub use workq::{SchedulePolicy, StealOutcome, WorkQueues};
