//! Convenience re-exports for writing Force programs.
//!
//! ```
//! use force_core::prelude::*;
//!
//! let force = Force::new(4);
//! force.run(|p| {
//!     p.presched_do(ForceRange::to(1, 10), |_i| { /* ... */ });
//! });
//! ```

pub use crate::askfor::AskforPot;
pub use crate::asyncvar::{Async, AsyncArray};
pub use crate::barrier::TwoLockBarrier;
pub use crate::critical::CriticalSection;
pub use crate::force::Force;
pub use crate::player::Player;
pub use crate::resolve::Component;
pub use crate::schedule::{ForceRange, SchedulePolicy};
pub use crate::shared::{SharedCell, SharedF64Array, SharedF64Matrix, SharedI64Array};
pub use force_machdep::{
    FaultInjection, ForcePool, Machine, MachineId, ProcessFault, ProfileReport, RunOptions,
};
