//! Machine personalities — the six multiprocessors that hosted the Force.
//!
//! "The Force has been implemented on the HEP, Flex/32, Encore Multimax,
//! Sequent Balance, Alliant FX/8, and Cray-2 multiprocessors." (§2)
//!
//! A [`Machine`] bundles exactly the machine-dependent choices §4.1
//! enumerates: which lock primitive the vendor provides, how shared memory
//! is designated, how processes are created, the page size, whether locks
//! are scarce, and whether full/empty state exists in hardware.  The
//! machine-independent layers (force-core, force-prep, force-fortran)
//! consume only this interface — that separation *is* the paper's
//! portability result.

use std::sync::Arc;

use crate::combined::CombinedLock;
use crate::cost::CostModel;
use crate::fullempty::{FullEmptyState, HepLock};
use crate::lock::{LockHandle, LockKind, LockState};
use crate::lockpool::{LockFactory, LockPool, LockRole, ScarceLockError};
use crate::process::ProcessModel;
use crate::sharedmem::{
    CompileTimeSharing, LinkTimeSharing, PageAlignedSharing, RunTimePagedSharing, SharingModel,
    SharingModelId,
};
use crate::spin::SpinLock;
use crate::stats::{OpStats, StatsHandle};
use crate::syscall_lock::SyscallLock;

/// The six machines of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MachineId {
    /// Denelcor HEP: hardware full/empty bit per memory cell, process
    /// creation by subroutine call.
    Hep,
    /// Flexible Flex/32: combined spin-then-syscall locks.
    Flex32,
    /// Encore Multimax: run-time shared pages, test&set locks, fork/join.
    EncoreMultimax,
    /// Sequent Balance: link-time sharing (double-run protocol), test&set
    /// locks, fork/join.
    SequentBalance,
    /// Alliant FX/8: shared data segments, page-aligned sharing.
    AlliantFx8,
    /// Cray-2: operating-system locks, locks as a scarce resource.
    Cray2,
}

impl MachineId {
    /// All six machines, in the order the paper lists them.
    pub fn all() -> [MachineId; 6] {
        [
            MachineId::Hep,
            MachineId::Flex32,
            MachineId::EncoreMultimax,
            MachineId::SequentBalance,
            MachineId::AlliantFx8,
            MachineId::Cray2,
        ]
    }

    /// Marketing name.
    pub fn name(self) -> &'static str {
        match self {
            MachineId::Hep => "Denelcor HEP",
            MachineId::Flex32 => "Flexible Flex/32",
            MachineId::EncoreMultimax => "Encore Multimax",
            MachineId::SequentBalance => "Sequent Balance",
            MachineId::AlliantFx8 => "Alliant FX/8",
            MachineId::Cray2 => "Cray-2",
        }
    }

    /// Short lowercase tag used in file names and harness tables.
    pub fn tag(self) -> &'static str {
        match self {
            MachineId::Hep => "hep",
            MachineId::Flex32 => "flex32",
            MachineId::EncoreMultimax => "encore",
            MachineId::SequentBalance => "sequent",
            MachineId::AlliantFx8 => "alliant",
            MachineId::Cray2 => "cray2",
        }
    }

    /// Parse a tag produced by [`tag`](Self::tag).
    pub fn from_tag(tag: &str) -> Option<MachineId> {
        MachineId::all().into_iter().find(|m| m.tag() == tag)
    }
}

/// Static description of one machine's machine-dependent choices.
#[derive(Debug, Clone, Copy)]
pub struct MachineSpec {
    /// Which machine this is.
    pub id: MachineId,
    /// Vendor lock primitive (§4.1.3 taxonomy).
    pub vendor_locks: LockKind,
    /// Shared-memory designation strategy (§4.1.2).
    pub sharing: SharingModelId,
    /// Process creation model (§4.1.1).
    pub process_model: ProcessModel,
    /// Page size in 64-bit words (for the paged sharing models).
    pub page_words: usize,
    /// `Some(n)` if the machine treats locks as a scarce resource with a
    /// pool of `n` physical locks.
    pub lock_pool_capacity: Option<usize>,
    /// Whether full/empty state exists in hardware on every cell.
    pub hardware_fullempty: bool,
    /// A historically plausible processor count, used as the default
    /// force size in portability runs.
    pub historic_nproc: usize,
    /// Simulated cycle costs.
    pub costs: CostModel,
}

impl MachineSpec {
    /// The specification for one of the six machines.
    pub fn of(id: MachineId) -> MachineSpec {
        match id {
            MachineId::Hep => MachineSpec {
                id,
                vendor_locks: LockKind::FullEmpty,
                sharing: SharingModelId::CompileTime,
                process_model: ProcessModel::SpawnByCall,
                page_words: 512,
                lock_pool_capacity: None,
                hardware_fullempty: true,
                historic_nproc: 8,
                costs: CostModel::hep(),
            },
            MachineId::Flex32 => MachineSpec {
                id,
                vendor_locks: LockKind::Combined,
                sharing: SharingModelId::CompileTime,
                process_model: ProcessModel::ForkJoinCopy,
                page_words: 512,
                lock_pool_capacity: None,
                hardware_fullempty: false,
                historic_nproc: 8,
                costs: CostModel::flex(),
            },
            MachineId::EncoreMultimax => MachineSpec {
                id,
                vendor_locks: LockKind::Spin,
                sharing: SharingModelId::RunTimePaged,
                process_model: ProcessModel::ForkJoinCopy,
                page_words: 512,
                lock_pool_capacity: None,
                hardware_fullempty: false,
                historic_nproc: 8,
                costs: CostModel::fork_spin(),
            },
            MachineId::SequentBalance => MachineSpec {
                id,
                vendor_locks: LockKind::Spin,
                sharing: SharingModelId::LinkTime,
                process_model: ProcessModel::ForkJoinCopy,
                page_words: 512,
                lock_pool_capacity: None,
                hardware_fullempty: false,
                historic_nproc: 8,
                costs: CostModel::fork_spin(),
            },
            MachineId::AlliantFx8 => MachineSpec {
                id,
                vendor_locks: LockKind::Spin,
                sharing: SharingModelId::PageAligned,
                process_model: ProcessModel::SharedDataFork,
                page_words: 512,
                lock_pool_capacity: None,
                hardware_fullempty: false,
                historic_nproc: 8,
                costs: CostModel::alliant(),
            },
            MachineId::Cray2 => MachineSpec {
                id,
                vendor_locks: LockKind::Syscall,
                sharing: SharingModelId::CompileTime,
                process_model: ProcessModel::ForkJoinCopy,
                page_words: 512,
                lock_pool_capacity: Some(32),
                hardware_fullempty: false,
                historic_nproc: 4,
                costs: CostModel::cray(),
            },
        }
    }
}

/// A live machine personality: spec + operation accounting + lock pool.
/// Cheap to share (`Arc`) across the force, and across programs: what
/// belongs to one program — its shared layout, its link pass — is made
/// per session ([`sharing_model`](Self::sharing_model)).
pub struct Machine {
    spec: MachineSpec,
    stats: Arc<OpStats>,
    pool: Option<LockPool>,
}

impl Machine {
    /// Boot a machine personality.
    pub fn new(id: MachineId) -> Arc<Machine> {
        let spec = MachineSpec::of(id);
        let stats = Arc::new(OpStats::new());
        let pool = spec.lock_pool_capacity.map(|cap| {
            let st = Arc::clone(&stats);
            let kind = spec.vendor_locks;
            let factory: LockFactory = Arc::new(move |init| make_raw_lock(kind, init, &st));
            LockPool::new(cap, factory, Arc::clone(&stats))
        });
        Arc::new(Machine { spec, stats, pool })
    }

    /// Boot every machine.
    pub fn all() -> Vec<Arc<Machine>> {
        MachineId::all().into_iter().map(Machine::new).collect()
    }

    /// The machine's identity.
    pub fn id(&self) -> MachineId {
        self.spec.id
    }

    /// The machine's static specification.
    pub fn spec(&self) -> &MachineSpec {
        &self.spec
    }

    /// Operation counters for this machine instance.
    pub fn stats(&self) -> &Arc<OpStats> {
        &self.stats
    }

    /// A root [`StatsHandle`] over this machine's counters.  Call
    /// [`StatsHandle::child`] on it to carve out a plane-private counter
    /// block that still rolls up into [`stats`](Self::stats).
    pub fn stats_handle(&self) -> StatsHandle {
        StatsHandle::root(Arc::clone(&self.stats))
    }

    /// Allocate a logical lock using the vendor primitive, honoring lock
    /// scarcity (a Cray-2 allocation beyond the pool aliases a slot).
    pub fn make_lock(&self, initial: LockState) -> LockHandle {
        match &self.pool {
            Some(pool) => pool.allocate(initial),
            None => make_raw_lock(self.spec.vendor_locks, initial, &self.stats),
        }
    }

    /// Allocate a lock bypassing the scarcity pool — used by the
    /// implementation's own environment locks, which the port reserves
    /// ahead of user asynchronous variables.
    pub fn make_dedicated_lock(&self, initial: LockState) -> LockHandle {
        make_raw_lock(self.spec.vendor_locks, initial, &self.stats)
    }

    /// Allocate a *state* lock — one whose locked/unlocked state encodes
    /// data (the empty/full pair of an asynchronous variable) and which
    /// therefore must never alias another slot.  On a scarce-lock
    /// machine this fails with [`ScarceLockError`] once the pool is
    /// exhausted, instead of silently corrupting the protocol; on every
    /// other machine it always succeeds.
    pub fn try_make_state_lock(&self, initial: LockState) -> Result<LockHandle, ScarceLockError> {
        match &self.pool {
            Some(pool) => pool.try_allocate(initial, LockRole::State),
            None => Ok(make_raw_lock(self.spec.vendor_locks, initial, &self.stats)),
        }
    }

    /// Hardware full/empty cell state.  Only the HEP has this in hardware;
    /// other machines must emulate full/empty with two locks (§4.2), which
    /// is the caller's job — hence `None` here.
    pub fn hardware_fullempty(&self, initially_full: bool) -> Option<FullEmptyState> {
        if self.spec.hardware_fullempty {
            Some(if initially_full {
                FullEmptyState::new_full(Arc::clone(&self.stats))
            } else {
                FullEmptyState::new_empty(Arc::clone(&self.stats))
            })
        } else {
            None
        }
    }

    /// The machine's sharing model, for one program: under link-time
    /// sharing (the Sequent) it starts with an empty startup registry,
    /// because the double-run link protocol is per program.
    pub fn sharing_model(&self) -> Box<dyn SharingModel> {
        match self.spec.sharing {
            SharingModelId::CompileTime => Box::new(CompileTimeSharing),
            SharingModelId::LinkTime => Box::new(LinkTimeSharing::default()),
            SharingModelId::RunTimePaged => {
                Box::new(RunTimePagedSharing::new(self.spec.page_words))
            }
            SharingModelId::PageAligned => Box::new(PageAlignedSharing::new(self.spec.page_words)),
        }
    }

    /// Physical lock slots remaining before allocations start aliasing
    /// (`None` = unlimited).
    pub fn free_lock_slots(&self) -> Option<usize> {
        self.pool
            .as_ref()
            .map(|p| p.capacity().saturating_sub(p.allocated()))
    }
}

/// Construct a vendor lock of the given kind.
pub fn make_raw_lock(kind: LockKind, initial: LockState, stats: &Arc<OpStats>) -> LockHandle {
    match kind {
        LockKind::Spin => Arc::new(SpinLock::new(initial, Arc::clone(stats))),
        LockKind::Syscall => Arc::new(SyscallLock::new(initial, Arc::clone(stats))),
        LockKind::Combined => Arc::new(CombinedLock::new(initial, Arc::clone(stats))),
        LockKind::FullEmpty => Arc::new(HepLock::new(initial, Arc::clone(stats))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn six_machines_with_distinct_personalities() {
        let all = Machine::all();
        assert_eq!(all.len(), 6);
        // The taxonomy of §4.1 is covered: every lock kind appears.
        let kinds: std::collections::HashSet<_> =
            all.iter().map(|m| m.spec().vendor_locks).collect();
        assert_eq!(kinds.len(), 4);
        // And every sharing model appears.
        let sharing: std::collections::HashSet<_> = all.iter().map(|m| m.spec().sharing).collect();
        assert_eq!(sharing.len(), 4);
    }

    #[test]
    fn tags_round_trip() {
        for id in MachineId::all() {
            assert_eq!(MachineId::from_tag(id.tag()), Some(id));
        }
        assert_eq!(MachineId::from_tag("vax"), None);
    }

    #[test]
    fn vendor_locks_have_the_declared_kind() {
        for m in Machine::all() {
            let l = m.make_lock(LockState::Unlocked);
            assert_eq!(l.kind(), m.spec().vendor_locks, "{}", m.id().name());
            l.lock();
            l.unlock();
        }
    }

    #[test]
    fn only_hep_has_hardware_fullempty() {
        for m in Machine::all() {
            let fe = m.hardware_fullempty(false);
            assert_eq!(fe.is_some(), m.id() == MachineId::Hep);
        }
    }

    #[test]
    fn cray_locks_are_scarce() {
        let cray = Machine::new(MachineId::Cray2);
        let cap = cray.free_lock_slots().unwrap();
        assert!(cap > 0);
        let mut locks = Vec::new();
        for _ in 0..cap {
            locks.push(cray.make_lock(LockState::Unlocked));
        }
        assert_eq!(cray.free_lock_slots(), Some(0));
        assert_eq!(cray.stats().snapshot().locks_aliased, 0);
        let _extra = cray.make_lock(LockState::Unlocked);
        assert_eq!(cray.stats().snapshot().locks_aliased, 1);
        // Dedicated environment locks bypass the pool.
        let _env = cray.make_dedicated_lock(LockState::Unlocked);
        assert_eq!(cray.stats().snapshot().locks_aliased, 1);
    }

    #[test]
    fn initially_locked_locks_work_on_every_machine() {
        // The Produce/Consume protocol needs create-locked on all ports.
        for m in Machine::all() {
            let l = m.make_lock(LockState::Locked);
            assert!(!l.try_lock(), "{}", m.id().name());
            l.unlock();
            assert!(l.try_lock(), "{}", m.id().name());
            l.unlock();
        }
    }
}
