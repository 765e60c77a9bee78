//! Simulated cost model.
//!
//! The original six machines differed by orders of magnitude in the price
//! of their primitives (§4.1.1 notes the "large process creation and
//! context switching cost" of the fork/join machines versus HEP's
//! subroutine-call creation).  Running on one host erases those
//! differences, so each machine personality carries a cycle-cost table;
//! the interpreter and the reproduction harness charge it per primitive to
//! recover the *relative* shapes.
//!
//! The numbers are plausible magnitudes for the late-1980s machines, not
//! measurements; only their ratios matter to the experiments.

/// Cycle costs of the machine-dependent primitives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostModel {
    /// One lock or unlock operation, uncontended.
    pub lock_op: u64,
    /// One lock acquisition that had to wait (adds to `lock_op`).
    pub contended_lock: u64,
    /// One operating-system call.
    pub syscall: u64,
    /// Creating one process.
    pub process_create: u64,
    /// One hardware full/empty produce or consume.
    pub fullempty_op: u64,
    /// One shared-memory word access.
    pub shared_access: u64,
}

impl CostModel {
    /// Cost table for a software test&set lock machine with UNIX fork
    /// (Sequent Balance, Encore Multimax).
    pub fn fork_spin() -> Self {
        CostModel {
            lock_op: 12,
            contended_lock: 60,
            syscall: 1_500,
            process_create: 60_000,
            fullempty_op: 80, // emulated with two locks: not hardware
            shared_access: 3,
        }
    }

    /// Alliant FX/8: fork is cheaper (data already shared), vendor locks
    /// are fast.
    pub fn alliant() -> Self {
        CostModel {
            lock_op: 10,
            contended_lock: 50,
            syscall: 1_200,
            process_create: 25_000,
            fullempty_op: 70,
            shared_access: 3,
        }
    }

    /// Flex/32 combined locks: cheap when short, syscall when long.
    pub fn flex() -> Self {
        CostModel {
            lock_op: 15,
            contended_lock: 80,
            syscall: 1_800,
            process_create: 40_000,
            fullempty_op: 90,
            shared_access: 3,
        }
    }

    /// Cray-2: every lock operation is an OS call.
    pub fn cray() -> Self {
        CostModel {
            lock_op: 800,
            contended_lock: 1_600,
            syscall: 800,
            process_create: 80_000,
            fullempty_op: 2_400,
            shared_access: 2,
        }
    }

    /// HEP: hardware full/empty on every cell, process creation by
    /// subroutine call.
    pub fn hep() -> Self {
        CostModel {
            lock_op: 4,
            contended_lock: 8,
            syscall: 2_000,
            process_create: 150,
            fullempty_op: 4,
            shared_access: 4,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hep_creation_is_orders_cheaper_than_fork() {
        let hep = CostModel::hep();
        let fork = CostModel::fork_spin();
        assert!(fork.process_create / hep.process_create >= 100);
    }

    #[test]
    fn cray_locks_cost_a_syscall() {
        let cray = CostModel::cray();
        assert!(cray.lock_op >= cray.syscall / 2);
        let spin = CostModel::fork_spin();
        assert!(spin.lock_op < spin.syscall / 10);
    }

    #[test]
    fn hep_fullempty_is_hardware_cheap() {
        assert!(CostModel::hep().fullempty_op < CostModel::fork_spin().fullempty_op / 10);
    }
}
