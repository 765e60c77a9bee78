//! The Sequent Balance startup-routine registry — §4.1.2.
//!
//! On the Sequent, "sharing of variables is done at link time.  The
//! implementation must provide the linker with the names of all shared
//! variables."  The Force generates a *startup subroutine* in the main
//! program and in every Force subroutine; the main startup calls each
//! subroutine startup so the whole program's shared declarations are
//! reachable.  The program is then run **twice**: the first run executes
//! only the startup routines and pipes linker commands to a UNIX shell,
//! which links and runs the real program the second time.
//!
//! [`StartupRegistry`] models that protocol: modules register their shared
//! blocks (first run), `finalize` produces the linker command stream
//! (the pipe to the shell), and only a finalized registry may back a
//! link-time [`SharingModel`](crate::SharingModel) layout (second run).

use std::collections::HashMap;

use crate::portable::Mutex;

/// Collects shared-variable declarations from every program module.
pub struct StartupRegistry {
    inner: Mutex<RegistryInner>,
}

#[derive(Default)]
struct RegistryInner {
    /// module name -> blocks it declared
    modules: Vec<(String, Vec<(String, usize)>)>,
    /// block name -> words (merged across modules; COMMON blocks with the
    /// same name are the same storage, so sizes must agree)
    blocks: HashMap<String, usize>,
    finalized: bool,
    commands: Vec<String>,
}

impl StartupRegistry {
    /// A fresh registry in the "first run" (collecting) phase.
    pub fn new() -> Self {
        StartupRegistry {
            inner: Mutex::new(RegistryInner::default()),
        }
    }

    /// A module's startup routine reporting its shared blocks.
    ///
    /// Re-registration of the same block name with the same size is legal
    /// (several modules may declare the same COMMON block).
    ///
    /// # Panics
    /// Panics if called after [`finalize`](Self::finalize) (the real
    /// system cannot add linker input after the link), or if a block is
    /// re-registered with a different size (inconsistent COMMON).
    pub fn register_module(&self, module: &str, blocks: &[(String, usize)]) {
        let mut inner = self.inner.lock();
        assert!(
            !inner.finalized,
            "startup routine ran after the link pass (module `{module}`)"
        );
        for (name, words) in blocks {
            match inner.blocks.get(name) {
                Some(&existing) if existing != *words => {
                    panic!("COMMON block `{name}` declared with {existing} words and {words} words")
                }
                Some(_) => {}
                None => {
                    inner.blocks.insert(name.clone(), *words);
                }
            }
        }
        inner.modules.push((module.to_string(), blocks.to_vec()));
    }

    /// End the first run: emit the linker command stream and switch the
    /// registry into the linked phase.  Idempotent.
    pub fn finalize(&self) -> Vec<String> {
        let mut inner = self.inner.lock();
        if !inner.finalized {
            let mut names: Vec<&String> = inner.blocks.keys().collect();
            names.sort();
            inner.commands = names
                .iter()
                .map(|n| format!("-Z SHARED {n} {}", inner.blocks[n.as_str()]))
                .collect();
            inner.finalized = true;
        }
        inner.commands.clone()
    }

    /// Whether the link pass has happened.
    pub fn is_finalized(&self) -> bool {
        self.inner.lock().finalized
    }

    /// Registered size of a block, if any.
    pub fn registered_size(&self, block: &str) -> Option<usize> {
        self.inner.lock().blocks.get(block).copied()
    }

    /// The linker commands produced by the first run (empty before
    /// finalize).
    pub fn linker_commands(&self) -> Vec<String> {
        self.inner.lock().commands.clone()
    }

    /// Modules that have registered, in registration order.
    pub fn modules(&self) -> Vec<String> {
        self.inner
            .lock()
            .modules
            .iter()
            .map(|(m, _)| m.clone())
            .collect()
    }
}

impl Default for StartupRegistry {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_pass_protocol() {
        let reg = StartupRegistry::new();
        assert!(!reg.is_finalized());
        reg.register_module("MAIN", &[("ZZCOM".into(), 16)]);
        reg.register_module("SUB1", &[("WORK".into(), 128)]);
        let cmds = reg.finalize();
        assert!(reg.is_finalized());
        assert_eq!(cmds, vec!["-Z SHARED WORK 128", "-Z SHARED ZZCOM 16"]);
        assert_eq!(reg.registered_size("WORK"), Some(128));
        assert_eq!(reg.registered_size("NOPE"), None);
    }

    #[test]
    fn shared_common_may_repeat_with_same_size() {
        let reg = StartupRegistry::new();
        reg.register_module("MAIN", &[("ZZCOM".into(), 16)]);
        reg.register_module("SUB1", &[("ZZCOM".into(), 16)]);
        reg.finalize();
        assert_eq!(reg.registered_size("ZZCOM"), Some(16));
        assert_eq!(reg.modules(), vec!["MAIN", "SUB1"]);
    }

    #[test]
    #[should_panic(expected = "declared with 16 words and 8 words")]
    fn inconsistent_common_sizes_panic() {
        let reg = StartupRegistry::new();
        reg.register_module("MAIN", &[("ZZCOM".into(), 16)]);
        reg.register_module("SUB1", &[("ZZCOM".into(), 8)]);
    }

    #[test]
    #[should_panic(expected = "after the link pass")]
    fn registration_after_finalize_panics() {
        let reg = StartupRegistry::new();
        reg.finalize();
        reg.register_module("LATE", &[("X".into(), 1)]);
    }

    #[test]
    fn finalize_is_idempotent() {
        let reg = StartupRegistry::new();
        reg.register_module("MAIN", &[("A".into(), 2)]);
        let a = reg.finalize();
        let b = reg.finalize();
        assert_eq!(a, b);
    }
}
