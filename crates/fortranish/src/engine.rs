//! The execution engine: N bytecode-VM processes over shared COMMON
//! storage on a simulated machine personality.
//!
//! This substitutes for "the manufacturer provided Fortran compiler and
//! linker" of §4.3: it loads the preprocessor's output
//! ([`force_prep::ExpandedProgram`]), lays the shared blocks out through
//! the machine's sharing model (exercising the Encore padding, the
//! Alliant page alignment and the Sequent startup/link protocol), runs
//! the machine-dependent driver, and creates the force with the machine's
//! process model.
//!
//! The lock/unlock/produce/consume *mnemonics* emitted by the level-2
//! macros are runtime services here, and each verifies that it matches
//! the executing machine's personality — re-running expanded code on the
//! wrong machine fails with a machine-mismatch error, while re-running
//! the *source* through the preprocessor ports cleanly.  That asymmetry
//! is the paper's portability claim in executable form.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use force_machdep::fault::{self, Construct};
use force_machdep::linkreg::StartupRegistry;
use force_machdep::{
    trace, FaultPlane, ForcePool, FullEmptyState, LockHandle, LockKind, LockState, Machine, Mutex,
    ProcessModel, ProfileReport, RunOptions, Session, SessionRun, SharedRegion, SharingModel,
    SharingModelId, StatsSnapshot, VirtualSummary,
};
use force_prep::weigh::{arc_bytes, str_bytes, vec_bytes};
use force_prep::{ExpandedProgram, VarClass};

use crate::ast::Ty;
use crate::bytecode::{self, CompiledProgram, VmProc};
use crate::error::{FortError, FortErrorKind};
use crate::program::Program;
use crate::value::Value;

/// A loaded Force program bound to a machine personality, executed one
/// way: by the bytecode VM ([`crate::bytecode`]).
///
/// An `Engine` is a reusable **session**: a machine-dependent
/// [`Session`] (pool, fault plane, the record of the last run) runs
/// every job, and the shared COMMON region and the
/// lock and full/empty-tag tables live for the engine's lifetime and are
/// *reset in place* at the start of every [`run`](Engine::run) instead of
/// being reallocated — re-running a loaded program pays for shared-memory
/// designation and (with a pool attached via [`set_pool`](Engine::set_pool))
/// process creation once, not per run.  All configuration is
/// interior-mutable, so a shared `&Engine` can be watchdog-configured and
/// run from several callers; runs on one session serialize.
pub struct Engine {
    /// The compiled program: bytecode plus the facts the runtime
    /// services need.  Shared (via the expansion's payload slot) with
    /// every other engine loaded from the same expansion.
    bundle: Arc<CompiledBundle>,
    /// Runs every job: machine, counters, default options, pool, plane.
    session: Session,
    env_cells: Vec<String>,
    /// Force shared/async variables: name → (type, words).
    shared_vars: Vec<(String, Ty, usize)>,
    /// The program's resident state, reset in place between runs.
    resident: Resident,
}

/// The engine's resident program state: allocated on first use, reset in
/// place (never reallocated) between runs.
struct Resident {
    /// How this program's shared blocks are designated: the machine's
    /// sharing model, with (on the Sequent) this program's own startup
    /// registry — the link pass happens once per program, not per machine.
    sharing: Box<dyn SharingModel>,
    /// The shared COMMON region; zeroed between runs.
    shared: Mutex<Option<Arc<SharedState>>>,
    /// Lock table: shared word offset → machine lock.  Cleared between
    /// runs — each run's driver re-executes every `init_lock`.
    locks: Mutex<HashMap<usize, LockHandle>>,
    /// HEP full/empty tags: shared word offset → cell tag.  Cleared
    /// between runs (a fresh run's cells start empty).
    tags: Mutex<HashMap<usize, Arc<FullEmptyState>>>,
    /// Offsets of user locks (`ZZINITU`) drawn from a scarce physical
    /// pool.  Empty on machines whose locks are plentiful.
    pooled_user: Mutex<HashSet<usize>>,
    /// Offsets of pooled user criticals that a process still held when it
    /// ended or unwound ([`PooledHolds`]).  A process that faults inside
    /// such a critical never reaches its `unlock`, and because the
    /// *physical* pool slot outlives the run, the wedge outlives it too:
    /// every later run whose `ZZINITU` aliases that slot blocks forever
    /// (the Cray-2 wedged-slot hazard).
    /// [`Engine::release_wedged_user_locks`] drains this list at run
    /// quiescence and frees any still-held slot.  Nothing else takes
    /// this mutex: holds are kept by the process that holds them.
    held_user: Mutex<Vec<usize>>,
}

/// A program as an engine executes it, built once per expansion: the
/// bytecode, plus what the runtime services read (the unit names are
/// `compiled.units`, sorted).
///
/// An expansion cache hands out the same `ExpandedProgram` by `Arc` on
/// every hit, and the bundle rides in its payload slot — so a pooled
/// session (or any repeated [`Engine::from_expanded`] of a cached
/// expansion) skips both the front-end parse and the bytecode
/// compilation and goes straight to execution.  The AST the bytecode
/// was lowered from is dropped at load: it is about four times the size
/// of the bytecode, and nothing an engine does reads it.
pub(crate) struct CompiledBundle {
    pub(crate) compiled: CompiledProgram,
    /// Shared blocks, name → total words, in layout order.
    pub(crate) shared_blocks: Vec<(String, usize)>,
    /// The driver (`PROGRAM`) unit's name.
    pub(crate) driver: String,
}

impl CompiledBundle {
    /// Estimated heap bytes, for the expansion cache's accounting.
    fn heap_bytes(&self) -> usize {
        arc_bytes::<Self>()
            + self.compiled.heap_bytes()
            + vec_bytes(&self.shared_blocks)
            + self
                .shared_blocks
                .iter()
                .map(|(name, _)| str_bytes(name))
                .sum::<usize>()
            + str_bytes(&self.driver)
    }
}

/// The observable result of one run.
#[derive(Debug)]
pub struct RunOutput {
    /// Lines produced by `PRINT *`.
    pub prints: Vec<String>,
    /// Primitive-operation counts for this run (per-machine delta).
    pub stats: StatsSnapshot,
    /// Simulated cycles, from the machine's cost model.
    pub cycles: u64,
    /// Linker commands emitted by the Sequent link pass (empty elsewhere).
    pub linker_commands: Vec<String>,
    /// Final values of the Force shared variables and environment cells.
    pub shared_values: HashMap<String, Vec<Value>>,
    /// Construct-level profile of this run; `Some` only when the run's
    /// [`RunOptions::trace`] was set and a force was actually created.
    pub profile: Option<ProfileReport>,
}

impl RunOutput {
    /// The final value of a shared scalar.
    pub fn shared_scalar(&self, name: &str) -> Option<Value> {
        self.shared_values
            .get(name)
            .and_then(|v| v.first().copied())
    }
}

impl Engine {
    /// Load a preprocessed program onto a machine.
    pub fn from_expanded(
        exp: &ExpandedProgram,
        machine: Arc<Machine>,
    ) -> Result<Engine, FortError> {
        let mut shared_names: HashMap<String, usize> = HashMap::new();
        let mut shared_vars = Vec::new();
        for d in &exp.decls {
            if matches!(d.class, VarClass::Shared | VarClass::Async) {
                let ty = match d.ty.as_str() {
                    "INTEGER" => Ty::Integer,
                    "REAL" => Ty::Real,
                    "LOGICAL" => Ty::Logical,
                    other => {
                        return Err(FortError::general(FortErrorKind::Structure(format!(
                            "unsupported shared type {other}"
                        ))))
                    }
                };
                if shared_names.insert(d.name.clone(), d.words()).is_none() {
                    shared_vars.push((d.name.clone(), ty, d.words()));
                }
            }
        }
        // Parse + bytecode-compile once per expansion: the bundle lives
        // in the expansion's payload slot, so every engine loaded from
        // the same cached `ExpandedProgram` reuses it.  Parse errors
        // surface here; the AST itself does not outlive the compile.
        let bundle = match exp.payload.get::<CompiledBundle>() {
            Some(b) => b,
            None => {
                let program = Program::compile(&exp.code, &shared_names)?;
                let Some(driver) = program.program_unit.map(|n| program.name(n).to_string()) else {
                    return Err(FortError::general(FortErrorKind::Structure(
                        "expanded code has no driver PROGRAM unit".into(),
                    )));
                };
                if program.unit(&exp.main_unit).is_none() {
                    return Err(FortError::general(FortErrorKind::Structure(format!(
                        "main unit {} not found",
                        exp.main_unit
                    ))));
                }
                let bundle = CompiledBundle {
                    compiled: bytecode::compile(&program),
                    shared_blocks: program.shared_blocks.clone(),
                    driver,
                };
                let weight = bundle.heap_bytes();
                exp.payload.attach(Arc::new(bundle), weight)
            }
        };
        Ok(Engine {
            bundle,
            resident: Resident {
                sharing: machine.sharing_model(),
                shared: Mutex::new(None),
                locks: Mutex::new(HashMap::new()),
                tags: Mutex::new(HashMap::new()),
                pooled_user: Mutex::new(HashSet::new()),
                held_user: Mutex::new(Vec::new()),
            },
            session: Session::new(machine),
            env_cells: exp.env_cells.clone(),
            shared_vars,
        })
    }

    /// Attach a resident [`ForcePool`]: a thread-per-pid run that fits it
    /// reuses its workers, any other run uses scoped threads as if no
    /// pool were attached ([`force_machdep::launch_plane`] decides).
    pub fn set_pool(&self, pool: Arc<ForcePool>) {
        self.session.attach_pool(pool);
    }

    /// The Force shared/async variables, name → words: the table
    /// [`Program::compile`] resolves shared references against.
    pub(crate) fn shared_names(&self) -> HashMap<String, usize> {
        self.shared_vars
            .iter()
            .map(|(name, _, words)| (name.clone(), *words))
            .collect()
    }

    /// The machine personality.
    pub fn machine(&self) -> &Arc<Machine> {
        self.session.machine()
    }

    /// Run the driver (which creates the force of `nproc` processes)
    /// with the default [`RunOptions`].
    pub fn run(&self, nproc: usize) -> Result<RunOutput, FortError> {
        self.run_with(nproc, RunOptions::default())
    }

    /// Run the driver under `options` (watchdog bound, fault injection,
    /// tracing, schedule, backend), which apply to this run only.  With a
    /// watchdog, a run whose every process stays blocked with no progress
    /// for the bound is cancelled, and the error names a parked process
    /// and the Force construct it was parked in.
    pub fn run_with(&self, nproc: usize, options: RunOptions) -> Result<RunOutput, FortError> {
        self.run_driver(nproc, options, |rt, driver| {
            let compiled = &self.bundle.compiled;
            let driver = compiled.unit_index(driver).expect("driver unit");
            let mut proc = VmProc::new(rt, compiled, -1, nproc as i64);
            proc.exec(driver, &[]).map(|_| ())
        })
    }

    /// One run of this session: the [`Session`]'s prologue (plane reset,
    /// this engine's [`reset_session`](Self::reset_session), ambient
    /// stats), `exec` executing the named driver unit, and the epilogue
    /// (scarce-lock hygiene, observables).  The executor is the argument —
    /// the bytecode VM from [`run_with`](Self::run_with), the tree-walker
    /// from [`crate::oracle::Oracle`] — so everything around it exists
    /// once.
    pub(crate) fn run_driver(
        &self,
        nproc: usize,
        options: RunOptions,
        exec: impl FnOnce(&Rt<'_>, &str) -> Result<(), FortError>,
    ) -> Result<RunOutput, FortError> {
        let job = |run: &SessionRun| {
            let rt = Rt {
                engine: self,
                run,
                prints: Mutex::new(Vec::new()),
                linker: Mutex::new(Vec::new()),
            };
            let exec_result = exec(&rt, &self.bundle.driver);
            // Scarce-pool hygiene before anything else: a faulting critical
            // holder must not wedge the machine's physical slot for later
            // runs (possibly by a *different* engine sharing this machine).
            self.release_wedged_user_locks();
            exec_result?;
            Ok(self.observe(rt, run.stats()))
        };
        self.session
            .run(nproc, options, || self.reset_session(), job)
    }

    /// A clean run's observables, collected at its quiescence.
    fn observe(&self, rt: Rt<'_>, stats: StatsSnapshot) -> RunOutput {
        let costs = self.machine().spec().costs;
        let cycles = stats.lock_acquires * costs.lock_op
            + stats.lock_releases * costs.lock_op
            + stats.lock_contended * costs.contended_lock
            + stats.syscalls * costs.syscall
            + (stats.fe_produces + stats.fe_consumes) * costs.fullempty_op
            + stats.processes_created * costs.process_create
            + stats.shared_words * costs.shared_access;
        let mut shared_values = HashMap::new();
        if let Some(state) = self.resident.shared.lock().as_ref() {
            for (name, ty, words) in &self.shared_vars {
                if let Some(&base) = state.bases.get(name) {
                    let vals = (0..*words)
                        .map(|i| Value::from_bits(state.region.load_raw(base + i), *ty))
                        .collect();
                    shared_values.insert(name.clone(), vals);
                }
            }
            if let Some(&env_base) = state.bases.get("ZZFENV") {
                for (name, first, words) in self.env_layout() {
                    let vals = (first..first + words)
                        .map(|i| Value::from_bits(state.region.load_raw(env_base + i), Ty::Integer))
                        .collect();
                    shared_values.insert(name.to_string(), vals);
                }
            }
        }
        RunOutput {
            // Summarized while the run's quiescence still holds (the next
            // run's reset wipes the sink); the plane traces only when
            // this run's options asked it to.
            profile: rt.run.plane().profile_report(),
            prints: rt.prints.into_inner(),
            stats,
            cycles,
            linker_commands: rt.linker.into_inner(),
            shared_values,
        }
    }

    /// The environment cells as `ZZFENV` holds them: name, first word
    /// within the block, words.  Entries are `NAME`, or `NAME(words)` for
    /// lock arrays.
    fn env_layout(&self) -> impl Iterator<Item = (&str, usize, usize)> {
        let mut next = 0usize;
        self.env_cells.iter().map(move |cell| {
            let (name, words) = match cell.find('(') {
                Some(p) => {
                    let w: usize = cell[p + 1..cell.len() - 1]
                        .split(',')
                        .map(|d| d.trim().parse::<usize>().unwrap_or(1))
                        .product();
                    (&cell[..p], w)
                }
                None => (cell.as_str(), 1),
            };
            let first = next;
            next += words;
            (name, first, words)
        })
    }

    /// Operation counts of the most recent run (see
    /// [`RunOutput::stats`]); `None` before the first run and after one
    /// that failed.
    pub fn last_job_stats(&self) -> Option<StatsSnapshot> {
        self.session.last_job_stats()
    }

    /// Construct-level profile of the most recent run (see
    /// [`RunOutput::profile`]); `None` when that run did not trace or
    /// failed.  Summarized lazily from the resident sink under the run
    /// lock — call it between runs, never from inside a running program.
    pub fn last_job_profile(&self) -> Option<ProfileReport> {
        self.session.last_job_profile()
    }

    /// Summary of the most recent run's virtual schedule, its replay key:
    /// `None` unless it ran under [`force_machdep::ParkBackend::Virtual`],
    /// kept after a faulted run.  Read it between runs.
    pub fn last_virtual_summary(&self) -> Option<VirtualSummary> {
        self.session.last_virtual_summary()
    }

    /// The session's resident fault plane for a force of `nproc`
    /// processes ([`Session::fault_plane`]): what the serving layer binds
    /// to a job before the run, though the engine forks mid-program.
    pub fn fault_plane(&self, nproc: usize) -> Arc<FaultPlane> {
        self.session.fault_plane(nproc)
    }

    /// Reset the resident program state in place for a new run: zero the
    /// cached shared region (fresh COMMON storage without a fresh
    /// designation pass) and clear the lock and tag tables (each run's
    /// driver re-executes every `init_lock`; full/empty cells start
    /// empty).  The [`Session`] has reset the plane already.
    fn reset_session(&self) {
        if let Some(state) = self.resident.shared.lock().as_ref() {
            state.region.reset();
        }
        self.release_wedged_user_locks();
        self.resident.locks.lock().clear();
        self.resident.tags.lock().clear();
        self.resident.pooled_user.lock().clear();
    }

    /// Free any pooled user-critical slot still held at run quiescence.
    ///
    /// A process that faults inside a `Critical` never executes its
    /// `unlock`.  For plentiful-lock machines the orphaned lock dies
    /// with the session's lock table, but a scarce-pool machine (the
    /// Cray-2) keeps the *physical* slot alive inside the [`Machine`],
    /// and later runs alias onto it — so one faulted critical used to
    /// wedge every subsequent run on the same machine.  Called after
    /// every run (faulted or not) and again defensively from the next
    /// run's reset.  Runs only at quiescence — all force processes have
    /// been joined or unwound — so a still-locked entry can only be a
    /// fault orphan, never a live holder.  It runs before the reset
    /// clears the lock table, which still maps each offset to its lock.
    fn release_wedged_user_locks(&self) {
        let orphans = std::mem::take(&mut *self.resident.held_user.lock());
        if orphans.is_empty() {
            return;
        }
        let locks = self.resident.locks.lock();
        for handle in orphans.iter().filter_map(|offset| locks.get(offset)) {
            if handle.is_locked() {
                handle.unlock();
            }
        }
    }
}

/// Shared storage once allocated: the region plus per-block base offsets.
pub(crate) struct SharedState {
    pub(crate) region: SharedRegion,
    pub(crate) bases: HashMap<String, usize>,
}

/// Per-run runtime state shared by all processes.  The long-lived
/// tables (shared region, locks, tags) live on the engine's [`Resident`]
/// state; this carries only the run-scoped pieces.
pub(crate) struct Rt<'e> {
    pub(crate) engine: &'e Engine,
    /// The session's view of this run: its plane (of the run's width)
    /// and pool.
    pub(crate) run: &'e SessionRun,
    pub(crate) prints: Mutex<Vec<String>>,
    pub(crate) linker: Mutex<Vec<String>>,
}

impl Rt<'_> {
    /// The shared region: reused from the session if a previous run
    /// allocated it (zeroed by the run prologue), otherwise allocated
    /// through the machine's sharing model.  On the Sequent this fails
    /// until the startup/link protocol has run — faithfully.
    pub(crate) fn shared(&self, line: usize) -> Result<Arc<SharedState>, FortError> {
        let mut guard = self.engine.resident.shared.lock();
        if let Some(s) = guard.as_ref() {
            return Ok(Arc::clone(s));
        }
        let machine = self.engine.machine();
        let blocks: Vec<force_machdep::BlockRequest> = self
            .engine
            .bundle
            .shared_blocks
            .iter()
            .map(|(n, w)| force_machdep::BlockRequest::new(n.clone(), *w))
            .collect();
        let layout = self.engine.resident.sharing.layout(&blocks).map_err(|e| {
            FortError::at(
                line,
                FortErrorKind::Runtime(format!("shared memory designation failed: {e}")),
            )
        })?;
        let mut bases = HashMap::new();
        for (n, _) in &self.engine.bundle.shared_blocks {
            let (base, _) = layout.block(n).expect("block laid out");
            bases.insert(n.clone(), base);
        }
        let region = SharedRegion::allocate(layout, machine.stats());
        let state = Arc::new(SharedState { region, bases });
        *guard = Some(Arc::clone(&state));
        Ok(state)
    }

    /// Resolve a lock variable for one process: the session's lock table
    /// and pooled-user set are consulted here, once per process and
    /// variable, and never again by that process's lock operations.
    pub(crate) fn resolve_lock(&self, offset: usize, line: usize) -> Result<ProcLock, FortError> {
        let handle = self.lock_handle(offset, line)?;
        let pooled = self.engine.machine().spec().lock_pool_capacity.is_some()
            && self.engine.resident.pooled_user.lock().contains(&offset);
        Ok(ProcLock { handle, pooled })
    }

    /// The name of the lock variable at a shared offset, for a message.
    fn lock_var_name(&self, offset: usize) -> String {
        let in_env = || {
            let shared = self.engine.resident.shared.lock();
            let word = offset.checked_sub(*shared.as_ref()?.bases.get("ZZFENV")?)?;
            let mut cells = self.engine.env_layout();
            let (name, ..) =
                cells.find(|&(_, first, words)| (first..first + words).contains(&word))?;
            Some(name.to_string())
        };
        in_env().unwrap_or_else(|| format!("at shared word {offset}"))
    }

    pub(crate) fn lock_handle(&self, offset: usize, line: usize) -> Result<LockHandle, FortError> {
        let locks = self.engine.resident.locks.lock();
        locks
            .get(&offset)
            .cloned()
            .ok_or_else(|| FortError::runtime(line, "lock variable used before initialization"))
    }

    pub(crate) fn tag_handle(&self, offset: usize) -> Arc<FullEmptyState> {
        let machine = self.engine.machine();
        let mut tags = self.engine.resident.tags.lock();
        let tag = tags
            .entry(offset)
            .or_insert_with(|| Arc::new(FullEmptyState::new_empty(machine.stats())));
        Arc::clone(tag)
    }
}

// ---- runtime services, shared by the VM and the oracle ---------------
//
// The bytecode VM and the reference interpreter (`crate::oracle`) both
// execute the ZZ* runtime mnemonics through these functions, so the two
// cannot drift: machine-personality checks, lock and full/empty
// semantics, OpStats charging and fault-plane behavior are one
// implementation.  Check *ordering* is part of the contract — a
// machine-personality mismatch is reported before arguments are bound,
// binding errors before arity errors — because the equivalence tests
// compare error text.

/// Map a lock/unlock mnemonic to its vendor lock kind and direction.
pub(crate) fn lock_mnemonic(name: &str) -> Option<(LockKind, bool)> {
    Some(match name {
        "ZZTSLCK" => (LockKind::Spin, true),
        "ZZTSUNL" => (LockKind::Spin, false),
        "ZZOSLCK" => (LockKind::Syscall, true),
        "ZZOSUNL" => (LockKind::Syscall, false),
        "ZZCBLCK" => (LockKind::Combined, true),
        "ZZCBUNL" => (LockKind::Combined, false),
        "ZZFELCK" => (LockKind::FullEmpty, true),
        "ZZFEUNL" => (LockKind::FullEmpty, false),
        _ => return None,
    })
}

/// A lock mnemonic must match the executing machine's vendor locks.
pub(crate) fn check_vendor_locks(
    machine: &Machine,
    kind: LockKind,
    line: usize,
) -> Result<(), FortError> {
    if machine.spec().vendor_locks != kind {
        return Err(FortError::at(
            line,
            FortErrorKind::MachineMismatch {
                expected: kind.name().into(),
                found: machine.spec().vendor_locks.name().into(),
            },
        ));
    }
    Ok(())
}

/// A lock variable as one process sees it ([`Rt::resolve_lock`]).  The
/// bytecode VM keeps these for the life of a process; the oracle
/// resolves before every operation.
pub(crate) struct ProcLock {
    pub(crate) handle: LockHandle,
    /// A user lock on a scarce-pool machine: its holds are kept in the
    /// process's [`PooledHolds`].
    pooled: bool,
}

/// The pooled user locks (scarce-pool machines) one process holds, as
/// `(offset, lock identity)`.  The process keeps them itself, so taking
/// and releasing a pooled lock touches nothing shared but the lock.  A
/// process that ends or unwinds still holding some hands their offsets
/// to the session's `held_user`, whose locks are freed at run quiescence
/// ([`Engine::release_wedged_user_locks`]).
pub(crate) struct PooledHolds<'e> {
    held: Vec<(usize, usize)>,
    orphans: &'e Mutex<Vec<usize>>,
}

impl<'e> PooledHolds<'e> {
    pub(crate) fn new(rt: &Rt<'e>) -> Self {
        PooledHolds {
            held: Vec::new(),
            orphans: &rt.engine.resident.held_user,
        }
    }
}

impl Drop for PooledHolds<'_> {
    fn drop(&mut self) {
        if !self.held.is_empty() {
            self.orphans
                .lock()
                .extend(self.held.iter().map(|&(offset, _)| offset));
        }
    }
}

/// What tells two names of one physical lock apart from two locks: the
/// address the pool's shared `Arc` points at.
fn lock_identity(handle: &LockHandle) -> usize {
    Arc::as_ptr(handle).cast::<()>() as usize
}

/// Acquire or release a resolved lock on behalf of the process whose
/// pooled locks are `holds`.  With tracing armed, an acquire is
/// attributed to the lock *variable's* name (BARWIN/BARWOT, LOOPn, user
/// critical names).  Hold time is not recorded here: the expanded
/// barrier and loop protocols pass lock ownership between processes, so
/// a lock→unlock pairing on one pid would mis-state it.  `named_lock_id`
/// is runtime-armed — it must be consulted per call, never precomputed
/// at compile time.
pub(crate) fn lock_service(
    rt: &Rt<'_>,
    holds: &mut PooledHolds<'_>,
    offset: usize,
    lock: &ProcLock,
    is_lock: bool,
    var_name: Option<&str>,
    line: usize,
) -> Result<(), FortError> {
    // A pooled user lock is held in the process's own list, so that a
    // faulting holder's slot can be freed at run quiescence instead of
    // wedging the machine.
    let ProcLock {
        handle,
        pooled: scarce,
    } = lock;
    if is_lock {
        if *scarce {
            // The pool hands the same physical lock to several names once
            // it is full.  A process that holds one of them and asks for
            // another would wait for itself.
            let id = lock_identity(handle);
            if let Some(&(outer, _)) = holds.held.iter().find(|&&(_, h)| h == id) {
                let capacity = rt.engine.machine().spec().lock_pool_capacity.unwrap_or(0);
                return Err(FortError::runtime(
                    line,
                    format!(
                        "lock variable {} shares a physical lock with {}, which this process \
                         already holds: the machine's pool has {capacity} locks, so nesting \
                         these two would wait forever",
                        rt.lock_var_name(offset),
                        rt.lock_var_name(outer),
                    ),
                ));
            }
        }
        match var_name.and_then(trace::named_lock_id) {
            None => handle.lock(),
            Some(id) => {
                let t0 = trace::now_ns().unwrap_or(0);
                handle.lock();
                let now = trace::now_ns().unwrap_or(t0);
                trace::named_wait(id, now.saturating_sub(t0));
            }
        }
        if *scarce {
            holds.held.push((offset, lock_identity(handle)));
        }
    } else {
        if *scarce {
            if let Some(i) = holds.held.iter().position(|&(o, _)| o == offset) {
                holds.held.swap_remove(i);
            }
        }
        handle.unlock();
    }
    Ok(())
}

/// `ZZINITL`/`ZZINITK`/`ZZINITU`: create a lock at a shared offset.
/// Implementation locks (barrier, loop, Pcase) are held across whole
/// construct episodes, so they come from the port's dedicated reserve;
/// only user locks (`ZZINITU`) draw on the machine's possibly scarce
/// pool.  `ZZINITK` creates the lock already held.
pub(crate) fn init_lock_service(rt: &Rt<'_>, offset: usize, keep_locked: bool, user_pool: bool) {
    let machine = rt.engine.machine();
    let state = if keep_locked {
        LockState::Locked
    } else {
        LockState::Unlocked
    };
    let lock = if user_pool {
        // On scarce-pool machines, remember which offsets map onto pool
        // slots: their acquisitions are registered so a faulting holder
        // cannot wedge the physical slot (see
        // `Engine::release_wedged_user_locks`).
        if machine.spec().lock_pool_capacity.is_some() {
            rt.engine.resident.pooled_user.lock().insert(offset);
        }
        machine.make_lock(state)
    } else {
        machine.make_dedicated_lock(state)
    };
    rt.engine.resident.locks.lock().insert(offset, lock);
}

/// `ZZAINI`: async-variable init, E locked (empty), F unlocked.  These
/// locks *encode state* — E stays locked for as long as the variable is
/// empty — so they must never alias a pooled lock: dedicated reserve.
pub(crate) fn aini_service(rt: &Rt<'_>, e: usize, f: usize) {
    let machine = rt.engine.machine();
    let mut locks = rt.engine.resident.locks.lock();
    locks.insert(e, machine.make_dedicated_lock(LockState::Locked));
    locks.insert(f, machine.make_dedicated_lock(LockState::Unlocked));
}

/// `ZZVOIDL`: void an async variable through its two-lock encoding.
/// Spins until the cell is observably full or empty, honoring a fault
/// plane's cancellation while parked.
pub(crate) fn voidl_service(e: &LockHandle, f: &LockHandle) {
    force_machdep::park::wait_until(Construct::Void, || {
        if e.try_lock() {
            // was full: unlock F to reach the empty state
            f.unlock();
            return true;
        }
        if f.try_lock() {
            // was empty: restore
            f.unlock();
            return true;
        }
        false
    });
}

/// The `ZZH*` mnemonics exist only on hardware full/empty machines.
pub(crate) fn check_hardware_fe(machine: &Machine, line: usize) -> Result<(), FortError> {
    if !machine.spec().hardware_fullempty {
        return Err(FortError::at(
            line,
            FortErrorKind::MachineMismatch {
                expected: "hardware full/empty".into(),
                found: machine.spec().vendor_locks.name().into(),
            },
        ));
    }
    Ok(())
}

/// The fault-plane construct a `ZZH*` mnemonic executes under.
pub(crate) fn hep_construct(name: &str) -> Construct {
    match name {
        "ZZHPRD" => Construct::Produce,
        "ZZHCON" => Construct::Consume,
        "ZZHCPY" => Construct::Copy,
        _ => Construct::Void,
    }
}

/// `ZZHPRD` body: wait-for-empty, store, set full.
pub(crate) fn hep_produce(state: &SharedState, tag: &FullEmptyState, offset: usize, bits: u64) {
    tag.acquire_empty();
    state.region.store_release(offset, bits);
    tag.release_full();
}

/// `ZZHCON` body: wait-for-full, load, set empty.
pub(crate) fn hep_consume(
    state: &SharedState,
    tag: &FullEmptyState,
    offset: usize,
    ty: Ty,
) -> Value {
    tag.acquire_full();
    let v = Value::from_bits(state.region.load_acquire(offset), ty);
    tag.release_empty();
    v
}

/// `ZZHCPY` body: wait-for-full, load, leave full.
pub(crate) fn hep_copy(state: &SharedState, tag: &FullEmptyState, offset: usize, ty: Ty) -> Value {
    tag.acquire_full();
    let v = Value::from_bits(state.region.load_acquire(offset), ty);
    tag.release_full();
    v
}

/// This session's startup registry; only a link-time machine has one.
fn link_registry<'e>(rt: &Rt<'e>, line: usize) -> Result<&'e StartupRegistry, FortError> {
    let sharing = &rt.engine.resident.sharing;
    sharing.link_registry().ok_or_else(|| {
        FortError::at(
            line,
            FortErrorKind::MachineMismatch {
                expected: "link-time sharing".into(),
                found: sharing.id().name().into(),
            },
        )
    })
}

/// `ZZSTRT0`: the Sequent startup pass — every unit's startup routine
/// reports the shared blocks to the link registry.  Re-running an
/// already-linked program skips the first pass (the registry survives
/// with the session).
pub(crate) fn strt0_service(rt: &Rt<'_>, line: usize) -> Result<(), FortError> {
    let registry = link_registry(rt, line)?;
    if registry.is_finalized() {
        return Ok(());
    }
    let bundle = &rt.engine.bundle;
    for unit in &bundle.compiled.units {
        registry.register_module(&unit.name, &bundle.shared_blocks);
    }
    Ok(())
}

/// `ZZLINK`: finalize the Sequent link registry into linker commands.
pub(crate) fn link_service(rt: &Rt<'_>, line: usize) -> Result<(), FortError> {
    *rt.linker.lock() = link_registry(rt, line)?.finalize();
    Ok(())
}

/// `ZZSHPG`: designate run-time shared pages.
pub(crate) fn shpg_service(rt: &Rt<'_>, line: usize) -> Result<(), FortError> {
    let id = rt.engine.machine().spec().sharing;
    if !matches!(
        id,
        SharingModelId::RunTimePaged | SharingModelId::PageAligned
    ) {
        return Err(FortError::at(
            line,
            FortErrorKind::MachineMismatch {
                expected: "run-time shared pages".into(),
                found: id.name().into(),
            },
        ));
    }
    rt.shared(line)?;
    Ok(())
}

/// A process-creation mnemonic must match the machine's process model.
pub(crate) fn check_fork_mnemonic(
    machine: &Machine,
    name: &str,
    line: usize,
) -> Result<(), FortError> {
    let expected = match machine.spec().process_model {
        ProcessModel::ForkJoinCopy => "ZZFORKJ",
        ProcessModel::SharedDataFork => "ZZSFORK",
        ProcessModel::SpawnByCall => "ZZSPAWN",
    };
    if name != expected {
        return Err(FortError::at(
            line,
            FortErrorKind::MachineMismatch {
                expected: format!("{} process creation", machine.spec().process_model.name()),
                found: format!("driver compiled for `{name}`"),
            },
        ));
    }
    Ok(())
}

/// Create the force: run `body(pid)` on every process of the run's
/// plane, reset by the session's prologue, with the session's pool (if
/// any) attached.  A runtime error in one process must not leave its peers
/// parked in a barrier or async wait: the first error trips the fault
/// plane (cancelling the rest of the force) and is reported with its own
/// line number.
pub(crate) fn spawn_force(
    rt: &Rt<'_>,
    line: usize,
    body: &(dyn Fn(usize) -> Result<(), FortError> + Sync),
) -> Result<(), FortError> {
    let first_err: Mutex<Option<FortError>> = Mutex::new(None);
    let run_one = |pid: usize| {
        // With tracing armed, the whole process body is attributed to
        // the interpreter construct; lock parks and named-lock waits
        // nest inside it.
        let _c = fault::enter(Construct::Interpreter);
        if let Err(e) = body(pid) {
            let msg = e.to_string();
            {
                let mut slot = first_err.lock();
                if slot.is_none() {
                    *slot = Some(e);
                }
            }
            fault::trip_current(Construct::Interpreter.name(), msg);
        }
    };
    let spawned = rt.run.launch(run_one);
    if let Some(e) = first_err.lock().take() {
        return Err(e);
    }
    spawned.map_err(|f| {
        FortError::runtime(
            line,
            format!(
                "process {} faulted in {}: {}",
                f.pid, f.construct, f.payload
            ),
        )
    })?;
    Ok(())
}

/// `ZZISFL`/`ZZHISF` must match the machine's full/empty implementation.
pub(crate) fn check_isfull_machine(
    machine: &Machine,
    name: &str,
    line: usize,
) -> Result<(), FortError> {
    if (name == "ZZHISF") != machine.spec().hardware_fullempty {
        return Err(FortError::at(
            line,
            FortErrorKind::MachineMismatch {
                expected: if name == "ZZHISF" {
                    "hardware full/empty".into()
                } else {
                    "two-lock full/empty emulation".into()
                },
                found: machine.spec().vendor_locks.name().into(),
            },
        ));
    }
    Ok(())
}

/// The full/empty snapshot behind `ZZISFL`/`ZZHISF` — the state may
/// change immediately after, exactly as on the original machines.
pub(crate) fn isfull_value(
    rt: &Rt<'_>,
    name: &str,
    offset: usize,
    line: usize,
) -> Result<Value, FortError> {
    if name == "ZZHISF" {
        Ok(Value::Log(rt.tag_handle(offset).is_full()))
    } else {
        // Two-lock encoding: full = E unlocked.
        let e = rt.lock_handle(offset, line)?;
        Ok(Value::Log(!e.is_locked()))
    }
}

/// Actual argument binding.  What it names — an array's dimensions, a
/// unit's name — is borrowed from the program the process executes, so
/// binding an argument copies nothing.
#[derive(Clone, Copy)]
pub(crate) enum ArgVal<'p> {
    /// Reference to shared storage (possibly an array base).
    Shared {
        offset: usize,
        ty: Ty,
        dims: &'p [usize],
    },
    /// A copied-in value (read-only in the callee).
    Value(Value),
    /// A program-unit name (spawn intrinsics).
    Unit(&'p str),
}

/// Result of running a unit.
pub(crate) enum Flow {
    Normal,
    Stop,
}

/// The INTEGER operations that cannot fail — `+ − ×` (wrapping) and the
/// six comparisons — of two INTEGERs; `None` for every other operator.
/// [`eval_binop`]'s definition of them, and the VM's inline fast path.
#[inline]
pub(crate) fn int_binop(op: crate::ast::BinOp, x: i64, y: i64) -> Option<Value> {
    use crate::ast::BinOp::*;
    Some(match op {
        Add => Value::Int(x.wrapping_add(y)),
        Sub => Value::Int(x.wrapping_sub(y)),
        Mul => Value::Int(x.wrapping_mul(y)),
        Eq => Value::Log(x == y),
        Ne => Value::Log(x != y),
        Lt => Value::Log(x < y),
        Le => Value::Log(x <= y),
        Gt => Value::Log(x > y),
        Ge => Value::Log(x >= y),
        Div | Pow | And | Or => return None,
    })
}

/// Numeric/logical binary operation with Fortran coercions.
pub(crate) fn eval_binop(
    op: crate::ast::BinOp,
    a: Value,
    b: Value,
    line: usize,
) -> Result<Value, FortError> {
    use crate::ast::BinOp::*;
    if let (Value::Int(x), Value::Int(y)) = (a, b) {
        if let Some(v) = int_binop(op, x, y) {
            return Ok(v);
        }
    }
    match op {
        And => Ok(Value::Log(a.as_log(line)? && b.as_log(line)?)),
        Or => Ok(Value::Log(a.as_log(line)? || b.as_log(line)?)),
        Eq | Ne if matches!(a, Value::Log(_)) || matches!(b, Value::Log(_)) => {
            let (x, y) = (a.as_log(line)?, b.as_log(line)?);
            Ok(Value::Log(if op == Eq { x == y } else { x != y }))
        }
        Add | Sub | Mul | Div | Pow => match (a, b) {
            (Value::Int(x), Value::Int(y)) => match op {
                Div => {
                    if y == 0 {
                        Err(FortError::runtime(line, "integer division by zero"))
                    } else {
                        // Wraps as `×` does: `MIN / -1` is `MIN * -1`.
                        Ok(Value::Int(x.wrapping_div(y)))
                    }
                }
                Pow => {
                    if y >= 0 {
                        // Fortran: INTEGER ** INTEGER is an INTEGER.
                        // Overflow is a runtime error, not a silent wrap
                        // (and the exponent is not clamped).
                        let r = match x {
                            0 => Some(i64::from(y == 0)),
                            1 => Some(1),
                            -1 => Some(if y % 2 == 0 { 1 } else { -1 }),
                            _ => u32::try_from(y).ok().and_then(|e| x.checked_pow(e)),
                        };
                        r.map(Value::Int).ok_or_else(|| {
                            FortError::runtime(line, format!("integer overflow in {x} ** {y}"))
                        })
                    } else {
                        Ok(Value::Real(
                            (x as f64).powi(y.max(i64::from(i32::MIN)) as i32),
                        ))
                    }
                }
                _ => unreachable!(),
            },
            _ => {
                let x = a.as_real(line)?;
                let y = b.as_real(line)?;
                match op {
                    Add => Ok(Value::Real(x + y)),
                    Sub => Ok(Value::Real(x - y)),
                    Mul => Ok(Value::Real(x * y)),
                    Div => {
                        if y == 0.0 {
                            Err(FortError::runtime(line, "division by zero"))
                        } else {
                            Ok(Value::Real(x / y))
                        }
                    }
                    Pow => Ok(Value::Real(x.powf(y))),
                    _ => unreachable!(),
                }
            }
        },
        Eq | Ne | Lt | Le | Gt | Ge => {
            let r = num_cmp(a, b, line)?;
            use std::cmp::Ordering::*;
            Ok(Value::Log(match op {
                Eq => r == Equal,
                Ne => r != Equal,
                Lt => r == Less,
                Le => r != Greater,
                Gt => r == Greater,
                Ge => r != Less,
                _ => unreachable!(),
            }))
        }
    }
}

/// Numeric comparison with Fortran coercions (the relational-operator
/// core of [`eval_binop`], shared with the VM's fused DO-loop check).
pub(crate) fn num_cmp(a: Value, b: Value, line: usize) -> Result<std::cmp::Ordering, FortError> {
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => Ok(x.cmp(&y)),
        _ => {
            let x = a.as_real(line)?;
            let y = b.as_real(line)?;
            x.partial_cmp(&y)
                .ok_or_else(|| FortError::runtime(line, "comparison with NaN"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::Oracle;
    use force_machdep::MachineId;
    use force_prep::preprocess;

    fn run_on(source: &str, id: MachineId, nproc: usize) -> RunOutput {
        let exp = preprocess(source, id).unwrap();
        let machine = Machine::new(id);
        let engine = Engine::from_expanded(&exp, machine).unwrap();
        engine.run(nproc).unwrap()
    }

    const SUM_PROGRAM: &str = "\
      Force FMAIN of NP ident ME
      Shared INTEGER TOTAL
      Private INTEGER K
      End declarations
      Barrier
      TOTAL = 0
      End barrier
      Selfsched DO 100 K = 1, 100
      Critical LCK
      TOTAL = TOTAL + K
      End critical
100   End selfsched DO
      Join
";

    #[test]
    fn selfscheduled_sum_is_exact_on_every_machine() {
        for id in MachineId::all() {
            for nproc in [1, 3, 4] {
                let out = run_on(SUM_PROGRAM, id, nproc);
                assert_eq!(
                    out.shared_scalar("TOTAL"),
                    Some(Value::Int(5050)),
                    "{} nproc={nproc}",
                    id.name()
                );
                // All processes left the barrier protocol cleanly.
                assert_eq!(out.shared_scalar("ZZNBAR"), Some(Value::Int(0)));
            }
        }
    }

    #[test]
    fn presched_loop_covers_all_indices() {
        let src = "\
      Force FMAIN of NP ident ME
      Shared INTEGER HITS(50)
      Private INTEGER K
      End declarations
      Presched DO 10 K = 1, 50
      HITS(K) = HITS(K) + 1
10    End presched DO
      Join
";
        for nproc in [1, 2, 5] {
            let out = run_on(src, MachineId::AlliantFx8, nproc);
            let hits = &out.shared_values["HITS"];
            assert!(
                hits.iter().all(|v| *v == Value::Int(1)),
                "nproc={nproc}: {hits:?}"
            );
        }
    }

    #[test]
    fn produce_consume_transfers_a_value() {
        let src = "\
      Force FMAIN of NP ident ME
      Shared INTEGER GOT
      Async INTEGER CHAN
      Private INTEGER T
      End declarations
      IF (ME .EQ. 0) THEN
      Produce CHAN = 41 + 1
      ELSE
      Consume CHAN into T
      GOT = T
      END IF
      Join
";
        for id in [MachineId::Hep, MachineId::EncoreMultimax, MachineId::Cray2] {
            let out = run_on(src, id, 2);
            assert_eq!(
                out.shared_scalar("GOT"),
                Some(Value::Int(42)),
                "{}",
                id.name()
            );
        }
    }

    #[test]
    fn sequent_link_pass_emits_linker_commands() {
        let out = run_on(SUM_PROGRAM, MachineId::SequentBalance, 2);
        assert!(
            out.linker_commands.iter().any(|c| c.contains("TOTAL")),
            "{:?}",
            out.linker_commands
        );
        assert!(out.linker_commands.iter().any(|c| c.contains("ZZFENV")));
    }

    #[test]
    fn encore_pads_shared_pages() {
        let out = run_on(SUM_PROGRAM, MachineId::EncoreMultimax, 2);
        assert!(out.stats.padding_words > 0, "{:?}", out.stats);
        let out = run_on(SUM_PROGRAM, MachineId::Flex32, 2);
        assert_eq!(out.stats.padding_words, 0);
    }

    #[test]
    fn machine_mismatch_is_detected() {
        // Preprocess for Encore (test&set) but run on the Cray (OS locks).
        let exp = preprocess(SUM_PROGRAM, MachineId::EncoreMultimax).unwrap();
        let machine = Machine::new(MachineId::Cray2);
        let engine = Engine::from_expanded(&exp, machine).unwrap();
        let err = engine.run(2).unwrap_err();
        assert!(
            matches!(err.kind, FortErrorKind::MachineMismatch { .. }),
            "{err}"
        );
    }

    #[test]
    fn print_output_is_captured() {
        let src = "\
      Force FMAIN of NP ident ME
      Shared INTEGER X
      End declarations
      Barrier
      X = 7
      PRINT *, 'X IS', X
      End barrier
      Join
";
        let out = run_on(src, MachineId::Flex32, 3);
        assert_eq!(out.prints, vec!["X IS 7"]);
    }

    #[test]
    fn hep_uses_fullempty_everywhere() {
        let out = run_on(SUM_PROGRAM, MachineId::Hep, 3);
        assert!(
            out.stats.fe_produces > 0 || out.stats.fe_consumes > 0,
            "{:?}",
            out.stats
        );
        assert_eq!(out.stats.syscalls, 0);
        // and HEP process creation is cheap in simulated cycles
        let cray = run_on(SUM_PROGRAM, MachineId::Cray2, 3);
        assert!(
            cray.cycles > out.cycles,
            "cray {} vs hep {}",
            cray.cycles,
            out.cycles
        );
    }

    #[test]
    fn engine_is_a_reusable_session() {
        let exp = preprocess(SUM_PROGRAM, MachineId::EncoreMultimax).unwrap();
        let machine = Machine::new(MachineId::EncoreMultimax);
        let engine = Engine::from_expanded(&exp, machine).unwrap();
        let first = engine.run(3).unwrap();
        assert_eq!(first.shared_scalar("TOTAL"), Some(Value::Int(5050)));
        assert!(first.stats.shared_words > 0, "first run designates memory");
        for _ in 0..3 {
            let again = engine.run(3).unwrap();
            assert_eq!(again.shared_scalar("TOTAL"), Some(Value::Int(5050)));
            assert_eq!(
                again.stats.shared_words, 0,
                "re-runs reuse the resident region: no designation pass"
            );
        }
    }

    #[test]
    fn pooled_engine_creates_no_processes_per_run() {
        let exp = preprocess(SUM_PROGRAM, MachineId::Flex32).unwrap();
        let machine = Machine::new(MachineId::Flex32);
        let engine = Engine::from_expanded(&exp, Arc::clone(&machine)).unwrap();
        let scoped = engine.run(3).unwrap();
        assert_eq!(scoped.stats.processes_created, 3);
        engine.set_pool(Arc::new(ForcePool::new(4, machine.stats())));
        for _ in 0..3 {
            let pooled = engine.run(3).unwrap();
            assert_eq!(pooled.shared_scalar("TOTAL"), Some(Value::Int(5050)));
            assert_eq!(
                pooled.stats.processes_created, 0,
                "a resident pool amortizes process creation across runs"
            );
        }
    }

    #[test]
    fn per_run_options_catch_a_deadlock_and_the_session_recovers() {
        // Every process consumes from an async variable nobody produces.
        let src = "\
      Force FMAIN of NP ident ME
      Async INTEGER CHAN
      Private INTEGER T
      End declarations
      Consume CHAN into T
      Join
";
        let exp = preprocess(src, MachineId::EncoreMultimax).unwrap();
        let engine = Engine::from_expanded(&exp, Machine::new(MachineId::EncoreMultimax)).unwrap();
        let opts = RunOptions {
            watchdog: Some(std::time::Duration::from_millis(150)),
            ..RunOptions::default()
        };
        let err = engine.run_with(2, opts).unwrap_err();
        assert!(err.to_string().contains("deadlock watchdog"), "{err}");
        // The same session runs again cleanly: the plane is re-armed and
        // the stranded async lock state was cleared.
        let err2 = engine.run_with(2, opts).unwrap_err();
        assert!(err2.to_string().contains("deadlock watchdog"), "{err2}");
    }

    #[test]
    fn traced_run_profiles_interpreter_constructs() {
        let exp = preprocess(SUM_PROGRAM, MachineId::EncoreMultimax).unwrap();
        let engine = Engine::from_expanded(&exp, Machine::new(MachineId::EncoreMultimax)).unwrap();
        let opts = RunOptions {
            trace: true,
            ..RunOptions::default()
        };
        let out = engine.run_with(3, opts).unwrap();
        assert_eq!(out.shared_scalar("TOTAL"), Some(Value::Int(5050)));
        let profile = out.profile.as_ref().expect("traced run carries a profile");
        assert_eq!(profile.nproc, 3);
        let interp = profile
            .construct("interpreter")
            .expect("process bodies are attributed to the interpreter");
        assert_eq!(interp.enters, 3, "one body per process");
        assert!(
            profile.named_locks.iter().any(|l| l.name == "BARWIN"),
            "the expanded barrier's entry lock is profiled by name: {:?}",
            profile
                .named_locks
                .iter()
                .map(|l| &l.name)
                .collect::<Vec<_>>()
        );
        assert_eq!(
            engine.last_job_profile().as_ref(),
            Some(profile),
            "engine accessor mirrors the run output"
        );
        // The next untraced run clears it (no stale profile leaks from
        // the resident plane).
        engine.run(3).unwrap();
        assert!(engine.last_job_profile().is_none());
    }

    #[test]
    fn runtime_errors_have_lines() {
        let src = "\
      Force FMAIN of NP ident ME
      Shared INTEGER A(5)
      Private INTEGER K
      End declarations
      K = 9
      A(K) = 1
      Join
";
        let exp = preprocess(src, MachineId::Flex32).unwrap();
        let engine = Engine::from_expanded(&exp, Machine::new(MachineId::Flex32)).unwrap();
        let err = engine.run(1).unwrap_err();
        assert!(err.to_string().contains("outside 1..5"), "{err}");
    }

    /// Regression: `INTEGER ** INTEGER` is an INTEGER.  The old
    /// interpreter clamped the exponent to 63 and used unchecked
    /// `i64::pow`, silently wrapping (release) or panicking (debug) on
    /// overflow instead of raising a Fortran runtime error.
    #[test]
    fn integer_power_stays_integer_on_both_executors() {
        use crate::ast::BinOp;
        let src = "\
      Force FMAIN of NP ident ME
      Shared INTEGER N
      Shared REAL H
      End declarations
      Barrier
      N = 2 ** 3
      H = 2 ** (-1)
      End barrier
      Join
";
        let exp = preprocess(src, MachineId::EncoreMultimax).unwrap();
        let machine = || Machine::new(MachineId::EncoreMultimax);
        let engine = Engine::from_expanded(&exp, machine()).unwrap();
        let oracle = Oracle::from_expanded(&exp, machine()).unwrap();
        for (executor, out) in [
            ("vm", engine.run(2).unwrap()),
            ("oracle", oracle.run_with(2, RunOptions::default()).unwrap()),
        ] {
            // Exactly Int(8): not Real(8.0), not a wrapped value.
            assert_eq!(out.shared_scalar("N"), Some(Value::Int(8)), "{executor}");
            // A negative exponent still takes the real path.
            assert_eq!(out.shared_scalar("H"), Some(Value::Real(0.5)), "{executor}");
        }

        // Overflow is a checked runtime error, not a clamp or a wrap.
        for (x, y) in [(3, 63), (2, 64), (10, 19), (i64::MAX, 2)] {
            let err = eval_binop(BinOp::Pow, Value::Int(x), Value::Int(y), 4).unwrap_err();
            assert!(
                err.to_string().contains("integer overflow"),
                "{x} ** {y}: {err}"
            );
        }
        // Bases whose powers never overflow accept huge exponents.
        for (x, y, want) in [
            (0, 0, 1),
            (0, i64::MAX, 0),
            (1, i64::MAX, 1),
            (-1, i64::MAX, -1),
            (-1, i64::MAX - 1, 1),
            (2, 62, 1 << 62),
        ] {
            assert_eq!(
                eval_binop(BinOp::Pow, Value::Int(x), Value::Int(y), 1).unwrap(),
                Value::Int(want),
                "{x} ** {y}"
            );
        }
    }
}
