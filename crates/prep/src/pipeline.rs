//! The complete preprocessing pipeline — §4.3 "Implementation Structure".
//!
//! "In a UNIX environment, the compilation of Force programs proceeds in
//! three steps: The stream editor sed translates the Force syntax into
//! parameterized function macros.  Then the macro processor m4 replaces
//! the function macros with Fortran code and the language extensions
//! supporting parallel programming.  This replacement occurs in two
//! steps, as described above.  The machine dependent driver module is put
//! at the beginning of the code."
//!
//! [`preprocess`] runs exactly that pipeline:
//!
//! 1. [`crate::sedpass::sed_pass`] — Force syntax → `ZZ…(args)` calls;
//! 2. m4 pass 1 with the machine-independent statement macros
//!    ([`crate::macros`]) → the *intermediate form* (Fortran + `lock()`,
//!    `unlock()`, `zzprod()` … calls; this is the form shown in the
//!    paper's §4.2 listing and is kept for the golden test);
//! 3. environment-declaration injection — the preprocessor now knows every
//!    loop lock, shared index, Pcase counter and critical lock, and
//!    replaces each unit's `C*ZZENVDECL*` marker with the shared
//!    environment COMMON (the role the generated startup routines play on
//!    the real ports);
//! 4. m4 pass 2 with machine `M`'s macro set
//!    ([`crate::machdep_macros`]) → vendor primitives;
//! 5. the machine-dependent **driver** is generated and put at the
//!    beginning of the code.

use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock, Weak};

use force_machdep::{MachineId, MachineSpec, Mutex, SharingModelId};

use crate::m4::{M4Error, M4};
use crate::machdep_macros::{install_machine_macros, spawn_mnemonic};
use crate::macros::install_statement_macros;
use crate::sedpass::{sed_pass, SedError};
use crate::weigh::{alloc_bytes, arc_bytes, str_bytes, strings_bytes, vec_bytes};

/// The Force variable classification (§3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarClass {
    /// Uniformly shared among all processes.
    Shared,
    /// Strictly private to a single process.
    Private,
    /// Shared with a full/empty state.
    Async,
}

/// One declared Force variable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeclInfo {
    /// Program unit that declared it.
    pub unit: String,
    /// Force storage class.
    pub class: VarClass,
    /// Fortran type (`INTEGER`, `REAL`, `LOGICAL`).
    pub ty: String,
    /// Variable name (dimensions stripped).
    pub name: String,
    /// Array dimensions (empty for scalars).  Must be integer literals.
    pub dims: Vec<usize>,
}

impl DeclInfo {
    /// Total storage in 64-bit words.  The sed pass rejects a
    /// declaration whose product overflows a `usize`, so one that
    /// [`preprocess`] made never saturates.
    pub fn words(&self) -> usize {
        self.dims
            .iter()
            .try_fold(1usize, |words, &d| words.checked_mul(d))
            .unwrap_or(usize::MAX)
            .max(1)
    }
}

/// Preprocessing errors.
#[derive(Debug)]
pub enum PrepError {
    /// Phase-1 (sed) error.
    Sed(SedError),
    /// Macro-expansion error.
    M4(M4Error),
    /// Structural problem in the Force program.
    Semantic(String),
}

impl std::fmt::Display for PrepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PrepError::Sed(e) => write!(f, "sed pass: {e}"),
            PrepError::M4(e) => write!(f, "macro expansion: {e}"),
            PrepError::Semantic(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for PrepError {}

impl From<SedError> for PrepError {
    fn from(e: SedError) -> Self {
        PrepError::Sed(e)
    }
}

impl From<M4Error> for PrepError {
    fn from(e: M4Error) -> Self {
        PrepError::M4(e)
    }
}

/// An opaque, set-once slot for a downstream compiler's artifact.
///
/// An [`ExpansionCache`] hands out the same [`ExpandedProgram`] by `Arc`
/// on every hit, for as long as it is resident or anyone still holds
/// it; anything attached here rides along, so a back end that compiles
/// the expanded code (the `force-fortran` bytecode compiler) gets
/// compiled-unit caching under the same key without the preprocessor
/// depending on it.  The slot is type-erased — the preprocessor neither
/// knows nor cares what is stored — and write-once: concurrent
/// initializers race benignly (the first stored value wins; both are
/// valid for identical expansions).
///
/// The artifact outweighs the expansion it rides on, so
/// [`attach`](Self::attach) takes its weight and reports it to the cache
/// the expansion is resident in: the cache's byte bound covers both.  An
/// expansion that is not resident yet (its source was looked up once)
/// is weighed with its artifact when its second lookup admits it.
#[derive(Default)]
pub struct CompiledPayload {
    /// The artifact and the weight it was attached with.
    slot: OnceLock<(Arc<dyn std::any::Any + Send + Sync>, usize)>,
    /// The cache and key this payload's expansion was looked up under.
    owner: Option<(Weak<Shared>, Key)>,
}

impl CompiledPayload {
    /// The stored artifact, if one of type `T` has been attached.
    pub fn get<T: Send + Sync + 'static>(&self) -> Option<Arc<T>> {
        let (artifact, _) = self.slot.get()?;
        Arc::clone(artifact).downcast::<T>().ok()
    }

    /// The weight the resident artifact was attached with (0: none yet).
    pub fn weight(&self) -> usize {
        self.slot.get().map_or(0, |(_, weight)| *weight)
    }

    /// Attach an artifact of `weight` heap bytes if the slot is still
    /// empty, then return the resident one (ours, or a racing winner's —
    /// interchangeable for a deterministic compiler).  Returns `value`
    /// itself if the resident artifact has a different type (a
    /// programming error, but one that must not turn into a
    /// wrong-program execution).  The winner's weight is added to the
    /// owning cache entry — if the expansion is resident in it and its
    /// admission did not count the artifact already.
    pub fn attach<T: Send + Sync + 'static>(&self, value: Arc<T>, weight: usize) -> Arc<T> {
        let artifact = Arc::clone(&value) as Arc<dyn std::any::Any + Send + Sync>;
        if self.slot.set((artifact, weight)).is_ok() {
            if let Some((cache, key)) = &self.owner {
                if let Some(cache) = cache.upgrade() {
                    cache.grow(key, self, weight);
                }
            }
        }
        self.get().unwrap_or(value)
    }
}

/// A clone shares the artifact but not the cache entry: it is the
/// caller's own copy, resident nowhere.
impl Clone for CompiledPayload {
    fn clone(&self) -> Self {
        let slot = OnceLock::new();
        if let Some(v) = self.slot.get() {
            let _ = slot.set(v.clone());
        }
        CompiledPayload { slot, owner: None }
    }
}

impl std::fmt::Debug for CompiledPayload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self.slot.get() {
            Some(_) => "CompiledPayload(set)",
            None => "CompiledPayload(empty)",
        })
    }
}

/// The result of preprocessing a Force program for one machine.
#[derive(Debug, Clone)]
pub struct ExpandedProgram {
    /// The machine the program was preprocessed for.
    pub machine: MachineId,
    /// The final code: driver first, then the expanded program units.
    pub code: String,
    /// The machine-independent intermediate form (after m4 pass 1) —
    /// the form of the paper's §4.2 listing.
    pub intermediate: String,
    /// The main program unit name (`Force` header).
    pub main_unit: String,
    /// All program unit names, main first.
    pub units: Vec<String>,
    /// The shared-environment cells in COMMON /ZZFENV/ order.
    pub env_cells: Vec<String>,
    /// Which environment cells are lock variables (initialized by the
    /// driver; `BARWOT` is created locked).
    pub env_locks: Vec<String>,
    /// The subset of `env_locks` that are *user* locks (critical
    /// sections): allocated through the machine's scarce-lock pool, while
    /// the implementation's own locks come from a dedicated reserve.
    pub user_locks: Vec<String>,
    /// Every Force variable declaration.
    pub decls: Vec<DeclInfo>,
    /// Names of asynchronous variables.
    pub async_vars: Vec<String>,
    /// Externally compiled Force subroutines (`Externf`).
    pub externf: Vec<String>,
    /// Set-once slot where a back end caches its compiled form of
    /// [`code`](Self::code); see [`CompiledPayload`].
    pub payload: CompiledPayload,
}

impl ExpandedProgram {
    /// All shared (non-async) variable declarations.
    pub fn shared_decls(&self) -> impl Iterator<Item = &DeclInfo> {
        self.decls.iter().filter(|d| d.class == VarClass::Shared)
    }

    /// Estimated bytes this expansion keeps allocated, the struct
    /// included and the [`payload`](Self::payload) artifact excluded
    /// (that one reports its own weight when attached).
    pub(crate) fn heap_bytes(&self) -> usize {
        let lists = [
            &self.units,
            &self.env_cells,
            &self.env_locks,
            &self.user_locks,
            &self.async_vars,
            &self.externf,
        ];
        let decls = vec_bytes(&self.decls)
            + self
                .decls
                .iter()
                .map(|d| {
                    str_bytes(&d.unit) + str_bytes(&d.ty) + str_bytes(&d.name) + vec_bytes(&d.dims)
                })
                .sum::<usize>();
        arc_bytes::<Self>()
            + str_bytes(&self.code)
            + str_bytes(&self.intermediate)
            + str_bytes(&self.main_unit)
            + lists.into_iter().map(strings_bytes).sum::<usize>()
            + decls
    }
}

/// Text-transformation pass counts — one `sed` tick and two `m4` ticks
/// for every miss of an [`ExpansionCache`], none for a hit.  The counters
/// exist so cache behavior is *observable*: a test (or the benchmark)
/// can assert that the hit path did zero pipeline work.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PassCounts {
    /// Completed sed (stream-editor) passes.
    pub sed: u64,
    /// Completed m4 macro-expansion passes (two per full pipeline run).
    pub m4: u64,
}

/// Run the full pipeline for `machine`: uncached, and free of side
/// effects.
pub fn preprocess(source: &str, machine: MachineId) -> Result<ExpandedProgram, PrepError> {
    run_pipeline(source, machine, &mut PassCounts::default())
}

/// The pipeline proper; `passes` is ticked as each pass completes, so a
/// run that fails half way still reports the passes it made.
fn run_pipeline(
    source: &str,
    machine: MachineId,
    passes: &mut PassCounts,
) -> Result<ExpandedProgram, PrepError> {
    // Step 1: sed.
    let macro_form = sed_pass(source)?;
    passes.sed += 1;

    // Step 2: m4 pass 1 (machine independent).
    let mut l1 = M4::new();
    install_statement_macros(&mut l1);
    let intermediate = l1.expand(&macro_form)?;
    passes.m4 += 1;

    // Bookkeeping gathered during pass 1.
    let units: Vec<String> = l1.recorded("units").to_vec();
    if units.is_empty() {
        return Err(PrepError::Semantic(
            "no Force or Forcesub unit found in the source".into(),
        ));
    }
    let main_unit = units[0].clone();
    let decls = parse_decls(l1.recorded("decls"))?;
    let async_vars: Vec<String> = decls
        .iter()
        .filter(|d| d.class == VarClass::Async)
        .map(|d| d.name.clone())
        .collect();
    for d in decls.iter().filter(|d| d.class == VarClass::Async) {
        if d.dims.len() > 1 {
            return Err(PrepError::Semantic(format!(
                "asynchronous variable {} may have at most one dimension in this implementation",
                d.name
            )));
        }
    }
    let externf: Vec<String> = l1.recorded("externf").to_vec();

    let spec = MachineSpec::of(machine);

    // The shared environment: barrier variables first, then everything the
    // statement macros recorded, then the asynchronous-variable locks
    // (two per variable, except on the HEP where the hardware holds the
    // state).
    let mut env_cells: Vec<String> = vec!["ZZNBAR".into(), "BARWIN".into(), "BARWOT".into()];
    let mut env_locks: Vec<String> = vec!["BARWIN".into(), "BARWOT".into()];
    for l in l1.recorded("envlocks") {
        env_cells.push(l.clone());
        env_locks.push(l.clone());
    }
    // User lock variables (critical sections): also environment cells,
    // but allocated through the machine's (possibly scarce) lock pool
    // rather than from the implementation's dedicated reserve.
    let user_locks: Vec<String> = l1.recorded("userlocks").to_vec();
    for l in &user_locks {
        env_cells.push(l.clone());
        env_locks.push(l.clone());
    }
    for v in l1.recorded("envints") {
        env_cells.push(v.clone());
    }
    let async_sizes: Vec<(String, String, usize)> = decls
        .iter()
        .filter(|d| d.class == VarClass::Async)
        .map(|d| (d.name.clone(), d.ty.clone(), d.words()))
        .collect();
    if !spec.hardware_fullempty {
        // One E/F lock pair per *element* — arrays get lock arrays.
        for (v, _ty, words) in &async_sizes {
            for suffix in ["ZZE", "ZZF"] {
                let name = if *words > 1 {
                    format!("{v}{suffix}({words})")
                } else {
                    format!("{v}{suffix}")
                };
                env_cells.push(name.clone());
                env_locks.push(name);
            }
        }
    }

    // Step 3: inject the environment declarations at each unit's marker.
    let env_decl_text = env_declaration(&env_cells, l1.recorded("privints"));
    let injected = inject_env(&intermediate, &env_decl_text);

    // Step 4: m4 pass 2 (machine dependent).
    let mut l2 = M4::new();
    install_machine_macros(&mut l2, machine);
    let expanded = l2.expand(&injected)?;
    passes.m4 += 1;

    // Step 5: the machine-dependent driver module at the beginning.
    let mut code = generate_driver(
        &spec,
        &main_unit,
        &env_locks,
        &user_locks,
        &async_sizes,
        &env_decl_text,
    );
    code.reserve_exact(expanded.len());
    code.push_str(&expanded);

    Ok(ExpandedProgram {
        machine,
        code,
        intermediate,
        main_unit,
        units,
        env_cells,
        env_locks,
        user_locks,
        decls,
        async_vars,
        externf,
        payload: CompiledPayload::default(),
    })
}

/// What marks the line each unit's environment declarations replace.
const ENV_MARKER: &str = "C*ZZENVDECL*";

/// `intermediate` with every marker line (`C*ZZENVDECL*<unit>`, blanks
/// around it allowed) replaced by a comment naming the unit and
/// `env_decl_text`, every line ending in one `\n` (as `str::lines` cuts
/// them).  The text between markers is copied in one piece.
fn inject_env(intermediate: &str, env_decl_text: &str) -> String {
    let text: Cow<'_, str> = if intermediate.contains('\r')
        || !intermediate.is_empty() && !intermediate.ends_with('\n')
    {
        Cow::Owned(intermediate.lines().flat_map(|l| [l, "\n"]).collect())
    } else {
        Cow::Borrowed(intermediate)
    };
    let mut injected = String::with_capacity(text.len() + 4 * env_decl_text.len());
    // `text[copied..]` is not in `injected` yet.
    let (mut copied, mut from) = (0, 0);
    while let Some(k) = text[from..].find(ENV_MARKER) {
        let at = from + k;
        let start = text[..at].rfind('\n').map_or(0, |i| i + 1);
        let end = at + text[at..].find('\n').expect("every line ends in one");
        if let Some(unit) = text[start..end].trim().strip_prefix(ENV_MARKER) {
            injected.push_str(&text[copied..start]);
            let _ = writeln!(
                injected,
                "C --- parallel environment for {} ---",
                unit.trim()
            );
            injected.push_str(env_decl_text);
            copied = end + 1;
        }
        from = end;
    }
    injected.push_str(&text[copied..]);
    injected
}

/// Cache key: *(source hash, machine personality)*.
type Key = (u64, MachineId);

/// One resident entry of an [`ExpansionCache`].
struct Entry {
    /// The full source, so a hash collision degrades to a recompute,
    /// never to serving the wrong expansion.
    source: Box<str>,
    program: Arc<ExpandedProgram>,
    /// Accounted bytes: the source, the expansion, and the artifact in
    /// its [`CompiledPayload`] once that is counted.
    weight: usize,
    /// Whether `weight` counts the payload's artifact: set by an
    /// admission that finds one attached, or else by the attach.
    charged: bool,
    /// This entry's node in [`State::order`].
    node: usize,
}

/// A source looked up once: what its second lookup needs to admit it.
struct Record {
    /// The full source, compared on the second lookup as an entry's is.
    source: Box<str>,
    /// The expansion the first lookup returned.  The second lookup
    /// admits that very `Arc` if anyone still holds it.
    program: Weak<ExpandedProgram>,
    /// This record's node in [`State::arrivals`].
    node: usize,
}

/// What an entry costs besides its source and expansion: the `Entry`,
/// its key, and its slots in the map and the recency index.
const ENTRY_OVERHEAD: usize = 128;

/// What a record costs besides its source: the `Record`, its key, and
/// its slots in the map and the arrival index.
const RECORD_OVERHEAD: usize = 96;

/// The records may weigh at most `capacity / RECORD_SHARE`; the entries
/// get the rest.  A record of a source the size of the examples weighs
/// 0.7–1 kB, so the default instance remembers the last 500–750 one-off
/// sources, and one that comes back within that many others is
/// admitted.  The entries give up 1/16 of their room for that: a larger
/// share would remember sources that come back later, at the hot set's
/// expense.
const RECORD_SHARE: usize = 16;

/// A record's accounted bytes: besides its source and overhead, the
/// `Arc` allocation of the expansion, which its `Weak` keeps from being
/// freed after the last holder has dropped the expansion's buffers.
fn record_weight(source: &str) -> usize {
    RECORD_OVERHEAD + alloc_bytes(source.len()) + arc_bytes::<ExpandedProgram>()
}

/// An entry's accounted bytes without the artifact in its payload.
fn bare_weight(source: &str, program: &ExpandedProgram) -> usize {
    ENTRY_OVERHEAD + alloc_bytes(source.len()) + program.heap_bytes()
}

/// A snapshot of one [`ExpansionCache`]'s counters and occupancy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered without running the pipeline: with a resident
    /// expansion, or by admitting the one a first lookup returned.
    pub hits: u64,
    /// Lookups that ran the pipeline (failed runs included).
    pub misses: u64,
    /// Entries removed to keep their bytes within the capacity.
    pub evictions: u64,
    /// Resident entries.
    pub entries: usize,
    /// Sources looked up once and remembered, not yet resident.
    pub records: usize,
    /// Accounted weight of everything held: entries and records.
    pub bytes: usize,
    /// The records' share of `bytes`.
    pub record_bytes: usize,
    /// Completed sed passes: one per miss that got that far.
    pub sed: u64,
    /// Completed m4 passes: two per miss that expanded.
    pub m4: u64,
}

/// The recency order of the resident keys: a circular doubly linked
/// list threaded through a slab, `nodes[0]` being the sentinel — its
/// `next` is the least recently used key, its `prev` the most recent.
/// A touch is a handful of index writes: no search, no allocation.
/// Never touched, the same list is the records' order of arrival.
struct Recency {
    nodes: Vec<Node>,
    /// Vacant slots of `nodes`.
    free: Vec<usize>,
}

#[derive(Clone, Copy)]
struct Node {
    key: Key,
    prev: usize,
    next: usize,
}

impl Default for Recency {
    fn default() -> Self {
        let sentinel = Node {
            key: (0, MachineId::Hep),
            prev: 0,
            next: 0,
        };
        Recency {
            nodes: vec![sentinel],
            free: Vec::new(),
        }
    }
}

impl Recency {
    fn unlink(&mut self, i: usize) {
        let Node { prev, next, .. } = self.nodes[i];
        self.nodes[prev].next = next;
        self.nodes[next].prev = prev;
    }

    fn link_last(&mut self, i: usize) {
        let last = self.nodes[0].prev;
        self.nodes[i].prev = last;
        self.nodes[i].next = 0;
        self.nodes[last].next = i;
        self.nodes[0].prev = i;
    }

    /// A node for `key`, the most recently used.
    fn push(&mut self, key: Key) -> usize {
        let node = Node {
            key,
            prev: 0,
            next: 0,
        };
        let i = match self.free.pop() {
            Some(i) => {
                self.nodes[i] = node;
                i
            }
            None => {
                self.nodes.push(node);
                self.nodes.len() - 1
            }
        };
        self.link_last(i);
        i
    }

    /// Make node `i` the most recently used.
    fn touch(&mut self, i: usize) {
        if self.nodes[0].prev != i {
            self.unlink(i);
            self.link_last(i);
        }
    }

    fn release(&mut self, i: usize) {
        self.unlink(i);
        self.free.push(i);
    }

    /// The keys, least recently used first.
    fn iter(&self) -> impl Iterator<Item = Key> + '_ {
        std::iter::successors(Some(self.nodes[0].next), |&i| Some(self.nodes[i].next))
            .take_while(|&i| i != 0)
            .map(|i| self.nodes[i].key)
    }
}

#[derive(Default)]
struct State {
    map: HashMap<Key, Entry>,
    order: Recency,
    /// The sources looked up once, and their order of arrival: records
    /// are never touched, so the oldest leaves first.
    records: HashMap<Key, Record>,
    arrivals: Recency,
    /// The counters, `bytes` and `record_bytes`; `entries` and `records`
    /// are read off the maps.
    stats: CacheStats,
}

impl State {
    /// The resident expansion of `source`, made the most recently used.
    fn hit(&mut self, key: &Key, source: &str) -> Option<Arc<ExpandedProgram>> {
        let entry = self.map.get(key).filter(|e| *e.source == *source)?;
        self.order.touch(entry.node);
        Some(Arc::clone(&entry.program))
    }

    /// Unlink the entry under `key`.
    fn remove(&mut self, key: &Key) -> Option<Entry> {
        let entry = self.map.remove(key)?;
        self.order.release(entry.node);
        self.stats.bytes -= entry.weight;
        Some(entry)
    }

    /// Evict least recently used entries into `displaced` until the
    /// entries' bytes fit `capacity`.
    fn evict_to(&mut self, capacity: usize, displaced: &mut Vec<Entry>) {
        while self.stats.bytes - self.stats.record_bytes > capacity {
            let Some(key) = self.order.iter().next() else {
                break;
            };
            displaced.extend(self.remove(&key));
            self.stats.evictions += 1;
        }
    }

    /// Take out the record under `key`.
    fn forget(&mut self, key: &Key) -> Option<Record> {
        let record = self.records.remove(key)?;
        self.arrivals.release(record.node);
        let weight = record_weight(&record.source);
        self.stats.bytes -= weight;
        self.stats.record_bytes -= weight;
        Some(record)
    }

    /// Take out the record of `source`, if `key` holds one: its source,
    /// and the expansion its first lookup returned if that is still held.
    fn recall(
        &mut self,
        key: &Key,
        source: &str,
    ) -> Option<(Box<str>, Option<Arc<ExpandedProgram>>)> {
        if *self.records.get(key)?.source != *source {
            return None;
        }
        let record = self.forget(key)?;
        Some((record.source, record.program.upgrade()))
    }

    /// Remember `program` as the first expansion of `source`, in place of
    /// any record under `key` (a hash collision), the oldest records
    /// leaving to fit `budget`.  A record heavier than the whole budget
    /// is not kept.
    fn record(&mut self, key: Key, source: &str, program: &Arc<ExpandedProgram>, budget: usize) {
        let weight = record_weight(source);
        if weight > budget {
            return;
        }
        self.forget(&key);
        while self.stats.record_bytes + weight > budget {
            let Some(oldest) = self.arrivals.iter().next() else {
                break;
            };
            self.forget(&oldest);
        }
        let node = self.arrivals.push(key);
        let program = Arc::downgrade(program);
        let source = source.into();
        self.records.insert(
            key,
            Record {
                source,
                program,
                node,
            },
        );
        self.stats.bytes += weight;
        self.stats.record_bytes += weight;
    }

    /// Make `program`, weighing `bare` without its artifact, resident
    /// under `key` as the most recently used entry, and evict to fit
    /// `capacity`.  The artifact is read under the lock that
    /// [`Shared::grow`] takes, so it is counted exactly once.  Returns
    /// the resident expansion: a racing admission's if one got here
    /// first, or `program`, uncached, if it outweighs the capacity.
    fn admit(
        &mut self,
        key: Key,
        source: Box<str>,
        program: Arc<ExpandedProgram>,
        bare: usize,
        capacity: usize,
        displaced: &mut Vec<Entry>,
    ) -> Arc<ExpandedProgram> {
        if let Some(resident) = self.hit(&key, &source) {
            return resident;
        }
        let attached = program.payload.slot.get().map(|(_, weight)| *weight);
        let weight = bare.saturating_add(attached.unwrap_or(0));
        if weight > capacity {
            return program;
        }
        // A hash collision: the newer source takes the slot.
        displaced.extend(self.remove(&key));
        let node = self.order.push(key);
        self.map.insert(
            key,
            Entry {
                source,
                program: Arc::clone(&program),
                weight,
                charged: attached.is_some(),
                node,
            },
        );
        self.stats.bytes += weight;
        self.evict_to(capacity, displaced);
        program
    }

    /// The end of a source's first lookup: converge on what a racing
    /// lookup of it left — its resident entry, or the expansion its
    /// record holds, admitted now — or else keep a record of `program`.
    fn first_lookup(
        &mut self,
        key: Key,
        source: &str,
        program: Arc<ExpandedProgram>,
        shared: &Shared,
        displaced: &mut Vec<Entry>,
    ) -> Arc<ExpandedProgram> {
        if let Some(resident) = self.hit(&key, source) {
            return resident;
        }
        if let Some((recorded, Some(first))) = self.recall(&key, source) {
            let bare = bare_weight(&recorded, &first);
            return self.admit(
                key,
                recorded,
                first,
                bare,
                shared.entry_capacity(),
                displaced,
            );
        }
        self.record(key, source, &program, shared.record_budget());
        program
    }
}

/// What an [`ExpansionCache`] shares with the payloads of the
/// expansions it hands out.
struct Shared {
    capacity: usize,
    /// The source hash of the key (a seam: the unit tests force
    /// collisions through it).
    hash: fn(&str) -> u64,
    state: Mutex<State>,
}

impl Shared {
    /// What the records may weigh.
    fn record_budget(&self) -> usize {
        self.capacity / RECORD_SHARE
    }

    /// What the entries may weigh.
    fn entry_capacity(&self) -> usize {
        self.capacity - self.record_budget()
    }

    /// Add an attached artifact's `weight` to the entry `payload` sits
    /// in — unless that entry was evicted meanwhile, or is not admitted
    /// yet, or counted the artifact when it was admitted (then the
    /// weight belongs to whoever holds the expansion, or is counted
    /// already).
    fn grow(&self, key: &Key, payload: &CompiledPayload, weight: usize) {
        let capacity = self.entry_capacity();
        // Declared before the guard, so dropped after it.
        let mut displaced = Vec::new();
        let mut state = self.state.lock();
        let Some(entry) = state.map.get_mut(key) else {
            return;
        };
        if entry.charged || !std::ptr::eq(&entry.program.payload, payload) {
            return;
        }
        entry.charged = true;
        if entry.weight.saturating_add(weight) > capacity {
            // Grown past the entries' whole capacity: this entry leaves
            // and nothing else does.
            displaced.extend(state.remove(key));
            state.stats.evictions += 1;
        } else {
            entry.weight += weight;
            state.stats.bytes += weight;
            state.evict_to(capacity, &mut displaced);
        }
    }
}

fn source_hash(source: &str) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    source.hash(&mut h);
    h.finish()
}

/// A memo of [`preprocess`] keyed by *(source hash, machine
/// personality)*, bounded in bytes, admitting a source on its second
/// lookup and evicting the least recently used.
///
/// Re-running the same program — or porting it across the six
/// personalities, each of which gets its own entry — skips the sed and
/// both m4 passes on a hit and returns the resident [`ExpandedProgram`]
/// by `Arc`: always the same `Arc` for as long as the entry is resident
/// or anyone still holds it.  The hit path does **zero** pipeline work,
/// observable through [`stats`](Self::stats).  Errors are not cached: a
/// failing source re-runs the pipeline on every call.
///
/// A source's first lookup runs the pipeline and keeps only a *record*:
/// the source and a `Weak` to the expansion it returned.  Traffic of
/// one-off programs thus fills the records, which may use 1/16 of the
/// capacity, the oldest leaving first, and never the entries.  The
/// second lookup admits the expansion the first returned, if anyone
/// still holds it (a hit: the caller gets that very `Arc`), or else
/// expands the source again and admits that.
///
/// The bound covers the records, the sources, the expansions and the
/// artifact a back end attaches to an expansion's [`CompiledPayload`].
/// Eviction only drops the cache's own reference: a caller that holds
/// the `Arc` (and an engine loaded from it) keeps a complete, working
/// program, and the next lookup of that source expands it again.  An
/// expansion heavier than the entries' whole share is returned without
/// being cached and evicts nothing.  Memory is taken as entries arrive,
/// never reserved.
pub struct ExpansionCache {
    shared: Arc<Shared>,
}

impl ExpansionCache {
    /// Capacity of the process's [default instance](expansion_cache):
    /// about 700 programs of the size of the examples, compiled.
    pub const DEFAULT_CAPACITY: usize = 8 << 20;

    /// An empty cache that keeps at most `capacity` accounted bytes.
    pub fn new(capacity: usize) -> ExpansionCache {
        ExpansionCache::with_hash(capacity, source_hash)
    }

    fn with_hash(capacity: usize, hash: fn(&str) -> u64) -> ExpansionCache {
        ExpansionCache {
            shared: Arc::new(Shared {
                capacity,
                hash,
                state: Mutex::new(State::default()),
            }),
        }
    }

    /// The byte bound this cache was built with.
    pub fn capacity(&self) -> usize {
        self.shared.capacity
    }

    /// [`preprocess`] through the cache.
    pub fn preprocess(
        &self,
        source: &str,
        machine: MachineId,
    ) -> Result<Arc<ExpandedProgram>, PrepError> {
        let shared = &self.shared;
        let key = ((shared.hash)(source), machine);
        // Declared before the guards, so dropped after them: freeing an
        // entry is hundreds of small `free`s, and every other caller's
        // hit path waits on this lock.
        let mut displaced = Vec::new();
        let recalled = {
            let mut state = shared.state.lock();
            if let Some(program) = state.hit(&key, source) {
                state.stats.hits += 1;
                return Ok(program);
            }
            let recalled = match state.recall(&key, source) {
                Some((recorded, Some(first))) => {
                    state.stats.hits += 1;
                    let bare = bare_weight(&recorded, &first);
                    let capacity = shared.entry_capacity();
                    return Ok(state.admit(key, recorded, first, bare, capacity, &mut displaced));
                }
                Some((recorded, None)) => Some(recorded),
                None => None,
            };
            state.stats.misses += 1;
            recalled
        };

        let mut passes = PassCounts::default();
        let expanded = run_pipeline(source, machine, &mut passes);
        let count = |state: &mut State| {
            state.stats.sed += passes.sed;
            state.stats.m4 += passes.m4;
        };
        let mut program = match expanded {
            Ok(program) => program,
            Err(e) => {
                count(&mut shared.state.lock());
                return Err(e);
            }
        };
        // An expansion remembers where it was looked up, so an artifact
        // attached to it is charged to its entry if it is admitted.
        program.payload.owner = Some((Arc::downgrade(shared), key));
        let Some(recorded) = recalled else {
            let program = Arc::new(program);
            let mut state = shared.state.lock();
            count(&mut state);
            return Ok(state.first_lookup(key, source, program, shared, &mut displaced));
        };
        // The second lookup of a source whose first expansion nobody
        // holds: this one is admitted.
        program.intermediate.shrink_to_fit();
        let bare = bare_weight(&recorded, &program);
        let program = Arc::new(program);
        let mut state = shared.state.lock();
        count(&mut state);
        let capacity = shared.entry_capacity();
        Ok(state.admit(key, recorded, program, bare, capacity, &mut displaced))
    }

    /// Counters and occupancy, read under one lock.
    pub fn stats(&self) -> CacheStats {
        let state = self.shared.state.lock();
        CacheStats {
            entries: state.map.len(),
            records: state.records.len(),
            ..state.stats
        }
    }

    /// The resident expansions with their accounted weights, least
    /// recently used first (diagnostics; walks the whole cache).
    pub fn resident(&self) -> Vec<(Arc<ExpandedProgram>, usize)> {
        let state = self.shared.state.lock();
        state
            .order
            .iter()
            .map(|key| {
                let entry = &state.map[&key];
                (Arc::clone(&entry.program), entry.weight)
            })
            .collect()
    }

    /// Drop every resident expansion and every record (the counters are
    /// kept).
    pub fn clear(&self) {
        let mut state = self.shared.state.lock();
        let map = std::mem::take(&mut state.map);
        let records = std::mem::take(&mut state.records);
        state.order = Recency::default();
        state.arrivals = Recency::default();
        state.stats.bytes = 0;
        state.stats.record_bytes = 0;
        drop(state);
        drop((map, records));
    }
}

impl std::fmt::Debug for ExpansionCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExpansionCache")
            .field("capacity", &self.shared.capacity)
            .field("stats", &self.stats())
            .finish()
    }
}

/// The process's default [`ExpansionCache`]: the one the free functions
/// below — and through them the facade's `run_force_source` and
/// `compile_force_source` — are views of.
pub fn expansion_cache() -> &'static ExpansionCache {
    static DEFAULT: OnceLock<ExpansionCache> = OnceLock::new();
    DEFAULT.get_or_init(|| ExpansionCache::new(ExpansionCache::DEFAULT_CAPACITY))
}

/// [`preprocess`] through the [default cache](expansion_cache).
pub fn preprocess_cached(
    source: &str,
    machine: MachineId,
) -> Result<Arc<ExpandedProgram>, PrepError> {
    expansion_cache().preprocess(source, machine)
}

/// The default cache's [`PassCounts`].
pub fn pass_counts() -> PassCounts {
    let CacheStats { sed, m4, .. } = expansion_cache().stats();
    PassCounts { sed, m4 }
}

/// The default cache's hit and miss counts, in that order.
pub fn expansion_cache_stats() -> (u64, u64) {
    let CacheStats { hits, misses, .. } = expansion_cache().stats();
    (hits, misses)
}

/// Number of entries resident in the default cache.
pub fn expansion_cache_len() -> usize {
    expansion_cache().stats().entries
}

/// The `INTEGER` + `COMMON /ZZFENV/` declarations for the environment,
/// plus the private scratch cells every unit gets: the fixed ones, and
/// any per-loop temps the macros recorded (chunked/guided claims).
fn env_declaration(env_cells: &[String], priv_ints: &[String]) -> String {
    let list = env_cells.join(", ");
    let mut scratch = "ZZPSEC, ZZNXT, ZZT, ZZN1, ZZN2".to_string();
    for v in priv_ints {
        scratch.push_str(", ");
        scratch.push_str(v);
    }
    format!("      INTEGER {list}\n      COMMON /ZZFENV/ {list}\n      INTEGER {scratch}\n")
}

/// Generate the machine-dependent driver (§4.1.1): environment
/// initialization, sharing setup, process creation, join.
fn generate_driver(
    spec: &MachineSpec,
    main_unit: &str,
    env_locks: &[String],
    user_locks: &[String],
    async_sizes: &[(String, String, usize)],
    env_decl_text: &str,
) -> String {
    let mut d = String::new();
    d.push_str("      PROGRAM ZZDRIVE\n");
    d.push_str(&format!("C Force driver for the {} \n", spec.id.name()));
    d.push_str(&format!("C process model: {}\n", spec.process_model.name()));
    d.push_str(&format!("C sharing: {}\n", spec.sharing.name()));
    d.push_str(env_decl_text);
    if async_sizes.iter().any(|(_, _, w)| *w > 1) {
        d.push_str("      INTEGER ZZI\n");
    }
    // The driver initializes the asynchronous variables, so it declares
    // them (they are Force shared variables, global by name).
    for (v, ty, words) in async_sizes {
        if *words > 1 {
            d.push_str(&format!("      {ty} {v}({words})\n"));
        } else {
            d.push_str(&format!("      {ty} {v}\n"));
        }
    }
    match spec.sharing {
        SharingModelId::LinkTime => {
            // Sequent: run the startup routines, then "link" (the paper's
            // double-run protocol, collapsed into two driver calls).
            d.push_str("C link-time sharing: startup routines, then the link pass\n");
            d.push_str("      CALL ZZSTRT0\n");
            d.push_str("      CALL ZZLINK\n");
        }
        SharingModelId::RunTimePaged | SharingModelId::PageAligned => {
            // Encore / Alliant: identify shared pages at run time.
            d.push_str("C run-time sharing: identify and pad the shared pages\n");
            d.push_str("      CALL ZZSHPG\n");
        }
        SharingModelId::CompileTime => {
            d.push_str("C compile-time sharing: nothing to set up\n");
        }
    }
    d.push_str("C initialize the parallel environment\n");
    // Implementation locks come from the port's dedicated reserve
    // (ZZINITL/ZZINITK): on scarce-lock machines the implementation must
    // never let a user lock alias its barrier or loop locks, which are
    // held across whole construct episodes.  User locks (ZZINITU) draw
    // from the machine's pool and may alias each other when it runs dry.
    for l in env_locks {
        let base = l.split('(').next().unwrap_or(l);
        if l == "BARWOT" {
            d.push_str("      CALL ZZINITK(BARWOT)\n");
        } else if base.ends_with("ZZE") || base.ends_with("ZZF") {
            // Asynchronous-variable locks are initialized pairwise below.
            continue;
        } else if user_locks.contains(l) {
            d.push_str(&format!("      CALL ZZINITU({l})\n"));
        } else {
            d.push_str(&format!("      CALL ZZINITL({l})\n"));
        }
    }
    d.push_str("      ZZNBAR = 0\n");
    if !async_sizes.is_empty() {
        d.push_str("C initialize asynchronous variables to empty\n");
        let mut label = 9000;
        for (v, _ty, words) in async_sizes {
            if *words > 1 {
                label += 1;
                d.push_str(&format!("      DO {label} ZZI = 1, {words}\n"));
                if spec.hardware_fullempty {
                    d.push_str(&format!("      CALL ZZHVD({v}(ZZI))\n"));
                } else {
                    d.push_str(&format!("      CALL ZZAINI({v}ZZE(ZZI), {v}ZZF(ZZI))\n"));
                }
                d.push_str(&format!("{label}  CONTINUE\n"));
            } else if spec.hardware_fullempty {
                d.push_str(&format!("      CALL ZZHVD({v})\n"));
            } else {
                d.push_str(&format!("      CALL ZZAINI({v}ZZE, {v}ZZF)\n"));
            }
        }
    }
    d.push_str("C create the force of processes and join at program end\n");
    d.push_str(&format!(
        "      CALL {}({main_unit})\n",
        spawn_mnemonic(spec.id)
    ));
    d.push_str("      END\n");
    d
}

/// Parse the `unit|class|type|item` entries of the `decls` list.
fn parse_decls(entries: &[String]) -> Result<Vec<DeclInfo>, PrepError> {
    let mut out = Vec::with_capacity(entries.len());
    for e in entries {
        let mut parts = e.splitn(4, '|');
        let (unit, class, ty, item) = match (parts.next(), parts.next(), parts.next(), parts.next())
        {
            (Some(u), Some(c), Some(t), Some(i)) => (u, c, t, i),
            _ => return Err(PrepError::Semantic(format!("malformed decl entry `{e}`"))),
        };
        let class = match class {
            "shared" => VarClass::Shared,
            "private" => VarClass::Private,
            "async" => VarClass::Async,
            other => {
                return Err(PrepError::Semantic(format!(
                    "unknown storage class `{other}`"
                )))
            }
        };
        let (name, dims) = parse_item(item)?;
        out.push(DeclInfo {
            unit: unit.to_string(),
            class,
            ty: ty.to_string(),
            name,
            dims,
        });
    }
    Ok(out)
}

/// Parse `NAME` or `NAME(d1[,d2])` with literal integer dimensions.
fn parse_item(item: &str) -> Result<(String, Vec<usize>), PrepError> {
    let item = item.trim();
    match item.find('(') {
        None => Ok((item.to_string(), Vec::new())),
        Some(p) => {
            let name = item[..p].trim().to_string();
            let inner = item[p..]
                .strip_prefix('(')
                .and_then(|s| s.strip_suffix(')'))
                .ok_or_else(|| {
                    PrepError::Semantic(format!("malformed array declaration `{item}`"))
                })?;
            let mut dims = Vec::new();
            for d in inner.split(',') {
                let n: usize = d.trim().parse().map_err(|_| {
                    PrepError::Semantic(format!(
                        "array dimension `{d}` in `{item}` must be an integer literal"
                    ))
                })?;
                if n == 0 {
                    return Err(PrepError::Semantic(format!(
                        "array dimension must be positive in `{item}`"
                    )));
                }
                dims.push(n);
            }
            Ok((name, dims))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_injection_copies_spans_and_ends_every_line_once() {
        // What injecting line by line gives.
        let by_lines = |text: &str| {
            let mut out = String::new();
            for line in text.lines() {
                match line.trim().strip_prefix(ENV_MARKER) {
                    Some(unit) => {
                        out.push_str(&format!(
                            "C --- parallel environment for {} ---\n",
                            unit.trim()
                        ));
                        out.push_str("ENV\n");
                    }
                    None => out.push_str(&format!("{line}\n")),
                }
            }
            out
        };
        for text in [
            "",
            "      X = 1\n",
            "C*ZZENVDECL*A\n      X = 1\n   C*ZZENVDECL* B  \nY\n",
            "X C*ZZENVDECL*A\nC*ZZENVDECL*B",
            "A\r\nC*ZZENVDECL*U\r\nB\r\r\n",
        ] {
            assert_eq!(inject_env(text, "ENV\n"), by_lines(text), "{text:?}");
        }
    }

    /// A small but complete Force program exercising most constructs.
    const PROGRAM: &str = "\
      Force FMAIN of NP ident ME
      Shared INTEGER TOTAL
      Async INTEGER CHAN
      Private INTEGER K, T
      End declarations
      Barrier
      TOTAL = 0
      End barrier
      Selfsched DO 100 K = 1, 10
      Critical LCK
      TOTAL = TOTAL + K
      End critical
100   End selfsched DO
      Produce CHAN = TOTAL
      Consume CHAN into T
      Join
";

    /// The `i`-th of a family of distinct sources.
    fn variant(i: usize) -> String {
        PROGRAM.replace("TOTAL", &format!("T{i}"))
    }

    /// The accounted bytes equal the sum of the entries' and the
    /// records' weights, every weight is its parts added up, and each
    /// share fits its bound.
    fn assert_accounting(cache: &ExpansionCache) {
        let shared = &cache.shared;
        let state = shared.state.lock();
        assert_eq!(state.map.len(), state.order.iter().count());
        assert_eq!(
            state.map.len() + state.order.free.len() + 1,
            state.order.nodes.len()
        );
        assert_eq!(state.records.len(), state.arrivals.iter().count());
        let mut entries = 0;
        for key in state.order.iter() {
            let entry = &state.map[&key];
            assert_eq!(state.order.nodes[entry.node].key, key);
            assert_eq!(
                entry.weight,
                ENTRY_OVERHEAD
                    + alloc_bytes(entry.source.len())
                    + entry.program.heap_bytes()
                    + entry.program.payload.weight()
            );
            entries += entry.weight;
        }
        let mut records = 0;
        for key in state.arrivals.iter() {
            let record = &state.records[&key];
            assert_eq!(state.arrivals.nodes[record.node].key, key);
            records += record_weight(&record.source);
        }
        assert_eq!(state.stats.record_bytes, records);
        assert_eq!(state.stats.bytes, entries + records);
        assert!(entries <= shared.entry_capacity());
        assert!(records <= shared.record_budget());
        assert!(entries + records <= cache.capacity());
    }

    /// Look `source` up twice, holding the first expansion: the second
    /// lookup admits it and returns it.
    fn admitted(cache: &ExpansionCache, source: &str, id: MachineId) -> Arc<ExpandedProgram> {
        let first = cache.preprocess(source, id).unwrap();
        let second = cache.preprocess(source, id).unwrap();
        assert!(Arc::ptr_eq(&first, &second), "admitted as it was returned");
        second
    }

    /// The accounted weight of one admitted, uncompiled `variant`.
    fn entry_weight(id: MachineId) -> usize {
        let one = ExpansionCache::new(usize::MAX);
        admitted(&one, &variant(0), id);
        one.stats().bytes
    }

    /// A capacity whose entries' share holds `bytes`.
    fn capacity_for(bytes: usize) -> usize {
        bytes + bytes / (RECORD_SHARE - 1) + RECORD_SHARE
    }

    #[test]
    fn cached_preprocessing_does_zero_pipeline_work_on_a_hit() {
        let cache = ExpansionCache::new(1 << 20);
        let first = cache.preprocess(PROGRAM, MachineId::AlliantFx8).unwrap();
        let recorded = cache.stats();
        assert_eq!((recorded.hits, recorded.misses), (0, 1));
        assert_eq!((recorded.sed, recorded.m4), (1, 2));
        assert_eq!((recorded.entries, recorded.records), (0, 1));
        // The second lookup admits the expansion the first returned.
        let admitted = cache.preprocess(PROGRAM, MachineId::AlliantFx8).unwrap();
        let before = cache.stats();
        assert_eq!(
            before,
            CacheStats {
                hits: 1,
                entries: 1,
                records: 0,
                bytes: before.bytes,
                record_bytes: 0,
                ..recorded
            },
            "admitting runs no sed or m4 pass"
        );
        let again = cache.preprocess(PROGRAM, MachineId::AlliantFx8).unwrap();
        assert_eq!(
            cache.stats(),
            CacheStats { hits: 2, ..before },
            "the hit path must run no sed or m4 pass"
        );
        assert!(
            Arc::ptr_eq(&first, &admitted) && Arc::ptr_eq(&first, &again),
            "a hit returns the first expansion, not a copy"
        );
        assert_accounting(&cache);
    }

    #[test]
    fn a_source_is_resident_from_its_second_lookup() {
        let cache = ExpansionCache::new(1 << 20);
        // Looked up once and dropped: a record, not an entry.
        drop(cache.preprocess(PROGRAM, MachineId::Hep).unwrap());
        let once = cache.stats();
        assert_eq!((once.misses, once.entries, once.records), (1, 0, 1));
        assert_eq!(once.bytes, once.record_bytes);
        assert_eq!(once.record_bytes, record_weight(PROGRAM));
        assert_accounting(&cache);
        // Nobody holds the first expansion: the second lookup expands the
        // source again and admits that expansion.
        let second = cache.preprocess(PROGRAM, MachineId::Hep).unwrap();
        let twice = cache.stats();
        assert_eq!((twice.hits, twice.misses), (0, 2));
        assert_eq!((twice.sed, twice.m4), (2, 4));
        assert_eq!(
            (twice.entries, twice.records, twice.record_bytes),
            (1, 0, 0)
        );
        assert_eq!(
            second.intermediate.capacity(),
            second.intermediate.len(),
            "an admitted expansion is trimmed"
        );
        let third = cache.preprocess(PROGRAM, MachineId::Hep).unwrap();
        assert!(Arc::ptr_eq(&second, &third));
        assert_eq!(cache.stats(), CacheStats { hits: 1, ..twice });
        assert_accounting(&cache);
    }

    #[test]
    fn one_off_sources_fill_only_the_record_budget_oldest_out_first() {
        let cache = ExpansionCache::new(capacity_for(20 * entry_weight(MachineId::Hep)));
        let budget = cache.shared.record_budget();
        let room = budget / record_weight(&variant(1000));
        assert!(room >= 4, "{room} records fit");
        let mut held = Vec::new();
        for i in 0..(4 * room) {
            held.push(
                cache
                    .preprocess(&variant(1000 + i), MachineId::Hep)
                    .unwrap(),
            );
            let stats = cache.stats();
            assert_eq!(stats.entries, 0, "a one-off source is never admitted");
            assert!(stats.record_bytes <= budget, "{stats:?}");
            assert_eq!(stats.records, (i + 1).min(room));
        }
        assert_eq!(cache.stats().evictions, 0);
        assert_accounting(&cache);
        // The newest `room` sources are remembered and admitted on their
        // second lookup; an older one is a first lookup again.
        let newest = 4 * room - 1;
        let again = cache.preprocess(&variant(1000 + newest), MachineId::Hep);
        assert!(Arc::ptr_eq(&held[newest], &again.unwrap()));
        let misses = cache.stats().misses;
        let oldest = cache.preprocess(&variant(1000), MachineId::Hep).unwrap();
        assert!(!Arc::ptr_eq(&held[0], &oldest));
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.entries), (misses + 1, 1));
        assert_accounting(&cache);
        // Records weigh their source and what a dead `Weak` pins, not the
        // expansion: dropping every holder moves no byte.
        drop(held);
        assert_eq!(cache.stats(), stats);
        cache.clear();
        let cleared = cache.stats();
        assert_eq!((cleared.entries, cleared.records), (0, 0));
        assert_eq!((cleared.bytes, cleared.record_bytes), (0, 0));
    }

    #[test]
    fn cache_is_keyed_per_machine_personality() {
        let cache = ExpansionCache::new(1 << 20);
        let mut programs = Vec::new();
        for id in MachineId::all() {
            programs.push(admitted(&cache, PROGRAM, id));
        }
        // Six personalities, six distinct expansions — porting re-runs
        // the pipeline once per machine, then every re-run is free.
        let before = cache.stats();
        assert_eq!((before.misses, before.sed, before.m4), (6, 6, 12));
        assert_eq!((before.hits, before.entries), (6, 6));
        for (id, first) in MachineId::all().into_iter().zip(&programs) {
            let again = cache.preprocess(PROGRAM, id).unwrap();
            assert!(Arc::ptr_eq(first, &again), "{}", id.name());
        }
        assert_eq!(cache.stats(), CacheStats { hits: 12, ..before });
        assert!(programs[0].code != programs[1].code);
    }

    #[test]
    fn cache_misses_on_changed_source() {
        let cache = ExpansionCache::new(1 << 20);
        let pa = admitted(&cache, &variant(1), MachineId::Hep);
        let pb = cache.preprocess(&variant(2), MachineId::Hep).unwrap();
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 2));
        assert_eq!((stats.entries, stats.records), (1, 1));
        assert_eq!((stats.sed, stats.m4), (2, 4), "new source, new run");
        assert!(!Arc::ptr_eq(&pa, &pb));
    }

    #[test]
    fn failed_runs_count_their_passes_and_cache_nothing() {
        let cache = ExpansionCache::new(1 << 20);
        for _ in 0..2 {
            // Passes sed and m4 pass 1, then fails on the dimension.
            let src = PROGRAM.replace("Async INTEGER CHAN", "Async INTEGER CHAN(2,2)");
            assert!(cache.preprocess(&src, MachineId::Hep).is_err());
        }
        assert_eq!(
            cache.stats(),
            CacheStats {
                misses: 2,
                sed: 2,
                m4: 2,
                ..CacheStats::default()
            }
        );
    }

    /// The only test of this binary that touches the default instance,
    /// so its counts are exact.
    #[test]
    fn the_free_functions_are_views_of_the_default_instance() {
        // The uncached pipeline has no counters to touch.
        preprocess(PROGRAM, MachineId::Hep).unwrap();
        assert_eq!(expansion_cache().stats(), CacheStats::default());
        assert_eq!(
            expansion_cache().capacity(),
            ExpansionCache::DEFAULT_CAPACITY
        );

        let first = preprocess_cached(PROGRAM, MachineId::Hep).unwrap();
        let again = preprocess_cached(PROGRAM, MachineId::Hep).unwrap();
        assert!(Arc::ptr_eq(&first, &again));
        assert_eq!(pass_counts(), PassCounts { sed: 1, m4: 2 });
        assert_eq!(expansion_cache_stats(), (1, 1));
        assert_eq!(expansion_cache_len(), 1);
        expansion_cache().clear();
        assert_eq!(expansion_cache_len(), 0);
        assert_eq!(expansion_cache().stats().bytes, 0);
        assert_eq!(expansion_cache_stats(), (1, 1), "counters survive");
    }

    #[test]
    fn eviction_is_least_recently_used_not_first_in() {
        let weight = entry_weight(MachineId::Flex32);
        // Room for a hot set of 6 plus 12 more of the same size.
        let cache = ExpansionCache::new(capacity_for(18 * weight + weight / 2));
        let hot: Vec<_> = MachineId::all()
            .into_iter()
            .map(|id| (id, admitted(&cache, &variant(0), id)))
            .collect();
        for i in 1..=300 {
            admitted(&cache, &variant(i), MachineId::Flex32);
            assert_accounting(&cache);
            if i % 2 == 0 {
                // One hot lookup per two inserts: each hot entry is
                // touched every 12 inserts, inside the room left.
                let (id, first) = &hot[(i / 2) % hot.len()];
                let again = cache.preprocess(&variant(0), *id).unwrap();
                assert!(Arc::ptr_eq(first, &again), "hot entry evicted at {i}");
            }
        }
        let stats = cache.stats();
        assert_eq!(stats.hits, 306 + 150, "every second and hot lookup hit");
        assert_eq!(stats.misses, 306);
        assert!(stats.evictions > 250, "{stats:?}");
        assert_eq!(stats.entries as u64, stats.misses - stats.evictions);
        // The oldest cold source is long gone; the newest is resident.
        let hits = stats.hits;
        cache.preprocess(&variant(1), MachineId::Flex32).unwrap();
        assert_eq!(cache.stats().hits, hits);
        cache.preprocess(&variant(300), MachineId::Flex32).unwrap();
        assert_eq!(cache.stats().hits, hits + 1);
    }

    #[test]
    fn an_oversized_expansion_is_returned_uncached_and_evicts_nothing() {
        let weight = entry_weight(MachineId::Cray2);
        let cache = ExpansionCache::new(capacity_for(3 * weight));
        let small = admitted(&cache, &variant(0), MachineId::Cray2);
        let before = cache.stats();
        // A loop body long enough to outweigh the whole capacity: its
        // record outweighs the record budget, so it is never admitted.
        let body = "      Critical LCK\n      TOTAL = TOTAL + K\n      End critical\n";
        let big_src = PROGRAM.replace(body, &body.repeat(200));
        let big = cache.preprocess(&big_src, MachineId::Cray2).unwrap();
        let big2 = cache.preprocess(&big_src, MachineId::Cray2).unwrap();
        assert!(!Arc::ptr_eq(&big, &big2));
        assert!(big.heap_bytes() > cache.capacity());
        assert!(big.code.len() > small.code.len());
        assert_eq!(
            cache.stats(),
            CacheStats {
                misses: before.misses + 2,
                sed: before.sed + 2,
                m4: before.m4 + 4,
                ..before
            },
            "nothing inserted, nothing evicted"
        );
        // Attaching to the uncached expansion is nobody's weight.
        big.payload.attach(Arc::new(0u8), 1 << 30);
        assert_eq!(cache.stats().bytes, before.bytes);
        // An expansion whose artifact outweighs the capacity is returned
        // by its second lookup, and not admitted.
        let heavy = cache.preprocess(&variant(1), MachineId::Cray2).unwrap();
        heavy.payload.attach(Arc::new(1u8), cache.capacity());
        let recorded = cache.stats();
        let again = cache.preprocess(&variant(1), MachineId::Cray2).unwrap();
        assert!(Arc::ptr_eq(&heavy, &again));
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: recorded.hits + 1,
                records: recorded.records - 1,
                bytes: before.bytes,
                record_bytes: 0,
                ..recorded
            },
        );
        assert!(Arc::ptr_eq(
            &small,
            &cache.preprocess(&variant(0), MachineId::Cray2).unwrap()
        ));
        assert_accounting(&cache);
    }

    #[test]
    fn attach_reports_the_artifact_weight_to_a_resident_entry_only() {
        let weight = entry_weight(MachineId::Hep);
        let cache = ExpansionCache::new(capacity_for(4 * weight));

        // Resident: the entry grows by exactly the attached weight, once.
        let a = admitted(&cache, &variant(0), MachineId::Hep);
        let before = cache.stats().bytes;
        a.payload.attach(Arc::new(1u32), 1000);
        a.payload.attach(Arc::new(2u32), 5000);
        assert_eq!(*a.payload.get::<u32>().unwrap(), 1, "first writer wins");
        assert_eq!(a.payload.weight(), 1000);
        assert_eq!(cache.stats().bytes, before + 1000);
        assert_eq!(cache.resident()[0].1, before + 1000);
        assert_accounting(&cache);

        // Looked up once: the artifact is nobody's weight until the
        // second lookup admits the expansion, weighed with it, once.
        let c = cache.preprocess(&variant(20), MachineId::Hep).unwrap();
        let recorded = cache.stats();
        c.payload.attach(Arc::new(6u32), 700);
        assert_eq!(cache.stats(), recorded);
        let c2 = cache.preprocess(&variant(20), MachineId::Hep).unwrap();
        assert!(Arc::ptr_eq(&c, &c2));
        let (_, c_weight) = cache.resident().pop().unwrap();
        assert_eq!(c_weight, bare_weight(&variant(20), &c) + 700);
        c.payload.attach(Arc::new(7u32), 900);
        assert_eq!(cache.resident().pop().unwrap().1, c_weight, "counted once");
        assert_accounting(&cache);

        // Evicted, then expanded again: the stale holder's artifact must
        // not be charged to the new entry under the same key.
        let b = admitted(&cache, &variant(1), MachineId::Hep);
        for i in 2..8 {
            admitted(&cache, &variant(i), MachineId::Hep);
        }
        let b2 = admitted(&cache, &variant(1), MachineId::Hep);
        assert!(!Arc::ptr_eq(&b, &b2), "b was evicted and re-expanded");
        assert_eq!(b.code, b2.code);
        let before = cache.stats();
        b.payload.attach(Arc::new(3u32), 2000);
        assert_eq!(cache.stats(), before);
        // A clone is the caller's own copy: same artifact, no owner.
        let copy = ExpandedProgram::clone(&a);
        assert_eq!(copy.payload.weight(), 1000);
        ExpandedProgram::clone(&b2)
            .payload
            .attach(Arc::new(4u32), 3000);
        assert_eq!(cache.stats(), before);
        assert_accounting(&cache);

        // An artifact that pushes its own entry past the whole capacity
        // takes that entry out and leaves the others alone.
        let resident = cache.stats().entries;
        b2.payload.attach(Arc::new(5u32), cache.capacity());
        let after = cache.stats();
        assert_eq!(after.entries, resident - 1);
        assert_eq!(after.evictions, before.evictions + 1);
        assert_accounting(&cache);
    }

    #[test]
    fn a_hash_collision_falls_through_to_the_stored_source() {
        // Every source hashes alike: one slot per machine.
        let cache = ExpansionCache::with_hash(1 << 20, |_| 0);
        let a = admitted(&cache, &variant(1), MachineId::Hep);
        let b = admitted(&cache, &variant(2), MachineId::Hep);
        assert!(b.code.contains("T2") && !b.code.contains("T1"));
        assert!(a.code.contains("T1"), "the holder's program is its own");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (2, 2, 1));
        // The newer source has the slot; the older one recomputes.
        assert!(Arc::ptr_eq(
            &b,
            &cache.preprocess(&variant(2), MachineId::Hep).unwrap()
        ));
        let a2 = cache.preprocess(&variant(1), MachineId::Hep).unwrap();
        assert_eq!(a.code, a2.code);
        assert_eq!(cache.stats().misses, 3);
        // Records collide the same way: the newer source takes the record.
        let c = cache.preprocess(&variant(3), MachineId::Hep).unwrap();
        assert!(c.code.contains("T3"));
        assert_eq!(cache.stats().records, 1);
        let a3 = cache.preprocess(&variant(1), MachineId::Hep).unwrap();
        assert!(!Arc::ptr_eq(&a2, &a3), "variant 1's record was displaced");
        assert_eq!(cache.stats().misses, 5);
        assert!(Arc::ptr_eq(
            &b,
            &cache.preprocess(&variant(2), MachineId::Hep).unwrap()
        ));
        assert_accounting(&cache);
    }

    #[test]
    fn concurrent_lookups_keep_the_accounting_exact() {
        let cache = ExpansionCache::new(capacity_for(20 * entry_weight(MachineId::Hep)));
        let start = std::sync::Barrier::new(8);
        std::thread::scope(|s| {
            for t in 0..8 {
                let (cache, start) = (&cache, &start);
                s.spawn(move || {
                    start.wait();
                    for i in 0..60 {
                        // Four hot sources shared by all threads, whose
                        // first lookups and attaches race each other's
                        // admissions, and a cold stream of the thread's
                        // own, each source looked up twice in a row.
                        let hot = cache.preprocess(&variant(i % 4), MachineId::Hep);
                        hot.unwrap().payload.attach(Arc::new(i), 700);
                        let cold = variant(1000 * (t + 1) + i / 2);
                        let cold = cache.preprocess(&cold, MachineId::Hep);
                        cold.unwrap().payload.attach(Arc::new(i), 300 + i);
                        let stats = cache.stats();
                        assert!(stats.bytes <= cache.capacity(), "{stats:?}");
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, 8 * 60 * 2);
        assert!(stats.evictions > 0);
        assert_accounting(&cache);
        cache.clear();
        assert_eq!(
            cache.stats(),
            CacheStats {
                entries: 0,
                records: 0,
                bytes: 0,
                record_bytes: 0,
                ..stats
            }
        );
    }

    #[test]
    fn pipeline_produces_all_metadata() {
        let p = preprocess(PROGRAM, MachineId::EncoreMultimax).unwrap();
        assert_eq!(p.main_unit, "FMAIN");
        assert_eq!(p.units, vec!["FMAIN"]);
        assert!(p.async_vars.contains(&"CHAN".to_string()));
        assert!(p.env_cells.contains(&"LOOP100".to_string()));
        assert!(p.env_cells.contains(&"K_shared".to_string()));
        assert!(p.env_cells.contains(&"CHANZZE".to_string()));
        assert!(p.env_locks.contains(&"LCK".to_string()));
        let shared: Vec<_> = p.shared_decls().map(|d| d.name.as_str()).collect();
        assert_eq!(shared, vec!["TOTAL"]);
    }

    #[test]
    fn hep_asyncs_have_no_lock_cells() {
        let p = preprocess(PROGRAM, MachineId::Hep).unwrap();
        assert!(!p.env_cells.iter().any(|c| c.ends_with("ZZE")));
        assert!(p.code.contains("CALL ZZHVD(CHAN)"), "{}", p.code);
        assert!(p.code.contains("CALL ZZHPRD(CHAN, TOTAL)"), "{}", p.code);
    }

    #[test]
    fn driver_comes_first_and_spawns_the_main_unit() {
        let p = preprocess(PROGRAM, MachineId::Flex32).unwrap();
        assert!(p.code.starts_with("      PROGRAM ZZDRIVE"), "{}", p.code);
        assert!(p.code.contains("CALL ZZFORKJ(FMAIN)"), "{}", p.code);
        assert!(p.code.contains("CALL ZZINITK(BARWOT)"));
        assert!(p.code.contains("CALL ZZINITL(BARWIN)"));
        assert!(p.code.contains("CALL ZZINITL(LOOP100)"));
        assert!(p.code.contains("CALL ZZAINI(CHANZZE, CHANZZF)"));
    }

    #[test]
    fn sequent_driver_runs_the_link_pass() {
        let p = preprocess(PROGRAM, MachineId::SequentBalance).unwrap();
        let strt = p.code.find("CALL ZZSTRT0").expect("startup call");
        let link = p.code.find("CALL ZZLINK").expect("link call");
        let fork = p.code.find("CALL ZZFORKJ").expect("fork call");
        assert!(strt < link && link < fork, "{}", p.code);
    }

    #[test]
    fn encore_driver_sets_up_shared_pages() {
        let p = preprocess(PROGRAM, MachineId::EncoreMultimax).unwrap();
        assert!(p.code.contains("CALL ZZSHPG"));
        let p = preprocess(PROGRAM, MachineId::AlliantFx8).unwrap();
        assert!(p.code.contains("CALL ZZSHPG"));
        assert!(p.code.contains("CALL ZZSFORK(FMAIN)"));
        let p = preprocess(PROGRAM, MachineId::Hep).unwrap();
        assert!(!p.code.contains("CALL ZZSHPG"));
        assert!(p.code.contains("CALL ZZSPAWN(FMAIN)"));
    }

    #[test]
    fn every_unit_gets_the_same_env_common() {
        let src = "\
      Force M of NP ident ME
      Shared INTEGER X
      End declarations
      Join
      Forcesub W of NP ident ME
      End declarations
      Barrier
      End barrier
      Join
";
        let p = preprocess(src, MachineId::Cray2).unwrap();
        let count = p.code.matches("COMMON /ZZFENV/").count();
        // driver + 2 units
        assert_eq!(count, 3, "{}", p.code);
    }

    #[test]
    fn the_intermediate_form_is_machine_independent() {
        let a = preprocess(PROGRAM, MachineId::Hep).unwrap();
        let b = preprocess(PROGRAM, MachineId::Cray2).unwrap();
        assert_eq!(a.intermediate, b.intermediate);
        assert!(a.intermediate.contains("lock(BARWIN)"));
        assert!(
            !a.intermediate.contains("ZZFELCK"),
            "level 1 must not know the machine"
        );
    }

    #[test]
    fn machine_pass_resolves_every_low_level_macro() {
        for id in MachineId::all() {
            let p = preprocess(PROGRAM, id).unwrap();
            for token in ["lock(", "unlock(", "zzprod(", "zzcons(", "zzvoid("] {
                assert!(
                    !p.code.contains(&format!(" {token}")),
                    "{}: unresolved `{token}` in:\n{}",
                    id.name(),
                    p.code
                );
            }
        }
    }

    #[test]
    fn missing_force_header_is_a_semantic_error() {
        let err = preprocess("      X = 1\n", MachineId::Hep).unwrap_err();
        assert!(matches!(err, PrepError::Semantic(_)), "{err}");
    }

    #[test]
    fn one_dimensional_async_arrays_are_accepted() {
        let src = "\
      Force M of NP ident ME
      Async INTEGER C(10)
      End declarations
      Produce C(3) = 7
      Join
";
        let p = preprocess(src, MachineId::EncoreMultimax).unwrap();
        assert!(
            p.env_cells.contains(&"CZZE(10)".to_string()),
            "{:?}",
            p.env_cells
        );
        assert!(
            p.code.contains("CALL ZZAINI(CZZE(ZZI), CZZF(ZZI))"),
            "{}",
            p.code
        );
        assert!(p.code.contains("CALL ZZTSLCK(CZZF(3))"), "{}", p.code);
        let hep = preprocess(src, MachineId::Hep).unwrap();
        assert!(hep.code.contains("CALL ZZHVD(C(ZZI))"), "{}", hep.code);
        assert!(hep.code.contains("CALL ZZHPRD(C(3), 7)"), "{}", hep.code);
    }

    #[test]
    fn two_dimensional_async_arrays_are_rejected() {
        let src = "\
      Force M of NP ident ME
      Async INTEGER C(2,2)
      End declarations
      Join
";
        let err = preprocess(src, MachineId::Hep).unwrap_err();
        assert!(err.to_string().contains("at most one dimension"), "{err}");
    }

    #[test]
    fn bad_dimensions_are_rejected() {
        let src = "\
      Force M of NP ident ME
      Shared INTEGER A(N)
      End declarations
      Join
";
        let err = preprocess(src, MachineId::Hep).unwrap_err();
        assert!(err.to_string().contains("integer literal"), "{err}");
    }

    #[test]
    fn decl_words_are_products_of_dims() {
        let src = "\
      Force M of NP ident ME
      Shared REAL A(10,20), B
      End declarations
      Join
";
        let p = preprocess(src, MachineId::Hep).unwrap();
        let a = p.decls.iter().find(|d| d.name == "A").unwrap();
        assert_eq!(a.words(), 200);
        let b = p.decls.iter().find(|d| d.name == "B").unwrap();
        assert_eq!(b.words(), 1);
    }
}
