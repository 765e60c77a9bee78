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
    /// Total storage in 64-bit words.
    pub fn words(&self) -> usize {
        self.dims.iter().product::<usize>().max(1)
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
/// An [`ExpansionCache`] hands out the same resident
/// [`ExpandedProgram`] by `Arc` on every hit; anything attached here
/// rides along, so a back end that compiles the expanded code (the
/// `force-fortran` bytecode compiler) gets compiled-unit caching under
/// the same key without the preprocessor depending on it.  The slot is
/// type-erased — the preprocessor neither knows nor cares what is
/// stored — and write-once: concurrent initializers race benignly (the
/// first stored value wins; both are valid for identical expansions).
///
/// The artifact outweighs the expansion it rides on, so
/// [`attach`](Self::attach) takes its weight and reports it to the cache
/// the expansion is resident in: the cache's byte bound covers both.
#[derive(Default)]
pub struct CompiledPayload {
    /// The artifact and the weight it was attached with.
    slot: OnceLock<(Arc<dyn std::any::Any + Send + Sync>, usize)>,
    /// The cache entry this payload's expansion was inserted under.
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
    /// owning cache entry — if that entry is still resident.
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
    let text: Cow<'_, str> =
        if intermediate.contains('\r') || !intermediate.is_empty() && !intermediate.ends_with('\n')
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
            let _ = writeln!(injected, "C --- parallel environment for {} ---", unit.trim());
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
    /// Accounted bytes: the source, the expansion, and whatever
    /// [`CompiledPayload::attach`] has reported since the insert.
    weight: usize,
    /// This entry's node in [`State::order`].
    node: usize,
}

/// What an entry costs besides its source and expansion: the `Entry`,
/// its key, and its slots in the map and the recency index.
const ENTRY_OVERHEAD: usize = 128;

/// A snapshot of one [`ExpansionCache`]'s counters and occupancy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered with the resident expansion.
    pub hits: u64,
    /// Lookups that ran the pipeline (failed runs included).
    pub misses: u64,
    /// Entries removed to keep `bytes` within the capacity.
    pub evictions: u64,
    /// Resident entries.
    pub entries: usize,
    /// Accounted weight of the resident entries.
    pub bytes: usize,
    /// Completed sed passes: one per miss that got that far.
    pub sed: u64,
    /// Completed m4 passes: two per miss that expanded.
    pub m4: u64,
}

/// The recency order of the resident keys: a circular doubly linked
/// list threaded through a slab, `nodes[0]` being the sentinel — its
/// `next` is the least recently used key, its `prev` the most recent.
/// A touch is a handful of index writes: no search, no allocation.
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
    /// The counters and `bytes`; `entries` is read off `map`.
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
    /// accounted bytes fit `capacity`.
    fn evict_to(&mut self, capacity: usize, displaced: &mut Vec<Entry>) {
        while self.stats.bytes > capacity {
            let Some(key) = self.order.iter().next() else {
                break;
            };
            displaced.extend(self.remove(&key));
            self.stats.evictions += 1;
        }
    }
}

/// What an [`ExpansionCache`] shares with the payloads of the
/// expansions resident in it.
struct Shared {
    capacity: usize,
    /// The source hash of the key (a seam: the unit tests force
    /// collisions through it).
    hash: fn(&str) -> u64,
    state: Mutex<State>,
}

impl Shared {
    /// Add an attached artifact's `weight` to the entry `payload` sits
    /// in — unless that entry was evicted meanwhile (then the weight
    /// belongs to whoever still holds the expansion, not to the cache).
    fn grow(&self, key: &Key, payload: &CompiledPayload, weight: usize) {
        // Declared before the guard, so dropped after it.
        let mut displaced = Vec::new();
        let mut state = self.state.lock();
        let Some(entry) = state.map.get_mut(key) else {
            return;
        };
        if !std::ptr::eq(&entry.program.payload, payload) {
            return;
        }
        if entry.weight.saturating_add(weight) > self.capacity {
            // Grown past the whole capacity: this entry leaves and
            // nothing else does.
            displaced.extend(state.remove(key));
            state.stats.evictions += 1;
        } else {
            entry.weight += weight;
            state.stats.bytes += weight;
            state.evict_to(self.capacity, &mut displaced);
        }
    }
}

fn source_hash(source: &str) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    source.hash(&mut h);
    h.finish()
}

/// A memo of [`preprocess`] keyed by *(source hash, machine
/// personality)*, bounded in bytes, evicting the least recently used.
///
/// Re-running the same program — or porting it across the six
/// personalities, each of which gets its own entry — skips the sed and
/// both m4 passes on a hit and returns the resident [`ExpandedProgram`]
/// by `Arc`: always the same `Arc` for as long as the entry is resident.
/// The hit path does **zero** pipeline work, observable through
/// [`stats`](Self::stats).  Errors are not cached: a failing source
/// re-runs the pipeline on every call.
///
/// The bound covers the source, the expansion and the artifact a back
/// end attaches to the expansion's [`CompiledPayload`].  Eviction only
/// drops the cache's own reference: a caller that holds the `Arc` (and
/// an engine loaded from it) keeps a complete, working program, and the
/// next lookup of that source expands it again.  An expansion heavier
/// than the whole capacity is returned without being cached and evicts
/// nothing.  Memory is taken as entries arrive, never reserved.
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
        {
            let mut state = shared.state.lock();
            if let Some(program) = state.hit(&key, source) {
                state.stats.hits += 1;
                return Ok(program);
            }
            state.stats.misses += 1;
        }

        let mut passes = PassCounts::default();
        let expanded = run_pipeline(source, machine, &mut passes);
        {
            let mut state = shared.state.lock();
            state.stats.sed += passes.sed;
            state.stats.m4 += passes.m4;
        }
        let mut program = expanded?;
        program.intermediate.shrink_to_fit();
        let weight = ENTRY_OVERHEAD + alloc_bytes(source.len()) + program.heap_bytes();
        if weight > shared.capacity {
            return Ok(Arc::new(program));
        }
        program.payload.owner = Some((Arc::downgrade(shared), key));
        let program = Arc::new(program);
        let source: Box<str> = source.into();

        // Declared before the guard, so dropped after it: freeing an
        // entry is hundreds of small `free`s, and every other caller's
        // hit path waits on this lock.
        let mut displaced = Vec::new();
        let mut state = shared.state.lock();
        match state.map.get(&key) {
            // A racing miss on the same source got here first: every
            // caller converges on the resident `Arc`.
            Some(resident) if resident.source == source => {
                return Ok(Arc::clone(&resident.program));
            }
            // A hash collision: the newer source takes the slot.
            Some(_) => displaced.extend(state.remove(&key)),
            None => {}
        }
        let node = state.order.push(key);
        state.map.insert(
            key,
            Entry {
                source,
                program: Arc::clone(&program),
                weight,
                node,
            },
        );
        state.stats.bytes += weight;
        state.evict_to(shared.capacity, &mut displaced);
        Ok(program)
    }

    /// Counters and occupancy, read under one lock.
    pub fn stats(&self) -> CacheStats {
        let state = self.shared.state.lock();
        CacheStats {
            entries: state.map.len(),
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

    /// Drop every resident expansion (the counters are kept).
    pub fn clear(&self) {
        let mut state = self.shared.state.lock();
        let map = std::mem::take(&mut state.map);
        state.order = Recency::default();
        state.stats.bytes = 0;
        drop(state);
        drop(map);
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
                        out.push_str(&format!("C --- parallel environment for {} ---\n", unit.trim()));
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

    /// The accounted bytes equal the sum of the resident weights, and
    /// every weight is the entry's own parts added up.
    fn assert_accounting(cache: &ExpansionCache) {
        let state = cache.shared.state.lock();
        assert_eq!(state.map.len(), state.order.iter().count());
        assert_eq!(
            state.map.len() + state.order.free.len() + 1,
            state.order.nodes.len()
        );
        let mut sum = 0;
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
            sum += entry.weight;
        }
        assert_eq!(state.stats.bytes, sum);
        assert!(sum <= cache.capacity());
    }

    #[test]
    fn cached_preprocessing_does_zero_pipeline_work_on_a_hit() {
        let cache = ExpansionCache::new(1 << 20);
        let first = cache.preprocess(PROGRAM, MachineId::AlliantFx8).unwrap();
        let before = cache.stats();
        assert_eq!((before.hits, before.misses), (0, 1));
        assert_eq!((before.sed, before.m4, before.entries), (1, 2, 1));
        let again = cache.preprocess(PROGRAM, MachineId::AlliantFx8).unwrap();
        assert_eq!(
            cache.stats(),
            CacheStats { hits: 1, ..before },
            "the hit path must run no sed or m4 pass"
        );
        assert!(
            Arc::ptr_eq(&first, &again),
            "a hit returns the resident expansion, not a copy"
        );
        assert_accounting(&cache);
    }

    #[test]
    fn cache_is_keyed_per_machine_personality() {
        let cache = ExpansionCache::new(1 << 20);
        let mut programs = Vec::new();
        for id in MachineId::all() {
            programs.push(cache.preprocess(PROGRAM, id).unwrap());
        }
        // Six personalities, six distinct expansions — porting re-runs
        // the pipeline once per machine, then every re-run is free.
        let before = cache.stats();
        assert_eq!((before.misses, before.sed, before.m4), (6, 6, 12));
        for (id, first) in MachineId::all().into_iter().zip(&programs) {
            let again = cache.preprocess(PROGRAM, id).unwrap();
            assert!(Arc::ptr_eq(first, &again), "{}", id.name());
        }
        assert_eq!(cache.stats(), CacheStats { hits: 6, ..before });
        assert!(programs[0].code != programs[1].code);
    }

    #[test]
    fn cache_misses_on_changed_source() {
        let cache = ExpansionCache::new(1 << 20);
        let pa = cache.preprocess(&variant(1), MachineId::Hep).unwrap();
        let pb = cache.preprocess(&variant(2), MachineId::Hep).unwrap();
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 2, 2));
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
        let one = ExpansionCache::new(usize::MAX);
        one.preprocess(&variant(0), MachineId::Flex32).unwrap();
        let weight = one.stats().bytes;

        // Room for a hot set of 6 plus 12 more of the same size.
        let cache = ExpansionCache::new(18 * weight + weight / 2);
        let hot: Vec<_> = MachineId::all()
            .into_iter()
            .map(|id| (id, cache.preprocess(&variant(0), id).unwrap()))
            .collect();
        for i in 1..=300 {
            cache.preprocess(&variant(i), MachineId::Flex32).unwrap();
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
        assert_eq!(stats.hits, 150, "every hot lookup hit");
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
        let one = ExpansionCache::new(usize::MAX);
        one.preprocess(&variant(0), MachineId::Cray2).unwrap();
        let weight = one.stats().bytes;

        let cache = ExpansionCache::new(3 * weight);
        let small = cache.preprocess(&variant(0), MachineId::Cray2).unwrap();
        let before = cache.stats();
        // A loop body long enough to outweigh the whole capacity.
        let body = "      Critical LCK\n      TOTAL = TOTAL + K\n      End critical\n";
        let big_src = PROGRAM.replace(body, &body.repeat(200));
        let big = cache.preprocess(&big_src, MachineId::Cray2).unwrap();
        assert!(big.heap_bytes() > cache.capacity());
        assert!(big.code.len() > small.code.len());
        assert_eq!(
            cache.stats(),
            CacheStats {
                misses: before.misses + 1,
                sed: before.sed + 1,
                m4: before.m4 + 2,
                ..before
            },
            "nothing inserted, nothing evicted"
        );
        // Attaching to the uncached expansion is nobody's weight.
        big.payload.attach(Arc::new(0u8), 1 << 30);
        assert_eq!(cache.stats().bytes, before.bytes);
        assert!(Arc::ptr_eq(
            &small,
            &cache.preprocess(&variant(0), MachineId::Cray2).unwrap()
        ));
        assert_accounting(&cache);
    }

    #[test]
    fn attach_reports_the_artifact_weight_to_a_resident_entry_only() {
        let one = ExpansionCache::new(usize::MAX);
        one.preprocess(&variant(0), MachineId::Hep).unwrap();
        let weight = one.stats().bytes;
        let cache = ExpansionCache::new(4 * weight);

        // Resident: the entry grows by exactly the attached weight, once.
        let a = cache.preprocess(&variant(0), MachineId::Hep).unwrap();
        let before = cache.stats().bytes;
        a.payload.attach(Arc::new(1u32), 1000);
        a.payload.attach(Arc::new(2u32), 5000);
        assert_eq!(*a.payload.get::<u32>().unwrap(), 1, "first writer wins");
        assert_eq!(a.payload.weight(), 1000);
        assert_eq!(cache.stats().bytes, before + 1000);
        assert_eq!(cache.resident()[0].1, before + 1000);
        assert_accounting(&cache);

        // Evicted, then expanded again: the stale holder's artifact must
        // not be charged to the new entry under the same key.
        let b = cache.preprocess(&variant(1), MachineId::Hep).unwrap();
        for i in 2..8 {
            cache.preprocess(&variant(i), MachineId::Hep).unwrap();
        }
        let b2 = cache.preprocess(&variant(1), MachineId::Hep).unwrap();
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
        let a = cache.preprocess(&variant(1), MachineId::Hep).unwrap();
        let b = cache.preprocess(&variant(2), MachineId::Hep).unwrap();
        assert!(b.code.contains("T2") && !b.code.contains("T1"));
        assert!(a.code.contains("T1"), "the holder's program is its own");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 2, 1));
        // The newer source has the slot; the older one recomputes.
        assert!(Arc::ptr_eq(
            &b,
            &cache.preprocess(&variant(2), MachineId::Hep).unwrap()
        ));
        let a2 = cache.preprocess(&variant(1), MachineId::Hep).unwrap();
        assert_eq!(a.code, a2.code);
        assert_eq!(cache.stats().misses, 3);
        assert_accounting(&cache);
    }

    #[test]
    fn concurrent_lookups_keep_the_accounting_exact() {
        let one = ExpansionCache::new(usize::MAX);
        one.preprocess(&variant(0), MachineId::Hep).unwrap();
        let cache = ExpansionCache::new(20 * one.stats().bytes);
        let start = std::sync::Barrier::new(8);
        std::thread::scope(|s| {
            for t in 0..8 {
                let (cache, start) = (&cache, &start);
                s.spawn(move || {
                    start.wait();
                    for i in 0..60 {
                        // Four hot sources shared by all threads, and a
                        // cold stream of the thread's own.
                        let hot = cache.preprocess(&variant(i % 4), MachineId::Hep);
                        hot.unwrap().payload.attach(Arc::new(i), 700);
                        let cold = cache.preprocess(&variant(1000 * (t + 1) + i), MachineId::Hep);
                        cold.unwrap().payload.attach(Arc::new(i), 300 + i);
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
                bytes: 0,
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
