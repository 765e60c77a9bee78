//! An allocation budget for the cold path, in a test binary of its own
//! because it replaces the global allocator.
//!
//! A never-seen source pays `preprocess` (sed → m4 → m4) and then
//! `Engine::from_expanded` (lex → parse → resolve → bytecode).  Timings of those
//! two move with the host; their allocation counts do not — they repeat
//! exactly, run after run — so a ceiling on them keeps the front end
//! from eroding between benchmark runs.  PR 18 read 1 497–1 498
//! allocations to expand the `ksum` shape and 1 284–1 312 to load it;
//! PR 19, which set the ceilings, 185–186 and 346–350.
//!
//! The rest of a cold job is held the same way: what a fresh engine's
//! first run allocates and what dropping an evicted expansion frees have
//! ceilings, and what a served, pooled job allocates — client,
//! dispatcher and pool worker together — is a constant, and it is
//! pinned.

mod support;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use support::corpus::KSUM;
use the_force::core::Force;
use the_force::fortran::Engine;
use the_force::machdep::{ForcePool, Machine, MachineId, RunOptions};
use the_force::prep::{preprocess, ExpandedProgram};
use the_force::serve::{engine_runner, ForceServer, JobOutcome, JobSpec, ServerConfig};

thread_local! {
    /// Allocations made by this thread while it is measuring.
    static COUNT: Cell<Option<u64>> = const { Cell::new(None) };
    /// Frees made by this thread while it is measuring them.
    static FREES: Cell<Option<u64>> = const { Cell::new(None) };
}

/// Allocations made by every thread while [`EVERY_THREAD`] is set: a
/// served job allocates on three of them.
static ALL_COUNT: AtomicU64 = AtomicU64::new(0);
static EVERY_THREAD: AtomicBool = AtomicBool::new(false);

/// The tests of this binary take turns, so that the process-wide count
/// sees one of them only.
static TURN: Mutex<()> = Mutex::new(());

/// The system allocator, counting `alloc` and `realloc` calls (of the
/// measuring thread, and of the whole process) and `dealloc` calls (of
/// the measuring thread).
struct Counting;

fn tick() {
    // `try_with`: the allocator also runs while a thread is torn down.
    let _ = COUNT.try_with(|c| c.set(c.get().map(|n| n + 1)));
    if EVERY_THREAD.load(Ordering::Relaxed) {
        ALL_COUNT.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counting touches only const-initialised
// thread-local `Cell`s and atomics and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tick();
        // SAFETY: the caller's contract, forwarded.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = FREES.try_with(|c| c.set(c.get().map(|n| n + 1)));
        // SAFETY: the caller's contract, forwarded.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tick();
        // SAFETY: the caller's contract, forwarded.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `f`'s result and the allocations this thread made to produce it.
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64) {
    COUNT.with(|c| c.set(Some(0)));
    let result = f();
    let count = COUNT.with(|c| c.take()).expect("still measuring");
    (result, count)
}

/// The frees this thread makes while it runs `f`.
fn frees_of(f: impl FnOnce()) -> u64 {
    FREES.with(|c| c.set(Some(0)));
    f();
    FREES.with(|c| c.take()).expect("still measuring")
}

/// `f`'s result and the allocations every thread made while it ran.
fn counted_everywhere<R>(f: impl FnOnce() -> R) -> (R, u64) {
    ALL_COUNT.store(0, Ordering::SeqCst);
    EVERY_THREAD.store(true, Ordering::SeqCst);
    let result = f();
    EVERY_THREAD.store(false, Ordering::SeqCst);
    (result, ALL_COUNT.load(Ordering::SeqCst))
}

/// Ceilings per cold source, a few per cent over what was measured when
/// they were set; ratchet them down, never up.  A load read 346–351
/// until a lock mnemonic on a shared scalar stopped binding it as an
/// argument, 333–343 until names became ids from the lexer on, 151–152
/// since; an expansion 184–185 until the sed pass stopped copying the
/// lines it passes through, 182–183 since.
const EXPAND_CEILING: u64 = 190;
const LOAD_CEILING: u64 = 158;

#[test]
fn a_cold_source_stays_inside_its_allocation_budget() {
    let _turn = TURN.lock().unwrap_or_else(|poison| poison.into_inner());
    let mut report = Vec::new();
    let mut over = false;
    for id in MachineId::all() {
        // One warm-up: the process-wide macro tables are built here.
        preprocess(KSUM, id).unwrap();
        let measure = || {
            let (expanded, expand) = counted(|| preprocess(KSUM, id).unwrap());
            let machine = Machine::new(id);
            let (engine, load) = counted(|| Engine::from_expanded(&expanded, machine));
            engine.unwrap();
            (expand, load)
        };
        let (first, second) = (measure(), measure());
        report.push(format!(
            "{}: preprocess {} + from_expanded {}",
            id.name(),
            first.0,
            first.1
        ));
        assert_eq!(first, second, "{}: the counts must repeat", id.name());
        over |= first.0 > EXPAND_CEILING || first.1 > LOAD_CEILING;
    }
    assert!(
        !over,
        "allocations per cold source, ceilings {EXPAND_CEILING} + {LOAD_CEILING}:\n{}",
        report.join("\n")
    );
    println!("{}", report.join("\n"));
}

/// What a cold job pays besides expand and load, and besides the pool
/// it runs on: a fresh engine's first run of `ksum` at [`POOLED_NPROC`]
/// on an attached pool that has run a job, every thread counted (the
/// session's plane and force environment, the shared block, the
/// processes' frames).  Which thread runs pid 1 is the host's choice and
/// moves the count by a few, so the fewest of three fresh engines is
/// held to it.  When the ceilings were set it read 59–60 on four
/// machines, 62 on the Cray-2 and 78–79 on the Sequent.
fn first_run_ceiling(id: MachineId) -> u64 {
    match id {
        MachineId::SequentBalance => 80,
        MachineId::Cray2 => 63,
        _ => 61,
    }
}

/// What the thread that evicts an expansion pays to drop it: the frees
/// of an `ExpandedProgram` that carries its compiled bundle, once no
/// engine holds the bundle.  It read 45 for `ksum` on every machine when
/// it was set.
const DROP_CEILING: u64 = 46;

/// The allocations of a fresh engine's first run of `expanded`, as
/// [`first_run_ceiling`] counts them.
fn first_run_allocations(expanded: &ExpandedProgram, id: MachineId) -> u64 {
    let machine = Machine::new(id);
    let pool = Arc::new(ForcePool::new(POOLED_NPROC, machine.stats()));
    // A pool that has run a job: its worker has started, so nothing of a
    // thread's start-up lands in the count.
    Force::with_machine(POOLED_NPROC, Arc::clone(&machine))
        .with_pool(Arc::clone(&pool))
        .run(|_| ());
    let engine = Engine::from_expanded(expanded, machine).unwrap();
    engine.set_pool(pool);
    let (run, allocations) = counted_everywhere(|| engine.run(POOLED_NPROC));
    run.unwrap();
    allocations
}

#[test]
fn a_fresh_engines_first_run_and_an_evicted_expansion_stay_inside_their_budgets() {
    let _turn = TURN.lock().unwrap_or_else(|poison| poison.into_inner());
    let mut report = Vec::new();
    let mut over = false;
    for id in MachineId::all() {
        let expanded = preprocess(KSUM, id).unwrap();
        let first_run = (0..3)
            .map(|_| first_run_allocations(&expanded, id))
            .min()
            .unwrap();
        let dropped = frees_of(|| drop(expanded));
        report.push(format!(
            "{}: first run {first_run} (ceiling {}), dropping the expansion {dropped}",
            id.name(),
            first_run_ceiling(id)
        ));
        over |= first_run > first_run_ceiling(id) || dropped > DROP_CEILING;
    }
    assert!(
        !over,
        "allocations of a first run, and frees (ceiling {DROP_CEILING}) of a drop:\n{}",
        report.join("\n")
    );
    println!("{}", report.join("\n"));
}

/// What one served, pooled, empty job allocates, all threads together:
/// the tenant's name in the client's `JobSpec`, the boxed runner, the
/// job's shared state, and the run itself.  ISSUE 20 read 5 more — the
/// name cloned for the depth map, the job record, two rollup look-ups
/// and a local — before `submit` and `complete` looked tenants up by
/// `&str`.  Exact at [`POOLED_NPROC`]: lower it when a change removes
/// one, never raise it.
const SERVED_NULL_JOB: u64 = 27;

/// The width of the pooled pins: a pool of 2 attached to the session,
/// whatever the host, so that one number holds everywhere.
const POOLED_NPROC: usize = 2;

/// The same job on a session with no pool of its own, at nproc 1: a
/// force the shard lends on any host (its width is the host's, and
/// every host has a core).  It read 32 at nproc 2 while such a job
/// created its processes (thread `Builder`, name, `Packet`, scope
/// bookkeeping and the handles' `Vec`: 5 per job); on the lent force it
/// is a pooled job of its width exactly — binding the plane clones an
/// `Arc` into a slot the plane already has — and at nproc 1 that is 2
/// fewer than [`SERVED_NULL_JOB`]: pid 1's share of the run.
const SERVED_LENT_NULL_JOB: u64 = 25;

/// What one served, pooled `dot` job of the benchmark's hot corpus
/// allocates: the empty job's 27 plus what two processes running a
/// selfscheduled loop, a critical section and a `Forcesub` call with two
/// array arguments allocate — frames, value stacks, the lock and block
/// tables.  It read 134 while every intrinsic call (`FLOAT(J)`, 64 a
/// job) and every user call copied its argument list, and each array
/// argument of `CALL SETUP(X, Y, 64)` its dimensions.  Exact, like the
/// null job's.
const SERVED_DOT_JOB: u64 = 58;

const DOT: &str = "\
      Force FDOT of NP ident ME
      Shared REAL X(64), Y(64), DOT
      Externf SETUP
      Private INTEGER K
      Private REAL T
      End declarations
      CALL SETUP(X, Y, 64)
      Selfsched DO 100 K = 1, 64
      T = X(K) * Y(K)
      Critical DLCK
      DOT = DOT + T
      End critical
100   End selfsched DO
      Join
      Forcesub SETUP(A, B, N) of NP ident ME
      REAL A(64), B(64)
      INTEGER N
      Private INTEGER J
      End declarations
      Presched DO 10 J = 1, N
      A(J) = FLOAT(J)
      B(J) = 2.0
10    End presched DO
      Join
";

const NULL: &str = "      Force FNULL of NP ident ME\n      End declarations\n      Join\n";

/// Allocations per served job of `source` at `nproc`, three batches of
/// 100 after two to warm up, on a session with a pool of `nproc` attached
/// or with none (the shard lends its force).
fn served_job_allocations(source: &str, nproc: usize, own_pool: bool) -> Vec<u64> {
    const BATCH: u64 = 100;
    let _turn = TURN.lock().unwrap_or_else(|poison| poison.into_inner());
    let id = MachineId::SequentBalance;
    let machine = Machine::new(id);
    let expanded = preprocess(source, id).unwrap();
    let engine = Arc::new(Engine::from_expanded(&expanded, Arc::clone(&machine)).unwrap());
    if own_pool {
        engine.set_pool(Arc::new(ForcePool::new(nproc, machine.stats())));
    }
    let server = ForceServer::new(ServerConfig::default(), machine.stats());
    // A job runs on its client's thread or on the dispatcher's, whichever
    // takes the shard's run slot first; a waiter that does not wait
    // leaves it to the dispatcher.
    let serve_a_batch = |wait: bool| {
        for _ in 0..BATCH {
            let runner = engine_runner(&engine, nproc, RunOptions::default(), |out| {
                assert_eq!(out.stats.processes_created, 0);
            });
            let job = server.submit(JobSpec::for_tenant("closed"), runner);
            let job = job.expect_admitted();
            let outcome = if wait {
                job.wait()
            } else {
                loop {
                    match job.try_outcome() {
                        Some(outcome) => break outcome,
                        None => std::thread::yield_now(),
                    }
                }
            };
            assert_eq!(outcome, JobOutcome::Completed { retries: 0 });
        }
    };
    // Warm up both threads a job can run on: the tenant's first job, queue
    // and map growth, thread-locals — and the shard's force, if this
    // session is the one to borrow it.
    serve_a_batch(false);
    serve_a_batch(true);
    (0..3)
        .map(|_| {
            let ((), batch) = counted_everywhere(|| serve_a_batch(true));
            assert_eq!(batch % BATCH, 0, "{batch} allocations in {BATCH} jobs");
            batch / BATCH
        })
        .collect()
}

#[test]
fn a_served_pooled_null_job_allocates_a_fixed_number_of_times() {
    let per_job = served_job_allocations(NULL, POOLED_NPROC, true);
    println!("a served null job: {per_job:?} allocations");
    assert_eq!(per_job, [SERVED_NULL_JOB; 3]);
}

#[test]
fn a_served_unpooled_null_job_allocates_no_more_than_a_pooled_one() {
    let lent = served_job_allocations(NULL, 1, false);
    println!("a served unpooled null job at nproc 1: {lent:?} allocations");
    assert_eq!(lent, [SERVED_LENT_NULL_JOB; 3]);
    let pooled = served_job_allocations(NULL, 1, true);
    assert_eq!(lent, pooled, "a lent job is a pooled job of its width");
}

#[test]
fn a_served_pooled_dot_job_allocates_a_fixed_number_of_times() {
    let per_job = served_job_allocations(DOT, POOLED_NPROC, true);
    println!("a served dot job: {per_job:?} allocations");
    assert_eq!(per_job, [SERVED_DOT_JOB; 3]);
}
