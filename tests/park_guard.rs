//! Guard: every blocking wait in the tree must route through
//! `machdep::park`.  A hand-rolled `Backoff` loop or raw `Condvar` wait
//! outside the parking layer silently loses cancellation checks,
//! wait-board attribution, park counters, and — fatally under the
//! `Virtual` backend — the run-token hand-off, so this test fails the
//! build the moment one reappears.

use std::fs;
use std::path::{Path, PathBuf};

/// Files allowed to contain the raw primitives: the portable layer
/// defines them, and the parking layer is the one consumer.
const EXEMPT: &[&str] = &["machdep/src/portable.rs", "machdep/src/park.rs"];

/// Source fragments that indicate a blocking wait bypassing the parking
/// layer.  `Backoff::jittered_delay` (a bounded sleep computation, not a
/// wait loop) deliberately does not match any of these.
const FORBIDDEN: &[&str] = &[
    "Backoff::new(",    // hand-rolled spin/snooze loop
    "cancellable_wait", // the pre-park API this layer replaced
    ".wait(&mut ",      // raw untimed Condvar wait
    "wait_for(&mut ",   // raw timed Condvar wait
    "spin_loop(",       // raw spin hint outside Backoff
    "park_timeout(",    // std thread parking bypasses the wait board
    "thread::park(",    // likewise
];

fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("readable source dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// `text`'s lines with every `#[cfg(test)]` item blanked, so that what
/// is left is what a production build compiles, each line at its own
/// number.  An item is the line after the attribute (and after any
/// further attributes or comments); when that line opens a block, the
/// item runs on to the line at the attribute's indent that closes it, and
/// through an `} else {` chain.  That is rustfmt's layout, which CI holds
/// the tree to.
fn without_test_items(text: &str) -> Vec<&str> {
    let mut lines: Vec<&str> = text.lines().collect();
    let indent_of = |line: &str| line.len() - line.trim_start().len();
    let mut at = 0;
    while at < lines.len() {
        if lines[at].trim() != "#[cfg(test)]" {
            at += 1;
            continue;
        }
        let indent = indent_of(lines[at]);
        let mut end = at + 1;
        while end + 1 < lines.len()
            && (lines[end].trim_start().starts_with("#[")
                || lines[end].trim_start().starts_with("//"))
        {
            end += 1;
        }
        let mut open = lines[end].trim_end().ends_with(['{', '(', '[']);
        while open && end + 1 < lines.len() {
            end += 1;
            let line = lines[end];
            if indent_of(line) == indent && line.trim_start().starts_with(['}', ')', ']']) {
                open = line.trim_end().ends_with('{');
            }
        }
        lines[at..=end].fill("");
        at = end + 1;
    }
    lines
}

/// Every line under `crates/*/src` holding one of `patterns`, as
/// `file:line: pattern`, skipping the `exempt` files.  `production_only`
/// narrows the scan to code a force can execute: it drops the bench
/// harness (a load generator and stopwatch by design) and every
/// `#[cfg(test)]` item ([`without_test_items`]).
fn scan(patterns: &[&str], exempt: &[&str], production_only: bool) -> Vec<String> {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut sources = Vec::new();
    for entry in fs::read_dir(&crates).expect("crates/ exists") {
        let src = entry.expect("dir entry").path().join("src");
        if src.is_dir() {
            rust_sources(&src, &mut sources);
        }
    }
    assert!(
        sources.len() >= 20,
        "the scan must actually see the tree (found {})",
        sources.len()
    );
    let mut violations = Vec::new();
    for path in sources {
        let rel = path
            .strip_prefix(&crates)
            .expect("under crates/")
            .to_string_lossy()
            .replace('\\', "/");
        if exempt.contains(&rel.as_str()) || (production_only && rel.starts_with("bench/")) {
            continue;
        }
        let text = fs::read_to_string(&path).expect("readable source file");
        let scanned = if production_only {
            without_test_items(&text)
        } else {
            text.lines().collect()
        };
        for (lineno, line) in scanned.iter().enumerate() {
            for pat in patterns {
                if line.contains(pat) {
                    violations.push(format!("{rel}:{}: `{pat}`", lineno + 1));
                }
            }
        }
    }
    violations
}

#[test]
fn all_blocking_waits_route_through_the_park_layer() {
    let violations = scan(FORBIDDEN, EXEMPT, false);
    assert!(
        violations.is_empty(),
        "blocking waits outside machdep::park (use park::wait_on / \
         park::wait_until / park::bounded_spin instead):\n{}",
        violations.join("\n")
    );
}

#[test]
fn a_timer_is_the_only_timed_wait() {
    // A trip wakes the waits it cancels, so no process sleeps on a timer
    // to look at its cancellation token: the one timed condvar wait left
    // is `park::timer_wait`, the watchdog's and the deadline watcher's.
    let timed = scan(&["wait_for("], &[], false);
    assert!(
        timed.len() == 1 && timed[0].starts_with("machdep/src/park.rs:"),
        "timed waits outside `park::timer_wait`:\n{}",
        timed.join("\n")
    );
    let park = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/machdep/src/park.rs");
    let park = fs::read_to_string(park).expect("park.rs");
    let timer = park.split("pub fn timer_wait").nth(1).expect("timer_wait");
    let timer = &timer[..timer.find("\n}\n").expect("the end of timer_wait")];
    assert!(
        timer.contains("wait_for("),
        "the timed wait is not the timer's"
    );
    let retired = scan(&[concat!("wait", "_slice")], &[], false);
    assert!(retired.is_empty(), "{}", retired.join("\n"));
}

/// Files allowed to read the wall clock in non-test code.  Everything
/// else in the tree must be wall-clock-free so the `Virtual` backend's
/// replay contract — a run is a pure function of `(seed, machine)` —
/// can't be silently eroded by a stray `Instant::now()` in a path a
/// virtual process executes.
const WALL_CLOCK_EXEMPT: &[&str] = &[
    // The parking layer: wall backends need real time for heartbeat
    // waits and watchdog arithmetic; the virtual backend branches away
    // from those paths before any clock read.
    "machdep/src/park.rs",
    "machdep/src/portable.rs",
    // The watchdog plane: wall-clock by definition, and gated off
    // entirely under the virtual backend; its reset reads the clock once
    // to arm a served virtual run's budget left.
    "machdep/src/fault.rs",
    // The job server is a wall-clock tenant plane by design: admission
    // timestamps and token buckets, the deadline watcher, the queued-job
    // expiry and retry-backoff checks of the dispatcher.  A virtual run
    // sees its deadline only as the budget left that its plane's reset
    // arms on the virtual clock.
    "serve/src/admission.rs",
    "serve/src/deadline.rs",
    "serve/src/dispatch.rs",
    // The trace origin.  Virtual runs route every timestamp through
    // `now_ns()`, which reads the virtual clock instead.
    "machdep/src/trace.rs",
];

#[test]
fn wall_clock_reads_stay_out_of_virtual_visible_paths() {
    let violations = scan(
        &["Instant::now(", "SystemTime::now("],
        WALL_CLOCK_EXEMPT,
        true,
    );
    assert!(
        violations.is_empty(),
        "wall-clock reads outside the sanctioned sites (route timing \
         through machdep::park or add a justified exemption):\n{}",
        violations.join("\n")
    );
}

/// Files allowed to create threads in non-test code.  A plane is
/// launched through `machdep::process::launch_plane` and nowhere else;
/// a thread created anywhere outside this list is a new launch path
/// that bypasses the admission guard, the watchdog and the epilogue.
const THREAD_CREATION_EXEMPT: &[&str] = &[
    // The scoped launcher (one thread per pid) and `StopGuard`, the one
    // helper-thread protocol (watchdog, deadline watcher).
    "machdep/src/process.rs",
    // The resident workers behind the pooled launcher.
    "machdep/src/pool.rs",
    // The job server's dispatcher, started by `ForceServer::new`.
    "serve/src/lib.rs",
];

#[test]
fn threads_are_created_only_behind_the_launch_seam() {
    let violations = scan(
        &[
            "thread::scope(",
            "thread::spawn(",
            "spawn_scoped(",
            "thread::Builder",
        ],
        THREAD_CREATION_EXEMPT,
        true,
    );
    assert!(
        violations.is_empty(),
        "thread creation outside the launch seam (run pids through \
         machdep::launch_plane; helper threads through process::StopGuard):\n{}",
        violations.join("\n")
    );
}

#[test]
fn the_job_server_polls_no_timer() {
    // An idle dispatcher is woken by the submission that needs it and a
    // deadline watcher trips once: neither a timed condvar wait nor the
    // parking heartbeat has a use in the server.  (Its helper threads
    // sleep through `process::StopSignal`, until their one deadline.)
    let mut server = Vec::new();
    rust_sources(
        &Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/serve/src"),
        &mut server,
    );
    assert!(!server.is_empty(), "the scan must see the job server");
    let mut violations = scan(&["timer_wait(", "HEARTBEAT"], &[], true);
    violations.retain(|v| v.starts_with("serve/src/"));
    assert!(
        violations.is_empty(),
        "the job server waits on a timer again:\n{}",
        violations.join("\n")
    );
}

#[test]
fn the_vm_touches_shared_words_in_two_functions() {
    // Every shared word the VM reads or writes, whichever instruction
    // asks — fused or on the stack — goes through `VmProc::load_word` or
    // `VmProc::store_word`: what has to watch shared memory (a race
    // detector) hooks those two, not a list of opcodes.
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/fortranish/src/bytecode.rs");
    let text = fs::read_to_string(path).expect("bytecode.rs");
    let mut function = "";
    let (mut funnelled, mut violations) = (Vec::new(), Vec::new());
    for (lineno, line) in without_test_items(&text).into_iter().enumerate() {
        let item = line.trim_start();
        let item = item.strip_prefix("pub(crate) ").unwrap_or(item);
        if let Some(signature) = item.strip_prefix("fn ") {
            function = signature.split(['(', '<']).next().unwrap_or(signature);
        }
        for access in ["region.load_raw(", "region.store_raw("] {
            if line.contains(access) {
                let site = format!("bytecode.rs:{}: `{access}` in fn {function}", lineno + 1);
                match function {
                    "load_word" | "store_word" => funnelled.push(site),
                    _ => violations.push(site),
                }
            }
        }
    }
    assert!(
        violations.is_empty(),
        "shared memory touched outside VmProc::load_word/store_word:\n{}",
        violations.join("\n")
    );
    assert_eq!(funnelled.len(), 2, "the funnel itself moved: {funnelled:?}");
}

#[test]
fn the_session_protocol_is_written_once() {
    // A job's prologue — reset the plane, bind it as the driver's stats — is
    // `machdep::session::Session::run`'s; the front ends hand it their
    // own reset.  A front end that does either itself is a second copy of
    // the protocol growing back.
    let mut violations = scan(&["reset_for_job(", "bind_ambient_stats("], &[], true);
    violations.retain(|v| !v.starts_with("machdep/src/"));
    assert!(
        violations.is_empty(),
        "the session protocol outside machdep (run jobs through \
         machdep::Session::run):\n{}",
        violations.join("\n")
    );
}

/// Each workspace crate's public surface: its `pub mod` names (in any
/// file) and the names its root `pub use`s export, as `crate: mod name`
/// and `crate: use name` lines (the crate named by its directory),
/// sorted.  A path a caller can name is a
/// path somebody keeps; re-record deliberately (the list prints on a
/// mismatch).
fn public_surface() -> Vec<String> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut crates = vec![("the-force".to_string(), root.join("src"))];
    for entry in fs::read_dir(root.join("crates")).expect("crates/ exists") {
        let dir = entry.expect("dir entry").path();
        let name = dir.file_name().expect("crate dir").to_string_lossy();
        crates.push((format!("crates/{name}"), dir.join("src")));
    }
    let mut surface = Vec::new();
    for (name, src) in crates {
        let mut sources = Vec::new();
        rust_sources(&src, &mut sources);
        for path in &sources {
            let text = fs::read_to_string(path).expect("readable source");
            for line in text.lines() {
                if let Some(rest) = line.trim_start().strip_prefix("pub mod ") {
                    let end = rest.find(|c: char| !c.is_alphanumeric() && c != '_');
                    surface.push(format!(
                        "{name}: mod {}",
                        &rest[..end.unwrap_or(rest.len())]
                    ));
                }
            }
        }
        let lib = fs::read_to_string(src.join("lib.rs")).expect("a library root");
        for item in lib.split("\npub use ").skip(1) {
            let item = &item[..item.find(';').expect("a `pub use` ends")];
            let (path, names) = match item.split_once('{') {
                Some((path, names)) => (path, names.trim_end_matches('}')),
                None => ("", item),
            };
            for used in names.split(',').map(str::trim).filter(|u| !u.is_empty()) {
                let exported = match used.split_once(" as ") {
                    Some((_, alias)) => alias,
                    None if used == "self" => {
                        path.trim_end_matches("::").rsplit("::").next().unwrap()
                    }
                    None => used.rsplit("::").next().unwrap(),
                };
                surface.push(format!("{name}: use {exported}"));
            }
        }
    }
    surface.sort();
    surface
}

/// The surface [`public_surface`] reads.
const PUBLIC_SURFACE: &str = "
crates/bench: mod checks
crates/bench: mod json
crates/bench: mod workloads
crates/core: mod askfor
crates/core: mod asyncvar
crates/core: mod barrier
crates/core: mod barrier_algs
crates/core: mod critical
crates/core: mod doall
crates/core: mod force
crates/core: mod pcase
crates/core: mod player
crates/core: mod prelude
crates/core: mod resolve
crates/core: mod schedule
crates/core: mod shared
crates/core: use AskforPot
crates/core: use Async
crates/core: use AsyncArray
crates/core: use Component
crates/core: use CriticalSection
crates/core: use Force
crates/core: use ForcePool
crates/core: use ForceRange
crates/core: use Pcase
crates/core: use Player
crates/core: use RunOptions
crates/core: use SchedulePolicy
crates/core: use TwoLockBarrier
crates/fortranish: mod ast
crates/fortranish: mod bytecode
crates/fortranish: mod engine
crates/fortranish: mod error
crates/fortranish: mod intrinsics
crates/fortranish: mod lexer
crates/fortranish: mod oracle
crates/fortranish: mod parser
crates/fortranish: mod program
crates/fortranish: mod token
crates/fortranish: mod value
crates/fortranish: use Engine
crates/fortranish: use FortError
crates/fortranish: use FortErrorKind
crates/fortranish: use Program
crates/fortranish: use RunOutput
crates/fortranish: use Unit
crates/fortranish: use Value
crates/machdep: mod combined
crates/machdep: mod fault
crates/machdep: mod fullempty
crates/machdep: mod linkreg
crates/machdep: mod lockpool
crates/machdep: mod park
crates/machdep: mod process
crates/machdep: mod session
crates/machdep: mod spin
crates/machdep: mod syscall_lock
crates/machdep: mod trace
crates/machdep: use Backoff
crates/machdep: use BlockRequest
crates/machdep: use CachePadded
crates/machdep: use ChildPrivateInit
crates/machdep: use Condvar
crates/machdep: use Construct
crates/machdep: use ConstructProfile
crates/machdep: use CostModel
crates/machdep: use FaultInjection
crates/machdep: use FaultPlane
crates/machdep: use ForcePool
crates/machdep: use FullEmptyState
crates/machdep: use HepLock
crates/machdep: use HistogramSnapshot
crates/machdep: use LazyPool
crates/machdep: use LockHandle
crates/machdep: use LockKind
crates/machdep: use LockPool
crates/machdep: use LockRole
crates/machdep: use LockState
crates/machdep: use Machine
crates/machdep: use MachineId
crates/machdep: use MachineSpec
crates/machdep: use Mutex
crates/machdep: use NamedLockProfile
crates/machdep: use OpStats
crates/machdep: use ParkBackend
crates/machdep: use Parker
crates/machdep: use ProcessFault
crates/machdep: use ProcessModel
crates/machdep: use ProfileReport
crates/machdep: use RawLock
crates/machdep: use RunOptions
crates/machdep: use ScarceLockError
crates/machdep: use SchedulePolicy
crates/machdep: use Session
crates/machdep: use SessionRun
crates/machdep: use SharedLayout
crates/machdep: use SharedRegion
crates/machdep: use SharingError
crates/machdep: use SharingModel
crates/machdep: use SharingModelId
crates/machdep: use StatsHandle
crates/machdep: use StatsSnapshot
crates/machdep: use StealOutcome
crates/machdep: use TraceEvent
crates/machdep: use TraceSink
crates/machdep: use VirtualSummary
crates/machdep: use WorkQueues
crates/machdep: use XorShift64
crates/machdep: use charge_virtual
crates/machdep: use current_virtual_ns
crates/machdep: use default_nproc
crates/machdep: use launch_plane
crates/machdep: use spawn_force
crates/machdep: use spawn_force_plane
crates/machdep: use with_lock
crates/prep: mod m4
crates/prep: mod machdep_macros
crates/prep: mod macros
crates/prep: mod pipeline
crates/prep: mod sedpass
crates/prep: mod weigh
crates/prep: use CacheStats
crates/prep: use CompiledPayload
crates/prep: use DeclInfo
crates/prep: use ExpandedProgram
crates/prep: use ExpansionCache
crates/prep: use PassCounts
crates/prep: use PrepError
crates/prep: use VarClass
crates/prep: use expansion_cache
crates/prep: use expansion_cache_len
crates/prep: use expansion_cache_stats
crates/prep: use pass_counts
crates/prep: use preprocess
crates/prep: use preprocess_cached
crates/serve: use DEADLINE_CONSTRUCT
crates/serve: use JobHandle
crates/serve: use RateLimit
crates/serve: use RejectReason
crates/serve: use ServerReport
crates/serve: use Submit
crates/serve: use TenantRollup
crates/serve: use engine_runner
crates/serve: use force_runner
the-force: mod machdep
the-force: mod prelude
the-force: use core
the-force: use fortran
the-force: use prep
the-force: use serve
";

#[test]
fn the_public_surface_is_the_recorded_one() {
    let surface = public_surface().join("\n");
    assert!(
        surface == PUBLIC_SURFACE.trim(),
        "the public surface changed; if on purpose, record it in \
         `PUBLIC_SURFACE`:\n{surface}"
    );
    // A machdep module is public only for a caller that names its path,
    // and its declaration says which.
    let machdep = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/machdep/src/lib.rs");
    let machdep = fs::read_to_string(machdep).expect("machdep's root");
    let unexplained: Vec<&str> = machdep
        .lines()
        .filter(|l| l.starts_with("pub mod ") && !l.contains("; // "))
        .collect();
    assert!(
        unexplained.is_empty(),
        "a public machdep module names no caller:\n{}",
        unexplained.join("\n")
    );
}
