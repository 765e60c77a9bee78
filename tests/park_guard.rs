//! Guard: every blocking wait in the tree must route through
//! `machdep::park`.  A hand-rolled `Backoff` loop or raw `Condvar` wait
//! outside the parking layer silently loses cancellation checks,
//! wait-board attribution, park counters, and — fatally under the
//! `Overcommit` backend — the run-permit hand-off, so this test fails
//! the build the moment one reappears.

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

/// Every line under `crates/*/src` holding one of `patterns`, as
/// `file:line: pattern`, skipping the `exempt` files.  `production_only`
/// narrows the scan to code a force can execute: it drops the bench
/// harness (a load generator and stopwatch by design) and each file's
/// unit tests, which sit below the first `#[cfg(test)]` marker in this
/// tree.
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
            text.split("#[cfg(test)]").next().unwrap_or(&text)
        } else {
            &text
        };
        for (lineno, line) in scanned.lines().enumerate() {
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
    // timestamps, deadline watchers, retry backoff.  A virtual run sees
    // its deadline only as the budget left that its plane's reset arms on
    // the virtual clock.
    "machdep/src/serve.rs",
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
    // The dispatcher shards.
    "machdep/src/serve.rs",
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
    let mut violations = scan(&["timer_wait(", "HEARTBEAT"], &[], true);
    violations.retain(|v| v.starts_with("machdep/src/serve.rs:"));
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
    let production = text.split("#[cfg(test)]").next().unwrap_or(&text);
    let mut function = "";
    let (mut funnelled, mut violations) = (Vec::new(), Vec::new());
    for (lineno, line) in production.lines().enumerate() {
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
    // A job's prologue — reset the plane, bind the session's stats — is
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
