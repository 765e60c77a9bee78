//! Observability: construct-level tracing, contention profiles, and the
//! accounting fixes that keep the numbers honest — the profile must reset
//! per job like the fault plane, and an expansion-cache hit must not
//! attribute miss-path sed/m4 work.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use the_force::fortran::Engine;
use the_force::machdep::{ForcePool, Machine, MachineId, RunOptions};
use the_force::prelude::*;
use the_force::prep;

const SUM_PROGRAM: &str = "\
      Force FMAIN of NP ident ME
      Shared INTEGER TOTAL
      Private INTEGER K
      End declarations
      Selfsched DO 100 K = 1, 100
      Critical LCK
      TOTAL = TOTAL + K
      End critical
100   End selfsched DO
      Barrier
      End barrier
      Join
";

/// Satellite: an expansion-cache *hit* must not bump the sed/m4 pass
/// counters — the miss path's work belongs to the job that missed, and a
/// pooled session re-running a cached program does none of it.
#[test]
fn cached_hits_do_not_count_prep_passes() {
    // A cache of this test's own: its counters move for nobody else.
    let cache = prep::ExpansionCache::new(1 << 20);
    // One source ported to all six personalities: each port expands it
    // once, and every re-run afterwards is free.
    for (ported, id) in (1..).zip(MachineId::all()) {
        let machine = Machine::new(id);
        let pool = Arc::new(ForcePool::new(4, machine.stats()));

        // Warm the cache (the miss counts one sed + two m4 passes; the
        // second lookup admits the expansion the first returned).
        let expanded = cache.preprocess(SUM_PROGRAM, id).unwrap();
        let engine = Engine::from_expanded(&expanded, Arc::clone(&machine)).unwrap();
        engine.set_pool(Arc::clone(&pool));
        let admitted = cache.preprocess(SUM_PROGRAM, id).unwrap();
        assert!(Arc::ptr_eq(&expanded, &admitted));

        let before = cache.stats();
        assert_eq!(
            (before.misses, before.sed, before.m4, before.entries),
            (ported, ported, 2 * ported, ported as usize)
        );
        for _ in 0..3 {
            let hit = cache.preprocess(SUM_PROGRAM, id).unwrap();
            let engine = Engine::from_expanded(&hit, Arc::clone(&machine)).unwrap();
            engine.set_pool(Arc::clone(&pool));
            let out = engine.run(4).unwrap();
            assert_eq!(
                out.shared_scalar("TOTAL"),
                Some(the_force::fortran::Value::Int(5050))
            );
        }
        assert_eq!(
            cache.stats(),
            prep::CacheStats {
                hits: before.hits + 3,
                ..before
            },
            "{}: three hits: no sed or m4 pass, no miss, no new bytes",
            id.name()
        );
    }
}

/// Satellite: pooled-session trace reset.  Job A runs traced, job B
/// untraced on the same resident session; B must report no profile and
/// A's already-captured report must be unaffected (the `ProfileReport`
/// is plain data, detached from the recycled sink).
#[test]
fn pooled_session_trace_resets_between_jobs() {
    let machine = Machine::new(MachineId::SequentBalance);
    let pool = Arc::new(ForcePool::new(4, machine.stats()));
    let force = Force::with_machine(4, Arc::clone(&machine)).with_pool(pool);

    let traced = RunOptions {
        trace: true,
        ..RunOptions::default()
    };
    let sum = AtomicU64::new(0);
    force
        .try_execute_with(traced, |p| {
            p.presched_do(ForceRange::to(1, 40), |i| {
                sum.fetch_add(i as u64, Ordering::Relaxed);
            });
            p.critical("HOT", || {});
            p.barrier();
        })
        .unwrap();
    let job_a = force.last_job_profile().expect("job A was traced");
    assert!(job_a.construct("doall").is_some());
    assert_eq!(job_a.doall_trips.iter().sum::<u64>(), 40);
    let job_a_copy = job_a.clone();

    // Job B: same session, tracing off.  No profile, and the hot path
    // reverts to the untraced one.
    force.try_run(|p| p.barrier()).unwrap();
    assert!(
        force.last_job_profile().is_none(),
        "an untraced job must not surface the previous job's profile"
    );
    assert_eq!(job_a, job_a_copy, "A's report is detached plain data");

    // Job C: traced again on the recycled sink — counts start from zero,
    // proving the reset (not accumulation onto job A's numbers).
    force.try_execute_with(traced, |p| p.barrier()).unwrap();
    let job_c = force.last_job_profile().expect("job C was traced");
    assert!(job_c.construct("doall").is_none(), "job C ran no DOALL");
    assert_eq!(job_c.doall_trips.iter().sum::<u64>(), 0);
    assert!(job_c.named_locks.is_empty(), "job C entered no critical");
}

/// The same reset contract through the language front end: a pooled
/// engine session runs job A traced and job B untraced.
#[test]
fn pooled_engine_session_trace_resets_between_jobs() {
    let machine = Machine::new(MachineId::Flex32);
    let expanded = prep::preprocess_cached(SUM_PROGRAM, MachineId::Flex32).unwrap();
    let engine = Engine::from_expanded(&expanded, Arc::clone(&machine)).unwrap();
    engine.set_pool(Arc::new(ForcePool::new(3, machine.stats())));

    let traced = RunOptions {
        trace: true,
        ..RunOptions::default()
    };
    let out_a = engine.run_with(3, traced).unwrap();
    let job_a = out_a.profile.expect("job A was traced");
    assert!(job_a.construct("interpreter").is_some());
    assert!(
        job_a.named_locks.iter().any(|l| l.name == "LCK"),
        "the user critical section is profiled by name: {:?}",
        job_a
            .named_locks
            .iter()
            .map(|l| &l.name)
            .collect::<Vec<_>>()
    );

    let out_b = engine.run(3).unwrap();
    assert!(out_b.profile.is_none());
    assert!(engine.last_job_profile().is_none());
    assert_eq!(
        out_b.shared_scalar("TOTAL"),
        Some(the_force::fortran::Value::Int(5050))
    );
}

/// The Chrome `trace_event` export is structurally sound: a JSON object
/// with a `traceEvents` array, balanced duration events (every `B` has a
/// matching `E`), and process metadata naming the force.
#[test]
fn chrome_export_is_balanced_and_loadable() {
    let force = Force::new(3);
    let options = RunOptions {
        trace: true,
        ..RunOptions::default()
    };
    force
        .try_execute_with(options, |p| {
            p.presched_do(ForceRange::to(1, 30), |_| {});
            p.critical("X", || {});
            p.barrier();
        })
        .expect("clean run");
    let profile = force.last_job_profile().unwrap();
    let json = profile.chrome_trace_json();
    assert!(json.starts_with('{') && json.ends_with('}'));
    assert!(json.contains("\"traceEvents\""));
    assert!(json.contains("\"process_name\""));
    let count = |needle: &str| json.matches(needle).count();
    assert_eq!(
        count("\"ph\":\"B\""),
        count("\"ph\":\"E\""),
        "every duration-begin event pairs with an end"
    );
    assert!(count("\"ph\":\"B\"") > 0, "trace retained construct spans");
    // Balanced braces/brackets — the cheap structural check a JSON
    // parser would do (the export never emits strings with braces).
    for (open, close) in [('{', '}'), ('[', ']')] {
        assert_eq!(
            json.matches(open).count(),
            json.matches(close).count(),
            "balanced {open}{close}"
        );
    }
}
