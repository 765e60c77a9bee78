//! The memory itself: the regression guard for the expansion cache's
//! byte bound, over the process's default instance and in a test binary
//! of its own so that `VmRSS` moves for nothing else.
//!
//! Before the bound, every distinct source a process ever expanded stayed
//! resident with its compiled program and its AST (≈ 30 kB each): the
//! 3 000 sources below grew the process by ≈ 89 MB.  With the bound and
//! before the second-lookup admission, they filled the whole 8 MiB with
//! entries that were never read again; now they leave records only.

use the_force::fortran::{Engine, Value};
use the_force::machdep::{Machine, MachineId};
use the_force::prep::{self, ExpansionCache};

/// `VmRSS` of this process in bytes, if the kernel says.
fn rss() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmRSS:"))?;
    let kb: usize = line.trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kb * 1024)
}

/// The `i`-th of a family of distinct programs; its run leaves
/// `c·n(n+1)/2`, returned alongside, in the shared variable `QS<i>`.
fn source(i: usize) -> (String, i64) {
    let n = 8 + (i % 40) as i64;
    let c = 2 + (i % 90) as i64;
    let src = format!(
        "      Force QU{i} of NP ident ME
      Shared INTEGER QS{i}
      Private INTEGER K
      End declarations
      Selfsched DO 100 K = 1, {n}
      Critical QL{i}
      QS{i} = QS{i} + K * {c}
      End critical
100   End selfsched DO
      Join
"
    );
    (src, c * n * (n + 1) / 2)
}

#[test]
fn three_thousand_cold_sources_stay_inside_the_default_bound() {
    let sources = 3000;
    // What every process pays once, outside the cache: the process-wide
    // macro tables, and a first run's threads.
    for id in MachineId::all() {
        let (src, expect) = source(sources);
        let expanded = prep::preprocess(&src, id).unwrap();
        let out = Engine::from_expanded(&expanded, Machine::new(id))
            .unwrap()
            .run(2)
            .unwrap();
        assert_eq!(
            out.shared_scalar(&format!("QS{sources}")),
            Some(Value::Int(expect))
        );
    }
    let Some(before) = rss() else {
        eprintln!("skipped: /proc/self/status is unreadable here");
        return;
    };
    for i in 0..sources {
        let id = MachineId::all()[i % 6];
        let (src, expect) = source(i);
        let expanded = prep::preprocess_cached(&src, id).unwrap();
        let engine = Engine::from_expanded(&expanded, Machine::new(id)).unwrap();
        if i % 250 == 0 {
            let out = engine.run(2).unwrap();
            assert_eq!(
                out.shared_scalar(&format!("QS{i}")),
                Some(Value::Int(expect))
            );
        }
    }
    let grown = rss().expect("readable a moment ago").saturating_sub(before);
    let stats = prep::expansion_cache().stats();
    assert_eq!(stats.misses, sources as u64, "{stats:?}");
    assert_eq!(
        (stats.entries, stats.evictions),
        (0, 0),
        "a one-off source is never admitted ({stats:?})"
    );
    assert_eq!(prep::expansion_cache_len(), 0);
    assert_eq!(stats.bytes, stats.record_bytes, "{stats:?}");
    assert!(stats.bytes <= ExpansionCache::DEFAULT_CAPACITY, "{stats:?}");
    assert!(
        grown <= ExpansionCache::DEFAULT_CAPACITY / 4,
        "{sources} sources grew the process by {grown} bytes ({stats:?})"
    );
    println!("{sources} one-off sources grew the process by {grown} bytes ({stats:?})");
}
