//! The expansion cache as its callers see it: a source resident from its
//! second lookup, bounded in bytes, least recently used out first, the
//! same `Arc` for as long as an entry is resident or anyone holds it,
//! holders unaffected by eviction, the compiled artifact counted, and
//! the reference interpreter's AST never resident in it.
//!
//! Every test builds a cache of its own.  The memory regression guard
//! over the process's default instance is `expansion_cache_rss.rs`, a
//! binary of its own so that nothing else allocates beside it.

mod support;

use std::sync::{Arc, Barrier};

use the_force::fortran::oracle::Oracle;
use the_force::fortran::{Engine, Value};
use the_force::machdep::{Machine, MachineId, RunOptions};
use the_force::prep::{ExpandedProgram, ExpansionCache};

/// The `i`-th of a family of distinct programs and the value its run
/// leaves in the shared variable [`shared_name`] names.
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

fn shared_name(i: usize) -> String {
    format!("QS{i}")
}

/// Look `src` up twice on `id`, holding the first expansion: the second
/// lookup admits that very `Arc` and returns it.
fn admitted(cache: &ExpansionCache, src: &str, id: MachineId) -> Arc<ExpandedProgram> {
    let first = cache.preprocess(src, id).unwrap();
    let second = cache.preprocess(src, id).unwrap();
    assert!(Arc::ptr_eq(&first, &second), "admitted as it was returned");
    second
}

/// The accounted weight of one compiled entry of this family.
fn entry_weight() -> usize {
    let cache = ExpansionCache::new(usize::MAX);
    let expanded = admitted(&cache, &source(0).0, MachineId::Hep);
    Engine::from_expanded(&expanded, Machine::new(MachineId::Hep)).unwrap();
    cache.stats().bytes
}

/// The accounted weight of one entry of this family that no engine has
/// loaded (no compiled program in its payload).
fn uncompiled_weight() -> usize {
    let cache = ExpansionCache::new(usize::MAX);
    admitted(&cache, &source(0).0, MachineId::Hep);
    cache.stats().bytes
}

/// What the cache holds by its own count: the resident weights and the
/// records'.
fn held_sum(cache: &ExpansionCache) -> usize {
    let resident: usize = cache.resident().iter().map(|(_, weight)| weight).sum();
    resident + cache.stats().record_bytes
}

/// (i) Least recently used, not first in: a hot set that keeps being
/// looked up survives any number of cold sources streaming through, and
/// every hot lookup returns the very `Arc` the first one did (callers
/// key resident sessions by that address).
#[test]
fn the_hot_set_survives_a_stream_of_cold_sources() {
    // One hot lookup per 3 inserts, round robin over 36: a hot entry is
    // touched every 108 inserts.  No entry here is compiled, so this is
    // room for 187 of them (the records take 1/16), well over 36 + 108.
    let cache = ExpansionCache::new(200 * uncompiled_weight());
    let mut hot = Vec::new();
    for i in 0..6 {
        for id in MachineId::all() {
            hot.push((i, id, admitted(&cache, &source(i).0, id)));
        }
    }
    let mut lookups = 0;
    for i in 0..5000 {
        // Each cold source is admitted: it competes for the room.
        admitted(&cache, &source(1000 + i).0, MachineId::Flex32);
        let stats = cache.stats();
        assert!(stats.bytes <= cache.capacity(), "{stats:?}");
        if i % 3 == 0 {
            let (src, id, first) = &hot[lookups % hot.len()];
            lookups += 1;
            let again = cache.preprocess(&source(*src).0, *id).unwrap();
            assert!(Arc::ptr_eq(first, &again), "hot entry lost at insert {i}");
        }
    }
    let stats = cache.stats();
    assert_eq!(
        stats.hits,
        (36 + 5000 + lookups) as u64,
        "every second and hot lookup hit"
    );
    assert_eq!(stats.misses, 36 + 5000);
    assert!(stats.evictions > 4000, "{stats:?}");
    assert_eq!(stats.entries as u64, stats.misses - stats.evictions);
    assert_eq!(stats.bytes, held_sum(&cache));
}

/// (i') A source becomes resident on its second lookup, so one-off
/// sources never take a held hot set's room: in a cache sized for the
/// hot set plus the records' 1/16, any stream of them evicts nothing,
/// and every hot lookup returns the hot set's own `Arc`.
#[test]
fn a_held_hot_set_survives_any_stream_of_one_off_sources() {
    let sizing = ExpansionCache::new(usize::MAX);
    let mut hot = Vec::new();
    for i in 0..6 {
        for id in MachineId::all() {
            let expanded = admitted(&sizing, &source(i).0, id);
            Engine::from_expanded(&expanded, Machine::new(id)).unwrap();
            hot.push((i, id));
        }
    }
    let hot_bytes = sizing.stats().bytes;
    drop(sizing);

    let cache = ExpansionCache::new(hot_bytes + hot_bytes / 15 + 16);
    let hot: Vec<_> = hot
        .into_iter()
        .map(|(i, id)| {
            let expanded = admitted(&cache, &source(i).0, id);
            let engine = Engine::from_expanded(&expanded, Machine::new(id)).unwrap();
            (i, id, expanded, engine)
        })
        .collect();
    let full = cache.stats();
    assert_eq!(
        (full.entries, full.evictions, full.bytes),
        (36, 0, hot_bytes)
    );
    for i in 0..1500 {
        let id = MachineId::all()[i % 6];
        let (src, expect) = source(1000 + i);
        let once = cache.preprocess(&src, id).unwrap();
        if i % 50 == 0 {
            let engine = Engine::from_expanded(&once, Machine::new(id)).unwrap();
            let out = engine.run(2).unwrap();
            assert_eq!(
                out.shared_scalar(&shared_name(1000 + i)),
                Some(Value::Int(expect))
            );
        }
        let stats = cache.stats();
        assert!(stats.bytes <= cache.capacity(), "{stats:?}");
        assert_eq!((stats.entries, stats.evictions), (36, 0), "{stats:?}");
        let (hot_src, hot_id, first, engine) = &hot[i % hot.len()];
        let again = cache.preprocess(&source(*hot_src).0, *hot_id).unwrap();
        assert!(Arc::ptr_eq(first, &again), "hot entry lost at one-off {i}");
        if i % 250 == 0 {
            let out = engine.run(2).unwrap();
            let (_, expect) = source(*hot_src);
            assert_eq!(
                out.shared_scalar(&shared_name(*hot_src)),
                Some(Value::Int(expect))
            );
        }
    }
    let stats = cache.stats();
    assert_eq!(stats.bytes - stats.record_bytes, hot_bytes, "{stats:?}");
    assert!(stats.records > 0, "{stats:?}");
    assert_eq!(stats.bytes, held_sum(&cache));
}

/// (ii) Eviction drops the cache's reference and nothing else: the
/// expansion a caller holds, and an engine loaded from it, stay whole.
#[test]
fn holders_outlive_the_eviction_of_their_entry() {
    let cache = ExpansionCache::new(3 * entry_weight());
    let (src, expect) = source(1);
    let held = admitted(&cache, &src, MachineId::Cray2);
    let engine = Engine::from_expanded(&held, Machine::new(MachineId::Cray2)).unwrap();
    for i in 10..20 {
        let e = admitted(&cache, &source(i).0, MachineId::Cray2);
        Engine::from_expanded(&e, Machine::new(MachineId::Cray2)).unwrap();
    }
    assert!(cache.stats().evictions >= 7);
    assert!(
        !cache.resident().iter().any(|(p, _)| Arc::ptr_eq(p, &held)),
        "the held entry was evicted"
    );

    let out = engine.run(2).expect("run");
    assert_eq!(out.shared_scalar(&shared_name(1)), Some(Value::Int(expect)));
    let late = Engine::from_expanded(&held, Machine::new(MachineId::Cray2)).unwrap();
    let out = late.run(2).expect("run");
    assert_eq!(out.shared_scalar(&shared_name(1)), Some(Value::Int(expect)));

    let misses = cache.stats().misses;
    let again = admitted(&cache, &src, MachineId::Cray2);
    assert_eq!(cache.stats().misses, misses + 1, "expanded again");
    assert!(!Arc::ptr_eq(&held, &again));
    assert_eq!(held.code, again.code);
    assert_eq!(held.decls, again.decls);
    assert_eq!(held.env_cells, again.env_cells);
    // The evicted expansion's bundle was not charged to the new entry.
    assert_eq!(cache.stats().bytes, held_sum(&cache));
    assert_eq!(again.payload.weight(), 0);
}

/// (iii) The compiled artifact is most of an entry, and it arrives after
/// the insert: loading an engine grows the entry by the artifact's
/// weight, once, however many engines are loaded.  An engine loaded
/// from a source's first expansion charges nobody, and the second
/// lookup admits that expansion weighed with its bundle.
#[test]
fn loading_an_engine_charges_the_bundle_to_the_entry() {
    let cache = ExpansionCache::new(1 << 20);
    let expanded = admitted(&cache, &source(2).0, MachineId::Hep);
    let bare = cache.stats().bytes;
    assert_eq!(cache.resident()[0].1, bare);
    assert_eq!(expanded.payload.weight(), 0);

    Engine::from_expanded(&expanded, Machine::new(MachineId::Hep)).unwrap();
    let bundle = expanded.payload.weight();
    assert!(
        bundle > 1000,
        "a compiled program weighs kilobytes: {bundle}"
    );
    assert_eq!(cache.stats().bytes, bare + bundle);
    assert_eq!(cache.resident()[0].1, bare + bundle);

    Engine::from_expanded(&expanded, Machine::new(MachineId::Hep)).unwrap();
    assert_eq!(cache.stats().bytes, bare + bundle, "charged once");

    let once = cache.preprocess(&source(3).0, MachineId::Hep).unwrap();
    let recorded = cache.stats();
    Engine::from_expanded(&once, Machine::new(MachineId::Hep)).unwrap();
    assert_eq!(cache.stats(), recorded, "a first expansion is nobody's");
    let again = cache.preprocess(&source(3).0, MachineId::Hep).unwrap();
    assert!(Arc::ptr_eq(&once, &again));
    let (_, weight) = cache.resident().pop().unwrap();
    assert!(weight > once.payload.weight(), "admitted with its bundle");
    Engine::from_expanded(&again, Machine::new(MachineId::Hep)).unwrap();
    assert_eq!(cache.resident().pop().unwrap().1, weight, "charged once");
    assert_eq!(cache.stats().bytes, held_sum(&cache));
}

/// (iv) Eight threads mixing hot and cold lookups, each loading an
/// engine (so records, admissions, hits, attaches and evictions
/// interleave), keep the byte count within the capacity at every step
/// and leave it equal to the sum of what is held.
#[test]
fn concurrent_hot_and_cold_jobs_keep_the_accounting_exact() {
    // A hot key is looked up by every thread once in four rounds, so at
    // most 8 x 4 cold entries come between two lookups of it.
    let cache = ExpansionCache::new(64 * entry_weight());
    let start = Barrier::new(8);
    std::thread::scope(|s| {
        for t in 0..8 {
            let (cache, start) = (&cache, &start);
            s.spawn(move || {
                start.wait();
                for i in 0..40 {
                    // Each cold source is looked up twice in a row: the
                    // second lookup admits it.
                    for n in [i % 4, 100 * (t + 1) + i / 2] {
                        let id = MachineId::all()[n % 6];
                        let expanded = cache.preprocess(&source(n).0, id).unwrap();
                        Engine::from_expanded(&expanded, Machine::new(id)).unwrap();
                        let stats = cache.stats();
                        assert!(stats.bytes <= cache.capacity(), "{stats:?}");
                    }
                }
            });
        }
    });
    let stats = cache.stats();
    assert_eq!(stats.hits + stats.misses, 8 * 40 * 2);
    // All a hot key can miss is the race of the threads' first lookups.
    assert!(stats.hits >= 8 * 40 - 4 * 8, "the hot four stay resident");
    assert!(stats.evictions > 0);
    assert_eq!(stats.bytes, held_sum(&cache));
    assert_eq!(stats.entries, cache.resident().len());
}

/// (v) The reference interpreter's AST is the oracle's own: an `Oracle`
/// built from a cached expansion, and from one evicted and expanded
/// again, agrees with the `Engine` and adds nothing to the cache's bytes.
#[test]
fn the_oracle_owns_its_ast_and_agrees_with_the_bytecode() {
    let cache = ExpansionCache::new(3 * entry_weight());
    let (src, expect) = source(3);
    let id = MachineId::SequentBalance;
    let tree_run = |expanded| {
        let oracle = Oracle::from_expanded(expanded, Machine::new(id)).unwrap();
        oracle
            .run_with(2, RunOptions::default())
            .expect("oracle run")
    };

    let first = admitted(&cache, &src, id);
    let engine = Engine::from_expanded(&first, Machine::new(id)).unwrap();
    let byte = engine.run(2).expect("run");
    assert_eq!(
        byte.shared_scalar(&shared_name(3)),
        Some(Value::Int(expect))
    );
    let resident = cache.stats().bytes;
    support::assert_same_run("cached", &tree_run(&first), &byte);
    assert_eq!(
        cache.stats().bytes,
        resident,
        "the AST is the oracle's, not the cache's"
    );

    // Evict, expand again, and walk the tree of the reloaded program.
    for i in 30..36 {
        let e = admitted(&cache, &source(i).0, MachineId::Hep);
        Engine::from_expanded(&e, Machine::new(MachineId::Hep)).unwrap();
    }
    assert!(
        !cache.resident().iter().any(|(p, _)| Arc::ptr_eq(p, &first)),
        "evicted"
    );
    let reloaded = admitted(&cache, &src, id);
    assert!(
        !Arc::ptr_eq(&first, &reloaded),
        "evicted and expanded again"
    );
    // Loading an engine attaches the bundle; the oracle adds nothing more.
    Engine::from_expanded(&reloaded, Machine::new(id)).unwrap();
    let resident = cache.stats().bytes;
    support::assert_same_run("reloaded", &tree_run(&reloaded), &byte);
    assert_eq!(cache.stats().bytes, resident);
}
