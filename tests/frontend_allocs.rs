//! An allocation budget for the cold path, in a test binary of its own
//! because it replaces the global allocator.
//!
//! A never-seen source pays `preprocess` (sed → m4 → m4) and then
//! `Engine::from_expanded` (lex → parse → bytecode).  Timings of those
//! two move with the host; their allocation counts do not — they repeat
//! exactly, run after run — so a ceiling on them keeps the front end
//! from eroding between benchmark runs.  PR 18 read 1 497–1 498
//! allocations to expand the `ksum` shape and 1 284–1 312 to load it;
//! PR 19, which set the ceilings, 185–186 and 346–350.

mod support;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use support::corpus::KSUM;
use the_force::fortran::Engine;
use the_force::machdep::{Machine, MachineId};
use the_force::prep::preprocess;

thread_local! {
    /// Allocations made by this thread while it is measuring.
    static COUNT: Cell<Option<u64>> = const { Cell::new(None) };
}

/// The system allocator, counting `alloc` and `realloc` calls of the
/// measuring thread.
struct Counting;

fn tick() {
    // `try_with`: the allocator also runs while a thread is torn down.
    let _ = COUNT.try_with(|c| c.set(c.get().map(|n| n + 1)));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; `tick` touches only a const-initialised
// thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tick();
        // SAFETY: the caller's contract, forwarded.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
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

/// Ceilings per cold source, a few per cent over what PR 19 measured
/// (ISSUE 19 asked for 400 + 650); ratchet them down, never up.
const EXPAND_CEILING: u64 = 200;
const LOAD_CEILING: u64 = 360;

#[test]
fn a_cold_source_stays_inside_its_allocation_budget() {
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
