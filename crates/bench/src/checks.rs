//! One `check` per `BENCH_*.json` artifact: the shape and the
//! hardware-independent facts an artifact must show before `reproduce`
//! writes it.  Each runs on the parsed-back [`Json`], never on text.

use force_core::prelude::MachineId;

use crate::json::Json;
use crate::workloads::Schedule;

macro_rules! ensure {
    ($cond:expr, $($msg:tt)+) => {
        let holds: bool = $cond;
        if !holds {
            return Err(format!($($msg)+));
        }
    };
}

/// `doc.machines` holds exactly one block per machine personality, in
/// `MachineId::all()` order, and `check` holds on each.
fn each_machine(doc: &Json, check: impl Fn(&Json) -> Result<(), String>) -> Result<(), String> {
    let blocks = doc.arr("machines")?;
    let ids = MachineId::all();
    let (got, want) = (blocks.len(), ids.len());
    ensure!(got == want, "{got} machine blocks, want {want}");
    for (m, id) in blocks.iter().zip(ids) {
        let name = m.text("machine")?;
        ensure!(name == id.name(), "block for {name}, want {}", id.name());
        check(m).map_err(|e| format!("{name}: {e}"))?;
    }
    Ok(())
}

/// The `key` string of every element of `items`.
fn texts<'a>(items: &'a [Json], key: &str) -> Result<Vec<&'a str>, String> {
    items.iter().map(|item| item.text(key)).collect()
}

/// The `key` integer of every element of `items`.
fn ints(items: &[Json], key: &str) -> Result<Vec<u64>, String> {
    items.iter().map(|item| item.int(key)).collect()
}

/// The summary counter `key` counts machines, so it cannot exceed them.
fn winners_within_machines(doc: &Json, key: &str) -> Result<(), String> {
    let (wins, machines) = (doc.int(key)?, MachineId::all().len() as u64);
    ensure!(wins <= machines, "{key} is {wins} of {machines} machines");
    Ok(())
}

/// `BENCH_trace.json` (EXP-15): a loadable Chrome trace with balanced
/// spans, the constructs the job runs, one process per machine, and per
/// machine a profile that holds exactly one job.
pub fn trace(doc: &Json) -> Result<(), String> {
    let events = doc.arr("traceEvents")?;
    let phase = |ph: &'static str| events.iter().filter(move |e| e.text("ph") == Ok(ph));
    let begins: Vec<&str> = phase("B")
        .map(|e| e.text("name"))
        .collect::<Result<_, _>>()?;
    let (b, e) = (begins.len(), phase("E").count());
    ensure!(
        b > 0 && b == e,
        "unbalanced duration events: {b} B vs {e} E"
    );
    for construct in ["barrier", "critical"] {
        ensure!(begins.contains(&construct), "no {construct} span");
    }
    let named = phase("M").map(|e| e.get("args")?.text("name"));
    let mut processes: Vec<&str> = named.collect::<Result<_, _>>()?;
    processes.sort_unstable();
    processes.dedup();
    let (got, want) = (processes.len(), MachineId::all().len());
    ensure!(got == want, "{got} traced processes, want {want}");
    let table = doc.get("otherData")?;
    let (nproc, trips) = (table.int("nproc")?, table.int("trips")?);
    each_machine(table, |m| {
        let counted = m.int("doall_trips")?;
        ensure!(counted == trips, "{counted} DOALL trips, want {trips}");
        let acquires = m.int("critical_acquires")?;
        ensure!(acquires == nproc, "{acquires} critical acquisitions");
        let spans = m.int("barrier_spans")?;
        ensure!(spans == 2 * nproc, "{spans} barrier spans");
        ensure!(m.int("events")? > 0, "no events retained");
        ensure!(m.int("dropped_events")? == 0, "events were dropped");
        Ok(())
    })
}

/// `BENCH_sched.json` (EXP-16): every policy on both workloads everywhere.
pub fn sched(doc: &Json) -> Result<(), String> {
    let policies: Vec<&str> = Schedule::all().iter().map(|s| s.policy().name()).collect();
    each_machine(doc, |m| {
        let workloads = m.arr("workloads")?;
        let names = texts(workloads, "workload")?;
        ensure!(names == ["uniform", "skewed"], "workloads {names:?}");
        for w in workloads {
            let rows = w.arr("policies")?;
            let got = texts(rows, "policy")?;
            ensure!(got == policies, "policies {got:?}, want {policies:?}");
            for row in rows {
                ensure!(row.int("ns")? > 0, "a policy took 0 ns");
            }
        }
        m.int("steals")?;
        let speedup = m.num("skewed_speedup_vs_selfsched")?;
        ensure!(speedup > 0.0, "skewed speedup {speedup} is not positive");
        Ok(())
    })?;
    winners_within_machines(doc, "machines_where_guided_or_steal_wins_skewed")
}

/// `BENCH_vtime.json` (EXP-20): a deterministic curve with one point per
/// swept `nprocs` entry and a real virtual speedup at the widest force.
pub fn vtime(doc: &Json, nprocs: &[u64]) -> Result<(), String> {
    each_machine(doc, |m| {
        let replayed = m.get("deterministic")? == &Json::Bool(true);
        ensure!(replayed, "a replay diverged");
        let curve = m.arr("curve")?;
        let swept = ints(curve, "nproc")?;
        ensure!(swept == nprocs, "curve sweeps {swept:?}, want {nprocs:?}");
        for p in curve {
            ensure!(p.int("makespan_ns")? > 0, "a makespan is 0");
            p.num("speedup")?;
            let digest = p.text("digest")?;
            let parsed = u64::from_str_radix(digest.trim_start_matches("0x"), 16);
            ensure!(matches!(parsed, Ok(d) if d != 0), "bad digest {digest}");
        }
        if let [serial, .., widest] = curve {
            let shrank = widest.int("makespan_ns")? < serial.int("makespan_ns")?;
            ensure!(shrank && widest.num("speedup")? > 1.0, "no virtual speedup");
        }
        Ok(())
    })
}
