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

/// `BENCH_serve.json` (EXP-18): the burst was absorbed by shedding and
/// deadline kills, never collapse, and the server answered afterwards.
pub fn serve(doc: &Json) -> Result<(), String> {
    let watermark = doc.int("watermark")?;
    each_machine(doc, |m| {
        let (shed, killed) = (m.int("shed")?, m.int("deadline_exceeded")?);
        ensure!(shed + killed > 0, "overload absorbed without shed or kill");
        let (admitted, completed) = (m.int("admitted")?, m.int("completed")?);
        ensure!(
            admitted == completed + shed + killed,
            "a burst job vanished"
        );
        m.int("rejected")?;
        let peak = m.int("peak_backlog")?;
        ensure!(
            peak <= watermark + 64,
            "backlog {peak} not near the watermark"
        );
        ensure!(m.int("watchdog_trips")? == 0, "the watchdog tripped");
        let answered = m.get("probe_completed")? == &Json::Bool(true);
        ensure!(answered, "the post-burst probe did not complete");
        Ok(())
    })
}

/// `BENCH_park.json` (EXP-19): both backends did the same work with
/// balanced parks, and the big force completed with balanced parks and
/// a quiet watchdog.
pub fn park(doc: &Json) -> Result<(), String> {
    ensure!(doc.int("workers")? >= 1, "no workers");
    let balanced = |row: &Json| -> Result<(), String> {
        let (parks, wakes) = (row.int("parks")?, row.int("park_wakes")?);
        ensure!(wakes == parks, "{parks} parks, {wakes} wakes");
        Ok(())
    };
    each_machine(doc, |m| {
        let (d, o, b) = (
            m.get("dedicated")?,
            m.get("overcommit")?,
            m.get("big_force")?,
        );
        for key in ["barrier_episodes", "lock_acquires", "fe_transfers"] {
            let (tpp, ovc) = (d.int(key)?, o.int(key)?);
            ensure!(tpp == ovc, "{key}: {tpp} dedicated, {ovc} overcommitted");
        }
        ensure!(d.int("barrier_episodes")? > 0, "no barrier episode");
        balanced(d)?;
        balanced(o)?;
        b.int("elapsed_ms")?;
        let done = b.get("completed")? == &Json::Bool(true);
        ensure!(done, "the big force did not complete");
        ensure!(b.int("parks")? > 0, "the big force never parked");
        balanced(b)?;
        ensure!(b.int("watchdog_trips")? == 0, "the watchdog tripped");
        Ok(())
    })
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

/// `BENCH_shard.json` (EXP-21): a complete row per shard count, nothing
/// shed, coherent peaks, and as many jobs running at once as there are
/// shards — the shards overlap their jobs, and none runs two.
pub fn shard(doc: &Json) -> Result<(), String> {
    let jobs = doc.int("jobs")?;
    each_machine(doc, |m| {
        let rows = m.arr("shards")?;
        let counts = ints(rows, "shards")?;
        ensure!(counts == [1, 2, 4], "shard rows {counts:?}, want [1, 2, 4]");
        for r in rows {
            ensure!(r.num("speedup_vs_1")? > 0.0, "a speedup is not positive");
            ensure!(r.int("completed")? == jobs, "a saturation run lost jobs");
            ensure!(r.int("shed")? == 0, "a saturation run shed work");
            let (peaks, backlog) = (r.arr("shard_peaks")?, r.int("peak_backlog")?);
            let shards = r.int("shards")?;
            ensure!(peaks.len() as u64 == shards, "not a peak per shard");
            let bounded = |p: &Json| matches!(p, Json::Int(n) if *n <= backlog);
            ensure!(peaks.iter().all(bounded), "a shard peak above the backlog");
            let at_once = r.int("max_running")?;
            ensure!(
                at_once == shards,
                "{at_once} jobs at once on {shards} shards"
            );
        }
        Ok(())
    })
}
