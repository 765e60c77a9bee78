//! Drives the built `reproduce` binary: the `--smoke` run of EXP-15..21
//! writes six artifacts that parse and pass their checks, every check
//! rejects a broken artifact, and a mistyped name or flag runs nothing.

use std::path::PathBuf;
use std::process::Command;
use std::sync::OnceLock;

use force_bench::checks;
use force_bench::json::Json;

type Check = fn(&Json) -> Result<(), String>;

const ARTIFACTS: [(&str, &str, Check); 6] = [
    ("exp15", "BENCH_trace.json", checks::trace),
    ("exp16", "BENCH_sched.json", checks::sched),
    ("exp18", "BENCH_serve.json", checks::serve),
    ("exp19", "BENCH_park.json", checks::park),
    ("exp20", "BENCH_vtime.json", |doc| {
        checks::vtime(doc, &[1, 2, 4, 8])
    }),
    ("exp21", "BENCH_shard.json", checks::shard),
];

fn reproduce(dir: &PathBuf, args: &[&str]) -> std::process::Output {
    std::fs::create_dir_all(dir).expect("create scratch dir");
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("spawn reproduce")
}

fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("force-reproduce-{tag}-{}", std::process::id()))
}

/// The six smoke artifacts, produced by one run shared by every test.
fn smoke_artifacts() -> &'static [Json] {
    static DOCS: OnceLock<Vec<Json>> = OnceLock::new();
    DOCS.get_or_init(|| {
        let dir = scratch("smoke");
        let mut args = vec!["--smoke"];
        args.extend(ARTIFACTS.iter().map(|(exp, _, _)| *exp));
        let out = reproduce(&dir, &args);
        assert!(
            out.status.success(),
            "reproduce --smoke failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.contains("EXP-15:") && !stdout.contains("EXP-13:"),
            "ran an unnamed experiment"
        );
        let docs = ARTIFACTS
            .iter()
            .map(|(_, file, _)| {
                let text = std::fs::read_to_string(dir.join(file)).expect(file);
                Json::parse(&text).unwrap_or_else(|e| panic!("{file}: {e}"))
            })
            .collect();
        std::fs::remove_dir_all(&dir).expect("remove scratch dir");
        docs
    })
}

#[test]
fn smoke_run_writes_six_artifacts_that_parse_and_pass_their_checks() {
    for ((_, file, check), doc) in ARTIFACTS.iter().zip(smoke_artifacts()) {
        check(doc).unwrap_or_else(|e| panic!("{file}: {e}"));
    }
}

/// The value at `path` (`/`-separated object keys and array indices).
fn at<'a>(doc: &'a mut Json, path: &str) -> &'a mut Json {
    let segments = path.split('/').filter(|seg| !seg.is_empty());
    segments.fold(doc, |node, seg| match node {
        Json::Obj(pairs) => pairs
            .iter_mut()
            .find(|(k, _)| k == seg)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("no key {seg} on {path}")),
        Json::Arr(items) => &mut items[seg.parse::<usize>().expect("array index")],
        _ => panic!("{seg} on {path} is inside a scalar"),
    })
}

/// Apply `;`-separated edits: `path=json` replaces the value at `path`,
/// `-path` removes that member or element from its parent.
fn edit(doc: &mut Json, edits: &str) {
    for one in edits.split(';') {
        if let Some(path) = one.strip_prefix('-') {
            let (parent, last) = path.rsplit_once('/').unwrap_or(("", path));
            match at(doc, parent) {
                Json::Arr(items) => drop(items.remove(last.parse().expect("array index"))),
                Json::Obj(pairs) => pairs.retain(|(k, _)| k != last),
                _ => panic!("{parent} is a scalar"),
            }
        } else {
            let (path, value) = one.split_once('=').expect("path=json");
            *at(doc, path) = Json::parse(value).expect("replacement value");
        }
    }
}

/// Edits that each break one condition the named artifact's check enforces
/// (trace event 0 is the first machine's process record).
const BROKEN: &[(&str, &str)] = &[
    ("BENCH_trace.json", "traceEvents=[]"),
    ("BENCH_trace.json", "traceEvents/0/ph=\"B\""),
    ("BENCH_trace.json", "-traceEvents/0"),
    ("BENCH_trace.json", "-otherData/machines/0"),
    ("BENCH_trace.json", "-otherData"),
    ("BENCH_trace.json", "otherData/machines/1/doall_trips=63"),
    (
        "BENCH_trace.json",
        "otherData/machines/2/critical_acquires=3",
    ),
    ("BENCH_trace.json", "otherData/machines/3/barrier_spans=4"),
    ("BENCH_trace.json", "otherData/machines/4/events=0"),
    ("BENCH_trace.json", "otherData/machines/5/dropped_events=1"),
    ("BENCH_sched.json", "-machines/5"),
    ("BENCH_sched.json", "-machines/1/workloads/1"),
    ("BENCH_sched.json", "-machines/4/workloads/0/policies/3"),
    ("BENCH_sched.json", "machines/0/workloads/1/policies/5/ns=0"),
    ("BENCH_sched.json", "-machines/2/steals"),
    (
        "BENCH_sched.json",
        "machines/2/skewed_speedup_vs_selfsched=0.0",
    ),
    (
        "BENCH_sched.json",
        "machines_where_guided_or_steal_wins_skewed=7",
    ),
    ("BENCH_serve.json", "-machines/1"),
    ("BENCH_serve.json", "-machines/0/rejected"),
    (
        "BENCH_serve.json",
        "machines/4/shed=0;machines/4/deadline_exceeded=0",
    ),
    ("BENCH_serve.json", "machines/4/admitted=999"),
    ("BENCH_serve.json", "machines/3/peak_backlog=89"),
    ("BENCH_serve.json", "machines/0/watchdog_trips=1"),
    ("BENCH_serve.json", "machines/2/probe_completed=false"),
    ("BENCH_park.json", "-machines/4"),
    ("BENCH_park.json", "workers=0"),
    (
        "BENCH_park.json",
        "machines/1/dedicated/barrier_episodes=39",
    ),
    ("BENCH_park.json", "machines/1/overcommit/lock_acquires=1"),
    ("BENCH_park.json", "-machines/1/overcommit/fe_transfers"),
    (
        "BENCH_park.json",
        "machines/0/dedicated/barrier_episodes=0;machines/0/overcommit/barrier_episodes=0",
    ),
    ("BENCH_park.json", "machines/5/overcommit/park_wakes=0"),
    ("BENCH_park.json", "machines/2/big_force/completed=false"),
    ("BENCH_park.json", "-machines/2/big_force/elapsed_ms"),
    (
        "BENCH_park.json",
        "machines/3/big_force/parks=0;machines/3/big_force/park_wakes=0",
    ),
    ("BENCH_park.json", "machines/3/big_force/park_wakes=1"),
    ("BENCH_park.json", "machines/5/big_force/watchdog_trips=2"),
    ("BENCH_vtime.json", "-machines/3"),
    ("BENCH_vtime.json", "machines/0/deterministic=false"),
    ("BENCH_vtime.json", "-machines/1/curve/2"),
    ("BENCH_vtime.json", "machines/2/curve/1/makespan_ns=0"),
    (
        "BENCH_vtime.json",
        "machines/3/curve/3/makespan_ns=18446744073709551615",
    ),
    ("BENCH_vtime.json", "machines/3/curve/3/speedup=1.0"),
    ("BENCH_vtime.json", "machines/4/curve/0/digest=\"0x0\""),
    ("BENCH_vtime.json", "machines/4/curve/0/digest=\"0xZZ\""),
    ("BENCH_shard.json", "-machines/2"),
    ("BENCH_shard.json", "-machines/0/shards/1"),
    ("BENCH_shard.json", "machines/1/shards/0/speedup_vs_1=0.0"),
    ("BENCH_shard.json", "machines/1/shards/2/completed=1"),
    ("BENCH_shard.json", "machines/2/shards/1/shed=1"),
    ("BENCH_shard.json", "-machines/3/shards/2/shard_peaks/0"),
    (
        "BENCH_shard.json",
        "machines/3/shards/0/shard_peaks/0=18446744073709551615",
    ),
    ("BENCH_shard.json", "machines/5/shards/2/max_running=1"),
    ("BENCH_shard.json", "machines/0/shards/0/max_running=2"),
    ("BENCH_shard.json", "machines/4/shards/1/max_running=3"),
    ("BENCH_shard.json", "-machines/3/shards/1/max_running"),
];

#[test]
fn every_check_rejects_a_broken_artifact() {
    for (file, edits) in BROKEN {
        let slot = ARTIFACTS.iter().position(|(_, f, _)| f == file).unwrap();
        let mut doc = smoke_artifacts()[slot].clone();
        edit(&mut doc, edits);
        assert!(
            ARTIFACTS[slot].2(&doc).is_err(),
            "{file} passed after `{edits}`"
        );
    }
    // The vtime check knows which sweep it was promised.
    assert!(checks::vtime(&smoke_artifacts()[4], &[1, 2, 4, 8, 16]).is_err());
    // A trace that never entered a critical section.
    let mut trace = smoke_artifacts()[0].clone();
    if let Json::Arr(events) = at(&mut trace, "traceEvents") {
        events.retain(|e| e.text("name") != Ok("critical"));
    }
    assert!(checks::trace(&trace).is_err());
}

#[test]
fn an_unknown_name_or_flag_runs_nothing_and_exits_2() {
    let dir = scratch("typo");
    for args in [
        &["exp99"][..],
        &["exp3", "exp99"],
        &["--smoke", "exp15", "exp0"],
        &["--check", "exp15"],
        &["exp14"],
        &["-h"],
    ] {
        let out = reproduce(&dir, args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} ran something");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("exp1 exp2") && stderr.contains("exp21"),
            "{stderr}"
        );
    }
    assert_eq!(
        std::fs::read_dir(&dir).unwrap().count(),
        0,
        "an artifact was written"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
