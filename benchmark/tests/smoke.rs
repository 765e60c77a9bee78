//! Drives the built binary the way a user and the benchmark driver do.

use std::path::Path;
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_force-benchmark");
const WORKLOADS: [&str; 4] = ["hot_mix", "null_jobs", "cold_sources", "open_arrivals"];
const END_TO_END: [&str; 7] = [
    "jobs_per_s",
    "latency_p50_us",
    "latency_p90_us",
    "within_limit_share",
    "cpu_us_per_job",
    "peak_rss_mb",
    "setup_s",
];

fn run(args: &[&str]) -> Output {
    Command::new(BIN)
        .args(args)
        .output()
        .expect("start the benchmark binary")
}

#[test]
fn smoke_mode_runs_every_workload_checks_outputs_and_writes_traces() {
    let out = run(&["--smoke"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    for w in WORKLOADS {
        assert!(
            stdout.contains(&format!("== {w} : ")),
            "no end-to-end table for {w}"
        );
        assert!(
            stdout.contains(&format!("== {w} : per layer")),
            "no per-layer table for {w}"
        );
        // One valid trace_event file per workload, written by the traced round.
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("results/trace-{w}.json"));
        let trace = std::fs::read_to_string(&path).expect("trace file");
        assert!(
            trace.starts_with("{\"traceEvents\":[{\"name\":\"job\",\"ph\":\"X\""),
            "{path:?}"
        );
        assert!(trace.ends_with("]}"));
        assert_eq!(trace.matches('{').count(), trace.matches('}').count());
        for span in [
            "serve.submit",
            "serve.queue",
            "runner",
            "prep.expand",
            "fortranish.run",
            "serve.publish",
        ] {
            assert!(
                trace.contains(&format!("\"name\":\"{span}\"")),
                "{span} missing in {path:?}"
            );
        }
    }
    for metric in END_TO_END {
        assert_eq!(
            stdout.matches(&format!("  {metric} ")).count(),
            WORKLOADS.len(),
            "{metric}"
        );
    }
    assert_eq!(stdout.matches("null ladder").count(), WORKLOADS.len());
    assert!(
        stdout.contains("0 failed)") && !stdout.contains("NaN"),
        "{stdout}"
    );
}

#[test]
fn unknown_flags_and_workload_names_exit_non_zero_and_print_no_result() {
    for args in [
        &["--bogus"][..],
        &["--workload", "warm_mix"],
        &["exp3"],
        &["--trace", "2"],
    ] {
        let out = run(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
        assert!(!out.stderr.is_empty(), "{args:?} gave no reason");
    }
}

#[test]
fn contract_mode_prints_the_result_object_as_its_last_line() {
    let out = run(&[
        "--workload",
        "null_jobs",
        "--seed",
        "3",
        "--seconds",
        "3",
        "--trace",
        "0",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("a result line");
    assert!(
        last.starts_with("{\"correct\":true,\"attempted\":"),
        "{last}"
    );
    assert!(last.contains(",\"failed\":0,\"metrics\":{"), "{last}");
    for metric in END_TO_END {
        assert!(
            last.contains(&format!("\"{metric}\":{{\"value\":")),
            "{metric} missing in {last}"
        );
    }
    assert!(
        last.contains("\"setup_s\":{\"value\":0.") && last.ends_with("\"unit\":\"s\"}}}"),
        "{last}"
    );
}
