//! Shared workloads, measurement helpers, the JSON kernel and the
//! artifact checks of the `reproduce` harness (see EXPERIMENTS.md at the
//! repository root).

pub mod checks;
pub mod json;
pub mod workloads;

use std::path::Path;
use std::time::{Duration, Instant};

use json::Json;

/// Write `doc` to `path` — but only after it renders, parses back to the
/// same value under the strict parser, and passes `check`.  On any
/// failure nothing is written.
pub fn write_artifact(
    path: &Path,
    doc: &Json,
    check: impl Fn(&Json) -> Result<(), String>,
) -> Result<(), String> {
    let text = doc.render()?;
    let parsed = Json::parse(&text)?;
    if parsed != *doc {
        return Err("the rendering does not parse back to the same value".into());
    }
    check(&parsed)?;
    std::fs::write(path, text).map_err(|e| format!("write: {e}"))
}

/// Median wall time of `runs` invocations of `f` (plus one discarded
/// warmup run).  Small and deterministic — suited to the harness tables,
/// whose reproduction targets are shapes; `benchmark/` measures absolute
/// rates with noise bounds.
pub fn median_time(runs: usize, mut f: impl FnMut()) -> Duration {
    assert!(runs >= 1);
    f(); // warmup
    let mut samples: Vec<Duration> = (0..runs)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed()
        })
        .collect();
    samples.sort();
    samples[samples.len() / 2]
}

/// Duration formatted adaptively.
pub fn fmt_dur(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 10_000 {
        format!("{ns} ns")
    } else if ns < 10_000_000 {
        format!("{:.1} us", ns as f64 / 1e3)
    } else if ns < 10_000_000_000 {
        format!("{:.1} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_time_is_positive() {
        let d = median_time(3, || {
            std::hint::black_box((0..1000).sum::<u64>());
        });
        assert!(d.as_nanos() > 0);
    }

    #[test]
    fn a_failed_check_or_an_unrenderable_value_leaves_no_file() {
        let path = std::env::temp_dir().join(format!("force-bench-{}.json", std::process::id()));
        let doc = obj! { "rate": Json::Num(1.5) };
        assert!(write_artifact(&path, &doc, |_| Err("no".into())).is_err());
        assert!(!path.exists());
        let nan = obj! { "rate": Json::Num(f64::NAN) };
        assert!(write_artifact(&path, &nan, |_| Ok(())).is_err());
        assert!(!path.exists());
        write_artifact(&path, &doc, |d| d.num("rate").map(|_| ())).unwrap();
        let written = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(Json::parse(&written).unwrap(), doc);
    }

    #[test]
    fn fmt_dur_ranges() {
        assert!(fmt_dur(Duration::from_nanos(50)).contains("ns"));
        assert!(fmt_dur(Duration::from_micros(50)).contains("us"));
        assert!(fmt_dur(Duration::from_millis(50)).contains("ms"));
        assert!(fmt_dur(Duration::from_secs(50)).contains("s"));
    }
}
