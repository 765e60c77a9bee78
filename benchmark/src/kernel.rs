//! The measurement kernel: window cutter, quantiles, span self time,
//! `/proc` readers (process CPU time, memory, host steal time), and the
//! JSON and Chrome `trace_event` writers.
//! Standard library only.

use std::fmt::Write as _;

/// The `q`-quantile (0 ≤ q ≤ 1) of `samples` by linear interpolation
/// between order statistics; `None` for an empty sample.  Callers print
/// `samples.len()` beside it.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let last = sorted.len().checked_sub(1)?;
    let pos = q.clamp(0.0, 1.0) * last as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// The median.
pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

/// Cut `(completion time, value)` samples into `n` windows of
/// `window_ns` starting at time 0.  Samples past the last window are
/// dropped: they finished after the measured phase.
pub fn cut_windows(samples: &[(u64, f64)], window_ns: u64, n: usize) -> Vec<Vec<f64>> {
    let mut windows = vec![Vec::new(); n];
    for &(t, v) in samples {
        if let Some(w) = windows.get_mut((t / window_ns) as usize) {
            w.push(v);
        }
    }
    windows
}

/// A span's self time: its duration minus the part of it its children
/// cover (children may overlap each other and stick out of the parent).
pub fn self_time(parent: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.clamp(parent.0, parent.1), e.clamp(parent.0, parent.1)))
        .filter(|(s, e)| e > s)
        .collect();
    clipped.sort_unstable();
    let (mut covered, mut reach) = (0, parent.0);
    for (s, e) in clipped {
        if e > reach {
            covered += e - s.max(reach);
            reach = e;
        }
    }
    (parent.1 - parent.0) - covered
}

/// Linux reports process times in clock ticks of 1/100 s (`USER_HZ`),
/// on every architecture this repository builds for.
const TICK_US: u64 = 10_000;

/// `utime + stime` of the whole process (all threads) out of the text
/// of `/proc/<pid>/stat`, in microseconds.
pub fn parse_stat_cpu_us(stat: &str) -> Option<u64> {
    // The command name (field 2) may hold spaces and parentheses; the
    // numeric fields start after the last ')'.  utime and stime are
    // fields 14 and 15, so 11 and 12 counting from field 3.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) * TICK_US)
}

/// A `kB` entry (`VmHWM`, `VmRSS`) out of the text of
/// `/proc/<pid>/status`.
pub fn parse_status_kb(status: &str, key: &str) -> Option<u64> {
    let line = status
        .lines()
        .find(|l| l.strip_prefix(key).is_some_and(|r| r.starts_with(':')))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// `(steal, total)` clock ticks of all CPUs together, out of the text
/// of `/proc/stat`: time a virtual CPU wanted to run while the host ran
/// something else, and all accounted time.
pub fn parse_host_ticks(stat: &str) -> Option<(u64, u64)> {
    // cpu  user nice system idle iowait irq softirq steal guest guest_nice
    // (guest time is already part of user time)
    let fields = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace();
    let ticks: Vec<u64> = fields
        .take(8)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// `(steal, total)` ticks of this host so far.
pub fn host_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").expect("read /proc/stat");
    parse_host_ticks(&stat).expect("a cpu line with a steal field in /proc/stat")
}

/// The share of all CPU time between two [`host_ticks`] readings that
/// the host gave to someone else.
pub fn steal_share(before: (u64, u64), after: (u64, u64)) -> f64 {
    (after.0 - before.0) as f64 / (after.1 - before.1).max(1) as f64
}

/// CPU time this process has used so far, in microseconds.
pub fn cpu_time_us() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    parse_stat_cpu_us(&stat).expect("utime and stime in /proc/self/stat")
}

/// A `kB` entry of this process's `/proc/self/status`.
pub fn status_kb(key: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_status_kb(&status, key).expect("memory entry in /proc/self/status")
}

/// A JSON value; objects keep insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Bool(bool),
    Int(u64),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("write to String"),
            c => out.push(c),
        }
    }
    out.push('"');
}

impl Json {
    /// Append the compact one-line rendering.
    pub fn write(&self, out: &mut String) {
        match self {
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(n) => write!(out, "{n}").expect("write to String"),
            // Every digit as measured; JSON has no NaN or infinity.
            Json::Num(x) if x.is_finite() => write!(out, "{x}").expect("write to String"),
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut s = String::new();
        self.write(&mut s);
        f.write_str(&s)
    }
}

/// One complete (`"ph":"X"`) Chrome `trace_event`; `ts`/`dur` are in
/// microseconds, `job` is the trace id its spans share.
pub fn trace_event(name: &str, tid: u64, start_ns: u64, end_ns: u64, job: u64) -> Json {
    Json::obj([
        ("name", Json::Str(name.into())),
        ("ph", Json::Str("X".into())),
        ("ts", Json::Num(start_ns as f64 / 1e3)),
        ("dur", Json::Num((end_ns - start_ns) as f64 / 1e3)),
        ("pid", Json::Int(1)),
        ("tid", Json::Int(tid)),
        ("args", Json::obj([("job", Json::Int(job))])),
    ])
}

/// The file body Chrome's trace viewer loads.
pub fn trace_file(events: Vec<Json>) -> Json {
    Json::obj([("traceEvents", Json::Arr(events))])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_and_report_nothing_for_no_samples() {
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[9.0, 1.0, 5.0]), Some(5.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.9), Some(10.0));
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 1.0), Some(11.0));
    }

    #[test]
    fn windows_are_cut_by_completion_time_and_the_tail_is_dropped() {
        let samples = [(0, 1.0), (999, 2.0), (1000, 3.0), (2999, 4.0), (3000, 5.0)];
        let w = cut_windows(&samples, 1000, 3);
        assert_eq!(w, vec![vec![1.0, 2.0], vec![3.0], vec![4.0]]);
    }

    #[test]
    fn self_time_subtracts_the_union_of_the_children() {
        assert_eq!(self_time((10, 110), &[]), 100);
        assert_eq!(self_time((10, 110), &[(20, 40), (60, 70)]), 70);
        // overlapping, touching and protruding children
        assert_eq!(
            self_time((10, 110), &[(20, 50), (40, 60), (60, 70), (100, 200)]),
            40
        );
        assert_eq!(self_time((10, 110), &[(0, 500)]), 0);
    }

    #[test]
    fn proc_stat_is_parsed_past_a_hostile_command_name() {
        let stat = "4242 (a b) c) S 1 4242 4242 0 -1 4194304 100 0 0 0 \
                    37 5 0 0 20 0 3 0 123456 1000000 200 18446744073709551615";
        assert_eq!(parse_stat_cpu_us(stat), Some((37 + 5) * 10_000));
        assert_eq!(parse_stat_cpu_us("4242 (x) S 1"), None);
        assert!(
            cpu_time_us() < 3_600_000_000,
            "this test has not run for an hour"
        );
    }

    #[test]
    fn host_ticks_are_the_steal_field_and_the_sum_of_the_first_eight() {
        let stat = "cpu  100 2 30 400 5 0 6 77 9 9\ncpu0 50 1 15 200 2 0 3 40 0 0\nintr 1\n";
        assert_eq!(
            parse_host_ticks(stat),
            Some((77, 100 + 2 + 30 + 400 + 5 + 6 + 77))
        );
        assert_eq!(
            parse_host_ticks("cpu  1 2 3 4\n"),
            None,
            "a kernel without steal accounting"
        );
        assert_eq!(parse_host_ticks("cpu0 1 2 3 4 5 6 7 8\n"), None);
        let (steal, total) = host_ticks();
        assert!(steal <= total);
        assert_eq!(steal_share((10, 1000), (16, 1200)), 0.03);
        assert_eq!(steal_share((10, 1000), (10, 1000)), 0.0, "no time passed");
    }

    #[test]
    fn proc_status_memory_entries_are_read_by_exact_key() {
        let status = "Name:\tx\nVmHWM:\t   12345 kB\nVmRSS:\t    9876 kB\nVmHWMX:\t1 kB\n";
        assert_eq!(parse_status_kb(status, "VmHWM"), Some(12345));
        assert_eq!(parse_status_kb(status, "VmRSS"), Some(9876));
        assert_eq!(parse_status_kb(status, "VmSwap"), None);
        assert!(status_kb("VmHWM") >= status_kb("VmRSS"));
    }

    #[test]
    fn json_is_written_compactly_with_escapes_and_all_digits() {
        let j = Json::obj([
            ("ok", Json::Bool(true)),
            ("n", Json::Int(3)),
            ("x", Json::Num(0.1 + 0.2)),
            ("nan", Json::Num(f64::NAN)),
            ("s", Json::Str("a\"b\\c\n\u{1}".into())),
            ("a", Json::Arr(vec![Json::Int(1), Json::Num(2.5)])),
        ]);
        assert_eq!(
            j.to_string(),
            [
                r#"{"ok":true,"n":3,"x":0.30000000000000004,"nan":null,"s":"a\"b\\c\n"#,
                "\\u0001",
                r#"","a":[1,2.5]}"#
            ]
            .concat()
        );
    }

    #[test]
    fn trace_events_carry_microseconds_and_the_job_id() {
        let file = trace_file(vec![trace_event("job", 1, 1_500, 4_000, 7)]);
        assert_eq!(
            file.to_string(),
            r#"{"traceEvents":[{"name":"job","ph":"X","ts":1.5,"dur":2.5,"pid":1,"tid":1,"args":{"job":7}}]}"#
        );
    }
}
