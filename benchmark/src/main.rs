//! The repo's benchmark: four serve-path workloads, seven bounded
//! end-to-end metrics, and a traced run that splits a job's time by
//! layer.  See `README.md` for the protocol and the reasons behind it.
//!
//! ```text
//! force-benchmark [--seed N] [--seconds S]              every workload, both parts
//! force-benchmark --workload W --seed N --seconds S --trace 0|1
//!                                                       one workload, JSON last line
//! force-benchmark --aa                                  the protocol twice: noise floor
//! force-benchmark --smoke                               1 round, 1 s phases
//! ```

mod gen;
mod kernel;
mod layers;
mod round;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use kernel::Json;
use round::{RoundSpec, Workload};
use the_force::machdep::MachineId;

/// Rounds per workload, each in a fresh child process; their windows
/// are pooled and the median window is reported.
const ROUNDS: usize = 3;

/// `(name, unit, better, bound)`: the bound is the share of the
/// parent's median by which a change may worsen the metric.  The four
/// time-based bounds are what this host's noise floor allows (ten runs
/// spread 7-17 % between their quartiles; see README.md), not the
/// 10-15 % the issue hoped for.
const END_TO_END: [(&str, &str, &str, f64); 7] = [
    ("jobs_per_s", "1/s", "higher", 0.25),
    ("latency_p50_us", "us", "lower", 0.25),
    ("latency_p90_us", "us", "lower", 0.25),
    ("within_limit_share", "share", "higher", 0.02),
    ("cpu_us_per_job", "us", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
    ("setup_s", "s", "lower", 0.25),
];

/// Every per-layer metric a traced run prints: `(name, unit, better)`.
fn per_layer() -> Vec<(String, &'static str, &'static str)> {
    type Metrics = Vec<(String, &'static str, &'static str)>;
    fn add(m: &mut Metrics, unit: &'static str, better: &'static str, names: &[&str]) {
        m.extend(names.iter().map(|n| (n.to_string(), unit, better)));
    }
    /// `stem.suffix` for every suffix: one metric per machine or program.
    fn family(m: &mut Metrics, unit: &'static str, stem: &str, suffixes: &[&str]) {
        m.extend(
            suffixes
                .iter()
                .map(|s| (format!("{stem}.{s}"), unit, "lower")),
        );
    }
    let machines = MachineId::all().map(|id| id.tag());
    let mut m = Metrics::new();

    add(
        &mut m,
        "us",
        "lower",
        &[
            "prep.sed_us",
            "prep.m4_us",
            "prep.preprocess_us",
            "prep.expand_miss_us",
        ],
    );
    add(&mut m, "ns", "lower", &["prep.expand_hit_ns"]);
    add(&mut m, "us", "lower", &["prep.expand_us"]);
    add(&mut m, "share", "higher", &["prep.cache_hit_share"]);
    add(
        &mut m,
        "count",
        "lower",
        &[
            "prep.cache_entries",
            "prep.sed_passes_per_job",
            "prep.m4_passes_per_job",
        ],
    );
    add(&mut m, "ratio", "lower", &["prep.code_bytes_per_src_byte"]);
    add(&mut m, "kB", "lower", &["prep.rss_kb_per_entry"]);
    add(&mut m, "share", "lower", &["prep.expand_share"]);

    add(
        &mut m,
        "us",
        "lower",
        &[
            "fortranish.lex_us",
            "fortranish.compile_us",
            "fortranish.bytecode_us",
            "fortranish.load_miss_us",
            "fortranish.load_cached_us",
            "fortranish.load_us",
            "fortranish.run_us",
            "fortranish.null_run_us",
        ],
    );
    family(&mut m, "us", "fortranish.run_us", &gen::CORPUS_NAMES);
    add(
        &mut m,
        "share",
        "lower",
        &[
            "fortranish.vm_share",
            "fortranish.load_share",
            "fortranish.run_share",
        ],
    );

    add(&mut m, "us", "lower", &["core.null_run_us"]);
    add(
        &mut m,
        "ns",
        "lower",
        &[
            "core.selfsched_trip_ns",
            "core.presched_trip_ns",
            "core.askfor_item_ns",
            "core.pcase_ns",
        ],
    );
    for stem in ["core.barrier_ns", "core.critical_ns", "core.prodcons_ns"] {
        family(&mut m, "ns", stem, &machines);
    }

    add(
        &mut m,
        "us",
        "lower",
        &["machdep.pool_null_us", "machdep.spawn_null_us"],
    );
    family(&mut m, "ns", "machdep.lock_pair_ns", &machines);
    family(&mut m, "us", "machdep.run_us", &machines);
    add(
        &mut m,
        "count",
        "lower",
        &[
            "machdep.lock_acquires_per_job",
            "machdep.spin_retries_per_job",
            "machdep.parks_per_job",
            "machdep.syscalls_per_job",
            "machdep.processes_created_per_job",
        ],
    );
    add(
        &mut m,
        "share",
        "lower",
        &[
            "machdep.lock_contended_share",
            "machdep.spurious_wake_share",
        ],
    );

    add(
        &mut m,
        "us",
        "lower",
        &[
            "serve.submit_us",
            "serve.queue_p50_us",
            "serve.queue_p90_us",
            "serve.bind_us",
            "serve.publish_us",
            "serve.overhead_us",
            "serve.null_job_us",
            "serve.null_tax_us",
            "serve.latency_p99_us",
            "serve.latency_max_us",
        ],
    );
    add(
        &mut m,
        "count",
        "lower",
        &[
            "serve.peak_backlog",
            "serve.retries",
            "serve.shed",
            "serve.rejected",
            "serve.deadline_exceeded",
        ],
    );
    add(&mut m, "ratio", "higher", &["serve.rollup_mean_ratio"]);
    add(&mut m, "us/s", "lower", &["serve.idle_cpu_us_per_s"]);
    add(
        &mut m,
        "share",
        "lower",
        &[
            "serve.submit_share",
            "serve.queue_share",
            "serve.bind_share",
            "serve.publish_share",
        ],
    );

    add(
        &mut m,
        "share",
        "lower",
        &["bench.check_share", "trace.overhead_share"],
    );
    add(
        &mut m,
        "us",
        "lower",
        &["gen.late_p99_us", "gen.late_max_us"],
    );
    add(&mut m, "count", "lower", &["bench.stall_windows"]);
    add(&mut m, "count", "higher", &["trace.jobs"]);
    m
}

/// `run_seconds` of `BENCHMARK.json`: three rounds of four undisturbed
/// 1 s windows each.
const RUN_SECONDS: u64 = 12;

/// Set-up-only children run between the rounds, so that `setup_s` is
/// summarised over `ROUNDS + EXTRA_SETUPS` set-ups.
const EXTRA_SETUPS: usize = 4;

/// One number per name: a summary.
type Values = BTreeMap<String, f64>;

/// What a child printed: every value of every name, in order.
type Series = BTreeMap<String, Vec<f64>>;

/// Pool the rounds' samples per name and summarise each: job counts by
/// their sum, everything else by its median — over all undisturbed
/// windows of all rounds for the per-window metrics, over the rounds for
/// the per-round ones, over the set-ups for `setup_s`.
fn summarise(rounds: &[Series]) -> Values {
    let mut pooled = Series::new();
    for round in rounds {
        for (name, values) in round {
            pooled.entry(name.clone()).or_default().extend(values);
        }
    }
    // Samples taken while the host was stealing CPU time count only for
    // a metric that has no others.
    let disturbed: Vec<String> = pooled
        .keys()
        .filter(|k| k.ends_with(round::DISTURBED))
        .cloned()
        .collect();
    for name in disturbed {
        let samples = pooled.remove(&name).expect("key just listed");
        let clean = pooled
            .entry(name.trim_end_matches(round::DISTURBED).to_string())
            .or_default();
        if clean.is_empty() {
            *clean = samples;
        }
    }
    pooled
        .into_iter()
        .map(|(name, samples)| {
            let value = match name.as_str() {
                "attempted" | "failed" => samples.iter().sum(),
                _ => kernel::median(&samples).unwrap_or(f64::NAN),
            };
            (name, value)
        })
        .collect()
}

/// Parsed command line.
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: Option<bool>,
    aa: bool,
    smoke: bool,
    child: Option<String>,
    phase_ms: u64,
    trace_out: Option<PathBuf>,
    divisor: usize,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1989,
        seconds: RUN_SECONDS,
        trace: None,
        aa: false,
        smoke: false,
        child: None,
        phase_ms: 0,
        trace_out: None,
        divisor: 1,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let number = |v: &String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: `{v}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload = Some(Workload::parse(name).ok_or_else(|| {
                    let known: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload `{name}` (known: {})", known.join(", "))
                })?);
            }
            "--seed" => args.seed = number(value()?)?,
            "--seconds" => {
                args.seconds = number(value()?)?;
                if !(1..=60).contains(&args.seconds) {
                    return Err("--seconds must be between 1 and 60".into());
                }
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                })
            }
            "--aa" => args.aa = true,
            "--smoke" => args.smoke = true,
            // Internal: how the parent starts its children.
            "--child" => args.child = Some(value()?.clone()),
            "--phase-ms" => args.phase_ms = number(value()?)?,
            "--trace-out" => args.trace_out = Some(PathBuf::from(value()?)),
            "--divisor" => args.divisor = number(value()?)?.max(1) as usize,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.aa && args.smoke {
        return Err("--aa and --smoke exclude each other".into());
    }
    if (args.aa || args.smoke) && args.workload.is_some() {
        return Err("--aa and --smoke run every workload; drop --workload".into());
    }
    Ok(args)
}

/// How long and how often the parent measures.
#[derive(Clone, Copy)]
struct Protocol {
    seed: u64,
    rounds: usize,
    phase: Duration,
    divisor: usize,
    extra_setups: usize,
}

fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("results")
}

/// Start a child of this executable, wait for it, and parse the
/// `name value` lines it prints.
fn child(args: &[String]) -> Result<Series, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn child: {e}"))?;
    if !out.status.success() {
        return Err(format!("child {args:?} ended with {}", out.status));
    }
    let text = String::from_utf8(out.stdout).map_err(|e| format!("child output: {e}"))?;
    let mut series = Series::new();
    for line in text.lines() {
        let parsed = line
            .split_once(' ')
            .and_then(|(k, v)| Some((k, v.parse::<f64>().ok()?)));
        let (name, value) = parsed.ok_or_else(|| format!("child printed `{line}`"))?;
        series.entry(name.to_string()).or_default().push(value);
    }
    Ok(series)
}

/// Each round draws its own inputs, all fixed by the one seed.
fn round_seed(p: &Protocol, round: usize) -> u64 {
    p.seed ^ (round as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

fn round_child(
    p: &Protocol,
    workload: Workload,
    round: usize,
    trace_out: Option<&Path>,
) -> Result<Series, String> {
    let seed = round_seed(p, round);
    let mut args: Vec<String> = ["--child", "round", "--workload", workload.name()]
        .map(String::from)
        .to_vec();
    args.extend([
        "--seed".into(),
        seed.to_string(),
        "--phase-ms".into(),
        p.phase.as_millis().to_string(),
    ]);
    if let Some(path) = trace_out {
        args.extend(["--trace-out".into(), path.display().to_string()]);
    }
    child(&args)
}

/// One workload's end-to-end result.
struct EndToEnd {
    workload: Workload,
    /// Every metric summarised over the pooled rounds and set-ups.
    summary: Values,
    rounds: usize,
    /// Windows run, and how many of them the host disturbed.
    windows: usize,
    stalled: usize,
}

impl EndToEnd {
    fn count(&self, name: &str) -> u64 {
        self.summary[name] as u64
    }
}

/// Rounds interleaved round-robin over the workloads, so a slow minute
/// on the host lands on every workload, not on one; set-up-only
/// children are spread between them.
fn end_to_end(p: &Protocol, workloads: &[Workload]) -> Result<Vec<EndToEnd>, String> {
    let mut children: Vec<Vec<Series>> = vec![Vec::new(); workloads.len()];
    for round in 0..p.rounds {
        for (i, w) in workloads.iter().enumerate() {
            eprintln!("[bench] {} round {}/{}", w.name(), round + 1, p.rounds);
            children[i].push(round_child(p, *w, round, None)?);
            for extra in (0..p.extra_setups).filter(|e| e % p.rounds == round) {
                let seed = round_seed(p, p.rounds + 1 + extra).to_string();
                let args =
                    ["--child", "setup", "--workload", w.name(), "--seed", &seed].map(String::from);
                children[i].push(child(&args)?);
            }
        }
    }
    Ok(workloads
        .iter()
        .zip(children)
        .map(|(w, children)| {
            let total = |name: &str| {
                children
                    .iter()
                    .filter_map(|c| c.get(name))
                    .flatten()
                    .sum::<f64>() as usize
            };
            EndToEnd {
                workload: *w,
                summary: summarise(&children),
                rounds: p.rounds,
                windows: total("bench.windows"),
                stalled: total("bench.stall_windows"),
            }
        })
        .collect())
}

/// The traced run of one workload: one round with span recording on,
/// then the ladder/micro phase in a child of its own.  `untraced` is the
/// same workload's end-to-end result, the base of the overhead.
fn traced(p: &Protocol, untraced: &EndToEnd) -> Result<Values, String> {
    let w = untraced.workload;
    eprintln!("[bench] {} traced round", w.name());
    let out = results_dir().join(format!("trace-{}.json", w.name()));
    let round = round_child(p, w, p.rounds, Some(&out))?;
    eprintln!("[bench] {} ladder/micro phase", w.name());
    let micro = child(&[
        "--child".into(),
        "micro".into(),
        "--divisor".into(),
        p.divisor.to_string(),
    ])?;
    let mut values = summarise(&[round, micro]);
    let traced_rate = values["jobs_per_s"];
    values.insert("traced.attempted".into(), values["attempted"]);
    values.insert("traced.failed".into(), values["failed"]);
    // Latency tail, stalls and generator lateness are end-to-end facts:
    // they come from the untraced rounds.
    values.extend(untraced.summary.iter().map(|(k, v)| (k.clone(), *v)));
    values.insert(
        "trace.overhead_share".into(),
        1.0 - traced_rate / untraced.summary["jobs_per_s"],
    );
    Ok(values)
}

fn print_table(title: &str, rows: impl Iterator<Item = (String, f64, String)>) {
    println!("{title}");
    for (name, value, unit) in rows {
        println!("  {name:<36} {value:>16.4} {unit}");
    }
}

fn print_end_to_end(e: &EndToEnd) {
    println!("== {} : {}", e.workload.name(), e.workload.why());
    let title = format!(
        "   end to end (median of {} undisturbed 1 s windows of {} rounds, {} more discarded; {} jobs, {} failed)",
        e.windows - e.stalled,
        e.rounds,
        e.stalled,
        e.count("attempted"),
        e.count("failed")
    );
    print_table(
        &title,
        END_TO_END
            .iter()
            .map(|(n, u, _, _)| (n.to_string(), e.summary[*n], u.to_string())),
    );
}

fn print_per_layer(w: Workload, values: &Values) {
    let title = format!(
        "== {} : per layer (traced round, {} jobs with spans)",
        w.name(),
        values["trace.jobs"]
    );
    print_table(
        &title,
        per_layer()
            .iter()
            .map(|(n, u, _)| (n.clone(), values[n], u.to_string())),
    );
}

fn metrics_json<'a>(names: impl Iterator<Item = (&'a str, &'a str)>, values: &Values) -> Json {
    Json::obj(names.map(|(name, unit)| {
        (
            name,
            Json::obj([
                ("value", Json::Num(values[name])),
                ("unit", Json::Str(unit.into())),
            ]),
        )
    }))
}

fn e2e_json(e: &EndToEnd) -> Json {
    metrics_json(END_TO_END.iter().map(|(n, u, _, _)| (*n, *u)), &e.summary)
}

fn layers_json(values: &Values) -> Json {
    let layers = per_layer();
    metrics_json(layers.iter().map(|(n, u, _)| (n.as_str(), *u)), values)
}

/// Traced-run checks that are about correctness, not speed.
fn trace_is_sound(values: &Values) -> bool {
    values["trace_ok"] == 1.0
}

/// The builder's contract: one workload, the result as the last line.
fn contract(p: &Protocol, workload: Workload, trace: bool) -> Result<ExitCode, String> {
    let result = if trace {
        let one_round = Protocol {
            rounds: 1,
            extra_setups: 0,
            ..*p
        };
        let untraced = end_to_end(&one_round, &[workload])?.remove(0);
        let values = traced(&one_round, &untraced)?;
        print_per_layer(workload, &values);
        let attempted = untraced.count("attempted") + values["traced.attempted"] as u64;
        let failed = untraced.count("failed") + values["traced.failed"] as u64;
        (
            trace_is_sound(&values) && failed == 0,
            attempted,
            failed,
            layers_json(&values),
        )
    } else {
        let e = end_to_end(p, &[workload])?.remove(0);
        print_end_to_end(&e);
        (
            e.count("failed") == 0,
            e.count("attempted"),
            e.count("failed"),
            e2e_json(&e),
        )
    };
    let (correct, attempted, failed, metrics) = result;
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Int(attempted)),
            ("failed", Json::Int(failed)),
            ("metrics", metrics),
        ])
    );
    Ok(ExitCode::SUCCESS)
}

fn write_result(name: &str, body: &Json) -> Result<(), String> {
    let dir = results_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(name);
    std::fs::write(&path, format!("{body}\n"))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    eprintln!("[bench] wrote {}", path.display());
    Ok(())
}

/// Every workload: end-to-end rounds, then (unless `--trace 0`) the
/// traced runs.  Returns whether every output was correct.
fn full(p: &Protocol, trace: Option<bool>, file: &str) -> Result<bool, String> {
    let results = end_to_end(p, &Workload::ALL)?;
    let mut correct = results.iter().all(|e| e.count("failed") == 0);
    let mut layers = Vec::new();
    if trace != Some(false) {
        for e in &results {
            let values = traced(p, e)?;
            correct &= trace_is_sound(&values) && values["traced.failed"] == 0.0;
            layers.push((e.workload, values));
        }
    }
    if trace != Some(true) {
        results.iter().for_each(print_end_to_end);
    }
    for (w, values) in &layers {
        print_per_layer(*w, values);
        ladder_note(values);
    }
    write_result(
        file,
        &Json::obj([
            ("seed", Json::Int(p.seed)),
            ("rounds", Json::Int(p.rounds as u64)),
            ("phase_ms", Json::Int(p.phase.as_millis() as u64)),
            (
                "cores",
                Json::Int(the_force::machdep::default_nproc() as u64),
            ),
            (
                "end_to_end",
                Json::obj(results.iter().map(|e| (e.workload.name(), e2e_json(e)))),
            ),
            (
                "per_layer",
                Json::obj(layers.iter().map(|(w, v)| (w.name(), layers_json(v)))),
            ),
        ]),
    )?;
    Ok(correct)
}

/// Say whether the null ladder came out monotone; it is a property of
/// the stack's speed on a quiet host, so it is reported, not enforced.
fn ladder_note(values: &Values) {
    let rungs = [
        "machdep.pool_null_us",
        "core.null_run_us",
        "fortranish.null_run_us",
        "serve.null_job_us",
    ];
    let v: Vec<f64> = rungs.iter().map(|r| values[*r]).collect();
    let verdict = if v.windows(2).all(|w| w[0] <= w[1]) {
        "monotone"
    } else {
        "NOT monotone"
    };
    println!(
        "  null ladder {verdict}: {}",
        rungs
            .iter()
            .zip(&v)
            .map(|(r, v)| format!("{r} {v:.1}"))
            .collect::<Vec<_>>()
            .join(" <= ")
    );
}

/// The noise floor: the whole end-to-end protocol twice on one build.
fn aa(p: &Protocol) -> Result<bool, String> {
    let first = end_to_end(p, &Workload::ALL)?;
    let second = end_to_end(p, &Workload::ALL)?;
    let mut pass = true;
    let mut rows = Vec::new();
    println!(
        "{:<14} {:<20} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A1", "A2", "diff", "bound"
    );
    for (a, b) in first.iter().zip(&second) {
        for (name, unit, _, bound) in END_TO_END {
            let (x, y) = (a.summary[name], b.summary[name]);
            let diff = (y - x).abs() / x;
            let ok = diff <= bound;
            pass &= ok;
            println!(
                "{:<14} {:<20} {x:>14.4} {y:>14.4} {:>8.2}% {:>6.0}%  {}",
                a.workload.name(),
                name,
                diff * 100.0,
                bound * 100.0,
                if ok { "PASS" } else { "FAIL" }
            );
            rows.push(Json::obj([
                ("workload", Json::Str(a.workload.name().into())),
                ("metric", Json::Str(name.into())),
                ("unit", Json::Str(unit.into())),
                ("a1", Json::Num(x)),
                ("a2", Json::Num(y)),
                ("diff", Json::Num(diff)),
                ("bound", Json::Num(bound)),
                ("pass", Json::Bool(ok)),
            ]));
        }
    }
    let failed: u64 = first.iter().chain(&second).map(|e| e.count("failed")).sum();
    write_result(
        "aa.json",
        &Json::obj([
            ("seed", Json::Int(p.seed)),
            ("failed_jobs", Json::Int(failed)),
            ("pairs", Json::Arr(rows)),
        ]),
    )?;
    Ok(pass && failed == 0)
}

/// A child's whole life: run what was asked and print `name value`.
fn run_child(kind: &str, args: &Args, start: Instant) -> Result<(), String> {
    let values = match kind {
        "round" => {
            let spec = RoundSpec {
                workload: args.workload.ok_or("--child round needs --workload")?,
                seed: args.seed,
                phase: Duration::from_millis(args.phase_ms.max(1)),
                trace_out: args.trace_out.clone(),
            };
            round::run(&spec, start)
        }
        "setup" => round::setup_only(
            args.workload.ok_or("--child setup needs --workload")?,
            args.seed,
            start,
        ),
        "micro" => {
            let mut values = Vec::new();
            layers::micro(&mut values, args.divisor);
            values
        }
        other => return Err(format!("unknown child kind `{other}`")),
    };
    let mut out = String::new();
    for (name, value) in values {
        out.push_str(&format!("{name} {value}\n"));
    }
    print!("{out}");
    Ok(())
}

fn run(args: &Args, start: Instant) -> Result<ExitCode, String> {
    if let Some(kind) = &args.child {
        run_child(kind, args, start)?;
        return Ok(ExitCode::SUCCESS);
    }
    let protocol = Protocol {
        seed: args.seed,
        rounds: ROUNDS,
        phase: Duration::from_millis(args.seconds * 1000 / ROUNDS as u64),
        divisor: 1,
        extra_setups: EXTRA_SETUPS,
    };
    let ok = if args.smoke {
        let smoke = Protocol {
            rounds: 1,
            phase: Duration::from_secs(1),
            divisor: 10,
            extra_setups: 0,
            ..protocol
        };
        full(&smoke, args.trace, "smoke.json")?
    } else if args.aa {
        aa(&protocol)?
    } else if let Some(workload) = args.workload {
        return contract(&protocol, workload, args.trace.unwrap_or(false));
    } else {
        full(&protocol, args.trace, "run.json")?
    };
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let start = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("force-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args, start) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("force-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The contract file, one metric per line; the test below holds the
    /// checked-in `BENCHMARK.json` to it.
    fn benchmark_json(run_seconds: u64) -> String {
        let line = |j: Json| format!("    {j}");
        let workloads: Vec<String> = Workload::ALL
            .iter()
            .map(|w| {
                line(Json::obj([
                    ("name", Json::Str(w.name().into())),
                    ("why", Json::Str(w.why().into())),
                ]))
            })
            .collect();
        let end_to_end: Vec<String> = END_TO_END
            .iter()
            .map(|(name, unit, better, bound)| {
                line(Json::obj([
                    ("name", Json::Str(name.to_string())),
                    ("unit", Json::Str(unit.to_string())),
                    ("better", Json::Str(better.to_string())),
                    ("bound", Json::Num(*bound)),
                ]))
            })
            .collect();
        let layers: Vec<String> = per_layer()
            .iter()
            .map(|(name, unit, better)| {
                line(Json::obj([
                    ("name", Json::Str(name.clone())),
                    ("unit", Json::Str(unit.to_string())),
                    ("better", Json::Str(better.to_string())),
                ]))
            })
            .collect();
        format!(
            "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {run_seconds},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
            workloads.join(",\n"),
            end_to_end.join(",\n"),
            layers.join(",\n")
        )
    }

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_contract_arguments_parse() {
        let a = parse_args(&argv(
            "--workload null_jobs --seed 7 --seconds 12 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, Some(Workload::NullJobs));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 12, Some(true)));
    }

    #[test]
    fn unknown_flags_workloads_and_values_are_errors() {
        for bad in [
            "--wrokload hot_mix",
            "--workload warm_mix",
            "--trace yes",
            "--seed",
            "--seconds 0",
            "--seconds 61",
            "--aa --smoke",
            "--smoke --workload hot_mix",
            "exp3",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "`{bad}` parsed");
        }
    }

    fn series(pairs: &[(&str, &[f64])]) -> Series {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_vec()))
            .collect()
    }

    #[test]
    fn rounds_are_pooled_then_summarised_by_kind_of_metric() {
        let rounds = [
            series(&[
                ("jobs_per_s", &[100.0, 120.0]),
                ("latency_p50_us", &[9.0, 7.0]),
                ("setup_s", &[0.2]),
                ("attempted", &[10.0]),
                ("failed", &[1.0]),
                ("serve.latency_p99_us", &[50.0]),
            ]),
            series(&[
                ("jobs_per_s", &[110.0, 20.0, 130.0]),
                ("latency_p50_us", &[8.0, 40.0, 6.0]),
                ("setup_s.disturbed", &[0.9]),
                ("attempted", &[12.0]),
                ("failed", &[0.0]),
                ("serve.latency_p99_us", &[70.0]),
            ]),
            series(&[("setup_s", &[0.3])]),
        ];
        let s = summarise(&rounds);
        assert_eq!(s["jobs_per_s"], 110.0, "median of the five pooled windows");
        assert_eq!(
            s["latency_p50_us"], 8.0,
            "one stalled window does not move it"
        );
        assert_eq!(
            (s["attempted"], s["failed"]),
            (22.0, 1.0),
            "job counts add up"
        );
        assert_eq!(s["serve.latency_p99_us"], 60.0);
        assert_eq!(s["setup_s"], 0.25, "the disturbed set-up is left out");
        assert!(!s.contains_key("setup_s.disturbed"));
        let only_disturbed = summarise(&[series(&[
            ("setup_s.disturbed", &[0.9]),
            ("jobs_per_s.disturbed", &[5.0, 7.0]),
        ])]);
        assert_eq!(only_disturbed["setup_s"], 0.9, "unless there is no other");
        assert_eq!(only_disturbed["jobs_per_s"], 6.0);
    }

    #[test]
    fn metric_names_are_unique_and_within_the_contract_limits() {
        let layers = per_layer();
        assert!(layers.len() <= 128, "{} per-layer metrics", layers.len());
        let mut names: Vec<&str> = layers.iter().map(|(n, _, _)| n.as_str()).collect();
        names.extend(END_TO_END.iter().map(|(n, _, _, _)| *n));
        names.extend(Workload::ALL.iter().map(|w| w.name()));
        let unique: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        for n in names {
            assert!(
                n.len() <= 64
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
        for (_, unit, better) in &layers {
            assert!(unit.len() <= 16 && ["higher", "lower"].contains(better));
        }
        assert!(END_TO_END.iter().all(|(_, _, _, bound)| *bound <= 0.25));
        assert!(Workload::ALL
            .iter()
            .all(|w| w.why().len() <= 200 && !w.why().contains('\n')));
    }

    #[test]
    fn benchmark_json_at_the_root_matches_the_binary() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let on_disk =
            std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
        let expected = benchmark_json(RUN_SECONDS);
        assert!(
            on_disk == expected,
            "BENCHMARK.json is out of date; it should read:\n{expected}"
        );
    }
}
