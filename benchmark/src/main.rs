//! `icicle-benchmark`: the repository benchmark.
//!
//! ```text
//! icicle-benchmark run --workload W --seed S [--seconds N] [--trace 0|1] [--out FILE] [--spans FILE]
//! icicle-benchmark trace --workload W --seed S --spans FILE [--seconds N] [--out FILE]
//! icicle-benchmark compare DIR_A DIR_B
//! ```
//!
//! `run` builds the release `icicle-tma` from source and drives it the
//! way users do; it prints every end-to-end metric of `BENCHMARK.json`
//! by name with its unit, then one JSON line. `run --trace 1` (or
//! `trace`) is the per-layer run instead. `compare` judges two sets of
//! run documents (`--out`) metric by metric. See `README.md`.

mod bench;
mod doc;
mod drive;
mod http;
mod jobs;
mod layers;
mod reference;
mod spans;
mod stats;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use icicle::obs::Json;

use crate::jobs::Workload;
use crate::spans::Spans;

const USAGE: &str = "usage:
  icicle-benchmark run --workload W --seed S [--seconds N] [--trace 0|1] [--out FILE] [--spans FILE]
  icicle-benchmark trace --workload W --seed S --spans FILE [--seconds N] [--out FILE]
  icicle-benchmark compare DIR_A DIR_B
workloads: sweep-dense, sweep-stall, soc-shared-l2, serve-mixed";

struct Options {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    spans: Option<PathBuf>,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("icicle-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    match args.first().map(String::as_str) {
        Some("run") => measure(parse(&args[1..], false)?),
        Some("trace") => {
            let options = parse(&args[1..], true)?;
            if options.spans.is_none() {
                return Err(format!("trace needs --spans FILE\n{USAGE}"));
            }
            measure(options)
        }
        Some("compare") => match &args[1..] {
            [a, b] => {
                let def = doc::definition();
                let (a, b) = (doc::read_runs(Path::new(a))?, doc::read_runs(Path::new(b))?);
                let (report, bad) = doc::compare(&def, &a, &b);
                print!("{report}");
                Ok(if bad {
                    ExitCode::FAILURE
                } else {
                    ExitCode::SUCCESS
                })
            }
            _ => Err(USAGE.into()),
        },
        _ => Err(USAGE.into()),
    }
}

fn parse(args: &[String], trace: bool) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = doc::definition().run_seconds as f64;
    let mut trace = trace;
    let (mut out, mut spans) = (None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::from_name(name)
                        .ok_or_else(|| format!("unknown workload `{name}`\n{USAGE}"))?,
                );
            }
            "--seed" => seed = Some(value()?.parse().map_err(|_| "--seed expects an integer")?),
            "--seconds" => {
                seconds = value()?.parse().map_err(|_| "--seconds expects a number")?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace expects 0 or 1".into()),
                }
            }
            "--out" => out = Some(PathBuf::from(value()?)),
            "--spans" => spans = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or_else(|| format!("--workload is required\n{USAGE}"))?,
        seed: seed.ok_or_else(|| format!("--seed is required\n{USAGE}"))?,
        seconds,
        trace,
        out,
        spans,
    })
}

/// The repository root: the benchmark package sits one level below it.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package lives inside the repository")
        .to_path_buf()
}

fn measure(options: Options) -> Result<ExitCode, String> {
    if cfg!(debug_assertions) {
        return Err(
            "refusing to measure from a debug build; run with `cargo run --release`".into(),
        );
    }
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    if threads < 2 {
        eprintln!(
            "warning: {threads} CPU available; the workloads run two threads, so timings \
             will not match a two-CPU baseline"
        );
    }
    let root = repo_root();
    let target = root.join(std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into()));
    let env = drive::Env::build(&root, &target, options.workload.name())?;
    env.page_in()?;

    let spans = Spans::new(options.trace);
    let (w, seed, seconds) = (options.workload, options.seed, options.seconds);
    let outcome = if options.trace {
        bench::trace(&env, w, seed, seconds, &spans)?
    } else {
        bench::run(&env, w, seed, seconds)?
    };
    if options.trace {
        let path = options.spans.clone().unwrap_or_else(|| {
            target
                .join("benchmark-spans")
                .join(format!("{}-{seed}.jsonl", w.name()))
        });
        write(&path, &spans::to_jsonl(&spans.take()))?;
        eprintln!("spans written to {}", path.display());
    }
    report(&options, &env, outcome)
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Prints every metric by name with its unit, the digest and any
/// problem, writes the run document, and ends with the one-line result.
fn report(
    options: &Options,
    env: &drive::Env,
    mut outcome: bench::Outcome,
) -> Result<ExitCode, String> {
    let def = doc::definition();
    let defs = if options.trace {
        &def.per_layer
    } else {
        &def.end_to_end
    };
    let mut metrics = Vec::with_capacity(defs.len());
    for d in defs {
        let value = outcome
            .metrics
            .iter()
            .find(|(name, _)| *name == d.name)
            .map(|(_, v)| *v)
            .ok_or_else(|| format!("metric {} was not measured", d.name))?;
        if !value.is_finite() {
            return Err(format!("metric {} measured as {value}", d.name));
        }
        metrics.push((d, value));
    }
    let expected = (options.seed == 1)
        .then(|| doc::committed_digest(options.workload.name()))
        .flatten();
    if expected.as_ref().is_some_and(|e| *e != outcome.sim_digest) {
        outcome.problems.push(format!(
            "sim_digest {} differs from the committed seed-1 digest",
            outcome.sim_digest
        ));
    }
    if outcome.attempted == 0 {
        return Err("the run attempted no operation".into());
    }
    let correct = outcome.failed == 0 && outcome.problems.is_empty();
    for problem in outcome.problems.iter().take(20) {
        eprintln!("problem: {problem}");
    }

    for (d, value) in &metrics {
        println!("{:<36} {value} {}", d.name, d.unit);
    }
    println!("{:<36} {}", "sim_digest", outcome.sim_digest);

    let metric_json = Json::Object(
        metrics
            .iter()
            .map(|(d, v)| {
                let fields = vec![
                    ("value", Json::Num(*v)),
                    ("unit", Json::Str(d.unit.clone())),
                ];
                (d.name.clone(), Json::object(fields))
            })
            .collect(),
    );
    if let Some(path) = &options.out {
        let run_doc = Json::object(vec![
            ("schema", Json::Str("icicle-benchmark/run/v1".into())),
            ("workload", Json::Str(options.workload.name().into())),
            ("seed", Json::Int(options.seed)),
            ("seconds", Json::Num(options.seconds)),
            ("trace", Json::Bool(options.trace)),
            ("host", host(env)),
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Int(outcome.attempted)),
            ("failed", Json::Int(outcome.failed)),
            (
                "problems",
                Json::Array(
                    outcome
                        .problems
                        .iter()
                        .map(|p| Json::Str(p.clone()))
                        .collect(),
                ),
            ),
            ("sim_digest", Json::Str(outcome.sim_digest.clone())),
            ("metrics", metric_json.clone()),
            (
                "job_ms",
                Json::Array(outcome.job_ms.iter().map(|&x| Json::Num(x)).collect()),
            ),
            ("job_p50_ms", Json::Num(stats::median(&outcome.job_ms))),
            (
                "job_tail_ms",
                stats::tail(&outcome.job_ms).map_or(Json::Null, |(p, v)| {
                    Json::object(vec![("percentile", Json::Num(p)), ("value", Json::Num(v))])
                }),
            ),
            (
                "samples",
                Json::Object(
                    outcome
                        .samples
                        .iter()
                        .map(|(k, v)| {
                            let values = v.iter().map(|&x| Json::Num(x)).collect();
                            (k.to_string(), Json::Array(values))
                        })
                        .collect(),
                ),
            ),
            (
                "extra",
                Json::Object(
                    outcome
                        .extra
                        .iter()
                        .map(|(k, v)| (k.to_string(), Json::Num(*v)))
                        .collect(),
                ),
            ),
        ]);
        write(path, &doc::render(&run_doc))?;
    }
    let result = Json::object(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(outcome.attempted)),
        ("failed", Json::Int(outcome.failed)),
        ("metrics", metric_json),
    ]);
    println!("{}", doc::render(&result));
    Ok(ExitCode::SUCCESS)
}

/// The host and build a run was measured on.
fn host(env: &drive::Env) -> Json {
    let git = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(&env.root)
        // Stop at the repository root: a checkout without its own .git
        // must not report an enclosing repository's commit.
        .env(
            "GIT_CEILING_DIRECTORIES",
            env.root.parent().unwrap_or(&env.root),
        )
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string());
    Json::object(vec![
        (
            "available_parallelism",
            Json::Int(std::thread::available_parallelism().map_or(1, |n| n.get() as u64)),
        ),
        ("os", Json::Str(std::env::consts::OS.into())),
        ("arch", Json::Str(std::env::consts::ARCH.into())),
        ("git_head", git.map_or(Json::Null, Json::Str)),
        ("profile", Json::Str("release".into())),
        ("program", Json::Str(env.bin.display().to_string())),
    ])
}
