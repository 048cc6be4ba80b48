//! One run of one workload: the untraced end-to-end run, or the traced
//! per-layer run.

use std::time::{Duration, Instant};

use icicle::campaign::{simulate_cell_with, CellSpec, CoreSelect, SkipPolicy, SocJobs};
use icicle::obs::Json;

use crate::doc;
use crate::drive::{self, check_report, check_served, CliRun, Env, Served, Server};
use crate::jobs::{self, jobs, Job, Origin, Workload, SERVE_BLOCK};
use crate::layers;
use crate::reference::{at_reference_speed, reference_s};
use crate::spans::Spans;
use crate::stats::median;

/// Campaign jobs generated per CLI run; a run stops at its deadline
/// long before using them all.
const MAX_CLI_JOBS: usize = 64;
/// Campaign jobs a run starts even when its deadline passes first. The
/// first job warms the host up: it is checked but not timed, since the
/// first busy second after an idle spell runs measurably slower.
const MIN_CLI_JOBS: usize = 3;
/// Served jobs generated per run.
const MAX_SERVE_JOBS: usize = 400;
/// Passes over the served pool's cells when timing cell set-up for the
/// server, whose load leaves no room to interleave them.
const SETUP_PASSES: usize = 5;
/// Server start-ups timed per serve run.
const SERVER_STARTS: usize = 5;
/// Served blocks a run loads even when its deadline passes first; the
/// first warms the host up and is not timed.
const MIN_SERVE_BLOCKS: usize = 3;
/// Host CPUs the workloads are sized for: at most two threads step
/// cells at once.
const THREADS: f64 = 2.0;

/// What a run measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted: cells through the CLI, jobs through the
    /// server.
    pub attempted: u64,
    /// Attempted operations that failed or produced a wrong output.
    pub failed: u64,
    pub problems: Vec<String>,
    pub metrics: Vec<(&'static str, f64)>,
    /// FNV-1a of the canonical result bytes of the run's first job.
    pub sim_digest: String,
    /// Per-job latencies, for the run document.
    pub job_ms: Vec<f64>,
    /// Measurements recorded in the run document but not gated.
    pub extra: Vec<(&'static str, f64)>,
    /// Raw samples behind the normalized metrics, for the run document.
    pub samples: Vec<(&'static str, Vec<f64>)>,
}

/// The untraced run: load through the CLI or the server until `seconds`
/// have passed since it began, set-up timing included.
pub fn run(env: &Env, w: Workload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut out = Outcome::default();
    if w == Workload::ServeMixed {
        run_serve(env, &jobs(w, seed, MAX_SERVE_JOBS), deadline, &mut out)?;
    } else {
        run_campaigns(env, w, &jobs(w, seed, MAX_CLI_JOBS), deadline, &mut out)?;
    }
    Ok(out)
}

/// One job through `icicle-tma campaign` with the workload's flags,
/// over a fresh cache directory that is removed afterwards.
fn campaign(env: &Env, w: Workload, job: &Job) -> Result<CliRun, String> {
    let (global, flags) = w.cli_flags();
    let cache = env.fresh_dir("cache");
    let cli = drive::run_cli(env, job, global, flags, &cache);
    let _ = std::fs::remove_dir_all(&cache);
    cli
}

/// Jobs one after another until the deadline. Before each job: one
/// in-process pass of cell set-up, then the reference loop; after the
/// last, the reference loop once more. So every sample has a reference
/// time next to it.
fn run_campaigns(
    env: &Env,
    w: Workload,
    jobs: &[Job],
    deadline: Instant,
    out: &mut Outcome,
) -> Result<(), String> {
    let cells = setup_cells(&jobs[0]);
    let (mut setups, mut refs, mut peak_kb) = (Vec::new(), Vec::new(), Vec::new());
    let (mut program_s, mut instret) = (0.0, 0);
    for (k, job) in jobs.iter().enumerate() {
        if k >= MIN_CLI_JOBS && Instant::now() >= deadline {
            break;
        }
        setups.push(setup_pass(&cells)?);
        refs.push(reference_s());
        let cli = campaign(env, w, job)?;
        if k == 0 {
            out.sim_digest = doc::digest(cli.stdout.as_bytes());
        }
        instret += out.check_cli(&format!("job {k}"), job, &cli).instret;
        out.job_ms.push(1e3 * cli.wall_s);
        program_s += cli.wall_s;
        peak_kb.push(cli.peak_kb as f64);
    }
    refs.push(reference_s());
    let job_ms: Vec<f64> = (out.job_ms.iter().enumerate().skip(1))
        .map(|(k, &ms)| at_reference_speed(ms, around(&refs, k)))
        .collect();
    let setup_s: Vec<f64> = (setups.iter().zip(&refs))
        .map(|(&s, &r)| at_reference_speed(s, r))
        .collect();
    out.metrics = vec![
        ("job_ms", median(&job_ms)),
        ("setup_s", median(&setup_s)),
        ("peak_rss_mb", median(&peak_kb) / 1024.0),
    ];
    out.extra
        .push(("sim_minsts_per_s", instret as f64 / program_s / 1e6));
    out.samples = vec![
        ("setup_ms", scaled(&setups, 1e3)),
        ("reference_ms", scaled(&refs, 1e3)),
    ];
    Ok(())
}

/// The reference time for the `k`th sample, which ran between reference
/// loops `k` and `k + 1`: the faster of the two, since a hiccup during
/// one loop would otherwise pass for a slow host.
fn around(refs: &[f64], k: usize) -> f64 {
    refs[k].min(refs[k + 1])
}

fn scaled(values: &[f64], by: f64) -> Vec<f64> {
    values.iter().map(|v| v * by).collect()
}

/// The distinct (workload, core) cells of `job` at its first seed: the
/// counter architecture plays no part in set-up.
fn setup_cells(job: &Job) -> Vec<CellSpec> {
    let first = job.spec.seeds[0];
    let mut cells: Vec<CellSpec> = Vec::new();
    for cell in job.spec.cells() {
        if cell.seed == first
            && !cells
                .iter()
                .any(|c| c.workload == cell.workload && c.core == cell.core)
        {
            cells.push(cell);
        }
    }
    cells
}

/// Mean host seconds from a cell's name to its first simulated cycle
/// over `cells`, in the benchmark process.
fn setup_pass(cells: &[CellSpec]) -> Result<f64, String> {
    let mut total = 0.0;
    for cell in cells {
        total += layers::cell_setup(cell)?;
    }
    Ok(total / cells.len() as f64)
}

/// The memory probe on a server of its own, for its peak resident set;
/// set-up passes, each followed by the reference loop; several server
/// start-ups. Then two closed-loop clients load the last server one
/// block of jobs at a time until the deadline, with the reference loop
/// timed before the first block and after each.
fn run_serve(env: &Env, jobs: &[Job], deadline: Instant, out: &mut Outcome) -> Result<(), String> {
    let no_spans = Spans::new(false);
    let probe = jobs::memory_probe();
    let (server, first_start_s) = Server::start(env)?;
    let probed = drive::serve_job(server.addr, &probe, "bench-a", Duration::ZERO, &no_spans);
    let peak_kb = server.stop()?;
    out.check_serve(std::slice::from_ref(&probe), &[Some(probed)]);

    let cells = setup_cells(&probe);
    let (mut setups, mut setup_refs) = (Vec::new(), Vec::new());
    for _ in 0..SETUP_PASSES {
        setups.push(setup_pass(&cells)?);
        setup_refs.push(reference_s());
    }
    let mut starts = vec![first_start_s];
    let mut server = None;
    while starts.len() < SERVER_STARTS {
        if let Some(previous) = server.take() {
            Server::stop(previous)?;
        }
        let (started, start_s) = Server::start(env)?;
        starts.push(start_s);
        server = Some(started);
    }
    let server = server.expect("at least two servers started");

    let (mut served, mut refs) = (Vec::new(), vec![reference_s()]);
    let load = Instant::now();
    for block in 0..jobs.len() / SERVE_BLOCK {
        if block >= MIN_SERVE_BLOCKS && Instant::now() >= deadline {
            break;
        }
        let range = block * SERVE_BLOCK..(block + 1) * SERVE_BLOCK;
        served.extend(drive::serve_load(
            server.addr,
            jobs,
            range,
            f64::INFINITY,
            &no_spans,
        ));
        refs.push(reference_s());
    }
    let wall = load.elapsed().as_secs_f64();
    server.stop()?;
    let instret = out.check_serve(jobs, &served);
    out.sim_digest = doc::digest(body_of(&served, 0).as_bytes());
    let latency_ms = |s: &Option<Served>| {
        s.as_ref()
            .filter(|s| s.error.is_none())
            .map(|s| 1e3 * s.latency_s)
    };
    out.job_ms = served.iter().filter_map(latency_ms).collect();
    if out.job_ms.is_empty() || peak_kb == 0 {
        return Err("the served load produced no measurement".into());
    }
    // A block's mean latency at the reference speed. Every block asks
    // for the same work.
    let block_ms: Vec<f64> = (served.chunks(SERVE_BLOCK).enumerate().skip(1))
        .filter_map(|(b, block)| {
            let ms: Vec<f64> = block.iter().filter_map(latency_ms).collect();
            let mean = ms.iter().sum::<f64>() / ms.len() as f64;
            (!ms.is_empty()).then(|| at_reference_speed(mean, around(&refs, b)))
        })
        .collect();
    if block_ms.is_empty() {
        return Err("no timed block of the served load succeeded".into());
    }
    let setup_s: Vec<f64> = (setups.iter().zip(&setup_refs))
        .map(|(&s, &r)| at_reference_speed(s, r))
        .collect();
    out.metrics = vec![
        ("job_ms", median(&block_ms)),
        ("setup_s", median(&setup_s)),
        ("peak_rss_mb", peak_kb as f64 / 1024.0),
    ];
    out.extra.extend([
        ("sim_minsts_per_s", instret as f64 / wall / 1e6),
        ("server_start_ms", 1e3 * median(&starts)),
    ]);
    let refs: Vec<f64> = setup_refs.iter().chain(&refs).copied().collect();
    out.samples = vec![
        ("setup_ms", scaled(&setups, 1e3)),
        ("reference_ms", scaled(&refs, 1e3)),
    ];
    Ok(())
}

fn body_of(served: &[Option<Served>], i: usize) -> &str {
    served
        .get(i)
        .and_then(Option::as_ref)
        .map_or("", |s| s.body.as_str())
}

/// The traced run: the first job re-run through the CLI under both SoC
/// engines and against its warm cache, its cells simulated in-process
/// and replayed layer by layer, and the server driven with spans.
pub fn trace(
    env: &Env,
    w: Workload,
    seed: u64,
    seconds: f64,
    spans: &Spans,
) -> Result<Outcome, String> {
    let count = if w == Workload::ServeMixed {
        MAX_SERVE_JOBS
    } else {
        1
    };
    let jobs = jobs(w, seed, count);
    let job0 = &jobs[0];
    let mut out = Outcome::default();
    let flags = w.cli_flags().1;

    let cli = |name: &str, global: &[&str], cache: &std::path::Path| {
        spans
            .time(name, spans.mint(), |_| {
                drive::run_cli(env, job0, global, flags, cache)
            })
            .0
    };
    let caches = [
        env.fresh_dir("cache"),
        env.fresh_dir("cache"),
        env.fresh_dir("cache"),
    ];
    let own_global = if w == Workload::SocSharedL2 {
        "2"
    } else {
        "lockstep"
    };
    // Untimed, as in the untraced run: the first busy seconds are slow.
    let warm_up = cli(
        "cli.campaign.warm-up",
        &["--soc-jobs", own_global],
        &caches[2],
    )?;
    let lockstep = cli(
        "cli.campaign.lockstep",
        &["--soc-jobs", "lockstep"],
        &caches[0],
    )?;
    let parallel = cli("cli.campaign.parallel", &["--soc-jobs", "2"], &caches[1])?;
    // The workload's own engine: warm the cache that run filled.
    let (own, own_cache) = if w == Workload::SocSharedL2 {
        (&parallel, &caches[1])
    } else {
        (&lockstep, &caches[0])
    };
    let warm = cli("cli.campaign.warm", &["--soc-jobs", own_global], own_cache)?;
    let checked = out.check_cli("lockstep run", job0, &lockstep);
    out.check_cli("parallel run", job0, &parallel);
    out.check_cli("warm run", job0, &warm);
    if lockstep.stdout != parallel.stdout {
        out.problem("lockstep and --soc-jobs 2 outputs differ");
    }
    if warm.stdout != own.stdout || warm_up.stdout != own.stdout {
        out.problem("re-runs of the first job differ from it");
    }
    out.sim_digest = doc::digest(own.stdout.as_bytes());

    // The campaign layer in-process, cell by cell, against the CLI.
    let mut cell_s = 0.0;
    for cell in job0.spec.cells() {
        let (result, t) = spans.time("campaign.cell", spans.mint(), |_| {
            simulate_cell_with(&cell, Some(SkipPolicy::Off), Some(SocJobs::Lockstep))
        });
        cell_s += t;
        out.attempted += 1;
        let same = result.is_ok_and(|r| {
            let mine = Json::parse(&r.to_json().render()).expect("cells render valid JSON");
            checked.cells.contains(&mine)
        });
        if !same {
            out.failed += 1;
            out.problem(&format!(
                "{}: in-process result differs from the CLI",
                cell.label()
            ));
        }
    }

    let mut replays = Vec::new();
    for (i, cell) in layers::replay_cells(&replay_source(&jobs))
        .iter()
        .enumerate()
    {
        out.attempted += 1;
        match layers::replay(cell, spans, i % 2 == 0) {
            Ok(r) => replays.push(r),
            Err(e) => {
                out.failed += 1;
                out.problem(&e);
            }
        }
    }
    if !(replays.iter().any(|r| r.boom) && replays.iter().any(|r| !r.boom)) {
        return Err("the replayed cells must cover both core families".into());
    }

    let (server, _) = Server::start(env)?;
    let twice;
    let (list, served) = if w == Workload::ServeMixed {
        (
            &jobs[..],
            drive::serve_load(server.addr, &jobs, 0..jobs.len(), seconds, spans),
        )
    } else {
        // A cold submission, then the same spec again, all cached.
        let repeat = Job {
            origin: Origin::Repeat(0),
            ..job0.clone()
        };
        twice = [job0.clone(), repeat];
        let served = twice
            .iter()
            .map(|job| {
                Some(drive::serve_job(
                    server.addr,
                    job,
                    "bench-a",
                    Duration::ZERO,
                    spans,
                ))
            })
            .collect();
        (&twice[..], served)
    };
    server.stop()?;
    out.check_serve(list, &served);
    if body_of(&served, 0) != own.stdout {
        out.problem("the server's result differs from the CLI's");
    }
    let ok: Vec<&Served> = served
        .iter()
        .flatten()
        .filter(|s| s.error.is_none())
        .collect();
    if ok.is_empty() {
        return Err("no served job succeeded".into());
    }
    let p50_ms =
        |f: &dyn Fn(&Served) -> f64| 1e3 * median(&ok.iter().map(|s| f(s)).collect::<Vec<_>>());
    let status = |s: &Served, k: &str| s.status.get(k).and_then(Json::as_u64).unwrap_or(0) as f64;
    let reused: f64 = ok
        .iter()
        .map(|s| status(s, "cached") + status(s, "resumed"))
        .sum();
    let simulated: f64 = ok.iter().map(|s| status(s, "simulated")).sum();

    out.metrics = layers::metrics(&replays);
    out.metrics.extend([
        ("soc.lockstep_wall_s", lockstep.wall_s),
        ("soc.parallel_wall_s", parallel.wall_s),
        ("soc.parallel_speedup", lockstep.wall_s / parallel.wall_s),
        ("campaign.pool_efficiency", cell_s / (THREADS * own.wall_s)),
        (
            "campaign.warm_ms_per_cell",
            1e3 * warm.wall_s / job0.cells() as f64,
        ),
        ("serve.submit_ms_p50", p50_ms(&|s| s.submit_s)),
        ("serve.wait_ms_p50", p50_ms(&|s| s.wait_s)),
        ("serve.result_ms_p50", p50_ms(&|s| s.result_s)),
        ("serve.cells_cached_frac", reused / (reused + simulated)),
        ("model.sim_cycles", checked.cycles as f64),
        ("model.sim_instret", checked.instret as f64),
    ]);
    out.job_ms = ok.iter().map(|s| 1e3 * s.latency_s).collect();
    for cache in caches {
        let _ = std::fs::remove_dir_all(cache);
    }
    Ok(out)
}

/// The cells whose layers a traced run replays: the first job's at its
/// first seed, or for the server the first fresh jobs' until both core
/// families show.
fn replay_source(jobs: &[Job]) -> Vec<CellSpec> {
    let mut cells = Vec::new();
    for job in jobs.iter().filter(|j| j.origin == Origin::Fresh) {
        let first = job.spec.seeds[0];
        cells.extend(job.spec.cells().into_iter().filter(|c| c.seed == first));
        let has = |boom: bool| {
            cells
                .iter()
                .any(|c| matches!(c.core, CoreSelect::Boom(_)) == boom)
        };
        if has(true) && has(false) {
            break;
        }
    }
    cells
}

impl Outcome {
    fn problem(&mut self, p: &str) {
        self.problems.push(p.to_string());
    }

    /// Counts one CLI campaign's cells: all of them fail with the
    /// process, else each missing or malformed one does.
    fn check_cli(&mut self, what: &str, job: &Job, cli: &CliRun) -> drive::Checked {
        let checked = check_report(&cli.stdout, &job.spec);
        self.attempted += checked.expected as u64;
        if cli.success {
            self.failed += checked.failed as u64;
        } else {
            self.failed += checked.expected as u64;
            self.problem(&format!("{what}: icicle-tma campaign failed"));
        }
        self.problems
            .extend(checked.problems.iter().map(|p| format!("{what}: {p}")));
        checked
    }

    /// Counts served jobs; returns the instructions their results
    /// deliver.
    fn check_serve(&mut self, jobs: &[Job], served: &[Option<Served>]) -> u64 {
        let (checked, problems) = check_served(jobs, served);
        self.attempted += checked.len() as u64;
        self.failed += checked.iter().filter(|c| c.is_none()).count() as u64;
        self.problems.extend(problems);
        checked.iter().flatten().map(|c| c.instret).sum()
    }
}
