//! Driving the release `icicle-tma` binary the way users do: CLI
//! campaigns, and the analysis server over loopback HTTP.

use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use icicle::campaign::CampaignSpec;
use icicle::obs::Json;

use crate::http;
use crate::jobs::{Job, Origin};
use crate::spans::{Ctx, Spans};

/// How often a child's memory is sampled.
const RSS_POLL: Duration = Duration::from_millis(10);
/// Longest wait for a server to answer `/healthz` or to drain.
const SERVER_TIMEOUT: Duration = Duration::from_secs(30);
/// How often the server's progress stream polls a job. It polls from the
/// moment the stream opens, so a client that always opened it right
/// after the POST would see every latency rounded up to this grid, and a
/// slightly slower host would push whole groups of jobs over a step at
/// once. Clients therefore wait an evenly spread share of one period
/// before opening it; over a run the rounding averages out to half a
/// period.
const PROGRESS_POLL: Duration = Duration::from_millis(50);
/// Reports print TMA fractions with six decimals, so four top-level
/// classes can miss 1 by four half-units of the last digit.
const TMA_SUM_TOLERANCE: f64 = 2.5e-6;

/// Where the benchmark finds the program and keeps its working files.
pub struct Env {
    pub root: PathBuf,
    pub bin: PathBuf,
    work: PathBuf,
    next: AtomicUsize,
}

impl Env {
    /// Builds `icicle-tma` from source with Cargo, in release mode, into
    /// `target`, and prepares a working directory under it.
    pub fn build(root: &Path, target: &Path, tag: &str) -> Result<Env, String> {
        let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
        let status = Command::new(cargo)
            .args(["build", "--release", "--quiet", "-p", "icicle-cli"])
            .current_dir(root)
            .env("CARGO_TARGET_DIR", target)
            .stdout(Stdio::null())
            .status()
            .map_err(|e| format!("cannot run cargo: {e}"))?;
        if !status.success() {
            return Err(format!("building icicle-tma failed ({status})"));
        }
        // Only the release profile is ever built or run: timings of a
        // debug build would measure the optimizer's absence.
        let bin = target.join("release").join("icicle-tma");
        if !bin.is_file() {
            return Err(format!("no release binary at {}", bin.display()));
        }
        let work = target
            .join("benchmark-work")
            .join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&work);
        std::fs::create_dir_all(&work)
            .map_err(|e| format!("cannot create {}: {e}", work.display()))?;
        Ok(Env {
            root: root.to_path_buf(),
            bin,
            work,
            next: AtomicUsize::new(0),
        })
    }

    /// A fresh, empty directory path under the working directory.
    pub fn fresh_dir(&self, what: &str) -> PathBuf {
        let n = self.next.fetch_add(1, Ordering::Relaxed);
        self.work.join(format!("{what}-{n}"))
    }

    /// The program with the knobs that could change what it runs
    /// removed from its environment, so only explicit flags choose.
    pub fn command(&self) -> Command {
        let mut cmd = Command::new(&self.bin);
        cmd.env_remove("ICICLE_SKIP")
            .env_remove("ICICLE_SOC_JOBS")
            .env_remove("ICICLE_LOG")
            .current_dir(&self.work);
        cmd
    }

    /// Runs `icicle-tma list --json` once so the binary is paged in
    /// before anything is timed.
    pub fn page_in(&self) -> Result<(), String> {
        let out = self
            .command()
            .args(["list", "--json"])
            .output()
            .map_err(|e| format!("cannot run icicle-tma: {e}"))?;
        if !out.status.success() {
            return Err(format!("icicle-tma list failed ({})", out.status));
        }
        Ok(())
    }
}

impl Drop for Env {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.work);
    }
}

/// A child process whose peak resident set is sampled from `/proc`
/// every [`RSS_POLL`] until it exits. Dropping it kills and reaps the
/// child.
pub struct Watched {
    child: Child,
    /// The largest `VmHWM` read, in KiB.
    peak_kb: Arc<AtomicU64>,
    stop: Arc<AtomicBool>,
    poller: Option<JoinHandle<()>>,
}

impl Watched {
    pub fn spawn(cmd: &mut Command) -> Result<Watched, String> {
        let child = cmd
            .spawn()
            .map_err(|e| format!("cannot spawn icicle-tma: {e}"))?;
        let pid = child.id();
        let peak_kb = Arc::new(AtomicU64::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        let poller = {
            let (peak_kb, stop) = (Arc::clone(&peak_kb), Arc::clone(&stop));
            std::thread::spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    if let Some(hwm) = read_peak_kb(pid) {
                        peak_kb.fetch_max(hwm, Ordering::SeqCst);
                    }
                    std::thread::sleep(RSS_POLL);
                }
            })
        };
        Ok(Watched {
            child,
            peak_kb,
            stop,
            poller: Some(poller),
        })
    }

    /// Waits for exit; returns the status and the peak resident set in
    /// KiB.
    pub fn wait(mut self) -> Result<(ExitStatus, u64), String> {
        let status = self
            .child
            .wait()
            .map_err(|e| format!("waiting for icicle-tma: {e}"))?;
        self.stop_poller();
        Ok((status, self.peak_kb.load(Ordering::SeqCst)))
    }

    fn stop_poller(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(poller) = self.poller.take() {
            let _ = poller.join();
        }
    }
}

impl Drop for Watched {
    fn drop(&mut self) {
        // Both calls are no-ops on a child already reaped by `wait`.
        let _ = self.child.kill();
        let _ = self.child.wait();
        self.stop_poller();
    }
}

/// `VmHWM` of `pid` in KiB, if it is still an `icicle-tma` process.
fn read_peak_kb(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let mut lines = status.lines();
    if lines.next()?.split_whitespace().nth(1)? != "icicle-tma" {
        return None;
    }
    lines
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// One `icicle-tma campaign` invocation.
pub struct CliRun {
    /// From spawning the process to its exit.
    pub wall_s: f64,
    pub peak_kb: u64,
    pub success: bool,
    pub stdout: String,
}

/// Runs `job` through `icicle-tma [global] campaign SPEC [flags]
/// --cache-dir DIR --json`.
pub fn run_cli(
    env: &Env,
    job: &Job,
    global: &[&str],
    flags: &[&str],
    cache_dir: &Path,
) -> Result<CliRun, String> {
    let spec_path = env.fresh_dir("spec").with_extension("campaign");
    std::fs::write(&spec_path, &job.text).map_err(|e| format!("cannot write spec: {e}"))?;
    let mut cmd = env.command();
    cmd.args(global)
        .arg("campaign")
        .arg(&spec_path)
        .args(flags)
        .arg("--cache-dir")
        .arg(cache_dir)
        .arg("--json")
        .stdout(Stdio::piped());
    let start = Instant::now();
    let mut child = Watched::spawn(&mut cmd)?;
    let mut stdout = String::new();
    let read = child
        .child
        .stdout
        .take()
        .expect("stdout is piped")
        .read_to_string(&mut stdout);
    let (status, peak_kb) = child.wait()?;
    let wall_s = start.elapsed().as_secs_f64();
    let _ = std::fs::remove_file(&spec_path);
    read.map_err(|e| format!("reading campaign output: {e}"))?;
    Ok(CliRun {
        wall_s,
        peak_kb,
        success: status.success(),
        stdout,
    })
}

/// What [`check_report`] found in one campaign report.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Checked {
    /// Cells the spec expands to.
    pub expected: usize,
    /// Expected cells missing from the report or failing a check.
    pub failed: usize,
    /// Retired instructions over every core of every good cell.
    pub instret: u64,
    /// Simulated cycles over every core of every good cell.
    pub cycles: u64,
    /// The report's cells, as parsed, in report order.
    pub cells: Vec<Json>,
    pub problems: Vec<String>,
}

/// Checks a canonical campaign report against the spec that produced
/// it: every cell present, no failures or skips, and each cell's (and
/// each SoC core's) top-level TMA summing to 1.
pub fn check_report(text: &str, spec: &CampaignSpec) -> Checked {
    let expected = spec.cells();
    let mut out = Checked {
        expected: expected.len(),
        ..Checked::default()
    };
    let doc = match Json::parse(text) {
        Ok(doc) => doc,
        Err(e) => {
            out.failed = expected.len();
            out.problems.push(format!("unparsable report: {e}"));
            return out;
        }
    };
    for section in ["failures", "skipped"] {
        if doc.get(section).is_some() {
            out.problems
                .push(format!("report has a `{section}` section"));
        }
    }
    out.cells = doc
        .get("cells")
        .and_then(Json::as_array)
        .unwrap_or_default()
        .to_vec();
    let label = |c: &Json| -> Option<String> {
        let s = |k: &str| c.get(k).and_then(Json::as_str);
        let n = |k: &str| c.get(k).and_then(Json::as_u64);
        Some(format!(
            "{}/{}/{}/s{}/r{}",
            s("workload")?,
            s("core")?,
            s("arch")?,
            n("seed")?,
            n("repeat")?
        ))
    };
    if out.cells.len() != expected.len() {
        out.problems.push(format!(
            "{} cells in the report, {} in the spec",
            out.cells.len(),
            expected.len()
        ));
    }
    for cell in &expected {
        let want = cell.label();
        let Some(node) = out
            .cells
            .iter()
            .find(|c| label(c).as_deref() == Some(&want))
        else {
            out.failed += 1;
            out.problems.push(format!("cell {want} missing"));
            continue;
        };
        let cores = node
            .get("cores")
            .and_then(Json::as_array)
            .map(<[Json]>::to_vec)
            .unwrap_or_else(|| vec![node.clone()]);
        let mut good = true;
        let (mut instret, mut cycles) = (0, 0);
        for core in &cores {
            let tma = |k: &str| {
                core.get("tma")
                    .and_then(|t| t.get(k))
                    .and_then(Json::as_f64)
            };
            let sum = ["retiring", "bad_speculation", "frontend", "backend"]
                .iter()
                .map(|k| tma(k))
                .sum::<Option<f64>>();
            match sum {
                Some(sum) if (sum - 1.0).abs() <= TMA_SUM_TOLERANCE => {}
                _ => good = false,
            }
            instret += core.get("instret").and_then(Json::as_u64).unwrap_or(0);
            cycles += core.get("cycles").and_then(Json::as_u64).unwrap_or(0);
        }
        if good && instret > 0 {
            out.instret += instret;
            out.cycles += cycles;
        } else {
            out.failed += 1;
            out.problems
                .push(format!("cell {want}: TMA does not sum to 1"));
        }
    }
    out
}

/// A running `icicle-tma serve`.
pub struct Server {
    pub addr: SocketAddr,
    process: Option<Watched>,
    stderr: Option<JoinHandle<()>>,
}

impl Server {
    /// Starts a server on an ephemeral loopback port over a fresh data
    /// directory; returns it with the seconds from spawn to its first
    /// `200` on `/healthz`.
    pub fn start(env: &Env) -> Result<(Server, f64), String> {
        let data_dir = env.fresh_dir("serve-data");
        let mut cmd = env.command();
        cmd.args(["serve", "--addr", "127.0.0.1:0", "--data-dir"])
            .arg(&data_dir)
            .args(["--jobs", "1", "--executors", "2"])
            .stderr(Stdio::piped());
        let start = Instant::now();
        let mut process = Watched::spawn(&mut cmd)?;
        let mut stderr = BufReader::new(process.child.stderr.take().expect("stderr is piped"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            match stderr.read_line(&mut line) {
                Ok(0) | Err(_) => return Err("icicle-tma serve exited before listening".into()),
                Ok(_) => {}
            }
            if let Some(addr) = line.trim().strip_prefix("icicle-tma serving on ") {
                break addr
                    .parse::<SocketAddr>()
                    .map_err(|e| format!("bad listen address `{addr}`: {e}"))?;
            }
        };
        // Keep draining the server's stderr so it can never block on it.
        let stderr = std::thread::spawn(move || {
            let _ = std::io::copy(&mut stderr, &mut std::io::sink());
        });
        let server = Server {
            addr,
            process: Some(process),
            stderr: Some(stderr),
        };
        loop {
            if matches!(http::request(addr, "GET", "/healthz", None), Ok(r) if r.status == 200) {
                break;
            }
            if start.elapsed() > SERVER_TIMEOUT {
                return Err("server never became healthy".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok((server, start.elapsed().as_secs_f64()))
    }

    /// Shuts the server down gracefully and returns its peak resident
    /// set in KiB.
    pub fn stop(mut self) -> Result<u64, String> {
        http::request(self.addr, "POST", "/v1/shutdown", None)?;
        let mut process = self.process.take().expect("a running server has a process");
        let deadline = Instant::now() + SERVER_TIMEOUT;
        let status = loop {
            match process.child.try_wait() {
                Ok(Some(status)) => break status,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => return Err("server did not drain".into()),
            }
        };
        let (_, peak_kb) = process.wait()?;
        if !status.success() {
            return Err(format!("server exited with {status}"));
        }
        Ok(peak_kb)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        drop(self.process.take());
        if let Some(stderr) = self.stderr.take() {
            let _ = stderr.join();
        }
    }
}

/// One job submitted to the server.
#[derive(Clone, Debug)]
pub struct Served {
    /// From sending the POST to receiving the last result byte.
    pub latency_s: f64,
    pub submit_s: f64,
    pub wait_s: f64,
    pub result_s: f64,
    /// The canonical result body.
    pub body: String,
    /// The terminal progress line.
    pub status: Json,
    pub error: Option<String>,
}

/// POSTs `job`, waits `delay`, follows its progress stream to the
/// terminal line, then fetches its result, with one span per exchange
/// under a `serve.job` span.
pub fn serve_job(
    addr: SocketAddr,
    job: &Job,
    client: &str,
    delay: Duration,
    spans: &Spans,
) -> Served {
    let mut served = Served {
        latency_s: 0.0,
        submit_s: 0.0,
        wait_s: 0.0,
        result_s: 0.0,
        body: String::new(),
        status: Json::Null,
        error: None,
    };
    let (outcome, latency_s) = spans.time("serve.job", spans.mint(), |ctx: Ctx| {
        let envelope = Json::object(vec![
            ("kind", Json::Str("campaign".into())),
            ("spec", Json::Str(job.text.clone())),
            ("client", Json::Str(client.into())),
        ])
        .render();
        let (posted, t) = spans.time("serve.submit", ctx, |_| {
            http::request(addr, "POST", "/v1/jobs", Some(&envelope))
        });
        served.submit_s = t;
        let posted = posted?;
        if posted.status != 202 {
            return Err(format!("submit answered {}", posted.status));
        }
        let id = Json::parse(&posted.body)
            .ok()
            .and_then(|d| d.get("id").and_then(Json::as_u64))
            .ok_or("submit answer has no job id")?;
        let (progress, t) = spans.time("serve.wait", ctx, |_| {
            std::thread::sleep(delay);
            http::request(addr, "GET", &format!("/v1/jobs/{id}/progress"), None)
        });
        served.wait_s = t;
        let progress = progress?;
        served.status = http::jsonl(&progress.body)?
            .pop()
            .ok_or("empty progress stream")?;
        let state = served.status.get("state").and_then(Json::as_str);
        if progress.status != 200 || state != Some("done") {
            return Err(format!("job {id} ended `{}`", state.unwrap_or("?")));
        }
        let (result, t) = spans.time("serve.result", ctx, |_| {
            http::request(addr, "GET", &format!("/v1/jobs/{id}/result"), None)
        });
        served.result_s = t;
        let result = result?;
        if result.status != 200 {
            return Err(format!("result answered {}", result.status));
        }
        served.body = result.body;
        Ok(())
    });
    served.latency_s = latency_s;
    served.error = outcome.err();
    served
}

/// Two closed-loop clients take the jobs of `range` in list order until
/// all are taken or `seconds` have passed; each waits for its job's
/// result before taking the next. Returns the finished jobs of the range
/// in list order, up to the last one finished.
pub fn serve_load(
    addr: SocketAddr,
    jobs: &[Job],
    range: Range<usize>,
    seconds: f64,
    spans: &Spans,
) -> Vec<Option<Served>> {
    let next = AtomicUsize::new(range.start);
    let done: Mutex<Vec<Option<Served>>> = Mutex::new(vec![None; range.len()]);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for client in ["bench-a", "bench-b"] {
            scope.spawn(|| loop {
                if start.elapsed().as_secs_f64() >= seconds {
                    break;
                }
                let index = next.fetch_add(1, Ordering::SeqCst);
                let Some(job) = jobs.get(index).filter(|_| index < range.end) else {
                    break;
                };
                let served = serve_job(addr, job, client, progress_delay(index), spans);
                done.lock().expect("load results poisoned")[index - range.start] = Some(served);
            });
        }
    });
    let mut done = done.into_inner().expect("load results poisoned");
    let finished = done.iter().rposition(Option::is_some).map_or(0, |i| i + 1);
    done.truncate(finished);
    done
}

/// The pause before the `index`th served job's progress stream opens:
/// a Weyl sequence over one poll period, so any stretch of jobs covers
/// the period evenly.
fn progress_delay(index: usize) -> Duration {
    const GOLDEN: f64 = 0.618_033_988_749_895;
    PROGRESS_POLL.mul_f64((index as f64 * GOLDEN).fract())
}

/// Checks every finished served job: its own report, a repeat's bytes
/// against the original's, and an extend's cached half against the
/// cells the original produced. Returns one checked report per job
/// (`None` for a failed job) with the problems found.
pub fn check_served(
    jobs: &[Job],
    served: &[Option<Served>],
) -> (Vec<Option<Checked>>, Vec<String>) {
    let mut problems = Vec::new();
    let mut checked: Vec<Option<Checked>> = Vec::with_capacity(served.len());
    for (i, s) in served.iter().enumerate() {
        let Some(s) = s else {
            // A client skipped nothing: list order is strict, so a hole
            // means its job was never finished.
            problems.push(format!("job {i} never finished"));
            checked.push(None);
            continue;
        };
        if let Some(e) = &s.error {
            problems.push(format!("job {i}: {e}"));
            checked.push(None);
            continue;
        }
        let mut c = check_report(&s.body, &jobs[i].spec);
        let original = |of: usize| {
            served
                .get(of)
                .and_then(Option::as_ref)
                .filter(|o| o.error.is_none())
        };
        match jobs[i].origin {
            Origin::Fresh => {}
            Origin::Repeat(of) => {
                if original(of).is_some_and(|o| o.body != s.body) {
                    c.problems
                        .push(format!("repeat of job {of} differs from it"));
                }
            }
            Origin::Extend(of) => {
                if let Some(o) = original(of) {
                    let seed = jobs[of].spec.seeds[0];
                    let reused: Vec<&Json> = c
                        .cells
                        .iter()
                        .filter(|n| n.get("seed").and_then(Json::as_u64) == Some(seed))
                        .collect();
                    let before = check_report(&o.body, &jobs[of].spec);
                    if reused != before.cells.iter().collect::<Vec<_>>() {
                        c.problems
                            .push(format!("extend of job {of} changed its cells"));
                    }
                }
            }
        }
        problems.extend(c.problems.iter().map(|p| format!("job {i}: {p}")));
        checked.push(if c.problems.is_empty() { Some(c) } else { None });
    }
    (checked, problems)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn progress_delays_cover_one_poll_period_evenly() {
        let mut ms: Vec<f64> = (0..10)
            .map(|i| progress_delay(i).as_secs_f64() * 1e3)
            .collect();
        ms.sort_by(f64::total_cmp);
        assert!(ms[0] >= 0.0 && ms[9] < 50.0);
        // Ten consecutive jobs leave no gap wider than a fifth of the
        // period, at either end either.
        assert!(ms.windows(2).all(|w| w[1] - w[0] < 10.0));
        assert!(ms[0] < 10.0 && ms[9] > 40.0);
    }
}
