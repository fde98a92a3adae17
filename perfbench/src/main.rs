//! The ASDEX benchmark: one command, three workloads.
//!
//! ```sh
//! CARGO_TARGET_DIR=.bench_build cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload trm_signoff --seed 1 --seconds 40 --trace 0
//! ```
//!
//! Run from the repository root (the probe workload reads `decks/`).
//! Every input is generated from `--seed`. The last stdout line is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` — the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. The lines before it carry the run record (`nproc`, git
//! commit, `rustc -V`, build profile, seed), the workload's own result
//! metrics and its output digests. See `perfbench/README.md`.

mod cpu;
mod daemon;
mod layers;
mod probe;
mod timed;
mod trm;

use asdex_serve::Json;
use std::process::{Command, ExitCode};
use std::time::Duration;

/// One named measurement with its unit.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Shorthand constructor for [`Metric`].
pub fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What a workload run hands back to `main`.
pub struct Report {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted (campaigns, or probe evaluations).
    pub attempted: u64,
    /// Operations that failed, were refused or timed out.
    pub failed: u64,
    /// The metrics for the final line: end-to-end or per-layer.
    pub metrics: Vec<Metric>,
    /// Workload result metrics (search outcomes, throughput, latency),
    /// printed on a line of their own.
    pub results: Vec<Metric>,
    /// Output digests and check details, printed on a line of their own.
    pub digests: Json,
}

/// Longest `--seconds`: with set-up, the fixed prefix and the checks a
/// run must still end before the watchdog.
const MAX_SECONDS: u64 = 120;
/// A run that is still going after this long aborts with exit code 1.
const WATCHDOG: Duration = Duration::from_secs(170);

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|s| (1..=MAX_SECONDS).contains(s))
                        .ok_or(format!("bad --seconds {value:?}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?} (0|1)")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: --workload trm_signoff|probe_decks|daemon_mix --seed N --seconds 1..={MAX_SECONDS} --trace 0|1");
            return ExitCode::from(2);
        }
    };
    // A run must end well inside the caller's 180 s limit, hung or not.
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("perfbench: run exceeded {} s, aborting", WATCHDOG.as_secs());
        std::process::exit(1);
    });
    let budget = Duration::from_secs(args.seconds);
    let report = match args.workload.as_str() {
        "trm_signoff" => trm::run(args.seed, budget, args.trace),
        "probe_decks" => probe::run(args.seed, budget, args.trace),
        "daemon_mix" => daemon::run(args.seed, budget, args.trace),
        other => Err(format!("unknown workload {other:?}")),
    };
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    println!("{}", Json::obj().with("run", run_record(&args)).dump());
    println!(
        "{}",
        Json::obj()
            .with("results", metrics_json(&report.results))
            .dump()
    );
    println!("{}", Json::obj().with("digests", report.digests).dump());
    let last = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics_json(&report.metrics).dump()
    );
    println!("{last}");
    if report.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "perfbench: {}: an output check failed (see the digests line)",
            args.workload
        );
        ExitCode::from(1)
    }
}

/// `{"name": {"value": v, "unit": u}, ...}`; non-finite values print as
/// `null` so the line stays valid JSON.
fn metrics_json(metrics: &[Metric]) -> Json {
    let mut obj = Json::obj();
    for mt in metrics {
        let value = if mt.value.is_finite() {
            Json::Num(mt.value)
        } else {
            Json::Null
        };
        obj = obj.with(
            mt.name,
            Json::obj()
                .with("value", value)
                .with("unit", Json::Str(mt.unit.into())),
        );
    }
    obj
}

fn run_record(args: &Args) -> Json {
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    Json::obj()
        .with("workload", Json::Str(args.workload.clone()))
        .with("seed", Json::Num(args.seed as f64))
        .with("seconds", Json::Num(args.seconds as f64))
        .with("trace", Json::Bool(args.trace))
        .with("nproc", Json::Num(nproc as f64))
        .with("commit", Json::Str(git_commit()))
        .with(
            "rustc",
            Json::Str(command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into())),
        )
        .with(
            "profile",
            Json::Str(
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
                .into(),
            ),
        )
}

/// The checkout's commit, or `unknown` outside a git work tree. The
/// ceiling stops git from climbing into an enclosing repository.
fn git_commit() -> String {
    let cwd = std::env::current_dir().ok();
    let ceiling = cwd
        .as_ref()
        .and_then(|d| d.parent())
        .map(|p| p.display().to_string());
    let mut cmd = Command::new("git");
    cmd.args(["rev-parse", "HEAD"]);
    if let Some(c) = ceiling {
        cmd.env("GIT_CEILING_DIRECTORIES", c);
    }
    cmd.output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// High-water resident set size of this process, MiB (Linux `VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Median of `xs` (NaN when empty).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q ∈ [0, 1]` of `xs` (NaN when empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// FNV-1a 64 over a stream of words — the digest the run prints so two
/// runs on one seed can be compared with a string match.
#[derive(Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// A scratch directory inside the working directory (the benchmark reads
/// and writes only under its checkout), removed on drop.
pub struct ScratchDir(pub std::path::PathBuf);

impl ScratchDir {
    pub fn new(tag: &str) -> Result<ScratchDir, String> {
        let dir =
            std::path::PathBuf::from(".bench_tmp").join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(ScratchDir(dir))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Remove the parent too once the last run's directory is gone.
        let _ = std::fs::remove_dir(".bench_tmp");
    }
}
