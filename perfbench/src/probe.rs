//! `probe_decks`: the calibration flow. `SizingProblem::evaluate_batch`
//! on uniform random grid points with two evaluation threads, over the
//! built-in `opamp45`, its deck clone (on identical points), the four
//! scenario decks and the built-in `ldo` (which exercises the retry
//! ladder). Simulator-bound: no agent and almost no repeated points.

use crate::cpu::{process_cpu_s, HostProbe, Setups};
use crate::layers;
use crate::timed::{self, Call, TimedEvaluator};
use crate::{m, median, peak_rss_mb, Fnv, Report};
use asdex_env::circuits::opamp::TwoStageOpamp;
use asdex_env::{EvalRequest, Evaluation, PvtCorner, SizingProblem};
use asdex_rng::rngs::StdRng;
use asdex_rng::{mix64, Rng, SeedableRng};
use asdex_serve::{build_problem, Json};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// (name, bench as `build_problem` takes it). The first two share their
/// points.
const BENCHES: [(&str, &str); 7] = [
    ("opamp45", "opamp45"),
    ("opamp45_deck", "netlist:decks/two_stage_opamp_sized.sp"),
    ("folded_cascode", "netlist:decks/folded_cascode_opamp.sp"),
    ("bandgap", "netlist:decks/bandgap_reference.sp"),
    ("comparator", "netlist:decks/comparator.sp"),
    ("ldo_deck", "netlist:decks/two_stage_ldo.sp"),
    ("ldo", "ldo"),
];
const THREADS: usize = 2;
/// Points per bench per `evaluate_batch` call.
const BATCH: usize = 16;
/// Rounds every run completes: digests and feasible counts cover these.
const PREFIX: usize = 16;

fn build_all() -> Result<Vec<SizingProblem>, String> {
    BENCHES
        .iter()
        .map(|(_, bench)| Ok(build_problem(bench, "nominal")?.with_threads(THREADS)))
        .collect()
}

/// One timed set-up: compile every deck and build every bench.
fn setup_time(setups: &mut Setups) -> Result<(), String> {
    std::hint::black_box(setups.time(build_all)?);
    Ok(())
}

/// One pass of rounds over fresh problems.
#[derive(Default)]
struct Pass {
    wall: f64,
    /// Process CPU seconds inside `evaluate_batch`.
    cpu: f64,
    /// Wall ms per simulator attempt of each run of `PREFIX` whole rounds.
    windows: Vec<f64>,
    /// Process CPU ms per simulator attempt of the same windows.
    cpu_windows: Vec<f64>,
    /// Peak RSS once the prefix rounds were done, MiB.
    rss: f64,
    sims: usize,
    points: u64,
    truncated: u64,
    sim_failures: usize,
    retries: usize,
    recoveries: usize,
    /// Per bench over the prefix rounds: feasible count and measurement digest.
    feasible: Vec<usize>,
    digest: Vec<Fnv>,
    /// Rounds where the built-in and its deck clone disagreed bitwise.
    clone_mismatches: usize,
}

fn eval_bits(e: &Evaluation) -> Vec<u64> {
    match &e.measurements {
        Some(y) => y.iter().map(|v| v.to_bits()).collect(),
        None => vec![u64::MAX, e.sim_cost as u64],
    }
}

/// Runs rounds until at least `min_rounds` are done and `deadline` has
/// passed, timing one set-up after every window of rounds and, once the
/// first `min_rounds` are done (whose peak RSS the probe's buffer must
/// not reach), one probe.
fn pass(
    problems: &[SizingProblem],
    seed: u64,
    min_rounds: usize,
    deadline: Option<Instant>,
    setups: &mut Setups,
    mut host: Option<&mut HostProbe>,
) -> Result<Pass, String> {
    let mut p = Pass {
        feasible: vec![0; BENCHES.len()],
        digest: vec![Fnv::default(); BENCHES.len()],
        ..Pass::default()
    };
    // One point stream per bench; the clone draws from the built-in's.
    let mut rngs: Vec<StdRng> = (0..BENCHES.len())
        .map(|b| StdRng::seed_from_u64(mix64(seed ^ (b.max(1) as u64) << 32)))
        .collect();
    // (evaluate_batch wall, its process CPU, simulator attempts) of the
    // current window.
    let mut window = (0.0, 0.0, 0usize);
    for round in 0.. {
        if round == min_rounds {
            p.rss = peak_rss_mb();
        }
        if round > 0 && round % PREFIX == 0 {
            p.windows.push(window.0 * 1e3 / window.2 as f64);
            p.cpu_windows.push(window.1 * 1e3 / window.2 as f64);
            window = (0.0, 0.0, 0);
            setup_time(setups)?;
            if let Some(host) = host.as_mut().filter(|_| round >= min_rounds) {
                host.sample();
            }
        }
        if round >= min_rounds && deadline.is_none_or(|d| Instant::now() >= d) {
            break;
        }
        let mut first_bits: Vec<Vec<u64>> = Vec::new();
        let mut shared: Vec<Vec<f64>> = Vec::new();
        for (b, problem) in problems.iter().enumerate() {
            let points: Vec<Vec<f64>> = if b == 1 {
                shared.clone()
            } else {
                let rng = &mut rngs[b];
                (0..BATCH)
                    .map(|_| (0..problem.dim()).map(|_| rng.gen::<f64>()).collect())
                    .collect()
            };
            let requests: Vec<EvalRequest> = points
                .iter()
                .map(|u| EvalRequest::new(u.clone(), 0))
                .collect();
            let (t, c) = (Instant::now(), process_cpu_s());
            let evals = problem.evaluate_batch(&requests, usize::MAX);
            let secs = t.elapsed().as_secs_f64();
            let cpu = process_cpu_s() - c;
            p.wall += secs;
            p.cpu += cpu;
            window.0 += secs;
            window.1 += cpu;
            p.points += requests.len() as u64;
            p.truncated += (requests.len() - evals.len()) as u64;
            for e in &evals {
                p.sims += e.sim_cost;
                window.2 += e.sim_cost;
                p.retries += e.sim_cost - 1;
                p.recoveries += usize::from(e.recovered());
                p.sim_failures += usize::from(e.failure.is_some());
                if round < min_rounds {
                    p.feasible[b] += usize::from(e.feasible);
                    eval_bits(e).into_iter().for_each(|w| p.digest[b].word(w));
                }
            }
            let bits: Vec<u64> = evals.iter().flat_map(eval_bits).collect();
            match b {
                0 => {
                    shared = points;
                    first_bits = vec![bits];
                }
                1 => p.clone_mismatches += usize::from(first_bits[0] != bits),
                _ => {}
            }
        }
    }
    Ok(p)
}

fn digests(p: &Pass) -> Json {
    let mut obj = Json::obj();
    for (b, (name, _)) in BENCHES.iter().enumerate() {
        obj = obj.with(
            name,
            Json::Str(format!("{}:{}", p.feasible[b], p.digest[b].hex())),
        );
    }
    obj
}

fn same_digests(a: &Pass, b: &Pass) -> bool {
    a.feasible == b.feasible
        && a.digest
            .iter()
            .map(|d| d.hex())
            .eq(b.digest.iter().map(|d| d.hex()))
}

pub fn run(seed: u64, budget: Duration, trace: bool) -> Result<Report, String> {
    if !trace {
        // One untimed set-up pays the process's one-off costs.
        setup_time(&mut Setups::default())?;
        let mut setups = Setups::default();
        let mut host = HostProbe::default();
        let deadline = Some(Instant::now() + budget);
        let p = pass(
            &build_all()?,
            seed,
            PREFIX,
            deadline,
            &mut setups,
            Some(&mut host),
        )?;
        // One probe after the loop too, so a run with no item past the
        // prefix still has one.
        host.sample();
        // Medians over windows of rounds: the host's slow phases last
        // seconds, and a slowed window moves a median little.
        let cpu_ms_per_sim = median(&p.cpu_windows);
        let mut results = vec![
            m("sims_per_s", p.sims as f64 / p.wall, "1/s"),
            m("ms_per_sim", median(&p.windows), "ms"),
            m("raw_cpu_ms_per_sim", cpu_ms_per_sim, "ms"),
            m("points", p.points as f64, "count"),
            m("sim_failures", p.sim_failures as f64, "count"),
            m("env.retries", p.retries as f64, "count"),
            m(
                "failed_ratio",
                p.truncated as f64 / p.points as f64,
                "ratio",
            ),
        ];
        results.extend(setups.results());
        results.extend(host.results());
        return Ok(Report {
            correct: p.clone_mismatches == 0,
            attempted: p.points,
            failed: p.truncated,
            metrics: vec![
                m("setup_s", median(&setups.cpu) * host.scale(), "s"),
                m("cpu_ms_per_sim", cpu_ms_per_sim * host.scale(), "ms"),
                m("peak_rss_mb", p.rss, "MiB"),
            ],
            results,
            digests: digests(&p).with("clone_mismatches", Json::Num(p.clone_mismatches as f64)),
        });
    }

    // Traced run: the prefix untraced, then the same points traced.
    let plain = pass(
        &build_all()?,
        seed,
        PREFIX,
        None,
        &mut Setups::default(),
        None,
    )?;
    let mut problems = build_all()?;
    let timers: Vec<Arc<TimedEvaluator>> = problems.iter_mut().map(TimedEvaluator::wrap).collect();
    let traced = pass(&problems, seed, PREFIX, None, &mut Setups::default(), None)?;
    let calls: Vec<Vec<Call>> = timers.iter().map(|t| t.take_calls()).collect();
    let same = same_digests(&plain, &traced);

    let netbench_overhead_us = timed::p50_us(&calls[1], false) - timed::p50_us(&calls[0], false);

    // Layer inputs: the built-in opamp's own probe points.
    let samples = layers::samples(&problems[0], &calls[0]);
    let points: Vec<Vec<f64>> = calls[0].iter().take(24).map(|c| c.x.clone()).collect();
    let (_, layer_metrics) = layers::measure(
        &problems[0],
        &[samples],
        &TwoStageOpamp::bsim45(),
        &PvtCorner::nominal(),
        &points,
        seed,
    )?;

    let all: Vec<Call> = calls.into_iter().flatten().collect();
    let mut metrics = vec![m(
        "bench.trace_overhead_pct",
        100.0 * (traced.wall - plain.wall) / plain.wall,
        "%",
    )];
    metrics.extend(timed::eval_metrics(&all, traced.wall, THREADS));
    metrics.push(m("env.retries", traced.retries as f64, "count"));
    metrics.push(m("env.recoveries", traced.recoveries as f64, "count"));
    metrics.extend(layer_metrics);
    Ok(Report {
        correct: same && plain.clone_mismatches == 0 && traced.clone_mismatches == 0,
        attempted: plain.points + traced.points,
        failed: plain.truncated + traced.truncated,
        metrics,
        results: vec![
            m("env.netbench.overhead_us", netbench_overhead_us, "us"),
            m("env.eval.repeat_us_p50", timed::p50_us(&all, true), "us"),
            m("sim_failures", traced.sim_failures as f64, "count"),
        ],
        digests: digests(&plain)
            .with("traced_matches_untraced", Json::Bool(same))
            .with(
                "clone_mismatches",
                Json::Num((plain.clone_mismatches + traced.clone_mismatches) as f64),
            ),
    })
}
