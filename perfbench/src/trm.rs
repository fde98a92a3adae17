//! `trm_signoff`: TRM campaigns on `opamp22` over the `signoff5` corners,
//! one after another on one evaluation thread. Agent-bound: surrogate fit
//! and Monte-Carlo planning over five corner models take most of the wall
//! time, the simulator a few percent.

use crate::cpu::{process_cpu_s, HostProbe, Setups};
use crate::layers::{self, Sample};
use crate::timed::{self, Call, TimedEvaluator};
use crate::{m, median, peak_rss_mb, Fnv, Metric, Report};
use asdex_core::{
    Framework, FrameworkConfig, LedgerEntry, ProgressEvent, ProgressHandle, ProgressPhase,
    PvtStrategy,
};
use asdex_env::circuits::opamp::TwoStageOpamp;
use asdex_env::SizingProblem;
use asdex_serve::{build_problem, run_campaign, CampaignSpec, Json};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const BENCH: &str = "opamp22";
const CORNERS: &str = "signoff5";
/// Per-campaign simulation cap: a stalled seed ends as a counted
/// non-success instead of a many-second outlier. A campaign's host time
/// per simulation grows with its length, so a cap that lets a few
/// campaigns run to 1000 simulations makes a 40 s run's `ms_per_sim`
/// hang on whether the seed's window holds one of them. At 200 about
/// half the campaigns reach a feasible point within the cap and a run
/// holds some 30–40 campaigns (see the cap survey in the README).
const CAP: usize = 200;
/// Campaigns every run completes, whatever `--seconds` says: the search
/// results and digests are taken over exactly these, so they repeat on a
/// seed.
const PREFIX: u64 = 8;

fn problem() -> Result<SizingProblem, String> {
    Ok(build_problem(BENCH, CORNERS)?.with_threads(1))
}

fn spec(seed: u64) -> CampaignSpec {
    CampaignSpec {
        bench: BENCH.into(),
        agent: "trm".into(),
        seed,
        budget: CAP,
        corners: CORNERS.into(),
        ..CampaignSpec::default()
    }
}

/// What the digests and checks need from one finished campaign.
#[derive(Clone)]
struct Finished {
    seed: u64,
    wall: f64,
    /// Process CPU seconds.
    cpu: f64,
    success: bool,
    sims: usize,
    best_value: f64,
    best_point: Vec<f64>,
    retries: usize,
    recoveries: usize,
}

impl Finished {
    fn digest(&self) -> String {
        format!(
            "{}:{}:{}:{:016x}",
            self.seed,
            self.success,
            self.sims,
            self.best_value.to_bits()
        )
    }
}

/// Runs campaigns with consecutive seeds from `seed` through the
/// program's campaign entry point: at least `min` of them, then more
/// until `deadline`, timing one set-up after each and, past the first
/// `min` (whose peak RSS the probe's buffer must not reach), one probe.
/// Returns the finished campaigns, the error count and the peak RSS
/// after the first `min`.
fn untraced(
    seed: u64,
    min: u64,
    deadline: Option<Instant>,
    setups: &mut Setups,
    mut host: Option<&mut HostProbe>,
) -> Result<(Vec<Finished>, u64, f64), String> {
    let mut done = Vec::new();
    let mut errors = 0;
    let mut rss = f64::NAN;
    for k in 0.. {
        if k == min {
            rss = peak_rss_mb();
        }
        if k >= min && deadline.is_none_or(|d| Instant::now() >= d) {
            break;
        }
        let problem = problem()?;
        let (t, c) = (Instant::now(), process_cpu_s());
        let out = run_campaign(&problem, &spec(seed + k), None);
        let wall = t.elapsed().as_secs_f64();
        let cpu = process_cpu_s() - c;
        setup_time(setups)?;
        if let Some(host) = host.as_mut().filter(|_| k >= min) {
            host.sample();
        }
        match out {
            Ok(o) => done.push(Finished {
                seed: seed + k,
                wall,
                cpu,
                success: o.success,
                sims: o.simulations,
                best_value: o.best_value,
                best_point: o.best_point,
                retries: o.stats.retries,
                recoveries: o.stats.recoveries,
            }),
            Err(e) => {
                eprintln!("perfbench: campaign seed {} failed: {e}", seed + k);
                errors += 1;
            }
        }
    }
    Ok((done, errors, rss))
}

/// One campaign run through `Framework` with the evaluator decorator and
/// a progress sink attached.
struct Traced {
    result: Finished,
    ledger: Vec<LedgerEntry>,
    calls: Vec<Call>,
    events: Vec<Instant>,
    t0: Instant,
    t1: Instant,
}

fn traced(seed: u64) -> Result<Traced, String> {
    let mut problem = problem()?;
    let timed = TimedEvaluator::wrap(&mut problem);
    let events = Arc::new(Mutex::new(Vec::new()));
    let sink = {
        let events = Arc::clone(&events);
        move |e: &ProgressEvent| {
            if e.phase == ProgressPhase::Corner {
                events
                    .lock()
                    .expect("event log poisoned")
                    .push(Instant::now());
            }
        }
    };
    // The configuration `run_campaign` builds for the `trm` agent.
    let config = FrameworkConfig {
        budget: Some(CAP),
        pvt_strategy: Some(PvtStrategy::ProgressiveHardest),
        ..FrameworkConfig::default()
    };
    let mut framework =
        Framework::new(config, seed).with_progress(ProgressHandle::new(Arc::new(sink)));
    let t0 = Instant::now();
    let out = framework.search(&problem).map_err(|e| e.to_string())?;
    let t1 = Instant::now();
    let events = std::mem::take(&mut *events.lock().expect("event log poisoned"));
    Ok(Traced {
        result: Finished {
            seed,
            wall: (t1 - t0).as_secs_f64(),
            cpu: f64::NAN,
            success: out.success,
            sims: out.simulations,
            best_value: out.best_value,
            best_point: out.best_point,
            retries: out.stats.retries,
            recoveries: out.stats.recoveries,
        },
        ledger: out.ledger,
        calls: timed.take_calls(),
        events,
        t0,
        t1,
    })
}

/// Re-evaluates every feasible campaign's best point at every corner on a
/// fresh problem; all corners must pass.
fn check_feasible(results: &[Finished]) -> Result<Vec<String>, String> {
    let mut bad = Vec::new();
    for r in results.iter().filter(|r| r.success) {
        let evals = problem()?.evaluate_all_corners(&r.best_point);
        if evals.len() != 5 || !evals.iter().all(|e| e.feasible) {
            bad.push(format!(
                "seed {}: best point fails sign-off on re-evaluation",
                r.seed
            ));
        }
    }
    Ok(bad)
}

/// One timed set-up: problem build plus its first simulation (the engine
/// compile).
fn setup_time(setups: &mut Setups) -> Result<(), String> {
    setups.time(|| {
        let problem = problem()?;
        let mid = vec![0.5; problem.dim()];
        Ok(std::hint::black_box(problem.evaluate_normalized(&mid, 0)))
    })?;
    Ok(())
}

fn digests(results: &[Finished]) -> (Json, String) {
    let mut fnv = Fnv::default();
    let list: Vec<Json> = results
        .iter()
        .map(|r| {
            fnv.word(r.seed);
            fnv.word(u64::from(r.success));
            fnv.word(r.sims as u64);
            fnv.word(r.best_value.to_bits());
            Json::Str(r.digest())
        })
        .collect();
    (Json::Arr(list), fnv.hex())
}

/// Host wall per simulator call over the campaigns' own wall time.
fn ms_per_sim(all: &[Finished]) -> f64 {
    let wall: f64 = all.iter().map(|r| r.wall).sum();
    wall * 1e3 / all.iter().map(|r| r.sims).sum::<usize>() as f64
}

/// Process CPU per simulator call over the campaigns' own CPU time.
fn cpu_ms_per_sim(all: &[Finished]) -> f64 {
    let cpu: f64 = all.iter().map(|r| r.cpu).sum();
    cpu * 1e3 / all.iter().map(|r| r.sims).sum::<usize>() as f64
}

/// Search results over the prefix campaigns (they repeat exactly on a
/// seed) plus throughput over every campaign of the run.
fn results(prefix: &[Finished], all: &[Finished], errors: u64) -> Vec<Metric> {
    let feasible: Vec<&Finished> = prefix.iter().filter(|r| r.success).collect();
    let attempted = all.len() as u64 + errors;
    vec![
        m(
            "time_to_feasible_p50_s",
            median(&feasible.iter().map(|r| r.wall).collect::<Vec<_>>()),
            "s",
        ),
        m(
            "sims_to_feasible_p50",
            median(&feasible.iter().map(|r| r.sims as f64).collect::<Vec<_>>()),
            "count",
        ),
        m(
            "success_rate",
            feasible.len() as f64 / prefix.len() as f64,
            "ratio",
        ),
        m(
            "cap_hit_rate",
            prefix
                .iter()
                .filter(|r| !r.success && r.sims >= CAP)
                .count() as f64
                / prefix.len() as f64,
            "ratio",
        ),
        m("ms_per_sim", ms_per_sim(all), "ms"),
        m("raw_cpu_ms_per_sim", cpu_ms_per_sim(all), "ms"),
        m("sims_per_s", 1e3 / ms_per_sim(all), "1/s"),
        m("campaigns", all.len() as f64, "count"),
        m("failed_ratio", errors as f64 / attempted as f64, "ratio"),
    ]
}

pub fn run(seed: u64, budget: Duration, trace: bool) -> Result<Report, String> {
    if !trace {
        // One untimed set-up pays the process's one-off costs.
        setup_time(&mut Setups::default())?;
        let mut setups = Setups::default();
        let mut host = HostProbe::default();
        let deadline = Some(Instant::now() + budget);
        let (all, errors, rss) = untraced(seed, PREFIX, deadline, &mut setups, Some(&mut host))?;
        // One probe after the loop too, so a run with no item past the
        // prefix still has one.
        host.sample();
        let prefix: Vec<Finished> = all.iter().take(PREFIX as usize).cloned().collect();
        let bad = check_feasible(&all)?;
        let (list, hex) = digests(&prefix);
        let mut res = results(&prefix, &all, errors);
        res.extend(setups.results());
        res.extend(host.results());
        return Ok(Report {
            correct: bad.is_empty() && errors == 0,
            attempted: all.len() as u64 + errors,
            failed: errors,
            metrics: vec![
                m("setup_s", median(&setups.cpu) * host.scale(), "s"),
                m("cpu_ms_per_sim", cpu_ms_per_sim(&all) * host.scale(), "ms"),
                m("peak_rss_mb", rss, "MiB"),
            ],
            results: res,
            digests: Json::obj()
                .with("campaigns", list)
                .with("digest", Json::Str(hex))
                .with(
                    "check_failures",
                    Json::Arr(bad.into_iter().map(Json::Str).collect()),
                ),
        });
    }

    // Traced run: the prefix untraced, then the same campaigns traced.
    let (plain, errors, _) = untraced(seed, PREFIX, None, &mut Setups::default(), None)?;
    let runs: Vec<Traced> = (0..PREFIX)
        .map(|k| traced(seed + k))
        .collect::<Result<_, _>>()?;
    let traced_results: Vec<Finished> = runs.iter().map(|t| t.result.clone()).collect();
    let (plain_list, plain_hex) = digests(&plain);
    let (traced_list, traced_hex) = digests(&traced_results);
    let same = plain_hex == traced_hex
        && plain.iter().zip(&traced_results).all(|(a, b)| {
            a.best_point
                .iter()
                .map(|v| v.to_bits())
                .eq(b.best_point.iter().map(|v| v.to_bits()))
        });
    let bad = check_feasible(&traced_results)?;
    let plain_wall: f64 = plain.iter().map(|r| r.wall).sum();
    let traced_wall: f64 = traced_results.iter().map(|r| r.wall).sum();

    // Layer inputs: the traced campaigns' own fresh simulations.
    let reference = problem()?;
    let corners = reference.corners.corners().to_vec();
    let mut per_corner: Vec<Vec<Sample>> = vec![Vec::new(); corners.len()];
    for (idx, corner) in corners.iter().enumerate() {
        let calls = runs
            .iter()
            .flat_map(|t| t.calls.iter())
            .filter(|c| c.corner == *corner);
        per_corner[idx] = layers::samples(&reference, calls);
    }
    let points: Vec<Vec<f64>> = runs
        .iter()
        .flat_map(|t| t.calls.iter())
        .filter(|c| !c.repeat && c.corner == corners[0])
        .take(24)
        .map(|c| c.x.clone())
        .collect();
    let (cost, layer_metrics) = layers::measure(
        &reference,
        &per_corner,
        &TwoStageOpamp::bsim22(),
        &corners[0],
        &points,
        seed,
    )?;
    let mut timeline = Timeline::default();
    for t in &runs {
        timeline.add(t, &cost)?;
    }
    let accounted = (timeline.agent_s + timeline.busy_s) / timeline.wall_s;

    let calls: Vec<Call> = runs.into_iter().flat_map(|t| t.calls).collect();
    let mut metrics = vec![m(
        "bench.trace_overhead_pct",
        100.0 * (traced_wall - plain_wall) / plain_wall,
        "%",
    )];
    metrics.extend(timed::eval_metrics(&calls, traced_wall, 1));
    metrics.push(m(
        "env.retries",
        traced_results.iter().map(|r| r.retries).sum::<usize>() as f64,
        "count",
    ));
    metrics.push(m(
        "env.recoveries",
        traced_results.iter().map(|r| r.recoveries).sum::<usize>() as f64,
        "count",
    ));
    metrics.extend(layer_metrics);
    let modelled_s = timeline.modelled_ms / 1e3;
    Ok(Report {
        // Evaluator time and agent time must account for the wall time.
        // Agent time is wall minus the batch spans, so this only bounds
        // the glue inside batches; whether fit and planning explain the
        // agent time is `core.unattributed_pct`, reported, not checked.
        correct: same && bad.is_empty() && errors == 0 && (accounted - 1.0).abs() <= 0.05,
        attempted: 2 * PREFIX,
        failed: errors,
        metrics,
        results: vec![
            m("core.agent_s", timeline.agent_s, "s"),
            m("core.rounds", timeline.rounds as f64, "count"),
            m("core.restarts", timeline.restarts as f64, "count"),
            m("core.round_agent_ms_p50", median(&timeline.gaps_ms), "ms"),
            m("core.modelled_s", modelled_s, "s"),
            m(
                "core.unattributed_pct",
                100.0 * (timeline.agent_s - modelled_s) / timeline.agent_s,
                "%",
            ),
            m("env.eval.repeat_us_p50", timed::p50_us(&calls, true), "us"),
            m("bench.accounted_pct", 100.0 * accounted, "%"),
        ],
        digests: Json::obj()
            .with("untraced", plain_list)
            .with("traced", traced_list)
            .with("digest", Json::Str(plain_hex))
            .with("traced_matches_untraced", Json::Bool(same))
            .with(
                "check_failures",
                Json::Arr(bad.into_iter().map(Json::Str).collect()),
            ),
    })
}

/// Where a traced campaign's wall time went. A *batch* is a run of
/// simulator calls followed by the progress events it produced; agent
/// time is everything outside batches. A *planning round* is a ledger
/// round that simulated one point on each active corner (fit, plan,
/// simulate); its agent time is the gap before its batch.
#[derive(Default)]
struct Timeline {
    wall_s: f64,
    agent_s: f64,
    busy_s: f64,
    rounds: usize,
    restarts: usize,
    gaps_ms: Vec<f64>,
    /// Fit and planning cost the layer measurements predict for the
    /// rounds seen: per round, one fit per active corner (scaled by its
    /// training-window fill) plus one plan over the active models.
    modelled_ms: f64,
}

impl Timeline {
    fn add(&mut self, t: &Traced, cost: &layers::AgentCost) -> Result<(), String> {
        let window = cost.window;
        let (calls, events, ledger) = (&t.calls, &t.events, &t.ledger);
        if events.len() != ledger.len() {
            return Err(format!(
                "{} corner events for {} ledger entries",
                events.len(),
                ledger.len()
            ));
        }
        let mut batches: Vec<(Instant, Instant)> = Vec::new();
        let mut entry_batch = vec![0usize; ledger.len()];
        let (mut i, mut j) = (0, 0);
        while i < calls.len() {
            let start = calls[i].start;
            while i < calls.len() && (j >= events.len() || calls[i].start < events[j]) {
                i += 1;
            }
            let first = j;
            while j < events.len() && (i >= calls.len() || events[j] <= calls[i].start) {
                entry_batch[j] = batches.len();
                j += 1;
            }
            if j == first {
                return Err("simulator calls after the last progress event".into());
            }
            batches.push((start, events[j - 1]));
        }
        if j != events.len() || batches.is_empty() {
            return Err("progress events without simulator calls".into());
        }
        let secs = |a: Instant, b: Instant| (b - a).as_secs_f64();
        self.wall_s += secs(t.t0, t.t1);
        self.busy_s += calls.iter().map(|c| c.dur.as_secs_f64()).sum::<f64>();
        self.agent_s += secs(t.t0, batches[0].0)
            + batches
                .windows(2)
                .map(|w| secs(w[0].1, w[1].0))
                .sum::<f64>()
            + secs(batches[batches.len() - 1].1, t.t1);

        let mut seen = [0usize; 5];
        let mut episodes = 0usize;
        let mut e = 0;
        while e < ledger.len() {
            let round = ledger[e].round;
            let f = e + ledger[e..].iter().take_while(|x| x.round == round).count();
            let mut corners: Vec<usize> = ledger[e..f].iter().map(|x| x.corner).collect();
            corners.sort_unstable();
            corners.dedup();
            // Round 0 is the corner-hardness probe.
            if round > 0 && !ledger[e].verification {
                if corners.len() == f - e {
                    let b = entry_batch[e];
                    let prev = if b == 0 { t.t0 } else { batches[b - 1].1 };
                    self.rounds += 1;
                    self.gaps_ms.push(secs(prev, batches[b].0) * 1e3);
                    let fit: f64 = corners
                        .iter()
                        .map(|&c| cost.fit_ms * seen[c].min(window) as f64 / window as f64)
                        .sum();
                    self.modelled_ms += fit + cost.propose_multi_ms[corners.len().clamp(1, 5) - 1];
                } else {
                    episodes += 1;
                }
            }
            for x in &ledger[e..f] {
                seen[x.corner] += 1;
            }
            e = f;
        }
        self.restarts += episodes.saturating_sub(1);
        Ok(())
    }
}
