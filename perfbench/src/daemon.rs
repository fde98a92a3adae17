//! `daemon_mix`: an in-process `Server` (journal directory on local disk,
//! thread budget 2, one campaign running at a time) driven over HTTP by a
//! closed loop of two clients. Each client submits a short TRM `opamp45`
//! campaign and polls it to a terminal status. Rounds alternate: in a
//! *write* round the clients submit distinct seeds (fresh simulations,
//! journal writes); in a *dedup* round both submit one spec at the same
//! moment, and the second campaign served reads every evaluation from
//! the dedup store.

use crate::cpu::{process_cpu_s, HostProbe, Setups};
use crate::layers;
use crate::timed::{self, Call, TimedEvaluator};
use crate::{m, median, peak_rss_mb, quantile, Fnv, Metric, Report, ScratchDir};
use asdex_env::circuits::opamp::TwoStageOpamp;
use asdex_env::PvtCorner;
use asdex_rng::mix64;
use asdex_serve::logging::{set_level, LogLevel};
use asdex_serve::{
    build_problem, outcome_json, run_campaign, CampaignSpec, Client, DrainHandle, Json,
    SchedulerConfig, Server, ServerConfig,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const BENCH: &str = "opamp45";
/// Simulation budget per campaign. Most campaigns are feasible after
/// 17–33 simulations; the budget ends the long tail (about one campaign
/// in ten), whose host time per simulation grows with its length, so a
/// run holds more, more alike rounds and its median moves less with
/// which campaigns a seed draws.
const BUDGET: usize = 40;
const CLIENTS: usize = 2;
const THREADS: usize = 2;
/// Campaigns the daemon runs at once. With one, a round's two campaigns
/// run one after the other, so the workload keeps about one of the two
/// vCPUs busy: with two at once, a busy loop on one vCPU (as a neighbour
/// on a shared host takes it) slowed the median campaign by 29%, while
/// one at a time ran at full speed beside it.
const MAX_ACTIVE: usize = 1;
/// Rounds every run completes: digests and the success rate cover these.
const PREFIX: usize = 16;
/// Untimed rounds run on a fresh daemon before the timed ones: a fresh
/// daemon's first rounds ran 15–50% slower per simulation than later
/// ones. They draw their seeds from rounds far past any timed round.
const WARMUP: usize = 8;
const WARMUP_FIRST: usize = 1 << 20;
/// Rounds between two timed boots of a second daemon.
const BOOT_EVERY: usize = 8;
/// Completed prefix campaigns re-run in process and compared.
const SAMPLE_CHECKS: usize = 3;
const POLL: Duration = Duration::from_millis(5);
const CAMPAIGN_TIMEOUT: Duration = Duration::from_secs(60);

fn spec(seed: u64) -> CampaignSpec {
    CampaignSpec {
        bench: BENCH.into(),
        agent: "trm".into(),
        seed,
        budget: BUDGET,
        corners: "nominal".into(),
        ..CampaignSpec::default()
    }
}

/// Odd rounds are dedup rounds: both clients share one seed. Seeds stay
/// below 2^52 so they survive the JSON number round trip exactly.
fn campaign_seed(seed: u64, round: usize, client: usize) -> u64 {
    let lane = if round % 2 == 1 { 0 } else { client as u64 };
    mix64(mix64(seed) ^ ((round as u64) << 8) ^ lane) >> 12
}

struct Daemon {
    addr: String,
    drain: DrainHandle,
    thread: JoinHandle<std::io::Result<()>>,
    _dir: ScratchDir,
}

/// Boots a daemon on a fresh journal directory and waits for the first
/// `/readyz` 200.
fn boot(tag: &str) -> Result<Daemon, String> {
    let dir = ScratchDir::new(tag)?;
    let cfg = ServerConfig {
        addr: "127.0.0.1:0".into(),
        scheduler: SchedulerConfig {
            thread_budget: THREADS,
            max_active: MAX_ACTIVE,
            journal_dir: dir.0.clone(),
            ..SchedulerConfig::default()
        },
        ..ServerConfig::default()
    };
    let t = Instant::now();
    let drain = DrainHandle::new();
    let server = Server::bind(cfg, drain.clone()).map_err(|e| format!("daemon bind: {e}"))?;
    let addr = server.local_addr().map_err(|e| e.to_string())?.to_string();
    let thread = std::thread::spawn(move || server.run());
    let daemon = Daemon {
        addr,
        drain,
        thread,
        _dir: dir,
    };
    let client = Client::new(daemon.addr.clone());
    while !matches!(client.readyz(), Ok(true)) {
        if t.elapsed() > Duration::from_secs(30) {
            stop(daemon)?;
            return Err("daemon never became ready".into());
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    Ok(daemon)
}

/// Times one boot of a daemon and stops it again.
fn boot_time(setups: &mut Setups) -> Result<(), String> {
    stop(setups.time(|| boot("daemon-boot"))?)
}

fn stop(d: Daemon) -> Result<(), String> {
    d.drain.request_drain();
    d.thread
        .join()
        .map_err(|_| "daemon thread panicked".to_string())?
        .map_err(|e| format!("daemon: {e}"))
}

/// One finished client operation.
struct Done {
    round: usize,
    client: usize,
    seed: u64,
    latency: f64,
    completed: bool,
    success: bool,
    sims: f64,
    outcome: String,
}

/// The closed loop's record of one pass.
#[derive(Default)]
struct Drive {
    done: Vec<Done>,
    failures: u64,
    post_ms: Vec<f64>,
    get_ms: Vec<f64>,
    wall: f64,
    /// `(round, wall seconds, process CPU seconds)` of every round run,
    /// barrier to barrier.
    rounds: Vec<(usize, f64, f64)>,
    /// Timed boots of a second daemon between rounds.
    boots: Setups,
    host: HostProbe,
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Runs rounds from `first` on until at least `min_rounds` are done and
/// `deadline` has passed. The two clients meet at a barrier before every
/// round, so a dedup round's submissions land together; there, every
/// `boot_every` rounds (never when 0), one of them times the boot of a
/// second daemon and, past the prefix rounds (whose peak RSS the probe's
/// buffer must not reach), one probe, while the serving daemon is idle,
/// outside the rounds' clocks.
fn drive(
    addr: &str,
    seed: u64,
    tag: &str,
    first: usize,
    min_rounds: usize,
    deadline: Option<Instant>,
    boot_every: usize,
) -> Drive {
    let barrier = Barrier::new(CLIENTS);
    let stop = AtomicBool::new(false);
    let shared = Mutex::new(Drive::default());
    let starts = Mutex::new(Vec::new());
    let boots = Mutex::new(Setups::default());
    let host = Mutex::new(HostProbe::default());
    let start = Instant::now();
    std::thread::scope(|s| {
        for k in 0..CLIENTS {
            let (barrier, stop, shared, starts, boots, host) =
                (&barrier, &stop, &shared, &starts, &boots, &host);
            s.spawn(move || {
                let client = Client::new(addr.to_string());
                let mut mine = Drive::default();
                for round in first.. {
                    if barrier.wait().is_leader() {
                        if boot_every > 0 && (round - first) % boot_every == boot_every - 1 {
                            let mut boots = boots.lock().expect("boot log poisoned");
                            if let Err(e) = boot_time(&mut boots) {
                                eprintln!("perfbench: timed boot: {e}");
                                mine.failures += 1;
                            }
                            if round >= PREFIX {
                                host.lock().expect("probe log poisoned").sample();
                            }
                        }
                        starts.lock().expect("round starts poisoned").push((
                            round,
                            Instant::now(),
                            process_cpu_s(),
                        ));
                        let over = round - first >= min_rounds
                            && deadline.is_none_or(|d| Instant::now() >= d);
                        stop.store(over, Ordering::SeqCst);
                    }
                    barrier.wait();
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let campaign = campaign_seed(seed, round, k);
                    let id = format!("{tag}-r{round}-c{k}");
                    let t = Instant::now();
                    let submitted = client.submit(Some(&id), &spec(campaign));
                    mine.post_ms.push(ms_since(t));
                    if let Err(e) = submitted {
                        eprintln!("perfbench: submit {id}: {e}");
                        mine.failures += 1;
                        continue;
                    }
                    loop {
                        let tg = Instant::now();
                        let doc = client.get_campaign(&id);
                        mine.get_ms.push(ms_since(tg));
                        let doc = match doc {
                            Ok(d) => d,
                            Err(e) => {
                                eprintln!("perfbench: poll {id}: {e}");
                                mine.failures += 1;
                                break;
                            }
                        };
                        let status = doc.get("status").and_then(Json::as_str).unwrap_or("");
                        if matches!(status, "completed" | "interrupted" | "failed") {
                            let outcome = doc.get("outcome");
                            let field = |k: &str| outcome.and_then(|o| o.get(k));
                            mine.done.push(Done {
                                round,
                                client: k,
                                seed: campaign,
                                latency: t.elapsed().as_secs_f64(),
                                completed: status == "completed" && outcome.is_some(),
                                success: field("success").and_then(Json::as_bool).unwrap_or(false),
                                sims: field("simulations").and_then(Json::as_f64).unwrap_or(0.0),
                                outcome: outcome.map(Json::dump).unwrap_or_default(),
                            });
                            break;
                        }
                        if t.elapsed() > CAMPAIGN_TIMEOUT {
                            eprintln!("perfbench: campaign {id} timed out");
                            mine.failures += 1;
                            break;
                        }
                        std::thread::sleep(POLL);
                    }
                }
                let mut all = shared.lock().expect("drive record poisoned");
                all.done.append(&mut mine.done);
                all.failures += mine.failures;
                all.post_ms.append(&mut mine.post_ms);
                all.get_ms.append(&mut mine.get_ms);
            });
        }
    });
    let mut d = shared.into_inner().expect("drive record poisoned");
    d.wall = start.elapsed().as_secs_f64();
    // The last start is the check that stopped the loop: it ends the
    // last round run.
    let starts = starts.into_inner().expect("round starts poisoned");
    d.rounds = starts
        .windows(2)
        .map(|w| (w[0].0, (w[1].1 - w[0].1).as_secs_f64(), w[1].2 - w[0].2))
        .collect();
    d.boots = boots.into_inner().expect("boot log poisoned");
    d.host = host.into_inner().expect("probe log poisoned");
    d.done.sort_by_key(|x| (x.round, x.client));
    d
}

/// The in-process reference runs of the sampled campaigns.
struct Reference {
    /// Output check failures.
    bad: Vec<String>,
    /// The reference `outcome_json` of each sampled campaign.
    outcomes: Vec<String>,
    /// The decorator's call log (empty when not timed).
    calls: Vec<Call>,
    /// Wall time of the reference campaigns, s.
    wall: f64,
}

/// Output checks: every campaign completed, dedup pairs are identical,
/// and a seed-chosen sample equals an in-process `run_campaign` of the
/// same spec, run with the evaluator decorator when `timed`.
fn check(d: &Drive, seed: u64, timed: bool) -> Result<Reference, String> {
    let mut bad: Vec<String> = d
        .done
        .iter()
        .filter(|x| !x.completed)
        .map(|x| format!("round {} client {}: not completed", x.round, x.client))
        .collect();
    for pair in d
        .done
        .chunks(CLIENTS)
        .filter(|p| p.len() == 2 && p[0].round % 2 == 1)
    {
        if pair[0].round == pair[1].round && pair[0].outcome != pair[1].outcome {
            bad.push(format!(
                "round {}: duplicate submissions diverged",
                pair[0].round
            ));
        }
    }
    let prefix: Vec<&Done> = d
        .done
        .iter()
        .filter(|x| x.round < PREFIX && x.completed)
        .collect();
    let mut outcomes = Vec::new();
    let mut calls = Vec::new();
    let mut wall = 0.0;
    for j in 0..SAMPLE_CHECKS.min(prefix.len()) {
        let pick = prefix[(mix64(seed ^ (j as u64 + 1)) % prefix.len() as u64) as usize];
        let mut problem = build_problem(BENCH, "nominal")?.with_threads(1);
        let timer = timed.then(|| TimedEvaluator::wrap(&mut problem));
        let t = Instant::now();
        let reference = run_campaign(&problem, &spec(pick.seed), None)?;
        wall += t.elapsed().as_secs_f64();
        if let Some(timer) = timer {
            calls.extend(timer.take_calls());
        }
        let outcome = outcome_json(&reference).dump();
        if outcome != pick.outcome {
            bad.push(format!(
                "round {} client {}: daemon outcome differs from run_campaign",
                pick.round, pick.client
            ));
        }
        outcomes.push(outcome);
    }
    Ok(Reference {
        bad,
        outcomes,
        calls,
        wall,
    })
}

fn outcome_digest(d: &Drive) -> String {
    let mut fnv = Fnv::default();
    for x in d.done.iter().filter(|x| x.round < PREFIX) {
        fnv.word(x.seed);
        x.outcome.bytes().for_each(|b| fnv.word(u64::from(b)));
    }
    fnv.hex()
}

/// `(name, value)` of the daemon's `/metrics` families the run reads.
fn scrape(addr: &str) -> Result<Vec<(String, f64)>, String> {
    let text = Client::new(addr.to_string())
        .metrics()
        .map_err(|e| format!("/metrics: {e}"))?;
    Ok(text
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            l.rsplit_once(' ')
                .and_then(|(k, v)| v.parse().ok().map(|v| (k.to_string(), v)))
        })
        .collect())
}

fn delta(before: &[(String, f64)], after: &[(String, f64)], prefix: &str) -> f64 {
    let sum = |s: &[(String, f64)]| {
        s.iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, v)| v)
            .sum::<f64>()
    };
    sum(after) - sum(before)
}

fn serve_metrics(d: &Drive, before: &[(String, f64)], after: &[(String, f64)]) -> Vec<Metric> {
    let hits = delta(before, after, "asdex_dedup_events_total{event=\"hit\"}");
    let misses = delta(before, after, "asdex_dedup_events_total{event=\"miss\"}");
    vec![
        m("serve.http.post_ms_p50", median(&d.post_ms), "ms"),
        m("serve.http.post_ms_p99", quantile(&d.post_ms, 0.99), "ms"),
        m("serve.http.get_ms_p50", median(&d.get_ms), "ms"),
        m("serve.http.get_ms_p99", quantile(&d.get_ms, 0.99), "ms"),
        m("serve.dedup.hits", hits, "count"),
        m("serve.dedup.misses", misses, "count"),
        m("serve.dedup.hit_ratio", hits / (hits + misses), "ratio"),
        m(
            "serve.sims",
            delta(before, after, "asdex_eval_sims_total"),
            "count",
        ),
        m(
            "serve.shed",
            delta(before, after, "asdex_requests_shed_total"),
            "count",
        ),
    ]
}

/// Time per simulation served, over pairs of a write round and the dedup
/// round after it: the median over pairs whose campaigns all completed
/// of the pair's wall time (`cpu` false) or process CPU time (`cpu` true)
/// over its campaigns' simulations. A round runs barrier to barrier:
/// both submissions, the two campaigns served one after the other, both
/// seen terminal. Write rounds cost more per simulation than dedup
/// rounds, so a median over single rounds falls between two clusters; a
/// pair holds one of each. A campaign's own latency would count its wait
/// behind the other client's campaign.
fn ms_per_sim(d: &Drive, cpu: bool) -> f64 {
    let round = |r: usize| -> Option<(f64, f64)> {
        let &(_, wall, cpu_s) = d.rounds.iter().find(|x| x.0 == r)?;
        let camps: Vec<&Done> = d.done.iter().filter(|x| x.round == r).collect();
        (camps.len() == CLIENTS && camps.iter().all(|x| x.completed)).then(|| {
            let secs = if cpu { cpu_s } else { wall };
            (secs, camps.iter().map(|x| x.sims).sum::<f64>())
        })
    };
    let per_pair: Vec<f64> = d
        .rounds
        .iter()
        .filter(|x| x.0 % 2 == 0)
        .filter_map(|x| {
            let (a, b) = (round(x.0)?, round(x.0 + 1)?);
            Some((a.0 + b.0) * 1e3 / (a.1 + b.1))
        })
        .collect();
    median(&per_pair)
}

fn results(d: &Drive) -> Vec<Metric> {
    let lat: Vec<f64> = d
        .done
        .iter()
        .filter(|x| x.completed)
        .map(|x| x.latency)
        .collect();
    let prefix: Vec<&Done> = d.done.iter().filter(|x| x.round < PREFIX).collect();
    let attempted = d.done.len() as f64 + d.failures as f64;
    let not_completed = d.done.iter().filter(|x| !x.completed).count() as f64;
    let sims: f64 = d.done.iter().map(|x| x.sims).sum();
    vec![
        m("campaigns_per_s", lat.len() as f64 / d.wall, "1/s"),
        m("campaign_latency_p50_s", median(&lat), "s"),
        m("campaign_latency_p90_s", quantile(&lat, 0.9), "s"),
        m("campaigns", lat.len() as f64, "count"),
        m(
            "success_rate",
            prefix.iter().filter(|x| x.success).count() as f64 / prefix.len() as f64,
            "ratio",
        ),
        m("ms_per_sim", ms_per_sim(d, false), "ms"),
        m("raw_cpu_ms_per_sim", ms_per_sim(d, true), "ms"),
        m("run_ms_per_sim", d.wall * 1e3 / sims, "ms"),
        m(
            "failed_ratio",
            (d.failures as f64 + not_completed) / attempted,
            "ratio",
        ),
    ]
}

pub fn run(seed: u64, budget: Duration, trace: bool) -> Result<Report, String> {
    set_level(LogLevel::Quiet);
    if !trace {
        // One untimed boot pays the process's one-off costs; the timed
        // boots come between the measured rounds.
        boot_time(&mut Setups::default())?;
        let daemon = boot("daemon")?;
        let warm = drive(&daemon.addr, seed, "warm", WARMUP_FIRST, WARMUP, None, 0);
        if warm.failures > 0 || warm.done.iter().any(|x| !x.completed) {
            stop(daemon)?;
            return Err("warm-up campaigns did not complete".into());
        }
        let start = Instant::now();
        let before = scrape(&daemon.addr)?;
        let prefix = drive(&daemon.addr, seed, "w", 0, PREFIX, None, BOOT_EVERY);
        let rss = peak_rss_mb();
        let rest = drive(
            &daemon.addr,
            seed,
            "w",
            PREFIX,
            0,
            Some(start + budget),
            BOOT_EVERY,
        );
        let after = scrape(&daemon.addr)?;
        stop(daemon)?;
        let mut d = merge(prefix, rest);
        // One probe after the loop too, so a run with no item past the
        // prefix still has one.
        d.host.sample();
        let bad = check(&d, seed, false)?.bad;
        let mut res = results(&d);
        res.extend(serve_metrics(&d, &before, &after));
        res.extend(d.boots.results());
        res.extend(d.host.results());
        return Ok(Report {
            correct: bad.is_empty() && d.failures == 0,
            attempted: d.done.len() as u64 + d.failures,
            failed: d.failures + d.done.iter().filter(|x| !x.completed).count() as u64,
            metrics: vec![
                m("setup_s", median(&d.boots.cpu) * d.host.scale(), "s"),
                m(
                    "cpu_ms_per_sim",
                    ms_per_sim(&d, true) * d.host.scale(),
                    "ms",
                ),
                m("peak_rss_mb", rss, "MiB"),
            ],
            results: res,
            digests: Json::obj()
                .with("outcomes", Json::Str(outcome_digest(&d)))
                .with(
                    "check_failures",
                    Json::Arr(bad.into_iter().map(Json::Str).collect()),
                ),
        });
    }

    // Traced run. The daemon's own evaluations cannot be decorated from
    // outside, so the prefix runs once over HTTP (serve.* metrics, output
    // checks) and the evaluator and layer figures come from the sampled
    // campaigns re-run in process, once plain and once decorated.
    let daemon = boot("daemon")?;
    let before = scrape(&daemon.addr)?;
    let d = drive(&daemon.addr, seed, "w", 0, PREFIX, None, 0);
    let after = scrape(&daemon.addr)?;
    stop(daemon)?;
    let plain = check(&d, seed, false)?;
    let traced = check(&d, seed, true)?;
    let same = plain.outcomes == traced.outcomes;
    let mut bad = plain.bad;
    bad.extend(traced.bad);

    // Layer inputs: the reference campaigns' own simulations.
    let reference = build_problem(BENCH, "nominal")?;
    let samples = layers::samples(&reference, &traced.calls);
    let points: Vec<Vec<f64>> = traced
        .calls
        .iter()
        .filter(|c| !c.repeat)
        .take(24)
        .map(|c| c.x.clone())
        .collect();
    let (_, layer_metrics) = layers::measure(
        &reference,
        &[samples],
        &TwoStageOpamp::bsim45(),
        &PvtCorner::nominal(),
        &points,
        seed,
    )?;

    let mut metrics = vec![m(
        "bench.trace_overhead_pct",
        100.0 * (traced.wall - plain.wall) / plain.wall,
        "%",
    )];
    metrics.extend(timed::eval_metrics(&traced.calls, traced.wall, 1));
    metrics.push(m(
        "env.retries",
        delta(&before, &after, "asdex_eval_retries_total"),
        "count",
    ));
    metrics.push(m(
        "env.recoveries",
        delta(&before, &after, "asdex_eval_recoveries_total"),
        "count",
    ));
    metrics.extend(layer_metrics);
    Ok(Report {
        correct: same && bad.is_empty() && d.failures == 0,
        attempted: d.done.len() as u64 + d.failures,
        failed: d.failures + d.done.iter().filter(|x| !x.completed).count() as u64,
        metrics,
        results: serve_metrics(&d, &before, &after),
        digests: Json::obj()
            .with("outcomes", Json::Str(outcome_digest(&d)))
            .with("traced_matches_untraced", Json::Bool(same))
            .with(
                "check_failures",
                Json::Arr(bad.into_iter().map(Json::Str).collect()),
            ),
    })
}

/// Appends a follow-on pass to the prefix pass.
fn merge(mut a: Drive, b: Drive) -> Drive {
    a.done.extend(b.done);
    a.failures += b.failures;
    a.post_ms.extend(b.post_ms);
    a.get_ms.extend(b.get_ms);
    a.wall += b.wall;
    a.rounds.extend(b.rounds);
    a.boots.extend(b.boots);
    a.host.extend(b.host);
    a
}
