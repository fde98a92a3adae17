//! Per-layer measurements by direct calls into each crate's public
//! functions, on inputs taken from the workload that is being traced.

use crate::timed::Call;
use crate::{m, median, Metric, ScratchDir};
use asdex_core::{
    ExplorerConfig, Framework, FrameworkConfig, McPlanner, SpiceApproximator, TrustRegionConfig,
};
use asdex_env::circuits::opamp::TwoStageOpamp;
use asdex_env::{Evaluation, Journal, JournalMeta, PvtCorner, SizingProblem};
use asdex_linalg::{Lu, Matrix};
use asdex_nn::{mse_output_grad, Activation, Mlp};
use asdex_rng::rngs::StdRng;
use asdex_rng::{Rng, SeedableRng};
use asdex_spice::analysis::{ac_analysis_with_op_in, Engine, OpOptions, SolverWorkspace, Sweep};
use asdex_spice::measure::frequency_response;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// One simulated sample: normalized point and its measurements.
pub type Sample = (Vec<f64>, Vec<f64>);

fn us_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// Median per-call time, µs, of `f` over `reps` timed blocks of `calls`
/// calls each.
fn per_call_us(reps: usize, calls: usize, mut f: impl FnMut(usize)) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            for k in 0..calls {
                f(k);
            }
            us_since(t) / calls as f64
        })
        .collect();
    median(&samples)
}

/// Every universal layer measurement on one workload's inputs: agent
/// (`core.*`, `nn.*`) on `per_corner`, the simulator chain on `points`
/// of `amp` at `corner`, and the journal fed up to 200 of the samples.
pub fn measure(
    problem: &SizingProblem,
    per_corner: &[Vec<Sample>],
    amp: &TwoStageOpamp,
    corner: &PvtCorner,
    points: &[Vec<f64>],
    seed: u64,
) -> Result<(AgentCost, Vec<Metric>), String> {
    let cfg = Framework::new(FrameworkConfig::default(), seed).derive_explorer_config(problem);
    let (cost, mut metrics) = agent(problem, &cfg, per_corner, seed);
    metrics.extend(spice(amp, corner, points)?);
    let scratch = ScratchDir::new("journal")?;
    let samples: Vec<Sample> = per_corner.iter().flatten().take(200).cloned().collect();
    metrics.extend(journal(&scratch.0, &evaluations(problem, &samples))?);
    Ok((cost, metrics))
}

/// Fresh, successful calls as surrogate training samples.
pub fn samples<'a>(
    problem: &SizingProblem,
    calls: impl IntoIterator<Item = &'a Call>,
) -> Vec<Sample> {
    calls
        .into_iter()
        .filter(|c| !c.repeat)
        .filter_map(|c| {
            c.meas
                .as_ref()
                .map(|y| (normalize(problem, &c.x), y.clone()))
        })
        .collect()
}

/// Maps a physical point back onto normalized grid coordinates.
fn normalize(problem: &SizingProblem, x: &[f64]) -> Vec<f64> {
    problem
        .space
        .params()
        .iter()
        .zip(x)
        .map(|(p, &v)| {
            let i = p.grid.partition_point(|&g| g < v).min(p.grid.len() - 1);
            let i = if i > 0 && (v - p.grid[i - 1]).abs() <= (p.grid[i] - v).abs() {
                i - 1
            } else {
                i
            };
            p.normalized_of_index(i)
        })
        .collect()
}

/// The agent's cost model: surrogate fit and Monte-Carlo planning.
pub struct AgentCost {
    /// The training window the explorer uses.
    pub window: usize,
    /// `SpiceApproximator::fit` over a full training window, ms.
    pub fit_ms: f64,
    /// `McPlanner::propose_multi` with `k + 1` corner models, ms.
    pub propose_multi_ms: [f64; 5],
}

/// `core.*` and `nn.*`: fit, plan and the MLP passes with the explorer
/// configuration `Framework::derive_explorer_config` gives `problem`.
/// `per_corner` holds the workload's own samples, one list per corner;
/// corners beyond the lists reuse them cyclically, so the planner always
/// scores with five models.
fn agent(
    problem: &SizingProblem,
    cfg: &ExplorerConfig,
    per_corner: &[Vec<Sample>],
    seed: u64,
) -> (AgentCost, Vec<Metric>) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x1a7e_5eed);
    let lists: Vec<&Vec<Sample>> = per_corner.iter().filter(|l| !l.is_empty()).collect();
    assert!(
        !lists.is_empty(),
        "layer inputs need at least one simulated sample"
    );
    let (n_in, n_out) = (lists[0][0].0.len(), lists[0][0].1.len());
    let models: Vec<SpiceApproximator> = (0..5)
        .map(|c| {
            let mut model = SpiceApproximator::new(n_in, n_out, cfg.hidden, cfg.lr, &mut rng);
            model.set_window(cfg.train_window);
            let list = lists[c % lists.len()];
            for (u, y) in &list[list.len().saturating_sub(cfg.train_window)..] {
                model.push(u.clone(), y.clone());
            }
            model.fit(cfg.train_epochs);
            model
        })
        .collect();

    // Fit on the fullest window: the steady-state cost of one round.
    let fullest = lists
        .iter()
        .enumerate()
        .max_by_key(|(_, l)| l.len())
        .map_or(0, |(i, _)| i);
    let fit_ms = median(
        &(0..7)
            .map(|_| {
                let mut model = models[fullest % 5].clone();
                let t = Instant::now();
                black_box(model.fit(cfg.train_epochs));
                us_since(t) / 1e3
            })
            .collect::<Vec<_>>(),
    );

    let planner = McPlanner::new(cfg.mc_samples);
    let radius = TrustRegionConfig::default().initial_radius;
    let center = lists[fullest]
        .last()
        .map(|(u, _)| u.clone())
        .expect("non-empty list");
    let time_plan = |k: usize, rng: &mut StdRng| -> f64 {
        let refs: Vec<&SpiceApproximator> = models[..k].iter().collect();
        median(
            &(0..7)
                .map(|_| {
                    let t = Instant::now();
                    if k == 0 {
                        black_box(planner.propose(
                            &problem.space,
                            &center,
                            radius,
                            &models[0],
                            &problem.value_fn,
                            &problem.specs,
                            rng,
                        ));
                    } else {
                        black_box(planner.propose_multi(
                            &problem.space,
                            &center,
                            radius,
                            &refs,
                            &problem.value_fn,
                            &problem.specs,
                            rng,
                        ));
                    }
                    us_since(t) / 1e3
                })
                .collect::<Vec<_>>(),
        )
    };
    let propose_ms = time_plan(0, &mut rng);
    let mut propose_multi_ms = [0.0; 5];
    for (k, slot) in propose_multi_ms.iter_mut().enumerate() {
        *slot = time_plan(k + 1, &mut rng);
    }

    // The MLP at the approximator's layer sizes, on the workload's inputs.
    let net = Mlp::new(
        &[n_in, cfg.hidden, cfg.hidden, n_out],
        Activation::Tanh,
        &mut rng,
    );
    let inputs: Vec<&Sample> = lists.iter().flat_map(|l| l.iter()).take(256).collect();
    let targets: Vec<Vec<f64>> = inputs.iter().map(|_| vec![0.5; n_out]).collect();
    let forward_us = per_call_us(9, 2000, |k| {
        black_box(net.forward(&inputs[k % inputs.len()].0));
    });
    let backward_us = per_call_us(9, 1000, |k| {
        let trace = net.forward_trace(&inputs[k % inputs.len()].0);
        let grad = mse_output_grad(trace.output(), &targets[k % targets.len()]);
        black_box(net.backward(&trace, &grad));
    });

    let cost = AgentCost {
        window: cfg.train_window,
        fit_ms,
        propose_multi_ms,
    };
    let metrics = vec![
        m("core.fit_ms", fit_ms, "ms"),
        m("core.propose_ms", propose_ms, "ms"),
        m("core.propose_multi_ms", propose_multi_ms[4], "ms"),
        m("nn.forward_us", forward_us, "us"),
        m("nn.backward_us", backward_us, "us"),
    ];
    (cost, metrics)
}

/// `spice.*` and `linalg.lu_us`: the simulator chain the built-in opamp
/// evaluator runs, stage by stage, on the workload's physical points.
fn spice(
    amp: &TwoStageOpamp,
    corner: &PvtCorner,
    points: &[Vec<f64>],
) -> Result<Vec<Metric>, String> {
    let circuits = points
        .iter()
        .map(|x| amp.netlist(x, corner))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    if circuits.len() < 2 {
        return Err("spice layer needs at least two points".into());
    }
    let out = circuits[0]
        .find_node("out")
        .ok_or("opamp netlist has no out node")?;
    let sweep = Sweep::Decade {
        fstart: 10.0,
        fstop: 10e9,
        points_per_decade: 10,
    };
    let mut ws = SolverWorkspace::new();
    let (mut compile, mut restamp, mut op_t, mut iters, mut ac_t, mut meas_t) =
        (vec![], vec![], vec![], vec![], vec![], vec![]);
    for _ in 0..3 {
        for pair in circuits.windows(2) {
            let t = Instant::now();
            let mut engine = Engine::compile(&pair[0]).map_err(|e| e.to_string())?;
            compile.push(us_since(t));
            let t = Instant::now();
            engine.restamp(&pair[1]).map_err(|e| e.to_string())?;
            restamp.push(us_since(t));
            let t = Instant::now();
            let Ok(op) = engine.operating_point_with(&OpOptions::default(), None, &mut ws) else {
                continue; // a non-converging point: the retry ladder's business
            };
            op_t.push(us_since(t));
            iters.push(op.iterations as f64);
            let t = Instant::now();
            let Ok(ac) = ac_analysis_with_op_in(&engine, op, sweep, &mut ws) else {
                continue;
            };
            ac_t.push(us_since(t));
            let t = Instant::now();
            black_box(frequency_response(&ac, out));
            meas_t.push(us_since(t));
        }
    }

    // Dense LU at the opamp's MNA dimension, on a diagonally dominant
    // matrix drawn from the points' seed-derived values.
    let dim = Engine::compile(&circuits[0])
        .map_err(|e| e.to_string())?
        .dim();
    let mut rng = StdRng::seed_from_u64(points[0][0].to_bits());
    let mut a = Matrix::zeros(dim, dim);
    for i in 0..dim {
        for j in 0..dim {
            a[(i, j)] = rng.gen::<f64>() - 0.5 + if i == j { dim as f64 } else { 0.0 };
        }
    }
    let b: Vec<f64> = (0..dim).map(|i| i as f64 + 1.0).collect();
    let lu: Vec<f64> = (0..9)
        .map(|_| {
            let copies: Vec<Matrix> = (0..500).map(|_| a.clone()).collect();
            let t = Instant::now();
            for c in copies {
                let lu = Lu::factor(c).expect("diagonally dominant matrix factors");
                black_box(lu.solve(&b).expect("factored matrix solves"));
            }
            us_since(t) / 500.0
        })
        .collect();

    Ok(vec![
        m("spice.compile_us", median(&compile), "us"),
        m("spice.restamp_us", median(&restamp), "us"),
        m("spice.op_us", median(&op_t), "us"),
        m("spice.newton_iters_p50", median(&iters), "count"),
        m("spice.ac_us", median(&ac_t), "us"),
        m("spice.measure_us", median(&meas_t), "us"),
        m("linalg.lu_us", median(&lu), "us"),
    ])
}

/// `env.journal.*`: `Journal::create` / `record` / `checkpoint` in `dir`,
/// fed the workload's evaluations. Appends and fsyncs are timed apart:
/// the journal is created with no automatic checkpoint and synced
/// explicitly every 25 records, the campaigns' default cadence.
fn journal(dir: &Path, evals: &[(Vec<f64>, Evaluation)]) -> Result<Vec<Metric>, String> {
    let path = dir.join("layer.journal");
    let mut journal = Journal::create(
        &path,
        JournalMeta::new().with("bench", "perfbench"),
        usize::MAX,
    )
    .map_err(|e| e.to_string())?;
    let (mut record, mut sync) = (vec![], vec![]);
    for (k, (u, eval)) in evals.iter().enumerate() {
        let t = Instant::now();
        journal.record(u, 0, 4, eval).map_err(|e| e.to_string())?;
        record.push(us_since(t));
        if (k + 1) % 25 == 0 {
            let t = Instant::now();
            journal.checkpoint().map_err(|e| e.to_string())?;
            sync.push(us_since(t) / 1e3);
        }
    }
    drop(journal);
    let _ = std::fs::remove_file(&path);
    Ok(vec![
        m("env.journal.record_us_p50", median(&record), "us"),
        m("env.journal.checkpoint_ms_p50", median(&sync), "ms"),
    ])
}

/// Builds journal-ready evaluations from simulated samples.
fn evaluations(problem: &SizingProblem, samples: &[Sample]) -> Vec<(Vec<f64>, Evaluation)> {
    samples
        .iter()
        .map(|(u, y)| {
            let value = problem.value_fn.value(y, &problem.specs);
            let eval = Evaluation {
                x_norm: u.clone(),
                measurements: Some(y.clone()),
                value,
                feasible: value == 0.0,
                failure: None,
                sim_cost: 1,
            };
            (u.clone(), eval)
        })
        .collect()
}
