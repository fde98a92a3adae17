//! Micro-benchmarks for the computational kernels: the LU solve, one full
//! opamp evaluation (DC + AC + measurements), one approximator training
//! epoch, and one Monte-Carlo planning step. Timed with a plain
//! `Instant`-based harness so the suite runs hermetically (no external
//! benchmarking framework).

use asdex_core::{McPlanner, SpiceApproximator};
use asdex_env::circuits::opamp::TwoStageOpamp;
use asdex_env::{SpecSet, ValueFn};
use asdex_linalg::{Lu, Matrix};
use asdex_rng::rngs::StdRng;
use asdex_rng::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

/// Runs `f` for a few warm-up iterations, then times `iters` calls and
/// prints mean/min per-call wall time.
fn bench_function<F: FnMut()>(name: &str, iters: usize, mut f: F) {
    for _ in 0..iters.div_ceil(10) {
        f();
    }
    let mut best = f64::INFINITY;
    let start = Instant::now();
    for _ in 0..iters {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    let mean = start.elapsed().as_secs_f64() / iters as f64;
    println!("{name:<32} mean {:>10.3} µs   min {:>10.3} µs   ({iters} iters)", mean * 1e6, best * 1e6);
}

fn bench_lu() {
    let n = 12; // the opamp MNA dimension
    let mut a = Matrix::<f64>::zeros(n, n);
    for i in 0..n {
        for j in 0..n {
            a[(i, j)] = ((i * 5 + j * 3) % 7) as f64 * 0.1;
        }
        a[(i, i)] += 10.0;
    }
    let b = vec![1.0; n];
    bench_function("lu_factor_solve_12x12", 2000, || {
        let lu = Lu::factor(black_box(a.clone())).expect("nonsingular");
        black_box(lu.solve(&b).expect("solves"));
    });
}

fn bench_opamp_eval() {
    let problem = TwoStageOpamp::bsim45().problem().expect("problem builds");
    // A distinct grid point per call (0.012 in u exceeds one grid step on
    // every axis): the evaluator memoizes deterministic repeats, and this
    // bench must keep timing the full solve.
    let points: Vec<Vec<f64>> = (0..64)
        .map(|k| vec![0.2 + 0.012 * k as f64; problem.dim()])
        .collect();
    let mut i = 0usize;
    bench_function("opamp_evaluate_full", 50, || {
        black_box(problem.evaluate_normalized(black_box(&points[i % points.len()]), 0));
        i += 1;
    });
}

fn bench_approximator_epoch() {
    let mut rng = StdRng::seed_from_u64(0);
    let mut model = SpiceApproximator::new(7, 5, 48, 0.003, &mut rng);
    for k in 0..40 {
        let x: Vec<f64> = (0..7).map(|i| ((k * 7 + i) % 10) as f64 / 10.0).collect();
        let y: Vec<f64> = (0..5).map(|i| (k + i) as f64).collect();
        model.push(x, y);
    }
    bench_function("approximator_fit_epoch_40pts", 100, || {
        black_box(model.fit(1));
    });
}

fn bench_planner() {
    let problem = TwoStageOpamp::bsim45().problem().expect("problem builds");
    let mut rng = StdRng::seed_from_u64(0);
    let mut model = SpiceApproximator::new(7, 5, 48, 0.003, &mut rng);
    for k in 0..30 {
        let x = problem.space.sample(&mut rng);
        let y: Vec<f64> = (0..5).map(|i| (k + i) as f64).collect();
        model.push(x, y);
    }
    model.fit(5);
    let planner = McPlanner::new(200);
    let center = vec![0.5; 7];
    let specs: &SpecSet = &problem.specs;
    let value_fn = ValueFn::default();
    bench_function("mc_planner_200_samples", 50, || {
        black_box(planner.propose(
            &problem.space,
            &center,
            0.15,
            &model,
            &value_fn,
            specs,
            &mut rng,
        ));
    });
}

fn main() {
    bench_lu();
    bench_opamp_eval();
    bench_approximator_epoch();
    bench_planner();
}
