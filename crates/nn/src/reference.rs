//! Per-sample reference implementations of the network kernels, the
//! optimizers and the gradient guard, kept for the equivalence suite.
//!
//! This is the straightforward code the allocation-free kernels replaced:
//! one `Vec` per layer per sample, pre-activations recomputed through
//! `Activation::derivative`, the optimizers building an update vector and
//! applying it with `θ += 1.0 · update`, and the guard's three passes.
//! The tests below hold the production kernels to it with `to_bits`.

use crate::guard::GuardOutcome;
use crate::mlp::{Layer, Mlp};

fn dense(net: &Mlp, l: &Layer, x: &[f64], pre: &mut Vec<f64>, out: &mut Vec<f64>) {
    let w = l.weights(&net.params);
    let b = l.biases(&net.params);
    pre.clear();
    out.clear();
    for o in 0..l.n_out {
        let row = &w[o * l.n_in..(o + 1) * l.n_in];
        let z: f64 = row.iter().zip(x).map(|(w, xi)| w * xi).sum::<f64>() + b[o];
        pre.push(z);
        out.push(l.act.apply(z));
    }
}

/// Pre- and post-activations of every layer for one input.
pub struct RefTrace {
    input: Vec<f64>,
    pres: Vec<Vec<f64>>,
    outs: Vec<Vec<f64>>,
}

impl RefTrace {
    pub fn output(&self) -> &[f64] {
        self.outs.last().expect("at least one layer")
    }
}

pub fn forward(net: &Mlp, x: &[f64]) -> Vec<f64> {
    forward_trace(net, x).outs.pop().expect("at least one layer")
}

pub fn forward_trace(net: &Mlp, x: &[f64]) -> RefTrace {
    let mut pres = Vec::new();
    let mut outs = Vec::new();
    let mut cur = x.to_vec();
    for l in &net.layers {
        let mut pre = Vec::new();
        let mut out = Vec::new();
        dense(net, l, &cur, &mut pre, &mut out);
        cur = out.clone();
        pres.push(pre);
        outs.push(out);
    }
    RefTrace { input: x.to_vec(), pres, outs }
}

/// `(flat parameter gradient, input gradient)`.
pub fn backward(net: &Mlp, trace: &RefTrace, output_grad: &[f64]) -> (Vec<f64>, Vec<f64>) {
    let mut flat = vec![0.0; net.param_count()];
    let mut upstream = output_grad.to_vec();
    for (k, l) in net.layers.iter().enumerate().rev() {
        let delta: Vec<f64> = upstream
            .iter()
            .zip(&trace.pres[k])
            .map(|(u, &z)| u * l.act.derivative(z))
            .collect();
        let input: &[f64] = if k == 0 { &trace.input } else { &trace.outs[k - 1] };
        for o in 0..l.n_out {
            let base = l.off + o * l.n_in;
            for (i, &xi) in input.iter().enumerate() {
                flat[base + i] += delta[o] * xi;
            }
            flat[l.off + l.n_out * l.n_in + o] += delta[o];
        }
        let w = l.weights(&net.params);
        let mut next_up = vec![0.0; l.n_in];
        for (o, &d) in delta.iter().enumerate() {
            for (i, &wi) in w[o * l.n_in..(o + 1) * l.n_in].iter().enumerate() {
                next_up[i] += wi * d;
            }
        }
        upstream = next_up;
    }
    (flat, upstream)
}

/// Adam building its update vector, applied with `θ += 1.0 · update`.
pub struct RefAdam {
    lr: f64,
    m: Vec<f64>,
    v: Vec<f64>,
    t: u64,
}

impl RefAdam {
    pub fn new(lr: f64) -> Self {
        RefAdam { lr, m: Vec::new(), v: Vec::new(), t: 0 }
    }

    pub fn step(&mut self, net: &mut Mlp, grad: &[f64]) {
        let (beta1, beta2, eps) = (0.9f64, 0.999f64, 1e-8);
        if self.m.len() != grad.len() {
            self.m = vec![0.0; grad.len()];
            self.v = vec![0.0; grad.len()];
            self.t = 0;
        }
        self.t += 1;
        let b1t = 1.0 - beta1.powi(self.t as i32);
        let b2t = 1.0 - beta2.powi(self.t as i32);
        let mut update = vec![0.0; grad.len()];
        for i in 0..grad.len() {
            self.m[i] = beta1 * self.m[i] + (1.0 - beta1) * grad[i];
            self.v[i] = beta2 * self.v[i] + (1.0 - beta2) * grad[i] * grad[i];
            let mhat = self.m[i] / b1t;
            let vhat = self.v[i] / b2t;
            update[i] = -self.lr * mhat / (vhat.sqrt() + eps);
        }
        apply(net, &update);
    }
}

/// SGD with momentum building its update vector.
pub struct RefSgd {
    lr: f64,
    momentum: f64,
    velocity: Vec<f64>,
}

impl RefSgd {
    pub fn new(lr: f64, momentum: f64) -> Self {
        RefSgd { lr, momentum, velocity: Vec::new() }
    }

    pub fn step(&mut self, net: &mut Mlp, grad: &[f64]) {
        if self.velocity.len() != grad.len() {
            self.velocity = vec![0.0; grad.len()];
        }
        let mut update = vec![0.0; grad.len()];
        for ((v, g), u) in self.velocity.iter_mut().zip(grad).zip(&mut update) {
            *v = self.momentum * *v - self.lr * g;
            *u = *v;
        }
        apply(net, &update);
    }
}

/// `θ += 1.0 · update`, layer by layer as the per-layer storage did.
fn apply(net: &mut Mlp, update: &[f64]) {
    let layers = net.layers.clone();
    for l in &layers {
        let end = l.off + l.n_in * l.n_out + l.n_out;
        for (w, u) in net.params[l.off..end].iter_mut().zip(&update[l.off..end]) {
            *w += 1.0 * u;
        }
    }
}

/// The guard's three passes: finiteness, largest magnitude, scaled norm.
pub fn guard_apply(max_norm: f64, grad: &mut [f64]) -> GuardOutcome {
    if grad.iter().any(|g| !g.is_finite()) {
        return GuardOutcome::NonFinite;
    }
    let max_abs = grad.iter().fold(0.0f64, |m, g| m.max(g.abs()));
    if max_abs == 0.0 {
        return GuardOutcome::Ok;
    }
    let norm = max_abs * grad.iter().map(|g| (g / max_abs) * (g / max_abs)).sum::<f64>().sqrt();
    if norm <= max_norm {
        return GuardOutcome::Ok;
    }
    let scale = max_norm / norm;
    for g in grad.iter_mut() {
        *g *= scale;
    }
    GuardOutcome::Clipped
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{mse, mse_output_grad, Activation, Adam, GradGuard, Optimizer, Sgd, Workspace};
    use asdex_rng::rngs::StdRng;
    use asdex_rng::{Rng, SeedableRng};

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The shapes the suite covers: the sign-off surrogate (hidden and
    /// output widths not multiples of eight) and two small odd ones.
    const SHAPES: [&[usize]; 3] = [&[7, 42, 42, 5], &[1, 3, 2], &[2, 8, 1]];
    const ACTS: [Activation; 3] = [Activation::Tanh, Activation::Relu, Activation::Identity];

    fn inputs(rng: &mut StdRng, n_in: usize, n: usize) -> Vec<Vec<f64>> {
        (0..n).map(|_| (0..n_in).map(|_| rng.gen_range(-1.5..1.5)).collect()).collect()
    }

    fn target(x: &[f64], n_out: usize) -> Vec<f64> {
        (0..n_out).map(|o| (x.iter().sum::<f64>() * (o + 1) as f64).sin()).collect()
    }

    fn nets() -> Vec<(Mlp, StdRng)> {
        let mut out = Vec::new();
        for (s, sizes) in SHAPES.iter().enumerate() {
            for (a, &act) in ACTS.iter().enumerate() {
                let mut rng = StdRng::seed_from_u64(100 * s as u64 + a as u64);
                let mut net = Mlp::new(sizes, act, &mut rng);
                // Non-zero biases, so the `+ b` of every output counts.
                for w in net.params_mut() {
                    *w += rng.gen_range(-0.1..0.1);
                }
                out.push((net, rng));
            }
        }
        out
    }

    #[test]
    fn forward_loss_and_gradients_match_the_reference_bitwise() {
        for (net, mut rng) in nets() {
            for x in inputs(&mut rng, net.n_in(), 20) {
                let t = target(&x, net.n_out());
                let reference = forward_trace(&net, &x);
                let trace = net.forward_trace(&x);
                assert_eq!(bits(trace.output()), bits(reference.output()));
                assert_eq!(bits(&net.forward(&x)), bits(&forward(&net, &x)));
                assert_eq!(
                    mse(trace.output(), &t).to_bits(),
                    mse(reference.output(), &t).to_bits(),
                    "loss"
                );
                let og = mse_output_grad(reference.output(), &t);
                let (flat, input_grad) = backward(&net, &reference, &og);
                let g = net.backward(&trace, &og);
                assert_eq!(bits(g.flat()), bits(&flat), "flat gradient");
                assert_eq!(bits(&g.input_grad), bits(&input_grad), "input gradient");

                // The workspace path (the fit loop's) writes the same
                // parameter gradient over whatever the buffer held.
                let mut ws = Workspace::default();
                let mut buf = vec![f64::NAN; net.param_count()];
                net.forward_in(&x, &mut ws);
                net.backward_in(&x, &mut ws, &og, &mut buf);
                assert_eq!(bits(&buf), bits(&flat), "workspace gradient");
            }
        }
    }

    #[test]
    fn signed_zero_products_keep_their_reference_signs() {
        // Zero inputs and zero parameters make every product a signed
        // zero: the `-0.0` accumulator seed and the `0 +` gradient slots
        // are what keep those signs equal to the reference's. All-`-0.0`
        // products plus a `-0.0` bias give `-0.0` only from a `-0.0` seed.
        let mut rng = StdRng::seed_from_u64(9);
        let mut net = Mlp::new(&[3, 5, 2], Activation::Identity, &mut rng);
        let patterns: [fn(usize, bool) -> f64; 3] = [
            |_, bias| if bias { -0.0 } else { 0.0 },
            |_, _| -0.0,
            |k, _| if k % 3 == 0 { -0.0 } else { 0.0 },
        ];
        for pattern in patterns {
            let layers = net.layers.clone();
            for l in &layers {
                for k in l.off..l.off + l.n_in * l.n_out + l.n_out {
                    net.params[k] = pattern(k, k >= l.off + l.n_in * l.n_out);
                }
            }
            for x in [[-0.0, 0.0, -0.0], [0.0, 0.0, 0.0], [-0.0, -0.0, -0.0]] {
                assert_eq!(bits(&net.forward(&x)), bits(&forward(&net, &x)));
                for og in [[-0.0, 0.0], [-0.0, -0.0], [1.0, -1.0]] {
                    let (flat, ig) = backward(&net, &forward_trace(&net, &x), &og);
                    let g = net.backward(&net.forward_trace(&x), &og);
                    assert_eq!(bits(g.flat()), bits(&flat));
                    assert_eq!(bits(&g.input_grad), bits(&ig));
                }
            }
        }
    }

    #[test]
    fn fifty_optimizer_steps_match_the_reference_bitwise() {
        for (net, mut rng) in nets() {
            let xs = inputs(&mut rng, net.n_in(), 50);
            let (mut a, mut a_ref) = (net.clone(), net.clone());
            let (mut s, mut s_ref) = (net.clone(), net.clone());
            let mut adam = Adam::new(0.01);
            let mut adam_ref = RefAdam::new(0.01);
            let mut sgd = Sgd::with_momentum(0.05, 0.9);
            let mut sgd_ref = RefSgd::new(0.05, 0.9);
            let mut ws = Workspace::default();
            let mut grad = vec![0.0; net.param_count()];
            for x in &xs {
                let t = target(x, net.n_out());
                // Production: workspace passes, in-place step.
                let y = a.forward_in(x, &mut ws).to_vec();
                a.backward_in(x, &mut ws, &mse_output_grad(&y, &t), &mut grad);
                adam.step(&mut a, &grad);
                let tr = forward_trace(&a_ref, x);
                let (g, _) = backward(&a_ref, &tr, &mse_output_grad(tr.output(), &t));
                adam_ref.step(&mut a_ref, &g);

                let trace = s.forward_trace(x);
                let g = s.backward(&trace, &mse_output_grad(trace.output(), &t));
                sgd.step(&mut s, g.flat());
                let tr = forward_trace(&s_ref, x);
                let (g, _) = backward(&s_ref, &tr, &mse_output_grad(tr.output(), &t));
                sgd_ref.step(&mut s_ref, &g);
            }
            assert_eq!(bits(&a.flat_params()), bits(&a_ref.flat_params()), "adam parameters");
            assert_eq!(bits(&s.flat_params()), bits(&s_ref.flat_params()), "sgd parameters");
        }
    }

    #[test]
    fn adam_past_its_bias_correction_limit_matches_the_reference_bitwise() {
        // From step 356 on `1 − 0.9^t` is exactly 1.0 and the in-place
        // step skips that division; the parameters must not notice.
        let mut rng = StdRng::seed_from_u64(5);
        let net = Mlp::new(&[2, 8, 1], Activation::Tanh, &mut rng);
        let (mut a, mut a_ref) = (net.clone(), net);
        let (mut adam, mut adam_ref) = (Adam::new(0.003), RefAdam::new(0.003));
        assert_eq!(1.0 - 0.9f64.powi(355), 1.0 - f64::EPSILON / 2.0);
        assert_eq!(1.0 - 0.9f64.powi(356), 1.0);
        for x in inputs(&mut rng, 2, 600) {
            let t = target(&x, 1);
            let tr = a.forward_trace(&x);
            let g = a.backward(&tr, &mse_output_grad(tr.output(), &t));
            adam.step(&mut a, g.flat());
            let tr = forward_trace(&a_ref, &x);
            let (g, _) = backward(&a_ref, &tr, &mse_output_grad(tr.output(), &t));
            adam_ref.step(&mut a_ref, &g);
            assert_eq!(bits(&a.flat_params()), bits(&a_ref.flat_params()));
        }
    }

    #[test]
    fn row_block_prediction_matches_single_rows_bitwise() {
        for (net, mut rng) in nets() {
            let xs = inputs(&mut rng, net.n_in(), 37);
            let flat: Vec<f64> = xs.concat();
            let mut ys = vec![0.0; xs.len() * net.n_out()];
            net.forward_rows(&flat, &mut ys, &mut Workspace::default());
            let single: Vec<f64> = xs.iter().flat_map(|x| forward(&net, x)).collect();
            assert_eq!(bits(&ys), bits(&single));
        }
    }

    /// Gradient of `n` components whose global norm is near `norm`.
    fn scaled(rng: &mut StdRng, n: usize, max_abs_sqrt_n: f64) -> Vec<f64> {
        let mut g: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let max_abs = g.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        let k = max_abs_sqrt_n / (max_abs * (n as f64).sqrt());
        for v in &mut g {
            *v *= k;
        }
        g
    }

    fn assert_guard_matches(label: &str, g: &[f64]) {
        let guard = GradGuard::default();
        let (mut fast, mut full) = (g.to_vec(), g.to_vec());
        let outcome = guard.apply(&mut fast);
        assert_eq!(outcome, guard_apply(guard.max_norm, &mut full), "{label}: outcome");
        assert_eq!(bits(&fast), bits(&full), "{label}: gradient bits");
    }

    #[test]
    fn guard_fast_path_matches_the_full_norm() {
        let mut rng = StdRng::seed_from_u64(77);
        for n in [1, 2, 3, 5, 8, 2357] {
            // `max_abs·√n` just under, at and just over the 1e3 ceiling:
            // under it the fast path answers, over it the norm decides.
            for bound in [1e3 * (1.0 - 1e-12), 1e3, 1e3 * (1.0 + 1e-12), 999.0, 1001.0, 2e3, 1e7] {
                for _ in 0..20 {
                    assert_guard_matches("scaled", &scaled(&mut rng, n, bound));
                }
            }
            // One huge component among small ones.
            let mut g = scaled(&mut rng, n, 1.0);
            g[n / 2] = 1e250;
            assert_guard_matches("huge", &g);
            assert_guard_matches("zeros", &vec![0.0; n]);
            assert_guard_matches("negative zeros", &vec![-0.0; n]);
            // Non-finite components at the first, a middle and the last index.
            for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                for at in [0, n / 2, n - 1] {
                    let mut g = scaled(&mut rng, n, 10.0);
                    g[at] = bad;
                    let before = bits(&g);
                    assert_guard_matches("non-finite", &g);
                    let mut h = g.clone();
                    assert_eq!(GradGuard::default().apply(&mut h), GuardOutcome::NonFinite);
                    assert_eq!(bits(&h), before, "a rejected gradient is left untouched");
                }
            }
        }
        assert_guard_matches("empty", &[]);
    }
}
