//! First-order optimizers operating on flattened parameter vectors.
//!
//! Both step the network's parameters in place, one element at a time,
//! with no update buffer. Each element's arithmetic is exactly that of
//! computing an update `u` and then applying `θ += 1.0 · u`, since
//! `1.0 · u` is `u`.

use crate::mlp::Mlp;

/// An optimizer that turns a flat gradient into a flat parameter update.
pub trait Optimizer {
    /// Computes the update for `grad` and applies it to `net` in place
    /// (minimization: steps **against** the gradient).
    ///
    /// # Panics
    ///
    /// Panics if `grad.len() != net.param_count()`.
    fn step(&mut self, net: &mut Mlp, grad: &[f64]);
}

/// Stochastic gradient descent with optional momentum.
#[derive(Debug, Clone)]
pub struct Sgd {
    /// Learning rate.
    pub lr: f64,
    /// Momentum coefficient (0 disables).
    pub momentum: f64,
    velocity: Vec<f64>,
}

impl Sgd {
    /// Creates plain SGD with the given learning rate.
    pub fn new(lr: f64) -> Self {
        Sgd { lr, momentum: 0.0, velocity: Vec::new() }
    }

    /// Creates SGD with momentum.
    pub fn with_momentum(lr: f64, momentum: f64) -> Self {
        Sgd { lr, momentum, velocity: Vec::new() }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, net: &mut Mlp, grad: &[f64]) {
        assert_eq!(grad.len(), net.param_count(), "parameter count mismatch");
        if self.velocity.len() != grad.len() {
            self.velocity = vec![0.0; grad.len()];
        }
        let (lr, momentum) = (self.lr, self.momentum);
        for ((w, v), g) in net.params_mut().iter_mut().zip(&mut self.velocity).zip(grad) {
            *v = momentum * *v - lr * g;
            *w += *v;
        }
    }
}

/// Adam (Kingma & Ba) with bias correction.
#[derive(Debug, Clone)]
pub struct Adam {
    /// Learning rate.
    pub lr: f64,
    /// First-moment decay.
    pub beta1: f64,
    /// Second-moment decay.
    pub beta2: f64,
    /// Numerical floor.
    pub eps: f64,
    m: Vec<f64>,
    v: Vec<f64>,
    t: u64,
}

impl Adam {
    /// Creates Adam with standard hyperparameters.
    pub fn new(lr: f64) -> Self {
        Adam { lr, beta1: 0.9, beta2: 0.999, eps: 1e-8, m: Vec::new(), v: Vec::new(), t: 0 }
    }

    /// Resets the moment estimates (e.g. when the training distribution
    /// shifts after a trust-region restart).
    pub fn reset(&mut self) {
        self.m.clear();
        self.v.clear();
        self.t = 0;
    }
}

impl Optimizer for Adam {
    fn step(&mut self, net: &mut Mlp, grad: &[f64]) {
        assert_eq!(grad.len(), net.param_count(), "parameter count mismatch");
        if self.m.len() != grad.len() {
            self.m = vec![0.0; grad.len()];
            self.v = vec![0.0; grad.len()];
            self.t = 0;
        }
        self.t += 1;
        let (beta1, beta2, lr, eps) = (self.beta1, self.beta2, self.lr, self.eps);
        let b1t = 1.0 - beta1.powi(self.t as i32);
        let b2t = 1.0 - beta2.powi(self.t as i32);
        let params = net.params_mut().iter_mut();
        for (((w, m), v), &g) in params.zip(&mut self.m).zip(&mut self.v).zip(grad) {
            *m = beta1 * *m + (1.0 - beta1) * g;
            *v = beta2 * *v + (1.0 - beta2) * g * g;
            // Once `β^t` drops below half an ulp of 1 (t ≥ 356 for β1),
            // a bias correction is exactly 1.0 and dividing by it is the
            // identity. The test does not depend on the element, so it is
            // hoisted out of the loop and the division is not issued.
            let mhat = if b1t == 1.0 { *m } else { *m / b1t };
            let vhat = if b2t == 1.0 { *v } else { *v / b2t };
            *w += -lr * mhat / (vhat.sqrt() + eps);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Activation;
    use crate::mlp::{mse, mse_output_grad};
    use asdex_rng::rngs::StdRng;
    use asdex_rng::{Rng, SeedableRng};

    fn train<O: Optimizer>(opt: &mut O, epochs: usize) -> f64 {
        let mut rng = StdRng::seed_from_u64(7);
        let mut net = Mlp::new(&[1, 12, 1], Activation::Tanh, &mut rng);
        for _ in 0..epochs {
            let x = rng.gen_range(-1.0..1.0);
            let target = [x * x];
            let trace = net.forward_trace(&[x]);
            let g = net.backward(&trace, &mse_output_grad(trace.output(), &target));
            opt.step(&mut net, g.flat());
        }
        let mut loss = 0.0;
        for k in 0..20 {
            let x = -1.0 + 2.0 * k as f64 / 19.0;
            loss += mse(&net.forward(&[x]), &[x * x]);
        }
        loss / 20.0
    }

    #[test]
    fn sgd_reduces_loss() {
        let loss = train(&mut Sgd::new(0.05), 3000);
        assert!(loss < 0.01, "sgd final loss {loss}");
    }

    #[test]
    fn momentum_helps_or_matches() {
        let plain = train(&mut Sgd::new(0.02), 1500);
        let mom = train(&mut Sgd::with_momentum(0.02, 0.9), 1500);
        assert!(mom < plain * 2.0, "momentum not catastrophically worse");
        assert!(mom < 0.02);
    }

    #[test]
    fn adam_converges_fast() {
        let loss = train(&mut Adam::new(0.01), 2500);
        assert!(loss < 0.005, "adam final loss {loss}");
    }

    #[test]
    fn adam_reset_clears_state() {
        let mut adam = Adam::new(0.01);
        let mut rng = StdRng::seed_from_u64(1);
        let mut net = Mlp::new(&[1, 2, 1], Activation::Tanh, &mut rng);
        let t = net.forward_trace(&[0.5]);
        let g = net.backward(&t, &[1.0]);
        adam.step(&mut net, g.flat());
        assert!(adam.t == 1);
        adam.reset();
        assert!(adam.t == 0);
    }
}
