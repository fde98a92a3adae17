//! Feed-forward networks with explicit backpropagation.
//!
//! [`Mlp`] is the workhorse behind both the paper's SPICE approximator
//! `f_NN(X; θ)` (a small 3-layer regression net, §IV-B) and the policy /
//! value heads of the model-free baselines. It exposes:
//!
//! * [`Mlp::forward`] — plain inference,
//! * [`Mlp::forward_trace`] + [`Mlp::backward`] — gradients w.r.t. an
//!   arbitrary output gradient (so callers implement any loss),
//! * [`Mlp::forward_in`] / [`Mlp::backward_in`] / [`Mlp::forward_rows`] —
//!   the same passes over a caller-owned [`Workspace`], allocating
//!   nothing (the surrogate's training and planning loops),
//! * [`Mlp::flat_params`] / [`Mlp::set_flat_params`] — the flattened
//!   parameter view TRPO's line search needs.
//!
//! # Determinism contract
//!
//! There is one set of kernels; the allocating methods are thin wrappers
//! over them. Each dot product accumulates from `-0.0` (where
//! `Iterator::sum::<f64>` starts) in ascending input order, so every
//! output is bit for bit the straightforward per-sample sum; up to eight
//! outputs run interleaved only to overlap their independent add chains. The
//! activation derivative is taken from the stored activation (tanh′ =
//! `1 − t·t` with the same `t = tanh(z)`), which is the value a
//! recomputation from the pre-activation gives.

use crate::activation::Activation;
use asdex_rng::Rng;

/// Shape of one dense layer `y = act(W x + b)`; its parameters live in
/// the network's flat vector at `off` (row-major `n_out × n_in` weights)
/// and `off + n_in · n_out` (biases).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Layer {
    pub(crate) n_in: usize,
    pub(crate) n_out: usize,
    pub(crate) act: Activation,
    pub(crate) off: usize,
}

impl Layer {
    pub(crate) fn weights<'p>(&self, params: &'p [f64]) -> &'p [f64] {
        &params[self.off..self.off + self.n_in * self.n_out]
    }

    pub(crate) fn biases<'p>(&self, params: &'p [f64]) -> &'p [f64] {
        let b = self.off + self.n_in * self.n_out;
        &params[b..b + self.n_out]
    }
}

/// `K` dot products `Σ_i rows[k][i]·x[i]` at once. Each accumulator
/// starts at `-0.0` and adds in ascending `i`, exactly as
/// `Iterator::sum::<f64>` does; the `K` chains are independent, so
/// running them side by side changes no bit.
#[inline(always)]
fn dots<const K: usize>(rows: [&[f64]; K], x: &[f64]) -> [f64; K] {
    let n = x.len();
    let rows = rows.map(|r| &r[..n]);
    let mut acc = [-0.0f64; K];
    for i in 0..n {
        let xi = x[i];
        for k in 0..K {
            acc[k] += rows[k][i] * xi;
        }
    }
    acc
}

/// Outputs `o..o + K` of one layer over one input row.
#[inline(always)]
fn outputs<const K: usize>(w: &[f64], b: &[f64], act: Activation, x: &[f64], y: &mut [f64], o: usize) {
    let n_in = x.len();
    let z: [f64; K] = dots(std::array::from_fn(|k| &w[(o + k) * n_in..(o + k + 1) * n_in]), x);
    for k in 0..K {
        y[o + k] = act.apply(z[k] + b[o + k]);
    }
}

/// One layer over one input row: `y[o] = act(Σ_i W[o][i]·x[i] + b[o])`,
/// eight outputs at a time, then four, two and one for the rest.
fn dense_forward(w: &[f64], b: &[f64], act: Activation, x: &[f64], y: &mut [f64]) {
    let n_out = y.len();
    let mut o = 0;
    while o + 8 <= n_out {
        outputs::<8>(w, b, act, x, y, o);
        o += 8;
    }
    if o + 4 <= n_out {
        outputs::<4>(w, b, act, x, y, o);
        o += 4;
    }
    if o + 2 <= n_out {
        outputs::<2>(w, b, act, x, y, o);
        o += 2;
    }
    if o < n_out {
        outputs::<1>(w, b, act, x, y, o);
    }
}

/// Reusable buffers for the allocation-free passes: one row's
/// activations (every layer, concatenated) and the backward pass's
/// deltas. Sized on first use; any network can use any workspace.
#[derive(Debug, Clone, Default)]
pub struct Workspace {
    acts: Vec<f64>,
    back: Vec<f64>,
}

/// Gradients of an [`Mlp`] with the same shape as its parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct Gradients {
    /// Flattened gradient in [`Mlp::flat_params`] order.
    flat: Vec<f64>,
    /// Gradient of the loss w.r.t. the network input.
    pub input_grad: Vec<f64>,
}

impl Gradients {
    /// The flattened gradient vector (same layout as
    /// [`Mlp::flat_params`]).
    pub fn flat(&self) -> &[f64] {
        &self.flat
    }

    /// Mutable view of the flattened gradient, for in-place surgery such
    /// as global-norm clipping (`GradGuard`).
    pub fn flat_mut(&mut self) -> &mut [f64] {
        &mut self.flat
    }

    /// Scales the gradient in place.
    pub fn scale(&mut self, k: f64) {
        for g in &mut self.flat {
            *g *= k;
        }
    }

    /// Accumulates another gradient (`self += other`).
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn add(&mut self, other: &Gradients) {
        assert_eq!(self.flat.len(), other.flat.len());
        for (a, b) in self.flat.iter_mut().zip(&other.flat) {
            *a += b;
        }
    }
}

/// Cached activations from [`Mlp::forward_trace`], consumed by
/// [`Mlp::backward`].
#[derive(Debug, Clone)]
pub struct Trace {
    input: Vec<f64>,
    /// Post-activations of every layer, concatenated.
    acts: Vec<f64>,
    n_out: usize,
}

impl Trace {
    /// The network output this trace recorded.
    pub fn output(&self) -> &[f64] {
        &self.acts[self.acts.len() - self.n_out..]
    }
}

/// A multilayer perceptron.
///
/// # Example
///
/// Train a tiny net to fit `y = 2x` with plain SGD on MSE:
///
/// ```
/// use asdex_nn::{Mlp, Activation, mse_output_grad};
/// use asdex_rng::SeedableRng;
///
/// let mut rng = asdex_rng::rngs::StdRng::seed_from_u64(0);
/// let mut net = Mlp::new(&[1, 8, 1], Activation::Tanh, &mut rng);
/// for _ in 0..500 {
///     for &x in &[-1.0, -0.5, 0.0, 0.5, 1.0f64] {
///         let trace = net.forward_trace(&[x]);
///         let grad_out = mse_output_grad(trace.output(), &[2.0 * x]);
///         let grads = net.backward(&trace, &grad_out);
///         net.apply_flat_delta(grads.flat(), -0.05);
///     }
/// }
/// let y = net.forward(&[0.25]);
/// assert!((y[0] - 0.5).abs() < 0.05);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Mlp {
    pub(crate) layers: Vec<Layer>,
    /// Every parameter in [`Mlp::flat_params`] order.
    pub(crate) params: Vec<f64>,
}

impl Mlp {
    /// Creates a network with the given layer sizes; all hidden layers use
    /// `hidden_act`, the output layer is linear.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two sizes are given.
    pub fn new<R: Rng + ?Sized>(sizes: &[usize], hidden_act: Activation, rng: &mut R) -> Self {
        assert!(sizes.len() >= 2, "need at least input and output sizes");
        let mut layers = Vec::with_capacity(sizes.len() - 1);
        let mut params = Vec::new();
        for (k, pair) in sizes.windows(2).enumerate() {
            let (n_in, n_out) = (pair[0], pair[1]);
            let act = if k + 2 == sizes.len() { Activation::Identity } else { hidden_act };
            layers.push(Layer { n_in, n_out, act, off: params.len() });
            // Xavier/Glorot uniform init.
            let limit = (6.0 / (n_in + n_out) as f64).sqrt();
            params.extend((0..n_in * n_out).map(|_| rng.gen_range(-limit..limit)));
            params.resize(params.len() + n_out, 0.0);
        }
        Mlp { layers, params }
    }

    /// Input dimension.
    pub fn n_in(&self) -> usize {
        self.layers.first().expect("nonempty").n_in
    }

    /// Output dimension.
    pub fn n_out(&self) -> usize {
        self.layers.last().expect("nonempty").n_out
    }

    /// Activations per row: the widths of every layer's output, summed.
    fn act_len(&self) -> usize {
        self.layers.iter().map(|l| l.n_out).sum()
    }

    /// Plain forward pass.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.n_in()`.
    pub fn forward(&self, x: &[f64]) -> Vec<f64> {
        self.forward_in(x, &mut Workspace::default()).to_vec()
    }

    /// Forward pass that records the activations needed for
    /// [`Mlp::backward`].
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.n_in()`.
    pub fn forward_trace(&self, x: &[f64]) -> Trace {
        let mut ws = Workspace::default();
        self.forward_in(x, &mut ws);
        Trace { input: x.to_vec(), acts: ws.acts, n_out: self.n_out() }
    }

    /// Forward pass over one input, recording every layer's activations
    /// in `ws` for a following [`Mlp::backward_in`]. Returns the output.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.n_in()`.
    pub fn forward_in<'w>(&self, x: &[f64], ws: &'w mut Workspace) -> &'w [f64] {
        assert_eq!(x.len(), self.n_in(), "input dimension mismatch");
        ws.acts.resize(self.act_len(), 0.0);
        let mut done = 0;
        for (k, l) in self.layers.iter().enumerate() {
            let (prev, rest) = ws.acts.split_at_mut(done);
            let input = if k == 0 { x } else { &prev[done - l.n_in..] };
            let y = &mut rest[..l.n_out];
            dense_forward(l.weights(&self.params), l.biases(&self.params), l.act, input, y);
            done += l.n_out;
        }
        &ws.acts[done - self.n_out()..done]
    }

    /// Forward pass over `xs.len() / n_in` inputs laid out row-major,
    /// writing the outputs row-major into `ys`. Each row is exactly
    /// [`Mlp::forward`] of that row.
    ///
    /// # Panics
    ///
    /// Panics if `xs` is not whole rows or `ys` has a different row count.
    pub fn forward_rows(&self, xs: &[f64], ys: &mut [f64], ws: &mut Workspace) {
        let (n_in, n_out) = (self.n_in(), self.n_out());
        assert_eq!(xs.len() % n_in, 0, "input dimension mismatch");
        assert_eq!(xs.len() / n_in * n_out, ys.len(), "output rows mismatch");
        for (x, y) in xs.chunks_exact(n_in).zip(ys.chunks_exact_mut(n_out)) {
            y.copy_from_slice(self.forward_in(x, ws));
        }
    }

    /// Backpropagates `dL/dy` (gradient of any scalar loss w.r.t. the
    /// network output) through a recorded trace.
    ///
    /// # Panics
    ///
    /// Panics if `output_grad.len() != self.n_out()`.
    pub fn backward(&self, trace: &Trace, output_grad: &[f64]) -> Gradients {
        let mut flat = vec![0.0; self.param_count()];
        let mut input_grad = vec![0.0; self.n_in()];
        self.backprop(
            &trace.input,
            &trace.acts,
            &mut Vec::new(),
            output_grad,
            &mut flat,
            Some(&mut input_grad),
        );
        Gradients { flat, input_grad }
    }

    /// Parameter gradient for the input `x` whose activations the last
    /// [`Mlp::forward_in`] recorded in `ws`, written over `grad` (every
    /// element, in [`Mlp::flat_params`] order). The input gradient is
    /// not computed.
    ///
    /// # Panics
    ///
    /// Panics on a dimension mismatch or when `ws` holds no activations
    /// for this network.
    pub fn backward_in(&self, x: &[f64], ws: &mut Workspace, output_grad: &[f64], grad: &mut [f64]) {
        assert_eq!(x.len(), self.n_in(), "input dimension mismatch");
        assert_eq!(ws.acts.len(), self.act_len(), "workspace holds no forward pass");
        self.backprop(x, &ws.acts, &mut ws.back, output_grad, grad, None);
    }

    /// The backward kernel. Walks the layers from the output, keeping
    /// `delta = dL/d(pre-activation)`:
    ///
    /// * `dW[o][i] = 0 + delta[o]·in[i]` and `db[o] = 0 + delta[o]` —
    ///   the `0 +` is the zero-initialized accumulator each gradient slot
    ///   starts from (it turns `-0.0` into `+0.0`);
    /// * the upstream gradient `Σ_o W[o][i]·delta[o]` accumulates from
    ///   `+0.0` in ascending `o`, and is skipped below layer 0 unless the
    ///   input gradient is asked for.
    fn backprop(
        &self,
        x: &[f64],
        acts: &[f64],
        back: &mut Vec<f64>,
        output_grad: &[f64],
        grad: &mut [f64],
        mut input_grad: Option<&mut [f64]>,
    ) {
        assert_eq!(output_grad.len(), self.n_out(), "output gradient dimension mismatch");
        assert_eq!(grad.len(), self.param_count(), "parameter count mismatch");
        let width = self.layers.iter().map(|l| l.n_in.max(l.n_out)).max().unwrap_or(0);
        back.resize(2 * width, 0.0);
        let (delta, up) = back.split_at_mut(width);
        up[..output_grad.len()].copy_from_slice(output_grad);
        let mut end = acts.len();
        for (k, l) in self.layers.iter().enumerate().rev() {
            let (n_in, n_out) = (l.n_in, l.n_out);
            let y = &acts[end - n_out..end];
            end -= n_out;
            let input = if k == 0 { x } else { &acts[end - n_in..end] };
            let delta = &mut delta[..n_out];
            for ((d, &u), &yo) in delta.iter_mut().zip(&up[..n_out]).zip(y) {
                *d = u * l.act.derivative_at_output(yo);
            }
            let (gw, gb) = grad[l.off..l.off + n_in * n_out + n_out].split_at_mut(n_in * n_out);
            for ((row, &d), b) in gw.chunks_exact_mut(n_in).zip(delta.iter()).zip(gb) {
                for (g, &xi) in row.iter_mut().zip(input) {
                    *g = 0.0 + d * xi;
                }
                *b = 0.0 + d;
            }
            let target: &mut [f64] = match (k, input_grad.as_deref_mut()) {
                (0, Some(ig)) => ig,
                (0, None) => break,
                _ => &mut up[..n_in],
            };
            target.fill(0.0);
            let w = l.weights(&self.params);
            for (row, &d) in w.chunks_exact(n_in).zip(delta.iter()) {
                for (t, &wi) in target.iter_mut().zip(row) {
                    *t += wi * d;
                }
            }
        }
    }

    /// Total number of scalar parameters.
    pub fn param_count(&self) -> usize {
        self.params.len()
    }

    /// Flattened parameters: per layer, weights row-major then biases.
    pub fn flat_params(&self) -> Vec<f64> {
        self.params.clone()
    }

    /// The flattened parameters, in place — what optimizers step.
    pub(crate) fn params_mut(&mut self) -> &mut [f64] {
        &mut self.params
    }

    /// Overwrites all parameters from a flattened vector.
    ///
    /// # Panics
    ///
    /// Panics if `params.len() != self.param_count()`.
    pub fn set_flat_params(&mut self, params: &[f64]) {
        assert_eq!(params.len(), self.param_count(), "parameter count mismatch");
        self.params.copy_from_slice(params);
    }

    /// In-place `θ += alpha · delta` on the flattened parameters — the
    /// primitive behind line searches.
    ///
    /// # Panics
    ///
    /// Panics if `delta.len() != self.param_count()`.
    pub fn apply_flat_delta(&mut self, delta: &[f64], alpha: f64) {
        assert_eq!(delta.len(), self.param_count(), "parameter count mismatch");
        for (w, d) in self.params.iter_mut().zip(delta) {
            *w += alpha * d;
        }
    }
}

/// Gradient of mean-squared error `L = Σ (y − t)² / n` w.r.t. `y`.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn mse_output_grad(y: &[f64], target: &[f64]) -> Vec<f64> {
    let mut grad = vec![0.0; y.len()];
    mse_output_grad_into(y, target, &mut grad);
    grad
}

/// [`mse_output_grad`] written into `grad`.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn mse_output_grad_into(y: &[f64], target: &[f64], grad: &mut [f64]) {
    assert_eq!(y.len(), target.len(), "mse dimension mismatch");
    assert_eq!(y.len(), grad.len(), "mse dimension mismatch");
    let n = y.len() as f64;
    for ((g, yi), ti) in grad.iter_mut().zip(y).zip(target) {
        *g = 2.0 * (yi - ti) / n;
    }
}

/// Mean-squared error between a prediction and a target.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn mse(y: &[f64], target: &[f64]) -> f64 {
    assert_eq!(y.len(), target.len(), "mse dimension mismatch");
    let n = y.len() as f64;
    y.iter().zip(target).map(|(yi, ti)| (yi - ti) * (yi - ti)).sum::<f64>() / n
}

#[cfg(test)]
mod tests {
    use super::*;
    use asdex_rng::rngs::StdRng;
    use asdex_rng::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn shapes() {
        let net = Mlp::new(&[3, 5, 2], Activation::Relu, &mut rng());
        assert_eq!(net.n_in(), 3);
        assert_eq!(net.n_out(), 2);
        assert_eq!(net.param_count(), 3 * 5 + 5 + 5 * 2 + 2);
        assert_eq!(net.forward(&[0.1, 0.2, 0.3]).len(), 2);
    }

    #[test]
    fn flat_params_round_trip() {
        let mut net = Mlp::new(&[2, 4, 1], Activation::Tanh, &mut rng());
        let p = net.flat_params();
        let y0 = net.forward(&[0.3, -0.4]);
        let mut p2 = p.clone();
        for v in &mut p2 {
            *v += 1.0;
        }
        net.set_flat_params(&p2);
        assert_ne!(net.forward(&[0.3, -0.4]), y0);
        net.set_flat_params(&p);
        assert_eq!(net.forward(&[0.3, -0.4]), y0);
    }

    #[test]
    fn gradient_check_against_finite_differences() {
        let mut net = Mlp::new(&[2, 4, 3], Activation::Tanh, &mut rng());
        let x = [0.3, -0.7];
        let target = [0.1, -0.2, 0.4];
        let trace = net.forward_trace(&x);
        let grads = net.backward(&trace, &mse_output_grad(trace.output(), &target));

        let p0 = net.flat_params();
        let h = 1e-6;
        for k in (0..p0.len()).step_by(3) {
            let mut p = p0.clone();
            p[k] += h;
            net.set_flat_params(&p);
            let up = mse(&net.forward(&x), &target);
            p[k] -= 2.0 * h;
            net.set_flat_params(&p);
            let down = mse(&net.forward(&x), &target);
            let fd = (up - down) / (2.0 * h);
            assert!(
                (grads.flat()[k] - fd).abs() < 1e-6 * (1.0 + fd.abs()),
                "param {k}: analytic {} vs fd {fd}",
                grads.flat()[k]
            );
        }
    }

    #[test]
    fn input_gradient_check() {
        let net = Mlp::new(&[3, 6, 1], Activation::Tanh, &mut rng());
        let x = [0.2, 0.5, -0.1];
        let trace = net.forward_trace(&x);
        let grads = net.backward(&trace, &[1.0]);
        let h = 1e-6;
        for i in 0..3 {
            let mut xp = x;
            xp[i] += h;
            let up = net.forward(&xp)[0];
            xp[i] -= 2.0 * h;
            let down = net.forward(&xp)[0];
            let fd = (up - down) / (2.0 * h);
            assert!((grads.input_grad[i] - fd).abs() < 1e-7, "input {i}");
        }
    }

    #[test]
    fn relu_gradient_check() {
        let mut net = Mlp::new(&[2, 8, 1], Activation::Relu, &mut rng());
        let x = [0.9, -0.4];
        let target = [0.3];
        let trace = net.forward_trace(&x);
        let grads = net.backward(&trace, &mse_output_grad(trace.output(), &target));
        let p0 = net.flat_params();
        let h = 1e-7;
        for k in (0..p0.len()).step_by(5) {
            let mut p = p0.clone();
            p[k] += h;
            net.set_flat_params(&p);
            let up = mse(&net.forward(&x), &target);
            net.set_flat_params(&p0);
            let base = mse(&net.forward(&x), &target);
            let fd = (up - base) / h;
            assert!(
                (grads.flat()[k] - fd).abs() < 1e-4 * (1.0 + fd.abs()),
                "param {k}: {} vs {fd}",
                grads.flat()[k]
            );
        }
    }

    #[test]
    fn learns_linear_function() {
        let mut rng = rng();
        let mut net = Mlp::new(&[1, 16, 1], Activation::Tanh, &mut rng);
        for _ in 0..2000 {
            let x = rng.gen_range(-1.0..1.0);
            let trace = net.forward_trace(&[x]);
            let g = net.backward(&trace, &mse_output_grad(trace.output(), &[0.5 * x + 0.2]));
            net.apply_flat_delta(g.flat(), -0.05);
        }
        for &x in &[-0.8, -0.2, 0.0, 0.4, 0.9] {
            let y = net.forward(&[x])[0];
            assert!((y - (0.5 * x + 0.2)).abs() < 0.05, "x={x}, y={y}");
        }
    }

    #[test]
    fn gradients_accumulate_and_scale() {
        let net = Mlp::new(&[1, 2, 1], Activation::Tanh, &mut rng());
        let t = net.forward_trace(&[0.5]);
        let mut g1 = net.backward(&t, &[1.0]);
        let g2 = net.backward(&t, &[1.0]);
        g1.add(&g2);
        g1.scale(0.5);
        for (a, b) in g1.flat().iter().zip(g2.flat()) {
            assert!((a - b).abs() < 1e-15);
        }
    }

    #[test]
    fn params_transfer_between_networks() {
        let net = Mlp::new(&[2, 3, 1], Activation::Relu, &mut rng());
        let mut back = Mlp::new(&[2, 3, 1], Activation::Relu, &mut rng());
        back.set_flat_params(&net.flat_params());
        for (a, b) in back.flat_params().iter().zip(net.flat_params()) {
            assert_eq!(*a, b);
        }
        let ya = back.forward(&[0.1, 0.2]);
        let yb = net.forward(&[0.1, 0.2]);
        assert!((ya[0] - yb[0]).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn wrong_input_size_panics() {
        let net = Mlp::new(&[2, 2], Activation::Relu, &mut rng());
        let _ = net.forward(&[1.0]);
    }
}
