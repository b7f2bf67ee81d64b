//! The multilayer perceptron `S_θ` of Eq. (4) with layer freezing.

use crate::activation::Activation;
use crate::init::Init;
use crate::layer::{Dense, LayerCache};
use crate::loss;
use linalg::Matrix;
use rand::Rng;

/// A scalar-output MLP: `S_θ : R^d → R`.
///
/// Layers can be individually **frozen**; frozen layers still participate
/// in forward/backward passes but are excluded from the flat parameter and
/// gradient vectors, so every training step and every bandit covariance
/// update automatically operates on the trainable subset only. This is
/// the mechanism behind the paper's personalised estimator (Sec. V-D):
/// copy the base network, freeze the first `L−1` layers, fine-tune the
/// last.
#[derive(Clone, Debug)]
pub struct Mlp {
    layers: Vec<Dense>,
    frozen: Vec<bool>,
}

/// Reusable buffers for one fused forward+backward pass through an
/// [`Mlp`]: per-layer forward caches, per-layer parameter-gradient
/// accumulators, and the backprop ping-pong vectors. Build one with
/// [`Mlp::scratch`], keep it alongside the network, and every
/// [`Mlp::forward_with_gradient_into`] call is allocation-free.
///
/// A scratch is tied to the *architecture*, not the weights: it can be
/// shared across networks of identical shape (e.g. the per-broker
/// personalised copies) but not across different layer layouts.
#[derive(Clone, Debug)]
pub struct MlpScratch {
    caches: Vec<LayerCache>,
    grads_w: Vec<Matrix>,
    grads_b: Vec<Vec<f64>>,
    d_post: Vec<f64>,
    d_next: Vec<f64>,
    delta: Vec<f64>,
}

/// Reusable buffers for batch-major training steps
/// ([`Mlp::train_step_rows`]), resized to each step's network and batch
/// length, so a step whose shapes the buffers have met allocates
/// nothing. Derived state: a clone starts empty.
#[derive(Debug, Default)]
pub struct TrainScratch {
    /// `acts[l]`: layer `l`'s input unit-major (`fan_in × n`: row `k`
    /// holds input `k` of every sample); `acts[L]` holds the predictions.
    acts: Vec<Vec<f64>>,
    /// `rows[l]`: layer `l`'s input sample-major (`n × fan_in`), for
    /// trainable hidden layers; layer 0 reads the batch itself.
    rows: Vec<Vec<f64>>,
    /// `pre[l]`: layer `l`'s pre-activations (`fan_out × n`).
    pre: Vec<Vec<f64>>,
    /// `δ` of the layer being differentiated, and of the layer below.
    delta: Vec<f64>,
    delta_below: Vec<f64>,
    /// The flat trainable gradient (layout of [`Mlp::param_gradient`]).
    grad: Vec<f64>,
}

impl Clone for TrainScratch {
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl TrainScratch {
    /// Size the buffers for `net` and `n` samples. Every step overwrites
    /// what it reads, so the contents need no reset.
    fn prepare(&mut self, net: &Mlp, n: usize) {
        let depth = net.layers.len();
        self.acts.resize_with(depth + 1, Vec::new);
        self.pre.resize_with(depth, Vec::new);
        self.rows.resize_with(depth, Vec::new);
        for (l, layer) in net.layers.iter().enumerate() {
            self.acts[l].resize(layer.fan_in() * n, 0.0);
            self.pre[l].resize(layer.fan_out() * n, 0.0);
            let sample_major = l > 0 && !net.frozen[l];
            self.rows[l].resize(if sample_major { layer.fan_in() * n } else { 0 }, 0.0);
        }
        self.acts[depth].resize(n, 0.0);
    }
}

/// `dst = srcᵀ` for the row-major `rows × cols` block `src`.
fn transpose_into(src: &[f64], rows: usize, cols: usize, dst: &mut [f64]) {
    for r in 0..rows {
        for c in 0..cols {
            dst[c * rows + r] = src[r * cols + c];
        }
    }
}

/// Builder for [`Mlp`], defaulting to the paper's 3-layer ReLU network.
#[derive(Clone, Debug)]
pub struct MlpBuilder {
    input_dim: usize,
    hidden: Vec<usize>,
    activation: Activation,
    init: Init,
    use_bias: bool,
}

impl MlpBuilder {
    /// Start a builder for a network with the given input dimensionality.
    pub fn new(input_dim: usize) -> Self {
        Self {
            input_dim,
            hidden: vec![64, 16],
            activation: Activation::Relu,
            init: Init::He,
            use_bias: true,
        }
    }

    /// Hidden layer widths (the output layer of width 1 is implicit).
    pub fn hidden(mut self, widths: &[usize]) -> Self {
        self.hidden = widths.to_vec();
        self
    }

    /// Hidden activation (default ReLU, matching Eq. 4).
    pub fn activation(mut self, act: Activation) -> Self {
        self.activation = act;
        self
    }

    /// Weight initialisation scheme.
    pub fn init(mut self, init: Init) -> Self {
        self.init = init;
        self
    }

    /// Enable or disable bias terms (Eq. 4 literally has none).
    pub fn bias(mut self, use_bias: bool) -> Self {
        self.use_bias = use_bias;
        self
    }

    /// Build the network, sampling weights from `rng`.
    pub fn build<R: Rng + ?Sized>(self, rng: &mut R) -> Mlp {
        assert!(self.input_dim > 0, "input dim must be positive");
        let mut layers = Vec::with_capacity(self.hidden.len() + 1);
        let mut fan_in = self.input_dim;
        for &w in &self.hidden {
            layers.push(Dense::new(rng, fan_in, w, self.activation, self.init, self.use_bias));
            fan_in = w;
        }
        layers.push(Dense::new(rng, fan_in, 1, Activation::Identity, self.init, self.use_bias));
        let frozen = vec![false; layers.len()];
        Mlp { layers, frozen }
    }
}

impl Mlp {
    /// Assemble a network from explicit layers and frozen flags,
    /// validating the architecture (consecutive dims chain; scalar
    /// output).
    pub fn from_layers(layers: Vec<Dense>, frozen: Vec<bool>) -> Result<Mlp, String> {
        if layers.is_empty() {
            return Err("network must have at least one layer".into());
        }
        if layers.len() != frozen.len() {
            return Err("frozen mask length mismatch".into());
        }
        for w in layers.windows(2) {
            if w[0].fan_out() != w[1].fan_in() {
                return Err(format!(
                    "layer dims do not chain: {} -> {}",
                    w[0].fan_out(),
                    w[1].fan_in()
                ));
            }
        }
        if layers.last().expect("non-empty").fan_out() != 1 {
            return Err("output layer must be scalar".into());
        }
        Ok(Mlp { layers, frozen })
    }

    /// Number of layers `L` (hidden layers plus the linear output layer).
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Borrow layer `idx` (0-based from the input side).
    pub fn layer(&self, idx: usize) -> &Dense {
        &self.layers[idx]
    }

    /// Input dimensionality.
    pub fn input_dim(&self) -> usize {
        self.layers[0].fan_in()
    }

    /// Freeze or unfreeze one layer (0-based from the input side).
    pub fn freeze_layer(&mut self, idx: usize, frozen: bool) {
        self.frozen[idx] = frozen;
    }

    /// Freeze the first `L−1` layers, leaving only the output layer
    /// trainable — the paper's layer-transfer personalisation.
    pub fn freeze_all_but_last(&mut self) {
        let n = self.layers.len();
        for (i, f) in self.frozen.iter_mut().enumerate() {
            *f = i + 1 < n;
        }
    }

    /// Unfreeze every layer.
    pub fn unfreeze_all(&mut self) {
        self.frozen.iter_mut().for_each(|f| *f = false);
    }

    /// Whether layer `idx` is frozen.
    pub fn is_frozen(&self, idx: usize) -> bool {
        self.frozen[idx]
    }

    /// Total parameter count, frozen or not.
    pub fn total_param_count(&self) -> usize {
        self.layers.iter().map(Dense::param_count).sum()
    }

    /// Parameter count of the trainable subset — this is the dimension
    /// `d` of the bandit covariance `D`.
    pub fn trainable_param_count(&self) -> usize {
        self.layers
            .iter()
            .zip(&self.frozen)
            .filter(|(_, &f)| !f)
            .map(|(l, _)| l.param_count())
            .sum()
    }

    /// Scalar forward pass `S_θ(x)`.
    pub fn forward(&self, x: &[f64]) -> f64 {
        let mut cur = x.to_vec();
        for layer in &self.layers {
            cur = layer.forward(&cur).post;
        }
        debug_assert_eq!(cur.len(), 1);
        cur[0]
    }

    /// Build a scratch buffer sized for this network; see [`MlpScratch`].
    pub fn scratch(&self) -> MlpScratch {
        MlpScratch {
            caches: self
                .layers
                .iter()
                .map(|l| LayerCache {
                    input: Vec::with_capacity(l.fan_in()),
                    pre: Vec::with_capacity(l.fan_out()),
                    post: Vec::with_capacity(l.fan_out()),
                })
                .collect(),
            grads_w: self.layers.iter().map(|l| Matrix::zeros(l.fan_out(), l.fan_in())).collect(),
            grads_b: self.layers.iter().map(|l| vec![0.0; l.fan_out()]).collect(),
            d_post: Vec::new(),
            d_next: Vec::new(),
            delta: Vec::new(),
        }
    }

    /// Allocation-free forward pass through `scratch`'s layer caches.
    /// Bit-identical to [`Self::forward`].
    pub fn forward_into(&self, x: &[f64], scratch: &mut MlpScratch) -> f64 {
        self.forward_cached_into(x, scratch)
    }

    fn forward_cached_into(&self, x: &[f64], s: &mut MlpScratch) -> f64 {
        debug_assert_eq!(s.caches.len(), self.layers.len(), "scratch/architecture mismatch");
        for i in 0..self.layers.len() {
            if i == 0 {
                self.layers[0].forward_into(x, &mut s.caches[0]);
            } else {
                let (prev, rest) = s.caches.split_at_mut(i);
                self.layers[i].forward_into(&prev[i - 1].post, &mut rest[0]);
            }
        }
        let out = &s.caches[self.layers.len() - 1].post;
        debug_assert_eq!(out.len(), 1);
        out[0]
    }

    /// `g_θ(x) = ∇_θ S_θ(x)` over the **trainable** parameters, flattened
    /// layer by layer (input side first; weights row-major, then biases).
    ///
    /// This is the gradient vector that feeds the UCB exploration bonus of
    /// Eq. (5) and the covariance update of Alg. 1 line 12.
    pub fn param_gradient(&self, x: &[f64]) -> Vec<f64> {
        self.forward_with_gradient(x).1
    }

    /// Scalar prediction together with the trainable-parameter gradient —
    /// a single fused pass, saving the duplicate forward that separate
    /// `forward` + `param_gradient` calls would cost inside the bandit's
    /// per-arm loop.
    ///
    /// Allocates a fresh [`MlpScratch`] per call; hot paths should hold a
    /// scratch and call [`Self::forward_with_gradient_into`] instead.
    pub fn forward_with_gradient(&self, x: &[f64]) -> (f64, Vec<f64>) {
        let mut scratch = self.scratch();
        let mut grad = Vec::new();
        let out = self.forward_with_gradient_into(x, &mut scratch, &mut grad);
        (out, grad)
    }

    /// Zero-alloc fused pass: prediction plus the flat trainable gradient
    /// written into `grad_out` (cleared first, capacity reused).
    /// Bit-identical to [`Self::forward_with_gradient`].
    pub fn forward_with_gradient_into(
        &self,
        x: &[f64],
        scratch: &mut MlpScratch,
        grad_out: &mut Vec<f64>,
    ) -> f64 {
        let out = self.forward_cached_into(x, scratch);
        self.backward_into_flat(scratch, 1.0, grad_out);
        out
    }

    /// Backprop from `d_out = ∂L/∂S_θ` through the cached forward pass in
    /// `scratch`, writing the flat trainable gradient into `flat`.
    fn backward_into_flat(&self, s: &mut MlpScratch, d_out: f64, flat: &mut Vec<f64>) {
        let n = self.layers.len();
        for gw in &mut s.grads_w {
            gw.data_mut().fill(0.0);
        }
        for gb in &mut s.grads_b {
            gb.fill(0.0);
        }
        s.d_post.clear();
        s.d_post.push(d_out);
        for i in (0..n).rev() {
            self.layers[i].backward_into(
                &s.caches[i],
                &s.d_post,
                &mut s.grads_w[i],
                &mut s.grads_b[i],
                &mut s.delta,
                &mut s.d_next,
            );
            std::mem::swap(&mut s.d_post, &mut s.d_next);
        }
        flat.clear();
        flat.reserve(self.trainable_param_count());
        for i in 0..n {
            if self.frozen[i] {
                continue;
            }
            flat.extend_from_slice(s.grads_w[i].data());
            if self.layers[i].param_count() > self.layers[i].fan_in() * self.layers[i].fan_out() {
                flat.extend_from_slice(&s.grads_b[i]);
            }
        }
    }

    /// Copy the trainable parameters into a flat vector (layout mirrors
    /// [`Self::param_gradient`]).
    pub fn trainable_params(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.trainable_param_count()];
        let mut off = 0;
        for (layer, &frozen) in self.layers.iter().zip(&self.frozen) {
            if frozen {
                continue;
            }
            off += layer.write_params(&mut out[off..]);
        }
        debug_assert_eq!(off, out.len());
        out
    }

    /// Overwrite the trainable parameters from a flat vector.
    pub fn set_trainable_params(&mut self, params: &[f64]) {
        assert_eq!(params.len(), self.trainable_param_count(), "param length mismatch");
        let mut off = 0;
        for (layer, &frozen) in self.layers.iter_mut().zip(&self.frozen) {
            if frozen {
                continue;
            }
            off += layer.read_params(&params[off..]);
        }
    }

    /// `θ += scale · delta` over trainable parameters.
    pub fn apply_trainable_delta(&mut self, scale: f64, delta: &[f64]) {
        assert_eq!(delta.len(), self.trainable_param_count(), "delta length mismatch");
        let mut off = 0;
        for (layer, &frozen) in self.layers.iter_mut().zip(&self.frozen) {
            if frozen {
                continue;
            }
            off += layer.apply_delta(scale, &delta[off..]);
        }
    }

    /// The trainable parameters in flat order (layout of
    /// [`Self::trainable_params`]), without copying them out.
    fn trainable_values(&self) -> impl Iterator<Item = f64> + '_ {
        self.layers.iter().zip(&self.frozen).filter(|(_, &f)| !f).flat_map(|(l, _)| l.params())
    }

    /// Gradient of the regularised batch loss of Eq. (6)
    /// `Σ_o (S_θ(x_o) − s_o)² + λ‖θ‖²` over the trainable parameters,
    /// together with the loss value itself.
    ///
    /// One sample at a time: this is the reference that
    /// [`Self::train_step_rows`] reproduces bit for bit, kept for tests.
    pub fn loss_gradient(
        &self,
        inputs: &[Vec<f64>],
        targets: &[f64],
        lambda: f64,
    ) -> (f64, Vec<f64>) {
        assert_eq!(inputs.len(), targets.len(), "batch size mismatch");
        let mut grad = vec![0.0; self.trainable_param_count()];
        let mut preds = Vec::with_capacity(inputs.len());
        let mut scratch = self.scratch();
        let mut g = Vec::new();
        for (x, &t) in inputs.iter().zip(targets) {
            let pred = self.forward_cached_into(x, &mut scratch);
            preds.push(pred);
            self.backward_into_flat(&mut scratch, loss::dsq(pred, t), &mut g);
            linalg::vector::axpy(1.0, &g, &mut grad);
        }
        let params = self.trainable_params();
        linalg::vector::axpy(2.0 * lambda, &params, &mut grad);
        let l = loss::sse_with_l2(&preds, targets, lambda, &params);
        (l, grad)
    }

    /// One plain gradient-descent step on Eq. (6) (Alg. 1 line 17:
    /// `θ ← θ − ∇L`, scaled by `lr`). Returns the pre-step loss.
    pub fn train_step(
        &mut self,
        inputs: &[Vec<f64>],
        targets: &[f64],
        lr: f64,
        lambda: f64,
    ) -> f64 {
        self.train_step_clipped(inputs, targets, lr, lambda, f64::INFINITY)
    }

    /// [`Self::train_step`] with global gradient-norm clipping: when the
    /// gradient's L2 norm exceeds `max_grad_norm` it is rescaled onto the
    /// clip sphere. Clipping keeps a ReLU network from being driven into
    /// the all-dead regime by one oversized step — without it, a large
    /// summed-loss gradient can permanently collapse `S_θ` to a constant
    /// (its output-layer bias), which silently disables the bandit.
    ///
    /// Copies the inputs into one block; hot paths keep their samples
    /// encoded and call [`Self::train_step_rows`].
    pub fn train_step_clipped(
        &mut self,
        inputs: &[Vec<f64>],
        targets: &[f64],
        lr: f64,
        lambda: f64,
        max_grad_norm: f64,
    ) -> f64 {
        assert!(inputs.iter().all(|x| x.len() == self.input_dim()), "input dim mismatch");
        let rows = inputs.concat();
        let mut scratch = TrainScratch::default();
        self.train_step_rows(&rows, targets, lr, lambda, max_grad_norm, &mut scratch)
    }

    /// [`Self::train_step_clipped`] over samples stored as one block:
    /// sample `s`'s input is `rows[s·d..(s+1)·d]` for input dimension
    /// `d`, its target `targets[s]`. Returns the pre-step loss.
    ///
    /// Batch-major: each layer runs forward over the whole batch, then
    /// backward, through `scratch`'s buffers. The result is bit-identical
    /// to [`Self::loss_gradient`], the clip and
    /// [`Self::apply_trainable_delta`], one sample at a time:
    /// - every pre-activation folds its inputs in order from −0.0, as
    ///   `linalg::vector::dot` does, then adds the bias;
    /// - every weight gradient is `Σ δ·x` over the samples in order from
    ///   +0.0, skipping samples whose `δ` is 0; every bias gradient is
    ///   `Σ δ` in the same order; `Wᵀδ` sums over units in order from
    ///   +0.0, as `Matrix::matvec_t_into` does;
    /// - the per-sample path adds each sample's gradient, built from
    ///   +0.0, into a total that starts at +0.0, so its totals are these
    ///   sums: `0.0 + t` differs from `t` only for `t = −0.0`, and adding
    ///   either zero to a sum that never holds −0.0 changes nothing;
    /// - after the sums, as there: the L2 term `2λθ`, the norm clip,
    ///   then `θ −= lr·g`.
    ///
    /// Frozen layers get no gradient, and backpropagation stops at the
    /// lowest trainable layer.
    pub fn train_step_rows(
        &mut self,
        rows: &[f64],
        targets: &[f64],
        lr: f64,
        lambda: f64,
        max_grad_norm: f64,
        scratch: &mut TrainScratch,
    ) -> f64 {
        let n = targets.len();
        let d = self.input_dim();
        assert_eq!(rows.len(), n * d, "batch rows do not match {n} targets of dim {d}");
        let depth = self.layers.len();
        let s = scratch;
        s.prepare(self, n);

        // Forward, unit-major: row `k` of `acts[0]` is input `k` of every
        // sample. Each trainable hidden layer also gets its input
        // sample-major, for its weight gradients.
        transpose_into(rows, n, d, &mut s.acts[0]);
        for (l, layer) in self.layers.iter().enumerate() {
            let (input, output) = s.acts.split_at_mut(l + 1);
            layer.forward_batch(n, &input[l], &mut s.pre[l], &mut output[0]);
            if l + 1 < depth && !self.frozen[l + 1] {
                transpose_into(&output[0], layer.fan_out(), n, &mut s.rows[l + 1]);
            }
        }
        let preds = &s.acts[depth];
        let norm_sq: f64 = self.trainable_values().map(|v| v * v).sum();
        let loss = loss::sse(preds, targets) + lambda * norm_sq;

        // Backward, from the output layer down to the lowest trainable one.
        let grad = &mut s.grad;
        grad.clear();
        grad.resize(self.trainable_param_count(), 0.0);
        if let Some(lowest) = self.frozen.iter().position(|&f| !f) {
            let top = depth - 1;
            let act = self.layers[top].activation();
            s.delta.clear();
            s.delta.extend(
                preds
                    .iter()
                    .zip(targets)
                    .zip(&s.pre[top])
                    .map(|((&p, &t), &z)| loss::dsq(p, t) * act.derivative(z)),
            );
            let mut off = grad.len();
            for l in (lowest..depth).rev() {
                let layer = &self.layers[l];
                if !self.frozen[l] {
                    off -= layer.param_count();
                    let g = &mut grad[off..off + layer.param_count()];
                    let (g_w, g_b) = g.split_at_mut(layer.fan_in() * layer.fan_out());
                    let g_b = layer.uses_bias().then_some(g_b);
                    let inputs = if l == 0 { rows } else { &s.rows[l] };
                    layer.grads_batch(n, &s.delta, inputs, g_w, g_b);
                }
                if l > lowest {
                    let below = &self.layers[l - 1];
                    s.delta_below.resize(below.fan_out() * n, 0.0);
                    let pre_below = &s.pre[l - 1];
                    layer.backprop_batch(
                        n,
                        &s.delta,
                        below.activation(),
                        pre_below,
                        &mut s.delta_below,
                    );
                    std::mem::swap(&mut s.delta, &mut s.delta_below);
                }
            }
        }

        // After the sums, exactly as the per-sample path.
        let two_lambda = 2.0 * lambda;
        for (g, v) in grad.iter_mut().zip(self.trainable_values()) {
            *g += two_lambda * v;
        }
        if max_grad_norm.is_finite() {
            let norm = linalg::vector::norm2(grad);
            if norm > max_grad_norm && norm > 0.0 {
                linalg::vector::scale(max_grad_norm / norm, grad);
            }
        }
        self.apply_trainable_delta(-lr, &s.grad);
        loss
    }

    /// The `ξ` of Theorem 1: the largest per-layer operator-norm bound.
    pub fn xi(&self) -> f64 {
        self.layers.iter().map(Dense::operator_norm_bound).fold(0.0, f64::max)
    }

    /// Copy all parameters (frozen and trainable alike) from another
    /// network of identical architecture — the "copy the first L−1 layers
    /// of θ_base" step of Sec. V-D copies everything and then freezing
    /// determines what fine-tuning may touch.
    pub fn copy_params_from(&mut self, other: &Mlp) {
        assert_eq!(self.total_param_count(), other.total_param_count(), "architecture mismatch");
        let frozen_backup = self.frozen.clone();
        self.unfreeze_all();
        let mut donor = other.clone();
        donor.unfreeze_all();
        self.set_trainable_params(&donor.trainable_params());
        self.frozen = frozen_backup;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn net(seed: u64) -> Mlp {
        let mut rng = StdRng::seed_from_u64(seed);
        MlpBuilder::new(4).hidden(&[8, 6]).build(&mut rng)
    }

    #[test]
    fn builder_shapes() {
        let m = net(0);
        assert_eq!(m.num_layers(), 3);
        assert_eq!(m.input_dim(), 4);
        // (4*8+8) + (8*6+6) + (6*1+1) = 40 + 54 + 7
        assert_eq!(m.total_param_count(), 101);
        assert_eq!(m.trainable_param_count(), 101);
    }

    #[test]
    fn freezing_shrinks_trainable_set() {
        let mut m = net(0);
        m.freeze_all_but_last();
        assert_eq!(m.trainable_param_count(), 7);
        assert!(m.is_frozen(0) && m.is_frozen(1) && !m.is_frozen(2));
        m.unfreeze_all();
        assert_eq!(m.trainable_param_count(), 101);
    }

    #[test]
    fn param_gradient_matches_finite_difference() {
        let m = net(3);
        let x = [0.3, -0.8, 1.2, 0.5];
        let grad = m.param_gradient(&x);
        assert_eq!(grad.len(), m.trainable_param_count());
        let params = m.trainable_params();
        let eps = 1e-6;
        // Spot-check a spread of parameter indices.
        for k in (0..params.len()).step_by(13) {
            let mut mp = m.clone();
            let mut p = params.clone();
            p[k] += eps;
            mp.set_trainable_params(&p);
            let fp = mp.forward(&x);
            p[k] -= 2.0 * eps;
            mp.set_trainable_params(&p);
            let fm = mp.forward(&x);
            let num = (fp - fm) / (2.0 * eps);
            assert!(
                (num - grad[k]).abs() < 1e-5,
                "param {k}: numeric {num} vs analytic {}",
                grad[k]
            );
        }
    }

    #[test]
    fn frozen_gradient_matches_finite_difference() {
        let mut m = net(5);
        m.freeze_all_but_last();
        let x = [1.0, 0.2, -0.4, 0.9];
        let grad = m.param_gradient(&x);
        assert_eq!(grad.len(), 7);
        let params = m.trainable_params();
        let eps = 1e-6;
        for k in 0..params.len() {
            let mut mp = m.clone();
            let mut p = params.clone();
            p[k] += eps;
            mp.set_trainable_params(&p);
            let fp = mp.forward(&x);
            p[k] -= 2.0 * eps;
            mp.set_trainable_params(&p);
            let fm = mp.forward(&x);
            let num = (fp - fm) / (2.0 * eps);
            assert!((num - grad[k]).abs() < 1e-5, "param {k}");
        }
    }

    #[test]
    fn loss_gradient_matches_finite_difference() {
        let m = net(7);
        let inputs =
            vec![vec![0.1, 0.2, 0.3, 0.4], vec![-0.5, 0.5, 1.0, -1.0], vec![0.0, 0.0, 1.0, 0.0]];
        let targets = vec![0.2, 0.8, 0.5];
        let lambda = 0.01;
        let (_, grad) = m.loss_gradient(&inputs, &targets, lambda);
        let params = m.trainable_params();
        let eps = 1e-6;
        for k in (0..params.len()).step_by(17) {
            let mut mp = m.clone();
            let mut p = params.clone();
            p[k] += eps;
            mp.set_trainable_params(&p);
            let preds: Vec<f64> = inputs.iter().map(|x| mp.forward(x)).collect();
            let fp = crate::loss::sse_with_l2(&preds, &targets, lambda, &mp.trainable_params());
            p[k] -= 2.0 * eps;
            mp.set_trainable_params(&p);
            let preds: Vec<f64> = inputs.iter().map(|x| mp.forward(x)).collect();
            let fm = crate::loss::sse_with_l2(&preds, &targets, lambda, &mp.trainable_params());
            let num = (fp - fm) / (2.0 * eps);
            assert!(
                (num - grad[k]).abs() < 1e-4,
                "param {k}: numeric {num} vs analytic {}",
                grad[k]
            );
        }
    }

    #[test]
    fn training_reduces_loss_on_fixed_batch() {
        let mut m = net(11);
        let inputs: Vec<Vec<f64>> = (0..16)
            .map(|i| {
                let t = i as f64 / 16.0;
                vec![t, 1.0 - t, t * t, 0.5]
            })
            .collect();
        let targets: Vec<f64> = inputs.iter().map(|x| 0.3 * x[0] + 0.1).collect();
        let first = m.train_step(&inputs, &targets, 0.01, 0.0);
        let mut last = first;
        for _ in 0..200 {
            last = m.train_step(&inputs, &targets, 0.01, 0.0);
        }
        assert!(last < first * 0.2, "loss {first} -> {last}");
    }

    #[test]
    fn fine_tuning_only_moves_last_layer() {
        let mut m = net(13);
        let before_all = {
            let mut c = m.clone();
            c.unfreeze_all();
            c.trainable_params()
        };
        m.freeze_all_but_last();
        m.train_step(&[vec![1.0, 0.0, 0.0, 0.0]], &[0.7], 0.1, 0.0);
        let mut after = m.clone();
        after.unfreeze_all();
        let after_all = after.trainable_params();
        // All but the last 7 params unchanged.
        let n = before_all.len();
        for k in 0..n - 7 {
            assert_eq!(before_all[k], after_all[k], "frozen param {k} moved");
        }
        // And the last layer did move.
        assert!(before_all[n - 7..].iter().zip(&after_all[n - 7..]).any(|(a, b)| a != b));
    }

    #[test]
    fn copy_params_from_transfers_function() {
        let a = net(17);
        let mut b = net(18);
        assert_ne!(a.forward(&[1.0, 2.0, 3.0, 4.0]), b.forward(&[1.0, 2.0, 3.0, 4.0]));
        b.copy_params_from(&a);
        assert_eq!(a.forward(&[1.0, 2.0, 3.0, 4.0]), b.forward(&[1.0, 2.0, 3.0, 4.0]));
    }

    #[test]
    fn forward_with_gradient_consistent() {
        let m = net(19);
        let x = [0.5, -0.5, 0.25, 1.0];
        let (out, grad) = m.forward_with_gradient(&x);
        assert_eq!(out, m.forward(&x));
        assert_eq!(grad, m.param_gradient(&x));
    }

    #[test]
    fn xi_positive() {
        assert!(net(1).xi() > 0.0);
    }

    #[test]
    fn scratch_path_is_bit_identical_to_allocating_path() {
        let m = net(23);
        let mut scratch = m.scratch();
        let mut grad = Vec::new();
        // Reuse one scratch across many inputs: every result must match
        // the allocating API bit for bit (stale buffer contents from the
        // previous input must never leak through).
        for trial in 0..10 {
            let t = trial as f64 * 0.37;
            let x = [t.sin(), -t, t * t - 1.0, 0.5 - t];
            let out = m.forward_with_gradient_into(&x, &mut scratch, &mut grad);
            let (out_ref, grad_ref) = m.forward_with_gradient(&x);
            assert_eq!(out.to_bits(), out_ref.to_bits(), "trial {trial}");
            assert_eq!(grad, grad_ref, "trial {trial}");
            assert_eq!(m.forward_into(&x, &mut scratch).to_bits(), m.forward(&x).to_bits());
        }
    }

    #[test]
    fn scratch_respects_freezing() {
        let mut m = net(29);
        m.freeze_all_but_last();
        let mut scratch = m.scratch();
        let mut grad = Vec::new();
        m.forward_with_gradient_into(&[0.1, 0.2, 0.3, 0.4], &mut scratch, &mut grad);
        assert_eq!(grad.len(), 7);
        assert_eq!(grad, m.param_gradient(&[0.1, 0.2, 0.3, 0.4]));
    }
}
