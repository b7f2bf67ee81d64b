//! A fully connected (dense) layer.

use crate::activation::Activation;
use crate::init::{gaussian, Init};
use linalg::Matrix;
use rand::Rng;

/// Dense layer `a = σ(W x + b)` with weights `W ∈ R^{out×in}`.
///
/// Biases can be disabled to match Eq. (4) of the paper literally
/// (`S_θ = W_L σ(… W_1 [x;c])` has no bias terms); they are enabled by
/// default because they never hurt and help the tiny networks the
/// experiments use.
#[derive(Clone, Debug)]
pub struct Dense {
    weights: Matrix,
    bias: Vec<f64>,
    use_bias: bool,
    activation: Activation,
}

/// Cache of one forward pass through a layer, needed by backprop.
#[derive(Clone, Debug)]
pub struct LayerCache {
    /// The input the layer saw.
    pub input: Vec<f64>,
    /// Pre-activation values `z = W x + b`.
    pub pre: Vec<f64>,
    /// Post-activation values `a = σ(z)`.
    pub post: Vec<f64>,
}

impl Dense {
    /// Create a layer with randomly initialised weights.
    pub fn new<R: Rng + ?Sized>(
        rng: &mut R,
        fan_in: usize,
        fan_out: usize,
        activation: Activation,
        init: Init,
        use_bias: bool,
    ) -> Self {
        assert!(fan_in > 0 && fan_out > 0, "layer dims must be positive");
        let std = init.std_for(fan_in, fan_out);
        let mut weights = Matrix::zeros(fan_out, fan_in);
        for w in weights.data_mut() {
            *w = gaussian(rng, 0.0, std);
        }
        Self { weights, bias: vec![0.0; fan_out], use_bias, activation }
    }

    /// Input dimensionality.
    pub fn fan_in(&self) -> usize {
        self.weights.cols()
    }

    /// Output dimensionality.
    pub fn fan_out(&self) -> usize {
        self.weights.rows()
    }

    /// The layer's activation function.
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// Whether bias terms are enabled.
    pub fn uses_bias(&self) -> bool {
        self.use_bias
    }

    /// Build a layer from explicit parameters (layout as in
    /// [`Self::write_params`]: weights row-major, then biases when
    /// enabled).
    ///
    /// # Panics
    /// Panics if `params` has the wrong length.
    pub fn from_params(
        fan_in: usize,
        fan_out: usize,
        activation: Activation,
        use_bias: bool,
        params: &[f64],
    ) -> Self {
        assert!(fan_in > 0 && fan_out > 0, "layer dims must be positive");
        let expected = fan_in * fan_out + if use_bias { fan_out } else { 0 };
        assert_eq!(params.len(), expected, "parameter count mismatch");
        let mut layer = Self {
            weights: Matrix::zeros(fan_out, fan_in),
            bias: vec![0.0; fan_out],
            use_bias,
            activation,
        };
        layer.read_params(params);
        layer
    }

    /// Number of parameters (weights plus biases when enabled).
    pub fn param_count(&self) -> usize {
        self.weights.rows() * self.weights.cols() + if self.use_bias { self.bias.len() } else { 0 }
    }

    /// Borrow the weight matrix.
    pub fn weights(&self) -> &Matrix {
        &self.weights
    }

    /// The parameters in [`Self::write_params`] order, without copying.
    pub(crate) fn params(&self) -> impl Iterator<Item = f64> + '_ {
        let bias: &[f64] = if self.use_bias { &self.bias } else { &[] };
        self.weights.data().iter().chain(bias).copied()
    }

    /// Largest singular value upper bound: we report the Frobenius norm,
    /// which dominates the operator norm — this is the `ξ` that appears in
    /// the Theorem 1 regret bound `n|C|ξ^L / π^{L-1}`.
    pub fn operator_norm_bound(&self) -> f64 {
        self.weights.frobenius_norm()
    }

    /// Forward pass returning the cache backprop needs.
    pub fn forward(&self, input: &[f64]) -> LayerCache {
        assert_eq!(input.len(), self.fan_in(), "forward: input dim mismatch");
        let mut pre = self.weights.matvec(input);
        if self.use_bias {
            for (p, b) in pre.iter_mut().zip(&self.bias) {
                *p += b;
            }
        }
        let mut post = pre.clone();
        self.activation.apply_slice(&mut post);
        LayerCache { input: input.to_vec(), pre, post }
    }

    /// In-place forward pass: like [`Self::forward`] but reusing the
    /// buffers of an existing [`LayerCache`]. Bit-identical arithmetic,
    /// zero allocation once the cache has warmed up.
    pub fn forward_into(&self, input: &[f64], cache: &mut LayerCache) {
        assert_eq!(input.len(), self.fan_in(), "forward: input dim mismatch");
        cache.input.clear();
        cache.input.extend_from_slice(input);
        cache.pre.resize(self.fan_out(), 0.0);
        self.weights.matvec_into(input, &mut cache.pre);
        if self.use_bias {
            for (p, b) in cache.pre.iter_mut().zip(&self.bias) {
                *p += b;
            }
        }
        cache.post.clear();
        cache.post.extend_from_slice(&cache.pre);
        self.activation.apply_slice(&mut cache.post);
    }

    /// Backward pass of one sample.
    ///
    /// Given `d_post = ∂out/∂a` (gradient w.r.t. this layer's
    /// post-activation output), adds the parameter gradient into
    /// `grad_w`/`grad_b`, and writes `δ` into `delta` and `∂out/∂input`
    /// into `d_input` (both reused buffers).
    #[allow(clippy::needless_range_loop)] // index loops are the clear idiom in this kernel
    pub fn backward_into(
        &self,
        cache: &LayerCache,
        d_post: &[f64],
        grad_w: &mut Matrix,
        grad_b: &mut [f64],
        delta: &mut Vec<f64>,
        d_input: &mut Vec<f64>,
    ) {
        assert_eq!(d_post.len(), self.fan_out(), "backward: grad dim mismatch");
        // δ = d_post ⊙ σ'(z)
        delta.clear();
        delta
            .extend(d_post.iter().zip(&cache.pre).map(|(d, &z)| d * self.activation.derivative(z)));
        // ∂out/∂W_ij = δ_i * x_j ; ∂out/∂b_i = δ_i
        for i in 0..self.fan_out() {
            let di = delta[i];
            if di != 0.0 {
                let row = grad_w.row_mut(i);
                for (g, &xj) in row.iter_mut().zip(&cache.input) {
                    *g += di * xj;
                }
            }
        }
        if self.use_bias {
            for (g, d) in grad_b.iter_mut().zip(delta.iter()) {
                *g += d;
            }
        }
        // ∂out/∂x = Wᵀ δ
        d_input.resize(self.fan_in(), 0.0);
        self.weights.matvec_t_into(delta, d_input);
    }

    /// Batch forward pass over `n` samples held unit-major: `input` is
    /// `fan_in × n` (row `k` holds input `k` of every sample), `pre` and
    /// `post` are `fan_out × n`. Each pre-activation folds its inputs in
    /// index order from −0.0, as [`linalg::vector::dot`] does, then adds
    /// the bias, so every value is bit-equal to [`Self::forward`]'s.
    pub(crate) fn forward_batch(&self, n: usize, input: &[f64], pre: &mut [f64], post: &mut [f64]) {
        let fan_in = self.fan_in();
        for_activation!(self.activation, ACT => {
            for i in 0..self.fan_out() {
                let pre_i = &mut pre[i * n..(i + 1) * n];
                let post_i = &mut post[i * n..(i + 1) * n];
                let bias = self.use_bias.then(|| self.bias[i]);
                lane_fold(self.weights.row(i), 1, fan_in, input, n, -0.0, |s0, sums| {
                    for (l, &dot) in sums.iter().enumerate() {
                        let z = match bias {
                            Some(b) => dot + b,
                            None => dot,
                        };
                        pre_i[s0 + l] = z;
                        post_i[s0 + l] = ACT.apply(z);
                    }
                });
            }
        });
    }

    /// Batch weight and bias gradients over `n` samples. `delta` is
    /// `fan_out × n` unit-major; `rows` holds the layer's input
    /// sample-major (`n × fan_in`). Each weight gradient is `Σ δ·x` over
    /// the samples in order from +0.0, skipping samples whose `δ` is 0 as
    /// [`Self::backward_into`] skips rows; each bias gradient is `Σ δ` in
    /// the same order. These are the per-sample gradients' running totals
    /// bit for bit (see `Mlp::train_step_rows`).
    ///
    /// Whole [`LANES`]-blocks of inputs take one register lane per input
    /// while one unit's samples are walked; the inputs left over, and the
    /// bias when no whole block exists, take one lane per unit instead.
    pub(crate) fn grads_batch(
        &self,
        n: usize,
        delta: &[f64],
        rows: &[f64],
        grad_w: &mut [f64],
        mut grad_b: Option<&mut [f64]>,
    ) {
        let (fan_in, fan_out) = (self.fan_in(), self.fan_out());
        let whole = fan_in - fan_in % LANES;
        for i in 0..fan_out {
            let delta_i = &delta[i * n..(i + 1) * n];
            for k0 in (0..whole).step_by(LANES) {
                let (acc, sum) = masked_lane_sum(delta_i, &rows[k0..], fan_in);
                grad_w[i * fan_in + k0..][..LANES].copy_from_slice(&acc);
                if let (0, Some(b)) = (k0, grad_b.as_deref_mut()) {
                    b[i] = sum;
                }
            }
        }
        for i0 in (0..fan_out).step_by(LANES) {
            let units = (fan_out - i0).min(LANES);
            let block = &delta[i0 * n..(i0 + units) * n];
            for k in whole..fan_in {
                let acc = masked_unit_sum(block, n, |s| rows[s * fan_in + k]);
                for (l, &g) in acc[..units].iter().enumerate() {
                    grad_w[(i0 + l) * fan_in + k] = g;
                }
            }
            if let (0, Some(b)) = (whole, grad_b.as_deref_mut()) {
                // δ·1.0 is δ: the masked sum of δ is the plain one.
                let acc = masked_unit_sum(block, n, |_| 1.0);
                b[i0..i0 + units].copy_from_slice(&acc[..units]);
            }
        }
    }

    /// Batch backpropagation into the layer below: `delta_below = (Wᵀ δ)
    /// ⊙ σ'_below(pre_below)` over `n` samples, all unit-major. `Wᵀ δ`
    /// sums over this layer's units in order from +0.0, as
    /// [`Matrix::matvec_t_into`] does.
    pub(crate) fn backprop_batch(
        &self,
        n: usize,
        delta: &[f64],
        below: Activation,
        pre_below: &[f64],
        delta_below: &mut [f64],
    ) {
        let fan_in = self.fan_in();
        for_activation!(below, BELOW => {
            for k in 0..fan_in {
                let out = &mut delta_below[k * n..(k + 1) * n];
                let pre = &pre_below[k * n..(k + 1) * n];
                let column = &self.weights.data()[k..];
                lane_fold(column, fan_in, self.fan_out(), delta, n, 0.0, |s0, sums| {
                    for (l, &d) in sums.iter().enumerate() {
                        out[s0 + l] = d * BELOW.derivative(pre[s0 + l]);
                    }
                });
            }
        });
    }

    /// Copy parameters out into `dst` (weights row-major, then biases when
    /// enabled); returns the number of values written.
    pub fn write_params(&self, dst: &mut [f64]) -> usize {
        let nw = self.weights.data().len();
        dst[..nw].copy_from_slice(self.weights.data());
        if self.use_bias {
            dst[nw..nw + self.bias.len()].copy_from_slice(&self.bias);
            nw + self.bias.len()
        } else {
            nw
        }
    }

    /// Load parameters from `src` (layout mirroring [`Self::write_params`]);
    /// returns the number of values read.
    pub fn read_params(&mut self, src: &[f64]) -> usize {
        let nw = self.weights.data().len();
        self.weights.data_mut().copy_from_slice(&src[..nw]);
        if self.use_bias {
            let nb = self.bias.len();
            self.bias.copy_from_slice(&src[nw..nw + nb]);
            nw + nb
        } else {
            nw
        }
    }

    /// Apply a parameter delta: `θ += scale * d`; layout as in
    /// [`Self::write_params`]. Returns values consumed.
    pub fn apply_delta(&mut self, scale: f64, d: &[f64]) -> usize {
        let nw = self.weights.data().len();
        for (w, &g) in self.weights.data_mut().iter_mut().zip(&d[..nw]) {
            *w += scale * g;
        }
        if self.use_bias {
            let nb = self.bias.len();
            for (b, &g) in self.bias.iter_mut().zip(&d[nw..nw + nb]) {
                *b += scale * g;
            }
            nw + nb
        } else {
            nw
        }
    }
}

/// Expand `$body` once per activation with `$act` a constant of that
/// variant, so each batch kernel is specialised to one activation
/// instead of matching on it per element.
macro_rules! for_activation {
    ($value:expr, $act:ident => $body:block) => {
        match $value {
            Activation::Relu => {
                const $act: Activation = Activation::Relu;
                $body
            }
            Activation::Sigmoid => {
                const $act: Activation = Activation::Sigmoid;
                $body
            }
            Activation::Tanh => {
                const $act: Activation = Activation::Tanh;
                $body
            }
            Activation::Identity => {
                const $act: Activation = Activation::Identity;
                $body
            }
        }
    };
}
use for_activation;

/// Samples (or inputs) per register block of the batch kernels.
pub(crate) const LANES: usize = 8;

/// For every sample `s < n`, fold `start + Σ_j coef[j·step] · src[j·n +
/// s]` over `j` in order, one register lane per sample and [`LANES`]
/// samples at a time, and hand each block's sums to `emit(s0, sums)`
/// (`sums[l]` is sample `s0 + l`'s). `src` is `terms × n` unit-major.
#[inline(always)]
fn lane_fold(
    coef: &[f64],
    step: usize,
    terms: usize,
    src: &[f64],
    n: usize,
    start: f64,
    mut emit: impl FnMut(usize, &[f64]),
) {
    let blocked = n - n % LANES;
    for s0 in (0..blocked).step_by(LANES) {
        let mut acc = [start; LANES];
        for j in 0..terms {
            let c = coef[j * step];
            let x: &[f64; LANES] = src[j * n + s0..][..LANES].try_into().expect("lane block");
            for l in 0..LANES {
                acc[l] += c * x[l];
            }
        }
        emit(s0, &acc);
    }
    for s in blocked..n {
        let mut acc = start;
        for j in 0..terms {
            acc += coef[j * step] * src[j * n + s];
        }
        emit(s, &[acc]);
    }
}

/// Walk the samples in order, one `δ` each, and add `δ · x_l` into lane
/// `l`'s sum from +0.0, where `x_l = rows[s·stride + l]` — or add +0.0
/// where `δ` is 0, which leaves a sum that never holds −0.0 unchanged,
/// exactly as skipping the sample would. Also returns `Σ δ` from +0.0.
/// Branch-free, so dead ReLU units cost no mispredictions.
fn masked_lane_sum(delta: &[f64], rows: &[f64], stride: usize) -> ([f64; LANES], f64) {
    let mut acc = [0.0; LANES];
    let mut sum = 0.0;
    for (s, &d) in delta.iter().enumerate() {
        sum += d;
        let x: &[f64; LANES] = rows[s * stride..][..LANES].try_into().expect("lane block");
        let keep = u64::from(d != 0.0).wrapping_neg();
        for l in 0..LANES {
            acc[l] += f64::from_bits((d * x[l]).to_bits() & keep);
        }
    }
    (acc, sum)
}

/// [`masked_lane_sum`] with one lane per unit: `delta` holds up to
/// [`LANES`] units' rows of `n` samples, and lane `l` sums
/// `δ_l(s) · x(s)` over the samples in order from +0.0, adding +0.0
/// where `δ_l(s)` is 0.
fn masked_unit_sum(delta: &[f64], n: usize, x: impl Fn(usize) -> f64) -> [f64; LANES] {
    let units = delta.len() / n.max(1);
    let mut acc = [0.0; LANES];
    for s in 0..n {
        let xs = x(s);
        for (l, a) in acc[..units].iter_mut().enumerate() {
            let d = delta[l * n + s];
            let keep = u64::from(d != 0.0).wrapping_neg();
            *a += f64::from_bits((d * xs).to_bits() & keep);
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn layer(act: Activation) -> Dense {
        let mut rng = StdRng::seed_from_u64(1);
        Dense::new(&mut rng, 3, 2, act, Init::Xavier, true)
    }

    #[test]
    fn forward_shapes() {
        let l = layer(Activation::Relu);
        let c = l.forward(&[1.0, -1.0, 0.5]);
        assert_eq!(c.pre.len(), 2);
        assert_eq!(c.post.len(), 2);
        assert_eq!(c.input, vec![1.0, -1.0, 0.5]);
    }

    #[test]
    fn relu_forward_clamps() {
        let l = layer(Activation::Relu);
        let c = l.forward(&[2.0, 0.3, -0.7]);
        for (&z, &a) in c.pre.iter().zip(&c.post) {
            assert_eq!(a, z.max(0.0));
        }
    }

    #[test]
    fn param_roundtrip() {
        let mut l = layer(Activation::Identity);
        let mut buf = vec![0.0; l.param_count()];
        let n = l.write_params(&mut buf);
        assert_eq!(n, l.param_count());
        let mut l2 = l.clone();
        // Perturb then restore.
        l2.apply_delta(1.0, &vec![0.5; l.param_count()]);
        assert_ne!(l2.forward(&[1.0, 1.0, 1.0]).post, l.forward(&[1.0, 1.0, 1.0]).post);
        l2.read_params(&buf);
        assert_eq!(l2.forward(&[1.0, 1.0, 1.0]).post, l.forward(&[1.0, 1.0, 1.0]).post);
        // And the original is untouched by any of this.
        l.read_params(&buf);
    }

    #[test]
    fn backward_gradient_matches_finite_difference() {
        let l = layer(Activation::Tanh);
        let x = [0.7, -0.2, 1.1];
        let cache = l.forward(&x);
        // Treat out = sum(post) so d_post = 1s.
        let mut gw = Matrix::zeros(2, 3);
        let mut gb = vec![0.0; 2];
        let (mut delta, mut dx) = (Vec::new(), Vec::new());
        l.backward_into(&cache, &[1.0, 1.0], &mut gw, &mut gb, &mut delta, &mut dx);

        let eps = 1e-6;
        // Check input gradient numerically.
        for j in 0..3 {
            let mut xp = x;
            xp[j] += eps;
            let mut xm = x;
            xm[j] -= eps;
            let fp: f64 = l.forward(&xp).post.iter().sum();
            let fm: f64 = l.forward(&xm).post.iter().sum();
            let num = (fp - fm) / (2.0 * eps);
            assert!((num - dx[j]).abs() < 1e-6, "input grad {j}");
        }
        // Check a few parameter gradients numerically.
        let mut params = vec![0.0; l.param_count()];
        l.write_params(&mut params);
        for k in [0, 3, 5, 6, 7] {
            let mut lp = l.clone();
            let mut pp = params.clone();
            pp[k] += eps;
            lp.read_params(&pp);
            let fp: f64 = lp.forward(&x).post.iter().sum();
            let mut pm = params.clone();
            pm[k] -= eps;
            lp.read_params(&pm);
            let fm: f64 = lp.forward(&x).post.iter().sum();
            let num = (fp - fm) / (2.0 * eps);
            let analytic = if k < 6 { gw.data()[k] } else { gb[k - 6] };
            assert!((num - analytic).abs() < 1e-6, "param grad {k}: {num} vs {analytic}");
        }
    }

    #[test]
    fn operator_norm_bound_positive() {
        assert!(layer(Activation::Relu).operator_norm_bound() > 0.0);
    }

    #[test]
    #[should_panic(expected = "dims must be positive")]
    fn zero_dim_layer_panics() {
        let mut rng = StdRng::seed_from_u64(0);
        Dense::new(&mut rng, 0, 2, Activation::Relu, Init::He, true);
    }
}
