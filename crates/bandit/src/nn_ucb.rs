//! The paper's NN-enhanced UCB policy (Alg. 1).

use crate::arms::CandidateCapacities;
use crate::state;
use crate::traits::CapacityEstimator;
use linalg::{InverseTracker, UcbCovariance};
use neural::{Mlp, MlpBuilder, MlpScratch, TrainScratch};
use rand::Rng;

/// Reusable buffers for one arm-scoring pass: the network scratch, the
/// `[x; c]` encoding, the current gradient, and the per-arm prediction
/// table the selection policies read. Build with [`NnUcb::scratch`];
/// one scratch per thread makes parallel per-broker UCB evaluation
/// allocation-free ([`NnUcb::estimate_with`] /
/// [`ShrinkageEstimator::estimate_with`](crate::ShrinkageEstimator::estimate_with)).
#[derive(Clone, Debug)]
pub struct NnUcbScratch {
    pub(crate) mlp: MlpScratch,
    pub(crate) enc: Vec<f64>,
    pub(crate) grad: Vec<f64>,
    pub(crate) preds: Vec<f64>,
}

/// Hyper-parameters of [`NnUcb`], defaulting to the paper's values
/// (Sec. VII-A: `α = 0.001`, `λ = 0.001`, `batchSize = 16`, 3-layer MLP,
/// ReLU).
#[derive(Clone, Debug)]
pub struct NnUcbConfig {
    /// Exploration coefficient `α` of Eq. (5).
    pub alpha: f64,
    /// Regularisation `λ`: initialises `D = λI` and weights the L2 term
    /// of Eq. (6).
    pub lambda: f64,
    /// Replay-buffer size; parameters train once the buffer fills
    /// (Alg. 1 line 15).
    pub batch_size: usize,
    /// Learning rate of the `θ ← θ − lr·∇L` step (Alg. 1 line 17).
    pub lr: f64,
    /// Gradient steps taken per buffer flush.
    pub train_epochs: usize,
    /// Hidden layer widths of `S_θ`.
    pub hidden: Vec<usize>,
    /// Exact or diagonal covariance tracking.
    pub covariance: UcbCovariance,
    /// How a capacity is picked from the per-arm UCBs (see
    /// [`CapacitySelection`]).
    pub selection: CapacitySelection,
    /// Size of the experience-replay ring. Alg. 1 trains on each
    /// 16-trial buffer once and discards it; with one trial per broker
    /// per day that wastes most of the scarce signal. When
    /// `replay_cap > 0`, flushed trials are retained (FIFO up to the
    /// cap, oldest dropped first) and every training flush fits the
    /// whole ring, oldest trial first. `0` reproduces the paper's
    /// literal buffer-only training.
    pub replay_cap: usize,
}

/// Arm-selection policy applied to the per-arm UCB values.
///
/// The paper's reward is the daily sign-up **rate**, which is flat below
/// a broker's capacity knee and declines past it. That makes the literal
/// argmax ill-posed in two ways: every below-knee arm is reward-optimal
/// (ties broken by noise), and a function approximator smooths the
/// flat-then-decline shape into a strict decline whose argmax is the
/// *smallest* arm — systematically under-capping strong brokers.
/// [`CapacitySelection::KneePlateau`] addresses this.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum CapacitySelection {
    /// Alg. 1's literal `argmax_c UCB(x, c)`.
    ArgmaxUcb,
    /// Largest capacity whose UCB is within `tolerance · |max|` of the
    /// maximum — targets the knee when the learned curve is genuinely
    /// flat below it.
    KneePlateau {
        /// Relative near-tie tolerance (e.g. `0.05`).
        tolerance: f64,
    },
}

impl Default for NnUcbConfig {
    fn default() -> Self {
        Self {
            alpha: 0.001,
            lambda: 0.001,
            batch_size: 16,
            lr: 0.01,
            train_epochs: 4,
            hidden: vec![16, 8],
            covariance: UcbCovariance::Diagonal,
            selection: CapacitySelection::ArgmaxUcb,
            replay_cap: 0,
        }
    }
}

/// NN-enhanced UCB contextual bandit `B_{θ,D}` (Alg. 1).
///
/// ```
/// use bandit::{CandidateCapacities, CapacityEstimator, NnUcb, NnUcbConfig};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let arms = CandidateCapacities::range(10.0, 50.0, 10.0);
/// let mut bandit = NnUcb::new(&mut rng, 2, arms, NnUcbConfig::default());
///
/// // Choose a capacity for a broker's working status, observe the day.
/// let ctx = [0.4, 0.7];
/// let capacity = bandit.choose(&ctx);
/// bandit.update(&ctx, capacity, 0.23); // (x, w, s) trial triple
/// assert_eq!(bandit.trials(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct NnUcb {
    cfg: NnUcbConfig,
    arms: CandidateCapacities,
    net: Mlp,
    dinv: InverseTracker,
    /// Observation buffer `ob` of `(x, w, s)` trial triples.
    buffer: Trials,
    /// Experience-replay ring (active when `cfg.replay_cap > 0`).
    replay: Trials,
    trials: u64,
    cumulative_reward: f64,
    /// Lazily-built scoring buffers for the `&mut self` entry points
    /// (`choose`/`update`). Derived state: never serialised, and cloning
    /// it merely clones warm buffers.
    scratch_slot: Option<NnUcbScratch>,
    /// Training buffers, reused across flushes. Derived state: never
    /// serialised; a clone starts with empty ones.
    train: TrainScratch,
    /// Samples × epochs of every training step so far: the work count
    /// beside the end-of-day time. Telemetry: never serialised.
    sample_epochs: u64,
}

/// Trial triples `(x, w, s)`, oldest first, held encoded: row `r` of
/// `rows` is `arms.encode(x_r, w_r)`, computed once when the trial
/// joins, with its raw `w_r` and `s_r` beside it. Since `encode` copies
/// the context verbatim, a row's first `width − 1` values are `x_r`.
#[derive(Clone, Debug)]
struct Trials {
    width: usize,
    rows: Vec<f64>,
    workloads: Vec<f64>,
    rewards: Vec<f64>,
}

impl Trials {
    fn new(width: usize) -> Self {
        Self { width, rows: Vec::new(), workloads: Vec::new(), rewards: Vec::new() }
    }

    fn len(&self) -> usize {
        self.rewards.len()
    }

    fn is_empty(&self) -> bool {
        self.rewards.is_empty()
    }

    fn push(&mut self, encoded: &[f64], workload: f64, reward: f64) {
        debug_assert_eq!(encoded.len(), self.width);
        self.rows.extend_from_slice(encoded);
        self.workloads.push(workload);
        self.rewards.push(reward);
    }

    /// Move `newer`'s trials behind these, then drop the oldest until at
    /// most `cap` remain (FIFO eviction).
    fn append_capped(&mut self, newer: &mut Trials, cap: usize) {
        self.rows.append(&mut newer.rows);
        self.workloads.append(&mut newer.workloads);
        self.rewards.append(&mut newer.rewards);
        let excess = self.len().saturating_sub(cap);
        self.rows.drain(..excess * self.width);
        self.workloads.drain(..excess);
        self.rewards.drain(..excess);
    }

    fn clear(&mut self) {
        self.rows.clear();
        self.workloads.clear();
        self.rewards.clear();
    }

    /// One `obs w s x…` line per trial, after a `key count` line.
    fn write(&self, out: &mut String, key: &str) {
        state::push_kv(out, key, self.len());
        let mut line = Vec::with_capacity(self.width + 1);
        for (r, row) in self.rows.chunks_exact(self.width).enumerate() {
            line.clear();
            line.extend_from_slice(&[self.workloads[r], self.rewards[r]]);
            line.extend_from_slice(&row[..self.width - 1]);
            state::push_floats(out, "obs", &line);
        }
    }

    /// Read a block written by [`Self::write`], encoding each trial
    /// again with `arms`.
    fn read<'a, I: Iterator<Item = &'a str>>(
        lines: &mut I,
        key: &str,
        arms: &CandidateCapacities,
        width: usize,
    ) -> Result<Trials, String> {
        let len: usize = state::parse_one(state::expect_key(lines, key)?, "observation count")?;
        let mut trials = Trials::new(width);
        let mut encoded = Vec::with_capacity(width);
        for _ in 0..len {
            let vals = state::parse_floats(state::expect_key(lines, "obs")?, "observation")?;
            if vals.len() != width + 1 {
                return Err(format!(
                    "observation has {} values, the network expects {}",
                    vals.len(),
                    width + 1
                ));
            }
            state::require_finite(&vals, "observation")?;
            arms.encode_into(&vals[2..], vals[0], &mut encoded);
            trials.push(&encoded, vals[0], vals[1]);
        }
        Ok(trials)
    }
}

impl NnUcb {
    /// Create a bandit for contexts of dimensionality `context_dim`.
    pub fn new<R: Rng + ?Sized>(
        rng: &mut R,
        context_dim: usize,
        arms: CandidateCapacities,
        cfg: NnUcbConfig,
    ) -> Self {
        let input_dim = arms.encoded_dim(context_dim);
        let net = MlpBuilder::new(input_dim).hidden(&cfg.hidden).build(rng);
        Self::from_network(net, arms, cfg)
    }

    /// Wrap an existing (e.g. transferred and partially frozen) network.
    /// The covariance dimension follows the network's *trainable*
    /// parameter count, so a last-layer-only fine-tuned bandit gets a
    /// small `D` — exactly the personalised estimator of Sec. V-D.
    pub fn from_network(net: Mlp, arms: CandidateCapacities, cfg: NnUcbConfig) -> Self {
        let dinv = InverseTracker::new(net.trainable_param_count(), cfg.lambda, cfg.covariance);
        let width = net.input_dim();
        Self {
            cfg,
            arms,
            net,
            dinv,
            buffer: Trials::new(width),
            replay: Trials::new(width),
            trials: 0,
            cumulative_reward: 0.0,
            scratch_slot: None,
            train: TrainScratch::default(),
            sample_epochs: 0,
        }
    }

    /// The arm set.
    pub fn arms(&self) -> &CandidateCapacities {
        &self.arms
    }

    /// The reward-mapping network `S_θ`.
    pub fn network(&self) -> &Mlp {
        &self.net
    }

    /// The configuration in use.
    pub fn config(&self) -> &NnUcbConfig {
        &self.cfg
    }

    /// Total reward accumulated through [`CapacityEstimator::update`].
    pub fn cumulative_reward(&self) -> f64 {
        self.cumulative_reward
    }

    /// Training work so far: samples × epochs summed over every training
    /// step this bandit ran. Deterministic telemetry; not part of the
    /// learned state.
    pub fn train_sample_epochs(&self) -> u64 {
        self.sample_epochs
    }

    /// The covariance tracker `D⁻¹` — read side of the bandit-state
    /// invariant audit (finiteness / positive-definiteness checks).
    pub fn covariance(&self) -> &InverseTracker {
        &self.dinv
    }

    /// Mutable covariance tracker, for the seeded state-corruption
    /// injectors.
    pub fn covariance_mut(&mut self) -> &mut InverseTracker {
        &mut self.dinv
    }

    /// Discard the learned covariance and restart from the `λI` prior —
    /// the repair action for a covariance that lost finiteness or
    /// positive definiteness. Exploration widens again and re-shrinks
    /// as gradients accumulate; the network weights are untouched.
    pub fn reset_covariance(&mut self) {
        self.dinv = InverseTracker::new(
            self.net.trainable_param_count(),
            self.cfg.lambda,
            self.cfg.covariance,
        );
    }

    /// Predicted reward `S_θ(x, c)` without the exploration bonus.
    pub fn predict(&self, context: &[f64], capacity: f64) -> f64 {
        self.net.forward(&self.arms.encode(context, capacity))
    }

    /// The upper confidence bound of Eq. (5) for one arm.
    pub fn ucb(&self, context: &[f64], capacity: f64) -> f64 {
        let enc = self.arms.encode(context, capacity);
        let (s, g) = self.net.forward_with_gradient(&enc);
        s + self.dinv.exploration_bonus(self.cfg.alpha, &g)
    }

    /// Build reusable scoring buffers sized for this bandit's network.
    pub fn scratch(&self) -> NnUcbScratch {
        NnUcbScratch {
            mlp: self.net.scratch(),
            enc: Vec::new(),
            grad: Vec::new(),
            preds: Vec::new(),
        }
    }

    /// Allocation-free [`Self::predict`]: same value, buffers reused.
    pub fn predict_with(&self, context: &[f64], capacity: f64, s: &mut NnUcbScratch) -> f64 {
        self.arms.encode_into(context, capacity, &mut s.enc);
        self.net.forward_into(&s.enc, &mut s.mlp)
    }

    /// Allocation-free [`Self::ucb`]: same value, buffers reused. Leaves
    /// the arm's gradient in `s.grad`.
    pub fn ucb_with(&self, context: &[f64], capacity: f64, s: &mut NnUcbScratch) -> f64 {
        self.arms.encode_into(context, capacity, &mut s.enc);
        let pred = self.net.forward_with_gradient_into(&s.enc, &mut s.mlp, &mut s.grad);
        pred + self.dinv.exploration_bonus(self.cfg.alpha, &s.grad)
    }

    /// Arm selection (Alg. 1 lines 6–10) under the configured
    /// [`CapacitySelection`] policy.
    ///
    /// Two-phase to stay allocation-free: every arm is scored through one
    /// reused gradient buffer (the UCB only needs each arm's gradient
    /// transiently, for its exploration bonus), then the *chosen* arm's
    /// gradient is recomputed into `s.grad` — skipped when the winner was
    /// the last arm evaluated. This avoids retaining `|C|` gradient
    /// vectors while producing bit-identical selections and gradients.
    fn best_arm_with(&self, context: &[f64], s: &mut NnUcbScratch) -> usize {
        let NnUcbScratch { mlp, enc, grad, preds } = s;
        preds.clear();
        let mut max_ucb = f64::NEG_INFINITY;
        let mut argmax_ucb = 0usize;
        for (i, &c) in self.arms.values().iter().enumerate() {
            self.arms.encode_into(context, c, enc);
            let pred = self.net.forward_with_gradient_into(enc, mlp, grad);
            let u = pred + self.dinv.exploration_bonus(self.cfg.alpha, grad);
            if u > max_ucb {
                max_ucb = u;
                argmax_ucb = i;
            }
            preds.push(pred);
        }
        // The plateau reading operates on the *predictions*, not
        // the UCBs: the exploration bonus is largest exactly on the
        // rarely-served tail arms, and folding it into the deployed
        // capacity systematically over-caps every broker. (ArgmaxUcb
        // remains the paper-literal UCB argmax.)
        let best_idx = match self.cfg.selection {
            CapacitySelection::ArgmaxUcb => argmax_ucb,
            CapacitySelection::KneePlateau { tolerance } => {
                let max_pred = preds.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                let cutoff = max_pred - tolerance * max_pred.abs();
                let mut best_idx = 0;
                let mut best_cap = f64::NEG_INFINITY;
                for (i, s) in preds.iter().enumerate() {
                    let cap = self.arms.value(i);
                    if *s >= cutoff && cap > best_cap {
                        best_cap = cap;
                        best_idx = i;
                    }
                }
                best_idx
            }
        };
        // Phase two: `grad` currently holds the *last* arm's gradient;
        // recompute for the chosen arm unless it already matches.
        if best_idx + 1 != self.arms.len() {
            self.arms.encode_into(context, self.arms.value(best_idx), enc);
            self.net.forward_with_gradient_into(enc, mlp, grad);
        }
        best_idx
    }

    /// Allocation-free [`CapacityEstimator::estimate`]: same value,
    /// buffers reused — the entry point for parallel per-broker scoring
    /// with one scratch per worker thread.
    pub fn estimate_with(&self, context: &[f64], s: &mut NnUcbScratch) -> f64 {
        self.arms.value(self.best_arm_with(context, s))
    }

    /// Train on the buffered trials (Alg. 1 lines 15–18): minimise
    /// Eq. (6) over `(x_o, w_o) → s_o`, then clear the buffer.
    fn flush_buffer(&mut self) {
        if self.buffer.is_empty() {
            return;
        }
        // Move the fresh trials into the replay ring (when enabled) and
        // train on everything retained; otherwise train on the buffer
        // alone (Alg. 1's literal behaviour).
        let training = if self.cfg.replay_cap > 0 {
            self.replay.append_capped(&mut self.buffer, self.cfg.replay_cap);
            &self.replay
        } else {
            &self.buffer
        };
        // Eq. (6) is a *summed* loss, so its gradient scales with the
        // buffer size; normalising the step by the batch length keeps the
        // configured learning rate meaningful for any batchSize, and the
        // norm clip prevents an early oversized step from killing every
        // ReLU (which would freeze the policy on one arm forever).
        let lr = self.cfg.lr / training.len() as f64;
        for _ in 0..self.cfg.train_epochs {
            let (rows, targets) = (&training.rows, &training.rewards);
            self.net.train_step_rows(rows, targets, lr, self.cfg.lambda, 50.0, &mut self.train);
        }
        self.sample_epochs += (training.len() * self.cfg.train_epochs) as u64;
        self.buffer.clear();
    }

    /// Force-train on whatever is buffered, regardless of fill level.
    /// Useful at the end of a simulation horizon.
    pub fn flush(&mut self) {
        self.flush_buffer();
    }

    /// Serialise the learned state — network, covariance tracker,
    /// observation buffer, replay ring and counters — as a checkpoint
    /// block (see [`crate::state`]).
    pub fn write_state(&self, out: &mut String) {
        state::push_kv(out, "nnucb-trials", self.trials);
        state::push_floats(out, "nnucb-cumreward", &[self.cumulative_reward]);
        state::push_mlp(out, "nnucb-mlp", &self.net);
        match &self.dinv {
            InverseTracker::Full { inv } => {
                state::push_kv(out, "nnucb-dinv-mode", format_args!("full {}", inv.rows()));
                state::push_floats(out, "nnucb-dinv", inv.data());
            }
            InverseTracker::Diagonal { diag } => {
                state::push_kv(out, "nnucb-dinv-mode", format_args!("diag {}", diag.len()));
                state::push_floats(out, "nnucb-dinv", diag);
            }
        }
        self.buffer.write(out, "nnucb-buffer");
        self.replay.write(out, "nnucb-replay");
    }

    /// Rebuild a bandit from [`NnUcb::write_state`] output. The live
    /// `arms`/`cfg` come from the caller (they are part of the algorithm
    /// configuration, not the learned state); the restored network and
    /// covariance are validated against them — dimension mismatches and
    /// non-finite weights are rejected.
    pub fn read_state<'a, I: Iterator<Item = &'a str>>(
        lines: &mut I,
        arms: CandidateCapacities,
        cfg: NnUcbConfig,
    ) -> Result<NnUcb, String> {
        let trials: u64 = state::parse_one(state::expect_key(lines, "nnucb-trials")?, "trials")?;
        let cum =
            state::parse_floats(state::expect_key(lines, "nnucb-cumreward")?, "cumulative reward")?;
        state::require_len(&cum, 1, "cumulative reward")?;
        state::require_finite(&cum, "cumulative reward")?;
        let net = state::read_mlp(lines, "nnucb-mlp")?;
        let expect_dim = net.trainable_param_count();
        let mode_line = state::expect_key(lines, "nnucb-dinv-mode")?;
        let mut mode_parts = mode_line.split_whitespace();
        let mode = mode_parts.next().unwrap_or("");
        let dim: usize = state::parse_one(mode_parts.next().unwrap_or(""), "dinv dim")?;
        if dim != expect_dim {
            return Err(format!(
                "covariance dimension {dim} does not match network's {expect_dim} trainable params"
            ));
        }
        let vals = state::parse_floats(state::expect_key(lines, "nnucb-dinv")?, "dinv")?;
        state::require_finite(&vals, "dinv")?;
        let dinv = match mode {
            "full" => {
                state::require_len(&vals, dim * dim, "full dinv")?;
                InverseTracker::Full { inv: linalg::Matrix::from_vec(dim, dim, vals) }
            }
            "diag" => {
                state::require_len(&vals, dim, "diagonal dinv")?;
                InverseTracker::Diagonal { diag: vals }
            }
            other => return Err(format!("unknown dinv mode {other:?}")),
        };
        let width = net.input_dim();
        let buffer = Trials::read(lines, "nnucb-buffer", &arms, width)?;
        let replay = Trials::read(lines, "nnucb-replay", &arms, width)?;
        let mut bandit = NnUcb::from_network(net, arms, cfg);
        bandit.dinv = dinv;
        bandit.buffer = buffer;
        bandit.replay = replay;
        bandit.trials = trials;
        bandit.cumulative_reward = cum[0];
        Ok(bandit)
    }
}

impl CapacityEstimator for NnUcb {
    fn estimate(&self, context: &[f64]) -> f64 {
        let mut s = self.scratch();
        self.estimate_with(context, &mut s)
    }

    fn choose(&mut self, context: &[f64]) -> f64 {
        let mut s = self.scratch_slot.take().unwrap_or_else(|| self.scratch());
        let idx = self.best_arm_with(context, &mut s);
        // Alg. 1 line 12: D ← D + g gᵀ for the chosen arm.
        self.dinv.rank1_update(&s.grad);
        self.scratch_slot = Some(s);
        self.arms.value(idx)
    }

    fn update(&mut self, context: &[f64], workload: f64, reward: f64) {
        self.trials += 1;
        self.cumulative_reward += reward;
        // Observing a reward at (x, w) shrinks the uncertainty there,
        // whether or not this bandit chose the workload itself (trials
        // can be imposed by the assignment layer). Without this, a
        // passively-fed bandit would keep its initial exploration bonus
        // forever and its argmax would be dominated by gradient norms.
        let mut s = self.scratch_slot.take().unwrap_or_else(|| self.scratch());
        self.arms.encode_into(context, workload, &mut s.enc);
        self.net.forward_with_gradient_into(&s.enc, &mut s.mlp, &mut s.grad);
        self.dinv.rank1_update(&s.grad);
        self.buffer.push(&s.enc, workload, reward);
        self.scratch_slot = Some(s);
        if self.buffer.len() >= self.cfg.batch_size {
            self.flush_buffer();
        }
    }

    fn trials(&self) -> u64 {
        self.trials
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn arms() -> CandidateCapacities {
        CandidateCapacities::range(10.0, 50.0, 10.0)
    }

    /// Ground-truth reward: peaks sharply at capacity 30 regardless of
    /// context (10 and 50 give 0.1; 30 gives 0.5).
    fn true_reward(c: f64) -> f64 {
        0.5 - 0.001 * (c - 30.0) * (c - 30.0)
    }

    fn bandit(seed: u64) -> NnUcb {
        let mut rng = StdRng::seed_from_u64(seed);
        let cfg = NnUcbConfig { lr: 0.02, train_epochs: 8, ..Default::default() };
        NnUcb::new(&mut rng, 2, arms(), cfg)
    }

    #[test]
    fn covariance_dimension_tracks_trainable_params() {
        let b = bandit(1);
        assert_eq!(
            b.net.trainable_param_count(),
            match &b.dinv {
                linalg::InverseTracker::Diagonal { diag } => diag.len(),
                linalg::InverseTracker::Full { inv } => inv.rows(),
            }
        );
    }

    #[test]
    fn update_buffers_until_batch_size() {
        let mut b = bandit(2);
        for i in 0..15 {
            b.update(&[0.1, 0.2], 20.0, 0.25);
            assert_eq!(b.buffer.len(), i + 1);
        }
        b.update(&[0.1, 0.2], 20.0, 0.25);
        assert!(b.buffer.is_empty(), "buffer should flush at batchSize=16");
        assert_eq!(b.trials(), 16);
    }

    #[test]
    fn learns_the_reward_peak() {
        let mut b = bandit(3);
        let ctx = [0.5, 0.5];
        // Feed trials covering every arm so the network sees the whole
        // reward curve.
        for _round in 0..80 {
            for &c in arms().values() {
                b.update(&ctx, c, true_reward(c));
            }
        }
        b.flush();
        // The greedy estimate should now be the true best arm (30).
        let picked = b.estimate(&ctx);
        assert!((picked - 30.0).abs() <= 10.0, "picked {picked}, expected near 30");
        // And the predicted curve should rank 30 above the extremes.
        let p10 = b.predict(&ctx, 10.0);
        let p30 = b.predict(&ctx, 30.0);
        let p50 = b.predict(&ctx, 50.0);
        assert!(p30 > p10 && p30 > p50, "curve {p10} {p30} {p50}");
    }

    #[test]
    fn choose_commits_covariance() {
        let mut b = bandit(4);
        let ctx = [0.3, 0.7];
        let enc_bonus_before: f64 = {
            let enc = b.arms.encode(&ctx, b.estimate(&ctx));
            let g = b.net.param_gradient(&enc);
            b.dinv.exploration_bonus(1.0, &g)
        };
        for _ in 0..20 {
            b.choose(&ctx);
        }
        let enc_bonus_after: f64 = {
            let enc = b.arms.encode(&ctx, b.estimate(&ctx));
            let g = b.net.param_gradient(&enc);
            b.dinv.exploration_bonus(1.0, &g)
        };
        assert!(
            enc_bonus_after < enc_bonus_before,
            "bonus should shrink: {enc_bonus_before} -> {enc_bonus_after}"
        );
    }

    #[test]
    fn estimate_is_pure() {
        let b = bandit(5);
        let ctx = [0.2, 0.9];
        let a = b.estimate(&ctx);
        let b2 = b.estimate(&ctx);
        assert_eq!(a, b2);
    }

    #[test]
    fn ucb_exceeds_prediction() {
        let b = bandit(6);
        let ctx = [0.4, 0.1];
        for &c in b.arms().values() {
            assert!(b.ucb(&ctx, c) >= b.predict(&ctx, c));
        }
    }

    #[test]
    fn network_persistence_roundtrip() {
        // Persisting the reward network (neural::serialize) and
        // re-wrapping it restores identical predictions — the warm-start
        // path for a platform restart.
        let mut b = bandit(8);
        for i in 0..32 {
            b.update(&[0.3, 0.7], 10.0 + (i % 6) as f64 * 10.0, 0.2);
        }
        b.flush();
        let text = neural::serialize::to_text(b.network());
        let restored = NnUcb::from_network(
            neural::serialize::from_text(&text).unwrap(),
            b.arms().clone(),
            b.config().clone(),
        );
        for &c in b.arms().values() {
            assert_eq!(b.predict(&[0.3, 0.7], c), restored.predict(&[0.3, 0.7], c));
        }
    }

    /// One per-sample training step, the reference the batch step
    /// reproduces: `loss_gradient`, the norm clip, `apply_trainable_delta`.
    fn reference_step(net: &mut Mlp, inputs: &[Vec<f64>], targets: &[f64], lr: f64, lambda: f64) {
        let (_, mut grad) = net.loss_gradient(inputs, targets, lambda);
        let norm = linalg::vector::norm2(&grad);
        if norm > 50.0 {
            linalg::vector::scale(50.0 / norm, &mut grad);
        }
        net.apply_trainable_delta(-lr, &grad);
    }

    fn param_bits(net: &Mlp) -> Vec<u64> {
        net.trainable_params().iter().map(|v| v.to_bits()).collect()
    }

    /// A varied trial stream: contexts, workloads and rewards all move.
    fn trial(i: usize) -> ([f64; 2], f64, f64) {
        let ctx = [0.05 * (i % 13) as f64, 1.0 - 0.03 * (i % 7) as f64];
        (ctx, 10.0 + (i % 5) as f64 * 10.0, 0.1 + 0.02 * (i % 9) as f64)
    }

    #[test]
    fn replay_ring_trains_on_its_fifo_window_oldest_first() {
        let mut rng = StdRng::seed_from_u64(41);
        let cfg = NnUcbConfig { lr: 0.05, train_epochs: 3, replay_cap: 32, ..Default::default() };
        let mut b = NnUcb::new(&mut rng, 2, arms(), cfg.clone());
        let mut reference = b.network().clone();
        let mut window: std::collections::VecDeque<(Vec<f64>, f64)> = Default::default();
        let (mut pending, mut flushes, mut sample_epochs) = (Vec::new(), 0, 0);
        for i in 0..100 {
            let (ctx, w, r) = trial(i);
            b.update(&ctx, w, r);
            pending.push((b.arms().encode(&ctx, w), r));
            if pending.len() < cfg.batch_size {
                continue;
            }
            for t in pending.drain(..) {
                if window.len() == cfg.replay_cap {
                    window.pop_front();
                }
                window.push_back(t);
            }
            let inputs: Vec<Vec<f64>> = window.iter().map(|(x, _)| x.clone()).collect();
            let targets: Vec<f64> = window.iter().map(|&(_, r)| r).collect();
            let lr = cfg.lr / inputs.len() as f64;
            for _ in 0..cfg.train_epochs {
                reference_step(&mut reference, &inputs, &targets, lr, cfg.lambda);
            }
            flushes += 1;
            sample_epochs += (inputs.len() * cfg.train_epochs) as u64;
            assert_eq!(param_bits(b.network()), param_bits(&reference), "flush {flushes}");
            assert_eq!(b.train_sample_epochs(), sample_epochs, "flush {flushes}");
        }
        assert_eq!(flushes, 6, "the 32-trial ring wraps several times");
    }

    #[test]
    fn full_state_roundtrip_is_bit_identical() {
        // write_state/read_state must restore covariance, buffers, the
        // replay ring and counters too — UCBs (not just predictions)
        // match exactly, and the restored bandit evolves identically.
        let mut rng = StdRng::seed_from_u64(15);
        let cfg = NnUcbConfig { lr: 0.02, train_epochs: 8, replay_cap: 32, ..Default::default() };
        let mut b = NnUcb::new(&mut rng, 2, arms(), cfg);
        for i in 0..75 {
            // 75 trials flush 64 through the 32-trial ring, which has
            // wrapped, and leave 11 in the buffer at checkpoint time.
            let (ctx, w, r) = trial(i);
            b.update(&ctx, w, r);
        }
        assert_eq!((b.replay.len(), b.buffer.len()), (32, 11));
        let mut text = String::new();
        b.write_state(&mut text);
        let mut restored =
            NnUcb::read_state(&mut text.lines(), b.arms().clone(), b.config().clone()).unwrap();
        assert_eq!(restored.trials(), b.trials());
        assert_eq!(restored.cumulative_reward(), b.cumulative_reward());
        for &c in b.arms().values() {
            assert_eq!(b.ucb(&[0.4, 0.2], c), restored.ucb(&[0.4, 0.2], c));
        }
        // Divergence test: run both forward identically, through two
        // more flushes of the ring.
        for i in 75..115 {
            let (ctx, w, r) = trial(i);
            b.update(&ctx, w, r);
            restored.update(&ctx, w, r);
        }
        let (mut after, mut restored_after) = (String::new(), String::new());
        b.write_state(&mut after);
        restored.write_state(&mut restored_after);
        assert_eq!(after, restored_after);
        for &c in b.arms().values() {
            assert_eq!(
                b.predict(&[0.1, 0.9], c).to_bits(),
                restored.predict(&[0.1, 0.9], c).to_bits()
            );
        }
        assert_eq!(b.estimate(&[0.1, 0.9]), restored.estimate(&[0.1, 0.9]));
        assert_eq!(b.ucb(&[0.1, 0.9], 30.0), restored.ucb(&[0.1, 0.9], 30.0));
    }

    #[test]
    fn read_state_rejects_corruption() {
        let mut b = bandit(16);
        b.update(&[0.5, 0.5], 20.0, 0.2);
        let mut text = String::new();
        b.write_state(&mut text);
        // NaN smuggled into the covariance line.
        let with_nan: String = text
            .lines()
            .map(|l| {
                if let Some(rest) = l.strip_prefix("nnucb-dinv ") {
                    let mut toks: Vec<String> = rest.split_whitespace().map(String::from).collect();
                    toks[0] = "NaN".to_string();
                    format!("nnucb-dinv {}", toks.join(" "))
                } else {
                    l.to_string()
                }
            })
            .collect::<Vec<_>>()
            .join("\n");
        assert!(
            NnUcb::read_state(&mut with_nan.lines(), b.arms().clone(), b.config().clone()).is_err(),
            "NaN covariance must be rejected"
        );
        // Truncation rejected.
        let cut: String = text.lines().take(4).collect::<Vec<_>>().join("\n");
        assert!(NnUcb::read_state(&mut cut.lines(), b.arms().clone(), b.config().clone()).is_err());
    }

    #[test]
    fn cumulative_reward_accumulates() {
        let mut b = bandit(7);
        b.update(&[0.0, 0.0], 10.0, 0.2);
        b.update(&[0.0, 0.0], 10.0, 0.3);
        assert!((b.cumulative_reward() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn scratch_paths_match_allocating_paths_bitwise() {
        let mut b = bandit(21);
        for i in 0..40 {
            b.update(&[0.2 + 0.01 * i as f64, 0.6], 10.0 + (i % 5) as f64 * 10.0, 0.2);
        }
        b.flush();
        let mut s = b.scratch();
        for ctx in [[0.1, 0.9], [0.5, 0.5], [0.8, 0.2]] {
            for &c in b.arms().values() {
                assert_eq!(b.predict(&ctx, c).to_bits(), b.predict_with(&ctx, c, &mut s).to_bits());
                assert_eq!(b.ucb(&ctx, c).to_bits(), b.ucb_with(&ctx, c, &mut s).to_bits());
                // `ucb_with` leaves the arm's gradient behind, bit-equal
                // to the allocating gradient path.
                let g = b.net.param_gradient(&b.arms.encode(&ctx, c));
                assert_eq!(g.len(), s.grad.len());
                for (a, w) in g.iter().zip(&s.grad) {
                    assert_eq!(a.to_bits(), w.to_bits());
                }
            }
            assert_eq!(b.estimate(&ctx).to_bits(), b.estimate_with(&ctx, &mut s).to_bits());
        }
    }

    /// `choose` must commit the *chosen* arm's gradient to `D`, not the
    /// last arm scored. On this input both policies choose arm 20 of
    /// 10–50, an interior arm, so the phase-two gradient recompute runs.
    #[test]
    fn choose_commits_the_chosen_arms_gradient() {
        for selection in
            [CapacitySelection::ArgmaxUcb, CapacitySelection::KneePlateau { tolerance: 0.05 }]
        {
            let mut rng = StdRng::seed_from_u64(33);
            let cfg = NnUcbConfig { selection, ..Default::default() };
            let mut b = NnUcb::new(&mut rng, 2, arms(), cfg);
            for i in 0..40 {
                b.update(&[0.3, 0.7], 10.0 + (i % 5) as f64 * 10.0, true_reward(30.0) * 0.9);
            }
            b.flush();
            let ctx = [0.3, 0.7];
            let mut manual = b.clone();
            let cap = b.choose(&ctx);
            assert_eq!(cap, manual.estimate(&ctx), "choose and estimate must agree");
            // Reproduce the covariance commit by hand on the clone.
            let g = manual.net.param_gradient(&manual.arms.encode(&ctx, cap));
            manual.dinv.rank1_update(&g);
            match (&b.dinv, &manual.dinv) {
                (
                    InverseTracker::Diagonal { diag: got },
                    InverseTracker::Diagonal { diag: want },
                ) => {
                    for (a, w) in got.iter().zip(want) {
                        assert_eq!(a.to_bits(), w.to_bits(), "selection {selection:?}");
                    }
                }
                _ => panic!("expected diagonal covariance in this test"),
            }
        }
    }
}
