//! Shrinkage-based personalised capacity estimation.
//!
//! The paper personalises by fine-tuning the last network layer per
//! broker (Sec. V-D). With production-scale logs that works; in a closed
//! 21-day loop each broker contributes ~20 noisy trials, far too few to
//! fit even a single layer reliably (we measured the fine-tuned readers
//! drifting to arbitrary arms). This module provides the robust
//! alternative the experiments default to:
//!
//! * a **generic NN-enhanced UCB base** (unchanged, Alg. 1) learns the
//!   population/contextual reward curve;
//! * each broker keeps **tabular per-arm reward statistics** — a classic
//!   (non-contextual) bandit view of its own trials;
//! * the deployed estimate blends the tabular knee with the base
//!   curve's knee by trial count: `n/(n+m)` shrinkage, so brokers with
//!   little history follow the contextual prior and brokers with rich
//!   history follow their own data.
//!
//! The layer-transfer estimator ([`crate::PersonalizedEstimator`])
//! remains available and is compared against this one in the ablation
//! benches.

use crate::arms::CandidateCapacities;
use crate::nn_ucb::{NnUcb, NnUcbConfig, NnUcbScratch};
use crate::state;
use crate::traits::CapacityEstimator;
use rand::Rng;

/// Plateau tolerance for reading a knee off a reward curve.
const PLATEAU_TOL: f64 = 0.1;

/// Shrinkage pseudo-count `m`: the blend weight of the broker's own
/// evidence is `n/(n+m)`.
const PSEUDO_COUNT: f64 = 3.0;

/// Pooled trials the base needs before its curve is trusted; until then
/// [`ShrinkageEstimator::base_knee`] returns the optimistic default (the
/// 75th-percentile arm) — under-capping strong brokers on day one costs
/// far more than a few overloaded days.
const WARMUP_TRIALS: u64 = 128;

/// Margin added above the detected knee: the platform-optimal cap sits
/// slightly past the knee (serve while the broker's degraded marginal
/// utility still beats the next-best alternative).
pub const KNEE_MARGIN: f64 = 5.0;

/// Per-broker, per-arm running reward statistics.
#[derive(Clone, Debug)]
struct ArmStats {
    sum: Vec<f64>,
    count: Vec<f64>,
}

impl ArmStats {
    fn new(arms: usize) -> Self {
        Self { sum: vec![0.0; arms], count: vec![0.0; arms] }
    }

    fn record(&mut self, arm: usize, reward: f64) {
        self.sum[arm] += reward;
        self.count[arm] += 1.0;
    }

    fn mean(&self, arm: usize) -> Option<f64> {
        (self.count[arm] > 0.0).then(|| self.sum[arm] / self.count[arm])
    }

    fn total(&self) -> f64 {
        self.count.iter().sum()
    }
}

/// Population-prior + per-broker-evidence capacity estimator.
#[derive(Clone, Debug)]
pub struct ShrinkageEstimator {
    base: NnUcb,
    stats: Vec<ArmStats>,
    arms: CandidateCapacities,
}

impl ShrinkageEstimator {
    /// Create an estimator for `num_brokers` brokers.
    pub fn new<R: Rng + ?Sized>(
        rng: &mut R,
        num_brokers: usize,
        context_dim: usize,
        arms: CandidateCapacities,
        cfg: NnUcbConfig,
    ) -> Self {
        let base = NnUcb::new(rng, context_dim, arms.clone(), cfg);
        let stats = (0..num_brokers).map(|_| ArmStats::new(arms.len())).collect();
        Self { base, stats, arms }
    }

    /// Arm value at the given quantile of the sorted arm set.
    fn arm_quantile(&self, q: f64) -> f64 {
        let mut vals = self.arms.values().to_vec();
        vals.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let idx = ((vals.len() - 1) as f64 * q).round() as usize;
        vals[idx]
    }

    /// The shared base bandit.
    pub fn base(&self) -> &NnUcb {
        &self.base
    }

    /// Mutable access to the shared base bandit (covariance repair and
    /// the state-corruption harness).
    pub fn base_mut(&mut self) -> &mut NnUcb {
        &mut self.base
    }

    /// Broker `b`'s per-arm `(sum, count)` statistics — read side of
    /// the bandit-state invariant audit.
    pub fn arm_stats(&self, b: usize) -> (&[f64], &[f64]) {
        (&self.stats[b].sum, &self.stats[b].count)
    }

    /// Mutable view of broker `b`'s per-arm `(sum, count)` statistics,
    /// for the seeded state-corruption injectors.
    pub fn arm_stats_mut(&mut self, b: usize) -> (&mut [f64], &mut [f64]) {
        let st = &mut self.stats[b];
        (&mut st.sum, &mut st.count)
    }

    /// Selectively overwrite broker `b`'s statistics from `donor`'s
    /// (per-broker checkpoint repair). The donor must use the same arm
    /// set size.
    pub fn copy_broker_stats(
        &mut self,
        donor: &ShrinkageEstimator,
        b: usize,
    ) -> Result<(), String> {
        if donor.arms.len() != self.arms.len() {
            return Err(format!(
                "donor has {} arms, estimator expects {}",
                donor.arms.len(),
                self.arms.len()
            ));
        }
        if b >= self.stats.len() || b >= donor.stats.len() {
            return Err(format!("broker {b} out of range"));
        }
        self.stats[b] = donor.stats[b].clone();
        Ok(())
    }

    /// Reset broker `b`'s statistics to the empty prior
    /// (re-initialization repair when no good checkpoint exists).
    pub fn reset_broker_stats(&mut self, b: usize) {
        self.stats[b] = ArmStats::new(self.arms.len());
    }

    /// Build reusable scoring buffers sized for the base network — one
    /// per worker thread for parallel per-broker estimation.
    pub fn scratch(&self) -> NnUcbScratch {
        self.base.scratch()
    }

    /// Number of trials broker `b` has contributed.
    pub fn broker_trials(&self, b: usize) -> f64 {
        self.stats[b].total()
    }

    /// Knee read off the base network's predicted curve for a context:
    /// the largest arm whose prediction stays within `PLATEAU_TOL` of the
    /// best. When the curve is too flat to carry information (range below
    /// tolerance), fall back to the median arm — an uninformative prior
    /// beats reading noise.
    pub fn base_knee(&self, context: &[f64]) -> f64 {
        let mut s = self.base.scratch();
        self.base_knee_with(context, &mut s)
    }

    /// Allocation-free [`Self::base_knee`]: same value, buffers reused.
    pub fn base_knee_with(&self, context: &[f64], s: &mut NnUcbScratch) -> f64 {
        if self.base.trials() < WARMUP_TRIALS {
            // Untrained curves are noise; start optimistic.
            return self.arm_quantile(0.75);
        }
        s.preds.clear();
        for &c in self.arms.values() {
            let p = self.base.predict_with(context, c, s);
            s.preds.push(p);
        }
        let max = s.preds.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let min = s.preds.iter().cloned().fold(f64::INFINITY, f64::min);
        if max - min < PLATEAU_TOL * max.abs() {
            // Uninformative curve: population median arm.
            return self.arm_quantile(0.5);
        }
        let cutoff = max - PLATEAU_TOL * max.abs();
        self.arms
            .values()
            .iter()
            .enumerate()
            .filter(|&(i, _)| s.preds[i] >= cutoff)
            .map(|(_, &c)| c)
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Knee read off broker `b`'s own arm statistics, when enough arms
    /// have data: largest observed arm whose mean reward stays within
    /// `PLATEAU_TOL` of the best observed mean. If that arm is the
    /// highest one observed (no decline seen yet), probe one arm higher —
    /// optimism where the data has not yet reached.
    pub fn empirical_knee(&self, b: usize) -> Option<f64> {
        let st = &self.stats[b];
        let observed: Vec<(usize, f64)> =
            (0..self.arms.len()).filter_map(|i| st.mean(i).map(|m| (i, m))).collect();
        if observed.len() < 2 {
            return None;
        }
        let best = observed.iter().map(|&(_, m)| m).fold(f64::NEG_INFINITY, f64::max);
        let cutoff = best - PLATEAU_TOL * best.abs();
        let knee_idx = observed
            .iter()
            .filter(|&&(_, m)| m >= cutoff)
            .map(|&(i, _)| i)
            .max_by(|&a, &b| self.arms.value(a).partial_cmp(&self.arms.value(b)).unwrap())?;
        let highest_observed = observed
            .iter()
            .map(|&(i, _)| i)
            .max_by(|&a, &b| self.arms.value(a).partial_cmp(&self.arms.value(b)).unwrap())?;
        if knee_idx == highest_observed {
            // No decline observed yet: extend one arm upward (bounded).
            let mut order: Vec<usize> = (0..self.arms.len()).collect();
            order.sort_by(|&a, &b| self.arms.value(a).partial_cmp(&self.arms.value(b)).unwrap());
            let pos = order.iter().position(|&i| i == knee_idx).expect("present");
            let next = order.get(pos + 1).copied().unwrap_or(knee_idx);
            return Some(self.arms.value(next));
        }
        Some(self.arms.value(knee_idx))
    }

    /// Personalised estimate for broker `b`: count-weighted blend of the
    /// broker's empirical knee and the contextual base knee.
    pub fn estimate(&self, b: usize, context: &[f64]) -> f64 {
        let mut s = self.base.scratch();
        self.estimate_with(b, context, &mut s)
    }

    /// Allocation-free [`Self::estimate`]: same value, buffers reused.
    /// `&self`-pure, so independent brokers can be estimated in parallel
    /// with one scratch per worker thread.
    pub fn estimate_with(&self, b: usize, context: &[f64], s: &mut NnUcbScratch) -> f64 {
        let base = self.base_knee_with(context, s);
        let knee = match self.empirical_knee(b) {
            Some(emp) => {
                let n = self.stats[b].total();
                let w = n / (n + PSEUDO_COUNT);
                w * emp + (1.0 - w) * base
            }
            None => base,
        };
        knee + KNEE_MARGIN
    }

    /// Record a trial `(x, w, s)` for broker `b`: feeds both the shared
    /// base bandit and the broker's arm bucket nearest to the observed
    /// workload.
    pub fn update(&mut self, b: usize, context: &[f64], workload: f64, reward: f64) {
        self.base.update(context, workload, reward);
        let arm = self.arms.nearest(workload);
        self.stats[b].record(arm, reward);
    }

    /// Flush the base bandit's buffered trials.
    pub fn flush(&mut self) {
        self.base.flush();
    }

    /// Training work so far (see [`NnUcb::train_sample_epochs`]).
    pub fn train_sample_epochs(&self) -> u64 {
        self.base.train_sample_epochs()
    }

    /// Serialise the learned state: the shared base bandit plus every
    /// broker's per-arm statistics.
    pub fn write_state(&self, out: &mut String) {
        state::push_kv(out, "shrinkage-brokers", self.stats.len());
        self.base.write_state(out);
        for st in &self.stats {
            state::push_floats(out, "arm-sum", &st.sum);
            state::push_floats(out, "arm-count", &st.count);
        }
    }

    /// Rebuild from [`ShrinkageEstimator::write_state`] output; the
    /// expected broker count and arm set come from the live
    /// configuration and are validated against the checkpoint.
    pub fn read_state<'a, I: Iterator<Item = &'a str>>(
        lines: &mut I,
        num_brokers: usize,
        arms: CandidateCapacities,
        cfg: NnUcbConfig,
    ) -> Result<ShrinkageEstimator, String> {
        let brokers: usize =
            state::parse_one(state::expect_key(lines, "shrinkage-brokers")?, "broker count")?;
        if brokers != num_brokers {
            return Err(format!(
                "checkpoint has {brokers} brokers, configuration expects {num_brokers}"
            ));
        }
        let base = NnUcb::read_state(lines, arms.clone(), cfg)?;
        let mut stats = Vec::with_capacity(brokers);
        for b in 0..brokers {
            let sum = state::parse_floats(state::expect_key(lines, "arm-sum")?, "arm sums")?;
            let count = state::parse_floats(state::expect_key(lines, "arm-count")?, "arm counts")?;
            state::require_len(&sum, arms.len(), &format!("broker {b} arm sums"))?;
            state::require_len(&count, arms.len(), &format!("broker {b} arm counts"))?;
            state::require_finite(&sum, &format!("broker {b} arm sums"))?;
            state::require_finite(&count, &format!("broker {b} arm counts"))?;
            stats.push(ArmStats { sum, count });
        }
        Ok(ShrinkageEstimator { base, stats, arms })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn arms() -> CandidateCapacities {
        CandidateCapacities::range(10.0, 60.0, 10.0)
    }

    fn estimator(n: usize) -> ShrinkageEstimator {
        let mut rng = StdRng::seed_from_u64(31);
        let cfg = NnUcbConfig { lr: 0.05, train_epochs: 8, replay_cap: 256, ..Default::default() };
        ShrinkageEstimator::new(&mut rng, n, 2, arms(), cfg)
    }

    /// Flat-then-decline reward with knee at `knee`.
    fn rate(w: f64, knee: f64) -> f64 {
        if w <= knee {
            0.3
        } else {
            0.3 * (-0.08 * (w - knee)).exp()
        }
    }

    #[test]
    fn empirical_knee_reads_decline() {
        let mut e = estimator(1);
        for _ in 0..4 {
            for &w in &[10.0, 20.0, 30.0, 40.0, 50.0, 60.0] {
                e.update(0, &[0.5, 0.5], w, rate(w, 30.0));
            }
        }
        let knee = e.empirical_knee(0).unwrap();
        assert!((knee - 30.0).abs() <= 10.0, "knee = {knee}");
    }

    #[test]
    fn no_decline_extends_optimistically() {
        let mut e = estimator(1);
        // Only low arms observed, all flat.
        for _ in 0..3 {
            e.update(0, &[0.5, 0.5], 10.0, 0.3);
            e.update(0, &[0.5, 0.5], 20.0, 0.3);
        }
        let knee = e.empirical_knee(0).unwrap();
        assert_eq!(knee, 30.0, "should probe one arm above the highest observed");
    }

    #[test]
    fn too_little_data_returns_none() {
        let mut e = estimator(1);
        e.update(0, &[0.5, 0.5], 20.0, 0.3);
        assert!(e.empirical_knee(0).is_none());
    }

    #[test]
    fn estimate_shrinks_toward_base_with_few_trials() {
        let mut e = estimator(2);
        // Broker 0 gets rich evidence of a knee at 20; broker 1 none.
        for _ in 0..10 {
            for &w in &[10.0, 20.0, 30.0, 40.0, 50.0, 60.0] {
                e.update(0, &[0.5, 0.5], w, rate(w, 20.0));
            }
        }
        e.flush();
        let rich = e.estimate(0, &[0.5, 0.5]);
        let poor = e.estimate(1, &[0.5, 0.5]);
        let base = e.base_knee(&[0.5, 0.5]);
        assert_eq!(poor, base + 5.0, "no evidence → prior plus knee margin");
        assert!(
            (rich - 25.0).abs() <= 12.0,
            "rich evidence should dominate: est {rich}, base {base}"
        );
    }

    #[test]
    fn uninformative_base_curve_returns_median_arm() {
        let e = estimator(1);
        // Untrained network: output near constant → flat curve → median.
        let knee = e.base_knee(&[0.5, 0.5]);
        // Median of {10..60} = 40 (upper median of 6 values).
        assert!((10.0..=60.0).contains(&knee));
    }

    #[test]
    fn state_roundtrip_preserves_estimates_exactly() {
        let mut e = estimator(3);
        for _ in 0..6 {
            for &w in &[10.0, 20.0, 30.0, 40.0, 50.0, 60.0] {
                e.update(0, &[0.5, 0.5], w, rate(w, 20.0));
                e.update(2, &[0.4, 0.6], w, rate(w, 50.0));
            }
        }
        let mut text = String::new();
        e.write_state(&mut text);
        let cfg = e.base().config().clone();
        let mut back = ShrinkageEstimator::read_state(&mut text.lines(), 3, arms(), cfg).unwrap();
        for b in 0..3 {
            assert_eq!(back.estimate(b, &[0.5, 0.5]), e.estimate(b, &[0.5, 0.5]));
            assert_eq!(back.broker_trials(b), e.broker_trials(b));
        }
        // Evolve both identically and re-compare.
        for &w in &[20.0, 40.0] {
            e.update(1, &[0.3, 0.3], w, rate(w, 30.0));
            back.update(1, &[0.3, 0.3], w, rate(w, 30.0));
        }
        assert_eq!(back.estimate(1, &[0.3, 0.3]), e.estimate(1, &[0.3, 0.3]));
    }

    #[test]
    fn state_rejects_broker_count_mismatch() {
        let e = estimator(2);
        let mut text = String::new();
        e.write_state(&mut text);
        let cfg = e.base().config().clone();
        assert!(ShrinkageEstimator::read_state(&mut text.lines(), 5, arms(), cfg).is_err());
    }

    #[test]
    fn separates_brokers_with_identical_contexts() {
        let mut e = estimator(2);
        for _ in 0..8 {
            for &w in &[10.0, 20.0, 30.0, 40.0, 50.0, 60.0] {
                e.update(0, &[0.5, 0.5], w, rate(w, 20.0));
                e.update(1, &[0.5, 0.5], w, rate(w, 50.0));
            }
        }
        e.flush();
        let c0 = e.estimate(0, &[0.5, 0.5]);
        let c1 = e.estimate(1, &[0.5, 0.5]);
        assert!(c0 < c1, "knee-20 broker {c0} vs knee-50 broker {c1}");
    }
}
