//! ε-greedy neural capacity estimation — the classic epoch-greedy
//! comparison point (Langford & Zhang, NeurIPS'07) for the UCB policies.

use crate::arms::CandidateCapacities;
use crate::traits::CapacityEstimator;
use neural::{Mlp, MlpBuilder, TrainScratch};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// ε-greedy over the same MLP reward model as the UCB policies: with
/// probability `ε` play a uniformly random arm, otherwise the greedy
/// argmax of `S_θ(x, c)`. No confidence machinery at all — the ablation
/// that isolates what the UCB bonus buys.
#[derive(Clone, Debug)]
pub struct EpsilonGreedy {
    arms: CandidateCapacities,
    net: Mlp,
    epsilon: f64,
    lr: f64,
    batch_size: usize,
    /// Buffered trials, encoded: one `arms.encode(x, w)` row each.
    rows: Vec<f64>,
    /// Each buffered trial's reward.
    rewards: Vec<f64>,
    /// Training buffers, reused across flushes (derived state).
    train: TrainScratch,
    rng: StdRng,
    trials: u64,
    cumulative_reward: f64,
}

impl EpsilonGreedy {
    /// Create an ε-greedy policy.
    ///
    /// # Panics
    /// Panics unless `0 ≤ ε ≤ 1`.
    pub fn new(
        seed: u64,
        context_dim: usize,
        arms: CandidateCapacities,
        epsilon: f64,
        lr: f64,
    ) -> Self {
        assert!((0.0..=1.0).contains(&epsilon), "epsilon must be in [0,1]");
        let mut rng = StdRng::seed_from_u64(seed);
        let net = MlpBuilder::new(arms.encoded_dim(context_dim)).hidden(&[16, 8]).build(&mut rng);
        Self {
            arms,
            net,
            epsilon,
            lr,
            batch_size: 16,
            rows: Vec::new(),
            rewards: Vec::new(),
            train: TrainScratch::default(),
            rng,
            trials: 0,
            cumulative_reward: 0.0,
        }
    }

    /// Greedy prediction for one arm.
    pub fn predict(&self, context: &[f64], capacity: f64) -> f64 {
        self.net.forward(&self.arms.encode(context, capacity))
    }

    fn greedy_arm(&self, context: &[f64]) -> usize {
        let mut best = 0;
        let mut best_v = f64::NEG_INFINITY;
        for (i, &c) in self.arms.values().iter().enumerate() {
            let v = self.predict(context, c);
            if v > best_v {
                best_v = v;
                best = i;
            }
        }
        best
    }

    /// Total reward observed.
    pub fn cumulative_reward(&self) -> f64 {
        self.cumulative_reward
    }
}

impl CapacityEstimator for EpsilonGreedy {
    fn estimate(&self, context: &[f64]) -> f64 {
        self.arms.value(self.greedy_arm(context))
    }

    fn choose(&mut self, context: &[f64]) -> f64 {
        if self.rng.gen::<f64>() < self.epsilon {
            let i = self.rng.gen_range(0..self.arms.len());
            self.arms.value(i)
        } else {
            self.arms.value(self.greedy_arm(context))
        }
    }

    fn update(&mut self, context: &[f64], workload: f64, reward: f64) {
        self.trials += 1;
        self.cumulative_reward += reward;
        self.arms.encode_append(context, workload, &mut self.rows);
        self.rewards.push(reward);
        if self.rewards.len() >= self.batch_size {
            let lr = self.lr / self.rewards.len() as f64;
            for _ in 0..6 {
                self.net.train_step_rows(
                    &self.rows,
                    &self.rewards,
                    lr,
                    1e-4,
                    50.0,
                    &mut self.train,
                );
            }
            self.rows.clear();
            self.rewards.clear();
        }
    }

    fn trials(&self) -> u64 {
        self.trials
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arms() -> CandidateCapacities {
        CandidateCapacities::range(10.0, 50.0, 10.0)
    }

    #[test]
    fn pure_greedy_never_randomizes() {
        let mut e = EpsilonGreedy::new(1, 1, arms(), 0.0, 0.05);
        let first = e.choose(&[0.5]);
        for _ in 0..20 {
            assert_eq!(e.choose(&[0.5]), first);
        }
    }

    #[test]
    fn full_epsilon_explores_all_arms() {
        let mut e = EpsilonGreedy::new(2, 1, arms(), 1.0, 0.05);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..200 {
            seen.insert(e.choose(&[0.5]) as i64);
        }
        assert_eq!(seen.len(), arms().len());
    }

    #[test]
    fn learns_simple_peak() {
        let mut e = EpsilonGreedy::new(3, 1, arms(), 0.2, 0.05);
        let reward = |c: f64| 0.5 - 0.001 * (c - 30.0) * (c - 30.0);
        for _ in 0..80 {
            for &c in arms().values() {
                e.update(&[0.5], c, reward(c));
            }
        }
        let picked = e.estimate(&[0.5]);
        assert!((picked - 30.0).abs() <= 10.0, "picked {picked}");
    }

    #[test]
    #[should_panic(expected = "epsilon must be in [0,1]")]
    fn invalid_epsilon_panics() {
        EpsilonGreedy::new(0, 1, arms(), 1.5, 0.05);
    }
}
