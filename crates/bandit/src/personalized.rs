//! Personalized workload-capacity estimation via layer transfer
//! (Sec. V-D of the paper).
//!
//! A single **base** NN-enhanced UCB bandit trains on the pooled trials
//! of all brokers, `∪_b T_b`. Once a broker has enough of its own trials,
//! it receives an **exclusive bandit** `B_b`: a copy of the base network
//! with the first `L−1` layers frozen, fine-tuned (last layer only) on
//! that broker's trials. The frozen-layer covariance trick means each
//! personalised bandit maintains a tiny `D` over just the output layer's
//! parameters — this is what makes per-broker bandits affordable at
//! city scale (thousands of brokers).

use crate::arms::CandidateCapacities;
use crate::nn_ucb::{NnUcb, NnUcbConfig};
use crate::state;
use crate::traits::CapacityEstimator;
use rand::Rng;

/// The personalised estimator: one base bandit plus lazily created
/// per-broker fine-tuned bandits.
#[derive(Clone, Debug)]
pub struct PersonalizedEstimator {
    base: NnUcb,
    per_broker: Vec<Option<NnUcb>>,
    broker_trials: Vec<u64>,
    /// A broker gets an exclusive bandit after this many of its own
    /// trials have been absorbed by the base model.
    personalize_after: u64,
    /// The base must have absorbed this many pooled trials before any
    /// transfer happens: Sec. V-D trains `θ_base` on `∪_b T_b` *first*;
    /// freezing a barely-trained representation would permanently lock
    /// every personalised bandit to noise features.
    base_warmup: u64,
    arms: CandidateCapacities,
    cfg: NnUcbConfig,
}

impl PersonalizedEstimator {
    /// Create an estimator for `num_brokers` brokers with contexts of
    /// dimensionality `context_dim`.
    pub fn new<R: Rng + ?Sized>(
        rng: &mut R,
        num_brokers: usize,
        context_dim: usize,
        arms: CandidateCapacities,
        cfg: NnUcbConfig,
        personalize_after: u64,
    ) -> Self {
        let base = NnUcb::new(rng, context_dim, arms.clone(), cfg.clone());
        Self {
            base,
            per_broker: vec![None; num_brokers],
            broker_trials: vec![0; num_brokers],
            personalize_after,
            base_warmup: 256,
            arms,
            cfg,
        }
    }

    /// Override the pooled-trial count required before any broker is
    /// promoted to an exclusive bandit (default 256).
    pub fn set_base_warmup(&mut self, warmup: u64) {
        self.base_warmup = warmup;
    }

    /// Number of brokers managed.
    pub fn num_brokers(&self) -> usize {
        self.per_broker.len()
    }

    /// Whether broker `b` has been promoted to an exclusive bandit.
    pub fn is_personalized(&self, broker: usize) -> bool {
        self.per_broker[broker].is_some()
    }

    /// Access the shared base bandit.
    pub fn base(&self) -> &NnUcb {
        &self.base
    }

    /// Estimate broker `b`'s capacity for its current status (Alg. 2
    /// line 2: `c_b ← B_b.estimate(x_b)`).
    pub fn estimate(&self, broker: usize, context: &[f64]) -> f64 {
        match &self.per_broker[broker] {
            Some(bandit) => bandit.estimate(context),
            None => self.base.estimate(context),
        }
    }

    /// Estimate and commit the exploration step for broker `b`.
    pub fn choose(&mut self, broker: usize, context: &[f64]) -> f64 {
        match &mut self.per_broker[broker] {
            Some(bandit) => bandit.choose(context),
            None => self.base.choose(context),
        }
    }

    /// Record a trial triple `(x, w, s)` for broker `b` (Alg. 2 line 13:
    /// `B_b.update(x_b, w_b, s_b)`).
    ///
    /// The base model always learns from every broker (it is the prior
    /// for future personalisation); the broker's exclusive bandit — once
    /// created — learns in parallel.
    pub fn update(&mut self, broker: usize, context: &[f64], workload: f64, reward: f64) {
        self.base.update(context, workload, reward);
        self.broker_trials[broker] += 1;
        if self.per_broker[broker].is_none()
            && self.broker_trials[broker] >= self.personalize_after
            && self.base.trials() >= self.base_warmup
        {
            self.per_broker[broker] = Some(self.spawn_personal_bandit());
        }
        if let Some(bandit) = &mut self.per_broker[broker] {
            bandit.update(context, workload, reward);
        }
    }

    /// Build an exclusive bandit: copy the base network's parameters,
    /// freeze the first `L−1` layers, and wrap it with a fresh (small)
    /// covariance over the trainable output layer.
    fn spawn_personal_bandit(&self) -> NnUcb {
        let mut net = self.base.network().clone();
        net.freeze_all_but_last();
        // Fine-tuned bandits see few, broker-specific samples; a smaller
        // replay buffer keeps them responsive.
        let cfg = NnUcbConfig { batch_size: self.cfg.batch_size.min(8), ..self.cfg.clone() };
        NnUcb::from_network(net, self.arms.clone(), cfg)
    }

    /// Training work so far, the base and every exclusive bandit (see
    /// [`NnUcb::train_sample_epochs`]).
    pub fn train_sample_epochs(&self) -> u64 {
        let personal: u64 = self.per_broker.iter().flatten().map(NnUcb::train_sample_epochs).sum();
        self.base.train_sample_epochs() + personal
    }

    /// Flush any buffered trials into training (end of horizon).
    pub fn flush(&mut self) {
        self.base.flush();
        for b in self.per_broker.iter_mut().flatten() {
            b.flush();
        }
    }

    /// Serialise the learned state: base bandit, per-broker trial
    /// counters, and every promoted broker's exclusive bandit.
    pub fn write_state(&self, out: &mut String) {
        state::push_kv(out, "personalized-brokers", self.per_broker.len());
        state::push_kv(out, "personalized-after", self.personalize_after);
        state::push_kv(out, "personalized-warmup", self.base_warmup);
        self.base.write_state(out);
        for (b, bandit) in self.per_broker.iter().enumerate() {
            state::push_kv(out, "broker-trials", self.broker_trials[b]);
            match bandit {
                Some(p) => {
                    state::push_kv(out, "personal", 1);
                    p.write_state(out);
                }
                None => state::push_kv(out, "personal", 0),
            }
        }
    }

    /// Rebuild from [`PersonalizedEstimator::write_state`] output,
    /// validating the broker count against the live configuration.
    pub fn read_state<'a, I: Iterator<Item = &'a str>>(
        lines: &mut I,
        num_brokers: usize,
        arms: CandidateCapacities,
        cfg: NnUcbConfig,
    ) -> Result<PersonalizedEstimator, String> {
        let brokers: usize =
            state::parse_one(state::expect_key(lines, "personalized-brokers")?, "broker count")?;
        if brokers != num_brokers {
            return Err(format!(
                "checkpoint has {brokers} brokers, configuration expects {num_brokers}"
            ));
        }
        let personalize_after: u64 =
            state::parse_one(state::expect_key(lines, "personalized-after")?, "threshold")?;
        let base_warmup: u64 =
            state::parse_one(state::expect_key(lines, "personalized-warmup")?, "warmup")?;
        let base = NnUcb::read_state(lines, arms.clone(), cfg.clone())?;
        let personal_cfg = NnUcbConfig { batch_size: cfg.batch_size.min(8), ..cfg.clone() };
        let mut per_broker = Vec::with_capacity(brokers);
        let mut broker_trials = Vec::with_capacity(brokers);
        for _ in 0..brokers {
            broker_trials
                .push(state::parse_one(state::expect_key(lines, "broker-trials")?, "trials")?);
            let has: u8 = state::parse_one(state::expect_key(lines, "personal")?, "flag")?;
            per_broker.push(match has {
                0 => None,
                1 => Some(NnUcb::read_state(lines, arms.clone(), personal_cfg.clone())?),
                other => return Err(format!("bad personal flag {other}")),
            });
        }
        Ok(PersonalizedEstimator {
            base,
            per_broker,
            broker_trials,
            personalize_after,
            base_warmup,
            arms,
            cfg,
        })
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

    fn estimator(seed: u64, personalize_after: u64) -> PersonalizedEstimator {
        let mut rng = StdRng::seed_from_u64(seed);
        let cfg = NnUcbConfig { lr: 0.05, train_epochs: 6, ..Default::default() };
        let mut est = PersonalizedEstimator::new(&mut rng, 3, 1, arms(), cfg, personalize_after);
        // Unit tests exercise promotion mechanics directly; disable the
        // pooled warm-up gate (it is tested separately below).
        est.set_base_warmup(0);
        est
    }

    #[test]
    fn base_warmup_gates_promotion() {
        let mut rng = StdRng::seed_from_u64(21);
        let cfg = NnUcbConfig::default();
        let mut e = PersonalizedEstimator::new(&mut rng, 2, 1, arms(), cfg, 1);
        e.set_base_warmup(10);
        for _ in 0..9 {
            e.update(0, &[0.5], 20.0, 0.2);
        }
        assert!(!e.is_personalized(0), "warm-up not reached");
        e.update(0, &[0.5], 20.0, 0.2);
        assert!(e.is_personalized(0), "warm-up reached");
    }

    #[test]
    fn starts_generic_then_personalizes() {
        let mut e = estimator(1, 5);
        assert!(!e.is_personalized(0));
        for _ in 0..5 {
            e.update(0, &[0.5], 20.0, 0.2);
        }
        assert!(e.is_personalized(0));
        assert!(!e.is_personalized(1), "other brokers unaffected");
    }

    #[test]
    fn personal_bandit_trains_only_last_layer() {
        let mut e = estimator(2, 1);
        e.update(0, &[0.5], 20.0, 0.2);
        let personal = e.per_broker[0].as_ref().unwrap();
        let n_layers = personal.network().num_layers();
        for l in 0..n_layers - 1 {
            assert!(personal.network().is_frozen(l), "layer {l} should be frozen");
        }
        assert!(!personal.network().is_frozen(n_layers - 1));
        // Covariance over last layer only: far fewer params than base.
        assert!(
            personal.network().trainable_param_count() < e.base.network().trainable_param_count()
        );
    }

    #[test]
    fn personalization_tracks_broker_specific_peaks() {
        let mut e = estimator(3, 30);
        // Broker 0 peaks at 20, broker 1 peaks at 40 — contexts identical,
        // so only personalisation can separate them.
        let r0 = |c: f64| 0.3 - 0.0005 * (c - 20.0) * (c - 20.0);
        let r1 = |c: f64| 0.3 - 0.0005 * (c - 40.0) * (c - 40.0);
        for _ in 0..25 {
            for &c in arms().values() {
                e.update(0, &[0.5], c, r0(c));
                e.update(1, &[0.5], c, r1(c));
            }
        }
        e.flush();
        assert!(e.is_personalized(0) && e.is_personalized(1));
        let c0 = e.estimate(0, &[0.5]);
        let c1 = e.estimate(1, &[0.5]);
        // Personalised estimates should pull apart in the right order.
        assert!(c0 <= c1, "broker 0 (peak 20) got {c0}, broker 1 (peak 40) got {c1}");
    }

    #[test]
    fn flush_is_idempotent() {
        let mut e = estimator(4, 2);
        e.update(0, &[0.1], 10.0, 0.1);
        e.flush();
        e.flush();
        assert_eq!(e.base().trials(), 1);
    }

    #[test]
    fn state_roundtrip_restores_promotions_exactly() {
        let mut e = estimator(6, 3);
        // Promote broker 0; leave brokers 1 and 2 generic.
        for _ in 0..4 {
            e.update(0, &[0.5], 20.0, 0.25);
        }
        e.update(1, &[0.5], 30.0, 0.2);
        assert!(e.is_personalized(0) && !e.is_personalized(1));
        let mut text = String::new();
        e.write_state(&mut text);
        let cfg = e.base().config().clone();
        let mut back =
            PersonalizedEstimator::read_state(&mut text.lines(), 3, arms(), cfg).unwrap();
        assert!(back.is_personalized(0) && !back.is_personalized(1));
        for b in 0..3 {
            assert_eq!(back.estimate(b, &[0.5]), e.estimate(b, &[0.5]));
        }
        // Both must promote broker 1 at the same future trial.
        for _ in 0..2 {
            e.update(1, &[0.5], 30.0, 0.2);
            back.update(1, &[0.5], 30.0, 0.2);
        }
        assert_eq!(e.is_personalized(1), back.is_personalized(1));
        assert_eq!(back.estimate(1, &[0.5]), e.estimate(1, &[0.5]));
    }

    #[test]
    fn estimates_fall_back_to_base_before_promotion() {
        let e = estimator(5, 100);
        let generic = e.base().estimate(&[0.5]);
        assert_eq!(e.estimate(0, &[0.5]), generic);
    }
}
