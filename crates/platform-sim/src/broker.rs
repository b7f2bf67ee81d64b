//! Broker profiles, evolving state, and the working-status context
//! vector.
//!
//! A broker (Def. 1 of the paper) is a triple `(x_b, w_b, s_b)` of
//! attributes, daily workload and daily sign-up rate. The attribute
//! vector follows Table II: basic info (age, working years, education,
//! title), a work profile (response rate, dialogue rounds, presentation
//! and consultation activity, maintained houses, served clients), and
//! preference embeddings. The simulator additionally holds the *latent*
//! quantities the algorithms must not see directly: the broker's match
//! quality, true daily capacity, and overload decay.

use crate::rng::{normal_clamped, pareto, unit_vector};
use rand::Rng;

/// Dimension of the preference embedding shared by brokers and requests.
pub const PREF_DIM: usize = 4;

/// Dimension of the working-status context vector fed to the bandits.
pub const STATUS_DIM: usize = 8;

/// Static (per-horizon) broker attributes.
#[derive(Clone, Debug)]
pub struct BrokerProfile {
    /// Stable identifier, equal to the broker's index in the population.
    pub id: usize,
    // --- Table II: basic info ---
    /// Age in years.
    pub age: f64,
    /// Working years as a broker.
    pub working_years: f64,
    /// Education level in `{0, 1, 2, 3}` (high school … master+).
    pub education: u8,
    /// Job title in `{0..4}` (assistant … manager).
    pub title: u8,
    // --- Table II: work profile (recent-window aggregates) ---
    /// Fraction of requests answered within one minute.
    pub response_rate: f64,
    /// Average dialogue rounds per client in the recent window.
    pub dialogue_rounds: f64,
    /// Offline + VR housing presentations in the recent 7 days.
    pub presentations_7d: f64,
    /// Phone + app consultations in the recent 7 days.
    pub consultations_7d: f64,
    /// Houses currently maintained.
    pub maintained_houses: f64,
    // --- Table II: preference ---
    /// Unit-norm preference embedding over districts/housing types.
    pub preference: Vec<f64>,
    // --- latent ground truth (hidden from the algorithms) ---
    /// Base match quality in `[0, 1]`: the ceiling of this broker's
    /// per-request sign-up probability.
    pub quality: f64,
    /// True daily workload capacity `c*_b` — the knee past which service
    /// quality decays (Fig. 2/3).
    pub true_capacity: f64,
    /// Broker-specific exponential decay rate past the knee; the
    /// heterogeneity observed in Fig. 3.
    pub overload_decay: f64,
    /// Long-tail popularity weight (drives top-k listing; Fig. 4).
    pub popularity: f64,
}

impl BrokerProfile {
    /// Sample a broker population of size `n`.
    ///
    /// Latent capacity is generated as a noisy *function of the
    /// observable attributes* (experience, title, responsiveness), so the
    /// contextual bandit genuinely can learn capacity from status — and
    /// the residual noise keeps personalisation valuable.
    pub fn generate<R: Rng + ?Sized>(rng: &mut R, n: usize) -> Vec<BrokerProfile> {
        (0..n).map(|id| Self::sample(rng, id)).collect()
    }

    fn sample<R: Rng + ?Sized>(rng: &mut R, id: usize) -> BrokerProfile {
        let working_years = normal_clamped(rng, 6.0, 4.0, 0.5, 30.0);
        let age = (22.0 + working_years + normal_clamped(rng, 4.0, 3.0, 0.0, 20.0)).min(65.0);
        let education = rng.gen_range(0..4u8);
        // Seniority loosely tracks experience.
        let title = ((working_years / 7.0 + rng.gen_range(0.0..1.5)) as u8).min(4);
        let response_rate = normal_clamped(rng, 0.7, 0.2, 0.05, 1.0);
        let dialogue_rounds = normal_clamped(rng, 8.0, 4.0, 1.0, 30.0);
        let presentations_7d = normal_clamped(rng, 12.0, 8.0, 0.0, 60.0);
        let consultations_7d = normal_clamped(rng, 25.0, 15.0, 0.0, 120.0);
        let maintained_houses = normal_clamped(rng, 20.0, 12.0, 1.0, 80.0);
        let preference = unit_vector(rng, PREF_DIM);

        // Quality is dominated by the heavy-tail "star" factor (client
        // appeal, listings, marketing) and responsiveness — NOT by the
        // stamina attributes that drive capacity. Fig. 3 of the paper
        // shows exactly this decoupling: the most-demanded brokers are
        // comfortable at only 10–20 requests/day, which is why top-k
        // recommendation overloads them. A generator that made quality
        // and capacity rise together would let the top brokers absorb
        // the load and erase the paper's core phenomenon.
        let star = (pareto(rng, 1.0, 3.0) - 1.0).min(2.0) / 2.0; // [0,1], heavy tail
        let skill = 0.1 * (working_years / 30.0)
            + 0.05 * (title as f64 / 4.0)
            + 0.25 * response_rate
            + 0.6 * star;
        let quality =
            (0.25 + 0.65 * skill + normal_clamped(rng, 0.0, 0.08, -0.2, 0.2)).clamp(0.05, 0.95);

        // Capacity: experienced, responsive brokers sustain more daily
        // requests, plus idiosyncratic noise the context cannot explain.
        let cap_signal =
            0.45 * (working_years / 30.0) + 0.25 * (title as f64 / 4.0) + 0.30 * response_rate;
        let true_capacity = (12.0 + 45.0 * cap_signal + normal_clamped(rng, 0.0, 6.0, -10.0, 10.0))
            .clamp(8.0, 70.0);
        let overload_decay = normal_clamped(rng, 0.08, 0.04, 0.02, 0.25);
        // Popularity: heavy-tailed and correlated with quality, mirroring
        // the platform's ranking feedback loop.
        let popularity = pareto(rng, 1.0, 1.1) * (0.5 + quality);

        BrokerProfile {
            id,
            age,
            working_years,
            education,
            title,
            response_rate,
            dialogue_rounds,
            presentations_7d,
            consultations_7d,
            maintained_houses,
            preference,
            quality,
            true_capacity,
            overload_decay,
            popularity,
        }
    }
}

/// Mutable day-to-day broker state.
#[derive(Clone, Debug, Default)]
pub struct BrokerState {
    /// Requests served so far today (`w_b` while the day is running).
    pub workload_today: f64,
    /// Realised utility (expected sign-ups) accumulated today.
    pub realized_today: f64,
    /// Fatigue in `[0, 1]`: rises after overloaded days, recovers
    /// otherwise. Lowers the effective capacity — the "exhausted in the
    /// sales seasons" effect of Sec. V-A.
    pub fatigue: f64,
}

impl BrokerState {
    /// Effective capacity for today: latent capacity scaled down by
    /// fatigue.
    pub fn effective_capacity(&self, profile: &BrokerProfile) -> f64 {
        profile.true_capacity * (1.0 - 0.35 * self.fatigue)
    }

    /// Close out a day: update fatigue, zero counters.
    /// Returns `(w_b, s_b)` — the day's workload and realised sign-up
    /// rate (`None` when the broker served nothing).
    pub fn end_day(&mut self, profile: &BrokerProfile) -> (f64, Option<f64>) {
        let w = self.workload_today;
        let s = if w > 0.0 { Some(self.realized_today / w) } else { None };
        // Fatigue dynamics: overload adds, rest subtracts.
        let cap = self.effective_capacity(profile).max(1.0);
        if w > cap {
            self.fatigue = (self.fatigue + 0.25 * ((w - cap) / cap).min(1.0)).min(1.0);
        } else {
            self.fatigue = (self.fatigue - 0.1).max(0.0);
        }
        self.workload_today = 0.0;
        self.realized_today = 0.0;
        (w, s)
    }
}

/// The working-status context vector `x_b` (normalised to roughly
/// `[0, 1]` per component) the bandits condition on. The layout mirrors
/// Table II's observable profile attributes plus fatigue.
///
/// Deliberately **excluded**: the trailing mean workload and sign-up
/// rate. Both are downstream of the very assignments the estimator
/// drives, and during training they alias the within-broker rate
/// variation the bandit must attribute to the *capacity input* — with
/// them present, the learned `S_θ(x, c)` goes flat in `c` and the whole
/// capacity estimation silently degenerates (a classic confounded-
/// feature failure).
pub fn status_vector(profile: &BrokerProfile, state: &BrokerState) -> Vec<f64> {
    vec![
        profile.working_years / 30.0,
        profile.title as f64 / 4.0,
        profile.response_rate,
        profile.dialogue_rounds / 30.0,
        profile.presentations_7d / 60.0,
        profile.consultations_7d / 120.0,
        profile.maintained_houses / 80.0,
        state.fatigue,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn population(n: usize) -> Vec<BrokerProfile> {
        let mut rng = StdRng::seed_from_u64(99);
        BrokerProfile::generate(&mut rng, n)
    }

    #[test]
    fn profiles_within_bounds() {
        for b in population(500) {
            assert!((0.05..=0.95).contains(&b.quality), "quality {}", b.quality);
            assert!((8.0..=70.0).contains(&b.true_capacity));
            assert!(b.overload_decay > 0.0);
            assert!(b.popularity > 0.0);
            assert!(b.title <= 4);
            assert!(b.education <= 3);
            let norm: f64 = b.preference.iter().map(|x| x * x).sum::<f64>().sqrt();
            assert!((norm - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn capacity_correlates_with_observables() {
        let pop = population(2000);
        let xs: Vec<f64> = pop.iter().map(|b| b.working_years).collect();
        let ys: Vec<f64> = pop.iter().map(|b| b.true_capacity).collect();
        let r = linalg::stats::pearson(&xs, &ys);
        assert!(r > 0.4, "capacity should be learnable from context, r = {r}");
    }

    #[test]
    fn popularity_is_heavy_tailed() {
        let pop = population(2000);
        let mut p: Vec<f64> = pop.iter().map(|b| b.popularity).collect();
        p.sort_by(|a, b| b.partial_cmp(a).unwrap());
        let top10: f64 = p[..10].iter().sum();
        let total: f64 = p.iter().sum();
        assert!(top10 / total > 0.02, "top-10 share {}", top10 / total);
        assert!(p[0] / p[p.len() / 2] > 5.0);
    }

    #[test]
    fn end_day_rolls_history_and_fatigue() {
        let pop = population(1);
        let profile = &pop[0];
        let mut s = BrokerState {
            workload_today: profile.true_capacity * 2.0, // heavy overload
            realized_today: 10.0,
            ..BrokerState::default()
        };
        let (w, rate) = s.end_day(profile);
        assert_eq!(w, profile.true_capacity * 2.0);
        assert!(rate.is_some());
        assert!(s.fatigue > 0.0, "overload should fatigue");
        assert_eq!(s.workload_today, 0.0);
        // A few idle days recover.
        for _ in 0..10 {
            s.end_day(profile);
        }
        assert_eq!(s.fatigue, 0.0);
    }

    #[test]
    fn end_day_idle_returns_none_rate() {
        let pop = population(1);
        let mut s = BrokerState::default();
        let (w, rate) = s.end_day(&pop[0]);
        assert_eq!(w, 0.0);
        assert!(rate.is_none());
    }

    #[test]
    fn fatigue_lowers_effective_capacity() {
        let pop = population(1);
        let mut s = BrokerState::default();
        let fresh = s.effective_capacity(&pop[0]);
        s.fatigue = 1.0;
        let tired = s.effective_capacity(&pop[0]);
        assert!(tired < fresh);
        assert!((tired / fresh - 0.65).abs() < 1e-9);
    }

    #[test]
    fn status_vector_shape_and_range() {
        let pop = population(50);
        let state = BrokerState::default();
        for b in &pop {
            let x = status_vector(b, &state);
            assert_eq!(x.len(), STATUS_DIM);
            for (i, v) in x.iter().enumerate() {
                assert!((-0.01..=1.5).contains(v), "feature {i} = {v}");
            }
        }
    }
}
