//! The experiment runner: drives an [`Assigner`] through a dataset and
//! collects the metrics the paper's figures report.

use crate::assigner::Assigner;
use crate::core::Engine;
use platform_sim::{Dataset, Platform, RunMetrics};

/// Runner options.
#[derive(Clone, Debug, Default)]
pub struct RunConfig {
    /// Truncate the horizon to this many days (`None` = full dataset).
    pub max_days: Option<usize>,
}

/// Run one algorithm over one dataset.
///
/// Timing covers only the algorithm's own work (`begin_day`,
/// `assign_batch`, `end_day`) — simulator bookkeeping is excluded, so the
/// reported seconds correspond to the paper's "running time" axis.
pub fn run(dataset: &Dataset, assigner: &mut dyn Assigner, cfg: &RunConfig) -> RunMetrics {
    let mut engine = Engine::new(dataset, Platform::from_dataset(dataset), assigner);
    engine.truncate(cfg.max_days);
    engine.serve()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::km::BatchKm;
    use crate::baselines::top_k::TopK;
    use crate::lacb::{Lacb, LacbConfig};
    use platform_sim::SyntheticConfig;

    fn dataset() -> Dataset {
        Dataset::synthetic(&SyntheticConfig {
            num_brokers: 30,
            num_requests: 600,
            days: 3,
            imbalance: 0.2,
            seed: 61,
        })
    }

    #[test]
    fn runner_produces_consistent_metrics() {
        let ds = dataset();
        let mut a = TopK::new(1, 0);
        let m = run(&ds, &mut a, &RunConfig::default());
        assert_eq!(m.algorithm, "Top-1");
        assert_eq!(m.daily_utility.len(), 3);
        assert_eq!(m.daily_elapsed.len(), 3);
        assert!((m.total_utility - m.daily_utility.iter().sum::<f64>()).abs() < 1e-9);
        assert!(m.elapsed_secs >= 0.0);
        // Cumulative elapsed is non-decreasing.
        assert!(m.daily_elapsed.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn max_days_truncates() {
        let ds = dataset();
        let mut a = TopK::new(1, 0);
        let m = run(&ds, &mut a, &RunConfig { max_days: Some(1) });
        assert_eq!(m.daily_utility.len(), 1);
    }

    #[test]
    fn deterministic_for_fixed_seeds() {
        let ds = dataset();
        let m1 = run(&ds, &mut TopK::new(3, 7), &RunConfig::default());
        let m2 = run(&ds, &mut TopK::new(3, 7), &RunConfig::default());
        assert_eq!(m1.total_utility, m2.total_utility);
    }

    #[test]
    fn lacb_beats_top1_on_overloaded_world() {
        // A small but heavily imbalanced world: Top-1 dumps everything on
        // the best brokers, LACB spreads by learned capacity.
        let ds = Dataset::synthetic(&SyntheticConfig {
            num_brokers: 40,
            num_requests: 4000,
            days: 4,
            imbalance: 0.25, // 10 per batch, 100 batches/day -> 1000 req/day
            seed: 67,
        });
        let top1 = run(&ds, &mut TopK::new(1, 1), &RunConfig::default());
        let mut lacb = Lacb::new(LacbConfig::default());
        let ours = run(&ds, &mut lacb, &RunConfig::default());
        assert!(
            ours.total_utility > top1.total_utility,
            "LACB {} should beat Top-1 {}",
            ours.total_utility,
            top1.total_utility
        );
    }

    #[test]
    fn km_ledger_counts_all_requests() {
        let ds = dataset();
        let m = run(&ds, &mut BatchKm::new(), &RunConfig::default());
        let served: f64 = m.ledger.per_broker_served().iter().sum();
        assert_eq!(served as usize, ds.total_requests());
    }
}
