//! The one oracle for the cross-stack equivalence tests: a shared world,
//! a shared fault plan, the in-memory `run_chaos` reference every other
//! stack must reproduce, and the bit-identity check itself.

use crate::core::learned_state;
use crate::lacb::{Lacb, LacbConfig};
use crate::resilient::{run_chaos, ResilienceConfig, ResilientAssigner};
use crate::runner::RunConfig;
use platform_sim::{Dataset, FaultConfig, FaultPlan, RunMetrics, SyntheticConfig};
use std::path::PathBuf;

/// A small imbalanced 3-day world.
pub(crate) fn dataset(seed: u64) -> Dataset {
    Dataset::synthetic(&SyntheticConfig {
        num_brokers: 24,
        num_requests: 480,
        days: 3,
        imbalance: 0.25,
        seed,
    })
}

/// Broker dropouts plus a lossy feedback channel.
pub(crate) fn chaos_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(FaultConfig::scenario("broker-dropout+lost-feedback", seed).unwrap())
}

/// An empty per-test state directory.
pub(crate) fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("caam-lacb-tests").join(name);
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Metrics and final learned state of the in-memory resilient run.
pub(crate) fn reference(ds: &Dataset, plan: FaultPlan) -> (RunMetrics, String) {
    let mut r =
        ResilientAssigner::new(Lacb::new(LacbConfig::default()), ResilienceConfig::default());
    let m = run_chaos(ds, &mut r, &RunConfig::default(), plan);
    (m, learned_state(&r))
}

/// Serving results agree bit for bit: utilities, degradation and
/// failure counters, and the ledger.
pub(crate) fn assert_bit_identical(a: &RunMetrics, b: &RunMetrics) {
    assert_eq!(a.total_utility.to_bits(), b.total_utility.to_bits());
    assert_eq!(a.daily_utility.len(), b.daily_utility.len());
    for (x, y) in a.daily_utility.iter().zip(&b.daily_utility) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
    // requests_failed rides ResilienceStats; compare them whole.
    assert_eq!(a.resilience, b.resilience);
    let (sa, sb) = (a.ledger.snapshot(), b.ledger.snapshot());
    assert_eq!(sa.realized_utility, sb.realized_utility);
    assert_eq!(sa.requests_served, sb.requests_served);
}
