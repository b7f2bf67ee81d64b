//! Shared fixtures of the cross-stack equivalence tests: a shared world,
//! a shared fault plan, the in-memory `run_chaos` reference every other
//! stack must reproduce, and an assertion over the one run-vs-run oracle
//! (`RunMetrics::first_divergence`).

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

/// Serving results agree bit for bit, as the oracle decides.
pub(crate) fn assert_bit_identical(a: &RunMetrics, b: &RunMetrics) {
    if let Some(diff) = a.first_divergence(b) {
        panic!("runs diverged: {diff}");
    }
}
