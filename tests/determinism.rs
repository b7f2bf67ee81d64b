//! Reproducibility: identical seeds must give bit-identical runs, and
//! different seeds must actually change stochastic policies.
//!
//! The second half targets the parallel runtime's contract: thread count
//! and the adaptive sequential cutoff (`LacbConfig::parallel_cutoff`)
//! are *performance* knobs, so every (n_threads, cutoff) combination —
//! including cutoffs straddling the inline/parallel boundary — must be
//! bit-identical to the single-thread reference, on the clean runner,
//! under fault schedules, and under an overload ramp.

use caam::lacb::{
    run, run_chaos, run_overload, Assigner, Lacb, LacbConfig, OverloadConfig,
    RandomizedRecommendation, ResilienceConfig, RunConfig, RunMetrics, TopK, SCORE_WORK_PER_BROKER,
};
use caam::platform_sim::{ramp_dataset, Dataset, FaultConfig, FaultPlan, SyntheticConfig};
use proptest::prelude::*;

fn dataset(seed: u64) -> Dataset {
    Dataset::synthetic(&SyntheticConfig {
        num_brokers: 30,
        num_requests: 900,
        days: 3,
        imbalance: 0.2,
        seed,
    })
}

fn run_of(mut a: Box<dyn Assigner>, ds: &Dataset) -> RunMetrics {
    run(ds, a.as_mut(), &RunConfig::default())
}

fn total(a: Box<dyn Assigner>, ds: &Dataset) -> f64 {
    run_of(a, ds).total_utility
}

#[test]
fn identical_seeds_identical_results() {
    let ds = dataset(77);
    for mk in [
        || Box::new(TopK::new(3, 5)) as Box<dyn Assigner>,
        || Box::new(RandomizedRecommendation::new(5)) as Box<dyn Assigner>,
        || {
            Box::new(Lacb::new(LacbConfig { seed: 5, ..LacbConfig::default() }))
                as Box<dyn Assigner>
        },
    ] {
        let a = run_of(mk(), &ds);
        let b = run_of(mk(), &ds);
        assert_eq!(a.first_divergence(&b), None, "same seed must reproduce exactly");
    }
}

#[test]
fn different_dataset_seeds_change_the_world() {
    let a = total(Box::new(TopK::new(1, 5)), &dataset(1));
    let b = total(Box::new(TopK::new(1, 5)), &dataset(2));
    assert_ne!(a, b);
}

#[test]
fn different_policy_seeds_change_stochastic_policies() {
    let ds = dataset(3);
    let a = total(Box::new(RandomizedRecommendation::new(1)), &ds);
    let b = total(Box::new(RandomizedRecommendation::new(2)), &ds);
    assert_ne!(a, b);
}

// --------------------------------------------------------------------
// Parallel-runtime determinism: threads × cutoff boundary.

/// A world small enough that a full LACB-Opt run is cheap in debug
/// builds, but with enough brokers that the `begin_day` scoring round
/// genuinely flips between inline and parallel as the cutoff moves.
fn small_world(seed: u64) -> Dataset {
    Dataset::synthetic(&SyntheticConfig {
        num_brokers: 20,
        num_requests: 400,
        days: 2,
        imbalance: 0.2,
        seed,
    })
}

/// Cutoffs that straddle the inline/parallel decision of the
/// `begin_day` scoring round on a `brokers`-broker world: below the
/// boundary the round splits into ≥ 2 chunks, above it it runs inline.
/// 0 and `u64::MAX` force always-split / always-inline at *every*
/// `pool::map_chunks` call site (the dense CBS union and the fused
/// score+select kernel included).
fn boundary_cutoffs(brokers: usize) -> [u64; 4] {
    let total = SCORE_WORK_PER_BROKER * brokers as u64;
    let below = total / 2; // total/below = 2 chunks
    let above = below + 1; // total/above = 1 chunk -> inline
                           // Self-check: the chosen cutoffs really sit on opposite sides of
                           // the decision for this world, so the runs below exercise both the
                           // chunked and the inline path of the same computation.
    assert!(pool::adaptive_parallelism_with(below, 4, brokers, SCORE_WORK_PER_BROKER) >= 2);
    assert_eq!(pool::adaptive_parallelism_with(above, 4, brokers, SCORE_WORK_PER_BROKER), 1);
    [0, below, above, u64::MAX]
}

fn opt_with(seed: u64, n_threads: usize, parallel_cutoff: u64) -> Lacb {
    Lacb::new(LacbConfig { seed, n_threads, parallel_cutoff, ..LacbConfig::opt() })
}

#[test]
fn cutoff_boundary_and_threads_never_change_results() {
    let ds = small_world(91);
    let reference =
        run(&ds, &mut opt_with(5, 1, LacbConfig::opt().parallel_cutoff), &RunConfig::default());
    // The training work of the two days: one flush of the base bandit,
    // 8 epochs over a 16-trial replay ring.
    let trained = reference.timings.breakdown.train_sample_epochs;
    assert_eq!(trained, 16 * 8, "training sample-epochs");
    for cutoff in boundary_cutoffs(ds.brokers.len()) {
        for n_threads in [1, 2, 4, 8] {
            let got = run(&ds, &mut opt_with(5, n_threads, cutoff), &RunConfig::default());
            assert_eq!(
                reference.first_divergence(&got),
                None,
                "n_threads={n_threads} cutoff={cutoff} diverged"
            );
            assert_eq!(got.timings.breakdown.train_sample_epochs, trained);
        }
    }
}

#[test]
fn cutoff_boundary_holds_under_fault_schedules() {
    let ds = small_world(92);
    let plan = FaultPlan::new(FaultConfig::scenario("broker-dropout+lost-feedback", 17).unwrap());
    let default_cutoff = LacbConfig::opt().parallel_cutoff;
    let reference =
        run_chaos(&ds, &mut opt_with(5, 1, default_cutoff), &RunConfig::default(), plan);
    // The plan corrupts no utility, so the matcher has nothing to panic
    // on: a panic here is a failed internal check (a debug assertion in
    // `assign_batch`, or in the training `end_day` runs) that the
    // resilient ladder would otherwise hide. `first_divergence` holds
    // every other run to the same count.
    let panics = reference.resilience.as_ref().map_or(0, |s| s.primary_panics);
    assert_eq!(panics, 0, "the ladder absorbed a panic under a non-corrupting plan");
    for cutoff in boundary_cutoffs(ds.brokers.len()) {
        for n_threads in [2, 8] {
            let got =
                run_chaos(&ds, &mut opt_with(5, n_threads, cutoff), &RunConfig::default(), plan);
            assert_eq!(
                reference.first_divergence(&got),
                None,
                "chaos run diverged at n_threads={n_threads} cutoff={cutoff}"
            );
        }
    }
}

#[test]
fn cutoff_boundary_holds_under_overload_ramp() {
    let base = small_world(93);
    let ocfg = OverloadConfig::sized_for(&base);
    let cfg = |n_threads, parallel_cutoff| LacbConfig {
        seed: 5,
        n_threads,
        parallel_cutoff,
        ..LacbConfig::opt()
    };
    // The fused kernel copies the rows admission priced this tick and
    // rescores the rest. The quiet 4x ramp reuses nearly every row. The
    // 2x ramp keeps full quality while the queue carries requests over
    // a tick, and its plan corrupts utilities (rows keyed by batch
    // position) and learned state (pre-solve quarantines re-mask the
    // columns), so it reaches every rescored kind. Debug builds rescore
    // each reused row and assert bit equality. `pairs_scored` pins how
    // many pair utilities each reference run filled, and `absorbed` how
    // many panics the resilient ladder caught: none on the quiet plan,
    // and on the corrupting one the sparse KM's panic on each batch whose
    // +∞ cells the fused kernel selected. Any other count is a failed
    // internal check (in `assign_batch` or in training at `end_day`)
    // that the ladder would otherwise hide.
    let corrupting = FaultConfig {
        utility_corruption: 0.3,
        corruption_density: 0.05,
        ..FaultConfig::scenario("state-corruption", 5).unwrap()
    };
    let inputs = [([1, 4], FaultConfig::default(), 24_560, 0), ([1, 2], corrupting, 19_584, 23)];
    for (stages, faults, pairs_scored, absorbed) in inputs {
        let ramp = ramp_dataset(&base, &stages, 0x5D);
        let plan = FaultPlan::new(faults);
        // Every run must account for each offered request: admitted,
        // shed with a reason, or still queued. The ramp must shed, or
        // the balance proves nothing.
        let run_at = |n_threads, cutoff| {
            let rcfg = ResilienceConfig::default();
            let m = run_overload(&ramp.dataset, cfg(n_threads, cutoff), rcfg, &ocfg, plan).metrics;
            let ov = m.overload.as_ref().expect("run_overload reports overload stats");
            assert!(ov.accounting_balanced(), "shed accounting unbalanced: {ov:?}");
            assert!(ov.shed_total() > 0, "the {stages:?} ramp shed nothing");
            m
        };
        let reference = run_at(1, LacbConfig::opt().parallel_cutoff);
        let scored = reference.timings.breakdown.pairs_scored;
        assert_eq!(scored, pairs_scored, "pairs scored on the {stages:?} ramp");
        let panics = reference.resilience.as_ref().map_or(0, |s| s.primary_panics);
        assert_eq!(panics, absorbed, "panics the ladder absorbed on the {stages:?} ramp");
        for cutoff in boundary_cutoffs(base.brokers.len()) {
            for n_threads in [2, 4] {
                let got = run_at(n_threads, cutoff);
                assert_eq!(
                    reference.first_divergence(&got),
                    None,
                    "{stages:?} ramp diverged at n_threads={n_threads} cutoff={cutoff}"
                );
                assert_eq!(got.timings.breakdown.pairs_scored, scored);
            }
        }
    }
}

proptest! {
    // Each case is two full runs; keep the case count small.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Randomized sweep of the same contract: any policy seed, any
    /// thread count, any cutoff in the boundary set must reproduce the
    /// single-thread default-cutoff run bit for bit.
    #[test]
    fn prop_threads_and_cutoff_are_pure_performance_knobs(
        seed in 1u64..1_000,
        threads_idx in 0usize..4,
        cutoff_idx in 0usize..4,
    ) {
        let n_threads = [1usize, 2, 4, 8][threads_idx];
        let ds = small_world(94);
        let cutoff = boundary_cutoffs(ds.brokers.len())[cutoff_idx];
        let reference =
            run(&ds, &mut opt_with(seed, 1, LacbConfig::opt().parallel_cutoff), &RunConfig::default());
        let got = run(&ds, &mut opt_with(seed, n_threads, cutoff), &RunConfig::default());
        prop_assert_eq!(reference.first_divergence(&got), None);
    }
}

#[test]
fn dataset_generation_is_deterministic() {
    let a = dataset(42);
    let b = dataset(42);
    assert_eq!(a.total_requests(), b.total_requests());
    for (ba, bb) in a.brokers.iter().zip(&b.brokers) {
        assert_eq!(ba.quality, bb.quality);
        assert_eq!(ba.true_capacity, bb.true_capacity);
    }
}
