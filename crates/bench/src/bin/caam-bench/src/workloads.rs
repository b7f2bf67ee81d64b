//! The five benchmark workloads: how each one generates its inputs from
//! the seed, and which serving stack runs them.
//!
//! Every workload serves with LACB-Opt on one thread: on a 2-vCPU shared
//! machine a 2-thread run spreads wider than the benchmark's bounds.

use crate::stacks::Rung;
use lacb::{LacbConfig, OverloadConfig};
use platform_sim::{ramp_dataset, CityId, Dataset, RealWorldConfig, SyntheticConfig};

/// How a workload's dataset is generated.
#[derive(Clone, Copy, Debug)]
enum Source {
    /// City B at a proportional scale.
    City { scale: f64 },
    /// A synthetic world.
    Synthetic { brokers: usize, requests: usize, days: usize, imbalance: f64 },
    /// City B at a scale in `batches_per_day` windows, inflated by
    /// [`RAMP`].
    CityRamp { scale: f64, batches_per_day: usize },
}

/// The overload ramp's multiplier staircase, three days per stage.
pub const RAMP: [u32; 7] = [1, 2, 4, 8, 4, 2, 1];

/// One benchmark workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    /// The workload's own serving stack.
    pub rung: Rung,
    source: Source,
    /// Wall seconds of one horizon of the own stack on the reference
    /// machine (a shared 2-vCPU Xeon at 2.1 GHz). A run serves
    /// `--seconds / horizon_secs` horizons: a count fixed by the
    /// workload, not by how fast the code under test is.
    horizon_secs: f64,
    /// Days of the horizon the traced run's layer ladder covers. The
    /// ladder runs eight stacks three times each, so it takes a prefix
    /// of the horizon to stay within a run's time budget.
    pub ladder_days: usize,
    /// Smoke mode keeps only this many days.
    smoke_days: Option<usize>,
}

/// City B at a quarter of its Table IV size: 2039 brokers, 96 835
/// requests, 1008 batches. The fused kernel and the sparse KM solve
/// are most of the wall time.
const CITY: Source = Source::City { scale: 0.25 };

/// 200 brokers, 2 requests per batch over 80 006 batches, ≈38 requests
/// per broker per day (the capacity knee): per-batch fixed costs
/// dominate and matching is a small share of the wall time.
const TINY: Source =
    Source::Synthetic { brokers: 200, requests: 160_000, days: 21, imbalance: 0.01 };

/// City B at a tenth (816 brokers, 38 734 requests) under [`RAMP`]: the
/// only workload that sheds and browns out. 50 windows a day (not the
/// default 48) give at least 1000 batches, enough for a p99.
const RAMPED: Source = Source::CityRamp { scale: 0.10, batches_per_day: 50 };

/// Every workload, in the order reports list them.
pub const ALL: [Workload; 5] = [
    Workload {
        name: "city-b",
        rung: Rung::Run,
        source: CITY,
        horizon_secs: 4.0,
        ladder_days: 3,
        smoke_days: None,
    },
    Workload {
        name: "city-b-durable",
        rung: Rung::Guarded,
        source: CITY,
        horizon_secs: 6.0,
        ladder_days: 3,
        smoke_days: None,
    },
    Workload {
        name: "tiny-batch-durable",
        rung: Rung::Guarded,
        source: TINY,
        horizon_secs: 2.4,
        ladder_days: 7,
        smoke_days: None,
    },
    Workload {
        name: "tiny-batch-replicated",
        rung: Rung::Replicated,
        source: TINY,
        horizon_secs: 3.4,
        ladder_days: 7,
        smoke_days: None,
    },
    // The ladder stops before the 4x stage: the stacks without admission
    // would serve the whole inflated load there, several times over.
    Workload {
        name: "overload-ramp",
        rung: Rung::Overload,
        source: RAMPED,
        horizon_secs: 2.6,
        ladder_days: 6,
        smoke_days: None,
    },
];

/// Look a workload up by name.
pub fn find(name: &str) -> Option<Workload> {
    ALL.iter().copied().find(|w| w.name == name)
}

/// A workload's generated inputs.
pub struct Inputs {
    /// The dataset the stack serves (the ramped one for `overload-ramp`).
    pub dataset: Dataset,
    /// Admission sizing, from the pre-ramp dataset.
    pub overload: OverloadConfig,
    /// The matcher configuration.
    pub lacb: LacbConfig,
}

impl Workload {
    /// The toy-size variant used by `--smoke` and the unit tests.
    pub fn smoke(self) -> Workload {
        let source = match self.source {
            Source::City { .. } => Source::City { scale: 0.01 },
            Source::Synthetic { .. } => {
                Source::Synthetic { brokers: 20, requests: 1_600, days: 21, imbalance: 0.1 }
            }
            Source::CityRamp { batches_per_day, .. } => {
                Source::CityRamp { scale: 0.01, batches_per_day }
            }
        };
        Workload { source, smoke_days: Some(RAMP.len()), ..self }
    }

    /// Horizons a run of `seconds` serves: at least two, so the gates
    /// can compare them.
    pub fn horizons(&self, seconds: f64) -> usize {
        ((seconds / self.horizon_secs) as usize).max(2)
    }

    /// Generate the inputs for `seed`. Pure: the same seed gives the
    /// same inputs.
    pub fn inputs(&self, seed: u64) -> Inputs {
        let truncate = |ds: Dataset| match self.smoke_days {
            Some(days) => ds.truncated(days),
            None => ds,
        };
        let (dataset, overload) = match self.source {
            Source::City { scale } => {
                let ds = truncate(city(RealWorldConfig::scaled(CityId::B, scale), seed));
                let ov = OverloadConfig::sized_for(&ds);
                (ds, ov)
            }
            Source::Synthetic { brokers, requests, days, imbalance } => {
                let cfg = SyntheticConfig {
                    num_brokers: brokers,
                    num_requests: requests,
                    days,
                    imbalance,
                    seed,
                };
                let ds = truncate(Dataset::synthetic(&cfg));
                let ov = OverloadConfig::sized_for(&ds);
                (ds, ov)
            }
            Source::CityRamp { scale, batches_per_day } => {
                let cfg = RealWorldConfig {
                    batches_per_day,
                    ..RealWorldConfig::scaled(CityId::B, scale)
                };
                let base = truncate(city(cfg, seed));
                let ov = OverloadConfig::sized_for(&base);
                (ramp_dataset(&base, &RAMP, seed ^ 0x4A).dataset, ov)
            }
        };
        Inputs { dataset, overload, lacb: LacbConfig { seed, n_threads: 1, ..LacbConfig::opt() } }
    }
}

fn city(cfg: RealWorldConfig, seed: u64) -> Dataset {
    Dataset::real_world(&RealWorldConfig { seed, ..cfg })
}
