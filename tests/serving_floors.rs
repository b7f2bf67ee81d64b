//! Wall-clock floors of the LACB-Opt serving core, with the
//! identity checks that run beside them.
//!
//! Three floors, each at a fixed bound on a fixed world:
//! * fig8 (40 brokers, 400 requests, 2 days, σ 0.2): the 1-thread p99
//!   batch latency stays within max(1.2×, +0.25 ms) of its recorded
//!   baseline;
//! * City B ×0.06: 2 threads keep at least 0.9× the 1-thread throughput,
//!   when the machine has a second hardware thread;
//! * City B ×0.06: at 1 thread the sparse path (`SparseMode::On`) is at
//!   least 1.5× faster than the dense pipeline (`Off`).
//!
//! Every timing is the best of [`REPEAT`] repetitions: per-batch times
//! are max-order statistics of a noisy scheduler, and the minimum moves
//! under a real regression but not under jitter. A thread count above
//! the machine's hardware threads runs once, for identity only.
//!
//! Every `On` and `DenseOracle` run must serve bit-identically to the
//! 1-thread `On` run of its world — across thread counts, repetitions
//! and the two modes — by [`RunMetrics::first_divergence`] and the
//! learned-state text. fig8's batches are too small for the default
//! cutoff to split any pool round, so its multi-thread runs use
//! `parallel_cutoff: 0`, which by contract changes no result and makes
//! every round parallel. `Off` is only the timing denominator: it may
//! break ties differently, and `sparse_on_and_off_agree_on_batch_utility`
//! in the `lacb` crate checks its values.
//!
//! The tests are ignored because a debug build is too slow for them and
//! a timing floor fails under a loaded machine. Run them alone, in
//! release:
//!
//! ```text
//! cargo test --release --test serving_floors -- --ignored --test-threads 1 --nocapture
//! ```

use caam::lacb::{run, Lacb, LacbConfig, RunConfig, RunMetrics, SparseMode};
use caam::platform_sim::{CityId, Dataset, RealWorldConfig, SyntheticConfig};
use caam::pool::SEQ_CUTOFF_WORK;

const SEED: u64 = 7;
const REPEAT: usize = 3;
const THREADS: [usize; 2] = [1, 2];
const CITY_SCALE: f64 = 0.06;

/// The fig8 1-thread p99 batch latency of the recorded baseline, in ms.
const FIG8_P99_BASELINE_MS: f64 = 0.0320;
/// The p99 may grow by this factor over the baseline ...
const P99_GROWTH: f64 = 1.2;
/// ... or by this many ms, whichever is larger: a p99 of tens of µs is
/// timer jitter, and a real regression lands in the milliseconds.
const P99_SLACK_MS: f64 = 0.25;
/// 2-thread over 1-thread throughput on the city world.
const TWO_THREAD_FLOOR: f64 = 0.9;
/// `Off` over `On` assign time at 1 thread on the city world.
const SPARSE_FLOOR: f64 = 1.5;

fn fig8() -> Dataset {
    Dataset::synthetic(&SyntheticConfig {
        num_brokers: 40,
        num_requests: 400,
        days: 2,
        imbalance: 0.2,
        seed: SEED,
    })
}

fn city() -> Dataset {
    Dataset::real_world(&RealWorldConfig {
        seed: SEED,
        ..RealWorldConfig::scaled(CityId::B, CITY_SCALE)
    })
}

/// One run's metrics and learned state.
struct Served {
    metrics: RunMetrics,
    state: String,
}

fn serve(ds: &Dataset, n_threads: usize, parallel_cutoff: u64, mode: SparseMode) -> Served {
    let cfg = LacbConfig {
        seed: SEED,
        n_threads,
        parallel_cutoff,
        sparse_assignment: mode,
        ..LacbConfig::opt()
    };
    let mut lacb = Lacb::new(cfg);
    let metrics = run(ds, &mut lacb, &RunConfig::default());
    let mut state = String::new();
    lacb.write_state(&mut state);
    Served { metrics, state }
}

/// Best-of-[`REPEAT`] timings of one thread count and mode.
#[derive(Clone, Copy)]
struct Best {
    assign_secs: f64,
    p99_secs: f64,
}

/// The timed (thread count, mode) pairs of one world.
struct Ladder(Vec<(usize, SparseMode, Best)>);

impl Ladder {
    fn best(&self, n_threads: usize, mode: SparseMode) -> Option<Best> {
        self.0.iter().find(|(n, m, _)| (*n, *m) == (n_threads, mode)).map(|(_, _, b)| *b)
    }
}

/// Serve `ds` at each of [`THREADS`], running `modes` in turn within each
/// repetition, and check every `On` and `DenseOracle` run against the
/// first (1-thread `On`) one. Runs above one thread use `cutoff`.
fn measure(world: &str, ds: &Dataset, cutoff: u64, modes: &[SparseMode]) -> Ladder {
    assert_eq!(modes[0], SparseMode::On, "the reference run is 1-thread On");
    let hw = caam::pool::hardware_threads();
    let mut reference: Option<Served> = None;
    let mut ladder = Ladder(Vec::new());
    for n in THREADS {
        let timed = n <= hw;
        let reps = if timed { REPEAT } else { 1 };
        let cutoff = if n > 1 { cutoff } else { SEQ_CUTOFF_WORK };
        let mut best =
            vec![Best { assign_secs: f64::INFINITY, p99_secs: f64::INFINITY }; modes.len()];
        for rep in 0..reps {
            for (&mode, best) in modes.iter().zip(&mut best) {
                let got = serve(ds, n, cutoff, mode);
                let t = &got.metrics.timings;
                best.assign_secs = best.assign_secs.min(t.assign_batch_secs.iter().sum());
                best.p99_secs = best.p99_secs.min(t.assign_percentile(99.0));
                if mode == SparseMode::Off {
                    continue;
                }
                let Some(want) = &reference else {
                    reference = Some(got);
                    continue;
                };
                let run = format!("{world}: {mode:?} at {n} thread(s), repetition {rep}");
                if let Some(diff) = want.metrics.first_divergence(&got.metrics) {
                    panic!("{run} diverged from 1-thread On: {diff}");
                }
                assert!(want.state == got.state, "{run}: learned state diverged from 1-thread On");
            }
        }
        if !timed {
            println!("[{world}] {n} thread(s): untimed (exceeds {hw} hardware threads), identical");
            continue;
        }
        for (&mode, best) in modes.iter().zip(best) {
            println!(
                "[{world}] {n} thread(s) {mode:?}: assign {:.4} s, p99 {:.4} ms",
                best.assign_secs,
                best.p99_secs * 1e3
            );
            ladder.0.push((n, mode, best));
        }
    }
    ladder
}

#[test]
#[ignore = "wall-clock floor: run in release with --ignored --test-threads 1"]
fn fig8_one_thread_p99_stays_within_its_baseline() {
    let ladder = measure("fig8", &fig8(), 0, &[SparseMode::On]);
    let p99_ms = ladder.best(1, SparseMode::On).expect("1 thread is always timed").p99_secs * 1e3;
    let limit = (FIG8_P99_BASELINE_MS * P99_GROWTH).max(FIG8_P99_BASELINE_MS + P99_SLACK_MS);
    println!("fig8 p99: {p99_ms:.4} ms, limit {limit:.4} ms");
    assert!(p99_ms <= limit, "fig8 1-thread p99 {p99_ms:.4} ms exceeds {limit:.4} ms");
}

#[test]
#[ignore = "wall-clock floor: run in release with --ignored --test-threads 1"]
fn city_two_threads_keep_the_one_thread_throughput() {
    let ladder = measure("city", &city(), SEQ_CUTOFF_WORK, &[SparseMode::On]);
    let (Some(one), Some(two)) = (ladder.best(1, SparseMode::On), ladder.best(2, SparseMode::On))
    else {
        println!("city 2-thread floor: not checked on a 1-thread machine");
        return;
    };
    let ratio = one.assign_secs / two.assign_secs;
    println!("city 2-thread throughput: {ratio:.3}x of 1 thread, floor {TWO_THREAD_FLOOR}x");
    assert!(
        ratio >= TWO_THREAD_FLOOR,
        "2 threads serve the city world at {ratio:.3}x the 1-thread throughput, below \
         {TWO_THREAD_FLOOR}x"
    );
}

#[test]
#[ignore = "wall-clock floor: run in release with --ignored --test-threads 1"]
fn city_sparse_path_beats_the_dense_pipeline() {
    let modes = [SparseMode::On, SparseMode::DenseOracle, SparseMode::Off];
    let ladder = measure("city", &city(), SEQ_CUTOFF_WORK, &modes);
    let on = ladder.best(1, SparseMode::On).expect("1 thread is always timed");
    let off = ladder.best(1, SparseMode::Off).expect("1 thread is always timed");
    let speedup = off.assign_secs / on.assign_secs;
    println!("city sparse speedup at 1 thread: {speedup:.3}x, floor {SPARSE_FLOOR}x");
    assert!(
        speedup >= SPARSE_FLOOR,
        "the sparse path is {speedup:.3}x the dense pipeline at 1 thread, below {SPARSE_FLOOR}x"
    );
}
