//! `caam bench-serve` — the serving-throughput harness.
//!
//! Benchmarks the full LACB-Opt serving core (per-broker capacity
//! estimation, CBS candidate selection, warm-started KM assignment) at
//! two scales — the fig-8 synthetic preset and a Table IV-like
//! power-law **city** preset — across a thread ladder, plus a
//! warm-vs-cold KM microbenchmark and an overload-spike section, and
//! emits the results as `BENCH_serving.json`.
//!
//! Honesty rules of the ladder:
//! * `hardware_threads` is reported from `available_parallelism()`, and
//!   rungs above it are *skipped* (run once for bit-identity, no timing)
//!   with an explicit `"skipped"` marker — a 1-core runner can attest
//!   determinism but not speedups.
//! * Every rung carries a per-stage breakdown (bandit scoring, CBS
//!   selection, KM solve, pool sync) so a regression names its stage.
//!
//! Gates: with `--baseline FILE` the run fails when the single-thread
//! p99 per-batch latency regresses by more than 20% against the
//! committed baseline; independently, when the machine has the threads
//! for it, the city-preset 2-thread rung must reach `--speedup-floor`
//! (default 0.9) of the 1-thread throughput, so a parallel-runtime
//! regression fails loudly instead of being committed as a slowdown.

use crate::args::Args;
use crate::commands::CliError;
use lacb::overload::run_overload;
use lacb::{run, Lacb, LacbConfig, OverloadConfig, ResilienceConfig, RunConfig, SparseMode};
use matching::hungarian::KmSolver;
use matching::UtilityMatrix;
use platform_sim::{
    percentile, ramp_dataset, CityId, Dataset, FaultPlan, RealWorldConfig, StageBreakdown,
    StageTimings, SyntheticConfig,
};
use std::time::Instant;

/// One thread-count measurement of the serving loop. A rung above the
/// machine's parallelism is `skipped`: it still proves bit-identity (one
/// repetition) but publishes no latency or speedup figures.
struct ThreadSample {
    n_threads: usize,
    total_utility: f64,
    assign_secs: f64,
    p50_batch_ms: f64,
    p99_batch_ms: f64,
    begin_day_secs: f64,
    throughput_req_per_s: f64,
    bit_identical_to_1: bool,
    skipped: bool,
    stages: StageBreakdown,
}

/// One benchmarked world: a preset label, its JSON `world` descriptor,
/// and the thread-ladder samples measured on it.
struct LadderSection {
    name: &'static str,
    world_json: String,
    samples: Vec<ThreadSample>,
}

/// Warm-vs-cold KM microbenchmark result. `ops` counts augmenting-path
/// relaxation steps ([`KmSolver::last_ops`]) — a deterministic work
/// proxy that does not wobble with machine load the way seconds do.
struct WarmKm {
    size: usize,
    batches: usize,
    cold_ops: u64,
    warm_ops: u64,
    cold_secs: f64,
    warm_secs: f64,
}

fn lcg_matrix(n: usize, state: &mut u64) -> UtilityMatrix {
    UtilityMatrix::from_fn(n, n, |_, _| {
        *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (*state >> 11) as f64 / (1u64 << 53) as f64
    })
}

/// A sequence of slightly perturbed balanced assignment instances — the
/// serving loop's shape: consecutive batches see near-identical duals.
fn perturbed_sequence(n: usize, batches: usize, seed: u64) -> Vec<UtilityMatrix> {
    let mut state = seed | 1;
    let base = lcg_matrix(n, &mut state);
    (0..batches)
        .map(|_| {
            let mut m = base.clone();
            for r in 0..n {
                for c in 0..n {
                    state =
                        state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    let eps = ((state >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 0.01;
                    m.set(r, c, m.get(r, c) + eps);
                }
            }
            m
        })
        .collect()
}

fn bench_warm_km(size: usize, batches: usize) -> Result<WarmKm, String> {
    let seq = perturbed_sequence(size, batches, 0xB5);
    let mut solver = KmSolver::new();

    // Batch 0 is cold in both runs; measure from batch 1 so the ratio
    // reflects the steady state a long-running serving loop lives in.
    let t0 = Instant::now();
    let mut cold_ops = 0u64;
    let mut cold_total = 0.0f64;
    for (i, m) in seq.iter().enumerate() {
        solver.reset(); // forget the duals: every batch pays full price
        let a = solver.solve_padded(m);
        if i > 0 {
            cold_ops += solver.last_ops();
            cold_total += a.total;
        }
    }
    let cold_secs = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let mut warm_ops = 0u64;
    let mut warm_total = 0.0f64;
    solver.reset();
    for (i, m) in seq.iter().enumerate() {
        let a = solver.solve_padded(m);
        if i > 0 {
            warm_ops += solver.last_ops();
            warm_total += a.total;
        }
    }
    let warm_secs = t0.elapsed().as_secs_f64();

    if (cold_total - warm_total).abs() >= 1e-6 * cold_total.abs().max(1.0) {
        return Err(format!("warm KM changed the optimum: cold {cold_total} vs warm {warm_total}"));
    }
    Ok(WarmKm { size, batches, cold_ops, warm_ops, cold_secs, warm_secs })
}

/// Overload-protection measurement: the serving loop under a 1x→4x
/// traffic ramp, reporting how much it sheds, how often breakers trip,
/// and the p99 per-batch latency *during the 4x spike* — the number an
/// operator sizing the admission queue actually cares about.
struct OverloadBench {
    multiplier: u32,
    offered: u64,
    served: u64,
    shed_rate: f64,
    breaker_trips: u64,
    brownout_escalations: u64,
    p99_spike_ms: f64,
}

fn bench_overload(
    cfg: &SyntheticConfig,
    seed: u64,
    repeat: usize,
) -> Result<OverloadBench, String> {
    const SPIKE: u32 = 4;
    let base = Dataset::synthetic(cfg);
    let ramp = ramp_dataset(&base, &[1, SPIKE], seed ^ 0x4A);
    let ocfg = OverloadConfig::sized_for(&base);
    let mut utility_bits = 0u64;
    let mut stats = None;
    let mut p99_spike = f64::INFINITY;
    for rep in 0..repeat {
        let out = run_overload(
            &ramp.dataset,
            LacbConfig { seed, ..LacbConfig::opt() },
            ResilienceConfig::default(),
            &ocfg,
            FaultPlan::new(platform_sim::FaultConfig::default()),
        );
        if rep == 0 {
            utility_bits = out.metrics.total_utility.to_bits();
        } else if out.metrics.total_utility.to_bits() != utility_bits {
            return Err("overload run is not reproducible across repetitions".into());
        }
        // Batch timings are flat across the horizon; keep only the
        // batches of spike-stage days for the latency figure.
        let mut spike_secs = Vec::new();
        let mut at = 0usize;
        for (d, day) in ramp.dataset.days.iter().enumerate() {
            let n = day.len();
            if ramp.multiplier_of_day(d) == SPIKE {
                spike_secs.extend_from_slice(&out.metrics.timings.assign_batch_secs[at..at + n]);
            }
            at += n;
        }
        p99_spike = p99_spike.min(percentile(&spike_secs, 99.0));
        stats = out.metrics.overload;
    }
    let ov = stats.ok_or("overload run carried no overload stats")?;
    if !ov.accounting_balanced() {
        return Err("overload shed accounting does not balance".into());
    }
    Ok(OverloadBench {
        multiplier: SPIKE,
        offered: ov.offered,
        served: ov.served,
        shed_rate: if ov.offered > 0 { ov.shed_total() as f64 / ov.offered as f64 } else { 0.0 },
        breaker_trips: ov.breaker_trips,
        brownout_escalations: ov.brownout_escalations,
        p99_spike_ms: fmt_ms(p99_spike),
    })
}

fn run_serving_mode(
    ds: &Dataset,
    n_threads: usize,
    seed: u64,
    mode: SparseMode,
) -> (f64, StageTimings) {
    let cfg = LacbConfig { seed, n_threads, sparse_assignment: mode, ..LacbConfig::opt() };
    let mut lacb = Lacb::new(cfg);
    let m = run(ds, &mut lacb, &RunConfig::default());
    (m.total_utility, m.timings)
}

fn run_serving(ds: &Dataset, n_threads: usize, seed: u64) -> (f64, StageTimings) {
    run_serving_mode(ds, n_threads, seed, SparseMode::On)
}

/// One rung of the §16 sparse-vs-dense comparison: the serving horizon
/// run in all three [`SparseMode`]s on the city preset. The fused CSR
/// path must be bit-identical to its masked-dense oracle on *every*
/// rung (skipped rungs still attest identity with one repetition); the
/// legacy dense pipeline provides the speedup denominator.
struct SparseRung {
    n_threads: usize,
    skipped: bool,
    sparse_secs: f64,
    oracle_secs: f64,
    dense_secs: f64,
    sparse_build_ms: f64,
    sparse_rows: u64,
    sparse_edges: u64,
}

fn bench_sparse_vs_dense(
    ds: &Dataset,
    threads: &[usize],
    seed: u64,
    repeat: usize,
    hw: usize,
) -> Result<Vec<SparseRung>, CliError> {
    let mut rungs = Vec::new();
    for &n in threads {
        let skipped = n > hw;
        let reps = if skipped { 1 } else { repeat };
        let mut sparse_secs = f64::INFINITY;
        let mut oracle_secs = f64::INFINITY;
        let mut dense_secs = f64::INFINITY;
        let mut sparse_build_ms = 0.0;
        let mut sparse_km_ms = 0.0;
        let mut dense_select_ms = 0.0;
        let mut dense_km_ms = 0.0;
        let mut sparse_rows = 0u64;
        let mut sparse_edges = 0u64;
        for _ in 0..reps {
            let (us, ts) = run_serving_mode(ds, n, seed, SparseMode::On);
            let (uo, to) = run_serving_mode(ds, n, seed, SparseMode::DenseOracle);
            if us.to_bits() != uo.to_bits() {
                return Err(CliError::Gate(format!(
                    "sparse assignment diverged from its masked-dense oracle at {n} thread(s): \
                     {us} vs {uo}"
                )));
            }
            let s: f64 = ts.assign_batch_secs.iter().sum();
            if s < sparse_secs {
                sparse_secs = s;
                sparse_build_ms = fmt_ms(ts.breakdown.sparse_build_secs);
                sparse_km_ms = fmt_ms(ts.breakdown.km_solve_secs);
                sparse_rows = ts.breakdown.sparse_rows;
                sparse_edges = ts.breakdown.sparse_edges;
            }
            oracle_secs = oracle_secs.min(to.assign_batch_secs.iter().sum());
            let (_, td) = run_serving_mode(ds, n, seed, SparseMode::Off);
            let d: f64 = td.assign_batch_secs.iter().sum();
            if d < dense_secs {
                dense_secs = d;
                dense_select_ms = fmt_ms(td.breakdown.cbs_select_secs);
                dense_km_ms = fmt_ms(td.breakdown.km_solve_secs);
            }
            if std::env::var_os("CAAM_BENCH_DEBUG").is_some() {
                eprintln!("sparse breakdown: {:?}", ts.breakdown);
                eprintln!("dense  breakdown: {:?}", td.breakdown);
            }
        }
        if skipped {
            println!(
                "  [sparse_vs_dense] {n} thread(s): skipped (exceeds {hw} hardware threads) — \
                 bit-identity vs oracle ok"
            );
        } else {
            let speedup = if sparse_secs > 0.0 { dense_secs / sparse_secs } else { 1.0 };
            println!(
                "  [sparse_vs_dense] {n} thread(s): sparse {sparse_secs:.3}s (build \
                 {sparse_build_ms:.0}ms km {sparse_km_ms:.0}ms)  dense {dense_secs:.3}s \
                 (select {dense_select_ms:.0}ms km {dense_km_ms:.0}ms)  oracle \
                 {oracle_secs:.3}s  speedup {speedup:.2}x  bit-identical to oracle"
            );
        }
        rungs.push(SparseRung {
            n_threads: n,
            skipped,
            sparse_secs,
            oracle_secs,
            dense_secs,
            sparse_build_ms,
            sparse_rows,
            sparse_edges,
        });
    }
    Ok(rungs)
}

fn fmt_ms(secs: f64) -> f64 {
    secs * 1e3
}

/// Measure the thread ladder on one dataset. Rungs above `hw` run a
/// single repetition purely to verify bit-identity and are marked
/// skipped; timed rungs take the best of `repeat` repetitions (per-batch
/// wall times are max-order statistics of a noisy scheduler — a real
/// code regression shifts the minimum too, OS jitter does not).
fn run_ladder(
    label: &str,
    ds: &Dataset,
    threads: &[usize],
    seed: u64,
    repeat: usize,
    hw: usize,
) -> Result<Vec<ThreadSample>, CliError> {
    let total_requests = ds.total_requests();
    let mut samples: Vec<ThreadSample> = Vec::new();
    let mut reference_bits = 0u64;
    for &n in threads {
        let skipped = n > hw;
        let reps = if skipped { 1 } else { repeat };
        let mut utility = 0.0f64;
        let mut assign_secs = f64::INFINITY;
        let mut p50 = f64::INFINITY;
        let mut p99 = f64::INFINITY;
        let mut begin_day_secs = f64::INFINITY;
        let mut stages = StageBreakdown::default();
        for rep in 0..reps {
            let (u, timings) = run_serving(ds, n, seed);
            if rep == 0 {
                utility = u;
            } else if u.to_bits() != utility.to_bits() {
                return Err(CliError::Gate(format!(
                    "{label}: {n}-thread run is not reproducible across repetitions"
                )));
            }
            let total_assign: f64 = timings.assign_batch_secs.iter().sum();
            if total_assign < assign_secs {
                stages = timings.breakdown;
            }
            assign_secs = assign_secs.min(total_assign);
            p50 = p50.min(timings.assign_percentile(50.0));
            p99 = p99.min(timings.assign_percentile(99.0));
            begin_day_secs = begin_day_secs.min(timings.begin_day_secs.iter().sum());
        }
        if n == 1 {
            reference_bits = utility.to_bits();
        }
        let sample = ThreadSample {
            n_threads: n,
            total_utility: utility,
            assign_secs,
            p50_batch_ms: fmt_ms(p50),
            p99_batch_ms: fmt_ms(p99),
            begin_day_secs,
            throughput_req_per_s: if assign_secs > 0.0 {
                total_requests as f64 / assign_secs
            } else {
                0.0
            },
            bit_identical_to_1: utility.to_bits() == reference_bits,
            skipped,
            stages,
        };
        if skipped {
            println!(
                "  [{label}] {n} thread(s): skipped (exceeds {hw} hardware threads) — \
                 bit-identity {}",
                if sample.bit_identical_to_1 { "ok" } else { "DIVERGED" }
            );
        } else {
            println!(
                "  [{label}] {} thread(s): assign {:.3}s  p50 {:.3}ms  p99 {:.3}ms  \
                 {:.0} req/s  {}",
                sample.n_threads,
                sample.assign_secs,
                sample.p50_batch_ms,
                sample.p99_batch_ms,
                sample.throughput_req_per_s,
                if sample.bit_identical_to_1 { "bit-identical" } else { "DIVERGED" }
            );
        }
        if !sample.bit_identical_to_1 {
            return Err(CliError::Gate(format!(
                "{label}: {n}-thread run diverged from the single-thread reference: {} vs {}",
                sample.total_utility,
                f64::from_bits(reference_bits)
            )));
        }
        samples.push(sample);
    }
    Ok(samples)
}

fn emit_ladder_json(out: &mut String, section: &LadderSection, hw: usize) {
    out.push_str(&format!("  \"{}\": {{\n", section.name));
    out.push_str(&format!("    \"world\": {},\n", section.world_json));
    out.push_str("    \"threads\": [\n");
    let base_assign = section.samples.iter().find(|s| !s.skipped).map_or(0.0, |s| s.assign_secs);
    for (i, s) in section.samples.iter().enumerate() {
        let sep = if i + 1 == section.samples.len() { "" } else { "," };
        if s.skipped {
            out.push_str(&format!(
                "      {{\"n_threads\": {}, \"skipped\": \"exceeds hardware_threads ({hw})\", \
                 \"bit_identical_to_1\": {}}}{sep}\n",
                s.n_threads, s.bit_identical_to_1
            ));
            continue;
        }
        let speedup = if s.assign_secs > 0.0 { base_assign / s.assign_secs } else { 1.0 };
        out.push_str(&format!(
            "      {{\"n_threads\": {}, \"assign_secs\": {:.6}, \"p50_batch_ms\": {:.4}, \
             \"p99_batch_ms\": {:.4}, \"begin_day_secs\": {:.6}, \"throughput_req_per_s\": {:.1}, \
             \"speedup_vs_1\": {:.3}, \"bit_identical_to_1\": {}, \"stages\": \
             {{\"bandit_score_ms\": {:.3}, \"cbs_select_ms\": {:.3}, \"sparse_build_ms\": {:.3}, \
             \"km_solve_ms\": {:.3}, \"pool_sync_ms\": {:.3}, \"sparse_rows\": {}, \
             \"sparse_edges\": {}, \"parallel_rounds\": {}, \"inline_rounds\": {}}}}}{sep}\n",
            s.n_threads,
            s.assign_secs,
            s.p50_batch_ms,
            s.p99_batch_ms,
            s.begin_day_secs,
            s.throughput_req_per_s,
            speedup,
            s.bit_identical_to_1,
            fmt_ms(s.stages.bandit_score_secs),
            fmt_ms(s.stages.cbs_select_secs),
            fmt_ms(s.stages.sparse_build_secs),
            fmt_ms(s.stages.km_solve_secs),
            fmt_ms(s.stages.pool_sync_secs),
            s.stages.sparse_rows,
            s.stages.sparse_edges,
            s.stages.parallel_rounds,
            s.stages.inline_rounds,
        ));
    }
    out.push_str("    ]\n");
    out.push_str("  },\n");
}

fn emit_sparse_json(out: &mut String, rungs: &[SparseRung], hw: usize, floor: f64) {
    out.push_str("  \"sparse_vs_dense\": {\n");
    out.push_str(&format!("    \"preset\": \"city\",\n    \"speedup_floor\": {floor},\n"));
    out.push_str("    \"threads\": [\n");
    for (i, r) in rungs.iter().enumerate() {
        let sep = if i + 1 == rungs.len() { "" } else { "," };
        if r.skipped {
            out.push_str(&format!(
                "      {{\"n_threads\": {}, \"skipped\": \"exceeds hardware_threads ({hw})\", \
                 \"bit_identical_to_oracle\": true}}{sep}\n",
                r.n_threads
            ));
            continue;
        }
        let speedup = if r.sparse_secs > 0.0 { r.dense_secs / r.sparse_secs } else { 1.0 };
        out.push_str(&format!(
            "      {{\"n_threads\": {}, \"sparse_secs\": {:.6}, \"oracle_secs\": {:.6}, \
             \"dense_secs\": {:.6}, \"speedup_vs_dense\": {:.3}, \
             \"bit_identical_to_oracle\": true, \"sparse_build_ms\": {:.3}, \
             \"sparse_rows\": {}, \"sparse_edges\": {}}}{sep}\n",
            r.n_threads,
            r.sparse_secs,
            r.oracle_secs,
            r.dense_secs,
            speedup,
            r.sparse_build_ms,
            r.sparse_rows,
            r.sparse_edges,
        ));
    }
    out.push_str("    ]\n");
    out.push_str("  },\n");
}

fn emit_json(
    quick: bool,
    repeat: usize,
    hw: usize,
    sections: &[LadderSection],
    sparse: Option<(&[SparseRung], f64)>,
    warm: &WarmKm,
    ov: &OverloadBench,
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"quick\": {quick},\n"));
    out.push_str(&format!("  \"repeat\": {repeat},\n"));
    out.push_str(&format!("  \"hardware_threads\": {hw},\n"));
    for section in sections {
        emit_ladder_json(&mut out, section, hw);
    }
    if let Some((rungs, floor)) = sparse {
        emit_sparse_json(&mut out, rungs, hw, floor);
    }
    let ops_ratio = warm.cold_ops as f64 / warm.warm_ops.max(1) as f64;
    let secs_ratio = if warm.warm_secs > 0.0 { warm.cold_secs / warm.warm_secs } else { 1.0 };
    out.push_str(&format!(
        "  \"warm_km\": {{\"size\": {}, \"batches\": {}, \"cold_ops\": {}, \"warm_ops\": {}, \
         \"ops_speedup\": {:.3}, \"cold_secs\": {:.6}, \"warm_secs\": {:.6}, \
         \"secs_speedup\": {:.3}}},\n",
        warm.size,
        warm.batches,
        warm.cold_ops,
        warm.warm_ops,
        ops_ratio,
        warm.cold_secs,
        warm.warm_secs,
        secs_ratio
    ));
    out.push_str(&format!(
        "  \"overload_{}x\": {{\"offered\": {}, \"served\": {}, \"shed_rate\": {:.4}, \
         \"breaker_trips\": {}, \"brownout_escalations\": {}, \
         \"p99_under_{}x_spike_ms\": {:.4}}}\n",
        ov.multiplier,
        ov.offered,
        ov.served,
        ov.shed_rate,
        ov.breaker_trips,
        ov.brownout_escalations,
        ov.multiplier,
        ov.p99_spike_ms
    ));
    out.push_str("}\n");
    out
}

/// Pull the `p99_batch_ms` of a given thread count out of a named ladder
/// section (`"fig8"` / `"city"`) of a previously emitted report. One
/// JSON object per line in each `threads` array, so a line scan scoped
/// to the section suffices — no JSON dependency needed. Skipped rungs
/// have no p99 and return `None`.
fn baseline_p99(text: &str, section: &str, n_threads: usize) -> Option<f64> {
    let marker = format!("\"{section}\":");
    let rest = &text[text.find(&marker)?..];
    let tag = format!("\"n_threads\": {n_threads},");
    for line in rest.lines() {
        let line = line.trim();
        if line.starts_with('{') && line.contains(&tag) {
            let key = "\"p99_batch_ms\": ";
            let at = line.find(key)? + key.len();
            let rest = &line[at..];
            let end = rest.find([',', '}'])?;
            return rest[..end].trim().parse().ok();
        }
        if line.starts_with(']') {
            break; // end of this section's threads array
        }
    }
    None
}

pub fn cmd_bench_serve(args: &Args) -> Result<(), CliError> {
    let quick = args.has("quick");
    let seed: u64 = args.get_or("seed", 7)?;
    let preset = args.get("preset").unwrap_or("both");
    if !matches!(preset, "fig8" | "city" | "both") {
        return Err(CliError::Usage(format!(
            "--preset must be fig8, city or both (got {preset:?})"
        )));
    }
    // The fig-8 synthetic preset (DESIGN.md §6 defaults); `--quick`
    // shrinks it to a smoke-test size for CI.
    let fig8_cfg = if quick {
        SyntheticConfig { num_brokers: 40, num_requests: 400, days: 2, imbalance: 0.2, seed }
    } else {
        SyntheticConfig { num_brokers: 100, num_requests: 1200, days: 5, imbalance: 0.12, seed }
    };
    // The city preset: the power-law `realworld` generator at a
    // `--scale` fraction of Table IV's city B (8155 brokers / 387,339
    // requests / 21 days). The default full scale (0.25 ≈ 2k brokers)
    // keeps a full ladder under a couple of minutes; `--quick` drops to
    // 0.06, the smallest scale whose begin_day still crosses the
    // parallel cutoff so CI exercises the pool.
    let scale: f64 = args.get_or("scale", if quick { 0.06 } else { 0.25 })?;
    if !(scale > 0.0 && scale <= 1.0) {
        return Err(CliError::Usage(format!("--scale must be in (0, 1] (got {scale})")));
    }
    let city_cfg = RealWorldConfig { seed, ..RealWorldConfig::scaled(CityId::B, scale) };
    let threads: Vec<usize> = args
        .get("threads")
        .unwrap_or("1,2,4,8")
        .split(',')
        .map(|t| t.trim().parse::<usize>().map_err(|_| format!("invalid thread count {t:?}")))
        .collect::<Result<_, _>>()?;
    if threads.is_empty() || threads[0] != 1 {
        return Err(CliError::Usage(
            "--threads must start with 1 (the bit-identity reference)".into(),
        ));
    }
    let repeat: usize = args.get_or("repeat", 3)?;
    if repeat == 0 {
        return Err(CliError::Usage("--repeat must be at least 1".into()));
    }
    let hw = pool::hardware_threads();

    let mut sections: Vec<LadderSection> = Vec::new();
    if preset != "city" {
        let ds = Dataset::synthetic(&fig8_cfg);
        println!(
            "serving benchmark [fig8]: {} brokers, {} requests, {} days on {} hardware \
             thread(s) (LACB-Opt{})",
            fig8_cfg.num_brokers,
            ds.total_requests(),
            fig8_cfg.days,
            hw,
            if quick { ", --quick" } else { "" }
        );
        let samples = run_ladder("fig8", &ds, &threads, seed, repeat, hw)?;
        sections.push(LadderSection {
            name: "fig8",
            world_json: format!(
                "{{\"brokers\": {}, \"requests\": {}, \"days\": {}, \"sigma\": {}, \"seed\": {}}}",
                fig8_cfg.num_brokers,
                fig8_cfg.num_requests,
                fig8_cfg.days,
                fig8_cfg.imbalance,
                fig8_cfg.seed
            ),
            samples,
        });
    }
    let mut city_ds = None;
    if preset != "fig8" {
        let ds = Dataset::real_world(&city_cfg);
        println!(
            "serving benchmark [city]: city B × {scale} = {} brokers, {} requests, {} days \
             on {} hardware thread(s)",
            city_cfg.num_brokers(),
            ds.total_requests(),
            city_cfg.days(),
            hw
        );
        let samples = run_ladder("city", &ds, &threads, seed, repeat, hw)?;
        sections.push(LadderSection {
            name: "city",
            world_json: format!(
                "{{\"city\": \"B\", \"scale\": {scale}, \"brokers\": {}, \"requests\": {}, \
                 \"days\": {}, \"seed\": {}}}",
                city_cfg.num_brokers(),
                city_cfg.num_requests(),
                city_cfg.days(),
                city_cfg.seed
            ),
            samples,
        });
        city_ds = Some(ds);
    }

    // Parallel-regression gate: on the city preset (where per-batch work
    // is big enough that threads must help), 2 threads may not run the
    // ladder slower than `--speedup-floor` × the 1-thread throughput.
    // Vacuous when the machine lacks a second hardware thread (the rung
    // is skipped) or the city preset was not requested.
    let floor: f64 = args.get_or("speedup-floor", 0.9)?;
    if let Some(city) = sections.iter().find(|s| s.name == "city") {
        let base = city.samples.iter().find(|s| s.n_threads == 1 && !s.skipped);
        let two = city.samples.iter().find(|s| s.n_threads == 2 && !s.skipped);
        if let (Some(base), Some(two)) = (base, two) {
            let speedup =
                if two.assign_secs > 0.0 { base.assign_secs / two.assign_secs } else { 1.0 };
            println!("speedup gate [city]: 2 threads at {speedup:.3}x vs floor {floor}");
            if speedup < floor {
                return Err(CliError::Gate(format!(
                    "parallel serving regressed: city-preset speedup_vs_1 at 2 threads is \
                     {speedup:.3}, below the {floor} floor"
                )));
            }
        }
    }

    // §16 sparse-vs-dense comparison and its gates, on the city preset
    // (the scale where the candidate graph is actually sparse). Every
    // rung must be bit-identical to the masked-dense oracle; at 1
    // thread the fused CSR path must beat the legacy dense pipeline by
    // `--sparse-floor` (default 1.5x, acceptance target 2x).
    let sparse_floor: f64 = args.get_or("sparse-floor", 1.5)?;
    let mut sparse_rungs = None;
    if let Some(ds) = &city_ds {
        println!("sparse-vs-dense [city]: 3 modes per rung (On / DenseOracle / Off)");
        let rungs = bench_sparse_vs_dense(ds, &threads, seed, repeat, hw)?;
        if let Some(r1) = rungs.iter().find(|r| r.n_threads == 1 && !r.skipped) {
            let speedup = if r1.sparse_secs > 0.0 { r1.dense_secs / r1.sparse_secs } else { 1.0 };
            println!(
                "sparse speedup gate [city]: 1 thread at {speedup:.3}x vs floor {sparse_floor}"
            );
            if speedup < sparse_floor {
                return Err(CliError::Gate(format!(
                    "sparse assignment speedup at 1 thread is {speedup:.3}x, below the \
                     {sparse_floor}x floor against the dense path"
                )));
            }
        }
        sparse_rungs = Some(rungs);
    }

    let (wn, wb) = if quick { (40, 30) } else { (80, 60) };
    let warm = bench_warm_km(wn, wb).map_err(CliError::Gate)?;
    let ops_speedup = warm.cold_ops as f64 / warm.warm_ops.max(1) as f64;
    println!(
        "warm-start KM ({}x{} × {} batches): cold {} ops / warm {} ops = {:.2}x \
         (wall: {:.3}s vs {:.3}s)",
        warm.size,
        warm.size,
        warm.batches,
        warm.cold_ops,
        warm.warm_ops,
        ops_speedup,
        warm.cold_secs,
        warm.warm_secs
    );
    if ops_speedup < 1.5 {
        return Err(CliError::Gate(format!(
            "warm-start KM speedup {ops_speedup:.2}x below the 1.5x floor on the perturbed-batch sequence"
        )));
    }

    let ov = bench_overload(&fig8_cfg, seed, repeat).map_err(CliError::Gate)?;
    println!(
        "overload {}x spike: shed {:.1}% of {} offered, {} breaker trips, \
         {} brownout escalations, p99 {:.3}ms under spike",
        ov.multiplier,
        ov.shed_rate * 100.0,
        ov.offered,
        ov.breaker_trips,
        ov.brownout_escalations,
        ov.p99_spike_ms
    );

    let report = emit_json(
        quick,
        repeat,
        hw,
        &sections,
        sparse_rungs.as_deref().map(|r| (r, sparse_floor)),
        &warm,
        &ov,
    );
    if let Some(path) = args.get("out") {
        std::fs::write(path, &report).map_err(|e| format!("writing {path}: {e}"))?;
        println!("report written: {path}");
    } else {
        print!("{report}");
    }

    if let Some(path) = args.get("baseline") {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("reading baseline {path}: {e}"))?;
        let base_quick = text.contains("\"quick\": true");
        if base_quick != quick {
            return Err(CliError::Usage(format!(
                "baseline {path} was measured with quick={base_quick} but this run has \
                 quick={quick}; p99 latencies of different world sizes are not comparable"
            )));
        }
        // Gate on the first section this invocation measured (fig8
        // unless `--preset city`), against the same section of the
        // baseline.
        let section = sections.first().expect("at least one preset always runs");
        let base = baseline_p99(&text, section.name, 1).ok_or_else(|| {
            format!("baseline {path} has no 1-thread p99_batch_ms in section {:?}", section.name)
        })?;
        let now = section.samples[0].p99_batch_ms;
        // >20% relative regression, with an absolute noise floor: batches
        // complete in tens of microseconds, where the p99 is scheduler
        // jitter, not code. A real serving regression (a lost warm start,
        // a reintroduced allocation, a cold cubic solve) lands in the
        // millisecond range and clears the floor; timer noise never does.
        let slack_ms: f64 = args.get_or("slack-ms", 0.25)?;
        let limit = (base * 1.2).max(base + slack_ms);
        println!(
            "p99 regression gate [{}]: current {now:.4}ms vs baseline {base:.4}ms \
             (limit {limit:.4}ms = max(1.2x, +{slack_ms}ms))",
            section.name
        );
        if now > limit {
            return Err(CliError::Gate(format!(
                "p99 per-batch latency regressed >20%: {now:.4}ms vs baseline {base:.4}ms \
                 (limit {limit:.4}ms)"
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn quick_bench_runs_and_writes_report() {
        let out = std::env::temp_dir().join("caam_bench_serve_test.json");
        // Both speedup floors at 0: this test checks report structure,
        // not timing, and wall-clock speedups are load-sensitive when
        // the whole workspace test suite shares the machine. CI's
        // bench-smoke step enforces the real floors.
        let args = Args::parse(&argv(&format!(
            "--quick --threads 1,2 --repeat 1 --sparse-floor 0 --speedup-floor 0 --out {}",
            out.display()
        )))
        .unwrap();
        cmd_bench_serve(&args).unwrap();
        let text = std::fs::read_to_string(&out).unwrap();
        assert!(text.contains("\"fig8\":"));
        assert!(text.contains("\"city\":"));
        assert!(text.contains("\"hardware_threads\""));
        assert!(text.contains("\"stages\""));
        assert!(text.contains("\"sparse_vs_dense\":"));
        assert!(text.contains("\"bit_identical_to_oracle\": true"));
        assert!(text.contains("\"speedup_vs_dense\""));
        assert!(text.contains("\"sparse_build_ms\""));
        assert!(text.contains("\"warm_km\""));
        assert!(text.contains("\"overload_4x\""));
        assert!(text.contains("\"p99_under_4x_spike_ms\""));
        assert!(text.contains("\"quick\": true"));
        assert!(baseline_p99(&text, "fig8", 1).is_some());
        assert!(baseline_p99(&text, "city", 1).is_some());
        let _ = std::fs::remove_file(&out);
    }

    #[test]
    fn rungs_above_hardware_threads_are_skipped_with_marker() {
        let out = std::env::temp_dir().join("caam_bench_serve_skip_test.json");
        let over = pool::hardware_threads() + 1;
        let args = Args::parse(&argv(&format!(
            "--quick --preset fig8 --threads 1,{over} --repeat 1 --out {}",
            out.display()
        )))
        .unwrap();
        cmd_bench_serve(&args).unwrap();
        let text = std::fs::read_to_string(&out).unwrap();
        assert!(
            text.contains("\"skipped\": \"exceeds hardware_threads"),
            "over-hardware rung must carry a skip marker:\n{text}"
        );
        // The skipped rung still attests bit-identity but publishes no
        // latency figure.
        assert!(baseline_p99(&text, "fig8", over).is_none());
        assert!(text.contains("\"bit_identical_to_1\": true"));
        let _ = std::fs::remove_file(&out);
    }

    /// Gate behaviour is deterministic against synthetic baselines: a
    /// huge baseline p99 passes, a microscopic one trips the 20% limit,
    /// and a preset mismatch is refused outright.
    #[test]
    fn baseline_gate_passes_fails_and_rejects_mismatch() {
        let dir = std::env::temp_dir();
        let run = |baseline: &std::path::Path| {
            let args = Args::parse(&argv(&format!(
                "--quick --preset fig8 --threads 1 --repeat 1 --slack-ms 0 --baseline {}",
                baseline.display()
            )))
            .unwrap();
            cmd_bench_serve(&args)
        };
        let entry = |p99: f64, quick: bool| {
            format!(
                "{{\n  \"quick\": {quick},\n  \"fig8\": {{\n    \"threads\": [\n      \
                 {{\"n_threads\": 1, \"p99_batch_ms\": {p99}}}\n    ]\n  }}\n}}\n"
            )
        };
        let generous = dir.join("caam_bench_baseline_generous.json");
        std::fs::write(&generous, entry(1e9, true)).unwrap();
        run(&generous).unwrap();
        let strict = dir.join("caam_bench_baseline_strict.json");
        std::fs::write(&strict, entry(1e-9, true)).unwrap();
        assert!(run(&strict).unwrap_err().to_string().contains("regressed"));
        let mismatched = dir.join("caam_bench_baseline_full.json");
        std::fs::write(&mismatched, entry(1e9, false)).unwrap();
        assert!(run(&mismatched).unwrap_err().to_string().contains("not comparable"));
        for p in [generous, strict, mismatched] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn threads_must_start_at_one() {
        let args = Args::parse(&argv("--quick --threads 2,4")).unwrap();
        assert!(cmd_bench_serve(&args).unwrap_err().to_string().contains("start with 1"));
    }

    #[test]
    fn preset_and_scale_are_validated() {
        let args = Args::parse(&argv("--quick --preset nope")).unwrap();
        assert!(cmd_bench_serve(&args).unwrap_err().to_string().contains("--preset"));
        let args = Args::parse(&argv("--quick --scale 1.5")).unwrap();
        assert!(cmd_bench_serve(&args).unwrap_err().to_string().contains("--scale"));
    }

    #[test]
    fn baseline_parser_reads_emitted_format_per_section() {
        let text = "{\n  \"fig8\": {\n    \"threads\": [\n      {\"n_threads\": 1, \
                    \"assign_secs\": 0.5, \"p99_batch_ms\": 12.3456, \"x\": 1},\n      \
                    {\"n_threads\": 4, \"skipped\": \"exceeds hardware_threads (2)\", \
                    \"bit_identical_to_1\": true}\n    ]\n  },\n  \"city\": {\n    \
                    \"threads\": [\n      {\"n_threads\": 1, \"p99_batch_ms\": 6.1}\n    ]\n  }\n}\n";
        assert_eq!(baseline_p99(text, "fig8", 1), Some(12.3456));
        assert_eq!(baseline_p99(text, "city", 1), Some(6.1));
        assert_eq!(baseline_p99(text, "fig8", 4), None, "skipped rung has no p99");
        assert_eq!(baseline_p99(text, "fig8", 8), None);
        assert_eq!(baseline_p99(text, "nope", 1), None);
    }
}
