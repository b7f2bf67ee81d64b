//! One benchmark run: set up a workload, then either time its own stack
//! end to end (tracing off) or trace its core and climb the layer
//! ladder (tracing on).
//!
//! The load is a closed loop with one client, the `Platform` simulator:
//! batch *t + 1* is issued only once batch *t* has executed, because
//! its assignment depends on *t*'s outcome. A *horizon* is one full pass
//! of the workload's days through a stack, from fresh learned state and
//! a fresh state directory.

use crate::gates::Gates;
use crate::ladder::{self, Ladder};
use crate::report::{self, Metric};
use crate::stacks::{digest, reset_dir, serve, state_of, Fingerprint, Layer, Rung, Served};
use crate::stats::{has_tail, median, Sorted};
use crate::trace::{self, Traced};
use crate::workloads::{Inputs, Workload};
use lacb::{Lacb, RunConfig};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 9;
/// Days of the untimed warm-up (`lacb::run`) after set-up.
const WARM_UP_DAYS: usize = 2;
/// Repetitions of each ladder rung; the ladder reports their median.
const LADDER_REPS: usize = 3;

pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    /// Seconds the timed run measures for, which sets its number of
    /// horizons (see `Workload::horizons`).
    pub seconds: f64,
    pub trace: bool,
    /// Where the traced run writes its spans (JSON lines), if anywhere.
    pub trace_out: Option<PathBuf>,
    /// Parent of the run's own state directory.
    pub state_dir: PathBuf,
    /// Toy-size inputs: the p99 may be withheld for lack of samples.
    pub smoke: bool,
}

pub struct Outcome {
    pub metrics: Vec<Metric>,
    /// Requests offered over the timed horizons.
    pub attempted: u64,
    /// Requests neither served nor deliberately shed.
    pub failed: u64,
    pub gates: Gates,
}

/// Run the benchmark once, removing its state directory afterwards.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let dir = opts.state_dir.join(format!("{}-{}", opts.workload.name, std::process::id()));
    let outcome = run_in(opts, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    // Only succeeds when no other run is using the parent.
    let _ = std::fs::remove_dir(&opts.state_dir);
    outcome
}

fn run_in(opts: &Options, dir: &Path) -> Result<Outcome, String> {
    let w = opts.workload;
    let (inputs, setup_s) = set_up(w, opts.seed, dir)?;
    let ds = &inputs.dataset;
    println!(
        "caam-bench {} seed {}: {} brokers, {} requests, {} days, {} batches; {} with \
         n_threads 1 on {} hardware threads",
        w.name,
        opts.seed,
        ds.brokers.len(),
        ds.total_requests(),
        ds.num_days(),
        ds.days.iter().map(Vec::len).sum::<usize>(),
        w.rung.label(),
        pool::hardware_threads(),
    );
    let mut gates = Gates::default();
    let (metrics, attempted, failed) = if opts.trace {
        traced(opts, &inputs, dir, &mut gates)?
    } else {
        measured(opts, &inputs, setup_s, dir, &mut gates)?
    };
    let optional: &[&str] = if opts.smoke { &["batch_p99_ms"] } else { &[] };
    let declared = report::declared(opts.trace)?;
    let conforms = report::conforms(&metrics, &declared, optional);
    gates.check("metrics match BENCHMARK.json", conforms.is_ok(), || conforms.unwrap_err());
    Ok(Outcome { metrics, attempted, failed, gates })
}

/// Generate the inputs and prepare the state directory, timed,
/// `SETUP_REPEATS` times; then warm up once, untimed. Returns the last
/// inputs and the median set-up time.
fn set_up(w: Workload, seed: u64, dir: &Path) -> Result<(Inputs, f64), String> {
    let mut secs = Vec::with_capacity(SETUP_REPEATS);
    let mut inputs = None;
    for _ in 0..SETUP_REPEATS {
        // One copy of the inputs at a time keeps peak memory honest.
        drop(inputs.take());
        let t = Instant::now();
        let fresh = w.inputs(seed);
        reset_dir(dir)?;
        secs.push(t.elapsed().as_secs_f64());
        inputs = Some(fresh);
    }
    let inputs = inputs.expect("at least one set-up");
    let mut lacb = Lacb::new(inputs.lacb.clone());
    let cfg = RunConfig { max_days: Some(WARM_UP_DAYS) };
    std::hint::black_box(lacb::run(&inputs.dataset, &mut lacb, &cfg));
    Ok((inputs, median(&secs)))
}

/// The end-to-end run: the workload's fixed number of horizons of its
/// own stack.
///
/// Every horizon replays identical work (the gates check that their
/// outputs are bit-identical), so a batch's latencies differ between
/// horizons only by interference from outside the program: each batch's
/// sample is the fastest of its replays. The number of replays is fixed
/// by the workload, not by the speed of the code under test, and the
/// percentiles rank distinct batches.
fn measured(
    opts: &Options,
    inputs: &Inputs,
    setup_s: f64,
    dir: &Path,
    gates: &mut Gates,
) -> Result<(Vec<Metric>, u64, u64), String> {
    let rung = opts.workload.rung;
    let horizons = opts.workload.horizons(opts.seconds);
    // Only a compact reference is kept, so memory does not grow with the
    // number of horizons.
    let mut reference: Option<Fingerprint> = None;
    let mut served_share = 0.0;
    let mut rates = Vec::with_capacity(horizons);
    let mut fastest: Vec<f64> = Vec::new();
    let (mut attempted, mut failed, mut shed_total) = (0u64, 0u64, 0u64);
    for h in 1..=horizons {
        let out = serve(rung, inputs, &inputs.dataset, &dir.join("serve"))?;
        let (served, shed) = (out.served(), out.shed());
        let rate = served as f64 / out.wall_secs;
        println!("  horizon {h}/{horizons}: {:.3} s, {rate:.1} req/s", out.wall_secs);
        rates.push(rate);
        attempted += out.offered;
        shed_total += shed;
        failed += out.offered.saturating_sub(served + shed);
        gates.check("outcomes balance", served + shed <= out.offered, || {
            format!("served {served} + shed {shed} > offered {}", out.offered)
        });
        gates.serving_invariants(rung.label(), &out);
        let fingerprint = out.fingerprint();
        match &reference {
            None => reference = Some(fingerprint),
            Some(r) => gates.same_outcome("utility repeatable across horizons", r, &fingerprint),
        }
        served_share = served as f64 / out.offered as f64;
        let latencies = out.batch_latencies();
        if fastest.is_empty() {
            fastest.extend_from_slice(latencies);
        } else {
            gates.check("replayed batches align", fastest.len() == latencies.len(), || {
                format!("{} vs {} batch samples", fastest.len(), latencies.len())
            });
            fastest.iter_mut().zip(latencies).for_each(|(best, &x)| *best = best.min(x));
        }
    }
    let utility = reference.expect("at least one horizon").utility;
    let samples = Sorted::new(fastest);
    let mut metrics = vec![
        Metric { name: "setup_s", value: setup_s, unit: "s" },
        Metric { name: "throughput_rps", value: median(&rates), unit: "req/s" },
    ];
    if let Some(p50) = samples.percentile(50.0) {
        metrics.push(Metric { name: "batch_p50_ms", value: p50 * 1e3, unit: "ms" });
    }
    if let Some(p99) = samples.percentile(99.0).filter(|_| has_tail(samples.len(), 99.0)) {
        metrics.push(Metric { name: "batch_p99_ms", value: p99 * 1e3, unit: "ms" });
    }
    metrics.extend([
        Metric { name: "utility", value: utility, unit: "utility" },
        Metric { name: "served_share", value: served_share, unit: "ratio" },
        Metric { name: "peak_rss_mb", value: peak_rss_mib()?, unit: "MiB" },
    ]);
    println!(
        "  {horizons} horizons, {} batch samples; requests offered {attempted}, shed \
         {shed_total}, failed {failed}",
        samples.len(),
    );
    Ok((metrics, attempted, failed))
}

/// The traced run: the traced core (beside the same loop untraced) over
/// the whole horizon, an untraced `lacb::run` it must match, one horizon
/// of the workload's own stack for its layer counters, and the layer
/// ladder.
fn traced(
    opts: &Options,
    inputs: &Inputs,
    dir: &Path,
    gates: &mut Gates,
) -> Result<(Vec<Metric>, u64, u64), String> {
    let w = opts.workload;
    let ds = &inputs.dataset;

    let mut lacb = Lacb::new(inputs.lacb.clone());
    let mut untraced = Lacb::new(inputs.lacb.clone());
    let driven = trace::drive(ds, &mut lacb, &mut untraced, &dir.join("trace"))?;
    let core = serve(Rung::Run, inputs, ds, &dir.join("core"))?;
    let traced_digest = digest(&state_of(&lacb));
    gates.check(
        "traced core = lacb::run",
        driven.utility.to_bits() == core.metrics.total_utility.to_bits()
            && traced_digest == core.state_digest,
        || format!("utility {} vs {}", driven.utility, core.metrics.total_utility),
    );
    gates.check(
        "traced core = untraced core",
        driven.utility.to_bits() == driven.untraced_utility.to_bits()
            && traced_digest == digest(&state_of(&untraced)),
        || format!("utility {} vs {}", driven.utility, driven.untraced_utility),
    );
    if let Some(path) = &opts.trace_out {
        trace::write_jsonl(&driven.spans, path)?;
        println!("  {} spans written to {}", driven.spans.len(), path.display());
    }

    let own = match w.rung {
        Rung::Run => None,
        rung => {
            let out = serve(rung, inputs, ds, &dir.join("own"))?;
            gates.serving_invariants(rung.label(), &out);
            Some(out)
        }
    };
    let own = own.as_ref().unwrap_or(&core);

    let ladder_ds = ds.truncated(w.ladder_days.min(ds.num_days()));
    let ladder = ladder::climb(inputs, &ladder_ds, LADDER_REPS, &dir.join("ladder"), gates)?;
    println!(
        "  layer ladder over the first {} days ({} batches):",
        ladder_ds.num_days(),
        ladder.batches
    );
    for rung in Rung::ALL {
        println!("    {:38} {:>12.1} us/batch", rung.label(), ladder.us_per_batch(rung));
    }

    let mut metrics = core_metrics(&driven, &core, ds.brokers.len(), gates);
    metrics.extend(layer_metrics(w.rung, own, &ladder));
    let failed = own.offered.saturating_sub(own.served() + own.shed());
    Ok((metrics, own.offered, failed))
}

/// Stage metrics of the traced core, its closure and overhead, and the
/// pool counters of the untraced `lacb::run`.
fn core_metrics(driven: &Traced, core: &Served, brokers: usize, gates: &mut Gates) -> Vec<Metric> {
    let spans = &driven.spans;
    let ms = |name: &str| trace::total_ms(spans, name);
    let b = &driven.breakdown;
    let fused_ms = b.sparse_build_secs * 1e3;
    let km_ms = b.km_solve_secs * 1e3;
    let cbs_ms = b.cbs_select_secs * 1e3;
    let assign_ms = ms("lacb.assign");
    let (rows, edges) = (b.sparse_rows as f64, b.sparse_edges as f64);

    // Time inside spans that is in none of their children: loop and
    // bookkeeping between calls. Every span closes inside its parent,
    // so this cannot be negative unless the clock went backwards.
    let self_ns = trace::self_times(spans);
    let leaf = trace::leaves(spans);
    let unattributed_ns: i64 =
        self_ns.iter().zip(&leaf).filter(|(_, &is_leaf)| !is_leaf).map(|(&ns, _)| ns).sum();
    gates.check("core.unattributed_ms >= 0", self_ns.iter().all(|&ns| ns >= 0), || {
        format!("unattributed {unattributed_ns} ns")
    });
    // Tracing overhead, day by day, against the untraced loop that
    // served each day right next to it; the median day ratio shrugs off
    // a burst of interference from other processes.
    let (on, off) = (&driven.traced_day_secs, &driven.untraced_day_secs);
    let ratios: Vec<f64> = on.iter().zip(off).map(|(t, u)| t / u).collect();
    let overhead_pct = (median(&ratios) - 1.0) * 100.0;
    println!(
        "  traced loop {:.1} ms vs untraced {:.1} ms over {} days; {} spans",
        on.iter().sum::<f64>() * 1e3,
        off.iter().sum::<f64>() * 1e3,
        ratios.len(),
        spans.len()
    );

    let audit = driven.audit.clone().unwrap_or_default();
    let m = |name, value, unit| Metric { name, value, unit };
    vec![
        m("matching.fused_ms", fused_ms, "ms"),
        m("matching.fused_ns_per_pair", fused_ms * 1e6 / (rows * brokers as f64), "ns"),
        m("matching.csr_rows", rows, "count"),
        m("matching.csr_edges", edges, "count"),
        m("matching.edges_per_row", edges / rows, "edges/row"),
        m("matching.km_ms", km_ms, "ms"),
        m("matching.km_ns_per_edge", km_ms * 1e6 / edges, "ns"),
        m("lacb.begin_day_ms", ms("lacb.begin_day"), "ms"),
        m("bandit.score_ms", b.bandit_score_secs * 1e3, "ms"),
        m("lacb.end_day_ms", ms("lacb.end_day"), "ms"),
        m("lacb.assign_ms", assign_ms, "ms"),
        m("lacb.assign_other_ms", assign_ms - fused_ms - km_ms - cbs_ms, "ms"),
        m("lacb.repair_ms", ms("lacb.repair"), "ms"),
        m("audit.checks", audit.checks as f64, "count"),
        m("audit.deep_audits", audit.deep_audits as f64, "count"),
        m("audit.violations", audit.violations.len() as f64, "count"),
        m("platform.execute_ms", ms("platform.execute"), "ms"),
        m("platform.day_ms", ms("platform.begin_day") + ms("platform.end_day"), "ms"),
        m("checkpoint.capture_ms", ms("checkpoint.capture"), "ms"),
        m("checkpoint.encode_ms", ms("checkpoint.encode"), "ms"),
        m("checkpoint.save_ms", ms("checkpoint.save"), "ms"),
        m("core.unattributed_ms", unattributed_ns as f64 * 1e-6, "ms"),
        m("trace.overhead_pct", overhead_pct, "%"),
        m("pool.parallel_rounds", core.metrics.timings.breakdown.parallel_rounds as f64, "count"),
        m("pool.inline_rounds", core.metrics.timings.breakdown.inline_rounds as f64, "count"),
    ]
}

/// Each layer's marginal cost from the ladder, and its counters: from
/// the workload's own horizon when its stack contains the layer, else
/// from the ladder rung that adds it.
fn layer_metrics(stack: Rung, own: &Served, ladder: &Ladder) -> Vec<Metric> {
    let source = |layer: Layer| if stack.has(layer) { own } else { ladder.served(layer.rungs().0) };
    let m = |name, value, unit| Metric { name, value, unit };
    let marginal = |name, layer| m(name, ladder.marginal_us(layer), "us");

    let resilience = source(Layer::Resilience).metrics.resilience.clone().unwrap_or_default();
    let admission = source(Layer::Admission).metrics.overload.clone().unwrap_or_default();
    let io = &source(Layer::Durability).io;
    let storage = source(Layer::StorageGuard).metrics.storage.clone().unwrap_or_default();
    let replica = source(Layer::Replica).metrics.replication.clone().unwrap_or_default();
    // Only run_overload reports stage timings among the admission
    // stacks; dense CBS selection runs only on brownout batches.
    let overload_call = if stack == Rung::Overload { own } else { ladder.served(Rung::Overload) };
    let timings = &overload_call.metrics.timings;
    let batch_secs: f64 = timings.assign_batch_secs.iter().sum();
    let cbs_pct =
        if batch_secs > 0.0 { timings.breakdown.cbs_select_secs / batch_secs * 100.0 } else { 0.0 };

    vec![
        m("matching.cbs_select_pct", cbs_pct, "%"),
        m("admission.reduced_cbs_batches", admission.reduced_cbs_batches as f64, "count"),
        m("admission.greedy_batches", admission.greedy_batches as f64, "count"),
        marginal("audit.marginal_us_per_batch", Layer::Audit),
        marginal("resilient.marginal_us_per_batch", Layer::Resilience),
        m("resilient.degradations", resilience.degradation_events() as f64, "count"),
        marginal("admission.marginal_us_per_batch", Layer::Admission),
        m("admission.admitted", admission.admitted as f64, "count"),
        m("admission.shed", admission.shed_total() as f64, "count"),
        m("admission.leftover_queued", admission.leftover_queued as f64, "count"),
        m("admission.breaker_trips", admission.breaker_trips as f64, "count"),
        m("admission.brownout_escalations", admission.brownout_escalations as f64, "count"),
        marginal("durability.marginal_us_per_batch", Layer::Durability),
        m("durability.wal_bytes", io.wal_bytes as f64, "bytes"),
        m("durability.wal_records", io.wal_records as f64, "count"),
        m("durability.ckpt_bytes", io.ckpt_bytes as f64, "bytes"),
        marginal("storage_guard.marginal_us_per_batch", Layer::StorageGuard),
        m("storage_guard.transitions", storage.transitions.len() as f64, "count"),
        m("storage_guard.faults", storage.faults as f64, "count"),
        marginal("replica.marginal_us_per_batch", Layer::Replica),
        m("replica.frames_shipped", replica.frames_shipped as f64, "count"),
        m("replica.frames_applied", replica.frames_applied as f64, "count"),
        m(
            "replica.apply_ratio",
            replica.frames_applied as f64 / replica.frames_shipped.max(1) as f64,
            "ratio",
        ),
        m("replica.max_lag", replica.max_lag as f64, "count"),
        m("replica.pruned_records", replica.pruned_records as f64, "count"),
    ]
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}
