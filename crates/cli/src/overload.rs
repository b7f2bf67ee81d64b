//! `caam overload` — the graceful-degradation harness.
//!
//! Drives a seeded traffic ramp (default 1x→16x) through the
//! overload-protected serving loop and asserts the degradation curve:
//!
//! * **goodput holds** — no day's served count drops below a floor
//!   (default 60%) of the pre-spike level;
//! * **every shed is accounted** — offered = admitted + shed + queued,
//!   exactly;
//! * **zero panics** — the loop absorbs the ramp without crashing;
//! * **bit-identical across thread counts** — the same seed yields the
//!   same utility, learned state and overload accounting for every
//!   `--threads` entry.
//!
//! Any gate failure is a non-zero exit; `--out FILE` writes a JSON ramp
//! report (per-day goodput curve plus the full accounting) that CI
//! uploads as an artifact when the gate trips.

use crate::args::Args;
use crate::commands::CliError;
use crate::harness::{self, caught, list, obj, quote, same_outcome, Gate};
use lacb::overload::{run_overload, OverloadConfig, OverloadOutcome, DEADLINE_TICKS};
use lacb::{LacbConfig, ResilienceConfig};
use platform_sim::ramp_dataset;

pub fn cmd_overload(args: &Args) -> Result<(), CliError> {
    let quick = args.has("quick");
    let (_, base, cfg) =
        harness::world(args, 24, if quick { 360 } else { 600 }, if quick { 6 } else { 10 })?;
    let stages =
        harness::stages(args, if quick { "1,4,16" } else { "1,2,4,8,16" }, base.days.len())?;
    let threads: Vec<usize> =
        harness::list_flag(args, "threads", if quick { "1,2" } else { "1,2,4,8" })?;
    let goodput_floor: f64 = args.get_or("goodput-floor", 0.6)?;
    let ramp_seed: u64 = args.get_or("ramp-seed", 97)?;
    let (scenario, fault_seed, plan) = harness::fault_plan(args, "none")?;
    let ramp = ramp_dataset(&base, &stages, ramp_seed);
    let ocfg = OverloadConfig::sized_for(&base);

    println!("dataset    : {} ({} days)", ramp.dataset.name, ramp.dataset.days.len());
    println!(
        "ramp       : stages x{:?}, {} requests total (base {})",
        stages,
        ramp.dataset.total_requests(),
        base.total_requests()
    );
    println!("scenario   : {scenario} (fault seed {fault_seed})");
    println!(
        "admission  : queue {} (watermark {}), {} tokens/tick (burst {}), deadline {} ticks",
        ocfg.queue_capacity,
        ocfg.queue_watermark,
        ocfg.tokens_per_tick,
        ocfg.bucket_capacity,
        DEADLINE_TICKS
    );

    // One run per thread count; the first is the reference the gates
    // inspect, the rest must be bit-identical to it.
    let mut runs: Vec<OverloadOutcome> = Vec::new();
    let mut panic_detail: Option<String> = None;
    for &n_threads in &threads {
        let cfg = LacbConfig { n_threads, ..cfg.clone() };
        let run = || run_overload(&ramp.dataset, cfg, ResilienceConfig::default(), &ocfg, plan);
        match caught(run) {
            Ok(out) => runs.push(out),
            Err(why) => {
                panic_detail = Some(format!("threads={n_threads}: serving loop panicked: {why}"));
                break;
            }
        }
    }
    let Some(reference) = runs.first() else {
        return Err(CliError::Gate(panic_detail.unwrap_or_else(|| "no run completed".into())));
    };
    let diverged = runs.iter().zip(&threads).find(|(out, _)| {
        same_outcome(&reference.metrics, &reference.final_state, &out.metrics, &out.final_state)
            .is_err()
    });
    let Some(ov) = &reference.metrics.overload else {
        return Err(CliError::Gate("run carried no overload stats".into()));
    };
    let absorbed = reference.metrics.resilience.as_ref().map_or(0, |s| s.primary_panics);

    // Goodput curve: baseline is the mean served over the first-stage
    // days; no day may fall below the floor.
    let stage0_days: Vec<usize> =
        (0..ramp.dataset.days.len()).filter(|&d| ramp.multiplier_of_day(d) == stages[0]).collect();
    let baseline: f64 = stage0_days.iter().map(|&d| ov.daily_served[d] as f64).sum::<f64>()
        / stage0_days.len().max(1) as f64;
    let mut worst_day = 0usize;
    let mut worst_ratio = f64::INFINITY;
    println!("day  stage  served  vs-baseline");
    for (d, &served) in ov.daily_served.iter().enumerate() {
        let ratio = if baseline > 0.0 { served as f64 / baseline } else { 0.0 };
        if ratio < worst_ratio {
            worst_ratio = ratio;
            worst_day = d;
        }
        println!("{d:>3}  x{:<5} {served:>6}  {:>6.1}%", ramp.multiplier_of_day(d), ratio * 100.0);
    }

    let gates = [
        Gate {
            name: "goodput-floor",
            pass: worst_ratio >= goodput_floor,
            detail: format!(
                "worst day {worst_day} at {:.1}% of baseline {baseline:.1} (floor {:.0}%)",
                worst_ratio * 100.0,
                goodput_floor * 100.0
            ),
        },
        Gate {
            name: "shed-accounting",
            pass: ov.accounting_balanced(),
            detail: format!(
                "offered {} = admitted {} + shed {} + queued {}",
                ov.offered,
                ov.admitted,
                ov.shed_total(),
                ov.leftover_queued
            ),
        },
        Gate {
            name: "zero-panics",
            pass: panic_detail.is_none() && absorbed == 0,
            detail: match &panic_detail {
                Some(why) => why.clone(),
                None if absorbed > 0 => {
                    format!("{absorbed} primary panics absorbed by the resilient ladder")
                }
                None => "no panics observed".into(),
            },
        },
        Gate {
            name: "thread-identical",
            pass: diverged.is_none() && panic_detail.is_none(),
            detail: match diverged {
                Some((_, n)) => format!("threads={n} diverged from threads={}", threads[0]),
                None if runs.len() > 1 => format!("threads {threads:?} agree bit-for-bit"),
                None => "single thread count".into(),
            },
        },
    ];

    println!(
        "shedding   : {} queue-full, {} deadline, {} watermark ({} total of {} offered)",
        ov.shed_queue_full,
        ov.shed_deadline,
        ov.shed_watermark,
        ov.shed_total(),
        ov.offered
    );
    println!(
        "protection : {} spikes, {} breaker trips, {} brownout escalations, {} reduced-CBS + {} greedy batches",
        ov.spikes_detected,
        ov.breaker_trips,
        ov.brownout_escalations,
        ov.reduced_cbs_batches,
        ov.greedy_batches
    );
    let days = ov.daily_served.iter().enumerate().map(|(d, served)| {
        obj(&[("day", &d), ("stage", &ramp.multiplier_of_day(d)), ("served", served)])
    });
    let breaker_events = ov.breaker_events.iter().map(|e| {
        obj(&[
            ("component", &quote(e.component.label())),
            ("tick", &e.transition.tick),
            ("from", &quote(e.transition.from.label())),
            ("to", &quote(e.transition.to.label())),
        ])
    });
    harness::conclude(
        args,
        "overload",
        17,
        &gates,
        &format!(
            "goodput floor {:.0}%, worst day {:.1}%, shed {}/{}",
            goodput_floor * 100.0,
            worst_ratio * 100.0,
            ov.shed_total(),
            ov.offered
        ),
        &[
            ("dataset", &quote(&ramp.dataset.name)),
            ("stages", &format!("{stages:?}")),
            ("goodput_baseline", &format!("{baseline:.2}")),
            ("days", &list("[", days, "]")),
            ("offered", &ov.offered),
            ("admitted", &ov.admitted),
            ("served", &ov.served),
            ("shed_queue_full", &ov.shed_queue_full),
            ("shed_deadline", &ov.shed_deadline),
            ("shed_watermark", &ov.shed_watermark),
            ("leftover", &ov.leftover_queued),
            ("spikes", &ov.spikes_detected),
            ("breaker_trips", &ov.breaker_trips),
            ("brownout_escalations", &ov.brownout_escalations),
            ("reduced_cbs", &ov.reduced_cbs_batches),
            ("greedy", &ov.greedy_batches),
            ("breaker_events", &list("[", breaker_events, "]")),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn quick_ramp_passes_all_gates_and_writes_a_report() {
        let dir = std::env::temp_dir().join("caam-overload-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let report = dir.join("ramp.json");
        let args = Args::parse(&argv(&format!(
            "--quick --requests 240 --days 3 --stages 1,8 --threads 1,2 --out {}",
            report.display()
        )))
        .unwrap();
        cmd_overload(&args).expect("quick ramp must pass the gate");
        let text = std::fs::read_to_string(&report).unwrap();
        assert!(text.contains("\"name\": \"goodput-floor\", \"pass\": true"), "report:\n{text}");
        assert!(text.contains("\"name\": \"shed-accounting\", \"pass\": true"), "report:\n{text}");
        assert!(text.contains("\"name\": \"thread-identical\", \"pass\": true"), "report:\n{text}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
