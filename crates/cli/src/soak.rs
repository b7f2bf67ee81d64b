//! `caam soak` — the combined self-healing soak harness.
//!
//! Composes every fault family the repo can inject — broker chaos
//! (dropout, lost feedback, batch spikes), a traffic ramp, seeded state
//! corruption (exponent bit-flips, NaN/overflow writes), duplicated
//! batch delivery, and process crash points — over one long seeded run
//! of the overload-protected durable serving loop with runtime
//! invariant audits on, then gates on the self-healing contract:
//!
//! * **audits ran** — nonzero cheap per-batch checks and day-boundary
//!   deep audits;
//! * **zero violations escaped repair** — every detected violation is
//!   paired with a repair and no broker is still quarantined at the
//!   end of the horizon;
//! * **detection liveness** — when the schedule injected NaN or
//!   overflow writes, the auditor must have caught something.
//!   In-range bit-flips may be legally invisible: they land on
//!   representable values the next learning update absorbs;
//! * **goodput held** — shed accounting balances exactly and
//!   served/offered stays above the floor despite the combined load;
//! * **crash recovery** — `crash-test`'s case table on this stack:
//!   every seeded crash point recovers bit-identically to the
//!   uninterrupted reference, with its own audits fully repaired;
//! * **storage faults held** — one `storage-chaos` schedule case on an
//!   injected flaky disk (ENOSPC, EIO, torn writes, failed renames):
//!   serving must stay bit-identical to a clean-disk reference with
//!   exact degraded-mode replay-buffer accounting, and what the disk
//!   kept must restore;
//! * **zero panics escape** — injected solver panics absorbed by the
//!   degradation ladder are the designed behaviour; a panic with any
//!   other payload reaching the harness is a failure.
//!
//! `--out FILE` writes a machine-readable JSON report; any gate
//! failure is exit code 2.

use crate::args::Args;
use crate::commands::CliError;
use crate::crash_test::crash_table;
use crate::harness::{self, durable_case, escaped_gate, obj, quote, Fail, Gate, WorkDir};
use lacb::supervisor::{run_durable, run_overload_durable, DurableConfig};
use lacb::{LacbConfig, OverloadConfig, ResilienceConfig};
use platform_sim::{
    ramp_dataset, seeded_schedule, AuditReport, Dataset, FaultConfig, FaultPlan, InvariantKind,
    StateFaultKind, StorageFaultConfig,
};
use std::fmt::Display;

/// Census of what the seeded fault schedule will inject over the
/// spiked horizon — computed up front (the plan is pure) so the
/// detection-liveness gate knows what the auditor was up against.
#[derive(Default)]
struct InjectionCensus {
    bit_flips: usize,
    nan_writes: usize,
    overflow_writes: usize,
    batch_replays: usize,
}

fn census(plan: &FaultPlan, spiked: &Dataset, num_brokers: usize) -> InjectionCensus {
    let mut c = InjectionCensus::default();
    for (d, day) in spiked.days.iter().enumerate() {
        for b in 0..day.len() {
            if let Some(fault) = plan.state_fault(d, b, num_brokers) {
                match fault.kind {
                    StateFaultKind::BitFlip { .. } => c.bit_flips += 1,
                    StateFaultKind::NanWrite => c.nan_writes += 1,
                    StateFaultKind::OverflowWrite => c.overflow_writes += 1,
                }
            }
            if plan.batch_replayed(d, b) {
                c.batch_replays += 1;
            }
        }
    }
    c
}

fn violation_histogram(report: &AuditReport) -> Vec<(&'static str, usize)> {
    let kinds = [
        InvariantKind::Matching,
        InvariantKind::Conservation,
        InvariantKind::DualCertificate,
        InvariantKind::ValueBound,
        InvariantKind::BanditState,
    ];
    kinds
        .iter()
        .map(|k| (k.label(), report.violations.iter().filter(|v| &v.invariant == k).count()))
        .filter(|(_, n)| *n > 0)
        .collect()
}

pub fn cmd_soak(args: &Args) -> Result<(), CliError> {
    let quick = args.has("quick");
    let (_, base, cfg) =
        harness::world(args, 18, if quick { 240 } else { 540 }, if quick { 3 } else { 6 })?;
    let (scenario, fault_seed, plan) = harness::fault_plan(args, "soak")?;
    let ramp_seed: u64 = args.get_or("ramp-seed", 97)?;
    let crash_seed: u64 = args.get_or("crash-seed", 29)?;
    let crash_points = harness::table_size(args, "crash-points", if quick { 3 } else { 6 })?;
    // The default schedule rides a 4x ramp with every fault family on;
    // ~47% of offered traffic surviving is the healthy operating point,
    // so the default floor sits just under it with margin for noise.
    let goodput_floor: f64 = args.get_or("goodput-floor", 0.4)?;
    let stages = harness::stages(args, "1,4", base.days.len())?;
    let work = WorkDir::new(args, &format!("caam-soak-{fault_seed}-{crash_seed}"));
    let ramp = ramp_dataset(&base, &stages, ramp_seed);
    let ocfg = OverloadConfig::sized_for(&base);
    let rcfg = ResilienceConfig::default();

    let spiked = ramp.dataset.with_batch_spikes(&plan);
    let inj = census(&plan, &spiked, base.brokers.len());

    println!("dataset    : {} ({} days, ramp x{stages:?})", ramp.dataset.name, spiked.days.len());
    println!("scenario   : {scenario} (fault seed {fault_seed})");
    println!(
        "injections : {} bit-flips, {} NaN writes, {} overflow writes, {} replayed batches",
        inj.bit_flips, inj.nan_writes, inj.overflow_writes, inj.batch_replays
    );

    // Reference: the full fault schedule, uninterrupted, audits on.
    let serve = |dcfg: &DurableConfig| {
        run_overload_durable(&ramp.dataset, cfg.clone(), rcfg.clone(), &ocfg, plan, dcfg)
    };
    let ref_dir = work.fresh("reference");
    let reference = harness::serve("reference soak run", || serve(&DurableConfig::at(&ref_dir)))?;
    let (Some(audit), Some(ov)) = (&reference.metrics.audit, &reference.metrics.overload) else {
        return Err(CliError::Gate("soak run carried no audit report or overload stats".into()));
    };
    println!(
        "reference  : utility {:.4}, {} checks, {} deep audits, {} violations, {} repairs",
        reference.metrics.total_utility,
        audit.checks,
        audit.deep_audits,
        audit.violations.len(),
        audit.repairs.len()
    );
    for (label, n) in violation_histogram(audit) {
        println!("  caught   : {n} x {label}");
    }

    // Crash soak: crash-test's table on this stack. A recovered run
    // must also have repaired every violation its own audits caught.
    let batches: Vec<usize> = spiked.days.iter().map(|d| d.len()).collect();
    let schedule = seeded_schedule(crash_seed, &batches, crash_points);
    let crashes = crash_table(&work, "crash", &schedule, &serve, &reference, |out| {
        match &out.metrics.audit {
            None => Err("recovered run carried no audit report".into()),
            Some(a) if !a.fully_repaired() => Err(format!(
                "recovered run left {} brokers quarantined",
                a.quarantined_at_end.len()
            )),
            Some(_) => Ok(()),
        }
    });

    // Storage leg: one storage-chaos schedule case on a flaky disk. The
    // soak's own schedule can include state corruption (whose repair
    // reads the store), so this leg runs a corruption-free plan — the
    // disk is the fault under test here.
    let storage = storage_leg(&base, &cfg, &rcfg, fault_seed, &work);
    let mut escaped = crashes.escaped.clone();
    if let Err(Fail::Panic(text)) = &storage {
        escaped.push(format!("storage leg: {text}"));
    }

    let goodput = if ov.offered > 0 { ov.served as f64 / ov.offered as f64 } else { 0.0 };
    let primary_panics = reference.metrics.resilience.as_ref().map_or(0, |s| s.primary_panics);
    let crash_failures = crashes.failed.len();
    let gates = [
        Gate {
            name: "audits-ran",
            pass: audit.checks > 0 && audit.deep_audits > 0,
            detail: format!("{} cheap checks, {} deep audits", audit.checks, audit.deep_audits),
        },
        Gate {
            name: "self-healing",
            pass: audit.fully_repaired(),
            detail: format!(
                "{} violations, {} repairs, {} brokers quarantined at end",
                audit.violations.len(),
                audit.repairs.len(),
                audit.quarantined_at_end.len()
            ),
        },
        Gate {
            name: "detection-liveness",
            pass: inj.nan_writes + inj.overflow_writes == 0 || !audit.violations.is_empty(),
            detail: format!(
                "{} NaN/overflow injections scheduled, {} violations detected",
                inj.nan_writes + inj.overflow_writes,
                audit.violations.len()
            ),
        },
        Gate {
            name: "goodput",
            pass: ov.accounting_balanced() && goodput >= goodput_floor,
            detail: format!(
                "served {}/{} offered = {:.1}% (floor {:.0}%), accounting {}",
                ov.served,
                ov.offered,
                goodput * 100.0,
                goodput_floor * 100.0,
                if ov.accounting_balanced() { "balanced" } else { "UNBALANCED" }
            ),
        },
        crashes.gate(
            "crash-recovery",
            crash_points,
            "points",
            format!("{crash_points}/{crash_points} points bit-identical"),
        ),
        Gate {
            name: "storage-faults",
            pass: storage.is_ok(),
            detail: match &storage {
                Ok(detail) => detail.clone(),
                Err(why) => why.to_string(),
            },
        },
        escaped_gate(
            &escaped,
            format!("none escaped ({primary_panics} injected panics absorbed by the ladder)"),
        ),
    ];

    let hist = violation_histogram(audit);
    let by_invariant: Vec<(&str, &dyn Display)> =
        hist.iter().map(|(label, n)| (*label, n as &dyn Display)).collect();
    work.finish();
    harness::conclude(
        args,
        "soak",
        19,
        &gates,
        &format!(
            "{} violations / {} repairs, goodput {:.1}%, {crash_points} crash points",
            audit.violations.len(),
            audit.repairs.len(),
            goodput * 100.0
        ),
        &[
            ("scenario", &quote(scenario)),
            ("stages", &format!("{stages:?}")),
            (
                "injections",
                &obj(&[
                    ("bit_flips", &inj.bit_flips),
                    ("nan_writes", &inj.nan_writes),
                    ("overflow_writes", &inj.overflow_writes),
                    ("batch_replays", &inj.batch_replays),
                ]),
            ),
            (
                "audit",
                &obj(&[
                    ("checks", &audit.checks),
                    ("deep_audits", &audit.deep_audits),
                    ("violations", &audit.violations.len()),
                    ("repairs", &audit.repairs.len()),
                    ("quarantined_at_end", &audit.quarantined_at_end.len()),
                    ("by_invariant", &obj(&by_invariant)),
                ]),
            ),
            ("goodput", &format!("{goodput:.4}")),
            (
                "crash",
                &obj(&[("points", &crash_points), ("recovered", &(crash_points - crash_failures))]),
            ),
        ],
    )
}

/// The soak's storage leg: a clean-disk reference and one storage-chaos
/// schedule case (`storage-chaos` scenario) against it. `Ok` carries
/// the detail for the gate line.
fn storage_leg(
    base: &Dataset,
    cfg: &LacbConfig,
    rcfg: &ResilienceConfig,
    fault_seed: u64,
    work: &WorkDir,
) -> Result<String, Fail> {
    let plan = FaultPlan::new(
        FaultConfig::scenario("broker-dropout+lost-feedback", fault_seed)
            .expect("built-in scenario"),
    );
    let serve = |dcfg: &DurableConfig| run_durable(base, cfg.clone(), rcfg.clone(), plan, dcfg);
    let ref_dir = work.fresh("storage-reference");
    let reference = harness::serve("clean-disk reference", || serve(&DurableConfig::at(&ref_dir)))?;
    let scfg = StorageFaultConfig::scenario("storage-chaos", fault_seed.wrapping_add(0xA5))
        .expect("built-in scenario");
    let dir = work.fresh("storage-faulty");
    let out = durable_case(&serve, &reference, &dir, Some(scfg), None)?;
    let stats = out.stats.unwrap_or_default();
    work.discard(&ref_dir);
    work.discard(&dir);
    Ok(format!(
        "{} vfs faults injected, {} reached the guard, {} resyncs, final {}",
        out.injected,
        stats.faults,
        stats.resyncs_completed,
        stats.final_mode.label()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn quick_soak_passes_all_gates_and_writes_a_report() {
        let dir = std::env::temp_dir().join("caam-soak-cli-test");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let report = dir.join("soak.json");
        let args = Args::parse(&argv(&format!(
            "--quick --brokers 12 --requests 150 --days 2 --stages 1,2 --crash-points 2 \
             --dir {} --out {}",
            dir.join("work").display(),
            report.display()
        )))
        .unwrap();
        cmd_soak(&args).expect("quick soak must pass every gate");
        let text = std::fs::read_to_string(&report).unwrap();
        assert!(text.contains("\"verdict\": \"PASS\""), "report:\n{text}");
        assert!(text.contains("\"name\": \"self-healing\", \"pass\": true"), "report:\n{text}");
        assert!(text.contains("\"name\": \"crash-recovery\", \"pass\": true"), "report:\n{text}");
        assert!(text.contains("\"name\": \"storage-faults\", \"pass\": true"), "report:\n{text}");
        // The default soak scenario schedules real corruption; the
        // auditor must have seen it.
        assert!(text.contains("\"nan_writes\""), "report:\n{text}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
