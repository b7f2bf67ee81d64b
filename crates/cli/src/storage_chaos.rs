//! `caam storage-chaos` — the end-to-end storage-fault harness.
//!
//! Runs the durable serving loop against a disk that lies: a seeded
//! [`FaultVfs`] injects ENOSPC, EIO, short writes, fsync failures,
//! failed renames, read bit-flips, and sticky disk-full / disk-gone
//! windows, while the degraded-mode guard keeps serving diskless and
//! resyncs at day boundaries. For each of `--seeds` fault schedules the
//! gate is total:
//!
//! * **no third outcome** — the run completes with typed storage
//!   accounting; no panic escapes, no error aborts serving;
//! * **serving unaffected** — utility, ledger, and learned state are
//!   bit-identical to a clean-disk reference (storage trouble must
//!   never leak into matching decisions);
//! * **exact accounting** — every buffered record is still buffered,
//!   counted as dropped, or covered by a completed resync;
//! * **restorable** — a clean-disk re-run over whatever the chaos left
//!   behind recovers and finishes bit-identical to the reference
//!   (whatever is on disk is either good or detectably bad).
//!
//! A second phase composes process crashes *with* storage faults: each
//! seeded crash point is armed on a faulty disk. A degraded run may
//! legally never reach the crash window (no WAL handle → no torn
//! append), so a non-firing crash counts as absorbed and the run must
//! pass the phase-1 gates; a crash that does fire must recover
//! bit-identically on a clean disk.
//!
//! Coverage gates keep the harness honest: across all seeds the
//! schedules must actually inject faults, and at least one run must
//! complete a resync back to Durable (resync liveness).
//!
//! `--out FILE` writes a machine-readable JSON report; any gate
//! failure is exit code 2.

use crate::args::Args;
use crate::commands::CliError;
use crate::harness::{self, durable_case, escaped_gate, obj, quote, Gate, Tally, WorkDir};
use lacb::supervisor::{run_durable, DurableConfig};
use lacb::ResilienceConfig;
use platform_sim::{seeded_schedule, StorageFaultConfig, StorageMode, StorageStats};

pub fn cmd_storage_chaos(args: &Args) -> Result<(), CliError> {
    let quick = args.has("quick");
    let (_, ds, cfg) =
        harness::world(args, if quick { 12 } else { 24 }, if quick { 180 } else { 360 }, 3)?;
    let (fault_scenario, fault_seed, plan) =
        harness::fault_plan(args, "broker-dropout+lost-feedback")?;
    let storage_scenario = args.get("storage-scenario").unwrap_or("storage-chaos");
    let storage_seed: u64 = args.get_or("storage-seed", 41)?;
    let crash_seed: u64 = args.get_or("crash-seed", 29)?;
    // The acceptance bar is >= 20 seeded schedules; --quick shrinks the
    // dataset, never the schedule count.
    let seeds = harness::table_size(args, "seeds", 20)?;
    let crash_points = harness::table_size(args, "crash-points", if quick { 3 } else { 6 })?;
    let work = WorkDir::new(args, &format!("caam-storage-chaos-{storage_seed}"));
    // Validate the scenario name up front (usage error, not a gate
    // failure); each schedule reseeds it.
    let scenario_cfg = StorageFaultConfig::scenario(storage_scenario, storage_seed)
        .map_err(|e| format!("--storage-scenario: {e}"))?;
    let schedule_cfg = |seed: u64| StorageFaultConfig { seed, ..scenario_cfg };
    let rcfg = ResilienceConfig::default();
    let num_brokers = ds.brokers.len();

    // The bit-identity gate requires that serving never reads through
    // the faulty disk. State-corruption repair does (the repair donor
    // is loaded from the checkpoint store), so those plans would couple
    // matching decisions to injected read faults — reject them here
    // rather than report a confusing divergence.
    let spiked = ds.with_batch_spikes(&plan);
    let schedules_state_faults = spiked
        .days
        .iter()
        .enumerate()
        .any(|(d, day)| (0..day.len()).any(|b| plan.state_fault(d, b, num_brokers).is_some()));
    if schedules_state_faults {
        return Err(CliError::Usage(format!(
            "--scenario {fault_scenario:?} schedules state corruption; storage-chaos needs a \
             corruption-free plan (repair reads the store, coupling serving to the faulty disk)"
        )));
    }

    println!("dataset    : {} ({} batches/day)", ds.name, spiked.days[0].len());
    println!("faults     : {fault_scenario} (fault seed {fault_seed})");
    println!("storage    : {storage_scenario} x {seeds} schedules (storage seed {storage_seed})");

    // Reference: the same horizon on a clean disk, uninterrupted.
    let serve = |dcfg: &DurableConfig| run_durable(&ds, cfg.clone(), rcfg.clone(), plan, dcfg);
    let ref_dir = work.fresh("reference");
    let reference = harness::serve("clean reference run", || serve(&DurableConfig::at(&ref_dir)))?;
    println!(
        "reference  : total utility {:.4}, {} days",
        reference.metrics.total_utility,
        reference.metrics.daily_utility.len()
    );

    // Phase 1: one full run per seeded fault schedule, then a clean
    // recovery pass over whatever the chaos left on disk.
    let mut outcomes: Vec<(u64, StorageStats)> = Vec::new();
    let mut schedules = Tally::default();
    for i in 0..seeds {
        let dir = work.fresh(&format!("seed-{i:02}"));
        let scfg = schedule_cfg(storage_seed.wrapping_add(i as u64));
        let verdict = durable_case(&serve, &reference, &dir, Some(scfg), None).map(|out| {
            let stats = out.stats.unwrap_or_default();
            let detail = format!(
                "  {:>3} injected, {:>2} faults, {} resyncs, final {}",
                out.injected,
                stats.faults,
                stats.resyncs_completed,
                stats.final_mode.label()
            );
            outcomes.push((out.injected, stats));
            detail
        });
        work.settle(&format!("seed {i:>2}/{seeds}"), &dir, verdict, &mut schedules);
    }

    // Phase 2: process crashes composed with storage faults. A crash
    // point armed while the run is degraded may never fire; that is the
    // designed behaviour and counts as absorbed.
    let batches: Vec<usize> = spiked.days.iter().map(|d| d.len()).collect();
    let schedule = seeded_schedule(crash_seed, &batches, crash_points);
    let mut crashes = Tally::default();
    let mut crashes_fired = 0usize;
    for (i, point) in schedule.iter().enumerate() {
        let dir = work.fresh(&format!("crash-{i:02}"));
        let scfg = schedule_cfg(storage_seed ^ 0x9e37_79b9_7f4a_7c15u64.wrapping_add(i as u64));
        let verdict = durable_case(&serve, &reference, &dir, Some(scfg), Some(*point)).map(|out| {
            if out.stats.is_some() {
                return "absorbed (degraded run skipped the crash window)".to_string();
            }
            crashes_fired += 1;
            "fired, recovered bit-identically".to_string()
        });
        let label = format!("crash {:>2}/{crash_points} {:<28}", i + 1, point.label());
        work.settle(&label, &dir, verdict, &mut crashes);
    }

    let sum = |f: fn(&StorageStats) -> u64| outcomes.iter().map(|(_, s)| f(s)).sum::<u64>();
    let injected_total: u64 = outcomes.iter().map(|(injected, _)| injected).sum();
    let faults_total = sum(|s| s.faults);
    let resyncs_total = sum(|s| s.resyncs_completed);
    let degraded_finals =
        outcomes.iter().filter(|(_, s)| s.final_mode != StorageMode::Durable).count();
    let escaped: Vec<String> = schedules.escaped.iter().chain(&crashes.escaped).cloned().collect();
    let gates = [
        schedules.gate(
            "storage-tolerance",
            seeds,
            "schedules",
            format!("{seeds}/{seeds} schedules served bit-identically and restored"),
        ),
        Gate {
            name: "fault-coverage",
            pass: injected_total > 0 && faults_total > 0,
            detail: format!(
                "{injected_total} vfs faults injected, {faults_total} reached the guard"
            ),
        },
        Gate {
            name: "resync-liveness",
            pass: resyncs_total > 0,
            detail: format!(
                "{resyncs_total} resyncs completed, {degraded_finals}/{seeds} runs ended degraded"
            ),
        },
        crashes.gate(
            "crash-compose",
            crash_points,
            "points",
            format!(
                "{crash_points}/{crash_points} points ok ({crashes_fired} fired, {} absorbed)",
                crash_points - crashes_fired
            ),
        ),
        escaped_gate(&escaped, "none escaped".into()),
    ];

    work.finish();
    harness::conclude(
        args,
        "storage-chaos",
        19,
        &gates,
        &format!(
            "{seeds} schedules, {injected_total} injected faults, {resyncs_total} resyncs, \
             {crash_points} crash points"
        ),
        &[
            ("storage_scenario", &quote(storage_scenario)),
            ("fault_scenario", &quote(fault_scenario)),
            ("schedules", &obj(&[("requested", &seeds), ("passed", &outcomes.len())])),
            (
                "storage",
                &obj(&[
                    ("injected", &injected_total),
                    ("guard_faults", &faults_total),
                    ("degraded_entries", &sum(|s| s.degraded_entries)),
                    ("resyncs_completed", &resyncs_total),
                    ("dropped_overflow", &sum(|s| s.dropped_overflow)),
                ]),
            ),
            (
                "crash",
                &obj(&[
                    ("points", &crash_points),
                    ("fired", &crashes_fired),
                    ("recovered", &(crash_points - crashes.failed.len())),
                ]),
            ),
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
    fn tiny_storage_chaos_passes_end_to_end() {
        let dir = std::env::temp_dir().join("caam-storage-chaos-unit");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let report = dir.join("storage-chaos.json");
        let args = Args::parse(&argv(&format!(
            "--quick --brokers 12 --requests 120 --days 3 --seeds 6 --crash-points 2 \
             --storage-seed 11 --dir {} --out {}",
            dir.join("work").display(),
            report.display()
        )))
        .unwrap();
        cmd_storage_chaos(&args).expect("tiny storage-chaos must pass every gate");
        let text = std::fs::read_to_string(&report).unwrap();
        assert!(text.contains("\"verdict\": \"PASS\""), "report:\n{text}");
        assert!(
            text.contains("\"name\": \"storage-tolerance\", \"pass\": true"),
            "report:\n{text}"
        );
        assert!(text.contains("\"name\": \"resync-liveness\", \"pass\": true"), "report:\n{text}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
