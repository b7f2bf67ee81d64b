//! `caam crash-test` — the crash-point recovery harness.
//!
//! Runs a fault-injected serving horizon once uninterrupted to get the
//! reference metrics and learned state, then for each of `--points`
//! seeded crash points: starts a fresh durable run, kills it at the
//! crash point (panic mid-WAL-append, mid-checkpoint-write, …),
//! recovers from whatever the crash left on disk, finishes the horizon,
//! and asserts the final `RunMetrics` and learned matcher state are
//! **bit-identical** to the uninterrupted run. Any divergence — or a
//! crash point that fails to fire — is a hard error (non-zero exit).

use crate::args::Args;
use crate::commands::CliError;
use crate::harness::{self, durable_case, DurableStack, Tally, WorkDir};
use lacb::supervisor::{run_durable, DurableConfig, DurableOutcome};
use lacb::ResilienceConfig;
use platform_sim::{seeded_schedule, CrashPoint};
use std::collections::BTreeSet;

/// The crash-point case table on any durable stack, one line per point
/// (`{word} i/n {point}`). For each point, `serve` with the point armed
/// must die on the injected crash, and `serve` again over what the
/// crash left on disk must reproduce `reference` and pass `check`
/// ([`durable_case`]).
pub(crate) fn crash_table(
    work: &WorkDir,
    word: &str,
    schedule: &[CrashPoint],
    serve: &DurableStack,
    reference: &DurableOutcome,
    check: impl Fn(&DurableOutcome) -> Result<(), String>,
) -> Tally {
    let mut tally = Tally::default();
    for (i, point) in schedule.iter().enumerate() {
        let dir = work.fresh(&format!("point-{i:02}"));
        let verdict = durable_case(serve, reference, &dir, None, Some(*point)).and_then(|case| {
            check(&case.recovered)?;
            Ok(recovery_detail(&case.recovered))
        });
        let label = format!("{word} {:>2}/{} {:<28}", i + 1, schedule.len(), point.label());
        work.settle(&label, &dir, verdict, &mut tally);
    }
    tally
}

fn recovery_detail(out: &DurableOutcome) -> String {
    let from = match out.recovered_from {
        Some(day) => format!("ckpt d{day}"),
        None => "fresh".into(),
    };
    let torn = if out.wal_recovery.torn {
        format!(", truncated {} torn bytes", out.wal_recovery.dropped_bytes)
    } else {
        String::new()
    };
    format!("(from {from}, replayed {} batches{torn})", out.replayed_batches)
}

pub fn cmd_crash_test(args: &Args) -> Result<(), CliError> {
    let (_, ds, cfg) = harness::world(args, 24, 360, 3)?;
    let (scenario, fault_seed, plan) = harness::fault_plan(args, "broker-dropout+lost-feedback")?;
    let crash_seed: u64 = args.get_or("crash-seed", 29)?;
    let points = harness::table_size(args, "points", 12)?;
    let work = WorkDir::new(args, &format!("caam-crash-test-{crash_seed}"));
    let rcfg = ResilienceConfig::default();

    // Crash points are scheduled against the spiked horizon — the same
    // batch structure the durable loop actually executes.
    let spiked = ds.with_batch_spikes(&plan);
    let batches: Vec<usize> = spiked.days.iter().map(|d| d.len()).collect();
    let schedule = seeded_schedule(crash_seed, &batches, points);

    println!("dataset    : {} ({} batches/day)", ds.name, batches[0]);
    println!("scenario   : {scenario} (fault seed {fault_seed})");
    println!("crash plan : {points} seeded points (crash seed {crash_seed})");

    // Reference: the same durable loop, uninterrupted, in its own dir.
    let serve = |dcfg: &DurableConfig| run_durable(&ds, cfg.clone(), rcfg.clone(), plan, dcfg);
    let ref_dir = work.fresh("reference");
    let reference = harness::serve("reference run", || serve(&DurableConfig::at(&ref_dir)))?;
    println!(
        "reference  : total utility {:.4}, {} days",
        reference.metrics.total_utility,
        reference.metrics.daily_utility.len()
    );

    let tally = crash_table(&work, "point", &schedule, &serve, &reference, |_| Ok(()));
    work.finish();
    let distinct_days = schedule.iter().map(day_of).collect::<BTreeSet<_>>().len();
    let failures = tally.failed.len();
    println!(
        "crash-test : {}/{points} points recovered bit-identically across {distinct_days} days",
        points - failures
    );
    if failures > 0 {
        return Err(CliError::Gate(format!(
            "{failures}/{points} crash points failed recovery; artifacts under {}",
            work.root.display()
        )));
    }
    Ok(())
}

fn day_of(p: &CrashPoint) -> usize {
    match p {
        CrashPoint::AfterBatch { day, .. }
        | CrashPoint::AfterAdmission { day, .. }
        | CrashPoint::DuringWalAppend { day, .. }
        | CrashPoint::BeforeCheckpoint { day }
        | CrashPoint::DuringCheckpointWrite { day }
        | CrashPoint::BeforeCheckpointRename { day } => *day,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn tiny_crash_test_passes_end_to_end() {
        let dir = std::env::temp_dir().join("caam-crash-test-unit");
        std::fs::remove_dir_all(&dir).ok();
        let args = Args::parse(&argv(&format!(
            "--brokers 12 --requests 120 --days 2 --sigma 0.3 --points 5 \
             --crash-seed 5 --fault-seed 3 --dir {}",
            dir.display()
        )))
        .unwrap();
        cmd_crash_test(&args).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}
