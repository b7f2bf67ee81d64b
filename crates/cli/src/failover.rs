//! `caam failover` — the replicated-serving failover harness.
//!
//! Runs a fault-injected serving horizon once uninterrupted
//! (`run_chaos`) to get the reference metrics and learned state, then:
//!
//! 1. For each of `--points` seeded kill points
//!    ([`seeded_kill_schedule`]): starts a primary/follower pair, kills
//!    the primary at the kill point (including mid-frame on the wire
//!    and mid-checkpoint on disk), waits for the follower's
//!    missed-heartbeat detector to promote it under a bumped epoch, and
//!    asserts the takeover run is **bit-identical** to the
//!    uninterrupted reference — same metrics, same learned state — with
//!    the stale primary's frames provably fenced off
//!    (`stale_epoch_rejected > 0`) and goodput above `--goodput-floor`.
//! 2. For each network-fault scenario (`--net`, default all of
//!    `lossy`, `partition`, `net-chaos`): runs the pair with the
//!    primary surviving and asserts the follower converges
//!    bit-identically despite drops, delays, duplicates, reordering,
//!    corruption, and partition windows.
//!
//! Any gate failure keeps the run's artifacts (primary WAL, checkpoint
//! generations, a `failover-report.txt`) and exits 2.

use crate::args::Args;
use crate::commands::CliError;
use crate::harness::{self, quote, same_outcome, Tally, WorkDir};
use lacb::{
    run_chaos, run_replicated, Lacb, LacbConfig, ReplicatedOutcome, ReplicationConfig,
    ResilienceConfig, ResilientAssigner, RunConfig, RunMetrics,
};
use platform_sim::{
    seeded_kill_schedule, Dataset, FaultPlan, KillPoint, NetFaultConfig, NetFaultPlan,
    NET_SCENARIOS,
};

/// The uninterrupted single-node run every replicated outcome must
/// match bit for bit.
struct Reference {
    metrics: RunMetrics,
    state: String,
    offered: usize,
}

fn reference(ds: &Dataset, cfg: LacbConfig, plan: FaultPlan, offered: usize) -> Reference {
    let mut r = ResilientAssigner::new(Lacb::new(cfg), ResilienceConfig::default());
    let metrics = run_chaos(ds, &mut r, &RunConfig::default(), plan);
    let mut state = String::new();
    r.primary().write_state(&mut state);
    Reference { metrics, state, offered }
}

/// Goodput of a run: requests served across the horizon over requests
/// offered. Failover is bit-identical by construction, so this gate
/// exists to catch the *reference itself* collapsing (a fault scenario
/// that silently drops most traffic would otherwise pass every
/// bit-identity check while serving nothing).
fn goodput(metrics: &RunMetrics, offered: usize) -> f64 {
    let served: f64 = metrics.ledger.snapshot().requests_served.iter().sum();
    if offered == 0 {
        return 0.0;
    }
    served / offered as f64
}

/// Check one replicated outcome against the reference and the
/// harness's protocol gates. A `kill` run's follower must take over; in
/// a link-fault run (no kill) the primary must survive and the follower
/// must converge.
fn check_outcome(
    out: &ReplicatedOutcome,
    reference: &Reference,
    kill: Option<&KillPoint>,
    floor: f64,
) -> Result<String, String> {
    let Some(repl) = &out.metrics.replication else {
        return Err("run carried no replication stats".into());
    };
    if kill.is_some() {
        if !out.promoted {
            return Err("follower was never promoted".into());
        }
        if repl.epoch == 0 {
            return Err("promotion did not bump the epoch".into());
        }
        if repl.stale_epoch_rejected == 0 {
            return Err("no stale-epoch frame was fenced off".into());
        }
    } else {
        if out.promoted {
            return Err(format!("spurious promotion at {:?} with a live primary", out.promoted_at));
        }
        if out.follower_converged != Some(true) {
            return Err("follower did not converge to the primary's state".into());
        }
    }
    same_outcome(&reference.metrics, &reference.state, &out.metrics, &out.final_state)?;
    if matches!(kill, Some(KillPoint::MidFrame { .. })) && repl.corrupt_rejected == 0 {
        return Err("torn mid-frame kill was not CRC-rejected".into());
    }
    let g = goodput(&out.metrics, reference.offered);
    if g < floor {
        return Err(format!("goodput {:.1}% below floor {:.1}%", g * 100.0, floor * 100.0));
    }
    Ok(if kill.is_some() {
        format!(
            "(epoch {}, took over at {:?}, {} stale fenced, goodput {:.1}%)",
            repl.epoch,
            out.promoted_at.unwrap_or((0, 0)),
            repl.stale_epoch_rejected,
            g * 100.0
        )
    } else {
        format!(
            "({} applied, {} dropped, {} dup, {} reordered, {} corrupt, lag {}, goodput {:.1}%)",
            repl.frames_applied,
            repl.frames_dropped,
            repl.duplicates_dropped,
            repl.reordered_buffered,
            repl.corrupt_rejected,
            repl.max_lag,
            g * 100.0
        )
    })
}

pub(crate) fn cmd_failover(args: &Args) -> Result<(), CliError> {
    let (scfg, ds, cfg) = harness::world(args, 24, 360, 3)?;
    let (scenario, fault_seed, plan) = harness::fault_plan(args, "broker-dropout+lost-feedback")?;
    let kill_seed: u64 = args.get_or("kill-seed", 31)?;
    let net_seed: u64 = args.get_or("net-seed", 11)?;
    let points = harness::table_size(args, "points", 10)?;
    let floor: f64 = args.get_or("goodput-floor", 0.9)?;
    let work = WorkDir::new(args, "caam-failover");
    let nets: Vec<&str> = match args.get("net") {
        Some(name) if !NET_SCENARIOS.contains(&name) => {
            return Err(CliError::Usage(format!(
                "unknown --net {name:?}; expected one of {NET_SCENARIOS:?}"
            )));
        }
        Some(name) => vec![name],
        // Every fault family by default; `none` adds nothing the kill
        // runs don't already cover.
        None => NET_SCENARIOS.iter().copied().filter(|n| *n != "none").collect(),
    };

    let spiked = ds.with_batch_spikes(&plan);
    let batches: Vec<usize> = spiked.days.iter().map(|d| d.len()).collect();
    let offered = spiked.total_requests();
    let schedule = seeded_kill_schedule(kill_seed, &batches, points);

    println!(
        "dataset    : {} brokers, {} requests/day, {} days (seed {})",
        scfg.num_brokers, scfg.num_requests, scfg.days, scfg.seed
    );
    println!("scenario   : {scenario} (fault seed {fault_seed})");
    println!(
        "kill plan  : {points} seeded points (kill seed {kill_seed}), net scenarios {nets:?} (net seed {net_seed})"
    );

    let reference = reference(&ds, cfg.clone(), plan, offered);
    println!(
        "reference  : total utility {:.4}, goodput {:.1}%",
        reference.metrics.total_utility,
        goodput(&reference.metrics, offered) * 100.0
    );

    // One replicated horizon per case; a panic fails only its case.
    let serve = |net: NetFaultPlan, repl: &ReplicationConfig| {
        harness::serve("replicated run", || {
            run_replicated(&ds, cfg.clone(), ResilienceConfig::default(), plan, net, repl)
        })
    };
    let mut tally = Tally::default();
    let quiet = NetFaultPlan::new(NetFaultConfig { seed: net_seed, ..NetFaultConfig::default() });
    for (i, point) in schedule.iter().enumerate() {
        let dir = work.fresh(&format!("kill-{i:02}"));
        let mut repl = ReplicationConfig::at(&dir);
        repl.kill = Some(*point);
        let verdict = serve(quiet, &repl)
            .and_then(|out| Ok(check_outcome(&out, &reference, Some(point), floor)?));
        let label = format!("kill {:>2}/{points} {:<24}", i + 1, point.label());
        work.settle(&label, &dir, verdict, &mut tally);
    }

    for (i, name) in nets.iter().enumerate() {
        let dir = work.fresh(&format!("net-{name}"));
        let ncfg =
            NetFaultConfig::scenario(name, net_seed).map_err(|e| CliError::Usage(e.to_string()))?;
        let verdict = serve(NetFaultPlan::new(ncfg), &ReplicationConfig::at(&dir))
            .and_then(|out| Ok(check_outcome(&out, &reference, None, floor)?));
        let label = format!("net  {:>2}/{} {:<24}", i + 1, nets.len(), name);
        work.settle(&label, &dir, verdict, &mut tally);
    }

    let total = schedule.len() + nets.len();
    let failed = tally.failed.len();
    println!("failover   : {}/{total} runs took over / converged bit-identically", total - failed);
    work.finish();
    if failed == 0 {
        return Ok(());
    }
    std::fs::create_dir_all(&work.root).ok();
    let report = work.root.join("failover-report.txt");
    let failures = harness::list("[", tally.failed.iter().map(|f| quote(f)), "]");
    let gate = tally.gate("failover", total, "runs", String::new());
    harness::write_report(&report, &[("failures", &failures)], &[gate]).ok();
    Err(CliError::Gate(format!(
        "{failed}/{total} failover runs failed; report at {}",
        report.display()
    )))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn tiny_failover_harness_passes_end_to_end() {
        let dir = std::env::temp_dir().join("caam-failover-unit");
        std::fs::remove_dir_all(&dir).ok();
        let args = Args::parse(&argv(&format!(
            "--brokers 12 --requests 120 --days 2 --sigma 0.3 --points 5 \
             --net lossy --dir {}",
            dir.display()
        )))
        .unwrap();
        cmd_failover(&args).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}
