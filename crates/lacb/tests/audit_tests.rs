//! End-to-end tests of the self-healing layer: runtime invariant audits
//! must detect seeded state corruption, quarantine exactly the damaged
//! broker, and repair it — by checkpoint-donor restore when a good
//! generation exists, by re-initialization otherwise — without ever
//! flagging a healthy run.

use lacb::checkpoint;
use lacb::resilient::{run_chaos, ResilienceConfig, ResilientAssigner};
use lacb::runner::RunConfig;
use lacb::supervisor::{run_durable, DurableConfig};
use lacb::{Assigner, Lacb, LacbConfig};
use platform_sim::{
    seeded_schedule, Dataset, FaultConfig, FaultPlan, InvariantKind, Platform, RepairKind,
    StateFault, StateFaultKind, StateTarget, SyntheticConfig,
};
use proptest::prelude::*;
use std::path::PathBuf;

fn world(seed: u64, days: usize) -> Dataset {
    Dataset::synthetic(&SyntheticConfig {
        num_brokers: 15,
        num_requests: 150 * days,
        days,
        imbalance: 0.3,
        seed,
    })
}

fn chaos_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(FaultConfig::scenario("broker-dropout+lost-feedback", seed).unwrap())
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("caam-audit-tests").join(name);
    std::fs::remove_dir_all(&dir).ok();
    dir
}

#[test]
fn healthy_chaos_run_audits_clean() {
    let ds = world(21, 3);
    let mut assigner =
        ResilientAssigner::new(Lacb::new(LacbConfig::default()), ResilienceConfig::default());
    let m = run_chaos(&ds, &mut assigner, &RunConfig::default(), chaos_plan(17));
    let report = m.audit.expect("audits are on by default");
    assert!(report.checks > 0, "per-batch audits never ran");
    assert!(report.deep_audits > 0, "deep audits never ran");
    assert!(report.violations.is_empty(), "healthy run flagged: {:?}", report.violations);
    assert!(report.quarantined_at_end.is_empty());
    assert!(report.fully_repaired());
}

#[test]
fn nan_capacity_fault_is_detected_quarantined_and_reinitialized() {
    let ds = world(23, 1);
    let mut platform = Platform::from_dataset(&ds);
    let mut lacb = Lacb::new(LacbConfig::default());
    platform.begin_day();
    lacb.begin_day(&platform, 0);
    let day = &ds.days[0];
    let _ = lacb.assign_batch(&platform, &day[0].requests);
    lacb.apply_state_fault(&StateFault {
        target: StateTarget::Capacity,
        kind: StateFaultKind::NanWrite,
        broker: 4,
        lane: 0,
    });
    // The next batch's pre-solve audit must catch the NaN capacity.
    let assignment = lacb.assign_batch(&platform, &day[1].requests);
    assert_eq!(lacb.quarantined_brokers(), vec![4]);
    assert!(!assignment.contains(&Some(4)), "quarantined broker still received requests");
    lacb.repair_quarantined();
    assert!(!lacb.has_quarantined_brokers());
    assert!(lacb.capacity_of(4).is_finite(), "repair left a NaN capacity");
    let _ = lacb.assign_batch(&platform, &day[2].requests);
    let report = lacb.take_audit_report().unwrap();
    assert!(report
        .violations
        .iter()
        .any(|v| v.invariant == InvariantKind::BanditState && v.broker == Some(4)));
    assert!(report.repairs.iter().any(|r| matches!(r.kind, RepairKind::Reinitialize)));
    assert!(report.fully_repaired());
}

#[test]
fn dual_corruption_is_caught_by_the_certificate() {
    let ds = world(29, 1);
    let mut platform = Platform::from_dataset(&ds);
    let mut lacb = Lacb::new(LacbConfig::default());
    platform.begin_day();
    lacb.begin_day(&platform, 0);
    let day = &ds.days[0];
    let _ = lacb.assign_batch(&platform, &day[0].requests);
    lacb.apply_state_fault(&StateFault {
        target: StateTarget::Duals,
        kind: StateFaultKind::NanWrite,
        broker: 0,
        lane: 2,
    });
    let a = lacb.assign_batch(&platform, &day[1].requests);
    assert_eq!(a.len(), day[1].requests.len());
    let report = lacb.take_audit_report().unwrap();
    assert!(
        report.violations.iter().any(|v| v.invariant == InvariantKind::DualCertificate),
        "NaN dual slipped past the certificate: {:?}",
        report.violations
    );
    assert!(report.repairs.iter().any(|r| matches!(r.kind, RepairKind::SolverReset)));
    assert!(report.fully_repaired());
}

#[test]
fn value_table_overflow_is_detected_and_reset() {
    let ds = world(31, 1);
    let mut platform = Platform::from_dataset(&ds);
    let mut lacb = Lacb::new(LacbConfig::default());
    platform.begin_day();
    lacb.begin_day(&platform, 0);
    let day = &ds.days[0];
    let _ = lacb.assign_batch(&platform, &day[0].requests);
    lacb.apply_state_fault(&StateFault {
        target: StateTarget::ValueTable,
        kind: StateFaultKind::OverflowWrite,
        broker: 0,
        lane: 3,
    });
    let _ = lacb.assign_batch(&platform, &day[1].requests);
    let report = lacb.take_audit_report().unwrap();
    assert!(
        report.violations.iter().any(|v| v.invariant == InvariantKind::ValueBound),
        "1e308 value-table entry survived the discounted-horizon bound"
    );
    assert!(report.repairs.iter().any(|r| matches!(r.kind, RepairKind::ValueReset)));
    assert!(report.fully_repaired());
}

#[test]
fn state_corruption_scenario_is_detected_and_fully_repaired() {
    let mut total_violations = 0usize;
    for seed in [3u64, 7, 11, 13] {
        let ds = world(seed, 2);
        let plan = FaultPlan::new(FaultConfig::scenario("state-corruption", seed).unwrap());
        let mut assigner =
            ResilientAssigner::new(Lacb::new(LacbConfig::default()), ResilienceConfig::default());
        let m = run_chaos(&ds, &mut assigner, &RunConfig::default(), plan);
        let report = m.audit.expect("audits on");
        total_violations += report.violations.len();
        assert!(
            report.quarantined_at_end.is_empty(),
            "seed {seed}: brokers left quarantined: {:?}",
            report.quarantined_at_end
        );
        assert!(report.fully_repaired(), "seed {seed}: violations escaped repair");
    }
    assert!(total_violations > 0, "a 25% state-corruption schedule injected nothing detectable");
}

#[test]
fn donor_repair_restores_the_checkpointed_broker_state_bitwise() {
    let ds = world(37, 2);
    let plan = chaos_plan(41);
    let ckpt = checkpoint::run_chaos_until(
        &ds,
        LacbConfig::default(),
        ResilienceConfig::default(),
        plan,
        0,
    )
    .unwrap();
    let section = durability::parse_v2_section(&ckpt.to_v2_text(), "matcher").unwrap();
    let donor =
        Lacb::read_state(&mut section.lines(), LacbConfig::default(), ds.brokers.len()).unwrap();

    let spiked = ds.with_batch_spikes(&plan);
    let mut platform = Platform::from_dataset(&spiked);
    platform.enable_faults(plan);
    let restored = checkpoint::Checkpoint::from_text(ckpt.as_text())
        .unwrap()
        .restore(LacbConfig::default(), &mut platform)
        .unwrap();
    let mut lacb = restored.matcher;

    platform.begin_day();
    lacb.begin_day(&platform, 1);
    lacb.apply_state_fault(&StateFault {
        target: StateTarget::Capacity,
        kind: StateFaultKind::NanWrite,
        broker: 3,
        lane: 0,
    });
    let _ = lacb.assign_batch(&platform, &spiked.days[1][0].requests);
    assert_eq!(lacb.quarantined_brokers(), vec![3]);

    lacb.repair_from_donor(&donor, 1);
    assert!(!lacb.has_quarantined_brokers());
    assert_eq!(
        lacb.capacity_of(3).to_bits(),
        donor.capacity_of(3).to_bits(),
        "donor repair must restore the checkpointed capacity bit-for-bit"
    );
    let report = lacb.take_audit_report().unwrap();
    assert!(report
        .repairs
        .iter()
        .any(|r| matches!(r.kind, RepairKind::CheckpointRestore { generation: 1 })));
    assert!(report.fully_repaired());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Zero false positives: on runs whose faults never touch learned
    /// state (dropout, feedback loss/delay, utility corruption, spikes
    /// — in any mix, at any thread count), the auditor must stay
    /// silent while still running its checks.
    #[test]
    fn healthy_runs_never_trip_the_auditor(
        data_seed in 0u64..200,
        fault_seed in 0u64..1000,
        dropout in 0.0f64..0.4,
        loss in 0.0f64..0.8,
        delay in 0.0f64..0.4,
        corruption in 0.0f64..0.5,
        spike in 0.0f64..0.4,
    ) {
        let cfg = FaultConfig {
            seed: fault_seed,
            day_dropout: dropout,
            mid_day_dropout: 0.1,
            feedback_loss: loss,
            feedback_delay: delay,
            utility_corruption: corruption,
            corruption_density: 0.1,
            batch_spike: spike,
            spike_span: 3,
            state_corruption: 0.0,
            batch_replay: 0.0,
        };
        let plan = FaultPlan::new(cfg);
        let ds = world(data_seed, 2);
        for n_threads in [1usize, 2, 4, 8] {
            let mut assigner = ResilientAssigner::new(
                Lacb::new(LacbConfig { n_threads, ..LacbConfig::default() }),
                ResilienceConfig::default(),
            );
            let m = run_chaos(&ds, &mut assigner, &RunConfig::default(), plan);
            let report = m.audit.expect("audits on");
            prop_assert!(report.checks > 0);
            prop_assert!(
                report.violations.is_empty(),
                "{} threads: healthy run flagged {:?}",
                n_threads,
                report.violations
            );
        }
    }

    /// The whole self-healing pipeline is crash-consistent: under the
    /// combined soak schedule (chaos + state corruption + replayed
    /// batches), a run crashed at any seeded point and recovered
    /// finishes bit-identical — including every quarantine decision and
    /// checkpoint-donor repair taken during WAL replay.
    #[test]
    fn audit_and_repair_survive_crash_recovery_bit_identically(
        data_seed in 0u64..100,
        fault_seed in 0u64..1000,
        point_sel in 0usize..5,
        case in 0u32..1_000_000,
    ) {
        let ds = world(data_seed, 2);
        let plan = FaultPlan::new(FaultConfig::scenario("soak", fault_seed).unwrap());
        let ref_dir = scratch(&format!("crash-ref-{case}"));
        let reference = run_durable(
            &ds,
            LacbConfig::default(),
            ResilienceConfig::default(),
            plan,
            &DurableConfig::at(&ref_dir),
        )
        .unwrap();
        let spiked = ds.with_batch_spikes(&plan);
        let batches: Vec<usize> = spiked.days.iter().map(|d| d.len()).collect();
        let point = seeded_schedule(fault_seed ^ 0x5A, &batches, 5)[point_sel];
        let dir = scratch(&format!("crash-case-{case}"));
        let mut dcfg = DurableConfig::at(&dir);
        dcfg.crash = Some(point);
        let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_durable(&ds, LacbConfig::default(), ResilienceConfig::default(), plan, &dcfg)
        }));
        prop_assert!(crashed.is_err(), "crash point {:?} did not fire", point);
        dcfg.crash = None;
        let out =
            run_durable(&ds, LacbConfig::default(), ResilienceConfig::default(), plan, &dcfg);
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&ref_dir).ok();
        let out = out.map_err(|e| {
            proptest::test_runner::TestCaseError::fail(format!("recovery after {point:?}: {e}"))
        })?;
        prop_assert_eq!(
            reference.metrics.first_divergence(&out.metrics),
            None,
            "diverged after {:?}", point
        );
        prop_assert_eq!(&out.final_state, &reference.final_state, "state diverged after {:?}", point);
    }
}
