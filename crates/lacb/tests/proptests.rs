//! Property tests of the fault-tolerance layer: the degradation ladder
//! must fully serve every batch under *arbitrary* fault schedules,
//! checkpoint/restore must resume bit-identically wherever the cut
//! lands, and the overload controller's WAL protocol must lose no
//! admitted request however the crash interleaves with the admission
//! pipeline.

use lacb::checkpoint::CheckpointError;
use lacb::resilient::{ResilienceConfig, ResilientAssigner};
use lacb::{
    checkpoint, run_chaos, run_overload, run_overload_durable, Assigner, DurableConfig, Lacb,
    LacbConfig, OverloadConfig, OverloadSnapshot, RunConfig,
};
use platform_sim::{
    ramp_dataset, BreakerComponent, BreakerEvent, CrashPoint, Dataset, FaultConfig, FaultPlan,
    OverloadStats, Platform, SyntheticConfig,
};
use proptest::prelude::*;
use std::sync::OnceLock;

fn world(seed: u64, days: usize) -> Dataset {
    Dataset::synthetic(&SyntheticConfig {
        num_brokers: 15,
        num_requests: 150 * days,
        days,
        imbalance: 0.3,
        seed,
    })
}

/// One real checkpoint, computed once and shared by the corruption
/// properties: its legacy v1 payload, its checksummed v2 container, and
/// the world it belongs to (so semantic validation in `restore` runs
/// against the right platform).
struct CkptFixture {
    v1: String,
    v2: String,
    ds: Dataset,
    plan: FaultPlan,
}

fn fixture() -> &'static CkptFixture {
    static FIXTURE: OnceLock<CkptFixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let ds = world(5, 2);
        let plan =
            FaultPlan::new(FaultConfig::scenario("broker-dropout+lost-feedback", 11).unwrap());
        let ckpt = checkpoint::run_chaos_until(
            &ds,
            LacbConfig::default(),
            ResilienceConfig::default(),
            plan,
            0,
        )
        .unwrap();
        CkptFixture { v1: ckpt.as_text().to_string(), v2: ckpt.to_v2_text(), ds, plan }
    })
}

/// `from_text` + `restore` with every failure funnelled into a typed
/// result — a panic anywhere in the pipeline fails the property.
fn try_full_load(fx: &CkptFixture, text: &str) -> Result<(), CheckpointError> {
    let ckpt = checkpoint::Checkpoint::from_text(text)?;
    let spiked = fx.ds.with_batch_spikes(&fx.plan);
    let mut platform = Platform::from_dataset(&spiked);
    platform.enable_faults(fx.plan);
    ckpt.restore(LacbConfig::default(), &mut platform).map(|_| ())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Under any mix of dropout, corruption, channel loss and batch
    /// spikes, the ladder serves every request of every batch as long
    /// as one broker is reachable — and nothing it routes ever fails.
    #[test]
    fn any_fault_schedule_yields_full_assignment_every_batch(
        data_seed in 0u64..200,
        fault_seed in 0u64..1000,
        dropout in 0.0f64..0.5,
        mid_day in 0.0f64..0.5,
        loss in 0.0f64..0.9,
        delay in 0.0f64..0.5,
        corruption in 0.0f64..0.6,
        spike in 0.0f64..0.5,
    ) {
        let cfg = FaultConfig {
            seed: fault_seed,
            day_dropout: dropout,
            mid_day_dropout: mid_day,
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
        let spiked = ds.with_batch_spikes(&plan);
        let mut platform = Platform::from_dataset(&spiked);
        platform.enable_faults(plan);
        let mut assigner =
            ResilientAssigner::new(Lacb::new(LacbConfig::default()), ResilienceConfig::default());
        for (d, day) in spiked.days.iter().enumerate() {
            platform.begin_day();
            assigner.begin_day(&platform, d);
            for batch in day {
                let assignment = assigner.assign_batch(&platform, &batch.requests);
                prop_assert_eq!(assignment.len(), batch.requests.len());
                if !platform.online_brokers().is_empty() {
                    prop_assert!(
                        assignment.iter().all(Option::is_some),
                        "unassigned request with online brokers on day {} batch {}",
                        d,
                        platform.batch_index()
                    );
                }
                let outcome = platform.execute_batch(&batch.requests, &assignment);
                prop_assert!(
                    outcome.failed.is_empty(),
                    "ladder routed to an offline broker"
                );
            }
            let feedback = platform.end_day();
            assigner.end_day(&platform, &feedback);
        }
    }

    /// Thread count is purely an implementation detail of the serving
    /// loop: under arbitrary fault schedules, LACB and LACB-Opt produce
    /// bit-identical totals and per-broker loads whether the per-broker
    /// estimation and CBS run inline or on 2/4/8 workers.
    #[test]
    fn thread_count_never_changes_results(
        data_seed in 0u64..200,
        fault_seed in 0u64..1000,
        dropout in 0.0f64..0.4,
        corruption in 0.0f64..0.4,
        spike in 0.0f64..0.4,
        cbs_sel in 0u64..2,
    ) {
        let cfg = FaultConfig {
            seed: fault_seed,
            day_dropout: dropout,
            mid_day_dropout: 0.0,
            feedback_loss: 0.2,
            feedback_delay: 0.1,
            utility_corruption: corruption,
            corruption_density: 0.1,
            batch_spike: spike,
            spike_span: 3,
            state_corruption: 0.0,
            batch_replay: 0.0,
        };
        let plan = FaultPlan::new(cfg);
        let ds = world(data_seed, 2);
        let use_cbs = cbs_sel == 1;
        let base = LacbConfig { use_cbs, ..LacbConfig::default() };
        let mut reference = ResilientAssigner::new(
            Lacb::new(base.clone()),
            ResilienceConfig::default(),
        );
        let want = run_chaos(&ds, &mut reference, &RunConfig::default(), plan);
        for n_threads in [2usize, 4, 8] {
            let mut assigner = ResilientAssigner::new(
                Lacb::new(LacbConfig { n_threads, ..base.clone() }),
                ResilienceConfig::default(),
            );
            let got = run_chaos(&ds, &mut assigner, &RunConfig::default(), plan);
            prop_assert_eq!(want.first_divergence(&got), None, "{} threads diverged", n_threads);
        }
    }

    /// A checkpoint taken after any day of the horizon, restored and
    /// resumed, finishes with a total utility bitwise equal to the
    /// uninterrupted run's.
    #[test]
    fn checkpoint_restore_resume_is_bit_identical(
        data_seed in 0u64..200,
        fault_seed in 0u64..1000,
        cut_day in 0usize..2,
    ) {
        let ds = world(data_seed, 3);
        let plan = FaultPlan::new(
            FaultConfig::scenario("broker-dropout+lost-feedback", fault_seed).unwrap(),
        );
        let cfg = LacbConfig::default();
        let mut direct =
            ResilientAssigner::new(Lacb::new(cfg.clone()), ResilienceConfig::default());
        let uninterrupted = run_chaos(&ds, &mut direct, &RunConfig::default(), plan);
        let ckpt = checkpoint::run_chaos_until(
            &ds,
            cfg.clone(),
            ResilienceConfig::default(),
            plan,
            cut_day,
        )
        .unwrap();
        let reloaded = checkpoint::Checkpoint::from_text(ckpt.as_text()).unwrap();
        let resumed =
            checkpoint::resume_chaos(&ds, &reloaded, cfg, ResilienceConfig::default(), plan)
                .unwrap();
        prop_assert_eq!(uninterrupted.first_divergence(&resumed), None, "cut after day {}", cut_day);
    }

    /// Flipping any byte anywhere in a v2 checkpoint makes it fail with
    /// a typed error — the checksums never let corruption load, and
    /// nothing in the load path panics on the damaged input.
    #[test]
    fn v2_byte_flips_never_load_and_never_panic(
        pos in 0usize..100_000,
        mask in 1u8..=255,
    ) {
        let fx = fixture();
        let mut bytes = fx.v2.clone().into_bytes();
        let pos = pos % bytes.len();
        bytes[pos] ^= mask;
        if let Ok(text) = String::from_utf8(bytes) {
            prop_assert!(
                try_full_load(fx, &text).is_err(),
                "flipped byte {} (mask {:#x}) silently loaded", pos, mask
            );
        }
    }

    /// Truncating a v2 checkpoint mid-line at any byte fails typed: the
    /// footer checksum catches every prefix, and partially-written tmp
    /// files (which are exactly such prefixes) can never restore.
    #[test]
    fn v2_truncation_at_any_byte_never_loads(cut in 1usize..100_000) {
        let fx = fixture();
        let cut = cut % (fx.v2.len() - 1);
        if !fx.v2.is_char_boundary(cut) {
            return Ok(());
        }
        let text = &fx.v2[..cut];
        prop_assert!(try_full_load(fx, text).is_err(), "truncation at byte {} loaded", cut);
    }

    /// Legacy v1 payloads carry no checksums, so a flipped digit *may*
    /// still parse — but the load path must never panic, and structural
    /// damage must surface as a typed error, not UB.
    #[test]
    fn v1_byte_flips_never_panic(
        pos in 0usize..100_000,
        mask in 1u8..=255,
    ) {
        let fx = fixture();
        let mut bytes = fx.v1.clone().into_bytes();
        let pos = pos % bytes.len();
        bytes[pos] ^= mask;
        if let Ok(text) = String::from_utf8(bytes) {
            let _ = try_full_load(fx, &text); // Ok or Err both fine; panicking is not
        }
    }

    /// A corrupted *newest* generation must never win over an intact
    /// older one: walking generations newest→oldest always lands on the
    /// last known good checkpoint, whatever byte was damaged.
    #[test]
    fn corrupt_newest_generation_falls_back_to_last_known_good(
        pos in 0usize..100_000,
        mask in 1u8..=255,
        case in 0u32..1_000_000,
    ) {
        let fx = fixture();
        let dir = std::env::temp_dir()
            .join("caam-proptest-fallback")
            .join(format!("case-{case}"));
        std::fs::remove_dir_all(&dir).ok();
        let store = durability::CheckpointStore::open(&dir, 4).unwrap();
        store.save(1, &fx.v2, None).unwrap();
        store.save(2, &fx.v2, None).unwrap();
        // Vandalise the newest generation in place.
        let (newest_day, newest_path) = store.generations()[0].clone();
        prop_assert_eq!(newest_day, 2);
        let mut bytes = std::fs::read(&newest_path).unwrap();
        let pos = pos % bytes.len();
        bytes[pos] ^= mask;
        std::fs::write(&newest_path, &bytes).unwrap();
        // Walk newest→oldest exactly as recovery does.
        let mut landed = None;
        for (day, path) in store.generations() {
            let text = store.read(&path).unwrap_or_default();
            if checkpoint::Checkpoint::from_text(&text).is_ok() {
                landed = Some(day);
                break;
            }
        }
        prop_assert_eq!(landed, Some(1), "fallback skipped the intact generation");
        std::fs::remove_dir_all(&dir).ok();
    }
}

// ---------------------------------------------------------------------
// Overload-layer properties.

fn arb_breaker() -> impl Strategy<Value = admission::BreakerSnapshot> {
    (0u64..3, 0u32..u32::MAX, 0u64..u64::MAX, 0u64..u64::MAX).prop_map(
        |(k, counter, until, trips)| admission::BreakerSnapshot {
            kind: match k {
                0 => admission::BreakerStateKind::Closed,
                1 => admission::BreakerStateKind::Open,
                _ => admission::BreakerStateKind::HalfOpen,
            },
            counter,
            until_tick: until,
            trips,
        },
    )
}

fn arb_queue() -> impl Strategy<Value = admission::QueueSnapshot> {
    (
        1usize..64,
        collection::vec((0u64..u64::MAX, -1e12f64..1e12, 0u64..u64::MAX, 0u64..u64::MAX), 0..16),
    )
        .prop_map(|(capacity, raw)| admission::QueueSnapshot {
            capacity,
            watermark: capacity.saturating_sub(1).max(1),
            entries: raw
                .into_iter()
                .map(|(id, priority, enq, dead)| admission::QueueEntry {
                    id,
                    priority,
                    enqueued_tick: enq,
                    deadline_tick: dead,
                })
                .collect(),
        })
}

fn arb_events() -> impl Strategy<Value = Vec<BreakerEvent>> {
    collection::vec((0u64..3, 0u64..u64::MAX, 0u64..3, 0u64..3), 0..8).prop_map(|raw| {
        raw.into_iter()
            .map(|(c, tick, from, to)| {
                let kind = |k: u64| match k {
                    0 => admission::BreakerStateKind::Closed,
                    1 => admission::BreakerStateKind::Open,
                    _ => admission::BreakerStateKind::HalfOpen,
                };
                BreakerEvent {
                    component: match c {
                        0 => BreakerComponent::Solver,
                        1 => BreakerComponent::Bandit,
                        _ => BreakerComponent::Wal,
                    },
                    transition: admission::BreakerTransition {
                        tick,
                        from: kind(from),
                        to: kind(to),
                    },
                }
            })
            .collect()
    })
}

fn arb_overload_snapshot() -> impl Strategy<Value = OverloadSnapshot> {
    (
        (
            0u64..u64::MAX,
            (0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX),
            arb_queue(),
            (0.0f64..1e9, 0u64..u64::MAX, 0u64..u64::MAX),
        ),
        (arb_breaker(), arb_breaker(), arb_breaker()),
        (0u64..3, 0u32..u32::MAX, 0u32..u32::MAX, 0u64..u64::MAX),
        (collection::vec(0u64..u64::MAX, 12), collection::vec(0u64..u64::MAX, 0..6), arb_events()),
    )
        .prop_map(
            |(
                (tick, (cap, refill, tokens), queue, (ewma, obs, spikes)),
                (solver_breaker, bandit_breaker, wal_breaker),
                (level, pressured, calm, escalations),
                (c, daily_served, breaker_events),
            )| {
                OverloadSnapshot {
                    tick,
                    bucket: admission::TokenBucketSnapshot {
                        capacity: cap,
                        refill_per_tick: refill,
                        tokens: tokens.min(cap),
                    },
                    queue,
                    spike: admission::SpikeSnapshot { ewma, observations: obs, spikes },
                    solver_breaker,
                    bandit_breaker,
                    wal_breaker,
                    brownout: admission::BrownoutSnapshot {
                        level: match level {
                            0 => admission::BrownoutLevel::Normal,
                            1 => admission::BrownoutLevel::ReducedCbs,
                            _ => admission::BrownoutLevel::GreedyOnly,
                        },
                        pressured_ticks: pressured,
                        calm_ticks: calm,
                        escalations,
                    },
                    stats: OverloadStats {
                        offered: c[0],
                        admitted: c[1],
                        served: c[2],
                        shed_queue_full: c[3],
                        shed_deadline: c[4],
                        shed_watermark: c[5],
                        leftover_queued: c[6],
                        spikes_detected: c[7],
                        breaker_trips: c[8],
                        brownout_escalations: c[9],
                        reduced_cbs_batches: c[10],
                        greedy_batches: c[11],
                        breaker_events,
                        daily_served,
                    },
                }
            },
        )
}

/// Serialise an arbitrary overload snapshot into a real checkpoint
/// (with one executed day of context around it) and load it back.
fn overload_checkpoint_roundtrip(ov: &OverloadSnapshot) -> Option<OverloadSnapshot> {
    let fx = fixture();
    let spiked = fx.ds.with_batch_spikes(&fx.plan);
    let mut platform = Platform::from_dataset(&spiked);
    platform.enable_faults(fx.plan);
    let mut assigner =
        ResilientAssigner::new(Lacb::new(LacbConfig::default()), ResilienceConfig::default());
    let mut ledger = platform_sim::BrokerLedger::new(platform.num_brokers());
    platform.begin_day();
    assigner.begin_day(&platform, 0);
    for batch in &spiked.days[0] {
        let assignment = assigner.assign_batch(&platform, &batch.requests);
        let outcome = platform.execute_batch(&batch.requests, &assignment);
        ledger.record_batch(&outcome);
    }
    let feedback = platform.end_day();
    assigner.end_day(&platform, &feedback);
    ledger.end_day(feedback.realized);
    let progress = checkpoint::RunProgress {
        next_day: 1,
        elapsed_secs: 0.0,
        daily_utility: vec![feedback.realized],
        daily_elapsed: vec![0.0],
        requests_failed: 0,
    };
    let ckpt = checkpoint::Checkpoint::capture_with_overload(
        assigner.primary(),
        &platform,
        &ledger,
        &progress,
        assigner.pending_feedback(),
        assigner.stats(),
        Some(ov),
    );
    let reloaded = checkpoint::Checkpoint::from_text(ckpt.as_text()).expect("own text parses");
    let mut platform2 = Platform::from_dataset(&spiked);
    platform2.enable_faults(fx.plan);
    reloaded
        .restore(LacbConfig::default(), &mut platform2)
        .expect("own checkpoint restores")
        .overload
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// A crash injected exactly between the admission-queue drain (the
    /// `Admission` WAL record) and the batch apply, at *any* batch
    /// coordinate of the ramp, recovers to a run bit-identical to the
    /// uninterrupted one: no admitted request is lost or double-
    /// assigned, and the shedding/breaker accounting matches exactly.
    #[test]
    fn crash_between_admission_and_apply_recovers_anywhere(
        data_seed in 0u64..100,
        fault_seed in 0u64..1000,
        day_sel in 0usize..2,
        batch_sel in 0usize..1000,
        case in 0u32..1_000_000,
    ) {
        let base = world(data_seed, 2);
        let ramp = ramp_dataset(&base, &[1, 8], fault_seed ^ 0xA5);
        let ocfg = OverloadConfig::sized_for(&base);
        let plan = FaultPlan::new(
            FaultConfig::scenario("broker-dropout+lost-feedback", fault_seed).unwrap(),
        );
        let reference = run_overload(
            &ramp.dataset,
            LacbConfig::default(),
            ResilienceConfig::default(),
            &ocfg,
            plan,
        );
        let spiked = ramp.dataset.with_batch_spikes(&plan);
        let day = day_sel % spiked.days.len();
        let batch = batch_sel % spiked.days[day].len();
        let dir = std::env::temp_dir()
            .join("caam-proptest-overload-crash")
            .join(format!("case-{case}"));
        std::fs::remove_dir_all(&dir).ok();
        let mut dcfg = DurableConfig::at(&dir);
        dcfg.crash = Some(CrashPoint::AfterAdmission { day, batch });
        let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_overload_durable(
                &ramp.dataset,
                LacbConfig::default(),
                ResilienceConfig::default(),
                &ocfg,
                plan,
                &dcfg,
            )
        }));
        prop_assert!(crashed.is_err(), "crash at day {} batch {} did not fire", day, batch);
        dcfg.crash = None;
        let out = run_overload_durable(
            &ramp.dataset,
            LacbConfig::default(),
            ResilienceConfig::default(),
            &ocfg,
            plan,
            &dcfg,
        );
        std::fs::remove_dir_all(&dir).ok();
        let out = out.map_err(|e| {
            proptest::test_runner::TestCaseError::fail(format!("recovery after day {day} batch {batch} failed: {e}"))
        })?;
        prop_assert_eq!(
            reference.metrics.first_divergence(&out.metrics),
            None,
            "diverged after crash at day {} batch {}", day, batch
        );
        prop_assert_eq!(&out.final_state, &reference.final_state);
        let ov = out.metrics.overload.as_ref().unwrap();
        prop_assert!(ov.accounting_balanced(), "accounting identity broken after recovery");
    }

    /// Any overload-controller state — arbitrary queue contents,
    /// breaker states mid-cooldown, brownout levels, counters — writes
    /// into a checkpoint and reads back bit-identically.
    #[test]
    fn overload_snapshot_roundtrips_through_checkpoint_text(
        ov in arb_overload_snapshot(),
    ) {
        let restored = overload_checkpoint_roundtrip(&ov);
        prop_assert_eq!(restored, Some(ov));
    }
}

/// Exhaustive companion to the byte-level properties: cut a real v2
/// checkpoint at *every* line boundary; no prefix may load, and every
/// failure is a typed error (the loop itself proves nothing panics).
#[test]
fn v2_truncation_at_every_line_is_rejected() {
    let fx = fixture();
    let lines: Vec<&str> = fx.v2.lines().collect();
    for cut in 0..lines.len() {
        let text: String = lines[..cut].iter().map(|l| format!("{l}\n")).collect();
        assert!(
            try_full_load(fx, &text).is_err(),
            "truncation at line {cut}/{} loaded",
            lines.len()
        );
    }
}
