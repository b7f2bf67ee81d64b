//! Overload-resilient serving: admission control, capacity-aware load
//! shedding, circuit breakers and brownout, wired around the resilient
//! LACB pipeline.
//!
//! The control loop per batch tick is:
//!
//! 1. **Admission** — every offered request is priced with the paper's
//!    refined marginal utility `u + γV(cr′) − V(cr)` (its best value
//!    over brokers with headroom) and offered to a bounded
//!    deadline-aware [`AdmissionQueue`]; a [`TokenBucket`] rate-limits
//!    how many queued requests drain into the matcher this tick. What
//!    cannot be admitted is *shed* — displaced by a higher-utility
//!    newcomer, expired past its deadline, or dropped by the watermark
//!    policy — and every shed is accounted in [`OverloadStats`].
//! 2. **Quality planning** — a [`BrownoutController`] watches queue
//!    depth and breaker state and degrades match *quality* before
//!    availability: full CBS+KM → shrunk candidate sets → greedy. An
//!    open solver breaker forces greedy outright (the resilient
//!    ladder's rung 2), with half-open probes restoring KM when the
//!    work budget fits again.
//! 3. **Observation** — the solver breaker is fed a deterministic work
//!    proxy ([`Lacb::last_solve_ops`], KM relaxation ops) against a
//!    budget, plus any ladder degradations; the bandit breaker is fed
//!    end-of-day feedback-channel failures; the WAL breaker (durable
//!    loop only) is fed append outcomes.
//!
//! Everything is a pure function of integer ticks and seeds — no
//! wall-clock — so a run is bit-identical across repeats and thread
//! counts, and the whole controller state round-trips through the
//! day-boundary checkpoint ([`OverloadSnapshot`]).

use crate::core::{self, Engine};
use crate::lacb::{Lacb, LacbConfig};
use crate::resilient::{ResilienceConfig, ResilientAssigner};
use admission::{
    AdmissionQueue, BreakerConfig, BreakerSnapshot, BreakerTransition, BrownoutConfig,
    BrownoutController, BrownoutLevel, BrownoutSnapshot, CircuitBreaker, OfferOutcome, QueueEntry,
    QueueSnapshot, SpikeDetector, SpikeSnapshot, TokenBucket, TokenBucketSnapshot,
};
use matching::MatchMode;
use platform_sim::{
    BatchOutcome, BreakerComponent, BreakerEvent, Dataset, FaultPlan, OverloadStats, Platform,
    Request, RunMetrics,
};
use std::collections::HashMap;

/// Knobs of the overload-protection layer. All units are batch ticks
/// and request counts — nothing here reads a clock.
#[derive(Clone, Debug)]
pub struct OverloadConfig {
    /// Hard bound on queued requests.
    pub queue_capacity: usize,
    /// Depth above which the lowest-priority entries are shed.
    pub queue_watermark: usize,
    /// Ticks a queued request may wait before it expires.
    pub deadline_ticks: u64,
    /// Token bucket burst size (max drained in one tick).
    pub bucket_capacity: u64,
    /// Sustained drain rate into the matcher, requests per tick.
    pub tokens_per_tick: u64,
    /// KM relaxation-ops budget per solve; exceeding it is a breaker
    /// failure (the deterministic stand-in for a deadline miss).
    pub solver_ops_budget: u64,
    /// Shared breaker tuning (solver, bandit, WAL).
    pub breaker: BreakerConfig,
    /// Brownout ladder thresholds (queue depths) and hysteresis.
    pub brownout: BrownoutConfig,
    /// CBS candidate-set divisor at the reduced-quality level.
    pub shrink_divisor: u32,
    /// EWMA smoothing for the spike detector.
    pub spike_alpha: f64,
    /// Offered/baseline ratio that counts as a spike.
    pub spike_ratio: f64,
    /// Observations before the spike detector may fire.
    pub spike_warmup: u64,
}

impl Default for OverloadConfig {
    fn default() -> Self {
        Self {
            queue_capacity: 256,
            queue_watermark: 192,
            deadline_ticks: 3,
            bucket_capacity: 128,
            tokens_per_tick: 64,
            solver_ops_budget: 2_000_000,
            breaker: BreakerConfig::default(),
            brownout: BrownoutConfig::default(),
            shrink_divisor: 4,
            spike_alpha: 0.3,
            spike_ratio: 2.0,
            spike_warmup: 3,
        }
    }
}

impl OverloadConfig {
    /// Size the knobs from a dataset's *pre-ramp* mean batch size: the
    /// bucket sustains 2× the nominal load (absorbing bursts without
    /// throttling steady state), the queue holds 8 batches, and the
    /// brownout ladder engages at 3 (reduced) and 5 (greedy) batches
    /// of backlog.
    pub fn sized_for(dataset: &Dataset) -> Self {
        let batches: usize = dataset.days.iter().map(|d| d.len()).sum();
        let total: usize = dataset.days.iter().flatten().map(|b| b.requests.len()).sum();
        let mean = (total / batches.max(1)).max(1);
        Self {
            queue_capacity: 8 * mean,
            queue_watermark: 6 * mean,
            bucket_capacity: 4 * mean as u64,
            tokens_per_tick: 2 * mean as u64,
            brownout: BrownoutConfig {
                enter_reduced: 3 * mean,
                enter_greedy: 5 * mean,
                exit_below: mean,
                ..BrownoutConfig::default()
            },
            ..Self::default()
        }
    }
}

/// Serializable snapshot of the whole overload controller, cut at a
/// day boundary (where the queue has been flushed, so no request
/// payloads need to travel with it).
#[derive(Clone, Debug, PartialEq)]
pub struct OverloadSnapshot {
    pub tick: u64,
    pub bucket: TokenBucketSnapshot,
    pub queue: QueueSnapshot,
    pub spike: SpikeSnapshot,
    pub solver_breaker: BreakerSnapshot,
    pub bandit_breaker: BreakerSnapshot,
    pub wal_breaker: BreakerSnapshot,
    pub brownout: BrownoutSnapshot,
    pub stats: OverloadStats,
}

/// Live state of the overload controller: the admission pipeline, the
/// three per-component breakers, the brownout ladder and the running
/// accounting. Drives one [`ResilientAssigner<Lacb>`].
pub struct OverloadState {
    cfg: OverloadConfig,
    tick: u64,
    bucket: TokenBucket,
    queue: AdmissionQueue,
    spike: SpikeDetector,
    solver_breaker: CircuitBreaker,
    bandit_breaker: CircuitBreaker,
    wal_breaker: CircuitBreaker,
    brownout: BrownoutController,
    stats: OverloadStats,
    /// Payloads of queued requests, keyed by request id.
    parked: HashMap<u64, Request>,
    served_today: u64,
}

impl OverloadState {
    pub fn new(cfg: OverloadConfig) -> Self {
        let bucket = TokenBucket::new(cfg.bucket_capacity, cfg.tokens_per_tick);
        let queue = AdmissionQueue::new(cfg.queue_capacity, cfg.queue_watermark);
        let spike = SpikeDetector::new(cfg.spike_alpha, cfg.spike_ratio, cfg.spike_warmup);
        let solver_breaker = CircuitBreaker::new(cfg.breaker);
        let bandit_breaker = CircuitBreaker::new(cfg.breaker);
        let wal_breaker = CircuitBreaker::new(cfg.breaker);
        let brownout = BrownoutController::new(cfg.brownout);
        Self {
            cfg,
            tick: 0,
            bucket,
            queue,
            spike,
            solver_breaker,
            bandit_breaker,
            wal_breaker,
            brownout,
            stats: OverloadStats::default(),
            parked: HashMap::new(),
            served_today: 0,
        }
    }

    /// Accounting so far. The identity
    /// [`OverloadStats::accounting_balanced`] holds after every tick.
    pub fn stats(&self) -> &OverloadStats {
        &self.stats
    }

    /// Current batch tick (one per offered batch).
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// Queue depth right now.
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    fn record(&mut self, component: BreakerComponent, t: BreakerTransition) {
        self.stats.breaker_events.push(BreakerEvent { component, transition: t });
        self.refresh_trips();
    }

    fn refresh_trips(&mut self) {
        self.stats.breaker_trips =
            self.solver_breaker.trips() + self.bandit_breaker.trips() + self.wal_breaker.trips();
    }

    /// Phase 1 of a tick: price, enqueue, shed and drain. Returns the
    /// requests admitted into the matcher this tick, in queue-priority
    /// order. `matcher` prices priorities with its live value table.
    pub fn admit(
        &mut self,
        matcher: &mut Lacb,
        platform: &Platform,
        offered: &[Request],
    ) -> Vec<Request> {
        self.tick += 1;
        self.bucket.tick();
        self.stats.offered += offered.len() as u64;
        if self.spike.observe(offered.len()) {
            self.stats.spikes_detected += 1;
        }
        let priorities = matcher.shed_priorities(platform, offered);
        for (r, &p) in offered.iter().zip(&priorities) {
            let id = r.id as u64;
            let entry = QueueEntry {
                id,
                priority: p,
                enqueued_tick: self.tick,
                deadline_tick: self.tick + self.cfg.deadline_ticks,
            };
            self.parked.insert(id, r.clone());
            match self.queue.offer(entry) {
                OfferOutcome::Enqueued => {}
                OfferOutcome::Displaced(victim) => {
                    self.parked.remove(&victim.id);
                    self.stats.shed_queue_full += 1;
                }
                OfferOutcome::RejectedFull => {
                    self.parked.remove(&id);
                    self.stats.shed_queue_full += 1;
                }
            }
        }
        for e in self.queue.expire(self.tick) {
            self.parked.remove(&e.id);
            self.stats.shed_deadline += 1;
        }
        for e in self.queue.shed_to_watermark() {
            self.parked.remove(&e.id);
            self.stats.shed_watermark += 1;
        }
        let grant = self.bucket.take_up_to(self.queue.len() as u64) as usize;
        let drained = self.queue.drain_front(grant);
        self.stats.admitted += drained.len() as u64;
        let admitted = drained.iter().filter_map(|e| self.parked.remove(&e.id)).collect::<Vec<_>>();
        self.stats.leftover_queued = self.queue.len() as u64;
        debug_assert!(self.stats.accounting_balanced(), "admission accounting drifted");
        admitted
    }

    /// Phase 2: poll the breakers forward, let the brownout ladder see
    /// this tick's pressure, and pin the resulting match quality on
    /// the matcher. An open solver breaker forces greedy regardless of
    /// the ladder; any open breaker counts as pressure.
    pub fn plan_quality(&mut self, matcher: &mut Lacb) -> MatchMode {
        for (component, breaker) in [
            (BreakerComponent::Solver, &mut self.solver_breaker),
            (BreakerComponent::Bandit, &mut self.bandit_breaker),
            (BreakerComponent::Wal, &mut self.wal_breaker),
        ] {
            if let Some(t) = breaker.poll(self.tick) {
                self.stats.breaker_events.push(BreakerEvent { component, transition: t });
            }
        }
        self.refresh_trips();
        let solver_open = !self.solver_breaker.allows();
        let any_open = solver_open || !self.bandit_breaker.allows() || !self.wal_breaker.allows();
        let level = self.brownout.observe(self.queue.len(), any_open);
        self.stats.brownout_escalations = self.brownout.escalations();
        let mode = if solver_open {
            MatchMode::Greedy
        } else {
            match level {
                BrownoutLevel::Normal => MatchMode::Full,
                BrownoutLevel::ReducedCbs => {
                    MatchMode::ShrunkCandidates { divisor: self.cfg.shrink_divisor }
                }
                BrownoutLevel::GreedyOnly => MatchMode::Greedy,
            }
        };
        match mode {
            MatchMode::Full => {}
            MatchMode::ShrunkCandidates { .. } => self.stats.reduced_cbs_batches += 1,
            MatchMode::Greedy => self.stats.greedy_batches += 1,
        }
        matcher.set_match_mode(mode);
        mode
    }

    /// Phase 3: feed the solver breaker from the deterministic work
    /// proxy and the resilient ladder's verdict on this solve.
    /// `ladder_degraded` is true when the ladder had to route around
    /// the primary (panic, timeout or invalid output).
    pub fn observe_solve(&mut self, matcher: &Lacb, ladder_degraded: bool) {
        // A solve the breaker routed to greedy reports zero ops and is
        // not a probe of the KM path — skip scoring it.
        if !self.solver_breaker.allows() {
            return;
        }
        let over_budget = matcher.last_solve_ops() > self.cfg.solver_ops_budget;
        let t = if over_budget || ladder_degraded {
            self.solver_breaker.on_failure(self.tick)
        } else {
            self.solver_breaker.on_success(self.tick)
        };
        if let Some(t) = t {
            self.record(BreakerComponent::Solver, t);
        }
    }

    /// Feed the bandit breaker one end-of-day feedback outcome
    /// (`failed` = the channel lost or had to retry the delivery).
    pub fn observe_feedback(&mut self, failed: bool) {
        let t = if failed {
            self.bandit_breaker.on_failure(self.tick)
        } else {
            self.bandit_breaker.on_success(self.tick)
        };
        if let Some(t) = t {
            self.record(BreakerComponent::Bandit, t);
        }
    }

    /// Feed the WAL breaker one append outcome (durable loop only).
    pub fn observe_wal(&mut self, ok: bool) {
        let t = if ok {
            self.wal_breaker.on_success(self.tick)
        } else {
            self.wal_breaker.on_failure(self.tick)
        };
        if let Some(t) = t {
            self.record(BreakerComponent::Wal, t);
        }
    }

    /// Account the requests a batch execution actually served.
    pub fn record_served(&mut self, outcome: &BatchOutcome) {
        let served = outcome.assignments.len() as u64;
        self.stats.served += served;
        self.served_today += served;
    }

    /// Close a day: queued requests do not survive the boundary (a
    /// next-day match is useless for a live enquiry), so the backlog
    /// is expired as deadline sheds and the goodput curve gains a
    /// point. After this the state is checkpointable.
    pub fn end_day(&mut self) {
        let stale = self.queue.drain_front(self.queue.len());
        for e in stale {
            self.parked.remove(&e.id);
            self.stats.shed_deadline += 1;
        }
        self.stats.leftover_queued = 0;
        self.stats.daily_served.push(self.served_today);
        self.served_today = 0;
        debug_assert!(self.stats.accounting_balanced(), "day-boundary accounting drifted");
    }

    /// Snapshot for the checkpoint layer. Valid at a day boundary
    /// (after [`OverloadState::end_day`]), where the queue is empty
    /// and no request payloads are in flight.
    pub fn snapshot(&self) -> OverloadSnapshot {
        debug_assert!(self.parked.is_empty(), "snapshot cut mid-day: payloads in flight");
        OverloadSnapshot {
            tick: self.tick,
            bucket: self.bucket.snapshot(),
            queue: self.queue.snapshot(),
            spike: self.spike.snapshot(),
            solver_breaker: self.solver_breaker.snapshot(),
            bandit_breaker: self.bandit_breaker.snapshot(),
            wal_breaker: self.wal_breaker.snapshot(),
            brownout: self.brownout.snapshot(),
            stats: self.stats.clone(),
        }
    }

    /// Rebuild from a snapshot. Inverse of [`OverloadState::snapshot`]
    /// for states cut at a day boundary.
    pub fn from_snapshot(cfg: OverloadConfig, s: &OverloadSnapshot) -> Self {
        Self {
            tick: s.tick,
            bucket: TokenBucket::from_snapshot(&s.bucket),
            queue: AdmissionQueue::from_snapshot(&s.queue),
            spike: SpikeDetector::from_snapshot(
                cfg.spike_alpha,
                cfg.spike_ratio,
                cfg.spike_warmup,
                &s.spike,
            ),
            solver_breaker: CircuitBreaker::from_snapshot(cfg.breaker, &s.solver_breaker),
            bandit_breaker: CircuitBreaker::from_snapshot(cfg.breaker, &s.bandit_breaker),
            wal_breaker: CircuitBreaker::from_snapshot(cfg.breaker, &s.wal_breaker),
            brownout: BrownoutController::from_snapshot(cfg.brownout, &s.brownout),
            stats: s.stats.clone(),
            parked: HashMap::new(),
            served_today: 0,
            cfg,
        }
    }
}

/// What an overload-protected run reports.
pub struct OverloadOutcome {
    /// Whole-horizon metrics; [`RunMetrics::overload`] carries the
    /// admission/shedding/breaker accounting.
    pub metrics: RunMetrics,
    /// The matcher's final learned state, for bit-identity checks
    /// across thread counts and crash/recover runs.
    pub final_state: String,
}

/// Run one overload-protected resilient LACB serving pass over the
/// whole horizon: every batch flows through admission control before
/// it reaches the matcher, and quality degrades (brownout, breakers)
/// instead of the loop collapsing. Deterministic for a fixed seed
/// across thread counts.
pub fn run_overload(
    dataset: &Dataset,
    cfg: LacbConfig,
    rcfg: ResilienceConfig,
    ocfg: &OverloadConfig,
    plan: FaultPlan,
) -> OverloadOutcome {
    let spiked = dataset.with_batch_spikes(&plan);
    let mut assigner = ResilientAssigner::new(Lacb::new(cfg), rcfg);
    let mut engine = Engine::new(&spiked, core::platform(&spiked, plan), &mut assigner);
    engine.overload = Some(OverloadState::new(ocfg.clone()));
    let metrics = engine.serve();
    OverloadOutcome { metrics, final_state: core::learned_state(&assigner) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assigner::Assigner;
    use crate::testkit::assert_bit_identical;
    use platform_sim::{ramp_dataset, FaultConfig, SyntheticConfig};

    fn dataset(seed: u64) -> Dataset {
        Dataset::synthetic(&SyntheticConfig {
            num_brokers: 24,
            num_requests: 480,
            days: 4,
            imbalance: 0.25,
            seed,
        })
    }

    fn quiet_plan() -> FaultPlan {
        FaultPlan::new(FaultConfig::scenario("none", 1).unwrap())
    }

    #[test]
    fn steady_state_admits_nearly_everything() {
        let ds = dataset(11);
        let ocfg = OverloadConfig::sized_for(&ds);
        let out = run_overload(
            &ds,
            LacbConfig::default(),
            ResilienceConfig::default(),
            &ocfg,
            quiet_plan(),
        );
        let ov = out.metrics.overload.as_ref().unwrap();
        assert!(ov.accounting_balanced(), "accounting identity broken: {ov:?}");
        assert_eq!(ov.offered, ds.total_requests() as u64);
        // At nominal load the bucket sustains 2x the mean batch, so
        // nothing should be shed by capacity; at most a tail of
        // deadline expiries from unlucky batch-size draws.
        assert!(
            ov.admitted as f64 >= 0.95 * ov.offered as f64,
            "steady state shed too much: {ov:?}"
        );
        assert!(out.metrics.total_utility > 0.0);
        assert_eq!(ov.daily_served.len(), ds.days.len());
    }

    #[test]
    fn ramped_load_sheds_but_goodput_holds() {
        let base = dataset(13);
        let ramp = ramp_dataset(&base, &[1, 4, 16], 99);
        let ocfg = OverloadConfig::sized_for(&base);
        let out = run_overload(
            &ramp.dataset,
            LacbConfig::default(),
            ResilienceConfig::default(),
            &ocfg,
            quiet_plan(),
        );
        let ov = out.metrics.overload.as_ref().unwrap();
        assert!(ov.accounting_balanced(), "accounting identity broken: {ov:?}");
        assert!(ov.shed_total() > 0, "a 16x ramp must shed: {ov:?}");
        assert!(ov.spikes_detected > 0, "a 16x ramp must register spikes");
        // Goodput under overload must not collapse below the
        // pre-spike level: stage 0 is days with multiplier 1.
        let stage0_days: Vec<usize> =
            (0..ramp.dataset.days.len()).filter(|&d| ramp.multiplier_of_day(d) == 1).collect();
        let base_served: u64 =
            stage0_days.iter().map(|&d| ov.daily_served[d]).sum::<u64>() / stage0_days.len() as u64;
        for (d, &served) in ov.daily_served.iter().enumerate() {
            assert!(
                served as f64 >= 0.6 * base_served as f64,
                "goodput collapsed on day {d}: {served} vs baseline {base_served}"
            );
        }
    }

    #[test]
    fn overload_run_is_bit_identical_across_thread_counts() {
        let base = dataset(17);
        let ramp = ramp_dataset(&base, &[1, 8], 7);
        let ocfg = OverloadConfig::sized_for(&base);
        let mut reference: Option<OverloadOutcome> = None;
        for n_threads in [1usize, 4] {
            let cfg = LacbConfig { n_threads, ..LacbConfig::default() };
            let out =
                run_overload(&ramp.dataset, cfg, ResilienceConfig::default(), &ocfg, quiet_plan());
            match &reference {
                None => reference = Some(out),
                Some(r) => {
                    assert_bit_identical(&out.metrics, &r.metrics);
                    assert_eq!(r.final_state, out.final_state, "learned state diverged");
                }
            }
        }
    }

    #[test]
    fn snapshot_roundtrip_is_bit_identical() {
        let base = dataset(19);
        let ramp = ramp_dataset(&base, &[1, 16], 23);
        let spiked = ramp.dataset.clone();
        let mut platform = Platform::from_dataset(&spiked);
        let mut assigner =
            ResilientAssigner::new(Lacb::new(LacbConfig::default()), ResilienceConfig::default());
        let ocfg = OverloadConfig::sized_for(&base);
        let mut ov = OverloadState::new(ocfg.clone());
        // Drive one full day to accumulate non-trivial state.
        platform.begin_day();
        assigner.begin_day(&platform, 0);
        for batch in &spiked.days[0] {
            let admitted = ov.admit(assigner.primary_mut(), &platform, &batch.requests);
            ov.plan_quality(assigner.primary_mut());
            if !admitted.is_empty() {
                let assignment = assigner.assign_batch(&platform, &admitted);
                ov.observe_solve(assigner.primary(), false);
                let outcome = platform.execute_batch(&admitted, &assignment);
                ov.record_served(&outcome);
            }
        }
        let feedback = platform.end_day();
        assigner.end_day(&platform, &feedback);
        ov.observe_feedback(false);
        ov.end_day();
        let snap = ov.snapshot();
        let restored = OverloadState::from_snapshot(ocfg, &snap);
        assert_eq!(restored.snapshot(), snap, "snapshot must round-trip exactly");
        assert!(snap.stats.accounting_balanced());
    }

    #[test]
    fn solver_breaker_trips_and_recovers_under_a_tight_budget() {
        let base = dataset(29);
        let ramp = ramp_dataset(&base, &[1, 8], 31);
        let mut ocfg = OverloadConfig::sized_for(&base);
        // A budget tight enough that real KM solves blow it, forcing
        // trips; greedy (0 ops) then passes the half-open probes only
        // if the probe itself fits, so the breaker cycles.
        ocfg.solver_ops_budget = 1;
        let out = run_overload(
            &ramp.dataset,
            LacbConfig::default(),
            ResilienceConfig::default(),
            &ocfg,
            quiet_plan(),
        );
        let ov = out.metrics.overload.as_ref().unwrap();
        assert!(ov.breaker_trips > 0, "a 1-op budget must trip the solver breaker");
        assert!(ov.greedy_batches > 0, "open breaker must route batches to greedy");
        assert!(!ov.breaker_events.is_empty());
        // Every transition is recorded with a monotone tick.
        let mut last = 0u64;
        for e in &ov.breaker_events {
            assert!(e.transition.tick >= last, "transitions out of order");
            last = e.transition.tick;
        }
        assert!(ov.accounting_balanced());
    }

    #[test]
    fn brownout_reduces_quality_under_backlog_then_restores() {
        let base = dataset(37);
        let ramp = ramp_dataset(&base, &[1, 16, 1], 41);
        let ocfg = OverloadConfig::sized_for(&base);
        let out = run_overload(
            &ramp.dataset,
            LacbConfig::default(),
            ResilienceConfig::default(),
            &ocfg,
            quiet_plan(),
        );
        let ov = out.metrics.overload.as_ref().unwrap();
        assert!(
            ov.reduced_cbs_batches + ov.greedy_batches > 0,
            "a 16x stage must push the ladder past Normal: {ov:?}"
        );
        assert!(ov.brownout_escalations > 0);
        // The final stage is back at 1x: the last day must see the
        // ladder fully recovered (every batch at full quality would be
        // ideal, but at minimum the run ends without a breaker open).
        assert!(ov.accounting_balanced());
    }
}
