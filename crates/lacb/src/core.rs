//! The serving core: the one day/batch loop behind every entry point.
//!
//! LACB serves in two kinds of unit (PAPER.md §1): per batch it refines
//! utilities with `V(cr)` and solves KM on the CBS graph, and per day it
//! updates the capacity bandit and the value table. [`Engine`] steps a
//! run one unit at a time — day start, batch, day end — and owns what
//! the units touch: the platform (and the fault plan enabled on it), the
//! ledger, the run accumulators ([`RunProgress`]), the stage timings and
//! an optional admission stage ([`OverloadState`]).
//!
//! Every unit reaches a commit point before it takes effect, and there
//! the core hands the unit's [`WalRecord`] to a [`Sink`] the caller
//! supplies: a day start before the day opens, an admission decision
//! before the admitted requests are matched, a batch assignment before
//! it executes, a day end before the learner consumes the feedback. The
//! in-memory entry points pass `()`, which keeps nothing; the durable
//! path ([`crate::supervisor`]) appends to its WAL or verifies against
//! the replay tail; the replicated primary appends and ships, and its
//! follower verifies against the shipped record. The sink also repairs
//! audit-quarantined state after every batch and day end, so the durable
//! path can repair from its checkpoint store.
//!
//! Timing has one definition. A batch's sample covers only the serving
//! algorithm's own work for that batch: admission, quality planning,
//! `assign_batch` and solve observation — no platform execution, no disk
//! I/O, no link. The day samples cover `begin_day` and the end-of-day
//! learning update (plus admission's day close).

use crate::assigner::Assigner;
use crate::checkpoint::{Checkpoint, RunProgress};
use crate::lacb::Lacb;
use crate::overload::OverloadState;
use crate::resilient::ResilientAssigner;
use durability::WalRecord;
use platform_sim::{
    BrokerLedger, Dataset, FaultPlan, Platform, ResilienceStats, RunMetrics, StageTimings,
};
use std::convert::Infallible;
use std::time::Instant;

/// The next unit an [`Engine`] serves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Unit {
    DayStart(usize),
    Batch(usize, usize),
    DayEnd(usize),
    Done,
}

/// Where a sink stored a committed record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Logged {
    /// Appended to the on-disk WAL.
    Disk,
    /// Held in the storage guard's replay buffer (the disk is degraded).
    Buffered,
}

/// What the caller does at each commit point.
pub(crate) trait Sink<A: Assigner + ?Sized> {
    type Error;

    /// `rec` is about to take effect. Returns where it was logged, or
    /// `None` when nothing was written (no log, or the record was
    /// verified against one). Admission's WAL breaker hears every `Some`.
    fn commit(&mut self, rec: &WalRecord) -> Result<Option<Logged>, Self::Error>;

    /// The batch committed last has executed against the platform.
    fn applied(&mut self, _day: usize, _batch: usize) {}

    /// Repair audit-quarantined learned state; called after every batch
    /// and after every day's learning update.
    fn repair(&mut self, assigner: &mut A, _day: usize) {
        assigner.repair_quarantined_brokers();
    }
}

/// The in-memory entry points log nothing.
impl<A: Assigner + ?Sized> Sink<A> for () {
    type Error = Infallible;

    fn commit(&mut self, _: &WalRecord) -> Result<Option<Logged>, Infallible> {
        Ok(None)
    }
}

/// The resilient LACB ladder behind an assigner, when it is one.
/// Admission prices requests with the matcher's value table and pins its
/// match quality, so only runs over the ladder can carry it.
pub(crate) trait Ladder: Assigner {
    fn ladder(&mut self) -> Option<&mut ResilientAssigner<Lacb>> {
        None
    }
}

impl Ladder for dyn Assigner + '_ {}

impl Ladder for ResilientAssigner<Lacb> {
    fn ladder(&mut self) -> Option<&mut ResilientAssigner<Lacb>> {
        Some(self)
    }
}

fn ladder<A: Ladder + ?Sized>(assigner: &mut A) -> &mut ResilientAssigner<Lacb> {
    assigner.ladder().expect("admission serves the resilient LACB ladder")
}

/// Ladder degradations the solver breaker counts as failures.
fn ladder_degradations(s: &ResilienceStats) -> u64 {
    s.primary_panics + s.invalid_primary_outputs
}

/// Feedback-channel failures the bandit breaker counts.
fn channel_failures(s: &ResilienceStats) -> u64 {
    s.feedback_retries + s.feedback_lost_days
}

/// Feed admission's WAL breaker the outcome of a logged record.
pub(crate) fn observe_wal(overload: Option<&mut OverloadState>, logged: Option<Logged>) {
    if let (Some(ov), Some(logged)) = (overload, logged) {
        ov.observe_wal(logged == Logged::Disk);
    }
}

/// A platform over `days` with `plan`'s faults enabled.
pub(crate) fn platform(days: &Dataset, plan: FaultPlan) -> Platform {
    let mut platform = Platform::from_dataset(days);
    platform.enable_faults(plan);
    platform
}

/// The matcher's learned state, as [`Lacb::write_state`] prints it.
pub(crate) fn learned_state(assigner: &ResilientAssigner<Lacb>) -> String {
    let mut state = String::new();
    assigner.primary().write_state(&mut state);
    state
}

/// One serving pipeline, advanced one unit at a time.
pub(crate) struct Engine<'a, A: Ladder + ?Sized> {
    days: &'a Dataset,
    horizon: usize,
    pub(crate) platform: Platform,
    pub(crate) assigner: &'a mut A,
    pub(crate) ledger: BrokerLedger,
    pub(crate) progress: RunProgress,
    pub(crate) overload: Option<OverloadState>,
    timings: StageTimings,
    next_batch: usize,
    day_open: bool,
    pool_sync_nanos: u64,
}

impl<'a, A: Ladder + ?Sized> Engine<'a, A> {
    /// A run over all of `days` from day 0, on `platform`. Restored runs
    /// replace `ledger` and `progress`; admission runs set `overload`.
    pub(crate) fn new(days: &'a Dataset, platform: Platform, assigner: &'a mut A) -> Self {
        Engine {
            horizon: days.days.len(),
            ledger: BrokerLedger::new(platform.num_brokers()),
            days,
            platform,
            assigner,
            progress: RunProgress::default(),
            overload: None,
            timings: StageTimings::default(),
            next_batch: 0,
            day_open: false,
            pool_sync_nanos: 0,
        }
    }

    /// Stop after `max_days` days (`None` keeps the whole horizon).
    pub(crate) fn truncate(&mut self, max_days: Option<usize>) {
        if let Some(days) = max_days {
            self.horizon = self.horizon.min(days);
        }
    }

    pub(crate) fn peek(&self) -> Unit {
        let d = self.progress.next_day;
        if !self.day_open {
            return if d < self.horizon { Unit::DayStart(d) } else { Unit::Done };
        }
        if self.next_batch < self.days.days[d].len() {
            Unit::Batch(d, self.next_batch)
        } else {
            Unit::DayEnd(d)
        }
    }

    /// `(day, batch)` cursor: the next day to open, or the open day, and
    /// the batches it has served so far.
    pub(crate) fn position(&self) -> (usize, usize) {
        (self.progress.next_day, self.next_batch)
    }

    /// Serve the next unit; returns it, or [`Unit::Done`] when the
    /// horizon is complete.
    pub(crate) fn step<S: Sink<A>>(&mut self, sink: &mut S) -> Result<Unit, S::Error> {
        let unit = self.peek();
        let pool_before = pool::stats();
        match unit {
            Unit::DayStart(d) => self.day_start(d, sink)?,
            Unit::Batch(d, b) => self.batch(d, b, sink)?,
            Unit::DayEnd(d) => self.day_end(d, sink)?,
            Unit::Done => return Ok(Unit::Done),
        }
        // Pool activity is attributed unit by unit, so engines
        // interleaved on one thread (the replicated pair) each count
        // only their own rounds.
        let pool_after = pool::stats();
        let breakdown = &mut self.timings.breakdown;
        self.pool_sync_nanos += pool_after.sync_nanos - pool_before.sync_nanos;
        breakdown.parallel_rounds += pool_after.parallel_rounds - pool_before.parallel_rounds;
        breakdown.inline_rounds += pool_after.inline_rounds - pool_before.inline_rounds;
        Ok(unit)
    }

    /// Serve every remaining unit through `sink`.
    pub(crate) fn run<S: Sink<A>>(&mut self, sink: &mut S) -> Result<(), S::Error> {
        while self.step(sink)? != Unit::Done {}
        Ok(())
    }

    /// Serve the rest of the horizon, logging nothing, and report.
    pub(crate) fn serve(mut self) -> RunMetrics {
        let Ok(()) = self.run(&mut ());
        self.finish()
    }

    fn day_start<S: Sink<A>>(&mut self, d: usize, sink: &mut S) -> Result<(), S::Error> {
        observe_wal(self.overload.as_mut(), sink.commit(&WalRecord::DayStart { day: d })?);
        self.platform.begin_day();
        let t = Instant::now();
        self.assigner.begin_day(&self.platform, d);
        let secs = t.elapsed().as_secs_f64();
        self.timings.begin_day_secs.push(secs);
        self.progress.elapsed_secs += secs;
        self.day_open = true;
        self.next_batch = 0;
        Ok(())
    }

    fn batch<S: Sink<A>>(&mut self, d: usize, b: usize, sink: &mut S) -> Result<(), S::Error> {
        let offered = &self.days.days[d][b].requests;
        let mut secs = 0.0;
        let mut t = Instant::now();
        let admitted = match self.overload.as_mut() {
            None => None,
            Some(ov) => {
                let lacb = ladder(self.assigner);
                let admitted = ov.admit(lacb.primary_mut(), &self.platform, offered);
                secs += t.elapsed().as_secs_f64();
                let ids = admitted.iter().map(|r| r.id).collect();
                let rec = WalRecord::Admission { day: d, batch: b, admitted: ids };
                observe_wal(Some(&mut *ov), sink.commit(&rec)?);
                t = Instant::now();
                ov.plan_quality(lacb.primary_mut());
                Some(admitted)
            }
        };
        let requests = admitted.as_deref().unwrap_or(offered);
        // Admission may drain nothing on a tick; then nothing is matched.
        let matched = admitted.as_ref().is_none_or(|a| !a.is_empty());
        if matched {
            let before =
                self.overload.as_ref().map(|_| ladder_degradations(ladder(self.assigner).stats()));
            let assignment = self.assigner.assign_batch(&self.platform, requests);
            if let (Some(ov), Some(before)) = (self.overload.as_mut(), before) {
                let lacb = ladder(self.assigner);
                ov.observe_solve(lacb.primary(), ladder_degradations(lacb.stats()) > before);
            }
            secs += t.elapsed().as_secs_f64();
            let draws = self.platform.appeal_draws();
            let rec = WalRecord::Batch { day: d, batch: b, draws, assignment };
            observe_wal(self.overload.as_mut(), sink.commit(&rec)?);
            let WalRecord::Batch { assignment, .. } = &rec else { unreachable!("a batch record") };
            let outcome = self.platform.execute_batch(requests, assignment);
            self.progress.requests_failed += outcome.failed.len() as u64;
            if let Some(ov) = self.overload.as_mut() {
                ov.record_served(&outcome);
            }
            self.ledger.record_batch(&outcome);
            sink.applied(d, b);
        } else {
            secs += t.elapsed().as_secs_f64();
        }
        self.timings.assign_batch_secs.push(secs);
        self.progress.elapsed_secs += secs;
        // Seeded state corruption and duplicated delivery land after
        // execution; the repair below must undo them before the next
        // batch is matched.
        if let Some(plan) = self.platform.fault_plan() {
            if let Some(fault) = plan.state_fault(d, b, self.platform.num_brokers()) {
                self.assigner.inject_state_fault(&fault);
            }
            if matched && plan.batch_replayed(d, b) {
                // The duplicate re-enters the matcher (mutating its
                // learned state twice); its output is discarded because
                // the original delivery already executed.
                let _ = self.assigner.assign_batch(&self.platform, requests);
            }
        }
        sink.repair(self.assigner, d);
        self.next_batch += 1;
        Ok(())
    }

    fn day_end<S: Sink<A>>(&mut self, d: usize, sink: &mut S) -> Result<(), S::Error> {
        let feedback = self.platform.end_day();
        let rec = WalRecord::DayEnd {
            day: d,
            realized_bits: feedback.realized.to_bits(),
            trials: feedback.trials.len(),
            draws: self.platform.appeal_draws(),
        };
        observe_wal(self.overload.as_mut(), sink.commit(&rec)?);
        let t = Instant::now();
        let before =
            self.overload.as_ref().map(|_| channel_failures(ladder(self.assigner).stats()));
        self.assigner.end_day(&self.platform, &feedback);
        if let (Some(ov), Some(before)) = (self.overload.as_mut(), before) {
            ov.observe_feedback(channel_failures(ladder(self.assigner).stats()) > before);
            ov.end_day();
        }
        let secs = t.elapsed().as_secs_f64();
        self.timings.end_day_secs.push(secs);
        self.progress.elapsed_secs += secs;
        // Deep-audit quarantines must not cross the day boundary, so a
        // checkpoint cut here is quarantine-free.
        sink.repair(self.assigner, d);
        self.ledger.end_day(feedback.realized);
        self.progress.daily_utility.push(feedback.realized);
        self.progress.daily_elapsed.push(self.progress.elapsed_secs);
        self.progress.next_day = d + 1;
        self.day_open = false;
        Ok(())
    }

    /// Close the run: drain the matcher's stage breakdown and report.
    pub(crate) fn finish(self) -> RunMetrics {
        let Engine {
            assigner,
            platform,
            ledger,
            progress,
            overload,
            mut timings,
            pool_sync_nanos,
            ..
        } = self;
        if let Some(b) = assigner.take_stage_breakdown() {
            timings.breakdown.absorb(&b);
        }
        timings.breakdown.pool_sync_secs += pool_sync_nanos as f64 * 1e-9;
        // Runs under a fault plan report their fault accounting.
        let resilience = platform.fault_plan().map(|_| ResilienceStats {
            requests_failed: progress.requests_failed,
            ..assigner.resilience_stats().unwrap_or_default()
        });
        let name = assigner.name();
        RunMetrics {
            algorithm: if overload.is_some() { format!("Overload({name})") } else { name },
            total_utility: ledger.total_realized(),
            elapsed_secs: progress.elapsed_secs,
            daily_utility: progress.daily_utility,
            daily_elapsed: progress.daily_elapsed,
            ledger,
            resilience,
            overload: overload.map(|ov| ov.stats().clone()),
            timings,
            audit: assigner.take_audit_report(),
            replication: None,
            storage: None,
        }
    }
}

impl Engine<'_, ResilientAssigner<Lacb>> {
    /// Snapshot the run at the day boundary it stands on.
    pub(crate) fn checkpoint(&self) -> Checkpoint {
        let overload = self.overload.as_ref().map(OverloadState::snapshot);
        Checkpoint::capture_with_overload(
            self.assigner.primary(),
            &self.platform,
            &self.ledger,
            &self.progress,
            self.assigner.pending_feedback(),
            self.assigner.stats(),
            overload.as_ref(),
        )
    }
}

#[cfg(test)]
mod tests {
    use crate::checkpoint::{resume_chaos, run_chaos_until};
    use crate::lacb::{Lacb, LacbConfig};
    use crate::overload::{run_overload, OverloadConfig};
    use crate::replication::{run_replicated, ReplicationConfig};
    use crate::resilient::{run_chaos, ResilienceConfig, ResilientAssigner};
    use crate::runner::{run, RunConfig};
    use crate::supervisor::{run_durable, run_overload_durable, DurableConfig};
    use crate::testkit::{chaos_plan, dataset, scratch};
    use platform_sim::{NetFaultConfig, NetFaultPlan, RunMetrics};

    /// One batch sample per offered batch and one sample per day
    /// boundary over days `from..`, and a drained stage breakdown.
    fn assert_timed(entry: &str, m: &RunMetrics, batches: &[usize], from: usize) {
        let t = &m.timings;
        let days = batches.len() - from;
        let offered: usize = batches[from..].iter().sum();
        assert_eq!(t.assign_batch_secs.len(), offered, "{entry}: batch samples");
        assert_eq!(t.begin_day_secs.len(), days, "{entry}: begin_day samples");
        assert_eq!(t.end_day_secs.len(), days, "{entry}: end_day samples");
        assert!(
            t.breakdown.bandit_score_secs > 0.0 && t.breakdown.km_solve_secs > 0.0,
            "{entry}: stage breakdown not drained: {:?}",
            t.breakdown
        );
        if from == 0 {
            assert!((m.elapsed_secs - t.total_secs()).abs() < 1e-9, "{entry}: elapsed != samples");
        }
    }

    #[test]
    fn every_entry_point_times_each_unit_once() {
        let ds = dataset(307);
        let plan = chaos_plan(311);
        let plain: Vec<usize> = ds.days.iter().map(Vec::len).collect();
        let batches: Vec<usize> = ds.with_batch_spikes(&plan).days.iter().map(Vec::len).collect();
        let (cfg, rcfg) = (LacbConfig::default, ResilienceConfig::default);
        let ocfg = OverloadConfig::sized_for(&ds);

        assert_timed("run", &run(&ds, &mut Lacb::new(cfg()), &RunConfig::default()), &plain, 0);
        let mut ladder = ResilientAssigner::new(Lacb::new(cfg()), rcfg());
        let m = run_chaos(&ds, &mut ladder, &RunConfig::default(), plan);
        assert_timed("run_chaos", &m, &batches, 0);
        let ckpt = run_chaos_until(&ds, cfg(), rcfg(), plan, 0).unwrap();
        let m = resume_chaos(&ds, &ckpt, cfg(), rcfg(), plan).unwrap();
        assert_timed("resume_chaos", &m, &batches, 1);
        let m = run_overload(&ds, cfg(), rcfg(), &ocfg, plan).metrics;
        assert_timed("run_overload", &m, &batches, 0);
        let dcfg = DurableConfig::at(&scratch("timing-durable"));
        let m = run_durable(&ds, cfg(), rcfg(), plan, &dcfg).unwrap().metrics;
        assert_timed("run_durable", &m, &batches, 0);
        let dcfg = DurableConfig::at(&scratch("timing-overload-durable"));
        let m = run_overload_durable(&ds, cfg(), rcfg(), &ocfg, plan, &dcfg).unwrap().metrics;
        assert_timed("run_overload_durable", &m, &batches, 0);
        let repl = ReplicationConfig::at(&scratch("timing-replicated"));
        let net = NetFaultPlan::new(NetFaultConfig::default());
        let m = run_replicated(&ds, cfg(), rcfg(), plan, net, &repl).unwrap().metrics;
        assert_timed("run_replicated", &m, &batches, 0);
    }
}
