//! Versioned checkpoint/restore for a running LACB serving pipeline.
//!
//! A checkpoint is taken at a day boundary (after `end_day`) and bundles
//! everything needed to resume the horizon *bit-identically*:
//!
//! - the matcher's learned state ([`Lacb::write_state`]: estimator
//!   weights, value table, capacity trajectory, RNG stream),
//! - the platform's broker states at the boundary plus its day counter
//!   and appeal-draw counter,
//! - the run ledger and accumulators (daily utility, elapsed time),
//! - the fault channel's state (delayed feedback awaiting delivery,
//!   degradation counters).
//!
//! The on-disk format is the checksummed `caam-ckpt v2` container
//! (see [`durability::container`]): the line-oriented v1 payload —
//! human-diffable, no serialisation dependencies, floats written with
//! `{:e}` so they round-trip exactly — split into named sections, each
//! CRC32-checksummed, with a whole-file footer checksum. Writes go
//! through a tmp file + `rename`, so a crash mid-save can never tear an
//! existing checkpoint. Bare `caam-ckpt v1` files (pre-checksum) still
//! load. `load`/`restore` validate aggressively — version skew,
//! truncation, checksum mismatches, dimension mismatches and non-finite
//! learned values are all typed [`CheckpointError`]s rather than a
//! silently corrupted resume. The seeded fault schedule itself is
//! *stateless* (every draw is a pure hash of coordinates), so it needs
//! no checkpointing: a restored run replays the same chaos.

use crate::core::{self, Engine};
use crate::lacb::{Lacb, LacbConfig};
use crate::overload::OverloadSnapshot;
use crate::resilient::{ResilienceConfig, ResilientAssigner};
use admission::{BreakerSnapshot, BreakerStateKind, BreakerTransition, BrownoutLevel, QueueEntry};
use bandit::state;
use durability::{atomic_write, parse_v2, write_v2, V2_HEADER};
use platform_sim::{
    BreakerComponent, BreakerEvent, BrokerLedger, BrokerState, Dataset, DayFeedback, FaultPlan,
    OverloadStats, Platform, ResilienceStats, RunMetrics, TrialTriple,
};
use std::fmt;
use std::io::ErrorKind;
use std::path::Path;

/// Legacy payload format tag; v1 files are still accepted on load.
pub const FORMAT_VERSION: &str = "caam-ckpt v1";

/// Checkpoint generations the durable and replicated runs retain.
pub(crate) const CHECKPOINT_GENERATIONS: usize = 3;

/// Why a checkpoint could not be written, read, or restored.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckpointError {
    /// File I/O failed. The OS [`ErrorKind`] is preserved so callers
    /// can distinguish a missing file from a permission problem.
    Io { path: String, kind: ErrorKind, detail: String },
    /// The header names a different format version than this build
    /// understands.
    VersionSkew { found: String },
    /// The container failed checksum or structural verification:
    /// truncation, bit rot, a torn write that escaped `rename`.
    Corrupt(String),
    /// The payload is malformed: truncated, non-finite weights,
    /// dimension mismatch against the live configuration, …
    Invalid(String),
}

impl CheckpointError {
    fn io(path: &Path, err: &std::io::Error) -> Self {
        CheckpointError::Io {
            path: path.display().to_string(),
            kind: err.kind(),
            detail: err.to_string(),
        }
    }
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io { path, kind, detail } => {
                write!(f, "checkpoint I/O error on {path}: {detail} ({kind:?})")
            }
            CheckpointError::VersionSkew { found } => {
                write!(f, "checkpoint version skew: found {found:?}, expected {V2_HEADER:?} or {FORMAT_VERSION:?}")
            }
            CheckpointError::Corrupt(e) => write!(f, "corrupt checkpoint: {e}"),
            CheckpointError::Invalid(e) => write!(f, "invalid checkpoint: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<String> for CheckpointError {
    fn from(e: String) -> Self {
        CheckpointError::Invalid(e)
    }
}

/// Run-loop accumulators carried across a restore so the resumed run's
/// metrics cover the whole horizon, not just the tail.
#[derive(Clone, Debug, Default)]
pub struct RunProgress {
    /// Next day index to execute.
    pub next_day: usize,
    /// Algorithm seconds spent before the checkpoint.
    pub elapsed_secs: f64,
    /// Per-day realised utility so far.
    pub daily_utility: Vec<f64>,
    /// Cumulative elapsed seconds per day so far.
    pub daily_elapsed: Vec<f64>,
    /// Requests failed on offline brokers so far.
    pub requests_failed: u64,
}

/// Everything [`Checkpoint::restore`] hands back.
pub struct Restored {
    pub matcher: Lacb,
    pub ledger: BrokerLedger,
    pub progress: RunProgress,
    pub pending_feedback: Option<DayFeedback>,
    pub stats: ResilienceStats,
    /// Overload-controller snapshot, when the checkpoint was cut by an
    /// overload-protected run (absent in plain durable checkpoints and
    /// every pre-overload file).
    pub overload: Option<OverloadSnapshot>,
    /// Replication fencing epoch, when the checkpoint was cut by a
    /// replicated run (absent in single-node checkpoints). A node
    /// restoring this checkpoint must serve under an epoch at least
    /// this high or its frames will be fenced off.
    pub epoch: Option<u64>,
}

/// A serialised pipeline snapshot. Obtain one with [`Checkpoint::capture`]
/// or [`Checkpoint::load`]; apply it with [`Checkpoint::restore`].
#[derive(Clone, Debug)]
pub struct Checkpoint {
    text: String,
}

impl Checkpoint {
    /// Snapshot a pipeline at a day boundary.
    pub fn capture(
        matcher: &Lacb,
        platform: &Platform,
        ledger: &BrokerLedger,
        progress: &RunProgress,
        pending_feedback: Option<&DayFeedback>,
        stats: &ResilienceStats,
    ) -> Checkpoint {
        Self::capture_with_overload(
            matcher,
            platform,
            ledger,
            progress,
            pending_feedback,
            stats,
            None,
        )
    }

    /// Snapshot an overload-protected pipeline: [`Checkpoint::capture`]
    /// plus the admission/breaker/brownout controller state, so a
    /// restored run resumes shedding and probing exactly where the
    /// crashed one stopped.
    #[allow(clippy::too_many_arguments)]
    pub fn capture_with_overload(
        matcher: &Lacb,
        platform: &Platform,
        ledger: &BrokerLedger,
        progress: &RunProgress,
        pending_feedback: Option<&DayFeedback>,
        stats: &ResilienceStats,
        overload: Option<&OverloadSnapshot>,
    ) -> Checkpoint {
        let mut out = String::new();
        out.push_str(FORMAT_VERSION);
        out.push('\n');
        state::push_kv(&mut out, "next-day", progress.next_day);
        state::push_floats(&mut out, "elapsed", &[progress.elapsed_secs]);
        state::push_floats(&mut out, "daily-utility", &progress.daily_utility);
        state::push_floats(&mut out, "daily-elapsed", &progress.daily_elapsed);
        state::push_kv(&mut out, "requests-failed", progress.requests_failed);
        write_platform(&mut out, platform);
        write_ledger(&mut out, ledger);
        write_stats(&mut out, stats);
        write_feedback(&mut out, pending_feedback);
        matcher.write_state(&mut out);
        if let Some(ov) = overload {
            write_overload(&mut out, ov);
        }
        Checkpoint { text: out }
    }

    /// Stamp a replication fencing epoch onto the checkpoint (replicated
    /// runs only). The epoch rides as a trailing optional section, so
    /// single-node tooling keeps reading these files unchanged.
    pub fn with_epoch(mut self, epoch: u64) -> Checkpoint {
        state::push_kv(&mut self.text, "replication-epoch", epoch);
        self
    }

    /// The bare v1 payload (header + key-value lines). This is the
    /// *logical* form; [`Checkpoint::save`] wraps it in the checksummed
    /// v2 container on the way to disk.
    pub fn as_text(&self) -> &str {
        &self.text
    }

    /// The checksummed `caam-ckpt v2` container form: the v1 payload
    /// split into named sections, each with a CRC32, plus a whole-file
    /// footer checksum. This is what [`Checkpoint::save`] writes.
    pub fn to_v2_text(&self) -> String {
        // Section boundaries are the first key of each logical group in
        // the v1 payload; splitting here (rather than restructuring
        // `capture`) keeps one serialisation path for both formats.
        const MARKERS: [(&str, &str); 8] = [
            ("next-day", "progress"),
            ("platform-day", "platform"),
            ("ledger-realized", "ledger"),
            ("primary-panics", "stats"),
            ("pending-feedback", "feedback"),
            ("lacb-days", "matcher"),
            ("overload-present", "overload"),
            ("replication-epoch", "epoch"),
        ];
        let mut sections: Vec<(&str, String)> = Vec::with_capacity(MARKERS.len());
        for line in self.text.lines().skip(1) {
            let key = line.split_whitespace().next().unwrap_or("");
            if let Some((_, name)) = MARKERS.iter().find(|(k, _)| *k == key) {
                sections.push((name, String::new()));
            }
            if let Some((_, body)) = sections.last_mut() {
                body.push_str(line);
                body.push('\n');
            }
        }
        let borrowed: Vec<(&str, &str)> = sections.iter().map(|(n, b)| (*n, b.as_str())).collect();
        write_v2(&borrowed)
    }

    /// Parse a serialised checkpoint in either format: the checksummed
    /// v2 container (fully verified here) or a bare legacy v1 payload.
    /// Payload validation happens in [`Checkpoint::restore`], which has
    /// the live configuration to validate against.
    pub fn from_text(text: &str) -> Result<Checkpoint, CheckpointError> {
        let header = text.lines().next().unwrap_or("").trim_end();
        if header == V2_HEADER {
            let sections = parse_v2(text).map_err(|e| CheckpointError::Corrupt(e.to_string()))?;
            let mut v1 = String::with_capacity(text.len());
            v1.push_str(FORMAT_VERSION);
            v1.push('\n');
            for (_, body) in &sections {
                v1.push_str(body);
            }
            return Ok(Checkpoint { text: v1 });
        }
        if header != FORMAT_VERSION {
            return Err(CheckpointError::VersionSkew { found: header.to_string() });
        }
        Ok(Checkpoint { text: text.to_string() })
    }

    /// Write the checkpoint as a v2 container, atomically: the bytes go
    /// to a sibling `.tmp` file which is `rename`d over `path`, so a
    /// crash mid-save leaves any previous checkpoint untouched.
    pub fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        atomic_write(path, self.to_v2_text().as_bytes()).map_err(|e| CheckpointError::io(path, &e))
    }

    pub fn load(path: &Path) -> Result<Checkpoint, CheckpointError> {
        let text = std::fs::read_to_string(path).map_err(|e| CheckpointError::io(path, &e))?;
        Checkpoint::from_text(&text)
    }

    /// Rebuild the pipeline: reset `platform` to the checkpointed day
    /// boundary and return the restored matcher, ledger, accumulators
    /// and channel state.
    pub fn restore(
        &self,
        cfg: LacbConfig,
        platform: &mut Platform,
    ) -> Result<Restored, CheckpointError> {
        let mut lines = self.text.lines().peekable();
        let header = lines.next().unwrap_or("").trim_end();
        if header != FORMAT_VERSION {
            return Err(CheckpointError::VersionSkew { found: header.to_string() });
        }
        let next_day: usize =
            state::parse_one(state::expect_key(&mut lines, "next-day")?, "next day")?;
        let elapsed = state::parse_floats(state::expect_key(&mut lines, "elapsed")?, "elapsed")?;
        state::require_len(&elapsed, 1, "elapsed")?;
        state::require_finite(&elapsed, "elapsed")?;
        let daily_utility =
            state::parse_floats(state::expect_key(&mut lines, "daily-utility")?, "daily utility")?;
        let daily_elapsed =
            state::parse_floats(state::expect_key(&mut lines, "daily-elapsed")?, "daily elapsed")?;
        state::require_finite(&daily_utility, "daily utility")?;
        state::require_finite(&daily_elapsed, "daily elapsed")?;
        if daily_utility.len() != next_day || daily_elapsed.len() != next_day {
            return Err(CheckpointError::Invalid(format!(
                "accumulators cover {}/{} days but checkpoint is at day {next_day}",
                daily_utility.len(),
                daily_elapsed.len()
            )));
        }
        let requests_failed: u64 =
            state::parse_one(state::expect_key(&mut lines, "requests-failed")?, "failed count")?;
        let (states, day_index, appeal_draws) = read_platform(&mut lines, platform.num_brokers())?;
        if day_index != next_day {
            return Err(CheckpointError::Invalid(format!(
                "platform day {day_index} disagrees with checkpoint day {next_day}"
            )));
        }
        let ledger = read_ledger(&mut lines, platform.num_brokers())?;
        let stats = read_stats(&mut lines)?;
        let pending_feedback = read_feedback(&mut lines)?;
        let matcher = Lacb::read_state(&mut lines, cfg, platform.num_brokers())?;
        // Optional trailing sections: overload snapshot, then the
        // replication epoch. Either may be absent independently.
        let overload = if lines.peek().is_some_and(|l| l.starts_with("overload-present")) {
            read_overload(&mut lines)?
        } else {
            None
        };
        let epoch = read_epoch(&mut lines)?;
        platform.restore_day_boundary(states, day_index, appeal_draws);
        Ok(Restored {
            matcher,
            ledger,
            progress: RunProgress {
                next_day,
                elapsed_secs: elapsed[0],
                daily_utility,
                daily_elapsed,
                requests_failed,
            },
            pending_feedback,
            stats,
            overload,
            epoch,
        })
    }
}

fn write_platform(out: &mut String, platform: &Platform) {
    state::push_kv(out, "platform-day", platform.day_index());
    state::push_kv(out, "appeal-draws", platform.appeal_draws());
    state::push_kv(out, "brokers", platform.num_brokers());
    for s in platform.states() {
        state::push_floats(out, "broker", &[s.workload_today, s.realized_today, s.fatigue]);
        state::push_floats(out, "recent-workloads", &s.recent_workloads);
        state::push_floats(out, "recent-signups", &s.recent_signup_rates);
    }
}

fn read_platform<'a, I: Iterator<Item = &'a str>>(
    lines: &mut I,
    num_brokers: usize,
) -> Result<(Vec<BrokerState>, usize, u64), CheckpointError> {
    let day_index: usize =
        state::parse_one(state::expect_key(lines, "platform-day")?, "platform day")?;
    let appeal_draws: u64 =
        state::parse_one(state::expect_key(lines, "appeal-draws")?, "appeal draws")?;
    let count: usize = state::parse_one(state::expect_key(lines, "brokers")?, "broker count")?;
    if count != num_brokers {
        return Err(CheckpointError::Invalid(format!(
            "checkpoint has {count} brokers, platform has {num_brokers}"
        )));
    }
    let mut states = Vec::with_capacity(count);
    for b in 0..count {
        let head =
            state::parse_floats(state::expect_key(lines, "broker")?, &format!("broker {b} state"))?;
        state::require_len(&head, 3, &format!("broker {b} state"))?;
        state::require_finite(&head, &format!("broker {b} state"))?;
        let recent_workloads = state::parse_floats(
            state::expect_key(lines, "recent-workloads")?,
            &format!("broker {b} workloads"),
        )?;
        let recent_signup_rates = state::parse_floats(
            state::expect_key(lines, "recent-signups")?,
            &format!("broker {b} signups"),
        )?;
        state::require_finite(&recent_workloads, &format!("broker {b} workloads"))?;
        state::require_finite(&recent_signup_rates, &format!("broker {b} signups"))?;
        states.push(BrokerState {
            workload_today: head[0],
            realized_today: head[1],
            fatigue: head[2],
            recent_workloads,
            recent_signup_rates,
        });
    }
    Ok((states, day_index, appeal_draws))
}

fn write_ledger(out: &mut String, ledger: &BrokerLedger) {
    let s = ledger.snapshot();
    state::push_floats(out, "ledger-realized", &s.realized_utility);
    state::push_floats(out, "ledger-predicted", &s.predicted_utility);
    state::push_floats(out, "ledger-served", &s.requests_served);
    state::push_floats(out, "ledger-daily-realized", &s.daily_realized);
    state::push_floats(out, "ledger-daily-served", &s.daily_served);
    state::push_floats(out, "ledger-peak", &s.peak_daily_workload);
    state::push_floats(out, "ledger-workload-today", &s.workload_today);
}

fn read_ledger<'a, I: Iterator<Item = &'a str>>(
    lines: &mut I,
    num_brokers: usize,
) -> Result<BrokerLedger, CheckpointError> {
    let mut snap = platform_sim::LedgerSnapshot::default();
    for (key, slot) in [
        ("ledger-realized", &mut snap.realized_utility),
        ("ledger-predicted", &mut snap.predicted_utility),
        ("ledger-served", &mut snap.requests_served),
        ("ledger-daily-realized", &mut snap.daily_realized),
        ("ledger-daily-served", &mut snap.daily_served),
        ("ledger-peak", &mut snap.peak_daily_workload),
        ("ledger-workload-today", &mut snap.workload_today),
    ] {
        let vals = state::parse_floats(state::expect_key(lines, key)?, key)?;
        state::require_finite(&vals, key)?;
        *slot = vals;
    }
    for (vals, what) in
        [(&snap.realized_utility, "ledger realized"), (&snap.requests_served, "ledger served")]
    {
        state::require_len(vals, num_brokers, what)?;
    }
    BrokerLedger::from_snapshot(snap).map_err(CheckpointError::Invalid)
}

const STAT_KEYS: [&str; 10] = [
    "primary-panics",
    "primary-timeouts",
    "invalid-primary-outputs",
    "greedy-fallbacks",
    "topk-patches",
    "utilities-sanitized",
    "feedback-retries",
    "feedback-lost-days",
    "feedback-delayed-days",
    "requests-failed-stat",
];

fn stat_fields(stats: &mut ResilienceStats) -> [&mut u64; 10] {
    [
        &mut stats.primary_panics,
        &mut stats.primary_timeouts,
        &mut stats.invalid_primary_outputs,
        &mut stats.greedy_fallbacks,
        &mut stats.topk_patches,
        &mut stats.utilities_sanitized,
        &mut stats.feedback_retries,
        &mut stats.feedback_lost_days,
        &mut stats.feedback_delayed_days,
        &mut stats.requests_failed,
    ]
}

fn write_stats(out: &mut String, stats: &ResilienceStats) {
    let mut copy = stats.clone();
    for (key, field) in STAT_KEYS.iter().zip(stat_fields(&mut copy)) {
        state::push_kv(out, key, *field);
    }
}

fn read_stats<'a, I: Iterator<Item = &'a str>>(
    lines: &mut I,
) -> Result<ResilienceStats, CheckpointError> {
    let mut stats = ResilienceStats::default();
    for (key, field) in STAT_KEYS.iter().zip(stat_fields(&mut stats)) {
        *field = state::parse_one(state::expect_key(lines, key)?, key)?;
    }
    Ok(stats)
}

fn write_feedback(out: &mut String, fb: Option<&DayFeedback>) {
    match fb {
        None => state::push_kv(out, "pending-feedback", 0),
        Some(fb) => {
            state::push_kv(out, "pending-feedback", 1);
            state::push_floats(out, "pending-realized", &[fb.realized]);
            state::push_kv(out, "pending-trials", fb.trials.len());
            for t in &fb.trials {
                state::push_kv(out, "trial-broker", t.broker);
                state::push_floats(out, "trial-values", &[t.workload, t.signup_rate]);
                state::push_floats(out, "trial-context", &t.context);
            }
        }
    }
}

fn read_feedback<'a, I: Iterator<Item = &'a str>>(
    lines: &mut I,
) -> Result<Option<DayFeedback>, CheckpointError> {
    let flag: u8 = state::parse_one(state::expect_key(lines, "pending-feedback")?, "pending flag")?;
    if flag == 0 {
        return Ok(None);
    }
    let realized =
        state::parse_floats(state::expect_key(lines, "pending-realized")?, "pending realized")?;
    state::require_len(&realized, 1, "pending realized")?;
    state::require_finite(&realized, "pending realized")?;
    let count: usize =
        state::parse_one(state::expect_key(lines, "pending-trials")?, "trial count")?;
    let mut trials = Vec::with_capacity(count);
    for i in 0..count {
        let broker: usize =
            state::parse_one(state::expect_key(lines, "trial-broker")?, "trial broker")?;
        let vals = state::parse_floats(
            state::expect_key(lines, "trial-values")?,
            &format!("trial {i} values"),
        )?;
        state::require_len(&vals, 2, &format!("trial {i} values"))?;
        state::require_finite(&vals, &format!("trial {i} values"))?;
        let context = state::parse_floats(
            state::expect_key(lines, "trial-context")?,
            &format!("trial {i} context"),
        )?;
        state::require_finite(&context, &format!("trial {i} context"))?;
        trials.push(TrialTriple { broker, context, workload: vals[0], signup_rate: vals[1] });
    }
    Ok(Some(DayFeedback { trials, realized: realized[0] }))
}

fn push_u64s(out: &mut String, key: &str, vals: &[u64]) {
    out.push_str(key);
    for v in vals {
        out.push(' ');
        out.push_str(&v.to_string());
    }
    out.push('\n');
}

fn parse_u64s(rest: &str, n: usize, what: &str) -> Result<Vec<u64>, CheckpointError> {
    let vals: Result<Vec<u64>, _> = rest.split_whitespace().map(str::parse).collect();
    let vals = vals.map_err(|e| CheckpointError::Invalid(format!("{what}: bad integer: {e}")))?;
    if vals.len() != n {
        return Err(CheckpointError::Invalid(format!(
            "{what}: expected {n} integers, got {}",
            vals.len()
        )));
    }
    Ok(vals)
}

fn encode_kind(k: BreakerStateKind) -> u64 {
    match k {
        BreakerStateKind::Closed => 0,
        BreakerStateKind::Open => 1,
        BreakerStateKind::HalfOpen => 2,
    }
}

fn decode_kind(v: u64) -> Result<BreakerStateKind, CheckpointError> {
    match v {
        0 => Ok(BreakerStateKind::Closed),
        1 => Ok(BreakerStateKind::Open),
        2 => Ok(BreakerStateKind::HalfOpen),
        other => Err(CheckpointError::Invalid(format!("unknown breaker state {other}"))),
    }
}

fn encode_level(l: BrownoutLevel) -> u64 {
    match l {
        BrownoutLevel::Normal => 0,
        BrownoutLevel::ReducedCbs => 1,
        BrownoutLevel::GreedyOnly => 2,
    }
}

fn decode_level(v: u64) -> Result<BrownoutLevel, CheckpointError> {
    match v {
        0 => Ok(BrownoutLevel::Normal),
        1 => Ok(BrownoutLevel::ReducedCbs),
        2 => Ok(BrownoutLevel::GreedyOnly),
        other => Err(CheckpointError::Invalid(format!("unknown brownout level {other}"))),
    }
}

fn encode_component(c: BreakerComponent) -> u64 {
    match c {
        BreakerComponent::Solver => 0,
        BreakerComponent::Bandit => 1,
        BreakerComponent::Wal => 2,
    }
}

fn decode_component(v: u64) -> Result<BreakerComponent, CheckpointError> {
    match v {
        0 => Ok(BreakerComponent::Solver),
        1 => Ok(BreakerComponent::Bandit),
        2 => Ok(BreakerComponent::Wal),
        other => Err(CheckpointError::Invalid(format!("unknown breaker component {other}"))),
    }
}

fn write_breaker(out: &mut String, s: &BreakerSnapshot) {
    push_u64s(
        out,
        "overload-breaker",
        &[encode_kind(s.kind), u64::from(s.counter), s.until_tick, s.trips],
    );
}

fn read_breaker<'a, I: Iterator<Item = &'a str>>(
    lines: &mut I,
    what: &str,
) -> Result<BreakerSnapshot, CheckpointError> {
    let v = parse_u64s(state::expect_key(lines, "overload-breaker")?, 4, what)?;
    Ok(BreakerSnapshot {
        kind: decode_kind(v[0])?,
        counter: u32::try_from(v[1])
            .map_err(|_| CheckpointError::Invalid(format!("{what}: counter overflow")))?,
        until_tick: v[2],
        trips: v[3],
    })
}

/// Serialise the overload controller. Floats (queue priorities, the
/// spike EWMA) travel as raw bit patterns so the round-trip is exact.
fn write_overload(out: &mut String, ov: &OverloadSnapshot) {
    state::push_kv(out, "overload-present", 1);
    state::push_kv(out, "overload-tick", ov.tick);
    push_u64s(
        out,
        "overload-bucket",
        &[ov.bucket.capacity, ov.bucket.refill_per_tick, ov.bucket.tokens],
    );
    push_u64s(
        out,
        "overload-queue",
        &[ov.queue.capacity as u64, ov.queue.watermark as u64, ov.queue.entries.len() as u64],
    );
    for e in &ov.queue.entries {
        push_u64s(
            out,
            "overload-entry",
            &[e.id, e.priority.to_bits(), e.enqueued_tick, e.deadline_tick],
        );
    }
    push_u64s(
        out,
        "overload-spike",
        &[ov.spike.ewma.to_bits(), ov.spike.observations, ov.spike.spikes],
    );
    write_breaker(out, &ov.solver_breaker);
    write_breaker(out, &ov.bandit_breaker);
    write_breaker(out, &ov.wal_breaker);
    push_u64s(
        out,
        "overload-brownout",
        &[
            encode_level(ov.brownout.level),
            u64::from(ov.brownout.pressured_ticks),
            u64::from(ov.brownout.calm_ticks),
            ov.brownout.escalations,
        ],
    );
    let s = &ov.stats;
    push_u64s(
        out,
        "overload-counters",
        &[
            s.offered,
            s.admitted,
            s.served,
            s.shed_queue_full,
            s.shed_deadline,
            s.shed_watermark,
            s.leftover_queued,
            s.spikes_detected,
            s.breaker_trips,
            s.brownout_escalations,
            s.reduced_cbs_batches,
            s.greedy_batches,
        ],
    );
    let mut daily = vec![s.daily_served.len() as u64];
    daily.extend_from_slice(&s.daily_served);
    push_u64s(out, "overload-daily-served", &daily);
    state::push_kv(out, "overload-events", s.breaker_events.len());
    for e in &s.breaker_events {
        push_u64s(
            out,
            "overload-event",
            &[
                encode_component(e.component),
                e.transition.tick,
                encode_kind(e.transition.from),
                encode_kind(e.transition.to),
            ],
        );
    }
}

/// Parse the trailing replication-epoch section, if present. Single-node
/// checkpoints simply end before it, in which case this returns `None`;
/// any other trailing line is rejected as corruption.
fn read_epoch<'a, I: Iterator<Item = &'a str>>(
    lines: &mut I,
) -> Result<Option<u64>, CheckpointError> {
    let Some(line) = lines.next() else { return Ok(None) };
    let rest = line.strip_prefix("replication-epoch ").ok_or_else(|| {
        CheckpointError::Invalid(format!("expected replication-epoch, found {line:?}"))
    })?;
    Ok(Some(state::parse_one(rest, "replication epoch")?))
}

/// Parse the overload section, if present. Checkpoints cut by plain
/// durable runs (and every pre-overload file) simply end after the
/// matcher state, in which case this returns `None`.
fn read_overload<'a, I: Iterator<Item = &'a str>>(
    lines: &mut I,
) -> Result<Option<OverloadSnapshot>, CheckpointError> {
    let Some(line) = lines.next() else { return Ok(None) };
    let rest = line.strip_prefix("overload-present ").ok_or_else(|| {
        CheckpointError::Invalid(format!("expected overload-present, found {line:?}"))
    })?;
    if parse_u64s(rest, 1, "overload present flag")?[0] == 0 {
        return Ok(None);
    }
    let tick: u64 = state::parse_one(state::expect_key(lines, "overload-tick")?, "overload tick")?;
    let b = parse_u64s(state::expect_key(lines, "overload-bucket")?, 3, "token bucket")?;
    let bucket =
        admission::TokenBucketSnapshot { capacity: b[0], refill_per_tick: b[1], tokens: b[2] };
    let q = parse_u64s(state::expect_key(lines, "overload-queue")?, 3, "admission queue")?;
    let mut entries = Vec::with_capacity(q[2] as usize);
    for i in 0..q[2] {
        let e = parse_u64s(
            state::expect_key(lines, "overload-entry")?,
            4,
            &format!("queue entry {i}"),
        )?;
        let priority = f64::from_bits(e[1]);
        if !priority.is_finite() {
            return Err(CheckpointError::Invalid(format!("queue entry {i}: non-finite priority")));
        }
        entries.push(QueueEntry { id: e[0], priority, enqueued_tick: e[2], deadline_tick: e[3] });
    }
    let queue =
        admission::QueueSnapshot { capacity: q[0] as usize, watermark: q[1] as usize, entries };
    let sp = parse_u64s(state::expect_key(lines, "overload-spike")?, 3, "spike detector")?;
    let ewma = f64::from_bits(sp[0]);
    if !ewma.is_finite() {
        return Err(CheckpointError::Invalid("spike detector: non-finite EWMA".into()));
    }
    let spike = admission::SpikeSnapshot { ewma, observations: sp[1], spikes: sp[2] };
    let solver_breaker = read_breaker(lines, "solver breaker")?;
    let bandit_breaker = read_breaker(lines, "bandit breaker")?;
    let wal_breaker = read_breaker(lines, "wal breaker")?;
    let br = parse_u64s(state::expect_key(lines, "overload-brownout")?, 4, "brownout")?;
    let brownout = admission::BrownoutSnapshot {
        level: decode_level(br[0])?,
        pressured_ticks: u32::try_from(br[1])
            .map_err(|_| CheckpointError::Invalid("brownout: pressured overflow".into()))?,
        calm_ticks: u32::try_from(br[2])
            .map_err(|_| CheckpointError::Invalid("brownout: calm overflow".into()))?,
        escalations: br[3],
    };
    let c = parse_u64s(state::expect_key(lines, "overload-counters")?, 12, "overload counters")?;
    let daily_rest = state::expect_key(lines, "overload-daily-served")?;
    let daily_all: Result<Vec<u64>, _> = daily_rest.split_whitespace().map(str::parse).collect();
    let daily_all = daily_all
        .map_err(|e| CheckpointError::Invalid(format!("daily served: bad integer: {e}")))?;
    let (daily_n, daily_served) = match daily_all.split_first() {
        Some((n, rest)) if *n as usize == rest.len() => (*n, rest.to_vec()),
        _ => return Err(CheckpointError::Invalid("daily served: length mismatch".into())),
    };
    let _ = daily_n;
    let n_events: usize =
        state::parse_one(state::expect_key(lines, "overload-events")?, "event count")?;
    let mut breaker_events = Vec::with_capacity(n_events);
    for i in 0..n_events {
        let e = parse_u64s(
            state::expect_key(lines, "overload-event")?,
            4,
            &format!("breaker event {i}"),
        )?;
        breaker_events.push(BreakerEvent {
            component: decode_component(e[0])?,
            transition: BreakerTransition {
                tick: e[1],
                from: decode_kind(e[2])?,
                to: decode_kind(e[3])?,
            },
        });
    }
    let stats = OverloadStats {
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
    };
    Ok(Some(OverloadSnapshot {
        tick,
        bucket,
        queue,
        spike,
        solver_breaker,
        bandit_breaker,
        wal_breaker,
        brownout,
        stats,
    }))
}

/// Drive a resilient LACB run under a fault schedule up to and including
/// `stop_after_day`, then capture a checkpoint at the boundary.
pub fn run_chaos_until(
    dataset: &Dataset,
    cfg: LacbConfig,
    rcfg: ResilienceConfig,
    plan: FaultPlan,
    stop_after_day: usize,
) -> Result<Checkpoint, CheckpointError> {
    let spiked = dataset.with_batch_spikes(&plan);
    if stop_after_day + 1 >= spiked.days.len() {
        return Err(CheckpointError::Invalid(format!(
            "cannot checkpoint after day {stop_after_day} of a {}-day horizon",
            spiked.days.len()
        )));
    }
    let mut assigner = ResilientAssigner::new(Lacb::new(cfg), rcfg);
    let mut engine = Engine::new(&spiked, core::platform(&spiked, plan), &mut assigner);
    engine.truncate(Some(stop_after_day + 1));
    let Ok(()) = engine.run(&mut ());
    Ok(engine.checkpoint())
}

/// Restore a checkpoint and finish the horizon. The returned metrics
/// span the *whole* run — pre-checkpoint days come from the restored
/// accumulators — so they are directly comparable with an uninterrupted
/// [`crate::resilient::run_chaos`].
pub fn resume_chaos(
    dataset: &Dataset,
    ckpt: &Checkpoint,
    cfg: LacbConfig,
    rcfg: ResilienceConfig,
    plan: FaultPlan,
) -> Result<RunMetrics, CheckpointError> {
    let spiked = dataset.with_batch_spikes(&plan);
    let mut platform = core::platform(&spiked, plan);
    let Restored { matcher, ledger, progress, pending_feedback, stats, .. } =
        ckpt.restore(cfg, &mut platform)?;
    let mut assigner = ResilientAssigner::new(matcher, rcfg);
    assigner.restore_channel(pending_feedback, stats);
    let mut engine = Engine::new(&spiked, platform, &mut assigner);
    engine.ledger = ledger;
    engine.progress = progress;
    Ok(engine.serve())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resilient::run_chaos;
    use crate::runner::RunConfig;
    use crate::testkit::{assert_bit_identical, chaos_plan, dataset};
    use platform_sim::SyntheticConfig;

    #[test]
    fn checkpoint_restore_resume_matches_uninterrupted_run_exactly() {
        let ds = dataset(41);
        let plan = chaos_plan(17);
        let cfg = LacbConfig::default();
        let mut direct =
            ResilientAssigner::new(Lacb::new(cfg.clone()), ResilienceConfig::default());
        let uninterrupted = run_chaos(&ds, &mut direct, &RunConfig::default(), plan);

        let ckpt = run_chaos_until(&ds, cfg.clone(), ResilienceConfig::default(), plan, 1).unwrap();
        // Round-trip through text to prove the serialised form suffices.
        let reloaded = Checkpoint::from_text(ckpt.as_text()).unwrap();
        let resumed = resume_chaos(&ds, &reloaded, cfg, ResilienceConfig::default(), plan).unwrap();

        // Degradation counters ride `resilience`: they must survive the
        // restore too.
        assert_bit_identical(&resumed, &uninterrupted);
    }

    #[test]
    fn checkpoint_file_roundtrip() {
        let ds = dataset(43);
        let plan = chaos_plan(19);
        let ckpt =
            run_chaos_until(&ds, LacbConfig::default(), ResilienceConfig::default(), plan, 0)
                .unwrap();
        let dir = std::env::temp_dir().join("caam-ckpt-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.ckpt");
        ckpt.save(&path).unwrap();
        let loaded = Checkpoint::load(&path).unwrap();
        assert_eq!(loaded.as_text(), ckpt.as_text());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn version_skew_is_rejected() {
        let err = Checkpoint::from_text("caam-ckpt v0\nnext-day 1\n").unwrap_err();
        assert_eq!(err, CheckpointError::VersionSkew { found: "caam-ckpt v0".into() });
    }

    #[test]
    fn v2_container_roundtrips_to_the_same_payload() {
        let ds = dataset(53);
        let plan = chaos_plan(29);
        let ckpt =
            run_chaos_until(&ds, LacbConfig::default(), ResilienceConfig::default(), plan, 0)
                .unwrap();
        let v2 = ckpt.to_v2_text();
        assert!(v2.starts_with(durability::V2_HEADER));
        // Every marker section must be present and the reassembled v1
        // payload must match byte for byte.
        for name in ["progress", "platform", "ledger", "stats", "feedback", "matcher"] {
            assert!(v2.contains(&format!("section {name} ")), "missing section {name}");
        }
        let back = Checkpoint::from_text(&v2).unwrap();
        assert_eq!(back.as_text(), ckpt.as_text());
    }

    #[test]
    fn legacy_v1_files_still_load() {
        let ds = dataset(59);
        let plan = chaos_plan(31);
        let cfg = LacbConfig::default();
        let ckpt = run_chaos_until(&ds, cfg.clone(), ResilienceConfig::default(), plan, 0).unwrap();
        let dir = std::env::temp_dir().join("caam-ckpt-v1-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("legacy.ckpt");
        // A pre-v2 build wrote the bare payload with std::fs::write.
        std::fs::write(&path, ckpt.as_text()).unwrap();
        let loaded = Checkpoint::load(&path).unwrap();
        assert_eq!(loaded.as_text(), ckpt.as_text());
        let spiked = ds.with_batch_spikes(&plan);
        let mut p = Platform::from_dataset(&spiked);
        p.enable_faults(plan);
        assert!(loaded.restore(cfg, &mut p).is_ok());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn v2_corruption_is_a_typed_corrupt_error() {
        let ds = dataset(61);
        let plan = chaos_plan(37);
        let ckpt =
            run_chaos_until(&ds, LacbConfig::default(), ResilienceConfig::default(), plan, 0)
                .unwrap();
        let v2 = ckpt.to_v2_text();
        // Flip one payload byte: checksums must catch it.
        let mut bytes = v2.clone().into_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        let flipped = String::from_utf8(bytes).unwrap();
        match Checkpoint::from_text(&flipped) {
            Err(CheckpointError::Corrupt(_)) => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }
        // Truncate at a line boundary: the footer check must catch it.
        let cut: String = v2.lines().take(8).map(|l| format!("{l}\n")).collect();
        assert!(matches!(Checkpoint::from_text(&cut), Err(CheckpointError::Corrupt(_))));
    }

    #[test]
    fn io_errors_preserve_the_os_error_kind() {
        let missing = Path::new("/definitely/not/here/ckpt.caam");
        match Checkpoint::load(missing) {
            Err(CheckpointError::Io { kind, path, .. }) => {
                assert_eq!(kind, std::io::ErrorKind::NotFound);
                assert!(path.contains("ckpt.caam"));
            }
            other => panic!("expected Io with NotFound, got {other:?}"),
        }
    }

    #[test]
    fn save_is_atomic_over_an_existing_checkpoint() {
        let ds = dataset(67);
        let plan = chaos_plan(41);
        let a = run_chaos_until(&ds, LacbConfig::default(), ResilienceConfig::default(), plan, 0)
            .unwrap();
        let b = run_chaos_until(&ds, LacbConfig::default(), ResilienceConfig::default(), plan, 1)
            .unwrap();
        let dir = std::env::temp_dir().join("caam-ckpt-atomic-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("atomic.ckpt");
        a.save(&path).unwrap();
        b.save(&path).unwrap();
        assert_eq!(Checkpoint::load(&path).unwrap().as_text(), b.as_text());
        // No stale tmp file left behind by the rename path.
        assert!(!path.with_file_name("atomic.ckpt.tmp").exists());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupted_payloads_are_rejected() {
        let ds = dataset(47);
        let plan = chaos_plan(23);
        let cfg = LacbConfig::default();
        let ckpt = run_chaos_until(&ds, cfg.clone(), ResilienceConfig::default(), plan, 0).unwrap();
        let spiked = ds.with_batch_spikes(&plan);

        // Truncation.
        let cut: String = ckpt.as_text().lines().take(10).map(|l| format!("{l}\n")).collect();
        let mut p = Platform::from_dataset(&spiked);
        let err = Checkpoint::from_text(&cut).unwrap().restore(cfg.clone(), &mut p);
        assert!(err.is_err(), "truncated checkpoint must fail");

        // NaN in a learned value.
        let line =
            ckpt.as_text().lines().find(|l| l.starts_with("lacb-capacities")).unwrap().to_string();
        let poisoned = ckpt.as_text().replace(&line, "lacb-capacities NaN");
        let mut p = Platform::from_dataset(&spiked);
        let err = Checkpoint::from_text(&poisoned).unwrap().restore(cfg.clone(), &mut p);
        assert!(err.is_err(), "NaN capacities must fail");

        // Broker-count mismatch: restore against a smaller platform.
        let small = Dataset::synthetic(&SyntheticConfig {
            num_brokers: 10,
            num_requests: 100,
            days: 2,
            imbalance: 0.2,
            seed: 1,
        });
        let mut p = Platform::from_dataset(&small);
        let err = Checkpoint::from_text(ckpt.as_text()).unwrap().restore(cfg, &mut p);
        assert!(err.is_err(), "broker-count mismatch must fail");
    }
}
