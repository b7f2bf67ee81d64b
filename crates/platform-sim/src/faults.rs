//! Seeded fault injection for serving-layer chaos experiments.
//!
//! Production matching platforms fail in mundane ways: brokers log off
//! mid-day, the feedback pipeline drops or delays a day's trials, an
//! upstream feature service emits NaN utilities, a marketing push
//! spikes a batch to several times its normal size. [`FaultPlan`]
//! models these as *pure functions of a seed* — every query is a
//! splitmix hash of `(seed, kind, day, batch, broker)`, so a plan
//! carries no mutable state, two plans with the same config agree
//! forever, and a checkpoint/restore cycle needs nothing beyond the
//! config itself to replay the exact fault schedule.
//!
//! The plan is consulted from two sides:
//! * [`crate::Platform`] (once faults are enabled) applies broker
//!   outages and utility corruption to what algorithms observe and
//!   execute.
//! * The resilient runner applies feedback loss/delay when delivering
//!   end-of-day trials, and batch spikes when shaping the dataset via
//!   [`crate::Dataset::with_batch_spikes`].

/// The kinds of fault the plan can inject. Used as the hash domain
/// separator and for reporting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Broker offline for an entire day.
    DayDropout,
    /// Broker drops out partway through a day and stays down.
    MidDayDropout,
    /// End-of-day feedback delivery attempt fails.
    FeedbackLoss,
    /// End-of-day feedback arrives one day late.
    FeedbackDelay,
    /// Algorithm-visible utility entries corrupted to NaN/±∞/huge.
    UtilityCorruption,
    /// Several consecutive batches collapse into one oversized batch.
    BatchSpike,
    /// A learned-state word is damaged in place (bit flip in the
    /// sign/exponent range, NaN write, or overflow write) — the silent
    /// corruption the invariant auditor exists to catch.
    StateCorruption,
    /// A batch is delivered twice: the duplicate is re-presented to the
    /// assigner after the original was executed (at-least-once delivery
    /// semantics upstream).
    BatchReplay,
}

impl FaultKind {
    fn tag(self) -> u64 {
        match self {
            FaultKind::DayDropout => 1,
            FaultKind::MidDayDropout => 2,
            FaultKind::FeedbackLoss => 3,
            FaultKind::FeedbackDelay => 4,
            FaultKind::UtilityCorruption => 5,
            FaultKind::BatchSpike => 6,
            FaultKind::StateCorruption => 7,
            FaultKind::BatchReplay => 8,
        }
    }
}

/// Which piece of learned state a [`StateFault`] damages.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StateTarget {
    /// One broker's learned capacity estimate (broker-scoped).
    Capacity,
    /// One broker's per-arm reward statistics (broker-scoped).
    ArmStats,
    /// One entry of the shared value table `V(cr)` (unscoped).
    ValueTable,
    /// One lane of the bandit covariance state (unscoped).
    Covariance,
    /// The matcher's warm-start dual potentials (unscoped).
    Duals,
}

/// How a [`StateFault`] damages its target word.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StateFaultKind {
    /// XOR one high-order bit of the f64 — `bit` is in `52..=63`
    /// (sign/exponent), so the damage is large enough for an invariant
    /// to see rather than vanishing into mantissa noise.
    BitFlip {
        /// Which bit to flip.
        bit: u32,
    },
    /// Overwrite the word with NaN.
    NanWrite,
    /// Overwrite the word with an absurd overflow-scale magnitude.
    OverflowWrite,
}

/// One seeded state-corruption event: what to damage, how, and where.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StateFault {
    /// The state family hit.
    pub target: StateTarget,
    /// The damage applied.
    pub kind: StateFaultKind,
    /// Broker hit by a broker-scoped target (meaningless but stable
    /// for unscoped targets).
    pub broker: usize,
    /// Secondary index selecting the exact word (arm, table entry,
    /// covariance lane…); consumers reduce it modulo their extent.
    pub lane: u64,
}

impl StateFault {
    /// `Some(broker)` when the fault damages exactly one broker's
    /// state, `None` for shared (unscoped) state.
    pub fn scoped_broker(&self) -> Option<usize> {
        match self.target {
            StateTarget::Capacity | StateTarget::ArmStats => Some(self.broker),
            _ => None,
        }
    }
}

/// Per-fault probabilities. All default to zero (no faults); build via
/// a named [`FaultConfig::scenario`] or set fields directly.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultConfig {
    /// Seed of the fault schedule (independent of the dataset seed).
    pub seed: u64,
    /// Per-(broker, day) probability of a full-day outage.
    pub day_dropout: f64,
    /// Per-(broker, day) probability of a mid-day dropout; the drop
    /// batch is drawn from the first [`MID_DAY_WINDOW`] batches.
    pub mid_day_dropout: f64,
    /// Per-(day, attempt) probability that a feedback delivery fails.
    pub feedback_loss: f64,
    /// Per-day probability that feedback is delayed to the next day.
    pub feedback_delay: f64,
    /// Per-batch probability that the utility matrix is corrupted.
    pub utility_corruption: f64,
    /// Fraction of entries corrupted within an affected batch.
    pub corruption_density: f64,
    /// Per-batch probability of a demand spike starting at that batch.
    pub batch_spike: f64,
    /// How many consecutive batches a spike merges (≥ 2 to have any
    /// effect).
    pub spike_span: usize,
    /// Per-batch probability that one learned-state word is damaged
    /// after the batch is applied (bit flip / NaN / overflow write).
    pub state_corruption: f64,
    /// Per-batch probability that the batch is delivered a second time
    /// after execution (duplicate/replayed delivery).
    pub batch_replay: f64,
}

/// Mid-day dropouts happen within the first this-many batches of a day.
pub const MID_DAY_WINDOW: u64 = 12;

impl Default for FaultConfig {
    fn default() -> Self {
        Self {
            seed: 0,
            day_dropout: 0.0,
            mid_day_dropout: 0.0,
            feedback_loss: 0.0,
            feedback_delay: 0.0,
            utility_corruption: 0.0,
            corruption_density: 0.0,
            batch_spike: 0.0,
            spike_span: 3,
            state_corruption: 0.0,
            batch_replay: 0.0,
        }
    }
}

/// Names accepted by [`FaultConfig::scenario`], for CLI help text.
pub const SCENARIOS: &[&str] = &[
    "none",
    "broker-dropout",
    "lost-feedback",
    "broker-dropout+lost-feedback",
    "utility-corruption",
    "batch-spike",
    "full-chaos",
    "state-corruption",
    "soak",
];

/// Error returned by [`FaultConfig::scenario`] for an unknown name.
/// The display message lists every accepted scenario so a mistyped
/// CLI flag is self-correcting.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScenarioError {
    /// The name that failed to resolve.
    pub name: String,
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown fault scenario {:?}; known scenarios: {}",
            self.name,
            SCENARIOS.join(", ")
        )
    }
}

impl std::error::Error for ScenarioError {}

impl FaultConfig {
    /// A named fault scenario. Returns a [`ScenarioError`] listing the
    /// accepted names (see [`SCENARIOS`]) for unknown ones.
    pub fn scenario(name: &str, seed: u64) -> Result<FaultConfig, ScenarioError> {
        let base = FaultConfig { seed, ..FaultConfig::default() };
        Ok(match name {
            "none" => base,
            "broker-dropout" => FaultConfig { day_dropout: 0.10, mid_day_dropout: 0.10, ..base },
            "lost-feedback" => FaultConfig { feedback_loss: 0.35, feedback_delay: 0.20, ..base },
            "broker-dropout+lost-feedback" => FaultConfig {
                day_dropout: 0.10,
                mid_day_dropout: 0.10,
                feedback_loss: 0.35,
                feedback_delay: 0.20,
                ..base
            },
            "utility-corruption" => {
                FaultConfig { utility_corruption: 0.30, corruption_density: 0.05, ..base }
            }
            "batch-spike" => FaultConfig { batch_spike: 0.15, spike_span: 3, ..base },
            "full-chaos" => FaultConfig {
                day_dropout: 0.08,
                mid_day_dropout: 0.08,
                feedback_loss: 0.30,
                feedback_delay: 0.15,
                utility_corruption: 0.20,
                corruption_density: 0.05,
                batch_spike: 0.10,
                spike_span: 3,
                ..base
            },
            "state-corruption" => {
                FaultConfig { state_corruption: 0.25, batch_replay: 0.10, ..base }
            }
            // Every fault family at once — the soak harness default.
            "soak" => FaultConfig {
                day_dropout: 0.08,
                mid_day_dropout: 0.08,
                feedback_loss: 0.30,
                feedback_delay: 0.15,
                utility_corruption: 0.20,
                corruption_density: 0.05,
                batch_spike: 0.10,
                spike_span: 3,
                state_corruption: 0.20,
                batch_replay: 0.08,
                ..base
            },
            _ => return Err(ScenarioError { name: name.to_string() }),
        })
    }

    /// True if every fault probability is zero.
    pub fn is_quiet(&self) -> bool {
        self.day_dropout == 0.0
            && self.mid_day_dropout == 0.0
            && self.feedback_loss == 0.0
            && self.feedback_delay == 0.0
            && self.utility_corruption == 0.0
            && self.batch_spike == 0.0
            && self.state_corruption == 0.0
            && self.batch_replay == 0.0
    }
}

use crate::rng::splitmix64 as mix;

/// A stateless, seeded fault schedule (see module docs).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultPlan {
    cfg: FaultConfig,
}

impl FaultPlan {
    /// Wrap a config into a queryable plan.
    pub fn new(cfg: FaultConfig) -> Self {
        Self { cfg }
    }

    /// The underlying config.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    fn draw(&self, kind: FaultKind, day: u64, batch: u64, broker: u64) -> u64 {
        let key = self.cfg.seed.wrapping_mul(0x2545F4914F6CDD1D)
            ^ kind.tag() << 56
            ^ day << 40
            ^ batch << 20
            ^ broker;
        mix(key)
    }

    fn coin(&self, kind: FaultKind, day: u64, batch: u64, broker: u64, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        let h = self.draw(kind, day, batch, broker);
        ((h >> 11) as f64 / (1u64 << 53) as f64) < p
    }

    /// Is broker `b` offline at `(day, batch)`? Full-day outages cover
    /// every batch; mid-day dropouts start at a batch drawn from
    /// `1..=MID_DAY_WINDOW` and last through the end of the day.
    pub fn broker_offline(&self, day: usize, batch: usize, b: usize) -> bool {
        let (day, batch, b) = (day as u64, batch as u64, b as u64);
        if self.coin(FaultKind::DayDropout, day, 0, b, self.cfg.day_dropout) {
            return true;
        }
        if self.coin(FaultKind::MidDayDropout, day, 0, b, self.cfg.mid_day_dropout) {
            let from = 1 + self.draw(FaultKind::MidDayDropout, day, 1, b) % MID_DAY_WINDOW;
            return batch >= from;
        }
        false
    }

    /// Does the `attempt`-th delivery (0-based) of day `day`'s feedback
    /// fail? Independent per attempt, so retries eventually succeed.
    pub fn feedback_lost(&self, day: usize, attempt: usize) -> bool {
        self.coin(FaultKind::FeedbackLoss, day as u64, attempt as u64, 0, self.cfg.feedback_loss)
    }

    /// Is day `day`'s feedback delayed by one day?
    pub fn feedback_delayed(&self, day: usize) -> bool {
        self.coin(FaultKind::FeedbackDelay, day as u64, 0, 0, self.cfg.feedback_delay)
    }

    /// Corrupted value for the algorithm-visible utility entry
    /// `(request r, broker b)` of `(day, batch)`, or `None` if the
    /// entry is clean. The corrupted value cycles through NaN, +∞, −∞
    /// and an absurdly large finite score.
    pub fn corrupt_utility(&self, day: usize, batch: usize, r: usize, b: usize) -> Option<f64> {
        if !self.utilities_corrupted(day, batch) {
            return None;
        }
        self.corrupt_cell(day, batch, r, b)
    }

    /// The batch coin of [`Self::corrupt_utility`]: does utility
    /// corruption hit `(day, batch)` at all? It is keyed by the batch
    /// alone, so a utility fill draws it once and walks its cells only
    /// when it fires.
    pub fn utilities_corrupted(&self, day: usize, batch: usize) -> bool {
        let (day, batch) = (day as u64, batch as u64);
        self.coin(FaultKind::UtilityCorruption, day, batch, 0, self.cfg.utility_corruption)
    }

    /// The cell half of [`Self::corrupt_utility`], for a batch whose
    /// coin ([`Self::utilities_corrupted`]) fired.
    pub fn corrupt_cell(&self, day: usize, batch: usize, r: usize, b: usize) -> Option<f64> {
        let (day, batch) = (day as u64, batch as u64);
        // Entry-level coin keyed by both indices folded into one word.
        let cell = (r as u64) << 32 | (b as u64 & 0xFFFF_FFFF);
        if !self.coin(
            FaultKind::UtilityCorruption,
            day,
            batch,
            cell | 1 << 63,
            self.cfg.corruption_density,
        ) {
            return None;
        }
        let h = self.draw(FaultKind::UtilityCorruption, day, batch, cell);
        Some(match h % 4 {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            _ => 1.0e12,
        })
    }

    /// The state-corruption event for `(day, batch)`, if one fires.
    /// Applied by the serving loop *after* the batch commits, so the
    /// audits of the following batch are what must catch it. Pure
    /// function of the seed: a recovery replay re-derives the identical
    /// damage, which is what keeps bit-identical recovery meaningful
    /// under corruption.
    pub fn state_fault(&self, day: usize, batch: usize, num_brokers: usize) -> Option<StateFault> {
        if num_brokers == 0 {
            return None;
        }
        let (day, batch) = (day as u64, batch as u64);
        if !self.coin(FaultKind::StateCorruption, day, batch, 0, self.cfg.state_corruption) {
            return None;
        }
        let h = self.draw(FaultKind::StateCorruption, day, batch, 1);
        let target = match h % 5 {
            0 => StateTarget::Capacity,
            1 => StateTarget::ArmStats,
            2 => StateTarget::ValueTable,
            3 => StateTarget::Covariance,
            _ => StateTarget::Duals,
        };
        let hk = self.draw(FaultKind::StateCorruption, day, batch, 2);
        let kind = match hk % 3 {
            0 => StateFaultKind::BitFlip { bit: 52 + ((hk >> 8) % 12) as u32 },
            1 => StateFaultKind::NanWrite,
            _ => StateFaultKind::OverflowWrite,
        };
        let broker =
            (self.draw(FaultKind::StateCorruption, day, batch, 3) % num_brokers as u64) as usize;
        let lane = self.draw(FaultKind::StateCorruption, day, batch, 4);
        Some(StateFault { target, kind, broker, lane })
    }

    /// Is batch `(day, batch)` delivered a second time after execution?
    pub fn batch_replayed(&self, day: usize, batch: usize) -> bool {
        self.coin(FaultKind::BatchReplay, day as u64, batch as u64, 0, self.cfg.batch_replay)
    }

    /// Number of consecutive batches (including `batch` itself) that a
    /// spike starting at `(day, batch)` merges. `1` means no spike.
    pub fn batch_spike_span(&self, day: usize, batch: usize) -> usize {
        if self.coin(FaultKind::BatchSpike, day as u64, batch as u64, 0, self.cfg.batch_spike) {
            self.cfg.spike_span.max(1)
        } else {
            1
        }
    }
}

/// The kinds of damage the replication link can do to one frame. Used
/// as the hash domain separator of [`NetFaultPlan`] draws.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NetFaultKind {
    /// Frame silently lost.
    Drop,
    /// Frame delivered late (later frames may overtake it — reorder).
    Delay,
    /// Frame delivered twice, the copies at different times.
    Duplicate,
    /// Frame payload damaged in flight (a byte XORed).
    Corrupt,
    /// A contiguous window of sequence numbers all lost (link
    /// partition).
    Partition,
}

impl NetFaultKind {
    fn tag(self) -> u64 {
        match self {
            NetFaultKind::Drop => 9,
            NetFaultKind::Delay => 10,
            NetFaultKind::Duplicate => 11,
            NetFaultKind::Corrupt => 12,
            NetFaultKind::Partition => 13,
        }
    }
}

/// What the simulated network does with one frame — the pure-function
/// verdict of [`NetFaultPlan::delivery`] for an `(epoch, seq)` pair.
/// Delays are in link ticks (one tick per serving batch).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NetDelivery {
    /// Delivered after `delay` ticks (`0` = next tick, in order).
    Deliver {
        /// Extra ticks in flight; a positive delay lets later frames
        /// overtake this one (reorder).
        delay: u64,
    },
    /// Delivered twice: once after `first` ticks, again after `second`.
    DeliverTwice {
        /// Ticks in flight of the first copy.
        first: u64,
        /// Ticks in flight of the duplicate (≥ `first`).
        second: u64,
    },
    /// Delivered after `delay` ticks with one payload byte XORed by
    /// `mask` (non-zero, so the checksum must catch it).
    DeliverCorrupt {
        /// Ticks in flight.
        delay: u64,
        /// Damaged byte index; consumers reduce it modulo frame length.
        byte: u64,
        /// XOR mask applied to that byte (never zero).
        mask: u8,
    },
    /// Silently lost.
    Drop,
}

/// Per-frame probabilities of the replication-link fault model. All
/// default to zero (a perfect link); build via a named
/// [`NetFaultConfig::scenario`] or set fields directly.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NetFaultConfig {
    /// Seed of the link schedule (independent of dataset/fault seeds).
    pub seed: u64,
    /// Per-frame probability of silent loss.
    pub drop: f64,
    /// Per-frame probability of a delayed (reorderable) delivery.
    pub delay: f64,
    /// Maximum extra ticks a delayed frame spends in flight (≥ 1 to
    /// have any effect).
    pub max_delay: u64,
    /// Per-frame probability of duplicate delivery.
    pub duplicate: f64,
    /// Per-frame probability of in-flight payload corruption.
    pub corrupt: f64,
    /// Per-window probability that a partition eats the window's first
    /// `partition_span` sequence numbers.
    pub partition: f64,
    /// Length of a partition window in sequence numbers (0 disables
    /// partitions entirely).
    pub partition_every: u64,
    /// How many consecutive sequence numbers a firing partition drops.
    pub partition_span: u64,
}

impl Default for NetFaultConfig {
    fn default() -> Self {
        Self {
            seed: 0,
            drop: 0.0,
            delay: 0.0,
            max_delay: 3,
            duplicate: 0.0,
            corrupt: 0.0,
            partition: 0.0,
            partition_every: 0,
            partition_span: 4,
        }
    }
}

/// Names accepted by [`NetFaultConfig::scenario`], for CLI help text.
pub const NET_SCENARIOS: &[&str] = &["none", "lossy", "partition", "net-chaos"];

impl NetFaultConfig {
    /// A named link-fault scenario. Returns a [`ScenarioError`] listing
    /// the accepted names (see [`NET_SCENARIOS`]) for unknown ones.
    pub fn scenario(name: &str, seed: u64) -> Result<NetFaultConfig, ScenarioError> {
        let base = NetFaultConfig { seed, ..NetFaultConfig::default() };
        Ok(match name {
            "none" => base,
            "lossy" => NetFaultConfig {
                drop: 0.05,
                delay: 0.20,
                max_delay: 3,
                duplicate: 0.08,
                corrupt: 0.04,
                ..base
            },
            "partition" => NetFaultConfig {
                delay: 0.10,
                partition: 0.30,
                partition_every: 16,
                partition_span: 5,
                ..base
            },
            "net-chaos" => NetFaultConfig {
                drop: 0.05,
                delay: 0.20,
                max_delay: 4,
                duplicate: 0.08,
                corrupt: 0.05,
                partition: 0.20,
                partition_every: 24,
                partition_span: 4,
                ..base
            },
            _ => return Err(ScenarioError { name: name.to_string() }),
        })
    }

    /// True if every link-fault probability is zero.
    pub fn is_quiet(&self) -> bool {
        self.drop == 0.0
            && self.delay == 0.0
            && self.duplicate == 0.0
            && self.corrupt == 0.0
            && (self.partition == 0.0 || self.partition_every == 0)
    }
}

/// A stateless, seeded replication-link fault schedule. Exactly like
/// [`FaultPlan`], every verdict is a pure splitmix hash — here of
/// `(seed, kind, epoch, seq)` — so the primary, the follower, and a
/// human replaying the harness all agree on what the wire did, and a
/// resumed run re-derives the identical delivery history.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NetFaultPlan {
    cfg: NetFaultConfig,
}

impl NetFaultPlan {
    /// Wrap a config into a queryable plan.
    pub fn new(cfg: NetFaultConfig) -> Self {
        Self { cfg }
    }

    /// The underlying config.
    pub fn config(&self) -> &NetFaultConfig {
        &self.cfg
    }

    fn draw(&self, kind: NetFaultKind, epoch: u64, seq: u64, salt: u64) -> u64 {
        let key = self.cfg.seed.wrapping_mul(0x2545F4914F6CDD1D)
            ^ kind.tag() << 56
            ^ epoch << 44
            ^ seq << 8
            ^ salt;
        mix(key)
    }

    fn coin(&self, kind: NetFaultKind, epoch: u64, seq: u64, salt: u64, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        let h = self.draw(kind, epoch, seq, salt);
        ((h >> 11) as f64 / (1u64 << 53) as f64) < p
    }

    /// Is the wire partitioned at link tick `tick`? Windows tile the
    /// tick axis per epoch; a firing window eats its first
    /// `partition_span` ticks, so a partition is a *contiguous outage
    /// in time* — every frame sent during it (first transmissions and
    /// retransmissions alike) is lost, exactly like a cable cut, and
    /// the outage heals on its own once the window passes.
    pub fn partitioned(&self, epoch: u64, tick: u64) -> bool {
        if self.cfg.partition <= 0.0 || self.cfg.partition_every == 0 {
            return false;
        }
        let window = tick / self.cfg.partition_every;
        self.coin(NetFaultKind::Partition, epoch, window, 0, self.cfg.partition)
            && tick % self.cfg.partition_every < self.cfg.partition_span
    }

    /// The link's verdict for the `attempt`-th transmission (0-based)
    /// of frame `(epoch, seq)`. Pure function of the seed; attempts
    /// draw independently, so a retransmitted frame eventually gets
    /// through any sub-certain loss rate. Partitions are a separate,
    /// tick-keyed condition ([`NetFaultPlan::partitioned`]) the sender
    /// checks first. seq 0 attempt 0 (the first `day-start`) is always
    /// delivered clean — a link that eats the very first frame is
    /// indistinguishable from a dead follower and tests nothing about
    /// replication.
    pub fn delivery(&self, epoch: u64, seq: u64, attempt: u64) -> NetDelivery {
        if seq == 0 && attempt == 0 {
            return NetDelivery::Deliver { delay: 0 };
        }
        let salt = |k: u64| (attempt << 3) | k;
        if self.coin(NetFaultKind::Drop, epoch, seq, salt(0), self.cfg.drop) {
            return NetDelivery::Drop;
        }
        if self.coin(NetFaultKind::Corrupt, epoch, seq, salt(0), self.cfg.corrupt) {
            let h = self.draw(NetFaultKind::Corrupt, epoch, seq, salt(1));
            let delay = h % (self.cfg.max_delay.max(1) + 1);
            let byte = self.draw(NetFaultKind::Corrupt, epoch, seq, salt(2));
            let mask = ((self.draw(NetFaultKind::Corrupt, epoch, seq, salt(3)) % 255) + 1) as u8;
            return NetDelivery::DeliverCorrupt { delay, byte, mask };
        }
        if self.coin(NetFaultKind::Duplicate, epoch, seq, salt(0), self.cfg.duplicate) {
            let h = self.draw(NetFaultKind::Duplicate, epoch, seq, salt(1));
            let first = h % (self.cfg.max_delay.max(1) + 1);
            let second = first + 1 + (self.draw(NetFaultKind::Duplicate, epoch, seq, salt(2)) % 3);
            return NetDelivery::DeliverTwice { first, second };
        }
        if self.coin(NetFaultKind::Delay, epoch, seq, salt(0), self.cfg.delay) {
            let h = self.draw(NetFaultKind::Delay, epoch, seq, salt(1));
            return NetDelivery::Deliver { delay: 1 + h % self.cfg.max_delay.max(1) };
        }
        NetDelivery::Deliver { delay: 0 }
    }
}

/// A seeded place for the failover harness to kill the *primary* while
/// a follower is replicating. Each variant names a distinct window in
/// the primary's shipping loop, and what the follower sees differs for
/// each:
///
/// * [`KillPoint::AfterBatch`] — the batch's frame was shipped whole;
///   the follower's watermark can reach it before takeover.
/// * [`KillPoint::MidFrame`] — the primary dies halfway through
///   writing the frame onto the wire; the follower receives a torn
///   line whose checksum must reject it.
/// * [`KillPoint::BeforeDayEnd`] — every batch of the day shipped but
///   the `day-end` record did not; the follower takes over mid-day.
/// * [`KillPoint::MidCheckpoint`] — the primary dies inside its
///   end-of-day checkpoint write: `day-end` shipped, the checkpoint
///   marker did not, and a torn checkpoint tmp file is left on the
///   primary's disk.
/// * [`KillPoint::AfterCheckpoint`] — the cleanest boundary: the
///   checkpoint marker shipped and the primary died between days.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KillPoint {
    /// Die right after shipping batch `(day, batch)`'s frame.
    AfterBatch {
        /// Day of the last shipped batch.
        day: usize,
        /// Batch index of the last shipped batch.
        batch: usize,
    },
    /// Die halfway through shipping batch `(day, batch)`'s frame.
    MidFrame {
        /// Day of the torn frame.
        day: usize,
        /// Batch index of the torn frame.
        batch: usize,
    },
    /// Die after day `day`'s last batch, before shipping `day-end`.
    BeforeDayEnd {
        /// The day left without its `day-end` record.
        day: usize,
    },
    /// Die during day `day`'s end-of-day checkpoint write.
    MidCheckpoint {
        /// The day whose checkpoint is torn.
        day: usize,
    },
    /// Die right after day `day`'s checkpoint marker is shipped.
    AfterCheckpoint {
        /// The last completed day.
        day: usize,
    },
}

impl KillPoint {
    /// Short label for harness output.
    pub fn label(&self) -> String {
        match self {
            KillPoint::AfterBatch { day, batch } => format!("after-batch d{day} b{batch}"),
            KillPoint::MidFrame { day, batch } => format!("mid-frame d{day} b{batch}"),
            KillPoint::BeforeDayEnd { day } => format!("before-day-end d{day}"),
            KillPoint::MidCheckpoint { day } => format!("mid-checkpoint d{day}"),
            KillPoint::AfterCheckpoint { day } => format!("after-checkpoint d{day}"),
        }
    }
}

/// Derive `n` distinct seeded kill points for a horizon whose day `d`
/// has `batches_per_day[d]` batches. Pure function of the seed, cycling
/// all five [`KillPoint`] variants exactly like [`seeded_schedule`]
/// cycles crash points, so any `n ≥ 5` exercises every takeover window
/// including mid-frame and mid-checkpoint.
pub fn seeded_kill_schedule(seed: u64, batches_per_day: &[usize], n: usize) -> Vec<KillPoint> {
    assert!(!batches_per_day.is_empty(), "horizon must have at least one day");
    let days = batches_per_day.len() as u64;
    let mut points: Vec<KillPoint> = Vec::with_capacity(n);
    for i in 0..n {
        // Re-salt until this draw lands on a point not already chosen,
        // so the schedule always holds `n` *distinct* kill points.
        let mut salt = 0u64;
        loop {
            let h = mix(seed.wrapping_mul(0xA24BAED4963EE407) ^ (i as u64) << 32 ^ salt);
            let day = (h % days) as usize;
            let batches = batches_per_day[day].max(1) as u64;
            let batch = (mix(h) % batches) as usize;
            let point = match i % 5 {
                0 => KillPoint::AfterBatch { day, batch },
                1 => KillPoint::MidFrame { day, batch },
                2 => KillPoint::BeforeDayEnd { day },
                3 => KillPoint::MidCheckpoint { day },
                _ => KillPoint::AfterCheckpoint { day },
            };
            if !points.contains(&point) {
                points.push(point);
                break;
            }
            salt += 1;
        }
    }
    points
}

/// A seeded place for the crash-test supervisor to kill the process.
///
/// Each variant names a distinct window in the serving loop where a
/// real crash (OOM kill, power cut, deploy restart) could land, and the
/// recovery path it exercises differs for each:
///
/// * [`CrashPoint::AfterBatch`] — the batch was executed and its WAL
///   record is durable; recovery must *replay* it, not re-execute
///   against fresh randomness.
/// * [`CrashPoint::DuringWalAppend`] — the append itself is torn;
///   recovery must truncate the half-written record and re-execute the
///   batch live.
/// * [`CrashPoint::BeforeCheckpoint`] — the day completed (feedback
///   applied, `day-end` logged) but no checkpoint was cut; recovery
///   restores an older boundary and replays the whole day.
/// * [`CrashPoint::DuringCheckpointWrite`] — the checkpoint tmp file is
///   torn mid-write; restore must skip it and fall back.
/// * [`CrashPoint::BeforeCheckpointRename`] — the tmp file is complete
///   but never renamed; same fallback, different artifact on disk.
/// * [`CrashPoint::AfterAdmission`] — the admission decision for batch
///   `(day, batch)` is WAL-logged but the batch itself was never
///   applied; recovery must honor the logged admission verbatim so no
///   admitted request is silently lost or double-assigned. Only the
///   overload-durable loop has this window, so [`seeded_schedule`]
///   does not cycle it (a plain `caam crash-test` run would report it
///   as never firing).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CrashPoint {
    /// Crash after batch `(day, batch)` is applied and logged.
    AfterBatch { day: usize, batch: usize },
    /// Crash after batch `(day, batch)`'s admission record is logged,
    /// before the admitted sub-batch is applied.
    AfterAdmission { day: usize, batch: usize },
    /// Crash halfway through appending batch `(day, batch)`'s WAL record.
    DuringWalAppend { day: usize, batch: usize },
    /// Crash after day `day` completes, before its checkpoint starts.
    BeforeCheckpoint { day: usize },
    /// Crash halfway through writing day `day`'s checkpoint tmp file.
    DuringCheckpointWrite { day: usize },
    /// Crash after day `day`'s checkpoint tmp file is written, before rename.
    BeforeCheckpointRename { day: usize },
}

impl CrashPoint {
    /// Short label for harness output.
    pub fn label(&self) -> String {
        match self {
            CrashPoint::AfterBatch { day, batch } => format!("after-batch d{day} b{batch}"),
            CrashPoint::AfterAdmission { day, batch } => {
                format!("after-admission d{day} b{batch}")
            }
            CrashPoint::DuringWalAppend { day, batch } => {
                format!("during-wal-append d{day} b{batch}")
            }
            CrashPoint::BeforeCheckpoint { day } => format!("before-checkpoint d{day}"),
            CrashPoint::DuringCheckpointWrite { day } => format!("during-checkpoint-write d{day}"),
            CrashPoint::BeforeCheckpointRename { day } => {
                format!("before-checkpoint-rename d{day}")
            }
        }
    }
}

/// Derive `n` distinct seeded crash points for a horizon whose day `d`
/// has `batches_per_day[d]` batches. Pure function of the seed: the
/// harness and a human re-running it always agree on the schedule.
///
/// The five [`CrashPoint`] variants are cycled so any `n ≥ 5` covers
/// every recovery path, including crashes during a checkpoint write and
/// during a WAL append; days and batches are drawn by splitmix hash.
pub fn seeded_schedule(seed: u64, batches_per_day: &[usize], n: usize) -> Vec<CrashPoint> {
    assert!(!batches_per_day.is_empty(), "horizon must have at least one day");
    let days = batches_per_day.len() as u64;
    let mut points: Vec<CrashPoint> = Vec::with_capacity(n);
    for i in 0..n {
        // Re-salt until this draw lands on a point not already chosen,
        // so the schedule always holds `n` *distinct* crash points.
        let mut salt = 0u64;
        loop {
            let h = mix(seed.wrapping_mul(0x9E3779B97F4A7C15) ^ (i as u64) << 32 ^ salt);
            let day = (h % days) as usize;
            let batches = batches_per_day[day].max(1) as u64;
            let batch = (mix(h) % batches) as usize;
            let point = match i % 5 {
                0 => CrashPoint::AfterBatch { day, batch },
                1 => CrashPoint::DuringWalAppend { day, batch },
                2 => CrashPoint::BeforeCheckpoint { day },
                3 => CrashPoint::DuringCheckpointWrite { day },
                _ => CrashPoint::BeforeCheckpointRename { day },
            };
            if !points.contains(&point) {
                points.push(point);
                break;
            }
            salt += 1;
        }
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(seed: u64) -> FaultPlan {
        FaultPlan::new(FaultConfig::scenario("full-chaos", seed).unwrap())
    }

    #[test]
    fn plans_are_pure_functions_of_the_seed() {
        let (a, b) = (plan(7), plan(7));
        for day in 0..30 {
            for broker in 0..50 {
                for batch in 0..20 {
                    assert_eq!(
                        a.broker_offline(day, batch, broker),
                        b.broker_offline(day, batch, broker)
                    );
                }
            }
            assert_eq!(a.feedback_lost(day, 0), b.feedback_lost(day, 0));
            assert_eq!(a.batch_spike_span(day, 3), b.batch_spike_span(day, 3));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let (a, b) = (plan(7), plan(8));
        let mut differs = false;
        for day in 0..50 {
            for broker in 0..50 {
                if a.broker_offline(day, 0, broker) != b.broker_offline(day, 0, broker) {
                    differs = true;
                }
            }
        }
        assert!(differs, "two seeds produced identical dropout schedules");
    }

    #[test]
    fn dropout_rate_tracks_probability() {
        let p = FaultPlan::new(FaultConfig { seed: 3, day_dropout: 0.2, ..FaultConfig::default() });
        let mut down = 0usize;
        let total = 200 * 40;
        for day in 0..200 {
            for broker in 0..40 {
                if p.broker_offline(day, 0, broker) {
                    down += 1;
                }
            }
        }
        let rate = down as f64 / total as f64;
        assert!((rate - 0.2).abs() < 0.03, "empirical dropout rate {rate}");
    }

    #[test]
    fn mid_day_dropout_is_monotone_within_a_day() {
        // Once a broker goes down mid-day it must stay down.
        let p = FaultPlan::new(FaultConfig {
            seed: 11,
            mid_day_dropout: 0.5,
            ..FaultConfig::default()
        });
        for day in 0..50 {
            for broker in 0..20 {
                let mut was_down = false;
                for batch in 0..30 {
                    let down = p.broker_offline(day, batch, broker);
                    assert!(down || !was_down, "broker came back mid-day");
                    was_down = down;
                }
            }
        }
    }

    #[test]
    fn feedback_loss_is_per_attempt() {
        let p =
            FaultPlan::new(FaultConfig { seed: 5, feedback_loss: 0.5, ..FaultConfig::default() });
        // With 50% loss per attempt, some day must succeed by attempt 20.
        for day in 0..10 {
            let ok = (0..20).any(|attempt| !p.feedback_lost(day, attempt));
            assert!(ok, "day {day} lost all 20 attempts at p=0.5");
        }
    }

    #[test]
    fn corruption_yields_nonfinite_and_huge_values() {
        let p = FaultPlan::new(FaultConfig {
            seed: 9,
            utility_corruption: 1.0,
            corruption_density: 1.0,
            ..FaultConfig::default()
        });
        let (mut nan, mut inf, mut huge) = (0, 0, 0);
        for r in 0..20 {
            for b in 0..20 {
                match p.corrupt_utility(0, 0, r, b) {
                    Some(v) if v.is_nan() => nan += 1,
                    Some(v) if v.is_infinite() => inf += 1,
                    Some(_) => huge += 1,
                    None => panic!("density 1.0 must corrupt every entry"),
                }
            }
        }
        assert!(nan > 0 && inf > 0 && huge > 0, "nan={nan} inf={inf} huge={huge}");
    }

    #[test]
    fn crash_schedule_is_deterministic_and_distinct() {
        let batches = vec![10, 10, 8];
        let a = seeded_schedule(29, &batches, 12);
        let b = seeded_schedule(29, &batches, 12);
        assert_eq!(a, b);
        assert_eq!(a.len(), 12);
        for (i, p) in a.iter().enumerate() {
            assert!(!a[..i].contains(p), "duplicate crash point {p:?}");
        }
        assert_ne!(a, seeded_schedule(30, &batches, 12));
    }

    #[test]
    fn crash_schedule_covers_every_variant() {
        let pts = seeded_schedule(7, &[6, 6], 10);
        let has = |f: fn(&CrashPoint) -> bool| pts.iter().any(f);
        assert!(has(|p| matches!(p, CrashPoint::AfterBatch { .. })));
        assert!(has(|p| matches!(p, CrashPoint::DuringWalAppend { .. })));
        assert!(has(|p| matches!(p, CrashPoint::BeforeCheckpoint { .. })));
        assert!(has(|p| matches!(p, CrashPoint::DuringCheckpointWrite { .. })));
        assert!(has(|p| matches!(p, CrashPoint::BeforeCheckpointRename { .. })));
    }

    #[test]
    fn crash_schedule_stays_inside_the_horizon() {
        let batches = vec![4, 9, 2, 7];
        for p in seeded_schedule(41, &batches, 20) {
            match p {
                CrashPoint::AfterBatch { day, batch }
                | CrashPoint::AfterAdmission { day, batch }
                | CrashPoint::DuringWalAppend { day, batch } => {
                    assert!(day < batches.len());
                    assert!(batch < batches[day]);
                }
                CrashPoint::BeforeCheckpoint { day }
                | CrashPoint::DuringCheckpointWrite { day }
                | CrashPoint::BeforeCheckpointRename { day } => assert!(day < batches.len()),
            }
        }
    }

    #[test]
    fn state_faults_are_pure_and_cover_targets_and_kinds() {
        let p =
            FaultPlan::new(FaultConfig { seed: 17, state_corruption: 1.0, ..Default::default() });
        let q =
            FaultPlan::new(FaultConfig { seed: 17, state_corruption: 1.0, ..Default::default() });
        let mut targets = std::collections::HashSet::new();
        let mut kinds = std::collections::HashSet::new();
        for day in 0..20 {
            for batch in 0..20 {
                let f = p.state_fault(day, batch, 12).expect("p=1 must fire");
                assert_eq!(Some(f), q.state_fault(day, batch, 12), "plans must agree");
                assert!(f.broker < 12);
                if let StateFaultKind::BitFlip { bit } = f.kind {
                    assert!((52..=63).contains(&bit), "bit {bit} outside sign/exponent range");
                }
                targets.insert(format!("{:?}", f.target));
                kinds.insert(match f.kind {
                    StateFaultKind::BitFlip { .. } => "flip",
                    StateFaultKind::NanWrite => "nan",
                    StateFaultKind::OverflowWrite => "overflow",
                });
            }
        }
        assert_eq!(targets.len(), 5, "all five targets drawn: {targets:?}");
        assert_eq!(kinds.len(), 3, "all three kinds drawn: {kinds:?}");
    }

    #[test]
    fn state_fault_scoping_matches_target() {
        let p =
            FaultPlan::new(FaultConfig { seed: 3, state_corruption: 1.0, ..Default::default() });
        for day in 0..30 {
            let f = p.state_fault(day, 0, 8).unwrap();
            match f.target {
                StateTarget::Capacity | StateTarget::ArmStats => {
                    assert_eq!(f.scoped_broker(), Some(f.broker))
                }
                _ => assert_eq!(f.scoped_broker(), None),
            }
        }
    }

    #[test]
    fn state_faults_and_replay_are_off_by_default() {
        let p = FaultPlan::new(FaultConfig { seed: 99, ..Default::default() });
        for day in 0..50 {
            for batch in 0..10 {
                assert_eq!(p.state_fault(day, batch, 20), None);
                assert!(!p.batch_replayed(day, batch));
            }
        }
        assert_eq!(p.state_fault(0, 0, 0), None, "no brokers, no fault");
    }

    #[test]
    fn batch_replay_rate_tracks_probability() {
        let p = FaultPlan::new(FaultConfig { seed: 4, batch_replay: 0.3, ..Default::default() });
        let mut hits = 0usize;
        let total = 200 * 20;
        for day in 0..200 {
            for batch in 0..20 {
                if p.batch_replayed(day, batch) {
                    hits += 1;
                }
            }
        }
        let rate = hits as f64 / total as f64;
        assert!((rate - 0.3).abs() < 0.03, "empirical replay rate {rate}");
    }

    #[test]
    fn soak_scenario_enables_every_family() {
        let cfg = FaultConfig::scenario("soak", 1).unwrap();
        assert!(cfg.day_dropout > 0.0);
        assert!(cfg.feedback_loss > 0.0);
        assert!(cfg.utility_corruption > 0.0);
        assert!(cfg.batch_spike > 0.0);
        assert!(cfg.state_corruption > 0.0);
        assert!(cfg.batch_replay > 0.0);
        assert!(!cfg.is_quiet());
        let state_only = FaultConfig::scenario("state-corruption", 1).unwrap();
        assert!(state_only.state_corruption > 0.0 && state_only.day_dropout == 0.0);
        assert!(!state_only.is_quiet(), "state corruption alone is not quiet");
    }

    #[test]
    fn net_plan_is_a_pure_function_of_the_seed() {
        let cfg = NetFaultConfig::scenario("net-chaos", 21).unwrap();
        let (a, b) = (NetFaultPlan::new(cfg), NetFaultPlan::new(cfg));
        for epoch in 0..3u64 {
            for seq in 0..500u64 {
                assert_eq!(a.delivery(epoch, seq, 0), b.delivery(epoch, seq, 0));
                assert_eq!(a.delivery(epoch, seq, 1), b.delivery(epoch, seq, 1));
            }
        }
        let c = NetFaultPlan::new(NetFaultConfig::scenario("net-chaos", 22).unwrap());
        let differs = (1..500u64).any(|s| a.delivery(0, s, 0) != c.delivery(0, s, 0));
        assert!(differs, "two seeds produced identical link schedules");
    }

    #[test]
    fn retransmission_attempts_draw_independently() {
        // Even at 90% loss, some retransmission of every frame gets
        // through within a bounded number of attempts — the property
        // that keeps a gap from stalling replication forever.
        let p = NetFaultPlan::new(NetFaultConfig { seed: 3, drop: 0.9, ..Default::default() });
        for seq in 1..200u64 {
            let delivered = (0..100).any(|a| p.delivery(0, seq, a) != NetDelivery::Drop);
            assert!(delivered, "seq {seq} lost on all 100 attempts at p=0.9");
        }
    }

    #[test]
    fn net_plan_draws_every_fault_family() {
        let p = NetFaultPlan::new(NetFaultConfig::scenario("net-chaos", 5).unwrap());
        let (mut drops, mut delays, mut dups, mut corrupts, mut clean) = (0, 0, 0, 0, 0);
        for seq in 0..2000u64 {
            match p.delivery(0, seq, 0) {
                NetDelivery::Drop => drops += 1,
                NetDelivery::Deliver { delay: 0 } => clean += 1,
                NetDelivery::Deliver { .. } => delays += 1,
                NetDelivery::DeliverTwice { first, second } => {
                    assert!(second > first, "duplicate must land after the original");
                    dups += 1;
                }
                NetDelivery::DeliverCorrupt { mask, .. } => {
                    assert_ne!(mask, 0, "a zero mask would not damage the frame");
                    corrupts += 1;
                }
            }
        }
        assert!(drops > 0 && delays > 0 && dups > 0 && corrupts > 0, "all families must fire");
        assert!(clean > 1000, "most frames still arrive clean: {clean}");
    }

    #[test]
    fn partitions_are_contiguous_seq_windows() {
        let p = NetFaultPlan::new(NetFaultConfig {
            seed: 13,
            partition: 0.5,
            partition_every: 10,
            partition_span: 4,
            ..NetFaultConfig::default()
        });
        let mut fired = 0;
        for window in 0..200u64 {
            let base = window * 10;
            let in_window: Vec<bool> = (0..10).map(|i| p.partitioned(0, base + i)).collect();
            if in_window.iter().any(|&x| x) {
                fired += 1;
                assert_eq!(
                    in_window,
                    vec![true, true, true, true, false, false, false, false, false, false],
                    "a partition eats exactly the window's first span of ticks"
                );
            }
        }
        assert!(fired > 50, "a 50% partition rate over 200 windows fired only {fired} times");
    }

    #[test]
    fn seq_zero_always_arrives_clean() {
        let p = NetFaultPlan::new(NetFaultConfig {
            seed: 7,
            drop: 1.0,
            corrupt: 1.0,
            ..NetFaultConfig::default()
        });
        for epoch in 0..5 {
            assert_eq!(p.delivery(epoch, 0, 0), NetDelivery::Deliver { delay: 0 });
        }
    }

    #[test]
    fn net_scenarios_resolve_and_unknown_rejects() {
        for name in NET_SCENARIOS {
            assert!(NetFaultConfig::scenario(name, 1).is_ok(), "scenario {name}");
        }
        assert!(NetFaultConfig::scenario("none", 1).unwrap().is_quiet());
        assert!(!NetFaultConfig::scenario("lossy", 1).unwrap().is_quiet());
        assert!(NetFaultConfig::scenario("definitely-not", 1).is_err());
    }

    #[test]
    fn kill_schedule_is_deterministic_distinct_and_covers_variants() {
        let batches = vec![8, 8, 6];
        let a = seeded_kill_schedule(17, &batches, 10);
        assert_eq!(a, seeded_kill_schedule(17, &batches, 10));
        assert_eq!(a.len(), 10);
        for (i, p) in a.iter().enumerate() {
            assert!(!a[..i].contains(p), "duplicate kill point {p:?}");
        }
        assert_ne!(a, seeded_kill_schedule(18, &batches, 10));
        let has = |f: fn(&KillPoint) -> bool| a.iter().any(f);
        assert!(has(|p| matches!(p, KillPoint::AfterBatch { .. })));
        assert!(has(|p| matches!(p, KillPoint::MidFrame { .. })));
        assert!(has(|p| matches!(p, KillPoint::BeforeDayEnd { .. })));
        assert!(has(|p| matches!(p, KillPoint::MidCheckpoint { .. })));
        assert!(has(|p| matches!(p, KillPoint::AfterCheckpoint { .. })));
        for p in &a {
            match p {
                KillPoint::AfterBatch { day, batch } | KillPoint::MidFrame { day, batch } => {
                    assert!(*day < batches.len() && *batch < batches[*day]);
                }
                KillPoint::BeforeDayEnd { day }
                | KillPoint::MidCheckpoint { day }
                | KillPoint::AfterCheckpoint { day } => assert!(*day < batches.len()),
            }
        }
    }

    #[test]
    fn named_scenarios_resolve_and_unknown_rejects() {
        let err = FaultConfig::scenario("does-not-exist", 1).unwrap_err();
        assert_eq!(err.name, "does-not-exist");
        let msg = err.to_string();
        assert!(msg.contains("unknown fault scenario"), "{msg}");
        assert!(msg.contains("full-chaos"), "message lists valid names: {msg}");
        for name in SCENARIOS {
            assert!(FaultConfig::scenario(name, 1).is_ok(), "scenario {name}");
        }
        assert!(FaultConfig::scenario("none", 1).unwrap().is_quiet());
        assert!(!FaultConfig::scenario("full-chaos", 1).unwrap().is_quiet());
    }
}
