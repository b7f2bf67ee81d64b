//! Replicated serving: deterministic WAL shipping over a simulated
//! network, epoch-fenced failover, and bit-identical takeover.
//!
//! [`run_replicated`] drives a resilient LACB run exactly like
//! [`crate::resilient::run_chaos`], but with a warm follower on the
//! other end of a [`replica::SimLink`]:
//!
//! * the **primary** executes the serving loop, appends each
//!   batch-granular record to its on-disk WAL, and ships the same
//!   record as a checksummed, sequence-numbered, epoch-tagged
//!   [`replica::Frame`] — one link tick per serving step;
//! * the **follower** admits frames idempotently (duplicates dropped,
//!   gaps buffered, torn or damaged frames rejected by CRC) and applies
//!   each record with the same *recompute-and-verify* replay as
//!   [`crate::supervisor`]: the record is recomputed by the follower's
//!   own deterministic pipeline and compared bit-for-bit — a mismatch
//!   is a typed [`ReplicationError::Divergence`], never silent drift;
//! * the follower acks its applied watermark every tick; the primary
//!   prunes its frame outbox and its on-disk WAL
//!   ([`durability::Wal::prune_to_watermark`]) up to the acked day at
//!   each checkpoint boundary;
//! * a [`replica::FailureDetector`] counts silent link ticks; when the
//!   primary goes quiet past the threshold — because a seeded
//!   [`KillPoint`] killed it, or a seeded network partition made it
//!   *look* dead — the follower promotes itself under a bumped epoch.
//!   Every frame still carrying the old epoch is fenced off (counted in
//!   [`ReplicationStats::stale_epoch_rejected`]), so a deposed primary
//!   can never split-brain the learned state.
//!
//! Takeover is **bit-identical**: the follower's replayed state at its
//! watermark equals the clean single-node state at that boundary (the
//! pipeline is a pure function of its seeds), and its post-promotion
//! execution re-derives everything the dead primary did but never got
//! acked. The `caam failover` harness asserts final metrics and matcher
//! state equal to an uninterrupted [`crate::resilient::run_chaos`] run,
//! for every seeded kill point and network-fault scenario.

use crate::checkpoint::CHECKPOINT_GENERATIONS;
use crate::core::{self, Engine, Logged, Sink, Unit};
use crate::lacb::{Lacb, LacbConfig};
use crate::resilient::{ResilienceConfig, ResilientAssigner};
use durability::{tmp_path, CheckpointStore, StdVfs, StoreError, Vfs, Wal, WalError, WalRecord};
use platform_sim::{
    Dataset, FaultPlan, KillPoint, NetDelivery, NetFaultPlan, ReplicationStats, RunMetrics,
};
use replica::{
    AckChannel, Admitted, Delivery, FailureDetector, Follower, FramePayload, Primary, SimLink,
};
use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// File name of the primary's WAL inside the replication directory.
pub const REPLICA_WAL_FILE: &str = "primary.wal";

/// Safety valve on the protocol loops that wait for network
/// convergence; hitting it is a protocol bug, not a slow link.
const CONVERGENCE_GUARD_TICKS: u64 = 100_000;

/// Consecutive silent link ticks before the follower promotes.
const HEARTBEAT_TIMEOUT_TICKS: u64 = 6;

/// Link ticks without ack progress before the outbox is retransmitted.
const RETRANSMIT_AFTER_TICKS: u64 = 2;

/// Knobs of a replicated run.
#[derive(Clone, Debug)]
pub struct ReplicationConfig {
    /// Directory holding the primary's WAL and checkpoint generations.
    pub dir: PathBuf,
    /// Seeded primary kill point (failover harness only).
    pub kill: Option<KillPoint>,
    /// Filesystem the primary's WAL and checkpoint store go through.
    pub vfs: Arc<dyn Vfs>,
    /// When set, primary-side storage faults are absorbed instead of
    /// aborting: the failing handle is latched off, the fault is
    /// counted in [`ReplicationStats`], and shipping continues — the
    /// follower's acked watermark is the durability story then.
    pub tolerate_storage_faults: bool,
}

impl ReplicationConfig {
    /// A replicated run rooted at `dir` with no injected kill, the real
    /// filesystem, and storage faults fatal.
    pub fn at(dir: &Path) -> Self {
        ReplicationConfig {
            dir: dir.to_path_buf(),
            kill: None,
            vfs: Arc::new(StdVfs),
            tolerate_storage_faults: false,
        }
    }

    /// Route the primary's durability I/O through `vfs`.
    pub fn with_vfs(mut self, vfs: Arc<dyn Vfs>) -> Self {
        self.vfs = vfs;
        self
    }

    /// Absorb primary-side storage faults instead of aborting.
    pub fn tolerant(mut self) -> Self {
        self.tolerate_storage_faults = true;
        self
    }
}

/// Why a replicated run failed.
#[derive(Clone, Debug)]
pub enum ReplicationError {
    /// The primary's WAL could not be written or pruned.
    Wal(WalError),
    /// The primary's checkpoint store failed.
    Store(StoreError),
    /// A shipped record recomputed differently on the follower.
    /// Deterministic replay makes this impossible unless state, code,
    /// or wire were corrupted in a way the checksums could not see.
    Divergence { day: usize, batch: Option<usize>, detail: String },
    /// The protocol itself misbehaved (convergence guard exhausted,
    /// or an unshippable record reached the wire).
    Protocol(String),
}

impl fmt::Display for ReplicationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplicationError::Wal(e) => write!(f, "WAL error: {e}"),
            ReplicationError::Store(e) => write!(f, "checkpoint store error: {e}"),
            ReplicationError::Divergence { day, batch: Some(b), detail } => {
                write!(f, "replication divergence at day {day} batch {b}: {detail}")
            }
            ReplicationError::Divergence { day, batch: None, detail } => {
                write!(f, "replication divergence at day {day} boundary: {detail}")
            }
            ReplicationError::Protocol(e) => write!(f, "replication protocol error: {e}"),
        }
    }
}

impl std::error::Error for ReplicationError {}

impl From<WalError> for ReplicationError {
    fn from(e: WalError) -> Self {
        ReplicationError::Wal(e)
    }
}

impl From<StoreError> for ReplicationError {
    fn from(e: StoreError) -> Self {
        ReplicationError::Store(e)
    }
}

/// What a completed replicated run reports.
#[derive(Clone, Debug)]
pub struct ReplicatedOutcome {
    /// The surviving node's whole-horizon metrics, directly comparable
    /// with [`crate::resilient::run_chaos`]; `metrics.replication`
    /// carries the protocol counters.
    pub metrics: RunMetrics,
    /// The surviving node's final learned state — the failover harness
    /// compares this bit-for-bit against a clean single-node run.
    pub final_state: String,
    /// Whether the follower took over.
    pub promoted: bool,
    /// The follower's `(day, batch)` position at the moment it
    /// promoted (its verified watermark), if it did.
    pub promoted_at: Option<(usize, usize)>,
    /// Protocol counters (also threaded into `metrics.replication`).
    pub replication: ReplicationStats,
    /// For runs the primary survived: whether the follower's replayed
    /// state converged bit-identically to the primary's. `None` when
    /// the follower was promoted (it *is* the surviving state then).
    pub follower_converged: Option<bool>,
    /// WAL records pruned below acked watermarks over the run.
    pub wal_pruned: u64,
}

/// One node's serving pipeline: the core over the resilient LACB
/// ladder. The primary steps its own; the follower steps an identical
/// twin by verified replay and, after promotion, directly.
type Node<'a> = Engine<'a, ResilientAssigner<Lacb>>;

/// The primary's storage: its WAL and checkpoint store. As the primary
/// engine's sink it appends each unit's record before the unit takes
/// effect and keeps it for shipping. In tolerant mode a failing handle
/// is latched off and the fault counted; otherwise the fault is fatal.
struct PrimaryDisk {
    store: Option<CheckpointStore>,
    wal: Option<Wal>,
    tolerant: bool,
    /// The record committed last, waiting to be shipped.
    shipped: Option<WalRecord>,
    storage_faults: u64,
    checkpoints_skipped: u64,
    prunes_skipped: u64,
    pruned: u64,
}

impl PrimaryDisk {
    fn open(repl: &ReplicationConfig) -> Result<Self, ReplicationError> {
        let mut disk = PrimaryDisk {
            store: None,
            wal: None,
            tolerant: repl.tolerate_storage_faults,
            shipped: None,
            storage_faults: 0,
            checkpoints_skipped: 0,
            prunes_skipped: 0,
            pruned: 0,
        };
        match CheckpointStore::open_with(repl.vfs.clone(), &repl.dir, CHECKPOINT_GENERATIONS) {
            Ok(s) => disk.store = Some(s),
            Err(e) => disk.absorb(e)?,
        }
        // The replicated primary starts a fresh log; composing
        // replication with single-node crash recovery is `supervisor`'s
        // job.
        match Wal::recover_with(repl.vfs.clone(), &repl.dir.join(REPLICA_WAL_FILE)) {
            Ok((w, _, _)) => disk.wal = Some(w),
            Err(e) => disk.absorb(e)?,
        }
        Ok(disk)
    }

    /// Count a storage fault in tolerant mode; fail otherwise.
    fn absorb(&mut self, e: impl Into<ReplicationError>) -> Result<(), ReplicationError> {
        if !self.tolerant {
            return Err(e.into());
        }
        self.storage_faults += 1;
        Ok(())
    }

    /// Append to the WAL. A failed append latches the WAL off: the
    /// follower's acked watermark is the durability story from there on.
    fn append(&mut self, rec: &WalRecord) -> Result<(), ReplicationError> {
        if let Some(Err(e)) = self.wal.as_mut().map(|w| w.append(rec)) {
            self.absorb(e)?;
            self.wal = None;
        }
        Ok(())
    }

    /// Save the boundary checkpoint, log its WAL mark, and prune the WAL
    /// below `prune_day`. A missing or failing store or WAL counts the
    /// skip: a degraded WAL has nothing safe to prune.
    fn checkpoint(
        &mut self,
        boundary: usize,
        text: &str,
        prune_day: usize,
    ) -> Result<(), ReplicationError> {
        match self.store.as_ref().map(|s| s.save(boundary, text, None)) {
            Some(Ok(_)) => self.append(&WalRecord::Checkpoint { next_day: boundary })?,
            Some(Err(e)) => {
                self.absorb(e)?;
                self.checkpoints_skipped += 1;
            }
            None => self.checkpoints_skipped += 1,
        }
        match self.wal.as_mut().map(|w| w.prune_to_watermark(prune_day)) {
            Some(Ok(n)) => self.pruned += n as u64,
            Some(Err(e)) => {
                self.absorb(e)?;
                self.prunes_skipped += 1;
                self.wal = None;
            }
            None => self.prunes_skipped += 1,
        }
        Ok(())
    }
}

impl Sink<ResilientAssigner<Lacb>> for PrimaryDisk {
    type Error = ReplicationError;

    fn commit(&mut self, rec: &WalRecord) -> Result<Option<Logged>, ReplicationError> {
        self.append(rec)?;
        self.shipped = Some(rec.clone());
        Ok(self.wal.as_ref().map(|_| Logged::Disk))
    }
}

/// The follower's sink: the unit must recompute the shipped record.
struct Expect<'r>(&'r WalRecord);

impl Sink<ResilientAssigner<Lacb>> for Expect<'_> {
    type Error = ReplicationError;

    fn commit(&mut self, rec: &WalRecord) -> Result<Option<Logged>, ReplicationError> {
        if rec == self.0 {
            return Ok(None);
        }
        let batch = match self.0 {
            WalRecord::Batch { batch, .. } => Some(*batch),
            _ => None,
        };
        let detail = format!("shipped {:?} recomputed {rec:?}", self.0);
        Err(ReplicationError::Divergence { day: self.0.day(), batch, detail })
    }
}

/// Recompute-and-verify replay of one shipped record: the follower's
/// next unit must reproduce it bit for bit before it takes effect.
fn verify_apply(engine: &mut Node<'_>, rec: &WalRecord) -> Result<(), ReplicationError> {
    if engine.step(&mut Expect(rec))? == Unit::Done {
        return Err(ReplicationError::Divergence {
            day: rec.day(),
            batch: None,
            detail: format!("record {rec:?} arrived after the horizon ended"),
        });
    }
    Ok(())
}

/// Translate a seeded [`NetDelivery`] verdict into the link's dialect.
fn verdict(net: &NetFaultPlan, epoch: u64, seq: u64, attempt: u64) -> Delivery {
    match net.delivery(epoch, seq, attempt) {
        NetDelivery::Deliver { delay } => Delivery::Deliver { delay },
        NetDelivery::DeliverTwice { first, second } => Delivery::DeliverTwice { first, second },
        NetDelivery::DeliverCorrupt { delay, byte, mask } => {
            Delivery::DeliverCorrupt { delay, byte, mask }
        }
        NetDelivery::Drop => Delivery::Drop,
    }
}

/// One network round: tick the link, admit and verify-apply at the
/// follower, ack the watermark, deliver acks to the primary, advance
/// the failure detector, and promote on suspicion.
#[allow(clippy::too_many_arguments)]
fn exchange(
    link: &mut SimLink,
    acks: &mut AckChannel,
    follower: &mut Follower,
    engine_f: &mut Node<'_>,
    detector: &mut FailureDetector,
    primary: &mut Primary,
    primary_alive: &mut bool,
    promoted: &mut bool,
    promoted_at: &mut Option<(usize, usize)>,
) -> Result<(), ReplicationError> {
    let mut saw_traffic = false;
    for bytes in link.tick() {
        match follower.admit_bytes(&bytes) {
            Admitted::Apply(recs) => {
                saw_traffic = true;
                for rec in recs {
                    verify_apply(engine_f, &rec)?;
                }
            }
            Admitted::Heartbeat => saw_traffic = true,
            Admitted::Ignored => {}
        }
    }
    if !*promoted {
        acks.send(follower.epoch(), follower.watermark());
    }
    for (epoch, watermark) in acks.tick() {
        if *primary_alive {
            primary.ack(epoch, watermark);
            if primary.deposed() {
                *primary_alive = false;
            }
        }
    }
    if !*promoted && detector.tick(saw_traffic) {
        follower.promote();
        *promoted = true;
        *promoted_at = Some(engine_f.position());
    }
    Ok(())
}

/// Run a primary/follower replicated serving pair over the whole
/// horizon under seeded platform faults (`plan`), seeded network faults
/// (`net`), and an optional seeded primary kill. See module docs for
/// the protocol; see [`ReplicatedOutcome`] for what comes back.
pub fn run_replicated(
    dataset: &Dataset,
    cfg: LacbConfig,
    rcfg: ResilienceConfig,
    plan: FaultPlan,
    net: NetFaultPlan,
    repl: &ReplicationConfig,
) -> Result<ReplicatedOutcome, ReplicationError> {
    let spiked = dataset.with_batch_spikes(&plan);
    let mut disk = PrimaryDisk::open(repl)?;
    let mut ladder_p = ResilientAssigner::new(Lacb::new(cfg.clone()), rcfg.clone());
    let mut ladder_f = ResilientAssigner::new(Lacb::new(cfg), rcfg);
    let mut engine_p = Engine::new(&spiked, core::platform(&spiked, plan), &mut ladder_p);
    let mut engine_f = Engine::new(&spiked, core::platform(&spiked, plan), &mut ladder_f);
    let mut primary = Primary::new(0);
    let mut follower = Follower::new(0);
    let mut detector = FailureDetector::new(HEARTBEAT_TIMEOUT_TICKS);
    let mut link = SimLink::new();
    let mut acks = AckChannel::new();
    let mut attempts: HashMap<u64, u64> = HashMap::new();
    // Heartbeat fault draws use a disjoint attempt domain so they never
    // collide with record retransmission attempts.
    let mut hb_attempt: u64 = 1 << 40;
    let mut primary_alive = true;
    let mut promoted = false;
    let mut promoted_at: Option<(usize, usize)> = None;
    let mut stall_ticks: u64 = 0;
    let mut last_acked: u64 = 0;

    // Phase 1: the primary serves, one unit per link tick.
    while primary_alive && !promoted && engine_p.peek() != Unit::Done {
        let partitioned = net.partitioned(primary.epoch(), link.now());
        if let (Some(KillPoint::BeforeDayEnd { day }), Unit::DayEnd(d)) =
            (repl.kill, engine_p.peek())
        {
            if d == day {
                primary_alive = false;
            }
        }
        if primary_alive {
            engine_p.step(&mut disk)?;
            let rec = disk.shipped.take().expect("every unit commits a record");
            let frame = primary.ship(rec.clone());
            let line = frame.encode();
            let mid_frame_kill = match (repl.kill, &rec) {
                (
                    Some(KillPoint::MidFrame { day, batch }),
                    WalRecord::Batch { day: rd, batch: rb, .. },
                ) => day == *rd && batch == *rb,
                _ => false,
            };
            if mid_frame_kill {
                // The primary dies halfway through the send: the wire
                // carries a torn prefix the follower's CRC must reject.
                link.send_raw(line.as_bytes()[..line.len() / 2].to_vec());
                primary_alive = false;
            } else if !partitioned {
                let attempt = attempts.entry(frame.seq).or_insert(0);
                link.send(&line, verdict(&net, primary.epoch(), frame.seq, *attempt));
                *attempt += 1;
            }
            if let (
                Some(KillPoint::AfterBatch { day, batch }),
                WalRecord::Batch { day: rd, batch: rb, .. },
            ) = (repl.kill, &rec)
            {
                if day == *rd && batch == *rb {
                    primary_alive = false;
                }
            }
            if primary_alive {
                if let WalRecord::DayEnd { day: d, .. } = rec {
                    let text = engine_p.checkpoint().with_epoch(primary.epoch()).to_v2_text();
                    if repl.kill == Some(KillPoint::MidCheckpoint { day: d }) {
                        // Dying mid-write leaves a torn tmp that the
                        // atomic rename never promoted — invisible to
                        // every reader, exactly like a crashed save.
                        let healthy =
                            disk.store.as_ref().expect("kill harness runs on a healthy disk");
                        let tmp = tmp_path(&healthy.generation_path(d + 1));
                        repl.vfs.write(&tmp, &text.as_bytes()[..text.len() / 2]).map_err(|e| {
                            ReplicationError::Protocol(format!("torn tmp write failed: {e}"))
                        })?;
                        primary_alive = false;
                    } else {
                        // Prune the WAL below the acked watermark: keep
                        // from the first unacked record's day (or drop
                        // everything when fully acked).
                        let prune_day = match primary.retransmit().first().map(|f| &f.payload) {
                            Some(FramePayload::Record(r)) => r.day(),
                            _ => d + 1,
                        };
                        disk.checkpoint(d + 1, &text, prune_day)?;
                        if repl.kill == Some(KillPoint::AfterCheckpoint { day: d }) {
                            primary_alive = false;
                        }
                    }
                }
            }
            if primary_alive && !partitioned {
                let hb = primary.heartbeat();
                link.send(&hb.encode(), verdict(&net, primary.epoch(), hb.seq, hb_attempt));
                hb_attempt += 1;
            }
            if primary_alive && !partitioned && stall_ticks >= RETRANSMIT_AFTER_TICKS {
                for f in primary.retransmit() {
                    let attempt = attempts.entry(f.seq).or_insert(0);
                    link.send(&f.encode(), verdict(&net, primary.epoch(), f.seq, *attempt));
                    *attempt += 1;
                }
            }
        }
        exchange(
            &mut link,
            &mut acks,
            &mut follower,
            &mut engine_f,
            &mut detector,
            &mut primary,
            &mut primary_alive,
            &mut promoted,
            &mut promoted_at,
        )?;
        if primary.acked() > last_acked {
            last_acked = primary.acked();
            stall_ticks = 0;
        } else {
            stall_ticks += 1;
        }
    }

    // Phase 2a: the primary finished serving — keep heartbeating and
    // retransmitting until the follower's watermark catches up.
    if primary_alive && !promoted {
        let mut guard = 0u64;
        while primary_alive && !promoted && follower.watermark() < primary.next_seq() {
            if !net.partitioned(primary.epoch(), link.now()) {
                let hb = primary.heartbeat();
                link.send(&hb.encode(), verdict(&net, primary.epoch(), hb.seq, hb_attempt));
                hb_attempt += 1;
                for f in primary.retransmit() {
                    let attempt = attempts.entry(f.seq).or_insert(0);
                    link.send(&f.encode(), verdict(&net, primary.epoch(), f.seq, *attempt));
                    *attempt += 1;
                }
            }
            exchange(
                &mut link,
                &mut acks,
                &mut follower,
                &mut engine_f,
                &mut detector,
                &mut primary,
                &mut primary_alive,
                &mut promoted,
                &mut promoted_at,
            )?;
            guard += 1;
            if guard > CONVERGENCE_GUARD_TICKS {
                return Err(ReplicationError::Protocol(format!(
                    "tail sync stalled: follower watermark {} vs primary seq {}",
                    follower.watermark(),
                    primary.next_seq()
                )));
            }
        }
    }

    // Phase 2b: the primary is dead — tick silence (and the in-flight
    // tail) until the failure detector fires and the follower promotes.
    if !primary_alive && !promoted {
        let mut guard = 0u64;
        while !promoted {
            exchange(
                &mut link,
                &mut acks,
                &mut follower,
                &mut engine_f,
                &mut detector,
                &mut primary,
                &mut primary_alive,
                &mut promoted,
                &mut promoted_at,
            )?;
            guard += 1;
            if guard > CONVERGENCE_GUARD_TICKS {
                return Err(ReplicationError::Protocol(
                    "failure detector never fired after primary death".into(),
                ));
            }
        }
    }

    // Phase 3: after a takeover, the wire still holds the old primary's
    // unacked transmissions. Replaying them proves the fence: every
    // old-epoch frame must be rejected, none may move the watermark.
    if promoted {
        for f in primary.retransmit() {
            let _ = follower.admit(f);
        }
        let _ = follower.admit(primary.heartbeat());
        for bytes in link.drain() {
            let _ = follower.admit_bytes(&bytes);
        }
        let Ok(()) = engine_f.run(&mut ());
    }

    let mut metrics = if promoted { engine_f.finish() } else { engine_p.finish() };
    let follower_converged = (!promoted).then(|| {
        core::learned_state(&ladder_f) == core::learned_state(&ladder_p)
            && follower.watermark() == primary.next_seq()
    });
    let replication = ReplicationStats {
        epoch: if promoted { follower.epoch() } else { primary.epoch() },
        promotions: follower.stats().promotions,
        frames_shipped: link.stats().sent,
        frames_applied: follower.stats().frames_applied,
        frames_dropped: link.stats().dropped,
        duplicates_dropped: follower.stats().duplicates_dropped,
        reordered_buffered: follower.stats().reordered_buffered,
        corrupt_rejected: follower.stats().corrupt_rejected,
        stale_epoch_rejected: follower.stats().stale_epoch_rejected,
        heartbeats_missed: detector.total_missed(),
        acked_watermark: primary.acked(),
        pruned_records: disk.pruned,
        max_lag: primary.max_lag(),
        primary_storage_faults: disk.storage_faults,
        checkpoints_skipped: disk.checkpoints_skipped,
        prunes_skipped: disk.prunes_skipped,
    };
    metrics.replication = Some(replication.clone());
    let survivor = if promoted { &ladder_f } else { &ladder_p };
    Ok(ReplicatedOutcome {
        metrics,
        final_state: core::learned_state(survivor),
        promoted,
        promoted_at,
        replication,
        follower_converged,
        wal_pruned: disk.pruned,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{assert_bit_identical, chaos_plan, dataset, reference, scratch};
    use durability::{parse_v2_section, StorageError};
    use platform_sim::{seeded_kill_schedule, NetFaultConfig};
    use std::sync::Mutex;

    /// The real filesystem, recording every path written whole.
    #[derive(Debug, Default)]
    struct Recording(Mutex<Vec<PathBuf>>);

    impl Vfs for Recording {
        fn read(&self, path: &Path) -> Result<Vec<u8>, StorageError> {
            StdVfs.read(path)
        }
        fn write(&self, path: &Path, bytes: &[u8]) -> Result<(), StorageError> {
            self.0.lock().unwrap().push(path.to_path_buf());
            StdVfs.write(path, bytes)
        }
        fn append(&self, path: &Path, bytes: &[u8]) -> Result<(), StorageError> {
            StdVfs.append(path, bytes)
        }
        fn fsync(&self, path: &Path) -> Result<(), StorageError> {
            StdVfs.fsync(path)
        }
        fn rename(&self, from: &Path, to: &Path) -> Result<(), StorageError> {
            StdVfs.rename(from, to)
        }
        fn remove(&self, path: &Path) -> Result<(), StorageError> {
            StdVfs.remove(path)
        }
        fn list(&self, dir: &Path) -> Result<Vec<PathBuf>, StorageError> {
            StdVfs.list(dir)
        }
        fn truncate(&self, path: &Path, len: u64) -> Result<(), StorageError> {
            StdVfs.truncate(path, len)
        }
        fn create_dir_all(&self, dir: &Path) -> Result<(), StorageError> {
            StdVfs.create_dir_all(dir)
        }
    }

    fn quiet_net(seed: u64) -> NetFaultPlan {
        NetFaultPlan::new(NetFaultConfig { seed, ..NetFaultConfig::default() })
    }

    #[test]
    fn clean_replicated_run_matches_run_chaos_and_converges() {
        let ds = dataset(211);
        let plan = chaos_plan(131);
        let dir = scratch("clean");
        let out = run_replicated(
            &ds,
            LacbConfig::default(),
            ResilienceConfig::default(),
            plan,
            quiet_net(1),
            &ReplicationConfig::at(&dir),
        )
        .unwrap();
        let (reference_metrics, reference_state) = reference(&ds, plan);
        assert!(!out.promoted);
        assert_eq!(out.follower_converged, Some(true));
        assert_bit_identical(&out.metrics, &reference_metrics);
        assert_eq!(out.final_state, reference_state);
        let repl = &out.replication;
        assert_eq!(repl.promotions, 0);
        assert_eq!(repl.stale_epoch_rejected, 0);
        assert_eq!(repl.corrupt_rejected, 0);
        assert!(repl.frames_applied > 0);
        assert!(repl.acked_watermark > 0, "acks must flow back");
        assert!(out.wal_pruned > 0, "acked prefix must be pruned");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_kill_point_variant_fails_over_bit_identically() {
        let ds = dataset(223);
        let plan = chaos_plan(137);
        let (reference_metrics, reference_state) = reference(&ds, plan);
        let spiked = ds.with_batch_spikes(&plan);
        let batches: Vec<usize> = spiked.days.iter().map(|d| d.len()).collect();
        // 5 points = one per kill variant; the CLI harness scales this.
        for (i, point) in seeded_kill_schedule(191, &batches, 5).into_iter().enumerate() {
            let dir = scratch(&format!("kill-{i}"));
            let mut repl = ReplicationConfig::at(&dir);
            repl.kill = Some(point);
            let out = run_replicated(
                &ds,
                LacbConfig::default(),
                ResilienceConfig::default(),
                plan,
                quiet_net(2),
                &repl,
            )
            .unwrap_or_else(|e| panic!("failover after {} failed: {e}", point.label()));
            assert!(out.promoted, "kill {} must promote the follower", point.label());
            assert!(
                out.replication.stale_epoch_rejected > 0,
                "kill {} must fence stale frames",
                point.label()
            );
            assert_bit_identical(&out.metrics, &reference_metrics);
            assert_eq!(out.final_state, reference_state, "state diverged after {}", point.label());
            if matches!(point, KillPoint::MidFrame { .. }) {
                assert!(out.replication.corrupt_rejected > 0, "torn frame must be CRC-rejected");
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn lossy_link_converges_bit_identically_without_promotion() {
        let ds = dataset(227);
        let plan = chaos_plan(139);
        let dir = scratch("lossy");
        let net = NetFaultPlan::new(NetFaultConfig::scenario("lossy", 7).unwrap());
        let out = run_replicated(
            &ds,
            LacbConfig::default(),
            ResilienceConfig::default(),
            plan,
            net,
            &ReplicationConfig::at(&dir),
        )
        .unwrap();
        let (reference_metrics, reference_state) = reference(&ds, plan);
        assert_eq!(out.follower_converged, Some(true), "lossy link must still converge");
        assert_bit_identical(&out.metrics, &reference_metrics);
        assert_eq!(out.final_state, reference_state);
        let repl = &out.replication;
        assert!(
            repl.frames_dropped + repl.duplicates_dropped + repl.corrupt_rejected > 0,
            "lossy scenario must actually exercise the fault families: {repl:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn primary_storage_faults_latch_and_shipping_still_converges() {
        let ds = dataset(233);
        let plan = chaos_plan(151);
        let dir = scratch("storage-tolerant");
        // A disk that fails every operation: the primary runs fully
        // diskless, yet the follower still converges bit-identically —
        // the acked watermark is the durability story.
        let dead = platform_sim::StorageFaultConfig {
            seed: 11,
            disk_gone: 1.0,
            disk_gone_every: 1,
            disk_gone_span: 1,
            ..platform_sim::StorageFaultConfig::default()
        };
        let repl = ReplicationConfig::at(&dir)
            .with_vfs(Arc::new(platform_sim::FaultVfs::new(dead)))
            .tolerant();
        let out = run_replicated(
            &ds,
            LacbConfig::default(),
            ResilienceConfig::default(),
            plan,
            quiet_net(5),
            &repl,
        )
        .unwrap();
        let (reference_metrics, reference_state) = reference(&ds, plan);
        assert!(!out.promoted);
        assert_eq!(out.follower_converged, Some(true));
        assert_bit_identical(&out.metrics, &reference_metrics);
        assert_eq!(out.final_state, reference_state);
        let stats = &out.replication;
        assert!(stats.primary_storage_faults > 0, "{stats:?}");
        assert!(stats.checkpoints_skipped > 0, "{stats:?}");
        assert!(stats.prunes_skipped > 0, "{stats:?}");
        assert_eq!(out.wal_pruned, 0, "a dead disk has nothing to prune");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replicated_checkpoints_carry_the_fencing_epoch() {
        let ds = dataset(229);
        let plan = chaos_plan(149);
        let dir = scratch("epoch-section");
        run_replicated(
            &ds,
            LacbConfig::default(),
            ResilienceConfig::default(),
            plan,
            quiet_net(3),
            &ReplicationConfig::at(&dir),
        )
        .unwrap();
        let store = CheckpointStore::open(&dir, CHECKPOINT_GENERATIONS).unwrap();
        let (_, newest) = store.generations()[0].clone();
        let text = store.read(&newest).unwrap();
        let section = parse_v2_section(&text, "epoch").unwrap();
        assert_eq!(section.trim(), "replication-epoch 0");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_checkpoint_write_goes_through_the_vfs() {
        let ds = dataset(239);
        let plan = chaos_plan(157);
        let dir = scratch("torn-through-vfs");
        let vfs = Arc::new(Recording::default());
        let mut repl = ReplicationConfig::at(&dir).with_vfs(vfs.clone());
        repl.kill = Some(KillPoint::MidCheckpoint { day: 0 });
        let out = run_replicated(
            &ds,
            LacbConfig::default(),
            ResilienceConfig::default(),
            plan,
            quiet_net(7),
            &repl,
        )
        .unwrap();
        assert!(out.promoted, "a mid-checkpoint kill must promote the follower");
        let torn = tmp_path(&dir.join("ckpt-000001.caam"));
        assert!(
            vfs.0.lock().unwrap().contains(&torn),
            "the torn half-checkpoint bypassed the VFS: {torn:?}"
        );
        let store = CheckpointStore::open(&dir, CHECKPOINT_GENERATIONS).unwrap();
        assert!(store.generations().is_empty(), "a torn tmp must never become a generation");
        std::fs::remove_dir_all(&dir).ok();
    }
}
