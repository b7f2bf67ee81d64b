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
//! * the primary's disk is the single node's `DiskState`: with
//!   [`ReplicationConfig::with_storage`] a failing disk degrades,
//!   buffers and resyncs exactly as in [`crate::supervisor`];
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

use crate::core::{self, Engine, Logged, Sink, Unit};
use crate::lacb::{Lacb, LacbConfig};
use crate::resilient::{ResilienceConfig, ResilientAssigner};
use crate::storage::StorageConfig;
use crate::supervisor::{DiskState, RecoveryError};
use durability::{tmp_path, StdVfs, Vfs, WalRecord};
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
    /// Storage-fault tolerance of the primary's disk, exactly as
    /// [`crate::DurableConfig::storage`]: `None` (the default) makes
    /// any storage failure a typed [`ReplicationError::Disk`]; `Some`
    /// degrades, buffers and resyncs while shipping continues.
    pub storage: Option<StorageConfig>,
}

impl ReplicationConfig {
    /// A replicated run rooted at `dir` with no injected kill, the real
    /// filesystem, and storage faults fatal.
    pub fn at(dir: &Path) -> Self {
        ReplicationConfig {
            dir: dir.to_path_buf(),
            kill: None,
            vfs: Arc::new(StdVfs),
            storage: None,
        }
    }

    /// Route the primary's durability I/O through `vfs`.
    pub fn with_vfs(mut self, vfs: Arc<dyn Vfs>) -> Self {
        self.vfs = vfs;
        self
    }

    /// Put the primary's disk under the degraded-mode state machine.
    pub fn with_storage(mut self, storage: StorageConfig) -> Self {
        self.storage = Some(storage);
        self
    }
}

/// Why a replicated run failed.
#[derive(Clone, Debug)]
pub enum ReplicationError {
    /// The primary's disk failed with no storage guard to absorb it.
    Disk(RecoveryError),
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
            ReplicationError::Disk(e) => write!(f, "primary disk: {e}"),
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

impl From<RecoveryError> for ReplicationError {
    fn from(e: RecoveryError) -> Self {
        ReplicationError::Disk(e)
    }
}

/// What a completed replicated run reports.
#[derive(Clone, Debug)]
pub struct ReplicatedOutcome {
    /// The surviving node's whole-horizon metrics, directly comparable
    /// with [`crate::resilient::run_chaos`]; `metrics.replication`
    /// carries the protocol counters, and `metrics.storage` the
    /// primary's storage-guard accounting when it has a guard.
    pub metrics: RunMetrics,
    /// The surviving node's final learned state — the failover harness
    /// compares this bit-for-bit against a clean single-node run.
    pub final_state: String,
    /// Whether the follower took over.
    pub promoted: bool,
    /// The follower's `(day, batch)` position at the moment it
    /// promoted (its verified watermark), if it did.
    pub promoted_at: Option<(usize, usize)>,
    /// For runs the primary survived: whether the follower's replayed
    /// state converged bit-identically to the primary's. `None` when
    /// the follower was promoted (it *is* the surviving state then).
    pub follower_converged: Option<bool>,
}

/// One node's serving pipeline: the core over the resilient LACB
/// ladder. The primary steps its own; the follower steps an identical
/// twin by verified replay and, after promotion, directly.
type Node<'a> = Engine<'a, ResilientAssigner<Lacb>>;

/// The primary engine's sink: its [`DiskState`] logs each unit's record
/// before the unit takes effect, and the record is kept for shipping.
struct PrimaryDisk {
    disk: DiskState,
    /// The record committed last, waiting to be shipped.
    shipped: Option<WalRecord>,
    /// WAL records pruned below acked watermarks.
    pruned: u64,
}

impl PrimaryDisk {
    /// Open the primary's store and WAL. The replicated primary starts
    /// a fresh log; composing replication with single-node crash
    /// recovery is `supervisor`'s job.
    fn open(repl: &ReplicationConfig) -> Result<Self, ReplicationError> {
        let (disk, _, _) = DiskState::open(&repl.vfs, &repl.dir, repl.storage)?;
        Ok(PrimaryDisk { disk, shipped: None, pruned: 0 })
    }

    /// Cut the boundary checkpoint, then prune the WAL below `prune_day`.
    fn checkpoint(
        &mut self,
        boundary: usize,
        text: &str,
        prune_day: usize,
    ) -> Result<(), ReplicationError> {
        self.disk.checkpoint(boundary, text, None)?;
        self.pruned += self.disk.prune(prune_day)?;
        Ok(())
    }
}

impl Sink<ResilientAssigner<Lacb>> for PrimaryDisk {
    type Error = ReplicationError;

    fn commit(&mut self, rec: &WalRecord) -> Result<Option<Logged>, ReplicationError> {
        self.disk.tick(rec);
        let logged = self.disk.append(rec)?;
        self.shipped = Some(rec.clone());
        Ok(Some(logged))
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
    let mut sink = PrimaryDisk::open(repl)?;
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
            engine_p.step(&mut sink)?;
            let rec = sink.shipped.take().expect("every unit commits a record");
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
                            sink.disk.store.as_ref().expect("kill harness runs on a healthy disk");
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
                        sink.checkpoint(d + 1, &text, prune_day)?;
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
    metrics.replication = Some(ReplicationStats {
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
        pruned_records: sink.pruned,
        max_lag: primary.max_lag(),
    });
    metrics.storage = sink.disk.finish();
    let survivor = if promoted { &ladder_f } else { &ladder_p };
    Ok(ReplicatedOutcome {
        metrics,
        final_state: core::learned_state(survivor),
        promoted,
        promoted_at,
        follower_converged,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::CHECKPOINT_GENERATIONS;
    use crate::testkit::{assert_bit_identical, chaos_plan, dataset, reference, scratch};
    use durability::{parse_v2_section, CheckpointStore, StorageError, VfsOp};
    use platform_sim::{
        seeded_kill_schedule, FaultVfs, NetFaultConfig, SingleFault, SingleFaultKind,
        StorageFaultConfig, StorageMode,
    };
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

    /// A disk that fails every operation.
    fn dead_disk() -> FaultVfs {
        FaultVfs::new(StorageFaultConfig {
            seed: 11,
            disk_gone: 1.0,
            disk_gone_every: 1,
            disk_gone_span: 1,
            ..StorageFaultConfig::default()
        })
    }

    /// A disk on which every rename fails, so no checkpoint ever lands.
    fn no_renames() -> FaultVfs {
        FaultVfs::new(StorageFaultConfig {
            seed: 13,
            rename_fail: 1.0,
            ..StorageFaultConfig::default()
        })
    }

    /// A healthy disk whose sixth WAL append fails with ENOSPC.
    fn one_failed_append() -> FaultVfs {
        FaultVfs::single(SingleFault { op: VfsOp::Append, index: 5, kind: SingleFaultKind::Enospc })
    }

    /// A replicated run of the shared world whose primary writes to `vfs`.
    fn run_on_disk(
        name: &str,
        vfs: FaultVfs,
        storage: Option<StorageConfig>,
    ) -> Result<ReplicatedOutcome, ReplicationError> {
        let dir = scratch(name);
        let mut repl = ReplicationConfig::at(&dir).with_vfs(Arc::new(vfs));
        repl.storage = storage;
        let out = run_replicated(
            &dataset(233),
            LacbConfig::default(),
            ResilienceConfig::default(),
            chaos_plan(151),
            quiet_net(5),
            &repl,
        );
        std::fs::remove_dir_all(&dir).ok();
        out
    }

    /// The primary survived and the follower converged to the in-memory
    /// reference bit for bit.
    fn assert_converged(out: &ReplicatedOutcome) {
        let (reference_metrics, reference_state) = reference(&dataset(233), chaos_plan(151));
        assert!(!out.promoted);
        assert_eq!(out.follower_converged, Some(true));
        assert_bit_identical(&out.metrics, &reference_metrics);
        assert_eq!(out.final_state, reference_state);
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
        let repl = out.metrics.replication.as_ref().unwrap();
        assert_eq!(repl.promotions, 0);
        assert_eq!(repl.stale_epoch_rejected, 0);
        assert_eq!(repl.corrupt_rejected, 0);
        assert!(repl.frames_applied > 0);
        assert!(repl.acked_watermark > 0, "acks must flow back");
        assert!(repl.pruned_records > 0, "acked prefix must be pruned");
        assert_eq!(out.metrics.storage, None, "no guard, no storage accounting");
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
            let repl = out.metrics.replication.as_ref().unwrap();
            assert!(
                repl.stale_epoch_rejected > 0,
                "kill {} must fence stale frames",
                point.label()
            );
            assert_bit_identical(&out.metrics, &reference_metrics);
            assert_eq!(out.final_state, reference_state, "state diverged after {}", point.label());
            if matches!(point, KillPoint::MidFrame { .. }) {
                assert!(repl.corrupt_rejected > 0, "torn frame must be CRC-rejected");
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
        let repl = out.metrics.replication.as_ref().unwrap();
        assert!(
            repl.frames_dropped + repl.duplicates_dropped + repl.corrupt_rejected > 0,
            "lossy scenario must actually exercise the fault families: {repl:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn guarded_primary_on_a_failing_disk_degrades_and_shipping_still_converges() {
        // The dead disk serves diskless from birth. On the other, the
        // first day-boundary checkpoint fails while the WAL is still
        // open: the primary degrades there and must not write that WAL
        // again, not even to prune it. Either way the follower converges
        // bit-identically — the acked watermark is the durability story
        // — and the guard accounts for every record.
        for (name, disk) in [("storage-dead", dead_disk()), ("storage-no-renames", no_renames())] {
            let out = run_on_disk(name, disk, Some(StorageConfig::default())).unwrap();
            assert_converged(&out);
            let storage = out.metrics.storage.as_ref().expect("guard enabled");
            assert!(storage.faults > 0, "{name}: {storage:?}");
            assert_eq!(storage.wal_append_failures, 0, "{name}: {storage:?}");
            assert!(storage.accounting_balanced(), "{name}: unbalanced: {storage:?}");
            assert_eq!(storage.final_mode, StorageMode::Degraded, "{name}: {storage:?}");
            let repl = out.metrics.replication.as_ref().unwrap();
            assert_eq!(repl.pruned_records, 0, "{name}: a degraded WAL is never pruned");
        }
    }

    #[test]
    fn guarded_primary_resyncs_after_a_single_fault_and_still_converges() {
        let out =
            run_on_disk("storage-resync", one_failed_append(), Some(StorageConfig::default()))
                .unwrap();
        assert_converged(&out);
        let storage = out.metrics.storage.as_ref().expect("guard enabled");
        assert_eq!(storage.faults, 1, "{storage:?}");
        assert_eq!(storage.wal_append_failures, 1, "{storage:?}");
        assert!(storage.resyncs_completed >= 1, "{storage:?}");
        assert_eq!(storage.final_mode, StorageMode::Durable, "{storage:?}");
        assert!(storage.buffered_total > 0, "records must buffer while degraded");
        assert!(storage.accounting_balanced(), "unbalanced: {storage:?}");
        let repl = out.metrics.replication.as_ref().unwrap();
        assert!(repl.pruned_records > 0, "the resynced WAL must be pruned again");
    }

    #[test]
    fn unguarded_primary_disk_fault_is_a_typed_error() {
        // At startup the store cannot open; mid-run a WAL append fails.
        let err = run_on_disk("storage-fatal-open", dead_disk(), None).unwrap_err();
        assert!(matches!(err, ReplicationError::Disk(RecoveryError::Store(_))), "got {err}");
        let err = run_on_disk("storage-fatal-append", one_failed_append(), None).unwrap_err();
        assert!(matches!(err, ReplicationError::Disk(RecoveryError::Wal(_))), "got {err}");
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
