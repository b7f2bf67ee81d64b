//! Crash-consistent serving: the durable run loop and its recovery path.
//!
//! [`run_durable`] drives a resilient LACB run exactly like
//! [`crate::resilient::run_chaos`], but makes every step recoverable:
//!
//! * each batch's assignment (and the appeal-draw counter proving RNG
//!   position) is appended to a checksummed WAL **before** it is
//!   executed against the platform;
//! * each day boundary cuts a `caam-ckpt v2` checkpoint into a
//!   generation store via an atomic tmp+rename write, then logs a
//!   checkpoint mark in the WAL.
//!
//! On startup the same function *is* the recovery path: it truncates
//! any torn WAL tail, restores the newest checkpoint that verifies
//! (falling back generation by generation to the last known good, or to
//! a fresh start when none exists), and **replays** the WAL tail. The
//! pipeline is a pure function of its seeds, so replay means
//! *recompute and verify*: each replayed batch is recomputed by the
//! restored matcher and checked bit-for-bit against the logged record —
//! a mismatch is a typed [`RecoveryError::Divergence`], never a silent
//! drift. After the tail is consumed the loop continues live, so a
//! recovered run finishes with metrics and learned state bit-identical
//! to an uninterrupted one (the `caam crash-test` harness asserts
//! exactly this across every seeded [`CrashPoint`]).
//!
//! Crash injection rides the same loop: a [`DurableConfig::crash`]
//! point panics at the matching boundary (after a batch, halfway
//! through a WAL append, before/halfway-through/after a checkpoint
//! write), leaving on disk exactly what a power cut would.

use crate::assigner::Assigner;
use crate::checkpoint::{Checkpoint, CheckpointError, RunProgress, CHECKPOINT_GENERATIONS};
use crate::core::{self, Engine, Logged, Sink, Unit};
use crate::lacb::{Lacb, LacbConfig};
use crate::overload::{OverloadConfig, OverloadState};
use crate::resilient::{ResilienceConfig, ResilientAssigner};
use crate::storage::{FaultSite, StorageConfig, StorageGuard};
use durability::{
    parse_v2_section, CheckpointStore, StdVfs, StoreError, Vfs, Wal, WalError, WalRecord,
    WalRecovery, WriteCrash,
};
use platform_sim::{
    BrokerLedger, CrashPoint, Dataset, FaultPlan, Platform, ResilienceStats, RunMetrics,
    StorageMode,
};
use std::collections::VecDeque;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// File name of the serving WAL inside the durable directory.
pub const WAL_FILE: &str = "serving.wal";

/// Where and how a durable run persists its state.
#[derive(Clone, Debug)]
pub struct DurableConfig {
    /// Directory holding the WAL and checkpoint generations.
    pub dir: PathBuf,
    /// Seeded crash point to inject (recovery harness only).
    pub crash: Option<CrashPoint>,
    /// Filesystem all durability I/O goes through. [`StdVfs`] in
    /// production; the storage chaos harness injects a
    /// `platform_sim::FaultVfs`.
    pub vfs: Arc<dyn Vfs>,
    /// Storage-fault tolerance. `None` (the default) keeps the legacy
    /// contract: any storage failure aborts the run with a typed
    /// [`RecoveryError`]. `Some` enables the degraded-mode machine
    /// ([`StorageGuard`]): faults trip the WAL/checkpoint breaker and
    /// the loop keeps serving diskless.
    pub storage: Option<StorageConfig>,
}

impl DurableConfig {
    /// A durable run rooted at `dir` with no injected crash, the real
    /// filesystem, and storage faults fatal.
    pub fn at(dir: &Path) -> Self {
        DurableConfig { dir: dir.to_path_buf(), crash: None, vfs: Arc::new(StdVfs), storage: None }
    }

    /// Route all durability I/O through `vfs`.
    pub fn with_vfs(mut self, vfs: Arc<dyn Vfs>) -> Self {
        self.vfs = vfs;
        self
    }

    /// Enable the degraded-mode state machine.
    pub fn with_storage(mut self, storage: StorageConfig) -> Self {
        self.storage = Some(storage);
        self
    }
}

/// Why a durable run could not start, recover, or stay consistent.
#[derive(Clone, Debug)]
pub enum RecoveryError {
    /// The WAL itself could not be opened or appended.
    Wal(WalError),
    /// The checkpoint store could not be opened or written.
    Store(StoreError),
    /// A freshly captured checkpoint failed to serialise — fatal,
    /// because continuing would silently widen the replay window.
    Checkpoint(CheckpointError),
    /// A replayed batch recomputed differently from its WAL record.
    /// Deterministic replay makes this impossible unless state, code,
    /// or log were corrupted in a way the checksums could not see.
    Divergence { day: usize, batch: Option<usize>, detail: String },
    /// The WAL references serving coordinates outside the dataset's
    /// horizon (wrong WAL for this run?).
    Horizon(String),
}

impl fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryError::Wal(e) => write!(f, "WAL error: {e}"),
            RecoveryError::Store(e) => write!(f, "checkpoint store error: {e}"),
            RecoveryError::Checkpoint(e) => write!(f, "checkpoint error: {e}"),
            RecoveryError::Divergence { day, batch: Some(b), detail } => {
                write!(f, "replay divergence at day {day} batch {b}: {detail}")
            }
            RecoveryError::Divergence { day, batch: None, detail } => {
                write!(f, "replay divergence at day {day} boundary: {detail}")
            }
            RecoveryError::Horizon(e) => write!(f, "WAL outside horizon: {e}"),
        }
    }
}

impl std::error::Error for RecoveryError {}

impl From<WalError> for RecoveryError {
    fn from(e: WalError) -> Self {
        RecoveryError::Wal(e)
    }
}

impl From<StoreError> for RecoveryError {
    fn from(e: StoreError) -> Self {
        RecoveryError::Store(e)
    }
}

/// What a completed durable run reports.
#[derive(Clone, Debug)]
pub struct DurableOutcome {
    /// Whole-horizon metrics, directly comparable with
    /// [`crate::resilient::run_chaos`].
    pub metrics: RunMetrics,
    /// The matcher's final learned state ([`Lacb::write_state`] text) —
    /// the harness compares this bit-for-bit across crash/recover runs.
    pub final_state: String,
    /// Day boundary of the checkpoint the run restored from, or `None`
    /// for a fresh start.
    pub recovered_from: Option<usize>,
    /// Checkpoint generations that existed but failed verification and
    /// were skipped on the way to the last known good one.
    pub generations_skipped: usize,
    /// WAL records recomputed and verified against the log.
    pub replayed_batches: usize,
    /// What WAL recovery found on disk (torn tail, dropped bytes).
    pub wal_recovery: WalRecovery,
}

/// Restore the newest checkpoint that verifies, falling back
/// generation by generation. Returns the restored pipeline state (or
/// `None` for a fresh start) plus how many generations were skipped.
#[allow(clippy::type_complexity)]
fn restore_last_good(
    store: Option<&CheckpointStore>,
    cfg: &LacbConfig,
    platform: &mut Platform,
) -> (Option<(usize, crate::checkpoint::Restored)>, usize) {
    let Some(store) = store else {
        // The store never opened (degraded from birth): fresh start.
        return (None, 0);
    };
    let mut skipped = 0;
    for (day, path) in store.generations() {
        let restored = store
            .read(&path)
            .map_err(|e| CheckpointError::Io {
                path: path.display().to_string(),
                kind: e.kind,
                detail: e.detail,
            })
            .and_then(|text| Checkpoint::from_text(&text))
            .and_then(|ckpt| ckpt.restore(cfg.clone(), platform));
        match restored {
            Ok(r) => return (Some((day, r)), skipped),
            Err(_) => skipped += 1,
        }
    }
    (None, skipped)
}

/// Load the newest checkpoint generation (at most `max_generation`)
/// whose matcher section verifies, parsed into a standalone [`Lacb`]
/// donor for per-broker quarantine repair.
///
/// Verification is section-granular ([`parse_v2_section`]): a
/// checkpoint torn in an unrelated section still donates its matcher
/// state. The `max_generation` cap (the current day) makes donor
/// selection identical in the live run and in crash-recovery replay —
/// a torn next-generation file left by a mid-checkpoint crash can
/// never be chosen during replay when the live run could not see it.
fn load_repair_donor(
    store: &CheckpointStore,
    cfg: &LacbConfig,
    num_brokers: usize,
    max_generation: usize,
) -> Option<(usize, Lacb)> {
    for (day, path) in store.generations() {
        if day > max_generation {
            continue;
        }
        let donor = store
            .read(&path)
            .ok()
            .and_then(|text| parse_v2_section(&text, "matcher").ok())
            .and_then(|section| {
                Lacb::read_state(&mut section.lines(), cfg.clone(), num_brokers).ok()
            });
        if let Some(donor) = donor {
            return Some((day, donor));
        }
    }
    None
}

/// Repair any audit-quarantined brokers: selective per-broker restore
/// from the newest good checkpoint generation when one exists, falling
/// back to re-initialization. No-op on a healthy matcher.
fn repair_via_store(
    assigner: &mut ResilientAssigner<Lacb>,
    store: Option<&CheckpointStore>,
    cfg: &LacbConfig,
    num_brokers: usize,
    current_day: usize,
) {
    if !assigner.primary().has_quarantined_brokers() {
        return;
    }
    match store.and_then(|s| load_repair_donor(s, cfg, num_brokers, current_day)) {
        Some((generation, donor)) => assigner.primary_mut().repair_from_donor(&donor, generation),
        None => assigner.repair_quarantined_brokers(),
    }
}

/// A serving node's storage: the checkpoint store, the WAL, and (when
/// [`DurableConfig::storage`] or [`crate::ReplicationConfig::storage`]
/// is set) the degraded-mode [`StorageGuard`] that absorbs their
/// failures. The durable loop and the replicated primary both write
/// through it.
///
/// Without a guard every method keeps the legacy contract — the first
/// storage failure is a typed [`RecoveryError`]. With a guard a failing
/// component handle is dropped (`store`/`wal` become `None`), the fault
/// trips the guard's breaker, and appends flow into the bounded replay
/// buffer until a day-boundary resync writes a fresh full checkpoint
/// plus a fresh WAL and re-arms both handles. Degraded paths never
/// touch the matcher, the platform, or the ledger, so a degraded run's
/// serving results stay bit-identical to a fault-free run.
pub(crate) struct DiskState {
    vfs: Arc<dyn Vfs>,
    dir: PathBuf,
    pub(crate) store: Option<CheckpointStore>,
    wal: Option<Wal>,
    guard: Option<StorageGuard>,
    /// The batch whose guard tick has been taken.
    ticked: Option<(usize, usize)>,
}

impl DiskState {
    /// Open the store in `dir` and recover its WAL through `vfs`.
    /// With a guard, startup failures degrade instead of aborting: the
    /// run starts diskless and resyncs once the disk heals. Recovered
    /// WAL records are kept for replay even when the handles degrade.
    pub(crate) fn open(
        vfs: &Arc<dyn Vfs>,
        dir: &Path,
        storage: Option<StorageConfig>,
    ) -> Result<(Self, Vec<WalRecord>, WalRecovery), RecoveryError> {
        let mut guard = storage.map(StorageGuard::new);
        let store = match CheckpointStore::open_with(vfs.clone(), dir, CHECKPOINT_GENERATIONS) {
            Ok(s) => Some(s),
            Err(e) => match guard.as_mut() {
                Some(g) => {
                    g.storage_fault(FaultSite::Startup, &e.to_string());
                    None
                }
                None => return Err(e.into()),
            },
        };
        let (wal, records, recovery) = match Wal::recover_with(vfs.clone(), &dir.join(WAL_FILE)) {
            Ok((w, records, recovery)) => (Some(w), records, recovery),
            Err(e) => match guard.as_mut() {
                Some(g) => {
                    g.storage_fault(FaultSite::Startup, &e.to_string());
                    (None, Vec::new(), WalRecovery::default())
                }
                None => return Err(e.into()),
            },
        };
        // A store that failed to open cannot host the next checkpoint,
        // so even a healthy WAL must stop accepting appends: drop the
        // handle and run degraded from birth.
        let wal = if guard.as_ref().is_some_and(|g| !g.durable()) { None } else { wal };
        let disk =
            DiskState { vfs: vfs.clone(), dir: dir.to_path_buf(), store, wal, guard, ticked: None };
        Ok((disk, records, recovery))
    }

    /// Advance the guard's integer clock once per batch: the batch's
    /// first record (its admission, or else its assignment) ticks it.
    pub(crate) fn tick(&mut self, rec: &WalRecord) {
        let (_, day, batch) = unit_of(rec);
        if let Some(b) = batch.filter(|&b| self.ticked != Some((day, b))) {
            if let Some(g) = self.guard.as_mut() {
                g.advance_tick();
            }
            self.ticked = Some((day, b));
        }
    }

    /// Append a record: to the WAL while Durable, to the bounded replay
    /// buffer while degraded. Only the guard-less legacy path can fail.
    pub(crate) fn append(&mut self, rec: &WalRecord) -> Result<Logged, RecoveryError> {
        if self.guard.is_none() {
            let wal = self.wal.as_mut().expect("legacy path always holds a WAL");
            wal.append(rec)?;
            return Ok(Logged::Disk);
        }
        if self.guard.as_ref().is_some_and(|g| g.durable()) {
            let outcome = self.wal.as_mut().expect("durable mode holds a WAL").append(rec);
            match outcome {
                Ok(()) => return Ok(Logged::Disk),
                Err(e) => {
                    self.wal = None;
                    let g = self.guard.as_mut().expect("guard checked above");
                    g.storage_fault(FaultSite::WalAppend, &e.to_string());
                }
            }
        }
        let g = self.guard.as_mut().expect("guard checked above");
        g.buffer_record(rec.clone());
        Ok(Logged::Buffered)
    }

    /// Day-boundary persistence; `boundary` is the next day to run
    /// (`d + 1`). While Durable: save the checkpoint and log the WAL
    /// marker (failures degrade). While Degraded: attempt a resync iff
    /// the breaker's cooldown has elapsed. Returns how the checkpoint
    /// marker was logged, or `None` when the boundary stayed diskless.
    pub(crate) fn checkpoint(
        &mut self,
        boundary: usize,
        text: &str,
        write_crash: Option<WriteCrash>,
    ) -> Result<Option<Logged>, RecoveryError> {
        if self.guard.is_none() {
            let store = self.store.as_ref().expect("legacy path always holds a store");
            store.save(boundary, text, write_crash)?;
            let wal = self.wal.as_mut().expect("legacy path always holds a WAL");
            wal.append(&WalRecord::Checkpoint { next_day: boundary })?;
            return Ok(Some(Logged::Disk));
        }
        match self.guard.as_ref().expect("guard checked above").mode() {
            StorageMode::Durable => {
                let store = self.store.as_ref().expect("durable mode holds a store");
                match store.save(boundary, text, write_crash) {
                    Ok(report) => {
                        self.guard
                            .as_mut()
                            .expect("guard checked above")
                            .note_prune_warnings(report.warnings.len());
                        Ok(Some(self.append(&WalRecord::Checkpoint { next_day: boundary })?))
                    }
                    Err(e) => {
                        self.guard
                            .as_mut()
                            .expect("guard checked above")
                            .storage_fault(FaultSite::CheckpointSave, &e.to_string());
                        Ok(None)
                    }
                }
            }
            StorageMode::Degraded => {
                if self.guard.as_mut().expect("guard checked above").wants_resync() {
                    self.guard.as_mut().expect("guard checked above").begin_resync();
                    self.try_resync(boundary, text, write_crash);
                }
                Ok(None)
            }
            StorageMode::Resyncing => {
                unreachable!("a resync attempt completes or fails within its day boundary")
            }
        }
    }

    /// One resync attempt: make sure the store is open, write a fresh
    /// full checkpoint, then start a fresh WAL whose first record is
    /// the checkpoint marker. Any failure returns to Degraded and
    /// restarts the cooldown. Stale WAL content left by a failure here
    /// is harmless: recovery drops records before the restored
    /// checkpoint's boundary.
    fn try_resync(&mut self, boundary: usize, text: &str, write_crash: Option<WriteCrash>) {
        if self.store.is_none() {
            match CheckpointStore::open_with(self.vfs.clone(), &self.dir, CHECKPOINT_GENERATIONS) {
                Ok(s) => self.store = Some(s),
                Err(e) => {
                    self.guard
                        .as_mut()
                        .expect("resync runs under a guard")
                        .resync_failed(&e.to_string());
                    return;
                }
            }
        }
        let saved = self.store.as_ref().expect("opened above").save(boundary, text, write_crash);
        let report = match saved {
            Ok(r) => r,
            Err(e) => {
                self.guard
                    .as_mut()
                    .expect("resync runs under a guard")
                    .resync_failed(&e.to_string());
                return;
            }
        };
        let fresh = Wal::create_with(self.vfs.clone(), &self.dir.join(WAL_FILE))
            .and_then(|mut w| w.append(&WalRecord::Checkpoint { next_day: boundary }).map(|()| w));
        match fresh {
            Ok(w) => {
                self.wal = Some(w);
                let g = self.guard.as_mut().expect("resync runs under a guard");
                g.note_prune_warnings(report.warnings.len());
                g.resync_complete();
            }
            Err(e) => {
                self.wal = None;
                self.guard
                    .as_mut()
                    .expect("resync runs under a guard")
                    .resync_failed(&e.to_string());
            }
        }
    }

    /// Drop the WAL's records of days before `day`; returns how many
    /// went. Only a Durable WAL is pruned: a degraded one is stale. A
    /// failed prune is a WAL write fault — fatal without a guard, a
    /// degradation with one.
    pub(crate) fn prune(&mut self, day: usize) -> Result<u64, RecoveryError> {
        let durable = self.guard.as_ref().is_none_or(StorageGuard::durable);
        let Some(wal) = self.wal.as_mut().filter(|_| durable) else {
            return Ok(0);
        };
        match (wal.prune_to_watermark(day), self.guard.as_mut()) {
            (Ok(n), _) => Ok(n as u64),
            (Err(e), None) => Err(e.into()),
            (Err(e), Some(g)) => {
                g.storage_fault(FaultSite::WalAppend, &e.to_string());
                self.wal = None;
                Ok(0)
            }
        }
    }

    /// Consume the guard into its final accounting (`None` when storage
    /// fault tolerance was not enabled).
    pub(crate) fn finish(mut self) -> Option<platform_sim::StorageStats> {
        self.guard.take().map(StorageGuard::finish)
    }
}

/// The position of a record in the run: its kind, day and batch.
fn unit_of(rec: &WalRecord) -> (std::mem::Discriminant<WalRecord>, usize, Option<usize>) {
    let batch = match rec {
        WalRecord::Admission { batch, .. } | WalRecord::Batch { batch, .. } => Some(*batch),
        _ => None,
    };
    (std::mem::discriminant(rec), rec.day(), batch)
}

/// The durable path's sink: WAL-before-apply for live units,
/// recompute-and-verify for the units the replay tail still covers.
struct WalSink {
    disk: DiskState,
    /// Logged records at or after the restored boundary, not yet replayed.
    tail: VecDeque<WalRecord>,
    crash: Option<CrashPoint>,
    /// Whether the last committed record came from the replay tail.
    replaying: bool,
    replayed_batches: usize,
    donor_cfg: LacbConfig,
    num_brokers: usize,
}

impl Sink<ResilientAssigner<Lacb>> for WalSink {
    type Error = RecoveryError;

    fn commit(&mut self, rec: &WalRecord) -> Result<Option<Logged>, RecoveryError> {
        let (_, day, batch) = unit_of(rec);
        self.disk.tick(rec);
        self.replaying = self.tail.front().is_some_and(|logged| unit_of(logged) == unit_of(rec));
        if self.replaying {
            let logged = self.tail.pop_front().expect("front just matched");
            if logged != *rec {
                let detail = format!("logged {logged:?} recomputed {rec:?}");
                return Err(RecoveryError::Divergence { day, batch, detail });
            }
            if matches!(rec, WalRecord::Batch { .. }) {
                self.replayed_batches += 1;
            }
            return Ok(None);
        }
        if let (WalRecord::Batch { .. }, Some(CrashPoint::DuringWalAppend { day: d, batch: b })) =
            (rec, self.crash)
        {
            // A degraded run holds no WAL: the torn-append crash window
            // simply does not exist then.
            if (d, Some(b)) == (day, batch) {
                if let Some(w) = self.disk.wal.as_mut() {
                    w.append_torn(rec);
                }
            }
        }
        let logged = self.disk.append(rec)?;
        if let (
            WalRecord::Admission { .. },
            Some(CrashPoint::AfterAdmission { day: d, batch: b }),
        ) = (rec, self.crash)
        {
            if (d, Some(b)) == (day, batch) {
                panic!("injected crash: after admission of batch {b} day {d}");
            }
        }
        Ok(Some(logged))
    }

    fn applied(&mut self, day: usize, batch: usize) {
        if !self.replaying && self.crash == Some(CrashPoint::AfterBatch { day, batch }) {
            panic!("injected crash: after batch {batch} of day {day}");
        }
    }

    /// Per-broker restore from the newest good generation.
    fn repair(&mut self, assigner: &mut ResilientAssigner<Lacb>, day: usize) {
        let store = self.disk.store.as_ref();
        repair_via_store(assigner, store, &self.donor_cfg, self.num_brokers, day);
    }
}

/// The durable path behind [`run_durable`] and [`run_overload_durable`]:
/// open the disk, restore the last good checkpoint, then step the core
/// through the WAL sink, cutting a checkpoint at every day boundary.
fn serve_durable(
    dataset: &Dataset,
    cfg: LacbConfig,
    rcfg: ResilienceConfig,
    ocfg: Option<&OverloadConfig>,
    plan: FaultPlan,
    dcfg: &DurableConfig,
) -> Result<DurableOutcome, RecoveryError> {
    let spiked = dataset.with_batch_spikes(&plan);
    let mut platform = core::platform(&spiked, plan);
    let num_brokers = platform.num_brokers();

    let (disk, records, wal_recovery) = DiskState::open(&dcfg.vfs, &dcfg.dir, dcfg.storage)?;
    let (restored, generations_skipped) =
        restore_last_good(disk.store.as_ref(), &cfg, &mut platform);
    let recovered_from = restored.as_ref().map(|(day, _)| *day);
    let (matcher, ledger, progress, pending, stats, snapshot) = match restored {
        Some((_, r)) => (r.matcher, r.ledger, r.progress, r.pending_feedback, r.stats, r.overload),
        None => (
            Lacb::new(cfg.clone()),
            BrokerLedger::new(num_brokers),
            RunProgress::default(),
            None,
            ResilienceStats::default(),
            None,
        ),
    };
    let mut assigner = ResilientAssigner::new(matcher, rcfg);
    assigner.restore_channel(pending, stats);

    // The replay tail: records at or after the restored boundary.
    // Checkpoint marks are bookkeeping, not state, so they are dropped.
    let tail: VecDeque<WalRecord> = records
        .into_iter()
        .filter(|r| !matches!(r, WalRecord::Checkpoint { .. }) && r.day() >= progress.next_day)
        .collect();
    if let Some(r) = tail.iter().find(|r| r.day() >= spiked.days.len()) {
        return Err(RecoveryError::Horizon(format!(
            "WAL record for day {} but horizon has {} days",
            r.day(),
            spiked.days.len()
        )));
    }
    let mut sink = WalSink {
        disk,
        tail,
        crash: dcfg.crash,
        replaying: false,
        replayed_batches: 0,
        donor_cfg: cfg,
        num_brokers,
    };
    let mut engine = Engine::new(&spiked, platform, &mut assigner);
    engine.ledger = ledger;
    engine.progress = progress;
    engine.overload = ocfg.map(|ocfg| match &snapshot {
        Some(snap) => OverloadState::from_snapshot(ocfg.clone(), snap),
        None => OverloadState::new(ocfg.clone()),
    });

    loop {
        let d = match engine.step(&mut sink)? {
            Unit::Done => break,
            Unit::DayEnd(d) => d,
            _ => continue,
        };
        if dcfg.crash == Some(CrashPoint::BeforeCheckpoint { day: d }) {
            panic!("injected crash: before checkpoint of day {d}");
        }
        let write_crash = match dcfg.crash {
            Some(CrashPoint::DuringCheckpointWrite { day }) if day == d => {
                Some(WriteCrash::MidWrite)
            }
            Some(CrashPoint::BeforeCheckpointRename { day }) if day == d => {
                Some(WriteCrash::BeforeRename)
            }
            _ => None,
        };
        let text = engine.checkpoint().to_v2_text();
        let logged = sink.disk.checkpoint(d + 1, &text, write_crash)?;
        core::observe_wal(engine.overload.as_mut(), logged);
    }

    let mut metrics = engine.finish();
    metrics.storage = sink.disk.finish();
    Ok(DurableOutcome {
        metrics,
        final_state: core::learned_state(&assigner),
        recovered_from,
        generations_skipped,
        replayed_batches: sink.replayed_batches,
        wal_recovery,
    })
}

/// Run (or recover and finish) a durable resilient LACB run over the
/// whole horizon. Idempotent: killed at any point — including the
/// crash points [`DurableConfig::crash`] can inject — calling it again
/// on the same directory completes the run with bit-identical results.
pub fn run_durable(
    dataset: &Dataset,
    cfg: LacbConfig,
    rcfg: ResilienceConfig,
    plan: FaultPlan,
    dcfg: &DurableConfig,
) -> Result<DurableOutcome, RecoveryError> {
    serve_durable(dataset, cfg, rcfg, None, plan, dcfg)
}

/// Run (or recover and finish) an *overload-protected* durable run:
/// [`run_durable`]'s crash consistency with the admission/shedding/
/// breaker pipeline of [`crate::overload::run_overload`] in front of
/// the matcher.
///
/// Two extra guarantees over the plain durable loop:
///
/// * each tick's admission decision (the drained request ids) is
///   logged as a [`WalRecord::Admission`] **before** the batch is
///   matched or executed, so a crash between admission and apply —
///   [`CrashPoint::AfterAdmission`] injects exactly that window —
///   can never lose or double-assign an admitted request: recovery
///   recomputes the deterministic admission and verifies it against
///   the log, then re-executes the batch that never applied;
/// * the whole overload-controller state (queue, token bucket,
///   breakers, brownout ladder, spike EWMA, accounting) rides the
///   day-boundary checkpoint and is restored bit-identically.
pub fn run_overload_durable(
    dataset: &Dataset,
    cfg: LacbConfig,
    rcfg: ResilienceConfig,
    ocfg: &OverloadConfig,
    plan: FaultPlan,
    dcfg: &DurableConfig,
) -> Result<DurableOutcome, RecoveryError> {
    serve_durable(dataset, cfg, rcfg, Some(ocfg), plan, dcfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{assert_bit_identical, chaos_plan, dataset, reference, scratch};
    use platform_sim::seeded_schedule;

    #[test]
    fn uninterrupted_durable_run_matches_run_chaos() {
        let ds = dataset(71);
        let plan = chaos_plan(43);
        let dir = scratch("uninterrupted");
        let out = run_durable(
            &ds,
            LacbConfig::default(),
            ResilienceConfig::default(),
            plan,
            &DurableConfig::at(&dir),
        )
        .unwrap();
        let (reference_metrics, reference_state) = reference(&ds, plan);
        assert_bit_identical(&out.metrics, &reference_metrics);
        assert_eq!(out.final_state, reference_state);
        assert_eq!(out.recovered_from, None);
        assert_eq!(out.replayed_batches, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_crash_point_variant_recovers_bit_identically() {
        let ds = dataset(73);
        let plan = chaos_plan(47);
        let (reference_metrics, reference_state) = reference(&ds, plan);
        let batches: Vec<usize> = ds.days.iter().map(|d| d.len()).collect();
        // 5 points = one per variant; the CLI harness scales this to 10+.
        for (i, point) in seeded_schedule(97, &batches, 5).into_iter().enumerate() {
            let dir = scratch(&format!("variant-{i}"));
            let mut dcfg = DurableConfig::at(&dir);
            dcfg.crash = Some(point);
            let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_durable(&ds, LacbConfig::default(), ResilienceConfig::default(), plan, &dcfg)
            }));
            assert!(crashed.is_err(), "crash point {point:?} did not fire");
            dcfg.crash = None;
            let out =
                run_durable(&ds, LacbConfig::default(), ResilienceConfig::default(), plan, &dcfg)
                    .unwrap_or_else(|e| panic!("recovery after {point:?} failed: {e}"));
            assert_bit_identical(&out.metrics, &reference_metrics);
            assert_eq!(out.final_state, reference_state, "state diverged after {point:?}");
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn corrupt_newest_checkpoint_falls_back_to_last_known_good() {
        let ds = dataset(79);
        let plan = chaos_plan(53);
        let dir = scratch("fallback");
        // Crash right before day 2's checkpoint: generations 1 and 2 exist.
        let mut dcfg = DurableConfig::at(&dir);
        dcfg.crash = Some(CrashPoint::BeforeCheckpoint { day: 2 });
        let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_durable(&ds, LacbConfig::default(), ResilienceConfig::default(), plan, &dcfg)
        }));
        assert!(crashed.is_err());
        // Vandalise the newest checkpoint: flip one byte in the middle.
        let store = CheckpointStore::open(&dir, CHECKPOINT_GENERATIONS).unwrap();
        let (newest_day, newest_path) = store.generations()[0].clone();
        assert_eq!(newest_day, 2);
        let mut bytes = std::fs::read(&newest_path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&newest_path, &bytes).unwrap();
        dcfg.crash = None;
        let out = run_durable(&ds, LacbConfig::default(), ResilienceConfig::default(), plan, &dcfg)
            .unwrap();
        assert_eq!(out.recovered_from, Some(1), "must fall back past the corrupt generation");
        assert_eq!(out.generations_skipped, 1);
        let (reference_metrics, reference_state) = reference(&ds, plan);
        assert_bit_identical(&out.metrics, &reference_metrics);
        assert_eq!(out.final_state, reference_state);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn all_checkpoints_corrupt_degrades_to_fresh_start_with_full_replay() {
        let ds = dataset(83);
        let plan = chaos_plan(59);
        let dir = scratch("fresh-replay");
        let mut dcfg = DurableConfig::at(&dir);
        dcfg.crash = Some(CrashPoint::BeforeCheckpoint { day: 1 });
        let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_durable(&ds, LacbConfig::default(), ResilienceConfig::default(), plan, &dcfg)
        }));
        assert!(crashed.is_err());
        let store = CheckpointStore::open(&dir, CHECKPOINT_GENERATIONS).unwrap();
        for (_, path) in store.generations() {
            std::fs::write(&path, b"caam-ckpt v2\ngarbage\n").unwrap();
        }
        dcfg.crash = None;
        let out = run_durable(&ds, LacbConfig::default(), ResilienceConfig::default(), plan, &dcfg)
            .unwrap();
        assert_eq!(out.recovered_from, None, "all generations corrupt: fresh start");
        assert!(out.replayed_batches > 0, "fresh start must still replay the WAL");
        let (reference_metrics, reference_state) = reference(&ds, plan);
        assert_bit_identical(&out.metrics, &reference_metrics);
        assert_eq!(out.final_state, reference_state);
        std::fs::remove_dir_all(&dir).ok();
    }

    fn overload_reference(
        ds: &Dataset,
        ocfg: &OverloadConfig,
        plan: FaultPlan,
    ) -> crate::overload::OverloadOutcome {
        crate::overload::run_overload(
            ds,
            LacbConfig::default(),
            ResilienceConfig::default(),
            ocfg,
            plan,
        )
    }

    #[test]
    fn uninterrupted_overload_durable_matches_in_memory_overload() {
        let base = dataset(101);
        let ramp = platform_sim::ramp_dataset(&base, &[1, 8], 5);
        let ocfg = OverloadConfig::sized_for(&base);
        let plan = chaos_plan(63);
        let dir = scratch("overload-uninterrupted");
        let out = run_overload_durable(
            &ramp.dataset,
            LacbConfig::default(),
            ResilienceConfig::default(),
            &ocfg,
            plan,
            &DurableConfig::at(&dir),
        )
        .unwrap();
        let reference = overload_reference(&ramp.dataset, &ocfg, plan);
        assert_bit_identical(&out.metrics, &reference.metrics);
        assert_eq!(out.final_state, reference.final_state);
        assert_eq!(out.recovered_from, None);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crash_between_admission_and_apply_loses_no_admitted_request() {
        let base = dataset(103);
        let ramp = platform_sim::ramp_dataset(&base, &[1, 8], 9);
        let ocfg = OverloadConfig::sized_for(&base);
        let plan = chaos_plan(67);
        let reference = overload_reference(&ramp.dataset, &ocfg, plan);
        let spiked = ramp.dataset.with_batch_spikes(&plan);
        for (i, day) in (0..spiked.days.len()).enumerate() {
            let batch = spiked.days[day].len() - 1;
            let dir = scratch(&format!("overload-after-admission-{i}"));
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
            assert!(crashed.is_err(), "AfterAdmission d{day} b{batch} did not fire");
            dcfg.crash = None;
            let out = run_overload_durable(
                &ramp.dataset,
                LacbConfig::default(),
                ResilienceConfig::default(),
                &ocfg,
                plan,
                &dcfg,
            )
            .unwrap_or_else(|e| panic!("recovery after AfterAdmission d{day} failed: {e}"));
            // Bit-identical accounting proves no admitted request was
            // lost or double-assigned across the crash window.
            assert_bit_identical(&out.metrics, &reference.metrics);
            assert_eq!(out.final_state, reference.final_state);
            let ov = out.metrics.overload.as_ref().unwrap();
            assert!(ov.accounting_balanced());
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn overload_durable_recovers_from_every_seeded_crash_variant() {
        let base = dataset(107);
        let ramp = platform_sim::ramp_dataset(&base, &[1, 16], 13);
        let ocfg = OverloadConfig::sized_for(&base);
        let plan = chaos_plan(71);
        let reference = overload_reference(&ramp.dataset, &ocfg, plan);
        let spiked = ramp.dataset.with_batch_spikes(&plan);
        let batches: Vec<usize> = spiked.days.iter().map(|d| d.len()).collect();
        for (i, point) in seeded_schedule(113, &batches, 5).into_iter().enumerate() {
            let dir = scratch(&format!("overload-variant-{i}"));
            let mut dcfg = DurableConfig::at(&dir);
            dcfg.crash = Some(point);
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
            assert!(crashed.is_err(), "crash point {point:?} did not fire");
            dcfg.crash = None;
            let out = run_overload_durable(
                &ramp.dataset,
                LacbConfig::default(),
                ResilienceConfig::default(),
                &ocfg,
                plan,
                &dcfg,
            )
            .unwrap_or_else(|e| panic!("recovery after {point:?} failed: {e}"));
            assert_bit_identical(&out.metrics, &reference.metrics);
            assert_eq!(out.final_state, reference.final_state, "state diverged after {point:?}");
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    fn flaky_cfg(seed: u64) -> platform_sim::StorageFaultConfig {
        // Aggressive point faults so a 3-day run is essentially
        // guaranteed to trip the guard at least once.
        platform_sim::StorageFaultConfig {
            seed,
            append_enospc: 0.5,
            fsync_fail: 0.3,
            rename_fail: 0.3,
            ..platform_sim::StorageFaultConfig::default()
        }
    }

    fn dead_disk_cfg(seed: u64) -> platform_sim::StorageFaultConfig {
        // Every window of every op fails: the disk is simply gone.
        platform_sim::StorageFaultConfig {
            seed,
            disk_gone: 1.0,
            disk_gone_every: 1,
            disk_gone_span: 1,
            ..platform_sim::StorageFaultConfig::default()
        }
    }

    #[test]
    fn degraded_run_stays_bit_identical_with_exact_accounting() {
        let ds = dataset(131);
        let plan = chaos_plan(77);
        let dir = scratch("degraded-identical");
        let dcfg = DurableConfig::at(&dir)
            .with_vfs(Arc::new(platform_sim::FaultVfs::new(flaky_cfg(9))))
            .with_storage(StorageConfig::default());
        let out = run_durable(&ds, LacbConfig::default(), ResilienceConfig::default(), plan, &dcfg)
            .unwrap();
        let storage = out.metrics.storage.as_ref().expect("guard enabled");
        assert!(storage.faults > 0, "fault config never fired: {storage:?}");
        assert!(storage.accounting_balanced(), "unbalanced: {storage:?}");
        // Degraded paths never touch the matcher/platform/ledger, so
        // serving results match a fault-free in-memory run exactly.
        let (reference_metrics, reference_state) = reference(&ds, plan);
        assert_bit_identical(&out.metrics, &reference_metrics);
        assert_eq!(out.final_state, reference_state);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn single_fault_degrades_then_resyncs_back_to_durable() {
        let ds = dataset(137);
        let plan = chaos_plan(79);
        let dir = scratch("resync-durable");
        // Exactly one injected ENOSPC on the 6th WAL append; the disk
        // is healthy otherwise, so the cooldown's first day-boundary
        // probe must resync and re-arm the WAL.
        let fault = platform_sim::SingleFault {
            op: durability::VfsOp::Append,
            index: 5,
            kind: platform_sim::SingleFaultKind::Enospc,
        };
        let dcfg = DurableConfig::at(&dir)
            .with_vfs(Arc::new(platform_sim::FaultVfs::single(fault)))
            .with_storage(StorageConfig::default());
        let out = run_durable(&ds, LacbConfig::default(), ResilienceConfig::default(), plan, &dcfg)
            .unwrap();
        let storage = out.metrics.storage.as_ref().expect("guard enabled");
        assert_eq!(storage.faults, 1, "{storage:?}");
        assert_eq!(storage.wal_append_failures, 1);
        assert_eq!(storage.degraded_entries, 1);
        assert_eq!(storage.resyncs_completed, 1, "{storage:?}");
        assert_eq!(storage.final_mode, StorageMode::Durable);
        assert!(storage.buffered_total > 0, "records must buffer while degraded");
        assert_eq!(storage.covered_by_resync, storage.buffered_total);
        assert_eq!(storage.buffered_final, 0);
        assert!(storage.accounting_balanced(), "unbalanced: {storage:?}");
        let (reference_metrics, reference_state) = reference(&ds, plan);
        assert_bit_identical(&out.metrics, &reference_metrics);
        assert_eq!(out.final_state, reference_state);
        // The resync left a healthy store + WAL behind: a plain re-run
        // on the same directory must recover, not start fresh.
        let resumed = run_durable(
            &ds,
            LacbConfig::default(),
            ResilienceConfig::default(),
            plan,
            &DurableConfig::at(&dir),
        )
        .unwrap();
        assert!(resumed.recovered_from.is_some(), "resynced state must be recoverable");
        assert_bit_identical(&resumed.metrics, &reference_metrics);
        assert_eq!(resumed.final_state, reference_state);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dead_disk_serves_diskless_from_birth() {
        let ds = dataset(139);
        let plan = chaos_plan(83);
        let dir = scratch("diskless-birth");
        let dcfg = DurableConfig::at(&dir)
            .with_vfs(Arc::new(platform_sim::FaultVfs::new(dead_disk_cfg(5))))
            .with_storage(StorageConfig::default());
        let out = run_durable(&ds, LacbConfig::default(), ResilienceConfig::default(), plan, &dcfg)
            .unwrap();
        assert_eq!(out.recovered_from, None);
        let storage = out.metrics.storage.as_ref().expect("guard enabled");
        assert_eq!(storage.final_mode, StorageMode::Degraded, "{storage:?}");
        assert_eq!(storage.resyncs_completed, 0);
        assert!(storage.resync_attempts > 0, "cooldown must keep probing: {storage:?}");
        assert!(storage.accounting_balanced(), "unbalanced: {storage:?}");
        let (reference_metrics, reference_state) = reference(&ds, plan);
        assert_bit_identical(&out.metrics, &reference_metrics);
        assert_eq!(out.final_state, reference_state);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn storage_fault_without_guard_stays_a_typed_error() {
        let ds = dataset(149);
        let plan = chaos_plan(87);
        let dir = scratch("legacy-typed-error");
        let dcfg = DurableConfig::at(&dir)
            .with_vfs(Arc::new(platform_sim::FaultVfs::new(dead_disk_cfg(3))));
        let err = run_durable(&ds, LacbConfig::default(), ResilienceConfig::default(), plan, &dcfg)
            .unwrap_err();
        assert!(
            matches!(err, RecoveryError::Store(_) | RecoveryError::Wal(_)),
            "expected a typed storage error, got {err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn overload_durable_survives_storage_faults_with_balanced_accounting() {
        let base = dataset(151);
        let ramp = platform_sim::ramp_dataset(&base, &[1, 8], 17);
        let ocfg = OverloadConfig::sized_for(&base);
        let plan = chaos_plan(91);
        let dir = scratch("overload-degraded");
        let dcfg = DurableConfig::at(&dir)
            .with_vfs(Arc::new(platform_sim::FaultVfs::new(flaky_cfg(21))))
            .with_storage(StorageConfig::default());
        let out = run_overload_durable(
            &ramp.dataset,
            LacbConfig::default(),
            ResilienceConfig::default(),
            &ocfg,
            plan,
            &dcfg,
        )
        .unwrap();
        let storage = out.metrics.storage.as_ref().expect("guard enabled");
        assert!(storage.faults > 0, "fault config never fired: {storage:?}");
        assert!(storage.accounting_balanced(), "unbalanced: {storage:?}");
        let ov = out.metrics.overload.as_ref().unwrap();
        assert!(ov.accounting_balanced());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn foreign_wal_is_rejected_not_replayed() {
        let ds = dataset(89);
        let plan = chaos_plan(61);
        let dir = scratch("foreign-wal");
        std::fs::create_dir_all(&dir).unwrap();
        // A WAL from a longer horizon: day 7 does not exist here.
        let mut wal = Wal::create(&dir.join(WAL_FILE)).unwrap();
        wal.append(&WalRecord::DayStart { day: 7 }).unwrap();
        drop(wal);
        let err = run_durable(
            &ds,
            LacbConfig::default(),
            ResilienceConfig::default(),
            plan,
            &DurableConfig::at(&dir),
        )
        .unwrap_err();
        assert!(matches!(err, RecoveryError::Horizon(_)), "got {err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
