//! Degraded-mode state machine for storage faults.
//!
//! The durable serving loop is write-ahead: it logs every decision
//! before applying it and checkpoints at day boundaries. When the disk
//! starts failing — ENOSPC mid-checkpoint, EIO on an append, a rename
//! that never lands — aborting the run would turn a storage incident
//! into a serving outage. Instead the loop degrades:
//!
//! ```text
//!            storage fault (breaker trips)
//!   Durable ────────────────────────────────▶ Degraded (diskless)
//!      ▲                                          │
//!      │ fresh full checkpoint                    │ breaker cooldown
//!      │ + fresh WAL succeed                      │ elapsed at a day
//!      │                                          ▼ boundary
//!      └───────────────────────────────────── Resyncing
//!                      (a failed resync attempt returns to Degraded
//!                       and restarts the cooldown)
//! ```
//!
//! While Degraded the loop keeps serving in memory — the deterministic
//! pipeline never touches the disk to *compute*, so results stay
//! bit-identical to a fault-free run — and WAL records go into an
//! explicit bounded replay buffer with exact accounting: every record
//! that ever enters the buffer is later still buffered, dropped on
//! overflow (counted), or covered by a completed resync's full
//! checkpoint. Dropping is safe (recovery recomputes from the last
//! good checkpoint), but it is never silent.
//!
//! Re-entry to disk writing is governed by a reused
//! [`admission::CircuitBreaker`] guarding the WAL/checkpoint component:
//! the first failure opens it immediately (`trip_after: 1` — a WAL
//! with a gap cannot satisfy strict sequence replay, so appends must
//! stop at the first hole), the cooldown paces resync probes, and a
//! successful probe closes it. All transitions are deterministic
//! integer-tick events (the tick is the cumulative batch counter)
//! recorded in [`StorageStats`].

use admission::{BreakerConfig, CircuitBreaker};
use durability::WalRecord;
use platform_sim::{StorageMode, StorageStats, StorageTransition};
use std::collections::VecDeque;

/// Breaker for the WAL/checkpoint component. It trips on the **first**
/// failure: a WAL gap would break strict-sequence replay, so writing
/// must stop immediately; the breaker's job is pacing *re-entry* (one
/// probe per 6-batch cooldown), not tolerating repeated failures.
const BREAKER: BreakerConfig =
    BreakerConfig { trip_after: 1, cooldown_ticks: 6, half_open_probes: 1 };

/// Tuning of the degraded-mode machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StorageConfig {
    /// Replay-buffer capacity in records; the oldest record is dropped
    /// (and counted) on overflow.
    pub buffer_cap: usize,
}

impl Default for StorageConfig {
    fn default() -> Self {
        StorageConfig { buffer_cap: 4096 }
    }
}

/// Where a storage fault surfaced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultSite {
    /// A WAL append failed mid-day.
    WalAppend,
    /// A checkpoint save failed at a day boundary.
    CheckpointSave,
    /// The store/WAL could not be opened at startup.
    Startup,
    /// A resync attempt (full checkpoint + fresh WAL) failed.
    Resync,
}

impl FaultSite {
    /// Stable label for transition reasons and reports.
    pub fn label(&self) -> &'static str {
        match self {
            FaultSite::WalAppend => "wal-append",
            FaultSite::CheckpointSave => "checkpoint-save",
            FaultSite::Startup => "startup",
            FaultSite::Resync => "resync",
        }
    }
}

/// The `Durable → Degraded → Resyncing → Durable` machine plus its
/// replay buffer and accounting. Owned by the durable serving loop;
/// the loop reports faults and day boundaries, the guard decides modes.
#[derive(Debug)]
pub struct StorageGuard {
    cfg: StorageConfig,
    breaker: CircuitBreaker,
    mode: StorageMode,
    buffer: VecDeque<WalRecord>,
    stats: StorageStats,
    tick: u64,
}

impl StorageGuard {
    /// A guard starting Durable at tick 0.
    pub fn new(cfg: StorageConfig) -> Self {
        StorageGuard {
            breaker: CircuitBreaker::new(BREAKER),
            cfg,
            mode: StorageMode::Durable,
            buffer: VecDeque::new(),
            stats: StorageStats::default(),
            tick: 0,
        }
    }

    /// Current mode.
    pub fn mode(&self) -> StorageMode {
        self.mode
    }

    /// Is disk writing currently on?
    pub fn durable(&self) -> bool {
        self.mode == StorageMode::Durable
    }

    /// Advance the integer clock by one batch.
    pub fn advance_tick(&mut self) {
        self.tick += 1;
    }

    fn transition(&mut self, to: StorageMode, reason: String) {
        let from = self.mode;
        if from == to {
            return;
        }
        if to == StorageMode::Degraded {
            self.stats.degraded_entries += 1;
        }
        self.stats.transitions.push(StorageTransition { tick: self.tick, from, to, reason });
        self.mode = to;
    }

    /// A storage fault surfaced at `site`: count it, trip the breaker,
    /// and enter Degraded (from any mode).
    pub fn storage_fault(&mut self, site: FaultSite, detail: &str) {
        self.stats.faults += 1;
        match site {
            FaultSite::WalAppend => self.stats.wal_append_failures += 1,
            FaultSite::CheckpointSave | FaultSite::Resync => self.stats.checkpoint_failures += 1,
            FaultSite::Startup => {}
        }
        self.breaker.on_failure(self.tick);
        self.transition(StorageMode::Degraded, format!("{}: {}", site.label(), detail));
    }

    /// Count non-fatal prune/sweep warnings from the checkpoint store.
    pub fn note_prune_warnings(&mut self, n: usize) {
        self.stats.prune_warnings += n as u64;
    }

    /// Hold a record that could not be WAL-appended in the bounded
    /// replay buffer, dropping (and counting) the oldest on overflow.
    pub fn buffer_record(&mut self, rec: WalRecord) {
        self.stats.buffered_total += 1;
        if self.buffer.len() >= self.cfg.buffer_cap.max(1) {
            self.buffer.pop_front();
            self.stats.dropped_overflow += 1;
        }
        self.buffer.push_back(rec);
        self.stats.buffered_peak = self.stats.buffered_peak.max(self.buffer.len() as u64);
    }

    /// Records currently buffered.
    pub fn buffered(&self) -> usize {
        self.buffer.len()
    }

    /// Should the loop attempt a resync now? True only in Degraded with
    /// the breaker's cooldown elapsed (Open→HalfOpen). Called at day
    /// boundaries — checkpoints are day-granular, so that is the only
    /// point where a fresh full checkpoint is available.
    pub fn wants_resync(&mut self) -> bool {
        if self.mode != StorageMode::Degraded {
            return false;
        }
        self.breaker.poll(self.tick);
        self.breaker.allows()
    }

    /// A resync attempt is starting.
    pub fn begin_resync(&mut self) {
        self.stats.resync_attempts += 1;
        self.transition(StorageMode::Resyncing, "resync attempt".to_string());
    }

    /// The resync attempt failed; back to Degraded, cooldown restarts.
    pub fn resync_failed(&mut self, detail: &str) {
        self.storage_fault(FaultSite::Resync, detail);
    }

    /// The resync completed: a fresh full checkpoint and a fresh WAL
    /// are on disk, so every buffered record is covered by it. Close
    /// the breaker and return to Durable.
    pub fn resync_complete(&mut self) {
        self.stats.covered_by_resync += self.buffer.len() as u64;
        self.buffer.clear();
        self.stats.resyncs_completed += 1;
        self.breaker.on_success(self.tick);
        self.transition(StorageMode::Durable, "resync complete".to_string());
    }

    /// Consume the guard into its final accounting.
    pub fn finish(mut self) -> StorageStats {
        self.stats.buffered_final = self.buffer.len() as u64;
        self.stats.final_mode = self.mode;
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(day: usize) -> WalRecord {
        WalRecord::DayStart { day }
    }

    #[test]
    fn full_cycle_durable_degraded_resync_durable() {
        let mut g = StorageGuard::new(StorageConfig::default());
        assert!(g.durable());
        g.advance_tick();
        g.storage_fault(FaultSite::WalAppend, "injected ENOSPC");
        assert_eq!(g.mode(), StorageMode::Degraded);
        g.buffer_record(rec(0));
        g.buffer_record(rec(0));
        // Cooldown (6 ticks) has not elapsed: no resync yet.
        assert!(!g.wants_resync());
        for _ in 0..6 {
            g.advance_tick();
        }
        assert!(g.wants_resync());
        g.begin_resync();
        assert_eq!(g.mode(), StorageMode::Resyncing);
        g.resync_complete();
        assert!(g.durable());
        let stats = g.finish();
        assert_eq!(stats.degraded_entries, 1);
        assert_eq!(stats.resync_attempts, 1);
        assert_eq!(stats.resyncs_completed, 1);
        assert_eq!(stats.buffered_total, 2);
        assert_eq!(stats.covered_by_resync, 2);
        assert_eq!(stats.buffered_final, 0);
        assert_eq!(stats.final_mode, StorageMode::Durable);
        assert!(stats.accounting_balanced());
        // Transition trail: Durable→Degraded→Resyncing→Durable.
        let trail: Vec<(StorageMode, StorageMode)> =
            stats.transitions.iter().map(|t| (t.from, t.to)).collect();
        assert_eq!(
            trail,
            vec![
                (StorageMode::Durable, StorageMode::Degraded),
                (StorageMode::Degraded, StorageMode::Resyncing),
                (StorageMode::Resyncing, StorageMode::Durable),
            ]
        );
        assert_eq!(stats.transitions[0].tick, 1);
        assert!(stats.transitions[0].reason.contains("wal-append"), "{:?}", stats.transitions);
    }

    #[test]
    fn failed_resync_returns_to_degraded_and_restarts_cooldown() {
        let mut g = StorageGuard::new(StorageConfig::default());
        g.storage_fault(FaultSite::CheckpointSave, "injected EIO");
        for _ in 0..6 {
            g.advance_tick();
        }
        assert!(g.wants_resync());
        g.begin_resync();
        g.resync_failed("still broken");
        assert_eq!(g.mode(), StorageMode::Degraded);
        // Cooldown restarted: an immediate retry is not allowed.
        assert!(!g.wants_resync());
        for _ in 0..6 {
            g.advance_tick();
        }
        assert!(g.wants_resync());
        let stats = g.finish();
        assert_eq!(stats.resync_attempts, 1);
        assert_eq!(stats.resyncs_completed, 0);
        assert_eq!(stats.faults, 2);
        assert_eq!(stats.final_mode, StorageMode::Degraded);
        assert!(stats.accounting_balanced());
    }

    #[test]
    fn bounded_buffer_drops_oldest_with_exact_accounting() {
        let mut g = StorageGuard::new(StorageConfig { buffer_cap: 3 });
        g.storage_fault(FaultSite::WalAppend, "x");
        for day in 0..5 {
            g.buffer_record(rec(day));
        }
        assert_eq!(g.buffered(), 3);
        let stats = g.finish();
        assert_eq!(stats.buffered_total, 5);
        assert_eq!(stats.dropped_overflow, 2);
        assert_eq!(stats.buffered_final, 3);
        assert_eq!(stats.buffered_peak, 3);
        assert!(stats.accounting_balanced());
    }

    #[test]
    fn first_failure_trips_immediately() {
        let mut g = StorageGuard::new(StorageConfig::default());
        g.storage_fault(FaultSite::WalAppend, "one strike");
        assert_eq!(g.mode(), StorageMode::Degraded);
        assert!(!g.wants_resync(), "no probe before the cooldown");
    }

    #[test]
    fn resync_only_from_degraded() {
        let mut g = StorageGuard::new(StorageConfig::default());
        assert!(!g.wants_resync(), "durable mode never resyncs");
    }
}
