//! A pass-through [`Vfs`] that counts what the durability layer writes
//! and timestamps each batch's WAL commit.
//!
//! The durable and replicated entry points return no per-batch timings,
//! but both append one `batch <day> <batch> …` WAL record per executed
//! batch, after a `day-start <day>` record. In this closed loop the next
//! batch starts as soon as the previous one commits, so the interval from
//! one commit to the next batch's commit in the same day is that batch's
//! full service time (the first batch of a day counts from `day-start`).
//! The probe adds one clock read and one uncontended lock per append.

use durability::{StdVfs, StorageError, Vfs, WalRecord};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

/// What the probe saw during one serving call.
#[derive(Clone, Debug, Default)]
pub struct IoLog {
    /// WAL records appended.
    pub wal_records: u64,
    /// Bytes appended to the WAL.
    pub wal_bytes: u64,
    /// Bytes written to checkpoint generations (`*.caam` files).
    pub ckpt_bytes: u64,
    /// Per-batch service times in seconds (see the module docs).
    pub commit_intervals: Vec<f64>,
    /// When the last `day-start` or batch commit landed, and the
    /// `(day, batch)` that would follow it directly.
    next: Option<(Instant, usize, usize)>,
}

impl IoLog {
    fn note_append(&mut self, bytes: &[u8]) {
        let now = Instant::now();
        self.wal_records += 1;
        self.wal_bytes += bytes.len() as u64;
        // A WAL line is `<payload> #<crc>`, as `Wal::recover_with` reads it.
        let record = std::str::from_utf8(bytes)
            .ok()
            .and_then(|line| line.rsplit_once(" #"))
            .and_then(|(payload, _)| WalRecord::parse(payload));
        match record {
            Some(WalRecord::DayStart { day }) => self.next = Some((now, day, 0)),
            Some(WalRecord::Batch { day, batch, .. }) => {
                if let Some((then, d, b)) = self.next {
                    if (d, b) == (day, batch) {
                        self.commit_intervals.push((now - then).as_secs_f64());
                    }
                }
                self.next = Some((now, day, batch + 1));
            }
            _ => {}
        }
    }
}

/// The counting filesystem; every operation is [`StdVfs`]'s.
#[derive(Debug, Default)]
pub struct ProbeVfs {
    log: Mutex<IoLog>,
}

impl ProbeVfs {
    /// Hand back everything logged so far and start a fresh log.
    pub fn take(&self) -> IoLog {
        std::mem::take(&mut *self.log.lock().expect("probe log lock poisoned"))
    }

    fn with_log(&self, f: impl FnOnce(&mut IoLog)) {
        f(&mut self.log.lock().expect("probe log lock poisoned"));
    }
}

impl Vfs for ProbeVfs {
    fn read(&self, path: &Path) -> Result<Vec<u8>, StorageError> {
        StdVfs.read(path)
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> Result<(), StorageError> {
        StdVfs.write(path, bytes)?;
        if path.to_string_lossy().contains(".caam") {
            self.with_log(|log| log.ckpt_bytes += bytes.len() as u64);
        }
        Ok(())
    }

    fn append(&self, path: &Path, bytes: &[u8]) -> Result<(), StorageError> {
        StdVfs.append(path, bytes)?;
        self.with_log(|log| log.note_append(bytes));
        Ok(())
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_batch_counts_from_the_commit_before_it() {
        let mut log = IoLog::default();
        for line in [
            "day-start 0 #0",
            "batch 0 0 0 1 3 #0",
            "admission 0 1 1 7 #0",
            "batch 0 1 0 1 3 #0",
            "batch 0 3 0 1 3 #0",
            "day-end 0 00 2 3 #0",
            "batch 1 4 0 1 3 #0",
            "day-start 1 #0",
            "batch 1 0 0 1 3 #0",
            "batch 1 1 0 1 3 #0",
        ] {
            log.note_append(line.as_bytes());
        }
        assert_eq!(log.wal_records, 10);
        // Day 0: batches 0 and 1 (3 skips batch 2); day 1: batches 0 and
        // 1 (batch 4 has no day-start or predecessor before it).
        assert_eq!(log.commit_intervals.len(), 4);
        assert!(log.commit_intervals.iter().all(|&s| s >= 0.0));
        // A line that does not parse (torn, or not a WAL record) is
        // counted but starts no interval.
        log.note_append(b"batch 1 2 0 1 #0");
        log.note_append(b"batch 1 2 0 0 extra #0");
        assert_eq!(log.wal_records, 12);
        assert_eq!(log.commit_intervals.len(), 4);
    }
}
