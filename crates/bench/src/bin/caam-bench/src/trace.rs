//! The traced core: `lacb::run`'s day/batch loop driven from here through
//! the public `Platform` / `Assigner` / `BrokerLedger` calls, with a span
//! around each call into a layer.
//!
//! Spans live in memory and are written out (JSON lines) only after the
//! run. A span's self time is its duration minus the time its children
//! cover; the day spans' self time is the unattributed time. The same
//! loop with the recorder off is the untraced run the tracing overhead
//! is measured against.

use durability::{CheckpointStore, StdVfs};
use lacb::checkpoint::RunProgress;
use lacb::{Assigner, Checkpoint, Lacb};
use platform_sim::{
    AuditReport, Batch, BrokerLedger, Dataset, Platform, ResilienceStats, StageBreakdown,
};
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder started.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub day: usize,
    pub batch: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An in-memory span recorder with an explicit stack of open spans.
/// A recorder that is off records nothing and reads no clock.
pub struct Recorder {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(on: bool) -> Recorder {
        Recorder { on, origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str, day: usize, batch: Option<usize>) {
        if !self.on {
            return;
        }
        let start_ns = self.now_ns();
        let parent = self.open.last().copied();
        self.spans.push(Span { name, parent, day, batch, start_ns, end_ns: start_ns });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let id = self.open.pop().expect("exit without a matching enter");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Time `f` as a leaf span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        day: usize,
        batch: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        self.enter(name, day, batch);
        let out = f();
        self.exit();
        out
    }

    pub fn finish(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "spans left open");
        self.spans
    }
}

/// Self time of every span: its duration minus its children's. Negative
/// only if children overran their parent, which a closed trace rules out.
pub fn self_times(spans: &[Span]) -> Vec<i64> {
    let mut out: Vec<i64> = spans.iter().map(|s| s.duration_ns() as i64).collect();
    for s in spans {
        if let Some(p) = s.parent {
            out[p] -= s.duration_ns() as i64;
        }
    }
    out
}

/// Whether each span has no children.
pub fn leaves(spans: &[Span]) -> Vec<bool> {
    let mut leaf = vec![true; spans.len()];
    for p in spans.iter().filter_map(|s| s.parent) {
        leaf[p] = false;
    }
    leaf
}

/// Summed duration of the spans named `name`, in milliseconds.
pub fn total_ms(spans: &[Span], name: &str) -> f64 {
    spans.iter().filter(|s| s.name == name).map(Span::duration_ns).sum::<u64>() as f64 * 1e-6
}

/// Write spans as JSON lines.
pub fn write_jsonl(spans: &[Span], path: &Path) -> Result<(), String> {
    let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = std::io::BufWriter::new(file);
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let batch = s.batch.map_or("null".to_string(), |b| b.to_string());
        writeln!(
            out,
            "{{\"id\": {id}, \"parent\": {parent}, \"name\": \"{}\", \"day\": {}, \"batch\": {batch}, \
             \"start_ns\": {}, \"end_ns\": {}}}",
            s.name, s.day, s.start_ns, s.end_ns
        )
        .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    out.flush().map_err(|e| format!("{}: {e}", path.display()))
}

/// What the traced core measured.
pub struct Traced {
    pub spans: Vec<Span>,
    pub utility: f64,
    /// The matcher's sub-stage counters, drained after every call.
    pub breakdown: StageBreakdown,
    pub audit: Option<AuditReport>,
    /// Utility of the same loop served with the recorder off.
    pub untraced_utility: f64,
    /// Per day: wall seconds of the serving loop, traced and untraced
    /// (checkpoints excluded).
    pub traced_day_secs: Vec<f64>,
    pub untraced_day_secs: Vec<f64>,
}

/// One `lacb::run` pipeline, stepped a day at a time.
struct Core<'a> {
    lacb: &'a mut Lacb,
    platform: Platform,
    ledger: BrokerLedger,
    rec: Recorder,
    breakdown: StageBreakdown,
    /// Where the traced pipeline saves a checkpoint at each day boundary;
    /// the untraced one has none.
    store: Option<CheckpointStore>,
    progress: RunProgress,
}

impl<'a> Core<'a> {
    /// A pipeline that records spans and checkpoints only with a store.
    fn new(dataset: &Dataset, lacb: &'a mut Lacb, store: Option<CheckpointStore>) -> Core<'a> {
        let platform = Platform::from_dataset(dataset);
        let ledger = BrokerLedger::new(platform.num_brokers());
        Core {
            lacb,
            platform,
            ledger,
            rec: Recorder::new(store.is_some()),
            breakdown: StageBreakdown::default(),
            store,
            progress: RunProgress::default(),
        }
    }

    /// Serve day `d` in `lacb::run`'s order, with a span around every
    /// call, then cut, encode and save a checkpoint (each in its own
    /// span). Returns the wall seconds of the serving loop alone.
    fn day(&mut self, d: usize, batches: &[Batch]) -> Result<f64, String> {
        let Core { lacb, platform, ledger, rec, breakdown, store, progress } = self;
        let t = Instant::now();
        rec.enter("day", d, None);
        rec.span("platform.begin_day", d, None, || platform.begin_day());
        rec.span("lacb.begin_day", d, None, || lacb.begin_day(platform, d));
        drain(lacb, breakdown);
        for (b, batch) in batches.iter().enumerate() {
            let assignment = rec
                .span("lacb.assign", d, Some(b), || lacb.assign_batch(platform, &batch.requests));
            drain(lacb, breakdown);
            rec.span("platform.execute", d, Some(b), || {
                let outcome = platform.execute_batch(&batch.requests, &assignment);
                ledger.record_batch(&outcome);
            });
        }
        let feedback = rec.span("platform.end_day", d, None, || platform.end_day());
        rec.span("lacb.end_day", d, None, || lacb.end_day(platform, &feedback));
        drain(lacb, breakdown);
        rec.span("lacb.repair", d, None, || lacb.repair_quarantined_brokers());
        ledger.end_day(feedback.realized);
        let loop_secs = t.elapsed().as_secs_f64();

        if let Some(store) = store {
            progress.next_day = d + 1;
            progress.daily_utility.push(feedback.realized);
            let ckpt = rec.span("checkpoint.capture", d, None, || {
                Checkpoint::capture(
                    lacb,
                    platform,
                    ledger,
                    progress,
                    None,
                    &ResilienceStats::default(),
                )
            });
            let text = rec.span("checkpoint.encode", d, None, || ckpt.to_v2_text());
            rec.span("checkpoint.save", d, None, || store.save(d + 1, &text, None))
                .map_err(|e| format!("saving checkpoint for day {d}: {e}"))?;
        }
        rec.exit();
        Ok(loop_secs)
    }
}

fn drain(lacb: &mut Lacb, breakdown: &mut StageBreakdown) {
    if let Some(b) = lacb.take_stage_breakdown() {
        breakdown.absorb(&b);
    }
}

/// Serve `dataset` twice in lockstep, day by day: traced on `traced`
/// (checkpoints into `state_dir`), and with the recorder off on
/// `untraced`. Which pipeline serves a day first alternates, so the two
/// day times compare under the same machine load.
pub fn drive(
    dataset: &Dataset,
    traced: &mut Lacb,
    untraced: &mut Lacb,
    state_dir: &Path,
) -> Result<Traced, String> {
    let store = CheckpointStore::open_with(Arc::new(StdVfs), state_dir, 3)
        .map_err(|e| format!("opening checkpoint store: {e}"))?;
    let mut on = Core::new(dataset, traced, Some(store));
    let mut off = Core::new(dataset, untraced, None);
    let mut traced_day_secs = Vec::with_capacity(dataset.days.len());
    let mut untraced_day_secs = Vec::with_capacity(dataset.days.len());
    for (d, day) in dataset.days.iter().enumerate() {
        if d % 2 == 1 {
            untraced_day_secs.push(off.day(d, day)?);
        }
        traced_day_secs.push(on.day(d, day)?);
        if d % 2 == 0 {
            untraced_day_secs.push(off.day(d, day)?);
        }
    }

    Ok(Traced {
        audit: on.lacb.take_audit_report(),
        spans: on.rec.finish(),
        utility: on.ledger.total_realized(),
        breakdown: on.breakdown,
        untraced_utility: off.ledger.total_realized(),
        traced_day_secs,
        untraced_day_secs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span { name, parent, day: 0, batch: None, start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_children_and_closes_on_the_root() {
        // root [0,100): day [5,95) with leaves [10,30) and [40,90)
        let spans = vec![
            span("horizon", None, 0, 100),
            span("day", Some(0), 5, 95),
            span("lacb.assign", Some(1), 10, 30),
            span("platform.execute", Some(1), 40, 90),
        ];
        let own = self_times(&spans);
        assert_eq!(own, vec![10, 20, 20, 50]);
        assert_eq!(leaves(&spans), vec![false, false, true, true]);
        // Closure: self times partition the root's wall time.
        assert_eq!(own.iter().sum::<i64>(), spans[0].duration_ns() as i64);
        // A child that overran its parent shows as negative self time.
        let broken = vec![span("day", None, 0, 10), span("lacb.assign", Some(0), 0, 12)];
        assert_eq!(self_times(&broken), vec![-2, 12]);
        assert_eq!(total_ms(&spans, "lacb.assign"), 20.0 * 1e-6);
    }

    #[test]
    fn recorder_nests_spans_in_call_order() {
        let mut off = Recorder::new(false);
        off.enter("day", 0, None);
        assert_eq!(off.span("lacb.assign", 0, Some(1), || 5), 5);
        off.exit();
        assert!(off.finish().is_empty());

        let mut rec = Recorder::new(true);
        rec.enter("horizon", 0, None);
        rec.span("lacb.begin_day", 0, None, || std::hint::black_box(1 + 1));
        rec.enter("day", 0, None);
        rec.span("lacb.assign", 0, Some(3), || ());
        rec.exit();
        rec.exit();
        let spans = rec.finish();
        let parents: Vec<Option<usize>> = spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(0), Some(2)]);
        assert_eq!(spans[3].batch, Some(3));
        assert!(spans.iter().all(|s| s.start_ns <= s.end_ns));
        let own = self_times(&spans);
        assert_eq!(own.iter().sum::<i64>(), spans[0].duration_ns() as i64);
        assert!(own.iter().all(|&ns| ns >= 0));
    }
}
