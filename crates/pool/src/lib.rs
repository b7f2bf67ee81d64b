//! A dependency-free **persistent** worker-pool runtime with
//! *deterministic* work partitioning.
//!
//! The serving core parallelises three hot paths — per-broker capacity
//! scoring, the dense CBS candidate union, and the fused score+select
//! kernel — under one hard constraint: **parallel output must be
//! bit-identical to sequential output**, so the checkpoint/chaos replay
//! machinery keeps producing the same trajectories regardless of
//! `n_threads`. All three go through one entry point, [`map_chunks`],
//! and three design rules make that hold:
//!
//! 1. *Fixed partitioning.* Work is split into contiguous index chunks,
//!    chunk `k` of `parts` covering `len·k/parts .. len·(k+1)/parts` — a
//!    pure function of `(len, parts)`. Which thread executes a chunk is
//!    irrelevant because every item's result depends only on its index,
//!    never on execution order.
//! 2. *Ordered reduction.* Each chunk writes into its own scratch, and
//!    [`map_chunks`] hands the scratches back in chunk order, so the
//!    caller's merge sees results in the sequential loop's order.
//! 3. *Size-derived scheduling.* The adaptive cutoff
//!    ([`adaptive_parallelism_with`]) decides inline-vs-parallel from
//!    input sizes and static work estimates only — never from wall-clock
//!    — so two runs of the same inputs always take the same path.
//!
//! Anything that needs randomness derives a per-item RNG from
//! `(seed, index)` rather than sharing a sequential stream; see
//! `matching::cbs::candidate_union_seeded_with`.
//!
//! ## Runtime, not scoped threads
//!
//! Earlier revisions spawned OS threads inside `std::thread::scope` on
//! every call, which made per-batch hot paths pay thread-creation plus
//! join-barrier costs that dwarfed the per-batch work at small scales —
//! every added thread made serving *slower*. The pool is now a
//! process-wide **persistent runtime**:
//!
//! * Worker threads are created lazily on the first parallel round and
//!   then live for the life of the process, **parked on a condvar**
//!   between rounds. A round costs one wake/park cycle, not a
//!   spawn/join cycle.
//! * Worker count is capped at `hardware_threads() − 1`; the
//!   coordinating thread always participates by draining the shared
//!   injector queue itself, so correctness never depends on how many
//!   workers exist (a single-core host runs every "parallel" round
//!   inline through the coordinator, with zero wakes).
//! * Chunk count stays equal to the *requested* `n_threads` (clamped by
//!   the cutoff), decoupled from the physical worker count — chunking is
//!   semantic (determinism contract), workers are an execution detail.
//!
//! With `n_threads <= 1` every call is one inline chunk on the caller,
//! with no thread, lock, or allocation overhead once its scratch is
//! warm, which is also the default configuration everywhere.

use std::any::Any;
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

/// A lifetime-erased unit of work. Erasure is sound because every round
/// is *completed* (all of its jobs executed) before the submitting call
/// returns — enforced by [`ActiveRound`]'s drop guard even on unwind —
/// so borrowed data outlives every job that references it.
type Job = Box<dyn FnOnce() + Send>;

/// One queued job plus the round it belongs to.
struct Task {
    job: Job,
    round: Arc<Round>,
}

/// Completion tracking for one batch of jobs submitted together.
/// Rounds are independent, so concurrent coordinators (e.g. parallel
/// test threads sharing the global pool) never wait on each other's
/// jobs.
struct Round {
    state: Mutex<RoundState>,
    done_cv: Condvar,
}

struct RoundState {
    /// Jobs submitted but not yet finished.
    left: usize,
    /// First panic payload raised by a job (re-raised by the
    /// coordinator once the round has fully completed).
    panic: Option<Box<dyn Any + Send>>,
}

impl Round {
    fn new() -> Arc<Round> {
        Arc::new(Round {
            state: Mutex::new(RoundState { left: 0, panic: None }),
            done_cv: Condvar::new(),
        })
    }
}

/// Shared worker-facing state: the injector queue and park/wake signal.
struct Shared {
    queue: Mutex<QueueState>,
    work_cv: Condvar,
}

struct QueueState {
    jobs: VecDeque<Task>,
    /// Workers currently parked on `work_cv`.
    idle: usize,
    shutdown: bool,
}

/// Ignore mutex poisoning: jobs run under `catch_unwind`, so a poisoned
/// lock can only come from a panic in pool-internal bookkeeping — in
/// which case the state is still structurally sound and limping on beats
/// cascading aborts through the serving loop.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

// ---------------------------------------------------------------------------
// Global telemetry — monotonic process-wide counters. Pure telemetry:
// nothing reads them back into scheduling decisions, so they cannot
// perturb determinism.

static SPAWNED_TOTAL: AtomicU64 = AtomicU64::new(0);
static LIVE_WORKERS: AtomicU64 = AtomicU64::new(0);
static PARALLEL_ROUNDS: AtomicU64 = AtomicU64::new(0);
static INLINE_ROUNDS: AtomicU64 = AtomicU64::new(0);
static SYNC_NANOS: AtomicU64 = AtomicU64::new(0);

/// Snapshot of the pool's cumulative telemetry counters. Take deltas
/// around a region to attribute pool activity to it (the bench harness
/// does this per serving run).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// OS threads ever spawned by any pool in this process.
    pub spawned_threads: u64,
    /// Worker threads currently alive (parked or executing).
    pub live_threads: u64,
    /// Rounds that dispatched work to the shared queue.
    pub parallel_rounds: u64,
    /// Rounds the adaptive cutoff kept inline despite `n_threads > 1`.
    pub inline_rounds: u64,
    /// Coordinator nanoseconds spent on dispatch/wake/park/join
    /// bookkeeping rather than executing chunk work — the pool's
    /// overhead proxy.
    pub sync_nanos: u64,
}

/// Read the cumulative telemetry counters.
pub fn stats() -> PoolStats {
    PoolStats {
        spawned_threads: SPAWNED_TOTAL.load(Ordering::Relaxed),
        live_threads: LIVE_WORKERS.load(Ordering::Relaxed),
        parallel_rounds: PARALLEL_ROUNDS.load(Ordering::Relaxed),
        inline_rounds: INLINE_ROUNDS.load(Ordering::Relaxed),
        sync_nanos: SYNC_NANOS.load(Ordering::Relaxed),
    }
}

/// The machine's available parallelism (1 when detection fails).
pub fn hardware_threads() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

// ---------------------------------------------------------------------------
// The pool itself.

/// A persistent worker pool: long-lived threads parked between rounds.
///
/// Serving code uses [`map_chunks`], which shares one lazily created
/// process-global pool. Owned pools, driven through [`map_chunks_on`],
/// exist for lifecycle tests and for callers that want explicit worker
/// counts; dropping an owned pool joins its workers cleanly.
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl WorkerPool {
    /// Create a pool with `workers` threads (0 is valid: every round
    /// then runs on the coordinating thread, still in chunk order).
    pub fn new(workers: usize) -> Self {
        let pool = WorkerPool {
            shared: Arc::new(Shared {
                queue: Mutex::new(QueueState { jobs: VecDeque::new(), idle: 0, shutdown: false }),
                work_cv: Condvar::new(),
            }),
            handles: Mutex::new(Vec::new()),
        };
        pool.ensure_workers(workers);
        pool
    }

    /// Grow the pool to at least `target` workers (never shrinks).
    /// Spawning happens at most once per worker for the pool's lifetime —
    /// the steady state of a serving loop spawns nothing.
    pub fn ensure_workers(&self, target: usize) {
        let mut handles = lock(&self.handles);
        while handles.len() < target {
            let shared = Arc::clone(&self.shared);
            SPAWNED_TOTAL.fetch_add(1, Ordering::Relaxed);
            LIVE_WORKERS.fetch_add(1, Ordering::Relaxed);
            let name = format!("pool-worker-{}", handles.len());
            handles.push(
                std::thread::Builder::new()
                    .name(name)
                    .spawn(move || worker_loop(shared))
                    .expect("pool: failed to spawn worker thread"),
            );
        }
    }

    /// Number of worker threads backing this pool.
    pub fn workers(&self) -> usize {
        lock(&self.handles).len()
    }

    /// Workers currently parked on the wake condvar (i.e. idle).
    pub fn idle_workers(&self) -> usize {
        lock(&self.shared.queue).idle
    }

    /// Begin a round of jobs. The returned guard *must* see
    /// [`ActiveRound::finish`] (or be dropped, which blocks until the
    /// round completes) before any data borrowed by its jobs is touched
    /// again — that invariant is what makes the lifetime erasure sound.
    fn begin_round(&self) -> ActiveRound<'_> {
        ActiveRound {
            pool: self,
            round: Round::new(),
            t0: Instant::now(),
            self_exec_nanos: 0,
            finished: false,
        }
    }

    /// Pop one task off the injector queue, if any.
    fn pop_task(&self) -> Option<Task> {
        lock(&self.shared.queue).jobs.pop_front()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut q = lock(&self.shared.queue);
            q.shutdown = true;
        }
        self.shared.work_cv.notify_all();
        for h in lock(&self.handles).drain(..) {
            // A worker can only terminate via shutdown; join failures
            // would mean a panic escaped `catch_unwind`, which the worker
            // loop does not allow.
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: Arc<Shared>) {
    loop {
        let task = {
            let mut q = lock(&shared.queue);
            loop {
                if let Some(t) = q.jobs.pop_front() {
                    break Some(t);
                }
                if q.shutdown {
                    break None;
                }
                q.idle += 1;
                q = shared.work_cv.wait(q).unwrap_or_else(PoisonError::into_inner);
                q.idle -= 1;
            }
        };
        match task {
            Some(t) => execute_task(t),
            None => break,
        }
    }
    LIVE_WORKERS.fetch_sub(1, Ordering::Relaxed);
}

/// Run one task under `catch_unwind` and mark it complete in its round.
/// Panic payloads are parked in the round and re-raised by the
/// coordinator once every job of the round has finished — never from a
/// worker, so a panicking job can neither kill a pooled thread nor let
/// borrowed data dangle.
fn execute_task(t: Task) {
    let result = panic::catch_unwind(AssertUnwindSafe(t.job));
    let mut st = lock(&t.round.state);
    if let Err(p) = result {
        if st.panic.is_none() {
            st.panic = Some(p);
        }
    }
    st.left -= 1;
    if st.left == 0 {
        t.round.done_cv.notify_all();
    }
}

/// An in-flight round on a pool. Completion is guaranteed before the
/// guard goes away: [`finish`](ActiveRound::finish) on the normal path,
/// [`Drop`] on unwind.
struct ActiveRound<'p> {
    pool: &'p WorkerPool,
    round: Arc<Round>,
    t0: Instant,
    /// Nanoseconds the coordinator spent *executing* jobs (as opposed to
    /// dispatching and waiting) — subtracted from the round's wall time
    /// to produce the `sync_nanos` overhead figure.
    self_exec_nanos: u64,
    finished: bool,
}

impl<'p> ActiveRound<'p> {
    /// Submit one job to this round.
    ///
    /// # Safety
    /// Everything `job` borrows must stay live (and unaliased per Rust's
    /// usual rules) until the round completes. The guard enforces
    /// completion before control returns past it, so calling this from
    /// [`map_chunks_on`] — which keeps the borrowed data alive across
    /// `finish()` — is sound.
    unsafe fn spawn<'env>(&self, job: impl FnOnce() + Send + 'env) {
        let job: Box<dyn FnOnce() + Send + 'env> = Box::new(job);
        let job: Job = std::mem::transmute(job);
        {
            lock(&self.round.state).left += 1;
        }
        {
            lock(&self.pool.shared.queue)
                .jobs
                .push_back(Task { job, round: Arc::clone(&self.round) });
        }
        self.pool.shared.work_cv.notify_one();
    }

    /// Drain the injector queue from the coordinating thread, then wait
    /// for stragglers executing on workers. Draining may execute jobs of
    /// *other* concurrent rounds — harmless work-helping; their
    /// coordinators wait on their own rounds.
    fn drain_and_wait(&mut self) {
        while let Some(t) = self.pool.pop_task() {
            let t0 = Instant::now();
            execute_task(t);
            self.self_exec_nanos += t0.elapsed().as_nanos() as u64;
        }
        let mut st = lock(&self.round.state);
        while st.left > 0 {
            st = self.round.done_cv.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Complete the round: help execute, wait for every job, account the
    /// coordination overhead, and re-raise the first job panic (if any).
    fn finish(mut self) {
        self.drain_and_wait();
        self.finished = true;
        let wall = self.t0.elapsed().as_nanos() as u64;
        SYNC_NANOS.fetch_add(wall.saturating_sub(self.self_exec_nanos), Ordering::Relaxed);
        PARALLEL_ROUNDS.fetch_add(1, Ordering::Relaxed);
        let payload = lock(&self.round.state).panic.take();
        if let Some(p) = payload {
            panic::resume_unwind(p);
        }
    }
}

impl<'p> Drop for ActiveRound<'p> {
    fn drop(&mut self) {
        if !self.finished {
            // Unwinding past submitted jobs: block until they finish so
            // no erased borrow dangles. The panic already in flight wins;
            // job panic payloads are dropped.
            self.drain_and_wait();
        }
    }
}

// ---------------------------------------------------------------------------
// Global pool.

static GLOBAL: OnceLock<WorkerPool> = OnceLock::new();

/// The process-global pool behind [`map_chunks`]. Created with zero
/// workers; grows lazily (up to `hardware_threads() − 1`) as parallel
/// rounds request parts.
fn global() -> &'static WorkerPool {
    GLOBAL.get_or_init(|| WorkerPool::new(0))
}

/// Grow the global pool for a round of `parts` chunks: the coordinator
/// is one execution lane, workers provide the rest, and lanes beyond the
/// hardware cannot help.
fn ensure_global_workers(parts: usize) -> &'static WorkerPool {
    let pool = global();
    pool.ensure_workers(parts.min(hardware_threads()).saturating_sub(1));
    pool
}

// ---------------------------------------------------------------------------
// The adaptive sequential cutoff.

/// Default sequential cutoff: the minimum estimated work **per chunk**
/// (in [`adaptive_parallelism_with`]'s work units, calibrated to roughly
/// nanoseconds of straight-line compute) below which dispatching to the
/// pool is not worth one wake/park cycle.
///
/// Calibration: waking a parked worker through a condvar costs on the
/// order of 5–15 µs; at 100 µs of work per chunk that overhead is ≤ ~15%
/// worst-case and parallel speedup dominates. Below it, inline execution
/// wins outright — which is exactly the fig8-scale regime (tens of µs
/// per whole batch) where thread-per-call parallelism used to *regress*.
pub const SEQ_CUTOFF_WORK: u64 = 100_000;

/// Number of chunks to use for `len` items of `work_per_item` estimated
/// work units on a requested `n_threads`: the requested split, shrunk
/// (down to one inline chunk) while a chunk would hold less than
/// `cutoff` units of work. `cutoff == 0` disables the sequential
/// fallback (always split to `n_threads`); `cutoff == u64::MAX` forces
/// inline execution for any realistic work estimate.
///
/// Pure function of its arguments — never consults the clock or the
/// machine — so the schedule (and therefore the exact floating-point
/// reduction order *within* each chunk's scratch reuse) is reproducible
/// across runs and hosts.
pub fn adaptive_parallelism_with(
    cutoff: u64,
    n_threads: usize,
    len: usize,
    work_per_item: u64,
) -> usize {
    let hard = n_threads.min(len).max(1);
    if hard <= 1 {
        return 1;
    }
    if cutoff == 0 {
        return hard;
    }
    let total = (len as u64).saturating_mul(work_per_item);
    let by_work = (total / cutoff).max(1);
    hard.min(usize::try_from(by_work).unwrap_or(usize::MAX))
}

// ---------------------------------------------------------------------------
// The chunked map.

/// Run `f` over contiguous chunks of `0..len`, each with its own
/// scratch, and return the used scratches in chunk order. The one
/// adaptive entry point every parallel hot path goes through.
///
/// The chunk count is [`adaptive_parallelism_with`]`(cutoff, n_threads,
/// len, work_per_item)`. One chunk runs inline on the calling thread
/// and, when `n_threads > 1` asked for more, counts as an inline round;
/// several run as one round on the global pool and count as a parallel
/// round (see [`PoolStats`]).
///
/// `chunks` is scratch the caller keeps between calls: it grows (with
/// `init`) to the chunk count and never shrinks, so a warm inline call
/// allocates nothing. `f` receives a chunk's scratch as the previous
/// call left it and must reset whatever per-call output it keeps there.
///
/// Determinism contract: what `f` leaves in a scratch must depend only
/// on its range (and the caller's inputs), never on values an earlier
/// call or item left behind, so merging the returned scratches in order
/// is bit-identical for every `(n_threads, cutoff)`.
pub fn map_chunks<S, F>(
    n_threads: usize,
    cutoff: u64,
    len: usize,
    work_per_item: u64,
    chunks: &mut Vec<S>,
    init: impl FnMut() -> S,
    f: F,
) -> &mut [S]
where
    S: Send,
    F: Fn(&mut S, Range<usize>) + Sync,
{
    let parts = adaptive_parallelism_with(cutoff, n_threads, len, work_per_item);
    let pool = if parts > 1 {
        ensure_global_workers(parts)
    } else {
        if n_threads > 1 && len > 1 {
            INLINE_ROUNDS.fetch_add(1, Ordering::Relaxed);
        }
        global()
    };
    map_chunks_on(pool, parts, len, chunks, init, f)
}

/// [`map_chunks`] with an explicit pool and chunk count (clamped to
/// `1..=len`): one chunk runs inline on the caller, several as one round
/// on `pool`. The seam for tests that drive an owned [`WorkerPool`];
/// serving code goes through [`map_chunks`].
pub fn map_chunks_on<'c, S, F>(
    pool: &WorkerPool,
    parts: usize,
    len: usize,
    chunks: &'c mut Vec<S>,
    init: impl FnMut() -> S,
    f: F,
) -> &'c mut [S]
where
    S: Send,
    F: Fn(&mut S, Range<usize>) + Sync,
{
    let parts = parts.min(len).max(1);
    if chunks.len() < parts {
        chunks.resize_with(parts, init);
    }
    let used = &mut chunks[..parts];
    if let [only] = used {
        f(only, 0..len);
        return used;
    }
    let round = pool.begin_round();
    for (k, chunk) in used.iter_mut().enumerate() {
        let f = &f;
        let range = len * k / parts..len * (k + 1) / parts;
        // SAFETY: the job borrows `f` and one disjoint chunk; both
        // outlive `round.finish()` below, which completes every job
        // before the chunks are handed back (the guard also completes
        // them if `finish` unwinds).
        unsafe { round.spawn(move || f(chunk, range)) }
    }
    round.finish();
    used
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Each chunk's range, as `map_chunks_on` handed it out.
    fn ranges(parts: usize, len: usize) -> Vec<Range<usize>> {
        let mut chunks = Vec::new();
        let pool = WorkerPool::new(0);
        let used = map_chunks_on(&pool, parts, len, &mut chunks, || 0..0, |s, r| *s = r);
        used.to_vec()
    }

    #[test]
    fn chunks_cover_the_range_in_order() {
        for len in [0usize, 1, 2, 7, 8, 100, 101] {
            for parts in [1usize, 2, 3, 4, 8, 13] {
                let chunks = ranges(parts, len);
                assert_eq!(chunks.len(), parts.min(len).max(1));
                let mut next = 0;
                for r in &chunks {
                    assert_eq!(r.start, next, "gap in chunks({len},{parts})");
                    assert!(r.end >= r.start);
                    next = r.end;
                }
                assert_eq!(next, len, "chunks({len},{parts}) must cover 0..len");
                let max = chunks.iter().map(|r| r.len()).max().unwrap_or(0);
                let min = chunks.iter().map(|r| r.len()).min().unwrap_or(0);
                assert!(max - min <= 1, "chunks should be balanced");
            }
        }
    }

    /// Per-chunk scratch of the map tests: a mutation counter (scratch
    /// may carry state; results must not use it) and the chunk's output.
    #[derive(Default)]
    struct Scratch {
        calls: u64,
        out: Vec<u64>,
    }

    fn hash(i: usize, x: u64) -> u64 {
        x.wrapping_mul(0x9e37_79b9).rotate_left(i as u32)
    }

    #[test]
    fn map_chunks_matches_sequential_for_all_threads_and_cutoffs() {
        let items: Vec<u64> = (0..97).collect();
        let seq: Vec<u64> = items.iter().enumerate().map(|(i, &x)| hash(i, x)).collect();
        // One scratch across every call: reuse must never leak values.
        let mut chunks = Vec::new();
        let half = SEQ_CUTOFF_WORK / (items.len() as u64 / 2);
        for threads in [1usize, 2, 3, 4, 8, 16] {
            for cutoff in [0, 1, SEQ_CUTOFF_WORK, u64::MAX] {
                for wpi in [1, half - 1, half, half + 1, SEQ_CUTOFF_WORK, u64::MAX / 128] {
                    let used = map_chunks(
                        threads,
                        cutoff,
                        items.len(),
                        wpi,
                        &mut chunks,
                        Scratch::default,
                        |s, r| {
                            s.calls += 1;
                            s.out.clear();
                            s.out.extend(r.map(|i| hash(i, items[i])));
                        },
                    );
                    let got: Vec<u64> = used.iter().flat_map(|s| s.out.iter().copied()).collect();
                    assert_eq!(got, seq, "threads={threads} cutoff={cutoff} wpi={wpi}");
                }
            }
        }
    }

    #[test]
    fn map_chunks_handles_empty_and_singleton_inputs() {
        let mut chunks: Vec<Scratch> = Vec::new();
        for len in [0usize, 1] {
            let used = map_chunks(4, 0, len, 1, &mut chunks, Scratch::default, |s, r| {
                s.out.clear();
                s.out.extend(r.map(|i| i as u64 + 42));
            });
            assert_eq!(used.len(), 1, "len {len} is one inline chunk");
            assert_eq!(used[0].out, (0..len as u64).map(|i| i + 42).collect::<Vec<_>>());
        }
    }

    #[test]
    fn scratch_grows_once_and_is_kept_between_calls() {
        let inits = AtomicUsize::new(0);
        let init = || {
            inits.fetch_add(1, Ordering::SeqCst);
            Scratch::default()
        };
        let touch = |s: &mut Scratch, _r: Range<usize>| s.calls += 1;
        let mut chunks = Vec::new();
        for _ in 0..3 {
            map_chunks(4, u64::MAX, 64, 1, &mut chunks, init, touch);
        }
        assert_eq!(inits.load(Ordering::SeqCst), 1, "inline calls reuse one scratch");
        assert_eq!(chunks[0].calls, 3);
        let used = map_chunks(4, 0, 64, 1, &mut chunks, init, touch);
        assert_eq!(used.len(), 4);
        assert_eq!(inits.load(Ordering::SeqCst), 4, "a wider call adds only the missing chunks");
        let used = map_chunks(4, u64::MAX, 64, 1, &mut chunks, init, touch);
        assert_eq!(used.len(), 1, "a narrower call hands back only the chunks it used");
        assert_eq!(chunks.len(), 4, "scratch never shrinks");
        assert_eq!(chunks[0].calls, 5);
    }

    #[test]
    fn adaptive_parallelism_respects_cutoff_and_bounds() {
        let adaptive = |n, len, wpi| adaptive_parallelism_with(SEQ_CUTOFF_WORK, n, len, wpi);
        // Below one cutoff of total work: inline.
        assert_eq!(adaptive(8, 100, 10), 1);
        // Plenty of work: full requested split (clamped by len).
        assert_eq!(adaptive(8, 100, SEQ_CUTOFF_WORK), 8);
        assert_eq!(adaptive(8, 3, SEQ_CUTOFF_WORK), 3);
        // Partial: enough for 2 chunks but not 8.
        let wpi = 2 * SEQ_CUTOFF_WORK / 100 + 1;
        let parts = adaptive(8, 100, wpi);
        assert!((2..8).contains(&parts), "got {parts}");
        // Explicit overrides.
        assert_eq!(adaptive_parallelism_with(0, 8, 100, 1), 8, "cutoff 0 = always split");
        assert_eq!(
            adaptive_parallelism_with(u64::MAX, 8, 100, u64::MAX / 64),
            1,
            "huge cutoff = inline"
        );
        // n_threads=1 and empty input always inline.
        assert_eq!(adaptive(1, 1000, u64::MAX / 2048), 1);
        assert_eq!(adaptive(8, 0, u64::MAX / 8), 1);
    }

    #[test]
    fn job_panic_propagates_after_round_completes() {
        // Use an owned pool with real workers so jobs take the queued
        // path (with zero workers, the coordinator drains the queue
        // itself, which is also fine but not what this test probes).
        let pool = WorkerPool::new(2);
        let done = AtomicUsize::new(0);
        let mut chunks = Vec::new();
        let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
            map_chunks_on(
                &pool,
                8,
                8,
                &mut chunks,
                || (),
                |_, r| {
                    if r.contains(&3) {
                        panic!("boom");
                    }
                    done.fetch_add(1, Ordering::SeqCst);
                },
            );
        }));
        assert!(r.is_err(), "job panic must propagate to the coordinator");
        assert_eq!(done.load(Ordering::SeqCst), 7, "all non-panicking jobs still ran");
    }

    #[test]
    fn owned_pool_runs_rounds_and_joins_on_drop() {
        let pool = WorkerPool::new(3);
        assert_eq!(pool.workers(), 3);
        let items: Vec<u64> = (0..50).collect();
        let want: Vec<u64> = items.iter().enumerate().map(|(i, &x)| x + i as u64).collect();
        let mut chunks: Vec<Vec<u64>> = Vec::new();
        for _ in 0..10 {
            let used = map_chunks_on(&pool, 4, items.len(), &mut chunks, Vec::new, |out, r| {
                out.clear();
                out.extend(r.map(|i| items[i] + i as u64));
            });
            assert_eq!(used.concat(), want);
        }
        drop(pool); // must not hang or leak
    }
}
