//! Lifecycle/stress coverage for the persistent pool: workers are
//! spawned once, parked when idle, reused across many batches, and
//! joined cleanly on drop — the properties that make `n_threads > 1`
//! an amortised cost instead of a per-batch one.

use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// The spawn/live counters are process-global, so tests that assert on
/// their deltas must not interleave with each other's pool activity.
static COUNTER_LOCK: Mutex<()> = Mutex::new(());

fn counter_guard() -> MutexGuard<'static, ()> {
    COUNTER_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Poll `cond` for up to two seconds. Worker park/exit is asynchronous
/// (a worker decrements counters after its last job), so assertions on
/// idle/live counts need a grace window.
fn eventually(mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + Duration::from_secs(2);
    loop {
        if cond() {
            return true;
        }
        if Instant::now() > deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Map `items` through `x·31` on an owned pool, flattened in order.
fn times_31_on(p: &pool::WorkerPool, parts: usize, items: &[u64]) -> Vec<u64> {
    let mut chunks: Vec<Vec<u64>> = Vec::new();
    let used = pool::map_chunks_on(p, parts, items.len(), &mut chunks, Vec::new, |out, r| {
        out.clear();
        out.extend(items[r].iter().map(|&x| x.wrapping_mul(31)));
    });
    used.concat()
}

#[test]
fn owned_pool_spawns_once_parks_idle_and_joins_on_drop() {
    let _g = counter_guard();
    let before = pool::stats();
    let p = pool::WorkerPool::new(3);
    assert_eq!(p.workers(), 3);
    assert_eq!(pool::stats().spawned_threads - before.spawned_threads, 3);

    let items: Vec<u64> = (0..256).collect();
    let expect: Vec<u64> = items.iter().map(|&x| x.wrapping_mul(31)).collect();

    // Many batches: zero additional spawns after construction.
    for round in 0..200 {
        assert_eq!(times_31_on(&p, 4, &items), expect, "round {round}");
    }
    assert_eq!(
        pool::stats().spawned_threads - before.spawned_threads,
        3,
        "no new threads after warm-up"
    );

    // Between batches every worker parks on the condvar.
    assert!(eventually(|| p.idle_workers() == 3), "workers must park when idle");

    // Drop joins all workers without leaks or hangs.
    let live_before_drop = pool::stats().live_threads;
    drop(p);
    assert!(
        eventually(|| pool::stats().live_threads == live_before_drop - 3),
        "drop must join all 3 workers"
    );
}

/// One `map_chunks` call over 128 items, flattened in order.
fn plus_index(n_threads: usize, cutoff: u64, chunks: &mut Vec<Vec<u64>>) -> Vec<u64> {
    let used = pool::map_chunks(n_threads, cutoff, 128, 1, chunks, Vec::new, |out, r| {
        out.clear();
        out.extend(r.map(|i| 3 * i as u64));
    });
    used.concat()
}

#[test]
fn global_pool_stops_spawning_after_warmup() {
    let _g = counter_guard();
    // Warm the global pool to its hard cap: worker count is bounded by
    // available_parallelism() - 1 regardless of the requested width, so
    // after one wide round no later request can grow it further.
    let mut chunks = Vec::new();
    let warm = plus_index(64, 0, &mut chunks);
    let after_warmup = pool::stats().spawned_threads;

    for _ in 0..300 {
        assert_eq!(plus_index(64, 0, &mut chunks), warm);
    }
    assert_eq!(
        pool::stats().spawned_threads,
        after_warmup,
        "steady-state batches must not spawn threads"
    );
}

#[test]
fn map_chunks_counts_each_round_once() {
    let _g = counter_guard();
    let mut chunks = Vec::new();
    let want = plus_index(1, 0, &mut chunks);
    let rounds = || {
        let s = pool::stats();
        (s.inline_rounds, s.parallel_rounds)
    };
    // (n_threads, cutoff) -> (inline, parallel) rounds the call adds.
    for (n_threads, cutoff, added) in
        [(2, u64::MAX, (1, 0)), (2, 0, (0, 1)), (1, u64::MAX, (0, 0)), (1, 0, (0, 0))]
    {
        let before = rounds();
        assert_eq!(plus_index(n_threads, cutoff, &mut chunks), want);
        let after = rounds();
        assert_eq!(
            (after.0 - before.0, after.1 - before.1),
            added,
            "n_threads={n_threads} cutoff={cutoff}: (inline, parallel) rounds added"
        );
    }
}

#[test]
fn zero_worker_pool_runs_everything_on_the_coordinator() {
    let _g = counter_guard();
    let p = pool::WorkerPool::new(0);
    let items: Vec<u64> = (0..33).collect();
    let seq: Vec<u64> = items.iter().map(|&x| x.wrapping_mul(31)).collect();
    assert_eq!(times_31_on(&p, 4, &items), seq);
    assert_eq!(p.workers(), 0);
}
