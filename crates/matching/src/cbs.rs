//! Candidate Broker Selection (CBS) — Alg. 3 of the paper.
//!
//! Theorem 2 / Corollary 1: for an imbalanced bipartite graph
//! `⟨U, V, E⟩` with `|U| ≤ |V|`, some optimal assignment matches every
//! `u ∈ U` inside `Top^u_{|U|}`, the `|U|` heaviest neighbours of `u`.
//! CBS therefore selects, per request, the `|R|` largest-utility brokers
//! by quickselect (expected `O(|B|)` per request) and assigns on the
//! union — shrinking Kuhn–Munkres from `O(|B|³)` to `O(|R|³ + |R||B|)`.
//!
//! Alg. 3 partitions around a pivot drawn uniformly from the utility
//! values (`LC = {b : u ≥ p}`, `RC = {b : u < p}`) and recurses. Two
//! hardening changes over the literal algorithm:
//!
//! * **Three-way partitioning** (`>`, `=`, `<`) so duplicate utilities
//!   cannot cause unbounded iteration — with two-way partitioning an
//!   all-equal value set puts everything in `LC` forever.
//! * **Iterative, in-place selection** ([`top_k_into`]): the candidate
//!   index set is permuted inside one reusable buffer (Dutch-flag
//!   partition, loop instead of recursion), so the hot path performs no
//!   allocation and is immune to pathological partition depth.
//!
//! For the parallel serving core, [`candidate_union_seeded`] derives an
//! independent RNG per request row from `(seed, row)`, which makes the
//! selected union a pure function of the inputs — bit-identical for any
//! thread count.

use crate::graph::UtilityMatrix;
use crate::sparse::SparseUtility;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Total-order `>` used by the selection partition: NaN sorts below
/// every other value (including `-∞`), and NaN == NaN. On NaN-free data
/// this is exactly `v > p`, so clean rows partition bit-identically to
/// the plain comparison — the ordering only kicks in on corrupted rows,
/// where it makes the selection deterministic instead of
/// pivot-dependent.
#[inline]
fn total_gt(v: f64, p: f64) -> bool {
    if v.is_nan() || p.is_nan() {
        !v.is_nan() && p.is_nan()
    } else {
        v > p
    }
}

/// Total-order `<` counterpart of [`total_gt`].
#[inline]
fn total_lt(v: f64, p: f64) -> bool {
    if v.is_nan() || p.is_nan() {
        v.is_nan() && !p.is_nan()
    } else {
        v < p
    }
}

/// Indices of the `k` largest values of `utilities`, in no particular
/// order, via random-pivot quickselect (Alg. 3). Returns all indices when
/// `k >= utilities.len()` (Alg. 3 lines 1–3).
pub fn top_k_indices<R: Rng + ?Sized>(utilities: &[f64], k: usize, rng: &mut R) -> Vec<usize> {
    let mut idx = Vec::new();
    let mut out = Vec::new();
    top_k_into(utilities, k, rng, &mut idx, &mut out);
    out
}

/// Zero-alloc core of [`top_k_indices`]: writes the selected indices
/// into `out`, using `idx` as the permutation scratch. Both buffers are
/// cleared first and keep their capacity across calls.
///
/// Iterative in-place quickselect: each round three-way-partitions the
/// active slice `idx[lo..hi]` around a random pivot value into
/// `(> p | = p | < p)` and either narrows into the `>` region, finishes
/// from the `=` region, or commits `>`/`=` and recurses into `<` — all
/// by index arithmetic on the one buffer, so the worst case is bounded
/// passes over a shrinking slice rather than recursion depth.
///
/// Degenerate inputs need no caller guards: `k = 0` returns empty,
/// `k ≥ len` returns every index, and rows containing NaN (corrupted
/// utilities) select under the [`total_gt`] order — NaN ranks below
/// every other value, so non-finite candidates are picked only when
/// fewer than `k` better ones exist, and the result is a deterministic
/// function of `(utilities, k, rng)` either way.
pub fn top_k_into<R: Rng + ?Sized>(
    utilities: &[f64],
    k: usize,
    rng: &mut R,
    idx: &mut Vec<usize>,
    out: &mut Vec<usize>,
) {
    out.clear();
    idx.clear();
    if k == 0 {
        return;
    }
    idx.extend(0..utilities.len());
    if k >= idx.len() {
        out.extend_from_slice(idx);
        return;
    }
    let mut lo = 0usize;
    let mut hi = idx.len();
    let mut need = k;
    while need > 0 {
        debug_assert!(lo < hi);
        if hi - lo <= need {
            out.extend_from_slice(&idx[lo..hi]);
            break;
        }
        // Random pivot value drawn from the active candidate utilities
        // (Alg. 3 line 4).
        let p = utilities[idx[lo + rng.gen_range(0..hi - lo)]];
        // Dutch-flag partition of idx[lo..hi]:
        //   [lo..lt) > p   [lt..gt) == p   [gt..hi) < p
        let mut lt = lo;
        let mut gt = hi;
        let mut i = lo;
        while i < gt {
            let v = utilities[idx[i]];
            if total_gt(v, p) {
                idx.swap(i, lt);
                lt += 1;
                i += 1;
            } else if total_lt(v, p) {
                gt -= 1;
                idx.swap(i, gt);
            } else {
                i += 1;
            }
        }
        let n_gt = lt - lo;
        let n_eq = gt - lt;
        if n_gt >= need {
            hi = lt; // answer lies entirely in the > region
        } else if n_gt + n_eq >= need {
            out.extend_from_slice(&idx[lo..lt]);
            out.extend_from_slice(&idx[lt..lt + (need - n_gt)]);
            break;
        } else {
            out.extend_from_slice(&idx[lo..gt]);
            need -= n_gt + n_eq;
            lo = gt;
        }
    }
    debug_assert_eq!(out.len(), k);
}

/// The CBS candidate set for a whole batch: the union
/// `⋃_{r ∈ R} Top^r_k` of per-request top-k broker indices, sorted and
/// deduplicated. With `k = |R|` (Corollary 1) the union provably contains
/// an optimal assignment of the full graph.
pub fn candidate_union<R: Rng + ?Sized>(u: &UtilityMatrix, k: usize, rng: &mut R) -> Vec<usize> {
    let mut seen = vec![false; u.cols()];
    let mut idx = Vec::new();
    let mut out = Vec::new();
    for r in 0..u.rows() {
        top_k_into(u.row(r), k, rng, &mut idx, &mut out);
        for &b in &out {
            seen[b] = true;
        }
    }
    (0..u.cols()).filter(|&b| seen[b]).collect()
}

/// SplitMix64 — derives statistically independent per-row seeds.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Deterministic parallel CBS union: like [`candidate_union`] but each
/// request row `r` uses its own RNG seeded from `mix(seed ^ r)`, so the
/// result is a pure function of `(u, k, seed)` — **bit-identical for
/// every `n_threads`**, including 1. Rows are processed in contiguous
/// chunks; per-chunk `seen` masks are OR-merged (set union commutes, so
/// merge order cannot matter either).
pub fn candidate_union_seeded(
    u: &UtilityMatrix,
    k: usize,
    seed: u64,
    n_threads: usize,
) -> Vec<usize> {
    candidate_union_seeded_with(u, k, seed, n_threads, pool::SEQ_CUTOFF_WORK)
}

/// Estimated work units (≈ ns) to quickselect one request row: a few
/// partition passes over `cols` values plus fixed RNG/bookkeeping cost.
/// Feeds the adaptive sequential cutoff; results never depend on it.
pub fn row_select_work(cols: usize) -> u64 {
    4 * cols as u64 + 300
}

/// [`candidate_union_seeded`] with an explicit sequential-cutoff
/// override (see `pool::adaptive_parallelism_with`). The cutoff only
/// moves the inline-vs-parallel decision — the returned candidate set is
/// bit-identical for every `(n_threads, cutoff)` because per-row seeds
/// depend on `r` alone and mask union is commutative.
pub fn candidate_union_seeded_with(
    u: &UtilityMatrix,
    k: usize,
    seed: u64,
    n_threads: usize,
    cutoff: u64,
) -> Vec<usize> {
    let parts =
        pool::adaptive_parallelism_with(cutoff, n_threads, u.rows(), row_select_work(u.cols()));
    if parts <= 1 {
        if n_threads > 1 && u.rows() > 1 {
            pool::record_inline_round();
        }
        let mut seen = vec![false; u.cols()];
        let mut idx = Vec::new();
        let mut out = Vec::new();
        for r in 0..u.rows() {
            let mut rng = StdRng::seed_from_u64(mix(seed ^ (r as u64)));
            top_k_into(u.row(r), k, &mut rng, &mut idx, &mut out);
            for &b in &out {
                seen[b] = true;
            }
        }
        return (0..u.cols()).filter(|&b| seen[b]).collect();
    }
    let chunks: Vec<(usize, usize)> = pool::partition(u.rows(), parts).collect();
    let masks: Vec<Vec<bool>> = pool::map(parts, &chunks, |_ci, &(lo, hi)| {
        let mut seen = vec![false; u.cols()];
        let mut idx = Vec::new();
        let mut out = Vec::new();
        for r in lo..hi {
            let mut rng = StdRng::seed_from_u64(mix(seed ^ (r as u64)));
            top_k_into(u.row(r), k, &mut rng, &mut idx, &mut out);
            for &b in &out {
                seen[b] = true;
            }
        }
        seen
    });
    let mut seen = vec![false; u.cols()];
    for m in &masks {
        for (s, &v) in seen.iter_mut().zip(m) {
            *s |= v;
        }
    }
    (0..u.cols()).filter(|&b| seen[b]).collect()
}

/// One candidate inside the bounded selection queue: utility, seeded
/// tie-break key and global column id.
#[derive(Debug, Clone, Copy)]
struct SelEntry {
    v: f64,
    key: u64,
    c: usize,
}

/// `a` strictly worse than `b` under the fused kernel's selection
/// order: utility first (via the [`total_lt`]/[`total_gt`] total order,
/// NaN lowest), then ascending seeded key, then ascending column id.
/// The order has no ties, so the top-k *set* it induces is unique.
#[inline]
fn sel_worse(a: &SelEntry, b: &SelEntry) -> bool {
    if total_lt(a.v, b.v) {
        true
    } else if total_gt(a.v, b.v) {
        false
    } else if a.key != b.key {
        a.key > b.key
    } else {
        a.c > b.c
    }
}

/// Histogram bin of a utility under the serving range: the linear map
/// `⌊v·256⌋` saturated to `[0, 255]`. Rust's saturating float→int cast
/// does the range handling branchlessly (`NaN → 0`, negatives → 0,
/// `≥ 1 → 255`), and the map is monotone under the [`total_gt`] order —
/// a strictly greater bin implies a strictly greater utility, and NaN
/// lands in the lowest bin. Bins only have to *order* values; exact
/// ranking inside one bin is done separately, so values outside `[0, 1]`
/// (refined or corrupted utilities) stay correct, merely slower.
#[inline]
fn sel_bin(v: f64) -> u8 {
    (v * 256.0) as u8
}

/// Bounded streaming top-k over one score row — the fused kernel's
/// selection primitive. A comparison-based bounded heap resolves one
/// data-dependent branch per comparison, which on fresh scores makes
/// branch misses the whole cost (measured ≈ 6 µs/row at city scale —
/// no better than quickselect). Instead: bucket the row into a 256-bin
/// utility histogram (one branch-free pass: multiply, saturating cast,
/// counter increment), walk the bin counts downward to find the bin
/// holding the k-th best value, emit every column in a strictly higher
/// bin, and rank only the boundary bin's members (typically a handful)
/// under the exact composite order. Writes the selected column ids into
/// `out` (unsorted).
///
/// Selection order is utility-first (via the [`total_gt`] total order,
/// NaN lowest) with seeded tie-breaking like [`top_k_into`]'s RNG:
/// `salt` must be the per-row seed `mix(seed ^ r)` — the same value
/// that seeds the quickselect path's `StdRng` — and tied utilities rank
/// by `mix(salt ^ c)`. On rows without exact utility ties at the
/// selection boundary (the generic case for continuous utilities) the
/// selected *set* is identical to [`top_k_into`]'s; on boundary ties
/// both pick a deterministic, seed-dependent tied subset — any such
/// subset carries the same utility multiset, so assignment values are
/// unaffected (Corollary 1).
fn top_k_bounded_into(
    row: &[f64],
    k: usize,
    salt: u64,
    bins: &mut Vec<u8>,
    boundary: &mut Vec<SelEntry>,
    out: &mut Vec<usize>,
) {
    out.clear();
    if k == 0 {
        return;
    }
    if k >= row.len() {
        out.extend(0..row.len());
        return;
    }
    let mut hist = [0u32; 256];
    bins.clear();
    bins.extend(row.iter().map(|&v| {
        let b = sel_bin(v);
        hist[b as usize] += 1;
        b
    }));
    // Find the boundary bin: the highest `bb` with at least k values in
    // bins ≥ bb. `cum` reaches row.len() ≥ k by bin 0, so no underflow.
    let mut bb = 255usize;
    let mut above = 0usize;
    loop {
        let cum = above + hist[bb] as usize;
        if cum >= k {
            break;
        }
        above = cum;
        bb -= 1;
    }
    let bb = bb as u8;
    boundary.clear();
    for (c, &b) in bins.iter().enumerate() {
        if b > bb {
            out.push(c);
        } else if b == bb {
            boundary.push(SelEntry { v: row[c], key: mix(salt ^ c as u64), c });
        }
    }
    debug_assert_eq!(out.len(), above);
    let need = k - above;
    if boundary.len() > need {
        // Exact composite ranking, boundary bin only: best first. The
        // order is strict (keys and ids break all ties), so the
        // selected set is unique.
        boundary.sort_unstable_by(|a, b| {
            if sel_worse(a, b) {
                std::cmp::Ordering::Greater
            } else {
                std::cmp::Ordering::Less
            }
        });
        boundary.truncate(need);
    }
    out.extend(boundary.iter().map(|e| e.c));
}

/// Reusable buffers of [`fused_score_select`]: its two outputs, plus
/// one score-row buffer, the bounded selection queue, and the per-batch
/// selection / union accumulators. All buffers keep their capacity
/// across batches, so the inline (single-thread) path allocates nothing
/// in steady state.
#[derive(Debug, Default)]
pub struct FusedBuffers {
    /// The CSR candidate graph, columns compacted to `union`.
    pub csr: SparseUtility,
    /// The sorted candidate union (global column ids).
    pub union: Vec<usize>,
    row: Vec<f64>,
    bins: Vec<u8>,
    boundary: Vec<SelEntry>,
    sel: Vec<usize>,
    seen: Vec<bool>,
    remap: Vec<usize>,
    sel_cols: Vec<usize>,
    sel_utils: Vec<f64>,
    row_len: Vec<usize>,
}

/// Estimated work units (≈ ns) to score **and** select one request
/// row in the fused kernel: the utility model's per-pair evaluation
/// dominates; the bounded queue adds about one comparison per column.
/// Feeds the adaptive sequential cutoff; results never depend on it.
pub fn fused_row_work(cols: usize) -> u64 {
    12 * cols as u64 + 400
}

/// Fused score + select: compute each request row's utilities via
/// `score(r, buf)` over a `rows × cols` matrix and keep its seeded top-k
/// in one streaming pass, never materialising the dense matrix —
/// emitting the CSR candidate graph (`out.csr`, columns compacted to
/// the candidate union) and the sorted union itself (`out.union`,
/// global column ids).
///
/// Selection runs the bounded queue of [`top_k_bounded_into`] with
/// the per-row salt `mix(seed ^ r)` — the same per-row seed that drives
/// [`candidate_union_seeded_with`]'s quickselect — so the result is a
/// pure function of `(score, k, seed)`, bit-identical for every
/// `(n_threads, cutoff)`. On rows without exact utility ties at the
/// k-boundary the candidate sets (and therefore the union) equal the
/// unfused two-pass path's; boundary ties resolve by seeded key instead
/// of pivot order, which never changes the selected utility multiset.
/// Mechanically, utilities flow from the scoring closure straight
/// through the queue into CSR rows (ascending column order) instead of
/// round-tripping through dense full/reduced/pruned buffers.
pub fn fused_score_select<F>(
    (rows, cols): (usize, usize),
    k: usize,
    seed: u64,
    n_threads: usize,
    cutoff: u64,
    score: &F,
    out: &mut FusedBuffers,
) where
    F: Fn(usize, &mut [f64]) + Sync,
{
    let FusedBuffers {
        csr,
        union: union_out,
        row,
        bins,
        boundary,
        sel,
        seen,
        remap,
        sel_cols,
        sel_utils,
        row_len,
    } = out;
    seen.clear();
    seen.resize(cols, false);
    sel_cols.clear();
    sel_utils.clear();
    row_len.clear();

    let parts = pool::adaptive_parallelism_with(cutoff, n_threads, rows, fused_row_work(cols));
    if parts <= 1 {
        if n_threads > 1 && rows > 1 {
            pool::record_inline_round();
        }
        row.resize(cols, 0.0);
        for r in 0..rows {
            score(r, row);
            top_k_bounded_into(row, k, mix(seed ^ (r as u64)), bins, boundary, sel);
            sel.sort_unstable();
            row_len.push(sel.len());
            for &c in sel.iter() {
                sel_cols.push(c);
                sel_utils.push(row[c]);
                seen[c] = true;
            }
        }
    } else {
        let chunks: Vec<(usize, usize)> = pool::partition(rows, parts).collect();
        type Chunk = (Vec<usize>, Vec<usize>, Vec<f64>, Vec<bool>);
        let picked: Vec<Chunk> = pool::map(parts, &chunks, |_ci, &(lo, hi)| {
            let mut row = vec![0.0; cols];
            let mut bins = Vec::new();
            let mut boundary = Vec::new();
            let mut sel = Vec::new();
            let mut c_seen = vec![false; cols];
            let mut c_lens = Vec::with_capacity(hi - lo);
            let mut c_cols = Vec::new();
            let mut c_utils = Vec::new();
            for r in lo..hi {
                score(r, &mut row);
                top_k_bounded_into(
                    &row,
                    k,
                    mix(seed ^ (r as u64)),
                    &mut bins,
                    &mut boundary,
                    &mut sel,
                );
                sel.sort_unstable();
                c_lens.push(sel.len());
                for &c in &sel {
                    c_cols.push(c);
                    c_utils.push(row[c]);
                    c_seen[c] = true;
                }
            }
            (c_lens, c_cols, c_utils, c_seen)
        });
        // Chunks are contiguous ascending row ranges, so concatenation
        // preserves row order; the seen-mask union commutes.
        for (c_lens, c_cols, c_utils, c_seen) in &picked {
            row_len.extend_from_slice(c_lens);
            sel_cols.extend_from_slice(c_cols);
            sel_utils.extend_from_slice(c_utils);
            for (s, &v) in seen.iter_mut().zip(c_seen) {
                *s |= v;
            }
        }
    }

    union_out.clear();
    union_out.extend((0..cols).filter(|&b| seen[b]));
    // Global column id -> union-local id; stale entries at non-union
    // positions are never read.
    remap.resize(cols, 0);
    for (local, &global) in union_out.iter().enumerate() {
        remap[global] = local;
    }
    csr.begin(union_out.len());
    let mut off = 0usize;
    for &len in row_len.iter() {
        // Per-row columns are ascending in global space and the remap is
        // monotone, so union-local ids stay ascending.
        csr.push_row(
            sel_cols[off..off + len]
                .iter()
                .zip(&sel_utils[off..off + len])
                .map(|(&c, &v)| (remap[c], v)),
        );
        off += len;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hungarian::max_weight_assignment;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sorted(mut v: Vec<usize>) -> Vec<usize> {
        v.sort_unstable();
        v
    }

    #[test]
    fn selects_the_k_largest() {
        let mut rng = StdRng::seed_from_u64(1);
        let vals = [0.1, 0.9, 0.5, 0.7, 0.2];
        let got = sorted(top_k_indices(&vals, 3, &mut rng));
        assert_eq!(got, vec![1, 2, 3]);
    }

    #[test]
    fn k_of_everything_returns_all() {
        let mut rng = StdRng::seed_from_u64(2);
        let vals = [0.3, 0.1];
        assert_eq!(sorted(top_k_indices(&vals, 2, &mut rng)), vec![0, 1]);
        assert_eq!(sorted(top_k_indices(&vals, 10, &mut rng)), vec![0, 1]);
    }

    #[test]
    fn k_zero_is_empty() {
        let mut rng = StdRng::seed_from_u64(3);
        assert!(top_k_indices(&[1.0, 2.0], 0, &mut rng).is_empty());
    }

    #[test]
    fn duplicate_values_terminate() {
        let mut rng = StdRng::seed_from_u64(4);
        let vals = vec![0.5; 100];
        let got = top_k_indices(&vals, 10, &mut rng);
        assert_eq!(got.len(), 10);
    }

    #[test]
    fn degenerate_inputs_terminate_and_select_correctly() {
        let mut rng = StdRng::seed_from_u64(41);
        // Large all-equal input: the historical worst case for pivot
        // selection (everything lands in LC under two-way partitioning).
        let flat = vec![1.25; 10_000];
        for k in [1usize, 17, 4999, 9999] {
            let got = top_k_indices(&flat, k, &mut rng);
            assert_eq!(got.len(), k);
            assert_eq!(sorted(got.clone()).len(), k, "indices must be distinct");
        }
        // Sorted ascending / descending runs (adversarial for fixed-pivot
        // schemes; random pivots must still terminate and be exact).
        let asc: Vec<f64> = (0..2000).map(|i| i as f64).collect();
        let desc: Vec<f64> = (0..2000).map(|i| -(i as f64)).collect();
        let top = sorted(top_k_indices(&asc, 5, &mut rng));
        assert_eq!(top, vec![1995, 1996, 1997, 1998, 1999]);
        let top = sorted(top_k_indices(&desc, 5, &mut rng));
        assert_eq!(top, vec![0, 1, 2, 3, 4]);
        // Two distinct values with heavy duplication on both sides.
        let bimodal: Vec<f64> = (0..1000).map(|i| if i % 2 == 0 { 1.0 } else { 0.0 }).collect();
        let got = top_k_indices(&bimodal, 400, &mut rng);
        assert_eq!(got.len(), 400);
        assert!(got.iter().all(|&i| bimodal[i] == 1.0), "k < #duplicates of the max");
    }

    #[test]
    fn top_k_into_reuses_buffers() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut idx = Vec::new();
        let mut out = Vec::new();
        let vals = [0.4, 0.8, 0.1, 0.9, 0.3, 0.7];
        top_k_into(&vals, 2, &mut rng, &mut idx, &mut out);
        assert_eq!(sorted(out.clone()), vec![1, 3]);
        let cap_idx = idx.capacity();
        top_k_into(&vals, 3, &mut rng, &mut idx, &mut out);
        assert_eq!(sorted(out.clone()), vec![1, 3, 5]);
        assert_eq!(idx.capacity(), cap_idx, "scratch must not reallocate on same-size input");
    }

    #[test]
    fn selection_value_matches_sort() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut seed = 42u64;
        let mut next = move || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((seed >> 33) as f64) / (u32::MAX as f64)
        };
        for trial in 0..20 {
            let n = 50 + trial * 7;
            let vals: Vec<f64> = (0..n).map(|_| next()).collect();
            let k = 1 + trial % 12;
            let got = top_k_indices(&vals, k, &mut rng);
            assert_eq!(got.len(), k);
            let mut sorted_vals = vals.clone();
            sorted_vals.sort_by(|a, b| b.partial_cmp(a).unwrap());
            let threshold = sorted_vals[k - 1];
            for &i in &got {
                assert!(vals[i] >= threshold - 1e-12, "trial {trial}");
            }
        }
    }

    #[test]
    fn cbs_preserves_optimal_assignment_value() {
        // Corollary 1: KM on the CBS-reduced graph equals KM on the full
        // graph when k = |R|.
        let mut rng = StdRng::seed_from_u64(6);
        let mut seed = 7u64;
        let mut next = move || {
            seed = seed.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            ((seed >> 33) as f64) / (u32::MAX as f64)
        };
        for _ in 0..10 {
            let u = UtilityMatrix::from_fn(4, 30, |_, _| next());
            let full = max_weight_assignment(&u);
            let cols = candidate_union(&u, u.rows(), &mut rng);
            let reduced = u.select_columns(&cols);
            let red = max_weight_assignment(&reduced);
            assert!(
                (full.total - red.total).abs() < 1e-9,
                "full {} vs reduced {}",
                full.total,
                red.total
            );
        }
    }

    #[test]
    fn candidate_union_is_sorted_and_bounded() {
        let mut rng = StdRng::seed_from_u64(8);
        let u = UtilityMatrix::from_fn(3, 20, |r, c| ((r * 31 + c * 17) % 13) as f64);
        let cols = candidate_union(&u, 3, &mut rng);
        assert!(cols.windows(2).all(|w| w[0] < w[1]));
        assert!(cols.len() <= 9);
        assert!(!cols.is_empty());
    }

    #[test]
    fn degenerate_k_needs_no_caller_guards() {
        let mut rng = StdRng::seed_from_u64(77);
        // k = 0 on empty and non-empty rows.
        assert!(top_k_indices(&[], 0, &mut rng).is_empty());
        assert!(top_k_indices(&[1.0, 2.0], 0, &mut rng).is_empty());
        // k ≥ len returns every index.
        assert_eq!(sorted(top_k_indices(&[3.0, 1.0], 5, &mut rng)), vec![0, 1]);
        assert!(top_k_indices(&[], 3, &mut rng).is_empty());
    }

    #[test]
    fn non_finite_rows_select_deterministically() {
        // All-NaN row: any k indices, but the same ones for the same
        // seed — the selection is a pure function of (row, k, rng).
        let all_nan = vec![f64::NAN; 7];
        let a = top_k_indices(&all_nan, 3, &mut StdRng::seed_from_u64(11));
        let b = top_k_indices(&all_nan, 3, &mut StdRng::seed_from_u64(11));
        assert_eq!(a, b);
        assert_eq!(a.len(), 3);
        assert_eq!(sorted(a).windows(2).filter(|w| w[0] == w[1]).count(), 0);
        // NaN ranks below every other value, ±∞ included: corrupted
        // entries are selected only when nothing better is left.
        let vals = [f64::NAN, 1.0, f64::NEG_INFINITY, f64::NAN, 2.0, f64::INFINITY];
        for seed in [0u64, 5, 99] {
            let mut rng = StdRng::seed_from_u64(seed);
            assert_eq!(sorted(top_k_indices(&vals, 3, &mut rng)), vec![1, 4, 5], "seed={seed}");
            assert_eq!(sorted(top_k_indices(&vals, 4, &mut rng)), vec![1, 2, 4, 5], "seed={seed}");
            let five = sorted(top_k_indices(&vals, 5, &mut rng));
            assert!(five == vec![0, 1, 2, 4, 5] || five == vec![1, 2, 3, 4, 5], "seed={seed}");
        }
        // All-non-finite mix: +∞ first, then −∞, then NaN.
        let grim = [f64::NAN, f64::NEG_INFINITY, f64::INFINITY];
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(sorted(top_k_indices(&grim, 2, &mut rng)), vec![1, 2]);
    }

    #[test]
    fn seeded_union_is_thread_count_invariant() {
        let u = UtilityMatrix::from_fn(17, 60, |r, c| (((r * 31 + c * 17) % 97) as f64) * 0.01);
        let base = candidate_union_seeded(&u, 6, 1013, 1);
        assert!(base.windows(2).all(|w| w[0] < w[1]));
        for threads in [2usize, 4, 8] {
            assert_eq!(candidate_union_seeded(&u, 6, 1013, threads), base, "threads={threads}");
        }
        // Different seed may legitimately pick different pivots, but the
        // union must still preserve the optimal value (Corollary 1 uses
        // k = rows).
        let full = max_weight_assignment(&u);
        for seed in [0u64, 9, 77] {
            let cols = candidate_union_seeded(&u, u.rows(), seed, 4);
            let red = max_weight_assignment(&u.select_columns(&cols));
            assert!((full.total - red.total).abs() < 1e-9, "seed={seed}");
        }
    }

    /// Run the fused kernel over a dense matrix's rows with fresh
    /// buffers and return them (CSR graph and union filled in).
    fn fuse(u: &UtilityMatrix, k: usize, seed: u64, threads: usize, cutoff: u64) -> FusedBuffers {
        let mut out = FusedBuffers::default();
        let score = |r: usize, buf: &mut [f64]| buf.copy_from_slice(u.row(r));
        fused_score_select((u.rows(), u.cols()), k, seed, threads, cutoff, &score, &mut out);
        out
    }

    #[test]
    fn fused_kernel_matches_unfused_selection_exactly() {
        let u = UtilityMatrix::from_fn(13, 40, |r, c| (((r * 29 + c * 13) % 83) as f64) * 0.02);
        let (k, seed) = (5usize, 4711u64);
        let FusedBuffers { csr, union, .. } = fuse(&u, k, seed, 1, pool::SEQ_CUTOFF_WORK);
        // Union identical to the unfused two-pass path.
        assert_eq!(union, candidate_union_seeded(&u, k, seed, 1));
        assert_eq!(csr.rows(), u.rows());
        assert_eq!(csr.cols(), union.len());
        // Per-row candidate sets identical to top_k_into with the same
        // per-row RNG, and utilities carried through bit-for-bit.
        for r in 0..u.rows() {
            let mut rng = StdRng::seed_from_u64(mix(seed ^ (r as u64)));
            let mut expect = top_k_indices(u.row(r), k, &mut rng);
            expect.sort_unstable();
            let got: Vec<usize> = csr.row_cols(r).iter().map(|&c| union[c]).collect();
            assert_eq!(got, expect, "row {r}");
            for (local, v) in csr.row_entries(r) {
                assert_eq!(v.to_bits(), u.get(r, union[local]).to_bits(), "row {r}");
            }
        }
    }

    #[test]
    fn fused_kernel_is_thread_count_invariant() {
        let u = UtilityMatrix::from_fn(23, 64, |r, c| (((r * 31 + c * 17) % 97) as f64) * 0.01);
        let base = fuse(&u, 7, 1013, 1, pool::SEQ_CUTOFF_WORK);
        for threads in [2usize, 4, 8] {
            // Cutoff 0 forces the parallel path even at small sizes.
            let out = fuse(&u, 7, 1013, threads, 0);
            assert_eq!(out.union, base.union, "threads={threads}");
            assert_eq!(out.csr, base.csr, "threads={threads}");
        }
    }

    #[test]
    fn fused_kernel_steady_state_allocates_nothing_inline() {
        let u = UtilityMatrix::from_fn(9, 30, |r, c| ((r * 7 + c * 3) % 11) as f64);
        let mut out = FusedBuffers::default();
        let score = |r: usize, buf: &mut [f64]| buf.copy_from_slice(u.row(r));
        let pass = |out: &mut FusedBuffers| {
            fused_score_select((u.rows(), u.cols()), 4, 9, 1, pool::SEQ_CUTOFF_WORK, &score, out)
        };
        pass(&mut out);
        pass(&mut out);
        let caps = (out.row.capacity(), out.sel_cols.capacity(), out.union.capacity());
        pass(&mut out);
        assert_eq!(
            (out.row.capacity(), out.sel_cols.capacity(), out.union.capacity()),
            caps,
            "warm fused pass must not reallocate"
        );
    }

    #[test]
    fn fused_kernel_handles_empty_batches() {
        let u = UtilityMatrix::zeros(0, 12);
        let out = fuse(&u, 3, 1, 1, pool::SEQ_CUTOFF_WORK);
        assert_eq!(out.csr.rows(), 0);
        assert!(out.union.is_empty());
    }

    #[test]
    fn fused_selection_on_ties_is_deterministic_and_value_equivalent() {
        // Heavy within-row duplication: only three distinct utilities,
        // so the k-boundary always lands inside a tie group. The heap
        // may legally pick a different tied *index* subset than the
        // quickselect path, but each row must still hold k distinct
        // indices, carry the same selected-utility multiset as
        // `top_k_into`, and be a pure function of (matrix, k, seed) for
        // every thread count.
        let u = UtilityMatrix::from_fn(11, 36, |_, c| ((c % 3) as f64) * 0.5);
        let (k, seed) = (7usize, 99u64);
        let FusedBuffers { csr, union, .. } = fuse(&u, k, seed, 1, pool::SEQ_CUTOFF_WORK);
        let again = fuse(&u, k, seed, 1, pool::SEQ_CUTOFF_WORK);
        assert_eq!(union, again.union);
        assert_eq!(csr.nnz(), again.csr.nnz());
        for threads in [2usize, 4] {
            // Cutoff 0 forces the parallel path even at this size.
            let out = fuse(&u, k, seed, threads, 0);
            assert_eq!(out.union, union, "threads={threads}");
            for r in 0..u.rows() {
                assert_eq!(out.csr.row_cols(r), csr.row_cols(r), "threads={threads} row={r}");
            }
        }
        for r in 0..u.rows() {
            let cols_r = csr.row_cols(r);
            assert_eq!(cols_r.len(), k, "row {r}");
            let mut distinct: Vec<usize> = cols_r.to_vec();
            distinct.dedup();
            assert_eq!(distinct.len(), k, "row {r}: indices must be distinct");
            let mut got: Vec<f64> = csr.row_utils(r).to_vec();
            got.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let mut rng = StdRng::seed_from_u64(mix(seed ^ (r as u64)));
            let mut expect: Vec<f64> =
                top_k_indices(u.row(r), k, &mut rng).iter().map(|&c| u.get(r, c)).collect();
            expect.sort_by(|a, b| a.partial_cmp(b).unwrap());
            assert_eq!(got, expect, "row {r}: selected utility multiset must match quickselect");
        }
    }
}
