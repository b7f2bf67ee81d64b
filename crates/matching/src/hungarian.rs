//! Kuhn–Munkres (Hungarian) maximum-weight assignment.
//!
//! Implemented as the shortest-augmenting-path ("Jonker–Volgenant style")
//! variant with dual potentials, which solves a rectangular `n × m`
//! (`n ≤ m`) *minimum-cost* assignment in `O(n² m)`. Maximum-weight
//! utility instances are negated into costs; the dual potentials make
//! negative costs unproblematic.
//!
//! Two entry points mirror the paper:
//!
//! * [`max_weight_assignment`] — rectangular form. Every request is
//!   matched (to distinct brokers), exactly what the reduced CBS graph of
//!   LACB-Opt needs: `O(|R|²·k)` on the pruned graph.
//! * [`max_weight_assignment_padded`] — the paper-faithful balanced form:
//!   the request side is padded with `|B| − |R|` dummy rows of zero
//!   utility so the matrix is `|B| × |B|` before solving (Sec. VI-B,
//!   "add dummy vertices … and execute the classical KM algorithm").
//!   This is what gives the `KM`, `AN` and plain `LACB` comparators their
//!   `O(|B|³)` running time, and reproducing the paper's running-time
//!   plots requires actually paying it.

use crate::graph::{AssignmentResult, UtilityMatrix};
use crate::sparse::SparseUtility;

/// Shape of the most recent [`KmSolver`] solve, retained so
/// [`KmSolver::certify`] can re-derive the cost matrix the stored dual
/// potentials refer to (including dummy padding rows and the transposed
/// orientation of tall rectangular solves).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SolveShape {
    /// Rows of the solved instance, including dummy padding rows.
    pub n_rows: usize,
    /// Columns of the solved instance (solver orientation).
    pub cols: usize,
    /// Real (non-dummy) rows of the caller's matrix, in solver
    /// orientation.
    pub n_real: usize,
    /// Whether the caller's matrix was transposed before solving.
    pub transposed: bool,
}

/// How much of the cost matrix [`KmSolver::certify`] scans.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CertifyMode {
    /// Complementary slackness on every matched pair plus the dual
    /// feasibility of one full row — `O(n + m)`. The row is taken
    /// modulo the solve's row count, so callers can simply rotate a
    /// counter.
    Sampled {
        /// Which row's feasibility to spot-check (wrapped into range).
        row: usize,
    },
    /// Every `(i, j)` cell — `O(n·m)`; intended for periodic deep
    /// audits, not the per-batch hot path.
    Full,
}

/// LP-duality certificate for the most recent [`KmSolver`] solve.
///
/// The shortest-augmenting-path KM maintains potentials with
/// `pot_u[i] + pot_v[j] ≤ cost(i,j)` for all pairs (dual feasibility)
/// and equality on matched pairs (complementary slackness); together
/// these prove the matching optimal. Both gaps are reported as
/// max-violations: a healthy solve keeps them at (floating-point) zero,
/// while corrupted duals, a tampered matrix, or an invalid matching
/// drive them positive or non-finite.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct KmCertificate {
    /// `max(0, pot_u[i] + pot_v[j] − cost(i,j))` over checked cells;
    /// NaN if any checked quantity is NaN.
    pub feasibility_gap: f64,
    /// `max |pot_u[i] + pot_v[j] − cost(i,j)|` over matched pairs; NaN
    /// if any checked quantity is NaN.
    pub slackness_gap: f64,
    /// Number of cells inspected.
    pub cells_checked: usize,
    /// Whether the full matrix was scanned (deep audit) or sampled.
    pub full: bool,
}

impl KmCertificate {
    /// Whether both gaps are finite and within `tol`.
    pub fn holds(&self, tol: f64) -> bool {
        self.feasibility_gap.is_finite()
            && self.slackness_gap.is_finite()
            && self.feasibility_gap <= tol
            && self.slackness_gap <= tol
    }
}

/// NaN-propagating running maximum: unlike `f64::max`, a NaN candidate
/// sticks, so corrupted state cannot hide behind a finite earlier gap.
fn max_propagating(acc: f64, x: f64) -> f64 {
    if x > acc || x.is_nan() {
        x
    } else {
        acc
    }
}

/// Typed failure modes of the assignment solvers.
///
/// The dual-potential update is numerically meaningless once a NaN or
/// ±∞ enters the cost matrix (the `delta` minimum poisons every
/// potential), so non-finite input is rejected up front instead of
/// being caught by a `debug_assert!` deep in the augmenting loop —
/// which release builds would skip, silently corrupting the matching.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum MatchingError {
    /// A utility entry was NaN or ±∞.
    NonFiniteUtility {
        /// Row (request index) of the offending entry.
        row: usize,
        /// Column (broker index) of the offending entry.
        col: usize,
    },
    /// A balanced solve was asked for a tall matrix (`rows > cols`).
    TooManyRows {
        /// Rows of the instance.
        rows: usize,
        /// Columns of the instance.
        cols: usize,
    },
    /// A sparse solve found a row with no augmenting path: the candidate
    /// graph violates Hall's condition. Cannot happen for CBS graphs
    /// with `k ≥ rows` (every row then has ≥ `rows` distinct candidates),
    /// but arbitrary sparse instances can hit it — callers fall back to
    /// the masked dense oracle.
    Infeasible {
        /// Row (request index) whose augmenting search ran dry.
        row: usize,
    },
}

impl std::fmt::Display for MatchingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MatchingError::NonFiniteUtility { row, col } => {
                write!(f, "non-finite utility at ({row}, {col})")
            }
            MatchingError::TooManyRows { rows, cols } => {
                write!(f, "padded KM expects requests ≤ brokers ({rows} > {cols})")
            }
            MatchingError::Infeasible { row } => {
                write!(f, "sparse instance has no augmenting path for row {row}")
            }
        }
    }
}

impl std::error::Error for MatchingError {}

/// Replacement value for sanitised non-finite utilities: negative
/// enough that a sanitised pair is only ever matched when no finite
/// alternative exists, yet far from overflowing the dual potentials.
pub const SANITIZED_UTILITY: f64 = -1.0e9;

/// Replace every non-finite utility with [`SANITIZED_UTILITY`] in
/// place; returns how many entries were rewritten. The degradation
/// ladder calls this before matching so one corrupted upstream score
/// cannot take down a batch.
pub fn sanitize_utilities(u: &mut UtilityMatrix) -> usize {
    let mut fixed = 0;
    for r in 0..u.rows() {
        for c in 0..u.cols() {
            if !u.get(r, c).is_finite() {
                u.set(r, c, SANITIZED_UTILITY);
                fixed += 1;
            }
        }
    }
    fixed
}

fn first_non_finite(u: &UtilityMatrix) -> Option<(usize, usize)> {
    for r in 0..u.rows() {
        for c in 0..u.cols() {
            if !u.get(r, c).is_finite() {
                return Some((r, c));
            }
        }
    }
    None
}

/// Fallible form of [`max_weight_assignment`]: rejects non-finite
/// utilities with a typed error instead of corrupting the solve.
pub fn try_max_weight_assignment(u: &UtilityMatrix) -> Result<AssignmentResult, MatchingError> {
    if let Some((row, col)) = first_non_finite(u) {
        return Err(MatchingError::NonFiniteUtility { row, col });
    }
    Ok(max_weight_assignment_inner(u))
}

/// Fallible form of [`max_weight_assignment_padded`].
pub fn try_max_weight_assignment_padded(
    u: &UtilityMatrix,
) -> Result<AssignmentResult, MatchingError> {
    if u.rows() > u.cols() {
        return Err(MatchingError::TooManyRows { rows: u.rows(), cols: u.cols() });
    }
    if let Some((row, col)) = first_non_finite(u) {
        return Err(MatchingError::NonFiniteUtility { row, col });
    }
    Ok(max_weight_assignment_padded_inner(u))
}

/// Maximum-weight assignment on a rectangular instance.
///
/// All `min(rows, cols)` requests on the smaller side are matched. If
/// `rows > cols` the instance is solved transposed and mapped back, so
/// callers never need to care about orientation.
///
/// ```
/// use matching::{max_weight_assignment, UtilityMatrix};
///
/// // Two requests, three brokers.
/// let u = UtilityMatrix::from_vec(2, 3, vec![
///     0.9, 0.1, 0.5,
///     0.8, 0.2, 0.4,
/// ]);
/// let a = max_weight_assignment(&u);
/// assert_eq!(a.row_to_col, vec![Some(0), Some(2)]); // 0.9 + 0.4
/// assert!((a.total - 1.3).abs() < 1e-12);
/// ```
pub fn max_weight_assignment(u: &UtilityMatrix) -> AssignmentResult {
    match try_max_weight_assignment(u) {
        Ok(a) => a,
        Err(e) => panic!("{e}"),
    }
}

fn max_weight_assignment_inner(u: &UtilityMatrix) -> AssignmentResult {
    KmSolver::new().solve(u)
}

/// The paper-faithful balanced Kuhn–Munkres: pad the request side with
/// zero-utility dummy rows until the instance is square, then solve.
///
/// The returned assignment only reports the real rows, but the *work done*
/// is that of the `cols × cols` balanced instance — `O(|B|³)`.
///
/// # Panics
/// Panics if `rows > cols`; broker matching always has `|R| ≤ |B|` after
/// batching (Sec. VI-B).
pub fn max_weight_assignment_padded(u: &UtilityMatrix) -> AssignmentResult {
    assert!(
        u.rows() <= u.cols(),
        "padded KM expects requests ≤ brokers ({} > {})",
        u.rows(),
        u.cols()
    );
    match try_max_weight_assignment_padded(u) {
        Ok(a) => a,
        Err(e) => panic!("{e}"),
    }
}

fn max_weight_assignment_padded_inner(u: &UtilityMatrix) -> AssignmentResult {
    KmSolver::new().solve_padded(u)
}

/// Reusable Kuhn–Munkres solver: owns all scratch arrays of the
/// shortest-augmenting-path formulation so repeated per-batch solves
/// allocate nothing, and carries *column dual potentials* across solves
/// for warm starting.
///
/// # Warm-start contract
///
/// The augmenting loop only ever reads costs through the reduced form
/// `c_ij − u_i − v_j`, so running it with initial column potentials `v⁰`
/// is arithmetically identical to a cold run on the shifted cost matrix
/// `c'_ij = c_ij − v⁰_j`. That shift is harmless **only when every
/// column is matched** — in a balanced (square) instance every perfect
/// matching pays `Σ_j v⁰_j` of shift, so the argmin is unchanged. In a
/// rectangular instance only some columns are used and the shift biases
/// column choice, producing a suboptimal matching for the original
/// costs. Therefore:
///
/// * [`KmSolver::solve_padded`] (balanced, pads rows with zero utility)
///   **is** warm-started from the previous padded solve whenever the
///   column count matches — exactly the serving pattern, where batch
///   `t+1` sees the same brokers whose "market prices" (duals) moved
///   only slightly.
/// * [`KmSolver::solve`] (rectangular) always starts cold and clears
///   any stored duals.
///
/// Warm starting changes nothing about optimality and at most the
/// tie-breaks of the returned matching; it shortens the augmenting-path
/// searches (see [`KmSolver::last_ops`] for a deterministic work
/// counter). Callers that checkpoint state must [`KmSolver::reset`] at
/// checkpoint boundaries — the duals are derived acceleration state and
/// are deliberately not serialised.
#[derive(Clone, Debug)]
pub struct KmSolver {
    pot_u: Vec<f64>,
    pot_v: Vec<f64>,
    matched_row: Vec<usize>, // column -> row (0 = free); 1-based
    way: Vec<usize>,
    minv: Vec<f64>,
    used: Vec<bool>,
    zero_row: Vec<f64>,
    /// Columns whose `minv` has left `+∞` during the current sparse
    /// augmenting search — the only columns the delta scan and the
    /// potential-update pass need to visit.
    touched: Vec<usize>,
    /// `Some(m)` when `pot_v[1..=m]` holds duals usable to warm-start the
    /// next balanced solve over `m` columns.
    warm_cols: Option<usize>,
    /// Inner-relaxation steps of the most recent solve (a deterministic
    /// proxy for work done; wall-clock-free way to compare warm vs cold).
    last_ops: u64,
    /// Shape of the most recent solve, or `None` when no certifiable
    /// solve has run (fresh solver, empty instance, or externally
    /// loaded potentials).
    last_shape: Option<SolveShape>,
}

impl Default for KmSolver {
    fn default() -> Self {
        Self::new()
    }
}

impl KmSolver {
    /// A fresh, cold solver with empty scratch buffers.
    pub fn new() -> Self {
        Self {
            pot_u: Vec::new(),
            pot_v: Vec::new(),
            matched_row: Vec::new(),
            way: Vec::new(),
            minv: Vec::new(),
            used: Vec::new(),
            zero_row: Vec::new(),
            touched: Vec::new(),
            warm_cols: None,
            last_ops: 0,
            last_shape: None,
        }
    }

    /// Forget any stored warm-start potentials (buffers are kept).
    pub fn reset(&mut self) {
        self.warm_cols = None;
    }

    /// Whether the next [`Self::solve_padded`] call can warm-start.
    pub fn is_warm(&self) -> bool {
        self.warm_cols.is_some()
    }

    /// Relaxation steps performed by the most recent solve.
    pub fn last_ops(&self) -> u64 {
        self.last_ops
    }

    /// Column duals left by the last balanced solve (empty when cold).
    pub fn column_potentials(&self) -> &[f64] {
        match self.warm_cols {
            Some(m) => &self.pot_v[1..=m],
            None => &[],
        }
    }

    /// Seed column duals for the next balanced solve, e.g. gathered from
    /// a broker-keyed store when the active column set changes between
    /// batches.
    pub fn load_column_potentials(&mut self, v: &[f64]) {
        let m = v.len();
        self.pot_v.clear();
        self.pot_v.resize(m + 1, 0.0);
        self.pot_v[1..=m].copy_from_slice(v);
        self.warm_cols = Some(m);
        // Externally seeded duals no longer certify the last solve.
        self.last_shape = None;
    }

    /// Shape of the most recent solve, if one is certifiable.
    pub fn last_shape(&self) -> Option<SolveShape> {
        self.last_shape
    }

    /// Mutable view of the raw column-potential array (1-based; index 0
    /// is the virtual-column sentinel). Exists solely for the seeded
    /// state-corruption injectors of the audit harness — unlike
    /// [`Self::load_column_potentials`] it deliberately keeps the solve
    /// certifiable, so a corrupted dual is *detectable* by
    /// [`Self::certify`] rather than silently excused.
    pub fn column_potentials_raw_mut(&mut self) -> &mut [f64] {
        &mut self.pot_v
    }

    /// Check the LP-duality certificate of the most recent solve against
    /// the utility matrix it was run on (in the *caller's* orientation —
    /// transposed tall solves are handled internally). Returns `None`
    /// when there is no certifiable solve or `u`'s dimensions do not
    /// match the recorded shape.
    ///
    /// Cost: `O(matched + cols)` for [`CertifyMode::Sampled`],
    /// `O(rows·cols)` for [`CertifyMode::Full`]. Allocates nothing.
    pub fn certify(&self, u: &UtilityMatrix, mode: CertifyMode) -> Option<KmCertificate> {
        let shape = self.last_shape?;
        let (ur, uc) = if shape.transposed { (u.cols(), u.rows()) } else { (u.rows(), u.cols()) };
        if ur != shape.n_real || uc != shape.cols {
            return None;
        }
        // cost(i, j) over 1-based solver coordinates; dummy padding rows
        // carry zero utility exactly as `run` read them.
        let cost = |i: usize, j: usize| -> f64 {
            if i > shape.n_real {
                0.0
            } else if shape.transposed {
                -u.get(j - 1, i - 1)
            } else {
                -u.get(i - 1, j - 1)
            }
        };
        let mut feasibility_gap = 0.0f64;
        let mut slackness_gap = 0.0f64;
        let mut cells = 0usize;
        // Complementary slackness: equality on every matched pair.
        for j in 1..=shape.cols {
            let i = self.matched_row[j];
            if i != 0 {
                let gap = (self.pot_u[i] + self.pot_v[j] - cost(i, j)).abs();
                slackness_gap = max_propagating(slackness_gap, gap);
                cells += 1;
            }
        }
        // Dual feasibility: pot_u[i] + pot_v[j] ≤ cost(i, j).
        let check_row = |i: usize, feas: &mut f64, cells: &mut usize| {
            for j in 1..=shape.cols {
                let gap = self.pot_u[i] + self.pot_v[j] - cost(i, j);
                *feas = max_propagating(*feas, gap);
                *cells += 1;
            }
        };
        let full = matches!(mode, CertifyMode::Full);
        match mode {
            CertifyMode::Full => {
                for i in 1..=shape.n_rows {
                    check_row(i, &mut feasibility_gap, &mut cells);
                }
            }
            CertifyMode::Sampled { row } => {
                if shape.n_rows > 0 {
                    check_row(1 + row % shape.n_rows, &mut feasibility_gap, &mut cells);
                }
            }
        }
        Some(KmCertificate { feasibility_gap, slackness_gap, cells_checked: cells, full })
    }

    /// Cold rectangular maximum-weight solve; drop-in equivalent of
    /// [`max_weight_assignment`] minus the allocations. Clears warm
    /// state (rectangular duals are not valid warm-start data — see the
    /// type-level docs).
    ///
    /// # Panics
    /// Panics on non-finite utilities, like [`max_weight_assignment`].
    pub fn solve(&mut self, u: &UtilityMatrix) -> AssignmentResult {
        if let Some((row, col)) = first_non_finite(u) {
            panic!("{}", MatchingError::NonFiniteUtility { row, col });
        }
        self.warm_cols = None;
        if u.rows() == 0 || u.cols() == 0 {
            self.last_ops = 0;
            self.last_shape = None;
            return AssignmentResult::empty(u.rows());
        }
        if u.rows() <= u.cols() {
            let a = self.run(u, u.rows());
            self.warm_cols = None;
            self.last_shape = Some(SolveShape {
                n_rows: u.rows(),
                cols: u.cols(),
                n_real: u.rows(),
                transposed: false,
            });
            a
        } else {
            // Transpose, solve, invert the mapping.
            let t = u.transpose();
            let at = self.run(&t, t.rows());
            self.warm_cols = None;
            self.last_shape = Some(SolveShape {
                n_rows: t.rows(),
                cols: t.cols(),
                n_real: t.rows(),
                transposed: true,
            });
            let mut row_to_col = vec![None; u.rows()];
            for (tc, m) in at.row_to_col.iter().enumerate() {
                if let Some(tr) = *m {
                    row_to_col[tr] = Some(tc);
                }
            }
            AssignmentResult { row_to_col, total: at.total }
        }
    }

    /// Balanced (padded) maximum-weight solve; drop-in equivalent of
    /// [`max_weight_assignment_padded`] minus the allocations, and
    /// **warm-started** from the previous balanced solve when the column
    /// count matches (or from [`Self::load_column_potentials`]).
    ///
    /// The dummy rows are never materialised: rows beyond `u.rows()` read
    /// from a cached all-zero row, so the padded matrix itself is gone
    /// too.
    ///
    /// # Panics
    /// Panics if `rows > cols` or on non-finite utilities, like
    /// [`max_weight_assignment_padded`].
    pub fn solve_padded(&mut self, u: &UtilityMatrix) -> AssignmentResult {
        assert!(
            u.rows() <= u.cols(),
            "padded KM expects requests ≤ brokers ({} > {})",
            u.rows(),
            u.cols()
        );
        if let Some((row, col)) = first_non_finite(u) {
            panic!("{}", MatchingError::NonFiniteUtility { row, col });
        }
        if u.cols() == 0 {
            self.last_ops = 0;
            self.last_shape = None;
            return AssignmentResult::empty(u.rows());
        }
        let a = self.run(u, u.cols());
        self.warm_cols = Some(u.cols());
        self.last_shape = Some(SolveShape {
            n_rows: u.cols(),
            cols: u.cols(),
            n_real: u.rows(),
            transposed: false,
        });
        // Report only the real rows; dummy rows exist solely to balance.
        let mut row_to_col = a.row_to_col;
        row_to_col.truncate(u.rows());
        let total = row_to_col.iter().enumerate().filter_map(|(r, m)| m.map(|c| u.get(r, c))).sum();
        AssignmentResult { row_to_col, total }
    }

    /// Cold maximum-weight solve of a CSR candidate graph; see
    /// [`Self::solve_sparse`]. Rejects non-finite utilities, `rows >
    /// cols` instances (no transposed sparse kernel — callers fall back
    /// to the masked dense solve) and Hall-violating graphs with typed
    /// errors instead of corrupting the solve.
    pub fn try_solve_sparse(
        &mut self,
        g: &SparseUtility,
    ) -> Result<AssignmentResult, MatchingError> {
        if let Some((row, col)) = g.first_non_finite() {
            return Err(MatchingError::NonFiniteUtility { row, col });
        }
        if g.rows() > g.cols() {
            return Err(MatchingError::TooManyRows { rows: g.rows(), cols: g.cols() });
        }
        self.warm_cols = None;
        if g.rows() == 0 || g.cols() == 0 {
            self.last_ops = 0;
            self.last_shape = None;
            return Ok(AssignmentResult::empty(g.rows()));
        }
        self.run_sparse(g)
    }

    /// Cold rectangular maximum-weight solve over a CSR candidate graph
    /// (`rows ≤ cols`), walking only the stored adjacency instead of
    /// scanning every column.
    ///
    /// **Equivalence contract:** bit-identical — assignment, total and
    /// dual potentials — to [`Self::solve`] on
    /// [`SparseUtility::to_dense_masked`] with [`SANITIZED_UTILITY`],
    /// whenever real utilities are small against the mask magnitude
    /// (serving utilities live in `[0, 1]` plus bounded refinements, so
    /// a masked pseudo-edge can never win an augmenting step). The
    /// masked dense solve is therefore the reference oracle; see
    /// DESIGN.md §16 for the full argument.
    ///
    /// # Panics
    /// Panics on non-finite utilities (like [`Self::solve`]), on
    /// `rows > cols`, and on infeasible graphs — use
    /// [`Self::try_solve_sparse`] where those are expected.
    pub fn solve_sparse(&mut self, g: &SparseUtility) -> AssignmentResult {
        match self.try_solve_sparse(g) {
            Ok(a) => a,
            Err(e) => panic!("{e}"),
        }
    }

    /// Sparse analogue of [`Self::run`]: identical float-op-for-float-op
    /// to the dense loop on the masked dense equivalent, restricted to
    /// the columns that can matter — relaxation walks row adjacency
    /// (≤ k edges), and the delta argmin / potential update visit only
    /// `touched` columns (the ones whose `minv` has left `+∞`; the
    /// dense loop's work on the rest is arithmetic on `±∞`/mask values
    /// that never wins a step).
    fn run_sparse(&mut self, g: &SparseUtility) -> Result<AssignmentResult, MatchingError> {
        let n = g.rows();
        let m = g.cols();
        debug_assert!(n <= m);
        const INF: f64 = f64::INFINITY;

        self.pot_v.clear();
        self.pot_v.resize(m + 1, 0.0);
        self.pot_u.clear();
        self.pot_u.resize(n + 1, 0.0);
        self.matched_row.clear();
        self.matched_row.resize(m + 1, 0);
        self.way.clear();
        self.way.resize(m + 1, 0);
        // `minv`/`used` are reset via the touched list after every
        // augmenting row (only entries in `touched ∪ {0}` are ever
        // written), so the O(cols) refill happens once per solve
        // instead of once per row.
        self.minv.clear();
        self.minv.resize(m + 1, INF);
        self.used.clear();
        self.used.resize(m + 1, false);
        self.touched.clear();
        let mut ops = 0u64;
        let mut infeasible = None;

        let Self { pot_u, pot_v, matched_row, way, minv, used, touched, .. } = self;

        'rows: for i in 1..=n {
            matched_row[0] = i;
            let mut j0 = 0usize;
            touched.clear();
            loop {
                ops += 1;
                used[j0] = true;
                let i0 = matched_row[j0];
                // Relax only the real candidate edges of row i0.
                for (c, util) in g.row_entries(i0 - 1) {
                    let j = c + 1;
                    if used[j] {
                        continue;
                    }
                    // cost = -utility, as in the dense loop.
                    let cur = -util - pot_u[i0] - pot_v[j];
                    if cur < minv[j] {
                        if minv[j] == INF {
                            touched.push(j);
                        }
                        minv[j] = cur;
                        way[j] = j0;
                    }
                }
                // Argmin over touched columns. The dense loop scans j
                // ascending with a strict `<`, i.e. smallest j wins a
                // tie — `(v == delta && j < j1)` reproduces that for an
                // arbitrary scan order.
                let mut delta = INF;
                let mut j1 = 0usize;
                for &j in touched.iter() {
                    if used[j] {
                        continue;
                    }
                    let v = minv[j];
                    if v < delta || (v == delta && j < j1) {
                        delta = v;
                        j1 = j;
                    }
                }
                if !delta.is_finite() {
                    infeasible = Some(i - 1);
                    break 'rows;
                }
                // Potentials move only at used columns — the same set
                // the dense pass updates (every used column except the
                // virtual column 0 was touched first).
                pot_u[matched_row[0]] += delta;
                pot_v[0] -= delta;
                for &j in touched.iter() {
                    if used[j] {
                        pot_u[matched_row[j]] += delta;
                        pot_v[j] -= delta;
                    } else {
                        minv[j] -= delta;
                    }
                }
                j0 = j1;
                if matched_row[j0] == 0 {
                    break;
                }
            }
            // Unwind the alternating path.
            loop {
                let j1 = way[j0];
                matched_row[j0] = matched_row[j1];
                j0 = j1;
                if j0 == 0 {
                    break;
                }
            }
            // Only touched columns (plus the virtual column 0) were
            // written this row; restore just those instead of an
            // O(cols) refill.
            for &j in touched.iter() {
                minv[j] = INF;
                used[j] = false;
            }
            used[0] = false;
        }
        self.last_ops = ops;
        if let Some(row) = infeasible {
            self.last_shape = None;
            return Err(MatchingError::Infeasible { row });
        }
        self.last_shape = Some(SolveShape { n_rows: n, cols: m, n_real: n, transposed: false });

        let mut row_to_col = vec![None; n];
        let mut total = 0.0;
        for j in 1..=m {
            let i = self.matched_row[j];
            if i != 0 {
                row_to_col[i - 1] = Some(j - 1);
                total += self.touched_total_edge(g, i - 1, j - 1);
            }
        }
        Ok(AssignmentResult { row_to_col, total })
    }

    /// A matched pair of a sparse solve is always a real candidate edge
    /// (masked pseudo-edges are never selected); missing would mean the
    /// solver state was corrupted mid-solve.
    fn touched_total_edge(&self, g: &SparseUtility, r: usize, c: usize) -> f64 {
        match g.get(r, c) {
            Some(v) => v,
            None => panic!("matched pair ({r}, {c}) is not a candidate edge"),
        }
    }

    /// [`Self::certify`] for the most recent [`Self::solve_sparse`]:
    /// complementary slackness over matched pairs and dual feasibility
    /// over the *stored* candidate edges. Missing edges carry implicit
    /// `+∞` cost, so their feasibility constraints hold vacuously; a
    /// matched pair that is not a stored edge surfaces as a NaN
    /// slackness gap (certificate fails).
    pub fn certify_sparse(&self, g: &SparseUtility, mode: CertifyMode) -> Option<KmCertificate> {
        let shape = self.last_shape?;
        if shape.transposed
            || shape.n_rows != g.rows()
            || shape.n_real != g.rows()
            || shape.cols != g.cols()
        {
            return None;
        }
        let mut feasibility_gap = 0.0f64;
        let mut slackness_gap = 0.0f64;
        let mut cells = 0usize;
        for j in 1..=shape.cols {
            let i = self.matched_row[j];
            if i != 0 {
                let cost = match g.get(i - 1, j - 1) {
                    Some(v) => -v,
                    None => f64::NAN,
                };
                let gap = (self.pot_u[i] + self.pot_v[j] - cost).abs();
                slackness_gap = max_propagating(slackness_gap, gap);
                cells += 1;
            }
        }
        let check_row = |i: usize, feas: &mut f64, cells: &mut usize| {
            for (c, v) in g.row_entries(i - 1) {
                let gap = self.pot_u[i] + self.pot_v[c + 1] - (-v);
                *feas = max_propagating(*feas, gap);
                *cells += 1;
            }
        };
        let full = matches!(mode, CertifyMode::Full);
        match mode {
            CertifyMode::Full => {
                for i in 1..=shape.n_rows {
                    check_row(i, &mut feasibility_gap, &mut cells);
                }
            }
            CertifyMode::Sampled { row } => {
                if shape.n_rows > 0 {
                    check_row(1 + row % shape.n_rows, &mut feasibility_gap, &mut cells);
                }
            }
        }
        Some(KmCertificate { feasibility_gap, slackness_gap, cells_checked: cells, full })
    }

    /// Core shortest-augmenting-path loop over `n_rows` rows (rows past
    /// `u.rows()` are zero-utility padding) and `u.cols()` columns,
    /// minimising `-utility`. Expects `n_rows ≤ u.cols()`. Starts from
    /// `pot_v` as-is when `warm_cols == Some(u.cols())`, zeros otherwise.
    #[allow(clippy::needless_range_loop)] // index loops are the clear idiom in this kernel
    fn run(&mut self, u: &UtilityMatrix, n_rows: usize) -> AssignmentResult {
        let n = n_rows;
        let m = u.cols();
        let n_real = u.rows();
        debug_assert!(n <= m);
        const INF: f64 = f64::INFINITY;

        // Resize scratch; 1-based arrays in the classic formulation.
        let warm = self.warm_cols == Some(m);
        if !warm {
            self.pot_v.clear();
            self.pot_v.resize(m + 1, 0.0);
        }
        self.pot_v[0] = 0.0; // virtual-column dual is never read; keep it tame
        self.pot_u.clear();
        self.pot_u.resize(n + 1, 0.0);
        self.matched_row.clear();
        self.matched_row.resize(m + 1, 0);
        self.way.clear();
        self.way.resize(m + 1, 0);
        self.minv.resize(m + 1, 0.0);
        self.used.resize(m + 1, false);
        self.zero_row.clear();
        self.zero_row.resize(m, 0.0);
        let mut ops = 0u64;

        // Split borrows: scratch fields are disjoint, and `zero_row` is
        // only ever read.
        let Self { pot_u, pot_v, matched_row, way, minv, used, zero_row, .. } = self;

        for i in 1..=n {
            matched_row[0] = i;
            let mut j0 = 0usize;
            minv.iter_mut().for_each(|v| *v = INF);
            used.iter_mut().for_each(|v| *v = false);
            loop {
                ops += 1;
                used[j0] = true;
                let i0 = matched_row[j0];
                let mut delta = INF;
                let mut j1 = 0usize;
                let row: &[f64] = if i0 - 1 < n_real { u.row(i0 - 1) } else { &zero_row[..] };
                for j in 1..=m {
                    if used[j] {
                        continue;
                    }
                    // cost = -utility
                    let cur = -row[j - 1] - pot_u[i0] - pot_v[j];
                    if cur < minv[j] {
                        minv[j] = cur;
                        way[j] = j0;
                    }
                    if minv[j] < delta {
                        delta = minv[j];
                        j1 = j;
                    }
                }
                debug_assert!(delta.is_finite(), "no augmenting path found");
                for j in 0..=m {
                    if used[j] {
                        pot_u[matched_row[j]] += delta;
                        pot_v[j] -= delta;
                    } else {
                        minv[j] -= delta;
                    }
                }
                j0 = j1;
                if matched_row[j0] == 0 {
                    break;
                }
            }
            // Unwind the alternating path.
            loop {
                let j1 = way[j0];
                matched_row[j0] = matched_row[j1];
                j0 = j1;
                if j0 == 0 {
                    break;
                }
            }
        }
        self.last_ops = ops;

        let mut row_to_col = vec![None; n];
        let mut total = 0.0;
        for j in 1..=m {
            let i = self.matched_row[j];
            if i != 0 {
                row_to_col[i - 1] = Some(j - 1);
                if i - 1 < n_real {
                    total += u.get(i - 1, j - 1);
                }
            }
        }
        AssignmentResult { row_to_col, total }
    }
}

/// Exhaustive optimal assignment by enumeration — exponential, only for
/// cross-checking the solvers on tiny instances in tests.
pub fn brute_force_assignment(u: &UtilityMatrix) -> f64 {
    fn rec(u: &UtilityMatrix, row: usize, used: &mut Vec<bool>) -> f64 {
        if row == u.rows() {
            return 0.0;
        }
        let mut best = f64::NEG_INFINITY;
        for c in 0..u.cols() {
            if !used[c] {
                used[c] = true;
                let v = u.get(row, c) + rec(u, row + 1, used);
                used[c] = false;
                if v > best {
                    best = v;
                }
            }
        }
        best
    }
    assert!(u.rows() <= u.cols(), "brute force expects rows ≤ cols");
    if u.rows() == 0 {
        return 0.0;
    }
    let mut used = vec![false; u.cols()];
    rec(u, 0, &mut used)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solves_figure7_example() {
        // Fig. 7 of the paper: refined utilities u11=0.25, u12=0.45,
        // u21=0.4, u22=0.5; optimum is {(b1,r2),(b2,r1)} = 0.45+0.4.
        let u = UtilityMatrix::from_vec(2, 2, vec![0.25, 0.40, 0.45, 0.50]);
        // rows are requests r1, r2; columns brokers b1, b2.
        let a = max_weight_assignment(&u);
        assert_eq!(a.row_to_col, vec![Some(1), Some(0)]);
        assert!((a.total - 0.85).abs() < 1e-12);
    }

    #[test]
    fn identity_best_on_diagonal() {
        let u = UtilityMatrix::from_fn(3, 3, |r, c| if r == c { 10.0 } else { 1.0 });
        let a = max_weight_assignment(&u);
        assert_eq!(a.row_to_col, vec![Some(0), Some(1), Some(2)]);
        assert_eq!(a.total, 30.0);
        a.validate(&u);
    }

    #[test]
    fn rectangular_uses_best_columns() {
        let u = UtilityMatrix::from_vec(1, 4, vec![0.1, 0.9, 0.3, 0.2]);
        let a = max_weight_assignment(&u);
        assert_eq!(a.row_to_col, vec![Some(1)]);
    }

    #[test]
    fn tall_matrices_are_transposed() {
        // 3 rows, 2 cols: only 2 rows can match.
        let u = UtilityMatrix::from_vec(3, 2, vec![5.0, 1.0, 1.0, 5.0, 4.0, 4.0]);
        let a = max_weight_assignment(&u);
        assert_eq!(a.matched_count(), 2);
        assert!((a.validate(&u) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn handles_negative_utilities() {
        let u = UtilityMatrix::from_vec(2, 2, vec![-1.0, -5.0, -5.0, -1.0]);
        let a = max_weight_assignment(&u);
        assert_eq!(a.total, -2.0);
    }

    #[test]
    fn padded_matches_rectangular_value() {
        let u = UtilityMatrix::from_fn(3, 6, |r, c| ((r * 7 + c * 3) % 10) as f64 * 0.1);
        let rect = max_weight_assignment(&u);
        let padded = max_weight_assignment_padded(&u);
        assert!((rect.total - padded.total).abs() < 1e-9);
        padded.validate(&u);
    }

    #[test]
    fn matches_brute_force_on_small_instances() {
        // Deterministic pseudo-random instances.
        let mut seed = 12345u64;
        let mut next = move || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((seed >> 33) as f64) / (u32::MAX as f64)
        };
        for (n, m) in [(2, 2), (3, 3), (3, 5), (4, 4), (4, 7), (5, 5)] {
            let u = UtilityMatrix::from_fn(n, m, |_, _| next() * 2.0 - 0.5);
            let a = max_weight_assignment(&u);
            let best = brute_force_assignment(&u);
            assert!((a.total - best).abs() < 1e-9, "{n}x{m}: solver {} vs brute {best}", a.total);
            a.validate(&u);
        }
    }

    #[test]
    fn empty_instances() {
        let a = max_weight_assignment(&UtilityMatrix::zeros(0, 5));
        assert_eq!(a.row_to_col.len(), 0);
        let b = max_weight_assignment(&UtilityMatrix::zeros(3, 0));
        assert_eq!(b.matched_count(), 0);
    }

    #[test]
    #[should_panic(expected = "requests ≤ brokers")]
    fn padded_rejects_tall() {
        max_weight_assignment_padded(&UtilityMatrix::zeros(3, 2));
    }

    #[test]
    fn all_rows_matched_when_rows_leq_cols() {
        let u = UtilityMatrix::from_fn(4, 9, |r, c| ((r + c) % 5) as f64);
        let a = max_weight_assignment(&u);
        assert_eq!(a.matched_count(), 4);
    }

    #[test]
    fn try_rejects_nan_with_location() {
        let mut u = UtilityMatrix::from_fn(3, 4, |r, c| (r + c) as f64);
        u.set(1, 2, f64::NAN);
        assert_eq!(
            try_max_weight_assignment(&u),
            Err(MatchingError::NonFiniteUtility { row: 1, col: 2 })
        );
        u.set(1, 2, f64::INFINITY);
        assert!(try_max_weight_assignment(&u).is_err());
        assert!(try_max_weight_assignment_padded(&u).is_err());
    }

    #[test]
    fn try_padded_rejects_tall_as_error() {
        assert_eq!(
            try_max_weight_assignment_padded(&UtilityMatrix::zeros(3, 2)),
            Err(MatchingError::TooManyRows { rows: 3, cols: 2 })
        );
    }

    #[test]
    #[should_panic(expected = "non-finite utility")]
    fn infallible_wrapper_panics_on_nan_instead_of_corrupting() {
        let mut u = UtilityMatrix::zeros(2, 2);
        u.set(0, 0, f64::NAN);
        max_weight_assignment(&u);
    }

    /// Deterministic LCG in [0,1) for reproducible random instances.
    fn lcg(seed: u64) -> impl FnMut() -> f64 {
        let mut s = seed;
        move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((s >> 33) as f64) / (u32::MAX as f64)
        }
    }

    #[test]
    fn km_solver_matches_free_functions() {
        let mut next = lcg(77);
        let mut solver = KmSolver::new();
        for (n, m) in [(2, 2), (3, 5), (5, 5), (4, 7), (6, 3)] {
            let u = UtilityMatrix::from_fn(n, m, |_, _| next() * 2.0 - 0.5);
            let a = solver.solve(&u);
            let b = max_weight_assignment(&u);
            assert_eq!(a.row_to_col, b.row_to_col, "{n}x{m}");
            assert_eq!(a.total.to_bits(), b.total.to_bits(), "{n}x{m}");
            if n <= m {
                let ap = solver.solve_padded(&u);
                let bp = max_weight_assignment_padded(&u);
                assert!((ap.total - bp.total).abs() < 1e-9, "{n}x{m} padded");
                ap.validate(&u);
            }
        }
    }

    #[test]
    fn warm_padded_solve_stays_optimal_on_perturbed_sequence() {
        // Serving pattern: successive batches over the same brokers with
        // slightly perturbed utilities. The warm solver must stay exactly
        // optimal (checked against brute force) at every step.
        let mut next = lcg(2024);
        let n = 4;
        let m = 6;
        let base = UtilityMatrix::from_fn(n, m, |_, _| next());
        let mut warm = KmSolver::new();
        for _batch in 0..12 {
            let u = UtilityMatrix::from_fn(n, m, |r, c| base.get(r, c) + 0.05 * (next() - 0.5));
            let got = warm.solve_padded(&u);
            let best = brute_force_assignment(&u);
            assert!(
                (got.total - best).abs() < 1e-9,
                "warm solve must stay optimal: {} vs {best}",
                got.total
            );
            got.validate(&u);
        }
    }

    #[test]
    fn warm_padded_solve_does_less_work_than_cold() {
        // Larger balanced instances where duals genuinely transfer: the
        // same matrix modulo a ±0.005 perturbation per batch. The second
        // input is the serving-shaped sequence (30 batches of 53-bit LCG
        // draws from seed 0xB5). Batch 0 is cold in both runs, so work is
        // counted from batch 1. `last_ops` is a deterministic work
        // counter, so this cannot flake on timing.
        let mut s = 0xB5u64;
        let draw53 = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        let inputs: [(Box<dyn FnMut() -> f64>, usize); 2] =
            [(Box::new(lcg(99)), 8), (Box::new(draw53), 30)];
        for (mut next, batches) in inputs {
            let m = 40;
            let base = UtilityMatrix::from_fn(m, m, |_, _| next());
            let mut warm = KmSolver::new();
            let mut warm_ops = 0u64;
            let mut cold_ops = 0u64;
            for batch in 0..batches {
                let u = UtilityMatrix::from_fn(m, m, |r, c| base.get(r, c) + 0.01 * (next() - 0.5));
                let w = warm.solve_padded(&u);
                if batch > 0 {
                    warm_ops += warm.last_ops();
                    let mut cold = KmSolver::new();
                    let c = cold.solve_padded(&u);
                    cold_ops += cold.last_ops();
                    assert!((w.total - c.total).abs() < 1e-9, "warm and cold must agree on value");
                }
            }
            assert!(
                warm_ops * 3 < cold_ops * 2,
                "warm start should cut relaxation work by ≥1.5x over {batches} batches: \
                 warm {warm_ops} vs cold {cold_ops}"
            );
        }
    }

    #[test]
    fn warm_state_resets_and_rect_solves_never_warm_start() {
        let u = UtilityMatrix::from_fn(3, 3, |r, c| ((r * 3 + c) % 5) as f64);
        let mut s = KmSolver::new();
        s.solve_padded(&u);
        assert!(s.is_warm());
        assert_eq!(s.column_potentials().len(), 3);
        s.reset();
        assert!(!s.is_warm());
        s.solve_padded(&u);
        assert!(s.is_warm());
        // A rectangular solve invalidates stored duals.
        let rect = UtilityMatrix::from_fn(2, 4, |r, c| (r + c) as f64);
        s.solve(&rect);
        assert!(!s.is_warm());
        assert!(s.column_potentials().is_empty());
    }

    #[test]
    fn reset_solver_reproduces_a_fresh_one_bitwise() {
        // One solver reused across a stream of unrelated instances and
        // reset before each answers exactly as a fresh one: no warm
        // state of the last instance leaks into the next solve. Runs of
        // four instances share a column count, so a leak could warm-start.
        let mut next = lcg(314159);
        let instances: Vec<(UtilityMatrix, SparseUtility)> = (0..24)
            .map(|i| {
                let rows = 1 + i % 4;
                let cols = 4 + (i / 4) % 3;
                let u = UtilityMatrix::from_fn(rows, cols, |_, _| next() * 2.0 - 0.5);
                // Every row keeps more than `rows` candidates: feasible.
                let g = top_k_sparsify(&u, (rows + 1).min(cols));
                (u, g)
            })
            .collect();
        type Solve = fn(&mut KmSolver, &UtilityMatrix, &SparseUtility) -> AssignmentResult;
        let solves: [(&str, Solve); 3] = [
            ("rect", |s, u, _| s.solve(u)),
            ("padded", |s, u, _| s.solve_padded(u)),
            ("sparse", |s, _, g| s.solve_sparse(g)),
        ];
        for (kind, solve) in solves {
            let mut reused = KmSolver::new();
            for (i, (u, g)) in instances.iter().enumerate() {
                reused.reset();
                let mut fresh = KmSolver::new();
                let a = solve(&mut reused, u, g);
                let b = solve(&mut fresh, u, g);
                assert_eq!(a.row_to_col, b.row_to_col, "instance {i} {kind}");
                assert_eq!(a.total.to_bits(), b.total.to_bits(), "instance {i} {kind}");
                // Relaxation work is a deterministic count that a warm
                // start would change.
                assert_eq!(reused.last_ops(), fresh.last_ops(), "instance {i} {kind}");
            }
        }
    }

    #[test]
    fn loaded_potentials_warm_start_a_changed_column_set() {
        // Broker-keyed duals gathered for a different active set must
        // still give optimal balanced solves (correctness is independent
        // of the seed values).
        let mut next = lcg(5);
        let u = UtilityMatrix::from_fn(5, 5, |_, _| next() * 3.0 - 1.0);
        let mut s = KmSolver::new();
        s.load_column_potentials(&[0.7, -0.3, 0.0, 12.5, -4.0]);
        assert!(s.is_warm());
        let got = s.solve_padded(&u);
        let best = brute_force_assignment(&u);
        assert!((got.total - best).abs() < 1e-9);
    }

    #[test]
    fn certificate_holds_on_every_solver_shape() {
        let mut next = lcg(31);
        let mut solver = KmSolver::new();
        // Rectangular wide, square, tall (transposed internally), padded.
        for (n, m) in [(3, 5), (4, 4), (6, 3), (2, 7)] {
            let u = UtilityMatrix::from_fn(n, m, |_, _| next() * 2.0 - 0.5);
            solver.solve(&u);
            let c = solver.certify(&u, CertifyMode::Full).expect("certifiable");
            assert!(c.holds(1e-9), "{n}x{m} rect: {c:?}");
            assert!(c.full);
            let s = solver.certify(&u, CertifyMode::Sampled { row: 42 }).unwrap();
            assert!(s.holds(1e-9), "{n}x{m} rect sampled: {s:?}");
            assert!(!s.full);
            assert!(s.cells_checked < c.cells_checked);
            if n <= m {
                solver.solve_padded(&u);
                let p = solver.certify(&u, CertifyMode::Full).unwrap();
                assert!(p.holds(1e-9), "{n}x{m} padded: {p:?}");
                // Warm resolve stays certifiable too.
                solver.solve_padded(&u);
                let w = solver.certify(&u, CertifyMode::Full).unwrap();
                assert!(w.holds(1e-9), "{n}x{m} warm padded: {w:?}");
            }
        }
    }

    #[test]
    fn certificate_detects_tampered_duals() {
        let mut next = lcg(64);
        let u = UtilityMatrix::from_fn(4, 6, |_, _| next());
        let mut solver = KmSolver::new();
        solver.solve_padded(&u);
        assert!(solver.certify(&u, CertifyMode::Full).unwrap().holds(1e-9));
        solver.pot_v[2] += 0.5; // break feasibility and matched-pair slackness
        let c = solver.certify(&u, CertifyMode::Full).unwrap();
        assert!(!c.holds(1e-9), "tampered duals must fail: {c:?}");
        solver.pot_v[2] = f64::NAN;
        let c = solver.certify(&u, CertifyMode::Full).unwrap();
        assert!(!c.holds(1e-9), "NaN duals must fail: {c:?}");
        assert!(c.slackness_gap.is_nan() || c.feasibility_gap.is_nan());
    }

    #[test]
    fn certificate_detects_matrix_drift() {
        // The duals certify the matrix that was solved; presenting a
        // different matrix of the same shape must break the certificate
        // whenever the change affects an optimal cell.
        let u = UtilityMatrix::from_vec(2, 2, vec![0.25, 0.40, 0.45, 0.50]);
        let mut solver = KmSolver::new();
        solver.solve_padded(&u);
        let mut drifted = u.clone();
        drifted.set(0, 1, 5.0);
        let c = solver.certify(&drifted, CertifyMode::Full).unwrap();
        assert!(!c.holds(1e-9), "drifted matrix must fail: {c:?}");
    }

    #[test]
    fn certify_refuses_mismatched_shapes_and_cold_solvers() {
        let solver = KmSolver::new();
        let u = UtilityMatrix::zeros(2, 3);
        assert!(solver.certify(&u, CertifyMode::Full).is_none(), "cold solver");
        let mut solver = KmSolver::new();
        solver.solve(&u);
        assert!(solver.certify(&UtilityMatrix::zeros(2, 4), CertifyMode::Full).is_none());
        solver.load_column_potentials(&[0.0, 0.0, 0.0]);
        assert!(solver.certify(&u, CertifyMode::Full).is_none(), "loaded duals");
        let empty = UtilityMatrix::zeros(0, 3);
        solver.solve(&empty);
        assert!(solver.certify(&empty, CertifyMode::Full).is_none(), "empty solve");
    }

    #[test]
    fn sampled_rows_rotate_through_the_instance() {
        let mut next = lcg(9);
        let u = UtilityMatrix::from_fn(3, 3, |_, _| next());
        let mut solver = KmSolver::new();
        solver.solve(&u);
        for row in 0..10 {
            let c = solver.certify(&u, CertifyMode::Sampled { row }).unwrap();
            assert!(c.holds(1e-9), "sampled row {row}: {c:?}");
        }
        assert_eq!(
            solver.last_shape(),
            Some(SolveShape { n_rows: 3, cols: 3, n_real: 3, transposed: false })
        );
    }

    /// Keep each row's `k` largest entries of a dense matrix as a CSR
    /// candidate graph (deterministic ties: smaller column wins).
    fn top_k_sparsify(u: &UtilityMatrix, k: usize) -> SparseUtility {
        let mut g = SparseUtility::new();
        g.begin(u.cols());
        for r in 0..u.rows() {
            let mut cols: Vec<usize> = (0..u.cols()).collect();
            cols.sort_by(|&a, &b| u.get(r, b).partial_cmp(&u.get(r, a)).unwrap().then(a.cmp(&b)));
            cols.truncate(k);
            cols.sort_unstable();
            g.push_row(cols.into_iter().map(|c| (c, u.get(r, c))));
        }
        g
    }

    #[test]
    fn full_sparse_graph_matches_dense_solve_bitwise() {
        let mut next = lcg(4242);
        let mut dense = KmSolver::new();
        let mut sparse = KmSolver::new();
        for (n, m) in [(1, 1), (2, 3), (4, 4), (5, 9), (7, 7)] {
            let u = UtilityMatrix::from_fn(n, m, |_, _| next() * 2.0 - 0.5);
            let g = SparseUtility::from_dense(&u);
            let a = dense.solve(&u);
            let b = sparse.solve_sparse(&g);
            assert_eq!(a.row_to_col, b.row_to_col, "{n}x{m}");
            assert_eq!(a.total.to_bits(), b.total.to_bits(), "{n}x{m}");
        }
    }

    #[test]
    fn topk_sparse_solve_matches_masked_dense_oracle_bitwise() {
        let mut next = lcg(99177);
        let mut dense = KmSolver::new();
        let mut sparse = KmSolver::new();
        for trial in 0..40 {
            let n = 1 + trial % 6;
            let m = n + trial % 9;
            let k = (n + trial % 3).min(m);
            // Ties included: quantised utilities collide often.
            let u = UtilityMatrix::from_fn(n, m, |_, _| (next() * 8.0).floor() * 0.125 - 0.25);
            let g = top_k_sparsify(&u, k);
            let oracle = g.to_dense_masked(SANITIZED_UTILITY);
            let a = dense.solve(&oracle);
            let b = sparse.solve_sparse(&g);
            assert_eq!(a.row_to_col, b.row_to_col, "trial {trial} ({n}x{m}, k={k})");
            assert_eq!(a.total.to_bits(), b.total.to_bits(), "trial {trial}");
            // Dual potentials agree on every column the sparse solve
            // maintains, so both certificates hold.
            let cd = dense.certify(&oracle, CertifyMode::Full).unwrap();
            assert!(cd.holds(1e-9), "trial {trial} dense: {cd:?}");
            let cs = sparse.certify_sparse(&g, CertifyMode::Full).unwrap();
            assert!(cs.holds(1e-9), "trial {trial} sparse: {cs:?}");
        }
    }

    #[test]
    fn sparse_rejects_bad_inputs_with_typed_errors() {
        let mut s = KmSolver::new();
        // Non-finite entry.
        let mut g = SparseUtility::new();
        g.begin(2);
        g.push_row([(0, 1.0), (1, f64::NAN)]);
        assert_eq!(s.try_solve_sparse(&g), Err(MatchingError::NonFiniteUtility { row: 0, col: 1 }));
        // Tall instance: no transposed sparse kernel.
        let mut g = SparseUtility::new();
        g.begin(1);
        g.push_row([(0, 1.0)]);
        g.push_row([(0, 2.0)]);
        assert_eq!(s.try_solve_sparse(&g), Err(MatchingError::TooManyRows { rows: 2, cols: 1 }));
        // Hall violation: two rows share one candidate.
        let mut g = SparseUtility::new();
        g.begin(2);
        g.push_row([(0, 0.5)]);
        g.push_row([(0, 0.3)]);
        assert_eq!(s.try_solve_sparse(&g), Err(MatchingError::Infeasible { row: 1 }));
        assert!(s.last_shape().is_none(), "failed solve must not be certifiable");
        // Empty instances are fine.
        let mut g = SparseUtility::new();
        g.begin(4);
        assert_eq!(s.try_solve_sparse(&g), Ok(AssignmentResult::empty(0)));
    }

    #[test]
    #[should_panic(expected = "no augmenting path")]
    fn solve_sparse_panics_on_infeasible() {
        let mut g = SparseUtility::new();
        g.begin(3);
        g.push_row([]);
        KmSolver::new().solve_sparse(&g);
    }

    #[test]
    fn sparse_certificate_detects_tampered_duals() {
        let mut next = lcg(314);
        let u = UtilityMatrix::from_fn(3, 6, |_, _| next());
        let g = top_k_sparsify(&u, 3);
        let mut s = KmSolver::new();
        let a = s.solve_sparse(&g);
        assert!(s.certify_sparse(&g, CertifyMode::Full).unwrap().holds(1e-9));
        let sampled = s.certify_sparse(&g, CertifyMode::Sampled { row: 7 }).unwrap();
        assert!(sampled.holds(1e-9) && !sampled.full);
        // Corrupt the dual of a *matched* column: slackness must break.
        // (A column with no candidate edge is legitimately
        // unconstrained — only real edges certify.)
        let matched = a.row_to_col[0].unwrap();
        s.pot_v[matched + 1] += 5.0;
        let c = s.certify_sparse(&g, CertifyMode::Full).unwrap();
        assert!(!c.holds(1e-9), "tampered duals must fail: {c:?}");
        // Mismatched shapes refuse to certify.
        let mut other = SparseUtility::new();
        other.begin(5);
        other.push_row([(0, 1.0)]);
        assert!(s.certify_sparse(&other, CertifyMode::Full).is_none());
    }

    #[test]
    fn sparse_solve_is_optimal_against_brute_force() {
        let mut next = lcg(2718);
        let mut s = KmSolver::new();
        for trial in 0..20 {
            let n = 2 + trial % 4;
            let m = n + 2;
            let u = UtilityMatrix::from_fn(n, m, |_, _| next() * 3.0 - 1.0);
            // k = n: Corollary 1's regime — the candidate graph contains
            // an optimal assignment of the full graph.
            let g = top_k_sparsify(&u, n);
            let a = s.solve_sparse(&g);
            let best = brute_force_assignment(&u);
            assert!(
                (a.total - best).abs() < 1e-9,
                "trial {trial}: sparse {} vs brute {best}",
                a.total
            );
            a.validate(&u);
        }
    }

    #[test]
    fn sanitize_repairs_corrupted_matrix_for_solving() {
        let mut u = UtilityMatrix::from_fn(3, 5, |r, c| ((r * 3 + c) % 7) as f64 * 0.2);
        u.set(0, 1, f64::NAN);
        u.set(2, 4, f64::NEG_INFINITY);
        assert_eq!(sanitize_utilities(&mut u), 2);
        assert_eq!(u.get(0, 1), SANITIZED_UTILITY);
        // Sanitised matrix solves, and avoids the poisoned pairs while
        // finite alternatives exist.
        let a = try_max_weight_assignment(&u).unwrap();
        assert_eq!(a.matched_count(), 3);
        assert_ne!(a.row_to_col[0], Some(1));
        assert_ne!(a.row_to_col[2], Some(4));
        // Idempotent.
        assert_eq!(sanitize_utilities(&mut u), 0);
    }
}
