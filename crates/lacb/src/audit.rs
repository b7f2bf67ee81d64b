//! Runtime invariant audits over the matcher's learned state.
//!
//! Serving correctness here is not only "no panics": the learned state
//! (bandit arm statistics, the value table `V(cr)`, KM warm-start duals,
//! deployed capacities) can be silently corrupted — a bit-flip, a NaN
//! from an upstream overflow, a replayed batch — and the matcher will
//! keep producing *plausible* assignments from poisoned inputs. This
//! module holds the cheap always-on certificates checked after every
//! batch and the day-boundary deep audits (DESIGN.md §12):
//!
//! * **Matching** — the returned assignment is a matching (no broker
//!   twice, indices in range).
//! * **Conservation** — every assigned broker had residual capacity at
//!   assignment time (`w_b < c_b`); broker-scoped.
//! * **DualCertificate** — LP-duality certificate of the most recent KM
//!   solve ([`KmSolver::certify`]): complementary slackness on all
//!   matched pairs plus dual feasibility of one rotating row per batch
//!   (the full matrix at day boundaries).
//! * **ValueBound** — every `V(cr)` entry is finite and within the
//!   discounted horizon bound `max(1, max|u|)/(1−γ)`, which the TD rule
//!   of Eq. (14) provably cannot escape on healthy rewards.
//! * **BanditState** — deployed capacities inside the arm range (plus
//!   knee margin), per-broker arm statistics finite with non-negative
//!   counts, covariance finite with positive diagonal (a necessary
//!   condition for positive definiteness).
//!
//! Broker-scoped failures quarantine only that broker (excluded from
//! matching until repaired); unscoped failures repair shared state in
//! place (solver reset, value-table reset, covariance reset) and
//! escalate the next batch to the greedy ladder floor, which consumes
//! no learned solver state. The serving loops drive the actual repair
//! — selective restore from the newest good checkpoint section or
//! re-initialization to priors — via [`crate::Lacb`]'s repair API.
//!
//! Everything here is deterministic: the sampled certificate row is the
//! batch counter (not a free-running global), so a crash-recovery
//! replay re-audits identically and stays bit-exact.

use matching::{SparseUtility, UtilityMatrix};
use platform_sim::{AuditReport, AuditViolation, InvariantKind, RepairAction, RepairKind};

/// Which retained instance the most recent certifiable solve used.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SolvedKind {
    None,
    Dense,
    Sparse,
}

/// Numerical tolerance of the certificates.
pub(crate) const TOL: f64 = 1e-6;

/// The runtime audits' one switch. On by default: the cheap per-batch
/// certificates and the day-boundary deep audits both run; the
/// per-batch cost is `O(brokers + matched)` plus one utility-matrix
/// copy, well under the solve itself.
#[derive(Clone, Debug)]
pub struct AuditConfig {
    /// Master switch. Off disables every check, the quarantine logic
    /// and the report (the matcher behaves exactly as before).
    pub enabled: bool,
}

impl Default for AuditConfig {
    fn default() -> Self {
        Self { enabled: true }
    }
}

/// Audit bookkeeping embedded in [`crate::Lacb`]: violation/repair
/// records, the per-broker quarantine set, the running reward bound,
/// and a retained copy of the last solved utility matrix (the matcher's
/// own buffers are clobbered between batches by `shed_priorities`, so
/// the certificate needs its own copy).
#[derive(Clone, Debug)]
pub struct Auditor {
    cfg: AuditConfig,
    checks: u64,
    deep_audits: u64,
    violations: Vec<AuditViolation>,
    repairs: Vec<RepairAction>,
    quarantined: Vec<bool>,
    /// One-shot escalation to the greedy floor after a shared-state
    /// repair (consumed by the next `assign_batch`).
    pending_greedy: bool,
    /// Largest `|u|` ever fed to a TD update — the dynamic reward scale
    /// behind the value bound. Serialized with the matcher state so a
    /// restored run audits with the same threshold.
    max_reward: f64,
    /// Retained copy of the matrix given to the last KM solve.
    matrix: UtilityMatrix,
    /// Retained copy of the candidate graph given to the last sparse
    /// KM solve (the sparse fast path's counterpart of `matrix`).
    sparse: SparseUtility,
    solved: SolvedKind,
}

impl Auditor {
    pub fn new(cfg: AuditConfig) -> Self {
        Self {
            cfg,
            checks: 0,
            deep_audits: 0,
            violations: Vec::new(),
            repairs: Vec::new(),
            quarantined: Vec::new(),
            pending_greedy: false,
            max_reward: 0.0,
            matrix: UtilityMatrix::zeros(0, 0),
            sparse: SparseUtility::new(),
            solved: SolvedKind::None,
        }
    }

    pub fn enabled(&self) -> bool {
        self.cfg.enabled
    }

    /// Size the quarantine set (idempotent).
    pub(crate) fn ensure_brokers(&mut self, n: usize) {
        if self.quarantined.len() != n {
            self.quarantined = vec![false; n];
        }
    }

    pub fn is_quarantined(&self, b: usize) -> bool {
        self.quarantined.get(b).copied().unwrap_or(false)
    }

    pub fn has_quarantined(&self) -> bool {
        self.quarantined.iter().any(|&q| q)
    }

    pub fn quarantined_brokers(&self) -> Vec<usize> {
        (0..self.quarantined.len()).filter(|&b| self.quarantined[b]).collect()
    }

    pub(crate) fn quarantine(&mut self, b: usize) {
        if b < self.quarantined.len() {
            self.quarantined[b] = true;
        }
    }

    pub(crate) fn release(&mut self, b: usize) {
        if b < self.quarantined.len() {
            self.quarantined[b] = false;
        }
    }

    pub(crate) fn record_violation(
        &mut self,
        invariant: InvariantKind,
        day: usize,
        batch: usize,
        broker: Option<usize>,
        detail: String,
    ) {
        self.violations.push(AuditViolation { invariant, day, batch, broker, detail });
    }

    pub(crate) fn record_repair(
        &mut self,
        day: usize,
        batch: usize,
        broker: Option<usize>,
        kind: RepairKind,
    ) {
        self.repairs.push(RepairAction { day, batch, broker, kind });
    }

    /// Escalate the next batch to the greedy ladder floor (recorded as
    /// a repair so the report shows the violation was answered).
    pub(crate) fn escalate(&mut self, day: usize, batch: usize) {
        self.pending_greedy = true;
        self.record_repair(day, batch, None, RepairKind::LadderEscalation);
    }

    pub(crate) fn take_pending_greedy(&mut self) -> bool {
        std::mem::take(&mut self.pending_greedy)
    }

    /// Drop any unconsumed escalation. Called at the day boundary: the
    /// boundary re-derives all shared solver state, so the greedy
    /// downgrade is moot — and a checkpoint-restored run starts with a
    /// fresh auditor, so letting the flag cross the boundary would make
    /// live and replayed runs diverge.
    pub(crate) fn clear_escalation(&mut self) {
        self.pending_greedy = false;
    }

    /// Fold a TD reward into the running reward scale.
    pub(crate) fn observe_reward(&mut self, u: f64) {
        if u.is_finite() && u.abs() > self.max_reward {
            self.max_reward = u.abs();
        }
    }

    pub fn max_reward(&self) -> f64 {
        self.max_reward
    }

    pub(crate) fn set_max_reward(&mut self, v: f64) {
        self.max_reward = v;
    }

    pub(crate) fn bump_checks(&mut self) {
        self.checks += 1;
    }

    pub(crate) fn bump_deep(&mut self) {
        self.deep_audits += 1;
    }

    /// Retain a copy of the matrix just solved, making the solve
    /// certifiable on the next audit pass.
    pub(crate) fn note_solve(&mut self, solved: &UtilityMatrix) {
        self.matrix.reshape_for_overwrite(solved.rows(), solved.cols());
        for r in 0..solved.rows() {
            self.matrix.row_mut(r).copy_from_slice(solved.row(r));
        }
        self.solved = SolvedKind::Dense;
    }

    /// Retain a copy of the candidate graph just solved by the sparse
    /// path, making that solve certifiable on the next audit pass.
    pub(crate) fn note_solve_sparse(&mut self, solved: &SparseUtility) {
        self.sparse.copy_from(solved);
        self.solved = SolvedKind::Sparse;
    }

    pub(crate) fn forget_solve(&mut self) {
        self.solved = SolvedKind::None;
    }

    /// The retained matrix of the last certifiable solve.
    pub(crate) fn solved_matrix(&self) -> Option<&UtilityMatrix> {
        if self.solved == SolvedKind::Dense {
            Some(&self.matrix)
        } else {
            None
        }
    }

    /// The retained candidate graph of the last certifiable sparse
    /// solve.
    pub(crate) fn solved_sparse(&self) -> Option<&SparseUtility> {
        if self.solved == SolvedKind::Sparse {
            Some(&self.sparse)
        } else {
            None
        }
    }

    /// Drain the accumulated records into a report. Counters and logs
    /// reset; the quarantine set (live state) is reported but kept.
    pub fn take_report(&mut self) -> AuditReport {
        AuditReport {
            checks: std::mem::take(&mut self.checks),
            deep_audits: std::mem::take(&mut self.deep_audits),
            violations: std::mem::take(&mut self.violations),
            repairs: std::mem::take(&mut self.repairs),
            quarantined_at_end: self.quarantined_brokers(),
        }
    }
}

/// The `V(cr)` horizon bound: with every TD reward `|u| ≤ M` and the
/// table starting at zero, Eq. (14) keeps `|V| ≤ M/(1−γ)` invariantly
/// (the update is a convex combination of the old value and
/// `u + γV'`). The floor of 1.0 keeps the bound meaningful before the
/// first reward; `γ ≥ 1` degenerates to a finiteness-only check.
pub fn value_bound(max_reward: f64, gamma: f64) -> f64 {
    max_reward.max(1.0) / (1.0 - gamma)
}

/// Whether a deployed capacity escaped `[lo − tol, hi + tol]` (or went
/// non-finite).
pub(crate) fn capacity_out_of_bounds(cap: f64, lo: f64, hi: f64, tol: f64) -> bool {
    !cap.is_finite() || cap < lo - tol || cap > hi + tol
}

/// First value-table entry violating the bound, as `(index, value)`.
pub(crate) fn table_violation(table: &[f64], bound: f64, tol: f64) -> Option<(usize, f64)> {
    table
        .iter()
        .enumerate()
        .find(|(_, &v)| !v.is_finite() || v.abs() > bound + tol)
        .map(|(i, &v)| (i, v))
}

/// First non-finite sum / non-finite-or-negative count in a broker's
/// arm statistics.
pub(crate) fn arm_stats_violation(sums: &[f64], counts: &[f64]) -> Option<String> {
    if let Some((i, &s)) = sums.iter().enumerate().find(|(_, s)| !s.is_finite()) {
        return Some(format!("arm {i} reward sum {s} non-finite"));
    }
    if let Some((i, &c)) = counts.iter().enumerate().find(|(_, &c)| !c.is_finite() || c < 0.0) {
        return Some(format!("arm {i} trial count {c} invalid"));
    }
    None
}

/// Covariance sanity: every entry finite, diagonal strictly positive
/// (necessary for positive definiteness in both tracker layouts).
pub(crate) fn covariance_violation(tracker: &linalg::InverseTracker) -> Option<String> {
    match tracker {
        linalg::InverseTracker::Diagonal { diag } => diag
            .iter()
            .enumerate()
            .find(|(_, &d)| !d.is_finite() || d <= 0.0)
            .map(|(i, &d)| format!("diagonal covariance lane {i} = {d}")),
        linalg::InverseTracker::Full { inv } => {
            let n = inv.rows();
            for i in 0..n {
                let row = inv.row(i);
                if let Some((j, &x)) = row.iter().enumerate().find(|(_, x)| !x.is_finite()) {
                    return Some(format!("inverse covariance ({i},{j}) = {x}"));
                }
                if row[i] <= 0.0 {
                    return Some(format!("inverse covariance diagonal ({i},{i}) = {}", row[i]));
                }
            }
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linalg::{InverseTracker, Matrix};

    #[test]
    fn defaults_are_on() {
        assert!(AuditConfig::default().enabled);
    }

    #[test]
    fn quarantine_roundtrip() {
        let mut a = Auditor::new(AuditConfig::default());
        a.ensure_brokers(4);
        assert!(!a.has_quarantined());
        a.quarantine(2);
        assert!(a.is_quarantined(2));
        assert_eq!(a.quarantined_brokers(), vec![2]);
        a.release(2);
        assert!(!a.has_quarantined());
        // Out-of-range indices are ignored, not panics.
        a.quarantine(99);
        assert!(!a.is_quarantined(99));
    }

    #[test]
    fn report_drains_but_keeps_quarantine() {
        let mut a = Auditor::new(AuditConfig::default());
        a.ensure_brokers(3);
        a.bump_checks();
        a.record_violation(InvariantKind::BanditState, 1, 2, Some(0), "x".into());
        a.quarantine(0);
        let r = a.take_report();
        assert_eq!(r.checks, 1);
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.quarantined_at_end, vec![0]);
        assert!(!r.fully_repaired());
        // Drained, but the live quarantine set survives the report.
        let r2 = a.take_report();
        assert_eq!(r2.checks, 0);
        assert!(r2.violations.is_empty());
        assert_eq!(r2.quarantined_at_end, vec![0]);
    }

    #[test]
    fn pending_greedy_is_one_shot() {
        let mut a = Auditor::new(AuditConfig::default());
        a.escalate(0, 0);
        assert!(a.take_pending_greedy());
        assert!(!a.take_pending_greedy());
        assert_eq!(a.take_report().repairs.len(), 1);
    }

    #[test]
    fn value_bound_tracks_reward_scale() {
        assert!((value_bound(0.0, 0.9) - 10.0).abs() < 1e-12);
        assert!((value_bound(3.0, 0.9) - 30.0).abs() < 1e-12);
        assert_eq!(value_bound(1.0, 1.0), f64::INFINITY);
    }

    #[test]
    fn table_violation_flags_nan_and_escapes() {
        assert!(table_violation(&[0.0, 5.0, -5.0], 10.0, 1e-9).is_none());
        let (i, v) = table_violation(&[0.0, f64::NAN], 10.0, 1e-9).unwrap();
        assert_eq!(i, 1);
        assert!(v.is_nan());
        let (i, v) = table_violation(&[0.0, 1e9], 10.0, 1e-9).unwrap();
        assert_eq!(i, 1);
        assert_eq!(v, 1e9);
    }

    #[test]
    fn capacity_bounds() {
        assert!(!capacity_out_of_bounds(10.0, 10.0, 65.0, 1e-6));
        assert!(capacity_out_of_bounds(9.0, 10.0, 65.0, 1e-6));
        assert!(capacity_out_of_bounds(66.0, 10.0, 65.0, 1e-6));
        assert!(capacity_out_of_bounds(f64::NAN, 10.0, 65.0, 1e-6));
        assert!(capacity_out_of_bounds(f64::INFINITY, 10.0, 65.0, 1e-6));
    }

    #[test]
    fn arm_stats_checks() {
        assert!(arm_stats_violation(&[1.0, 2.0], &[3.0, 0.0]).is_none());
        assert!(arm_stats_violation(&[f64::NAN, 2.0], &[3.0, 0.0]).is_some());
        assert!(arm_stats_violation(&[1.0], &[-1.0]).is_some());
        assert!(arm_stats_violation(&[1.0], &[f64::INFINITY]).is_some());
    }

    #[test]
    fn covariance_checks_both_layouts() {
        let ok = InverseTracker::Diagonal { diag: vec![1.0, 2.0] };
        assert!(covariance_violation(&ok).is_none());
        let neg = InverseTracker::Diagonal { diag: vec![1.0, -2.0] };
        assert!(covariance_violation(&neg).is_some());
        let full_ok = InverseTracker::Full { inv: Matrix::identity(3) };
        assert!(covariance_violation(&full_ok).is_none());
        let mut m = Matrix::identity(2);
        m.data_mut()[1] = f64::NAN;
        assert!(covariance_violation(&InverseTracker::Full { inv: m }).is_some());
        let mut z = Matrix::identity(2);
        z.data_mut()[3] = 0.0;
        assert!(covariance_violation(&InverseTracker::Full { inv: z }).is_some());
    }

    #[test]
    fn note_solve_retains_a_copy() {
        let mut a = Auditor::new(AuditConfig::default());
        assert!(a.solved_matrix().is_none());
        let m = UtilityMatrix::from_fn(2, 3, |r, c| (r + c) as f64);
        a.note_solve(&m);
        assert_eq!(a.solved_matrix().unwrap(), &m);
        a.forget_solve();
        assert!(a.solved_matrix().is_none());
    }

    #[test]
    fn note_solve_sparse_retains_a_copy() {
        let mut a = Auditor::new(AuditConfig::default());
        assert!(a.solved_sparse().is_none());
        let m = UtilityMatrix::from_fn(2, 3, |r, c| (r * 3 + c) as f64);
        let g = SparseUtility::from_dense(&m);
        a.note_solve_sparse(&g);
        assert_eq!(a.solved_sparse().unwrap(), &g);
        assert!(a.solved_matrix().is_none(), "sparse retention supersedes dense");
        // A dense note supersedes the sparse one, and vice versa.
        a.note_solve(&m);
        assert!(a.solved_sparse().is_none());
        assert_eq!(a.solved_matrix().unwrap(), &m);
        a.forget_solve();
        assert!(a.solved_matrix().is_none());
        assert!(a.solved_sparse().is_none());
    }

    #[test]
    fn observe_reward_ignores_non_finite() {
        let mut a = Auditor::new(AuditConfig::default());
        a.observe_reward(2.0);
        a.observe_reward(f64::NAN);
        a.observe_reward(f64::INFINITY);
        a.observe_reward(-3.0);
        assert_eq!(a.max_reward(), 3.0);
    }
}
