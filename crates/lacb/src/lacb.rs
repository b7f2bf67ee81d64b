//! LACB and LACB-Opt: the paper's capacity-aware assignment scheme
//! (Secs. V–VI, Alg. 2).

use crate::assigner::Assigner;
use crate::audit::{self, AuditConfig, Auditor};
use crate::value_function::ValueFunction;
use bandit::shrinkage::KNEE_MARGIN;
use bandit::{CandidateCapacities, NnUcbConfig, PersonalizedEstimator, ShrinkageEstimator};
use linalg::InverseTracker;
use matching::cbs::{candidate_union_seeded_with, fused_score_select, FusedBuffers};
use matching::greedy::greedy_assignment;
use matching::hungarian::{CertifyMode, KmSolver, MatchingError, SANITIZED_UTILITY};
use matching::{MatchMode, UtilityMatrix};
use platform_sim::{
    AuditReport, DayFeedback, InvariantKind, Platform, RepairKind, Request, StageBreakdown,
    StateFault, StateFaultKind, StateTarget, STATUS_DIM,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Estimated work units (≈ ns) to score one broker's capacity in
/// `begin_day` (tabular path): one shrinkage estimate per candidate
/// arm over the status context. Feeds the adaptive sequential cutoff;
/// the scored values never depend on it.
pub const SCORE_WORK_PER_BROKER: u64 = 500;

/// TD learning rate `β` of Eq. (14) (the paper's value, Sec. VII-A).
const BETA: f64 = 0.25;

/// Discount factor `γ` of Eqs. (14)–(15) (the paper's value, Sec. VII-A).
const GAMMA: f64 = 0.9;

/// Value-table size (largest representable residual capacity).
const MAX_CAPACITY_STATE: usize = 80;

/// Configuration of [`Lacb`], defaulting to the paper's hyper-parameters
/// (Sec. VII-A): `δ = 0.8`, NN-enhanced UCB with `α = λ = 0.001` and
/// `batchSize = 16`; `β = 0.25` and `γ = 0.9` are constants.
#[derive(Clone, Debug)]
pub struct LacbConfig {
    /// Candidate workload capacities (the bandit's arms).
    pub arms: CandidateCapacities,
    /// NN-enhanced UCB hyper-parameters.
    pub bandit: NnUcbConfig,
    /// `true` enables Candidate Broker Selection (Alg. 3) — this is
    /// **LACB-Opt**; `false` is plain LACB with the dummy-padded KM.
    pub use_cbs: bool,
    /// Threshold `δ` on the capacity-reaching frequency `f_b`: the value
    /// function refines utilities only for brokers with `f_b > δ`.
    pub delta: f64,
    /// Broker-specific trials required before a broker is promoted to a
    /// personalised (layer-transfer) bandit.
    pub personalize_after: u64,
    /// Exponential smoothing of the per-broker daily capacity:
    /// `c_today = smoothing·c_yesterday + (1−smoothing)·bandit_choice`.
    /// A broker's capacity is a slowly varying property; smoothing
    /// suppresses the day-to-day variance of single UCB readings
    /// (`0.0` disables it and uses the raw choice, as in Alg. 2).
    pub capacity_smoothing: f64,
    /// Probability of dithering a broker's deployed capacity to a
    /// neighbouring arm for one day. In a *closed* loop a saturating
    /// broker only ever generates trials at its own cap, so the
    /// estimator never sees within-broker workload contrast and the
    /// day-1 assignment locks in; production logs (the paper's data
    /// source) carry natural variation instead. `0.0` disables.
    pub dither: f64,
    /// Which personalisation mechanism backs the per-broker estimates.
    pub personalization: Personalization,
    /// RNG seed (bandit init, CBS pivots).
    pub seed: u64,
    /// Worker threads for per-broker capacity estimation and CBS
    /// (`1` = fully inline). Results are bit-identical for every thread
    /// count: per-broker estimation is a pure function mapped in order,
    /// and CBS pivots derive from per-row seeds, not a shared stream.
    pub n_threads: usize,
    /// Sequential cutoff for the adaptive parallelism decision, in
    /// `pool` work units (≈ ns of estimated work per chunk): batches
    /// whose stages fall below it run inline even when `n_threads > 1`,
    /// so small worlds never pay pool-wake overhead. Purely a
    /// scheduling knob — results are bit-identical for every value.
    /// `0` forces full splitting, `u64::MAX` forces inline; the default
    /// is `pool::SEQ_CUTOFF_WORK`.
    pub parallel_cutoff: u64,
    /// Runtime invariant audits (per-batch certificates, day-boundary
    /// deep audits, broker quarantine). On by default — the per-batch
    /// cost is far below the solve itself.
    pub audit: AuditConfig,
    /// Assignment path for Full-quality CBS batches (§16): the fused
    /// score+select kernel plus the CSR sparse KM solve ([`SparseMode::On`],
    /// the default), the same candidate graph solved through its
    /// masked-dense expansion ([`SparseMode::DenseOracle`], the
    /// benchmark bit-identity oracle), or the legacy dense pipeline
    /// ([`SparseMode::Off`]). Brownout and greedy batches always take
    /// the legacy path.
    pub sparse_assignment: SparseMode,
}

/// Assignment-path selector for Full-quality CBS batches (§16).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SparseMode {
    /// Fused score+select kernel and the CSR sparse KM solve. Never
    /// materialises the dense utility matrix; the default.
    On,
    /// Build the same candidate graph but solve its masked-dense
    /// expansion with the reference dense solver. Bit-identical to
    /// `On` by construction — the benchmark's identity oracle.
    DenseOracle,
    /// The legacy pipeline: dense matrix build, CBS column selection,
    /// dense pruned solve. Value-equal to `On` in Full mode
    /// (Corollary 1) but not bitwise.
    Off,
}

/// Personalisation mechanism for the capacity estimator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Personalization {
    /// Shared NN-enhanced-UCB base + per-broker tabular arm statistics
    /// blended by trial count ([`ShrinkageEstimator`]). Robust at the
    /// ~20-trials-per-broker scale of a 21-day horizon; the default.
    Tabular,
    /// The paper's literal Sec. V-D scheme: copy the base network,
    /// freeze the first `L−1` layers, fine-tune the last layer per
    /// broker ([`PersonalizedEstimator`]). Kept for ablation; needs far
    /// more per-broker data to be reliable.
    LayerTransfer,
}

/// SplitMix64 finaliser — a cheap, high-quality hash for deterministic
/// per-(broker, day) decisions.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Add Eq. (15)'s per-column terms to one row of utilities: one
/// branch-free addition per cell, since a zero term is −0.0
/// ([`Lacb::refinements_into`]).
fn refine_row(row: &mut [f64], adj: &[f64]) {
    for (v, &a) in row.iter_mut().zip(adj) {
        *v += a;
    }
}

/// The refined rows admission priced this tick (§11 step 2), staged
/// for the `assign_batch` that follows. The rows themselves stay in
/// `reduced_buf`, in offered order; the fused kernel copies the row of
/// each admitted request instead of scoring it again. Rows are found by
/// request id, since admission drains in priority order. The record
/// serves one `assign_batch` at most and only a full-quality sparse
/// one; a row is rescored when its inputs may differ: the request was
/// priced in an earlier tick, a pre-solve quarantine changed the
/// available set, or the batch's utilities are corrupted. All buffers
/// are reused across ticks.
#[derive(Debug, Default)]
struct PricedRows {
    /// Platform `(day, batch)` the rows were priced at, while staged.
    at: Option<(usize, usize)>,
    /// The available set the rows span.
    available: Vec<usize>,
    /// `(request id, priced row)`, sorted by id.
    ids: Vec<(usize, usize)>,
    /// Per row of the batch being matched: the priced row it copies,
    /// or `None` to score it.
    rows: Vec<Option<usize>>,
}

impl PricedRows {
    /// Point each row of `requests` at its request's priced row, or at
    /// `None` to score it; with `reuse` false every row is scored.
    fn map_rows(&mut self, reuse: bool, requests: &[Request]) {
        let PricedRows { ids, rows, .. } = self;
        rows.clear();
        if reuse {
            let row_of = |id| ids.binary_search_by_key(&id, |&(id, _)| id).ok().map(|i| ids[i].1);
            rows.extend(requests.iter().map(|q| row_of(q.id)));
        } else {
            rows.resize(requests.len(), None);
        }
    }
}

/// The capacity estimator behind LACB (one of the two personalisation
/// mechanisms).
enum EstimatorImpl {
    Tabular(ShrinkageEstimator),
    Layer(PersonalizedEstimator),
}

impl EstimatorImpl {
    fn update(&mut self, broker: usize, context: &[f64], workload: f64, reward: f64) {
        match self {
            EstimatorImpl::Tabular(e) => e.update(broker, context, workload, reward),
            EstimatorImpl::Layer(e) => e.update(broker, context, workload, reward),
        }
    }

    fn train_sample_epochs(&self) -> u64 {
        match self {
            EstimatorImpl::Tabular(e) => e.train_sample_epochs(),
            EstimatorImpl::Layer(e) => e.train_sample_epochs(),
        }
    }
}

/// The bandit hyper-parameters used by default in this reproduction for
/// *both* LACB and the AN baseline.
///
/// The paper's literal `α = 0.001` (Sec. VII-A) is kept as
/// [`NnUcbConfig::default`]; on our simulator's reward scale (sign-up
/// rates of 0.02–0.3) that exploration bonus is too small to escape a
/// bad initial arm within a 21-day horizon, so the experiment suite uses
/// a mildly larger bonus and learning rate. Both learned policies get
/// the same values, so the LACB-vs-AN comparison stays fair.
pub fn tuned_bandit_config() -> NnUcbConfig {
    NnUcbConfig {
        alpha: 0.05,
        lr: 0.05,
        train_epochs: 8,
        selection: bandit::nn_ucb::CapacitySelection::KneePlateau { tolerance: 0.1 },
        replay_cap: 512,
        ..NnUcbConfig::default()
    }
}

impl Default for LacbConfig {
    fn default() -> Self {
        Self {
            arms: CandidateCapacities::range(10.0, 60.0, 10.0),
            bandit: tuned_bandit_config(),
            use_cbs: false,
            delta: 0.8,
            personalize_after: 3,
            capacity_smoothing: 0.8,
            dither: 0.3,
            personalization: Personalization::Tabular,
            seed: 1013,
            n_threads: 1,
            parallel_cutoff: pool::SEQ_CUTOFF_WORK,
            audit: AuditConfig::default(),
            sparse_assignment: SparseMode::On,
        }
    }
}

impl LacbConfig {
    /// The LACB-Opt configuration (CBS enabled).
    pub fn opt() -> Self {
        Self { use_cbs: true, ..Self::default() }
    }
}

/// Learned Assignment with Contextual Bandits.
pub struct Lacb {
    cfg: LacbConfig,
    estimator: Option<EstimatorImpl>,
    value_fn: ValueFunction,
    /// Today's estimated capacity `c_b` per broker.
    capacities: Vec<f64>,
    /// Whether broker `b` hit its estimated capacity today.
    reached_today: Vec<bool>,
    /// Days on which broker `b` hit its estimated capacity.
    days_reached: Vec<u64>,
    /// Completed days.
    days_elapsed: u64,
    rng: StdRng,
    /// Reusable KM solver. Within a day its column duals warm-start
    /// consecutive balanced batch solves; reset at every `begin_day` so
    /// warm state never crosses a checkpoint boundary (it is derived
    /// state and is not serialised).
    solver: KmSolver,
    /// Batch counter within the current day (CBS seed derivation).
    batch_in_day: u64,
    /// Brownout quality level for subsequent batches. Derived state
    /// set by the overload controller each tick (never serialised;
    /// `begin_day` resets it to `Full`).
    match_mode: MatchMode,
    /// Deterministic work proxy of the most recent `assign_batch`: KM
    /// relaxation ops, or 0 for greedy/empty batches. The overload
    /// loop's solver breaker compares it against an ops budget in
    /// place of wall-clock deadlines.
    last_ops: u64,
    /// Utility-matrix buffers reused across batches.
    full_buf: UtilityMatrix,
    reduced_buf: UtilityMatrix,
    pruned_buf: UtilityMatrix,
    /// Sparse fast-path buffers reused across batches (§16): the fused
    /// kernel's buffers (the CSR candidate graph and the candidate-union
    /// column ids, indices into today's available set). All derived
    /// state, like the per-available-column value refinements that
    /// every path fills.
    fused: FusedBuffers,
    adj_buf: Vec<f64>,
    /// The rows admission priced this tick, staged for the fused
    /// kernel (derived state).
    priced: PricedRows,
    /// Runtime invariant audits and per-broker quarantine (§12).
    auditor: Auditor,
    /// Cumulative sub-stage timing telemetry since the last
    /// `take_stage_breakdown` (derived state; never serialised and
    /// never read back into decisions).
    breakdown: StageBreakdown,
}

impl Lacb {
    /// Create LACB (or LACB-Opt when `cfg.use_cbs`).
    pub fn new(cfg: LacbConfig) -> Self {
        let value_fn = ValueFunction::new(MAX_CAPACITY_STATE, BETA, GAMMA);
        let rng = StdRng::seed_from_u64(cfg.seed);
        let auditor = Auditor::new(cfg.audit.clone());
        Self {
            cfg,
            estimator: None,
            value_fn,
            capacities: Vec::new(),
            reached_today: Vec::new(),
            days_reached: Vec::new(),
            days_elapsed: 0,
            rng,
            solver: KmSolver::new(),
            batch_in_day: 0,
            match_mode: MatchMode::Full,
            last_ops: 0,
            full_buf: UtilityMatrix::zeros(0, 0),
            reduced_buf: UtilityMatrix::zeros(0, 0),
            pruned_buf: UtilityMatrix::zeros(0, 0),
            fused: FusedBuffers::default(),
            adj_buf: Vec::new(),
            priced: PricedRows::default(),
            auditor,
            breakdown: StageBreakdown::default(),
        }
    }

    /// Convenience constructor for LACB-Opt.
    pub fn new_opt() -> Self {
        Self::new(LacbConfig::opt())
    }

    /// The capacity currently estimated for broker `b` (NaN-free only
    /// after the first `begin_day`).
    pub fn capacity_of(&self, b: usize) -> f64 {
        self.capacities[b]
    }

    /// Frequency `f_b` with which broker `b` has reached its estimated
    /// capacity (Eq. 15's gating quantity).
    pub fn capacity_frequency(&self, b: usize) -> f64 {
        if self.days_elapsed == 0 {
            0.0
        } else {
            self.days_reached[b] as f64 / self.days_elapsed as f64
        }
    }

    /// The learned capacity-aware value function.
    pub fn value_function(&self) -> &ValueFunction {
        &self.value_fn
    }

    /// The brownout quality level subsequent batches are matched at.
    pub fn match_mode(&self) -> MatchMode {
        self.match_mode
    }

    /// Set the brownout quality level (derived state, reset to `Full`
    /// at every `begin_day`; the overload controller re-asserts it
    /// each tick).
    pub fn set_match_mode(&mut self, mode: MatchMode) {
        self.match_mode = mode;
    }

    /// Deterministic work proxy of the most recent `assign_batch`: KM
    /// relaxation ops (0 for greedy or empty batches). Serves as the
    /// breaker's "latency" signal — pure, so runs stay bit-identical.
    pub fn last_solve_ops(&self) -> u64 {
        self.last_ops
    }

    /// Refined marginal utility of each request — the shedding
    /// priority: `max_b [u(r, b) + (γV(cr−1) − V(cr))]` over today's
    /// available brokers. Requests the paper's matcher values most
    /// (high utility against brokers with headroom) rank highest, so
    /// the watermark shed drops exactly the lowest-value traffic.
    /// Returns 0.0 for every request when no broker has headroom.
    ///
    /// The refined rows stay staged in `reduced_buf` for this tick's
    /// `assign_batch`, whose fused kernel copies them instead of
    /// scoring the same pairs again (see [`PricedRows`]).
    pub fn shed_priorities(&mut self, platform: &Platform, requests: &[Request]) -> Vec<f64> {
        let mut priced = std::mem::take(&mut self.priced);
        priced.at = None;
        priced.available.clear();
        priced.available.extend(self.available(platform));
        if priced.available.is_empty() || requests.is_empty() {
            self.priced = priced;
            return vec![0.0; requests.len()];
        }
        let mut full = std::mem::replace(&mut self.full_buf, UtilityMatrix::zeros(0, 0));
        let mut reduced = std::mem::replace(&mut self.reduced_buf, UtilityMatrix::zeros(0, 0));
        platform.utility_matrix_into(requests, &mut full);
        self.breakdown.pairs_scored += (requests.len() * platform.num_brokers()) as u64;
        reduced.select_columns_from(&full, &priced.available);
        self.refine_utilities(&mut reduced, &priced.available, platform);
        let prios = (0..reduced.rows())
            .map(|r| reduced.row(r).iter().cloned().fold(f64::NEG_INFINITY, f64::max))
            .collect();
        priced.at = Some((platform.day_index(), platform.batch_index()));
        priced.ids.clear();
        priced.ids.extend(requests.iter().enumerate().map(|(row, q)| (q.id, row)));
        priced.ids.sort_unstable();
        self.full_buf = full;
        self.reduced_buf = reduced;
        self.priced = priced;
        prios
    }

    /// Alg. 2 line 4: the available brokers `B+ = {b | w_b < c_b}`,
    /// minus any broker quarantined by the auditor (repair pending).
    fn available<'a>(&'a self, platform: &'a Platform) -> impl Iterator<Item = usize> + 'a {
        (0..platform.num_brokers()).filter(move |&b| {
            !self.auditor.is_quarantined(b) && platform.workload_today(b) < self.capacities[b]
        })
    }

    /// The layer-transfer estimator, when that personalisation mode is
    /// active (populated after the first `begin_day`).
    pub fn estimator(&self) -> Option<&PersonalizedEstimator> {
        match &self.estimator {
            Some(EstimatorImpl::Layer(e)) => Some(e),
            _ => None,
        }
    }

    /// The shrinkage estimator, when tabular personalisation (the
    /// default) is active.
    pub fn shrinkage(&self) -> Option<&ShrinkageEstimator> {
        match &self.estimator {
            Some(EstimatorImpl::Tabular(e)) => Some(e),
            _ => None,
        }
    }

    /// Serialise every piece of learned state — estimator, value table,
    /// capacity trajectory, reach statistics and the RNG stream — as a
    /// checkpoint block (see [`crate::checkpoint`]). Only valid at a
    /// day boundary (between `end_day` and the next `begin_day`).
    pub fn write_state(&self, out: &mut String) {
        use bandit::state;
        state::push_kv(out, "lacb-days", self.days_elapsed);
        let s = self.rng.state();
        state::push_kv(out, "lacb-rng", format_args!("{} {} {} {}", s[0], s[1], s[2], s[3]));
        state::push_floats(out, "lacb-capacities", &self.capacities);
        let reached: Vec<f64> =
            self.reached_today.iter().map(|&r| if r { 1.0 } else { 0.0 }).collect();
        state::push_floats(out, "lacb-reached", &reached);
        let days_reached: Vec<f64> = self.days_reached.iter().map(|&d| d as f64).collect();
        state::push_floats(out, "lacb-days-reached", &days_reached);
        state::push_kv(out, "vf-updates", self.value_fn.updates());
        state::push_floats(out, "vf-table", self.value_fn.table());
        // The auditor's reward scale feeds the V(cr) bound; persisting
        // it keeps detection thresholds bit-identical across recovery.
        state::push_floats(out, "lacb-max-reward", &[self.auditor.max_reward()]);
        match &self.estimator {
            None => state::push_kv(out, "estimator", "none"),
            Some(EstimatorImpl::Tabular(e)) => {
                state::push_kv(out, "estimator", "tabular");
                e.write_state(out);
            }
            Some(EstimatorImpl::Layer(e)) => {
                state::push_kv(out, "estimator", "layer");
                e.write_state(out);
            }
        }
    }

    /// Rebuild a matcher from [`Lacb::write_state`] output so a restart
    /// resumes mid-horizon without cold-starting. `cfg` is the live
    /// algorithm configuration (not persisted); the checkpoint is
    /// validated against it — estimator kind, broker count, arm count
    /// and value-table size must all agree, and non-finite learned
    /// values are rejected.
    pub fn read_state<'a, I: Iterator<Item = &'a str>>(
        lines: &mut I,
        cfg: LacbConfig,
        num_brokers: usize,
    ) -> Result<Lacb, String> {
        use bandit::state;
        let days_elapsed: u64 =
            state::parse_one(state::expect_key(lines, "lacb-days")?, "day counter")?;
        let rng_line = state::expect_key(lines, "lacb-rng")?;
        let rng_words: Vec<u64> = rng_line
            .split_whitespace()
            .map(|t| t.parse::<u64>().map_err(|_| format!("bad rng word {t:?}")))
            .collect::<Result<_, _>>()?;
        if rng_words.len() != 4 {
            return Err(format!("rng state needs 4 words, got {}", rng_words.len()));
        }
        let capacities =
            state::parse_floats(state::expect_key(lines, "lacb-capacities")?, "capacities")?;
        let reached =
            state::parse_floats(state::expect_key(lines, "lacb-reached")?, "reached flags")?;
        let days_reached =
            state::parse_floats(state::expect_key(lines, "lacb-days-reached")?, "reach counters")?;
        for (vals, what) in [
            (&capacities, "capacities"),
            (&reached, "reached flags"),
            (&days_reached, "reach counters"),
        ] {
            state::require_len(vals, num_brokers, what)?;
            state::require_finite(vals, what)?;
        }
        let vf_updates: u64 =
            state::parse_one(state::expect_key(lines, "vf-updates")?, "value updates")?;
        let vf_table = state::parse_floats(state::expect_key(lines, "vf-table")?, "value table")?;
        let max_reward = state::parse_floats(
            state::expect_key(lines, "lacb-max-reward")?,
            "audit reward scale",
        )?;
        state::require_len(&max_reward, 1, "audit reward scale")?;
        state::require_finite(&max_reward, "audit reward scale")?;
        let estimator_kind = state::expect_key(lines, "estimator")?.trim().to_string();
        let estimator = match (estimator_kind.as_str(), cfg.personalization) {
            ("none", _) => None,
            ("tabular", Personalization::Tabular) => {
                Some(EstimatorImpl::Tabular(ShrinkageEstimator::read_state(
                    lines,
                    num_brokers,
                    cfg.arms.clone(),
                    cfg.bandit.clone(),
                )?))
            }
            ("layer", Personalization::LayerTransfer) => {
                Some(EstimatorImpl::Layer(PersonalizedEstimator::read_state(
                    lines,
                    num_brokers,
                    cfg.arms.clone(),
                    cfg.bandit.clone(),
                )?))
            }
            (kind, _) => {
                return Err(format!(
                    "checkpoint estimator {kind:?} does not match configured personalization"
                ))
            }
        };
        let mut value_fn = ValueFunction::new(MAX_CAPACITY_STATE, BETA, GAMMA);
        value_fn.restore(vf_table, vf_updates)?;
        let mut auditor = Auditor::new(cfg.audit.clone());
        auditor.set_max_reward(max_reward[0]);
        Ok(Lacb {
            cfg,
            estimator,
            value_fn,
            capacities,
            reached_today: reached.iter().map(|&x| x != 0.0).collect(),
            days_reached: days_reached.iter().map(|&x| x as u64).collect(),
            days_elapsed,
            rng: StdRng::from_state([rng_words[0], rng_words[1], rng_words[2], rng_words[3]]),
            solver: KmSolver::new(),
            batch_in_day: 0,
            match_mode: MatchMode::Full,
            last_ops: 0,
            full_buf: UtilityMatrix::zeros(0, 0),
            reduced_buf: UtilityMatrix::zeros(0, 0),
            pruned_buf: UtilityMatrix::zeros(0, 0),
            fused: FusedBuffers::default(),
            adj_buf: Vec::new(),
            priced: PricedRows::default(),
            auditor,
            breakdown: StageBreakdown::default(),
        })
    }

    fn ensure_initialized(&mut self, platform: &Platform) {
        if self.estimator.is_some() {
            return;
        }
        let n = platform.num_brokers();
        self.estimator = Some(match self.cfg.personalization {
            Personalization::Tabular => EstimatorImpl::Tabular(ShrinkageEstimator::new(
                &mut self.rng,
                n,
                STATUS_DIM,
                self.cfg.arms.clone(),
                self.cfg.bandit.clone(),
            )),
            Personalization::LayerTransfer => EstimatorImpl::Layer(PersonalizedEstimator::new(
                &mut self.rng,
                n,
                STATUS_DIM,
                self.cfg.arms.clone(),
                self.cfg.bandit.clone(),
                self.cfg.personalize_after,
            )),
        });
        self.capacities = vec![0.0; n];
        self.reached_today = vec![false; n];
        self.days_reached = vec![0; n];
    }

    /// Eq. (15) as one additive term per available column: `adj[j]` is
    /// the value-function advantage `γV(cr−1) − V(cr)` of broker
    /// `available[j]` when it is a top broker (`f_b > δ`). Any other
    /// term, and a zero advantage, is −0.0, the exact additive identity:
    /// `x + −0.0` is `x` bit for bit (−0.0 and NaN included), where
    /// `x + 0.0` would turn a −0.0 cell into 0.0.
    fn refinements_into(&self, available: &[usize], platform: &Platform, adj: &mut Vec<f64>) {
        adj.clear();
        adj.resize(available.len(), -0.0);
        if self.days_elapsed == 0 {
            return; // no frequency statistics yet
        }
        for (a, &b) in adj.iter_mut().zip(available) {
            if self.capacity_frequency(b) > self.cfg.delta {
                let cr = self.capacities[b] - platform.workload_today(b);
                let term = self.value_fn.refinement(cr);
                if term != 0.0 {
                    *a = term;
                }
            }
        }
    }

    /// Eq. (15) over a requests × `available` matrix, row by row.
    fn refine_utilities(
        &mut self,
        reduced: &mut UtilityMatrix,
        available: &[usize],
        platform: &Platform,
    ) {
        let mut adj = std::mem::take(&mut self.adj_buf);
        self.refinements_into(available, platform, &mut adj);
        if adj.iter().any(|&a| a != 0.0) {
            for r in 0..reduced.rows() {
                refine_row(reduced.row_mut(r), &adj);
            }
        }
        self.adj_buf = adj;
    }

    /// The legal range of a deployed capacity: the arm span plus the
    /// knee margin (smoothing and dither interpolate but never escape
    /// it).
    fn arm_bounds(&self) -> (f64, f64) {
        let vals = self.cfg.arms.values();
        let lo = vals.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        (lo, hi + KNEE_MARGIN)
    }

    /// Broker-scoped capacity-range certificate; violators are
    /// quarantined for selective repair.
    fn check_capacities(&mut self, day: usize, batch: usize) {
        let (lo, hi) = self.arm_bounds();
        for b in 0..self.capacities.len() {
            if self.auditor.is_quarantined(b) {
                continue;
            }
            let cap = self.capacities[b];
            if audit::capacity_out_of_bounds(cap, lo, hi, audit::TOL) {
                self.auditor.record_violation(
                    InvariantKind::BanditState,
                    day,
                    batch,
                    Some(b),
                    format!("capacity {cap:e} outside [{lo}, {hi}]"),
                );
                self.auditor.quarantine(b);
            }
        }
    }

    /// Unscoped `V(cr)` horizon-bound certificate; a violation resets
    /// the table to the cold-start prior (it relearns from feedback)
    /// and escalates the next batch to the greedy floor.
    fn check_value_table(&mut self, day: usize, batch: usize) {
        let bound = audit::value_bound(self.auditor.max_reward(), GAMMA);
        if let Some((i, v)) = audit::table_violation(self.value_fn.table(), bound, audit::TOL) {
            self.auditor.record_violation(
                InvariantKind::ValueBound,
                day,
                batch,
                None,
                format!("V({i}) = {v:e} escapes horizon bound {bound:e}"),
            );
            self.value_fn.reset();
            self.auditor.record_repair(day, batch, None, RepairKind::ValueReset);
            self.auditor.escalate(day, batch);
        }
    }

    /// LP-duality certificate of the most recent KM solve. A failed
    /// certificate discards the warm-start duals *before* they can
    /// steer the next solve, then escalates to the greedy floor.
    fn check_dual_certificate(&mut self, day: usize, batch: usize, mode: CertifyMode) {
        let verdict =
            self.auditor.solved_matrix().and_then(|m| self.solver.certify(m, mode)).or_else(|| {
                self.auditor.solved_sparse().and_then(|g| self.solver.certify_sparse(g, mode))
            });
        if let Some(cert) = verdict {
            if !cert.holds(audit::TOL) {
                self.auditor.record_violation(
                    InvariantKind::DualCertificate,
                    day,
                    batch,
                    None,
                    format!(
                        "feasibility gap {:e}, slackness gap {:e} over {} cells",
                        cert.feasibility_gap, cert.slackness_gap, cert.cells_checked
                    ),
                );
                self.solver.reset();
                self.auditor.forget_solve();
                self.auditor.record_repair(day, batch, None, RepairKind::SolverReset);
                self.auditor.escalate(day, batch);
            }
        }
    }

    /// The cheap per-batch certificates, run *before* the solve so
    /// corrupted shared state (warm duals, value table) is repaired
    /// before it can poison this batch's assignment. The sampled
    /// certificate row is the batch counter — deterministic, so a
    /// crash-recovery replay audits identically.
    fn pre_solve_audit(&mut self, batch: usize) {
        let day = self.days_elapsed as usize;
        self.auditor.bump_checks();
        self.check_capacities(day, batch);
        self.check_value_table(day, batch);
        self.check_dual_certificate(day, batch, CertifyMode::Sampled { row: batch });
    }

    /// Post-solve certificates over the assignment just produced:
    /// matching validity (unscoped — the solver is reset) and residual
    /// capacity conservation (broker-scoped — quarantine).
    fn post_solve_audit(
        &mut self,
        platform: &Platform,
        assignment: &[Option<usize>],
        batch: usize,
    ) {
        let day = self.days_elapsed as usize;
        let n = platform.num_brokers();
        let mut used = vec![false; n];
        let mut valid = true;
        for &b in assignment.iter().flatten() {
            if b >= n || used[b] {
                valid = false;
                break;
            }
            used[b] = true;
        }
        if !valid {
            self.auditor.record_violation(
                InvariantKind::Matching,
                day,
                batch,
                None,
                "assignment is not a matching (duplicate or out-of-range broker)".to_string(),
            );
            self.solver.reset();
            self.auditor.forget_solve();
            self.auditor.record_repair(day, batch, None, RepairKind::SolverReset);
            self.auditor.escalate(day, batch);
        }
        for &b in assignment.iter().flatten() {
            // `partial_cmp != Less` rather than `>=`: a NaN capacity must
            // trip the check, not sail through a false comparison.
            if b < n
                && !self.auditor.is_quarantined(b)
                && platform.workload_today(b).partial_cmp(&self.capacities[b])
                    != Some(std::cmp::Ordering::Less)
            {
                self.auditor.record_violation(
                    InvariantKind::Conservation,
                    day,
                    batch,
                    Some(b),
                    format!(
                        "broker {b} assigned at workload {} with capacity {}",
                        platform.workload_today(b),
                        self.capacities[b]
                    ),
                );
                self.auditor.quarantine(b);
            }
        }
    }

    /// Day-boundary deep audit: everything the per-batch pass checks,
    /// plus per-broker arm statistics, covariance positivity, and the
    /// full-matrix dual certificate.
    fn deep_audit(&mut self) {
        let day = (self.days_elapsed as usize).saturating_sub(1);
        let batch = self.batch_in_day as usize;
        self.auditor.bump_deep();
        self.check_capacities(day, batch);
        self.check_value_table(day, batch);
        let mut arm_bad: Vec<(usize, String)> = Vec::new();
        let mut cov_bad: Option<String> = None;
        if let Some(EstimatorImpl::Tabular(e)) = &self.estimator {
            for b in 0..self.capacities.len() {
                if self.auditor.is_quarantined(b) {
                    continue;
                }
                let (sums, counts) = e.arm_stats(b);
                if let Some(detail) = audit::arm_stats_violation(sums, counts) {
                    arm_bad.push((b, detail));
                }
            }
            cov_bad = audit::covariance_violation(e.base().covariance());
        }
        for (b, detail) in arm_bad {
            self.auditor.record_violation(InvariantKind::BanditState, day, batch, Some(b), detail);
            self.auditor.quarantine(b);
        }
        if let Some(detail) = cov_bad {
            self.auditor.record_violation(InvariantKind::BanditState, day, batch, None, detail);
            if let Some(EstimatorImpl::Tabular(e)) = &mut self.estimator {
                e.base_mut().reset_covariance();
            }
            self.auditor.record_repair(day, batch, None, RepairKind::CovarianceReset);
            self.auditor.escalate(day, batch);
        }
        self.check_dual_certificate(day, batch, CertifyMode::Full);
    }

    /// Whether any broker is currently quarantined (repair pending).
    pub fn has_quarantined_brokers(&self) -> bool {
        self.auditor.has_quarantined()
    }

    /// Brokers currently quarantined, ascending.
    pub fn quarantined_brokers(&self) -> Vec<usize> {
        self.auditor.quarantined_brokers()
    }

    /// The runtime auditor (report and quarantine inspection).
    pub fn auditor(&self) -> &Auditor {
        &self.auditor
    }

    /// Apply one seeded state-corruption fault from the chaos plan.
    /// Targets reduce their lane modulo the live extent, so the same
    /// plan is meaningful for any problem size; faults against absent
    /// state (layer-transfer arm stats, a never-solved KM) are no-ops.
    pub fn apply_state_fault(&mut self, fault: &StateFault) {
        fn corrupt(x: &mut f64, kind: StateFaultKind) {
            match kind {
                StateFaultKind::BitFlip { bit } => *x = f64::from_bits(x.to_bits() ^ (1u64 << bit)),
                StateFaultKind::NanWrite => *x = f64::NAN,
                StateFaultKind::OverflowWrite => *x = 1e308,
            }
        }
        let n = self.capacities.len();
        if n == 0 {
            return;
        }
        match fault.target {
            StateTarget::Capacity => corrupt(&mut self.capacities[fault.broker % n], fault.kind),
            StateTarget::ArmStats => {
                if let Some(EstimatorImpl::Tabular(e)) = self.estimator.as_mut() {
                    let (sums, _) = e.arm_stats_mut(fault.broker % n);
                    if !sums.is_empty() {
                        let i = (fault.lane as usize) % sums.len();
                        corrupt(&mut sums[i], fault.kind);
                    }
                }
            }
            StateTarget::ValueTable => {
                let table = self.value_fn.table_mut();
                if !table.is_empty() {
                    let i = (fault.lane as usize) % table.len();
                    corrupt(&mut table[i], fault.kind);
                }
            }
            StateTarget::Covariance => {
                if let Some(EstimatorImpl::Tabular(e)) = self.estimator.as_mut() {
                    match e.base_mut().covariance_mut() {
                        InverseTracker::Diagonal { diag } => {
                            if !diag.is_empty() {
                                let i = (fault.lane as usize) % diag.len();
                                corrupt(&mut diag[i], fault.kind);
                            }
                        }
                        InverseTracker::Full { inv } => {
                            let data = inv.data_mut();
                            if !data.is_empty() {
                                let i = (fault.lane as usize) % data.len();
                                corrupt(&mut data[i], fault.kind);
                            }
                        }
                    }
                }
            }
            StateTarget::Duals => {
                let pot = self.solver.column_potentials_raw_mut();
                // Index 0 is the virtual-column sentinel; leave it.
                if pot.len() > 1 {
                    let i = 1 + (fault.lane as usize) % (pot.len() - 1);
                    corrupt(&mut pot[i], fault.kind);
                }
            }
        }
    }

    /// Selectively restore every quarantined broker's learned state
    /// from `donor` (a matcher parsed out of the newest good checkpoint
    /// section) and release the quarantine. Brokers the donor cannot
    /// cover fall back to re-initialization.
    pub fn repair_from_donor(&mut self, donor: &Lacb, generation: usize) {
        let day = self.days_elapsed as usize;
        let batch = self.batch_in_day as usize;
        for b in self.auditor.quarantined_brokers() {
            let stats_ok = match (self.estimator.as_mut(), donor.estimator.as_ref()) {
                (Some(EstimatorImpl::Tabular(e)), Some(EstimatorImpl::Tabular(d))) => {
                    e.copy_broker_stats(d, b).is_ok()
                }
                // Layer transfer has no per-broker copy; reinitialize.
                (Some(EstimatorImpl::Layer(_)), _) => false,
                _ => false,
            };
            if stats_ok && b < donor.capacities.len() && donor.capacities[b].is_finite() {
                self.capacities[b] = donor.capacities[b];
                self.days_reached[b] = donor.days_reached[b];
                self.reached_today[b] = false;
                self.auditor.record_repair(
                    day,
                    batch,
                    Some(b),
                    RepairKind::CheckpointRestore { generation },
                );
                self.auditor.release(b);
            } else {
                self.reinit_broker(b, day, batch);
            }
        }
    }

    /// Re-initialize every quarantined broker to priors (the repair of
    /// last resort when no good checkpoint section exists) and release
    /// the quarantine.
    pub fn repair_quarantined(&mut self) {
        let day = self.days_elapsed as usize;
        let batch = self.batch_in_day as usize;
        for b in self.auditor.quarantined_brokers() {
            self.reinit_broker(b, day, batch);
        }
    }

    /// Reset one broker's learned state to priors: fresh arm
    /// statistics, capacity snapped onto the nearest legal arm.
    fn reinit_broker(&mut self, b: usize, day: usize, batch: usize) {
        if let Some(EstimatorImpl::Tabular(e)) = self.estimator.as_mut() {
            e.reset_broker_stats(b);
        }
        let arms = self.cfg.arms.values();
        let (lo, hi) = self.arm_bounds();
        let cap = self.capacities[b];
        self.capacities[b] =
            if cap.is_finite() { arms[self.cfg.arms.nearest(cap.clamp(lo, hi))] } else { arms[0] };
        self.reached_today[b] = false;
        self.auditor.record_repair(day, batch, Some(b), RepairKind::Reinitialize);
        self.auditor.release(b);
    }

    /// §16 fast path for Full-quality CBS batches: fused score+select
    /// per request (the dense utility row is never materialised), then
    /// a sparse KM solve over the CSR candidate graph. Bit-identical
    /// to solving the same graph's masked-dense expansion with the
    /// reference dense solver ([`SparseMode::DenseOracle`]), and
    /// value-equal to the legacy dense pipeline (Corollary 1).
    ///
    /// A row that `priced.rows` maps to a priced row is copied from
    /// `reduced_buf` instead of scored again ([`PricedRows`]).
    fn assign_batch_sparse(
        &mut self,
        platform: &Platform,
        requests: &[Request],
        available: &[usize],
        batch_seed: u64,
        audit_on: bool,
        audit_batch: usize,
    ) -> Vec<Option<usize>> {
        // Eq. (15) refinement folds into the score closure, one term
        // per available column, exactly as pricing applied it.
        let mut adj = std::mem::take(&mut self.adj_buf);
        self.refinements_into(available, platform, &mut adj);
        let rows = std::mem::take(&mut self.priced.rows);
        let rescored = rows.iter().filter(|p| p.is_none()).count();
        self.breakdown.pairs_scored += (rescored * available.len()) as u64;
        let k = MatchMode::Full.candidate_budget(requests.len());
        let mut fused = std::mem::take(&mut self.fused);
        let t_build = Instant::now();
        {
            let (adj, rows, priced) = (&adj, &rows, &self.reduced_buf);
            let fresh = move |r: usize, row: &mut [f64]| {
                platform.pair_utilities_into(r, &requests[r], available, row);
                refine_row(row, adj);
            };
            let score = move |r: usize, row: &mut [f64]| match rows[r] {
                None => fresh(r, row),
                Some(p) => {
                    row.copy_from_slice(priced.row(p));
                    if cfg!(debug_assertions) {
                        let mut rescore = vec![0.0; row.len()];
                        fresh(r, &mut rescore);
                        debug_assert!(
                            row.iter().zip(&rescore).all(|(a, b)| a.to_bits() == b.to_bits()),
                            "priced row of request {} differs from its rescore",
                            requests[r].id
                        );
                    }
                }
            };
            fused_score_select(
                (requests.len(), available.len()),
                k,
                batch_seed,
                self.cfg.n_threads,
                self.cfg.parallel_cutoff,
                &score,
                &mut fused,
            );
        }
        let FusedBuffers { csr, union: union_cols, .. } = &fused;
        self.breakdown.sparse_build_secs += t_build.elapsed().as_secs_f64();
        self.breakdown.sparse_rows += csr.rows() as u64;
        self.breakdown.sparse_edges += csr.nnz() as u64;

        // CSR solve when the graph is wide enough for the balanced
        // solver; the masked-dense expansion otherwise (tall batches
        // transpose inside the dense solver) and as the fallback for an
        // infeasible candidate graph — impossible in Full mode, where
        // `k = |R|` satisfies Hall's condition, but cheap insurance.
        let t_km = Instant::now();
        let mut sparse_result = None;
        if self.cfg.sparse_assignment == SparseMode::On && csr.rows() <= csr.cols() {
            match self.solver.try_solve_sparse(csr) {
                Ok(r) => sparse_result = Some(r),
                Err(MatchingError::Infeasible { .. }) => {}
                Err(e) => panic!("sparse KM solve failed: {e}"),
            }
        }
        let result = match sparse_result {
            Some(r) => {
                if audit_on {
                    self.auditor.note_solve_sparse(csr);
                }
                r
            }
            None => {
                let mut pruned =
                    std::mem::replace(&mut self.pruned_buf, UtilityMatrix::zeros(0, 0));
                csr.to_dense_masked_into(SANITIZED_UTILITY, &mut pruned);
                let r = self.solver.solve(&pruned);
                if audit_on {
                    self.auditor.note_solve(&pruned);
                }
                self.pruned_buf = pruned;
                r
            }
        };
        self.breakdown.km_solve_secs += t_km.elapsed().as_secs_f64();
        self.last_ops = self.solver.last_ops();

        // Map back to broker ids; TD-update per assignment with the
        // *unrefined* pair utility, recomputed point-wise —
        // `Platform::pair_utility` is bit-identical to the dense
        // matrix fill the legacy path reads the reward from.
        let mut assignment = vec![None; requests.len()];
        for (r, slot) in result.row_to_col.iter().enumerate() {
            let Some(c) = *slot else { continue };
            let b = available[union_cols[c]];
            assignment[r] = Some(b);
            let u = platform.pair_utility(r, &requests[r], b);
            let cr = self.capacities[b] - platform.workload_today(b);
            if audit_on {
                self.auditor.observe_reward(u);
            }
            self.value_fn.td_update(cr, u, cr - 1.0);
            if platform.workload_today(b) + 1.0 >= self.capacities[b] {
                self.reached_today[b] = true;
            }
        }
        self.fused = fused;
        self.adj_buf = adj;
        self.priced.rows = rows;
        if audit_on {
            self.post_solve_audit(platform, &assignment, audit_batch);
        }
        assignment
    }
}

impl Assigner for Lacb {
    fn name(&self) -> String {
        if self.cfg.use_cbs {
            "LACB-Opt".to_string()
        } else {
            "LACB".to_string()
        }
    }

    fn begin_day(&mut self, platform: &Platform, _day: usize) {
        self.ensure_initialized(platform);
        // Warm KM duals describe yesterday's utility landscape; drop
        // them at the day boundary so a checkpoint-restored run (which
        // starts with a cold solver) replays bit-identically.
        self.solver.reset();
        self.auditor.forget_solve();
        // An escalation raised by yesterday's deep audit must not leak
        // into today: the boundary re-derives every piece of shared
        // solver state, and a checkpoint-restored run (fresh auditor)
        // would otherwise replay this day differently than a live one.
        self.auditor.clear_escalation();
        self.batch_in_day = 0;
        self.match_mode = MatchMode::Full;
        let n = platform.num_brokers();
        // Per-broker capacity estimation. The tabular estimator is
        // `&self`-pure, so brokers are scored in chunks with one scratch
        // per chunk — a pure per-broker function, merged in chunk order,
        // so the result is identical for every thread count.
        // Layer transfer mutates per-broker bandits and stays
        // sequential.
        let t_score = Instant::now();
        let raws: Vec<f64> = match self.estimator.as_mut().expect("initialized above") {
            EstimatorImpl::Tabular(e) => {
                let e: &bandit::ShrinkageEstimator = e;
                let mut chunks = Vec::new();
                let used = pool::map_chunks(
                    self.cfg.n_threads,
                    self.cfg.parallel_cutoff,
                    n,
                    SCORE_WORK_PER_BROKER,
                    &mut chunks,
                    || (e.scratch(), Vec::new()),
                    |(s, raws), brokers| {
                        raws.clear();
                        raws.extend(
                            brokers.map(|b| e.estimate_with(b, platform.day_start_status(b), s)),
                        );
                    },
                );
                used.iter().flat_map(|(_, raws)| raws.iter().copied()).collect()
            }
            EstimatorImpl::Layer(e) => {
                (0..n).map(|b| e.choose(b, platform.day_start_status(b))).collect()
            }
        };
        self.breakdown.bandit_score_secs += t_score.elapsed().as_secs_f64();
        for (b, raw) in raws.into_iter().enumerate() {
            let mut cap = if self.days_elapsed == 0 || self.cfg.capacity_smoothing <= 0.0 {
                raw
            } else {
                self.cfg.capacity_smoothing * self.capacities[b]
                    + (1.0 - self.cfg.capacity_smoothing) * raw
            };
            // Dither to a neighbouring arm to keep generating
            // within-broker workload contrast; annealed so late-horizon
            // days mostly exploit the converged estimates. The draw is a
            // pure hash of (seed, broker, day) so LACB and LACB-Opt —
            // which differ only in the CBS pruning — follow identical
            // capacity trajectories, preserving the paper's
            // "LACB-Opt achieves the same utility as LACB" comparison.
            let dither_today =
                self.cfg.dither * (1.0 / (1.0 + 0.15 * self.days_elapsed as f64)).max(0.25);
            if dither_today > 0.0 {
                let h = splitmix(self.cfg.seed ^ (b as u64) << 24 ^ self.days_elapsed << 1);
                let unit = (h >> 11) as f64 / (1u64 << 53) as f64;
                if unit < dither_today {
                    let arms = self.cfg.arms.values();
                    let idx = self.cfg.arms.nearest(cap) as isize;
                    let step = [-2isize, -1, 1][(h % 3) as usize];
                    let j = (idx + step).clamp(0, arms.len() as isize - 1) as usize;
                    cap = arms[j];
                }
            }
            self.capacities[b] = cap;
            self.reached_today[b] = false;
        }
    }

    fn assign_batch(&mut self, platform: &Platform, requests: &[Request]) -> Vec<Option<usize>> {
        // The rows admission priced this tick serve this call at most:
        // every path below drops the record.
        let staged = self.priced.at.take() == Some((platform.day_index(), platform.batch_index()));
        let audit_on = self.auditor.enabled();
        let audit_batch = self.batch_in_day as usize;
        if audit_on {
            self.auditor.ensure_brokers(platform.num_brokers());
            self.pre_solve_audit(audit_batch);
        }
        // A shared-state repair this batch (or earlier) downgrades one
        // batch to the greedy floor, which consumes no learned solver
        // state.
        let greedy_override = audit_on && self.auditor.take_pending_greedy();
        let available: Vec<usize> = self.available(platform).collect();
        if available.is_empty() || requests.is_empty() {
            return vec![None; requests.len()];
        }
        // Alg. 2 line 7 pivots: the CBS pivot stream is a pure hash of
        // (seed, day, batch), so candidate sets are reproducible for
        // any thread count.
        let batch_seed = splitmix(self.cfg.seed ^ (self.days_elapsed << 20) ^ self.batch_in_day);
        self.batch_in_day += 1;
        let effective_mode = if greedy_override { MatchMode::Greedy } else { self.match_mode };

        // §16: Full-quality CBS batches take the sparse fast path —
        // fused score+select straight into a CSR candidate graph, no
        // dense matrix build at all. Brownout and greedy levels (and
        // `SparseMode::Off`) keep the literal legacy pipeline.
        if self.cfg.use_cbs
            && matches!(effective_mode, MatchMode::Full)
            && self.cfg.sparse_assignment != SparseMode::Off
        {
            // A priced row equals its rescore unless a pre-solve
            // quarantine changed the columns or the batch's utilities
            // are corrupted (corrupted cells are keyed by batch row).
            let reuse =
                staged && self.priced.available == available && !platform.utilities_corrupted();
            self.priced.map_rows(reuse, requests);
            return self.assign_batch_sparse(
                platform,
                requests,
                &available,
                batch_seed,
                audit_on,
                audit_batch,
            );
        }

        // Reuse the matrix buffers across batches (zero steady-state
        // allocation); they are moved out locally to keep the borrow
        // checker happy around `refine_utilities`. Shrinking batches
        // reuse the allocation; the debug checks after the solve prove
        // the batch loop never regrows a buffer spuriously.
        #[cfg(debug_assertions)]
        let caps_before =
            (self.full_buf.capacity(), self.reduced_buf.capacity(), self.pruned_buf.capacity());
        let mut full = std::mem::replace(&mut self.full_buf, UtilityMatrix::zeros(0, 0));
        let mut reduced = std::mem::replace(&mut self.reduced_buf, UtilityMatrix::zeros(0, 0));
        platform.utility_matrix_into(requests, &mut full);
        self.breakdown.pairs_scored += (requests.len() * platform.num_brokers()) as u64;
        reduced.select_columns_from(&full, &available);
        // Alg. 2 lines 5–6 / Eq. (15): value-function refinement.
        self.refine_utilities(&mut reduced, &available, platform);

        // Alg. 2 line 7: KM on refined utilities; LACB-Opt first prunes
        // with CBS (Alg. 3) to Top^r_{|R|} candidates. The balanced
        // path warm-starts the KM solver from the previous batch's
        // column duals whenever the available-broker count is unchanged
        // (`KmSolver` falls back to cold automatically otherwise, and
        // rectangular solves are always cold).
        let (result, col_map): (_, Option<Vec<usize>>) = match effective_mode {
            // Brownout floor: deterministic greedy edge-picking on the
            // refined matrix, no KM solve at all.
            MatchMode::Greedy => {
                self.last_ops = 0;
                let t = Instant::now();
                let out = (greedy_assignment(&reduced, f64::NEG_INFINITY), None);
                self.breakdown.km_solve_secs += t.elapsed().as_secs_f64();
                out
            }
            mode => {
                // `ShrunkCandidates` forces the CBS path (with a
                // shrunk budget) even for plain LACB — pruning is
                // exactly how this level sheds solver work.
                let use_cbs =
                    self.cfg.use_cbs || matches!(mode, MatchMode::ShrunkCandidates { .. });
                let out = if use_cbs {
                    let k = mode.candidate_budget(requests.len());
                    let t_cbs = Instant::now();
                    let cols = candidate_union_seeded_with(
                        &reduced,
                        k,
                        batch_seed,
                        self.cfg.n_threads,
                        self.cfg.parallel_cutoff,
                    );
                    self.breakdown.cbs_select_secs += t_cbs.elapsed().as_secs_f64();
                    let mut pruned =
                        std::mem::replace(&mut self.pruned_buf, UtilityMatrix::zeros(0, 0));
                    pruned.select_columns_from(&reduced, &cols);
                    let t_km = Instant::now();
                    let result = self.solver.solve(&pruned);
                    self.breakdown.km_solve_secs += t_km.elapsed().as_secs_f64();
                    if audit_on {
                        // Retain the solved matrix — the next audit pass
                        // certifies this solve's duals against it (the
                        // live buffers are clobbered between batches).
                        self.auditor.note_solve(&pruned);
                    }
                    self.pruned_buf = pruned;
                    (result, Some(cols))
                } else {
                    let t_km = Instant::now();
                    let result = if reduced.rows() <= reduced.cols() {
                        self.solver.solve_padded(&reduced)
                    } else {
                        self.solver.solve(&reduced)
                    };
                    self.breakdown.km_solve_secs += t_km.elapsed().as_secs_f64();
                    if audit_on {
                        self.auditor.note_solve(&reduced);
                    }
                    (result, None)
                };
                self.last_ops = self.solver.last_ops();
                out
            }
        };

        // Map back to broker ids; TD-update the value function per
        // assignment (Alg. 2 lines 8–10) using the *original* pair
        // utility as the reward.
        let mut assignment = vec![None; requests.len()];
        for (r, slot) in result.row_to_col.iter().enumerate() {
            let Some(c) = *slot else { continue };
            let j = match &col_map {
                Some(cols) => cols[c],
                None => c,
            };
            let b = available[j];
            assignment[r] = Some(b);
            let u = full.get(r, b);
            let cr = self.capacities[b] - platform.workload_today(b);
            if audit_on {
                // Fold the reward into the audit's dynamic V(cr) bound
                // *before* the TD update consumes it, so a legitimately
                // large utility never reads as a bound escape.
                self.auditor.observe_reward(u);
            }
            self.value_fn.td_update(cr, u, cr - 1.0);
            if platform.workload_today(b) + 1.0 >= self.capacities[b] {
                self.reached_today[b] = true;
            }
        }
        self.full_buf = full;
        self.reduced_buf = reduced;
        #[cfg(debug_assertions)]
        {
            let dense_needed = requests.len() * platform.num_brokers();
            let reduced_needed = requests.len() * available.len();
            debug_assert!(
                self.full_buf.capacity() == caps_before.0 || dense_needed > caps_before.0,
                "full utility buffer reallocated without needing to grow"
            );
            debug_assert!(
                self.reduced_buf.capacity() == caps_before.1 || reduced_needed > caps_before.1,
                "reduced utility buffer reallocated without needing to grow"
            );
            debug_assert!(
                self.pruned_buf.capacity() == caps_before.2 || reduced_needed > caps_before.2,
                "pruned utility buffer reallocated without needing to grow"
            );
        }
        if audit_on {
            self.post_solve_audit(platform, &assignment, audit_batch);
        }
        assignment
    }

    fn end_day(&mut self, _platform: &Platform, feedback: &DayFeedback) {
        self.days_elapsed += 1;
        for (b, reached) in self.reached_today.iter().enumerate() {
            if *reached {
                self.days_reached[b] += 1;
            }
        }
        // Alg. 2 lines 11–13: feed (x_b, w_b, s_b) back into each
        // broker's bandit.
        if let Some(estimator) = &mut self.estimator {
            let trained = estimator.train_sample_epochs();
            for t in &feedback.trials {
                estimator.update(t.broker, &t.context, t.workload, t.signup_rate);
            }
            self.breakdown.train_sample_epochs += estimator.train_sample_epochs() - trained;
        }
        // Deep audit after the feedback lands: damage it surfaces is
        // quarantined before the next begin_day re-estimates from it.
        if self.auditor.enabled() {
            self.auditor.ensure_brokers(self.capacities.len());
            self.deep_audit();
        }
    }

    fn take_audit_report(&mut self) -> Option<AuditReport> {
        if self.auditor.enabled() {
            Some(self.auditor.take_report())
        } else {
            None
        }
    }

    fn repair_quarantined_brokers(&mut self) {
        self.repair_quarantined();
    }

    fn inject_state_fault(&mut self, fault: &StateFault) {
        self.apply_state_fault(fault);
    }

    fn take_stage_breakdown(&mut self) -> Option<StageBreakdown> {
        Some(std::mem::take(&mut self.breakdown))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assigner::assert_is_matching;
    use crate::core::Engine;
    use crate::testkit::assert_bit_identical;
    use platform_sim::{BrokerProfile, Dataset, SyntheticConfig, UtilityModel};

    fn world(seed: u64) -> (Platform, Dataset) {
        let cfg = SyntheticConfig {
            num_brokers: 25,
            num_requests: 500,
            days: 3,
            imbalance: 0.2, // 5 per batch
            seed,
        };
        let ds = Dataset::synthetic(&cfg);
        (Platform::from_dataset(&ds), ds)
    }

    fn run_days(p: &mut Platform, ds: &Dataset, a: &mut Lacb) -> f64 {
        let mut total = 0.0;
        for (d, day) in ds.days.iter().enumerate() {
            p.begin_day();
            a.begin_day(p, d);
            for batch in day {
                let assignment = a.assign_batch(p, &batch.requests);
                assert_is_matching(&assignment);
                let out = p.execute_batch(&batch.requests, &assignment);
                total += out.realized;
            }
            let fb = p.end_day();
            a.end_day(p, &fb);
        }
        total
    }

    #[test]
    fn lacb_full_horizon_runs() {
        let (mut p, ds) = world(31);
        let mut a = Lacb::new(LacbConfig::default());
        let total = run_days(&mut p, &ds, &mut a);
        assert!(total > 0.0);
        assert_eq!(a.name(), "LACB");
        assert!(a.value_function().updates() > 0);
        assert!(a.shrinkage().is_some(), "tabular personalisation is the default");
        assert!(a.estimator().is_none());
    }

    #[test]
    fn lacb_opt_full_horizon_runs() {
        let (mut p, ds) = world(31);
        let mut a = Lacb::new_opt();
        let total = run_days(&mut p, &ds, &mut a);
        assert!(total > 0.0);
        assert_eq!(a.name(), "LACB-Opt");
    }

    #[test]
    fn lacb_and_opt_agree_on_utility_without_refinement() {
        // With the value function silent (day 0, f_b = 0 for all), LACB
        // and LACB-Opt must produce the *same-value* batch assignments
        // (Corollary 1: CBS preserves optimality).
        let (mut p, ds) = world(37);
        let mut plain = Lacb::new(LacbConfig::default());
        let mut opt = Lacb::new_opt();
        p.begin_day();
        plain.begin_day(&p, 0);
        opt.begin_day(&p, 0);
        let reqs = &ds.days[0][0].requests;
        let u = p.utility_matrix(reqs);
        let a1 = plain.assign_batch(&p, reqs);
        let a2 = opt.assign_batch(&p, reqs);
        let v1: f64 = a1.iter().enumerate().filter_map(|(r, s)| s.map(|b| u.get(r, b))).sum();
        let v2: f64 = a2.iter().enumerate().filter_map(|(r, s)| s.map(|b| u.get(r, b))).sum();
        assert!((v1 - v2).abs() < 1e-9, "LACB {v1} vs LACB-Opt {v2}");
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn respects_estimated_capacity() {
        let (mut p, ds) = world(41);
        let mut a = Lacb::new(LacbConfig::default());
        p.begin_day();
        a.begin_day(&p, 0);
        let mut served = vec![0.0; p.num_brokers()];
        for batch in &ds.days[0] {
            let assignment = a.assign_batch(&p, &batch.requests);
            p.execute_batch(&batch.requests, &assignment);
            for s in assignment.iter().flatten() {
                served[*s] += 1.0;
            }
        }
        for b in 0..p.num_brokers() {
            assert!(
                served[b] <= a.capacity_of(b),
                "broker {b}: {} > {}",
                served[b],
                a.capacity_of(b)
            );
        }
    }

    #[test]
    fn capacity_frequency_tracks_saturation() {
        let (mut p, ds) = world(43);
        // Tiny capacities force saturation.
        let cfg = LacbConfig { arms: CandidateCapacities::new(vec![2.0]), ..Default::default() };
        let mut a = Lacb::new(cfg);
        run_days(&mut p, &ds, &mut a);
        let any_frequent = (0..p.num_brokers()).any(|b| a.capacity_frequency(b) > 0.5);
        assert!(any_frequent, "with capacity 2 many brokers must saturate");
    }

    #[test]
    fn capacities_stay_within_arm_range_plus_margin() {
        // Smoothing, shrinkage blending and the knee margin make the
        // deployed capacity continuous, but it must stay within the arm
        // range (plus the small knee margin).
        let (mut p, _) = world(47);
        let mut a = Lacb::new(LacbConfig::default());
        p.begin_day();
        a.begin_day(&p, 0);
        let arms = LacbConfig::default().arms;
        let lo = arms.values().iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = arms.values().iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        for b in 0..p.num_brokers() {
            let c = a.capacity_of(b);
            assert!(
                (lo..=hi + 10.0).contains(&c),
                "broker {b} capacity {c} outside [{lo}, {}]",
                hi + 10.0
            );
        }
    }

    #[test]
    fn layer_transfer_mode_runs_end_to_end() {
        let (mut p, ds) = world(59);
        let mut a = Lacb::new(LacbConfig {
            personalization: Personalization::LayerTransfer,
            ..LacbConfig::default()
        });
        let total = run_days(&mut p, &ds, &mut a);
        assert!(total > 0.0);
        assert!(a.estimator().is_some(), "layer-transfer estimator active");
        assert!(a.shrinkage().is_none());
    }

    #[test]
    fn value_refinement_applies_only_to_frequently_capped_brokers() {
        // Force every broker to saturate (capacity 2) so f_b rises above
        // δ quickly, then check the refined utilities actually differ
        // from the raw ones once the value function has signal.
        let (mut p, ds) = world(61);
        let cfg = LacbConfig {
            arms: CandidateCapacities::new(vec![2.0]),
            dither: 0.0,
            ..LacbConfig::default()
        };
        let mut a = Lacb::new(cfg);
        run_days(&mut p, &ds, &mut a);
        // After several days every assigned broker reached its cap daily.
        let frequent = (0..p.num_brokers()).filter(|&b| a.capacity_frequency(b) > 0.8).count();
        assert!(frequent > 0, "saturation should make f_b > δ for some brokers");
        assert!(a.value_function().updates() > 0);
        // The value table learned something non-trivial.
        let learned = a.value_function().table().iter().any(|&v| v != 0.0);
        assert!(learned, "value function should be non-zero after training");
    }

    #[test]
    fn dither_keeps_capacity_within_arm_bounds() {
        let (mut p, ds) = world(67);
        let mut a = Lacb::new(LacbConfig { dither: 1.0, ..LacbConfig::default() });
        let arms = LacbConfig::default().arms;
        let lo = arms.values().iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = arms.values().iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        for (d, day) in ds.days.iter().enumerate() {
            p.begin_day();
            a.begin_day(&p, d);
            for b in 0..p.num_brokers() {
                let c = a.capacity_of(b);
                assert!((lo..=hi).contains(&c), "dithered capacity {c} out of bounds");
            }
            for batch in day {
                let assignment = a.assign_batch(&p, &batch.requests);
                p.execute_batch(&batch.requests, &assignment);
            }
            let fb = p.end_day();
            a.end_day(&p, &fb);
        }
    }

    /// Run `a` and a restored copy side by side over the remaining days;
    /// both must produce bitwise-identical utility.
    fn resume_matches(seed: u64, cfg: LacbConfig) {
        let (mut p, ds) = world(seed);
        let mut a = Lacb::new(cfg.clone());
        // Train for one day, checkpoint at the boundary.
        let mut total_a = 0.0;
        for (d, day) in ds.days.iter().enumerate() {
            p.begin_day();
            a.begin_day(&p, d);
            for batch in day {
                let assignment = a.assign_batch(&p, &batch.requests);
                total_a += p.execute_batch(&batch.requests, &assignment).realized;
            }
            let fb = p.end_day();
            a.end_day(&p, &fb);
            if d == 0 {
                break;
            }
        }
        let mut text = String::new();
        a.write_state(&mut text);
        let mut b = Lacb::read_state(&mut text.lines(), cfg, p.num_brokers())
            .expect("checkpoint should restore");
        // Resume both matchers on identical platform clones.
        let mut pb = p.clone();
        let mut total_b = total_a;
        for (d, day) in ds.days.iter().enumerate().skip(1) {
            p.begin_day();
            pb.begin_day();
            a.begin_day(&p, d);
            b.begin_day(&pb, d);
            for batch in day {
                let asg_a = a.assign_batch(&p, &batch.requests);
                let asg_b = b.assign_batch(&pb, &batch.requests);
                assert_eq!(asg_a, asg_b, "restored matcher diverged on day {d}");
                total_a += p.execute_batch(&batch.requests, &asg_a).realized;
                total_b += pb.execute_batch(&batch.requests, &asg_b).realized;
            }
            let fa = p.end_day();
            let fb = pb.end_day();
            a.end_day(&p, &fa);
            b.end_day(&pb, &fb);
        }
        assert_eq!(total_a.to_bits(), total_b.to_bits(), "resume must be bit-identical");
    }

    #[test]
    fn checkpoint_resume_is_bit_identical_tabular() {
        resume_matches(71, LacbConfig::default());
    }

    #[test]
    fn checkpoint_resume_is_bit_identical_with_sparse_assignment() {
        // LACB-Opt with the §16 sparse fast path on (the default):
        // checkpoint/replay determinism must survive the CSR solve.
        resume_matches(101, LacbConfig::opt());
    }

    /// Run a full horizon, returning every batch assignment plus the
    /// realized total.
    fn run_collecting(cfg: LacbConfig, seed: u64) -> (Vec<Vec<Option<usize>>>, f64) {
        let (mut p, ds) = world(seed);
        let mut a = Lacb::new(cfg);
        let mut assignments = Vec::new();
        let mut total = 0.0;
        for (d, day) in ds.days.iter().enumerate() {
            p.begin_day();
            a.begin_day(&p, d);
            for batch in day {
                let asg = a.assign_batch(&p, &batch.requests);
                assert_is_matching(&asg);
                total += p.execute_batch(&batch.requests, &asg).realized;
                assignments.push(asg);
            }
            let fb = p.end_day();
            a.end_day(&p, &fb);
        }
        (assignments, total)
    }

    #[test]
    fn sparse_on_matches_dense_oracle_bitwise() {
        // The §16 equivalence end to end: the fused CSR solve and the
        // masked-dense expansion of the *same* candidate graph must
        // produce identical assignments on every batch of the horizon,
        // hence bitwise-equal realized totals.
        let on = run_collecting(LacbConfig::opt(), 97);
        let oracle = run_collecting(
            LacbConfig { sparse_assignment: SparseMode::DenseOracle, ..LacbConfig::opt() },
            97,
        );
        assert_eq!(on.0, oracle.0, "sparse and masked-dense oracle assignments diverged");
        assert_eq!(on.1.to_bits(), oracle.1.to_bits());
    }

    #[test]
    fn sparse_on_and_off_agree_on_batch_utility() {
        // Corollary 1 at the knob level: with the value function silent
        // (day 0) the sparse fast path and the legacy dense pipeline
        // pick same-value batch assignments (ties may break
        // differently, so equality is on utility, not indices).
        let (mut p, ds) = world(37);
        let mut on = Lacb::new(LacbConfig::opt());
        let mut off =
            Lacb::new(LacbConfig { sparse_assignment: SparseMode::Off, ..LacbConfig::opt() });
        p.begin_day();
        on.begin_day(&p, 0);
        off.begin_day(&p, 0);
        let reqs = &ds.days[0][0].requests;
        let u = p.utility_matrix(reqs);
        let a1 = on.assign_batch(&p, reqs);
        let a2 = off.assign_batch(&p, reqs);
        assert_is_matching(&a1);
        assert_is_matching(&a2);
        let v1: f64 = a1.iter().enumerate().filter_map(|(r, s)| s.map(|b| u.get(r, b))).sum();
        let v2: f64 = a2.iter().enumerate().filter_map(|(r, s)| s.map(|b| u.get(r, b))).sum();
        assert!((v1 - v2).abs() < 1e-9, "sparse {v1} vs legacy {v2}");
    }

    #[test]
    fn sparse_path_is_thread_count_invariant() {
        // `parallel_cutoff: 0` forces the pool split even at this tiny
        // scale; at every thread count both the sparse path and its
        // masked-dense oracle must replay the 1-thread sparse horizon
        // exactly (assignments and total bits).
        let base = LacbConfig { parallel_cutoff: 0, ..LacbConfig::opt() };
        let (asg1, t1) = run_collecting(base.clone(), 103);
        for threads in [1usize, 2, 4, 8] {
            for mode in [SparseMode::On, SparseMode::DenseOracle] {
                let cfg =
                    LacbConfig { n_threads: threads, sparse_assignment: mode, ..base.clone() };
                let (asg, t) = run_collecting(cfg, 103);
                assert_eq!(asg1, asg, "{mode:?} at {threads} threads diverged from 1-thread On");
                assert_eq!(t1.to_bits(), t.to_bits());
            }
        }
    }

    #[test]
    fn fused_tie_break_is_thread_count_invariant() {
        // Groups of four brokers share one profile and the utility model
        // has no pair noise, so on day 0 (no refinement yet) rows tie at
        // their k-boundary: the kernel's seeded key alone picks which
        // tied brokers become candidates, whatever the thread count.
        let mut ds = Dataset::synthetic(&SyntheticConfig {
            num_brokers: 24,
            num_requests: 480,
            days: 2,
            imbalance: 0.25,
            seed: 19,
        });
        let leaders = ds.brokers.clone();
        for (b, broker) in ds.brokers.iter_mut().enumerate() {
            *broker = BrokerProfile { id: b, ..leaders[b / 4 * 4].clone() };
        }
        let platform = || Platform::new(ds.brokers.clone(), UtilityModel::new(0.35, 0, 0.0));
        let first = &ds.days[0][0].requests;
        let u = platform().utility_matrix(first);
        let k = MatchMode::Full.candidate_budget(first.len());
        let tied = (0..u.rows()).any(|r| {
            let mut row = u.row(r).to_vec();
            row.sort_by(|a, b| b.total_cmp(a));
            row[k - 1] == row[k]
        });
        assert!(tied, "no row ties at its k-boundary");
        let serve = |n_threads| {
            let cfg = LacbConfig { n_threads, parallel_cutoff: 0, ..LacbConfig::opt() };
            let mut lacb = Lacb::new(cfg);
            let m = Engine::new(&ds, platform(), &mut lacb as &mut dyn Assigner).serve();
            let mut state = String::new();
            lacb.write_state(&mut state);
            (m, state)
        };
        let (m1, s1) = serve(1);
        for n_threads in [2, 4] {
            let (m, s) = serve(n_threads);
            assert_bit_identical(&m1, &m);
            assert_eq!(s1, s, "learned state diverged at {n_threads} threads");
        }
    }

    #[test]
    fn checkpoint_resume_is_bit_identical_layer() {
        resume_matches(
            73,
            LacbConfig {
                personalization: Personalization::LayerTransfer,
                personalize_after: 4,
                ..LacbConfig::default()
            },
        );
    }

    #[test]
    fn read_state_rejects_estimator_kind_mismatch() {
        let (mut p, ds) = world(31);
        let mut a = Lacb::new(LacbConfig::default());
        run_days(&mut p, &ds, &mut a);
        let mut text = String::new();
        a.write_state(&mut text);
        let wrong =
            LacbConfig { personalization: Personalization::LayerTransfer, ..LacbConfig::default() };
        let err = Lacb::read_state(&mut text.lines(), wrong, p.num_brokers())
            .err()
            .expect("kind mismatch should fail");
        assert!(err.contains("does not match"), "got: {err}");
    }

    #[test]
    fn read_state_rejects_broker_count_mismatch() {
        let (mut p, ds) = world(31);
        let mut a = Lacb::new(LacbConfig::default());
        run_days(&mut p, &ds, &mut a);
        let mut text = String::new();
        a.write_state(&mut text);
        let err = Lacb::read_state(&mut text.lines(), LacbConfig::default(), p.num_brokers() + 1)
            .err()
            .expect("broker count mismatch should fail");
        assert!(err.contains("expected"), "got: {err}");
    }

    #[test]
    fn brownout_modes_still_produce_valid_matchings() {
        let (mut p, ds) = world(83);
        let mut a = Lacb::new_opt();
        p.begin_day();
        a.begin_day(&p, 0);
        assert_eq!(a.match_mode(), MatchMode::Full);
        let reqs = &ds.days[0][0].requests;
        for mode in [MatchMode::Full, MatchMode::ShrunkCandidates { divisor: 4 }, MatchMode::Greedy]
        {
            a.set_match_mode(mode);
            let assignment = a.assign_batch(&p, reqs);
            assert_is_matching(&assignment);
            assert!(assignment.iter().any(|s| s.is_some()), "{:?} assigned nothing", mode);
        }
        // Greedy skips the KM solver entirely.
        a.set_match_mode(MatchMode::Greedy);
        a.assign_batch(&p, reqs);
        assert_eq!(a.last_solve_ops(), 0);
        a.set_match_mode(MatchMode::Full);
        a.assign_batch(&p, reqs);
        assert!(a.last_solve_ops() > 0, "KM path reports its relaxation ops");
        // The day boundary restores full quality.
        let fb = p.end_day();
        a.end_day(&p, &fb);
        p.begin_day();
        a.begin_day(&p, 1);
        assert_eq!(a.match_mode(), MatchMode::Full);
    }

    #[test]
    fn shed_priorities_are_finite_and_ranked_by_utility() {
        let (mut p, ds) = world(89);
        let mut a = Lacb::new(LacbConfig::default());
        p.begin_day();
        a.begin_day(&p, 0);
        let reqs = &ds.days[0][0].requests;
        let prios = a.shed_priorities(&p, reqs);
        assert_eq!(prios.len(), reqs.len());
        assert!(prios.iter().all(|x| x.is_finite()));
        // The priority is the best refined utility the request could
        // realise, so it is bounded by the max raw utility plus the
        // largest refinement (zero on day 0).
        let u = p.utility_matrix(reqs);
        for (r, &prio) in prios.iter().enumerate() {
            let best = (0..p.num_brokers()).map(|b| u.get(r, b)).fold(f64::NEG_INFINITY, f64::max);
            assert!(prio <= best + 1e-9, "request {r}: {prio} > {best}");
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let (mut p, _) = world(53);
        let mut a = Lacb::new(LacbConfig::default());
        p.begin_day();
        a.begin_day(&p, 0);
        let assignment = a.assign_batch(&p, &[]);
        assert!(assignment.is_empty());
    }
}
