//! Run metrics: per-broker ledgers, distribution summaries, inequality
//! measures.
//!
//! Figs. 4, 9 and 10 of the paper are all *per-broker distributions*
//! (workload or utility, sorted descending, top brokers highlighted);
//! [`BrokerLedger`] accumulates the raw numbers during a run and exposes
//! exactly those views. [`gini`] quantifies the Matthew effect the paper
//! describes qualitatively.

use crate::environment::BatchOutcome;

/// Per-broker accumulators over one run.
#[derive(Clone, Debug)]
pub struct BrokerLedger {
    realized_utility: Vec<f64>,
    predicted_utility: Vec<f64>,
    requests_served: Vec<f64>,
    /// Per-day realised totals (platform-level).
    daily_realized: Vec<f64>,
    /// Per-day served request counts.
    daily_served: Vec<f64>,
    /// Per-broker maximum single-day workload (the Fig. 4/10 overload
    /// indicator).
    peak_daily_workload: Vec<f64>,
    workload_today: Vec<f64>,
}

impl BrokerLedger {
    /// Ledger for `n` brokers.
    pub fn new(n: usize) -> Self {
        Self {
            realized_utility: vec![0.0; n],
            predicted_utility: vec![0.0; n],
            requests_served: vec![0.0; n],
            daily_realized: Vec::new(),
            daily_served: Vec::new(),
            peak_daily_workload: vec![0.0; n],
            workload_today: vec![0.0; n],
        }
    }

    /// Number of brokers tracked.
    pub fn num_brokers(&self) -> usize {
        self.realized_utility.len()
    }

    /// Record one executed batch using its exact per-pair utilities.
    pub fn record_batch(&mut self, outcome: &BatchOutcome) {
        debug_assert_eq!(outcome.assignments.len(), outcome.pair_realized.len());
        debug_assert_eq!(outcome.assignments.len(), outcome.pair_predicted.len());
        for (i, &(_, b)) in outcome.assignments.iter().enumerate() {
            self.realized_utility[b] += outcome.pair_realized[i];
            self.predicted_utility[b] += outcome.pair_predicted[i];
            self.requests_served[b] += 1.0;
            self.workload_today[b] += 1.0;
        }
    }

    /// Record exact per-pair realised/predicted utilities (preferred).
    pub fn record_pair(&mut self, broker: usize, realized: f64, predicted: f64) {
        self.realized_utility[broker] += realized;
        self.predicted_utility[broker] += predicted;
        self.requests_served[broker] += 1.0;
        self.workload_today[broker] += 1.0;
    }

    /// Close a day: records daily totals and per-broker peaks.
    pub fn end_day(&mut self, day_realized: f64) {
        self.daily_realized.push(day_realized);
        self.daily_served.push(self.workload_today.iter().sum());
        for (peak, w) in self.peak_daily_workload.iter_mut().zip(&self.workload_today) {
            if *w > *peak {
                *peak = *w;
            }
        }
        self.workload_today.iter_mut().for_each(|w| *w = 0.0);
    }

    /// Total realised utility of the run.
    pub fn total_realized(&self) -> f64 {
        self.daily_realized.iter().sum()
    }

    /// Per-day realised utilities.
    pub fn daily_realized(&self) -> &[f64] {
        &self.daily_realized
    }

    /// Per-broker realised utilities.
    pub fn per_broker_utility(&self) -> &[f64] {
        &self.realized_utility
    }

    /// Per-broker total requests served.
    pub fn per_broker_served(&self) -> &[f64] {
        &self.requests_served
    }

    /// Per-broker maximum single-day workload.
    pub fn per_broker_peak_workload(&self) -> &[f64] {
        &self.peak_daily_workload
    }

    /// Average *daily* workload per broker (total served / days).
    pub fn per_broker_mean_daily_workload(&self) -> Vec<f64> {
        let days = self.daily_realized.len().max(1) as f64;
        self.requests_served.iter().map(|w| w / days).collect()
    }

    /// Utilities sorted descending — the x-axis of Fig. 9.
    pub fn utility_distribution(&self) -> Vec<f64> {
        let mut v = self.realized_utility.clone();
        v.sort_by(|a, b| b.partial_cmp(a).unwrap());
        v
    }

    /// Mean daily workloads sorted descending — the x-axis of Figs. 4/10.
    pub fn workload_distribution(&self) -> Vec<f64> {
        let mut v = self.per_broker_mean_daily_workload();
        v.sort_by(|a, b| b.partial_cmp(a).unwrap());
        v
    }

    /// Fraction of brokers whose realised utility strictly improved over
    /// another run's ledger (the paper's "80.8% brokers in LACB have an
    /// improvement in utility compared with Top-K").
    pub fn improved_fraction_over(&self, baseline: &BrokerLedger) -> f64 {
        assert_eq!(self.num_brokers(), baseline.num_brokers());
        // Only brokers that participated in either run are meaningful.
        let mut active = 0usize;
        let mut improved = 0usize;
        for (a, b) in self.realized_utility.iter().zip(&baseline.realized_utility) {
            if *a > 0.0 || *b > 0.0 {
                active += 1;
                if a > b {
                    improved += 1;
                }
            }
        }
        if active == 0 {
            0.0
        } else {
            improved as f64 / active as f64
        }
    }
}

/// Owned copy of a [`BrokerLedger`]'s accumulators, for checkpointing.
/// Field order mirrors the ledger; all per-broker vectors must share
/// one length.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LedgerSnapshot {
    /// Per-broker realised utility.
    pub realized_utility: Vec<f64>,
    /// Per-broker predicted utility.
    pub predicted_utility: Vec<f64>,
    /// Per-broker requests served.
    pub requests_served: Vec<f64>,
    /// Per-day realised totals.
    pub daily_realized: Vec<f64>,
    /// Per-day served counts.
    pub daily_served: Vec<f64>,
    /// Per-broker peak single-day workload.
    pub peak_daily_workload: Vec<f64>,
    /// Per-broker workload within the open day (zero at day boundary).
    pub workload_today: Vec<f64>,
}

impl BrokerLedger {
    /// Copy out every accumulator (checkpoint save).
    pub fn snapshot(&self) -> LedgerSnapshot {
        LedgerSnapshot {
            realized_utility: self.realized_utility.clone(),
            predicted_utility: self.predicted_utility.clone(),
            requests_served: self.requests_served.clone(),
            daily_realized: self.daily_realized.clone(),
            daily_served: self.daily_served.clone(),
            peak_daily_workload: self.peak_daily_workload.clone(),
            workload_today: self.workload_today.clone(),
        }
    }

    /// Rebuild a ledger from a snapshot (checkpoint restore). Rejects
    /// snapshots whose per-broker vectors disagree on the population
    /// size.
    pub fn from_snapshot(s: LedgerSnapshot) -> Result<BrokerLedger, String> {
        let n = s.realized_utility.len();
        if s.predicted_utility.len() != n
            || s.requests_served.len() != n
            || s.peak_daily_workload.len() != n
            || s.workload_today.len() != n
        {
            return Err("ledger snapshot has inconsistent broker counts".to_string());
        }
        if s.daily_realized.len() != s.daily_served.len() {
            return Err("ledger snapshot has inconsistent day counts".to_string());
        }
        Ok(BrokerLedger {
            realized_utility: s.realized_utility,
            predicted_utility: s.predicted_utility,
            requests_served: s.requests_served,
            daily_realized: s.daily_realized,
            daily_served: s.daily_served,
            peak_daily_workload: s.peak_daily_workload,
            workload_today: s.workload_today,
        })
    }
}

/// Jain's fairness index `(Σx)² / (n·Σx²)` of a non-negative
/// distribution: 1 = perfectly even, `1/n` = all mass on one broker.
/// The complement view of [`gini`], common in the fair-allocation
/// literature the RR baseline descends from.
pub fn jain_index(values: &[f64]) -> f64 {
    let n = values.len();
    if n == 0 {
        return 1.0;
    }
    let sum: f64 = values.iter().sum();
    let sq: f64 = values.iter().map(|v| v * v).sum();
    if sq == 0.0 {
        return 1.0;
    }
    sum * sum / (n as f64 * sq)
}

/// Gini coefficient of a non-negative distribution (0 = perfectly even,
/// →1 = all mass on one broker). Quantifies the Matthew effect.
pub fn gini(values: &[f64]) -> f64 {
    let n = values.len();
    if n == 0 {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let total: f64 = sorted.iter().sum();
    if total <= 0.0 {
        return 0.0;
    }
    let mut cum = 0.0;
    let mut weighted = 0.0;
    for (i, &v) in sorted.iter().enumerate() {
        cum += v;
        weighted += cum;
        let _ = i;
    }
    // Gini = (n + 1 - 2 * Σ cum_i / total) / n
    (n as f64 + 1.0 - 2.0 * weighted / total) / n as f64
}

/// Nearest-rank percentile of an unsorted sample (`p` in `[0, 100]`).
/// Returns `0.0` on an empty sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Cumulative sub-stage breakdown of one run: where the serving time
/// actually went, one level below [`StageTimings`]' per-call samples.
/// The assigner accumulates the compute stages (bandit scoring, CBS
/// selection, KM solve); the runner fills the pool counters from the
/// worker-pool telemetry deltas around the run. Pure telemetry — the
/// clock reads feed no scheduling decision, so capturing them cannot
/// perturb determinism.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StageBreakdown {
    /// Seconds scoring per-broker capacities in `begin_day`.
    pub bandit_score_secs: f64,
    /// Seconds computing CBS candidate unions in `assign_batch`.
    pub cbs_select_secs: f64,
    /// Seconds inside KM/greedy solves in `assign_batch`.
    pub km_solve_secs: f64,
    /// Seconds of worker-pool coordination overhead (dispatch, wake,
    /// park, join bookkeeping) attributed to this run.
    pub pool_sync_secs: f64,
    /// Rounds dispatched to the worker pool during the run.
    pub parallel_rounds: u64,
    /// Rounds the adaptive sequential cutoff kept inline despite a
    /// multi-thread configuration.
    pub inline_rounds: u64,
    /// Seconds inside the fused score+select kernel building CSR
    /// candidate graphs (the sparse path's analogue of matrix fill +
    /// `cbs_select_secs`).
    pub sparse_build_secs: f64,
    /// Request rows routed through the sparse assignment path.
    pub sparse_rows: u64,
    /// Candidate edges (CSR non-zeros) emitted by the fused kernel.
    pub sparse_edges: u64,
}

impl StageBreakdown {
    /// Merge another breakdown into this one (stage sums and round
    /// counts are additive).
    pub fn absorb(&mut self, other: &StageBreakdown) {
        self.bandit_score_secs += other.bandit_score_secs;
        self.cbs_select_secs += other.cbs_select_secs;
        self.km_solve_secs += other.km_solve_secs;
        self.pool_sync_secs += other.pool_sync_secs;
        self.parallel_rounds += other.parallel_rounds;
        self.inline_rounds += other.inline_rounds;
        self.sparse_build_secs += other.sparse_build_secs;
        self.sparse_rows += other.sparse_rows;
        self.sparse_edges += other.sparse_edges;
    }
}

/// Per-stage wall-clock counters of the serving loop, captured by the
/// experiment runners. Batch-level vectors have one entry per request
/// batch; day-level vectors one entry per day. These are the raw samples
/// behind caam-bench's per-batch latency and stage metrics and the
/// wall-clock floors of `tests/serving_floors.rs`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StageTimings {
    /// Seconds spent in `assign_batch` (candidate selection + scoring +
    /// matching), one entry per batch.
    pub assign_batch_secs: Vec<f64>,
    /// Seconds spent in `begin_day` (per-broker capacity estimation),
    /// one entry per day.
    pub begin_day_secs: Vec<f64>,
    /// Seconds spent in `end_day` (feedback ingestion and training),
    /// one entry per day.
    pub end_day_secs: Vec<f64>,
    /// Cumulative sub-stage breakdown (see [`StageBreakdown`]).
    pub breakdown: StageBreakdown,
}

impl StageTimings {
    /// Number of batch samples recorded.
    pub fn batches(&self) -> usize {
        self.assign_batch_secs.len()
    }

    /// Nearest-rank percentile of the per-batch assignment latency.
    pub fn assign_percentile(&self, p: f64) -> f64 {
        percentile(&self.assign_batch_secs, p)
    }

    /// Total seconds across every recorded stage.
    pub fn total_secs(&self) -> f64 {
        self.assign_batch_secs.iter().sum::<f64>()
            + self.begin_day_secs.iter().sum::<f64>()
            + self.end_day_secs.iter().sum::<f64>()
    }
}

/// Aggregate results of one algorithm run — filled by the experiment
/// runner in the `lacb` crate.
#[derive(Clone, Debug)]
pub struct RunMetrics {
    /// Algorithm label.
    pub algorithm: String,
    /// Total realised utility.
    pub total_utility: f64,
    /// Wall-clock seconds spent inside the assignment algorithm
    /// (excludes simulator bookkeeping), cumulative over the horizon.
    pub elapsed_secs: f64,
    /// Per-day realised utility.
    pub daily_utility: Vec<f64>,
    /// Per-day cumulative elapsed seconds.
    pub daily_elapsed: Vec<f64>,
    /// The broker ledger of the run.
    pub ledger: BrokerLedger,
    /// Degradation/fault accounting, populated by the resilient runner
    /// (`None` for plain runs).
    pub resilience: Option<ResilienceStats>,
    /// Overload-protection accounting, populated by the overload
    /// serving loop (`None` for runs without admission control).
    pub overload: Option<OverloadStats>,
    /// Per-stage wall-clock samples (see [`StageTimings`]).
    pub timings: StageTimings,
    /// Invariant-audit accounting, populated when the serving loop ran
    /// with runtime audits enabled (`None` otherwise).
    pub audit: Option<AuditReport>,
    /// Replication-protocol accounting, populated by the replicated
    /// serving loop (`None` for single-node runs).
    pub replication: Option<ReplicationStats>,
    /// Storage-fault accounting and degraded-mode transitions,
    /// populated when the durable serving loop ran with storage-fault
    /// tolerance enabled (`None` otherwise).
    pub storage: Option<StorageStats>,
}

impl RunMetrics {
    /// The one run-vs-run oracle: the first field in which `other` did
    /// not serve bit-identically to `self`, or `None`. It compares, bit
    /// for bit, total and daily utility, all seven ledger vectors, and
    /// the `resilience` and `overload` accounting; a `0.0` against a
    /// `-0.0` is a divergence.
    ///
    /// Left out on purpose: the wall-clock fields (`elapsed_secs`,
    /// `daily_elapsed`, `timings`) differ between any two runs, and the
    /// layer telemetry (`audit`, `replication`, `storage`) differs
    /// between stacks that serve identically — a takeover run against
    /// a single node, a degraded disk against a clean one. Each harness
    /// gates that telemetry itself. `algorithm` is a label.
    pub fn first_divergence(&self, other: &RunMetrics) -> Option<String> {
        if self.total_utility.to_bits() != other.total_utility.to_bits() {
            return Some(format!(
                "total_utility {} vs {}",
                self.total_utility, other.total_utility
            ));
        }
        let (a, b) = (self.ledger.snapshot(), other.ledger.snapshot());
        let vectors = [
            ("daily_utility", &self.daily_utility, &other.daily_utility),
            ("ledger.realized_utility", &a.realized_utility, &b.realized_utility),
            ("ledger.predicted_utility", &a.predicted_utility, &b.predicted_utility),
            ("ledger.requests_served", &a.requests_served, &b.requests_served),
            ("ledger.daily_realized", &a.daily_realized, &b.daily_realized),
            ("ledger.daily_served", &a.daily_served, &b.daily_served),
            ("ledger.peak_daily_workload", &a.peak_daily_workload, &b.peak_daily_workload),
            ("ledger.workload_today", &a.workload_today, &b.workload_today),
        ];
        for (name, x, y) in vectors {
            if x.len() != y.len() {
                return Some(format!("{name} length {} vs {}", x.len(), y.len()));
            }
            if let Some(i) = (0..x.len()).find(|&i| x[i].to_bits() != y[i].to_bits()) {
                return Some(format!("{name}[{i}] {} vs {}", x[i], y[i]));
            }
        }
        if self.resilience != other.resilience {
            return Some(format!("resilience {:?} vs {:?}", self.resilience, other.resilience));
        }
        if self.overload != other.overload {
            return Some(format!("overload {:?} vs {:?}", self.overload, other.overload));
        }
        None
    }
}

/// Serving mode of the storage-fault state machine
/// (`Durable → Degraded → Resyncing → Durable`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum StorageMode {
    /// WAL appends and checkpoint saves are landing on disk.
    #[default]
    Durable,
    /// Diskless: a storage fault tripped the WAL/checkpoint breaker;
    /// serving continues in memory with records held in a bounded
    /// replay buffer.
    Degraded,
    /// A resync attempt is in flight: full checkpoint + fresh WAL.
    Resyncing,
}

impl StorageMode {
    /// Stable label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            StorageMode::Durable => "durable",
            StorageMode::Degraded => "degraded",
            StorageMode::Resyncing => "resyncing",
        }
    }
}

/// One deterministic mode transition, stamped with the integer batch
/// tick it happened on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StorageTransition {
    /// Cumulative batch tick of the transition.
    pub tick: u64,
    /// Mode before.
    pub from: StorageMode,
    /// Mode after.
    pub to: StorageMode,
    /// Why (fault site + detail, or "resync").
    pub reason: String,
}

/// Storage-fault accounting of one durable run: every fault seen, every
/// mode transition, and exact replay-buffer bookkeeping. Filled by the
/// storage guard in the `lacb` crate and surfaced through
/// [`RunMetrics::storage`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StorageStats {
    /// Every mode transition, in order, with integer ticks.
    pub transitions: Vec<StorageTransition>,
    /// Storage faults observed (any site).
    pub faults: u64,
    /// WAL appends that failed (the record went to the replay buffer).
    pub wal_append_failures: u64,
    /// Checkpoint saves that failed.
    pub checkpoint_failures: u64,
    /// Non-fatal prune/sweep warnings from the checkpoint store.
    pub prune_warnings: u64,
    /// Times the machine entered Degraded.
    pub degraded_entries: u64,
    /// Resync attempts started (breaker allowed a probe).
    pub resync_attempts: u64,
    /// Resyncs that completed back to Durable.
    pub resyncs_completed: u64,
    /// Records ever pushed into the replay buffer.
    pub buffered_total: u64,
    /// Peak replay-buffer occupancy.
    pub buffered_peak: u64,
    /// Records still in the buffer when the run ended.
    pub buffered_final: u64,
    /// Records dropped because the bounded buffer overflowed (oldest
    /// first — safe because recovery recomputes, but it must be
    /// *counted*, never silent).
    pub dropped_overflow: u64,
    /// Buffered records made redundant by a completed resync (the
    /// fresh full checkpoint covers them).
    pub covered_by_resync: u64,
    /// Mode when the run ended.
    pub final_mode: StorageMode,
}

impl StorageStats {
    /// Exact replay-buffer accounting: every record that ever entered
    /// the buffer is still buffered, was dropped on overflow, or was
    /// covered by a completed resync. A run that cannot prove this has
    /// lost track of data — the harness gates on it.
    pub fn accounting_balanced(&self) -> bool {
        self.buffered_total == self.buffered_final + self.dropped_overflow + self.covered_by_resync
    }
}

/// Replication-protocol counters of one replicated run: what the link
/// did to the frame stream, what the follower's fencing rejected, and
/// where the epoch/watermark ended up. Filled by the replicated serving
/// loop in the `lacb` crate and surfaced through
/// [`RunMetrics::replication`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ReplicationStats {
    /// Epoch serving when the run ended (0 = the original primary
    /// never failed over).
    pub epoch: u64,
    /// Follower promotions executed (0 or 1 in the two-node harness).
    pub promotions: u64,
    /// Frames the primary put on the wire (records + heartbeats).
    pub frames_shipped: u64,
    /// Record frames the follower verified and applied.
    pub frames_applied: u64,
    /// Frames the link silently dropped (including partition windows).
    pub frames_dropped: u64,
    /// Duplicate frames the follower discarded by sequence number.
    pub duplicates_dropped: u64,
    /// Out-of-order frames the follower buffered until the gap filled.
    pub reordered_buffered: u64,
    /// Frames rejected because their checksum did not verify (link
    /// corruption or a torn mid-frame kill).
    pub corrupt_rejected: u64,
    /// Frames rejected by epoch fencing (a stale primary's writes).
    pub stale_epoch_rejected: u64,
    /// Heartbeat ticks the failure detector counted as missed.
    pub heartbeats_missed: u64,
    /// Highest contiguously-applied sequence the follower acked.
    pub acked_watermark: u64,
    /// WAL records the primary pruned on watermark advance.
    pub pruned_records: u64,
    /// Maximum replication lag observed (shipped seq − acked
    /// watermark).
    pub max_lag: u64,
}

/// Which runtime invariant an audit found violated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InvariantKind {
    /// The returned assignment was not a valid matching (duplicate
    /// broker, out-of-range index, or over-capacity placement).
    Matching,
    /// Residual-capacity conservation broke: a broker's recorded load
    /// and capacity estimate disagree with what was actually served.
    Conservation,
    /// The KM dual certificate failed (dual infeasibility or
    /// complementary-slackness gap on the last solve).
    DualCertificate,
    /// `V(cr)` escaped the discounted max-utility horizon bound or
    /// went non-finite.
    ValueBound,
    /// Bandit state went non-finite or the covariance lost positive
    /// definiteness.
    BanditState,
}

impl InvariantKind {
    /// Stable label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            InvariantKind::Matching => "matching",
            InvariantKind::Conservation => "conservation",
            InvariantKind::DualCertificate => "dual-certificate",
            InvariantKind::ValueBound => "value-bound",
            InvariantKind::BanditState => "bandit-state",
        }
    }
}

/// One audit failure: which invariant, where, and its blast radius.
#[derive(Clone, Debug, PartialEq)]
pub struct AuditViolation {
    /// The invariant that failed.
    pub invariant: InvariantKind,
    /// Day the violation was detected.
    pub day: usize,
    /// Batch within the day (day-boundary deep audits report the last
    /// batch index).
    pub batch: usize,
    /// `Some(b)` when the damage is scoped to one broker's learned
    /// state, `None` when it taints shared state.
    pub broker: Option<usize>,
    /// Human-readable diagnosis (bounded; no payload data).
    pub detail: String,
}

/// How a detected violation was repaired.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RepairKind {
    /// The broker's learned state was selectively restored from the
    /// newest good checkpoint generation.
    CheckpointRestore {
        /// Generation (day) the section was restored from.
        generation: usize,
    },
    /// No good checkpoint section was available; the broker's state
    /// was re-initialized to priors.
    Reinitialize,
    /// Shared matcher duals were discarded (derived state; next solve
    /// runs cold).
    SolverReset,
    /// The bandit covariance was reset to its `λI` prior.
    CovarianceReset,
    /// The shared value table was restored from checkpoint or zeroed.
    ValueReset,
    /// The violation escalated to the resilient degradation ladder
    /// (one-shot greedy demotion of the next batch).
    LadderEscalation,
}

impl RepairKind {
    /// Stable label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            RepairKind::CheckpointRestore { .. } => "checkpoint-restore",
            RepairKind::Reinitialize => "reinitialize",
            RepairKind::SolverReset => "solver-reset",
            RepairKind::CovarianceReset => "covariance-reset",
            RepairKind::ValueReset => "value-reset",
            RepairKind::LadderEscalation => "ladder-escalation",
        }
    }
}

/// One repair action taken in response to a violation.
#[derive(Clone, Debug, PartialEq)]
pub struct RepairAction {
    /// Day the repair ran.
    pub day: usize,
    /// Batch within the day.
    pub batch: usize,
    /// Broker repaired (`None` for shared-state repairs).
    pub broker: Option<usize>,
    /// What was done.
    pub kind: RepairKind,
}

/// Invariant-audit accounting for one run: every violation detected,
/// every repair taken, and the cheap-check volume (so a "zero
/// violations" report distinguishes "audited and clean" from "never
/// audited").
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AuditReport {
    /// Per-batch cheap certificate checks executed.
    pub checks: u64,
    /// Periodic deep audits executed (day boundaries).
    pub deep_audits: u64,
    /// Every violation detected, in detection order.
    pub violations: Vec<AuditViolation>,
    /// Every repair taken, in order.
    pub repairs: Vec<RepairAction>,
    /// Brokers currently quarantined (repair pending) when the run
    /// ended — the soak gate requires this to be empty.
    pub quarantined_at_end: Vec<usize>,
}

impl AuditReport {
    /// Violations that damaged exactly one broker's state.
    pub fn broker_scoped_violations(&self) -> usize {
        self.violations.iter().filter(|v| v.broker.is_some()).count()
    }

    /// True when every detected violation has a recorded repair and no
    /// broker is still quarantined — the "zero violations escaping
    /// repair" soak gate.
    pub fn fully_repaired(&self) -> bool {
        self.quarantined_at_end.is_empty() && self.repairs.len() >= self.violations.len()
    }

    /// Merge another report (e.g. a post-recovery continuation) into
    /// this one.
    pub fn absorb(&mut self, other: AuditReport) {
        self.checks += other.checks;
        self.deep_audits += other.deep_audits;
        self.violations.extend(other.violations);
        self.repairs.extend(other.repairs);
        self.quarantined_at_end = other.quarantined_at_end;
    }
}

/// Counters of every degradation event a fault-tolerant run absorbed.
/// Zero everywhere means the primary policy served the whole horizon
/// unassisted.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ResilienceStats {
    /// Batches where the primary assigner panicked.
    pub primary_panics: u64,
    /// Batches where the primary returned an invalid assignment
    /// (length/range/matching violation or an offline broker).
    pub invalid_primary_outputs: u64,
    /// Batches served by the greedy fallback rung.
    pub greedy_fallbacks: u64,
    /// Batches where the capacity-aware top-k patcher completed an
    /// assignment the higher rungs left partial.
    pub topk_patches: u64,
    /// Non-finite utility entries sanitised before matching.
    pub utilities_sanitized: u64,
    /// Feedback delivery attempts that failed and were retried.
    pub feedback_retries: u64,
    /// Days whose feedback never arrived (delivered as an empty day).
    pub feedback_lost_days: u64,
    /// Days whose feedback arrived one day late.
    pub feedback_delayed_days: u64,
    /// Requests whose executed broker was offline (service failed).
    pub requests_failed: u64,
}

impl ResilienceStats {
    /// Total degradation events of any kind (the headline counter the
    /// chaos report surfaces).
    pub fn degradation_events(&self) -> u64 {
        self.primary_panics
            + self.invalid_primary_outputs
            + self.greedy_fallbacks
            + self.topk_patches
            + self.utilities_sanitized
            + self.feedback_retries
            + self.feedback_lost_days
            + self.feedback_delayed_days
            + self.requests_failed
    }
}

/// Which serving component a circuit breaker protects.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BreakerComponent {
    /// The balanced-KM solve path.
    Solver,
    /// The bandit score/update path.
    Bandit,
    /// The WAL append path.
    Wal,
}

impl BreakerComponent {
    /// Stable label for reports and checkpoints.
    pub fn label(&self) -> &'static str {
        match self {
            BreakerComponent::Solver => "solver",
            BreakerComponent::Bandit => "bandit",
            BreakerComponent::Wal => "wal",
        }
    }
}

/// One circuit-breaker state change, tagged with its component.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BreakerEvent {
    /// Component whose breaker changed state.
    pub component: BreakerComponent,
    /// The transition itself (tick, from, to).
    pub transition: admission::BreakerTransition,
}

/// Counters of every admission/shedding/brownout decision an
/// overload-protected run made. The invariant the `caam overload`
/// gate checks is [`OverloadStats::accounting_balanced`]: every
/// offered request is admitted, shed (with a reason), or still
/// queued — none vanish.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct OverloadStats {
    /// Requests offered to the admission layer.
    pub offered: u64,
    /// Requests drained from the queue into the matcher.
    pub admitted: u64,
    /// Admitted requests that completed service (realized feedback).
    pub served: u64,
    /// Requests shed because the queue was full at offer time.
    pub shed_queue_full: u64,
    /// Requests shed because their deadline expired while queued.
    pub shed_deadline: u64,
    /// Requests shed by the watermark (lowest refined utility first).
    pub shed_watermark: u64,
    /// Requests still queued when the run ended.
    pub leftover_queued: u64,
    /// Traffic spikes flagged by the EWMA detector.
    pub spikes_detected: u64,
    /// Circuit-breaker trips across all components.
    pub breaker_trips: u64,
    /// Brownout ladder escalations.
    pub brownout_escalations: u64,
    /// Batches matched under `ReducedCbs` brownout.
    pub reduced_cbs_batches: u64,
    /// Batches matched under `GreedyOnly` brownout.
    pub greedy_batches: u64,
    /// Every breaker state change, in tick order.
    pub breaker_events: Vec<BreakerEvent>,
    /// Requests served per day — the goodput curve the degradation
    /// gate checks against the pre-spike level.
    pub daily_served: Vec<u64>,
}

impl OverloadStats {
    /// Requests shed for any reason.
    pub fn shed_total(&self) -> u64 {
        self.shed_queue_full + self.shed_deadline + self.shed_watermark
    }

    /// True when every offered request is accounted for: admitted,
    /// shed with a recorded reason, or still queued.
    pub fn accounting_balanced(&self) -> bool {
        self.offered == self.admitted + self.shed_total() + self.leftover_queued
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(pairs: &[(usize, usize)], realized: f64, predicted: f64) -> BatchOutcome {
        let n = pairs.len().max(1) as f64;
        BatchOutcome {
            realized,
            predicted,
            assignments: pairs.to_vec(),
            pair_realized: pairs.iter().map(|_| realized / n).collect(),
            pair_predicted: pairs.iter().map(|_| predicted / n).collect(),
            failed: Vec::new(),
        }
    }

    #[test]
    fn ledger_accumulates_and_rolls_days() {
        let mut l = BrokerLedger::new(3);
        l.record_batch(&outcome(&[(0, 1), (1, 1), (2, 2)], 0.9, 1.2));
        l.end_day(0.9);
        l.record_batch(&outcome(&[(0, 1)], 0.2, 0.3));
        l.end_day(0.2);
        assert!((l.total_realized() - 1.1).abs() < 1e-12);
        assert_eq!(l.per_broker_served(), &[0.0, 3.0, 1.0]);
        assert_eq!(l.per_broker_peak_workload(), &[0.0, 2.0, 1.0]);
        assert_eq!(l.daily_realized(), &[0.9, 0.2]);
    }

    #[test]
    fn record_pair_is_exact() {
        let mut l = BrokerLedger::new(2);
        l.record_pair(0, 0.5, 0.6);
        l.record_pair(0, 0.1, 0.2);
        l.end_day(0.6);
        assert!((l.per_broker_utility()[0] - 0.6).abs() < 1e-12);
        assert_eq!(l.per_broker_served()[0], 2.0);
    }

    #[test]
    fn distributions_sorted_descending() {
        let mut l = BrokerLedger::new(3);
        l.record_pair(2, 0.9, 0.9);
        l.record_pair(0, 0.4, 0.4);
        l.end_day(1.3);
        let d = l.utility_distribution();
        assert!(d.windows(2).all(|w| w[0] >= w[1]));
        assert_eq!(d[0], 0.9);
    }

    #[test]
    fn improved_fraction() {
        let mut a = BrokerLedger::new(4);
        let mut b = BrokerLedger::new(4);
        a.record_pair(0, 1.0, 1.0);
        a.record_pair(1, 1.0, 1.0);
        b.record_pair(0, 0.5, 0.5);
        b.record_pair(2, 0.5, 0.5);
        // Active brokers: 0 (a>b), 1 (a>b), 2 (a<b). Broker 3 inactive.
        assert!((a.improved_fraction_over(&b) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn gini_extremes() {
        assert!(gini(&[1.0, 1.0, 1.0, 1.0]).abs() < 1e-12);
        let concentrated = gini(&[0.0, 0.0, 0.0, 10.0]);
        assert!(concentrated > 0.7, "gini = {concentrated}");
        assert_eq!(gini(&[]), 0.0);
        assert_eq!(gini(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn jain_extremes() {
        assert!((jain_index(&[2.0, 2.0, 2.0, 2.0]) - 1.0).abs() < 1e-12);
        assert!((jain_index(&[0.0, 0.0, 0.0, 8.0]) - 0.25).abs() < 1e-12);
        assert_eq!(jain_index(&[]), 1.0);
        assert_eq!(jain_index(&[0.0, 0.0]), 1.0);
    }

    #[test]
    fn jain_and_gini_move_oppositely() {
        let even = [1.0, 1.0, 1.0, 1.0];
        let skew = [0.1, 0.1, 0.1, 3.7];
        assert!(jain_index(&even) > jain_index(&skew));
        assert!(gini(&even) < gini(&skew));
    }

    #[test]
    fn gini_monotone_in_concentration() {
        let even = gini(&[2.0, 2.0, 2.0, 2.0]);
        let skew = gini(&[1.0, 1.0, 1.0, 5.0]);
        let very = gini(&[0.1, 0.1, 0.1, 7.7]);
        assert!(even < skew && skew < very);
    }

    #[test]
    fn audit_report_repair_accounting() {
        let mut r = AuditReport::default();
        assert!(r.fully_repaired(), "empty report is trivially repaired");
        r.checks = 10;
        r.violations.push(AuditViolation {
            invariant: InvariantKind::BanditState,
            day: 1,
            batch: 3,
            broker: Some(4),
            detail: "nan in arm stats".to_string(),
        });
        assert!(!r.fully_repaired(), "unrepaired violation must gate");
        r.repairs.push(RepairAction {
            day: 1,
            batch: 3,
            broker: Some(4),
            kind: RepairKind::CheckpointRestore { generation: 1 },
        });
        assert!(r.fully_repaired());
        assert_eq!(r.broker_scoped_violations(), 1);
        r.quarantined_at_end.push(4);
        assert!(!r.fully_repaired(), "lingering quarantine must gate");
        let mut a = AuditReport { checks: 5, deep_audits: 1, ..Default::default() };
        a.absorb(r.clone());
        assert_eq!(a.checks, 15);
        assert_eq!(a.violations.len(), 1);
        assert_eq!(a.quarantined_at_end, vec![4]);
        assert_eq!(InvariantKind::DualCertificate.label(), "dual-certificate");
        assert_eq!(RepairKind::SolverReset.label(), "solver-reset");
    }

    #[test]
    fn mean_daily_workload_divides_by_days() {
        let mut l = BrokerLedger::new(1);
        l.record_pair(0, 0.1, 0.1);
        l.end_day(0.1);
        l.record_pair(0, 0.1, 0.1);
        l.record_pair(0, 0.1, 0.1);
        l.end_day(0.2);
        assert!((l.per_broker_mean_daily_workload()[0] - 1.5).abs() < 1e-12);
    }

    fn edit_ledger(m: &mut RunMetrics, edit: impl FnOnce(&mut LedgerSnapshot)) {
        let mut s = m.ledger.snapshot();
        edit(&mut s);
        m.ledger = BrokerLedger::from_snapshot(s).unwrap();
    }

    fn next_up(x: f64) -> f64 {
        f64::from_bits(x.to_bits() + 1)
    }

    #[test]
    fn first_divergence_names_each_compared_field_and_ignores_telemetry() {
        let base = RunMetrics {
            algorithm: "lacb".into(),
            total_utility: 0.75,
            elapsed_secs: 0.1,
            daily_utility: vec![0.75, 0.0],
            daily_elapsed: vec![0.05, 0.1],
            ledger: BrokerLedger::from_snapshot(LedgerSnapshot {
                realized_utility: vec![0.5, 0.25],
                predicted_utility: vec![0.75, 0.5],
                requests_served: vec![3.0, 1.0],
                daily_realized: vec![0.5, 0.25],
                daily_served: vec![3.0, 1.0],
                peak_daily_workload: vec![2.0, 1.0],
                workload_today: vec![0.0, 1.0],
            })
            .unwrap(),
            resilience: Some(ResilienceStats::default()),
            overload: Some(OverloadStats::default()),
            timings: StageTimings::default(),
            audit: None,
            replication: None,
            storage: None,
        };
        assert_eq!(base.first_divergence(&base.clone()), None);
        type Edit = fn(&mut RunMetrics);
        let compared: [(&str, Edit); 11] = [
            ("total_utility", |m| m.total_utility = next_up(m.total_utility)),
            ("daily_utility", |m| m.daily_utility[1] = -0.0),
            ("ledger.realized_utility", |m| edit_ledger(m, |s| s.realized_utility[0] = 0.0)),
            ("ledger.predicted_utility", |m| {
                edit_ledger(m, |s| s.predicted_utility[1] = next_up(s.predicted_utility[1]))
            }),
            ("ledger.requests_served", |m| edit_ledger(m, |s| s.requests_served[1] = 2.0)),
            ("ledger.daily_realized", |m| edit_ledger(m, |s| s.daily_realized[0] = 0.0)),
            ("ledger.daily_served", |m| edit_ledger(m, |s| s.daily_served[1] = 0.0)),
            ("ledger.peak_daily_workload", |m| edit_ledger(m, |s| s.peak_daily_workload[0] = 3.0)),
            ("ledger.workload_today", |m| edit_ledger(m, |s| s.workload_today[0] = -0.0)),
            ("resilience", |m| m.resilience.as_mut().unwrap().primary_panics = 1),
            ("overload", |m| m.overload.as_mut().unwrap().offered = 1),
        ];
        for (field, edit) in compared {
            let mut m = base.clone();
            edit(&mut m);
            let diff = base.first_divergence(&m).unwrap_or_else(|| panic!("{field} not compared"));
            assert!(diff.starts_with(field), "{field} change reported as {diff:?}");
        }
        let ignored: [(&str, Edit); 7] = [
            ("algorithm", |m| m.algorithm = "other".into()),
            ("elapsed_secs", |m| m.elapsed_secs = 9.0),
            ("daily_elapsed", |m| m.daily_elapsed[0] = 9.0),
            ("timings", |m| m.timings.assign_batch_secs.push(0.5)),
            ("audit", |m| m.audit = Some(AuditReport { checks: 1, ..Default::default() })),
            ("replication", |m| {
                m.replication = Some(ReplicationStats { epoch: 1, ..Default::default() })
            }),
            ("storage", |m| m.storage = Some(StorageStats { faults: 1, ..Default::default() })),
        ];
        for (field, edit) in ignored {
            let mut m = base.clone();
            edit(&mut m);
            assert_eq!(base.first_divergence(&m), None, "{field} is telemetry, not serving");
        }
    }
}
