//! One call of a public serving entry point, timed and unpacked.
//!
//! Each [`Rung`] is one stack the benchmark can run: the workload's own
//! stack is one of them, and the layer ladder runs them all.

use crate::probe::{IoLog, ProbeVfs};
use crate::workloads::Inputs;
use lacb::{
    run, run_chaos, run_durable, run_overload, run_overload_durable, run_replicated, DurableConfig,
    Lacb, ReplicationConfig, ResilienceConfig, ResilientAssigner, RunConfig, StorageConfig,
};
use platform_sim::{Dataset, FaultConfig, FaultPlan, NetFaultConfig, NetFaultPlan, RunMetrics};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// A serving stack, from the bare core to the replicated pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rung {
    /// `lacb::run` with the runtime audits off.
    RunAuditOff,
    /// `lacb::run` (audits on).
    Run,
    /// `lacb::run_chaos`: the resilient wrapper, no faults injected.
    Chaos,
    /// `lacb::run_overload`: admission control in front of the matcher.
    Overload,
    /// `lacb::run_overload_durable` without the storage guard.
    OverloadDurable,
    /// `lacb::run_overload_durable` with the storage guard.
    Guarded,
    /// `lacb::run_durable`: WAL and checkpoints, no admission.
    Durable,
    /// `lacb::run_replicated` over a quiet link.
    Replicated,
}

impl Rung {
    /// Every rung, in ladder order.
    pub const ALL: [Rung; 8] = [
        Rung::RunAuditOff,
        Rung::Run,
        Rung::Chaos,
        Rung::Overload,
        Rung::OverloadDurable,
        Rung::Guarded,
        Rung::Durable,
        Rung::Replicated,
    ];

    pub fn label(self) -> &'static str {
        match self {
            Rung::RunAuditOff => "run (audit off)",
            Rung::Run => "run",
            Rung::Chaos => "+resilience (run_chaos)",
            Rung::Overload => "+admission (run_overload)",
            Rung::OverloadDurable => "+durability (run_overload_durable)",
            Rung::Guarded => "+storage_guard",
            Rung::Durable => "run_durable",
            Rung::Replicated => "+replication (run_replicated)",
        }
    }

    /// The rung whose results this one must reproduce bit for bit.
    pub fn reference(self) -> Option<Rung> {
        match self {
            Rung::OverloadDurable | Rung::Guarded => Some(Rung::Overload),
            Rung::Durable | Rung::Replicated => Some(Rung::Chaos),
            _ => None,
        }
    }

    /// Whether this stack contains `layer`.
    pub fn has(self, layer: Layer) -> bool {
        use Layer::*;
        let layers: &[Layer] = match self {
            Rung::RunAuditOff => &[],
            Rung::Run => &[Audit],
            Rung::Chaos => &[Audit, Resilience],
            Rung::Overload => &[Audit, Resilience, Admission],
            Rung::OverloadDurable => &[Audit, Resilience, Admission, Durability],
            Rung::Guarded => &[Audit, Resilience, Admission, Durability, StorageGuard],
            Rung::Durable => &[Audit, Resilience, Durability],
            Rung::Replicated => &[Audit, Resilience, Durability, Replica],
        };
        layers.contains(&layer)
    }
}

/// A serving layer the ladder prices.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    Audit,
    Resilience,
    Admission,
    Durability,
    StorageGuard,
    Replica,
}

impl Layer {
    /// `(rung that adds the layer, rung below it)`.
    pub fn rungs(self) -> (Rung, Rung) {
        match self {
            Layer::Audit => (Rung::Run, Rung::RunAuditOff),
            Layer::Resilience => (Rung::Chaos, Rung::Run),
            Layer::Admission => (Rung::Overload, Rung::Chaos),
            Layer::Durability => (Rung::OverloadDurable, Rung::Overload),
            Layer::StorageGuard => (Rung::Guarded, Rung::OverloadDurable),
            Layer::Replica => (Rung::Replicated, Rung::Durable),
        }
    }
}

/// The outcome of one timed entry-point call.
pub struct Served {
    pub rung: Rung,
    /// Wall seconds of the entry-point call alone.
    pub wall_secs: f64,
    /// Requests offered to the stack.
    pub offered: u64,
    pub metrics: RunMetrics,
    /// Digest of the matcher's final learned state.
    pub state_digest: u64,
    /// What the durability layer wrote (empty for diskless rungs).
    pub io: IoLog,
    /// Replication only: whether the follower was promoted, and whether
    /// it converged on the primary's state.
    pub replica: Option<(bool, Option<bool>)>,
}

impl Served {
    /// Requests that reached a broker.
    pub fn served(&self) -> u64 {
        self.metrics.ledger.per_broker_served().iter().sum::<f64>() as u64
    }

    /// Requests the admission layer shed on purpose.
    pub fn shed(&self) -> u64 {
        self.metrics.overload.as_ref().map_or(0, |o| o.shed_total())
    }

    /// What a run of identical work must reproduce bit for bit.
    pub fn fingerprint(&self) -> Fingerprint {
        Fingerprint {
            utility: self.metrics.total_utility,
            daily_bits: self.metrics.daily_utility.iter().map(|u| u.to_bits()).collect(),
            state_digest: self.state_digest,
        }
    }

    /// Per-batch latency samples, in seconds: the timed `assign_batch`
    /// calls (`run`, `run_chaos`; for `run_overload` admission plus
    /// assignment plus execution), or the batch-commit intervals of the
    /// stacks that write a WAL and return no per-batch timings.
    pub fn batch_latencies(&self) -> &[f64] {
        if self.rung.has(Layer::Durability) {
            &self.io.commit_intervals
        } else {
            &self.metrics.timings.assign_batch_secs
        }
    }
}

fn quiet_plan() -> FaultPlan {
    FaultPlan::new(FaultConfig::default())
}

/// Run `rung` once over `dataset` with the workload's configuration.
/// Disk rungs start from an empty `state_dir`.
pub fn serve(
    rung: Rung,
    inputs: &Inputs,
    dataset: &Dataset,
    state_dir: &Path,
) -> Result<Served, String> {
    let cfg = match rung {
        Rung::RunAuditOff => {
            let mut cfg = inputs.lacb.clone();
            cfg.audit.enabled = false;
            cfg
        }
        _ => inputs.lacb.clone(),
    };
    let rcfg = ResilienceConfig::default();
    if rung.has(Layer::Durability) {
        reset_dir(state_dir)?;
    }
    let probe = Arc::new(ProbeVfs::default());
    let durable = DurableConfig::at(state_dir).with_vfs(probe.clone());

    // Only the entry-point call is timed; reading the learned state of
    // the bare matcher afterwards is not.
    let (metrics, final_state, replica, wall_secs) = match rung {
        Rung::RunAuditOff | Rung::Run => {
            let mut lacb = Lacb::new(cfg);
            let (m, wall) = timed(|| run(dataset, &mut lacb, &RunConfig::default()));
            (m, state_of(&lacb), None, wall)
        }
        Rung::Chaos => {
            let mut assigner = ResilientAssigner::new(Lacb::new(cfg), rcfg);
            let (m, wall) =
                timed(|| run_chaos(dataset, &mut assigner, &RunConfig::default(), quiet_plan()));
            (m, state_of(assigner.primary()), None, wall)
        }
        Rung::Overload => {
            let (out, wall) =
                timed(|| run_overload(dataset, cfg, rcfg, &inputs.overload, quiet_plan()));
            (out.metrics, out.final_state, None, wall)
        }
        Rung::OverloadDurable | Rung::Guarded => {
            let dcfg = if rung == Rung::Guarded {
                durable.with_storage(StorageConfig::default())
            } else {
                durable
            };
            let (out, wall) = timed(|| {
                run_overload_durable(dataset, cfg, rcfg, &inputs.overload, quiet_plan(), &dcfg)
            });
            let out = out.map_err(|e| format!("{}: {e}", rung.label()))?;
            (out.metrics, out.final_state, None, wall)
        }
        Rung::Durable => {
            let (out, wall) = timed(|| run_durable(dataset, cfg, rcfg, quiet_plan(), &durable));
            let out = out.map_err(|e| format!("{}: {e}", rung.label()))?;
            (out.metrics, out.final_state, None, wall)
        }
        Rung::Replicated => {
            let repl = ReplicationConfig::at(state_dir).with_vfs(probe.clone());
            let net = NetFaultPlan::new(NetFaultConfig::default());
            let (out, wall) =
                timed(|| run_replicated(dataset, cfg, rcfg, quiet_plan(), net, &repl));
            let out = out.map_err(|e| format!("{}: {e}", rung.label()))?;
            let replica = Some((out.promoted, out.follower_converged));
            (out.metrics, out.final_state, replica, wall)
        }
    };
    let offered = match &metrics.overload {
        Some(ov) => ov.offered,
        None => dataset.total_requests() as u64,
    };
    let state_digest = digest(&final_state);
    Ok(Served { rung, wall_secs, offered, metrics, state_digest, io: probe.take(), replica })
}

/// Total and daily utility and the learned state of one serving call.
#[derive(Debug)]
pub struct Fingerprint {
    pub utility: f64,
    daily_bits: Vec<u64>,
    state_digest: u64,
}

impl PartialEq for Fingerprint {
    fn eq(&self, other: &Self) -> bool {
        self.utility.to_bits() == other.utility.to_bits()
            && self.daily_bits == other.daily_bits
            && self.state_digest == other.state_digest
    }
}

/// Run `f`, returning its result and wall seconds.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// The matcher's learned state, as `Lacb::write_state` prints it.
pub fn state_of(lacb: &Lacb) -> String {
    let mut out = String::new();
    lacb.write_state(&mut out);
    out
}

/// A 64-bit digest of `text`, comparable within one process.
pub fn digest(text: &str) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    text.hash(&mut h);
    h.finish()
}

/// Empty `dir`, creating it if needed.
pub fn reset_dir(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("clearing {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))
}
