//! Correctness gates: every check the benchmark makes on the outputs of
//! the stacks it times. A failed gate is named and fails the run.

use crate::stacks::{Fingerprint, Served};

#[derive(Default)]
pub struct Gates {
    checked: usize,
    failures: Vec<String>,
}

impl Gates {
    /// Record one check; `detail` explains a failure.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl FnOnce() -> String) {
        self.checked += 1;
        if !ok {
            self.failures.push(format!("{name}: {}", detail()));
        }
    }

    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    pub fn checked(&self) -> usize {
        self.checked
    }

    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    /// `b` must reproduce `a` bit for bit: total and daily utility, and
    /// the matcher's final learned state.
    pub fn same_outcome(&mut self, name: &str, a: &Fingerprint, b: &Fingerprint) {
        self.check(name, a == b, || {
            format!(
                "utility {} vs {}, or the daily utility or learned state differs",
                a.utility, b.utility
            )
        });
    }

    /// The invariants every serving call must keep: balanced admission
    /// and storage accounting, no audit violation, no replica promotion
    /// and a converged follower.
    pub fn serving_invariants(&mut self, label: &str, s: &Served) {
        let m = &s.metrics;
        if let Some(ov) = &m.overload {
            self.check(&format!("{label} admission accounting"), ov.accounting_balanced(), || {
                format!("{ov:?}")
            });
        }
        if let Some(st) = &m.storage {
            self.check(&format!("{label} storage accounting"), st.accounting_balanced(), || {
                format!("{st:?}")
            });
        }
        if let Some(audit) = &m.audit {
            self.check(&format!("{label} audit violations"), audit.violations.is_empty(), || {
                format!(
                    "{} violations, first {:?}",
                    audit.violations.len(),
                    audit.violations.first()
                )
            });
        }
        if let Some((promoted, converged)) = s.replica {
            let promotions = m.replication.as_ref().map_or(0, |r| r.promotions);
            self.check(
                &format!("{label} replica converged"),
                !promoted && promotions == 0 && converged == Some(true),
                || format!("promoted {promoted}, promotions {promotions}, converged {converged:?}"),
            );
        }
    }
}
