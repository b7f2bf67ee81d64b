//! What the five fault harnesses (`crash-test`, `failover`, `overload`,
//! `soak`, `storage-chaos`) share. A harness is a world, a reference
//! run, a case table and gates (DESIGN.md "Fault harnesses"). Each
//! subcommand keeps its flags, its table and its own gates; the rest
//! lives here: the shared flags (world, fault plan, stages, table
//! size), panic capture, the per-case work dir, the run-vs-run check,
//! one durable case runner, the gate printout with its exit mapping,
//! and the JSON report.

use crate::args::Args;
use crate::commands::CliError;
use lacb::supervisor::{DurableConfig, DurableOutcome, RecoveryError};
use lacb::{LacbConfig, RunMetrics, StorageConfig};
use platform_sim::{
    CrashPoint, Dataset, FaultConfig, FaultPlan, FaultVfs, StorageFaultConfig, StorageStats,
    SyntheticConfig,
};
use std::any::Any;
use std::fmt::Display;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::sync::Arc;

/// A durable serving stack under test: one run, or the recovery of one,
/// in the dir and with the crash point and disk that `DurableConfig`
/// names.
pub(crate) type DurableStack<'a> =
    dyn Fn(&DurableConfig) -> Result<DurableOutcome, RecoveryError> + 'a;

/// The world a harness serves, from the flags every harness shares
/// (`--brokers`, `--requests`, `--days`, `--sigma`, `--seed`) with its
/// own size defaults: the synthetic config, its dataset, and LACB-Opt
/// seeded from `--seed`.
pub(crate) fn world(
    args: &Args,
    brokers: usize,
    requests: usize,
    days: usize,
) -> Result<(SyntheticConfig, Dataset, LacbConfig), String> {
    let scfg = SyntheticConfig {
        num_brokers: args.get_or("brokers", brokers)?,
        num_requests: args.get_or("requests", requests)?,
        days: args.get_or("days", days)?,
        imbalance: args.get_or("sigma", 0.25)?,
        seed: args.get_or("seed", 7)?,
    };
    let cfg = LacbConfig { seed: scfg.seed, ..LacbConfig::opt() };
    Ok((scfg.clone(), Dataset::synthetic(&scfg), cfg))
}

/// `--scenario` (or `default`) and `--fault-seed`, with the fault plan
/// they name.
pub(crate) fn fault_plan<'a>(
    args: &'a Args,
    default: &'a str,
) -> Result<(&'a str, u64, FaultPlan), String> {
    let scenario = args.get("scenario").unwrap_or(default);
    let fault_seed: u64 = args.get_or("fault-seed", 13)?;
    let cfg =
        FaultConfig::scenario(scenario, fault_seed).map_err(|e| format!("--scenario: {e}"))?;
    Ok((scenario, fault_seed, FaultPlan::new(cfg)))
}

/// A comma-separated `--key` list, or `default`.
pub(crate) fn list_flag<T: FromStr>(
    args: &Args,
    key: &str,
    default: &str,
) -> Result<Vec<T>, String> {
    let raw = args.get(key).unwrap_or(default);
    raw.split(',')
        .map(|s| s.trim().parse())
        .collect::<Result<_, _>>()
        .map_err(|_| format!("bad --{key} list {raw:?}"))
}

/// `--stages`, the traffic multipliers of a ramp: each stage needs at
/// least one of the world's `days`.
pub(crate) fn stages(args: &Args, default: &str, days: usize) -> Result<Vec<u32>, CliError> {
    let stages: Vec<u32> = list_flag(args, "stages", default)?;
    if days < stages.len() {
        return Err(CliError::Usage(format!(
            "--days {days} must cover --stages {stages:?} (one stage needs at least one day)"
        )));
    }
    Ok(stages)
}

/// The size of a case table (`--points`, `--crash-points`, `--seeds`).
/// An empty table proves nothing, so zero is a usage error.
pub(crate) fn table_size(args: &Args, key: &str, default: usize) -> Result<usize, CliError> {
    match args.get_or(key, default)? {
        0 => Err(CliError::Usage(format!("--{key} must be at least 1"))),
        n => Ok(n),
    }
}

/// Panic payloads the harnesses provoke on purpose: crash-point kills,
/// and solver panics on injected corruption (absorbed by the resilience
/// ladder).
fn absorbed_by_design(text: &str) -> bool {
    text.contains("injected crash") || text.contains("non-finite utility")
}

fn payload_text(payload: &(dyn Any + Send)) -> &str {
    payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&str>().copied())
        .unwrap_or("non-string panic payload")
}

/// Run `f` and catch a panic as its payload text. While `f` runs, the
/// panic hook stays silent for [`absorbed_by_design`] payloads, so a
/// harness prints verdicts instead of dozens of backtraces; any other
/// panic still prints. The hook `caught` replaced is restored after.
pub(crate) fn caught<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|info| {
        if !absorbed_by_design(payload_text(info.payload())) {
            eprintln!("{info}");
        }
    }));
    let outcome = catch_unwind(AssertUnwindSafe(f));
    std::panic::set_hook(prev);
    outcome.map_err(|payload| payload_text(&*payload).to_string())
}

/// Why a case failed: one of its checks, or a panic that escaped the
/// serving stack (the zero-escaped-panics gates count those).
pub(crate) enum Fail {
    Check(String),
    Panic(String),
}

impl From<String> for Fail {
    fn from(why: String) -> Self {
        Fail::Check(why)
    }
}

impl Display for Fail {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Fail::Check(why) => f.write_str(why),
            Fail::Panic(text) => write!(f, "escaped panic: {text}"),
        }
    }
}

impl From<Fail> for CliError {
    fn from(fail: Fail) -> Self {
        CliError::Gate(fail.to_string())
    }
}

/// One serving run under [`caught`]: a typed error fails as
/// `"{what} failed: …"`, a panic as [`Fail::Panic`].
pub(crate) fn serve<T, E: Display>(
    what: &str,
    run: impl FnOnce() -> Result<T, E>,
) -> Result<T, Fail> {
    match caught(run) {
        Ok(Ok(out)) => Ok(out),
        Ok(Err(e)) => Err(Fail::Check(format!("{what} failed: {e}"))),
        Err(text) => Err(Fail::Panic(text)),
    }
}

/// `got` reproduced `want`: the oracle
/// ([`RunMetrics::first_divergence`]) finds no divergence, and the
/// learned state (bandit capacities and `V(cr)`) is the same text.
pub(crate) fn same_outcome(
    want: &RunMetrics,
    want_state: &str,
    got: &RunMetrics,
    got_state: &str,
) -> Result<(), String> {
    if let Some(diff) = want.first_divergence(got) {
        return Err(format!("metrics diverged: {diff}"));
    }
    if want_state != got_state {
        return Err("learned state diverged".into());
    }
    Ok(())
}

/// [`same_outcome`] of two durable runs.
fn same_durable(want: &DurableOutcome, got: &DurableOutcome) -> Result<(), String> {
    same_outcome(&want.metrics, &want.final_state, &got.metrics, &got.final_state)
}

/// What one durable case did: the faults its disk injected, the faulty
/// run's storage accounting (`None` when its crash point fired), and
/// the run recovered from what it left.
pub(crate) struct DurableCase {
    pub(crate) injected: u64,
    pub(crate) stats: Option<StorageStats>,
    pub(crate) recovered: DurableOutcome,
}

/// One durable case: run `stack` in `dir` with `crash` armed and on a
/// disk failing per `disk`, then again on a clean disk over whatever
/// that left, which must reproduce `reference`.
///
/// Without a faulty disk the first run must die on its injected crash.
/// On a faulty disk it may also finish — a degraded run can legally
/// skip its crash window (no WAL handle, no torn append) — and must
/// then show exactly balanced replay-buffer accounting and serve
/// bit-identically to the clean-disk `reference`: storage trouble never
/// leaks into matching decisions.
pub(crate) fn durable_case(
    stack: &DurableStack,
    reference: &DurableOutcome,
    dir: &Path,
    disk: Option<StorageFaultConfig>,
    crash: Option<CrashPoint>,
) -> Result<DurableCase, Fail> {
    let vfs = disk.map(|cfg| Arc::new(FaultVfs::new(cfg)));
    let mut dcfg = DurableConfig::at(dir);
    if let Some(vfs) = &vfs {
        dcfg = dcfg.with_vfs(vfs.clone()).with_storage(StorageConfig::default());
    }
    dcfg.crash = crash;
    let stats = match caught(|| stack(&dcfg)) {
        Err(text) if text.contains("injected crash") => None,
        Err(text) => return Err(Fail::Panic(text)),
        Ok(_) if vfs.is_none() => return Err("run completed without crashing".to_string().into()),
        Ok(Err(e)) => {
            return Err(format!("aborted with a typed error despite the guard: {e}").into())
        }
        Ok(Ok(out)) => {
            let Some(stats) = out.metrics.storage.clone() else {
                return Err("run carried no storage stats despite the guard".to_string().into());
            };
            if !stats.accounting_balanced() {
                return Err(format!("replay-buffer accounting unbalanced: {stats:?}").into());
            }
            same_durable(reference, &out).map_err(|e| format!("under storage faults: {e}"))?;
            Some(stats)
        }
    };
    let recovered = serve("recovery", || stack(&DurableConfig::at(dir)))?;
    same_durable(reference, &recovered).map_err(|e| format!("recovery: {e}"))?;
    let injected = vfs.map_or(0, |v| v.census().total());
    Ok(DurableCase { injected, stats, recovered })
}

/// The failures of one case table, and which of them were escaped
/// panics.
#[derive(Default)]
pub(crate) struct Tally {
    pub(crate) failed: Vec<String>,
    pub(crate) escaped: Vec<String>,
}

impl Tally {
    /// The gate over a table of `cases` cases: it passes when none
    /// failed, with detail `ok`, and otherwise names the first failure.
    pub(crate) fn gate(&self, name: &'static str, cases: usize, what: &str, ok: String) -> Gate {
        let detail = match self.failed.first() {
            None => ok,
            Some(first) => format!("{}/{cases} {what} failed; first: {first}", self.failed.len()),
        };
        Gate { name, pass: self.failed.is_empty(), detail }
    }
}

/// The `zero-escaped-panics` gate: it passes when no panic escaped,
/// with detail `ok`, and otherwise names the first.
pub(crate) fn escaped_gate(escaped: &[String], ok: String) -> Gate {
    let detail = match escaped.first() {
        None => ok,
        Some(first) => format!("{} escaped; first: {first}", escaped.len()),
    };
    Gate { name: "zero-escaped-panics", pass: escaped.is_empty(), detail }
}

/// The harness's work dir: `--dir DIR`, or `default` under the temp
/// dir. Each case runs in a fresh subdir. The subdir of a passed case
/// is removed unless `--keep-artifacts`; a failed case keeps it.
pub(crate) struct WorkDir {
    pub(crate) root: PathBuf,
    keep: bool,
}

impl WorkDir {
    pub(crate) fn new(args: &Args, default: &str) -> WorkDir {
        let root = match args.get("dir") {
            Some(d) => PathBuf::from(d),
            None => std::env::temp_dir().join(default),
        };
        WorkDir { root, keep: args.has("keep-artifacts") }
    }

    /// An emptied subdir.
    pub(crate) fn fresh(&self, name: &str) -> PathBuf {
        let dir = self.root.join(name);
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    /// Remove a passed case's dir unless artifacts are kept.
    pub(crate) fn discard(&self, dir: &Path) {
        if !self.keep {
            std::fs::remove_dir_all(dir).ok();
        }
    }

    /// Print a case's line, `{label} OK  {detail}` or
    /// `{label} FAIL {why}`, settle its dir, and tally a failure.
    pub(crate) fn settle(
        &self,
        label: &str,
        dir: &Path,
        verdict: Result<String, Fail>,
        tally: &mut Tally,
    ) {
        match verdict {
            Ok(detail) => {
                println!("{label} OK  {detail}");
                self.discard(dir);
            }
            Err(fail) => {
                println!("{label} FAIL {fail}");
                println!("  artifacts kept at {}", dir.display());
                let case = label.trim_end();
                if let Fail::Panic(text) = &fail {
                    tally.escaped.push(format!("{case}: {text}"));
                }
                tally.failed.push(format!("{case}: {fail}"));
            }
        }
    }

    /// Remove the `reference` subdir and the root, if that leaves it
    /// empty, unless artifacts are kept.
    pub(crate) fn finish(&self) {
        if !self.keep {
            std::fs::remove_dir_all(self.root.join("reference")).ok();
            std::fs::remove_dir(&self.root).ok();
        }
    }
}

/// One gate check: name, verdict, human detail.
pub(crate) struct Gate {
    pub(crate) name: &'static str,
    pub(crate) pass: bool,
    pub(crate) detail: String,
}

fn pass_fail(pass: bool) -> &'static str {
    if pass {
        "PASS"
    } else {
        "FAIL"
    }
}

/// One report field: a key and its rendered JSON value.
pub(crate) type Field<'a> = (&'a str, &'a dyn Display);

/// A JSON string literal.
pub(crate) fn quote(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// A JSON object on one line.
pub(crate) fn obj(fields: &[Field]) -> String {
    list("{", fields.iter().map(|(k, v)| format!("\"{k}\": {v}")), "}")
}

/// `items` joined with `, ` between `open` and `close`.
pub(crate) fn list(open: &str, items: impl Iterator<Item = String>, close: &str) -> String {
    format!("{open}{}{close}", items.collect::<Vec<_>>().join(", "))
}

/// Write a harness's JSON report: one line per field, then the gates
/// and the verdict.
pub(crate) fn write_report(path: &Path, fields: &[Field], gates: &[Gate]) -> Result<(), String> {
    let mut out = String::from("{\n");
    for (key, value) in fields {
        out.push_str(&format!("  \"{key}\": {value},\n"));
    }
    out.push_str("  \"gates\": [\n");
    for (i, g) in gates.iter().enumerate() {
        let line =
            obj(&[("name", &quote(g.name)), ("pass", &g.pass), ("detail", &quote(&g.detail))]);
        out.push_str(&format!("    {line}{}\n", if i + 1 == gates.len() { "" } else { "," }));
    }
    let verdict = pass_fail(gates.iter().all(|g| g.pass));
    out.push_str(&format!("  ],\n  \"verdict\": \"{verdict}\"\n}}\n"));
    std::fs::write(path, out).map_err(|e| format!("writing {}: {e}", path.display()))
}

/// Close a gated harness: print one `gate` line per gate (names padded
/// to `width`) and the `{harness} summary: PASS|FAIL (k/n gates), {tail}`
/// line, write the `--out FILE` report, and map the verdict to the exit:
/// 0 when every gate passed, else a [`CliError::Gate`] (exit 2).
pub(crate) fn conclude(
    args: &Args,
    harness: &str,
    width: usize,
    gates: &[Gate],
    tail: &str,
    fields: &[Field],
) -> Result<(), CliError> {
    for g in gates {
        println!("gate {:<width$} {}  {}", g.name, pass_fail(g.pass), g.detail);
    }
    let passed = gates.iter().filter(|g| g.pass).count();
    let verdict = pass_fail(passed == gates.len());
    println!("{harness} summary: {verdict} ({passed}/{} gates), {tail}", gates.len());
    if let Some(path) = args.get("out") {
        write_report(Path::new(path), fields, gates)?;
        println!("report     : {path}");
    }
    match gates.len() - passed {
        0 => Ok(()),
        failed => Err(CliError::Gate(format!("{failed}/{} {harness} gates failed", gates.len()))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn caught_decodes_both_payload_kinds() {
        assert_eq!(caught(|| 7), Ok(7));
        assert_eq!(caught(|| panic!("static text")), Err::<(), _>("static text".to_string()));
        let n = 3;
        assert_eq!(
            caught(|| panic!("injected crash {n}")),
            Err::<(), _>("injected crash 3".into())
        );
    }

    #[test]
    fn report_escapes_details_and_derives_the_verdict() {
        let path = std::env::temp_dir().join("caam-harness-report-test.json");
        let gates = [
            Gate { name: "a", pass: true, detail: "plain".into() },
            Gate { name: "b", pass: false, detail: "say \"hi\" \\ bye".into() },
        ];
        let inner = obj(&[("x", &1), ("y", &quote("z"))]);
        write_report(&path, &[("k", &inner)], &gates).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            text,
            "{\n  \"k\": {\"x\": 1, \"y\": \"z\"},\n  \"gates\": [\n    \
             {\"name\": \"a\", \"pass\": true, \"detail\": \"plain\"},\n    \
             {\"name\": \"b\", \"pass\": false, \"detail\": \"say \\\"hi\\\" \\\\ bye\"}\n  \
             ],\n  \"verdict\": \"FAIL\"\n}\n"
        );
        std::fs::remove_file(&path).ok();
    }
}
