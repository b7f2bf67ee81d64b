//! `caam-bench`: the serving benchmark.
//!
//! One invocation runs one workload in its own process and prints every
//! metric by name with its unit; the last line of standard output is a
//! JSON object with `correct`, `attempted`, `failed` and `metrics`.
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
//! ones. Exit codes: 0 ok, 1 usage or run error, 2 a failed gate.
//! See README.md in this directory.

mod bench;
mod gates;
mod json;
mod ladder;
mod probe;
mod repeat;
mod report;
mod stacks;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage:
  caam-bench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--trace-out FILE]
             [--state-dir DIR] [--smoke]
  caam-bench --repeat-check [--workloads A,B,..] [--seeds N] [--seconds S] [--state-dir DIR]
             [--smoke]
workloads: city-b, city-b-durable, tiny-batch-durable, tiny-batch-replicated, overload-ramp";

/// Where runs keep their WAL and checkpoints, relative to the working
/// directory.
const DEFAULT_STATE_DIR: &str = ".caam-bench-state";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => code,
        Err(Failure::Usage(e)) => {
            eprintln!("error: {e}\n{USAGE}");
            ExitCode::from(1)
        }
        Err(Failure::Run(e)) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}

enum Failure {
    Usage(String),
    Run(String),
}

/// Parsed `--flag value` pairs plus bare switches.
struct Flags(Vec<(String, Option<String>)>);

impl Flags {
    const SWITCHES: [&'static str; 2] = ["--smoke", "--repeat-check"];

    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut out = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if !a.starts_with("--") {
                return Err(format!("unexpected argument {a:?}"));
            }
            if Self::SWITCHES.contains(&a.as_str()) {
                out.push((a.clone(), None));
            } else {
                let v = it.next().ok_or_else(|| format!("{a} needs a value"))?;
                out.push((a.clone(), Some(v.clone())));
            }
        }
        Ok(Flags(out))
    }

    fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|(f, _)| f == flag)
    }

    fn get(&self, flag: &str) -> Option<&str> {
        self.0.iter().rev().find(|(f, _)| f == flag).and_then(|(_, v)| v.as_deref())
    }

    fn parsed<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.get(flag) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("{flag}: cannot parse {v:?}")),
        }
    }

    fn check_known(&self, known: &[&str]) -> Result<(), String> {
        match self.0.iter().find(|(f, _)| !known.contains(&f.as_str())) {
            Some((f, _)) => Err(format!("unknown flag {f}")),
            None => Ok(()),
        }
    }
}

fn workload(name: &str, smoke: bool) -> Result<workloads::Workload, String> {
    let w = workloads::find(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    Ok(if smoke { w.smoke() } else { w })
}

fn dispatch(args: &[String]) -> Result<ExitCode, Failure> {
    let flags = Flags::parse(args).map_err(Failure::Usage)?;
    let smoke = flags.has("--smoke");
    let seconds: f64 = flags.parsed("--seconds", 18.0).map_err(Failure::Usage)?;
    if !(seconds >= 0.0 && seconds.is_finite()) {
        return Err(Failure::Usage(format!(
            "--seconds must be a non-negative number, got {seconds}"
        )));
    }
    let state_dir = PathBuf::from(flags.get("--state-dir").unwrap_or(DEFAULT_STATE_DIR));

    if flags.has("--repeat-check") {
        flags
            .check_known(&[
                "--repeat-check",
                "--workloads",
                "--seeds",
                "--seconds",
                "--state-dir",
                "--smoke",
            ])
            .map_err(Failure::Usage)?;
        let names = flags.get("--workloads").map_or_else(
            || workloads::ALL.iter().map(|w| w.name).collect(),
            |list| list.split(',').collect::<Vec<_>>(),
        );
        let workloads = names
            .iter()
            .map(|n| workload(n, false).map(|w| w.name))
            .collect::<Result<Vec<_>, _>>()
            .map_err(Failure::Usage)?;
        let count: u64 = flags.parsed("--seeds", 10).map_err(Failure::Usage)?;
        if count < 2 {
            return Err(Failure::Usage("--seeds must be at least 2".into()));
        }
        let opts = repeat::RepeatOptions {
            workloads,
            seeds: (1..=count).collect(),
            seconds,
            smoke,
            state_dir: &state_dir,
        };
        let within = repeat::run(&opts).map_err(Failure::Run)?;
        return Ok(if within { ExitCode::SUCCESS } else { ExitCode::from(2) });
    }

    flags
        .check_known(&[
            "--workload",
            "--seed",
            "--seconds",
            "--trace",
            "--trace-out",
            "--state-dir",
            "--smoke",
        ])
        .map_err(Failure::Usage)?;
    let name = flags.get("--workload").ok_or(Failure::Usage("--workload is required".into()))?;
    let trace = match flags.get("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(Failure::Usage(format!("--trace must be 0 or 1, got {other:?}"))),
    };
    let opts = bench::Options {
        workload: workload(name, smoke).map_err(Failure::Usage)?,
        seed: flags.parsed("--seed", 7).map_err(Failure::Usage)?,
        seconds,
        trace,
        trace_out: flags.get("--trace-out").map(PathBuf::from),
        state_dir,
        smoke,
    };
    let outcome = bench::run(&opts).map_err(Failure::Run)?;

    for m in &outcome.metrics {
        println!("{:38} {:>18.6} {}", m.name, m.value, m.unit);
    }
    let gates = &outcome.gates;
    for failure in gates.failures() {
        println!("gate failure: {failure}");
    }
    println!("gates: {} checked, {} failed", gates.checked(), gates.failures().len());
    println!(
        "{}",
        report::result_line(gates.passed(), outcome.attempted, outcome.failed, &outcome.metrics)
    );
    Ok(if gates.passed() { ExitCode::SUCCESS } else { ExitCode::from(2) })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every toy-size workload, traced and untraced, passes every gate
    /// and emits exactly the metrics `BENCHMARK.json` declares.
    #[test]
    fn smoke_runs_pass_every_gate() {
        let state_dir =
            std::env::temp_dir().join(format!("caam-bench-smoke-{}", std::process::id()));
        for w in workloads::ALL {
            for trace in [false, true] {
                let opts = bench::Options {
                    workload: w.smoke(),
                    seed: 7,
                    seconds: 0.0,
                    trace,
                    trace_out: None,
                    state_dir: state_dir.clone(),
                    smoke: true,
                };
                let out =
                    bench::run(&opts).unwrap_or_else(|e| panic!("{} trace={trace}: {e}", w.name));
                assert!(out.gates.passed(), "{} trace={trace}: {:?}", w.name, out.gates.failures());
                assert!(out.attempted > 0);
                assert_eq!(out.failed, 0, "{}", w.name);
                let declared = report::declared(trace).unwrap();
                report::conforms(&out.metrics, &declared, &["batch_p99_ms"]).unwrap();
                for m in &out.metrics {
                    assert!(report::valid_name(m.name), "{}", m.name);
                }
            }
        }
        assert!(!state_dir.exists(), "runs must remove their state directory");
    }

    #[test]
    fn flags_are_validated() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        assert!(matches!(dispatch(&args("--seed 3")), Err(Failure::Usage(_))));
        assert!(matches!(dispatch(&args("--workload nope")), Err(Failure::Usage(_))));
        assert!(matches!(dispatch(&args("--workload city-b --trace 2")), Err(Failure::Usage(_))));
        assert!(matches!(dispatch(&args("--workload city-b --bogus 1")), Err(Failure::Usage(_))));
        assert!(matches!(
            dispatch(&args("--workload city-b --seconds -1")),
            Err(Failure::Usage(_))
        ));
        assert!(matches!(dispatch(&args("--repeat-check --seeds 1")), Err(Failure::Usage(_))));
    }
}
