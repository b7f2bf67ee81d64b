//! `--repeat-check`: run the chosen workloads as two independent sets of
//! processes, one per (workload, seed), and compare the sets' medians of
//! every end-to-end metric against the metric's bound.

use crate::json::{self, Json};
use crate::report::{self, Declared};
use crate::stats::{median, spread};
use std::path::Path;
use std::process::Command;
use std::time::Instant;

pub struct RepeatOptions<'a> {
    pub workloads: Vec<&'static str>,
    pub seeds: Vec<u64>,
    pub seconds: f64,
    pub smoke: bool,
    pub state_dir: &'a Path,
}

/// Metrics that are a pure function of the seed: beyond the medians,
/// each seed's two values must be identical.
const EXACT: [&str; 2] = ["utility", "served_share"];

/// `values[set][workload][metric]`, one entry per seed.
type Sets = Vec<Vec<Vec<Vec<f64>>>>;

/// Run both sets and print the comparison; `Ok(true)` when every pair
/// stays within its bound.
pub fn run(opts: &RepeatOptions) -> Result<bool, String> {
    let declared = report::declared(false)?;
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let mut sets: Sets = Vec::new();
    for set in 0..2 {
        let mut per_workload = Vec::new();
        for &workload in &opts.workloads {
            let mut values = vec![Vec::new(); declared.len()];
            for &seed in &opts.seeds {
                let t = Instant::now();
                let result = run_child(&exe, workload, seed, opts)?;
                let mut line = String::new();
                for (d, v) in declared.iter().zip(values.iter_mut()) {
                    if let Some(x) = metric(&result, &d.name) {
                        v.push(x);
                        line.push_str(&format!(" {}={x:.6}", d.name));
                    }
                }
                eprintln!(
                    "  set {} {workload} seed {seed} ({:.1} s):{line}",
                    set + 1,
                    t.elapsed().as_secs_f64()
                );
            }
            per_workload.push(values);
        }
        sets.push(per_workload);
    }
    Ok(print_comparison(opts, &declared, &sets))
}

fn run_child(exe: &Path, workload: &str, seed: u64, opts: &RepeatOptions) -> Result<Json, String> {
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string(), "--trace", "0"])
        .arg("--state-dir")
        .arg(opts.state_dir);
    if opts.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| format!("running {}: {e}", exe.display()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    if !out.status.success() {
        return Err(format!(
            "{workload} seed {seed} exited with {}: {last}\n{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let result = json::parse(last).map_err(|e| format!("{workload} seed {seed}: {e}: {last}"))?;
    if result.get("correct") != Some(&Json::Bool(true)) {
        return Err(format!("{workload} seed {seed} reported incorrect output: {last}"));
    }
    Ok(result)
}

fn metric(result: &Json, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
fn worsening(a: f64, b: f64, d: &Declared) -> f64 {
    let gap = (b - a) / a.abs();
    if d.higher_is_better {
        -gap
    } else {
        gap
    }
}

fn print_comparison(opts: &RepeatOptions, declared: &[Declared], sets: &Sets) -> bool {
    println!(
        "repeat check: 2 sets x {} seeds ({:?}), --seconds {}",
        opts.seeds.len(),
        opts.seeds,
        opts.seconds
    );
    println!(
        "{:22} {:15} {:>14} {:>14} {:>8} {:>6} {:>8} {:>8}  verdict",
        "workload", "metric", "median 1", "median 2", "gap", "bound", "spread 1", "spread 2"
    );
    let mut all_within = true;
    for (w, workload) in opts.workloads.iter().enumerate() {
        for (i, d) in declared.iter().enumerate() {
            let (a, b) = (&sets[0][w][i], &sets[1][w][i]);
            if a.is_empty() || b.is_empty() {
                println!("{workload:22} {:15} not emitted", d.name);
                all_within = false;
                continue;
            }
            let bound = d.bound.unwrap_or(0.0);
            let (ma, mb) = (median(a), median(b));
            let gap = worsening(ma, mb, d);
            let (sa, sb) = (spread(a).unwrap_or(0.0), spread(b).unwrap_or(0.0));
            // setup_s is exempt from the spread bound, never from the gap.
            let spread_ok = d.name == "setup_s" || (sa <= bound && sb <= bound);
            let per_seed_ok = !EXACT.contains(&d.name.as_str())
                || a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits());
            let within = gap <= bound && spread_ok && per_seed_ok;
            all_within &= within;
            let verdict = match (within, per_seed_ok, sa.max(sb) <= bound / 3.0) {
                (false, false, _) => "OUTSIDE (a seed's value changed)",
                (false, true, _) => "OUTSIDE",
                (true, _, true) => "ok",
                (true, _, false) => "ok (spread above a third of the bound)",
            };
            println!(
                "{workload:22} {:15} {ma:>14.6} {mb:>14.6} {:>+7.2}% {:>5.1}% {:>7.2}% {:>7.2}%  {verdict}",
                d.name,
                gap * 100.0,
                bound * 100.0,
                sa * 100.0,
                sb * 100.0,
            );
        }
    }
    println!(
        "repeat check: {}",
        if all_within { "every pair within its bound" } else { "pairs OUTSIDE their bound" }
    );
    all_within
}
