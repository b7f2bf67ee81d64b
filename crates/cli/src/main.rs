//! `caam` — command-line front end.
//!
//! ```text
//! caam generate --kind synthetic --out data --name demo [--brokers N] [--requests N] [--days N] [--sigma X] [--seed N]
//! caam generate --kind city-a|city-b|city-c --out data --name demo [--scale 0.05]
//! caam run --algo lacb-opt [--dataset data/demo | synthetic flags]
//! caam compare [--fast-only] [synthetic flags]
//! caam bandits [--rounds N]
//! caam soak [--quick] [--crash-points N]
//! ```
//!
//! Exit codes are typed: 0 success, 1 usage error (bad flags or inputs,
//! usage text printed), 2 gate failure (a harness verdict — recovery
//! divergence, an escaped panic, audit violation escaping repair).

mod args;
mod commands;
mod crash_test;
mod failover;
mod harness;
mod overload;
mod soak;
mod storage_chaos;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = match commands::dispatch(&argv) {
        Ok(()) => 0,
        Err(commands::CliError::Usage(e)) => {
            eprintln!("error: {e}");
            eprintln!();
            eprintln!("{}", commands::USAGE);
            1
        }
        Err(commands::CliError::Gate(e)) => {
            eprintln!("gate failure: {e}");
            2
        }
    };
    std::process::exit(code);
}
