//! `adroute` — command-line tools for the inter-AD policy-routing
//! workspace: generate Figure-1-style internets and policy workloads,
//! query policy routes against the oracle and the ORWG data plane, audit
//! structural resilience, and predict the impact of a candidate policy
//! before deploying it (the paper's Section-6 management tool).
//!
//! Run `adroute help` for usage.

use std::process::ExitCode;

use adroute_cli::{args, commands};

fn main() -> ExitCode {
    let parsed = args::Args::parse(std::env::args().skip(1))
        .map_err(|e| format!("{e}\n{}", commands::usage()));
    match parsed.and_then(|a| commands::dispatch(&a).map_err(|e| e.0)) {
        Ok(out) => {
            print!("{out}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
