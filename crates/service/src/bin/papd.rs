//! `papd` — the online selection daemon, standalone.
//!
//! The same daemon as `papctl serve`, with the same flags and the same
//! SIGTERM/SIGINT drain ([`pap_service::cli::run_daemon`]).
//!
//! ```text
//! papd [--addr A] [--snapshot F] [--backend {sim,model}] [--threads N]
//!      [--machine M] [--ranks N] [--policy P] [--l1 N] [--refine-threads N]
//!      [--no-tune]
//! ```
//!
//! `--threads` sizes the compute pool that runs cold cells and
//! calibrations (default 0 = one worker per core); every connection is
//! served by the one event loop.

use std::process::ExitCode;

use pap_service::cli::{run_daemon, serve_config, serve_spec, Args};

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if matches!(raw.as_slice(), [h] if h == "--help" || h == "-h") {
        println!(
            "usage: papd [--addr A] [--snapshot F] [--backend {{sim,model}}] [--threads N] \
             [--machine M] [--ranks N] [--policy P] [--l1 N] [--refine-threads N] [--no-tune]\n\
             --threads N sizes the cold-compute pool (default 0 = one worker per core)"
        );
        return ExitCode::SUCCESS;
    }
    match Args::parse(raw, &serve_spec()).and_then(|a| serve_config(&a)).and_then(run_daemon) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("papd: {e}");
            ExitCode::FAILURE
        }
    }
}
