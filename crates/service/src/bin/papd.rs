//! `papd` — the online selection daemon, standalone.
//!
//! Thin wrapper over [`pap_service::Server`]; `papctl serve` exposes the
//! same daemon with the toolkit's richer flag set.
//!
//! ```text
//! papd [--addr A] [--snapshot F] [--backend {sim,model}] [--threads N]
//!      [--machine M] [--ranks N] [--l1 N] [--refine-threads N] [--no-tune]
//! ```
//!
//! `--threads` sizes the compute pool that runs cold cells and
//! calibrations (default 0 = one worker per core); every connection is
//! served by the one event loop.

use std::io::Write;
use std::process::ExitCode;

use pap_service::{ServeConfig, Server};

fn run(raw: &[String]) -> Result<(), String> {
    let mut cfg = ServeConfig::default();
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next().map(String::as_str).ok_or_else(|| format!("--{name} needs a value"))
        };
        match flag.as_str() {
            "--addr" => cfg.addr = value("addr")?.to_string(),
            "--snapshot" => cfg.snapshot = Some(value("snapshot")?.into()),
            "--backend" => cfg.backend = value("backend")?.parse()?,
            "--threads" => {
                cfg.threads =
                    value("threads")?.parse().map_err(|_| "--threads must be a number")?;
            }
            "--machine" => cfg.machine = value("machine")?.to_string(),
            "--ranks" => {
                cfg.ranks = value("ranks")?.parse().map_err(|_| "--ranks must be a number")?;
            }
            "--l1" => {
                cfg.l1_capacity = value("l1")?.parse().map_err(|_| "--l1 must be a number")?;
            }
            "--refine-threads" => {
                cfg.refine_threads = value("refine-threads")?
                    .parse()
                    .map_err(|_| "--refine-threads must be a number")?;
            }
            "--policy" => cfg.default_policy = value("policy")?.parse()?,
            "--no-tune" => cfg.tune_at_startup = false,
            "--help" | "-h" => {
                println!(
                    "usage: papd [--addr A] [--snapshot F] [--backend {{sim,model}}] \
                     [--threads N] [--machine M] [--ranks N] [--policy P] [--l1 N] \
                     [--refine-threads N] [--no-tune]\n\
                     --threads N sizes the cold-compute pool (default 0 = one worker per core)"
                );
                return Ok(());
            }
            other => return Err(format!("unknown flag '{other}' (try --help)")),
        }
    }
    let server = Server::start(cfg)?;
    println!("papd listening on {}", server.local_addr());
    let _ = std::io::stdout().flush();
    let stats = std::sync::Arc::clone(server.stats());
    server.join();
    eprint!("papd: shut down\n{}", stats.report().render_table());
    Ok(())
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match run(&raw) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("papd: {e}");
            ExitCode::FAILURE
        }
    }
}
