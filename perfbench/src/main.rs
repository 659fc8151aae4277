//! `perfbench` — the repository benchmark's measuring program.
//!
//! ```text
//! perfbench --workload {tune|engine|serve} --seed N --seconds S --trace {0|1}
//!           [--papd PATH] [--out DIR]
//! ```
//!
//! Prints one JSON line: the gated metrics (end-to-end when untraced,
//! per-layer when traced) by name and unit, supporting figures, output
//! checks and failed/attempted counts. `perfbench/run.py` builds this
//! program and `papd`, runs it, and adds the host and provenance block.

#![forbid(unsafe_code)]

mod engine;
mod host;
mod layers;
mod report;
mod serve;
mod stats;
mod trace;
mod tune;

use std::path::PathBuf;
use std::process::ExitCode;

use report::quote;

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `tune_machine` on Hydra at 64 ranks, sim backend, 2 threads.
    Tune,
    /// Single 10K-rank and 512-rank simulator jobs through `run_ref`.
    Engine,
    /// `papd` over loopback: idle, flood and saturating phases.
    Serve,
}

impl std::str::FromStr for Workload {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "tune" => Ok(Workload::Tune),
            "engine" => Ok(Workload::Engine),
            "serve" => Ok(Workload::Serve),
            other => Err(format!(
                "unknown workload '{other}' (expected tune|engine|serve)"
            )),
        }
    }
}

struct Args {
    workload: Workload,
    name: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    papd: PathBuf,
    out: PathBuf,
}

fn parse(raw: &[String]) -> Result<Args, String> {
    let mut it = raw.iter();
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, false);
    let mut papd = PathBuf::from(".bench_build/release/papd");
    let mut out = PathBuf::from(".bench_out");
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|_| "--seed must be an integer")?,
                )
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds must be a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                }
            }
            "--papd" => papd = PathBuf::from(value()?),
            "--out" => out = PathBuf::from(value()?),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload: name.parse()?,
        name,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced,
        papd,
        out,
    })
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("perfbench: cannot create {}: {e}", args.out.display());
        return ExitCode::FAILURE;
    }
    let trace_path = args
        .out
        .join(format!("trace-{}-{}.json", args.name, args.seed));
    let outcome = if args.traced {
        layers::run(
            args.workload,
            &args.papd,
            args.seed,
            args.seconds,
            &trace_path,
        )
    } else {
        match args.workload {
            Workload::Tune => tune::run(args.seed, args.seconds),
            Workload::Engine => engine::run(args.seed, args.seconds),
            Workload::Serve => serve::run(&args.papd, args.seed, args.seconds),
        }
    };
    let mut head = vec![
        ("workload", quote(&args.name)),
        ("seed", args.seed.to_string()),
        ("seconds", report::number(args.seconds)),
        ("traced", args.traced.to_string()),
        ("threads", tune::THREADS.to_string()),
        ("nproc", host::nproc().to_string()),
    ];
    if args.traced {
        head.push(("trace_file", quote(&trace_path.display().to_string())));
    }
    println!("{}", outcome.to_json(&head));
    ExitCode::SUCCESS
}
