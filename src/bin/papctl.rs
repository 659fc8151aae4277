//! `papctl` — command-line front end to the toolkit.
//!
//! ```text
//! papctl machines
//! papctl algorithms [collective]
//! papctl pattern <shape> <ranks> <skew_us> [--seed N]
//! papctl bench <machine> <collective> <alg> <bytes> [--ranks N] [--shape S] [--skew-us X] [--nrep N] [--backend B]
//! papctl sweep <machine> <collective> <bytes> [--ranks N] [--nrep N] [--backend B] [--json]
//!              [--faults] [--max-degradation X]
//! papctl tune  <machine> [--ranks N] [--nrep N] [--backend B] [--out FILE] [--faults]
//! papctl serve [--addr A] [--snapshot F] [--backend B] [--threads N] [--machine M]
//!              [--ranks N] [--policy P] [--l1 N] [--refine-threads N] [--no-tune]
//! papctl query <machine> <collective> <bytes> --addr HOST:PORT [--ranks N]
//!              [--arrivals d0,d1,…] [--json]
//! papctl query --addr HOST:PORT {--stats|--metrics|--ping|--shutdown}
//! papctl calibrate {--from <preset> | --probe-json FILE} [--name N] [--ranks N]
//!                  [--reps N] [--no-noise] [--out FILE] [--check] [--json]
//!                  [--addr HOST:PORT]
//! papctl fleet serve [--shards N] [serve flags]
//! papctl fleet query <machine> <collective> <bytes> --addrs A1,A2,… [--ranks N] [--json]
//! papctl fleet stats --addrs A1,A2,… [--json]
//! papctl fleet shutdown --addrs A1,A2,…
//! papctl profile <collective> [--pattern S] [--machine M] [--ranks N] [--bytes B]
//!                [--alg A] [--skew-us X] [--seed N] [--out FILE] [--check]
//!                [--fault SPEC]
//! papctl ft    <machine> [--ranks N] [--alg A] [--iters N]
//! papctl trace <machine> [--ranks N]                       # FT pattern in file format
//! papctl lint  [--json] [--ranks 8,12,32] [--eager BYTES]  # static registry sweep
//! papctl lint --faults [--json] [--ranks 8,12,32] [--eager BYTES]
//! papctl repair <collective> <alg> --fault crash:R [--ranks N] [--bytes B]
//!               [--root R] [--eager BYTES] [--seg-bytes BYTES]
//! papctl figures <name> [--ranks N] [--nrep N] [--seed N] [--quick | --full]
//! ```
//!
//! Flags parse strictly ([`pap::service::cli::Args`]): a flag the command
//! does not take, a surplus positional or a value that does not parse is an
//! error naming it, raised before the command does any work.
//!
//! All commands accept `--threads N`, also before the command name, to
//! bound the parallel fan-out (default: `PAP_THREADS` env, else all cores;
//! 1 forces sequential); for `serve` it sizes the pool that computes cold
//! cells and calibrations.
//! `bench`/`sweep`/`tune` accept `--backend {sim,model}`: `sim` (default)
//! resolves every cell through the event-driven simulator, `model` through
//! the closed-form analytical cost models of `pap-model` (orders of
//! magnitude faster; cross-validated by the differential test suite).
//!
//! `profile` renders one simulated collective run under an arrival pattern
//! as a Perfetto-loadable Chrome Trace Event file (open in
//! <https://ui.perfetto.dev>): one lane per rank, arrival→exit spans, and a
//! flow arrow per point-to-point message. `bench`/`sweep`/`tune`/`profile`
//! accept `--metrics`, which enables span recording and prints the
//! process-global metrics snapshot to stderr on exit; `query --metrics`
//! fetches the same snapshot from a running daemon.
//!
//! `tune --out FILE` writes the full evidence snapshot (decisions + their
//! benchmark matrices) in the format `papctl serve --snapshot FILE` loads
//! for a warm restart. `serve` runs `papd`, the online selection daemon
//! (one event loop serves every connection; slow frames run on the compute
//! pool); `query` is the reference protocol client (see `pap-service`).
//!
//! `figures` regenerates the paper's tables and figures through the
//! `pap-bench` drivers (see EXPERIMENTS.md; an unknown name lists the
//! valid ones).

use std::process::ExitCode;

use pap::apps::{run_ft, FtConfig};
use pap::arrival::{generate, render_pattern_file, Shape};
use pap::bench::{self, Scale};
use pap::collectives::registry::{algorithms, experiment_ids};
use pap::collectives::{CollSpec, CollectiveKind};
use pap::core::report::render_normalized_table;
use pap::core::{
    render_fault_table, select, select_fault_robust, tune_machine, BenchMatrix, FaultMatrix,
    SelectionPolicy, TunePlan,
};
use pap::lint::{
    certified_repair, crash_cone, sweep_faults, sweep_registry, CrashPoint, LintConfig,
    RepairVerdict, SweepConfig,
};
use pap::microbench::{
    calibrate_avg_runtime, fault_sweep, measure, profile_with_faults, standard_grid, sweep,
    Backend, BenchConfig, SkewPolicy,
};
use pap::calibrate::{fit_probe, selection_agreement, synthesize_probe, Probe, ProbeConfig, CHECK_RANKS};
use pap::service::cli::{run_daemon, serve_config, serve_spec, Args, Spec};
use pap::service::{measure_fault_matrix, Client, QueryRequest, Snapshot};
use pap::sim::{
    register_custom_platform, run_ref, FaultSpec, Job, MachineId, Platform, RankProgram, SimConfig,
    SimError,
};
use pap::tracer::{ideal_observer, CollectiveTrace, TracerConfig};

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.is_empty() {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    }
    match run(raw) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("papctl: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Split off the command (two words for `fleet` and `figures`), parse the
/// rest against its [`Spec`], and run it.
fn run(mut raw: Vec<String>) -> Result<(), String> {
    // The global `--threads N` may also precede the command:
    // `papctl --threads 2 sweep …` and `papctl sweep … --threads 2` both work.
    let lead: Vec<String> =
        if raw[0] == "--threads" { raw.drain(..raw.len().min(2)).collect() } else { Vec::new() };
    if raw.is_empty() {
        return Err(format!("missing command\n{USAGE}"));
    }
    let mut cmd = raw.remove(0);
    if matches!(cmd.as_str(), "fleet" | "figures") && raw.first().is_some_and(|a| !a.starts_with("--")) {
        cmd = format!("{cmd} {}", raw.remove(0));
    }
    let args = Args::parse(lead.into_iter().chain(raw).collect(), &spec(&cmd)?)?;
    // Global knob: worker threads for the sweep/tune fan-out. 0 keeps the
    // default (PAP_THREADS env, else all cores); 1 forces sequential runs.
    let threads = args.flag("threads", 0usize)?;
    if threads > 0 {
        pap::parallel::set_threads(threads);
    }
    // `--metrics` on a local measurement command: enable span recording for
    // the run and print the process-global metrics snapshot on the way out.
    // (`query --metrics` is a daemon endpoint instead; see cmd_query.)
    let local_metrics =
        args.has("metrics") && matches!(cmd.as_str(), "bench" | "sweep" | "tune" | "profile");
    if local_metrics {
        pap::obs::set_enabled(true);
    }
    let result = match cmd.as_str() {
        "machines" => machines(),
        "algorithms" => cmd_algorithms(&args),
        "pattern" => cmd_pattern(&args),
        "bench" => cmd_bench(&args),
        "sweep" => cmd_sweep(&args),
        "tune" => cmd_tune(&args),
        "profile" => cmd_profile(&args),
        "serve" => serve_config(&args).and_then(run_daemon),
        "query" => cmd_query(&args),
        "calibrate" => cmd_calibrate(&args),
        "ft" => cmd_ft(&args),
        "trace" => cmd_trace(&args),
        "lint" => cmd_lint(&args),
        "repair" => cmd_repair(&args),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => match other.split_once(' ') {
            Some(("fleet", sub)) => cmd_fleet(sub, &args),
            _ => cmd_figures(other.trim_start_matches("figures "), &args),
        },
    };
    if local_metrics {
        eprint!("{}", pap::obs::global().snapshot().render_table());
    }
    result
}

/// The paper's tables and figures, plus the engine scale probe, by name.
const FIGURES: &[&str] = &[
    "table1", "table2", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
    "figs789", "ext_allgather", "ext_skew_factor", "scale_table",
];

/// [`Scale`] flags of the figure drivers.
const SCALE_VALUES: &[&str] = &["ranks", "nrep", "seed"];
const SCALE_SWITCHES: &[&str] = &["quick", "full"];

/// What each command takes. Every command also takes the global `--threads`.
fn spec(cmd: &str) -> Result<Spec, String> {
    let s = match cmd {
        "machines" | "help" | "--help" | "-h" => Spec::new(&[]),
        "algorithms" => Spec::new(&["collective"]),
        "pattern" => Spec::new(&["shape", "ranks", "skew_us"]).values(&["seed"]),
        "bench" => Spec::new(&["machine", "collective", "alg", "bytes"])
            .values(&["ranks", "shape", "skew-us", "nrep", "seed", "backend"])
            .switches(&["metrics"]),
        "sweep" => Spec::new(&["machine", "collective", "bytes"])
            .values(&["ranks", "nrep", "backend", "max-degradation"])
            .switches(&["json", "faults", "metrics"]),
        "tune" => Spec::new(&["machine"])
            .values(&["ranks", "nrep", "backend", "out"])
            .switches(&["faults", "metrics"]),
        "profile" => Spec::new(&["collective"])
            .values(&["pattern", "machine", "ranks", "bytes", "alg", "skew-us", "seed", "out", "fault"])
            .switches(&["check", "metrics"]),
        "serve" => serve_spec(),
        "query" => Spec::new(&["machine", "collective", "bytes"])
            .values(&["addr", "ranks", "arrivals"])
            .switches(&["json", "stats", "metrics", "ping", "shutdown"]),
        "calibrate" => Spec::new(&[])
            .values(&["from", "probe-json", "name", "ranks", "reps", "seed", "out", "addr"])
            .switches(&["no-noise", "check", "json"]),
        "ft" => Spec::new(&["machine"]).values(&["ranks", "alg", "iters", "seed"]),
        "trace" => Spec::new(&["machine"]).values(&["ranks", "seed"]),
        "lint" => Spec::new(&[]).values(&["ranks", "eager"]).switches(&["json", "faults"]),
        "repair" => Spec::new(&["collective", "alg"])
            .values(&["fault", "ranks", "bytes", "root", "eager", "seg-bytes"]),
        "fleet serve" => serve_spec().values(&["shards"]),
        "fleet query" => Spec::new(&["machine", "collective", "bytes"])
            .values(&["addrs", "ranks"])
            .switches(&["json"]),
        "fleet stats" => Spec::new(&[]).values(&["addrs"]).switches(&["json"]),
        "fleet shutdown" => Spec::new(&[]).values(&["addrs"]),
        "figures table1" | "figures table2" | "figures fig2" | "figures fig3" => Spec::new(&[]),
        "figures fig4" => {
            Spec::new(&["collective..."]).values(SCALE_VALUES).switches(SCALE_SWITCHES)
        }
        "figures scale_table" => Spec::new(&["max_ranks"]).switches(&["json"]),
        figure if FIGURES.iter().any(|f| figure.strip_prefix("figures ") == Some(f)) => {
            Spec::new(&[]).values(SCALE_VALUES).switches(SCALE_SWITCHES)
        }
        "fleet" => return Err(format!("fleet needs serve, query, stats or shutdown\n{USAGE}")),
        "figures" => return Err(format!("figures needs a name: {}", FIGURES.join(", "))),
        other => {
            return Err(match other.split_once(' ') {
                Some(("fleet", sub)) => format!("unknown fleet subcommand '{sub}'\n{USAGE}"),
                Some((_, name)) => format!("unknown figure '{name}'; valid: {}", FIGURES.join(", ")),
                None => format!("unknown command '{other}'\n{USAGE}"),
            })
        }
    };
    // Global: `serve` and `fleet serve` already take `--threads` as a serve flag.
    Ok(if cmd.ends_with("serve") { s } else { s.values(&["threads"]) })
}

const USAGE: &str = "usage: papctl <machines|algorithms|pattern|bench|sweep|tune|profile|serve|fleet|query|calibrate|ft|trace|lint|repair|figures|help> …
global flags: --threads N   worker threads for sweep/tune fan-out (may precede the command)
                            (default: PAP_THREADS env, else all cores; 1 = sequential);
                            for `serve`, the cold-compute pool size (cold cells
                            and calibrations; connections share one event loop)
bench/sweep/tune flags: --backend {sim,model}
                            sim   = event-driven simulator (default)
                            model = closed-form analytical LogGP models
bench/sweep/tune/profile:
             --metrics      record spans and print the metrics snapshot to
                            stderr when the command finishes
sweep flags: --json         print the benchmark matrix as JSON instead of the table
             --faults       sweep the standard runtime-fault grid instead of
                            arrival patterns (sim backend only): stalls, link
                            slowdowns, noise storms, a leaf crash
             --max-degradation X  worst-case degradation bound for the
                            fault-robust pick (default 1.0 = at most 2x slower)
tune flags: --out FILE      also write the evidence snapshot (decisions + matrices)
                            that `papctl serve --snapshot FILE` warm-starts from
            --faults        also measure the standard fault grid per cell and
                            persist it in the snapshot (needs --out), so a
                            warm-restarted `papd --policy fault_robust` serves
                            without lazy fault re-measurement
serve flags: --addr A       listen address (default 127.0.0.1:0 = ephemeral port)
             --snapshot F   warm-start L2 from FILE instead of tuning at startup
             --backend B    backend for startup tuning and cold cells (default model)
             --machine M    machine preset to pre-tune (default simcluster)
             --ranks N      rank count to pre-tune (default 16)
             --policy P     default policy for sample-less queries
                            (robust | no_delay_fastest | fault_robust[:BOUND];
                            default robust)
             --l1 N         L1 answer-cache capacity (default 1024; 0 disables)
             --refine-threads N  background sim-refinement workers (default 1; 0 disables)
             --no-tune      start with an empty L2 (every cell computed on demand)
query flags: --addr A       daemon address (required; printed by `papctl serve`)
             --ranks N      rank count (default 16)
             --arrivals CSV per-rank arrival samples, e.g. 0,0.2,1.5e-3
             --json         print the raw answer/stats JSON
             --stats | --metrics | --ping | --shutdown   control endpoints (no positionals)
calibrate flags: --from M    synthesize the probe from preset M (treated as the
                            machine under test; noise and clock skew enabled)
             --probe-json F  load a measured probe from FILE instead
             --name N        register the fit as custom:N
                            (default: fit-<preset>, or the probe's own name)
             --ranks N       rank count the daemon pre-tunes at (with --addr)
             --reps N        probe repetitions per point (default 7)
             --no-noise      synthesize without the preset's noise model
             --out FILE      write the full fit report (parameters + residuals) as JSON
             --check         closed-loop validation: compare selection fitted-vs-true
                            over the Fig. 4 grid (needs --from)
             --addr A        send the probe to a running papd (it fits, registers
                            custom:N, and publishes a model-backed L2 grid)
fleet:       serve [--shards N] [serve flags]  N event-driven shards; shard 0
                            seeds per the serve flags, the rest warm-replicate
                            its L2 evidence over the wire before accepting
             query/stats/shutdown --addrs A1,A2,…  consistent-hash routed
                            client over the shard list `fleet serve` printed
                            (query retries transport failures and fails over;
                            stats aggregates every live shard)
profile flags: --pattern S  arrival-pattern shape (default imbalanced-linear,
                            an alias for ascending; hyphens ≡ underscores)
             --machine M    machine preset (default simcluster)
             --ranks N      rank count (default 16)
             --bytes B      message size (default 1024)
             --alg A        algorithm id (default: first experiment id)
             --skew-us X    max skew; default 1.5x the algorithm's
                            undelayed runtime
             --out FILE     trace file (default trace.json; open in Perfetto)
             --check        re-read and validate the written trace
             --fault SPEC   inject runtime faults; ;-separated clauses of
                            stall:R@T+D  crash:R@T  link:S-D@F..U*X
                            storm:R0-R1@F..U*X  (times take us/ms/s suffixes,
                            e.g. 'stall:0@1ms+500us;crash:7@2ms')
lint flags: --json          machine-readable SweepSummary document
            --ranks A,B,C   rank counts to sweep (default 8,12,32)
            --eager BYTES   eager threshold for the protocol analysis (default 16384)
            --faults        fault-cone mode: per-rank entry crash cones,
                            blast-radius aggregates, and a certified repair of
                            each case's worst crash (static; fails if any
                            rewrite does not re-verify)
repair flags: --fault crash:R  the rank to route around (required)
            --ranks N       rank count (default 8)
            --bytes B       message size (default 1024)
            --root R        collective root (default 0)
            --eager BYTES   eager threshold (default 16384)
            --seg-bytes B   segment size for segmented algorithms
figures <name> [--ranks N (default 256)] [--nrep N (default 3)] [--seed N] [--quick | --full]:
            table1 table2 fig1 … fig9 figs789 ext_allgather ext_skew_factor (EXPERIMENTS.md);
            `fig4 [collective …]` draws only those; `scale_table [max_ranks] [--json]`
            is the engine scale probe; --full = the paper's 1024 ranks at full grids
run `papctl help` or see the module docs for argument details";

fn machines() -> Result<(), String> {
    println!("machine      nodes  cores/node  inter-bw[GB/s]  inter-lat[us]  eager[B]");
    for id in MachineId::ALL {
        let p = Platform::preset(id, 1);
        println!(
            "{:<12} {:>5}  {:>10}  {:>14.1}  {:>13.2}  {:>8}",
            id.name(),
            p.nodes,
            p.cores_per_node,
            p.inter.bandwidth / 1e9,
            p.inter.latency * 1e6,
            p.eager_threshold
        );
    }
    Ok(())
}

fn cmd_algorithms(args: &Args) -> Result<(), String> {
    let kinds: Vec<CollectiveKind> = match args.positionals().first() {
        Some(_) => vec![args.arg(0)?],
        None => vec![
            CollectiveKind::Reduce,
            CollectiveKind::Allreduce,
            CollectiveKind::Alltoall,
            CollectiveKind::Allgather,
            CollectiveKind::Bcast,
            CollectiveKind::Gather,
            CollectiveKind::Scatter,
            CollectiveKind::Barrier,
        ],
    };
    for kind in kinds {
        println!("{kind}:");
        for a in algorithms(kind) {
            println!(
                "  {} {} ({}){}",
                a.id,
                a.name,
                a.abbrev,
                a.smpi_alias.map(|s| format!(" smpi:{s}")).unwrap_or_default()
            );
        }
    }
    Ok(())
}

fn cmd_pattern(args: &Args) -> Result<(), String> {
    let shape: Shape = args.arg(0)?;
    let p: usize = args.arg(1)?;
    let skew_us: f64 = args.arg(2)?;
    let seed = args.flag("seed", 1u64)?;
    let pat = generate(shape, p, skew_us * 1e-6, seed);
    print!("{}", render_pattern_file(&pat));
    Ok(())
}

fn platform_from(args: &Args, machine_pos: usize) -> Result<Platform, String> {
    let machine: MachineId = args.arg(machine_pos)?;
    let ranks = args.flag("ranks", 64usize)?;
    Ok(Platform::preset(machine, ranks))
}

/// The measurement configuration for a machine, honoring `--backend`.
fn bench_config(args: &Args, platform: &Platform, nrep: usize) -> Result<BenchConfig, String> {
    let backend = args.flag("backend", Backend::Sim)?;
    let cfg = if platform.machine == MachineId::SimCluster {
        BenchConfig::simulation()
    } else {
        BenchConfig::real_machine(nrep)
    };
    Ok(cfg.with_backend(backend))
}

fn cmd_bench(args: &Args) -> Result<(), String> {
    let platform = platform_from(args, 0)?;
    let kind: CollectiveKind = args.arg(1)?;
    let alg: u8 = args.arg(2)?;
    let bytes: u64 = args.arg(3)?;
    let shape = args.flag("shape", Shape::NoDelay)?;
    let skew_us: f64 = args.flag("skew-us", 0.0)?;
    let nrep = args.flag("nrep", 3usize)?;

    let pattern = generate(shape, platform.ranks, skew_us * 1e-6, args.flag("seed", 1u64)?);
    let cfg = bench_config(args, &platform, nrep)?;
    let spec = CollSpec::new(kind, alg, bytes);
    let stats = measure(&platform, &spec, &pattern, &cfg).map_err(|e| e.to_string())?;
    println!(
        "{} A{alg} {bytes} B on {} ({} ranks), pattern {}: d̂ mean {:.3} ms (min {:.3}, max {:.3}); d* mean {:.3} ms",
        kind,
        platform.machine,
        platform.ranks,
        pattern.name,
        stats.mean_last() * 1e3,
        stats.min_last() * 1e3,
        stats.max_last() * 1e3,
        stats.mean_total() * 1e3,
    );
    Ok(())
}

fn cmd_sweep(args: &Args) -> Result<(), String> {
    let platform = platform_from(args, 0)?;
    let kind: CollectiveKind = args.arg(1)?;
    let bytes: u64 = args.arg(2)?;
    let nrep = args.flag("nrep", 3usize)?;
    let bound: f64 = args.flag("max-degradation", 1.0)?;
    if args.has("max-degradation") && !args.has("faults") {
        return Err("--max-degradation bounds the fault-robust pick; it needs --faults".to_string());
    }
    let algs = experiment_ids(kind);
    let cfg = bench_config(args, &platform, nrep)?;
    if args.has("faults") {
        return cmd_fault_sweep(args, &platform, kind, &algs, bytes, &cfg, bound);
    }
    let sw = sweep(&platform, kind, &algs, &Shape::SUITE, bytes, SkewPolicy::FactorOfAvg(1.0), &[], &cfg)
        .map_err(|e| e.to_string())?;
    let m = BenchMatrix::from_sweep(&sw);
    if args.has("json") {
        println!("{}", serde_json::to_string_pretty(&m).map_err(|e| e.to_string())?);
        return Ok(());
    }
    print!("{}", render_normalized_table(&m, &[]));
    let nd = select(&m, &SelectionPolicy::NoDelayFastest)?;
    let robust = select(&m, &SelectionPolicy::robust())?;
    println!("status-quo pick: A{nd}; robust pick: A{robust}");
    Ok(())
}

/// `papctl sweep … --faults`: the Fig. 6 robustness grid over runtime
/// faults instead of arrival patterns.
fn cmd_fault_sweep(
    args: &Args,
    platform: &Platform,
    kind: CollectiveKind,
    algs: &[u8],
    bytes: u64,
    cfg: &BenchConfig,
    bound: f64,
) -> Result<(), String> {
    if cfg.backend != Backend::Sim {
        return Err("--faults requires the sim backend (the model has no fault model)".to_string());
    }
    let t = calibrate_avg_runtime(platform, kind, algs, bytes, cfg).map_err(|e| e.to_string())?;
    let scenarios = standard_grid(platform.ranks, t);
    let sw = fault_sweep(platform, kind, algs, bytes, &scenarios, cfg).map_err(|e| e.to_string())?;
    let m = FaultMatrix::from_fault_sweep(&sw);
    if args.has("json") {
        println!("{}", serde_json::to_string_pretty(&m).map_err(|e| e.to_string())?);
        return Ok(());
    }
    print!("{}", render_fault_table(&m, 0.25).expect("grid has a clean row"));
    let clean = m.scenario_index("clean").expect("grid has a clean row");
    let status_quo = select(
        &BenchMatrix {
            kind: m.kind,
            bytes: m.bytes,
            algs: m.algs.clone(),
            patterns: vec!["no_delay".into()],
            values: vec![m.values[clean].iter().map(|v| v.expect("clean row is complete")).collect()],
        },
        &SelectionPolicy::NoDelayFastest,
    )?;
    let robust = select_fault_robust(&m, bound)?;
    println!("status-quo pick: A{status_quo}; fault-robust pick (bound {bound}): A{robust}");
    Ok(())
}

fn cmd_tune(args: &Args) -> Result<(), String> {
    let platform = platform_from(args, 0)?;
    if args.has("faults") && !args.has("out") {
        return Err("--faults enriches the snapshot; it needs --out FILE".to_string());
    }
    let nrep = args.flag("nrep", 3usize)?;
    let cfg = bench_config(args, &platform, nrep)?;
    let plan = TunePlan::default();
    let (table, records) = tune_machine(&platform, &plan, &cfg)?;
    for rec in &records {
        eprintln!(
            "tuned {} @ {} B -> A{}{}",
            rec.entry.kind,
            rec.entry.bytes,
            rec.entry.alg,
            if rec.entry.alg == rec.status_quo {
                String::new()
            } else {
                format!("  (status quo would pick A{})", rec.status_quo)
            }
        );
    }
    if let Some(path) = args.opt("out") {
        let mut snap = Snapshot::from_records(
            platform.machine.name(),
            platform.ranks,
            &cfg.backend.to_string(),
            &records,
        );
        if args.has("faults") {
            // Degraded-mode evidence rides along in the snapshot so a
            // warm-restarted `papd --policy fault_robust` never re-measures
            // the fault grid (always sim-backed, whatever --backend said).
            for cell in &mut snap.cells {
                let fm = measure_fault_matrix(
                    platform.machine,
                    cell.entry.kind,
                    cell.entry.ranks,
                    cell.entry.bytes,
                )?;
                eprintln!(
                    "fault grid {} @ {} B: v{} ({} scenarios)",
                    cell.entry.kind,
                    cell.entry.bytes,
                    fm.grid_version,
                    fm.scenarios.len()
                );
                cell.faults = Some(fm);
            }
        }
        snap.save(std::path::Path::new(path))?;
        eprintln!("wrote snapshot {path} ({} cells)", snap.cells.len());
    }
    println!("{}", table.to_json());
    Ok(())
}

fn cmd_profile(args: &Args) -> Result<(), String> {
    let kind: CollectiveKind = args.arg(0)?;
    let machine = args.flag("machine", MachineId::SimCluster)?;
    let ranks = args.flag("ranks", 16usize)?;
    let platform = Platform::preset(machine, ranks);
    let alg = match args.value("alg")? {
        Some(a) => a,
        None => match experiment_ids(kind).first() {
            Some(id) => *id,
            // Not every collective is in the paper's experiment set; fall
            // back to the first registered algorithm.
            None => {
                algorithms(kind)
                    .first()
                    .ok_or_else(|| format!("{kind} has no registered algorithms"))?
                    .id
            }
        },
    };
    let bytes = args.flag("bytes", 1024u64)?;
    let shape: Shape = args.flag("pattern", Shape::Ascending)?;
    let seed = args.flag("seed", 1u64)?;
    let spec = CollSpec::new(kind, alg, bytes);

    // Default skew: 1.5x the algorithm's undelayed runtime, so the injected
    // imbalance shows at the same scale as the collective itself.
    let faults = args.flag("fault", FaultSpec::none())?;
    let skew_s = match args.value::<f64>("skew-us")? {
        Some(v) => v * 1e-6,
        None => {
            let baseline = generate(Shape::NoDelay, ranks, 0.0, seed);
            let st = measure(&platform, &spec, &baseline, &BenchConfig::simulation())
                .map_err(|e| e.to_string())?;
            st.mean_total() * 1.5
        }
    };
    let pattern = generate(shape, ranks, skew_s, seed);
    let prof =
        profile_with_faults(&platform, &spec, &pattern, seed, &faults).map_err(|e| e.to_string())?;

    let out = args.flag("out", "trace.json".to_string())?;
    prof.trace.save(std::path::Path::new(&out)).map_err(|e| format!("write {out}: {e}"))?;
    println!(
        "profiled {kind} A{alg} {bytes} B on {} ({} ranks), pattern {} (skew {:.1} us): \
         d̂ {:.3} ms, d* {:.3} ms, {} messages{} -> {out}",
        platform.machine,
        prof.ranks,
        pattern.name,
        skew_s * 1e6,
        prof.d_hat * 1e3,
        prof.d_star * 1e3,
        prof.messages,
        if prof.crashed > 0 { format!(", {} rank(s) crashed", prof.crashed) } else { String::new() },
    );
    if args.has("check") {
        let json = std::fs::read_to_string(&out).map_err(|e| format!("read back {out}: {e}"))?;
        let stats = pap::obs::validate_trace(&json)?;
        println!("trace OK: {}", pap::obs::chrome::describe(&stats));
    }
    Ok(())
}

fn fleet_addrs(args: &Args) -> Result<Vec<std::net::SocketAddr>, String> {
    args.opt("addrs")
        .ok_or("fleet commands need --addrs A1,A2,… (printed by `papctl fleet serve`)")?
        .split(',')
        .map(|a| a.trim().parse().map_err(|e| format!("bad shard address '{a}': {e}")))
        .collect()
}

fn cmd_fleet(sub: &str, args: &Args) -> Result<(), String> {
    match sub {
        "serve" => {
            let shards = args.flag("shards", 2usize)?;
            let base = serve_config(args)?;
            let fleet = pap::service::fleet::Fleet::start(pap::service::fleet::FleetConfig { shards, base })?;
            for (i, addr) in fleet.addrs().iter().enumerate() {
                println!("papd shard {i} listening on {addr}");
            }
            // Scripted callers scrape this single line for the client-side
            // --addrs value; flush past stdout's pipe buffering.
            let addrs: Vec<String> = fleet.addrs().iter().map(|a| a.to_string()).collect();
            println!("fleet listening on {}", addrs.join(","));
            use std::io::Write as _;
            let _ = std::io::stdout().flush();
            // Run until SIGTERM/SIGINT, or until every shard was asked to
            // shut down in-band (`papctl fleet shutdown`).
            pap::sysio::install_shutdown_flag().map_err(|e| format!("signal handler: {e}"))?;
            loop {
                if pap::sysio::shutdown_requested() {
                    break;
                }
                let all_stopping = (0..fleet.shards())
                    .all(|i| fleet.node(i).is_none_or(|n| n.is_shutting_down()));
                if all_stopping {
                    break;
                }
                std::thread::sleep(std::time::Duration::from_millis(100));
            }
            fleet.join_all();
            eprintln!("fleet: shut down");
            Ok(())
        }
        "query" => {
            let machine = args.pos(0)?.to_string();
            let collective: CollectiveKind = args.arg(1)?;
            let bytes: u64 = args.arg(2)?;
            let ranks = args.flag("ranks", 16usize)?;
            let mut client = pap::service::fleet::FleetClient::new(fleet_addrs(args)?);
            let q = QueryRequest { machine, collective, bytes, ranks, arrivals: None };
            let shard = client.route(&q).ok_or("fleet has no live shards")?;
            let answer = client.query(q)?;
            if args.has("json") {
                println!("{}", serde_json::to_string_pretty(&answer).map_err(|e| e.to_string())?);
            } else {
                println!(
                    "{} {} B on {} ({} ranks) via shard {}: use A{}  [policy {}; served from {}]",
                    answer.collective,
                    answer.bytes,
                    answer.machine,
                    answer.ranks,
                    shard,
                    answer.alg,
                    answer.policy,
                    answer.tier.describe(),
                );
            }
            Ok(())
        }
        "stats" => {
            let mut client = pap::service::fleet::FleetClient::new(fleet_addrs(args)?);
            let (agg, shards) = client.stats_by_shard()?;
            if args.has("json") {
                println!("{}", serde_json::to_string_pretty(&agg).map_err(|e| e.to_string())?);
            } else {
                for (shard, report) in shards {
                    println!(
                        "shard {shard}: {} queries, {} connections, {} L2 cells{}",
                        report.endpoints.query,
                        report.connections,
                        report.l2_cells,
                        if report.snapshot_loaded { " (warm)" } else { "" },
                    );
                }
                print!("{}", agg.render_table());
            }
            Ok(())
        }
        "shutdown" => {
            let mut client = pap::service::fleet::FleetClient::new(fleet_addrs(args)?);
            client.shutdown_all();
            println!("fleet acknowledged shutdown");
            Ok(())
        }
        other => unreachable!("spec() rejects fleet subcommand '{other}'"),
    }
}

fn cmd_query(args: &Args) -> Result<(), String> {
    let addr = args
        .opt("addr")
        .ok_or("query needs --addr HOST:PORT (printed by `papctl serve`)")?;
    let json = args.has("json");
    if let Some(endpoint) = ["stats", "metrics", "ping", "shutdown"].into_iter().find(|c| args.has(c)) {
        if let Some(extra) = args.positionals().first() {
            return Err(format!("unexpected argument '{extra}' (--{endpoint} takes no positionals)"));
        }
        let mut client = Client::connect(addr)?;
        match endpoint {
            "stats" => {
                let report = client.stats()?;
                if json {
                    println!("{}", serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?);
                } else {
                    print!("{}", report.render_table());
                }
            }
            "metrics" => {
                let snap = client.metrics()?;
                if json {
                    println!("{}", serde_json::to_string_pretty(&snap).map_err(|e| e.to_string())?);
                } else {
                    print!("{}", snap.render_table());
                }
            }
            "ping" => {
                client.ping()?;
                println!("pong");
            }
            _ => {
                client.shutdown()?;
                println!("papd acknowledged shutdown");
            }
        }
        return Ok(());
    }

    let machine = args.pos(0)?.to_string();
    let collective: CollectiveKind = args.arg(1)?;
    let bytes: u64 = args.arg(2)?;
    let ranks = args.flag("ranks", 16usize)?;
    let arrivals = match args.opt("arrivals") {
        Some(csv) => Some(
            csv.split(',')
                .map(|s| s.trim().parse::<f64>().map_err(|_| format!("--arrivals: bad sample '{s}'")))
                .collect::<Result<Vec<f64>, String>>()?,
        ),
        None => None,
    };
    let mut client = Client::connect(addr)?;
    let answer = client.query(QueryRequest { machine, collective, bytes, ranks, arrivals })?;
    if json {
        println!("{}", serde_json::to_string_pretty(&answer).map_err(|e| e.to_string())?);
    } else {
        println!(
            "{} {} B on {} ({} ranks): use A{}  [policy {}; pattern {} (sim {:.2}); \
             served from {}; evidence {} B via {} gen {}{}]",
            answer.collective,
            answer.bytes,
            answer.machine,
            answer.ranks,
            answer.alg,
            answer.policy,
            answer.pattern,
            answer.similarity,
            answer.tier.describe(),
            answer.evidence_bytes,
            answer.backend,
            answer.generation,
            if answer.refine_scheduled { "; sim refinement scheduled" } else { "" },
        );
    }
    Ok(())
}

/// `papctl calibrate`: onboard an unseen machine. Synthesize (or load) a
/// probe, fit the platform parameters, and either register the fit locally
/// (optionally writing the report and running the closed-loop
/// selection-agreement check) or send the probe to a running daemon, which
/// fits and starts serving the machine online.
fn cmd_calibrate(args: &Args) -> Result<(), String> {
    let from: Option<MachineId> = args.value("from")?;
    let ranks = args.flag("ranks", 16usize)?;
    let defaults = ProbeConfig::default();
    let probe_cfg = ProbeConfig {
        reps: args.flag("reps", defaults.reps)?,
        seed: args.flag("seed", defaults.seed)?,
        noise: !args.has("no-noise"),
        ..defaults
    };
    let probe: Probe = if let Some(path) = args.opt("probe-json") {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        Probe::from_json(&text)?
    } else if let Some(machine) = from {
        let name = args.flag("name", format!("fit-{}", machine.name().to_ascii_lowercase()))?;
        synthesize_probe(machine, &name, &probe_cfg)?
    } else {
        return Err(
            "calibrate needs --from <preset> (synthesize a probe) or --probe-json FILE".to_string()
        );
    };
    let name = args.flag("name", probe.name.clone())?;

    if let Some(addr) = args.opt("addr") {
        // Online path: the daemon fits, registers, and publishes L2
        // evidence, so queries for custom:<name> answer immediately.
        let mut client = Client::connect(addr)?;
        let a = client.calibrate(&name, ranks, probe)?;
        println!(
            "{}: fit accepted (median residual {:.2}%), {} L2 cells published, \
             {} sim refinement(s) scheduled",
            a.machine,
            a.fit.median_rel_residual * 100.0,
            a.l2_cells,
            a.refine_scheduled,
        );
        return Ok(());
    }

    let fit = fit_probe(&probe).map_err(|e| format!("calibration rejected: {e}"))?;
    let spec = &fit.spec;
    // In --json mode stdout carries exactly one JSON document (the agreement
    // report under --check, the fit report otherwise), so scripts can pipe
    // straight into jq.
    if !args.has("json") {
        println!(
            "fitted custom:{name} from {} observation(s): median residual {:.2}%, max {:.2}%, \
             collective cross-check {:.2}%",
            fit.observations,
            fit.median_rel_residual * 100.0,
            fit.max_rel_residual * 100.0,
            fit.collective_rel_err * 100.0,
        );
        println!(
            "  intra {:.2} us / {:.1} GB/s   inter {:.2} us / {:.1} GB/s   eager {} B   \
             overhead {:.2} us   nic serialized: {}",
            spec.intra.latency * 1e6,
            spec.intra.bandwidth / 1e9,
            spec.inter.latency * 1e6,
            spec.inter.bandwidth / 1e9,
            spec.eager_threshold,
            (spec.send_overhead + spec.recv_overhead) * 1e6,
            spec.nic_serialization,
        );
    }
    if let Some(path) = args.opt("out") {
        std::fs::write(path, serde_json::to_string_pretty(&fit).map_err(|e| e.to_string())?)
            .map_err(|e| format!("write {path}: {e}"))?;
        eprintln!("wrote fit report {path}");
    }
    let machine = register_custom_platform(&name, fit.spec.clone())?;
    if args.has("check") {
        let truth =
            from.ok_or("--check compares against the probed preset; it needs --from <preset>")?;
        let report = selection_agreement(truth, machine, CHECK_RANKS)?;
        if args.has("json") {
            println!("{}", serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?);
            return Ok(());
        }
        println!("{:<22} {:>13} {:>13} {:>8}", "parameter", "true", "fitted", "rel_err");
        for p in &report.params {
            println!(
                "{:<22} {:>13.4e} {:>13.4e} {:>8.4}",
                p.name, p.true_value, p.fitted_value, p.rel_err
            );
        }
        for c in report.cells.iter().filter(|c| !c.agrees()) {
            println!(
                "disagrees: {} @ {} B under {}: true A{} vs fitted A{}",
                c.kind, c.bytes, c.policy, c.true_pick, c.fitted_pick
            );
        }
        let agreeing = report.cells.iter().filter(|c| c.agrees()).count();
        println!(
            "selection agreement vs {}: {:.1}% ({agreeing}/{} cells at {} ranks)",
            report.machine,
            report.agreement * 100.0,
            report.cells.len(),
            report.ranks,
        );
    } else if args.has("json") {
        println!("{}", serde_json::to_string_pretty(&fit).map_err(|e| e.to_string())?);
    }
    Ok(())
}

fn cmd_ft(args: &Args) -> Result<(), String> {
    let platform = platform_from(args, 0)?;
    let mut cfg = FtConfig::class_d_like(platform.ranks);
    cfg.alltoall_alg = args.flag("alg", cfg.alltoall_alg)?;
    cfg.iterations = args.flag("iters", cfg.iterations)?;
    cfg.seed = args.flag("seed", cfg.seed)?;
    let (rep, _) = run_ft(&platform, &cfg).map_err(|e| e.to_string())?;
    println!(
        "FT on {} ({} ranks, alltoall A{}, {} iters): runtime {:.3} s, compute {:.3} s, MPI {:.3} s ({:.0}%)",
        platform.machine,
        platform.ranks,
        cfg.alltoall_alg,
        cfg.iterations,
        rep.total_runtime,
        rep.compute_time,
        rep.mpi_time,
        rep.mpi_time / rep.total_runtime * 100.0,
    );
    Ok(())
}

fn cmd_trace(args: &Args) -> Result<(), String> {
    let platform = platform_from(args, 0)?;
    let mut cfg = FtConfig::class_d_like(platform.ranks);
    cfg.seed = args.flag("seed", cfg.seed)?;
    let (_, out) = run_ft(&platform, &cfg).map_err(|e| e.to_string())?;
    let tr = CollectiveTrace::from_outcome(
        &out,
        platform.ranks,
        CollectiveKind::Alltoall.label_kind(),
        &TracerConfig::default(),
        ideal_observer,
    );
    let pat = tr.to_measured_pattern("ft_scenario").to_pattern();
    eprintln!(
        "# traced {} calls on {}; max skew {:.1} us",
        tr.len(),
        platform.machine,
        tr.max_observed_skew() * 1e6
    );
    print!("{}", render_pattern_file(&pat));
    Ok(())
}

/// The registry sweep's `--ranks A,B,C` and `--eager`; the sizes
/// straddle the threshold.
fn sweep_config(args: &Args) -> Result<SweepConfig, String> {
    let mut cfg = SweepConfig::default();
    if let Some(v) = args.opt("ranks") {
        // `split` yields at least one item, so the list is never empty.
        cfg.ranks = v
            .split(',')
            .map(|s| s.trim().parse::<usize>().map_err(|_| format!("--ranks: bad rank count '{s}'")))
            .collect::<Result<_, _>>()?;
    }
    cfg.eager_threshold = args.flag("eager", cfg.eager_threshold)?;
    Ok(cfg)
}

fn cmd_lint(args: &Args) -> Result<(), String> {
    if args.has("faults") {
        return cmd_lint_faults(args);
    }
    let summary = sweep_registry(&sweep_config(args)?);
    if args.has("json") {
        println!(
            "{}",
            serde_json::to_string_pretty(&summary).map_err(|e| e.to_string())?
        );
    } else {
        print!("{}", summary.render_table());
        for f in &summary.findings {
            eprintln!(
                "{} alg {} p={} root={} bytes={}:",
                f.collective, f.alg, f.ranks, f.root, f.bytes
            );
            for d in &f.diagnostics {
                eprintln!("  {d}");
            }
        }
    }
    if summary.is_clean() {
        Ok(())
    } else {
        Err(format!("{} error-severity finding(s) across {} case(s)", summary.errors, summary.cases))
    }
}

/// `papctl lint --faults`: the registry-wide fault-cone sweep — per-rank
/// entry crash cones, blast-radius aggregates, and a certified repair of
/// each case's worst crash. Purely static (no simulation); fails when any
/// produced rewrite does not re-verify.
fn cmd_lint_faults(args: &Args) -> Result<(), String> {
    let summary = sweep_faults(&sweep_config(args)?);
    if args.has("json") {
        println!("{}", serde_json::to_string_pretty(&summary).map_err(|e| e.to_string())?);
    } else {
        print!("{}", summary.render_table());
        for row in &summary.case_rows {
            if let RepairVerdict::CertFailed(reason) = &row.repair {
                eprintln!(
                    "CERT FAIL {} alg {} p={} bytes={} victim {}: {reason}",
                    row.collective, row.alg, row.ranks, row.bytes, row.victim
                );
            }
        }
    }
    if summary.is_clean() {
        Ok(())
    } else {
        Err(format!(
            "{} repair(s) failed certification across {} case(s)",
            summary.cert_failed, summary.cases
        ))
    }
}

/// `papctl repair <collective> <alg> --fault crash:R`: build the registry
/// schedule, compute the static crash cone, produce the certified repair,
/// and prove it completes in the engine under the very crash it routes
/// around.
fn cmd_repair(args: &Args) -> Result<(), String> {
    let kind: CollectiveKind = args.arg(0)?;
    let alg: u8 = args.arg(1)?;
    let spec = args
        .opt("fault")
        .ok_or("repair needs --fault crash:R (the rank to route around)")?;
    let crashed: usize = spec
        .strip_prefix("crash:")
        .unwrap_or(spec)
        .parse()
        .map_err(|_| format!("--fault: bad spec '{spec}' (want crash:R)"))?;
    let ranks = args.flag("ranks", 8usize)?;
    let bytes = args.flag("bytes", 1024u64)?;
    let root = args.flag("root", 0usize)?;
    let eager = args.flag("eager", LintConfig::default().eager_threshold)?;
    let seg = args.flag("seg-bytes", pap::collectives::DEFAULT_SEG_BYTES)?;

    let cspec = CollSpec::new(kind, alg, bytes).with_root(root).with_seg_bytes(seg);
    let built = pap::collectives::build(&cspec, ranks).map_err(|e| e.to_string())?;
    let job = Job::new(built.rank_ops.into_iter().map(RankProgram::from_ops).collect());
    let cfg = LintConfig { eager_threshold: eager };

    let cone = crash_cone(&job, &cfg, &[CrashPoint::on_entry(crashed)]);
    println!(
        "{kind} A{alg} {bytes} B, {ranks} ranks, root {root} — crash rank {crashed} on entry"
    );
    if cone.is_empty() {
        println!("static cone: empty — every survivor already completes; nothing to repair");
        return Ok(());
    }
    println!(
        "static cone: {} survivor(s) starved: {:?}",
        cone.starved.len(),
        cone.starved_ranks()
    );
    let out = certified_repair(&job, &cfg, crashed).map_err(|e| e.to_string())?;
    println!(
        "repair: dropped {}, rewired {}, inserted {} op(s)",
        out.dropped, out.rewired, out.inserted
    );
    for note in &out.notes {
        println!("  {note}");
    }
    println!("certified: re-lint clean across all diagnostic classes, residual cone empty");

    // Independent evidence beyond the static certificate: the repaired job
    // must complete in the event-driven engine under the repaired crash.
    let sim = SimConfig {
        faults: FaultSpec::none().with_crash(crashed, 0.0),
        ..SimConfig::default()
    };
    match run_ref(&Platform::simcluster(ranks), &out.job, &sim) {
        Ok(run) => {
            let finish = run.finish.iter().cloned().fold(0.0f64, f64::max);
            println!("engine: repaired job completes under the crash (last rank at {:.3} ms)", finish * 1e3);
            Ok(())
        }
        Err(SimError::Deadlock { blocked, .. }) => Err(format!(
            "engine: repaired job still deadlocks — blocked ranks {:?}",
            blocked.iter().map(|(r, _)| *r).collect::<Vec<_>>()
        )),
        Err(e) => Err(format!("engine: {e}")),
    }
}

/// `papctl figures <name>`: print one of the paper's tables or figures, or
/// the engine scale probe, from its `pap-bench` driver.
fn cmd_figures(name: &str, args: &Args) -> Result<(), String> {
    let scale = scale_from(args)?;
    let out = match name {
        "table1" => bench::table1(),
        "table2" => bench::table2(),
        "fig1" => bench::fig1(scale),
        "fig2" => bench::fig2(),
        "fig3" => bench::fig3(),
        "fig4" => {
            // Optional collectives to draw (default: the paper's three).
            let kinds: Vec<CollectiveKind> = if args.positionals().is_empty() {
                CollectiveKind::PAPER.to_vec()
            } else {
                (0..args.positionals().len()).map(|i| args.arg(i)).collect::<Result<_, _>>()?
            };
            kinds.into_iter().map(|kind| format!("{}\n", bench::fig4(kind, scale))).collect()
        }
        "fig5" => bench::fig5(scale),
        "fig6" => bench::fig6(scale),
        "fig7" => bench::fig7(scale),
        "fig8" => bench::fig8(scale),
        "fig9" => bench::fig9(scale),
        "figs789" => bench::figs789(scale),
        "ext_allgather" => bench::ext_allgather(scale),
        "ext_skew_factor" => bench::ext_skew_factor(scale),
        "scale_table" => {
            let max_ranks = if args.positionals().is_empty() { 102_400 } else { args.arg(0)? };
            bench::scale_table(max_ranks, args.has("json"))
        }
        other => unreachable!("spec() rejects figure '{other}'"),
    };
    print!("{out}");
    Ok(())
}

/// The figure drivers' [`Scale`]: `--ranks`, `--nrep`, `--seed`, `--quick`,
/// or `--full` for the paper's 1024 ranks at full grids.
fn scale_from(args: &Args) -> Result<Scale, String> {
    let full = args.has("full");
    if let Some(other) = ["ranks", "quick"].into_iter().find(|f| full && args.has(f)) {
        return Err(format!("--full sets 1024 ranks at full grids; it conflicts with --{other}"));
    }
    let d = Scale::default();
    Ok(Scale {
        ranks: if full { 1024 } else { args.flag("ranks", d.ranks)? },
        nrep: args.flag("nrep", d.nrep)?,
        quick: args.has("quick"),
        seed: args.flag("seed", d.seed)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parse a `bench` command line.
    fn args(v: &[&str]) -> Args {
        Args::parse(v.iter().map(|s| s.to_string()).collect(), &spec("bench").unwrap()).unwrap()
    }

    #[test]
    fn parses_positionals_and_flags() {
        let a = args(&["hydra", "reduce", "--ranks", "128"]);
        assert_eq!(a.pos(0).unwrap(), "hydra");
        assert_eq!(a.pos(1).unwrap(), "reduce");
        assert_eq!(a.flag("ranks", 0usize), Ok(128));
        assert_eq!(a.pos(2).unwrap_err(), "missing <alg>");
        // A flag the command does not take, or a value that does not
        // parse, is an error naming it instead of a silent default.
        let raw = ["hydra", "reduce", "--quickish"].map(String::from).to_vec();
        assert!(Args::parse(raw, &spec("bench").unwrap()).unwrap_err().contains("--quickish"));
        let bad = args(&["hydra", "--ranks", "12x"]);
        assert!(platform_from(&bad, 0).unwrap_err().contains("--ranks"));
    }

    #[test]
    fn flag_defaults_apply() {
        let a = args(&["hydra"]);
        assert_eq!(a.flag("nrep", 3usize), Ok(3));
        assert_eq!(a.flag("shape", "no_delay".to_string()).unwrap(), "no_delay");
    }

    #[test]
    fn backend_flag_selects_model() {
        let a = args(&["simcluster", "--backend", "model"]);
        let p = platform_from(&a, 0).unwrap();
        let cfg = bench_config(&a, &p, 3).unwrap();
        assert_eq!(cfg.backend, Backend::Model);
        let default = bench_config(&args(&["simcluster"]), &p, 3).unwrap();
        assert_eq!(default.backend, Backend::Sim);
        assert!(bench_config(&args(&["simcluster", "--backend", "magic"]), &p, 3).is_err());
    }

    #[test]
    fn platform_from_parses_machines() {
        let a = args(&["galileo100", "--ranks", "32"]);
        let p = platform_from(&a, 0).unwrap();
        assert_eq!(p.machine.name(), "Galileo100");
        assert_eq!(p.ranks, 32);
        assert!(platform_from(&args(&["nonsense"]), 0).is_err());
    }

    #[test]
    fn figure_scale_flags() {
        let parse = |v: &[&str]| {
            Args::parse(v.iter().map(|s| s.to_string()).collect(), &spec("figures fig5").unwrap())
        };
        let s = scale_from(&parse(&["--ranks", "64", "--nrep", "5", "--quick", "--seed", "9"]).unwrap()).unwrap();
        assert_eq!((s.ranks, s.nrep, s.quick, s.seed), (64, 5, true, 9));
        let full = scale_from(&parse(&["--full"]).unwrap()).unwrap();
        assert_eq!((full.ranks, full.quick), (1024, false));
        assert!(scale_from(&parse(&["--full", "--ranks", "32"]).unwrap()).unwrap_err().contains("--ranks"));
        assert!(parse(&["--whatever"]).unwrap_err().contains("--whatever"));
        assert!(spec("figures nosuch").unwrap_err().contains("table1"));
    }
}
