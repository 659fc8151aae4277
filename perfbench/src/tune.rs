//! The `tune` workload: the paper's offline pipeline (Fig. 4/6), i.e.
//! `tune_machine` on the Hydra preset at 64 ranks with the default plan,
//! a noisy "real machine" harness and the simulator backend, on 2 threads.

use std::time::Instant;

use pap_arrival::{generate, ArrivalPattern, Shape};
use pap_clocksync::{harmonize_starts, observe, sync_cluster, ClusterClocks};
use pap_collectives::registry::experiment_ids;
use pap_collectives::{build, CollSpec, TAG_SPAN};
use pap_core::{tune_machine, TunePlan, TuneRecord};
use pap_microbench::sweep::derive_seed;
use pap_microbench::{BenchConfig, SkewPolicy, START_TARGET};
use pap_sim::{run_ref, Job, Label, MachineId, Op, Platform, RankProgram, SimConfig};

use crate::report::Outcome;
use crate::stats::median;
use crate::{host, trace};

/// Ranks of the tuned platform.
pub const RANKS: usize = 64;
/// Worker threads of the measured passes.
pub const THREADS: usize = 2;
/// Host seconds of one 2-thread pass on the reference host (2-core x86-64
/// VM); sets how many passes fit in `--seconds`. Fixed, so a slow host
/// does the same work as a fast one.
const NOMINAL_PASS_S: f64 = 2.5;
/// Set-up repetitions (median reported).
const SETUPS: usize = 5;

/// The tuned platform.
pub fn platform() -> Platform {
    Platform::preset(MachineId::Hydra, RANKS)
}

/// The harness configuration: noise, drifting clocks, HCA3, harmonize,
/// three repetitions per cell, seeded from the benchmark seed.
pub fn config(seed: u64) -> BenchConfig {
    BenchConfig::real_machine(3).with_seed(seed)
}

/// Cells of the tuning output: algorithms × shapes summed over the plan's
/// (collective, size) grid. Skew-calibration runs are overhead, not
/// output, so removing them shows as a higher rate.
pub fn output_cells(plan: &TunePlan) -> u64 {
    let algs: usize = plan.kinds.iter().map(|&k| experiment_ids(k).len()).sum();
    (algs * plan.sizes.len() * plan.shapes.len()) as u64
}

/// One tune pass at `threads` threads: wall seconds and records.
pub fn pass(threads: usize, cfg: &BenchConfig) -> Result<(f64, Vec<TuneRecord>), String> {
    pap_parallel::set_threads(threads);
    let platform = platform();
    let t = Instant::now();
    let (_, records) = tune_machine(&platform, &TunePlan::default(), cfg)?;
    Ok((t.elapsed().as_secs_f64(), records))
}

/// First difference between two tuning outputs (decisions and the d̂
/// evidence behind them, compared bit for bit), or `None` if identical.
pub fn table_diff(a: &[TuneRecord], b: &[TuneRecord]) -> Option<String> {
    if a.len() != b.len() {
        return Some(format!("{} vs {} cells", a.len(), b.len()));
    }
    for (x, y) in a.iter().zip(b) {
        let cell = format!("{:?} @ {} B", x.entry.kind, x.entry.bytes);
        if (x.entry.kind, x.entry.bytes) != (y.entry.kind, y.entry.bytes) {
            return Some(format!("grid order differs at {cell}"));
        }
        if x.entry.alg != y.entry.alg || x.status_quo != y.status_quo {
            return Some(format!("{cell}: pick A{} vs A{}", x.entry.alg, y.entry.alg));
        }
        let bits = |r: &TuneRecord| -> Vec<u64> {
            r.matrix
                .values
                .iter()
                .flatten()
                .map(|v| v.to_bits())
                .collect()
        };
        if bits(x) != bits(y) {
            return Some(format!("{cell}: evidence matrices differ"));
        }
    }
    None
}

/// The untraced workload run.
pub fn run(seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let cfg = config(seed);
    let plan = TunePlan::default();
    let cells = output_cells(&plan);

    // The reference: pass 0's seed on one thread, first, so its peak RSS
    // is that of a fresh process. With two threads the peak varies with how
    // many allocator arenas the short-lived workers happen to touch (20.5
    // or 24 MiB in otherwise identical runs); one thread's does not.
    let passes = ((seconds / NOMINAL_PASS_S).round() as usize).max(3);
    let pass_config = |i: usize| config(derive_seed(seed, i as u64));
    let reference = match pass(1, &pass_config(0)) {
        Ok((secs, records)) => {
            out.attempt(cells, 0);
            out.info("tune_1t_pass_s", secs, "s");
            Some(records)
        }
        Err(e) => {
            out.attempt(cells, cells);
            out.check("tune_1thread_pass", false, e);
            None
        }
    };
    let peak_rss = host::peak_rss_mib(None);

    // Set-up: what precedes a 2-thread pass — platform construction, pool
    // spin-up and a one-cell warm-up tune. Median of several.
    pap_parallel::set_threads(THREADS);
    let warm_plan = TunePlan {
        kinds: vec![plan.kinds[0]],
        sizes: vec![plan.sizes[0]],
        ..TunePlan::default()
    };
    let mut setups = Vec::new();
    for _ in 0..SETUPS {
        let t = Instant::now();
        let platform = platform();
        let ok = tune_machine(&platform, &warm_plan, &cfg).is_ok();
        setups.push(t.elapsed().as_secs_f64());
        out.attempt(
            output_cells(&warm_plan),
            if ok { 0 } else { output_cells(&warm_plan) },
        );
    }

    // Pass `i` tunes with seed `derive_seed(seed, i)`: tune cost depends
    // on the seed (noise draws, skews), so averaging over several seeds in
    // every run keeps runs with different `--seed`s comparable. Pass 0 is
    // checked against the 1-thread reference.
    let mut total_s = 0.0;
    let mut problem = None;
    for i in 0..passes {
        match pass(THREADS, &pass_config(i)) {
            Ok((secs, records)) => {
                out.attempt(cells, 0);
                total_s += secs;
                if i == 0 {
                    problem = reference.as_ref().and_then(|r| table_diff(r, &records));
                }
            }
            Err(e) => {
                out.attempt(cells, cells);
                total_s = f64::NAN;
                problem.get_or_insert(e);
            }
        }
    }
    out.check(
        "tune_table_equals_1thread_table",
        reference.is_some() && problem.is_none(),
        problem
            .unwrap_or_else(|| format!("{THREADS}-thread table identical to the 1-thread table")),
    );

    let pass_s = total_s / passes as f64;
    out.metric("setup_s", median(&setups).unwrap_or(f64::NAN), "s");
    out.metric("peak_rss_mib", peak_rss.unwrap_or(f64::NAN), "MiB");
    out.metric("rate_per_s", cells as f64 / pass_s, "1/s");
    out.metric("latency_ms", pass_s * 1e3, "ms");
    out.info("cells_per_s", cells as f64 / pass_s, "1/s");
    out.info("tune_passes", passes as f64, "count");
    out.info("tune_output_cells", cells as f64, "count");
    out
}

/// Counts of a re-enacted tune; its layer times are in the trace.
#[derive(Debug, Default)]
pub struct Reenactment {
    /// `measure` calls re-enacted.
    pub cells: u64,
    /// Grid cells whose re-enacted d̂ differs from `tune_machine`'s evidence.
    pub mismatches: u64,
}

/// Span names of the re-enacted layers, in call order.
pub const REENACT_SPANS: [&str; 6] = [
    "arrival.generate",
    "clocksync.sync",
    "collectives.build",
    "sim.job",
    "sim.run_ref",
    "microbench.observe",
];

/// Re-enact every `measure` call of a 1-thread tune from public calls —
/// `generate`, `sync_cluster`, `harmonize_starts`, `build`, `run_ref` —
/// with the same seeds, tags and patterns as `sweep`, with a span around
/// each layer call. The d̂ of every grid cell is compared with `records`
/// bit for bit, so a breakdown that stopped measuring what `tune_machine`
/// measures shows.
pub fn reenact(cfg: &BenchConfig, records: &[TuneRecord]) -> Result<Reenactment, String> {
    let platform = platform();
    let plan = TunePlan::default();
    let p = platform.ranks;
    let mut r = Reenactment::default();
    let SkewPolicy::FactorOfAvg(factor) = plan.skew else {
        return Err("the re-enactment follows the default FactorOfAvg skew policy".into());
    };
    let mut record_iter = records.iter();
    for &kind in &plan.kinds {
        for &bytes in &plan.sizes {
            let algs = experiment_ids(kind);
            let record = record_iter.next().ok_or("fewer records than plan cells")?;
            // Skew calibration: each algorithm's NoDelay runtime.
            let mut sum = 0.0;
            for (i, &alg) in algs.iter().enumerate() {
                let spec = CollSpec::new(kind, alg, bytes).with_tag_base(i as u64 * 64 * TAG_SPAN);
                let nodelay =
                    trace::span("arrival.generate", || generate(Shape::NoDelay, p, 0.0, 0));
                sum += measure(&platform, &spec, &nodelay, cfg, &mut r)?;
            }
            let skew = factor * (sum / algs.len() as f64);
            let patterns: Vec<ArrivalPattern> = trace::span("arrival.generate", || {
                plan.shapes
                    .iter()
                    .map(|&s| {
                        generate(s, p, if s == Shape::NoDelay { 0.0 } else { skew }, cfg.seed)
                    })
                    .collect()
            });
            let mut gi = 0u64;
            for (ai, &alg) in algs.iter().enumerate() {
                for (si, pattern) in patterns.iter().enumerate() {
                    let spec = CollSpec::new(kind, alg, bytes)
                        .with_tag_base((ai as u64 * 64 + si as u64) * 8 * TAG_SPAN);
                    let run_cfg = cfg.clone().with_seed(derive_seed(cfg.seed, gi));
                    gi += 1;
                    let d = measure(&platform, &spec, pattern, &run_cfg, &mut r)?;
                    if record.matrix.values[si][ai].to_bits() != d.to_bits() {
                        r.mismatches += 1;
                    }
                }
            }
        }
    }
    Ok(r)
}

/// One re-enacted `measure` (sim backend, clock sync on): mean d̂ in
/// seconds.
fn measure(
    platform: &Platform,
    spec: &CollSpec,
    pattern: &ArrivalPattern,
    cfg: &BenchConfig,
    r: &mut Reenactment,
) -> Result<f64, String> {
    r.cells += 1;
    let p = platform.ranks;
    let (clocks, calib, starts) = trace::span("clocksync.sync", || {
        let clocks = ClusterClocks::realistic(platform.occupied_nodes(), cfg.seed ^ 0xC10C);
        let calib = sync_cluster(&clocks, &cfg.hca3, cfg.seed ^ 0x5A5A);
        let starts = harmonize_starts(
            &clocks,
            &calib,
            p,
            |rk| platform.node_of(rk),
            START_TARGET,
            0.0,
        );
        (clocks, calib, starts)
    });
    let built =
        trace::span("collectives.build", || build(spec, p)).map_err(|e| format!("build: {e}"))?;
    let label = Label {
        kind: spec.kind.label_kind(),
        seq: 0,
    };
    let job = trace::span("sim.job", || {
        let programs = built
            .rank_ops
            .into_iter()
            .enumerate()
            .map(|(rk, ops)| {
                let mut prog = RankProgram::new();
                prog.push_anon(vec![
                    Op::SleepUntil { time: starts[rk] },
                    Op::delay(pattern.delay_of(rk)),
                ]);
                prog.push_labeled(label, ops);
                prog
            })
            .collect();
        Job::new(programs)
    });
    let noise = cfg.noise.unwrap_or(platform.default_noise);
    let mut total = 0.0;
    for rep in 0..cfg.nrep {
        let sim_cfg = SimConfig {
            seed: cfg.seed.wrapping_add(rep as u64).wrapping_mul(0x9E37_79B9),
            noise,
            ..SimConfig::default()
        };
        let outcome = trace::span("sim.run_ref", || run_ref(platform, &job, &sim_cfg))
            .map_err(|e| format!("sim: {e}"))?;
        total += trace::span("microbench.observe", || {
            let (mut max_a, mut max_e) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
            for rec in outcome.phases_for_iter(label) {
                let node = platform.node_of(rec.rank);
                max_a = max_a.max(observe(&clocks, &calib, node, rec.enter));
                max_e = max_e.max(observe(&clocks, &calib, node, rec.exit));
            }
            max_e - max_a
        });
    }
    Ok(total / cfg.nrep as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pap_collectives::CollectiveKind;

    fn small_tune(seed: u64) -> Vec<TuneRecord> {
        let plan = TunePlan {
            kinds: vec![CollectiveKind::Reduce],
            sizes: vec![64, 4096],
            shapes: vec![Shape::NoDelay, Shape::LastDelayed],
            ..TunePlan::default()
        };
        let cfg = BenchConfig::simulation().with_seed(seed);
        tune_machine(&Platform::simcluster(8), &plan, &cfg)
            .expect("tune")
            .1
    }

    #[test]
    fn identical_tunes_have_no_table_diff() {
        assert_eq!(table_diff(&small_tune(1), &small_tune(1)), None);
    }

    #[test]
    fn table_diff_reports_picks_evidence_and_shape() {
        let a = small_tune(1);
        let mut b = a.clone();
        b[1].entry.alg = b[1].entry.alg.wrapping_add(1);
        assert!(table_diff(&a, &b).unwrap().contains("pick"));
        let mut c = a.clone();
        c[0].matrix.values[0][0] = f64::from_bits(c[0].matrix.values[0][0].to_bits() ^ 1);
        assert!(table_diff(&a, &c).unwrap().contains("evidence"));
        assert!(table_diff(&a, &a[..1]).unwrap().contains("cells"));
    }

    #[test]
    fn output_cells_count_algorithms_times_sizes_times_shapes() {
        let plan = TunePlan::default();
        let algs: usize = plan.kinds.iter().map(|&k| experiment_ids(k).len()).sum();
        assert_eq!(output_cells(&plan), (algs * 4 * 9) as u64);
    }
}
