//! One driver per table/figure of the paper. Each returns the rendered
//! text; `papctl figures <name>` prints it.

use pap_apps::{run_ft, FtConfig};
use pap_arrival::{generate, Shape};
use pap_clocksync::{sync_cluster, ClusterClocks, Hca3Config};
use pap_collectives::registry::{algorithm, experiment_ids, ALGORITHMS};
use pap_collectives::{CollSpec, CollectiveKind};
use pap_core::report::{render_normalized_table, render_robustness_table, render_runtime_table};
use pap_core::{predict_app_runtime, select, BenchMatrix, SelectionPolicy};
use pap_microbench::{measure, sweep, BenchConfig, SkewPolicy};
use pap_sim::{MachineId, Platform};
use pap_tracer::{synced_observer, CollectiveTrace, TracerConfig};

use crate::Scale;

/// Table I: characteristics of the modelled parallel machines.
pub fn table1() -> String {
    let mut out = String::from(
        "Table I — machine presets (analogues of the paper's Table I)\n\
         Machine      Nodes  Cores/Node  Inter-BW[GB/s]  Inter-Lat[us]  Eager[B]  Noise\n",
    );
    for id in MachineId::ALL {
        let p = Platform::preset(id, 1);
        out.push_str(&format!(
            "{:<12} {:>5}  {:>10}  {:>14.1}  {:>13.2}  {:>8}  {:?}\n",
            p.machine.name(),
            p.nodes,
            p.cores_per_node,
            p.inter.bandwidth / 1e9,
            p.inter.latency * 1e6,
            p.eager_threshold,
            p.default_noise,
        ));
    }
    out
}

/// Table II: algorithm IDs, names and SMPI aliases.
pub fn table2() -> String {
    let mut out = String::from("Table II — algorithm IDs and names (Open MPI 4.1.x numbering)\n");
    let mut last_kind = None;
    for a in ALGORITHMS {
        if last_kind != Some(a.kind) {
            out.push_str(&format!("{}\n", a.kind));
            last_kind = Some(a.kind);
        }
        out.push_str(&format!(
            "  {} {} ({}){}{}\n",
            a.id,
            a.name,
            a.abbrev,
            a.smpi_alias.map(|s| format!("  smpi:{s}")).unwrap_or_default(),
            if a.in_paper_experiments { "" } else { "  [not in paper experiments]" },
        ));
    }
    out
}

/// Platform + FT proxy config for one machine at a given scale. Seeds vary
/// by machine so each machine exhibits its own arrival pattern.
fn ft_setup(machine: MachineId, scale: Scale) -> (Platform, FtConfig) {
    let platform = Platform::preset(machine, scale.ranks);
    let mut cfg = FtConfig::class_d_like(scale.ranks);
    cfg.iterations = if scale.quick { 3 } else { 6 };
    cfg.seed = scale.seed ^ (machine.seed_tag() + 1).wrapping_mul(0x9E37_79B9);
    (platform, cfg)
}

/// Fig. 1: average per-process delay across all FT Alltoall calls on the
/// Galileo100 analogue, observed through HCA3-synchronized clocks.
pub fn fig1(scale: Scale) -> String {
    let (platform, cfg) = ft_setup(MachineId::Galileo100, scale);
    let (_, out) = run_ft(&platform, &cfg).expect("ft run");

    // Timestamps are read through calibrated (imperfect) clocks, as the
    // paper's tracing library does.
    let clocks = ClusterClocks::realistic(platform.occupied_nodes(), scale.seed ^ 0xC10C);
    let calib = sync_cluster(&clocks, &Hca3Config::default(), scale.seed);
    let observer = synced_observer(&clocks, &calib, |r| platform.node_of(r));
    let tr = CollectiveTrace::from_outcome(
        &out,
        platform.ranks,
        CollectiveKind::Alltoall.label_kind(),
        &TracerConfig::default(),
        observer,
    );

    let avg = tr.avg_delays();
    let mp = tr.to_measured_pattern("ft_scenario");
    let (shape, sim) = mp.classify();
    let mut s = format!(
        "Fig. 1 — avg process delay across {} MPI_Alltoall calls in FT on {} with {} processes\n\
         max observed skew: {:.1} us; closest artificial shape: {} (cos {:.2})\n\
         rank, avg_delay_us\n",
        tr.len(),
        platform.machine,
        platform.ranks,
        tr.max_observed_skew() * 1e6,
        shape,
        sim,
    );
    for (r, d) in avg.iter().enumerate() {
        s.push_str(&format!("{r}, {:.3}\n", d * 1e6));
    }
    s
}

/// Fig. 2: an example arrival/exit pattern for 8 processes.
pub fn fig2() -> String {
    let p = 8;
    let platform = Platform::simcluster(p);
    let pat = generate(Shape::Random, p, 200e-6, 42);
    let spec = CollSpec::new(CollectiveKind::Reduce, 5, 1024);
    let cfg = BenchConfig::simulation();
    let stats = measure(&platform, &spec, &pat, &cfg).expect("measure");
    let mut s = format!(
        "Fig. 2 — example arrival pattern with {p} processes (random, max skew 200 us)\n\
         rank, arrival_delay_us\n"
    );
    for (r, d) in pat.delays.iter().enumerate() {
        s.push_str(&format!("{r}, {:.1}\n", d * 1e6));
    }
    s.push_str(&format!(
        "total delay d* = {:.1} us, last delay d^ = {:.1} us (d^ <= d*)\n",
        stats.mean_total() * 1e6,
        stats.mean_last() * 1e6
    ));
    s
}

/// Fig. 3: the eight artificial arrival-pattern shapes.
pub fn fig3() -> String {
    let p = 32;
    let mut s = format!("Fig. 3 — artificial process arrival patterns ({p} processes, unit max skew)\n");
    for shape in Shape::ARTIFICIAL {
        let pat = generate(shape, p, 1.0, 1);
        s.push_str(&format!("{:<14}", shape.name()));
        for d in &pat.delays {
            // 0..9 intensity per rank.
            let level = (d * 9.0).round() as u32;
            s.push_str(&level.to_string());
        }
        s.push('\n');
    }
    s.push_str("(each digit: delay of one rank, 0 = arrives first, 9 = max skew)\n");
    s
}

fn fig4_sizes(scale: Scale) -> Vec<u64> {
    if scale.quick {
        vec![8, 1024, 32 * 1024]
    } else {
        vec![2, 8, 128, 1024, 8192, 32 * 1024, 256 * 1024, 1 << 20]
    }
}

/// Fig. 4: simulation study — the best algorithm per (pattern × size) and
/// its d̂ relative to the algorithm a No-delay-based decision logic would
/// pick, on the noise-free SimCluster.
pub fn fig4(kind: CollectiveKind, scale: Scale) -> String {
    let platform = Platform::simcluster(scale.ranks);
    let cfg = BenchConfig::simulation().with_seed(scale.seed);
    // The paper's experiment set where defined; otherwise (e.g. `fig4
    // bcast`, which §III-C mentions as sensitive) all registered IDs.
    let mut algs = experiment_ids(kind);
    if algs.is_empty() {
        algs = pap_collectives::registry::algorithms(kind).iter().map(|a| a.id).collect();
    }
    let sizes = fig4_sizes(scale);
    let shapes = Shape::SUITE;

    let mut s = format!(
        "Fig. 4 ({kind}) — best algorithm under each arrival pattern, {} processes, skew 1.5·t̄ᵃ\n\
         cell: winning algorithm id, and its d̂ relative to the No-delay winner's d̂ under that pattern\n",
        scale.ranks
    );
    s.push_str("legend:");
    for &a in &algs {
        let info = algorithm(kind, a).expect("registered");
        s.push_str(&format!(" A{a}={}", info.smpi_alias.unwrap_or(info.abbrev)));
    }
    s.push('\n');

    // One independent sweep per size, fanned out; results come back in
    // size order so the rendering below is unchanged.
    let matrices: Vec<BenchMatrix> = pap_parallel::par_map(&sizes, |_, &size| {
        let sw = sweep(&platform, kind, &algs, &shapes, size, SkewPolicy::FactorOfAvg(1.5), &[], &cfg)
            .expect("sweep");
        eprintln!("fig4 {kind}: size {size} done");
        BenchMatrix::from_sweep(&sw)
    });

    s.push_str(&format!("{:<14}", "pattern"));
    for &size in &sizes {
        s.push_str(&format!("  {:>12}", human_size(size)));
    }
    s.push('\n');
    for shape in shapes {
        s.push_str(&format!("{:<14}", shape.name()));
        for m in &matrices {
            let nd_winner = m.best_in("no_delay").expect("no_delay row");
            let winner = m.best_in(shape.name()).expect("pattern row");
            let ratio = m.value(shape.name(), winner).unwrap() / m.value(shape.name(), nd_winner).unwrap();
            s.push_str(&format!("  A{winner} x{ratio:>8.2}"));
        }
        s.push('\n');
    }
    s
}

fn fig5_sizes(scale: Scale) -> Vec<u64> {
    if scale.quick {
        vec![8, 1024]
    } else {
        vec![8, 1024, 1 << 20]
    }
}

const FIG5_SHAPES: [Shape; 6] = [
    Shape::NoDelay,
    Shape::Ascending,
    Shape::Descending,
    Shape::Random,
    Shape::LastDelayed,
    Shape::FirstDelayed,
];

/// Fig. 5: measured runtimes on the Hydra analogue, algorithms × patterns,
/// with the within-5 % good set highlighted.
pub fn fig5(scale: Scale) -> String {
    let platform = Platform::hydra(scale.ranks);
    let cfg = BenchConfig::real_machine(scale.nrep).with_seed(scale.seed);
    let mut s = format!(
        "Fig. 5 — impact of arrival patterns on collective runtimes ({} with {} processes)\n",
        platform.machine, platform.ranks
    );
    // The (collective × size) sweeps are independent: fan out and render
    // each worker's table, then stitch in grid order.
    let grid = fig56_grid(scale);
    let tables = pap_parallel::par_map(&grid, |_, &(kind, size)| {
        let algs = experiment_ids(kind);
        let sw = sweep(&platform, kind, &algs, &FIG5_SHAPES, size, SkewPolicy::FactorOfAvg(1.0), &[], &cfg)
            .expect("sweep");
        eprintln!("fig5 {kind}: size {size} done");
        render_runtime_table(&BenchMatrix::from_sweep(&sw), 0.05)
    });
    for t in tables {
        s.push_str(&t);
        s.push('\n');
    }
    s
}

/// The (collective × size) grid shared by Figs. 5 and 6.
fn fig56_grid(scale: Scale) -> Vec<(CollectiveKind, u64)> {
    let mut grid = Vec::new();
    for kind in CollectiveKind::PAPER {
        for &size in &fig5_sizes(scale) {
            grid.push((kind, size));
        }
    }
    grid
}

/// Fig. 6: robustness — each algorithm gets a pattern scaled to its own
/// No-delay runtime; cells show d̂_pattern/d̂_no_delay − 1 with ±25 %
/// classes.
pub fn fig6(scale: Scale) -> String {
    let platform = Platform::hydra(scale.ranks);
    let cfg = BenchConfig::real_machine(scale.nrep).with_seed(scale.seed);
    let mut s = format!(
        "Fig. 6 — robustness of collective algorithms against arrival patterns ({}, {} processes)\n",
        platform.machine, platform.ranks
    );
    let grid = fig56_grid(scale);
    let tables = pap_parallel::par_map(&grid, |_, &(kind, size)| {
        let algs = experiment_ids(kind);
        let sw = sweep(&platform, kind, &algs, &FIG5_SHAPES, size, SkewPolicy::PerAlgorithm, &[], &cfg)
            .expect("sweep");
        eprintln!("fig6 {kind}: size {size} done");
        render_robustness_table(&BenchMatrix::from_sweep(&sw), 0.25).expect("no_delay row present")
    });
    for t in tables {
        s.push_str(&t);
        s.push('\n');
    }
    s
}

/// Per-machine data shared by Figs. 7–9.
pub struct MachineStudy {
    /// Which machine.
    pub machine: MachineId,
    /// Actual FT runtimes per Alltoall algorithm `(alg, seconds)`.
    pub ft_runtimes: Vec<(u8, f64)>,
    /// Critical-path compute time of the FT run (mpisee-style).
    pub ft_compute: f64,
    /// FT Alltoall call count.
    pub ft_calls: usize,
    /// The (algorithms × patterns incl. FT-Scenario) benchmark matrix at
    /// the FT message size.
    pub matrix: BenchMatrix,
    /// Max skew observed while tracing (sizes the artificial patterns).
    pub traced_skew: f64,
}

/// Run the full §V study for one machine: trace FT, extract the
/// FT-Scenario, benchmark all Alltoall algorithms under the pattern suite
/// + FT-Scenario, and measure actual FT runtimes per algorithm.
pub fn machine_study(machine: MachineId, scale: Scale) -> MachineStudy {
    let (platform, base_cfg) = ft_setup(machine, scale);
    let algs = experiment_ids(CollectiveKind::Alltoall);

    // 1. Trace FT (run with the library-default algorithm, pairwise).
    let (trace_rep, trace_out) = run_ft(&platform, &base_cfg).expect("ft trace run");
    let tr = CollectiveTrace::from_outcome(
        &trace_out,
        platform.ranks,
        CollectiveKind::Alltoall.label_kind(),
        &TracerConfig::default(),
        pap_tracer::ideal_observer,
    );
    let mp = tr.to_measured_pattern("ft_scenario");
    let ft_pattern = mp.to_pattern();
    let traced_skew = tr.max_observed_skew();
    eprintln!("{machine}: traced FT ({} calls, max skew {:.1} us)", tr.len(), traced_skew * 1e6);

    // 2. Benchmark matrix at the FT message size: artificial patterns sized
    //    by the traced skew, plus the FT-Scenario itself.
    let cfg = BenchConfig::real_machine(scale.nrep).with_seed(scale.seed ^ machine.seed_tag());
    let sw = sweep(
        &platform,
        CollectiveKind::Alltoall,
        &algs,
        &Shape::SUITE,
        base_cfg.bytes_per_pair,
        SkewPolicy::Fixed(traced_skew),
        &[ft_pattern],
        &cfg,
    )
    .expect("sweep");
    let matrix = BenchMatrix::from_sweep(&sw);
    eprintln!("{machine}: microbenchmark matrix done");

    // 3. Actual FT runtime per algorithm.
    let mut ft_runtimes = Vec::new();
    for &alg in &algs {
        let mut sum = 0.0;
        let runs = scale.nrep.clamp(1, 3);
        for rep in 0..runs {
            let cfg_a = base_cfg.clone().with_alltoall(alg).with_seed(base_cfg.seed + rep as u64);
            sum += run_ft(&platform, &cfg_a).expect("ft run").0.total_runtime;
        }
        ft_runtimes.push((alg, sum / runs as f64));
        eprintln!("{machine}: FT with A{alg} done");
    }

    MachineStudy {
        machine,
        ft_runtimes,
        ft_compute: trace_rep.compute_time,
        ft_calls: base_cfg.iterations,
        matrix,
        traced_skew,
    }
}

fn render_fig7_section(study: &MachineStudy) -> String {
    let mut s = format!("\n{} :\n  alg   FT_runtime[s]   ubench_no_delay[ms]\n", study.machine);
    for &(alg, rt) in &study.ft_runtimes {
        let ub = study.matrix.value("no_delay", alg).expect("cell");
        s.push_str(&format!("  A{alg}   {rt:>12.3}   {:>18.3}\n", ub * 1e3));
    }
    let ft_best = study.ft_runtimes.iter().min_by(|a, b| a.1.partial_cmp(&b.1).unwrap()).unwrap().0;
    let ub_best = study.matrix.best_in("no_delay").unwrap();
    s.push_str(&format!(
        "  fastest in FT: A{ft_best}; fastest in No-delay microbenchmark: A{ub_best}{}\n",
        if ft_best == ub_best { " (agree)" } else { " (DISAGREE — the paper's point)" }
    ));
    s
}

fn render_fig8_section(study: &MachineStudy) -> String {
    let mut s = format!(
        "\n{} (artificial patterns sized to traced max skew {:.1} us):\n",
        study.machine,
        study.traced_skew * 1e6
    );
    s.push_str(&render_normalized_table(&study.matrix, &["ft_scenario"]));
    let robust = select(&study.matrix, &SelectionPolicy::RobustAverage { exclude: vec!["ft_scenario".into()] })
        .expect("selection");
    let oracle =
        select(&study.matrix, &SelectionPolicy::BestUnderPattern("ft_scenario".into())).expect("selection");
    let ft_best = study.ft_runtimes.iter().min_by(|a, b| a.1.partial_cmp(&b.1).unwrap()).unwrap().0;
    s.push_str(&format!(
        "robust choice: A{robust}; FT-Scenario oracle: A{oracle}; actually fastest in FT: A{ft_best}\n"
    ));
    s
}

/// Fig. 7: FT runtime vs. the No-delay Alltoall micro-benchmark, per
/// algorithm, on the three machines — showing the mismatch.
pub fn fig7(scale: Scale) -> String {
    let mut s = format!(
        "Fig. 7 — FT runtime vs No-delay MPI_Alltoall microbenchmark ({} processes, {} B per pair)\n",
        scale.ranks,
        32 * 1024
    );
    let sections =
        pap_parallel::par_map(&MachineId::REAL, |_, &m| render_fig7_section(&machine_study(m, scale)));
    for sec in sections {
        s.push_str(&sec);
    }
    s
}

/// Fig. 8: normalized Alltoall runtimes under artificial patterns and the
/// traced FT-Scenario, with the per-algorithm `Avg` row.
pub fn fig8(scale: Scale) -> String {
    let mut s = format!(
        "Fig. 8 — normalized Alltoall runtimes with arrival patterns incl. FT-Scenario ({} processes)\n",
        scale.ranks
    );
    let sections =
        pap_parallel::par_map(&MachineId::REAL, |_, &m| render_fig8_section(&machine_study(m, scale)));
    for sec in sections {
        s.push_str(&sec);
    }
    s
}

/// Figs. 7–9 in one pass: the per-machine study (trace + matrix + FT runs)
/// is expensive, so this driver computes it once per machine and renders
/// all three figures.
pub fn figs789(scale: Scale) -> String {
    // The three machine studies (trace + matrix + FT runs) are independent;
    // fan them out, keeping machine order.
    let studies: Vec<MachineStudy> =
        pap_parallel::par_map(&MachineId::REAL, |_, &m| machine_study(m, scale));
    let mut s = format!(
        "Fig. 7 — FT runtime vs No-delay MPI_Alltoall microbenchmark ({} processes, {} B per pair)\n",
        scale.ranks,
        32 * 1024
    );
    for st in &studies {
        s.push_str(&render_fig7_section(st));
    }
    s.push_str(&format!(
        "\nFig. 8 — normalized Alltoall runtimes with arrival patterns incl. FT-Scenario ({} processes)\n",
        scale.ranks
    ));
    for st in &studies {
        s.push_str(&render_fig8_section(st));
    }
    s.push('\n');
    s.push_str(&render_fig9(&studies[0], scale));
    s
}

/// Fig. 9: actual FT runtime vs. projections from the No-delay and the
/// pattern-averaged micro-benchmark times (Hydra).
pub fn fig9(scale: Scale) -> String {
    let study = machine_study(MachineId::Hydra, scale);
    render_fig9(&study, scale)
}

fn render_fig9(study: &MachineStudy, scale: Scale) -> String {
    let mut s = format!(
        "Fig. 9 — actual vs projected FT runtime on {} ({} processes)\n\
         alg   actual[s]   proj_no_delay[s]  err%   proj_avg[s]  err%\n",
        study.machine, scale.ranks
    );
    // Absolute per-pattern average (excluding the held-out FT-Scenario).
    let patterns: Vec<&str> =
        study.matrix.patterns.iter().map(String::as_str).filter(|p| *p != "ft_scenario").collect();
    for &(alg, actual) in &study.ft_runtimes {
        let nd = study.matrix.value("no_delay", alg).expect("cell");
        let avg = patterns.iter().map(|p| study.matrix.value(p, alg).unwrap()).sum::<f64>()
            / patterns.len() as f64;
        let pred = predict_app_runtime(actual, study.ft_compute, study.ft_calls, nd, avg);
        s.push_str(&format!(
            "A{alg}   {:>9.3}   {:>16.3}  {:>4.0}   {:>11.3}  {:>4.0}\n",
            pred.actual,
            pred.predicted_no_delay,
            pred.error_no_delay() * 100.0,
            pred.predicted_avg,
            pred.error_avg() * 100.0,
        ));
    }
    s
}

fn human_size(b: u64) -> String {
    if b >= 1 << 20 {
        format!("{}MiB", b >> 20)
    } else if b >= 1024 {
        format!("{}KiB", b >> 10)
    } else {
        format!("{b}B")
    }
}

/// Extension experiment (beyond the paper): Allgather sensitivity to
/// arrival patterns — the collective family the paper's related work
/// (Qian & Afsahi; Proficz) studies. Rendered like Fig. 5.
pub fn ext_allgather(scale: Scale) -> String {
    let platform = Platform::hydra(scale.ranks);
    let cfg = BenchConfig::real_machine(scale.nrep).with_seed(scale.seed);
    let algs: Vec<u8> = pap_collectives::registry::algorithms(CollectiveKind::Allgather)
        .iter()
        .map(|a| a.id)
        .collect();
    let mut s = format!(
        "Extension — MPI_Allgather under arrival patterns ({}, {} processes)\n",
        platform.machine, platform.ranks
    );
    for &size in &fig5_sizes(scale) {
        let sw = sweep(
            &platform,
            CollectiveKind::Allgather,
            &algs,
            &FIG5_SHAPES,
            size,
            SkewPolicy::FactorOfAvg(1.0),
            &[],
            &cfg,
        )
        .expect("sweep");
        let m = BenchMatrix::from_sweep(&sw);
        s.push_str(&render_runtime_table(&m, 0.05));
        let robust = select(&m, &SelectionPolicy::robust()).expect("selection");
        let nd = select(&m, &SelectionPolicy::NoDelayFastest).expect("selection");
        s.push_str(&format!("robust pick: A{robust}; No-delay pick: A{nd}\n\n"));
        eprintln!("ext_allgather: size {size} done");
    }
    s
}


/// Extension experiment: the §III-B skew-factor ablation. The paper
/// generated patterns with skews {0.5, 1.0, 1.5}·t̄ᵃ and reports only the
/// 1.5 factor "as it had the strongest influence"; this driver quantifies
/// that choice — for each factor, how many (pattern × size) cells elect a
/// different algorithm than No-delay, and the median relative gain.
pub fn ext_skew_factor(scale: Scale) -> String {
    let platform = Platform::simcluster(scale.ranks);
    let cfg = BenchConfig::simulation().with_seed(scale.seed);
    let kind = CollectiveKind::Reduce;
    let algs = experiment_ids(kind);
    let sizes: &[u64] = if scale.quick { &[1024] } else { &[8, 1024, 32 * 1024] };
    let mut s = format!(
        "Extension — skew-factor ablation (§III-B), {} on SimCluster, {} processes\n\
         factor  cells_shifted/total  median_gain_of_shifted\n",
        kind, scale.ranks
    );
    for factor in [0.5, 1.0, 1.5] {
        let mut shifted = 0usize;
        let mut total = 0usize;
        let mut gains: Vec<f64> = Vec::new();
        for &size in sizes {
            let sw = sweep(&platform, kind, &algs, &Shape::SUITE, size, SkewPolicy::FactorOfAvg(factor), &[], &cfg)
                .expect("sweep");
            let m = BenchMatrix::from_sweep(&sw);
            let nd = m.best_in("no_delay").expect("no_delay");
            for shape in Shape::ARTIFICIAL {
                total += 1;
                let w = m.best_in(shape.name()).expect("row");
                if w != nd {
                    shifted += 1;
                    gains.push(m.value(shape.name(), nd).unwrap() / m.value(shape.name(), w).unwrap());
                }
            }
        }
        gains.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let median = if gains.is_empty() { 1.0 } else { gains[gains.len() / 2] };
        s.push_str(&format!("{factor:>6.1}  {shifted:>7}/{total:<11}  {median:>8.2}x\n"));
        eprintln!("ext_skew_factor: factor {factor} done");
    }
    s.push_str("(larger factors shift more cells with larger gains — why the paper reports 1.5)\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_render() {
        let t1 = table1();
        assert!(t1.contains("Hydra") && t1.contains("Discoverer"));
        let t2 = table2();
        assert!(t2.contains("Modified Bruck") && t2.contains("In-order Binary"));
    }

    #[test]
    fn human_sizes() {
        assert_eq!(human_size(8), "8B");
        assert_eq!(human_size(2048), "2KiB");
        assert_eq!(human_size(1 << 20), "1MiB");
    }

    #[test]
    fn fig2_and_fig3_render() {
        let f2 = fig2();
        assert!(f2.contains("last delay"));
        let f3 = fig3();
        assert!(f3.contains("ascending"));
        assert_eq!(f3.lines().count(), 2 + 8);
    }
}
