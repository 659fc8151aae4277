//! Sweeps over (algorithm × arrival pattern) with the paper's skew
//! calibration rules.

use std::ops::Range;

use pap_arrival::{generate, ArrivalPattern, Shape};
use pap_collectives::{CollSpec, CollectiveKind};
use pap_sim::Platform;
use serde::{Deserialize, Serialize};

use crate::harness::{measure, measure_with, Backend, BenchConfig, BenchError, Schedule};
use crate::stats::RunStats;

/// How the maximum process skew of the generated patterns is chosen.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SkewPolicy {
    /// A fixed skew in seconds (e.g. derived from an application trace, as
    /// in the Fig. 8 experiments).
    Fixed(f64),
    /// `factor × t̄ᵃ`, where `t̄ᵃ` is the average `NoDelay` runtime over all
    /// algorithms (§III-B; the paper reports the 1.5 factor).
    FactorOfAvg(f64),
    /// Scale each algorithm's pattern to that algorithm's own `NoDelay`
    /// runtime `tᵢ` (§IV-C, the robustness experiments).
    PerAlgorithm,
}

/// One measured cell of a sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct SweepCell {
    /// Algorithm ID.
    pub(crate) alg: u8,
    /// Pattern name (a shape name or a measured-pattern name).
    pub(crate) pattern: String,
    /// The max skew actually applied (seconds).
    pub(crate) skew: f64,
    /// Measurement statistics.
    pub(crate) stats: RunStats,
}

/// Results of one (collective, message size) sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepResult {
    /// Collective kind.
    pub kind: CollectiveKind,
    /// Message size (bytes, collective convention).
    pub bytes: u64,
    /// Algorithm IDs in sweep order.
    pub algs: Vec<u8>,
    /// Pattern names in sweep order.
    pub patterns: Vec<String>,
    /// All cells (algs × patterns).
    pub(crate) cells: Vec<SweepCell>,
}

impl SweepResult {
    /// The cell of (algorithm, pattern), if present.
    pub(crate) fn cell(&self, alg: u8, pattern: &str) -> Option<&SweepCell> {
        self.cells.iter().find(|c| c.alg == alg && c.pattern == pattern)
    }

    /// Mean last delay of a cell (the figure metric).
    pub fn mean_last(&self, alg: u8, pattern: &str) -> Option<f64> {
        self.cell(alg, pattern).map(|c| c.stats.mean_last())
    }
}

/// One (collective, message size) cell of a sweep and the algorithms
/// measured in it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepSpec {
    /// Collective kind.
    pub kind: CollectiveKind,
    /// Message size (bytes, collective convention).
    pub bytes: u64,
    /// Algorithm IDs, in the order the result lists them.
    pub algs: Vec<u8>,
}

/// Derive an independent per-run seed from the base seed and the run's
/// position in the grid (SplitMix64 finalizer). A pure function of
/// `(base, index)`, so the parallel fan-out produces byte-identical output
/// to the sequential loop at any thread count.
pub fn derive_seed(base: u64, index: u64) -> u64 {
    let mut z = base ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// §III-B: the average `NoDelay` runtime `t̄ᵃ` over a set of algorithms,
/// used to size artificial skews. The per-algorithm runs are independent
/// and fan out over [`pap_parallel::par_map`].
pub fn calibrate_avg_runtime(
    platform: &Platform,
    kind: CollectiveKind,
    algs: &[u8],
    bytes: u64,
    cfg: &BenchConfig,
) -> Result<f64, BenchError> {
    if algs.is_empty() {
        return Err(BenchError::NoAlgorithms(kind));
    }
    let times = pap_parallel::par_map(algs, |_, &alg| no_delay(platform, &CollSpec::new(kind, alg, bytes), cfg));
    let mut sum = 0.0;
    for t in times {
        sum += t?.mean_last();
    }
    Ok(sum / algs.len() as f64)
}

/// A calibration unit: `spec` under `NoDelay`, built once and measured with
/// the base seed.
fn no_delay(platform: &Platform, spec: &CollSpec, cfg: &BenchConfig) -> Result<RunStats, BenchError> {
    let nodelay = generate(Shape::NoDelay, platform.ranks, 0.0, 0);
    measure(platform, spec, &nodelay, cfg)
}

/// Run the full (algorithms × shapes) sweep for one collective and message
/// size, with patterns sized by `policy`. Extra named patterns (e.g. the
/// traced FT-Scenario) can be appended via `extra_patterns`; their delays
/// are used as-is. This is [`sweep_cells`] with one cell.
#[allow(clippy::too_many_arguments)]
pub fn sweep(
    platform: &Platform,
    kind: CollectiveKind,
    algs: &[u8],
    shapes: &[Shape],
    bytes: u64,
    policy: SkewPolicy,
    extra_patterns: &[ArrivalPattern],
    cfg: &BenchConfig,
) -> Result<SweepResult, BenchError> {
    let cell = SweepSpec { kind, bytes, algs: algs.to_vec() };
    let mut results = sweep_cells(platform, std::slice::from_ref(&cell), shapes, policy, extra_patterns, cfg);
    results.pop().expect("one result per cell")
}

/// Run the (algorithms × patterns) sweep of every cell, each with patterns
/// sized by `policy`, and return one result per cell in input order.
///
/// The work fans out over [`pap_parallel::par_map`] in (cell, algorithm)
/// units, in two phases. A calibration unit builds its algorithm's schedule
/// and measures it under `NoDelay` with the base seed; a grid unit builds
/// it once more, once the cell's skews are known, and runs every pattern ×
/// repetition against that one build, with the harmonized starts and
/// pattern delays as run inputs. So a schedule is built at most twice per
/// (algorithm, size), and each worker holds one job at a time. Only a sweep
/// with fewer than four algorithms per worker splits an algorithm's
/// patterns over several grid units, one build each. Grid cell `(ai, pi)`
/// derives its seed from `ai · npatterns + pi`, so the result is
/// byte-identical at any thread count and unit split.
pub fn sweep_cells(
    platform: &Platform,
    cells: &[SweepSpec],
    shapes: &[Shape],
    policy: SkewPolicy,
    extra_patterns: &[ArrivalPattern],
    cfg: &BenchConfig,
) -> Vec<Result<SweepResult, BenchError>> {
    let p = platform.ranks;
    let spec = |c: &SweepSpec, ai: usize| CollSpec::new(c.kind, c.algs[ai], c.bytes);

    // Phase 1: each algorithm's NoDelay runtime sizes the skews.
    let calibrated: Vec<Vec<Result<RunStats, BenchError>>> = match policy {
        SkewPolicy::Fixed(_) => cells.iter().map(|_| Vec::new()).collect(),
        SkewPolicy::FactorOfAvg(_) | SkewPolicy::PerAlgorithm => {
            let units: Vec<(&SweepSpec, usize)> =
                cells.iter().flat_map(|c| (0..c.algs.len()).map(move |ai| (c, ai))).collect();
            let mut runs =
                pap_parallel::par_map(&units, |_, &(c, ai)| no_delay(platform, &spec(c, ai), cfg)).into_iter();
            cells.iter().map(|c| runs.by_ref().take(c.algs.len()).collect()).collect()
        }
    };

    // Per cell: the skews, then each distinct skew's shape patterns, shared
    // across the cell's algorithms. Under Fixed/FactorOfAvg every algorithm
    // faces the same skew, so per-algorithm generation would repeat
    // identical O(p) work. Patterns come from the *base* seed: every
    // algorithm must face the same pattern.
    struct Plan {
        /// The calibration stats, reused as the grid's `NoDelay` column on
        /// the analytical backend, which is deterministic and independent
        /// of the seed. The simulator draws its noise from the grid cell's
        /// derived seed, so it measures that column anew.
        nodelay: Option<Vec<RunStats>>,
        rows: Vec<Vec<ArrivalPattern>>,
        row_of: Vec<usize>,
    }
    let plans: Vec<Result<Plan, BenchError>> = cells
        .iter()
        .zip(calibrated)
        .map(|(c, calibrated)| {
            if c.algs.is_empty() {
                return Err(BenchError::NoAlgorithms(c.kind));
            }
            let calibrated: Vec<RunStats> = calibrated.into_iter().collect::<Result<_, _>>()?;
            let per_alg_skew: Vec<f64> = match policy {
                SkewPolicy::Fixed(s) => vec![s; c.algs.len()],
                SkewPolicy::FactorOfAvg(f) => {
                    let mut sum = 0.0;
                    for s in &calibrated {
                        sum += s.mean_last();
                    }
                    vec![f * (sum / c.algs.len() as f64); c.algs.len()]
                }
                SkewPolicy::PerAlgorithm => calibrated.iter().map(|s| s.mean_last()).collect(),
            };
            let mut row_skew_bits: Vec<u64> = Vec::new();
            let mut rows: Vec<Vec<ArrivalPattern>> = Vec::new();
            let row_of = per_alg_skew
                .iter()
                .map(|&skew| {
                    let bits = skew.to_bits();
                    if let Some(i) = row_skew_bits.iter().position(|&b| b == bits) {
                        return i;
                    }
                    row_skew_bits.push(bits);
                    rows.push(
                        shapes
                            .iter()
                            .map(|&shape| {
                                let s = if shape == Shape::NoDelay { 0.0 } else { skew };
                                generate(shape, p, s, cfg.seed)
                            })
                            .collect(),
                    );
                    rows.len() - 1
                })
                .collect();
            let nodelay = (cfg.backend == Backend::Model && !calibrated.is_empty()).then_some(calibrated);
            Ok(Plan { nodelay, rows, row_of })
        })
        .collect();

    // Phase 2: every calibrated cell's grid, one unit per algorithm, or per
    // chunk of an algorithm's patterns when there are too few algorithms
    // to give each worker four units (a one-cell sweep): an idle worker at
    // the tail costs more than one more build.
    let npat = shapes.len() + extra_patterns.len();
    let swept: Vec<(&SweepSpec, &Plan)> =
        cells.iter().zip(&plans).filter_map(|(c, plan)| Some((c, plan.as_ref().ok()?))).collect();
    let workers = if pap_parallel::in_worker() { 1 } else { pap_parallel::threads() };
    let nalgs: usize = swept.iter().map(|(c, _)| c.algs.len()).sum();
    let chunks = if workers < 2 { 1 } else { (4 * workers).div_ceil(nalgs.max(1)).clamp(1, npat.max(1)) };
    let grid_units: Vec<(&SweepSpec, &Plan, usize, Range<usize>)> = swept
        .into_iter()
        .flat_map(|(c, plan)| (0..c.algs.len()).map(move |ai| (c, plan, ai)))
        .flat_map(|(c, plan, ai)| {
            (0..chunks).map(move |k| (c, plan, ai, k * npat / chunks..(k + 1) * npat / chunks))
        })
        .collect();
    let mut grids = pap_parallel::par_map(&grid_units, |_, &(c, plan, ai, ref pats)| {
        let spec = spec(c, ai);
        let schedule = match cfg.backend {
            Backend::Sim => Some(Schedule::build(&spec, p)?),
            Backend::Model => None,
        };
        let mut out = Vec::with_capacity(pats.len());
        for pi in pats.clone() {
            let (name, pattern) = match shapes.get(pi) {
                Some(&shape) => {
                    if let (Shape::NoDelay, Some(nd)) = (shape, &plan.nodelay) {
                        // Calibration already ran this exact measurement.
                        let (alg, pattern, stats) = (c.algs[ai], shape.name().to_string(), nd[ai].clone());
                        out.push(SweepCell { alg, pattern, skew: 0.0, stats });
                        continue;
                    }
                    (shape.name(), &plan.rows[plan.row_of[ai]][pi])
                }
                None => {
                    let extra = &extra_patterns[pi - shapes.len()];
                    (extra.name.as_str(), extra)
                }
            };
            let run_cfg = cfg.clone().with_seed(derive_seed(cfg.seed, (ai * npat + pi) as u64));
            let stats = measure_with(platform, &spec, schedule.as_ref(), pattern, &run_cfg)?;
            // Stream completed spans out of the bounded rings between cells;
            // a long sweep would otherwise overflow them before a final
            // drain. No-op (one uncontended lock) unless a span stream is
            // installed.
            pap_obs::pump_spans();
            let skew = pattern.max_skew();
            out.push(SweepCell { alg: c.algs[ai], pattern: name.to_string(), skew, stats });
        }
        Ok::<_, BenchError>(out)
    })
    .into_iter();

    let mut pattern_names: Vec<String> = shapes.iter().map(|s| s.name().to_string()).collect();
    pattern_names.extend(extra_patterns.iter().map(|e| e.name.clone()));
    cells
        .iter()
        .zip(plans)
        .map(|(c, plan)| {
            plan?;
            // Take every unit of the cell before failing, so a failed unit
            // does not shift the next cell's units.
            let units: Vec<_> = grids.by_ref().take(c.algs.len() * chunks).collect();
            let swept = units.into_iter().collect::<Result<Vec<_>, _>>()?.concat();
            Ok(SweepResult {
                kind: c.kind,
                bytes: c.bytes,
                algs: c.algs.clone(),
                patterns: pattern_names.clone(),
                cells: swept,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_is_positive_and_scales_with_size() {
        let platform = Platform::simcluster(8);
        let cfg = BenchConfig::simulation();
        let algs = [1u8, 2, 3];
        let small = calibrate_avg_runtime(&platform, CollectiveKind::Reduce, &algs, 64, &cfg).unwrap();
        let large = calibrate_avg_runtime(&platform, CollectiveKind::Reduce, &algs, 1 << 20, &cfg).unwrap();
        assert!(small > 0.0);
        assert!(large > small * 5.0, "1 MiB ({large}) should dwarf 64 B ({small})");
    }

    #[test]
    fn sweep_produces_full_grid() {
        let platform = Platform::simcluster(8);
        let cfg = BenchConfig::simulation();
        let shapes = [Shape::NoDelay, Shape::Ascending, Shape::LastDelayed];
        let res = sweep(
            &platform,
            CollectiveKind::Alltoall,
            &[1, 2, 3],
            &shapes,
            128,
            SkewPolicy::FactorOfAvg(1.5),
            &[],
            &cfg,
        )
        .unwrap();
        assert_eq!(res.cells.len(), 9);
        assert_eq!(res.patterns.len(), 3);
        // The flattened fan-out must preserve the sequential grid order:
        // algorithm-major, pattern-minor.
        let order: Vec<(u8, &str)> = res.cells.iter().map(|c| (c.alg, c.pattern.as_str())).collect();
        let expected: Vec<(u8, &str)> =
            [1u8, 2, 3].iter().flat_map(|&a| shapes.iter().map(move |s| (a, s.name()))).collect();
        assert_eq!(order, expected);
        assert!(res.mean_last(3, "ascending").unwrap() > 0.0);
        assert!(res.cell(3, "bogus").is_none());
        // Non-NoDelay cells carry the calibrated skew.
        let skew = res.cell(1, "ascending").unwrap().skew;
        assert!(skew > 0.0);
        assert_eq!(res.cell(2, "ascending").unwrap().skew, skew, "FactorOfAvg is shared");
    }

    #[test]
    fn parallel_sweep_is_byte_identical_to_sequential() {
        // Real-machine config: noise and clock generation consume the seed,
        // so this exercises the per-cell seed derivation rather than
        // trivially-equal noise-free runs. The serialized result must not
        // change with the thread count.
        let platform = Platform::hydra(8);
        let cfg = BenchConfig::real_machine(2).with_seed(0x5EED);
        let ft = ArrivalPattern::new(
            "ft_scenario",
            vec![0.0, 1e-4, 2e-4, 0.5e-4, 0.0, 3e-5, 0.0, 1e-5],
        );
        let run = || {
            let res = sweep(
                &platform,
                CollectiveKind::Reduce,
                &[1, 5, 6],
                &[Shape::NoDelay, Shape::Ascending, Shape::Random],
                1024,
                SkewPolicy::FactorOfAvg(1.5),
                std::slice::from_ref(&ft),
                &cfg,
            )
            .unwrap();
            serde_json::to_string(&res).unwrap()
        };
        let before = pap_parallel::threads();
        pap_parallel::set_threads(1);
        let sequential = run();
        for n in [2, 3, 8] {
            pap_parallel::set_threads(n);
            assert_eq!(run(), sequential, "thread count {n} changed the serialized sweep");
        }
        pap_parallel::set_threads(before);
    }

    #[test]
    fn a_multi_cell_sweep_equals_its_one_cell_sweeps() {
        // Seeds do not depend on a cell's position, and a
        // failing cell (no algorithms, or one that does not build) does not
        // shift its neighbours' units.
        let platform = Platform::hydra(8);
        let cfg = BenchConfig::real_machine(2).with_seed(0x5EED);
        let shapes = [Shape::NoDelay, Shape::Ascending, Shape::LastDelayed];
        let cells = [
            SweepSpec { kind: CollectiveKind::Reduce, bytes: 64, algs: vec![1, 5] },
            SweepSpec { kind: CollectiveKind::Bcast, bytes: 64, algs: vec![] },
            SweepSpec { kind: CollectiveKind::Reduce, bytes: 64, algs: vec![5, 99] },
            SweepSpec { kind: CollectiveKind::Alltoall, bytes: 128, algs: vec![1, 3] },
        ];
        let policy = SkewPolicy::FactorOfAvg(1.5);
        let swept = sweep_cells(&platform, &cells, &shapes, policy, &[], &cfg);
        assert_eq!(swept.len(), cells.len());
        for (cell, got) in cells.iter().zip(&swept) {
            let alone = sweep(&platform, cell.kind, &cell.algs, &shapes, cell.bytes, policy, &[], &cfg);
            match (got, alone) {
                (Ok(got), Ok(alone)) => assert_eq!(
                    serde_json::to_string(got).unwrap(),
                    serde_json::to_string(&alone).unwrap(),
                    "{cell:?}"
                ),
                (Err(got), Err(alone)) => assert_eq!(got.to_string(), alone.to_string(), "{cell:?}"),
                (got, alone) => panic!("{cell:?}: {:?} vs {:?}", got.as_ref().err(), alone.err()),
            }
        }
        assert!(matches!(swept[1], Err(BenchError::NoAlgorithms(CollectiveKind::Bcast))));
        assert!(matches!(swept[2], Err(BenchError::Build(_))));
    }

    #[test]
    fn empty_algorithm_lists_are_an_error_under_every_policy() {
        let platform = Platform::simcluster(4);
        let cfg = BenchConfig::simulation();
        for policy in [SkewPolicy::Fixed(1e-5), SkewPolicy::FactorOfAvg(1.0), SkewPolicy::PerAlgorithm] {
            let err = sweep(&platform, CollectiveKind::Barrier, &[], &Shape::SUITE, 0, policy, &[], &cfg)
                .unwrap_err();
            assert_eq!(err.to_string(), "MPI_Barrier has no selectable algorithms");
        }
        let err = calibrate_avg_runtime(&platform, CollectiveKind::Bcast, &[], 64, &cfg).unwrap_err();
        assert!(matches!(err, BenchError::NoAlgorithms(CollectiveKind::Bcast)), "{err}");
    }

    #[test]
    fn per_algorithm_policy_gives_each_its_own_skew() {
        let platform = Platform::simcluster(8);
        let cfg = BenchConfig::simulation();
        // Linear (1) and Bruck (3) have very different NoDelay runtimes at
        // this size, so their robustness skews must differ.
        let res = sweep(
            &platform,
            CollectiveKind::Alltoall,
            &[1, 3],
            &[Shape::Ascending],
            16 * 1024,
            SkewPolicy::PerAlgorithm,
            &[],
            &cfg,
        )
        .unwrap();
        let s1 = res.cell(1, "ascending").unwrap().skew;
        let s3 = res.cell(3, "ascending").unwrap().skew;
        assert_ne!(s1, s3);
    }

    #[test]
    fn extra_patterns_are_measured_verbatim() {
        let platform = Platform::simcluster(4);
        let cfg = BenchConfig::simulation();
        let ft = ArrivalPattern::new("ft_scenario", vec![0.0, 1e-4, 2e-4, 0.5e-4]);
        let res = sweep(
            &platform,
            CollectiveKind::Reduce,
            &[5],
            &[Shape::NoDelay],
            256,
            SkewPolicy::Fixed(1e-4),
            std::slice::from_ref(&ft),
            &cfg,
        )
        .unwrap();
        assert_eq!(res.patterns, vec!["no_delay".to_string(), "ft_scenario".to_string()]);
        assert_eq!(res.cell(5, "ft_scenario").unwrap().skew, ft.max_skew());
    }
}
