//! The per-cell measurement loop (Listing 1 of the paper).

use pap_arrival::ArrivalPattern;
use pap_clocksync::{harmonize_starts, sync_cluster, ClusterClocks, Hca3Config};
use pap_collectives::{build, BuildError, CollSpec, CollectiveKind};
use pap_sim::{
    run_with_arrivals, FaultSpec, Job, Label, NoiseModel, Platform, RankProgram, SimConfig, SimError,
};
use serde::{Deserialize, Serialize};

/// Which prediction backend resolves a measurement cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Backend {
    /// The discrete-event simulator (`pap-sim`) — the reference backend.
    #[default]
    Sim,
    /// The closed-form analytical models (`pap-model`) — orders of magnitude
    /// cheaper per cell, cross-validated against the simulator by the
    /// differential test suite.
    Model,
}

impl std::str::FromStr for Backend {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "sim" | "simulator" => Ok(Backend::Sim),
            "model" | "analytical" => Ok(Backend::Model),
            other => Err(format!("unknown backend '{other}' (expected sim|model)")),
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Backend::Sim => "sim",
            Backend::Model => "model",
        })
    }
}

/// Harness configuration.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Measured repetitions.
    pub nrep: usize,
    /// Base RNG seed (noise and clock generation derive from it).
    pub seed: u64,
    /// Noise model for the runs. `None` (field) uses the platform default.
    pub noise: Option<NoiseModel>,
    /// Model drifting clocks + HCA3 + harmonize. When false (the simulation
    /// setting of §III-A), ranks share the perfect global clock and start
    /// exactly on target.
    pub clock_sync: bool,
    /// HCA3 parameters (when `clock_sync`).
    pub hca3: Hca3Config,
    /// Prediction backend: event-driven simulator or analytical model.
    pub backend: Backend,
    /// Runtime faults injected into every repetition (crashes, stalls, link
    /// slowdown windows, noise storms). Fault timestamps are absolute
    /// simulated time; the measured collective starts at [`START_TARGET`]
    /// plus the pattern delay, so scenario builders should offset windows
    /// accordingly. Requires the [`Backend::Sim`] backend.
    pub faults: FaultSpec,
}

/// The harmonized start instant of every measurement (seconds of simulated
/// time): ranks sleep until here, then serve their arrival-pattern delay.
/// Fault scenarios use this to place windows relative to the collective.
pub const START_TARGET: f64 = 1e-3;

impl Default for BenchConfig {
    fn default() -> Self {
        BenchConfig {
            nrep: 3,
            seed: 0xBE7C,
            noise: None,
            clock_sync: false,
            hca3: Hca3Config::default(),
            backend: Backend::Sim,
            faults: FaultSpec::none(),
        }
    }
}

impl BenchConfig {
    /// The noise-free, perfectly-clocked simulation configuration of §III
    /// (one repetition suffices: runs are exactly reproducible).
    pub fn simulation() -> Self {
        BenchConfig { nrep: 1, noise: Some(NoiseModel::None), clock_sync: false, ..Default::default() }
    }

    /// A "real machine" configuration: platform-default noise, drifting
    /// clocks, HCA3 + harmonize, several repetitions.
    pub fn real_machine(nrep: usize) -> Self {
        BenchConfig { nrep, noise: None, clock_sync: true, ..Default::default() }
    }

    /// Replace the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replace the prediction backend.
    pub fn with_backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Inject a fault spec into every repetition (see [`BenchConfig::faults`]).
    pub(crate) fn with_faults(mut self, faults: FaultSpec) -> Self {
        self.faults = faults;
        self
    }
}

/// One repetition's metrics, from observed (calibrated-clock) timestamps.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Measurement {
    /// Last delay `d̂ = max(eᵢ) − max(aᵢ)` (Eq. 2).
    pub last_delay: f64,
    /// Total delay `d* = max(eᵢ) − min(aᵢ)` (Eq. 1).
    pub total_delay: f64,
}

/// Errors of the harness.
#[derive(Debug)]
pub enum BenchError {
    /// The collective schedule could not be built.
    Build(BuildError),
    /// The simulation failed (deadlock or invalid program).
    Sim(SimError),
    /// The analytical model backend rejected the cell.
    Model(pap_model::ModelError),
    /// Pattern length does not match the platform rank count.
    PatternMismatch {
        /// Number of delays in the arrival pattern.
        pattern: usize,
        /// Number of ranks on the platform.
        ranks: usize,
    },
    /// Fault injection was requested with the analytical model backend,
    /// which has no representation of runtime faults.
    FaultsNeedSim,
    /// A sweep cell lists no algorithms: the collective has none to select
    /// from (Bcast and Barrier are substrates, not experiment collectives).
    NoAlgorithms(CollectiveKind),
}

impl std::fmt::Display for BenchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BenchError::Build(e) => write!(f, "build: {e}"),
            BenchError::Sim(e) => write!(f, "sim: {e}"),
            BenchError::Model(e) => write!(f, "model: {e}"),
            BenchError::PatternMismatch { pattern, ranks } => {
                write!(f, "pattern has {pattern} delays but platform has {ranks} ranks")
            }
            BenchError::FaultsNeedSim => {
                write!(f, "fault injection requires the sim backend (model has no fault model)")
            }
            BenchError::NoAlgorithms(kind) => write!(f, "{kind} has no selectable algorithms"),
        }
    }
}

impl std::error::Error for BenchError {}

impl From<BuildError> for BenchError {
    fn from(e: BuildError) -> Self {
        BenchError::Build(e)
    }
}

impl From<SimError> for BenchError {
    fn from(e: SimError) -> Self {
        BenchError::Sim(e)
    }
}

impl From<pap_model::ModelError> for BenchError {
    fn from(e: pap_model::ModelError) -> Self {
        BenchError::Model(e)
    }
}

/// Cached handles into the global metrics registry: per-cell wall time plus
/// backend routing counts (one relaxed add each per `measure` call).
struct HarnessMetrics {
    cell_wall_us: pap_obs::Histogram,
    cells_sim: pap_obs::Counter,
    cells_model: pap_obs::Counter,
    cell_errors: pap_obs::Counter,
}

fn harness_metrics() -> &'static HarnessMetrics {
    static M: std::sync::OnceLock<HarnessMetrics> = std::sync::OnceLock::new();
    M.get_or_init(|| {
        let reg = pap_obs::global();
        HarnessMetrics {
            cell_wall_us: reg.histogram(
                "bench.cell_wall_us",
                &[100, 500, 1_000, 5_000, 10_000, 50_000, 100_000, 1_000_000],
            ),
            cells_sim: reg.counter("bench.cells.sim"),
            cells_model: reg.counter("bench.cells.model"),
            cell_errors: reg.counter("bench.cells.error"),
        }
    })
}

/// Measure one collective under one arrival pattern: `cfg.nrep` repetitions
/// of Listing 1, each an independent simulator run.
pub fn measure(
    platform: &Platform,
    spec: &CollSpec,
    pattern: &ArrivalPattern,
    cfg: &BenchConfig,
) -> Result<crate::RunStats, BenchError> {
    measure_with(platform, spec, None, pattern, cfg)
}

/// [`measure`] against `spec`'s schedule built once by the caller, so a
/// sweep unit runs every pattern and repetition against one build (`None`
/// builds it here). The model backend needs no schedule and ignores it.
pub(crate) fn measure_with(
    platform: &Platform,
    spec: &CollSpec,
    schedule: Option<&Schedule>,
    pattern: &ArrivalPattern,
    cfg: &BenchConfig,
) -> Result<crate::RunStats, BenchError> {
    let wall = std::time::Instant::now();
    let _span = pap_obs::span("bench", "measure_cell");
    let out = measure_inner(platform, spec, schedule, pattern, cfg);
    let m = harness_metrics();
    m.cell_wall_us.record(wall.elapsed().as_micros().min(u64::MAX as u128) as u64);
    match (&out, cfg.backend) {
        (Err(_), _) => m.cell_errors.inc(),
        (Ok(_), Backend::Sim) => m.cells_sim.inc(),
        (Ok(_), Backend::Model) => m.cells_model.inc(),
    }
    out
}

/// The measured schedule of Listing 1: every rank runs the collective as
/// one labelled segment, whose enter and exit times are its arrival and
/// exit times (§II-A). The harmonized start and the arrival-pattern delay
/// are inputs of each run ([`arrivals`]), not ops, so one build serves
/// every start, pattern and repetition.
pub(crate) struct Schedule {
    /// The compiled job.
    pub(crate) job: Job,
    /// The collective segment's label.
    pub(crate) label: Label,
}

impl Schedule {
    /// Build `spec`'s schedule for `ranks` ranks.
    pub(crate) fn build(spec: &CollSpec, ranks: usize) -> Result<Self, BenchError> {
        let label = Label { kind: spec.kind.label_kind(), seq: 0 };
        let programs = build(spec, ranks)?.rank_ops.into_iter().map(|ops| {
            let mut prog = RankProgram::new();
            prog.push_labeled(label, ops);
            prog
        });
        Ok(Schedule { job: Job::new(programs.collect()), label })
    }
}

/// The per-rank run inputs of Listing 1: rank `r` sleeps until `starts[r]`,
/// then serves its arrival-pattern delay (see [`run_with_arrivals`]).
pub(crate) fn arrivals(starts: &[f64], pattern: &ArrivalPattern) -> Vec<(f64, f64)> {
    starts.iter().enumerate().map(|(r, &start)| (start, pattern.delay_of(r))).collect()
}

fn measure_inner(
    platform: &Platform,
    spec: &CollSpec,
    schedule: Option<&Schedule>,
    pattern: &ArrivalPattern,
    cfg: &BenchConfig,
) -> Result<crate::RunStats, BenchError> {
    let p = platform.ranks;
    if pattern.len() != p {
        return Err(BenchError::PatternMismatch { pattern: pattern.len(), ranks: p });
    }

    if cfg.backend == Backend::Model {
        if !cfg.faults.is_none() {
            return Err(BenchError::FaultsNeedSim);
        }
        // The analytical backend is deterministic and noise-free: one
        // evaluation stands in for all repetitions.
        let pred = pap_model::predict(platform, spec, pattern)?;
        let m = Measurement { last_delay: pred.last_delay, total_delay: pred.total_delay };
        return Ok(crate::RunStats::new(vec![m; cfg.nrep.max(1)]));
    }

    let built;
    let Schedule { job, label } = match schedule {
        Some(s) => s,
        None => {
            built = Schedule::build(spec, p)?;
            &built
        }
    };
    let label = *label;

    // Clock infrastructure, set up once per benchmark (like a real
    // measurement campaign: sync first, then repeat).
    let clock_ctx = if cfg.clock_sync {
        let clocks = ClusterClocks::realistic(platform.occupied_nodes(), cfg.seed ^ 0xC10C);
        let calib = sync_cluster(&clocks, &cfg.hca3, cfg.seed ^ 0x5A5A);
        Some((clocks, calib))
    } else {
        None
    };

    let noise = cfg.noise.unwrap_or(platform.default_noise);
    // Start far enough in the future that harmonize targets are reachable.
    let target = START_TARGET;

    // Each repetition is an independent simulation; the schedule, harmonized
    // starts and pattern delays are identical across reps (only the noise
    // seed differs).
    let starts: Vec<f64> = match &clock_ctx {
        Some((clocks, calib)) => harmonize_starts(clocks, calib, p, |r| platform.node_of(r), target, 0.0),
        None => vec![target; p],
    };
    let arrivals = arrivals(&starts, pattern);

    let mut reps = Vec::with_capacity(cfg.nrep);
    for rep in 0..cfg.nrep {
        let sim_cfg = SimConfig {
            seed: cfg.seed.wrapping_add(rep as u64).wrapping_mul(0x9E37_79B9),
            track_data: false,
            noise,
            faults: cfg.faults.clone(),
            ..SimConfig::default()
        };
        let out = run_with_arrivals(platform, job, &sim_cfg, &arrivals)?;
        // A crashed rank never exits its labeled segment, so faulted runs
        // may legitimately record fewer than p phases; the metric folds
        // below are over surviving ranks (degraded-mode semantics).
        debug_assert!(
            out.phases_for_iter(label).count() == p || cfg.faults.has_rank_faults(),
            "phase records missing without rank faults"
        );

        // Observe timestamps through the (possibly imperfect) clocks.
        let obs = |rank: usize, t: f64| match &clock_ctx {
            Some((clocks, calib)) => pap_clocksync::observe(clocks, calib, platform.node_of(rank), t),
            None => t,
        };
        let mut max_a = f64::NEG_INFINITY;
        let mut min_a = f64::INFINITY;
        let mut max_e = f64::NEG_INFINITY;
        // Min/max folds are order-independent: use the no-alloc iterator.
        for rec in out.phases_for_iter(label) {
            let a = obs(rec.rank, rec.enter);
            let e = obs(rec.rank, rec.exit);
            max_a = max_a.max(a);
            min_a = min_a.min(a);
            max_e = max_e.max(e);
        }
        if !max_e.is_finite() {
            // Every rank died inside the collective: there is no surviving
            // exit to measure against.
            return Err(BenchError::Sim(SimError::InvalidProgram(
                "fault spec crashed every rank before the collective completed".into(),
            )));
        }
        reps.push(Measurement { last_delay: max_e - max_a, total_delay: max_e - min_a });
    }
    Ok(crate::RunStats::new(reps))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pap_arrival::{generate, Shape};

    fn pattern(shape: Shape, p: usize, s: f64) -> ArrivalPattern {
        generate(shape, p, s, 1)
    }

    #[test]
    fn no_delay_measurement_is_positive_and_deterministic() {
        let platform = Platform::simcluster(8);
        let spec = CollSpec::new(CollectiveKind::Reduce, 5, 1024);
        let cfg = BenchConfig::simulation();
        let a = measure(&platform, &spec, &pattern(Shape::NoDelay, 8, 0.0), &cfg).unwrap();
        let b = measure(&platform, &spec, &pattern(Shape::NoDelay, 8, 0.0), &cfg).unwrap();
        assert!(a.mean_last() > 0.0);
        assert_eq!(a.mean_last(), b.mean_last(), "simulation must be exactly reproducible");
    }

    #[test]
    fn last_delay_never_exceeds_total_delay() {
        let platform = Platform::simcluster(8);
        let spec = CollSpec::new(CollectiveKind::Alltoall, 3, 256);
        let cfg = BenchConfig::simulation();
        for shape in Shape::SUITE {
            let st = measure(&platform, &spec, &pattern(shape, 8, 1e-4), &cfg).unwrap();
            for m in &st.reps {
                assert!(m.last_delay <= m.total_delay + 1e-12, "{shape}: d̂ > d*");
                assert!(m.last_delay > 0.0, "{shape}: non-positive d̂");
            }
        }
    }

    #[test]
    fn skew_is_absorbed_into_total_delay() {
        // With a large LastDelayed skew, d* ≈ skew + collective time while
        // d̂ stays near the collective time.
        let platform = Platform::simcluster(8);
        let spec = CollSpec::new(CollectiveKind::Bcast, 5, 1024);
        let cfg = BenchConfig::simulation();
        let skew = 10e-3;
        let st = measure(&platform, &spec, &pattern(Shape::LastDelayed, 8, skew), &cfg).unwrap();
        assert!(st.mean_total() > skew);
        assert!(st.mean_last() < skew / 10.0, "d̂ {} should be far below the skew", st.mean_last());
    }

    #[test]
    fn binomial_reduce_suffers_under_last_delayed_more_than_in_order() {
        // The paper's headline Reduce observation (Fig. 4a / Fig. 5a): with
        // the last process delayed, the in-order binary tree (rooted at the
        // last rank) absorbs the skew; the binomial tree (last rank deep in
        // the tree) cannot.
        let p = 64;
        let platform = Platform::simcluster(p);
        let cfg = BenchConfig::simulation();
        let skew = 1e-3;
        let pat = pattern(Shape::LastDelayed, p, skew);
        let binom = measure(&platform, &CollSpec::new(CollectiveKind::Reduce, 5, 64), &pat, &cfg).unwrap();
        let inbin = measure(&platform, &CollSpec::new(CollectiveKind::Reduce, 6, 64), &pat, &cfg).unwrap();
        assert!(
            inbin.mean_last() < binom.mean_last(),
            "in-order binary ({}) should beat binomial ({}) under LastDelayed",
            inbin.mean_last(),
            binom.mean_last()
        );
    }

    #[test]
    fn clock_sync_mode_adds_small_arrival_error() {
        let platform = Platform::hydra(8);
        let spec = CollSpec::new(CollectiveKind::Reduce, 5, 1024);
        let mut cfg = BenchConfig::real_machine(2);
        cfg.noise = Some(NoiseModel::None);
        let st = measure(&platform, &spec, &pattern(Shape::NoDelay, 8, 0.0), &cfg).unwrap();
        // Harmonized starts differ by at most ~1µs (HCA3 residuals), so the
        // measured d̂ stays close to the ideal-clock measurement.
        let ideal = measure(&platform, &spec, &pattern(Shape::NoDelay, 8, 0.0), &BenchConfig::simulation())
            .unwrap();
        let diff = (st.mean_last() - ideal.mean_last()).abs();
        assert!(diff < 5e-6, "clock-sync effect too large: {diff}");
    }

    #[test]
    fn backend_names_round_trip() {
        for b in [Backend::Sim, Backend::Model] {
            assert_eq!(b.to_string().parse::<Backend>().unwrap(), b);
        }
        assert_eq!("model".parse::<Backend>().unwrap(), Backend::Model);
        assert!("quantum".parse::<Backend>().is_err());
    }

    #[test]
    fn pattern_length_mismatch_rejected() {
        let platform = Platform::simcluster(8);
        let spec = CollSpec::new(CollectiveKind::Reduce, 5, 1024);
        let err = measure(&platform, &spec, &pattern(Shape::NoDelay, 4, 0.0), &BenchConfig::simulation());
        assert!(matches!(err, Err(BenchError::PatternMismatch { .. })));
    }

    #[test]
    fn noise_makes_repetitions_vary() {
        let platform = Platform::hydra(8);
        let spec = CollSpec::new(CollectiveKind::Reduce, 5, 1024);
        let cfg = BenchConfig::real_machine(4);
        let st = measure(&platform, &spec, &pattern(Shape::NoDelay, 8, 0.0), &cfg).unwrap();
        assert!(st.max_last() > st.min_last(), "noisy reps should differ");
    }
}
