//! The NAS-FT proxy (class-D-like): compute + transpose Alltoall +
//! checksum Allreduce per iteration.

use pap_collectives::{build, BuildError, CollSpec, CollectiveKind, TAG_SPAN};
use pap_sim::{run, Job, Label, NoiseModel, Op, Platform, RankProgram, RunOutcome, SimConfig, SimError};
use serde::{Deserialize, Serialize};

use crate::imbalance::ImbalanceModel;

/// FT proxy configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FtConfig {
    /// Number of FFT iterations.
    pub iterations: usize,
    /// Per-pair transpose message size in bytes (class D at 1024 ranks:
    /// 32 768 B — the size the paper traces and tunes).
    pub bytes_per_pair: u64,
    /// Base local compute per iteration (seconds), before imbalance.
    pub(crate) compute_per_iter: f64,
    /// Alltoall algorithm ID (1–4, Table II) — the knob under study.
    pub alltoall_alg: u8,
    /// Allreduce algorithm ID for the checksum.
    pub(crate) allreduce_alg: u8,
    /// Checksum vector size (bytes).
    pub(crate) checksum_bytes: u64,
    /// Persistent compute-imbalance model.
    pub(crate) imbalance: ImbalanceModel,
    /// Seed for imbalance and engine noise.
    pub seed: u64,
    /// Override the platform's noise model (None = platform default).
    pub(crate) noise: Option<NoiseModel>,
}

impl FtConfig {
    /// A class-D-like configuration for `p` ranks: 32 768-byte per-pair
    /// transpose, compute sized so that Alltoall consumes roughly half to
    /// two-thirds of the runtime (§V-A). Fixing the per-pair size while
    /// varying `p` implies a problem volume ∝ p², so per-rank compute
    /// scales ∝ p.
    pub fn class_d_like(p: usize) -> Self {
        FtConfig {
            iterations: 8,
            bytes_per_pair: 32 * 1024,
            compute_per_iter: 4.0e-5 * p as f64,
            alltoall_alg: 2,
            allreduce_alg: 3,
            checksum_bytes: 16,
            imbalance: ImbalanceModel::DEFAULT,
            seed: 0xF7,
            noise: None,
        }
    }

    /// Replace the Alltoall algorithm.
    pub fn with_alltoall(mut self, alg: u8) -> Self {
        self.alltoall_alg = alg;
        self
    }

    /// Replace the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Outcome of an FT proxy run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FtReport {
    /// Wall-clock runtime (makespan).
    pub total_runtime: f64,
    /// Critical-path compute: the largest per-rank sum of compute phases
    /// (what an mpisee-style profile would attribute to computation).
    pub compute_time: f64,
    /// `total_runtime − compute_time`: time attributable to MPI (collective
    /// communication + the waiting induced by arrival imbalance).
    pub mpi_time: f64,
    /// Number of Alltoall calls executed.
    pub(crate) alltoall_calls: usize,
}

/// Run the FT proxy. Returns the report and the raw outcome (whose labelled
/// phases the tracer consumes: Alltoall has label kind 3, Allreduce kind 2,
/// sequence = iteration).
pub fn run_ft(platform: &Platform, cfg: &FtConfig) -> Result<(FtReport, RunOutcome), FtError> {
    let p = platform.ranks;
    let factors = cfg.imbalance.factors(p, |r| platform.node_of(r), cfg.seed);

    // Build per-iteration collective schedules once per iteration (tags must
    // be unique per call).
    let mut programs: Vec<RankProgram> = vec![RankProgram::new(); p];
    for it in 0..cfg.iterations {
        let a2a = build(
            &CollSpec::new(CollectiveKind::Alltoall, cfg.alltoall_alg, cfg.bytes_per_pair)
                .with_tag_base((2 * it as u64) * TAG_SPAN),
            p,
        )?;
        let chk = build(
            &CollSpec::new(CollectiveKind::Allreduce, cfg.allreduce_alg, cfg.checksum_bytes)
                .with_tag_base((2 * it as u64 + 1) * TAG_SPAN),
            p,
        )?;
        for (r, prog) in programs.iter_mut().enumerate() {
            prog.push_anon(vec![Op::compute(cfg.compute_per_iter * factors[r])]);
            prog.push_labeled(
                Label { kind: CollectiveKind::Alltoall.label_kind(), seq: it as u32 },
                a2a.rank_ops[r].clone(),
            );
            prog.push_labeled(
                Label { kind: CollectiveKind::Allreduce.label_kind(), seq: it as u32 },
                chk.rank_ops[r].clone(),
            );
        }
    }

    let noise = cfg.noise.unwrap_or(platform.default_noise);
    let sim_cfg = SimConfig { seed: cfg.seed, track_data: false, noise, ..SimConfig::default() };
    let out = run(platform, Job::new(programs), &sim_cfg)?;

    // Compute time: reconstruct per-rank compute from phase boundaries —
    // compute segments are the anonymous gaps; equivalently, total minus
    // collective time. We track it directly: per-rank compute =
    // Σ factors[r]·compute_per_iter (noise perturbs it, but phase records
    // give the exact realized values: the enter of iteration i's alltoall
    // minus the exit of iteration i-1's allreduce).
    let mut compute = vec![0.0f64; p];
    let a2a_kind = CollectiveKind::Alltoall.label_kind();
    let chk_kind = CollectiveKind::Allreduce.label_kind();
    let mut prev_exit = vec![0.0f64; p];
    let mut recs: Vec<_> = out.phases.to_vec();
    // Program order within an iteration is alltoall, then allreduce.
    let order = |k: u32| if k == a2a_kind { 0u32 } else { 1 };
    recs.sort_by(|a, b| {
        (a.rank, a.label.seq, order(a.label.kind)).cmp(&(b.rank, b.label.seq, order(b.label.kind)))
    });
    for rec in recs {
        if rec.label.kind == a2a_kind {
            compute[rec.rank] += rec.enter - prev_exit[rec.rank];
        } else if rec.label.kind == chk_kind {
            prev_exit[rec.rank] = rec.exit;
        }
    }
    let compute_time = compute.iter().copied().fold(0.0, f64::max);
    let total_runtime = out.makespan();
    let report = FtReport {
        total_runtime,
        compute_time,
        mpi_time: total_runtime - compute_time,
        alltoall_calls: cfg.iterations,
    };
    Ok((report, out))
}

/// FT proxy errors.
#[derive(Debug)]
pub enum FtError {
    /// Collective schedule construction failed.
    Build(BuildError),
    /// Simulation failed.
    Sim(SimError),
}

impl std::fmt::Display for FtError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FtError::Build(e) => write!(f, "build: {e}"),
            FtError::Sim(e) => write!(f, "sim: {e}"),
        }
    }
}

impl std::error::Error for FtError {}

impl From<BuildError> for FtError {
    fn from(e: BuildError) -> Self {
        FtError::Build(e)
    }
}

impl From<SimError> for FtError {
    fn from(e: SimError) -> Self {
        FtError::Sim(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pap_tracer::{ideal_observer, CollectiveTrace, TracerConfig};

    fn small_cfg() -> FtConfig {
        FtConfig {
            iterations: 4,
            bytes_per_pair: 2048,
            compute_per_iter: 200e-6,
            alltoall_alg: 2,
            allreduce_alg: 3,
            checksum_bytes: 16,
            imbalance: ImbalanceModel::DEFAULT,
            seed: 3,
            noise: Some(NoiseModel::gaussian(0.02)),
        }
    }

    #[test]
    fn ft_runs_and_reports_sane_numbers() {
        let platform = Platform::simcluster(16);
        let (rep, out) = run_ft(&platform, &small_cfg()).unwrap();
        assert!(rep.total_runtime > 0.0);
        assert!(rep.compute_time > 0.0);
        assert!(rep.mpi_time > 0.0);
        assert!(rep.compute_time < rep.total_runtime);
        assert_eq!(rep.alltoall_calls, 4);
        // 4 alltoall + 4 allreduce labelled phases per rank.
        assert_eq!(out.phases.len(), 16 * 8);
    }

    #[test]
    fn tracer_extracts_persistent_arrival_pattern() {
        let platform = Platform::simcluster(16);
        let (_, out) = run_ft(&platform, &small_cfg()).unwrap();
        let tr = CollectiveTrace::from_outcome(&out, 16, 3, &TracerConfig::default(), ideal_observer);
        assert_eq!(tr.len(), 4);
        let avg = tr.avg_delays();
        // The persistent imbalance must produce a non-uniform pattern.
        let max = avg.iter().copied().fold(0.0f64, f64::max);
        assert!(max > 0.0, "expected non-zero arrival skew");
        // Deterministic given the seed.
        let (_, out2) = run_ft(&platform, &small_cfg()).unwrap();
        let tr2 = CollectiveTrace::from_outcome(&out2, 16, 3, &TracerConfig::default(), ideal_observer);
        assert_eq!(tr.avg_delays(), tr2.avg_delays());
    }

    #[test]
    fn alltoall_algorithm_changes_runtime() {
        let platform = Platform::simcluster(16);
        let r2 = run_ft(&platform, &small_cfg().with_alltoall(2)).unwrap().0;
        let r3 = run_ft(&platform, &small_cfg().with_alltoall(3)).unwrap().0;
        assert_ne!(r2.total_runtime, r3.total_runtime);
    }

    #[test]
    fn more_iterations_more_runtime() {
        let platform = Platform::simcluster(8);
        let mut cfg = small_cfg();
        let short = run_ft(&platform, &cfg).unwrap().0;
        cfg.iterations = 8;
        let long = run_ft(&platform, &cfg).unwrap().0;
        assert!(long.total_runtime > short.total_runtime * 1.5);
    }

    #[test]
    fn bad_algorithm_id_is_reported() {
        let platform = Platform::simcluster(4);
        let mut cfg = small_cfg();
        cfg.alltoall_alg = 99;
        assert!(matches!(run_ft(&platform, &cfg), Err(FtError::Build(_))));
    }
}
