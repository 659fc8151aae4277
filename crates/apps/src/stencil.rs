//! A stencil/CG-like proxy: compute + small `MPI_Allreduce` per iteration
//! (dot products / convergence checks). Complements FT with a workload
//! where the paper predicts *little* arrival-pattern tuning potential
//! (Allreduce is robust — §III-C).

use pap_collectives::{build, CollSpec, CollectiveKind, TAG_SPAN};
use pap_sim::{run, Job, Label, NoiseModel, Op, Platform, RankProgram, RunOutcome, SimConfig};
use serde::{Deserialize, Serialize};

use crate::ft::FtError;
use crate::imbalance::ImbalanceModel;

/// Stencil proxy configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StencilConfig {
    /// Iterations (e.g. CG steps).
    pub iterations: usize,
    /// Allreduce vector size in bytes (dot product: 8–16 B typically).
    pub(crate) allreduce_bytes: u64,
    /// Allreduce algorithm ID (2–6, Table II).
    pub(crate) allreduce_alg: u8,
    /// Base compute per iteration (seconds).
    pub(crate) compute_per_iter: f64,
    /// Persistent imbalance model.
    pub(crate) imbalance: ImbalanceModel,
    /// Seed.
    pub(crate) seed: u64,
    /// Noise override (None = platform default).
    pub(crate) noise: Option<NoiseModel>,
}

impl StencilConfig {
    /// A CG-like default for `p` ranks.
    pub fn cg_like(p: usize) -> Self {
        StencilConfig {
            iterations: 25,
            allreduce_bytes: 16,
            allreduce_alg: 3,
            compute_per_iter: 2.0 / p as f64,
            imbalance: ImbalanceModel::DEFAULT,
            seed: 0x57E0,
            noise: None,
        }
    }
}

/// Outcome of a stencil proxy run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StencilReport {
    /// Wall-clock runtime.
    pub total_runtime: f64,
    /// Number of Allreduce calls.
    pub(crate) allreduce_calls: usize,
}

/// Run the stencil proxy. Allreduce phases carry label kind 2,
/// sequence = iteration.
pub fn run_stencil(platform: &Platform, cfg: &StencilConfig) -> Result<(StencilReport, RunOutcome), FtError> {
    let p = platform.ranks;
    let factors = cfg.imbalance.factors(p, |r| platform.node_of(r), cfg.seed);
    let mut programs: Vec<RankProgram> = vec![RankProgram::new(); p];
    for it in 0..cfg.iterations {
        let ar = build(
            &CollSpec::new(CollectiveKind::Allreduce, cfg.allreduce_alg, cfg.allreduce_bytes)
                .with_tag_base(it as u64 * TAG_SPAN),
            p,
        )?;
        for (r, prog) in programs.iter_mut().enumerate() {
            prog.push_anon(vec![Op::compute(cfg.compute_per_iter * factors[r])]);
            prog.push_labeled(
                Label { kind: CollectiveKind::Allreduce.label_kind(), seq: it as u32 },
                ar.rank_ops[r].clone(),
            );
        }
    }
    let noise = cfg.noise.unwrap_or(platform.default_noise);
    let out = run(platform, Job::new(programs), &SimConfig { seed: cfg.seed, track_data: false, noise, ..SimConfig::default() })?;
    let report = StencilReport { total_runtime: out.makespan(), allreduce_calls: cfg.iterations };
    Ok((report, out))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stencil_runs() {
        let platform = Platform::simcluster(8);
        let cfg = StencilConfig::cg_like(8);
        let (rep, out) = run_stencil(&platform, &cfg).unwrap();
        assert!(rep.total_runtime > 0.0);
        assert_eq!(rep.allreduce_calls, 25);
        assert_eq!(out.phases.len(), 8 * 25);
    }

    #[test]
    fn allreduce_choice_matters_less_than_for_ft_alltoall() {
        // Sanity: different allreduce algorithms give similar stencil
        // runtimes (the compute dominates and allreduce is small).
        let platform = Platform::simcluster(8);
        let base = StencilConfig { noise: Some(NoiseModel::None), ..StencilConfig::cg_like(8) };
        let r3 =
            run_stencil(&platform, &StencilConfig { allreduce_alg: 3, ..base.clone() }).unwrap().0;
        let r4 = run_stencil(&platform, &StencilConfig { allreduce_alg: 4, ..base }).unwrap().0;
        let ratio = r3.total_runtime / r4.total_runtime;
        assert!((0.8..1.25).contains(&ratio), "ratio {ratio}");
    }
}
