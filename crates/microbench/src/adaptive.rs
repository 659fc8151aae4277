//! Adaptive repetition control, after ReproMPI's central idea (Hunold &
//! Carpen-Amarie, TPDS'16): fixed repetition counts either waste time or
//! under-sample noisy cells, so repeat until the measurement is
//! statistically stable — here, until the relative half-width of the
//! mean-of-`d̂` confidence interval drops below a target (or a repetition
//! cap is hit).

use pap_arrival::ArrivalPattern;
use pap_collectives::{CollSpec, TAG_SPAN};
use pap_sim::Platform;
use serde::{Deserialize, Serialize};

use crate::harness::{measure, BenchConfig, BenchError};
use crate::stats::RunStats;

/// Stopping rule for adaptive measurement.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct StopRule {
    /// Minimum repetitions before the rule is evaluated.
    pub min_reps: usize,
    /// Hard cap on repetitions.
    pub max_reps: usize,
    /// Target relative confidence-interval half-width of the mean `d̂`
    /// (e.g. `0.05` = ±5 %).
    pub rel_ci: f64,
}

impl Default for StopRule {
    fn default() -> Self {
        StopRule { min_reps: 5, max_reps: 50, rel_ci: 0.05 }
    }
}

/// Result of an adaptive measurement.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AdaptiveStats {
    /// All repetitions taken.
    pub stats: RunStats,
    /// Whether the CI target was met (false = stopped at `max_reps`).
    pub converged: bool,
    /// Relative CI half-width at the stopping point.
    pub rel_ci: f64,
}

/// Student-t 97.5 % quantiles for small sample sizes (df = 1..30), then the
/// normal approximation. Indexing: `T975[df - 1]`.
const T975: [f64; 30] = [
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
    2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
    2.052, 2.048, 2.045, 2.042,
];

fn t975(df: usize) -> f64 {
    if df == 0 {
        f64::INFINITY
    } else if df <= 30 {
        T975[df - 1]
    } else {
        1.96
    }
}

/// Relative 95 % CI half-width of the mean of `xs`.
pub(crate) fn relative_ci(xs: &[f64]) -> f64 {
    let n = xs.len();
    if n < 2 {
        return f64::INFINITY;
    }
    let mean = xs.iter().sum::<f64>() / n as f64;
    if mean == 0.0 {
        return f64::INFINITY;
    }
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
    let half = t975(n - 1) * (var / n as f64).sqrt();
    half / mean
}

/// Measure with adaptive repetitions: batches of `cfg.nrep` until the stop
/// rule is satisfied. In a noise-free configuration the first batch already
/// has zero variance, so this degenerates to `min_reps` repetitions.
pub fn measure_adaptive(
    platform: &Platform,
    spec: &CollSpec,
    pattern: &ArrivalPattern,
    cfg: &BenchConfig,
    rule: &StopRule,
) -> Result<AdaptiveStats, BenchError> {
    assert!(rule.min_reps >= 2, "need at least 2 reps for a CI");
    assert!(rule.max_reps >= rule.min_reps);
    let mut reps = Vec::new();
    let mut round = 0u64;
    while reps.len() < rule.max_reps {
        let batch = if reps.is_empty() {
            rule.min_reps
        } else {
            (reps.len()).min(rule.max_reps - reps.len()) // double, capped
        };
        let batch_cfg = BenchConfig {
            nrep: batch,
            seed: cfg.seed.wrapping_add(round.wrapping_mul(0x9E37)),
            ..cfg.clone()
        };
        let spec_round = spec.clone().with_tag_base(spec.tag_base + round * 1024 * TAG_SPAN);
        let st = measure(platform, &spec_round, pattern, &batch_cfg)?;
        reps.extend(st.reps);
        round += 1;
        let lasts: Vec<f64> = reps.iter().map(|m| m.last_delay).collect();
        let ci = relative_ci(&lasts);
        if reps.len() >= rule.min_reps && ci <= rule.rel_ci {
            return Ok(AdaptiveStats { stats: RunStats::new(reps), converged: true, rel_ci: ci });
        }
    }
    let lasts: Vec<f64> = reps.iter().map(|m| m.last_delay).collect();
    let ci = relative_ci(&lasts);
    Ok(AdaptiveStats { stats: RunStats::new(reps), converged: ci <= rule.rel_ci, rel_ci: ci })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pap_arrival::{generate, Shape};
    use pap_collectives::CollectiveKind;
    use pap_sim::NoiseModel;

    #[test]
    fn t_quantiles_decrease_to_normal() {
        assert!(t975(1) > t975(2));
        assert!(t975(30) > t975(31));
        assert_eq!(t975(100), 1.96);
        assert_eq!(t975(0), f64::INFINITY);
    }

    #[test]
    fn relative_ci_basics() {
        assert_eq!(relative_ci(&[1.0]), f64::INFINITY);
        assert_eq!(relative_ci(&[1.0, 1.0, 1.0]), 0.0);
        let wide = relative_ci(&[1.0, 2.0]);
        let narrow = relative_ci(&[1.0, 1.01]);
        assert!(wide > narrow);
    }

    #[test]
    fn noise_free_converges_at_min_reps() {
        let p = 8;
        let platform = Platform::simcluster(p);
        let spec = CollSpec::new(CollectiveKind::Reduce, 5, 1024);
        let pat = generate(Shape::NoDelay, p, 0.0, 0);
        let cfg = BenchConfig::simulation();
        let rule = StopRule::default();
        let out = measure_adaptive(&platform, &spec, &pat, &cfg, &rule).unwrap();
        assert!(out.converged);
        assert_eq!(out.stats.len(), rule.min_reps);
        assert_eq!(out.rel_ci, 0.0);
    }

    #[test]
    fn noisy_measurement_takes_more_reps_than_quiet() {
        let p = 8;
        let platform = Platform::simcluster(p);
        let spec = CollSpec::new(CollectiveKind::Reduce, 5, 1024);
        let pat = generate(Shape::NoDelay, p, 0.0, 0);
        let rule = StopRule { min_reps: 3, max_reps: 60, rel_ci: 0.02 };
        let quiet = BenchConfig {
            noise: Some(NoiseModel::gaussian(0.005)),
            ..BenchConfig::simulation()
        };
        let noisy = BenchConfig {
            noise: Some(NoiseModel::gaussian(0.20)),
            ..BenchConfig::simulation()
        };
        let a = measure_adaptive(&platform, &spec, &pat, &quiet, &rule).unwrap();
        let b = measure_adaptive(&platform, &spec, &pat, &noisy, &rule).unwrap();
        assert!(
            b.stats.len() >= a.stats.len(),
            "noisier cell should need at least as many reps ({} vs {})",
            b.stats.len(),
            a.stats.len()
        );
    }

    #[test]
    fn cap_is_respected_and_reported() {
        let p = 8;
        let platform = Platform::hydra(p);
        let spec = CollSpec::new(CollectiveKind::Alltoall, 3, 1024);
        let pat = generate(Shape::Random, p, 1e-4, 0);
        // Impossible target: must stop at the cap and report non-convergence.
        let rule = StopRule { min_reps: 2, max_reps: 6, rel_ci: 1e-12 };
        let cfg = BenchConfig::real_machine(2);
        let out = measure_adaptive(&platform, &spec, &pat, &cfg, &rule).unwrap();
        assert_eq!(out.stats.len(), 6);
        assert!(!out.converged);
        assert!(out.rel_ci > 1e-12);
    }
}
