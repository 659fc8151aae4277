//! Seeded noise models for operation durations.
//!
//! The paper's "real machine" experiments exhibit run-to-run variance and
//! long-tailed latency distributions (its refs \[7\], \[8\]); the simulation
//! study is deliberately noise-free. We model both: a multiplicative
//! Gaussian-like jitter for ordinary variance and a heavy-tailed variant
//! where a small fraction of operations take several times longer (OS noise
//! "detours").

use rand::Rng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Multiplicative noise applied to operation durations.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum NoiseModel {
    /// No noise: durations are exact (simulation setting, §III).
    None,
    /// Truncated-Gaussian-like multiplicative jitter: factor
    /// `max(0.5, 1 + sigma_frac * z)` with `z` approximately standard normal.
    Gaussian {
        /// Relative standard deviation of the factor (e.g. `0.02` = 2 %).
        sigma_frac: f64,
    },
    /// Gaussian jitter plus OS-noise "detours": detour events arrive at a
    /// fixed rate per second of execution (so long compute phases are hit
    /// proportionally more often than microsecond message ops), and each
    /// detour adds an *absolute* exponential delay of mean `detour_mean`
    /// seconds. This is the standard noise-injection model of the HPC noise
    /// literature and matches the long-tailed distributions the paper cites
    /// (its refs \[7\], \[8\]).
    HeavyTail {
        /// Relative standard deviation of the base jitter.
        sigma_frac: f64,
        /// Detour events per second of execution.
        rate_per_sec: f64,
        /// Mean detour length (seconds).
        detour_mean: f64,
    },
}

impl NoiseModel {
    /// Convenience constructor for [`NoiseModel::Gaussian`].
    pub fn gaussian(sigma_frac: f64) -> Self {
        NoiseModel::Gaussian { sigma_frac }
    }

    /// Convenience constructor for [`NoiseModel::HeavyTail`].
    pub fn heavy_tail(sigma_frac: f64, rate_per_sec: f64, detour_mean: f64) -> Self {
        NoiseModel::HeavyTail { sigma_frac, rate_per_sec, detour_mean }
    }

    /// Whether this model perturbs durations at all.
    pub(crate) fn is_none(&self) -> bool {
        matches!(self, NoiseModel::None)
    }

    /// Sample the multiplicative jitter applied to wire transfer times
    /// (detours are CPU-side and do not stretch the wire).
    pub(crate) fn wire_factor(&self, rng: &mut ChaCha8Rng) -> f64 {
        match *self {
            NoiseModel::None => 1.0,
            NoiseModel::Gaussian { sigma_frac } | NoiseModel::HeavyTail { sigma_frac, .. } => {
                gaussian_factor(rng, sigma_frac)
            }
        }
    }

    /// Perturb a CPU-side duration (compute, overheads, reductions). Zero
    /// durations stay zero.
    #[inline]
    pub(crate) fn perturb(&self, duration: f64, rng: &mut ChaCha8Rng) -> f64 {
        match *self {
            NoiseModel::None => duration,
            _ if duration == 0.0 => 0.0,
            NoiseModel::Gaussian { sigma_frac } => duration * gaussian_factor(rng, sigma_frac),
            NoiseModel::HeavyTail { sigma_frac, rate_per_sec, detour_mean } => {
                let mut d = duration * gaussian_factor(rng, sigma_frac);
                // Expected detours in this duration; sample one detour with
                // the aggregate probability (durations are short relative to
                // 1/rate in practice, so 0/1 detours dominate).
                let p_detour = (duration * rate_per_sec).min(1.0);
                if rng.gen::<f64>() < p_detour {
                    let u: f64 = rng.gen::<f64>().max(1e-12);
                    d += detour_mean * (-u.ln());
                }
                d
            }
        }
    }
}

/// Approximately-normal multiplicative factor via the sum of uniforms,
/// truncated below at 0.5 so the factor is always positive. One keystream
/// word supplies four 16-bit uniforms (Irwin–Hall n=4, rescaled to unit
/// variance) — `perturb` runs once per simulator event, so the sample cost
/// matters.
fn gaussian_factor(rng: &mut ChaCha8Rng, sigma_frac: f64) -> f64 {
    use rand::RngCore;
    let w = rng.next_u64();
    let sum = ((w & 0xFFFF) + ((w >> 16) & 0xFFFF) + ((w >> 32) & 0xFFFF) + (w >> 48)) as f64
        * (1.0 / 65536.0);
    // Irwin–Hall n=4: mean 2, variance 1/3 → ×√3 for a unit-variance z.
    let z = (sum - 2.0) * 1.732_050_807_568_877_2;
    (1.0 + sigma_frac * z).max(0.5)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn none_is_identity() {
        let mut r = rng(1);
        assert_eq!(NoiseModel::None.perturb(3.5, &mut r), 3.5);
        assert_eq!(NoiseModel::None.wire_factor(&mut r), 1.0);
    }

    #[test]
    fn gaussian_centered_near_one() {
        let mut r = rng(2);
        let m = NoiseModel::gaussian(0.05);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| m.wire_factor(&mut r)).sum::<f64>() / n as f64;
        assert!((mean - 1.0).abs() < 0.01, "mean factor {mean}");
    }

    #[test]
    fn perturbed_durations_stay_positive() {
        let mut r = rng(3);
        let m = NoiseModel::heavy_tail(0.5, 100.0, 1e-3);
        for _ in 0..10_000 {
            let d = m.perturb(1e-3, &mut r);
            assert!(d >= 0.5e-3, "duration {d}");
        }
    }

    #[test]
    fn detour_rate_scales_with_duration() {
        // A long phase should be hit by detours far more often than a short
        // op: count perturbations that gained > half a detour.
        let m = NoiseModel::heavy_tail(0.0, 10.0, 1e-3);
        let hits = |dur: f64, seed: u64| {
            let mut r = rng(seed);
            (0..5_000).filter(|_| m.perturb(dur, &mut r) > dur * 1.001 + 0.2e-3).count()
        };
        let long = hits(10e-3, 5); // p ≈ 0.1
        let short = hits(10e-6, 6); // p ≈ 1e-4
        assert!(long > 300, "long-phase detours: {long}");
        assert!(short < 20, "short-op detours: {short}");
    }

    #[test]
    fn detours_are_absolute_not_multiplicative() {
        // Mean extra time should approximate rate·duration·detour_mean,
        // independent of how that duration would scale multiplicatively.
        let m = NoiseModel::heavy_tail(0.0, 50.0, 2e-3);
        let mut r = rng(9);
        let dur = 10e-3;
        let n = 20_000;
        let mean_extra: f64 =
            (0..n).map(|_| m.perturb(dur, &mut r) - dur).sum::<f64>() / n as f64;
        let expect = dur * 50.0 * 2e-3; // 1 ms
        assert!((mean_extra - expect).abs() < expect * 0.2, "{mean_extra} vs {expect}");
    }

    #[test]
    fn deterministic_given_seed() {
        let m = NoiseModel::heavy_tail(0.05, 20.0, 1e-3);
        let a: Vec<f64> = { let mut r = rng(7); (0..100).map(|_| m.perturb(1e-3, &mut r)).collect() };
        let b: Vec<f64> = { let mut r = rng(7); (0..100).map(|_| m.perturb(1e-3, &mut r)).collect() };
        assert_eq!(a, b);
    }

    #[test]
    fn zero_duration_unperturbed() {
        let mut r = rng(8);
        assert_eq!(NoiseModel::gaussian(0.5).perturb(0.0, &mut r), 0.0);
    }
}
