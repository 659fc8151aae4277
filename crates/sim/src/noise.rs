//! Seeded noise models for operation durations.
//!
//! The paper's "real machine" experiments exhibit run-to-run variance and
//! long-tailed latency distributions (its refs \[7\], \[8\]); the simulation
//! study is deliberately noise-free. We model both: a multiplicative
//! Gaussian-like jitter for ordinary variance and a heavy-tailed variant
//! where a small fraction of operations take several times longer (OS noise
//! "detours").
//!
//! Draws are counter-based: each perturbation hashes the run seed, a static
//! key and a site into a [`Draw`] (SplitMix64's mix), instead of reading a
//! stateful stream. The engine keys a rank's own draws by the rank and its
//! count of drawing ops in program order, and a receive's completion
//! overhead by the matched message's canonical uid, so no event processing
//! order can move a value — which is what lets noisy runs take the same
//! event elision as noise-free ones.

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

    /// Sample the multiplicative jitter applied to wire transfer times
    /// (detours are CPU-side and do not stretch the wire).
    pub(crate) fn wire_factor(&self, draw: Draw) -> f64 {
        match *self {
            NoiseModel::None => 1.0,
            NoiseModel::Gaussian { sigma_frac } | NoiseModel::HeavyTail { sigma_frac, .. } => {
                gaussian_factor(draw.word(0), sigma_frac)
            }
        }
    }

    /// Perturb a CPU-side duration (compute, overheads, reductions). Zero
    /// durations stay zero.
    #[inline]
    pub(crate) fn perturb(&self, duration: f64, draw: Draw) -> f64 {
        match *self {
            NoiseModel::None => duration,
            _ if duration == 0.0 => 0.0,
            NoiseModel::Gaussian { sigma_frac } => duration * gaussian_factor(draw.word(0), sigma_frac),
            NoiseModel::HeavyTail { sigma_frac, rate_per_sec, detour_mean } => {
                let mut d = duration * gaussian_factor(draw.word(0), sigma_frac);
                // Expected detours in this duration; sample one detour with
                // the aggregate probability (durations are short relative to
                // 1/rate in practice, so 0/1 detours dominate).
                let p_detour = (duration * rate_per_sec).min(1.0);
                if draw.unit(1) < p_detour {
                    let u = draw.unit(2).max(1e-12);
                    d += detour_mean * (-u.ln());
                }
                d
            }
        }
    }
}

/// The golden-ratio increment of SplitMix64.
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64's output function: a bijective avalanche mix of one word.
#[inline]
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One perturbation's randomness: a stateless hash of the run seed, a key
/// and a site. Equal inputs give equal words, whenever and in whatever
/// order they are drawn; word `i` is the `i`-th SplitMix64 output from the
/// keyed state.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Draw(u64);

impl Draw {
    /// The draw at `site` under `key` in a run seeded with `seed`.
    #[inline]
    pub(crate) fn new(seed: u64, key: u64, site: u64) -> Draw {
        Draw(mix(mix(seed ^ site.wrapping_mul(GAMMA)).wrapping_add(key.wrapping_mul(GAMMA))))
    }

    #[inline]
    fn word(self, i: u64) -> u64 {
        mix(self.0.wrapping_add((i + 1).wrapping_mul(GAMMA)))
    }

    /// Word `i` as a uniform in `[0, 1)`.
    #[inline]
    fn unit(self, i: u64) -> f64 {
        (self.word(i) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Approximately-normal multiplicative factor via the sum of uniforms,
/// truncated below at 0.5 so the factor is always positive. One word
/// supplies four 16-bit uniforms (Irwin–Hall n=4, rescaled to unit
/// variance) — a noisy run samples once per drawing op, so the sample cost
/// matters.
fn gaussian_factor(w: u64, sigma_frac: f64) -> f64 {
    let sum = ((w & 0xFFFF) + ((w >> 16) & 0xFFFF) + ((w >> 32) & 0xFFFF) + (w >> 48)) as f64
        * (1.0 / 65536.0);
    // Irwin–Hall n=4: mean 2, variance 1/3 → ×√3 for a unit-variance z.
    let z = (sum - 2.0) * 1.732_050_807_568_877_2;
    (1.0 + sigma_frac * z).max(0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `n` draws of one rank, keyed like the engine keys them.
    fn draws(seed: u64, rank: u64, n: u64) -> impl DoubleEndedIterator<Item = Draw> {
        (0..n).map(move |i| Draw::new(seed, (rank << 40) | i, 0))
    }

    #[test]
    fn none_is_identity() {
        let d = Draw::new(1, 0, 0);
        assert_eq!(NoiseModel::None.perturb(3.5, d), 3.5);
        assert_eq!(NoiseModel::None.wire_factor(d), 1.0);
    }

    #[test]
    fn gaussian_centered_near_one() {
        let m = NoiseModel::gaussian(0.05);
        let n = 20_000;
        let mean: f64 = draws(2, 0, n).map(|d| m.wire_factor(d)).sum::<f64>() / n as f64;
        assert!((mean - 1.0).abs() < 0.01, "mean factor {mean}");
    }

    #[test]
    fn perturbed_durations_stay_positive() {
        let m = NoiseModel::heavy_tail(0.5, 100.0, 1e-3);
        for d in draws(3, 0, 10_000) {
            let t = m.perturb(1e-3, d);
            assert!(t >= 0.5e-3, "duration {t}");
        }
    }

    #[test]
    fn detour_rate_scales_with_duration() {
        // A long phase should be hit by detours far more often than a short
        // op: count perturbations that gained > half a detour.
        let m = NoiseModel::heavy_tail(0.0, 10.0, 1e-3);
        let hits = |dur: f64, seed: u64| {
            draws(seed, 0, 5_000).filter(|&d| m.perturb(dur, d) > dur * 1.001 + 0.2e-3).count()
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
        let dur = 10e-3;
        let n = 20_000;
        let mean_extra: f64 = draws(9, 0, n).map(|d| m.perturb(dur, d) - dur).sum::<f64>() / n as f64;
        let expect = dur * 50.0 * 2e-3; // 1 ms
        assert!((mean_extra - expect).abs() < expect * 0.2, "{mean_extra} vs {expect}");
    }

    #[test]
    fn same_key_same_value() {
        let m = NoiseModel::heavy_tail(0.05, 20.0, 1e-3);
        let a: Vec<f64> = draws(7, 3, 100).map(|d| m.perturb(1e-3, d)).collect();
        let b: Vec<f64> = draws(7, 3, 100).rev().map(|d| m.perturb(1e-3, d)).collect();
        assert_eq!(a, b.into_iter().rev().collect::<Vec<_>>(), "draw order moved a value");
        // Seed, key and site each select a different draw.
        let at = |seed, key, site| m.wire_factor(Draw::new(seed, key, site));
        assert_ne!(at(7, 1, 0), at(8, 1, 0));
        assert_ne!(at(7, 1, 0), at(7, 2, 0));
        assert_ne!(at(7, 1, 0), at(7, 1, 1));
    }

    #[test]
    fn zero_duration_unperturbed() {
        assert_eq!(NoiseModel::gaussian(0.5).perturb(0.0, Draw::new(8, 0, 0)), 0.0);
    }

    /// Pearson correlation of paired samples.
    fn correlation(pairs: &[(f64, f64)]) -> f64 {
        let n = pairs.len() as f64;
        let (ma, mb) = pairs.iter().fold((0.0, 0.0), |(a, b), &(x, y)| (a + x / n, b + y / n));
        let (mut sab, mut saa, mut sbb) = (0.0, 0.0, 0.0);
        for &(x, y) in pairs {
            sab += (x - ma) * (y - mb);
            saa += (x - ma) * (x - ma);
            sbb += (y - mb) * (y - mb);
        }
        sab / (saa * sbb).sqrt()
    }

    /// Across keys the factors keep the model's distribution, and
    /// neighbouring keys — consecutive ordinals of one rank, or one ordinal
    /// of adjacent ranks — draw independently.
    #[test]
    fn factors_are_distributed_and_uncorrelated_across_keys() {
        let sigma = 0.05;
        let m = NoiseModel::gaussian(sigma);
        let (ranks, ordinals) = (64u64, 1000u64);
        let f: Vec<Vec<f64>> =
            (0..ranks).map(|r| draws(0xC0FFEE, r, ordinals).map(|d| m.wire_factor(d)).collect()).collect();
        let all: Vec<f64> = f.iter().flatten().copied().collect();
        let n = all.len() as f64;
        let mean = all.iter().sum::<f64>() / n;
        let std = (all.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n).sqrt();
        assert!((mean - 1.0).abs() < 0.01, "mean factor {mean}");
        assert!((std - sigma).abs() < 0.05 * sigma, "std {std} vs sigma {sigma}");

        let along: Vec<(f64, f64)> = f.iter().flat_map(|row| row.windows(2).map(|w| (w[0], w[1]))).collect();
        let across: Vec<(f64, f64)> =
            f.windows(2).flat_map(|rows| rows[0].iter().copied().zip(rows[1].iter().copied())).collect();
        for (what, pairs) in [("along ordinals", along), ("across ranks", across)] {
            let c = correlation(&pairs);
            assert!(c.abs() < 0.02, "lag-1 correlation {what}: {c}");
        }
    }
}
