//! Least-squares fitting of the piecewise-linear LogGP form, with
//! guideline-based fit rejection.
//!
//! The engine's one-way time of an uncontended message is exactly
//!
//! ```text
//! t(b) = o + k·L + b/bw        o = o_s + o_r,  k = 1 (eager) | 3 (rendezvous)
//! ```
//!
//! per scope (intra/inter), with the overhead `o` shared across scopes (it is
//! CPU-side) and the eager threshold shared too (it is a transport setting).
//! The rendezvous handshake adds exactly `2·L`, so a ladder that straddles
//! the threshold identifies latency *separately* from overhead — and a
//! constant clock-sync residual, which shifts every observation of a node
//! pair equally, lands in `o` without biasing `L` or `bw`.
//!
//! For each candidate threshold (a ladder rung), the five parameters
//! `[o, L_intra, 1/bw_intra, L_inter, 1/bw_inter]` are solved by weighted
//! least squares (weights `1/t` — relative error, so µs-scale rungs count as
//! much as ms-scale ones), and the candidate with the smallest relative SSE
//! wins. Reduce cost and NIC serialization come from their dedicated probe
//! sections; the reduce collective doubles as an end-to-end cross-check of
//! the fitted point-to-point form.
//!
//! A fit is *rejected* — never silently served — when it violates the
//! Hunold-style guidelines in [`fit_probe`]: parameters out of physical
//! range, inter latency below intra, poor residuals, or a failed collective
//! cross-check.

use pap_sim::{LinkParams, NoiseModel, PlatformSpec};
use serde::{Deserialize, Serialize};

use crate::probe::{Probe, Scope, PROBE_FORMAT};

/// A fitted platform plus the evidence behind it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FitReport {
    /// The fitted machine parameters, ready for
    /// [`pap_sim::register_custom_platform`].
    pub spec: PlatformSpec,
    /// Fitted combined CPU overhead `o_s + o_r` (seconds); the spec splits
    /// it evenly between the two sides.
    pub(crate) overhead: f64,
    /// Median relative residual of the ladder fit.
    pub median_rel_residual: f64,
    /// Worst relative residual of the ladder fit.
    pub max_rel_residual: f64,
    /// Worst relative error of the reduce-collective cross-check (measured
    /// bare-transfer time vs the fitted point-to-point prediction).
    pub collective_rel_err: f64,
    /// Estimated relative noise (robust sigma of repetition scatter).
    pub(crate) noise_sigma: f64,
    /// Number of ladder observations used.
    pub observations: usize,
}

/// Why a probe could not be turned into a platform.
#[derive(Debug, Clone, PartialEq)]
pub enum FitError {
    /// The probe itself is unusable (wrong format, missing scopes, too few
    /// rungs or repetitions).
    BadProbe(String),
    /// The solve produced parameters that fail the guideline checks; each
    /// entry names one violated guideline.
    Rejected(Vec<String>),
}

impl std::fmt::Display for FitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FitError::BadProbe(m) => write!(f, "bad probe: {m}"),
            FitError::Rejected(v) => write!(f, "fit rejected: {}", v.join("; ")),
        }
    }
}

impl std::error::Error for FitError {}

fn median(xs: &mut [f64]) -> f64 {
    assert!(!xs.is_empty());
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        0.5 * (xs[n / 2 - 1] + xs[n / 2])
    }
}

/// Solve the symmetric positive system `A x = b` (normal equations) by
/// Gaussian elimination with partial pivoting. `None` when singular.
fn solve(mut a: Vec<Vec<f64>>, mut b: Vec<f64>) -> Option<Vec<f64>> {
    let n = b.len();
    for col in 0..n {
        let pivot = (col..n).max_by(|&i, &j| {
            a[i][col].abs().partial_cmp(&a[j][col].abs()).expect("finite")
        })?;
        if a[pivot][col].abs() < 1e-30 {
            return None;
        }
        a.swap(col, pivot);
        b.swap(col, pivot);
        for row in col + 1..n {
            let f = a[row][col] / a[col][col];
            // Two rows of `a` are live at once, so indexing stays.
            #[allow(clippy::needless_range_loop)]
            for k in col..n {
                a[row][k] -= f * a[col][k];
            }
            b[row] -= f * b[col];
        }
    }
    let mut x = vec![0.0; n];
    for col in (0..n).rev() {
        let mut s = b[col];
        for k in col + 1..n {
            s -= a[col][k] * x[k];
        }
        x[col] = s / a[col][col];
    }
    Some(x)
}

/// One median-filtered ladder point.
struct Point {
    scope: Scope,
    bytes: u64,
    t: f64,
    rel_spread: f64,
}

fn condense(probe: &Probe) -> Result<Vec<Point>, FitError> {
    let mut points = Vec::new();
    for obs in &probe.ladder {
        if obs.reps.is_empty() {
            return Err(FitError::BadProbe(format!("{:?} {} B rung has no repetitions", obs.scope, obs.bytes)));
        }
        if obs.reps.iter().any(|t| !t.is_finite() || *t <= 0.0) {
            return Err(FitError::BadProbe(format!("{:?} {} B rung has non-positive times", obs.scope, obs.bytes)));
        }
        let mut reps = obs.reps.clone();
        let med = median(&mut reps);
        let mut dev: Vec<f64> = obs.reps.iter().map(|t| (t - med).abs() / med).collect();
        let mad = median(&mut dev);
        points.push(Point { scope: obs.scope, bytes: obs.bytes, t: med, rel_spread: 1.4826 * mad });
    }
    Ok(points)
}

/// The weighted-least-squares solve for one candidate threshold. Returns
/// `(params [o, L_i, G_i, L_x, G_x], relative SSE)`.
fn solve_for_threshold(points: &[Point], threshold: u64) -> Option<(Vec<f64>, f64)> {
    let mut ata = vec![vec![0.0; 5]; 5];
    let mut atb = vec![0.0; 5];
    for p in points {
        let k = if p.bytes <= threshold { 1.0 } else { 3.0 };
        let row = match p.scope {
            Scope::Intra => [1.0, k, p.bytes as f64, 0.0, 0.0],
            Scope::Inter => [1.0, 0.0, 0.0, k, p.bytes as f64],
        };
        let w = 1.0 / (p.t * p.t); // least squares on (residual / t)
        for i in 0..5 {
            for j in 0..5 {
                ata[i][j] += w * row[i] * row[j];
            }
            atb[i] += w * row[i] * p.t;
        }
    }
    let x = solve(ata, atb)?;
    let mut sse = 0.0;
    for p in points {
        let k = if p.bytes <= threshold { 1.0 } else { 3.0 };
        let pred = match p.scope {
            Scope::Intra => x[0] + k * x[1] + p.bytes as f64 * x[2],
            Scope::Inter => x[0] + k * x[3] + p.bytes as f64 * x[4],
        };
        let r = (pred - p.t) / p.t;
        sse += r * r;
    }
    Some((x, sse))
}

fn rel_residuals(points: &[Point], x: &[f64], threshold: u64) -> Vec<f64> {
    points
        .iter()
        .map(|p| {
            let k = if p.bytes <= threshold { 1.0 } else { 3.0 };
            let pred = match p.scope {
                Scope::Intra => x[0] + k * x[1] + p.bytes as f64 * x[2],
                Scope::Inter => x[0] + k * x[3] + p.bytes as f64 * x[4],
            };
            ((pred - p.t) / p.t).abs()
        })
        .collect()
}

/// Fit a [`PlatformSpec`] from a measured probe.
///
/// Errors with `FitError::BadProbe` when the probe is structurally
/// unusable, and `FitError::Rejected` (listing every violated guideline)
/// when the solved parameters are not physically credible — a rejected fit
/// must not be registered or served.
pub fn fit_probe(probe: &Probe) -> Result<FitReport, FitError> {
    if probe.format != PROBE_FORMAT {
        return Err(FitError::BadProbe(format!(
            "probe format {} unsupported (expected {PROBE_FORMAT})",
            probe.format
        )));
    }
    if probe.nodes == 0 || probe.cores_per_node == 0 {
        return Err(FitError::BadProbe("probe must state nodes and cores_per_node".into()));
    }
    let points = condense(probe)?;
    let mut sizes: Vec<u64> = points.iter().filter(|p| p.scope == Scope::Intra).map(|p| p.bytes).collect();
    sizes.sort_unstable();
    sizes.dedup();
    let inter_sizes: Vec<u64> =
        points.iter().filter(|p| p.scope == Scope::Inter).map(|p| p.bytes).collect();
    if sizes.len() < 4 || inter_sizes.len() < 4 {
        return Err(FitError::BadProbe("ladder needs at least 4 rungs per scope".into()));
    }

    // Candidate thresholds: every rung with at least two rungs on each side,
    // plus the top rung ("no rendezvous observed" — the threshold is then at
    // least the largest probed size).
    let candidates: Vec<u64> = sizes[1..sizes.len() - 2]
        .iter()
        .copied()
        .chain(std::iter::once(*sizes.last().expect("non-empty")))
        .collect();
    let mut best: Option<(u64, Vec<f64>, f64)> = None;
    for &t in &candidates {
        if let Some((x, sse)) = solve_for_threshold(&points, t) {
            if best.as_ref().is_none_or(|(_, _, b)| sse < *b) {
                best = Some((t, x, sse));
            }
        }
    }
    let (threshold, x, _) = best.ok_or_else(|| {
        FitError::BadProbe("ladder is degenerate (singular fit for every threshold)".into())
    })?;

    let overhead = x[0];
    let intra = LinkParams { latency: x[1], bandwidth: if x[2] > 0.0 { 1.0 / x[2] } else { f64::INFINITY } };
    let inter = LinkParams { latency: x[3], bandwidth: if x[4] > 0.0 { 1.0 / x[4] } else { f64::INFINITY } };

    let mut res = rel_residuals(&points, &x, threshold);
    let max_rel_residual = res.iter().copied().fold(0.0, f64::max);
    let median_rel_residual = median(&mut res);
    let mut spreads: Vec<f64> = points.iter().map(|p| p.rel_spread).collect();
    let noise_sigma = median(&mut spreads);

    // Reduce cost: per observed size, the median extra time of the reduced
    // run over the bare transfer, per byte.
    let mut gammas = Vec::new();
    let mut collective_rel_err: f64 = 0.0;
    for obs in &probe.reduce {
        if obs.base.is_empty() || obs.reduced.is_empty() || obs.bytes == 0 {
            return Err(FitError::BadProbe("reduce observation missing repetitions".into()));
        }
        let base = median(&mut obs.base.clone());
        let reduced = median(&mut obs.reduced.clone());
        gammas.push(((reduced - base) / obs.bytes as f64).max(0.0));
        // Cross-check: the bare transfer is an intra p2p message — the
        // fitted form must predict it (the "one small collective" sanity
        // oracle, covering both protocol regimes).
        let k = if obs.bytes <= threshold { 1.0 } else { 3.0 };
        let pred = overhead + k * intra.latency + obs.bytes as f64 / intra.bandwidth;
        collective_rel_err = collective_rel_err.max(((pred - base) / base).abs());
    }
    let reduce_cost_per_byte = if gammas.is_empty() { 0.0 } else { median(&mut gammas) };

    // NIC serialization: `lanes` concurrent transfers through one egress NIC
    // take ~lanes wire times when serialized, ~1 when parallel.
    let nic_serialization = match &probe.fanout {
        Some(f) if !f.single.is_empty() && !f.fanned.is_empty() && f.lanes >= 2 => {
            let single = median(&mut f.single.clone());
            let fanned = median(&mut f.fanned.clone());
            let wire = f.bytes as f64 / inter.bandwidth;
            fanned - single > 0.5 * (f.lanes - 1) as f64 * wire
        }
        // No multi-node fan-out measured: keep the engine's default.
        _ => true,
    };

    let default_noise =
        if noise_sigma < 0.005 { NoiseModel::None } else { NoiseModel::gaussian(noise_sigma) };

    let spec = PlatformSpec {
        nodes: probe.nodes,
        cores_per_node: probe.cores_per_node,
        intra,
        inter,
        eager_threshold: threshold,
        send_overhead: overhead.max(0.0) / 2.0,
        recv_overhead: overhead.max(0.0) / 2.0,
        reduce_cost_per_byte,
        nic_serialization,
        default_noise,
    };

    // Guideline-based rejection (Hunold-style sanity oracle): a fit that is
    // not physically credible is an error, not a platform.
    let mut violations = Vec::new();
    let lat_range = 1e-9..=1e-2;
    let bw_range = 1e6..=1e14;
    if !lat_range.contains(&intra.latency) {
        violations.push(format!("intra latency {:.3e} s outside [1 ns, 10 ms]", intra.latency));
    }
    if !lat_range.contains(&inter.latency) {
        violations.push(format!("inter latency {:.3e} s outside [1 ns, 10 ms]", inter.latency));
    }
    if !bw_range.contains(&intra.bandwidth) {
        violations.push(format!("intra bandwidth {:.3e} B/s outside [1 MB/s, 100 TB/s]", intra.bandwidth));
    }
    if !bw_range.contains(&inter.bandwidth) {
        violations.push(format!("inter bandwidth {:.3e} B/s outside [1 MB/s, 100 TB/s]", inter.bandwidth));
    }
    if inter.latency < intra.latency {
        violations.push(format!(
            "inter latency {:.3e} s below intra latency {:.3e} s (hierarchy guideline)",
            inter.latency, intra.latency
        ));
    }
    if !(-1e-8..=1e-3).contains(&overhead) {
        violations.push(format!("CPU overhead {overhead:.3e} s outside [0, 1 ms]"));
    }
    if median_rel_residual > 0.15 {
        violations.push(format!(
            "median ladder residual {:.1}% above 15% (fit does not explain the probe)",
            median_rel_residual * 100.0
        ));
    }
    if max_rel_residual > 0.60 {
        violations.push(format!("worst ladder residual {:.1}% above 60%", max_rel_residual * 100.0));
    }
    if collective_rel_err > 0.30 {
        violations.push(format!(
            "reduce-collective cross-check off by {:.1}% (above 30%)",
            collective_rel_err * 100.0
        ));
    }
    if !violations.is_empty() {
        return Err(FitError::Rejected(violations));
    }

    Ok(FitReport {
        spec,
        overhead,
        median_rel_residual,
        max_rel_residual,
        collective_rel_err,
        noise_sigma,
        observations: points.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::{synthesize_probe, ProbeConfig};
    use pap_sim::{MachineId, Platform};

    fn rel(a: f64, b: f64) -> f64 {
        (a - b).abs() / b.abs().max(1e-30)
    }

    #[test]
    fn noise_free_fit_recovers_preset_parameters_exactly() {
        for m in MachineId::REAL {
            let cfg = ProbeConfig { reps: 1, noise: false, clock_sync: false, ..Default::default() };
            let probe = synthesize_probe(m, "t", &cfg).unwrap();
            let fit = fit_probe(&probe).unwrap_or_else(|e| panic!("{m:?}: {e}"));
            let truth = Platform::preset(m, 1);
            assert_eq!(fit.spec.eager_threshold, truth.eager_threshold, "{m:?} threshold");
            assert!(rel(fit.spec.intra.latency, truth.intra.latency) < 1e-3, "{m:?} intra L");
            assert!(rel(fit.spec.inter.latency, truth.inter.latency) < 1e-3, "{m:?} inter L");
            assert!(rel(fit.spec.intra.bandwidth, truth.intra.bandwidth) < 1e-3, "{m:?} intra bw");
            assert!(rel(fit.spec.inter.bandwidth, truth.inter.bandwidth) < 1e-3, "{m:?} inter bw");
            assert!(
                rel(fit.overhead, truth.send_overhead + truth.recv_overhead) < 1e-3,
                "{m:?} overhead"
            );
            assert!(
                rel(fit.spec.reduce_cost_per_byte, truth.reduce_cost_per_byte) < 0.05,
                "{m:?} reduce cost: fitted {} true {}",
                fit.spec.reduce_cost_per_byte,
                truth.reduce_cost_per_byte
            );
            assert!(fit.spec.nic_serialization, "{m:?} NIC serialization");
            assert!(fit.median_rel_residual < 1e-6, "{m:?} residual");
        }
    }

    #[test]
    fn noisy_skew_corrected_fit_stays_close() {
        let cfg = ProbeConfig::default(); // noise + clock sync on
        let probe = synthesize_probe(MachineId::Hydra, "h", &cfg).unwrap();
        let fit = fit_probe(&probe).unwrap();
        let truth = Platform::hydra(1);
        assert_eq!(fit.spec.eager_threshold, truth.eager_threshold);
        assert!(rel(fit.spec.inter.bandwidth, truth.inter.bandwidth) < 0.10);
        assert!(rel(fit.spec.intra.bandwidth, truth.intra.bandwidth) < 0.10);
        assert!(rel(fit.spec.inter.latency, truth.inter.latency) < 0.30);
        assert!(fit.spec.nic_serialization);
        assert!(fit.noise_sigma > 0.0);
    }

    #[test]
    fn uncorrected_skewed_probe_is_rejected() {
        // Timestamps from drifting clocks *without* HCA3 correction: the
        // ±500 µs offsets swamp the µs-scale one-way times. Emulate by
        // shifting every inter observation by a constant large offset with
        // the wrong sign (inter < intra).
        let cfg = ProbeConfig { reps: 3, noise: false, clock_sync: false, ..Default::default() };
        let mut probe = synthesize_probe(MachineId::Hydra, "h", &cfg).unwrap();
        for obs in &mut probe.ladder {
            if obs.scope == Scope::Inter {
                for t in &mut obs.reps {
                    *t += 320e-6; // raw NTP-scale clock offset
                }
            }
        }
        match fit_probe(&probe) {
            Err(FitError::Rejected(v)) => {
                assert!(!v.is_empty());
            }
            other => panic!("expected rejection, got {other:?}"),
        }
    }

    #[test]
    fn garbage_probe_is_rejected_not_served() {
        let cfg = ProbeConfig { reps: 1, noise: false, clock_sync: false, ..Default::default() };
        let mut probe = synthesize_probe(MachineId::Hydra, "h", &cfg).unwrap();
        for obs in &mut probe.ladder {
            for t in &mut obs.reps {
                *t = 1e-3; // flat times: zero bandwidth signal
            }
        }
        assert!(matches!(fit_probe(&probe), Err(FitError::Rejected(_))));
    }

    #[test]
    fn structurally_bad_probes_error_early() {
        let cfg = ProbeConfig { reps: 1, noise: false, clock_sync: false, ..Default::default() };
        let good = synthesize_probe(MachineId::Hydra, "h", &cfg).unwrap();

        let mut p = good.clone();
        p.format = 99;
        assert!(matches!(fit_probe(&p), Err(FitError::BadProbe(_))));

        let mut p = good.clone();
        p.ladder.retain(|o| o.scope == Scope::Intra);
        assert!(matches!(fit_probe(&p), Err(FitError::BadProbe(_))));

        let mut p = good.clone();
        p.ladder[0].reps.clear();
        assert!(matches!(fit_probe(&p), Err(FitError::BadProbe(_))));

        let mut p = good;
        p.ladder[0].reps[0] = -1.0;
        assert!(matches!(fit_probe(&p), Err(FitError::BadProbe(_))));
    }
}
