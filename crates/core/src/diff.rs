//! Differential cross-validation between the simulator and analytical
//! backends.
//!
//! The analytical backend (`pap-model`) substitutes for the simulator in
//! selection grids; this module keeps it honest. [`differential_grid`] runs
//! the *same* (algorithm × size × pattern) grid through both backends —
//! identical patterns, identical skews — and summarizes, per (collective,
//! pattern) cell, how well the model reproduces the simulator's *ranking*
//! of (algorithm, size) pairs (Spearman/Kendall rank correlation) and its
//! magnitudes (relative error). Selection only needs the ranking to be
//! right; the differential tests assert Spearman ≥ 0.8 on the Fig. 4 grid.

use pap_arrival::Shape;
use pap_microbench::{calibrate_avg_runtime, sweep, Backend, BenchConfig, SkewPolicy, SweepResult};
use pap_sim::Platform;
use serde::{Deserialize, Serialize};

use pap_collectives::CollectiveKind;

/// Model-vs-sim agreement for one (collective, pattern) cell, computed over
/// all (algorithm, size) pairs of the grid.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DiffCell {
    /// Collective kind.
    pub kind: CollectiveKind,
    /// Pattern name.
    pub pattern: String,
    /// Spearman rank correlation between the two backends' mean last
    /// delays over the (algorithm, size) pairs.
    pub spearman: f64,
    /// Kendall τ-b over the same pairs.
    pub kendall: f64,
    /// Median of `|model − sim| / sim` over the pairs.
    pub median_rel_err: f64,
    /// Worst-case relative error over the pairs.
    pub max_rel_err: f64,
    /// Labels `"alg@size"` of the pairs, ordered fastest-first under the
    /// *simulator*.
    pub sim_order: Vec<String>,
    /// The same labels ordered fastest-first under the *model*.
    pub model_order: Vec<String>,
}

/// Run the matched grid through both backends.
///
/// Skews are calibrated once per size with the *simulator* backend
/// (`skew_factor × t̄ᵃ`, the paper's §III-B rule) and then applied as
/// [`SkewPolicy::Fixed`] to both sweeps, so the two backends face exactly
/// the same arrival patterns and any disagreement is attributable to the
/// cost models alone.
pub fn differential_grid(
    platform: &Platform,
    kind: CollectiveKind,
    algs: &[u8],
    sizes: &[u64],
    shapes: &[Shape],
    skew_factor: f64,
    cfg: &BenchConfig,
) -> Result<Vec<DiffCell>, pap_microbench::BenchError> {
    let sim_cfg = cfg.clone().with_backend(Backend::Sim);
    let model_cfg = cfg.clone().with_backend(Backend::Model);
    let mut per_size: Vec<(u64, SweepResult, SweepResult)> = Vec::with_capacity(sizes.len());
    for &bytes in sizes {
        let skew = skew_factor * calibrate_avg_runtime(platform, kind, algs, bytes, &sim_cfg)?;
        let s = sweep(platform, kind, algs, shapes, bytes, SkewPolicy::Fixed(skew), &[], &sim_cfg)?;
        let m = sweep(platform, kind, algs, shapes, bytes, SkewPolicy::Fixed(skew), &[], &model_cfg)?;
        per_size.push((bytes, s, m));
    }

    let mut cells = Vec::with_capacity(shapes.len());
    for shape in shapes {
        let pattern = shape.name().to_string();
        let mut labels = Vec::new();
        let mut sim_vals = Vec::new();
        let mut model_vals = Vec::new();
        for (bytes, s, m) in &per_size {
            for &alg in algs {
                let sv = s.mean_last(alg, &pattern).expect("sim cell present");
                let mv = m.mean_last(alg, &pattern).expect("model cell present");
                labels.push(format!("{alg}@{bytes}"));
                sim_vals.push(sv);
                model_vals.push(mv);
            }
        }
        let mut rel: Vec<f64> =
            sim_vals.iter().zip(&model_vals).map(|(&s, &m)| (m - s).abs() / s).collect();
        rel.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median_rel_err = if rel.is_empty() { 0.0 } else { rel[rel.len() / 2] };
        let max_rel_err = rel.last().copied().unwrap_or(0.0);
        cells.push(DiffCell {
            kind,
            pattern,
            spearman: spearman(&sim_vals, &model_vals),
            kendall: kendall(&sim_vals, &model_vals),
            median_rel_err,
            max_rel_err,
            sim_order: order_labels(&labels, &sim_vals),
            model_order: order_labels(&labels, &model_vals),
        });
    }
    Ok(cells)
}

/// Labels sorted ascending by value (ties broken by original position, so
/// the order is deterministic).
fn order_labels(labels: &[String], vals: &[f64]) -> Vec<String> {
    let mut idx: Vec<usize> = (0..labels.len()).collect();
    idx.sort_by(|&a, &b| vals[a].partial_cmp(&vals[b]).unwrap().then(a.cmp(&b)));
    idx.into_iter().map(|i| labels[i].clone()).collect()
}

/// Fractional ranks (average rank for ties), the classical Spearman input.
fn ranks(vals: &[f64]) -> Vec<f64> {
    let n = vals.len();
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by(|&a, &b| vals[a].partial_cmp(&vals[b]).unwrap());
    let mut out = vec![0.0; n];
    let mut i = 0;
    while i < n {
        let mut j = i;
        while j + 1 < n && vals[idx[j + 1]] == vals[idx[i]] {
            j += 1;
        }
        // Positions i..=j are tied: assign the average rank.
        let avg = (i + j) as f64 / 2.0 + 1.0;
        for &k in &idx[i..=j] {
            out[k] = avg;
        }
        i = j + 1;
    }
    out
}

/// Spearman rank correlation (tie-aware: Pearson correlation of the
/// fractional ranks). Returns 1.0 for degenerate inputs (n < 2 or constant
/// ranks on either side — nothing to disagree about).
pub(crate) fn spearman(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    if a.len() < 2 {
        return 1.0;
    }
    let ra = ranks(a);
    let rb = ranks(b);
    let n = ra.len() as f64;
    let ma = ra.iter().sum::<f64>() / n;
    let mb = rb.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut va = 0.0;
    let mut vb = 0.0;
    for (x, y) in ra.iter().zip(&rb) {
        cov += (x - ma) * (y - mb);
        va += (x - ma) * (x - ma);
        vb += (y - mb) * (y - mb);
    }
    if va == 0.0 || vb == 0.0 {
        return 1.0;
    }
    cov / (va * vb).sqrt()
}

/// Kendall τ-b (tie-corrected). Returns 1.0 for degenerate inputs.
pub(crate) fn kendall(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    let n = a.len();
    if n < 2 {
        return 1.0;
    }
    let mut concordant = 0i64;
    let mut discordant = 0i64;
    let mut ties_a = 0i64;
    let mut ties_b = 0i64;
    for i in 0..n {
        for j in i + 1..n {
            let da = a[i] - a[j];
            let db = b[i] - b[j];
            if da == 0.0 && db == 0.0 {
                continue;
            } else if da == 0.0 {
                ties_a += 1;
            } else if db == 0.0 {
                ties_b += 1;
            } else if (da > 0.0) == (db > 0.0) {
                concordant += 1;
            } else {
                discordant += 1;
            }
        }
    }
    let n0 = concordant + discordant;
    let denom = (((n0 + ties_a) as f64) * ((n0 + ties_b) as f64)).sqrt();
    if denom == 0.0 {
        return 1.0;
    }
    (concordant - discordant) as f64 / denom
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spearman_detects_perfect_and_reversed_order() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [10.0, 20.0, 30.0, 40.0];
        let r = [40.0, 30.0, 20.0, 10.0];
        assert!((spearman(&a, &b) - 1.0).abs() < 1e-12);
        assert!((spearman(&a, &r) + 1.0).abs() < 1e-12);
        assert!((kendall(&a, &b) - 1.0).abs() < 1e-12);
        assert!((kendall(&a, &r) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn ties_are_averaged() {
        let r = ranks(&[5.0, 1.0, 5.0, 3.0]);
        assert_eq!(r, vec![3.5, 1.0, 3.5, 2.0]);
        // Tie-aware correlation of a constant vector is defined as 1.
        assert_eq!(spearman(&[2.0, 2.0, 2.0], &[1.0, 2.0, 3.0]), 1.0);
    }

    #[test]
    fn differential_grid_smoke() {
        // A tiny grid: 8 ranks, one collective, two sizes — asserts the
        // harness plumbing, not the Fig. 4 thresholds (tests/differential.rs
        // does that at scale).
        let platform = Platform::simcluster(8);
        let cfg = BenchConfig::simulation();
        let shapes = [Shape::NoDelay, Shape::LastDelayed];
        let cells = differential_grid(
            &platform,
            CollectiveKind::Allreduce,
            &[2, 3, 4],
            &[64, 4096],
            &shapes,
            1.5,
            &cfg,
        )
        .unwrap();
        assert_eq!(cells.len(), 2);
        for c in &cells {
            assert_eq!(c.sim_order.len(), 6);
            assert!(c.spearman >= -1.0 && c.spearman <= 1.0);
            assert!(c.max_rel_err.is_finite());
        }
    }
}
