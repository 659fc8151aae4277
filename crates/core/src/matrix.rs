//! The benchmark matrix and the paper's derived metrics.

use pap_collectives::CollectiveKind;
use pap_microbench::SweepResult;
use serde::{Deserialize, Serialize};

/// `(pattern × algorithm)` grid of mean last-delay runtimes, with the
/// derived quantities used throughout the paper's figures.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchMatrix {
    /// Collective under study.
    pub kind: CollectiveKind,
    /// Message size (bytes).
    pub bytes: u64,
    /// Algorithm IDs (columns).
    pub algs: Vec<u8>,
    /// Pattern names (rows); `"no_delay"` is expected to be present for the
    /// robustness metrics.
    pub patterns: Vec<String>,
    /// `values[row][col]` = mean last delay `d̂` of `algs[col]` under
    /// `patterns[row]`, in seconds.
    pub values: Vec<Vec<f64>>,
}

impl BenchMatrix {
    /// Assemble from a sweep result.
    ///
    /// # Panics
    /// Panics if the sweep grid is incomplete.
    pub fn from_sweep(sweep: &SweepResult) -> Self {
        let values = sweep
            .patterns
            .iter()
            .map(|pat| {
                sweep
                    .algs
                    .iter()
                    .map(|&a| {
                        sweep
                            .mean_last(a, pat)
                            .unwrap_or_else(|| panic!("missing cell ({a}, {pat})"))
                    })
                    .collect()
            })
            .collect();
        BenchMatrix {
            kind: sweep.kind,
            bytes: sweep.bytes,
            algs: sweep.algs.clone(),
            patterns: sweep.patterns.clone(),
            values,
        }
    }

    /// Index of a pattern row.
    pub fn pattern_index(&self, pattern: &str) -> Option<usize> {
        self.patterns.iter().position(|p| p == pattern)
    }

    /// Index of an algorithm column.
    pub fn alg_index(&self, alg: u8) -> Option<usize> {
        self.algs.iter().position(|&a| a == alg)
    }

    /// Value of one cell.
    pub fn value(&self, pattern: &str, alg: u8) -> Option<f64> {
        Some(self.values[self.pattern_index(pattern)?][self.alg_index(alg)?])
    }

    /// Fastest algorithm under one pattern.
    pub fn best_in(&self, pattern: &str) -> Option<u8> {
        let row = &self.values[self.pattern_index(pattern)?];
        let (i, _) = row
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite runtimes"))?;
        Some(self.algs[i])
    }

    /// Row-normalized values (each row divided by its minimum), the
    /// semantics of the Fig. 8 heatmaps: the fastest algorithm per pattern
    /// reads 1.0.
    pub(crate) fn normalized_rows(&self) -> Vec<Vec<f64>> {
        self.values
            .iter()
            .map(|row| {
                let min = row.iter().copied().fold(f64::INFINITY, f64::min);
                row.iter().map(|v| v / min).collect()
            })
            .collect()
    }

    /// The "good set" of one pattern (Fig. 5): algorithms within `tol`
    /// (e.g. 0.05) of the fastest, which the paper treats as
    /// indistinguishable.
    pub fn good_set(&self, pattern: &str, tol: f64) -> Option<Vec<u8>> {
        let row = &self.values[self.pattern_index(pattern)?];
        let min = row.iter().copied().fold(f64::INFINITY, f64::min);
        Some(
            row.iter()
                .enumerate()
                .filter(|(_, &v)| v <= min * (1.0 + tol))
                .map(|(i, _)| self.algs[i])
                .collect(),
        )
    }

    /// Per-algorithm average of the normalized rows (the `Avg` row of
    /// Fig. 8), optionally excluding some patterns (the paper's
    /// `Avg (excl. FT-Sce.)`). The `no_delay` row **is** included unless
    /// listed in `exclude`.
    pub fn avg_normalized(&self, exclude: &[&str]) -> Vec<f64> {
        let norm = self.normalized_rows();
        let included: Vec<usize> = (0..self.patterns.len())
            .filter(|&i| !exclude.contains(&self.patterns[i].as_str()))
            .collect();
        assert!(!included.is_empty(), "all patterns excluded");
        (0..self.algs.len())
            .map(|c| included.iter().map(|&r| norm[r][c]).sum::<f64>() / included.len() as f64)
            .collect()
    }

    /// Robustness values (Fig. 6): `d̂ᵏ/d̂^{no_delay} − 1` per (pattern,
    /// algorithm). Negative = the algorithm absorbed skew; positive = it
    /// slowed down. Requires a `no_delay` row.
    pub(crate) fn robustness_vs_no_delay(&self) -> Option<Vec<Vec<f64>>> {
        let nd = self.pattern_index("no_delay")?;
        Some(
            self.values
                .iter()
                .map(|row| {
                    row.iter()
                        .enumerate()
                        .map(|(c, v)| v / self.values[nd][c] - 1.0)
                        .collect()
                })
                .collect(),
        )
    }

    /// Robustness classification with the paper's ±25 % thresholds:
    /// `-1` (green: ≥25 % faster), `0` (gray: within ±25 %), `+1` (red:
    /// ≥25 % slower).
    pub(crate) fn robustness_classes(&self, threshold: f64) -> Option<Vec<Vec<i8>>> {
        Some(
            self.robustness_vs_no_delay()?
                .iter()
                .map(|row| {
                    row.iter()
                        .map(|&v| {
                            if v <= -threshold {
                                -1
                            } else if v >= threshold {
                                1
                            } else {
                                0
                            }
                        })
                        .collect()
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matrix() -> BenchMatrix {
        BenchMatrix {
            kind: CollectiveKind::Alltoall,
            bytes: 32768,
            algs: vec![1, 2, 3],
            patterns: vec!["no_delay".into(), "ascending".into(), "last_delayed".into()],
            values: vec![
                vec![1.0, 2.0, 4.0],  // no_delay: alg 1 fastest
                vec![3.0, 2.0, 2.2],  // ascending: alg 2 fastest
                vec![10.0, 2.5, 2.0], // last_delayed: alg 3 fastest
            ],
        }
    }

    #[test]
    fn best_and_value_lookup() {
        let m = matrix();
        assert_eq!(m.best_in("no_delay"), Some(1));
        assert_eq!(m.best_in("last_delayed"), Some(3));
        assert_eq!(m.value("ascending", 2), Some(2.0));
        assert_eq!(m.value("ascending", 9), None);
        assert_eq!(m.best_in("nope"), None);
    }

    #[test]
    fn normalization_sets_row_min_to_one() {
        let m = matrix();
        let n = m.normalized_rows();
        for row in &n {
            let min = row.iter().copied().fold(f64::INFINITY, f64::min);
            assert!((min - 1.0).abs() < 1e-12);
        }
        assert!((n[2][0] - 5.0).abs() < 1e-12); // 10.0 / 2.0
    }

    #[test]
    fn good_set_uses_tolerance() {
        let m = matrix();
        assert_eq!(m.good_set("ascending", 0.05).unwrap(), vec![2]);
        assert_eq!(m.good_set("ascending", 0.15).unwrap(), vec![2, 3]);
    }

    #[test]
    fn avg_normalized_ranks_robust_algorithms() {
        let m = matrix();
        let avg = m.avg_normalized(&[]);
        // Alg 1 is great at no_delay but terrible elsewhere; algs 2 and 3
        // are consistently decent → lower average.
        assert!(avg[1] < avg[0], "avg {:?}", avg);
        assert!(avg[2] < avg[0]);
        // Excluding the pattern where alg 1 collapses changes its score.
        let avg_ex = m.avg_normalized(&["last_delayed"]);
        assert!(avg_ex[0] < avg[0]);
    }

    #[test]
    fn robustness_signs_match_paper_semantics() {
        let m = matrix();
        let r = m.robustness_vs_no_delay().unwrap();
        // no_delay row is all zeros.
        assert!(r[0].iter().all(|&v| v.abs() < 1e-12));
        // alg 1 slows down 10x under last_delayed → strongly positive.
        assert!(r[2][0] > 8.0);
        // alg 3 absorbs skew (4.0 → 2.0) → negative.
        assert!(r[2][2] < -0.25);
        let classes = m.robustness_classes(0.25).unwrap();
        assert_eq!(classes[2][0], 1);
        assert_eq!(classes[2][2], -1);
        assert_eq!(classes[0][0], 0);
    }

    #[test]
    #[should_panic]
    fn excluding_everything_panics() {
        let m = matrix();
        let _ = m.avg_normalized(&["no_delay", "ascending", "last_delayed"]);
    }
}
