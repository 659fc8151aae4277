//! Registry sweep: lint every registered algorithm across rank counts,
//! roots, and eager-threshold-straddling sizes (the `papctl lint` backend).

use pap_collectives::registry::{algorithms, CollectiveKind};
use pap_collectives::{build, CollSpec, DEFAULT_SEG_BYTES};
use pap_sim::{Job, RankProgram};
use serde::{Deserialize, Serialize};

use crate::{lint_job, Diagnostic, LintConfig};

/// Whether the builders of a kind consume `spec.root` (rooted collectives,
/// plus Allreduce whose reduce+bcast composition routes through the root).
pub(crate) fn uses_root(kind: CollectiveKind) -> bool {
    !matches!(kind, CollectiveKind::Alltoall | CollectiveKind::Allgather | CollectiveKind::Barrier)
}

/// Sweep configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepConfig {
    /// Rank counts to cover (power-of-two and non-power-of-two).
    pub ranks: Vec<usize>,
    /// Message sizes in bytes; must straddle the eager threshold.
    pub sizes: Vec<u64>,
    /// Eager threshold for the deadlock/fragility analysis.
    pub eager_threshold: u64,
    /// Segment size for segmented algorithms.
    pub seg_bytes: u64,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            ranks: vec![8, 12, 32],
            // 512 B / 16 KiB sit at-or-below the default eager threshold,
            // 16 KiB + 1 / 128 KiB force rendezvous (and multi-segment
            // pipelines at the default 8 KiB segment size).
            sizes: vec![512, 16 * 1024, 16 * 1024 + 1, 128 * 1024],
            eager_threshold: 16 * 1024,
            seg_bytes: DEFAULT_SEG_BYTES,
        }
    }
}

/// One non-clean case of the sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CaseFinding {
    /// Collective name (`MPI_Reduce`, …).
    pub collective: String,
    /// Algorithm ID.
    pub alg: u8,
    /// Rank count.
    pub ranks: usize,
    /// Root rank of the case.
    pub root: usize,
    /// Message size.
    pub bytes: u64,
    /// Error-severity findings.
    pub errors: usize,
    /// Warning-severity findings.
    pub warnings: usize,
    /// Rendered diagnostics (one line per finding).
    pub diagnostics: Vec<String>,
}

/// Per-algorithm aggregate row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AlgRow {
    /// Collective name.
    pub collective: String,
    /// Algorithm ID.
    pub alg: u8,
    /// Algorithm name (Table II).
    pub name: String,
    /// Cases linted.
    pub cases: usize,
    /// Total error-severity findings across the cases.
    pub errors: usize,
    /// Total warning-severity findings.
    pub warnings: usize,
}

/// Aggregated sweep result (the `papctl lint --json` document and the
/// `results/lint_registry.json` fixture).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepSummary {
    /// Rank counts covered.
    pub ranks: Vec<usize>,
    /// Sizes covered.
    pub sizes: Vec<u64>,
    /// Eager threshold used.
    pub eager_threshold: u64,
    /// Total cases linted.
    pub cases: usize,
    /// Cases with no finding at all.
    pub clean_cases: usize,
    /// Total error-severity findings.
    pub errors: usize,
    /// Total warning-severity findings.
    pub warnings: usize,
    /// Per-algorithm aggregates, registry order.
    pub algorithms: Vec<AlgRow>,
    /// Every non-clean case, with rendered diagnostics.
    pub findings: Vec<CaseFinding>,
}

impl SweepSummary {
    /// No error-severity finding anywhere.
    pub fn is_clean(&self) -> bool {
        self.errors == 0
    }

    /// Fixed-width pass/fail table (the `papctl lint` human output).
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<14} {:>3}  {:<18} {:>6} {:>7} {:>9}  status\n",
            "collective", "alg", "name", "cases", "errors", "warnings"
        ));
        for row in &self.algorithms {
            out.push_str(&format!(
                "{:<14} {:>3}  {:<18} {:>6} {:>7} {:>9}  {}\n",
                row.collective,
                row.alg,
                row.name,
                row.cases,
                row.errors,
                row.warnings,
                if row.errors > 0 { "FAIL" } else { "ok" }
            ));
        }
        out.push_str(&format!(
            "{:<14} {:>3}  {:<18} {:>6} {:>7} {:>9}  {}\n",
            "TOTAL",
            "",
            "",
            self.cases,
            self.errors,
            self.warnings,
            if self.errors > 0 { "FAIL" } else { "ok" }
        ));
        out
    }
}

#[derive(Clone, Copy)]
struct Case {
    kind: CollectiveKind,
    alg: u8,
    p: usize,
    root: usize,
    bytes: u64,
}

/// Lint the full registry: every algorithm × `cfg.ranks` × all roots (for
/// root-consuming collectives) × `cfg.sizes`. Cases fan out over the
/// `pap-parallel` worker pool; the result is deterministic and
/// order-independent.
pub fn sweep_registry(cfg: &SweepConfig) -> SweepSummary {
    let mut cases = Vec::new();
    for kind in CollectiveKind::ALL {
        for a in algorithms(kind) {
            for &p in &cfg.ranks {
                let roots: Vec<usize> = if uses_root(kind) { (0..p).collect() } else { vec![0] };
                for root in roots {
                    for &bytes in &cfg.sizes {
                        cases.push(Case { kind, alg: a.id, p, root, bytes });
                    }
                }
            }
        }
    }

    let lint_cfg = LintConfig { eager_threshold: cfg.eager_threshold };
    let seg_bytes = cfg.seg_bytes;
    let results: Vec<(usize, usize, Vec<String>)> = pap_parallel::par_map(&cases, |_, case| {
        let spec = CollSpec::new(case.kind, case.alg, case.bytes)
            .with_root(case.root)
            .with_seg_bytes(seg_bytes);
        match build(&spec, case.p) {
            Ok(built) => {
                let programs: Vec<RankProgram> =
                    built.rank_ops.into_iter().map(RankProgram::from_ops).collect();
                let report = lint_job(&Job::new(programs), &lint_cfg);
                let lines = report.diagnostics.iter().map(Diagnostic::line).collect();
                (report.errors(), report.warnings(), lines)
            }
            Err(e) => (1, 0, vec![format!("error[build] {e}")]),
        }
    });

    // One row per registered algorithm, in registry order.
    let mut algo_rows: Vec<AlgRow> = CollectiveKind::ALL
        .into_iter()
        .flat_map(algorithms)
        .map(|a| AlgRow {
            collective: a.kind.name().to_string(),
            alg: a.id,
            name: a.name.to_string(),
            cases: 0,
            errors: 0,
            warnings: 0,
        })
        .collect();
    let mut findings = Vec::new();
    let (mut errors, mut warnings, mut clean) = (0usize, 0usize, 0usize);
    for (case, (errs, warns, lines)) in cases.iter().zip(&results) {
        errors += errs;
        warnings += warns;
        if lines.is_empty() {
            clean += 1;
        } else {
            findings.push(CaseFinding {
                collective: case.kind.name().to_string(),
                alg: case.alg,
                ranks: case.p,
                root: case.root,
                bytes: case.bytes,
                errors: *errs,
                warnings: *warns,
                diagnostics: lines.clone(),
            });
        }
        let row = algo_rows
            .iter_mut()
            .find(|r| r.collective == case.kind.name() && r.alg == case.alg)
            .expect("cases come from the registry");
        row.cases += 1;
        row.errors += errs;
        row.warnings += warns;
    }
    algo_rows.retain(|r| r.cases > 0);

    SweepSummary {
        ranks: cfg.ranks.clone(),
        sizes: cfg.sizes.clone(),
        eager_threshold: cfg.eager_threshold,
        cases: cases.len(),
        clean_cases: clean,
        errors,
        warnings,
        algorithms: algo_rows,
        findings,
    }
}
