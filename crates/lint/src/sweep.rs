//! Registry sweep: lint every registered algorithm across rank counts,
//! roots, and eager-threshold-straddling sizes (the `papctl lint` backend).

use pap_collectives::registry::{algorithms, Algorithm, CollectiveKind};
use pap_collectives::{build, CollSpec};
use pap_sim::{Job, RankProgram};
use serde::{Deserialize, Serialize};

use crate::{lint_job, Diagnostic, LintConfig};

/// What both registry sweeps ([`sweep_registry`], [`crate::sweep_faults`])
/// cover: the rank counts, and the eager threshold the sizes straddle.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Rank counts to cover (power-of-two and non-power-of-two).
    pub ranks: Vec<usize>,
    /// Eager threshold for the protocol analysis; the sizes derive from it.
    pub eager_threshold: u64,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig { ranks: vec![8, 12, 32], eager_threshold: 16 * 1024 }
    }
}

impl SweepConfig {
    /// The lint sizes: e/32 and e sit at or below the eager threshold e,
    /// e + 1 and 8e force rendezvous (and multi-segment pipelines at the
    /// default segment size).
    fn lint_sizes(&self) -> Vec<u64> {
        let e = self.eager_threshold;
        vec![e.div_ceil(32).max(1), e, e.saturating_add(1), e.saturating_mul(8)]
    }

    /// The fault sizes: one eager (e/16), one rendezvous (8e). The protocol
    /// split flips which sends block, which changes the cones.
    pub(crate) fn fault_sizes(&self) -> Vec<u64> {
        let e = self.eager_threshold;
        vec![e.div_ceil(16).max(1), e.saturating_mul(8)]
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
    pub(crate) errors: usize,
    /// Warning-severity findings.
    pub(crate) warnings: usize,
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
    pub(crate) name: String,
    /// Cases linted.
    pub cases: usize,
    /// Total error-severity findings across the cases.
    pub(crate) errors: usize,
    /// Total warning-severity findings.
    pub(crate) warnings: usize,
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

/// Lint the full registry: every algorithm × `cfg.ranks` × every root (for
/// rows that read it, one otherwise) × the sizes straddling
/// `cfg.eager_threshold`. Cases fan out over the `pap-parallel` worker
/// pool; the result is deterministic and order-independent.
pub fn sweep_registry(cfg: &SweepConfig) -> SweepSummary {
    let sizes = cfg.lint_sizes();
    let mut cases: Vec<(&Algorithm, usize, usize, u64)> = Vec::new();
    for a in CollectiveKind::ALL.into_iter().flat_map(algorithms) {
        for &p in &cfg.ranks {
            let roots = if a.reads_root { p } else { 1 };
            for root in 0..roots {
                for &bytes in &sizes {
                    cases.push((a, p, root, bytes));
                }
            }
        }
    }

    let lint_cfg = LintConfig { eager_threshold: cfg.eager_threshold };
    let results = pap_parallel::par_map(&cases, |_, &(a, p, root, bytes)| {
        let spec = CollSpec::new(a.kind, a.id, bytes).with_root(root);
        match build(&spec, p) {
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
    for (&(a, p, root, bytes), (errs, warns, lines)) in cases.iter().zip(&results) {
        errors += errs;
        warnings += warns;
        if lines.is_empty() {
            clean += 1;
        } else {
            findings.push(CaseFinding {
                collective: a.kind.name().to_string(),
                alg: a.id,
                ranks: p,
                root,
                bytes,
                errors: *errs,
                warnings: *warns,
                diagnostics: lines.clone(),
            });
        }
        let row = algo_rows
            .iter_mut()
            .find(|r| r.collective == a.kind.name() && r.alg == a.id)
            .expect("cases come from the registry");
        row.cases += 1;
        row.errors += errs;
        row.warnings += warns;
    }
    algo_rows.retain(|r| r.cases > 0);

    SweepSummary {
        ranks: cfg.ranks.clone(),
        sizes,
        eager_threshold: cfg.eager_threshold,
        cases: cases.len(),
        clean_cases: clean,
        errors,
        warnings,
        algorithms: algo_rows,
        findings,
    }
}
