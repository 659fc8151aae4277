//! Closed-loop validation: does selection from *fitted* parameters agree
//! with selection from the *true* platform?
//!
//! The true preset is treated as a black box: a probe is synthesized from it
//! (noise and clock skew on), fitted blind, and both platforms are then swept
//! over the Fig. 4 grid — every paper collective × message size × selection
//! policy (robust plus the per-pattern oracle for each arrival shape). A
//! cell agrees when both platforms pick the same algorithm.

use pap_arrival::Shape;
use pap_collectives::registry::experiment_ids;
use pap_collectives::CollectiveKind;
use pap_core::{select, BenchMatrix, SelectionPolicy};
use pap_microbench::{sweep, Backend, BenchConfig, SkewPolicy};
use pap_sim::{MachineId, Platform};
use serde::{Deserialize, Serialize};

/// Ranks of the Fig. 4 comparison grid (two+ nodes on every preset).
pub const CHECK_RANKS: usize = 64;

/// Message sizes of the Fig. 4 comparison grid.
pub(crate) const CHECK_SIZES: [u64; 3] = [8, 1024, 32_768];

/// Arrival-time skew of the comparison grid, as a factor of the calibrated
/// mean no-delay runtime (the setting of the differential test tier).
pub(crate) const CHECK_SKEW: f64 = 1.5;

/// One compared grid cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AgreementCell {
    /// Collective name.
    pub kind: String,
    /// Message size (bytes).
    pub bytes: u64,
    /// Selection policy label (`robust` or `best_under:<pattern>`).
    pub policy: String,
    /// Algorithm chosen on the true platform.
    pub true_pick: u8,
    /// Algorithm chosen on the fitted platform.
    pub fitted_pick: u8,
}

impl AgreementCell {
    /// Whether the two platforms picked the same algorithm.
    pub fn agrees(&self) -> bool {
        self.true_pick == self.fitted_pick
    }
}

/// Fitted-vs-true value of one scalar parameter.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ParamRow {
    /// Parameter name.
    pub name: String,
    /// Value on the true preset.
    pub true_value: f64,
    /// Fitted value.
    pub fitted_value: f64,
    /// `|fitted - true| / true`.
    pub rel_err: f64,
}

/// Selection agreement between a true preset and a fitted platform.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AgreementReport {
    /// True machine name.
    pub machine: String,
    /// Fitted machine name (`custom:<name>`).
    pub fitted: String,
    /// Ranks of the grid.
    pub ranks: usize,
    /// Every compared cell.
    pub cells: Vec<AgreementCell>,
    /// Fraction of agreeing cells in `[0, 1]`.
    pub agreement: f64,
    /// Fitted-vs-true parameter table.
    pub params: Vec<ParamRow>,
}

fn param_rows(truth: &Platform, fitted: &Platform) -> Vec<ParamRow> {
    let row = |name: &str, t: f64, f: f64| ParamRow {
        name: name.to_string(),
        true_value: t,
        fitted_value: f,
        rel_err: (f - t).abs() / t.abs().max(1e-30),
    };
    vec![
        row("intra_latency_s", truth.intra.latency, fitted.intra.latency),
        row("intra_bandwidth_Bps", truth.intra.bandwidth, fitted.intra.bandwidth),
        row("inter_latency_s", truth.inter.latency, fitted.inter.latency),
        row("inter_bandwidth_Bps", truth.inter.bandwidth, fitted.inter.bandwidth),
        row("eager_threshold_B", truth.eager_threshold as f64, fitted.eager_threshold as f64),
        row(
            "overhead_s",
            truth.send_overhead + truth.recv_overhead,
            fitted.send_overhead + fitted.recv_overhead,
        ),
        row("reduce_cost_s_per_B", truth.reduce_cost_per_byte, fitted.reduce_cost_per_byte),
        row(
            "nic_serialization",
            truth.nic_serialization as u8 as f64,
            fitted.nic_serialization as u8 as f64,
        ),
    ]
}

/// The policy suite of the comparison: the paper's robust average plus the
/// per-pattern oracle for every arrival shape (`best_under:no_delay` is the
/// status-quo policy).
fn policies() -> Vec<(String, SelectionPolicy)> {
    let mut v = vec![("robust".to_string(), SelectionPolicy::robust())];
    for sh in Shape::SUITE {
        v.push((
            format!("best_under:{}", sh.name()),
            SelectionPolicy::BestUnderPattern(sh.name().to_string()),
        ));
    }
    v
}

fn matrix_for(platform: &Platform, kind: CollectiveKind, bytes: u64) -> Result<BenchMatrix, String> {
    let algs = experiment_ids(kind);
    let cfg = BenchConfig::simulation().with_backend(Backend::Model);
    let sw = sweep(
        platform,
        kind,
        &algs,
        &Shape::SUITE,
        bytes,
        SkewPolicy::FactorOfAvg(CHECK_SKEW),
        &[],
        &cfg,
    )
    .map_err(|e| format!("{kind} @ {bytes} B: {e}"))?;
    Ok(BenchMatrix::from_sweep(&sw))
}

/// Compare selection between two resolvable machines over the Fig. 4 grid.
///
/// Both machines go through the same model-backed sweep; only the platform
/// parameters differ. `fitted` is typically a registered custom machine.
pub fn selection_agreement(
    truth: MachineId,
    fitted: MachineId,
    ranks: usize,
) -> Result<AgreementReport, String> {
    let tp = Platform::try_preset(truth, ranks)?;
    let fp = Platform::try_preset(fitted, ranks)?;
    let policies = policies();
    let mut cells = Vec::new();
    for kind in CollectiveKind::PAPER {
        for &bytes in &CHECK_SIZES {
            let tm = matrix_for(&tp, kind, bytes)?;
            let fm = matrix_for(&fp, kind, bytes)?;
            for (label, policy) in &policies {
                let true_pick = select(&tm, policy)?;
                let fitted_pick = select(&fm, policy)?;
                cells.push(AgreementCell {
                    kind: kind.to_string(),
                    bytes,
                    policy: label.clone(),
                    true_pick,
                    fitted_pick,
                });
            }
        }
    }
    let agreeing = cells.iter().filter(|c| c.agrees()).count();
    let agreement = agreeing as f64 / cells.len() as f64;
    Ok(AgreementReport {
        machine: truth.name().to_string(),
        fitted: fitted.name().to_string(),
        ranks,
        cells,
        agreement,
        params: param_rows(&tp, &fp),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_machines_agree_everywhere() {
        let r = selection_agreement(MachineId::SimCluster, MachineId::SimCluster, 16).unwrap();
        assert_eq!(r.agreement, 1.0);
        assert_eq!(r.cells.len(), CollectiveKind::PAPER.len() * CHECK_SIZES.len() * 10);
        assert!(r.params.iter().all(|p| p.rel_err == 0.0));
    }

    #[test]
    fn unregistered_fitted_machine_reports_error() {
        let ghost = MachineId::custom("check-ghost").unwrap();
        assert!(selection_agreement(MachineId::Hydra, ghost, 16).is_err());
    }
}
