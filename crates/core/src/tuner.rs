//! End-to-end tuner: benchmark a machine across collectives and message
//! sizes, apply a selection policy, and emit the tuning table an MPI
//! library's decision logic would consume.

use pap_arrival::Shape;
use pap_collectives::registry::experiment_ids;
use pap_collectives::CollectiveKind;
use pap_microbench::{sweep_cells, BenchConfig, SkewPolicy, SweepSpec};
use pap_sim::Platform;

use crate::matrix::BenchMatrix;
use crate::selection::{select, SelectionPolicy};
use crate::table::{TuningEntry, TuningTable};

/// What to tune.
#[derive(Debug, Clone)]
pub struct TunePlan {
    /// Collectives to tune (default: the paper's three).
    pub kinds: Vec<CollectiveKind>,
    /// Message sizes per collective (collective byte convention).
    pub sizes: Vec<u64>,
    /// Arrival patterns to benchmark under.
    pub shapes: Vec<Shape>,
    /// Skew calibration policy (§III-B / §IV-C).
    pub skew: SkewPolicy,
    /// Selection policy applied to each matrix.
    pub policy: SelectionPolicy,
}

impl Default for TunePlan {
    fn default() -> Self {
        TunePlan {
            kinds: CollectiveKind::PAPER.to_vec(),
            sizes: vec![8, 1024, 32 * 1024, 1 << 20],
            shapes: Shape::SUITE.to_vec(),
            skew: SkewPolicy::FactorOfAvg(1.0),
            policy: SelectionPolicy::robust(),
        }
    }
}

/// One tuned cell with its full evidence.
#[derive(Debug, Clone)]
pub struct TuneRecord {
    /// The decision.
    pub entry: TuningEntry,
    /// The benchmark matrix the decision was made from.
    pub matrix: BenchMatrix,
    /// What the status-quo (No-delay) policy would have picked instead.
    pub status_quo: u8,
}

/// Run the plan: one sweep of every (collective, size) cell, one decision
/// each.
///
/// The whole plan goes to one [`sweep_cells`] call, which fans out over
/// (cell, algorithm) units and builds each schedule at most twice. Results
/// come back in plan order, identical at every thread count.
///
/// Returns the tuning table and the per-cell evidence. Errors from the
/// harness are propagated with the offending cell named.
pub fn tune_machine(
    platform: &Platform,
    plan: &TunePlan,
    cfg: &BenchConfig,
) -> Result<(TuningTable, Vec<TuneRecord>), String> {
    let mut cells = Vec::new();
    for &kind in &plan.kinds {
        for &bytes in &plan.sizes {
            cells.push(SweepSpec { kind, bytes, algs: experiment_ids(kind) });
        }
    }
    let swept = sweep_cells(platform, &cells, &plan.shapes, plan.skew, &[], cfg);

    let mut table = TuningTable::new();
    let mut records = Vec::new();
    for (cell, sw) in cells.iter().zip(swept) {
        let (kind, bytes) = (cell.kind, cell.bytes);
        let sw = sw.map_err(|e| format!("{kind} @ {bytes} B: {e}"))?;
        let matrix = BenchMatrix::from_sweep(&sw);
        let alg = select(&matrix, &plan.policy)?;
        let status_quo = select(&matrix, &SelectionPolicy::NoDelayFastest)?;
        let entry = TuningEntry {
            machine: platform.machine.name().to_string(),
            kind,
            ranks: platform.ranks,
            bytes,
            alg,
            policy: format!("{:?}", plan.policy),
        };
        table.insert(entry.clone());
        records.push(TuneRecord { entry, matrix, status_quo });
    }
    Ok((table, records))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tunes_a_small_machine() {
        let platform = Platform::simcluster(16);
        let plan = TunePlan {
            sizes: vec![64, 4096],
            shapes: vec![Shape::NoDelay, Shape::Ascending, Shape::LastDelayed],
            ..TunePlan::default()
        };
        let (table, records) = tune_machine(&platform, &plan, &BenchConfig::simulation()).unwrap();
        assert_eq!(table.len(), 3 * 2);
        assert_eq!(records.len(), 6);
        for rec in &records {
            assert!(rec.matrix.algs.contains(&rec.entry.alg));
            // The decision is reachable through the lookup API.
            let hit = table
                .lookup("SimCluster", rec.entry.kind, 16, rec.entry.bytes)
                .expect("lookup");
            assert_eq!(hit.alg, rec.entry.alg);
        }
    }

    #[test]
    fn robust_pick_never_worse_on_average_and_potential_exists() {
        let platform = Platform::simcluster(64);
        let plan = TunePlan {
            kinds: vec![CollectiveKind::Reduce, CollectiveKind::Alltoall],
            sizes: vec![8, 1024, 32 * 1024],
            skew: SkewPolicy::FactorOfAvg(1.5),
            ..TunePlan::default()
        };
        let (_, records) = tune_machine(&platform, &plan, &BenchConfig::simulation()).unwrap();
        let mut per_pattern_shift = 0;
        for rec in &records {
            // The robust pick is at least as good as the status quo on the
            // pattern-averaged metric (the policy's defining property).
            let avg = rec.matrix.avg_normalized(&[]);
            let idx = |a: u8| rec.matrix.alg_index(a).unwrap();
            assert!(avg[idx(rec.entry.alg)] <= avg[idx(rec.status_quo)] + 1e-12);
            // Optimization potential: the per-pattern winner differs from
            // the No-delay winner somewhere.
            let nd = rec.matrix.best_in("no_delay").unwrap();
            if rec.matrix.patterns.iter().any(|p| rec.matrix.best_in(p).unwrap() != nd) {
                per_pattern_shift += 1;
            }
        }
        assert!(per_pattern_shift > 0, "no matrix showed any per-pattern optimum shift");
    }
}
