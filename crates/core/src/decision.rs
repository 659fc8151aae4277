//! Library-side decision logic: the component inside an MPI library that,
//! at `MPI_Alltoall(...)` time, maps (collective, communicator size,
//! message size) to an algorithm using a tuning table — with the
//! interpolation and fallback rules real decision maps need (tuning points
//! never cover every size, and jobs run at communicator sizes nobody tuned).

use pap_collectives::registry::experiment_ids;
use pap_collectives::CollectiveKind;
use serde::{Deserialize, Serialize};

use crate::table::TuningTable;

/// A compiled decision function for one machine.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DecisionLogic {
    /// Machine name the table was tuned on.
    pub(crate) machine: String,
    /// The underlying tuning decisions.
    pub(crate) table: TuningTable,
}

/// How a decision was reached (for diagnostics/telemetry).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DecisionSource {
    /// Exact (ranks, size) tuning point.
    Exact,
    /// Nearest tuning point in log(ranks) × log(bytes) space.
    Interpolated,
    /// No tuning data for the collective: the library default (the lowest
    /// registered experiment algorithm ID).
    Fallback,
}

impl DecisionLogic {
    /// Wrap a tuning table.
    pub fn new(machine: impl Into<String>, table: TuningTable) -> Self {
        DecisionLogic { machine: machine.into(), table }
    }

    /// Decide the algorithm for one collective invocation.
    pub fn decide(&self, kind: CollectiveKind, ranks: usize, bytes: u64) -> (u8, DecisionSource) {
        // Exact point?
        if let Some(e) = self
            .table
            .entries
            .iter()
            .find(|e| e.machine == self.machine && e.kind == kind && e.ranks == ranks && e.bytes == bytes)
        {
            return (e.alg, DecisionSource::Exact);
        }
        // Nearest in log-log space over all entries of this (machine, kind).
        let lnl = |x: f64| x.max(1.0).ln();
        let best = self
            .table
            .entries
            .iter()
            .filter(|e| e.machine == self.machine && e.kind == kind)
            .min_by(|a, b| {
                let d = |e: &&crate::table::TuningEntry| {
                    let dr = lnl(e.ranks as f64) - lnl(ranks as f64);
                    let db = lnl(e.bytes as f64) - lnl(bytes as f64);
                    dr * dr + db * db
                };
                d(a).partial_cmp(&d(b)).expect("finite distances")
            });
        match best {
            Some(e) => (e.alg, DecisionSource::Interpolated),
            None => (
                experiment_ids(kind).first().copied().unwrap_or(1),
                DecisionSource::Fallback,
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::TuningEntry;

    fn entry(kind: CollectiveKind, ranks: usize, bytes: u64, alg: u8) -> TuningEntry {
        TuningEntry { machine: "Hydra".into(), kind, ranks, bytes, alg, policy: "robust".into() }
    }

    fn logic() -> DecisionLogic {
        let mut t = TuningTable::new();
        t.insert(entry(CollectiveKind::Alltoall, 1024, 8, 3));
        t.insert(entry(CollectiveKind::Alltoall, 1024, 1 << 20, 2));
        t.insert(entry(CollectiveKind::Alltoall, 64, 8, 3));
        t.insert(entry(CollectiveKind::Reduce, 1024, 8, 5));
        DecisionLogic::new("Hydra", t)
    }

    #[test]
    fn exact_points_hit() {
        let l = logic();
        assert_eq!(l.decide(CollectiveKind::Alltoall, 1024, 8), (3, DecisionSource::Exact));
        assert_eq!(l.decide(CollectiveKind::Alltoall, 1024, 1 << 20), (2, DecisionSource::Exact));
    }

    #[test]
    fn interpolation_picks_nearest_in_loglog() {
        let l = logic();
        // 1024 ranks, 64 B → nearest is (1024, 8).
        assert_eq!(l.decide(CollectiveKind::Alltoall, 1024, 64), (3, DecisionSource::Interpolated));
        // 1024 ranks, 256 KiB → nearest is (1024, 1 MiB).
        assert_eq!(
            l.decide(CollectiveKind::Alltoall, 1024, 256 * 1024),
            (2, DecisionSource::Interpolated)
        );
        // 96 ranks, 8 B → nearest is (64, 8).
        assert_eq!(l.decide(CollectiveKind::Alltoall, 96, 8), (3, DecisionSource::Interpolated));
    }

    #[test]
    fn fallback_when_kind_untouched() {
        let l = logic();
        let (alg, src) = l.decide(CollectiveKind::Allreduce, 1024, 8);
        assert_eq!(src, DecisionSource::Fallback);
        assert_eq!(alg, 2, "lowest registered Allreduce experiment id");
    }

    #[test]
    fn serde_round_trip() {
        let l = logic();
        let js = serde_json::to_string(&l).unwrap();
        let back: DecisionLogic = serde_json::from_str(&js).unwrap();
        assert_eq!(back.decide(CollectiveKind::Alltoall, 1024, 8).0, 3);
    }
}
