//! Warm-restart snapshots: the tuning-table-with-evidence file format
//! shared by `papctl tune --out` (writer) and `papd --snapshot` (reader).
//!
//! A snapshot retains the full [`BenchMatrix`] per cell, not just the final
//! decision, so a restarted daemon can re-apply *any* selection policy —
//! including per-pattern `best_under:<shape>` picks for queries that carry
//! arrival samples — without re-running the tuning sweep.

use pap_core::{BenchMatrix, FaultMatrix, TuneRecord, TuningEntry, TuningTable};
use serde::{Deserialize, Serialize};

use crate::store::{check_evidence, CellKey};

/// Current snapshot file format version.
pub const SNAPSHOT_FORMAT: u32 = 1;

/// One tuned cell: the decision plus the evidence it was made from.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SnapshotCell {
    /// The robust-policy decision for this cell.
    pub entry: TuningEntry,
    /// What the status-quo (no-delay-fastest) policy would have picked.
    pub status_quo: u8,
    /// The benchmark matrix backing the decision.
    pub matrix: BenchMatrix,
    /// Degraded-mode evidence (`papctl tune --faults`): lets a restarted
    /// `papd --policy fault_robust` answer without re-measuring the fault
    /// grid. Absent in snapshots written without `--faults`.
    #[serde(default)]
    pub faults: Option<FaultMatrix>,
}

/// A persisted tuning run: everything `papd` needs for an L2 warm start.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Snapshot {
    /// File format version ([`SNAPSHOT_FORMAT`]).
    pub format: u32,
    /// Canonical machine name the cells were tuned on.
    pub machine: String,
    /// Rank count the cells were tuned at.
    pub ranks: usize,
    /// Backend that produced the evidence (`"model"` or `"sim"`).
    pub backend: String,
    /// All tuned cells.
    pub cells: Vec<SnapshotCell>,
}

impl Snapshot {
    /// Build a snapshot from a tuning run's per-cell evidence.
    pub fn from_records(machine: &str, ranks: usize, backend: &str, records: &[TuneRecord]) -> Self {
        Snapshot {
            format: SNAPSHOT_FORMAT,
            machine: machine.to_string(),
            ranks,
            backend: backend.to_string(),
            cells: records
                .iter()
                .map(|r| SnapshotCell {
                    entry: r.entry.clone(),
                    status_quo: r.status_quo,
                    matrix: r.matrix.clone(),
                    faults: None,
                })
                .collect(),
        }
    }

    /// The decisions as a plain [`TuningTable`] (what `papctl tune` prints).
    pub fn table(&self) -> TuningTable {
        let mut t = TuningTable::new();
        for cell in &self.cells {
            t.insert(cell.entry.clone());
        }
        t
    }

    /// Serialize to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("snapshots are serializable")
    }

    /// Parse a snapshot and put every cell through the evidence check that
    /// replica pages pass too.
    pub fn from_json(s: &str) -> Result<Self, String> {
        let snap: Snapshot = serde_json::from_str(s).map_err(|e| format!("bad snapshot: {e}"))?;
        if snap.format != SNAPSHOT_FORMAT {
            return Err(format!(
                "snapshot format {} not supported (expected {SNAPSHOT_FORMAT})",
                snap.format
            ));
        }
        for (i, cell) in snap.cells.iter().enumerate() {
            let key = CellKey::of(&snap.machine, &cell.entry);
            let picks = [("status-quo", cell.status_quo), ("decided", cell.entry.alg)];
            check_evidence(&key, &picks, &cell.matrix, cell.faults.as_ref())
                .map_err(|e| format!("snapshot cell {i} ({key}): {e}"))?;
        }
        Ok(snap)
    }

    /// Write the snapshot to `path`.
    pub fn save(&self, path: &std::path::Path) -> Result<(), String> {
        std::fs::write(path, self.to_json()).map_err(|e| format!("write {}: {e}", path.display()))
    }

    /// Read and validate a snapshot from `path`.
    pub fn load(path: &std::path::Path) -> Result<Self, String> {
        let s = std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        Self::from_json(&s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pap_core::{tune_machine, TunePlan};
    use pap_microbench::{BenchConfig, FAULT_GRID_VERSION};
    use pap_sim::Platform;

    fn tiny_records() -> Vec<TuneRecord> {
        let platform = Platform::simcluster(8);
        let plan = TunePlan {
            kinds: vec![pap_collectives::CollectiveKind::Reduce],
            sizes: vec![64, 4096],
            ..TunePlan::default()
        };
        tune_machine(&platform, &plan, &BenchConfig::simulation()).unwrap().1
    }

    #[test]
    fn json_round_trip_preserves_everything() {
        let records = tiny_records();
        let snap = Snapshot::from_records("SimCluster", 8, "model", &records);
        let back = Snapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.cells.len(), 2);
        assert_eq!(back.table().len(), 2);
    }

    #[test]
    fn file_round_trip() {
        let records = tiny_records();
        let snap = Snapshot::from_records("SimCluster", 8, "model", &records);
        let dir = std::env::temp_dir().join("pap_snapshot_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.json");
        snap.save(&path).unwrap();
        assert_eq!(Snapshot::load(&path).unwrap(), snap);
        std::fs::remove_file(&path).ok();
    }

    /// A synthetic-but-valid fault grid for the first tiny cell: alg 2 is
    /// the only one that survives the (made-up) scenario.
    fn doctored_faults(cell: &SnapshotCell) -> FaultMatrix {
        FaultMatrix {
            kind: cell.entry.kind,
            bytes: cell.entry.bytes,
            algs: vec![1, 2],
            scenarios: vec!["clean".into(), "doctored".into()],
            values: vec![vec![Some(1.0), Some(1.5)], vec![None, Some(1.6)]],
            statically_decided: Vec::new(),
            grid_version: FAULT_GRID_VERSION,
        }
    }

    #[test]
    fn fault_evidence_round_trips_and_versions_are_enforced() {
        let records = tiny_records();
        let mut snap = Snapshot::from_records("SimCluster", 8, "model", &records);
        snap.cells[0].faults = Some(doctored_faults(&snap.cells[0]));
        let back = Snapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.cells[0].faults.as_ref().unwrap().scenarios[1], "doctored");
        assert!(back.cells[1].faults.is_none());

        // A fault grid from an older sweep definition is rejected outright.
        let mut stale = snap.clone();
        stale.cells[0].faults.as_mut().unwrap().grid_version = FAULT_GRID_VERSION - 1;
        let err = Snapshot::from_json(&stale.to_json()).unwrap_err();
        assert!(err.contains("fault grid"), "{err}");
        assert!(err.contains(&format!("v{FAULT_GRID_VERSION}")), "{err}");

        // Fault evidence must describe the cell it is attached to.
        let mut crossed = snap.clone();
        crossed.cells[0].faults.as_mut().unwrap().bytes += 1;
        assert!(Snapshot::from_json(&crossed.to_json()).unwrap_err().contains("fault evidence"));
    }

    #[test]
    fn pre_fault_snapshots_still_load() {
        // Snapshots written before fault evidence existed have no `faults`
        // key at all; they must keep loading (with lazy re-measurement).
        let records = tiny_records();
        let snap = Snapshot::from_records("SimCluster", 8, "model", &records);
        let legacy = snap.to_json().replace(",\n      \"faults\": null", "");
        assert_ne!(legacy, snap.to_json(), "the faults key should have been stripped");
        let back = Snapshot::from_json(&legacy).unwrap();
        assert!(back.cells.iter().all(|c| c.faults.is_none()));
    }

    #[test]
    fn rejects_wrong_format_and_inconsistent_cells() {
        let records = tiny_records();
        let mut snap = Snapshot::from_records("SimCluster", 8, "model", &records);
        snap.format = 99;
        assert!(Snapshot::from_json(&snap.to_json()).unwrap_err().contains("format 99"));
        snap.format = SNAPSHOT_FORMAT;
        snap.cells[0].entry.alg = 250;
        assert!(Snapshot::from_json(&snap.to_json()).unwrap_err().contains("absent"));
        assert!(Snapshot::from_json("{\"truncated\":").is_err());
    }
}
