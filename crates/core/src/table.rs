//! Persistent tuning tables — the artifact an MPI library's decision logic
//! consumes (keyed by machine, collective, process count, message size).

use std::cmp::Ordering;

use pap_collectives::CollectiveKind;
use serde::{Deserialize, Serialize};

/// The nearest-size rule for answering an untuned message size: orders two
/// tuned sizes `a` and `b` by their log-space distance to `bytes`, nearer
/// first, ties to the smaller size. Distances compare exactly as integer
/// ratios (sizes below 1 B count as 1 B), so a size halfway between two
/// tuned sizes always resolves the same way.
pub fn nearer_size(bytes: u64, a: u64, b: u64) -> Ordering {
    let q = u128::from(bytes.max(1));
    let ratio = |s: u64| {
        let s = u128::from(s.max(1));
        (s.max(q), s.min(q))
    };
    let ((an, ad), (bn, bd)) = (ratio(a), ratio(b));
    (an * bd).cmp(&(bn * ad)).then(a.cmp(&b))
}

/// One tuning decision.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TuningEntry {
    /// Machine name the decision was tuned on.
    pub machine: String,
    /// Collective.
    pub kind: CollectiveKind,
    /// Process count.
    pub ranks: usize,
    /// Message size the benchmark used (bytes, collective convention).
    pub bytes: u64,
    /// Chosen algorithm ID.
    pub alg: u8,
    /// Name of the policy that produced the choice (provenance).
    pub policy: String,
}

/// A set of tuning decisions with nearest-size lookup.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TuningTable {
    /// All entries.
    pub entries: Vec<TuningEntry>,
}

impl TuningTable {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add (or replace) a decision for an exact key.
    pub fn insert(&mut self, entry: TuningEntry) {
        self.entries.retain(|e| {
            !(e.machine == entry.machine && e.kind == entry.kind && e.ranks == entry.ranks && e.bytes == entry.bytes)
        });
        self.entries.push(entry);
    }

    /// Look up the decision for a message size: exact (machine, kind,
    /// ranks) match, then the entry whose benchmark size is nearest by
    /// [`nearer_size`] (how MPI decision maps interpolate between tuning
    /// points).
    pub fn lookup(&self, machine: &str, kind: CollectiveKind, ranks: usize, bytes: u64) -> Option<&TuningEntry> {
        self.entries
            .iter()
            .filter(|e| e.machine == machine && e.kind == kind && e.ranks == ranks)
            .min_by(|a, b| nearer_size(bytes, a.bytes, b.bytes))
    }

    /// Serialize to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("tuning tables are serializable")
    }

    /// Deserialize from JSON.
    pub fn from_json(s: &str) -> Result<Self, String> {
        serde_json::from_str(s).map_err(|e| e.to_string())
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(bytes: u64, alg: u8) -> TuningEntry {
        TuningEntry {
            machine: "Hydra".into(),
            kind: CollectiveKind::Alltoall,
            ranks: 1024,
            bytes,
            alg,
            policy: "robust".into(),
        }
    }

    #[test]
    fn insert_replaces_same_key() {
        let mut t = TuningTable::new();
        t.insert(entry(1024, 1));
        t.insert(entry(1024, 3));
        assert_eq!(t.len(), 1);
        assert_eq!(t.lookup("Hydra", CollectiveKind::Alltoall, 1024, 1024).unwrap().alg, 3);
    }

    #[test]
    fn nearest_log_size_lookup() {
        let mut t = TuningTable::new();
        t.insert(entry(8, 1));
        t.insert(entry(32 * 1024, 2));
        t.insert(entry(1 << 20, 3));
        let get = |b: u64| t.lookup("Hydra", CollectiveKind::Alltoall, 1024, b).unwrap().alg;
        assert_eq!(get(8), 1);
        assert_eq!(get(64), 1);
        assert_eq!(get(16 * 1024), 2);
        assert_eq!(get(100 * 1024), 2);
        assert_eq!(get(1 << 21), 3);
    }

    #[test]
    fn halfway_sizes_tie_to_the_smaller_size() {
        // 16 B is exactly halfway (in log space) between 8 B and 32 B, and
        // 0 B and 1 B are the same distance from 1 B: insertion order must
        // not matter.
        let mut t = TuningTable::new();
        t.insert(entry(32, 2));
        t.insert(entry(8, 1));
        assert_eq!(t.lookup("Hydra", CollectiveKind::Alltoall, 1024, 16).unwrap().bytes, 8);
        assert_eq!(nearer_size(16, 32, 8), Ordering::Greater);
        assert_eq!(nearer_size(1, 1, 0), Ordering::Greater);
        assert_eq!(nearer_size(u64::MAX, u64::MAX, 1), Ordering::Less);
    }

    #[test]
    fn lookup_respects_machine_kind_and_ranks() {
        let mut t = TuningTable::new();
        t.insert(entry(1024, 1));
        assert!(t.lookup("Galileo100", CollectiveKind::Alltoall, 1024, 1024).is_none());
        assert!(t.lookup("Hydra", CollectiveKind::Reduce, 1024, 1024).is_none());
        assert!(t.lookup("Hydra", CollectiveKind::Alltoall, 512, 1024).is_none());
    }

    #[test]
    fn json_round_trip() {
        let mut t = TuningTable::new();
        t.insert(entry(8, 1));
        t.insert(entry(1024, 4));
        let back = TuningTable::from_json(&t.to_json()).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back.lookup("Hydra", CollectiveKind::Alltoall, 1024, 8).unwrap().alg, 1);
        assert!(TuningTable::from_json("not json").is_err());
    }
}
