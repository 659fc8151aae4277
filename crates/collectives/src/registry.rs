//! Algorithm registry: the ID ↔ name mapping of Table II plus SMPI aliases.

use serde::{Deserialize, Serialize};

/// The collective operations this crate implements. Ordered by
/// declaration, which orders `papd`'s evidence index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum CollectiveKind {
    /// Rooted reduction (`MPI_Reduce`).
    Reduce,
    /// Global reduction (`MPI_Allreduce`).
    Allreduce,
    /// Complete exchange (`MPI_Alltoall`).
    Alltoall,
    /// One-to-all (`MPI_Bcast`) — substrate for reduce+bcast Allreduce and a
    /// rooted collective in its own right.
    Bcast,
    /// Synchronization only (`MPI_Barrier`).
    Barrier,
    /// All-to-all data collection (`MPI_Allgather`).
    Allgather,
    /// All-to-one collection (`MPI_Gather`).
    Gather,
    /// One-to-all distribution (`MPI_Scatter`).
    Scatter,
}

impl CollectiveKind {
    /// The three collectives the paper's experiments focus on.
    pub const PAPER: [CollectiveKind; 3] =
        [CollectiveKind::Reduce, CollectiveKind::Allreduce, CollectiveKind::Alltoall];

    /// Every collective, in declaration order.
    pub const ALL: [CollectiveKind; 8] = [
        CollectiveKind::Reduce, CollectiveKind::Allreduce, CollectiveKind::Alltoall,
        CollectiveKind::Bcast, CollectiveKind::Barrier, CollectiveKind::Allgather,
        CollectiveKind::Gather, CollectiveKind::Scatter,
    ];

    /// MPI-style name.
    pub fn name(self) -> &'static str {
        match self {
            CollectiveKind::Reduce => "MPI_Reduce",
            CollectiveKind::Allreduce => "MPI_Allreduce",
            CollectiveKind::Alltoall => "MPI_Alltoall",
            CollectiveKind::Bcast => "MPI_Bcast",
            CollectiveKind::Barrier => "MPI_Barrier",
            CollectiveKind::Allgather => "MPI_Allgather",
            CollectiveKind::Gather => "MPI_Gather",
            CollectiveKind::Scatter => "MPI_Scatter",
        }
    }

    /// Stable numeric discriminant used as a phase-label kind.
    pub fn label_kind(self) -> u32 {
        match self {
            CollectiveKind::Reduce => 1,
            CollectiveKind::Allreduce => 2,
            CollectiveKind::Alltoall => 3,
            CollectiveKind::Bcast => 4,
            CollectiveKind::Barrier => 5,
            CollectiveKind::Allgather => 6,
            CollectiveKind::Gather => 7,
            CollectiveKind::Scatter => 8,
        }
    }
}

impl std::fmt::Display for CollectiveKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for CollectiveKind {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "reduce" | "mpi_reduce" => Ok(CollectiveKind::Reduce),
            "allreduce" | "mpi_allreduce" => Ok(CollectiveKind::Allreduce),
            "alltoall" | "mpi_alltoall" => Ok(CollectiveKind::Alltoall),
            "bcast" | "mpi_bcast" => Ok(CollectiveKind::Bcast),
            "barrier" | "mpi_barrier" => Ok(CollectiveKind::Barrier),
            "allgather" | "mpi_allgather" => Ok(CollectiveKind::Allgather),
            "gather" | "mpi_gather" => Ok(CollectiveKind::Gather),
            "scatter" | "mpi_scatter" => Ok(CollectiveKind::Scatter),
            other => Err(format!("unknown collective '{other}'")),
        }
    }
}

/// One registered algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Algorithm {
    /// Which collective this algorithm implements.
    pub kind: CollectiveKind,
    /// Numeric ID following Table II of the paper (Open MPI 4.1.x `tuned`
    /// numbering).
    pub id: u8,
    /// Open MPI name (Table II).
    pub name: &'static str,
    /// Table II abbreviation.
    pub abbrev: &'static str,
    /// Name of the equivalent SimGrid/SMPI selector value, when one appears
    /// in the paper's simulation study (Fig. 4).
    pub smpi_alias: Option<&'static str>,
    /// Whether the paper's real-machine experiments include this ID
    /// (the paper omits two-process-only and consistently-poor algorithms).
    pub in_paper_experiments: bool,
    /// Whether the schedule changes with `CollSpec::root` (sweeps visit one root otherwise).
    pub reads_root: bool,
}

/// Table II + substrates. IDs within a kind are unique and sorted.
pub const ALGORITHMS: &[Algorithm] = &[
    // ---- MPI_Reduce (Table II: 1..7) ----
    Algorithm { kind: CollectiveKind::Reduce, id: 1, name: "Linear", abbrev: "Lin", smpi_alias: Some("flat_tree"), in_paper_experiments: true, reads_root: true },
    Algorithm { kind: CollectiveKind::Reduce, id: 2, name: "Chain", abbrev: "Chain", smpi_alias: Some("ompi_chain"), in_paper_experiments: true, reads_root: true },
    Algorithm { kind: CollectiveKind::Reduce, id: 3, name: "Pipeline", abbrev: "Pipe", smpi_alias: Some("ompi_pipeline"), in_paper_experiments: true, reads_root: true },
    Algorithm { kind: CollectiveKind::Reduce, id: 4, name: "Binary", abbrev: "Bin", smpi_alias: Some("ompi_binary"), in_paper_experiments: true, reads_root: true },
    Algorithm { kind: CollectiveKind::Reduce, id: 5, name: "Binomial", abbrev: "Binom", smpi_alias: Some("ompi_binomial"), in_paper_experiments: true, reads_root: true },
    Algorithm { kind: CollectiveKind::Reduce, id: 6, name: "In-order Binary", abbrev: "In-Bin", smpi_alias: Some("ompi_in_order_binary"), in_paper_experiments: true, reads_root: true },
    Algorithm { kind: CollectiveKind::Reduce, id: 7, name: "Rabenseifner", abbrev: "Raben", smpi_alias: Some("scatter_gather"), in_paper_experiments: true, reads_root: true },
    // ---- MPI_Allreduce (Table II: 2..6; ID 1 exists in Open MPI but the
    //      paper omits it from the experiments) ----
    Algorithm { kind: CollectiveKind::Allreduce, id: 1, name: "Linear", abbrev: "Lin", smpi_alias: None, in_paper_experiments: false, reads_root: true },
    Algorithm { kind: CollectiveKind::Allreduce, id: 2, name: "Non-overlapping", abbrev: "Non-ovlp", smpi_alias: Some("redbcast"), in_paper_experiments: true, reads_root: true },
    Algorithm { kind: CollectiveKind::Allreduce, id: 3, name: "Recursive Doubling", abbrev: "Rec-Dbl", smpi_alias: Some("rdb"), in_paper_experiments: true, reads_root: false },
    Algorithm { kind: CollectiveKind::Allreduce, id: 4, name: "Ring", abbrev: "Ring", smpi_alias: Some("lr"), in_paper_experiments: true, reads_root: false },
    Algorithm { kind: CollectiveKind::Allreduce, id: 5, name: "Segmented Ring", abbrev: "Seg-Ring", smpi_alias: Some("ompi_ring_segmented"), in_paper_experiments: true, reads_root: false },
    Algorithm { kind: CollectiveKind::Allreduce, id: 6, name: "Rabenseifner", abbrev: "Raben", smpi_alias: Some("rab_rdb"), in_paper_experiments: true, reads_root: false },
    // ---- MPI_Alltoall (Table II: 1..4) ----
    Algorithm { kind: CollectiveKind::Alltoall, id: 1, name: "Linear", abbrev: "Lin", smpi_alias: Some("basic_linear"), in_paper_experiments: true, reads_root: false },
    Algorithm { kind: CollectiveKind::Alltoall, id: 2, name: "Pairwise", abbrev: "Pair", smpi_alias: Some("pair"), in_paper_experiments: true, reads_root: false },
    Algorithm { kind: CollectiveKind::Alltoall, id: 3, name: "Modified Bruck", abbrev: "M-Bruck", smpi_alias: Some("bruck"), in_paper_experiments: true, reads_root: false },
    Algorithm { kind: CollectiveKind::Alltoall, id: 4, name: "Linear with Sync", abbrev: "L-Sync", smpi_alias: None, in_paper_experiments: true, reads_root: false },
    // ---- MPI_Bcast (substrate) ----
    Algorithm { kind: CollectiveKind::Bcast, id: 1, name: "Linear", abbrev: "Lin", smpi_alias: Some("flat_tree"), in_paper_experiments: false, reads_root: true },
    Algorithm { kind: CollectiveKind::Bcast, id: 2, name: "Chain", abbrev: "Chain", smpi_alias: Some("ompi_chain"), in_paper_experiments: false, reads_root: true },
    Algorithm { kind: CollectiveKind::Bcast, id: 3, name: "Pipeline", abbrev: "Pipe", smpi_alias: Some("ompi_pipeline"), in_paper_experiments: false, reads_root: true },
    Algorithm { kind: CollectiveKind::Bcast, id: 4, name: "Binary", abbrev: "Bin", smpi_alias: None, in_paper_experiments: false, reads_root: true },
    Algorithm { kind: CollectiveKind::Bcast, id: 5, name: "Binomial", abbrev: "Binom", smpi_alias: Some("ompi_binomial"), in_paper_experiments: false, reads_root: true },
    // ---- MPI_Barrier (substrate) ----
    Algorithm { kind: CollectiveKind::Barrier, id: 1, name: "Dissemination", abbrev: "Diss", smpi_alias: None, in_paper_experiments: false, reads_root: false },
    // ---- MPI_Allgather (the paper's related work studies its arrival
    //      sensitivity; Open MPI tuned numbering) ----
    Algorithm { kind: CollectiveKind::Allgather, id: 1, name: "Linear", abbrev: "Lin", smpi_alias: Some("gather_bcast"), in_paper_experiments: false, reads_root: true },
    Algorithm { kind: CollectiveKind::Allgather, id: 2, name: "Bruck", abbrev: "Bruck", smpi_alias: Some("bruck"), in_paper_experiments: false, reads_root: false },
    Algorithm { kind: CollectiveKind::Allgather, id: 3, name: "Recursive Doubling", abbrev: "Rec-Dbl", smpi_alias: Some("rdb"), in_paper_experiments: false, reads_root: false },
    Algorithm { kind: CollectiveKind::Allgather, id: 4, name: "Ring", abbrev: "Ring", smpi_alias: Some("ring"), in_paper_experiments: false, reads_root: false },
    Algorithm { kind: CollectiveKind::Allgather, id: 5, name: "Neighbor Exchange", abbrev: "Neigh", smpi_alias: Some("NTSLR_NB"), in_paper_experiments: false, reads_root: false },
    // ---- MPI_Gather / MPI_Scatter (substrates & rooted collectives) ----
    Algorithm { kind: CollectiveKind::Gather, id: 1, name: "Linear", abbrev: "Lin", smpi_alias: None, in_paper_experiments: false, reads_root: true },
    Algorithm { kind: CollectiveKind::Gather, id: 2, name: "Binomial", abbrev: "Binom", smpi_alias: Some("ompi_binomial"), in_paper_experiments: false, reads_root: true },
    Algorithm { kind: CollectiveKind::Scatter, id: 1, name: "Linear", abbrev: "Lin", smpi_alias: None, in_paper_experiments: false, reads_root: true },
    Algorithm { kind: CollectiveKind::Scatter, id: 2, name: "Binomial", abbrev: "Binom", smpi_alias: Some("ompi_binomial"), in_paper_experiments: false, reads_root: true },
];

/// All algorithms of one collective, sorted by ID.
pub fn algorithms(kind: CollectiveKind) -> Vec<&'static Algorithm> {
    ALGORITHMS.iter().filter(|a| a.kind == kind).collect()
}

/// Look up one algorithm by kind and ID.
pub fn algorithm(kind: CollectiveKind, id: u8) -> Option<&'static Algorithm> {
    ALGORITHMS.iter().find(|a| a.kind == kind && a.id == id)
}

/// The algorithm IDs used in the paper's real-machine experiments for a
/// collective (e.g. Alltoall → 1..4).
pub fn experiment_ids(kind: CollectiveKind) -> Vec<u8> {
    ALGORITHMS.iter().filter(|a| a.kind == kind && a.in_paper_experiments).map(|a| a.id).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_unique_and_sorted_per_kind() {
        for kind in CollectiveKind::ALL {
            let algs = algorithms(kind);
            assert!(!algs.is_empty());
            for w in algs.windows(2) {
                assert!(w[0].id < w[1].id, "{kind}: ids not strictly increasing");
            }
        }
    }

    #[test]
    fn table_ii_contents() {
        // Spot-check Table II.
        assert_eq!(algorithm(CollectiveKind::Reduce, 5).unwrap().name, "Binomial");
        assert_eq!(algorithm(CollectiveKind::Reduce, 6).unwrap().abbrev, "In-Bin");
        assert_eq!(algorithm(CollectiveKind::Allreduce, 2).unwrap().abbrev, "Non-ovlp");
        assert_eq!(algorithm(CollectiveKind::Alltoall, 3).unwrap().name, "Modified Bruck");
        assert_eq!(algorithm(CollectiveKind::Alltoall, 4).unwrap().abbrev, "L-Sync");
        // Experiment sets match the paper's figures.
        assert_eq!(experiment_ids(CollectiveKind::Alltoall), vec![1, 2, 3, 4]);
        assert_eq!(experiment_ids(CollectiveKind::Reduce), vec![1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(experiment_ids(CollectiveKind::Allreduce), vec![2, 3, 4, 5, 6]);
    }

    #[test]
    fn kind_parse_and_display() {
        use std::str::FromStr;
        for k in CollectiveKind::PAPER {
            assert_eq!(CollectiveKind::from_str(k.name()).unwrap(), k);
        }
        assert_eq!(CollectiveKind::from_str("alltoall").unwrap(), CollectiveKind::Alltoall);
        assert!(CollectiveKind::from_str("gatherv").is_err());
    }

    #[test]
    fn reads_root_matches_the_builders() {
        // A row reads the root exactly when some root builds a schedule
        // other than root 0's.
        for a in ALGORITHMS {
            for p in [5, 8, 12] {
                for bytes in [1024, 128 * 1024] {
                    let at = |root| {
                        let spec = crate::CollSpec::new(a.kind, a.id, bytes).with_root(root);
                        crate::build(&spec, p).unwrap().rank_ops
                    };
                    let base = at(0);
                    assert_eq!(
                        (1..p).any(|r| at(r) != base),
                        a.reads_root,
                        "{} alg {} at p={p}, {bytes} B",
                        a.kind,
                        a.id
                    );
                }
            }
        }
    }

    #[test]
    fn label_kinds_distinct() {
        let mut seen = std::collections::HashSet::new();
        for a in ALGORITHMS {
            seen.insert(a.kind.label_kind());
        }
        assert_eq!(seen.len(), 8);
    }
}
