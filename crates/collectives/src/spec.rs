//! Collective invocation specs and the schedule builder entry point.

use pap_sim::program::Tag;
use pap_sim::Op;
use serde::{Deserialize, Serialize};

use crate::registry::{algorithm, CollectiveKind};
use crate::topo::{self, Tree};

/// Default segment size (bytes) for segmented algorithms — Open MPI's
/// common `tuned` default magnitude.
pub const DEFAULT_SEG_BYTES: u64 = 8192;

/// Tag space reserved per collective instance. Two concurrently running
/// collective instances (e.g. micro-benchmark repetitions) must use
/// `tag_base` values at least this far apart.
pub const TAG_SPAN: u64 = 1 << 20;

/// One collective invocation to be scheduled.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CollSpec {
    /// Which collective.
    pub kind: CollectiveKind,
    /// Algorithm ID (Table II numbering; see [`crate::registry`]).
    pub alg: u8,
    /// Message size in bytes. Convention follows the micro-benchmark
    /// literature: for Reduce/Allreduce/Bcast this is the total vector size;
    /// for Alltoall it is the per-destination block size.
    pub bytes: u64,
    /// Root rank (rooted collectives; ignored otherwise).
    pub root: usize,
    /// Segment size for segmented algorithms.
    pub seg_bytes: u64,
    /// Base tag; the instance uses tags in `[tag_base, tag_base + TAG_SPAN)`.
    pub tag_base: Tag,
}

impl CollSpec {
    /// Spec with root 0, default segmentation, tag base 0.
    pub fn new(kind: CollectiveKind, alg: u8, bytes: u64) -> Self {
        CollSpec { kind, alg, bytes, root: 0, seg_bytes: DEFAULT_SEG_BYTES, tag_base: 0 }
    }

    /// Replace the root.
    pub fn with_root(mut self, root: usize) -> Self {
        self.root = root;
        self
    }

    /// Replace the segment size.
    pub fn with_seg_bytes(mut self, seg_bytes: u64) -> Self {
        self.seg_bytes = seg_bytes;
        self
    }

    /// Replace the tag base.
    pub fn with_tag_base(mut self, tag_base: Tag) -> Self {
        self.tag_base = tag_base;
        self
    }

    // What each algorithm ID is built from, written once for the builders
    // and for `pap-model`.

    /// The tree and segment sizes of a tree algorithm, or `None`. Reduce
    /// and Bcast IDs 1–5 run one engine over five trees (Open MPI
    /// `tuned`); a row says the tree and whether the vector travels in
    /// `seg_bytes` segments or whole.
    pub fn tree(&self) -> Option<(Tree, Vec<u64>)> {
        use CollectiveKind::{Bcast, Reduce};
        let (tree, segmented) = match (self.kind, self.alg) {
            (Reduce | Bcast, 1) => (Tree::Flat, false),
            (Reduce | Bcast, 2) => (Tree::Chain4, true),
            (Reduce | Bcast, 3) => (Tree::Pipeline, true),
            (Reduce | Bcast, 4) => (Tree::Binary, true),
            (Reduce, 5) => (Tree::Binomial, false),
            (Bcast, 5) => (Tree::Binomial, true),
            _ => return None,
        };
        let segs = if segmented { topo::seg_sizes(self.bytes, self.seg_bytes) } else { vec![self.bytes] };
        Some((tree, segs))
    }

    /// The two phases of a composed algorithm at `p` ranks, or `None`.
    /// Allreduce 1 and 2 reduce to the root (Reduce 1 or 5) and broadcast
    /// the result (Bcast 1 or 5). Allgather 1 gathers (Gather 2) and
    /// broadcasts the assembled buffer with Bcast 5 on the per-block grid,
    /// so block `j` travels as segment `j`. The broadcast propagates what
    /// the first phase left in slot 0, on tags above the first phase's.
    pub fn phases(&self, p: usize) -> Option<(CollSpec, CollSpec)> {
        use CollectiveKind::{Allgather, Allreduce, Bcast, Gather, Reduce};
        let phase = |kind, alg| CollSpec { kind, alg, ..self.clone() };
        let (first, bcast) = match (self.kind, self.alg) {
            (Allreduce, 1) => (phase(Reduce, 1), phase(Bcast, 1)),
            (Allreduce, 2) => (phase(Reduce, 5), phase(Bcast, 5)),
            (Allgather, 1) => {
                // Exactly p segments even at `bytes == 0`: the per-block
                // size is clamped to ≥ 1 byte, or the grid would collapse
                // to one segment and only block 0 would leave the root.
                let block = self.bytes.max(1);
                (phase(Gather, 2), CollSpec { bytes: block * p as u64, seg_bytes: block, ..phase(Bcast, 5) })
            }
            _ => return None,
        };
        Some((first, bcast.with_tag_base(self.tag_base + 0x40000)))
    }

    /// The algorithm ID that runs at `p` ranks. As in Open MPI, Allgather 3
    /// (recursive doubling) needs a power of two and falls back to Bruck
    /// (2), and Allgather 5 (neighbor exchange) needs an even count and
    /// falls back to ring (4). Every other ID runs as itself.
    pub fn runs_as(&self, p: usize) -> u8 {
        match (self.kind, self.alg) {
            (CollectiveKind::Allgather, 3) if !p.is_power_of_two() => 2,
            (CollectiveKind::Allgather, 5) if !p.is_multiple_of(2) => 4,
            (_, alg) => alg,
        }
    }

    /// How many (receive, send) request pairs a linear Alltoall keeps in
    /// flight: all of them for ID 1, two for ID 4 (linear with sync).
    /// `None` for every other algorithm.
    pub fn request_window(&self) -> Option<usize> {
        match (self.kind, self.alg) {
            (CollectiveKind::Alltoall, 1) => Some(usize::MAX),
            (CollectiveKind::Alltoall, 4) => Some(2),
            _ => None,
        }
    }
}

/// A built collective: per-rank operation schedules.
#[derive(Debug, Clone)]
pub struct Built {
    /// `rank_ops[r]` is the schedule of rank `r` (including input
    /// initialization).
    pub rank_ops: Vec<Vec<Op>>,
    /// Number of logical segments/chunks the data coordinates use (the
    /// verification grid).
    pub(crate) nseg: u32,
}

/// Why a spec could not be built.
#[derive(Debug, Clone, PartialEq)]
pub enum BuildError {
    /// No such (kind, id) in the registry.
    UnknownAlgorithm(CollectiveKind, u8),
    /// Parameter out of range (root, process count, …).
    Invalid(String),
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::UnknownAlgorithm(k, id) => write!(f, "unknown algorithm {id} for {k}"),
            BuildError::Invalid(s) => write!(f, "invalid collective spec: {s}"),
        }
    }
}

impl std::error::Error for BuildError {}

/// Build the per-rank schedules of a collective invocation for `p` ranks.
pub fn build(spec: &CollSpec, p: usize) -> Result<Built, BuildError> {
    if p == 0 {
        return Err(BuildError::Invalid("p must be positive".into()));
    }
    if spec.root >= p {
        return Err(BuildError::Invalid(format!("root {} out of range for p={p}", spec.root)));
    }
    if spec.seg_bytes == 0 {
        return Err(BuildError::Invalid("seg_bytes must be positive".into()));
    }
    if algorithm(spec.kind, spec.alg).is_none() {
        return Err(BuildError::UnknownAlgorithm(spec.kind, spec.alg));
    }
    match spec.kind {
        CollectiveKind::Reduce => crate::reduce::build(spec, p),
        CollectiveKind::Allreduce => crate::allreduce::build(spec, p),
        CollectiveKind::Alltoall => crate::alltoall::build(spec, p),
        CollectiveKind::Bcast => crate::bcast::build(spec, p),
        CollectiveKind::Barrier => crate::barrier::build(spec, p),
        CollectiveKind::Allgather => crate::allgather::build(spec, p),
        CollectiveKind::Gather => crate::gather::build(spec, p),
        CollectiveKind::Scatter => crate::scatter::build(spec, p),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_rejects_bad_params() {
        let spec = CollSpec::new(CollectiveKind::Reduce, 5, 64);
        assert!(matches!(build(&spec, 0), Err(BuildError::Invalid(_))));
        assert!(matches!(
            build(&spec.clone().with_root(8), 8),
            Err(BuildError::Invalid(_))
        ));
        assert!(matches!(
            build(&spec.clone().with_seg_bytes(0), 8),
            Err(BuildError::Invalid(_))
        ));
        let bad = CollSpec::new(CollectiveKind::Reduce, 99, 64);
        assert!(matches!(build(&bad, 8), Err(BuildError::UnknownAlgorithm(..))));
    }

    #[test]
    fn spec_builder_chain() {
        let s = CollSpec::new(CollectiveKind::Bcast, 5, 4096)
            .with_root(3)
            .with_seg_bytes(1024)
            .with_tag_base(TAG_SPAN * 7);
        assert_eq!(s.root, 3);
        assert_eq!(s.seg_bytes, 1024);
        assert_eq!(s.tag_base, TAG_SPAN * 7);
    }
}
