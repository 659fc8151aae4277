//! `MPI_Bcast` algorithms (substrate for reduce+bcast Allreduce variants and
//! a rooted collective in its own right).
//!
//! All algorithms are a (possibly segmented) pipeline along a tree: each
//! rank receives each segment from its parent, merges it into slot 0, and
//! forwards it to its children with non-blocking sends.
//!
//! Slot convention: slot 0 = result, slot 1 = receive temp.

use pap_sim::data::{BlockFilter, SlotInit};
use pap_sim::Op;

use crate::spec::{BuildError, Built, CollSpec};
use crate::steps::{self, Fold};
use crate::topo::{self, TreeNode};

/// Build the bcast schedules. Dispatched from [`crate::build`].
pub(crate) fn build(spec: &CollSpec, p: usize) -> Result<Built, BuildError> {
    match spec.alg {
        1..=5 => Ok(tree_bcast(spec, p, true)),
        id => Err(BuildError::UnknownAlgorithm(spec.kind, id)),
    }
}

/// Build bcast schedules that *propagate the existing content of slot 0 at
/// the root* instead of initializing movement blocks — used to compose
/// reduce+bcast Allreduce algorithms.
pub(crate) fn build_propagate(spec: &CollSpec, p: usize) -> Built {
    tree_bcast(spec, p, false)
}

/// IDs 1–5: flat (unsegmented), chain, pipeline, binary and binomial.
fn tree_bcast(spec: &CollSpec, p: usize, init_movement: bool) -> Built {
    let (segmented, tree_of): (bool, fn(usize, usize) -> TreeNode) = match spec.alg {
        1 => (false, topo::flat),
        2 => (true, |v, p| topo::chain(v, p, 4)),
        3 => (true, topo::pipeline),
        4 => (true, topo::binary),
        _ => (true, topo::binomial),
    };
    let segs = if segmented { topo::seg_sizes(spec.bytes, spec.seg_bytes) } else { vec![spec.bytes] };
    let nseg = segs.len();
    steps::per_rank(p, nseg, |me| {
        let node = tree_of(topo::vrank(me, spec.root, p), p);
        let mut ops = Vec::new();
        if me == spec.root && init_movement {
            ops.push(Op::InitSlot { slot: 0, init: SlotInit::movement_blocks(spec.root, 0, nseg as u32) });
        }
        let mut req = 0usize;
        for (s, &seg_bytes) in segs.iter().enumerate() {
            let tag = spec.tag_base + s as u64;
            if let Some(pv) = node.parent {
                steps::recv(&mut ops, topo::actual(pv, spec.root, p), tag, Fold::Overwrite);
            }
            for &cv in &node.children {
                let child = topo::actual(cv, spec.root, p);
                let seg = BlockFilter::SegRange(s as u32, s as u32 + 1);
                ops.push(Op::isend_part(child, tag, seg_bytes, 0, seg, req));
                req += 1;
            }
        }
        if req > 0 {
            ops.push(Op::waitall((0..req).collect()));
        }
        ops
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::CollectiveKind;

    fn spec(alg: u8, bytes: u64) -> CollSpec {
        CollSpec::new(CollectiveKind::Bcast, alg, bytes)
    }

    #[test]
    fn all_ids_build_various_p() {
        for alg in 1..=5u8 {
            for p in [1usize, 2, 3, 7, 8, 16] {
                let b = build(&spec(alg, 4096), p).unwrap();
                assert_eq!(b.rank_ops.len(), p);
            }
        }
    }

    #[test]
    fn root_only_sends_leaves_only_receive() {
        let b = build(&spec(5, 64), 8).unwrap();
        assert!(!b.rank_ops[0].iter().any(|o| matches!(o, Op::Recv { .. })));
        // Rank 7 in a binomial tree of 8 is a leaf.
        let leaf = &b.rank_ops[7];
        assert!(!leaf.iter().any(|o| matches!(o, Op::Isend { .. })));
        assert_eq!(leaf.iter().filter(|o| matches!(o, Op::Recv { .. })).count(), 1);
    }

    #[test]
    fn pipeline_segments_flow() {
        let s = spec(3, 32 * 1024).with_seg_bytes(8192);
        let b = build(&s, 4).unwrap();
        assert_eq!(b.nseg, 4);
        // A middle rank receives 4 segments and forwards 4.
        let mid = &b.rank_ops[1];
        assert_eq!(mid.iter().filter(|o| matches!(o, Op::Recv { .. })).count(), 4);
        assert_eq!(mid.iter().filter(|o| matches!(o, Op::Isend { .. })).count(), 4);
    }

    #[test]
    fn rerooted_tree_shifts_structure() {
        let b = build(&spec(5, 64).with_root(3), 8).unwrap();
        // Root 3 initializes and never receives.
        assert!(matches!(b.rank_ops[3][0], Op::InitSlot { .. }));
        assert!(!b.rank_ops[3].iter().any(|o| matches!(o, Op::Recv { .. })));
        assert!(b.rank_ops[0].iter().any(|o| matches!(o, Op::Recv { .. })));
    }

    #[test]
    fn propagate_mode_does_not_init() {
        let b = build_propagate(&spec(5, 64), 4);
        assert!(!b.rank_ops[0].iter().any(|o| matches!(o, Op::InitSlot { .. })));
    }
}
