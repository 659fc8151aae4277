//! `MPI_Reduce` algorithms (Table II IDs 1–7).
//!
//! All tree algorithms share one engine: a (possibly segmented) reduction
//! along a tree, where each rank receives each child's partial per segment,
//! folds it into its accumulator, and forwards the segment to its parent
//! with a non-blocking send (pipelining across segments).
//!
//! Slot convention: slot 0 = accumulator/result, slot 1 = receive temp.

use pap_sim::data::{BlockFilter, SlotInit};
use pap_sim::Op;

use crate::spec::{BuildError, Built, CollSpec};
use crate::steps::{self, Fold};
use crate::topo::{self, ChunkPrefix, TreeNode};

/// Build the reduce schedules. Dispatched from [`crate::build`].
pub(crate) fn build(spec: &CollSpec, p: usize) -> Result<Built, BuildError> {
    match spec.alg {
        1 => Ok(tree_reduce(spec, p, false, |v| topo::flat(v, p))),
        2 => Ok(tree_reduce(spec, p, true, |v| topo::chain(v, p, 4))),
        3 => Ok(tree_reduce(spec, p, true, |v| topo::pipeline(v, p))),
        4 => Ok(tree_reduce(spec, p, true, |v| topo::binary(v, p))),
        5 => Ok(tree_reduce(spec, p, false, |v| topo::binomial(v, p))),
        6 => Ok(in_order_binary(spec, p)),
        7 => Ok(rabenseifner(spec, p)),
        id => Err(BuildError::UnknownAlgorithm(spec.kind, id)),
    }
}

/// Generic segmented tree reduction over virtual ranks (tree re-rooted at
/// `spec.root`).
fn tree_reduce(spec: &CollSpec, p: usize, segmented: bool, tree_of: impl Fn(usize) -> TreeNode) -> Built {
    let segs = if segmented { topo::seg_sizes(spec.bytes, spec.seg_bytes) } else { vec![spec.bytes] };
    let nseg = segs.len();
    steps::per_rank(p, nseg, |me| {
        let node = tree_of(topo::vrank(me, spec.root, p));
        let mut ops = Vec::with_capacity(2 + nseg * (node.children.len() * 2 + 1));
        ops.push(Op::InitSlot { slot: 0, init: SlotInit::reduce_input(me, 0, nseg as u32) });
        for (s, &seg_bytes) in segs.iter().enumerate() {
            let tag = spec.tag_base + s as u64;
            for &cv in &node.children {
                steps::recv(&mut ops, topo::actual(cv, spec.root, p), tag, Fold::Reduce(seg_bytes));
            }
            if let Some(pv) = node.parent {
                let parent = topo::actual(pv, spec.root, p);
                let seg = BlockFilter::SegRange(s as u32, s as u32 + 1);
                ops.push(Op::isend_part(parent, tag, seg_bytes, 0, seg, s));
            }
        }
        if node.parent.is_some() && nseg > 0 {
            ops.push(Op::waitall((0..nseg).collect()));
        }
        ops
    })
}

/// ID 6: reduction along an "in-order" binary tree over actual ranks, rooted
/// at rank `p-1`; the result is forwarded to the requested root if needed.
fn in_order_binary(spec: &CollSpec, p: usize) -> Built {
    let bytes = spec.bytes;
    let forward_tag = spec.tag_base + 0x8000;
    steps::per_rank(p, 1, |me| {
        let node = topo::in_order_binary(me, p);
        let mut ops = vec![Op::InitSlot { slot: 0, init: SlotInit::reduce_input(me, 0, 1) }];
        for &child in &node.children {
            steps::recv(&mut ops, child, spec.tag_base, Fold::Reduce(bytes));
        }
        if let Some(parent) = node.parent {
            ops.push(Op::send(parent, spec.tag_base, bytes, 0));
        }
        // Forward the finished result from the tree root (p-1) to the
        // requested root.
        if spec.root != p - 1 {
            if me == p - 1 {
                ops.push(Op::send(spec.root, forward_tag, bytes, 0));
            } else if me == spec.root {
                steps::recv(&mut ops, p - 1, forward_tag, Fold::Copy);
            }
        }
        ops
    })
}

/// ID 7: Rabenseifner — recursive-halving reduce-scatter followed by a
/// binomial gather to the root. Non-power-of-two process counts fold the
/// excess ranks into partners first.
fn rabenseifner(spec: &CollSpec, p: usize) -> Built {
    let p2 = topo::pow2_floor(p);
    let rounds = p2.trailing_zeros() as usize;
    let ch = ChunkPrefix::new(spec.bytes, p2);
    steps::per_rank(p, p2, |me| {
        let v = topo::vrank(me, spec.root, p);
        let act = |w: usize| topo::actual(w, spec.root, p);
        let mut ops = vec![Op::InitSlot { slot: 0, init: SlotInit::reduce_input(me, 0, p2 as u32) }];
        steps::fold(&mut ops, spec, v, p, act, false, |ops| {
            steps::halving(ops, v, &ch, spec.tag_base + 1, act);
            // Binomial gather of the fully reduced chunks to vrank 0: vrank
            // v owns chunks [v, hi), and each donor doubles the interval.
            let mut hi = v + 1;
            for t in 0..rounds {
                let d = 1 << t;
                let tag = spec.tag_base + 1 + (rounds + t) as u64;
                if v & d != 0 {
                    let seg = BlockFilter::SegRange(v as u32, hi as u32);
                    ops.push(Op::send_part(act(v - d), tag, ch.range(v, hi), 0, seg));
                    break;
                }
                // The incoming chunks are complete; they replace whatever
                // stale partials remained in the accumulator.
                steps::recv(ops, act(v + d), tag, Fold::Overwrite);
                hi = v + 2 * d;
            }
        });
        ops
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::CollectiveKind;

    fn spec(alg: u8, bytes: u64) -> CollSpec {
        CollSpec::new(CollectiveKind::Reduce, alg, bytes)
    }

    #[test]
    fn linear_has_flat_message_structure() {
        let b = build(&spec(1, 64), 5).unwrap();
        // Root posts 4 recvs + 4 reduces + init; leaves post init + isend + waitall.
        assert_eq!(b.nseg, 1);
        let root_recvs = b.rank_ops[0].iter().filter(|o| matches!(o, Op::Recv { .. })).count();
        assert_eq!(root_recvs, 4);
        let leaf_sends = b.rank_ops[3].iter().filter(|o| matches!(o, Op::Isend { .. })).count();
        assert_eq!(leaf_sends, 1);
    }

    #[test]
    fn segmented_algorithms_emit_per_segment_messages() {
        let s = spec(3, 64 * 1024).with_seg_bytes(8192); // pipeline, 8 segments
        let b = build(&s, 4).unwrap();
        assert_eq!(b.nseg, 8);
        // Middle-of-chain rank: 8 recvs, 8 reduces, 8 isends.
        let ops = &b.rank_ops[1];
        assert_eq!(ops.iter().filter(|o| matches!(o, Op::Recv { .. })).count(), 8);
        assert_eq!(ops.iter().filter(|o| matches!(o, Op::Isend { .. })).count(), 8);
    }

    #[test]
    fn small_messages_are_single_segment() {
        let b = build(&spec(3, 16), 4).unwrap();
        assert_eq!(b.nseg, 1);
    }

    #[test]
    fn in_order_binary_forwards_to_root() {
        let b = build(&spec(6, 64), 8).unwrap();
        // Rank 7 (tree root) must send to rank 0 (requested root).
        let fw = b.rank_ops[7]
            .iter()
            .any(|o| matches!(o, Op::Send { to: 0, .. }));
        assert!(fw, "tree root must forward the result");
        // With root == p-1 no forwarding happens.
        let b2 = build(&spec(6, 64).with_root(7), 8).unwrap();
        let fw2 = b2.rank_ops[7].iter().any(|o| matches!(o, Op::Send { .. }));
        assert!(!fw2);
    }

    #[test]
    fn rabenseifner_nseg_is_pow2_floor() {
        assert_eq!(build(&spec(7, 1024), 8).unwrap().nseg, 8);
        assert_eq!(build(&spec(7, 1024), 12).unwrap().nseg, 8);
        assert_eq!(build(&spec(7, 1024), 5).unwrap().nseg, 4);
    }

    #[test]
    fn rabenseifner_excess_rank_sends_once() {
        let b = build(&spec(7, 1024), 5).unwrap();
        // p2=4: rank with vrank 4 (== rank 4, root 0) sends once, no recvs.
        let ops = &b.rank_ops[4];
        assert_eq!(ops.iter().filter(|o| matches!(o, Op::Send { .. })).count(), 1);
        assert!(!ops.iter().any(|o| matches!(o, Op::Recv { .. } | Op::Irecv { .. })));
    }

    #[test]
    fn single_rank_degenerates() {
        for alg in 1..=7u8 {
            let b = build(&spec(alg, 256), 1).unwrap();
            assert_eq!(b.rank_ops.len(), 1);
            assert!(
                !b.rank_ops[0].iter().any(|o| matches!(
                    o,
                    Op::Send { .. } | Op::Recv { .. } | Op::Isend { .. } | Op::Irecv { .. }
                )),
                "alg {alg} must not communicate at p=1"
            );
        }
    }

    #[test]
    fn two_ranks_all_algorithms() {
        for alg in 1..=7u8 {
            let b = build(&spec(alg, 256), 2).unwrap();
            assert_eq!(b.rank_ops.len(), 2, "alg {alg}");
        }
    }
}
