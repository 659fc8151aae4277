//! `MPI_Gather` algorithms: each rank contributes one block of `spec.bytes`
//! bytes; the root collects all `p` blocks.
//!
//! Block convention: rank `i` contributes block `(i, i)`, so both range
//! filters and the all-to-all style verification grid apply.
//!
//! Slot convention: slot 0 = accumulation/result, slot 1 = receive temp.

use pap_sim::data::SlotInit;
use pap_sim::Op;

use crate::spec::{BuildError, Built, CollSpec};
use crate::topo;

/// Build the gather schedules. Dispatched from [`crate::build`].
pub(crate) fn build(spec: &CollSpec, p: usize) -> Result<Built, BuildError> {
    match spec.alg {
        1 => Ok(linear(spec, p)),
        2 => Ok(binomial(spec, p)),
        id => Err(BuildError::UnknownAlgorithm(spec.kind, id)),
    }
}

/// ID 1: everyone sends directly to the root; the root receives in rank
/// order (Open MPI `basic`).
fn linear(spec: &CollSpec, p: usize) -> Built {
    let m = spec.bytes;
    let mut rank_ops = Vec::with_capacity(p);
    for me in 0..p {
        let mut ops = vec![Op::InitSlot { slot: 0, init: SlotInit::movement_block(me, me as u32) }];
        if me == spec.root {
            for i in 0..p {
                if i == spec.root {
                    continue;
                }
                ops.push(Op::recv(i, spec.tag_base, 1));
                ops.push(Op::MergeMove { from: 1, into: 0 });
            }
        } else {
            ops.push(Op::send(spec.root, spec.tag_base, m, 0));
        }
        rank_ops.push(ops);
    }
    Built { rank_ops, nseg: p as u32 }
}

/// ID 2: binomial-tree gather — internal nodes collect their subtree and
/// forward the aggregate (one message per tree edge, sized by the subtree).
fn binomial(spec: &CollSpec, p: usize) -> Built {
    let m = spec.bytes;
    let mut rank_ops = Vec::with_capacity(p);
    for me in 0..p {
        let v = topo::vrank(me, spec.root, p);
        let node = topo::binomial(v, p);
        let mut ops = vec![Op::InitSlot { slot: 0, init: SlotInit::movement_block(me, me as u32) }];
        // Children in *decreasing* distance order: the largest subtree is
        // received first (it was sent last, so this ordering pipelines).
        for &cv in node.children.iter().rev() {
            let child = topo::actual(cv, spec.root, p);
            ops.push(Op::recv(child, spec.tag_base + cv as u64, 1));
            ops.push(Op::MergeMove { from: 1, into: 0 });
        }
        if let Some(pv) = node.parent {
            let parent = topo::actual(pv, spec.root, p);
            let subtree = subtree_size(v, p);
            ops.push(Op::send(parent, spec.tag_base + v as u64, subtree as u64 * m, 0));
        }
        rank_ops.push(ops);
    }
    Built { rank_ops, nseg: p as u32 }
}

/// Size of the binomial subtree rooted at vrank `v` in a tree over `p`
/// vranks: `min(2^tz(v), p - v)` (the root's subtree is all of `p`).
pub(crate) fn subtree_size(v: usize, p: usize) -> usize {
    if v == 0 {
        p
    } else {
        (1usize << v.trailing_zeros()).min(p - v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::CollectiveKind;

    fn spec(alg: u8) -> CollSpec {
        CollSpec::new(CollectiveKind::Gather, alg, 512)
    }

    #[test]
    fn subtree_sizes() {
        // p = 8 binomial tree: subtree(4) = 4, subtree(2) = 2, subtree(1) = 1.
        assert_eq!(subtree_size(0, 8), 8);
        assert_eq!(subtree_size(4, 8), 4);
        assert_eq!(subtree_size(2, 8), 2);
        assert_eq!(subtree_size(6, 8), 2);
        assert_eq!(subtree_size(1, 8), 1);
        // Clamped at the edge: p = 6, subtree(4) covers {4,5} only.
        assert_eq!(subtree_size(4, 6), 2);
    }

    #[test]
    fn linear_root_receives_p_minus_1() {
        let b = build(&spec(1), 6).unwrap();
        let recvs = b.rank_ops[0].iter().filter(|o| matches!(o, Op::Recv { .. })).count();
        assert_eq!(recvs, 5);
        let sends = b.rank_ops[3].iter().filter(|o| matches!(o, Op::Send { .. })).count();
        assert_eq!(sends, 1);
    }

    #[test]
    fn binomial_aggregates_subtree_bytes() {
        let b = build(&spec(2), 8).unwrap();
        // vrank 4 sends 4 blocks worth of bytes to the root.
        let bytes: Vec<u64> = b.rank_ops[4]
            .iter()
            .filter_map(|o| match o {
                Op::Send { bytes, .. } => Some(*bytes),
                _ => None,
            })
            .collect();
        assert_eq!(bytes, vec![4 * 512]);
    }

    #[test]
    fn both_ids_build_all_p() {
        for alg in [1, 2] {
            for p in [1usize, 2, 3, 5, 8, 13] {
                let b = build(&spec(alg), p).unwrap();
                assert_eq!(b.rank_ops.len(), p);
            }
        }
    }
}
