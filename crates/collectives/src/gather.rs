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
use crate::steps::{self, Fold};
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
    steps::per_rank(p, p, |me| {
        let mut ops = vec![Op::InitSlot { slot: 0, init: SlotInit::movement_block(me, me as u32) }];
        if me == spec.root {
            for i in (0..p).filter(|&i| i != spec.root) {
                steps::recv(&mut ops, i, spec.tag_base, Fold::Merge);
            }
        } else {
            ops.push(Op::send(spec.root, spec.tag_base, spec.bytes, 0));
        }
        ops
    })
}

/// ID 2: binomial-tree gather — internal nodes collect their subtree and
/// forward the aggregate (one message per tree edge, sized by the subtree).
fn binomial(spec: &CollSpec, p: usize) -> Built {
    steps::per_rank(p, p, |me| {
        let v = topo::vrank(me, spec.root, p);
        let node = topo::binomial(v, p);
        let mut ops = vec![Op::InitSlot { slot: 0, init: SlotInit::movement_block(me, me as u32) }];
        // Children in *decreasing* distance order: the largest subtree is
        // received first (it was sent last, so this ordering pipelines).
        for &cv in node.children.iter().rev() {
            steps::recv(&mut ops, topo::actual(cv, spec.root, p), spec.tag_base + cv as u64, Fold::Merge);
        }
        if let Some(pv) = node.parent {
            let bytes = topo::subtree_size(v, p) as u64 * spec.bytes;
            ops.push(Op::send(topo::actual(pv, spec.root, p), spec.tag_base + v as u64, bytes, 0));
        }
        ops
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::CollectiveKind;

    fn spec(alg: u8) -> CollSpec {
        CollSpec::new(CollectiveKind::Gather, alg, 512)
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
