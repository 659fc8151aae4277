//! `MPI_Scatter` algorithms: the root distributes block `j` (of
//! `spec.bytes` bytes) to rank `j`.
//!
//! Block convention: the root owns blocks `(root, j)` for all `j`; rank `j`
//! ends with exactly `(root, j)`.
//!
//! Slot convention: slot 0 = result (own block), slot 1 = staging buffer
//! (subtree windows in transit).

use pap_sim::data::{BlockFilter, SlotInit};
use pap_sim::Op;

use crate::spec::{BuildError, Built, CollSpec};
use crate::steps;
use crate::topo;

/// Build the scatter schedules. Dispatched from [`crate::build`].
pub(crate) fn build(spec: &CollSpec, p: usize) -> Result<Built, BuildError> {
    match spec.alg {
        1 => Ok(linear(spec, p)),
        2 => Ok(binomial(spec, p)),
        id => Err(BuildError::UnknownAlgorithm(spec.kind, id)),
    }
}

/// ID 1: the root sends each rank its block directly.
fn linear(spec: &CollSpec, p: usize) -> Built {
    let m = spec.bytes;
    steps::per_rank(p, p, |me| {
        let mut ops = Vec::new();
        if me == spec.root {
            ops.push(Op::InitSlot { slot: 1, init: SlotInit::movement_blocks(spec.root, 0, p as u32) });
            // Own block.
            ops.push(Op::InitSlot { slot: 0, init: SlotInit::movement_block(spec.root, spec.root as u32) });
            for i in (0..p).filter(|&i| i != spec.root) {
                ops.push(Op::send_part(i, spec.tag_base, m, 1, BlockFilter::SegRange(i as u32, i as u32 + 1)));
            }
        } else {
            ops.push(Op::recv(spec.root, spec.tag_base, 0));
        }
        ops
    })
}

/// ID 2: binomial-tree scatter — each internal node receives its subtree's
/// window of blocks and splits it among its children (one message per tree
/// edge).
fn binomial(spec: &CollSpec, p: usize) -> Built {
    let m = spec.bytes;
    steps::per_rank(p, p, |me| {
        let v = topo::vrank(me, spec.root, p);
        let node = topo::binomial(v, p);
        let mut ops = Vec::new();
        if me == spec.root {
            ops.push(Op::InitSlot { slot: 1, init: SlotInit::movement_blocks(spec.root, 0, p as u32) });
        } else {
            // Receive my subtree's window into the staging slot.
            let parent = topo::actual(node.parent.expect("non-root has parent"), spec.root, p);
            ops.push(Op::recv(parent, spec.tag_base + v as u64, 1));
        }
        // Forward each child its subtree window (largest subtree first, as
        // Open MPI does, so deep subtrees start early).
        for &cv in node.children.iter().rev() {
            let child = topo::actual(cv, spec.root, p);
            let size = topo::subtree_size(cv, p);
            // Window [cv, cv+size) in vrank space = offsets relative to the
            // root in actual-rank space.
            let window = BlockFilter::OffsetRange { on_origin: false, base: child as u32, lo: 0, hi: size as u32, modulo: p as u32 };
            ops.push(Op::send_part(child, spec.tag_base + cv as u64, size as u64 * m, 1, window));
        }
        // Keep only my own block in the result slot.
        ops.push(Op::MergeMove { from: 1, into: 0 });
        if p > 1 {
            let others = BlockFilter::OffsetRange { on_origin: false, base: me as u32, lo: 1, hi: p as u32, modulo: p as u32 };
            ops.push(Op::DropBlocks { slot: 0, filter: others });
        }
        ops
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::CollectiveKind;

    fn spec(alg: u8) -> CollSpec {
        CollSpec::new(CollectiveKind::Scatter, alg, 256)
    }

    #[test]
    fn linear_root_sends_p_minus_1() {
        let b = build(&spec(1), 6).unwrap();
        let sends = b.rank_ops[0].iter().filter(|o| matches!(o, Op::Send { .. })).count();
        assert_eq!(sends, 5);
        let recvs = b.rank_ops[2].iter().filter(|o| matches!(o, Op::Recv { .. })).count();
        assert_eq!(recvs, 1);
    }

    #[test]
    fn binomial_sends_window_bytes() {
        let b = build(&spec(2), 8).unwrap();
        // Root's largest edge carries 4 blocks (to vrank 4).
        let bytes: Vec<u64> = b.rank_ops[0]
            .iter()
            .filter_map(|o| match o {
                Op::Send { bytes, .. } => Some(*bytes),
                _ => None,
            })
            .collect();
        assert_eq!(bytes, vec![4 * 256, 2 * 256, 256]);
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
