//! `MPI_Alltoall` algorithms (Table II IDs 1–4).
//!
//! `spec.bytes` is the **per-destination** block size (the convention of the
//! OSU benchmarks and of the paper's figures).
//!
//! Slot convention: slot 0 = result (blocks destined to me; for Bruck also
//! the working buffer), slot 1 = outgoing blocks, slot 2 = receive temp,
//! slots `4..4+p` = per-peer receive buffers (linear variants).

use pap_sim::data::{BlockFilter, SlotInit};
use pap_sim::Op;

use crate::spec::{BuildError, Built, CollSpec};
use crate::steps::{self, Fold, Part};
use crate::topo;

const RECV_BASE: usize = 4;

/// Build the alltoall schedules. Dispatched from [`crate::build`].
pub(crate) fn build(spec: &CollSpec, p: usize) -> Result<Built, BuildError> {
    match spec.alg {
        1 => Ok(linear(spec, p, usize::MAX)),
        2 => Ok(pairwise(spec, p)),
        3 => Ok(bruck(spec, p)),
        4 => Ok(linear(spec, p, 2)),
        id => Err(BuildError::UnknownAlgorithm(spec.kind, id)),
    }
}

/// Rank `me`'s inputs for the linear and pairwise variants: its `p`
/// outgoing blocks in slot 1, and in slot 0 the block destined to itself.
fn inputs(me: usize, p: usize) -> Vec<Op> {
    vec![
        Op::InitSlot { slot: 1, init: SlotInit::movement_blocks(me, 0, p as u32) },
        Op::InitSlot { slot: 0, init: SlotInit::movement_block(me, me as u32) },
    ]
}

/// IDs 1 and 4: linear (all requests outstanding) and linear-with-sync
/// (window of `window` request pairs, synced between batches).
fn linear(spec: &CollSpec, p: usize, window: usize) -> Built {
    let m = spec.bytes;
    // Distance k pairs a receive from (me-k) with a send to (me+k), so
    // every batch's receives are satisfied by the same batch of the
    // peers' sends (no cross-batch wait).
    let dists: Vec<usize> = (1..p).collect();
    steps::per_rank(p, p, |me| {
        let mut ops = inputs(me, p);
        for batch in dists.chunks(window.max(1).min(p)) {
            let mut reqs = Vec::with_capacity(batch.len() * 2);
            for (i, &k) in batch.iter().enumerate() {
                let from = (me + p - k) % p;
                let to = (me + k) % p;
                let r_req = 2 * i;
                let s_req = 2 * i + 1;
                ops.push(Op::irecv(from, spec.tag_base, RECV_BASE + from, r_req));
                let block = BlockFilter::SegRange(to as u32, to as u32 + 1);
                ops.push(Op::isend_part(to, spec.tag_base, m, 1, block, s_req));
                reqs.push(r_req);
                reqs.push(s_req);
            }
            ops.push(Op::waitall(reqs));
        }
        for k in 1..p {
            ops.push(Op::MergeMove { from: RECV_BASE + (me + p - k) % p, into: 0 });
        }
        ops
    })
}

/// ID 2: pairwise exchange — step `t` exchanges with ranks at ring distance
/// `t`, one send and one receive in flight at a time.
fn pairwise(spec: &CollSpec, p: usize) -> Built {
    let m = spec.bytes;
    steps::per_rank(p, p, |me| {
        let mut ops = inputs(me, p);
        for t in 1..p {
            let sendto = (me + t) % p;
            let part = Part { slot: 1, ..Part::segs(m, sendto, sendto + 1) };
            steps::exchange(&mut ops, sendto, (me + p - t) % p, spec.tag_base + t as u64, part, 2, Fold::Merge);
        }
        ops
    })
}

/// ID 3: (modified) Bruck — `ceil(log2 p)` rounds; round `k` forwards every
/// held block whose ring position `(dest - origin) mod p` has bit `k` set to
/// the rank at distance `2^k`. Aggregates many blocks per message, which is
/// what makes it the small-message algorithm of choice.
fn bruck(spec: &CollSpec, p: usize) -> Built {
    let m = spec.bytes;
    let rounds = (usize::BITS - p.saturating_sub(1).leading_zeros()) as usize; // ceil(log2 p)
    steps::per_rank(p, p, |me| {
        // Slot 0 holds all blocks currently resident here; starts with my
        // own p outgoing blocks (own block (me, me) included, position 0,
        // never sent).
        let mut ops = vec![Op::InitSlot { slot: 0, init: SlotInit::movement_blocks(me, 0, p as u32) }];
        for k in 0..rounds {
            let d = 1usize << k;
            if d >= p {
                break;
            }
            let filter = BlockFilter::OriginOffsetBit { bit: k as u8, modulo: p as u32 };
            let bytes = topo::count_bit_set(p, k as u32) as u64 * m;
            // The blocks sent no longer live here.
            let part = Part { leaves: true, ..Part::of(bytes, filter) };
            steps::exchange(&mut ops, (me + d) % p, (me + p - d) % p, spec.tag_base + k as u64, part, 2, Fold::Merge);
        }
        ops
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::CollectiveKind;

    fn spec(alg: u8, bytes: u64) -> CollSpec {
        CollSpec::new(CollectiveKind::Alltoall, alg, bytes)
    }

    #[test]
    fn all_ids_build_various_p() {
        for alg in 1..=4u8 {
            for p in [1usize, 2, 3, 5, 8, 16] {
                let b = build(&spec(alg, 512), p).unwrap();
                assert_eq!(b.rank_ops.len(), p, "alg {alg} p {p}");
            }
        }
    }

    #[test]
    fn linear_posts_all_requests_at_once() {
        let p = 8;
        let b = build(&spec(1, 64), p).unwrap();
        // Exactly one WaitAll with 2(p-1) requests.
        let waits: Vec<usize> = b.rank_ops[0]
            .iter()
            .filter_map(|o| match o {
                Op::WaitAll { reqs } => Some(reqs.len()),
                _ => None,
            })
            .collect();
        assert_eq!(waits, vec![2 * (p - 1)]);
    }

    #[test]
    fn linear_sync_batches_requests() {
        let p = 8;
        let b = build(&spec(4, 64), p).unwrap();
        let waits: Vec<usize> = b.rank_ops[0]
            .iter()
            .filter_map(|o| match o {
                Op::WaitAll { reqs } => Some(reqs.len()),
                _ => None,
            })
            .collect();
        // 7 peers in windows of 2 → batches of 4,4,4,2 requests.
        assert_eq!(waits, vec![4, 4, 4, 2]);
    }

    #[test]
    fn pairwise_steps_and_partners() {
        let p = 5;
        let b = build(&spec(2, 64), p).unwrap();
        let sends: Vec<usize> = b.rank_ops[0]
            .iter()
            .filter_map(|o| match o {
                Op::Isend { to, .. } => Some(*to),
                _ => None,
            })
            .collect();
        assert_eq!(sends, vec![1, 2, 3, 4]);
    }

    #[test]
    fn bruck_round_count_and_bytes() {
        let p = 8;
        let m = 64u64;
        let b = build(&spec(3, m), p).unwrap();
        let sends: Vec<u64> = b.rank_ops[0]
            .iter()
            .filter_map(|o| match o {
                Op::Isend { bytes, .. } => Some(*bytes),
                _ => None,
            })
            .collect();
        // 3 rounds, each aggregating 4 blocks.
        assert_eq!(sends, vec![4 * m, 4 * m, 4 * m]);
        // Non-power-of-two: p=5 → rounds of 2,2,1... positions with bit set.
        let b5 = build(&spec(3, m), 5).unwrap();
        let sends5: Vec<u64> = b5.rank_ops[0]
            .iter()
            .filter_map(|o| match o {
                Op::Isend { bytes, .. } => Some(*bytes),
                _ => None,
            })
            .collect();
        assert_eq!(sends5, vec![2 * m, 2 * m, m]);
    }

    #[test]
    fn bruck_fewer_messages_than_linear() {
        let p = 64;
        let lin = build(&spec(1, 8), p).unwrap();
        let brk = build(&spec(3, 8), p).unwrap();
        let count = |ops: &[Op]| ops.iter().filter(|o| matches!(o, Op::Isend { .. })).count();
        assert_eq!(count(&lin.rank_ops[0]), 63);
        assert_eq!(count(&brk.rank_ops[0]), 6);
    }
}
