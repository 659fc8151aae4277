//! `MPI_Allreduce` algorithms (Table II IDs 1–6).
//!
//! * 1 Linear — linear reduce to rank 0 + linear bcast (Open MPI `basic`).
//! * 2 Non-overlapping — tuned reduce + tuned bcast (binomial/binomial);
//!   SMPI's `redbcast`.
//! * 3 Recursive Doubling — full-vector exchange over `log2 p` rounds.
//! * 4 Ring — ring reduce-scatter + ring allgather (SMPI's `lr`).
//! * 5 Segmented Ring — ring reduce-scatter performed in segment phases.
//! * 6 Rabenseifner — recursive-halving reduce-scatter + recursive-doubling
//!   allgather (SMPI's `rab_rdb`).
//!
//! Slot convention: slot 0 = accumulator/result, slot 1 = receive temp.

use pap_sim::data::{BlockFilter, SlotInit};
use pap_sim::Op;

use crate::registry::CollectiveKind;
use crate::spec::{BuildError, Built, CollSpec};
use crate::topo;

/// Build the allreduce schedules. Dispatched from [`crate::build`].
pub(crate) fn build(spec: &CollSpec, p: usize) -> Result<Built, BuildError> {
    match spec.alg {
        1 => Ok(reduce_then_bcast(spec, p, 1, 1)),
        2 => Ok(reduce_then_bcast(spec, p, 5, 5)),
        3 => Ok(recursive_doubling(spec, p)),
        4 => Ok(ring(spec, p, 1)),
        5 => {
            let chunk = (spec.bytes / p as u64).max(1);
            let phases = chunk.div_ceil(spec.seg_bytes).max(1) as usize;
            Ok(ring(spec, p, phases))
        }
        6 => Ok(rabenseifner(spec, p)),
        id => Err(BuildError::UnknownAlgorithm(spec.kind, id)),
    }
}

/// IDs 1–2: compose a reduce to rank `spec.root` with a bcast from it.
/// The bcast schedule is built in "propagate" mode: it does not re-init
/// slot 0 but distributes whatever the reduce left there.
fn reduce_then_bcast(spec: &CollSpec, p: usize, reduce_alg: u8, bcast_alg: u8) -> Built {
    let red_spec = CollSpec {
        kind: CollectiveKind::Reduce,
        alg: reduce_alg,
        ..spec.clone()
    };
    let red = crate::reduce::build(&red_spec, p).expect("reduce substrate");
    let bc_spec = CollSpec {
        kind: CollectiveKind::Bcast,
        alg: bcast_alg,
        tag_base: spec.tag_base + 0x40000,
        ..spec.clone()
    };
    let bc = crate::bcast::build_propagate(&bc_spec, p);
    let rank_ops = red
        .rank_ops
        .into_iter()
        .zip(bc.rank_ops)
        .map(|(mut r, b)| {
            r.extend(b);
            r
        })
        .collect();
    Built { rank_ops, nseg: red.nseg }
}

/// ID 3: recursive doubling with full-vector exchanges. Non-power-of-two
/// counts fold excess ranks into partners first and ship the result back at
/// the end (MPICH-style).
fn recursive_doubling(spec: &CollSpec, p: usize) -> Built {
    let p2 = topo::pow2_floor(p);
    let r = p - p2;
    let steps = p2.trailing_zeros() as usize;
    let bytes = spec.bytes;
    let mut rank_ops = Vec::with_capacity(p);
    for me in 0..p {
        let mut ops = vec![Op::InitSlot { slot: 0, init: SlotInit::reduce_input(me, 0, 1) }];
        if me >= p2 {
            ops.push(Op::send(me - p2, spec.tag_base, bytes, 0));
            ops.push(Op::recv(me - p2, spec.tag_base + 100, 0));
            rank_ops.push(ops);
            continue;
        }
        if me < r {
            ops.push(Op::recv(me + p2, spec.tag_base, 1));
            ops.push(Op::ReduceLocal { from: 1, into: 0, bytes });
        }
        for t in 0..steps {
            let partner = me ^ (1 << t);
            let tag = spec.tag_base + 1 + t as u64;
            ops.push(Op::isend(partner, tag, bytes, 0, 0));
            ops.push(Op::irecv(partner, tag, 1, 1));
            ops.push(Op::waitall(vec![0, 1]));
            ops.push(Op::ReduceLocal { from: 1, into: 0, bytes });
        }
        if me < r {
            ops.push(Op::send(me + p2, spec.tag_base + 100, bytes, 0));
        }
        rank_ops.push(ops);
    }
    Built { rank_ops, nseg: 1 }
}

/// IDs 4–5: ring reduce-scatter + ring allgather over `p` chunks.
///
/// With `phases > 1` (segmented ring), the reduce-scatter runs `phases`
/// sequential passes over sub-chunks (coordinate `c*phases + phase`), keeping
/// per-message sizes near `seg_bytes`; the allgather then moves whole chunks.
fn ring(spec: &CollSpec, p: usize, phases: usize) -> Built {
    let nseg = p * phases;
    let chunk_bytes = topo::split_chunks(spec.bytes, p);
    // Sub-chunk sizes: chunk c split into `phases` parts.
    let sub: Vec<Vec<u64>> = chunk_bytes.iter().map(|&b| topo::split_chunks(b, phases)).collect();
    let coord = |c: usize, ph: usize| (c * phases + ph) as u32;

    let mut rank_ops = Vec::with_capacity(p);
    for me in 0..p {
        let right = (me + 1) % p;
        let left = (me + p - 1) % p;
        let mut ops = vec![Op::InitSlot { slot: 0, init: SlotInit::reduce_input(me, 0, nseg as u32) }];
        if p == 1 {
            rank_ops.push(ops);
            continue;
        }
        // Reduce-scatter: after p-1 steps, rank me holds the complete
        // reduction of chunk (me + 1) mod p.
        #[allow(clippy::needless_range_loop)]
        for ph in 0..phases {
            for t in 0..p - 1 {
                let sc = (me + p - t) % p;
                let rc = (me + p - t - 1) % p;
                let tag = spec.tag_base + (ph * p + t) as u64;
                ops.push(Op::isend_part(
                    right,
                    tag,
                    sub[sc][ph],
                    0,
                    BlockFilter::SegRange(coord(sc, ph), coord(sc, ph) + 1),
                    0,
                ));
                ops.push(Op::irecv(left, tag, 1, 1));
                ops.push(Op::waitall(vec![0, 1]));
                ops.push(Op::ReduceLocal { from: 1, into: 0, bytes: sub[rc][ph] });
            }
        }
        // Allgather ring over whole chunks: step t sends chunk
        // (me + 1 - t) mod p and receives chunk (me - t) mod p.
        let ag_base = spec.tag_base + (phases * p) as u64;
        for t in 0..p - 1 {
            let sc = (me + 1 + p - t) % p;
            let rc = (me + p - t) % p;
            let tag = ag_base + t as u64;
            ops.push(Op::isend_part(
                right,
                tag,
                chunk_bytes[sc],
                0,
                BlockFilter::SegRange(coord(sc, 0), coord(sc, phases - 1) + 1),
                0,
            ));
            ops.push(Op::irecv(left, tag, 1, 1));
            ops.push(Op::waitall(vec![0, 1]));
            let _ = rc;
            ops.push(Op::OverwriteMove { from: 1, into: 0 });
        }
        rank_ops.push(ops);
    }
    Built { rank_ops, nseg: nseg as u32 }
}

/// ID 6: Rabenseifner — recursive-halving reduce-scatter, then
/// recursive-doubling allgather so every rank ends with the full vector.
fn rabenseifner(spec: &CollSpec, p: usize) -> Built {
    let p2 = topo::pow2_floor(p);
    let r = p - p2;
    let steps = p2.trailing_zeros() as usize;
    let chunks = topo::split_chunks(spec.bytes, p2);
    let mut prefix = vec![0u64; p2 + 1];
    for (i, &c) in chunks.iter().enumerate() {
        prefix[i + 1] = prefix[i] + c;
    }
    let range_bytes = |lo: usize, hi: usize| prefix[hi] - prefix[lo];

    let mut rank_ops = Vec::with_capacity(p);
    for me in 0..p {
        let mut ops = vec![Op::InitSlot { slot: 0, init: SlotInit::reduce_input(me, 0, p2 as u32) }];
        if me >= p2 {
            ops.push(Op::send(me - p2, spec.tag_base, spec.bytes, 0));
            ops.push(Op::recv(me - p2, spec.tag_base + 100, 0));
            rank_ops.push(ops);
            continue;
        }
        if me < r {
            ops.push(Op::recv(me + p2, spec.tag_base, 1));
            ops.push(Op::ReduceLocal { from: 1, into: 0, bytes: spec.bytes });
        }
        // Recursive halving reduce-scatter (as in the Rabenseifner reduce).
        let (mut lo, mut hi) = (0usize, p2);
        for t in 0..steps {
            let d = p2 >> (t + 1);
            let partner = me ^ d;
            let mid = lo + d;
            let (keep, send) = if me & d == 0 { ((lo, mid), (mid, hi)) } else { ((mid, hi), (lo, mid)) };
            let tag = spec.tag_base + 1 + t as u64;
            ops.push(Op::isend_part(
                partner,
                tag,
                range_bytes(send.0, send.1),
                0,
                BlockFilter::SegRange(send.0 as u32, send.1 as u32),
                0,
            ));
            ops.push(Op::irecv(partner, tag, 1, 1));
            ops.push(Op::waitall(vec![0, 1]));
            ops.push(Op::ReduceLocal { from: 1, into: 0, bytes: range_bytes(keep.0, keep.1) });
            lo = keep.0;
            hi = keep.1;
        }
        // Recursive doubling allgather: intervals double each step.
        for t in 0..steps {
            let d = 1 << t;
            let partner = me ^ d;
            let tag = spec.tag_base + 1 + (steps + t) as u64;
            ops.push(Op::isend_part(
                partner,
                tag,
                range_bytes(lo, hi),
                0,
                BlockFilter::SegRange(lo as u32, hi as u32),
                0,
            ));
            ops.push(Op::irecv(partner, tag, 1, 1));
            ops.push(Op::waitall(vec![0, 1]));
            ops.push(Op::OverwriteMove { from: 1, into: 0 });
            lo &= !(2 * d - 1);
            hi = lo + 2 * d;
        }
        if me < r {
            ops.push(Op::send(me + p2, spec.tag_base + 100, spec.bytes, 0));
        }
        rank_ops.push(ops);
    }
    Built { rank_ops, nseg: p2 as u32 }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(alg: u8, bytes: u64) -> CollSpec {
        CollSpec::new(CollectiveKind::Allreduce, alg, bytes)
    }

    #[test]
    fn all_ids_build() {
        for alg in 1..=6u8 {
            for p in [1usize, 2, 3, 4, 5, 8, 13] {
                let b = build(&spec(alg, 4096), p).unwrap_or_else(|e| panic!("alg {alg} p {p}: {e}"));
                assert_eq!(b.rank_ops.len(), p);
            }
        }
    }

    #[test]
    fn recursive_doubling_round_count() {
        let b = build(&spec(3, 64), 8).unwrap();
        // 3 rounds of isend per rank (p = 8 = 2^3).
        let sends = b.rank_ops[0].iter().filter(|o| matches!(o, Op::Isend { .. })).count();
        assert_eq!(sends, 3);
    }

    #[test]
    fn ring_has_2p_minus_2_steps() {
        let p = 6;
        let b = build(&spec(4, 600), p).unwrap();
        let sends = b.rank_ops[0].iter().filter(|o| matches!(o, Op::Isend { .. })).count();
        assert_eq!(sends, 2 * (p - 1));
        assert_eq!(b.nseg, p as u32);
    }

    #[test]
    fn segmented_ring_multiplies_phases() {
        // 64 KiB over 4 ranks → 16 KiB chunks → 2 phases at 8 KiB segs.
        let b = build(&spec(5, 64 * 1024), 4).unwrap();
        assert_eq!(b.nseg, 8);
        let sends = b.rank_ops[0].iter().filter(|o| matches!(o, Op::Isend { .. })).count();
        // RS: 2 phases × 3 steps; AG: 3 steps.
        assert_eq!(sends, 9);
    }

    #[test]
    fn non_power_of_two_excess_ranks_fold() {
        let b = build(&spec(3, 64), 5).unwrap();
        let ops = &b.rank_ops[4];
        // Excess rank: one send out, one recv back, nothing else.
        assert_eq!(ops.iter().filter(|o| matches!(o, Op::Send { .. })).count(), 1);
        assert_eq!(ops.iter().filter(|o| matches!(o, Op::Recv { .. })).count(), 1);
    }
}
