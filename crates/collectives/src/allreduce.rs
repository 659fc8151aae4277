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

use pap_sim::data::SlotInit;
use pap_sim::Op;

use crate::registry::CollectiveKind;
use crate::spec::{BuildError, Built, CollSpec};
use crate::steps::{self, Fold, Part};
use crate::topo::{self, ChunkPrefix};

/// Build the allreduce schedules. Dispatched from [`crate::build`].
pub(crate) fn build(spec: &CollSpec, p: usize) -> Result<Built, BuildError> {
    match spec.alg {
        1 => Ok(reduce_then_bcast(spec, p, 1, 1)),
        2 => Ok(reduce_then_bcast(spec, p, 5, 5)),
        3 => Ok(recursive_doubling(spec, p)),
        4 => Ok(ring(spec, p, 1)),
        5 => Ok(ring(spec, p, topo::ring_phases(spec.bytes, p, spec.seg_bytes))),
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
    steps::then(red, crate::bcast::build_propagate(&bc_spec, p))
}

/// ID 3: recursive doubling with full-vector exchanges. Non-power-of-two
/// counts fold excess ranks into partners first and ship the result back at
/// the end (MPICH-style).
fn recursive_doubling(spec: &CollSpec, p: usize) -> Built {
    let rounds = topo::pow2_floor(p).trailing_zeros();
    let bytes = spec.bytes;
    steps::per_rank(p, 1, |me| {
        let mut ops = vec![Op::InitSlot { slot: 0, init: SlotInit::reduce_input(me, 0, 1) }];
        steps::fold(&mut ops, spec, me, p, |w| w, true, |ops| {
            for t in 0..rounds {
                let peer = me ^ (1 << t);
                let tag = spec.tag_base + 1 + u64::from(t);
                steps::exchange(ops, peer, peer, tag, Part::all(bytes), 1, Fold::Reduce(bytes));
            }
        });
        ops
    })
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
    let coord = |c: usize, ph: usize| c * phases + ph;

    steps::per_rank(p, nseg, |me| {
        let right = (me + 1) % p;
        let left = (me + p - 1) % p;
        let mut ops = vec![Op::InitSlot { slot: 0, init: SlotInit::reduce_input(me, 0, nseg as u32) }];
        if p == 1 {
            return ops;
        }
        // Reduce-scatter: after p-1 steps, rank me holds the complete
        // reduction of chunk (me + 1) mod p.
        #[allow(clippy::needless_range_loop)]
        for ph in 0..phases {
            for t in 0..p - 1 {
                let sc = (me + p - t) % p;
                let rc = (me + p - t - 1) % p;
                let tag = spec.tag_base + (ph * p + t) as u64;
                let part = Part::segs(sub[sc][ph], coord(sc, ph), coord(sc, ph) + 1);
                steps::exchange(&mut ops, right, left, tag, part, 1, Fold::Reduce(sub[rc][ph]));
            }
        }
        // Allgather ring over whole chunks: step t sends chunk
        // (me + 1 - t) mod p.
        let ag_base = spec.tag_base + (phases * p) as u64;
        for t in 0..p - 1 {
            let sc = (me + 1 + p - t) % p;
            let part = Part::segs(chunk_bytes[sc], coord(sc, 0), coord(sc, phases - 1) + 1);
            steps::exchange(&mut ops, right, left, ag_base + t as u64, part, 1, Fold::Overwrite);
        }
        ops
    })
}

/// ID 6: Rabenseifner — recursive-halving reduce-scatter, then
/// recursive-doubling allgather so every rank ends with the full vector.
fn rabenseifner(spec: &CollSpec, p: usize) -> Built {
    let p2 = topo::pow2_floor(p);
    let rounds = p2.trailing_zeros() as usize;
    let ch = ChunkPrefix::new(spec.bytes, p2);
    steps::per_rank(p, p2, |me| {
        let mut ops = vec![Op::InitSlot { slot: 0, init: SlotInit::reduce_input(me, 0, p2 as u32) }];
        steps::fold(&mut ops, spec, me, p, |w| w, true, |ops| {
            steps::halving(ops, me, &ch, spec.tag_base + 1, |w| w);
            // Recursive doubling allgather: intervals double each step.
            let (mut lo, mut hi) = (me, me + 1);
            for t in 0..rounds {
                let d = 1 << t;
                let peer = me ^ d;
                let tag = spec.tag_base + 1 + (rounds + t) as u64;
                steps::exchange(ops, peer, peer, tag, Part::segs(ch.range(lo, hi), lo, hi), 1, Fold::Overwrite);
                lo &= !(2 * d - 1);
                hi = lo + 2 * d;
            }
        });
        ops
    })
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
