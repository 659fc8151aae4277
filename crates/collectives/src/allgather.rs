//! `MPI_Allgather` algorithms: every rank contributes one `spec.bytes`
//! block and ends with all `p` blocks.
//!
//! The paper's related work (Qian & Afsahi; Proficz) studies exactly this
//! collective's sensitivity to process arrival patterns, so the family is a
//! first-class citizen here even though the paper's own experiments focus
//! on Reduce/Allreduce/Alltoall.
//!
//! Block convention: rank `i` contributes block `(i, i)`.
//! Slot convention: slot 0 = result (grows as blocks arrive), slot 1 =
//! receive temp.

use pap_sim::data::{BlockFilter, SlotInit};
use pap_sim::Op;

use crate::spec::{BuildError, Built, CollSpec};
use crate::steps::{self, Fold, Part};

/// Build the allgather schedules. Dispatched from [`crate::build`].
pub(crate) fn build(spec: &CollSpec, p: usize) -> Result<Built, BuildError> {
    // ID 1 is a binomial gather and a binomial bcast of the assembled
    // buffer (Open MPI `basic`); 3 and 5 fall back at some `p`.
    match spec.runs_as(p) {
        1 => Ok(steps::composed(spec, p)),
        2 => Ok(bruck(spec, p)),
        3 => Ok(recursive_doubling(spec, p)),
        4 => Ok(ring(spec, p)),
        5 => Ok(neighbor_exchange(spec, p)),
        _ => Err(BuildError::UnknownAlgorithm(spec.kind, spec.alg)),
    }
}

/// Rank `me`'s own block: the result slot every allgather starts from.
fn own_block(me: usize) -> Vec<Op> {
    vec![Op::InitSlot { slot: 0, init: SlotInit::movement_block(me, me as u32) }]
}

/// `len` consecutive origins starting at `start`, on the ring of `p`.
fn origins(start: usize, len: usize, p: usize) -> BlockFilter {
    BlockFilter::OffsetRange { on_origin: true, base: start as u32, lo: 0, hi: len as u32, modulo: p as u32 }
}

/// ID 2: Bruck allgather — `ceil(log2 p)` rounds; in round `k` rank `i`
/// sends its lowest `min(2^k, p − 2^k)` blocks (origins `i, i+1, …`) to
/// `(i − 2^k) mod p` and receives the next window from `(i + 2^k) mod p`.
/// Works for any `p`.
fn bruck(spec: &CollSpec, p: usize) -> Built {
    let m = spec.bytes;
    steps::per_rank(p, p, |me| {
        let mut ops = own_block(me);
        let mut k = 0u32;
        while (1usize << k) < p {
            let d = 1usize << k;
            let send_cnt = d.min(p - d);
            let part = Part::of(send_cnt as u64 * m, origins(me, send_cnt, p));
            steps::exchange(&mut ops, (me + p - d) % p, (me + d) % p, spec.tag_base + k as u64, part, 1, Fold::Merge);
            k += 1;
        }
        ops
    })
}

/// ID 3: recursive doubling (power-of-two `p`): in round `k`, partners at
/// distance `2^k` swap everything they hold, doubling the window.
fn recursive_doubling(spec: &CollSpec, p: usize) -> Built {
    debug_assert!(p.is_power_of_two());
    let m = spec.bytes;
    steps::per_rank(p, p, |me| {
        let mut ops = own_block(me);
        for k in 0..p.trailing_zeros() as usize {
            let d = 1usize << k;
            let peer = me ^ d;
            steps::exchange(&mut ops, peer, peer, spec.tag_base + k as u64, Part::all(d as u64 * m), 1, Fold::Merge);
        }
        ops
    })
}

/// ID 4: ring — `p−1` steps; step `t` forwards the block received in step
/// `t−1` (starting with one's own) to the right neighbor.
fn ring(spec: &CollSpec, p: usize) -> Built {
    let m = spec.bytes;
    steps::per_rank(p, p, |me| {
        let right = (me + 1) % p;
        let left = (me + p - 1) % p;
        let mut ops = own_block(me);
        for t in 0..p.saturating_sub(1) {
            let send_origin = (me + p - t) % p;
            let part = Part::segs(m, send_origin, send_origin + 1);
            steps::exchange(&mut ops, right, left, spec.tag_base + t as u64, part, 1, Fold::Merge);
        }
        ops
    })
}

/// ID 5: neighbor exchange (even `p`): pairs swap their own blocks, then
/// alternate exchanging the *two most recently received* blocks with the
/// left/right neighbor — `p/2` steps, two blocks per message after the
/// first.
///
/// The per-step origin windows are derived from a reference simulation of
/// the block sets (cheap, exact), which keeps the schedule honest for every
/// even `p`.
fn neighbor_exchange(spec: &CollSpec, p: usize) -> Built {
    debug_assert!(p.is_multiple_of(2) && p >= 2);
    let m = spec.bytes;
    // Reference simulation: per rank, the window (origin, count) sent at
    // each step, as (start, len) in origin space.
    // last[r] = window received in the previous step.
    let mut last: Vec<(usize, usize)> = (0..p).map(|r| (r, 1)).collect();
    // send window at step s, per rank:
    let rounds = p / 2;
    let mut send_windows: Vec<Vec<(usize, usize)>> = vec![vec![(0, 0); p]; rounds];
    let mut partner_of: Vec<Vec<usize>> = vec![vec![0; p]; rounds];
    for s in 0..rounds {
        for r in 0..p {
            let partner = if s == 0 {
                r ^ 1
            } else if (r % 2 == 0) == (s % 2 == 1) {
                // Even ranks go left on odd steps, right on even steps;
                // odd ranks mirror.
                (r + p - 1) % p
            } else {
                (r + 1) % p
            };
            partner_of[s][r] = partner;
            // Step 0 sends own block; step 1 sends both held blocks;
            // later steps send the previous step's received window.
            let win = if s == 0 {
                (r, 1)
            } else if s == 1 {
                (r.min(r ^ 1), 2)
            } else {
                last[r]
            };
            send_windows[s][r] = win;
        }
        // What each rank receives is what its partner sends this step.
        last = (0..p).map(|r| send_windows[s][partner_of[s][r]]).collect();
    }

    steps::per_rank(p, p, |me| {
        let mut ops = own_block(me);
        for s in 0..rounds {
            let peer = partner_of[s][me];
            let (start, len) = send_windows[s][me];
            let part = Part::of(len as u64 * m, origins(start, len, p));
            steps::exchange(&mut ops, peer, peer, spec.tag_base + s as u64, part, 1, Fold::Merge);
        }
        ops
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::CollectiveKind;

    fn spec(alg: u8) -> CollSpec {
        CollSpec::new(CollectiveKind::Allgather, alg, 256)
    }

    #[test]
    fn all_ids_build_various_p() {
        for alg in 1..=5u8 {
            for p in [1usize, 2, 3, 4, 5, 6, 8, 12, 16] {
                let b = build(&spec(alg), p).unwrap();
                assert_eq!(b.rank_ops.len(), p, "alg {alg} p {p}");
            }
        }
    }

    #[test]
    fn bruck_has_log_rounds() {
        let b = build(&spec(2), 16).unwrap();
        let sends = b.rank_ops[0].iter().filter(|o| matches!(o, Op::Isend { .. })).count();
        assert_eq!(sends, 4);
        // Non-power-of-two: ceil(log2 11) = 4 rounds too.
        let b11 = build(&spec(2), 11).unwrap();
        let sends11 = b11.rank_ops[0].iter().filter(|o| matches!(o, Op::Isend { .. })).count();
        assert_eq!(sends11, 4);
    }

    #[test]
    fn bruck_last_round_is_partial_for_non_pow2() {
        let m = 256u64;
        let b = build(&spec(2), 11).unwrap();
        let bytes: Vec<u64> = b.rank_ops[0]
            .iter()
            .filter_map(|o| match o {
                Op::Isend { bytes, .. } => Some(*bytes),
                _ => None,
            })
            .collect();
        // Rounds send 1, 2, 4 then 11-8=3 blocks.
        assert_eq!(bytes, vec![m, 2 * m, 4 * m, 3 * m]);
    }

    #[test]
    fn ring_step_count() {
        let b = build(&spec(4), 7).unwrap();
        let sends = b.rank_ops[3].iter().filter(|o| matches!(o, Op::Isend { .. })).count();
        assert_eq!(sends, 6);
    }

    #[test]
    fn neighbor_exchange_even_message_sizes() {
        let m = 256u64;
        let b = build(&spec(5), 8).unwrap();
        let bytes: Vec<u64> = b.rank_ops[2]
            .iter()
            .filter_map(|o| match o {
                Op::Isend { bytes, .. } => Some(*bytes),
                _ => None,
            })
            .collect();
        // p/2 = 4 steps: 1 block, then 2 blocks each.
        assert_eq!(bytes, vec![m, 2 * m, 2 * m, 2 * m]);
    }

    #[test]
    fn rdb_doubles_message_sizes() {
        let m = 256u64;
        let b = build(&spec(3), 8).unwrap();
        let bytes: Vec<u64> = b.rank_ops[5]
            .iter()
            .filter_map(|o| match o {
                Op::Isend { bytes, .. } => Some(*bytes),
                _ => None,
            })
            .collect();
        assert_eq!(bytes, vec![m, 2 * m, 4 * m]);
    }
}
