//! Analytical models for round-structured schedules: recursive doubling,
//! rings, Rabenseifner halving/doubling, Bruck, pairwise/linear alltoall,
//! neighbor exchange, and the dissemination barrier.
//!
//! These algorithms proceed in synchronized rounds where each rank posts an
//! isend and an irecv and then waits on both. One driver, [`run_rounds`],
//! replays every such round: an algorithm states, per round and vrank, a
//! [`Part`] (whom it sends to, whom it receives from, the bytes it sends and
//! the bytes it reduces in afterwards). The driver fills the round's
//! buffers from that rule and hands them to [`exchange_round`], which
//! resolves the round against the shared [`Net`] state in one fixed order.
//! Outside the driver replay only the windowed linear Alltoall, whose
//! rounds post several request pairs per rank, and the blocking
//! fold-in/out and gather steps.

use pap_collectives::topo::{self, ChunkPrefix};
use pap_sim::Platform;

use crate::net::{MsgOut, Net};

/// One vrank's part in a round: the vrank it sends to, the vrank it
/// receives from, the bytes it sends and the bytes it reduces in (at γ per
/// byte) after the round.
type Part = (usize, usize, u64, u64);

/// One exchange round among the ranks `act` (vrank → rank): vrank `v`,
/// whose part is `parts[v]`, posts its isend then its irecv and waits on
/// both, then folds its reduce bytes in at γ per byte. The parts must pair
/// up: whoever I send to receives from me this round. `outs` is the
/// caller's working vector.
fn exchange_round(
    pf: &Platform,
    net: &mut Net,
    act: &[usize],
    parts: &[Part],
    outs: &mut Vec<MsgOut>,
    locals: &mut [f64],
) {
    let post = pf.send_overhead + pf.recv_overhead;
    let gamma = pf.reduce_cost_per_byte;
    outs.clear();
    // `locals` is only written after the message loop, so the sender's
    // pre-send clock is `locals[f]` and the receiver posts at
    // `locals[a] + post` — no staging copies needed.
    for (&(_, fv, _, _), &a) in parts.iter().zip(act) {
        let f = act[fv];
        outs.push(net.msg(f, a, parts[fv].2, locals[f], locals[a] + post));
    }
    for (v, ((&(tv, _, _, rb), &a), out)) in parts.iter().zip(act).zip(outs.iter()).enumerate() {
        debug_assert_eq!(parts[tv].1, v, "round exchange must pair up");
        locals[a] = out.recv_done.max(outs[tv].send_done) + rb as f64 * gamma;
    }
}

/// The round driver: replay `rounds` exchange rounds among the ranks `act`
/// (vrank → rank), where `rule(t, v)` is vrank `v`'s [`Part`] in round `t`.
/// The round's buffers are allocated once per call and refilled per round.
fn run_rounds(
    pf: &Platform,
    net: &mut Net,
    act: &[usize],
    rounds: usize,
    locals: &mut [f64],
    rule: impl Fn(usize, usize) -> Part,
) {
    let n = act.len();
    let mut parts = Vec::with_capacity(n);
    let mut outs = Vec::with_capacity(n);
    for t in 0..rounds {
        parts.clear();
        parts.extend((0..n).map(|v| rule(t, v)));
        exchange_round(pf, net, act, &parts, &mut outs, locals);
    }
}

/// The vrank → rank map of ranks `0..n` unrotated.
fn identity(n: usize) -> Vec<usize> {
    (0..n).collect()
}

/// Rounds of a distance-doubling schedule over `p` ranks (`⌈log₂ p⌉`).
fn doubling_rounds(p: usize) -> usize {
    p.next_power_of_two().trailing_zeros() as usize
}

/// Blocking send `src → dst` where `dst`'s matching blocking recv is its
/// next op. Advances both clocks (any local reduction is the caller's).
fn blocking_pair(pf: &Platform, net: &mut Net, src: usize, dst: usize, bytes: u64, locals: &mut [f64]) {
    let tr = locals[dst] + pf.recv_overhead;
    let out = net.msg(src, dst, bytes, locals[src], tr);
    locals[src] = out.send_done;
    locals[dst] = out.recv_done;
}

/// `x mod p` for `x < 2p`. The round maps only ever wrap once, so a
/// compare-subtract keeps the per-element index math division-free — the
/// rings and Bruck/pairwise loops compute O(p²) such indices per
/// prediction, where a hardware modulo would dominate the float work.
#[inline(always)]
fn wrap(x: usize, p: usize) -> usize {
    if x >= p {
        x - p
    } else {
        x
    }
}

/// Fold-in of the excess vranks `p2..p` (`act` maps vranks to ranks): each
/// blocking-sends its input to vrank `v − p2`, which reduces it in.
fn fold_in(pf: &Platform, net: &mut Net, bytes: u64, p2: usize, act: impl Fn(usize) -> usize, locals: &mut [f64]) {
    for v in p2..locals.len() {
        let dst = act(v - p2);
        blocking_pair(pf, net, act(v), dst, bytes, locals);
        locals[dst] += bytes as f64 * pf.reduce_cost_per_byte;
    }
}

/// Fold-out over unrotated ranks: rank `me < p − p2` returns the result to
/// the excess rank `me + p2`, which posted that recv right after its fold
/// send.
fn fold_out(pf: &Platform, net: &mut Net, bytes: u64, p2: usize, locals: &mut [f64]) {
    for me in 0..locals.len() - p2 {
        blocking_pair(pf, net, me, me + p2, bytes, locals);
    }
}

/// Allreduce ID 3: recursive doubling with fold-in/fold-out of the excess
/// ranks beyond the largest power of two.
pub(crate) fn allreduce_recdbl(pf: &Platform, net: &mut Net, bytes: u64, starts: &[f64]) -> Vec<f64> {
    let mut locals = starts.to_vec();
    let p2 = topo::pow2_floor(starts.len());
    fold_in(pf, net, bytes, p2, |v| v, &mut locals);
    run_rounds(pf, net, &identity(p2), p2.trailing_zeros() as usize, &mut locals, |t, v| {
        let q = v ^ (1 << t);
        (q, q, bytes, bytes)
    });
    fold_out(pf, net, bytes, p2, &mut locals);
    locals
}

/// Allreduce IDs 4–5: ring reduce-scatter (in `phases` sub-chunk passes)
/// followed by a ring allgather over whole chunks.
pub(crate) fn allreduce_ring(pf: &Platform, net: &mut Net, bytes: u64, phases: usize, starts: &[f64]) -> Vec<f64> {
    let p = starts.len();
    let mut locals = starts.to_vec();
    let chunk = topo::split_chunks(bytes, p);
    let sub: Vec<Vec<u64>> = chunk.iter().map(|&cb| topo::split_chunks(cb, phases)).collect();
    let act = identity(p);
    let (right, left) = (|i| wrap(i + 1, p), |i| wrap(i + p - 1, p));
    for ph in 0..phases {
        // Pass `ph` moves column `ph` of `sub`, laid out twice so that a
        // ring offset below 2p indexes it without wrapping.
        let col: Vec<u64> = sub.iter().chain(&sub).map(|s| s[ph]).collect();
        run_rounds(pf, net, &act, p - 1, &mut locals, |t, i| {
            (right(i), left(i), col[i + wrap(p - t, p)], col[i + p - t - 1])
        });
    }
    run_rounds(pf, net, &act, p - 1, &mut locals, |t, i| {
        (right(i), left(i), chunk[wrap(i + wrap(1 + p - t, p), p)], 0)
    });
    locals
}

/// Recursive-halving reduce-scatter over vranks `0..p2` (the shared first
/// half of both Rabenseifner variants), with the builders' keep/send split
/// ([`topo::halve`]). `act` maps virtual to actual ranks, precomputed as a
/// table. Before round `t` vrank `v` holds the `2d`-chunk interval aligned
/// on `v` (`d = p2 / 2^(t+1)`); afterwards it holds `[v, v + 1)`.
fn halving_rounds(pf: &Platform, net: &mut Net, ch: &ChunkPrefix, act: &[usize], locals: &mut [f64]) {
    let p2 = ch.count();
    run_rounds(pf, net, act, p2.trailing_zeros() as usize, locals, |t, v| {
        let d = p2 >> (t + 1);
        let (keep, send) = topo::halve(v, d, v & !(2 * d - 1));
        (v ^ d, v ^ d, ch.range(send.0, send.1), ch.range(keep.0, keep.1))
    });
}

/// Allreduce ID 6: Rabenseifner — fold, recursive-halving reduce-scatter,
/// recursive-doubling allgather, unfold. Before doubling round `t` vrank
/// `v` holds the `2^t`-chunk interval aligned on `v`.
pub(crate) fn allreduce_rabenseifner(pf: &Platform, net: &mut Net, bytes: u64, starts: &[f64]) -> Vec<f64> {
    let mut locals = starts.to_vec();
    let p2 = topo::pow2_floor(starts.len());
    fold_in(pf, net, bytes, p2, |v| v, &mut locals);
    let ch = ChunkPrefix::new(bytes, p2);
    let act = identity(p2);
    halving_rounds(pf, net, &ch, &act, &mut locals);
    run_rounds(pf, net, &act, p2.trailing_zeros() as usize, &mut locals, |t, v| {
        let d = 1 << t;
        let lo = v & !(d - 1);
        (v ^ d, v ^ d, ch.range(lo, lo + d), 0)
    });
    fold_out(pf, net, bytes, p2, &mut locals);
    locals
}

/// Reduce ID 7: Rabenseifner — fold over vranks, recursive-halving
/// reduce-scatter, then a binomial gather of the reduced chunks to vrank 0
/// (the actual `spec.root`).
pub(crate) fn reduce_rabenseifner(
    pf: &Platform,
    net: &mut Net,
    root: usize,
    bytes: u64,
    starts: &[f64],
) -> Vec<f64> {
    let p = starts.len();
    let mut locals = starts.to_vec();
    let p2 = topo::pow2_floor(p);
    fold_in(pf, net, bytes, p2, |v| topo::actual(v, root, p), &mut locals);
    let act: Vec<usize> = (0..p2).map(|v| topo::actual(v, root, p)).collect();
    let ch = ChunkPrefix::new(bytes, p2);
    halving_rounds(pf, net, &ch, &act, &mut locals);
    // Binomial gather: in step t, the vranks whose lowest set bit is t
    // blocking-send the interval [v, v + 2^t) they have gathered to v − 2^t.
    for t in 0..p2.trailing_zeros() {
        let d = 1usize << t;
        for v in (d..p2).step_by(2 * d) {
            blocking_pair(pf, net, act[v], act[v - d], ch.range(v, v + d), &mut locals);
        }
    }
    locals
}

/// Alltoall IDs 1 and 4: linear with a request window. Per batch, each rank
/// posts irecv/isend pairs for every distance in the batch, then waits on
/// the whole window.
pub(crate) fn alltoall_linear(
    pf: &Platform,
    net: &mut Net,
    m: u64,
    window: usize,
    starts: &[f64],
) -> Vec<f64> {
    let p = starts.len();
    let mut locals = starts.to_vec();
    if p == 1 {
        return locals;
    }
    let dists: Vec<usize> = (1..p).collect();
    let wmax = window.max(1).min(p);
    let mut tr = Vec::new();
    let mut pre = Vec::new();
    let mut outs = Vec::new();
    for batch in dists.chunks(wmax) {
        let nb = batch.len();
        // Walk every rank's posting sequence: irecv then isend per distance.
        // tr/pre/outs are flat (rank-major, `nb` entries per rank).
        tr.clear();
        tr.resize(p * nb, 0.0);
        pre.clear();
        pre.resize(p * nb, 0.0);
        for (me, l) in locals.iter_mut().enumerate() {
            let mut t = *l;
            for j in 0..nb {
                t += pf.recv_overhead;
                tr[me * nb + j] = t;
                pre[me * nb + j] = t;
                t += pf.send_overhead;
            }
            *l = t;
        }
        // Resolve the batch: the message me → me+k is resolved at the
        // receiver, so rank me's send completion for distance k lives in
        // outs[(me+k) % p * nb + j].
        outs.clear();
        for me in 0..p {
            for (j, &k) in batch.iter().enumerate() {
                let src = wrap(me + p - k, p);
                outs.push(net.msg(src, me, m, pre[src * nb + j], tr[me * nb + j]));
            }
        }
        for (me, l) in locals.iter_mut().enumerate() {
            let mut t = *l;
            for (j, &k) in batch.iter().enumerate() {
                t = t.max(outs[me * nb + j].recv_done).max(outs[wrap(me + k, p) * nb + j].send_done);
            }
            *l = t;
        }
    }
    locals
}

/// Alltoall ID 2: pairwise exchange — round `t` swaps blocks with the ranks
/// at ring distance `t + 1`.
pub(crate) fn alltoall_pairwise(pf: &Platform, net: &mut Net, m: u64, starts: &[f64]) -> Vec<f64> {
    let p = starts.len();
    let mut locals = starts.to_vec();
    run_rounds(pf, net, &identity(p), p - 1, &mut locals, |t, i| {
        (wrap(i + t + 1, p), wrap(i + p - t - 1, p), m, 0)
    });
    locals
}

/// Alltoall ID 3: Bruck — log₂ rounds aggregating the blocks whose ring
/// distance has bit `k` set.
pub(crate) fn alltoall_bruck(pf: &Platform, net: &mut Net, m: u64, starts: &[f64]) -> Vec<f64> {
    let p = starts.len();
    let mut locals = starts.to_vec();
    run_rounds(pf, net, &identity(p), doubling_rounds(p), &mut locals, |k, i| {
        let d = 1 << k;
        (wrap(i + d, p), wrap(i + p - d, p), topo::count_bit_set(p, k as u32) as u64 * m, 0)
    });
    locals
}

/// Barrier: dissemination — round `k` signals the rank `2^k` ahead.
pub(crate) fn barrier_dissemination(pf: &Platform, net: &mut Net, starts: &[f64]) -> Vec<f64> {
    let p = starts.len();
    let mut locals = starts.to_vec();
    run_rounds(pf, net, &identity(p), doubling_rounds(p), &mut locals, |k, i| {
        (wrap(i + (1 << k), p), wrap(i + p - (1 << k), p), 1, 0)
    });
    locals
}

/// Allgather ID 2 (and ID 3's non-power-of-two fallback): Bruck.
pub(crate) fn allgather_bruck(pf: &Platform, net: &mut Net, m: u64, starts: &[f64]) -> Vec<f64> {
    let p = starts.len();
    let mut locals = starts.to_vec();
    run_rounds(pf, net, &identity(p), doubling_rounds(p), &mut locals, |k, i| {
        let d = 1 << k;
        (wrap(i + p - d, p), wrap(i + d, p), d.min(p - d) as u64 * m, 0)
    });
    locals
}

/// Allgather ID 3: recursive doubling (power-of-two `p`).
pub(crate) fn allgather_recdbl(pf: &Platform, net: &mut Net, m: u64, starts: &[f64]) -> Vec<f64> {
    let p = starts.len();
    let mut locals = starts.to_vec();
    run_rounds(pf, net, &identity(p), p.trailing_zeros() as usize, &mut locals, |k, i| {
        (i ^ (1 << k), i ^ (1 << k), (1 << k) * m, 0)
    });
    locals
}

/// Allgather ID 4 (and ID 5's odd-`p` fallback): ring.
pub(crate) fn allgather_ring(pf: &Platform, net: &mut Net, m: u64, starts: &[f64]) -> Vec<f64> {
    let p = starts.len();
    let mut locals = starts.to_vec();
    run_rounds(pf, net, &identity(p), p - 1, &mut locals, |_, i| (wrap(i + 1, p), wrap(i + p - 1, p), m, 0));
    locals
}

/// Allgather ID 5: neighbor exchange (even `p`): pairs swap own blocks,
/// then alternate swapping the two most recently received blocks left/right.
pub(crate) fn allgather_neighbor(pf: &Platform, net: &mut Net, m: u64, starts: &[f64]) -> Vec<f64> {
    let p = starts.len();
    let mut locals = starts.to_vec();
    run_rounds(pf, net, &identity(p), p / 2, &mut locals, |s, r| {
        let q = if s == 0 {
            r ^ 1
        } else if (r % 2 == 0) == (s % 2 == 1) {
            wrap(r + p - 1, p)
        } else {
            wrap(r + 1, p)
        };
        (q, q, if s == 0 { m } else { 2 * m }, 0)
    });
    locals
}
