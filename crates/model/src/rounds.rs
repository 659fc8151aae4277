//! Analytical models for round-structured schedules: recursive doubling,
//! rings, Rabenseifner halving/doubling, Bruck, pairwise/linear alltoall,
//! neighbor exchange, and the dissemination barrier.
//!
//! These algorithms proceed in synchronized rounds where each rank posts an
//! isend and an irecv and then waits on both; [`exchange_round`] replays one
//! such round for all participants against the shared [`Net`] state. Round
//! maps (`to`/`from`/byte vectors) are hoisted out of the round loops and
//! refilled in place, and the exchange itself draws its working vectors from
//! a per-thread scratch pool — a ring at rank count `p` replays `p − 1`
//! rounds, and the per-round allocations used to dominate its cost.

use std::cell::RefCell;

use pap_collectives::topo;
use pap_sim::Platform;

use crate::net::{MsgOut, Net};

/// Per-thread working vector for [`exchange_round`]: capacity is retained
/// across rounds and evaluations.
#[derive(Default)]
struct Scratch {
    outs: Vec<MsgOut>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// One exchange round: every rank `active[i]` posts `isend(to[i])` then
/// `irecv(from[i])` and waits on both. `sbytes[i]` is the payload rank
/// `active[i]` sends; `reduce_bytes[i]` is folded in (at γ per byte) after
/// the waitall. The to/from maps must pair up: whoever I send to receives
/// from me this round. `pos` inverts `active` (rank → index): every caller
/// keeps `active` fixed across its rounds, so rebuilding the inverse per
/// round would add O(p) work to each of up to O(p) rounds — identity
/// callers just pass `active` itself.
#[allow(clippy::too_many_arguments)]
fn exchange_round(
    pf: &Platform,
    net: &mut Net,
    active: &[usize],
    pos: &[usize],
    to: &[usize],
    from: &[usize],
    sbytes: &[u64],
    reduce_bytes: &[u64],
    locals: &mut [f64],
) {
    SCRATCH.with(|s| {
        let s = &mut *s.borrow_mut();
        let post = pf.send_overhead + pf.recv_overhead;
        let gamma = pf.reduce_cost_per_byte;
        s.outs.clear();
        // `locals` is only written after the message loop, so the sender's
        // pre-send clock is `locals[from[i]]` and the receiver posts at
        // `locals[active[i]] + post` — no staging copies needed.
        for (&f, &a) in from.iter().zip(active) {
            let si = pos[f];
            s.outs.push(net.msg(f, a, sbytes[si], locals[f], locals[a] + post));
        }
        for ((&t, &a), (out, &rb)) in
            to.iter().zip(active).zip(s.outs.iter().zip(reduce_bytes))
        {
            let di = pos[t];
            debug_assert_eq!(from[di], a, "round exchange must pair up");
            locals[a] = out.recv_done.max(s.outs[di].send_done) + rb as f64 * gamma;
        }
    });
}

/// Blocking send `src → dst` where `dst`'s matching blocking recv is its
/// next op. Advances both clocks (any local reduction is the caller's).
fn blocking_pair(pf: &Platform, net: &mut Net, src: usize, dst: usize, bytes: u64, locals: &mut [f64]) {
    let tr = locals[dst] + pf.recv_overhead;
    let out = net.msg(src, dst, bytes, locals[src], tr);
    locals[src] = out.send_done;
    locals[dst] = out.recv_done;
}

/// Refill `buf` in place from an indexed map — the hoisted-buffer idiom for
/// per-round to/from/byte vectors.
#[inline]
fn refill<T>(buf: &mut Vec<T>, n: usize, f: impl Fn(usize) -> T) {
    buf.clear();
    buf.extend((0..n).map(f));
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

/// Allreduce ID 3: recursive doubling with fold-in/fold-out of the excess
/// ranks beyond the largest power of two.
pub(crate) fn allreduce_recdbl(
    pf: &Platform,
    net: &mut Net,
    bytes: u64,
    starts: &[f64],
) -> Vec<f64> {
    let p = starts.len();
    let mut locals = starts.to_vec();
    let p2 = topo::pow2_floor(p);
    let r = p - p2;
    let gamma = pf.reduce_cost_per_byte;
    for me in 0..r {
        blocking_pair(pf, net, me + p2, me, bytes, &mut locals);
        locals[me] += bytes as f64 * gamma;
    }
    let active: Vec<usize> = (0..p2).collect();
    let b = vec![bytes; p2];
    let mut partner = Vec::with_capacity(p2);
    for t in 0..p2.trailing_zeros() {
        let d = 1usize << t;
        refill(&mut partner, p2, |i| i ^ d);
        exchange_round(pf, net, &active, &active, &partner, &partner, &b, &b, &mut locals);
    }
    for me in 0..r {
        // The excess rank posted its result recv right after the fold send.
        blocking_pair(pf, net, me, me + p2, bytes, &mut locals);
    }
    locals
}

/// Allreduce IDs 4–5: ring reduce-scatter (in `phases` sub-chunk passes)
/// followed by a ring allgather over whole chunks.
pub(crate) fn allreduce_ring(
    pf: &Platform,
    net: &mut Net,
    bytes: u64,
    phases: usize,
    starts: &[f64],
) -> Vec<f64> {
    let p = starts.len();
    let mut locals = starts.to_vec();
    if p == 1 {
        return locals;
    }
    let chunk = topo::split_chunks(bytes, p);
    let sub: Vec<Vec<u64>> = chunk.iter().map(|&cb| topo::split_chunks(cb, phases)).collect();
    let active: Vec<usize> = (0..p).collect();
    let right: Vec<usize> = (0..p).map(|i| (i + 1) % p).collect();
    let left: Vec<usize> = (0..p).map(|i| (i + p - 1) % p).collect();
    let mut sb = Vec::with_capacity(p);
    let mut rb = Vec::with_capacity(p);
    // `ph` picks a column across all of `sub`'s rows, so iterating the rows
    // themselves is not an option here.
    #[allow(clippy::needless_range_loop)]
    for ph in 0..phases {
        for t in 0..p - 1 {
            let s_off = wrap(p - t, p);
            let r_off = wrap(p - t - 1, p);
            refill(&mut sb, p, |i| sub[wrap(i + s_off, p)][ph]);
            refill(&mut rb, p, |i| sub[wrap(i + r_off, p)][ph]);
            exchange_round(pf, net, &active, &active, &right, &left, &sb, &rb, &mut locals);
        }
    }
    let zero = vec![0u64; p];
    for t in 0..p - 1 {
        let s_off = wrap(1 + p - t, p);
        refill(&mut sb, p, |i| chunk[wrap(i + s_off, p)]);
        exchange_round(pf, net, &active, &active, &right, &left, &sb, &zero, &mut locals);
    }
    locals
}

/// Chunk-interval bookkeeping shared by the two Rabenseifner variants:
/// prefix sums over `split_chunks(bytes, p2)`.
struct Chunks {
    prefix: Vec<u64>,
}

impl Chunks {
    fn new(bytes: u64, p2: usize) -> Self {
        let chunks = topo::split_chunks(bytes, p2);
        let mut prefix = vec![0u64; p2 + 1];
        for (i, &c) in chunks.iter().enumerate() {
            prefix[i + 1] = prefix[i] + c;
        }
        Chunks { prefix }
    }

    fn range(&self, lo: usize, hi: usize) -> u64 {
        self.prefix[hi] - self.prefix[lo]
    }
}

/// Recursive-halving reduce-scatter over vranks `0..p2` (the shared first
/// half of both Rabenseifner variants). `act` maps virtual to actual ranks,
/// precomputed as a table: the per-step loops look it up per vrank, and a
/// rotation with its modulo behind a dynamic call would dominate them.
/// Returns the per-vrank `[lo, hi)` interval (always `[v, v+1)` after all
/// steps, tracked explicitly for the doubling phase).
fn halving_rounds(
    pf: &Platform,
    net: &mut Net,
    p2: usize,
    ch: &Chunks,
    act: &[usize],
    locals: &mut [f64],
) -> Vec<(usize, usize)> {
    let steps = p2.trailing_zeros() as usize;
    let active: Vec<usize> = act.to_vec();
    let mut pos = vec![usize::MAX; locals.len()];
    for (i, &r) in active.iter().enumerate() {
        pos[r] = i;
    }
    let mut iv = vec![(0usize, p2); p2];
    let mut next = Vec::with_capacity(p2);
    let mut to = Vec::with_capacity(p2);
    let mut sb = Vec::with_capacity(p2);
    let mut rb = Vec::with_capacity(p2);
    for t in 0..steps {
        let d = p2 >> (t + 1);
        to.clear();
        sb.clear();
        rb.clear();
        next.clear();
        for (v, &(lo, hi)) in iv.iter().enumerate() {
            let mid = lo + d;
            let (keep, send) = if v & d == 0 { ((lo, mid), (mid, hi)) } else { ((mid, hi), (lo, mid)) };
            to.push(act[v ^ d]);
            sb.push(ch.range(send.0, send.1));
            rb.push(ch.range(keep.0, keep.1));
            next.push(keep);
        }
        exchange_round(pf, net, &active, &pos, &to, &to, &sb, &rb, locals);
        std::mem::swap(&mut iv, &mut next);
    }
    iv
}

/// Allreduce ID 6: Rabenseifner — fold, recursive-halving reduce-scatter,
/// recursive-doubling allgather, unfold.
pub(crate) fn allreduce_rabenseifner(
    pf: &Platform,
    net: &mut Net,
    bytes: u64,
    starts: &[f64],
) -> Vec<f64> {
    let p = starts.len();
    let mut locals = starts.to_vec();
    let p2 = topo::pow2_floor(p);
    let r = p - p2;
    let gamma = pf.reduce_cost_per_byte;
    for me in 0..r {
        blocking_pair(pf, net, me + p2, me, bytes, &mut locals);
        locals[me] += bytes as f64 * gamma;
    }
    let ch = Chunks::new(bytes, p2);
    let id: Vec<usize> = (0..p2).collect();
    let mut iv = halving_rounds(pf, net, p2, &ch, &id, &mut locals);
    let steps = p2.trailing_zeros() as usize;
    let active: Vec<usize> = (0..p2).collect();
    let zero = vec![0u64; p2];
    let mut to = Vec::with_capacity(p2);
    let mut sb = Vec::with_capacity(p2);
    for t in 0..steps {
        let d = 1usize << t;
        refill(&mut to, p2, |v| v ^ d);
        sb.clear();
        sb.extend(iv.iter().map(|&(lo, hi)| ch.range(lo, hi)));
        exchange_round(pf, net, &active, &active, &to, &to, &sb, &zero, &mut locals);
        for ivv in iv.iter_mut() {
            let lo = ivv.0 & !(2 * d - 1);
            *ivv = (lo, lo + 2 * d);
        }
    }
    for me in 0..r {
        blocking_pair(pf, net, me, me + p2, bytes, &mut locals);
    }
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
    let gamma = pf.reduce_cost_per_byte;
    let act: Vec<usize> = (0..p2).map(|v| topo::actual(v, root, p)).collect();
    for v in p2..p {
        let folded = topo::actual(v, root, p);
        blocking_pair(pf, net, folded, act[v - p2], bytes, &mut locals);
        locals[act[v - p2]] += bytes as f64 * gamma;
    }
    let ch = Chunks::new(bytes, p2);
    let iv = halving_rounds(pf, net, p2, &ch, &act, &mut locals);
    let steps = p2.trailing_zeros() as usize;
    // Binomial gather: in step t, vranks with bit t set blocking-send their
    // interval to v − 2^t and are done; receivers double their interval.
    let mut hi_of: Vec<usize> = iv.iter().map(|&(_, hi)| hi).collect();
    let mut done = vec![false; p2];
    for t in 0..steps {
        let d = 1usize << t;
        for v in 0..p2 {
            if done[v] || v & d == 0 {
                continue;
            }
            let src = act[v];
            let dst = act[v - d];
            blocking_pair(pf, net, src, dst, ch.range(v, hi_of[v]), &mut locals);
            done[v] = true;
            hi_of[v - d] = v - d + 2 * d;
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
/// at ring distance `t`.
pub(crate) fn alltoall_pairwise(pf: &Platform, net: &mut Net, m: u64, starts: &[f64]) -> Vec<f64> {
    let p = starts.len();
    let mut locals = starts.to_vec();
    let active: Vec<usize> = (0..p).collect();
    let b = vec![m; p];
    let zero = vec![0u64; p];
    let mut to = Vec::with_capacity(p);
    let mut from = Vec::with_capacity(p);
    for t in 1..p {
        refill(&mut to, p, |i| wrap(i + t, p));
        refill(&mut from, p, |i| wrap(i + p - t, p));
        exchange_round(pf, net, &active, &active, &to, &from, &b, &zero, &mut locals);
    }
    locals
}

/// Alltoall ID 3: Bruck — log₂ rounds aggregating the blocks whose ring
/// distance has bit `k` set.
pub(crate) fn alltoall_bruck(pf: &Platform, net: &mut Net, m: u64, starts: &[f64]) -> Vec<f64> {
    let p = starts.len();
    let mut locals = starts.to_vec();
    let active: Vec<usize> = (0..p).collect();
    let zero = vec![0u64; p];
    let mut to = Vec::with_capacity(p);
    let mut from = Vec::with_capacity(p);
    let mut b = Vec::with_capacity(p);
    let mut k = 0u32;
    while (1usize << k) < p {
        let d = 1usize << k;
        let bytes = topo::count_bit_set(p, k) as u64 * m;
        refill(&mut to, p, |i| wrap(i + d, p));
        refill(&mut from, p, |i| wrap(i + p - d, p));
        refill(&mut b, p, |_| bytes);
        exchange_round(pf, net, &active, &active, &to, &from, &b, &zero, &mut locals);
        k += 1;
    }
    locals
}

/// Barrier: dissemination — round `k` signals the rank `2^k` ahead.
pub(crate) fn barrier_dissemination(pf: &Platform, net: &mut Net, starts: &[f64]) -> Vec<f64> {
    let p = starts.len();
    let mut locals = starts.to_vec();
    let active: Vec<usize> = (0..p).collect();
    let b = vec![1u64; p];
    let zero = vec![0u64; p];
    let mut to = Vec::with_capacity(p);
    let mut from = Vec::with_capacity(p);
    let mut k = 0u32;
    while (1usize << k) < p {
        let d = 1usize << k;
        refill(&mut to, p, |i| wrap(i + d, p));
        refill(&mut from, p, |i| wrap(i + p - d, p));
        exchange_round(pf, net, &active, &active, &to, &from, &b, &zero, &mut locals);
        k += 1;
    }
    locals
}

/// Allgather ID 2 (and ID 3's non-power-of-two fallback): Bruck.
pub(crate) fn allgather_bruck(pf: &Platform, net: &mut Net, m: u64, starts: &[f64]) -> Vec<f64> {
    let p = starts.len();
    let mut locals = starts.to_vec();
    let active: Vec<usize> = (0..p).collect();
    let zero = vec![0u64; p];
    let mut to = Vec::with_capacity(p);
    let mut from = Vec::with_capacity(p);
    let mut b = Vec::with_capacity(p);
    let mut k = 0u32;
    while (1usize << k) < p {
        let d = 1usize << k;
        let bytes = d.min(p - d) as u64 * m;
        refill(&mut to, p, |i| wrap(i + p - d, p));
        refill(&mut from, p, |i| wrap(i + d, p));
        refill(&mut b, p, |_| bytes);
        exchange_round(pf, net, &active, &active, &to, &from, &b, &zero, &mut locals);
        k += 1;
    }
    locals
}

/// Allgather ID 3: recursive doubling (power-of-two `p`).
pub(crate) fn allgather_recdbl(pf: &Platform, net: &mut Net, m: u64, starts: &[f64]) -> Vec<f64> {
    let p = starts.len();
    let mut locals = starts.to_vec();
    let active: Vec<usize> = (0..p).collect();
    let zero = vec![0u64; p];
    let mut to = Vec::with_capacity(p);
    let mut b = Vec::with_capacity(p);
    for k in 0..p.trailing_zeros() {
        let d = 1usize << k;
        refill(&mut to, p, |i| i ^ d);
        refill(&mut b, p, |_| d as u64 * m);
        exchange_round(pf, net, &active, &active, &to, &to, &b, &zero, &mut locals);
    }
    locals
}

/// Allgather ID 4 (and ID 5's odd-`p` fallback): ring.
pub(crate) fn allgather_ring(pf: &Platform, net: &mut Net, m: u64, starts: &[f64]) -> Vec<f64> {
    let p = starts.len();
    let mut locals = starts.to_vec();
    if p == 1 {
        return locals;
    }
    let active: Vec<usize> = (0..p).collect();
    let right: Vec<usize> = (0..p).map(|i| (i + 1) % p).collect();
    let left: Vec<usize> = (0..p).map(|i| (i + p - 1) % p).collect();
    let b = vec![m; p];
    let zero = vec![0u64; p];
    for _ in 0..p - 1 {
        exchange_round(pf, net, &active, &active, &right, &left, &b, &zero, &mut locals);
    }
    locals
}

/// Allgather ID 5: neighbor exchange (even `p`): pairs swap own blocks,
/// then alternate swapping the two most recently received blocks left/right.
pub(crate) fn allgather_neighbor(pf: &Platform, net: &mut Net, m: u64, starts: &[f64]) -> Vec<f64> {
    let p = starts.len();
    let mut locals = starts.to_vec();
    let active: Vec<usize> = (0..p).collect();
    let zero = vec![0u64; p];
    let mut to = Vec::with_capacity(p);
    let mut b = Vec::with_capacity(p);
    for s in 0..p / 2 {
        refill(&mut to, p, |r| {
            if s == 0 {
                r ^ 1
            } else if (r % 2 == 0) == (s % 2 == 1) {
                (r + p - 1) % p
            } else {
                (r + 1) % p
            }
        });
        let len = if s == 0 { 1u64 } else { 2 };
        refill(&mut b, p, |_| len * m);
        exchange_round(pf, net, &active, &active, &to, &to, &b, &zero, &mut locals);
    }
    locals
}
