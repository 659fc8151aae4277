//! The schedule steps the builders share, each written once: the per-rank
//! loop, a receive, an exchange, the recursive-halving reduce-scatter and
//! the non-power-of-two fold. Builders say which peers, tags, sizes and
//! blocks; the op sequences come from here.
//!
//! Slot convention of the steps: slot 0 is the accumulator/result and a
//! received message lands in a temp slot (1 unless the builder says
//! otherwise) that a [`Fold`] then moves into slot 0.

use pap_sim::data::BlockFilter;
use pap_sim::program::{Slot, Tag};
use pap_sim::Op;

use crate::spec::{Built, CollSpec};
use crate::topo::{self, ChunkPrefix};

/// Build a schedule rank by rank: `rank(me)` is rank `me`'s ops.
pub(crate) fn per_rank(p: usize, nseg: usize, rank: impl FnMut(usize) -> Vec<Op>) -> Built {
    let mut rank_ops = Vec::with_capacity(p);
    rank_ops.extend((0..p).map(rank));
    Built { rank_ops, nseg: nseg as u32 }
}

/// A composed algorithm ([`CollSpec::phases`]): on every rank, the first
/// phase and then the broadcast propagating its result, on the first
/// phase's verification grid.
pub(crate) fn composed(spec: &CollSpec, p: usize) -> Built {
    let (first, bcast) = spec.phases(p).expect("a composed algorithm");
    let first = crate::build(&first, p).expect("first phase");
    let rank_ops = first
        .rank_ops
        .into_iter()
        .zip(crate::bcast::build_propagate(&bcast, p).rank_ops)
        .map(|(mut a, b)| {
            a.extend(b);
            a
        })
        .collect();
    Built { rank_ops, nseg: first.nseg }
}

/// How a received message (in its temp slot) joins the result in slot 0.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Fold {
    /// Leave it in the temp slot (barrier tokens).
    Keep,
    /// Reduce it in, at the cost of reducing `bytes`.
    Reduce(u64),
    /// Merge its blocks in (movement collectives).
    Merge,
    /// Overwrite the blocks it carries (complete chunks replacing partials).
    Overwrite,
    /// Replace the whole slot.
    Copy,
}

impl Fold {
    fn emit(self, ops: &mut Vec<Op>, from: Slot) {
        ops.push(match self {
            Fold::Keep => return,
            Fold::Reduce(bytes) => Op::ReduceLocal { from, into: 0, bytes },
            Fold::Merge => Op::MergeMove { from, into: 0 },
            Fold::Overwrite => Op::OverwriteMove { from, into: 0 },
            Fold::Copy => Op::CopySlot { from, into: 0 },
        });
    }
}

/// Receive step: a blocking receive from `from` into slot 1, then `fold`.
pub(crate) fn recv(ops: &mut Vec<Op>, from: usize, tag: Tag, fold: Fold) {
    ops.push(Op::recv(from, tag, 1));
    fold.emit(ops, 1);
}

/// The send half of an exchange: `bytes` bytes of the blocks of `slot`
/// that pass `filter`. With `leaves`, the sent blocks no longer live here
/// (Bruck all-to-all forwards rather than copies).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Part {
    pub(crate) slot: Slot,
    pub(crate) bytes: u64,
    pub(crate) filter: BlockFilter,
    pub(crate) leaves: bool,
}

impl Part {
    /// The blocks of slot 0 that pass `filter`.
    pub(crate) fn of(bytes: u64, filter: BlockFilter) -> Part {
        Part { slot: 0, bytes, filter, leaves: false }
    }

    /// All of slot 0.
    pub(crate) fn all(bytes: u64) -> Part {
        Part::of(bytes, BlockFilter::All)
    }

    /// Segments (or block indices) `lo..hi` of slot 0.
    pub(crate) fn segs(bytes: u64, lo: usize, hi: usize) -> Part {
        Part::of(bytes, BlockFilter::SegRange(lo as u32, hi as u32))
    }
}

/// Exchange step: isend `send` to `to` (request 0), irecv from `from` into
/// slot `recv` (request 1), wait on both, then `fold` slot `recv` into
/// slot 0.
pub(crate) fn exchange(ops: &mut Vec<Op>, to: usize, from: usize, tag: Tag, send: Part, recv: Slot, fold: Fold) {
    ops.push(Op::isend_part(to, tag, send.bytes, send.slot, send.filter, 0));
    if send.leaves {
        ops.push(Op::DropBlocks { slot: send.slot, filter: send.filter });
    }
    ops.push(Op::irecv(from, tag, recv, 1));
    ops.push(Op::waitall(vec![0, 1]));
    fold.emit(ops, recv);
}

/// Recursive-halving reduce-scatter over the `ch.count()` (a power of two)
/// chunks, as vrank `v` runs it; `act` maps vranks to ranks. Step `t`
/// exchanges with vrank `v ^ d`, `d = count >> (t + 1)`, on tag `tag + t`:
/// it sends the half of its interval the peer keeps and reduces in the
/// half it keeps. Afterwards vrank `v` holds chunk `v` reduced over all
/// vranks.
pub(crate) fn halving(ops: &mut Vec<Op>, v: usize, ch: &ChunkPrefix, tag: Tag, act: impl Fn(usize) -> usize) {
    let p2 = ch.count();
    let mut lo = 0;
    for t in 0..p2.trailing_zeros() {
        let d = p2 >> (t + 1);
        let (keep, send) = topo::halve(v, d, lo);
        let peer = act(v ^ d);
        let part = Part::segs(ch.range(send.0, send.1), send.0, send.1);
        exchange(ops, peer, peer, tag + u64::from(t), part, 1, Fold::Reduce(ch.range(keep.0, keep.1)));
        lo = keep.0;
    }
    debug_assert_eq!(lo, v);
}

/// Non-power-of-two fold around `body`, over vranks (`act` maps them to
/// ranks), with `p2 = pow2_floor(p)`. An excess vrank `v >= p2` sends its
/// input to vrank `v - p2` on `spec.tag_base` and is done (with `unfold`,
/// once the result comes back on `spec.tag_base + 100`). A vrank
/// `v < p - p2` first reduces that input in. Every vrank `v < p2` then runs
/// `body`; with `unfold`, vrank `v < p - p2` ends by sending the result back.
pub(crate) fn fold(
    ops: &mut Vec<Op>,
    spec: &CollSpec,
    v: usize,
    p: usize,
    act: impl Fn(usize) -> usize,
    unfold: bool,
    body: impl FnOnce(&mut Vec<Op>),
) {
    let p2 = topo::pow2_floor(p);
    let back = spec.tag_base + 100;
    if v >= p2 {
        ops.push(Op::send(act(v - p2), spec.tag_base, spec.bytes, 0));
        if unfold {
            ops.push(Op::recv(act(v - p2), back, 0));
        }
        return;
    }
    let excess = (v + p2 < p).then(|| act(v + p2));
    if let Some(e) = excess {
        recv(ops, e, spec.tag_base, Fold::Reduce(spec.bytes));
    }
    body(ops);
    if let Some(e) = excess.filter(|_| unfold) {
        ops.push(Op::send(e, back, spec.bytes, 0));
    }
}
