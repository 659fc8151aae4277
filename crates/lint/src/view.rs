//! The static view of one job: every fact the passes share, derived once.
//!
//! A [`View`] holds the job's ops flattened rank-major (each rank's
//! segments concatenated), the FIFO send↔receive pairing as one flat
//! per-op index array, and the request table naming, for every `WaitAll`,
//! the ops that posted the requests it completes. Building it reports the
//! matching and request-lifecycle findings; every other pass, the fixpoint
//! and repair only read it. Ops are addressed by their *global* index into
//! [`View::ops`]; `OpLoc`s are derived on demand for diagnostics.

use std::ops::Range;

use pap_sim::program::Slot;
use pap_sim::{Job, Label, Op};

use crate::diag::{Diagnostic, OpLoc};
use crate::{channels, requests};

/// "No op": an unmatched send or receive, a never-waited request.
pub(crate) const NONE: usize = usize::MAX;

/// The statically matched counterpart of a send or receive, addressed per
/// rank (the coordinates repair edits by).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Counterpart {
    /// Peer rank.
    pub rank: usize,
    /// Index of the counterpart in the peer's flattened program.
    pub flat: usize,
}

pub(crate) struct View {
    /// Every op, rank-major.
    pub ops: Vec<Op>,
    /// Rank `r` owns `ops[start[r]..start[r + 1]]`.
    pub start: Vec<usize>,
    /// Segments, rank-major: label and the global index one past the last op.
    segs: Vec<(Option<Label>, usize)>,
    /// Rank `r`'s segments are `segs[seg_start[r]..seg_start[r + 1]]`.
    seg_start: Vec<usize>,
    /// Slots each rank references (its largest slot index plus one).
    pub slots: Vec<usize>,
    /// FIFO counterpart of each send and receive ([`NONE`] when unmatched
    /// or not a message op).
    pub pair: Vec<usize>,
    /// `WaitAll` op `i` completes the requests posted by ops
    /// `waited[wait_off[i]..wait_off[i + 1]]` (duplicates and never-posted
    /// requests left out); empty for every other op.
    pub wait_off: Vec<usize>,
    pub waited: Vec<usize>,
    /// Matching and request-lifecycle findings, found while building.
    pub findings: Vec<Diagnostic>,
}

impl View {
    pub fn new(job: &Job) -> Self {
        let ranks = job.ranks();
        let mut ops = Vec::with_capacity(job.total_ops());
        let mut start = Vec::with_capacity(ranks + 1);
        let mut segs = Vec::new();
        let mut seg_start = Vec::with_capacity(ranks + 1);
        for r in 0..ranks {
            start.push(ops.len());
            seg_start.push(segs.len());
            for seg in job.program(r).segments {
                ops.extend(seg.ops);
                segs.push((seg.label, ops.len()));
            }
        }
        start.push(ops.len());
        seg_start.push(segs.len());
        let mut view = View {
            ops,
            start,
            segs,
            seg_start,
            slots: (0..ranks).map(|r| job.slots_needed(r)).collect(),
            pair: Vec::new(),
            wait_off: Vec::new(),
            waited: Vec::new(),
            findings: Vec::new(),
        };
        let mut findings = Vec::new();
        view.pair = channels::pair(&view, &mut findings);
        (view.wait_off, view.waited) = requests::table(&view, job, &mut findings);
        view.findings = findings;
        view
    }

    pub fn ranks(&self) -> usize {
        self.start.len() - 1
    }

    /// Global indices of rank `r`'s ops.
    pub fn range(&self, r: usize) -> Range<usize> {
        self.start[r]..self.start[r + 1]
    }

    /// Rank `r`'s flattened program.
    pub fn rank_ops(&self, r: usize) -> &[Op] {
        &self.ops[self.range(r)]
    }

    /// Rank `r`'s segments: label and global op range.
    pub fn rank_segs(&self, r: usize) -> impl Iterator<Item = (Option<Label>, Range<usize>)> + '_ {
        let mut begin = self.start[r];
        self.segs[self.seg_start[r]..self.seg_start[r + 1]].iter().map(move |&(label, end)| {
            let range = begin..end;
            begin = end;
            (label, range)
        })
    }

    /// The ops that posted the requests `WaitAll` op `i` completes.
    pub fn waited(&self, i: usize) -> &[usize] {
        &self.waited[self.wait_off[i]..self.wait_off[i + 1]]
    }

    /// The counterpart of op `i` of rank `r`, per-rank addressed.
    pub fn counterpart(&self, r: usize, i: usize) -> Option<Counterpart> {
        let j = self.start[r] + i;
        let c = self.pair[j];
        (c != NONE).then(|| {
            // A message op's counterpart lives on the op's peer rank.
            let rank = self.ops[j].comm_meta().expect("paired op is a message op").peer;
            Counterpart { rank, flat: c - self.start[rank] }
        })
    }

    /// The `(rank, segment, op)` coordinates of global op `i`.
    pub fn loc(&self, i: usize) -> OpLoc {
        let rank = self.start.partition_point(|&s| s <= i) - 1;
        let segs = &self.segs[self.seg_start[rank]..self.seg_start[rank + 1]];
        let seg = segs.partition_point(|&(_, end)| end <= i);
        let begin = if seg == 0 { self.start[rank] } else { segs[seg - 1].1 };
        OpLoc { rank, seg, op: i - begin }
    }
}

/// The slots `op` reads, in [`Op::slots_read`] order, without allocating.
pub(crate) fn slots_read(op: &Op) -> [Option<Slot>; 2] {
    match *op {
        Op::Send { slot, .. } | Op::Isend { slot, .. } | Op::DropBlocks { slot, .. } => {
            [Some(slot), None]
        }
        Op::ReduceLocal { from, into, .. }
        | Op::MergeMove { from, into }
        | Op::OverwriteMove { from, into } => [Some(from), Some(into)],
        Op::CopySlot { from, .. } => [Some(from), None],
        _ => [None, None],
    }
}

/// The slot `op` writes ([`Op::slots_written`] lists at most one).
pub(crate) fn slot_written(op: &Op) -> Option<Slot> {
    match *op {
        Op::Recv { slot, .. }
        | Op::Irecv { slot, .. }
        | Op::InitSlot { slot, .. }
        | Op::ClearSlot { slot }
        | Op::DropBlocks { slot, .. } => Some(slot),
        Op::ReduceLocal { into, .. }
        | Op::MergeMove { into, .. }
        | Op::OverwriteMove { into, .. }
        | Op::CopySlot { into, .. } => Some(into),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pap_sim::SlotInit;

    #[test]
    fn slot_access_matches_the_op_isa() {
        let ops = [
            Op::compute(1.0),
            Op::SleepUntil { time: 1.0 },
            Op::send(1, 0, 8, 2),
            Op::isend(1, 0, 8, 2, 0),
            Op::recv(1, 0, 3),
            Op::irecv(1, 0, 3, 0),
            Op::waitall(vec![0]),
            Op::ReduceLocal { from: 4, into: 5, bytes: 8 },
            Op::MergeMove { from: 4, into: 5 },
            Op::OverwriteMove { from: 4, into: 5 },
            Op::DropBlocks { slot: 6, filter: pap_sim::data::BlockFilter::All },
            Op::CopySlot { from: 4, into: 5 },
            Op::InitSlot { slot: 7, init: SlotInit::Empty },
            Op::ClearSlot { slot: 7 },
        ];
        for op in &ops {
            let reads: Vec<Slot> = slots_read(op).into_iter().flatten().collect();
            assert_eq!(reads, op.slots_read(), "{op:?}");
            assert_eq!(slot_written(op).into_iter().collect::<Vec<_>>(), op.slots_written(), "{op:?}");
        }
    }
}
