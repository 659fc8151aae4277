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
    pub(crate) rank: usize,
    /// Index of the counterpart in the peer's flattened program.
    pub(crate) flat: usize,
}

pub(crate) struct View {
    /// Every op, rank-major.
    pub(crate) ops: Vec<Op>,
    /// Rank `r` owns `ops[start[r]..start[r + 1]]`.
    pub(crate) start: Vec<usize>,
    /// Segments, rank-major: label and the global index one past the last op.
    segs: Vec<(Option<Label>, usize)>,
    /// Rank `r`'s segments are `segs[seg_start[r]..seg_start[r + 1]]`.
    seg_start: Vec<usize>,
    /// Slots each rank references (its largest slot index plus one).
    pub(crate) slots: Vec<usize>,
    /// FIFO counterpart of each send and receive ([`NONE`] when unmatched
    /// or not a message op).
    pub(crate) pair: Vec<usize>,
    /// `WaitAll` op `i` completes the requests posted by ops
    /// `waited[wait_off[i]..wait_off[i + 1]]` (duplicates and never-posted
    /// requests left out); empty for every other op.
    pub(crate) wait_off: Vec<usize>,
    pub(crate) waited: Vec<usize>,
    /// Matching and request-lifecycle findings, found while building.
    pub(crate) findings: Vec<Diagnostic>,
}

impl View {
    pub(crate) fn new(job: &Job) -> Self {
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
        view.pair = channels::pair(&view, job, &mut findings);
        (view.wait_off, view.waited) = requests::table(&view, job, &mut findings);
        view.findings = findings;
        view
    }

    pub(crate) fn ranks(&self) -> usize {
        self.start.len() - 1
    }

    /// Global indices of rank `r`'s ops.
    pub(crate) fn range(&self, r: usize) -> Range<usize> {
        self.start[r]..self.start[r + 1]
    }

    /// Rank `r`'s flattened program.
    pub(crate) fn rank_ops(&self, r: usize) -> &[Op] {
        &self.ops[self.range(r)]
    }

    /// Rank `r`'s segments: label and global op range.
    pub(crate) fn rank_segs(
        &self,
        r: usize,
    ) -> impl Iterator<Item = (Option<Label>, Range<usize>)> + '_ {
        let mut begin = self.start[r];
        self.segs[self.seg_start[r]..self.seg_start[r + 1]].iter().map(move |&(label, end)| {
            let range = begin..end;
            begin = end;
            (label, range)
        })
    }

    /// The ops that posted the requests `WaitAll` op `i` completes.
    pub(crate) fn waited(&self, i: usize) -> &[usize] {
        &self.waited[self.wait_off[i]..self.wait_off[i + 1]]
    }

    /// The counterpart of op `i` of rank `r`, per-rank addressed.
    pub(crate) fn counterpart(&self, r: usize, i: usize) -> Option<Counterpart> {
        let j = self.start[r] + i;
        let c = self.pair[j];
        (c != NONE).then(|| {
            // A message op's counterpart lives on the op's peer rank.
            let rank = self.ops[j].comm_meta().expect("paired op is a message op").peer;
            Counterpart { rank, flat: c - self.start[rank] }
        })
    }

    /// The `(rank, segment, op)` coordinates of global op `i`.
    pub(crate) fn loc(&self, i: usize) -> OpLoc {
        let rank = self.start.partition_point(|&s| s <= i) - 1;
        let segs = &self.segs[self.seg_start[rank]..self.seg_start[rank + 1]];
        let seg = segs.partition_point(|&(_, end)| end <= i);
        let begin = if seg == 0 { self.start[rank] } else { segs[seg - 1].1 };
        OpLoc { rank, seg, op: i - begin }
    }
}
