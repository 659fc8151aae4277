//! The static view of one job: what the passes derive from it once.
//!
//! A [`View`] borrows the [`Job`] and reads every op, rank range and
//! segment from the job's own op arena. What it adds is lint's: the FIFO
//! send↔receive pairing as one flat per-op index array, and the request
//! table naming, for every `WaitAll`, the ops that posted the requests it
//! completes. Building it reports the matching and request-lifecycle
//! findings; every other pass, the fixpoint and repair only read it. Ops
//! are addressed by their *global* index into the job (see
//! [`Job::rank_range`]); `OpLoc`s are derived on demand for diagnostics.
//! A job the arena cannot index ([`Job::invalid`]) gets no tables, only
//! one finding naming the reason.

use pap_sim::{Job, Op};

use crate::diag::{DiagClass, Diagnostic, OpLoc, Severity};
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

pub(crate) struct View<'j> {
    pub(crate) job: &'j Job,
    /// FIFO counterpart of each send and receive ([`NONE`] when unmatched
    /// or not a message op).
    pub(crate) pair: Vec<usize>,
    /// `WaitAll` op `i` completes the requests posted by ops
    /// `waited[wait_off[i]..wait_off[i + 1]]` (duplicates and never-posted
    /// requests left out); empty for every other op.
    pub(crate) wait_off: Vec<usize>,
    pub(crate) waited: Vec<usize>,
    /// Matching and request-lifecycle findings, found while building (or
    /// the one finding of an invalid job).
    pub(crate) findings: Vec<Diagnostic>,
}

impl<'j> View<'j> {
    pub(crate) fn new(job: &'j Job) -> Self {
        let mut view =
            View { job, pair: Vec::new(), wait_off: Vec::new(), waited: Vec::new(), findings: Vec::new() };
        if let Some(why) = job.invalid() {
            view.findings.push(Diagnostic {
                class: DiagClass::InvalidJob,
                severity: Severity::Error,
                loc: OpLoc { rank: 0, seg: 0, op: 0 },
                message: format!("the job cannot be indexed, so no check ran: {why}"),
                related: vec![],
            });
            return view;
        }
        let mut findings = Vec::new();
        view.pair = channels::pair(&view, &mut findings);
        (view.wait_off, view.waited) = requests::table(&view, &mut findings);
        view.findings = findings;
        view
    }

    /// Op `i` of rank `r`'s flattened program.
    pub(crate) fn rank_op(&self, r: usize, i: usize) -> Op {
        self.job.op(self.job.rank_range(r).start + i)
    }

    /// The ops that posted the requests `WaitAll` op `i` completes.
    pub(crate) fn waited(&self, i: usize) -> &[usize] {
        &self.waited[self.wait_off[i]..self.wait_off[i + 1]]
    }

    /// The counterpart of op `i` of rank `r`, per-rank addressed.
    pub(crate) fn counterpart(&self, r: usize, i: usize) -> Option<Counterpart> {
        let j = self.job.rank_range(r).start + i;
        let c = self.pair[j];
        (c != NONE).then(|| {
            // A message op's counterpart lives on the op's peer rank.
            let rank = self.job.op(j).comm_meta().expect("paired op is a message op").peer;
            Counterpart { rank, flat: c - self.job.rank_range(rank).start }
        })
    }

    /// The `(rank, segment, op)` coordinates of global op `i`, which rank
    /// `rank` owns.
    pub(crate) fn loc(&self, rank: usize, i: usize) -> OpLoc {
        let mut segs = self.job.segments(rank).map(|(_, range)| range).enumerate();
        let (seg, range) = segs.find(|(_, range)| range.contains(&i)).expect("rank `rank` owns op `i`");
        OpLoc { rank, seg, op: i - range.start }
    }
}
