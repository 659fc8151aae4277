//! Compiled form of a [`Job`]: the engine's cache-dense op stream.
//!
//! [`crate::program::Op`] is a builder-friendly enum — per-op `Vec`s for
//! WaitAll request lists, inline [`BlockFilter`]s — and at 10K+ ranks the
//! engine pays for that comfort on every activation: each op is ~2 cache
//! lines, and every WaitAll chases a separate heap allocation
//! for its request list. [`CompiledJob`] flattens the whole job once per
//! job (lazily, cached) into arena/SoA form:
//!
//! * all ops of all ranks in **one contiguous array** of fixed-size
//!   [`COp`]s, rank-major in program order — a rank's execution walks a
//!   flat slice with one indexed load per op, across segment boundaries;
//! * WaitAll request lists flattened into one side array, referenced by
//!   `(off, len)` — the per-rank slices are read in program order, so they
//!   ride the same cache stream as the ops;
//! * block filters deduplicated into a small table (most sends transfer
//!   the whole slot and carry no filter at all); `InitSlot` carries its
//!   `Copy` [`SlotInit`] descriptor inline;
//! * per-rank request-arena sizes, counted in the same pass;
//! * segment boundaries and labels in a flat per-rank segment table, only
//!   touched when a segment completes.
//!
//! Blocking and non-blocking variants are merged (`req == CNIL` means
//! blocking), which also halves the dispatch fan-out of the hot loop.

use std::collections::HashMap;

use crate::data::{BlockFilter, SlotInit};
use crate::program::{Job, Label, Op};
use crate::time::SimTime;

/// Sentinel index ("none") for [`COp`] fields.
pub(crate) const CNIL: u32 = u32::MAX;

/// Compact fixed-size op. See the module docs; field meanings mirror
/// [`crate::program::Op`] with indices narrowed to `u32` and block filters
/// moved to a side table in [`CompiledJob`].
#[derive(Debug, Clone, Copy)]
pub(crate) enum COp {
    Compute { seconds: SimTime, noisy: bool },
    SleepUntil { time: SimTime },
    /// `req == CNIL`: blocking send. `filter == CNIL`: whole slot.
    Send { to: u32, slot: u32, tag: u64, bytes: u64, filter: u32, req: u32 },
    /// `req == CNIL`: blocking receive.
    Recv { from: u32, slot: u32, tag: u64, req: u32 },
    /// Requests `wait_reqs[off .. off + len]`.
    WaitAll { off: u32, len: u32 },
    ReduceLocal { from: u32, into: u32, bytes: u64 },
    MergeMove { from: u32, into: u32 },
    OverwriteMove { from: u32, into: u32 },
    DropBlocks { slot: u32, filter: u32 },
    CopySlot { from: u32, into: u32 },
    InitSlot { slot: u32, init: SlotInit },
    ClearSlot { slot: u32 },
}

/// One segment of one rank: `end` is the absolute index one past its last
/// op in [`CompiledJob::ops`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct CSeg {
    pub end: u32,
    kind: u32,
    seq: u32,
    labelled: bool,
}

impl CSeg {
    pub fn label(&self) -> Option<Label> {
        self.labelled.then_some(Label { kind: self.kind, seq: self.seq })
    }
}

/// The flattened job. Built once per [`Job`] (see [`Job::compiled`]) and
/// shared by every partition of every run.
#[derive(Debug, Clone, Default)]
pub(crate) struct CompiledJob {
    /// All ops, rank-major in program order.
    pub ops: Vec<COp>,
    /// Rank `r` owns ops `rank_ops[r] .. rank_ops[r + 1]` (len: ranks + 1).
    pub rank_ops: Vec<u32>,
    /// All segments, rank-major in program order.
    pub segs: Vec<CSeg>,
    /// Rank `r` owns segments `rank_segs[r] .. rank_segs[r + 1]`.
    pub rank_segs: Vec<u32>,
    /// Flattened WaitAll request lists (see [`COp::WaitAll`]).
    pub wait_reqs: Vec<u32>,
    /// Deduplicated non-trivial block filters.
    pub filters: Vec<BlockFilter>,
    /// Requests needed per rank (max referenced request + 1).
    pub req_counts: Vec<u32>,
}

/// Narrow a builder-side `usize` to the engine's `u32` indices. Saturates:
/// a saturated peer/slot/request index is out of range for any real job,
/// so the engine's existing validity checks still fire on it.
#[inline]
fn narrow(v: usize) -> u32 {
    u32::try_from(v).unwrap_or(u32::MAX)
}

impl CompiledJob {
    pub fn build(job: &Job) -> CompiledJob {
        let mut c = CompiledJob::default();
        c.rank_ops.reserve(job.programs.len() + 1);
        c.rank_segs.reserve(job.programs.len() + 1);
        c.req_counts.reserve(job.programs.len());
        c.ops.reserve(job.total_ops());
        let mut filter_ids: HashMap<BlockFilter, u32> = HashMap::new();
        let mut filter_id = |filters: &mut Vec<BlockFilter>, f: BlockFilter| -> u32 {
            if f == BlockFilter::All {
                return CNIL;
            }
            *filter_ids.entry(f).or_insert_with(|| {
                filters.push(f);
                (filters.len() - 1) as u32
            })
        };

        for prog in &job.programs {
            c.rank_ops.push(c.ops.len() as u32);
            c.rank_segs.push(c.segs.len() as u32);
            let mut max_req = None;
            for seg in &prog.segments {
                for op in &seg.ops {
                    max_req = max_req.max(op.max_req());
                    let req = match *op {
                        Op::Isend { req, .. } | Op::Irecv { req, .. } => narrow(req),
                        _ => CNIL,
                    };
                    let cop = match *op {
                        Op::Compute { seconds, noisy } => COp::Compute { seconds, noisy },
                        Op::SleepUntil { time } => COp::SleepUntil { time },
                        Op::Send { to, tag, bytes, slot, filter }
                        | Op::Isend { to, tag, bytes, slot, filter, .. } => COp::Send {
                            to: narrow(to),
                            slot: narrow(slot),
                            tag,
                            bytes,
                            filter: filter_id(&mut c.filters, filter),
                            req,
                        },
                        Op::Recv { from, tag, slot } | Op::Irecv { from, tag, slot, .. } => {
                            COp::Recv { from: narrow(from), slot: narrow(slot), tag, req }
                        }
                        Op::WaitAll { ref reqs } => {
                            let off = c.wait_reqs.len() as u32;
                            c.wait_reqs.extend(reqs.iter().map(|&r| narrow(r)));
                            COp::WaitAll { off, len: reqs.len() as u32 }
                        }
                        Op::ReduceLocal { from, into, bytes } => {
                            COp::ReduceLocal { from: narrow(from), into: narrow(into), bytes }
                        }
                        Op::MergeMove { from, into } => {
                            COp::MergeMove { from: narrow(from), into: narrow(into) }
                        }
                        Op::OverwriteMove { from, into } => {
                            COp::OverwriteMove { from: narrow(from), into: narrow(into) }
                        }
                        Op::DropBlocks { slot, filter } => COp::DropBlocks {
                            slot: narrow(slot),
                            filter: filter_id(&mut c.filters, filter),
                        },
                        Op::CopySlot { from, into } => {
                            COp::CopySlot { from: narrow(from), into: narrow(into) }
                        }
                        Op::InitSlot { slot, init } => COp::InitSlot { slot: narrow(slot), init },
                        Op::ClearSlot { slot } => COp::ClearSlot { slot: narrow(slot) },
                    };
                    c.ops.push(cop);
                }
                c.segs.push(CSeg {
                    end: c.ops.len() as u32,
                    kind: seg.label.map_or(0, |l| l.kind),
                    seq: seg.label.map_or(0, |l| l.seq),
                    labelled: seg.label.is_some(),
                });
            }
            c.req_counts.push(max_req.map_or(0, |m| m as u32 + 1));
        }
        c.rank_ops.push(c.ops.len() as u32);
        c.rank_segs.push(c.segs.len() as u32);
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::RankProgram;

    #[test]
    fn cop_is_one_cache_line_for_two_ops() {
        // The whole point of the compiled form: a fixed, small op size.
        assert!(std::mem::size_of::<COp>() <= 40, "COp grew: {}", std::mem::size_of::<COp>());
    }

    #[test]
    fn flattening_preserves_structure() {
        let mut p0 = RankProgram::new();
        p0.push_labeled(Label { kind: 3, seq: 1 }, vec![
            Op::irecv(1, 7, 0, 0),
            Op::isend(1, 7, 64, 1, 1),
            Op::waitall(vec![0, 1]),
        ]);
        p0.push_anon(vec![Op::compute(1.0)]);
        let p1 = RankProgram::from_ops(vec![Op::send_part(
            0,
            7,
            64,
            2,
            BlockFilter::SegRange(0, 4),
        )]);
        let job = Job::new(vec![p0, p1]);
        let c = job.compiled();

        assert_eq!(c.rank_ops, vec![0, 4, 5]);
        assert_eq!(c.rank_segs, vec![0, 2, 3]);
        assert_eq!(c.segs[0].end, 3);
        assert_eq!(c.segs[0].label(), Some(Label { kind: 3, seq: 1 }));
        assert_eq!(c.segs[1].end, 4);
        assert_eq!(c.segs[1].label(), None);
        assert_eq!(c.segs[2].end, 5);
        assert!(matches!(c.ops[0], COp::Recv { from: 1, slot: 0, tag: 7, req: 0 }));
        assert!(matches!(c.ops[2], COp::WaitAll { off: 0, len: 2 }));
        assert_eq!(c.wait_reqs, vec![0, 1]);
        // Request arenas are sized in the same pass, as `reqs_needed` would.
        assert_eq!(c.req_counts, vec![2, 0]);
        assert_eq!((job.reqs_needed(0), job.reqs_needed(1)), (2, 0));
        // Blocking send gets the CNIL request, its filter lands in the table.
        match c.ops[4] {
            COp::Send { to: 0, filter, req: CNIL, .. } => {
                assert_eq!(c.filters[filter as usize], BlockFilter::SegRange(0, 4));
            }
            ref other => panic!("expected compiled Send, got {other:?}"),
        }
        // Same value is returned on every call (cached).
        assert!(std::ptr::eq(job.compiled(), c));
    }

    #[test]
    fn filters_are_deduplicated() {
        let f = BlockFilter::SegRange(2, 9);
        let prog = RankProgram::from_ops(vec![
            Op::send_part(1, 0, 8, 0, f),
            Op::send_part(1, 1, 8, 0, f),
            Op::send_part(1, 2, 8, 0, BlockFilter::All),
        ]);
        let job = Job::new(vec![prog, RankProgram::new()]);
        let c = job.compiled();
        assert_eq!(c.filters, vec![f]);
        assert!(matches!(c.ops[2], COp::Send { filter: CNIL, .. }));
    }
}
