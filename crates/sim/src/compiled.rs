//! [`Job`]: a schedule stored once, as the engine's cache-dense op arena.
//!
//! [`crate::program::Op`] is a builder-friendly enum — per-op `Vec`s for
//! WaitAll request lists, inline [`BlockFilter`]s — and at 10K+ ranks the
//! engine would pay for that comfort on every activation: each op is ~2
//! cache lines, and every WaitAll chases a separate heap allocation for its
//! request list. [`Job::new`] therefore flattens the builder programs once,
//! rank-major in program order, into one contiguous array of fixed-size
//! [`COp`]s plus flat side tables (segments and labels, WaitAll lists,
//! deduplicated filters, per-rank slot and request counts; see the [`Job`]
//! fields and DESIGN.md §12.1), and drops them. A rank's execution walks a
//! flat slice with one indexed load per op, across segment boundaries.
//! Blocking and non-blocking variants are merged (`req == CNIL` means
//! blocking), which also halves the dispatch fan-out of the hot loop.
//! [`Job::program`] decodes one rank back into the builder view for
//! readers that want `Op`s (`pap-lint`, tests).

use std::collections::HashMap;

use crate::data::{BlockFilter, SlotInit};
use crate::program::{Label, Op, RankProgram, Segment};
use crate::time::SimTime;

/// Sentinel index ("none") for [`COp`] fields.
pub(crate) const CNIL: u32 = u32::MAX;

/// Compact fixed-size op. See the module docs; field meanings mirror
/// [`crate::program::Op`] with indices narrowed to `u32` and block filters
/// moved to a side table in [`Job`].
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
/// op in [`Job::ops`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct CSeg {
    pub(crate) end: u32,
    pub(crate) label: Option<Label>,
}

/// A complete simulation job: one program per rank, stored once, as the
/// flat op arena every run of it reads. [`Job::new`] builds the arena and
/// drops the builder programs; the arena is immutable, so to change a
/// schedule, decode it with [`Job::program`], edit the programs and build
/// a new job.
#[derive(Debug, Clone)]
pub struct Job {
    /// All ops, rank-major in program order.
    pub(crate) ops: Vec<COp>,
    /// Rank `r` owns ops `rank_ops[r] .. rank_ops[r + 1]` (len: ranks + 1).
    pub(crate) rank_ops: Vec<u32>,
    /// All segments, rank-major in program order.
    pub(crate) segs: Vec<CSeg>,
    /// Rank `r` owns segments `rank_segs[r] .. rank_segs[r + 1]`.
    pub(crate) rank_segs: Vec<u32>,
    /// Flattened WaitAll request lists (see [`COp::WaitAll`]).
    pub(crate) wait_reqs: Vec<u32>,
    /// Deduplicated non-trivial block filters.
    filters: Vec<BlockFilter>,
    /// Requests needed per rank (max referenced request + 1).
    pub(crate) req_counts: Vec<u32>,
    /// Slots needed per rank (max referenced slot + 1).
    slot_counts: Vec<u32>,
    /// Why the arena cannot index this job (an index at or past [`CNIL`],
    /// or counts summing past `u32`); `run_ref` rejects it with this.
    pub(crate) invalid: Option<String>,
}

/// Narrow an `Op`-side `usize` to the engine's `u32` indices. An index
/// that does not fit below the [`CNIL`] sentinel reads back as `CNIL` and
/// is kept in `bad` (the first one wins), so [`Job::new`] can flag the job.
#[inline]
fn narrow(v: usize, bad: &mut Option<usize>) -> u32 {
    if v >= CNIL as usize {
        bad.get_or_insert(v);
    }
    v.min(CNIL as usize) as u32
}

impl Job {
    /// Build a job from per-rank programs: flatten them into the op arena
    /// in one pass and drop them.
    pub fn new(programs: Vec<RankProgram>) -> Job {
        let ranks = programs.len();
        let mut job = Job {
            ops: Vec::with_capacity(programs.iter().map(RankProgram::op_count).sum()),
            rank_ops: Vec::with_capacity(ranks + 1),
            segs: Vec::with_capacity(programs.iter().map(|p| p.segments.len()).sum()),
            rank_segs: Vec::with_capacity(ranks + 1),
            wait_reqs: Vec::new(),
            filters: Vec::new(),
            req_counts: Vec::with_capacity(ranks),
            slot_counts: Vec::with_capacity(ranks),
            invalid: None,
        };
        let mut filter_ids = HashMap::new();
        // Borrowed, then dropped whole on return: freeing each rank's ops
        // as soon as it was flattened made perfbench's engine set-up ~7%
        // slower than one pass of frees at the end (2-vCPU AMD EPYC host).
        for (rank, prog) in programs.iter().enumerate() {
            job.rank_ops.push(job.ops.len() as u32);
            job.rank_segs.push(job.segs.len() as u32);
            let (mut nslots, mut nreqs) = (0, 0);
            for seg in &prog.segments {
                for op in &seg.ops {
                    let mut bad = None;
                    let cop = job.encode(op, &mut filter_ids, &mut bad);
                    if let (Some(index), None) = (bad, &job.invalid) {
                        let at = job.ops.len() - job.rank_ops[rank] as usize;
                        job.invalid = Some(format!("rank {rank} op {at} ({op:?}): index {index} does not fit in u32"));
                    }
                    nslots = nslots.max(op.max_slot().map_or(0, |m| narrow(m, &mut bad).saturating_add(1)));
                    nreqs = nreqs.max(op.max_req().map_or(0, |m| narrow(m, &mut bad).saturating_add(1)));
                    job.ops.push(cop);
                }
                job.segs.push(CSeg { end: job.ops.len() as u32, label: seg.label });
            }
            job.slot_counts.push(nslots);
            job.req_counts.push(nreqs);
        }
        job.rank_ops.push(job.ops.len() as u32);
        job.rank_segs.push(job.segs.len() as u32);
        let sum = |c: &[u32]| c.iter().map(|&n| u64::from(n)).sum::<u64>();
        let (reqs, slots) = (sum(&job.req_counts), sum(&job.slot_counts));
        if job.invalid.is_none() && reqs.max(slots) > u64::from(u32::MAX) {
            job.invalid = Some(format!("{reqs} requests and {slots} slots over all ranks overflow u32"));
        }
        job
    }

    /// The arena form of one builder op (part of [`Job::new`]): WaitAll
    /// lists and non-trivial filters go to the side tables.
    fn encode(&mut self, op: &Op, filter_ids: &mut HashMap<BlockFilter, u32>, bad: &mut Option<usize>) -> COp {
        let mut narrow = |v| narrow(v, bad);
        let mut filter = |f: BlockFilter| match f {
            BlockFilter::All => CNIL,
            f => *filter_ids.entry(f).or_insert_with(|| {
                self.filters.push(f);
                (self.filters.len() - 1) as u32
            }),
        };
        let req = match *op {
            Op::Isend { req, .. } | Op::Irecv { req, .. } => narrow(req),
            _ => CNIL,
        };
        match *op {
            Op::Compute { seconds, noisy } => COp::Compute { seconds, noisy },
            Op::SleepUntil { time } => COp::SleepUntil { time },
            Op::Send { to, tag, bytes, slot, filter: f }
            | Op::Isend { to, tag, bytes, slot, filter: f, .. } => {
                COp::Send { to: narrow(to), slot: narrow(slot), tag, bytes, filter: filter(f), req }
            }
            Op::Recv { from, tag, slot } | Op::Irecv { from, tag, slot, .. } => {
                COp::Recv { from: narrow(from), slot: narrow(slot), tag, req }
            }
            Op::WaitAll { ref reqs } => {
                let off = self.wait_reqs.len() as u32;
                self.wait_reqs.extend(reqs.iter().map(|&r| narrow(r)));
                COp::WaitAll { off, len: reqs.len() as u32 }
            }
            Op::ReduceLocal { from, into, bytes } => {
                COp::ReduceLocal { from: narrow(from), into: narrow(into), bytes }
            }
            Op::MergeMove { from, into } => COp::MergeMove { from: narrow(from), into: narrow(into) },
            Op::OverwriteMove { from, into } => COp::OverwriteMove { from: narrow(from), into: narrow(into) },
            Op::DropBlocks { slot, filter: f } => COp::DropBlocks { slot: narrow(slot), filter: filter(f) },
            Op::CopySlot { from, into } => COp::CopySlot { from: narrow(from), into: narrow(into) },
            Op::InitSlot { slot, init } => COp::InitSlot { slot: narrow(slot), init },
            Op::ClearSlot { slot } => COp::ClearSlot { slot: narrow(slot) },
        }
    }

    /// Number of ranks.
    pub fn ranks(&self) -> usize {
        self.rank_ops.len() - 1
    }

    /// Slots needed per rank (max referenced slot + 1).
    pub fn slots_needed(&self, rank: usize) -> usize {
        self.slot_counts[rank] as usize
    }

    /// Requests needed per rank (max referenced request + 1).
    pub fn reqs_needed(&self, rank: usize) -> usize {
        self.req_counts[rank] as usize
    }

    /// Total op count (sizing diagnostics).
    pub fn total_ops(&self) -> usize {
        self.ops.len()
    }

    /// The builder view of rank `rank`'s program, decoded from the arena:
    /// the same segments, labels and ops it was built from (indices past
    /// `u32::MAX` read back saturated). Allocates; the engine never calls it.
    pub fn program(&self, rank: usize) -> RankProgram {
        let segs = &self.segs[self.rank_segs[rank] as usize..self.rank_segs[rank + 1] as usize];
        let mut start = self.rank_ops[rank] as usize;
        let segments = segs.iter().map(|seg| {
            let ops = self.ops[start..seg.end as usize].iter().map(|op| self.decode(op)).collect();
            start = seg.end as usize;
            Segment { label: seg.label, ops }
        });
        RankProgram { segments: segments.collect() }
    }

    /// The builder form of one arena op (part of [`Job::program`]).
    pub(crate) fn decode(&self, op: &COp) -> Op {
        let w = |v: u32| v as usize;
        match *op {
            COp::Compute { seconds, noisy } => Op::Compute { seconds, noisy },
            COp::SleepUntil { time } => Op::SleepUntil { time },
            COp::Send { to, slot, tag, bytes, filter, req } => {
                let (to, slot, filter) = (w(to), w(slot), self.filter(filter));
                match req {
                    CNIL => Op::Send { to, tag, bytes, slot, filter },
                    req => Op::Isend { to, tag, bytes, slot, filter, req: w(req) },
                }
            }
            COp::Recv { from, slot, tag, req } => match req {
                CNIL => Op::Recv { from: w(from), tag, slot: w(slot) },
                req => Op::Irecv { from: w(from), tag, slot: w(slot), req: w(req) },
            },
            COp::WaitAll { off, len } => Op::WaitAll {
                reqs: self.wait_reqs[off as usize..(off + len) as usize].iter().map(|&r| w(r)).collect(),
            },
            COp::ReduceLocal { from, into, bytes } => Op::ReduceLocal { from: w(from), into: w(into), bytes },
            COp::MergeMove { from, into } => Op::MergeMove { from: w(from), into: w(into) },
            COp::OverwriteMove { from, into } => Op::OverwriteMove { from: w(from), into: w(into) },
            COp::DropBlocks { slot, filter } => Op::DropBlocks { slot: w(slot), filter: self.filter(filter) },
            COp::CopySlot { from, into } => Op::CopySlot { from: w(from), into: w(into) },
            COp::InitSlot { slot, init } => Op::InitSlot { slot: w(slot), init },
            COp::ClearSlot { slot } => Op::ClearSlot { slot: w(slot) },
        }
    }

    /// Resolve an arena filter index (`CNIL` = whole slot).
    #[inline]
    pub(crate) fn filter(&self, f: u32) -> BlockFilter {
        if f == CNIL {
            BlockFilter::All
        } else {
            self.filters[f as usize]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cop_is_one_cache_line_for_two_ops() {
        // The whole point of the compiled form: a fixed, small op size.
        assert!(std::mem::size_of::<COp>() <= 40, "COp grew: {}", std::mem::size_of::<COp>());
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
        assert_eq!(job.filters, vec![f]);
        assert!(matches!(job.ops[2], COp::Send { filter: CNIL, .. }));
    }
}
