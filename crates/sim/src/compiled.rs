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
//!
//! Message matching is a static function of the programs too: by MPI's
//! non-overtaking rule the k-th send on a `(src, dst, tag)` channel pairs
//! with the k-th receive posted on it, whatever the timing. [`Job::new`]
//! pairs every send and receive once, with a per-sender merge-join of
//! channel ends, and writes a dense pair id into each matched
//! [`COp::Send`]/[`COp::Recv`] (`CNIL` for an unmatched, self-addressed or
//! out-of-range end). The engine matches by pair id; [`Job::channels`]
//! hands the same walk's channels to `pap-lint`.

use std::collections::HashMap;

use crate::data::{BlockFilter, SlotInit};
use crate::program::{Label, Op, RankProgram, Segment, Tag};
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
    /// `pair`: the FIFO pair id shared with the matching receive (`CNIL`:
    /// none matches).
    Send { to: u32, slot: u32, tag: u64, bytes: u64, filter: u32, req: u32, pair: u32 },
    /// `req == CNIL`: blocking receive. `pair` as for `Send`.
    Recv { from: u32, slot: u32, tag: u64, req: u32, pair: u32 },
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
    /// Matched send/receive pairs; pair ids are `0 .. pairs`.
    pub(crate) pairs: u32,
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
    /// in one pass, drop them, and pair the job's messages.
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
            pairs: 0,
            invalid: None,
        };
        let mut filter_ids = HashMap::new();
        // Borrowed, then dropped whole before pairing: freeing each rank's ops
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
        // Pairing runs without the builder ops, so the walk's buffers
        // never coexist with them.
        drop(programs);
        let mut walk = Walk::new(&job);
        for src in 0..ranks {
            for c in walk.sender(&job, src) {
                for (&s, &r) in c.sends.iter().zip(c.recvs) {
                    for i in [s, r] {
                        if let COp::Send { pair, .. } | COp::Recv { pair, .. } = &mut job.ops[i] {
                            *pair = job.pairs;
                        }
                    }
                    job.pairs += 1;
                }
            }
        }
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
                COp::Send { to: narrow(to), slot: narrow(slot), tag, bytes, filter: filter(f), req, pair: CNIL }
            }
            Op::Recv { from, tag, slot } | Op::Irecv { from, tag, slot, .. } => {
                COp::Recv { from: narrow(from), slot: narrow(slot), tag, req, pair: CNIL }
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
            COp::Send { to, slot, tag, bytes, filter, req, .. } => {
                let (to, slot, filter) = (w(to), w(slot), self.filter(filter));
                match req {
                    CNIL => Op::Send { to, tag, bytes, slot, filter },
                    req => Op::Isend { to, tag, bytes, slot, filter, req: w(req) },
                }
            }
            COp::Recv { from, slot, tag, req, .. } => match req {
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

    /// Every `(src, dst, tag)` channel with at least one valid end, sender
    /// by sender and, per sender, in `(dst, tag)` order: the walk that
    /// numbered the job's pairs.
    pub fn channels(&self, mut f: impl FnMut(Channel<'_>)) {
        let mut walk = Walk::new(self);
        for src in 0..self.ranks() {
            walk.sender(self, src).for_each(&mut f);
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

/// One `(src, dst, tag)` channel of a [`Job`]: its sends and its
/// receives, as indices into the job's ops (rank-major, each rank's
/// segments concatenated) in program order. The FIFO rule pairs
/// `sends[k]` with `recvs[k]`; the longer list's tail matches nothing.
#[derive(Debug, Clone, Copy)]
pub struct Channel<'a> {
    /// Sending rank.
    pub src: usize,
    /// Receiving rank.
    pub dst: usize,
    /// The channel's tag.
    pub tag: Tag,
    /// The channel's sends.
    pub sends: &'a [usize],
    /// The channel's receives.
    pub recvs: &'a [usize],
}

/// A sender's end of a channel: `(peer, tag, op index)`. Sorted, one
/// sender's ends group by channel, each group in program order.
type End = (u32, Tag, u32);

/// The per-sender merge-join behind [`Job::new`]'s pairing and
/// [`Job::channels`]. Only the receive index spans the job (8 bytes per
/// receive, 20 while it is built); the sort buffers hold one sender's ends
/// at a time.
struct Walk {
    /// Valid receives as `(receiving rank, op index)`, grouped by the rank
    /// they name: those naming rank `s` are
    /// `recv_of[recv_off[s] .. recv_off[s + 1]]`.
    recv_off: Vec<u32>,
    recv_of: Vec<(u32, u32)>,
    sends: Vec<End>,
    recvs: Vec<End>,
    /// The op column of `sends` and `recvs`, as handed out in [`Channel`]s.
    send_ops: Vec<usize>,
    recv_ops: Vec<usize>,
}

impl Walk {
    fn new(job: &Job) -> Walk {
        let ranks = job.ranks();
        // Counting sort of the valid receives by the rank they name.
        let mut recv_off = vec![0; ranks + 1];
        let mut named = Vec::new();
        for dst in 0..ranks {
            for i in job.rank_ops[dst]..job.rank_ops[dst + 1] {
                if let COp::Recv { from, .. } = job.ops[i as usize] {
                    if (from as usize) < ranks && from as usize != dst {
                        recv_off[from as usize + 1] += 1;
                        named.push((from, dst as u32, i));
                    }
                }
            }
        }
        for s in 0..ranks {
            recv_off[s + 1] += recv_off[s];
        }
        let mut fill = recv_off.clone();
        let mut recv_of = vec![(0, 0); named.len()];
        for (src, dst, i) in named {
            recv_of[fill[src as usize] as usize] = (dst, i);
            fill[src as usize] += 1;
        }
        Walk { recv_off, recv_of, sends: Vec::new(), recvs: Vec::new(), send_ops: Vec::new(), recv_ops: Vec::new() }
    }

    /// Rank `src`'s channels in `(dst, tag)` order.
    fn sender<'w>(&'w mut self, job: &Job, src: usize) -> impl Iterator<Item = Channel<'w>> + 'w {
        let ranks = job.ranks();
        self.sends.clear();
        self.sends.extend((job.rank_ops[src]..job.rank_ops[src + 1]).filter_map(|i| match job.ops[i as usize] {
            COp::Send { to, tag, .. } if (to as usize) < ranks && to as usize != src => Some((to, tag, i)),
            _ => None,
        }));
        self.recvs.clear();
        self.recvs.extend(self.recv_of[self.recv_off[src] as usize..self.recv_off[src + 1] as usize].iter().map(|&(dst, i)| {
            let COp::Recv { tag, .. } = job.ops[i as usize] else { unreachable!("indexed op {i} is a receive") };
            (dst, tag, i)
        }));
        for (ends, ops) in [(&mut self.sends, &mut self.send_ops), (&mut self.recvs, &mut self.recv_ops)] {
            ends.sort_unstable();
            ops.clear();
            ops.extend(ends.iter().map(|&(_, _, i)| i as usize));
        }
        let (sends, recvs) = (&self.sends[..], &self.recvs[..]);
        let (send_ops, recv_ops) = (&self.send_ops[..], &self.recv_ops[..]);
        let (mut s, mut r) = (0, 0);
        std::iter::from_fn(move || {
            let &(dst, tag, _) = [sends.get(s), recvs.get(r)].into_iter().flatten().min()?;
            let on = |ends: &[End], at: usize| at + ends[at..].iter().take_while(|e| (e.0, e.1) == (dst, tag)).count();
            let (s_end, r_end) = (on(sends, s), on(recvs, r));
            let c = Channel {
                src,
                dst: dst as usize,
                tag,
                sends: &send_ops[s..s_end],
                recvs: &recv_ops[r..r_end],
            };
            (s, r) = (s_end, r_end);
            Some(c)
        })
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
    fn pairing_follows_fifo_channels() {
        let job = Job::new(vec![
            RankProgram::from_ops(vec![
                Op::send(1, 1, 8, 0), // 0
                Op::send(1, 2, 8, 0), // 1
                Op::send(1, 1, 8, 0), // 2
                Op::send(1, 2, 8, 0), // 3
                Op::send(1, 3, 8, 0), // 4: no receive on tag 3
                Op::send(0, 1, 8, 0), // 5: self-send
                Op::send(9, 1, 8, 0), // 6: out of range
            ]),
            RankProgram::from_ops(vec![
                Op::recv(0, 2, 0), // 7
                Op::recv(0, 1, 0), // 8
                Op::recv(0, 1, 0), // 9
                Op::recv(0, 2, 0), // 10
                Op::recv(2, 1, 0), // 11: a second channel into rank 1
                Op::recv(2, 1, 0), // 12: rank 2 sends only once
            ]),
            RankProgram::from_ops(vec![Op::send(1, 1, 8, 0)]), // 13
            RankProgram::from_ops(vec![Op::recv(3, 0, 0), Op::recv(7, 0, 0)]), // 14, 15
        ]);
        let ids: Vec<u32> = job
            .ops
            .iter()
            .map(|op| match *op {
                COp::Send { pair, .. } | COp::Recv { pair, .. } => pair,
                _ => unreachable!("only messages here"),
            })
            .collect();
        for (s, r) in [(0, 8), (2, 9), (1, 7), (3, 10), (13, 11)] {
            assert_ne!(ids[s], CNIL, "op {s} is matched");
            assert_eq!(ids[s], ids[r], "op {s} pairs with op {r}");
        }
        for i in [4, 5, 6, 12, 14, 15] {
            assert_eq!(ids[i], CNIL, "op {i} matches nothing");
        }
        let mut matched: Vec<u32> = ids.into_iter().filter(|&p| p != CNIL).collect();
        matched.sort_unstable();
        assert_eq!(job.pairs, 5);
        assert_eq!(matched, (0..5).flat_map(|p| [p, p]).collect::<Vec<_>>(), "dense ids, one per pair");

        let mut chans = Vec::new();
        job.channels(|c| chans.push((c.src, c.dst, c.tag, c.sends.to_vec(), c.recvs.to_vec())));
        assert_eq!(
            chans,
            vec![
                (0, 1, 1, vec![0, 2], vec![8, 9]),
                (0, 1, 2, vec![1, 3], vec![7, 10]),
                (0, 1, 3, vec![4], vec![]),
                (2, 1, 1, vec![13], vec![11, 12]),
            ]
        );
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
