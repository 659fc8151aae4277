//! [`Job`]: a schedule stored once, as the engine's cache-dense op arena.
//!
//! [`crate::program::Op`] is a builder-friendly enum — per-op `Vec`s for
//! WaitAll request lists, inline [`BlockFilter`]s — and at 10K+ ranks the
//! engine would pay for that comfort on every activation: each op is ~2
//! cache lines, and every WaitAll chases a separate heap allocation for its
//! request list. [`Job::new`] therefore flattens the builder programs once,
//! rank-major in program order, into one contiguous array of 24-byte
//! [`COp`]s plus flat side tables (segments and labels, WaitAll lists,
//! interned message descriptors, per-rank slot and request counts; see the
//! [`Job`] fields and DESIGN.md §12.1), and drops them. A rank's execution
//! walks a flat slice with one indexed load per op, across segment
//! boundaries. Blocking and non-blocking variants are merged (`req == CNIL`
//! means blocking), which also halves the dispatch fan-out of the hot loop.
//! [`Job::program`] decodes one rank back into the builder view for
//! readers that want `Op`s (`pap-lint`, tests).
//!
//! What a message op moves — its bytes, tag and block filter — repeats
//! across ranks: a collective uses a handful of sizes, tags and filters,
//! whatever its rank count. So a message op holds only a `u32` index into
//! the job's table of [`MsgDesc`]s, each interned once, and the `COp`
//! keeps its ranks, slot, request and pair inline.
//!
//! Message matching is a static function of the programs too: by MPI's
//! non-overtaking rule the k-th send on a `(src, dst, tag)` channel pairs
//! with the k-th receive posted on it, whatever the timing. [`Job::new`]
//! pairs every send and receive once, with a per-sender merge-join of
//! channel ends, and writes a dense pair id into each matched
//! [`COp::Send`]/[`COp::Recv`] (`CNIL` for an unmatched, self-addressed or
//! out-of-range end). The engine matches by pair id; [`Job::channels`]
//! hands the same walk's channels to `pap-lint`.

use std::hash::{Hash, Hasher};

use crate::data::{BlockFilter, SlotInit};
use crate::program::{Label, Op, RankProgram, Segment, Tag};
use crate::time::SimTime;

/// Sentinel index ("none") for [`COp`] fields.
pub(crate) const CNIL: u32 = u32::MAX;

/// Compact fixed-size op. See the module docs; field meanings mirror
/// [`crate::program::Op`] with indices narrowed to `u32` and what a
/// message moves interned in [`Job`]'s descriptor table (`desc`).
#[derive(Debug, Clone, Copy)]
pub(crate) enum COp {
    Compute { seconds: SimTime, noisy: bool },
    SleepUntil { time: SimTime },
    /// `req == CNIL`: blocking send. `desc`: its bytes, tag and filter.
    /// `pair`: the FIFO pair id shared with the matching receive (`CNIL`:
    /// none matches).
    Send { to: u32, slot: u32, desc: u32, req: u32, pair: u32 },
    /// `req == CNIL`: blocking receive. `desc`: its tag (bytes 0, whole
    /// slot). `pair` as for `Send`.
    Recv { from: u32, slot: u32, desc: u32, req: u32, pair: u32 },
    /// Requests `wait_reqs[off .. off + len]`.
    WaitAll { off: u32, len: u32 },
    ReduceLocal { from: u32, into: u32, bytes: u64 },
    MergeMove { from: u32, into: u32 },
    OverwriteMove { from: u32, into: u32 },
    /// `desc`: its filter (bytes and tag 0).
    DropBlocks { slot: u32, desc: u32 },
    CopySlot { from: u32, into: u32 },
    InitSlot { slot: u32, init: SlotInit },
    ClearSlot { slot: u32 },
}

/// What a message op moves, interned once per job: a send's bytes, tag
/// and filter; a receive's tag; a `DropBlocks` filter. Fields a kind does
/// not use are 0 and [`BlockFilter::All`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct MsgDesc {
    pub(crate) bytes: u64,
    pub(crate) tag: Tag,
    pub(crate) filter: BlockFilter,
}

/// The interner's hasher: FxHash's multiply-rotate fold over the
/// descriptor's fields, whose top bits are the best mixed. Deterministic,
/// and it makes the lookup that every message op of a 10K-rank job pays
/// far cheaper than SipHash.
#[derive(Default)]
struct MulHasher(u64);

impl Hasher for MulHasher {
    /// One multiply-rotate step per 8 bytes; every field of a descriptor
    /// arrives as one call of at most 8 bytes.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.0 = (self.0.rotate_left(5) ^ u64::from_le_bytes(word)).wrapping_mul(0xf135_7aea_2e62_a9c5);
        }
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

/// [`Job::new`]'s descriptor → id map: an open-addressing table of ids
/// into the job's descriptor list (`CNIL`: empty), probed linearly and
/// kept at most half full. 4 bytes per slot: a pairwise alltoall at 1024
/// ranks interns a million descriptors, and a map holding a copy of each
/// would cost more than the bytes the 24-byte op saves.
struct Interner {
    slots: Vec<u32>,
    /// `64 - log2(slots.len())`: a hash's top bits pick its home slot.
    shift: u32,
}

impl Interner {
    fn new() -> Interner {
        Interner { slots: vec![CNIL; 64], shift: 64 - 6 }
    }

    fn home(&self, d: &MsgDesc) -> usize {
        let mut h = MulHasher::default();
        d.hash(&mut h);
        (h.finish() >> self.shift) as usize
    }

    /// The id of `d` in `descs`, appending it if new.
    fn intern(&mut self, descs: &mut Vec<MsgDesc>, d: MsgDesc) -> u32 {
        if 2 * (descs.len() + 1) > self.slots.len() {
            self.slots = vec![CNIL; 2 * self.slots.len()];
            self.shift -= 1;
            for (id, old) in descs.iter().enumerate() {
                let i = self.probe(descs, old);
                self.slots[i] = id as u32;
            }
        }
        let i = self.probe(descs, &d);
        if self.slots[i] == CNIL {
            self.slots[i] = descs.len() as u32;
            descs.push(d);
        }
        self.slots[i]
    }

    /// The slot holding `d`, or the empty slot where it belongs.
    fn probe(&self, descs: &[MsgDesc], d: &MsgDesc) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = self.home(d);
        while self.slots[i] != CNIL && descs[self.slots[i] as usize] != *d {
            i = (i + 1) & mask;
        }
        i
    }
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
    /// Interned message descriptors, in first-use order (the `desc` of
    /// [`COp::Send`], [`COp::Recv`] and [`COp::DropBlocks`]).
    pub(crate) descs: Vec<MsgDesc>,
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
            descs: Vec::new(),
            req_counts: Vec::with_capacity(ranks),
            slot_counts: Vec::with_capacity(ranks),
            pairs: 0,
            invalid: None,
        };
        let mut interner = Interner::new();
        // At `s + 1`: how many receives name rank `s`, counted here so the
        // pairing walk reads the arena once.
        let mut named = vec![0; ranks + 1];
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
                    let cop = job.encode(op, &mut interner, &mut bad);
                    if let (Some(index), None) = (bad, &job.invalid) {
                        let at = job.ops.len() - job.rank_ops[rank] as usize;
                        job.invalid = Some(format!("rank {rank} op {at} ({op:?}): index {index} does not fit in u32"));
                    }
                    nslots = nslots.max(op.max_slot().map_or(0, |m| narrow(m, &mut bad).saturating_add(1)));
                    nreqs = nreqs.max(op.max_req().map_or(0, |m| narrow(m, &mut bad).saturating_add(1)));
                    if let Some((from, _)) = valid_recv(&cop, rank, ranks) {
                        named[from as usize + 1] += 1;
                    }
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
        drop((programs, interner));
        let mut walk = Walk::new(&job, named);
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
    /// lists go to their side table and message descriptors are interned.
    fn encode(&mut self, op: &Op, interner: &mut Interner, bad: &mut Option<usize>) -> COp {
        let mut narrow = |v| narrow(v, bad);
        let mut desc = |bytes, tag, filter| interner.intern(&mut self.descs, MsgDesc { bytes, tag, filter });
        let req = match *op {
            Op::Isend { req, .. } | Op::Irecv { req, .. } => narrow(req),
            _ => CNIL,
        };
        match *op {
            Op::Compute { seconds, noisy } => COp::Compute { seconds, noisy },
            Op::SleepUntil { time } => COp::SleepUntil { time },
            Op::Send { to, tag, bytes, slot, filter } | Op::Isend { to, tag, bytes, slot, filter, .. } => {
                COp::Send { to: narrow(to), slot: narrow(slot), desc: desc(bytes, tag, filter), req, pair: CNIL }
            }
            Op::Recv { from, tag, slot } | Op::Irecv { from, tag, slot, .. } => {
                COp::Recv { from: narrow(from), slot: narrow(slot), desc: desc(0, tag, BlockFilter::All), req, pair: CNIL }
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
            Op::DropBlocks { slot, filter } => COp::DropBlocks { slot: narrow(slot), desc: desc(0, 0, filter) },
            Op::CopySlot { from, into } => COp::CopySlot { from: narrow(from), into: narrow(into) },
            Op::InitSlot { slot, init } => COp::InitSlot { slot: narrow(slot), init },
            Op::ClearSlot { slot } => COp::ClearSlot { slot: narrow(slot) },
        }
    }

    /// Rank `rank`'s ops with their indices in the arena.
    pub(crate) fn ops_of(&self, rank: usize) -> impl Iterator<Item = (u32, &COp)> {
        let (lo, hi) = (self.rank_ops[rank], self.rank_ops[rank + 1]);
        (lo..hi).zip(&self.ops[lo as usize..hi as usize])
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

    /// Distinct message descriptors (bytes, tag, block filter) the job's
    /// sends, receives and `DropBlocks` share (sizing diagnostics).
    pub fn total_descs(&self) -> usize {
        self.descs.len()
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
            COp::Send { to, slot, desc, req, .. } => {
                let MsgDesc { bytes, tag, filter } = self.descs[desc as usize];
                let (to, slot) = (w(to), w(slot));
                match req {
                    CNIL => Op::Send { to, tag, bytes, slot, filter },
                    req => Op::Isend { to, tag, bytes, slot, filter, req: w(req) },
                }
            }
            COp::Recv { from, slot, desc, req, .. } => {
                let tag = self.descs[desc as usize].tag;
                match req {
                    CNIL => Op::Recv { from: w(from), tag, slot: w(slot) },
                    req => Op::Irecv { from: w(from), tag, slot: w(slot), req: w(req) },
                }
            }
            COp::WaitAll { off, len } => Op::WaitAll {
                reqs: self.wait_reqs[off as usize..(off + len) as usize].iter().map(|&r| w(r)).collect(),
            },
            COp::ReduceLocal { from, into, bytes } => Op::ReduceLocal { from: w(from), into: w(into), bytes },
            COp::MergeMove { from, into } => Op::MergeMove { from: w(from), into: w(into) },
            COp::OverwriteMove { from, into } => Op::OverwriteMove { from: w(from), into: w(into) },
            COp::DropBlocks { slot, desc } => Op::DropBlocks { slot: w(slot), filter: self.descs[desc as usize].filter },
            COp::CopySlot { from, into } => Op::CopySlot { from: w(from), into: w(into) },
            COp::InitSlot { slot, init } => Op::InitSlot { slot: w(slot), init },
            COp::ClearSlot { slot } => Op::ClearSlot { slot: w(slot) },
        }
    }

    /// Every `(src, dst, tag)` channel with at least one valid end, sender
    /// by sender and, per sender, in `(dst, tag)` order: the walk that
    /// numbered the job's pairs.
    pub fn channels(&self, mut f: impl FnMut(Channel<'_>)) {
        let mut named = vec![0; self.ranks() + 1];
        for dst in 0..self.ranks() {
            for (_, op) in self.ops_of(dst) {
                if let Some((from, _)) = valid_recv(op, dst, self.ranks()) {
                    named[from as usize + 1] += 1;
                }
            }
        }
        let mut walk = Walk::new(self, named);
        for src in 0..self.ranks() {
            walk.sender(self, src).for_each(&mut f);
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

/// The named rank and descriptor of a receive on rank `dst` that names
/// another rank of the job; `None` for any other op.
#[inline]
fn valid_recv(op: &COp, dst: usize, ranks: usize) -> Option<(u32, u32)> {
    match *op {
        COp::Recv { from, desc, .. } if (from as usize) < ranks && from as usize != dst => Some((from, desc)),
        _ => None,
    }
}

/// A sender's end of a channel: `(peer, tag, op index)`. Sorted, one
/// sender's ends group by channel, each group in program order.
type End = (u32, Tag, u32);

/// The per-sender merge-join behind [`Job::new`]'s pairing and
/// [`Job::channels`]. Only the receive index spans the job (12 bytes per
/// receive); the sort buffers hold one sender's ends at a time.
struct Walk {
    /// Valid receives as `(receiving rank, op index, descriptor)`, grouped
    /// by the rank they name: those naming rank `s` are
    /// `recv_of[recv_off[s] .. recv_off[s + 1]]`. The descriptor gives a
    /// sender its receives' tags without reading the receivers' ops.
    recv_off: Vec<u32>,
    recv_of: Vec<(u32, u32, u32)>,
    sends: Vec<End>,
    recvs: Vec<End>,
    /// The op column of `sends` and `recvs`, as handed out in [`Channel`]s.
    send_ops: Vec<usize>,
    recv_ops: Vec<usize>,
}

impl Walk {
    /// Index the job's receives by the rank they name, a counting sort
    /// whose counts come in `named` (at `s + 1`: the receives naming `s`,
    /// as [`valid_recv`] finds them).
    fn new(job: &Job, named: Vec<u32>) -> Walk {
        let ranks = job.ranks();
        let mut recv_off = named;
        for s in 0..ranks {
            recv_off[s + 1] += recv_off[s];
        }
        let mut fill = recv_off.clone();
        let mut recv_of = vec![(0, 0, 0); recv_off[ranks] as usize];
        for dst in 0..ranks {
            for (i, op) in job.ops_of(dst) {
                if let Some((from, desc)) = valid_recv(op, dst, ranks) {
                    recv_of[fill[from as usize] as usize] = (dst as u32, i, desc);
                    fill[from as usize] += 1;
                }
            }
        }
        Walk { recv_off, recv_of, sends: Vec::new(), recvs: Vec::new(), send_ops: Vec::new(), recv_ops: Vec::new() }
    }

    /// Rank `src`'s channels in `(dst, tag)` order.
    fn sender<'w>(&'w mut self, job: &Job, src: usize) -> impl Iterator<Item = Channel<'w>> + 'w {
        let ranks = job.ranks();
        self.sends.clear();
        self.sends.extend(job.ops_of(src).filter_map(|(i, op)| match *op {
            COp::Send { to, desc, .. } if (to as usize) < ranks && to as usize != src => {
                Some((to, job.descs[desc as usize].tag, i))
            }
            _ => None,
        }));
        self.recvs.clear();
        let named = &self.recv_of[self.recv_off[src] as usize..self.recv_off[src + 1] as usize];
        self.recvs.extend(named.iter().map(|&(dst, i, desc)| (dst, job.descs[desc as usize].tag, i)));
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
    fn cop_is_24_bytes() {
        // The whole point of the compiled form: a fixed, small op size.
        assert_eq!(std::mem::size_of::<COp>(), 24);
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
    fn descriptors_are_interned_across_ranks() {
        let f = BlockFilter::SegRange(2, 9);
        let job = Job::new(vec![
            RankProgram::from_ops(vec![
                Op::send_part(1, 0, 8, 0, f),
                Op::send_part(1, 0, 8, 0, f),
                Op::send(1, 0, 8, 0),
                Op::recv(1, 0, 0),
            ]),
            RankProgram::from_ops(vec![
                Op::send_part(0, 0, 8, 0, f),
                Op::recv(0, 0, 0),
                Op::DropBlocks { slot: 0, filter: f },
            ]),
        ]);
        let d = |i: usize| match job.ops[i] {
            COp::Send { desc, .. } | COp::Recv { desc, .. } | COp::DropBlocks { desc, .. } => desc,
            _ => unreachable!("only descriptor ops here"),
        };
        assert_eq!([d(0), d(1), d(2), d(3)], [0, 0, 1, 2]);
        assert_eq!([d(4), d(5), d(6)], [0, 2, 3], "rank 1 reuses rank 0's descriptors");
        assert_eq!(job.total_descs(), 4);
        assert_eq!(job.descs[3], MsgDesc { bytes: 0, tag: 0, filter: f });
    }

    #[test]
    fn program_round_trips_extreme_descriptors() {
        let filters = [
            BlockFilter::All,
            BlockFilter::SegRange(0, u32::MAX),
            BlockFilter::OriginOffsetBit { bit: 63, modulo: u32::MAX },
            BlockFilter::OffsetRange { on_origin: true, base: 3, lo: 1, hi: u32::MAX, modulo: 7 },
            BlockFilter::OffsetRange { on_origin: false, base: 3, lo: 1, hi: u32::MAX, modulo: 7 },
        ];
        let rank = |peer: usize| {
            let mut ops = Vec::new();
            for (k, &f) in filters.iter().enumerate() {
                ops.push(Op::Send { to: peer, tag: u64::MAX, bytes: u64::MAX, slot: k, filter: f });
                ops.push(Op::Isend { to: peer, tag: u64::MAX - k as u64, bytes: k as u64, slot: 0, filter: f, req: k });
                ops.push(Op::DropBlocks { slot: k, filter: f });
            }
            ops.push(Op::Recv { from: peer, tag: u64::MAX, slot: 1 });
            ops.push(Op::Irecv { from: peer, tag: 0, slot: 2, req: 9 });
            ops.push(Op::WaitAll { reqs: (0..filters.len()).chain([9]).collect() });
            RankProgram::from_ops(ops)
        };
        let programs = vec![rank(1), rank(0)];
        let job = Job::new(programs.clone());
        for (r, prog) in programs.iter().enumerate() {
            assert_eq!(job.program(r).segments, prog.segments, "rank {r}");
        }
        // Rank 1's ops differ from rank 0's only in the peer: every
        // descriptor is shared.
        let per_rank = job.rank_ops[1] as usize;
        for i in 0..per_rank {
            let desc = |op: COp| match op {
                COp::Send { desc, .. } | COp::Recv { desc, .. } | COp::DropBlocks { desc, .. } => Some(desc),
                _ => None,
            };
            assert_eq!(desc(job.ops[i]), desc(job.ops[per_rank + i]), "op {i}");
        }
        // The receives' descriptors are those of the `k = 0` Isend
        // (0 bytes, tag `u64::MAX`) and DropBlocks (0 bytes, tag 0).
        assert_eq!(job.total_descs(), 3 * filters.len());
    }
}
