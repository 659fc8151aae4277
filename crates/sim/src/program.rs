//! Per-rank programs: the operation "ISA" that schedules are built in.
//!
//! Builders (the collectives, the micro-benchmark harness, `pap-lint`'s
//! repair) write one [`RankProgram`] per rank. A program is a sequence of
//! [`Segment`]s; each segment optionally carries a [`Label`] so that higher
//! layers (the tracer, the micro-benchmark harness) can observe when a rank
//! *enters* and *exits* that segment — this is exactly the "process arrival
//! time" and "exit time" of the paper (§II-A).
//!
//! [`Job::new`] flattens the programs into the engine's op arena and drops
//! them; a job stores its schedule only in that form. [`Job::program`]
//! decodes one rank back into this view.

pub use crate::compiled::{Channel, Job};
use crate::data::{BlockFilter, SlotInit};
use crate::time::SimTime;

/// Index of a buffer slot within a rank's slot table.
pub type Slot = usize;

/// Index into a rank's request table (for `Isend`/`Irecv`/`WaitAll`).
pub type ReqId = usize;

/// Message tag.
///
/// **Invariant (enforced by `pap-lint`):** within one ordered `(src, dst)`
/// rank pair, a tag names a FIFO channel: the k-th send on a
/// `(src, dst, tag)` channel matches the k-th receive posted on it. Posting
/// order is program order, so the matching is static; [`Job::new`] pairs
/// every message once, and the engine and `pap-lint` both read that
/// pairing ([`Job::channels`]). A schedule must therefore not keep two
/// messages outstanding on the same channel unless (a) the FIFO pairing is
/// intended *and* (b) both messages carry the same byte count — on a
/// transport without total per-channel ordering the pairing would otherwise
/// be ambiguous. The `pap-lint` crate reports violations as `TagConflict`
/// (a warning when all sizes on the channel agree, an error when they
/// differ).
pub type Tag = u64;

/// Direction of a point-to-point communication op (see [`Op::comm_meta`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommDir {
    /// The op emits a message (`Send`/`Isend`).
    Send,
    /// The op consumes a message (`Recv`/`Irecv`).
    Recv,
}

/// Static metadata of a communication op, extracted by [`Op::comm_meta`] so
/// analysis passes (e.g. `pap-lint`) need not match every variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommMeta {
    /// Whether the op sends or receives.
    pub dir: CommDir,
    /// The peer rank (`to` for sends, `from` for receives).
    pub peer: usize,
    /// The match tag.
    pub tag: Tag,
    /// Message size in bytes. Sends declare it; receives take the sender's
    /// size, so this is `None` for `Recv`/`Irecv`.
    pub bytes: Option<u64>,
    /// The payload slot (source for sends, destination for receives).
    pub slot: Slot,
    /// The completion request for non-blocking ops, `None` for blocking ones.
    pub req: Option<ReqId>,
    /// Whether the op may block the issuing rank (`Send`/`Recv`).
    pub(crate) blocking: bool,
}

/// One operation of a rank program.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Advance local time by `seconds` (models computation or an injected
    /// arrival-pattern delay). Subject to the engine noise model when
    /// `noisy` is true.
    Compute {
        /// Duration in seconds.
        seconds: SimTime,
        /// Whether the noise model perturbs this duration. Injected
        /// arrival-pattern delays use `false` so patterns replay exactly.
        noisy: bool,
    },
    /// Spin until the given *global* simulated time (models
    /// `MPIX_Harmonize`-style synchronized starts; the clock-sync layer adds
    /// its estimation error before constructing this op).
    SleepUntil {
        /// Absolute global time to wait for.
        time: SimTime,
    },
    /// Blocking send of `bytes` from `slot` to rank `to` with `tag`.
    /// Eager sends return after the sender overhead; rendezvous sends block
    /// until the matching receive is posted and the data has left the node.
    Send {
        /// Destination rank.
        to: usize,
        /// Match tag.
        tag: Tag,
        /// Message size in bytes (drives the cost model and the protocol).
        bytes: u64,
        /// Source slot (payload snapshot is taken at execution time).
        slot: Slot,
        /// Which blocks of the slot travel (for partial-buffer sends).
        filter: BlockFilter,
    },
    /// Non-blocking send; completion is observed via `WaitAll`.
    Isend {
        /// Destination rank.
        to: usize,
        /// Match tag.
        tag: Tag,
        /// Message size in bytes.
        bytes: u64,
        /// Source slot.
        slot: Slot,
        /// Which blocks of the slot travel.
        filter: BlockFilter,
        /// Request to complete.
        req: ReqId,
    },
    /// Blocking receive into `slot` (replaces the slot content).
    Recv {
        /// Source rank.
        from: usize,
        /// Match tag.
        tag: Tag,
        /// Destination slot.
        slot: Slot,
    },
    /// Non-blocking receive; completion is observed via `WaitAll`.
    Irecv {
        /// Source rank.
        from: usize,
        /// Match tag.
        tag: Tag,
        /// Destination slot.
        slot: Slot,
        /// Request to complete.
        req: ReqId,
    },
    /// Block until all listed requests are complete; local time advances to
    /// the latest completion.
    WaitAll {
        /// Requests to wait for.
        reqs: Vec<ReqId>,
    },
    /// Local reduction: fold slot `from` into slot `into`
    /// (contributor-set union with double-count detection), costing
    /// `bytes × reduce_cost_per_byte` seconds of compute.
    ReduceLocal {
        /// Source slot.
        from: Slot,
        /// Accumulator slot.
        into: Slot,
        /// Reduced payload size in bytes (cost model input).
        bytes: u64,
    },
    /// Zero-cost movement merge of slot `from` into slot `into`
    /// (for assembling gather/allgather/alltoall results).
    MergeMove {
        /// Source slot.
        from: Slot,
        /// Destination slot.
        into: Slot,
    },
    /// Zero-cost per-block overwrite of `into` with the blocks of `from`
    /// (no conflict check; allgather phases replacing stale partials).
    OverwriteMove {
        /// Source slot.
        from: Slot,
        /// Destination slot.
        into: Slot,
    },
    /// Remove blocks matching `filter` from `slot` (blocks that were just
    /// forwarded and no longer live here, e.g. in Bruck rounds).
    DropBlocks {
        /// Slot to prune.
        slot: Slot,
        /// Which blocks to remove.
        filter: BlockFilter,
    },
    /// Zero-cost copy (replace `into` with the content of `from`).
    CopySlot {
        /// Source slot.
        from: Slot,
        /// Destination slot.
        into: Slot,
    },
    /// Initialize a slot (rank inputs). The content is a descriptor; the
    /// engine builds the payload only when it tracks data.
    InitSlot {
        /// Slot to initialize.
        slot: Slot,
        /// Initial content.
        init: SlotInit,
    },
    /// Empty a slot.
    ClearSlot {
        /// Slot to clear.
        slot: Slot,
    },
}

impl Op {
    /// Shorthand for a blocking send of the whole slot.
    pub fn send(to: usize, tag: Tag, bytes: u64, slot: Slot) -> Op {
        Op::Send { to, tag, bytes, slot, filter: BlockFilter::All }
    }

    /// Shorthand for a blocking send of a block subset.
    pub fn send_part(to: usize, tag: Tag, bytes: u64, slot: Slot, filter: BlockFilter) -> Op {
        Op::Send { to, tag, bytes, slot, filter }
    }

    /// Shorthand for a non-blocking send of the whole slot.
    pub fn isend(to: usize, tag: Tag, bytes: u64, slot: Slot, req: ReqId) -> Op {
        Op::Isend { to, tag, bytes, slot, filter: BlockFilter::All, req }
    }

    /// Shorthand for a non-blocking send of a block subset.
    pub fn isend_part(to: usize, tag: Tag, bytes: u64, slot: Slot, filter: BlockFilter, req: ReqId) -> Op {
        Op::Isend { to, tag, bytes, slot, filter, req }
    }

    /// Shorthand for a blocking receive.
    pub fn recv(from: usize, tag: Tag, slot: Slot) -> Op {
        Op::Recv { from, tag, slot }
    }

    /// Shorthand for a non-blocking receive.
    pub fn irecv(from: usize, tag: Tag, slot: Slot, req: ReqId) -> Op {
        Op::Irecv { from, tag, slot, req }
    }

    /// Shorthand for waiting on a set of requests.
    pub fn waitall(reqs: Vec<ReqId>) -> Op {
        Op::WaitAll { reqs }
    }

    /// Shorthand for noisy compute.
    pub fn compute(seconds: SimTime) -> Op {
        Op::Compute { seconds, noisy: true }
    }

    /// Shorthand for an exact (noise-free) delay, used to replay arrival
    /// patterns precisely.
    pub fn delay(seconds: SimTime) -> Op {
        Op::Compute { seconds, noisy: false }
    }

    /// Largest slot index referenced by this op, if any.
    pub fn max_slot(&self) -> Option<Slot> {
        match self {
            Op::Send { slot, .. } | Op::Isend { slot, .. } | Op::Recv { slot, .. } | Op::Irecv { slot, .. } => {
                Some(*slot)
            }
            Op::ReduceLocal { from, into, .. }
            | Op::MergeMove { from, into }
            | Op::OverwriteMove { from, into }
            | Op::CopySlot { from, into } => Some((*from).max(*into)),
            Op::InitSlot { slot, .. } | Op::ClearSlot { slot } | Op::DropBlocks { slot, .. } => Some(*slot),
            _ => None,
        }
    }

    /// Largest request index referenced by this op, if any.
    pub fn max_req(&self) -> Option<ReqId> {
        match self {
            Op::Isend { req, .. } | Op::Irecv { req, .. } => Some(*req),
            Op::WaitAll { reqs } => reqs.iter().copied().max(),
            _ => None,
        }
    }

    /// Communication metadata for point-to-point ops, `None` for local ops.
    pub fn comm_meta(&self) -> Option<CommMeta> {
        match self {
            Op::Send { to, tag, bytes, slot, .. } => Some(CommMeta {
                dir: CommDir::Send,
                peer: *to,
                tag: *tag,
                bytes: Some(*bytes),
                slot: *slot,
                req: None,
                blocking: true,
            }),
            Op::Isend { to, tag, bytes, slot, req, .. } => Some(CommMeta {
                dir: CommDir::Send,
                peer: *to,
                tag: *tag,
                bytes: Some(*bytes),
                slot: *slot,
                req: Some(*req),
                blocking: false,
            }),
            Op::Recv { from, tag, slot } => Some(CommMeta {
                dir: CommDir::Recv,
                peer: *from,
                tag: *tag,
                bytes: None,
                slot: *slot,
                req: None,
                blocking: true,
            }),
            Op::Irecv { from, tag, slot, req } => Some(CommMeta {
                dir: CommDir::Recv,
                peer: *from,
                tag: *tag,
                bytes: None,
                slot: *slot,
                req: Some(*req),
                blocking: false,
            }),
            _ => None,
        }
    }

    /// Whether executing this op may suspend the rank until *another rank*
    /// makes progress (rendezvous sends, receives, request completion).
    /// `Compute`/`SleepUntil` advance local time but never wait on a peer.
    pub fn is_blocking(&self) -> bool {
        matches!(self, Op::Send { .. } | Op::Recv { .. } | Op::WaitAll { .. })
    }

    /// Slots whose *current content* this op consumes, at most two, in
    /// this order. Accumulation targets (`into` of `ReduceLocal`/
    /// `MergeMove`/`OverwriteMove`) and pruned slots count as reads too:
    /// the engine folds into / filters their prior value.
    pub fn slots_read(&self) -> [Option<Slot>; 2] {
        match *self {
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

    /// The slot this op (or its later completion, for `Irecv`) writes.
    pub fn slot_written(&self) -> Option<Slot> {
        match *self {
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
}

/// Semantic label of a segment, used by the tracer and harness to identify
/// which collective call (and which call sequence number) a phase represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label {
    /// Application-defined kind (e.g. a `CollectiveKind` discriminant).
    pub kind: u32,
    /// Call sequence number.
    pub seq: u32,
}

/// A contiguous group of ops whose enter/exit times are recorded when
/// labelled.
#[derive(Debug, Clone, PartialEq)]
pub struct Segment {
    /// Optional label; labelled segments produce `PhaseRecord`s.
    pub label: Option<Label>,
    /// The operations of this segment.
    pub ops: Vec<Op>,
}

impl Segment {
    /// Unlabelled segment.
    pub(crate) fn anon(ops: Vec<Op>) -> Self {
        Segment { label: None, ops }
    }

    /// Labelled segment.
    pub(crate) fn labeled(label: Label, ops: Vec<Op>) -> Self {
        Segment { label: Some(label), ops }
    }
}

/// The full program of one rank.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RankProgram {
    /// Segments executed in order.
    pub segments: Vec<Segment>,
}

impl RankProgram {
    /// Empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// Program with a single anonymous segment.
    pub fn from_ops(ops: Vec<Op>) -> Self {
        RankProgram { segments: vec![Segment::anon(ops)] }
    }

    /// Append an anonymous segment.
    pub fn push_anon(&mut self, ops: Vec<Op>) -> &mut Self {
        self.segments.push(Segment::anon(ops));
        self
    }

    /// Append a labelled segment.
    pub fn push_labeled(&mut self, label: Label, ops: Vec<Op>) -> &mut Self {
        self.segments.push(Segment::labeled(label, ops));
        self
    }

    /// Number of ops across all segments.
    pub fn op_count(&self) -> usize {
        self.segments.iter().map(|s| s.ops.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_shorthands() {
        assert_eq!(
            Op::send(1, 2, 3, 4),
            Op::Send { to: 1, tag: 2, bytes: 3, slot: 4, filter: BlockFilter::All }
        );
        assert_eq!(Op::recv(1, 2, 3), Op::Recv { from: 1, tag: 2, slot: 3 });
        assert!(matches!(Op::compute(1.0), Op::Compute { noisy: true, .. }));
        assert!(matches!(Op::delay(1.0), Op::Compute { noisy: false, .. }));
    }

    #[test]
    fn labels_attach_to_segments() {
        let mut p = RankProgram::new();
        p.push_labeled(Label { kind: 1, seq: 0 }, vec![Op::compute(0.5)]);
        assert_eq!(p.segments[0].label, Some(Label { kind: 1, seq: 0 }));
        assert_eq!(p.op_count(), 1);
    }

    #[test]
    fn comm_meta_classifies_p2p_ops() {
        let m = Op::send(3, 7, 64, 2).comm_meta().unwrap();
        assert_eq!((m.dir, m.peer, m.tag, m.bytes, m.slot, m.req, m.blocking),
                   (CommDir::Send, 3, 7, Some(64), 2, None, true));
        let m = Op::irecv(1, 9, 4, 5).comm_meta().unwrap();
        assert_eq!((m.dir, m.peer, m.tag, m.bytes, m.slot, m.req, m.blocking),
                   (CommDir::Recv, 1, 9, None, 4, Some(5), false));
        assert!(Op::compute(1.0).comm_meta().is_none());
        assert!(Op::waitall(vec![0]).comm_meta().is_none());
    }

    #[test]
    fn blocking_and_slot_access_classification() {
        assert!(Op::send(1, 0, 8, 0).is_blocking());
        assert!(Op::recv(1, 0, 0).is_blocking());
        assert!(Op::waitall(vec![0]).is_blocking());
        assert!(!Op::isend(1, 0, 8, 0, 0).is_blocking());
        assert!(!Op::compute(1.0).is_blocking());
    }

    #[test]
    fn slot_access_covers_the_op_isa() {
        // (op, slots read, slot written) for every variant.
        let table = [
            (Op::compute(1.0), [None, None], None),
            (Op::SleepUntil { time: 1.0 }, [None, None], None),
            (Op::send(1, 0, 8, 2), [Some(2), None], None),
            (Op::isend(1, 0, 8, 2, 0), [Some(2), None], None),
            (Op::recv(1, 0, 3), [None, None], Some(3)),
            (Op::irecv(1, 0, 3, 0), [None, None], Some(3)),
            (Op::waitall(vec![0]), [None, None], None),
            (Op::ReduceLocal { from: 4, into: 5, bytes: 8 }, [Some(4), Some(5)], Some(5)),
            (Op::MergeMove { from: 4, into: 5 }, [Some(4), Some(5)], Some(5)),
            (Op::OverwriteMove { from: 4, into: 5 }, [Some(4), Some(5)], Some(5)),
            (Op::DropBlocks { slot: 6, filter: BlockFilter::All }, [Some(6), None], Some(6)),
            (Op::CopySlot { from: 4, into: 5 }, [Some(4), None], Some(5)),
            (Op::InitSlot { slot: 7, init: SlotInit::Empty }, [None, None], Some(7)),
            (Op::ClearSlot { slot: 7 }, [None, None], Some(7)),
        ];
        for (op, reads, written) in &table {
            assert_eq!(op.slots_read(), *reads, "{op:?}");
            assert_eq!(op.slot_written(), *written, "{op:?}");
        }
    }

    #[test]
    fn max_slot_covers_all_variants() {
        assert_eq!(Op::ReduceLocal { from: 2, into: 5, bytes: 1 }.max_slot(), Some(5));
        assert_eq!(Op::MergeMove { from: 7, into: 1 }.max_slot(), Some(7));
        assert_eq!(Op::ClearSlot { slot: 4 }.max_slot(), Some(4));
        assert_eq!(Op::compute(1.0).max_slot(), None);
        assert_eq!(Op::InitSlot { slot: 3, init: SlotInit::Empty }.max_slot(), Some(3));
    }
}
