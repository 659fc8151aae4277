//! Certified schedule repair: rewrite a [`Job`] so the survivors of a
//! fail-stop crash complete without the dead rank.
//!
//! The repair is *structural*, driven by a slot-taint dependence analysis of
//! the crashed rank's program. Every communication op of the crashed rank
//! `R` is a node; an edge connects an inbound receive to an outbound send
//! whose payload (transitively, through local slot ops) contains the
//! received data. Connected components classify into the shapes trees and
//! dissemination topologies produce, each with a mechanical rewrite:
//!
//! * **drop-in** — a receive whose data feeds no outbound send (a sink, e.g.
//!   a dissemination-barrier token): the live sender's matching send is
//!   dropped.
//! * **drop-out** — a send fed by no inbound receive (`R`'s own data, e.g. a
//!   reduce leaf's contribution): the live receiver's matching receive is
//!   dropped, along with the ops that consumed the now-absent value.
//! * **fan-out** — one inbound receive feeding one or more outbound sends
//!   (broadcast/scatter interiors): the live sender is *promoted* — its send
//!   to `R` is replaced with clones of `R`'s forwarding sends (same
//!   destinations, byte counts and block filters, sourced from the
//!   promoted rank's own buffer — block filters use global coordinates, so
//!   they extract the same blocks from the superset the parent holds).
//! * **fan-in** — inbound receives feeding one outbound send
//!   (reduce/gather interiors): every live sender is redirected to `R`'s
//!   consumer, which grows one receive-and-fold sequence per extra source
//!   (clones of its original fold ops).
//!
//! Anything else — components weaving several inbounds into several
//! outbounds, as in recursive-doubling interiors — is refused as
//! [`RepairError::Unsupported`] rather than repaired wrongly.
//!
//! Dropping an op cascades: a dropped receive kills the value its slot
//! carried, so later ops reading that slot are dropped too, and a dropped
//! *send* among them recursively drops its counterpart receive on the next
//! rank. Dropped non-blocking ops are scrubbed from `WaitAll` lists. All new
//! channels use fresh tags (no FIFO interference with surviving traffic),
//! fresh requests, and fresh slots.
//!
//! The crashed rank's data contribution is *lost* by construction — repair
//! preserves survivor liveness, not the collective's full semantics (for a
//! reduction, the result simply misses the dead rank's term; if the crashed
//! rank is the root, the result's owner is gone and the repair degrades to
//! cancelling the survivors' participation).
//!
//! **Certification** ([`certified_repair`]) is external to the rewrite: the
//! repaired job is re-linted from scratch against all 16 diagnostic classes
//! and its crash cone recomputed; a repair is only accepted if the re-lint
//! finds no error and the cone is empty.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

use pap_sim::program::{CommDir, ReqId, Slot, Tag};
use pap_sim::{Job, Op, RankProgram, Segment};

use crate::faults::{cone_of, CrashPoint};
use crate::view::{Counterpart, View};
use crate::{lint_view, LintConfig, LintReport};

/// Why a repair was not produced (or not accepted).
#[derive(Debug)]
pub enum RepairError {
    /// The crashed rank is outside the job.
    BadRank {
        /// The requested rank.
        rank: usize,
        /// The job's rank count.
        ranks: usize,
    },
    /// The input job already has error-severity lint findings; repair
    /// requires a well-formed schedule to rewrite.
    UncleanInput {
        /// Error-severity finding count.
        errors: usize,
    },
    /// The crashed rank's dependence structure has no mechanical rewrite
    /// (e.g. a component weaving several inbound receives into several
    /// outbound sends, as recursive-doubling interiors do).
    Unsupported {
        /// Human-readable reason.
        reason: String,
    },
    /// The rewrite was produced but failed re-verification.
    CertificationFailed {
        /// The re-lint report of the rejected repair.
        report: Box<LintReport>,
        /// Survivors still starved by the crash after the rewrite.
        residual_cone: Vec<usize>,
    },
}

impl std::fmt::Display for RepairError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RepairError::BadRank { rank, ranks } => {
                write!(f, "crashed rank {rank} out of range for {ranks} ranks")
            }
            RepairError::UncleanInput { errors } => {
                write!(f, "input schedule has {errors} lint error(s); repair needs a clean job")
            }
            RepairError::Unsupported { reason } => write!(f, "unsupported topology: {reason}"),
            RepairError::CertificationFailed { report, residual_cone } => write!(
                f,
                "repair failed certification: {} error(s), residual cone {:?}",
                report.errors(),
                residual_cone
            ),
        }
    }
}

impl std::error::Error for RepairError {}

/// A produced repair, with rewrite statistics.
#[derive(Debug, Clone)]
pub struct RepairOutcome {
    /// The rewritten job (the crashed rank's program is empty).
    pub job: Job,
    /// The rank routed around.
    pub(crate) crashed: usize,
    /// Ops removed from survivor programs (crashed-rank ops not counted).
    pub dropped: usize,
    /// Survivor ops rewritten in place (redirected peers/tags).
    pub rewired: usize,
    /// New ops inserted into survivor programs.
    pub inserted: usize,
    /// Human-readable rewrite notes (one per component).
    pub notes: Vec<String>,
}

/// The dependence component shapes (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    DropIn,
    DropOut,
    FanOut,
    FanIn,
    /// Multi-segment pipelined tree: slot-level taint fuses every segment
    /// of a segmented chain/pipeline/binomial forward into one component,
    /// but each segment still has tree shape — all inbound receives pair
    /// with sends from ONE source rank, and each outbound send forwards a
    /// `(bytes, filter)` segment the source also sent.
    PipedFanOut,
}

/// Mutable per-rank edit state over the flattened program.
struct Edit {
    /// `ops[i] = None`: dropped. Rewrites replace the op in place.
    ops: Vec<Option<Op>>,
    /// Ops inserted *after* flat index `i`.
    inserts: BTreeMap<usize, Vec<Op>>,
    /// Fresh requests posted by inserted/replacement `Isend`s; completed by
    /// a trailing `WaitAll` appended to the program.
    tail_reqs: Vec<ReqId>,
    next_req: ReqId,
    next_slot: Slot,
}

impl Edit {
    fn fresh_req(&mut self) -> ReqId {
        let r = self.next_req;
        self.next_req += 1;
        self.tail_reqs.push(r);
        r
    }

    fn fresh_slot(&mut self) -> Slot {
        let s = self.next_slot;
        self.next_slot += 1;
        s
    }

    /// Remove `req` from the first surviving `WaitAll` after `from_idx`
    /// that lists it — the wait that would have completed the dropped
    /// posting. Request IDs are legitimately re-posted after their wait
    /// (dissemination rounds do), so only that one wait is touched.
    fn scrub_req(&mut self, from_idx: usize, req: ReqId) {
        for j in from_idx + 1..self.ops.len() {
            if let Some(Op::WaitAll { reqs }) = self.ops[j].as_mut() {
                if let Some(pos) = reqs.iter().position(|&q| q == req) {
                    reqs.remove(pos);
                    return;
                }
            }
        }
    }
}

/// Rewrite `job` so every rank except `crashed` completes without it; the
/// crashed rank's program is emptied. No certification — see
/// [`certified_repair`] for the accepted-only variant.
pub fn repair_job(job: &Job, cfg: &LintConfig, crashed: usize) -> Result<RepairOutcome, RepairError> {
    repair_view(&View::new(job), cfg, crashed)
}

/// [`repair_job`] over a built view.
pub(crate) fn repair_view(view: &View, cfg: &LintConfig, crashed: usize) -> Result<RepairOutcome, RepairError> {
    let (job, ranks) = (view.job, view.job.ranks());
    if crashed >= ranks {
        return Err(RepairError::BadRank { rank: crashed, ranks });
    }
    let input = lint_view(view, cfg);
    if !input.is_clean() {
        return Err(RepairError::UncleanInput { errors: input.errors() });
    }
    // A clean job is fully matched.
    let matched = |r: usize, i: usize| -> Counterpart {
        view.counterpart(r, i).expect("clean input is fully matched")
    };

    // --- dependence analysis of the crashed rank's program ---------------
    // inbound/outbound comm ops of `crashed`, and for each outbound the set
    // of inbound flat indices whose data taints its payload slot.
    let mut inbound: Vec<usize> = Vec::new();
    let mut outbound: Vec<usize> = Vec::new();
    let mut deps: BTreeMap<usize, BTreeSet<usize>> = BTreeMap::new();
    {
        let mut taint: HashMap<Slot, BTreeSet<usize>> = HashMap::new();
        for (i, op) in view.job.rank_range(crashed).map(|g| view.job.op(g)).enumerate() {
            if let Some(m) = op.comm_meta() {
                match m.dir {
                    CommDir::Recv => {
                        inbound.push(i);
                        taint.insert(m.slot, BTreeSet::from([i]));
                    }
                    CommDir::Send => {
                        outbound.push(i);
                        deps.insert(i, taint.get(&m.slot).cloned().unwrap_or_default());
                    }
                }
                continue;
            }
            match op {
                Op::InitSlot { slot, .. } | Op::ClearSlot { slot } => {
                    taint.remove(&slot);
                }
                Op::CopySlot { from, into } => {
                    let t = taint.get(&from).cloned().unwrap_or_default();
                    taint.insert(into, t);
                }
                // Read-modify-write merges: the target accumulates taint.
                Op::ReduceLocal { from, into, .. }
                | Op::MergeMove { from, into }
                | Op::OverwriteMove { from, into } => {
                    let t = taint.get(&from).cloned().unwrap_or_default();
                    taint.entry(into).or_default().extend(t);
                }
                _ => {}
            }
        }
    }

    // Connected components over inbound ∪ outbound with edges deps[o] ∋ i.
    let components = connected_components(&inbound, &outbound, &deps);

    // --- edit state ------------------------------------------------------
    let mut edits: Vec<Edit> = (0..ranks)
        .map(|r| Edit {
            ops: job.program(r).segments.into_iter().flat_map(|seg| seg.ops).map(Some).collect(),
            inserts: BTreeMap::new(),
            tail_reqs: Vec::new(),
            next_req: job.reqs_needed(r),
            next_slot: job.slots_needed(r),
        })
        .collect();
    let mut next_tag: Tag = fresh_tag_base(job);
    let mut notes = Vec::new();
    let mut stats = (0usize, 0usize, 0usize); // dropped, rewired, inserted

    // Worklist of (rank, flat idx) survivor ops to drop with cascading.
    let mut drops: Vec<(usize, usize)> = Vec::new();

    for comp in &components {
        let n_in = comp.inbound.len();
        let n_out = comp.outbound.len();
        let weave = || RepairError::Unsupported {
            reason: format!(
                "rank {crashed} weaves {n_in} inbound receives into {n_out} outbound \
                 sends in one dependence component (no tree/dissemination rewrite)"
            ),
        };
        let shape = match (n_in, n_out) {
            (_, 0) => Shape::DropIn,
            (0, _) => Shape::DropOut,
            (1, _) => Shape::FanOut,
            (_, 1) => Shape::FanIn,
            _ => Shape::PipedFanOut,
        };
        match shape {
            Shape::DropIn => {
                // Sinks: drop each live sender's matching send.
                for &i in &comp.inbound {
                    let cp = matched(crashed, i);
                    drops.push((cp.rank, cp.flat));
                    notes.push(format!("drop-in: rank {} no longer sends to {crashed}", cp.rank));
                }
            }
            Shape::DropOut => {
                // R's own data: drop each live receiver's matching receive
                // (and, by cascade, whatever consumed it).
                for &o in &comp.outbound {
                    let cp = matched(crashed, o);
                    drops.push((cp.rank, cp.flat));
                    notes.push(format!(
                        "drop-out: rank {} forgoes {crashed}'s contribution",
                        cp.rank
                    ));
                }
            }
            Shape::FanOut => {
                let i = comp.inbound[0];
                let src = matched(crashed, i);
                let src_slot = view.rank_op(src.rank, src.flat).comm_meta().expect("matched send is a comm op").slot;
                let mut clones: Vec<Op> = Vec::new();
                for &o in &comp.outbound {
                    let dst = matched(crashed, o);
                    if dst.rank == src.rank {
                        // The forward would return to the promoted rank
                        // itself: its copy of the data is already in place —
                        // drop its receive instead of self-sending.
                        drops.push((dst.rank, dst.flat));
                        notes.push(format!(
                            "fan-out: rank {} already holds the data it relayed via {crashed}",
                            dst.rank
                        ));
                        continue;
                    }
                    let tag = next_tag;
                    next_tag += 1;
                    let forward = view.rank_op(crashed, o);
                    let clone = forward_clone(&forward, tag, src_slot, &mut edits[src.rank]);
                    clones.push(clone);
                    rewire_recv(&mut edits[dst.rank], dst.flat, src.rank, tag);
                    stats.1 += 1;
                }
                notes.push(format!(
                    "fan-out: rank {} promoted to forward for {crashed} ({} clone(s))",
                    src.rank,
                    clones.len()
                ));
                replace_send(&mut edits[src.rank], src.flat, clones, &mut stats);
            }
            Shape::PipedFanOut => {
                let sends = |rank: usize, idx: usize| match view.rank_op(rank, idx) {
                    Op::Send { bytes, slot, filter, .. }
                    | Op::Isend { bytes, slot, filter, .. } => (bytes, slot, filter),
                    other => unreachable!("matched send is a send: {other:?}"),
                };
                let sources: Vec<_> =
                    comp.inbound.iter().map(|&i| matched(crashed, i)).collect();
                let src_rank = sources[0].rank;
                if sources.iter().any(|cp| cp.rank != src_rank) {
                    return Err(weave());
                }
                // Each segment is identified by the (bytes, filter) of the
                // source's send: the global block coordinates pin which data
                // travels, so an equal key means the source holds exactly
                // the blocks the crashed rank would have forwarded. Keys
                // must be unambiguous — the slot contents change over the
                // pipeline, so a duplicate key cannot be paired safely.
                let keys: Vec<_> = sources
                    .iter()
                    .map(|cp| {
                        let (bytes, _, filter) = sends(src_rank, cp.flat);
                        (bytes, filter)
                    })
                    .collect();
                if keys.iter().any(|k| keys.iter().filter(|k2| *k2 == k).count() > 1) {
                    return Err(weave());
                }
                let mut clones_for: Vec<Vec<Op>> = vec![Vec::new(); sources.len()];
                for &o in &comp.outbound {
                    let dst = matched(crashed, o);
                    if dst.rank == src_rank {
                        // The forward would return to the promoted rank:
                        // its copy is already in place.
                        drops.push((dst.rank, dst.flat));
                        continue;
                    }
                    let (bytes_o, _, filter_o) = sends(crashed, o);
                    let Some(seg) = keys.iter().position(|&k| k == (bytes_o, filter_o)) else {
                        return Err(weave());
                    };
                    let (_, src_slot, _) = sends(src_rank, sources[seg].flat);
                    let tag = next_tag;
                    next_tag += 1;
                    let forward = view.rank_op(crashed, o);
                    let clone = forward_clone(&forward, tag, src_slot, &mut edits[src_rank]);
                    clones_for[seg].push(clone);
                    rewire_recv(&mut edits[dst.rank], dst.flat, src_rank, tag);
                    stats.1 += 1;
                }
                let forwards: usize = clones_for.iter().map(Vec::len).sum();
                // Replace each source→crashed send in place with that
                // segment's forwards: the clones sit exactly where the
                // source had the segment's data ready, preserving the
                // pipeline's data-dependence order.
                for (seg, clones) in clones_for.into_iter().enumerate() {
                    replace_send(&mut edits[src_rank], sources[seg].flat, clones, &mut stats);
                }
                notes.push(format!(
                    "piped fan-out: rank {src_rank} promoted to forward {} segment(s) for \
                     {crashed} ({forwards} clone(s))",
                    sources.len()
                ));
            }
            Shape::FanIn => {
                let o = comp.outbound[0];
                let dst = matched(crashed, o);
                let recv_slot = view.rank_op(dst.rank, dst.flat).comm_meta().expect("matched receive is a comm op").slot;
                // The fold ops on the consumer that digest the received
                // value — cloned once per extra source.
                let folds = fold_ops(view, dst.rank, dst.flat, recv_slot)?;
                let insert_at = folds.last().copied().unwrap_or(dst.flat);
                let mut first = true;
                for &i in &comp.inbound {
                    let src = matched(crashed, i);
                    if src.rank == dst.rank {
                        // The consumer contributed via R itself: its own
                        // term is already in its accumulator — drop the
                        // send, nothing to re-receive.
                        drops.push((src.rank, src.flat));
                        notes.push(format!(
                            "fan-in: rank {} already holds its own contribution",
                            src.rank
                        ));
                        continue;
                    }
                    let meta = view.rank_op(src.rank, src.flat).comm_meta().expect("matched send is a comm op");
                    let bytes = meta.bytes.expect("sends declare bytes");
                    let tag = next_tag;
                    next_tag += 1;
                    rewire_send(&mut edits[src.rank], src.flat, dst.rank, tag);
                    stats.1 += 1;
                    if first {
                        first = false;
                        rewire_recv(&mut edits[dst.rank], dst.flat, src.rank, tag);
                        stats.1 += 1;
                        // Keep the declared fold size honest for the new
                        // payload (the dead rank's aggregate may have been
                        // larger than one source's term).
                        fix_fold_bytes(&mut edits[dst.rank], &folds, recv_slot, bytes);
                    } else {
                        let slot = edits[dst.rank].fresh_slot();
                        let mut seq = vec![Op::Recv { from: src.rank, tag, slot }];
                        for &fi in &folds {
                            seq.push(clone_fold(
                                edits[dst.rank].ops[fi].as_ref().expect("fold not dropped"),
                                recv_slot,
                                slot,
                                bytes,
                            ));
                        }
                        stats.2 += seq.len();
                        edits[dst.rank].inserts.entry(insert_at).or_default().extend(seq);
                    }
                }
                notes.push(format!(
                    "fan-in: rank {} now receives {} source(s) directly (was via {crashed})",
                    dst.rank,
                    comp.inbound.len()
                ));
            }
        }
    }

    // --- cascading drops --------------------------------------------------
    // A dropped send orphans its counterpart receive. A dropped receive
    // kills the value its slot carried: walk forward, dropping readers of
    // dead slots until a pure overwrite revives them.
    while let Some((r, i)) = drops.pop() {
        debug_assert_ne!(r, crashed);
        let Some(op) = edits[r].ops[i].take() else { continue };
        stats.0 += 1;
        let Some(m) = op.comm_meta() else { continue };
        if let Some(req) = m.req {
            edits[r].scrub_req(i, req);
        }
        let survivor = |cp: &Counterpart| cp.rank != crashed;
        if m.dir == CommDir::Send {
            drops.extend(view.counterpart(r, i).filter(survivor).map(|cp| (cp.rank, cp.flat)));
            continue;
        }
        let mut dead: HashSet<Slot> = HashSet::from([m.slot]);
        for j in i + 1..edits[r].ops.len() {
            let Some(o) = edits[r].ops[j].as_ref() else { continue };
            let (reads, m) = (o.slots_read(), o.comm_meta());
            // Pure overwrite targets of a dropped op die with it;
            // read-modify-write targets keep their prior value.
            let overwrite = o.slot_written().filter(|w| !reads.contains(&Some(*w)));
            if !reads.iter().flatten().any(|s| dead.contains(s)) {
                if let Some(w) = overwrite {
                    dead.remove(&w);
                }
                continue;
            }
            dead.extend(overwrite);
            edits[r].ops[j] = None;
            stats.0 += 1;
            if let Some(req) = m.and_then(|m| m.req) {
                edits[r].scrub_req(j, req);
            }
            if m.is_some_and(|m| m.dir == CommDir::Send) {
                drops.extend(view.counterpart(r, j).filter(survivor).map(|cp| (cp.rank, cp.flat)));
            }
        }
    }

    // --- reassembly -------------------------------------------------------
    let mut repaired: Vec<RankProgram> = Vec::with_capacity(ranks);
    for (r, edit) in edits.iter().enumerate() {
        if r == crashed {
            repaired.push(RankProgram::new());
            continue;
        }
        let mut out = RankProgram::new();
        let start = view.job.rank_range(r).start;
        for (label, range) in job.segments(r) {
            let mut ops: Vec<Op> = Vec::with_capacity(range.len());
            for idx in range.map(|i| i - start) {
                if let Some(op) = edit.ops[idx].clone() {
                    ops.push(op);
                }
                if let Some(ins) = edit.inserts.get(&idx) {
                    ops.extend(ins.iter().cloned());
                }
            }
            out.segments.push(Segment { label, ops });
        }
        if !edit.tail_reqs.is_empty() {
            out.push_anon(vec![Op::waitall(edit.tail_reqs.clone())]);
        }
        repaired.push(out);
    }

    Ok(RepairOutcome {
        job: Job::new(repaired),
        crashed,
        dropped: stats.0,
        rewired: stats.1,
        inserted: stats.2,
        notes,
    })
}

/// [`repair_job`], accepted only if the rewrite passes re-verification: the
/// repaired job must lint with zero errors across all 16 diagnostic classes
/// *and* have an empty crash cone for the repaired fault.
pub fn certified_repair(
    job: &Job,
    cfg: &LintConfig,
    crashed: usize,
) -> Result<RepairOutcome, RepairError> {
    certify(repair_job(job, cfg, crashed), cfg)
}

/// Accept a produced repair only if it re-verifies (see [`certified_repair`]).
pub(crate) fn certify(
    repaired: Result<RepairOutcome, RepairError>,
    cfg: &LintConfig,
) -> Result<RepairOutcome, RepairError> {
    let out = repaired?;
    let view = View::new(&out.job);
    let report = lint_view(&view, cfg);
    let cone = cone_of(&view, cfg, &[CrashPoint::on_entry(out.crashed)]);
    if !report.is_clean() || !cone.is_empty() {
        return Err(RepairError::CertificationFailed {
            report: Box::new(report),
            residual_cone: cone.starved_ranks(),
        });
    }
    Ok(out)
}

/// One dependence component of the crashed rank's comm ops.
struct Component {
    inbound: Vec<usize>,
    outbound: Vec<usize>,
}

fn connected_components(
    inbound: &[usize],
    outbound: &[usize],
    deps: &BTreeMap<usize, BTreeSet<usize>>,
) -> Vec<Component> {
    // Union-find keyed by flat index.
    let mut parent: BTreeMap<usize, usize> =
        inbound.iter().chain(outbound.iter()).map(|&i| (i, i)).collect();
    fn find(parent: &mut BTreeMap<usize, usize>, i: usize) -> usize {
        let p = parent[&i];
        if p == i {
            return i;
        }
        let root = find(parent, p);
        parent.insert(i, root);
        root
    }
    for (&o, ins) in deps {
        for &i in ins {
            let (a, b) = (find(&mut parent, o), find(&mut parent, i));
            if a != b {
                parent.insert(a, b);
            }
        }
    }
    let mut groups: BTreeMap<usize, Component> = BTreeMap::new();
    for &i in inbound {
        let root = find(&mut parent, i);
        groups.entry(root).or_insert_with(|| Component { inbound: vec![], outbound: vec![] }).inbound.push(i);
    }
    for &o in outbound {
        let root = find(&mut parent, o);
        groups.entry(root).or_insert_with(|| Component { inbound: vec![], outbound: vec![] }).outbound.push(o);
    }
    groups.into_values().collect()
}

/// Largest tag in the job plus one: the base for fresh repair channels.
fn fresh_tag_base(job: &Job) -> Tag {
    (0..job.total_ops())
        .filter_map(|i| job.op(i).comm_meta().map(|m| m.tag))
        .max()
        .map_or(0, |t| t + 1)
}

/// The crashed rank's forwarding send `op`, re-issued from `slot` of the
/// promoted rank (whose edit state `edit` is) on a fresh `tag`.
fn forward_clone(op: &Op, tag: Tag, slot: Slot, edit: &mut Edit) -> Op {
    match *op {
        Op::Send { to, bytes, filter, .. } => Op::Send { to, tag, bytes, slot, filter },
        Op::Isend { to, bytes, filter, .. } => {
            Op::Isend { to, tag, bytes, slot, filter, req: edit.fresh_req() }
        }
        _ => unreachable!("outbound is a send"),
    }
}

/// Redirect a receive in place to a new source and tag (kind, slot and
/// request are preserved).
fn rewire_recv(edit: &mut Edit, idx: usize, new_from: usize, new_tag: Tag) {
    match edit.ops[idx].as_mut() {
        Some(Op::Recv { from, tag, .. }) | Some(Op::Irecv { from, tag, .. }) => {
            *from = new_from;
            *tag = new_tag;
        }
        other => unreachable!("rewire_recv on non-receive {other:?}"),
    }
}

/// Redirect a send in place to a new destination and tag.
fn rewire_send(edit: &mut Edit, idx: usize, new_to: usize, new_tag: Tag) {
    match edit.ops[idx].as_mut() {
        Some(Op::Send { to, tag, .. }) | Some(Op::Isend { to, tag, .. }) => {
            *to = new_to;
            *tag = new_tag;
        }
        other => unreachable!("rewire_send on non-send {other:?}"),
    }
}

/// Replace a send op with a clone sequence (first clone in place, the rest
/// inserted after it). The original request, if any, is scrubbed — clones
/// carry their own fresh requests.
fn replace_send(edit: &mut Edit, idx: usize, clones: Vec<Op>, stats: &mut (usize, usize, usize)) {
    if let Some(m) = edit.ops[idx].as_ref().and_then(Op::comm_meta) {
        if let Some(req) = m.req {
            edit.scrub_req(idx, req);
        }
    }
    let mut it = clones.into_iter();
    match it.next() {
        Some(first) => {
            edit.ops[idx] = Some(first);
            stats.1 += 1;
        }
        None => {
            edit.ops[idx] = None;
            stats.0 += 1;
        }
    }
    let rest: Vec<Op> = it.collect();
    stats.2 += rest.len();
    if !rest.is_empty() {
        edit.inserts.entry(idx).or_default().extend(rest);
    }
}

/// The local fold ops on a consumer that digest the value received at
/// `recv_idx` into `recv_slot` — the window ends at the first pure
/// overwrite of the slot. A *communication* op consuming the slot means the
/// consumer forwards the dead rank's aggregate onward; growing that pattern
/// per extra source would duplicate messages, so it is unsupported.
fn fold_ops(view: &View, rank: usize, recv_idx: usize, recv_slot: Slot) -> Result<Vec<usize>, RepairError> {
    let mut folds = Vec::new();
    for j in recv_idx + 1..view.job.rank_range(rank).len() {
        let op = view.rank_op(rank, j);
        if op.slots_read().contains(&Some(recv_slot)) {
            if op.comm_meta().is_some() {
                return Err(RepairError::Unsupported {
                    reason: format!(
                        "fan-in consumer rank {rank} forwards the received value (flat op {j}); \
                         duplicating the forward per source is not a sound rewrite"
                    ),
                });
            }
            match op {
                Op::ReduceLocal { .. } | Op::MergeMove { .. } | Op::OverwriteMove { .. } => {
                    folds.push(j);
                }
                other => {
                    return Err(RepairError::Unsupported {
                        reason: format!(
                            "fan-in consumer rank {rank} digests the received value with {other:?}; \
                             only fold ops (ReduceLocal/MergeMove/OverwriteMove) can be cloned \
                             per source"
                        ),
                    });
                }
            }
        } else if op.slot_written() == Some(recv_slot) {
            break; // pure overwrite: the window ends.
        }
    }
    Ok(folds)
}

/// Clone one fold op, re-pointing its source slot at `new_slot` and (for
/// `ReduceLocal`) re-declaring the folded byte count as the new source's.
fn clone_fold(op: &Op, old_slot: Slot, new_slot: Slot, bytes: u64) -> Op {
    match op {
        Op::ReduceLocal { from, into, .. } if *from == old_slot => {
            Op::ReduceLocal { from: new_slot, into: *into, bytes }
        }
        Op::MergeMove { from, into } if *from == old_slot => {
            Op::MergeMove { from: new_slot, into: *into }
        }
        Op::OverwriteMove { from, into } if *from == old_slot => {
            Op::OverwriteMove { from: new_slot, into: *into }
        }
        other => unreachable!("clone_fold on non-fold {other:?}"),
    }
}

/// Align the declared byte count of `ReduceLocal` folds consuming
/// `recv_slot` with the redirected first source's payload size (the lint's
/// size-mismatch check compares the two).
fn fix_fold_bytes(edit: &mut Edit, folds: &[usize], recv_slot: Slot, new_bytes: u64) {
    for &fi in folds {
        if let Some(Op::ReduceLocal { from, bytes, .. }) = edit.ops[fi].as_mut() {
            if *from == recv_slot {
                *bytes = new_bytes;
            }
        }
    }
}
