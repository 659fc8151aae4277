//! Timing-free abstract execution: deadlock and protocol-fragility
//! detection.
//!
//! Each rank is advanced as far as its blocking ops allow, using the static
//! pairing from the matching pass as the channel model:
//!
//! * an **eager send** (`bytes <= eager_threshold`) completes at posting;
//! * a **rendezvous send** completes once its matched receive is posted;
//! * a **receive** completes once its matched send is posted;
//! * a **`WaitAll`** completes once every listed request's counterpart
//!   condition holds.
//!
//! "Posted" is position-based: a blocking op is posted when control reaches
//! it (the engine enqueues the message/receive *before* suspending the
//! rank), a non-blocking op once control has passed it. Completion is
//! monotone in the vector of rank positions, so the least fixpoint — reached
//! with a simple wake-list worklist in `O(total ops)` — is *the* unique
//! outcome of the schedule under every interleaving.
//!
//! Two passes run: the actual protocol split (stuck cycle ⇒
//! [`DiagClass::Deadlock`]) and, when the first completes, an
//! all-rendezvous pass (stuck cycle ⇒ [`DiagClass::ProtocolFragility`]:
//! the schedule relies on eager buffering and hangs as soon as its sizes
//! cross the threshold). Ranks stuck only because a message is unmatched
//! are attributed to the matching diagnostics, not double-reported here.

use std::collections::HashMap;

use pap_sim::program::{CommDir, CommMeta};
use pap_sim::Op;

use crate::channels::Matching;
use crate::diag::{DiagClass, Diagnostic, OpLoc, Severity};
use crate::{FlatProgram, LintConfig};

/// `Some(threshold)`: the platform's split. `None`: every send rendezvous.
type Protocol = Option<u64>;

fn is_eager(bytes: u64, proto: Protocol) -> bool {
    proto.is_some_and(|th| bytes <= th)
}

/// Why a rank cannot advance past its current op.
pub(crate) enum Stall {
    /// Waiting for the peer rank to reach flat index `flat`
    /// (`strict`: must move *past* it, for non-blocking counterparts).
    On { rank: usize, flat: usize, strict: bool },
    /// The op (or one of the waited requests) has no matched counterpart.
    Unmatched,
}

pub(crate) struct ExecOutcome {
    /// Per rank: `None` if the rank finished, else the flat index it
    /// stalled at together with the reason.
    pub stalled: Vec<Option<(usize, Stall)>>,
}

/// Fail-stop assumptions for a crash-cone run: per rank, `Some(k)` means the
/// rank completed exactly its first `k` flattened ops and then died.
///
/// Mirrors the engine's crash semantics for a rank halting *while
/// attempting* op `k`: nothing of op `k` escapes. A send never injects its
/// message (the sender dies during the send overhead), a receive never
/// enters the matching queue (posting charges `recv_overhead` and "died
/// posting the receive: nothing was matched or consumed"), so a crashed
/// rank's op at `k` is never "posted" — unlike a live rank parked on a
/// blocking op. Ops below `k` completed normally: messages they sent are in
/// flight (survivor receives still complete — the engine only drops
/// deliveries *addressed to* the dead rank), receives they posted consumed
/// their counterpart.
pub(crate) struct CrashPlan {
    /// `limits[r] = Some(k)`: rank `r` fail-stops having completed `[0, k)`.
    pub limits: Vec<Option<usize>>,
}

/// Run both protocol passes and emit deadlock / fragility diagnostics.
pub(crate) fn check(
    flat: &[FlatProgram<'_>],
    matching: &Matching,
    cfg: &LintConfig,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let actual = execute(flat, matching, Some(cfg.eager_threshold), None);
    if let Some(d) = cycle_diagnostic(flat, &actual, DiagClass::Deadlock, cfg.eager_threshold) {
        diags.push(d);
        return diags; // A real deadlock subsumes the fragility question.
    }
    let completed = actual.stalled.iter().all(Option::is_none);
    if completed {
        let rdv = execute(flat, matching, None, None);
        if let Some(d) = cycle_diagnostic(flat, &rdv, DiagClass::ProtocolFragility, cfg.eager_threshold) {
            diags.push(d);
        }
    }
    diags
}

/// Advance every rank to the least fixpoint under `proto`.
///
/// With a [`CrashPlan`], crashed ranks are frozen at their completed-op
/// count and never advance; they are reported as *not* stalled (dead by
/// design, not starved) — survivors transitively blocked on them surface
/// in `stalled` as the crash cone.
pub(crate) fn execute(
    flat: &[FlatProgram<'_>],
    matching: &Matching,
    proto: Protocol,
    crash: Option<&CrashPlan>,
) -> ExecOutcome {
    let ranks = flat.len();
    let crashed_limit =
        |r: usize| -> Option<usize> { crash.and_then(|c| c.limits.get(r).copied().flatten()) };
    let mut pos = vec![0usize; ranks];
    // Posted-but-unwaited requests: req → flat index of the posting op.
    let mut pending: Vec<HashMap<usize, usize>> = vec![HashMap::new(); ranks];
    // waiters[r] = ranks to re-try once pos[r] satisfies (flat, strict).
    let mut waiters: Vec<Vec<(usize, bool, usize)>> = vec![Vec::new(); ranks];
    let mut stalled: Vec<Option<(usize, Stall)>> = (0..ranks).map(|_| None).collect();
    let mut queue: Vec<usize> = Vec::with_capacity(ranks);
    let mut queued = vec![false; ranks];
    for r in 0..ranks {
        match crashed_limit(r) {
            // The completed prefix is a premise of the crash point, not
            // something to re-derive: pin the position and never run the
            // rank.
            Some(k) => pos[r] = k.min(flat[r].ops.len()),
            None => {
                queued[r] = true;
                queue.push(r);
            }
        }
    }

    while let Some(r) = queue.pop() {
        queued[r] = false;
        loop {
            let Some(f) = flat[r].ops.get(pos[r]) else {
                stalled[r] = None;
                break;
            };
            match try_complete(f.op, r, pos[r], &pos, &pending[r], matching, proto, flat, crash) {
                Ok(freed) => {
                    for req in freed {
                        pending[r].remove(&req);
                    }
                    if let Some(m) = f.op.comm_meta() {
                        if let Some(req) = m.req {
                            pending[r].insert(req, pos[r]);
                        }
                    }
                    pos[r] += 1;
                    wake(&mut waiters, &mut queue, &mut queued, &pos, r);
                }
                Err(stall) => {
                    if let Stall::On { rank, flat: need, strict } = stall {
                        waiters[rank].push((need, strict, r));
                    }
                    stalled[r] = Some((pos[r], stall));
                    // Arriving at a blocking op posts it: peers waiting for
                    // pos[r] == current (non-strict) may now proceed.
                    wake(&mut waiters, &mut queue, &mut queued, &pos, r);
                    break;
                }
            }
        }
        if pos[r] >= flat[r].ops.len() {
            stalled[r] = None;
        }
    }
    ExecOutcome { stalled }
}

fn wake(
    waiters: &mut [Vec<(usize, bool, usize)>],
    queue: &mut Vec<usize>,
    queued: &mut [bool],
    pos: &[usize],
    r: usize,
) {
    let mut i = 0;
    while i < waiters[r].len() {
        let (need, strict, who) = waiters[r][i];
        let ready = if strict { pos[r] > need } else { pos[r] >= need };
        if ready {
            waiters[r].swap_remove(i);
            if !queued[who] {
                queued[who] = true;
                queue.push(who);
            }
        } else {
            i += 1;
        }
    }
}

/// Is the counterpart of `m` (at `c_rank`/`c_flat`) posted, given positions?
fn counterpart_posted(
    flat: &[FlatProgram<'_>],
    pos: &[usize],
    c_rank: usize,
    c_flat: usize,
    crash: Option<&CrashPlan>,
) -> Result<(), Stall> {
    // Blocking counterparts post on arrival (pos == flat); non-blocking
    // ones once executed (pos > flat).
    let strict = !flat[c_rank].ops[c_flat].op.is_blocking();
    let ready = match crash.and_then(|c| c.limits.get(c_rank).copied().flatten()) {
        // A crashed counterpart only counts if it *completed* before death:
        // the op it died attempting never entered the channels (no message
        // injected, no receive posted), so the usual "blocking ops post on
        // arrival" rule does not apply at the crash position.
        Some(k) => c_flat < k,
        None => {
            if strict {
                pos[c_rank] > c_flat
            } else {
                pos[c_rank] >= c_flat
            }
        }
    };
    if ready {
        Ok(())
    } else {
        Err(Stall::On { rank: c_rank, flat: c_flat, strict })
    }
}

/// Can the op at `(r, i)` complete now? On success returns the requests it
/// frees (for `WaitAll`).
#[allow(clippy::too_many_arguments)]
fn try_complete(
    op: &Op,
    r: usize,
    i: usize,
    pos: &[usize],
    pending: &HashMap<usize, usize>,
    matching: &Matching,
    proto: Protocol,
    flat: &[FlatProgram<'_>],
    crash: Option<&CrashPlan>,
) -> Result<Vec<usize>, Stall> {
    match op {
        Op::Send { bytes, .. } => {
            if is_eager(*bytes, proto) {
                return Ok(vec![]);
            }
            match matching.send_match[r].get(&i) {
                None => Err(Stall::Unmatched),
                Some(c) => counterpart_posted(flat, pos, c.rank, c.flat, crash).map(|()| vec![]),
            }
        }
        Op::Recv { .. } => match matching.recv_match[r].get(&i) {
            None => Err(Stall::Unmatched),
            Some(c) => counterpart_posted(flat, pos, c.rank, c.flat, crash).map(|()| vec![]),
        },
        Op::WaitAll { reqs } => {
            for &req in reqs {
                // Never-posted requests are reported by the request-lifecycle
                // pass; treating them as satisfied avoids cascading stalls.
                let Some(&j) = pending.get(&req) else { continue };
                let m: CommMeta = flat[r].ops[j].op.comm_meta().expect("pending req posted by comm op");
                match m.dir {
                    CommDir::Send => {
                        if is_eager(m.bytes.unwrap_or(0), proto) {
                            continue;
                        }
                        match matching.send_match[r].get(&j) {
                            None => return Err(Stall::Unmatched),
                            Some(c) => counterpart_posted(flat, pos, c.rank, c.flat, crash)?,
                        }
                    }
                    CommDir::Recv => match matching.recv_match[r].get(&j) {
                        None => return Err(Stall::Unmatched),
                        Some(c) => counterpart_posted(flat, pos, c.rank, c.flat, crash)?,
                    },
                }
            }
            Ok(reqs.clone())
        }
        // Isend/Irecv post and continue; local ops never wait on a peer.
        _ => Ok(vec![]),
    }
}

/// Extract a wait-for cycle among the stalled ranks and render it as one
/// diagnostic. Ranks stalled on an unmatched message (or transitively only
/// on such ranks) are the matching pass's findings, not a cycle.
fn cycle_diagnostic(
    flat: &[FlatProgram<'_>],
    outcome: &ExecOutcome,
    class: DiagClass,
    eager_threshold: u64,
) -> Option<Diagnostic> {
    let ranks = outcome.stalled.len();
    // wait-for edge r → peer, for matched stalls only.
    let mut edge: Vec<Option<usize>> = vec![None; ranks];
    for (r, s) in outcome.stalled.iter().enumerate() {
        if let Some((_, Stall::On { rank, .. })) = s {
            edge[r] = Some(*rank);
        }
    }
    // Follow edges from each stalled rank; a rank revisited within one walk
    // is on a cycle.
    let mut color = vec![0u8; ranks]; // 0 unvisited, 1 on current walk, 2 done
    for start in 0..ranks {
        if edge[start].is_none() || color[start] != 0 {
            continue;
        }
        let mut walk = Vec::new();
        let mut cur = start;
        while color[cur] == 0 {
            color[cur] = 1;
            walk.push(cur);
            match edge[cur] {
                Some(next) => cur = next,
                None => break,
            }
        }
        if color[cur] == 1 {
            // `cur` starts the cycle.
            let cycle: Vec<usize> = {
                let k = walk.iter().position(|&x| x == cur).unwrap();
                walk[k..].to_vec()
            };
            let locs: Vec<OpLoc> = cycle
                .iter()
                .map(|&r| flat[r].ops[outcome.stalled[r].as_ref().unwrap().0].loc)
                .collect();
            let chain = cycle
                .iter()
                .map(|r| r.to_string())
                .collect::<Vec<_>>()
                .join(" -> ");
            let message = match class {
                DiagClass::ProtocolFragility => format!(
                    "completes only through eager buffering: with every send rendezvous, \
                     ranks {chain} -> {} form a wait-for cycle — the schedule hangs once \
                     message sizes exceed the eager threshold ({eager_threshold} B)",
                    cycle[0]
                ),
                _ => format!(
                    "wait-for cycle: ranks {chain} -> {} block on each other under the \
                     eager/rendezvous split (threshold {eager_threshold} B)",
                    cycle[0]
                ),
            };
            return Some(Diagnostic {
                class,
                severity: Severity::Error,
                loc: locs[0],
                message,
                related: locs[1..].to_vec(),
            });
        }
        for &r in &walk {
            color[r] = 2;
        }
        color[cur] = 2;
    }
    None
}
