//! Timing-free abstract execution: deadlock and protocol-fragility
//! detection.
//!
//! Each rank is advanced as far as its blocking ops allow, using the static
//! pairing of the [`View`] as the channel model:
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
//! monotone in the vector of rank positions, so the least fixpoint is *the*
//! unique outcome of the schedule under every interleaving.
//!
//! The fixpoint is linear in the total op count: a stalled rank parks on a
//! list keyed by the one op it needs and is woken exactly when that op
//! becomes posted, never rescanned while the peer advances elsewhere; a
//! `WaitAll` resumes at its first unsatisfied request; the pairing and the
//! request table are the view's, built once. A whole `lint_job` takes
//! 0.7–2.0× a steady noise-free engine run of the same job on the perfbench
//! engine schedules (release, 2-vCPU AMD EPYC; table in DESIGN.md §7).
//!
//! Two protocols are checked: the actual split (stuck cycle ⇒
//! [`DiagClass::Deadlock`]) and, when that completes, all-rendezvous
//! (stuck cycle ⇒ [`DiagClass::ProtocolFragility`]: the schedule relies on
//! eager buffering and hangs as soon as its sizes cross the threshold).
//! Ranks stuck only because a message is unmatched are attributed to the
//! matching diagnostics, not double-reported here.

use pap_sim::program::CommDir;
use pap_sim::Op;

use crate::diag::{DiagClass, Diagnostic, OpLoc, Severity};
use crate::view::{View, NONE};
use crate::LintConfig;

/// `Some(threshold)`: the platform's split. `None`: every send rendezvous.
type Protocol = Option<u64>;

/// Where a rank stopped for good, and on whom.
pub(crate) struct Stalled {
    /// The op (global index) it cannot complete.
    pub(crate) at: usize,
    /// The rank whose op it waits for; `None` when the op (or one of the
    /// waited requests) has no matched counterpart.
    pub(crate) on: Option<usize>,
}

/// Run the protocol passes and emit deadlock / fragility diagnostics.
///
/// The all-rendezvous pass runs first: its conditions only add to the
/// actual split's, so when it completes the actual pass completes too and a
/// clean schedule costs one pass.
pub(crate) fn check(view: &View, cfg: &LintConfig) -> Vec<Diagnostic> {
    let completes = |stalled: &[Option<Stalled>]| stalled.iter().all(Option::is_none);
    let rdv = execute(view, None, &[]);
    if completes(&rdv) {
        return vec![];
    }
    let actual = execute(view, Some(cfg.eager_threshold), &[]);
    let found = if completes(&actual) {
        cycle_diagnostic(view, &rdv, DiagClass::ProtocolFragility, cfg.eager_threshold)
    } else {
        // A real deadlock subsumes the fragility question.
        cycle_diagnostic(view, &actual, DiagClass::Deadlock, cfg.eager_threshold)
    };
    found.into_iter().collect()
}

/// Whether an op (or one request of a `WaitAll`) can complete yet.
enum Wait {
    Done,
    /// On the counterpart op `c`, owned by rank `q`: `On(c, q)`.
    On(usize, usize),
    /// Its message has no counterpart.
    Unmatched,
}

/// Advance every rank to the least fixpoint under `proto`; per rank, `None`
/// if it finished, else where it stalled.
///
/// `crashed[r] = Some(k)` (an empty slice crashes nobody) fail-stops rank
/// `r` having completed exactly its first `k` flattened ops, mirroring the
/// engine's crash semantics for a rank halting *while attempting* op `k`:
/// nothing of op `k` escapes. A send never injects its message (the sender
/// dies during the send overhead), a receive never enters the matching
/// queue (posting charges `recv_overhead` and "died posting the receive:
/// nothing was matched or consumed"), so a crashed rank's op at `k` is
/// never "posted" — unlike a live rank parked on a blocking op. Ops below
/// `k` completed normally: messages they sent are in flight (survivor
/// receives still complete — the engine only drops deliveries *addressed
/// to* the dead rank), receives they posted consumed their counterpart.
/// Crashed ranks are frozen and reported as *not* stalled (dead by design,
/// not starved); survivors transitively blocked on them surface as
/// stalled: the crash cone.
pub(crate) fn execute(
    view: &View,
    proto: Protocol,
    crashed: &[Option<usize>],
) -> Vec<Option<Stalled>> {
    let ranks = view.ranks();
    let limit = |r: usize| crashed.get(r).copied().flatten();
    let mut pos = view.start[..ranks].to_vec();
    // Per rank, the first entry of `view.waited` its current WaitAll has
    // not yet seen satisfied (entries before it stay satisfied: completion
    // is monotone).
    let mut cursor = vec![0usize; ranks];
    // Stalled ranks parked on the op they need, as intrusive lists:
    // `parked[c]` heads the list of ranks waiting for op `c` to be posted,
    // `next[r]` links them (a stalled rank waits on exactly one op).
    let mut parked = vec![NONE; view.ops.len()];
    let mut next = vec![NONE; ranks];
    let mut stalled: Vec<Option<Stalled>> = (0..ranks).map(|_| None).collect();
    let mut queue: Vec<usize> = Vec::with_capacity(ranks);
    for (r, pos) in pos.iter_mut().enumerate() {
        match limit(r) {
            // The completed prefix is a premise of the crash point, not
            // something to re-derive: pin the position and never run the
            // rank.
            Some(k) => *pos += k.min(view.range(r).len()),
            None => queue.push(r),
        }
    }
    // Can message op `j` (or the request it posted) complete? A crashed
    // counterpart only counts if it *completed* before death: the op it
    // died attempting never entered the channels, so "blocking ops post on
    // arrival" does not hold at the crash position.
    let wait = |pos: &[usize], j: usize| {
        let m = view.ops[j].comm_meta().expect("a message op");
        let c = view.pair[j];
        if m.dir == CommDir::Send && proto.is_some_and(|th| m.bytes.unwrap_or(0) <= th) {
            return Wait::Done;
        } else if c == NONE {
            return Wait::Unmatched;
        }
        let q = m.peer;
        let posted = match limit(q) {
            Some(k) => c < view.start[q] + k,
            None if view.ops[c].is_blocking() => pos[q] >= c,
            None => pos[q] > c,
        };
        if posted {
            Wait::Done
        } else {
            Wait::On(c, q)
        }
    };

    while let Some(r) = queue.pop() {
        let end = view.start[r + 1];
        while pos[r] < end {
            let i = pos[r];
            let w = match &view.ops[i] {
                Op::Send { .. } | Op::Recv { .. } => wait(&pos, i),
                Op::WaitAll { .. } => {
                    cursor[r] = cursor[r].max(view.wait_off[i]);
                    loop {
                        if cursor[r] == view.wait_off[i + 1] {
                            break Wait::Done;
                        }
                        match wait(&pos, view.waited[cursor[r]]) {
                            Wait::Done => cursor[r] += 1,
                            w => break w,
                        }
                    }
                }
                // Isend/Irecv post and continue; local ops never wait on a peer.
                _ => Wait::Done,
            };
            match w {
                Wait::Done => {
                    pos[r] = i + 1;
                    // Passing op i posts it if it is non-blocking; arriving
                    // at op i + 1 posts that one if it is blocking.
                    wake(&mut parked, &mut next, &mut queue, i);
                    if i + 1 < end && view.ops[i + 1].is_blocking() {
                        wake(&mut parked, &mut next, &mut queue, i + 1);
                    }
                }
                Wait::On(c, q) => {
                    next[r] = std::mem::replace(&mut parked[c], r);
                    stalled[r] = Some(Stalled { at: i, on: Some(q) });
                    break;
                }
                Wait::Unmatched => {
                    stalled[r] = Some(Stalled { at: i, on: None });
                    break;
                }
            }
        }
        if pos[r] == end {
            stalled[r] = None;
        }
    }
    stalled
}

/// Queue every rank parked on op `c`.
fn wake(parked: &mut [usize], next: &mut [usize], queue: &mut Vec<usize>, c: usize) {
    let mut r = std::mem::replace(&mut parked[c], NONE);
    while r != NONE {
        queue.push(r);
        r = std::mem::replace(&mut next[r], NONE);
    }
}

/// Extract a wait-for cycle among the stalled ranks and render it as one
/// diagnostic. Ranks stalled on an unmatched message (or transitively only
/// on such ranks) are the matching pass's findings, not a cycle.
fn cycle_diagnostic(
    view: &View,
    stalled: &[Option<Stalled>],
    class: DiagClass,
    eager_threshold: u64,
) -> Option<Diagnostic> {
    let ranks = stalled.len();
    // wait-for edge r → peer, for matched stalls only.
    let edge: Vec<Option<usize>> = stalled.iter().map(|s| s.as_ref().and_then(|s| s.on)).collect();
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
                .map(|&r| view.loc(stalled[r].as_ref().unwrap().at))
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
