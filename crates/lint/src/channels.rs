//! Channel findings: self-addressed and out-of-range peers, unmatched
//! messages and tag conflicts, over the FIFO `(src, dst, tag)` channels of
//! the job.
//!
//! The pairing itself is not derived here: by the non-overtaking rule the
//! k-th send on a channel matches the k-th receive posted on it, whatever
//! the interleaving, so [`Job::new`] pairs every message once and
//! [`Job::channels`] hands out the same walk's channels, each with its
//! sends and receives in program order.

use pap_sim::program::Channel;

use crate::diag::{DiagClass, Diagnostic, Severity};
use crate::view::{View, NONE};

/// The job's pairing over its global op indices (the counterpart of every
/// matched send and receive, [`NONE`] elsewhere), reporting self-sends,
/// out-of-range peers, unmatched messages and tag conflicts.
pub(crate) fn pair(view: &View, diags: &mut Vec<Diagnostic>) -> Vec<usize> {
    let ranks = view.job.ranks();
    for rank in 0..ranks {
        for i in view.job.rank_range(rank) {
            let Some(m) = view.job.op(i).comm_meta() else { continue };
            let (class, message) = if m.peer == rank {
                (DiagClass::SelfMessage, format!("rank {rank} addresses itself (tag {})", m.tag))
            } else if m.peer >= ranks {
                (DiagClass::PeerOutOfRange, format!("peer {} out of range for {ranks} ranks", m.peer))
            } else {
                continue;
            };
            diags.push(Diagnostic { class, severity: Severity::Error, loc: view.loc(rank, i), message, related: vec![] });
        }
    }
    let mut pair = vec![NONE; view.job.total_ops()];
    view.job.channels(|c| channel(view, c, &mut pair, diags));
    pair
}

/// Pair the sends and receives of one `(src, dst, tag)` channel, both in
/// program order, and report its unmatched ends and tag conflicts.
fn channel(view: &View, c: Channel, pair: &mut [usize], diags: &mut Vec<Diagnostic>) {
    let Channel { src, dst, tag, sends, recvs } = c;
    for (&s, &r) in sends.iter().zip(recvs) {
        pair[s] = r;
        pair[r] = s;
    }
    for (class, (end, ends, owner), (other, others)) in [
        (DiagClass::UnmatchedSend, ("send", sends, src), ("receive", recvs)),
        (DiagClass::UnmatchedRecv, ("receive", recvs, dst), ("send", sends)),
    ] {
        for &i in ends.iter().skip(others.len()) {
            diags.push(Diagnostic {
                class,
                severity: Severity::Error,
                loc: view.loc(owner, i),
                message: format!(
                    "{end} {src}->{dst} tag {tag}: {} {end}(s) but only {} {other}(s) on the channel",
                    ends.len(),
                    others.len()
                ),
                related: vec![],
            });
        }
    }
    // Tag-conflict lint: ≥ 2 messages on one channel means two can be
    // outstanding concurrently (an eager send stays buffered until its
    // receive is posted). FIFO order keeps the pairing well-defined here,
    // so identical sizes are a warning (verify the reuse is intentional);
    // differing sizes are an error — on any transport without total
    // per-channel ordering the pairing is ambiguous.
    if sends.len() >= 2 {
        let bytes = |s: usize| view.job.op(s).comm_meta().and_then(|m| m.bytes).unwrap_or(0);
        let sizes: Vec<u64> = sends.iter().map(|&s| bytes(s)).collect();
        let uniform = sizes.windows(2).all(|w| w[0] == w[1]);
        diags.push(Diagnostic {
            class: DiagClass::TagConflict,
            severity: if uniform { Severity::Warning } else { Severity::Error },
            loc: view.loc(src, sends[1]),
            message: format!(
                "{} messages share channel {src}->{dst} tag {tag} ({}); \
                 FIFO-ordered reuse — sizes {:?}",
                sends.len(),
                if uniform { "uniform sizes" } else { "DIFFERING sizes" },
                sizes,
            ),
            related: vec![view.loc(src, sends[0])],
        });
    }
}
