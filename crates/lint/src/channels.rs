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
use pap_sim::Job;

use crate::diag::{DiagClass, Diagnostic, Severity};
use crate::view::{View, NONE};

/// The job's pairing over `view.ops` (the counterpart of every matched
/// send and receive, [`NONE`] elsewhere), reporting self-sends,
/// out-of-range peers, unmatched messages and tag conflicts.
pub(crate) fn pair(view: &View, job: &Job, diags: &mut Vec<Diagnostic>) -> Vec<usize> {
    let ranks = view.ranks();
    for rank in 0..ranks {
        for i in view.range(rank) {
            let Some(m) = view.ops[i].comm_meta() else { continue };
            if m.peer == rank {
                diags.push(Diagnostic {
                    class: DiagClass::SelfMessage,
                    severity: Severity::Error,
                    loc: view.loc(i),
                    message: format!("rank {rank} addresses itself (tag {})", m.tag),
                    related: vec![],
                });
            } else if m.peer >= ranks {
                diags.push(Diagnostic {
                    class: DiagClass::PeerOutOfRange,
                    severity: Severity::Error,
                    loc: view.loc(i),
                    message: format!("peer {} out of range for {ranks} ranks", m.peer),
                    related: vec![],
                });
            }
        }
    }
    let mut pair = vec![NONE; view.ops.len()];
    job.channels(|c| channel(view, c, &mut pair, diags));
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
    for (class, (end, ends), (other, others)) in [
        (DiagClass::UnmatchedSend, ("send", sends), ("receive", recvs)),
        (DiagClass::UnmatchedRecv, ("receive", recvs), ("send", sends)),
    ] {
        for &i in ends.iter().skip(others.len()) {
            diags.push(Diagnostic {
                class,
                severity: Severity::Error,
                loc: view.loc(i),
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
        let bytes = |s: usize| view.ops[s].comm_meta().and_then(|m| m.bytes).unwrap_or(0);
        let sizes: Vec<u64> = sends.iter().map(|&s| bytes(s)).collect();
        let uniform = sizes.windows(2).all(|w| w[0] == w[1]);
        diags.push(Diagnostic {
            class: DiagClass::TagConflict,
            severity: if uniform { Severity::Warning } else { Severity::Error },
            loc: view.loc(sends[1]),
            message: format!(
                "{} messages share channel {src}->{dst} tag {tag} ({}); \
                 FIFO-ordered reuse — sizes {:?}",
                sends.len(),
                if uniform { "uniform sizes" } else { "DIFFERING sizes" },
                sizes,
            ),
            related: vec![view.loc(sends[0])],
        });
    }
}
