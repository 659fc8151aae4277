//! Static message matching: the timing-free mirror of the engine's FIFO
//! `(src, dst, tag)` channels.
//!
//! The engine matches the k-th send posted on a channel with the k-th
//! receive posted on it, *regardless of interleaving* (both sides are FIFO
//! deques). Posting order per rank is program order, so the pairing is fully
//! determined statically: pair the k-th send in the sender's program with
//! the k-th receive in the receiver's program, per channel.

use pap_sim::program::{CommDir, Tag};

use crate::diag::{DiagClass, Diagnostic, Severity};
use crate::view::{View, NONE};

/// One end of a message on a channel out of a known sender:
/// `(receiver, tag, global op index)`. Sorted, a sender's ends group by
/// channel, each group in program order.
type End = (usize, Tag, usize);

/// Build the static pairing over `view.ops` (the counterpart of every
/// matched send and receive, [`NONE`] elsewhere) and report self-sends,
/// out-of-range peers, unmatched messages and tag conflicts.
pub(crate) fn pair(view: &View, diags: &mut Vec<Diagnostic>) -> Vec<usize> {
    let ranks = view.ranks();
    // Both ends of every valid message, bucketed by sending rank: sends
    // arrive in rank-major order already, receives (tagged with the rank
    // they name) are bucketed after the scan.
    let mut sends: Vec<End> = Vec::new();
    let mut send_off = Vec::with_capacity(ranks + 1);
    let mut named: Vec<(usize, End)> = Vec::new();
    for rank in 0..ranks {
        send_off.push(sends.len());
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
            } else {
                match m.dir {
                    CommDir::Send => sends.push((m.peer, m.tag, i)),
                    CommDir::Recv => named.push((m.peer, (rank, m.tag, i))),
                }
            }
        }
    }
    send_off.push(sends.len());
    let mut recv_off = vec![0; ranks + 1];
    for &(src, _) in &named {
        recv_off[src + 1] += 1;
    }
    for src in 0..ranks {
        recv_off[src + 1] += recv_off[src];
    }
    let mut recvs = vec![(0, 0, 0); named.len()];
    let mut fill = recv_off.clone();
    for (src, end) in named {
        recvs[fill[src]] = end;
        fill[src] += 1;
    }

    let mut pair = vec![NONE; view.ops.len()];
    for src in 0..ranks {
        let ss = &mut sends[send_off[src]..send_off[src + 1]];
        let rs = &mut recvs[recv_off[src]..recv_off[src + 1]];
        ss.sort_unstable();
        rs.sort_unstable();
        // Merge-join the sender's two sorted lists channel by channel.
        let (mut ss, mut rs) = (&*ss, &*rs);
        while let Some(&(dst, tag, _)) = [ss.first(), rs.first()].into_iter().flatten().min() {
            let n_s = ss.iter().take_while(|&&(d, t, _)| (d, t) == (dst, tag)).count();
            let n_r = rs.iter().take_while(|&&(d, t, _)| (d, t) == (dst, tag)).count();
            let (chan_s, chan_r);
            ((chan_s, ss), (chan_r, rs)) = (ss.split_at(n_s), rs.split_at(n_r));
            channel(view, (src, dst, tag), chan_s, chan_r, &mut pair, diags);
        }
    }
    pair
}

/// Pair the sends and receives of one `(src, dst, tag)` channel, both in
/// program order, and report its unmatched ends and tag conflicts.
fn channel(
    view: &View,
    (src, dst, tag): (usize, usize, Tag),
    sends: &[End],
    recvs: &[End],
    pair: &mut [usize],
    diags: &mut Vec<Diagnostic>,
) {
    for (&(_, _, s), &(_, _, r)) in sends.iter().zip(recvs) {
        pair[s] = r;
        pair[r] = s;
    }
    for (class, (end, ends), (other, others)) in [
        (DiagClass::UnmatchedSend, ("send", sends), ("receive", recvs)),
        (DiagClass::UnmatchedRecv, ("receive", recvs), ("send", sends)),
    ] {
        for &(_, _, i) in ends.iter().skip(others.len()) {
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
        let sizes: Vec<u64> = sends.iter().map(|&(_, _, s)| bytes(s)).collect();
        let uniform = sizes.windows(2).all(|w| w[0] == w[1]);
        diags.push(Diagnostic {
            class: DiagClass::TagConflict,
            severity: if uniform { Severity::Warning } else { Severity::Error },
            loc: view.loc(sends[1].2),
            message: format!(
                "{} messages share channel {src}->{dst} tag {tag} ({}); \
                 FIFO-ordered reuse — sizes {:?}",
                sends.len(),
                if uniform { "uniform sizes" } else { "DIFFERING sizes" },
                sizes,
            ),
            related: vec![view.loc(sends[0].2)],
        });
    }
}
