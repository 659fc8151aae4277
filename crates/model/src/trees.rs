//! Analytical models for tree-structured schedules: segmented tree
//! reduce/bcast, the in-order binary reduce, and the linear/binomial
//! gather/scatter substrates.
//!
//! Every gather-like phase (tree reduce, the in-order binary reduce,
//! binomial gather) is one up-walk, [`up_walk`]: children before parents,
//! each rank draining its children with blocking receives and forwarding
//! to its parent. A caller states only the vrank → rank map, the child
//! order and the bytes sent and reduced per edge. The distributions keep
//! their own walks, parents before children: Bcast's non-blocking sends
//! resolve each message when the child is replayed, Scatter's blocking
//! sends when the parent is, and the linear gather/scatter walk ranks in
//! rank order. Every walk replays the builder's per-rank op sequence
//! through [`Net::msg`]. Non-blocking send completions that a rank only
//! waits on at the end of its schedule are folded into a running per-rank
//! maximum in `pending` and joined with the exit time by
//! [`RankEnds::finish`]. Tree topologies and replay orders come pre-built
//! from [`crate::plan`]; the vrank rotation and binomial subtree sizes are
//! the builders' own [`pap_collectives::topo`] helpers.

use pap_collectives::topo::{self, actual};
use pap_sim::Platform;

use crate::net::Net;
use crate::plan::TreePlan;

/// Per-rank clocks at the end of a modeled phase: `local` is the clock after
/// the last op issued, `pending[r]` the latest completion among rank `r`'s
/// outstanding send requests (waitall / trailing blocking send), or `−∞` if
/// none.
pub(crate) struct RankEnds {
    pub(crate) local: Vec<f64>,
    pub(crate) pending: Vec<f64>,
}

impl RankEnds {
    fn new(starts: &[f64]) -> RankEnds {
        RankEnds { local: starts.to_vec(), pending: vec![f64::NEG_INFINITY; starts.len()] }
    }

    /// Exit time per rank: local clock joined with all pending completions.
    pub(crate) fn finish(&self) -> Vec<f64> {
        self.local.iter().zip(&self.pending).map(|(&l, &pend)| l.max(pend)).collect()
    }
}

/// The up-walk of every gather-like phase, over the plan's tree. `act`
/// maps the plan's vranks to ranks; a rank drains its children in plan
/// order, or in reverse with `reversed`. Per segment of `segs`, a rank
/// blocking-receives from each child — `edge(cv, sb)` is the bytes child
/// vrank `cv` sends for a segment of `sb` bytes and the bytes the rank then
/// reduces in — and forwards its own partial to its parent with a send it
/// waits on at the end of its schedule. A blocking send that is the rank's
/// last op times the same, so its completion is folded in via `pending`.
#[allow(clippy::too_many_arguments)]
fn up_walk(
    pf: &Platform,
    net: &mut Net,
    plan: &TreePlan,
    act: impl Fn(usize) -> usize,
    reversed: bool,
    segs: &[u64],
    edge: impl Fn(usize, u64) -> (u64, u64),
    starts: &[f64],
) -> RankEnds {
    let p = plan.nodes.len();
    let nseg = segs.len();
    let gamma = pf.reduce_cost_per_byte;
    let mut ends = RankEnds::new(starts);
    // pres[v * nseg + s]: vrank v's clock just before its send of segment s.
    let mut pres = vec![f64::NAN; p * nseg];
    for &v in &plan.up {
        let node = &plan.nodes[v];
        let kids = &node.children;
        let r = act(v);
        let mut t = ends.local[r];
        for (s, &sb) in segs.iter().enumerate() {
            for k in 0..kids.len() {
                let cv = kids[if reversed { kids.len() - 1 - k } else { k }];
                let c = act(cv);
                let (sent, reduced) = edge(cv, sb);
                t += pf.recv_overhead;
                let out = net.msg(c, r, sent, pres[cv * nseg + s], t);
                ends.pending[c] = ends.pending[c].max(out.send_done);
                t = out.recv_done + reduced as f64 * gamma;
            }
            if node.parent.is_some() {
                pres[v * nseg + s] = t;
                t += pf.send_overhead;
            }
        }
        ends.local[r] = t;
    }
    ends
}

/// Segmented tree reduction (Reduce IDs 1–5 and the reduce halves of
/// Allreduce 1–2) over vranks rotated to `root`: per segment, a rank
/// receives and reduces each child's partial, then forwards its own with a
/// non-blocking send; all sends are waited at the end.
pub(crate) fn tree_reduce(
    pf: &Platform,
    net: &mut Net,
    root: usize,
    segs: &[u64],
    plan: &TreePlan,
    starts: &[f64],
) -> RankEnds {
    let p = plan.nodes.len();
    up_walk(pf, net, plan, |v| actual(v, root, p), false, segs, |_, sb| (sb, sb), starts)
}

/// Segmented tree broadcast (Bcast IDs 1–5, including propagate mode — the
/// root's init is free either way). Per segment, a rank blocks on the recv
/// from its parent, then issues one non-blocking send per child.
pub(crate) fn tree_bcast(
    pf: &Platform,
    net: &mut Net,
    root: usize,
    segs: &[u64],
    plan: &TreePlan,
    starts: &[f64],
) -> RankEnds {
    let p = plan.nodes.len();
    let nseg = segs.len();
    let mut ends = RankEnds::new(starts);
    // pres[cv * nseg + s]: the parent's clock just before its isend of
    // segment s to child vrank cv.
    let mut pres = vec![f64::NAN; p * nseg];
    for &v in &plan.down {
        let node = &plan.nodes[v];
        let r = actual(v, root, p);
        let mut t = ends.local[r];
        for (s, &sb) in segs.iter().enumerate() {
            if let Some(pv) = node.parent {
                let pr = actual(pv, root, p);
                t += pf.recv_overhead;
                let out = net.msg(pr, r, sb, pres[v * nseg + s], t);
                ends.pending[pr] = ends.pending[pr].max(out.send_done);
                t = out.recv_done;
            }
            for &cv in &node.children {
                pres[cv * nseg + s] = t;
                t += pf.send_overhead;
            }
        }
        ends.local[r] = t;
    }
    ends
}

/// Reduce ID 6: in-order binary tree over actual ranks rooted at `p − 1`
/// (the plan's tree is already over actual ranks), whole-vector blocking
/// sends, plus the final forward to `spec.root` when it is not `p − 1`.
pub(crate) fn in_order_reduce(
    pf: &Platform,
    net: &mut Net,
    root: usize,
    bytes: u64,
    plan: &TreePlan,
    starts: &[f64],
) -> Vec<f64> {
    let p = starts.len();
    let mut exits = up_walk(pf, net, plan, |r| r, false, &[bytes], |_, b| (b, b), starts).finish();
    if root != p - 1 && p > 1 {
        // Rank p−1 forwards the result to the actual root.
        let tr = exits[root] + pf.recv_overhead;
        let out = net.msg(p - 1, root, bytes, exits[p - 1], tr);
        exits[p - 1] = out.send_done;
        exits[root] = out.recv_done;
    }
    exits
}

/// Gather ID 1: every non-root rank blocking-sends its block to the root,
/// which receives them blocking in rank order.
pub(crate) fn linear_gather(
    pf: &Platform,
    net: &mut Net,
    root: usize,
    m: u64,
    starts: &[f64],
) -> Vec<f64> {
    let mut exits = starts.to_vec();
    let mut t = starts[root];
    for (i, &start) in starts.iter().enumerate() {
        if i == root {
            continue;
        }
        t += pf.recv_overhead;
        let out = net.msg(i, root, m, start, t);
        exits[i] = out.send_done;
        t = out.recv_done;
    }
    exits[root] = t;
    exits
}

/// Gather ID 2: binomial gather over virtual ranks; children are drained in
/// reverse order, each edge carries the child's whole subtree.
pub(crate) fn binomial_gather(
    pf: &Platform,
    net: &mut Net,
    root: usize,
    m: u64,
    plan: &TreePlan,
    starts: &[f64],
) -> RankEnds {
    let p = starts.len();
    let edge = |cv, m| (topo::subtree_size(cv, p) as u64 * m, 0);
    up_walk(pf, net, plan, |v| actual(v, root, p), true, &[m], edge, starts)
}

/// Scatter ID 1: the root blocking-sends each rank's block in rank order;
/// every non-root rank's single op is the blocking recv.
pub(crate) fn linear_scatter(
    pf: &Platform,
    net: &mut Net,
    root: usize,
    m: u64,
    starts: &[f64],
) -> Vec<f64> {
    let mut exits = starts.to_vec();
    let mut t = starts[root];
    for (i, &start) in starts.iter().enumerate() {
        if i == root {
            continue;
        }
        let tr = start + pf.recv_overhead;
        let out = net.msg(root, i, m, t, tr);
        t = out.send_done;
        exits[i] = out.recv_done;
    }
    exits[root] = t;
    exits
}

/// Scatter ID 2: binomial scatter over virtual ranks; a rank first blocks on
/// the recv from its parent, then blocking-sends each child its subtree
/// (children in reverse order).
pub(crate) fn binomial_scatter(
    pf: &Platform,
    net: &mut Net,
    root: usize,
    m: u64,
    plan: &TreePlan,
    starts: &[f64],
) -> Vec<f64> {
    let p = starts.len();
    // begin[r]: recv completion (root: arrival) — set by the parent before
    // rank r is processed.
    let mut begin = starts.to_vec();
    let mut exits = starts.to_vec();
    for &v in &plan.down {
        let node = &plan.nodes[v];
        let r = actual(v, root, p);
        let mut t = begin[r];
        for &cv in node.children.iter().rev() {
            let c = actual(cv, root, p);
            let tr = starts[c] + pf.recv_overhead;
            let out = net.msg(r, c, topo::subtree_size(cv, p) as u64 * m, t, tr);
            t = out.send_done;
            begin[c] = out.recv_done;
        }
        exits[r] = t;
    }
    exits
}
