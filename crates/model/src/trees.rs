//! Analytical models for tree-structured schedules: segmented tree
//! reduce/bcast, the in-order binary reduce, and the linear/binomial
//! gather/scatter substrates.
//!
//! Each model walks the ranks of the tree in dependency order (children
//! before parents for reductions, parents before children for
//! distributions) and replays the builder's per-rank op sequence through
//! [`Net::msg`]. Non-blocking send completions that a rank only waits on at
//! the end of its schedule are folded into a running per-rank maximum in
//! `pending` and joined with the exit time by [`RankEnds::finish`]. Tree
//! topologies and replay orders come pre-built from [`crate::plan`]; the
//! per-eval state here is a handful of flat buffers.

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

/// Segmented tree reduction (Reduce IDs 1–5 and the reduce halves of
/// Allreduce 1–2). The plan's tree is indexed by virtual rank; `starts` by
/// actual rank. Per segment, a rank receives each child's partial (blocking
/// recv + local reduce), then forwards its own partial to the parent with a
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
    let nseg = segs.len();
    let gamma = pf.reduce_cost_per_byte;
    let mut ends = RankEnds::new(starts);
    // pres[v * nseg + s]: vrank v's clock just before its isend of segment s.
    let mut pres = vec![f64::NAN; p * nseg];
    for &v in &plan.up {
        let node = &plan.nodes[v];
        let r = actual(v, root, p);
        let mut t = ends.local[r];
        for (s, &sb) in segs.iter().enumerate() {
            for &cv in &node.children {
                let c = actual(cv, root, p);
                t += pf.recv_overhead;
                let out = net.msg(c, r, sb, pres[cv * nseg + s], t);
                ends.pending[c] = ends.pending[c].max(out.send_done);
                t = out.recv_done + sb as f64 * gamma;
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
    let gamma = pf.reduce_cost_per_byte;
    let mut ends = RankEnds::new(starts);
    let mut pres = vec![f64::NAN; p];
    for &r in &plan.up {
        let node = &plan.nodes[r];
        let mut t = ends.local[r];
        for &c in &node.children {
            t += pf.recv_overhead;
            let out = net.msg(c, r, bytes, pres[c], t);
            ends.pending[c] = ends.pending[c].max(out.send_done);
            t = out.recv_done + bytes as f64 * gamma;
        }
        if node.parent.is_some() {
            // Blocking send to the parent: it is this rank's last op, so the
            // true completion is folded in via `pending`.
            pres[r] = t;
            t += pf.send_overhead;
        }
        ends.local[r] = t;
    }
    let mut exits = ends.finish();
    if root != p - 1 && p > 1 {
        // Rank p−1 forwards the result to the actual root.
        let tr = exits[root] + pf.recv_overhead;
        let out = net.msg(p - 1, root, bytes, exits[p - 1], tr);
        exits[p - 1] = out.send_done;
        exits[root] = out.recv_done;
    }
    exits
}

/// Virtual-to-actual rank rotation (mirrors `topo::actual`, local so the
/// per-message hot loop stays branch-cheap).
#[inline(always)]
fn actual(v: usize, root: usize, p: usize) -> usize {
    let a = v + root;
    if a >= p {
        a - p
    } else {
        a
    }
}

/// Size of the binomial subtree rooted at virtual rank `v` (mirrors the
/// builder's `subtree_size` in `pap-collectives`).
fn subtree_size(v: usize, p: usize) -> u64 {
    if v == 0 {
        p as u64
    } else {
        (1u64 << v.trailing_zeros()).min((p - v) as u64)
    }
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
    let mut ends = RankEnds::new(starts);
    let mut pres = vec![f64::NAN; p];
    for &v in &plan.up {
        let node = &plan.nodes[v];
        let r = actual(v, root, p);
        let mut t = ends.local[r];
        for &cv in node.children.iter().rev() {
            let c = actual(cv, root, p);
            t += pf.recv_overhead;
            let out = net.msg(c, r, subtree_size(cv, p) * m, pres[cv], t);
            ends.pending[c] = ends.pending[c].max(out.send_done);
            t = out.recv_done;
        }
        if node.parent.is_some() {
            pres[v] = t;
            t += pf.send_overhead;
        }
        ends.local[r] = t;
    }
    ends
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
            let out = net.msg(r, c, subtree_size(cv, p) * m, t, tr);
            t = out.send_done;
            begin[c] = out.recv_done;
        }
        exits[r] = t;
    }
    exits
}
