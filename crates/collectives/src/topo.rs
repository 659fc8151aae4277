//! Communication topologies (trees, chains) and vector partitioning helpers
//! shared by the algorithm builders.

/// Parent/children of one rank within a tree topology.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TreeNode {
    /// Parent rank (None at the tree root).
    pub parent: Option<usize>,
    /// Child ranks, in the order the algorithm visits them.
    pub children: Vec<usize>,
}

/// Virtual rank of `rank` when the tree is re-rooted at `root`:
/// `(rank - root) mod p`, so the root has vrank 0.
#[inline]
pub(crate) fn vrank(rank: usize, root: usize, p: usize) -> usize {
    (rank + p - root) % p
}

/// Inverse of `vrank`: the rank at vrank `v < p` of a tree rooted at
/// `root < p`. A compare-subtract rather than a modulo, since the analytical
/// model calls it per message in its hot loops.
#[inline]
pub fn actual(v: usize, root: usize, p: usize) -> usize {
    let a = v + root;
    if a >= p {
        a - p
    } else {
        a
    }
}

/// Size of the binomial subtree rooted at vrank `v` in a tree over `p`
/// vranks: `min(2^tz(v), p - v)` (the root's subtree is all of `p`).
pub fn subtree_size(v: usize, p: usize) -> usize {
    if v == 0 {
        p
    } else {
        (1usize << v.trailing_zeros()).min(p - v)
    }
}

/// The trees of the Table II tree algorithms. Every tree but
/// `InOrderBinary` is over virtual ranks rooted at vrank 0 (re-rooted with
/// [`actual`]); `InOrderBinary` is over actual ranks, rooted at `p − 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tree {
    /// Flat star: vrank 0 is the parent of everyone.
    Flat,
    /// Four parallel chains hanging off vrank 0.
    Chain4,
    /// One chain: vrank `v`'s parent is `v − 1`, its child `v + 1`.
    Pipeline,
    /// Complete binary tree (children `2v + 1`, `2v + 2`).
    Binary,
    /// Binomial tree: vrank `v`'s parent clears its lowest set bit.
    Binomial,
    /// Open MPI's in-order binary tree (Reduce 6's), over actual ranks.
    InOrderBinary,
}

impl Tree {
    /// Every tree.
    pub const ALL: [Tree; 6] =
        [Tree::Flat, Tree::Chain4, Tree::Pipeline, Tree::Binary, Tree::Binomial, Tree::InOrderBinary];

    /// Rank `v`'s parent and children in this tree over `p` ranks.
    pub fn node(self, v: usize, p: usize) -> TreeNode {
        match self {
            Tree::Flat => flat(v, p),
            Tree::Chain4 => chain(v, p, 4),
            Tree::Pipeline => chain(v, p, 1),
            Tree::Binary => binary(v, p),
            Tree::Binomial => binomial(v, p),
            Tree::InOrderBinary => in_order_binary(v, p),
        }
    }
}

/// Binomial tree over vranks `0..p` rooted at 0.
///
/// vrank `v`'s parent clears its lowest set bit; its children are
/// `v + 2^k` for `k` from the position of `v`'s lowest set bit (or the top
/// for `v = 0`) downwards, i.e. nearest child first in send order.
fn binomial(v: usize, p: usize) -> TreeNode {
    let parent = if v == 0 { None } else { Some(v & (v - 1)) };
    let mut children = Vec::new();
    let low = if v == 0 { usize::BITS } else { v.trailing_zeros() };
    for k in 0..low.min(usize::BITS - 1) {
        let c = v + (1 << k);
        if c < p {
            children.push(c);
        } else {
            break;
        }
    }
    TreeNode { parent, children }
}

/// Complete binary tree over vranks (children `2v+1`, `2v+2`).
fn binary(v: usize, p: usize) -> TreeNode {
    let parent = if v == 0 { None } else { Some((v - 1) / 2) };
    let children = [2 * v + 1, 2 * v + 2].into_iter().filter(|&c| c < p).collect();
    TreeNode { parent, children }
}

/// `nchains` parallel chains hanging off vrank 0: vranks `1..p` are split
/// into `nchains` consecutive runs; within a run each element's parent is
/// its predecessor and the run head's parent is 0.
fn chain(v: usize, p: usize, nchains: usize) -> TreeNode {
    assert!(nchains >= 1);
    if p == 1 {
        return TreeNode::default();
    }
    let nchains = nchains.min(p - 1);
    let members = p - 1; // vranks 1..p
    let base = members / nchains;
    let extra = members % nchains;
    // Chain c covers `base` members (+1 for the first `extra` chains).
    let chain_start = |c: usize| 1 + c * base + c.min(extra);
    if v == 0 {
        return TreeNode { parent: None, children: (0..nchains).map(chain_start).collect() };
    }
    let idx = v - 1;
    // Which chain does idx fall in?
    let c = {
        let long = (base + 1) * extra; // members covered by the longer chains
        if idx < long {
            idx / (base + 1)
        } else {
            extra + (idx - long) / base.max(1)
        }
    };
    let start = chain_start(c);
    let end = chain_start(c + 1).min(p);
    let parent = if v == start { 0 } else { v - 1 };
    let children = if v + 1 < end { vec![v + 1] } else { Vec::new() };
    TreeNode { parent: Some(parent), children }
}

/// Flat tree: vrank 0 is the parent of everyone.
fn flat(v: usize, p: usize) -> TreeNode {
    if v == 0 {
        TreeNode { parent: None, children: (1..p).collect() }
    } else {
        TreeNode { parent: Some(0), children: Vec::new() }
    }
}

/// "In-order" binary tree over *actual* ranks with the tree root at rank
/// `p-1` (Open MPI reduces along this tree to rank `size-1` and forwards to
/// the root if different). Built by recursive halving: the node of range
/// `[lo, hi)` is `hi-1`; the remaining ranks split into two subranges.
fn in_order_binary(rank: usize, p: usize) -> TreeNode {
    fn locate(lo: usize, hi: usize, rank: usize, parent: Option<usize>) -> TreeNode {
        let node = hi - 1;
        let mut children = Vec::new();
        if hi - lo > 1 {
            let mid = lo + (hi - 1 - lo) / 2;
            if mid > lo {
                children.push(mid - 1);
            }
            if hi - 1 > mid {
                children.push(hi - 2);
            }
            if rank != node {
                return if rank < mid {
                    locate(lo, mid, rank, Some(node))
                } else {
                    locate(mid, hi - 1, rank, Some(node))
                };
            }
        }
        TreeNode { parent, children }
    }
    locate(0, p, rank, None)
}

/// Split `total` bytes into `n` contiguous chunks; earlier chunks take the
/// remainder, so sizes differ by at most 1 byte.
pub fn split_chunks(total: u64, n: usize) -> Vec<u64> {
    assert!(n > 0);
    let n64 = n as u64;
    let base = total / n64;
    let extra = (total % n64) as usize;
    (0..n).map(|i| base + u64::from(i < extra)).collect()
}

/// Prefix sums over `split_chunks(total, n)`: the bytes of any run of
/// consecutive chunks in O(1) (Rabenseifner's chunk intervals).
#[derive(Debug)]
pub struct ChunkPrefix {
    prefix: Vec<u64>,
}

impl ChunkPrefix {
    /// Prefix sums of `total` bytes split into `n` chunks.
    pub fn new(total: u64, n: usize) -> Self {
        let mut prefix = Vec::with_capacity(n + 1);
        let mut sum = 0;
        prefix.push(sum);
        for c in split_chunks(total, n) {
            sum += c;
            prefix.push(sum);
        }
        ChunkPrefix { prefix }
    }

    /// Number of chunks.
    pub fn count(&self) -> usize {
        self.prefix.len() - 1
    }

    /// Bytes of chunks `lo..hi`.
    #[inline]
    pub fn range(&self, lo: usize, hi: usize) -> u64 {
        self.prefix[hi] - self.prefix[lo]
    }
}

/// One recursive-halving step at distance `d` over the chunk interval
/// `[lo, lo + 2d)`: vrank `v` keeps the half on its side of bit `d` and sends
/// the other half to vrank `v ^ d`. Returns `(keep, send)`.
#[inline]
pub fn halve(v: usize, d: usize, lo: usize) -> ((usize, usize), (usize, usize)) {
    let (low, high) = ((lo, lo + d), (lo + d, lo + 2 * d));
    if v & d == 0 {
        (low, high)
    } else {
        (high, low)
    }
}

/// Reduce-scatter passes of the segmented ring allreduce (Allreduce 5):
/// enough that each pass moves about `seg_bytes` of a rank's `total / p`
/// chunk, and at least one.
pub fn ring_phases(total: u64, p: usize, seg_bytes: u64) -> usize {
    let chunk = (total / p as u64).max(1);
    chunk.div_ceil(seg_bytes).max(1) as usize
}

/// Segment sizes for a vector of `total` bytes with target segment
/// `seg_bytes`: all segments are `seg_bytes` except a shorter tail. At least
/// one segment even for `total == 0`.
pub fn seg_sizes(total: u64, seg_bytes: u64) -> Vec<u64> {
    assert!(seg_bytes > 0);
    if total == 0 {
        return vec![0];
    }
    let full = (total / seg_bytes) as usize;
    let tail = total % seg_bytes;
    let mut v = vec![seg_bytes; full];
    if tail > 0 {
        v.push(tail);
    }
    v
}

/// Number of integers in `[0, p)` whose bit `k` is set — the block count of
/// a Bruck all-to-all round.
pub fn count_bit_set(p: usize, k: u32) -> usize {
    let period = 1usize << (k + 1);
    let half = 1usize << k;
    (p / period) * half + (p % period).saturating_sub(half)
}

/// Largest power of two `<= p`.
pub fn pow2_floor(p: usize) -> usize {
    assert!(p > 0);
    1 << (usize::BITS - 1 - p.leading_zeros())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// Check that per-rank TreeNode views assemble into one consistent tree
    /// spanning all p ranks.
    fn check_tree(p: usize, node: impl Fn(usize) -> TreeNode) {
        let nodes: Vec<TreeNode> = (0..p).map(&node).collect();
        let mut roots = 0;
        let mut child_of: HashMap<usize, usize> = HashMap::new();
        for (v, n) in nodes.iter().enumerate() {
            match n.parent {
                None => roots += 1,
                Some(par) => {
                    assert!(par < p, "parent {par} out of range");
                    assert!(
                        nodes[par].children.contains(&v),
                        "p={p}: {par} does not list {v} as child; children {:?}",
                        nodes[par].children
                    );
                }
            }
            for &c in &n.children {
                assert!(c < p);
                assert_eq!(nodes[c].parent, Some(v), "p={p}: child {c} of {v} disagrees");
                assert!(child_of.insert(c, v).is_none(), "p={p}: {c} has two parents");
            }
        }
        assert_eq!(roots, 1, "p={p}: expected exactly one root");
        assert_eq!(child_of.len(), p - 1, "p={p}: tree must span all ranks");
    }

    #[test]
    fn every_tree_is_consistent() {
        for tree in Tree::ALL {
            for p in [1, 2, 3, 4, 5, 6, 7, 8, 9, 13, 15, 16, 31, 32, 33, 100] {
                check_tree(p, |v| tree.node(v, p));
            }
        }
        for p in [1, 2, 3, 5, 9, 16, 33] {
            for nchains in [2, 7] {
                check_tree(p, |v| chain(v, p, nchains));
            }
        }
    }

    #[test]
    fn tree_shapes() {
        // Binomial at p=8: root children 1,2,4.
        assert_eq!(Tree::Binomial.node(0, 8).children, vec![1, 2, 4]);
        assert_eq!(Tree::Binomial.node(5, 8).parent, Some(4));
        assert_eq!(Tree::Binomial.node(6, 8).children, vec![7]);
        assert_eq!(Tree::Binary.node(0, 7).children, vec![1, 2]);
        assert_eq!(Tree::Binary.node(2, 7).children, vec![5, 6]);
        assert_eq!(Tree::Flat.node(0, 4).children, vec![1, 2, 3]);
        // Pipeline is a single line.
        let t = Tree::Pipeline.node(3, 8);
        assert_eq!(t.parent, Some(2));
        assert_eq!(t.children, vec![4]);
        // 4 chains over p=9: members 1..8 split 2/2/2/2.
        assert_eq!(Tree::Chain4.node(0, 9).children, vec![1, 3, 5, 7]);
        assert_eq!(Tree::Chain4.node(2, 9).parent, Some(1));
        assert!(Tree::Chain4.node(2, 9).children.is_empty());
    }

    #[test]
    fn in_order_binary_consistent_and_rooted_at_last() {
        for p in [1, 2, 3, 4, 5, 8, 13, 32, 100] {
            check_tree(p, |v| in_order_binary(v, p));
            assert_eq!(Tree::InOrderBinary.node(p - 1, p).parent, None, "p={p}");
        }
        // Depth is O(log p): rank 0 at p=1024 should be shallow.
        let mut depth = 0;
        let mut r = 0usize;
        while let Some(par) = in_order_binary(r, 1024).parent {
            r = par;
            depth += 1;
            assert!(depth < 25);
        }
        assert!(depth <= 11, "depth {depth}");
    }

    #[test]
    fn vrank_round_trips() {
        for p in [1, 5, 8] {
            for root in 0..p {
                for r in 0..p {
                    assert_eq!(actual(vrank(r, root, p), root, p), r);
                }
                assert_eq!(vrank(root, root, p), 0);
            }
        }
    }

    #[test]
    fn subtree_sizes() {
        // p = 8 binomial tree: subtree(4) = 4, subtree(2) = 2, subtree(1) = 1.
        assert_eq!(subtree_size(0, 8), 8);
        assert_eq!(subtree_size(4, 8), 4);
        assert_eq!(subtree_size(2, 8), 2);
        assert_eq!(subtree_size(6, 8), 2);
        assert_eq!(subtree_size(1, 8), 1);
        // Clamped at the edge: p = 6, subtree(4) covers {4,5} only.
        assert_eq!(subtree_size(4, 6), 2);
    }

    #[test]
    fn chunk_prefix_sums_ranges() {
        let ch = ChunkPrefix::new(100, 8);
        let c = split_chunks(100, 8);
        assert_eq!(ch.count(), 8);
        for lo in 0..=8 {
            for hi in lo..=8 {
                assert_eq!(ch.range(lo, hi), c[lo..hi].iter().sum::<u64>());
            }
        }
    }

    #[test]
    fn halving_halves_toward_own_chunk() {
        // Over 8 chunks, vrank 5 keeps [4, 8), then [4, 6), then [5, 6).
        let (mut lo, mut sent) = (0, Vec::new());
        for d in [4, 2, 1] {
            let (keep, send) = halve(5, d, lo);
            assert_eq!(keep.1 - keep.0, d);
            assert_eq!(halve(5 ^ d, d, lo), (send, keep), "the peer keeps what it is sent");
            sent.push(send);
            lo = keep.0;
        }
        assert_eq!(sent, vec![(0, 4), (6, 8), (4, 5)]);
        assert_eq!(lo, 5);
    }

    #[test]
    fn chunk_split_conserves_bytes() {
        for (total, n) in [(100u64, 7usize), (5, 8), (0, 3), (1024, 4)] {
            let c = split_chunks(total, n);
            assert_eq!(c.len(), n);
            assert_eq!(c.iter().sum::<u64>(), total);
            let mx = *c.iter().max().unwrap();
            let mn = *c.iter().min().unwrap();
            assert!(mx - mn <= 1);
        }
    }

    #[test]
    fn seg_sizes_cover_vector() {
        assert_eq!(seg_sizes(100, 30), vec![30, 30, 30, 10]);
        assert_eq!(seg_sizes(60, 30), vec![30, 30]);
        assert_eq!(seg_sizes(10, 30), vec![10]);
        assert_eq!(seg_sizes(0, 30), vec![0]);
    }

    #[test]
    fn bit_count_matches_bruteforce() {
        for p in [1usize, 2, 3, 4, 7, 8, 15, 16, 100, 1024] {
            for k in 0..11 {
                let expect = (0..p).filter(|j| j & (1 << k) != 0).count();
                assert_eq!(count_bit_set(p, k), expect, "p={p} k={k}");
            }
        }
    }

    #[test]
    fn pow2_floor_values() {
        assert_eq!(pow2_floor(1), 1);
        assert_eq!(pow2_floor(2), 2);
        assert_eq!(pow2_floor(3), 2);
        assert_eq!(pow2_floor(1000), 512);
        assert_eq!(pow2_floor(1024), 1024);
    }
}
