//! Cached tree topologies and traversal orders.
//!
//! Every tree-structured model walks the same deterministic topology for a
//! given (tree family, rank count): the per-rank [`TreeNode`] views and the
//! depth orders they are replayed in depend only on that pair. Building them
//! used to dominate the cost of a single analytical evaluation — a sweep
//! re-derived the identical tree for every (algorithm × pattern) cell — so
//! they are built once per thread here and shared via `Rc`.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use pap_collectives::topo::{Tree, TreeNode};

/// A tree topology plus its two replay orders, built once per (tree, p).
pub(crate) struct TreePlan {
    /// Per-vrank tree views.
    pub(crate) nodes: Vec<TreeNode>,
    /// Ranks deepest-first (children before parents): gather-like phases.
    pub(crate) up: Vec<usize>,
    /// Ranks shallowest-first (parents before children): scatter-like phases.
    pub(crate) down: Vec<usize>,
}

/// Depth of every node, resolved iteratively (a pipeline tree is a single
/// `p`-deep chain, so the naive walk-to-root per node is quadratic).
fn depths(tree: &[TreeNode]) -> Vec<u32> {
    let mut d = vec![u32::MAX; tree.len()];
    let mut path = Vec::new();
    for v0 in 0..tree.len() {
        let mut v = v0;
        while d[v] == u32::MAX {
            path.push(v);
            match tree[v].parent {
                Some(pv) => v = pv,
                None => {
                    d[v] = 0;
                    break;
                }
            }
        }
        let mut depth = d[v];
        while let Some(u) = path.pop() {
            if u == v {
                continue;
            }
            depth += 1;
            d[u] = depth;
        }
        path.clear();
    }
    d
}

impl TreePlan {
    fn build(tree: Tree, p: usize) -> TreePlan {
        let nodes: Vec<TreeNode> = (0..p).map(|v| tree.node(v, p)).collect();
        let d = depths(&nodes);
        let maxd = d.iter().copied().max().unwrap_or(0) as usize;
        // Stable bucket sort by depth: within a depth, original rank order —
        // exactly the order a stable sort_by_key produces, so the replay
        // (and therefore every modeled timestamp) is unchanged.
        let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); maxd + 1];
        for (v, &dv) in d.iter().enumerate() {
            buckets[dv as usize].push(v);
        }
        let down: Vec<usize> = buckets.iter().flatten().copied().collect();
        let up: Vec<usize> = buckets.iter().rev().flatten().copied().collect();
        TreePlan { nodes, up, down }
    }
}

thread_local! {
    static CACHE: RefCell<HashMap<(Tree, usize), Rc<TreePlan>>> = RefCell::new(HashMap::new());
}

/// Upper bound on cached plans per thread; a long-lived daemon serving many
/// distinct rank counts must not grow without bound.
const CACHE_CAP: usize = 256;

/// The shared plan for (tree, p), built on first use per thread.
pub(crate) fn tree_plan(tree: Tree, p: usize) -> Rc<TreePlan> {
    CACHE.with(|c| {
        let mut c = c.borrow_mut();
        if let Some(plan) = c.get(&(tree, p)) {
            return Rc::clone(plan);
        }
        if c.len() >= CACHE_CAP {
            c.clear();
        }
        let plan = Rc::new(TreePlan::build(tree, p));
        c.insert((tree, p), Rc::clone(&plan));
        plan
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_match_stable_sort() {
        for tree in Tree::ALL {
            for p in [1usize, 2, 3, 5, 8, 13, 64, 130] {
                let plan = TreePlan::build(tree, p);
                let d = depths(&plan.nodes);
                let mut down: Vec<usize> = (0..p).collect();
                down.sort_by_key(|&v| d[v]);
                let mut up: Vec<usize> = (0..p).collect();
                up.sort_by_key(|&v| std::cmp::Reverse(d[v]));
                assert_eq!(plan.down, down, "{tree:?} p={p} down order");
                assert_eq!(plan.up, up, "{tree:?} p={p} up order");
            }
        }
    }

    #[test]
    fn cache_returns_shared_plan() {
        let a = tree_plan(Tree::Binomial, 16);
        let b = tree_plan(Tree::Binomial, 16);
        assert!(Rc::ptr_eq(&a, &b));
        assert_eq!(a.nodes.len(), 16);
    }
}
