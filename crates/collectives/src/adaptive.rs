//! Arrival-pattern-aware collective construction (extension beyond the
//! paper).
//!
//! The paper *selects* among static algorithms; its related work (Marendić
//! et al., Proficz) goes further and *adapts the algorithm itself* to a
//! known arrival pattern. This module implements that idea for `MPI_Reduce`:
//! given per-rank expected delays, build a reduction tree in which
//! early-arriving ranks sit deep (their partials climb while late ranks are
//! still absent) and the latest ranks sit near the top — minimizing the
//! post-last-arrival critical path, i.e. exactly the paper's `d̂` metric.
//!
//! Construction ("skew ladder"): sort ranks by expected delay. Group the
//! earliest arrivals into binomial subtrees of bounded size; chain the
//! subtree roots in arrival order, so each later-arriving rank receives one
//! aggregated partial that is already waiting when it shows up; the latest
//! rank forwards the final value to the requested root.
//!
//! With a `NoDelay` pattern the ladder degenerates to a chain, which is why
//! this is *not* a replacement for static selection — it only pays off when
//! the pattern is known and pronounced, which the included example and
//! tests demonstrate.

use pap_sim::data::SlotInit;
use pap_sim::Op;

use crate::spec::{BuildError, Built, CollSpec};
use crate::steps::{self, Fold};
use crate::topo;

/// Maximum size of the leaf binomial groups of the ladder.
const GROUP: usize = 8;

/// Build an arrival-aware reduce for `spec` (algorithm ID is ignored) from
/// per-rank expected delays (seconds). `delays.len()` must equal `p`.
pub fn build_arrival_aware_reduce(spec: &CollSpec, p: usize, delays: &[f64]) -> Result<Built, BuildError> {
    if delays.len() != p {
        return Err(BuildError::Invalid(format!(
            "expected {p} delays, got {}",
            delays.len()
        )));
    }
    if spec.root >= p {
        return Err(BuildError::Invalid(format!("root {} out of range", spec.root)));
    }
    let bytes = spec.bytes;

    // Ranks ordered by expected arrival (stable for ties).
    let mut order: Vec<usize> = (0..p).collect();
    order.sort_by(|&a, &b| delays[a].partial_cmp(&delays[b]).expect("finite delays").then(a.cmp(&b)));

    // Ladder levels: consecutive GROUP-sized slices of the arrival order.
    // Within a group, a binomial tree rooted at the group's *latest* rank;
    // group roots form a chain in arrival order.
    let groups: Vec<&[usize]> = order.chunks(GROUP).collect();

    let mut ops_of: Vec<Vec<Op>> = (0..p)
        .map(|me| vec![Op::InitSlot { slot: 0, init: SlotInit::reduce_input(me, 0, 1) }])
        .collect();

    let mut prev_group_root: Option<usize> = None;
    for (gi, group) in groups.iter().enumerate() {
        // Binomial tree over the group, re-rooted at its last (latest)
        // member: index the group in arrival order and treat position
        // `len-1` as vrank 0.
        let len = group.len();
        let group_root = group[len - 1];
        let tag = spec.tag_base + gi as u64 * 64;
        for (pos, &rank) in group.iter().enumerate() {
            // vrank 0 = latest member; earlier members get higher vranks so
            // they sit deeper (they arrive earlier and can pre-aggregate).
            let v = len - 1 - pos;
            let node = topo::binomial(v, len);
            for &cv in &node.children {
                let child = group[len - 1 - cv];
                steps::recv(&mut ops_of[rank], child, tag + cv as u64, Fold::Reduce(bytes));
            }
            if let Some(pv) = node.parent {
                let parent = group[len - 1 - pv];
                ops_of[rank].push(Op::send(parent, tag + v as u64, bytes, 0));
            }
        }
        // Chain the previous ladder level into this group's root: the
        // aggregated partial of all earlier arrivals is waiting for it.
        if let Some(prev) = prev_group_root {
            let tag = spec.tag_base + 0x8000 + gi as u64;
            ops_of[prev].push(Op::send(group_root, tag, bytes, 0));
            steps::recv(&mut ops_of[group_root], prev, tag, Fold::Reduce(bytes));
        }
        prev_group_root = Some(group_root);
    }

    // Deliver to the requested root.
    let last = prev_group_root.expect("at least one group");
    if last != spec.root {
        let tag = spec.tag_base + 0xFFFF;
        ops_of[last].push(Op::send(spec.root, tag, bytes, 0));
        steps::recv(&mut ops_of[spec.root], last, tag, Fold::Copy);
    }

    Ok(Built { rank_ops: ops_of, nseg: 1 })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::CollectiveKind;
    use crate::verify::verify;
    use pap_sim::{run, Job, Platform, RankProgram, SimConfig};

    fn spec() -> CollSpec {
        // Algorithm id only matters for verification grid recomputation;
        // binomial (5) shares the adaptive ladder's single-segment grid.
        CollSpec::new(CollectiveKind::Reduce, 5, 1024)
    }

    fn run_with(delays: &[f64], p: usize) -> pap_sim::RunOutcome {
        let built = build_arrival_aware_reduce(&spec(), p, delays).unwrap();
        let programs = built
            .rank_ops
            .into_iter()
            .enumerate()
            .map(|(r, ops)| {
                let mut prog = RankProgram::new();
                prog.push_anon(vec![Op::delay(delays[r])]);
                prog.push_anon(ops);
                prog
            })
            .collect();
        run(&Platform::simcluster(p), Job::new(programs), &SimConfig::tracking()).unwrap()
    }

    #[test]
    fn correct_for_various_p_and_patterns() {
        for p in [1usize, 2, 3, 7, 8, 9, 16, 33] {
            for pat in [
                vec![0.0; p],
                (0..p).map(|r| r as f64 * 1e-5).collect::<Vec<_>>(),
                (0..p).map(|r| ((r * 7919) % 13) as f64 * 1e-5).collect::<Vec<_>>(),
            ] {
                let out = run_with(&pat, p);
                verify(&spec(), p, &out).unwrap_or_else(|e| panic!("p={p}: {e}"));
            }
        }
    }

    #[test]
    fn rejects_mismatched_delays() {
        assert!(build_arrival_aware_reduce(&spec(), 8, &[0.0; 4]).is_err());
    }

    #[test]
    fn beats_binomial_under_strong_known_pattern() {
        use crate::build;
        // Strong ascending pattern: the ladder should shine vs the static
        // binomial tree on the d̂ metric.
        let p = 64;
        let platform = Platform::simcluster(p);
        let skew = 2e-3;
        let delays: Vec<f64> = (0..p).map(|r| skew * r as f64 / (p - 1) as f64).collect();

        let d_hat = |built: Built| {
            let programs = built
                .rank_ops
                .into_iter()
                .enumerate()
                .map(|(r, ops)| {
                    let mut prog = RankProgram::new();
                    prog.push_anon(vec![Op::delay(delays[r])]);
                    prog.push_labeled(pap_sim::Label { kind: 1, seq: 0 }, ops);
                    prog
                })
                .collect();
            let out = run(&platform, Job::new(programs), &SimConfig::default()).unwrap();
            let recs = out.phases_for(pap_sim::Label { kind: 1, seq: 0 });
            let max_a = recs.iter().map(|r| r.enter).fold(f64::NEG_INFINITY, f64::max);
            let max_e = recs.iter().map(|r| r.exit).fold(f64::NEG_INFINITY, f64::max);
            max_e - max_a
        };

        let adaptive = d_hat(build_arrival_aware_reduce(&spec(), p, &delays).unwrap());
        let binomial = d_hat(build(&CollSpec::new(CollectiveKind::Reduce, 5, 1024), p).unwrap());
        assert!(
            adaptive < binomial,
            "adaptive ladder ({adaptive:.2e}) should beat static binomial ({binomial:.2e}) under a known ascending pattern"
        );
    }
}
