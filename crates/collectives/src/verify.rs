//! Dataflow verification: after running a built collective with
//! `track_data`, assert that the algorithm actually implemented its
//! collective's semantics.

use pap_sim::{RunOutcome, Value};

use crate::registry::CollectiveKind;
use crate::spec::CollSpec;


/// Verify the final slot contents of `outcome` against the semantics of
/// `spec` for `p` ranks.
///
/// * `Reduce`: the root's slot 0 holds every segment of the verification
///   grid, each containing all `p` contributions exactly once.
/// * `Allreduce`: as `Reduce`, on every rank.
/// * `Alltoall`: rank `j`'s slot 0 holds exactly the blocks
///   `{(i, j) : 0 <= i < p}`, each from its origin.
/// * `Bcast`: every rank's slot 0 holds exactly the root's `nseg` blocks.
/// * `Barrier`: nothing to verify beyond `data_errors` being empty.
///
/// Requires the run to have been executed with `SimConfig::track_data`.
pub fn verify(spec: &CollSpec, p: usize, outcome: &RunOutcome) -> Result<(), String> {
    if !outcome.data_errors.is_empty() {
        return Err(format!(
            "{} dataflow violation(s), first: {}",
            outcome.data_errors.len(),
            outcome.data_errors[0]
        ));
    }
    let slots = outcome
        .slots
        .as_ref()
        .ok_or_else(|| "run was not executed with track_data".to_string())?;
    if slots.len() != p {
        return Err(format!("outcome has {} ranks, expected {p}", slots.len()));
    }
    let nseg = crate::build(spec, p).map_err(|e| e.to_string())?.nseg;
    match spec.kind {
        CollectiveKind::Reduce => check_reduction(&slots[spec.root][0], spec.root, p, nseg),
        CollectiveKind::Allreduce => {
            for (r, s) in slots.iter().enumerate() {
                check_reduction(&s[0], r, p, nseg)?;
            }
            Ok(())
        }
        CollectiveKind::Alltoall => {
            for (j, s) in slots.iter().enumerate() {
                check_alltoall_rank(&s[0], j, p)?;
            }
            Ok(())
        }
        CollectiveKind::Bcast => {
            for (r, s) in slots.iter().enumerate() {
                check_bcast_rank(&s[0], r, spec.root, nseg)?;
            }
            Ok(())
        }
        CollectiveKind::Barrier => Ok(()),
        CollectiveKind::Allgather => {
            for (r, s) in slots.iter().enumerate() {
                check_block_collection(&s[0], r, p)?;
            }
            Ok(())
        }
        CollectiveKind::Gather => check_block_collection(&slots[spec.root][0], spec.root, p),
        CollectiveKind::Scatter => {
            for (j, s) in slots.iter().enumerate() {
                check_scatter_rank(&s[0], j, spec.root, p)?;
            }
            Ok(())
        }
    }
}

/// Allgather/Gather result: exactly the blocks `(i, i)` for all `i`, each
/// from its origin.
fn check_block_collection(v: &Value, rank: usize, p: usize) -> Result<(), String> {
    if v.len() != p {
        return Err(format!("rank {rank}: holds {} blocks, expected {p}", v.len()));
    }
    for i in 0..p {
        match v.get((i as u32, i as u32)) {
            None => return Err(format!("rank {rank}: block of origin {i} missing")),
            Some(set) => {
                if set.len() != 1 || !set.contains(i) {
                    return Err(format!("rank {rank}: block of origin {i} has wrong provenance"));
                }
            }
        }
    }
    Ok(())
}

/// Scatter result at rank `j`: exactly the root's block `j`.
fn check_scatter_rank(v: &Value, j: usize, root: usize, p: usize) -> Result<(), String> {
    let _ = p;
    if v.len() != 1 {
        return Err(format!("rank {j}: holds {} blocks, expected exactly 1", v.len()));
    }
    match v.get((root as u32, j as u32)) {
        None => Err(format!("rank {j}: scatter block missing")),
        Some(set) if set.len() == 1 && set.contains(root) => Ok(()),
        Some(_) => Err(format!("rank {j}: scatter block has wrong provenance")),
    }
}

fn check_reduction(v: &Value, rank: usize, p: usize, nseg: u32) -> Result<(), String> {
    for s in 0..nseg {
        match v.get((0, s)) {
            None => return Err(format!("rank {rank}: segment {s} missing from result")),
            Some(set) if !set.is_full(p) => {
                return Err(format!(
                    "rank {rank}: segment {s} has {} of {p} contributions",
                    set.len()
                ))
            }
            _ => {}
        }
    }
    // No stray blocks beyond the verification grid.
    for (coord, _) in v.iter() {
        if coord.0 != 0 || coord.1 >= nseg {
            return Err(format!("rank {rank}: unexpected block {coord:?} in result"));
        }
    }
    Ok(())
}

fn check_alltoall_rank(v: &Value, j: usize, p: usize) -> Result<(), String> {
    if v.len() != p {
        return Err(format!(
            "rank {j}: result holds {} blocks, expected {p}",
            v.len()
        ));
    }
    for i in 0..p {
        match v.get((i as u32, j as u32)) {
            None => return Err(format!("rank {j}: block from origin {i} missing")),
            Some(set) => {
                if set.len() != 1 || !set.contains(i) {
                    return Err(format!("rank {j}: block from {i} has wrong provenance"));
                }
            }
        }
    }
    Ok(())
}

fn check_bcast_rank(v: &Value, rank: usize, root: usize, nseg: u32) -> Result<(), String> {
    if v.len() != nseg as usize {
        return Err(format!("rank {rank}: holds {} blocks, expected {nseg}", v.len()));
    }
    for s in 0..nseg {
        match v.get((root as u32, s)) {
            None => return Err(format!("rank {rank}: segment {s} missing")),
            Some(set) => {
                if set.len() != 1 || !set.contains(root) {
                    return Err(format!("rank {rank}: segment {s} has wrong provenance"));
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{algorithms, CollectiveKind};
    use pap_sim::{run, Job, Platform, RankProgram, SimConfig};

    fn run_and_verify(spec: &CollSpec, p: usize) -> Result<(), String> {
        let built = crate::build(spec, p).map_err(|e| e.to_string())?;
        let programs = built.rank_ops.into_iter().map(RankProgram::from_ops).collect();
        let platform = Platform::simcluster(p);
        let out = run(&platform, Job::new(programs), &SimConfig::tracking()).map_err(|e| e.to_string())?;
        verify(spec, p, &out)
    }

    /// Every algorithm of every collective, across power-of-two and awkward
    /// process counts and across message-size regimes (eager, rendezvous,
    /// segmented). This is the core correctness gate of the crate.
    #[test]
    fn exhaustive_correctness_sweep() {
        let sizes = [1u64, 64, 8 * 1024, 64 * 1024];
        let counts = [1usize, 2, 3, 4, 5, 7, 8, 12, 16, 17];
        for kind in CollectiveKind::ALL {
            for alg in algorithms(kind) {
                for &p in &counts {
                    for &bytes in &sizes {
                        let spec = CollSpec::new(kind, alg.id, bytes);
                        run_and_verify(&spec, p).unwrap_or_else(|e| {
                            panic!("{kind} alg {} ({}) p={p} bytes={bytes}: {e}", alg.id, alg.name)
                        });
                    }
                }
            }
        }
    }

    #[test]
    fn rooted_collectives_verify_at_nonzero_roots() {
        for p in [4usize, 7, 9] {
            for root in [1, p - 1] {
                for alg in algorithms(CollectiveKind::Reduce) {
                    let spec = CollSpec::new(CollectiveKind::Reduce, alg.id, 2048).with_root(root);
                    run_and_verify(&spec, p)
                        .unwrap_or_else(|e| panic!("reduce alg {} root {root} p {p}: {e}", alg.id));
                }
                for alg in algorithms(CollectiveKind::Bcast) {
                    let spec = CollSpec::new(CollectiveKind::Bcast, alg.id, 2048).with_root(root);
                    run_and_verify(&spec, p)
                        .unwrap_or_else(|e| panic!("bcast alg {} root {root} p {p}: {e}", alg.id));
                }
                for kind in [CollectiveKind::Gather, CollectiveKind::Scatter] {
                    for alg in algorithms(kind) {
                        let spec = CollSpec::new(kind, alg.id, 2048).with_root(root);
                        run_and_verify(&spec, p)
                            .unwrap_or_else(|e| panic!("{kind} alg {} root {root} p {p}: {e}", alg.id));
                    }
                }
            }
        }
    }

    #[test]
    fn verify_rejects_untracked_runs() {
        let spec = CollSpec::new(CollectiveKind::Reduce, 5, 64);
        let built = crate::build(&spec, 4).unwrap();
        let programs = built.rank_ops.into_iter().map(RankProgram::from_ops).collect();
        let out = run(&Platform::simcluster(4), Job::new(programs), &SimConfig::default()).unwrap();
        assert!(verify(&spec, 4, &out).is_err());
    }

    #[test]
    fn verify_detects_wrong_results() {
        // Run a bcast but verify as if it were a reduce: must fail.
        let bc = CollSpec::new(CollectiveKind::Bcast, 5, 64);
        let built = crate::build(&bc, 4).unwrap();
        let programs = built.rank_ops.into_iter().map(RankProgram::from_ops).collect();
        let out = run(&Platform::simcluster(4), Job::new(programs), &SimConfig::tracking()).unwrap();
        let red = CollSpec::new(CollectiveKind::Reduce, 5, 64);
        assert!(verify(&red, 4, &out).is_err());
    }
}
