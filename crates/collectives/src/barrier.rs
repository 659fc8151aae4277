//! `MPI_Barrier`: dissemination barrier (used by the harness's harmonized
//! starts and by "linear with sync"-style pacing).

use pap_sim::{Op, SlotInit};

use crate::spec::{BuildError, Built, CollSpec};
use crate::steps::{self, Fold, Part};

/// Build the barrier schedules. Dispatched from [`crate::build`].
pub(crate) fn build(spec: &CollSpec, p: usize) -> Result<Built, BuildError> {
    match spec.alg {
        1 => Ok(dissemination(spec, p)),
        id => Err(BuildError::UnknownAlgorithm(spec.kind, id)),
    }
}

/// Dissemination barrier: `ceil(log2 p)` rounds; in round `k` rank `i`
/// signals `(i + 2^k) mod p` and waits for a signal from `(i - 2^k) mod p`.
fn dissemination(spec: &CollSpec, p: usize) -> Built {
    steps::per_rank(p, 0, |me| {
        let mut ops = Vec::new();
        if p > 1 {
            // Signal payload: the 1-byte tokens are sent from slot 0, which
            // must hold a defined (empty) value rather than read an
            // uninitialized slot (pap-lint: UseBeforeInit).
            ops.push(Op::InitSlot { slot: 0, init: SlotInit::Empty });
        }
        let mut k = 0u32;
        while (1usize << k) < p {
            let d = 1usize << k;
            steps::exchange(&mut ops, (me + d) % p, (me + p - d) % p, spec.tag_base + k as u64, Part::all(1), 1, Fold::Keep);
            k += 1;
        }
        ops
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::CollectiveKind;
    use pap_sim::{run, Job, Platform, RankProgram, SimConfig};

    #[test]
    fn round_counts() {
        let spec = CollSpec::new(CollectiveKind::Barrier, 1, 0);
        for (p, rounds) in [(1usize, 0usize), (2, 1), (3, 2), (8, 3), (9, 4)] {
            let b = build(&spec, p).unwrap();
            let sends = b.rank_ops[0].iter().filter(|o| matches!(o, Op::Isend { .. })).count();
            assert_eq!(sends, rounds, "p={p}");
        }
    }

    #[test]
    fn barrier_synchronizes_skewed_ranks() {
        // A rank arriving late must hold every other rank past its arrival.
        let p = 8;
        let spec = CollSpec::new(CollectiveKind::Barrier, 1, 0);
        let b = build(&spec, p).unwrap();
        let mut programs: Vec<RankProgram> = Vec::new();
        for (r, ops) in b.rank_ops.into_iter().enumerate() {
            let mut prog = RankProgram::new();
            let delay = if r == 3 { 1.0 } else { 0.0 };
            prog.push_anon(vec![Op::delay(delay)]);
            prog.push_anon(ops);
            programs.push(prog);
        }
        let out = run(&Platform::simcluster(p), Job::new(programs), &SimConfig::default()).unwrap();
        for r in 0..p {
            assert!(out.finish[r] >= 1.0, "rank {r} left the barrier at {} before the late rank", out.finish[r]);
        }
    }
}
