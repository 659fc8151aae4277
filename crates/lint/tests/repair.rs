//! Certified schedule repair: tree/dissemination rewrites must certify
//! (all 15 lint classes, empty residual cone) and complete in the engine
//! under the repaired crash — and corrupted repairs must be *caught* by the
//! same re-lint that certifies the honest ones.

use pap_collectives::{build, CollSpec, CollectiveKind};
use pap_lint::{
    certified_repair, crash_cone, lint_job, repair_job, sweep_faults, CrashPoint,
    LintConfig, RepairError, RepairVerdict, SweepConfig,
};
use pap_sim::{run_ref, FaultSpec, Job, Op, Platform, RankProgram, SimConfig, SimError};

const RDV: u64 = 128 * 1024; // past the 16 KiB eager threshold
const EAGER: u64 = 1024;

fn registry_job(kind: CollectiveKind, alg: u8, p: usize, bytes: u64) -> Job {
    let built = build(&CollSpec::new(kind, alg, bytes), p).unwrap();
    Job::new(built.rank_ops.into_iter().map(RankProgram::from_ops).collect())
}

/// Run `job` under an entry crash of `rank`; return the starved survivor
/// set (empty when the run completes).
fn sim_starved(job: &Job, p: usize, rank: usize) -> Vec<usize> {
    let platform = Platform::simcluster(p);
    let cfg = SimConfig { faults: FaultSpec::none().with_crash(rank, 0.0), ..SimConfig::default() };
    match run_ref(&platform, job, &cfg) {
        Ok(_) => vec![],
        Err(SimError::Deadlock { blocked, .. }) => {
            let mut ranks: Vec<usize> = blocked.iter().map(|(r, _)| *r).collect();
            ranks.sort_unstable();
            ranks
        }
        Err(e) => panic!("unexpected sim error: {e}"),
    }
}

#[test]
fn binomial_reduce_leaf_repair_certifies_and_completes() {
    let (p, victim) = (8, 7);
    let job = registry_job(CollectiveKind::Reduce, 5, p, RDV);
    // The un-repaired schedule starves survivors under the crash…
    assert!(!sim_starved(&job, p, victim).is_empty(), "leaf crash must starve the reduce");
    // …the certified repair starves nobody.
    let cfg = LintConfig::default();
    let out = certified_repair(&job, &cfg, victim).unwrap();
    assert!(out.job.program(victim).op_count() == 0, "crashed rank program is emptied");
    assert!(out.dropped > 0, "the parent must forgo the dead leaf's contribution");
    assert_eq!(sim_starved(&out.job, p, victim), vec![], "repair completes under the crash");
}

#[test]
fn binomial_reduce_interior_repair_redirects_children() {
    // Rank 4 in an 8-rank binomial reduce to root 0 has children and a
    // parent: the fan-in rewrite sends the children directly to the parent.
    let (p, victim) = (8, 4);
    let job = registry_job(CollectiveKind::Reduce, 5, p, RDV);
    let cfg = LintConfig::default();
    let cone = crash_cone(&job, &cfg, &[CrashPoint::on_entry(victim)]);
    assert!(cone.starved_ranks().contains(&0), "interior crash reaches the root");
    let out = certified_repair(&job, &cfg, victim).unwrap();
    assert!(out.rewired > 0, "children redirect to the promoted consumer");
    assert_eq!(sim_starved(&out.job, p, victim), vec![]);
}

#[test]
fn binomial_bcast_interior_repair_promotes_parent() {
    let (p, victim) = (8, 4); // rank 4: interior (children 5, 6) under root 0
    // One 128 KiB segment: rendezvous sends, so the subtree really starves.
    let built =
        build(&CollSpec::new(CollectiveKind::Bcast, 5, RDV).with_seg_bytes(RDV), p).unwrap();
    let job = Job::new(built.rank_ops.into_iter().map(RankProgram::from_ops).collect());
    let cfg = LintConfig::default();
    assert!(
        !crash_cone(&job, &cfg, &[CrashPoint::on_entry(victim)]).is_empty(),
        "interior bcast crash starves the subtree at rendezvous sizes"
    );
    let out = certified_repair(&job, &cfg, victim).unwrap();
    assert!(out.rewired > 0, "subtree receives rewired to the promoted parent");
    assert_eq!(sim_starved(&out.job, p, victim), vec![]);
}

#[test]
fn scatter_and_gather_binomial_repairs_certify() {
    for (kind, name) in
        [(CollectiveKind::Scatter, "scatter"), (CollectiveKind::Gather, "gather")]
    {
        let p = 8;
        let job = registry_job(kind, 2, p, RDV);
        let cfg = LintConfig::default();
        // Pick the worst non-root victim.
        let blast = pap_lint::blast_radius(&job, &cfg);
        let victim =
            (1..p).max_by_key(|&r| (blast.entry_starved[r], usize::MAX - r)).unwrap();
        let out = certified_repair(&job, &cfg, victim)
            .unwrap_or_else(|e| panic!("{name} repair failed: {e}"));
        assert_eq!(sim_starved(&out.job, p, victim), vec![], "{name} repair completes");
    }
}

#[test]
fn dissemination_barrier_repair_drops_tokens() {
    let (p, victim) = (8, 3);
    let job = registry_job(CollectiveKind::Barrier, 1, p, 0);
    let cfg = LintConfig::default();
    let out = certified_repair(&job, &cfg, victim).unwrap();
    // Tokens are locally-sourced sinks: pure drops, no rewiring needed.
    assert!(out.dropped > 0);
    assert_eq!(sim_starved(&out.job, p, victim), vec![]);
}

#[test]
fn recursive_doubling_interior_is_refused_not_mangled() {
    // Allreduce recursive doubling weaves every round's receive into every
    // later send: there is no tree rewrite, and repair must say so instead
    // of producing a broken schedule.
    let p = 8;
    let job = registry_job(CollectiveKind::Allreduce, 3, p, RDV);
    let cfg = LintConfig::default();
    match repair_job(&job, &cfg, 3) {
        Err(RepairError::Unsupported { .. }) => {}
        other => panic!("expected Unsupported, got {other:?}"),
    }
}

#[test]
fn repair_rejects_bad_rank_and_unclean_input() {
    let cfg = LintConfig::default();
    let job = registry_job(CollectiveKind::Reduce, 5, 8, EAGER);
    assert!(matches!(repair_job(&job, &cfg, 8), Err(RepairError::BadRank { .. })));
    // A job with a dangling send is not a valid repair substrate.
    let bad = Job::new(vec![
        RankProgram::from_ops(vec![Op::send(1, 0, 8, 0)]),
        RankProgram::from_ops(vec![]),
    ]);
    assert!(matches!(repair_job(&bad, &cfg, 1), Err(RepairError::UncleanInput { .. })));
}

// --- mutation self-tests: corrupted repairs must fail the certifying lint ---

/// Apply the honest repair, then corrupt it and check the re-lint (the
/// certification gate) rejects the corruption.
fn corrupted_repair_is_caught(corrupt: impl FnOnce(&mut Vec<RankProgram>, usize)) {
    let (p, victim) = (8, 4);
    let job = registry_job(CollectiveKind::Reduce, 5, p, RDV);
    let cfg = LintConfig::default();
    let out = certified_repair(&job, &cfg, victim).unwrap();
    let mut programs: Vec<_> = (0..out.job.ranks()).map(|r| out.job.program(r)).collect();
    corrupt(&mut programs, victim);
    let corrupted = Job::new(programs);
    let report = lint_job(&corrupted, &cfg);
    let cone = crash_cone(&corrupted, &cfg, &[CrashPoint::on_entry(victim)]);
    assert!(
        !report.is_clean() || !cone.is_empty(),
        "corrupted repair slipped through certification:\n{}",
        report.render()
    );
}

#[test]
fn mutation_dangling_send_into_the_cone_is_caught() {
    // Re-add a send targeting the crashed rank: nobody receives it.
    corrupted_repair_is_caught(|programs, victim| {
        programs[0].push_anon(vec![Op::send(victim, 999, 64, 0)]);
    });
}

#[test]
fn mutation_wrong_promoted_parent_is_caught() {
    // Retarget a receive at the wrong source rank: the channel pairing
    // breaks (unmatched send + unmatched receive).
    corrupted_repair_is_caught(|programs, victim| {
        let p = programs.len();
        'outer: for (r, prog) in programs.iter_mut().enumerate() {
            for seg in &mut prog.segments {
                for op in &mut seg.ops {
                    if let Op::Recv { from, .. } | Op::Irecv { from, .. } = op {
                        // A live rank that is neither the receiver (no
                        // self-message), the victim, nor the true source.
                        let wrong = (0..p)
                            .find(|&w| w != r && w != victim && w != *from)
                            .expect("8 ranks leave a wrong choice");
                        *from = wrong;
                        break 'outer;
                    }
                }
            }
        }
    });
}

#[test]
fn mutation_reintroduced_crashed_rank_dependency_is_caught() {
    // Give a survivor back its dependence on the dead rank: a receive from
    // the crashed (now empty) program can never be satisfied.
    corrupted_repair_is_caught(|programs, victim| {
        programs[2].push_anon(vec![Op::recv(victim, 998, 1)]);
    });
}

// --- registry-wide sweep -----------------------------------------------

#[test]
fn fault_sweep_certifies_every_produced_repair() {
    // Smaller grid than the papctl default: test-tier runtime. The sizes
    // derived from the 16 KiB threshold are EAGER and RDV.
    let cfg = SweepConfig { ranks: vec![8, 12], ..SweepConfig::default() };
    let summary = sweep_faults(&cfg);
    assert!(summary.cases > 0);
    assert_eq!(
        summary.cert_failed,
        0,
        "repairs failed certification:\n{}",
        summary.render_table()
    );
    assert!(summary.repaired > 0, "tree topologies must repair:\n{}", summary.render_table());
    // Every tree/chain/dissemination family the rewrite rules target must
    // repair on every case; exchange topologies whose every rank weaves
    // (recursive doubling, Bruck) may refuse. Allgather-linear's gather root
    // weaves too, but as a root it is never the victim.
    for row in &summary.algorithms {
        let must_repair = matches!(
            (row.collective.as_str(), row.name.as_str()),
            (_, "Binomial")
                | (_, "Dissemination")
                | (_, "Chain")
                | (_, "Pipeline")
                | ("MPI_Bcast", "Binary")
                | ("MPI_Allgather", "Ring")
                | ("MPI_Reduce" | "MPI_Allreduce" | "MPI_Alltoall", "Linear")
                | ("MPI_Bcast" | "MPI_Gather" | "MPI_Scatter" | "MPI_Allgather", "Linear")
        );
        if must_repair {
            assert_eq!(
                row.repaired, row.cases,
                "{} {} should repair every case:\n{}",
                row.collective,
                row.name,
                summary.render_table()
            );
        }
    }
    // And each certified sweep repair must also complete in the engine.
    let mut checked = 0usize;
    for row in summary.case_rows.iter().filter(|r| r.repair == RepairVerdict::Certified) {
        if row.ranks != 8 || row.bytes != RDV {
            continue; // spot-check one grid slice; the lint gate covered all
        }
        let kind = kind_by_name(&row.collective);
        let job = registry_job(kind, row.alg, row.ranks, row.bytes);
        let out = certified_repair(&job, &LintConfig::default(), row.victim).unwrap();
        assert_eq!(
            sim_starved(&out.job, row.ranks, row.victim),
            vec![],
            "{} alg {} repair deadlocks in the engine",
            row.collective,
            row.alg
        );
        checked += 1;
    }
    assert!(checked > 0, "spot-check slice must be non-empty");
}

fn kind_by_name(name: &str) -> CollectiveKind {
    CollectiveKind::ALL
        .into_iter()
        .find(|k| k.name() == name)
        .unwrap_or_else(|| panic!("unknown collective {name}"))
}
