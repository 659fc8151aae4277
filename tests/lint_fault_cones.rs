//! Differential pin of the fault-reachability analysis: for an entry crash
//! (at or before the harmonized arrival instant), the static crash cone of
//! `pap-lint` must equal the event-driven engine's starved-rank set
//! *exactly* — on every registered algorithm, eager and rendezvous, leaf
//! and interior victims. This is the correspondence `fault_sweep` relies on
//! when it settles crash cells statically instead of simulating them.
//!
//! A second, fixture-free pass repeats the differential at 256 ranks, far
//! past the 16-rank grid, so the correspondence is pinned at the scale the
//! selection rule is used at.
//!
//! The golden fixture `results/lint_fault_cones.json` pins the cones
//! themselves, so a schedule or analysis change that silently moves a
//! blast radius shows up as a diff. Regenerate after an intentional change
//! with `PAP_UPDATE_FIXTURES=1 cargo test --test lint_fault_cones`.

use serde::{Deserialize, Serialize};

use pap::collectives::registry::algorithms;
use pap::collectives::{build, CollSpec, CollectiveKind};
use pap::lint::{crash_cone, CrashPoint, LintConfig};
use pap::sim::{run_ref, FaultSpec, Job, Platform, RankProgram, SimConfig, SimError};

mod pin;

const RANKS: usize = 16;
const SIZES: [u64; 2] = [1024, 128 * 1024]; // one eager, one rendezvous

/// One differential case: the static cone of an entry crash, confirmed
/// identical to the engine's starved set.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct ConeRow {
    collective: String,
    alg: u8,
    ranks: usize,
    bytes: u64,
    victim: usize,
    starved: Vec<usize>,
}

const KINDS: [CollectiveKind; 8] = [
    CollectiveKind::Reduce,
    CollectiveKind::Allreduce,
    CollectiveKind::Alltoall,
    CollectiveKind::Bcast,
    CollectiveKind::Barrier,
    CollectiveKind::Allgather,
    CollectiveKind::Gather,
    CollectiveKind::Scatter,
];

fn registry_job(kind: CollectiveKind, alg: u8, p: usize, bytes: u64) -> Job {
    let built = build(&CollSpec::new(kind, alg, bytes), p).unwrap();
    Job::new(built.rank_ops.into_iter().map(RankProgram::from_ops).collect())
}

/// The engine's starved survivors under an entry crash of `rank` (empty
/// when the run completes). Crashing at t=0 is before any op completes:
/// channel-visible work costs strictly positive time.
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

/// Every registered algorithm, both protocol regimes, a leaf-end victim
/// (`p-1`, the standard grid's crash_leaf) and an interior victim (`1`).
fn all_rows() -> Vec<ConeRow> {
    let lint_cfg = LintConfig::default();
    let mut rows = Vec::new();
    for kind in KINDS {
        for a in algorithms(kind) {
            for bytes in SIZES {
                let job = registry_job(kind, a.id, RANKS, bytes);
                for victim in [1, RANKS - 1] {
                    let cone = crash_cone(&job, &lint_cfg, &[CrashPoint::on_entry(victim)]);
                    let static_starved = cone.starved_ranks();
                    let engine_starved = sim_starved(&job, RANKS, victim);
                    assert_eq!(
                        static_starved, engine_starved,
                        "static cone and engine starvation disagree: {} A{} {} B victim {}",
                        kind, a.id, bytes, victim
                    );
                    rows.push(ConeRow {
                        collective: kind.name().to_string(),
                        alg: a.id,
                        ranks: RANKS,
                        bytes,
                        victim,
                        starved: static_starved,
                    });
                }
            }
        }
    }
    rows
}

#[test]
fn static_cones_match_engine_starvation_exactly() {
    let rows = all_rows();
    assert!(rows.len() >= 100, "registry coverage shrank to {} cases", rows.len());
    // The differential is vacuous if nothing ever starves — and wrong if
    // nothing ever completes.
    assert!(rows.iter().any(|r| !r.starved.is_empty()), "no case starves anyone");
    assert!(rows.iter().any(|r| r.starved.is_empty()), "every case starves someone");

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/results/lint_fault_cones.json");
    let current = serde_json::to_string_pretty(&rows).unwrap() + "\n";
    pin::check_fixture(path, &current, "cargo test --test lint_fault_cones");
}

/// The same differential at 256 ranks, without a fixture: every registered
/// algorithm, one eager and one rendezvous size, victims 1 and 255.
#[test]
fn static_cones_match_engine_starvation_at_256_ranks() {
    const P: usize = 256;
    let lint_cfg = LintConfig::default();
    let platform = Platform::simcluster(P);
    let mut cases = 0;
    for kind in KINDS {
        for a in algorithms(kind) {
            for bytes in SIZES {
                let job = registry_job(kind, a.id, P, bytes);
                for victim in [1, P - 1] {
                    let cone = crash_cone(&job, &lint_cfg, &[CrashPoint::on_entry(victim)]);
                    let faults = FaultSpec::none().with_crash(victim, 0.0);
                    let cfg = SimConfig { faults, ..SimConfig::default() };
                    let engine = run_ref(&platform, &job, &cfg).map_or_else(|e| e.starved_ranks(), |_| vec![]);
                    assert_eq!(
                        cone.starved_ranks(),
                        engine,
                        "static cone and engine starvation disagree: {kind} A{} {bytes} B victim {victim}",
                        a.id
                    );
                    cases += 1;
                }
            }
        }
    }
    assert!(cases >= 100, "registry coverage shrank to {cases} cases");
}
