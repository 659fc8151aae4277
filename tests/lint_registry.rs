//! Static-analysis gate: the full algorithm registry must lint clean.
//!
//! `pap-lint` abstract-interprets every registered algorithm's schedule
//! (every collective × {8, 12, 32} ranks × every root of the rooted
//! collectives × sizes straddling the eager threshold) with zero simulator runs; this suite asserts no
//! error-severity finding exists anywhere and pins the diagnostic-free state
//! in `results/lint_registry.json`. Regenerate the fixture after an
//! intentional registry change with
//! `PAP_UPDATE_FIXTURES=1 cargo test --test lint_registry`.

use std::sync::OnceLock;

use pap::lint::{sweep_registry, SweepConfig, SweepSummary};

mod pin;

/// The sweep, computed once and shared by every test in this file.
fn summary() -> &'static SweepSummary {
    static SUMMARY: OnceLock<SweepSummary> = OnceLock::new();
    SUMMARY.get_or_init(|| sweep_registry(&SweepConfig::default()))
}

#[test]
fn full_registry_is_lint_clean() {
    let s = summary();
    assert!(s.cases > 3500, "sweep shrank unexpectedly: {} cases", s.cases);
    assert_eq!(
        s.errors,
        0,
        "registry has error-severity lint findings:\n{}",
        s.findings
            .iter()
            .flat_map(|f| f.diagnostics.iter())
            .cloned()
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert_eq!(s.warnings, 0, "registry has lint warnings: {:#?}", s.findings);
    assert_eq!(s.clean_cases, s.cases);
}

#[test]
fn sweep_covers_the_acceptance_grid() {
    let s = summary();
    assert_eq!(s.ranks, vec![8, 12, 32], "must cover power-of-two and non-power-of-two p");
    assert!(
        s.sizes.iter().any(|&b| b <= s.eager_threshold)
            && s.sizes.iter().any(|&b| b > s.eager_threshold),
        "sizes {:?} must straddle the eager threshold {}",
        s.sizes,
        s.eager_threshold
    );
    // Every registered algorithm of every collective appears.
    use pap::collectives::registry::algorithms;
    use pap::collectives::CollectiveKind;
    for kind in [
        CollectiveKind::Reduce,
        CollectiveKind::Allreduce,
        CollectiveKind::Alltoall,
        CollectiveKind::Bcast,
        CollectiveKind::Barrier,
        CollectiveKind::Allgather,
        CollectiveKind::Gather,
        CollectiveKind::Scatter,
    ] {
        for a in algorithms(kind) {
            assert!(
                s.algorithms
                    .iter()
                    .any(|row| row.collective == kind.name() && row.alg == a.id && row.cases > 0),
                "{} alg {} missing from the sweep",
                kind.name(),
                a.id
            );
        }
    }
}

/// Golden fixture: the registry's lint state (per-algorithm case/error/warning
/// counts) is pinned so a regression shows up as a readable JSON diff.
#[test]
fn lint_registry_fixture_is_current() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/results/lint_registry.json");
    let current = serde_json::to_string_pretty(summary()).unwrap() + "\n";
    pin::check_fixture(path, &current, "cargo test --test lint_registry");
}
