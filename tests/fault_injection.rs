//! Fault-injection integration tier: runtime faults on *well-formed*
//! schedules, end to end — the `(algorithm × fault scenario)` grid, the
//! degraded-mode fault matrix, and the fault-robust selection policy.
//! (Malformed programs are `tests/malformed_schedule.rs`.)
//!
//! The golden fixture `results/fault_robustness_fig6.json` pins the full
//! degraded-mode robustness table for MPI_Reduce — the Fig. 6 methodology
//! extended from arrival skew to faults. Regenerate after an intentional
//! engine or grid change with
//! `PAP_UPDATE_FIXTURES=1 cargo test --test fault_injection`.

use std::sync::OnceLock;

use pap::collectives::registry::experiment_ids;
use pap::collectives::{CollSpec, CollectiveKind};
use pap::core::{render_fault_table, select_fault_robust, FaultMatrix};
use pap::microbench::{
    calibrate_avg_runtime, fault_sweep, profile_with_faults, standard_grid, BenchConfig,
};
use pap::service::measure_fault_matrix;
use pap::sim::{FaultSpec, MachineId, Platform};

mod pin;

const RANKS: usize = 16;
const BYTES: u64 = 1024;

/// Degradation bound of the fault-robust policy under test (`1.5` = at
/// most 2.5× slower than the algorithm's own clean run under any
/// scenario). On the pinned 16-rank Reduce grid exactly one algorithm
/// stays within this bound; every other degrades ≥ 2.6× or starves.
const BOUND: f64 = 1.5;

/// Pinned differential-quality floor: on at least this fraction of faulted
/// grid cells, the fault-robust pick must *degrade* no more than the
/// status-quo (clean-fastest) pick — degradation relative to each
/// algorithm's own clean run, the same normalization Fig. 6 applies to
/// arrival skew (starved cells degrade infinitely).
const MIN_BETTER_FRAC: f64 = 0.6;

/// The full MPI_Reduce fault grid, shared across tests (one sim sweep).
fn reduce_fault_matrix() -> &'static FaultMatrix {
    static MATRIX: OnceLock<FaultMatrix> = OnceLock::new();
    MATRIX.get_or_init(|| {
        let platform = Platform::simcluster(RANKS);
        let cfg = BenchConfig::simulation();
        let kind = CollectiveKind::Reduce;
        let algs = experiment_ids(kind);
        let t = calibrate_avg_runtime(&platform, kind, &algs, BYTES, &cfg).unwrap();
        let scenarios = standard_grid(RANKS, t);
        let sw = fault_sweep(&platform, kind, &algs, BYTES, &scenarios, &cfg).unwrap();
        FaultMatrix::from_fault_sweep(&sw)
    })
}

#[test]
fn fault_robustness_fixture_is_current() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/results/fault_robustness_fig6.json");
    let current = serde_json::to_string_pretty(reduce_fault_matrix()).unwrap() + "\n";
    pin::check_fixture(path, &current, "cargo test --test fault_injection");
}

/// papd's fault evidence and `papctl tune --faults` measure the same grid
/// as the sweep path above, scaled by the mean `NoDelay` runtime of the
/// cell's algorithms.
#[test]
fn measured_fault_matrix_equals_the_sweep_path() {
    let m = measure_fault_matrix(MachineId::SimCluster, CollectiveKind::Reduce, RANKS, BYTES).unwrap();
    assert_eq!(&m, reduce_fault_matrix());
}

/// The headline acceptance property: the fault grid *discriminates* — the
/// status-quo (clean-fastest) pick is not the fault-robust pick, so at
/// least one faulted cell flips the selection.
#[test]
fn fault_robust_policy_flips_selection_on_the_grid() {
    let m = reduce_fault_matrix();
    let clean = m.scenario_index("clean").unwrap();
    let status_quo_col = (0..m.algs.len())
        .min_by(|&a, &b| {
            m.values[clean][a].unwrap().total_cmp(&m.values[clean][b].unwrap())
        })
        .unwrap();
    let status_quo = m.algs[status_quo_col];
    let robust = select_fault_robust(m, BOUND).unwrap();
    assert_ne!(
        robust, status_quo,
        "the fault grid must flip the selection away from the clean winner"
    );
    // The fault-robust pick honors its contract: bounded worst case, and
    // it survives every scenario *some* algorithm survives (the v2 grid's
    // entry crash starves every reduce schedule — nothing can survive
    // losing a contributor, so that row discriminates nothing).
    let worst = m.worst_case_degradation().unwrap();
    let robust_col = m.alg_index(robust).unwrap();
    assert!(worst[robust_col] <= BOUND, "worst case {} > bound", worst[robust_col]);
    let survivable = m
        .scenarios
        .iter()
        .zip(&m.values)
        .filter(|(s, row)| s.as_str() != "clean" && row.iter().any(Option::is_some))
        .count();
    assert_eq!(m.survived(robust).len(), survivable);
}

/// Differential quality floor: across the faulted cells, the fault-robust
/// pick degrades no more than the status-quo pick on at least
/// [`MIN_BETTER_FRAC`] of them. Degradation is relative to each
/// algorithm's own clean run (starved cells degrade infinitely) — exactly
/// the quantity the policy bounds and Fig. 6 tabulates.
#[test]
fn fault_robust_pick_beats_status_quo_on_most_faulted_cells() {
    let m = reduce_fault_matrix();
    let clean = m.scenario_index("clean").unwrap();
    let deg = m.degradation().unwrap();
    let status_quo_col = (0..m.algs.len())
        .min_by(|&a, &b| {
            m.values[clean][a].unwrap().total_cmp(&m.values[clean][b].unwrap())
        })
        .unwrap();
    let robust_col = m.alg_index(select_fault_robust(m, BOUND).unwrap()).unwrap();
    let cell = |r: usize, c: usize| deg[r][c].unwrap_or(f64::INFINITY);
    let mut no_worse = 0usize;
    let mut total = 0usize;
    for r in 0..m.scenarios.len() {
        if r == clean {
            continue;
        }
        total += 1;
        if cell(r, robust_col) <= cell(r, status_quo_col) {
            no_worse += 1;
        }
    }
    assert!(
        no_worse as f64 >= MIN_BETTER_FRAC * total as f64,
        "fault-robust pick degrades less on only {no_worse}/{total} faulted cells"
    );
}

/// The grid contains at least one starved cell (an algorithm whose schedule
/// needs the crashed leaf), and the renderer marks it.
#[test]
fn crash_scenario_starves_some_algorithm_and_renders() {
    let m = reduce_fault_matrix();
    let crash = m.scenario_index("crash_leaf").expect("standard grid has crash_leaf");
    assert!(
        m.values[crash].iter().any(Option::is_none),
        "killing a leaf must starve at least one reduce schedule"
    );
    let table = render_fault_table(m, 0.25).unwrap();
    assert!(table.contains('X'), "starved cells render as X:\n{table}");
    assert!(table.contains("crash_leaf"), "{table}");
}

/// End to end through the profiler: a faulted run yields a valid Perfetto
/// trace whose faults lane and crashed slice record where the schedule
/// stalled, and the degraded-mode d̂ is no better than the clean one.
#[test]
fn faulted_profile_round_trips_as_valid_trace() {
    let p = 8;
    let platform = Platform::simcluster(p);
    // Bcast is outside the paper's experiment set; take the first
    // registered algorithm instead.
    let alg = pap::collectives::registry::algorithms(CollectiveKind::Bcast)[0].id;
    let spec = CollSpec::new(CollectiveKind::Bcast, alg, 2048);
    let pattern = pap::arrival::generate(pap::arrival::Shape::Ascending, p, 1e-4, 3);
    let clean = profile_with_faults(&platform, &spec, &pattern, 3, &FaultSpec::none()).unwrap();
    let faults = FaultSpec::none()
        .with_stall(1, 1e-3, 2e-4)
        .with_crash(p - 1, 1e-3 + 5e-7)
        .with_storm(0, 3, 1e-3, 2e-3, 3.0);
    let prof = profile_with_faults(&platform, &spec, &pattern, 3, &faults).unwrap();
    assert_eq!(prof.crashed, 1);
    assert!(prof.d_hat >= clean.d_hat, "faults cannot speed survivors up");
    let json = prof.trace.to_json_string();
    let stats = pap::obs::validate_trace(&json).unwrap();
    assert_eq!(stats.lanes, p + 1, "rank lanes plus the faults lane");
    assert!(json.contains("crashed"));
    assert!(json.contains("storm r0-r3"));
}
