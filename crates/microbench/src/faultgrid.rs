//! The fault grid: the Fig. 6 robustness methodology extended from arrival
//! skew to runtime faults.
//!
//! Where [`crate::sweep`](mod@crate::sweep) asks *"how does each algorithm degrade when
//! processes arrive late?"*, this module asks *"how does each algorithm
//! degrade when the machine misbehaves mid-collective?"* — a rank freezes,
//! a rank dies, a link slows down, a node range catches a noise storm. Each
//! scenario is a named [`FaultSpec`]; the grid is `(algorithm × scenario)`
//! and every cell re-measures the collective under that scenario.
//!
//! A cell whose algorithm *cannot finish* under the scenario (a crashed
//! rank starves its dependents — the engine reports a deadlock) records
//! `mean_last = None`: the degraded-mode analogue of an infinitely slow
//! algorithm. `pap-core`'s fault matrix maps those to an unbounded
//! worst-case degradation, which the fault-robust selection policy avoids.

use pap_collectives::{CollSpec, CollectiveKind};
use pap_lint::{crash_cone, CrashPoint, LintConfig};
use pap_sim::{FaultSpec, Platform, SimError, ANY_NODE};
use serde::{Deserialize, Serialize};

use crate::harness::{measure_with, BenchConfig, BenchError, Schedule, START_TARGET};
use crate::sweep::{derive_seed, tag_base};

/// Version of the standard fault grid's scenario semantics. Bump whenever
/// the scenario set or its timing changes in a way that makes persisted
/// fault evidence (snapshots, fixtures) incomparable with fresh sweeps.
///
/// * v1 — crashes placed *inside* the collective (`start + 0.05 t`).
/// * v2 — crashes placed **at the arrival instant** (`start`): with strictly
///   positive send/receive overheads, nothing of the crashed rank's schedule
///   posts, so the engine's starved set equals `pap-lint`'s static
///   entry-crash cone exactly — the alignment the static prefilter and the
///   differential tests rely on.
pub const FAULT_GRID_VERSION: u32 = 2;

/// A named fault scenario: one cell column of the fault grid.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultScenario {
    /// Scenario name (the grid row label, e.g. `"stall_root"`).
    pub(crate) name: String,
    /// The faults injected while the collective runs.
    pub(crate) faults: FaultSpec,
}

impl FaultScenario {
    /// Build a named scenario.
    pub(crate) fn new(name: impl Into<String>, faults: FaultSpec) -> Self {
        FaultScenario { name: name.into(), faults }
    }
}

/// The standard fault grid, scaled to a clean-run estimate `t` (seconds;
/// use [`crate::calibrate_avg_runtime`]): every window is placed relative
/// to the harmonized start so it actually overlaps the collective.
///
/// Scenarios:
/// * `clean` — no faults (the baseline every degradation is measured
///   against);
/// * `stall_root` — rank 0 freezes for `2t` just after the collective
///   starts (tree roots and bcast sources sit on the critical path);
/// * `stall_mid` — a mid-tree rank (`p/2`) freezes for `2t`;
/// * `link_degraded` — traffic out of node 0 is 8× slower for the whole
///   collective window;
/// * `storm_half` — ranks `[0, p/2)` compute 4× slower for the whole
///   window (correlated OS-noise storm);
/// * `crash_leaf` — the last rank dies **at the arrival instant**;
///   algorithms whose schedule needs that rank's cooperation never finish.
///   Crashing at (not after) arrival keeps the starved set identical to the
///   static entry-crash cone ([`FAULT_GRID_VERSION`] v2 semantics).
pub fn standard_grid(p: usize, t: f64) -> Vec<FaultScenario> {
    let start = START_TARGET;
    let window = start + 4.0 * t.max(1e-6);
    let stall = 2.0 * t.max(1e-6);
    vec![
        FaultScenario::new("clean", FaultSpec::none()),
        FaultScenario::new(
            "stall_root",
            FaultSpec::none().with_stall(0, start + 0.1 * t, stall),
        ),
        FaultScenario::new(
            "stall_mid",
            FaultSpec::none().with_stall(p / 2, start + 0.1 * t, stall),
        ),
        FaultScenario::new(
            "link_degraded",
            FaultSpec::none().with_link(0, ANY_NODE, start, window, 8.0),
        ),
        FaultScenario::new(
            "storm_half",
            FaultSpec::none().with_storm(0, p / 2 - 1, start, window, 4.0),
        ),
        FaultScenario::new("crash_leaf", FaultSpec::none().with_crash(p - 1, start)),
    ]
}

/// One measured cell of the fault grid.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FaultCell {
    /// Algorithm ID.
    pub(crate) alg: u8,
    /// Scenario name.
    pub(crate) scenario: String,
    /// Mean last delay `d̂` over the surviving ranks, or `None` when the
    /// algorithm could not finish under the scenario (starved dependents).
    pub mean_last: Option<f64>,
    /// The cell was decided by `pap-lint`'s static crash cone instead of a
    /// simulator run: an entry-crash scenario whose cone is non-empty can
    /// never finish, so no sim is spent on it. `false` for measured cells
    /// (and for evidence persisted before this field existed).
    #[serde(default)]
    pub statically_decided: bool,
}

/// Results of one (collective, message size) fault sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FaultSweepResult {
    /// Collective kind.
    pub kind: CollectiveKind,
    /// Message size (bytes, collective convention).
    pub bytes: u64,
    /// Algorithm IDs in sweep order.
    pub algs: Vec<u8>,
    /// Scenario names in sweep order.
    pub scenarios: Vec<String>,
    /// All cells (algs × scenarios), algorithm-major.
    pub(crate) cells: Vec<FaultCell>,
    /// [`FAULT_GRID_VERSION`] the sweep ran under; `0` for evidence
    /// persisted before grids were versioned. Consumers reject mismatches
    /// rather than compare incomparable scenario timings.
    #[serde(default)]
    pub grid_version: u32,
}

impl FaultSweepResult {
    /// The cell of (algorithm, scenario), if present.
    pub fn cell(&self, alg: u8, scenario: &str) -> Option<&FaultCell> {
        self.cells.iter().find(|c| c.alg == alg && c.scenario == scenario)
    }
}

/// Whether a scenario is decidable by the static crash cone alone: only
/// crashes (no stalls/links/storms — those change timing, not feasibility),
/// each placed at or before the harmonized start. Under the grid's `NoDelay`
/// arrival and a shared perfect clock, such a crash fires before the rank
/// posts anything — the engine's starved set then equals the static
/// entry-crash cone, so a non-empty cone proves the cell can never finish.
fn statically_decidable(faults: &FaultSpec, cfg: &BenchConfig) -> bool {
    !cfg.clock_sync
        && !faults.crashes.is_empty()
        && faults.stalls.is_empty()
        && faults.links.is_empty()
        && faults.storms.is_empty()
        && faults.crashes.iter().all(|c| c.at <= START_TARGET)
}

/// Run the `(algorithms × scenarios)` fault grid for one collective and
/// message size. Algorithms fan out over [`pap_parallel::par_map`], each
/// building its schedule once, and cells derive their seeds from their grid
/// index exactly like [`crate::sweep()`], so the result is byte-identical at
/// any thread count. The arrival pattern is `NoDelay` throughout: the grid
/// isolates fault response from skew response (compose with
/// [`crate::sweep()`] for the combined picture).
///
/// Entry-crash scenarios are pre-filtered by `pap-lint`'s static crash
/// cone: a non-empty cone settles the cell as `mean_last = None` (flagged
/// `FaultCell::statically_decided`) without spending a simulator run —
/// the differential test tier pins the static and simulated starved sets
/// against each other, so the shortcut cannot drift from the engine.
pub fn fault_sweep(
    platform: &Platform,
    kind: CollectiveKind,
    algs: &[u8],
    bytes: u64,
    scenarios: &[FaultScenario],
    cfg: &BenchConfig,
) -> Result<FaultSweepResult, BenchError> {
    if algs.is_empty() {
        return Err(BenchError::NoAlgorithms(kind));
    }
    let p = platform.ranks;
    let nodelay = pap_arrival::generate(pap_arrival::Shape::NoDelay, p, 0.0, 0);
    let lint_cfg = LintConfig::for_platform(platform);

    // One unit per algorithm: its schedule is built once and serves the
    // static crash cone and every scenario's runs. Cell `(ai, si)` keeps
    // the seed of its grid index, so the result does not depend on the
    // thread count.
    let runs = pap_parallel::par_map(algs, |ai, &alg| {
        let spec = CollSpec::new(kind, alg, bytes).with_tag_base(tag_base(ai));
        let schedule = Schedule::build(&spec, p)?;
        let mut cells = Vec::with_capacity(scenarios.len());
        for (si, scenario) in scenarios.iter().enumerate() {
            let cell = |mean_last, statically_decided| FaultCell {
                alg,
                scenario: scenario.name.clone(),
                mean_last,
                statically_decided,
            };
            if statically_decidable(&scenario.faults, cfg) {
                let crashes: Vec<CrashPoint> =
                    scenario.faults.crashes.iter().map(|c| CrashPoint::on_entry(c.rank)).collect();
                if !crash_cone(&schedule.job, &lint_cfg, &crashes).is_empty() {
                    cells.push(cell(None, true));
                    continue;
                }
                // Empty cone: the schedule provably completes — fall
                // through to the sim for the actual degraded timing.
            }
            let run_cfg = cfg
                .clone()
                .with_seed(derive_seed(cfg.seed, (ai * scenarios.len() + si) as u64))
                .with_faults(scenario.faults.clone());
            match measure_with(platform, &spec, Some(&schedule), &nodelay, &run_cfg) {
                Ok(stats) => {
                    pap_obs::pump_spans();
                    cells.push(cell(Some(stats.mean_last()), false));
                }
                // A deadlock here is the *measured outcome* of the scenario
                // — the schedule needs a dead rank — not a harness failure.
                Err(BenchError::Sim(SimError::Deadlock { .. })) => cells.push(cell(None, false)),
                Err(e) => return Err(e),
            }
        }
        Ok(cells)
    });
    let cells = runs.into_iter().collect::<Result<Vec<_>, _>>()?.concat();

    Ok(FaultSweepResult {
        kind,
        bytes,
        algs: algs.to_vec(),
        scenarios: scenarios.iter().map(|s| s.name.clone()).collect(),
        cells,
        grid_version: FAULT_GRID_VERSION,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_grid_is_valid_and_scaled() {
        let p = 16;
        let grid = standard_grid(p, 1e-4);
        assert_eq!(grid.len(), 6);
        assert!(grid[0].faults.is_none(), "first scenario is the clean baseline");
        let platform = Platform::simcluster(p);
        for s in &grid {
            s.faults
                .validate(platform.ranks, platform.nodes)
                .unwrap_or_else(|e| panic!("scenario {} invalid: {e}", s.name));
        }
    }

    #[test]
    fn fault_sweep_covers_grid_and_degrades_faulted_cells() {
        let platform = Platform::simcluster(8);
        let cfg = BenchConfig::simulation();
        let t = crate::no_delay_runtime(&platform, CollectiveKind::Reduce, 5, 1024, &cfg, 0)
            .unwrap();
        let scenarios = standard_grid(8, t);
        let res =
            fault_sweep(&platform, CollectiveKind::Reduce, &[5, 6], 1024, &scenarios, &cfg).unwrap();
        assert_eq!(res.cells.len(), 12);
        for alg in [5u8, 6] {
            let clean = res.cell(alg, "clean").unwrap().mean_last.unwrap();
            let stalled = res.cell(alg, "stall_root").unwrap().mean_last.unwrap();
            assert!(
                stalled > clean,
                "alg {alg}: stalling the root must slow the collective ({stalled} vs {clean})"
            );
        }
    }

    #[test]
    fn crash_starved_cells_record_none() {
        // Reduce needs every rank's contribution: killing a leaf before it
        // sends starves the tree — the cell must record a clean None, not
        // an error.
        let platform = Platform::simcluster(8);
        let cfg = BenchConfig::simulation();
        let scenarios =
            vec![FaultScenario::new("crash_leaf", FaultSpec::none().with_crash(7, START_TARGET))];
        let res =
            fault_sweep(&platform, CollectiveKind::Reduce, &[5], 1024, &scenarios, &cfg).unwrap();
        assert_eq!(res.cell(5, "crash_leaf").unwrap().mean_last, None);
    }

    #[test]
    fn entry_crash_cells_are_decided_statically_and_match_the_engine() {
        let platform = Platform::simcluster(8);
        let cfg = BenchConfig::simulation();
        let scenarios = standard_grid(8, 1e-4);
        let res =
            fault_sweep(&platform, CollectiveKind::Reduce, &[1, 5], 1024, &scenarios, &cfg)
                .unwrap();
        assert_eq!(res.grid_version, FAULT_GRID_VERSION);
        for alg in [1u8, 5] {
            // Killing the leaf at arrival starves every reduce schedule:
            // the static cone settles the cell, no simulator run needed.
            let cell = res.cell(alg, "crash_leaf").unwrap();
            assert_eq!(cell.mean_last, None);
            assert!(cell.statically_decided, "entry crash must be decided by the cone");
            // Timing scenarios can never be decided statically.
            assert!(!res.cell(alg, "stall_root").unwrap().statically_decided);
            assert!(!res.cell(alg, "clean").unwrap().statically_decided);
        }
    }

    #[test]
    fn fault_sweep_is_deterministic() {
        let platform = Platform::simcluster(8);
        let cfg = BenchConfig::simulation();
        let scenarios = standard_grid(8, 1e-4);
        let run = || {
            serde_json::to_string(
                &fault_sweep(&platform, CollectiveKind::Bcast, &[3, 5], 512, &scenarios, &cfg)
                    .unwrap(),
            )
            .unwrap()
        };
        assert_eq!(run(), run());
    }
}
