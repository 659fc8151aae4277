//! Differential cross-validation of the analytical backend (`pap-model`)
//! against the event-driven simulator on the paper's Fig. 4 grid:
//! SimCluster, 64 ranks, the three paper collectives with their experiment
//! algorithm sets, sizes {8 B, 1 KiB, 32 KiB}, all nine arrival shapes,
//! skew = 1.5 × calibrated mean runtime.
//!
//! Selection only consumes *rankings*, so the acceptance bar is rank
//! correlation (Spearman ≥ 0.8 per (collective, pattern) cell), with a
//! looser magnitude bound as a sanity net. On a single node, and across
//! nodes with NIC serialization off, the model has no NIC contention to
//! approximate and must instead be exact. A golden fixture in
//! `results/model_vs_sim_fig4.json` pins the orderings; regenerate it with
//! `PAP_UPDATE_FIXTURES=1 cargo test --release --test differential`.

use std::sync::OnceLock;

use pap::arrival::{generate, Shape};
use pap::collectives::registry::{algorithms, experiment_ids};
use pap::collectives::{CollSpec, CollectiveKind};
use pap::core::{differential_grid, DiffCell};
use pap::microbench::{measure, BenchConfig};
use pap::sim::{MachineId, Platform};

mod pin;

const RANKS: usize = 64;
const SIZES: [u64; 3] = [8, 1024, 32768];
const SKEW_FACTOR: f64 = 1.5;

/// The Fig. 4 grid, computed once and shared by every test in this file.
fn grid() -> &'static [DiffCell] {
    static GRID: OnceLock<Vec<DiffCell>> = OnceLock::new();
    GRID.get_or_init(|| {
        let platform = Platform::simcluster(RANKS);
        let cfg = BenchConfig::simulation();
        let mut cells = Vec::new();
        for kind in CollectiveKind::PAPER {
            let algs = experiment_ids(kind);
            cells.extend(
                differential_grid(
                    &platform,
                    kind,
                    &algs,
                    &SIZES,
                    &Shape::SUITE,
                    SKEW_FACTOR,
                    &cfg,
                )
                .expect("differential grid"),
            );
        }
        cells
    })
}

/// The tentpole acceptance criterion: the model reproduces the simulator's
/// ranking of (algorithm, size) pairs in every (collective, pattern) cell.
#[test]
fn fig4_model_ranks_match_simulator() {
    let mut violations = Vec::new();
    for c in grid() {
        eprintln!(
            "{} / {:<14} spearman {:+.4} kendall {:+.4} med-rel {:.3} max-rel {:.3}",
            c.kind, c.pattern, c.spearman, c.kendall, c.median_rel_err, c.max_rel_err
        );
        if c.spearman < 0.8 {
            violations.push(format!(
                "({}, {}): spearman {:.4} < 0.8\n  sim:   {:?}\n  model: {:?}",
                c.kind, c.pattern, c.spearman, c.sim_order, c.model_order
            ));
        }
    }
    assert!(
        violations.is_empty(),
        "model/sim rank disagreement on the Fig. 4 grid:\n{}",
        violations.join("\n")
    );
}

/// Magnitude sanity net: the model is allowed to be off in absolute terms
/// (it resolves NIC contention in schedule order, not timestamp order), but
/// the typical (algorithm, size) pair of every cell must track the
/// simulator closely. The *max* bound is deliberately loose: on shapes
/// where the straggler arrives after everyone else finished helping, the
/// simulator's d̂ approaches the straggler's solo work and relative error
/// on that near-zero baseline blows up without the ranking being wrong
/// (measured worst case ≈ 30 on the seed grid).
#[test]
fn fig4_model_magnitudes_bounded() {
    let mut violations = Vec::new();
    for c in grid() {
        if c.median_rel_err > 0.25 {
            violations.push(format!(
                "({}, {}): median relative error {:.3} > 0.25",
                c.kind, c.pattern, c.median_rel_err
            ));
        }
        if c.max_rel_err > 50.0 {
            violations.push(format!(
                "({}, {}): max relative error {:.3} > 50",
                c.kind, c.pattern, c.max_rel_err
            ));
        }
    }
    assert!(
        violations.is_empty(),
        "model magnitudes drifted from the simulator:\n{}",
        violations.join("\n")
    );
}

/// On one node there is no NIC to contend for, so the hand model has
/// nothing to approximate: SimCluster packs up to 32 ranks on one node, and
/// there `pap_model::predict` must reproduce a noise-free simulator
/// measurement to 1e-9 relative (see [`assert_model_exact`]). Drift between
/// the schedule builders and the hand model shows up here as a number, not
/// only as a rank flip at 64 ranks.
#[test]
fn single_node_model_is_exact() {
    assert_model_exact("single-node", [2, 3, 13, 32].map(Platform::simcluster));
}

/// Across nodes the model's one approximation is the NIC rule: it advances
/// each node's NIC clocks in the order its replay resolves messages, where
/// the simulator takes NIC slots in time order (ROADMAP item 17). With NIC
/// serialization off there is nothing left to approximate, so on
/// multi-node layouts the model must be exact too. Hydra and Galileo100
/// (eager thresholds 16 KiB and 64 KiB) at 13 and 32 ranks, 4 cores per
/// node, put tree and ring edges on both sides of node boundaries.
#[test]
fn nic_free_model_is_exact() {
    let platforms = [MachineId::Hydra, MachineId::Galileo100].into_iter().flat_map(|machine| {
        [13usize, 32].map(|p| Platform {
            nodes: p.div_ceil(4),
            cores_per_node: 4,
            nic_serialization: false,
            ..Platform::preset(machine, p)
        })
    });
    assert_model_exact("NIC-free", platforms);
}

/// `pap_model::predict` reproduces a noise-free simulator measurement to
/// 1e-9 relative on every platform given: every registered algorithm, a
/// latency- and a bandwidth-bound size, every arrival shape, and for the
/// rooted collectives, roots 0, p − 1 and p / 2 as well. Prints
/// the worst gap as `<label> worst relative gap …`.
fn assert_model_exact(label: &str, platforms: impl IntoIterator<Item = Platform>) {
    const SKEW: f64 = 100e-6;
    let cfg = BenchConfig::simulation();
    let mut worst: (f64, String) = (0.0, String::new());
    for platform in platforms {
        let p = platform.ranks;
        let machine = platform.machine.name();
        for kind in CollectiveKind::ALL {
            for a in algorithms(kind) {
                let mut roots = if kind.rooted() { vec![0, p - 1, p / 2] } else { vec![0] };
                roots.dedup();
                for &root in &roots {
                    for bytes in [8, 1 << 20] {
                        let spec = CollSpec::new(kind, a.id, bytes).with_root(root);
                        for shape in Shape::SUITE {
                            let pattern = generate(shape, p, SKEW, 7);
                            let sim = measure(&platform, &spec, &pattern, &cfg).expect("simulator run");
                            let model =
                                pap::model::predict(&platform, &spec, &pattern).expect("model prediction");
                            for (what, s, m) in [
                                ("d_hat", sim.mean_last(), model.last_delay),
                                ("d_star", sim.mean_total(), model.total_delay),
                            ] {
                                let rel = (m - s).abs() / s.abs().max(f64::MIN_POSITIVE);
                                if rel > worst.0 {
                                    let at = format!("{machine} {kind} A{} p={p} root {root} {bytes} B {shape:?} {what}", a.id);
                                    worst = (rel, format!("{at}: sim {s:e} model {m:e}"));
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    eprintln!("{label} worst relative gap {:.2e} at {}", worst.0, worst.1);
    assert!(worst.0 <= 1e-9, "{label}: model and simulator disagree: {:.2e} at {}", worst.0, worst.1);
}

/// Golden-fixture regression: the per-cell orderings and (rounded)
/// correlations on the Fig. 4 grid are pinned in `results/`. Any cost-model
/// or simulator change that shifts a ranking shows up as a readable JSON
/// diff. Set `PAP_UPDATE_FIXTURES=1` to regenerate after an intentional
/// change.
#[test]
fn fig4_fixture_is_current() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/results/model_vs_sim_fig4.json");
    let current = serde_json::to_string_pretty(&fixture(grid())).unwrap() + "\n";
    pin::check_fixture(path, &current, "cargo test --release --test differential");
}

/// The pinned payload: grid metadata plus, per cell, the two orderings and
/// correlations rounded to 4 decimals (full-precision floats would make the
/// fixture churn on any harmless arithmetic reordering).
#[derive(serde::Serialize)]
struct Fixture {
    platform: String,
    ranks: usize,
    sizes: Vec<u64>,
    skew_factor: f64,
    cells: Vec<FixtureCell>,
}

#[derive(serde::Serialize)]
struct FixtureCell {
    kind: String,
    pattern: String,
    spearman: f64,
    kendall: f64,
    median_rel_err: f64,
    sim_order: Vec<String>,
    model_order: Vec<String>,
}

fn fixture(cells: &[DiffCell]) -> Fixture {
    fn r4(x: f64) -> f64 {
        (x * 1e4).round() / 1e4
    }
    Fixture {
        platform: "SimCluster".into(),
        ranks: RANKS,
        sizes: SIZES.to_vec(),
        skew_factor: SKEW_FACTOR,
        cells: cells
            .iter()
            .map(|c| FixtureCell {
                kind: c.kind.name().into(),
                pattern: c.pattern.clone(),
                spearman: r4(c.spearman),
                kendall: r4(c.kendall),
                median_rel_err: r4(c.median_rel_err),
                sim_order: c.sim_order.clone(),
                model_order: c.model_order.clone(),
            })
            .collect(),
    }
}
