//! Closed-loop calibration acceptance: onboarding unseen machines from a
//! measured probe (`pap-calibrate`).
//!
//! * Each real preset is treated as a black box: a probe is synthesized from
//!   it with noise and drifting clocks enabled, fitted blind, and selection
//!   from the fitted parameters must agree with the true preset on >= 90% of
//!   the Fig. 4 grid. The fitted-vs-true summary is pinned as a golden
//!   fixture under `results/` (regenerate with `PAP_UPDATE_FIXTURES=1`).
//! * A cold daemon — no preset tuning, no snapshot — must answer queries for
//!   a `Custom` machine after one `Calibrate` frame, with background sim
//!   refinement observable through the generation bump.
//! * `LinkParams::transfer_time` invariants and snapshot compatibility for
//!   `Custom` machines (old snapshot files must still load).

use std::path::PathBuf;
use std::time::{Duration, Instant};

use pap::calibrate::{
    fit_probe, selection_agreement, synthesize_probe, AgreementReport, ProbeConfig, CHECK_RANKS,
};
use pap::collectives::CollectiveKind;
use pap::core::tuner::{tune_machine, TunePlan};
use pap::microbench::{Backend, BenchConfig};
use pap::service::{Client, QueryRequest, ServeConfig, Server, Snapshot, Tier};
use pap::sim::{register_custom_platform, LinkParams, MachineId, Platform};
use proptest::prelude::*;
use serde::Serialize;

fn scratch(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("pap-calibration-{}-{name}", std::process::id()));
    p
}

/// What the golden fixture pins per machine: the agreement score, every
/// disagreeing grid cell, and the fitted-vs-true parameter table (fixed
/// formatting keeps the file readable and byte-stable — the whole pipeline
/// is deterministic under the probe's fixed seed).
#[derive(Serialize)]
struct CalibrationPin {
    machine: String,
    fitted: String,
    ranks: usize,
    cells: usize,
    agreement_pct: String,
    disagreements: Vec<String>,
    params: Vec<String>,
}

fn pin_of(r: &AgreementReport) -> CalibrationPin {
    CalibrationPin {
        machine: r.machine.clone(),
        fitted: r.fitted.clone(),
        ranks: r.ranks,
        cells: r.cells.len(),
        agreement_pct: format!("{:.1}", 100.0 * r.agreement),
        disagreements: r
            .cells
            .iter()
            .filter(|c| !c.agrees())
            .map(|c| {
                format!(
                    "{} @ {} B, {}: true={} fitted={}",
                    c.kind, c.bytes, c.policy, c.true_pick, c.fitted_pick
                )
            })
            .collect(),
        params: r
            .params
            .iter()
            .map(|p| {
                format!(
                    "{}: true={:.4e} fitted={:.4e} rel_err={:.2}%",
                    p.name,
                    p.true_value,
                    p.fitted_value,
                    100.0 * p.rel_err
                )
            })
            .collect(),
    }
}

/// Acceptance: for every real preset of Table I, a blind fit from a noisy,
/// clock-skewed probe selects the same algorithm as the true platform on at
/// least 90% of the Fig. 4 grid.
#[test]
fn fitted_selection_matches_true_presets_on_fig4_grid() {
    let mut pins = Vec::new();
    for (machine, name) in [
        (MachineId::Hydra, "fitcheck-hydra"),
        (MachineId::Galileo100, "fitcheck-galileo100"),
        (MachineId::Discoverer, "fitcheck-discoverer"),
    ] {
        // Black box: the probe observes the preset only through measured
        // (noisy, clock-corrected) timings; the fit never sees the spec.
        let probe = synthesize_probe(machine, name, &ProbeConfig::default()).expect("probe");
        let fit = fit_probe(&probe).expect("guideline-clean fit on a real preset");
        let fitted = register_custom_platform(name, fit.spec.clone()).expect("register");
        let report = selection_agreement(machine, fitted, CHECK_RANKS).expect("agreement grid");
        assert!(
            report.agreement >= 0.90,
            "{}: fitted selection agrees on only {:.1}% of the Fig. 4 grid",
            machine.name(),
            100.0 * report.agreement
        );
        pins.push(pin_of(&report));
    }

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/results/calibration_agreement.json");
    let current = serde_json::to_string_pretty(&pins).unwrap() + "\n";
    if std::env::var("PAP_UPDATE_FIXTURES").is_ok_and(|v| v == "1") {
        std::fs::write(path, current).unwrap();
        return;
    }
    let stored = std::fs::read_to_string(path).expect(
        "missing results/calibration_agreement.json — generate it with \
         PAP_UPDATE_FIXTURES=1 cargo test --test calibration",
    );
    assert_eq!(
        stored, current,
        "fitted-vs-true calibration summary drifted — if intended, regenerate \
         with PAP_UPDATE_FIXTURES=1 cargo test --test calibration"
    );
}

/// Acceptance: a cold `papd` (no preset, no snapshot) rejects queries for an
/// unknown machine, onboards it from one `Calibrate` frame, serves follow-up
/// queries from the published L2 grid, and upgrades cells to sim-backed
/// evidence in the background (observable as a generation bump).
#[test]
fn cold_daemon_onboards_a_custom_machine_from_one_calibrate_frame() {
    let cfg = ServeConfig { tune_at_startup: false, refine_threads: 1, ..ServeConfig::default() };
    let server = Server::start(cfg).expect("server start");
    let mut client = Client::connect(server.local_addr()).expect("connect");

    let q = QueryRequest {
        machine: "custom:e2e-site".into(),
        collective: CollectiveKind::Reduce,
        bytes: 8,
        ranks: 4,
        arrivals: None,
    };
    let err = client.query(q.clone()).expect_err("unknown machine must be rejected while cold");
    assert!(err.contains("no registered calibration"), "unexpected rejection: {err}");

    let probe = synthesize_probe(
        MachineId::SimCluster,
        "e2e-site",
        &ProbeConfig { reps: 2, noise: false, clock_sync: false, ..ProbeConfig::default() },
    )
    .expect("probe");
    let ans = client.calibrate("e2e-site", 4, probe).expect("calibrate frame");
    assert_eq!(ans.machine, "custom:e2e-site");
    assert_eq!(ans.l2_cells, 12, "the default pre-tune plan is 3 kinds x 4 sizes");
    assert_eq!(
        ans.refine_scheduled, ans.l2_cells,
        "every model-backed cell must get a sim upgrade scheduled"
    );
    assert!(ans.fit.median_rel_residual < 0.15, "noise-free fit should be tight");

    // The machine now answers from the L2 grid the calibration published.
    // The backend starts as "model" but the background worker may upgrade
    // this very cell (it is the first ticket) before the reply round-trips,
    // so only the tier is pinned here and the final state below.
    let first = client.query(q.clone()).expect("first query after calibration");
    assert_eq!(first.machine, "custom:e2e-site");
    assert_eq!(first.tier, Tier::L2);

    // Background sim refinement lands cell by cell; the first tuned cell is
    // exactly this query's. The upgrade invalidates the L1 entry, so the
    // re-query serves sim-backed evidence at the bumped generation.
    let deadline = Instant::now() + Duration::from_secs(180);
    let refined = loop {
        let a = client.query(q.clone()).expect("query during refinement");
        if a.backend == "sim" {
            break a;
        }
        assert!(Instant::now() < deadline, "background sim refinement never landed");
        std::thread::sleep(Duration::from_millis(50));
    };
    assert_eq!(refined.generation, 1, "the sim upgrade must bump the cell generation");
    assert_ne!(
        refined.tier,
        Tier::Computed,
        "the refined answer must come from cached evidence (L2, or L1 once re-served)"
    );

    // With one refine worker and a queue bound of 4, every one of the 12
    // tickets must still land: the calibration hands them over as one task.
    let stats = loop {
        let s = client.stats().expect("stats");
        if s.tiers.refines_applied >= ans.l2_cells as u64 {
            break s;
        }
        assert!(Instant::now() < deadline, "not every calibration refinement landed");
        std::thread::sleep(Duration::from_millis(50));
    };
    assert_eq!(stats.endpoints.calibrate, 1);

    client.shutdown().expect("shutdown handshake");
    server.join();
}

/// Snapshots tuned on a calibrated `Custom` machine round-trip and warm-start
/// a daemon; files written before the calibration subsystem existed (preset
/// machines, no `faults` key) still load.
#[test]
fn tuning_snapshots_carry_custom_machines_and_old_files_still_load() {
    let probe = synthesize_probe(
        MachineId::SimCluster,
        "snap-compat",
        &ProbeConfig { reps: 1, noise: false, clock_sync: false, ..ProbeConfig::default() },
    )
    .expect("probe");
    let fit = fit_probe(&probe).expect("fit");
    let machine = register_custom_platform("snap-compat", fit.spec).expect("register");
    let platform = Platform::try_preset(machine, 4).expect("resolve custom platform");
    let cfg = BenchConfig::simulation().with_backend(Backend::Model);
    let (_, records) = tune_machine(&platform, &TunePlan::default(), &cfg).expect("tune");

    let snap = Snapshot::from_records(machine.name(), 4, "model", &records);
    let back = Snapshot::from_json(&snap.to_json()).expect("round trip");
    assert_eq!(back, snap, "custom-machine snapshots must round-trip");
    assert_eq!(back.machine, "custom:snap-compat");

    // Warm restart from that snapshot: the custom machine serves from L2
    // with no startup tuning (the registration above is process-global, as
    // it would be after a `Calibrate` frame or `papctl calibrate`).
    let path = scratch("custom-snapshot.json");
    snap.save(&path).expect("save snapshot");
    let server = Server::start(ServeConfig {
        snapshot: Some(path.clone()),
        tune_at_startup: false,
        refine_threads: 0,
        ..ServeConfig::default()
    })
    .expect("server start");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let a = client
        .query(QueryRequest {
            machine: "custom:snap-compat".into(),
            collective: CollectiveKind::Reduce,
            bytes: 8,
            ranks: 4,
            arrivals: None,
        })
        .expect("query against snapshot-loaded custom machine");
    assert_eq!(a.tier, Tier::L2);
    client.shutdown().expect("shutdown handshake");
    server.join();
    let _ = std::fs::remove_file(&path);

    // Forward compat: a file from before this subsystem existed — preset
    // machine name, no "faults" key on any cell — must still parse.
    let legacy = snap
        .to_json()
        .replace("custom:snap-compat", "simcluster")
        .replace(",\n      \"faults\": null", "");
    let old = Snapshot::from_json(&legacy).expect("pre-calibration snapshot must still load");
    assert_eq!(old.machine, "simcluster");
    assert_eq!(old.cells.len(), snap.cells.len());
}

fn presets() -> [MachineId; 4] {
    [MachineId::SimCluster, MachineId::Hydra, MachineId::Galileo100, MachineId::Discoverer]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Transfer time never decreases with message size, and never undercuts
    /// the wire latency.
    #[test]
    fn transfer_time_is_monotone_in_bytes(
        lat in 1e-9f64..1e-2,
        bw in 1e6f64..1e14,
        lo in 0u64..1 << 31,
        delta in 0u64..1 << 31,
    ) {
        let link = LinkParams { latency: lat, bandwidth: bw };
        prop_assert!(link.transfer_time(lo + delta) >= link.transfer_time(lo));
        prop_assert!(link.transfer_time(lo) >= lat);
    }

    /// Crossing the switch is never cheaper than shared memory in the
    /// latency term, on any preset; for latency-bound sizes that dominance
    /// carries over to the whole transfer (big messages may cross over on
    /// presets whose inter-node links out-run their memory bandwidth).
    #[test]
    fn inter_link_dominates_intra_on_every_preset(bytes in 0u64..8192) {
        for m in presets() {
            let p = Platform::try_preset(m, 64).unwrap();
            prop_assert!(
                p.inter.latency >= p.intra.latency,
                "{}: inter latency undercuts intra", m.name()
            );
            prop_assert!(
                p.inter.transfer_time(bytes) >= p.intra.transfer_time(bytes),
                "{}: inter transfer undercuts intra at {} bytes", m.name(), bytes
            );
        }
    }

    /// `LinkParams` survive JSON serialization bit-exactly (the format the
    /// fitted `PlatformSpec` travels in, both on disk and on the wire).
    #[test]
    fn link_params_survive_a_serde_round_trip(lat in 1e-9f64..1e-2, bw in 1e6f64..1e14) {
        let link = LinkParams { latency: lat, bandwidth: bw };
        let json = serde_json::to_string(&link).unwrap();
        let back: LinkParams = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(link, back);
    }
}
