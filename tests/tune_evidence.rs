//! Tuning evidence pins: a small noisy `tune_machine` run (Hydra at 16
//! ranks, `real_machine(2)`, the three paper collectives at two sizes,
//! every shape) is pinned in `results/tune_evidence_hydra16.json` — the
//! picks plus the bits of every d̂ behind them — and must come out the same
//! at any thread count. It was recorded with one schedule build per
//! measurement, so it also pins that building once per (cell, algorithm)
//! unit changes no bit. Regenerate after
//! an intentional harness or simulator change with
//! `PAP_UPDATE_FIXTURES=1 cargo test --test tune_evidence`.

use pap::arrival::Shape;
use pap::collectives::CollectiveKind;
use pap::core::tuner::{tune_machine, TunePlan, TuneRecord};
use pap::microbench::BenchConfig;
use pap::sim::{MachineId, Platform};
use serde::Serialize;

mod pin;

const FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/results/tune_evidence_hydra16.json");

/// One tuned (collective, size) cell as pinned: the picks and the hex bits
/// of `values[pattern][alg]`, one string per pattern row.
#[derive(Serialize)]
struct Pin {
    kind: String,
    bytes: u64,
    pick: u8,
    status_quo: u8,
    algs: Vec<u8>,
    d_hat_bits: Vec<String>,
}

fn pins(records: &[TuneRecord]) -> Vec<Pin> {
    records
        .iter()
        .map(|r| Pin {
            kind: r.entry.kind.to_string(),
            bytes: r.entry.bytes,
            pick: r.entry.alg,
            status_quo: r.status_quo,
            algs: r.matrix.algs.clone(),
            d_hat_bits: r
                .matrix
                .patterns
                .iter()
                .zip(&r.matrix.values)
                .map(|(name, row)| {
                    let bits: Vec<String> = row.iter().map(|v| format!("{:016x}", v.to_bits())).collect();
                    format!("{name}: {}", bits.join(" "))
                })
                .collect(),
        })
        .collect()
}

fn tune() -> String {
    let platform = Platform::preset(MachineId::Hydra, 16);
    let plan = TunePlan {
        kinds: CollectiveKind::PAPER.to_vec(),
        sizes: vec![64, 32 * 1024],
        shapes: Shape::SUITE.to_vec(),
        ..TunePlan::default()
    };
    let cfg = BenchConfig::real_machine(2);
    let (_, records) = tune_machine(&platform, &plan, &cfg).expect("tune");
    serde_json::to_string_pretty(&pins(&records)).unwrap() + "\n"
}

#[test]
fn tune_evidence_fixture_is_current() {
    pin::check_fixture(FIXTURE, &tune(), "cargo test --test tune_evidence");
}

#[test]
fn tune_is_identical_at_any_thread_count() {
    let before = pap::parallel::threads();
    pap::parallel::set_threads(1);
    let sequential = tune();
    for n in [2, 3, 8] {
        pap::parallel::set_threads(n);
        assert_eq!(tune(), sequential, "thread count {n} changed the tune evidence");
    }
    pap::parallel::set_threads(before);
}
