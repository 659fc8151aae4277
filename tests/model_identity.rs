//! Bit-for-bit pin of every `pap-model` prediction on a grid.
//!
//! For each (collective, algorithm, platform, ranks) the test predicts every
//! grid point (sizes, two segment sizes, the nine arrival shapes, and roots
//! {0, p / 2, p − 1} for the rows that read the root) and folds the
//! `to_bits()` of each prediction's `last_delay` and `total_delay` into one
//! 64-bit FNV-1a digest. `results/model_digests.json` holds the digests, so
//! a refactor of the model or of the schedule rules it reads cannot move a
//! single prediction unnoticed. Hydra at 64 ranks spans two nodes, so the
//! NIC clocks are covered. Regenerate after an intentional model change with
//! `PAP_UPDATE_FIXTURES=1 cargo test --test model_identity`.

use std::fmt::Write;

use pap::arrival::{generate, Shape};
use pap::collectives::registry::ALGORITHMS;
use pap::collectives::CollSpec;
use pap::sim::{MachineId, Platform};

mod pin;
use pin::Fnv;

const MACHINES: [MachineId; 2] = [MachineId::SimCluster, MachineId::Hydra];
const RANKS: [usize; 8] = [1, 2, 3, 5, 8, 13, 17, 64];
const BYTES: [u64; 4] = [0, 8, 32 << 10, 1 << 20];
const SEG_BYTES: [u64; 2] = [8192, 1000];
const SKEW: f64 = 100e-6;
const SEED: u64 = 7;

/// `(entry name, digest)` for the whole grid, in registry order.
fn digests() -> Vec<(String, String)> {
    let mut out = Vec::new();
    for a in ALGORITHMS {
        for machine in MACHINES {
            for p in RANKS {
                let name = format!("{} A{} {} p={p}", a.kind, a.id, machine.name());
                let platform = Platform::preset(machine, p);
                let patterns: Vec<_> = Shape::SUITE.iter().map(|&s| generate(s, p, SKEW, SEED)).collect();
                let mut roots = if a.reads_root { vec![0, p / 2, p - 1] } else { vec![0] };
                roots.dedup();
                let mut h = Fnv::default();
                for bytes in BYTES {
                    for seg in SEG_BYTES {
                        for &root in &roots {
                            let spec = CollSpec::new(a.kind, a.id, bytes).with_seg_bytes(seg).with_root(root);
                            for pattern in &patterns {
                                let d = pap::model::predict(&platform, &spec, pattern)
                                    .unwrap_or_else(|e| panic!("{name}: {e}"));
                                write!(h, "{:x} {:x};", d.last_delay.to_bits(), d.total_delay.to_bits()).unwrap();
                            }
                        }
                    }
                }
                out.push((name, format!("{:016x}", h.0)));
            }
        }
    }
    out
}

#[derive(serde::Deserialize)]
struct Fixture {
    machines: Vec<String>,
    ranks: Vec<usize>,
    bytes: Vec<u64>,
    seg_bytes: Vec<u64>,
    skew: f64,
    seed: u64,
    digests: Vec<(String, String)>,
}

#[test]
fn every_model_prediction_is_pinned_bit_for_bit() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/results/model_digests.json");
    let machines: Vec<String> = MACHINES.iter().map(|m| m.name().to_string()).collect();
    let current = digests();
    if std::env::var("PAP_UPDATE_FIXTURES").is_ok_and(|v| v == "1") {
        // Written by hand so the entries keep registry order, one per line.
        let mut s = String::from("{\n");
        writeln!(s, "  \"machines\": {machines:?},").unwrap();
        writeln!(s, "  \"ranks\": {RANKS:?},").unwrap();
        writeln!(s, "  \"bytes\": {BYTES:?},").unwrap();
        writeln!(s, "  \"seg_bytes\": {SEG_BYTES:?},").unwrap();
        writeln!(s, "  \"skew\": {SKEW:?},").unwrap();
        writeln!(s, "  \"seed\": {SEED},").unwrap();
        pin::write_digests(&mut s, &current);
        std::fs::write(path, s).unwrap();
        return;
    }
    let stored: Fixture = serde_json::from_str(&std::fs::read_to_string(path).expect(
        "missing results/model_digests.json — generate it with \
         PAP_UPDATE_FIXTURES=1 cargo test --test model_identity",
    ))
    .unwrap();
    assert_eq!(
        (stored.machines, stored.ranks, stored.bytes, stored.seg_bytes, stored.skew, stored.seed),
        (machines, RANKS.to_vec(), BYTES.to_vec(), SEG_BYTES.to_vec(), SKEW, SEED),
        "the fixture was recorded on another grid"
    );
    let moved = pin::moved(&current, &stored.digests);
    assert!(
        moved.is_empty(),
        "{} prediction digest(s) moved; if the change is intentional, regenerate with \
         PAP_UPDATE_FIXTURES=1:\n{}",
        moved.len(),
        moved.join("\n")
    );
}
