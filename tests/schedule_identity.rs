//! Op-for-op pin of every registry schedule.
//!
//! For each (collective, algorithm, ranks) the test builds the schedule at
//! every grid point (sizes, two segment sizes, and roots {0, 1, p − 1} for
//! the rows that read the root) and folds the `Debug` text of each
//! [`Built`](pap::collectives::Built) — every rank's ops plus the segment
//! count — into one 64-bit FNV-1a digest. `results/schedule_digests.json`
//! holds the digests, so a renumbered slot, tag, request or block filter
//! fails here even where timing, data and lint counts do not move.
//! Regenerate after an intentional schedule change with
//! `PAP_UPDATE_FIXTURES=1 cargo test --test schedule_identity`.

use std::fmt::Write;

use pap::collectives::registry::ALGORITHMS;
use pap::collectives::{build, CollSpec, DEFAULT_SEG_BYTES};

mod pin;
use pin::Fnv;

const RANKS: [usize; 12] = [1, 2, 3, 4, 5, 7, 8, 12, 13, 16, 32, 64];
const BYTES: [u64; 5] = [0, 1, 8, 16_385, 100_000];
const SEG_BYTES: [u64; 2] = [DEFAULT_SEG_BYTES, 1000];

/// `(entry name, digest)` for the whole grid, in registry order.
fn digests() -> Vec<(String, String)> {
    let mut out = Vec::new();
    for a in ALGORITHMS {
        for p in RANKS {
            let mut roots = if a.reads_root { vec![0, 1, p - 1] } else { vec![0] };
            roots.retain(|&r| r < p);
            roots.dedup();
            let mut h = Fnv::default();
            for bytes in BYTES {
                for seg in SEG_BYTES {
                    for &root in &roots {
                        let spec = CollSpec::new(a.kind, a.id, bytes).with_seg_bytes(seg).with_root(root);
                        let built = build(&spec, p).unwrap_or_else(|e| panic!("{} A{} p={p}: {e}", a.kind, a.id));
                        write!(h, "{built:?}").unwrap();
                    }
                }
            }
            out.push((format!("{} A{} p={p}", a.kind, a.id), format!("{:016x}", h.0)));
        }
    }
    out
}

#[derive(serde::Deserialize)]
struct Fixture {
    ranks: Vec<usize>,
    bytes: Vec<u64>,
    seg_bytes: Vec<u64>,
    digests: Vec<(String, String)>,
}

#[test]
fn every_registry_schedule_is_pinned_op_for_op() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/results/schedule_digests.json");
    let current = digests();
    if std::env::var("PAP_UPDATE_FIXTURES").is_ok_and(|v| v == "1") {
        // Written by hand so the entries keep registry order, one per line.
        let mut s = String::from("{\n");
        writeln!(s, "  \"ranks\": {RANKS:?},").unwrap();
        writeln!(s, "  \"bytes\": {BYTES:?},").unwrap();
        writeln!(s, "  \"seg_bytes\": {SEG_BYTES:?},").unwrap();
        pin::write_digests(&mut s, &current);
        std::fs::write(path, s).unwrap();
        return;
    }
    let stored: Fixture = serde_json::from_str(&std::fs::read_to_string(path).expect(
        "missing results/schedule_digests.json — generate it with \
         PAP_UPDATE_FIXTURES=1 cargo test --test schedule_identity",
    ))
    .unwrap();
    assert_eq!(
        (stored.ranks, stored.bytes, stored.seg_bytes),
        (RANKS.to_vec(), BYTES.to_vec(), SEG_BYTES.to_vec()),
        "the fixture was recorded on another grid"
    );
    let moved = pin::moved(&current, &stored.digests);
    assert!(
        moved.is_empty(),
        "{} schedule(s) moved; if the change is intentional, regenerate with \
         PAP_UPDATE_FIXTURES=1:\n{}",
        moved.len(),
        moved.join("\n")
    );
}
