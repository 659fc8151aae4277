//! The checked-in text results that regenerate byte-for-byte, pinned: each
//! `pap-bench` driver's output must equal its file under `results/`, at the
//! `Scale` that `papctl figures <name>` builds from the recorded flags. The
//! other text figures are not pinned (results/README.md lists which are).

use pap_bench::{ext_skew_factor, table1, table2, Scale};

#[test]
fn pinned_text_results_regenerate() {
    // `papctl figures ext_skew_factor --ranks 256`: every other flag at its default.
    let ranks_256 = Scale { ranks: 256, ..Scale::default() };
    for (file, out) in [
        ("table1.txt", table1()),
        ("table2.txt", table2()),
        ("ext_skew_factor.txt", ext_skew_factor(ranks_256)),
    ] {
        let path = format!("{}/results/{file}", env!("CARGO_MANIFEST_DIR"));
        let stored = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        assert!(stored == out, "results/{file} no longer regenerates:\n--- stored\n{stored}\n--- now\n{out}");
    }
}
