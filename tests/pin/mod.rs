//! Fixture pins shared by the integration tests: the byte-for-byte check of
//! a golden file under `results/` that `PAP_UPDATE_FIXTURES=1` regenerates,
//! and for `schedule_identity` and `model_identity` a 64-bit FNV-1a hasher,
//! the fixture's digest list written one entry per line, and the report of
//! which entries moved.

// Each test binary compiles this module and uses only part of it.
#![allow(dead_code)]

use std::fmt::Write;

/// Whether this run regenerates the fixtures (`PAP_UPDATE_FIXTURES=1`).
pub fn updating() -> bool {
    std::env::var("PAP_UPDATE_FIXTURES").is_ok_and(|v| v == "1")
}

/// Compare `current` with the fixture at `path` byte for byte, or write it
/// there when regenerating. `command` is the test command that regenerates
/// the fixture; a failure names it.
pub fn check_fixture(path: &str, current: &str, command: &str) {
    if updating() {
        std::fs::write(path, current).unwrap();
        return;
    }
    let regenerate = format!("regenerate it with PAP_UPDATE_FIXTURES=1 {command}");
    let stored = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}; {regenerate}"));
    assert_eq!(stored, current, "{path} is stale; if the change is intentional, {regenerate}");
}

/// 64-bit FNV-1a over everything written to it.
pub struct Fnv(pub u64);

impl Default for Fnv {
    /// Starts at the FNV-1a offset basis.
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for b in s.bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        Ok(())
    }
}

/// Close a fixture whose grid fields are already in `s`: the `digests`
/// list in entry order, one entry per line, so a moved entry is a one-line
/// diff.
pub fn write_digests(s: &mut String, digests: &[(String, String)]) {
    s.push_str("  \"digests\": [\n");
    for (i, (name, digest)) in digests.iter().enumerate() {
        let comma = if i + 1 < digests.len() { "," } else { "" };
        writeln!(s, "    [{name:?}, {digest:?}]{comma}").unwrap();
    }
    s.push_str("  ]\n}\n");
}

/// Every entry whose digest differs from the stored one, and every stored
/// entry that is no longer produced, one line each.
pub fn moved(current: &[(String, String)], stored: &[(String, String)]) -> Vec<String> {
    let was = |name: &str| stored.iter().find(|(n, _)| n == name).map(|(_, d)| d.as_str());
    let mut moved: Vec<String> = current
        .iter()
        .filter(|(name, digest)| was(name) != Some(digest.as_str()))
        .map(|(name, digest)| format!("{name}: {} -> {digest}", was(name).unwrap_or("absent")))
        .collect();
    moved.extend(
        stored
            .iter()
            .filter(|(name, _)| !current.iter().any(|(n, _)| n == name))
            .map(|(name, _)| format!("{name}: no longer produced")),
    );
    moved
}
