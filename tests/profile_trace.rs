//! Timeline-export invariants: `pap::microbench::profile` must emit valid
//! Chrome Trace Event JSON (Perfetto-loadable) for arbitrary collectives and
//! arrival patterns, its metadata must agree with the measurement harness,
//! and the canonical Fig. 1 run is pinned byte-for-byte in
//! `results/profile_fig1.json`. Regenerate after an intentional simulator or
//! exporter change with
//! `PAP_UPDATE_FIXTURES=1 cargo test --test profile_trace`.

use pap::arrival::{generate, Shape};
use pap::collectives::registry::{algorithms, experiment_ids};
use pap::collectives::{CollSpec, CollectiveKind};
use pap::microbench::{measure, profile, BenchConfig, Profile};
use pap::obs::validate_trace;
use pap::sim::Platform;
use proptest::prelude::*;
use serde::Content;

mod pin;

/// The canonical run pinned by the fixture: the paper's Fig. 1 setting — a
/// reduce whose arrival pattern is linearly skewed (imbalanced-linear), with
/// the skew on the order of the collective's own runtime.
fn fig1_profile() -> Profile {
    let platform = Platform::simcluster(16);
    let spec = CollSpec::new(CollectiveKind::Reduce, experiment_ids(CollectiveKind::Reduce)[0], 1024);
    let pattern = generate(Shape::Ascending, 16, 1e-4, 1);
    profile(&platform, &spec, &pattern, 1).unwrap()
}

fn f64_meta(p: &Profile, key: &str) -> f64 {
    match p.trace.metadata_value(key) {
        Some(Content::F64(v)) => *v,
        other => panic!("metadata {key} missing or not F64: {other:?}"),
    }
}

#[test]
fn fig1_trace_fixture_is_current() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/results/profile_fig1.json");
    let current = fig1_profile().trace.to_json_string() + "\n";
    pin::check_fixture(path, &current, "cargo test --test profile_trace");
}

#[test]
fn fig1_fixture_file_validates_as_trace_event_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/results/profile_fig1.json");
    let json = std::fs::read_to_string(path).unwrap();
    let stats = validate_trace(&json).unwrap();
    assert_eq!(stats.lanes, 16);
    assert!(stats.flows > 0);
}

/// The d̂ the trace reports (and visualizes as the last arrival→last exit
/// gap) is exactly what the measurement harness reports for the same cell.
#[test]
fn trace_metadata_matches_the_harness_d_hat() {
    let prof = fig1_profile();
    let platform = Platform::simcluster(16);
    let spec = CollSpec::new(CollectiveKind::Reduce, experiment_ids(CollectiveKind::Reduce)[0], 1024);
    let pattern = generate(Shape::Ascending, 16, 1e-4, 1);
    let st = measure(&platform, &spec, &pattern, &BenchConfig::simulation()).unwrap();
    assert!((prof.d_hat - st.mean_last()).abs() < 1e-12);
    assert!((prof.d_star - st.mean_total()).abs() < 1e-12);
    assert!((f64_meta(&prof, "d_hat_s") - prof.d_hat).abs() < 1e-15);
    assert!((f64_meta(&prof, "d_star_s") - prof.d_star).abs() < 1e-15);
}

fn kinds() -> impl Strategy<Value = CollectiveKind> {
    prop_oneof![
        Just(CollectiveKind::Reduce),
        Just(CollectiveKind::Allreduce),
        Just(CollectiveKind::Alltoall),
        Just(CollectiveKind::Bcast),
        Just(CollectiveKind::Barrier),
        Just(CollectiveKind::Gather),
        Just(CollectiveKind::Scatter),
        Just(CollectiveKind::Allgather),
    ]
}

fn shapes() -> impl Strategy<Value = Shape> {
    prop_oneof![
        Just(Shape::NoDelay),
        Just(Shape::Ascending),
        Just(Shape::Descending),
        Just(Shape::Random),
        Just(Shape::LastDelayed),
        Just(Shape::FirstDelayed),
        Just(Shape::VShape),
        Just(Shape::InvertedV),
        Just(Shape::HalfStep),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Arbitrary collective × algorithm × ranks × pattern: the emitted trace
    /// passes full structural validation — every `B` has a matching, properly
    /// nested `E`, per-lane timestamps are monotone, and every flow arrow has
    /// both endpoints — with one lane per rank.
    #[test]
    fn any_profile_emits_a_valid_trace(
        kind in kinds(),
        alg_pick in 0usize..8,
        ranks in 4usize..=20,
        shape in shapes(),
        skew_us in 0.0f64..200.0,
        seed in 0u64..1000,
    ) {
        let algs = algorithms(kind);
        let alg = algs[alg_pick % algs.len()].id;
        let platform = Platform::simcluster(ranks);
        let spec = CollSpec::new(kind, alg, 2048);
        let pattern = generate(shape, ranks, skew_us * 1e-6, seed);
        let prof = profile(&platform, &spec, &pattern, seed).unwrap();
        let stats = validate_trace(&prof.trace.to_json_string()).unwrap();
        prop_assert_eq!(stats.lanes, ranks, "one lane per rank");
        prop_assert_eq!(stats.flows, prof.messages, "one flow arrow per message");
        // Every rank contributes a collective slice; delayed ranks add a
        // wait slice on top.
        prop_assert!(stats.slices >= ranks);
        prop_assert!(prof.d_star >= prof.d_hat - 1e-15, "d* dominates d̂ (Eq. 1 vs 2)");
    }
}
