//! Property-based tests of the fault-injection layer: *arbitrary* valid
//! [`FaultSpec`]s must never panic, never hang the event queue, and must
//! produce bit-identical outcomes when a run is repeated — crashing runs
//! included (a crash that starves dependents surfaces as a deterministic
//! [`SimError::Deadlock`], not a hang). Invalid specs are rejected up front
//! with [`SimError::InvalidProgram`], never a panic.

use pap_sim::{
    run, run_ref, FaultSpec, Job, Op, Platform, RankProgram, SimConfig, SimError, ANY_NODE,
};
use proptest::collection::vec as pvec;
use proptest::prelude::*;

/// A small multi-node platform: 4 ranks per node, so link faults and NIC
/// contention between nodes come into play.
fn multinode(p: usize) -> Platform {
    let mut platform = Platform::simcluster(p);
    platform.cores_per_node = 4;
    platform.nodes = p.div_ceil(4);
    platform
}

/// Binomial-tree broadcast with per-rank arrival delays — the canonical
/// deadlock-free workload (crashes may still starve dependents, which is
/// exactly the behavior under test).
fn bcast_job(p: usize, delays_seed: u64) -> Job {
    let mut programs: Vec<Vec<Op>> = (0..p)
        .map(|r| vec![Op::delay(((delays_seed >> (r % 17)) & 0x3F) as f64 * 1e-6)])
        .collect();
    let mut k = 1usize;
    while k < p {
        for r in 0..k.min(p) {
            let peer = r + k;
            if peer < p {
                programs[r].push(Op::send(peer, k as u64, 2048, 0));
                programs[peer].push(Op::recv(r, k as u64, 0));
            }
        }
        k <<= 1;
    }
    Job::new(programs.into_iter().map(RankProgram::from_ops).collect())
}

/// Fold raw sampled tuples into a valid spec for a `p`-rank machine with
/// `nodes` nodes: ranks are folded with `% p`, node index `nodes` maps to
/// the [`ANY_NODE`] wildcard, windows are ordered by construction.
#[allow(clippy::type_complexity)]
fn build_spec(
    p: usize,
    nodes: usize,
    stalls: Vec<(usize, f64, f64)>,
    crashes: Vec<(usize, f64)>,
    links: Vec<(usize, usize, f64, f64, f64)>,
    storms: Vec<(usize, usize, f64, f64, f64)>,
) -> FaultSpec {
    let node = |n: usize| {
        let n = n % (nodes + 1);
        if n == nodes {
            ANY_NODE
        } else {
            n
        }
    };
    let mut spec = FaultSpec::none();
    for (rank, at, dur) in stalls {
        spec = spec.with_stall(rank % p, at, dur);
    }
    for (rank, at) in crashes {
        spec = spec.with_crash(rank % p, at);
    }
    for (src, dst, from, len, factor) in links {
        spec = spec.with_link(node(src), node(dst), from, from + len, factor);
    }
    for (a, b, from, len, factor) in storms {
        let (a, b) = ((a % p).min(b % p), (a % p).max(b % p));
        spec = spec.with_storm(a, b, from, from + len, factor);
    }
    spec
}

/// Blocked rank list of a deadlock, for comparing two runs.
fn blocked_ranks(e: &SimError) -> Vec<usize> {
    match e {
        SimError::Deadlock { blocked, .. } => blocked.iter().map(|(r, _)| *r).collect(),
        e => panic!("expected deadlock, got {e:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// The headline property: any valid spec terminates (Ok or a clean
    /// deadlock report) and repeats bit-identically — crashes, cascading
    /// stalls, wildcard windows and all.
    #[test]
    fn arbitrary_specs_terminate_and_repeat_identically(
        p in 8usize..40,
        stalls in pvec((0usize..1024, 0.0..5e-3f64, 0.0..2e-3f64), 0..4),
        crashes in pvec((0usize..1024, 0.0..5e-3f64), 0..2),
        links in pvec((0usize..1024, 0usize..1024, 0.0..3e-3f64, 0.0..3e-3f64, 0.1..16.0f64), 0..3),
        storms in pvec((0usize..1024, 0usize..1024, 0.0..3e-3f64, 0.0..3e-3f64, 0.1..16.0f64), 0..3),
        delays_seed in any::<u64>(),
    ) {
        let platform = multinode(p);
        let spec = build_spec(p, platform.nodes, stalls, crashes, links, storms);
        let cfg = SimConfig::default().with_faults(spec);
        let job = bcast_job(p, delays_seed);
        let first = run(&platform, job.clone(), &cfg);
        let second = run_ref(&platform, &job, &cfg);
        match (&first, &second) {
            (Ok(a), Ok(b)) => {
                for (i, (x, y)) in a.finish.iter().zip(&b.finish).enumerate() {
                    prop_assert_eq!(x.to_bits(), y.to_bits(), "finish[{}] diverged", i);
                }
                prop_assert_eq!(a.messages, b.messages);
            }
            (Err(a), Err(b)) => {
                prop_assert_eq!(blocked_ranks(a), blocked_ranks(b), "blocked sets diverged");
            }
            _ => prop_assert!(false, "Ok/Err disagreement: {:?} vs {:?}", first, second),
        }
    }

    /// Same seed, same spec: `random_storms` is a pure function and the
    /// engine run on its output is bit-deterministic.
    #[test]
    fn random_storms_are_deterministic_per_seed(
        seed in any::<u64>(),
        count in 1usize..6,
        delays_seed in any::<u64>(),
    ) {
        let p = 32;
        let platform = multinode(p);
        let a = FaultSpec::random_storms(seed, p, count, 2e-3, 3e-4, 5.0);
        let b = FaultSpec::random_storms(seed, p, count, 2e-3, 3e-4, 5.0);
        prop_assert_eq!(&a, &b, "spec construction must be pure in the seed");
        let job = bcast_job(p, delays_seed);
        let cfg = SimConfig::default().with_faults(a);
        let x = run_ref(&platform, &job, &cfg).unwrap();
        let y = run_ref(&platform, &job, &cfg).unwrap();
        for (i, (u, v)) in x.finish.iter().zip(&y.finish).enumerate() {
            prop_assert_eq!(u.to_bits(), v.to_bits(), "finish[{}]", i);
        }
    }

    /// Out-of-envelope specs — bad ranks, bad nodes, non-finite or huge
    /// times, reversed storm spans — are rejected as `InvalidProgram`, and
    /// never panic or schedule anything.
    #[test]
    fn invalid_specs_are_rejected_not_run(
        bad_rank in 40usize..1000,
        t in prop_oneof![Just(f64::NAN), Just(f64::INFINITY), Just(2e12), Just(-1.0)],
    ) {
        let p = 8;
        let platform = multinode(p);
        let job = bcast_job(p, 0);
        for spec in [
            FaultSpec::none().with_crash(bad_rank, 1e-3),
            FaultSpec::none().with_stall(0, t, 1e-3),
            FaultSpec::none().with_link(platform.nodes + 7, 0, 0.0, 1e-3, 2.0),
            FaultSpec::none().with_storm(3, 1, 0.0, 1e-3, 2.0),
        ] {
            let cfg = SimConfig::default().with_faults(spec);
            let res = run_ref(&platform, &job, &cfg);
            prop_assert!(
                matches!(&res, Err(SimError::InvalidProgram(m)) if m.contains("fault")),
                "expected fault rejection, got {:?}", res
            );
        }
    }
}
