//! Property-based tests over the collective algorithms and the simulator:
//! for *arbitrary* parameters, schedules must complete (no deadlock), move
//! correct data, and respect the metric invariants.

use pap::arrival::{generate, Shape};
use pap::collectives::registry::{algorithms, experiment_ids};
use pap::collectives::{build, verify, CollSpec, CollectiveKind};
use pap::microbench::{measure, BenchConfig};
use pap::sim::{run, Job, Label, NoiseModel, Op, Platform, RankProgram, SimConfig};
use proptest::prelude::*;

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

/// Every collective kind, for the deterministic exhaustive sweeps below.
const ALL_KINDS: [CollectiveKind; 8] = [
    CollectiveKind::Reduce,
    CollectiveKind::Allreduce,
    CollectiveKind::Alltoall,
    CollectiveKind::Bcast,
    CollectiveKind::Barrier,
    CollectiveKind::Gather,
    CollectiveKind::Scatter,
    CollectiveKind::Allgather,
];

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
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Any registered algorithm, any process count, any size/segment
    /// combination: the schedule completes and the dataflow is exactly the
    /// collective's semantics.
    #[test]
    fn any_collective_completes_and_verifies(
        kind in kinds(),
        alg_pick in 0usize..8,
        p in 1usize..26,
        bytes in prop_oneof![Just(0u64), 1u64..=200_000],
        seg_bytes in prop_oneof![Just(1024u64), Just(8192), Just(65536)],
        root in 0usize..26,
    ) {
        let algs = algorithms(kind);
        let alg = algs[alg_pick % algs.len()].id;
        let spec = CollSpec::new(kind, alg, bytes)
            .with_root(root % p)
            .with_seg_bytes(seg_bytes);
        let built = build(&spec, p).unwrap();
        let programs = built.rank_ops.into_iter().map(RankProgram::from_ops).collect();
        let platform = Platform::simcluster(p);
        let out = run(&platform, Job::new(programs), &SimConfig::tracking()).unwrap();
        verify(&spec, p, &out).unwrap();
    }

    /// The metric invariants hold for every (algorithm, pattern, skew):
    /// 0 < d̂ ≤ d*, and both are finite.
    #[test]
    fn delay_metrics_invariants(
        kind in prop_oneof![
            Just(CollectiveKind::Reduce),
            Just(CollectiveKind::Allreduce),
            Just(CollectiveKind::Alltoall),
        ],
        alg_pick in 0usize..8,
        shape in shapes(),
        skew_us in 0.0f64..5_000.0,
        p in 2usize..20,
    ) {
        let algs = experiment_ids(kind);
        let alg = algs[alg_pick % algs.len()];
        let platform = Platform::simcluster(p);
        let pattern = generate(shape, p, skew_us * 1e-6, 11);
        let spec = CollSpec::new(kind, alg, 512);
        let stats = measure(&platform, &spec, &pattern, &BenchConfig::simulation()).unwrap();
        for m in &stats.reps {
            prop_assert!(m.last_delay.is_finite() && m.total_delay.is_finite());
            prop_assert!(m.last_delay > 0.0, "d̂ must be positive");
            prop_assert!(m.last_delay <= m.total_delay + 1e-12);
        }
    }

    /// Determinism: identical configuration ⇒ bit-identical measurement,
    /// even with noise and clock sync enabled.
    #[test]
    fn noisy_measurements_are_reproducible(
        seed in any::<u64>(),
        alg_pick in 0usize..4,
        shape in shapes(),
    ) {
        let p = 12;
        let algs = experiment_ids(CollectiveKind::Alltoall);
        let alg = algs[alg_pick % algs.len()];
        let platform = Platform::hydra(p);
        let pattern = generate(shape, p, 1e-4, seed);
        let spec = CollSpec::new(CollectiveKind::Alltoall, alg, 1024);
        let cfg = BenchConfig::real_machine(2).with_seed(seed);
        let a = measure(&platform, &spec, &pattern, &cfg).unwrap();
        let b = measure(&platform, &spec, &pattern, &cfg).unwrap();
        prop_assert_eq!(a.mean_last(), b.mean_last());
        prop_assert_eq!(a.mean_total(), b.mean_total());
    }

    /// Noise monotonicity sanity: adding an injected delay to every rank
    /// shifts completion but cannot make the collective finish earlier than
    /// the undelayed run (work conservation).
    #[test]
    fn uniform_delay_shifts_completion(
        delay_us in 1.0f64..10_000.0,
        alg_pick in 0usize..4,
    ) {
        let p = 8;
        let algs = experiment_ids(CollectiveKind::Alltoall);
        let alg = algs[alg_pick % algs.len()];
        let platform = Platform::simcluster(p);
        let spec = CollSpec::new(CollectiveKind::Alltoall, alg, 256);
        let cfg = BenchConfig::simulation();
        let base = measure(&platform, &spec, &generate(Shape::NoDelay, p, 0.0, 0), &cfg).unwrap();
        // A uniform delay is NoDelay from the pattern's perspective except
        // time-shifted; d̂ must be identical.
        let mut delays = vec![delay_us * 1e-6; p];
        delays[0] = delay_us * 1e-6;
        let uniform = pap::arrival::ArrivalPattern::new("uniform", delays);
        let shifted = measure(&platform, &spec, &uniform, &cfg).unwrap();
        let rel = (shifted.mean_last() - base.mean_last()).abs() / base.mean_last();
        prop_assert!(rel < 1e-9, "uniform delay changed d̂ by {rel}");
    }
}

/// Build `spec` for `p` ranks, run it with dataflow tracking and verify the
/// result, panicking with the algorithm, rank count and root on failure.
fn run_tracked_and_verify(spec: &CollSpec, p: usize) {
    let ctx = format!("{} A{} p={p} root={}", spec.kind, spec.alg, spec.root);
    let built = build(spec, p).unwrap_or_else(|e| panic!("{ctx}: {e}"));
    let programs = built.rank_ops.into_iter().map(RankProgram::from_ops).collect();
    let out = run(&Platform::simcluster(p), Job::new(programs), &SimConfig::tracking())
        .unwrap_or_else(|e| panic!("{ctx}: {e}"));
    verify(spec, p, &out).unwrap_or_else(|e| panic!("{ctx}: {e}"));
}

/// Deterministic companion to `any_collective_completes_and_verifies`:
/// proptest *samples* the parameter space, this sweeps the corner that has
/// historically broken collective implementations — non-power-of-two
/// process counts combined with **every** nonzero root — exhaustively for
/// every registered algorithm.
#[test]
fn every_algorithm_handles_awkward_p_and_all_roots() {
    for kind in ALL_KINDS {
        for a in algorithms(kind) {
            for p in [3usize, 6, 9] {
                for root in 0..p {
                    run_tracked_and_verify(&CollSpec::new(kind, a.id, 96).with_root(root), p);
                }
            }
        }
    }
}

/// A job stores its schedule once, as the engine's op arena, and decodes
/// it back exactly: for every registered algorithm of every collective,
/// built plainly and in the harness's shape (an anonymous `[SleepUntil,
/// delay]` arrival segment, then the collective as a labelled segment),
/// `Job::program` returns each rank's input program, segment labels,
/// `WaitAll` lists and block filters included, and the job's sizing
/// matches a scan of the input.
#[test]
fn job_decodes_back_to_its_programs() {
    let scan = |prog: &RankProgram, max: fn(&Op) -> Option<usize>| {
        prog.segments.iter().flat_map(|s| &s.ops).filter_map(max).max().map_or(0, |m| m + 1)
    };
    let check = |ps: Vec<RankProgram>, what: &str| {
        let job = Job::new(ps.clone());
        let ops: usize = ps.iter().map(RankProgram::op_count).sum();
        assert_eq!((job.ranks(), job.total_ops()), (ps.len(), ops), "{what}");
        for (r, prog) in ps.iter().enumerate() {
            assert!(job.program(r) == *prog, "{what}: rank {r} decodes differently");
            let sizes = (job.slots_needed(r), job.reqs_needed(r));
            assert_eq!(sizes, (scan(prog, Op::max_slot), scan(prog, Op::max_req)), "{what}: rank {r}");
        }
    };
    for kind in ALL_KINDS {
        let label = Label { kind: kind.label_kind(), seq: 0 };
        for a in algorithms(kind) {
            for p in [1usize, 3, 8, 13] {
                let spec = CollSpec::new(kind, a.id, 100_000).with_root(p / 2).with_seg_bytes(8192);
                let what = format!("{kind} alg {} at p={p}", a.id);
                let rank_ops = build(&spec, p).unwrap().rank_ops;
                check(rank_ops.iter().cloned().map(RankProgram::from_ops).collect(), &what);
                let harness = rank_ops.into_iter().enumerate().map(|(r, ops)| {
                    let mut prog = RankProgram::new();
                    prog.push_anon(vec![Op::SleepUntil { time: 1e-3 }, Op::delay(r as f64 * 1e-6)]);
                    prog.push_labeled(label, ops);
                    prog
                });
                check(harness.collect(), &format!("{what}, harness-shaped"));
            }
        }
    }
    // Shapes no builder emits: a rank without segments, an empty segment,
    // a `WaitAll` listing a request past every posted one.
    let waits = vec![Op::Irecv { from: 1, tag: 0, slot: 9, req: 3 }, Op::WaitAll { reqs: vec![3, 7] }];
    check(vec![RankProgram::new(), RankProgram::from_ops(vec![]), RankProgram::from_ops(waits)], "hand-made");
}

/// Noise widens the distribution but keeps the ordering of clearly
/// separated algorithms (not a proptest: a fixed scenario with seeds).
#[test]
fn noise_preserves_clear_algorithm_ordering() {
    let p = 32;
    let platform = Platform::simcluster(p);
    let nodelay = generate(Shape::NoDelay, p, 0.0, 0);
    for seed in 0..5u64 {
        let cfg = BenchConfig {
            nrep: 3,
            noise: Some(NoiseModel::gaussian(0.05)),
            ..BenchConfig::simulation()
        }
        .with_seed(seed);
        // Bruck (3) vs linear (1) at 8 B: ~5x separated; noise must not flip.
        let bruck =
            measure(&platform, &CollSpec::new(CollectiveKind::Alltoall, 3, 8), &nodelay, &cfg).unwrap();
        let linear =
            measure(&platform, &CollSpec::new(CollectiveKind::Alltoall, 1, 8), &nodelay, &cfg).unwrap();
        assert!(bruck.mean_last() < linear.mean_last(), "seed {seed} flipped a 5x ordering");
    }
}

/// The sweeps above stop below 64 ranks, so every contributor set they
/// verify fits in one bitset word. Past 64 ranks `RankSet`s span several
/// words: run every registered algorithm tracked at 65 and 130 ranks,
/// rooted at both ends, with a size that spans several segments.
#[test]
fn every_algorithm_verifies_past_one_bitset_word() {
    for kind in ALL_KINDS {
        for a in algorithms(kind) {
            for p in [65usize, 130] {
                for root in [0, p - 1] {
                    let spec = CollSpec::new(kind, a.id, 4096).with_root(root).with_seg_bytes(1024);
                    run_tracked_and_verify(&spec, p);
                }
            }
        }
    }
}
