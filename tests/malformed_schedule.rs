//! Malformed-schedule and edge-case tests across the stack: tampered or
//! invalid *programs* must surface as typed errors, not hangs or silent
//! corruption. Runtime faults on *well-formed* schedules (crashes, stalls,
//! link slowdowns) are covered by `tests/fault_injection.rs`.

use pap::arrival::{generate, ArrivalPattern, Shape};
use pap::collectives::{build, verify, CollSpec, CollectiveKind};
use pap::core::{select, BenchMatrix, SelectionPolicy, TuningTable};
use pap::microbench::{measure, BenchConfig};
use pap::sim::{run, Job, Op, Platform, RankProgram, SimConfig, SimError};

/// A hand-built circular wait is reported as a deadlock with the involved
/// ranks, not an infinite loop.
#[test]
fn engine_reports_circular_wait() {
    let p = 4;
    let platform = Platform::simcluster(p);
    // Ring of blocking receives with no sends at all.
    let programs = (0..p)
        .map(|r| RankProgram::from_ops(vec![Op::recv((r + 1) % p, 0, 0)]))
        .collect();
    match run(&platform, Job::new(programs), &SimConfig::default()) {
        Err(SimError::Deadlock { blocked, .. }) => {
            assert_eq!(blocked.len(), p);
            let msg = format!("{}", SimError::Deadlock { at: 0.0, blocked });
            assert!(msg.contains("deadlock"));
        }
        other => panic!("expected deadlock, got {other:?}"),
    }
}

/// A tampered schedule (one receive removed) deadlocks rather than
/// producing a wrong result.
#[test]
fn tampered_collective_deadlocks_not_corrupts() {
    let p = 8;
    // Rendezvous-sized message: the orphaned sender can never complete.
    let spec = CollSpec::new(CollectiveKind::Reduce, 5, 64 * 1024);
    let mut built = build(&spec, p).unwrap();
    // Remove the root's first receive.
    let pos = built.rank_ops[0].iter().position(|o| matches!(o, Op::Recv { .. })).unwrap();
    built.rank_ops[0].remove(pos);
    let programs = built.rank_ops.into_iter().map(RankProgram::from_ops).collect();
    let platform = Platform::simcluster(p);
    let res = run(&platform, Job::new(programs), &SimConfig::tracking());
    assert!(
        matches!(res, Err(SimError::Deadlock { .. })),
        "a missing receive must deadlock (the sender blocks or the waitall never completes), got {res:?}"
    );
}

/// An eager send that no receive matches fails the run when it is posted,
/// the way a self-send does, instead of completing with the message lost.
#[test]
fn unmatched_eager_send_is_invalid() {
    let programs = vec![RankProgram::from_ops(vec![Op::send(1, 7, 64, 0)]), RankProgram::new()];
    match run(&Platform::simcluster(2), Job::new(programs), &SimConfig::default()) {
        Err(SimError::InvalidProgram(why)) => assert!(why.contains("no receive matches"), "{why}"),
        other => panic!("expected an invalid program, got {other:?}"),
    }
}

/// A corrupted schedule that *completes* with wrong data is caught by
/// verification (here: a reduce contribution counted twice).
#[test]
fn verification_catches_double_count() {
    let p = 4;
    let spec = CollSpec::new(CollectiveKind::Reduce, 1, 64);
    let mut built = build(&spec, p).unwrap();
    // Rank 0 (the root) folds its own input in twice.
    built.rank_ops[0].push(Op::InitSlot { slot: 2, init: pap::sim::SlotInit::reduce_input(0, 0, 1) });
    built.rank_ops[0].push(Op::ReduceLocal { from: 2, into: 0, bytes: 64 });
    let programs = built.rank_ops.into_iter().map(RankProgram::from_ops).collect();
    let out = run(&Platform::simcluster(p), Job::new(programs), &SimConfig::tracking()).unwrap();
    let err = verify(&spec, p, &out).unwrap_err();
    assert!(err.contains("double-counted"), "{err}");
}

/// Harness propagates simulator failures as typed errors.
#[test]
fn harness_surfaces_unknown_algorithm() {
    let platform = Platform::simcluster(4);
    let spec = CollSpec::new(CollectiveKind::Alltoall, 99, 64);
    let pattern = generate(Shape::NoDelay, 4, 0.0, 0);
    let err = measure(&platform, &spec, &pattern, &BenchConfig::simulation());
    assert!(err.is_err());
    let msg = format!("{}", err.err().unwrap());
    assert!(msg.contains("unknown algorithm"), "{msg}");
}

/// Pattern with non-finite delays is rejected at construction (fail fast,
/// not NaN propagation through the metrics).
#[test]
fn non_finite_pattern_rejected() {
    let caught = std::panic::catch_unwind(|| ArrivalPattern::new("bad", vec![f64::NAN]));
    assert!(caught.is_err());
    let caught = std::panic::catch_unwind(|| ArrivalPattern::new("bad", vec![f64::INFINITY]));
    assert!(caught.is_err());
}

/// Selection on a matrix missing the required row fails cleanly.
#[test]
fn selection_errors_are_typed() {
    let m = BenchMatrix {
        kind: CollectiveKind::Alltoall,
        bytes: 8,
        algs: vec![1, 2],
        patterns: vec!["ascending".into()],
        values: vec![vec![1.0, 2.0]],
    };
    assert!(select(&m, &SelectionPolicy::NoDelayFastest).is_err());
    assert!(select(&m, &SelectionPolicy::BestUnderPattern("nope".into())).is_err());
    // Robust average still works with whatever rows exist.
    assert_eq!(select(&m, &SelectionPolicy::robust()).unwrap(), 1);
}

/// Tuning tables tolerate junk input.
#[test]
fn tuning_table_rejects_garbage() {
    assert!(TuningTable::from_json("{").is_err());
    assert!(TuningTable::from_json("[1,2,3]").is_err());
    let empty = TuningTable::new();
    assert!(empty.lookup("Hydra", CollectiveKind::Reduce, 8, 8).is_none());
}

/// Zero-byte collectives run and verify (control-message-only operations).
#[test]
fn zero_byte_collectives_work() {
    let p = 6;
    let platform = Platform::simcluster(p);
    for kind in [CollectiveKind::Reduce, CollectiveKind::Allreduce, CollectiveKind::Bcast] {
        let spec = CollSpec::new(kind, if kind == CollectiveKind::Allreduce { 3 } else { 5 }, 0);
        let built = build(&spec, p).unwrap();
        let programs = built.rank_ops.into_iter().map(RankProgram::from_ops).collect();
        let out = run(&platform, Job::new(programs), &SimConfig::tracking()).unwrap();
        verify(&spec, p, &out).unwrap_or_else(|e| panic!("{kind}: {e}"));
    }
}

/// The harness measures correctly even when the pattern skews *every* rank
/// (no rank at delay zero is not possible by construction, but a pattern
/// rescaled to a tiny skew must behave like NoDelay).
#[test]
fn vanishing_skew_converges_to_no_delay() {
    let p = 16;
    let platform = Platform::simcluster(p);
    let spec = CollSpec::new(CollectiveKind::Alltoall, 3, 1024);
    let cfg = BenchConfig::simulation();
    let nodelay = measure(&platform, &spec, &generate(Shape::NoDelay, p, 0.0, 0), &cfg).unwrap();
    let tiny = measure(&platform, &spec, &generate(Shape::Random, p, 1e-12, 0), &cfg).unwrap();
    let rel = (tiny.mean_last() - nodelay.mean_last()).abs() / nodelay.mean_last();
    assert!(rel < 1e-3, "1 ps of skew changed d̂ by {rel}");
}
