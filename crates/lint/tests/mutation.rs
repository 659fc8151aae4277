//! Mutation-based self-test: corrupt a *clean* schedule and assert the
//! linter reports the corresponding diagnostic class. This is the linter's
//! own correctness proof — every diagnostic class is demonstrated to fire on
//! a schedule that differs from a verified-clean one by exactly one
//! corruption.
//!
//! Two layers:
//!
//! * **property tests** over the real algorithm registry: drop a random
//!   receive, retag a random send, or swap a `WaitAll` request on an
//!   arbitrary `(kind, alg, p, root, bytes)` schedule;
//! * **deterministic pair programs** for the classes whose trigger needs a
//!   precise shape (deadlock, protocol fragility, tag conflict, size
//!   mismatch, request reuse, slot-state classes) — each starts from a clean
//!   baseline and applies one corruption.

use pap_collectives::registry::algorithms;
use pap_collectives::{build, CollSpec, CollectiveKind};
use pap_lint::{lint_job, DiagClass, LintConfig};
use pap_sim::{Job, Op, RankProgram, SlotInit};
use proptest::prelude::*;

const EAGER: u64 = 16 * 1024;

fn cfg() -> LintConfig {
    LintConfig { eager_threshold: EAGER }
}

fn job_of(programs: Vec<Vec<Op>>) -> Job {
    Job::new(
        programs
            .into_iter()
            .map(|ops| {
                let mut p = RankProgram::new();
                p.push_anon(ops);
                p
            })
            .collect(),
    )
}

/// Build a registry schedule as a mutable op matrix; `None` if the
/// combination is unbuildable (e.g. algorithm's p constraint).
fn registry_ops(
    kind: CollectiveKind,
    alg: u8,
    p: usize,
    root: usize,
    bytes: u64,
) -> Option<Vec<Vec<Op>>> {
    let spec = CollSpec::new(kind, alg, bytes).with_root(root);
    build(&spec, p).ok().map(|b| b.rank_ops)
}

fn case_strategy() -> impl Strategy<Value = (CollectiveKind, usize, usize, usize, u64, usize)> {
    (
        0usize..CollectiveKind::ALL.len(),
        any::<usize>(),
        4usize..=16,
        any::<usize>(),
        prop_oneof![Just(64u64), Just(EAGER + 4096)],
        any::<usize>(),
    )
        .prop_map(|(k, a, p, r, bytes, pick)| (CollectiveKind::ALL[k], a, p, r % p, bytes, pick))
}

/// All `(rank, seg, op)` coordinates in `ops` whose op satisfies `f`.
fn coords(ops: &[Vec<Op>], f: impl Fn(&Op) -> bool) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for (r, rank_ops) in ops.iter().enumerate() {
        for (i, op) in rank_ops.iter().enumerate() {
            if f(op) {
                out.push((r, i));
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Dropping any receive from any clean registry schedule leaves its
    /// matched send unmatched.
    #[test]
    fn dropping_a_recv_reports_unmatched_send(
        case in case_strategy()
    ) {
        let (kind, alg_pick, p, root, bytes, pick) = case;
        let algs = algorithms(kind);
        let alg = algs[alg_pick % algs.len()].id;
        let Some(mut ops) = registry_ops(kind, alg, p, root, bytes) else {
            return;
        };
        prop_assert!(lint_job(&job_of(ops.clone()), &cfg()).is_clean());
        let recvs = coords(&ops, |o| matches!(o, Op::Recv { .. } | Op::Irecv { .. }));
        if recvs.is_empty() {
            return; // p == 1 style degenerate schedules
        }
        let (r, i) = recvs[pick % recvs.len()];
        ops[r].remove(i);
        let report = lint_job(&job_of(ops), &cfg());
        prop_assert!(
            report.has(DiagClass::UnmatchedSend),
            "dropping recv at rank {r} op {i} must orphan its send:\n{}",
            report.render()
        );
    }

    /// Retagging any send onto a fresh tag orphans both channel ends.
    #[test]
    fn retagging_a_send_reports_both_unmatched_ends(
        case in case_strategy()
    ) {
        let (kind, alg_pick, p, root, bytes, pick) = case;
        let algs = algorithms(kind);
        let alg = algs[alg_pick % algs.len()].id;
        let Some(mut ops) = registry_ops(kind, alg, p, root, bytes) else {
            return;
        };
        prop_assert!(lint_job(&job_of(ops.clone()), &cfg()).is_clean());
        let sends = coords(&ops, |o| matches!(o, Op::Send { .. } | Op::Isend { .. }));
        if sends.is_empty() {
            return;
        }
        let (r, i) = sends[pick % sends.len()];
        match &mut ops[r][i] {
            Op::Send { tag, .. } | Op::Isend { tag, .. } => *tag = u64::MAX - 1,
            _ => unreachable!(),
        }
        let report = lint_job(&job_of(ops), &cfg());
        prop_assert!(
            report.has(DiagClass::UnmatchedSend) && report.has(DiagClass::UnmatchedRecv),
            "retagging send at rank {r} op {i} must orphan both channels:\n{}",
            report.render()
        );
    }

    /// Swapping a `WaitAll` request for a never-posted ID is reported.
    #[test]
    fn swapping_a_waitall_req_reports_never_posted(
        case in case_strategy()
    ) {
        let (kind, alg_pick, p, root, bytes, pick) = case;
        let algs = algorithms(kind);
        let alg = algs[alg_pick % algs.len()].id;
        let Some(mut ops) = registry_ops(kind, alg, p, root, bytes) else {
            return;
        };
        prop_assert!(lint_job(&job_of(ops.clone()), &cfg()).is_clean());
        let waits = coords(&ops, |o| matches!(o, Op::WaitAll { reqs } if !reqs.is_empty()));
        if waits.is_empty() {
            return; // blocking-only schedule
        }
        let (r, i) = waits[pick % waits.len()];
        if let Op::WaitAll { reqs } = &mut ops[r][i] {
            let j = pick % reqs.len();
            reqs[j] = 999_999;
        }
        let report = lint_job(&job_of(ops), &cfg());
        prop_assert!(
            report.has(DiagClass::WaitNeverPosted),
            "WaitAll at rank {r} op {i} waits a never-posted req:\n{}",
            report.render()
        );
    }
}

// ---------------------------------------------------------------------------
// Deterministic corruptions: one clean baseline, one mutation, one class.
// ---------------------------------------------------------------------------

/// Clean two-rank rendezvous exchange: 0 sends then receives; 1 receives
/// then sends (no cycle at any size).
fn clean_exchange(bytes: u64) -> Vec<Vec<Op>> {
    vec![
        vec![
            Op::InitSlot { slot: 0, init: SlotInit::Empty },
            Op::send(1, 1, bytes, 0),
            Op::recv(1, 2, 1),
        ],
        vec![
            Op::InitSlot { slot: 0, init: SlotInit::Empty },
            Op::recv(0, 1, 1),
            Op::send(0, 2, bytes, 0),
        ],
    ]
}

/// The head-to-head corruption: rank 1's receive moved after its send.
fn head_to_head(bytes: u64) -> Vec<Vec<Op>> {
    let mut ops = clean_exchange(bytes);
    ops[1].swap(1, 2);
    ops
}

#[test]
fn reordered_exchange_above_threshold_is_a_deadlock() {
    assert!(lint_job(&job_of(clean_exchange(EAGER + 1)), &cfg()).is_clean());
    let report = lint_job(&job_of(head_to_head(EAGER + 1)), &cfg());
    assert!(report.has(DiagClass::Deadlock), "{}", report.render());
    assert!(!report.is_clean());
}

#[test]
fn reordered_exchange_below_threshold_is_protocol_fragile() {
    assert!(lint_job(&job_of(clean_exchange(64)), &cfg()).is_clean());
    let report = lint_job(&job_of(head_to_head(64)), &cfg());
    // Completes today (eager sends don't block) — flagged as fragile, not
    // deadlocked: it hangs the moment `bytes` crosses the threshold.
    assert!(report.has(DiagClass::ProtocolFragility), "{}", report.render());
    assert!(!report.has(DiagClass::Deadlock), "{}", report.render());
}

#[test]
fn retagging_onto_a_live_channel_is_a_tag_conflict() {
    // Clean: two messages 0 -> 1 on distinct tags.
    let clean = vec![
        vec![
            Op::InitSlot { slot: 0, init: SlotInit::Empty },
            Op::isend(1, 1, 8, 0, 0),
            Op::isend(1, 2, 8, 0, 1),
            Op::waitall(vec![0, 1]),
        ],
        vec![
            Op::irecv(0, 1, 1, 0),
            Op::irecv(0, 2, 2, 1),
            Op::waitall(vec![0, 1]),
        ],
    ];
    assert!(lint_job(&job_of(clean.clone()), &cfg()).is_clean());

    // Corruption: both messages forced onto tag 1. Same sizes → warning.
    let mut uniform = clean.clone();
    uniform[0][2] = Op::isend(1, 1, 8, 0, 1);
    uniform[1][1] = Op::irecv(0, 1, 2, 1);
    let report = lint_job(&job_of(uniform), &cfg());
    assert!(report.has(DiagClass::TagConflict), "{}", report.render());
    assert!(report.is_clean(), "uniform-size FIFO reuse is a warning: {}", report.render());

    // Differing sizes → error (ambiguous pairing off FIFO transports).
    let mut skewed = clean;
    skewed[0][2] = Op::isend(1, 1, 16, 0, 1);
    skewed[1][1] = Op::irecv(0, 1, 2, 1);
    let report = lint_job(&job_of(skewed), &cfg());
    assert!(
        report.of_class(DiagClass::TagConflict).any(|d| d.severity == pap_lint::Severity::Error),
        "{}",
        report.render()
    );
}

#[test]
fn reposting_a_live_request_is_request_reuse() {
    let clean = vec![
        vec![
            Op::irecv(1, 1, 1, 0),
            Op::irecv(1, 2, 2, 1),
            Op::waitall(vec![0, 1]),
        ],
        vec![
            Op::InitSlot { slot: 0, init: SlotInit::Empty },
            Op::send(0, 1, 8, 0),
            Op::send(0, 2, 8, 0),
        ],
    ];
    assert!(lint_job(&job_of(clean.clone()), &cfg()).is_clean());
    let mut corrupted = clean;
    corrupted[0][1] = Op::irecv(1, 2, 2, 0); // re-posts req 0 while live
    let report = lint_job(&job_of(corrupted), &cfg());
    assert!(report.has(DiagClass::RequestReuse), "{}", report.render());
}

#[test]
fn dropping_an_init_is_use_before_init() {
    let clean = clean_exchange(64);
    let mut corrupted = clean.clone();
    corrupted[0].remove(0); // rank 0 now sends from an uninitialized slot
    let report = lint_job(&job_of(corrupted), &cfg());
    assert!(report.has(DiagClass::UseBeforeInit), "{}", report.render());
    assert!(lint_job(&job_of(clean), &cfg()).is_clean());
}

#[test]
fn clearing_before_the_send_is_send_from_cleared_slot() {
    let mut corrupted = clean_exchange(64);
    corrupted[0].insert(1, Op::ClearSlot { slot: 0 });
    let report = lint_job(&job_of(corrupted), &cfg());
    assert!(report.has(DiagClass::SendFromClearedSlot), "{}", report.render());
}

#[test]
fn double_init_is_a_dead_store() {
    let mut corrupted = clean_exchange(64);
    corrupted[0].insert(1, Op::InitSlot { slot: 0, init: SlotInit::Empty });
    let report = lint_job(&job_of(corrupted), &cfg());
    assert!(report.has(DiagClass::DeadStore), "{}", report.render());
    assert!(report.is_clean(), "a dead store alone is a warning: {}", report.render());
}

#[test]
fn self_send_and_bad_peer_are_reported() {
    let mut corrupted = clean_exchange(64);
    match &mut corrupted[0][1] {
        Op::Send { to, .. } => *to = 0, // self
        _ => unreachable!(),
    }
    let report = lint_job(&job_of(corrupted), &cfg());
    assert!(report.has(DiagClass::SelfMessage), "{}", report.render());

    let mut corrupted = clean_exchange(64);
    match &mut corrupted[0][1] {
        Op::Send { to, .. } => *to = 7, // only 2 ranks exist
        _ => unreachable!(),
    }
    let report = lint_job(&job_of(corrupted), &cfg());
    assert!(report.has(DiagClass::PeerOutOfRange), "{}", report.render());
}

#[test]
fn reduce_size_disagreement_is_a_size_mismatch() {
    let clean = vec![
        vec![
            Op::InitSlot { slot: 0, init: SlotInit::Empty },
            Op::send(1, 1, 32, 0),
        ],
        vec![
            Op::InitSlot { slot: 0, init: SlotInit::Empty },
            Op::recv(0, 1, 1),
            Op::ReduceLocal { from: 1, into: 0, bytes: 32 },
        ],
    ];
    assert!(lint_job(&job_of(clean.clone()), &cfg()).is_clean());
    let mut corrupted = clean;
    corrupted[1][2] = Op::ReduceLocal { from: 1, into: 0, bytes: 64 };
    let report = lint_job(&job_of(corrupted), &cfg());
    assert!(report.has(DiagClass::SizeMismatch), "{}", report.render());
}

#[test]
fn touching_a_pending_irecv_slot_is_a_hazard() {
    let clean = vec![
        vec![
            Op::InitSlot { slot: 0, init: SlotInit::Empty },
            Op::irecv(1, 1, 1, 0),
            Op::waitall(vec![0]),
            Op::send(1, 2, 8, 1),
        ],
        vec![
            Op::InitSlot { slot: 0, init: SlotInit::Empty },
            Op::send(0, 1, 8, 0),
            Op::recv(0, 2, 1),
        ],
    ];
    assert!(lint_job(&job_of(clean.clone()), &cfg()).is_clean());
    let mut corrupted = clean;
    corrupted[0].swap(2, 3); // send now reads slot 1 before the WaitAll
    let report = lint_job(&job_of(corrupted), &cfg());
    assert!(report.has(DiagClass::PendingRecvHazard), "{}", report.render());
}

#[test]
fn unwaited_request_is_reported() {
    let mut corrupted = vec![
        vec![
            Op::irecv(1, 1, 1, 0),
            Op::waitall(vec![0]),
        ],
        vec![
            Op::InitSlot { slot: 0, init: SlotInit::Empty },
            Op::send(0, 1, 8, 0),
        ],
    ];
    corrupted[0].pop(); // drop the WaitAll: the request is never completed
    let report = lint_job(&job_of(corrupted), &cfg());
    assert!(report.has(DiagClass::RequestNeverWaited), "{}", report.render());
}
