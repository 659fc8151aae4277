//! Property test pinning the calendar event queue to a binary-heap oracle:
//! for *arbitrary* interleaved push/pop sequences the queue must pop the
//! exact event sequence of a `BinaryHeap` ordered by the canonical key.
//!
//! This is the safety net for [`pap_sim::engine::queue`]'s invariant that
//! bucket membership (`floor(t / width)`) is monotone in `t` — floating
//! point edge rounding may place an event a bucket early or late, but can
//! never reorder pops. Times are drawn from a small set of multiples so
//! exact FP ties (equal `t`, differing kind/uid/idx) occur constantly, and
//! three widths exercise the sub-bucket, ring, and overflow-lap regimes. A
//! second time strategy jumps whole ring laps ahead, so schedules cross lap
//! boundaries with events in the ring and in overflow at once — where a
//! re-drip that misplaces an event or miscounts the empty scan would show.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use pap_sim::engine::queue::{EventQueue, QEvent};
use proptest::prelude::*;

/// Ring buckets per lap in the queue under test.
const LAP_BUCKETS: u64 = 2048;

/// The reference order: a plain binary heap over the canonical key.
#[derive(Default)]
struct Oracle(BinaryHeap<Reverse<QEvent>>);

impl Oracle {
    fn push(&mut self, e: QEvent) {
        self.0.push(Reverse(e));
    }

    fn pop(&mut self) -> Option<QEvent> {
        self.0.pop().map(|Reverse(e)| e)
    }

    fn len(&self) -> usize {
        self.0.len()
    }
}

#[derive(Debug, Clone, Copy)]
enum QOp {
    Push(QEvent),
    Pop,
}

fn event_strategy() -> impl Strategy<Value = QEvent> {
    // `k * 0.37µs` makes ties across independently drawn events common
    // while still spanning ~190µs (hundreds of calendar buckets at the
    // narrow width, several overflow laps at the narrowest).
    (0u64..512, 0u8..4, 0u64..16, 0u32..8)
        .prop_map(|(k, kind, uid, idx)| QEvent { t: k as f64 * 0.37e-6, kind, uid, idx })
}

fn op_strategy() -> impl Strategy<Value = QOp> {
    // ~3:1 push:pop mix (the vendored proptest has no weighted arms).
    prop_oneof![
        event_strategy().prop_map(QOp::Push),
        event_strategy().prop_map(QOp::Push),
        event_strategy().prop_map(QOp::Push),
        Just(QOp::Pop),
    ]
}

/// Times at bucket granularity of a width-1 queue: `lap` whole laps ahead
/// plus an offset that lands near the lap edges (`0`, `1`, `LAP − 1`, `LAP`)
/// as often as in its interior.
fn lap_event_strategy() -> impl Strategy<Value = QEvent> {
    let offset = prop_oneof![
        Just(0u64),
        Just(1u64),
        Just(LAP_BUCKETS - 1),
        Just(LAP_BUCKETS),
        0u64..LAP_BUCKETS,
    ];
    (0u64..6, offset, 0u8..4, 0u64..4).prop_map(|(lap, off, kind, uid)| QEvent {
        t: (lap * LAP_BUCKETS + off) as f64 + 0.5,
        kind,
        uid,
        idx: 0,
    })
}

fn lap_op_strategy() -> impl Strategy<Value = QOp> {
    prop_oneof![
        lap_event_strategy().prop_map(QOp::Push),
        lap_event_strategy().prop_map(QOp::Push),
        Just(QOp::Pop),
    ]
}

/// Apply `ops` to the queue and the oracle, demanding pop-for-pop equality
/// and equal lengths throughout, then drain both.
fn check_against_oracle(ops: Vec<QOp>, width: f64) {
    let mut oracle = Oracle::default();
    let mut q = EventQueue::new(width);
    for op in ops {
        match op {
            QOp::Push(e) => {
                oracle.push(e);
                q.push(e);
            }
            QOp::Pop => {
                prop_assert_eq!(oracle.pop(), q.pop());
            }
        }
        prop_assert_eq!(oracle.len(), q.len());
    }
    loop {
        let (a, b) = (oracle.pop(), q.pop());
        prop_assert_eq!(a, b);
        if a.is_none() {
            break;
        }
    }
}

proptest! {
    #[test]
    fn calendar_pop_order_equals_oracle(
        ops in proptest::collection::vec(op_strategy(), 0..500),
        width_sel in 0usize..3,
    ) {
        // Narrow (events span many laps), natural (≈ event spacing), and
        // wide (everything lands in a handful of buckets).
        let width = [0.1e-6, 1e-6, 64e-6][width_sel];
        check_against_oracle(ops, width);
    }

    #[test]
    fn lap_crossing_pop_order_equals_oracle(
        ops in proptest::collection::vec(lap_op_strategy(), 0..300),
    ) {
        check_against_oracle(ops, 1.0);
    }
}

/// Exact FP ties: same timestamp, every kind, shuffled insertion order.
/// The pop order must be the canonical key order.
#[test]
fn fp_tie_timestamps_pop_in_canonical_order() {
    let t = 3.000000000000001e-6; // not representable as a clean multiple
    let mut events = Vec::new();
    for kind in (0u8..4).rev() {
        for uid in (0u64..4).rev() {
            events.push(QEvent { t, kind, uid, idx: uid as u32 });
        }
    }
    // A second tie group one ULP away must stay strictly after the first.
    let t2 = f64::from_bits(t.to_bits() + 1);
    events.push(QEvent { t: t2, kind: 0, uid: 0, idx: 0 });

    let mut oracle = Oracle::default();
    let mut q = EventQueue::new(1e-6);
    for &e in &events {
        oracle.push(e);
        q.push(e);
    }
    let mut prev: Option<QEvent> = None;
    loop {
        let (a, b) = (oracle.pop(), q.pop());
        assert_eq!(a, b);
        let Some(e) = a else { break };
        if let Some(p) = prev {
            assert!(
                (p.t, p.kind, p.uid, p.idx) <= (e.t, e.kind, e.uid, e.idx),
                "pop order regressed: {p:?} then {e:?}"
            );
        }
        prev = Some(e);
    }
}

/// Events exactly on bucket boundaries (`t = k * width`) — the rounding
/// edge case the monotone bucket-index argument is about.
#[test]
fn bucket_boundary_times_agree() {
    let width = 1e-6;
    let mut oracle = Oracle::default();
    let mut q = EventQueue::new(width);
    for k in (0u64..100).rev() {
        let e = QEvent { t: k as f64 * width, kind: (k % 4) as u8, uid: k, idx: k as u32 };
        oracle.push(e);
        q.push(e);
    }
    while let Some(a) = oracle.pop() {
        assert_eq!(Some(a), q.pop());
    }
    assert!(q.pop().is_none());
}
