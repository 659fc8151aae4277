//! The engine's pending-event queue: a canonical total order and a
//! calendar queue that pops in it.
//!
//! ## Canonical event order
//!
//! Events are ordered by `(t, kind, uid, idx)`. The old engine broke
//! timestamp ties by insertion sequence, which is a property of *one
//! particular execution*: an inline cascade or an elided event changes the
//! insertion order without changing the model. Ties are therefore broken by
//! a key computed from the program alone:
//!
//! * `kind` — `QEvent::KIND_WAKE` < inject < wire-arrival < delivered,
//! * `uid` — for rank wakes the rank id; for message events a stable message
//!   uid `(src_rank << 40) | k` where `k` counts the rank's sends in program
//!   order. Both are execution-independent.
//!
//! Keys are unique in engine use (one pending wake per rank, one lifecycle
//! event of each kind per message), so the order is total and seed-stable.
//!
//! ## Implementation
//!
//! [`EventQueue`] is a Brown-style calendar queue: a ring of unsorted future
//! buckets (`O(1)` insert) plus a sorted vector holding only the current
//! bucket. Events beyond one ring lap live in an overflow list that is
//! re-dripped as the ring advances. The bucket width sets speed only, never
//! pop order, so one queue serves every rank count. The pop order is pinned
//! against a binary-heap oracle by proptest, including schedules that cross
//! several overflow laps (see `crates/sim/tests/queue_equivalence.rs`).

/// One pending event: timestamp, kind, canonical uid and the payload index
/// (rank for wakes, message-table index otherwise).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QEvent {
    /// Event time (finite; debug-asserted on push).
    pub t: f64,
    /// Event kind, one of the `KIND_*` constants; part of the sort key.
    pub kind: u8,
    /// Canonical tie-break id (rank or stable message uid).
    pub uid: u64,
    /// Payload: rank index for wakes, message-table index otherwise.
    pub idx: u32,
}

impl QEvent {
    /// Resume a rank (uid = rank).
    pub(crate) const KIND_WAKE: u8 = 0;
    /// Message ready for network injection.
    pub(crate) const KIND_INJECT: u8 = 1;
    /// Message bits fully arrived at the destination NIC.
    pub(crate) const KIND_WIRE: u8 = 2;
    /// Message content available to the destination rank.
    pub(crate) const KIND_DELIVERED: u8 = 3;
    /// A rank halts permanently ([`crate::fault::RankCrash`]; uid = rank).
    /// Sorts after same-instant message events: work completing exactly at
    /// the crash time still lands.
    pub(crate) const KIND_CRASH: u8 = 4;
}

impl Eq for QEvent {}

impl PartialOrd for QEvent {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for QEvent {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Times are finite (asserted on push), so total_cmp is numeric order.
        self.t
            .total_cmp(&other.t)
            .then_with(|| self.kind.cmp(&other.kind))
            .then_with(|| self.uid.cmp(&other.uid))
            .then_with(|| self.idx.cmp(&other.idx))
    }
}

/// Number of ring buckets (power of two; one lap is `NBUCKETS × width`
/// seconds).
const NBUCKETS: usize = 2048;

/// Bucket width used when the platform gives no usable event spacing (a
/// non-finite or non-positive inter-node latency).
const FALLBACK_WIDTH: f64 = 1e-6;

/// The engine's pending-event queue: a calendar queue specialized for
/// simulation-time floats.
///
/// Bucket membership is defined by the *computed* absolute index
/// `floor(t / width)`, which is monotone in `t`, so floating-point edge
/// rounding can never reorder pops — at worst an event lands one bucket
/// early/late and is still drained in key order by the sorted current
/// bucket.
#[derive(Debug)]
pub struct EventQueue {
    width_inv: f64,
    /// Future events, slot `b % NBUCKETS` for absolute index `b` in
    /// `[cur, cur + NBUCKETS)`, so at most one absolute index per slot is
    /// alive. (Index `cur` itself only briefly, between a re-drip and the
    /// slot's drain into `cur_events`.)
    ring: Vec<Vec<QEvent>>,
    /// Absolute index of the current bucket; its events sit in `cur_events`.
    cur: u64,
    /// Current bucket, sorted *descending* so the minimum pops from the
    /// tail. A bucket holds at most a few hundred events (width tracks the
    /// natural event spacing), so one `sort_unstable` per bucket plus a
    /// contiguous `insert` per late arrival beats a binary heap's
    /// cache-hostile sifts — the heap was ~20% of the 10K-rank profile.
    cur_events: Vec<QEvent>,
    /// Events at least one ring lap ahead, re-dripped as the ring advances.
    overflow: Vec<QEvent>,
    /// Emptied bucket buffers, handed to ring slots as they fill. Without
    /// the pool each of the `NBUCKETS` slots would keep a buffer as large as
    /// the biggest bucket that ever cycled through it.
    spare: Vec<Vec<QEvent>>,
    len: usize,
}

impl EventQueue {
    /// New queue with the given bucket width in seconds.
    pub fn new(width: f64) -> Self {
        assert!(width.is_finite() && width > 0.0, "bucket width must be positive");
        EventQueue {
            width_inv: 1.0 / width,
            ring: (0..NBUCKETS).map(|_| Vec::new()).collect(),
            cur: 0,
            cur_events: Vec::new(),
            overflow: Vec::new(),
            spare: Vec::new(),
            len: 0,
        }
    }

    /// New queue for a run whose natural event spacing is `gap_hint`
    /// seconds (the engine passes the inter-node latency): buckets are half
    /// the hint wide, or `FALLBACK_WIDTH` when the hint is not a finite
    /// positive number.
    pub(crate) fn for_gap(gap_hint: f64) -> Self {
        let width = if gap_hint.is_finite() && gap_hint > 0.0 { gap_hint * 0.5 } else { FALLBACK_WIDTH };
        Self::new(width)
    }

    #[inline]
    fn abs_idx(&self, t: f64) -> u64 {
        (t * self.width_inv) as u64
    }

    /// Insert an event.
    #[inline]
    pub fn push(&mut self, e: QEvent) {
        debug_assert!(e.t.is_finite() && e.t >= 0.0, "event time {} out of range", e.t);
        self.len += 1;
        let b = self.abs_idx(e.t);
        if b <= self.cur {
            // Late arrival into the current bucket: sorted insert (keys
            // descending, minimum at the tail).
            let pos = self.cur_events.partition_point(|x| *x > e);
            self.cur_events.insert(pos, e);
        } else if b - self.cur < NBUCKETS as u64 {
            self.ring_push(b, e);
        } else {
            self.overflow.push(e);
        }
    }

    /// Remove and return the minimum event in canonical order.
    #[inline]
    pub fn pop(&mut self) -> Option<QEvent> {
        if self.len == 0 {
            return None;
        }
        while self.cur_events.is_empty() {
            self.advance();
        }
        self.len -= 1;
        self.cur_events.pop()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Add `e`, of absolute index `b`, to its ring slot.
    #[inline]
    fn ring_push(&mut self, b: u64, e: QEvent) {
        let slot = &mut self.ring[(b % NBUCKETS as u64) as usize];
        if slot.capacity() == 0 {
            if let Some(buf) = self.spare.pop() {
                *slot = buf;
            }
        }
        slot.push(e);
    }

    /// Move `cur` forward to the next non-empty bucket and drain it into
    /// `cur_events`, sorted. Precondition: `cur_events` empty, `len > 0`.
    fn advance(&mut self) {
        let nb = NBUCKETS as u64;
        // Empty slots seen since the ring was last refilled from overflow.
        let mut scanned = 0usize;
        loop {
            if scanned == NBUCKETS {
                // A full empty lap: every remaining event is in overflow.
                // Jump straight to the earliest one instead of spinning; the
                // re-drip puts it in the slot checked below.
                let min_b = self.overflow.iter().map(|e| self.abs_idx(e.t)).min();
                self.cur = min_b.expect("pending events are in overflow");
                self.redrip();
            } else {
                self.cur += 1;
                if self.cur.is_multiple_of(nb) && self.redrip() {
                    scanned = 0;
                }
            }
            let slot = (self.cur % nb) as usize;
            if !self.ring[slot].is_empty() {
                let drained = std::mem::replace(&mut self.cur_events, std::mem::take(&mut self.ring[slot]));
                if drained.capacity() > 0 {
                    self.spare.push(drained);
                }
                self.cur_events.sort_unstable_by(|a, b| b.cmp(a));
                return;
            }
            scanned += 1;
        }
    }

    /// Move overflow events now less than one lap ahead of `cur` into the
    /// ring. Every overflow event has index `≥ cur` here, so the current
    /// bucket's events land in the slot [`Self::advance`] drains next.
    /// Returns whether any event moved.
    fn redrip(&mut self) -> bool {
        let nb = NBUCKETS as u64;
        let before = self.overflow.len();
        let mut i = 0;
        while i < self.overflow.len() {
            let b = self.abs_idx(self.overflow[i].t);
            debug_assert!(b >= self.cur, "overflow event behind the ring");
            if b - self.cur < nb {
                let e = self.overflow.swap_remove(i);
                self.ring_push(b, e);
            } else {
                i += 1;
            }
        }
        self.overflow.len() != before
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: f64, kind: u8, uid: u64) -> QEvent {
        QEvent { t, kind, uid, idx: uid as u32 }
    }

    fn drain(q: &mut EventQueue) -> Vec<QEvent> {
        let mut out = Vec::new();
        while let Some(e) = q.pop() {
            out.push(e);
        }
        out
    }

    #[test]
    fn mixed_batch_pops_in_key_order() {
        let mut events: Vec<QEvent> = (0..1000)
            .map(|i| {
                let i = i as u64;
                ev((i % 97) as f64 * 1e-6, (i % 4) as u8, i)
            })
            .collect();
        let mut c = EventQueue::new(0.5e-6);
        for &e in &events {
            c.push(e);
        }
        events.sort();
        assert_eq!(drain(&mut c), events);
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut c = EventQueue::new(1e-6);
        c.push(ev(5e-6, 0, 1));
        c.push(ev(1e-6, 0, 2));
        assert_eq!(c.pop().unwrap().uid, 2);
        // Push at exactly the current time (events never go backwards).
        c.push(ev(1e-6, 3, 3));
        c.push(ev(2e-3, 0, 4)); // deep into overflow
        assert_eq!(c.pop().unwrap().uid, 3);
        assert_eq!(c.pop().unwrap().uid, 1);
        assert_eq!(c.pop().unwrap().uid, 4);
        assert!(c.pop().is_none());
    }

    #[test]
    fn big_time_jumps_cross_overflow_laps() {
        let mut c = EventQueue::new(0.25e-6);
        // One lap is 2048 * 0.25us ≈ 0.5ms; jump whole seconds.
        for i in (0..10u64).rev() {
            c.push(ev(i as f64 * 0.1, 0, i));
        }
        let out = drain(&mut c);
        assert_eq!(out.len(), 10);
        assert!(out.windows(2).all(|w| w[0] < w[1]));
    }

    /// An event exactly one lap ahead of a lap boundary must not share the
    /// boundary's slot: it would pop a whole lap early.
    #[test]
    fn event_one_lap_past_a_boundary_pops_in_order() {
        let mut c = EventQueue::new(1.0);
        for (uid, t) in [(0, 10.5), (1, 4096.5), (2, 3000.5)] {
            c.push(ev(t, 0, uid));
        }
        let ts: Vec<f64> = drain(&mut c).iter().map(|e| e.t).collect();
        assert_eq!(ts, vec![10.5, 3000.5, 4096.5]);
    }

    /// A lap-boundary re-drip partway through a scan refills the ring, so
    /// the scan must not then conclude that only overflow is left.
    #[test]
    fn boundary_redrip_mid_scan_drains() {
        let mut c = EventQueue::new(1.0);
        c.push(ev(100.5, 0, 0));
        c.push(ev(3048.5, 0, 1));
        let ts: Vec<f64> = drain(&mut c).iter().map(|e| e.t).collect();
        assert_eq!(ts, vec![100.5, 3048.5]);
    }

    #[test]
    fn kind_breaks_timestamp_ties() {
        let mut q = EventQueue::new(1e-6);
        q.push(ev(1.0, QEvent::KIND_DELIVERED, 0));
        q.push(ev(1.0, QEvent::KIND_WAKE, 9));
        q.push(ev(1.0, QEvent::KIND_INJECT, 4));
        let kinds: Vec<u8> = drain(&mut q).iter().map(|e| e.kind).collect();
        assert_eq!(kinds, vec![QEvent::KIND_WAKE, QEvent::KIND_INJECT, QEvent::KIND_DELIVERED]);
    }

    /// A platform without a usable latency still gets a working queue, and
    /// the width it picks changes nothing about the pop order.
    #[test]
    fn unusable_gap_hint_falls_back_to_a_fixed_width() {
        let events: Vec<QEvent> = (0..200u64).map(|i| ev(((i * 37) % 61) as f64 * 3e-5, (i % 4) as u8, i)).collect();
        let mut want = events.clone();
        want.sort();
        for hint in [f64::NAN, f64::INFINITY, 0.0, -1e-6, 2e-6] {
            let mut q = EventQueue::for_gap(hint);
            for &e in &events {
                q.push(e);
            }
            assert_eq!(drain(&mut q), want, "gap hint {hint}");
        }
    }
}
