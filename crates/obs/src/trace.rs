//! Span capture: per-thread ring buffers behind the process-wide gate.
//!
//! A [`span`] call on the disabled path performs exactly one relaxed atomic
//! load (the gate) and returns an inert guard; nothing is allocated and no
//! clock is read. On the enabled path the guard stamps a start time, and on
//! drop pushes one fixed-size [`SpanRecord`] into the calling thread's ring
//! buffer — an uncontended mutex around a fixed-capacity ring, never the
//! global registry lock.
//!
//! Rings hold the most recent `RING_CAPACITY` records per thread; older
//! records are overwritten and counted in [`dropped_spans`] so exporters can
//! report truncation instead of silently presenting a partial timeline.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Completed-span capacity of one thread's ring buffer.
pub(crate) const RING_CAPACITY: usize = 1 << 14;

/// One completed span, in nanoseconds since the process trace epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Category (a `&'static str` by design: recording never allocates).
    pub cat: &'static str,
    /// Span name.
    pub name: &'static str,
    /// Start, ns since the trace epoch.
    pub start_ns: u64,
    /// End, ns since the trace epoch (`>= start_ns`).
    pub end_ns: u64,
    /// Small dense ID of the recording thread (assigned on first record).
    pub thread: u64,
}

struct Ring {
    buf: Vec<SpanRecord>,
    /// Next write position (wraps).
    head: usize,
    /// Total records ever pushed (so `pushed - buf.len()` = overwritten).
    pushed: u64,
}

impl Ring {
    fn push(&mut self, rec: SpanRecord) {
        if self.buf.len() < RING_CAPACITY {
            self.buf.push(rec);
        } else {
            self.buf[self.head] = rec;
        }
        self.head = (self.head + 1) % RING_CAPACITY;
        self.pushed += 1;
    }

    fn drain_ordered(&mut self) -> Vec<SpanRecord> {
        // Oldest-first: the ring wrapped iff pushed > len.
        let mut out = if self.pushed as usize > self.buf.len() {
            let mut v = Vec::with_capacity(self.buf.len());
            v.extend_from_slice(&self.buf[self.head..]);
            v.extend_from_slice(&self.buf[..self.head]);
            v
        } else {
            std::mem::take(&mut self.buf)
        };
        self.buf.clear();
        self.head = 0;
        self.pushed = 0;
        out.shrink_to_fit();
        out
    }
}

/// Every thread's ring, for [`drain_spans`]. Rings outlive their threads so
/// a short-lived worker's spans survive until the next drain.
static RINGS: Mutex<Vec<Arc<Mutex<Ring>>>> = Mutex::new(Vec::new());

/// Count of records overwritten because a ring wrapped since the last drain.
static DROPPED: AtomicU64 = AtomicU64::new(0);

static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);

std::thread_local! {
    static LOCAL: (u64, Arc<Mutex<Ring>>) = {
        let ring = Arc::new(Mutex::new(Ring { buf: Vec::new(), head: 0, pushed: 0 }));
        RINGS.lock().expect("span ring registry poisoned").push(Arc::clone(&ring));
        (NEXT_THREAD.fetch_add(1, Ordering::Relaxed), ring)
    };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process trace epoch (first observability use).
pub(crate) fn now_ns() -> u64 {
    epoch().elapsed().as_nanos().min(u64::MAX as u128) as u64
}

struct ActiveSpan {
    cat: &'static str,
    name: &'static str,
    start_ns: u64,
}

/// RAII guard returned by [`span`]; records the span when dropped.
///
/// An inert guard (disabled gate) carries `None` and its drop is a no-op.
#[must_use = "a span measures the scope it lives in; dropping it immediately records nothing useful"]
pub struct SpanGuard(Option<ActiveSpan>);

/// Open a span. Records on drop iff capture was enabled *at open time* —
/// flipping the gate mid-span neither loses other threads' data nor tears
/// this record.
#[inline]
pub fn span(cat: &'static str, name: &'static str) -> SpanGuard {
    if !crate::enabled() {
        return SpanGuard(None);
    }
    SpanGuard(Some(ActiveSpan { cat, name, start_ns: now_ns() }))
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(s) = self.0.take() {
            let end_ns = now_ns();
            LOCAL.with(|(thread, ring)| {
                let mut ring = ring.lock().expect("span ring poisoned");
                if ring.buf.len() == RING_CAPACITY {
                    DROPPED.fetch_add(1, Ordering::Relaxed);
                }
                ring.push(SpanRecord {
                    cat: s.cat,
                    name: s.name,
                    start_ns: s.start_ns,
                    end_ns,
                    thread: *thread,
                });
            });
        }
    }
}

/// Collect (and clear) every thread's recorded spans, oldest-first per
/// thread, then globally ordered by start time.
pub fn drain_spans() -> Vec<SpanRecord> {
    let rings: Vec<Arc<Mutex<Ring>>> =
        RINGS.lock().expect("span ring registry poisoned").clone();
    let mut out = Vec::new();
    for ring in rings {
        out.extend(ring.lock().expect("span ring poisoned").drain_ordered());
    }
    out.sort_by_key(|r| (r.start_ns, r.thread));
    out
}

/// Records lost to ring wrap-around since the last call (resets to zero).
pub fn dropped_spans() -> u64 {
    DROPPED.swap(0, Ordering::Relaxed)
}

/// A streaming span consumer: called with each drained batch, oldest-first.
pub(crate) type SpanSink = Box<dyn FnMut(&[SpanRecord]) + Send>;

static STREAM: Mutex<Option<SpanSink>> = Mutex::new(None);

/// Install (or, with `None`, remove) the process-wide streaming span sink.
///
/// Rings hold only the most recent `RING_CAPACITY` records per thread: a
/// long sweep or tune overflows them long before it finishes, and a single
/// end-of-run [`drain_spans`] would silently present the tail. A streaming
/// sink plus periodic [`pump_spans`] calls inside the long loop moves
/// completed spans out of the rings while they are still complete.
///
/// Returns the previously installed sink so callers can restore it.
pub fn set_span_stream(sink: Option<SpanSink>) -> Option<SpanSink> {
    std::mem::replace(&mut STREAM.lock().expect("span stream poisoned"), sink)
}

/// Drain every ring into the installed streaming sink; a no-op (that leaves
/// the rings untouched) when no sink is installed. Returns the number of
/// spans forwarded.
///
/// Cheap enough for long loops: without a sink this is one mutex lock; with
/// one it is the same work a [`drain_spans`] call would do at the end.
pub fn pump_spans() -> usize {
    let mut stream = STREAM.lock().expect("span stream poisoned");
    let Some(sink) = stream.as_mut() else {
        return 0;
    };
    let spans = drain_spans();
    if !spans.is_empty() {
        sink(&spans);
    }
    spans.len()
}

#[cfg(test)]
pub(crate) static TEST_GATE: Mutex<()> = Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that flip the global gate or drain the global rings.
    fn guard() -> std::sync::MutexGuard<'static, ()> {
        TEST_GATE.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _g = guard();
        crate::set_enabled(false);
        drain_spans();
        for _ in 0..100 {
            let _s = span("test", "noop");
        }
        assert!(drain_spans().is_empty());
    }

    #[test]
    fn enabled_spans_are_captured_in_order() {
        let _g = guard();
        crate::set_enabled(true);
        drain_spans();
        {
            let _outer = span("test", "outer");
            let _inner = span("test", "inner");
        }
        crate::set_enabled(false);
        let spans = drain_spans();
        let ours: Vec<_> = spans.iter().filter(|s| s.cat == "test").collect();
        assert_eq!(ours.len(), 2);
        // Inner opened after outer but both end at scope exit; ordering is
        // by start time.
        assert_eq!(ours[0].name, "outer");
        assert_eq!(ours[1].name, "inner");
        for s in ours {
            assert!(s.end_ns >= s.start_ns);
        }
    }

    #[test]
    fn spans_from_worker_threads_are_drained() {
        let _g = guard();
        crate::set_enabled(true);
        drain_spans();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(|| {
                    let _s = span("test_mt", "worker");
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        crate::set_enabled(false);
        let spans = drain_spans();
        let ours: Vec<_> = spans.iter().filter(|s| s.cat == "test_mt").collect();
        assert_eq!(ours.len(), 4, "spans of finished threads must survive until drain");
        let threads: std::collections::HashSet<u64> = ours.iter().map(|s| s.thread).collect();
        assert_eq!(threads.len(), 4, "each thread gets its own lane id");
    }

    #[test]
    fn span_stream_receives_pumped_batches() {
        let _g = guard();
        crate::set_enabled(true);
        drain_spans();
        let got = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&got);
        let prev = set_span_stream(Some(Box::new(move |batch: &[SpanRecord]| {
            sink.lock().unwrap().extend(batch.iter().copied());
        })));
        {
            let _s = span("test_stream", "a");
        }
        let n1 = pump_spans();
        assert!(n1 >= 1, "first pump must forward the recorded span");
        {
            let _s = span("test_stream", "b");
        }
        let n2 = pump_spans();
        assert!(n2 >= 1);
        set_span_stream(prev);
        crate::set_enabled(false);
        let names: Vec<&str> = got
            .lock()
            .unwrap()
            .iter()
            .filter(|s| s.cat == "test_stream")
            .map(|s| s.name)
            .collect();
        assert_eq!(names, vec!["a", "b"], "batches arrive incrementally, in order");
        // Pumped spans are gone from the rings: nothing left to drain.
        assert!(drain_spans().iter().all(|s| s.cat != "test_stream"));
    }

    #[test]
    fn pump_without_sink_leaves_rings_untouched() {
        let _g = guard();
        crate::set_enabled(true);
        drain_spans();
        {
            let _s = span("test_nosink", "kept");
        }
        assert_eq!(pump_spans(), 0, "no sink installed: nothing forwarded");
        crate::set_enabled(false);
        let spans = drain_spans();
        assert!(
            spans.iter().any(|s| s.cat == "test_nosink"),
            "span must still be in the ring after a sink-less pump"
        );
    }

    #[test]
    fn ring_overflow_keeps_newest_and_counts_drops() {
        let _g = guard();
        crate::set_enabled(true);
        drain_spans();
        dropped_spans();
        for _ in 0..RING_CAPACITY + 10 {
            let _s = span("test_of", "x");
        }
        crate::set_enabled(false);
        let spans: Vec<_> =
            drain_spans().into_iter().filter(|s| s.cat == "test_of").collect();
        assert_eq!(spans.len(), RING_CAPACITY);
        assert_eq!(dropped_spans(), 10);
        // Oldest-first even across the wrap point.
        assert!(spans.windows(2).all(|w| w[0].start_ns <= w[1].start_ns));
    }
}
