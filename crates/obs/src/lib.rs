//! # pap-obs — low-overhead observability for the `pap` stack
//!
//! Three layers, usable independently:
//!
//! * **Span tracing** ([`trace`]): wall-clock begin/end records captured in
//!   per-thread ring buffers behind a single process-wide gate. The disabled
//!   path of [`span`] is *one relaxed atomic load* — no allocation, no time
//!   query, no locking — so instrumentation can stay compiled into the hot
//!   paths of the simulator, the sweep fan-out and the daemon permanently
//!   (the `obs_overhead` Criterion bench in `pap-bench` pins the cost).
//! * **Metrics** ([`Registry`]): a registry of named counters, gauges and
//!   fixed-bucket histograms. Handles are cheap `Arc`-backed atomics that
//!   record with relaxed stores; metrics are always on (a handful of atomic
//!   adds per *run*, never per simulated event). `papd`'s `Stats`, the
//!   `pap-parallel` pool and the micro-benchmark harness all publish through
//!   this one interface.
//! * **Export** ([`chrome`]): Chrome Trace Event JSON that Perfetto and
//!   `chrome://tracing` load directly — used both for drained host spans and
//!   for the simulator's per-rank collective timelines (`papctl profile`),
//!   plus a serializable [`MetricsSnapshot`] with an aligned text table.
//!
//! ## Gating discipline
//!
//! | layer   | disabled cost                | enabled cost                    |
//! |---------|------------------------------|---------------------------------|
//! | spans   | 1 relaxed load               | 2 `Instant` reads + ring push   |
//! | metrics | n/a (always on, per-run)     | relaxed atomic add              |
//!
//! Call [`set_enabled`]`(true)` (e.g. from `papctl … --metrics`) to start
//! capturing spans; [`trace::drain_spans`] collects what every thread
//! recorded since the last drain.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicBool, Ordering};

pub mod chrome;
pub(crate) mod metrics;
pub mod trace;

pub use chrome::{validate_trace, ChromeTrace};
pub use metrics::{global, Counter, Gauge, Histogram, MetricsSnapshot, Registry};
pub use trace::{drain_spans, pump_spans, set_span_stream, span, SpanRecord};

/// Process-wide span-capture gate. Relaxed is sufficient: observers only
/// need *eventual* agreement, and a span started just before `set_enabled`
/// flipped is simply not recorded.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turn span capture on or off (metrics are unaffected — they are always
/// on). Off by default.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether span capture is currently enabled.
///
/// This is the *entire* disabled-path cost of [`span`]: one relaxed atomic
/// load and a branch.
#[inline(always)]
pub(crate) fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_defaults_off_and_toggles() {
        // Tests in this crate serialize access to the global gate through
        // the trace-module lock; here a plain toggle round-trip suffices.
        let was = enabled();
        set_enabled(true);
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
        set_enabled(was);
    }
}
