//! `papd` observability: one `pap-obs` metrics registry per server.
//!
//! Each [`Stats`] owns a private [`pap_obs::Registry`] (tests run several
//! servers in one process) and caches one handle per metric, so recording
//! is a single relaxed atomic op. Every metric is declared once, in the
//! `stats!` table below. The registry is the only stats model: the
//! [`StatsReport`] wire shape is a view of a [`MetricsSnapshot`]
//! ([`StatsReport::from_snapshot`]), of one server or of a merged fleet.

use std::time::{Duration, Instant};

use pap_obs::{Counter, Gauge, Histogram, MetricsSnapshot, Registry};

use crate::proto::{EndpointCounters, LatencyBucket, StatsReport, TierCounters};

/// Upper bounds (µs) of the fixed latency histogram buckets; the implicit
/// last bucket (`u64::MAX`) catches everything slower.
pub const LATENCY_BOUNDS_US: [u64; 12] =
    [1, 2, 5, 10, 20, 50, 100, 200, 500, 1_000, 5_000, 50_000];

/// Upper bounds (basis points, 1 bp = 0.01%) of the calibration
/// fit-quality histogram: the median relative residual of each accepted
/// fit. The guideline gate rejects fits above 1500 bp, so the overflow
/// bucket stays empty unless the gate loosens.
pub const FIT_RESIDUAL_BOUNDS_BP: [u64; 8] = [10, 25, 50, 100, 250, 500, 1_000, 1_500];

/// Declares [`Stats`], its constructor, the counters' recording methods
/// and the `name` table from one list of metrics.
macro_rules! stats {
    (
        counters { $($cvis:vis fn $bump:ident => $c:ident = $cname:literal,)* }
        gauges { $($(#[$gdoc:meta])* $gvis:vis $g:ident = $gname:literal,)* }
        histograms { $($h:ident = $hname:literal, $bounds:expr;)* }
    ) => {
        /// Per-server metric handles; every recording is an independent
        /// relaxed atomic, so request handlers on different pool workers
        /// never contend on a lock to record.
        pub struct Stats {
            started: Instant,
            registry: Registry,
            $($c: Counter,)*
            $($(#[$gdoc])* $gvis $g: Gauge,)*
            $($h: Histogram,)*
        }

        /// Every metric's registered name, by handle field.
        #[allow(non_upper_case_globals)]
        mod name {
            $(pub const $c: &str = $cname;)*
            $(pub const $g: &str = $gname;)*
            $(pub const $h: &str = $hname;)*
        }

        impl Stats {
            /// Fresh metric block; uptime starts now.
            pub fn new() -> Self {
                let registry = Registry::new();
                Stats {
                    started: Instant::now(),
                    $($c: registry.counter(name::$c),)*
                    $($g: registry.gauge(name::$g),)*
                    $($h: registry.histogram(name::$h, &$bounds),)*
                    registry,
                }
            }

            $(
                #[doc = concat!("Count one `", $cname, "` event.")]
                $cvis fn $bump(&self) { self.$c.inc() }
            )*
        }
    };
}

stats! {
    counters {
        pub fn connection => connections = "papd.connections",
        pub fn frame => frames = "papd.frames",
        pub fn endpoint_query => query = "papd.endpoint.query",
        pub fn endpoint_stats => stats = "papd.endpoint.stats",
        pub fn endpoint_ping => ping = "papd.endpoint.ping",
        pub fn endpoint_shutdown => shutdown = "papd.endpoint.shutdown",
        pub fn endpoint_calibrate => calibrate = "papd.endpoint.calibrate",
        pub fn endpoint_error => error = "papd.endpoint.error",
        fn count_calibration_accepted => calibrations_accepted = "papd.calibration.accepted",
        pub fn calibration_rejected => calibrations_rejected = "papd.calibration.rejected",
        pub fn l1_hit => l1_hits = "papd.tier.l1_hits",
        pub fn l2_exact_hit => l2_exact = "papd.tier.l2_exact",
        pub fn l2_near_hit => l2_near = "papd.tier.l2_near",
        pub fn tier_miss => miss = "papd.tier.miss",
        pub fn refine_scheduled => refines_scheduled = "papd.refines.scheduled",
        pub fn refine_applied => refines_applied = "papd.refines.applied",
        pub fn refine_dropped => refines_dropped = "papd.refines.dropped",
    }
    gauges {
        /// Current L1 entry count, maintained by the store (`.set(n)`).
        pub l1_entries = "papd.l1_entries",
        /// Current L2 cell count, maintained by the store (`.set(n)`).
        pub l2_cells = "papd.l2_cells",
        /// 1 once the L2 store was seeded from a snapshot file or a donor.
        pub snapshot_loaded = "papd.snapshot_loaded",
        /// 1 once a tuning sweep ran at startup.
        pub tuned_at_startup = "papd.tuned_at_startup",
        uptime_ms = "papd.uptime_ms",
    }
    histograms {
        latency = "papd.request_latency_us", LATENCY_BOUNDS_US;
        calibration_residual_bp = "papd.calibration.fit_residual_bp", FIT_RESIDUAL_BOUNDS_BP;
    }
}

impl Default for Stats {
    fn default() -> Self {
        Self::new()
    }
}

impl Stats {
    /// Record one request's handling latency in the fixed-bucket histogram.
    pub fn record_latency(&self, elapsed: Duration) {
        self.latency.record(elapsed.as_micros().min(u64::MAX as u128) as u64);
    }

    /// Count an accepted calibration and record its fit quality (the
    /// median relative residual, in basis points).
    pub fn calibration_accepted(&self, median_rel_residual: f64) {
        self.count_calibration_accepted();
        let bp = (median_rel_residual.max(0.0) * 10_000.0).round();
        self.calibration_residual_bp.record(bp.min(u64::MAX as f64) as u64);
    }

    /// This server's registry, read after setting the uptime gauge.
    fn snapshot(&self) -> MetricsSnapshot {
        self.uptime_ms.set(self.started.elapsed().as_millis().min(i64::MAX as u128) as i64);
        self.registry.snapshot()
    }

    /// Generic metrics snapshot: this server's registry merged with the
    /// process-global one (simulator / pool / harness metrics).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.snapshot();
        snap.merge(pap_obs::global().snapshot());
        snap
    }

    /// This server's metrics as the wire-serializable report.
    pub fn report(&self) -> StatsReport {
        StatsReport::from_snapshot(&self.snapshot())
    }
}

impl StatsReport {
    /// The report view of a metrics snapshot: one server's, or several
    /// merged with [`MetricsSnapshot::merge`]. Every field reads its
    /// metric by name, and a missing metric reads as zero. On a merged
    /// snapshot the gauges are sums too, so `snapshot_loaded` and
    /// `tuned_at_startup` read "any shard" and `uptime_s` the total.
    pub fn from_snapshot(snap: &MetricsSnapshot) -> StatsReport {
        let count = |metric: &str| snap.counter(metric).unwrap_or(0);
        let gauge = |metric: &str| snap.gauge(metric).unwrap_or(0);
        let latency = snap.histogram(name::latency).map_or_else(Vec::new, |h| {
            h.buckets.iter().map(|b| LatencyBucket { le_us: b.le, count: b.count }).collect()
        });
        StatsReport {
            endpoints: EndpointCounters {
                query: count(name::query),
                stats: count(name::stats),
                ping: count(name::ping),
                shutdown: count(name::shutdown),
                calibrate: count(name::calibrate),
                error: count(name::error),
            },
            tiers: TierCounters {
                l1_hits: count(name::l1_hits),
                l2_exact: count(name::l2_exact),
                l2_near: count(name::l2_near),
                miss: count(name::miss),
                refines_scheduled: count(name::refines_scheduled),
                refines_applied: count(name::refines_applied),
                refines_dropped: count(name::refines_dropped),
            },
            connections: count(name::connections),
            frames: count(name::frames),
            l2_cells: gauge(name::l2_cells).max(0) as usize,
            l1_entries: gauge(name::l1_entries).max(0) as usize,
            snapshot_loaded: gauge(name::snapshot_loaded) > 0,
            tuned_at_startup: gauge(name::tuned_at_startup) > 0,
            uptime_s: gauge(name::uptime_ms).max(0) as f64 / 1e3,
            latency,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scripted sequence touching every metric gives exactly the report
    /// the field-by-field `Stats::report` gave before the report became a
    /// view of the registry snapshot.
    #[test]
    fn scripted_sequence_gives_the_pinned_report() {
        let s = Stats::new();
        let script: [fn(&Stats); 21] = [
            Stats::connection, Stats::connection, Stats::frame, Stats::frame, Stats::frame,
            Stats::endpoint_query, Stats::endpoint_query, Stats::endpoint_stats,
            Stats::endpoint_ping, Stats::endpoint_shutdown, Stats::endpoint_calibrate,
            Stats::endpoint_error, Stats::calibration_rejected, Stats::l1_hit,
            Stats::l2_exact_hit, Stats::l2_near_hit, Stats::tier_miss, Stats::tier_miss,
            Stats::refine_scheduled, Stats::refine_applied, Stats::refine_dropped,
        ];
        script.iter().for_each(|bump| bump(&s));
        s.calibration_accepted(0.004);
        s.l2_cells.set(9);
        s.l1_entries.set(-2); // clamps to 0
        s.snapshot_loaded.set(1);
        // Bounds are inclusive: 0 and 1 land in <=1, then <=10, <=5000, overflow.
        for us in [0, 1, 7, 3_000, 10_000_000] {
            s.record_latency(Duration::from_micros(us));
        }

        let mut report = s.report();
        assert!(report.uptime_s >= 0.0);
        report.uptime_s = 0.0;
        let pinned = concat!(
            r#"{"endpoints":{"query":2,"stats":1,"ping":1,"shutdown":1,"calibrate":1,"error":1},"#,
            r#""tiers":{"l1_hits":1,"l2_exact":1,"l2_near":1,"miss":2,"refines_scheduled":1,"#,
            r#""refines_applied":1,"refines_dropped":1},"connections":2,"frames":3,"l2_cells":9,"#,
            r#""l1_entries":0,"snapshot_loaded":true,"tuned_at_startup":false,"uptime_s":0.0,"#,
            r#""latency":[{"le_us":1,"count":2},{"le_us":2,"count":0},{"le_us":5,"count":0},"#,
            r#"{"le_us":10,"count":1},{"le_us":20,"count":0},{"le_us":50,"count":0},"#,
            r#"{"le_us":100,"count":0},{"le_us":200,"count":0},{"le_us":500,"count":0},"#,
            r#"{"le_us":1000,"count":0},{"le_us":5000,"count":1},{"le_us":50000,"count":0},"#,
            r#"{"le_us":18446744073709551615,"count":1}]}"#,
        );
        assert_eq!(serde_json::to_string(&report).unwrap(), pinned);
        // Calibration outcomes live only in the generic snapshot.
        let snap = s.metrics_snapshot();
        let accepted = snap.counter("papd.calibration.accepted");
        assert_eq!((accepted, snap.counter("papd.calibration.rejected")), (Some(1), Some(1)));
        let fit = snap.histogram("papd.calibration.fit_residual_bp").expect("fit histogram");
        let le50 = fit.buckets.iter().find(|b| b.le == 50).unwrap(); // 40 bp
        assert_eq!((fit.count, le50.count), (1, 1));
    }

    #[test]
    fn servers_have_independent_registries() {
        let a = Stats::new();
        let b = Stats::new();
        a.connection();
        assert_eq!(a.report().connections, 1);
        assert_eq!(b.report().connections, 0, "stats must be per-server, not process-global");
    }

    #[test]
    fn metrics_snapshot_includes_own_and_global_metrics() {
        let s = Stats::new();
        s.endpoint_query();
        s.l2_cells.set(13);
        // Touch a global metric so the merged snapshot provably spans both.
        pap_obs::global().counter("papd.test.global_marker").inc();
        let snap = s.metrics_snapshot();
        assert_eq!(snap.counter("papd.endpoint.query"), Some(1));
        assert!(snap.counter("papd.test.global_marker").unwrap_or(0) >= 1);
        assert_eq!(snap.gauge("papd.l2_cells"), Some(13));
        assert!(snap.histogram("papd.request_latency_us").is_some());
    }
}
