//! The fleet-aware client: consistent-hash routing, bounded retry, and
//! automatic failover.
//!
//! Every query routes by its `(machine, collective, ranks)` key over the
//! [`Ring`], so all byte sizes of one tuning cell land on one shard and
//! its L1/L2 caches stay hot. Transport failures (connect refused, reset,
//! EOF) retry the same shard with linear backoff, then mark it dead and
//! re-route clockwise — a killed shard costs its keys one failover, and
//! zero queries fail as long as any shard is alive. Server-side
//! rejections ([`Reply::Error`]) are *not* failed over: every shard would
//! reject the same malformed query the same way, so they surface to the
//! caller as typed per-query errors.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::time::Duration;

use pap_obs::MetricsSnapshot;
use pap_service::proto::{
    CalibrateAnswer, CalibrateRequest, ErrorReply, QueryAnswer, QueryRequest, Reply, Request,
    StatsReport,
};
use pap_service::Client;

use crate::ring::Ring;

/// Attempts per shard before it is declared dead (first try + retries).
const ATTEMPTS_PER_SHARD: usize = 3;

/// Base backoff between retries on one shard (linear: `base * attempt`).
const BACKOFF: Duration = Duration::from_millis(20);

/// A client over every shard of a fleet. Connections are lazy (dialed on
/// first use per shard) and re-dialed after transport errors.
pub struct FleetClient {
    addrs: Vec<SocketAddr>,
    ring: Ring,
    conns: Vec<Option<Client>>,
    alive: Vec<bool>,
    registry: pap_obs::Registry,
}

impl FleetClient {
    /// Build a client over the fleet's shard addresses (index = shard ID;
    /// the order must match the fleet's own numbering, which is what ties
    /// this ring to the server side's placement).
    pub fn new(addrs: Vec<SocketAddr>) -> FleetClient {
        let n = addrs.len();
        FleetClient {
            ring: Ring::new(n),
            conns: (0..n).map(|_| None).collect(),
            alive: vec![true; n],
            addrs,
            registry: pap_obs::Registry::new(),
        }
    }

    /// Number of shards (dead or alive).
    pub fn shards(&self) -> usize {
        self.addrs.len()
    }

    /// Liveness flags, by shard (false once a shard exhausted its retries).
    pub fn alive(&self) -> &[bool] {
        &self.alive
    }

    /// The client's own observability counters (`fleet_client_*`: routes,
    /// retries, failovers, dead shards).
    pub fn metrics(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }

    /// The shard a query routes to right now (given the live set).
    pub fn route(&self, q: &QueryRequest) -> Option<usize> {
        self.ring.route_filtered(&q.machine, &q.collective.to_string(), q.ranks, &self.alive)
    }

    fn conn(&mut self, shard: usize) -> Result<&mut Client, String> {
        if self.conns[shard].is_none() {
            self.conns[shard] = Some(Client::connect(self.addrs[shard])?);
        }
        Ok(self.conns[shard].as_mut().expect("just connected"))
    }

    /// One round trip on one shard. `Err` means transport failure (the
    /// connection is dropped for re-dial); protocol-level errors come back
    /// as `Ok(Reply::Error)`.
    fn call_on(&mut self, shard: usize, req: Request) -> Result<Reply, String> {
        let result = self.conn(shard).and_then(|c| c.call(req));
        if result.is_err() {
            self.conns[shard] = None;
        }
        result
    }

    /// Route and serve one query with retry and failover. The outer
    /// `Result` is transport-level ("no shard could serve this"); the
    /// inner carries the server's typed rejection, if any.
    pub fn query_slot(&mut self, q: QueryRequest) -> Result<Result<QueryAnswer, ErrorReply>, String> {
        self.registry.counter("fleet_client_routes").add(1);
        let order = self.ring.failover_order(&q.machine, &q.collective.to_string(), q.ranks);
        let mut last_err = "fleet has no shards".to_string();
        let mut owner = true;
        for shard in order {
            if !self.alive[shard] {
                continue;
            }
            if !owner {
                self.registry.counter("fleet_client_failovers").add(1);
            }
            owner = false;
            for attempt in 0..ATTEMPTS_PER_SHARD {
                if attempt > 0 {
                    self.registry.counter("fleet_client_retries").add(1);
                    std::thread::sleep(BACKOFF * attempt as u32);
                }
                match self.call_on(shard, Request::Query(q.clone())) {
                    Ok(Reply::Answer(a)) => return Ok(Ok(a)),
                    Ok(Reply::Error(e)) => return Ok(Err(e)),
                    Ok(other) => return Err(format!("unexpected reply {other:?}")),
                    Err(e) => last_err = e,
                }
            }
            // Retries exhausted: the shard is dead; keys re-route clockwise.
            self.alive[shard] = false;
            self.registry.counter("fleet_client_dead_shards").add(1);
        }
        Err(format!("no live shard could serve the query: {last_err}"))
    }

    /// Like [`FleetClient::query_slot`] but flattening the server's typed
    /// rejection into the error string.
    pub fn query(&mut self, q: QueryRequest) -> Result<QueryAnswer, String> {
        match self.query_slot(q)? {
            Ok(a) => Ok(a),
            Err(e) => Err(format!("{:?}: {}", e.code, e.message)),
        }
    }

    /// Batch: queries are grouped by owning shard and pipelined per shard;
    /// results come back in input order, one slot per query. A shard that
    /// fails mid-batch gets its queries replayed through the retry/failover
    /// path, so a shard kill still yields zero transport-failed slots.
    pub fn query_batch(
        &mut self,
        queries: Vec<QueryRequest>,
    ) -> Result<Vec<Result<QueryAnswer, ErrorReply>>, String> {
        let mut slots: Vec<Option<Result<QueryAnswer, ErrorReply>>> =
            (0..queries.len()).map(|_| None).collect();
        let mut groups: HashMap<usize, Vec<usize>> = HashMap::new();
        for (i, q) in queries.iter().enumerate() {
            let shard = self
                .route(q)
                .ok_or_else(|| "fleet has no live shards".to_string())?;
            groups.entry(shard).or_default().push(i);
        }
        self.registry.counter("fleet_client_routes").add(queries.len() as u64);
        for (shard, idxs) in groups {
            let qs: Vec<QueryRequest> = idxs.iter().map(|&i| queries[i].clone()).collect();
            match self.conn(shard).and_then(|c| c.query_batch(qs)) {
                Ok(results) => {
                    for (&i, r) in idxs.iter().zip(results) {
                        slots[i] = Some(r);
                    }
                }
                Err(_) => {
                    // Transport failure mid-batch: drop the connection and
                    // replay this group's queries one by one (retry, then
                    // failover).
                    self.conns[shard] = None;
                    for &i in &idxs {
                        slots[i] = Some(self.query_slot(queries[i].clone())?);
                    }
                }
            }
        }
        Ok(slots.into_iter().map(|s| s.expect("every query was routed")).collect())
    }

    /// Broadcast a calibration to every live shard, so whichever shard a
    /// later query routes to (including after failovers) knows the fitted
    /// machine and serves its L2 grid hot. Returns `(shard, answer)` pairs
    /// for the shards that accepted; a shard-level rejection fails the
    /// call (every shard runs the same guideline gate, so one rejection
    /// means all would reject).
    pub fn calibrate_all(
        &mut self,
        name: &str,
        ranks: usize,
        probe: pap_calibrate::Probe,
    ) -> Result<Vec<(usize, CalibrateAnswer)>, String> {
        let mut out = Vec::new();
        for shard in 0..self.addrs.len() {
            if !self.alive[shard] {
                continue;
            }
            let req = CalibrateRequest {
                name: name.to_string(),
                ranks,
                probe: probe.clone(),
            };
            match self.call_on(shard, Request::Calibrate(req)) {
                Ok(Reply::Calibrated(a)) => out.push((shard, a)),
                Ok(Reply::Error(e)) => {
                    return Err(format!("shard {shard} rejected calibration: {}", e.message))
                }
                Ok(other) => return Err(format!("unexpected reply {other:?}")),
                Err(_) => {} // dead shards simply drop out, as in stats
            }
        }
        if out.is_empty() {
            return Err("no live shard accepted the calibration".to_string());
        }
        Ok(out)
    }

    /// One round of stats: a `Metrics` frame to every live shard. Returns
    /// the fleet-wide report and each shard's own as `(shard, report)`
    /// pairs, all derived from the same snapshots. Dead shards drop out of
    /// both views.
    pub fn stats_by_shard(&mut self) -> Result<(StatsReport, Vec<(usize, StatsReport)>), String> {
        let mut snaps = Vec::new();
        for shard in 0..self.addrs.len() {
            if !self.alive[shard] {
                continue;
            }
            match self.call_on(shard, Request::Metrics) {
                Ok(Reply::Metrics(snap)) => snaps.push((shard, snap)),
                Ok(other) => return Err(format!("unexpected reply {other:?}")),
                Err(_) => {} // dead shards simply drop out of the view
            }
        }
        Ok(combine(snaps))
    }

    /// Fleet-wide stats from one round (see [`FleetClient::stats_by_shard`]).
    pub fn stats(&mut self) -> Result<StatsReport, String> {
        Ok(self.stats_by_shard()?.0)
    }

    /// Ask every reachable shard to shut down gracefully.
    pub fn shutdown_all(&mut self) {
        for shard in 0..self.addrs.len() {
            let _ = self.call_on(shard, Request::Shutdown);
        }
    }
}

/// The per-shard reports and the fleet report of one round of shard
/// snapshots. The fleet report reads the merged snapshot, so every counter,
/// gauge and latency bucket is a sum. Only three fields are not sums, and
/// they come from the shards' own reports: `snapshot_loaded` holds only if
/// every shard's does (an empty fleet is cold), `tuned_at_startup` if any
/// shard's does, and `uptime_s` is the oldest shard's.
fn combine(snaps: Vec<(usize, MetricsSnapshot)>) -> (StatsReport, Vec<(usize, StatsReport)>) {
    let shards: Vec<(usize, StatsReport)> =
        snaps.iter().map(|(i, snap)| (*i, StatsReport::from_snapshot(snap))).collect();
    let mut merged = MetricsSnapshot::default();
    for (_, snap) in snaps {
        merged.merge(snap);
    }
    let reports = || shards.iter().map(|(_, r)| r);
    let fleet = StatsReport {
        snapshot_loaded: !shards.is_empty() && reports().all(|r| r.snapshot_loaded),
        tuned_at_startup: reports().any(|r| r.tuned_at_startup),
        uptime_s: reports().map(|r| r.uptime_s).fold(0.0, f64::max),
        ..StatsReport::from_snapshot(&merged)
    };
    (fleet, shards)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pap_service::stats::Stats;

    /// One shard's snapshot: one 80 µs query, three L2 cells, the given
    /// warmth and uptime.
    fn shard(warm: bool, uptime_ms: i64) -> MetricsSnapshot {
        let s = Stats::new();
        s.endpoint_query();
        s.record_latency(Duration::from_micros(80));
        s.l2_cells.set(3);
        s.snapshot_loaded.set(warm as i64);
        s.tuned_at_startup.set(!warm as i64);
        let mut snap = s.metrics_snapshot();
        snap.gauges.iter_mut().find(|g| g.name == "papd.uptime_ms").unwrap().value = uptime_ms;
        snap
    }

    #[test]
    fn warmness_is_an_all_tuning_an_any() {
        let (fleet, shards) = combine(vec![(0, shard(true, 1_000)), (2, shard(false, 7_500))]);
        let per: Vec<(usize, bool, f64)> =
            shards.iter().map(|(i, r)| (*i, r.snapshot_loaded, r.uptime_s)).collect();
        assert_eq!(per, [(0, true, 1.0), (2, false, 7.5)]);
        assert!(!fleet.snapshot_loaded, "one cold shard makes the fleet cold");
        assert!(fleet.tuned_at_startup);
        assert_eq!(fleet.uptime_s, 7.5, "uptime is the oldest shard's, not a sum");
        // Every other field is a sum, and renders through the pinned table.
        assert_eq!((fleet.endpoints.query, fleet.l2_cells), (2, 6));
        assert!(fleet.render_table().contains("<=100us: 2"));
        assert!(combine(vec![(0, shard(true, 1))]).0.snapshot_loaded);

        let (empty, shards) = combine(Vec::new());
        assert!(shards.is_empty());
        assert!(!empty.snapshot_loaded, "an empty fleet is cold");
        assert_eq!((empty.tuned_at_startup, empty.uptime_s), (false, 0.0));
        assert_eq!((empty.endpoints.query, empty.l2_cells, empty.latency.len()), (0, 0, 0));
    }
}
