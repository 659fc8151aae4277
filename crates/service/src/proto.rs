//! The `papd` wire protocol: newline-delimited JSON frames over TCP.
//!
//! Every frame is one line: a JSON object terminated by `'\n'`, at most
//! [`MAX_FRAME_BYTES`] long. Requests are [`RequestEnvelope`]s, replies
//! [`ReplyEnvelope`]s; the server answers frames of one connection in
//! arrival order, so clients may pipeline any number of requests before
//! reading replies and match them up by `id` (the server echoes it
//! verbatim).
//!
//! Versioning: both envelopes carry `v` ([`PROTO_VERSION`]). The server
//! rejects other versions with a [`ErrorCode::VersionMismatch`] error reply
//! instead of guessing at field semantics. Unknown *extra* fields in
//! requests are ignored (forward compatibility); unknown request variants
//! and missing fields are [`ErrorCode::BadRequest`]. A frame that is not
//! valid JSON at all — including a truncated one — is
//! [`ErrorCode::BadFrame`]. None of these conditions terminates the
//! connection or the worker: the server replies and keeps reading.

use pap_core::{BenchMatrix, FaultMatrix};
use serde::{Deserialize, Serialize};

use pap_collectives::CollectiveKind;

/// Current protocol version carried in every envelope.
pub const PROTO_VERSION: u32 = 1;

/// Hard upper bound on one frame (request or reply line), in bytes.
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// One request frame.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RequestEnvelope {
    /// Protocol version ([`PROTO_VERSION`]).
    pub v: u32,
    /// Client-chosen correlation ID, echoed in the reply.
    pub id: u64,
    /// The request body.
    pub req: Request,
}

/// The request body.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Ask which algorithm to use for a collective invocation.
    Query(QueryRequest),
    /// Fetch the server's observability counters.
    Stats,
    /// Fetch the generic metrics snapshot (the server's `pap-obs` registry
    /// plus process-global library metrics). Richer and more extensible
    /// than [`Request::Stats`], which is kept for compatibility.
    Metrics,
    /// Liveness probe.
    Ping,
    /// Pull a page of this server's L2 evidence cells (warm replication: a
    /// booting fleet shard drains a peer page by page and starts hot).
    Replicate {
        /// Index of the first cell to return, in the server's stable export
        /// order.
        offset: usize,
        /// Maximum cells in the reply (the server clamps to keep the frame
        /// under [`MAX_FRAME_BYTES`]).
        limit: usize,
    },
    /// Onboard an unseen machine from a measured probe: the server fits
    /// platform parameters inline (`pap-calibrate`), registers the machine
    /// as a `custom:<name>` preset, publishes a model-backed L2 grid for
    /// it, and schedules background sim refinement of those cells.
    Calibrate(CalibrateRequest),
    /// Ask the server to shut down gracefully (drain in-flight work).
    Shutdown,
}

/// An online calibration request: a measured probe plus the name the
/// fitted machine should be served under.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CalibrateRequest {
    /// Name to register the fitted machine under (served as
    /// `custom:<name>`; lowercase letters, digits, `.`, `_`, `-`).
    pub(crate) name: String,
    /// Rank count to pre-tune the published L2 grid at.
    pub(crate) ranks: usize,
    /// The measured probe (its own `format` field versions the payload
    /// independently of [`PROTO_VERSION`]).
    pub(crate) probe: pap_calibrate::Probe,
}

/// The answer to a [`Request::Calibrate`]: the accepted fit and what the
/// server published from it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CalibrateAnswer {
    /// Canonical machine name queries should use (`custom:<name>`).
    pub machine: String,
    /// The accepted fit: parameters plus residual diagnostics.
    pub fit: pap_calibrate::FitReport,
    /// L2 evidence cells published for the new machine.
    pub l2_cells: usize,
    /// Background sim refinements scheduled over those cells (0 if the
    /// refine pool refused them).
    pub refine_scheduled: usize,
}

/// An algorithm-selection query.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryRequest {
    /// Machine preset name (`simcluster`, `hydra`, `galileo100`,
    /// `discoverer`; case-insensitive, aliases accepted).
    pub machine: String,
    /// Collective kind (e.g. `"Alltoall"`; the serialized
    /// [`CollectiveKind`]).
    pub collective: CollectiveKind,
    /// Message size in bytes (collective byte convention).
    pub bytes: u64,
    /// Number of MPI ranks.
    pub ranks: usize,
    /// Optional per-rank arrival samples, one entry per rank: delays or raw
    /// arrival timestamps in seconds (absolute offset and scale are
    /// irrelevant — only the imbalance profile is classified). `null` means
    /// "arrival pattern unknown": the server answers with its default
    /// policy.
    pub arrivals: Option<Vec<f64>>,
}

/// One reply frame.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplyEnvelope {
    /// Protocol version ([`PROTO_VERSION`]).
    pub v: u32,
    /// The `id` of the request this answers (0 when the request was too
    /// malformed to carry one).
    pub id: u64,
    /// The reply body.
    pub reply: Reply,
}

/// The reply body.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Reply {
    /// Answer to a [`Request::Query`].
    Answer(QueryAnswer),
    /// Answer to a [`Request::Stats`].
    Stats(StatsReport),
    /// Answer to a [`Request::Metrics`].
    Metrics(pap_obs::MetricsSnapshot),
    /// Answer to a [`Request::Ping`].
    Pong,
    /// Answer to a [`Request::Replicate`]: one page of L2 evidence.
    Replica(ReplicaDump),
    /// Answer to a [`Request::Calibrate`].
    Calibrated(CalibrateAnswer),
    /// Acknowledgement of a [`Request::Shutdown`]; the server drains and
    /// exits after sending it.
    Bye,
    /// The request could not be served.
    Error(ErrorReply),
}

/// Which tier of the store resolved a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Tier {
    /// In-memory LRU of fully resolved answers.
    L1,
    /// Precomputed tuning evidence, exact (machine, collective, ranks,
    /// bytes) match.
    L2,
    /// Precomputed tuning evidence, nearest message size in log-space (no
    /// exact entry existed).
    L2Near,
    /// No precomputed evidence: the answer was computed on demand from the
    /// analytical model backend (and sim refinement may have been
    /// scheduled).
    Computed,
}

impl Tier {
    /// Human wording for interactive output (`papctl query`): what serving
    /// from this tier actually meant.
    pub fn describe(self) -> &'static str {
        match self {
            Tier::L1 => "L1 answer cache",
            Tier::L2 => "L2 evidence, exact size",
            Tier::L2Near => "L2 evidence, nearest size",
            Tier::Computed => "computed inline",
        }
    }
}

/// The answer to a selection query.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryAnswer {
    /// Canonical machine name the decision is for.
    pub machine: String,
    /// Collective kind.
    pub collective: CollectiveKind,
    /// Rank count.
    pub ranks: usize,
    /// Requested message size (bytes).
    pub bytes: u64,
    /// The selected algorithm ID (Table II numbering).
    pub alg: u8,
    /// Human-readable policy that produced the choice (e.g. `"robust"` or
    /// `"best_under:last_delayed"`).
    pub policy: String,
    /// The arrival pattern the query was classified to (`"no_delay"` when
    /// no samples were given and the default policy ignores patterns).
    pub pattern: String,
    /// Cosine similarity of the classification in `[-1, 1]` (1.0 when no
    /// samples were given).
    pub similarity: f64,
    /// Which tier resolved the answer.
    pub tier: Tier,
    /// Whether the evidence matched the requested message size exactly
    /// (false for [`Tier::L2Near`]).
    pub exact: bool,
    /// Message size of the evidence cell actually used.
    pub evidence_bytes: u64,
    /// Backend that produced the evidence (`"model"` or `"sim"`).
    pub backend: String,
    /// Evidence generation; bumped when an L3 sim refinement upgrades the
    /// cell.
    pub generation: u64,
    /// Whether this query scheduled a background sim refinement (false if
    /// the refine pool refused it).
    pub refine_scheduled: bool,
}

/// Machine-readable error reply.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ErrorReply {
    /// Error class.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
}

/// Error classes of [`ErrorReply`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ErrorCode {
    /// The frame was not a JSON object with `v` and `id` (includes
    /// truncated JSON and oversized frames).
    BadFrame,
    /// The envelope's `v` differs from the server's [`PROTO_VERSION`].
    VersionMismatch,
    /// The envelope parsed but the request body did not (unknown variant,
    /// missing field, bad enum value) or failed validation.
    BadRequest,
    /// The server failed internally while answering.
    Internal,
}

/// Serialize a frame: one compact JSON line terminated by `'\n'`.
pub fn encode_frame<T: Serialize>(value: &T) -> String {
    let mut line = serde_json::to_string(value).expect("wire types are serializable");
    line.push('\n');
    line
}

/// Envelope prefix used to salvage `v`/`id` from requests whose body does
/// not parse (so the error reply can still carry the right correlation ID).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct RawEnvelope {
    v: u32,
    id: u64,
}

/// Decode failure: the error reply the server should send instead.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodeError {
    /// Correlation ID to echo (0 if unknown).
    pub id: u64,
    /// Error class.
    pub code: ErrorCode,
    /// Detail message.
    pub message: String,
}

/// Decode one request line (without the trailing newline).
///
/// A well-formed frame parses once, into the full envelope, and then has its
/// version checked ([`ErrorCode::VersionMismatch`]). Only a frame that does
/// not parse is parsed again as the `{v, id}` prefix, to classify the
/// failure: no prefix is [`ErrorCode::BadFrame`] with `id = 0`; a prefix
/// with a foreign version is [`ErrorCode::VersionMismatch`]; otherwise the
/// body is at fault ([`ErrorCode::BadRequest`]). Both carry the salvaged `id`.
pub fn decode_request(line: &str) -> Result<RequestEnvelope, DecodeError> {
    let version_mismatch = |id: u64, v: u32| DecodeError {
        id,
        code: ErrorCode::VersionMismatch,
        message: format!("protocol version {v} not supported (server speaks {PROTO_VERSION})"),
    };
    let body_err = match serde_json::from_str::<RequestEnvelope>(line) {
        Ok(env) if env.v == PROTO_VERSION => return Ok(env),
        Ok(env) => return Err(version_mismatch(env.id, env.v)),
        Err(e) => e,
    };
    let raw: RawEnvelope = serde_json::from_str(line).map_err(|e| DecodeError {
        id: 0,
        code: ErrorCode::BadFrame,
        message: format!("malformed frame: {e}"),
    })?;
    if raw.v != PROTO_VERSION {
        return Err(version_mismatch(raw.id, raw.v));
    }
    Err(DecodeError {
        id: raw.id,
        code: ErrorCode::BadRequest,
        message: format!("bad request body: {body_err}"),
    })
}

/// Decode one reply line (client side).
pub fn decode_reply(line: &str) -> Result<ReplyEnvelope, String> {
    let env: ReplyEnvelope =
        serde_json::from_str(line).map_err(|e| format!("malformed reply frame: {e}"))?;
    if env.v != PROTO_VERSION {
        return Err(format!("server speaks protocol version {}, client speaks {PROTO_VERSION}", env.v));
    }
    Ok(env)
}

/// Convenience constructor for an error reply envelope.
pub(crate) fn error_reply(id: u64, code: ErrorCode, message: impl Into<String>) -> ReplyEnvelope {
    ReplyEnvelope {
        v: PROTO_VERSION,
        id,
        reply: Reply::Error(ErrorReply { code, message: message.into() }),
    }
}

/// One L2 evidence cell in a [`ReplicaDump`] page: the cell's identity plus
/// everything a replica needs to serve it verbatim — benchmark matrix,
/// optional fault evidence, producing backend, and generation (so L1
/// entries derived from a replicated cell stay comparable to the donor's).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct ReplicaCell {
    /// Canonical machine name the evidence is for.
    pub(crate) machine: String,
    /// Collective kind.
    pub(crate) collective: CollectiveKind,
    /// Rank count.
    pub(crate) ranks: usize,
    /// Message size in bytes.
    pub(crate) bytes: u64,
    /// The machine's status-quo (fixed production default) algorithm ID.
    pub(crate) status_quo: u8,
    /// The `(pattern × algorithm)` evidence grid.
    pub(crate) matrix: BenchMatrix,
    /// Degraded-mode evidence, when the donor had any for this cell.
    #[serde(default)]
    pub(crate) faults: Option<FaultMatrix>,
    /// Backend that produced the evidence (`"model"` or `"sim"`).
    pub(crate) backend: String,
    /// Donor's evidence generation for the cell.
    pub(crate) generation: u64,
}

/// One page of a server's L2 store ([`Reply::Replica`]). Pages are stable
/// under a fixed store: the export order is sorted by cell key, so a client
/// paging `offset = 0, n, 2n, …` sees every cell exactly once as long as
/// the donor's store does not change mid-drain (late inserts may be missed
/// until the next drain — warm replication is best-effort, not a log).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplicaDump {
    /// Total cells in the donor's L2 store at reply time.
    pub(crate) total: usize,
    /// Offset this page starts at (echoed from the request).
    pub(crate) offset: usize,
    /// The cells, in stable export order.
    pub(crate) cells: Vec<ReplicaCell>,
}

/// Latency histogram bucket of a [`StatsReport`] (cumulative-style upper
/// bounds, fixed at server start).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatencyBucket {
    /// Inclusive upper bound of the bucket in microseconds;
    /// `u64::MAX` marks the overflow bucket.
    pub le_us: u64,
    /// Number of requests whose handling latency fell in this bucket.
    pub count: u64,
}

/// Per-endpoint request counters.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct EndpointCounters {
    /// `Query` requests served (including error replies to them).
    pub query: u64,
    /// `Stats` requests served.
    pub stats: u64,
    /// `Ping` requests served.
    pub ping: u64,
    /// `Shutdown` requests served.
    pub shutdown: u64,
    /// `Calibrate` requests served. Defaults on deserialize so reports
    /// from pre-calibration servers still load.
    #[serde(default)]
    pub calibrate: u64,
    /// Error replies sent (any endpoint, including undecodable frames).
    pub error: u64,
}

/// Per-tier cache counters.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TierCounters {
    /// Queries answered from the L1 LRU.
    pub l1_hits: u64,
    /// Queries answered from an exact L2 cell.
    pub l2_exact: u64,
    /// Queries answered from the nearest-size L2 cell.
    pub l2_near: u64,
    /// Queries with no usable precomputed evidence (computed on demand).
    pub miss: u64,
    /// Background sim refinements scheduled.
    pub refines_scheduled: u64,
    /// Refinements that completed and upgraded a cell.
    pub refines_applied: u64,
    /// Refinements dropped (shutdown, stale generation, or failure).
    pub refines_dropped: u64,
}

/// The server's observability snapshot (`Stats` endpoint).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatsReport {
    /// Per-endpoint request counters.
    pub endpoints: EndpointCounters,
    /// Per-tier cache counters.
    pub tiers: TierCounters,
    /// Connections accepted since start.
    pub connections: u64,
    /// Request frames read since start.
    pub frames: u64,
    /// Number of L2 evidence cells currently held.
    pub l2_cells: usize,
    /// Number of resolved answers currently in the L1 LRU.
    pub l1_entries: usize,
    /// Whether the L2 store was loaded from a snapshot file.
    pub snapshot_loaded: bool,
    /// Whether the server ran a tuning sweep at startup.
    pub tuned_at_startup: bool,
    /// Server uptime in seconds.
    pub uptime_s: f64,
    /// Fixed-bucket request-handling latency histogram.
    pub latency: Vec<LatencyBucket>,
}

impl StatsReport {
    /// Render the report as the aligned text table `papctl query --stats`
    /// and the CI smoke job print.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "papd stats (uptime {:.1}s, {} connections, {} frames)\n",
            self.uptime_s, self.connections, self.frames
        ));
        out.push_str(&format!(
            "endpoints:  query {:>8}  stats {:>6}  ping {:>6}  calibrate {:>3}  shutdown {:>3}  errors {:>6}\n",
            self.endpoints.query,
            self.endpoints.stats,
            self.endpoints.ping,
            self.endpoints.calibrate,
            self.endpoints.shutdown,
            self.endpoints.error
        ));
        out.push_str(&format!(
            "tiers:      l1 {:>8}  l2 {:>8}  l2_near {:>6}  miss {:>6}\n",
            self.tiers.l1_hits, self.tiers.l2_exact, self.tiers.l2_near, self.tiers.miss
        ));
        out.push_str(&format!(
            "refine:     scheduled {:>4}  applied {:>4}  dropped {:>4}\n",
            self.tiers.refines_scheduled, self.tiers.refines_applied, self.tiers.refines_dropped
        ));
        out.push_str(&format!(
            "store:      l2 cells {:>5}  l1 entries {:>5}  snapshot_loaded {}  tuned_at_startup {}\n",
            self.l2_cells, self.l1_entries, self.snapshot_loaded, self.tuned_at_startup
        ));
        out.push_str("latency:    ");
        let total: u64 = self.latency.iter().map(|b| b.count).sum();
        if total == 0 {
            out.push_str("(no requests)\n");
        } else {
            out.push_str(&format!(
                "p50 {}  p99 {}  |  ",
                self.latency_quantile_label(0.50),
                self.latency_quantile_label(0.99)
            ));
            let mut parts = Vec::new();
            for b in &self.latency {
                if b.count == 0 {
                    continue;
                }
                let label = if b.le_us == u64::MAX {
                    "inf".to_string()
                } else {
                    format!("{}us", b.le_us)
                };
                parts.push(format!("<={label}: {}", b.count));
            }
            out.push_str(&parts.join("  "));
            out.push('\n');
        }
        out
    }

    /// Upper-bound label of the bucket holding the `q`-quantile request
    /// (`"<=100us"`, `"<=inf"`). Histograms only bound quantiles from
    /// above, so the label reports the bucket edge, not an interpolated
    /// value. Returns `"n/a"` when the histogram is empty.
    pub(crate) fn latency_quantile_label(&self, q: f64) -> String {
        let total: u64 = self.latency.iter().map(|b| b.count).sum();
        if total == 0 {
            return "n/a".to_string();
        }
        let target = ((total as f64) * q).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for b in &self.latency {
            cum += b.count;
            if cum >= target {
                return if b.le_us == u64::MAX {
                    "<=inf".to_string()
                } else {
                    format!("<={}us", b.le_us)
                };
            }
        }
        "<=inf".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_frames_round_trip() {
        let env = RequestEnvelope {
            v: PROTO_VERSION,
            id: 42,
            req: Request::Query(QueryRequest {
                machine: "simcluster".into(),
                collective: CollectiveKind::Alltoall,
                bytes: 32768,
                ranks: 16,
                arrivals: Some(vec![0.0, 1e-4, 2e-4]),
            }),
        };
        let line = encode_frame(&env);
        assert!(line.ends_with('\n'));
        let back = decode_request(line.trim_end()).unwrap();
        assert_eq!(back, env);
        // Unit-variant requests too.
        for req in [Request::Stats, Request::Metrics, Request::Ping, Request::Shutdown] {
            let env = RequestEnvelope { v: PROTO_VERSION, id: 7, req: req.clone() };
            assert_eq!(decode_request(encode_frame(&env).trim_end()).unwrap().req, req);
        }
        // The replication request carries its paging window.
        let req = Request::Replicate { offset: 32, limit: 16 };
        let env = RequestEnvelope { v: PROTO_VERSION, id: 8, req: req.clone() };
        assert_eq!(decode_request(encode_frame(&env).trim_end()).unwrap().req, req);
    }

    #[test]
    fn calibrate_frames_round_trip() {
        let probe = pap_calibrate::synthesize_probe(
            pap_sim::MachineId::SimCluster,
            "wiretest",
            &pap_calibrate::ProbeConfig { reps: 1, noise: false, ..Default::default() },
        )
        .unwrap();
        let req = Request::Calibrate(CalibrateRequest {
            name: "wiretest".into(),
            ranks: 16,
            probe,
        });
        let env = RequestEnvelope { v: PROTO_VERSION, id: 21, req: req.clone() };
        assert_eq!(decode_request(encode_frame(&env).trim_end()).unwrap().req, req);
    }

    #[test]
    fn old_stats_reports_load_without_the_calibrate_counter() {
        // A report serialized before the Calibrate endpoint existed has no
        // `calibrate` field; it must still deserialize (as 0).
        let json = "{\"query\":5,\"stats\":1,\"ping\":2,\"shutdown\":0,\"error\":3}";
        let c: EndpointCounters = serde_json::from_str(json).unwrap();
        assert_eq!((c.query, c.calibrate, c.error), (5, 0, 3));
    }

    #[test]
    fn metrics_reply_round_trips() {
        let reg = pap_obs::Registry::new();
        reg.counter("x").add(3);
        reg.histogram("h_us", &[10, 100]).record(42);
        let env = ReplyEnvelope {
            v: PROTO_VERSION,
            id: 11,
            reply: Reply::Metrics(reg.snapshot()),
        };
        let back = decode_reply(encode_frame(&env).trim_end()).unwrap();
        assert_eq!(back, env);
    }

    #[test]
    fn bad_frames_classify_correctly() {
        // Not JSON at all → BadFrame, id unknown.
        let e = decode_request("not json").unwrap_err();
        assert_eq!((e.id, e.code), (0, ErrorCode::BadFrame));
        // Truncated JSON → BadFrame.
        let e = decode_request("{\"v\":1,\"id\":3,\"req\":{\"Qu").unwrap_err();
        assert_eq!(e.code, ErrorCode::BadFrame);
        // Version mismatch detected before body parsing, id salvaged.
        let e = decode_request("{\"v\":99,\"id\":5,\"req\":\"Nonsense\"}").unwrap_err();
        assert_eq!((e.id, e.code), (5, ErrorCode::VersionMismatch));
        // Unknown request variant → BadRequest with salvaged id.
        let e = decode_request("{\"v\":1,\"id\":6,\"req\":\"Nonsense\"}").unwrap_err();
        assert_eq!((e.id, e.code), (6, ErrorCode::BadRequest));
        // Bad enum value inside the body → BadRequest.
        let e = decode_request(
            "{\"v\":1,\"id\":8,\"req\":{\"Query\":{\"machine\":\"simcluster\",\
             \"collective\":\"Quicksort\",\"bytes\":8,\"ranks\":4,\"arrivals\":null}}}",
        )
        .unwrap_err();
        assert_eq!((e.id, e.code), (8, ErrorCode::BadRequest));
    }

    #[test]
    fn extra_fields_are_forward_compatible() {
        // A newer client may add fields; the server must ignore them.
        let line = "{\"v\":1,\"id\":9,\"future\":true,\"req\":\"Ping\"}";
        assert_eq!(decode_request(line).unwrap().req, Request::Ping);
    }

    #[test]
    fn reply_frames_round_trip() {
        let env = error_reply(3, ErrorCode::BadRequest, "nope");
        let back = decode_reply(encode_frame(&env).trim_end()).unwrap();
        assert_eq!(back, env);
        assert!(decode_reply("{\"v\":2,\"id\":0,\"reply\":\"Pong\"}").is_err());
    }

    #[test]
    fn stats_table_renders() {
        let mut report = StatsReport {
            endpoints: EndpointCounters { query: 10, ..Default::default() },
            tiers: TierCounters { l1_hits: 7, l2_exact: 3, ..Default::default() },
            connections: 2,
            frames: 12,
            l2_cells: 9,
            l1_entries: 3,
            snapshot_loaded: true,
            tuned_at_startup: false,
            uptime_s: 1.5,
            latency: vec![LatencyBucket { le_us: 100, count: 10 }, LatencyBucket { le_us: u64::MAX, count: 0 }],
        };
        let t = report.render_table();
        assert!(t.contains("l1        7"));
        assert!(t.contains("<=100us: 10"));
        report.latency.clear();
        assert!(report.render_table().contains("(no requests)"));
    }

    #[test]
    fn latency_summary_quantiles_are_bucket_edges() {
        // 90 requests <=10us, 9 more <=100us, 1 overflow: p50 falls in the
        // first bucket, p99 exactly closes the second (90 + 9 = 99), and
        // the full distribution tops out in the overflow bucket.
        let report = StatsReport {
            endpoints: EndpointCounters::default(),
            tiers: TierCounters::default(),
            connections: 1,
            frames: 100,
            l2_cells: 0,
            l1_entries: 0,
            snapshot_loaded: false,
            tuned_at_startup: false,
            uptime_s: 2.0,
            latency: vec![
                LatencyBucket { le_us: 10, count: 90 },
                LatencyBucket { le_us: 100, count: 9 },
                LatencyBucket { le_us: u64::MAX, count: 1 },
            ],
        };
        assert_eq!(report.latency_quantile_label(0.50), "<=10us");
        assert_eq!(report.latency_quantile_label(0.99), "<=100us");
        assert_eq!(report.latency_quantile_label(1.0), "<=inf");
        // Golden line: summary columns first, then the bucket breakdown.
        let t = report.render_table();
        assert!(
            t.contains("latency:    p50 <=10us  p99 <=100us  |  <=10us: 90  <=100us: 9  <=inf: 1"),
            "latency line changed:\n{t}"
        );
        let empty = StatsReport { latency: vec![], ..report };
        assert_eq!(empty.latency_quantile_label(0.5), "n/a");
    }
}
