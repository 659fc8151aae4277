//! The transport-independent request engine: decode one frame, serve it,
//! and yield the reply — or, for a frame that needs measurement, the slow
//! work the server runs on its compute pool. Protocol semantics (error
//! taxonomy, stats accounting, refinement scheduling, panic isolation)
//! live here, in exactly one place.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use pap_parallel::Pool;

use crate::proto::{
    decode_request, error_reply, CalibrateRequest, ErrorCode, QueryAnswer, QueryRequest,
    ReplicaDump, Reply, ReplyEnvelope, Request, MAX_FRAME_BYTES, PROTO_VERSION,
};
use crate::stats::Stats;
use crate::store::{CellKey, TierStore};

/// Largest [`Request::Replicate`] page the server will return: 16 cells
/// per frame keeps a page (matrix plus fault evidence per cell) well under
/// [`MAX_FRAME_BYTES`].
pub const REPLICA_PAGE_MAX: usize = 16;

/// What serving one frame on the event loop produced.
pub(crate) enum Step {
    /// Answered inline: a cache hit, a control frame, or an error.
    Reply(ReplyEnvelope),
    /// Needs measurement; run it with [`Dispatcher::run_slow`] off the loop.
    Slow(SlowFrame),
}

/// A frame whose answer needs measurement: a cold cell or a calibration.
pub(crate) struct SlowFrame {
    /// The request id, echoed in the reply.
    pub id: u64,
    /// When the frame was decoded (its latency runs until the reply).
    start: Instant,
    work: SlowWork,
}

enum SlowWork {
    Query(QueryRequest),
    Calibrate(CalibrateRequest),
}

/// Serves frames against one store.
pub(crate) struct Dispatcher {
    shutdown: Arc<AtomicBool>,
    stats: Arc<Stats>,
    store: Arc<TierStore>,
    refine_pool: Option<Arc<Pool>>,
}

impl Dispatcher {
    /// Assemble a dispatcher over a seeded store.
    pub fn new(
        shutdown: Arc<AtomicBool>,
        stats: Arc<Stats>,
        store: Arc<TierStore>,
        refine_pool: Option<Arc<Pool>>,
    ) -> Dispatcher {
        Dispatcher { shutdown, stats, store, refine_pool }
    }

    /// Whether shutdown has been requested (in-band or out).
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Count and build the reply for an oversized frame (no newline within
    /// [`MAX_FRAME_BYTES`]); the connection must close after sending it —
    /// there is no way to find the next frame boundary.
    pub fn oversized_frame_reply(&self) -> ReplyEnvelope {
        self.stats.endpoint_error();
        error_reply(0, ErrorCode::BadFrame, format!("frame exceeds {MAX_FRAME_BYTES} bytes"))
    }

    /// Decode and serve one frame (without its trailing newline); never
    /// panics out. Counts the frame; records its latency when answered
    /// inline ([`Dispatcher::run_slow`] records it for slow frames).
    pub fn serve_frame(&self, line: &[u8]) -> Step {
        self.stats.frame();
        let start = Instant::now();
        let step = catch_unwind(AssertUnwindSafe(|| self.step(line, start)))
            .unwrap_or_else(|_| Step::Reply(self.internal_error()));
        if matches!(step, Step::Reply(_)) {
            self.stats.record_latency(start.elapsed());
        }
        step
    }

    /// Measure a slow frame's answer (on a compute-pool worker); never
    /// panics out. Records the frame's latency from decode to reply.
    pub fn run_slow(&self, frame: SlowFrame) -> ReplyEnvelope {
        let SlowFrame { id, start, work } = frame;
        let reply = catch_unwind(AssertUnwindSafe(|| match work {
            SlowWork::Query(q) => self.query_reply(id, self.store.compute_miss(&q)),
            SlowWork::Calibrate(c) => match self.store.calibrate(&c) {
                Ok((answer, tickets)) => {
                    // Same ownership contract as the query path: the store
                    // scheduled the tickets, the refine pool runs them.
                    tickets.into_iter().for_each(|key| self.schedule_refine(key));
                    ReplyEnvelope { v: PROTO_VERSION, id, reply: Reply::Calibrated(answer) }
                }
                Err(msg) => self.bad_request(id, msg),
            },
        }))
        .unwrap_or_else(|_| self.internal_error());
        self.stats.record_latency(start.elapsed());
        reply
    }

    fn internal_error(&self) -> ReplyEnvelope {
        self.stats.endpoint_error();
        error_reply(0, ErrorCode::Internal, "internal error while serving request")
    }

    fn bad_request(&self, id: u64, msg: String) -> ReplyEnvelope {
        self.stats.endpoint_error();
        error_reply(id, ErrorCode::BadRequest, msg)
    }

    fn step(&self, line: &[u8], start: Instant) -> Step {
        let text = match std::str::from_utf8(line) {
            Ok(t) => t,
            Err(_) => {
                self.stats.endpoint_error();
                return Step::Reply(error_reply(
                    0,
                    ErrorCode::BadFrame,
                    "frame is not valid UTF-8",
                ));
            }
        };
        let env = match decode_request(text.trim_end_matches('\r')) {
            Ok(env) => env,
            Err(e) => {
                self.stats.endpoint_error();
                return Step::Reply(error_reply(e.id, e.code, e.message));
            }
        };
        let id = env.id;
        let slow = |work| Step::Slow(SlowFrame { id, start, work });
        let ok = |reply| ReplyEnvelope { v: PROTO_VERSION, id, reply };
        Step::Reply(match env.req {
            Request::Query(q) => {
                self.stats.endpoint_query();
                match self.store.lookup(&q) {
                    Ok(Some(hit)) => self.query_reply(id, Ok(hit)),
                    Ok(None) => return slow(SlowWork::Query(q)),
                    Err(msg) => self.bad_request(id, msg),
                }
            }
            Request::Calibrate(c) => {
                self.stats.endpoint_calibrate();
                return slow(SlowWork::Calibrate(c));
            }
            Request::Stats => {
                self.stats.endpoint_stats();
                ok(Reply::Stats(self.stats.report()))
            }
            Request::Metrics => {
                // Counted as a stats-endpoint hit: the legacy StatsReport
                // shape has no dedicated field, and adding one would break
                // its pinned wire layout.
                self.stats.endpoint_stats();
                ok(Reply::Metrics(self.stats.metrics_snapshot()))
            }
            Request::Ping => {
                self.stats.endpoint_ping();
                ok(Reply::Pong)
            }
            Request::Replicate { offset, limit } => {
                // Also a stats-endpoint hit (pinned report shape, see above).
                self.stats.endpoint_stats();
                let (total, cells) =
                    self.store.export_cells(offset, limit.clamp(1, REPLICA_PAGE_MAX));
                ok(Reply::Replica(ReplicaDump { total, offset, cells }))
            }
            Request::Shutdown => {
                self.stats.endpoint_shutdown();
                self.shutdown.store(true, Ordering::SeqCst);
                ok(Reply::Bye)
            }
        })
    }

    /// The reply to a resolved query; hands its refinement ticket, if any,
    /// to the refine pool.
    fn query_reply(
        &self,
        id: u64,
        resolved: Result<(QueryAnswer, Option<CellKey>), String>,
    ) -> ReplyEnvelope {
        match resolved {
            Ok((answer, ticket)) => {
                if let Some(key) = ticket {
                    self.schedule_refine(key);
                }
                ReplyEnvelope { v: PROTO_VERSION, id, reply: Reply::Answer(answer) }
            }
            Err(msg) => self.bad_request(id, msg),
        }
    }

    /// Run a refinement ticket on the refine pool, or cancel it when there
    /// is none (or it is shutting down).
    fn schedule_refine(&self, key: CellKey) {
        let submitted = self.refine_pool.as_ref().is_some_and(|pool| {
            let store = Arc::clone(&self.store);
            let k = key.clone();
            pool.submit(move || store.refine(&k))
        });
        if !submitted {
            self.store.cancel_refine(&key);
        }
    }
}
