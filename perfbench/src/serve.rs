//! The `serve` workload: `papd` started through its command line and
//! driven over loopback with the wire protocol, in three phases — an idle
//! open-loop stream, the same stream during a closed-loop flood of cold
//! cells, and one connection sending pipelined batches.

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use pap_arrival::{classify_delays, generate, Shape};
use pap_collectives::registry::experiment_ids;
use pap_collectives::CollectiveKind;
use pap_core::{select, tune_machine, SelectionPolicy, TunePlan};
use pap_microbench::{sweep, Backend, BenchConfig, SkewPolicy};
use pap_service::{
    build_store, decode_reply, decode_request, encode_frame, QueryAnswer, QueryRequest, Reply,
    ReplyEnvelope, Request, RequestEnvelope, ServeConfig, Tier, TierStore, PROTO_VERSION,
};
use pap_sim::{MachineId, Platform};

use crate::report::Outcome;
use crate::stats::{
    chunk_rates, geomean, median, summarize_open_loop, OpenLoopSample, OpenLoopSummary,
};
use crate::{host, trace};

/// Ranks the daemon pre-tunes and the warm queries name.
pub const RANKS: usize = 256;
/// The daemon's command line (besides `--addr`).
pub const PAPD_ARGS: [&str; 6] = [
    "--ranks",
    "256",
    "--backend",
    "model",
    "--refine-threads",
    "0",
];
/// Open-loop rate of the warm stream, well under one connection's capacity.
const WARM_RATE: f64 = 1000.0;
/// Cold cells per second on the reference host (2-core x86-64 VM); sizes
/// the cold list against the flood's warm stream.
const NOMINAL_COLD_QPS: f64 = 250.0;
/// Pipelined warm queries per second on the reference host.
const NOMINAL_SAT_QPS: f64 = 20_000.0;
/// How early the open-loop sender wakes before a send and then spins
/// (a sleep overshoots by tens of µs).
const SEND_SPIN: Duration = Duration::from_micros(150);
/// Shortest gap before the next send worth sleeping through.
const IDLE_SLEEP_MIN: Duration = Duration::from_micros(300);
/// Frames per pipelined batch in the saturating phase.
const BATCH: usize = 64;
/// Chunks the pipelined phase is timed in; its rate is the median
/// chunk's, so a host stall that hits one chunk barely moves it.
const RATE_CHUNKS: usize = 8;
/// Daemon launches per run; every figure is the median over launches.
const STARTS: usize = 5;
/// Distinct hot queries, repeated so L1 serves them.
const HOT: usize = 48;

/// The daemon configuration the in-process reference store mirrors.
pub fn serve_config() -> ServeConfig {
    ServeConfig {
        ranks: RANKS,
        backend: Backend::Model,
        refine_threads: 0,
        ..ServeConfig::default()
    }
}

/// SplitMix64: a tiny seeded generator, so inputs depend on the seed only.
pub struct Rng(u64);

impl Rng {
    /// Generator for `seed` in stream `salt`.
    pub fn new(seed: u64, salt: u64) -> Rng {
        Rng(seed ^ salt.wrapping_mul(0xD6E8_FEB8_6659_FD93))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Message size drawn log-uniformly from 8 B to 1 MiB.
fn log_uniform_bytes(rng: &mut Rng) -> u64 {
    2f64.powf(3.0 + 17.0 * rng.unit()).round() as u64
}

/// 256 arrival samples of a random paper shape at a random skew.
fn arrival_samples(rng: &mut Rng) -> Vec<f64> {
    let shape = Shape::SUITE[rng.below(Shape::SUITE.len())];
    let skew = 10f64.powf(-5.0 + 3.0 * rng.unit());
    generate(shape, RANKS, skew, rng.next_u64()).delays
}

fn warm_query(rng: &mut Rng, kind: usize, tuned: bool, samples: bool) -> QueryRequest {
    let sizes = TunePlan::default().sizes;
    let bytes = if tuned {
        sizes[rng.below(sizes.len())]
    } else {
        log_uniform_bytes(rng)
    };
    QueryRequest {
        machine: "simcluster".into(),
        collective: CollectiveKind::PAPER[kind % CollectiveKind::PAPER.len()],
        bytes,
        ranks: RANKS,
        arrivals: samples.then(|| arrival_samples(rng)),
    }
}

/// The warm stream: 60% repeats of a hot set (L1 after first sight), the
/// rest fresh log-uniform sizes (mostly L2-near, every tenth a tuned size,
/// hence L2-exact). Three in ten hot queries and one in four fresh ones
/// carry 256 arrival samples. The proportions are fixed and only the
/// draws depend on the seed, so the mix costs the same for every seed.
pub fn warm_queries(seed: u64, n: usize) -> Vec<QueryRequest> {
    let mut rng = Rng::new(seed, 1);
    let hot: Vec<QueryRequest> = (0..HOT)
        .map(|i| warm_query(&mut rng, i, i % 4 == 0, i % 10 < 3))
        .collect();
    let mut fresh = 0;
    (0..n)
        .map(|i| {
            if i % 5 < 3 {
                hot[rng.below(HOT)].clone()
            } else {
                fresh += 1;
                warm_query(&mut rng, fresh, fresh % 10 == 0, fresh % 4 == 0)
            }
        })
        .collect()
}

/// Machines of the cold cells.
const COLD_MACHINES: [&str; 4] = ["simcluster", "hydra", "galileo100", "discoverer"];
/// Rank range of the cold cells, away from the daemon's 256-rank grid.
const COLD_RANKS: std::ops::RangeInclusive<usize> = 16..=160;

/// Never-seen cells: distinct (machine, collective, ranks) triples away
/// from the daemon's pre-tuned 256-rank grid, so each one is computed
/// inline and published to L2. Stratified — machines and collectives in
/// turn, ranks spread evenly from a seeded offset — so the list costs
/// about the same for every seed.
pub fn cold_queries(seed: u64, n: usize) -> Vec<QueryRequest> {
    let mut rng = Rng::new(seed, 2);
    let span = COLD_RANKS.end() - COLD_RANKS.start() + 1;
    let offset = rng.below(span);
    let pairs = COLD_MACHINES.len() * CollectiveKind::PAPER.len();
    (0..n.min(pairs * span))
        .map(|i| {
            // 53 is coprime with the 145 ranks, so a pair never repeats one.
            let ranks = COLD_RANKS.start() + (offset + (i / pairs) * 53) % span;
            QueryRequest {
                machine: COLD_MACHINES[i % COLD_MACHINES.len()].into(),
                collective: CollectiveKind::PAPER
                    [(i / COLD_MACHINES.len()) % CollectiveKind::PAPER.len()],
                bytes: log_uniform_bytes(&mut rng),
                ranks,
                arrivals: None,
            }
        })
        .collect()
}

/// Pre-encoded query frames, id = index.
pub fn encode_queries(queries: &[QueryRequest]) -> Vec<String> {
    queries
        .iter()
        .enumerate()
        .map(|(i, q)| {
            encode_frame(&RequestEnvelope {
                v: PROTO_VERSION,
                id: i as u64,
                req: Request::Query(q.clone()),
            })
        })
        .collect()
}

/// How strictly a served tier must match the reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TierRule {
    /// Same tier: the request order is the reference's order.
    Exact,
    /// An L1 hit on one side may be an L2 hit on the other: another
    /// connection's inserts can evict L1 entries at moments the reference
    /// cannot replay. Everything else must match.
    ModuloL1,
}

/// What differs between a served answer and the reference, if anything.
pub fn answer_mismatch(got: &QueryAnswer, want: &QueryAnswer, rule: TierRule) -> Option<String> {
    let tier_ok = match rule {
        TierRule::Exact => got.tier == want.tier,
        TierRule::ModuloL1 => {
            got.tier == want.tier
                || ((got.tier == Tier::L1 || want.tier == Tier::L1)
                    && got.tier != Tier::Computed
                    && want.tier != Tier::Computed)
        }
    };
    if got.alg != want.alg {
        return Some(format!("alg A{} vs reference A{}", got.alg, want.alg));
    }
    if !tier_ok {
        return Some(format!("tier {:?} vs reference {:?}", got.tier, want.tier));
    }
    if (got.exact, got.evidence_bytes, &got.pattern, &got.policy)
        != (want.exact, want.evidence_bytes, &want.pattern, &want.policy)
    {
        return Some(format!(
            "evidence {} B/{}/{} vs reference {} B/{}/{}",
            got.evidence_bytes,
            got.pattern,
            got.policy,
            want.evidence_bytes,
            want.pattern,
            want.policy
        ));
    }
    None
}

/// Check replies against reference answers: the number of failed
/// queries and the first problem.
pub fn check_replies(
    replies: &[Option<String>],
    ids: &[u64],
    reference: &[QueryAnswer],
    rule: TierRule,
) -> (u64, Option<String>) {
    let mut failed = 0;
    let mut first = None;
    for (i, want) in reference.iter().enumerate() {
        let problem = match replies.get(i).and_then(|r| r.as_deref()) {
            None => Some("no reply".to_string()),
            Some(line) => match decode_reply(line) {
                Err(e) => Some(e),
                Ok(env) if env.id != ids[i] => {
                    Some(format!("reply id {} for request {}", env.id, ids[i]))
                }
                Ok(ReplyEnvelope {
                    reply: Reply::Answer(got),
                    ..
                }) => answer_mismatch(&got, want, rule),
                Ok(env) => Some(format!("unexpected reply {:?}", env.reply)),
            },
        };
        if let Some(p) = problem {
            failed += 1;
            first.get_or_insert(format!("query {i}: {p}"));
        }
    }
    (failed, first)
}

/// A `papd` process started through its command line.
pub struct Daemon {
    child: Child,
    /// Where it listens.
    pub addr: SocketAddr,
    /// Spawn to "listening" line.
    pub startup: Duration,
}

impl Daemon {
    /// Start `papd` on an ephemeral loopback port.
    pub fn start(papd: &Path) -> Result<Daemon, String> {
        let t = Instant::now();
        let mut child = Command::new(papd)
            .args(["--addr", "127.0.0.1:0"])
            .args(PAPD_ARGS)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", papd.display()))?;
        let mut line = String::new();
        let read = child
            .stdout
            .take()
            .map(|s| BufReader::new(s).read_line(&mut line));
        let startup = t.elapsed();
        let addr = line
            .trim()
            .strip_prefix("papd listening on ")
            .and_then(|a| a.parse().ok());
        match (read, addr) {
            (Some(Ok(_)), Some(addr)) => Ok(Daemon {
                child,
                addr,
                startup,
            }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!(
                    "papd did not report a listening address (got {line:?})"
                ))
            }
        }
    }

    /// Peak resident set size of the daemon so far.
    pub fn peak_rss_mib(&self) -> Option<f64> {
        host::peak_rss_mib(Some(self.child.id()))
    }

    /// Fetch the Stats frame.
    pub fn stats(&self) -> Result<pap_service::StatsReport, String> {
        match Conn::connect(self.addr)?.call(Request::Stats)? {
            Reply::Stats(s) => Ok(s),
            other => Err(format!("unexpected reply to Stats: {other:?}")),
        }
    }

    /// Ask for a graceful shutdown and wait for the process to exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        let bye = Conn::connect(self.addr).and_then(|mut c| c.call(Request::Shutdown));
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => break,
                Ok(Some(status)) => return Err(format!("papd exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => return Err("papd did not exit after Shutdown".into()),
            }
        }
        match bye {
            Ok(Reply::Bye) => Ok(()),
            Ok(other) => Err(format!("unexpected reply to Shutdown: {other:?}")),
            Err(e) => Err(e),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Reached with the process still running only on an error path.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// A blocking client connection.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn connect(addr: SocketAddr) -> Result<Conn, String> {
        let s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        s.set_nodelay(true).map_err(|e| e.to_string())?;
        let reader = BufReader::new(s.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn { writer: s, reader })
    }

    fn read_line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("connection closed".into()),
            Ok(_) => Ok(line),
            Err(e) => Err(e.to_string()),
        }
    }

    fn call(&mut self, req: Request) -> Result<Reply, String> {
        let frame = encode_frame(&RequestEnvelope {
            v: PROTO_VERSION,
            id: u64::MAX,
            req,
        });
        self.writer
            .write_all(frame.as_bytes())
            .map_err(|e| e.to_string())?;
        Ok(decode_reply(&self.read_line()?)?.reply)
    }
}

/// Write all of `bytes` to a non-blocking socket.
fn write_all_nb(mut s: &TcpStream, mut bytes: &[u8]) -> Result<(), String> {
    while !bytes.is_empty() {
        match s.write(bytes) {
            Ok(0) => return Err("connection closed".into()),
            Ok(n) => bytes = &bytes[n..],
            Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::yield_now(),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e.to_string()),
        }
    }
    Ok(())
}

/// Read what a non-blocking socket has and split off complete lines.
fn read_lines(mut s: &TcpStream, buf: &mut Vec<u8>) -> Result<Vec<String>, String> {
    let mut chunk = [0u8; 64 * 1024];
    loop {
        match s.read(&mut chunk) {
            Ok(0) => return Err("connection closed".into()),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e.to_string()),
        }
    }
    let mut lines = Vec::new();
    while let Some(end) = buf.iter().position(|&b| b == b'\n') {
        let line: Vec<u8> = buf.drain(..=end).collect();
        lines.push(String::from_utf8_lossy(&line).into_owned());
    }
    Ok(lines)
}

/// Result of one open-loop phase.
struct OpenLoop {
    samples: Vec<OpenLoopSample>,
    replies: Vec<Option<String>>,
    cold_replies: Vec<Option<String>>,
    /// When the flood connection started and when each cold reply came.
    cold_start: Instant,
    cold_done: Vec<Instant>,
}

/// Drive `frames` open-loop at `rate` on one connection while a second
/// connection (if `cold` is non-empty) works closed-loop through `cold`.
///
/// Two threads. This one writes each warm frame when due and, while a
/// reply is outstanding, busy-polls the socket and timestamps replies as
/// they land, so neither a timer's overshoot nor a thread wake-up is added
/// to the latency; with nothing in flight it sleeps until just before the
/// next send. The other (flood only) sends the next cold cell as soon as
/// the previous answer arrives, blocking in between.
fn open_loop(
    addr: SocketAddr,
    frames: &[&str],
    rate: f64,
    cold: &[String],
) -> Result<OpenLoop, String> {
    let warm = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    warm.set_nodelay(true).map_err(|e| e.to_string())?;
    warm.set_nonblocking(true).map_err(|e| e.to_string())?;
    let start = Instant::now() + Duration::from_millis(5);
    let dues: Vec<Instant> = (0..frames.len())
        .map(|i| start + Duration::from_secs_f64(i as f64 / rate))
        .collect();
    let deadline =
        start + Duration::from_secs_f64(frames.len() as f64 / rate) + Duration::from_secs(60);

    let (sent, replied, flood) = std::thread::scope(|scope| {
        let flood = (!cold.is_empty()).then(|| {
            scope.spawn(|| -> Result<(Instant, Vec<(Instant, String)>), String> {
                let mut conn = Conn::connect(addr)?;
                let begun = Instant::now();
                let mut done = Vec::with_capacity(cold.len());
                for frame in cold {
                    conn.writer
                        .write_all(frame.as_bytes())
                        .map_err(|e| e.to_string())?;
                    let line = conn.read_line()?;
                    done.push((Instant::now(), line));
                }
                Ok((begun, done))
            })
        });
        let mut sent = Vec::with_capacity(frames.len());
        let mut replied: Vec<(Instant, String)> = Vec::with_capacity(frames.len());
        let mut buf = Vec::new();
        let mut failure = None;
        while replied.len() < frames.len() && failure.is_none() {
            let now = Instant::now();
            if now > deadline {
                failure = Some("open-loop phase timed out".to_string());
            } else if sent.len() < frames.len() && now >= dues[sent.len()] {
                sent.push(now);
                if let Err(e) = write_all_nb(&warm, frames[sent.len() - 1].as_bytes()) {
                    failure = Some(e);
                }
            } else if replied.len() == sent.len()
                && sent.len() < frames.len()
                && dues[sent.len()] > now + IDLE_SLEEP_MIN
            {
                // Nothing in flight: sleep until just before the next send,
                // leaving the core to the daemon.
                std::thread::sleep(dues[sent.len()] - now - SEND_SPIN);
            } else {
                match read_lines(&warm, &mut buf) {
                    Ok(lines) => replied.extend(lines.into_iter().map(|l| (now, l))),
                    Err(e) => failure = Some(e),
                }
            }
        }
        let flood = flood.map(|h| {
            h.join()
                .unwrap_or_else(|_| Err("flood thread panicked".into()))
        });
        (sent, failure.map_or(Ok(replied), Err), flood)
    });
    let replied = replied?;
    let (cold_start, cold_lines) = flood.transpose()?.unwrap_or((start, Vec::new()));
    let samples = dues
        .iter()
        .enumerate()
        .map(|(i, &due)| OpenLoopSample {
            due,
            sent: sent.get(i).copied().unwrap_or(due),
            replied: replied.get(i).map(|r| r.0),
        })
        .collect();
    let pad = |mut v: Vec<Option<String>>, n: usize| {
        v.resize(n, None);
        v
    };
    Ok(OpenLoop {
        samples,
        replies: pad(
            replied.into_iter().map(|r| Some(r.1)).collect(),
            frames.len(),
        ),
        cold_replies: pad(
            cold_lines.iter().map(|(_, l)| Some(l.clone())).collect(),
            cold.len(),
        ),
        cold_start,
        cold_done: cold_lines.into_iter().map(|(t, _)| t).collect(),
    })
}

/// Pipelined batches on one connection: the replies and the rate (1/s) of
/// the median of [`RATE_CHUNKS`] chunks. The socket is busy-polled, as in
/// the open loop, so no client wake-up sits between a batch's replies.
fn saturate(
    addr: SocketAddr,
    frames: &[&str],
) -> Result<(Vec<Option<String>>, Option<f64>), String> {
    let conn = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    conn.set_nodelay(true).map_err(|e| e.to_string())?;
    conn.set_nonblocking(true).map_err(|e| e.to_string())?;
    let mut replies = Vec::with_capacity(frames.len());
    let mut done = Vec::with_capacity(frames.len());
    let mut buf = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(120);
    let start = Instant::now();
    for batch in frames.chunks(BATCH) {
        write_all_nb(&conn, batch.concat().as_bytes())?;
        let want = replies.len() + batch.len();
        while replies.len() < want {
            if Instant::now() > deadline {
                return Err("saturating phase timed out".into());
            }
            for line in read_lines(&conn, &mut buf)? {
                replies.push(Some(line));
                done.push(Instant::now());
            }
        }
    }
    let rate = median(&chunk_rates(start, &done, replies.len() / RATE_CHUNKS));
    Ok((replies, rate))
}

/// Answers of an in-process store with the daemon's configuration,
/// resolving the queries in the given order.
fn reference_answers(
    store: &TierStore,
    queries: &[&QueryRequest],
) -> Result<Vec<QueryAnswer>, String> {
    queries
        .iter()
        .map(|q| store.resolve(q).map(|(a, _)| a))
        .collect()
}

/// Phase sizes for a run of `seconds`.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Warm queries in the idle phase.
    pub idle: usize,
    /// Warm queries in the flood phase.
    pub flood: usize,
    /// Cold cells in the flood phase.
    pub cold: usize,
    /// Queries in the saturating phase.
    pub saturating: usize,
}

impl Sizes {
    /// Fixed by `seconds` alone.
    pub fn for_seconds(seconds: f64) -> Sizes {
        Sizes {
            idle: (seconds * 0.35 * WARM_RATE).round() as usize,
            flood: (seconds * 0.15 * WARM_RATE).round() as usize,
            // Half again as long as the flood's warm stream, so the whole
            // stream meets the cold cells however fast the host runs.
            cold: ((seconds * 0.15 * 1.5 * NOMINAL_COLD_QPS).round() as usize).max(1),
            saturating: (seconds * 0.15 * NOMINAL_SAT_QPS).round() as usize,
        }
    }
}

/// Everything one loopback pass measured.
pub struct Loopback {
    /// Idle-phase open-loop summary.
    pub idle: OpenLoopSummary,
    /// Flood-phase warm-stream summary (absent in an idle-only pass).
    pub flood: Option<OpenLoopSummary>,
    /// Cold cells per second (flood connection, whole list).
    pub cold_qps: Option<f64>,
    /// Pipelined warm queries per second (median chunk).
    pub warm_qps: Option<f64>,
    /// The Stats frame taken right after the idle phase.
    pub idle_stats: pap_service::StatsReport,
    /// Daemon peak RSS.
    pub peak_rss_mib: f64,
}

/// One loopback pass against a started daemon: idle phase, Stats frame,
/// then (unless `idle_only`) flood and saturating phases. Every answer is
/// checked against an in-process store with the same configuration.
pub fn loopback(
    daemon: &Daemon,
    seed: u64,
    sizes: Sizes,
    idle_only: bool,
    out: &mut Outcome,
) -> Result<Loopback, String> {
    let warm = warm_queries(seed, sizes.idle + sizes.flood);
    let warm_frames = encode_queries(&warm);
    let cold = if idle_only {
        Vec::new()
    } else {
        cold_queries(seed, sizes.cold)
    };
    let cold_frames = encode_queries(&cold);
    let (_, store) = build_store(&serve_config())?;
    let ids = |range: std::ops::Range<usize>| -> Vec<u64> { range.map(|i| i as u64).collect() };
    let mut verify = |name: &str,
                      replies: &[Option<String>],
                      ids: &[u64],
                      queries: &[&QueryRequest],
                      rule|
     -> Result<(), String> {
        let want = reference_answers(&store, queries)?;
        let (failed, first) = check_replies(replies, ids, &want, rule);
        out.attempt(replies.len() as u64, failed);
        out.check(
            format!("serve_answers_match_reference.{name}"),
            failed == 0,
            first
                .unwrap_or_else(|| format!("{} answers match (tier rule {rule:?})", replies.len())),
        );
        Ok(())
    };

    let idle_frames: Vec<&str> = warm_frames[..sizes.idle]
        .iter()
        .map(String::as_str)
        .collect();
    let idle = open_loop(daemon.addr, &idle_frames, WARM_RATE, &[])?;
    let idle_stats = daemon.stats()?;
    let idle_q: Vec<&QueryRequest> = warm[..sizes.idle].iter().collect();
    verify(
        "idle",
        &idle.replies,
        &ids(0..sizes.idle),
        &idle_q,
        TierRule::Exact,
    )?;
    let idle_summary = summarize_open_loop(&idle.samples).ok_or("idle phase got no replies")?;

    let mut result = Loopback {
        idle: idle_summary,
        flood: None,
        cold_qps: None,
        warm_qps: None,
        idle_stats,
        peak_rss_mib: f64::NAN,
    };
    if !idle_only {
        let flood_frames: Vec<&str> = warm_frames[sizes.idle..]
            .iter()
            .map(String::as_str)
            .collect();
        let flood = open_loop(daemon.addr, &flood_frames, WARM_RATE, &cold_frames)?;
        let flood_q: Vec<&QueryRequest> = warm[sizes.idle..].iter().collect();
        verify(
            "flood_warm",
            &flood.replies,
            &ids(sizes.idle..warm.len()),
            &flood_q,
            TierRule::ModuloL1,
        )?;
        let cold_q: Vec<&QueryRequest> = cold.iter().collect();
        verify(
            "flood_cold",
            &flood.cold_replies,
            &ids(0..cold.len()),
            &cold_q,
            TierRule::Exact,
        )?;
        result.flood = summarize_open_loop(&flood.samples);
        // Cold cells differ in cost, so the whole list is timed: chunks
        // would sample different cells.
        if let (true, Some(last)) = (
            flood.cold_replies.iter().all(Option::is_some),
            flood.cold_done.last(),
        ) {
            result.cold_qps =
                Some(cold.len() as f64 / last.duration_since(flood.cold_start).as_secs_f64());
        }

        let order: Vec<usize> = (0..sizes.saturating).map(|i| i % warm.len()).collect();
        let sat_frames: Vec<&str> = order.iter().map(|&i| warm_frames[i].as_str()).collect();
        let (replies, rate) = saturate(daemon.addr, &sat_frames)?;
        let sat_q: Vec<&QueryRequest> = order.iter().map(|&i| &warm[i]).collect();
        let sat_ids: Vec<u64> = order.iter().map(|&i| i as u64).collect();
        verify("saturating", &replies, &sat_ids, &sat_q, TierRule::ModuloL1)?;
        result.warm_qps = rate;
    }
    result.peak_rss_mib = daemon.peak_rss_mib().unwrap_or(f64::NAN);
    Ok(result)
}

/// The untraced workload run.
pub fn run(papd: &Path, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    match run_inner(papd, seed, seconds, &mut out) {
        Ok(()) => {}
        Err(e) => {
            out.attempt(1, 1);
            out.check("serve_run", false, e);
        }
    }
    out
}

fn run_inner(papd: &Path, seed: u64, seconds: f64, out: &mut Outcome) -> Result<(), String> {
    // Every daemon launch is timed (set-up: spawn to "listening", which
    // includes its start-up tune of the 256-rank grid on the model backend)
    // and then runs an equal share of every phase. Figures differ more
    // between launches than within one (thread placement, host state), so
    // each is the median over launches, in the spirit of repeating `mpirun`.
    let sizes = Sizes::for_seconds(seconds);
    let share = Sizes {
        idle: sizes.idle / STARTS,
        flood: sizes.flood / STARTS,
        cold: (sizes.cold / STARTS).max(1),
        saturating: sizes.saturating / STARTS,
    };
    let mut per_launch: Vec<[f64; 10]> = Vec::new();
    for _ in 0..STARTS {
        let daemon = Daemon::start(papd)?;
        let startup = daemon.startup.as_secs_f64();
        let lb = loopback(&daemon, seed, share, false, out)?;
        daemon.shutdown()?;
        let (Some(flood), Some(cold_qps), Some(warm_qps)) = (lb.flood, lb.cold_qps, lb.warm_qps)
        else {
            return Err("flood or saturating phase incomplete".into());
        };
        per_launch.push([
            startup,
            lb.peak_rss_mib,
            warm_qps,
            cold_qps,
            lb.idle.p50_us,
            lb.idle.p90_us,
            lb.idle.p99_us,
            flood.p50_us,
            flood.p90_us,
            lb.idle.max_late_ms.max(flood.max_late_ms),
        ]);
    }
    let med =
        |i: usize| median(&per_launch.iter().map(|l| l[i]).collect::<Vec<_>>()).unwrap_or(f64::NAN);
    let (warm_qps, cold_qps) = (med(2), med(3));
    out.metric("setup_s", med(0), "s");
    out.metric("peak_rss_mib", med(1), "MiB");
    out.metric(
        "rate_per_s",
        geomean(&[warm_qps, cold_qps]).unwrap_or(f64::NAN),
        "1/s",
    );
    // The p50, not the p90, is the headline: within a launch the window p50s agree
    // within about 10% while host stalls push a third of the window p90s
    // up fivefold on the reference host.
    out.metric("latency_ms", med(4) / 1e3, "ms");
    out.info("warm_p50_us", med(4), "us");
    out.info("warm_p90_us", med(5), "us");
    out.info("warm_p99_us", med(6), "us");
    out.info("flood_warm_p50_us", med(7), "us");
    out.info("flood_warm_p90_us", med(8), "us");
    out.info("cold_qps", cold_qps, "1/s");
    out.info("warm_qps", warm_qps, "1/s");
    out.info(
        "gen_late_ms",
        per_launch.iter().map(|l| l[9]).fold(0.0, f64::max),
        "ms",
    );
    Ok(())
}

/// Per-layer probe, traced: the daemon's layers called in-process over the
/// same inputs (`decode_request`, `classify_delays`, `TierStore::resolve`,
/// `encode_frame`, the model sweep of a cold cell, `select`), then an
/// idle-phase loopback pass for the Stats-frame tier counts.
pub fn probe(papd: &Path, seed: u64, seconds: f64, out: &mut Outcome) -> Result<Probe, String> {
    let cfg = serve_config();
    let platform = Platform::preset(MachineId::SimCluster, RANKS);
    let model = BenchConfig::simulation().with_backend(Backend::Model);
    let (_, records) = trace::span("model.startup_tune", || {
        tune_machine(&platform, &TunePlan::default(), &model)
    })?;
    let mut policies = vec![SelectionPolicy::robust(), SelectionPolicy::NoDelayFastest];
    policies.extend(
        Shape::SUITE
            .iter()
            .map(|s| SelectionPolicy::BestUnderPattern(s.name().to_string())),
    );
    for rec in &records {
        for policy in &policies {
            trace::span("core.select", || select(&rec.matrix, policy))?;
        }
    }

    let sizes = Sizes::for_seconds(seconds);
    let warm = warm_queries(seed, sizes.idle);
    let frames = encode_queries(&warm);
    let cold = cold_queries(seed, (sizes.cold / 4).max(8));

    // The same loop untraced, on a fresh store, for the tracing overhead;
    // a first untimed pass warms caches and the allocator, which the traced
    // pass would otherwise get for free.
    pap_obs::set_enabled(false);
    serve_frames(&build_store(&cfg)?.1, &frames)?;
    let (_, plain_store) = build_store(&cfg)?;
    let t = Instant::now();
    serve_frames(&plain_store, &frames)?;
    let untraced = t.elapsed();
    pap_obs::set_enabled(true);

    let (_, store) = trace::span("service.build_store", || build_store(&cfg))?;
    let t = Instant::now();
    let mut tiers = serve_frames(&store, &frames)?;
    let traced = t.elapsed();
    for q in &cold {
        let algs = experiment_ids(q.collective);
        let machine: MachineId = q.machine.parse()?;
        let cell = Platform::try_preset(machine, q.ranks)?;
        trace::span("model.cold_cell", || {
            sweep(
                &cell,
                q.collective,
                &algs,
                &Shape::SUITE,
                q.bytes,
                SkewPolicy::FactorOfAvg(1.0),
                &[],
                &model,
            )
        })
        .map_err(|e| e.to_string())?;
        let (answer, _) = trace::span("service.resolve", || store.resolve(q))?;
        tiers.push((answer.tier, false));
    }
    out.metric("service.l2_cells", store.l2_len() as f64, "count");
    out.attempt((frames.len() + cold.len()) as u64, 0);

    // Loopback: the Stats frame after an idle phase.
    pap_obs::set_enabled(false);
    let daemon = Daemon::start(papd)?;
    let idle = Sizes {
        idle: (sizes.idle / 2).max(100),
        ..sizes
    };
    let lb = loopback(&daemon, seed, idle, true, out);
    let stopped = daemon.shutdown();
    pap_obs::set_enabled(true);
    let lb = lb?;
    stopped?;
    let t = &lb.idle_stats.tiers;
    // The idle phase asks only for the pre-tuned grid, so it never misses.
    let total = (t.l1_hits + t.l2_exact + t.l2_near + t.miss) as f64;
    out.metric("service.tier.l1", t.l1_hits as f64, "count");
    out.metric("service.tier.l2", t.l2_exact as f64, "count");
    out.metric("service.tier.l2_near", t.l2_near as f64, "count");
    out.metric("service.l1_hit_ratio", t.l1_hits as f64 / total, "ratio");
    out.metric("service.warm_p99_us", lb.idle.p99_us, "us");
    out.metric("service.gen_late_ms", lb.idle.max_late_ms, "ms");
    Ok(Probe {
        tiers,
        traced_over_untraced: traced.as_secs_f64() / untraced.as_secs_f64(),
    })
}

/// What the serve probe hands back besides its metrics.
pub struct Probe {
    /// Tier of every `service.resolve` span, in recording order, and
    /// whether that query carried arrival samples.
    pub tiers: Vec<(Tier, bool)>,
    /// Wall time of the traced pass over the warm list relative to the
    /// same pass untraced.
    pub traced_over_untraced: f64,
}

/// Decode, classify, resolve and encode every frame in-process, each call
/// in its own span; returns the tier of each resolution and whether the
/// query carried arrival samples.
fn serve_frames(store: &TierStore, frames: &[String]) -> Result<Vec<(Tier, bool)>, String> {
    let mut tiers = Vec::with_capacity(frames.len());
    for frame in frames {
        let samples = frame.contains("\"arrivals\":[");
        let decode = if samples {
            "service.decode.samples"
        } else {
            "service.decode.plain"
        };
        let env =
            trace::span(decode, || decode_request(frame.trim_end())).map_err(|e| e.message)?;
        let Request::Query(q) = env.req else {
            return Err("probe frame is not a query".into());
        };
        if let Some(s) = &q.arrivals {
            trace::span("arrival.classify", || classify_delays(s));
        }
        let (answer, _) = trace::span("service.resolve", || store.resolve(&q))?;
        tiers.push((answer.tier, q.arrivals.is_some()));
        let reply = ReplyEnvelope {
            v: PROTO_VERSION,
            id: env.id,
            reply: Reply::Answer(answer),
        };
        let line = trace::span("service.encode", || encode_frame(&reply));
        std::hint::black_box(line);
    }
    Ok(tiers)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn answer(alg: u8, tier: Tier) -> QueryAnswer {
        QueryAnswer {
            machine: "SimCluster".into(),
            collective: CollectiveKind::Reduce,
            ranks: RANKS,
            bytes: 1024,
            alg,
            policy: "robust".into(),
            pattern: "no_delay".into(),
            similarity: 1.0,
            tier,
            exact: true,
            evidence_bytes: 1024,
            backend: "model".into(),
            generation: 0,
            refine_scheduled: false,
        }
    }

    fn reply(id: u64, a: QueryAnswer) -> Option<String> {
        Some(encode_frame(&ReplyEnvelope {
            v: PROTO_VERSION,
            id,
            reply: Reply::Answer(a),
        }))
    }

    #[test]
    fn tiers_must_match_exactly_unless_l1_may_stand_in() {
        let l1 = answer(3, Tier::L1);
        let l2 = answer(3, Tier::L2);
        assert_eq!(answer_mismatch(&l2, &l2, TierRule::Exact), None);
        assert!(answer_mismatch(&l1, &l2, TierRule::Exact).is_some());
        assert_eq!(answer_mismatch(&l1, &l2, TierRule::ModuloL1), None);
        assert_eq!(answer_mismatch(&l2, &l1, TierRule::ModuloL1), None);
        // A cold cell is never an L1 hit.
        assert!(answer_mismatch(&l1, &answer(3, Tier::Computed), TierRule::ModuloL1).is_some());
        // The algorithm and the evidence always have to agree.
        assert!(
            answer_mismatch(&answer(5, Tier::L1), &l2, TierRule::ModuloL1)
                .unwrap()
                .contains("alg")
        );
        let near = QueryAnswer {
            evidence_bytes: 8,
            ..l2.clone()
        };
        assert!(answer_mismatch(&near, &l2, TierRule::Exact)
            .unwrap()
            .contains("evidence"));
    }

    #[test]
    fn check_replies_counts_missing_wrong_and_misrouted_replies() {
        let want = vec![
            answer(3, Tier::L2),
            answer(3, Tier::L1),
            answer(4, Tier::L2Near),
            answer(4, Tier::L2),
        ];
        let replies = vec![
            reply(0, answer(3, Tier::L2)),
            reply(7, answer(3, Tier::L1)),
            reply(2, answer(5, Tier::L2Near)),
            None,
        ];
        let (failed, first) = check_replies(&replies, &[0, 1, 2, 3], &want, TierRule::Exact);
        assert_eq!(failed, 3);
        assert!(first.unwrap().starts_with("query 1: reply id 7"));
        let good: Vec<Option<String>> = want
            .iter()
            .enumerate()
            .map(|(i, a)| reply(i as u64, a.clone()))
            .collect();
        assert_eq!(
            check_replies(&good, &[0, 1, 2, 3], &want, TierRule::Exact),
            (0, None)
        );
    }

    #[test]
    fn inputs_depend_on_the_seed_alone_and_keep_their_mix() {
        assert_eq!(warm_queries(9, 500), warm_queries(9, 500));
        assert_ne!(warm_queries(9, 500), warm_queries(10, 500));
        assert_eq!(cold_queries(9, 200), cold_queries(9, 200));
        for seed in [1, 2, 3] {
            let warm = warm_queries(seed, 1000);
            let samples = warm.iter().filter(|q| q.arrivals.is_some()).count();
            // 60% hot at 30% samples (by key), 40% fresh at 25%: about 28%.
            assert!(
                (200..=360).contains(&samples),
                "seed {seed}: {samples} sample-carrying queries"
            );
            assert!(warm
                .iter()
                .all(|q| q.ranks == RANKS && q.arrivals.as_ref().is_none_or(|a| a.len() == RANKS)));
            let cold = cold_queries(seed, 300);
            let mut cells: Vec<_> = cold
                .iter()
                .map(|q| (q.machine.clone(), q.collective, q.ranks))
                .collect();
            cells.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
            cells.dedup();
            assert_eq!(cells.len(), 300, "cold cells must be distinct");
            assert!(cold.iter().all(|q| COLD_RANKS.contains(&q.ranks)));
        }
    }

    #[test]
    fn phase_sizes_are_fixed_by_seconds() {
        let s = Sizes::for_seconds(12.0);
        assert_eq!(
            (s.idle, s.flood, s.cold, s.saturating),
            (4200, 1800, 675, 36000)
        );
    }
}
