//! `papd`: the selection daemon.
//!
//! One thread, one epoll instance, any number of connections: a
//! nonblocking listener and per-connection read/write buffers multiplexed
//! over [`pap_sysio::Epoll`] (level-triggered). An idle connection costs
//! one slab slot and one kernel registration — no thread, stack or timer —
//! and the server raises `RLIMIT_NOFILE` (best effort) so thousands of
//! clients do not die on the default 1024 soft limit.
//!
//! Frames that resolve from cache, and the control frames, are answered on
//! the loop. Slow frames — a cold cell's sweep or a `Calibrate` fit — run
//! on a bounded compute [`Pool`]; a worker pushes the encoded reply onto a
//! completion list and wakes the loop through a `UnixStream` pair
//! registered with epoll. A connection has at most one slow frame in
//! flight: its later frames wait buffered, and its socket leaves the epoll
//! set, until that reply is queued. Replies keep request order, and other
//! connections are served meanwhile.
//!
//! Pool workers run with `pap-parallel`'s worker marker set, so nested
//! `par_map` fan-out inside a cold sweep stays sequential — total
//! parallelism is bounded by the compute and refine pool sizes no matter
//! how many clients pile on.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use pap_core::{tune_machine, TunePlan};
use pap_microbench::{Backend, BenchConfig};
use pap_parallel::Pool;
use pap_sim::{MachineId, Platform};
use pap_sysio::{Epoll, Event, Interest};

use crate::dispatch::{Dispatcher, Step};
use crate::proto::{encode_frame, error_reply, ErrorCode, Reply, ReplyEnvelope, MAX_FRAME_BYTES};
use crate::snapshot::Snapshot;
use crate::stats::Stats;
use crate::store::{DefaultPolicy, TierStore};

/// How to start the daemon.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address; `"127.0.0.1:0"` picks an ephemeral loopback port.
    pub addr: String,
    /// Warm-restart snapshot to load into L2. When set, no startup tuning
    /// sweep runs.
    pub snapshot: Option<PathBuf>,
    /// Machine preset to pre-tune at startup (ignored with a snapshot).
    pub machine: String,
    /// Rank count to pre-tune at startup.
    pub ranks: usize,
    /// Backend for startup tuning and cold-cell computation.
    pub backend: Backend,
    /// Compute pool workers for cold cells and calibrations (`0` = auto:
    /// the available parallelism).
    pub threads: usize,
    /// Background refinement workers (`0` disables L3 refinement).
    pub refine_threads: usize,
    /// L1 answer-cache capacity (`0` disables L1).
    pub l1_capacity: usize,
    /// Policy for queries without arrival samples.
    pub default_policy: DefaultPolicy,
    /// Whether to run the startup tuning sweep when no snapshot is given.
    pub tune_at_startup: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            snapshot: None,
            machine: "simcluster".to_string(),
            ranks: 16,
            backend: Backend::Model,
            threads: 0,
            refine_threads: 1,
            l1_capacity: 1024,
            default_policy: DefaultPolicy::Robust,
            tune_at_startup: true,
        }
    }
}

/// Poll interval of the event loop's `epoll_wait` and of the shutdown
/// watchers: the latency bound on noticing an out-of-band shutdown.
const POLL: Duration = Duration::from_millis(100);

/// Read chunk size.
const CHUNK: usize = 16 * 1024;

/// Bytes read from one connection per readiness event, so one pipelining
/// client cannot hold the loop (level-triggered epoll reports the rest).
const READ_BUDGET: usize = 4 * CHUNK;

/// `RLIMIT_NOFILE` the server asks for at start (best effort). Also the
/// compute pool's queue bound: a connection has at most one slow frame
/// queued, so the pool refuses work only past this many connections.
const WANT_NOFILE: u64 = 32 * 1024;

/// Epoll tokens: the listener, the completion wake-up, then connection
/// slot `s` as `s + FIRST_CONN_TOKEN`.
const LISTENER_TOKEN: u64 = 0;
const WAKE_TOKEN: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;

/// Build and seed the stats + store pair a daemon serves from, per the
/// config's snapshot/tuning directives. [`Server::start`] uses it; the
/// fleet spawner calls it directly to warm-replicate a store before
/// [`Server::serve`] exposes it.
pub fn build_store(cfg: &ServeConfig) -> Result<(Arc<Stats>, Arc<TierStore>), String> {
    let stats = Arc::new(Stats::new());
    let store = Arc::new(TierStore::new(
        Arc::clone(&stats),
        cfg.l1_capacity,
        cfg.default_policy,
        cfg.backend,
        cfg.refine_threads > 0,
    ));
    if let Some(path) = &cfg.snapshot {
        let snap = Snapshot::load(path)?;
        store.ingest_snapshot(&snap);
        stats.snapshot_loaded.store(true, Ordering::Relaxed);
    } else if cfg.tune_at_startup {
        let machine_id: MachineId = cfg.machine.parse()?;
        let platform = Platform::preset(machine_id, cfg.ranks);
        let bench = BenchConfig::simulation().with_backend(cfg.backend);
        let (_, records) = tune_machine(&platform, &TunePlan::default(), &bench)?;
        store.ingest_records(machine_id.name(), &records, &cfg.backend.to_string());
        stats.tuned_at_startup.store(true, Ordering::Relaxed);
    }
    Ok((stats, store))
}

/// A cloneable out-of-band shutdown trigger for a running [`Server`]
/// (signal watchers, fleet supervisors). Requesting shutdown is exactly
/// equivalent to an in-band `Shutdown` frame: the event loop notices
/// within one poll interval and drains.
#[derive(Clone)]
pub struct ShutdownHandle {
    shutdown: Arc<AtomicBool>,
}

impl ShutdownHandle {
    /// Request a graceful drain.
    pub fn request(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Whether shutdown has already been requested.
    pub fn is_requested(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }
}

/// Wire SIGTERM/SIGINT to a server's graceful drain: installs the
/// process-wide flag handler ([`pap_sysio::install_shutdown_flag`]) and
/// spawns a watcher thread that requests shutdown once a signal lands. The
/// watcher exits as soon as the server starts shutting down for any
/// reason, so it never outlives the drain.
pub fn install_signal_shutdown(server: &Server) -> Result<(), String> {
    pap_sysio::install_shutdown_flag().map_err(|e| format!("install signal handler: {e}"))?;
    let handle = server.shutdown_handle();
    std::thread::spawn(move || loop {
        if pap_sysio::shutdown_requested() {
            handle.request();
            return;
        }
        if handle.is_requested() {
            return;
        }
        std::thread::sleep(POLL);
    });
    Ok(())
}

/// A running daemon.
pub struct Server {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    thread: std::thread::JoinHandle<()>,
    refine_pool: Option<Arc<Pool>>,
    stats: Arc<Stats>,
    store: Arc<TierStore>,
}

impl Server {
    /// Bind, seed the L2 store (snapshot or startup tuning), and start
    /// serving.
    pub fn start(cfg: ServeConfig) -> Result<Server, String> {
        let (stats, store) = build_store(&cfg)?;
        Server::serve(&cfg, stats, store)
    }

    /// Start serving an externally seeded store — the warm replication
    /// path: the fleet spawner builds the store, drains a peer's L2 into
    /// it, and only then exposes the shard.
    pub fn serve(
        cfg: &ServeConfig,
        stats: Arc<Stats>,
        store: Arc<TierStore>,
    ) -> Result<Server, String> {
        // Best effort: the server holds one fd per client.
        let _ = pap_sysio::raise_nofile_limit(WANT_NOFILE);

        let listener =
            TcpListener::bind(&cfg.addr).map_err(|e| format!("bind {}: {e}", cfg.addr))?;
        listener.set_nonblocking(true).map_err(|e| format!("nonblocking listener: {e}"))?;
        let addr = listener.local_addr().map_err(|e| format!("local_addr: {e}"))?;
        let (wake, wake_rx) = UnixStream::pair().map_err(|e| format!("wake-up pair: {e}"))?;
        for end in [&wake, &wake_rx] {
            end.set_nonblocking(true).map_err(|e| format!("nonblocking wake-up: {e}"))?;
        }
        let epoll = Epoll::new().map_err(|e| format!("epoll: {e}"))?;
        epoll
            .add(listener.as_raw_fd(), LISTENER_TOKEN, Interest::READ)
            .and_then(|()| epoll.add(wake_rx.as_raw_fd(), WAKE_TOKEN, Interest::READ))
            .map_err(|e| format!("epoll register: {e}"))?;

        let shutdown = Arc::new(AtomicBool::new(false));
        let refine_pool = (cfg.refine_threads > 0)
            .then(|| Arc::new(Pool::new(cfg.refine_threads, 4 * cfg.refine_threads)));
        let threads = match cfg.threads {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            n => n,
        };
        let node = Node {
            epoll,
            listener,
            wake_rx,
            conns: Vec::new(),
            free: Vec::new(),
            stats: Arc::clone(&stats),
            serving: Serving {
                dispatcher: Arc::new(Dispatcher::new(
                    Arc::clone(&shutdown),
                    Arc::clone(&stats),
                    Arc::clone(&store),
                    refine_pool.clone(),
                )),
                compute: Pool::new(threads, WANT_NOFILE as usize),
                done: Arc::new(Completions { replies: Mutex::new(Vec::new()), wake }),
            },
        };
        let thread = std::thread::spawn(move || node.run());
        Ok(Server { addr, shutdown, thread, refine_pool, stats, store })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's stats block.
    pub fn stats(&self) -> &Arc<Stats> {
        &self.stats
    }

    /// The server's tier store.
    pub fn store(&self) -> &Arc<TierStore> {
        &self.store
    }

    /// Whether a shutdown has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// A cloneable out-of-band shutdown trigger for this server.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle { shutdown: Arc::clone(&self.shutdown) }
    }

    /// Request shutdown from outside (equivalent to a `Shutdown` frame).
    pub fn stop(&self) {
        self.shutdown_handle().request();
    }

    /// Block until shutdown is requested (by [`Server::stop`] or a client
    /// `Shutdown` frame), then wait for the event loop's drain; in-flight
    /// refinements finish while queued ones are dropped.
    pub fn join(self) {
        while !self.shutdown.load(Ordering::SeqCst) {
            std::thread::sleep(POLL);
        }
        let _ = self.thread.join();
        // The loop and its compute jobs are gone, and with them every
        // other refine-pool holder. If one somehow is not, the workers are
        // left parked and die with the process.
        if let Some(pool) = self.refine_pool {
            if let Ok(pool) = Arc::try_unwrap(pool) {
                let dropped = pool.abort();
                for _ in 0..dropped {
                    self.stats.refine_dropped();
                }
            }
        }
    }
}

/// Replies finished on the compute pool, waiting for the loop to queue
/// them, plus the write end of the loop's wake-up socket.
struct Completions {
    replies: Mutex<Vec<(usize, String)>>,
    wake: UnixStream,
}

impl Completions {
    fn push(&self, slot: usize, frame: String) {
        self.replies.lock().expect("completion list").push((slot, frame));
        // WouldBlock means a wake-up is already pending.
        let _ = (&self.wake).write(&[1]);
    }
}

/// What a connection needs to serve its frames.
struct Serving {
    dispatcher: Arc<Dispatcher>,
    /// Workers for slow frames.
    compute: Pool,
    done: Arc<Completions>,
}

/// One connection's state in the slab.
struct Conn {
    stream: TcpStream,
    /// Bytes read but not yet framed.
    rbuf: Vec<u8>,
    /// Encoded replies not yet (fully) written.
    wbuf: Vec<u8>,
    /// How much of `wbuf` is already written.
    wpos: usize,
    /// Serve no more frames; close once `wbuf` is flushed (Bye sent,
    /// oversized frame, or a dead socket).
    close_after_flush: bool,
    /// Peer sent EOF: serve what is buffered, flush, then close.
    read_closed: bool,
    /// A slow frame is on the compute pool; later frames wait in `rbuf`.
    busy: bool,
    /// The interest registered with epoll (`None` while busy: the socket
    /// is out of the set until the slow reply is queued).
    interest: Option<Interest>,
}

impl Conn {
    fn wants_write(&self) -> bool {
        self.wpos < self.wbuf.len()
    }

    /// Whether the connection has nothing left to do.
    fn finished(&self) -> bool {
        !self.busy && !self.wants_write() && (self.close_after_flush || self.read_closed)
    }

    fn queue(&mut self, reply: &ReplyEnvelope) {
        self.wbuf.extend_from_slice(encode_frame(reply).as_bytes());
        if matches!(reply.reply, Reply::Bye) {
            self.close_after_flush = true;
        }
    }

    /// Read up to `budget` bytes of what the kernel holds into `rbuf`.
    /// Returns true on a hard error.
    fn fill(&mut self, budget: usize) -> bool {
        let mut chunk = [0u8; CHUNK];
        let mut read = 0;
        while read < budget && !self.read_closed && !self.close_after_flush {
            match self.stream.read(&mut chunk) {
                Ok(0) => self.read_closed = true,
                Ok(n) => {
                    self.rbuf.extend_from_slice(&chunk[..n]);
                    read += n;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return true,
            }
        }
        false
    }

    /// Serve complete frames from `rbuf` in order until a slow frame goes
    /// to the compute pool, the connection is closing, or none is left.
    fn serve_buffered(&mut self, slot: usize, serving: &Serving) {
        let mut served = 0;
        while !self.busy && !self.close_after_flush {
            let Some(len) = self.rbuf[served..].iter().position(|&b| b == b'\n') else {
                break;
            };
            let step = serving.dispatcher.serve_frame(&self.rbuf[served..served + len]);
            served += len + 1;
            match step {
                Step::Reply(reply) => self.queue(&reply),
                Step::Slow(frame) => {
                    let id = frame.id;
                    let dispatcher = Arc::clone(&serving.dispatcher);
                    let done = Arc::clone(&serving.done);
                    let job = move || done.push(slot, encode_frame(&dispatcher.run_slow(frame)));
                    self.busy = serving.compute.submit(job);
                    if !self.busy {
                        // `submit` never blocks the loop: a full queue or a
                        // pool shutting down refuses the frame instead.
                        let msg = "compute pool full or closed";
                        self.queue(&error_reply(id, ErrorCode::Internal, msg));
                    }
                }
            }
        }
        self.rbuf.drain(..served);
        if !self.busy && !self.close_after_flush && self.rbuf.len() > MAX_FRAME_BYTES {
            // No newline within the frame budget: there is no way to find
            // the next frame boundary. Reply, then close.
            self.queue(&serving.dispatcher.oversized_frame_reply());
            self.close_after_flush = true;
        }
    }

    /// Write as much of `wbuf` as the socket accepts. Returns true when the
    /// connection is dead.
    fn flush(&mut self) -> bool {
        while self.wants_write() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => return true,
                Ok(n) => self.wpos += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return false,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return true,
            }
        }
        self.wbuf.clear();
        self.wpos = 0;
        false
    }
}

/// The event loop's state; owned by its thread.
struct Node {
    epoll: Epoll,
    listener: TcpListener,
    wake_rx: UnixStream,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    stats: Arc<Stats>,
    serving: Serving,
}

impl Node {
    /// Accept, read, frame, dispatch, write — no blocking call other than
    /// `epoll_wait` itself — until shutdown is requested; then drain.
    fn run(mut self) {
        let mut events: Vec<Event> = Vec::new();
        while !self.serving.dispatcher.shutdown_requested() {
            if let Err(e) = self.epoll.wait(&mut events, 64, Some(POLL)) {
                // Only a broken epoll fd errors here; drain rather than
                // serve nothing silently.
                eprintln!("papd event loop failed: {e}");
                break;
            }
            for ev in events.drain(..) {
                match ev.token {
                    LISTENER_TOKEN => self.accept_ready(),
                    WAKE_TOKEN => {
                        let mut sink = [0u8; 64];
                        while matches!((&self.wake_rx).read(&mut sink), Ok(n) if n > 0) {}
                        self.take_completions();
                    }
                    token => self.conn_ready((token - FIRST_CONN_TOKEN) as usize, ev),
                }
            }
        }
        self.drain();
    }

    /// Accept every pending connection (level-triggered: stop on
    /// WouldBlock).
    fn accept_ready(&mut self) {
        while let Ok((stream, _)) = self.listener.accept() {
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            let _ = stream.set_nodelay(true);
            let slot = self.free.pop().unwrap_or_else(|| {
                self.conns.push(None);
                self.conns.len() - 1
            });
            let token = slot as u64 + FIRST_CONN_TOKEN;
            if self.epoll.add(stream.as_raw_fd(), token, Interest::READ).is_err() {
                self.free.push(slot);
                continue; // fd table exhausted or similar; drop the connection
            }
            self.stats.connection();
            self.conns[slot] = Some(Conn {
                stream,
                rbuf: Vec::new(),
                wbuf: Vec::new(),
                wpos: 0,
                close_after_flush: false,
                read_closed: false,
                busy: false,
                interest: Some(Interest::READ),
            });
        }
    }

    fn conn_ready(&mut self, slot: usize, ev: Event) {
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return; // stale event for a slot torn down this batch
        };
        let mut dead = ev.closed && !ev.readable;
        if !dead && ev.readable {
            dead = conn.fill(READ_BUDGET);
            conn.serve_buffered(slot, &self.serving);
        }
        self.settle(slot, dead);
    }

    /// Queue the replies of finished slow frames, and serve the frames
    /// that waited behind them.
    fn take_completions(&mut self) {
        let done = std::mem::take(&mut *self.serving.done.replies.lock().expect("completion list"));
        for (slot, frame) in done {
            // The slot is still this job's: a busy connection is out of the
            // epoll set, so nothing tears it down before its reply lands.
            let Some(conn) = self.conns[slot].as_mut() else { continue };
            conn.wbuf.extend_from_slice(frame.as_bytes());
            conn.busy = false;
            conn.serve_buffered(slot, &self.serving);
            self.settle(slot, false);
        }
    }

    /// Flush, then tear the connection down if it is dead or done, else
    /// register the interest its pending work needs.
    fn settle(&mut self, slot: usize, dead: bool) {
        let Some(conn) = self.conns[slot].as_mut() else { return };
        if dead || conn.flush() {
            // Nothing more can be delivered; a busy connection is torn down
            // once its slow reply lands.
            conn.close_after_flush = true;
            conn.wbuf.clear();
            conn.wpos = 0;
        }
        if conn.finished() {
            if conn.interest.is_some() {
                let _ = self.epoll.delete(conn.stream.as_raw_fd());
            }
            self.conns[slot] = None; // dropping the stream closes the fd
            self.free.push(slot);
            return;
        }
        let want = (!conn.busy).then_some(if conn.wants_write() {
            Interest::READ_WRITE
        } else {
            Interest::READ
        });
        if want == conn.interest {
            return;
        }
        let fd = conn.stream.as_raw_fd();
        let token = slot as u64 + FIRST_CONN_TOKEN;
        let changed = match (conn.interest, want) {
            (_, None) => self.epoll.delete(fd),
            (None, Some(w)) => self.epoll.add(fd, token, w),
            (Some(_), Some(w)) => self.epoll.modify(fd, token, w),
        };
        if changed.is_ok() {
            conn.interest = want;
        }
    }

    /// The shutdown drain: accept what waits in the listen backlog, read
    /// once what the kernel already holds on every connection, serve those
    /// frames — waiting for slow ones on the pool — then flush with
    /// bounded blocking writes and close. Bytes arriving after the read are
    /// refused.
    fn drain(mut self) {
        self.accept_ready();
        for slot in 0..self.conns.len() {
            if let Some(conn) = self.conns[slot].as_mut() {
                let _ = conn.fill(usize::MAX);
                conn.serve_buffered(slot, &self.serving);
            }
        }
        // Each completion may release the frames buffered behind it.
        let _ = self.wake_rx.set_nonblocking(false);
        while self.conns.iter().flatten().any(|c| c.busy) {
            let mut sink = [0u8; 64];
            if (&self.wake_rx).read(&mut sink).is_err() {
                break;
            }
            self.take_completions();
        }
        for conn in self.conns.iter_mut().flatten() {
            let _ = conn.stream.set_nonblocking(false);
            let _ = conn.stream.set_write_timeout(Some(Duration::from_secs(2)));
            let _ = conn.stream.write_all(&conn.wbuf[conn.wpos..]);
        }
        self.serving.compute.join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Client, QueryRequest, Tier};

    fn cold_config() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            tune_at_startup: false,
            refine_threads: 0,
            ..ServeConfig::default()
        }
    }

    fn query(bytes: u64) -> QueryRequest {
        QueryRequest {
            machine: "simcluster".into(),
            collective: pap_collectives::CollectiveKind::Reduce,
            bytes,
            ranks: 8,
            arrivals: None,
        }
    }

    #[test]
    fn node_speaks_the_papd_protocol() {
        let node = Server::start(cold_config()).expect("node start");
        let mut client = Client::connect(node.local_addr()).expect("connect");
        client.ping().expect("ping");
        let a = client.query(query(1024)).expect("query");
        assert_eq!(a.tier, Tier::Computed);
        let b = client.query(query(1024)).expect("query again");
        assert_eq!(b.tier, Tier::L1);
        let stats = client.stats().expect("stats");
        assert_eq!(stats.endpoints.query, 2);
        assert_eq!(stats.connections, 1);
        // In-band shutdown drains the node.
        client.shutdown().expect("bye");
        node.join();
    }

    #[test]
    fn node_survives_malformed_and_oversized_frames() {
        let node = Server::start(cold_config()).expect("node start");
        let mut bad = Client::connect(node.local_addr()).expect("connect");
        bad.send_raw("not json\n").expect("send");
        let env = bad.recv().expect("error reply");
        assert!(matches!(env.reply, Reply::Error(_)));
        // Oversized frame: error reply, then the connection closes.
        let mut oversize = Client::connect(node.local_addr()).expect("connect");
        let big = "b".repeat(MAX_FRAME_BYTES + 1024);
        let _ = oversize.send_raw(&big);
        match oversize.recv() {
            Ok(env) => assert!(matches!(env.reply, Reply::Error(_))),
            Err(e) => assert!(e.contains("closed") || e.contains("recv"), "{e}"),
        }
        // The node is unharmed.
        let mut fresh = Client::connect(node.local_addr()).expect("reconnect");
        fresh.ping().expect("ping");
        node.stop();
        node.join();
    }

    #[test]
    fn pipelined_batch_over_the_event_loop() {
        let node = Server::start(cold_config()).expect("node start");
        let mut client = Client::connect(node.local_addr()).expect("connect");
        let sizes: Vec<u64> = (0..64).map(|i| 8 << (i % 4)).collect();
        let results = client.query_batch(sizes.iter().map(|&b| query(b)).collect()).expect("batch");
        assert_eq!(results.len(), sizes.len());
        for (r, &b) in results.iter().zip(&sizes) {
            assert_eq!(r.as_ref().expect("valid query").bytes, b);
        }
        node.stop();
        node.join();
    }
}
