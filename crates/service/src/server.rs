//! `papd`: the selection daemon.
//!
//! One thread runs one level-triggered epoll loop ([`pap_sysio::Epoll`])
//! over a nonblocking listener and a slab of connections. An idle
//! connection costs one slab slot and one kernel registration — no thread,
//! stack or timer — and the server raises `RLIMIT_NOFILE` (best effort) so
//! thousands of clients do not die on the default 1024 soft limit.
//!
//! The loop is a thin shell over one sans-IO `Session` per connection
//! (`service::session`, which holds the serving rules: request order, one
//! slow frame in flight, close and drain states): it reads into the
//! session, writes what the session hands back, submits its slow frame and
//! re-arms epoll from the session's wants. Slow frames — a cold cell's
//! sweep or a `Calibrate` fit — run on a bounded compute [`Pool`]; a worker
//! pushes the encoded reply onto a completion list and wakes the loop
//! through a `UnixStream` pair registered with epoll. Pool workers carry
//! `pap-parallel`'s worker marker, so nested `par_map` fan-out inside a
//! cold sweep stays sequential.

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

use crate::dispatch::{Dispatcher, SlowFrame};
use crate::proto::encode_frame;
#[cfg(test)]
use crate::proto::{Reply, MAX_FRAME_BYTES};
use crate::session::Session;
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

/// Poll interval of the event loop's `epoll_wait` and of the signal
/// watcher: the latency bound on noticing an out-of-band shutdown.
const POLL: Duration = Duration::from_millis(100);

/// Read chunk size, and the bytes read from one connection per readiness
/// event, so one pipelining client cannot hold the loop (level-triggered
/// epoll reports the rest).
const CHUNK: usize = 16 * 1024;
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
/// config's snapshot/tuning directives ([`Server::start`]; the fleet
/// warm-replicates into it before `Server::serve` exposes it).
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
        store.ingest_snapshot(&snap)?;
        stats.snapshot_loaded.set(1);
    } else if cfg.tune_at_startup {
        let machine_id: MachineId = cfg.machine.parse()?;
        let platform = Platform::preset(machine_id, cfg.ranks);
        let bench = BenchConfig::simulation().with_backend(cfg.backend);
        let (_, records) = tune_machine(&platform, &TunePlan::default(), &bench)?;
        store.ingest_records(machine_id.name(), &records, &cfg.backend.to_string())?;
        stats.tuned_at_startup.set(1);
    }
    Ok((stats, store))
}

/// Wire SIGTERM/SIGINT to a server's graceful drain: install the
/// process-wide flag handler ([`pap_sysio::install_shutdown_flag`]) and a
/// watcher thread that exits once the server shuts down for any reason.
pub fn install_signal_shutdown(server: &Server) -> Result<(), String> {
    pap_sysio::install_shutdown_flag().map_err(|e| format!("install signal handler: {e}"))?;
    let shutdown = Arc::clone(&server.shutdown);
    std::thread::spawn(move || {
        while !shutdown.load(Ordering::SeqCst) && !pap_sysio::shutdown_requested() {
            std::thread::sleep(POLL);
        }
        shutdown.store(true, Ordering::SeqCst);
    });
    Ok(())
}

/// A running daemon.
pub struct Server {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    thread: std::thread::JoinHandle<()>,
    refine_pool: Option<Arc<Pool>>,
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
    pub(crate) fn serve(
        cfg: &ServeConfig,
        stats: Arc<Stats>,
        store: Arc<TierStore>,
    ) -> Result<Server, String> {
        // Best effort: the server holds one fd per client.
        let _ = pap_sysio::raise_nofile_limit(WANT_NOFILE);

        let listener = TcpListener::bind(&cfg.addr).map_err(|e| format!("bind {}: {e}", cfg.addr))?;
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
                dispatcher: Arc::new(Dispatcher::new(Arc::clone(&shutdown), stats, Arc::clone(&store), refine_pool.clone())),
                compute: Pool::new(threads, WANT_NOFILE as usize),
                done: Arc::new(Completions { replies: Mutex::new(Vec::new()), wake }),
            },
        };
        let thread = std::thread::spawn(move || node.run());
        Ok(Server { addr, shutdown, thread, refine_pool, store })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's stats block.
    pub fn stats(&self) -> &Arc<Stats> {
        self.store.stats()
    }

    /// Whether a shutdown has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Request shutdown from outside (equivalent to a `Shutdown` frame):
    /// the event loop notices within one poll interval and drains.
    pub fn stop(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Block until the event loop has drained — after [`Server::stop`], a
    /// client `Shutdown` frame or a signal; in-flight refinements finish
    /// while queued ones are dropped.
    pub fn join(self) {
        let _ = self.thread.join();
        // The loop and its compute jobs are gone, and with them every
        // other refine-pool holder. If one somehow is not, the workers are
        // left parked and die with the process.
        if let Some(pool) = self.refine_pool {
            if let Ok(pool) = Arc::try_unwrap(pool) {
                let dropped = pool.abort();
                for _ in 0..dropped {
                    self.store.stats().refine_dropped();
                }
            }
        }
    }
}

/// Encoded replies of finished slow frames, and the loop's wake-up.
struct Completions {
    replies: Mutex<Vec<(usize, String)>>,
    wake: UnixStream,
}

/// What a connection needs to serve its frames.
struct Serving {
    dispatcher: Arc<Dispatcher>,
    /// Workers for slow frames.
    compute: Pool,
    done: Arc<Completions>,
}

impl Serving {
    /// Hand a session's slow frame to the compute pool, which never blocks:
    /// a refused frame is answered by the session, which may yield another.
    fn submit(&self, slot: usize, session: &mut Session, mut slow: Option<SlowFrame>) {
        while let Some(frame) = slow {
            let (dispatcher, done) = (Arc::clone(&self.dispatcher), Arc::clone(&self.done));
            let job = move || {
                let reply = encode_frame(&dispatcher.run_slow(frame));
                done.replies.lock().expect("completion list").push((slot, reply));
                // WouldBlock means a wake-up is already pending.
                let _ = (&done.wake).write(&[1]);
            };
            if self.compute.submit(job) {
                return;
            }
            slow = session.refused(&self.dispatcher);
        }
    }
}

/// One connection in the slab.
struct Conn {
    stream: TcpStream,
    session: Session,
    /// The interest registered with epoll (`None`: out of the set).
    interest: Option<Interest>,
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
    /// Accept, read, serve, write — no blocking call other than
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
                        while matches!((&self.wake_rx).read(&mut [0u8; 64]), Ok(n) if n > 0) {}
                        self.take_completions();
                    }
                    token => {
                        let slot = (token - FIRST_CONN_TOKEN) as usize;
                        let dead = (ev.closed && !ev.readable) || (ev.readable && self.read(slot, READ_BUDGET));
                        self.settle(slot, dead);
                    }
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
            self.conns[slot] = Some(Conn { stream, session: Session::default(), interest: Some(Interest::READ) });
        }
    }

    /// Read up to `budget` bytes of what the kernel holds into the slot's
    /// session, and serve them. Returns true on a hard read error.
    fn read(&mut self, slot: usize, budget: usize) -> bool {
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return false; // stale event for a slot torn down this batch
        };
        let (mut chunk, mut read) = ([0u8; CHUNK], 0);
        let dead = loop {
            if read >= budget || !conn.session.reading() {
                break false;
            }
            match conn.stream.read(&mut chunk) {
                Ok(0) => conn.session.eof(),
                Ok(n) => {
                    conn.session.recv(&chunk[..n]);
                    read += n;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => break e.kind() != ErrorKind::WouldBlock,
            }
        };
        let slow = conn.session.serve(&self.serving.dispatcher);
        self.serving.submit(slot, &mut conn.session, slow);
        dead
    }

    /// Queue the replies of finished slow frames, and serve the frames
    /// that waited behind them.
    fn take_completions(&mut self) {
        let done = std::mem::take(&mut *self.serving.done.replies.lock().expect("completion list"));
        for (slot, frame) in done {
            // The slot is still this job's: a busy connection is out of the
            // epoll set, so nothing tears it down before its reply lands.
            let Some(conn) = self.conns[slot].as_mut() else { continue };
            let slow = conn.session.complete(frame.as_bytes(), &self.serving.dispatcher);
            self.serving.submit(slot, &mut conn.session, slow);
            self.settle(slot, false);
        }
    }

    /// Write what the session hands back until the socket would block,
    /// then close the connection if it is dead or its session finished,
    /// else register the interest the session wants.
    fn settle(&mut self, slot: usize, mut dead: bool) {
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else { return };
        while !dead && !conn.session.output().is_empty() {
            match conn.stream.write(conn.session.output()) {
                Ok(0) => dead = true,
                Ok(n) => conn.session.wrote(n),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(_) => dead = true,
            }
        }
        if dead {
            conn.session.fail();
        }
        if conn.session.finished() {
            self.conns[slot] = None; // closing the fd also leaves the epoll set
            self.free.push(slot);
            return;
        }
        let (fd, token, want) = (conn.stream.as_raw_fd(), slot as u64 + FIRST_CONN_TOKEN, conn.session.interest());
        let changed = match (conn.interest, want) {
            (have, want) if have == want => return,
            (_, None) => self.epoll.delete(fd),
            (None, Some(w)) => self.epoll.add(fd, token, w),
            (Some(_), Some(w)) => self.epoll.modify(fd, token, w),
        };
        if changed.is_ok() {
            conn.interest = want;
        }
    }

    /// The shutdown drain, in the steady loop's own calls: accept the
    /// listen backlog; read once what the kernel already holds on every
    /// connection and serve it (bytes arriving later are refused); wait for
    /// the slow frames on the pool, each completion serving the frames
    /// behind it; then flush with bounded blocking writes and close.
    fn drain(mut self) {
        self.accept_ready();
        for slot in 0..self.conns.len() {
            self.read(slot, usize::MAX);
            if let Some(conn) = self.conns[slot].as_mut() {
                conn.session.eof();
            }
        }
        let _ = self.wake_rx.set_nonblocking(false);
        while self.conns.iter().flatten().any(|c| c.session.busy())
            && (&self.wake_rx).read(&mut [0u8; 64]).is_ok()
        {
            self.take_completions();
        }
        for slot in 0..self.conns.len() {
            if let Some(conn) = self.conns[slot].as_mut() {
                let _ = conn.stream.set_nonblocking(false);
                let _ = conn.stream.set_write_timeout(Some(Duration::from_secs(2)));
            }
            self.settle(slot, false);
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
