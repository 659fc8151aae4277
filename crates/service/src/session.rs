//! One connection's protocol state, without I/O.
//!
//! A [`Session`] owns no socket, epoll handle or thread. The event loop
//! feeds it what happened — bytes read, EOF, its slow frame's encoded
//! reply or the compute pool's refusal — and it serves complete frames
//! through the [`Dispatcher`]. It hands back bytes to write, at most one
//! [`SlowFrame`] to submit, the epoll interest it needs and when to close.
//! Its rules hold for the steady loop and the shutdown drain alike:
//! replies leave in request order; while a slow frame is in flight later
//! frames wait buffered; nothing is served after a `Bye`, an oversized
//! frame or a dead socket; after EOF (or the drain's one read) what is
//! buffered is served and flushed, then the session closes. The seeded
//! harness in the tests below checks them under any interleaving.

use std::time::Instant;

use pap_sysio::Interest;

use crate::dispatch::{Dispatcher, SlowFrame, Step};
use crate::proto::{encode_frame, Reply, ReplyEnvelope, MAX_FRAME_BYTES};

/// One connection's protocol state (see the module docs).
#[derive(Default)]
pub(crate) struct Session {
    /// Bytes read but not yet framed.
    rbuf: Vec<u8>,
    /// Encoded replies not yet written.
    wbuf: Vec<u8>,
    /// Id and decode time of the slow frame on the compute pool.
    busy: Option<(u64, Instant)>,
    /// Peer sent EOF, or the drain read once: read no more.
    read_closed: bool,
    /// Serve no more frames (Bye, oversized frame, dead socket).
    close_after_flush: bool,
}

impl Session {
    /// Whether the event loop should read from the peer.
    pub(crate) fn reading(&self) -> bool {
        !self.read_closed && !self.close_after_flush
    }

    /// Whether a slow frame is on the compute pool.
    pub(crate) fn busy(&self) -> bool {
        self.busy.is_some()
    }

    /// Bytes read from the peer; [`Session::serve`] frames them.
    pub(crate) fn recv(&mut self, bytes: &[u8]) {
        self.rbuf.extend_from_slice(bytes);
    }

    /// The peer sent EOF, or the drain made its one read: read no more.
    pub(crate) fn eof(&mut self) {
        self.read_closed = true;
    }

    /// Serve buffered frames in order until one is slow (returned, to
    /// submit), the session is closing, or none is complete.
    pub(crate) fn serve(&mut self, dispatcher: &Dispatcher) -> Option<SlowFrame> {
        let mut served = 0;
        let mut slow = None;
        while self.busy.is_none() && !self.close_after_flush {
            let Some(len) = self.rbuf[served..].iter().position(|&b| b == b'\n') else {
                break;
            };
            let step = dispatcher.serve_frame(&self.rbuf[served..served + len]);
            served += len + 1;
            match step {
                Step::Reply(reply) => self.queue(&reply),
                Step::Slow(frame) => {
                    self.busy = Some((frame.id, frame.start));
                    slow = Some(frame);
                }
            }
        }
        self.rbuf.drain(..served);
        if self.busy.is_none() && !self.close_after_flush && self.rbuf.len() > MAX_FRAME_BYTES {
            // No newline within the frame budget: reply, then close.
            self.queue(&dispatcher.oversized_frame_reply());
            self.close_after_flush = true;
        }
        slow
    }

    /// The slow frame's encoded reply: queue it, serve what waited.
    pub(crate) fn complete(&mut self, reply: &[u8], dispatcher: &Dispatcher) -> Option<SlowFrame> {
        self.wbuf.extend_from_slice(reply);
        self.busy = None;
        self.serve(dispatcher)
    }

    /// The pool refused the slow frame: answer it, serve what waited.
    pub(crate) fn refused(&mut self, dispatcher: &Dispatcher) -> Option<SlowFrame> {
        let (id, start) = self.busy.take().expect("a refused session has a slow frame");
        self.queue(&dispatcher.pool_refused(id, start));
        self.serve(dispatcher)
    }

    /// Encoded replies waiting to be written.
    pub(crate) fn output(&self) -> &[u8] {
        &self.wbuf
    }

    /// The event loop wrote the first `n` bytes of [`Session::output`]
    /// (all of them, but for a full socket buffer).
    pub(crate) fn wrote(&mut self, n: usize) {
        self.wbuf.drain(..n);
    }

    /// The socket is dead: drop the output and serve nothing more.
    pub(crate) fn fail(&mut self) {
        self.close_after_flush = true;
        self.wbuf.clear();
    }

    /// The readiness to wait for: none while busy, write while output is
    /// pending.
    pub(crate) fn interest(&self) -> Option<Interest> {
        let write = !self.output().is_empty();
        self.busy.is_none().then_some(if write { Interest::READ_WRITE } else { Interest::READ })
    }

    /// Nothing left to do: close.
    pub(crate) fn finished(&self) -> bool {
        self.busy.is_none() && self.output().is_empty() && !self.reading()
    }

    fn queue(&mut self, reply: &ReplyEnvelope) {
        self.wbuf.extend_from_slice(encode_frame(reply).as_bytes());
        if matches!(reply.reply, Reply::Bye) {
            self.close_after_flush = true;
        }
    }
}

#[cfg(test)]
mod tests {
    //! The seeded interleaving harness. One schedule drives a few scripted
    //! clients' sessions over one [`Dispatcher`] and a real [`TierStore`]
    //! (model backend), the way the event loop would, and a seed fixes every
    //! choice the OS and the pools make for the real server: where the byte
    //! stream splits (inside a frame, or several frames per chunk), when
    //! bytes arrive and are read, how much of a reply one write takes,
    //! which slow frames the compute pool refuses, the order in which pool
    //! jobs run and their completions land, EOFs, and the moment of
    //! shutdown. Every schedule ends in the drain. The checks:
    //! * each session's replies are exactly its complete frames' replies,
    //!   in request order (none after a `Bye`);
    //! * a session never has more than one slow frame in flight;
    //! * the drain answers every frame whose bytes arrived before its read,
    //!   and serves nothing that arrived after;
    //! * every error reply counts in `papd.endpoint.error`, and every
    //!   answered frame once in `papd.frames` and `papd.request_latency_us`;
    //! * every refine ticket is refined or cancelled by the end;
    //! * each answer's (alg, policy, pattern) is the reference store's;
    //! * the same seed gives the same reply bytes.

    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{mpsc, Arc, OnceLock};

    use pap_collectives::CollectiveKind;
    use pap_core::{tune_machine, TunePlan, TuneRecord};
    use pap_microbench::{Backend, BenchConfig};
    use pap_parallel::Pool;
    use pap_sim::Platform;

    use crate::proto::{decode_reply, ErrorCode, QueryRequest, Request, RequestEnvelope, PROTO_VERSION};
    use crate::stats::Stats;
    use crate::store::{DefaultPolicy, TierStore};

    /// Schedules per run: release builds (CI's harness step) run 10 000,
    /// debug builds a share that keeps `cargo test` fast.
    const SEEDS: u64 = if cfg!(debug_assertions) { 1_000 } else { 10_000 };

    /// Ranks the store is seeded at (Reduce, two sizes).
    const RANKS: usize = 8;

    /// splitmix64: a small deterministic generator.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn one_in(&mut self, n: u64) -> bool {
            self.next().is_multiple_of(n)
        }
    }

    fn records() -> &'static [TuneRecord] {
        static RECORDS: OnceLock<Vec<TuneRecord>> = OnceLock::new();
        RECORDS.get_or_init(|| {
            let plan = TunePlan {
                kinds: vec![CollectiveKind::Reduce],
                sizes: vec![1024, 65536],
                ..TunePlan::default()
            };
            let bench = BenchConfig::simulation().with_backend(Backend::Model);
            tune_machine(&Platform::simcluster(RANKS), &plan, &bench).expect("tune").1
        })
    }

    fn seeded_store(stats: Arc<Stats>, l1: usize, refine: bool) -> TierStore {
        let store = TierStore::new(stats, l1, DefaultPolicy::Robust, Backend::Model, refine);
        store.ingest_records("SimCluster", records(), "model").unwrap();
        store
    }

    /// The in-process reference every answer is checked against: same
    /// seed records, no refinement.
    fn reference() -> &'static TierStore {
        static REFERENCE: OnceLock<TierStore> = OnceLock::new();
        REFERENCE.get_or_init(|| seeded_store(Arc::new(Stats::new()), 1024, false))
    }

    /// What a scripted client sends (and so what it must get back).
    #[derive(Clone, Debug)]
    enum Frame {
        Ping,
        Query(QueryRequest),
        /// Not JSON: `BadFrame`, id 0.
        Garbage,
        /// A valid envelope with an unknown request: `BadRequest`.
        BadBody,
        Shutdown,
    }

    impl Frame {
        fn pick(rng: &mut Rng) -> Frame {
            match rng.below(24) {
                0..=2 => Frame::Ping,
                3 => Frame::Garbage,
                4 => Frame::BadBody,
                5 if rng.one_in(6) => Frame::Shutdown,
                _ => {
                    // Seeded cells (exact and near), and two cold cells
                    // with one size each, so the evidence is the
                    // reference's too.
                    let (collective, bytes, ranks) = [
                        (CollectiveKind::Reduce, 1024, RANKS),
                        (CollectiveKind::Reduce, 65536, RANKS),
                        (CollectiveKind::Reduce, 3000, RANKS),
                        (CollectiveKind::Reduce, 100, RANKS),
                        (CollectiveKind::Reduce, 2048, RANKS / 2),
                        (CollectiveKind::Allreduce, 2048, RANKS),
                    ][rng.below(6)];
                    let ranks = if rng.one_in(16) { 1 } else { ranks };
                    let arrivals = match rng.below(4) {
                        0 => Some(vec![0.0; ranks]),
                        1 => Some((0..ranks).map(|r| if r + 1 == ranks { 2e-3 } else { 0.0 }).collect()),
                        2 => Some((0..ranks).map(|r| r as f64 * 1e-4).collect()),
                        _ => None,
                    };
                    Frame::Query(QueryRequest { machine: "simcluster".into(), collective, bytes, ranks, arrivals })
                }
            }
        }

        fn encode(&self, id: u64) -> String {
            let env = |req| encode_frame(&RequestEnvelope { v: PROTO_VERSION, id, req });
            match self {
                Frame::Ping => env(Request::Ping),
                Frame::Query(q) => env(Request::Query(q.clone())),
                Frame::Garbage => "not json\n".to_string(),
                Frame::BadBody => format!("{{\"v\":{PROTO_VERSION},\"id\":{id},\"req\":\"Bogus\"}}\n"),
                Frame::Shutdown => env(Request::Shutdown),
            }
        }
    }

    /// One scripted peer and its connection's session.
    struct Client {
        /// `(id, frame)` in send order, and the frames' bytes split into
        /// the chunks the peer writes.
        frames: Vec<(u64, Frame)>,
        chunks: Vec<Vec<u8>>,
        /// Chunks in the kernel, and chunks the session has read.
        sent: usize,
        read: usize,
        /// The peer closes after its last chunk; the EOF is in the kernel;
        /// the session has read it.
        closes: bool,
        eof_sent: bool,
        eof_read: bool,
        session: Session,
        /// Bytes the session has read, and reply bytes the peer received.
        input: Vec<u8>,
        got: Vec<u8>,
        /// Ids of slow frames the compute pool refused.
        refused: Vec<u64>,
        /// The event loop closed the connection (session finished).
        closed: bool,
    }

    impl Client {
        fn script(rng: &mut Rng) -> Client {
            let frames: Vec<(u64, Frame)> =
                (1..=1 + rng.below(8) as u64).map(|id| (id, Frame::pick(rng))).collect();
            let bytes: Vec<u8> = frames.iter().flat_map(|(id, f)| f.encode(*id).into_bytes()).collect();
            let mut cuts: Vec<usize> = (0..rng.below(2 * frames.len() + 1)).map(|_| 1 + rng.below(bytes.len() - 1)).collect();
            cuts.sort_unstable();
            cuts.dedup();
            let mut chunks = Vec::new();
            let mut from = 0;
            for to in cuts.into_iter().chain([bytes.len()]) {
                chunks.push(bytes[from..to].to_vec());
                from = to;
            }
            Client {
                frames,
                chunks,
                sent: 0,
                read: 0,
                closes: rng.one_in(2),
                eof_sent: false,
                eof_read: false,
                session: Session::default(),
                input: Vec::new(),
                got: Vec::new(),
                refused: Vec::new(),
                closed: false,
            }
        }

        fn can_send(&self) -> bool {
            !self.closed && (self.sent < self.chunks.len() || (self.closes && !self.eof_sent))
        }

        fn can_read(&self) -> bool {
            self.session.reading() && (self.read < self.sent || (self.eof_sent && !self.eof_read))
        }

        /// Read `n` chunks of what the kernel holds (all of it, and the
        /// EOF, when `n` reaches past it).
        fn read_chunks(&mut self, n: usize) {
            let n = n.min(self.sent - self.read);
            for chunk in &self.chunks[self.read..self.read + n] {
                self.session.recv(chunk);
                self.input.extend_from_slice(chunk);
            }
            self.read += n;
            if self.read == self.sent && self.eof_sent && !self.eof_read {
                self.eof_read = true;
                self.session.eof();
            }
        }

        /// Write up to `n` bytes of the session's output to the peer.
        fn write(&mut self, n: usize) {
            let out = self.session.output();
            let n = n.min(out.len());
            self.got.extend_from_slice(&out[..n]);
            self.session.wrote(n);
        }
    }

    /// One schedule: its clients, the dispatcher they share, and the
    /// simulated compute pool.
    struct Schedule {
        rng: Rng,
        clients: Vec<Client>,
        dispatcher: Dispatcher,
        stats: Arc<Stats>,
        /// The dispatcher's shutdown flag (the out-of-band stop).
        shutdown: Arc<AtomicBool>,
        /// Refused submits are one in `refuse_odds`.
        refuse_odds: u64,
        /// Slow frames on the pool, and finished replies not yet taken.
        jobs: Vec<(usize, SlowFrame)>,
        done: Vec<(usize, String)>,
    }

    impl Schedule {
        /// Hand a slow frame to the simulated pool, or refuse it — the
        /// event loop's `Serving::submit`.
        fn submit(&mut self, c: usize, mut slow: Option<SlowFrame>) {
            while let Some(frame) = slow {
                let in_flight = self.jobs.iter().map(|j| j.0).chain(self.done.iter().map(|d| d.0));
                assert_eq!(in_flight.filter(|&k| k == c).count(), 0, "client {c}: a second slow frame in flight");
                assert!(self.clients[c].session.busy());
                if !self.rng.one_in(self.refuse_odds) {
                    self.jobs.push((c, frame));
                    return;
                }
                self.clients[c].refused.push(frame.id);
                slow = self.clients[c].session.refused(&self.dispatcher);
            }
        }

        fn serve(&mut self, c: usize) {
            let slow = self.clients[c].session.serve(&self.dispatcher);
            self.submit(c, slow);
        }

        /// A pool worker finishes one job, in seeded order.
        fn run_job(&mut self) {
            let (c, frame) = self.jobs.swap_remove(self.rng.below(self.jobs.len()));
            self.done.push((c, encode_frame(&self.dispatcher.run_slow(frame))));
        }

        /// The loop takes every landed completion, in landing order.
        fn take_completions(&mut self) {
            for (c, reply) in std::mem::take(&mut self.done) {
                let slow = self.clients[c].session.complete(reply.as_bytes(), &self.dispatcher);
                self.submit(c, slow);
            }
        }

        fn settle(&mut self) {
            for client in &mut self.clients {
                client.closed |= client.session.finished();
            }
        }

        /// The steady loop until shutdown, or until nothing is left to do.
        fn run_until_shutdown(&mut self) {
            for _ in 0..400 {
                if self.dispatcher.shutdown_requested() {
                    return;
                }
                let open = |c: &Client| !c.closed;
                let mut actions = Vec::new();
                for (i, c) in self.clients.iter().enumerate().filter(|(_, c)| open(c)) {
                    if c.can_send() {
                        actions.push((0, i));
                    }
                    // The loop reads only what the session's interest asks
                    // for: a busy session is out of the epoll set.
                    if c.can_read() && c.session.interest().is_some_and(|i| i.readable) {
                        actions.push((1, i));
                    }
                    if !c.session.output().is_empty() {
                        actions.push((2, i));
                    }
                }
                if !self.jobs.is_empty() {
                    actions.push((3, 0));
                }
                if !self.done.is_empty() {
                    actions.push((4, 0));
                }
                if actions.is_empty() || self.rng.one_in(64) {
                    break; // out-of-band stop
                }
                let (action, c) = actions[self.rng.below(actions.len())];
                match action {
                    0 => {
                        let client = &mut self.clients[c];
                        if client.sent < client.chunks.len() {
                            client.sent += 1;
                        } else {
                            client.eof_sent = true;
                        }
                    }
                    1 => {
                        let n = 1 + self.rng.below(3);
                        self.clients[c].read_chunks(n);
                        self.serve(c);
                    }
                    2 => {
                        let n = 1 + self.rng.below(2 * self.clients[c].session.output().len());
                        self.clients[c].write(n);
                    }
                    3 => self.run_job(),
                    _ => self.take_completions(),
                }
                self.settle();
            }
            self.shutdown.store(true, Ordering::SeqCst);
        }

        /// `Node::drain`: one read of what every connection's kernel
        /// buffer holds, serve, wait for the pool, flush.
        fn drain(&mut self) {
            for c in 0..self.clients.len() {
                if !self.clients[c].closed {
                    self.clients[c].read_chunks(usize::MAX);
                    self.serve(c);
                    self.clients[c].session.eof();
                }
            }
            while !self.jobs.is_empty() || !self.done.is_empty() {
                if self.done.is_empty() || (!self.jobs.is_empty() && self.rng.one_in(2)) {
                    self.run_job();
                } else {
                    self.take_completions();
                }
            }
            for client in self.clients.iter_mut().filter(|c| !c.closed) {
                client.write(usize::MAX);
                assert!(client.session.finished(), "a drained session closes");
            }
            self.settle();
        }
    }

    /// What one schedule left behind, for the cross-run checks.
    struct Outcome {
        replies: Vec<Vec<u8>>,
        frames: u64,
    }

    /// Run one seeded schedule and check every invariant on it.
    fn run_schedule(seed: u64) -> Outcome {
        let mut rng = Rng(seed);
        let stats = Arc::new(Stats::new());
        let refine = rng.below(3);
        let store = Arc::new(seeded_store(Arc::clone(&stats), [0, 2, 64][rng.below(3)], refine > 0));
        // A refine pool whose one worker is parked until the schedule
        // ends, so refinement never races the replies.
        let (release, gate) = mpsc::channel::<()>();
        let refine_pool = (refine == 2).then(|| {
            let pool = Pool::new(1, 1 + rng.below(2));
            let (started, parked) = mpsc::channel();
            assert!(pool.submit(move || {
                started.send(()).expect("harness waits");
                let _ = gate.recv();
            }));
            parked.recv().expect("refine worker parks");
            Arc::new(pool)
        });
        let shutdown = Arc::new(AtomicBool::new(false));
        let dispatcher = Dispatcher::new(Arc::clone(&shutdown), Arc::clone(&stats), Arc::clone(&store), refine_pool.clone());
        let clients = (0..1 + rng.below(4)).map(|_| Client::script(&mut rng)).collect();
        let refuse_odds = [1_000_000, 5, 2][rng.below(3)];
        let jobs = Vec::new();
        let mut sched = Schedule { rng, clients, dispatcher, stats, shutdown, refuse_odds, jobs, done: Vec::new() };
        sched.run_until_shutdown();
        sched.drain();

        let Schedule { clients, dispatcher, stats, .. } = sched;
        drop(dispatcher);
        drop(release);
        if let Some(pool) = refine_pool {
            // Mostly as `Server::join` retires it — queued tickets are
            // dropped — but now and then running them (sim refinement).
            let pool = Arc::try_unwrap(pool).ok().expect("the schedule holds the last refine pool handle");
            if seed.is_multiple_of(8) {
                pool.join();
            } else {
                (0..pool.abort()).for_each(|_| stats.refine_dropped());
            }
        }
        let (mut answered, mut errors) = (0, 0);
        for (i, client) in clients.iter().enumerate() {
            let (n, e) = check_replies(seed, i, client);
            answered += n;
            errors += e;
        }
        let report = stats.report();
        assert_eq!(report.endpoints.error, errors, "seed {seed}: error replies vs papd.endpoint.error");
        assert_eq!(report.frames, answered, "seed {seed}: answered frames vs papd.frames");
        let latency: u64 = report.latency.iter().map(|b| b.count).sum();
        assert_eq!(latency, answered, "seed {seed}: answered frames vs papd.request_latency_us");
        let t = &report.tiers;
        assert_eq!(t.refines_scheduled, t.refines_applied + t.refines_dropped, "seed {seed}: refine tickets");
        Outcome { replies: clients.into_iter().map(|c| c.got).collect(), frames: answered }
    }

    /// Check one client's replies against its frames; returns the number
    /// of replies and of error replies.
    fn check_replies(seed: u64, i: usize, client: &Client) -> (u64, u64) {
        let ctx = format!("seed {seed} client {i}");
        // The frames the session read in full, up to its first Shutdown.
        let mut expected = Vec::new();
        let mut at = 0;
        for (id, frame) in &client.frames {
            at += frame.encode(*id).len();
            if at > client.input.len() {
                break;
            }
            expected.push((*id, frame));
            if matches!(frame, Frame::Shutdown) {
                break;
            }
        }
        // Everything sent before the drain's read was read.
        assert_eq!(client.read, client.sent, "{ctx}: bytes left unread");
        assert!(client.got.is_empty() || client.got.ends_with(b"\n"), "{ctx}: torn reply");
        let text = std::str::from_utf8(&client.got).expect("replies are UTF-8");
        let replies: Vec<ReplyEnvelope> = text.lines().map(|l| decode_reply(l).expect("reply decodes")).collect();
        assert_eq!(replies.len(), expected.len(), "{ctx}: replies {replies:?} for frames {expected:?}");
        let mut errors = 0;
        for (reply, (id, frame)) in replies.iter().zip(&expected) {
            let want_id = if matches!(frame, Frame::Garbage) { 0 } else { *id };
            assert_eq!(reply.id, want_id, "{ctx}: reply order");
            let code = match &reply.reply {
                Reply::Error(e) => {
                    errors += 1;
                    Some(e.code)
                }
                _ => None,
            };
            match frame {
                Frame::Ping => assert!(matches!(reply.reply, Reply::Pong), "{ctx}: {reply:?}"),
                Frame::Shutdown => assert!(matches!(reply.reply, Reply::Bye), "{ctx}: {reply:?}"),
                Frame::Garbage => assert_eq!(code, Some(ErrorCode::BadFrame), "{ctx}"),
                Frame::BadBody => assert_eq!(code, Some(ErrorCode::BadRequest), "{ctx}"),
                Frame::Query(q) if q.ranks < 2 => assert_eq!(code, Some(ErrorCode::BadRequest), "{ctx}"),
                Frame::Query(_) if client.refused.contains(id) => {
                    assert_eq!(code, Some(ErrorCode::Internal), "{ctx}: refused frame {id}")
                }
                Frame::Query(q) => {
                    let Reply::Answer(a) = &reply.reply else { panic!("{ctx}: {reply:?}") };
                    let (want, _) = reference().resolve(q).expect("reference resolves");
                    assert_eq!(
                        (a.alg, &a.policy, &a.pattern),
                        (want.alg, &want.policy, &want.pattern),
                        "{ctx}: answer to frame {id} differs from the reference"
                    );
                }
            }
        }
        (replies.len() as u64, errors)
    }

    /// Stops the other harness threads once one fails.
    struct StopOnPanic<'a>(&'a AtomicBool);

    impl Drop for StopOnPanic<'_> {
        fn drop(&mut self) {
            if std::thread::panicking() {
                self.0.store(true, Ordering::SeqCst);
            }
        }
    }

    #[test]
    fn seeded_schedules_keep_the_serving_rules() {
        let start = std::time::Instant::now();
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get()).min(4) as u64;
        let failed = AtomicBool::new(false);
        // Seeds are dealt round-robin over the threads; every eighth one
        // runs twice and must reply byte for byte alike.
        let frames: u64 = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads)
                .map(|t| {
                    let failed = &failed;
                    scope.spawn(move || {
                        let _stop = StopOnPanic(failed);
                        let mut frames = 0;
                        for seed in (t..SEEDS).step_by(threads as usize) {
                            if failed.load(Ordering::SeqCst) {
                                break;
                            }
                            let outcome = run_schedule(seed);
                            frames += outcome.frames;
                            if seed.is_multiple_of(8) {
                                assert_eq!(outcome.replies, run_schedule(seed).replies, "seed {seed} is not deterministic");
                            }
                        }
                        frames
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().expect("harness thread")).sum()
        });
        let reruns = SEEDS.div_ceil(8);
        println!(
            "session harness: {SEEDS} seeds, {} schedules, {frames} frames answered, {:.1} s",
            SEEDS + reruns,
            start.elapsed().as_secs_f64()
        );
    }
}
