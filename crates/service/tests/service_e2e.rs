//! End-to-end tests for `papd` over real loopback TCP: arrival-pattern-aware
//! selection consistent with the offline `select()`, warm restart from a
//! snapshot, the error surface of the wire protocol, pipelining, background
//! refinement, slow frames off the event loop, connection scale, and
//! graceful shutdown.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use pap_arrival::{classify_delays, generate, Shape};
use pap_collectives::CollectiveKind;
use pap_core::selection::{select, SelectionPolicy};
use pap_core::tuner::{tune_machine, TunePlan};
use pap_microbench::{Backend, BenchConfig};
use pap_service::{
    decode_request, Client, ErrorCode, QueryRequest, Reply, Request, ServeConfig, Server, Snapshot,
    Tier, PROTO_VERSION,
};
use pap_sim::Platform;

/// A server over the default model-backed startup tuning (simcluster, 16
/// ranks) with background refinement disabled unless asked for.
fn start(f: impl FnOnce(&mut ServeConfig)) -> (Server, Client) {
    let mut cfg = ServeConfig { refine_threads: 0, ..ServeConfig::default() };
    f(&mut cfg);
    let server = Server::start(cfg).expect("server start");
    let client = Client::connect(server.local_addr()).expect("client connect");
    (server, client)
}

fn stop(server: Server, client: &mut Client) {
    client.shutdown().expect("shutdown handshake");
    server.join();
}

fn query(bytes: u64) -> QueryRequest {
    QueryRequest {
        machine: "simcluster".into(),
        collective: CollectiveKind::Reduce,
        bytes,
        ranks: 16,
        arrivals: None,
    }
}

fn scratch(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("pap-service-e2e-{}-{name}", std::process::id()));
    p
}

/// Acceptance: a query carrying skewed arrival samples returns a different
/// algorithm than the same query without samples, and **both** answers match
/// what the offline `select()` produces on the same evidence.
#[test]
fn arrival_aware_selection_matches_offline_select() {
    // Offline ground truth: the exact tuning the server performs at startup.
    let platform = Platform::simcluster(16);
    let (_, records) =
        tune_machine(&platform, &TunePlan::default(), &BenchConfig::simulation()).unwrap();

    // Find a cell where some artificial pattern's oracle pick differs from
    // the robust pick, and whose generated sample classifies back to that
    // very shape (so the server will route to the same oracle policy).
    let mut found = None;
    'outer: for rec in &records {
        let robust = select(&rec.matrix, &SelectionPolicy::robust()).unwrap();
        for shape in Shape::ARTIFICIAL {
            let oracle =
                select(&rec.matrix, &SelectionPolicy::BestUnderPattern(shape.name().into()))
                    .unwrap();
            let sample = generate(shape, 16, 1e-3, 0).delays;
            let (classified, _) = classify_delays(&sample);
            if oracle != robust && classified == shape {
                found = Some((rec, shape, sample, robust, oracle));
                break 'outer;
            }
        }
    }
    let (rec, shape, sample, robust, oracle) =
        found.expect("no cell shows a pattern-dependent optimum — selection has no signal");

    let (server, mut client) = start(|_| {});
    let base = QueryRequest {
        machine: "simcluster".into(),
        collective: rec.entry.kind,
        bytes: rec.entry.bytes,
        ranks: 16,
        arrivals: None,
    };

    // Without samples the daemon applies the default (robust) policy.
    let plain = client.query(base.clone()).expect("plain query");
    assert_eq!(plain.alg, robust, "daemon robust pick diverges from offline select()");
    assert_eq!(plain.pattern, "no_delay");
    assert!(plain.exact);

    // With skewed samples it classifies the pattern and applies the oracle.
    let skewed = client
        .query(QueryRequest { arrivals: Some(sample), ..base })
        .expect("skewed query");
    assert_eq!(skewed.alg, oracle, "daemon oracle pick diverges from offline select()");
    assert_eq!(skewed.pattern, shape.name());
    assert!(skewed.similarity > 0.9, "self-generated sample should classify cleanly");
    assert_ne!(
        plain.alg, skewed.alg,
        "arrival samples must change the selected algorithm on this cell"
    );
    stop(server, &mut client);
}

/// Acceptance: restarting with `--snapshot` serves the first query from L2
/// with no startup tuning rebuild, verified through the stats endpoint.
#[test]
fn warm_restart_from_snapshot_serves_l2_without_retuning() {
    let path = scratch("warm-restart.json");

    // "First run": tune offline and persist the snapshot (the same code path
    // `papctl tune --out` uses), then the daemon is gone.
    let platform = Platform::simcluster(16);
    let (_, records) =
        tune_machine(&platform, &TunePlan::default(), &BenchConfig::simulation()).unwrap();
    let snap = Snapshot::from_records("SimCluster", 16, "model", &records);
    snap.save(&path).expect("save snapshot");

    // Warm restart: the snapshot replaces startup tuning entirely.
    let (server, mut client) = start(|cfg| {
        cfg.snapshot = Some(path.clone());
        cfg.tune_at_startup = true; // must be ignored when a snapshot loads
    });

    let stats = client.stats().expect("stats");
    assert!(stats.snapshot_loaded, "snapshot should be the evidence source");
    assert!(!stats.tuned_at_startup, "no tuning rebuild may happen on warm restart");
    assert_eq!(stats.l2_cells, snap.cells.len());

    // First query: an exact L2 hit, never a miss/inline compute.
    let first = client.query(query(1024)).expect("first query");
    assert_eq!(first.tier, Tier::L2);
    assert!(first.exact);
    let stats = client.stats().expect("stats");
    assert_eq!(stats.tiers.l2_exact, 1);
    assert_eq!(stats.tiers.miss, 0);

    // Second identical query: promoted to L1.
    let second = client.query(query(1024)).expect("second query");
    assert_eq!(second.tier, Tier::L1);
    assert_eq!(second.alg, first.alg);

    stop(server, &mut client);
    let _ = std::fs::remove_file(&path);
}

/// Malformed frames get typed error replies — and the connection survives
/// every one of them.
#[test]
fn malformed_frames_get_error_replies_without_killing_the_connection() {
    let (server, mut client) = start(|cfg| cfg.tune_at_startup = false);

    // Non-JSON garbage: BadFrame, id unsalvageable → 0.
    client.send_raw("this is not json\n").unwrap();
    let env = client.recv().unwrap();
    assert_eq!(env.id, 0);
    match env.reply {
        Reply::Error(e) => assert_eq!(e.code, ErrorCode::BadFrame),
        other => panic!("expected BadFrame error, got {other:?}"),
    }

    // Wrong protocol version: the id is salvaged for correlation.
    client.send_raw("{\"v\":99,\"id\":7,\"req\":\"Ping\"}\n").unwrap();
    let env = client.recv().unwrap();
    assert_eq!(env.id, 7);
    match env.reply {
        Reply::Error(e) => assert_eq!(e.code, ErrorCode::VersionMismatch),
        other => panic!("expected VersionMismatch error, got {other:?}"),
    }

    // Unknown request variant: BadRequest.
    client.send_raw("{\"v\":1,\"id\":8,\"req\":\"Reboot\"}\n").unwrap();
    let env = client.recv().unwrap();
    assert_eq!(env.id, 8);
    match env.reply {
        Reply::Error(e) => assert_eq!(e.code, ErrorCode::BadRequest),
        other => panic!("expected BadRequest error, got {other:?}"),
    }

    // Semantically invalid queries are BadRequest too, not a worker panic.
    for bad in [
        QueryRequest { machine: "atlantis".into(), ..query(64) },
        QueryRequest { ranks: 1, ..query(64) },
        QueryRequest { ranks: 1 << 20, ..query(64) },
        QueryRequest { arrivals: Some(vec![0.0; 3]), ..query(64) }, // len != ranks
        QueryRequest { arrivals: Some(vec![f64::NAN; 16]), ..query(64) },
    ] {
        let err = client.query(bad).unwrap_err();
        assert!(err.contains("BadRequest"), "unexpected error: {err}");
    }

    // After all that abuse the very same connection still serves requests.
    client.ping().expect("connection must survive malformed frames");
    let stats = client.stats().expect("stats");
    assert_eq!(stats.endpoints.error, 8);

    stop(server, &mut client);
}

/// An oversized frame (no newline within the limit) is rejected with a
/// BadFrame reply and the connection is closed.
#[test]
fn oversized_frames_are_rejected_then_closed() {
    let (server, mut client) = start(|cfg| cfg.tune_at_startup = false);
    let big = "a".repeat(pap_service::MAX_FRAME_BYTES + 1024);
    // The server may slam the door mid-write; that's fine.
    let _ = client.send_raw(&big);
    match client.recv() {
        Ok(env) => {
            match env.reply {
                Reply::Error(e) => assert_eq!(e.code, ErrorCode::BadFrame),
                other => panic!("expected BadFrame error, got {other:?}"),
            }
            // Nothing more comes after the error: the connection is closed.
            assert!(client.recv().is_err());
        }
        // Acceptable: the write raced the close and the reply was lost.
        Err(e) => assert!(e.contains("closed") || e.contains("recv"), "unexpected: {e}"),
    }

    let mut fresh = Client::connect(server.local_addr()).expect("reconnect");
    fresh.ping().expect("server must survive an oversized frame");
    stop(server, &mut fresh);
}

/// Pipelined requests are answered in order with echoed ids.
#[test]
fn pipelining_answers_in_request_order() {
    let (server, mut client) = start(|_| {});
    let sizes: Vec<u64> = vec![8, 1024, 32 * 1024, 1 << 20, 8, 1024];
    let answers = client
        .query_batch(sizes.iter().map(|&b| query(b)).collect())
        .expect("pipelined batch");
    assert_eq!(answers.len(), sizes.len());
    for (a, &b) in answers.iter().zip(&sizes) {
        let a = a.as_ref().expect("all queries in this batch are valid");
        assert_eq!(a.bytes, b, "answers must come back in request order");
    }
    // Mixed pipelining (query/ping/stats interleaved) keeps id order too.
    let ids =
        vec![
            client.send(Request::Ping).unwrap(),
            client.send(Request::Query(query(64))).unwrap(),
            client.send(Request::Stats).unwrap(),
        ];
    for id in ids {
        assert_eq!(client.recv().unwrap().id, id);
    }
    stop(server, &mut client);
}

/// One rejected query in a pipelined batch lands in its own error slot;
/// the queries around it still get answers.
#[test]
fn batch_isolates_per_query_errors() {
    let (server, mut client) = start(|_| {});
    let bad = QueryRequest { ranks: 1, ..query(64) }; // below the 2-rank minimum
    let results = client
        .query_batch(vec![query(8), bad, query(1024)])
        .expect("transport is healthy; only the middle query is rejected");
    assert_eq!(results.len(), 3);
    assert_eq!(results[0].as_ref().unwrap().bytes, 8);
    let err = results[1].as_ref().unwrap_err();
    assert_eq!(err.code, ErrorCode::BadRequest);
    assert!(err.message.contains("at least 2"), "{}", err.message);
    assert_eq!(results[2].as_ref().unwrap().bytes, 1024);
    stop(server, &mut client);
}

/// A cold cell is computed inline (tier `computed`), then refined in the
/// background by the sim backend: the cache upgrades in place, the
/// generation bumps, and stats record the full lifecycle.
#[test]
fn background_refinement_upgrades_the_cache() {
    let (server, mut client) = start(|cfg| {
        cfg.tune_at_startup = false;
        cfg.refine_threads = 1;
    });

    // Small message on few ranks so the sim sweep is quick.
    let q = QueryRequest { bytes: 8, ranks: 4, ..query(8) };
    let cold = client.query(q.clone()).expect("cold query");
    assert_eq!(cold.tier, Tier::Computed);
    assert_eq!(cold.backend, "model");
    assert_eq!(cold.generation, 0);
    assert!(cold.refine_scheduled, "a model-backed miss must schedule refinement");

    // Wait for the background sim sweep to land.
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let stats = client.stats().expect("stats");
        if stats.tiers.refines_applied == 1 {
            break;
        }
        assert!(Instant::now() < deadline, "refinement never landed");
        std::thread::sleep(Duration::from_millis(50));
    }

    // The same query now serves sim-backed evidence from L2 (the L1 entry
    // was invalidated by the upgrade), at the bumped generation.
    let warm = client.query(q).expect("warm query");
    assert_eq!(warm.backend, "sim");
    assert_eq!(warm.generation, 1);
    assert_eq!(warm.tier, Tier::L2);
    assert!(!warm.refine_scheduled, "sim-backed evidence must not re-refine");

    stop(server, &mut client);
}

/// Nearest-size fallback: a query between tuned sizes is answered from the
/// closest tuned cell (log-scale) and marked inexact.
#[test]
fn near_lookup_serves_closest_tuned_size() {
    let (server, mut client) = start(|_| {});
    let near = client.query(query(1500)).expect("near query"); // between 1 KiB and 32 KiB
    assert_eq!(near.tier, Tier::L2Near);
    assert!(!near.exact);
    assert_eq!(near.evidence_bytes, 1024);
    // Refinement is disabled in this fixture, so no ticket may be claimed.
    assert!(!near.refine_scheduled, "no refinement may be promised with refine_threads=0");
    stop(server, &mut client);
}

/// Graceful shutdown: the Shutdown frame gets a Bye, in-flight work drains,
/// `join()` returns, and the port stops accepting.
#[test]
fn graceful_shutdown_drains_and_stops_accepting() {
    let (server, mut client) = start(|cfg| cfg.tune_at_startup = false);
    let addr = server.local_addr();
    let mut second = Client::connect(addr).expect("second client");
    second.ping().expect("second connection alive");

    client.shutdown().expect("bye handshake");
    server.join();

    // The listener is gone: a fresh connection must fail (or be dropped
    // without ever serving a frame).
    let mut refused = false;
    match Client::connect(addr) {
        Err(_) => refused = true,
        Ok(mut c) => {
            if c.ping().is_err() {
                refused = true;
            }
        }
    }
    assert!(refused, "daemon kept serving after graceful shutdown");
}

/// `stop()` while pipelined frames are in flight loses none of them: the
/// drain reads what the kernel already holds on every connection, serves
/// it — waiting for cold cells on the compute pool — and flushes before
/// closing. Repeated, because a lost reply depends on where the loop is
/// when the stop lands.
#[test]
fn stop_drains_pipelined_frames() {
    for round in 0..6 {
        let (server, first) = start(|_| {});
        let mut clients = vec![first];
        clients.extend((0..3).map(|_| Client::connect(server.local_addr()).expect("connect")));
        let mut pending = Vec::new();
        for (i, c) in clients.iter_mut().enumerate() {
            // Warm, cold (ranks never tuned), warm: the last frame waits
            // behind the cold one's pool job.
            let cold = QueryRequest { ranks: 4 + 4 * round + i, ..query(1024) };
            let ids: Vec<u64> = [query(1024), cold, query(8)]
                .into_iter()
                .map(|q| c.send(Request::Query(q)).expect("send"))
                .collect();
            pending.push(ids);
        }
        server.stop();
        for (i, (c, ids)) in clients.iter_mut().zip(pending).enumerate() {
            for id in ids {
                let env = c
                    .recv()
                    .unwrap_or_else(|e| panic!("round {round}: reply {id} on client {i} lost: {e}"));
                assert_eq!(env.id, id, "round {round}: replies must keep request order");
                assert!(matches!(env.reply, Reply::Answer(_)), "round {round}: {:?}", env.reply);
            }
        }
        server.join();
    }
}

/// A cold cell's sweep runs on the compute pool, not the event loop: while
/// connection A waits for it, connection B is served, and A's replies
/// still come back in request order. Order-based: B's `Pong` and a stats
/// read showing A's cell unpublished both precede A's answer.
#[test]
fn cold_compute_does_not_block_other_connections() {
    let (server, mut b) = start(|cfg| {
        cfg.backend = Backend::Sim;
        cfg.tune_at_startup = false;
    });
    let mut a = Client::connect(server.local_addr()).expect("connect A");
    let cold = QueryRequest {
        collective: CollectiveKind::Alltoall,
        bytes: 64 * 1024,
        ranks: 128,
        ..query(0)
    };
    let query_id = a.send(Request::Query(cold)).expect("send cold query");
    let ping_id = a.send(Request::Ping).expect("pipeline ping");

    // Wait until A's query has landed (decoded and handed to the pool).
    let deadline = Instant::now() + Duration::from_secs(30);
    while server.stats().report().endpoints.query == 0 {
        assert!(Instant::now() < deadline, "A's query never landed");
        std::thread::sleep(Duration::from_millis(1));
    }
    b.ping().expect("B is served while A's cell computes");
    let during = b.stats().expect("stats while A's cell computes");
    assert_eq!(during.l2_cells, 0, "B must be answered before A's cold cell is published");

    let first = a.recv().expect("A's answer");
    assert_eq!(first.id, query_id, "A's replies must keep request order");
    match first.reply {
        Reply::Answer(ans) => assert_eq!(ans.tier, Tier::Computed),
        other => panic!("expected A's answer, got {other:?}"),
    }
    let second = a.recv().expect("A's pong");
    assert_eq!(second.id, ping_id);
    assert!(matches!(second.reply, Reply::Pong));
    stop(server, &mut b);
}

/// One event loop holds well over 1024 concurrent connections (the
/// default soft fd limit) and serves every one of them while all the
/// others stay open — no connection waits for a free worker thread.
#[test]
fn event_node_sustains_1024_concurrent_connections() {
    const CONNS: usize = 1100;
    let (server, mut control) = start(|cfg| cfg.tune_at_startup = false);
    let addr = server.local_addr();

    let mut clients: Vec<Client> = Vec::with_capacity(CONNS);
    for i in 0..CONNS {
        clients.push(Client::connect(addr).unwrap_or_else(|e| panic!("connect #{i}: {e}")));
    }
    // Every connection is live and served while all the others stay open.
    for (i, c) in clients.iter_mut().enumerate() {
        c.ping().unwrap_or_else(|e| panic!("ping #{i}: {e}"));
    }
    let stats = clients[0].stats().expect("stats");
    assert!(stats.connections > CONNS as u64, "accepted {}", stats.connections);
    assert_eq!(stats.endpoints.ping, CONNS as u64);

    drop(clients);
    stop(server, &mut control);
}

/// The crate-root re-exports stay wired to the protocol version the client
/// speaks (guards the public API surface).
#[test]
fn public_api_surface_is_consistent() {
    let line = format!("{{\"v\":{PROTO_VERSION},\"id\":3,\"req\":\"Ping\"}}");
    let env = decode_request(&line).expect("root re-export decodes current version");
    assert_eq!((env.v, env.id), (PROTO_VERSION, 3));
    assert!(matches!(env.req, Request::Ping));
}
