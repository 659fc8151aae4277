//! Loopback query throughput of `papd` (numbers land in
//! BENCH_service.json): pipelined batches over one TCP connection against
//! three cache regimes — warm L1, L2-only (L1 disabled), and cold cells
//! (every query misses and is computed from the model backend on the
//! server's compute pool).

use std::cell::Cell;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use pap_collectives::CollectiveKind;
use pap_service::{Client, QueryRequest, ServeConfig, Server};

const BATCH: u64 = 64;

fn query(bytes: u64) -> QueryRequest {
    QueryRequest {
        machine: "simcluster".into(),
        collective: CollectiveKind::Reduce,
        bytes,
        ranks: 16,
        arrivals: None,
    }
}

fn start(l1_capacity: usize, tune_at_startup: bool) -> (Server, Client) {
    let cfg = ServeConfig {
        l1_capacity,
        tune_at_startup,
        refine_threads: 0, // keep the workload deterministic
        ..ServeConfig::default()
    };
    let server = Server::start(cfg).expect("server start");
    let client = Client::connect(server.local_addr()).expect("client connect");
    (server, client)
}

fn bench_warm_l1(c: &mut Criterion) {
    let (server, mut client) = start(1024, true);
    client.query(query(1024)).expect("warmup"); // L2 hit, populates L1
    let mut g = c.benchmark_group("service/loopback");
    g.throughput(Throughput::Elements(BATCH));
    g.bench_function("warm_l1", |b| {
        b.iter(|| {
            let qs: Vec<QueryRequest> = (0..BATCH).map(|_| query(1024)).collect();
            client.query_batch(qs).expect("batch")
        });
    });
    g.finish();
    server.stop();
    server.join();
}

fn bench_l2_only(c: &mut Criterion) {
    let (server, mut client) = start(0, true);
    let mut g = c.benchmark_group("service/loopback");
    g.throughput(Throughput::Elements(BATCH));
    g.bench_function("l2_only", |b| {
        b.iter(|| {
            let qs: Vec<QueryRequest> = (0..BATCH).map(|_| query(1024)).collect();
            client.query_batch(qs).expect("batch")
        });
    });
    g.finish();
    server.stop();
    server.join();
}

fn bench_cold(c: &mut Criterion) {
    let (server, mut client) = start(0, false);
    // Every query targets a never-seen (collective, ranks) cell — same-kind
    // same-ranks queries would fall back to the nearest tuned size — so
    // every query misses all tiers and pays the full inline model sweep
    // (algorithms × patterns).
    const KINDS: [CollectiveKind; 8] = [
        CollectiveKind::Reduce,
        CollectiveKind::Allreduce,
        CollectiveKind::Alltoall,
        CollectiveKind::Allgather,
        CollectiveKind::Bcast,
        CollectiveKind::Gather,
        CollectiveKind::Scatter,
        CollectiveKind::Barrier,
    ];
    let next = Cell::new(0usize);
    let mut g = c.benchmark_group("service/loopback");
    g.throughput(Throughput::Elements(1));
    g.bench_function("cold_miss", |b| {
        b.iter(|| {
            let i = next.get();
            next.set(i + 1);
            let q = QueryRequest {
                ranks: 2 + (i % 512),
                collective: KINDS[(i / 512) % KINDS.len()],
                ..query(4096)
            };
            client.query(q).expect("query")
        });
    });
    g.finish();
    server.stop();
    server.join();
}

criterion_group!(benches, bench_warm_l1, bench_l2_only, bench_cold);
criterion_main!(benches);
