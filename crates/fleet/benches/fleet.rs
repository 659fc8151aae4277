//! Loopback throughput of a shard fleet (numbers land in BENCH_fleet.json):
//! cold-miss queries routed over 1-shard and 4-shard fleets, and warm
//! batches spread across shards.
//!
//! Cold cells cycle `(collective, ranks)` pairs that were never tuned, so
//! every query pays the full model sweep on whichever shard the ring
//! routes it to. Only the paper's collectives are used — other kinds carry
//! no experiment algorithms and would be rejected, not computed.

use std::cell::Cell;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use pap_collectives::CollectiveKind;
use pap_fleet::{Fleet, FleetClient, FleetConfig};
use pap_service::{QueryRequest, ServeConfig};

const KINDS: [CollectiveKind; 3] =
    [CollectiveKind::Reduce, CollectiveKind::Allreduce, CollectiveKind::Alltoall];

fn start(shards: usize, tune: bool) -> (Fleet, FleetClient) {
    let base = ServeConfig {
        addr: "127.0.0.1:0".into(),
        tune_at_startup: tune,
        l1_capacity: 0,
        refine_threads: 0, // keep the workload deterministic
        ..ServeConfig::default()
    };
    let fleet = Fleet::start(FleetConfig { shards, base }).expect("fleet start");
    let client = FleetClient::new(fleet.addrs().to_vec());
    (fleet, client)
}

fn cold_query(i: usize) -> QueryRequest {
    QueryRequest {
        machine: "simcluster".into(),
        collective: KINDS[(i / 512) % KINDS.len()],
        bytes: 4096,
        ranks: 2 + (i % 512),
        arrivals: None,
    }
}

/// Cold misses one round trip at a time — every query pays its own wire
/// overhead on top of the sweep.
fn bench_cold(c: &mut Criterion, name: &str, shards: usize) {
    let (fleet, mut client) = start(shards, false);
    let next = Cell::new(0usize);
    let mut g = c.benchmark_group("fleet/loopback");
    g.throughput(Throughput::Elements(1));
    g.bench_function(name, |b| {
        b.iter(|| {
            let i = next.get();
            next.set(i + 1);
            client.query(cold_query(i)).expect("cold query")
        });
    });
    g.finish();
    drop(client);
    fleet.join_all();
}

/// Cold misses in routed batches — the client groups by owning shard and
/// pipelines each shard's sub-batch, so the wire cost amortizes and every
/// shard's sweeps stream back to back. This is how a tracing MPI
/// library would actually warm a fleet.
fn bench_cold_batch(c: &mut Criterion, name: &str, shards: usize) {
    const BATCH: usize = 32;
    let (fleet, mut client) = start(shards, false);
    let next = Cell::new(0usize);
    let mut g = c.benchmark_group("fleet/loopback");
    g.throughput(Throughput::Elements(BATCH as u64));
    g.bench_function(name, |b| {
        b.iter(|| {
            let base = next.get();
            next.set(base + BATCH);
            let qs: Vec<QueryRequest> = (base..base + BATCH).map(cold_query).collect();
            let replies = client.query_batch(qs).expect("cold batch");
            for r in &replies {
                r.as_ref().expect("cold query");
            }
            replies
        });
    });
    g.finish();
    drop(client);
    fleet.join_all();
}

fn bench_cold_1shard(c: &mut Criterion) {
    bench_cold(c, "cold_miss_1shard", 1);
}

fn bench_cold_4shard(c: &mut Criterion) {
    bench_cold(c, "cold_miss_4shard", 4);
}

fn bench_cold_batch_4shard(c: &mut Criterion) {
    bench_cold_batch(c, "cold_batch_4shard", 4);
}

/// Warm batches over a replicated 4-shard fleet: every shard serves the
/// same L2 evidence, the ring spreads the batch by key.
fn bench_warm_batch_4shard(c: &mut Criterion) {
    const BATCH: u64 = 64;
    let (fleet, mut client) = start(4, true);
    let qs: Vec<QueryRequest> = (0..BATCH)
        .map(|i| QueryRequest {
            machine: "simcluster".into(),
            collective: KINDS[i as usize % KINDS.len()],
            bytes: 1024,
            ranks: 16,
            arrivals: None,
        })
        .collect();
    let mut g = c.benchmark_group("fleet/loopback");
    g.throughput(Throughput::Elements(BATCH));
    g.bench_function("warm_batch_4shard", |b| {
        b.iter(|| client.query_batch(qs.clone()).expect("batch"));
    });
    g.finish();
    drop(client);
    fleet.join_all();
}

criterion_group!(
    benches,
    bench_cold_1shard,
    bench_cold_4shard,
    bench_cold_batch_4shard,
    bench_warm_batch_4shard
);
criterion_main!(benches);
