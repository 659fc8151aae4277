//! End-to-end fleet tests over real sockets: warm replication, shard-kill
//! recovery and aggregated stats.

use pap_collectives::CollectiveKind;
use pap_service::fleet::{Fleet, FleetClient, FleetConfig};
use pap_service::{Client, QueryRequest, ServeConfig, Tier};

fn base(tune: bool) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".into(),
        tune_at_startup: tune,
        refine_threads: 0,
        ..ServeConfig::default()
    }
}

fn query(kind: CollectiveKind, ranks: usize, bytes: u64) -> QueryRequest {
    QueryRequest { machine: "simcluster".into(), collective: kind, bytes, ranks, arrivals: None }
}

/// A shard booted by warm replication is indistinguishable from one booted
/// from a snapshot file: it never tuned, reports itself warm, and answers
/// its very first query straight from L2.
#[test]
fn replicated_shard_answers_first_query_from_l2() {
    let fleet = Fleet::start(FleetConfig { shards: 2, base: base(true) }).expect("fleet start");
    let mut replica = Client::connect(fleet.addrs()[1]).expect("connect replica");

    let pre = replica.stats().expect("stats");
    assert!(pre.snapshot_loaded, "replication must mark the shard warm");
    assert!(!pre.tuned_at_startup, "the replica must not have tuned");
    assert!(pre.l2_cells > 0, "replication delivered no cells");
    assert_eq!(pre.endpoints.query, 0);

    // The donor tuned (machine simcluster, 16 ranks, default sizes), so
    // this cell exists verbatim on the replica.
    let a = replica.query(query(CollectiveKind::Reduce, 16, 1024)).expect("first query");
    assert_eq!(a.tier, Tier::L2, "first answer must come from replicated L2 evidence");
    assert!(a.exact);

    let post = replica.stats().expect("stats");
    assert_eq!(post.tiers.l2_exact, 1);
    assert_eq!(post.tiers.miss, 0, "a warm shard computes nothing");

    // Replica and donor agree cell for cell.
    let mut donor = Client::connect(fleet.addrs()[0]).expect("connect donor");
    let d = donor.query(query(CollectiveKind::Reduce, 16, 1024)).expect("donor query");
    assert_eq!((d.alg, d.policy), (a.alg, a.policy));

    fleet.join_all();
}

/// Killing a shard mid-workload loses zero queries: transport failures
/// retry, the shard is declared dead, and its keys fail over clockwise.
/// Queries owned by surviving shards never move (ring stability).
#[test]
fn shard_kill_recovery_loses_zero_queries() {
    let mut fleet = Fleet::start(FleetConfig { shards: 4, base: base(true) }).expect("fleet start");
    let mut client = FleetClient::new(fleet.addrs().to_vec());

    let kinds = [CollectiveKind::Reduce, CollectiveKind::Allreduce, CollectiveKind::Alltoall];
    let queries: Vec<QueryRequest> =
        (0..30).map(|i| query(kinds[i % kinds.len()], 2 + (i % 15), 1024)).collect();

    // Warm pass with every shard alive.
    for q in &queries {
        client.query(q.clone()).expect("warm pass");
    }

    // Kill the shard owning the first query's key, then re-run everything.
    // Its warm-pass hits die with it: a dead shard's counters drop out of
    // the aggregated stats view, so remember how many that is.
    let victim = client.route(&queries[0]).expect("routed");
    let victim_warm_hits =
        queries.iter().filter(|q| client.route(q) == Some(victim)).count() as u64;
    assert!(fleet.kill_shard(victim));
    let mut failed = 0;
    for q in &queries {
        if client.query(q.clone()).is_err() {
            failed += 1;
        }
        if let Some(s) = client.route(q) {
            assert_ne!(s, victim, "no key may still route to the dead shard");
        }
    }
    assert_eq!(failed, 0, "shard kill must not lose a single query");
    assert!(!client.alive()[victim], "the victim must be marked dead");

    // The client observed the failure path.
    let metrics = client.metrics();
    let count = |name: &str| {
        metrics.counters.iter().find(|c| c.name == name).map_or(0, |c| c.value)
    };
    assert!(count("fleet_client_retries") > 0, "kill must trigger retries");
    assert!(count("fleet_client_failovers") > 0, "kill must trigger failover");
    assert_eq!(count("fleet_client_dead_shards"), 1);

    // Batch path reassembles in input order across the reduced fleet.
    let results = client.query_batch(queries.clone()).expect("batch");
    for (r, q) in results.iter().zip(&queries) {
        let a = r.as_ref().expect("no failed slots");
        assert_eq!((a.ranks, a.collective), (q.ranks, q.collective));
    }

    // Aggregated stats span the three survivors: every query of all three
    // passes except the warm-pass hits that died with the victim.
    let agg = client.stats().expect("aggregated stats");
    assert!(
        agg.endpoints.query >= 90 - victim_warm_hits,
        "survivors account for all three passes minus the victim's {} warm hits: {}",
        victim_warm_hits,
        agg.endpoints.query
    );
    assert!(agg.connections >= 3, "one client connection per surviving shard");

    fleet.join_all();
}
